//! The workflow grammar `G = (Σ, Δ, g0, P)` of a specification
//! (Definition 6) and its productions.

use crate::analysis::{GrammarAnalysis, RecursionClass};
use crate::spec::{GraphId, Specification};
use serde::{Deserialize, Serialize};
use wf_graph::{NameId, VertexId};

/// One production of `P` applied during a derivation.
///
/// `P` is conceptually infinite: for loop names it contains
/// `A := S(h, …, h)` for every copy count `i ≥ 1`, and similarly
/// `A := P(h, …, h)` for fork names (Definition 6). A `Production` value
/// is one concrete member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Production {
    /// The implementation body `h` (identifies the head `A` through
    /// `Specification::head`).
    pub body: GraphId,
    /// Number of copies of `h`: always 1 for plain composite heads; ≥ 1
    /// for loop/fork heads (in series / in parallel respectively).
    pub copies: u32,
}

impl Production {
    /// A single-copy production `A := h`.
    pub fn plain(body: GraphId) -> Self {
        Self { body, copies: 1 }
    }

    /// A replicated production (loop/fork head).
    pub fn replicated(body: GraphId, copies: u32) -> Self {
        Self { body, copies }
    }
}

/// The grammar view of a [`Specification`]: the production set plus the
/// precomputed structural analysis (Section 4.1).
pub struct Grammar<'a> {
    spec: &'a Specification,
    analysis: GrammarAnalysis,
}

impl<'a> Grammar<'a> {
    /// Build the grammar (runs the analysis once; specs are tiny).
    pub fn new(spec: &'a Specification) -> Self {
        Self {
            spec,
            analysis: GrammarAnalysis::new(spec),
        }
    }

    /// The underlying specification.
    pub fn spec(&self) -> &'a Specification {
        self.spec
    }

    /// The precomputed analysis.
    pub fn analysis(&self) -> &GrammarAnalysis {
        &self.analysis
    }

    /// `a ↦*G b`.
    pub fn induces(&self, a: NameId, b: NameId) -> bool {
        self.analysis.induces(a, b)
    }

    /// True if vertex `v` of implementation body `gid` is a recursive
    /// vertex of its production.
    pub fn is_recursive_vertex(&self, gid: GraphId, v: VertexId) -> bool {
        self.analysis.is_recursive_vertex(gid, v)
    }

    /// The recursive vertices of body `gid` in id order (for a linear
    /// recursive grammar this has at most one element — Definition 10).
    pub fn recursive_vertices(&self, gid: GraphId) -> &[VertexId] {
        self.analysis.recursive_vertices(gid)
    }

    /// The recursion class (Definitions 10 & 13).
    pub fn classify(&self) -> RecursionClass {
        self.analysis.class()
    }

    /// Shorthand for `classify().is_linear()`.
    pub fn is_linear_recursive(&self) -> bool {
        self.analysis.class().is_linear()
    }

    /// Nesting depth of sub-workflows (footnote 5).
    pub fn nesting_depth(&self) -> usize {
        self.analysis.nesting_depth()
    }
}
