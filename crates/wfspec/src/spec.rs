//! The workflow specification `S = (Σ, Δ, ΔL, ΔF, I, g0)` (Definition 5).

use crate::error::SpecError;
use crate::names::NameTable;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use wf_graph::{Graph, NameId};

/// Identifier of a graph in `G(S) = {g0} ∪ {h | (A, h) ∈ I}` (§5.1).
///
/// `GraphId::START` is the start graph; ids `1..` index implementation
/// graphs in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GraphId(pub u32);

impl GraphId {
    /// The start graph `g0`.
    pub const START: GraphId = GraphId(0);

    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The class of a name in Σ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NameClass {
    /// Atomic ("black box", Δ).
    Atomic,
    /// Plain composite (Σ \ Δ, neither loop nor fork).
    Composite,
    /// Loop module (ΔL): its body is replicated in series.
    Loop,
    /// Fork module (ΔF): its body is replicated in parallel.
    Fork,
}

impl NameClass {
    /// True for every non-atomic class.
    pub fn is_composite(self) -> bool {
        !matches!(self, NameClass::Atomic)
    }
}

/// A workflow specification (Definition 5).
///
/// Built via [`crate::SpecBuilder`]; immutable afterwards. All structural
/// requirements (two-terminal DAG graphs, implementations only for
/// composite names, atomic dummy terminals) are validated at build time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Specification {
    pub(crate) names: NameTable,
    pub(crate) classes: Vec<NameClass>,
    /// `graphs[0]` is the start graph; `graphs[i]` for `i ≥ 1` is the body
    /// of the implementation `impl_heads[i - 1]`.
    pub(crate) graphs: Vec<Graph>,
    pub(crate) impl_heads: Vec<NameId>,
    /// For each composite name, the ids of its implementation graphs
    /// (derived from `impl_heads`; rebuilt after deserialization).
    #[serde(skip)]
    pub(crate) impls_by_name: HashMap<NameId, Vec<GraphId>>,
}

impl Specification {
    /// The name table (Σ).
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// Resolve a `NameId` to its display string.
    pub fn name_str(&self, id: NameId) -> &str {
        self.names.resolve(id)
    }

    /// Look up a name id by string.
    pub fn name_id(&self, name: &str) -> Option<NameId> {
        self.names.get(name)
    }

    /// The class of a name.
    pub fn class(&self, id: NameId) -> NameClass {
        self.classes[id.0 as usize]
    }

    /// True if `id ∈ Δ`.
    pub fn is_atomic(&self, id: NameId) -> bool {
        matches!(self.class(id), NameClass::Atomic)
    }

    /// True if `id ∈ Σ \ Δ`.
    pub fn is_composite(&self, id: NameId) -> bool {
        self.class(id).is_composite()
    }

    /// The start graph `g0`.
    pub fn start_graph(&self) -> &Graph {
        &self.graphs[0]
    }

    /// The graph with the given id (start graph or implementation body).
    pub fn graph(&self, id: GraphId) -> &Graph {
        &self.graphs[id.idx()]
    }

    /// All graph ids in `G(S)`, start graph first.
    pub fn graph_ids(&self) -> impl Iterator<Item = GraphId> {
        (0..self.graphs.len() as u32).map(GraphId)
    }

    /// Number of graphs in `G(S)`.
    pub fn graph_count(&self) -> usize {
        self.graphs.len()
    }

    /// The head name `A` of implementation graph `id`; `None` for the
    /// start graph.
    pub fn head(&self, id: GraphId) -> Option<NameId> {
        if id == GraphId::START {
            None
        } else {
            Some(self.impl_heads[id.idx() - 1])
        }
    }

    /// The implementation graphs of a composite name (the pairs `(A, h)`
    /// of `I` with this `A`), in declaration order.
    pub fn implementations(&self, name: NameId) -> &[GraphId] {
        self.impls_by_name
            .get(&name)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Iterate over all `(A, h)` pairs of `I`.
    pub fn impl_pairs(&self) -> impl Iterator<Item = (NameId, GraphId)> + '_ {
        self.impl_heads
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, GraphId(i as u32 + 1)))
    }

    /// `nG`: the maximum size (vertex count) of a specification graph
    /// (Table 1).
    pub fn max_graph_size(&self) -> usize {
        self.graphs
            .iter()
            .map(|g| g.vertex_count())
            .max()
            .unwrap_or(0)
    }

    /// Number of composite names `|Σ \ Δ|` (bounds the explicit-parse-tree
    /// depth, Lemma 4.1).
    pub fn composite_count(&self) -> usize {
        self.classes.iter().filter(|c| c.is_composite()).count()
    }

    /// The grammar view of this specification (Definition 6).
    pub fn grammar(&self) -> crate::Grammar<'_> {
        crate::Grammar::new(self)
    }

    /// Run the structural grammar analysis (Section 4.1) directly.
    pub fn analysis(&self) -> crate::analysis::GrammarAnalysis {
        crate::analysis::GrammarAnalysis::new(self)
    }

    /// Structural validation (also run by the builder): every graph is a
    /// two-terminal DAG with atomic terminals; implementations exist
    /// exactly for composite names.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.graphs.is_empty() || self.graphs[0].vertex_count() == 0 {
            return Err(SpecError::MissingStartGraph);
        }
        for gid in self.graph_ids() {
            let g = self.graph(gid);
            let gname = self.graph_label(gid);
            if !g.is_acyclic() {
                return Err(SpecError::Cyclic { graph: gname });
            }
            if !g.is_two_terminal() {
                return Err(SpecError::NotTwoTerminal { graph: gname });
            }
            for t in [g.source().unwrap(), g.sink().unwrap()] {
                if self.is_composite(g.name(t)) {
                    return Err(SpecError::CompositeTerminal {
                        graph: self.graph_label(gid),
                        vertex: self.name_str(g.name(t)).to_string(),
                    });
                }
            }
        }
        for (id, _) in self.names.iter() {
            let class = self.class(id);
            let has_impl = !self.implementations(id).is_empty();
            if class.is_composite() && !has_impl {
                return Err(SpecError::CompositeWithoutImplementation(
                    self.name_str(id).to_string(),
                ));
            }
            if !class.is_composite() && has_impl {
                return Err(SpecError::ImplementationForAtomic(
                    self.name_str(id).to_string(),
                ));
            }
        }
        Ok(())
    }

    /// Check the two conditions of §5.3 that allow the *name-based*
    /// execution labeler to infer derivation steps from insertions alone:
    ///
    /// 1. all vertices of each graph in `G(S)` have distinct names;
    /// 2. the source and sink of every implementation graph carry names
    ///    that occur in no other graph of `G(S)` (unique dummy modules).
    pub fn check_execution_conditions(&self) -> Result<(), SpecError> {
        // Condition 1.
        for gid in self.graph_ids() {
            let g = self.graph(gid);
            let mut seen: HashSet<NameId> = HashSet::new();
            for v in g.vertices() {
                if !seen.insert(g.name(v)) {
                    return Err(SpecError::DuplicateNameInGraph {
                        graph: self.graph_label(gid),
                        name: self.name_str(g.name(v)).to_string(),
                    });
                }
            }
        }
        // Condition 2: terminal names of every graph in G(S) are globally
        // unique. (We check the start graph's terminals too — harmless and
        // it keeps inference uniform.)
        let mut owner: HashMap<NameId, GraphId> = HashMap::new();
        for gid in self.graph_ids() {
            let g = self.graph(gid);
            for v in g.vertices() {
                let n = g.name(v);
                let is_terminal_here = v == g.source().unwrap() || v == g.sink().unwrap();
                match owner.entry(n) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        if is_terminal_here {
                            e.insert(gid);
                        }
                    }
                    std::collections::hash_map::Entry::Occupied(e) => {
                        if *e.get() != gid {
                            return Err(SpecError::SharedTerminalName {
                                name: self.name_str(n).to_string(),
                            });
                        }
                    }
                }
            }
        }
        // Second pass: non-terminal occurrences of a terminal name in a
        // *different* graph also violate Condition 2.
        for gid in self.graph_ids() {
            let g = self.graph(gid);
            for v in g.vertices() {
                let n = g.name(v);
                if let Some(&og) = owner.get(&n) {
                    if og != gid {
                        return Err(SpecError::SharedTerminalName {
                            name: self.name_str(n).to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Human-readable label for a graph (for error messages).
    pub fn graph_label(&self, gid: GraphId) -> String {
        match self.head(gid) {
            None => "g0".to_string(),
            Some(a) => format!("impl#{} of {}", gid.0, self.name_str(a)),
        }
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("specification serialization cannot fail")
    }

    /// Deserialize from JSON (rebuilds the name index and re-validates).
    pub fn from_json(json: &str) -> Result<Self, SpecError> {
        let mut spec: Specification =
            serde_json::from_str(json).map_err(|_| SpecError::MissingStartGraph)?;
        spec.names.rebuild();
        spec.impls_by_name.clear();
        for (i, &head) in spec.impl_heads.iter().enumerate() {
            spec.impls_by_name
                .entry(head)
                .or_default()
                .push(GraphId(i as u32 + 1));
        }
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SpecBuilder;

    fn tiny() -> Specification {
        let mut b = SpecBuilder::new();
        b.composite("A");
        b.start(|g| {
            let s = g.vertex("s0");
            let a = g.vertex("A");
            let t = g.vertex("t0");
            g.edge(s, a);
            g.edge(a, t);
        });
        b.implementation("A", |g| {
            let s = g.vertex("s1");
            let t = g.vertex("t1");
            g.edge(s, t);
        });
        b.build().unwrap()
    }

    #[test]
    fn accessors() {
        let spec = tiny();
        let a = spec.name_id("A").unwrap();
        assert_eq!(spec.class(a), NameClass::Composite);
        assert!(spec.is_composite(a));
        assert!(spec.is_atomic(spec.name_id("s0").unwrap()));
        assert_eq!(spec.graph_count(), 2);
        assert_eq!(spec.implementations(a), &[GraphId(1)]);
        assert_eq!(spec.head(GraphId(1)), Some(a));
        assert_eq!(spec.head(GraphId::START), None);
        assert_eq!(spec.max_graph_size(), 3);
        assert_eq!(spec.composite_count(), 1);
    }

    #[test]
    fn execution_conditions_hold_for_tiny() {
        tiny().check_execution_conditions().unwrap();
    }

    #[test]
    fn json_roundtrip() {
        let spec = tiny();
        let json = spec.to_json();
        let back = Specification::from_json(&json).unwrap();
        assert_eq!(back.graph_count(), spec.graph_count());
        assert_eq!(back.name_id("A"), spec.name_id("A"));
        back.validate().unwrap();
    }
}
