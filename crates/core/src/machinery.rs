//! Shared machinery of the derivation-based and execution-based labelers:
//! entry construction against skeleton labels (Algorithm 1) and the
//! dynamic explicit-parse-tree update for one composite expansion
//! (Algorithm 2).

use crate::entry::{Entry, NodeKind};
use crate::label::DrlLabel;
use crate::tree::{ExplicitTree, NodeId};
use std::fmt;
use std::sync::Arc;
use wf_graph::VertexId;
use wf_skeleton::SpecLabeling;
use wf_spec::{GraphId, NameClass, RecursionClass, Specification};

/// How recursion is mapped onto the explicit parse tree (Sections 4–6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecursionMode {
    /// R-node chaining for the unique recursive vertex per production.
    /// Requires a linear recursive grammar (Definition 10); guarantees
    /// constant tree depth (Lemma 4.1) and O(log n)-bit labels
    /// (Theorem 3).
    Linear,
    /// Nonlinear optimization of §6: compress *at most one* recursive
    /// vertex per production with an R chain, nest the rest plainly.
    /// Tree depth — and hence label length — may grow with the recursion
    /// depth (Θ(n) worst case, matching Theorem 1).
    CompressFirst,
    /// §6's baseline adaptation: no R nodes at all; every recursive
    /// vertex nests plainly.
    NoRNodes,
}

impl RecursionMode {
    /// The mode the labelers pick on their own: `Linear` for linear
    /// recursive grammars, `CompressFirst` (the §6 adaptation) otherwise.
    pub fn auto(spec: &Specification) -> Self {
        if spec.analysis().class().is_linear() {
            RecursionMode::Linear
        } else {
            RecursionMode::CompressFirst
        }
    }
}

/// Errors raised when constructing or driving a labeler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrlError {
    /// `RecursionMode::Linear` demands a linear recursive grammar.
    NotLinearRecursive(RecursionClass),
}

impl fmt::Display for DrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrlError::NotLinearRecursive(c) => write!(
                f,
                "RecursionMode::Linear requires a linear recursive grammar, got {c:?} \
                 (use CompressFirst or NoRNodes, §6)"
            ),
        }
    }
}

impl std::error::Error for DrlError {}

/// The outcome of expanding one composite vertex (Algorithm 2's three
/// cases).
#[derive(Debug, Clone)]
pub enum Expansion {
    /// Case 1a: a loop/fork production created special node `special`
    /// with `members` annotated copies (derivation-based creates all
    /// copies at once; execution-based starts with one and appends via
    /// [`LabelerCore::add_replica`]).
    Replicated {
        /// The L or F node.
        special: NodeId,
        /// The member instance nodes, in copy order.
        members: Vec<NodeId>,
    },
    /// Case 2b: the expansion extended an existing R chain (the replaced
    /// vertex was the designated recursive vertex of its instance).
    ChainMember(NodeId),
    /// Cases 1b/1c: a plain instance node — freshly placed under a new R
    /// node when the body has a designated recursive vertex.
    Instance(NodeId),
}

impl Expansion {
    /// The instance nodes holding the body copies, in copy order.
    pub fn members(&self) -> Vec<NodeId> {
        match self {
            Expansion::Replicated { members, .. } => members.clone(),
            Expansion::ChainMember(x) | Expansion::Instance(x) => vec![*x],
        }
    }
}

/// Shared state of both dynamic labelers: the recursion-mode-resolved
/// designated-vertex table and the explicit parse tree. Owns nothing
/// borrowed — the specification is read once at construction and the
/// skeleton labels are passed to each call that consults them, so the
/// state can live next to an `Arc`-owned context as well as next to
/// plain borrows. Every call must be given the skeleton built for the
/// specification the core was constructed from.
pub struct LabelerCore {
    mode: RecursionMode,
    /// Per spec graph: the designated recursive vertex (chain
    /// continuation point), per the recursion mode.
    designated: Vec<Option<VertexId>>,
    /// The explicit parse tree, grown dynamically.
    pub tree: ExplicitTree,
    skl_bits: usize,
}

impl LabelerCore {
    /// Build the core; fails only if `Linear` mode is requested for a
    /// non-linear grammar.
    pub fn new(spec: &Specification, mode: RecursionMode) -> Result<Self, DrlError> {
        let analysis = spec.analysis();
        if mode == RecursionMode::Linear && !analysis.class().is_linear() {
            return Err(DrlError::NotLinearRecursive(analysis.class()));
        }
        let designated: Vec<Option<VertexId>> = spec
            .graph_ids()
            .map(|gid| match mode {
                RecursionMode::NoRNodes => None,
                RecursionMode::Linear => analysis.recursive_vertices(gid).first().copied(),
                RecursionMode::CompressFirst => {
                    // Only plain-composite-named vertices can chain: loop
                    // and fork expansions need their own L/F structure
                    // (cf. Lemma 5.1, which rules such vertices out in
                    // the linear case altogether).
                    analysis
                        .recursive_vertices(gid)
                        .iter()
                        .copied()
                        .find(|&v| spec.class(spec.graph(gid).name(v)) == NameClass::Composite)
                }
            })
            .collect();
        // The paper's accounting (proof of Theorem 3): a skeleton
        // pointer takes `log nG` bits, where nG is the maximum size of a
        // specification graph — the annotated graph itself is implied by
        // the label's index prefix (the tree path), so only the vertex
        // index within it is charged.
        let ng = spec.max_graph_size().max(2);
        let skl_bits = (usize::BITS - (ng - 1).leading_zeros()) as usize;
        Ok(Self {
            mode,
            designated,
            tree: ExplicitTree::new(),
            skl_bits,
        })
    }

    /// The active recursion mode.
    pub fn mode(&self) -> RecursionMode {
        self.mode
    }

    /// Width of the skeleton pointer in bits (constant per spec).
    pub fn skl_bits(&self) -> usize {
        self.skl_bits
    }

    /// The designated recursive vertex of a spec graph, if any.
    pub fn designated(&self, gid: GraphId) -> Option<VertexId> {
        self.designated[gid.idx()]
    }

    /// Create the root node annotated with the start graph.
    pub fn create_root(&mut self) -> NodeId {
        self.tree.create_root(GraphId::START)
    }

    /// Algorithm 1 for the pair `(x, u)` where `x` is a non-special node
    /// and `u` a vertex of `Annt(x)`: index, kind, skeleton pointer, and
    /// — when `Annt(x)` has a designated recursive vertex `w` — the
    /// recursion flags `(πG(u, w), πG(w, u))`.
    pub fn make_entry<S: SpecLabeling>(&self, skeleton: &S, x: NodeId, u: VertexId) -> Entry {
        let node = self.tree.node(x);
        debug_assert_eq!(node.kind, NodeKind::N);
        let gid = node.ann.expect("N nodes carry annotations");
        // `u` and `w` are vertices of `Annt(x)`, so the skeleton answers
        // both.
        let rec = node
            .designated
            .and_then(|w| Some((skeleton.reaches(gid, u, w)?, skeleton.reaches(gid, w, u)?)));
        Entry {
            index: node.index,
            kind: NodeKind::N,
            skl: Some((gid, u)),
            rec,
        }
    }

    /// The (immutable) label of the vertex instantiating spec vertex
    /// `sv` in instance node `x`: the node's prefix array, shared and
    /// numbered, plus one final entry (Algorithm 3's single append) — no
    /// allocation and no copy, whatever the depth of `x`.
    pub fn label_for<S: SpecLabeling>(&self, skeleton: &S, x: NodeId, sv: VertexId) -> DrlLabel {
        let node = self.tree.node(x);
        let entry = self.make_entry(skeleton, x, sv);
        DrlLabel::from_parts(Arc::clone(&node.prefix), entry, node.prefix_id)
    }

    /// Algorithm 2: update the tree for the expansion of composite
    /// vertex `u_spec` (a vertex of `Annt(y)`) by `copies` copies of
    /// `body`.
    ///
    /// Dispatches on the three cases: the replaced vertex is the
    /// designated recursive vertex of an R-chained instance (extend the
    /// chain); the head is a loop/fork name (L/F node with `copies`
    /// children); otherwise a plain instance, wrapped in a fresh R node
    /// when the body itself has a designated recursive vertex.
    pub fn expand<S: SpecLabeling>(
        &mut self,
        skeleton: &S,
        y: NodeId,
        u_spec: VertexId,
        head_class: NameClass,
        body: GraphId,
        copies: usize,
    ) -> Expansion {
        debug_assert!(copies >= 1);
        let body_designated = self.designated(body);
        let y_node = self.tree.node(y);
        let chained = y_node.designated == Some(u_spec)
            && y_node
                .parent
                .is_some_and(|p| self.tree.node(p).kind == NodeKind::R);
        if chained {
            // Case 2b: next member of the existing chain; the "dashed
            // edge" (y → new) is annotated with u_spec, which becomes
            // the new member's host frame.
            debug_assert_eq!(head_class, NameClass::Composite);
            debug_assert_eq!(copies, 1);
            let r = self.tree.node(y).parent.unwrap();
            let r_entry = Entry::special(self.tree.node(r).index, NodeKind::R);
            let member = self.tree.attach(
                r,
                NodeKind::N,
                Some(body),
                body_designated,
                r_entry,
                Some((y, u_spec)),
            );
            return Expansion::ChainMember(member);
        }
        let edge_entry = self.make_entry(skeleton, y, u_spec);
        match head_class {
            NameClass::Loop | NameClass::Fork => {
                // Case 1a. The special node remembers the body graph (in
                // `ann`) and the host frame so later replicas can be
                // attached by the execution-based labeler.
                let kind = if head_class == NameClass::Loop {
                    NodeKind::L
                } else {
                    NodeKind::F
                };
                let special =
                    self.tree
                        .attach(y, kind, Some(body), None, edge_entry, Some((y, u_spec)));
                let members = (0..copies).map(|_| self.add_replica(special)).collect();
                Expansion::Replicated { special, members }
            }
            NameClass::Composite => {
                debug_assert_eq!(copies, 1);
                if body_designated.is_some() {
                    // Case 1b: fresh R node with the instance as its
                    // first chain member.
                    let r = self
                        .tree
                        .attach(y, NodeKind::R, None, None, edge_entry, None);
                    let r_entry = Entry::special(self.tree.node(r).index, NodeKind::R);
                    let member = self.tree.attach(
                        r,
                        NodeKind::N,
                        Some(body),
                        body_designated,
                        r_entry,
                        Some((y, u_spec)),
                    );
                    Expansion::Instance(member)
                } else {
                    // Case 1c: plain instance node.
                    let member = self.tree.attach(
                        y,
                        NodeKind::N,
                        Some(body),
                        None,
                        edge_entry,
                        Some((y, u_spec)),
                    );
                    Expansion::Instance(member)
                }
            }
            NameClass::Atomic => unreachable!("atomic vertices are never expanded"),
        }
    }

    /// Attach one more copy under an existing L/F node (loop iteration /
    /// fork branch discovered by the execution-based labeler).
    pub fn add_replica(&mut self, special: NodeId) -> NodeId {
        let s = self.tree.node(special);
        let kind = s.kind;
        debug_assert!(matches!(kind, NodeKind::L | NodeKind::F));
        let body = s.ann.expect("L/F nodes remember their body");
        let host = s.host;
        let entry = Entry::special(s.index, kind);
        self.tree.attach(
            special,
            NodeKind::N,
            Some(body),
            self.designated(body),
            entry,
            host,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_mode_rejects_nonlinear_grammar() {
        let spec = wf_spec::corpus::theorem1();
        let err = LabelerCore::new(&spec, RecursionMode::Linear)
            .err()
            .expect("nonlinear grammar must be rejected");
        assert!(matches!(err, DrlError::NotLinearRecursive(_)));
        // The other modes accept it.
        assert!(LabelerCore::new(&spec, RecursionMode::CompressFirst).is_ok());
        assert!(LabelerCore::new(&spec, RecursionMode::NoRNodes).is_ok());
    }

    #[test]
    fn designated_vertices_follow_mode() {
        let spec = wf_spec::corpus::running_example();
        let a = spec.name_id("A").unwrap();
        let h3 = spec.implementations(a)[0];
        let linear = LabelerCore::new(&spec, RecursionMode::Linear).unwrap();
        assert!(linear.designated(h3).is_some());
        assert!(linear.designated(GraphId::START).is_none());
        let nor = LabelerCore::new(&spec, RecursionMode::NoRNodes).unwrap();
        assert!(nor.designated(h3).is_none());
    }

    #[test]
    fn skl_bits_covers_the_largest_spec_graph() {
        let spec = wf_spec::corpus::bioaid();
        let core = LabelerCore::new(&spec, RecursionMode::Linear).unwrap();
        // Theorem-3 accounting: log nG bits per skeleton pointer.
        assert!(1usize << core.skl_bits() >= spec.max_graph_size());
        assert!(core.skl_bits() <= 8, "BioAID sub-workflows are tiny");
    }
}
