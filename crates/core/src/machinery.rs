//! Shared machinery of the derivation-based and execution-based labelers:
//! the per-specification tables both read ([`SpecTables`]), entry
//! construction against skeleton labels (Algorithm 1) and the dynamic
//! explicit-parse-tree update for one composite expansion (Algorithm 2).
//!
//! What a labeler keeps splits in two. Everything that is a function of
//! the specification alone — the recursion mode and its designated
//! vertices, the skeleton pointer width, which name opens which body,
//! the expansion slot of each composite vertex, the §5.3 Conditions 1–2
//! check — is a [`SpecTables`], built once per specification and
//! borrowed by every call, the way the skeleton labels are. What grows
//! with the run is the [`ExplicitTree`] (and, in the execution-based
//! labeler, its placements): the per-run state, which owns nothing
//! per-spec.

use crate::arena::NameTable;
use crate::entry::{Entry, EntryWord, NodeKind};
use crate::label::DrlLabel;
use crate::tree::{ExplicitTree, NodeId, NONE};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use wf_graph::{NameId, VertexId};
use wf_skeleton::SpecLabeling;
use wf_spec::{GraphId, NameClass, RecursionClass, SpecError, Specification};

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

/// Errors raised when constructing or driving a labeler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrlError {
    /// `RecursionMode::Linear` demands a linear recursive grammar.
    NotLinearRecursive(RecursionClass),
    /// The specification has more graphs, or a graph more vertex slots,
    /// than an [`EntryWord`]'s skeleton pointer names
    /// ([`SpecTables::fits_entry_words`]).
    SpecTooWide {
        /// The specification's graph count.
        graphs: usize,
        /// The vertex slots of its widest graph.
        slots: usize,
    },
}

impl fmt::Display for DrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrlError::NotLinearRecursive(c) => write!(
                f,
                "RecursionMode::Linear requires a linear recursive grammar, got {c:?} \
                 (use CompressFirst or NoRNodes, §6)"
            ),
            DrlError::SpecTooWide { graphs, slots } => write!(
                f,
                "a specification of {graphs} graphs, the widest of {slots} vertex slots, is \
                 wider than an entry word holds (at most {} graphs of {} slots)",
                EntryWord::MAX_GRAPHS,
                EntryWord::MAX_SLOTS
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
    /// [`ExplicitTree::add_replica`]).
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

/// What both dynamic labelers read of their specification, built once
/// per specification: the recursion mode and its designated vertices,
/// the skeleton pointer width, whether an [`EntryWord`] holds every entry
/// of the spec's runs, and for the execution-based labeler which
/// body a source name opens, where each composite vertex's expansion is
/// recorded, and whether §5.3's Conditions 1–2 hold. Immutable; a
/// labeler borrows it on every call that consults it, next to the
/// skeleton labels, and every such call must be given the tables built
/// for the specification (and the skeleton built for it) that the
/// labeler labels against.
#[derive(Debug, Clone)]
pub struct SpecTables {
    mode: RecursionMode,
    /// Per spec graph: the designated recursive vertex (chain
    /// continuation point), per the recursion mode.
    designated: Box<[Option<VertexId>]>,
    skl_bits: usize,
    /// Name-based resolution: implementation source name → body graph.
    source_of: HashMap<NameId, GraphId>,
    /// Per spec graph, per vertex slot: the vertex's rank among the
    /// graph's composite vertices ([`NONE`] for an atomic one) — its
    /// expansion slot within an instance's.
    ranks: Vec<Box<[u32]>>,
    /// Per spec graph: how many composite vertices it has.
    composites: Vec<u32>,
    /// The §5.3 check, run once.
    conditions: Result<(), SpecError>,
    /// The entry-word width check, run once.
    words: Result<(), DrlError>,
    /// Every spec vertex's name, for the label arena's name codes.
    names: NameTable,
}

impl SpecTables {
    /// The tables under the recursion mode the labelers pick on their
    /// own: `Linear` for linear recursive grammars, `CompressFirst` (the
    /// §6 adaptation) otherwise.
    pub fn auto(spec: &Specification) -> Self {
        let analysis = spec.analysis();
        let mode = if analysis.class().is_linear() {
            RecursionMode::Linear
        } else {
            RecursionMode::CompressFirst
        };
        Self::build(spec, mode, &analysis)
    }

    /// The tables under an explicit recursion mode; fails only if
    /// `Linear` is requested for a non-linear grammar.
    pub(crate) fn new(spec: &Specification, mode: RecursionMode) -> Result<Self, DrlError> {
        let analysis = spec.analysis();
        if mode == RecursionMode::Linear && !analysis.class().is_linear() {
            return Err(DrlError::NotLinearRecursive(analysis.class()));
        }
        Ok(Self::build(spec, mode, &analysis))
    }

    fn build(
        spec: &Specification,
        mode: RecursionMode,
        analysis: &wf_spec::analysis::GrammarAnalysis,
    ) -> Self {
        // The start graph is no production's body, so it has no
        // recursive vertices: the root never chains.
        let designated = spec
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
        let mut source_of = HashMap::new();
        for gid in spec.graph_ids().skip(1) {
            let g = spec.graph(gid);
            source_of.insert(g.name(g.source().expect("two-terminal")), gid);
        }
        let slots = spec.graph_ids().map(|g| spec.graph(g).slot_count());
        let widest = slots.max().unwrap_or(0);
        let words = if spec.graph_count() <= EntryWord::MAX_GRAPHS && widest <= EntryWord::MAX_SLOTS
        {
            Ok(())
        } else {
            Err(DrlError::SpecTooWide {
                graphs: spec.graph_count(),
                slots: widest,
            })
        };
        let (ranks, composites) = spec
            .graph_ids()
            .map(|gid| {
                let g = spec.graph(gid);
                let mut ranks = vec![NONE; g.slot_count()].into_boxed_slice();
                let mut count = 0;
                for v in g.vertices() {
                    if spec.is_composite(g.name(v)) {
                        ranks[v.idx()] = count;
                        count += 1;
                    }
                }
                (ranks, count)
            })
            .unzip();
        Self {
            mode,
            designated,
            skl_bits,
            source_of,
            ranks,
            composites,
            conditions: spec.check_execution_conditions(),
            words,
            names: NameTable::new(spec),
        }
    }

    /// The recursion mode.
    pub(crate) fn mode(&self) -> RecursionMode {
        self.mode
    }

    /// Width of the skeleton pointer in bits (constant per spec).
    pub fn skl_bits(&self) -> usize {
        self.skl_bits
    }

    /// The name of every spec vertex: what a label arena of this spec's
    /// runs reads its name code 0 through ([`crate::LabelArena`]).
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// The designated recursive vertex of a spec graph, if any.
    #[inline]
    pub(crate) fn designated(&self, gid: GraphId) -> Option<VertexId> {
        self.designated[gid.idx()]
    }

    /// Whether §5.3's Conditions 1–2 hold — what name-based resolution
    /// needs — and if not, the first violation.
    pub fn conditions(&self) -> Result<(), &SpecError> {
        self.conditions.as_ref().map(|_| ())
    }

    /// Whether an [`EntryWord`] holds every entry a run of the spec
    /// carries: at most [`EntryWord::MAX_GRAPHS`] graphs, each of at most
    /// [`EntryWord::MAX_SLOTS`] vertex slots, so every skeleton pointer
    /// fits. (An entry's index is a labeler's to keep within the word.)
    /// A labeler refuses a spec that fails it, and so does the engine.
    pub fn fits_entry_words(&self) -> Result<(), &DrlError> {
        self.words.as_ref().map(|_| ())
    }

    /// The implementation body whose source is named `name`.
    #[inline]
    pub(crate) fn source_of(&self, name: NameId) -> Option<GraphId> {
        self.source_of.get(&name).copied()
    }

    /// The expansion slot of composite vertex `v` of graph `gid`, among
    /// [`Self::composites`]`(gid)`.
    #[inline]
    pub(crate) fn composite_rank(&self, gid: GraphId, v: VertexId) -> usize {
        let rank = self.ranks[gid.idx()][v.idx()];
        debug_assert_ne!(rank, NONE, "only composite vertices expand");
        rank as usize
    }

    /// How many composite vertices graph `gid` has.
    #[inline]
    pub(crate) fn composites(&self, gid: GraphId) -> usize {
        self.composites[gid.idx()] as usize
    }
}

/// Algorithms 1–3 over the tree, against the per-spec tables and the
/// skeleton labels.
impl ExplicitTree {
    /// Algorithm 1 for the pair `(x, u)` where `x` is a non-special node
    /// and `u` a vertex of `Annt(x)`: index, kind, skeleton pointer, and
    /// — when `Annt(x)` has a designated recursive vertex `w` — the
    /// recursion flags `(πG(u, w), πG(w, u))`.
    pub fn make_entry<S: SpecLabeling>(
        &self,
        tables: &SpecTables,
        skeleton: &S,
        x: NodeId,
        u: VertexId,
    ) -> Entry {
        let node = self.node(x);
        debug_assert_eq!(node.kind(), NodeKind::N);
        let gid = node.ann().expect("N nodes carry annotations");
        // `u` and `w` are vertices of `Annt(x)`, so the skeleton answers
        // both.
        let rec = tables
            .designated(gid)
            .and_then(|w| Some((skeleton.reaches(gid, u, w)?, skeleton.reaches(gid, w, u)?)));
        Entry {
            index: node.index(),
            kind: NodeKind::N,
            skl: Some((gid, u)),
            rec,
        }
    }

    /// The (immutable) label of the vertex instantiating spec vertex
    /// `sv` in instance node `x`: the node's prefix array, shared and
    /// numbered, plus one final entry (Algorithm 3's single append) — no
    /// allocation and no copy, whatever the depth of `x`.
    ///
    /// # Panics
    /// When `tables`' spec does not fit entry words
    /// ([`SpecTables::fits_entry_words`]).
    pub fn label_for<S: SpecLabeling>(
        &self,
        tables: &SpecTables,
        skeleton: &S,
        x: NodeId,
        sv: VertexId,
    ) -> DrlLabel {
        let node = self.node(x);
        let entry = self.make_entry(tables, skeleton, x, sv);
        // The index is a node's, held by `attach`; the pointer names a
        // vertex of a spec the tables found to fit.
        let own = EntryWord::pack(&entry).expect("an own entry within an entry word");
        DrlLabel::from_parts(Arc::clone(node.prefix()), own, node.prefix_id())
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
    ///
    /// `None`, with the tree unchanged, when the node the expansion
    /// attaches under — the chain's R node, or `y` — has no room for
    /// another child ([`Self::has_room`]).
    #[allow(clippy::too_many_arguments)]
    pub fn expand<S: SpecLabeling>(
        &mut self,
        tables: &SpecTables,
        skeleton: &S,
        y: NodeId,
        u_spec: VertexId,
        head_class: NameClass,
        body: GraphId,
        copies: usize,
    ) -> Option<Expansion> {
        debug_assert!(copies >= 1);
        let y_node = self.node(y);
        let y_gid = y_node.ann().expect("N nodes carry annotations");
        let chain = y_node
            .parent()
            .filter(|&p| self.node(p).kind() == NodeKind::R)
            .filter(|_| tables.designated(y_gid) == Some(u_spec));
        if !self.has_room(chain.unwrap_or(y)) {
            return None;
        }
        if let Some(r) = chain {
            // Case 2b: next member of the existing chain; the "dashed
            // edge" (y → new) is annotated with u_spec, which becomes
            // the new member's host frame.
            debug_assert_eq!(head_class, NameClass::Composite);
            debug_assert_eq!(copies, 1);
            let r_entry = Entry::special(self.node(r).index(), NodeKind::R);
            let member = self.attach(r, NodeKind::N, Some(body), r_entry, Some((y, u_spec)));
            return Some(Expansion::ChainMember(member));
        }
        let edge_entry = self.make_entry(tables, skeleton, y, u_spec);
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
                let special = self.attach(y, kind, Some(body), edge_entry, Some((y, u_spec)));
                let members = (0..copies)
                    .map(|_| {
                        let copy = self.add_replica(special);
                        copy.expect("a loop or fork of under 2^25 copies")
                    })
                    .collect();
                Some(Expansion::Replicated { special, members })
            }
            NameClass::Composite => {
                debug_assert_eq!(copies, 1);
                if tables.designated(body).is_some() {
                    // Case 1b: fresh R node with the instance as its
                    // first chain member.
                    let r = self.attach(y, NodeKind::R, None, edge_entry, None);
                    let r_entry = Entry::special(self.node(r).index(), NodeKind::R);
                    let member =
                        self.attach(r, NodeKind::N, Some(body), r_entry, Some((y, u_spec)));
                    Some(Expansion::Instance(member))
                } else {
                    // Case 1c: plain instance node.
                    let member =
                        self.attach(y, NodeKind::N, Some(body), edge_entry, Some((y, u_spec)));
                    Some(Expansion::Instance(member))
                }
            }
            NameClass::Atomic => unreachable!("atomic vertices are never expanded"),
        }
    }

    /// Attach one more copy under an existing L/F node (loop iteration /
    /// fork branch discovered by the execution-based labeler); `None`,
    /// with the tree unchanged, when the node has no room for another
    /// child ([`Self::has_room`]).
    pub fn add_replica(&mut self, special: NodeId) -> Option<NodeId> {
        if !self.has_room(special) {
            return None;
        }
        let s = self.node(special);
        let kind = s.kind();
        debug_assert!(matches!(kind, NodeKind::L | NodeKind::F));
        let body = s.ann().expect("L/F nodes remember their body");
        let host = s.host();
        let entry = Entry::special(s.index(), kind);
        Some(self.attach(special, NodeKind::N, Some(body), entry, host))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_mode_rejects_nonlinear_grammar() {
        let spec = wf_spec::corpus::theorem1();
        let err = SpecTables::new(&spec, RecursionMode::Linear)
            .expect_err("nonlinear grammar must be rejected");
        assert!(matches!(err, DrlError::NotLinearRecursive(_)));
        // The other modes accept it, and so does the automatic pick.
        assert!(SpecTables::new(&spec, RecursionMode::CompressFirst).is_ok());
        assert!(SpecTables::new(&spec, RecursionMode::NoRNodes).is_ok());
        assert_eq!(SpecTables::auto(&spec).mode(), RecursionMode::CompressFirst);
        // Figure 6's grammar breaks Condition 1; the tables say so once.
        assert!(SpecTables::auto(&spec).conditions().is_err());
        let running = wf_spec::corpus::running_example();
        assert_eq!(SpecTables::auto(&running).mode(), RecursionMode::Linear);
        assert!(SpecTables::auto(&running).conditions().is_ok());
    }

    #[test]
    fn designated_vertices_follow_mode() {
        let spec = wf_spec::corpus::running_example();
        let a = spec.name_id("A").unwrap();
        let h3 = spec.implementations(a)[0];
        let linear = SpecTables::new(&spec, RecursionMode::Linear).unwrap();
        assert!(linear.designated(h3).is_some());
        assert!(linear.designated(GraphId::START).is_none());
        let nor = SpecTables::new(&spec, RecursionMode::NoRNodes).unwrap();
        assert!(nor.designated(h3).is_none());
    }

    /// Every composite vertex of a graph has its own expansion slot, and
    /// the slots of a graph are dense.
    #[test]
    fn composite_ranks_are_dense_per_graph() {
        let spec = wf_spec::corpus::bioaid();
        let tables = SpecTables::auto(&spec);
        for gid in spec.graph_ids() {
            let g = spec.graph(gid);
            let mut ranks: Vec<usize> = g
                .vertices()
                .filter(|&v| spec.is_composite(g.name(v)))
                .map(|v| tables.composite_rank(gid, v))
                .collect();
            ranks.sort_unstable();
            assert_eq!(ranks, (0..tables.composites(gid)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn skl_bits_covers_the_largest_spec_graph() {
        let spec = wf_spec::corpus::bioaid();
        let tables = SpecTables::new(&spec, RecursionMode::Linear).unwrap();
        // Theorem-3 accounting: log nG bits per skeleton pointer.
        assert!(1usize << tables.skl_bits() >= spec.max_graph_size());
        assert!(tables.skl_bits() <= 8, "BioAID sub-workflows are tiny");
    }
}
