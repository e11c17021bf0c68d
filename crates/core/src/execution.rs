//! The execution-based dynamic labeling scheme (Section 5.3).
//!
//! Vertices arrive one by one, in a topological order of the run
//! (Definition 8), and must be labeled immediately. The labeler infers
//! the underlying derivation on the fly:
//!
//! * an arriving vertex carrying the **source name** of an
//!   implementation graph `h` opens a new instance of `h` — a new
//!   derivation step whose replaced composite vertex is resolved from
//!   the predecessors' placements (walking out of completed nested
//!   instances along *host frames*, and across R chains);
//! * any other vertex is an internal atomic vertex of an existing
//!   instance, found among the successors of a predecessor's frame;
//! * a source whose predecessor is the **sink of a sibling copy** of the
//!   same loop body starts a new loop iteration; a source resolving to
//!   an already-expanding **fork** vertex starts a new parallel branch.
//!
//! Name-based resolution requires §5.3's Conditions 1–2 (validated at
//! construction); log-based resolution instead uses the per-vertex
//! `(spec graph, spec vertex)` entries that scientific workflow systems
//! record, removing the restriction exactly as the paper describes.
//!
//! The labels produced are **identical** to the derivation-based
//! labeler's (verified exhaustively in the integration tests).
//!
//! **Who keeps a label.** [`ExecutionState::insert`] *returns* the label
//! it assigns and retains none: a label never changes once assigned
//! (Definition 8), and no later insertion reads one back — resolution
//! runs on placements and the parse tree alone. So the caller holds the
//! one copy: `wf-service` moves it into its published-label index, and
//! the borrowed [`ExecutionLabeler`] wrapper keeps it in the table it
//! answers `label` / `reaches` from. What the state does keep is each
//! context node's *prefix array*, which the node's labels share by
//! reference count (see [`crate::label`]): issuing a label allocates
//! nothing.
//!
//! **What a run keeps, and what its spec does.** The state is the parse
//! tree ([`crate::tree`]: six words a node), one 8-byte placement per
//! vertex slot, and a dense table of expansion slots — per tree node that
//! has expanded a composite vertex, one 4-byte slot per composite vertex
//! of its graph. Everything that is a function of the specification —
//! which body a source name opens, each composite vertex's slot, the
//! designated vertices, the Conditions 1–2 check — is in the
//! [`SpecTables`] every call borrows, so opening a run allocates nothing
//! and the state holds no per-spec copy ([`ExecutionState::heap`] counts
//! what it holds).

use crate::entry::{EntryWord, NodeKind};
use crate::label::DrlLabel;
use crate::machinery::{DrlError, RecursionMode, SpecTables};
use crate::predicate::DrlPredicate;
use crate::tree::{ExplicitTree, NodeId, NONE};
use std::fmt;
use wf_graph::VertexId;
use wf_run::ExecEvent;
use wf_skeleton::SpecLabeling;
use wf_spec::{GraphId, SpecError, Specification};

/// How arriving vertices are mapped back to specification vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolutionMode {
    /// Match by module name; requires Conditions 1–2 (§5.3).
    NameBased,
    /// Match by execution-log entries (`ExecEvent::origin`).
    LogBased,
}

/// Errors raised by the execution-based labeler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Name-based resolution needs Conditions 1–2.
    ConditionsViolated(SpecError),
    /// The first insertion must be the start graph's source.
    FirstEventMustBeStartSource,
    /// An event predecessor was never inserted.
    UnknownPredecessor(VertexId),
    /// The event could not be matched to any specification vertex.
    InferenceFailed(VertexId),
    /// Several unexpanded composite vertices match (possible only when
    /// Condition 1 is violated in log-based mode).
    AmbiguousExpansion(VertexId),
    /// The vertex id was inserted twice.
    AlreadyInserted(VertexId),
    /// The vertex would open a parse-tree node's 2^25-th child, whose
    /// index no entry word holds; nothing was changed.
    IndexTooWide(VertexId),
    /// Labeler construction failed.
    Drl(DrlError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::ConditionsViolated(e) => {
                write!(f, "name-based execution labeling unavailable: {e}")
            }
            ExecError::FirstEventMustBeStartSource => {
                write!(f, "the first insertion must be the start graph's source")
            }
            ExecError::UnknownPredecessor(v) => write!(f, "unknown predecessor {v:?}"),
            ExecError::InferenceFailed(v) => {
                write!(f, "could not infer the derivation step for vertex {v:?}")
            }
            ExecError::AmbiguousExpansion(v) => {
                write!(f, "ambiguous expansion for vertex {v:?}")
            }
            ExecError::AlreadyInserted(v) => write!(f, "vertex {v:?} inserted twice"),
            ExecError::IndexTooWide(v) => write!(
                f,
                "vertex {v:?} would give a parse-tree node more children than \
                 an entry word's index holds ({})",
                EntryWord::MAX_INDEX
            ),
            ExecError::Drl(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<DrlError> for ExecError {
    fn from(e: DrlError) -> Self {
        ExecError::Drl(e)
    }
}

/// An expansion slot of a `(host node, composite spec vertex)` pair not
/// expanded yet.
const FRESH: u32 = NONE;
/// An expansion slot of a plain or chain instance: no further copies may
/// attach here. Any other value is the L/F node accepting more copies.
const DONE: u32 = NONE - 1;

/// Where an inserted vertex sits: its tree node and spec vertex; `node`
/// is [`NONE`] for a slot not inserted.
#[derive(Debug, Clone, Copy)]
struct Placement {
    node: u32,
    vertex: u32,
}

impl Placement {
    const EMPTY: Self = Self {
        node: NONE,
        vertex: 0,
    };

    fn get(self) -> Option<(NodeId, VertexId)> {
        (self.node != NONE).then_some((NodeId(self.node), VertexId(self.vertex)))
    }
}

/// The heap an [`ExecutionState`] keeps, by part, in bytes
/// ([`ExecutionState::heap`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapLedger {
    /// The parse tree's nodes.
    pub nodes: usize,
    /// The room the tree's node table has allocated and not reached.
    pub tree_slack: usize,
    /// The placement table, at its capacity.
    pub placement: usize,
    /// The expansion slots, at their capacity.
    pub expansions: usize,
    /// The tree's distinct prefix arrays, each once — the arrays its
    /// labels share, which outlive the state in whoever holds the labels.
    pub prefix_arrays: usize,
}

/// The execution-based labeler's state, free of borrows: everything an
/// insertion reads or mutates except the immutable context — the
/// specification, its skeleton labels and its [`SpecTables`] — which
/// [`Self::insert`] takes per call. A caller that owns its context —
/// `wf-service` keeps an `Arc` next to each run's state — holds this
/// directly; [`ExecutionLabeler`] is the same state next to plain
/// borrows, its own tables and the labels it handed out.
///
/// Every `insert` must be given the specification the tables were built
/// from, those tables, and the skeleton built for it; another one yields
/// wrong labels or an index panic.
pub struct ExecutionState {
    resolution: ResolutionMode,
    tree: ExplicitTree,
    /// Placement per external vertex slot.
    placement: Vec<Placement>,
    /// Expansion slots: a tree node that expands a composite vertex
    /// takes [`SpecTables::composites`] of its graph in one run, starting
    /// at the node's `expansions`, indexed by
    /// [`SpecTables::composite_rank`].
    expansions: Vec<u32>,
    count: usize,
}

impl ExecutionState {
    /// State for labeling one run against `tables`. Allocates nothing:
    /// the tables are the spec's, borrowed on every insertion. Refuses a
    /// spec whose entries no [`EntryWord`] holds
    /// ([`SpecTables::fits_entry_words`]) and, under name-based
    /// resolution, one that breaks Conditions 1–2.
    pub fn new(tables: &SpecTables, resolution: ResolutionMode) -> Result<Self, ExecError> {
        tables
            .fits_entry_words()
            .map_err(|e| ExecError::Drl(e.clone()))?;
        if resolution == ResolutionMode::NameBased {
            tables
                .conditions()
                .map_err(|e| ExecError::ConditionsViolated(e.clone()))?;
        }
        Ok(Self {
            resolution,
            tree: ExplicitTree::new(),
            placement: Vec::new(),
            expansions: Vec::new(),
            count: 0,
        })
    }

    /// Process one insertion `g_i = g_{i-1} + (v_i, C_i)` and return the
    /// vertex's permanent label (O(1) amortized — Theorem 3.2a). The
    /// state keeps no copy: the label is the caller's to store.
    pub fn insert<S: SpecLabeling>(
        &mut self,
        spec: &Specification,
        skeleton: &S,
        tables: &SpecTables,
        ev: &ExecEvent,
    ) -> Result<DrlLabel, ExecError> {
        if self
            .placement
            .get(ev.vertex.idx())
            .is_some_and(|p| p.get().is_some())
        {
            return Err(ExecError::AlreadyInserted(ev.vertex));
        }
        if self.tree.is_empty() {
            // First event: must be g0's source.
            let g0 = spec.start_graph();
            let s = g0.source().expect("two-terminal");
            let ok = ev.preds.is_empty()
                && match self.resolution {
                    ResolutionMode::NameBased => g0.name(s) == ev.name,
                    ResolutionMode::LogBased => ev.origin == (GraphId::START, s),
                };
            if !ok {
                return Err(ExecError::FirstEventMustBeStartSource);
            }
            let root = self.tree.create_root(GraphId::START);
            return Ok(self.place(tables, skeleton, ev.vertex, root, s));
        }
        let source_body = match self.resolution {
            ResolutionMode::NameBased => tables.source_of(ev.name),
            ResolutionMode::LogBased => {
                let (gid, sv) = ev.origin;
                (gid != GraphId::START && spec.graph(gid).source() == Ok(sv)).then_some(gid)
            }
        };
        match source_body {
            Some(body) => self.resolve_source(spec, skeleton, tables, ev, body),
            None => self.resolve_internal(spec, skeleton, tables, ev),
        }
    }

    /// The expansion slot of composite vertex `u` of node `y`'s graph
    /// `gid`: [`FRESH`], [`DONE`], or the L/F node taking more copies.
    #[inline]
    fn expansion(&self, tables: &SpecTables, y: NodeId, gid: GraphId, u: VertexId) -> u32 {
        match self.tree.node(y).expansions {
            NONE => FRESH,
            base => self.expansions[base as usize + tables.composite_rank(gid, u)],
        }
    }

    /// Record how `u` of node `y`'s graph `gid` expanded, giving `y` its
    /// slots on its first expansion.
    fn record_expansion(
        &mut self,
        tables: &SpecTables,
        y: NodeId,
        gid: GraphId,
        u: VertexId,
        handle: u32,
    ) {
        let base = match self.tree.node(y).expansions {
            NONE => {
                let base = self.expansions.len();
                assert!(base < NONE as usize, "under 2^32 - 1 expansion slots");
                self.expansions.resize(base + tables.composites(gid), FRESH);
                self.tree.node_mut(y).expansions = base as u32;
                base
            }
            base => base as usize,
        };
        self.expansions[base + tables.composite_rank(gid, u)] = handle;
    }

    /// A source vertex of implementation `body` arrived: find the
    /// composite vertex being expanded and update the tree (Algorithm 2,
    /// incremental form).
    fn resolve_source<S: SpecLabeling>(
        &mut self,
        spec: &Specification,
        skeleton: &S,
        tables: &SpecTables,
        ev: &ExecEvent,
        body: GraphId,
    ) -> Result<DrlLabel, ExecError> {
        let head = spec.head(body).expect("implementation graphs have heads");
        let body_source = spec.graph(body).source().expect("two-terminal");
        for &c in &ev.preds {
            let Some(mut frame) = self.placement.get(c.idx()).and_then(|p| p.get()) else {
                return Err(ExecError::UnknownPredecessor(c));
            };
            loop {
                let (y, w) = frame;
                let gid = self.tree.node(y).ann().expect("contexts are N nodes");
                let g = spec.graph(gid);
                // (1) Composite successors named like the body's head:
                // a fork of this body still taking branches, or the one
                // not expanded yet.
                let (mut fork_branch, mut fresh, mut fresh_count) = (None, None, 0);
                for &u in g.out_neighbors(w) {
                    if g.name(u) != head {
                        continue;
                    }
                    match self.expansion(tables, y, gid, u) {
                        FRESH => {
                            fresh.get_or_insert(u);
                            fresh_count += 1;
                        }
                        DONE => {}
                        special => {
                            let s = self.tree.node(NodeId(special));
                            if s.kind() == NodeKind::F && s.ann() == Some(body) {
                                fork_branch = Some(NodeId(special));
                            }
                        }
                    }
                }
                if let Some(special) = fork_branch {
                    // New parallel branch of an expanding fork.
                    let member = self.tree.add_replica(special);
                    let member = member.ok_or(ExecError::IndexTooWide(ev.vertex))?;
                    return Ok(self.place(tables, skeleton, ev.vertex, member, body_source));
                }
                match (fresh, fresh_count) {
                    (Some(u), 1) => {
                        let head_class = spec.class(head);
                        let expansion = self
                            .tree
                            .expand(tables, skeleton, y, u, head_class, body, 1)
                            .ok_or(ExecError::IndexTooWide(ev.vertex))?;
                        let (member, handle) = match &expansion {
                            crate::machinery::Expansion::Replicated { special, members } => {
                                (members[0], special.0)
                            }
                            crate::machinery::Expansion::ChainMember(m)
                            | crate::machinery::Expansion::Instance(m) => (*m, DONE),
                        };
                        self.record_expansion(tables, y, gid, u, handle);
                        return Ok(self.place(tables, skeleton, ev.vertex, member, body_source));
                    }
                    (None, _) => {}
                    _ => return Err(ExecError::AmbiguousExpansion(ev.vertex)),
                }
                // (2) New loop iteration: the predecessor is the sink of
                // a sibling copy of the same loop body.
                let sink = g.sink().expect("two-terminal");
                if w == sink {
                    let y_node = self.tree.node(y);
                    if let Some(p) = y_node.parent() {
                        let pn = self.tree.node(p);
                        if pn.kind() == NodeKind::L && pn.ann() == Some(body) {
                            let (hy, hu) = pn.host().expect("L nodes have host frames");
                            let host_gid = self.tree.node(hy).ann().expect("contexts are N nodes");
                            if spec.graph(host_gid).name(hu) == head {
                                let copy = y_node.index();
                                let member = self.tree.add_replica(p);
                                let member = member.ok_or(ExecError::IndexTooWide(ev.vertex))?;
                                debug_assert_eq!(
                                    self.tree.node(member).index(),
                                    copy + 1,
                                    "iterations extend the last copy"
                                );
                                return Ok(self.place(
                                    tables,
                                    skeleton,
                                    ev.vertex,
                                    member,
                                    body_source,
                                ));
                            }
                        }
                    }
                    // (3) Hop out of the completed instance.
                    if let Some(h) = self.tree.node(y).host() {
                        frame = h;
                        continue;
                    }
                }
                break; // try the next predecessor
            }
        }
        Err(ExecError::InferenceFailed(ev.vertex))
    }

    /// An internal atomic vertex arrived: find its instance and spec
    /// vertex among the successors of a predecessor's frame.
    fn resolve_internal<S: SpecLabeling>(
        &mut self,
        spec: &Specification,
        skeleton: &S,
        tables: &SpecTables,
        ev: &ExecEvent,
    ) -> Result<DrlLabel, ExecError> {
        for &c in &ev.preds {
            let Some(mut frame) = self.placement.get(c.idx()).and_then(|p| p.get()) else {
                return Err(ExecError::UnknownPredecessor(c));
            };
            loop {
                let (y, w) = frame;
                let gid = self.tree.node(y).ann().expect("contexts are N nodes");
                let g = spec.graph(gid);
                let found = match self.resolution {
                    ResolutionMode::NameBased => g
                        .out_neighbors(w)
                        .iter()
                        .copied()
                        .find(|&sv| g.name(sv) == ev.name),
                    ResolutionMode::LogBased => {
                        let (og, osv) = ev.origin;
                        (og == gid && g.out_neighbors(w).contains(&osv)).then_some(osv)
                    }
                };
                if let Some(sv) = found {
                    return Ok(self.place(tables, skeleton, ev.vertex, y, sv));
                }
                let sink = g.sink().expect("two-terminal");
                if w == sink {
                    if let Some(h) = self.tree.node(y).host() {
                        frame = h;
                        continue;
                    }
                }
                break;
            }
        }
        Err(ExecError::InferenceFailed(ev.vertex))
    }

    /// Record where `ext` sits in the parse tree and build its label.
    fn place<S: SpecLabeling>(
        &mut self,
        tables: &SpecTables,
        skeleton: &S,
        ext: VertexId,
        node: NodeId,
        sv: VertexId,
    ) -> DrlLabel {
        if self.placement.len() <= ext.idx() {
            self.placement.resize(ext.idx() + 1, Placement::EMPTY);
        }
        debug_assert!(self.placement[ext.idx()].get().is_none());
        self.placement[ext.idx()] = Placement {
            node: node.0,
            vertex: sv.0,
        };
        self.count += 1;
        self.tree.label_for(tables, skeleton, node, sv)
    }

    /// Number of inserted vertices.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True before the first insertion.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The explicit parse tree built so far.
    pub fn tree(&self) -> &ExplicitTree {
        &self.tree
    }

    /// The heap the state keeps, by part. The state's own fixed size is
    /// not in it, nor the tables or the labels it returned — except for
    /// the prefix arrays those labels share with the tree.
    pub fn heap(&self) -> HeapLedger {
        let (nodes, tree_slack, prefix_arrays) = self.tree.heap_bytes();
        HeapLedger {
            nodes,
            tree_slack,
            placement: self.placement.capacity() * std::mem::size_of::<Placement>(),
            expansions: self.expansions.capacity() * std::mem::size_of::<u32>(),
            prefix_arrays,
        }
    }
}

// A placement is two `u32`s: no `Option` tag.
const _: () = assert!(std::mem::size_of::<Placement>() == 8);

/// The execution-based labeler: an [`ExecutionState`] next to the
/// borrowed context it labels against, the tables it built for it, and
/// the labels it has assigned.
pub struct ExecutionLabeler<'s, S: SpecLabeling> {
    spec: &'s Specification,
    skeleton: &'s S,
    tables: SpecTables,
    state: ExecutionState,
    /// Label per external vertex slot, as [`ExecutionState::insert`]
    /// returned it.
    labels: Vec<Option<DrlLabel>>,
}

impl<'s, S: SpecLabeling> ExecutionLabeler<'s, S> {
    /// Name-based labeler with automatic recursion mode.
    pub fn new(spec: &'s Specification, skeleton: &'s S) -> Result<Self, ExecError> {
        Self::with_tables(
            spec,
            skeleton,
            SpecTables::auto(spec),
            ResolutionMode::NameBased,
        )
    }

    /// Log-based labeler with automatic recursion mode (no Conditions
    /// 1–2 required).
    pub fn new_log_based(spec: &'s Specification, skeleton: &'s S) -> Result<Self, ExecError> {
        Self::with_tables(
            spec,
            skeleton,
            SpecTables::auto(spec),
            ResolutionMode::LogBased,
        )
    }

    /// Fully explicit construction.
    pub fn with_modes(
        spec: &'s Specification,
        skeleton: &'s S,
        recursion: RecursionMode,
        resolution: ResolutionMode,
    ) -> Result<Self, ExecError> {
        Self::with_tables(
            spec,
            skeleton,
            SpecTables::new(spec, recursion)?,
            resolution,
        )
    }

    fn with_tables(
        spec: &'s Specification,
        skeleton: &'s S,
        tables: SpecTables,
        resolution: ResolutionMode,
    ) -> Result<Self, ExecError> {
        let state = ExecutionState::new(&tables, resolution)?;
        Ok(Self {
            spec,
            skeleton,
            tables,
            state,
            labels: Vec::new(),
        })
    }

    /// Process one insertion `g_i = g_{i-1} + (v_i, C_i)`, assigning the
    /// vertex's permanent label (O(1) amortized — Theorem 3.2a).
    pub fn insert(&mut self, ev: &ExecEvent) -> Result<(), ExecError> {
        let label = self
            .state
            .insert(self.spec, self.skeleton, &self.tables, ev)?;
        let slot = ev.vertex.idx();
        if self.labels.len() <= slot {
            self.labels.resize(slot + 1, None);
        }
        self.labels[slot] = Some(label);
        Ok(())
    }

    /// The label assigned to vertex `v` (by the caller's external id).
    pub fn label(&self, v: VertexId) -> Option<&DrlLabel> {
        self.labels.get(v.idx()).and_then(|l| l.as_ref())
    }

    /// Label length in bits.
    pub fn label_bits(&self, v: VertexId) -> Option<usize> {
        self.label(v).map(|l| l.bit_len(self.skl_bits()))
    }

    /// The predicate `πg`.
    pub fn predicate(&self) -> DrlPredicate<'_, S> {
        DrlPredicate::new(self.skeleton)
    }

    /// Convenience: decide `u ;g v` from two inserted vertices.
    pub fn reaches(&self, u: VertexId, v: VertexId) -> Option<bool> {
        Some(self.predicate().reaches(self.label(u)?, self.label(v)?))
    }

    /// Number of inserted vertices.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// True before the first insertion.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Width of skeleton pointers in bits.
    pub fn skl_bits(&self) -> usize {
        self.tables.skl_bits()
    }

    /// The explicit parse tree built so far.
    pub fn tree(&self) -> &ExplicitTree {
        self.state.tree()
    }

    /// The heap the labeler's state keeps, by part
    /// ([`ExecutionState::heap`]; the label table is not in it).
    pub fn heap(&self) -> HeapLedger {
        self.state.heap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derivation::DerivationLabeler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_graph::reach::ReachOracle;
    use wf_run::{Execution, RunGenerator};
    use wf_skeleton::{SpecLabeling, TclSpecLabels};

    #[test]
    fn name_based_requires_conditions() {
        let spec = wf_spec::corpus::theorem1();
        let skeleton = TclSpecLabels::build(&spec);
        assert!(matches!(
            ExecutionLabeler::new(&spec, &skeleton).err(),
            Some(ExecError::ConditionsViolated(_))
        ));
        // Log-based works for the same grammar.
        assert!(ExecutionLabeler::new_log_based(&spec, &skeleton).is_ok());
    }

    #[test]
    fn deterministic_execution_reproduces_derivation_labels() {
        let spec = wf_spec::corpus::running_example();
        let skeleton = TclSpecLabels::build(&spec);
        let mut rng = StdRng::seed_from_u64(42);
        let run = RunGenerator::new(&spec)
            .target_size(150)
            .generate_run(&mut rng);
        // Derivation-based labels.
        let mut dl = DerivationLabeler::new(&spec, &skeleton);
        for step in run.derivation.steps() {
            dl.apply(step).unwrap();
        }
        // Execution-based labels over the id-ordered topological order
        // (matches the derivation's copy creation order).
        let exec = Execution::deterministic(&run.graph, &run.origin);
        let mut el = ExecutionLabeler::new(&spec, &skeleton).unwrap();
        for ev in exec.events() {
            el.insert(ev).unwrap();
        }
        for v in run.graph.vertices() {
            assert_eq!(
                dl.label(v),
                el.label(v),
                "§5.3: both schemes create the same labels ({v:?})"
            );
        }
    }

    #[test]
    fn random_execution_orders_stay_correct() {
        let spec = wf_spec::corpus::running_example();
        let skeleton = TclSpecLabels::build(&spec);
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..4 {
            let run = RunGenerator::new(&spec)
                .target_size(80)
                .generate_run(&mut rng);
            let exec = Execution::random(&run.graph, &run.origin, &mut rng);
            let mut el = ExecutionLabeler::new(&spec, &skeleton).unwrap();
            let oracle = ReachOracle::new(&run.graph);
            let mut inserted: Vec<VertexId> = Vec::new();
            for ev in exec.events() {
                el.insert(ev).unwrap();
                inserted.push(ev.vertex);
                // Intermediate correctness: query all pairs inserted so
                // far (Definition 8) — prefixes of a topological order
                // induce subgraphs whose reachability agrees with the
                // final graph on inserted pairs.
                if inserted.len().is_multiple_of(17) {
                    for &a in &inserted {
                        for &b in &inserted {
                            assert_eq!(
                                el.reaches(a, b).unwrap(),
                                oracle.reaches(a, b),
                                "{a:?}->{b:?}"
                            );
                        }
                    }
                }
            }
            for &a in &inserted {
                for &b in &inserted {
                    assert_eq!(el.reaches(a, b).unwrap(), oracle.reaches(a, b));
                }
            }
        }
    }

    #[test]
    fn log_based_handles_duplicate_names() {
        // Figure 6's grammar (two vertices named A in one body) breaks
        // Condition 1; the log-based labeler still works.
        let spec = wf_spec::corpus::theorem1();
        let skeleton = TclSpecLabels::build(&spec);
        let mut rng = StdRng::seed_from_u64(8);
        let run = RunGenerator::new(&spec)
            .target_size(120)
            .generate_run(&mut rng);
        let exec = Execution::random(&run.graph, &run.origin, &mut rng);
        let mut el = ExecutionLabeler::new_log_based(&spec, &skeleton).unwrap();
        for ev in exec.events() {
            el.insert(ev).unwrap();
        }
        let oracle = ReachOracle::new(&run.graph);
        for a in run.graph.vertices() {
            for b in run.graph.vertices() {
                assert_eq!(el.reaches(a, b).unwrap(), oracle.reaches(a, b));
            }
        }
    }

    #[test]
    fn insert_errors_are_reported() {
        let spec = wf_spec::corpus::running_example();
        let skeleton = TclSpecLabels::build(&spec);
        let mut rng = StdRng::seed_from_u64(6);
        let run = RunGenerator::new(&spec)
            .target_size(40)
            .generate_run(&mut rng);
        let exec = Execution::deterministic(&run.graph, &run.origin);
        let mut el = ExecutionLabeler::new(&spec, &skeleton).unwrap();
        // Starting anywhere but the source fails.
        let second = exec.events()[1].clone();
        assert_eq!(
            el.insert(&second).unwrap_err(),
            ExecError::FirstEventMustBeStartSource
        );
        let first = exec.events()[0].clone();
        el.insert(&first).unwrap();
        assert_eq!(
            el.insert(&first).unwrap_err(),
            ExecError::AlreadyInserted(first.vertex)
        );
        // An event whose predecessors were never inserted fails.
        let much_later = exec
            .events()
            .iter()
            .find(|e| !e.preds.is_empty() && e.preds.iter().all(|p| *p != first.vertex))
            .unwrap()
            .clone();
        assert!(matches!(
            el.insert(&much_later).unwrap_err(),
            ExecError::UnknownPredecessor(_) | ExecError::InferenceFailed(_)
        ));
    }

    /// A spec with more vertex slots in one graph than an entry word's
    /// skeleton pointer names is refused at construction, with the
    /// typed error, by both resolutions; one slot fewer labels.
    #[test]
    fn a_spec_too_wide_for_an_entry_word_is_refused() {
        // A source, `slots - 2` removed slots, a sink.
        let spec = |slots: usize| {
            let mut b = wf_spec::SpecBuilder::new();
            let (s, t) = (b.name("s"), b.name("t"));
            let mut g = wf_graph::Graph::new();
            let source = g.add_vertex(s);
            while g.slot_count() < slots - 1 {
                let dead = g.add_vertex(s);
                g.remove_vertex(dead).unwrap();
            }
            let sink = g.add_vertex(t);
            g.add_edge(source, sink).unwrap();
            b.start_graph(g);
            b.build().unwrap()
        };
        let widest = spec(EntryWord::MAX_SLOTS);
        let skeleton = TclSpecLabels::build(&widest);
        assert!(ExecutionLabeler::new(&widest, &skeleton).is_ok());
        let wide = spec(EntryWord::MAX_SLOTS + 1);
        assert_eq!(wide.graph(GraphId::START).slot_count(), 1 << 17);
        let skeleton = TclSpecLabels::build(&wide);
        let refusal = ExecError::Drl(DrlError::SpecTooWide {
            graphs: 1,
            slots: EntryWord::MAX_SLOTS + 1,
        });
        assert_eq!(
            ExecutionLabeler::new(&wide, &skeleton).err(),
            Some(refusal.clone())
        );
        assert_eq!(
            ExecutionLabeler::new_log_based(&wide, &skeleton).err(),
            Some(refusal)
        );
    }

    /// An event that would give a parse-tree node its 2^25-th child —
    /// whose index no entry word holds — is refused with
    /// `IndexTooWide` before the state changes, wherever the child would
    /// attach (a loop iteration, a fork branch, a fresh expansion, a
    /// chain member): with every node full, exactly the events that
    /// grow the tree are refused, and after the refusal the same event,
    /// with room made, labels as it would have.
    #[test]
    fn a_child_past_an_entry_words_index_is_refused_before_anything_changes() {
        let spec = wf_spec::corpus::running_example();
        let skeleton = TclSpecLabels::build(&spec);
        let tables = SpecTables::auto(&spec);
        let run = RunGenerator::new(&spec)
            .target_size(60)
            .generate_run(&mut StdRng::seed_from_u64(9));
        let exec = Execution::random(&run.graph, &run.origin, &mut StdRng::seed_from_u64(10));
        let events = exec.events();
        let mut reference = ExecutionState::new(&tables, ResolutionMode::NameBased).unwrap();
        // The kinds of node the refused children would have attached
        // under: N (a fresh expansion), L, F and R.
        let mut under = std::collections::BTreeSet::new();
        for (k, ev) in events.iter().enumerate() {
            let nodes = reference.tree().len();
            let want = reference.insert(&spec, &skeleton, &tables, ev).unwrap();
            if k == 0 {
                continue;
            }
            let grows = reference.tree().len() > nodes;
            let mut state = ExecutionState::new(&tables, ResolutionMode::NameBased).unwrap();
            for ev in &events[..k] {
                state.insert(&spec, &skeleton, &tables, ev).unwrap();
            }
            let counts: Vec<u32> = (0..nodes as u32)
                .map(|x| state.tree.node(NodeId(x)).children())
                .collect();
            for x in 0..nodes as u32 {
                state.tree.set_children(NodeId(x), EntryWord::MAX_INDEX);
            }
            let got = state.insert(&spec, &skeleton, &tables, ev);
            if !grows {
                assert_eq!(got, Ok(want), "event {k}");
                continue;
            }
            let parent = reference
                .tree()
                .node(NodeId(nodes as u32))
                .parent()
                .unwrap();
            under.insert(format!("{:?}", reference.tree().node(parent).kind()));
            assert_eq!(got, Err(ExecError::IndexTooWide(ev.vertex)), "event {k}");
            assert_eq!((state.len(), state.tree().len()), (k, nodes));
            for (x, &count) in counts.iter().enumerate() {
                state.tree.set_children(NodeId(x as u32), count);
            }
            assert_eq!(state.insert(&spec, &skeleton, &tables, ev), Ok(want));
        }
        assert_eq!(under.into_iter().collect::<Vec<_>>(), ["F", "L", "N", "R"]);
    }

    /// What a live run's labeler keeps, part by part, per label on a
    /// 6 000-event run of each corpus workflow: the ledger behind the
    /// engine's live-heap bound, printed for the record, each part held
    /// to its own bound. A node is six words; a placement two `u32`s per
    /// vertex *slot* (replaced composite vertices keep theirs); an
    /// expansion slot one `u32` per composite vertex of an instance that
    /// expanded one; the prefix arrays are shared with the labels, and
    /// outlive the state in whoever holds those. Beside the arrays, the
    /// running example's state keeps 57.7 B per label; with 96-byte
    /// nodes, child lists, 12-byte placements and a hashed expansion map
    /// it kept 115.6.
    #[test]
    fn the_heap_ledger_bounds_each_part_per_label() {
        // Bytes per label: nodes, tree slack, placement, expansions,
        // prefix arrays.
        let corpus = [
            (
                "running_example",
                wf_spec::corpus::running_example(),
                [26.0, 26.0, 24.0, 4.0, 15.0],
            ),
            (
                "bioaid",
                wf_spec::corpus::bioaid(),
                [6.0, 6.0, 12.0, 1.0, 2.0],
            ),
        ];
        for (name, spec, bounds) in corpus {
            let skeleton = TclSpecLabels::build(&spec);
            let run = RunGenerator::new(&spec)
                .target_size(6000)
                .generate_run(&mut StdRng::seed_from_u64(47));
            let exec = Execution::deterministic(&run.graph, &run.origin);
            let mut el = ExecutionLabeler::new(&spec, &skeleton).unwrap();
            for ev in exec.events() {
                el.insert(ev).unwrap();
            }
            let ledger = el.heap();
            assert_eq!(
                ledger.nodes,
                el.tree().len() * std::mem::size_of::<crate::tree::Node>()
            );
            let labels = exec.len() as f64;
            let parts = [
                ("nodes", ledger.nodes),
                ("tree_slack", ledger.tree_slack),
                ("placement", ledger.placement),
                ("expansions", ledger.expansions),
                ("prefix_arrays", ledger.prefix_arrays),
            ];
            let per_label: Vec<String> = parts
                .iter()
                .map(|(part, bytes)| format!("\"{part}\":{:.1}", *bytes as f64 / labels))
                .collect();
            println!(
                "{{\"metric\":\"labeler_heap_per_label\",\"spec\":\"{name}\",\"labels\":{},\"nodes_per_label\":{:.3},{}}}",
                exec.len(),
                el.tree().len() as f64 / labels,
                per_label.join(","),
            );
            for ((part, bytes), bound) in parts.iter().zip(bounds) {
                let per_label = *bytes as f64 / labels;
                assert!(
                    per_label <= bound,
                    "{name}: {part} keeps {per_label:.1} B per label, bound {bound}"
                );
            }
        }
    }
}
