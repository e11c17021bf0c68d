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

use crate::entry::NodeKind;
use crate::label::DrlLabel;
use crate::machinery::{DrlError, LabelerCore, RecursionMode};
use crate::predicate::DrlPredicate;
use crate::tree::NodeId;
use std::collections::HashMap;
use std::fmt;
use wf_graph::{NameId, VertexId};
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

/// Expansion bookkeeping per `(host node, composite spec vertex)`.
enum ExpandHandle {
    /// L/F special node accepting more copies.
    Replicated(NodeId),
    /// Plain/chain instance; no further copies may attach here.
    Done,
}

/// The execution-based labeler's state, free of borrows: everything an
/// insertion reads or mutates except the immutable context (the
/// specification and its skeleton labels), which [`Self::insert`] takes
/// per call. A caller that owns its context — `wf-service` keeps an
/// `Arc` next to each run's state — holds this directly;
/// [`ExecutionLabeler`] is the same state next to two plain borrows and
/// the labels it handed out.
///
/// Every `insert` must be given the specification the state was built
/// from and the skeleton built for it; another one yields wrong labels
/// or an index panic.
pub struct ExecutionState {
    core: LabelerCore,
    resolution: ResolutionMode,
    /// Placement per external vertex slot: `(tree node, spec vertex)`.
    placement: Vec<Option<(NodeId, VertexId)>>,
    expansions: HashMap<(NodeId, VertexId), ExpandHandle>,
    /// Name-based helper: implementation source name → body graph.
    source_of: HashMap<NameId, GraphId>,
    count: usize,
}

impl ExecutionState {
    /// State for labeling one run of `spec`, with automatic recursion
    /// mode.
    pub fn new(spec: &Specification, resolution: ResolutionMode) -> Result<Self, ExecError> {
        Self::with_modes(spec, RecursionMode::auto(spec), resolution)
    }

    /// Fully explicit construction.
    pub fn with_modes(
        spec: &Specification,
        recursion: RecursionMode,
        resolution: ResolutionMode,
    ) -> Result<Self, ExecError> {
        if resolution == ResolutionMode::NameBased {
            spec.check_execution_conditions()
                .map_err(ExecError::ConditionsViolated)?;
        }
        let core = LabelerCore::new(spec, recursion)?;
        let mut source_of = HashMap::new();
        for gid in spec.graph_ids().skip(1) {
            let g = spec.graph(gid);
            source_of.insert(g.name(g.source().expect("two-terminal")), gid);
        }
        Ok(Self {
            core,
            resolution,
            placement: Vec::new(),
            expansions: HashMap::new(),
            source_of,
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
        ev: &ExecEvent,
    ) -> Result<DrlLabel, ExecError> {
        if self
            .placement
            .get(ev.vertex.idx())
            .is_some_and(|p| p.is_some())
        {
            return Err(ExecError::AlreadyInserted(ev.vertex));
        }
        if self.core.tree.is_empty() {
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
            let root = self.core.create_root();
            return Ok(self.place(skeleton, ev.vertex, root, s));
        }
        let source_body = match self.resolution {
            ResolutionMode::NameBased => self.source_of.get(&ev.name).copied(),
            ResolutionMode::LogBased => {
                let (gid, sv) = ev.origin;
                (gid != GraphId::START && spec.graph(gid).source() == Ok(sv)).then_some(gid)
            }
        };
        match source_body {
            Some(body) => self.resolve_source(spec, skeleton, ev, body),
            None => self.resolve_internal(spec, skeleton, ev),
        }
    }

    /// A source vertex of implementation `body` arrived: find the
    /// composite vertex being expanded and update the tree (Algorithm 2,
    /// incremental form).
    fn resolve_source<S: SpecLabeling>(
        &mut self,
        spec: &Specification,
        skeleton: &S,
        ev: &ExecEvent,
        body: GraphId,
    ) -> Result<DrlLabel, ExecError> {
        let head = spec.head(body).expect("implementation graphs have heads");
        let body_source = spec.graph(body).source().expect("two-terminal");
        for &c in &ev.preds {
            let Some(mut frame) = self.placement.get(c.idx()).copied().flatten() else {
                return Err(ExecError::UnknownPredecessor(c));
            };
            loop {
                let (y, w) = frame;
                let gid = self.core.tree.node(y).ann.expect("contexts are N nodes");
                let g = spec.graph(gid);
                // (1) Composite successors named like the body's head.
                let candidates: Vec<VertexId> = g
                    .out_neighbors(w)
                    .iter()
                    .copied()
                    .filter(|&sv| g.name(sv) == head)
                    .collect();
                let mut fork_branch: Option<NodeId> = None;
                let mut fresh: Vec<VertexId> = Vec::new();
                for &u in &candidates {
                    match self.expansions.get(&(y, u)) {
                        Some(ExpandHandle::Replicated(s))
                            if self.core.tree.node(*s).kind == NodeKind::F
                                && self.core.tree.node(*s).ann == Some(body) =>
                        {
                            fork_branch = Some(*s);
                        }
                        None => fresh.push(u),
                        _ => {}
                    }
                }
                if let Some(special) = fork_branch {
                    // New parallel branch of an expanding fork.
                    let member = self.core.add_replica(special);
                    return Ok(self.place(skeleton, ev.vertex, member, body_source));
                }
                match fresh.len() {
                    0 => {}
                    1 => {
                        let u = fresh[0];
                        let head_class = spec.class(head);
                        let expansion = self.core.expand(skeleton, y, u, head_class, body, 1);
                        let (member, handle) = match &expansion {
                            crate::machinery::Expansion::Replicated { special, members } => {
                                (members[0], ExpandHandle::Replicated(*special))
                            }
                            crate::machinery::Expansion::ChainMember(m)
                            | crate::machinery::Expansion::Instance(m) => (*m, ExpandHandle::Done),
                        };
                        self.expansions.insert((y, u), handle);
                        return Ok(self.place(skeleton, ev.vertex, member, body_source));
                    }
                    _ => return Err(ExecError::AmbiguousExpansion(ev.vertex)),
                }
                // (2) New loop iteration: the predecessor is the sink of
                // a sibling copy of the same loop body.
                let sink = g.sink().expect("two-terminal");
                if w == sink {
                    let y_node = self.core.tree.node(y);
                    if let Some(p) = y_node.parent {
                        let pn = self.core.tree.node(p);
                        if pn.kind == NodeKind::L && pn.ann == Some(body) {
                            let (hy, hu) = pn.host.expect("L nodes have host frames");
                            let host_gid =
                                self.core.tree.node(hy).ann.expect("contexts are N nodes");
                            if spec.graph(host_gid).name(hu) == head {
                                debug_assert_eq!(
                                    *pn.children.last().unwrap(),
                                    y,
                                    "iterations extend the last copy"
                                );
                                let member = self.core.add_replica(p);
                                return Ok(self.place(skeleton, ev.vertex, member, body_source));
                            }
                        }
                    }
                    // (3) Hop out of the completed instance.
                    if let Some(h) = self.core.tree.node(y).host {
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
        ev: &ExecEvent,
    ) -> Result<DrlLabel, ExecError> {
        for &c in &ev.preds {
            let Some(mut frame) = self.placement.get(c.idx()).copied().flatten() else {
                return Err(ExecError::UnknownPredecessor(c));
            };
            loop {
                let (y, w) = frame;
                let gid = self.core.tree.node(y).ann.expect("contexts are N nodes");
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
                    return Ok(self.place(skeleton, ev.vertex, y, sv));
                }
                let sink = g.sink().expect("two-terminal");
                if w == sink {
                    if let Some(h) = self.core.tree.node(y).host {
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
        skeleton: &S,
        ext: VertexId,
        node: NodeId,
        sv: VertexId,
    ) -> DrlLabel {
        if self.placement.len() <= ext.idx() {
            self.placement.resize(ext.idx() + 1, None);
        }
        debug_assert!(self.placement[ext.idx()].is_none());
        self.placement[ext.idx()] = Some((node, sv));
        self.count += 1;
        self.core.label_for(skeleton, node, sv)
    }

    /// Number of inserted vertices.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True before the first insertion.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Width of skeleton pointers in bits.
    pub fn skl_bits(&self) -> usize {
        self.core.skl_bits()
    }

    /// The explicit parse tree built so far.
    pub fn tree(&self) -> &crate::tree::ExplicitTree {
        &self.core.tree
    }
}

/// The execution-based labeler: an [`ExecutionState`] next to the
/// borrowed context it labels against, and the labels it has assigned.
pub struct ExecutionLabeler<'s, S: SpecLabeling> {
    spec: &'s Specification,
    skeleton: &'s S,
    state: ExecutionState,
    /// Label per external vertex slot, as [`ExecutionState::insert`]
    /// returned it.
    labels: Vec<Option<DrlLabel>>,
}

impl<'s, S: SpecLabeling> ExecutionLabeler<'s, S> {
    /// Name-based labeler with automatic recursion mode.
    pub fn new(spec: &'s Specification, skeleton: &'s S) -> Result<Self, ExecError> {
        Self::with_modes(
            spec,
            skeleton,
            RecursionMode::auto(spec),
            ResolutionMode::NameBased,
        )
    }

    /// Log-based labeler with automatic recursion mode (no Conditions
    /// 1–2 required).
    pub fn new_log_based(spec: &'s Specification, skeleton: &'s S) -> Result<Self, ExecError> {
        Self::with_modes(
            spec,
            skeleton,
            RecursionMode::auto(spec),
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
        let state = ExecutionState::with_modes(spec, recursion, resolution)?;
        Ok(Self {
            spec,
            skeleton,
            state,
            labels: Vec::new(),
        })
    }

    /// Process one insertion `g_i = g_{i-1} + (v_i, C_i)`, assigning the
    /// vertex's permanent label (O(1) amortized — Theorem 3.2a).
    pub fn insert(&mut self, ev: &ExecEvent) -> Result<(), ExecError> {
        let label = self.state.insert(self.spec, self.skeleton, ev)?;
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
        self.state.skl_bits()
    }

    /// The explicit parse tree built so far.
    pub fn tree(&self) -> &crate::tree::ExplicitTree {
        self.state.tree()
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
}
