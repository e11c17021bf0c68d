//! The cross-run query surface: lineage questions spanning **several
//! runs** of one (or every) specification, across **every storage
//! tier**.
//!
//! Per-run queries resolve two labels and apply the paper's constant-
//! time predicate (Algorithm 4). The cross-run surface lifts that to the
//! fleet: every run is scanned through its one borrowed label reader
//! ([`crate::store::Labels`]) — lock-free over a hot run's write-once
//! chunk tables ([`crate::index::LabelIndex`]), through one arena reader
//! ([`wf_drl::ArenaRef`]) over a sealed run's frame, held or loaded
//! lazily from its pack — one scan, every tier, no writer
//! blocked anywhere. The matcher is handed borrowed labels
//! ([`wf_drl::LabelRef`]) and keeps only vertex ids: a name-scoped scan
//! reads the cells' names and looks a label up — a rank, a cell, a
//! prefix record — only for vertices whose name matches.
//!
//! The flagship question ("which completed runs of spec S have a vertex
//! named N reachable from their source?") composes three write-once
//! facts per run: the source vertex (first applied event), the published
//! labels of every N-named vertex, and the skeleton predicate:
//!
//! ```
//! # use wf_service::{WfEngine, SpecId, ServiceEvent, RunOp};
//! # use wf_run::Execution;
//! # use rand::{rngs::StdRng, SeedableRng};
//! # let engine: WfEngine = WfEngine::builder().spec(wf_spec::corpus::running_example()).build();
//! # let run = engine.open_run(SpecId(0)).unwrap();
//! # let mut rng = StdRng::seed_from_u64(5);
//! # let gen = wf_run::RunGenerator::new(&engine.context(SpecId(0)).unwrap().spec)
//! #     .target_size(40).generate_run(&mut rng);
//! # let exec = Execution::deterministic(&gen.graph, &gen.origin);
//! # for ev in exec.events() { engine.submit(run, ev).unwrap(); }
//! # let name = exec.events()[1].name;
//! # engine.complete_run(run).unwrap();
//! # engine.freeze_run(run).unwrap(); // frozen runs answer identically
//! let hits = engine
//!     .query()
//!     .spec(SpecId(0))
//!     .completed()
//!     .runs_reaching_named_from_source(name);
//! assert_eq!(hits, vec![run]);
//! ```

use crate::engine::EngineShared;
use crate::store::RunView;
use crate::sub::{scan_view, PredKind, Witness};
use crate::telemetry::{self, QueryProfile};
use crate::{RunId, RunStatus, SpecId, Tier};
use wf_graph::{NameId, VertexId};

/// One run's answer to a "reachable from source" question: the source
/// vertex and every in-scope vertex the source reaches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceReach {
    /// The run.
    pub run: RunId,
    /// Its source vertex (first applied event).
    pub source: VertexId,
    /// The matching vertices reachable from `source`, in id order.
    pub witnesses: Vec<VertexId>,
}

/// A scoped cross-run query: filter by specification, run status and/or
/// storage tier, then ask a fleet-level question. Answers are
/// point-in-time — they reflect the labels published when the scan runs,
/// and every individual answer is permanent (labels never change once
/// published).
pub struct CrossRunQuery<'e> {
    shared: &'e EngineShared,
    spec: Option<SpecId>,
    status: Option<RunStatus>,
    tier: Option<Tier>,
    resident_only: bool,
}

impl<'e> CrossRunQuery<'e> {
    pub(crate) fn new(shared: &'e EngineShared) -> Self {
        Self {
            shared,
            spec: None,
            status: None,
            tier: None,
            resident_only: false,
        }
    }

    /// Restrict the scope to runs of one specification.
    pub fn spec(mut self, spec: SpecId) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Restrict the scope to runs with this lifecycle status (sampled
    /// when the scan runs).
    pub fn with_status(mut self, status: RunStatus) -> Self {
        self.status = Some(status);
        self
    }

    /// Restrict the scope to completed runs — **whichever tier** they
    /// live in (frozen and persisted runs are completed by
    /// construction).
    pub fn completed(self) -> Self {
        self.with_status(RunStatus::Completed)
    }

    /// Restrict the scope to one storage tier (e.g. only hot runs for a
    /// latency-bounded scan, or only persisted runs for a historical
    /// audit).
    pub fn tier(mut self, tier: Tier) -> Self {
        self.tier = Some(tier);
        self
    }

    /// Restrict the scope to runs whose labels are **resident in
    /// memory**: hot and frozen runs, plus persisted runs whose frame is
    /// currently loaded. The memory-bounded scan — it never loads a cold
    /// segment (and so never grows the LRU's resident set), at the price
    /// of skipping cold history.
    pub fn resident(mut self) -> Self {
        self.resident_only = true;
        self
    }

    /// Snapshot the in-scope run views, sorted by run id.
    fn views(&self) -> Vec<(RunId, RunView)> {
        let mut views: Vec<_> = self
            .shared
            .store
            .snapshot_views()
            .into_iter()
            .filter(|(_, view)| {
                self.spec.is_none_or(|s| view.spec() == s)
                    && self.status.is_none_or(|st| view.status() == st)
                    && self.tier.is_none_or(|t| view.tier() == t)
                    && (!self.resident_only || view.is_resident())
            })
            .collect();
        views.sort_by_key(|(run, _)| *run);
        views
    }

    /// The runs currently in scope, sorted by id.
    pub fn run_ids(&self) -> Vec<RunId> {
        self.views().into_iter().map(|(run, _)| run).collect()
    }

    /// Drive one whole fleet scan: open the query's root span, snapshot
    /// the in-scope views, visit every one of them through `per_view`,
    /// and record per-tier aggregates (into the trace ring as `tier_scan`
    /// children when they clear the slow-op threshold, and into the
    /// active EXPLAIN profile, if any). The root span parents every
    /// bufmgr `pack_pin` leaf the scan triggers. The scan answers from
    /// exactly the runs it snapshotted: a sealed view *is* the run's one
    /// sealed object, which a compaction rewrite landing mid-scan
    /// relocates in place — the load that follows reads the blob where
    /// it is by then.
    fn scan<T>(&self, mut per_view: impl FnMut(RunId, &RunView) -> Option<T>) -> Vec<T> {
        let obs = &self.shared.obs;
        let root = obs.begin();
        let trace_id = root.span;
        let snap_start = obs.timer();
        let views = self.views();
        let snapshot_ns = snap_start.elapsed_ns();
        // [hot, frozen, persisted]
        let mut runs = [0u64; 3];
        let mut tier_ns = [0u64; 3];
        let mut labels_scanned = 0u64;
        let mut chunks_touched = 0u64;
        let mut out = Vec::with_capacity(views.len());
        for (run, view) in &views {
            let tier = view.tier();
            let ti = tier as usize;
            let t0 = obs.timer();
            let res = per_view(*run, view);
            tier_ns[ti] += t0.elapsed_ns();
            runs[ti] += 1;
            let labels = view.published() as u64;
            labels_scanned += labels;
            if let RunView::Hot(slot) = view {
                // A scan of the hot index walks every chunk it has
                // allocated.
                chunks_touched += slot.indexed.chunks_allocated() as u64;
            }
            if let Some(v) = res {
                out.push(v);
            }
        }
        if obs.enabled {
            for (i, tier) in [Tier::Hot, Tier::Frozen, Tier::Persisted]
                .iter()
                .enumerate()
            {
                if tier_ns[i] > 0 && tier_ns[i] >= obs.slow_op_ns {
                    obs.record_leaf(
                        "tier_scan",
                        None,
                        Some(tier.name()),
                        tier_ns[i],
                        format!("runs={}", runs[i]),
                    );
                }
            }
        }
        let wall_ns = obs.finish(root, &obs.h_cross_run_scan, None, None, String::new);
        telemetry::with_profile(|p| {
            p.trace_id = trace_id;
            p.runs_hot += runs[0];
            p.runs_frozen += runs[1];
            p.runs_persisted += runs[2];
            p.labels_scanned += labels_scanned;
            p.chunks_touched += chunks_touched;
            p.snapshot_ns += snapshot_ns;
            p.scan_hot_ns += tier_ns[0];
            p.scan_frozen_ns += tier_ns[1];
            p.scan_persisted_ns += tier_ns[2];
            p.wall_ns += wall_ns;
        });
        out
    }

    /// Every published vertex named `name`, per in-scope run (runs with
    /// no match are omitted). Evaluated by the same per-run matcher the
    /// standing-query subsystem maintains incrementally
    /// ([`crate::WfEngine::subscribe`]), so pull and push answers agree
    /// by construction.
    pub fn vertices_named(&self, name: NameId) -> Vec<(RunId, Vec<VertexId>)> {
        self.scan(|run, view| {
            let ctx = &self.shared.catalog[view.spec().0];
            let mut vs: Vec<VertexId> = Vec::new();
            scan_view(view, ctx, PredKind::Vertices(name), |w| {
                if let Witness::Vertex(v) = w {
                    vs.push(v);
                }
            });
            (!vs.is_empty()).then_some((run, vs))
        })
    }

    /// For each in-scope run whose source can reach at least one vertex
    /// named `name`: the source and the full witness list. The paper's
    /// constant-time predicate decides each pair, so a run costs
    /// O(published) label visits plus O(matches) predicate calls.
    pub fn reaching_named_from_source(&self, name: NameId) -> Vec<SourceReach> {
        self.scan(|run, view| {
            let source = view.source()?;
            let ctx = &self.shared.catalog[view.spec().0];
            let mut witnesses: Vec<VertexId> = Vec::new();
            scan_view(view, ctx, PredKind::Reaching(name), |w| {
                if let Witness::Reach { target } = w {
                    witnesses.push(target);
                }
            });
            (!witnesses.is_empty()).then_some(SourceReach {
                run,
                source,
                witnesses,
            })
        })
    }

    /// The flagship fleet question, e.g. *"which completed runs of spec
    /// S have a vertex named N reachable from their source?"*: scope
    /// with [`Self::spec`] + [`Self::completed`], then call this.
    /// Returns matching run ids in id order.
    pub fn runs_reaching_named_from_source(&self, name: NameId) -> Vec<RunId> {
        self.reaching_named_from_source(name)
            .into_iter()
            .map(|r| r.run)
            .collect()
    }

    /// Runs where *some* vertex named `from` reaches *some* vertex named
    /// `to` — a name-level lineage join within each in-scope run. Costs
    /// O(|from| · |to|) constant-time predicate calls per run.
    pub fn runs_linking(&self, from: NameId, to: NameId) -> Vec<RunId> {
        self.scan(|run, view| {
            let ctx = &self.shared.catalog[view.spec().0];
            let mut hit = false;
            scan_view(view, ctx, PredKind::Linking(from, to), |_| hit = true);
            hit.then_some(run)
        })
    }

    /// Switch this query into **EXPLAIN mode**: the same scope and
    /// methods, but every answer comes back wrapped in [`Explained`]
    /// with a [`QueryProfile`] of what the scan actually paid for —
    /// runs per tier, bufmgr pins, and wall time per stage. Like the
    /// plain query it scans what is applied — every write that returned
    /// before the call.
    pub fn explain(self) -> ExplainQuery<'e> {
        ExplainQuery(self)
    }
}

/// A query result paired with the [`QueryProfile`] measured while
/// producing it.
#[derive(Debug, Clone)]
pub struct Explained<T> {
    /// The query's answer, identical to the unprofiled method's.
    pub value: T,
    /// What the scan cost.
    pub profile: QueryProfile,
}

/// A [`CrossRunQuery`] in EXPLAIN mode (see
/// [`CrossRunQuery::explain`]). Each method runs the plain scan with a
/// thread-local profile installed that the frame-load hooks feed.
pub struct ExplainQuery<'e>(CrossRunQuery<'e>);

impl<'e> ExplainQuery<'e> {
    fn profiled<T>(&self, f: impl FnOnce(&CrossRunQuery<'e>) -> T) -> Explained<T> {
        telemetry::install_profile();
        let value = f(&self.0);
        let profile = telemetry::take_profile().unwrap_or_default();
        Explained { value, profile }
    }

    /// Profiled [`CrossRunQuery::vertices_named`].
    pub fn vertices_named(&self, name: NameId) -> Explained<Vec<(RunId, Vec<VertexId>)>> {
        self.profiled(|q| q.vertices_named(name))
    }

    /// Profiled [`CrossRunQuery::reaching_named_from_source`].
    pub fn reaching_named_from_source(&self, name: NameId) -> Explained<Vec<SourceReach>> {
        self.profiled(|q| q.reaching_named_from_source(name))
    }

    /// Profiled [`CrossRunQuery::runs_reaching_named_from_source`].
    pub fn runs_reaching_named_from_source(&self, name: NameId) -> Explained<Vec<RunId>> {
        self.profiled(|q| q.runs_reaching_named_from_source(name))
    }

    /// Profiled [`CrossRunQuery::runs_linking`].
    pub fn runs_linking(&self, from: NameId, to: NameId) -> Explained<Vec<RunId>> {
        self.profiled(|q| q.runs_linking(from, to))
    }
}
