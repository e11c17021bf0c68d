//! # wf-service
//!
//! A concurrent, sharded **provenance labeling engine**: many workflow
//! runs labeled *on-the-fly* at once, with reachability queries answered
//! while ingestion is in flight — within a run and **across runs**.
//!
//! The paper (Bao, Davidson, Milo, SIGMOD 2011) labels one run as it
//! executes; a workflow engine in production executes *fleets* of runs.
//! This crate turns the single-run labelers of `wf-drl` into an owned,
//! `Send + Sync + 'static` service — **Engine API v2**:
//!
//! * a [`WfEngine`] owns its specification catalog as
//!   `Arc<SpecContext>`s (no borrowed lifetime infecting callers) and a
//!   **sharded run registry** mapping [`RunId`]s to live labeling state;
//! * the **ingest path** is the caller's own thread: [`WfEngine::ingest`]
//!   applies a [`ServiceEvent`] — journal, label, publish — and returns
//!   its outcome, as do [`WfEngine::submit`] / [`WfEngine::submit_batch`]
//!   / [`WfEngine::complete_run`] and [`RunHandle::submit`]. The run's
//!   writer lock orders each write against every other write of the run,
//!   so a run's order is its writers' program order and more cores are
//!   used by more calling threads; [`WfEngine::flush`] is the WAL's
//!   durability barrier and [`WfEngine::drain`] closes ingest;
//! * the **query path** is lock-free: every applied insertion publishes
//!   the vertex's immutable label into a write-once
//!   [`index::LabelIndex`] as one cell — its name, the slot of its
//!   context's prefix array in the run's prefix table (stored once per
//!   array), and its own entry — and a cloneable, lifetime-free
//!   [`RunHandle`] resolves `u ; v` from two published labels plus the
//!   shared skeleton predicate — constant time, no locks, concurrent
//!   with ingestion (labels never change once assigned, Definitions
//!   8–9);
//! * [`WfEngine::query`] opens the **cross-run query surface**:
//!   lineage questions spanning several runs of one specification
//!   ("which completed runs have a vertex named N reachable from their
//!   source?"), answered by iterating published label chunks lock-free;
//! * the run registry is a **tiered label store** ([`Tier`]): live runs
//!   are **hot** (decoded labels, allocation-free queries), completed
//!   runs **freeze** into one sealed segment blob each
//!   ([`WfEngine::freeze_run`]), held on the heap until it **spills** to
//!   a versioned disk pack ([`WfEngine::persist_run`]) that reloads at
//!   build time and is read back lazily — with [`RunHandle::reach`] and
//!   [`WfEngine::query`] answering tier-transparently. A background
//!   tiering worker enforces [`EngineBuilder::freeze_after`] /
//!   [`EngineBuilder::spill_dir`] in completion order, and
//!   [`WfEngine::reheat_run`] loads a persisted run's frame if it is
//!   absent and holds it;
//! * [`WfEngine::stats`] reports engine-level activity (runs live and
//!   completed, events ingested, label bits)
//!   plus the per-tier byte footprints
//!   ([`ServiceStats::tier_footprint_json`]).
//!
//! ```
//! use wf_service::{RunOp, ServiceEvent, WfEngine};
//! use wf_run::Execution;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // The engine owns its catalog: specification + skeleton labels.
//! let engine: WfEngine = WfEngine::builder()
//!     .spec(wf_spec::corpus::running_example())
//!     .build();
//!
//! // Open two runs and stream their events in; each `ingest` applies
//! // the event on this thread before it returns.
//! let spec = wf_service::SpecId(0);
//! let (a, b) = (engine.open_run(spec).unwrap(), engine.open_run(spec).unwrap());
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut first_edge = None;
//! for &run in &[a, b] {
//!     let gen = wf_run::RunGenerator::new(&engine.context(spec).unwrap().spec)
//!         .target_size(60)
//!         .generate_run(&mut rng);
//!     let exec = Execution::deterministic(&gen.graph, &gen.origin);
//!     first_edge.get_or_insert((exec.events()[0].vertex, exec.events()[1].vertex));
//!     for ev in exec.events() {
//!         engine.ingest(ServiceEvent { run, op: RunOp::Insert(ev.clone()) }).unwrap();
//!     }
//! }
//! // Query mid-service: constant-time reachability from labels alone,
//! // through a cloneable handle that owns everything it needs.
//! let h = engine.handle(a).unwrap();
//! let (u, v) = first_edge.unwrap();
//! assert_eq!(h.clone().reach(u, v), Some(true));
//! assert!(engine.stats().events_ingested > 0);
//! ```

#![forbid(unsafe_code)]

mod builder;
mod engine;
mod freeze;
mod handle;
pub mod index;
mod ingest;
mod lifecycle;
mod query;
mod recovery;
mod slot;
pub mod snapshot;
mod spill;
mod stats;
mod store;
mod sub;
mod telemetry;
mod watchdog;

pub use builder::{EngineBuilder, DEFAULT_SLOW_OP_THRESHOLD, DEFAULT_TRACE_CAPACITY};
pub use engine::{EngineMetrics, WfEngine, DEFAULT_MAX_VERTEX_ID};
pub use handle::RunHandle;
pub use query::{CrossRunQuery, ExplainQuery, Explained, SourceReach};
pub use snapshot::SnapshotError;
pub use spill::CompactionReport;
pub use stats::ServiceStats;
pub use store::Tier;
pub use sub::{Delta, SubPredicate, Subscription, Witness, DEFAULT_SUB_QUEUE_CAPACITY};
pub use telemetry::QueryProfile;
pub use watchdog::{Health, StallCause};
pub use wf_obs::{HistogramSnapshot, TraceEvent};
pub use wf_wal as wal;
pub use wf_wal::{WalError, WalSync};

use std::fmt;
use wf_drl::{ExecError, ResolutionMode, SpecTables};
use wf_graph::VertexId;
use wf_run::ExecEvent;
use wf_skeleton::{SpecLabeling, TclSpecLabels};
use wf_spec::Specification;

/// Index of a specification in the engine's catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecId(pub usize);

/// Engine-wide identifier of one workflow run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunId(pub u64);

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run#{}", self.0)
    }
}

/// A specification plus its prebuilt skeleton labels and labeler tables
/// — the immutable, shared context every run of that workflow labels
/// against (§5.1's preprocessing, done once per specification rather
/// than once per run).
/// The engine holds these behind `Arc`s; runs, handles and queries share
/// them by reference count.
// The engine uses the default alone; the parameter stays because wfbench names `SpecContext::<TclSpecLabels>`.
pub struct SpecContext<S: SpecLabeling = TclSpecLabels> {
    /// The workflow specification.
    pub spec: Specification,
    /// Skeleton labels over `G(S)`.
    pub skeleton: S,
    /// What every run's labeler reads of the spec — the grammar
    /// analysis's designated vertices, which body a source name opens,
    /// the expansion slots, the §5.3 Conditions-1–2 check, whether entry
    /// words hold its runs' entries — built once here rather than on
    /// every `open_run`.
    tables: SpecTables,
}

impl<S: SpecLabeling> SpecContext<S> {
    /// Build the skeleton labels for `spec`.
    pub fn from_spec(spec: Specification) -> Self {
        let skeleton = S::build(&spec);
        let tables = SpecTables::auto(&spec);
        Self {
            spec,
            skeleton,
            tables,
        }
    }

    /// The resolution mode [`WfEngine::open_run`] uses for this spec:
    /// name-based when §5.3's Conditions 1–2 hold, log-based otherwise.
    pub fn default_resolution(&self) -> ResolutionMode {
        match self.tables.conditions() {
            Ok(()) => ResolutionMode::NameBased,
            Err(_) => ResolutionMode::LogBased,
        }
    }

    /// The labeler tables every run of this spec borrows.
    pub fn tables(&self) -> &SpecTables {
        &self.tables
    }

    /// Whether the engine can run this spec: an entry word — what a
    /// hot-tier cell and a prefix array keep an entry as — holds its
    /// runs' entries ([`SpecTables::fits_entry_words`]). A spec that does
    /// not fit is refused at `open_run` ([`ServiceError::SpecTooWide`]),
    /// never truncated.
    pub fn hot_cells_hold(&self) -> bool {
        self.tables.fits_entry_words().is_ok()
    }
}

/// A context shows as the size of its specification; its skeleton and
/// tables are derived from it.
impl fmt::Debug for SpecContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpecContext")
            .field("graphs", &self.spec.graph_count())
            .finish_non_exhaustive()
    }
}

/// One operation on one run.
#[derive(Debug, Clone)]
pub enum RunOp {
    /// Apply an insertion event (the wire format is `wf-run`'s
    /// [`ExecEvent`], exactly what a workflow engine's execution log
    /// emits).
    Insert(ExecEvent),
    /// Mark the run finished; further inserts are rejected.
    Complete,
}

/// A routable event: which run, and what happened to it.
#[derive(Debug, Clone)]
pub struct ServiceEvent {
    /// The target run.
    pub run: RunId,
    /// The operation.
    pub op: RunOp,
}

/// Lifecycle state of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RunStatus {
    /// Accepting events.
    Live,
    /// Completed normally; queries still served.
    Completed,
    /// Ingestion hit an error; queries over already-published labels
    /// still served.
    Failed,
    /// Removed from the registry by [`WfEngine::evict_run`]; writes
    /// through outstanding handles are rejected, queries over published
    /// labels still served.
    Evicted,
}

impl RunStatus {
    /// The status whose discriminant is `v` (a slot keeps its status as
    /// one atomic byte).
    pub(crate) fn from_u8(v: u8) -> Self {
        let status = [RunStatus::Live, RunStatus::Completed, RunStatus::Failed];
        status
            .get(usize::from(v))
            .copied()
            .unwrap_or(RunStatus::Evicted)
    }
}

/// Errors surfaced by the engine API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The catalog has no such specification.
    UnknownSpec(SpecId),
    /// No run with this id (never opened, or evicted).
    UnknownRun(RunId),
    /// The run no longer accepts events.
    RunNotLive(RunId, RunStatus),
    /// The event's vertex id exceeds the engine's per-run bound
    /// ([`DEFAULT_MAX_VERTEX_ID`]). Vertex ids size internal tables,
    /// so an absurd id from a buggy engine must not allocate
    /// proportionally before validation.
    VertexOutOfBounds(RunId, VertexId),
    /// The underlying labeler rejected an event.
    Labeler(RunId, ExecError),
    /// Ingest has been closed ([`WfEngine::drain`], or the engine was
    /// dropped); no new events are accepted. Queries keep working.
    ShuttingDown,
    /// A writer panicked applying an event of this run: this op's own
    /// apply — on the caller's thread, which gets this error instead of
    /// the unwind — or an earlier one that left the run's writer lock
    /// poisoned. The op did
    /// not complete, the run is `Failed` (its labeler state cannot be
    /// trusted), and it can still be evicted; published labels remain
    /// queryable.
    WorkerPanicked(RunId),
    /// Only completed runs can be frozen: freezing discards the dynamic
    /// labeler state, which a live run still needs for the next event.
    NotCompleted(RunId, RunStatus),
    /// Persisting requires a spill directory
    /// ([`EngineBuilder::spill_dir`]).
    NoSpillDir,
    /// Writing or reading a snapshot segment failed (message carries the
    /// underlying IO/format error).
    Snapshot(RunId, String),
    /// The spill directory could not be read when the engine was built
    /// (message carries the cause: an I/O error, a seal log of another
    /// format or bad before its end, an earlier build's manifest). The
    /// engine registered nothing from it and writes nothing there for its
    /// lifetime, so every persist, eviction of a persisted run and
    /// compaction is refused.
    SpillUnavailable(String),
    /// A compaction pass failed (message carries the underlying
    /// IO/format/sync error). The persisted tier is untouched: until the
    /// seal log holds the new places the old files stay live.
    Compaction(String),
    /// A write-ahead-log append or barrier failed (message carries the
    /// underlying [`WalError`]), or the run journaled its last sequence
    /// number. The op was **not** applied: the WAL is
    /// written before the in-memory state, so a run never holds events
    /// the log cannot replay.
    Wal(String),
    /// Every run id below `u64::MAX` is taken (ids are never reused), so
    /// no run can be opened.
    RunIdsExhausted,
    /// The spec has more graphs, or a graph more vertex slots, than an
    /// entry word's skeleton pointer names
    /// ([`SpecTables::fits_entry_words`]): its runs are refused at
    /// `open_run` rather than stored truncated.
    SpecTooWide(SpecId),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownSpec(s) => write!(f, "unknown specification {s:?}"),
            ServiceError::UnknownRun(r) => write!(f, "unknown {r}"),
            ServiceError::RunNotLive(r, s) => write!(f, "{r} is {s:?}, not live"),
            ServiceError::VertexOutOfBounds(r, v) => {
                write!(f, "{r}: vertex id {v:?} exceeds the engine bound")
            }
            ServiceError::Labeler(r, e) => write!(f, "{r}: {e}"),
            ServiceError::ShuttingDown => {
                write!(f, "ingest is closed; no new events are accepted")
            }
            ServiceError::WorkerPanicked(r) => {
                write!(f, "{r}: a writer panicked applying the event")
            }
            ServiceError::NotCompleted(r, s) => {
                write!(f, "{r} is {s:?}; only completed runs can be frozen")
            }
            ServiceError::NoSpillDir => {
                write!(
                    f,
                    "no spill directory configured (EngineBuilder::spill_dir)"
                )
            }
            ServiceError::Snapshot(r, e) => write!(f, "{r}: snapshot failed: {e}"),
            ServiceError::SpillUnavailable(e) => write!(f, "spill directory unavailable: {e}"),
            ServiceError::Compaction(e) => write!(f, "compaction failed: {e}"),
            ServiceError::Wal(e) => write!(f, "write-ahead log failed: {e}"),
            ServiceError::RunIdsExhausted => write!(f, "every run id is taken"),
            ServiceError::SpecTooWide(s) => write!(
                f,
                "specification {s:?} has more graphs or graph vertices than an entry word holds"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Result of a blocking batch submission.
#[derive(Debug, Default)]
pub struct BatchOutcome {
    /// Insertion events successfully applied.
    pub applied: usize,
    /// Per-run failures (a failed run's later ops in the batch are
    /// skipped; other runs are unaffected).
    pub failures: Vec<(RunId, ServiceError)>,
}
