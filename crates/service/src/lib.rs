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
//! * the **ingest path** is a persistent, channel-fed **worker pool**
//!   with bounded queues and backpressure: [`WfEngine::ingest`] enqueues
//!   a [`ServiceEvent`] and returns immediately, [`WfEngine::flush`] is
//!   a watermark barrier, and [`WfEngine::drain`] shuts the pool down
//!   gracefully (per-run event order is always preserved: one run is
//!   pinned to one worker's FIFO queue). A write whose caller waits —
//!   the blocking [`WfEngine::submit`] / [`WfEngine::submit_batch`] /
//!   [`WfEngine::complete_run`], and [`RunHandle::submit`] — is applied
//!   on the caller's thread instead, once the run's worker has settled
//!   what was enqueued before it; the run's writer lock orders it
//!   against every other write of the run;
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
//!   completed, events enqueued/ingested, ingest backlog, label bits)
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
//!     .ingest_workers(2)
//!     .build();
//!
//! // Open two runs and stream their events through the worker pool.
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
//! // Watermark barrier: everything enqueued above is now applied.
//! engine.flush();
//!
//! // Query mid-service: constant-time reachability from labels alone,
//! // through a cloneable handle that owns everything it needs.
//! let h = engine.handle(a).unwrap();
//! let (u, v) = first_edge.unwrap();
//! assert_eq!(h.clone().reach(u, v), Some(true));
//! assert!(engine.stats().events_ingested > 0);
//! ```

#![forbid(unsafe_code)]

pub mod bufmgr;
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
use wf_drl::{ExecError, ResolutionMode};
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

/// A specification plus its prebuilt skeleton labels — the immutable,
/// shared context every run of that workflow labels against (§5.1's
/// preprocessing, done once per specification rather than once per run).
/// The engine holds these behind `Arc`s; runs, handles and queries share
/// them by reference count.
// The engine uses the default alone; the parameter stays because wfbench names `SpecContext::<TclSpecLabels>`.
pub struct SpecContext<S: SpecLabeling = TclSpecLabels> {
    /// The workflow specification.
    pub spec: Specification,
    /// Skeleton labels over `G(S)`.
    pub skeleton: S,
    /// Cached result of the §5.3 Conditions-1–2 check (a pure function
    /// of the immutable spec, so it is computed once here rather than on
    /// every `open_run`).
    default_resolution: ResolutionMode,
}

impl<S: SpecLabeling> SpecContext<S> {
    /// Build the skeleton labels for `spec`.
    pub fn from_spec(spec: Specification) -> Self {
        let skeleton = S::build(&spec);
        let default_resolution = if spec.check_execution_conditions().is_ok() {
            ResolutionMode::NameBased
        } else {
            ResolutionMode::LogBased
        };
        Self {
            spec,
            skeleton,
            default_resolution,
        }
    }

    /// The resolution mode [`WfEngine::open_run`] uses for this spec:
    /// name-based when §5.3's Conditions 1–2 hold, log-based otherwise.
    pub fn default_resolution(&self) -> ResolutionMode {
        self.default_resolution
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
    pub(crate) fn from_u8(v: u8) -> Self {
        match v {
            0 => RunStatus::Live,
            1 => RunStatus::Completed,
            2 => RunStatus::Failed,
            _ => RunStatus::Evicted,
        }
    }

    pub(crate) fn as_u8(self) -> u8 {
        match self {
            RunStatus::Live => 0,
            RunStatus::Completed => 1,
            RunStatus::Failed => 2,
            RunStatus::Evicted => 3,
        }
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
    /// The ingest pool has been drained ([`WfEngine::drain`]); no new
    /// events are accepted. Queries keep working.
    ShuttingDown,
    /// A writer panicked applying an event of this run: this op's own
    /// apply — on a pool worker, or on the thread of a caller who waits
    /// for it, which gets this error instead of the unwind — or an
    /// earlier one that left the run's writer lock poisoned. The op did
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
    /// A compaction pass failed (message carries the underlying
    /// IO/format/sync error). The persisted tier is untouched: until the
    /// new manifest renames into place the old files stay live.
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
                write!(f, "the ingest pool is drained; no new events are accepted")
            }
            ServiceError::WorkerPanicked(r) => {
                write!(f, "{r}: the ingest worker panicked applying the event")
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
            ServiceError::Compaction(e) => write!(f, "compaction failed: {e}"),
            ServiceError::Wal(e) => write!(f, "write-ahead log failed: {e}"),
            ServiceError::RunIdsExhausted => write!(f, "every run id is taken"),
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
