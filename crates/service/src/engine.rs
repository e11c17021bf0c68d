//! The owned engine: catalog, run registry, the public API, and the
//! blocking compatibility wrappers over the pipelined ingest path. (The
//! tier lifecycle lives in [`crate::lifecycle`].)
//!
//! Engine API v2's core move is *ownership*: [`WfEngine`] holds its
//! [`SpecContext`] catalog behind `Arc`s instead of borrowing a caller's
//! slice, which kills the `'s` lifetime that previously infected every
//! type in the crate. The price is one self-referential cell
//! ([`OwnedLabeler`]) where a run's `ExecutionLabeler` borrows from the
//! `Arc` allocation its slot co-owns — the single `unsafe` in the
//! workspace, with the invariants documented at the site.

use crate::handle::RunHandle;
use crate::index::LabelIndex;
use crate::ingest::{BatchTracker, Envelope, IngestPool};
use crate::lifecycle::{TierPolicy, Tiering};
use crate::query::CrossRunQuery;
use crate::snapshot::PersistedRun;
use crate::spill::{file_stats, CompactionReport, FileStat, PackGcReport, SpillDir};
use crate::stats::ServiceStats;
use crate::store::{LabelStore, RunView, SegmentLru, Tier};
use crate::sub::{SubHub, SubPredicate, Subscription, DEFAULT_SUB_QUEUE_CAPACITY};
use crate::telemetry::{
    SpanCtx, SpanHandle, Telemetry, TelemetryConfig, WalTelemetry, DEFAULT_REACH_SAMPLE_SHIFT,
};
use crate::{
    BatchOutcome, RunId, RunOp, RunStatus, ServiceError, ServiceEvent, SpecContext, SpecId,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use wf_drl::{ExecError, ExecutionLabeler, ResolutionMode};
use wf_graph::VertexId;
use wf_run::{Derivation, ExecEvent};
use wf_skeleton::{SpecLabeling, TclSpecLabels};
use wf_spec::Specification;
use wf_wal::{Record, RecordKind, WalSync, WalWriter};

/// Default per-run vertex-id ceiling: 2²⁴ ≈ 16M vertices, far beyond the
/// paper's 32K-vertex runs yet small enough that a garbage id from a
/// buggy engine cannot drive a multi-gigabyte table allocation.
pub const DEFAULT_MAX_VERTEX_ID: u32 = (1 << 24) - 1;

/// How many recent fire-and-forget ingest errors the engine retains for
/// [`WfEngine::take_ingest_errors`].
const INGEST_ERROR_RING: usize = 256;

/// A labeler that co-owns the [`SpecContext`] it borrows from — the
/// self-referential cell that lets per-run labeling state live inside an
/// owned, `'static` engine.
struct OwnedLabeler<S: SpecLabeling + 'static> {
    /// Declared before `ctx`: struct fields drop in declaration order,
    /// so the borrower is gone before the borrowed-from allocation.
    labeler: ExecutionLabeler<'static, S>,
    /// Keeps the `Arc` allocation `labeler` points into alive. Never
    /// handed out.
    _ctx: Arc<SpecContext<S>>,
}

impl<S: SpecLabeling + 'static> OwnedLabeler<S> {
    fn new(ctx: Arc<SpecContext<S>>, resolution: ResolutionMode) -> Result<Self, ExecError> {
        // SAFETY: `ctx.spec` and `ctx.skeleton` live inside an `Arc`
        // allocation that `_ctx` keeps alive at least as long as
        // `labeler` (field order above), and `Arc` contents never move.
        // No code path mutates a `SpecContext` once it is behind the
        // engine's `Arc`s (the crate never calls `Arc::get_mut` and the
        // type has no interior mutability), so these extended borrows
        // can never dangle or alias a mutable reference. The `'static`
        // lifetime never escapes this module: `get` reborrows at the
        // caller's shorter lifetime, and every public return value
        // borrows from the labeler's own storage, not from `'static`.
        let spec: &'static Specification = unsafe { &*std::ptr::from_ref(&ctx.spec) };
        let skeleton: &'static S = unsafe { &*std::ptr::from_ref(&ctx.skeleton) };
        let labeler = match resolution {
            ResolutionMode::NameBased => ExecutionLabeler::new(spec, skeleton),
            ResolutionMode::LogBased => ExecutionLabeler::new_log_based(spec, skeleton),
        }?;
        Ok(Self { labeler, _ctx: ctx })
    }

    fn get(&mut self) -> &mut ExecutionLabeler<'static, S> {
        &mut self.labeler
    }
}

/// Per-run state: the single-writer labeler behind a mutex, and the
/// lock-free published-label index the query path reads.
pub(crate) struct RunSlot<S: SpecLabeling + 'static> {
    pub(crate) spec: SpecId,
    pub(crate) skl_bits: usize,
    max_vertex_id: u32,
    /// The run's labeler, for as long as the run can still be written:
    /// completion drops it, and a run re-heated to the hot tier never
    /// has one.
    writer: Mutex<Option<OwnedLabeler<S>>>,
    pub(crate) indexed: LabelIndex,
    /// The run's source vertex (its first inserted event — the labeler
    /// guarantees that is the start graph's source). Write-once, read by
    /// the cross-run query surface.
    pub(crate) source: OnceLock<VertexId>,
    pub(crate) status: AtomicU8,
    pub(crate) events: AtomicU64,
    /// Queries answered against this run. Per-slot (each slot is its own
    /// allocation) so the query hot path never contends on a single
    /// engine-wide cache line with ingest writers; `stats()` sums it.
    pub(crate) queries: AtomicU64,
    /// The run's derivation, when the caller recorded it
    /// ([`WfEngine::provide_derivation`]) — what unlocks the SKL
    /// re-label at freeze time.
    pub(crate) derivation: Mutex<Option<Derivation>>,
    /// Next WAL sequence number for this run (0 is the `RunOpen`
    /// record). Monotone per run; recovery replays in this order, so
    /// the numbers align with the flush watermark: everything appended
    /// before a barrier is durably replayable after it.
    pub(crate) wal_seq: AtomicU64,
}

impl<S: SpecLabeling> RunSlot<S> {
    pub(crate) fn status(&self) -> RunStatus {
        RunStatus::from_u8(self.status.load(Ordering::Acquire))
    }

    /// Apply one insertion under the writer lock, then publish the fresh
    /// labels to the lock-free index.
    ///
    /// Lifecycle transitions ([`Self::complete`], failure marking) also
    /// happen under the writer lock, so the Live check cannot race a
    /// concurrent completion: once a run reports Completed, no event
    /// slips in after it.
    pub(crate) fn apply_insert(&self, run: RunId, ev: &ExecEvent) -> Result<(), ServiceError> {
        if ev.vertex.0 > self.max_vertex_id {
            // Reject before any table sizes to the id (both the labeler
            // and the label index allocate proportionally to it).
            return Err(ServiceError::VertexOutOfBounds(run, ev.vertex));
        }
        let mut w = self.writer.lock().expect("writer lock poisoned");
        let labeler = match (self.status(), w.as_mut()) {
            (RunStatus::Live, Some(w)) => w.get(),
            (s, _) => return Err(ServiceError::RunNotLive(run, s)),
        };
        if let Err(e) = labeler.insert(ev) {
            self.status
                .store(RunStatus::Failed.as_u8(), Ordering::Release);
            return Err(ServiceError::Labeler(run, e));
        }
        if self.source.get().is_none() {
            // First applied event of the run: by Definition 8 it is the
            // start graph's source (the labeler rejects anything else).
            let _ = self.source.set(ev.vertex);
        }
        labeler.drain_fresh(|v, label| {
            debug_assert_eq!(v, ev.vertex, "one insertion labels one vertex");
            self.indexed
                .publish(v, ev.name, label.clone(), self.skl_bits);
        });
        self.events.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    pub(crate) fn complete(&self, run: RunId) -> Result<(), ServiceError> {
        // Take the writer lock so completion serializes with in-flight
        // inserts (see `apply_insert`).
        let mut w = self.writer.lock().expect("writer lock poisoned");
        self.status
            .compare_exchange(
                RunStatus::Live.as_u8(),
                RunStatus::Completed.as_u8(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map_err(|s| ServiceError::RunNotLive(run, RunStatus::from_u8(s)))?;
        // A completed run can no longer be written: let the labeler go
        // now rather than at freeze time.
        *w = None;
        Ok(())
    }

    fn new(
        spec: SpecId,
        skl_bits: usize,
        max_vertex_id: u32,
        writer: Option<OwnedLabeler<S>>,
        next_wal_seq: u64,
    ) -> Self {
        let status = if writer.is_some() {
            RunStatus::Live
        } else {
            RunStatus::Completed
        };
        Self {
            spec,
            skl_bits,
            max_vertex_id,
            writer: Mutex::new(writer),
            indexed: LabelIndex::new(),
            source: OnceLock::new(),
            status: AtomicU8::new(status.as_u8()),
            events: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            derivation: Mutex::new(None),
            wal_seq: AtomicU64::new(next_wal_seq),
        }
    }

    /// The slot of a run re-heated to the hot tier: `Completed` from the
    /// start, so it holds no labeler; the caller publishes the run's
    /// `labels` labels into [`Self::indexed`] before registering it.
    pub(crate) fn completed(
        spec: SpecId,
        skl_bits: usize,
        max_vertex_id: u32,
        source: Option<VertexId>,
        labels: u64,
    ) -> Self {
        let slot = Self::new(spec, skl_bits, max_vertex_id, None, 1);
        if let Some(source) = source {
            let _ = slot.source.set(source);
        }
        slot.events.store(labels, Ordering::Relaxed);
        slot
    }
}

/// Build a fresh [`RunSlot`]. `next_wal_seq` is 1 for newly opened runs
/// (the `RunOpen` record takes seq 0) and `max_seq + 1` when rebuilding a
/// run from WAL replay.
fn new_slot<S: SpecLabeling + 'static>(
    ctx: Arc<SpecContext<S>>,
    spec: SpecId,
    resolution: ResolutionMode,
    max_vertex_id: u32,
    next_wal_seq: u64,
) -> Result<Arc<RunSlot<S>>, ExecError> {
    let mut writer = OwnedLabeler::new(ctx, resolution)?;
    let skl_bits = writer.get().skl_bits();
    Ok(Arc::new(RunSlot::new(
        spec,
        skl_bits,
        max_vertex_id,
        Some(writer),
        next_wal_seq,
    )))
}

/// `RunOpen` payload: the spec id (u32 LE) plus the resolution mode tag —
/// everything recovery needs to rebuild the slot.
fn run_open_payload(spec: SpecId, resolution: ResolutionMode) -> Vec<u8> {
    let mut p = Vec::with_capacity(5);
    p.extend_from_slice(&(spec.0 as u32).to_le_bytes());
    p.push(match resolution {
        ResolutionMode::NameBased => 0,
        ResolutionMode::LogBased => 1,
    });
    p
}

/// Inverse of [`run_open_payload`]; `None` on malformed or unknown bytes
/// (the run is then skipped at recovery rather than misinterpreted).
fn parse_run_open(payload: &[u8]) -> Option<(SpecId, ResolutionMode)> {
    if payload.len() != 5 {
        return None;
    }
    let spec = SpecId(u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize);
    let resolution = match payload[4] {
        0 => ResolutionMode::NameBased,
        1 => ResolutionMode::LogBased,
        _ => return None,
    };
    Some((spec, resolution))
}

/// One run the WAL scan deemed replayable: decoded and validated before
/// the engine's shared state exists, applied right after it does.
struct ReplayRun {
    run: RunId,
    spec: SpecId,
    resolution: ResolutionMode,
    events: Vec<ExecEvent>,
    completed: bool,
    /// Highest WAL seq the run had; its slot resumes numbering above it.
    max_seq: u64,
}

/// One cause of a pipeline stall, as diagnosed by the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// An ingest worker has queued envelopes but its applied watermark
    /// did not advance across a whole watchdog interval.
    IngestWorker,
    /// The WAL group-commit committer is not draining: the oldest
    /// buffered append has waited longer than half the watchdog
    /// interval for an fsync pass.
    WalCommitLag,
    /// The tiering worker's completion backlog keeps growing.
    TieringBacklog,
    /// The segment LRU is shedding at thrash rate (re-faulting what it
    /// just evicted).
    ShedThrash,
    /// Standing-query subscribers are lagging: their bounded notify
    /// queues dropped deltas faster than [`SUB_LAG_PER_TICK`] per
    /// watchdog interval.
    SubLag,
}

impl StallCause {
    /// Stable lowercase tag, used in `stall` trace events.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            StallCause::IngestWorker => "ingest_worker",
            StallCause::WalCommitLag => "wal_commit_lag",
            StallCause::TieringBacklog => "tiering_backlog",
            StallCause::ShedThrash => "shed_thrash",
            StallCause::SubLag => "sub_lag",
        }
    }
}

/// Engine liveness verdict, refreshed by the stall watchdog every
/// interval ([`EngineBuilder::watchdog`]). A cause appears in
/// `Degraded` after one violating interval and escalates to `Stalled`
/// after two consecutive ones; it clears as soon as an interval passes
/// clean. Without a watchdog the engine always reports `Healthy`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// Every watermark is advancing.
    Healthy,
    /// At least one violation observed in the last interval.
    Degraded {
        /// The violated watermarks.
        causes: Vec<StallCause>,
    },
    /// At least one violation persisted across two consecutive
    /// intervals — the pipeline is not making progress.
    Stalled {
        /// The persistently violated watermarks.
        causes: Vec<StallCause>,
    },
}

/// Per-worker ingest progress watermarks, fed by the enqueue path and
/// the worker loop, read by the watchdog. Two relaxed counters: the
/// watchdog tolerates torn reads (it only compares successive samples).
pub(crate) struct WorkerMark {
    pub(crate) enqueued: AtomicU64,
    pub(crate) applied: AtomicU64,
}

/// Everything the engine, its worker pool, and every outstanding
/// [`RunHandle`] share by reference count. This is the `'static` heart
/// of the v2 API: nothing in here borrows from a caller.
pub(crate) struct EngineShared<S: SpecLabeling + 'static> {
    pub(crate) catalog: Box<[Arc<SpecContext<S>>]>,
    /// The tiered run registry (hot / frozen / persisted).
    pub(crate) store: LabelStore<S>,
    /// The per-run vertex-id ceiling every run's tables are sized
    /// against.
    pub(crate) max_vertex_id: u32,
    next_run: AtomicU64,
    pub(crate) draining: AtomicBool,
    /// All observability state: counters, histograms, the trace ring.
    pub(crate) obs: Arc<Telemetry>,
    pub(crate) ingest_workers: usize,
    /// Ingest watermark: envelopes handed to the pool…
    enqueued: AtomicU64,
    /// …and envelopes the workers finished (applied, failed or skipped).
    processed: AtomicU64,
    flush_waiters: AtomicUsize,
    flush_lock: Mutex<()>,
    flush_cv: Condvar,
    /// Recent failures from the fire-and-forget ingest path (bounded);
    /// the background tiering worker reports here too.
    ingest_errors: Mutex<VecDeque<(RunId, ServiceError)>>,
    /// The tiering policy, its completion queue and its worker.
    pub(crate) tiering: Tiering,
    /// The spill directory, when persistence is configured.
    pub(crate) spill: Option<SpillDir>,
    /// The durable ingest log, when [`EngineBuilder::wal_dir`] is set:
    /// every open/insert/complete is appended *before* it is applied, so
    /// a crash loses at most the un-synced batch tail, never applied
    /// state the log cannot replay.
    pub(crate) wal: Option<WalWriter>,
    /// Per-worker ingest watermarks for the stall watchdog (one slot per
    /// pool worker, indexed like the pool's senders).
    pub(crate) worker_marks: Box<[WorkerMark]>,
    /// Latest watchdog verdict; `Healthy` until a watchdog ever runs.
    health: Mutex<Health>,
    /// Watchdog shutdown flag + wakeup.
    watchdog_stop: AtomicBool,
    watchdog_lock: Mutex<()>,
    watchdog_cv: Condvar,
}

/// Fibonacci hash of a run id — the single routing function shared by
/// the registry shards and the ingest pool's run→worker pinning, so the
/// two can never drift apart.
pub(crate) fn route_hash(run: RunId) -> u64 {
    run.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

/// The one of `workers` ingest workers `run` is pinned to — and with it
/// the run's queue, its watermark slot and its WAL shard.
pub(crate) fn route_worker(run: RunId, workers: usize) -> usize {
    (route_hash(run) % workers.max(1) as u64) as usize
}

impl<S: SpecLabeling> EngineShared<S> {
    /// The *writable* slot of `run`: its hot-tier state. A run that has
    /// left the hot tier rejects writes with its lifecycle status (it is
    /// still known — queries keep working through [`LabelStore::view`]).
    pub(crate) fn slot(&self, run: RunId) -> Result<Arc<RunSlot<S>>, ServiceError> {
        match self.view(run)? {
            RunView::Hot(slot) => Ok(slot),
            view => Err(ServiceError::RunNotLive(run, view.status())),
        }
    }

    /// The run's current representation, whatever its tier.
    pub(crate) fn view(&self, run: RunId) -> Result<RunView<S>, ServiceError> {
        self.store.view(run).ok_or(ServiceError::UnknownRun(run))
    }

    /// Shared ingest bookkeeping for every submit path (pooled or
    /// direct): one place decides which counters an outcome bumps.
    pub(crate) fn record_insert_outcome(&self, res: &Result<(), ServiceError>) {
        match res {
            Ok(()) => self.obs.events_ingested.inc(),
            Err(ServiceError::Labeler(..)) => self.obs.runs_failed.inc(),
            Err(_) => {}
        }
    }

    pub(crate) fn record_complete_outcome(
        &self,
        run: RunId,
        spec: SpecId,
        res: &Result<(), ServiceError>,
    ) {
        if res.is_ok() {
            self.obs.runs_completed.inc();
            // The status CAS fired exactly once, so this fan-out is
            // edge-triggered: subscribers see one RunCompleted per run.
            self.store.subs.notify_complete(run, spec);
            self.tiering.note_completed(run);
        }
    }

    /// The WAL shard a run's records land on: the same run→worker
    /// pinning as the ingest pool, so a run's appends happen on one
    /// worker thread and the shard file sees them in apply order.
    pub(crate) fn wal_shard(&self, run: RunId) -> usize {
        route_worker(run, self.ingest_workers)
    }

    /// **Write-ahead apply** for one insertion: journal the event, then
    /// apply it. The cheap bounds precheck runs first so garbage ids are
    /// rejected without a log write (the rejection is deterministic, so
    /// nothing about it needs replaying); a failed append rejects the op
    /// without applying it — the in-memory state never runs ahead of
    /// the log.
    pub(crate) fn logged_apply_insert(
        &self,
        run: RunId,
        slot: &RunSlot<S>,
        ev: &ExecEvent,
    ) -> Result<(), ServiceError> {
        if self.wal.is_some() {
            if ev.vertex.0 > slot.max_vertex_id {
                return Err(ServiceError::VertexOutOfBounds(run, ev.vertex));
            }
            let seq = slot.wal_seq.fetch_add(1, Ordering::Relaxed);
            let mut payload = Vec::new();
            wf_drl::encode::write_event(&mut payload, ev);
            self.journal(run, RecordKind::Event, seq, payload)?;
        }
        slot.apply_insert(run, ev)
    }

    /// Append one record to `run`'s WAL shard (a no-op without a WAL).
    fn journal(
        &self,
        run: RunId,
        kind: RecordKind,
        seq: u64,
        payload: Vec<u8>,
    ) -> Result<(), ServiceError> {
        let Some(wal) = &self.wal else { return Ok(()) };
        let rec = Record {
            kind,
            run: run.0,
            seq,
            payload,
        };
        wal.append(self.wal_shard(run), &rec)
            .map_err(|e| ServiceError::Wal(e.to_string()))
    }

    /// Force every record appended so far to disk (a no-op without a
    /// WAL); a failure goes to the error ring.
    fn wal_barrier(&self) {
        if let Some(wal) = &self.wal {
            if let Err(e) = wal.barrier() {
                self.push_ingest_error(RunId(u64::MAX), ServiceError::Wal(e.to_string()));
            }
        }
    }

    /// **Write-ahead completion**: journal the completion, then apply
    /// it. Same ordering contract as [`Self::logged_apply_insert`].
    pub(crate) fn logged_complete(
        &self,
        run: RunId,
        slot: &RunSlot<S>,
    ) -> Result<(), ServiceError> {
        let seq = slot.wal_seq.fetch_add(1, Ordering::Relaxed);
        self.journal(run, RecordKind::Complete, seq, Vec::new())?;
        slot.complete(run)
    }

    /// Remember a failure from the fire-and-forget path so callers that
    /// never block on acks can still observe what went wrong.
    pub(crate) fn push_ingest_error(&self, run: RunId, err: ServiceError) {
        let mut ring = self.ingest_errors.lock().expect("error ring poisoned");
        if ring.len() == INGEST_ERROR_RING {
            ring.pop_front();
        }
        ring.push_back((run, err));
    }

    /// One envelope finished: advance the watermark and wake flushers.
    pub(crate) fn note_processed(&self) {
        self.processed.fetch_add(1, Ordering::Release);
        if self.flush_waiters.load(Ordering::Acquire) > 0 {
            // Take the lock before notifying so a flusher between its
            // watermark check and its wait cannot miss the wakeup.
            let _g = self.flush_lock.lock().expect("flush lock poisoned");
            self.flush_cv.notify_all();
        }
    }

    /// Block until the processed watermark reaches `target`; returns the
    /// watermark observed on exit.
    fn wait_processed(&self, target: u64) -> u64 {
        if self.processed.load(Ordering::Acquire) >= target {
            return self.processed.load(Ordering::Acquire);
        }
        self.flush_waiters.fetch_add(1, Ordering::AcqRel);
        let mut g = self.flush_lock.lock().expect("flush lock poisoned");
        while self.processed.load(Ordering::Acquire) < target {
            // Timed wait as a backstop: correctness never depends on a
            // perfectly-delivered notification.
            let (g2, _) = self
                .flush_cv
                .wait_timeout(g, std::time::Duration::from_millis(25))
                .expect("flush lock poisoned");
            g = g2;
        }
        drop(g);
        self.flush_waiters.fetch_sub(1, Ordering::AcqRel);
        self.processed.load(Ordering::Acquire)
    }
}

/// How many consecutive violating intervals escalate a cause from
/// `Degraded` to `Stalled`.
const STALL_ESCALATION_TICKS: u32 = 2;
/// Completion-queue length below which the tiering backlog is never a
/// violation (bursts of completions are normal).
const TIERING_BACKLOG_FLOOR: usize = 16;
/// LRU sheds per watchdog tick that count as thrash.
const SHED_THRASH_PER_TICK: u64 = 64;
/// Subscription deltas dropped per watchdog tick that count as lag.
const SUB_LAG_PER_TICK: u64 = 64;

/// Every cause the watchdog can diagnose, in streak-array order.
const WATCHDOG_CAUSES: [StallCause; 5] = [
    StallCause::IngestWorker,
    StallCause::WalCommitLag,
    StallCause::TieringBacklog,
    StallCause::ShedThrash,
    StallCause::SubLag,
];

/// Body of the stall watchdog: every `interval`, sample each subsystem's
/// progress watermark, promote violations into the trace ring as `stall`
/// events, and publish the escalated verdict to `EngineShared::health`.
fn watchdog_loop<S: SpecLabeling + Send + Sync + 'static>(
    shared: &EngineShared<S>,
    interval: std::time::Duration,
) {
    let interval_ns = interval.as_nanos() as u64;
    let mut last_applied: Vec<u64> = shared
        .worker_marks
        .iter()
        .map(|m| m.applied.load(Ordering::Relaxed))
        .collect();
    let mut last_backlog = 0usize;
    let mut last_sheds = shared.obs.segment_sheds.get();
    let mut last_sub_lagged = shared.obs.sub_lagged.get();
    let mut streaks = [0u32; WATCHDOG_CAUSES.len()];
    loop {
        {
            let g = shared.watchdog_lock.lock().expect("watchdog lock poisoned");
            if shared.watchdog_stop.load(Ordering::Acquire) {
                return;
            }
            let _ = shared
                .watchdog_cv
                .wait_timeout(g, interval)
                .expect("watchdog lock poisoned");
        }
        if shared.watchdog_stop.load(Ordering::Acquire) {
            return;
        }
        let mut violated: Vec<StallCause> = Vec::new();
        // Ingest: a worker with queued envelopes whose applied watermark
        // did not move across the whole interval is wedged.
        let mut ingest_wedged = false;
        for (i, m) in shared.worker_marks.iter().enumerate() {
            let applied = m.applied.load(Ordering::Relaxed);
            let enqueued = m.enqueued.load(Ordering::Relaxed);
            if enqueued > applied && applied == last_applied[i] {
                ingest_wedged = true;
            }
            last_applied[i] = applied;
        }
        if ingest_wedged {
            violated.push(StallCause::IngestWorker);
        }
        // WAL: buffered appends should reach disk within one group-commit
        // window; half a watchdog interval of lag means the committer is
        // not draining.
        if let Some(wal) = &shared.wal {
            if wal.sync_lag_ns() > interval_ns / 2 {
                violated.push(StallCause::WalCommitLag);
            }
        }
        // Tiering: a completion backlog that keeps (or grows) past the
        // floor while the policy is active means the worker fell behind.
        let backlog = shared.tiering.backlog();
        if shared.tiering.is_active() && backlog > TIERING_BACKLOG_FLOOR && backlog >= last_backlog
        {
            violated.push(StallCause::TieringBacklog);
        }
        last_backlog = backlog;
        // Bufmgr: shedding dozens of segments per tick means the LRU
        // budget is too small for the working set (evict/re-fault churn).
        let sheds = shared.obs.segment_sheds.get();
        if sheds.saturating_sub(last_sheds) >= SHED_THRASH_PER_TICK {
            violated.push(StallCause::ShedThrash);
        }
        last_sheds = sheds;
        // Subscriptions: sustained drop-oldest overflow means consumers
        // (or their queues) cannot keep up with the delta rate.
        let sub_lagged = shared.obs.sub_lagged.get();
        if sub_lagged.saturating_sub(last_sub_lagged) >= SUB_LAG_PER_TICK {
            violated.push(StallCause::SubLag);
        }
        last_sub_lagged = sub_lagged;

        let mut stalled: Vec<StallCause> = Vec::new();
        for (i, cause) in WATCHDOG_CAUSES.iter().enumerate() {
            if violated.contains(cause) {
                streaks[i] = streaks[i].saturating_add(1);
                shared.obs.event("stall", None, None, || {
                    format!("cause={} streak={}", cause.tag(), streaks[i])
                });
                if streaks[i] >= STALL_ESCALATION_TICKS {
                    stalled.push(*cause);
                }
            } else {
                streaks[i] = 0;
            }
        }
        let verdict = if !stalled.is_empty() {
            Health::Stalled { causes: stalled }
        } else if !violated.is_empty() {
            Health::Degraded { causes: violated }
        } else {
            Health::Healthy
        };
        *shared.health.lock().expect("health lock poisoned") = verdict;
    }
}

/// The owned, concurrent multi-run labeling engine. `Send + Sync +
/// 'static`: hold it in a struct, share it across threads, move handles
/// into spawned tasks — no catalog lifetime to thread through. See the
/// crate docs for the architecture.
pub struct WfEngine<S: SpecLabeling + Send + Sync + 'static = TclSpecLabels> {
    shared: Arc<EngineShared<S>>,
    pool: IngestPool<S>,
    /// The stall watchdog, when an interval is configured.
    watchdog: Option<JoinHandle<()>>,
}

impl<S: SpecLabeling + Send + Sync + 'static> WfEngine<S> {
    /// Stop and join the stall watchdog (idempotent).
    fn stop_watchdog(&mut self) {
        self.shared.watchdog_stop.store(true, Ordering::Release);
        {
            let _g = self
                .shared
                .watchdog_lock
                .lock()
                .expect("watchdog lock poisoned");
            self.shared.watchdog_cv.notify_all();
        }
        if let Some(worker) = self.watchdog.take() {
            let _ = worker.join();
        }
    }
}

impl<S: SpecLabeling + Send + Sync + 'static> Drop for WfEngine<S> {
    fn drop(&mut self) {
        // Dropping the engine is an implicit drain: mark ingest closed
        // before the pool field's own Drop joins the workers, so
        // surviving `RunHandle` clones reject writes (queries keep
        // working off the reference-counted slots).
        self.shared.draining.store(true, Ordering::Release);
        self.stop_watchdog();
        self.shared.tiering.stop();
    }
}

/// Compile-time contract: the engine, its builder, and its handles are
/// freely shareable across threads and free of borrowed lifetimes. A
/// failure here is a compile error, not a runtime assertion.
#[allow(dead_code)]
fn assert_engine_thread_safety() {
    fn check<T: Send + Sync + 'static>() {}
    check::<WfEngine>();
    check::<EngineBuilder>();
    check::<RunHandle>();
    check::<WfEngine<wf_skeleton::BfsSpecLabels>>();
}

impl<S: SpecLabeling + Send + Sync + 'static> WfEngine<S> {
    /// Start configuring an engine.
    pub fn builder() -> EngineBuilder<S> {
        EngineBuilder::new()
    }

    /// The shared specification catalog.
    pub fn catalog(&self) -> &[Arc<SpecContext<S>>] {
        &self.shared.catalog
    }

    /// The catalog entry for `spec`, if any.
    pub fn context(&self, spec: SpecId) -> Option<&Arc<SpecContext<S>>> {
        self.shared.catalog.get(spec.0)
    }

    /// The per-run vertex-id ceiling ([`EngineBuilder::max_vertex_id`]).
    pub fn max_vertex_id(&self) -> u32 {
        self.shared.max_vertex_id
    }

    /// Open a new run of specification `spec`. Resolution is name-based
    /// when the spec satisfies §5.3's Conditions 1–2, log-based
    /// otherwise (log-based needs the `origin` field every [`ExecEvent`]
    /// already carries).
    pub fn open_run(&self, spec: SpecId) -> Result<RunId, ServiceError> {
        let ctx = self
            .shared
            .catalog
            .get(spec.0)
            .ok_or(ServiceError::UnknownSpec(spec))?;
        self.open_run_with(spec, ctx.default_resolution())
    }

    /// Open a new run with an explicit resolution mode.
    pub fn open_run_with(
        &self,
        spec: SpecId,
        resolution: ResolutionMode,
    ) -> Result<RunId, ServiceError> {
        let ctx = self
            .shared
            .catalog
            .get(spec.0)
            .ok_or(ServiceError::UnknownSpec(spec))?;
        let run = RunId(self.shared.next_run.fetch_add(1, Ordering::AcqRel));
        let slot = new_slot(Arc::clone(ctx), spec, resolution, self.max_vertex_id(), 1)
            .map_err(|e| ServiceError::Labeler(run, e))?;
        // Journal the open before the run becomes visible: the `RunOpen`
        // record (seq 0) happens-before any event enqueue, so recovery
        // always finds it ahead of the run's events.
        let open = run_open_payload(spec, resolution);
        self.shared.journal(run, RecordKind::RunOpen, 0, open)?;
        self.shared.store.insert(run, RunView::Hot(slot));
        self.shared.obs.runs_opened.inc();
        Ok(run)
    }

    /// **Pipelined ingest**: route one event into the worker pool and
    /// return as soon as it is enqueued. Per-run order is preserved
    /// (each run is pinned to one worker's FIFO queue); the bounded
    /// queue applies backpressure by blocking the enqueue when the
    /// worker is saturated. Failures discovered when the event is
    /// applied are recorded on the run (status, counters) and retained
    /// for [`Self::take_ingest_errors`]; use [`Self::flush`] as a
    /// barrier, or the blocking [`Self::submit`] when you need the
    /// per-event result.
    pub fn ingest(&self, event: ServiceEvent) -> Result<(), ServiceError> {
        if self.shared.draining.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let slot = self.shared.slot(event.run)?;
        self.enqueue(Envelope {
            run: event.run,
            slot,
            op: event.op,
            tracker: None,
            span: SpanCtx::NONE,
        })
    }

    fn enqueue(&self, mut env: Envelope<S>) -> Result<(), ServiceError> {
        let obs = &self.shared.obs;
        // Sampling decision happens here, on the producer side: a
        // sampled ingest opens the trace's root span, and its context
        // rides the envelope so the worker's apply span (and the WAL
        // append under it) parent correctly across the thread hop.
        let root = if obs.apply_sampled() {
            obs.begin()
        } else {
            SpanHandle::inert()
        };
        env.span = root.ctx;
        let run = env.run;
        let worker = route_worker(run, self.shared.worker_marks.len());
        self.shared.enqueued.fetch_add(1, Ordering::AcqRel);
        let res = match self.pool.send(env) {
            Ok(()) => {
                self.shared.worker_marks[worker]
                    .enqueued
                    .fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.shared.enqueued.fetch_sub(1, Ordering::AcqRel);
                Err(e)
            }
        };
        obs.finish(
            root,
            &obs.h_ingest_enqueue,
            "ingest",
            Some(run.0),
            None,
            true,
            String::new,
        );
        res
    }

    /// Apply one insertion event to one run, **blocking** until the
    /// worker pool has applied it — the v1 API surface, preserved as a
    /// thin wrapper over the pipelined path.
    pub fn submit(&self, run: RunId, ev: &ExecEvent) -> Result<(), ServiceError> {
        self.submit_op(run, RunOp::Insert(ev.clone()))
    }

    /// Mark a run complete, blocking until the completion has flowed
    /// through the worker pool (so it is ordered after every previously
    /// enqueued event of the run); its labels stay queryable.
    pub fn complete_run(&self, run: RunId) -> Result<(), ServiceError> {
        self.submit_op(run, RunOp::Complete)
    }

    fn submit_op(&self, run: RunId, op: RunOp) -> Result<(), ServiceError> {
        if self.shared.draining.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let slot = self.shared.slot(run)?;
        let tracker = Arc::new(BatchTracker::new(1));
        self.enqueue(Envelope {
            run,
            slot,
            op,
            tracker: Some(Arc::clone(&tracker)),
            span: SpanCtx::NONE,
        })?;
        let outcome = tracker.wait();
        match outcome.failures.into_iter().next() {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Apply a batch of events through the worker pool, **blocking**
    /// until every event has been applied: **per-run order is
    /// preserved** (a run's events land on one worker queue in batch
    /// order) while **distinct runs ingest in parallel** across the
    /// pool. Failures are per-run: one run's fatal event skips that
    /// run's remaining ops in the batch but never blocks the others,
    /// and the failed run keeps serving queries over already-published
    /// labels.
    pub fn submit_batch(&self, events: &[ServiceEvent]) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        if self.shared.draining.load(Ordering::Acquire) {
            outcome.failures = events
                .iter()
                .map(|ev| (ev.run, ServiceError::ShuttingDown))
                .collect();
            return outcome;
        }
        // Resolve each event's slot up front: one failure per unknown
        // run, whose ops are skipped wholesale (v1 semantics).
        let mut unknown: HashSet<u64> = HashSet::new();
        let mut resolved: Vec<Envelope<S>> = Vec::with_capacity(events.len());
        let mut slots: HashMap<u64, Arc<RunSlot<S>>> = HashMap::new();
        for ev in events {
            if unknown.contains(&ev.run.0) {
                continue;
            }
            let slot = match slots.get(&ev.run.0) {
                Some(s) => Arc::clone(s),
                None => match self.shared.slot(ev.run) {
                    Ok(s) => {
                        slots.insert(ev.run.0, Arc::clone(&s));
                        s
                    }
                    Err(e) => {
                        unknown.insert(ev.run.0);
                        outcome.failures.push((ev.run, e));
                        continue;
                    }
                },
            };
            resolved.push(Envelope {
                run: ev.run,
                slot,
                op: ev.op.clone(),
                tracker: None,
                span: SpanCtx::NONE,
            });
        }
        let tracker = Arc::new(BatchTracker::new(resolved.len()));
        for mut env in resolved {
            env.tracker = Some(Arc::clone(&tracker));
            let run = env.run;
            if let Err(e) = self.enqueue(env) {
                tracker.cancel_one();
                outcome.failures.push((run, e));
            }
        }
        let pooled = tracker.wait();
        outcome.applied = pooled.applied;
        outcome.failures.extend(pooled.failures);
        self.shared.obs.batches_ingested.inc();
        outcome
    }

    /// **Watermark barrier**: block until every event enqueued before
    /// this call has been applied (or rejected) by the worker pool.
    /// Returns the processed watermark — always ≥ the number of events
    /// enqueued before the call.
    pub fn flush(&self) -> u64 {
        let obs = &self.shared.obs;
        obs.flushes.inc();
        let span = obs.timer();
        let target = self.shared.enqueued.load(Ordering::Acquire);
        let watermark = self.shared.wait_processed(target);
        // Durability barrier: every event applied below the watermark was
        // appended to the WAL *before* it was applied (write-ahead order),
        // so one group-commit fsync here makes the whole prefix durable.
        self.shared.wal_barrier();
        obs.span(
            &obs.h_flush_wait,
            "flush_barrier",
            None,
            None,
            span,
            false,
            || format!("watermark={watermark}"),
        );
        watermark
    }

    /// **Graceful shutdown of the ingest pool**: stop accepting events,
    /// let the workers finish everything already queued, and join them.
    /// Queries — per-run handles and the cross-run surface — keep
    /// working after a drain; only ingest is closed
    /// ([`ServiceError::ShuttingDown`]). Dropping the engine drains
    /// implicitly.
    pub fn drain(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        self.pool.shutdown();
        // The workers are gone, so the WAL has seen its last event
        // append: force the tail to disk before reporting drained.
        self.shared.wal_barrier();
        self.shared.tiering.stop();
        // One final policy pass on this thread, after the ingest pool
        // and the worker have both stopped: runs completed by the
        // draining workers deterministically tier out (the worker's own
        // last pass can race the stop flag); queries keep working after.
        self.shared.apply_tier_policy();
    }

    /// True once [`Self::drain`] has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Drain and return the failures recorded by the fire-and-forget
    /// ingest path since the last call (bounded ring; oldest dropped
    /// first).
    pub fn take_ingest_errors(&self) -> Vec<(RunId, ServiceError)> {
        self.shared
            .ingest_errors
            .lock()
            .expect("error ring poisoned")
            .drain(..)
            .collect()
    }

    /// Drop a run's state entirely (registry eviction, from whichever
    /// tier holds it). Outstanding [`RunHandle`]s keep their
    /// reference-counted state alive until dropped and may continue
    /// *querying* published labels, but writes through them — and events
    /// already queued in the pool — are rejected with
    /// [`RunStatus::Evicted`]: an eviction must not let anything keep
    /// ingesting into state no new lookup can reach. New lookups fail
    /// with [`ServiceError::UnknownRun`]. Evicting a persisted run
    /// forgets the registration; its blob stays on disk until the next
    /// manifest rewrite drops it and a compaction or GC pass reclaims
    /// the bytes.
    pub fn evict_run(&self, run: RunId) -> Result<(), ServiceError> {
        let view = self
            .shared
            .store
            .remove(run)
            .ok_or(ServiceError::UnknownRun(run))?;
        if let RunView::Hot(slot) = &view {
            // Serialize with any in-flight insert (writer lock).
            let _w = slot.writer.lock().expect("writer lock poisoned");
            slot.status
                .store(RunStatus::Evicted.as_u8(), Ordering::Release);
        }
        if view.tier() != Tier::Persisted {
            // A hot or frozen run's open/event records are still in the
            // log (only persisting checkpoints them): checkpoint them
            // now, or the next `build()` would replay the evicted run
            // back into the hot tier.
            self.shared.checkpoint_wal(run);
        }
        Ok(())
    }

    /// **Freeze** a completed run now: compact its published labels into
    /// a contiguous encoded arena (decode-on-read), re-label with the
    /// static SKL baseline when a derivation was
    /// [provided](Self::provide_derivation) (recording the DRL-vs-SKL
    /// bit/latency delta in [`Self::stats`]), and drop the hot labeler
    /// state. Queries — [`Self::reach`], handles, [`Self::query`] — keep
    /// answering tier-transparently. No-op if the run is already frozen
    /// or persisted; [`ServiceError::NotCompleted`] while it is live.
    pub fn freeze_run(&self, run: RunId) -> Result<(), ServiceError> {
        self.shared.freeze(run)
    }

    /// **Spill** a run's frozen arena to disk (freezing it first if
    /// needed): write it as a pack of one plus the manifest under the
    /// configured [`EngineBuilder::spill_dir`], and replace the
    /// in-memory arena with a lazily-mapped persisted entry. Requires a
    /// spill directory ([`ServiceError::NoSpillDir`] otherwise).
    pub fn persist_run(&self, run: RunId) -> Result<(), ServiceError> {
        self.shared.persist(run)
    }

    /// **Re-heat** a persisted run: copy its arena back into memory
    /// and promote it to the frozen (resident) tier, so subsequent
    /// queries never touch disk and the LRU cannot shed it. The inverse
    /// of [`Self::persist_run`]: the run leaves the persisted registry,
    /// its blob turns dead (reclaimed by [`Self::gc_packs`]), and
    /// persisting it again writes a fresh pack. No-op if the run is
    /// already hot or frozen. The tiering worker does this
    /// automatically for runs whose query count crosses
    /// [`EngineBuilder::reheat_after`].
    pub fn reheat_run(&self, run: RunId) -> Result<(), ServiceError> {
        self.shared.reheat(run, Tier::Frozen)
    }

    /// **Compact** the persisted tier now: merge underfull pack files —
    /// every spill writes a pack of one — into full multi-run packs with
    /// an atomic, crash-safe manifest rewrite, cutting the spill
    /// directory's file count — the difference between 10⁵ files and a
    /// few hundred at fleet scale. A handle taken before a compaction
    /// keeps answering — a replaced file someone still holds is mapped
    /// before its unlink, and the mapping outlives it. The tiering
    /// worker runs this automatically once
    /// [`EngineBuilder::compact_after`] underfull files accumulate.
    pub fn compact(&self) -> Result<CompactionReport, ServiceError> {
        let spill = self.shared.spill.as_ref().ok_or(ServiceError::NoSpillDir)?;
        spill.compact(&self.shared.store)
    }

    /// **Garbage-collect packs** now: rewrite every pack whose
    /// dead-blob ratio (bytes of re-heated/evicted runs over file size)
    /// exceeds [`EngineBuilder::pack_gc_dead_ratio`] (or
    /// [`DEFAULT_PACK_GC_DEAD_RATIO`]), shrinking the spill directory.
    /// In-flight cross-run scans keep reading the pre-rewrite packs —
    /// the epoch registry defers each unlink past every scan that
    /// started before the rewrite. The tiering worker runs this
    /// automatically when [`EngineBuilder::pack_gc_dead_ratio`] is set.
    pub fn gc_packs(&self) -> Result<PackGcReport, ServiceError> {
        let spill = self.shared.spill.as_ref().ok_or(ServiceError::NoSpillDir)?;
        spill.gc_packs(&self.shared.store)
    }

    /// **Re-heat a persisted run all the way to the hot tier**: rebuild
    /// its decoded [`LabelIndex`] straight from the segment bytes
    /// (zero-copy off the pack mapping) and promote it to hot, where a
    /// label lookup is two `Acquire` loads. The run stays `Completed` —
    /// writes remain rejected — but its pack bytes turn dead, which is
    /// what feeds [`Self::gc_packs`]. No-op for hot/frozen runs.
    pub fn reheat_run_hot(&self, run: RunId) -> Result<(), ServiceError> {
        self.shared.reheat(run, Tier::Hot)
    }

    /// Which storage tier currently serves `run`.
    pub fn run_tier(&self, run: RunId) -> Result<Tier, ServiceError> {
        self.shared.view(run).map(|v| v.tier())
    }

    /// Record the derivation that produced `run` (e.g. from the workflow
    /// engine's log). Freezing uses it to re-label the finished run with
    /// the static SKL baseline for the §7.4 memory/latency comparison;
    /// without it the run still freezes, just without the SKL report.
    /// Only hot runs accept a derivation.
    pub fn provide_derivation(
        &self,
        run: RunId,
        derivation: Derivation,
    ) -> Result<(), ServiceError> {
        let slot = self.shared.slot(run)?;
        *slot.derivation.lock().expect("derivation lock poisoned") = Some(derivation);
        Ok(())
    }

    /// The configured spill directory, if any.
    pub fn spill_dir(&self) -> Option<&Path> {
        self.shared.spill.as_ref().map(SpillDir::dir)
    }

    /// The configured write-ahead log directory, if any. `None` also
    /// when a [`EngineBuilder::wal_dir`] was set but the log could not
    /// be opened at build time (the engine degrades to non-durable).
    pub fn wal_dir(&self) -> Option<&Path> {
        self.shared.wal.as_ref().map(wf_wal::WalWriter::dir)
    }

    /// Constant-time reachability `u ; v` within `run`, lock-free
    /// against concurrent ingestion. `Ok(None)` means at least one of
    /// the two vertices has not been labeled yet (its event is still in
    /// flight); because labels and pairwise answers are immutable once
    /// published, any `Some` answer remains valid forever.
    pub fn reach(
        &self,
        run: RunId,
        u: VertexId,
        v: VertexId,
    ) -> Result<Option<bool>, ServiceError> {
        Ok(self.handle(run)?.reach(u, v))
    }

    /// The published label of `v`, if any (decoded from the run's
    /// current tier).
    pub fn label(&self, run: RunId, v: VertexId) -> Result<Option<wf_drl::DrlLabel>, ServiceError> {
        Ok(self.handle(run)?.label(v))
    }

    /// A cloneable, lifetime-free handle for hot paths on one run:
    /// resolves the run's **tier view** once ([`crate::Tier`]); every
    /// query on the handle is lock-free, and the handle stays valid (for
    /// queries) even after the run is evicted, tiered out, or the engine
    /// drained. A handle is pinned to the tier it was taken from — take
    /// a fresh handle after a freeze to query the compact
    /// representation.
    pub fn handle(&self, run: RunId) -> Result<RunHandle<S>, ServiceError> {
        let view = self.shared.view(run)?;
        let ctx = Arc::clone(&self.shared.catalog[view.spec().0]);
        Ok(RunHandle::new(Arc::clone(&self.shared), ctx, run, view))
    }

    /// The cross-run query surface: lineage questions over *several*
    /// runs, answered lock-free from published label chunks. See
    /// [`CrossRunQuery`].
    pub fn query(&self) -> CrossRunQuery<'_, S> {
        CrossRunQuery::new(&self.shared)
    }

    /// Register a **standing query**: the same lineage predicates as
    /// [`Self::query`], maintained incrementally instead of rescanned.
    /// The returned [`Subscription`] first receives `Added` deltas for
    /// every existing match (the catch-up scan), then live deltas as
    /// ingest publishes labels, runs complete, and the tiering worker
    /// moves runs between tiers. See [`crate::SubPredicate`] for scoping
    /// and [`crate::Delta`] for the event vocabulary.
    pub fn subscribe(&self, predicate: SubPredicate) -> Subscription {
        self.shared.store.subscribe(predicate)
    }

    /// Status of a run (tier-transparent: frozen and persisted runs are
    /// `Completed`).
    pub fn run_status(&self, run: RunId) -> Result<RunStatus, ServiceError> {
        self.shared.view(run).map(|v| v.status())
    }

    /// Point-in-time engine statistics, including the per-tier byte
    /// footprints. Per-run quantities (labels, label bits, queries) are
    /// summed over *registered* runs — evicting a run removes its
    /// contribution; freezing a run moves it from the hot columns to the
    /// frozen ones.
    pub fn stats(&self) -> ServiceStats {
        self.stats_at(true)
    }

    /// `stats()` without advancing the windowed-rate snapshot — used by
    /// the metrics exporter so rendering never perturbs the window an
    /// application is watching.
    pub(crate) fn stats_peek(&self) -> ServiceStats {
        self.stats_at(false)
    }

    fn stats_at(&self, advance_window: bool) -> ServiceStats {
        let mut labels_published = 0u64;
        let mut labels_hot = 0u64;
        let mut hot_label_bits = 0u64;
        let mut hot_resident_bytes = 0u64;
        let mut queries_answered = 0u64;
        let mut live = 0u64;
        let mut frozen_bytes = 0u64;
        let mut frozen_label_bits = 0u64;
        let mut persisted_bytes = 0u64;
        let mut persisted: Vec<Arc<PersistedRun>> = Vec::new();
        let store = &self.shared.store;
        store.for_each(|_, view| {
            labels_published += view.published() as u64;
            queries_answered += view.queries().load(Ordering::Relaxed);
            match view {
                RunView::Hot(slot) => {
                    labels_hot += slot.indexed.len() as u64;
                    hot_label_bits += slot.indexed.total_bits();
                    hot_resident_bytes += slot.indexed.resident_bytes();
                    if slot.status() == RunStatus::Live {
                        live += 1;
                    }
                }
                RunView::Frozen(f) => {
                    frozen_bytes += f.footprint_bytes() as u64;
                    frozen_label_bits += f.drl_bits();
                }
                RunView::Persisted(p) => {
                    persisted_bytes += p.disk_bytes();
                    persisted.push(Arc::clone(p));
                }
            }
        });
        let pack_files = file_stats(&persisted);
        let obs = &self.shared.obs;
        let enqueued = self.shared.enqueued.load(Ordering::Acquire);
        let processed = self.shared.processed.load(Ordering::Acquire);
        let (window_events, window) = if advance_window {
            obs.advance_window()
        } else {
            obs.peek_window()
        };
        ServiceStats {
            runs_opened: obs.runs_opened.get(),
            runs_live: live,
            runs_completed: obs.runs_completed.get(),
            runs_failed: obs.runs_failed.get(),
            events_enqueued: enqueued,
            events_ingested: obs.events_ingested.get(),
            ingest_backlog: enqueued.saturating_sub(processed),
            batches_ingested: obs.batches_ingested.get(),
            flushes: obs.flushes.get(),
            ingest_workers: self.shared.ingest_workers as u64,
            queries_answered,
            labels_published,
            labels_hot,
            label_bits_total: hot_label_bits,
            hot_resident_bytes,
            runs_hot: store.tier_count(Tier::Hot) as u64,
            runs_frozen: store.tier_count(Tier::Frozen) as u64,
            runs_persisted: store.tier_count(Tier::Persisted) as u64,
            freezes: obs.freezes.get(),
            spills: obs.spills.get(),
            reheats: obs.reheats.get(),
            compactions: obs.compactions.get(),
            frozen_bytes,
            frozen_label_bits,
            persisted_bytes,
            persisted_resident_bytes: store.lru.resident_bytes(),
            segment_files: pack_files.len() as u64,
            segment_loads: 0,
            segment_sheds: obs.segment_sheds.get(),
            pack_pins: obs.pack_pins.get(),
            pack_gc_runs: obs.pack_gc_runs.get(),
            pack_dead_bytes: pack_files.iter().map(FileStat::dead).sum(),
            mapped_bytes: store.lru.mapped_bytes.load(Ordering::Relaxed),
            skl_relabeled: obs.skl_relabeled.get(),
            skl_bits_total: obs.skl_bits_total.get(),
            skl_drl_bits_total: obs.skl_drl_bits_total.get(),
            skl_build_ns: obs.skl_build_ns_total.get(),
            skl_query_ns: obs.skl_query_ns_total.get(),
            frozen_query_ns: obs.frozen_query_ns_total.get(),
            skl_pairs_sampled: obs.skl_pairs_sampled.get(),
            wal_records: obs.wal_records.get(),
            wal_bytes: obs.wal_bytes.get(),
            wal_truncations: obs.wal_truncations.get(),
            wal_recovered_runs: obs.wal_recovered_runs.get(),
            wal_recovered_records: obs.wal_recovered_records.get(),
            window_events,
            window,
            uptime: obs.started.elapsed(),
        }
    }

    /// The metrics export surface: Prometheus text exposition and a JSON
    /// snapshot, both rendered from the live registry (gauges are
    /// refreshed from a stats snapshot at render time).
    pub fn metrics(&self) -> EngineMetrics<'_, S> {
        EngineMetrics { engine: self }
    }

    /// Copy of the structured trace ring, oldest event first: lifecycle
    /// transitions (freeze, spill, shed, re-heat, compaction) plus any
    /// span that exceeded [`EngineBuilder::slow_op_threshold`].
    pub fn trace_dump(&self) -> Vec<wf_obs::TraceEvent> {
        self.shared.obs.trace.dump()
    }

    /// Events overwritten out of the bounded trace ring since start.
    pub fn trace_dropped(&self) -> u64 {
        self.shared.obs.trace.dropped()
    }

    /// The trace ring rendered as Chrome `trace_event` JSON — load the
    /// string in `chrome://tracing` or Perfetto to see causally linked
    /// spans (one row per trace) on a shared timeline.
    pub fn trace_chrome(&self) -> String {
        wf_obs::chrome_trace_json(&self.shared.obs.trace.dump())
    }

    /// The stall watchdog's latest verdict (see
    /// [`EngineBuilder::watchdog`]); always [`Health::Healthy`] when no
    /// watchdog is configured. Suitable for a readiness probe: `Stalled`
    /// means some pipeline watermark has not advanced for two
    /// consecutive intervals.
    pub fn health(&self) -> Health {
        self.shared
            .health
            .lock()
            .expect("health lock poisoned")
            .clone()
    }

    /// Fault injection for stall testing: pause (or resume) the WAL
    /// group-commit committer's sync passes. While paused, appends
    /// buffer without reaching disk, `flush()` blocks on its durability
    /// barrier, and the watchdog diagnoses `WalCommitLag`. No effect
    /// without a WAL or under a non-group-commit sync policy. Engine
    /// shutdown overrides the pause (drop still drains durably).
    pub fn pause_wal_committer(&self, paused: bool) {
        if let Some(wal) = &self.shared.wal {
            wal.set_committer_paused(paused);
        }
    }

    /// Nanoseconds the oldest buffered WAL append has waited for an
    /// fsync pass (0 when fully synced or without a WAL) — the flush
    /// lag the watchdog samples.
    pub fn wal_sync_lag_ns(&self) -> u64 {
        self.shared.wal.as_ref().map_or(0, WalWriter::sync_lag_ns)
    }
}

/// Borrowed export surface over the engine's metrics registry, obtained
/// from [`WfEngine::metrics`]. Rendering refreshes the tier gauges from
/// a fresh (non-window-advancing) stats snapshot first, so exported
/// gauges always reflect the moment of the scrape.
pub struct EngineMetrics<'e, S: SpecLabeling + Send + Sync + 'static = TclSpecLabels> {
    engine: &'e WfEngine<S>,
}

impl<S: SpecLabeling + Send + Sync + 'static> EngineMetrics<'_, S> {
    /// Walk the store once and push the point-in-time quantities into
    /// the registry gauges, so both render paths agree with `stats()`.
    fn refresh_gauges(&self) {
        let stats = self.engine.stats_peek();
        let obs = &self.engine.shared.obs;
        obs.g_runs_hot.set(stats.runs_hot);
        obs.g_runs_frozen.set(stats.runs_frozen);
        obs.g_runs_persisted.set(stats.runs_persisted);
        obs.g_ingest_backlog.set(stats.ingest_backlog);
        obs.g_hot_bytes.set(stats.hot_bytes());
        obs.g_persisted_resident_bytes
            .set(stats.persisted_resident_bytes);
        obs.g_segment_files.set(stats.segment_files);
        obs.g_pack_dead_bytes.set(stats.pack_dead_bytes);
        obs.g_mapped_bytes.set(stats.mapped_bytes);
        obs.g_subscriptions
            .set(self.engine.shared.store.subs.active() as u64);
    }

    /// Render the registry in Prometheus text exposition format
    /// (`# HELP` / `# TYPE` lines, cumulative histogram buckets).
    pub fn render_prometheus(&self) -> String {
        self.refresh_gauges();
        self.engine.shared.obs.registry.render_prometheus()
    }

    /// Render the registry as one JSON object
    /// (`{"counters":…,"gauges":…,"histograms":…}`).
    pub fn render_json(&self) -> String {
        self.refresh_gauges();
        self.engine.shared.obs.registry.render_json()
    }

    /// Snapshot one latency histogram by registry name (e.g.
    /// `"wf_ingest_apply_ns"`); `None` for unknown names.
    pub fn histogram(&self, name: &str) -> Option<wf_obs::HistogramSnapshot> {
        self.engine.shared.obs.registry.histogram_snapshot(name)
    }

    /// Registered histogram family names, in registration order.
    pub fn histogram_names(&self) -> Vec<String> {
        self.engine.shared.obs.registry.histogram_names()
    }
}

/// Configures and builds a [`WfEngine`] — every knob is fixed at
/// construction, which removes v1's `&mut self` post-construction
/// configuration footgun.
pub struct EngineBuilder<S: SpecLabeling + Send + Sync + 'static = TclSpecLabels> {
    contexts: Vec<Arc<SpecContext<S>>>,
    shards: usize,
    ingest_workers: usize,
    queue_capacity: usize,
    max_vertex_id: u32,
    policy: TierPolicy,
    spill_dir: Option<PathBuf>,
    wal_dir: Option<PathBuf>,
    wal_sync: WalSync,
    max_resident_bytes: Option<u64>,
    pack_gc_dead_ratio: Option<f64>,
    telemetry: bool,
    slow_op_threshold: std::time::Duration,
    trace_capacity: usize,
    reach_sample_shift: u32,
    watchdog: Option<std::time::Duration>,
    sub_queue_capacity: usize,
}

/// Default slow-op threshold: spans at or above this are promoted into
/// the trace ring even on otherwise-untracked fast paths.
pub const DEFAULT_SLOW_OP_THRESHOLD: std::time::Duration = std::time::Duration::from_millis(25);

/// Default bounded trace-ring capacity (events retained).
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

impl<S: SpecLabeling + Send + Sync + 'static> Default for EngineBuilder<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: SpecLabeling + Send + Sync + 'static> EngineBuilder<S> {
    /// A builder with default configuration and an empty catalog.
    pub fn new() -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(4);
        Self {
            contexts: Vec::new(),
            shards: 16,
            ingest_workers: parallelism.clamp(1, 8),
            queue_capacity: 1024,
            max_vertex_id: DEFAULT_MAX_VERTEX_ID,
            policy: TierPolicy::default(),
            spill_dir: None,
            wal_dir: None,
            wal_sync: WalSync::default(),
            max_resident_bytes: None,
            pack_gc_dead_ratio: None,
            telemetry: true,
            slow_op_threshold: DEFAULT_SLOW_OP_THRESHOLD,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            reach_sample_shift: DEFAULT_REACH_SAMPLE_SHIFT,
            watchdog: None,
            sub_queue_capacity: DEFAULT_SUB_QUEUE_CAPACITY,
        }
    }

    /// Add a specification to the catalog, building its skeleton labels
    /// (§5.1 preprocessing) here, once.
    pub fn spec(self, spec: Specification) -> Self {
        self.context(SpecContext::from_spec(spec))
    }

    /// Add a prebuilt catalog entry. Accepts `SpecContext` or
    /// `Arc<SpecContext>` — pass the `Arc` to share one preprocessed
    /// spec across several engines (benchmarks do this).
    pub fn context(mut self, ctx: impl Into<Arc<SpecContext<S>>>) -> Self {
        self.contexts.push(ctx.into());
        self
    }

    /// Registry shard count (rounded up to a power of two). More shards
    /// = less run-lookup contention at high run counts.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Number of persistent ingest workers. Each run is pinned to one
    /// worker (per-run order), so this bounds cross-run ingest
    /// parallelism.
    pub fn ingest_workers(mut self, n: usize) -> Self {
        self.ingest_workers = n.max(1);
        self
    }

    /// Bounded depth of each worker's event queue — the backpressure
    /// knob: enqueues block when the target worker is this far behind.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Per-run vertex-id ceiling (see [`DEFAULT_MAX_VERTEX_ID`]).
    pub fn max_vertex_id(mut self, max: u32) -> Self {
        self.max_vertex_id = max;
        self
    }

    /// **Recency bound of the hot tier**: keep at most `n` *completed*
    /// runs hot; older completions are frozen (encoded arena, optional
    /// SKL re-label) by the background tiering worker, in completion
    /// order. `0` freezes every run as soon as it completes.
    pub fn freeze_after(mut self, n: usize) -> Self {
        self.policy.freeze_after = Some(n);
        self
    }

    /// **Hard cap on hot-tier runs**: when the hot tier exceeds `n`
    /// runs, the tiering worker freezes the oldest completed runs even
    /// within the [`Self::freeze_after`] bound (live runs are never
    /// frozen).
    pub fn max_hot_runs(mut self, n: usize) -> Self {
        self.policy.max_hot_runs = Some(n);
        self
    }

    /// **Spill directory**: frozen runs are snapshotted here (versioned
    /// binary segments in pack files + manifest) and their in-memory
    /// arenas replaced by lazily-mapped persisted entries. At build time
    /// the segments its manifest lists are registered, so historical
    /// runs from previous engine lifetimes keep answering
    /// [`WfEngine::query`] — with the **same catalog** (spec ids must mean the same thing
    /// across lifetimes; segments naming unknown specs are skipped).
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// **Write-ahead log directory**: every ingest operation — run open,
    /// event, completion — is journaled here *before* it is applied, in
    /// one append-only shard file per ingest worker. At build time the
    /// directory is scanned and surviving runs are replayed back into
    /// the hot tier (crash recovery); a torn tail — the partial record
    /// of an append that was cut mid-write — is truncated away, keeping
    /// the valid prefix. Runs already persisted to the
    /// [spill directory](Self::spill_dir) are not replayed (their WAL
    /// history was checkpoint-truncated). Unset = no durability for hot
    /// runs (pre-WAL behavior).
    pub fn wal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// **WAL sync policy** (default [`WalSync::GroupCommit`] with a 2ms
    /// window): when appends reach stable storage. `Always` fsyncs every
    /// append (strongest, slowest); `GroupCommit` batches fsyncs on a
    /// dedicated committer thread — [`WfEngine::flush`] doubles as the
    /// durability barrier; `Never` leaves durability to the OS page
    /// cache. No effect without [`Self::wal_dir`].
    pub fn wal_sync(mut self, policy: WalSync) -> Self {
        self.wal_sync = policy;
        self
    }

    /// **Resident-byte budget of the persisted tier**: pinned-in
    /// segment blobs are tracked by a size/age LRU, and once their total
    /// exceeds `n` bytes the least-recently-queried blobs are shed back
    /// to cold (oldest freeze time breaking ties) by `madvise`. Unset =
    /// blobs stay resident once pinned in.
    pub fn max_resident_bytes(mut self, n: u64) -> Self {
        self.max_resident_bytes = Some(n);
        self
    }

    /// **Automatic re-heat threshold**: the tiering worker promotes a
    /// persisted run back to the frozen (resident) tier once it has
    /// answered `n` queries since it was persisted — query traffic
    /// turns a cold run resident again. Unset = manual
    /// [`WfEngine::reheat_run`] / [`WfEngine::reheat_run_hot`] only.
    pub fn reheat_after(mut self, n: u64) -> Self {
        self.policy.reheat_after = Some(n);
        self
    }

    /// **Automatic compaction threshold**: the tiering worker merges
    /// underfull pack files into full ones once `n` of them accumulate
    /// (minimum 2). Unset = manual [`WfEngine::compact`]
    /// only.
    pub fn compact_after(mut self, n: usize) -> Self {
        self.policy.compact_after = Some(n);
        self
    }

    /// **Automatic pack-GC threshold**: the tiering worker rewrites any
    /// pack whose dead-blob ratio (bytes of re-heated/evicted runs over
    /// file size) exceeds `ratio` (clamped to `[0, 1]`). Unset = manual
    /// [`WfEngine::gc_packs`] only, which then uses
    /// [`DEFAULT_PACK_GC_DEAD_RATIO`].
    pub fn pack_gc_dead_ratio(mut self, ratio: f64) -> Self {
        self.pack_gc_dead_ratio = Some(ratio.clamp(0.0, 1.0));
        self.policy.pack_gc = true;
        self
    }

    /// **Telemetry toggle** (default on): when off, span timing,
    /// histograms, and trace recording are skipped — only the plain
    /// lifetime counters behind [`WfEngine::stats`] keep running. The
    /// tiering bench uses this to measure instrumentation overhead.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// **Slow-op threshold** (default 25ms): any timed span — ingest
    /// apply, flush barrier, first pack pin, cross-run scan — whose
    /// duration reaches this is promoted into the trace ring, so outliers
    /// are visible in [`WfEngine::trace_dump`] without tracing every
    /// operation. `Duration::ZERO` traces every timed span.
    pub fn slow_op_threshold(mut self, threshold: std::time::Duration) -> Self {
        self.slow_op_threshold = threshold;
        self
    }

    /// **Trace ring capacity** (default 1024): how many structured
    /// events [`WfEngine::trace_dump`] retains; the oldest are
    /// overwritten first.
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.trace_capacity = events;
        self
    }

    /// **Reach-latency sampling rate** (default shift 6 = 1 in 64): a
    /// reach probe is timed when a per-thread counter hits `0 mod
    /// 2^shift`. Lower shifts trade probe throughput for histogram
    /// fidelity; the effective 1-in-N interval is exported as the
    /// `wf_reach_sample_interval` gauge so dashboards can rescale p99s.
    pub fn reach_sample_shift(mut self, shift: u32) -> Self {
        self.reach_sample_shift = shift;
        self
    }

    /// **Stall watchdog** (default off): spawn a monitor thread that
    /// samples every subsystem's progress watermark each `interval` —
    /// per-worker queue depth vs applied count, WAL committer flush lag,
    /// tiering backlog, LRU shed-thrash rate. Violations are promoted
    /// into the trace ring as `stall` events and escalate
    /// [`WfEngine::health`] to `Degraded` after one violating interval
    /// and `Stalled` after two consecutive ones.
    pub fn watchdog(mut self, interval: std::time::Duration) -> Self {
        self.watchdog = Some(interval.max(std::time::Duration::from_millis(1)));
        self
    }

    /// **Subscription queue bound** (default
    /// [`DEFAULT_SUB_QUEUE_CAPACITY`]): how many deltas each standing
    /// query buffers before overflowing drop-oldest (the consumer then
    /// receives a [`crate::Delta::Lagged`] with the exact drop count).
    pub fn sub_queue_capacity(mut self, n: usize) -> Self {
        self.sub_queue_capacity = n.max(1);
        self
    }

    /// Build the engine and start its ingest worker pool (and the
    /// background tiering worker, when a tiering policy is configured).
    pub fn build(self) -> WfEngine<S> {
        let obs = Arc::new(Telemetry::new(TelemetryConfig {
            enabled: self.telemetry,
            slow_op_ns: u64::try_from(self.slow_op_threshold.as_nanos()).unwrap_or(u64::MAX),
            trace_capacity: self.trace_capacity,
            reach_sample_shift: self.reach_sample_shift,
        }));
        // Reload persisted history from the spill directory's manifest:
        // header-only reads; files map lazily at first query.
        let lru = Arc::new(SegmentLru::new(self.max_resident_bytes, Arc::clone(&obs)));
        let (spill, persisted) = self
            .spill_dir
            .map(|dir| SpillDir::open(dir, self.pack_gc_dead_ratio, &lru, self.contexts.len()))
            .unzip();
        let persisted = persisted.unwrap_or_default();
        let mut first_run = persisted.iter().map(|p| p.run().0 + 1).max().unwrap_or(0);
        // Scan the WAL directory: decode surviving runs for replay, then
        // rewrite the log so it holds exactly what the rebuilt engine
        // holds hot (checkpointed history dropped, records re-homed if
        // the worker count changed). Failures degrade — the engine comes
        // up without a WAL rather than not at all — and are traced.
        let mut wal: Option<WalWriter> = None;
        let mut replay: Vec<ReplayRun> = Vec::new();
        if let Some(dir) = &self.wal_dir {
            let recovered = match wf_wal::recover(dir) {
                Ok(r) => Some(r),
                Err(e) => {
                    obs.event("wal_recover_failed", None, None, || e.to_string());
                    None
                }
            };
            if let Some(rec) = recovered {
                for t in &rec.torn {
                    obs.event("wal_torn_tail", None, None, || {
                        format!("file={} valid_bytes={} {}", t.file, t.valid_bytes, t.detail)
                    });
                }
                // Never reuse a run id the log has seen, even for runs
                // the scan skips below.
                for r in &rec.runs {
                    first_run = first_run.max(r.run + 1);
                }
                let persisted_ids: std::collections::HashSet<u64> =
                    persisted.iter().map(|p| p.run().0).collect();
                let mut survivors: Vec<Record> = Vec::new();
                for r in &rec.runs {
                    // Checkpointed runs are durable in their segment;
                    // runs in the manifest likewise (belt and braces —
                    // a crash between segment write and checkpoint
                    // stamp leaves the manifest authoritative).
                    if r.checkpointed || persisted_ids.contains(&r.run) {
                        continue;
                    }
                    // A replayable run starts with a parseable RunOpen
                    // naming a spec this catalog has; anything else is
                    // an orphaned tail (e.g. its RunOpen sat in a torn
                    // region) and is dropped, not guessed at.
                    let Some((first, rest)) = r.records.split_first() else {
                        continue;
                    };
                    if first.kind != RecordKind::RunOpen || first.seq != 0 {
                        continue;
                    }
                    let Some((spec, resolution)) = parse_run_open(&first.payload) else {
                        continue;
                    };
                    if spec.0 >= self.contexts.len() {
                        continue;
                    }
                    let mut events = Vec::new();
                    let mut completed = false;
                    let mut ok = true;
                    for rr in rest {
                        match rr.kind {
                            RecordKind::Event => match wf_drl::encode::read_event(&rr.payload) {
                                Some(ev) => events.push(ev),
                                None => {
                                    ok = false;
                                    break;
                                }
                            },
                            RecordKind::Complete => completed = true,
                            RecordKind::RunOpen | RecordKind::Checkpoint => {}
                        }
                    }
                    if !ok {
                        obs.event("wal_skip_run", Some(r.run), None, || {
                            "undecodable event payload".into()
                        });
                        continue;
                    }
                    survivors.extend(r.records.iter().cloned());
                    replay.push(ReplayRun {
                        run: RunId(r.run),
                        spec,
                        resolution,
                        events,
                        completed,
                        max_seq: r.max_seq,
                    });
                }
                let workers = self.ingest_workers;
                match WalWriter::reset(
                    dir,
                    self.ingest_workers,
                    self.wal_sync,
                    Box::new(WalTelemetry(Arc::clone(&obs))),
                    &survivors,
                    |run| route_worker(RunId(run), workers),
                ) {
                    Ok(w) => wal = Some(w),
                    Err(e) => {
                        obs.event("wal_reset_failed", None, None, || e.to_string());
                        replay.clear();
                    }
                }
                obs.event("wal_recover", None, None, || {
                    format!(
                        "files={} bytes={} records={} runs_replayed={} torn={}",
                        rec.files,
                        rec.bytes,
                        rec.records,
                        replay.len(),
                        rec.torn.len()
                    )
                });
            }
        }
        // Replay the §7.4 aggregates out of the segment headers so a
        // reloaded engine reports the same DRL-vs-SKL deltas its
        // predecessor measured at freeze time.
        for p in &persisted {
            if let Some(r) = p.skl_report() {
                obs.record_skl(r);
            }
        }
        let catalog: Box<[Arc<SpecContext<S>>]> = self.contexts.into_boxed_slice();
        let subs = SubHub::new(catalog.clone(), Arc::clone(&obs), self.sub_queue_capacity);
        let shared = Arc::new(EngineShared {
            catalog,
            store: LabelStore::new(self.shards, persisted, lru, subs),
            max_vertex_id: self.max_vertex_id,
            next_run: AtomicU64::new(first_run),
            obs,
            ingest_workers: self.ingest_workers,
            enqueued: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            flush_waiters: AtomicUsize::new(0),
            flush_lock: Mutex::new(()),
            flush_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            ingest_errors: Mutex::new(VecDeque::new()),
            tiering: Tiering::new(self.policy),
            spill,
            wal,
            worker_marks: (0..self.ingest_workers.max(1))
                .map(|_| WorkerMark {
                    enqueued: AtomicU64::new(0),
                    applied: AtomicU64::new(0),
                })
                .collect(),
            health: Mutex::new(Health::Healthy),
            watchdog_stop: AtomicBool::new(false),
            watchdog_lock: Mutex::new(()),
            watchdog_cv: Condvar::new(),
        });
        // Replay recovered runs into the hot tier before the ingest pool
        // opens: applied directly (not via the logged_* write-ahead
        // path) — their records are already in the rewritten log, and
        // replaying must not re-append them.
        for r in replay {
            let ctx = &shared.catalog[r.spec.0];
            let slot = match new_slot(
                Arc::clone(ctx),
                r.spec,
                r.resolution,
                self.max_vertex_id,
                r.max_seq + 1,
            ) {
                Ok(slot) => slot,
                Err(e) => {
                    shared
                        .obs
                        .event("wal_skip_run", Some(r.run.0), None, || e.to_string());
                    continue;
                }
            };
            let records = 1 + r.events.len() as u64 + u64::from(r.completed);
            for ev in &r.events {
                let res = slot.apply_insert(r.run, ev);
                shared.record_insert_outcome(&res);
                if let Err(e) = res {
                    // The log held a prefix this lifetime cannot apply
                    // (e.g. a lowered vertex ceiling): keep what did
                    // apply, mark the run failed, and say why.
                    shared
                        .obs
                        .event("wal_replay_error", Some(r.run.0), None, || e.to_string());
                    slot.status
                        .store(RunStatus::Failed.as_u8(), Ordering::Release);
                    break;
                }
            }
            if r.completed && slot.status() == RunStatus::Live {
                let res = slot.complete(r.run);
                shared.record_complete_outcome(r.run, r.spec, &res);
            }
            shared.store.insert(r.run, RunView::Hot(slot));
            shared.obs.runs_opened.inc();
            shared.obs.wal_recovered_runs.inc();
            shared.obs.wal_recovered_records.add(records);
        }
        let pool = IngestPool::start(
            Arc::clone(&shared),
            self.ingest_workers,
            self.queue_capacity,
        );
        Tiering::spawn(&shared);
        let watchdog = self.watchdog.map(|interval| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wf-watchdog".into())
                .spawn(move || watchdog_loop(&shared, interval))
                .expect("spawn stall watchdog")
        });
        WfEngine {
            shared,
            pool,
            watchdog,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_run::{Execution, RunGenerator};

    fn engine() -> WfEngine {
        WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .spec(wf_spec::corpus::theorem1())
            .ingest_workers(2)
            .build()
    }

    fn sample(engine: &WfEngine, spec: SpecId, seed: u64, target: usize) -> Execution {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = RunGenerator::new(&engine.context(spec).unwrap().spec)
            .target_size(target)
            .generate_run(&mut rng);
        Execution::deterministic(&gen.graph, &gen.origin)
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let engine = engine();
        assert_eq!(
            engine.open_run(SpecId(9)).unwrap_err(),
            ServiceError::UnknownSpec(SpecId(9))
        );
        assert_eq!(
            engine
                .reach(RunId(3), VertexId(0), VertexId(1))
                .unwrap_err(),
            ServiceError::UnknownRun(RunId(3))
        );
        assert_eq!(
            engine
                .ingest(ServiceEvent {
                    run: RunId(3),
                    op: RunOp::Complete,
                })
                .unwrap_err(),
            ServiceError::UnknownRun(RunId(3))
        );
    }

    #[test]
    fn lifecycle_and_stats() {
        let engine = engine();
        let run = engine.open_run(SpecId(0)).unwrap();
        assert_eq!(engine.run_status(run).unwrap(), RunStatus::Live);

        let exec = sample(&engine, SpecId(0), 1, 50);
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        engine.complete_run(run).unwrap();
        assert_eq!(engine.run_status(run).unwrap(), RunStatus::Completed);
        // Completed runs reject further events but keep answering.
        assert!(matches!(
            engine.submit(run, &exec.events()[0]).unwrap_err(),
            ServiceError::RunNotLive(_, RunStatus::Completed)
        ));
        let s = engine.stats();
        assert_eq!(s.runs_opened, 1);
        assert_eq!(s.runs_completed, 1);
        assert_eq!(s.events_ingested as usize, exec.len());
        assert_eq!(s.labels_published as usize, exec.len());
        assert!(s.label_bits_total > 0);
        assert_eq!(s.ingest_backlog, 0, "blocking submits leave no backlog");
        assert_eq!(s.ingest_workers, 2);

        // Eviction removes the registry entry.
        engine.evict_run(run).unwrap();
        assert_eq!(
            engine.run_status(run).unwrap_err(),
            ServiceError::UnknownRun(run)
        );
    }

    #[test]
    fn batch_preserves_per_run_order_and_isolates_failures() {
        let engine = engine();
        let mut rng = StdRng::seed_from_u64(5);
        // Four healthy runs (two per spec) and one poisoned run whose
        // first event is invalid.
        let runs: Vec<RunId> = (0..4)
            .map(|i| engine.open_run(SpecId(i % 2)).unwrap())
            .collect();
        let poisoned = engine.open_run(SpecId(0)).unwrap();

        let mut batch = Vec::new();
        let mut execs = Vec::new();
        for (i, &run) in runs.iter().enumerate() {
            let spec = SpecId(i % 2);
            let gen = RunGenerator::new(&engine.context(spec).unwrap().spec)
                .target_size(80)
                .generate_run(&mut rng);
            let exec = Execution::random(&gen.graph, &gen.origin, &mut rng);
            for ev in exec.events() {
                batch.push(ServiceEvent {
                    run,
                    op: RunOp::Insert(ev.clone()),
                });
            }
            batch.push(ServiceEvent {
                run,
                op: RunOp::Complete,
            });
            execs.push((run, gen, exec));
        }
        // The poisoned run starts with a non-source event.
        batch.push(ServiceEvent {
            run: poisoned,
            op: RunOp::Insert(execs[0].2.events()[1].clone()),
        });
        let outcome = engine.submit_batch(&batch);
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].0, poisoned);
        assert_eq!(engine.run_status(poisoned).unwrap(), RunStatus::Failed);

        // Every healthy run: fully applied, completed, and every pair
        // answers exactly like the ground-truth oracle.
        for (run, gen, exec) in &execs {
            assert_eq!(engine.run_status(*run).unwrap(), RunStatus::Completed);
            let h = engine.handle(*run).unwrap();
            assert_eq!(h.published(), exec.len());
            let oracle = wf_graph::reach::ReachOracle::new(&gen.graph);
            for a in gen.graph.vertices() {
                for b in gen.graph.vertices() {
                    assert_eq!(h.reach(a, b), Some(oracle.reaches(a, b)), "{a:?};{b:?}");
                }
            }
        }
        let s = engine.stats();
        assert_eq!(s.runs_failed, 1);
        assert_eq!(s.runs_completed, 4);
        assert!(s.queries_answered > 0);
    }

    #[test]
    fn absurd_vertex_ids_are_rejected_before_allocation() {
        let engine = engine();
        let run = engine.open_run(SpecId(0)).unwrap();
        let exec = sample(&engine, SpecId(0), 13, 30);
        // A forged event with a near-u32::MAX id must bounce with a
        // typed error instead of sizing tables to the id.
        let mut forged = exec.events()[0].clone();
        forged.vertex = VertexId(u32::MAX - 1);
        assert_eq!(
            engine.submit(run, &forged).unwrap_err(),
            ServiceError::VertexOutOfBounds(run, forged.vertex)
        );
        // The run is unharmed: the real stream still applies.
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        assert_eq!(engine.handle(run).unwrap().published(), exec.len());
    }

    #[test]
    fn batch_survives_per_event_rejections() {
        let engine = engine();
        let run = engine.open_run(SpecId(0)).unwrap();
        let exec = sample(&engine, SpecId(0), 17, 40);
        // Forge an out-of-bounds event into the middle of an otherwise
        // healthy single-run batch ending in Complete.
        let mut forged = exec.events()[1].clone();
        forged.vertex = VertexId(u32::MAX - 7);
        let mut batch: Vec<ServiceEvent> = Vec::new();
        for (i, ev) in exec.events().iter().enumerate() {
            if i == exec.len() / 2 {
                batch.push(ServiceEvent {
                    run,
                    op: RunOp::Insert(forged.clone()),
                });
            }
            batch.push(ServiceEvent {
                run,
                op: RunOp::Insert(ev.clone()),
            });
        }
        batch.push(ServiceEvent {
            run,
            op: RunOp::Complete,
        });
        let outcome = engine.submit_batch(&batch);
        // The rejection is reported, but the rest of the run — including
        // its Complete — still lands.
        assert_eq!(
            outcome.failures,
            vec![(run, ServiceError::VertexOutOfBounds(run, forged.vertex))]
        );
        assert_eq!(outcome.applied, exec.len());
        assert_eq!(engine.run_status(run).unwrap(), RunStatus::Completed);
        assert_eq!(engine.handle(run).unwrap().published(), exec.len());
    }

    #[test]
    fn handles_stay_valid_for_queries_but_reject_writes_after_eviction() {
        let engine = engine();
        let run = engine.open_run(SpecId(0)).unwrap();
        let exec = sample(&engine, SpecId(0), 11, 30);
        let handle = engine.handle(run).unwrap();
        for ev in &exec.events()[..exec.len() - 1] {
            handle.submit(ev).unwrap();
        }
        engine.evict_run(run).unwrap();
        // The Arc keeps the slot alive: queries still work…
        let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
        assert!(handle.reach(u, v).is_some());
        assert_eq!(handle.status(), RunStatus::Evicted);
        // …but writes through the stale handle are rejected — otherwise
        // they would ingest into state no new lookup can reach and skew
        // the engine counters forever.
        assert_eq!(
            handle.submit(&exec.events()[exec.len() - 1]).unwrap_err(),
            ServiceError::RunNotLive(run, RunStatus::Evicted)
        );
        assert_eq!(
            handle.complete().unwrap_err(),
            ServiceError::RunNotLive(run, RunStatus::Evicted)
        );
    }

    #[test]
    fn pipelined_ingest_flush_and_error_ring() {
        let engine = engine();
        let run = engine.open_run(SpecId(0)).unwrap();
        let exec = sample(&engine, SpecId(0), 23, 60);
        // Fire-and-forget the whole stream, plus one forged event whose
        // failure must surface through the error ring, not a panic.
        let mut forged = exec.events()[1].clone();
        forged.vertex = VertexId(u32::MAX - 3);
        for ev in exec.events() {
            engine
                .ingest(ServiceEvent {
                    run,
                    op: RunOp::Insert(ev.clone()),
                })
                .unwrap();
        }
        engine
            .ingest(ServiceEvent {
                run,
                op: RunOp::Insert(forged.clone()),
            })
            .unwrap();
        let watermark = engine.flush();
        assert!(
            watermark >= (exec.len() + 1) as u64,
            "flush watermark {watermark} covers everything enqueued before it"
        );
        assert_eq!(engine.handle(run).unwrap().published(), exec.len());
        assert_eq!(
            engine.take_ingest_errors(),
            vec![(run, ServiceError::VertexOutOfBounds(run, forged.vertex))]
        );
        assert!(engine.take_ingest_errors().is_empty(), "ring drains");
        let s = engine.stats();
        assert_eq!(s.ingest_backlog, 0);
        assert_eq!(s.flushes, 1);
    }

    #[test]
    fn drain_closes_ingest_but_not_queries() {
        let mut engine = engine();
        let run = engine.open_run(SpecId(0)).unwrap();
        let exec = sample(&engine, SpecId(0), 29, 40);
        for ev in exec.events() {
            engine
                .ingest(ServiceEvent {
                    run,
                    op: RunOp::Insert(ev.clone()),
                })
                .unwrap();
        }
        let handle = engine.handle(run).unwrap();
        engine.drain();
        assert!(engine.is_draining());
        // Everything queued before the drain was applied.
        assert_eq!(handle.published(), exec.len());
        // Ingest is closed, in every flavor…
        assert_eq!(
            engine
                .ingest(ServiceEvent {
                    run,
                    op: RunOp::Complete,
                })
                .unwrap_err(),
            ServiceError::ShuttingDown
        );
        assert_eq!(
            engine.submit(run, &exec.events()[0]).unwrap_err(),
            ServiceError::ShuttingDown
        );
        let outcome = engine.submit_batch(&[ServiceEvent {
            run,
            op: RunOp::Complete,
        }]);
        assert_eq!(outcome.failures, vec![(run, ServiceError::ShuttingDown)]);
        // …including the synchronous handle path.
        assert_eq!(
            handle.submit(&exec.events()[0]).unwrap_err(),
            ServiceError::ShuttingDown
        );
        assert_eq!(handle.complete().unwrap_err(), ServiceError::ShuttingDown);
        // …but queries — handle and cross-run — still answer.
        let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
        assert_eq!(handle.reach(u, v), Some(true));
        assert_eq!(engine.query().run_ids(), vec![run]);
        // flush() on a drained engine returns immediately.
        assert_eq!(engine.flush(), exec.len() as u64);
    }

    /// A temp dir that cleans up after itself (no tempfile crate in the
    /// offline workspace).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "wf-tier-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Ingest a full sampled run and complete it; returns the execution.
    fn ingest_run(engine: &WfEngine, run: RunId, spec: SpecId, seed: u64, n: usize) -> Execution {
        let exec = sample(engine, spec, seed, n);
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        engine.complete_run(run).unwrap();
        exec
    }

    #[test]
    fn freeze_preserves_every_answer_and_shrinks_the_footprint() {
        // A non-recursive spec so the freeze-time SKL re-label applies
        // (SKL rejects recursion — that is DRL's whole edge).
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::bioaid_nonrecursive())
            .ingest_workers(2)
            .build();
        let run = engine.open_run(SpecId(0)).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let gen = RunGenerator::new(&engine.context(SpecId(0)).unwrap().spec)
            .target_size(120)
            .generate_run(&mut rng);
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        // Freezing a live run is refused — the labeler is still needed.
        assert_eq!(
            engine.freeze_run(run).unwrap_err(),
            ServiceError::NotCompleted(run, RunStatus::Live)
        );
        engine
            .provide_derivation(run, gen.derivation.clone())
            .unwrap();
        engine.complete_run(run).unwrap();

        // Record the hot answers, then freeze.
        let hot = engine.handle(run).unwrap();
        assert_eq!(hot.tier(), Tier::Hot);
        let before = engine.stats();
        assert!(before.label_bits_total > 0);
        engine.freeze_run(run).unwrap();
        engine.freeze_run(run).unwrap(); // idempotent
        assert_eq!(engine.run_tier(run).unwrap(), Tier::Frozen);
        assert_eq!(engine.run_status(run).unwrap(), RunStatus::Completed);

        // The old hot handle still answers; a fresh handle decodes from
        // the arena; both agree with the ground-truth oracle everywhere.
        let frozen = engine.handle(run).unwrap();
        assert_eq!(frozen.tier(), Tier::Frozen);
        assert_eq!(frozen.published(), exec.len());
        let oracle = wf_graph::reach::ReachOracle::new(&gen.graph);
        for a in gen.graph.vertices() {
            for b in gen.graph.vertices() {
                let want = Some(oracle.reaches(a, b));
                assert_eq!(frozen.reach(a, b), want, "frozen {a:?};{b:?}");
                assert_eq!(hot.reach(a, b), want, "stale hot handle {a:?};{b:?}");
            }
        }
        // Writes through any handle are rejected with Completed.
        assert!(matches!(
            frozen.submit(&exec.events()[0]).unwrap_err(),
            ServiceError::RunNotLive(_, RunStatus::Completed)
        ));

        // Per-tier stats: the run moved out of the hot columns, and the
        // SKL re-label (derivation was provided) recorded its deltas.
        let after = engine.stats();
        assert_eq!(after.runs_frozen, 1);
        assert_eq!(after.freezes, 1);
        assert_eq!(after.label_bits_total, 0, "hot tier emptied");
        assert!(after.frozen_bytes > 0);
        assert_eq!(after.frozen_label_bits, before.label_bits_total);
        assert_eq!(after.labels_published as usize, exec.len());
        assert_eq!(after.skl_relabeled, 1);
        assert!(after.skl_bits_total > 0);
        assert_eq!(after.skl_drl_bits_total, before.label_bits_total);
        assert!(after.skl_bits_ratio().is_some());
        assert!(after.skl_pairs_sampled > 0);
        assert!(after.tier_footprint_json().contains("\"runs_frozen\":1"));
    }

    #[test]
    fn persist_and_reload_across_engine_lifetimes() {
        let dir = TempDir::new("reload");
        let (run, gen, exec, name) = {
            let engine: WfEngine = WfEngine::builder()
                .spec(wf_spec::corpus::running_example())
                .ingest_workers(2)
                .spill_dir(&dir.0)
                .build();
            let run = engine.open_run(SpecId(0)).unwrap();
            let mut rng = StdRng::seed_from_u64(53);
            let gen = RunGenerator::new(&engine.context(SpecId(0)).unwrap().spec)
                .target_size(90)
                .generate_run(&mut rng);
            let exec = Execution::deterministic(&gen.graph, &gen.origin);
            for ev in exec.events() {
                engine.submit(run, ev).unwrap();
            }
            engine.complete_run(run).unwrap();
            // Answer a few queries while hot, then tier out: the
            // engine-wide query counter must stay monotone across both
            // transitions (it travels with the run).
            let hot = engine.handle(run).unwrap();
            for ev in &exec.events()[..4] {
                hot.reach(exec.events()[0].vertex, ev.vertex).unwrap();
            }
            let queries_before = engine.stats().queries_answered;
            assert!(queries_before >= 4);
            engine.persist_run(run).unwrap(); // freezes, then spills
            assert_eq!(engine.run_tier(run).unwrap(), Tier::Persisted);
            let s = engine.stats();
            assert_eq!((s.freezes, s.spills, s.runs_persisted), (1, 1, 1));
            assert!(s.persisted_bytes > 0);
            assert!(
                s.queries_answered >= queries_before,
                "query counter went backwards across tiering: {} < {queries_before}",
                s.queries_answered
            );
            // Still answers after the arena moved to disk (lazy mapping).
            let h = engine.handle(run).unwrap();
            assert_eq!(h.tier(), Tier::Persisted);
            let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
            assert_eq!(h.reach(u, v), Some(true));
            let name = exec.events()[1].name;
            (run, gen, exec, name)
        };
        // A brand-new engine over the same spill dir sees the history.
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .spill_dir(&dir.0)
            .build();
        assert_eq!(engine.run_tier(run).unwrap(), Tier::Persisted);
        assert_eq!(engine.run_status(run).unwrap(), RunStatus::Completed);
        let h = engine.handle(run).unwrap();
        assert_eq!(h.published(), exec.len());
        let oracle = wf_graph::reach::ReachOracle::new(&gen.graph);
        for a in gen.graph.vertices() {
            for b in gen.graph.vertices() {
                assert_eq!(h.reach(a, b), Some(oracle.reaches(a, b)), "{a:?};{b:?}");
            }
        }
        // Cross-run queries span the reloaded history…
        assert_eq!(
            engine
                .query()
                .completed()
                .runs_reaching_named_from_source(name),
            vec![run]
        );
        // …and new runs get fresh ids above it.
        let next = engine.open_run(SpecId(0)).unwrap();
        assert!(next.0 > run.0, "fresh ids start above reloaded history");
    }

    #[test]
    fn tiering_worker_enforces_the_recency_bound() {
        let dir = TempDir::new("policy");
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .ingest_workers(2)
            .freeze_after(2)
            .spill_dir(&dir.0)
            .build();
        let mut runs = Vec::new();
        for i in 0..5 {
            let run = engine.open_run(SpecId(0)).unwrap();
            ingest_run(&engine, run, SpecId(0), 100 + i, 40);
            runs.push(run);
        }
        // The worker keeps ≤2 completed runs hot; the 3 oldest spill all
        // the way to disk. Poll briefly (the worker is asynchronous).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let s = engine.stats();
            if s.runs_persisted == 3 && s.runs_hot == 2 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "tiering worker never converged: {s}"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // Oldest completions went first.
        assert_eq!(engine.run_tier(runs[0]).unwrap(), Tier::Persisted);
        assert_eq!(engine.run_tier(runs[1]).unwrap(), Tier::Persisted);
        assert_eq!(engine.run_tier(runs[2]).unwrap(), Tier::Persisted);
        assert_eq!(engine.run_tier(runs[3]).unwrap(), Tier::Hot);
        assert_eq!(engine.run_tier(runs[4]).unwrap(), Tier::Hot);
        assert!(
            engine.take_ingest_errors().is_empty(),
            "no tiering failures"
        );
        // Every run still answers its own queries.
        for &run in &runs {
            let h = engine.handle(run).unwrap();
            let src = h.source().unwrap();
            assert_eq!(h.reach(src, src), Some(true));
        }
        // The cross-run surface sees all five, tier-transparently.
        assert_eq!(engine.query().completed().run_ids().len(), 5);
        assert_eq!(engine.query().tier(Tier::Persisted).run_ids().len(), 3);
    }

    #[test]
    fn max_hot_runs_freezes_even_recent_completions() {
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .ingest_workers(2)
            .max_hot_runs(1)
            .build();
        let a = engine.open_run(SpecId(0)).unwrap();
        ingest_run(&engine, a, SpecId(0), 7, 30);
        let b = engine.open_run(SpecId(0)).unwrap(); // stays live
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while engine.run_tier(a).unwrap() != Tier::Frozen {
            assert!(std::time::Instant::now() < deadline, "run a never froze");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // The live run is never frozen, even over the cap.
        assert_eq!(engine.run_tier(b).unwrap(), Tier::Hot);
        assert_eq!(engine.run_status(b).unwrap(), RunStatus::Live);
    }

    #[test]
    fn persist_without_spill_dir_is_rejected() {
        let engine = engine();
        let run = engine.open_run(SpecId(0)).unwrap();
        ingest_run(&engine, run, SpecId(0), 3, 30);
        assert_eq!(
            engine.persist_run(run).unwrap_err(),
            ServiceError::NoSpillDir
        );
        assert_eq!(engine.spill_dir(), None);
        // Eviction works from the frozen tier too.
        engine.freeze_run(run).unwrap();
        engine.evict_run(run).unwrap();
        assert_eq!(
            engine.run_tier(run).unwrap_err(),
            ServiceError::UnknownRun(run)
        );
    }

    #[test]
    fn compaction_packs_segments_and_survives_restart() {
        let dir = TempDir::new("compact");
        let spec = wf_spec::corpus::running_example();
        let mut payloads = Vec::new();
        {
            let engine: WfEngine = WfEngine::builder()
                .spec(spec.clone())
                .ingest_workers(2)
                .spill_dir(&dir.0)
                .build();
            for i in 0..6u64 {
                let run = engine.open_run(SpecId(0)).unwrap();
                let exec = ingest_run(&engine, run, SpecId(0), 200 + i, 40);
                engine.persist_run(run).unwrap();
                payloads.push((run, exec));
            }
            let before = engine.stats();
            assert_eq!(before.segment_files, 6, "one pack of one per spill");
            let report = engine.compact().unwrap();
            assert_eq!(report.files_before, 6);
            assert_eq!(report.files_after, 1, "six packs of one → one pack");
            assert_eq!(report.runs_packed, 6);
            assert_eq!(report.packs_written, 1);
            assert_eq!(report.bytes_after, report.bytes_before, "blobs verbatim");
            assert!(report.json().contains("\"files_after\":1"));
            let after = engine.stats();
            assert_eq!(after.segment_files, 1);
            assert_eq!(after.compactions, 1);
            // A second pass has one underfull pack: nothing to merge.
            let again = engine.compact().unwrap();
            assert_eq!(again.runs_packed, 0);
            // Queries answer through the packed offsets.
            for (run, exec) in &payloads {
                let h = engine.handle(*run).unwrap();
                assert_eq!(h.tier(), Tier::Persisted);
                let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
                assert_eq!(h.reach(u, v), Some(true));
            }
        }
        // The six packs of one are gone; only the merged pack (the
        // seventh name handed out) + manifest stay.
        let seg_files: Vec<String> = std::fs::read_dir(&dir.0)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.ends_with(".wfseg"))
            .collect();
        assert_eq!(seg_files, vec!["pack-6.wfseg".to_string()]);
        // A fresh engine reloads everything from the packed manifest.
        let engine: WfEngine = WfEngine::builder().spec(spec).spill_dir(&dir.0).build();
        for (run, exec) in &payloads {
            assert_eq!(engine.run_tier(*run).unwrap(), Tier::Persisted);
            let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
            assert_eq!(engine.reach(*run, u, v).unwrap(), Some(true));
        }
        assert_eq!(engine.stats().segment_files, 1);
    }

    #[test]
    fn reheat_promotes_a_persisted_run_to_resident() {
        let dir = TempDir::new("reheat");
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .ingest_workers(2)
            .spill_dir(&dir.0)
            .build();
        let run = engine.open_run(SpecId(0)).unwrap();
        let exec = ingest_run(&engine, run, SpecId(0), 9, 40);
        let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
        // Both targets, one after the other: the round trip back to
        // disk works from either resident tier.
        for (n, target) in [(1, Tier::Frozen), (2, Tier::Hot)] {
            let reheat = || match target {
                Tier::Hot => engine.reheat_run_hot(run),
                _ => engine.reheat_run(run),
            };
            engine.persist_run(run).unwrap();
            assert_eq!(engine.run_tier(run).unwrap(), Tier::Persisted);
            // One query through the persisted tier, then promote.
            assert_eq!(engine.reach(run, u, v).unwrap(), Some(true));
            let queries_before = engine.stats().queries_answered;
            reheat().unwrap();
            assert_eq!(engine.run_tier(run).unwrap(), target);
            assert_eq!(engine.run_status(run).unwrap(), RunStatus::Completed);
            reheat().unwrap(); // idempotent
            let s = engine.stats();
            assert_eq!(s.reheats, n);
            assert_eq!(s.runs_hot + s.runs_frozen, 1);
            assert_eq!(s.runs_persisted, 0);
            assert!(s.frozen_bytes + s.hot_resident_bytes > 0, "resident again");
            assert_eq!(
                s.queries_answered, queries_before,
                "query counter survives the promotion"
            );
            // Queries keep answering, and the pin counter stays flat: a
            // re-heated run never touches the segment again.
            let pins = s.pack_pins;
            assert_eq!(engine.reach(run, u, v).unwrap(), Some(true));
            assert_eq!(engine.stats().pack_pins, pins);
        }
    }

    #[test]
    fn lru_sheds_resident_arenas_under_the_byte_budget() {
        let dir = TempDir::new("lru");
        // A 1-byte budget: at most one blob survives each enforcement
        // pass (the just-pinned one is protected).
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .ingest_workers(2)
            .spill_dir(&dir.0)
            .max_resident_bytes(1)
            .build();
        let mut payloads = Vec::new();
        for i in 0..4u64 {
            let run = engine.open_run(SpecId(0)).unwrap();
            let exec = ingest_run(&engine, run, SpecId(0), 300 + i, 40);
            engine.persist_run(run).unwrap();
            payloads.push((run, exec));
        }
        assert_eq!(engine.stats().persisted_resident_bytes, 0, "all cold");
        let mut max_resident = 0;
        for (run, exec) in &payloads {
            let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
            assert_eq!(engine.reach(*run, u, v).unwrap(), Some(true));
            max_resident = max_resident.max(engine.stats().persisted_resident_bytes);
        }
        let s = engine.stats();
        assert_eq!(s.pack_pins, 4, "each run pinned in once");
        assert!(
            s.segment_sheds >= 3,
            "earlier blobs were shed: {} sheds",
            s.segment_sheds
        );
        // The budget bounds residency to one blob at a time.
        let h = engine.handle(payloads[3].0).unwrap();
        assert!(h.is_resident(), "most recent pin survives");
        assert!(!engine.handle(payloads[0].0).unwrap().is_resident());
        // Repeat queries on the resident run never re-pin it…
        let pins = s.pack_pins;
        let (run, exec) = &payloads[3];
        let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
        for _ in 0..8 {
            assert_eq!(engine.reach(*run, u, v).unwrap(), Some(true));
        }
        assert_eq!(engine.stats().pack_pins, pins, "no re-pin");
        // …and the resident-only query scope sees exactly that run.
        assert_eq!(
            engine.query().resident().run_ids(),
            vec![*run],
            "resident scope skips cold segments without faulting them"
        );
        assert_eq!(engine.query().completed().run_ids().len(), 4);
    }

    #[test]
    fn handles_are_cloneable_and_outlive_the_engine() {
        let engine = engine();
        let run = engine.open_run(SpecId(0)).unwrap();
        let exec = sample(&engine, SpecId(0), 31, 30);
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        let handle = engine.handle(run).unwrap();
        let clone = handle.clone();
        drop(engine); // implicit drain: joins the pool, closes ingest
        let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
        // Both clones still answer from the reference-counted slot…
        assert_eq!(handle.reach(u, v), Some(true));
        assert_eq!(clone.reach(u, v), Some(true));
        assert_eq!(clone.source(), Some(u));
        // …but cannot keep writing into the orphaned registry.
        assert_eq!(
            clone.submit(&exec.events()[0]).unwrap_err(),
            ServiceError::ShuttingDown
        );
    }
}
