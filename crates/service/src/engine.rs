//! The owned engine: the state every subsystem shares by reference
//! count, and the public [`WfEngine`] API over it.
//!
//! Engine API v2's core move is *ownership*: [`WfEngine`] holds its
//! [`SpecContext`] catalog behind `Arc`s instead of borrowing a caller's
//! slice, so no type in the crate carries a catalog lifetime. Each
//! subsystem owns its own state and lives in its own module — the write
//! path in [`crate::ingest`], a hot run's state in [`crate::slot`], the
//! tier lifecycle in [`crate::lifecycle`], crash recovery in
//! [`crate::recovery`], the stall watchdog in [`crate::watchdog`], the
//! knobs and the wiring in [`crate::builder`] — and [`EngineShared`] is
//! just the place they meet.

use crate::builder::EngineBuilder;
use crate::handle::RunHandle;
use crate::ingest::{apply_waited, Envelope, Ingest, IngestPool, Op};
use crate::lifecycle::Tiering;
use crate::query::CrossRunQuery;
use crate::recovery::run_open_payload;
use crate::slot::RunSlot;
use crate::spill::{registrations, CompactionReport, FileStat, SpillDir};
use crate::stats::ServiceStats;
use crate::store::{LabelStore, RunView, Tier};
use crate::sub::{SubHub, SubPredicate, Subscription};
use crate::telemetry::Telemetry;
use crate::watchdog::{Health, StallCause, Watchdog};
use crate::{
    BatchOutcome, RunId, RunOp, RunStatus, ServiceError, ServiceEvent, SpecContext, SpecId,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wf_drl::ResolutionMode;
use wf_graph::VertexId;
use wf_run::ExecEvent;
use wf_wal::{RecordKind, WalWriter};

/// The per-run vertex-id ceiling: 2²⁴ ≈ 16M vertices, far beyond the
/// paper's 32K-vertex runs yet small enough that a garbage id from a
/// buggy engine cannot drive a multi-gigabyte table allocation.
pub const DEFAULT_MAX_VERTEX_ID: u32 = (1 << 24) - 1;

/// Everything the engine, its worker pool, and every outstanding
/// [`RunHandle`] share by reference count. This is the `'static` heart
/// of the v2 API: nothing in here borrows from a caller.
pub(crate) struct EngineShared {
    pub(crate) catalog: Box<[Arc<SpecContext>]>,
    /// The tiered run registry (hot / sealed): the one record of which
    /// runs exist and which tier holds each.
    pub(crate) store: LabelStore,
    /// The standing queries: the registry the ingest paths, the
    /// subscribe-time catch-up and the eviction fan out to.
    pub(crate) subs: SubHub,
    pub(crate) next_run: AtomicU64,
    /// All observability state: counters, histograms, the trace ring.
    pub(crate) obs: Arc<Telemetry>,
    /// The ingest pipeline's per-worker progress marks, drain flag and
    /// error ring.
    pub(crate) ingest: Ingest,
    /// The tiering policy, its completion queue and its worker.
    pub(crate) tiering: Tiering,
    /// The spill directory, when persistence is configured.
    pub(crate) spill: Option<SpillDir>,
    /// The durable ingest log, when [`EngineBuilder::wal_dir`] is set:
    /// every open/insert/complete the engine admits is appended *before*
    /// it is applied, so a crash loses at most the un-synced batch tail,
    /// never applied state the log cannot replay.
    pub(crate) wal: Option<WalWriter>,
    /// A [`EngineBuilder::wal_dir`] was configured and its log could not
    /// be opened: the engine runs, and nothing it acknowledges is
    /// durable. Set once at build; [`WfEngine::health`] reports it.
    pub(crate) wal_unavailable: bool,
    /// The stall watchdog's verdict and its monitor thread.
    pub(crate) watchdog: Watchdog,
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

impl EngineShared {
    /// The *writable* slot of `run`: its hot-tier state. A run that has
    /// left the hot tier rejects writes with its lifecycle status (it is
    /// still known — queries keep working through [`LabelStore::view`]).
    pub(crate) fn slot(&self, run: RunId) -> Result<Arc<RunSlot>, ServiceError> {
        match self.view(run)? {
            RunView::Hot(slot) => Ok(slot),
            view => Err(ServiceError::RunNotLive(run, view.status())),
        }
    }

    /// The run's current representation, whatever its tier.
    pub(crate) fn view(&self, run: RunId) -> Result<RunView, ServiceError> {
        self.store.view(run).ok_or(ServiceError::UnknownRun(run))
    }

    /// The WAL shard a run's records land on: the same run→worker
    /// pinning as the ingest pool. A run's appends happen under its
    /// writer lock, whichever thread applies, so the shard file sees
    /// them in apply order.
    pub(crate) fn wal_shard(&self, run: RunId) -> usize {
        route_worker(run, self.ingest.marks().len())
    }

    /// Append one record to `run`'s WAL shard (a no-op without a WAL);
    /// `payload` writes the record's payload straight into the shard's
    /// buffer.
    pub(crate) fn journal(
        &self,
        run: RunId,
        kind: RecordKind,
        seq: u64,
        payload: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), ServiceError> {
        let Some(wal) = &self.wal else { return Ok(()) };
        wal.append_with(self.wal_shard(run), kind, run.0, seq, payload)
            .map_err(|e| ServiceError::Wal(e.to_string()))
    }

    /// Force every record appended so far to disk (a no-op without a
    /// WAL); a failure goes to the error ring.
    fn wal_barrier(&self) {
        if let Some(wal) = &self.wal {
            if let Err(e) = wal.barrier() {
                self.ingest
                    .push_error(RunId(u64::MAX), ServiceError::Wal(e.to_string()));
            }
        }
    }
}

/// The owned, concurrent multi-run labeling engine. `Send + Sync +
/// 'static`: hold it in a struct, share it across threads, move handles
/// into spawned tasks — no catalog lifetime to thread through. See the
/// crate docs for the architecture.
pub struct WfEngine {
    pub(crate) shared: Arc<EngineShared>,
    pub(crate) pool: IngestPool,
}

impl Drop for WfEngine {
    fn drop(&mut self) {
        // Dropping the engine is an implicit drain: mark ingest closed
        // before the pool field's own Drop joins the workers, so
        // surviving `RunHandle` clones reject writes (queries keep
        // working off the reference-counted slots).
        self.shared.ingest.close();
        self.shared.watchdog.stop();
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
}

impl WfEngine {
    /// Start configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The shared specification catalog.
    pub fn catalog(&self) -> &[Arc<SpecContext>] {
        &self.shared.catalog
    }

    /// The catalog entry for `spec`, if any.
    pub fn context(&self, spec: SpecId) -> Option<&Arc<SpecContext>> {
        self.shared.catalog.get(spec.0)
    }

    /// Open a new run of specification `spec`. Resolution is name-based
    /// when the spec satisfies §5.3's Conditions 1–2, log-based
    /// otherwise (log-based needs the `origin` field every [`ExecEvent`]
    /// already carries).
    pub fn open_run(&self, spec: SpecId) -> Result<RunId, ServiceError> {
        let ctx = self.context(spec).ok_or(ServiceError::UnknownSpec(spec))?;
        self.open_run_with(spec, ctx.default_resolution())
    }

    /// Open a new run with an explicit resolution mode.
    pub fn open_run_with(
        &self,
        spec: SpecId,
        resolution: ResolutionMode,
    ) -> Result<RunId, ServiceError> {
        let ctx = self.context(spec).ok_or(ServiceError::UnknownSpec(spec))?;
        if !ctx.hot_cells_hold() {
            return Err(ServiceError::SpecTooWide(spec));
        }
        // `u64::MAX` has no successor, so it is never issued: the
        // counter stops there and further opens are refused.
        let run = self
            .shared
            .next_run
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_add(1))
            .map(RunId)
            .map_err(|_| ServiceError::RunIdsExhausted)?;
        let slot = RunSlot::open(Arc::clone(ctx), spec, resolution, 1)
            .map_err(|e| ServiceError::Labeler(run, e))?;
        // Journal the open before the run becomes visible: the `RunOpen`
        // record (seq 0) happens-before any event enqueue, so recovery
        // always finds it ahead of the run's events.
        self.shared.journal(run, RecordKind::RunOpen, 0, |out| {
            run_open_payload(out, spec, resolution);
        })?;
        self.shared.store.insert(run, RunView::Hot(Arc::new(slot)));
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
        self.shared.ingest.check_open()?;
        let slot = self.shared.slot(event.run)?;
        self.pool
            .enqueue(&self.shared, Envelope::new(event.run, slot, event.op))
    }

    /// Apply one insertion event to one run, **blocking** until it is
    /// applied — on the calling thread, after the run's worker has
    /// settled every envelope enqueued before the call, so the event is
    /// ordered after the run's earlier [`Self::ingest`]s. The v1 API
    /// surface. A panic while applying is
    /// [`ServiceError::WorkerPanicked`], not an unwind into the caller.
    /// Not counted in [`ServiceStats::events_enqueued`]: nothing is
    /// queued.
    pub fn submit(&self, run: RunId, ev: &ExecEvent) -> Result<(), ServiceError> {
        self.blocking(run, Op::Insert(ev))
    }

    /// Mark a run complete, blocking, applied like [`Self::submit`]: on
    /// the calling thread, ordered after every previously enqueued event
    /// of the run. Its labels stay queryable.
    pub fn complete_run(&self, run: RunId) -> Result<(), ServiceError> {
        self.blocking(run, Op::Complete)
    }

    /// Both blocking writes: settle the run's worker, then apply.
    fn blocking(&self, run: RunId, op: Op<'_>) -> Result<(), ServiceError> {
        self.shared.ingest.check_open()?;
        let slot = self.shared.slot(run)?;
        let workers = self.shared.ingest.marks().len();
        self.shared.ingest.flush([route_worker(run, workers)]);
        apply_waited(&self.shared, run, &slot, op)
    }

    /// Apply a batch of events, **blocking**, on the calling thread: the
    /// workers the batch's runs are pinned to settle what was enqueued
    /// before the call, once, then the ops apply in batch order, so
    /// **per-run order is preserved**. Failures are per-run: one run's
    /// fatal event skips that run's remaining ops in the batch but
    /// never the others' (an out-of-bounds vertex id is rejected alone
    /// and the run goes on), and the failed run keeps serving queries
    /// over already-published labels. One call applies on one thread:
    /// for distinct runs ingesting in parallel, use [`Self::ingest`] +
    /// [`Self::flush`] or several callers.
    pub fn submit_batch(&self, events: &[ServiceEvent]) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        if self.shared.ingest.check_open().is_err() {
            outcome.failures = events
                .iter()
                .map(|ev| (ev.run, ServiceError::ShuttingDown))
                .collect();
            return outcome;
        }
        // Resolve each run's slot once, up front: one failure per unknown
        // run, whose ops are skipped wholesale (v1 semantics). A run that
        // dies mid-batch loses its slot here, which skips the rest of its
        // ops.
        let mut slots: HashMap<u64, Option<Arc<RunSlot>>> = HashMap::new();
        for ev in events {
            slots
                .entry(ev.run.0)
                .or_insert_with(|| match self.shared.slot(ev.run) {
                    Ok(slot) => Some(slot),
                    Err(e) => {
                        outcome.failures.push((ev.run, e));
                        None
                    }
                });
        }
        // Settle the workers the live runs are pinned to, once.
        let workers = self.shared.ingest.marks().len();
        let live = slots.iter().filter(|(_, slot)| slot.is_some());
        let touched = live.map(|(&run, _)| route_worker(RunId(run), workers));
        self.shared.ingest.flush(touched);
        for ev in events {
            let Some(Some(slot)) = slots.get(&ev.run.0) else {
                continue;
            };
            match apply_waited(&self.shared, ev.run, slot, Op::from(&ev.op)) {
                Ok(()) => outcome.applied += usize::from(matches!(ev.op, RunOp::Insert(_))),
                Err(e) => {
                    if !matches!(e, ServiceError::VertexOutOfBounds(..)) {
                        slots.insert(ev.run.0, None);
                    }
                    outcome.failures.push((ev.run, e));
                }
            }
        }
        outcome
    }

    /// **Watermark barrier**: block until every event enqueued before
    /// this call has been applied (or rejected) by the worker it is
    /// pinned to. Returns the applied watermark, summed over the
    /// workers — always ≥ the number of events enqueued before the call.
    pub fn flush(&self) -> u64 {
        let obs = &self.shared.obs;
        obs.flushes.inc();
        let span = obs.timer();
        let ingest = &self.shared.ingest;
        let watermark = ingest.flush(0..ingest.marks().len());
        // Durability barrier: every event applied below the watermark was
        // appended to the WAL *before* it was applied (write-ahead order),
        // so one group-commit fsync here makes the whole prefix durable.
        self.shared.wal_barrier();
        obs.finish(span, &obs.h_flush_wait, None, None, || {
            format!("watermark={watermark}")
        });
        watermark
    }

    /// **Graceful shutdown of the ingest pool**: stop accepting events,
    /// let the workers finish everything already queued, and join them.
    /// Queries — per-run handles and the cross-run surface — keep
    /// working after a drain; only ingest is closed
    /// ([`ServiceError::ShuttingDown`]). Dropping the engine drains
    /// implicitly.
    pub fn drain(&mut self) {
        self.shared.ingest.close();
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
        self.shared.ingest.check_open().is_err()
    }

    /// Drain and return the failures recorded by the fire-and-forget
    /// ingest path since the last call (bounded ring; oldest dropped
    /// first).
    pub fn take_ingest_errors(&self) -> Vec<(RunId, ServiceError)> {
        self.shared.ingest.take_errors()
    }

    /// Drop a run's state entirely (registry eviction, from whichever
    /// tier holds it). Outstanding [`RunHandle`]s keep their
    /// reference-counted state alive until dropped and may continue
    /// *querying* published labels, but writes through them — and events
    /// already queued in the pool — are rejected with
    /// [`RunStatus::Evicted`]: an eviction must not let anything keep
    /// ingesting into state no new lookup can reach. New lookups fail
    /// with [`ServiceError::UnknownRun`]. The eviction is durable in
    /// every tier: a run that has a blob on disk — read from there, or
    /// re-heated since — loses its manifest line before this returns
    /// (a failure to rewrite the manifest is reported, the run is gone
    /// from memory regardless), and the blob's bytes turn dead until a
    /// compaction pass reclaims them. A persist racing the eviction
    /// loses: its run gets no manifest line, and the pack it wrote goes
    /// at the next compaction.
    pub fn evict_run(&self, run: RunId) -> Result<(), ServiceError> {
        let view = self
            .shared
            .store
            .remove(run)
            .ok_or(ServiceError::UnknownRun(run))?;
        self.shared.notify_evicted(run);
        let located = matches!(&view, RunView::Sealed(sealed) if sealed.location().is_some());
        match &self.shared.spill {
            Some(spill) if located => spill.forget(&self.shared.store, run),
            _ => {
                // A run with no blob on disk still has its open/event
                // records in the log (only persisting checkpoints them):
                // checkpoint them now, or the next `build()` would replay
                // the evicted run back into the hot tier.
                self.shared.checkpoint_wal(run);
                Ok(())
            }
        }
    }

    /// **Freeze** a completed run now: seal its published labels into
    /// its segment blob on the heap (read in place) and drop the hot
    /// labeler state. Queries — [`Self::reach`], handles,
    /// [`Self::query`] — keep answering tier-transparently. No-op if the
    /// run is already sealed; [`ServiceError::NotCompleted`] while it is
    /// live.
    pub fn freeze_run(&self, run: RunId) -> Result<(), ServiceError> {
        self.shared.freeze(run)
    }

    /// **Spill** a run to disk (freezing it first if needed): append its
    /// blob, byte for byte, to the pack this engine lifetime has open and
    /// one line to the manifest under the configured
    /// [`EngineBuilder::spill_dir`], and let its frame go —
    /// the run is read from its pack from then on, through a frame loaded
    /// lazily ([`Tier::Persisted`]). A re-heated run is written already:
    /// only its held frame goes. Requires a spill directory
    /// ([`ServiceError::NoSpillDir`] otherwise).
    pub fn persist_run(&self, run: RunId) -> Result<(), ServiceError> {
        self.shared.persist(run)
    }

    /// **Re-heat** a run read from disk — the one way back: load its
    /// frame if it is not in memory and hold it ([`Tier::Frozen`]), so
    /// subsequent queries never touch disk and the LRU has nothing of it
    /// to shed. The run keeps its pack and its manifest line — a restart
    /// brings it back persisted — and [`Self::persist_run`] is the
    /// inverse: the frame goes, nothing is encoded or written. No-op if
    /// the run is hot or already holds its frame. Nothing re-heats
    /// automatically: under [`EngineBuilder::max_resident_bytes`] the
    /// LRU keeps a queried run's frame resident instead.
    pub fn reheat_run(&self, run: RunId) -> Result<(), ServiceError> {
        self.shared.reheat(run)
    }

    /// **Compact** the persisted tier now — the spill directory's one
    /// maintenance pass, with an atomic, crash-safe manifest rewrite. It
    /// closes the pack fresh spills append to, merges underfull pack
    /// files — the packs of short engine lifetimes, packs a rewrite left
    /// small — into full multi-run packs, cutting the directory's file
    /// count, and rewrites every pack more than
    /// [`DEAD_HEAVY_RATIO`](crate::snapshot::DEAD_HEAVY_RATIO) of whose
    /// bytes belong to evicted runs, cutting its bytes. In-flight
    /// cross-run scans and handles follow: every copied run's
    /// registration is pointed at the new pack before the old one is
    /// unlinked, and a frame already loaded is a private copy the unlink
    /// does not touch. The tiering worker runs this automatically once
    /// [`EngineBuilder::compact_after`] underfull files accumulate or a
    /// file turns dead-heavy.
    pub fn compact(&self) -> Result<CompactionReport, ServiceError> {
        let spill = self.shared.spill.as_ref().ok_or(ServiceError::NoSpillDir)?;
        spill.compact(&self.shared.store)
    }

    /// Which storage tier currently serves `run`.
    pub fn run_tier(&self, run: RunId) -> Result<Tier, ServiceError> {
        self.shared.view(run).map(|v| v.tier())
    }

    /// The configured spill directory, if any.
    pub fn spill_dir(&self) -> Option<&Path> {
        self.shared.spill.as_ref().map(SpillDir::dir)
    }

    /// The configured write-ahead log directory, if any. `None` also
    /// when a [`EngineBuilder::wal_dir`] was set but the log could not
    /// be opened at build time (the engine degrades to non-durable, and
    /// [`Self::health`] names [`StallCause::WalUnavailable`]).
    pub fn wal_dir(&self) -> Option<&Path> {
        self.shared.wal.as_ref().map(wf_wal::WalWriter::dir)
    }

    /// Constant-time reachability `u ; v` within `run`, lock-free
    /// against concurrent ingestion. `Ok(None)` means at least one of
    /// the two vertices has not been labeled yet (its event is still in
    /// flight); because labels and pairwise answers are immutable once
    /// published, any `Some` answer remains valid forever. A persisted
    /// run whose pack no longer loads (checksum mismatch, vanished file)
    /// is [`ServiceError::Snapshot`] with the cause, not `Ok(None)`.
    pub fn reach(
        &self,
        run: RunId,
        u: VertexId,
        v: VertexId,
    ) -> Result<Option<bool>, ServiceError> {
        let handle = self.handle(run)?;
        handle.checked(handle.reach(u, v))
    }

    /// The published label of `v`, if any (an owned copy, decoded from
    /// the run's current tier). Fails like [`Self::reach`] when the
    /// run's pack no longer loads.
    pub fn label(&self, run: RunId, v: VertexId) -> Result<Option<wf_drl::DrlLabel>, ServiceError> {
        let handle = self.handle(run)?;
        handle.checked(handle.label(v))
    }

    /// A cloneable, lifetime-free handle for hot paths on one run:
    /// resolves the run's view once; every query on the handle is
    /// lock-free over a hot run, and the handle stays valid (for
    /// queries) even after the run is evicted, frozen, or the engine
    /// drained. A handle over a sealed run follows it through persist
    /// and re-heat (it holds the one sealed run); a hot handle stays on
    /// the hot index after a freeze — take a fresh handle to query the
    /// sealed form.
    pub fn handle(&self, run: RunId) -> Result<RunHandle, ServiceError> {
        let view = self.shared.view(run)?;
        let ctx = Arc::clone(&self.shared.catalog[view.spec().0]);
        Ok(RunHandle::new(Arc::clone(&self.shared), ctx, run, view))
    }

    /// The cross-run query surface: lineage questions over *several*
    /// runs, answered lock-free from published label chunks. See
    /// [`CrossRunQuery`].
    pub fn query(&self) -> CrossRunQuery<'_> {
        CrossRunQuery::new(&self.shared)
    }

    /// Register a **standing query**: the same lineage predicates as
    /// [`Self::query`], maintained incrementally instead of rescanned.
    /// The returned [`Subscription`] first receives `Added` deltas for
    /// every existing match (the catch-up scan), then live deltas as
    /// ingest publishes labels, runs complete and runs are evicted — a
    /// tier move changes no match, so it sends none. See
    /// [`crate::SubPredicate`] for scoping and [`crate::Delta`] for the
    /// event vocabulary.
    pub fn subscribe(&self, predicate: SubPredicate) -> Subscription {
        self.shared.subscribe(predicate)
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
    /// frozen ones, and persist and re-heat move a sealed run between
    /// the frozen and the persisted ones. A pure read: it changes nothing, so any number of
    /// callers (and the metrics exporter, which renders its gauges from
    /// one) can take snapshots, and a rate over an interval is the
    /// difference of two of them.
    pub fn stats(&self) -> ServiceStats {
        let mut labels_published = 0u64;
        let mut labels_hot = 0u64;
        let mut hot_label_bits = 0u64;
        let mut hot_resident_bytes = 0u64;
        let mut queries_answered = 0u64;
        let mut live = 0u64;
        // [hot, frozen, persisted], counted off the one walk: a run is
        // in exactly one registry entry, so it is counted exactly once.
        let mut runs = [0u64; 3];
        let mut frozen_bytes = 0u64;
        let mut frozen_label_bits = 0u64;
        let mut persisted_bytes = 0u64;
        let store = &self.shared.store;
        store.for_each(|_, view| {
            labels_published += view.published() as u64;
            queries_answered += view.queries().load(Ordering::Relaxed);
            let tier = view.tier();
            runs[tier as usize] += 1;
            match view {
                RunView::Hot(slot) => {
                    labels_hot += slot.indexed.len() as u64;
                    hot_label_bits += slot.indexed.total_bits();
                    hot_resident_bytes += slot.indexed.resident_bytes();
                    if slot.status() == RunStatus::Live {
                        live += 1;
                    }
                }
                RunView::Sealed(sealed) if tier == Tier::Frozen => {
                    frozen_bytes += sealed.arena_bytes();
                    frozen_label_bits += sealed.header().drl_bits;
                }
                RunView::Sealed(sealed) => persisted_bytes += sealed.blob_len(),
            }
        });
        let pack_files = self
            .shared
            .spill
            .as_ref()
            .map(|spill| spill.file_stats(&registrations(store)))
            .unwrap_or_default();
        let obs = &self.shared.obs;
        let (enqueued, applied) = self.shared.ingest.watermarks();
        ServiceStats {
            runs_opened: obs.runs_opened.get(),
            runs_live: live,
            runs_completed: obs.runs_completed.get(),
            runs_failed: obs.runs_failed.get(),
            events_enqueued: enqueued,
            events_ingested: obs.events_ingested.get(),
            ingest_backlog: enqueued.saturating_sub(applied),
            flushes: obs.flushes.get(),
            ingest_workers: self.shared.ingest.marks().len() as u64,
            queries_answered,
            labels_published,
            labels_hot,
            label_bits_total: hot_label_bits,
            hot_resident_bytes,
            runs_hot: runs[Tier::Hot as usize],
            runs_frozen: runs[Tier::Frozen as usize],
            runs_persisted: runs[Tier::Persisted as usize],
            freezes: obs.freezes.get(),
            spills: obs.spills.get(),
            reheats: obs.reheats.get(),
            compactions: obs.compactions.get(),
            frozen_bytes,
            frozen_label_bits,
            persisted_bytes,
            persisted_resident_bytes: store.lru.resident_bytes.load(Ordering::Relaxed),
            segment_files: pack_files.len() as u64,
            segment_loads: 0,
            segment_sheds: obs.segment_sheds.get(),
            pack_pins: obs.pack_pins.get(),
            pack_dead_bytes: pack_files.iter().map(FileStat::dead).sum(),
            wal_records: obs.wal_records.get(),
            wal_bytes: obs.wal_bytes.get(),
            wal_truncations: obs.wal_truncations.get(),
            wal_recovered_runs: obs.wal_recovered_runs.get(),
            wal_recovered_records: obs.wal_recovered_records.get(),
            subscriptions: self.shared.subs.active() as u64,
            uptime: obs.started.elapsed(),
        }
    }

    /// The metrics export surface: Prometheus text exposition and a JSON
    /// snapshot, both rendered from the live registry plus the gauge
    /// rows of a [`Self::stats`] snapshot taken at render time.
    pub fn metrics(&self) -> EngineMetrics<'_> {
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
    /// [`EngineBuilder::watchdog`]; [`Health::Healthy`] when none is
    /// configured), plus the two causes that need no watchdog: an engine
    /// whose configured WAL could not be opened, or whose spill
    /// directory could not be read, is at best `Degraded` with
    /// [`StallCause::WalUnavailable`] / [`StallCause::SpillUnavailable`],
    /// for its whole lifetime. Suitable for a readiness probe: `Stalled`
    /// means some pipeline watermark has not advanced for two consecutive
    /// intervals.
    pub fn health(&self) -> Health {
        let mut verdict = self.shared.watchdog.lock().shared.clone();
        let spill_refused = self
            .shared
            .spill
            .as_ref()
            .is_some_and(|s| s.usable().is_err());
        for (cause, at_build) in [
            (StallCause::WalUnavailable, self.shared.wal_unavailable),
            (StallCause::SpillUnavailable, spill_refused),
        ] {
            match &mut verdict {
                _ if !at_build => {}
                Health::Healthy => {
                    verdict = Health::Degraded {
                        causes: vec![cause],
                    }
                }
                Health::Degraded { causes } | Health::Stalled { causes } => causes.push(cause),
            }
        }
        verdict
    }

    /// Nanoseconds the oldest buffered WAL append has waited for an
    /// fsync pass (0 when fully synced or without a WAL) — the flush
    /// lag the watchdog samples.
    pub fn wal_sync_lag_ns(&self) -> u64 {
        self.shared.wal.as_ref().map_or(0, WalWriter::sync_lag_ns)
    }
}

/// Borrowed export surface over the engine's metrics registry, obtained
/// from [`WfEngine::metrics`]. Counters and histograms come from the
/// registry; the gauges are [`ServiceStats::gauges`] of a snapshot taken
/// at render time, so they reflect the moment of the scrape.
pub struct EngineMetrics<'e> {
    engine: &'e WfEngine,
}

impl EngineMetrics<'_> {
    /// Render every family in Prometheus text exposition format
    /// (`# HELP` / `# TYPE` lines, cumulative histogram buckets).
    pub fn render_prometheus(&self) -> String {
        let gauges = self.engine.stats().gauges();
        self.engine.shared.obs.registry.render_prometheus(&gauges)
    }

    /// Render every family as one JSON object
    /// (`{"counters":…,"gauges":…,"histograms":…}`).
    pub fn render_json(&self) -> String {
        let gauges = self.engine.stats().gauges();
        self.engine.shared.obs.registry.render_json(&gauges)
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

    /// Every trace-event kind [`WfEngine::trace_dump`] can hold: the
    /// span kind of each latency instrument (in the order of
    /// [`Self::histogram_names`]), then the lifecycle kinds.
    pub fn trace_kinds(&self) -> Vec<&'static str> {
        self.engine.shared.obs.trace_kinds().collect()
    }
}
