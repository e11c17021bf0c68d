//! The **run lifecycle**: the one transition a run makes — hot →
//! sealed — the two residency changes of a sealed run, and the
//! background worker that applies the automatic policy.
//!
//! A run's labels never change once published; what changes is where
//! their bytes sit:
//!
//! | operation                 | what changes                                   | under                       |
//! |---------------------------|------------------------------------------------|-----------------------------|
//! | [`EngineShared::freeze`]  | hot → sealed: the blob is encoded into a held frame | the store's shard lock |
//! | [`EngineShared::persist`] | the held frame is appended to a pack, then let go | the run's place lock |
//! | [`EngineShared::reheat`]  | the frame is loaded if need be, then held      | the run's place lock        |
//!
//! Freeze encodes the blob off to the side — no registry lock held — and
//! then asks the store to swap it in with the one conditional
//! [`crate::store::LabelStore::transition`]. Persist and re-heat take no
//! registry lock: the sealed run is one object the registry, every
//! handle and every scan share, so they all follow. A blob is written
//! once, at the first persist; after a re-heat, persisting again only
//! lets the held frame go. A pack rewrite is not a residency change either:
//! it tells the sealed run where its blob went.
//!
//! [`Tiering`] owns everything the background worker needs: the policy
//! and a [`Ticker`] — the thread's stop flag, its wakeup and its join
//! handle. The worker keeps no record of its own: the registry says
//! which runs are completed and hot, and each slot when it completed.

use crate::engine::{route_shard, EngineShared};
use crate::freeze::freeze_slot;
use crate::store::{RunView, Tier};
use crate::{RunId, RunStatus, ServiceError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The automatic hot→frozen(→persisted) policy the background tiering
/// worker enforces. All knobs optional; unset means manual-only tiering.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TierPolicy {
    /// Keep at most this many *completed* runs hot; older completions
    /// freeze in completion order (the recency bound — the one bound on
    /// the hot tier; live runs are never frozen).
    pub(crate) freeze_after: Option<usize>,
    /// Run a compaction pass once this many underfull pack files (fewer
    /// than [`crate::snapshot::MIN_PACK_RUNS`] runs) have accumulated,
    /// or a file has turned dead-heavy.
    pub(crate) compact_after: Option<usize>,
}

/// The controls of one background thread that wakes on a period or a
/// nudge until told to stop: the state it shares with the rest of the
/// engine and its stop flag behind one mutex, the condvar that wakes
/// it, and its join handle. The tiering worker and the stall watchdog
/// are both one of these.
pub(crate) struct Ticker<T> {
    state: Mutex<Ticked<T>>,
    cv: Condvar,
    worker: Mutex<Option<JoinHandle<()>>>,
}

/// What a [`Ticker`]'s mutex guards.
pub(crate) struct Ticked<T> {
    /// The state the thread shares with the rest of the engine.
    pub(crate) shared: T,
    stop: bool,
}

impl<T> Ticker<T> {
    pub(crate) fn new(shared: T) -> Self {
        Self {
            state: Mutex::new(Ticked {
                shared,
                stop: false,
            }),
            cv: Condvar::new(),
            worker: Mutex::new(None),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Ticked<T>> {
        // The shared value and the stop flag are each valid between any
        // two statements, so a panicking holder leaves nothing half-done.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The join-handle slot. It holds a handle or nothing, either of
    /// them valid, so a poisoned one is recovered.
    fn worker(&self) -> MutexGuard<'_, Option<JoinHandle<()>>> {
        self.worker.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Cut the thread's current sleep short.
    pub(crate) fn wake(&self) {
        self.cv.notify_all();
    }

    /// Start the thread (named `name`) and keep its join handle.
    pub(crate) fn spawn(&self, name: &str, body: impl FnOnce() + Send + 'static) {
        let worker = std::thread::Builder::new()
            .name(name.into())
            .spawn(body)
            // `build()` is infallible, and callers rely on it: an engine
            // that cannot start a thread has nothing to run on.
            .expect("spawn background worker");
        *self.worker() = Some(worker);
    }

    /// Called by the thread between passes: sleep up to `period` (a
    /// [`Self::wake`] cuts it short); `false` once [`Self::stop`] was
    /// called. The flag is checked under the lock the wait releases, so
    /// a stop can never fall between the check and the wait; the timeout
    /// is a backstop — correctness never depends on a perfectly
    /// delivered notification.
    pub(crate) fn sleep(&self, period: std::time::Duration) -> bool {
        let guard = self.lock();
        if guard.stop {
            return false;
        }
        let (guard, _) = self
            .cv
            .wait_timeout(guard, period)
            // As in `lock`: the state stays valid across a panic.
            .unwrap_or_else(PoisonError::into_inner);
        !guard.stop
    }

    /// Stop and join the thread (idempotent).
    pub(crate) fn stop(&self) {
        self.lock().stop = true;
        self.wake();
        let worker = self.worker().take();
        if let Some(worker) = worker {
            let _ = worker.join();
        }
    }
}

/// The tiering worker's state: the policy it enforces and its thread.
pub(crate) struct Tiering {
    policy: TierPolicy,
    /// A completion wakes the worker.
    ticker: Ticker<()>,
}

impl Tiering {
    pub(crate) fn new(policy: TierPolicy) -> Self {
        Self {
            policy,
            ticker: Ticker::new(()),
        }
    }

    /// True when any automatic policy is configured (and so a worker
    /// runs).
    pub(crate) fn is_active(&self) -> bool {
        self.policy.freeze_after.is_some() || self.policy.compact_after.is_some()
    }

    /// A run completed: wake the worker, if there is one.
    pub(crate) fn note_completed(&self) {
        self.ticker.wake();
    }

    /// Start the background worker when a policy is configured: apply
    /// the policy whenever a completion (or the periodic tick) wakes it,
    /// until shutdown.
    pub(crate) fn spawn(shared: &Arc<EngineShared>) {
        if !shared.tiering.is_active() {
            return;
        }
        let worker = Arc::clone(shared);
        shared.tiering.ticker.spawn("wf-tiering", move || loop {
            worker.apply_tier_policy();
            worker.apply_segment_policy();
            let tick = std::time::Duration::from_millis(20);
            if !worker.tiering.ticker.sleep(tick) {
                return;
            }
        });
    }

    /// Stop and join the worker (idempotent).
    pub(crate) fn stop(&self) {
        self.ticker.stop();
    }
}

impl EngineShared {
    /// Freeze one completed run: seal its published labels into a
    /// segment blob on the heap and swap it in for the hot slot.
    /// Idempotent for already-sealed runs.
    ///
    /// The encode runs **without** the slot's writer lock: once a run is
    /// `Completed` its index is final (completion and inserts serialize
    /// on the writer lock), so the only races are with an eviction or
    /// another freeze — both resolved by the conditional transition —
    /// and the encode is linear in the run's labels, so a stale queued
    /// event for the run is rejected at once instead of waiting out the
    /// blob build of a 10⁵-vertex run.
    pub(crate) fn freeze(&self, run: RunId) -> Result<(), ServiceError> {
        let RunView::Hot(slot) = self.view(run)? else {
            return Ok(()); // already sealed
        };
        match slot.status() {
            RunStatus::Completed => {}
            s => return Err(ServiceError::NotCompleted(run, s)),
        }
        let span = self.obs.timer();
        let sealed = freeze_slot(run, &slot, &self.store.lru);
        let labels = sealed.header().count;
        if !self.store.transition(run, Arc::new(sealed)) {
            // Someone else sealed it first (nothing left to do), or an
            // eviction removed it (report that).
            return self.view(run).map(drop);
        }
        self.obs.freezes.inc();
        self.obs.finish(
            span,
            &self.obs.h_freeze,
            Some(run.0),
            Some(Tier::Frozen.name()),
            || format!("labels={labels}"),
        );
        Ok(())
    }

    /// Spill one run to disk: freeze it if still hot, append its blob to
    /// the active pack and its seal record to the log, and let its frame
    /// go. A re-heated run already has its pack and its seal record:
    /// only its held frame goes, and nothing is written. Idempotent for
    /// runs read from disk.
    pub(crate) fn persist(&self, run: RunId) -> Result<(), ServiceError> {
        let spill = self.spill.as_ref().ok_or(ServiceError::NoSpillDir)?;
        self.freeze(run)?;
        // A sealed run never turns hot again.
        let RunView::Sealed(sealed) = self.view(run)? else {
            return Ok(());
        };
        if spill.persist(&self.store, &sealed)? {
            // The run is durable in its pack + seal record: stamp a WAL
            // checkpoint, so recovery skips its records and the shard is
            // rewritten without them once they are dead-heavy (the log
            // stays within a constant factor of hot state). A checkpoint
            // failure is non-fatal — the spill succeeded; recovery would
            // simply skip the run's stale records because the seal log
            // already places it.
            self.checkpoint_wal(run, sealed.wal_bytes);
        }
        Ok(())
    }

    /// Stamp a WAL checkpoint for `run`, whose records take `bytes` of
    /// its shard: recovery skips a checkpointed run's records. A failure
    /// goes to the error ring.
    pub(crate) fn checkpoint_wal(&self, run: RunId, bytes: u64) {
        if let Some(wal) = &self.wal {
            if let Err(e) = wal.checkpoint(route_shard(run, wal.shards()), run.0, bytes) {
                self.ingest
                    .push_error(run, ServiceError::Wal(e.to_string()));
            }
        }
    }

    /// **Re-heat** one sealed run read from disk: hold its frame —
    /// loaded first if the replacer has none — so reads stop touching
    /// disk. The run stays `Completed`, and keeps its location: the blob
    /// stays live, the seal log keeps its record, and a crash brings the
    /// run back persisted. Idempotent for runs already holding their
    /// frame (and for hot runs).
    pub(crate) fn reheat(&self, run: RunId) -> Result<(), ServiceError> {
        let RunView::Sealed(sealed) = self.view(run)? else {
            return Ok(()); // hot: in memory already
        };
        let span = self.obs.timer();
        if sealed.reheat()? {
            self.obs.reheats.inc();
            self.obs.finish(
                span,
                &self.obs.h_reheat,
                Some(run.0),
                Some(Tier::Frozen.name()),
                || format!("bytes={}", sealed.blob_len()),
            );
        }
        Ok(())
    }

    /// One pass of the segment-level policy: let the spill directory
    /// compact itself.
    pub(crate) fn apply_segment_policy(&self) {
        if let Some(spill) = &self.spill {
            if let Some(e) = spill.apply_policy(&self.store, self.tiering.policy.compact_after) {
                self.ingest.push_error(RunId(u64::MAX), e);
            }
        }
    }

    /// One pass of the automatic tiering policy: freeze (and spill) the
    /// oldest completed hot runs until at most
    /// [`TierPolicy::freeze_after`] remain. The hot tier is read once
    /// per pass; completions landing mid-pass wake the worker for the
    /// next one.
    pub(crate) fn apply_tier_policy(&self) {
        let Some(keep) = self.tiering.policy.freeze_after else {
            return;
        };
        let completed = self.completed_hot();
        for &(_, run) in &completed[..completed.len().saturating_sub(keep)] {
            let res = if self.spill.is_some() {
                self.persist(run)
            } else {
                self.freeze(run)
            };
            match res {
                // Evicted since the walk: nothing left to tier.
                Ok(()) | Err(ServiceError::UnknownRun(_)) => {}
                // No caller waits on a tiering pass: its failures go to
                // the bounded ring, with the WAL's barrier and checkpoint
                // failures.
                Err(e) => self.ingest.push_error(run, e),
            }
        }
    }

    /// How many completed hot runs are over [`TierPolicy::freeze_after`]
    /// (0 without one): the watchdog's tiering-backlog sample.
    pub(crate) fn tiering_backlog(&self) -> usize {
        self.tiering
            .policy
            .freeze_after
            .map_or(0, |keep| self.completed_hot().len().saturating_sub(keep))
    }

    /// The completed runs the hot tier holds, oldest completion first —
    /// one registry walk.
    fn completed_hot(&self) -> Vec<(u64, RunId)> {
        let mut completed = Vec::new();
        self.store.for_each(|run, view| {
            if let RunView::Hot(slot) = view {
                completed.extend(slot.completion().map(|tick| (tick, run)));
            }
        });
        completed.sort_unstable();
        completed
    }
}
