//! The hot-tier state of one run: its labeler behind the writer lock,
//! and the lock-free published-label index the query path reads.
//!
//! Every lifecycle transition of a hot run — an insert, completion,
//! failure, eviction — happens under the slot's writer lock, so the
//! `Live` check of an insert cannot race a completion or an eviction:
//! once a run reports `Completed` or `Evicted`, no event slips in after
//! it. Both writes run **admission → journal → change** under that one
//! lock: the caller's journal step (a closure — the WAL append, or
//! nothing on replay) runs only for an op the run's status admits, and
//! before the labeler or the status is touched, so a record is in the
//! log iff its op was admitted and the log orders a run's ops as memory
//! does. The labeler is plain owned state ([`ExecutionState`]) next to
//! the `Arc<SpecContext>` it is fed from on every call — the spec, its
//! skeleton and its labeler tables, none of them copied per run; the label an
//! insert returns is moved into [`LabelIndex`], the run's only copy.

use crate::index::LabelIndex;
use crate::{RunId, RunStatus, ServiceError, SpecContext, SpecId};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use wf_drl::{ExecError, ExecutionState, ResolutionMode};
use wf_graph::VertexId;
use wf_run::ExecEvent;

/// Per-run state: the single-writer labeler behind a mutex, and the
/// lock-free published-label index the query path reads.
///
/// Cache-line aligned, which puts the slot's data a full line past the
/// `Arc` header it lives behind. Every write's registry lookup and every
/// handle clone bumps that header's reference counts, from whichever
/// thread holds it, so they must not share a line with the writer lock
/// and the labeler state a writing thread is busy in; which fields land
/// next to the header is otherwise the compiler's choice (measured, with
/// [`LineCounter`], while writes crossed threads: −8 % solo-ingest
/// events/s without).
#[repr(align(64))]
pub(crate) struct RunSlot {
    pub(crate) spec: SpecId,
    pub(crate) skl_bits: usize,
    /// The context the labeler reads on every insert.
    ctx: Arc<SpecContext>,
    /// The run's labeler, for as long as the run can still be written:
    /// completion drops it.
    writer: Mutex<Option<ExecutionState>>,
    pub(crate) indexed: LabelIndex,
    /// The run's source vertex (its first inserted event — the labeler
    /// guarantees that is the start graph's source). Write-once, read by
    /// the cross-run query surface.
    pub(crate) source: OnceLock<VertexId>,
    status: AtomicU8,
    /// Queries answered against this run, over its lifetime: the freeze
    /// hands this one counter to the sealed run, so a handle taken
    /// before the freeze still counts where `stats()` sums.
    pub(crate) queries: Arc<LineCounter>,
    /// Next WAL sequence number for this run (0 is the `RunOpen`
    /// record). Monotone per run; recovery replays in this order, so
    /// everything appended before a barrier is durably replayable after
    /// it.
    pub(crate) wal_seq: AtomicU64,
    /// Bytes the run's records take in its WAL shard, counted as each is
    /// appended: what the run's checkpoint makes dead there.
    pub(crate) wal_bytes: AtomicU64,
    /// Where the run's completion falls in the engine's completion
    /// order (a tick of [`COMPLETIONS`]); 0 while it has not completed.
    completion: AtomicU64,
}

/// A counter on a cache line of its own: a run's query count, bumped by
/// every `reach` beside the writer's stores to its slot. Left to share a
/// line with whatever the allocator places next to it, each bump
/// invalidates the writing thread's line (measured while writes crossed
/// threads, together with the alignment of [`RunSlot`]: −8 % solo-ingest
/// events/s without, in or out depending on nothing but field order and
/// where `malloc` put the struct).
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct LineCounter(AtomicU64);

impl LineCounter {
    pub(crate) fn new() -> Self {
        Self(AtomicU64::new(0))
    }
}

impl std::ops::Deref for LineCounter {
    type Target = AtomicU64;

    fn deref(&self) -> &AtomicU64 {
        &self.0
    }
}

/// The completion clock: every completion takes the next tick, so the
/// tiering policy can tell the oldest completed runs from the registry
/// alone.
static COMPLETIONS: AtomicU64 = AtomicU64::new(0);

impl RunSlot {
    /// The slot of a run that can be written: `Live`, with a fresh
    /// labeler. `next_wal_seq` is 1 for newly opened runs (the `RunOpen`
    /// record takes seq 0) and `max_seq + 1` when rebuilding a run from
    /// WAL replay; `wal_bytes` is what the run's records already take in
    /// its shard (0 for a new run, its records in the rewritten log for a
    /// replayed one).
    pub(crate) fn open(
        ctx: Arc<SpecContext>,
        spec: SpecId,
        resolution: ResolutionMode,
        next_wal_seq: u64,
        wal_bytes: u64,
    ) -> Result<Self, ExecError> {
        let writer = ExecutionState::new(ctx.tables(), resolution)?;
        Ok(Self {
            spec,
            skl_bits: ctx.tables().skl_bits(),
            ctx,
            writer: Mutex::new(Some(writer)),
            indexed: LabelIndex::new(),
            source: OnceLock::new(),
            status: AtomicU8::new(RunStatus::Live as u8),
            queries: Arc::new(LineCounter::new()),
            wal_seq: AtomicU64::new(next_wal_seq),
            wal_bytes: AtomicU64::new(wal_bytes),
            completion: AtomicU64::new(0),
        })
    }

    /// The run's specification, which its sealed form names through.
    pub(crate) fn ctx(&self) -> &Arc<SpecContext> {
        &self.ctx
    }

    pub(crate) fn status(&self) -> RunStatus {
        RunStatus::from_u8(self.status.load(Ordering::Acquire))
    }

    /// Mark a live run `Failed` (a no-op in any other state, so a run
    /// fails at most once and a completion or eviction is never undone).
    pub(crate) fn fail(&self) {
        let _ = self.status.compare_exchange(
            RunStatus::Live as u8,
            RunStatus::Failed as u8,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Take the writer lock. A poisoned lock means an earlier writer
    /// panicked mid-update, so the labeler behind it cannot be trusted:
    /// the run is marked `Failed` and every write entry point reports
    /// [`ServiceError::WorkerPanicked`] instead of panicking its caller.
    fn writer(&self, run: RunId) -> Result<MutexGuard<'_, Option<ExecutionState>>, ServiceError> {
        self.writer.lock().map_err(|_| {
            self.fail();
            ServiceError::WorkerPanicked(run)
        })
    }

    /// Admission, under the writer lock: a write is accepted only while
    /// the run is `Live` (which implies it still has its labeler).
    fn admit<'w>(
        &self,
        run: RunId,
        writer: &'w mut Option<ExecutionState>,
    ) -> Result<&'w mut ExecutionState, ServiceError> {
        match (self.status(), writer.as_mut()) {
            (RunStatus::Live, Some(labeler)) => Ok(labeler),
            (s, _) => Err(ServiceError::RunNotLive(run, s)),
        }
    }

    /// Apply one insertion under the writer lock — admission, `journal`,
    /// the labeler — and move the label it returns into the lock-free
    /// index. A failed `journal` rejects the event unapplied. The caller
    /// has bounds-checked `ev.vertex` (both the labeler and the index
    /// size tables to it).
    pub(crate) fn apply_insert(
        &self,
        run: RunId,
        ev: &ExecEvent,
        journal: impl FnOnce() -> Result<(), ServiceError>,
    ) -> Result<(), ServiceError> {
        let mut w = self.writer(run)?;
        let labeler = self.admit(run, &mut w)?;
        journal()?;
        let label = labeler
            .insert(&self.ctx.spec, &self.ctx.skeleton, self.ctx.tables(), ev)
            .map_err(|e| {
                self.fail();
                ServiceError::Labeler(run, e)
            })?;
        if self.source.get().is_none() {
            // First applied event of the run: by Definition 8 it is the
            // start graph's source (the labeler rejects anything else).
            let _ = self.source.set(ev.vertex);
        }
        self.indexed
            .publish(ev.vertex, ev.name, label, self.skl_bits);
        Ok(())
    }

    /// `Live → Completed`, serialized with in-flight inserts by the
    /// writer lock: admission, `journal`, then the status. A completed
    /// run can no longer be written, so its labeler goes now rather than
    /// at freeze time.
    pub(crate) fn complete(
        &self,
        run: RunId,
        journal: impl FnOnce() -> Result<(), ServiceError>,
    ) -> Result<(), ServiceError> {
        let mut w = self.writer(run)?;
        self.admit(run, &mut w)?;
        journal()?;
        // Admitted as `Live` under the lock every other transition of a
        // live run takes, so this is the one that moves it.
        let tick = COMPLETIONS.fetch_add(1, Ordering::Relaxed) + 1;
        self.completion.store(tick, Ordering::Relaxed);
        self.status
            .store(RunStatus::Completed as u8, Ordering::Release);
        *w = None;
        Ok(())
    }

    /// The run's place in the completion order; `None` unless the run
    /// is `Completed`.
    pub(crate) fn completion(&self) -> Option<u64> {
        // The `Acquire` status load sees the tick stored before it.
        (self.status() == RunStatus::Completed).then(|| self.completion.load(Ordering::Relaxed))
    }

    /// Mark the run `Evicted`, serialized with any in-flight insert. A
    /// poisoned writer lock does not stop an eviction: the guard is
    /// recovered, because only the status is stored — the labeler state
    /// a panic may have left half-updated is never read again.
    pub(crate) fn evict(&self) {
        let _w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        self.status
            .store(RunStatus::Evicted as u8, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_run::{Execution, RunGenerator};

    /// A writer that panicked under the lock fails the run once; every
    /// later write reports `WorkerPanicked` to its caller instead of
    /// panicking it, and the run can still be evicted.
    #[test]
    fn a_poisoned_writer_lock_fails_the_run_and_still_evicts() {
        let ctx: Arc<SpecContext> =
            Arc::new(SpecContext::from_spec(wf_spec::corpus::running_example()));
        let mut rng = StdRng::seed_from_u64(3);
        let gen = RunGenerator::new(&ctx.spec)
            .target_size(20)
            .generate_run(&mut rng);
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        let run = RunId(7);
        let slot = RunSlot::open(ctx, SpecId(0), ResolutionMode::NameBased, 1, 0).unwrap();
        slot.apply_insert(run, &exec.events()[0], || Ok(()))
            .unwrap();

        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _w = slot.writer.lock().unwrap();
                panic!("poison the writer lock on purpose");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(slot.writer.is_poisoned());

        let panicked = ServiceError::WorkerPanicked(run);
        // Rejected before anything is written: the journal step of a
        // write that meets the poisoned lock never runs.
        let no_journal = || -> Result<(), ServiceError> { panic!("journaled a rejected op") };
        assert_eq!(
            slot.apply_insert(run, &exec.events()[1], no_journal),
            Err(panicked.clone())
        );
        assert_eq!(slot.status(), RunStatus::Failed);
        assert_eq!(slot.complete(run, no_journal), Err(panicked.clone()));
        assert_eq!(
            slot.apply_insert(run, &exec.events()[1], no_journal),
            Err(panicked)
        );
        assert_eq!(slot.status(), RunStatus::Failed, "fails once, stays failed");
        // Published labels survive; eviction recovers the guard.
        assert_eq!(slot.indexed.len(), 1);
        slot.evict();
        assert_eq!(slot.status(), RunStatus::Evicted);
    }
}
