//! The write path: the one apply body every write goes through, the
//! one door every live write takes, and the ingest state they check.
//!
//! **One apply body.** The paper's write side is one step — `g_i =
//! g_{i-1} + (v_i, C_i)` gives `v_i` its permanent label — and [`apply`]
//! is the one place the engine performs it: hand the op and its journal
//! step to the run's [`RunSlot`] (which admits, journals and applies
//! under its writer lock), notify standing queries, record the counters
//! and the sampled span. Its two callers differ only in the [`Entry`]
//! they name: a live write, and WAL recovery (whose journal step is
//! empty — its records are already in the rewritten log). The slot's
//! writer lock around admission → journal → apply is the whole argument
//! for "a record is in the log iff the op was admitted, the log orders a
//! run's ops as memory does, and no event slips in after a completion or
//! an eviction".
//!
//! **One door.** Every live write — [`crate::WfEngine::ingest`],
//! `submit`, `complete_run`, `submit_batch`, [`crate::RunHandle::submit`]
//! / `complete` — goes through [`apply_waited`] on the caller's own
//! thread and returns its outcome there. The writer lock already orders
//! it against every other write of the run, so nothing travels to
//! another thread and back: a run's order is its writers' program order,
//! and more cores are used by more calling threads.
//!
//! **[`Ingest`]** holds the drain flag every write checks and the
//! bounded error ring of the failures no caller waits on.

use crate::engine::{EngineShared, DEFAULT_MAX_VERTEX_ID};
use crate::slot::RunSlot;
use crate::telemetry::{current_span, set_current_span, SpanHandle};
use crate::{RunId, RunOp, ServiceError, SpecId, Tier};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use wf_run::ExecEvent;
use wf_wal::{RecordKind, CHECKPOINT_SEQ};

/// How many recent background failures the engine retains for
/// [`crate::WfEngine::take_ingest_errors`].
const INGEST_ERROR_RING: usize = 256;

/// One write, by reference — what an entry point hands [`apply`].
#[derive(Clone, Copy)]
pub(crate) enum Op<'a> {
    Insert(&'a ExecEvent),
    Complete,
}

impl<'a> From<&'a RunOp> for Op<'a> {
    fn from(op: &'a RunOp) -> Self {
        match op {
            RunOp::Insert(ev) => Op::Insert(ev),
            RunOp::Complete => Op::Complete,
        }
    }
}

/// Which entry point is applying: decides whether the op is journaled.
#[derive(Clone, Copy)]
pub(crate) enum Entry {
    /// A live write, on its caller's thread ([`apply_waited`]).
    Caller,
    /// WAL recovery: the record is already in the rewritten log, so the
    /// op is applied without being journaled again.
    Replay,
}

/// **The one apply body**: journal and apply `op` under the run's writer
/// lock, fan out to standing queries, record counters and the sampled
/// span.
pub(crate) fn apply(
    shared: &EngineShared,
    run: RunId,
    slot: &RunSlot,
    op: Op<'_>,
    entry: Entry,
) -> Result<(), ServiceError> {
    let obs = &shared.obs;
    // Only inserts are timed (sampled — the apply itself is a few
    // hundred ns). While the span is open the WAL append and the
    // subscription notify trace as its children.
    let span = match op {
        Op::Insert(_) if obs.apply_sampled() => obs.begin(),
        _ => SpanHandle::inert(),
    };
    let res = log_then_apply(shared, run, slot, op, entry);
    match op {
        Op::Insert(ev) => {
            if res.is_ok() {
                shared.notify_insert(run, slot, ev.vertex, ev.name);
            }
            obs.finish(
                span,
                &obs.h_ingest_apply,
                Some(run.0),
                Some(Tier::Hot.name()),
                String::new,
            );
            record_insert_outcome(shared, &res);
        }
        Op::Complete => record_complete_outcome(shared, run, slot.spec, &res),
    }
    res
}

/// **The one door for a live write**: [`apply`] on the caller's
/// thread. A panic inside it comes back as
/// [`ServiceError::WorkerPanicked`], never as an unwind into the caller,
/// and the thread's span context is put back.
pub(crate) fn apply_waited(
    shared: &EngineShared,
    run: RunId,
    slot: &RunSlot,
    op: Op<'_>,
) -> Result<(), ServiceError> {
    let ctx = current_span();
    // AssertUnwindSafe: all state `apply` touches is behind poisoning
    // mutexes or atomics; a half-applied op leaves the run's writer
    // lock poisoned, and `panicked` fails the run.
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        apply(shared, run, slot, op, Entry::Caller)
    }));
    set_current_span(ctx);
    res.unwrap_or_else(|_| panicked(run, slot))
}

/// The outcome of an apply that panicked: it may have left the run's
/// labeler half-updated (its writer lock is poisoned), so the run fails
/// now, not at its next write.
fn panicked(run: RunId, slot: &RunSlot) -> Result<(), ServiceError> {
    slot.fail();
    Err(ServiceError::WorkerPanicked(run))
}

/// **Write-ahead order, admission first**: the slot runs `journal`
/// under its writer lock, after it has admitted the op and before it
/// applies it. A garbage vertex id is rejected ahead of all that (the
/// rejection is deterministic, so nothing about it needs replaying —
/// and both the labeler and the label index size tables to the id); an
/// op the run's status rejects is never journaled, so recovery cannot
/// replay what its caller was told was refused; a failed append rejects
/// the op without applying it, so the in-memory state never runs ahead
/// of the log.
fn log_then_apply(
    shared: &EngineShared,
    run: RunId,
    slot: &RunSlot,
    op: Op<'_>,
    entry: Entry,
) -> Result<(), ServiceError> {
    if let Op::Insert(ev) = op {
        if ev.vertex.0 > DEFAULT_MAX_VERTEX_ID {
            return Err(ServiceError::VertexOutOfBounds(run, ev.vertex));
        }
    }
    let journal = || {
        if shared.wal.is_none() || matches!(entry, Entry::Replay) {
            return Ok(());
        }
        // `CHECKPOINT_SEQ` is the checkpoint's: a run that reached it
        // journals nothing more, and the op is refused, not applied.
        let seq = slot
            .wal_seq
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                (s < CHECKPOINT_SEQ).then(|| s + 1)
            })
            .map_err(|_| ServiceError::Wal(format!("{run}: sequence numbers exhausted")))?;
        match op {
            Op::Insert(ev) => shared.journal(run, slot, RecordKind::Event, seq, |out| {
                wf_drl::encode::write_event(out, ev);
            }),
            Op::Complete => shared.journal(run, slot, RecordKind::Complete, seq, |_| {}),
        }
    };
    match op {
        Op::Insert(ev) => slot.apply_insert(run, ev, journal),
        Op::Complete => slot.complete(run, journal),
    }
}

/// Which counters an insert's outcome bumps.
fn record_insert_outcome(shared: &EngineShared, res: &Result<(), ServiceError>) {
    match res {
        Ok(()) => shared.obs.events_ingested.inc(),
        Err(ServiceError::Labeler(..)) => shared.obs.runs_failed.inc(),
        Err(_) => {}
    }
}

fn record_complete_outcome(
    shared: &EngineShared,
    run: RunId,
    spec: SpecId,
    res: &Result<(), ServiceError>,
) {
    if res.is_ok() {
        shared.obs.runs_completed.inc();
        // The status CAS fired exactly once, so this fan-out is
        // edge-triggered: subscribers see one RunCompleted per run.
        shared.notify_complete(run, spec);
        shared.tiering.note_completed();
    }
}

/// The ingest state every live write checks and the engine's
/// background failures land in: the drain flag, and the bounded ring of
/// failures no caller waits on — a tiering pass's, a WAL barrier's or
/// checkpoint's.
#[derive(Default)]
pub(crate) struct Ingest {
    /// Set once by [`Self::close`]: ingest is closed in every flavor.
    draining: AtomicBool,
    errors: Mutex<VecDeque<(RunId, ServiceError)>>,
}

impl Ingest {
    /// Stop accepting writes (drain or drop).
    pub(crate) fn close(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// [`ServiceError::ShuttingDown`] once ingest is closed.
    pub(crate) fn check_open(&self) -> Result<(), ServiceError> {
        if self.draining.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        Ok(())
    }

    /// Remember a failure no caller waits on, so it can still be
    /// observed.
    pub(crate) fn push_error(&self, run: RunId, err: ServiceError) {
        // A panic mid-push leaves a valid ring, short one entry at worst.
        let mut ring = self.errors.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == INGEST_ERROR_RING {
            ring.pop_front();
        }
        ring.push_back((run, err));
    }

    /// Drain the error ring.
    pub(crate) fn take_errors(&self) -> Vec<(RunId, ServiceError)> {
        // The ring is valid between any two statements that touch it.
        let mut ring = self.errors.lock().unwrap_or_else(PoisonError::into_inner);
        ring.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::tests::poison;
    use crate::{Health, RunStatus, ServiceEvent, StallCause, WfEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_drl::ResolutionMode;
    use wf_run::{Execution, RunGenerator};
    use wf_spec::GraphId;

    /// An apply that panics — a log-based event naming a graph the
    /// specification does not have is an index panic inside the labeler
    /// — comes back from `ingest()` as `WorkerPanicked`, on the caller's
    /// thread and under the caller's span context: the run reads
    /// `Failed`, its next event reports the poisoned writer lock the
    /// same way, and nothing lands in the error ring (every caller got
    /// its outcome).
    #[test]
    fn a_panicking_apply_fails_the_run_and_reports_worker_panicked() {
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .build();
        let spec = &engine.context(SpecId(0)).unwrap().spec;
        let gen = RunGenerator::new(spec)
            .target_size(20)
            .generate_run(&mut StdRng::seed_from_u64(5));
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        let (first, second) = (&exec.events()[0], &exec.events()[1]);
        let mut bad = second.clone();
        bad.origin.0 = GraphId(u32::MAX);

        let run = engine
            .open_run_with(SpecId(0), ResolutionMode::LogBased)
            .unwrap();
        let send = |ev: &ExecEvent| {
            let op = RunOp::Insert(ev.clone());
            engine.ingest(ServiceEvent { run, op })
        };
        assert_eq!(send(first), Ok(()));

        let panicked = Err(ServiceError::WorkerPanicked(run));
        assert_eq!(send(&bad), panicked);
        assert_eq!(current_span(), 0, "the caller's span context is put back");
        assert_eq!(engine.run_status(run), Ok(RunStatus::Failed));

        // The panic poisoned the run's writer lock: its next event is
        // refused the same way.
        assert_eq!(send(second), panicked);
        assert!(engine.take_ingest_errors().is_empty());
        assert_eq!(engine.stats().events_ingested, 1);
    }

    /// The error ring's and the watchdog's locks are recovered, not
    /// `expect`ed: each guards a value that is valid between any two
    /// statements. With both poisoned, the ring takes and gives back a
    /// failure, the watchdog goes on publishing its verdict, and the
    /// engine's drop goes on.
    #[test]
    fn poisoned_ingest_and_watchdog_locks_are_recovered() {
        let interval = std::time::Duration::from_millis(5);
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .watchdog(interval)
            .build();
        let ingest = &engine.shared.ingest;
        poison(|| ingest.errors.lock());
        poison(|| engine.shared.watchdog.lock());
        assert!(ingest.errors.is_poisoned());

        let err = ServiceError::Wal("barrier".into());
        ingest.push_error(RunId(u64::MAX), err.clone());
        assert_eq!(engine.take_ingest_errors(), [(RunId(u64::MAX), err)]);
        // A verdict the watchdog never reaches on an idle engine: only a
        // thread that still takes the poisoned lock overwrites it.
        engine.shared.watchdog.lock().shared = Health::Stalled {
            causes: vec![StallCause::SubLag],
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while engine.health() != Health::Healthy {
            assert!(std::time::Instant::now() < deadline, "the watchdog died");
            std::thread::sleep(interval);
        }
    }
}
