//! The **stall watchdog**: a monitor thread that samples every
//! subsystem's progress watermark each interval and publishes a liveness
//! verdict.
//!
//! This module owns the verdict types ([`Health`], [`StallCause`]), the
//! thresholds and the sampling loop; its state is one [`Ticker`] — the
//! latest verdict together with the thread's stop flag, wakeup and join
//! handle. It reads the other subsystems only through what they publish:
//! the per-worker enqueued/applied marks (the same ledger `flush()` and
//! `stats()` read — there is no other ingest progress counter), the
//! WAL's sync lag, the tiering backlog and two telemetry counters.

use crate::engine::EngineShared;
use crate::lifecycle::Ticker;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// One cause of a pipeline stall, as diagnosed by the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// An ingest worker has queued envelopes but its applied watermark
    /// did not advance across a whole watchdog interval.
    IngestWorker,
    /// The WAL committer is not draining: the oldest buffered append has
    /// waited longer than half the watchdog interval for an fsync pass —
    /// a stuck committer, or a group-commit window longer than that half
    /// interval with no `flush()` to cut it short.
    WalCommitLag,
    /// The completed hot runs over the recency bound
    /// ([`crate::EngineBuilder::freeze_after`]) keep growing: the
    /// tiering worker is not keeping up.
    TieringBacklog,
    /// The segment LRU is shedding at thrash rate (re-faulting what it
    /// just evicted).
    ShedThrash,
    /// Standing-query subscribers are lagging: their bounded notify
    /// queues dropped deltas faster than `SUB_LAG_PER_TICK` per
    /// watchdog interval.
    SubLag,
    /// A WAL directory was configured and its log could not be opened
    /// at build time (unreadable, or written in a format this build does
    /// not read): the engine is running without one, and what `flush()`
    /// acknowledges is not durable. Not sampled by the watchdog — it is
    /// decided once, at build, and [`crate::WfEngine::health`] reports
    /// it with or without one; it never escalates to `Stalled` on its
    /// own and never clears.
    WalUnavailable,
    /// A spill directory was configured and could not be read at build
    /// time (an I/O error, or a manifest header this build does not
    /// read): the engine left it byte for byte as it was, registered
    /// nothing from it, and refuses every persist and compaction. Decided
    /// once, like [`StallCause::WalUnavailable`].
    SpillUnavailable,
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
            StallCause::WalUnavailable => "wal_unavailable",
            StallCause::SpillUnavailable => "spill_unavailable",
        }
    }
}

/// Engine liveness verdict, refreshed by the stall watchdog every
/// interval ([`crate::EngineBuilder::watchdog`]). A cause appears in
/// `Degraded` after one violating interval and escalates to `Stalled`
/// after two consecutive ones; it clears as soon as an interval passes
/// clean. Without a watchdog the engine reports `Healthy` — unless its
/// configured WAL could not be opened ([`StallCause::WalUnavailable`]).
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

/// How many consecutive violating intervals escalate a cause from
/// `Degraded` to `Stalled`.
const STALL_ESCALATION_TICKS: u32 = 2;
/// Completed hot runs over the recency bound below which the tiering
/// backlog is never a violation (bursts of completions are normal).
const TIERING_BACKLOG_FLOOR: usize = 16;
/// LRU sheds per watchdog tick that count as thrash.
const SHED_THRASH_PER_TICK: u64 = 64;
/// Subscription deltas dropped per watchdog tick that count as lag.
const SUB_LAG_PER_TICK: u64 = 64;

/// Every cause the watchdog samples, in streak-array order.
const WATCHDOG_CAUSES: [StallCause; 5] = [
    StallCause::IngestWorker,
    StallCause::WalCommitLag,
    StallCause::TieringBacklog,
    StallCause::ShedThrash,
    StallCause::SubLag,
];

/// The watchdog's state in [`EngineShared`]: the latest verdict
/// (`Healthy` until a watchdog ever runs) together with the monitor
/// thread's controls.
pub(crate) type Watchdog = Ticker<Health>;

/// Start the monitor thread, sampling every `interval`.
pub(crate) fn spawn(shared: &Arc<EngineShared>, interval: Duration) {
    let worker = Arc::clone(shared);
    shared
        .watchdog
        .spawn("wf-watchdog", move || watchdog_loop(&worker, interval));
}

/// Body of the stall watchdog: every `interval`, sample each subsystem's
/// progress watermark, promote violations into the trace ring as `stall`
/// events, and publish the escalated verdict.
fn watchdog_loop(shared: &EngineShared, interval: Duration) {
    let interval_ns = interval.as_nanos() as u64;
    let marks = shared.ingest.marks();
    let mut last_applied: Vec<u64> = marks
        .iter()
        .map(|m| m.applied.load(Ordering::Relaxed))
        .collect();
    let mut last_backlog = 0usize;
    let mut last_sheds = shared.obs.segment_sheds.get();
    let mut last_sub_lagged = shared.obs.sub_lagged.get();
    let mut streaks = [0u32; WATCHDOG_CAUSES.len()];
    while shared.watchdog.sleep(interval) {
        let mut violated: Vec<StallCause> = Vec::new();
        // Ingest: a worker with queued envelopes whose applied watermark
        // did not move across the whole interval is wedged.
        let mut ingest_wedged = false;
        for (m, last) in marks.iter().zip(&mut last_applied) {
            let applied = m.applied.load(Ordering::Relaxed);
            let enqueued = m.enqueued.load(Ordering::Relaxed);
            if enqueued > applied && applied == *last {
                ingest_wedged = true;
            }
            *last = applied;
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
        // Tiering: completed hot runs that stay (or grow) past the floor
        // over the recency bound mean the worker fell behind.
        let backlog = shared.tiering_backlog();
        if backlog > TIERING_BACKLOG_FLOOR && backlog >= last_backlog {
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
        shared.watchdog.lock().shared = verdict;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunOp, ServiceEvent, SpecId, WfEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_run::{Execution, RunGenerator};

    /// Poll the verdict until `want` holds (the watchdog publishes on its
    /// own clock; ten seconds is two orders of magnitude of slack).
    fn await_health(engine: &WfEngine, interval: Duration, want: impl Fn(&Health) -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let verdict = engine.health();
            if want(&verdict) {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "watchdog never got there; last verdict {verdict:?}"
            );
            std::thread::sleep(interval / 4);
        }
    }

    /// `TieringBacklog` is read off the registry: the completed hot runs
    /// over the recency bound. With the tiering worker stopped, twenty
    /// completions over a bound of one leave nineteen owed, and the
    /// verdict escalates to `Stalled`.
    #[test]
    fn completed_runs_over_the_bound_stall_a_stopped_tiering_worker() {
        let interval = Duration::from_millis(10);
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .freeze_after(1)
            .watchdog(interval)
            .build();
        engine.shared.tiering.stop();
        let spec = &engine.context(SpecId(0)).unwrap().spec;
        let gen = RunGenerator::new(spec)
            .target_size(10)
            .generate_run(&mut StdRng::seed_from_u64(9));
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        for _ in 0..20 {
            let run = engine.open_run(SpecId(0)).unwrap();
            for ev in exec.events() {
                engine.submit(run, ev).unwrap();
            }
            engine.complete_run(run).unwrap();
        }
        assert_eq!(engine.shared.tiering_backlog(), 19);
        await_health(
            &engine,
            interval,
            |h| matches!(h, Health::Stalled { causes } if causes.contains(&StallCause::TieringBacklog)),
        );
    }

    /// `IngestWorker` is diagnosed from the ledger alone: a worker whose
    /// `enqueued` is ahead of an `applied` that stands still. Wedge one —
    /// its next envelope's apply blocks on a writer lock this test holds —
    /// and the verdict goes `Degraded`, then `Stalled`; let go, and the
    /// envelope lands, the flush returns and the verdict heals.
    #[test]
    fn a_wedged_ingest_worker_degrades_then_stalls_then_heals() {
        let interval = Duration::from_millis(20);
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .ingest_workers(2)
            .watchdog(interval)
            .build();
        let spec = &engine.context(SpecId(0)).unwrap().spec;
        let gen = RunGenerator::new(spec)
            .target_size(20)
            .generate_run(&mut StdRng::seed_from_u64(9));
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        let run = engine.open_run(SpecId(0)).unwrap();
        let slot = engine.shared.slot(run).unwrap();
        assert_eq!(engine.health(), Health::Healthy);

        let wedge = slot.hold_writer();
        let op = RunOp::Insert(exec.events()[0].clone());
        engine.ingest(ServiceEvent { run, op }).unwrap();
        let stalled = Health::Stalled {
            causes: vec![StallCause::IngestWorker],
        };
        await_health(&engine, interval, |h| *h == stalled);
        assert_eq!(engine.stats().ingest_backlog, 1);
        // The escalation, tick by tick: streak 1 published `Degraded`,
        // streak 2 `Stalled` (the ring is the witness a poll can miss).
        let streaks: Vec<String> = engine
            .trace_dump()
            .into_iter()
            .filter(|e| e.kind == "stall")
            .map(|e| e.detail)
            .collect();
        assert_eq!(
            streaks[..2],
            [
                "cause=ingest_worker streak=1",
                "cause=ingest_worker streak=2"
            ]
        );

        drop(wedge);
        assert_eq!(engine.flush(), 1, "the wedged envelope lands");
        assert_eq!(slot.indexed.len(), 1);
        await_health(&engine, interval, |h| *h == Health::Healthy);
    }
}
