//! The write path: the one apply body every write goes through, the
//! ingest state it is accounted in, and the persistent worker pool.
//!
//! **One apply body.** The paper's write side is one step — `g_i =
//! g_{i-1} + (v_i, C_i)` gives `v_i` its permanent label — and [`apply`]
//! is the one place the engine performs it: hand the op and its journal
//! step to the run's [`RunSlot`] (which admits, journals and applies
//! under its writer lock), notify standing queries, record the counters
//! and the sampled span. Its three callers differ only in the [`Entry`]
//! they name: a pool worker, a caller who waits for the outcome, and
//! WAL recovery (whose journal step is empty — its records are already
//! in the rewritten log). The slot's writer lock around admission →
//! journal → apply is the whole argument for "a record is in the log iff
//! the op was admitted, the log orders a run's ops as memory does, and
//! no event slips in after a completion or an eviction".
//!
//! **Two doors.** A write whose caller does not wait
//! ([`crate::WfEngine::ingest`]) is an envelope on the [`IngestPool`];
//! its failure is recorded on the run and in the error ring. A write
//! whose caller waits — `submit`, `complete_run`, `submit_batch`,
//! [`crate::RunHandle::submit`] / `complete` — goes through
//! [`apply_waited`] on the caller's own thread: the writer lock already
//! orders it against every other write of the run, so nothing needs to
//! travel to a worker and back. The engine's blocking writes first wait
//! for their run's worker to settle what was enqueued before them
//! ([`Ingest::flush`] over that one worker), which keeps a run's order
//! across the two doors.
//!
//! **[`Ingest`]** owns everything the pipeline is accounted in: the
//! drain flag, the per-worker enqueued/applied marks — the one progress
//! ledger `flush()`, `stats()` and the watchdog all read — with the
//! flush condvar, and the bounded error ring of the fire-and-forget
//! path.
//!
//! **[`IngestPool`]** is the producer end: a fixed pool of workers alive
//! for the engine's lifetime, each owning one **bounded** FIFO queue
//! (`std::sync::mpsc::sync_channel`, so a saturated worker applies
//! backpressure by blocking enqueues). Every run is pinned to one worker
//! by a hash of its id, which preserves per-run event order with no
//! coordination at all: one queue, one consumer, FIFO. A worker advances
//! its `applied` mark once per envelope, applied, failed or panicked —
//! which is what [`crate::WfEngine::flush`] waits on.

use crate::engine::{route_worker, EngineShared, DEFAULT_MAX_VERTEX_ID};
use crate::slot::RunSlot;
use crate::telemetry::{current_span, set_current_span, SpanCtx, SpanHandle};
use crate::{RunId, RunOp, ServiceError, SpecId, Tier};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use wf_run::ExecEvent;
use wf_wal::{RecordKind, CHECKPOINT_SEQ};

/// How many recent fire-and-forget ingest errors the engine retains for
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

/// Which entry point is applying: decides whether the op is journaled
/// and where a sampled apply span hangs.
#[derive(Clone, Copy)]
pub(crate) enum Entry {
    /// A pool worker. The sampling decision was made on the producer
    /// side: the context is [`SpanCtx::NONE`] for all but the 1-in-64
    /// sampled enqueues, whose apply span parents under it.
    Pool(SpanCtx),
    /// A caller who waits for the outcome, on its own thread
    /// ([`apply_waited`]): a sampled apply opens a root span (there is
    /// no enqueue parent).
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
    let span = match (op, entry) {
        (Op::Complete, _) => SpanHandle::inert(),
        (Op::Insert(_), Entry::Pool(parent)) => obs.begin_under(parent),
        (Op::Insert(_), _) if obs.apply_sampled() => obs.begin(),
        (Op::Insert(_), _) => SpanHandle::inert(),
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

/// **The one door for a write whose caller waits**: [`apply`] on the
/// caller's thread. A panic inside it comes back as
/// [`ServiceError::WorkerPanicked`] — the outcome the pool reports for
/// the same panic — never as an unwind into the caller, and the thread's
/// span context is put back. Ordering against the pool is the caller's
/// part: the engine's blocking writes settle the run's worker first, a
/// [`crate::RunHandle`] writer is its run's single writer.
pub(crate) fn apply_waited(
    shared: &EngineShared,
    run: RunId,
    slot: &RunSlot,
    op: Op<'_>,
) -> Result<(), ServiceError> {
    let ctx = current_span();
    // AssertUnwindSafe: as in `worker_loop`.
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
            Op::Insert(ev) => shared.journal(run, RecordKind::Event, seq, |out| {
                wf_drl::encode::write_event(out, ev);
            }),
            Op::Complete => shared.journal(run, RecordKind::Complete, seq, |_| {}),
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

/// A counter on a cache line of its own. There are two per worker: the
/// producers bump its `enqueued`, the worker its `applied`, and both
/// read the pointers around them for every event too: left to share
/// lines — with each other, or with whatever the allocator places next
/// to them — each bump invalidates the other thread's line (measured,
/// together with the alignment of [`RunSlot`]: −8 % solo-ingest
/// events/s without, in or out depending on nothing but field order and
/// where `malloc` put the struct). A run's query count is one too,
/// bumped by every `reach` beside the writer's stores to its slot.
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

/// One worker's line of the progress ledger — the only per-event
/// progress counters there are. `applied ≤ enqueued` at all times: the
/// producer counts an envelope before it sends it, the worker after it
/// has settled it.
pub(crate) struct WorkerMark {
    /// Envelopes handed to this worker's queue…
    pub(crate) enqueued: LineCounter,
    /// …and envelopes it finished (applied, failed or skipped).
    pub(crate) applied: LineCounter,
}

/// The ingest pipeline's shared state — what producers, workers,
/// handles, `flush()` and the watchdog all account in.
pub(crate) struct Ingest {
    /// Set once by [`Self::close`]: ingest is closed in every flavor.
    draining: AtomicBool,
    flush_waiters: AtomicUsize,
    flush_lock: Mutex<()>,
    flush_cv: Condvar,
    /// One slot per pool worker, indexed like the pool's senders.
    marks: Box<[WorkerMark]>,
    /// Recent failures from the fire-and-forget path (bounded); the
    /// background tiering worker reports here too.
    errors: Mutex<VecDeque<(RunId, ServiceError)>>,
}

impl Ingest {
    pub(crate) fn new(workers: usize) -> Self {
        Self {
            draining: AtomicBool::new(false),
            flush_waiters: AtomicUsize::new(0),
            flush_lock: Mutex::new(()),
            flush_cv: Condvar::new(),
            marks: (0..workers.max(1))
                .map(|_| WorkerMark {
                    enqueued: LineCounter::new(),
                    applied: LineCounter::new(),
                })
                .collect(),
            errors: Mutex::new(VecDeque::new()),
        }
    }

    /// The per-worker marks; their count is the pool's worker count.
    pub(crate) fn marks(&self) -> &[WorkerMark] {
        &self.marks
    }

    /// `(enqueued, applied)` summed over the workers — their difference
    /// is the backlog.
    pub(crate) fn watermarks(&self) -> (u64, u64) {
        self.marks.iter().fold((0, 0), |(enqueued, applied), m| {
            // `applied` first: a worker's never passes its `enqueued`,
            // so read in this order neither do the sums.
            let a = m.applied.load(Ordering::Acquire);
            (enqueued + m.enqueued.load(Ordering::Acquire), applied + a)
        })
    }

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

    /// Remember a failure from the fire-and-forget path so callers that
    /// never wait on an outcome can still observe what went wrong.
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

    /// Take the flush lock. It guards no data, only the order of a
    /// flusher's check-then-wait against a worker's wake-up, so a
    /// poisoned one is recovered.
    fn flush_guard(&self) -> MutexGuard<'_, ()> {
        self.flush_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// One of `worker`'s envelopes finished: advance its mark and wake
    /// flushers. `Release` pairs with the `Acquire` loads in
    /// [`Self::flush`]: a flusher that sees the count sees the label (or
    /// the error-ring entry) published before it.
    fn note_applied(&self, worker: usize) {
        self.marks[worker].applied.fetch_add(1, Ordering::Release);
        if self.flush_waiters.load(Ordering::Acquire) > 0 {
            // Take the lock before notifying so a flusher between its
            // watermark check and its wait cannot miss the wakeup.
            let _g = self.flush_guard();
            self.flush_cv.notify_all();
        }
    }

    /// Block until each of `workers` has finished what was enqueued on
    /// it before this call; returns the applied watermark, summed over
    /// every worker, observed on exit. [`crate::WfEngine::flush`] waits
    /// on all of them, a blocking write on its run's worker alone — so
    /// it applies after every envelope of the run queued before it.
    pub(crate) fn flush(&self, workers: impl IntoIterator<Item = usize>) -> u64 {
        let targets: Vec<(&WorkerMark, u64)> = workers
            .into_iter()
            .map(|w| &self.marks[w])
            .map(|m| (m, m.enqueued.load(Ordering::Acquire)))
            .collect();
        let reached = || {
            targets
                .iter()
                .all(|(m, target)| m.applied.load(Ordering::Acquire) >= *target)
        };
        if !reached() {
            self.flush_waiters.fetch_add(1, Ordering::AcqRel);
            let mut g = self.flush_guard();
            while !reached() {
                // Timed wait as a backstop: correctness never depends on
                // a perfectly-delivered notification.
                let (g2, _) = self
                    .flush_cv
                    .wait_timeout(g, std::time::Duration::from_millis(25))
                    // As in `flush_guard`: no data behind the lock.
                    .unwrap_or_else(PoisonError::into_inner);
                g = g2;
            }
            drop(g);
            self.flush_waiters.fetch_sub(1, Ordering::AcqRel);
        }
        self.watermarks().1
    }
}

/// One routed unit of work: the op and the pre-resolved run slot (so
/// workers never touch the registry).
pub(crate) struct Envelope {
    pub(crate) run: RunId,
    pub(crate) slot: Arc<RunSlot>,
    pub(crate) op: RunOp,
    /// Causal context of the enqueue-side span for a sampled ingest
    /// ([`SpanCtx::NONE`] otherwise): the worker's apply span parents
    /// under it, stitching the trace across the thread boundary.
    pub(crate) span: SpanCtx,
}

impl Envelope {
    pub(crate) fn new(run: RunId, slot: Arc<RunSlot>, op: RunOp) -> Self {
        Self {
            run,
            slot,
            op,
            span: SpanCtx::NONE,
        }
    }
}

/// The worker pool: one bounded channel and one thread per worker.
/// Shutting down (or dropping) the pool closes the channels, lets each
/// worker drain its queue, and joins the threads.
pub(crate) struct IngestPool {
    senders: Option<Box<[SyncSender<Envelope>]>>,
    workers: Vec<JoinHandle<()>>,
}

impl IngestPool {
    /// Spawn one persistent thread per [`Ingest`] worker mark, each
    /// consuming a bounded queue of `queue_capacity` envelopes.
    pub(crate) fn start(shared: &Arc<EngineShared>, queue_capacity: usize) -> Self {
        let workers = shared.ingest.marks.len();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = std::sync::mpsc::sync_channel::<Envelope>(queue_capacity);
            let shared = Arc::clone(shared);
            let handle = std::thread::Builder::new()
                .name(format!("wf-ingest-{i}"))
                .spawn(move || worker_loop(&shared, &rx, i))
                // `build()` is infallible, and callers rely on it: an
                // engine that cannot start a thread has nothing to run on.
                .expect("spawn ingest worker");
            senders.push(tx);
            handles.push(handle);
        }
        Self {
            senders: Some(senders.into_boxed_slice()),
            workers: handles,
        }
    }

    /// **Enqueue** one envelope on its run's worker, blocking if the
    /// worker's queue is full (backpressure). Fails with
    /// [`ServiceError::ShuttingDown`] once the pool is closed.
    pub(crate) fn enqueue(
        &self,
        shared: &EngineShared,
        mut env: Envelope,
    ) -> Result<(), ServiceError> {
        let (obs, ingest) = (&shared.obs, &shared.ingest);
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
        let worker = route_worker(run, ingest.marks.len());
        // Counted before the send, so the worker's `applied` can never
        // pass it; taken back if the envelope was never queued, so no
        // flush waits on it.
        let enqueued = &ingest.marks[worker].enqueued;
        enqueued.fetch_add(1, Ordering::AcqRel);
        let res = self.send(worker, env);
        if res.is_err() {
            enqueued.fetch_sub(1, Ordering::AcqRel);
        }
        obs.finish(root, &obs.h_ingest_enqueue, Some(run.0), None, String::new);
        res
    }

    fn send(&self, worker: usize, env: Envelope) -> Result<(), ServiceError> {
        let senders = self.senders.as_ref().ok_or(ServiceError::ShuttingDown)?;
        let tx = &senders[worker];
        // Fast path first: `try_send` avoids the blocking machinery when
        // the queue has room (the common case).
        match tx.try_send(env) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(env)) => tx.send(env).map_err(|_| ServiceError::ShuttingDown),
            Err(TrySendError::Disconnected(_)) => Err(ServiceError::ShuttingDown),
        }
    }

    /// Close every queue and join the workers. Each worker finishes its
    /// remaining envelopes first — a graceful drain, not an abort.
    pub(crate) fn shutdown(&mut self) {
        self.senders = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for IngestPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Worker body: consume envelopes until the channel closes. Each one
/// is settled exactly once, applied or not: a failure — a panic
/// included, which neither kills the worker nor leaves the thread under
/// the dead span's context — reaches the error ring, *then* the
/// worker's `applied` mark advances, so a `flush()` that covers the
/// envelope returns with its error already in the ring.
fn worker_loop(shared: &EngineShared, rx: &Receiver<Envelope>, index: usize) {
    let ingest = &shared.ingest;
    while let Ok(env) = rx.recv() {
        let (run, slot) = (env.run, &env.slot);
        let ctx = current_span();
        // AssertUnwindSafe: all state `apply` touches is behind
        // poisoning mutexes or atomics; a half-applied op leaves the
        // run's writer lock poisoned, and `panicked` fails the run.
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            apply(shared, run, slot, Op::from(&env.op), Entry::Pool(env.span))
        }));
        set_current_span(ctx);
        if let Err(e) = res.unwrap_or_else(|_| panicked(run, slot)) {
            ingest.push_error(run, e);
        }
        ingest.note_applied(index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::tests::poison;
    use crate::{RunStatus, ServiceEvent, WfEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_drl::ResolutionMode;
    use wf_run::{Execution, RunGenerator};
    use wf_spec::GraphId;

    /// An apply that panics on a worker — a log-based event naming a
    /// graph the specification does not have is an index panic inside
    /// the labeler — settles like any other envelope: its worker's
    /// `applied` advances exactly once (no flush hangs, no backlog is
    /// left standing), `WorkerPanicked` reaches the error ring, the run
    /// reads `Failed`, and the worker lives on to serve the next
    /// envelope.
    #[test]
    fn a_panicking_apply_advances_its_mark_once() {
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .ingest_workers(2)
            .build();
        let spec = &engine.context(SpecId(0)).unwrap().spec;
        let gen = RunGenerator::new(spec)
            .target_size(20)
            .generate_run(&mut StdRng::seed_from_u64(5));
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        let (first, second) = (&exec.events()[0], &exec.events()[1]);
        let mut bad = second.clone();
        bad.origin.0 = GraphId(u32::MAX);

        let ingest = &engine.shared.ingest;
        let run = engine
            .open_run_with(SpecId(0), ResolutionMode::LogBased)
            .unwrap();
        let mark = &ingest.marks[route_worker(run, ingest.marks.len())];
        let progress = || {
            (
                mark.enqueued.load(Ordering::Acquire),
                mark.applied.load(Ordering::Acquire),
            )
        };
        let send = |ev: &ExecEvent| {
            let op = RunOp::Insert(ev.clone());
            engine.ingest(ServiceEvent { run, op }).unwrap();
            engine.flush();
        };
        send(first);
        assert_eq!(progress(), (1, 1));

        let panicked = ServiceError::WorkerPanicked(run);
        send(&bad);
        assert_eq!(engine.take_ingest_errors(), [(run, panicked.clone())]);
        assert_eq!(progress(), (2, 2));
        assert_eq!(engine.stats().ingest_backlog, 0);
        assert_eq!(engine.run_status(run), Ok(RunStatus::Failed));

        // The panic poisoned the run's writer lock; the worker itself
        // is fine and reports that for the run's next event.
        send(second);
        assert_eq!(engine.take_ingest_errors(), [(run, panicked)]);
        assert_eq!(progress(), (3, 3));
        assert_eq!(ingest.watermarks(), (3, 3));
        assert_eq!(engine.flush(), 3);
    }

    /// The ingest path's and the watchdog's locks are recovered, not
    /// `expect`ed: each guards a value that is valid between any two
    /// statements. With the error ring, the flush lock and the watchdog's
    /// ticker poisoned, a flush that has to wait, the error ring, the
    /// watchdog's verdict and the engine's drop all go on.
    #[test]
    fn poisoned_ingest_and_watchdog_locks_are_recovered() {
        let interval = std::time::Duration::from_millis(5);
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .ingest_workers(1)
            .watchdog(interval)
            .build();
        let ingest = &engine.shared.ingest;
        poison(|| ingest.errors.lock());
        poison(|| ingest.flush_lock.lock());
        poison(|| engine.shared.watchdog.lock());
        assert!(ingest.errors.is_poisoned() && ingest.flush_lock.is_poisoned());

        let spec = &engine.context(SpecId(0)).unwrap().spec;
        let gen = RunGenerator::new(spec)
            .target_size(20)
            .generate_run(&mut StdRng::seed_from_u64(11));
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        let run = engine.open_run(SpecId(0)).unwrap();
        let slot = engine.shared.slot(run).unwrap();
        let mut bad = exec.events()[0].clone();
        bad.vertex = wf_graph::VertexId(u32::MAX);
        // Wedge the worker so the flush below has to wait on the lock.
        let wedge = slot.hold_writer();
        for ev in exec.events().iter().chain([&bad]) {
            let op = RunOp::Insert(ev.clone());
            engine.ingest(ServiceEvent { run, op }).unwrap();
        }
        let total = exec.len() as u64 + 1;
        // The watchdog thread lives on: it sees the wedge, then the heal.
        let await_health = |healthy: bool| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while (engine.health() == crate::Health::Healthy) != healthy {
                assert!(std::time::Instant::now() < deadline, "the watchdog died");
                std::thread::sleep(interval);
            }
        };
        await_health(false);
        std::thread::scope(|s| {
            let flusher = s.spawn(|| engine.flush());
            while ingest.flush_waiters.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            drop(wedge);
            assert_eq!(flusher.join().unwrap(), total);
        });
        assert_eq!(slot.indexed.len(), exec.len());
        let out_of_bounds = ServiceError::VertexOutOfBounds(run, bad.vertex);
        assert_eq!(engine.take_ingest_errors(), [(run, out_of_bounds)]);
        await_health(true);
    }
}
