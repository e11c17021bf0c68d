//! The persistent, channel-fed ingest worker pool.
//!
//! v1 spun up scoped threads per `submit_batch` call; v2 keeps a fixed
//! pool of workers alive for the engine's lifetime, each owning one
//! **bounded** FIFO queue (`std::sync::mpsc::sync_channel`, so a
//! saturated worker applies backpressure by blocking enqueues). Every
//! run is pinned to one worker by a hash of its id, which preserves
//! per-run event order with no coordination at all: one queue, one
//! consumer, FIFO.
//!
//! Two delivery modes share the same path:
//!
//! * **fire-and-forget** ([`crate::WfEngine::ingest`]): the envelope
//!   carries no tracker; failures are recorded on the run and in the
//!   engine's bounded error ring;
//! * **acknowledged** (the blocking `submit` / `submit_batch` wrappers):
//!   the envelope carries an [`BatchTracker`] the caller waits on — the
//!   worker records each op's outcome and wakes the caller when the
//!   whole batch has been processed.
//!
//! Either way the worker advances the engine's processed watermark,
//! which is what [`crate::WfEngine::flush`] waits on.

use crate::engine::{route_worker, EngineShared, RunSlot};
use crate::telemetry::SpanCtx;
use crate::{BatchOutcome, RunId, RunOp, ServiceError};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use wf_skeleton::SpecLabeling;

/// One routed unit of work: the op, the pre-resolved run slot (so
/// workers never touch the registry), and an optional ack tracker.
pub(crate) struct Envelope<S: SpecLabeling + 'static> {
    pub(crate) run: RunId,
    pub(crate) slot: Arc<RunSlot<S>>,
    pub(crate) op: RunOp,
    pub(crate) tracker: Option<Arc<BatchTracker>>,
    /// Causal context of the enqueue-side span for a sampled ingest
    /// ([`SpanCtx::NONE`] otherwise): the worker's apply span parents
    /// under it, stitching the trace across the thread boundary.
    pub(crate) span: SpanCtx,
}

/// Completion tracking for a blocking submission: counts outstanding
/// envelopes, collects failures, and remembers which runs died mid-batch
/// so their remaining ops are skipped (v1's isolation semantics).
pub(crate) struct BatchTracker {
    remaining: AtomicUsize,
    applied: AtomicUsize,
    state: Mutex<TrackerState>,
    done: Mutex<bool>,
    cv: Condvar,
}

struct TrackerState {
    failures: Vec<(RunId, ServiceError)>,
    /// Runs that hit a fatal error in this batch; later ops are skipped.
    dead: HashSet<u64>,
}

impl BatchTracker {
    pub(crate) fn new(expected: usize) -> Self {
        Self {
            remaining: AtomicUsize::new(expected),
            applied: AtomicUsize::new(0),
            state: Mutex::new(TrackerState {
                failures: Vec::new(),
                dead: HashSet::new(),
            }),
            done: Mutex::new(expected == 0),
            cv: Condvar::new(),
        }
    }

    /// Should this run's op be skipped (a previous op in the batch
    /// killed the run)?
    fn is_dead(&self, run: RunId) -> bool {
        self.state
            .lock()
            .expect("tracker lock poisoned")
            .dead
            .contains(&run.0)
    }

    /// Record one op's outcome. `applied` marks a successful insertion.
    fn record(&self, run: RunId, res: Result<bool, ServiceError>) {
        match res {
            Ok(true) => {
                self.applied.fetch_add(1, Ordering::Relaxed);
            }
            Ok(false) => {}
            Err(e) => {
                // A per-event rejection (an out-of-bounds vertex id)
                // leaves the run healthy; anything else means the run
                // cannot make progress in this batch.
                let fatal = !matches!(e, ServiceError::VertexOutOfBounds(..));
                let mut s = self.state.lock().expect("tracker lock poisoned");
                s.failures.push((run, e));
                if fatal {
                    s.dead.insert(run.0);
                }
            }
        }
        self.finish_one();
    }

    /// An envelope that never reached a worker (enqueue failed): shrink
    /// the expected count so `wait` still terminates.
    pub(crate) fn cancel_one(&self) {
        self.finish_one();
    }

    fn finish_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = self.done.lock().expect("tracker lock poisoned");
            *done = true;
            self.cv.notify_all();
        }
    }

    /// Block until every expected envelope has been processed, then
    /// collect the outcome.
    pub(crate) fn wait(&self) -> BatchOutcome {
        let mut done = self.done.lock().expect("tracker lock poisoned");
        while !*done {
            done = self.cv.wait(done).expect("tracker lock poisoned");
        }
        drop(done);
        let mut s = self.state.lock().expect("tracker lock poisoned");
        BatchOutcome {
            applied: self.applied.load(Ordering::Relaxed),
            failures: std::mem::take(&mut s.failures),
        }
    }
}

/// The worker pool: one bounded channel and one thread per worker.
/// Shutting down (or dropping) the pool closes the channels, lets each
/// worker drain its queue, and joins the threads.
pub(crate) struct IngestPool<S: SpecLabeling + Send + Sync + 'static> {
    senders: Option<Box<[SyncSender<Envelope<S>>]>>,
    workers: Vec<JoinHandle<()>>,
}

impl<S: SpecLabeling + Send + Sync + 'static> IngestPool<S> {
    /// Spawn `workers` persistent threads, each consuming a bounded
    /// queue of `queue_capacity` envelopes.
    pub(crate) fn start(
        shared: Arc<EngineShared<S>>,
        workers: usize,
        queue_capacity: usize,
    ) -> Self {
        let workers = workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = std::sync::mpsc::sync_channel::<Envelope<S>>(queue_capacity);
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("wf-ingest-{i}"))
                .spawn(move || worker_loop(&shared, &rx, i))
                .expect("spawn ingest worker");
            senders.push(tx);
            handles.push(handle);
        }
        Self {
            senders: Some(senders.into_boxed_slice()),
            workers: handles,
        }
    }

    /// Route an envelope to its run's worker, blocking if the worker's
    /// queue is full (backpressure). Fails with
    /// [`ServiceError::ShuttingDown`] once the pool is closed.
    pub(crate) fn send(&self, env: Envelope<S>) -> Result<(), ServiceError> {
        let senders = self.senders.as_ref().ok_or(ServiceError::ShuttingDown)?;
        let tx = &senders[route_worker(env.run, senders.len())];
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

impl<S: SpecLabeling + Send + Sync + 'static> Drop for IngestPool<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Worker body: consume envelopes until the channel closes. A panic
/// while applying one envelope (e.g. a lock poisoned by an earlier
/// panic) must neither kill the worker nor strand callers — the
/// [`Settle`] guard inside `process` still advances the watermark and
/// completes any tracker, and the loop moves on to the next envelope.
fn worker_loop<S: SpecLabeling + Send + Sync>(
    shared: &EngineShared<S>,
    rx: &Receiver<Envelope<S>>,
    index: usize,
) {
    while let Ok(env) = rx.recv() {
        // AssertUnwindSafe: all state `process` touches is behind
        // poisoning mutexes or atomics; a half-applied op marks itself
        // via lock poisoning, which later ops surface as errors.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| process(shared, env)));
        // Progress watermark for the stall watchdog: one relaxed add per
        // envelope, panic or not (the Settle guard already ran).
        shared.worker_marks[index]
            .applied
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Settles one envelope's accounting exactly once — on the normal path
/// *and* if applying the op panics. Dropping the guard advances the
/// processed watermark **before** delivering the outcome, so a caller
/// woken by its own blocking submit observes its event as processed
/// (zero backlog), and neither `flush()` nor a `BatchTracker::wait` can
/// hang on an envelope that died mid-apply.
struct Settle<'a, S: SpecLabeling + 'static> {
    shared: &'a EngineShared<S>,
    tracker: Option<Arc<BatchTracker>>,
    run: RunId,
    /// `None` at drop time means the op never produced a result: either
    /// an intentional dead-run skip (`skipped`) or a panic.
    outcome: Option<Result<bool, ServiceError>>,
    skipped: bool,
}

impl<S: SpecLabeling> Drop for Settle<'_, S> {
    fn drop(&mut self) {
        self.shared.note_processed();
        let outcome = match self.outcome.take() {
            Some(res) => res,
            None if self.skipped => {
                if let Some(tracker) = &self.tracker {
                    tracker.cancel_one();
                }
                return;
            }
            None => Err(ServiceError::WorkerPanicked(self.run)),
        };
        match (&self.tracker, outcome) {
            (Some(tracker), res) => tracker.record(self.run, res),
            (None, Err(e)) => self.shared.push_ingest_error(self.run, e),
            (None, Ok(_)) => {}
        }
    }
}

/// Apply one envelope and stage its outcome on the [`Settle`] guard.
fn process<S: SpecLabeling + Send + Sync>(shared: &EngineShared<S>, env: Envelope<S>) {
    let Envelope {
        run,
        slot,
        op,
        tracker,
        span: enqueue_span,
    } = env;
    let mut settle = Settle {
        shared,
        tracker,
        run,
        outcome: None,
        skipped: false,
    };
    if let Some(tracker) = &settle.tracker {
        if tracker.is_dead(run) {
            // A previous op of this batch killed the run: skip, but
            // still account for the envelope so the waiter wakes.
            settle.skipped = true;
            return;
        }
    }
    settle.outcome = Some(match &op {
        RunOp::Insert(ev) => {
            let obs = &shared.obs;
            // The sampling decision was made on the producer side: the
            // envelope carries a context only for the 1-in-64 sampled
            // ingests, and `begin_under` is inert for the rest. While
            // the apply span is open, the WAL append inside
            // `logged_apply_insert` traces as its child.
            let apply = obs.begin_under(enqueue_span);
            let res = shared.logged_apply_insert(run, &slot, ev);
            if res.is_ok() {
                // Fan out to standing queries while the apply span is
                // open, so sampled notifies trace as its children.
                shared.store.subs.notify_insert(
                    run,
                    slot.spec,
                    slot.source.get().copied(),
                    ev.vertex,
                    ev.name,
                    &slot.indexed,
                );
            }
            obs.finish(
                apply,
                &obs.h_ingest_apply,
                "ingest_apply",
                Some(run.0),
                Some("hot"),
                true,
                String::new,
            );
            shared.record_insert_outcome(&res);
            res.map(|()| true)
        }
        RunOp::Complete => {
            let res = shared.logged_complete(run, &slot);
            shared.record_complete_outcome(run, slot.spec, &res);
            res.map(|()| false)
        }
    });
}
