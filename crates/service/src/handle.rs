//! Cloneable, lifetime-free, **tier-transparent** per-run handles.
//!
//! A handle owns what it touches by reference count: clone it, move it
//! into another thread, keep it after the engine drains (queries keep
//! working; writes are rejected once the run is no longer live).
//!
//! A handle holds the run's view as it was when the handle was taken:
//! a hot handle answers from the lock-free in-memory index (and keeps
//! doing so after a freeze), a sealed handle holds the run's one sealed
//! run and so follows it through persist and re-heat — it walks the
//! blob's frame, which a run on disk loads lazily from its pack.
//! Allocation-free either way; the query API is
//! identical across tiers.

use crate::engine::EngineShared;
use crate::ingest::{apply_waited, Op};
use crate::store::{RunView, Tier};
use crate::telemetry::SpanHandle;
use crate::{RunId, RunStatus, ServiceError, SpecContext};
use std::sync::Arc;
use wf_drl::{DrlLabel, DrlPredicate};
use wf_graph::{NameId, VertexId};
use wf_run::ExecEvent;

/// A cached per-run handle over one tier view. Every query method is
/// lock-free; on the hot tier a label lookup is two `Acquire` loads into
/// the run's write-once index and the reachability predicate reads only
/// the two labels plus the shared immutable skeleton. `Send + Sync +
/// 'static`; a clone shares everything by reference count.
#[derive(Clone)]
pub struct RunHandle {
    pub(crate) shared: Arc<EngineShared>,
    pub(crate) ctx: Arc<SpecContext>,
    pub(crate) run: RunId,
    pub(crate) view: RunView,
}

impl RunHandle {
    /// The run this handle is for.
    pub fn run(&self) -> RunId {
        self.run
    }

    /// The specification context the run labels against.
    pub fn context(&self) -> &Arc<SpecContext> {
        &self.ctx
    }

    /// The storage tier this handle reads from now: `Hot` for a handle
    /// taken before the run froze (take a fresh handle to follow the
    /// freeze), and for a sealed run a reading of where its blob sits —
    /// `Frozen` while its frame is held, `Persisted` otherwise — which
    /// follows persist and re-heat.
    pub fn tier(&self) -> Tier {
        self.view.tier()
    }

    /// True while queries through this handle cost no disk read: always
    /// for a hot view; for a sealed one while it has a frame (held, or
    /// loaded and not shed by the LRU).
    pub fn is_resident(&self) -> bool {
        self.view.is_resident()
    }

    /// Constant-time `u ; v` from published labels; `None` until both
    /// vertices' events have been applied. Allocation-free in every
    /// tier: the colder ones walk two label cursors over the arena bytes
    /// instead of decoding the two labels.
    pub fn reach(&self, u: VertexId, v: VertexId) -> Option<bool> {
        let obs = &self.shared.obs;
        // Sampled probe: time it and feed the latency histogram. The
        // unsampled path (the other 63 of 64) costs one branch and a
        // thread-local increment; a single `view.reach` call site keeps
        // the hot path's code layout tight.
        let span = if obs.reach_sampled() {
            obs.timer()
        } else {
            SpanHandle::inert()
        };
        let answer = self
            .view
            .reach(&DrlPredicate::new(&self.ctx.skeleton), u, v);
        if span.is_live() {
            obs.finish(
                span,
                &obs.h_reach,
                Some(self.run.0),
                Some(self.view.tier().name()),
                String::new,
            );
        }
        answer
    }

    /// Apply one insertion event on the calling thread — the engine's
    /// [`crate::WfEngine::ingest`] / [`crate::WfEngine::submit`] without
    /// the registry lookup, so the cheapest write for a caller that keeps
    /// a handle per run. Ordered against every other write of the run by
    /// its writer lock. A panic while applying is
    /// [`ServiceError::WorkerPanicked`], not an unwind. Rejected with
    /// [`ServiceError::ShuttingDown`] once the engine has drained:
    /// "ingest is closed" covers every flavor, including this one.
    /// Handles over sealed runs reject writes with the run's `Completed`
    /// status.
    pub fn submit(&self, ev: &ExecEvent) -> Result<(), ServiceError> {
        self.write(Op::Insert(ev))
    }

    /// Mark the run complete on the calling thread, after every write of
    /// the run that returned before the call (see [`Self::submit`] for
    /// drain behavior).
    pub fn complete(&self) -> Result<(), ServiceError> {
        self.write(Op::Complete)
    }

    /// Both writes: the engine's one door for a live write — admitted,
    /// journaled and applied under the run's writer lock, so a
    /// `complete()` here racing an insert of the same run from another
    /// thread orders log and memory identically.
    fn write(&self, op: Op<'_>) -> Result<(), ServiceError> {
        self.shared.ingest.check_open()?;
        let RunView::Hot(slot) = &self.view else {
            return Err(ServiceError::RunNotLive(self.run, self.view.status()));
        };
        apply_waited(&self.shared, self.run, slot, op)
    }

    /// The published label of `v`, if any — an owned copy, cloned from
    /// the hot index or decoded from the run's blob.
    pub fn label(&self, v: VertexId) -> Option<DrlLabel> {
        self.view.label(v)
    }

    /// Tell an empty read ("not labeled yet", `Ok(None)`) from a broken
    /// one: an error when nothing was read because the run's pack no
    /// longer loads.
    pub(crate) fn checked<T>(&self, read: Option<T>) -> Result<Option<T>, ServiceError> {
        match read {
            None => self.view.load_failure(self.run).map_or(Ok(None), Err),
            some => Ok(some),
        }
    }

    /// The module name `v` was published under, if labeled yet.
    pub fn name(&self, v: VertexId) -> Option<NameId> {
        self.view.name(v)
    }

    /// Published label length in bits (the accounting size, identical
    /// across tiers — encoding does not change the label).
    pub fn label_bits(&self, v: VertexId) -> Option<usize> {
        self.view.label_bits(v)
    }

    /// The run's source vertex (first applied event), once ingested.
    pub fn source(&self) -> Option<VertexId> {
        self.view.source()
    }

    /// Number of labels published so far — one per applied insertion
    /// (monotone under ingestion; final once the run froze).
    pub fn published(&self) -> usize {
        self.view.published()
    }

    /// The run's lifecycle status.
    pub fn status(&self) -> RunStatus {
        self.view.status()
    }
}
