//! **wf-sub** — standing queries with incremental delta maintenance.
//!
//! The cross-run query surface ([`crate::CrossRunQuery`]) is pull-only:
//! a dashboard asking "which runs link N₁ to N₂?" rescans every tier on
//! every refresh. This module turns the same three lineage predicates
//! into *standing* queries: [`crate::WfEngine::subscribe`] registers a
//! [`SubPredicate`] and returns a cloneable [`Subscription`] that yields
//! typed [`Delta`] events as the fleet evolves — no rescans.
//!
//! ## Why incremental maintenance is cheap here
//!
//! Published labels are **write-once** ([`crate::index::LabelIndex`]) and
//! reachability answers are permanent, so every predicate match is
//! *monotone* while a run lives: a witness, once found, never un-matches.
//! Maintenance therefore reduces to a per-run [`RunMatcher`] state
//! machine fed exactly one `(vertex, name, label)` triple per applied
//! event — the same state machine, through the same one `feed`, that the
//! subscribe-time catch-up and the pull API drive with a full scan
//! ([`scan_view`]), so the incremental and rescan answers cannot drift.
//! A matcher holds vertex ids, not labels: a label lives once, in its
//! run, and is read back through the run's borrowed [`Labels`] reader
//! whenever the matcher evaluates — a `u32` per relevant vertex, and no
//! copy that could outlive the run. A run leaves a subscription's scope
//! only when it is evicted, so that is the one source of `Removed`
//! deltas. A storage tier is not a scope: a freeze, spill or re-heat
//! changes how a run's labels are stored, never what they answer, so it
//! sends no delta.
//!
//! ## Delivery, backpressure, and the no-dup/no-drop argument
//!
//! Each subscription owns one bounded queue (drop-**oldest** on
//! overflow); dropped deltas surface as a typed [`Delta::Lagged`] at the
//! next receive, with exact accounting (`delivered + dropped ==
//! produced`). Registration races are closed by lock ordering: the
//! registry `RwLock` totally orders a writer's fan-out against
//! `subscribe`'s insert, so a notify that misses a new subscriber
//! happens-before that subscriber's catch-up scan — which then reads the
//! already-published label. Both firing is harmless: the matcher's
//! per-vertex `seen` set makes every feed idempotent. A subscription
//! keeps no copy of a run's facts. Completion is read from the run —
//! its status — under the subscription's state lock: the run stores
//! `Completed` before its completion fan-out takes that lock, so a
//! notify or catch-up that still reads `Live` is ordered before the
//! fan-out, which then finds its state and delivers, and one ordered
//! after it reads `Completed` and delivers itself. The record of an
//! eviction is registry membership: run ids are never reused, so a run
//! the store's registry does not hold has been evicted, and a delayed
//! notify that checks it under the subscription's state lock cannot
//! resurrect a removed run's deltas. The handles are counted by the
//! `Arc` of the one guard they share, whose drop closes the stream.
//!
//! The hub ([`SubHub`]) is a field of the engine, beside the store, not
//! inside it: the store contains no subscription code. Lock order,
//! outermost first: the hub's `registry` → a subscription's `state` →
//! {its `queue`, one store shard read lock}. No holder of a store lock
//! ever takes a subscription lock, so the order is acyclic.
//!
//! ## A panic costs one subscription
//!
//! The fan-outs run on writing threads, on the evicting thread and on
//! the subscribing thread — entered under no store lock — so nothing
//! here may panic on a poisoned lock: that would turn one subscription's
//! fault into a write reporting `WorkerPanicked` for an event that
//! *was* applied. A
//! poisoned per-subscription lock (`state`, `queue`) means a thread
//! panicked part-way through that subscription's matcher or queue, so
//! its stream can no longer be trusted: [`SubCore::own`], the one way
//! either is taken, closes the subscription — its consumers see the
//! stream end — and every fan-out skips it. The one hub-wide lock
//! (`registry`) guards a `Vec` push / retain, valid at every step, so
//! its guard is recovered.

use crate::engine::EngineShared;
use crate::slot::RunSlot;
use crate::store::{Labels, RunView, Tier};
use crate::telemetry::{SpanHandle, Telemetry};
use crate::{RunId, RunStatus, SpecContext, SpecId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};
use wf_drl::{DrlLabel, DrlPredicate, LabelRef};
use wf_graph::{NameId, VertexId};
use wf_skeleton::TclSpecLabels;

/// Default bound of each subscription's notify queue
/// ([`crate::EngineBuilder::sub_queue_capacity`]).
pub const DEFAULT_SUB_QUEUE_CAPACITY: usize = 1024;

/// The predicate forms shared by the pull queries and subscriptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PredKind {
    /// Vertices published under one name
    /// ([`crate::CrossRunQuery::vertices_named`]).
    Vertices(NameId),
    /// Vertices named N reachable from the run's source
    /// ([`crate::CrossRunQuery::runs_reaching_named_from_source`]).
    Reaching(NameId),
    /// Some vertex named `from` reaches some vertex named `to`
    /// ([`crate::CrossRunQuery::runs_linking`]).
    Linking(NameId, NameId),
}

impl PredKind {
    /// Cheap pre-filter for the notify hot path: can this event possibly
    /// advance the matcher? Must be implied by [`RunMatcher::feed`]'s
    /// early returns, so skipping irrelevant events never loses a match.
    #[inline]
    fn relevant(self, name: NameId) -> bool {
        match self {
            PredKind::Vertices(n) => name == n,
            // The source is not an event a `Reaching` matcher waits
            // for: its label is read from the run when a name-matching
            // candidate arrives (the source is the run's first applied
            // event, so its label is published by then). Idle
            // reaching-subscriptions therefore cost nothing per run.
            PredKind::Reaching(n) => name == n,
            PredKind::Linking(a, b) => name == a || name == b,
        }
    }

    /// This predicate's contribution to the hub's name-interest filter:
    /// a bitmap over `name.0 % 64`.
    #[inline]
    fn interest_bits(self) -> u64 {
        match self {
            PredKind::Vertices(n) | PredKind::Reaching(n) => 1u64 << (n.0 & 63),
            PredKind::Linking(a, b) => (1u64 << (a.0 & 63)) | (1u64 << (b.0 & 63)),
        }
    }
}

/// A standing lineage predicate: one of the three cross-run query forms,
/// optionally scoped by specification and completion status — the
/// lineage axes of [`crate::CrossRunQuery`]. (Its storage-tier axis is
/// not one: a tier move changes no match.)
///
/// ```
/// # use wf_service::{SubPredicate, SpecId};
/// # use wf_graph::NameId;
/// let pred = SubPredicate::runs_linking(NameId(3), NameId(7))
///     .spec(SpecId(0))
///     .completed();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubPredicate {
    pub(crate) kind: PredKind,
    pub(crate) spec: Option<SpecId>,
    pub(crate) completed_only: bool,
}

impl SubPredicate {
    fn new(kind: PredKind) -> Self {
        Self {
            kind,
            spec: None,
            completed_only: false,
        }
    }

    /// Match every published vertex named `name`; each match is one
    /// `Added` with a [`Witness::Vertex`].
    pub fn vertices_named(name: NameId) -> Self {
        Self::new(PredKind::Vertices(name))
    }

    /// Match runs whose source reaches a vertex named `name`; each
    /// reachable vertex is one `Added` with a [`Witness::Reach`].
    pub fn runs_reaching_named_from_source(name: NameId) -> Self {
        Self::new(PredKind::Reaching(name))
    }

    /// Match runs where some vertex named `from` reaches some vertex
    /// named `to`; one `Added` per matching run, carrying the first
    /// witnessing pair as a [`Witness::Link`].
    pub fn runs_linking(from: NameId, to: NameId) -> Self {
        Self::new(PredKind::Linking(from, to))
    }

    /// Restrict to runs of one specification.
    #[must_use]
    pub fn spec(mut self, spec: SpecId) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Defer deltas until the run completes: matches accumulate silently
    /// while the run is live and flush as `Added` on completion (still
    /// incremental — completion is an edge, not a rescan).
    #[must_use]
    pub fn completed(mut self) -> Self {
        self.completed_only = true;
        self
    }
}

/// Evidence carried by `Added`/`Removed` deltas — the same witnesses the
/// pull API returns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Witness {
    /// A vertex published under the subscribed name.
    Vertex(VertexId),
    /// The run's source reaches `target`.
    Reach {
        /// The reachable vertex named as subscribed.
        target: VertexId,
    },
    /// `from` reaches `to` (first witnessing pair found).
    Link {
        /// The reaching vertex (named as the predicate's `from`).
        from: VertexId,
        /// The reached vertex (named as the predicate's `to`).
        to: VertexId,
    },
}

/// One subscription event. At quiescence the accumulated set of
/// `(run, witness)` pairs from `Added` minus `Removed` equals the
/// corresponding pull query's answer — the invariant
/// `tests/subscriptions.rs` proves against a full-rescan oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delta {
    /// A new match entered the subscription's scope.
    Added {
        /// The matching run.
        run: RunId,
        /// The evidence.
        witness: Witness,
    },
    /// A previously-`Added` match left the scope: its run was evicted.
    /// Never emitted for a witness that was not delivered.
    Removed {
        /// The run.
        run: RunId,
        /// The witness being retracted.
        witness: Witness,
    },
    /// A run in the subscription's spec scope completed.
    RunCompleted {
        /// The completed run.
        run: RunId,
    },
    /// The bounded queue overflowed since the last receive: `dropped`
    /// deltas were discarded (oldest first). Delivered first, before any
    /// queued delta, so a lagging consumer learns it lagged immediately.
    Lagged {
        /// Exact number of deltas dropped since the last receive.
        dropped: u64,
    },
}

/// Incremental match state for one `(subscription, run)` pair — also
/// driven to completion in one pass by the pull queries via
/// [`scan_view`], which is what keeps the two answer paths equal by
/// construction.
///
/// It holds vertex ids, never labels: a label lives once, in its run,
/// and the matcher asks the run's [`Labels`] reader for it each time it
/// evaluates. Feeding is idempotent per vertex (`seen`), so the
/// subscribe-time catch-up scan and a concurrently racing per-event
/// notify can overlap without duplicating a witness.
pub(crate) struct RunMatcher {
    kind: PredKind,
    /// Relevant vertices already fed (set-based dedup: the hot index
    /// iterates in vertex order, not publish order, so a count cursor
    /// would be unsound).
    seen: HashSet<u32>,
    /// `from`-named vertices fed so far (Linking, until linked).
    froms: Vec<VertexId>,
    /// `to`-named vertices fed so far (Linking, until linked).
    tos: Vec<VertexId>,
    linked: bool,
}

impl RunMatcher {
    pub(crate) fn new(kind: PredKind) -> Self {
        Self {
            kind,
            seen: HashSet::new(),
            froms: Vec::new(),
            tos: Vec::new(),
            linked: false,
        }
    }

    /// Advance the matcher with one published `(vertex, name, label)` of
    /// the run `labels` reads — the matcher's one entry point, for the
    /// push notify, the catch-up and the pull scan alike. The label is
    /// borrowed — a cold tier's is still encoded — and walked only if
    /// the name makes the vertex relevant; `None` when the caller does
    /// not hold it, and then it is read from `labels` only for a relevant
    /// vertex. A label that no longer decodes is treated as never
    /// published. `emit` receives each fresh witness, in discovery
    /// order; the return value is the number of constant-time predicate
    /// evaluations (the pull path adds it to the run's query counter).
    pub(crate) fn feed(
        &mut self,
        predicate: &DrlPredicate<'_, TclSpecLabels>,
        labels: &Labels<'_>,
        v: VertexId,
        name: NameId,
        label: Option<LabelRef<'_>>,
        emit: &mut dyn FnMut(Witness),
    ) -> u64 {
        match self.kind {
            PredKind::Vertices(n) => {
                if name == n && self.seen.insert(v.0) {
                    emit(Witness::Vertex(v));
                }
                0
            }
            PredKind::Reaching(n) => {
                if name != n || !self.seen.insert(v.0) {
                    return 0;
                }
                // A visible candidate implies a visible source.
                let (Some(source), Some(label)) =
                    (labels.source(), label.or_else(|| labels.label(v)))
                else {
                    return 0;
                };
                if predicate.reaches_ref(source, label) == Some(true) {
                    emit(Witness::Reach { target: v });
                }
                1
            }
            PredKind::Linking(a, b) => {
                let (is_from, is_to) = (name == a, name == b);
                if self.linked || (!is_from && !is_to) || !self.seen.insert(v.0) {
                    return 0;
                }
                let Some(label) = label.or_else(|| labels.label(v)) else {
                    return 0;
                };
                // A cold label that meets more than one stored
                // counterpart is decoded once, for this feed only — not
                // walked from its bytes once per pair. Against a single
                // counterpart the walk, which stops where the two
                // labels part, costs less than a whole decode.
                let pairs =
                    usize::from(is_from) * self.tos.len() + usize::from(is_to) * self.froms.len();
                let decoded = match label {
                    LabelRef::Encoded { .. } if pairs > 1 => label.to_label(),
                    _ => None,
                };
                let label = decoded.as_ref().map_or(label, DrlLabel::view);
                let (mut evaluated, mut link) = (0, None);
                if is_from {
                    link = self.tos.iter().find_map(|&to| {
                        evaluated += 1;
                        let hit = predicate.reaches_ref(label, labels.label(to)?) == Some(true);
                        hit.then_some(Witness::Link { from: v, to })
                    });
                }
                if link.is_none() && is_to {
                    link = self.froms.iter().find_map(|&from| {
                        evaluated += 1;
                        let hit = predicate.reaches_ref(labels.label(from)?, label) == Some(true);
                        hit.then_some(Witness::Link { from, to: v })
                    });
                }
                if let Some(w) = link {
                    // A run links at most once; free the scratch ids.
                    self.linked = true;
                    (self.seen, self.froms, self.tos) = Default::default();
                    emit(w);
                } else {
                    if is_from {
                        self.froms.push(v);
                    }
                    if is_to {
                        self.tos.push(v);
                    }
                }
                evaluated
            }
        }
    }
}

/// Feed every published label of `view` to `matcher` and add its
/// predicate evaluations to the run's query counter; the number of
/// labels fed.
fn feed_view(
    matcher: &mut RunMatcher,
    predicate: &DrlPredicate<'_, TclSpecLabels>,
    view: &RunView,
    emit: &mut dyn FnMut(Witness),
) -> u64 {
    let (fed, evaluated) = view
        .with_labels(|labels| {
            let (mut fed, mut evaluated) = (0, 0);
            labels.for_each(|v, n| {
                fed += 1;
                evaluated += matcher.feed(predicate, labels, v, n, None, emit);
            });
            (fed, evaluated)
        })
        .unwrap_or_default();
    if evaluated > 0 {
        view.queries().fetch_add(evaluated, Ordering::Relaxed);
    }
    fed
}

/// Drive a fresh [`RunMatcher`] over every published label of `view` —
/// the full-rescan evaluation the pull queries use, and the oracle the
/// incremental path is tested against.
pub(crate) fn scan_view(
    view: &RunView,
    ctx: &SpecContext,
    kind: PredKind,
    mut emit: impl FnMut(Witness),
) {
    let predicate = DrlPredicate::new(&ctx.skeleton);
    feed_view(&mut RunMatcher::new(kind), &predicate, view, &mut emit);
}

/// Per-run delta state of one subscription: the matcher, every witness
/// found so far (monotone while the run lives), and how much of that
/// list is currently delivered as `Added`. The run's status is not
/// here: it is read from the run.
struct RunSubState {
    matcher: RunMatcher,
    /// All witnesses discovered, in discovery order (append-only).
    matches: Vec<Witness>,
    /// `matches[..emitted]` have an outstanding `Added`; an eviction
    /// retracts exactly this prefix.
    emitted: usize,
}

impl RunSubState {
    fn new(kind: PredKind) -> Self {
        Self {
            matcher: RunMatcher::new(kind),
            matches: Vec::new(),
            emitted: 0,
        }
    }
}

/// The bounded notify queue. Overflow drops the *oldest* delta
/// (tokio-broadcast style): a lagging consumer keeps the freshest view
/// and learns exactly how much it missed.
struct SubQueue {
    deque: VecDeque<Delta>,
    /// Deltas dropped since the last receive (surfaced as one `Lagged`).
    dropped: u64,
}

/// Shared core of one subscription: predicate, per-run delta state, and
/// the bounded queue. Cloned [`Subscription`] handles share one core —
/// and therefore one delta stream — with the registry row.
pub(crate) struct SubCore {
    pred: SubPredicate,
    /// Per-run state, keyed by run id. Never held while taking the
    /// hub's registry lock; a fan-out takes one store shard read lock
    /// under it. Emptied when the last handle drops; take it through
    /// [`Self::runs`].
    state: Mutex<HashMap<u64, RunSubState>>,
    queue: Mutex<SubQueue>,
    /// Bound of `queue`.
    capacity: usize,
    cv: Condvar,
    closed: AtomicBool,
    /// The hub's open-subscription count, decremented exactly once on
    /// close (the `wf_subscriptions` gauge and the notify fast path).
    active: Arc<AtomicUsize>,
}

impl SubCore {
    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    fn close(&self) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            self.active.fetch_sub(1, Ordering::AcqRel);
            // Through the queue lock: a receiver between its `is_closed`
            // check and its wait holds it, so the wake-up cannot fall in
            // between and leave it waiting for good.
            drop(self.queue.lock());
            self.cv.notify_all();
        }
    }

    /// The guard of one of this subscription's own locks; `None` — and
    /// the subscription closed — if a thread panicked while holding it.
    fn own<'a, T>(&self, lock: &'a Mutex<T>) -> Option<MutexGuard<'a, T>> {
        self.closing(lock.lock())
    }

    /// `own` for a guard handed back by the condvar. A poisoned guard is
    /// released before `close` takes the queue lock.
    fn closing<G>(&self, guard: Result<G, PoisonError<G>>) -> Option<G> {
        let guard = guard.ok();
        if guard.is_none() {
            self.close();
        }
        guard
    }

    /// The per-run state, for a fan-out; `None` once the subscription is
    /// closed. Checked under the lock: a fan-out racing the last
    /// handle's drop either finishes before the drop empties the state
    /// or finds the core closed — it never refills what was emptied.
    fn runs(&self) -> Option<MutexGuard<'_, HashMap<u64, RunSubState>>> {
        self.own(&self.state).filter(|_| !self.is_closed())
    }

    /// Enqueue one delta, dropping the oldest on overflow.
    fn push(&self, delta: Delta, obs: &Telemetry) {
        {
            let Some(mut q) = self.own(&self.queue) else {
                return;
            };
            if q.deque.len() >= self.capacity {
                q.deque.pop_front();
                q.dropped += 1;
                obs.sub_lagged.inc();
            }
            q.deque.push_back(delta);
            obs.sub_deltas.inc();
        }
        self.cv.notify_one();
    }

    /// Deliver every undelivered match as `Added` once the run is in
    /// the subscription's scope (a `completed()` subscription's once the
    /// run has `completed`, as read from the run under the state lock).
    /// Idempotent, so racing callers (notify vs. completion vs.
    /// catch-up) converge on set semantics.
    fn sync_emission(&self, run: RunId, st: &mut RunSubState, completed: bool, obs: &Telemetry) {
        if self.pred.completed_only && !completed {
            return;
        }
        while st.emitted < st.matches.len() {
            let w = st.matches[st.emitted].clone();
            st.emitted += 1;
            self.push(Delta::Added { run, witness: w }, obs);
        }
    }

    /// Forget the evicted `run`: drop its state and retract every
    /// witness delivered for it.
    fn retract(&self, map: &mut HashMap<u64, RunSubState>, run: RunId, obs: &Telemetry) {
        if let Some(mut st) = map.remove(&run.0) {
            st.matches.truncate(st.emitted);
            for witness in st.matches {
                self.push(Delta::Removed { run, witness }, obs);
            }
        }
    }
}

/// A cloneable handle to one standing query. Clones share the delta
/// stream (competing consumers); the stream closes when the last handle
/// drops or the engine is dropped.
#[derive(Clone)]
pub struct Subscription {
    core: Arc<SubCore>,
    /// Shared by every clone: its `Arc` is the handle count.
    _last: Arc<LastHandle>,
}

/// Dropped with the last [`Subscription`] handle: closes the core and
/// frees its per-run state. The registry row keeps the core until the
/// next registration prunes it; the matchers and their witnesses go
/// now. Not in `close()`: a fan-out that meets a poisoned queue calls
/// that with the state lock held.
struct LastHandle(Arc<SubCore>);

impl Drop for LastHandle {
    fn drop(&mut self) {
        self.0.close();
        *self.0.state.lock().unwrap_or_else(PoisonError::into_inner) = HashMap::new();
    }
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("predicate", &self.core.pred)
            .field("pending", &self.pending())
            .field("closed", &self.core.is_closed())
            .finish()
    }
}

impl Subscription {
    fn pop_locked(q: &mut SubQueue) -> Option<Delta> {
        if q.dropped > 0 {
            let dropped = std::mem::take(&mut q.dropped);
            return Some(Delta::Lagged { dropped });
        }
        q.deque.pop_front()
    }

    /// The next delta without blocking; `None` when the queue is empty.
    pub fn try_recv(&self) -> Option<Delta> {
        let mut q = self.core.own(&self.core.queue)?;
        Self::pop_locked(&mut q)
    }

    /// Block until a delta arrives; `None` once the stream is closed
    /// (engine dropped, or a panic under this subscription's own state)
    /// *and* fully drained.
    pub fn recv(&self) -> Option<Delta> {
        self.wait(None)
    }

    /// [`recv`](Self::recv) with a deadline; `None` on timeout or on a
    /// closed-and-drained stream (disambiguate with
    /// [`is_closed`](Self::is_closed)). A timeout too long to add to the
    /// clock waits like `recv`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Delta> {
        self.wait(Instant::now().checked_add(timeout))
    }

    /// The one wait loop: the next delta, blocking until `deadline`
    /// (for good when there is none).
    fn wait(&self, deadline: Option<Instant>) -> Option<Delta> {
        let mut q = self.core.own(&self.core.queue)?;
        loop {
            if let Some(d) = Self::pop_locked(&mut q) {
                return Some(d);
            }
            if self.core.is_closed() {
                return None;
            }
            q = match deadline {
                None => self.core.closing(self.core.cv.wait(q))?,
                Some(deadline) => {
                    let left = deadline
                        .checked_duration_since(Instant::now())
                        .filter(|d| !d.is_zero())?;
                    self.core.closing(self.core.cv.wait_timeout(q, left))?.0
                }
            };
        }
    }

    /// Deltas currently buffered (not counting a pending `Lagged`).
    pub fn pending(&self) -> usize {
        self.core.own(&self.core.queue).map_or(0, |q| q.deque.len())
    }

    /// The queue bound this subscription was created with.
    pub fn capacity(&self) -> usize {
        self.core.capacity
    }

    /// True once no further deltas will arrive: the engine is gone, or
    /// a thread panicked under this subscription's own state.
    pub fn is_closed(&self) -> bool {
        self.core.is_closed()
    }
}

/// One registry row: the notify fast path's precheck data (predicate
/// kind, spec filter) inlined next to the core pointer,
/// so fanning an irrelevant event across N subscriptions walks one
/// contiguous vector of `Copy` data and never dereferences a per-
/// subscription `Arc` — N pointer chases per ingested event is exactly
/// the overhead the idle-subscription budget forbids.
struct SubEntry {
    kind: PredKind,
    spec: Option<SpecId>,
    core: Arc<SubCore>,
}

/// The subscription registry, held by the engine
/// ([`EngineShared::subs`]); the fan-outs that feed it are
/// [`EngineShared`] methods, since they read the catalog, the telemetry
/// and the run registry the engine holds beside it.
///
/// Lock hierarchy (outermost first): `registry` → per-sub `state` →
/// {`queue`, one store shard read lock}. No holder of a store lock ever
/// takes a subscription lock, so the order stays acyclic.
pub(crate) struct SubHub {
    queue_capacity: usize,
    /// Open (not-yet-closed) subscriptions: the notify fast path is one
    /// relaxed load of this when nobody subscribes.
    active: Arc<AtomicUsize>,
    /// Union of every registered predicate's name bits
    /// ([`PredKind::interest_bits`]). Writing threads test one read-only
    /// relaxed load against this before touching `registry` — unlike the
    /// RwLock's state word, a load that never writes stays Shared in
    /// every core's cache, so idle subscriptions cost no coherence
    /// traffic on the per-event path. False positives (hash collision,
    /// lingering bits from closed subs) just take the locked slow path;
    /// a false negative is only possible in the registration race, which
    /// the catch-up scan already covers: the mask is published inside
    /// `register`'s write-lock region, and any insert that loaded the
    /// old mask had already published its label, so the new
    /// subscription's catch-up snapshot sees it.
    interest: AtomicU64,
    registry: RwLock<Vec<SubEntry>>,
}

impl SubHub {
    pub(crate) fn new(queue_capacity: usize) -> Self {
        Self {
            queue_capacity: queue_capacity.max(1),
            active: Arc::new(AtomicUsize::new(0)),
            interest: AtomicU64::new(0),
            registry: RwLock::new(Vec::new()),
        }
    }

    /// Open subscriptions right now (the `wf_subscriptions` gauge).
    pub(crate) fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Register a new subscription core (catch-up is the engine's job —
    /// it needs the registry snapshot, which this hub does not hold).
    fn register(&self, pred: SubPredicate) -> Arc<SubCore> {
        let (kind, spec) = (pred.kind, pred.spec);
        let core = Arc::new(SubCore {
            pred,
            state: Mutex::new(HashMap::new()),
            queue: Mutex::new(SubQueue {
                deque: VecDeque::new(),
                dropped: 0,
            }),
            capacity: self.queue_capacity,
            cv: Condvar::new(),
            closed: AtomicBool::new(false),
            active: Arc::clone(&self.active),
        });
        let mut reg = self
            .registry
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        reg.retain(|e| !e.core.is_closed());
        reg.push(SubEntry {
            kind,
            spec,
            core: Arc::clone(&core),
        });
        // Recompute the interest filter from scratch while we hold the
        // write lock: the retain above is the only place closed subs'
        // bits get pruned.
        let mask = reg.iter().fold(0u64, |m, e| m | e.kind.interest_bits());
        self.interest.store(mask, Ordering::Release);
        self.active.fetch_add(1, Ordering::AcqRel);
        core
    }

    /// The registry rows, for a fan-out.
    fn rows(&self) -> std::sync::RwLockReadGuard<'_, Vec<SubEntry>> {
        self.registry.read().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The fan-outs. An evicted run is one the run registry does not hold
/// (run ids are never reused): a fan-out that might add state for a run
/// checks [`crate::store::LabelStore::contains`] *inside* the
/// subscription's state lock, and [`crate::WfEngine::evict_run`] takes
/// the run out of its shard before [`Self::notify_evicted`] starts — so
/// if the check misses a concurrent eviction, the eviction's fan-out is
/// ordered after that critical section and cleans up what it left.
impl EngineShared {
    /// Register a standing query: the new subscription is inserted into
    /// the fan-out registry first, then caught up on every existing run
    /// — any event racing the scan also fans out to the fresh core, and
    /// the matcher's per-vertex dedup collapses the overlap.
    pub(crate) fn subscribe(&self, predicate: SubPredicate) -> Subscription {
        let core = self.subs.register(predicate);
        let obs = &self.obs;
        let start = obs.timer();
        let views = self.store.snapshot_views();
        let runs = views.len();
        let mut labels = 0u64;
        for (run, view) in &views {
            labels += self.catch_up(&core, *run, view);
        }
        obs.finish(start, &obs.h_sub_match, None, None, || {
            format!("runs={runs} labels={labels}")
        });
        let _last = Arc::new(LastHandle(Arc::clone(&core)));
        Subscription { core, _last }
    }

    /// Fan out one applied insertion. Called by the ingest paths right
    /// after a successful apply, inside the apply span (so sampled
    /// notifies trace as children of the ingest trace) but outside the
    /// run's writer lock — out-of-order arrival is harmless under the
    /// matcher's set semantics, and so is arriving after the run's
    /// completion fan-out: the run's status is read under the state
    /// lock. `v`'s label is read from the slot once, for every
    /// subscription it concerns.
    pub(crate) fn notify_insert(&self, run: RunId, slot: &RunSlot, v: VertexId, name: NameId) {
        let hub = &self.subs;
        if hub.active.load(Ordering::Relaxed) == 0 {
            return;
        }
        // Name-interest filter: one read-only relaxed load decides, for
        // the overwhelmingly common event nobody subscribed to, that the
        // registry lock (a shared atomic RMW, hence cross-core coherence
        // traffic) need not be touched at all.
        if hub.interest.load(Ordering::Relaxed) & (1u64 << (name.0 & 63)) == 0 {
            return;
        }
        let start = if self.obs.notify_sampled() {
            self.obs.timer()
        } else {
            SpanHandle::inert()
        };
        let predicate = DrlPredicate::new(&self.catalog[slot.spec.0].skeleton);
        let labels = Labels::Hot(slot);
        let mut label = None;
        let subs = hub.rows();
        for e in subs.iter() {
            // Precheck on the inlined row first: the common case (no
            // subscription cares about this event) touches no `Arc`.
            if e.spec.is_some_and(|s| s != slot.spec) || !e.kind.relevant(name) {
                continue;
            }
            let core = &e.core;
            if core.is_closed() {
                continue;
            }
            let Some(label) = *label.get_or_insert_with(|| labels.label(v)) else {
                break;
            };
            // The registry check sits *inside* the state lock: if it
            // misses a concurrent eviction, the eviction's fan-out is
            // ordered after this critical section and cleans up the
            // entry.
            let Some(mut map) = core.runs() else {
                continue;
            };
            if !self.store.contains(run) {
                continue;
            }
            let st = map
                .entry(run.0)
                .or_insert_with(|| RunSubState::new(core.pred.kind));
            let emit = &mut |w| st.matches.push(w);
            st.matcher
                .feed(&predicate, &labels, v, name, Some(label), emit);
            let completed = slot.status() == RunStatus::Completed;
            core.sync_emission(run, st, completed, &self.obs);
        }
        drop(subs);
        if start.is_live() {
            self.obs.finish(
                start,
                &self.obs.h_sub_notify,
                Some(run.0),
                Some(Tier::Hot.name()),
                String::new,
            );
        }
    }

    /// Fan out a run completion (edge-triggered: the status store
    /// happens exactly once, before this). An insert notified after this
    /// fan-out reads the stored status itself.
    pub(crate) fn notify_complete(&self, run: RunId, spec: SpecId) {
        if self.subs.active.load(Ordering::Relaxed) == 0 {
            return;
        }
        let subs = self.subs.rows();
        for e in subs.iter() {
            if e.spec.is_some_and(|s| s != spec) {
                continue;
            }
            let core = &e.core;
            {
                let Some(mut map) = core.runs() else {
                    continue;
                };
                if let Some(st) = map.get_mut(&run.0) {
                    core.sync_emission(run, st, true, &self.obs);
                }
            }
            core.push(Delta::RunCompleted { run }, &self.obs);
        }
    }

    /// Fan out an eviction, after the registry has let the run go:
    /// retract every delivered witness.
    pub(crate) fn notify_evicted(&self, run: RunId) {
        if self.subs.active.load(Ordering::Relaxed) == 0 {
            return;
        }
        for e in self.subs.rows().iter() {
            if let Some(mut map) = e.core.runs() {
                e.core.retract(&mut map, run, &self.obs);
            }
        }
    }

    /// Catch one subscription up on one existing run (the subscribe-time
    /// scan). Returns the number of labels visited. Runs *after* the
    /// core is registered, so any event this scan races is also fanned
    /// out to the core — the matcher's `seen` set collapses the overlap.
    pub(crate) fn catch_up(&self, core: &SubCore, run: RunId, view: &RunView) -> u64 {
        let spec = view.spec();
        if core.pred.spec.is_some_and(|s| s != spec) {
            return 0;
        }
        let predicate = DrlPredicate::new(&self.catalog[spec.0].skeleton);
        let Some(mut map) = core.runs() else {
            return 0;
        };
        if !self.store.contains(run) {
            return 0;
        }
        let st = map
            .entry(run.0)
            .or_insert_with(|| RunSubState::new(core.pred.kind));
        let fed = feed_view(&mut st.matcher, &predicate, view, &mut |w| {
            st.matches.push(w)
        });
        // Re-check the registry before reconciling: an eviction that
        // landed mid-scan must not leave freshly-found witnesses behind.
        // A hot view's status is *live* (the slot's atomic), so a
        // completion between the snapshot and now is not missed.
        if self.store.contains(run) {
            let completed = view.status() == RunStatus::Completed;
            core.sync_emission(run, st, completed, &self.obs);
        } else {
            core.retract(&mut map, run, &self.obs);
        }
        fed
    }
}

impl Drop for SubHub {
    fn drop(&mut self) {
        // The engine is going away: close every stream so blocked
        // receivers wake with `None` after draining.
        let reg = self
            .registry
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for e in reg.iter() {
            e.core.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunOp, ServiceEvent, Tier, WfEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_run::{Execution, RunGenerator};

    fn poison<T: Send>(lock: &Mutex<T>) {
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _g = lock.lock().unwrap();
                panic!("poison a subscription lock on purpose");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(lock.is_poisoned());
    }

    fn added(sub: &Subscription, run: RunId) -> Vec<VertexId> {
        let mut out = Vec::new();
        while let Some(delta) = sub.try_recv() {
            if let Delta::Added { run: r, witness } = delta {
                let Witness::Vertex(v) = witness else {
                    panic!("a vertices_named subscription yields vertices")
                };
                assert_eq!(r, run);
                out.push(v);
            }
        }
        out.sort_unstable();
        out
    }

    /// A thread that panicked under one subscription's `state` or
    /// `queue` lock costs that subscription — closed, its stream ended —
    /// and nothing else: every fan-out (on a writing thread, on the
    /// evicting thread, on the subscribing thread) returns, the events
    /// and the eviction behind them succeed, and sibling subscriptions
    /// keep receiving their deltas. A tier move is not a fan-out at all.
    #[test]
    fn a_poisoned_subscription_lock_costs_that_subscription_only() {
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .ingest_workers(1)
            .build();
        let spec = &engine.context(SpecId(0)).unwrap().spec;
        let gen = RunGenerator::new(spec)
            .target_size(40)
            .generate_run(&mut StdRng::seed_from_u64(9));
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        let name = exec.events()[1].name;
        let mut named: Vec<VertexId> = exec
            .events()
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.vertex)
            .collect();
        named.sort_unstable();

        // Completion-scoped, so the completion fan-out delivers to it.
        let pred = SubPredicate::vertices_named(name).completed();
        let live = engine.subscribe(SubPredicate::vertices_named(name));
        let scoped = engine.subscribe(pred.clone());
        let poisoned = || {
            let sub = engine.subscribe(pred.clone());
            poison(&sub.core.state);
            assert!(!sub.is_closed(), "closed by the first fan-out to meet it");
            sub
        };
        // Closed: a blocking consumer drains what was queued and then
        // sees the end of the stream instead of waiting.
        let ended = |sub: &Subscription| {
            sub.is_closed() && std::iter::from_fn(|| sub.recv()).count() <= named.len()
        };

        // notify_insert, on the writing thread: every event is applied
        // and counted, none is reported as a writer panic.
        let victim = poisoned();
        let run = engine.open_run(SpecId(0)).unwrap();
        for ev in exec.events() {
            let op = RunOp::Insert(ev.clone());
            engine.ingest(ServiceEvent { run, op }).unwrap();
        }
        engine.flush();
        assert_eq!(engine.take_ingest_errors(), []);
        assert_eq!(engine.stats().events_ingested, exec.len() as u64);
        assert!(ended(&victim));
        assert_eq!(added(&live, run), named);

        // notify_complete.
        let victim = poisoned();
        engine.complete_run(run).unwrap();
        assert!(ended(&victim));
        assert_eq!(added(&scoped, run), named, "the sibling saw the completion");

        // A freeze runs no subscription code under the store's shard
        // lock: a poisoned subscription is not even looked at. Its last
        // handle's drop recovers the poisoned guard.
        let victim = poisoned();
        engine.freeze_run(run).unwrap();
        assert_eq!(engine.run_tier(run), Ok(Tier::Frozen));
        assert!(!victim.is_closed(), "the freeze took a subscription lock");
        assert_eq!(scoped.pending(), 0, "a tier move is no delta");
        drop(victim);

        // catch_up, on a subscribing thread.
        let victim = poisoned();
        let view = engine.shared.view(run).unwrap();
        assert_eq!(engine.shared.catch_up(&victim.core, run, &view), 0);
        assert!(ended(&victim));

        // A poisoned queue ends the stream for producer and consumer.
        let victim = engine.subscribe(SubPredicate::vertices_named(name));
        assert_eq!(victim.pending(), named.len(), "caught up on the frozen run");
        poison(&victim.core.queue);
        assert_eq!((victim.try_recv(), victim.pending()), (None, 0));
        assert!(ended(&victim));

        // evicted.
        let victim = poisoned();
        engine.evict_run(run).unwrap();
        assert!(ended(&victim));
        let retracted = |sub: &Subscription| {
            std::iter::from_fn(|| sub.try_recv())
                .filter(|d| matches!(d, Delta::Removed { .. }))
                .count()
        };
        assert_eq!(retracted(&scoped), named.len());
        assert_eq!(retracted(&live), named.len());
        assert_eq!(engine.stats().subscriptions, 2, "live and scoped");
    }

    /// An insert whose notify comes after the run's completion fan-out —
    /// two threads writing one run can order them so — still reaches a
    /// `completed()` subscription: the notify reads the run's status, so
    /// the stream adds up to the pull answer.
    #[test]
    fn an_insert_notified_after_completion_reaches_a_completed_subscription() {
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .ingest_workers(1)
            .build();
        let spec = &engine.context(SpecId(0)).unwrap().spec;
        let gen = RunGenerator::new(spec)
            .target_size(40)
            .generate_run(&mut StdRng::seed_from_u64(9));
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        let once = |ev: &&wf_run::ExecEvent| {
            exec.events().iter().filter(|e| e.name == ev.name).count() == 1
        };
        let (v, name) = exec
            .events()
            .iter()
            .find(once)
            .map(|e| (e.vertex, e.name))
            .expect("a name carried by one vertex");

        let sub = engine.subscribe(SubPredicate::vertices_named(name).completed());
        let run = engine.open_run(SpecId(0)).unwrap();
        let RunView::Hot(slot) = engine.shared.view(run).unwrap() else {
            panic!("an open run is hot")
        };
        // `v`'s insert is applied with no notify; the rest as usual.
        for ev in exec.events() {
            if ev.vertex == v {
                slot.apply_insert(run, ev, || Ok(())).unwrap();
            } else {
                engine.submit(run, ev).unwrap();
            }
        }
        engine.complete_run(run).unwrap();
        engine.shared.notify_insert(run, &slot, v, name);

        let pulled = engine.query().completed().vertices_named(name);
        assert_eq!(pulled, [(run, vec![v])]);
        assert_eq!(added(&sub, run), [v]);
    }

    /// Runs with state in `core`, and the vertex ids its matchers keep.
    fn held(core: &SubCore) -> (usize, usize) {
        let map = core.state.lock().unwrap();
        let ids = map
            .values()
            .map(|st| st.matcher.froms.len() + st.matcher.tos.len());
        (map.len(), ids.sum())
    }

    /// The last handle's drop empties the subscription's per-run state:
    /// the matcher's vertex ids go then, not at the next registration,
    /// and evicting the run they matched brings none back. A sibling
    /// subscription's deltas are untouched.
    #[test]
    fn the_last_handle_drop_frees_the_match_state() {
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .ingest_workers(1)
            .build();
        let spec = &engine.context(SpecId(0)).unwrap().spec;
        let gen = RunGenerator::new(spec)
            .target_size(200)
            .generate_run(&mut StdRng::seed_from_u64(9));
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        let name = exec.events()[1].name;
        let mut named: Vec<VertexId> = exec
            .events()
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.vertex)
            .collect();
        named.sort_unstable();

        let sibling = engine.subscribe(SubPredicate::vertices_named(name));
        let linking = engine.subscribe(SubPredicate::runs_linking(name, NameId(u32::MAX)));
        let core = Arc::clone(&linking.core);
        let run = engine.open_run(SpecId(0)).unwrap();
        for ev in exec.events() {
            let op = RunOp::Insert(ev.clone());
            engine.ingest(ServiceEvent { run, op }).unwrap();
        }
        engine.flush();
        assert_eq!(held(&core), (1, named.len()), "one `from` id per match");

        drop(linking);
        assert!(core.is_closed());
        assert_eq!(held(&core), (0, 0), "freed with the last handle");
        engine.evict_run(run).unwrap();
        assert_eq!(held(&core), (0, 0), "the eviction brings nothing back");

        let (mut adds, mut removes) = (Vec::new(), Vec::new());
        while let Some(delta) = sibling.try_recv() {
            match delta {
                Delta::Added {
                    run: r,
                    witness: Witness::Vertex(v),
                } if r == run => adds.push(v),
                Delta::Removed {
                    run: r,
                    witness: Witness::Vertex(v),
                } if r == run => removes.push(v),
                other => panic!("the sibling saw {other:?}"),
            }
        }
        adds.sort_unstable();
        removes.sort_unstable();
        assert_eq!((adds, removes), (named.clone(), named));
    }
}
