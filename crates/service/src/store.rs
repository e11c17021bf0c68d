//! The tiered **label store**: one registry, three tiers, one read path.
//!
//! * **Hot** — in-flight (and recently completed) runs: the lock-free
//!   write-once [`crate::index::LabelIndex`], plus the labeler while the
//!   run is live. Labels are decoded in memory; queries are two
//!   `Acquire` loads and a constant-time predicate.
//! * **Frozen** — completed runs compacted into contiguous encoded
//!   arenas ([`crate::FrozenRun`]): ~an order of magnitude smaller, at
//!   the price of walking a bit cursor per label access.
//! * **Persisted** — frozen arenas snapshotted to disk
//!   ([`crate::snapshot::PersistedRun`]): zero resident bytes until the
//!   first query maps the run's pack file and pins its blob; read in
//!   place from then on, under the [`SegmentLru`] residency budget.
//!
//! Every label read goes through **one reader**, [`Labels`], borrowed
//! from a run for one read by [`RunView::with_labels`]: a hot run lends
//! its index, and both cold tiers lend the same [`wf_drl::ArenaRef`] —
//! over the frozen run's owned buffers or over the pinned mapping. It
//! hands out borrowed [`LabelRef`]s; an owned `DrlLabel` is built only
//! where one is kept, and a standing query keeps none (it keeps vertex
//! ids and asks the reader again).
//!
//! A run's published labels are one immutable thing whose
//! *representation* changes, so the registry holds **one entry per
//! run** — a [`RunView`] whose variant is the tier — in one sharded map.
//! Every reader ([`crate::RunHandle::reach`], [`crate::WfEngine::query`],
//! the stats) resolves runs through [`LabelStore::view`]: one shard read
//! lock and an `Arc` clone whatever the tier. Every tier change is
//! [`LabelStore::transition`]: one shard write lock, conditional on the
//! tier the mover saw.
//!
//! A run that has been spilled also has a blob on disk, and **one
//! registration** naming it ([`PersistedRun`]) for as long as it does:
//! the persisted entry *is* that registration, a re-heated run's frozen
//! entry keeps it ([`RunView::home`]), and a pack rewrite relocates it in
//! place — so the spill directory's manifest, its dead byte census and
//! its orphan sweep are all "every view's `home()`".
//!
//! The store runs no subscription code under its locks: a tier change
//! is not a lineage delta, so a transition tells no subscriber, and an
//! eviction fans out only after the shard lock is released.

use crate::engine::route_hash;
use crate::freeze::FrozenRun;
use crate::slot::RunSlot;
use crate::snapshot::PersistedRun;
use crate::sub::{SubHub, SubPredicate, Subscription};
use crate::telemetry::{bump, Telemetry};
use crate::{RunId, RunStatus, ServiceError, SpecId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use wf_drl::{ArenaRef, DrlLabel, DrlPredicate, LabelRef};
use wf_graph::{NameId, VertexId};
use wf_skeleton::SpecLabeling;

/// The **size/age LRU over resident segments**: every persisted blob
/// that pins into memory registers here, and when the resident total
/// exceeds the configured budget ([`crate::EngineBuilder::max_resident_bytes`])
/// the least-recently-queried blobs are shed back to cold — oldest
/// freeze time breaking recency ties. Without a budget the LRU only
/// keeps the books (pins, sheds, resident bytes for the stats).
///
/// The books are two things. `resident_bytes` moves only when a
/// registration's residency flag flips
/// ([`PersistedRun::set_resident`]), so it is always the sum over set
/// flags. `resident` is the replacer's *candidate* map — the
/// registrations that pinned in since they last left it; an entry whose
/// blob was relocated since has nothing to shed and is skipped.
///
/// Locking: a shard write lock may be held while taking `resident`
/// (this mutex), which may be held while *try*-locking a run's place; a
/// first pin holds its own place lock and only then takes `resident` —
/// the try-lock is what makes that safe (the shed path skips contended
/// victims instead of blocking on them).
#[derive(Debug)]
pub(crate) struct SegmentLru {
    max_resident: Option<u64>,
    clock: AtomicU64,
    resident: Mutex<HashMap<u64, Arc<PersistedRun>>>,
    resident_bytes: AtomicU64,
    /// Bytes currently `mmap`'d across pack files (shared with every
    /// [`crate::bufmgr::PackMapping`], which keeps it on map/unmap).
    pub(crate) mapped_bytes: Arc<AtomicU64>,
    /// Engine telemetry: pin/shed counters, the first-pin latency
    /// histogram, and the trace ring shed events feed into.
    pub(crate) obs: Arc<Telemetry>,
}

impl SegmentLru {
    pub(crate) fn new(max_resident: Option<u64>, obs: Arc<Telemetry>) -> Self {
        Self {
            max_resident,
            clock: AtomicU64::new(0),
            resident: Mutex::new(HashMap::new()),
            resident_bytes: AtomicU64::new(0),
            mapped_bytes: Arc::new(AtomicU64::new(0)),
            obs,
        }
    }

    /// Advance the logical clock (every query on a persisted run ticks).
    pub(crate) fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Current resident bytes across loaded segments.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    /// A blob of `bytes` turned resident (`on`) or stopped being so.
    pub(crate) fn account(&self, bytes: u64, on: bool) {
        if on {
            self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
        } else {
            self.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
        }
    }

    /// A segment finished pinning in: make it a shed candidate, then
    /// enforce the budget (never shedding the segment just pinned). A
    /// registration that left the persisted tier while the pin was in
    /// flight stops counting as resident instead (the admit/forget
    /// race).
    pub(crate) fn admit(&self, run: Arc<PersistedRun>) {
        let id = run.run().0;
        {
            let mut map = self.resident.lock().expect("lru map poisoned");
            if run.retired.load(Ordering::Acquire) {
                // forget_entry's retire store happens before its map
                // removal, which serializes on this lock: whichever of
                // the two comes second clears the flag. (Should the run
                // re-enter the tier and be pinned between the load above
                // and this store, that pin goes uncounted until the next
                // one sets the flag again.)
                run.set_resident(false);
                return;
            }
            map.insert(id, run);
        }
        self.enforce(Some(id));
    }

    /// A registration stops serving its run (re-heated or evicted): mark
    /// it retired first, so a pin-in racing this call cannot re-admit it
    /// afterwards, take it out of the candidates, and hand its pages
    /// back — or, when a reader still has them pinned, just stop
    /// counting them.
    pub(crate) fn forget_entry(&self, run: &PersistedRun) {
        run.retired.store(true, Ordering::Release);
        let id = run.run().0;
        self.resident.lock().expect("lru map poisoned").remove(&id);
        if run.shed().is_none() {
            run.set_resident(false);
        }
    }

    /// Shed victims — least recently queried first, oldest freeze time
    /// breaking ties — until the budget holds. Pinned entries (a scan
    /// mid-iteration) are never candidates; each remaining candidate is
    /// tried once per pass (a contended victim — one being queried or
    /// pinned right now — is skipped, not waited on). Shedding is
    /// `madvise(DONTNEED)` on the blob's mapped range.
    fn enforce(&self, protect: Option<u64>) {
        let Some(budget) = self.max_resident else {
            return;
        };
        let mut map = self.resident.lock().expect("lru map poisoned");
        if self.resident_bytes.load(Ordering::Relaxed) <= budget {
            return;
        }
        let mut victims: Vec<Arc<PersistedRun>> = map
            .values()
            .filter(|p| Some(p.run().0) != protect && !p.pinned())
            .cloned()
            .collect();
        victims.sort_by_key(|p| (p.last_access.load(Ordering::Relaxed), p.frozen_at));
        for victim in victims {
            if self.resident_bytes.load(Ordering::Relaxed) <= budget {
                break;
            }
            if let Some(freed) = victim.shed() {
                map.remove(&victim.run().0);
                self.obs.segment_sheds.inc();
                self.obs
                    .event("shed", Some(victim.run().0), Some("persisted"), || {
                        format!("bytes={freed}")
                    });
            }
        }
    }
}

/// Which storage tier currently serves a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Live labeler state + decoded in-memory label index.
    Hot,
    /// Encoded in-memory arena (completed runs).
    Frozen,
    /// On-disk snapshot segment, mapped and pinned lazily for queries.
    Persisted,
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tier::Hot => write!(f, "hot"),
            Tier::Frozen => write!(f, "frozen"),
            Tier::Persisted => write!(f, "persisted"),
        }
    }
}

/// Registry shard: one `RwLock`ed map per shard keeps run lookup
/// contention independent of the number of concurrent runs.
type Shard<S> = RwLock<HashMap<u64, RunView<S>>>;

/// One run's published labels, borrowed for one read: the one reader
/// behind every label, name and scan a run answers, whatever its tier.
/// Labels are write-once, so what it lends stays valid for the borrow.
pub(crate) enum Labels<'a, S: SpecLabeling + 'static> {
    /// A hot run: its lock-free index and its write-once source.
    Hot(&'a RunSlot<S>),
    /// A completed run: its arena — a frozen run's owned buffers or a
    /// persisted run's pinned mapping — and its source vertex.
    Cold(ArenaRef<'a>, Option<VertexId>),
}

impl<'a, S: SpecLabeling> Labels<'a, S> {
    /// The label of `v`, if the run published one.
    pub(crate) fn label(&self, v: VertexId) -> Option<LabelRef<'a>> {
        match self {
            Labels::Hot(s) => s.indexed.get(v),
            Labels::Cold(a, _) => a.label(v),
        }
    }

    /// The module name `v` was published under.
    pub(crate) fn name(&self, v: VertexId) -> Option<NameId> {
        match self {
            Labels::Hot(s) => s.indexed.name(v),
            Labels::Cold(a, _) => a.name(v),
        }
    }

    /// The skeleton-pointer width of the run's labels.
    pub(crate) fn skl_bits(&self) -> usize {
        match self {
            Labels::Hot(s) => s.skl_bits,
            Labels::Cold(a, _) => a.skl_bits(),
        }
    }

    /// The label of the run's source. A hot run sets its source and
    /// publishes the source's label before any other label
    /// ([`RunSlot::apply_insert`], under the writer lock), so a reader
    /// that sees any label of the run sees this one too.
    pub(crate) fn source(&self) -> Option<LabelRef<'a>> {
        let source = match self {
            Labels::Hot(s) => s.source.get().copied(),
            Labels::Cold(_, source) => *source,
        };
        self.label(source?)
    }

    /// Visit every published `(vertex, name, label)`. A cold label comes
    /// with the slot it is iterated from, decoded only as far as the
    /// visitor walks it. A hot one is left to [`Self::label`] (`None`):
    /// looking up a cell's prefix costs more than a visitor that only
    /// reads names spends on the whole cell.
    pub(crate) fn for_each(&self, mut f: impl FnMut(VertexId, NameId, Option<LabelRef<'a>>)) {
        match self {
            Labels::Hot(s) => s.indexed.names().for_each(|(v, name)| f(v, name, None)),
            Labels::Cold(a, _) => a
                .iter()
                .for_each(|(v, name, label)| f(v, name, Some(label))),
        }
    }
}

/// A tier-transparent, reference-counted view of one run — everything
/// the read path needs, with the tier dispatch in one place.
pub(crate) enum RunView<S: SpecLabeling + 'static> {
    Hot(Arc<RunSlot<S>>),
    Frozen(Arc<FrozenRun>),
    Persisted(Arc<PersistedRun>),
}

impl<S: SpecLabeling> Clone for RunView<S> {
    fn clone(&self) -> Self {
        match self {
            RunView::Hot(s) => RunView::Hot(Arc::clone(s)),
            RunView::Frozen(f) => RunView::Frozen(Arc::clone(f)),
            RunView::Persisted(p) => RunView::Persisted(Arc::clone(p)),
        }
    }
}

impl<S: SpecLabeling> RunView<S> {
    pub(crate) fn tier(&self) -> Tier {
        match self {
            RunView::Hot(_) => Tier::Hot,
            RunView::Frozen(_) => Tier::Frozen,
            RunView::Persisted(_) => Tier::Persisted,
        }
    }

    pub(crate) fn spec(&self) -> SpecId {
        match self {
            RunView::Hot(s) => s.spec,
            RunView::Frozen(f) => f.spec,
            RunView::Persisted(p) => p.spec,
        }
    }

    /// Lifecycle status. Only completed runs freeze, so the cold tiers
    /// are `Completed` by construction.
    pub(crate) fn status(&self) -> RunStatus {
        match self {
            RunView::Hot(s) => s.status(),
            RunView::Frozen(_) | RunView::Persisted(_) => RunStatus::Completed,
        }
    }

    pub(crate) fn source(&self) -> Option<VertexId> {
        match self {
            RunView::Hot(s) => s.source.get().copied(),
            RunView::Frozen(f) => f.source,
            RunView::Persisted(p) => p.source,
        }
    }

    /// True when answering from this view costs no disk fault: hot and
    /// frozen runs always, persisted runs only while their blob is
    /// resident (pinned in and not yet shed by the LRU).
    pub(crate) fn is_resident(&self) -> bool {
        match self {
            RunView::Hot(_) | RunView::Frozen(_) => true,
            RunView::Persisted(p) => p.is_loaded(),
        }
    }

    /// The run's registration in the spill directory, whatever tier
    /// serves it: a persisted run's own, or the one a re-heated run was
    /// read out of and keeps until it is evicted. A hot run has none.
    pub(crate) fn home(&self) -> Option<&Arc<PersistedRun>> {
        match self {
            RunView::Hot(_) => None,
            RunView::Frozen(f) => f.home.as_ref(),
            RunView::Persisted(p) => Some(p),
        }
    }

    pub(crate) fn published(&self) -> usize {
        match self {
            RunView::Hot(s) => s.indexed.len(),
            RunView::Frozen(f) => f.arena.len(),
            RunView::Persisted(p) => p.published,
        }
    }

    /// Lend the run's [`Labels`] reader to `f`. `None` for a persisted
    /// run whose blob no longer pins. The pin holds for the whole of
    /// `f`: a scan iterating labels straight off the mapping cannot have
    /// its pages `madvise`d away mid-run.
    pub(crate) fn with_labels<R>(&self, f: impl FnOnce(&Labels<'_, S>) -> R) -> Option<R> {
        match self {
            RunView::Hot(s) => Some(f(&Labels::Hot(s))),
            RunView::Frozen(fr) => Some(f(&Labels::Cold(fr.arena.view(), fr.source))),
            RunView::Persisted(p) => {
                let pin = p.pin()?;
                Some(f(&Labels::Cold(pin.arena(), p.source)))
            }
        }
    }

    /// An owned copy of `v`'s label, for a caller that keeps it.
    pub(crate) fn label(&self, v: VertexId) -> Option<DrlLabel> {
        self.with_labels(|l| l.label(v)?.to_label())?
    }

    /// Published label length of `v` in bits (the accounting size).
    pub(crate) fn label_bits(&self, v: VertexId) -> Option<usize> {
        self.with_labels(|l| l.label(v)?.bit_len(l.skl_bits()))?
    }

    /// The module name `v` was published under.
    pub(crate) fn name(&self, v: VertexId) -> Option<NameId> {
        self.with_labels(|l| l.name(v))?
    }

    /// Constant-time `u ; v`, answered from this tier without
    /// allocating: two cells and their prefix arrays (hot), or two
    /// cursors walked in lock step off the arena bytes (cold).
    pub(crate) fn reach(
        &self,
        predicate: &DrlPredicate<'_, S>,
        u: VertexId,
        v: VertexId,
    ) -> Option<bool> {
        let answer = match self {
            RunView::Hot(s) => s.indexed.reach(predicate, u, v)?,
            _ => self.with_labels(|l| predicate.reaches_ref(l.label(u)?, l.label(v)?))??,
        };
        bump(self.queries());
        Some(answer)
    }

    /// Why every read of this run comes back empty, when it is a
    /// persisted registration whose first pin failed.
    pub(crate) fn load_failure(&self, run: RunId) -> Option<ServiceError> {
        match self {
            RunView::Persisted(p) => p
                .load_failure()
                .map(|cause| ServiceError::Snapshot(run, cause.to_string())),
            _ => None,
        }
    }

    /// The run's query counter (kept per run so the query hot path
    /// never contends on an engine-wide cache line; `stats()` sums it).
    /// It counts the run's lifetime: [`LabelStore::transition`] carries
    /// it from one representation to the next.
    pub(crate) fn queries(&self) -> &AtomicU64 {
        match self {
            RunView::Hot(s) => &s.queries,
            RunView::Frozen(f) => &f.queries,
            RunView::Persisted(p) => &p.queries,
        }
    }
}

/// The engine's run registry: **one sharded map**, one entry per run,
/// whose value's variant *is* the run's tier. A tier change swaps the
/// value in place ([`Self::transition`]), so a lookup is one shard read
/// lock whatever the tier, a reader sees exactly one representation of
/// a run — never two, never none — and there is no lock order to keep.
pub(crate) struct LabelStore<S: SpecLabeling + 'static> {
    /// A power-of-two number of shards.
    shards: Box<[Shard<S>]>,
    /// Entries per tier (indexed by `Tier as usize`), kept by
    /// [`Self::insert`] / [`Self::transition`] / [`Self::remove`]: the
    /// stats and the idle tiering tick read a tier's size without
    /// walking the registry.
    tier_counts: [AtomicU64; 3],
    /// Residency governor shared by every persisted run in this store.
    pub(crate) lru: Arc<SegmentLru>,
    /// Standing-query fan-out: a subscription's catch-up scans the
    /// registry, and an eviction retracts what it delivered.
    pub(crate) subs: SubHub<S>,
}

impl<S: SpecLabeling> LabelStore<S> {
    /// An empty store with `shards` shards (rounded up to a power of
    /// two), pre-seeded with persisted segments loaded from disk.
    pub(crate) fn new(
        shards: usize,
        persisted: Vec<Arc<PersistedRun>>,
        lru: Arc<SegmentLru>,
        subs: SubHub<S>,
    ) -> Self {
        let n = shards.max(1).next_power_of_two();
        let store = Self {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            tier_counts: Default::default(),
            lru,
            subs,
        };
        for p in persisted {
            store.insert(p.run, RunView::Persisted(p));
        }
        store
    }

    /// Register a standing query: the new subscription is inserted into
    /// the fan-out registry first, then caught up on every existing run
    /// — any event racing the scan also fans out to the fresh core, and
    /// the matcher's per-vertex dedup collapses the overlap.
    pub(crate) fn subscribe(&self, predicate: SubPredicate) -> Subscription {
        let core = self.subs.register(predicate);
        let obs = &self.subs.obs;
        let start = obs.timer();
        let views = self.snapshot_views();
        let runs = views.len();
        let mut labels = 0u64;
        for (run, view) in &views {
            labels += self.subs.catch_up(&core, *run, view);
        }
        obs.finish(start, &obs.h_sub_match, None, None, || {
            format!("runs={runs} labels={labels}")
        });
        SubHub::<S>::handle(core)
    }

    fn shard(&self, run: RunId) -> &Shard<S> {
        &self.shards[route_hash(run) as usize & (self.shards.len() - 1)]
    }

    /// Register a run the store has not seen: freshly opened, replayed
    /// from the WAL, or listed by the spill directory's manifest.
    pub(crate) fn insert(&self, run: RunId, view: RunView<S>) {
        self.tier_counts[view.tier() as usize].fetch_add(1, Ordering::Relaxed);
        self.shard(run)
            .write()
            .expect("shard lock poisoned")
            .insert(run.0, view);
    }

    /// How many runs `tier` holds right now.
    pub(crate) fn tier_count(&self, tier: Tier) -> usize {
        self.tier_counts[tier as usize].load(Ordering::Relaxed) as usize
    }

    /// The run's current representation, whatever its tier.
    pub(crate) fn view(&self, run: RunId) -> Option<RunView<S>> {
        self.shard(run)
            .read()
            .expect("shard lock poisoned")
            .get(&run.0)
            .cloned()
    }

    /// **The one tier transition**: swap `run`'s entry for `to` —
    /// conditional on the entry still being in tier `from`, so a move
    /// racing an eviction (or another move) never resurrects a removed
    /// run or overwrites a newer representation. The swap happens under
    /// the shard write lock: a concurrent lookup sees the old value or
    /// the new one, and the run's query count moves old → new where no
    /// `stats()` walk can see both or neither. A run's registration is
    /// one object that leaves the persisted tier at a re-heat and comes
    /// back at the next persist, so its exit (out of the LRU) and its
    /// re-entry happen under that lock too: the two cannot reorder.
    #[must_use]
    pub(crate) fn transition(&self, run: RunId, from: Tier, to: RunView<S>) -> bool {
        let target = to.tier();
        debug_assert_ne!(from, target, "a rewrite relocates, it does not transition");
        let mut shard = self.shard(run).write().expect("shard lock poisoned");
        let Some(entry) = shard.get_mut(&run.0).filter(|e| e.tier() == from) else {
            return false;
        };
        let carried = entry.queries().load(Ordering::Relaxed);
        to.queries().store(carried, Ordering::Relaxed);
        self.tier_counts[from as usize].fetch_sub(1, Ordering::Relaxed);
        self.tier_counts[target as usize].fetch_add(1, Ordering::Relaxed);
        if let RunView::Persisted(p) = &to {
            p.retired.store(false, Ordering::Release);
        }
        if let RunView::Persisted(p) = std::mem::replace(entry, to) {
            self.lru.forget_entry(&p);
        }
        true
    }

    /// Evict a run, returning the representation it had (the caller
    /// marks a hot slot evicted under its writer lock).
    pub(crate) fn remove(&self, run: RunId) -> Option<RunView<S>> {
        let old = self
            .shard(run)
            .write()
            .expect("shard lock poisoned")
            .remove(&run.0)?;
        self.tier_counts[old.tier() as usize].fetch_sub(1, Ordering::Relaxed);
        if let RunView::Persisted(p) = &old {
            self.lru.forget_entry(p);
        }
        self.subs.evicted(run);
        Some(old)
    }

    /// Point-in-time snapshot of every registered run (unordered) — the
    /// scope the cross-run query surface scans. Locks are held only
    /// long enough to clone `Arc`s.
    pub(crate) fn snapshot_views(&self) -> Vec<(RunId, RunView<S>)> {
        let runs = self.tier_counts.iter().map(|c| c.load(Ordering::Relaxed));
        let mut out = Vec::with_capacity(runs.sum::<u64>() as usize);
        self.for_each(|run, view| out.push((run, view.clone())));
        out
    }

    /// Visit every registered run without allocating (stats, the policy
    /// passes, the spill directory's census). Each shard's read lock is
    /// held while its entries are visited, so keep `f` cheap.
    pub(crate) fn for_each(&self, mut f: impl FnMut(RunId, &RunView<S>)) {
        for shard in self.shards.iter() {
            for (id, view) in shard.read().expect("shard lock poisoned").iter() {
                f(RunId(*id), view);
            }
        }
    }
}
