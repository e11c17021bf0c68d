//! The tiered **label store**: one registry, two kinds of run, one read
//! path.
//!
//! * **Hot** — in-flight (and recently completed) runs: the lock-free
//!   write-once [`crate::index::LabelIndex`], plus the labeler while the
//!   run is live. Labels are decoded in memory; queries are two
//!   `Acquire` loads and a constant-time predicate.
//! * **Sealed** — completed runs, each one segment blob
//!   ([`crate::snapshot`]): an order of magnitude smaller — each prefix
//!   entry once in a context trie, one fixed-width cell per label — at
//!   the price of a few field loads per entry read. The blob's bytes in
//!   memory are one heap frame: held from freeze until the run is
//!   persisted, and again after a re-heat; otherwise loaded from the
//!   pack by the first query that needs it — zero resident bytes until
//!   then — and dropped again under the [`SegmentLru`] residency budget.
//!   [`Tier`] is a reading of which: `Frozen` while the frame is held,
//!   `Persisted` otherwise.
//!
//! Every label read goes through **one reader**, [`Labels`], borrowed
//! from a run for one read by [`RunView::with_labels`]: a hot run lends
//! its index, and a sealed run lends one [`wf_drl::ArenaRef`] over its
//! frame. It hands out borrowed
//! [`LabelRef`]s; an owned `DrlLabel` is built only where one is kept,
//! and a standing query keeps none (it keeps vertex ids and asks the
//! reader again).
//!
//! A run's published labels are one immutable thing whose
//! *representation* changes once, so the registry holds **one entry per
//! run** — a [`RunView`] with two arms — in one sharded map. Every reader
//! ([`crate::RunHandle::reach`], [`crate::WfEngine::query`], the stats)
//! resolves runs through [`LabelStore::view`]: one shard read lock and an
//! `Arc` clone whatever the tier. The one registry transition is the
//! freeze, hot → sealed ([`LabelStore::transition`]); persist and re-heat
//! change where one sealed run's bytes sit, under that run's place lock,
//! and take no registry lock at all. The spill directory's registrations
//! — its seal log, its dead byte census and its orphan sweep — are every
//! sealed run that has a location.
//!
//! The store runs no subscription code because it contains none: a tier
//! change is not a lineage delta, so a transition tells no subscriber,
//! and the engine fans an eviction out after [`LabelStore::remove`] has
//! returned. The registry is the one record of a run — whether it is
//! registered, and in which tier — so a run the registry does not hold
//! is evicted (run ids are never reused), and the tier sizes are counted
//! off a walk, not kept.

use crate::engine::route_hash;
use crate::slot::RunSlot;
use crate::snapshot::SealedRun;
use crate::telemetry::{bump, Telemetry};
use crate::{RunId, RunStatus, ServiceError, SpecId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use wf_drl::{ArenaRef, DrlLabel, DrlPredicate, LabelRef};
use wf_graph::{NameId, VertexId};
use wf_skeleton::TclSpecLabels;

/// The **replacer over the frames loaded from disk**: every sealed run
/// whose frame a read loaded from its pack registers here, and when the
/// resident total exceeds the configured budget
/// ([`crate::EngineBuilder::max_resident_bytes`]) the least-recently-
/// queried frames are dropped — oldest freeze time breaking recency
/// ties. Held frames (freeze, re-heat) are not candidates. Without a
/// budget the LRU only keeps the books (loads, sheds, resident bytes for
/// the stats).
///
/// The books are the candidate map: `resident_bytes` moves only when a
/// run enters or leaves it, so it is always the sum of its members' blob
/// lengths.
///
/// Locking: a run enters and leaves the map under its own place lock,
/// and the shed path holds the map while *try*-locking a victim's place —
/// the try-lock is what makes the two orders safe (the shed path skips
/// contended victims, a run being read among them, instead of blocking
/// on them).
#[derive(Debug)]
pub(crate) struct SegmentLru {
    max_resident: Option<u64>,
    clock: AtomicU64,
    resident: Mutex<HashMap<u64, Arc<SealedRun>>>,
    /// Bytes of the frames in the candidate map.
    pub(crate) resident_bytes: AtomicU64,
    /// Engine telemetry: load/shed counters, the verifying-load latency
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
            obs,
        }
    }

    /// The candidate map. A poisoned lock is recovered: a `HashMap`
    /// insert or remove leaves a valid map at every step.
    pub(crate) fn candidates(&self) -> MutexGuard<'_, HashMap<u64, Arc<SealedRun>>> {
        self.resident.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Advance the logical clock (every read from disk ticks).
    pub(crate) fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// A run's frame was loaded from disk (called under its place lock):
    /// make it a shed candidate, then enforce the budget (never shedding
    /// the frame just loaded).
    pub(crate) fn enter(&self, run: Arc<SealedRun>) {
        let (id, len) = (run.run().0, run.blob_len());
        if self.candidates().insert(id, run).is_none() {
            self.resident_bytes.fetch_add(len, Ordering::Relaxed);
        }
        self.enforce(id);
    }

    /// A run's frame stopped being a candidate — held by a re-heat,
    /// dropped by a relocation, or evicted (called under its place lock).
    pub(crate) fn leave(&self, run: &SealedRun) {
        if self.candidates().remove(&run.run().0).is_some() {
            self.resident_bytes
                .fetch_sub(run.blob_len(), Ordering::Relaxed);
        }
    }

    /// Shed victims — least recently queried first, oldest freeze time
    /// breaking ties — until the budget holds. Each candidate but
    /// `protect` is tried once per pass; a contended victim — one being
    /// read or loaded right now — is skipped, not waited on. Shedding
    /// drops the frame.
    fn enforce(&self, protect: u64) {
        let Some(budget) = self.max_resident else {
            return;
        };
        let mut map = self.candidates();
        if self.resident_bytes.load(Ordering::Relaxed) <= budget {
            return;
        }
        let mut victims: Vec<Arc<SealedRun>> = map
            .values()
            .filter(|p| p.run().0 != protect)
            .cloned()
            .collect();
        victims.sort_by_key(|p| (p.last_access.load(Ordering::Relaxed), p.header().frozen_at));
        for victim in victims {
            if self.resident_bytes.load(Ordering::Relaxed) <= budget {
                break;
            }
            if victim.shed() {
                map.remove(&victim.run().0);
                let freed = victim.blob_len();
                self.resident_bytes.fetch_sub(freed, Ordering::Relaxed);
                self.obs.segment_sheds.inc();
                self.obs.event(
                    "shed",
                    Some(victim.run().0),
                    Some(Tier::Persisted.name()),
                    || format!("bytes={freed}"),
                );
            }
        }
    }
}

/// Which storage tier currently serves a run: hot, or — for a sealed
/// run — a reading of where its blob sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Live labeler state + decoded in-memory label index.
    Hot,
    /// A sealed run holding its blob's frame (read in memory).
    Frozen,
    /// A sealed run read from its pack on disk, its frame loaded lazily
    /// and shed by the LRU.
    Persisted,
}

impl Tier {
    /// The tier's name, as trace events, metric labels and `Display`
    /// spell it.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Hot => "hot",
            Tier::Frozen => "frozen",
            Tier::Persisted => "persisted",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Registry shard: one `RwLock`ed map per shard keeps run lookup
/// contention independent of the number of concurrent runs.
type Shard = RwLock<HashMap<u64, RunView>>;

// A poisoned shard is recovered, not propagated: every write under it is
// one map insert, remove or assignment, so a holder that panicked left
// a valid map.
fn read(shard: &Shard) -> RwLockReadGuard<'_, HashMap<u64, RunView>> {
    shard.read().unwrap_or_else(PoisonError::into_inner)
}

fn write(shard: &Shard) -> RwLockWriteGuard<'_, HashMap<u64, RunView>> {
    shard.write().unwrap_or_else(PoisonError::into_inner)
}

/// One run's published labels, borrowed for one read: the one reader
/// behind every label, name and scan a run answers, whatever its tier.
/// Labels are write-once, so what it lends stays valid for the borrow.
pub(crate) enum Labels<'a> {
    /// A hot run: its lock-free index and its write-once source.
    Hot(&'a RunSlot),
    /// A sealed run: its arena over the run's frame, and its source
    /// vertex.
    Cold(ArenaRef<'a>, Option<VertexId>),
}

impl<'a> Labels<'a> {
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

    /// Visit every published `(vertex, name)`, in vertex order. No label
    /// is read: a visitor looks one up with [`Self::label`] for the
    /// vertices its name makes relevant — a cell of either tier costs
    /// more to turn into a label than a visitor that only reads names
    /// spends on the whole cell.
    pub(crate) fn for_each(&self, mut f: impl FnMut(VertexId, NameId)) {
        match self {
            Labels::Hot(s) => s.indexed.names().for_each(|(v, name)| f(v, name)),
            Labels::Cold(a, _) => a.names().for_each(|(v, name)| f(v, name)),
        }
    }
}

/// A tier-transparent, reference-counted view of one run — everything
/// the read path needs, with the dispatch in one place.
#[derive(Clone)]
pub(crate) enum RunView {
    Hot(Arc<RunSlot>),
    Sealed(Arc<SealedRun>),
}

impl RunView {
    pub(crate) fn tier(&self) -> Tier {
        match self {
            RunView::Hot(_) => Tier::Hot,
            RunView::Sealed(s) => s.tier(),
        }
    }

    pub(crate) fn spec(&self) -> SpecId {
        match self {
            RunView::Hot(s) => s.spec,
            RunView::Sealed(s) => s.header().spec,
        }
    }

    /// Lifecycle status. Only completed runs freeze, so a sealed run is
    /// `Completed` by construction.
    pub(crate) fn status(&self) -> RunStatus {
        match self {
            RunView::Hot(s) => s.status(),
            RunView::Sealed(_) => RunStatus::Completed,
        }
    }

    pub(crate) fn source(&self) -> Option<VertexId> {
        match self {
            RunView::Hot(s) => s.source.get().copied(),
            RunView::Sealed(s) => s.header().source,
        }
    }

    /// True when answering from this view costs no disk read: hot runs
    /// always, sealed runs while they have a frame (held, or loaded and
    /// not yet shed by the LRU).
    pub(crate) fn is_resident(&self) -> bool {
        match self {
            RunView::Hot(_) => true,
            RunView::Sealed(s) => s.is_resident(),
        }
    }

    pub(crate) fn published(&self) -> usize {
        match self {
            RunView::Hot(s) => s.indexed.len(),
            RunView::Sealed(s) => s.header().count as usize,
        }
    }

    /// Lend the run's [`Labels`] reader to `f`. `None` for a sealed run
    /// read from disk whose blob no longer loads. A sealed run's frame
    /// stays borrowed for the whole of `f`: a scan iterating its labels
    /// cannot have it shed mid-run.
    pub(crate) fn with_labels<R>(&self, f: impl FnOnce(&Labels<'_>) -> R) -> Option<R> {
        match self {
            RunView::Hot(s) => Some(f(&Labels::Hot(s))),
            RunView::Sealed(s) => s.with_labels(|arena| f(&Labels::Cold(arena, s.header().source))),
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

    /// Constant-time `u ; v`, answered without allocating: two cells and,
    /// unless they share a context, their prefixes — arrays in the hot
    /// index's table, or trie records climbed in the blob's bytes
    /// (sealed).
    pub(crate) fn reach(
        &self,
        predicate: &DrlPredicate<'_, TclSpecLabels>,
        u: VertexId,
        v: VertexId,
    ) -> Option<bool> {
        let answer = match self {
            RunView::Hot(s) => s.indexed.reach(predicate, u, v)?,
            RunView::Sealed(s) => s.with_labels(|arena| arena.reach(predicate, u, v))??,
        };
        bump(self.queries());
        Some(answer)
    }

    /// Why every read of this run comes back empty, when it is a sealed
    /// run read from disk whose frame failed to load.
    pub(crate) fn load_failure(&self, run: RunId) -> Option<ServiceError> {
        match self {
            RunView::Sealed(s) => s
                .load_failure()
                .map(|cause| ServiceError::Snapshot(run, cause.to_string())),
            RunView::Hot(_) => None,
        }
    }

    /// The run's query counter (kept per run so the query hot path
    /// never contends on an engine-wide cache line; `stats()` sums it).
    /// It counts the run's lifetime: the freeze hands the hot slot's
    /// counter to the sealed run.
    pub(crate) fn queries(&self) -> &AtomicU64 {
        match self {
            RunView::Hot(s) => &s.queries,
            RunView::Sealed(s) => &s.queries,
        }
    }
}

/// The engine's run registry: **one sharded map**, one entry per run.
/// The freeze swaps a hot entry for a sealed one in place
/// ([`Self::transition`]), so a lookup is one shard read lock whatever
/// the tier, a reader sees exactly one representation of a run — never
/// two, never none — and there is no lock order to keep.
pub(crate) struct LabelStore {
    /// A power-of-two number of shards.
    shards: Box<[Shard]>,
    /// Residency governor shared by every sealed run in this store.
    pub(crate) lru: Arc<SegmentLru>,
}

impl LabelStore {
    /// An empty store with `shards` shards (rounded up to a power of
    /// two), pre-seeded with the sealed runs the spill directory lists.
    pub(crate) fn new(shards: usize, persisted: Vec<Arc<SealedRun>>, lru: Arc<SegmentLru>) -> Self {
        let n = shards.max(1).next_power_of_two();
        let store = Self {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            lru,
        };
        for p in persisted {
            store.insert(p.run(), RunView::Sealed(p));
        }
        store
    }

    fn shard(&self, run: RunId) -> &Shard {
        &self.shards[route_hash(run) as usize & (self.shards.len() - 1)]
    }

    /// Register a run the store has not seen: freshly opened, replayed
    /// from the WAL, or placed by the spill directory's seal log.
    pub(crate) fn insert(&self, run: RunId, view: RunView) {
        write(self.shard(run)).insert(run.0, view);
    }

    /// Whether `run` is registered. Run ids are never reused, so a run
    /// that was once registered and is not now has been evicted.
    pub(crate) fn contains(&self, run: RunId) -> bool {
        read(self.shard(run)).contains_key(&run.0)
    }

    /// The run's current representation, whatever its tier.
    pub(crate) fn view(&self, run: RunId) -> Option<RunView> {
        read(self.shard(run)).get(&run.0).cloned()
    }

    /// **The one registry transition**, hot → sealed: swap `run`'s hot
    /// slot for `sealed` — conditional on the entry still being hot, so a
    /// freeze racing an eviction (or another freeze) never resurrects a
    /// removed run or overwrites a sealed one. The swap happens under the
    /// shard write lock: a concurrent lookup sees the slot or the sealed
    /// run, never neither; both count queries on one counter.
    #[must_use]
    pub(crate) fn transition(&self, run: RunId, sealed: Arc<SealedRun>) -> bool {
        let mut shard = write(self.shard(run));
        let Some(entry) = shard
            .get_mut(&run.0)
            .filter(|e| matches!(e, RunView::Hot(_)))
        else {
            return false;
        };
        *entry = RunView::Sealed(sealed);
        true
    }

    /// Evict a run, returning the representation it had, marked evicted
    /// once the shard lock is released: a hot slot under its writer
    /// lock, a sealed run under its place lock. The caller then fans the
    /// eviction out to the subscriptions.
    pub(crate) fn remove(&self, run: RunId) -> Option<RunView> {
        let old = write(self.shard(run)).remove(&run.0)?;
        match &old {
            RunView::Hot(slot) => slot.evict(),
            RunView::Sealed(sealed) => sealed.evict(),
        }
        Some(old)
    }

    /// Point-in-time snapshot of every registered run (unordered) — the
    /// scope the cross-run query surface scans. Locks are held only
    /// long enough to clone `Arc`s.
    pub(crate) fn snapshot_views(&self) -> Vec<(RunId, RunView)> {
        let mut out = Vec::new();
        self.for_each(|run, view| out.push((run, view.clone())));
        out
    }

    /// Visit every registered run without allocating (stats, the policy
    /// passes, the spill directory's census). Each shard's read lock is
    /// held while its entries are visited, so keep `f` cheap.
    pub(crate) fn for_each(&self, mut f: impl FnMut(RunId, &RunView)) {
        for shard in self.shards.iter() {
            for (id, view) in read(shard).iter() {
                f(RunId(*id), view);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{RunId, SpecId, Tier, WfEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::Ordering;
    use wf_run::{Execution, RunGenerator};

    /// A thread that panicked under a registry shard's write lock left a
    /// valid map: a run that lands in that shard still opens, ingests,
    /// freezes, answers, lists and evicts.
    #[test]
    fn a_poisoned_shard_is_recovered() {
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .build();
        let store = &engine.shared.store;
        let next = RunId(engine.shared.next_run.load(Ordering::Acquire));
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _g = store.shard(next).write();
                panic!("poison a shard on purpose");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(store.shard(next).is_poisoned());

        let spec = &engine.context(SpecId(0)).unwrap().spec;
        let gen = RunGenerator::new(spec)
            .target_size(30)
            .generate_run(&mut StdRng::seed_from_u64(9));
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        let run = engine.open_run(SpecId(0)).unwrap();
        assert_eq!(run, next);
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        engine.complete_run(run).unwrap();
        engine.freeze_run(run).unwrap();
        assert_eq!(engine.run_tier(run), Ok(Tier::Frozen));
        let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
        assert_eq!(engine.reach(run, u, v), Ok(Some(true)));
        assert_eq!(engine.query().run_ids(), vec![run]);
        engine.evict_run(run).unwrap();
        assert!(engine.query().run_ids().is_empty());
        assert_eq!(engine.stats().runs_frozen, 0);
    }
}
