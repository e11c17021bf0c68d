//! The lock-free published-label index: the engine's query-side view of
//! one run.
//!
//! DRL labels are *immutable once assigned* (Definitions 8–9 of the
//! paper), and the answer to `reach(u, v)` for two already-labeled
//! vertices never changes as the run keeps growing (reachability between
//! inserted vertices is monotone-stable under further insertions — the
//! property behind Remark 1). That makes the ideal concurrent read
//! structure a *write-once slot table*: the single ingest writer
//! publishes each vertex's label exactly once, and readers resolve
//! queries against whatever prefix of labels has been published, with no
//! locks and no retries.
//!
//! The table is a chunk array that grows by an eighth of itself at a
//! time (eight equal chunks per doubling of the capacity), so slots never
//! move once allocated — readers can hold borrows of a cell while the
//! writer keeps appending — and at most an eighth of the table is room
//! the run has not reached. Both levels use [`OnceLock`]: reads are a
//! single `Acquire` load per level, writes initialize each slot at most
//! once. No `unsafe` required.
//!
//! Each cell carries the vertex's **module name** next to its label, so
//! the cross-run query surface ([`crate::CrossRunQuery`]) can scan the
//! published chunks lock-free — "every vertex named N published so far"
//! — without touching the run's writer state.
//!
//! **What a cell holds, and what is shared.** A label is its context's
//! prefix array plus the vertex's own entry (Algorithm 3's single
//! append), and the run's parse tree numbers every prefix array a label
//! can carry where it creates it ([`wf_drl::DrlLabel::prefix_id`]). The
//! arrays live once each in the run's **prefix table**, a second table of
//! the same chunk layout indexed by that number (footnote 4's
//! pointer-not-copy, applied to the context path), and a cell is
//! `{ name, prefix slot, own entry }` — 28 bytes, a 32-byte slot, where
//! the slot is the number's chunk and offset packed into a `u32`, so a
//! read skips the number-to-slot arithmetic. Publishing stores an array
//! the first time a label carries it, and otherwise only checks that the
//! slot holds that very array: no hashing, no per-label reference count
//! kept. The writer stores the table slot before the cell, so a reader
//! that sees a cell sees its prefix. Every reader takes the one borrowed
//! form, [`LabelRef::Entries`], built from a cell and its table slot; a
//! hot `reach` over two cells of one context needs not even that. A
//! label the tree did not number (rebuilt from its entries) gets a slot
//! of its own in a private table of the same layout, allocated the first
//! time one is needed.
//!
//! While the run is live its labeler's parse tree holds every prefix
//! array too; once `complete()` drops the labeler the table is the
//! arrays' only holder, and a freeze that drops the index frees them. An
//! index is only ever filled by ingest: a run that leaves the hot tier
//! never comes back to it. The index counts the bytes of what it holds
//! itself — cells, table slots, arrays ([`LabelIndex::resident_bytes`]).

use std::mem::size_of;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use wf_drl::label::prefix_array_bytes;
use wf_drl::{DrlLabel, DrlPredicate, Entry, LabelRef};
use wf_graph::{NameId, VertexId};
use wf_skeleton::TclSpecLabels;

/// log₂ of the chunks per doubling of a table: group `g` is eight
/// chunks of `2^(BASE_BITS + g)` slots each, so a table grows by an
/// eighth of what it already holds — the unreached tail of a run's last
/// chunk, which a slot several words wide makes worth bounding.
const STEP_BITS: usize = 3;
/// log₂ of the slots per chunk in group 0.
const BASE_BITS: usize = 5;
/// Slots in group 0, and the offset that turns a slot into a *position*:
/// group `g` then covers positions `[ORIGIN · 2^g, ORIGIN · 2^(g+1))`,
/// so a position's leading one names its group and the `STEP_BITS` bits
/// after it name the chunk within the group.
const ORIGIN: usize = 1 << (STEP_BITS + BASE_BITS);
/// Number of chunks: 25 groups cover every `u32` slot number.
const CHUNKS: usize = 25 << STEP_BITS;

/// Slots in chunk `chunk`.
#[inline]
const fn chunk_len(chunk: usize) -> usize {
    1 << (BASE_BITS + (chunk >> STEP_BITS))
}

/// First slot of chunk `chunk`.
#[inline]
const fn chunk_start(chunk: usize) -> usize {
    let step = (1 << STEP_BITS) + (chunk & ((1 << STEP_BITS) - 1));
    step * chunk_len(chunk) - ORIGIN
}

/// Chunk and offset for a slot.
#[inline]
fn locate(slot: usize) -> (usize, usize) {
    let pos = slot + ORIGIN;
    // log₂ of the chunk's length: what is left of the position below
    // its leading one and the step bits.
    let bits = pos.ilog2() as usize - STEP_BITS;
    let chunk = ((bits - BASE_BITS) << STEP_BITS) + (pos >> bits) - (1 << STEP_BITS);
    (chunk, pos & ((1 << bits) - 1))
}

/// Bits of a packed [`position`] that hold the offset; the chunk sits
/// above them.
const OFFSET_BITS: u32 = 23;
/// Slots a packed position can name: those of the chunks no longer than
/// `2^OFFSET_BITS` — 2^27 − 256, far past the engine's 2^24 vertex ids.
const POSITIONED: usize = chunk_start((OFFSET_BITS as usize - BASE_BITS + 1) << STEP_BITS);

/// A slot's chunk and offset packed into 31 bits: what a cell keeps to
/// name its prefix's slot, so a read pays two masks where [`locate`]
/// pays a bit scan and two variable shifts — about a sixth of a hot
/// `reach` over small runs, measured on a 2-vCPU Xeon.
fn position(slot: usize) -> u32 {
    assert!(slot < POSITIONED, "a prefix table holds under 2^27 arrays");
    let (chunk, offset) = locate(slot);
    ((chunk as u32) << OFFSET_BITS) | offset as u32
}

/// One write-once value of a table, on a 32-byte boundary: a 32-byte
/// cell never straddles two cache lines (worth a tenth of a hot `reach`
/// over small runs, measured on a 2-vCPU Xeon), and a prefix-table slot
/// pays 8 bytes of padding for the same.
#[repr(align(32))]
struct Slot<T>(OnceLock<T>);

/// A write-once table of `T`s addressed by a dense slot number: the one
/// chunk layout behind both the cells and the prefix table. Safe for any
/// number of concurrent readers against one writer.
struct Chunks<T> {
    chunks: [OnceLock<Box<[Slot<T>]>>; CHUNKS],
}

impl<T> Chunks<T> {
    fn new() -> Self {
        Self {
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// The value in `slot`, once it is set: two `Acquire` loads.
    #[inline]
    fn get(&self, slot: usize) -> Option<&T> {
        let (chunk, offset) = locate(slot);
        self.chunks.get(chunk)?.get()?.get(offset)?.0.get()
    }

    /// The value at a packed [`position`], once it is set.
    #[inline]
    fn at(&self, position: u32) -> Option<&T> {
        let (chunk, offset) = (position >> OFFSET_BITS, position & ((1 << OFFSET_BITS) - 1));
        self.chunks
            .get(chunk as usize)?
            .get()?
            .get(offset as usize)?
            .0
            .get()
    }

    /// Set `slot`, allocating its chunk on first use; `Err(value)` when
    /// the slot was set already.
    fn set(&self, slot: usize, value: T) -> Result<(), T> {
        let (chunk, offset) = locate(slot);
        let slots = self.chunks[chunk].get_or_init(|| {
            (0..chunk_len(chunk))
                .map(|_| Slot(OnceLock::new()))
                .collect()
        });
        slots[offset].0.set(value)
    }

    /// Every set slot in slot order — whatever has been set at visit
    /// time, each value valid for the life of the table.
    fn iter(&self) -> impl Iterator<Item = (usize, &T)> + Clone + '_ {
        self.chunks.iter().enumerate().flat_map(|(k, chunk)| {
            chunk
                .get()
                .map(|slots| &slots[..])
                .unwrap_or(&[])
                .iter()
                .enumerate()
                .filter_map(move |(offset, slot)| {
                    slot.0.get().map(|t| (chunk_start(k) + offset, t))
                })
        })
    }

    /// Chunks allocated so far — what [`Self::iter`] walks.
    fn chunks_allocated(&self) -> usize {
        self.chunks.iter().filter(|c| c.get().is_some()).count()
    }
}

/// One published label: the vertex's module name (from
/// [`wf_run::ExecEvent::name`]), where its context's prefix array sits
/// in the run's prefix table — a packed [`position`], with [`PRIVATE`]
/// set for the private table — and its own entry.
struct Cell {
    name: NameId,
    prefix: u32,
    last: Entry,
}

/// A slot of the prefix table: one distinct array.
type PrefixSlot = Slot<Arc<[Entry]>>;

// A name, a position and an entry fit the 32-byte slot cells took
// before labels shared their prefixes.
const _: () = assert!(size_of::<Slot<Cell>>() <= 32);

/// The bit above a [`position`] that sends it to the private table.
const PRIVATE: u32 = 1 << 31;

/// Write-once label table for one run, safe for any number of concurrent
/// readers against one writer.
pub struct LabelIndex {
    cells: Chunks<Cell>,
    /// The run's prefix table: each array its labels carry, once, at the
    /// number the run's parse tree gave it.
    prefixes: Chunks<Arc<[Entry]>>,
    /// Arrays that came without a usable number, each in a slot of its
    /// own; allocated the first time one does.
    private: OnceLock<Box<Chunks<Arc<[Entry]>>>>,
    /// Private slots handed out.
    privates: AtomicU32,
    /// Number of labels published (reads with `Acquire` pair with the
    /// writer's `Release`, so a reader observing `published ≥ k` also
    /// observes the first `k` publications).
    published: AtomicUsize,
    /// Total bits across published labels (service-level stats).
    bits: AtomicU64,
    /// Prefix-table slots filled, plus the heap bytes of the arrays in
    /// them.
    prefix_bytes: AtomicU64,
}

impl Default for LabelIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl LabelIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self {
            cells: Chunks::new(),
            prefixes: Chunks::new(),
            private: OnceLock::new(),
            privates: AtomicU32::new(0),
            published: AtomicUsize::new(0),
            bits: AtomicU64::new(0),
            prefix_bytes: AtomicU64::new(0),
        }
    }

    /// Publish the label of `v`. Called only by the run's single ingest
    /// writer; each vertex is published at most once (the labeler
    /// rejects duplicate insertions upstream).
    pub fn publish(&self, v: VertexId, name: NameId, label: DrlLabel, skl_bits: usize) {
        let bits = label.bit_len(skl_bits) as u64;
        let (id, prefix, last) = label.into_parts();
        let prefix = self.hold(id, prefix);
        if self.cells.set(v.idx(), Cell { name, prefix, last }).is_ok() {
            self.bits.fetch_add(bits, Ordering::Relaxed);
            self.published.fetch_add(1, Ordering::Release);
        } else {
            debug_assert!(false, "label for {v:?} published twice");
        }
    }

    /// Where the tables hold `prefix`: at the tree's own number `id` —
    /// the array is stored the first time a label carries it, and only
    /// recognised after that — or in a private slot, for an array the
    /// tree did not number, or numbered for another run (a different
    /// array already sits at its number).
    fn hold(&self, id: Option<u32>, prefix: Arc<[Entry]>) -> u32 {
        if let Some(id) = id.map(|id| id as usize).filter(|&id| id < POSITIONED) {
            let at = position(id);
            match self.prefixes.at(at) {
                Some(held) if Arc::ptr_eq(held, &prefix) => return at,
                Some(_) => {}
                None => {
                    self.count(&prefix);
                    let stored = self.prefixes.set(id, prefix).is_ok();
                    debug_assert!(stored, "one writer");
                    return at;
                }
            }
        }
        let k = self.privates.fetch_add(1, Ordering::Relaxed) as usize;
        self.count(&prefix);
        let private = self.private.get_or_init(|| Box::new(Chunks::new()));
        let stored = private.set(k, prefix).is_ok();
        debug_assert!(stored, "one writer");
        PRIVATE | position(k)
    }

    /// Charge one table slot and the array in it.
    fn count(&self, prefix: &[Entry]) {
        let bytes = size_of::<PrefixSlot>() + prefix_array_bytes(prefix);
        self.prefix_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// A cell as the borrowed label it stands for: its table slot's
    /// array and its own entry. (The slot was stored before the cell, so
    /// it resolves.)
    #[inline]
    fn label<'a>(&'a self, cell: &'a Cell) -> Option<LabelRef<'a>> {
        Some(LabelRef::Entries {
            prefix: self.prefix(cell.prefix)?,
            last: &cell.last,
        })
    }

    /// The array a cell's `prefix` names.
    #[inline]
    fn prefix(&self, position: u32) -> Option<&Arc<[Entry]>> {
        if position & PRIVATE == 0 {
            self.prefixes.at(position)
        } else {
            self.private(position & !PRIVATE)
        }
    }

    /// The private slot at `position`: out of line, off the path of a
    /// run's own labels.
    #[cold]
    #[inline(never)]
    fn private(&self, position: u32) -> Option<&Arc<[Entry]>> {
        self.private.get()?.at(position)
    }

    /// The published label of `v`, if it has been labeled yet. Lock-free:
    /// two `Acquire` loads for the cell, two for its prefix.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<LabelRef<'_>> {
        self.label(self.cells.get(v.idx())?)
    }

    /// `u ; v` over two published labels, or `None` until both are. Two
    /// cells of one context — one prefix slot, one own index: common
    /// inside a small run — decide from their own entries, without a look
    /// at the table; any other pair reads both prefixes.
    #[inline]
    pub fn reach(
        &self,
        predicate: &DrlPredicate<'_, TclSpecLabels>,
        u: VertexId,
        v: VertexId,
    ) -> Option<bool> {
        let (a, b) = (self.cells.get(u.idx())?, self.cells.get(v.idx())?);
        if a.prefix == b.prefix && a.last.index == b.last.index {
            return predicate.reaches_in_context(&a.last, &b.last);
        }
        predicate.reaches_ref(self.label(a)?, self.label(b)?)
    }

    /// The module name `v` was published under, if it has been labeled.
    pub fn name(&self, v: VertexId) -> Option<NameId> {
        self.cells.get(v.idx()).map(|c| c.name)
    }

    /// Iterate every published `(vertex, name, label)`, lock-free and
    /// concurrent with the writer: walks the cells in vertex-id order
    /// and yields whatever has been published at visit time. Because
    /// labels are write-once, every yielded item stays valid for the life
    /// of the index. A clone walks again (freeze's second pass over a
    /// completed run).
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, NameId, LabelRef<'_>)> + Clone + '_ {
        self.cells
            .iter()
            .filter_map(|(slot, c)| Some((VertexId(slot as u32), c.name, self.label(c)?)))
    }

    /// [`Self::iter`] without the labels: every published `(vertex,
    /// name)`, no prefix looked up.
    pub fn names(&self) -> impl Iterator<Item = (VertexId, NameId)> + '_ {
        self.cells
            .iter()
            .map(|(slot, c)| (VertexId(slot as u32), c.name))
    }

    /// Cell chunks allocated so far — what [`Self::iter`] walks.
    pub fn chunks_allocated(&self) -> usize {
        self.cells.chunks_allocated()
    }

    /// Number of labels published so far.
    pub fn len(&self) -> usize {
        self.published.load(Ordering::Acquire)
    }

    /// True before any label is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bits across published labels (the paper's accounting size).
    pub fn total_bits(&self) -> u64 {
        self.bits.load(Ordering::Relaxed)
    }

    /// Hot-tier byte footprint of the published labels (accounting bits
    /// rounded up) — the unit the per-tier stats compare against frozen
    /// arena bytes and on-disk segment bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bits().div_ceil(8)
    }

    /// **Resident** bytes of the decoded labels: the bytes of label
    /// storage the index keeps alive, excluding the chunk tables
    /// themselves — one cell slot per published label (name, prefix
    /// slot, the label's own entry), one prefix-table slot per distinct
    /// prefix array, and every such array once, each at its full size.
    /// This is the memory freezing actually releases — several times the
    /// accounting size, since a decoded [`wf_drl::Entry`] spends a
    /// machine word where the accounting charges a few bits. The labels
    /// counted are the run's only copy (the ingest path moves each one
    /// in; the labeler keeps none), so for a completed run this plus the
    /// chunk tables is the run's label memory; a live run's labeler state
    /// — parse tree, placements, expansion map — is not counted here.
    pub fn resident_bytes(&self) -> u64 {
        (self.len() * size_of::<Slot<Cell>>()) as u64 + self.prefix_bytes.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for LabelIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LabelIndex")
            .field("published", &self.len())
            .field("total_bits", &self.total_bits())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_drl::{ExecutionState, NodeKind, ResolutionMode};
    use wf_run::{Execution, RunGenerator};
    use wf_spec::GraphId;

    fn label(i: u32) -> DrlLabel {
        DrlLabel::new(vec![Entry {
            index: i,
            kind: NodeKind::N,
            skl: Some((GraphId(0), VertexId(i))),
            rec: None,
        }])
    }

    /// Every `(vertex, name, label)` of one generated run, in arrival
    /// order, as its labeler issued them: numbered, sharing arrays.
    fn labeled_run(seed: u64, size: usize) -> Vec<(VertexId, NameId, DrlLabel)> {
        let ctx: crate::SpecContext =
            crate::SpecContext::from_spec(wf_spec::corpus::running_example());
        let (spec, skeleton) = (&ctx.spec, &ctx.skeleton);
        let gen = RunGenerator::new(spec)
            .target_size(size)
            .generate_run(&mut StdRng::seed_from_u64(seed));
        let exec = Execution::random(&gen.graph, &gen.origin, &mut StdRng::seed_from_u64(seed));
        let mut labeler = ExecutionState::new(spec, ResolutionMode::NameBased).unwrap();
        exec.events()
            .iter()
            .map(|ev| {
                let label = labeler.insert(spec, skeleton, ev).unwrap();
                (ev.vertex, ev.name, label)
            })
            .collect()
    }

    fn owned(label: Option<LabelRef<'_>>) -> Option<DrlLabel> {
        label.and_then(LabelRef::to_label)
    }

    /// Heap bytes of `label`'s prefix array.
    fn array_bytes(label: &DrlLabel) -> usize {
        let entries: Vec<Entry> = label.entries().copied().collect();
        prefix_array_bytes(&entries[..entries.len() - 1])
    }

    #[test]
    fn locate_covers_slots_without_overlap() {
        let mut seen = std::collections::HashSet::new();
        let mut cells = 0;
        for slot in 0..10_000 {
            let (chunk, offset) = locate(slot);
            assert!(offset < chunk_len(chunk), "offset in range");
            assert_eq!(chunk_start(chunk) + offset, slot, "iter() names the slot");
            assert!(seen.insert((chunk, offset)), "no overlap at {slot}");
            cells = cells.max(chunk_start(chunk) + chunk_len(chunk));
            // Never more than an eighth of the table (or the first
            // chunk) beyond the slots in use.
            assert!(
                cells <= (slot + 1) + (slot + 1) / 8 + 32,
                "{cells} cells for {slot}"
            );
        }
        // The packed position names the same chunk and offset.
        for slot in (0..10_000).chain([POSITIONED - 1]) {
            let (chunk, offset) = locate(slot);
            let p = position(slot);
            assert_eq!(p & PRIVATE, 0);
            assert_eq!(p >> OFFSET_BITS, chunk as u32);
            assert_eq!(p & ((1 << OFFSET_BITS) - 1), offset as u32);
        }
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(31), (0, 31));
        assert_eq!(locate(32), (1, 0));
        assert_eq!(locate(255), (7, 31));
        assert_eq!(locate(256), (8, 0));
        assert_eq!(locate(256 + 64), (9, 0));
        // The last chunk ends past the last `u32` id.
        let (chunk, offset) = locate(u32::MAX as usize);
        assert!(chunk < CHUNKS && offset < chunk_len(chunk));
    }

    /// Labels rebuilt from their entries carry no number: each gets a
    /// private table slot, and reads back equal.
    #[test]
    fn publish_then_get() {
        let idx = LabelIndex::new();
        assert!(idx.get(VertexId(5)).is_none());
        for i in [0u32, 5, 1, 1000, 17] {
            idx.publish(VertexId(i), NameId(i % 3), label(i), 4);
        }
        assert_eq!(idx.len(), 5);
        for i in [0u32, 5, 1, 1000, 17] {
            assert_eq!(owned(idx.get(VertexId(i))), Some(label(i)));
            assert_eq!(idx.name(VertexId(i)), Some(NameId(i % 3)));
        }
        assert!(idx.get(VertexId(2)).is_none());
        assert!(idx.name(VertexId(2)).is_none());
        assert!(idx.total_bits() > 0);
        // Five cells, five private slots, five (empty) arrays.
        let each = size_of::<Slot<Cell>>() + size_of::<PrefixSlot>() + prefix_array_bytes(&[]);
        assert_eq!(idx.resident_bytes(), 5 * each as u64);
    }

    /// What the index says it keeps is its cells, one table slot per
    /// distinct array, and those arrays — each once, however many labels
    /// carry it. A numbered label from another run, whose number names a
    /// different array here, goes to a private slot and still reads back
    /// as itself.
    #[test]
    fn resident_bytes_are_cells_table_slots_and_distinct_arrays() {
        let run = labeled_run(3, 800);
        let idx = LabelIndex::new();
        let mut arrays = std::collections::BTreeMap::new();
        for (v, name, label) in &run {
            let id = label.prefix_id().expect("a labeler numbers its arrays");
            let bytes = array_bytes(label);
            assert_eq!(*arrays.entry(id).or_insert(bytes), bytes);
            idx.publish(*v, *name, label.clone(), 4);
        }
        assert!(arrays.len() * 2 < run.len(), "{} arrays", arrays.len());
        let cells = (run.len() * size_of::<Slot<Cell>>()) as u64;
        let table = (arrays.len() * size_of::<PrefixSlot>()) as u64;
        let held = arrays.values().sum::<usize>() as u64;
        assert_eq!(idx.resident_bytes(), cells + table + held);
        assert!(
            idx.private.get().is_none(),
            "no private slot for a labeler's labels"
        );

        let other = labeled_run(4, 800);
        let (_, name, stranger) = other
            .iter()
            .rev()
            .find(|(_, _, l)| l.depth() > 2 && arrays.contains_key(&l.prefix_id().unwrap()))
            .unwrap();
        let v = VertexId(1 << 20);
        idx.publish(v, *name, stranger.clone(), 4);
        assert_eq!(owned(idx.get(v)).as_ref(), Some(stranger));
        assert!(idx.private.get().is_some());
        for (v, _, label) in &run {
            assert_eq!(owned(idx.get(*v)).as_ref(), Some(label));
        }
    }

    #[test]
    fn iter_yields_published_cells_in_vertex_order() {
        let idx = LabelIndex::new();
        // Publish out of order, across several chunks.
        for i in [1000u32, 0, 17, 5, 1] {
            idx.publish(VertexId(i), NameId(i), label(i), 4);
        }
        let seen: Vec<(u32, u32)> = idx.iter().map(|(v, name, _)| (v.0, name.0)).collect();
        assert_eq!(seen, vec![(0, 0), (1, 1), (5, 5), (17, 17), (1000, 1000)]);
    }

    /// One writer publishes a real run's labels — in vertex order, not the
    /// order they were issued in, so arrays go into the prefix table the
    /// first time a label carries them and some are first carried after a
    /// higher-numbered one, leaving holes that fill later — while four
    /// readers check that every cell they can see has a prefix that
    /// resolves, and reads back as the labeler's label.
    #[test]
    fn concurrent_readers_see_consistent_prefixes() {
        let mut run = labeled_run(11, 6000);
        run.sort_by_key(|(v, ..)| *v);
        let n = run.len();
        let mut first_carried = Vec::new();
        for (_, _, label) in &run {
            let id = label.prefix_id().unwrap();
            if !first_carried.contains(&id) {
                first_carried.push(id);
            }
        }
        assert!(
            first_carried.windows(2).any(|w| w[0] > w[1]),
            "some array is first carried out of number order"
        );
        let expected: std::collections::HashMap<VertexId, &DrlLabel> =
            run.iter().map(|(v, _, l)| (*v, l)).collect();
        let idx = LabelIndex::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for (v, name, label) in &run {
                    idx.publish(*v, *name, label.clone(), 4);
                }
            });
            for reader in 0..4 {
                let (idx, run, expected) = (&idx, &run, &expected);
                scope.spawn(move || {
                    let mut last = 0;
                    loop {
                        let len = idx.len();
                        assert!(len >= last, "published count is monotone");
                        last = len;
                        // A visible cell's prefix resolves, to the
                        // labeler's entries.
                        for (v, name, label) in run.iter().skip(reader).step_by(97) {
                            if idx.name(*v).is_some() {
                                let got = owned(idx.get(*v)).expect("a visible cell resolves");
                                assert_eq!(&got, label);
                                assert_eq!(idx.name(*v), Some(*name));
                            }
                        }
                        // The lock-free scan yields only complete,
                        // self-consistent cells.
                        for (v, _, got) in idx.iter().step_by(131) {
                            assert_eq!(got.to_label().as_ref(), Some(expected[&v]));
                        }
                        if len == n {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                });
            }
        });
        assert_eq!(idx.len(), n);
        assert_eq!(idx.iter().count(), n);

        // A label rebuilt from its entries carries no number: a private
        // slot of its own, reading back equal — beside the run's.
        let (_, name, shared) = &run[n / 2];
        let rebuilt = DrlLabel::new(shared.entries().copied().collect());
        assert_eq!(rebuilt.prefix_id(), None);
        let before = idx.resident_bytes();
        let v = VertexId(1 << 20);
        idx.publish(v, *name, rebuilt.clone(), 4);
        assert_eq!(owned(idx.get(v)), Some(rebuilt));
        assert_eq!(owned(idx.get(v)).as_ref(), Some(shared));
        assert_eq!(
            idx.resident_bytes() - before,
            (size_of::<Slot<Cell>>() + size_of::<PrefixSlot>() + array_bytes(shared)) as u64
        );
    }
}
