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
//! move once allocated — readers can hold borrows of a slot while the
//! writer keeps appending — and at most an eighth of the table is room
//! the run has not reached. A chunk is allocated once, through a
//! [`OnceLock`]: finding a slot is a single `Acquire` load. No `unsafe`
//! required.
//!
//! **The directory grows with the run.** The chunks' directory — 200
//! entries cover every `u32` slot — is itself paid for as the run reaches
//! it: the first 24 entries (1 792 slots) sit in the table, and the other
//! 176 in one boxed array that the first slot past them allocates. A run
//! that never gets that far — most of a fleet — carries two 600-byte
//! directories rather than two of 4.8 KB, and still finds any slot with
//! one load from the table itself; a larger run pays one more load, of a
//! directory that stays in cache.
//!
//! Each cell carries the vertex's **module name** next to its label, so
//! the cross-run query surface ([`crate::CrossRunQuery`]) can scan the
//! published chunks lock-free — "every vertex named N published so far"
//! — without touching the run's writer state.
//!
//! **What a cell holds, and what is shared.** A label is its context's
//! prefix array plus the vertex's own entry (Algorithm 3's single
//! append), each entry one 8-byte [`EntryWord`], and the run's parse
//! tree numbers every prefix array a label can carry where it creates it
//! ([`wf_drl::DrlLabel::prefix_id`]). The arrays live once each in the
//! run's **prefix table**, a second table of the same chunk layout
//! indexed by that number (footnote 4's pointer-not-copy, applied to the
//! context path): the labeler's very `Arc<[EntryWord]>`s, 8 bytes an
//! entry. A cell is two `AtomicU64` words, 16 bytes on a 16-byte
//! boundary, so four cells tile a cache line:
//!
//! * the *head* word: the module name, and where the prefix array sits
//!   — the number's chunk and offset packed into 32 bits, so a read
//!   skips the number-to-slot arithmetic;
//! * the *own* word: the label's own [`EntryWord`] as the label carries
//!   it, with the presence bit in the word's spare bit
//!   ([`EntryWord::SPARE`]), so the cell's word is 0 until published.
//!
//! There is one entry codec, `wf-drl`'s: every entry of a spec
//! [`wf_drl::SpecTables::fits_entry_words`] accepts packs, which
//! [`crate::WfEngine::open_run`] checks once per spec
//! ([`crate::SpecContext::hot_cells_hold`]); nothing is truncated, and
//! neither a publish nor a read converts an entry. **Publishing** stores
//! the prefix-table slot first, then the head `Relaxed`, then the own
//! word `Release`; a **reader** loads
//! the own word `Acquire` and, if it is present, the head — so a reader
//! that sees a cell sees its name and its prefix. The prefix table
//! stores an array the first time a label carries it, and otherwise
//! only checks that the slot holds that very array: no hashing, no
//! per-label reference count kept. Every reader takes the one borrowed
//! form, [`LabelRef::Entries`], built from a cell and its table slot; a
//! hot `reach` over two cells of one context compares a half of each
//! head and the index bits of each own word, and needs not even that. A
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
use wf_drl::{DrlLabel, DrlPredicate, EntryWord, LabelRef};
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

/// Chunks whose directory entries sit inline in a table: the first three
/// groups, 1 792 slots. A run of up to that many vertex slots — and the
/// prefix table of a run several times that — finds every chunk with one
/// load from the table itself; a table past them takes one more, through
/// [`Chunks::rest`].
const INLINE: usize = 3 << STEP_BITS;

/// One directory entry: a chunk, allocated on first use.
type Chunk<T> = OnceLock<Box<[T]>>;

/// A table of `T`s addressed by a dense slot number, its chunks
/// allocated on first use and never moved: the one chunk layout behind
/// both the cells and the prefix table. A slot is whatever `T` makes of
/// it — atomics, or a [`OnceLock`] — so the table is safe for any
/// number of concurrent readers against one writer.
///
/// The directory costs what the table has reached: [`INLINE`] entries
/// in the table, and the other `CHUNKS − INLINE` in one boxed array
/// allocated the first time a slot past them is — so an index of a run
/// that has not started is two short directories, not two full ones.
struct Chunks<T> {
    /// Chunks `0..INLINE`.
    inline: [Chunk<T>; INLINE],
    /// Chunks `INLINE..CHUNKS`.
    rest: OnceLock<Box<[Chunk<T>]>>,
}

impl<T: Default> Chunks<T> {
    fn new() -> Self {
        Self {
            inline: std::array::from_fn(|_| OnceLock::new()),
            rest: OnceLock::new(),
        }
    }

    /// The directory entry of chunk `chunk`, if the directory holding it
    /// exists (and `chunk` is one).
    #[inline]
    fn entry(&self, chunk: usize) -> Option<&Chunk<T>> {
        match self.inline.get(chunk) {
            Some(entry) => Some(entry),
            None => self.rest.get()?.get(chunk - INLINE),
        }
    }

    /// Slot `slot`, once its chunk is allocated: one `Acquire` load, or
    /// two past the inline directory.
    #[inline]
    fn get(&self, slot: usize) -> Option<&T> {
        let (chunk, offset) = locate(slot);
        self.entry(chunk)?.get()?.get(offset)
    }

    /// The slot at a packed [`position`], once its chunk is allocated.
    #[inline]
    fn at(&self, position: u32) -> Option<&T> {
        let (chunk, offset) = (position >> OFFSET_BITS, position & ((1 << OFFSET_BITS) - 1));
        self.entry(chunk as usize)?.get()?.get(offset as usize)
    }

    /// Slot `slot`, allocating its chunk — and the directory past the
    /// inline one — on first use.
    fn slot(&self, slot: usize) -> &T {
        let (chunk, offset) = locate(slot);
        let entry = match self.inline.get(chunk) {
            Some(entry) => entry,
            None => &self
                .rest
                .get_or_init(|| (INLINE..CHUNKS).map(|_| OnceLock::new()).collect())
                [chunk - INLINE],
        };
        let slots = entry.get_or_init(|| (0..chunk_len(chunk)).map(|_| T::default()).collect());
        &slots[offset]
    }

    /// Every slot of the chunks allocated at visit time, in slot order,
    /// each valid for the life of the table.
    fn iter(&self) -> Slots<'_, T> {
        Slots {
            table: self,
            chunk: 0,
            slots: [].iter().enumerate(),
            start: 0,
        }
    }

    /// Chunks allocated so far — what [`Self::iter`] walks.
    fn chunks_allocated(&self) -> usize {
        let rest = self.rest.get().map_or(&[][..], |rest| &rest[..]);
        self.inline
            .iter()
            .chain(rest)
            .filter(|c| c.get().is_some())
            .count()
    }
}

/// The slots of a [`Chunks`], chunk by chunk. A plain loop: the same
/// walk as a `flat_map`, with the presence filter after it, made a
/// freeze's arena build over the cells about 1.6× as slow (measured on
/// a 2-vCPU Xeon).
struct Slots<'a, T> {
    table: &'a Chunks<T>,
    /// The next chunk to visit.
    chunk: usize,
    /// The current chunk's slots, and its first slot's number.
    slots: std::iter::Enumerate<std::slice::Iter<'a, T>>,
    start: usize,
}

// Not derived: that would ask for `T: Clone`.
impl<T> Clone for Slots<'_, T> {
    fn clone(&self) -> Self {
        Self {
            table: self.table,
            chunk: self.chunk,
            slots: self.slots.clone(),
            start: self.start,
        }
    }
}

impl<'a, T: Default> Iterator for Slots<'a, T> {
    type Item = (usize, &'a T);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((offset, slot)) = self.slots.next() {
                return Some((self.start + offset, slot));
            }
            // Past the directory's end, or past its inline part before
            // the rest exists: done.
            let k = self.chunk;
            let entry = self.table.entry(k)?;
            self.chunk += 1;
            if let Some(slots) = entry.get() {
                (self.start, self.slots) = (chunk_start(k), slots.iter().enumerate());
            }
        }
    }
}

/// One published label in two words, written once by the run's writer:
/// the *head* holds the vertex's module name (from
/// [`wf_run::ExecEvent::name`]) in its low half and its prefix's packed
/// [`position`] in its high half, with [`PRIVATE`] set for the private
/// table; the *own* word holds its own [`EntryWord`] with [`PRESENT`]
/// set, 0 until published.
#[derive(Default)]
#[repr(align(16))]
struct Cell {
    head: AtomicU64,
    own: AtomicU64,
}

// Four cells to a cache line, none straddling two.
const _: () = assert!(size_of::<Cell>() == 16 && std::mem::align_of::<Cell>() == 16);

impl Cell {
    /// The head and own words once the cell is published: the own word
    /// `Acquire` — it pairs with the writer's `Release`, which came after
    /// the head — then the head.
    #[inline]
    fn read(&self) -> Option<(u64, u64)> {
        let own = self.own.load(Ordering::Acquire);
        (own & PRESENT != 0).then(|| (self.head.load(Ordering::Relaxed), own))
    }
}

/// The module name in a cell's head.
#[inline]
fn name_of(head: u64) -> NameId {
    NameId(head as u32)
}

/// The packed prefix position in a cell's head.
#[inline]
fn prefix_of(head: u64) -> u32 {
    (head >> 32) as u32
}

/// A slot of the prefix table: one distinct array.
type PrefixSlot = OnceLock<Arc<[EntryWord]>>;

/// The bit above a [`position`] that sends it to the private table.
const PRIVATE: u32 = 1 << 31;

/// A published own word's presence bit: the entry word's spare bit.
const PRESENT: u64 = EntryWord::SPARE;

// An own index counts the children of one parse-tree node, and the
// labeler adds a child only as a vertex arrives for it: the engine's
// vertex bound keeps every index within an entry word, so a labeler
// never refuses one.
const _: () = assert!(crate::DEFAULT_MAX_VERTEX_ID < EntryWord::MAX_INDEX);

/// Write-once label table for one run, safe for any number of concurrent
/// readers against one writer.
pub struct LabelIndex {
    cells: Chunks<Cell>,
    /// The run's prefix table: each array its labels carry, once, at the
    /// number the run's parse tree gave it.
    prefixes: Chunks<PrefixSlot>,
    /// Arrays that came without a usable number, each in a slot of its
    /// own; allocated the first time one does.
    private: OnceLock<Box<Chunks<PrefixSlot>>>,
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

// What an index costs before its run publishes a label: two directories
// of `INLINE` 24-byte chunk entries, each with a pointer to the rest of
// it, the private table's pointer and four counters.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(size_of::<LabelIndex>() == 1248);

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
        let own = last.bits() | PRESENT;
        let cell = self.cells.slot(v.idx());
        if cell.own.load(Ordering::Relaxed) != 0 {
            debug_assert!(false, "label for {v:?} published twice");
            return;
        }
        let head = u64::from(name.0) | u64::from(self.hold(id, prefix)) << 32;
        cell.head.store(head, Ordering::Relaxed);
        cell.own.store(own, Ordering::Release);
        self.bits.fetch_add(bits, Ordering::Relaxed);
        self.published.fetch_add(1, Ordering::Release);
    }

    /// Where the tables hold `prefix`: at the tree's own number `id` —
    /// the array is stored the first time a label carries it, and only
    /// recognised after that — or in a private slot, for an array the
    /// tree did not number, or numbered for another run (a different
    /// array already sits at its number).
    fn hold(&self, id: Option<u32>, prefix: Arc<[EntryWord]>) -> u32 {
        if let Some(id) = id.map(|id| id as usize).filter(|&id| id < POSITIONED) {
            let slot = self.prefixes.slot(id);
            match slot.get() {
                Some(held) if Arc::ptr_eq(held, &prefix) => return position(id),
                Some(_) => {}
                None => {
                    self.count(&prefix);
                    let stored = slot.set(prefix).is_ok();
                    debug_assert!(stored, "one writer");
                    return position(id);
                }
            }
        }
        let k = self.privates.fetch_add(1, Ordering::Relaxed) as usize;
        self.count(&prefix);
        let private = self.private.get_or_init(|| Box::new(Chunks::new()));
        let stored = private.slot(k).set(prefix).is_ok();
        debug_assert!(stored, "one writer");
        PRIVATE | position(k)
    }

    /// Charge one table slot and the array in it.
    fn count(&self, prefix: &[EntryWord]) {
        let bytes = size_of::<PrefixSlot>() + prefix_array_bytes(prefix);
        self.prefix_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// The published cell of `v`, as its head and own words.
    #[inline]
    fn cell(&self, v: VertexId) -> Option<(u64, u64)> {
        self.cells.get(v.idx())?.read()
    }

    /// A published cell as the borrowed label it stands for: its table
    /// slot's array and its own entry. (The slot was stored before the
    /// cell, so it resolves.)
    #[inline]
    fn label(&self, (head, own): (u64, u64)) -> Option<LabelRef<'_>> {
        Some(LabelRef::Entries {
            prefix: self.prefix(prefix_of(head))?,
            last: EntryWord::from_bits(own),
        })
    }

    /// The array a cell's prefix position names.
    #[inline]
    fn prefix(&self, position: u32) -> Option<&Arc<[EntryWord]>> {
        if position & PRIVATE == 0 {
            self.prefixes.at(position)?.get()
        } else {
            self.private(position & !PRIVATE)
        }
    }

    /// The private slot at `position`: out of line, off the path of a
    /// run's own labels.
    #[cold]
    #[inline(never)]
    fn private(&self, position: u32) -> Option<&Arc<[EntryWord]>> {
        self.private.get()?.at(position)?.get()
    }

    /// The published label of `v`, if it has been labeled yet. Lock-free:
    /// one `Acquire` load for the cell's chunk and one for the cell, two
    /// for its prefix.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<LabelRef<'_>> {
        self.label(self.cell(v)?)
    }

    /// `u ; v` over two published labels, or `None` until both are. Two
    /// cells of one context — one prefix position, one own index: common
    /// inside a small run — decide from their own entries, without a look
    /// at the table; any other pair reads both prefixes.
    #[inline]
    pub fn reach(
        &self,
        predicate: &DrlPredicate<'_, TclSpecLabels>,
        u: VertexId,
        v: VertexId,
    ) -> Option<bool> {
        let (a, b) = (self.cell(u)?, self.cell(v)?);
        let (own_a, own_b) = (EntryWord::from_bits(a.1), EntryWord::from_bits(b.1));
        if (a.0 ^ b.0) >> 32 == 0 && own_a.same_index(own_b) {
            return predicate.reaches_in_context(own_a, own_b);
        }
        predicate.reaches_ref(self.label(a)?, self.label(b)?)
    }

    /// The module name `v` was published under, if it has been labeled.
    pub fn name(&self, v: VertexId) -> Option<NameId> {
        self.cell(v).map(|(head, _)| name_of(head))
    }

    /// Every published cell, in vertex-id order, as its head and own
    /// words.
    fn cells(&self) -> impl Iterator<Item = (VertexId, (u64, u64))> + Clone + '_ {
        self.cells
            .iter()
            .filter_map(|(slot, cell)| Some((VertexId(slot as u32), cell.read()?)))
    }

    /// Iterate every published `(vertex, name, label)`, lock-free and
    /// concurrent with the writer: walks the cells in vertex-id order
    /// and yields whatever has been published at visit time. Because
    /// labels are write-once, every yielded item stays valid for the life
    /// of the index. A clone walks again (freeze's second pass over a
    /// completed run).
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, NameId, LabelRef<'_>)> + Clone + '_ {
        self.cells()
            .filter_map(|(v, cell)| Some((v, name_of(cell.0), self.label(cell)?)))
    }

    /// [`Self::iter`] without the labels: every published `(vertex,
    /// name)`, no prefix looked up.
    pub fn names(&self) -> impl Iterator<Item = (VertexId, NameId)> + '_ {
        self.cells().map(|(v, (head, _))| (v, name_of(head)))
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

    /// **Resident** bytes of the decoded labels: the bytes of label
    /// storage the index keeps alive — one two-word cell per published
    /// label (its name, prefix position and own entry, 16 bytes), one
    /// prefix-table slot per distinct prefix array, and every such array
    /// once, each at its full size. Not counted: the chunk directories
    /// (24 entries of each inside the index itself, the boxed other 176
    /// once a table passes them) and the chunks' unreached slots. This
    /// is the memory freezing actually releases — more than the
    /// accounting size, since an [`EntryWord`] in an array spends 64 bits
    /// where the accounting charges a few dozen.
    /// The labels counted are the run's only copy (the ingest path moves
    /// each one in; the labeler keeps none), so for a completed run this
    /// plus the chunk tables is the run's label memory; a live run's
    /// labeler state — parse tree, placements, expansion slots — is not
    /// counted here.
    pub fn resident_bytes(&self) -> u64 {
        (self.len() * size_of::<Cell>()) as u64 + self.prefix_bytes.load(Ordering::Relaxed)
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
    use wf_drl::{Entry, ExecutionState, NodeKind, ResolutionMode};
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
        let mut labeler = ExecutionState::new(ctx.tables(), ResolutionMode::NameBased).unwrap();
        exec.events()
            .iter()
            .map(|ev| {
                let label = labeler.insert(spec, skeleton, ctx.tables(), ev).unwrap();
                (ev.vertex, ev.name, label)
            })
            .collect()
    }

    fn owned(label: Option<LabelRef<'_>>) -> Option<DrlLabel> {
        label.and_then(LabelRef::to_label)
    }

    /// Heap bytes of `label`'s prefix array.
    fn array_bytes(label: &DrlLabel) -> usize {
        let (_, prefix, _) = label.clone().into_parts();
        prefix_array_bytes(&prefix)
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
        let each = size_of::<Cell>() + size_of::<PrefixSlot>() + prefix_array_bytes(&[]);
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
        let cells = (run.len() * size_of::<Cell>()) as u64;
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

    /// One writer publishes out of vertex order — a run's numbered
    /// labels, labels rebuilt from their entries (private-table slots)
    /// and labels whose own entry has no skeleton pointer — each under a
    /// name no other vertex has, while four readers check that every
    /// cell they see reads whole: its name, prefix and own entry are the
    /// ones published together. Each reader follows the writer, spinning
    /// on the next cell it publishes until it appears, so reads land on
    /// cells as they are published: a reader that took the head before
    /// the own word would see a present entry beside name 0 and prefix
    /// slot 0, which no label here has.
    #[test]
    fn readers_never_see_a_torn_cell() {
        let run = labeled_run(5, 6000);
        let published: Vec<(VertexId, NameId, DrlLabel)> = run
            .into_iter()
            .map(|(v, _, label)| {
                let name = NameId(2 * v.0 + 1);
                let label = match v.0 % 3 {
                    0 => label,
                    1 => DrlLabel::new(label.entries().collect()),
                    _ => {
                        let mut entries: Vec<Entry> = label.entries().collect();
                        let own = entries.len() - 1;
                        entries[own] = Entry::special(v.0 % 97, NodeKind::F);
                        DrlLabel::new(entries)
                    }
                };
                (v, name, label)
            })
            .collect();
        let expected: std::collections::HashMap<VertexId, (NameId, &DrlLabel)> = published
            .iter()
            .map(|(v, name, label)| (*v, (*name, label)))
            .collect();
        // Odd slots high to low, then even slots low to high.
        let mut order: Vec<&(VertexId, NameId, DrlLabel)> = published.iter().collect();
        order.sort_by_key(|(v, ..)| match v.0 % 2 {
            1 => (0, u32::MAX - v.0),
            _ => (1, v.0),
        });
        let n = order.len();
        let idx = LabelIndex::new();
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for (v, name, label) in &order {
                    idx.publish(*v, *name, label.clone(), 4);
                }
            });
            for reader in 0..4 {
                let (idx, order, expected, start) = (&idx, &order, &expected, &start);
                scope.spawn(move || {
                    start.wait();
                    // Every other cell is first seen through its name,
                    // the rest through its label: each one read.
                    for (k, (v, name, label)) in order.iter().enumerate() {
                        if (k + reader) % 2 == 0 {
                            let seen = loop {
                                match idx.name(*v) {
                                    Some(seen) => break seen,
                                    None => std::hint::spin_loop(),
                                }
                            };
                            assert_eq!(seen, *name, "{v:?}");
                        } else {
                            let seen = loop {
                                match idx.get(*v) {
                                    Some(seen) => break seen.to_label(),
                                    None => std::hint::spin_loop(),
                                }
                            };
                            assert_eq!(seen.as_ref(), Some(label), "{v:?}");
                        }
                    }
                    for (v, name, got) in idx.iter() {
                        let (want_name, want) = expected[&v];
                        assert_eq!(name, want_name, "{v:?}");
                        assert_eq!(got.to_label().as_ref(), Some(want), "{v:?}");
                    }
                });
            }
        });
        assert_eq!(idx.iter().count(), n);
        assert!(
            idx.private.get().is_some(),
            "rebuilt labels took private slots"
        );
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
        let rebuilt = DrlLabel::new(shared.entries().collect());
        assert_eq!(rebuilt.prefix_id(), None);
        let before = idx.resident_bytes();
        let v = VertexId(1 << 20);
        idx.publish(v, *name, rebuilt.clone(), 4);
        assert_eq!(owned(idx.get(v)), Some(rebuilt));
        assert_eq!(owned(idx.get(v)).as_ref(), Some(shared));
        assert_eq!(
            idx.resident_bytes() - before,
            (size_of::<Cell>() + size_of::<PrefixSlot>() + array_bytes(shared)) as u64
        );
    }

    /// The first slot whose chunk's directory entry is not inline.
    const SEAM: usize = chunk_start(INLINE);

    /// Both sides of the seam between the inline directory and the boxed
    /// rest read and write alike: `slot`, `get`, `at` and `iter`, and the
    /// boxed directory is allocated only once a slot past the seam is.
    #[test]
    fn the_directory_reads_alike_on_both_sides_of_the_inline_seam() {
        assert_eq!(SEAM, 1792);
        assert_eq!(locate(SEAM), (INLINE, 0));
        assert_eq!(locate(SEAM - 1), (INLINE - 1, chunk_len(INLINE - 1) - 1));
        let table: Chunks<AtomicU64> = Chunks::new();
        assert_eq!(table.chunks_allocated(), 0);
        for slot in [0, SEAM - 1] {
            table.slot(slot).store(slot as u64 + 1, Ordering::Relaxed);
        }
        assert_eq!(table.chunks_allocated(), 2);
        assert!(table.rest.get().is_none(), "nothing past the seam yet");
        assert!(table.get(SEAM).is_none());
        assert!(table.at(position(SEAM)).is_none());
        let far = [SEAM, SEAM + 1, 3 * SEAM, 1 << 20];
        for slot in far.into_iter().rev() {
            table.slot(slot).store(slot as u64 + 1, Ordering::Relaxed);
        }
        assert!(table.rest.get().is_some());
        assert_eq!(table.chunks_allocated(), 5);
        let written = [0, SEAM - 1].into_iter().chain(far);
        for slot in written.clone() {
            let want = slot as u64 + 1;
            assert_eq!(
                table.get(slot).map(|s| s.load(Ordering::Relaxed)),
                Some(want)
            );
            let at = table.at(position(slot));
            assert_eq!(at.map(|s| s.load(Ordering::Relaxed)), Some(want));
        }
        // Slot order across the seam, holes skipped, whatever the order
        // the chunks were allocated in.
        let seen: Vec<usize> = table
            .iter()
            .filter(|(_, s)| s.load(Ordering::Relaxed) != 0)
            .map(|(slot, _)| slot)
            .collect();
        assert_eq!(seen, written.clone().collect::<Vec<_>>());
        let walked = table.iter().count();
        let chunks: std::collections::BTreeSet<usize> =
            written.map(|slot| locate(slot).0).collect();
        assert_eq!(chunks.len(), 5, "SEAM and SEAM + 1 share a chunk");
        let allocated: usize = chunks.iter().map(|&chunk| chunk_len(chunk)).sum();
        assert_eq!(walked, allocated, "iter walks every allocated chunk once");

        // The index over the same seam: a run's cells on both sides.
        let idx = LabelIndex::new();
        let vertices = [
            VertexId(SEAM as u32),
            VertexId(0),
            VertexId(SEAM as u32 - 1),
        ];
        for v in vertices {
            idx.publish(v, NameId(v.0), label(v.0), 4);
        }
        assert_eq!(idx.chunks_allocated(), 3);
        for v in vertices {
            assert_eq!(owned(idx.get(v)), Some(label(v.0)));
        }
        let order: Vec<u32> = idx.iter().map(|(v, ..)| v.0).collect();
        assert_eq!(order, vec![0, SEAM as u32 - 1, SEAM as u32]);
    }

    /// Readers spinning on cells past the seam while the writer makes the
    /// boxed directory for the first of them: each reader sees either no
    /// cell or the whole one, through `get` and through `iter`.
    #[test]
    fn readers_race_the_first_allocation_past_the_seam() {
        for _ in 0..20 {
            let idx = LabelIndex::new();
            let slots: Vec<u32> = (0..64).map(|k| (SEAM + 97 * k) as u32).collect();
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    start.wait();
                    for &v in &slots {
                        idx.publish(VertexId(v), NameId(v), label(v), 4);
                    }
                });
                for _ in 0..3 {
                    let (idx, slots, start) = (&idx, &slots, &start);
                    scope.spawn(move || {
                        start.wait();
                        for &v in slots {
                            let seen = loop {
                                if let Some(seen) = idx.get(VertexId(v)) {
                                    break seen.to_label();
                                }
                                for (u, name, got) in idx.iter() {
                                    assert_eq!(name, NameId(u.0));
                                    assert_eq!(got.to_label(), Some(label(u.0)));
                                }
                                std::hint::spin_loop();
                            };
                            assert_eq!(seen, Some(label(v)));
                        }
                    });
                }
            });
            assert_eq!(idx.iter().count(), slots.len());
        }
    }
}
