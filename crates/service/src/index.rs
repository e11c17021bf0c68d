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
//! move once allocated — readers can hold [`PublishedLabel`] borrows
//! while the writer keeps appending — and at most an eighth of the table
//! is room the run has not reached. Both levels use [`OnceLock`]: reads
//! are a single `Acquire` load per level, writes initialize each cell at
//! most once. No `unsafe` required.
//!
//! Each cell carries the vertex's **module name** next to its label, so
//! the cross-run query surface ([`crate::CrossRunQuery`]) can scan the
//! published chunks lock-free — "every vertex named N published so far"
//! — without touching the run's writer state.
//!
//! **What a cell holds, and what is shared.** A [`DrlLabel`] is its
//! context's prefix array — one `Arc<[Entry]>` per parse-tree node,
//! shared by the node's labels — plus the vertex's own entry inline, so a
//! cell is name + pointer + one entry and owns no allocation of its own.
//! While the run is live its labeler's parse tree holds every prefix
//! array too; once `complete()` drops the labeler the cells are the
//! arrays' only holders, and a freeze that drops the index frees them.
//! An index is only ever filled by ingest: a run that leaves the hot
//! tier never comes back to it. The writer
//! tells the index how many bytes those distinct arrays take
//! ([`LabelIndex::set_prefix_bytes`]): the index cannot see, label by
//! label, which array it has met before.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use wf_drl::DrlLabel;
use wf_graph::{NameId, VertexId};

/// log₂ of the chunks per doubling of the table: group `g` is eight
/// chunks of `2^(BASE_BITS + g)` cells each, so the table grows by an
/// eighth of what it already holds — the unreached tail of a run's last
/// chunk, which a cell several words wide makes worth bounding.
const STEP_BITS: usize = 3;
/// log₂ of the cells per chunk in group 0.
const BASE_BITS: usize = 5;
/// Cells in group 0, and the offset that turns a slot into a *position*:
/// group `g` then covers positions `[ORIGIN · 2^g, ORIGIN · 2^(g+1))`,
/// so a position's leading one names its group and the `STEP_BITS` bits
/// after it name the chunk within the group.
const ORIGIN: usize = 1 << (STEP_BITS + BASE_BITS);
/// Number of chunks: 25 groups cover every `u32` vertex id.
const CHUNKS: usize = 25 << STEP_BITS;

/// Cells in chunk `chunk`.
#[inline]
fn chunk_len(chunk: usize) -> usize {
    1 << (BASE_BITS + (chunk >> STEP_BITS))
}

/// First slot of chunk `chunk`.
#[inline]
fn chunk_start(chunk: usize) -> usize {
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

/// What the ingest writer publishes per vertex: the module name from the
/// insertion event plus the vertex's permanent DRL label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishedLabel {
    /// The vertex's module name (from [`wf_run::ExecEvent::name`]).
    pub name: NameId,
    /// The vertex's immutable DRL label.
    pub label: DrlLabel,
}

/// Write-once label table for one run, safe for any number of concurrent
/// readers against one writer.
pub struct LabelIndex {
    chunks: [OnceLock<Box<[OnceLock<PublishedLabel>]>>; CHUNKS],
    /// Number of labels published (reads with `Acquire` pair with the
    /// writer's `Release`, so a reader observing `published ≥ k` also
    /// observes the first `k` publications).
    published: AtomicUsize,
    /// Total bits across published labels (service-level stats).
    bits: AtomicU64,
    /// Bytes of the distinct prefix arrays the published labels share,
    /// as the writer last reported them.
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
            chunks: std::array::from_fn(|_| OnceLock::new()),
            published: AtomicUsize::new(0),
            bits: AtomicU64::new(0),
            prefix_bytes: AtomicU64::new(0),
        }
    }

    /// Publish the label of `v`. Called only by the run's single ingest
    /// writer; each vertex is published at most once (the labeler
    /// rejects duplicate insertions upstream).
    pub fn publish(&self, v: VertexId, name: NameId, label: DrlLabel, skl_bits: usize) {
        let (chunk, offset) = locate(v.idx());
        let cells = self.chunks[chunk].get_or_init(|| {
            (0..chunk_len(chunk))
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        let bits = label.bit_len(skl_bits) as u64;
        if cells[offset].set(PublishedLabel { name, label }).is_ok() {
            self.bits.fetch_add(bits, Ordering::Relaxed);
            self.published.fetch_add(1, Ordering::Release);
        } else {
            debug_assert!(false, "label for {v:?} published twice");
        }
    }

    /// The published label of `v`, if it has been labeled yet. Lock-free:
    /// two `Acquire` loads.
    pub fn get(&self, v: VertexId) -> Option<&DrlLabel> {
        self.get_published(v).map(|p| &p.label)
    }

    /// The published `(name, label)` cell of `v`, if any.
    pub fn get_published(&self, v: VertexId) -> Option<&PublishedLabel> {
        let (chunk, offset) = locate(v.idx());
        self.chunks[chunk]
            .get()
            .and_then(|cells| cells[offset].get())
    }

    /// Iterate every published cell, lock-free and concurrent with the
    /// writer: walks the chunk table in vertex-id order and yields
    /// whatever prefix of cells has been initialized at visit time.
    /// Because labels are write-once, every yielded item stays valid for
    /// the life of the index.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &PublishedLabel)> + '_ {
        self.chunks.iter().enumerate().flat_map(|(k, chunk)| {
            chunk
                .get()
                .map(|cells| &cells[..])
                .unwrap_or(&[])
                .iter()
                .enumerate()
                .filter_map(move |(offset, cell)| {
                    let v = VertexId((chunk_start(k) + offset) as u32);
                    cell.get().map(|p| (v, p))
                })
        })
    }

    /// Chunks allocated so far — what [`Self::iter`] walks.
    pub fn chunks_allocated(&self) -> usize {
        self.chunks.iter().filter(|c| c.get().is_some()).count()
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

    /// Record the heap bytes of the distinct prefix arrays the published
    /// labels carry, each array counted once. Called by the index's one
    /// writer with the running total of the labeler that issued the
    /// labels ([`wf_drl::tree::ExplicitTree::label_prefix_bytes`]).
    pub fn set_prefix_bytes(&self, total: u64) {
        self.prefix_bytes.store(total, Ordering::Relaxed);
    }

    /// **Resident** bytes of the decoded labels: the bytes of label
    /// storage the index keeps alive, excluding the chunk table itself —
    /// one cell per published label (name, prefix pointer, the label's
    /// own entry) plus every distinct shared prefix array once. This is
    /// the memory freezing actually releases — several times the
    /// accounting size, since a decoded [`wf_drl::Entry`] spends a
    /// machine word where the accounting charges a few bits. The labels
    /// counted are the run's only copy (the ingest path moves each one
    /// in; the labeler keeps none), so for a completed run this plus the
    /// chunk table is the run's label memory; a live run's labeler state
    /// — parse tree, placements, expansion map — is not counted here.
    pub fn resident_bytes(&self) -> u64 {
        (self.len() * std::mem::size_of::<PublishedLabel>()) as u64
            + self.prefix_bytes.load(Ordering::Relaxed)
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
    use wf_drl::{Entry, NodeKind};
    use wf_spec::GraphId;

    fn label(i: u32) -> DrlLabel {
        DrlLabel::new(vec![Entry {
            index: i,
            kind: NodeKind::N,
            skl: Some((GraphId(0), VertexId(i))),
            rec: None,
        }])
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

    #[test]
    fn publish_then_get() {
        let idx = LabelIndex::new();
        assert!(idx.get(VertexId(5)).is_none());
        for i in [0u32, 5, 1, 1000, 17] {
            idx.publish(VertexId(i), NameId(i % 3), label(i), 4);
        }
        assert_eq!(idx.len(), 5);
        for i in [0u32, 5, 1, 1000, 17] {
            assert_eq!(idx.get(VertexId(i)), Some(&label(i)));
            assert_eq!(idx.get_published(VertexId(i)).unwrap().name, NameId(i % 3));
        }
        assert!(idx.get(VertexId(2)).is_none());
        assert!(idx.total_bits() > 0);
        // One cell per label, plus whatever the writer reports for the
        // arrays the labels share.
        let cells = 5 * std::mem::size_of::<PublishedLabel>() as u64;
        assert_eq!(idx.resident_bytes(), cells);
        idx.set_prefix_bytes(80);
        assert_eq!(idx.resident_bytes(), cells + 80);
    }

    #[test]
    fn iter_yields_published_cells_in_vertex_order() {
        let idx = LabelIndex::new();
        // Publish out of order, across several chunks.
        for i in [1000u32, 0, 17, 5, 1] {
            idx.publish(VertexId(i), NameId(i), label(i), 4);
        }
        let seen: Vec<(u32, u32)> = idx.iter().map(|(v, p)| (v.0, p.name.0)).collect();
        assert_eq!(seen, vec![(0, 0), (1, 1), (5, 5), (17, 17), (1000, 1000)]);
    }

    #[test]
    fn concurrent_readers_see_consistent_prefixes() {
        let idx = LabelIndex::new();
        let n: u32 = 4000;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..n {
                    idx.publish(VertexId(i), NameId(i), label(i), 4);
                }
            });
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut last = 0;
                    loop {
                        let len = idx.len();
                        assert!(len >= last, "published count is monotone");
                        last = len;
                        // Every id below the published count that we can
                        // see must carry exactly its own label.
                        for i in (0..len as u32).step_by(97) {
                            if let Some(l) = idx.get(VertexId(i)) {
                                assert_eq!(l, &label(i));
                            }
                        }
                        // The lock-free scan must only yield complete,
                        // self-consistent cells.
                        for (v, p) in idx.iter().step_by(131) {
                            assert_eq!(p.name, NameId(v.0));
                            assert_eq!(p.label, label(v.0));
                        }
                        if len == n as usize {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                });
            }
        });
        assert_eq!(idx.len(), n as usize);
        assert_eq!(idx.iter().count(), n as usize);
    }
}
