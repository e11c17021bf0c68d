//! Reachability-label entries (Algorithm 1: *Entry Construction*).
//!
//! A DRL label is a list of entries, one per explicit-parse-tree node on
//! the root path of the labeled vertex's context. Each entry is the tuple
//! `(index, type, skl, rec1, rec2)`:
//!
//! * `index` — the node's index among its parent's children (root = 0);
//!   the index sequence is a prefix/Dewey label of the context \[18\];
//! * `type` — the node kind (`N`/`L`/`F`/`R`), 2 bits;
//! * `skl` — for non-special nodes, a *pointer* to the skeleton label of
//!   the origin vertex in the annotated specification graph (footnote 4:
//!   the label itself is shared, only the pointer is stored);
//! * `rec1`/`rec2` — when the annotated graph has a (designated)
//!   recursive vertex `w`, two booleans recording whether the origin can
//!   reach `w` and vice versa, precomputed from skeleton labels
//!   (Algorithm 1, lines 9–10).
//!
//! **Two forms of one entry.** [`Entry`] is the decoded value: what
//! Algorithm 1 builds, what the predicate's case analysis reads, what
//! the wire code writes. [`EntryWord`] is how an entry is *kept*: one
//! `u64` at fixed widths, the form of every shared prefix array, of a
//! label's own entry and of a hot-tier cell. Theorem 3 charges an entry
//! a few dozen bits; the word spends 64 on it where the decoded struct
//! spends 20 bytes. Low bit first:
//!
//! | bits  | field |
//! |-------|-------|
//! | 0     | spare: never set by a word, free for a holder's flag |
//! | 1–2   | kind (`N` 0, `L` 1, `F` 2, `R` 3) |
//! | 3–5   | rec: 0 for none, else 1 + 2·rec1 + rec2 |
//! | 6–30  | index, 25 bits |
//! | 31–46 | skeleton graph, 16 bits |
//! | 47–63 | skeleton vertex, 17 bits; all ones for no pointer |
//!
//! The skeleton pointer is footnote 4's pointer-not-copy at a fixed
//! width: graph and vertex name the shared skeleton label, so a spec is
//! held iff it has at most 2^16 graphs of at most 2^17 − 1 vertex slots
//! each ([`crate::SpecTables::fits_entry_words`]; a TCL over a graph of
//! 2^16 vertices alone is 256 MiB). An index counts the children of one
//! parse-tree node, and a labeler refuses the 2^25-th child rather than
//! truncate it. Nothing is ever truncated: [`EntryWord::pack`] refuses a
//! field wider than its slot, and the wire decoder refuses an entry no
//! word holds.

use serde::{Deserialize, Serialize};
use std::fmt;
use wf_graph::VertexId;
use wf_spec::GraphId;

/// Kind of an explicit-parse-tree node (2 bits in the label).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// Non-special node, annotated with a specification graph.
    N,
    /// Loop node: children are series-composed copies of a loop body.
    L,
    /// Fork node: children are parallel copies of a fork body.
    F,
    /// Recursive node: children are the flattened members of a linear
    /// recursion chain.
    R,
}

/// A pointer into the shared skeleton labels: `(spec graph, spec vertex)`.
pub type SklPtr = (GraphId, VertexId);

/// One entry of a DRL label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Entry {
    /// Index of the tree node among its parent's children (root = 0,
    /// children start at 1).
    pub index: u32,
    /// The tree node's kind.
    pub kind: NodeKind,
    /// Skeleton pointer for the origin vertex (`None` for special
    /// nodes, whose edge annotation is null).
    pub skl: Option<SklPtr>,
    /// `(rec1, rec2)`: origin ⇝ recursive vertex, recursive vertex ⇝
    /// origin — present iff the annotated graph has a designated
    /// recursive vertex.
    pub rec: Option<(bool, bool)>,
}

impl Entry {
    /// Entry for a special node level (`u_i = null`).
    pub fn special(index: u32, kind: NodeKind) -> Self {
        debug_assert!(kind != NodeKind::N);
        Self {
            index,
            kind,
            skl: None,
            rec: None,
        }
    }

    /// Storage size in bits, mirroring the accounting in the proof of
    /// Theorem 3: `bits(index) + 2 + bits(skl pointer) + rec flags`.
    ///
    /// `skl_bits` is the pointer width `⌈log₂ nG⌉` (nG = max spec graph
    /// size): the annotated graph is implied by the label's index prefix,
    /// so only the vertex index within it is charged (footnote 4).
    pub fn bit_len(&self, skl_bits: usize) -> usize {
        bit_len(self.index, self.skl.is_some(), self.rec.is_some(), skl_bits)
    }
}

/// The Theorem-3 bits of an entry with this index, with or without a
/// skeleton pointer and rec flags.
#[inline]
fn bit_len(index: u32, skl: bool, rec: bool, skl_bits: usize) -> usize {
    index_bits(index) + 2 + if skl { skl_bits } else { 0 } + if rec { 2 } else { 0 }
}

/// Whether a word's fields hold an entry of this index, skeleton graph
/// and skeleton vertex: [`EntryWord::pack`]'s rule, and the wire
/// decoder's.
#[inline]
pub(crate) fn fits_word(index: u64, graph: u64, vertex: u64) -> bool {
    index <= u64::from(EntryWord::MAX_INDEX)
        && graph < EntryWord::MAX_GRAPHS as u64
        && vertex < EntryWord::MAX_SLOTS as u64
}

/// Minimal binary width of an index value.
pub fn index_bits(x: u32) -> usize {
    (32 - x.max(1).leading_zeros()) as usize
}

/// One [`Entry`] packed into a `u64` at the fixed widths of the module
/// docs' table: how prefix arrays, a label's own entry and the hot
/// tier's cells keep entries. Bit 0 is always clear.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryWord(u64);

/// Where each field starts, and the widths of the three wide ones.
const KIND_AT: u32 = 1;
const REC_AT: u32 = 3;
const INDEX_AT: u32 = 6;
const INDEX_BITS: u32 = 25;
const GRAPH_AT: u32 = INDEX_AT + INDEX_BITS;
const GRAPH_BITS: u32 = 16;
const VERTEX_AT: u32 = GRAPH_AT + GRAPH_BITS;
const VERTEX_BITS: u32 = 17;
/// The index field, in place.
const INDEX_FIELD: u64 = (EntryWord::MAX_INDEX as u64) << INDEX_AT;
/// The vertex field of an entry without a skeleton pointer.
const NO_VERTEX: u64 = (1 << VERTEX_BITS) - 1;

// The fields fill the word exactly.
const _: () = assert!(VERTEX_AT + VERTEX_BITS == u64::BITS);

impl EntryWord {
    /// The largest index a word holds.
    pub const MAX_INDEX: u32 = (1 << INDEX_BITS) - 1;
    /// The most graphs a specification may have for its entries to pack.
    pub const MAX_GRAPHS: usize = 1 << GRAPH_BITS;
    /// The most vertex slots one graph may have for its entries to pack.
    pub const MAX_SLOTS: usize = NO_VERTEX as usize;
    /// The bit no word sets: a holder may keep a flag in it
    /// ([`Self::from_bits`] ignores it).
    pub const SPARE: u64 = 1;

    /// `e` as a word; `None` when a field is wider than its slot.
    #[inline]
    pub fn pack(e: &Entry) -> Option<Self> {
        let kind = match e.kind {
            NodeKind::N => 0,
            NodeKind::L => 1,
            NodeKind::F => 2,
            NodeKind::R => 3,
        };
        let rec = e
            .rec
            .map_or(0, |(r1, r2)| 1 + 2 * u64::from(r1) + u64::from(r2));
        let (graph, vertex) = e.skl.map_or((0, 0), |(g, v)| (g.0.into(), v.0.into()));
        let index = u64::from(e.index);
        fits_word(index, graph, vertex).then(|| {
            let vertex = if e.skl.is_some() { vertex } else { NO_VERTEX };
            Self(
                kind << KIND_AT
                    | rec << REC_AT
                    | index << INDEX_AT
                    | graph << GRAPH_AT
                    | vertex << VERTEX_AT,
            )
        })
    }

    /// The entry this word holds.
    #[inline]
    pub fn unpack(self) -> Entry {
        Entry {
            index: self.index(),
            kind: self.kind(),
            skl: self.skl(),
            rec: self.rec(),
        }
    }

    /// The entry's index.
    #[inline]
    pub fn index(self) -> u32 {
        ((self.0 & INDEX_FIELD) >> INDEX_AT) as u32
    }

    /// The entry's kind.
    #[inline]
    pub fn kind(self) -> NodeKind {
        match (self.0 >> KIND_AT) & 0b11 {
            0 => NodeKind::N,
            1 => NodeKind::L,
            2 => NodeKind::F,
            _ => NodeKind::R,
        }
    }

    /// The entry's skeleton pointer.
    #[inline]
    pub fn skl(self) -> Option<SklPtr> {
        let vertex = self.0 >> VERTEX_AT;
        let graph = (self.0 >> GRAPH_AT) & ((1 << GRAPH_BITS) - 1);
        (vertex != NO_VERTEX).then_some((GraphId(graph as u32), VertexId(vertex as u32)))
    }

    /// The entry's `(rec1, rec2)` flags.
    #[inline]
    pub fn rec(self) -> Option<(bool, bool)> {
        match (self.0 >> REC_AT) & 0b111 {
            0 => None,
            code => Some((code >= 3, code % 2 == 0)),
        }
    }

    /// Whether two words hold the same index — one parse-tree node, in
    /// two labels' entries at one depth — from the masked bits alone.
    #[inline]
    pub fn same_index(self, other: Self) -> bool {
        (self.0 ^ other.0) & INDEX_FIELD == 0
    }

    /// [`Entry::bit_len`], read off the word.
    #[inline]
    pub fn bit_len(self, skl_bits: usize) -> usize {
        let skl = self.0 >> VERTEX_AT != NO_VERTEX;
        let rec = (self.0 >> REC_AT) & 0b111 != 0;
        bit_len(self.index(), skl, rec, skl_bits)
    }

    /// The word's bits, [`Self::SPARE`] clear.
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// The word whose [`Self::bits`] are `bits`, [`Self::SPARE`] ignored.
    #[inline]
    pub fn from_bits(bits: u64) -> Self {
        Self(bits & !Self::SPARE)
    }
}

/// A word shows as the entry it holds.
impl fmt::Debug for EntryWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("EntryWord").field(&self.unpack()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_len_accounts_all_fields() {
        let plain = Entry {
            index: 5,
            kind: NodeKind::N,
            skl: Some((GraphId(3), VertexId(1))),
            rec: None,
        };
        // index 5 → 3 bits, kind 2, skl 7.
        assert_eq!(plain.bit_len(7), 3 + 2 + 7);
        let with_rec = Entry {
            rec: Some((true, false)),
            ..plain
        };
        assert_eq!(with_rec.bit_len(7), 3 + 2 + 7 + 2);
        let special = Entry::special(1, NodeKind::L);
        assert_eq!(special.bit_len(7), 1 + 2);
    }

    /// Every kind and rec code, with and without a skeleton pointer, at
    /// each field's largest value and at zero: the word gives back the
    /// entry it was packed from, its index and bit count read off it
    /// match the entry's, and bit 0 stays clear.
    #[test]
    fn a_word_roundtrips_every_field_at_its_widths() {
        let widest = (
            GraphId(EntryWord::MAX_GRAPHS as u32 - 1),
            VertexId(EntryWord::MAX_SLOTS as u32 - 1),
        );
        let recs = [
            None,
            Some((false, false)),
            Some((false, true)),
            Some((true, false)),
            Some((true, true)),
        ];
        let mut seen = std::collections::HashSet::new();
        for kind in [NodeKind::N, NodeKind::L, NodeKind::F, NodeKind::R] {
            for rec in recs {
                for skl in [None, Some((GraphId(0), VertexId(0))), Some(widest)] {
                    for index in [0, 1, EntryWord::MAX_INDEX] {
                        let e = Entry {
                            index,
                            kind,
                            skl,
                            rec,
                        };
                        let word = EntryWord::pack(&e).expect("fits");
                        assert_eq!(word.unpack(), e);
                        assert_eq!(word.index(), index);
                        assert_eq!(word.bits() & EntryWord::SPARE, 0);
                        assert_eq!(EntryWord::from_bits(word.bits() | EntryWord::SPARE), word);
                        for skl_bits in [0, 7, 17] {
                            assert_eq!(word.bit_len(skl_bits), e.bit_len(skl_bits));
                        }
                        assert!(seen.insert(word), "{e:?} packs like another entry");
                    }
                }
            }
        }
        let a = EntryWord::pack(&Entry::special(5, NodeKind::L)).unwrap();
        let b = EntryWord::pack(&Entry {
            index: 5,
            kind: NodeKind::N,
            skl: Some(widest),
            rec: Some((true, true)),
        })
        .unwrap();
        assert!(a.same_index(b));
        assert!(!a.same_index(EntryWord::pack(&Entry::special(4, NodeKind::L)).unwrap()));
    }

    /// Each field is refused one value past its edge: nothing is
    /// truncated.
    #[test]
    fn a_word_refuses_each_field_one_past_its_edge() {
        let edge = Entry {
            index: EntryWord::MAX_INDEX,
            kind: NodeKind::N,
            skl: Some((
                GraphId(EntryWord::MAX_GRAPHS as u32 - 1),
                VertexId(EntryWord::MAX_SLOTS as u32 - 1),
            )),
            rec: Some((true, true)),
        };
        assert!(EntryWord::pack(&edge).is_some());
        for past in [
            Entry {
                index: EntryWord::MAX_INDEX + 1,
                ..edge
            },
            Entry::special(EntryWord::MAX_INDEX + 1, NodeKind::R),
            Entry {
                skl: Some((GraphId(EntryWord::MAX_GRAPHS as u32), VertexId(0))),
                ..edge
            },
            Entry {
                skl: Some((GraphId(0), VertexId(EntryWord::MAX_SLOTS as u32))),
                ..edge
            },
        ] {
            assert_eq!(EntryWord::pack(&past), None, "{past:?}");
        }
        assert_eq!(EntryWord::MAX_GRAPHS, 1 << 16);
        assert_eq!(EntryWord::MAX_SLOTS, (1 << 17) - 1);
    }

    #[test]
    fn index_bit_widths() {
        assert_eq!(index_bits(0), 1);
        assert_eq!(index_bits(1), 1);
        assert_eq!(index_bits(2), 2);
        assert_eq!(index_bits(1023), 10);
        assert_eq!(index_bits(1024), 11);
    }
}
