//! DRL reachability labels: a shared context prefix plus one own entry.
//!
//! Algorithm 3 builds `φ(v)` by a *single append*: the entries of `v`'s
//! context node `x` — one per proper ancestor of `x`, identical for
//! every vertex placed in `x` — followed by one entry for `v` itself. A
//! [`DrlLabel`] stores exactly that: the context's entries as a shared,
//! immutable `Arc<[EntryWord]>` (the very array [`crate::tree::Node::prefix`]
//! holds) and the final entry inline — each entry one 8-byte
//! [`EntryWord`] ([`crate::entry`]'s table), decoded to an [`Entry`] only
//! where a reader needs its fields.
//!
//! **The layout.** A label is 32 bytes: the array's pointer and length
//! (16), the own word (8) and the array's number (4, and 4 of padding).
//! A prefix array of `d` entries is `16 + 8·d` bytes — two reference
//! counts and the words — paid once per distinct array
//! ([`prefix_array_bytes`]).
//!
//! **What is shared, and who keeps it alive.** Every label a labeler
//! issues for one context node clones that node's `Arc` (and the copies
//! under one loop, fork or chain node share a single array between
//! them), so `k` labels of a context cost one prefix array plus `k`
//! inline entries. While the
//! run is live the tree node and the labels all hold the array; once the
//! labeler is dropped the labels alone do — or whoever took them over,
//! like the engine's hot index — and it goes with the last of them. A
//! label rebuilt from a flat entry list ([`DrlLabel::new`]: decode,
//! serde, hand-built test labels) owns a private prefix array; nothing
//! rebuilds the sharing of a whole run, because a run never comes back
//! from its encoded form as decoded labels — the cold tiers read the
//! bytes in place. The flat list stays the label's *value*: equality,
//! the bit accounting, the wire encoding and the serialised form see
//! entries, never the split.
//!
//! **Which array, by number.** The parse tree numbers every array a
//! label can carry when it creates it ([`crate::tree::Node::prefix_id`]),
//! and a label issued against that node carries the number beside its
//! own word. That is footnote 4's pointer-not-copy applied to the
//! context path: a holder of a whole run's labels keeps each array once,
//! in a table indexed by the number, and per label only the number and
//! the own word — with no hashing to find out which array it has met
//! before. A number names an array only within the tree (the run) that
//! assigned it; a rebuilt label has none ([`DrlLabel::prefix_id`]).

use crate::encode::LabelRef;
use crate::entry::{Entry, EntryWord};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A DRL reachability label `φg(v)`: the entries for every explicit-
/// parse-tree node on the root path of `v`'s context, ending with the
/// entry for `v` itself (Algorithm 3).
///
/// Labels are assigned once, when the vertex appears, and never modified
/// — the defining property of a dynamic labeling scheme (Definitions
/// 8–9).
#[derive(Debug, Clone)]
pub struct DrlLabel {
    /// The entries of the context node's proper ancestors, root first —
    /// shared with every other label of the same context.
    prefix: Arc<[EntryWord]>,
    /// The entry for the vertex itself, at the context node's level.
    last: EntryWord,
    /// The tree's number for `prefix`, or [`NO_PREFIX_ID`].
    prefix_id: u32,
}

/// The `prefix_id` of a label whose array the tree did not number.
const NO_PREFIX_ID: u32 = u32::MAX;

// An array's fat pointer, the own word and the number.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<DrlLabel>() == 32);

/// Equal entries, whichever arrays hold them and whatever they are
/// numbered.
impl PartialEq for DrlLabel {
    fn eq(&self, other: &Self) -> bool {
        self.last == other.last && self.prefix == other.prefix
    }
}

impl Eq for DrlLabel {}

/// Heap bytes of one shared prefix array: its words plus the `Arc`
/// header (two reference counts) — paid once per distinct array, however
/// many labels carry it.
pub fn prefix_array_bytes(prefix: &[EntryWord]) -> usize {
    2 * std::mem::size_of::<usize>() + std::mem::size_of_val(prefix)
}

/// `e` as a word, for a caller that knows it fits.
fn word(e: &Entry) -> EntryWord {
    EntryWord::pack(e).expect("an entry within an entry word's widths")
}

impl DrlLabel {
    /// Build a label from its entries, root first: the last one is the
    /// vertex's own, the rest become a private prefix array, unnumbered.
    ///
    /// # Panics
    /// On an empty list — a label has at least the root-level entry — or
    /// an entry no [`EntryWord`] holds.
    pub fn new(entries: Vec<Entry>) -> Self {
        let (last, prefix) = entries
            .split_last()
            .expect("labels have at least the root entry");
        Self::from_parts(prefix.iter().map(word).collect(), word(last), None)
    }

    /// A label carrying `prefix` as is — how a labeler shares a context
    /// node's array, and its number, among the node's labels.
    pub(crate) fn from_parts(
        prefix: Arc<[EntryWord]>,
        last: EntryWord,
        prefix_id: Option<u32>,
    ) -> Self {
        debug_assert_ne!(
            prefix_id,
            Some(NO_PREFIX_ID),
            "the tree numbers below u32::MAX"
        );
        Self {
            prefix,
            last,
            prefix_id: prefix_id.unwrap_or(NO_PREFIX_ID),
        }
    }

    /// The number the issuing parse tree gave this label's prefix array:
    /// two labels of one run carry the same array iff they carry the same
    /// number. `None` for a label rebuilt from its entries.
    pub fn prefix_id(&self) -> Option<u32> {
        (self.prefix_id != NO_PREFIX_ID).then_some(self.prefix_id)
    }

    /// The label taken apart — prefix number, shared array, own word —
    /// for a holder that keeps the array once and the rest per label.
    pub fn into_parts(self) -> (Option<u32>, Arc<[EntryWord]>, EntryWord) {
        (self.prefix_id(), self.prefix, self.last)
    }

    /// The shared words: everything but the vertex's own entry.
    #[cfg(test)]
    pub(crate) fn prefix(&self) -> &[EntryWord] {
        &self.prefix
    }

    /// The shared words and the own word, borrowed in place.
    pub(crate) fn parts(&self) -> (&[EntryWord], EntryWord) {
        (&self.prefix, self.last)
    }

    /// The `i`-th entry, root first: a prefix position, or the label's
    /// own entry at `i == depth() - 1`.
    #[inline]
    pub fn entry(&self, i: usize) -> Option<Entry> {
        let word = self.prefix.get(i).copied();
        word.or((i == self.prefix.len()).then_some(self.last))
            .map(EntryWord::unpack)
    }

    /// The entries, root first, decoded.
    pub fn entries(&self) -> Entries<'_> {
        Entries {
            prefix: self.prefix.iter(),
            last: Some(self.last),
        }
    }

    /// This label as the borrowed view every reader takes.
    #[inline]
    pub fn view(&self) -> LabelRef<'_> {
        LabelRef::Entries {
            prefix: &self.prefix,
            last: self.last,
        }
    }

    /// Number of entries (≤ tree depth + 1; bounded by `2|Σ\Δ| + 1` for
    /// linear recursive grammars, Lemma 4.1).
    pub fn depth(&self) -> usize {
        self.prefix.len() + 1
    }

    /// Label length in bits (the quantity of Figures 14, 17–20), using
    /// the Theorem-3 accounting with the given skeleton-pointer width.
    pub fn bit_len(&self, skl_bits: usize) -> usize {
        let prefix: usize = self.prefix.iter().map(|w| w.bit_len(skl_bits)).sum();
        prefix + self.last.bit_len(skl_bits)
    }
}

/// A label's entries, root first, each decoded from its word
/// ([`DrlLabel::entries`]).
#[derive(Debug, Clone)]
pub struct Entries<'a> {
    prefix: std::slice::Iter<'a, EntryWord>,
    last: Option<EntryWord>,
}

impl Entries<'_> {
    /// The same entries: they are decoded values already, so this is
    /// what `copied()` is over an iterator of references, and code
    /// written against either reads alike.
    pub fn copied(self) -> Self {
        self
    }
}

impl Iterator for Entries<'_> {
    type Item = Entry;

    #[inline]
    fn next(&mut self) -> Option<Entry> {
        let word = self.prefix.next().copied().or_else(|| self.last.take());
        word.map(EntryWord::unpack)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.prefix.len() + usize::from(self.last.is_some());
        (n, Some(n))
    }
}

impl ExactSizeIterator for Entries<'_> {}

/// The serialised form of a label: its flat entry list, whatever the
/// in-memory split.
#[derive(Serialize, Deserialize)]
struct FlatLabel {
    entries: Vec<Entry>,
}

impl Serialize for DrlLabel {
    fn to_value(&self) -> serde::Value {
        FlatLabel {
            entries: self.entries().collect(),
        }
        .to_value()
    }
}

impl Deserialize for DrlLabel {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let flat = FlatLabel::from_value(v)?;
        if flat.entries.is_empty() {
            return Err(serde::Error::new("a label has at least one entry"));
        }
        if flat.entries.iter().any(|e| EntryWord::pack(e).is_none()) {
            return Err(serde::Error::new("an entry wider than an entry word"));
        }
        Ok(Self::new(flat.entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::NodeKind;
    use wf_graph::VertexId;
    use wf_spec::GraphId;

    fn three_entries() -> Vec<Entry> {
        vec![
            Entry {
                index: 0,
                kind: NodeKind::N,
                skl: Some((GraphId(0), VertexId(1))),
                rec: None,
            },
            Entry::special(1, NodeKind::L),
            Entry {
                index: 200,
                kind: NodeKind::N,
                skl: Some((GraphId(1), VertexId(0))),
                rec: Some((true, false)),
            },
        ]
    }

    #[test]
    fn bit_len_sums_entries() {
        let label = DrlLabel::new(three_entries());
        let skl = 6;
        // (1+2+6) + (1+2) + (8+2+6+2)
        assert_eq!(label.bit_len(skl), 9 + 3 + 18);
        assert_eq!(label.depth(), 3);
    }

    /// The split and the number are invisible: entries read back in
    /// order through both accessors, and a numbered label sharing
    /// another's prefix array equals one that owns a private, unnumbered
    /// copy of it.
    #[test]
    fn the_flat_entry_list_is_the_labels_value() {
        let entries = three_entries();
        let words: Vec<EntryWord> = entries.iter().map(word).collect();
        let label = DrlLabel::new(entries.clone());
        assert_eq!(label.entries().len(), 3);
        assert!(label.entries().eq(entries.iter().copied()));
        assert!(label.entries().copied().eq(label.entries()));
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(label.entry(i), Some(*e));
        }
        assert_eq!(label.entry(3), None);
        // Two words and the `Arc` header: 8 bytes an entry.
        assert_eq!(
            prefix_array_bytes(label.prefix()),
            2 * std::mem::size_of::<usize>() + 2 * 8
        );

        assert_eq!(label.prefix_id(), None);
        let sharing = DrlLabel::from_parts(Arc::clone(&label.prefix), words[2], Some(7));
        assert!(Arc::ptr_eq(&sharing.prefix, &label.prefix));
        assert_eq!(sharing, DrlLabel::new(entries.clone()));
        assert_eq!(sharing.clone().prefix_id(), Some(7));
        let (id, prefix, last) = sharing.into_parts();
        assert_eq!((id, &prefix[..], last), (Some(7), &words[..2], words[2]));
        let sibling = DrlLabel::from_parts(prefix, words[0], Some(7));
        assert_ne!(sibling, label);

        let value = label.to_value();
        let flat = value.get("entries").and_then(serde::Value::as_seq);
        assert_eq!(flat.map(<[_]>::len), Some(3), "{value:?}");
        assert_eq!(DrlLabel::from_value(&value).unwrap(), label);
        let empty = serde::Value::Map(vec![("entries".into(), serde::Value::Seq(Vec::new()))]);
        assert!(DrlLabel::from_value(&empty).is_err());
        // An entry no word holds is refused, not truncated.
        let mut wide = entries.clone();
        wide[1].index = EntryWord::MAX_INDEX + 1;
        let wide = FlatLabel { entries: wide }.to_value();
        assert!(DrlLabel::from_value(&wide).is_err());
    }
}
