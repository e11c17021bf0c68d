//! DRL reachability labels: a shared context prefix plus one own entry.
//!
//! Algorithm 3 builds `φ(v)` by a *single append*: the entries of `v`'s
//! context node `x` — one per proper ancestor of `x`, identical for
//! every vertex placed in `x` — followed by one entry for `v` itself. A
//! [`DrlLabel`] stores exactly that: the context's entries as a shared,
//! immutable `Arc<[Entry]>` (the very array [`crate::tree::Node::prefix`]
//! holds) and the final entry inline.
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
//! and a label issued against that node carries the number in what
//! would otherwise be padding: a label is 40 bytes with or without it.
//! That is footnote 4's pointer-not-copy applied to the context path: a
//! holder of a whole run's labels keeps each array once, in a table
//! indexed by the number, and per label only the number and the own
//! entry — with no hashing to find out which array it has met before.
//! A number names an array only within the tree (the run) that assigned
//! it; a rebuilt label has none ([`DrlLabel::prefix_id`]).

use crate::encode::LabelRef;
use crate::entry::Entry;
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
    prefix: Arc<[Entry]>,
    /// The entry for the vertex itself, at the context node's level.
    last: Entry,
    /// The tree's number for `prefix`, or [`NO_PREFIX_ID`].
    prefix_id: u32,
}

/// The `prefix_id` of a label whose array the tree did not number.
const NO_PREFIX_ID: u32 = u32::MAX;

// The prefix id lives in the padding after the 20-byte entry.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<DrlLabel>() == 40);

/// Equal entries, whichever arrays hold them and whatever they are
/// numbered.
impl PartialEq for DrlLabel {
    fn eq(&self, other: &Self) -> bool {
        self.last == other.last && self.prefix == other.prefix
    }
}

impl Eq for DrlLabel {}

/// Heap bytes of one shared prefix array: its entries plus the `Arc`
/// header (two reference counts) — paid once per distinct array, however
/// many labels carry it.
pub fn prefix_array_bytes(prefix: &[Entry]) -> usize {
    2 * std::mem::size_of::<usize>() + std::mem::size_of_val(prefix)
}

impl DrlLabel {
    /// Build a label from its entries, root first: the last one is the
    /// vertex's own, the rest become a private prefix array, unnumbered.
    ///
    /// # Panics
    /// On an empty list — a label has at least the root-level entry.
    pub fn new(mut entries: Vec<Entry>) -> Self {
        let last = entries.pop().expect("labels have at least the root entry");
        Self::from_parts(entries.into(), last, None)
    }

    /// A label carrying `prefix` as is — how a labeler shares a context
    /// node's array, and its number, among the node's labels.
    pub(crate) fn from_parts(prefix: Arc<[Entry]>, last: Entry, prefix_id: Option<u32>) -> Self {
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

    /// The label taken apart — prefix number, shared array, own entry —
    /// for a holder that keeps the array once and the rest per label.
    pub fn into_parts(self) -> (Option<u32>, Arc<[Entry]>, Entry) {
        (self.prefix_id(), self.prefix, self.last)
    }

    /// The shared entries: everything but the vertex's own entry.
    #[cfg(test)]
    pub(crate) fn prefix(&self) -> &[Entry] {
        &self.prefix
    }

    /// The shared entries and the own entry, borrowed in place.
    pub(crate) fn parts(&self) -> (&[Entry], &Entry) {
        (&self.prefix, &self.last)
    }

    /// The `i`-th entry, root first: a prefix position, or the label's
    /// own entry at `i == depth() - 1`.
    #[inline]
    pub fn entry(&self, i: usize) -> Option<&Entry> {
        self.prefix
            .get(i)
            .or_else(|| (i == self.prefix.len()).then_some(&self.last))
    }

    /// The entries, root first.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = &Entry> + Clone + '_ {
        (0..self.depth()).map(|i| self.entry(i).expect("i < depth"))
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
        self.entries().map(|e| e.bit_len(skl_bits)).sum()
    }
}

/// The serialised form of a label: its flat entry list, whatever the
/// in-memory split.
#[derive(Serialize, Deserialize)]
struct FlatLabel {
    entries: Vec<Entry>,
}

impl Serialize for DrlLabel {
    fn to_value(&self) -> serde::Value {
        FlatLabel {
            entries: self.entries().copied().collect(),
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
        let label = DrlLabel::new(entries.clone());
        assert_eq!(label.entries().len(), 3);
        assert!(label.entries().eq(&entries));
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(label.entry(i), Some(e));
        }
        assert_eq!(label.entry(3), None);
        assert_eq!(
            prefix_array_bytes(label.prefix()),
            2 * std::mem::size_of::<usize>() + 2 * std::mem::size_of::<Entry>()
        );

        assert_eq!(label.prefix_id(), None);
        let sharing = DrlLabel::from_parts(Arc::clone(&label.prefix), entries[2], Some(7));
        assert!(Arc::ptr_eq(&sharing.prefix, &label.prefix));
        assert_eq!(sharing, DrlLabel::new(entries.clone()));
        assert_eq!(sharing.clone().prefix_id(), Some(7));
        let (id, prefix, last) = sharing.into_parts();
        assert_eq!(
            (id, &prefix[..], last),
            (Some(7), &entries[..2], entries[2])
        );
        let sibling = DrlLabel::from_parts(prefix, entries[0], Some(7));
        assert_ne!(sibling, label);

        let value = label.to_value();
        let flat = value.get("entries").and_then(serde::Value::as_seq);
        assert_eq!(flat.map(<[_]>::len), Some(3), "{value:?}");
        assert_eq!(DrlLabel::from_value(&value).unwrap(), label);
        let empty = serde::Value::Map(vec![("entries".into(), serde::Value::Seq(Vec::new()))]);
        assert!(DrlLabel::from_value(&empty).is_err());
    }
}
