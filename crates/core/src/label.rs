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
//! labeler is dropped the labels alone do, and it goes with the last of
//! them. A label rebuilt from a flat entry list ([`DrlLabel::new`]:
//! decode, serde, hand-built test labels) owns a private prefix array;
//! nothing rebuilds the sharing of a whole run, because a run never
//! comes back from its encoded form as decoded labels — the cold tiers
//! read the bytes in place. The flat list stays the label's *value*:
//! equality, the bit accounting, the wire encoding and the serialised
//! form see entries, never the split.

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrlLabel {
    /// The entries of the context node's proper ancestors, root first —
    /// shared with every other label of the same context.
    prefix: Arc<[Entry]>,
    /// The entry for the vertex itself, at the context node's level.
    last: Entry,
}

/// Heap bytes of one shared prefix array: its entries plus the `Arc`
/// header (two reference counts) — paid once per distinct array, however
/// many labels carry it.
pub(crate) fn prefix_array_bytes(prefix: &[Entry]) -> usize {
    2 * std::mem::size_of::<usize>() + std::mem::size_of_val(prefix)
}

impl DrlLabel {
    /// Build a label from its entries, root first: the last one is the
    /// vertex's own, the rest become a private prefix array.
    ///
    /// # Panics
    /// On an empty list — a label has at least the root-level entry.
    pub fn new(mut entries: Vec<Entry>) -> Self {
        let last = entries.pop().expect("labels have at least the root entry");
        Self::from_parts(entries.into(), last)
    }

    /// A label carrying `prefix` as is — how a labeler shares a context
    /// node's array among the node's labels.
    pub(crate) fn from_parts(prefix: Arc<[Entry]>, last: Entry) -> Self {
        Self { prefix, last }
    }

    /// The shared entries: everything but the vertex's own entry.
    #[inline]
    pub(crate) fn prefix(&self) -> &[Entry] {
        &self.prefix
    }

    /// The `i`-th entry for an `i < depth()` the caller has established
    /// (the predicate's walk never leaves the label).
    #[inline]
    pub(crate) fn at(&self, i: usize) -> &Entry {
        debug_assert!(i < self.depth());
        self.prefix.get(i).unwrap_or(&self.last)
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
    pub fn view(&self) -> LabelRef<'_> {
        LabelRef::Entries(self)
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

    /// The split is invisible: entries read back in order through both
    /// accessors, and a label sharing another's prefix array equals one
    /// that owns a private copy of it.
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

        let sharing = DrlLabel::from_parts(Arc::clone(&label.prefix), entries[2]);
        assert!(Arc::ptr_eq(&sharing.prefix, &label.prefix));
        assert_eq!(sharing, DrlLabel::new(entries.clone()));
        let sibling = DrlLabel::from_parts(Arc::clone(&label.prefix), entries[0]);
        assert_ne!(sibling, label);

        let value = label.to_value();
        let flat = value.get("entries").and_then(serde::Value::as_seq);
        assert_eq!(flat.map(<[_]>::len), Some(3), "{value:?}");
        assert_eq!(DrlLabel::from_value(&value).unwrap(), label);
        let empty = serde::Value::Map(vec![("entries".into(), serde::Value::Seq(Vec::new()))]);
        assert!(DrlLabel::from_value(&empty).is_err());
    }
}
