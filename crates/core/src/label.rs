//! DRL reachability labels: immutable entry lists.

use crate::encode::LabelRef;
use crate::entry::Entry;
use serde::{Deserialize, Serialize};

/// A DRL reachability label `φg(v)`: the entries for every explicit-
/// parse-tree node on the root path of `v`'s context, ending with the
/// entry for `v` itself (Algorithm 3).
///
/// Labels are assigned once, when the vertex appears, and never modified
/// — the defining property of a dynamic labeling scheme (Definitions
/// 8–9).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrlLabel {
    entries: Box<[Entry]>,
}

impl DrlLabel {
    /// Build a label from its entries.
    pub fn new(entries: Vec<Entry>) -> Self {
        debug_assert!(!entries.is_empty(), "labels have at least the root entry");
        Self {
            entries: entries.into_boxed_slice(),
        }
    }

    /// The entries, root first.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// This label as the borrowed view every reader takes.
    pub fn view(&self) -> LabelRef<'_> {
        LabelRef::Entries(&self.entries)
    }

    /// Number of entries (≤ tree depth + 1; bounded by `2|Σ\Δ| + 1` for
    /// linear recursive grammars, Lemma 4.1).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Label length in bits (the quantity of Figures 14, 17–20), using
    /// the Theorem-3 accounting with the given skeleton-pointer width.
    pub fn bit_len(&self, skl_bits: usize) -> usize {
        self.entries.iter().map(|e| e.bit_len(skl_bits)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::NodeKind;
    use wf_graph::VertexId;
    use wf_spec::GraphId;

    #[test]
    fn bit_len_sums_entries() {
        let label = DrlLabel::new(vec![
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
        ]);
        let skl = 6;
        // (1+2+6) + (1+2) + (8+2+6+2)
        assert_eq!(label.bit_len(skl), 9 + 3 + 18);
        assert_eq!(label.depth(), 3);
    }
}
