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

use serde::{Deserialize, Serialize};
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
        let mut bits = index_bits(self.index) + 2;
        if self.skl.is_some() {
            bits += skl_bits;
        }
        if self.rec.is_some() {
            bits += 2;
        }
        bits
    }
}

/// Minimal binary width of an index value.
pub fn index_bits(x: u32) -> usize {
    (32 - x.max(1).leading_zeros()) as usize
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

    #[test]
    fn index_bit_widths() {
        assert_eq!(index_bits(0), 1);
        assert_eq!(index_bits(1), 1);
        assert_eq!(index_bits(2), 2);
        assert_eq!(index_bits(1023), 10);
        assert_eq!(index_bits(1024), 11);
    }
}
