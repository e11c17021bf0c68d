//! The explicit parse tree (Section 4.2) and its dynamic construction
//! (Algorithm 2).
//!
//! Non-special (`N`) nodes are annotated with a specification graph (the
//! instance they represent); special `L`/`F` nodes group series/parallel
//! copies of loop/fork bodies; special `R` nodes hold the flattened
//! members of a linear recursion chain. Every node stores the *prefix* of
//! entries accumulated along its root path — appending one entry to the
//! parent's prefix is exactly how Algorithm 3 builds labels in O(1) per
//! entry.
//!
//! A prefix is written once, when its node is attached, and never
//! changes, so it is an `Arc<[Entry]>` that the node's labels share
//! rather than copy: the node keeps the array alive while the run is
//! being labeled, the labels carrying it keep it alive after the tree is
//! gone. The copies under one special node — loop iterations, fork
//! branches, chain members — all see the same root path, so they share
//! *one* array among them. Only `N` nodes are contexts of vertices, and
//! both labelers label an `N` node's first vertices in the step that
//! creates it; the arrays of the special `L`/`F`/`R` nodes themselves no
//! label ever carries, and they go with the tree.
//!
//! The arrays labels carry are **numbered** where they are created —
//! the root's, and each `N` node's that does not take a sibling's — in
//! creation order from 0 ([`Node::prefix_id`]), so the numbers of one
//! run are dense: a holder of every label keeps each array once, in a
//! table indexed by the number ([`crate::DrlLabel::prefix_id`]).

use crate::entry::{Entry, NodeKind};
use std::sync::Arc;
use wf_graph::VertexId;
use wf_spec::GraphId;

/// Identifier of an explicit-parse-tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One node of the explicit parse tree.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node kind.
    pub kind: NodeKind,
    /// Parent (None for the root).
    pub parent: Option<NodeId>,
    /// Index among the parent's children (root = 0, children from 1) —
    /// the `index` recorded in entries.
    pub index: u32,
    /// Children in insertion order.
    pub children: Vec<NodeId>,
    /// Annotated specification graph (`Annt(x)`), for `N` nodes.
    pub ann: Option<GraphId>,
    /// The designated recursive spec vertex of `ann` (the chain
    /// continuation point), if any — decides R-node creation and the
    /// rec1/rec2 flags.
    pub designated: Option<VertexId>,
    /// Shared label prefix: entries for all *proper* ancestors, computed
    /// with the edge annotations of this node's root path.
    pub prefix: Arc<[Entry]>,
    /// The number of `prefix` among the arrays labels carry — shared,
    /// like the array, by the copies under one special node; `None` for
    /// the special nodes' own arrays, which no label carries.
    pub prefix_id: Option<u32>,
    /// The frame in which this instance's completion is visible: the
    /// node and spec vertex whose successors follow this instance's sink
    /// in the run (used by the execution-based labeler's frame walk,
    /// §5.3). `None` for the root and special nodes.
    pub host: Option<(NodeId, VertexId)>,
}

/// The explicit parse tree.
#[derive(Debug, Default)]
pub struct ExplicitTree {
    nodes: Vec<Node>,
    /// See [`Self::prefix_ids`].
    prefix_ids: u32,
}

impl ExplicitTree {
    /// An empty tree (the execution-based labeler starts here; the
    /// derivation-based one creates the root immediately).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes (`nt`).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True before the root is created.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        debug_assert!(!self.nodes.is_empty());
        NodeId(0)
    }

    /// Create the root (annotated with the start graph). Its prefix is
    /// empty and its index 0.
    pub fn create_root(&mut self, ann: GraphId) -> NodeId {
        assert!(self.nodes.is_empty(), "root already exists");
        let prefix_id = Some(self.number_prefix());
        self.nodes.push(Node {
            kind: NodeKind::N,
            parent: None,
            index: 0,
            children: Vec::new(),
            ann: Some(ann),
            designated: None, // the start graph is not a production body
            prefix: Arc::new([]),
            prefix_id,
            host: None,
        });
        NodeId(0)
    }

    /// Attach a child under `parent`.
    ///
    /// `parent_entry` is the entry for the *parent* level as seen from
    /// this child's root path: for a non-special parent it carries the
    /// skeleton pointer of the composite vertex annotated on the
    /// connecting edge (Algorithm 1); for special parents it is
    /// `Entry::special`. The child's prefix = parent's prefix +
    /// `parent_entry` — the single-append of Algorithm 3. Under a special
    /// parent that is the same list for every child, so later children
    /// take the first one's array, and its number. A fresh array of an
    /// `N` node gets the next number.
    pub fn attach(
        &mut self,
        parent: NodeId,
        kind: NodeKind,
        ann: Option<GraphId>,
        designated: Option<VertexId>,
        parent_entry: Entry,
        host: Option<(NodeId, VertexId)>,
    ) -> NodeId {
        debug_assert_eq!(parent_entry.index, self.nodes[parent.idx()].index);
        debug_assert_eq!(parent_entry.kind, self.nodes[parent.idx()].kind);
        let index = self.nodes[parent.idx()].children.len() as u32 + 1;
        let p = &self.nodes[parent.idx()];
        let (prefix, prefix_id) = match p.children.first() {
            Some(sibling) if p.kind != NodeKind::N => {
                let sibling = &self.nodes[sibling.idx()];
                (Arc::clone(&sibling.prefix), sibling.prefix_id)
            }
            _ => {
                let fresh = p.prefix.iter().copied().chain([parent_entry]).collect();
                (fresh, (kind == NodeKind::N).then(|| self.number_prefix()))
            }
        };
        debug_assert_eq!(prefix.last(), Some(&parent_entry));
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            parent: Some(parent),
            index,
            children: Vec::new(),
            ann,
            designated,
            prefix,
            prefix_id,
            host,
        });
        self.nodes[parent.idx()].children.push(id);
        id
    }

    /// The next array number.
    fn number_prefix(&mut self) -> u32 {
        self.prefix_ids += 1;
        self.prefix_ids - 1
    }

    /// How many arrays have been numbered: those of the root and the `N`
    /// nodes, an array shared by sibling copies once. An `N` node exists
    /// only once its first vertices are labeled, so between insertions
    /// this is exactly how many distinct arrays the issued labels carry,
    /// numbered `0..prefix_ids()`.
    pub fn prefix_ids(&self) -> u32 {
        self.prefix_ids
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.nodes[id.idx()].prefix.len()
    }

    /// Maximum depth over all nodes (`dt`).
    pub fn max_depth(&self) -> usize {
        self.nodes.iter().map(|n| n.prefix.len()).max().unwrap_or(0)
    }

    /// Maximum out-degree over all nodes (`θt`).
    pub fn max_fanout(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.children.len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixes_accumulate_parent_entries() {
        // c1's entry as seen from a child expanded at its spec vertex `u`.
        let child_entry_of = |u| Entry {
            index: 1,
            kind: NodeKind::N,
            skl: Some((GraphId(1), VertexId(u))),
            rec: None,
        };
        let mut t = ExplicitTree::new();
        let root = t.create_root(GraphId(0));
        let root_entry = Entry {
            index: 0,
            kind: NodeKind::N,
            skl: Some((GraphId(0), VertexId(1))),
            rec: None,
        };
        let l = t.attach(root, NodeKind::L, None, None, root_entry, None);
        assert_eq!(t.node(l).index, 1);
        assert_eq!(t.node(l).prefix[..], [root_entry]);
        let child_entry = Entry::special(1, NodeKind::L);
        let c1 = t.attach(l, NodeKind::N, Some(GraphId(1)), None, child_entry, None);
        let c2 = t.attach(l, NodeKind::N, Some(GraphId(1)), None, child_entry, None);
        assert_eq!(t.node(c1).index, 1);
        assert_eq!(t.node(c2).index, 2);
        assert_eq!(t.node(c2).prefix[..], [root_entry, child_entry]);
        // One array for the copies under the L node, numbered once; the
        // L node's own is never a label's.
        assert!(Arc::ptr_eq(&t.node(c1).prefix, &t.node(c2).prefix));
        assert_eq!(t.node(root).prefix_id, Some(0));
        assert_eq!(t.node(l).prefix_id, None);
        assert_eq!(t.node(c1).prefix_id, Some(1));
        assert_eq!(t.node(c2).prefix_id, Some(1));
        assert_eq!(t.prefix_ids(), 2);
        assert_eq!(t.depth(c2), 2);
        assert_eq!(t.max_depth(), 2);
        assert_eq!(t.max_fanout(), 2);
        assert_eq!(t.node(l).children, vec![c1, c2]);
        assert_eq!(t.root(), root);
        assert_eq!(t.len(), 4);
        // Children of a non-special node hang off different composite
        // vertices: each has its own root path, so its own array.
        let other = t.attach(
            c1,
            NodeKind::N,
            Some(GraphId(2)),
            None,
            child_entry_of(1),
            None,
        );
        let twin = t.attach(
            c1,
            NodeKind::N,
            Some(GraphId(2)),
            None,
            child_entry_of(2),
            None,
        );
        assert!(!Arc::ptr_eq(&t.node(other).prefix, &t.node(twin).prefix));
        assert_eq!(t.node(other).prefix_id, Some(2));
        assert_eq!(t.node(twin).prefix_id, Some(3));
        assert_eq!(t.prefix_ids(), 4);
    }

    #[test]
    #[should_panic(expected = "root already exists")]
    fn single_root_enforced() {
        let mut t = ExplicitTree::new();
        t.create_root(GraphId(0));
        t.create_root(GraphId(0));
    }
}
