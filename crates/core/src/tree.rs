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
//! changes, so it is an `Arc<[EntryWord]>` — one 8-byte word an entry,
//! [`crate::entry`]'s fixed widths — that the node's labels share
//! rather than copy: the node keeps the array alive while the run is
//! being labeled, the labels carrying it keep it alive after the tree is
//! gone. The copies under one special node — loop iterations, fork
//! branches, chain members — all see the same root path, so they share
//! *one* array among them, and the special node holds it: it is built
//! when the special node is attached (its own root path plus its own
//! level's entry), and every copy takes it from there. Only `N` nodes are
//! contexts of vertices, and both labelers label an `N` node's first
//! vertices in the step that creates it.
//!
//! The arrays labels carry are **numbered** where they are first carried
//! — the root's, each `N` node's own under an `N` parent, and a special
//! node's shared one when its first copy is attached — in creation order
//! from 0 ([`Node::prefix_id`]), so the numbers of one run are dense: a
//! holder of every label keeps each array once, in a table indexed by
//! the number ([`crate::DrlLabel::prefix_id`]).
//!
//! **A node is six words.** A labeler keeps one per instance it has
//! opened for as long as the run is live, so the node is compact: its
//! ids are `u32`s with a sentinel for "none" rather than `Option`s, its
//! kind sits in the top two bits of its index, and it keeps its
//! children as a count — a child's index is the count when it is
//! attached, and the copies under a special node find their array on
//! the special node, so nothing walks a child list. What a node need
//! not keep it does not: whether its graph has a designated recursive
//! vertex is the specification's to say ([`crate::SpecTables`]), not
//! the node's.
//!
//! **A node's index fits a word.** A child's index is its parent's child
//! count, and an entry word holds indexes below 2^25: [`ExplicitTree::expand`]
//! and [`ExplicitTree::add_replica`] refuse (`None`) to attach the 2^25-th
//! child of a node, before changing anything, and [`ExplicitTree::attach`]
//! panics rather than truncate.

use crate::entry::{Entry, EntryWord, NodeKind};
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

/// The "none" of a node's `u32` fields: no parent, annotation, number,
/// host or expansion slots.
pub(crate) const NONE: u32 = u32::MAX;

/// Bits of [`Node`]'s packed index word below the kind.
const INDEX_BITS: u32 = 30;

/// Nodes a tree holds: ids stay below the two values
/// [`crate::ExecutionState`]'s expansion slots keep for themselves.
const MAX_NODES: usize = NONE as usize - 1;

/// One node of the explicit parse tree.
#[derive(Debug, Clone)]
pub struct Node {
    /// The array this node's labels carry: for an `N` node, the entries
    /// of its proper ancestors; for a special node — which no label has
    /// as its context — the array its copies share, its own entries plus
    /// its level's ([`ExplicitTree::depth`] is one less).
    prefix: Arc<[EntryWord]>,
    /// Parent ([`NONE`] for the root).
    parent: u32,
    /// The kind in the top two bits; below them the index among the
    /// parent's children (root = 0, children from 1) — the `index`
    /// recorded in entries.
    index_kind: u32,
    /// Children attached so far.
    children: u32,
    /// Annotated specification graph (`Annt(x)`): for `N` nodes, and for
    /// `L`/`F` nodes their body; [`NONE`] otherwise.
    ann: u32,
    /// The number of `prefix` among the arrays labels carry ([`NONE`]
    /// until a label can carry it).
    prefix_id: u32,
    /// The frame in which this instance's completion is visible: the node
    /// and spec vertex whose successors follow this instance's sink in
    /// the run (used by the execution-based labeler's frame walk, §5.3).
    /// [`NONE`] for the root and `R` nodes.
    host_node: u32,
    host_vertex: u32,
    /// The first of this node's expansion slots in the execution-based
    /// labeler's table, [`NONE`] until it expands a composite vertex.
    pub(crate) expansions: u32,
}

// Six words: an `Arc` and eight `u32`s, no `Option` tags, no child list.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Node>() == 48);

/// A field of a [`Node`] back as an `Option`.
fn some(x: u32) -> Option<u32> {
    (x != NONE).then_some(x)
}

impl Node {
    /// Node kind.
    #[inline]
    pub fn kind(&self) -> NodeKind {
        match self.index_kind >> INDEX_BITS {
            0 => NodeKind::N,
            1 => NodeKind::L,
            2 => NodeKind::F,
            _ => NodeKind::R,
        }
    }

    /// Index among the parent's children (root = 0, children from 1).
    #[inline]
    pub fn index(&self) -> u32 {
        self.index_kind & ((1 << INDEX_BITS) - 1)
    }

    /// Parent (`None` for the root).
    #[inline]
    pub fn parent(&self) -> Option<NodeId> {
        some(self.parent).map(NodeId)
    }

    /// Number of children attached so far.
    #[inline]
    pub fn children(&self) -> u32 {
        self.children
    }

    /// Annotated specification graph (`Annt(x)`), for `N` nodes; a loop
    /// or fork node's body graph.
    #[inline]
    pub fn ann(&self) -> Option<GraphId> {
        some(self.ann).map(GraphId)
    }

    /// The shared array this node's labels carry (see the field).
    #[inline]
    pub fn prefix(&self) -> &Arc<[EntryWord]> {
        &self.prefix
    }

    /// The number of [`Self::prefix`] among the arrays labels carry —
    /// shared, like the array, by the copies under one special node;
    /// `None` for special nodes, which are no label's context.
    #[inline]
    pub fn prefix_id(&self) -> Option<u32> {
        some(self.prefix_id).filter(|_| self.kind() == NodeKind::N)
    }

    /// The frame in which this instance's completion is visible (see the
    /// field); `None` for the root and `R` nodes.
    #[inline]
    pub fn host(&self) -> Option<(NodeId, VertexId)> {
        some(self.host_node).map(|y| (NodeId(y), VertexId(self.host_vertex)))
    }
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
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// A node, to record its expansion slots.
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.idx()]
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
        let prefix_id = self.number_prefix();
        self.nodes.push(Node {
            prefix: Arc::new([]),
            parent: NONE,
            index_kind: 0,
            children: 0,
            ann: ann.0,
            prefix_id,
            host_node: NONE,
            host_vertex: 0,
            expansions: NONE,
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
    /// parent that is the same list for every child: the parent built it
    /// when it was attached, and its first child numbers it. A special
    /// child builds the list its own children will share, one entry
    /// longer; an `N` child of an `N` node gets a fresh array and the
    /// next number.
    ///
    /// # Panics
    /// Past 2^32 − 2 nodes, past [`EntryWord::MAX_INDEX`] children of one
    /// node ([`Self::has_room`]), or on a `parent_entry` no entry word
    /// holds.
    pub fn attach(
        &mut self,
        parent: NodeId,
        kind: NodeKind,
        ann: Option<GraphId>,
        parent_entry: Entry,
        host: Option<(NodeId, VertexId)>,
    ) -> NodeId {
        assert!(
            self.nodes.len() < MAX_NODES,
            "a tree holds under 2^32 - 2 nodes"
        );
        let p = &self.nodes[parent.idx()];
        debug_assert_eq!(parent_entry.index, p.index());
        debug_assert_eq!(parent_entry.kind, p.kind());
        assert!(self.has_room(parent), "a node holds under 2^25 children");
        let index = p.children + 1;
        let word = |e: &Entry| EntryWord::pack(e).expect("an entry within an entry word");
        let (prefix, prefix_id) = if p.kind() == NodeKind::N {
            let words = p.prefix.iter().copied().chain([word(&parent_entry)]);
            if kind == NodeKind::N {
                (words.collect(), self.number_prefix())
            } else {
                let own = word(&Entry::special(index, kind));
                (words.chain([own]).collect(), NONE)
            }
        } else {
            debug_assert_eq!(kind, NodeKind::N, "a special node's children are copies");
            debug_assert_eq!(p.prefix.last(), Some(&word(&parent_entry)));
            if p.prefix_id == NONE {
                self.nodes[parent.idx()].prefix_id = self.number_prefix();
            }
            let p = &self.nodes[parent.idx()];
            (Arc::clone(&p.prefix), p.prefix_id)
        };
        let kind_bits = match kind {
            NodeKind::N => 0,
            NodeKind::L => 1,
            NodeKind::F => 2,
            NodeKind::R => 3,
        };
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            prefix,
            parent: parent.0,
            index_kind: kind_bits << INDEX_BITS | index,
            children: 0,
            ann: ann.map_or(NONE, |g| g.0),
            prefix_id,
            host_node: host.map_or(NONE, |(y, _)| y.0),
            host_vertex: host.map_or(0, |(_, u)| u.0),
            expansions: NONE,
        });
        self.nodes[parent.idx()].children = index;
        id
    }

    /// Whether `parent` can take one more child: its next child's index
    /// fits an entry word.
    pub fn has_room(&self, parent: NodeId) -> bool {
        self.nodes[parent.idx()].children < EntryWord::MAX_INDEX
    }

    /// Set a node's child count, to test what happens at the index's
    /// edge without attaching 2^25 children.
    #[cfg(test)]
    pub(crate) fn set_children(&mut self, id: NodeId, children: u32) {
        self.nodes[id.idx()].children = children;
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
        let node = &self.nodes[id.idx()];
        node.prefix.len() - usize::from(node.kind() != NodeKind::N)
    }

    /// Maximum depth over all nodes (`dt`).
    pub fn max_depth(&self) -> usize {
        (0..self.nodes.len() as u32)
            .map(|id| self.depth(NodeId(id)))
            .max()
            .unwrap_or(0)
    }

    /// Maximum out-degree over all nodes (`θt`).
    pub fn max_fanout(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.children as usize)
            .max()
            .unwrap_or(0)
    }

    /// Heap bytes the tree keeps, by part: the nodes, the room its node
    /// table has not reached, and its distinct prefix arrays (each once,
    /// however many nodes share it — [`crate::label::prefix_array_bytes`]).
    pub(crate) fn heap_bytes(&self) -> (usize, usize, usize) {
        let node = std::mem::size_of::<Node>();
        let arrays = self
            .nodes
            .iter()
            .filter(|n| some(n.parent).is_none_or(|p| self.nodes[p as usize].kind() == NodeKind::N))
            .map(|n| crate::label::prefix_array_bytes(&n.prefix))
            .sum();
        (
            self.nodes.len() * node,
            (self.nodes.capacity() - self.nodes.len()) * node,
            arrays,
        )
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
        let host = Some((root, VertexId(1)));
        let l = t.attach(root, NodeKind::L, Some(GraphId(1)), root_entry, host);
        assert_eq!(t.node(l).index(), 1);
        assert_eq!(t.node(l).kind(), NodeKind::L);
        assert_eq!(t.node(l).parent(), Some(root));
        assert_eq!(t.node(l).host(), host);
        let child_entry = Entry::special(1, NodeKind::L);
        // The L node holds the array its copies will share: its own root
        // path and its own level's entry.
        let entries = |t: &ExplicitTree, x| {
            let words = t.node(x).prefix().iter();
            words.map(|w| w.unpack()).collect::<Vec<_>>()
        };
        assert_eq!(entries(&t, l), [root_entry, child_entry]);
        assert_eq!(t.depth(l), 1);
        let c1 = t.attach(l, NodeKind::N, Some(GraphId(1)), child_entry, host);
        let c2 = t.attach(l, NodeKind::N, Some(GraphId(1)), child_entry, host);
        assert_eq!(t.node(c1).index(), 1);
        assert_eq!(t.node(c2).index(), 2);
        assert_eq!(t.node(l).children(), 2);
        assert_eq!(entries(&t, c2), [root_entry, child_entry]);
        // One array for the copies under the L node, numbered once, when
        // the first copy arrived; the L node is no label's context.
        assert!(Arc::ptr_eq(t.node(c1).prefix(), t.node(c2).prefix()));
        assert!(Arc::ptr_eq(t.node(l).prefix(), t.node(c1).prefix()));
        assert_eq!(t.node(root).prefix_id(), Some(0));
        assert_eq!(t.node(l).prefix_id(), None);
        assert_eq!(t.node(c1).prefix_id(), Some(1));
        assert_eq!(t.node(c2).prefix_id(), Some(1));
        assert_eq!(t.prefix_ids(), 2);
        assert_eq!(t.depth(c2), 2);
        assert_eq!(t.max_depth(), 2);
        assert_eq!(t.max_fanout(), 2);
        assert_eq!(t.root(), root);
        assert_eq!(t.len(), 4);
        assert_eq!((t.node(root).parent(), t.node(root).host()), (None, None));
        // Children of a non-special node hang off different composite
        // vertices: each has its own root path, so its own array.
        let other = t.attach(c1, NodeKind::N, Some(GraphId(2)), child_entry_of(1), None);
        let twin = t.attach(c1, NodeKind::N, Some(GraphId(2)), child_entry_of(2), None);
        assert!(!Arc::ptr_eq(t.node(other).prefix(), t.node(twin).prefix()));
        assert_eq!(t.node(other).prefix_id(), Some(2));
        assert_eq!(t.node(twin).prefix_id(), Some(3));
        assert_eq!(t.prefix_ids(), 4);
        // An R node under an N node: its array is numbered only once its
        // first chain member arrives.
        let twin_entry = Entry {
            index: 2,
            kind: NodeKind::N,
            skl: Some((GraphId(2), VertexId(3))),
            rec: None,
        };
        let r = t.attach(twin, NodeKind::R, None, twin_entry, None);
        assert_eq!((t.node(r).ann(), t.node(r).prefix_id()), (None, None));
        assert_eq!(t.prefix_ids(), 4);
        let member = t.attach(
            r,
            NodeKind::N,
            Some(GraphId(3)),
            Entry::special(1, NodeKind::R),
            None,
        );
        assert_eq!(t.node(member).prefix_id(), Some(4));
        assert_eq!(t.depth(member), 5);
        assert_eq!(t.depth(r), 4);
    }

    /// The six-word node holds every kind beside the widest index it
    /// admits.
    #[test]
    fn the_packed_index_keeps_its_kind() {
        for (kind, index) in [
            (NodeKind::N, 0),
            (NodeKind::L, 1),
            (NodeKind::F, (1 << INDEX_BITS) - 1),
            (NodeKind::R, 7),
        ] {
            let bits = match kind {
                NodeKind::N => 0,
                NodeKind::L => 1,
                NodeKind::F => 2,
                NodeKind::R => 3,
            };
            let node = Node {
                prefix: Arc::new([]),
                parent: NONE,
                index_kind: bits << INDEX_BITS | index,
                children: 0,
                ann: NONE,
                prefix_id: NONE,
                host_node: NONE,
                host_vertex: 0,
                expansions: NONE,
            };
            assert_eq!((node.kind(), node.index()), (kind, index));
            assert_eq!((node.ann(), node.parent(), node.host()), (None, None, None));
        }
    }

    #[test]
    #[should_panic(expected = "root already exists")]
    fn single_root_enforced() {
        let mut t = ExplicitTree::new();
        t.create_root(GraphId(0));
        t.create_root(GraphId(0));
    }
}
