//! The graph arena: directed acyclic graphs with named vertices.
//!
//! Throughout the paper, "graphs" are DAGs with no self-loops or
//! multi-edges (Section 2.1). Every vertex carries a *name* ([`NameId`],
//! interned by `wf-spec`); the reachability *labels* created by the labeling
//! schemes live outside the graph.
//!
//! Vertex ids are **stable**: vertex replacement (Definition 4) tombstones
//! the replaced vertex instead of compacting the arena, because dynamic
//! labeling requires labels — keyed by vertex id — to stay valid across the
//! whole derivation.

use crate::error::GraphError;
use serde::{Deserialize, Serialize};

/// Identifier of a vertex within one [`Graph`] arena.
///
/// Ids are dense (`0..slot_count`) but a slot may be *dead* after a vertex
/// replacement removed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The slot index as `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// An interned module name (the paper's Σ). The mapping from `NameId` to
/// human-readable strings is owned by `wf-spec`'s name table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NameId(pub u32);

/// A directed acyclic graph with named vertices and stable vertex ids.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    names: Vec<NameId>,
    out: Vec<Vec<VertexId>>,
    inn: Vec<Vec<VertexId>>,
    alive: Vec<bool>,
    live_count: usize,
    edge_count: usize,
}

impl Graph {
    /// An empty graph (the `g∅` of the execution-based problem, Def 8).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with room for `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            names: Vec::with_capacity(n),
            out: Vec::with_capacity(n),
            inn: Vec::with_capacity(n),
            alive: Vec::with_capacity(n),
            live_count: 0,
            edge_count: 0,
        }
    }

    /// Number of live vertices.
    pub fn vertex_count(&self) -> usize {
        self.live_count
    }

    /// Number of arena slots (live + tombstoned). Valid `VertexId`s are
    /// `0..slot_count`.
    pub fn slot_count(&self) -> usize {
        self.names.len()
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// True if the slot holds a live vertex.
    #[inline]
    pub fn is_live(&self, v: VertexId) -> bool {
        self.alive.get(v.idx()).copied().unwrap_or(false)
    }

    /// Add a fresh vertex named `name`; returns its id.
    pub fn add_vertex(&mut self, name: NameId) -> VertexId {
        let id = VertexId(self.names.len() as u32);
        self.names.push(name);
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        self.alive.push(true);
        self.live_count += 1;
        id
    }

    /// The name of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` is not a live vertex.
    pub fn name(&self, v: VertexId) -> NameId {
        assert!(self.is_live(v), "name() on dead/unknown vertex {v:?}");
        self.names[v.idx()]
    }

    /// Rename vertex `v`.
    pub fn set_name(&mut self, v: VertexId, name: NameId) -> Result<(), GraphError> {
        if !self.is_live(v) {
            return Err(GraphError::UnknownVertex(v));
        }
        self.names[v.idx()] = name;
        Ok(())
    }

    /// Add the edge `(u, v)`.
    ///
    /// Rejects unknown endpoints, self-loops and duplicate edges. This does
    /// **not** check acyclicity (that would make run construction
    /// quadratic); use [`Graph::add_edge_checked`] where the caller cannot
    /// guarantee it, or validate once with [`Graph::is_acyclic`].
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        if !self.is_live(u) {
            return Err(GraphError::UnknownVertex(u));
        }
        if !self.is_live(v) {
            return Err(GraphError::UnknownVertex(v));
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        // Scan the smaller endpoint list for the duplicate check.
        let dup = if self.out[u.idx()].len() <= self.inn[v.idx()].len() {
            self.out[u.idx()].contains(&v)
        } else {
            self.inn[v.idx()].contains(&u)
        };
        if dup {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        self.out[u.idx()].push(v);
        self.inn[v.idx()].push(u);
        self.edge_count += 1;
        Ok(())
    }

    /// Add the edge `(u, v)`, additionally verifying it does not create a
    /// cycle (O(V+E) reachability check — intended for small specification
    /// graphs, not for run construction).
    pub fn add_edge_checked(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        if self.is_live(u) && self.is_live(v) && crate::reach::reaches(self, v, u) {
            return Err(GraphError::WouldCycle(u, v));
        }
        self.add_edge(u, v)
    }

    /// Vertex insertion `g + (v, C)` (Definition 3): add a fresh vertex `v`
    /// named `name` together with edges `(c, v)` for every `c ∈ preds`.
    ///
    /// This is the atomic update of the execution-based dynamic labeling
    /// problem (Definition 8). It can never create a cycle because all
    /// edges point *into* the new vertex.
    pub fn insert_vertex(
        &mut self,
        name: NameId,
        preds: &[VertexId],
    ) -> Result<VertexId, GraphError> {
        for &c in preds {
            if !self.is_live(c) {
                return Err(GraphError::UnknownVertex(c));
            }
        }
        let v = self.add_vertex(name);
        for &c in preds {
            // Fresh vertex: no self-loop/duplicate possible unless preds
            // itself repeats an element.
            self.add_edge(c, v)?;
        }
        Ok(v)
    }

    /// Remove vertex `v` and all incident edges (tombstoning the slot).
    /// Used by vertex replacement (Definition 4).
    pub fn remove_vertex(&mut self, v: VertexId) -> Result<(), GraphError> {
        if !self.is_live(v) {
            return Err(GraphError::UnknownVertex(v));
        }
        let outs = std::mem::take(&mut self.out[v.idx()]);
        for w in &outs {
            self.inn[w.idx()].retain(|x| *x != v);
        }
        let inns = std::mem::take(&mut self.inn[v.idx()]);
        for w in &inns {
            self.out[w.idx()].retain(|x| *x != v);
        }
        self.edge_count -= outs.len() + inns.len();
        self.alive[v.idx()] = false;
        self.live_count -= 1;
        Ok(())
    }

    /// Out-neighbors of `v` (successors).
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.out[v.idx()]
    }

    /// In-neighbors of `v` (predecessors).
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.inn[v.idx()]
    }

    /// Iterate over live vertex ids in id order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, a)| **a)
            .map(|(i, _)| VertexId(i as u32))
    }

    /// Iterate over all live edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.out[u.idx()].iter().map(move |&v| (u, v)))
    }

    /// Live vertices with no incoming edges.
    pub fn sources(&self) -> Vec<VertexId> {
        self.vertices()
            .filter(|v| self.inn[v.idx()].is_empty())
            .collect()
    }

    /// Live vertices with no outgoing edges.
    pub fn sinks(&self) -> Vec<VertexId> {
        self.vertices()
            .filter(|v| self.out[v.idx()].is_empty())
            .collect()
    }

    /// True if the graph has exactly one source and one sink (and at least
    /// one vertex) — the paper's *two-terminal* discipline.
    pub fn is_two_terminal(&self) -> bool {
        self.live_count > 0 && self.sources().len() == 1 && self.sinks().len() == 1
    }

    /// The one live vertex with no neighbours in `adjacency` (the
    /// in-lists for the source, the out-lists for the sink). Allocates
    /// nothing: the labelers ask on every frame they walk out of.
    fn terminal(&self, adjacency: &[Vec<VertexId>]) -> Result<VertexId, GraphError> {
        let mut ends = self.vertices().filter(|v| adjacency[v.idx()].is_empty());
        match (ends.next(), ends.next()) {
            (Some(v), None) => Ok(v),
            _ => Err(GraphError::NotTwoTerminal),
        }
    }

    /// The unique source of a two-terminal graph, `s(g)`.
    pub fn source(&self) -> Result<VertexId, GraphError> {
        self.terminal(&self.inn)
    }

    /// The unique sink of a two-terminal graph, `t(g)`.
    pub fn sink(&self) -> Result<VertexId, GraphError> {
        self.terminal(&self.out)
    }

    /// Full acyclicity check (Kahn's algorithm).
    pub fn is_acyclic(&self) -> bool {
        crate::topo::topological_order(self).is_some()
    }

    /// Find the first live vertex with the given name, if any. Intended for
    /// small specification graphs (linear scan).
    pub fn find_by_name(&self, name: NameId) -> Option<VertexId> {
        self.vertices().find(|&v| self.names[v.idx()] == name)
    }

    /// All live vertices with the given name.
    pub fn all_by_name(&self, name: NameId) -> Vec<VertexId> {
        self.vertices()
            .filter(|&v| self.names[v.idx()] == name)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph, [VertexId; 4]) {
        // s -> a -> t, s -> b -> t
        let mut g = Graph::new();
        let s = g.add_vertex(NameId(0));
        let a = g.add_vertex(NameId(1));
        let b = g.add_vertex(NameId(2));
        let t = g.add_vertex(NameId(3));
        g.add_edge(s, a).unwrap();
        g.add_edge(s, b).unwrap();
        g.add_edge(a, t).unwrap();
        g.add_edge(b, t).unwrap();
        (g, [s, a, b, t])
    }

    #[test]
    fn build_and_query_diamond() {
        let (g, [s, a, b, t]) = diamond();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(g.is_two_terminal());
        assert_eq!(g.source().unwrap(), s);
        assert_eq!(g.sink().unwrap(), t);
        assert_eq!(g.out_neighbors(s), &[a, b]);
        assert_eq!(g.in_neighbors(t), &[a, b]);
        assert!(g.is_acyclic());
    }

    #[test]
    fn rejects_self_loop_and_duplicate() {
        let (mut g, [s, a, _, _]) = diamond();
        assert_eq!(g.add_edge(s, s), Err(GraphError::SelfLoop(s)));
        assert_eq!(g.add_edge(s, a), Err(GraphError::DuplicateEdge(s, a)));
    }

    #[test]
    fn rejects_cycle_when_checked() {
        let (mut g, [s, _, _, t]) = diamond();
        assert_eq!(g.add_edge_checked(t, s), Err(GraphError::WouldCycle(t, s)));
        // The unchecked variant would happily create the cycle; verify the
        // full check catches it.
        g.add_edge(t, s).unwrap();
        assert!(!g.is_acyclic());
    }

    #[test]
    fn insert_vertex_is_definition_3() {
        let (mut g, [_, a, b, t]) = diamond();
        let v = g.insert_vertex(NameId(9), &[a, b]).unwrap();
        assert_eq!(g.in_neighbors(v), &[a, b]);
        assert!(g.out_neighbors(v).is_empty());
        // t and v are now both sinks: no longer two-terminal.
        assert!(!g.is_two_terminal());
        assert_eq!(g.sinks(), vec![t, v]);
    }

    #[test]
    fn insert_vertex_rejects_unknown_pred() {
        let mut g = Graph::new();
        let err = g.insert_vertex(NameId(0), &[VertexId(7)]);
        assert_eq!(err, Err(GraphError::UnknownVertex(VertexId(7))));
    }

    #[test]
    fn remove_vertex_tombstones_and_unlinks() {
        let (mut g, [s, a, b, t]) = diamond();
        g.remove_vertex(a).unwrap();
        assert!(!g.is_live(a));
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_neighbors(s), &[b]);
        assert_eq!(g.in_neighbors(t), &[b]);
        // Slot ids unchanged for the survivors.
        assert_eq!(g.name(t), NameId(3));
        assert_eq!(g.remove_vertex(a), Err(GraphError::UnknownVertex(a)));
    }

    #[test]
    fn single_vertex_is_two_terminal() {
        let mut g = Graph::new();
        let v = g.add_vertex(NameId(5));
        assert!(g.is_two_terminal());
        assert_eq!(g.source().unwrap(), v);
        assert_eq!(g.sink().unwrap(), v);
    }

    #[test]
    fn empty_graph_is_not_two_terminal() {
        let g = Graph::new();
        assert!(!g.is_two_terminal());
        assert!(g.source().is_err());
    }

    #[test]
    fn find_by_name() {
        let (g, [_, a, _, _]) = diamond();
        assert_eq!(g.find_by_name(NameId(1)), Some(a));
        assert_eq!(g.find_by_name(NameId(42)), None);
    }
}
