//! Topological orders over the graph arena.
//!
//! Graph *executions* (Definition 8) insert the vertices of a run in some
//! topological order — "atomic modules of a workflow are executed in some
//! topological ordering, due to data dependencies" (Section 2.4). This
//! module provides a deterministic order, a seeded-random order (to sample
//! executions of a run, Section 7.1), and an order validator.

use crate::graph::{Graph, VertexId};
use rand::Rng;

/// A deterministic topological order of the live vertices (smallest id
/// among the ready vertices first), or `None` if the graph has a cycle.
pub fn topological_order(g: &Graph) -> Option<Vec<VertexId>> {
    // Kahn's algorithm with a sorted ready list is O(V log V + E); the
    // deterministic tie-break keeps every downstream artifact reproducible.
    let mut indeg: Vec<usize> = vec![usize::MAX; g.slot_count()];
    let mut ready: Vec<VertexId> = Vec::new();
    for v in g.vertices() {
        indeg[v.idx()] = g.in_neighbors(v).len();
        if indeg[v.idx()] == 0 {
            ready.push(v);
        }
    }
    // Max-heap behaviour via sorted-descending vector popping from the back
    // gives ascending id order.
    ready.sort_unstable_by(|a, b| b.cmp(a));
    let mut order = Vec::with_capacity(g.vertex_count());
    while let Some(v) = ready.pop() {
        order.push(v);
        for &w in g.out_neighbors(v) {
            indeg[w.idx()] -= 1;
            if indeg[w.idx()] == 0 {
                // Insert keeping descending order.
                let pos = ready.partition_point(|x| *x > w);
                ready.insert(pos, w);
            }
        }
    }
    (order.len() == g.vertex_count()).then_some(order)
}

/// A uniformly random-ish topological order (random choice among the ready
/// vertices at each step), or `None` if the graph has a cycle.
pub fn random_topological_order<R: Rng>(g: &Graph, rng: &mut R) -> Option<Vec<VertexId>> {
    let mut indeg: Vec<usize> = vec![usize::MAX; g.slot_count()];
    let mut ready: Vec<VertexId> = Vec::new();
    for v in g.vertices() {
        indeg[v.idx()] = g.in_neighbors(v).len();
        if indeg[v.idx()] == 0 {
            ready.push(v);
        }
    }
    let mut order = Vec::with_capacity(g.vertex_count());
    while !ready.is_empty() {
        let i = rng.gen_range(0..ready.len());
        let v = ready.swap_remove(i);
        order.push(v);
        for &w in g.out_neighbors(v) {
            indeg[w.idx()] -= 1;
            if indeg[w.idx()] == 0 {
                ready.push(w);
            }
        }
    }
    (order.len() == g.vertex_count()).then_some(order)
}

/// True if `order` is exactly the set of live vertices of `g`, each
/// appearing after all of its predecessors.
pub fn is_topological_order(g: &Graph, order: &[VertexId]) -> bool {
    if order.len() != g.vertex_count() {
        return false;
    }
    let mut pos: Vec<Option<usize>> = vec![None; g.slot_count()];
    for (i, &v) in order.iter().enumerate() {
        if !g.is_live(v) || pos[v.idx()].is_some() {
            return false;
        }
        pos[v.idx()] = Some(i);
    }
    g.edges().all(|(u, v)| pos[u.idx()] < pos[v.idx()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NameId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dag() -> (Graph, Vec<VertexId>) {
        let mut g = Graph::new();
        let v: Vec<VertexId> = (0..6).map(|i| g.add_vertex(NameId(i))).collect();
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5), (5, 4)] {
            g.add_edge(v[a], v[b]).unwrap();
        }
        (g, v)
    }

    #[test]
    fn deterministic_order_is_valid_and_stable() {
        let (g, _) = dag();
        let o1 = topological_order(&g).unwrap();
        let o2 = topological_order(&g).unwrap();
        assert_eq!(o1, o2);
        assert!(is_topological_order(&g, &o1));
    }

    #[test]
    fn random_orders_are_valid_and_vary() {
        let (g, _) = dag();
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20 {
            let o = random_topological_order(&g, &mut rng).unwrap();
            assert!(is_topological_order(&g, &o));
            seen.insert(o);
        }
        assert!(seen.len() > 1, "expected some variety across seeds");
    }

    #[test]
    fn cycle_detected() {
        let (mut g, v) = dag();
        g.add_edge(v[4], v[0]).unwrap();
        assert!(topological_order(&g).is_none());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(random_topological_order(&g, &mut rng).is_none());
    }

    #[test]
    fn validator_rejects_bad_orders() {
        let (g, v) = dag();
        // Reversed order is not topological.
        let mut rev = topological_order(&g).unwrap();
        rev.reverse();
        assert!(!is_topological_order(&g, &rev));
        // Wrong multiset.
        assert!(!is_topological_order(&g, &v[..3]));
        // Duplicate entry.
        let dup = vec![v[0]; g.vertex_count()];
        assert!(!is_topological_order(&g, &dup));
    }

    #[test]
    fn respects_tombstones() {
        let (mut g, v) = dag();
        g.remove_vertex(v[3]).unwrap();
        let o = topological_order(&g).unwrap();
        assert_eq!(o.len(), 5);
        assert!(is_topological_order(&g, &o));
        assert!(!o.contains(&v[3]));
    }
}
