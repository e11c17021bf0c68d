//! BFS: the no-label skeleton "scheme" of Section 7.1.
//!
//! "BFS does not perform any labeling, but answers a reachability query by
//! a breadth-first search over the graph." Storage is zero; query time is
//! linear in the (small) specification graph — exactly the trade-off
//! Figures 16 and 22 measure.

use crate::traits::SpecLabeling;
use wf_graph::{Graph, VertexId};
use wf_spec::{GraphId, Specification};

/// BFS query oracle over one static graph (keeps a copy of the graph; no
/// per-vertex labels).
#[derive(Debug, Clone)]
pub struct BfsOracle {
    graph: Graph,
}

impl BfsOracle {
    /// Snapshot the graph for querying.
    pub fn build(g: &Graph) -> Self {
        Self { graph: g.clone() }
    }

    /// `u ;g v` by breadth-first search.
    pub fn reaches(&self, u: VertexId, v: VertexId) -> bool {
        wf_graph::reach::reaches(&self.graph, u, v)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

/// BFS "labels" for every graph of a specification.
#[derive(Debug, Clone)]
pub struct BfsSpecLabels {
    per_graph: Vec<BfsOracle>,
}

impl SpecLabeling for BfsSpecLabels {
    fn build(spec: &Specification) -> Self {
        Self {
            per_graph: spec
                .graph_ids()
                .map(|gid| BfsOracle::build(spec.graph(gid)))
                .collect(),
        }
    }

    fn reaches(&self, g: GraphId, u: VertexId, v: VertexId) -> Option<bool> {
        let oracle = self.per_graph.get(g.idx())?;
        let slots = oracle.graph.slot_count();
        (u.idx() < slots && v.idx() < slots).then(|| oracle.reaches(u, v))
    }

    fn total_bits(&self) -> usize {
        0 // no labels are stored
    }

    fn scheme_name(&self) -> &'static str {
        "BFS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcl::TclSpecLabels;

    #[test]
    fn bfs_agrees_with_tcl_on_spec_graphs() {
        let spec = wf_spec::corpus::bioaid();
        let bfs = BfsSpecLabels::build(&spec);
        let tcl = TclSpecLabels::build(&spec);
        for gid in spec.graph_ids() {
            let g = spec.graph(gid);
            for u in g.vertices() {
                for v in g.vertices() {
                    assert_eq!(bfs.reaches(gid, u, v), tcl.reaches(gid, u, v));
                }
            }
        }
        assert_eq!(bfs.total_bits(), 0);
        let (g0, far) = (GraphId(0), VertexId(1 << 20));
        assert_eq!(
            bfs.reaches(GraphId(spec.graph_count() as u32), far, far),
            None
        );
        assert_eq!(bfs.reaches(g0, far, VertexId(0)), None);
        assert_eq!(bfs.reaches(g0, VertexId(0), far), None);
        assert_eq!(bfs.scheme_name(), "BFS");
    }
}
