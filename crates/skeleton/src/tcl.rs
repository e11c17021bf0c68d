//! TCL: transitive-closure labels — the simple scheme of Section 3.2.
//!
//! The `i`-th vertex (in insertion/topological order) gets a bitmap of
//! `i−1` bits recording which earlier vertices reach it. Queries decode
//! the two indexes from the label lengths and test one bit. The maximum
//! label length is `n−1` bits, which *matches* the Ω(n) lower bound of
//! Theorem 1 — this is simultaneously the paper's dynamic upper bound for
//! arbitrary DAG executions and the cheap static scheme used to label
//! specifications ("TCL" in §7).

use crate::traits::SpecLabeling;
use wf_graph::{BitSet, Graph, VertexId};
use wf_spec::{GraphId, Specification};

/// Dynamic transitive-closure labeler for one growing DAG
/// (execution-based; Section 3.2's `(φ, π)`).
#[derive(Debug, Clone, Default)]
pub struct TclDynamic {
    /// `reach[i]` = bitmap over insertion indexes `0..i` ( bit `j` set iff
    /// vertex `j` reaches vertex `i`). This *is* `φ(v_{i+1})` — the paper
    /// indexes from 1.
    reach: Vec<BitSet>,
}

impl TclDynamic {
    /// Start with the empty graph `g∅`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert the next vertex given the insertion indexes of its
    /// immediate predecessors; returns the new vertex's insertion index.
    pub fn insert(&mut self, pred_indexes: &[usize]) -> usize {
        let i = self.reach.len();
        let mut bits = BitSet::zeros(i);
        for &p in pred_indexes {
            assert!(p < i, "predecessor {p} must precede vertex {i}");
            bits.set(p);
            let pred = self.reach[p].clone();
            bits.union_with(&pred);
        }
        // Keep logical length exactly i (union_with cannot exceed it here
        // because predecessors have shorter labels).
        self.reach.push(bits);
        i
    }

    /// `π(φ(u), φ(v))`: does insertion-index `u` reach insertion-index `v`?
    pub fn reaches(&self, u: usize, v: usize) -> bool {
        u == v || (u < v && self.reach[v].get(u))
    }

    /// Number of labeled vertices.
    pub fn len(&self) -> usize {
        self.reach.len()
    }

    /// True if nothing was inserted yet.
    pub fn is_empty(&self) -> bool {
        self.reach.is_empty()
    }

    /// Label length in bits of vertex `i` (`= i`, i.e. `n−1` for the last
    /// vertex of an `n`-vertex graph).
    pub fn label_bits(&self, i: usize) -> usize {
        self.reach[i].len()
    }

    /// Total label storage in bits.
    pub fn total_bits(&self) -> usize {
        self.reach.iter().map(|b| b.len()).sum()
    }
}

/// Static TCL labels for one finished graph: vertices are (re)inserted in
/// a deterministic topological order and labeled with [`TclDynamic`].
#[derive(Debug, Clone)]
pub struct TclLabels {
    dynamic: TclDynamic,
    /// Insertion index per vertex slot (`usize::MAX` for dead slots).
    pos: Vec<usize>,
}

impl TclLabels {
    /// Label a static DAG.
    pub fn build(g: &Graph) -> Self {
        let order = wf_graph::topo::topological_order(g).expect("TCL requires a DAG");
        let mut pos = vec![usize::MAX; g.slot_count()];
        let mut dynamic = TclDynamic::new();
        for v in order {
            let preds: Vec<usize> = g.in_neighbors(v).iter().map(|p| pos[p.idx()]).collect();
            pos[v.idx()] = dynamic.insert(&preds);
        }
        Self { dynamic, pos }
    }

    /// `u ;g v` from labels alone (false for a vertex that is not in the
    /// graph).
    pub fn reaches(&self, u: VertexId, v: VertexId) -> bool {
        self.lookup(u, v).unwrap_or(false)
    }

    /// [`Self::reaches`], `None` when `u` or `v` is beyond the graph's
    /// vertex slots.
    fn lookup(&self, u: VertexId, v: VertexId) -> Option<bool> {
        let (pu, pv) = (*self.pos.get(u.idx())?, *self.pos.get(v.idx())?);
        Some(pu != usize::MAX && pv != usize::MAX && self.dynamic.reaches(pu, pv))
    }

    /// Total label storage in bits.
    pub fn total_bits(&self) -> usize {
        self.dynamic.total_bits()
    }
}

/// TCL skeleton labels for every graph of a specification.
#[derive(Debug, Clone)]
pub struct TclSpecLabels {
    per_graph: Vec<TclLabels>,
}

impl SpecLabeling for TclSpecLabels {
    fn build(spec: &Specification) -> Self {
        Self {
            per_graph: spec
                .graph_ids()
                .map(|gid| TclLabels::build(spec.graph(gid)))
                .collect(),
        }
    }

    fn reaches(&self, g: GraphId, u: VertexId, v: VertexId) -> Option<bool> {
        self.per_graph.get(g.idx())?.lookup(u, v)
    }

    fn total_bits(&self) -> usize {
        self.per_graph.iter().map(|t| t.total_bits()).sum()
    }

    fn scheme_name(&self) -> &'static str {
        "TCL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_graph::NameId;

    #[test]
    fn dynamic_matches_paper_label_lengths() {
        // Path a -> b -> c: labels of 0, 1, 2 bits; max = n − 1.
        let mut d = TclDynamic::new();
        let a = d.insert(&[]);
        let b = d.insert(&[a]);
        let c = d.insert(&[b]);
        assert_eq!(d.label_bits(a), 0);
        assert_eq!(d.label_bits(b), 1);
        assert_eq!(d.label_bits(c), 2);
        assert!(d.reaches(a, c));
        assert!(d.reaches(b, c));
        assert!(!d.reaches(c, a));
        assert!(d.reaches(b, b));
    }

    #[test]
    fn dynamic_handles_parallel_branches() {
        let mut d = TclDynamic::new();
        let s = d.insert(&[]);
        let x = d.insert(&[s]);
        let y = d.insert(&[s]);
        let t = d.insert(&[x, y]);
        assert!(!d.reaches(x, y) && !d.reaches(y, x));
        assert!(d.reaches(s, t) && d.reaches(x, t) && d.reaches(y, t));
    }

    #[test]
    fn static_labels_match_bfs_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
        for n in [2usize, 5, 12, 30] {
            let names: Vec<NameId> = (0..n as u32).map(NameId).collect();
            let g = wf_graph::random::random_two_terminal(&mut rng, &names, 0.2);
            let tcl = TclLabels::build(&g);
            for u in g.vertices() {
                for v in g.vertices() {
                    assert_eq!(
                        tcl.reaches(u, v),
                        wf_graph::reach::reaches(&g, u, v),
                        "n={n} {u:?}->{v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn spec_labels_cover_all_graphs() {
        let spec = wf_spec::corpus::running_example();
        let labels = TclSpecLabels::build(&spec);
        for gid in spec.graph_ids() {
            let g = spec.graph(gid);
            for u in g.vertices() {
                for v in g.vertices() {
                    assert_eq!(
                        labels.reaches(gid, u, v),
                        Some(wf_graph::reach::reaches(g, u, v))
                    );
                }
            }
        }
        assert!(labels.total_bits() > 0);
        assert_eq!(labels.scheme_name(), "TCL");
        // A pointer read off untrusted bytes: no graph, no vertex slot.
        let (g0, far) = (GraphId(0), VertexId(1 << 20));
        assert_eq!(
            labels.reaches(GraphId(spec.graph_count() as u32), far, far),
            None
        );
        assert_eq!(labels.reaches(g0, far, VertexId(0)), None);
        assert_eq!(labels.reaches(g0, VertexId(0), far), None);
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn dynamic_rejects_forward_predecessor() {
        let mut d = TclDynamic::new();
        d.insert(&[0]);
    }
}
