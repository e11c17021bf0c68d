//! Deterministic application of derivation steps: the `⇒G` relation.

use crate::derivation::DerivationStep;
use std::fmt;
use wf_graph::ops::{copy_into, SlotMap};
use wf_graph::{Graph, GraphError, VertexId};
use wf_spec::{GraphId, NameClass, Specification};

/// Errors raised while applying derivation steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The target vertex does not exist (or was already replaced).
    UnknownTarget(VertexId),
    /// The target vertex is atomic — only composite vertices derive.
    AtomicTarget(VertexId),
    /// The production's head does not match the target's name, or the
    /// copy count is invalid for the head's class.
    InvalidProduction,
    /// Underlying graph mutation failed (should not happen for valid
    /// specs; surfaced for debuggability).
    Graph(GraphError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnknownTarget(v) => write!(f, "unknown derivation target {v:?}"),
            RunError::AtomicTarget(v) => write!(f, "derivation target {v:?} is atomic"),
            RunError::InvalidProduction => write!(f, "production does not fit the target"),
            RunError::Graph(e) => write!(f, "graph error during derivation: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Copy only the vertices (ids + names) of `src` into `dst`, preserving
/// the exact id allocation of `copy_into`.
fn copy_vertices_only(dst: &mut Graph, src: &Graph) -> SlotMap {
    let mut map: SlotMap = vec![None; src.slot_count()];
    for v in src.vertices() {
        map[v.idx()] = Some(dst.add_vertex(src.name(v)));
    }
    map
}

impl From<GraphError> for RunError {
    fn from(e: GraphError) -> Self {
        RunError::Graph(e)
    }
}

/// The result of applying one step: which run vertices instantiated which
/// specification vertices, copy by copy.
#[derive(Debug, Clone)]
pub struct AppliedStep {
    /// The replaced composite vertex.
    pub target: VertexId,
    /// The step that was applied.
    pub step: DerivationStep,
    /// The class of the production head (decides series/parallel wiring).
    pub head_class: NameClass,
    /// Per body copy, the slot map from the body graph to new run ids.
    pub copies: Vec<SlotMap>,
}

/// Builds a run by applying derivation steps to the start graph, keeping
/// per-vertex provenance (which spec graph/vertex each run vertex
/// instantiates — the information workflow systems record in their
/// execution logs, §5.3).
pub struct RunBuilder<'s> {
    spec: &'s Specification,
    graph: Graph,
    /// Provenance per run slot: the spec graph and spec vertex this run
    /// vertex instantiates.
    origin: Vec<(GraphId, VertexId)>,
    composite_left: usize,
    /// When false, vertices are allocated (ids, names, provenance) but
    /// no edges are maintained — the *label-only* mode used to measure
    /// pure labeling cost, since workflow engines maintain the run graph
    /// themselves (§7.2 compares labeling time against the ~6 µs graph
    /// update as separate quantities).
    track_edges: bool,
}

impl<'s> RunBuilder<'s> {
    /// Start from a fresh instance of `g0`.
    pub fn new(spec: &'s Specification) -> Self {
        Self::with_tracking(spec, true)
    }

    /// Label-only variant: identical id allocation and provenance, but
    /// no edges are stored (the graph accessor returns an edgeless
    /// arena). Derivation targets and slot maps are unaffected because
    /// id allocation never depends on edges.
    pub fn new_untracked(spec: &'s Specification) -> Self {
        Self::with_tracking(spec, false)
    }

    fn with_tracking(spec: &'s Specification, track_edges: bool) -> Self {
        let g0 = spec.start_graph();
        let mut graph = Graph::with_capacity(g0.vertex_count());
        let map = if track_edges {
            copy_into(&mut graph, g0)
        } else {
            copy_vertices_only(&mut graph, g0)
        };
        let mut origin = vec![(GraphId::START, VertexId(0)); graph.slot_count()];
        let mut composite_left = 0;
        for sv in g0.vertices() {
            let rv = map[sv.idx()].unwrap();
            origin[rv.idx()] = (GraphId::START, sv);
            if spec.is_composite(g0.name(sv)) {
                composite_left += 1;
            }
        }
        Self {
            spec,
            graph,
            origin,
            composite_left,
            track_edges,
        }
    }

    /// The specification being derived from.
    pub fn spec(&self) -> &'s Specification {
        self.spec
    }

    /// The current (possibly intermediate) graph `g_i`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Provenance of a run vertex: `(spec graph, spec vertex)`.
    pub fn origin(&self, v: VertexId) -> (GraphId, VertexId) {
        self.origin[v.idx()]
    }

    /// True when the run consists only of atomic vertices, i.e. the graph
    /// is a member of `L(G)` (Definition 7).
    pub fn is_complete(&self) -> bool {
        self.composite_left == 0
    }

    /// The composite vertices currently present, in id order.
    pub fn composite_vertices(&self) -> Vec<VertexId> {
        self.graph
            .vertices()
            .filter(|&v| self.spec.is_composite(self.graph.name(v)))
            .collect()
    }

    /// Apply one derivation step `g[u/h]` (with the loop/fork replication
    /// of Definition 6 folded in) and report the new instances.
    pub fn apply(&mut self, step: &DerivationStep) -> Result<AppliedStep, RunError> {
        let u = step.target;
        if !self.graph.is_live(u) {
            return Err(RunError::UnknownTarget(u));
        }
        let name = self.graph.name(u);
        if self.spec.is_atomic(name) {
            return Err(RunError::AtomicTarget(u));
        }
        let head = self
            .spec
            .head(step.production.body)
            .ok_or(RunError::InvalidProduction)?;
        if head != name {
            return Err(RunError::InvalidProduction);
        }
        let head_class = self.spec.class(head);
        let copies_n = step.production.copies as usize;
        let valid_count = match head_class {
            NameClass::Loop | NameClass::Fork => copies_n >= 1,
            NameClass::Composite => copies_n == 1,
            NameClass::Atomic => false,
        };
        if !valid_count {
            return Err(RunError::InvalidProduction);
        }

        let body = self.spec.graph(step.production.body);
        let preds: Vec<VertexId> = self.graph.in_neighbors(u).to_vec();
        let succs: Vec<VertexId> = self.graph.out_neighbors(u).to_vec();
        self.graph.remove_vertex(u)?;
        self.composite_left -= 1;

        // Instantiate the copies and record provenance.
        let mut copies: Vec<SlotMap> = Vec::with_capacity(copies_n);
        for _ in 0..copies_n {
            let map = if self.track_edges {
                copy_into(&mut self.graph, body)
            } else {
                copy_vertices_only(&mut self.graph, body)
            };
            self.origin
                .resize(self.graph.slot_count(), (GraphId::START, VertexId(0)));
            for sv in body.vertices() {
                let rv = map[sv.idx()].unwrap();
                self.origin[rv.idx()] = (step.production.body, sv);
                if self.spec.is_composite(body.name(sv)) {
                    self.composite_left += 1;
                }
            }
            copies.push(map);
        }

        // Wire the copies into the host graph (Definition 4 applied to
        // h, S(h,…,h) or P(h,…,h)).
        if !self.track_edges {
            return Ok(AppliedStep {
                target: u,
                step: *step,
                head_class,
                copies,
            });
        }
        let s_slot = body.source().expect("spec graphs are two-terminal");
        let t_slot = body.sink().expect("spec graphs are two-terminal");
        match head_class {
            NameClass::Loop => {
                // Series: preds → s(copy₀); t(copyᵢ) → s(copyᵢ₊₁);
                // t(copy_last) → succs.
                let first_s = copies[0][s_slot.idx()].unwrap();
                for &p in &preds {
                    self.graph.add_edge(p, first_s)?;
                }
                for w in copies.windows(2) {
                    let t_prev = w[0][t_slot.idx()].unwrap();
                    let s_next = w[1][s_slot.idx()].unwrap();
                    self.graph.add_edge(t_prev, s_next)?;
                }
                let last_t = copies[copies_n - 1][t_slot.idx()].unwrap();
                for &sv in &succs {
                    self.graph.add_edge(last_t, sv)?;
                }
            }
            _ => {
                // Parallel (forks) and the single-copy plain case: every
                // copy's source/sink attaches to the host.
                for map in &copies {
                    let s = map[s_slot.idx()].unwrap();
                    let t = map[t_slot.idx()].unwrap();
                    for &p in &preds {
                        self.graph.add_edge(p, s)?;
                    }
                    for &sv in &succs {
                        self.graph.add_edge(t, sv)?;
                    }
                }
            }
        }
        Ok(AppliedStep {
            target: u,
            step: *step,
            head_class,
            copies,
        })
    }

    /// Consume the builder, returning the graph and the provenance table.
    pub fn into_parts(self) -> (Graph, Vec<(GraphId, VertexId)>) {
        (self.graph, self.origin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_spec::corpus;
    use wf_spec::grammar::Production;

    fn find_composite(b: &RunBuilder<'_>, name: &str) -> VertexId {
        let id = b.spec().name_id(name).unwrap();
        b.graph().find_by_name(id).expect("composite present")
    }

    /// Derive the paper's Figure-3 run: L repeated twice in series, F
    /// twice in parallel (one branch expanded through the recursion, the
    /// other left as in the figure's elided copies).
    #[test]
    fn figure_3_run_shape() {
        let spec = corpus::running_example();
        let mut b = RunBuilder::new(&spec);
        let l_impl = spec.implementations(spec.name_id("L").unwrap())[0];
        let f_impl = spec.implementations(spec.name_id("F").unwrap())[0];
        let a_rec = spec.implementations(spec.name_id("A").unwrap())[0];
        let a_base = spec.implementations(spec.name_id("A").unwrap())[1];
        let b_impl = spec.implementations(spec.name_id("B").unwrap())[0];
        let c_impl = spec.implementations(spec.name_id("C").unwrap())[0];

        // u1 := S(h1, h1)
        let u1 = find_composite(&b, "L");
        b.apply(&DerivationStep {
            target: u1,
            production: Production::replicated(l_impl, 2),
        })
        .unwrap();
        // First F := P(h2, h2)
        let u2 = find_composite(&b, "F");
        b.apply(&DerivationStep {
            target: u2,
            production: Production::replicated(f_impl, 2),
        })
        .unwrap();
        // Expand one A through the recursion: A := h3; B := h5; C := h6;
        // inner A := h4.
        let u3 = find_composite(&b, "A");
        b.apply(&DerivationStep {
            target: u3,
            production: Production::plain(a_rec),
        })
        .unwrap();
        let u4 = find_composite(&b, "B");
        b.apply(&DerivationStep {
            target: u4,
            production: Production::plain(b_impl),
        })
        .unwrap();
        let u5 = find_composite(&b, "C");
        b.apply(&DerivationStep {
            target: u5,
            production: Production::plain(c_impl),
        })
        .unwrap();
        let u6 = find_composite(&b, "A");
        b.apply(&DerivationStep {
            target: u6,
            production: Production::plain(a_base),
        })
        .unwrap();
        // Remaining: the second fork branch's A and the second loop
        // copy's F.
        let u7 = find_composite(&b, "A");
        b.apply(&DerivationStep {
            target: u7,
            production: Production::plain(a_base),
        })
        .unwrap();
        let u8 = find_composite(&b, "F");
        b.apply(&DerivationStep {
            target: u8,
            production: Production::replicated(f_impl, 1),
        })
        .unwrap();
        let u9 = find_composite(&b, "A");
        b.apply(&DerivationStep {
            target: u9,
            production: Production::plain(a_base),
        })
        .unwrap();

        assert!(b.is_complete());
        let g = b.graph();
        assert!(g.is_two_terminal());
        assert!(g.is_acyclic());
        // Figure 3 reachability spot checks via names: the two loop
        // copies are ordered; fork branches are parallel.
        let s0 = g.find_by_name(spec.name_id("s0").unwrap()).unwrap();
        let t0 = g.find_by_name(spec.name_id("t0").unwrap()).unwrap();
        assert!(wf_graph::reach::reaches(g, s0, t0));
        let s1s = g.all_by_name(spec.name_id("s1").unwrap());
        assert_eq!(s1s.len(), 2, "two loop iterations");
        let (first, second) = (s1s[0].min(s1s[1]), s1s[0].max(s1s[1]));
        assert!(
            wf_graph::reach::reaches(g, first, second)
                || wf_graph::reach::reaches(g, second, first),
            "loop copies are series-ordered"
        );
        let s2s = g.all_by_name(spec.name_id("s2").unwrap());
        assert_eq!(s2s.len(), 3, "two fork branches + one singleton fork");
    }

    #[test]
    fn provenance_is_tracked() {
        let spec = corpus::running_example();
        let mut b = RunBuilder::new(&spec);
        let u1 = find_composite(&b, "L");
        let l_impl = spec.implementations(spec.name_id("L").unwrap())[0];
        let applied = b
            .apply(&DerivationStep {
                target: u1,
                production: Production::replicated(l_impl, 3),
            })
            .unwrap();
        assert_eq!(applied.copies.len(), 3);
        for map in &applied.copies {
            for sv in spec.graph(l_impl).vertices() {
                let rv = map[sv.idx()].unwrap();
                assert_eq!(b.origin(rv), (l_impl, sv));
            }
        }
        // Start-graph vertices keep START provenance.
        let s0 = b.graph().find_by_name(spec.name_id("s0").unwrap()).unwrap();
        assert_eq!(b.origin(s0).0, GraphId::START);
    }

    #[test]
    fn apply_rejects_bad_steps() {
        let spec = corpus::running_example();
        let mut b = RunBuilder::new(&spec);
        let l = find_composite(&b, "L");
        let f_impl = spec.implementations(spec.name_id("F").unwrap())[0];
        // Wrong head.
        assert_eq!(
            b.apply(&DerivationStep {
                target: l,
                production: Production::plain(f_impl),
            })
            .unwrap_err(),
            RunError::InvalidProduction
        );
        // The start graph is no production body.
        assert_eq!(
            b.apply(&DerivationStep {
                target: l,
                production: Production::plain(GraphId::START),
            })
            .unwrap_err(),
            RunError::InvalidProduction
        );
        // Atomic target.
        let s0 = b.graph().find_by_name(spec.name_id("s0").unwrap()).unwrap();
        let l_impl = spec.implementations(spec.name_id("L").unwrap())[0];
        assert_eq!(
            b.apply(&DerivationStep {
                target: s0,
                production: Production::plain(l_impl),
            })
            .unwrap_err(),
            RunError::AtomicTarget(s0)
        );
        // Zero copies.
        assert_eq!(
            b.apply(&DerivationStep {
                target: l,
                production: Production::replicated(l_impl, 0),
            })
            .unwrap_err(),
            RunError::InvalidProduction
        );
        // Multi-copy on a plain composite.
        let mut b2 = RunBuilder::new(&spec);
        let l2 = find_composite(&b2, "L");
        b2.apply(&DerivationStep {
            target: l2,
            production: Production::replicated(l_impl, 1),
        })
        .unwrap();
        let f = find_composite(&b2, "F");
        b2.apply(&DerivationStep {
            target: f,
            production: Production::replicated(f_impl, 2),
        })
        .unwrap();
        let a = find_composite(&b2, "A");
        let a_rec = spec.implementations(spec.name_id("A").unwrap())[0];
        assert_eq!(
            b2.apply(&DerivationStep {
                target: a,
                production: Production::replicated(a_rec, 2),
            })
            .unwrap_err(),
            RunError::InvalidProduction
        );
        // Unknown target after replacement.
        let mut b3 = RunBuilder::new(&spec);
        let l3 = find_composite(&b3, "L");
        b3.apply(&DerivationStep {
            target: l3,
            production: Production::replicated(l_impl, 1),
        })
        .unwrap();
        assert_eq!(
            b3.apply(&DerivationStep {
                target: l3,
                production: Production::replicated(l_impl, 1),
            })
            .unwrap_err(),
            RunError::UnknownTarget(l3)
        );
    }

    #[test]
    fn intermediate_graphs_preserve_survivor_reachability() {
        // Remark 1: replacements preserve reachability between existing
        // vertices — check across a multi-step derivation.
        let spec = corpus::running_example();
        let mut b = RunBuilder::new(&spec);
        let l_impl = spec.implementations(spec.name_id("L").unwrap())[0];
        let f_impl = spec.implementations(spec.name_id("F").unwrap())[0];
        let u1 = find_composite(&b, "L");
        b.apply(&DerivationStep {
            target: u1,
            production: Production::replicated(l_impl, 2),
        })
        .unwrap();
        let before = wf_graph::reach::ReachOracle::new(b.graph());
        let survivors: Vec<VertexId> = b.graph().vertices().collect();
        let f = find_composite(&b, "F");
        b.apply(&DerivationStep {
            target: f,
            production: Production::replicated(f_impl, 3),
        })
        .unwrap();
        let after = wf_graph::reach::ReachOracle::new(b.graph());
        for &a in survivors.iter().filter(|&&v| v != f) {
            for &c in survivors.iter().filter(|&&v| v != f) {
                assert_eq!(before.reaches(a, c), after.reaches(a, c));
            }
        }
    }
}
