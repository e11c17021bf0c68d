//! # wf-skl
//!
//! **SKL** — the state-of-the-art *static* skeleton-based labeling
//! baseline the paper compares against in §7.4 (Bao, Davidson, Khanna,
//! Roy, SIGMOD 2010 \[6\]).
//!
//! This is a behaviour-preserving reconstruction (the original is not
//! publicly available) with the properties the paper
//! measures:
//!
//! * **static**: the entire run must be complete before labeling starts
//!   (the scheme's fundamental limitation versus DRL);
//! * **non-recursive workflows only** (loops and forks);
//! * labels are **three indexes plus one skeleton pointer** —
//!   `(pre, post, rank, ŝ)` — so the label length follows eq. (4)'s
//!   `3·log nt + O(log nĜ)` with slope ≈ 3 versus DRL's ≈ 1 (Figure 20);
//! * skeleton labels live on the **global specification graph** (all
//!   composites expanded), an order of magnitude larger than the
//!   individual sub-workflows DRL uses — hence SKL(BFS)'s much slower
//!   queries (Figure 22);
//! * construction is a simple static pass, faster than DRL's dynamic
//!   bookkeeping (Figure 21).
//!
//! Intervals (`[pre, post]`, scheme \[22\]) are assigned to the run's
//! grouped parse tree by one DFS; queries resolve the lowest common
//! ancestor's kind through a per-run auxiliary array shared by all
//! labels (the static analogue of shared skeleton labels — kept out of
//! the per-label bit count, exactly as skeleton labels are for both
//! schemes).

#![forbid(unsafe_code)]

pub mod global;

use global::{GlobalExpansion, GlobalScheme, OccId};
use serde::{Deserialize, Serialize};
use std::fmt;
use wf_graph::VertexId;
use wf_run::Derivation;
use wf_skeleton::interval::{bits_for, Interval, IntervalLabels};
use wf_skeleton::{BfsOracle, TclLabels};
use wf_spec::{NameClass, Specification};

/// Errors raised by SKL construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SklError {
    /// SKL supports only non-recursive workflows (§7.4; DRL is the
    /// scheme that handles recursion).
    RecursiveSpecification,
    /// The global expansion needs exactly one implementation per
    /// composite name.
    MultipleImplementations(String),
    /// The derivation does not derive a complete run.
    IncompleteRun,
    /// A derivation step failed to replay.
    Replay(String),
}

impl fmt::Display for SklError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SklError::RecursiveSpecification => {
                write!(f, "SKL applies only to non-recursive workflows")
            }
            SklError::MultipleImplementations(n) => write!(
                f,
                "global expansion requires a single implementation, {n:?} has several"
            ),
            SklError::IncompleteRun => write!(f, "derivation leaves composite vertices"),
            SklError::Replay(e) => write!(f, "derivation replay failed: {e}"),
        }
    }
}

impl std::error::Error for SklError {}

/// Kind of a grouped-parse-tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum GroupKind {
    /// A sub-workflow instance.
    Instance,
    /// A loop group: ordered iterations.
    Loop,
    /// A fork group: parallel branches.
    Fork,
}

/// An SKL label: three indexes plus one skeleton pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SklLabel {
    /// Preorder number of the context node in the grouped parse tree.
    pub pre: u32,
    /// Subtree end of the context node.
    pub post: u32,
    /// Topological rank of the vertex in the run (O(1) pre-filter; the
    /// third index of the 3-index format).
    pub rank: u32,
    /// Pointer into the global specification graph's skeleton labels.
    pub skl: VertexId,
}

impl SklLabel {
    /// Label length in bits: three indexes + the skeleton pointer.
    pub fn bit_len(&self, global_bits: usize) -> usize {
        bits_for(self.pre) + bits_for(self.post) + bits_for(self.rank) + global_bits
    }
}

/// Grouped-parse-tree node data accumulated during replay.
struct TreeBuild {
    parent: Vec<Option<u32>>,
    kind: Vec<GroupKind>,
    children: Vec<Vec<usize>>,
    occ_of: Vec<OccId>,
}

impl TreeBuild {
    fn add(&mut self, parent: usize, kind: GroupKind, occ: OccId) -> usize {
        let id = self.parent.len();
        self.parent.push(Some(parent as u32));
        self.kind.push(kind);
        self.children.push(Vec::new());
        self.occ_of.push(occ);
        self.children[parent].push(id);
        id
    }
}

/// The SKL labeling of one completed run, parameterized by the global
/// skeleton scheme (TCL or BFS, as in §7).
pub struct SklLabeling<G: GlobalScheme = TclLabels> {
    labels: Vec<Option<SklLabel>>,
    /// Per tree node: parent, kind, interval (shared auxiliary data).
    parent: Vec<Option<u32>>,
    kind: Vec<GroupKind>,
    intervals: IntervalLabels,
    /// Dense map preorder number → tree node.
    node_by_pre: Vec<u32>,
    global: G,
    global_bits: usize,
}

/// SKL over BFS global skeletons.
pub type SklBfs = SklLabeling<BfsOracle>;

impl<G: GlobalScheme> SklLabeling<G> {
    /// Label a completed run, given as the derivation that produced it.
    /// Replays the derivation to materialize the run graph, then calls
    /// [`SklLabeling::build_from_parts`].
    pub fn build(spec: &Specification, derivation: &Derivation) -> Result<Self, SklError> {
        let builder = derivation
            .replay(spec)
            .map_err(|e| SklError::Replay(e.to_string()))?;
        if !builder.is_complete() {
            return Err(SklError::IncompleteRun);
        }
        let (graph, origin) = builder.into_parts();
        Self::build_from_parts(spec, &graph, &origin, derivation)
    }

    /// Label a completed run given the finished graph, its provenance
    /// table and the derivation that produced it.
    ///
    /// This is the honest cost model for a *static* scheme: the run
    /// already exists when labeling starts (that is SKL's defining
    /// limitation), so construction only simulates the derivation's id
    /// allocation — it never mutates a graph. `RunBuilder` allocates ids
    /// sequentially per copy in slot order, which this replays exactly.
    pub fn build_from_parts(
        spec: &Specification,
        graph: &wf_graph::Graph,
        origin: &[(wf_spec::GraphId, VertexId)],
        derivation: &Derivation,
    ) -> Result<Self, SklError> {
        let global = GlobalExpansion::build(spec)?;
        let scheme = G::build(&global.graph);
        let global_bits = {
            let n = global.size().max(2);
            (usize::BITS - (n - 1).leading_zeros()) as usize
        };

        // Simulated allocation replay, building the grouped parse tree
        // (instances + loop/fork group nodes; no recursion here).
        let mut tree = TreeBuild {
            parent: vec![None],
            kind: vec![GroupKind::Instance],
            children: vec![Vec::new()],
            occ_of: vec![OccId(0)],
        };
        let g0 = spec.start_graph();
        let mut next_id: u32 = g0.vertex_count() as u32;
        let slots = graph.slot_count();
        let mut ctx: Vec<Option<u32>> = vec![None; slots];
        let mut glob: Vec<Option<VertexId>> = vec![None; slots];
        for i in 0..next_id {
            let rv = VertexId(i);
            let (_, sv) = origin[rv.idx()];
            ctx[rv.idx()] = Some(0);
            glob[rv.idx()] = global.occ(OccId(0)).vmap.get(&sv).copied();
        }

        for step in derivation.steps() {
            let u = step.target;
            let y = ctx
                .get(u.idx())
                .copied()
                .flatten()
                .ok_or_else(|| SklError::Replay(format!("unknown target {u:?}")))?
                as usize;
            let (_, u_spec) = origin[u.idx()];
            let head = spec
                .head(step.production.body)
                .ok_or_else(|| SklError::Replay("production without head".into()))?;
            let head_class = spec.class(head);
            let copies_n = step.production.copies as usize;
            let child_occ = global.occ(tree.occ_of[y]).children[&u_spec];
            let members: Vec<usize> = match head_class {
                NameClass::Loop | NameClass::Fork => {
                    let gk = if head_class == NameClass::Loop {
                        GroupKind::Loop
                    } else {
                        GroupKind::Fork
                    };
                    let group = tree.add(y, gk, child_occ);
                    (0..copies_n)
                        .map(|_| tree.add(group, GroupKind::Instance, child_occ))
                        .collect()
                }
                NameClass::Composite => vec![tree.add(y, GroupKind::Instance, child_occ)],
                NameClass::Atomic => {
                    return Err(SklError::Replay("atomic target".into()));
                }
            };
            let body = spec.graph(step.production.body);
            let occ = global.occ(child_occ);
            for &node in &members {
                for sv in body.vertices() {
                    let rv = VertexId(next_id);
                    next_id += 1;
                    if rv.idx() >= ctx.len() {
                        return Err(SklError::Replay(
                            "derivation does not match the provided graph".into(),
                        ));
                    }
                    debug_assert_eq!(origin[rv.idx()], (step.production.body, sv));
                    ctx[rv.idx()] = Some(node as u32);
                    glob[rv.idx()] = occ.vmap.get(&sv).copied();
                }
            }
        }
        if (next_id as usize) != slots {
            return Err(SklError::Replay(
                "derivation does not cover the provided graph".into(),
            ));
        }

        // Static passes: DFS intervals and topological ranks.
        let intervals = IntervalLabels::from_tree(&tree.children, 0);
        let mut node_by_pre = vec![0u32; tree.parent.len()];
        for i in 0..tree.parent.len() {
            node_by_pre[intervals.label(i).pre as usize] = i as u32;
        }
        let order = wf_graph::topo::topological_order(graph).expect("runs are DAGs");
        let mut rank = vec![u32::MAX; graph.slot_count()];
        for (r, v) in order.iter().enumerate() {
            rank[v.idx()] = r as u32;
        }
        let mut labels: Vec<Option<SklLabel>> = vec![None; graph.slot_count()];
        for v in graph.vertices() {
            let x = ctx[v.idx()].expect("complete run: every vertex placed") as usize;
            let iv = intervals.label(x);
            labels[v.idx()] = Some(SklLabel {
                pre: iv.pre,
                post: iv.post,
                rank: rank[v.idx()],
                skl: glob[v.idx()].expect("atomic vertices map to the global graph"),
            });
        }
        Ok(Self {
            labels,
            parent: tree.parent,
            kind: tree.kind,
            intervals,
            node_by_pre,
            global: scheme,
            global_bits,
        })
    }

    /// The label of a run vertex.
    pub fn label(&self, v: VertexId) -> Option<&SklLabel> {
        self.labels.get(v.idx()).and_then(|l| l.as_ref())
    }

    /// Label length in bits.
    pub fn label_bits(&self, v: VertexId) -> Option<usize> {
        self.label(v).map(|l| l.bit_len(self.global_bits))
    }

    /// Decide `v ;g v'` from two labels (plus the shared per-run node
    /// arrays and global skeleton — see the crate docs).
    pub fn reaches(&self, a: &SklLabel, b: &SklLabel) -> bool {
        if a.rank == b.rank {
            return true; // same vertex (reflexive)
        }
        if a.rank > b.rank {
            return false; // topological pre-filter
        }
        let ia = Interval {
            pre: a.pre,
            post: a.post,
        };
        let ib = Interval {
            pre: b.pre,
            post: b.post,
        };
        if a.pre == b.pre || ia.contains(&ib) || ib.contains(&ia) {
            // Same or nested contexts: the global skeleton decides
            // (every vertex of a two-terminal expansion is reachable
            // from its source and reaches its sink, so nesting reduces
            // to global reachability — Lemma 4.3).
            return self.global.reaches(a.skl, b.skl);
        }
        // Divergent contexts: walk up from a's context to the lowest
        // ancestor containing b's context; the child on a's side gives
        // loop ordering. O(tree depth) = O(1) for a fixed non-recursive
        // grammar.
        let mut child = self.node_by_pre[a.pre as usize] as usize;
        let mut z = self.parent[child].expect("divergence below the root") as usize;
        while !self.intervals.label(z).contains(&ib) {
            child = z;
            z = self.parent[z].expect("root contains everything") as usize;
        }
        match self.kind[z] {
            GroupKind::Instance => self.global.reaches(a.skl, b.skl),
            GroupKind::Loop => self.intervals.label(child).post < b.pre,
            GroupKind::Fork => false,
        }
    }

    /// Convenience: decide reachability between two run vertices.
    pub fn reaches_vertices(&self, u: VertexId, v: VertexId) -> Option<bool> {
        Some(self.reaches(self.label(u)?, self.label(v)?))
    }

    /// Global skeleton pointer width in bits.
    pub fn global_bits(&self) -> usize {
        self.global_bits
    }

    /// The global scheme's name ("TCL"/"BFS").
    pub fn scheme_name(&self) -> &'static str {
        self.global.scheme_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_graph::reach::ReachOracle;
    use wf_run::RunGenerator;

    #[test]
    fn skl_matches_oracle_on_bioaid_runs() {
        let spec = wf_spec::corpus::bioaid_nonrecursive();
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..3 {
            let run = RunGenerator::new(&spec)
                .target_size(250)
                .generate_run(&mut rng);
            let skl: SklLabeling = SklLabeling::build(&spec, &run.derivation).unwrap();
            let oracle = ReachOracle::new(&run.graph);
            for a in run.graph.vertices() {
                for b in run.graph.vertices() {
                    assert_eq!(
                        skl.reaches_vertices(a, b).unwrap(),
                        oracle.reaches(a, b),
                        "{a:?} -> {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn skl_bfs_agrees_with_skl_tcl() {
        let spec = wf_spec::corpus::bioaid_nonrecursive();
        let mut rng = StdRng::seed_from_u64(5);
        let run = RunGenerator::new(&spec)
            .target_size(150)
            .generate_run(&mut rng);
        let tcl: SklLabeling = SklLabeling::build(&spec, &run.derivation).unwrap();
        let bfs: SklBfs = SklLabeling::build(&spec, &run.derivation).unwrap();
        for a in run.graph.vertices() {
            for b in run.graph.vertices() {
                assert_eq!(tcl.reaches_vertices(a, b), bfs.reaches_vertices(a, b));
            }
        }
    }

    #[test]
    fn recursive_specs_are_rejected() {
        let spec = wf_spec::corpus::bioaid();
        let mut rng = StdRng::seed_from_u64(2);
        let run = RunGenerator::new(&spec)
            .target_size(100)
            .generate_run(&mut rng);
        assert_eq!(
            SklLabeling::<TclLabels>::build(&spec, &run.derivation).err(),
            Some(SklError::RecursiveSpecification)
        );
    }

    #[test]
    fn labels_are_three_indexes_plus_pointer() {
        let spec = wf_spec::corpus::bioaid_nonrecursive();
        let mut rng = StdRng::seed_from_u64(77);
        let run = RunGenerator::new(&spec)
            .target_size(2000)
            .generate_run(&mut rng);
        let skl: SklLabeling = SklLabeling::build(&spec, &run.derivation).unwrap();
        let n = run.graph.vertex_count() as f64;
        let max_bits = run
            .graph
            .vertices()
            .map(|v| skl.label_bits(v).unwrap())
            .max()
            .unwrap();
        // ≈ 3 log n + O(log nĜ): generous upper sanity check.
        assert!(
            (max_bits as f64) < 3.0 * n.log2() + 40.0,
            "max label {max_bits} bits for n={n}"
        );
        // And it genuinely has the 3-index slope: more than 2 log n.
        assert!((max_bits as f64) > 2.0 * n.log2());
    }

    #[test]
    fn incomplete_run_rejected() {
        let spec = wf_spec::corpus::bioaid_nonrecursive();
        let mut rng = StdRng::seed_from_u64(3);
        let run = RunGenerator::new(&spec)
            .target_size(200)
            .generate_run(&mut rng);
        let mut partial = Derivation::new();
        for step in run.derivation.steps().iter().take(2) {
            partial.push(*step);
        }
        assert_eq!(
            SklLabeling::<TclLabels>::build(&spec, &partial).err(),
            Some(SklError::IncompleteRun)
        );
    }
}
