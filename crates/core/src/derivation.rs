//! The derivation-based dynamic labeling scheme (Section 5.2,
//! Algorithms 2 + 3).

use crate::label::DrlLabel;
use crate::machinery::{DrlError, RecursionMode, SpecTables};
use crate::predicate::DrlPredicate;
use crate::tree::{ExplicitTree, NodeId};
use wf_graph::{Graph, VertexId};
use wf_run::builder::{AppliedStep, RunError};
use wf_run::{DerivationStep, RunBuilder};
use wf_skeleton::SpecLabeling;
use wf_spec::Specification;

/// Labels a run *while it derives*: each derivation step
/// `g_i = g_{i-1}[u_i/h_i]` labels every vertex of the new instance(s)
/// before the next step arrives, and labels are never modified
/// (Definition 9).
pub struct DerivationLabeler<'s, S: SpecLabeling> {
    spec: &'s Specification,
    skeleton: &'s S,
    tables: SpecTables,
    tree: ExplicitTree,
    builder: RunBuilder<'s>,
    /// Label per run slot (composite vertices keep their labels even
    /// after being replaced — Remark 1 labels them too, and intermediate
    /// graphs query them).
    labels: Vec<Option<DrlLabel>>,
    /// Context node per run slot.
    context: Vec<Option<NodeId>>,
}

impl<'s, S: SpecLabeling> DerivationLabeler<'s, S> {
    /// Create a labeler with the recursion mode chosen automatically:
    /// `Linear` for linear recursive grammars, `CompressFirst` (the §6
    /// adaptation) otherwise.
    ///
    /// # Panics
    /// On a specification whose entries no entry word holds
    /// ([`SpecTables::fits_entry_words`]); [`Self::with_mode`] returns
    /// that as an error.
    pub fn new(spec: &'s Specification, skeleton: &'s S) -> Self {
        Self::build(spec, skeleton, SpecTables::auto(spec), true)
    }

    /// Label-only variant: identical labels, but the internal run graph
    /// keeps no edges. Use this to measure pure labeling cost — the
    /// workflow engine maintains the real run graph anyway, and the
    /// paper reports labeling time and graph-update time as separate
    /// quantities (§7.2). `graph()` then exposes vertices but no edges.
    pub fn label_only(spec: &'s Specification, skeleton: &'s S) -> Self {
        Self::build(spec, skeleton, SpecTables::auto(spec), false)
    }

    /// Create a labeler with an explicit recursion mode (fails if
    /// `Linear` is requested for a nonlinear grammar, or the
    /// specification's entries do not fit entry words).
    pub fn with_mode(
        spec: &'s Specification,
        skeleton: &'s S,
        mode: RecursionMode,
    ) -> Result<Self, DrlError> {
        let tables = SpecTables::new(spec, mode)?;
        tables.fits_entry_words().map_err(DrlError::clone)?;
        Ok(Self::build(spec, skeleton, tables, true))
    }

    fn build(
        spec: &'s Specification,
        skeleton: &'s S,
        tables: SpecTables,
        track_edges: bool,
    ) -> Self {
        if let Err(e) = tables.fits_entry_words() {
            panic!("{e}");
        }
        let mut tree = ExplicitTree::new();
        let builder = if track_edges {
            RunBuilder::new(spec)
        } else {
            RunBuilder::new_untracked(spec)
        };
        let root = tree.create_root(wf_spec::GraphId::START);
        let mut labels = vec![None; builder.graph().slot_count()];
        let mut context = vec![None; builder.graph().slot_count()];
        for rv in builder.graph().vertices() {
            let (_, sv) = builder.origin(rv);
            labels[rv.idx()] = Some(tree.label_for(&tables, skeleton, root, sv));
            context[rv.idx()] = Some(root);
        }
        Self {
            spec,
            skeleton,
            tables,
            tree,
            builder,
            labels,
            context,
        }
    }

    /// Apply one derivation step, labeling all vertices it introduces.
    ///
    /// Per Theorem 3.2b this costs O(|h_i|) — one appended entry per new
    /// vertex plus constant tree bookkeeping.
    ///
    /// # Panics
    /// On a step that would give a parse-tree node its 2^25-th child,
    /// whose index no entry word holds.
    pub fn apply(&mut self, step: &DerivationStep) -> Result<AppliedStep, RunError> {
        let u = step.target;
        if !self.builder.graph().is_live(u) {
            return Err(RunError::UnknownTarget(u));
        }
        let y = self.context[u.idx()].expect("live vertices have contexts");
        let (host_gid, u_spec) = self.builder.origin(u);
        debug_assert_eq!(self.tree.node(y).ann(), Some(host_gid));

        let applied = self.builder.apply(step)?;
        let expansion = self.tree.expand(
            &self.tables,
            self.skeleton,
            y,
            u_spec,
            applied.head_class,
            step.production.body,
            step.production.copies as usize,
        );
        let expansion = expansion.expect("a parse-tree node of under 2^25 children");
        let members = expansion.members();
        debug_assert_eq!(members.len(), applied.copies.len());

        self.labels.resize(self.builder.graph().slot_count(), None);
        self.context.resize(self.builder.graph().slot_count(), None);
        let body = self.spec.graph(step.production.body);
        for (x, map) in members.iter().zip(applied.copies.iter()) {
            for sv in body.vertices() {
                let rv = map[sv.idx()].unwrap();
                self.labels[rv.idx()] =
                    Some(self.tree.label_for(&self.tables, self.skeleton, *x, sv));
                self.context[rv.idx()] = Some(*x);
            }
        }
        Ok(applied)
    }

    /// The current (possibly intermediate) run graph.
    pub fn graph(&self) -> &Graph {
        self.builder.graph()
    }

    /// The run builder (provenance, completion state).
    pub fn builder(&self) -> &RunBuilder<'s> {
        &self.builder
    }

    /// The label of a vertex (present for every vertex ever created,
    /// including replaced composite vertices).
    pub fn label(&self, v: VertexId) -> Option<&DrlLabel> {
        self.labels.get(v.idx()).and_then(|l| l.as_ref())
    }

    /// Label length in bits (Theorem 3 accounting).
    pub fn label_bits(&self, v: VertexId) -> Option<usize> {
        self.label(v).map(|l| l.bit_len(self.tables.skl_bits()))
    }

    /// The predicate `πg` over this run's labels.
    pub fn predicate(&self) -> DrlPredicate<'_, S> {
        DrlPredicate::new(self.skeleton)
    }

    /// Convenience: decide `u ;g v` directly from the two vertices.
    pub fn reaches(&self, u: VertexId, v: VertexId) -> Option<bool> {
        Some(self.predicate().reaches(self.label(u)?, self.label(v)?))
    }

    /// Width of skeleton pointers in bits.
    pub fn skl_bits(&self) -> usize {
        self.tables.skl_bits()
    }

    /// The labeler's explicit parse tree (inspection/statistics).
    pub fn tree(&self) -> &ExplicitTree {
        &self.tree
    }

    /// Active recursion mode.
    pub fn mode(&self) -> RecursionMode {
        self.tables.mode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_graph::reach::ReachOracle;
    use wf_run::RunGenerator;
    use wf_skeleton::{BfsSpecLabels, TclSpecLabels};

    /// Exhaustive correctness on the final graph *and* every intermediate
    /// graph: the defining property of a dynamic scheme.
    #[test]
    fn labels_match_oracle_throughout_derivation() {
        let spec = wf_spec::corpus::running_example();
        let skeleton = TclSpecLabels::build(&spec);
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..5 {
            let derivation = RunGenerator::new(&spec).target_size(60).generate(&mut rng);
            let mut labeler = DerivationLabeler::new(&spec, &skeleton);
            // Check after every step (intermediate graphs, Definition 9).
            for step in derivation.steps() {
                labeler.apply(step).unwrap();
                let g = labeler.graph();
                let oracle = ReachOracle::new(g);
                let vs: Vec<VertexId> = g.vertices().collect();
                for &a in &vs {
                    for &b in &vs {
                        assert_eq!(
                            labeler.reaches(a, b).unwrap(),
                            oracle.reaches(a, b),
                            "{a:?} -> {b:?} mid-derivation"
                        );
                    }
                }
            }
            assert!(labeler.builder().is_complete());
        }
    }

    #[test]
    fn works_with_bfs_skeleton_too() {
        let spec = wf_spec::corpus::running_example();
        let skeleton = BfsSpecLabels::build(&spec);
        let mut rng = StdRng::seed_from_u64(7);
        let derivation = RunGenerator::new(&spec).target_size(120).generate(&mut rng);
        let mut labeler = DerivationLabeler::new(&spec, &skeleton);
        for step in derivation.steps() {
            labeler.apply(step).unwrap();
        }
        let g = labeler.graph();
        let oracle = ReachOracle::new(g);
        for a in g.vertices() {
            for b in g.vertices() {
                assert_eq!(labeler.reaches(a, b).unwrap(), oracle.reaches(a, b));
            }
        }
    }

    #[test]
    fn label_depth_bounded_by_lemma_4_1() {
        let spec = wf_spec::corpus::running_example();
        let skeleton = TclSpecLabels::build(&spec);
        let mut rng = StdRng::seed_from_u64(5);
        let derivation = RunGenerator::new(&spec).target_size(800).generate(&mut rng);
        let mut labeler = DerivationLabeler::new(&spec, &skeleton);
        for step in derivation.steps() {
            labeler.apply(step).unwrap();
        }
        let bound = 2 * spec.composite_count() + 1; // +1: the vertex entry
        for v in labeler.graph().vertices() {
            assert!(
                labeler.label(v).unwrap().depth() <= bound,
                "label depth exceeds 2|Σ\\Δ|+1"
            );
        }
    }

    #[test]
    fn bioaid_labels_are_logarithmic() {
        let spec = wf_spec::corpus::bioaid();
        let skeleton = TclSpecLabels::build(&spec);
        let mut rng = StdRng::seed_from_u64(13);
        let derivation = RunGenerator::new(&spec)
            .target_size(4000)
            .generate(&mut rng);
        let mut labeler = DerivationLabeler::new(&spec, &skeleton);
        for step in derivation.steps() {
            labeler.apply(step).unwrap();
        }
        let n = labeler.graph().vertex_count();
        let log_n = (n as f64).log2();
        let max_bits = labeler
            .graph()
            .vertices()
            .map(|v| labeler.label_bits(v).unwrap())
            .max()
            .unwrap();
        // Theorem 3.1: O(log n) — allow a generous constant.
        assert!(
            (max_bits as f64) < 12.0 * log_n,
            "max label {max_bits} bits for n={n} (log₂ n = {log_n:.1})"
        );
    }

    #[test]
    fn nonlinear_modes_stay_correct() {
        let spec = wf_spec::corpus::theorem1();
        let skeleton = TclSpecLabels::build(&spec);
        let mut rng = StdRng::seed_from_u64(3);
        let derivation = RunGenerator::new(&spec).target_size(80).generate(&mut rng);
        for mode in [RecursionMode::CompressFirst, RecursionMode::NoRNodes] {
            let mut labeler = DerivationLabeler::with_mode(&spec, &skeleton, mode).unwrap();
            for step in derivation.steps() {
                labeler.apply(step).unwrap();
            }
            let g = labeler.graph();
            let oracle = ReachOracle::new(g);
            for a in g.vertices() {
                for b in g.vertices() {
                    assert_eq!(
                        labeler.reaches(a, b).unwrap(),
                        oracle.reaches(a, b),
                        "mode {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn replaced_composites_keep_queryable_labels() {
        // Remark 1: composite vertices of intermediate graphs are labeled
        // and the predicate is correct while they exist.
        let spec = wf_spec::corpus::running_example();
        let skeleton = TclSpecLabels::build(&spec);
        let labeler = DerivationLabeler::new(&spec, &skeleton);
        let l = spec.name_id("L").unwrap();
        let u = labeler.graph().find_by_name(l).unwrap();
        // Before any step: g0's composite L vertex is labeled.
        assert!(labeler.label(u).is_some());
        let s0 = labeler
            .graph()
            .find_by_name(spec.name_id("s0").unwrap())
            .unwrap();
        assert_eq!(labeler.reaches(s0, u), Some(true));
        assert_eq!(labeler.reaches(u, s0), Some(false));
    }
}
