//! The interface every skeleton scheme exposes to the run labelers.

use wf_graph::VertexId;
use wf_spec::{GraphId, Specification};

/// Skeleton labels for a whole specification: the static scheme
/// `(φG, πG)` of Section 5.2, covering every graph in `G(S)`.
///
/// DRL stores only *pointers* `(GraphId, VertexId)` into these labels
/// inside its entries (footnote 4), so the trait's query interface takes
/// the pointer, not an owned label value.
pub trait SpecLabeling {
    /// Preprocess the specification (the "labeling the workflow
    /// specification" step of §5.1).
    fn build(spec: &Specification) -> Self
    where
        Self: Sized;

    /// `πG(φG(u), φG(v))` for two vertices of the same specification
    /// graph `g`: true iff `u ;g v`. `None` when `g` names no graph of
    /// the specification or `u` / `v` no vertex slot of it — a pointer
    /// read off untrusted bytes is an absent answer, never a panic.
    fn reaches(&self, g: GraphId, u: VertexId, v: VertexId) -> Option<bool>;

    /// Total storage taken by the skeleton labels in bits (Table 2 —
    /// zero for BFS, which stores no labels).
    fn total_bits(&self) -> usize;

    /// Scheme name for reports ("TCL", "BFS").
    fn scheme_name(&self) -> &'static str;
}
