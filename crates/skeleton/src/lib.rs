//! # wf-skeleton
//!
//! Static reachability labeling schemes for workflow *specification*
//! graphs — the "skeleton labels" of the skeleton-based labeling framework
//! (Section 5.1).
//!
//! Runs derived from a specification can be huge, but the graphs in
//! `G(S) = {g0} ∪ {h | (A, h) ∈ I}` are tiny (tens of vertices), so *any*
//! static scheme works for them; the paper evaluates two deliberately
//! simple ones and we reproduce both:
//!
//! * **TCL** ([`TclLabels`] / [`TclSpecLabels`]): precomputed transitive
//!   closure — the Section 3.2 scheme. Linear-size labels, O(1) queries.
//!   Its dynamic variant ([`TclDynamic`]) doubles as the matching upper
//!   bound (`n−1` bits) for labeling arbitrary dynamic DAGs.
//! * **BFS** ([`BfsOracle`] / [`BfsSpecLabels`]): no labels at all; every
//!   query runs a breadth-first search over the specification graph.
//!
//! The crate also provides the interval tree labels \[22\] ([`interval`])
//! of the static SKL baseline. DRL's entry lists carry their own
//! prefix/Dewey labels \[18\] (`wf-drl`).

#![forbid(unsafe_code)]

pub mod bfs;
pub mod interval;
pub mod tcl;
pub mod traits;

pub use bfs::{BfsOracle, BfsSpecLabels};
pub use tcl::{TclDynamic, TclLabels, TclSpecLabels};
pub use traits::SpecLabeling;
