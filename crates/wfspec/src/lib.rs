//! # wf-spec
//!
//! Workflow specifications and workflow grammars — the formal model of
//! Section 2 of *Labeling Recursive Workflow Executions On-the-Fly*
//! (Bao, Davidson, Milo, SIGMOD 2011).
//!
//! A [`Specification`] is the system `S = (Σ, Δ, ΔL, ΔF, I, g0)` of
//! Definition 5: a name alphabet partitioned into atomic and composite
//! names (with loop and fork names among the composite ones), a set of
//! implementation graphs, and a start graph. Its [`Grammar`] view
//! (Definition 6) exposes the (conceptually infinite) production set and
//! the structural analysis the labeling schemes depend on:
//!
//! * the `induces` relation `A ↦*G B` (Section 4.1),
//! * recursive vertices of each implementation graph,
//! * the classification into non-recursive / linear recursive /
//!   (parallel) nonlinear recursive workflows (Definitions 10 and 13).
//!
//! The crate ships a [`corpus`] with the paper's concrete grammars
//! (running example Fig. 2, lower-bound grammar Fig. 6, the compact
//! nonlinear grammar Fig. 12, and a BioAID-like spec matching §7.2's
//! statistics) and a [`synthetic`] generator for the Figure-13 family used
//! throughout the evaluation.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod builder;
pub mod corpus;
pub mod error;
pub mod grammar;
pub mod names;
pub mod randspec;
pub mod spec;
pub mod synthetic;

pub use analysis::RecursionClass;
pub use builder::{GraphBuilder, SpecBuilder};
pub use error::SpecError;
pub use grammar::Grammar;
pub use names::NameTable;
pub use spec::{GraphId, NameClass, Specification};
