//! # wf-run
//!
//! Workflow runs and the two update models of the dynamic labeling
//! problems (Section 2.4):
//!
//! * a **graph derivation** (Definition 9) is a sequence of vertex
//!   replacements `g0 ⇒ g1 ⇒ … ⇒ g ∈ L(G)` — see [`Derivation`] and the
//!   deterministic replayer [`RunBuilder`];
//! * a **graph execution** (Definition 8) is a sequence of vertex
//!   insertions in a topological order of the final run — see
//!   [`Execution`], derived from a completed run.
//!
//! [`RunGenerator`] samples seeded random derivations with a target run
//! size, "repeating loops, forks and recursion a random number of times"
//! exactly as the evaluation's workload generator does (§7.1).

#![forbid(unsafe_code)]

pub mod builder;
pub mod derivation;
pub mod execution;
pub mod generator;

pub use builder::{AppliedStep, RunBuilder};
pub use derivation::{Derivation, DerivationStep};
pub use execution::{ExecEvent, Execution};
pub use generator::{min_expansions, RunGenerator};
