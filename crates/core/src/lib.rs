//! # wf-drl
//!
//! **DRL** — the paper's contribution: a compact **d**ynamic
//! **r**eachability **l**abeling scheme for recursive workflow runs
//! (Bao, Davidson, Milo, SIGMOD 2011, Sections 4–6).
//!
//! Runs derived from a *linear recursive* workflow grammar are labeled
//! on-the-fly with `O(log n)`-bit labels, in linear total time, with
//! constant-time reachability queries (Theorem 3) — while arbitrary
//! recursion provably requires `Ω(n)` bits (Theorem 1; the matching
//! upper bound [`naive::NaiveDynamicDag`] is included).
//!
//! Two labelers produce *identical* labels (§5.3):
//!
//! * [`DerivationLabeler`] consumes derivation steps (vertex
//!   replacements, Definition 9);
//! * [`ExecutionLabeler`] consumes insertion events one by one
//!   (Definition 8), inferring the derivation either from module names
//!   (§5.3's Conditions 1–2) or from execution-log entries.
//!
//! Both build the **explicit parse tree** (Section 4.2) dynamically
//! (Algorithm 2), label each vertex by appending a single [`Entry`]
//! (Algorithms 1 & 3), and answer queries with [`DrlPredicate`]
//! (Algorithm 4). Nonlinear grammars are supported through the §6
//! adaptations ([`RecursionMode::CompressFirst`] /
//! [`RecursionMode::NoRNodes`]), at the cost of label lengths that grow
//! with the recursion depth.

#![forbid(unsafe_code)]

pub mod arena;
pub mod derivation;
pub mod encode;
pub mod entry;
pub mod execution;
pub mod label;
pub mod machinery;
pub mod naive;
pub mod predicate;
pub mod tree;

pub use arena::{ArenaError, ArenaRef, LabelArena, NameTable, PrefixTrie};
pub use derivation::DerivationLabeler;
pub use encode::{decode_label, encode_label, EntryCursor};
pub use entry::{Entry, EntryWord, NodeKind, SklPtr};
pub use execution::{ExecError, ExecutionLabeler, ExecutionState, HeapLedger, ResolutionMode};
pub use label::{DrlLabel, LabelRef};
pub use machinery::{DrlError, Expansion, RecursionMode, SpecTables};
pub use predicate::DrlPredicate;

/// Compile-time thread-safety contract: `wf-service` ingests runs on
/// scoped worker threads (labelers move across threads behind per-run
/// locks) and answers queries from shared immutable labels, so the
/// labelers must be `Send + Sync` and labels freely shareable. A failure
/// here is a compile error, not a runtime assertion.
#[allow(dead_code)]
fn assert_thread_safety(spec: &wf_spec::Specification, skeleton: &wf_skeleton::TclSpecLabels) {
    fn send_sync<T: Send + Sync>(_: &T) {}
    send_sync(&ExecutionLabeler::new_log_based(spec, skeleton));
    send_sync(&DerivationLabeler::new(spec, skeleton));
    send_sync(&naive::NaiveDynamicDag::new());
    fn send_sync_ty<T: Send + Sync>() {}
    send_sync_ty::<DrlLabel>();
    send_sync_ty::<ExecutionLabeler<'_, wf_skeleton::BfsSpecLabels>>();
    send_sync_ty::<ExecutionState>();
}
