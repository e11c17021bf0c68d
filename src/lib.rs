//! # wf-provenance
//!
//! A from-scratch Rust reproduction of **"Labeling Recursive Workflow
//! Executions On-the-Fly"** (Zhuowei Bao, Susan B. Davidson, Tova Milo,
//! SIGMOD 2011): compact *dynamic* reachability labels for workflow runs.
//!
//! This façade crate re-exports the workspace:
//!
//! * [`graph`] — two-terminal DAGs and the graph operations of §2.1.
//! * [`spec`] — workflow specifications & graph grammars (§2.2–2.3).
//! * [`skeleton`] — static schemes for labeling specification graphs
//!   (TCL / BFS, §3.2 & §5.1).
//! * [`run`] — derivations, executions and run generators (§2.4, §7.1).
//! * [`drl`] — **DRL**, the paper's dynamic labeling scheme (§4–6).
//! * [`skl`] — the static SKL baseline (§7.4, reconstruction of \[6\]).
//!
//! ## Quickstart
//!
//! ```
//! use wf_provenance::prelude::*;
//!
//! // The paper's running example (Figure 2).
//! let spec = wf_spec::corpus::running_example();
//! assert_eq!(spec.grammar().classify(), RecursionClass::LinearRecursive);
//!
//! // Label the specification once (skeleton labels, §5.1)…
//! let skeleton = TclSpecLabels::build(&spec);
//!
//! // …then label a run on-the-fly while it derives (§5.2).
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let derivation = RunGenerator::new(&spec).target_size(200).generate(&mut rng);
//! let mut labeler = DerivationLabeler::new(&spec, &skeleton);
//! for step in derivation.steps() {
//!     labeler.apply(step).unwrap();
//! }
//!
//! // Constant-time reachability from labels alone (Algorithm 4).
//! let run = labeler.graph();
//! let a = run.vertices().next().unwrap();
//! for b in run.vertices() {
//!     let fast = labeler.predicate().reaches(labeler.label(a).unwrap(), labeler.label(b).unwrap());
//!     assert_eq!(fast, wf_graph::reach::reaches(run, a, b));
//! }
//! ```

//! ## Concurrent engine quickstart
//!
//! [`service`] (`wf-service`) labels **many runs at once** behind an
//! owned, `Send + Sync + 'static` [`WfEngine`](wf_service::WfEngine):
//! ingest applied on the caller's thread (more cores = more caller
//! threads), lock-free constant-time reachability queries concurrent
//! with ingestion, and a cross-run query surface over the whole fleet.
//!
//! ```
//! use wf_provenance::prelude::*;
//!
//! // The engine owns its catalog (specs + skeleton labels, built once).
//! let engine: WfEngine = WfEngine::builder()
//!     .spec(wf_spec::corpus::running_example())
//!     .build();
//!
//! // Open a run and stream its execution events in.
//! let run = engine.open_run(SpecId(0)).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let gen = RunGenerator::new(&engine.context(SpecId(0)).unwrap().spec)
//!     .target_size(80)
//!     .generate_run(&mut rng);
//! let exec = Execution::deterministic(&gen.graph, &gen.origin);
//! let handle = engine.handle(run).unwrap(); // cloneable, lifetime-free
//! for ev in exec.events() {
//!     engine.ingest(ServiceEvent { run, op: RunOp::Insert(ev.clone()) }).unwrap();
//!     // Queries are answered mid-ingest, from published labels alone.
//!     let _ = handle.reach(exec.events()[0].vertex, ev.vertex);
//! }
//! engine.flush();                     // durability barrier (a no-op without a WAL)
//! engine.complete_run(run).unwrap();
//!
//! // Cross-run lineage: which completed runs reach a given module name
//! // from their source?
//! let name = exec.events()[1].name;
//! let hits = engine.query().completed().runs_reaching_named_from_source(name);
//! assert_eq!(hits, vec![run]);
//! assert_eq!(engine.stats().runs_completed, 1);
//!
//! // Completed runs can be *frozen*: sealed into one encoded blob, the
//! // dynamic labeler state dropped. Queries are tier-transparent.
//! engine.freeze_run(run).unwrap();
//! assert_eq!(engine.run_tier(run).unwrap(), Tier::Frozen);
//! assert_eq!(
//!     engine.query().completed().runs_reaching_named_from_source(name),
//!     vec![run]
//! );
//! ```

#![forbid(unsafe_code)]

pub use wf_drl as drl;
pub use wf_graph as graph;
pub use wf_obs as obs;
pub use wf_run as run;
pub use wf_service as service;
pub use wf_skeleton as skeleton;
pub use wf_skl as skl;
pub use wf_spec as spec;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use rand::SeedableRng;
    pub use wf_drl::{
        decode_label, encode_label, naive::NaiveDynamicDag, DerivationLabeler, DrlLabel,
        DrlPredicate, ExecutionLabeler, RecursionMode, ResolutionMode,
    };
    pub use wf_graph::{Graph, NameId, VertexId};
    pub use wf_run::{Derivation, ExecEvent, Execution, RunGenerator};
    pub use wf_service::{
        CompactionReport, CrossRunQuery, Delta, EngineBuilder, EngineMetrics, ExplainQuery,
        Explained, Health, HistogramSnapshot, QueryProfile, RunHandle, RunId, RunOp, RunStatus,
        ServiceError, ServiceEvent, ServiceStats, SourceReach, SpecContext, SpecId, StallCause,
        SubPredicate, Subscription, Tier, TraceEvent, WalSync, WfEngine, Witness,
    };
    pub use wf_skeleton::{BfsSpecLabels, SpecLabeling, TclSpecLabels};
    pub use wf_skl::{SklBfs, SklLabeling};
    pub use wf_spec::{RecursionClass, Specification};
}
