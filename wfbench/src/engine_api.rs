//! The one file that calls `wf-service`.
//!
//! Every workload goes through this adapter, and it uses only the API
//! the ROADMAP keeps (`WfEngine::builder()` and the knobs below,
//! `open_run` / `ingest` / `flush` / `complete_run`, handles, the
//! lifecycle calls, `query()`, `subscribe`, `stats()`, `metrics()`), so
//! a `benchmark` PR that follows an engine API change edits this file
//! and `layers.rs` and nothing else.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use wf_graph::{NameId, VertexId};
use wf_run::ExecEvent;
use wf_service::{
    Delta, RunHandle, RunOp, ServiceEvent, SpecContext, SpecId, SubPredicate, Subscription,
    WalSync, WfEngine, Witness,
};
use wf_spec::Specification;

pub use wf_service::{RunId, Tier};

/// The flush policy of every durable engine the benchmark builds; fixed
/// and printed so both sides of a comparison use the same one.
pub const WAL_SYNC: WalSync = WalSync::GroupCommit {
    window: Duration::from_millis(2),
};
pub const WAL_SYNC_LABEL: &str = "GroupCommit{window=2ms}";

/// Preprocessed specifications shared by every engine of a process:
/// `corpus::running_example()` and `corpus::bioaid()`.
pub struct Catalog(Vec<Arc<SpecContext>>);

impl Catalog {
    pub fn build() -> Self {
        Self(
            [
                wf_spec::corpus::running_example(),
                wf_spec::corpus::bioaid(),
            ]
            .into_iter()
            .map(|s| Arc::new(SpecContext::from_spec(s)))
            .collect(),
        )
    }

    pub fn specs(&self) -> Vec<&Specification> {
        self.0.iter().map(|c| &c.spec).collect()
    }

    pub fn contexts(&self) -> &[Arc<SpecContext>] {
        &self.0
    }
}

/// What varies between the engines the workloads build. Everything else
/// is pinned: 2 ingest workers (the box has 2 cores), 32 shards, queue
/// capacity 1024.
#[derive(Default, Clone)]
pub struct EngineCfg {
    pub wal_dir: Option<PathBuf>,
    pub spill_dir: Option<PathBuf>,
    pub max_resident_bytes: Option<u64>,
    pub freeze_after: Option<usize>,
    pub compact_after: Option<usize>,
    /// `None` keeps the engine default (on): users pay for telemetry.
    pub telemetry: Option<bool>,
}

pub struct Engine(WfEngine);

/// The `stats()` fields the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    pub events_ingested: u64,
    pub labels_hot: u64,
    pub hot_resident_bytes: u64,
    pub runs_frozen: u64,
    pub frozen_bytes: u64,
    pub persisted_bytes: u64,
    pub spills: u64,
    pub compactions: u64,
    pub segment_loads: u64,
    pub segment_sheds: u64,
    pub pack_pins: u64,
    pub wal_recovered_runs: u64,
}

impl Engine {
    pub fn build(catalog: &Catalog, cfg: &EngineCfg) -> Self {
        let mut b = WfEngine::builder()
            .shards(32)
            .ingest_workers(2)
            .queue_capacity(1024);
        for ctx in &catalog.0 {
            b = b.context(Arc::clone(ctx));
        }
        if let Some(dir) = &cfg.wal_dir {
            b = b.wal_dir(dir).wal_sync(WAL_SYNC);
        }
        if let Some(dir) = &cfg.spill_dir {
            b = b.spill_dir(dir);
        }
        if let Some(n) = cfg.max_resident_bytes {
            b = b.max_resident_bytes(n);
        }
        if let Some(n) = cfg.freeze_after {
            b = b.freeze_after(n);
        }
        if let Some(n) = cfg.compact_after {
            b = b.compact_after(n);
        }
        if let Some(on) = cfg.telemetry {
            b = b.telemetry(on);
        }
        Self(b.build())
    }

    pub fn open_run(&self, spec: usize) -> RunId {
        self.0.open_run(SpecId(spec)).expect("catalog spec")
    }

    /// Fire-and-forget ingest; blocks only on backpressure. Returns
    /// false if the engine refused the event.
    #[inline]
    pub fn ingest(&self, run: RunId, ev: &ExecEvent) -> bool {
        self.0
            .ingest(ServiceEvent {
                run,
                op: RunOp::Insert(ev.clone()),
            })
            .is_ok()
    }

    pub fn flush(&self) {
        self.0.flush();
    }

    pub fn complete_run(&self, run: RunId) -> bool {
        self.0.complete_run(run).is_ok()
    }

    /// Failures the fire-and-forget path recorded since the last call.
    pub fn take_ingest_errors(&self) -> usize {
        let errs = self.0.take_ingest_errors();
        for (run, e) in errs.iter().take(3) {
            eprintln!("wfbench: ingest error on {run}: {e}");
        }
        errs.len()
    }

    pub fn handle(&self, run: RunId) -> Option<Handle> {
        self.0.handle(run).ok().map(Handle)
    }

    pub fn freeze_run(&self, run: RunId) -> bool {
        self.0.freeze_run(run).is_ok()
    }

    pub fn persist_run(&self, run: RunId) -> bool {
        self.0.persist_run(run).is_ok()
    }

    pub fn compact(&self) -> bool {
        self.0.compact().is_ok()
    }

    pub fn reheat_run(&self, run: RunId) -> bool {
        self.0.reheat_run(run).is_ok()
    }

    /// The flagship cross-run scan over completed runs.
    pub fn scan_reaching(&self, name: NameId) -> Vec<RunId> {
        self.0
            .query()
            .completed()
            .runs_reaching_named_from_source(name)
    }

    pub fn scan_linking(&self, from: NameId, to: NameId) -> Vec<RunId> {
        self.0.query().completed().runs_linking(from, to)
    }

    pub fn scan_named(&self, name: NameId) -> Vec<(RunId, Vec<VertexId>)> {
        self.0.query().completed().vertices_named(name)
    }

    /// `vertices_named` over every run, live ones included — the pull
    /// query a `subscribe_named` stream must add up to.
    pub fn all_named(&self, name: NameId) -> Vec<(RunId, Vec<VertexId>)> {
        self.0.query().vertices_named(name)
    }

    pub fn subscribe_named(&self, name: NameId) -> Sub {
        Sub(self.0.subscribe(SubPredicate::vertices_named(name)))
    }

    /// A subscription that can never match (`name` is absent from the
    /// load): what an armed-but-quiet standing query costs ingest.
    pub fn subscribe_idle(&self, k: usize, absent: NameId) -> Sub {
        let other = NameId(absent.0 + 1);
        Sub(self.0.subscribe(match k % 3 {
            0 => SubPredicate::vertices_named(absent),
            1 => SubPredicate::runs_reaching_named_from_source(absent).completed(),
            _ => SubPredicate::runs_linking(absent, other),
        }))
    }

    pub fn stats(&self) -> Stats {
        let s = self.0.stats();
        Stats {
            events_ingested: s.events_ingested,
            labels_hot: s.labels_hot,
            hot_resident_bytes: s.hot_resident_bytes,
            runs_frozen: s.runs_frozen,
            frozen_bytes: s.frozen_bytes,
            persisted_bytes: s.persisted_bytes,
            spills: s.spills,
            compactions: s.compactions,
            segment_loads: s.segment_loads,
            segment_sheds: s.segment_sheds,
            pack_pins: s.pack_pins,
            wal_recovered_runs: s.wal_recovered_runs,
        }
    }

    /// Mean of the engine's own `wf_ingest_apply_ns` histogram: what
    /// the engine believes one apply costs, for reconciliation with the
    /// bare-layer probes.
    pub fn apply_ns_mean(&self) -> f64 {
        self.0
            .metrics()
            .histogram("wf_ingest_apply_ns")
            .map_or(0.0, |h| h.mean())
    }

    /// Every run the engine knows, ascending — after a reopen or a
    /// recovery these are the survivors.
    pub fn run_ids(&self) -> Vec<RunId> {
        self.0.query().run_ids()
    }
}

pub struct Handle(RunHandle);

impl Handle {
    #[inline]
    pub fn reach(&self, u: VertexId, v: VertexId) -> Option<bool> {
        self.0.reach(u, v)
    }

    pub fn tier(&self) -> Tier {
        self.0.tier()
    }

    pub fn label_bits(&self, v: VertexId) -> Option<usize> {
        self.0.label_bits(v)
    }

    /// Labels published so far; after a recovery, the length of the
    /// run's surviving prefix.
    pub fn published(&self) -> usize {
        self.0.published()
    }
}

/// What a `subscribe_named` consumer sees.
pub enum SubDelta {
    Added(RunId, VertexId),
    Removed(RunId, VertexId),
    Lagged(u64),
    Other,
}

pub struct Sub(Subscription);

impl Sub {
    pub fn try_recv(&self) -> Option<SubDelta> {
        Some(match self.0.try_recv()? {
            Delta::Added {
                run,
                witness: Witness::Vertex(v),
            } => SubDelta::Added(run, v),
            Delta::Removed {
                run,
                witness: Witness::Vertex(v),
            } => SubDelta::Removed(run, v),
            Delta::Lagged { dropped } => SubDelta::Lagged(dropped),
            _ => SubDelta::Other,
        })
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
