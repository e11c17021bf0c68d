//! The ingest station: volatile engine, closed loop, one client.
//!
//! One pass = fresh engine, every event of the fleet through
//! `WfEngine::ingest`, `flush()`, complete. The timed window is first
//! `ingest()` → `flush()` returned, i.e. every label visible to `reach`.

use crate::engine_api::{Engine, EngineCfg, RunId};
use crate::harness::Ctx;
use crate::inputs::{Fleet, ReachPair};
use crate::stats::{laps_within, median, secs, PerRound, Samples};
use crate::trace::HARNESS;
use std::rc::Rc;
use std::time::{Duration, Instant};
use wf_graph::NameId;

/// Events per `ingest_burst` span and per round-robin turn.
pub const BURST: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// `open_run` → `ingest` each event → `flush` → `complete_run`, one
    /// run after the other: only one worker ever has work.
    OneRunAtATime,
    /// All runs open; bursts of [`BURST`] events per run in rotation;
    /// one `flush` at the end.
    RoundRobin,
}

pub struct IngestPlan {
    pub fleet: Rc<Fleet>,
    pub feed: Feed,
    /// Reach questions with BFS answers, asked after every pass.
    pub checks: Vec<(ReachPair, bool)>,
    /// A name no event carries, for subscriptions that never match.
    pub absent: NameId,
}

/// What differs between the two sides of an ABBA trial.
#[derive(Debug, Clone, Copy, Default)]
pub struct Variant {
    pub telemetry: Option<bool>,
    pub idle_subs: usize,
}

pub struct Pass {
    pub events: usize,
    /// First `ingest()` to `flush()` returned.
    pub timed: Duration,
    pub hot_bytes_per_label: f64,
    pub flush_wait_ms: f64,
    /// Wall time inside `ingest()` per event; traced passes only.
    pub enqueue_ns: Option<f64>,
    pub apply_ns_mean: f64,
}

pub fn one_pass(ctx: &mut Ctx, plan: &IngestPlan, variant: Variant) -> Pass {
    let Ctx {
        catalog,
        tracer,
        ops,
        ..
    } = ctx;
    let fleet = &*plan.fleet;
    let total = fleet.total_events();
    tracer.next_trace();
    tracer.span("ingest_pass", HARNESS, |t| {
        let engine = t.span("build", "engine", |_| {
            Engine::build(
                catalog,
                &EngineCfg {
                    telemetry: variant.telemetry,
                    ..EngineCfg::default()
                },
            )
        });
        let _subs: Vec<_> = (0..variant.idle_subs)
            .map(|k| engine.subscribe_idle(k, plan.absent))
            .collect();
        let mark = t.span_count();
        let mut timed = Duration::ZERO;
        let mut flush_wait = Duration::ZERO;
        let mut refused = 0u64;
        let mut burst = |t: &mut crate::trace::Tracer, id: RunId, evs: &[wf_run::ExecEvent]| {
            t.span("ingest_burst", "ingest", |_| {
                for ev in evs {
                    refused += u64::from(!engine.ingest(id, ev));
                }
            });
        };
        let mut flush = |t: &mut crate::trace::Tracer| {
            let f0 = Instant::now();
            t.span("flush", "ingest", |_| engine.flush());
            flush_wait += f0.elapsed();
        };
        let ids: Vec<RunId> = match plan.feed {
            Feed::OneRunAtATime => fleet
                .runs
                .iter()
                .map(|run| {
                    let id = engine.open_run(run.spec);
                    let t0 = Instant::now();
                    for chunk in run.events().chunks(BURST) {
                        burst(t, id, chunk);
                    }
                    flush(t);
                    timed += t0.elapsed();
                    t.span("complete_run", "ingest", |_| engine.complete_run(id));
                    id
                })
                .collect(),
            Feed::RoundRobin => {
                let ids: Vec<RunId> = fleet.runs.iter().map(|r| engine.open_run(r.spec)).collect();
                let mut cursor = vec![0usize; ids.len()];
                let t0 = Instant::now();
                loop {
                    let mut any = false;
                    for (i, run) in fleet.runs.iter().enumerate() {
                        let evs = run.events();
                        let from = cursor[i];
                        if from < evs.len() {
                            let to = (from + BURST).min(evs.len());
                            burst(t, ids[i], &evs[from..to]);
                            cursor[i] = to;
                            any = true;
                        }
                    }
                    if !any {
                        break;
                    }
                }
                flush(t);
                timed += t0.elapsed();
                t.span("complete_run", "ingest", |_| {
                    for &id in &ids {
                        engine.complete_run(id);
                    }
                });
                ids
            }
        };
        let enqueue_ns = t
            .enabled()
            .then(|| t.durations_since(mark, "ingest_burst").iter().sum::<f64>() / total as f64);

        // Oracles, outside the timed window.
        ops.add(total as u64);
        ops.fail(refused, || format!("{refused} events refused by ingest()"));
        let errors = engine.take_ingest_errors();
        ops.check(errors == 0, || format!("{errors} ingest errors"));
        let stats = engine.stats();
        ops.check(stats.events_ingested == total as u64, || {
            format!("events_ingested {} != {total}", stats.events_ingested)
        });
        for (p, expect) in &plan.checks {
            let got = engine
                .handle(ids[p.run as usize])
                .and_then(|h| h.reach(p.u, p.v));
            ops.check(got == Some(*expect), || {
                format!("hot reach {p:?}: got {got:?}, BFS says {expect}")
            });
        }
        let pass = Pass {
            events: total,
            timed,
            hot_bytes_per_label: stats.hot_resident_bytes as f64 / stats.labels_hot.max(1) as f64,
            flush_wait_ms: secs(flush_wait) * 1e3,
            enqueue_ns,
            apply_ns_mean: engine.apply_ns_mean(),
        };
        t.span("drop", "engine", |_| drop(engine));
        pass
    })
}

#[derive(Default)]
pub struct IngestOut {
    pub eps: PerRound,
    pub flush_wait_ms: Samples,
    pub enqueue_ns: Samples,
    pub hot_bytes_per_label: f64,
    pub apply_ns_mean: f64,
}

impl IngestOut {
    /// Close a round; the warm-up round (`keep` false) leaves nothing.
    pub fn end_round(&mut self, keep: bool) {
        if keep {
            self.eps.end_round();
        } else {
            *self = Self::default();
        }
    }
}

/// One turn's slice: passes until `budget` is used.
pub fn slice(ctx: &mut Ctx, plan: &IngestPlan, budget: Duration, out: &mut IngestOut) {
    laps_within(budget, || {
        let p = one_pass(ctx, plan, Variant::default());
        out.eps.add(p.events as f64, secs(p.timed));
        out.flush_wait_ms.push(p.flush_wait_ms);
        if let Some(e) = p.enqueue_ns {
            out.enqueue_ns.push(e);
        }
        out.hot_bytes_per_label = p.hot_bytes_per_label;
        out.apply_ns_mean = p.apply_ns_mean;
    });
}

/// Interleaved A/B: `rounds` rounds, the side that goes first
/// alternating (ABBA), so drift across the trial biases neither side.
/// Returns the median events/s of each side's passes.
pub fn abba(ctx: &mut Ctx, plan: &IngestPlan, a: Variant, b: Variant, rounds: usize) -> (f64, f64) {
    let (mut eps_a, mut eps_b) = (Vec::new(), Vec::new());
    one_pass(ctx, plan, a); // warm-up
    for round in 0..rounds {
        let order = if round % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for is_a in order {
            let p = one_pass(ctx, plan, if is_a { a } else { b });
            let side = if is_a { &mut eps_a } else { &mut eps_b };
            side.push(p.events as f64 / secs(p.timed));
        }
    }
    (median(&eps_a), median(&eps_b))
}
