//! The live station: reads beside writes on the same index and store,
//! with background tiering and a live subscription.
//!
//! One pass is a fixed number of cycles. A cycle is one 32-event burst
//! to the next of 16 live runs (a finished run is completed and
//! replaced) **then** 128 `reach` calls: 90 % on already-sent vertices
//! of live runs, 10 % on completed runs in whatever tier they are. The
//! engine freezes, spills and compacts completed runs in the background;
//! one `subscribe(vertices_named(N))` is drained by `try_recv` each
//! cycle; every 16th cycle spins until the burst's last vertex answers
//! `reach(v, v)`. One thread generates the load: a second spinning
//! thread on a 2-core box would measure the scheduler quantum.

use crate::engine_api::{Engine, EngineCfg, Handle, RunId, SubDelta};
use crate::harness::{remove_dir, Ctx};
use crate::inputs::{self, Fleet, ReachPair};
use crate::stats::{laps_within, secs, PerRound, Samples};
use crate::trace::HARNESS;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};
use wf_graph::{NameId, VertexId};

pub const LIVE_RUNS: usize = 16;
pub const BURST: usize = 32;
pub const QUERIES: usize = 128;
/// Cycles between visible-lag samples.
const LAG_EVERY: usize = 16;

/// One cycle's write: events `from..to` of run `run`; `last` marks the
/// run's final burst (complete it, open `next` in its slot).
struct Cycle {
    run: u32,
    from: u32,
    to: u32,
    last: bool,
    next: Option<u32>,
}

/// A pre-drawn read: the pair, whether its run is live when asked, and
/// the BFS answer for the seeded 1 % that are checked.
struct Query {
    pair: ReachPair,
    live: bool,
    expect: Option<bool>,
}

pub struct LivePlan {
    pub fleet: Fleet,
    cycles: Vec<Cycle>,
    queries: Vec<Query>,
    /// The subscribed name and every `(run, vertex)` carrying it among
    /// the events a pass sends: what the delta stream must add up to.
    pub name: NameId,
    expect_named: HashSet<(u32, VertexId)>,
    events: usize,
}

impl LivePlan {
    /// Simulate `cycles` cycles over `fleet` to fix, before any timing,
    /// which burst and which 128 questions each cycle issues.
    pub fn new(fleet: Fleet, rng: &mut StdRng, cycles: usize) -> Self {
        assert!(fleet.runs.len() > LIVE_RUNS, "live fleet too small");
        let mut slot_run: Vec<Option<usize>> = (0..LIVE_RUNS).map(Some).collect();
        let mut sent = vec![0usize; fleet.runs.len()];
        let mut next_run = LIVE_RUNS;
        let mut completed: Vec<usize> = Vec::new();
        let mut plan_cycles = Vec::with_capacity(cycles);
        let mut pairs: Vec<(ReachPair, bool)> = Vec::with_capacity(cycles * QUERIES);
        let mut slot = 0usize;
        for _ in 0..cycles {
            // Next slot that still holds a run (one always does: the
            // fleet is sized with slack over the events a pass sends).
            assert!(slot_run.iter().any(Option::is_some), "live fleet ran dry");
            let run = loop {
                let r = slot_run[slot % LIVE_RUNS];
                slot += 1;
                if let Some(r) = r {
                    break r;
                }
            };
            let len = fleet.runs[run].events().len();
            let (from, to) = (sent[run], (sent[run] + BURST).min(len));
            sent[run] = to;
            let last = to == len;
            let mut next = None;
            if last {
                completed.push(run);
                let s = slot_run.iter().position(|r| *r == Some(run)).expect("live");
                slot_run[s] = (next_run < fleet.runs.len()).then_some(next_run);
                next = slot_run[s].map(|r| r as u32);
                next_run += 1;
            }
            plan_cycles.push(Cycle {
                run: run as u32,
                from: from as u32,
                to: to as u32,
                last,
                next,
            });
            let live: Vec<usize> = slot_run
                .iter()
                .flatten()
                .copied()
                .filter(|&r| sent[r] > 0)
                .collect();
            for _ in 0..QUERIES {
                let on_completed = !completed.is_empty() && rng.gen_range(0..10) == 0;
                let (r, is_live) = if on_completed || live.is_empty() {
                    (completed[rng.gen_range(0..completed.len())], false)
                } else {
                    (live[rng.gen_range(0..live.len())], true)
                };
                pairs.push((inputs::draw_pair(&fleet, rng, r, sent[r]), is_live));
            }
        }
        let only_pairs: Vec<ReachPair> = pairs.iter().map(|(p, _)| *p).collect();
        let mut expect: Vec<Option<bool>> = vec![None; pairs.len()];
        for (i, answer) in inputs::oracle_sample(&fleet, &only_pairs, rng, 100) {
            expect[i as usize] = Some(answer);
        }
        // Subscribe to a name that occurs, drawn from the first run.
        let ev0 = fleet.runs[0].events();
        let name = ev0[rng.gen_range(0..ev0.len())].name;
        let expect_named = (0..fleet.runs.len())
            .flat_map(|r| {
                fleet.runs[r].events()[..sent[r]]
                    .iter()
                    .filter(move |e| e.name == name)
                    .map(move |e| (r as u32, e.vertex))
            })
            .collect();
        Self {
            events: sent.iter().sum(),
            queries: pairs
                .into_iter()
                .zip(expect)
                .map(|((pair, live), expect)| Query { pair, live, expect })
                .collect(),
            cycles: plan_cycles,
            name,
            expect_named,
            fleet,
        }
    }

    pub fn cycles(&self) -> usize {
        self.cycles.len()
    }

    /// Runs a fleet needs so `cycles` cycles never run out of
    /// replacements (run sizes land within ~±20 % of the target).
    pub fn runs_needed(cycles: usize, run_size: usize) -> usize {
        LIVE_RUNS + (cycles * BURST * 3 / 2) / run_size + 4
    }

    pub fn fingerprint(&self, fp: &mut inputs::Fingerprint) {
        fp.fleet(&self.fleet);
        for q in &self.queries {
            fp.word(u64::from(q.pair.run) << 1 | u64::from(q.live));
            fp.word(u64::from(q.pair.u.0) << 32 | u64::from(q.pair.v.0));
        }
    }
}

#[derive(Default)]
pub struct LiveOut {
    pub cycle_ops_per_s: PerRound,
    /// Pooled over the timed passes, in µs.
    pub visible_lag_us: Vec<f64>,
    pub delta_lag_us: Vec<f64>,
    pub cycle_us: Vec<f64>,
    pub flush_wait_ms: Samples,
    pub deltas_delivered: f64,
    pub deltas_dropped: f64,
    pub stale_read_ratio: f64,
    pub bg_spills: f64,
    pub bg_compactions: f64,
}

impl LiveOut {
    /// Close a round; the warm-up round (`keep` false) leaves nothing.
    pub fn end_round(&mut self, keep: bool) {
        if keep {
            self.cycle_ops_per_s.end_round();
        } else {
            *self = Self::default();
        }
    }
}

fn one_pass(ctx: &mut Ctx, plan: &LivePlan, out: &mut LiveOut) {
    let Ctx {
        catalog,
        tracer,
        ops,
        tmp,
    } = ctx;
    let dir = tmp.fresh("live");
    let fleet = &plan.fleet;
    tracer.next_trace();
    tracer.span("live_pass", HARNESS, |t| {
        let engine = t.span("build", "engine", |_| {
            Engine::build(
                catalog,
                &EngineCfg {
                    spill_dir: Some(dir.clone()),
                    freeze_after: Some(4),
                    compact_after: Some(8),
                    ..EngineCfg::default()
                },
            )
        });
        let sub = engine.subscribe_named(plan.name);
        let mut ids: Vec<Option<RunId>> = vec![None; fleet.runs.len()];
        let mut live: Vec<Option<Handle>> = (0..fleet.runs.len()).map(|_| None).collect();
        let mut by_id: HashMap<RunId, u32> = HashMap::new();
        let open = |r: usize,
                    ids: &mut Vec<Option<RunId>>,
                    live: &mut Vec<Option<Handle>>,
                    by_id: &mut HashMap<RunId, u32>| {
            let id = engine.open_run(fleet.runs[r].spec);
            ids[r] = Some(id);
            live[r] = engine.handle(id);
            by_id.insert(id, r as u32);
        };
        for r in 0..LIVE_RUNS {
            open(r, &mut ids, &mut live, &mut by_id);
        }
        let mut seen: HashSet<(u32, VertexId)> = HashSet::new();
        let mut pending: HashMap<(u32, VertexId), Instant> = HashMap::new();
        let (mut delivered, mut dropped) = (0u64, 0u64);
        let (mut refused, mut wrong, mut stale, mut live_reads) = (0u64, 0u64, 0u64, 0u64);
        let mut visible_lag = Vec::new();
        let mut delta_lag = Vec::new();
        let mut drain = |t: &mut crate::trace::Tracer,
                         seen: &mut HashSet<(u32, VertexId)>,
                         pending: &mut HashMap<(u32, VertexId), Instant>,
                         by_id: &HashMap<RunId, u32>| {
            t.span("sub_drain", "sub", |_| {
                while let Some(d) = sub.try_recv() {
                    match d {
                        SubDelta::Added(run, v) => {
                            delivered += 1;
                            let key = (by_id.get(&run).copied().unwrap_or(u32::MAX), v);
                            if let Some(at) = pending.remove(&key) {
                                delta_lag.push(secs(at.elapsed()) * 1e6);
                            }
                            seen.insert(key);
                        }
                        SubDelta::Removed(run, v) => {
                            delivered += 1;
                            seen.remove(&(by_id.get(&run).copied().unwrap_or(u32::MAX), v));
                        }
                        SubDelta::Lagged(n) => dropped += n,
                        SubDelta::Other => delivered += 1,
                    }
                }
            });
        };

        let mark = t.span_count();
        let t0 = Instant::now();
        for (c, cycle) in plan.cycles.iter().enumerate() {
            t.span("cycle", HARNESS, |t| {
                let r = cycle.run as usize;
                let id = ids[r].expect("scheduled runs are open");
                let evs = &fleet.runs[r].events()[cycle.from as usize..cycle.to as usize];
                let sample_lag = c % LAG_EVERY == 0;
                let burst_at = Instant::now();
                let mut last_at = burst_at;
                t.span("ingest_burst", "ingest", |_| {
                    for (k, ev) in evs.iter().enumerate() {
                        if ev.name == plan.name {
                            pending.insert((cycle.run, ev.vertex), burst_at);
                        }
                        if sample_lag && k + 1 == evs.len() {
                            last_at = Instant::now();
                        }
                        refused += u64::from(!engine.ingest(id, ev));
                    }
                });
                if sample_lag {
                    let v = evs[evs.len() - 1].vertex;
                    let h = live[r].as_ref().expect("live handle");
                    t.span("visible_spin", "ingest", |_| {
                        while h.reach(v, v).is_none() {
                            std::hint::spin_loop();
                        }
                    });
                    visible_lag.push(secs(last_at.elapsed()) * 1e6);
                }
                if cycle.last {
                    t.span("complete_run", "ingest", |_| {
                        refused += u64::from(!engine.complete_run(id));
                    });
                    live[r] = None;
                    if let Some(n) = cycle.next {
                        open(n as usize, &mut ids, &mut live, &mut by_id);
                    }
                }
                t.span("reach_batch", "index", |_| {
                    for q in &plan.queries[c * QUERIES..(c + 1) * QUERIES] {
                        let p = &q.pair;
                        let got = if q.live {
                            live_reads += 1;
                            let h = live[p.run as usize].as_ref().expect("live handle");
                            h.reach(p.u, p.v)
                        } else {
                            // Completed runs tier out in the background:
                            // a fresh handle follows them.
                            let id = ids[p.run as usize].expect("completed runs were open");
                            engine.handle(id).and_then(|h| h.reach(p.u, p.v))
                        };
                        match (got, q.expect) {
                            (None, _) if q.live => stale += 1,
                            (None, _) => wrong += 1,
                            (Some(g), Some(e)) if g != e => wrong += 1,
                            _ => {}
                        }
                    }
                });
                drain(t, &mut seen, &mut pending, &by_id);
            });
        }
        let wall = t0.elapsed();
        let f0 = Instant::now();
        t.span("flush", "ingest", |_| engine.flush());
        let flush_wait = f0.elapsed();
        drain(t, &mut seen, &mut pending, &by_id);

        let ops_done = (plan.events + plan.cycles.len() * QUERIES) as u64;
        ops.add(ops_done);
        ops.fail(refused, || {
            format!("{refused} events or completions refused")
        });
        ops.fail(wrong, || {
            format!("{wrong} reach answers wrong or missing on completed runs")
        });
        let errors = engine.take_ingest_errors();
        ops.check(errors == 0, || format!("{errors} ingest/tiering errors"));
        // The delta stream must add up to the final pull query, and
        // both to what the streams say was sent.
        let mut pulled: HashSet<(u32, VertexId)> = HashSet::new();
        for (run, vs) in engine.all_named(plan.name) {
            let r = by_id.get(&run).copied().unwrap_or(u32::MAX);
            pulled.extend(vs.into_iter().map(|v| (r, v)));
        }
        ops.check(dropped == 0 && seen == pulled, || {
            format!(
                "delta stream ({} matches, {dropped} dropped) != pull query ({})",
                seen.len(),
                pulled.len()
            )
        });
        ops.check(pulled == plan.expect_named, || {
            format!(
                "pull query returns {} matches, the streams hold {}",
                pulled.len(),
                plan.expect_named.len()
            )
        });
        let stats = engine.stats();
        out.cycle_ops_per_s.add(ops_done as f64, secs(wall));
        out.visible_lag_us.extend(visible_lag);
        out.delta_lag_us.extend(delta_lag);
        out.cycle_us
            .extend(t.durations_since(mark, "cycle").iter().map(|d| d / 1e3));
        out.flush_wait_ms.push(secs(flush_wait) * 1e3);
        out.deltas_delivered = delivered as f64;
        out.deltas_dropped = dropped as f64;
        out.stale_read_ratio = stale as f64 / live_reads.max(1) as f64;
        out.bg_spills = stats.spills as f64;
        out.bg_compactions = stats.compactions as f64;
        drop(live);
        drop(sub);
        t.span("drop", "engine", |_| drop(engine));
    });
    remove_dir(&dir);
}

/// One turn's slice: passes until `budget` is used.
pub fn slice(ctx: &mut Ctx, plan: &LivePlan, budget: Duration, out: &mut LiveOut) {
    laps_within(budget, || one_pass(ctx, plan, out));
}
