//! The tiered station: a fleet spread over hot / frozen / persisted
//! tiers (run i → tier i % 3, persisted third compacted into packs),
//! then read-only phases: `reach` per tier, cross-run scans with
//! everything resident (warm), and the same scans on a reopen of the
//! spill directory with a resident budget of ¼ of the persisted bytes
//! (cold). The working set fits the engine's own cache in the warm
//! phases and exceeds it 4× in the cold phase; sizes are printed.

use crate::engine_api::{dir_bytes, Engine, EngineCfg, Handle, RunId, Tier};
use crate::harness::{remove_dir, Ctx};
use crate::inputs::{self, Fleet, ReachPair, ScanPlan};
use crate::stats::{secs, PerRound, Samples};
use crate::trace::{Tracer, HARNESS};
use rand::rngs::StdRng;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Persisted runs promoted by the closing `reheat_run` probe.
const REHEAT_PROBE: usize = 32;

pub struct TieredPlan {
    pub fleet: Rc<Fleet>,
    /// Fleet run indices per tier: [hot, frozen, persisted].
    pub tiers: [Vec<usize>; 3],
    /// Pre-drawn pairs per tier, random runs within the tier.
    pub pairs: [Vec<ReachPair>; 3],
    /// A seeded 1 % of each tier's pairs with BFS answers.
    pub oracle: [Vec<(u32, bool)>; 3],
    /// Scans over every run (warm) and over the persisted third (cold).
    pub warm: ScanPlan,
    pub cold: ScanPlan,
}

impl TieredPlan {
    pub fn new(fleet: Rc<Fleet>, rng: &mut StdRng, pairs_per_tier: usize) -> Self {
        let n = fleet.runs.len();
        let tiers: [Vec<usize>; 3] =
            std::array::from_fn(|k| (0..n).filter(|i| i % 3 == k).collect());
        let pairs: [Vec<ReachPair>; 3] =
            std::array::from_fn(|k| inputs::draw_pairs(&fleet, rng, &tiers[k], pairs_per_tier));
        let oracle = std::array::from_fn(|k| inputs::oracle_sample(&fleet, &pairs[k], rng, 100));
        let all: Vec<usize> = (0..n).collect();
        let warm = inputs::scan_plan(&fleet, rng, &all);
        let cold = inputs::scan_plan(&fleet, rng, &tiers[2]);
        Self {
            fleet,
            tiers,
            pairs,
            oracle,
            warm,
            cold,
        }
    }

    fn labels_in(&self, tier: usize) -> u64 {
        self.tiers[tier]
            .iter()
            .map(|&i| self.fleet.runs[i].events().len() as u64)
            .sum()
    }
}

/// The long-lived engine of the read phases, built during set-up.
pub struct Tiers {
    pub engine: Engine,
    pub dir: PathBuf,
    pub ids: Vec<RunId>,
    pub persist_us: Samples,
    pub compact_ms: f64,
}

/// Ingest the whole fleet, complete it, freeze one third, persist and
/// compact another. Part of `setup_s`: work a change moves from the
/// read path into freeze/persist shows up there.
pub fn build_tiers(ctx: &mut Ctx, plan: &TieredPlan) -> Tiers {
    let Ctx {
        catalog,
        tracer,
        ops,
        tmp,
    } = ctx;
    let dir = tmp.fresh("spill");
    let fleet = &*plan.fleet;
    tracer.next_trace();
    tracer.span("build_tiers", HARNESS, |t| {
        let engine = t.span("build", "engine", |_| {
            Engine::build(
                catalog,
                &EngineCfg {
                    spill_dir: Some(dir.clone()),
                    ..EngineCfg::default()
                },
            )
        });
        let ids = ingest_completed(
            t,
            ops,
            &engine,
            fleet,
            &(0..fleet.runs.len()).collect::<Vec<_>>(),
        );
        for &i in &plan.tiers[1] {
            let ok = t.span("freeze_run", "freeze", |_| engine.freeze_run(ids[i]));
            ops.check(ok, || format!("freeze_run failed on run {i}"));
        }
        let mut persist_us = Samples::default();
        for &i in &plan.tiers[2] {
            let t0 = Instant::now();
            let ok = t.span("persist_run", "snapshot", |_| engine.persist_run(ids[i]));
            persist_us.push(secs(t0.elapsed()) * 1e6);
            ops.check(ok, || format!("persist_run failed on run {i}"));
        }
        let t0 = Instant::now();
        let ok = t.span("compact", "snapshot", |_| engine.compact());
        let compact_ms = secs(t0.elapsed()) * 1e3;
        ops.check(ok, || "compact failed".into());
        Tiers {
            engine,
            dir: dir.clone(),
            ids,
            persist_us,
            compact_ms,
        }
    })
}

/// Open, ingest, flush and complete the runs `which` of `fleet`;
/// returns run ids indexed by fleet position (unopened = `RunId(MAX)`).
fn ingest_completed(
    t: &mut Tracer,
    ops: &mut crate::report::Ops,
    engine: &Engine,
    fleet: &Fleet,
    which: &[usize],
) -> Vec<RunId> {
    let mut ids = vec![RunId(u64::MAX); fleet.runs.len()];
    let mut events = 0u64;
    let mut refused = 0u64;
    for &i in which {
        let run = &fleet.runs[i];
        ids[i] = engine.open_run(run.spec);
        for chunk in run.events().chunks(crate::ingest::BURST) {
            t.span("ingest_burst", "ingest", |_| {
                for ev in chunk {
                    refused += u64::from(!engine.ingest(ids[i], ev));
                }
            });
        }
        events += run.events().len() as u64;
    }
    t.span("flush", "ingest", |_| engine.flush());
    t.span("complete_run", "ingest", |_| {
        for &i in which {
            refused += u64::from(!engine.complete_run(ids[i]));
        }
    });
    ops.add(events);
    ops.fail(refused, || {
        format!("{refused} events or completions refused")
    });
    let errors = engine.take_ingest_errors();
    ops.check(errors == 0, || format!("{errors} ingest errors"));
    ids
}

/// What the slices measure, round by round.
#[derive(Default)]
pub struct TieredOut {
    pub reach_qps: [PerRound; 3],
    pub scan_warm_rps: PerRound,
    pub scan_cold_rps: PerRound,
    pub freeze_runs_per_s: PerRound,
    pub frozen_bytes_per_label: f64,
    pub freeze_run_us: Samples,
}

impl TieredOut {
    /// Close a round; the warm-up round (`keep` false) leaves nothing.
    pub fn end_round(&mut self, keep: bool) {
        if !keep {
            *self = Self::default();
            return;
        }
        for m in &mut self.reach_qps {
            m.end_round();
        }
        self.scan_warm_rps.end_round();
        self.scan_cold_rps.end_round();
        self.freeze_runs_per_s.end_round();
    }
}

/// What opening and closing the station measure, once per run.
#[derive(Default)]
pub struct TieredProbes {
    pub reheat_run_us: Samples,
    pub scan_us: [Samples; 3],
    pub labels_per_hit: f64,
    pub disk_bytes_per_label: f64,
    pub reopen_ms: f64,
    pub first_reach_us: Samples,
    pub warm_loads: f64,
    pub warm_sheds: f64,
    pub cold_loads: f64,
    pub cold_sheds: f64,
    pub cold_hit_ratio: f64,
    /// (persisted bytes, resident budget) of the cold phase.
    pub cold_sizes: (u64, u64),
}

/// One `freeze_run` sweep over the frozen third on a fresh volatile
/// engine; one per slice.
fn freeze_pass(ctx: &mut Ctx, plan: &TieredPlan, out: &mut TieredOut) {
    let Ctx {
        catalog,
        tracer,
        ops,
        ..
    } = ctx;
    let which = &plan.tiers[1];
    tracer.next_trace();
    tracer.span("freeze_pass", HARNESS, |t| {
        let engine = t.span("build", "engine", |_| {
            Engine::build(catalog, &EngineCfg::default())
        });
        let ids = ingest_completed(t, ops, &engine, &plan.fleet, which);
        let mark = t.span_count();
        let t0 = Instant::now();
        let mut failed = 0u64;
        for &i in which {
            failed += u64::from(!t.span("freeze_run", "freeze", |_| engine.freeze_run(ids[i])));
        }
        let sweep = t0.elapsed();
        ops.add(which.len() as u64);
        ops.fail(failed, || format!("{failed} freeze_run calls failed"));
        let stats = engine.stats();
        ops.check(stats.runs_frozen == which.len() as u64, || {
            format!(
                "{} runs frozen, expected {}",
                stats.runs_frozen,
                which.len()
            )
        });
        out.freeze_runs_per_s.add(which.len() as f64, secs(sweep));
        out.frozen_bytes_per_label = stats.frozen_bytes as f64 / plan.labels_in(1).max(1) as f64;
        for d in t.durations_since(mark, "freeze_run") {
            out.freeze_run_us.push(d / 1e3);
        }
        t.span("drop", "engine", |_| drop(engine));
    });
}

/// One window over `pairs`: adds queries and seconds to `qps`; returns
/// the number of questions asked and whether every full sweep hit the
/// same count.
fn reach_window(
    t: &mut Tracer,
    name: &'static str,
    layer: &'static str,
    handles: &[Option<Handle>],
    pairs: &[ReachPair],
    window: Duration,
    qps: &mut PerRound,
) -> (usize, bool) {
    t.span(name, layer, |_| {
        let t0 = Instant::now();
        let mut asked = 0usize;
        let mut sweeps: Option<usize> = None;
        let mut stable = true;
        'window: loop {
            let mut hits = 0usize;
            for chunk in pairs.chunks(2048) {
                for p in chunk {
                    let h = handles[p.run as usize].as_ref().expect("tier handle");
                    hits += usize::from(h.reach(p.u, p.v) == Some(true));
                }
                asked += chunk.len();
                if t0.elapsed() >= window {
                    break 'window;
                }
            }
            stable &= *sweeps.get_or_insert(hits) == hits;
        }
        qps.add(asked as f64, secs(t0.elapsed()));
        (asked, stable)
    })
}

/// Check one scan result against the plan's expected run set.
fn check_runs(
    ops: &mut crate::report::Ops,
    what: &str,
    got: &[RunId],
    expect: &[u32],
    ids: &[RunId],
) {
    let ok =
        got.len() == expect.len() && got.iter().zip(expect).all(|(g, &e)| *g == ids[e as usize]);
    ops.check(ok, || {
        format!(
            "scan {what}: {} runs returned, {} expected",
            got.len(),
            expect.len()
        )
    });
}

fn check_all_scans(ops: &mut crate::report::Ops, engine: &Engine, plan: &ScanPlan, ids: &[RunId]) {
    check_runs(
        ops,
        "reaching",
        &engine.scan_reaching(plan.reaching),
        &plan.expect_reaching,
        ids,
    );
    check_runs(
        ops,
        "linking",
        &engine.scan_linking(plan.link_from, plan.link_to),
        &plan.expect_linking,
        ids,
    );
    let mut named = engine.scan_named(plan.named);
    for (_, vs) in &mut named {
        vs.sort();
    }
    let ok = named.len() == plan.expect_named.len()
        && named
            .iter()
            .zip(&plan.expect_named)
            .all(|((g, gv), (e, ev))| *g == ids[*e as usize] && gv == ev);
    ops.check(ok, || {
        format!(
            "scan named: {} runs returned, {} expected",
            named.len(),
            plan.expect_named.len()
        )
    });
}

/// One window of the flagship scan: adds runs scanned and seconds to
/// `rps` and returns the number of scans. Every result is checked against the expected set.
#[allow(clippy::too_many_arguments)]
fn scan_window(
    t: &mut Tracer,
    ops: &mut crate::report::Ops,
    engine: &Engine,
    plan: &ScanPlan,
    ids: &[RunId],
    runs_in_scope: usize,
    window: Duration,
    rps: &mut PerRound,
) -> usize {
    let t0 = Instant::now();
    let mut scans = 0usize;
    loop {
        let got = t.span("scan_reaching", "query", |_| {
            engine.scan_reaching(plan.reaching)
        });
        scans += 1;
        check_runs(ops, "reaching", &got, &plan.expect_reaching, ids);
        if t0.elapsed() >= window {
            break;
        }
    }
    rps.add((scans * runs_in_scope) as f64, secs(t0.elapsed()));
    scans
}

/// Blobs brought (back) into residence: owned fault-ins plus pins of a
/// mapped range that was not resident (first pin, or re-pin after the
/// replacer shed it).
fn fault_ins(s: &crate::engine_api::Stats) -> u64 {
    s.segment_loads + s.pack_pins
}

/// The read phases, sliced so every metric is measured in every turn
/// of every round rather than in one block.
///
/// Two engines stay open over the same spill directory, both read-only
/// from here on: the *warm* one that built the tiers (everything
/// resident, no budget) and a *cold* reopen with a resident budget of ¼
/// of the persisted bytes.
pub struct TieredStation<'p> {
    plan: &'p TieredPlan,
    warm: Engine,
    cold: Engine,
    dir: PathBuf,
    ids: Vec<RunId>,
    handles: Vec<Option<Handle>>,
    warm_before: crate::engine_api::Stats,
    cold_before: crate::engine_api::Stats,
    cold_scans: usize,
    probes: TieredProbes,
}

impl<'p> TieredStation<'p> {
    /// Check the tiers, fault everything in once, reopen cold. Untimed.
    pub fn open(
        ctx: &mut Ctx,
        plan: &'p TieredPlan,
        tiers: Tiers,
        label_bits: &[(usize, wf_graph::VertexId, usize)],
    ) -> Self {
        let Ctx {
            catalog,
            tracer,
            ops,
            ..
        } = ctx;
        let Tiers {
            engine, dir, ids, ..
        } = tiers;
        let fleet = &*plan.fleet;
        let mut out = TieredProbes::default();
        tracer.next_trace();
        tracer.span("open_tiers", HARNESS, |t| {
            let handles: Vec<Option<Handle>> = t.span("handles", "store", |_| {
                ids.iter().map(|&id| engine.handle(id)).collect()
            });
            let want = [Tier::Hot, Tier::Frozen, Tier::Persisted];
            for (runs, want) in plan.tiers.iter().zip(want) {
                let ok = runs
                    .iter()
                    .all(|&i| handles[i].as_ref().is_some_and(|h| h.tier() == want));
                ops.check(ok, || format!("a run is not in {want:?}"));
            }
            // The seeded 1 % of every tier's pairs against BFS.
            for k in 0..3 {
                for &(i, expect) in &plan.oracle[k] {
                    let p = plan.pairs[k][i as usize];
                    let got = handles[p.run as usize]
                        .as_ref()
                        .and_then(|h| h.reach(p.u, p.v));
                    ops.check(got == Some(expect), || {
                        format!("tier {k} reach {p:?}: got {got:?}, BFS says {expect}")
                    });
                }
            }
            // All three scan shapes; this also pins every persisted run
            // once, so the warm windows start with everything resident.
            check_all_scans(ops, &engine, &plan.warm, &ids);
            // The bare labeler and the engine must agree on Fig. 14's
            // quantity, whichever tier the label now lives in.
            for &(run, v, bits) in label_bits {
                let got = handles[run].as_ref().and_then(|h| h.label_bits(v));
                ops.check(got == Some(bits), || {
                    format!("run {run} {v:?}: engine says {got:?} label bits, bare labeler {bits}")
                });
            }
            let warm_before = engine.stats();
            out.disk_bytes_per_label = dir_bytes(&dir) as f64 / plan.labels_in(2).max(1) as f64;

            let persisted_bytes = warm_before.persisted_bytes;
            let budget_bytes = (persisted_bytes / 4).max(1);
            out.cold_sizes = (persisted_bytes, budget_bytes);
            let t0 = Instant::now();
            let cold = t.span("reopen", "bufmgr", |_| {
                Engine::build(
                    catalog,
                    &EngineCfg {
                        spill_dir: Some(dir.clone()),
                        max_resident_bytes: Some(budget_bytes),
                        ..EngineCfg::default()
                    },
                )
            });
            out.reopen_ms = secs(t0.elapsed()) * 1e3;
            let survivors = cold.run_ids();
            let expect: Vec<RunId> = plan.tiers[2].iter().map(|&i| ids[i]).collect();
            ops.check(survivors == expect, || {
                format!(
                    "reopen: {} runs registered, {} persisted",
                    survivors.len(),
                    expect.len()
                )
            });
            let cold_before = cold.stats();
            // First touch of every persisted run: fault-in + verify.
            for &i in &plan.tiers[2] {
                let v = fleet.runs[i].events()[0].vertex;
                let t0 = Instant::now();
                let got = t.span("first_reach", "bufmgr", |_| {
                    cold.handle(ids[i]).and_then(|h| h.reach(v, v))
                });
                out.first_reach_us.push(secs(t0.elapsed()) * 1e6);
                ops.check(got == Some(true), || {
                    format!("cold run {i}: source does not reach itself")
                });
            }
            check_all_scans(ops, &cold, &plan.cold, &ids);
            Self {
                plan,
                warm: engine,
                cold,
                dir: dir.clone(),
                ids: ids.clone(),
                handles,
                warm_before,
                cold_before,
                cold_scans: 0,
                probes: out,
            }
        })
    }

    /// One turn's slice: a freeze sweep, then one window each of reach
    /// hot / frozen / persisted, warm scan, cold scan.
    pub fn slice(&mut self, ctx: &mut Ctx, budget: Duration, out: &mut TieredOut) {
        let t0 = Instant::now();
        freeze_pass(ctx, self.plan, out);
        let window = budget.saturating_sub(t0.elapsed()).max(budget / 4) / 5;
        let Ctx { tracer, ops, .. } = ctx;
        let plan = self.plan;
        tracer.next_trace();
        tracer.span("read_slice", HARNESS, |t| {
            let names = ["reach_hot", "reach_frozen", "reach_persisted"];
            let layers = ["index", "freeze", "bufmgr"];
            for k in 0..3 {
                let (asked, stable) = reach_window(
                    t,
                    names[k],
                    layers[k],
                    &self.handles,
                    &plan.pairs[k],
                    window,
                    &mut out.reach_qps[k],
                );
                ops.add(asked as u64);
                ops.check(stable, || {
                    format!("tier {k}: hit count changed between sweeps")
                });
            }
            scan_window(
                t,
                ops,
                &self.warm,
                &plan.warm,
                &self.ids,
                plan.fleet.runs.len(),
                window,
                &mut out.scan_warm_rps,
            );
            self.cold_scans += scan_window(
                t,
                ops,
                &self.cold,
                &plan.cold,
                &self.ids,
                plan.tiers[2].len(),
                window,
                &mut out.scan_cold_rps,
            );
        });
    }

    /// Closing probes (per-shape scan times when traced, `reheat_run`),
    /// the residency counters, and clean-up.
    pub fn close(mut self, ctx: &mut Ctx) -> TieredProbes {
        let Ctx { tracer, ops, .. } = ctx;
        let plan = self.plan;
        let out = &mut self.probes;
        tracer.next_trace();
        tracer.span("close_tiers", HARNESS, |t| {
            if t.enabled() {
                for _ in 0..7 {
                    let t0 = Instant::now();
                    let hits = t.span("scan_reaching", "query", |_| {
                        self.warm.scan_reaching(plan.warm.reaching)
                    });
                    out.scan_us[0].push(secs(t0.elapsed()) * 1e6);
                    out.labels_per_hit =
                        plan.warm.labels_in_scope as f64 / hits.len().max(1) as f64;
                    let t0 = Instant::now();
                    t.span("scan_linking", "query", |_| {
                        self.warm
                            .scan_linking(plan.warm.link_from, plan.warm.link_to)
                    });
                    out.scan_us[1].push(secs(t0.elapsed()) * 1e6);
                    let t0 = Instant::now();
                    t.span("scan_named", "query", |_| {
                        self.warm.scan_named(plan.warm.named)
                    });
                    out.scan_us[2].push(secs(t0.elapsed()) * 1e6);
                }
            }
            let after = self.warm.stats();
            out.warm_loads = (fault_ins(&after) - fault_ins(&self.warm_before)) as f64;
            out.warm_sheds = (after.segment_sheds - self.warm_before.segment_sheds) as f64;
            let after = self.cold.stats();
            out.cold_loads = (fault_ins(&after) - fault_ins(&self.cold_before)) as f64;
            out.cold_sheds = (after.segment_sheds - self.cold_before.segment_sheds) as f64;
            // The first reach, the three checked scans and every timed
            // scan pin each persisted run once.
            let pins = ((self.cold_scans + 3 + 1) * plan.tiers[2].len()) as f64;
            out.cold_hit_ratio = (1.0 - out.cold_loads / pins).max(0.0);

            for &i in plan.tiers[2].iter().take(REHEAT_PROBE) {
                let t0 = Instant::now();
                let ok = t.span("reheat_run", "store", |_| self.cold.reheat_run(self.ids[i]));
                out.reheat_run_us.push(secs(t0.elapsed()) * 1e6);
                let tier = self.cold.handle(self.ids[i]).map(|h| h.tier());
                ops.check(ok && tier == Some(Tier::Frozen), || {
                    format!("reheat_run on run {i}: ok={ok}, tier {tier:?}")
                });
            }
        });
        let Self {
            warm,
            cold,
            handles,
            dir,
            probes,
            ..
        } = self;
        drop(handles);
        tracer.span("drop", "engine", |_| {
            drop(cold);
            drop(warm);
        });
        remove_dir(&dir);
        probes
    }
}
