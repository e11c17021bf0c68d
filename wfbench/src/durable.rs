//! The durable station: WAL group commit, a barrier at 90 % of the
//! events, a truncated crash copy, and a timed recovery.
//!
//! Killing a process leaves the OS cache intact, so the station itself
//! discards un-barriered bytes: it copies the WAL directory while the
//! last 10 % of events are in flight and truncates each shard of the
//! copy at a seeded offset in [length at the barrier, current length].
//! "Every acknowledged event survives" is then checkable without
//! relying on the page cache.

use crate::engine_api::{dir_bytes, Engine, EngineCfg, RunId};
use crate::harness::{remove_dir, Ctx};
use crate::ingest::BURST;
use crate::inputs::{Fleet, ReachPair};
use crate::layers;
use crate::stats::{laps_within, secs, PerRound, Samples};
use crate::trace::HARNESS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

pub struct DurablePlan {
    pub fleet: Rc<Fleet>,
    /// Round-robin bursts `(run, from, to)` covering every event.
    pub bursts: Vec<(u32, u32, u32)>,
    /// Bursts before this index are sent before the barrier.
    pub barrier_at: usize,
    /// Events of each run sent before the barrier: the acknowledged
    /// prefix recovery must return.
    pub acked: Vec<u32>,
    /// Reach questions inside acknowledged prefixes, with BFS answers.
    pub checks: Vec<(ReachPair, bool)>,
    pub crash_seed: u64,
}

impl DurablePlan {
    pub fn new(fleet: Rc<Fleet>, rng: &mut StdRng, checks: usize) -> Self {
        let mut bursts = Vec::new();
        let mut cursor = vec![0usize; fleet.runs.len()];
        loop {
            let mut any = false;
            for (i, run) in fleet.runs.iter().enumerate() {
                let len = run.events().len();
                if cursor[i] < len {
                    let to = (cursor[i] + BURST).min(len);
                    bursts.push((i as u32, cursor[i] as u32, to as u32));
                    cursor[i] = to;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        let target = fleet.total_events() * 9 / 10;
        let mut acked = vec![0u32; fleet.runs.len()];
        let mut sent = 0usize;
        let mut barrier_at = bursts.len();
        for (k, &(run, from, to)) in bursts.iter().enumerate() {
            if sent >= target {
                barrier_at = k;
                break;
            }
            acked[run as usize] = to;
            sent += (to - from) as usize;
        }
        let with_prefix: Vec<usize> = (0..acked.len()).filter(|&r| acked[r] > 0).collect();
        let pairs: Vec<ReachPair> = (0..checks)
            .map(|_| {
                let run = with_prefix[rng.gen_range(0..with_prefix.len())];
                crate::inputs::draw_pair(&fleet, rng, run, acked[run] as usize)
            })
            .collect();
        let answers = crate::inputs::oracle_sample(&fleet, &pairs, rng, 1);
        Self {
            checks: answers
                .into_iter()
                .map(|(i, a)| (pairs[i as usize], a))
                .collect(),
            crash_seed: rng.gen_range(0..u64::MAX),
            fleet,
            bursts,
            barrier_at,
            acked,
        }
    }
}

#[derive(Default)]
pub struct DurableOut {
    pub eps: PerRound,
    pub recovery_ms: PerRound,
    pub flush_wait_ms: Samples,
    pub enqueue_ns: Samples,
    pub wal_bytes_per_event: f64,
    pub hot_bytes_per_label: f64,
    pub apply_ns_mean: f64,
    /// Traced runs only.
    pub recover_ms: Samples,
    pub wal_probe: Option<layers::WalProbe>,
    /// Passes so far; varies the crash-copy offsets from pass to pass.
    passes: usize,
}

impl DurableOut {
    /// Close a round; the warm-up round (`keep` false) leaves nothing.
    pub fn end_round(&mut self, keep: bool) {
        if keep {
            self.eps.end_round();
            self.recovery_ms.end_round();
        } else {
            *self = Self::default();
        }
    }
}

fn shard_lengths(dir: &Path) -> HashMap<std::ffi::OsString, u64> {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| Some((e.file_name(), e.metadata().ok()?.len())))
                .collect()
        })
        .unwrap_or_default()
}

/// Copy `src` to `dst`, then cut every shard of the copy at a seeded
/// offset between its length at the barrier and its length now.
fn crash_copy(
    src: &Path,
    dst: &Path,
    at_barrier: &HashMap<std::ffi::OsString, u64>,
    rng: &mut StdRng,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    let mut names: Vec<_> = std::fs::read_dir(src)?
        .filter_map(Result::ok)
        .map(|e| e.file_name())
        .collect();
    names.sort();
    for name in names {
        let to = dst.join(&name);
        let now = std::fs::copy(src.join(&name), &to)?;
        let floor = at_barrier.get(&name).copied().unwrap_or(0).min(now);
        let cut = floor + rng.gen_range(0..=(now - floor));
        std::fs::OpenOptions::new()
            .write(true)
            .open(&to)?
            .set_len(cut)?;
    }
    Ok(())
}

fn one_pass(ctx: &mut Ctx, plan: &DurablePlan, pass: usize, out: &mut DurableOut) {
    let Ctx {
        catalog,
        tracer,
        ops,
        tmp,
    } = ctx;
    let fleet = &*plan.fleet;
    let total = fleet.total_events();
    let wal_dir = tmp.fresh("wal");
    let crash_dir = tmp.fresh("crash");
    let mut rng = StdRng::seed_from_u64(plan.crash_seed ^ pass as u64);
    tracer.next_trace();
    tracer.span("durable_pass", HARNESS, |t| {
        let engine = t.span("build", "engine", |_| {
            Engine::build(
                catalog,
                &EngineCfg {
                    wal_dir: Some(wal_dir.clone()),
                    ..EngineCfg::default()
                },
            )
        });
        let ids: Vec<RunId> = fleet.runs.iter().map(|r| engine.open_run(r.spec)).collect();
        let mark = t.span_count();
        let mut refused = 0u64;
        let mut send = |t: &mut crate::trace::Tracer, bursts: &[(u32, u32, u32)]| {
            for &(run, from, to) in bursts {
                let evs = &fleet.runs[run as usize].events()[from as usize..to as usize];
                t.span("ingest_burst", "ingest", |_| {
                    for ev in evs {
                        refused += u64::from(!engine.ingest(ids[run as usize], ev));
                    }
                });
            }
        };
        // Timed window: the acknowledged 90 % and its durability barrier.
        let t0 = Instant::now();
        send(t, &plan.bursts[..plan.barrier_at]);
        let f0 = Instant::now();
        t.span("flush", "ingest", |_| engine.flush());
        let flush_wait = f0.elapsed();
        let timed = t0.elapsed();
        let acked_events: usize = plan.acked.iter().map(|&a| a as usize).sum();
        let at_barrier = shard_lengths(&wal_dir);
        // The last 10 % stay un-barriered while the crash copy is cut.
        send(t, &plan.bursts[plan.barrier_at..]);
        let copied = crash_copy(&wal_dir, &crash_dir, &at_barrier, &mut rng);
        ops.check(copied.is_ok(), || format!("crash copy failed: {copied:?}"));
        let enqueue_ns = t.durations_since(mark, "ingest_burst").iter().sum::<f64>();

        engine.flush();
        ops.add(total as u64);
        ops.fail(refused, || format!("{refused} events refused by ingest()"));
        let errors = engine.take_ingest_errors();
        ops.check(errors == 0, || format!("{errors} ingest errors"));
        let stats = engine.stats();
        ops.check(stats.events_ingested == total as u64, || {
            format!("events_ingested {} != {total}", stats.events_ingested)
        });
        let apply_ns_mean = engine.apply_ns_mean();
        t.span("drop", "engine", |_| drop(engine));
        // The log is complete and synced now: its size is a pure
        // function of the inputs.
        let wal_bytes = dir_bytes(&wal_dir);

        if t.enabled() {
            let ms = t.span("wal_recover", "wal", |_| layers::wal_recover_ms(&crash_dir));
            out.recover_ms.push(ms);
        }
        let r0 = Instant::now();
        let recovered = t.span("build_recover", "wal", |_| {
            Engine::build(
                catalog,
                &EngineCfg {
                    wal_dir: Some(crash_dir.clone()),
                    ..EngineCfg::default()
                },
            )
        });
        let recovery = r0.elapsed();

        // Every acknowledged event survives, as a gap-free prefix.
        let rstats = recovered.stats();
        ops.check(rstats.wal_recovered_runs == ids.len() as u64, || {
            format!(
                "recovered {} of {} runs",
                rstats.wal_recovered_runs,
                ids.len()
            )
        });
        let handles: Vec<_> = ids.iter().map(|&id| recovered.handle(id)).collect();
        for (i, run) in fleet.runs.iter().enumerate() {
            let Some(h) = &handles[i] else {
                ops.check(false, || format!("run {i} lost in recovery"));
                continue;
            };
            let evs = run.events();
            let survived = h.published();
            ops.check(
                survived >= plan.acked[i] as usize && survived <= evs.len(),
                || {
                    format!(
                        "run {i}: {survived} events survived, {} were acknowledged",
                        plan.acked[i]
                    )
                },
            );
            ops.add(evs.len() as u64);
            let gaps = evs
                .iter()
                .enumerate()
                .filter(|(j, e)| h.reach(e.vertex, e.vertex).is_some() != (*j < survived))
                .count() as u64;
            ops.fail(gaps, || {
                format!("run {i}: survivors are not a gap-free prefix")
            });
        }
        for (p, expect) in &plan.checks {
            let got = handles[p.run as usize]
                .as_ref()
                .and_then(|h| h.reach(p.u, p.v));
            ops.check(got == Some(*expect), || {
                format!("recovered reach {p:?}: got {got:?}, BFS says {expect}")
            });
        }
        drop(handles);
        t.span("drop", "engine", |_| drop(recovered));

        out.eps.add(acked_events as f64, secs(timed));
        out.recovery_ms.add(secs(recovery) * 1e3, 1.0);
        out.flush_wait_ms.push(secs(flush_wait) * 1e3);
        if t.enabled() {
            out.enqueue_ns.push(enqueue_ns / total as f64);
        }
        out.wal_bytes_per_event = wal_bytes as f64 / total as f64;
        out.hot_bytes_per_label = stats.hot_resident_bytes as f64 / stats.labels_hot.max(1) as f64;
        out.apply_ns_mean = apply_ns_mean;
        if t.enabled() && out.wal_probe.is_none() {
            let dst = tmp.fresh("walprobe");
            out.wal_probe = t.span("wal_replay", "wal", |_| {
                layers::wal_replay(&wal_dir, &dst, total)
            });
            remove_dir(&dst);
        }
    });
    remove_dir(&wal_dir);
    remove_dir(&crash_dir);
}

/// One turn's slice: passes until `budget` is used.
pub fn slice(ctx: &mut Ctx, plan: &DurablePlan, budget: Duration, out: &mut DurableOut) {
    laps_within(budget, || {
        out.passes += 1;
        one_pass(ctx, plan, out.passes, out);
    });
}
