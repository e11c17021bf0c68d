//! The five workloads: what each one's inputs are, which station is its
//! own (native) and how `--seconds` is shared.
//!
//! The driver's contract has every run print every end-to-end metric
//! (`--trace 0`) or every per-layer metric (`--trace 1`), none of them
//! ever 0, and holds every workload × end-to-end metric cell to the
//! metric's bound. So every process runs all four stations: the native
//! one on the workload's own inputs with most of the time, the others
//! briefly on one small *companion fleet* that is the same shape in
//! every workload. Read native cells for what a workload is about.

use crate::durable::{self, DurablePlan};
use crate::engine_api::{Catalog, WAL_SYNC_LABEL};
use crate::harness::{remove_dir, Ctx, TmpRoot};
use crate::ingest::{self, Feed, IngestPlan, Variant};
use crate::inputs::{self, Fingerprint, Fleet};
use crate::layers;
use crate::live::{self, LivePlan};
use crate::manifest;
use crate::report::{rss_peak_mb, Ops, Report};
use crate::stats::{laps_within, median, quantile, secs, PerRound};
use crate::tiered::{self, TieredPlan, Tiers};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::time::{Duration, Instant};
use wf_graph::NameId;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Station {
    Ingest,
    Durable,
    Tiered,
    Live,
}

#[derive(Clone, Copy)]
enum FleetSpec {
    Zipf { runs: usize, events: usize },
    Uniform { runs: usize, size: usize },
}

/// Inputs of one workload at full scale: the native station's fleet
/// (the live station's is always uniform, sized below) and the live
/// station's pass length. Every other station gets [`COMPANION`].
struct Shape {
    native: Station,
    fleet: FleetSpec,
    feed: Feed,
    pairs_per_tier: usize,
    live_cycles: usize,
    live_run_size: usize,
}

/// The companion fleet. A turn gives each non-native station an eighth
/// of a second, and one pass over this fleet fits into about that
/// (measured from the traced runs of seed 11 on this box: ingest 49 ms,
/// durable with its recovery 124-140 ms, one freeze sweep 20 ms, a live
/// pass of 1200 cycles 84-88 ms), while 192 runs still fill three tiers
/// of 64 and give the scans a Zipf head to chew on.
const COMPANION: FleetSpec = FleetSpec::Zipf {
    runs: 192,
    events: 48_000,
};
const COMPANION_LIVE_CYCLES: usize = 1200;
const COMPANION_LIVE_RUN_SIZE: usize = 1200;

fn shape(workload: &str) -> Option<Shape> {
    let companion = Shape {
        native: Station::Ingest,
        fleet: COMPANION,
        feed: Feed::RoundRobin,
        pairs_per_tier: 4096,
        live_cycles: COMPANION_LIVE_CYCLES,
        live_run_size: COMPANION_LIVE_RUN_SIZE,
    };
    Some(match workload {
        // 32 768 vertices is the paper's largest run size.
        "solo-ingest" => Shape {
            fleet: FleetSpec::Uniform {
                runs: 4,
                size: 32_768,
            },
            feed: Feed::OneRunAtATime,
            ..companion
        },
        "fleet-ingest" => Shape {
            fleet: FleetSpec::Zipf {
                runs: 256,
                events: 260_000,
            },
            ..companion
        },
        "durable-ingest" => Shape {
            native: Station::Durable,
            fleet: FleetSpec::Zipf {
                runs: 16,
                events: 100_000,
            },
            ..companion
        },
        "tiered-read" => Shape {
            native: Station::Tiered,
            fleet: FleetSpec::Zipf {
                runs: 1024,
                events: 300_000,
            },
            pairs_per_tier: 16_384,
            ..companion
        },
        "mixed-live" => Shape {
            native: Station::Live,
            live_cycles: 2500,
            live_run_size: 2000,
            ..companion
        },
        _ => return None,
    })
}

/// `--smoke` scales every size by 1/20, with floors that keep each
/// station meaningful (three tiers, sixteen live runs).
fn scaled(n: usize, smoke: bool, floor: usize) -> usize {
    if smoke {
        (n / 20).max(floor)
    } else {
        n
    }
}

fn make_fleet(
    spec: FleetSpec,
    specs: &[&wf_spec::Specification],
    rng: &mut StdRng,
    smoke: bool,
) -> Fleet {
    match spec {
        FleetSpec::Zipf { runs, events } => inputs::zipf_fleet(
            specs,
            rng,
            scaled(runs, smoke, 12),
            scaled(events, smoke, 2400),
        ),
        FleetSpec::Uniform { runs, size } => {
            inputs::uniform_fleet(specs, rng, runs, scaled(size, smoke, 400))
        }
    }
}

/// Everything a process prepares before measuring; building it is what
/// `setup_s` times.
pub struct Prepared {
    pub catalog: Catalog,
    pub native: Station,
    pub ingest: IngestPlan,
    pub durable: DurablePlan,
    pub tiered: TieredPlan,
    pub tiers: Option<Tiers>,
    pub live: LivePlan,
    pub fingerprint: u64,
}

impl Prepared {
    fn discard(mut self) {
        if let Some(t) = self.tiers.take() {
            let dir = t.dir.clone();
            drop(t);
            remove_dir(&dir);
        }
    }
}

/// Generate the inputs, plans and expected answers of `workload` from
/// `seed` (no engine involved yet).
pub fn plan(workload: &str, seed: u64, smoke: bool) -> Prepared {
    let shape = shape(workload).expect("workload validated by the caller");
    let catalog = Catalog::build();
    let mut rng = StdRng::seed_from_u64(seed);
    let specs = catalog.specs();
    let companion = Rc::new(make_fleet(COMPANION, &specs, &mut rng, smoke));
    // The live station's fleet is drawn below; a live-native workload
    // has no other fleet of its own.
    let native = (shape.native != Station::Live)
        .then(|| Rc::new(make_fleet(shape.fleet, &specs, &mut rng, smoke)));
    let fleet_for = |station: Station| match &native {
        Some(own) if shape.native == station => Rc::clone(own),
        _ => Rc::clone(&companion),
    };
    let ingest_fleet = fleet_for(Station::Ingest);
    let durable_fleet = fleet_for(Station::Durable);
    let tiered_fleet = fleet_for(Station::Tiered);
    let live_cycles = scaled(shape.live_cycles, smoke, 64);
    let live_run_size = scaled(shape.live_run_size, smoke, 100);
    let live_fleet = inputs::uniform_fleet(
        &specs,
        &mut rng,
        LivePlan::runs_needed(live_cycles, live_run_size),
        live_run_size,
    );

    let all: Vec<usize> = (0..ingest_fleet.runs.len()).collect();
    let check_pairs = inputs::draw_pairs(&ingest_fleet, &mut rng, &all, 256);
    let answers = inputs::oracle_sample(&ingest_fleet, &check_pairs, &mut rng, 1);
    let absent = NameId(
        ingest_fleet
            .runs
            .iter()
            .flat_map(|r| r.events())
            .map(|e| e.name.0)
            .max()
            .unwrap_or(0)
            + 1,
    );
    let ingest = IngestPlan {
        fleet: ingest_fleet,
        feed: shape.feed,
        checks: answers
            .into_iter()
            .map(|(i, a)| (check_pairs[i as usize], a))
            .collect(),
        absent,
    };
    let durable = DurablePlan::new(durable_fleet, &mut rng, 256);
    let tiered = TieredPlan::new(
        tiered_fleet,
        &mut rng,
        scaled(shape.pairs_per_tier, smoke, 1024),
    );
    let live = LivePlan::new(live_fleet, &mut rng, live_cycles);

    let mut fp = Fingerprint::default();
    fp.fleet(&ingest.fleet);
    fp.fleet(&durable.fleet);
    fp.fleet(&tiered.fleet);
    for p in &tiered.pairs {
        fp.pairs(p);
    }
    live.fingerprint(&mut fp);
    Prepared {
        catalog,
        native: shape.native,
        ingest,
        durable,
        tiered,
        tiers: None,
        live,
        fingerprint: fp.value(),
    }
}

/// One full set-up: inputs, then the tiers the read phases query.
fn prepare(
    workload: &str,
    seed: u64,
    smoke: bool,
    tracer: &mut Tracer,
    ops: &mut Ops,
    tmp: &TmpRoot,
) -> Prepared {
    let mut p = plan(workload, seed, smoke);
    p.tiers = Some(tiered::build_tiers(
        &mut Ctx {
            catalog: &p.catalog,
            tracer,
            ops,
            tmp,
        },
        &p.tiered,
    ));
    p
}

pub struct RunArgs<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// The pinned fingerprint for this (workload, seed), if any.
    pub pinned: Option<u64>,
}

pub struct RunOut {
    pub report: Report,
    pub ops: Ops,
    pub tracer: Tracer,
}

/// Timed rounds per run, after one untimed warm-up round (first passes
/// are 10-40 % slow). Every timing metric has one sample per round —
/// the work its station did in the round over the time that took — and
/// reports the median of the rounds.
const ROUNDS: usize = 6;

/// Turns per round. In a turn every station gets one slice, so a
/// round's sample of a metric is gathered from `TURNS` places spread
/// over the round, not from one block: a slow spell of a shared box
/// (half a second to a few seconds here) then weighs on every metric
/// of the round a little instead of on one metric entirely.
const TURNS: usize = 3;

/// Time a timed round spends setting up again (at least one set-up).
const SETUP_SLICE: Duration = Duration::from_millis(800);

/// Share of a turn a station's slice gets: 55 % for the native one, the
/// rest split evenly.
fn share(native: Station, station: Station, stations: usize) -> f64 {
    if native == station {
        0.55
    } else {
        0.45 / (stations - 1) as f64
    }
}

#[derive(Default)]
struct Outs {
    ingest: ingest::IngestOut,
    durable: durable::DurableOut,
    tiered: tiered::TieredOut,
    live: live::LiveOut,
}

impl Outs {
    fn end_round(&mut self, keep: bool) {
        self.ingest.end_round(keep);
        self.durable.end_round(keep);
        self.tiered.end_round(keep);
        self.live.end_round(keep);
    }
}

pub fn run(args: &RunArgs, tmp: &TmpRoot) -> Result<RunOut, String> {
    let mut tracer = Tracer::new(args.trace);
    let mut ops = Ops::default();
    let mut report = Report::default();

    let mut p = prepare(
        args.workload,
        args.seed,
        args.smoke,
        &mut tracer,
        &mut ops,
        tmp,
    );
    let fingerprint = p.fingerprint;
    if let Some(pinned) = args.pinned.filter(|pin| *pin != fingerprint) {
        p.discard();
        return Err(format!(
            "inputs changed — numbers are not comparable (fingerprint {fingerprint:#018x}, pinned {pinned:#018x})"
        ));
    }
    eprintln!(
        "wfbench: {} seed {} inputs {:#018x}: ingest {} runs/{} events, durable {} runs/{} events ({WAL_SYNC_LABEL}), \
         tiered {} runs/{} events, live {} cycles over {} runs",
        args.workload,
        args.seed,
        fingerprint,
        p.ingest.fleet.runs.len(),
        p.ingest.fleet.total_events(),
        p.durable.fleet.runs.len(),
        p.durable.fleet.total_events(),
        p.tiered.fleet.runs.len(),
        p.tiered.fleet.total_events(),
        p.live.cycles(),
        p.live.fleet.runs.len(),
    );

    let tiers = p.tiers.take().expect("built in set-up");
    let persist_us = tiers.persist_us.clone();
    let compact_ms = tiers.compact_ms;
    let native = p.native;
    // The durable station measures ingest itself; a separate volatile
    // ingest station would only repeat it on other inputs.
    let stations = if native == Station::Durable { 3 } else { 4 };
    let mut ctx = Ctx {
        catalog: &p.catalog,
        tracer: &mut tracer,
        ops: &mut ops,
        tmp,
    };

    // Bare-labeler pass first (traced runs): the tiered station
    // cross-checks the engine's label bits against it.
    let probes = args.trace.then(|| {
        let (insert_ns, ingest_labeled) = layers::drl_insert(ctx.catalog, &p.ingest.fleet, 150_000);
        let (_, tiered_labeled) = layers::drl_insert(ctx.catalog, &p.tiered.fleet, 150_000);
        (insert_ns, ingest_labeled, tiered_labeled)
    });
    let label_bits: Vec<_> = probes
        .iter()
        .flat_map(|(_, _, labeled)| labeled)
        .flat_map(|l| {
            let step = (l.labels.len() / 4).max(1);
            l.labels
                .iter()
                .zip(&l.vertices)
                .step_by(step)
                .map(|(lab, (v, _))| (l.run, *v, lab.bit_len(l.skl_bits)))
        })
        .take(512)
        .collect();

    let rounds = if args.smoke { 2 } else { ROUNDS };
    // A traced run spends 70 % of its time in rounds (the native slice
    // runs twice per turn, spans off and on) and the rest on probes.
    let in_rounds = args.seconds * if args.trace { 0.7 } else { 1.0 };
    let turn = Duration::from_secs_f64(in_rounds / (rounds * TURNS) as f64);
    let slice = |st| turn.mul_f64(share(native, st, stations) * if args.trace { 0.7 } else { 1.0 });
    let mut outs = Outs::default();
    let mut base = Outs::default();
    let mut setup = PerRound::default();
    let mut tier = tiered::TieredStation::open(&mut ctx, &p.tiered, tiers, &label_bits);
    for r in 0..=rounds {
        // Round 0 warms up (one turn touches every code path) and the
        // set-up above was its own warm-up.
        let keep = r > 0;
        if keep {
            // Set up again at the head of every timed round (for at
            // least `SETUP_SLICE`), so that `setup_s` is sampled across
            // the run like every other timing: a round's sample is the
            // time its set-ups took over their number.
            let budget = if args.smoke {
                Duration::ZERO
            } else {
                SETUP_SLICE
            };
            laps_within(budget, || {
                let t0 = Instant::now();
                let again = prepare(
                    args.workload,
                    args.seed,
                    args.smoke,
                    ctx.tracer,
                    ctx.ops,
                    tmp,
                );
                setup.add(secs(t0.elapsed()), 1.0);
                again.discard();
            });
            setup.end_round();
        }
        for t in 0..if keep { TURNS } else { 1 } {
            for st in [
                Station::Ingest,
                Station::Durable,
                Station::Tiered,
                Station::Live,
            ] {
                if st == Station::Ingest && native == Station::Durable {
                    continue;
                }
                // Traced runs: the native slice also runs with spans
                // off, alternating which goes first, for
                // `trace.overhead_ratio`.
                let untraced_too = args.trace && st == native;
                let order: &[bool] = match (untraced_too, (r * TURNS + t).is_multiple_of(2)) {
                    (false, _) => &[true],
                    (true, true) => &[false, true],
                    (true, false) => &[true, false],
                };
                for &spans_on in order {
                    ctx.tracer.set_enabled(args.trace && spans_on);
                    let o = if spans_on { &mut outs } else { &mut base };
                    match st {
                        Station::Ingest => {
                            ingest::slice(&mut ctx, &p.ingest, slice(st), &mut o.ingest)
                        }
                        Station::Durable => {
                            durable::slice(&mut ctx, &p.durable, slice(st), &mut o.durable)
                        }
                        Station::Tiered => tier.slice(&mut ctx, slice(st), &mut o.tiered),
                        Station::Live => live::slice(&mut ctx, &p.live, slice(st), &mut o.live),
                    }
                }
                ctx.tracer.set_enabled(args.trace);
            }
        }
        outs.end_round(keep);
        base.end_round(keep);
    }
    report.samples("setup_s", &setup.rounds);
    let tier_probes = tier.close(&mut ctx);
    eprintln!(
        "wfbench: cold phase: {} persisted bytes against a resident budget of {} bytes",
        tier_probes.cold_sizes.0, tier_probes.cold_sizes.1
    );
    let (ing, dur, tier, liv) = (&outs.ingest, &outs.durable, &outs.tiered, &outs.live);

    let (ingest_eps, hot_bytes, apply_ns_mean, enqueue, flush_wait) = if native == Station::Durable
    {
        (
            &dur.eps,
            dur.hot_bytes_per_label,
            dur.apply_ns_mean,
            &dur.enqueue_ns,
            &dur.flush_wait_ms,
        )
    } else {
        (
            &ing.eps,
            ing.hot_bytes_per_label,
            ing.apply_ns_mean,
            &ing.enqueue_ns,
            &ing.flush_wait_ms,
        )
    };
    report.samples("ingest_eps", &ingest_eps.rounds);
    report.value("hot_bytes_per_label", hot_bytes);
    report.samples("recovery_ms", &dur.recovery_ms.rounds);
    report.value("wal_bytes_per_event", dur.wal_bytes_per_event);
    report.samples("reach_hot_qps", &tier.reach_qps[0].rounds);
    report.samples("reach_frozen_qps", &tier.reach_qps[1].rounds);
    report.samples("reach_persisted_qps", &tier.reach_qps[2].rounds);
    report.samples("scan_warm_rps", &tier.scan_warm_rps.rounds);
    report.samples("scan_cold_rps", &tier.scan_cold_rps.rounds);
    report.samples("freeze_runs_per_s", &tier.freeze_runs_per_s.rounds);
    report.value("frozen_bytes_per_label", tier.frozen_bytes_per_label);
    report.samples("cycle_ops_per_s", &liv.cycle_ops_per_s.rounds);

    if let Some((insert_ns, ingest_labeled, tiered_labeled)) = probes {
        let headline = |o: &Outs| {
            match native {
                Station::Ingest => &o.ingest.eps,
                Station::Durable => &o.durable.eps,
                Station::Tiered => &o.tiered.reach_qps[0],
                Station::Live => &o.live.cycle_ops_per_s,
            }
            .rounds
            .median()
        };
        report.value(
            "trace.overhead_ratio",
            headline(&outs) / headline(&base).max(f64::MIN_POSITIVE),
        );

        // drl / index / skeleton / obs probes.
        let (publish_ns, get_ns) = layers::index_publish_get(&ingest_labeled);
        let (reaches_ns, _) = layers::drl_reaches(ctx.catalog, &tiered_labeled, &p.tiered.pairs[0]);
        let codec = layers::drl_codec(&tiered_labeled);
        report.value("drl.insert_ns", insert_ns);
        report.value("drl.reaches_ns", reaches_ns);
        report.value("drl.decode_ns", codec.decode_ns);
        report.value("drl.encode_ns", codec.encode_ns);
        report.value("drl.label_bits_avg", codec.bits_avg);
        report.value("drl.label_bits_max", codec.bits_max);
        report.value("drl.label_entries_avg", codec.entries_avg);
        report.value("drl.encoded_bytes_avg", codec.encoded_bytes_avg);
        report.value("skeleton.build_ms", layers::skeleton_build_ms());
        report.value("index.publish_ns", publish_ns);
        report.value("index.get_ns", get_ns);
        report.value("obs.hist_record_ns", layers::hist_record_ns());
        report.value("obs.engine_apply_ns_mean", apply_ns_mean);
        report.samples("ingest.enqueue_ns", enqueue);
        report.samples("ingest.flush_wait_ms", flush_wait);
        // Serial path on solo-ingest, so the subtraction is exact there.
        report.value(
            "ingest.unattributed_ns",
            1e9 / ingest_eps.rounds.median().max(f64::MIN_POSITIVE) - (insert_ns + publish_ns),
        );

        if let Some(w) = &dur.wal_probe {
            report.value("wal.append_ns", w.append_ns);
            report.value("wal.barrier_us", w.barrier_us);
            report.value("wal.fsyncs", w.fsyncs);
            report.value("wal.bytes_per_event", w.bytes_per_event);
        }
        report.samples("wal.recover_ms", &dur.recover_ms);

        report.samples("freeze.run_us_p50", &tier.freeze_run_us);
        report.samples("snapshot.persist_run_us_p50", &persist_us);
        report.value("snapshot.compact_ms", compact_ms);
        report.value(
            "snapshot.disk_bytes_per_label",
            tier_probes.disk_bytes_per_label,
        );
        report.samples("store.reheat_run_us_p50", &tier_probes.reheat_run_us);
        report.value("bufmgr.reopen_ms", tier_probes.reopen_ms);
        report.samples("bufmgr.first_reach_us_p50", &tier_probes.first_reach_us);
        report.value("bufmgr.hit_ratio", tier_probes.cold_hit_ratio);
        report.value("bufmgr.segment_loads", tier_probes.cold_loads);
        report.value("bufmgr.segment_sheds", tier_probes.cold_sheds);
        report.value("bufmgr.warm_segment_loads", tier_probes.warm_loads);
        report.value("bufmgr.warm_segment_sheds", tier_probes.warm_sheds);
        report.samples("query.scan_us_p50.reaching", &tier_probes.scan_us[0]);
        report.samples("query.scan_us_p50.linking", &tier_probes.scan_us[1]);
        report.samples("query.scan_us_p50.named", &tier_probes.scan_us[2]);
        report.value("query.labels_per_hit", tier_probes.labels_per_hit);

        report.value("sub.delta_lag_us_p50", median(&liv.delta_lag_us));
        report.value("sub.deltas_delivered", liv.deltas_delivered);
        report.value("sub.deltas_dropped", liv.deltas_dropped);
        report.value("mixed.stale_read_ratio", liv.stale_read_ratio);
        report.value("visible_lag_us_p50", median(&liv.visible_lag_us));
        report.value(
            "mixed.visible_lag_us_p99",
            quantile(&liv.visible_lag_us, 0.99),
        );
        report.value("mixed.cycle_us_p99", quantile(&liv.cycle_us, 0.99));
        report.value("mixed.bg_spills", liv.bg_spills);
        report.value("mixed.bg_compactions", liv.bg_compactions);

        // ABBA trials, spans off: both sides must run identical code.
        ctx.tracer.set_enabled(false);
        let trials = if args.smoke { 2 } else { 6 };
        let quiet = Variant::default();
        let (with_subs, without) = ingest::abba(
            &mut ctx,
            &p.ingest,
            Variant {
                idle_subs: 16,
                ..quiet
            },
            quiet,
            trials,
        );
        report.value("sub.notify_overhead_ns", 1e9 / with_subs - 1e9 / without);
        let (tel_on, tel_off) = ingest::abba(
            &mut ctx,
            &p.ingest,
            Variant {
                telemetry: Some(true),
                ..quiet
            },
            Variant {
                telemetry: Some(false),
                ..quiet
            },
            trials,
        );
        report.value("obs.telemetry_overhead_ratio", tel_on / tel_off);
        ctx.tracer.set_enabled(true);

        let self_ns = ctx.tracer.self_time_by_layer();
        let wall = ctx.tracer.root_wall_ns().max(1) as f64;
        let total: u64 = self_ns.values().sum();
        eprintln!(
            "wfbench: traced wall {:.1} ms, per-layer self times sum to {:.1} ms",
            wall / 1e6,
            total as f64 / 1e6
        );
        for m in &manifest::get().per_layer {
            if let Some(layer) = m.name.strip_prefix("trace.self_ms.") {
                report.value(
                    &m.name,
                    self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6,
                );
            }
        }
        let harness = self_ns.get(crate::trace::HARNESS).copied().unwrap_or(0) as f64;
        report.value("trace.coverage_ratio", 1.0 - harness / wall);
        report.value("trace.spans", ctx.tracer.span_count() as f64);
    }
    report.value("rss_peak_mb", rss_peak_mb());
    Ok(RunOut {
        report,
        ops,
        tracer,
    })
}
