//! Criterion bench for `wf-service`'s Engine API v2: ingest throughput
//! (events/s) through both the blocking batched path and the pipelined
//! fire-and-forget + flush path, and lock-free query latency — at
//! 1 / 16 / 256 concurrent runs with **Zipf-skewed run sizes** (rank-r
//! run gets ~1/r of the events, the shape of real workflow fleets where
//! a few pipelines dominate) — plus a **4096-run tiering scenario**:
//! ingest → complete → freeze (encoded arenas) → spill (disk segments)
//! → query across all three tiers, emitting the per-tier footprint JSON
//! line next to the perf lines.
//!
//! Each JSON line printed by the harness carries `mean_ns` plus
//! `elements_per_sec` (from the `Throughput::Elements` annotation); CI
//! harvests the lines with `grep '^{'` into an uploaded artifact so the
//! perf trajectory is comparable across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wf_graph::VertexId;
use wf_run::{ExecEvent, Execution, RunGenerator};
use wf_service::{
    Delta, RunOp, ServiceEvent, SpecContext, SpecId, SubPredicate, Subscription, Tier, WfEngine,
};

/// Fleet sizes the groups sweep. 256 runs is the cross-PR trajectory
/// point the ROADMAP asks for.
const FLEETS: [usize; 3] = [1, 16, 256];

/// Fleet size of the tiering scenario (the ROADMAP's 4096-run point).
const TIER_FLEET: usize = 4096;

/// Preprocessed specs, shared across every engine the bench builds (the
/// `Arc` catalog is exactly what makes this cheap in v2).
fn catalog() -> Vec<Arc<SpecContext>> {
    vec![
        Arc::new(SpecContext::from_spec(wf_spec::corpus::running_example())),
        Arc::new(SpecContext::from_spec(wf_spec::corpus::bioaid())),
    ]
}

fn engine_over(catalog: &[Arc<SpecContext>]) -> WfEngine {
    let mut b = WfEngine::builder().shards(32).queue_capacity(1024);
    for ctx in catalog {
        b = b.context(Arc::clone(ctx));
    }
    b.build()
}

/// Zipf-ish size for the rank-`i` run of `runs`, targeting ~`total`
/// events in aggregate: weight 1/(i+1), normalized by the harmonic sum,
/// floored so tail runs still exercise real labeling.
fn skewed_size(i: usize, runs: usize, total: usize) -> usize {
    let h: f64 = (1..=runs).map(|r| 1.0 / r as f64).sum();
    ((total as f64 / h) / (i + 1) as f64).round().max(12.0) as usize
}

/// Per-run event streams for `runs` concurrent runs, ~`total` events in
/// aggregate, sizes skewed by rank.
fn streams(
    catalog: &[Arc<SpecContext>],
    runs: usize,
    total: usize,
    seed: u64,
) -> Vec<Vec<ExecEvent>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..runs)
        .map(|i| {
            let spec = &catalog[i % catalog.len()].spec;
            let gen = RunGenerator::new(spec)
                .target_size(skewed_size(i, runs, total))
                .generate_run(&mut rng);
            Execution::random(&gen.graph, &gen.origin, &mut rng)
                .events()
                .to_vec()
        })
        .collect()
}

/// One full batched ingest: open `streams.len()` runs, push every event
/// through blocking round-robin `submit_batch` (the pool fans distinct
/// runs across workers), complete all runs. Returns the event count.
fn ingest_batched(catalog: &[Arc<SpecContext>], streams: &[Vec<ExecEvent>]) -> usize {
    let engine = engine_over(catalog);
    let runs: Vec<_> = (0..streams.len())
        .map(|i| engine.open_run(SpecId(i % catalog.len())).expect("spec"))
        .collect();
    let max_len = streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut applied = 0;
    // Interleave rounds of up to 256 events per run into one batch, as a
    // gateway buffering a fleet of engines would.
    for start in (0..max_len).step_by(256) {
        let mut batch = Vec::new();
        for (i, stream) in streams.iter().enumerate() {
            let end = (start + 256).min(stream.len());
            for ev in stream.get(start..end).unwrap_or(&[]) {
                batch.push(ServiceEvent {
                    run: runs[i],
                    op: RunOp::Insert(ev.clone()),
                });
            }
        }
        let outcome = engine.submit_batch(&batch);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        applied += outcome.applied;
    }
    for run in runs {
        engine.complete_run(run).expect("live");
    }
    applied
}

/// One full pipelined ingest: fire-and-forget every event into the
/// bounded worker queues, then one `flush()` watermark barrier. This is
/// v2's native path — no per-event or per-batch acks at all.
fn ingest_pipelined(catalog: &[Arc<SpecContext>], streams: &[Vec<ExecEvent>]) -> usize {
    let engine = engine_over(catalog);
    let runs: Vec<_> = (0..streams.len())
        .map(|i| engine.open_run(SpecId(i % catalog.len())).expect("spec"))
        .collect();
    let max_len = streams.iter().map(Vec::len).max().unwrap_or(0);
    // Same round-robin interleave as the batched path, minus the acks.
    for start in (0..max_len).step_by(256) {
        for (i, stream) in streams.iter().enumerate() {
            let end = (start + 256).min(stream.len());
            for ev in stream.get(start..end).unwrap_or(&[]) {
                engine
                    .ingest(ServiceEvent {
                        run: runs[i],
                        op: RunOp::Insert(ev.clone()),
                    })
                    .expect("live run");
            }
        }
    }
    engine.flush();
    let applied = engine.stats().events_ingested as usize;
    assert!(engine.take_ingest_errors().is_empty());
    applied
}

fn service_ingest(c: &mut Criterion) {
    let catalog = catalog();
    let mut group = c.benchmark_group("service_ingest");
    group.sample_size(10);
    for runs in FLEETS {
        let streams = streams(&catalog, runs, 8000, 42);
        let total: usize = streams.iter().map(Vec::len).sum();
        group.throughput(Throughput::Elements(total as u64));
        group.bench_with_input(BenchmarkId::new("runs", runs), &streams, |b, streams| {
            b.iter(|| {
                let applied = ingest_batched(&catalog, streams);
                assert_eq!(applied, total);
                applied
            })
        });
        group.bench_with_input(
            BenchmarkId::new("pipelined_runs", runs),
            &streams,
            |b, streams| {
                b.iter(|| {
                    let applied = ingest_pipelined(&catalog, streams);
                    assert_eq!(applied, total);
                    applied
                })
            },
        );
    }
    group.finish();
}

fn service_query(c: &mut Criterion) {
    let catalog = catalog();
    let mut group = c.benchmark_group("service_query");
    group.sample_size(20);
    for runs in FLEETS {
        // Ingest once; query a long-lived engine.
        let streams = streams(&catalog, runs, 8000, 43);
        let engine = engine_over(&catalog);
        let run_ids: Vec<_> = (0..runs)
            .map(|i| engine.open_run(SpecId(i % catalog.len())).expect("spec"))
            .collect();
        for (i, stream) in streams.iter().enumerate() {
            let h = engine.handle(run_ids[i]).expect("registered");
            for ev in stream {
                h.submit(ev).expect("healthy stream");
            }
        }
        // Pre-draw query pairs across all runs; measure pure lock-free
        // query latency through cached (cloneable) handles.
        let mut rng = StdRng::seed_from_u64(7);
        let pairs: Vec<(usize, VertexId, VertexId)> = (0..4096)
            .map(|_| {
                let i = rng.gen_range(0..runs);
                let s = &streams[i];
                (
                    i,
                    s[rng.gen_range(0..s.len())].vertex,
                    s[rng.gen_range(0..s.len())].vertex,
                )
            })
            .collect();
        let handles: Vec<_> = run_ids
            .iter()
            .map(|&r| engine.handle(r).expect("registered"))
            .collect();
        group.throughput(Throughput::Elements(pairs.len() as u64));
        group.bench_with_input(BenchmarkId::new("runs", runs), &pairs, |b, pairs| {
            b.iter(|| {
                pairs
                    .iter()
                    .filter(|(i, u, v)| handles[*i].reach(*u, *v) == Some(true))
                    .count()
            })
        });
        // Cross-run surface at fleet scale: the flagship "reachable from
        // source by name" scan over every completed run.
        for run in &run_ids {
            engine.complete_run(*run).expect("live");
        }
        let probe = streams[0][streams[0].len() / 2].name;
        group.throughput(Throughput::Elements(runs as u64));
        group.bench_with_input(
            BenchmarkId::new("cross_run_source_scan", runs),
            &probe,
            |b, probe| {
                b.iter(|| {
                    engine
                        .query()
                        .completed()
                        .runs_reaching_named_from_source(*probe)
                        .len()
                })
            },
        );
    }
    group.finish();
}

/// The 4096-run tiering scenario: ingest the fleet, complete it, then
/// (a) time the full freeze sweep, and (b) query a long-lived engine
/// whose fleet is spread across hot / frozen / persisted tiers —
/// per-run `reach` through tier-pinned handles, the flagship cross-run
/// scan spanning all tiers, and reach on a re-heated run. The persisted
/// third is **compacted** into packed segment files first (asserting
/// the ≥10× file-count cut); the compaction report and the engine's
/// per-tier footprint JSON are printed alongside the perf lines for the
/// CI artifacts.
fn service_tiering(c: &mut Criterion) {
    let catalog = catalog();
    let mut group = c.benchmark_group("service_tiering");
    group.sample_size(5);
    let streams = streams(&catalog, TIER_FLEET, 60_000, 44);
    let total: usize = streams.iter().map(Vec::len).sum();

    // (a) Lifecycle throughput: pipelined ingest, complete, freeze all.
    group.throughput(Throughput::Elements(total as u64));
    group.bench_with_input(
        BenchmarkId::new("ingest_freeze", TIER_FLEET),
        &streams,
        |b, streams| {
            b.iter(|| {
                let engine = engine_over(&catalog);
                let runs: Vec<_> = (0..streams.len())
                    .map(|i| engine.open_run(SpecId(i % catalog.len())).expect("spec"))
                    .collect();
                for (i, stream) in streams.iter().enumerate() {
                    for ev in stream {
                        engine
                            .ingest(ServiceEvent {
                                run: runs[i],
                                op: RunOp::Insert(ev.clone()),
                            })
                            .expect("live run");
                    }
                }
                engine.flush();
                for &run in &runs {
                    engine.complete_run(run).expect("live");
                }
                for &run in &runs {
                    engine.freeze_run(run).expect("completed");
                }
                let s = engine.stats();
                assert_eq!(s.runs_frozen as usize, streams.len());
                s.frozen_bytes
            })
        },
    );

    // (b) One long-lived engine, fleet spread across the three tiers:
    // one third stays hot, one third frozen, one third spilled to disk.
    let spill = std::env::temp_dir().join(format!("wf-bench-tier-{}", std::process::id()));
    let mut builder = WfEngine::builder()
        .shards(32)
        .queue_capacity(1024)
        .spill_dir(&spill);
    for ctx in &catalog {
        builder = builder.context(Arc::clone(ctx));
    }
    let engine = builder.build();
    let run_ids: Vec<_> = (0..TIER_FLEET)
        .map(|i| engine.open_run(SpecId(i % catalog.len())).expect("spec"))
        .collect();
    for (i, stream) in streams.iter().enumerate() {
        let h = engine.handle(run_ids[i]).expect("registered");
        for ev in stream {
            h.submit(ev).expect("healthy stream");
        }
        h.complete().expect("live");
    }
    for (i, &run) in run_ids.iter().enumerate() {
        match i % 3 {
            0 => {} // stays hot
            1 => engine.freeze_run(run).expect("completed"),
            _ => engine.persist_run(run).expect("spill dir configured"),
        }
    }
    // Compaction: ~1365 loose per-run segment files pack into a couple
    // of multi-run files. The acceptance bar for the persisted tier at
    // fleet scale is a ≥10× file-count cut; the JSON line is what CI
    // uploads as the compaction artifact.
    let report = engine.compact().expect("spill dir configured");
    println!("{}", report.json());
    assert!(
        report.files_after * 10 <= report.files_before,
        "compaction must cut segment file count ≥10×: {} → {}",
        report.files_before,
        report.files_after
    );
    // The per-tier footprint line CI uploads next to the perf lines
    // (post-compaction: segment_files is the packed count).
    println!("{}", engine.stats().tier_footprint_json());

    let mut rng = StdRng::seed_from_u64(9);
    let pairs: Vec<(usize, VertexId, VertexId)> = (0..4096)
        .map(|_| {
            let i = rng.gen_range(0..TIER_FLEET);
            let s = &streams[i];
            (
                i,
                s[rng.gen_range(0..s.len())].vertex,
                s[rng.gen_range(0..s.len())].vertex,
            )
        })
        .collect();
    let handles: Vec<_> = run_ids
        .iter()
        .map(|&r| engine.handle(r).expect("registered"))
        .collect();
    assert!(handles.iter().any(|h| h.tier() == Tier::Hot));
    assert!(handles.iter().any(|h| h.tier() == Tier::Frozen));
    assert!(handles.iter().any(|h| h.tier() == Tier::Persisted));
    group.throughput(Throughput::Elements(pairs.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("reach_across_tiers", TIER_FLEET),
        &pairs,
        |b, pairs| {
            b.iter(|| {
                pairs
                    .iter()
                    .filter(|(i, u, v)| handles[*i].reach(*u, *v) == Some(true))
                    .count()
            })
        },
    );
    let probe = streams[0][streams[0].len() / 2].name;
    group.throughput(Throughput::Elements(TIER_FLEET as u64));
    group.bench_with_input(
        BenchmarkId::new("cross_run_scan_across_tiers", TIER_FLEET),
        &probe,
        |b, probe| {
            b.iter(|| {
                engine
                    .query()
                    .completed()
                    .runs_reaching_named_from_source(*probe)
                    .len()
            })
        },
    );
    // Re-heat: promote one persisted run back to the resident tier and
    // measure reach on it — the memory-speed end of the re-heat story
    // (contrast with reach_across_tiers, where persisted runs decode
    // through the lazily loaded segment path).
    let reheated_idx = 2; // index 2 is persisted (i % 3 == 2 above)
    engine
        .reheat_run(run_ids[reheated_idx])
        .expect("persisted run re-heats");
    let reheated = engine.handle(run_ids[reheated_idx]).expect("registered");
    assert_eq!(reheated.tier(), Tier::Frozen);
    let s = &streams[reheated_idx];
    let hot_pairs: Vec<(VertexId, VertexId)> = (0..1024)
        .map(|_| {
            (
                s[rng.gen_range(0..s.len())].vertex,
                s[rng.gen_range(0..s.len())].vertex,
            )
        })
        .collect();
    group.throughput(Throughput::Elements(hot_pairs.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("reach_reheated", TIER_FLEET),
        &hot_pairs,
        |b, pairs| {
            b.iter(|| {
                pairs
                    .iter()
                    .filter(|(u, v)| reheated.reach(*u, *v) == Some(true))
                    .count()
            })
        },
    );
    group.finish();

    // Latency percentiles out of the engine's own histograms — the
    // per-operation view the mean-based bench lines cannot give. Keyed
    // `latency/<family>` in the trajectory artifact; p99 on the reach
    // and ingest-apply families is soft-gated by trajectory_delta.py.
    let metrics = engine.metrics();
    for name in metrics.histogram_names() {
        let h = metrics.histogram(&name).expect("registered family");
        if h.count() == 0 {
            continue;
        }
        println!(
            "{{\"metric\":\"latency\",\"name\":\"{name}\",\"count\":{},\
             \"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"mean_ns\":{:.1}}}",
            h.count(),
            h.p50(),
            h.p90(),
            h.p99(),
            h.mean(),
        );
    }
    // Optional full export for the CI metrics artifact: Prometheus
    // exposition, the JSON snapshot, and the trace ring as JSON lines.
    if let Some(dir) = std::env::var_os("WF_OBS_DUMP_DIR") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create WF_OBS_DUMP_DIR");
        std::fs::write(dir.join("metrics.prom"), metrics.render_prometheus())
            .expect("write metrics.prom");
        std::fs::write(dir.join("metrics.json"), metrics.render_json())
            .expect("write metrics.json");
        let trace: String = engine
            .trace_dump()
            .iter()
            .map(|e| e.json() + "\n")
            .collect();
        std::fs::write(dir.join("trace.jsonl"), trace).expect("write trace.jsonl");
    }

    drop(handles);
    drop(engine);
    let _ = std::fs::remove_dir_all(&spill);
}

/// One telemetry-overhead trial: synchronous-handle ingest of the whole
/// fleet, then a burst of reach probes, on an engine built with the
/// full observability stack (telemetry spans + a 5ms stall watchdog) on
/// or off. Returns (ingest events/s, reach probes/s).
fn obs_trial(
    catalog: &[Arc<SpecContext>],
    streams: &[Vec<ExecEvent>],
    pairs: &[(usize, VertexId, VertexId)],
    instrumented: bool,
) -> (f64, f64) {
    let mut b = WfEngine::builder()
        .shards(32)
        .queue_capacity(1024)
        .telemetry(instrumented);
    if instrumented {
        b = b.watchdog(std::time::Duration::from_millis(5));
    }
    for ctx in catalog {
        b = b.context(Arc::clone(ctx));
    }
    let engine = b.build();
    let handles: Vec<_> = (0..streams.len())
        .map(|i| {
            let run = engine.open_run(SpecId(i % catalog.len())).expect("spec");
            engine.handle(run).expect("registered")
        })
        .collect();
    let total: usize = streams.iter().map(Vec::len).sum();
    let t = Instant::now();
    for (i, stream) in streams.iter().enumerate() {
        for ev in stream {
            handles[i].submit(ev).expect("healthy stream");
        }
    }
    let ingest_eps = total as f64 / t.elapsed().as_secs_f64();
    // One sweep of the pair set lasts ~1ms — scheduler-tick territory on
    // a small box — so warm the freshly built fleet's indexes with one
    // untimed sweep, then sweep repeatedly to stretch the timed window
    // past OS jitter (and past several watchdog ticks on the ON trial).
    const REACH_REPS: usize = 24;
    let mut hits = 0usize;
    for (i, u, v) in pairs {
        hits += usize::from(handles[*i].reach(*u, *v) == Some(true));
    }
    let t = Instant::now();
    for _ in 0..REACH_REPS {
        hits += pairs
            .iter()
            .filter(|(i, u, v)| handles[*i].reach(*u, *v) == Some(true))
            .count();
    }
    criterion::black_box(hits);
    let reach_eps = (pairs.len() * REACH_REPS) as f64 / t.elapsed().as_secs_f64();
    (ingest_eps, reach_eps)
}

/// The observability tax, measured head-to-head: the same workload on a
/// fully instrumented engine (telemetry spans + 5ms watchdog) vs a
/// `telemetry(false)` one, interleaved best-of-5 so thermal drift hits
/// both sides equally. Instrumentation must cost **< 5%** on both
/// ingest and reach throughput — asserted here, reported in the JSON
/// artifact — and the EXPLAIN wrapper's tax on a fleet query is its own
/// `explain_overhead` line.
fn service_obs_overhead(_c: &mut Criterion) {
    let catalog = catalog();
    let streams = streams(&catalog, 512, 12_000, 45);
    let mut rng = StdRng::seed_from_u64(17);
    let pairs: Vec<(usize, VertexId, VertexId)> = (0..8192)
        .map(|_| {
            let i = rng.gen_range(0..streams.len());
            let s = &streams[i];
            (
                i,
                s[rng.gen_range(0..s.len())].vertex,
                s[rng.gen_range(0..s.len())].vertex,
            )
        })
        .collect();
    let (mut best_on, mut best_off) = ((0.0f64, 0.0f64), (0.0f64, 0.0f64));
    // ABBA ordering: alternate which side goes first each round so a
    // box whose clock drifts across the run biases neither side.
    for round in 0..6 {
        let (first, second) = (round % 2 == 1, round % 2 == 0);
        for inst in [first, second] {
            let (ingest, reach) = obs_trial(&catalog, &streams, &pairs, inst);
            let best = if inst { &mut best_on } else { &mut best_off };
            best.0 = best.0.max(ingest);
            best.1 = best.1.max(reach);
        }
    }
    let ingest_ratio = best_on.0 / best_off.0;
    let reach_ratio = best_on.1 / best_off.1;
    println!(
        "{{\"metric\":\"obs_overhead\",\"ingest_eps_on\":{:.1},\"ingest_eps_off\":{:.1},\
         \"reach_eps_on\":{:.1},\"reach_eps_off\":{:.1},\
         \"ingest_ratio\":{ingest_ratio:.4},\"reach_ratio\":{reach_ratio:.4}}}",
        best_on.0, best_off.0, best_on.1, best_off.1,
    );
    assert!(
        ingest_ratio >= 0.95,
        "telemetry costs {:.1}% ingest throughput (budget: 5%)",
        (1.0 - ingest_ratio) * 100.0
    );
    assert!(
        reach_ratio >= 0.95,
        "telemetry costs {:.1}% reach throughput (budget: 5%)",
        (1.0 - reach_ratio) * 100.0
    );
    // The watchdog rode along in every ON trial above; key its config
    // and the ratios it was part of so the trajectory can track the
    // instrumented-vs-bare gap under the watchdog's own name too.
    println!(
        "{{\"metric\":\"watchdog\",\"interval_ms\":5,\
         \"ingest_ratio\":{ingest_ratio:.4},\"reach_ratio\":{reach_ratio:.4}}}"
    );

    // The EXPLAIN wrapper's own tax: the same warm fleet query, plain vs
    // profiled, interleaved best-of-3. The profile install, the per-view
    // accounting, and the (absent-WAL) barrier should all be noise next
    // to the scan itself.
    let sub = &streams[..64.min(streams.len())];
    let engine = engine_over(&catalog);
    let handles: Vec<_> = (0..sub.len())
        .map(|i| {
            let run = engine.open_run(SpecId(i % catalog.len())).expect("spec");
            engine.handle(run).expect("registered")
        })
        .collect();
    for (i, stream) in sub.iter().enumerate() {
        for ev in stream {
            handles[i].submit(ev).expect("healthy stream");
        }
        handles[i].complete().expect("live");
    }
    let name = sub[0][1].name;
    let iters = 50u32;
    let (mut plain_qps, mut explain_qps) = (0.0f64, 0.0f64);
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            criterion::black_box(
                engine
                    .query()
                    .completed()
                    .runs_reaching_named_from_source(name),
            );
        }
        plain_qps = plain_qps.max(f64::from(iters) / t.elapsed().as_secs_f64());
        let t = Instant::now();
        for _ in 0..iters {
            criterion::black_box(
                engine
                    .query()
                    .completed()
                    .explain()
                    .runs_reaching_named_from_source(name),
            );
        }
        explain_qps = explain_qps.max(f64::from(iters) / t.elapsed().as_secs_f64());
    }
    let explain_ratio = explain_qps / plain_qps;
    println!(
        "{{\"metric\":\"explain_overhead\",\"plain_qps\":{plain_qps:.1},\
         \"explain_qps\":{explain_qps:.1},\"explain_ratio\":{explain_ratio:.4}}}"
    );
}

/// One durable-ingest trial: pipelined pool ingest of the whole fleet
/// plus the closing `flush()` barrier (the durability watermark), on an
/// engine with the given WAL configuration. Returns events/s.
fn durable_trial(
    catalog: &[Arc<SpecContext>],
    streams: &[Vec<ExecEvent>],
    wal: Option<(&std::path::Path, wf_service::WalSync)>,
) -> f64 {
    let mut b = WfEngine::builder().shards(32).queue_capacity(1024);
    if let Some((dir, sync)) = wal {
        b = b.wal_dir(dir).wal_sync(sync);
    }
    for ctx in catalog {
        b = b.context(Arc::clone(ctx));
    }
    let engine = b.build();
    let runs: Vec<_> = (0..streams.len())
        .map(|i| engine.open_run(SpecId(i % catalog.len())).expect("spec"))
        .collect();
    let total: usize = streams.iter().map(Vec::len).sum();
    let t = Instant::now();
    for (i, stream) in streams.iter().enumerate() {
        for ev in stream {
            engine
                .ingest(ServiceEvent {
                    run: runs[i],
                    op: RunOp::Insert(ev.clone()),
                })
                .expect("live run");
        }
    }
    engine.flush();
    let eps = total as f64 / t.elapsed().as_secs_f64();
    assert!(engine.take_ingest_errors().is_empty());
    assert_eq!(engine.stats().events_ingested as usize, total);
    eps
}

/// The durability tax, measured head-to-head at 16 runs: the same
/// pipelined workload with the WAL off, group-committed, and fsynced
/// per append — interleaved best-of-3 — plus a timed crash recovery of
/// the group-commit log. Group commit must keep **≥ 0.5×** the WAL-off
/// throughput (the ratio lands in the JSON artifact; recovery time is
/// its own `wal_recovery_ms` line).
fn service_durable_ingest(_c: &mut Criterion) {
    let catalog = catalog();
    let streams = streams(&catalog, 16, 8000, 45);
    let total: usize = streams.iter().map(Vec::len).sum();
    let base = std::env::temp_dir().join(format!("wf-bench-wal-{}", std::process::id()));
    let group_dir = base.join("group");
    let always_dir = base.join("always");
    let group_sync = wf_service::WalSync::GroupCommit {
        window: std::time::Duration::from_millis(2),
    };
    let (mut off, mut group, mut always) = (0.0f64, 0.0f64, 0.0f64);
    for _ in 0..3 {
        // Fresh WAL directories per trial: recovery replay is measured
        // separately, not smeared into ingest time.
        let _ = std::fs::remove_dir_all(&base);
        off = off.max(durable_trial(&catalog, &streams, None));
        group = group.max(durable_trial(
            &catalog,
            &streams,
            Some((&group_dir, group_sync)),
        ));
        always = always.max(durable_trial(
            &catalog,
            &streams,
            Some((&always_dir, wf_service::WalSync::Always)),
        ));
    }
    let group_ratio = group / off;
    let always_ratio = always / off;
    println!(
        "{{\"metric\":\"durable_ingest\",\"runs\":16,\"events\":{total},\
         \"eps_off\":{off:.1},\"eps_group\":{group:.1},\"eps_always\":{always:.1},\
         \"group_ratio\":{group_ratio:.4},\"always_ratio\":{always_ratio:.4}}}"
    );
    // Crash recovery over the last group-commit log: rebuild resurrects
    // the whole fleet, timed end-to-end (scan + replay + log rewrite).
    let t = Instant::now();
    let mut b = WfEngine::builder().wal_dir(&group_dir);
    for ctx in &catalog {
        b = b.context(Arc::clone(ctx));
    }
    let recovered = b.build();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let s = recovered.stats();
    assert_eq!(s.wal_recovered_runs, 16, "the whole fleet recovers");
    assert_eq!(s.wal_recovered_records as usize, total + 16);
    println!(
        "{{\"metric\":\"wal_recovery_ms\",\"runs\":16,\"events\":{total},\
         \"records\":{},\"ms\":{ms:.2}}}",
        s.wal_recovered_records
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&base);
    // Floor carries noise margin: identical binaries measure anywhere
    // from 0.46x to 0.67x run-to-run on a shared box (fsync pacing is
    // at the mercy of the host's IO scheduler), so gate the cliff, not
    // the jitter.
    assert!(
        group_ratio >= 0.4,
        "group commit keeps {:.2}x of WAL-off throughput (floor: 0.4x)",
        group_ratio
    );
}

/// One cold-scan trial over a prebuilt packed spill directory: a fresh
/// engine (nothing mapped, nothing resident) sweeps the whole persisted
/// fleet under a tight resident-byte budget — one reach probe per run,
/// in id order, so **every** probe resolves its blob cold (the budget
/// evicts it again long before the sweep wraps around). This isolates
/// the blob-resolution cost of the buffer manager: map at first pin,
/// checksum once over the mapping. The full cross-run label scan then
/// runs untimed. Returns (runs/s, peak resident bytes, mapped bytes).
fn cold_scan_trial(
    catalog: &[Arc<SpecContext>],
    spill: &std::path::Path,
    streams: &[Vec<ExecEvent>],
    budget: u64,
    probe: wf_graph::NameId,
) -> (f64, u64, u64) {
    let mut b = WfEngine::builder()
        .shards(32)
        .spill_dir(spill)
        .max_resident_bytes(budget);
    for ctx in catalog {
        b = b.context(Arc::clone(ctx));
    }
    let engine = b.build();
    assert_eq!(engine.stats().runs_persisted as usize, TIER_FLEET);
    // Runs were opened in stream order, so sorted ids line up with
    // `streams` indices.
    let ids = engine.query().run_ids();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let peak = std::sync::atomic::AtomicU64::new(0);
    let eps = std::thread::scope(|s| {
        s.spawn(|| {
            // Peak-residency sampler: the budget must hold *during* the
            // sweep, not just after it.
            use std::sync::atomic::Ordering;
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(engine.stats().persisted_resident_bytes, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });
        let t = Instant::now();
        let mut yes = 0usize;
        for (i, run) in ids.iter().enumerate() {
            let ev = &streams[i];
            let (u, v) = (ev[0].vertex, ev[ev.len() / 2].vertex);
            if engine.reach(*run, u, v).expect("registered") == Some(true) {
                yes += 1;
            }
        }
        criterion::black_box(yes);
        let eps = ids.len() as f64 / t.elapsed().as_secs_f64();
        criterion::black_box(
            engine
                .query()
                .completed()
                .runs_reaching_named_from_source(probe),
        );
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        eps
    });
    let stats = engine.stats();
    let peak = peak.into_inner().max(stats.persisted_resident_bytes);
    (eps, peak, stats.mapped_bytes)
}

/// The buffer-manager act: cold-scan `TIER_FLEET` persisted runs
/// straight off packed segments (zero-copy `mmap` + verify at first
/// pin) under one tight resident budget, which must hold *during* the
/// sweep. Then the
/// shed → re-heat → pack-GC act: promote enough of the fleet to strand
/// dead blobs in the packs and demonstrate GC shrinking the on-disk
/// footprint. JSON lines: `cold_scan` (keyed `cold_scan_eps` /
/// `mapped_resident_bytes` in the trajectory gate) and the
/// `pack_gc` report.
fn service_cold_scan(_c: &mut Criterion) {
    let catalog = catalog();
    let spill = std::env::temp_dir().join(format!("wf-bench-coldscan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill);
    // Prebuild: TIER_FLEET small **uniform** runs, persisted and packed
    // (no Zipf head here — one giant blob would dwarf the resident
    // budget). Small blobs make the per-blob resolution overhead the
    // dominant term.
    let streams: Vec<Vec<ExecEvent>> = {
        let mut rng = StdRng::seed_from_u64(46);
        (0..TIER_FLEET)
            .map(|i| {
                let spec = &catalog[i % catalog.len()].spec;
                let gen = RunGenerator::new(spec)
                    .target_size(14)
                    .generate_run(&mut rng);
                Execution::random(&gen.graph, &gen.origin, &mut rng)
                    .events()
                    .to_vec()
            })
            .collect()
    };
    let probe = streams[0][streams[0].len() / 2].name;
    {
        let mut b = WfEngine::builder().shards(32).spill_dir(&spill);
        for ctx in &catalog {
            b = b.context(Arc::clone(ctx));
        }
        let engine = b.build();
        for (i, stream) in streams.iter().enumerate() {
            let run = engine.open_run(SpecId(i % catalog.len())).expect("spec");
            let h = engine.handle(run).expect("registered");
            for ev in stream {
                h.submit(ev).expect("healthy stream");
            }
            h.complete().expect("live");
            engine.persist_run(run).expect("spill dir configured");
        }
        let report = engine.compact().expect("spill dir configured");
        println!("{}", report.json());
        assert!(report.packs_written >= 1);
    }
    // Budget: ~4% of the persisted tier — the replacer must shed
    // constantly, and reads must stay useful under `madvise`.
    let persisted_bytes: u64 = std::fs::read_dir(&spill)
        .expect("spill dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "wfseg"))
        .map(|e| e.metadata().expect("metadata").len())
        .sum();
    let budget = (persisted_bytes / 25).max(64 * 1024);
    let slack = 256 * 1024; // transient overshoot: blobs admit before enforce
    let (mapped_eps, mapped_peak, mapped_bytes) =
        cold_scan_trial(&catalog, &spill, &streams, budget, probe);
    println!(
        "{{\"bench\":\"service_cold_scan\",\"runs\":{TIER_FLEET},\
         \"cold_scan_eps\":{mapped_eps:.1},\"budget_bytes\":{budget},\
         \"mapped_resident_bytes\":{mapped_peak},\"mapped_bytes\":{mapped_bytes}}}"
    );
    assert!(mapped_bytes > 0, "the sweep mapped the packs it read");
    assert!(
        mapped_peak <= budget + slack,
        "resident budget violated: {mapped_peak} vs {budget}+{slack}"
    );

    // The re-heat → pack-GC act: promote the first quarter of the fleet
    // all the way back to hot (sustained-traffic re-heat), stranding
    // their blobs as dead bytes in the packs, then GC.
    let mut b = WfEngine::builder()
        .shards(32)
        .spill_dir(&spill)
        .max_resident_bytes(budget);
    for ctx in &catalog {
        b = b.context(Arc::clone(ctx));
    }
    let engine = b.build();
    let mut ids: Vec<_> = engine.query().run_ids();
    ids.sort();
    for run in &ids[..TIER_FLEET / 4 + TIER_FLEET / 8] {
        engine
            .reheat_run_hot(*run)
            .expect("persisted run re-heats hot");
    }
    assert!(engine.stats().pack_dead_bytes > 0);
    let gc = engine.gc_packs().expect("spill dir configured");
    println!("{}", gc.json());
    assert!(
        gc.dead_bytes_reclaimed > 0,
        "re-heated blobs crossed the dead ratio in at least one pack"
    );
    let after_bytes: u64 = std::fs::read_dir(&spill)
        .expect("spill dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "wfseg"))
        .map(|e| e.metadata().expect("metadata").len())
        .sum();
    assert!(
        after_bytes < persisted_bytes,
        "pack GC shrinks the on-disk footprint: {persisted_bytes} -> {after_bytes}"
    );
    println!("{}", engine.stats().tier_footprint_json());
    drop(engine);
    let _ = std::fs::remove_dir_all(&spill);
}

/// One standing-query ingest trial: pipelined pool ingest of the whole
/// fleet plus completion of every run, with `idle` registered
/// subscriptions riding the notify path. The predicates (a mix of the
/// three kinds) watch a name **absent** from the workload — the
/// alerting-dashboard shape: standing queries armed for a condition
/// that has not occurred. Every insert still pays the registry read
/// lock and the per-subscription relevance precheck, which is exactly
/// the overhead a fleet of idle subscriptions imposes; matching
/// traffic is the lag act's job, not this one's. Returns events/s.
fn standing_trial(
    catalog: &[Arc<SpecContext>],
    streams: &[Vec<ExecEvent>],
    idle: usize,
    sweeps: usize,
) -> f64 {
    let engine = engine_over(catalog);
    let absent = wf_graph::NameId(
        streams
            .iter()
            .flatten()
            .map(|ev| ev.name.0)
            .max()
            .unwrap_or(0)
            + 1,
    );
    let absent2 = wf_graph::NameId(absent.0 + 1);
    let _subs: Vec<Subscription> = (0..idle)
        .map(|k| {
            let pred = match k % 3 {
                0 => SubPredicate::vertices_named(absent),
                1 => SubPredicate::runs_reaching_named_from_source(absent).completed(),
                _ => SubPredicate::runs_linking(absent, absent2),
            };
            engine.subscribe(pred)
        })
        .collect();
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut timed = Duration::ZERO;
    // Several full-fleet sweeps per trial: a single sweep is a ~20ms
    // window, small enough for scheduler jitter to swamp a few percent
    // of real per-event cost. Only ingest + flush are on the clock;
    // completions fan out once per run, not per event — they are the
    // lag act's subject and sit outside the throughput window, same as
    // in `durable_trial`.
    for _ in 0..sweeps {
        let runs: Vec<_> = (0..streams.len())
            .map(|i| engine.open_run(SpecId(i % catalog.len())).expect("spec"))
            .collect();
        let t = Instant::now();
        for (i, stream) in streams.iter().enumerate() {
            for ev in stream {
                engine
                    .ingest(ServiceEvent {
                        run: runs[i],
                        op: RunOp::Insert(ev.clone()),
                    })
                    .expect("live run");
            }
        }
        engine.flush();
        timed += t.elapsed();
        for &run in &runs {
            engine.complete_run(run).expect("live");
        }
        // `complete_run` only enqueues; the workers process the
        // completion fan-out asynchronously. Drain it here so once-per-
        // run fan-out work can't bleed into the next sweep's window.
        engine.flush();
    }
    assert!(engine.take_ingest_errors().is_empty());
    (total * sweeps) as f64 / timed.as_secs_f64()
}

/// The standing-query act over the 4096-run tiering-scale fleet:
///
/// * **Overhead** — pipelined ingest of the fleet with 0 vs 16 idle
///   subscriptions, four full-fleet sweeps per trial (a long enough
///   timed window that scheduler jitter can't swamp a few percent of
///   real per-event cost), trials interleaved best-of-6 (ABBA) so
///   thermal drift hits both sides equally. Ingest with 16
///   subscriptions must keep **≥ 0.9×** the unsubscribed throughput —
///   asserted here. The fast path an idle subscription leaves behind is
///   three read-only relaxed loads (active count, name-interest bitmap,
///   source flag); the assert gates the cliff where that stops being
///   true, with the remaining margin absorbing shared-box jitter.
/// * **Delta lag** — one consuming subscriber drains its stream while
///   the fleet ingests and completes; the producer stamps each run just
///   before `complete_run`, the consumer measures receipt lag at the
///   matching `RunCompleted`. p50/p99 land in the JSON line CI uploads
///   and `trajectory_delta.py` soft-gates (`notify_eps` as throughput,
///   `delta_lag_p99_ns` as latency).
fn service_standing_query(_c: &mut Criterion) {
    let catalog = catalog();
    let streams = streams(&catalog, TIER_FLEET, 60_000, 47);

    // (a) Idle-subscription overhead, ABBA best-of-8. Per-trial lines go
    // to stderr so a gate failure in CI is diagnosable from the log.
    const IDLE_SUBS: usize = 16;
    let (mut on, mut off) = (0.0f64, 0.0f64);
    for round in 0..8 {
        let (first, second) = if round % 2 == 0 {
            (IDLE_SUBS, 0)
        } else {
            (0, IDLE_SUBS)
        };
        for idle in [first, second] {
            let eps = standing_trial(&catalog, &streams, idle, 4);
            eprintln!("standing_query trial: round={round} idle={idle} eps={eps:.0}");
            let best = if idle == 0 { &mut off } else { &mut on };
            *best = best.max(eps);
        }
    }
    let sub_overhead_ratio = on / off;

    // (b) Delta lag through a consuming subscriber. A big queue keeps
    // `Lagged` out of the lag measurement (drops would censor the tail).
    let mut b = WfEngine::builder()
        .shards(32)
        .queue_capacity(1024)
        .sub_queue_capacity(1 << 16);
    for ctx in &catalog {
        b = b.context(Arc::clone(ctx));
    }
    let engine = b.build();
    let probe = streams[0][streams[0].len() / 2].name;
    let sub = engine.subscribe(SubPredicate::vertices_named(probe));
    let stamps: Mutex<HashMap<u64, Instant>> = Mutex::new(HashMap::new());
    let (lags, delivered, drain_secs) = std::thread::scope(|s| {
        let consumer = s.spawn(|| {
            let mut lags = Vec::with_capacity(TIER_FLEET);
            let mut delivered = 0u64;
            let t = Instant::now();
            while let Some(d) = sub.recv() {
                delivered += 1;
                match d {
                    Delta::RunCompleted { run } => {
                        let at = stamps.lock().expect("stamps")[&run.0];
                        lags.push(at.elapsed().as_nanos() as u64);
                        if lags.len() == TIER_FLEET {
                            break;
                        }
                    }
                    Delta::Lagged { dropped } => {
                        panic!("lag act must not drop deltas (dropped {dropped})")
                    }
                    _ => {}
                }
            }
            (lags, delivered, t.elapsed().as_secs_f64())
        });
        for (i, stream) in streams.iter().enumerate() {
            let run = engine.open_run(SpecId(i % catalog.len())).expect("spec");
            let h = engine.handle(run).expect("registered");
            for ev in stream {
                h.submit(ev).expect("healthy stream");
            }
            stamps.lock().expect("stamps").insert(run.0, Instant::now());
            h.complete().expect("live");
        }
        consumer.join().expect("consumer thread")
    });
    assert_eq!(lags.len(), TIER_FLEET, "every completion is observed");
    let mut sorted = lags;
    sorted.sort_unstable();
    let p50 = sorted[sorted.len() / 2];
    let p99 = sorted[sorted.len() * 99 / 100];
    let notify_eps = delivered as f64 / drain_secs;
    println!(
        "{{\"metric\":\"standing_query\",\"subs\":{IDLE_SUBS},\"deltas\":{delivered},\
         \"notify_eps\":{notify_eps:.1},\"delta_lag_p50_ns\":{p50},\
         \"delta_lag_p99_ns\":{p99},\"sub_overhead_ratio\":{sub_overhead_ratio:.4}}}"
    );
    assert!(
        sub_overhead_ratio >= 0.9,
        "16 idle subscriptions cost {:.1}% ingest throughput (budget: 10%)",
        (1.0 - sub_overhead_ratio) * 100.0
    );
}

criterion_group!(
    benches,
    service_ingest,
    service_query,
    service_tiering,
    service_cold_scan,
    service_durable_ingest,
    service_standing_query,
    service_obs_overhead
);
criterion_main!(benches);
