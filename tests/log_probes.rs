//! Two probes of what one durable change costs as the state around it
//! grows. Each is `#[ignore]`d — they time fsyncs, so they run in
//! release, on their own:
//!
//! ```text
//! cargo test --release --test log_probes -- --ignored --nocapture
//! ```
//!
//! - [`persist_p50_is_flat_in_live_events`]: one WAL shard, and three
//!   passes of 20 small runs persisted beside 0, 20 k, 200 k and 1 M
//!   events of still-open runs in it. A persist appends a blob, a seal
//!   record and a WAL checkpoint; a shard rewrite is amortised over the
//!   records it drops, so the live events the shard holds do not enter a
//!   persist's p50. A size's figure is the median of its passes' p50s: a
//!   p50 of 20 fsync-bound persists follows the page cache, and one pass
//!   in three once read 1.63 ms at 1 M where the others read 0.2 ms.
//!   The live runs are then persisted too, which makes their records
//!   dead-heavy: those persists carry the rewrites, and their p50, max
//!   and rewrite count are printed beside — the cost the append path
//!   amortises, not held to a bound.
//! - [`evict_p50_is_flat_in_persisted_runs`]: 20 runs evicted beside
//!   100, 1 000 and 10 000 persisted runs. An eviction appends one
//!   record to the seal log, however many runs the log places.
//!
//! Each prints the `p50` for every size and fails when the largest
//! size's is more than twice the smallest's. `WF_PROBE_SCALE=n` divides
//! every size by `n` (CI runs `n = 10`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use wf_provenance::prelude::*;

mod common;
use common::TempDir;

/// Operations timed per size (per pass, for the persist probe).
const OPS: usize = 20;

/// Passes of `OPS` persists per size.
const PASSES: usize = 3;

/// `size`, divided by `WF_PROBE_SCALE` when it is set.
fn scaled(size: usize) -> usize {
    let scale = std::env::var("WF_PROBE_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1usize);
    size / scale.max(1)
}

/// One completed run of the running example, `size` events.
fn execution(size: usize, seed: u64) -> Execution {
    let spec = wf_spec::corpus::running_example();
    let gen = RunGenerator::new(&spec)
        .target_size(size)
        .generate_run(&mut StdRng::seed_from_u64(seed));
    Execution::deterministic(&gen.graph, &gen.origin)
}

/// Open a run of `exec` and submit every event; complete it when asked.
fn ingest(engine: &WfEngine, exec: &Execution, complete: bool) -> RunId {
    let run = engine.open_run(SpecId(0)).unwrap();
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    if complete {
        engine.complete_run(run).unwrap();
    }
    run
}

/// The median of `times`.
fn p50(mut times: Vec<Duration>) -> Duration {
    times.sort();
    times[times.len() / 2]
}

/// Print one line per size and hold the largest size's `p50` to twice
/// the smallest's (a size's `p50`: the persist probe's is the median of
/// its passes').
fn flat(what: &str, unit: &str, p50s: &[(usize, Duration)]) {
    for (size, p50) in p50s {
        println!(
            "{what}: {size} {unit}: p50 {:.3} ms",
            p50.as_secs_f64() * 1e3
        );
    }
    let (first, last) = (p50s[0], p50s[p50s.len() - 1]);
    assert!(
        last.1 <= 2 * first.1,
        "{what}: p50 {:?} at {} {unit} is more than twice the {:?} at {}",
        last.1,
        last.0,
        first.1,
        first.0
    );
}

#[test]
#[ignore = "a timing probe: run in release with --ignored"]
fn persist_p50_is_flat_in_live_events() {
    let live = execution(10_000, 1);
    let small = execution(30, 2);
    let mut p50s = Vec::new();
    for size in [0, 20_000, 200_000, 1_000_000].map(scaled) {
        let dir = TempDir::new("persist-probe");
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .ingest_workers(1)
            .wal_dir(dir.0.join("wal"))
            .spill_dir(dir.0.join("spill"))
            .build();
        let mut live_runs = Vec::new();
        while live_runs.len() * live.len() < size {
            live_runs.push(ingest(&engine, &live, false));
        }
        engine.flush();
        let passes: Vec<Duration> = (0..PASSES)
            .map(|_| {
                let times = (0..OPS).map(|_| {
                    let run = ingest(&engine, &small, true);
                    let start = Instant::now();
                    engine.persist_run(run).unwrap();
                    start.elapsed()
                });
                p50(times.collect())
            })
            .collect();
        let each: Vec<String> = passes
            .iter()
            .map(|p| format!("{:.3}", p.as_secs_f64() * 1e3))
            .collect();
        println!(
            "persist_run beside {size} live events: pass p50s {} ms",
            each.join(" / ")
        );
        p50s.push((size, p50(passes)));
        let rewrites = engine.stats().wal_truncations;
        let times: Vec<Duration> = live_runs
            .iter()
            .map(|&run| {
                engine.complete_run(run).unwrap();
                let start = Instant::now();
                engine.persist_run(run).unwrap();
                start.elapsed()
            })
            .collect();
        if let Some(max) = times.iter().max() {
            println!(
                "persist_run of the {} live runs beside {size} live events: p50 {:.3} ms, \
                 max {:.3} ms, {} shard rewrites",
                times.len(),
                p50(times.clone()).as_secs_f64() * 1e3,
                max.as_secs_f64() * 1e3,
                engine.stats().wal_truncations - rewrites
            );
        }
        assert!(engine.take_ingest_errors().is_empty());
    }
    flat("persist_run", "live events", &p50s);
}

#[test]
#[ignore = "a timing probe: run in release with --ignored"]
fn evict_p50_is_flat_in_persisted_runs() {
    let small = execution(5, 3);
    let mut p50s = Vec::new();
    for size in [100, 1_000, 10_000].map(scaled) {
        let dir = TempDir::new("evict-probe");
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .spill_dir(&dir.0)
            .build();
        let runs: Vec<RunId> = (0..size + OPS)
            .map(|_| {
                let run = ingest(&engine, &small, true);
                engine.persist_run(run).unwrap();
                run
            })
            .collect();
        let times = runs[size..]
            .iter()
            .map(|&run| {
                let start = Instant::now();
                engine.evict_run(run).unwrap();
                start.elapsed()
            })
            .collect();
        p50s.push((size, p50(times)));
    }
    flat("evict_run", "persisted runs", &p50s);
}
