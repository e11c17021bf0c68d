//! The `wf-service` Engine API v2 end to end: a fleet of workflow runs
//! ingested by **one producer thread per run** — each event applied on
//! its producer's thread, per-run order by program order, cross-run
//! parallelism by running more producers — while
//! monitoring threads holding **cloned, lifetime-free run handles**
//! answer reachability queries against published labels, lock-free and
//! mid-flight, and a **cross-run query** sums up lineage over the whole
//! fleet at the end.
//!
//! The scenario mirrors a production workflow engine: several pipelines
//! (two different specifications) execute at once; the provenance
//! engine labels each module invocation the moment its event arrives
//! (the paper's on-the-fly guarantee), and dashboards query lineage
//! continuously without ever blocking a writer.
//!
//! ```text
//! cargo run --example concurrent_service
//! ```

use rand::rngs::StdRng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use wf_provenance::prelude::*;

fn main() {
    // The engine owns its catalog: each specification is preprocessed
    // once (skeleton labels, §5.1); every run labels against it. All
    // configuration happens in the builder — nothing to mutate later.
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .spec(wf_spec::corpus::bioaid())
        .shards(8)
        .build();

    // A fleet of eight simulated executions across the two
    // specifications — generated *before* ingestion starts, so the
    // engine's events/s reflects ingest alone.
    const FLEET: usize = 8;
    let mut executions = Vec::new();
    for i in 0..FLEET {
        let spec = SpecId(i % engine.catalog().len());
        let mut rng = StdRng::seed_from_u64(2011 + i as u64);
        let gen = RunGenerator::new(&engine.context(spec).unwrap().spec)
            .target_size(1200)
            .generate_run(&mut rng);
        let exec = Execution::random(&gen.graph, &gen.origin, &mut rng);
        executions.push((spec, exec));
    }

    let runs: Vec<(RunId, &Execution)> = executions
        .iter()
        .map(|(spec, exec)| (engine.open_run(*spec).expect("catalog spec"), exec))
        .collect();
    let total_events: usize = runs.iter().map(|(_, e)| e.len()).sum();
    println!(
        "fleet: {FLEET} runs over {} specifications, {total_events} events total",
        engine.catalog().len()
    );

    let done = AtomicBool::new(false);
    let queries = AtomicUsize::new(0);
    let mid_flight = AtomicUsize::new(0);
    // Handles are cloneable and `'static`: resolve them once, hand
    // clones to whoever needs them.
    let handles: Vec<(RunHandle, &Execution)> = runs
        .iter()
        .map(|(run, exec)| (engine.handle(*run).expect("run registered"), *exec))
        .collect();
    std::thread::scope(|scope| {
        // Two monitoring threads first (so they are live before the
        // first event lands): lock-free queries over random pairs,
        // racing the producers.
        for seed in 0..2u64 {
            let handles = &handles;
            let (done, queries, mid_flight) = (&done, &queries, &mid_flight);
            scope.spawn(move || {
                use rand::Rng;
                let mut rng = StdRng::seed_from_u64(seed);
                // Keep querying until ingestion finishes, and land at
                // least 10k answered queries so the demo reports a
                // meaningful sample however the scheduler interleaves
                // the threads (this container may have a single core).
                let mut answered = 0u32;
                while !done.load(Ordering::Acquire) || answered < 10_000 {
                    let (handle, exec) = &handles[rng.gen_range(0..handles.len())];
                    let u = exec.events()[rng.gen_range(0..exec.len())].vertex;
                    let v = exec.events()[rng.gen_range(0..exec.len())].vertex;
                    let published = handle.published();
                    if handle.reach(u, v).is_some() {
                        answered += 1;
                        queries.fetch_add(1, Ordering::Relaxed);
                        if published < exec.len() {
                            mid_flight.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        // One producer thread per run: `ingest` applies each event on
        // its producer's thread before it returns, so a run's events land
        // in order, and distinct runs label in parallel on as many cores
        // as there are producers.
        for (run, exec) in &runs {
            let engine = &engine;
            scope.spawn(move || {
                for ev in exec.events() {
                    engine
                        .ingest(ServiceEvent {
                            run: *run,
                            op: RunOp::Insert(ev.clone()),
                        })
                        .expect("healthy event stream");
                }
                // The same thread completes the run, after every event
                // above.
                engine.complete_run(*run).expect("was live");
            });
        }
        // Coordinator: stop the monitors once every run completed.
        scope.spawn(|| loop {
            let all = runs
                .iter()
                .all(|(r, _)| engine.run_status(*r).unwrap() != RunStatus::Live);
            if all {
                done.store(true, Ordering::Release);
                break;
            }
            std::thread::yield_now();
        });
    });

    let stats = engine.stats();
    println!(
        "ingested {} events in {:.1?} ({:.0} events/s sustained)",
        stats.events_ingested,
        stats.uptime,
        stats.events_per_sec()
    );
    println!(
        "queries answered: {} ({} raced live ingestion)",
        queries.load(Ordering::Relaxed),
        mid_flight.load(Ordering::Relaxed)
    );
    println!(
        "labels published: {} (avg {:.1} bits — the paper's O(log n) in practice)",
        stats.labels_published,
        stats.avg_label_bits()
    );
    println!("engine: {stats}");

    // The cross-run query surface: fleet-level lineage without touching
    // any run's writer. "Which completed runs have a vertex with this
    // module name reachable from their source?"
    let probe = executions[0].1.events()[executions[0].1.len() / 2].name;
    let reached = engine
        .query()
        .completed()
        .runs_reaching_named_from_source(probe);
    println!(
        "cross-run: {}/{} completed runs reach module name {:?} from their source",
        reached.len(),
        FLEET,
        probe
    );

    // Spot-check a lineage question on the first run, post completion.
    let (run, exec) = &runs[0];
    let handle = engine.handle(*run).unwrap();
    let src = exec.events()[0].vertex;
    let last = exec.events()[exec.len() - 1].vertex;
    println!(
        "lineage spot check on {run}: source ; last = {:?}",
        handle.reach(src, last)
    );
}
