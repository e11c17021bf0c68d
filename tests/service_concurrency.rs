//! Concurrency tests for `wf-service`'s Engine API v2: queries answered
//! *while runs are ingesting on their callers' threads* must agree, pair for pair, with a post-hoc [`NaiveDynamicDag`] replay of
//! the same event prefix (the §3.2 scheme is exact for arbitrary dynamic
//! DAGs, so it is the ground-truth oracle for every dynamic labeling
//! answer), and the cross-run query surface must agree with a naive
//! multi-run replay.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use wf_provenance::prelude::*;
use wf_run::generator::GeneratedRun;

fn engine() -> WfEngine {
    WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .spec(wf_spec::corpus::bioaid())
        .shards(8)
        .ingest_workers(4)
        .build()
}

fn sample(spec: &Specification, seed: u64, target: usize) -> (GeneratedRun, Execution) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let gen = RunGenerator::new(spec)
        .target_size(target)
        .generate_run(&mut rng);
    let exec = Execution::random(&gen.graph, &gen.origin, &mut rng);
    (gen, exec)
}

/// Single-threaded prefix semantics, stated exactly as the acceptance
/// criterion: after every event acknowledged by a blocking `submit`,
/// *every* query over inserted vertices matches a `NaiveDynamicDag`
/// replay of the same prefix.
#[test]
fn mid_ingest_queries_match_prefix_replay() {
    let engine = engine();
    for (spec_idx, seed) in [(0usize, 21u64), (1, 22)] {
        let run = engine.open_run(SpecId(spec_idx)).unwrap();
        let (_gen, exec) = sample(&engine.context(SpecId(spec_idx)).unwrap().spec, seed, 90);
        let handle = engine.handle(run).unwrap();
        let mut naive = NaiveDynamicDag::new();
        let mut inserted: Vec<VertexId> = Vec::new();
        for (i, ev) in exec.events().iter().enumerate() {
            // Blocking submit: the event is applied, on this thread,
            // before it returns and we query.
            engine.submit(run, ev).unwrap();
            naive.insert(ev.vertex, &ev.preds);
            inserted.push(ev.vertex);
            assert_eq!(handle.published(), i + 1, "labels publish with the event");
            // The engine's answers over the prefix equal the naive
            // replay of that same prefix.
            for &a in &inserted {
                for &b in &inserted {
                    assert_eq!(
                        handle.reach(a, b),
                        Some(naive.reaches(a, b)),
                        "prefix {} of {run}: {a:?} ; {b:?}",
                        i + 1,
                    );
                }
            }
        }
    }
}

/// The headline scenario: six runs (over two specifications) ingested
/// by their own producer threads while
/// four reader threads holding cloned handles fire interleaved
/// reachability queries. Every answer returned mid-ingest is recorded
/// and verified afterwards against a naive replay; the test also demands
/// that a healthy share of the queries actually raced live ingestion.
#[test]
fn concurrent_runs_with_interleaved_queries() {
    const RUNS: usize = 6;
    const READERS: usize = 4;
    let engine = engine();

    let mut runs = Vec::new();
    for i in 0..RUNS {
        let spec_idx = i % engine.catalog().len();
        let run = engine.open_run(SpecId(spec_idx)).unwrap();
        let (gen, exec) = sample(
            &engine.context(SpecId(spec_idx)).unwrap().spec,
            100 + i as u64,
            220,
        );
        runs.push((run, gen, exec));
    }

    let done = AtomicBool::new(false);
    let mid_ingest_answers = AtomicUsize::new(0);
    // (run index, u, v, answer) tuples recorded by the readers.
    let mut recorded: Vec<Vec<(usize, VertexId, VertexId, bool)>> = Vec::new();

    let readers_ready = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // Producers: one per run, events strictly in order through
        // `ingest()`, each applied on its producer's thread before the
        // call returns. Each producer waits for every
        // reader to be live before its first event, so queries genuinely
        // race ingestion on any scheduler.
        for (run, _gen, exec) in &runs {
            let readers_ready = &readers_ready;
            let engine = &engine;
            let mid = &mid_ingest_answers;
            scope.spawn(move || {
                while readers_ready.load(Ordering::Acquire) < READERS {
                    std::thread::yield_now();
                }
                for (j, ev) in exec.events().iter().enumerate() {
                    engine
                        .ingest(ServiceEvent {
                            run: *run,
                            op: RunOp::Insert(ev.clone()),
                        })
                        .unwrap();
                    // Halfway through, park until some reader has landed
                    // a mid-ingest answer — this makes the "queries race
                    // live ingestion" property deterministic instead of
                    // scheduler luck (on a loaded 1-core CI runner the
                    // readers might otherwise never get a timeslice
                    // before ingestion finishes).
                    if j == exec.events().len() / 2 {
                        while mid.load(Ordering::Relaxed) == 0 {
                            std::thread::yield_now();
                        }
                    }
                    if ev.vertex.idx() % 16 == 0 {
                        std::thread::yield_now();
                    }
                }
                // Completion is ordered after every event of the run by
                // this thread's program order.
                engine.complete_run(*run).unwrap();
            });
        }
        // Readers: random pairs on random runs until all runs finish,
        // through cloned lifetime-free handles.
        let mut readers = Vec::new();
        for r in 0..READERS {
            let runs = &runs;
            let engine = &engine;
            let done = &done;
            let mid = &mid_ingest_answers;
            let readers_ready = &readers_ready;
            readers.push(scope.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(999 + r as u64);
                use rand::Rng;
                let handles: Vec<RunHandle> = runs
                    .iter()
                    .map(|(run, ..)| engine.handle(*run).unwrap())
                    .collect();
                let mut seen = Vec::new();
                readers_ready.fetch_add(1, Ordering::Release);
                while !done.load(Ordering::Acquire) {
                    let i = rng.gen_range(0..runs.len());
                    let (_, _, exec) = &runs[i];
                    let handle = &handles[i];
                    let total = exec.len();
                    let u = exec.events()[rng.gen_range(0..total)].vertex;
                    let v = exec.events()[rng.gen_range(0..total)].vertex;
                    let published = handle.published();
                    if let Some(ans) = handle.reach(u, v) {
                        seen.push((i, u, v, ans));
                        if published < total {
                            mid.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                seen
            }));
        }
        // Coordinator: flip `done` once every run completes.
        scope.spawn(|| loop {
            let all_done = runs
                .iter()
                .all(|(run, ..)| engine.run_status(*run).unwrap() != RunStatus::Live);
            if all_done {
                done.store(true, Ordering::Release);
                break;
            }
            std::thread::yield_now();
        });
        for h in readers {
            recorded.push(h.join().expect("reader panicked"));
        }
    });

    // Post-hoc oracle: replay each run's full event stream through the
    // naive exact scheme and check every recorded answer.
    let oracles: Vec<NaiveDynamicDag> = runs
        .iter()
        .map(|(_, _, exec)| {
            let mut naive = NaiveDynamicDag::new();
            for ev in exec.events() {
                naive.insert(ev.vertex, &ev.preds);
            }
            naive
        })
        .collect();
    let mut verified = 0usize;
    for answers in &recorded {
        for &(i, u, v, ans) in answers {
            assert_eq!(
                ans,
                oracles[i].reaches(u, v),
                "run {i}: recorded answer {u:?} ; {v:?} diverges from naive replay"
            );
            verified += 1;
        }
    }
    assert!(verified > 0, "readers never landed a query");
    assert!(
        mid_ingest_answers.load(Ordering::Relaxed) > 0,
        "no query raced live ingestion — the interleaving never happened"
    );

    // Engine-level bookkeeping adds up.
    let stats = engine.stats();
    let total_events: usize = runs.iter().map(|(_, _, e)| e.len()).sum();
    assert_eq!(stats.events_ingested as usize, total_events);
    assert_eq!(stats.labels_published as usize, total_events);
    assert_eq!(stats.runs_completed as usize, RUNS);
    assert_eq!(stats.runs_live, 0);
    assert!(stats.queries_answered >= verified as u64);
}

/// Batched ingest across runs: one feeder thread applies interleaved
/// cross-run batches while readers query; per-run order is preserved
/// (a batch applies in order), so the final labels agree with the oracle
/// everywhere.
#[test]
fn batched_ingest_with_concurrent_readers() {
    const RUNS: usize = 5;
    let engine = engine();
    let mut runs = Vec::new();
    for i in 0..RUNS {
        let spec_idx = i % engine.catalog().len();
        let run = engine.open_run(SpecId(spec_idx)).unwrap();
        let (gen, exec) = sample(
            &engine.context(SpecId(spec_idx)).unwrap().spec,
            500 + i as u64,
            150,
        );
        runs.push((run, gen, exec));
    }

    // Round-robin interleave all runs' events into batches of ~64.
    let mut interleaved: Vec<ServiceEvent> = Vec::new();
    let max_len = runs.iter().map(|(_, _, e)| e.len()).max().unwrap();
    for step in 0..max_len {
        for (run, _, exec) in &runs {
            if let Some(ev) = exec.events().get(step) {
                interleaved.push(ServiceEvent {
                    run: *run,
                    op: RunOp::Insert(ev.clone()),
                });
            }
        }
    }

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for chunk in interleaved.chunks(64) {
                let outcome = engine.submit_batch(chunk);
                assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
            }
            done.store(true, Ordering::Release);
        });
        for r in 0..3u64 {
            let runs = &runs;
            let engine = &engine;
            let done = &done;
            scope.spawn(move || {
                use rand::Rng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(7000 + r);
                let mut checked = 0usize;
                while !done.load(Ordering::Acquire) || checked == 0 {
                    let i = rng.gen_range(0..runs.len());
                    let (run, gen, exec) = &runs[i];
                    let handle = engine.handle(*run).unwrap();
                    let u = exec.events()[rng.gen_range(0..exec.len())].vertex;
                    let v = exec.events()[rng.gen_range(0..exec.len())].vertex;
                    if let Some(ans) = handle.reach(u, v) {
                        // Mid-flight answers can be checked against the
                        // final graph: reachability over inserted pairs
                        // is stable under later insertions.
                        assert_eq!(ans, wf_graph::reach::reaches(&gen.graph, u, v));
                        checked += 1;
                    }
                }
                assert!(checked > 0);
            });
        }
    });

    for (run, gen, exec) in &runs {
        let handle = engine.handle(*run).unwrap();
        assert_eq!(handle.published(), exec.len());
        let mut naive = NaiveDynamicDag::new();
        for ev in exec.events() {
            naive.insert(ev.vertex, &ev.preds);
        }
        for ev_a in exec.events() {
            for ev_b in exec.events() {
                let (a, b) = (ev_a.vertex, ev_b.vertex);
                assert_eq!(handle.reach(a, b), Some(naive.reaches(a, b)));
            }
        }
        let _ = gen;
    }
}

/// Drain/shutdown determinism: everything ingested before a flush is
/// visible after it, queries never panic during or after shutdown, and
/// a drain closes ingest with every completion ingested before it
/// applied.
#[test]
fn flush_watermark_and_graceful_drain() {
    let mut engine = engine();
    const RUNS: usize = 4;
    let mut runs = Vec::new();
    for i in 0..RUNS {
        let spec_idx = i % engine.catalog().len();
        let run = engine.open_run(SpecId(spec_idx)).unwrap();
        let (_gen, exec) = sample(
            &engine.context(SpecId(spec_idx)).unwrap().spec,
            900 + i as u64,
            120,
        );
        runs.push((run, exec));
    }
    let submitted: usize = runs.iter().map(|(_, e)| e.len()).sum();

    // Producers race readers; a concurrent flusher takes barriers the
    // whole time.
    std::thread::scope(|scope| {
        for (run, exec) in &runs {
            let engine = &engine;
            scope.spawn(move || {
                for ev in exec.events() {
                    engine
                        .ingest(ServiceEvent {
                            run: *run,
                            op: RunOp::Insert(ev.clone()),
                        })
                        .unwrap();
                }
            });
        }
        let engine = &engine;
        scope.spawn(move || {
            for _ in 0..8 {
                engine.flush();
                std::thread::yield_now();
            }
        });
    });

    // Every ingest returned before this flush, so all of it is applied.
    engine.flush();
    for (run, exec) in &runs {
        assert_eq!(engine.handle(*run).unwrap().published(), exec.len());
    }
    assert_eq!(engine.stats().events_ingested, submitted as u64);

    // Complete every run, then drain while readers hammer queries: no
    // panic, ingest closes, queries survive.
    let handles: Vec<(RunHandle, &Execution)> = runs
        .iter()
        .map(|(run, exec)| (engine.handle(*run).unwrap(), exec))
        .collect();
    for (run, _) in &runs {
        engine
            .ingest(ServiceEvent {
                run: *run,
                op: RunOp::Complete,
            })
            .unwrap();
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for r in 0..3u64 {
            let handles = &handles;
            let stop = &stop;
            scope.spawn(move || {
                use rand::Rng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(4400 + r);
                while !stop.load(Ordering::Acquire) {
                    let (handle, exec) = &handles[rng.gen_range(0..handles.len())];
                    let u = exec.events()[rng.gen_range(0..exec.len())].vertex;
                    let v = exec.events()[rng.gen_range(0..exec.len())].vertex;
                    // Must never panic, mid-drain or after.
                    let _ = handle.reach(u, v);
                    let _ = handle.status();
                }
            });
        }
        engine.drain();
        stop.store(true, Ordering::Release);
    });

    // The ingested completions were applied before the drain.
    for (run, _) in &runs {
        assert_eq!(engine.run_status(*run).unwrap(), RunStatus::Completed);
    }
    // Ingest is closed with a typed error; queries still answer.
    let (run0, exec0) = &runs[0];
    assert_eq!(
        engine.submit(*run0, &exec0.events()[0]).unwrap_err(),
        ServiceError::ShuttingDown
    );
    let (u, v) = (exec0.events()[0].vertex, exec0.events()[1].vertex);
    assert_eq!(engine.handle(*run0).unwrap().reach(u, v), Some(true));
    assert!(engine.take_ingest_errors().is_empty());
}

/// One recorded reader answer: run index, the pair, what `reach` said,
/// and `published()` read just before and just after the probe.
type Probe = (usize, VertexId, VertexId, Option<bool>, usize, usize);

/// Counts a finished writer when dropped, panicking or not.
struct Done<'a>(&'a AtomicUsize);

impl Drop for Done<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

/// Caller-threaded ingest at fleet scale: four writer threads each own
/// 16 runs (64 in all) and `ingest()` them in round-robin bursts while
/// two reader threads probe random pairs mid-ingest. Each `ingest()`
/// returns with its label published, so a writer sees every event it
/// sent the moment the call returns. Every reader answer is checked
/// against a `NaiveDynamicDag` replay of the prefix it was read at:
/// `Some` only for two vertices inside the prefix visible after the
/// probe, with that prefix's answer; `None` only if one of them lay
/// outside the prefix published before it. A run's one writer stores a
/// label before it counts it, so the prefix visible after the probe is
/// the published count read then, plus at most the one label in flight.
/// The counters end exact.
#[test]
fn caller_threaded_fleet_answers_match_prefix_replay() {
    const WRITERS: usize = 4;
    const RUNS_EACH: usize = 16;
    const READERS: usize = 2;
    let engine = engine();
    let fleets: Vec<Vec<(RunId, RunHandle, Execution)>> = (0..WRITERS)
        .map(|w| {
            (0..RUNS_EACH)
                .map(|r| {
                    let spec = (w + r) % engine.catalog().len();
                    let run = engine.open_run(SpecId(spec)).unwrap();
                    let seed = 5000 + (w * RUNS_EACH + r) as u64;
                    let exec = sample(&engine.context(SpecId(spec)).unwrap().spec, seed, 70).1;
                    (run, engine.handle(run).unwrap(), exec)
                })
                .collect()
        })
        .collect();
    let all: Vec<&(RunId, RunHandle, Execution)> = fleets.iter().flatten().collect();
    let total: usize = all.iter().map(|(_, _, exec)| exec.len()).sum();

    let (readers_ready, mid_ingest) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let writers_done = AtomicUsize::new(0);
    let probes: Vec<Vec<Probe>> = std::thread::scope(|scope| {
        for (w, fleet) in fleets.iter().enumerate() {
            let (engine, readers_ready) = (&engine, &readers_ready);
            let (mid_ingest, writers_done) = (&mid_ingest, &writers_done);
            scope.spawn(move || {
                // Counted on the way out, a failed assertion included, so
                // the readers always stop.
                let _done = Done(writers_done);
                while readers_ready.load(Ordering::Acquire) < READERS {
                    std::thread::yield_now();
                }
                let mut sent = [0usize; RUNS_EACH];
                for round in 0.. {
                    let r = round % RUNS_EACH;
                    let (run, handle, exec) = &fleet[r];
                    let burst = 1 + (round + w) % 7;
                    for ev in exec.events().iter().skip(sent[r]).take(burst) {
                        let op = RunOp::Insert(ev.clone());
                        engine.ingest(ServiceEvent { run: *run, op }).unwrap();
                        sent[r] += 1;
                        // Visible as soon as `ingest()` returns: no
                        // barrier in between.
                        assert_eq!(handle.published(), sent[r], "{run}");
                    }
                    // A few rounds in, wait for a reader to land a
                    // mid-ingest answer, so the race happens on any
                    // scheduler.
                    if round == RUNS_EACH * 2 {
                        while mid_ingest.load(Ordering::Relaxed) == 0 {
                            std::thread::yield_now();
                        }
                    }
                    if fleet.iter().zip(&sent).all(|((_, _, e), &n)| n == e.len()) {
                        break;
                    }
                }
                for (run, ..) in fleet {
                    let op = RunOp::Complete;
                    engine.ingest(ServiceEvent { run: *run, op }).unwrap();
                }
            });
        }
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (all, readers_ready) = (&all, &readers_ready);
                let (mid_ingest, writers_done) = (&mid_ingest, &writers_done);
                scope.spawn(move || {
                    use rand::Rng;
                    let mut rng = rand::rngs::StdRng::seed_from_u64(7100 + r as u64);
                    let mut seen: Vec<Probe> = Vec::new();
                    readers_ready.fetch_add(1, Ordering::Release);
                    while writers_done.load(Ordering::Acquire) < WRITERS {
                        let i = rng.gen_range(0..all.len());
                        let (_, handle, exec) = all[i];
                        let u = exec.events()[rng.gen_range(0..exec.len())].vertex;
                        let v = exec.events()[rng.gen_range(0..exec.len())].vertex;
                        let before = handle.published();
                        let answer = handle.reach(u, v);
                        let after = handle.published();
                        if answer.is_some() && after < exec.len() {
                            mid_ingest.fetch_add(1, Ordering::Relaxed);
                        }
                        seen.push((i, u, v, answer, before, after));
                    }
                    seen
                })
            })
            .collect();
        readers
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect()
    });

    // Replay each run once, answering its probes at the prefix each was
    // read at, shortest prefix first.
    let mut by_run: Vec<Vec<&Probe>> = vec![Vec::new(); all.len()];
    for probe in probes.iter().flatten() {
        by_run[probe.0].push(probe);
    }
    let mut checked = 0usize;
    for ((_, _, exec), probes) in all.iter().zip(&mut by_run) {
        let position: std::collections::HashMap<VertexId, usize> = exec
            .events()
            .iter()
            .enumerate()
            .map(|(i, ev)| (ev.vertex, i))
            .collect();
        probes.sort_by_key(|p| p.5);
        let mut naive = NaiveDynamicDag::new();
        let mut replayed = 0;
        for &&(i, u, v, answer, before, after) in probes.iter() {
            let (pu, pv) = (position[&u], position[&v]);
            let Some(ans) = answer else {
                assert!(
                    pu >= before || pv >= before,
                    "run {i}: {u:?} ; {v:?} unanswered inside the published prefix {before}"
                );
                continue;
            };
            let visible = (after + 1).min(exec.len());
            assert!(
                pu < visible && pv < visible,
                "run {i}: {u:?} ; {v:?} answered outside the visible prefix {visible}"
            );
            for ev in &exec.events()[replayed..visible] {
                naive.insert(ev.vertex, &ev.preds);
            }
            replayed = visible;
            assert_eq!(ans, naive.reaches(u, v), "run {i}: {u:?} ; {v:?}");
            checked += 1;
        }
    }
    assert!(checked > 0, "readers never landed an answer");
    assert!(
        mid_ingest.load(Ordering::Relaxed) > 0,
        "no query raced live ingestion"
    );

    let s = engine.stats();
    assert_eq!(s.events_ingested, total as u64);
    assert_eq!(s.labels_published, total as u64);
    assert_eq!(s.runs_completed, all.len() as u64);
    for (run, handle, exec) in &all {
        assert_eq!(handle.published(), exec.len(), "{run}");
        assert_eq!(engine.run_status(*run), Ok(RunStatus::Completed));
    }
    assert!(engine.take_ingest_errors().is_empty());
}

/// The cross-run query surface against a naive multi-run replay: for
/// every module name appearing anywhere, "which completed runs of spec
/// S have a vertex of that name reachable from their source?" must
/// match the answer computed by replaying every run through the exact
/// naive scheme — and scope filters (spec, status) must hold.
#[test]
fn cross_run_queries_match_naive_multi_run_replay() {
    let engine = engine();
    const RUNS: usize = 6;
    // Runs 0,2,4 on spec 0; runs 1,3,5 on spec 1. Run 4 stays live (not
    // completed) to exercise the status filter.
    let mut runs = Vec::new();
    for i in 0..RUNS {
        let spec_idx = i % 2;
        let run = engine.open_run(SpecId(spec_idx)).unwrap();
        let (gen, exec) = sample(
            &engine.context(SpecId(spec_idx)).unwrap().spec,
            3100 + i as u64,
            130,
        );
        runs.push((run, spec_idx, gen, exec));
    }
    let mut batch = Vec::new();
    for (run, _, _, exec) in &runs {
        for ev in exec.events() {
            batch.push(ServiceEvent {
                run: *run,
                op: RunOp::Insert(ev.clone()),
            });
        }
    }
    let outcome = engine.submit_batch(&batch);
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    for (run, _, _, _) in &runs {
        if run.0 != 4 {
            engine.complete_run(*run).unwrap();
        }
    }

    // Naive ground truth, one exact replay per run.
    let oracles: Vec<NaiveDynamicDag> = runs
        .iter()
        .map(|(_, _, _, exec)| {
            let mut naive = NaiveDynamicDag::new();
            for ev in exec.events() {
                naive.insert(ev.vertex, &ev.preds);
            }
            naive
        })
        .collect();

    // Every name that occurs in any run of either spec.
    let mut names: Vec<NameId> = runs
        .iter()
        .flat_map(|(_, _, _, exec)| exec.events().iter().map(|ev| ev.name))
        .collect();
    names.sort_by_key(|n| n.0);
    names.dedup();
    assert!(names.len() > 3, "workload should span several names");

    for spec_idx in 0..2usize {
        for &name in &names {
            // Engine answer: completed runs of this spec reaching `name`
            // from their source.
            let got = engine
                .query()
                .spec(SpecId(spec_idx))
                .completed()
                .runs_reaching_named_from_source(name);
            // Naive answer over the same scope.
            let want: Vec<RunId> = runs
                .iter()
                .enumerate()
                .filter(|(_, (run, s, _, _))| {
                    *s == spec_idx && engine.run_status(*run).unwrap() == RunStatus::Completed
                })
                .filter(|(i, (_, _, _, exec))| {
                    let source = exec.events()[0].vertex;
                    exec.events()
                        .iter()
                        .filter(|ev| ev.name == name)
                        .any(|ev| oracles[*i].reaches(source, ev.vertex))
                })
                .map(|(_, (run, _, _, _))| *run)
                .collect();
            assert_eq!(got, want, "spec {spec_idx}, name {name:?}");
        }
    }

    // Witness lists agree with the oracle, run by run.
    for &name in &names {
        for hit in engine.query().reaching_named_from_source(name) {
            let (i, (_, _, _, exec)) = runs
                .iter()
                .enumerate()
                .find(|(_, (run, _, _, _))| *run == hit.run)
                .unwrap();
            assert_eq!(hit.source, exec.events()[0].vertex);
            let want: Vec<VertexId> = {
                let mut w: Vec<VertexId> = exec
                    .events()
                    .iter()
                    .filter(|ev| ev.name == name)
                    .filter(|ev| oracles[i].reaches(hit.source, ev.vertex))
                    .map(|ev| ev.vertex)
                    .collect();
                w.sort_by_key(|v| v.0);
                w
            };
            assert_eq!(hit.witnesses, want, "witnesses for {name:?} in {}", hit.run);
        }
    }

    // Scope bookkeeping: run_ids respects spec and status filters.
    let all: Vec<RunId> = runs.iter().map(|(r, ..)| *r).collect();
    assert_eq!(engine.query().run_ids(), all);
    assert_eq!(
        engine.query().with_status(RunStatus::Live).run_ids(),
        vec![RunId(4)]
    );
    assert_eq!(
        engine.query().spec(SpecId(0)).run_ids(),
        vec![RunId(0), RunId(2), RunId(4)]
    );
}

/// What one engine ended up holding for a set of streams: every
/// vertex's label, plus the two counters every write path must agree on.
type Outcome = (Vec<Option<DrlLabel>>, u64, u64);

/// Check every pair of every run against `NaiveDynamicDag`, check the
/// subscription saw exactly one `RunCompleted` per run, and return the
/// engine's labels and counters for comparison across entry points.
fn settle_outcome(
    engine: &WfEngine,
    sub: &Subscription,
    runs: &[RunId],
    streams: &[(usize, Execution)],
    via: &str,
) -> Outcome {
    let mut labels = Vec::new();
    for (&run, (_, exec)) in runs.iter().zip(streams) {
        assert_eq!(
            engine.run_status(run).unwrap(),
            RunStatus::Completed,
            "{via}"
        );
        let h = engine.handle(run).unwrap();
        let mut naive = NaiveDynamicDag::new();
        for ev in exec.events() {
            naive.insert(ev.vertex, &ev.preds);
            labels.push(h.label(ev.vertex));
        }
        for a in exec.events() {
            for b in exec.events() {
                assert_eq!(
                    h.reach(a.vertex, b.vertex),
                    Some(naive.reaches(a.vertex, b.vertex)),
                    "{via} {run}: {:?} ; {:?}",
                    a.vertex,
                    b.vertex
                );
            }
        }
    }
    let mut completed: Vec<RunId> = Vec::new();
    while let Some(delta) = sub.try_recv() {
        match delta {
            Delta::RunCompleted { run } => completed.push(run),
            Delta::Lagged { dropped } => panic!("{via}: subscription dropped {dropped} deltas"),
            Delta::Added { .. } | Delta::Removed { .. } => {}
        }
    }
    completed.sort_unstable();
    assert_eq!(completed, runs, "{via}: one RunCompleted per run");
    assert!(engine.take_ingest_errors().is_empty(), "{via}");
    let s = engine.stats();
    (labels, s.events_ingested, s.runs_completed)
}

/// One write path, three doors: the same event streams through
/// `ingest`, through the other writes on the caller's thread — the
/// `RunHandle::submit`, the blocking `submit` / `complete_run`, and one
/// `submit_batch` — and through a WAL kill-and-recover (events replayed
/// at `build()`, runs completed after it) must leave identical labels,
/// identical counters, one `RunCompleted` delta per run, and only
/// oracle-true `reach` answers.
#[test]
fn three_entry_points_one_outcome() {
    let specs = [
        wf_spec::corpus::running_example(),
        wf_spec::corpus::bioaid(),
    ];
    let streams: Vec<(usize, Execution)> = [(0usize, 71u64), (1, 72), (0, 73)]
        .into_iter()
        .map(|(spec, seed)| (spec, sample(&specs[spec], seed, 110).1))
        .collect();
    let events: u64 = streams.iter().map(|(_, e)| e.len() as u64).sum();
    let watched = streams[0].1.events()[1].name;
    let build = |wal: Option<&std::path::Path>| -> WfEngine {
        let mut b = WfEngine::builder().ingest_workers(2);
        for spec in &specs {
            b = b.spec(spec.clone());
        }
        if let Some(dir) = wal {
            b = b.wal_dir(dir);
        }
        b.build()
    };
    let open_all = |engine: &WfEngine| -> Vec<RunId> {
        streams
            .iter()
            .map(|(spec, _)| engine.open_run(SpecId(*spec)).unwrap())
            .collect()
    };
    let ingest_all = |engine: &WfEngine, runs: &[RunId], complete: bool| {
        for (&run, (_, exec)) in runs.iter().zip(&streams) {
            let ops = exec.events().iter().cloned().map(RunOp::Insert);
            for op in ops.chain(complete.then_some(RunOp::Complete)) {
                engine.ingest(ServiceEvent { run, op }).unwrap();
            }
        }
        engine.flush();
    };

    // Door 1: `ingest()`.
    let ingested = build(None);
    let sub = ingested.subscribe(SubPredicate::vertices_named(watched));
    let runs = open_all(&ingested);
    ingest_all(&ingested, &runs, true);
    let want = settle_outcome(&ingested, &sub, &runs, &streams, "ingest");
    assert_eq!((want.1, want.2), (events, runs.len() as u64));

    // Door 2: the synchronous handle, on this thread.
    let direct = build(None);
    let sub = direct.subscribe(SubPredicate::vertices_named(watched));
    let runs = open_all(&direct);
    for (&run, (_, exec)) in runs.iter().zip(&streams) {
        let h = direct.handle(run).unwrap();
        for ev in exec.events() {
            h.submit(ev).unwrap();
        }
        h.complete().unwrap();
    }
    let got = settle_outcome(&direct, &sub, &runs, &streams, "handle");
    assert_eq!(got, want, "handle vs ingest");

    // The blocking engine writes, one op at a time: the same door as the
    // handle's, behind a registry lookup.
    let blocking = build(None);
    let sub = blocking.subscribe(SubPredicate::vertices_named(watched));
    let runs = open_all(&blocking);
    for (&run, (_, exec)) in runs.iter().zip(&streams) {
        for ev in exec.events() {
            blocking.submit(run, ev).unwrap();
        }
        blocking.complete_run(run).unwrap();
    }
    let got = settle_outcome(&blocking, &sub, &runs, &streams, "submit");
    assert_eq!(got, want, "submit vs ingest");

    // One blocking batch, the runs' ops interleaved.
    let batched = build(None);
    let sub = batched.subscribe(SubPredicate::vertices_named(watched));
    let runs = open_all(&batched);
    let longest = streams.iter().map(|(_, e)| e.len()).max().unwrap();
    let mut batch = Vec::new();
    for i in 0..=longest {
        for (&run, (_, exec)) in runs.iter().zip(&streams) {
            let op = match exec.events().get(i) {
                Some(ev) => RunOp::Insert(ev.clone()),
                None if i == exec.len() => RunOp::Complete,
                None => continue,
            };
            batch.push(ServiceEvent { run, op });
        }
    }
    let outcome = batched.submit_batch(&batch);
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    assert_eq!(outcome.applied as u64, events);
    let got = settle_outcome(&batched, &sub, &runs, &streams, "submit_batch");
    assert_eq!(got, want, "submit_batch vs ingest");

    // Door 3: recovery. Lifetime 1 journals every event, flushes it
    // durable (`ingest_all`) and is then "killed" — never completed,
    // drained or dropped before lifetime 2 reads its WAL directory;
    // lifetime 2 replays the events at build time and completes the runs
    // under a live subscription.
    let dir = std::env::temp_dir().join(format!("wf-three-doors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let killed = build(Some(&dir));
    let runs = open_all(&killed);
    ingest_all(&killed, &runs, false);
    let recovered = build(Some(&dir));
    assert_eq!(recovered.stats().wal_recovered_runs, runs.len() as u64);
    let sub = recovered.subscribe(SubPredicate::vertices_named(watched));
    for &run in &runs {
        recovered.complete_run(run).unwrap();
    }
    let got = settle_outcome(&recovered, &sub, &runs, &streams, "recovered");
    assert_eq!(got, want, "recovered vs ingest");
    drop((killed, recovered));
    let _ = std::fs::remove_dir_all(&dir);
}
