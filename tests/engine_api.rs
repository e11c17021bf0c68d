//! The engine's public API, one behaviour per test: lifecycle and
//! stats, batch isolation, bounds rejection, eviction, pipelined ingest
//! with its error ring, drain, and every tier operation (freeze,
//! persist/reload, the tiering policy, compaction, re-heat, the LRU).
//! Public API only — these were `engine.rs`'s in-file tests, moved here
//! so tier-1 (`cargo test -q` at the root) runs them.

use rand::rngs::StdRng;
use wf_provenance::prelude::*;

mod common;
use common::TempDir;

fn engine() -> WfEngine {
    WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .spec(wf_spec::corpus::theorem1())
        .ingest_workers(2)
        .build()
}

fn sample(engine: &WfEngine, spec: SpecId, seed: u64, target: usize) -> Execution {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = RunGenerator::new(&engine.context(spec).unwrap().spec)
        .target_size(target)
        .generate_run(&mut rng);
    Execution::deterministic(&gen.graph, &gen.origin)
}

#[test]
fn unknown_ids_are_rejected() {
    let engine = engine();
    assert_eq!(
        engine.open_run(SpecId(9)).unwrap_err(),
        ServiceError::UnknownSpec(SpecId(9))
    );
    assert_eq!(
        engine
            .reach(RunId(3), VertexId(0), VertexId(1))
            .unwrap_err(),
        ServiceError::UnknownRun(RunId(3))
    );
    assert_eq!(
        engine
            .ingest(ServiceEvent {
                run: RunId(3),
                op: RunOp::Complete,
            })
            .unwrap_err(),
        ServiceError::UnknownRun(RunId(3))
    );
}

#[test]
fn lifecycle_and_stats() {
    let engine = engine();
    let run = engine.open_run(SpecId(0)).unwrap();
    assert_eq!(engine.run_status(run).unwrap(), RunStatus::Live);

    let exec = sample(&engine, SpecId(0), 1, 50);
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    engine.complete_run(run).unwrap();
    assert_eq!(engine.run_status(run).unwrap(), RunStatus::Completed);
    // Completed runs reject further events but keep answering.
    assert!(matches!(
        engine.submit(run, &exec.events()[0]).unwrap_err(),
        ServiceError::RunNotLive(_, RunStatus::Completed)
    ));
    let s = engine.stats();
    assert_eq!(s.runs_opened, 1);
    assert_eq!(s.runs_completed, 1);
    assert_eq!(s.events_ingested as usize, exec.len());
    assert_eq!(s.labels_published as usize, exec.len());
    assert!(s.label_bits_total > 0);
    assert_eq!(s.ingest_backlog, 0, "blocking submits leave no backlog");
    assert_eq!(s.ingest_workers, 2);

    // Eviction removes the registry entry.
    engine.evict_run(run).unwrap();
    assert_eq!(
        engine.run_status(run).unwrap_err(),
        ServiceError::UnknownRun(run)
    );
}

#[test]
fn batch_preserves_per_run_order_and_isolates_failures() {
    let engine = engine();
    let mut rng = StdRng::seed_from_u64(5);
    // Four healthy runs (two per spec) and one poisoned run whose
    // first event is invalid.
    let runs: Vec<RunId> = (0..4)
        .map(|i| engine.open_run(SpecId(i % 2)).unwrap())
        .collect();
    let poisoned = engine.open_run(SpecId(0)).unwrap();

    let mut batch = Vec::new();
    let mut execs = Vec::new();
    for (i, &run) in runs.iter().enumerate() {
        let spec = SpecId(i % 2);
        let gen = RunGenerator::new(&engine.context(spec).unwrap().spec)
            .target_size(80)
            .generate_run(&mut rng);
        let exec = Execution::random(&gen.graph, &gen.origin, &mut rng);
        for ev in exec.events() {
            batch.push(ServiceEvent {
                run,
                op: RunOp::Insert(ev.clone()),
            });
        }
        batch.push(ServiceEvent {
            run,
            op: RunOp::Complete,
        });
        execs.push((run, gen, exec));
    }
    // The poisoned run starts with a non-source event.
    batch.push(ServiceEvent {
        run: poisoned,
        op: RunOp::Insert(execs[0].2.events()[1].clone()),
    });
    let outcome = engine.submit_batch(&batch);
    assert_eq!(outcome.failures.len(), 1);
    assert_eq!(outcome.failures[0].0, poisoned);
    assert_eq!(engine.run_status(poisoned).unwrap(), RunStatus::Failed);

    // Every healthy run: fully applied, completed, and every pair
    // answers exactly like the ground-truth oracle.
    for (run, gen, exec) in &execs {
        assert_eq!(engine.run_status(*run).unwrap(), RunStatus::Completed);
        let h = engine.handle(*run).unwrap();
        assert_eq!(h.published(), exec.len());
        let oracle = wf_graph::reach::ReachOracle::new(&gen.graph);
        for a in gen.graph.vertices() {
            for b in gen.graph.vertices() {
                assert_eq!(h.reach(a, b), Some(oracle.reaches(a, b)), "{a:?};{b:?}");
            }
        }
    }
    let s = engine.stats();
    assert_eq!(s.runs_failed, 1);
    assert_eq!(s.runs_completed, 4);
    assert!(s.queries_answered > 0);
}

/// A panic while applying — a log-based event naming a graph the
/// specification lacks is an index panic inside the labeler — reaches
/// every caller who waits as `WorkerPanicked`, never as an unwind into
/// its thread: the blocking `submit`, `submit_batch` (one failure, the
/// run's later op skipped) and `RunHandle::submit`. Each leaves its run
/// `Failed`, and the run's next write meets the poisoned lock with the
/// same typed error.
#[test]
fn a_panic_is_a_typed_error_through_every_waiting_door() {
    let engine = engine();
    let exec = sample(&engine, SpecId(0), 5, 20);
    let (first, second) = (&exec.events()[0], &exec.events()[1]);
    let mut bad = second.clone();
    bad.origin.0 = wf_spec::GraphId(u32::MAX);
    let batch = |run: RunId| -> Result<(), ServiceError> {
        let ops = [RunOp::Insert(bad.clone()), RunOp::Insert(second.clone())];
        let events: Vec<ServiceEvent> =
            ops.into_iter().map(|op| ServiceEvent { run, op }).collect();
        let outcome = engine.submit_batch(&events);
        assert_eq!(outcome.applied, 0);
        match &outcome.failures[..] {
            [(failed, e)] if *failed == run => Err(e.clone()),
            failures => panic!("one failure for {run} wanted, got {failures:?}"),
        }
    };
    type Door<'a> = &'a dyn Fn(RunId) -> Result<(), ServiceError>;
    let doors: [(&str, Door<'_>); 3] = [
        ("submit", &|run| engine.submit(run, &bad)),
        ("submit_batch", &batch),
        ("handle", &|run| engine.handle(run)?.submit(&bad)),
    ];
    for (door, write) in doors {
        let run = engine
            .open_run_with(SpecId(0), ResolutionMode::LogBased)
            .unwrap();
        engine.submit(run, first).unwrap();
        let panicked = ServiceError::WorkerPanicked(run);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| write(run)));
        let res = res.unwrap_or_else(|_| panic!("{door}: the panic unwound into the caller"));
        assert_eq!(res, Err(panicked.clone()), "{door}");
        assert_eq!(engine.run_status(run), Ok(RunStatus::Failed), "{door}");
        assert_eq!(engine.submit(run, second), Err(panicked), "{door}");
    }
    assert!(engine.take_ingest_errors().is_empty(), "nothing was queued");
}

#[test]
fn absurd_vertex_ids_are_rejected_before_allocation() {
    let engine = engine();
    let run = engine.open_run(SpecId(0)).unwrap();
    let exec = sample(&engine, SpecId(0), 13, 30);
    // A forged event with a near-u32::MAX id must bounce with a
    // typed error instead of sizing tables to the id.
    let mut forged = exec.events()[0].clone();
    forged.vertex = VertexId(u32::MAX - 1);
    assert_eq!(
        engine.submit(run, &forged).unwrap_err(),
        ServiceError::VertexOutOfBounds(run, forged.vertex)
    );
    // The run is unharmed: the real stream still applies.
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    assert_eq!(engine.handle(run).unwrap().published(), exec.len());
}

/// A spec whose start graph is `s → t` with `slots` vertex slots, all
/// but the two terminals dead — as wide as the slot count says, and
/// cheap to label: a TCL spans live vertices only.
fn spec_with_slots(slots: usize) -> Specification {
    let mut b = wf_spec::SpecBuilder::new();
    let (s, t) = (b.name("s"), b.name("t"));
    let mut g = Graph::new();
    let source = g.add_vertex(s);
    while g.slot_count() < slots - 1 {
        let dead = g.add_vertex(s);
        g.remove_vertex(dead).unwrap();
    }
    let sink = g.add_vertex(t);
    g.add_edge(source, sink).unwrap();
    b.start_graph(g);
    b.build().unwrap()
}

/// A hot cell names a skeleton vertex in 17 bits, one value kept for
/// "no pointer": a graph of 2^17 − 1 vertex slots runs, its last slot
/// answering from the hot tier, and one of 2^17 is refused at
/// `open_run` with a typed error that leaves no run behind — nothing
/// registered, no id taken.
#[test]
fn a_spec_too_wide_for_a_hot_cell_is_refused_at_open() {
    let widest = (1 << 17) - 1;
    let engine = WfEngine::builder()
        .spec(spec_with_slots(widest))
        .spec(spec_with_slots(widest + 1))
        .build();
    assert!(engine.context(SpecId(0)).unwrap().hot_cells_hold());
    assert!(!engine.context(SpecId(1)).unwrap().hot_cells_hold());
    assert_eq!(
        engine.open_run(SpecId(1)),
        Err(ServiceError::SpecTooWide(SpecId(1)))
    );
    assert_eq!(engine.stats().runs_opened, 0);
    assert!(engine.query().run_ids().is_empty());

    let run = engine.open_run(SpecId(0)).unwrap();
    assert_eq!(run, RunId(0), "the refusal took no id");
    let exec = sample(&engine, SpecId(0), 3, 2);
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    let (source, sink) = (exec.events()[0].vertex, exec.events()[1].vertex);
    assert_eq!(exec.events()[1].origin.1 .0 as usize, widest - 1);
    assert_eq!(engine.reach(run, source, sink), Ok(Some(true)));
    assert_eq!(engine.reach(run, sink, source), Ok(Some(false)));
}

/// A logged run whose spec id names, in a later build, a spec too wide
/// for a hot cell is carried the way a run of a spec beyond the
/// catalog is: not replayed, its records kept verbatim, and a build
/// that can run the spec replays every event.
#[test]
fn a_logged_run_of_a_spec_too_wide_here_is_carried() {
    let dir = TempDir::new("too-wide");
    let build = |spec: Specification| -> WfEngine {
        WfEngine::builder().spec(spec).wal_dir(&dir.0).build()
    };
    let engine = build(wf_spec::corpus::running_example());
    let run = engine.open_run(SpecId(0)).unwrap();
    let exec = sample(&engine, SpecId(0), 17, 40);
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    let answers: Vec<_> = exec
        .events()
        .iter()
        .flat_map(|a| exec.events().iter().map(move |b| (a.vertex, b.vertex)))
        .step_by(7)
        .map(|(u, v)| (u, v, engine.reach(run, u, v).unwrap()))
        .collect();
    engine.flush();
    drop(engine);

    let engine = build(spec_with_slots(1 << 17));
    assert_eq!(engine.run_status(run), Err(ServiceError::UnknownRun(run)));
    assert_eq!(engine.stats().wal_recovered_runs, 0);
    assert_eq!(
        engine.open_run(SpecId(0)),
        Err(ServiceError::SpecTooWide(SpecId(0)))
    );
    drop(engine);

    let engine = build(wf_spec::corpus::running_example());
    assert_eq!(engine.run_status(run), Ok(RunStatus::Live));
    for (u, v, want) in answers {
        assert_eq!(engine.reach(run, u, v), Ok(want), "{u:?} ; {v:?}");
    }
}

#[test]
fn batch_survives_per_event_rejections() {
    let engine = engine();
    let run = engine.open_run(SpecId(0)).unwrap();
    let exec = sample(&engine, SpecId(0), 17, 40);
    // Forge an out-of-bounds event into the middle of an otherwise
    // healthy single-run batch ending in Complete.
    let mut forged = exec.events()[1].clone();
    forged.vertex = VertexId(u32::MAX - 7);
    let mut batch: Vec<ServiceEvent> = Vec::new();
    for (i, ev) in exec.events().iter().enumerate() {
        if i == exec.len() / 2 {
            batch.push(ServiceEvent {
                run,
                op: RunOp::Insert(forged.clone()),
            });
        }
        batch.push(ServiceEvent {
            run,
            op: RunOp::Insert(ev.clone()),
        });
    }
    batch.push(ServiceEvent {
        run,
        op: RunOp::Complete,
    });
    let outcome = engine.submit_batch(&batch);
    // The rejection is reported, but the rest of the run — including
    // its Complete — still lands.
    assert_eq!(
        outcome.failures,
        vec![(run, ServiceError::VertexOutOfBounds(run, forged.vertex))]
    );
    assert_eq!(outcome.applied, exec.len());
    assert_eq!(engine.run_status(run).unwrap(), RunStatus::Completed);
    assert_eq!(engine.handle(run).unwrap().published(), exec.len());
}

#[test]
fn handles_stay_valid_for_queries_but_reject_writes_after_eviction() {
    let engine = engine();
    let run = engine.open_run(SpecId(0)).unwrap();
    let exec = sample(&engine, SpecId(0), 11, 30);
    let handle = engine.handle(run).unwrap();
    for ev in &exec.events()[..exec.len() - 1] {
        handle.submit(ev).unwrap();
    }
    engine.evict_run(run).unwrap();
    // The Arc keeps the slot alive: queries still work…
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    assert!(handle.reach(u, v).is_some());
    assert_eq!(handle.status(), RunStatus::Evicted);
    // …but writes through the stale handle are rejected — otherwise
    // they would ingest into state no new lookup can reach and skew
    // the engine counters forever.
    assert_eq!(
        handle.submit(&exec.events()[exec.len() - 1]).unwrap_err(),
        ServiceError::RunNotLive(run, RunStatus::Evicted)
    );
    assert_eq!(
        handle.complete().unwrap_err(),
        ServiceError::RunNotLive(run, RunStatus::Evicted)
    );
}

#[test]
fn pipelined_ingest_flush_and_error_ring() {
    let engine = engine();
    let run = engine.open_run(SpecId(0)).unwrap();
    let exec = sample(&engine, SpecId(0), 23, 60);
    // Fire-and-forget the whole stream, plus one forged event whose
    // failure must surface through the error ring, not a panic.
    let mut forged = exec.events()[1].clone();
    forged.vertex = VertexId(u32::MAX - 3);
    for ev in exec.events() {
        engine
            .ingest(ServiceEvent {
                run,
                op: RunOp::Insert(ev.clone()),
            })
            .unwrap();
    }
    engine
        .ingest(ServiceEvent {
            run,
            op: RunOp::Insert(forged.clone()),
        })
        .unwrap();
    let watermark = engine.flush();
    assert!(
        watermark >= (exec.len() + 1) as u64,
        "flush watermark {watermark} covers everything enqueued before it"
    );
    assert_eq!(engine.handle(run).unwrap().published(), exec.len());
    assert_eq!(
        engine.take_ingest_errors(),
        vec![(run, ServiceError::VertexOutOfBounds(run, forged.vertex))]
    );
    assert!(engine.take_ingest_errors().is_empty(), "ring drains");
    let s = engine.stats();
    assert_eq!(s.ingest_backlog, 0);
    assert_eq!(s.flushes, 1);
}

#[test]
fn drain_closes_ingest_but_not_queries() {
    let mut engine = engine();
    let run = engine.open_run(SpecId(0)).unwrap();
    let exec = sample(&engine, SpecId(0), 29, 40);
    for ev in exec.events() {
        engine
            .ingest(ServiceEvent {
                run,
                op: RunOp::Insert(ev.clone()),
            })
            .unwrap();
    }
    let handle = engine.handle(run).unwrap();
    engine.drain();
    assert!(engine.is_draining());
    // Everything queued before the drain was applied.
    assert_eq!(handle.published(), exec.len());
    // Ingest is closed, in every flavor…
    assert_eq!(
        engine
            .ingest(ServiceEvent {
                run,
                op: RunOp::Complete,
            })
            .unwrap_err(),
        ServiceError::ShuttingDown
    );
    assert_eq!(
        engine.submit(run, &exec.events()[0]).unwrap_err(),
        ServiceError::ShuttingDown
    );
    let outcome = engine.submit_batch(&[ServiceEvent {
        run,
        op: RunOp::Complete,
    }]);
    assert_eq!(outcome.failures, vec![(run, ServiceError::ShuttingDown)]);
    // …including the synchronous handle path.
    assert_eq!(
        handle.submit(&exec.events()[0]).unwrap_err(),
        ServiceError::ShuttingDown
    );
    assert_eq!(handle.complete().unwrap_err(), ServiceError::ShuttingDown);
    // …but queries — handle and cross-run — still answer.
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    assert_eq!(handle.reach(u, v), Some(true));
    assert_eq!(engine.query().run_ids(), vec![run]);
    // flush() on a drained engine returns immediately.
    assert_eq!(engine.flush(), exec.len() as u64);
}

/// Ingest a full sampled run and complete it; returns the execution.
fn ingest_run(engine: &WfEngine, run: RunId, spec: SpecId, seed: u64, n: usize) -> Execution {
    let exec = sample(engine, spec, seed, n);
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    engine.complete_run(run).unwrap();
    exec
}

#[test]
fn freeze_preserves_every_answer_and_shrinks_the_footprint() {
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::bioaid_nonrecursive())
        .ingest_workers(2)
        .build();
    let run = engine.open_run(SpecId(0)).unwrap();
    let mut rng = StdRng::seed_from_u64(41);
    let gen = RunGenerator::new(&engine.context(SpecId(0)).unwrap().spec)
        .target_size(120)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    // Freezing a live run is refused — the labeler is still needed.
    assert_eq!(
        engine.freeze_run(run).unwrap_err(),
        ServiceError::NotCompleted(run, RunStatus::Live)
    );
    engine.complete_run(run).unwrap();

    // Record the hot answers, then freeze.
    let hot = engine.handle(run).unwrap();
    assert_eq!(hot.tier(), Tier::Hot);
    let before = engine.stats();
    assert!(before.label_bits_total > 0);
    engine.freeze_run(run).unwrap();
    engine.freeze_run(run).unwrap(); // idempotent
    assert_eq!(engine.run_tier(run).unwrap(), Tier::Frozen);
    assert_eq!(engine.run_status(run).unwrap(), RunStatus::Completed);

    // The old hot handle still answers; a fresh handle decodes from
    // the arena; both agree with the ground-truth oracle everywhere.
    let frozen = engine.handle(run).unwrap();
    assert_eq!(frozen.tier(), Tier::Frozen);
    assert_eq!(frozen.published(), exec.len());
    let oracle = wf_graph::reach::ReachOracle::new(&gen.graph);
    for a in gen.graph.vertices() {
        for b in gen.graph.vertices() {
            let want = Some(oracle.reaches(a, b));
            assert_eq!(frozen.reach(a, b), want, "frozen {a:?};{b:?}");
            assert_eq!(hot.reach(a, b), want, "stale hot handle {a:?};{b:?}");
        }
    }
    // Writes through any handle are rejected with Completed.
    assert!(matches!(
        frozen.submit(&exec.events()[0]).unwrap_err(),
        ServiceError::RunNotLive(_, RunStatus::Completed)
    ));

    // Per-tier stats: the run moved out of the hot columns.
    let after = engine.stats();
    assert_eq!(after.runs_frozen, 1);
    assert_eq!(after.freezes, 1);
    assert_eq!(after.label_bits_total, 0, "hot tier emptied");
    assert!(after.frozen_bytes > 0);
    assert_eq!(after.frozen_label_bits, before.label_bits_total);
    assert_eq!(after.labels_published as usize, exec.len());
    assert!(after.tier_footprint_json().contains("\"runs_frozen\":1"));
}

#[test]
fn persist_and_reload_across_engine_lifetimes() {
    let dir = TempDir::new("reload");
    let (run, gen, exec, name) = {
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .ingest_workers(2)
            .spill_dir(&dir.0)
            .build();
        let run = engine.open_run(SpecId(0)).unwrap();
        let mut rng = StdRng::seed_from_u64(53);
        let gen = RunGenerator::new(&engine.context(SpecId(0)).unwrap().spec)
            .target_size(90)
            .generate_run(&mut rng);
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        engine.complete_run(run).unwrap();
        // Answer a few queries while hot, then tier out: the
        // engine-wide query counter must stay monotone across both
        // transitions (it travels with the run).
        let hot = engine.handle(run).unwrap();
        for ev in &exec.events()[..4] {
            hot.reach(exec.events()[0].vertex, ev.vertex).unwrap();
        }
        let queries_before = engine.stats().queries_answered;
        assert!(queries_before >= 4);
        engine.persist_run(run).unwrap(); // freezes, then spills
        assert_eq!(engine.run_tier(run).unwrap(), Tier::Persisted);
        let s = engine.stats();
        assert_eq!((s.freezes, s.spills, s.runs_persisted), (1, 1, 1));
        assert!(s.persisted_bytes > 0);
        assert!(
            s.queries_answered >= queries_before,
            "query counter went backwards across tiering: {} < {queries_before}",
            s.queries_answered
        );
        // Still answers after the arena moved to disk (lazy mapping).
        let h = engine.handle(run).unwrap();
        assert_eq!(h.tier(), Tier::Persisted);
        let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
        assert_eq!(h.reach(u, v), Some(true));
        let name = exec.events()[1].name;
        (run, gen, exec, name)
    };
    // A brand-new engine over the same spill dir sees the history.
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .spill_dir(&dir.0)
        .build();
    assert_eq!(engine.run_tier(run).unwrap(), Tier::Persisted);
    assert_eq!(engine.run_status(run).unwrap(), RunStatus::Completed);
    let h = engine.handle(run).unwrap();
    assert_eq!(h.published(), exec.len());
    let oracle = wf_graph::reach::ReachOracle::new(&gen.graph);
    for a in gen.graph.vertices() {
        for b in gen.graph.vertices() {
            assert_eq!(h.reach(a, b), Some(oracle.reaches(a, b)), "{a:?};{b:?}");
        }
    }
    // Cross-run queries span the reloaded history…
    assert_eq!(
        engine
            .query()
            .completed()
            .runs_reaching_named_from_source(name),
        vec![run]
    );
    // …and new runs get fresh ids above it.
    let next = engine.open_run(SpecId(0)).unwrap();
    assert!(next.0 > run.0, "fresh ids start above reloaded history");
}

#[test]
fn tiering_worker_enforces_the_recency_bound() {
    let dir = TempDir::new("policy");
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .ingest_workers(2)
        .freeze_after(2)
        .spill_dir(&dir.0)
        .build();
    let mut runs = Vec::new();
    for i in 0..5 {
        let run = engine.open_run(SpecId(0)).unwrap();
        ingest_run(&engine, run, SpecId(0), 100 + i, 40);
        runs.push(run);
    }
    // One more run that stays live: it counts toward the hot tier, never
    // toward the bound, so it is never frozen however far over it.
    let live = engine.open_run(SpecId(0)).unwrap();
    // The worker keeps ≤2 completed runs hot; the 3 oldest spill all
    // the way to disk. Poll briefly (the worker is asynchronous).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let s = engine.stats();
        if s.runs_persisted == 3 && s.runs_hot == 3 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "tiering worker never converged: {s}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // Oldest completions went first.
    assert_eq!(engine.run_tier(runs[0]).unwrap(), Tier::Persisted);
    assert_eq!(engine.run_tier(runs[1]).unwrap(), Tier::Persisted);
    assert_eq!(engine.run_tier(runs[2]).unwrap(), Tier::Persisted);
    assert_eq!(engine.run_tier(runs[3]).unwrap(), Tier::Hot);
    assert_eq!(engine.run_tier(runs[4]).unwrap(), Tier::Hot);
    assert_eq!(engine.run_tier(live).unwrap(), Tier::Hot);
    assert_eq!(engine.run_status(live).unwrap(), RunStatus::Live);
    assert!(
        engine.take_ingest_errors().is_empty(),
        "no tiering failures"
    );
    // Every run still answers its own queries.
    for &run in &runs {
        let h = engine.handle(run).unwrap();
        let src = h.source().unwrap();
        assert_eq!(h.reach(src, src), Some(true));
    }
    // The cross-run surface sees all five, tier-transparently.
    assert_eq!(engine.query().completed().run_ids().len(), 5);
    assert_eq!(engine.query().tier(Tier::Persisted).run_ids().len(), 3);
}

/// Let a 10 ms watchdog sample twenty intervals, then assert that it
/// never saw a tiering backlog: completed runs the policy has no reason
/// to move are not work the tiering worker owes.
fn assert_no_tiering_backlog(engine: &WfEngine, what: &str) {
    std::thread::sleep(std::time::Duration::from_millis(200));
    let stalls: Vec<String> = engine
        .trace_dump()
        .into_iter()
        .filter(|e| e.kind == "stall" && e.detail.contains("tiering_backlog"))
        .map(|e| e.detail)
        .collect();
    assert!(stalls.is_empty(), "{what}: {stalls:?}");
    assert_eq!(engine.health(), Health::Healthy, "{what}");
}

fn watched(builder: EngineBuilder) -> WfEngine {
    builder
        .spec(wf_spec::corpus::running_example())
        .watchdog(std::time::Duration::from_millis(10))
        .build()
}

/// Without a recency bound no completion is the tiering worker's
/// business: forty completions under a compaction-only policy are no
/// backlog.
#[test]
fn completions_under_a_compaction_only_policy_are_no_backlog() {
    let dir = TempDir::new("compact-only");
    let engine = watched(WfEngine::builder().spill_dir(&dir.0).compact_after(4));
    for i in 0..40 {
        let run = engine.open_run(SpecId(0)).unwrap();
        ingest_run(&engine, run, SpecId(0), 200 + i, 10);
    }
    assert_eq!(engine.stats().runs_hot, 40);
    assert_no_tiering_backlog(&engine, "compact_after only");
}

/// A hot tier holding exactly the completed runs its bound allows is
/// idle, not behind.
#[test]
fn a_full_recency_bound_is_no_backlog() {
    let engine = watched(WfEngine::builder().freeze_after(32));
    for i in 0..32 {
        let run = engine.open_run(SpecId(0)).unwrap();
        ingest_run(&engine, run, SpecId(0), 300 + i, 10);
    }
    assert_no_tiering_backlog(&engine, "freeze_after(32), 32 completed");
    assert_eq!(engine.stats().runs_hot, 32, "nothing over the bound moved");
}

/// Runs frozen by hand have left the hot tier: the policy keeps no
/// record of them to go stale.
#[test]
fn manually_frozen_runs_are_no_backlog() {
    let engine = watched(WfEngine::builder().freeze_after(1000));
    for i in 0..50 {
        let run = engine.open_run(SpecId(0)).unwrap();
        ingest_run(&engine, run, SpecId(0), 400 + i, 10);
        engine.freeze_run(run).unwrap();
    }
    assert_no_tiering_backlog(&engine, "50 manual freezes");
    assert_eq!(engine.stats().runs_frozen, 50);
}

#[test]
fn persist_without_spill_dir_is_rejected() {
    let engine = engine();
    let run = engine.open_run(SpecId(0)).unwrap();
    ingest_run(&engine, run, SpecId(0), 3, 30);
    assert_eq!(
        engine.persist_run(run).unwrap_err(),
        ServiceError::NoSpillDir
    );
    assert_eq!(engine.spill_dir(), None);
    // Eviction works from the frozen tier too.
    engine.freeze_run(run).unwrap();
    engine.evict_run(run).unwrap();
    assert_eq!(
        engine.run_tier(run).unwrap_err(),
        ServiceError::UnknownRun(run)
    );
}

#[test]
fn compaction_packs_segments_and_survives_restart() {
    let dir = TempDir::new("compact");
    let spec = wf_spec::corpus::running_example();
    let mut payloads = Vec::new();
    let build = || -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .ingest_workers(2)
            .spill_dir(&dir.0)
            .build()
    };
    {
        // Three lifetimes of two spills: the spills of one lifetime share
        // a pack, and each lifetime opens a new one.
        for lifetime in 0..3u64 {
            let engine = build();
            for i in [2 * lifetime, 2 * lifetime + 1] {
                let run = engine.open_run(SpecId(0)).unwrap();
                let exec = ingest_run(&engine, run, SpecId(0), 200 + i, 40);
                engine.persist_run(run).unwrap();
                payloads.push((run, exec));
            }
        }
        let engine = build();
        let before = engine.stats();
        assert_eq!(before.segment_files, 3, "one pack per lifetime");
        let report = engine.compact().unwrap();
        assert_eq!(report.files_before, 3);
        assert_eq!(report.files_after, 1, "three packs of two → one pack");
        assert_eq!(report.runs_packed, 6);
        assert_eq!(report.packs_written, 1);
        assert_eq!(report.bytes_after, report.bytes_before, "blobs verbatim");
        assert!(report.json().contains("\"files_after\":1"));
        let after = engine.stats();
        assert_eq!(after.segment_files, 1);
        assert_eq!(after.compactions, 1);
        // A second pass has one underfull pack: nothing to merge.
        let again = engine.compact().unwrap();
        assert_eq!(again.runs_packed, 0);
        // Queries answer through the packed offsets.
        for (run, exec) in &payloads {
            let h = engine.handle(*run).unwrap();
            assert_eq!(h.tier(), Tier::Persisted);
            let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
            assert_eq!(h.reach(u, v), Some(true));
        }
    }
    // The three packs of two are gone; only the merged pack (the
    // fourth name handed out) + manifest stay.
    let seg_files: Vec<String> = std::fs::read_dir(&dir.0)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".wfseg"))
        .collect();
    assert_eq!(seg_files, vec!["pack-3.wfseg".to_string()]);
    // A fresh engine reloads everything from the packed manifest.
    let engine = build();
    for (run, exec) in &payloads {
        assert_eq!(engine.run_tier(*run).unwrap(), Tier::Persisted);
        let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
        assert_eq!(engine.reach(*run, u, v).unwrap(), Some(true));
    }
    assert_eq!(engine.stats().segment_files, 1);
}

#[test]
fn reheat_promotes_a_persisted_run_to_resident() {
    let dir = TempDir::new("reheat");
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .ingest_workers(2)
        .spill_dir(&dir.0)
        .build();
    let run = engine.open_run(SpecId(0)).unwrap();
    let exec = ingest_run(&engine, run, SpecId(0), 9, 40);
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    // Twice: the round trip back to disk and up again repeats.
    for n in 1..=2 {
        engine.persist_run(run).unwrap();
        assert_eq!(engine.run_tier(run).unwrap(), Tier::Persisted);
        // One query through the persisted tier, then promote.
        assert_eq!(engine.reach(run, u, v).unwrap(), Some(true));
        let queries_before = engine.stats().queries_answered;
        engine.reheat_run(run).unwrap();
        assert_eq!(engine.run_tier(run).unwrap(), Tier::Frozen);
        assert_eq!(engine.run_status(run).unwrap(), RunStatus::Completed);
        engine.reheat_run(run).unwrap(); // idempotent
        let s = engine.stats();
        assert_eq!(s.reheats, n);
        assert_eq!((s.runs_hot, s.runs_frozen, s.runs_persisted), (0, 1, 0));
        assert!(s.frozen_bytes > 0, "resident again");
        assert_eq!(
            s.queries_answered, queries_before,
            "query counter survives the promotion"
        );
        // Queries keep answering, and the pin counter stays flat: a
        // re-heated run never touches the segment again.
        let pins = s.pack_pins;
        assert_eq!(engine.reach(run, u, v).unwrap(), Some(true));
        assert_eq!(engine.stats().pack_pins, pins);
    }
}

#[test]
fn lru_sheds_resident_arenas_under_the_byte_budget() {
    let dir = TempDir::new("lru");
    // A 1-byte budget: at most one blob survives each enforcement
    // pass (the just-pinned one is protected).
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .ingest_workers(2)
        .spill_dir(&dir.0)
        .max_resident_bytes(1)
        .build();
    let mut payloads = Vec::new();
    for i in 0..4u64 {
        let run = engine.open_run(SpecId(0)).unwrap();
        let exec = ingest_run(&engine, run, SpecId(0), 300 + i, 40);
        engine.persist_run(run).unwrap();
        payloads.push((run, exec));
    }
    assert_eq!(engine.stats().persisted_resident_bytes, 0, "all cold");
    let mut max_resident = 0;
    for (run, exec) in &payloads {
        let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
        assert_eq!(engine.reach(*run, u, v).unwrap(), Some(true));
        max_resident = max_resident.max(engine.stats().persisted_resident_bytes);
    }
    let s = engine.stats();
    assert_eq!(s.pack_pins, 4, "each run pinned in once");
    assert!(
        s.segment_sheds >= 3,
        "earlier blobs were shed: {} sheds",
        s.segment_sheds
    );
    // The budget bounds residency to one blob at a time.
    let h = engine.handle(payloads[3].0).unwrap();
    assert!(h.is_resident(), "most recent pin survives");
    assert!(!engine.handle(payloads[0].0).unwrap().is_resident());
    // Repeat queries on the resident run never re-pin it…
    let pins = s.pack_pins;
    let (run, exec) = &payloads[3];
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    for _ in 0..8 {
        assert_eq!(engine.reach(*run, u, v).unwrap(), Some(true));
    }
    assert_eq!(engine.stats().pack_pins, pins, "no re-pin");
    // …and the resident-only query scope sees exactly that run.
    assert_eq!(
        engine.query().resident().run_ids(),
        vec![*run],
        "resident scope skips cold segments without faulting them"
    );
    assert_eq!(engine.query().completed().run_ids().len(), 4);
}

#[test]
fn handles_are_cloneable_and_outlive_the_engine() {
    let engine = engine();
    let run = engine.open_run(SpecId(0)).unwrap();
    let exec = sample(&engine, SpecId(0), 31, 30);
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    let handle = engine.handle(run).unwrap();
    let clone = handle.clone();
    drop(engine); // implicit drain: joins the pool, closes ingest
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    // Both clones still answer from the reference-counted slot…
    assert_eq!(handle.reach(u, v), Some(true));
    assert_eq!(clone.reach(u, v), Some(true));
    assert_eq!(clone.source(), Some(u));
    // …but cannot keep writing into the orphaned registry.
    assert_eq!(
        clone.submit(&exec.events()[0]).unwrap_err(),
        ServiceError::ShuttingDown
    );
}
