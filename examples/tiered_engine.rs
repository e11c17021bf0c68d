//! Run lifecycle across the tiered label store:
//! open → completed → **frozen** (encoded arena) →
//! **persisted** (disk snapshot) → **re-heated** (frozen again, resident
//! for query traffic) — with queries answered identically at every stage,
//! the persisted segments **compacted** into packed files, and the
//! per-tier footprint JSON CI harvests.
//!
//! ```text
//! cargo run --release --example tiered_engine
//! ```
//!
//! Three machine-readable stdout lines feed CI artifacts: the
//! `compaction` JSON (before/after file-count + byte stats), the
//! engine's `tier_footprint` JSON (per-tier bytes and transition
//! counts), and the `wal_recovery` JSON (with what the log cost:
//! `wal_bytes` and `bytes_per_event` as journaled before the kill) from
//! the second act: a WAL-backed engine is killed mid-run
//! (`std::mem::forget` — no drain, no Drop, exactly what SIGKILL
//! leaves behind) and a fresh build over the same log resurrects the
//! run and finishes it.

use std::sync::Arc;
use wf_provenance::prelude::*;

fn main() {
    let spec = wf_spec::corpus::bioaid_nonrecursive();
    let spill = std::env::temp_dir().join(format!("wf-tiered-engine-{}", std::process::id()));

    let engine: WfEngine = WfEngine::builder()
        .spec(spec)
        .freeze_after(8) // keep the 8 most recent completions hot
        .spill_dir(&spill) // frozen runs spill to disk automatically
        .max_resident_bytes(256 * 1024) // LRU budget over loaded segments
        .build();
    let ctx = Arc::clone(engine.context(SpecId(0)).unwrap());

    // A fleet of 32 runs: ingest, complete.
    let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
    let mut runs = Vec::new();
    let mut probe = None;
    for _ in 0..32 {
        let run = engine.open_run(SpecId(0)).unwrap();
        let gen = RunGenerator::new(&ctx.spec)
            .target_size(400)
            .generate_run(&mut rng);
        let exec = Execution::random(&gen.graph, &gen.origin, &mut rng);
        for ev in exec.events() {
            engine
                .ingest(ServiceEvent {
                    run,
                    op: RunOp::Insert(ev.clone()),
                })
                .unwrap();
        }
        engine.complete_run(run).unwrap();
        probe.get_or_insert(exec.events()[1].name);
        runs.push((run, exec));
    }

    // Let the background tiering worker converge: 8 hot, the rest cold.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while engine.stats().runs_hot > 8 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let stats = engine.stats();
    println!("engine: {stats}");
    println!(
        "tiers: {} hot / {} frozen / {} persisted ({} freezes, {} spills)",
        stats.runs_hot, stats.runs_frozen, stats.runs_persisted, stats.freezes, stats.spills
    );

    // Compaction: the spilled runs were appended to the one pack this
    // lifetime opened, so the pass closes it and has nothing to merge
    // (the CI compaction artifact is this line).
    let report = engine.compact().expect("spill dir configured");
    println!("{}", report.json());
    println!(
        "compaction: {} segment files → {} ({} runs packed)",
        report.files_before, report.files_after, report.runs_packed
    );

    // Re-heat: the oldest run sees query traffic again — promote it
    // back to the resident (frozen) tier; queries stop touching disk.
    let oldest = runs[0].0;
    engine.reheat_run(oldest).expect("persisted run re-heats");
    println!(
        "re-heat: {oldest} promoted {:?} → {:?}",
        Tier::Persisted,
        engine.run_tier(oldest).unwrap()
    );

    // Tier-transparent queries: every run answers, whatever its tier,
    // and the answers agree with a fresh handle taken *after* tiering.
    let probe = probe.unwrap();
    let hits = engine
        .query()
        .completed()
        .runs_reaching_named_from_source(probe);
    println!(
        "cross-run scan (name {probe:?}): {} of {} completed runs hit, across all tiers",
        hits.len(),
        runs.len()
    );
    for (run, exec) in &runs {
        let h = engine.handle(*run).unwrap();
        let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
        assert_eq!(h.reach(u, v), Some(true), "{run} ({:?} tier)", h.tier());
    }

    // Per-tier memory: hot resident vs frozen arena vs disk segments,
    // plus the LRU's view of the persisted tier after the query sweep.
    let stats = engine.stats();
    println!(
        "memory: hot {} B resident ({} B accounting) | frozen {} B | \
         disk {} B in {} files ({} B resident, {} loads, {} sheds)",
        stats.hot_resident_bytes,
        stats.hot_bytes(),
        stats.frozen_bytes,
        stats.persisted_bytes,
        stats.segment_files,
        stats.persisted_resident_bytes,
        stats.pack_pins,
        stats.segment_sheds,
    );

    // Machine-readable footprint line: CI uploads this.
    println!("{}", stats.tier_footprint_json());

    drop(engine);
    let _ = std::fs::remove_dir_all(&spill);

    // ---- Act 2: durable ingest — kill the engine, recover the log. ----
    //
    // With a `wal_dir`, every event acknowledged by `flush()` (the
    // group-commit durability barrier) survives a crash: the next build
    // over the same directory replays the log and resurrects the run
    // mid-stream. Simulate the kill with `std::mem::forget` — the
    // engine is never drained and never dropped, exactly the state a
    // SIGKILL leaves behind.
    let wal = std::env::temp_dir().join(format!("wf-tiered-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal);
    let window = std::time::Duration::from_millis(2);
    let (run, exec, cut, journaled) = {
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::bioaid_nonrecursive())
            .ingest_workers(2)
            .wal_dir(&wal)
            .wal_sync(WalSync::GroupCommit { window })
            .build();
        let ctx = Arc::clone(engine.context(SpecId(0)).unwrap());
        let gen = RunGenerator::new(&ctx.spec)
            .target_size(300)
            .generate_run(&mut rng);
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        let run = engine.open_run(SpecId(0)).unwrap();
        let cut = exec.events().len() * 2 / 3;
        for ev in &exec.events()[..cut] {
            engine
                .ingest(ServiceEvent {
                    run,
                    op: RunOp::Insert(ev.clone()),
                })
                .unwrap();
        }
        engine.flush(); // durability barrier: everything above is on disk
        let journaled = engine.stats();
        std::mem::forget(engine); // "SIGKILL" — no drain, no Drop
        (run, exec, cut, journaled)
    };

    // A fresh engine over the same WAL dir resurrects the crashed run…
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::bioaid_nonrecursive())
        .ingest_workers(2)
        .wal_dir(&wal)
        .wal_sync(WalSync::GroupCommit { window })
        .build();
    let stats = engine.stats();
    let h = engine.handle(run).expect("crashed run recovered");
    assert_eq!(h.published(), cut, "every acknowledged event survives");
    // …and the stream continues right where the crash cut it off.
    for ev in &exec.events()[cut..] {
        engine
            .ingest(ServiceEvent {
                run,
                op: RunOp::Insert(ev.clone()),
            })
            .unwrap();
    }
    engine.flush();
    engine.complete_run(run).unwrap();
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    assert_eq!(h.reach(u, v), Some(true));
    println!(
        "{{\"metric\":\"wal_recovery\",\"recovered_runs\":{},\"recovered_records\":{},\"resumed_at\":{},\"events\":{},\"wal_bytes\":{},\"bytes_per_event\":{:.2}}}",
        stats.wal_recovered_runs,
        stats.wal_recovered_records,
        cut,
        exec.events().len(),
        journaled.wal_bytes,
        journaled.wal_bytes as f64 / journaled.wal_records as f64
    );
    println!(
        "recovery: {run} resurrected with {cut}/{} acknowledged events, resumed and completed",
        exec.events().len()
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(&wal);

    // ---- Act 3: shed → cold scan → dead-heavy rewrite (the buffer manager). ----
    //
    // A fleet is persisted and packed, then the engine is dropped — the
    // next build starts fully cold, nothing loaded. The cross-run scan
    // loads each blob's frame with one positioned read at its first read
    // (verified once per place), and the replacer drops frames under the
    // resident budget.
    // Re-heating half the fleet back to the frozen tier strands nothing
    // — a re-heated run keeps its blob — but evicting a third of the
    // fleet does: enough dead blobs for `compact()` to rewrite the pack
    // without them and shrink the directory. Its `compaction` JSON line
    // (the second of this example) is the CI artifact.
    let spill = std::env::temp_dir().join(format!("wf-tiered-bufmgr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill);
    let spec = wf_spec::corpus::bioaid_nonrecursive();
    {
        let engine: WfEngine = WfEngine::builder()
            .spec(spec.clone())
            .spill_dir(&spill)
            .build();
        for _ in 0..48 {
            let run = engine.open_run(SpecId(0)).unwrap();
            let gen = RunGenerator::new(&engine.context(SpecId(0)).unwrap().spec)
                .target_size(120)
                .generate_run(&mut rng);
            let exec = Execution::deterministic(&gen.graph, &gen.origin);
            for ev in exec.events() {
                engine.submit(run, ev).unwrap();
            }
            engine.complete_run(run).unwrap();
            engine.persist_run(run).unwrap();
        }
        engine.compact().expect("spill dir configured");
    } // dropped: nothing resident, nothing decoded — a true cold start

    let engine: WfEngine = WfEngine::builder()
        .spec(spec)
        .spill_dir(&spill)
        .max_resident_bytes(64 * 1024)
        .build();
    let cold = std::time::Instant::now();
    let ids = engine.query().completed().run_ids();
    let hits = engine
        .query()
        .completed()
        .runs_reaching_named_from_source(probe);
    let cold_ms = cold.elapsed().as_secs_f64() * 1e3;
    let stats = engine.stats();
    println!(
        "cold scan: {} persisted runs in {cold_ms:.1} ms ({} hits) — \
         {} frames loaded, {} B resident",
        ids.len(),
        hits.len(),
        stats.pack_pins,
        stats.persisted_resident_bytes,
    );

    // Sustained traffic on half the fleet: re-heat those runs back into
    // memory. Their blobs stay live (and listed in the manifest: a crash
    // now would bring them back persisted)…
    for run in &ids[..ids.len() / 2] {
        engine.reheat_run(*run).expect("persisted run re-heats");
    }
    assert_eq!(engine.stats().pack_dead_bytes, 0, "re-heats strand nothing");
    // …evicting is what kills a blob, whichever tier the run is in…
    let (evicted, kept) = ids.split_at(ids.len() / 3);
    for run in evicted {
        engine.evict_run(*run).expect("registered run evicts");
    }
    let dead = engine.stats().pack_dead_bytes;
    // …then let compaction rewrite the dead-heavy pack without them.
    let disk_before: u64 = std::fs::read_dir(&spill)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "wfseg"))
        .map(|e| e.metadata().unwrap().len())
        .sum();
    let report = engine.compact().expect("spill dir configured");
    println!("{}", report.json());
    let disk_after: u64 = std::fs::read_dir(&spill)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "wfseg"))
        .map(|e| e.metadata().unwrap().len())
        .sum();
    assert_eq!(
        report.dead_bytes_reclaimed, dead,
        "a third of the pack was dead"
    );
    assert!(
        disk_after < disk_before,
        "the rewrite shrinks the spill dir"
    );
    println!(
        "dead-heavy rewrite: {dead} dead B across packs → wrote {} pack(s), \
         moved {} runs, disk {disk_before} B → {disk_after} B",
        report.packs_written, report.runs_packed,
    );
    // Survivors still answer after the rewrite, re-heated ones from the
    // arenas they copied out.
    for run in kept {
        assert!(engine.run_tier(*run).is_ok());
    }
    println!("{}", engine.stats().tier_footprint_json());
    drop(engine);
    let _ = std::fs::remove_dir_all(&spill);

    // ---- Act 4: causal tracing, EXPLAIN, and the stall watchdog. ----
    //
    // A fully instrumented engine: a zero slow-op threshold so every
    // span lands in the ring, a 25ms watchdog refreshing `health()`,
    // and a WAL so the EXPLAIN barrier is real. One run is persisted
    // cold, then a profiled fleet query pays the first frame loads on stage —
    // the `QueryProfile` table shows where the time went, and the whole
    // causal forest exports as Chrome `trace_event` JSON
    // (`chrome://tracing` / Perfetto loads it) into `WF_OBS_DUMP_DIR`.
    let spill = std::env::temp_dir().join(format!("wf-tiered-trace-{}", std::process::id()));
    let wal = spill.join("wal");
    let _ = std::fs::remove_dir_all(&spill);
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::bioaid_nonrecursive())
        .ingest_workers(2)
        .spill_dir(&spill)
        .wal_dir(&wal)
        .slow_op_threshold(std::time::Duration::ZERO)
        .trace_capacity(4096)
        .watchdog(std::time::Duration::from_millis(25))
        .build();
    let ctx = Arc::clone(engine.context(SpecId(0)).unwrap());
    let mut probe = None;
    let mut cold_run = None;
    for i in 0..4 {
        let run = engine.open_run(SpecId(0)).unwrap();
        let gen = RunGenerator::new(&ctx.spec)
            .target_size(200)
            .generate_run(&mut rng);
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        for ev in exec.events() {
            engine
                .ingest(ServiceEvent {
                    run,
                    op: RunOp::Insert(ev.clone()),
                })
                .unwrap();
        }
        engine.flush();
        engine.complete_run(run).unwrap();
        probe.get_or_insert(exec.events()[1].name);
        if i == 0 {
            engine.persist_run(run).unwrap();
            cold_run = Some(run);
        }
    }
    let explained = engine
        .query()
        .completed()
        .explain()
        .runs_reaching_named_from_source(probe.unwrap());
    assert!(
        explained.value.contains(&cold_run.unwrap()),
        "the persisted run answers under EXPLAIN"
    );
    print!("{}", explained.profile.table());
    println!("{}", explained.profile.json());
    println!("health: {:?}", engine.health());

    let chrome = engine.trace_chrome();
    if let Some(dir) = std::env::var_os("WF_OBS_DUMP_DIR") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create WF_OBS_DUMP_DIR");
        let path = dir.join("chrome-trace.json");
        std::fs::write(&path, &chrome).expect("write chrome-trace.json");
        // The raw ring too, so `scripts/obsdump --tree` (and --chrome)
        // can re-render the same forest offline.
        let trace: String = engine
            .trace_dump()
            .iter()
            .map(|e| e.json() + "\n")
            .collect();
        std::fs::write(dir.join("trace.jsonl"), trace).expect("write trace.jsonl");
        println!("chrome trace: {} bytes → {}", chrome.len(), path.display());
    } else {
        println!(
            "chrome trace: {} bytes (set WF_OBS_DUMP_DIR to write chrome-trace.json)",
            chrome.len()
        );
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&spill);

    // ---- Act 5: standing queries under tier churn (sub-soak). ----
    //
    // Subscribers registered *before any ingest* watch a fleet soak
    // through ingest → complete → freeze → persist → compact → re-heat
    // → re-persist → compact again, while a consumer thread drains
    // concurrently. The
    // unscoped subscriber's `Added` stream must equal the pull query's
    // answer exactly — no duplicates, no drops, no spurious
    // retractions — and the completion-scoped subscriber must net out
    // to exactly the completed runs' matches: the tier churn sends no
    // delta. The `sub_soak` JSON line (deltas delivered, pull-oracle
    // count, max completion lag seen by the consumer) is the CI artifact.
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    let spill = std::env::temp_dir().join(format!("wf-tiered-subsoak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill);
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::bioaid_nonrecursive())
        .spill_dir(&spill)
        .sub_queue_capacity(1 << 14)
        .build();
    let ctx = Arc::clone(engine.context(SpecId(0)).unwrap());
    // Pre-generate the fleet so the probe name exists before the
    // subscriptions do (mid-stream registration is covered by tests;
    // the soak exercises the from-the-start path).
    let execs: Vec<Execution> = (0..24)
        .map(|_| {
            let gen = RunGenerator::new(&ctx.spec)
                .target_size(120)
                .generate_run(&mut rng);
            Execution::deterministic(&gen.graph, &gen.origin)
        })
        .collect();
    let probe = execs[0].events()[1].name;
    let sub_all = engine.subscribe(SubPredicate::vertices_named(probe));
    let sub_completed = engine.subscribe(SubPredicate::vertices_named(probe).completed());

    let stamps: Mutex<HashMap<u64, Instant>> = Mutex::new(HashMap::new());
    let done = AtomicBool::new(false);
    let (total, added, removed, completions, max_lag_ns) = std::thread::scope(|s| {
        let consumer = s.spawn(|| {
            let (mut total, mut added, mut removed, mut completions) = (0u64, 0u64, 0u64, 0u64);
            let mut max_lag_ns = 0u64;
            loop {
                match sub_all.recv_timeout(Duration::from_millis(5)) {
                    Some(Delta::Added { .. }) => {
                        total += 1;
                        added += 1;
                    }
                    Some(Delta::Removed { .. }) => {
                        total += 1;
                        removed += 1;
                    }
                    Some(Delta::RunCompleted { run }) => {
                        total += 1;
                        completions += 1;
                        let at = stamps.lock().unwrap()[&run.0];
                        max_lag_ns = max_lag_ns.max(at.elapsed().as_nanos() as u64);
                    }
                    Some(Delta::Lagged { dropped }) => {
                        panic!("soak queue must not overflow (dropped {dropped})")
                    }
                    None => {
                        if sub_all.is_closed()
                            || (done.load(Ordering::Acquire) && sub_all.pending() == 0)
                        {
                            break;
                        }
                    }
                }
            }
            (total, added, removed, completions, max_lag_ns)
        });

        // The soak itself: ingest + complete the fleet, then churn the
        // tiers underneath the live subscriptions.
        let runs: Vec<RunId> = execs
            .iter()
            .map(|exec| {
                let run = engine.open_run(SpecId(0)).unwrap();
                for ev in exec.events() {
                    engine.submit(run, ev).unwrap();
                }
                stamps.lock().unwrap().insert(run.0, Instant::now());
                engine.complete_run(run).unwrap();
                run
            })
            .collect();
        for (i, &run) in runs.iter().enumerate() {
            match i % 3 {
                0 => {} // stays hot
                1 => engine.freeze_run(run).unwrap(),
                _ => engine.persist_run(run).unwrap(),
            }
        }
        engine.compact().expect("spill dir configured");
        // Re-heat half the persisted runs, then send them back: each
        // still has its blob, so nothing is written.
        let persisted: Vec<RunId> = runs
            .iter()
            .copied()
            .filter(|&r| engine.run_tier(r).unwrap() == Tier::Persisted)
            .collect();
        let reheated = &persisted[..persisted.len() / 2];
        for run in reheated {
            engine.reheat_run(*run).unwrap();
        }
        let before = engine.stats();
        for run in reheated {
            engine.persist_run(*run).unwrap();
        }
        let after = engine.stats();
        assert_eq!(
            (after.spills, after.segment_files, after.pack_dead_bytes),
            (before.spills, before.segment_files, 0),
            "re-persisting a re-heated run writes nothing"
        );
        // Spill the hot third and compact again: a rewrite moves every
        // persisted blob under the live subscriptions.
        for run in runs.iter().step_by(3) {
            engine.persist_run(*run).unwrap();
        }
        let report = engine.compact().expect("spill dir configured");
        assert_eq!((report.files_after, report.packs_written), (1, 1));
        done.store(true, Ordering::Release);
        consumer.join().unwrap()
    });

    // Pull-side oracle: the same predicate answered by a full rescan.
    // Registered-before-first-event subscriptions must agree exactly.
    let oracle: usize = engine
        .query()
        .vertices_named(probe)
        .iter()
        .map(|(_, vs)| vs.len())
        .sum();
    assert_eq!(added as usize, oracle, "push stream == pull rescan");
    assert_eq!(removed, 0, "nothing was evicted, nothing retracts");
    assert_eq!(completions, 24, "every completion is delivered");

    // The completion-scoped stream nets out to the completed runs'
    // matches: each completion added its run's witnesses, and no freeze,
    // spill, re-heat or rewrite added or retracted one.
    let (mut c_added, mut c_removed) = (0i64, 0i64);
    while let Some(d) = sub_completed.try_recv() {
        match d {
            Delta::Added { .. } => c_added += 1,
            Delta::Removed { .. } => c_removed += 1,
            Delta::RunCompleted { .. } => {}
            Delta::Lagged { dropped } => panic!("completed sub overflowed (dropped {dropped})"),
        }
    }
    let completed_oracle: usize = engine
        .query()
        .completed()
        .vertices_named(probe)
        .iter()
        .map(|(_, vs)| vs.len())
        .sum();
    assert_eq!(
        (c_added - c_removed) as usize,
        completed_oracle,
        "completion-scoped stream nets to the completed runs' matches"
    );

    println!(
        "{{\"metric\":\"sub_soak\",\"deltas\":{total},\"oracle\":{oracle},\
         \"max_lag_ns\":{max_lag_ns},\"completed_net\":{},\"completed_oracle\":{completed_oracle}}}",
        c_added - c_removed
    );
    println!(
        "sub-soak: {added} adds + {completions} completions delivered across the churn, \
         max completion lag {:.2} ms",
        max_lag_ns as f64 / 1e6
    );
    drop(sub_all);
    drop(sub_completed);
    drop(engine);
    let _ = std::fs::remove_dir_all(&spill);
}
