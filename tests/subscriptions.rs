//! Standing queries: incremental delta streams vs. the full-rescan
//! oracle.
//!
//! The acceptance bar is **set equality at quiescence**: after ingest
//! stops and the tiering churn settles, the accumulated `Added` minus
//! `Removed` deltas of every subscription must equal the identically
//! scoped pull query's answer — across concurrent ingest, freeze /
//! persist / re-heat transitions, and subscribers registered mid-stream.
//! Along the way the stream must never duplicate an `Added`, never
//! `Removed` something it did not deliver, and account for overflow
//! exactly (`delivered + dropped == produced`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use wf_provenance::prelude::*;

/// A temp dir that cleans up after itself (no tempfile crate offline).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let base = std::env::var_os("WF_TIER_TEST_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!(
            "wf-subs-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spec_for(seed: u64) -> Specification {
    if seed.is_multiple_of(2) {
        wf_spec::corpus::running_example()
    } else {
        wf_spec::corpus::bioaid_nonrecursive()
    }
}

fn sample_exec(spec: &Specification, seed: u64, target: usize) -> Execution {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = RunGenerator::new(spec)
        .target_size(target)
        .generate_run(&mut rng);
    Execution::deterministic(&gen.graph, &gen.origin)
}

/// Drain every queued delta without blocking.
fn drain(sub: &Subscription) -> Vec<Delta> {
    let mut out = Vec::new();
    while let Some(d) = sub.try_recv() {
        out.push(d);
    }
    out
}

/// Replay a delta stream into its accumulated state, checking stream
/// invariants along the way: no duplicate `Added`, `Removed` only for a
/// currently delivered witness. Returns (active set, completions,
/// lagged total).
fn accumulate(deltas: &[Delta]) -> (HashSet<(RunId, Witness)>, Vec<RunId>, u64) {
    let mut active: HashSet<(RunId, Witness)> = HashSet::new();
    let mut completed = Vec::new();
    let mut lagged = 0u64;
    for d in deltas {
        match d {
            Delta::Added { run, witness } => {
                assert!(
                    active.insert((*run, witness.clone())),
                    "duplicate Added for {run:?} {witness:?}"
                );
            }
            Delta::Removed { run, witness } => {
                assert!(
                    active.remove(&(*run, witness.clone())),
                    "Removed without a delivered Added for {run:?} {witness:?}"
                );
            }
            Delta::RunCompleted { run } => completed.push(*run),
            Delta::Lagged { dropped } => lagged += dropped,
        }
    }
    (active, completed, lagged)
}

/// The two most frequent names of an execution (most frequent first).
fn frequent_names(exec: &Execution) -> Vec<NameId> {
    let mut counts: HashMap<NameId, usize> = HashMap::new();
    for ev in exec.events() {
        *counts.entry(ev.name).or_default() += 1;
    }
    let mut names: Vec<(NameId, usize)> = counts.into_iter().collect();
    names.sort_by_key(|(n, c)| (std::cmp::Reverse(*c), n.0));
    names.into_iter().map(|(n, _)| n).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concurrent ingest + freeze/persist/re-heat churn + mid-stream
    /// registration, raced against the full-rescan pull oracle. Four
    /// subscription flavors (plain, spec-scoped, completed-only, and
    /// mid-stream on every predicate kind) must all converge on the pull
    /// answer with zero duplicates and zero drops — the churn changes no
    /// match.
    #[test]
    fn delta_streams_equal_full_rescan_oracle(
        seed in 0u64..10_000,
        target in 40usize..120,
    ) {
        let dir = TempDir::new("oracle");
        let spec = spec_for(seed);
        let execs: Vec<Execution> = (0..3)
            .map(|i| sample_exec(&spec, seed.wrapping_add(i * 7919), target))
            .collect();
        let names = frequent_names(&execs[0]);
        let (n0, n1) = (names[0], names[names.len().min(2) - 1]);

        let engine: WfEngine = WfEngine::builder()
            .spec(spec.clone())
            .ingest_workers(2)
            .spill_dir(&dir.0)
            // Big enough that nothing lags: the oracle needs every delta.
            .sub_queue_capacity(1 << 16)
            .build();

        // Registered before any ingest: catch-up sees an empty fleet.
        let sub_vertices = engine.subscribe(SubPredicate::vertices_named(n0));
        let sub_reaching =
            engine.subscribe(SubPredicate::runs_reaching_named_from_source(n0).spec(SpecId(0)));
        let sub_linking = engine.subscribe(SubPredicate::runs_linking(n0, n1));
        let sub_completed = engine.subscribe(SubPredicate::vertices_named(n0).completed());

        // Run 0 lands fully before the churn starts (it is the churn's
        // subject); runs 1 and 2 ingest concurrently with the churn and
        // the mid-stream registration.
        let r0 = engine.open_run(SpecId(0)).unwrap();
        for ev in execs[0].events() {
            engine.submit(r0, ev).unwrap();
        }
        engine.complete_run(r0).unwrap();

        let (mid, mid_reaching, mid_linking) = std::thread::scope(|s| {
            let churn = s.spawn(|| {
                // freeze → (persist → reheat) × 2 → persist: ends
                // Persisted.
                engine.freeze_run(r0).unwrap();
                for _ in 0..2 {
                    engine.persist_run(r0).unwrap();
                    engine.reheat_run(r0).unwrap();
                }
                engine.persist_run(r0).unwrap();
            });
            let ingest = s.spawn(|| {
                for exec in &execs[1..] {
                    let run = engine.open_run(SpecId(0)).unwrap();
                    for ev in exec.events() {
                        engine.submit(run, ev).unwrap();
                    }
                    engine.complete_run(run).unwrap();
                }
            });
            // Registered while both threads are live: catch-up races
            // publishes and tier moves. The reaching matcher reads each
            // run's source back from the run as candidates arrive, so a
            // candidate it sees must imply a source it sees.
            let mid = engine.subscribe(SubPredicate::vertices_named(n0));
            let mid_reaching =
                engine.subscribe(SubPredicate::runs_reaching_named_from_source(n0));
            let mid_linking = engine.subscribe(SubPredicate::runs_linking(n0, n1));
            churn.join().unwrap();
            ingest.join().unwrap();
            (mid, mid_reaching, mid_linking)
        });
        engine.flush();
        prop_assert_eq!(engine.run_tier(r0).unwrap(), Tier::Persisted);

        // Pull oracles, at quiescence.
        let oracle_vertices: HashSet<(RunId, Witness)> = engine
            .query()
            .vertices_named(n0)
            .into_iter()
            .flat_map(|(run, vs)| vs.into_iter().map(move |v| (run, Witness::Vertex(v))))
            .collect();
        let oracle_reaching: HashSet<(RunId, Witness)> = engine
            .query()
            .spec(SpecId(0))
            .reaching_named_from_source(n0)
            .into_iter()
            .flat_map(|r| {
                let run = r.run;
                r.witnesses
                    .into_iter()
                    .map(move |target| (run, Witness::Reach { target }))
            })
            .collect();
        let oracle_linking: HashSet<RunId> =
            engine.query().runs_linking(n0, n1).into_iter().collect();
        let oracle_completed: HashSet<(RunId, Witness)> = engine
            .query()
            .completed()
            .vertices_named(n0)
            .into_iter()
            .flat_map(|(run, vs)| vs.into_iter().map(move |v| (run, Witness::Vertex(v))))
            .collect();

        let (acc, completions, lagged) = accumulate(&drain(&sub_vertices));
        prop_assert_eq!(lagged, 0);
        prop_assert_eq!(&acc, &oracle_vertices);
        // One edge-triggered RunCompleted per completed run.
        let mut completions = completions;
        completions.sort();
        let mut all_completed = engine.query().completed().run_ids();
        all_completed.sort();
        prop_assert_eq!(completions, all_completed);

        let (acc, _, lagged) = accumulate(&drain(&sub_reaching));
        prop_assert_eq!(lagged, 0);
        prop_assert_eq!(&acc, &oracle_reaching);

        let (acc, _, lagged) = accumulate(&drain(&sub_linking));
        prop_assert_eq!(lagged, 0);
        let linked_runs: HashSet<RunId> = acc.iter().map(|(run, _)| *run).collect();
        prop_assert_eq!(acc.len(), linked_runs.len()); // one Link witness per run
        prop_assert_eq!(&linked_runs, &oracle_linking);

        let (acc, _, lagged) = accumulate(&drain(&sub_completed));
        prop_assert_eq!(lagged, 0);
        prop_assert_eq!(&acc, &oracle_completed);

        let (acc, _, lagged) = accumulate(&drain(&mid));
        prop_assert_eq!(lagged, 0);
        prop_assert_eq!(&acc, &oracle_vertices);

        // One spec, so the unscoped mid-stream reaching stream answers
        // what the spec-scoped oracle does.
        let (acc, _, lagged) = accumulate(&drain(&mid_reaching));
        prop_assert_eq!(lagged, 0);
        prop_assert_eq!(&acc, &oracle_reaching);

        let (acc, _, lagged) = accumulate(&drain(&mid_linking));
        prop_assert_eq!(lagged, 0);
        let linked_runs: HashSet<RunId> = acc.iter().map(|(run, _)| *run).collect();
        prop_assert_eq!(acc.len(), linked_runs.len());
        prop_assert_eq!(&linked_runs, &oracle_linking);
    }
}

/// Overflow accounting is exact: with a tiny queue, `delivered +
/// dropped == produced`, and the `Lagged` signal arrives before any
/// queued delta.
#[test]
fn bounded_queue_overflow_accounts_exactly() {
    let spec = wf_spec::corpus::running_example();
    let exec = sample_exec(&spec, 11, 160);
    let name = frequent_names(&exec)[0];
    let matches = exec.events().iter().filter(|e| e.name == name).count();
    assert!(matches > 4, "need enough matches to overflow");

    let engine: WfEngine = WfEngine::builder()
        .spec(spec)
        .ingest_workers(1)
        .sub_queue_capacity(2)
        .build();
    let sub = engine.subscribe(SubPredicate::vertices_named(name));
    let run = engine.open_run(SpecId(0)).unwrap();
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    engine.complete_run(run).unwrap();
    engine.flush();

    // Produced: one Added per match plus the RunCompleted.
    let produced = matches as u64 + 1;
    let deltas = drain(&sub);
    assert!(
        matches!(deltas.first(), Some(Delta::Lagged { .. })),
        "Lagged must be delivered first, got {:?}",
        deltas.first()
    );
    let delivered = deltas
        .iter()
        .filter(|d| !matches!(d, Delta::Lagged { .. }))
        .count() as u64;
    let dropped: u64 = deltas
        .iter()
        .map(|d| match d {
            Delta::Lagged { dropped } => *dropped,
            _ => 0,
        })
        .sum();
    assert!(delivered <= 2, "queue bound violated: {delivered}");
    assert_eq!(delivered + dropped, produced);
}

/// `completed()` scope defers delivery: matches accumulate silently
/// while the run is live and flush as one batch at completion.
#[test]
fn completed_scope_defers_until_completion() {
    let spec = wf_spec::corpus::running_example();
    let exec = sample_exec(&spec, 9, 50);
    let name = frequent_names(&exec)[0];
    let matches = exec.events().iter().filter(|e| e.name == name).count();

    let engine: WfEngine = WfEngine::builder().spec(spec).ingest_workers(1).build();
    let sub = engine.subscribe(SubPredicate::vertices_named(name).completed());
    let run = engine.open_run(SpecId(0)).unwrap();
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    engine.flush();
    assert!(drain(&sub).is_empty(), "no deltas while the run is live");

    engine.complete_run(run).unwrap();
    engine.flush();
    let (acc, completions, _) = accumulate(&drain(&sub));
    assert_eq!(
        acc.len(),
        matches,
        "completion flushes the accumulated matches"
    );
    assert_eq!(completions, vec![run]);
}

/// Eviction retracts exactly what was delivered, then the stream goes
/// quiet for that run (a stale in-flight notify finds the run gone from
/// the registry and adds nothing).
#[test]
fn eviction_retracts_delivered_witnesses() {
    let spec = wf_spec::corpus::running_example();
    let exec = sample_exec(&spec, 5, 50);
    let name = frequent_names(&exec)[0];

    let engine: WfEngine = WfEngine::builder().spec(spec).ingest_workers(1).build();
    let sub = engine.subscribe(SubPredicate::vertices_named(name));
    let run = engine.open_run(SpecId(0)).unwrap();
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    engine.complete_run(run).unwrap();
    engine.flush();
    let (acc, _, _) = accumulate(&drain(&sub));
    assert!(!acc.is_empty());

    engine.evict_run(run).unwrap();
    let deltas = drain(&sub);
    let removed: HashSet<(RunId, Witness)> = deltas
        .iter()
        .filter_map(|d| match d {
            Delta::Removed { run, witness } => Some((*run, witness.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(removed, acc, "eviction retracts exactly the delivered set");
    assert_eq!(removed.len(), deltas.len(), "nothing but Removed on evict");
}

/// Cloned handles share one stream; dropping the engine closes it —
/// `recv` drains the queue, then returns `None`.
#[test]
fn engine_drop_closes_stream_after_drain() {
    let spec = wf_spec::corpus::running_example();
    let exec = sample_exec(&spec, 7, 40);
    let name = frequent_names(&exec)[0];
    let matches = exec.events().iter().filter(|e| e.name == name).count();

    let engine: WfEngine = WfEngine::builder().spec(spec).ingest_workers(1).build();
    let sub = engine.subscribe(SubPredicate::vertices_named(name));
    let clone = sub.clone();
    let run = engine.open_run(SpecId(0)).unwrap();
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    engine.complete_run(run).unwrap();
    drop(engine);

    assert!(clone.is_closed());
    // Clones share the queue: drain through both handles, then EOF.
    let mut seen = 0usize;
    loop {
        let from = if seen.is_multiple_of(2) { &sub } else { &clone };
        match from.recv() {
            Some(_) => seen += 1,
            None => break,
        }
    }
    assert_eq!(seen, matches + 1); // Added per match + RunCompleted
    assert_eq!(sub.recv(), None);
}

/// A timeout too long to add to the clock has no deadline: it waits like
/// `recv`, and the stream's end wakes it with `None` — it does not
/// overflow the `Instant` it used to compute.
#[test]
fn recv_timeout_beyond_the_clock_waits_for_the_stream_to_end() {
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .ingest_workers(1)
        .build();
    let sub = engine.subscribe(SubPredicate::vertices_named(NameId(0)));
    std::thread::scope(|s| {
        s.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(engine);
        });
        assert_eq!(sub.recv_timeout(std::time::Duration::MAX), None);
    });
    assert!(sub.is_closed());
}

/// Sustained overflow trips the watchdog's `SubLag` cause.
#[test]
fn watchdog_diagnoses_sub_lag() {
    let spec = wf_spec::corpus::running_example();
    let exec = sample_exec(&spec, 13, 200);
    let name = frequent_names(&exec)[0];

    let engine: WfEngine = WfEngine::builder()
        .spec(spec)
        .ingest_workers(1)
        .sub_queue_capacity(1)
        .watchdog(std::time::Duration::from_millis(25))
        .build();
    let _sub = engine.subscribe(SubPredicate::vertices_named(name));
    // Flood: re-ingest fresh runs of the same execution for ~400ms; the
    // 1-deep queue drops nearly every delta, far beyond the 64/tick bar.
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(400);
    let mut flagged = false;
    while std::time::Instant::now() < deadline && !flagged {
        let run = engine.open_run(SpecId(0)).unwrap();
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        engine.complete_run(run).unwrap();
        flagged = match engine.health() {
            Health::Degraded { causes } | Health::Stalled { causes } => {
                causes.contains(&StallCause::SubLag)
            }
            Health::Healthy => false,
        };
    }
    assert!(flagged, "watchdog never diagnosed SubLag");
}
