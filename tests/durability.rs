//! Durable ingest: WAL crash recovery, torn tails, the group-commit
//! flush barrier, and checkpoint truncation.
//!
//! The acceptance bar mirrors tiering's: a recovered engine must answer
//! `reach()` for the durable prefix of every run *identically* to
//! [`NaiveDynamicDag`] replaying that same prefix — no phantom events,
//! no lost ones below the watermark. Crashes are injected two ways: an
//! in-process rebuild over a live engine's WAL directory (flushed at the
//! crash point, never drained or dropped: the disk state a kill right
//! after a `flush()` leaves), and a real child-process `abort()`
//! mid-ingest, with an unflushed tail. Torn tails and bit flips must
//! degrade to a shorter valid prefix, never a panic; checkpoint
//! truncation must leave the log holding only runs the persisted tier
//! does not already own.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Duration;
use wf_provenance::prelude::*;
use wf_service::{wal, Tier};

mod common;
use common::TempDir;

fn spec_for(seed: u64) -> Specification {
    if seed.is_multiple_of(2) {
        wf_spec::corpus::running_example()
    } else {
        wf_spec::corpus::bioaid_nonrecursive()
    }
}

/// Ground truth for the first `n` events: the paper's naive dynamic
/// scheme replaying exactly that prefix.
fn naive_prefix(events: &[ExecEvent], n: usize) -> NaiveDynamicDag {
    let mut naive = NaiveDynamicDag::new();
    for ev in &events[..n] {
        naive.insert(ev.vertex, &ev.preds);
    }
    naive
}

/// Assert a recovered run answers every sampled pair exactly like naive
/// replay of its first `n` events.
fn assert_prefix_answers(h: &RunHandle, events: &[ExecEvent], n: usize) {
    let naive = naive_prefix(events, n);
    for a in events[..n].iter().step_by(3) {
        for b in events[..n].iter().step_by(2) {
            assert_eq!(
                h.reach(a.vertex, b.vertex),
                Some(naive.reaches(a.vertex, b.vertex)),
                "{:?};{:?} after {n} events",
                a.vertex,
                b.vertex
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill-without-drain at an arbitrary point mid-run, recover,
    /// **continue the same run**, kill again after completion, recover
    /// again: both recovered engines answer exactly per naive replay of
    /// the durable prefix, and the run finishes across three engine
    /// lifetimes with three different worker counts (records are
    /// re-homed across shard layouts at each recovery).
    #[test]
    fn recovered_answers_match_naive_prefix_replay(
        seed in 0u64..10_000,
        target in 30usize..120,
    ) {
        let dir = TempDir::new("prop");
        let spec = spec_for(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = RunGenerator::new(&spec).target_size(target).generate_run(&mut rng);
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        let events = exec.events();
        let cut = events.len() / 2 + 1;

        // Lifetime 1: ingest half the run, flush, then "crash" — the
        // engine is never drained or dropped before recovery reads its
        // WAL directory. The flush makes every applied event durable.
        let engine: WfEngine = WfEngine::builder()
            .spec(spec.clone())
            .ingest_workers(2)
            .wal_dir(&dir.0)
            .build();
        let run = engine.open_run(SpecId(0)).unwrap();
        let h = engine.handle(run).unwrap();
        for ev in &events[..cut] {
            h.submit(ev).unwrap();
        }
        engine.flush();

        // Lifetime 2 recovers the prefix and finishes the run.
        let recovered: WfEngine = WfEngine::builder()
            .spec(spec.clone())
            .ingest_workers(1)
            .wal_dir(&dir.0)
            .build();
        let s = recovered.stats();
        prop_assert_eq!(s.wal_recovered_runs, 1);
        prop_assert!(s.wal_recovered_records > cut as u64);
        prop_assert_eq!(recovered.run_status(run).unwrap(), RunStatus::Live);
        let h2 = recovered.handle(run).unwrap();
        prop_assert_eq!(h2.published(), cut);
        assert_prefix_answers(&h2, events, cut);
        for ev in &events[cut..] {
            h2.submit(ev).unwrap();
        }
        recovered.complete_run(run).unwrap();
        // The second crash point: a live engine's later drop must find
        // nothing to write into the files the next recovery replaces.
        recovered.flush();
        drop(engine); // the crashed lifetime's threads, reaped late

        // Lifetime 3: the whole run survives, completion included.
        let reloaded: WfEngine = WfEngine::builder()
            .spec(spec)
            .ingest_workers(3)
            .wal_dir(&dir.0)
            .build();
        prop_assert_eq!(reloaded.run_status(run).unwrap(), RunStatus::Completed);
        let h3 = reloaded.handle(run).unwrap();
        prop_assert_eq!(h3.published(), events.len());
        assert_prefix_answers(&h3, events, events.len());
        // A recovered engine opens fresh runs above every replayed id.
        let fresh = reloaded.open_run(SpecId(0)).unwrap();
        prop_assert!(fresh.0 > run.0);
    }
}

/// Under group commit the user-space buffer is *not* readable by a
/// recovery scan until it is written through — and `flush()` is the
/// durability barrier that writes and fsyncs it. A committer window of
/// an hour removes the background fsync from the picture: everything
/// the post-flush scan sees, the barrier put there.
#[test]
fn flush_is_the_group_commit_durability_barrier() {
    let dir = TempDir::new("barrier");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(99);
    let gen = RunGenerator::new(&spec)
        .target_size(80)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let events = exec.events();

    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .ingest_workers(2)
        .wal_dir(&dir.0)
        .wal_sync(WalSync::GroupCommit {
            window: Duration::from_secs(3600),
        })
        .build();
    let run = engine.open_run(SpecId(0)).unwrap();
    for ev in events {
        let op = RunOp::Insert(ev.clone());
        engine.ingest(ServiceEvent { run, op }).unwrap();
    }
    let watermark = engine.flush();
    assert!(watermark >= events.len() as u64);
    let s = engine.stats();
    assert!(s.wal_records > events.len() as u64);
    assert!(s.wal_bytes > 0);

    // Crash-sim: recover the directory while the first engine is live.
    let recovered: WfEngine = WfEngine::builder().spec(spec).wal_dir(&dir.0).build();
    let h = recovered.handle(run).unwrap();
    assert_eq!(
        h.published(),
        events.len(),
        "every event below the flush watermark is durable"
    );
    assert_prefix_answers(&h, events, events.len());
    drop(engine);
}

/// A torn tail — the file cut at *every* byte, the file header's
/// included — or a flipped bit in any byte recovers the longest valid
/// prefix: no panic, answers identical to naive replay of however many
/// events survived, never an event that was not written, and the engine
/// stays usable for fresh runs. A flip inside the file header is the one
/// case with no prefix to trust: the log is refused whole, `health()`
/// says so, and the file is left as it was found.
#[test]
fn torn_tails_and_bit_flips_recover_a_valid_prefix() {
    let dir = TempDir::new("torn");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(4321);
    let gen = RunGenerator::new(&spec)
        .target_size(40)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let events = exec.events();

    // Single worker: one shard file, file order = seq order. The flush
    // puts the whole log on disk before it is read.
    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .ingest_workers(1)
        .wal_dir(&dir.0)
        .build();
    let run = engine.open_run(SpecId(0)).unwrap();
    let h = engine.handle(run).unwrap();
    for ev in events {
        h.submit(ev).unwrap();
    }
    engine.flush();
    drop(engine);
    let shard = dir.0.join(wal::shard_file_name(0));
    let bytes = std::fs::read(&shard).unwrap();
    let header = wal::FILE_HEADER.len();
    assert_eq!(bytes[..header], wal::FILE_HEADER);

    // Recover over `damaged`; how many events came back, `None` when
    // the log was refused instead.
    let verify_prefix = |tag: &str, damaged: &[u8]| -> Option<usize> {
        std::fs::write(&shard, damaged).unwrap();
        let engine: WfEngine = WfEngine::builder()
            .spec(spec.clone())
            .ingest_workers(1)
            .wal_dir(&dir.0)
            .build();
        if engine.health() != Health::Healthy {
            let unavailable = Health::Degraded {
                causes: vec![StallCause::WalUnavailable],
            };
            assert_eq!(engine.health(), unavailable, "{tag}");
            assert!(engine.wal_dir().is_none(), "{tag}");
            assert_eq!(std::fs::read(&shard).unwrap(), damaged, "{tag}: rewritten");
            return None;
        }
        match engine.handle(run) {
            Ok(h) => {
                let n = h.published();
                assert!(n <= events.len(), "{tag}: phantom events");
                assert_prefix_answers(&h, events, n);
                Some(n)
            }
            // The cut beheaded the RunOpen record: the run is gone,
            // which is a valid (empty-prefix) crash state.
            Err(ServiceError::UnknownRun(_)) => Some(0),
            Err(e) => panic!("{tag}: unexpected error {e}"),
        }
    };

    // Every cut point: a cut inside the header is a file that was still
    // being created, and later cuts never bring back fewer events.
    let mut longest = 0;
    for cut in 0..bytes.len() {
        let n = verify_prefix(&format!("cut at {cut}"), &bytes[..cut]);
        let n = n.unwrap_or_else(|| panic!("cut at {cut}: a torn log was refused"));
        assert!(
            n >= longest && (cut >= header || n == 0),
            "cut at {cut}: {n}"
        );
        longest = n;
    }
    assert_eq!(
        longest,
        events.len() - 1,
        "the last cut tears the last event"
    );
    // One bit of every byte: the checksum cuts the prefix at the
    // poisoned frame, the header check refuses the file.
    for pos in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 1 << (pos % 8);
        match verify_prefix(&format!("bit flip at {pos}"), &bad) {
            Some(n) => assert!(
                pos >= header && n < events.len(),
                "flip at {pos} shortened nothing"
            ),
            None => assert!(pos < header, "flip at {pos}: the log was refused"),
        }
    }
    // Intact bytes restore the full run, and the engine still ingests.
    std::fs::write(&shard, &bytes).unwrap();
    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .ingest_workers(1)
        .wal_dir(&dir.0)
        .build();
    assert_eq!(engine.handle(run).unwrap().published(), events.len());
    let fresh = engine.open_run(SpecId(0)).unwrap();
    for ev in events {
        engine.submit(fresh, ev).unwrap();
    }
    engine.flush();
    assert_eq!(engine.handle(fresh).unwrap().published(), events.len());
}

/// FNV-1a, the frame checksum of log versions 1 and 2 — restated here so
/// the test can frame records the engine has no encoder for.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The version-2 shard of a version-3 one: the same header under version
/// 2 and the same frames, each body behind its length and the `u64`
/// FNV-1a version 2 framed it with instead of the CRC-32C.
fn v2_shard(v3: &[u8]) -> Vec<u8> {
    let header = wal::FILE_HEADER.len();
    let mut v2 = v3[..header].to_vec();
    v2[4] = 2;
    let mut at = header;
    while at < v3.len() {
        let width = 1 + v3[at..].iter().take_while(|&&b| b & 0x80 != 0).count();
        let len = v3[at..at + width]
            .iter()
            .rev()
            .fold(0, |len, &b| len << 7 | usize::from(b & 0x7f));
        let body = &v3[at + width + 4..at + width + 4 + len];
        v2.extend_from_slice(&v3[at..at + width]);
        v2.extend_from_slice(&fnv1a(body).to_le_bytes());
        v2.extend_from_slice(body);
        at += width + 4 + len;
    }
    v2
}

/// A log this build cannot read must not silently turn durability off.
/// Over a directory holding one shard file that is not a version-3 log —
/// version-1 frames with no file header, a real shard of this engine
/// framed as version 2 wrote it, or a header with a later version word —
/// the engine still comes up (fresh runs open, ingest and
/// answer `reach`), but `health()` names `WalUnavailable` with or without
/// a watchdog, and the file is byte for byte what it was: after `build()`
/// and after the engine is dropped. Without the header check the reader
/// takes such a file for a tail torn at offset 0 and the log rewrite
/// replaces it with an empty one.
#[test]
fn an_unreadable_log_degrades_health_and_is_left_untouched() {
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(2207);
    let gen = RunGenerator::new(&spec)
        .target_size(40)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);

    // The shard an engine writes for one run, framed as the previous
    // format version framed it.
    let v2 = {
        let dir = TempDir::new("v3-source");
        let engine: WfEngine = WfEngine::builder()
            .spec(spec.clone())
            .ingest_workers(1)
            .wal_dir(&dir.0)
            .build();
        let run = engine.open_run(SpecId(0)).unwrap();
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        engine.flush();
        drop(engine);
        let records = wal::recover(&dir.0).unwrap().records;
        let v3 = std::fs::read(dir.0.join(wal::shard_file_name(0))).unwrap();
        assert_eq!(records, 1 + exec.len() as u64);
        let v2 = v2_shard(&v3);
        assert_eq!(v2.len() as u64, v3.len() as u64 + 4 * records);
        v2
    };
    // Two version-1 frames, `[len: u32][fnv1a: u64][kind][run: u64][seq: u64][payload]`.
    let mut v1 = Vec::new();
    for (kind, seq, payload) in [(0u8, 0u64, &[0u8, 0, 0, 0, 0][..]), (2, 1, &[])] {
        let mut body = vec![kind];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&seq.to_le_bytes());
        body.extend_from_slice(payload);
        v1.extend_from_slice(&(body.len() as u32).to_le_bytes());
        v1.extend_from_slice(&fnv1a(&body).to_le_bytes());
        v1.extend_from_slice(&body);
    }
    let mut v4 = wal::FILE_HEADER.to_vec();
    v4[4] += 1;
    v4.extend_from_slice(b"whatever version 4 puts here");

    for (tag, alien) in [("v1", v1), ("v2", v2), ("v4", v4)] {
        for watchdog in [None, Some(Duration::from_millis(5))] {
            let dir = TempDir::new("alien");
            let shard = dir.0.join(wal::shard_file_name(1));
            std::fs::write(&shard, &alien).unwrap();
            let mut builder = WfEngine::builder()
                .spec(spec.clone())
                .ingest_workers(2)
                .wal_dir(&dir.0);
            if let Some(interval) = watchdog {
                builder = builder.watchdog(interval);
            }
            let engine: WfEngine = builder.build();
            let unavailable = Health::Degraded {
                causes: vec![StallCause::WalUnavailable],
            };
            assert_eq!(engine.health(), unavailable, "{tag}");
            assert_eq!(StallCause::WalUnavailable.tag(), "wal_unavailable");
            assert!(engine.wal_dir().is_none(), "{tag}");
            let refused = engine
                .trace_dump()
                .into_iter()
                .find(|e| e.kind == "wal_recover_failed")
                .unwrap_or_else(|| panic!("{tag}: the refusal was not traced"));
            assert!(
                refused.detail.contains(shard.to_str().unwrap()),
                "{tag}: {}",
                refused.detail
            );
            assert_eq!(std::fs::read(&shard).unwrap(), alien, "{tag}: after build");

            let run = engine.open_run(SpecId(0)).unwrap();
            for ev in exec.events() {
                let op = RunOp::Insert(ev.clone());
                engine.ingest(ServiceEvent { run, op }).unwrap();
            }
            engine.flush();
            let h = engine.handle(run).unwrap();
            assert_prefix_answers(&h, exec.events(), exec.len());
            if let Some(interval) = watchdog {
                // Ticks that find nothing wrong do not clear the cause.
                std::thread::sleep(4 * interval);
            }
            assert_eq!(engine.health(), unavailable, "{tag}");
            assert_eq!(engine.stats().wal_records, 0, "{tag}");
            drop(engine);
            assert_eq!(std::fs::read(&shard).unwrap(), alien, "{tag}: after drop");
            let names: Vec<_> = std::fs::read_dir(&dir.0)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            assert_eq!(names, [shard.file_name().unwrap()], "{tag}");
        }
    }
}

/// Checkpoint truncation provably bounds the log: once a run is spilled
/// to its segment, the WAL retains **no** trace of it — only the runs
/// the persisted tier does not own keep their records — and a rebuild
/// serves persisted runs from segments, unfrozen ones from replay.
#[test]
fn checkpoint_truncation_bounds_log_to_runs_not_persisted() {
    let dir = TempDir::new("ckpt");
    let wal_dir = dir.0.join("wal");
    let spill_dir = dir.0.join("spill");
    let spec = wf_spec::corpus::bioaid_nonrecursive();
    let mut rng = StdRng::seed_from_u64(2026);

    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .ingest_workers(2)
        .wal_dir(&wal_dir)
        .spill_dir(&spill_dir)
        .build();
    let mut fleet = Vec::new();
    for _ in 0..4 {
        let run = engine.open_run(SpecId(0)).unwrap();
        let gen = RunGenerator::new(&spec)
            .target_size(50)
            .generate_run(&mut rng);
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        engine.complete_run(run).unwrap();
        fleet.push((run, exec));
    }
    engine.flush();
    let (persisted, hot) = fleet.split_at(2);
    for (run, _) in persisted {
        engine.persist_run(*run).unwrap();
    }
    assert_eq!(engine.stats().wal_truncations, 2);

    // The log now holds exactly the two unfrozen runs.
    let scan = wal::recover(&wal_dir).unwrap();
    for (run, exec) in hot {
        let r = scan.runs.iter().find(|r| r.run == run.0).unwrap();
        assert!(!r.checkpointed);
        assert!(r.records.len() as u64 >= 2 + exec.len() as u64);
    }
    for (run, _) in persisted {
        let gone = scan
            .runs
            .iter()
            .find(|r| r.run == run.0)
            .is_none_or(|r| r.checkpointed && r.records.is_empty());
        assert!(gone, "{run} still journaled after its checkpoint");
    }
    // The bound in bytes: what is on disk is what the unfrozen runs
    // need, not the whole history.
    let hot_bytes: u64 = scan
        .runs
        .iter()
        .filter(|r| hot.iter().any(|(run, _)| run.0 == r.run))
        .flat_map(|r| &r.records)
        .map(|rec| rec.encoded_len() as u64)
        .sum();
    assert!(scan.bytes <= hot_bytes + 2 * 64, "log retains dead weight");
    drop(engine);

    // Rebuild: persisted runs answer from their segments, unfrozen runs
    // from WAL replay — every run, exactly per naive replay.
    let reloaded: WfEngine = WfEngine::builder()
        .spec(spec)
        .ingest_workers(1)
        .wal_dir(&wal_dir)
        .spill_dir(&spill_dir)
        .build();
    let s = reloaded.stats();
    assert_eq!(s.wal_recovered_runs, 2);
    assert_eq!((s.runs_hot, s.runs_persisted), (2, 2));
    for (run, exec) in &fleet {
        assert_eq!(reloaded.run_status(*run).unwrap(), RunStatus::Completed);
        let h = reloaded.handle(*run).unwrap();
        assert_prefix_answers(&h, exec.events(), exec.len());
    }
}

/// An eviction is durable in every tier. The evicted run's open/event
/// records are still in the log when it is evicted from the hot or the
/// frozen tier (only persisting checkpoints them), so the eviction
/// itself must checkpoint them — or the next engine lifetime replays
/// the run back. A run that has a blob on disk — persisted, or
/// re-heated since — is in the manifest, so the eviction itself must
/// drop its line — or the next lifetime registers it again.
#[test]
fn evicted_runs_stay_evicted_across_a_restart() {
    let dir = TempDir::new("evict");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(77);
    let build = || -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .ingest_workers(2)
            .wal_dir(dir.0.join("wal"))
            .spill_dir(dir.0.join("spill"))
            .build()
    };
    let engine = build();
    let mut fleet = Vec::new();
    for _ in 0..5 {
        let run = engine.open_run(SpecId(0)).unwrap();
        let gen = RunGenerator::new(&spec)
            .target_size(40)
            .generate_run(&mut rng);
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        fleet.push((run, exec));
    }
    engine.flush();
    let (hot, frozen, kept) = (fleet[0].0, fleet[1].0, fleet[2].0);
    let (persisted, reheated) = (fleet[3].0, fleet[4].0);
    for run in [frozen, persisted, reheated] {
        engine.complete_run(run).unwrap();
    }
    engine.freeze_run(frozen).unwrap();
    engine.persist_run(persisted).unwrap();
    engine.persist_run(reheated).unwrap();
    engine.reheat_run(reheated).unwrap();
    for run in [hot, frozen, persisted, reheated] {
        engine.evict_run(run).unwrap();
    }
    assert!(engine.take_ingest_errors().is_empty());
    drop(engine);

    let rebuilt = build();
    for gone in [hot, frozen, persisted, reheated] {
        assert_eq!(
            rebuilt.run_status(gone).unwrap_err(),
            ServiceError::UnknownRun(gone),
            "{gone} was evicted, yet the restart brought it back"
        );
    }
    let s = rebuilt.stats();
    assert_eq!((s.wal_recovered_runs, s.runs_persisted), (1, 0));
    let exec = &fleet[2].1;
    let h = rebuilt.handle(kept).unwrap();
    assert_eq!(h.status(), RunStatus::Live);
    assert_prefix_answers(&h, exec.events(), exec.len());
    // A fresh run never reuses an evicted id.
    assert!(rebuilt.open_run(SpecId(0)).unwrap() > kept);
}

/// A build with a smaller catalog keeps the logged runs it cannot
/// replay: their records are carried into the rewritten log verbatim,
/// through the build's own persist, checkpoint and compaction, their
/// run ids are not handed out again, and a build with the full catalog
/// replays every one of them.
#[test]
fn a_smaller_catalog_keeps_the_logged_runs_it_cannot_replay() {
    let dir = TempDir::new("smaller-catalog");
    let specs = [
        wf_spec::corpus::running_example(),
        wf_spec::corpus::bioaid_nonrecursive(),
    ];
    let build = |n: usize| -> WfEngine {
        specs[..n]
            .iter()
            .fold(WfEngine::builder(), |b, s| b.spec(s.clone()))
            .ingest_workers(2)
            .wal_dir(dir.0.join("wal"))
            .spill_dir(dir.0.join("spill"))
            .build()
    };
    let mut rng = StdRng::seed_from_u64(2032);
    let mut ingest = |engine: &WfEngine, spec: usize, complete: bool| {
        let gen = RunGenerator::new(&specs[spec])
            .target_size(40)
            .generate_run(&mut rng);
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        let run = engine.open_run(SpecId(spec)).unwrap();
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        if complete {
            engine.complete_run(run).unwrap();
        }
        (run, exec, complete)
    };

    // Both specs: a completed and a live spec-1 run, a live spec-0 run,
    // all only in the log.
    let engine = build(2);
    let mut fleet = vec![
        ingest(&engine, 1, true),
        ingest(&engine, 1, false),
        ingest(&engine, 0, false),
    ];
    engine.flush();
    drop(engine);

    // The running example alone: persist and compact one run.
    let engine = build(1);
    assert_eq!(engine.stats().wal_recovered_runs, 1);
    let fresh = ingest(&engine, 0, true);
    assert!(
        fleet.iter().all(|(run, ..)| *run != fresh.0),
        "{} reuses an id the log holds",
        fresh.0
    );
    engine.persist_run(fresh.0).unwrap();
    engine.compact().unwrap();
    fleet.push(fresh);
    engine.flush();
    drop(engine);

    // Both specs again: every run answers.
    let engine = build(2);
    let mut ids: Vec<RunId> = fleet.iter().map(|(run, ..)| *run).collect();
    ids.sort();
    assert_eq!(engine.query().run_ids(), ids);
    for (run, exec, complete) in &fleet {
        let h = engine.handle(*run).unwrap();
        let status = [RunStatus::Live, RunStatus::Completed][usize::from(*complete)];
        assert_eq!(h.status(), status, "{run}");
        assert_prefix_answers(&h, exec.events(), exec.len());
    }
}

/// A re-heated run is as durable as a persisted one. Its WAL records
/// were checkpointed away when it was first persisted, so its pack and
/// its manifest line are all that is left of it: they must outlive the
/// re-heat — through another run's spill, a compaction and the orphan
/// sweep that comes with it — and a restart brings the run back
/// persisted. Re-heating strands no dead bytes, and persisting the run
/// again goes back to the blob it already has: nothing is written.
#[test]
fn a_reheated_run_survives_a_restart() {
    let dir = TempDir::new("reheat");
    let spill = dir.0.join("spill");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(1706);
    let build = || -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .ingest_workers(2)
            .wal_dir(dir.0.join("wal"))
            .spill_dir(&spill)
            .build()
    };
    let engine = build();
    let mut persist_one = || {
        let run = engine.open_run(SpecId(0)).unwrap();
        let gen = RunGenerator::new(&spec)
            .target_size(50)
            .generate_run(&mut rng);
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        engine.complete_run(run).unwrap();
        engine.persist_run(run).unwrap();
        (run, exec)
    };
    let files = || -> Vec<std::ffi::OsString> {
        let mut names: Vec<_> = std::fs::read_dir(&spill)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    };

    let (run, exec) = persist_one();
    // Close the pack the run was appended to: the next spill opens a
    // new one, and the compaction below merges the two.
    assert_eq!(engine.compact().unwrap().packs_written, 0);
    engine.reheat_run(run).unwrap();
    assert_eq!(engine.run_tier(run).unwrap(), Tier::Frozen);
    assert_eq!(engine.stats().pack_dead_bytes, 0, "the blob is still live");

    // Every later write to the directory keeps the run's blob.
    let (other, other_exec) = persist_one();
    assert_eq!(engine.compact().unwrap().runs_packed, 2);

    // Persisting again is a way back, not a spill.
    let (spills, before) = (engine.stats().spills, files());
    engine.persist_run(run).unwrap();
    assert_eq!(engine.run_tier(run).unwrap(), Tier::Persisted);
    assert_eq!((engine.stats().spills, files()), (spills, before));
    let h = engine.handle(run).unwrap();
    assert_prefix_answers(&h, exec.events(), exec.len());

    // The restart finds the run re-heated.
    engine.reheat_run(run).unwrap();
    assert!(engine.take_ingest_errors().is_empty());
    drop(engine);
    let rebuilt = build();
    for (run, exec) in [(run, &exec), (other, &other_exec)] {
        assert_eq!(rebuilt.run_status(run), Ok(RunStatus::Completed));
        assert_eq!(rebuilt.run_tier(run).unwrap(), Tier::Persisted);
        let h = rebuilt.handle(run).unwrap();
        assert_prefix_answers(&h, exec.events(), exec.len());
    }
    assert_eq!(rebuilt.stats().wal_recovered_runs, 0);
}

/// A record is in the log iff its op was admitted. An event submitted
/// after the run completed is rejected — and must then leave no trace: a
/// journaled copy would be replayed by the next lifetime, labeling a
/// vertex whose caller was told "rejected". Through both blocking entry
/// points: the pool and the handle.
#[test]
fn a_rejected_op_is_neither_journaled_nor_replayed() {
    type Submit = fn(&WfEngine, &RunHandle, &ExecEvent) -> Result<(), ServiceError>;
    let entries: [(&str, Submit); 2] = [
        ("pool", |e, h, ev| e.submit(h.run(), ev)),
        ("handle", |_, h, ev| h.submit(ev)),
    ];
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(1811);
    let gen = RunGenerator::new(&spec)
        .target_size(80)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let (last, admitted) = exec.events().split_last().unwrap();
    for (entry, submit) in entries {
        let dir = TempDir::new("rejected");
        let build = || -> WfEngine {
            WfEngine::builder()
                .spec(spec.clone())
                .ingest_workers(2)
                .wal_dir(&dir.0)
                .build()
        };
        let engine = build();
        let run = engine.open_run(SpecId(0)).unwrap();
        let h = engine.handle(run).unwrap();
        for ev in admitted {
            submit(&engine, &h, ev).unwrap();
        }
        engine.complete_run(run).unwrap();

        let journaled = engine.stats().wal_records;
        assert_eq!(journaled, 1 + admitted.len() as u64 + 1, "{entry}");
        let not_live = ServiceError::RunNotLive(run, RunStatus::Completed);
        assert_eq!(submit(&engine, &h, last), Err(not_live.clone()), "{entry}");
        assert_eq!(engine.complete_run(run), Err(not_live.clone()), "{entry}");
        assert_eq!(h.complete(), Err(not_live), "{entry}");
        assert_eq!(engine.stats().wal_records, journaled, "{entry}: journaled");
        assert_eq!(h.published(), admitted.len(), "{entry}");

        // Flush, "crash" (no drain, no drop) and recover: the next
        // lifetime holds exactly what this one acknowledged.
        engine.flush();
        let rebuilt = build();
        let h2 = rebuilt.handle(run).unwrap();
        assert_eq!(h2.published(), h.published(), "{entry}: replayed a reject");
        assert_eq!(rebuilt.run_status(run), engine.run_status(run), "{entry}");
        assert_eq!(h2.label(last.vertex), None, "{entry}");
        assert_prefix_answers(&h, exec.events(), admitted.len());
        assert_prefix_answers(&h2, exec.events(), admitted.len());
        assert_eq!(
            rebuilt.stats().wal_recovered_records,
            journaled,
            "{entry}: the log held exactly the admitted ops"
        );
    }
}

/// Logs written before "admission before journal" can hold an `Event`
/// past a run's `Complete` (an op the engine rejected after journaling
/// it). Recovery stops at the `Complete`: the stray record is neither
/// replayed nor carried into the rewritten log, and the drop is traced.
#[test]
fn records_after_a_complete_are_not_replayed() {
    let dir = TempDir::new("after-complete");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(1812);
    let gen = RunGenerator::new(&spec)
        .target_size(60)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let (last, admitted) = exec.events().split_last().unwrap();
    let build = || -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .ingest_workers(1)
            .wal_dir(&dir.0)
            .build()
    };
    let engine = build();
    let run = engine.open_run(SpecId(0)).unwrap();
    for ev in admitted {
        engine.submit(run, ev).unwrap();
    }
    engine.complete_run(run).unwrap();
    drop(engine);

    // What an earlier build left behind: the rejected event's frame,
    // numbered after the `Complete` (seq 0 is the `RunOpen`).
    let mut payload = Vec::new();
    wf_drl::encode::write_event(&mut payload, last);
    let stray = wal::Record {
        kind: wal::RecordKind::Event,
        run: run.0,
        seq: admitted.len() as u64 + 2,
        payload,
    };
    let writer =
        wal::WalWriter::open(&dir.0, 1, WalSync::default(), Box::new(wal::NullObserver)).unwrap();
    writer.append(0, &stray).unwrap();
    drop(writer);
    let records = |dir: &std::path::Path| wal::recover(dir).unwrap().runs[0].records.len();
    assert_eq!(records(&dir.0), 1 + admitted.len() + 2);

    let rebuilt = build();
    assert_eq!(rebuilt.run_status(run), Ok(RunStatus::Completed));
    let h = rebuilt.handle(run).unwrap();
    assert_eq!(
        h.published(),
        admitted.len(),
        "the stray event was replayed"
    );
    assert_eq!(h.label(last.vertex), None);
    assert_prefix_answers(&h, exec.events(), admitted.len());
    let skipped: Vec<_> = rebuilt
        .trace_dump()
        .into_iter()
        .filter(|e| e.kind == "wal_skip_record")
        .collect();
    assert_eq!(skipped.len(), 1, "one event per run, naming the count");
    assert_eq!(skipped[0].run_id, Some(run.0));
    assert!(skipped[0].detail.contains("dropped=1"), "{:?}", skipped[0]);
    // The rewritten log no longer holds it: nothing to skip next time.
    assert_eq!(records(&dir.0), 1 + admitted.len() + 1);
}

/// Frames whose checksums hold, with numbers at the top of their range.
/// An event numbered `u64::MAX` — the checkpoint's number, which the
/// journal never issues — has no successor to resume at: recovery skips
/// that run, traced, instead of overflowing. A run whose last op sits
/// one below resumes there, and its next op is refused with a typed
/// error, not journaled under the checkpoint's number (which the next
/// recovery would read as the run's checkpoint and drop it); a run two
/// below takes one more op, and a restart replays it. A run id of
/// `u64::MAX` replays and takes writes without moving the next fresh id;
/// one of `u64::MAX - 1` leaves no fresh id, so `open_run` is refused.
#[test]
fn run_ids_and_sequence_numbers_at_the_top_overflow_nothing() {
    let spec = wf_spec::corpus::running_example();
    let gen = RunGenerator::new(&spec)
        .target_size(20)
        .generate_run(&mut StdRng::seed_from_u64(3));
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let events = exec.events();
    let mut first = Vec::new();
    wf_drl::encode::write_event(&mut first, &events[0]);
    // Each run: a `RunOpen` of spec 0, name-based, then its first event
    // under `seq`.
    let write_log = |dir: &TempDir, runs: &[(u64, u64)]| {
        let writer =
            wal::WalWriter::open(&dir.0, 1, WalSync::default(), Box::new(wal::NullObserver))
                .unwrap();
        for &(run, seq) in runs {
            for (kind, seq, payload) in [
                (wal::RecordKind::RunOpen, 0, &[0u8, 0, 0, 0, 0][..]),
                (wal::RecordKind::Event, seq, &first[..]),
            ] {
                let record = wal::Record {
                    kind,
                    run,
                    seq,
                    payload: payload.to_vec(),
                };
                writer.append(0, &record).unwrap();
            }
        }
    };
    let build = |dir: &TempDir| -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .ingest_workers(1)
            .wal_dir(&dir.0)
            .build()
    };
    let published = |engine: &WfEngine, run: u64| engine.handle(RunId(run)).unwrap().published();
    let refused = |r: Result<(), ServiceError>| matches!(r, Err(ServiceError::Wal(e)) if e.contains("exhausted"));
    let top = u64::MAX;

    let dir = TempDir::new("top-numbers");
    write_log(&dir, &[(4, top), (5, top - 1), (6, top - 2), (top, 1)]);
    let engine = build(&dir);
    assert_eq!(engine.health(), Health::Healthy);
    assert_eq!(
        engine.run_status(RunId(4)),
        Err(ServiceError::UnknownRun(RunId(4)))
    );
    let skipped = |engine: &WfEngine| {
        engine
            .trace_dump()
            .into_iter()
            .filter(|e| e.kind == "wal_skip_run")
            .count()
    };
    assert_eq!(skipped(&engine), 1);
    for run in [5, 6, top] {
        assert_eq!(published(&engine, run), 1, "run {run}");
    }
    assert!(refused(engine.submit(RunId(5), &events[1])));
    engine.submit(RunId(6), &events[1]).unwrap();
    assert!(refused(engine.submit(RunId(6), &events[2])));
    engine.submit(RunId(top), &events[1]).unwrap();
    let fresh = engine.open_run(SpecId(0)).unwrap();
    assert_eq!(fresh, RunId(7));
    for ev in events {
        engine.submit(fresh, ev).unwrap();
    }
    engine.flush();
    drop(engine);

    // Every acknowledged op is replayed, and the refused ones stay so.
    let engine = build(&dir);
    assert_eq!(engine.health(), Health::Healthy);
    assert_eq!(skipped(&engine), 0);
    for (run, n) in [(5, 1), (6, 2), (top, 2), (7, events.len())] {
        assert_eq!(published(&engine, run), n, "run {run}");
    }
    assert!(refused(engine.submit(RunId(5), &events[1])));
    assert!(refused(engine.submit(RunId(6), &events[2])));
    assert_eq!(engine.open_run(SpecId(0)), Ok(RunId(8)));
    let (u, v) = (events[0].vertex, events[1].vertex);
    assert_eq!(engine.reach(fresh, u, v), Ok(Some(true)));
    drop(engine);

    // A log holding run `u64::MAX - 1` leaves no id to open, and its run
    // still takes writes across a restart.
    let dir = TempDir::new("top-run-id");
    write_log(&dir, &[(top - 1, 1)]);
    let engine = build(&dir);
    assert_eq!(
        engine.open_run(SpecId(0)),
        Err(ServiceError::RunIdsExhausted)
    );
    engine.submit(RunId(top - 1), &events[1]).unwrap();
    engine.flush();
    drop(engine);
    let engine = build(&dir);
    assert_eq!(published(&engine, top - 1), 2);
    assert_eq!(
        engine.open_run(SpecId(0)),
        Err(ServiceError::RunIdsExhausted)
    );
}

/// A real crash: a child process aborts mid-ingest (no drop, no drain,
/// no atexit), and the parent recovers its WAL directory. The flush
/// contract, whole: every event below a `flush()` watermark survives —
/// the child tells us where its watermark stood via a file written
/// *before* the abort — and the unflushed tail after it survives as a
/// prefix or not at all.
#[test]
fn child_process_abort_recovers_every_acknowledged_event() {
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(4242);
    let gen = RunGenerator::new(&spec)
        .target_size(90)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let events = exec.events();
    let cut = 2 * events.len() / 3;

    if let Some(dir) = std::env::var_os("WF_DURABILITY_CRASH_DIR") {
        // Child: ingest `cut` events, flush them durable, record the
        // watermark, submit the rest with no barrier, then die as hard
        // as safe abort allows.
        let dir = PathBuf::from(dir);
        let engine: WfEngine = WfEngine::builder()
            .spec(spec)
            .ingest_workers(2)
            .wal_dir(dir.join("wal"))
            .build();
        let run = engine.open_run(SpecId(0)).unwrap();
        let h = engine.handle(run).unwrap();
        for ev in &events[..cut] {
            h.submit(ev).unwrap();
        }
        engine.flush();
        std::fs::write(dir.join("watermark"), format!("{} {cut}", run.0)).unwrap();
        for ev in &events[cut..] {
            h.submit(ev).unwrap();
        }
        std::process::abort();
    }

    let dir = TempDir::new("abort");
    let exe = std::env::current_exe().unwrap();
    let status = std::process::Command::new(exe)
        .args([
            "child_process_abort_recovers_every_acknowledged_event",
            "--exact",
            "--nocapture",
        ])
        .env("WF_DURABILITY_CRASH_DIR", &dir.0)
        .status()
        .unwrap();
    assert!(!status.success(), "the child is supposed to crash");
    let watermark = std::fs::read_to_string(dir.0.join("watermark")).unwrap();
    let (run, n) = watermark.trim().split_once(' ').unwrap();
    let (run, n) = (RunId(run.parse().unwrap()), n.parse::<usize>().unwrap());
    assert_eq!(n, cut);

    let recovered: WfEngine = WfEngine::builder()
        .spec(spec)
        .wal_dir(dir.0.join("wal"))
        .build();
    assert_eq!(recovered.stats().wal_recovered_runs, 1);
    let h = recovered.handle(run).unwrap();
    let survived = h.published();
    assert!(
        survived >= n,
        "a flushed event went missing: {survived} < {n}"
    );
    assert!(survived <= events.len(), "phantom events: {survived}");
    assert_prefix_answers(&h, events, survived);
}
