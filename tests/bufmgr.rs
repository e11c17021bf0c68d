//! Buffer-manager read path: frames loaded from packs at the first read
//! (the packs spills append to included), rewrites of dead-heavy packs
//! under concurrent scans, re-heating, the compaction byte-accounting
//! regression, and the append path: one pack per engine lifetime, a torn
//! seal record cut off, a failed append.
//!
//! The acceptance bar mirrors tiering.rs: wherever the blob lives —
//! a pack spills appended to, a compacted pack, a pack rewritten mid-scan — a run must
//! answer `reach()` exactly per [`NaiveDynamicDag`] replay, and a
//! corrupted blob must degrade to "no labels" with a typed rejection,
//! never a panic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use wf_provenance::prelude::*;
use wf_service::snapshot::{self, Seal};
use wf_service::Tier;

mod common;
use common::TempDir;

type FleetRun = (RunId, Execution, NaiveDynamicDag);

/// Ingest, complete and persist `n` runs; returns each with its naive
/// ground truth.
fn persist_fleet(
    engine: &WfEngine,
    spec: &Specification,
    n: usize,
    rng: &mut StdRng,
) -> Vec<FleetRun> {
    persist_fleet_of(engine, spec, n, 40, rng)
}

/// [`persist_fleet`] with the runs' target size chosen.
fn persist_fleet_of(
    engine: &WfEngine,
    spec: &Specification,
    n: usize,
    target_size: usize,
    rng: &mut StdRng,
) -> Vec<FleetRun> {
    let mut fleet = Vec::new();
    for _ in 0..n {
        let done = complete_one(engine, spec, target_size, rng);
        engine.persist_run(done.0).unwrap();
        fleet.push(done);
    }
    fleet
}

/// Ingest and complete one run, not persisted; returns it with its
/// naive ground truth.
fn complete_one(
    engine: &WfEngine,
    spec: &Specification,
    target_size: usize,
    rng: &mut StdRng,
) -> FleetRun {
    let run = engine.open_run(SpecId(0)).unwrap();
    let gen = RunGenerator::new(spec)
        .target_size(target_size)
        .generate_run(rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let mut naive = NaiveDynamicDag::new();
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
        naive.insert(ev.vertex, &ev.preds);
    }
    engine.complete_run(run).unwrap();
    (run, exec, naive)
}

/// An engine over the spill directory `dir`.
fn spill_engine(spec: &Specification, dir: &Path) -> WfEngine {
    WfEngine::builder()
        .spec(spec.clone())
        .spill_dir(dir)
        .build()
}

/// Persist `packs × each` runs over as many engine lifetimes on `dir`:
/// the spills of one lifetime share one pack and the next lifetime opens
/// another, so the fleet lies in `packs` underfull files.
fn persist_packs(
    dir: &Path,
    spec: &Specification,
    packs: usize,
    each: usize,
    target_size: usize,
    rng: &mut StdRng,
) -> Vec<FleetRun> {
    let mut fleet = Vec::new();
    for _ in 0..packs {
        let engine = spill_engine(spec, dir);
        fleet.extend(persist_fleet_of(&engine, spec, each, target_size, rng));
    }
    fleet
}

/// The spill directory's pack files, by name, with their sizes.
fn pack_files(dir: &Path) -> Vec<(String, u64)> {
    let mut packs: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "wfseg"))
        .map(|e| {
            let name = e.file_name().into_string().unwrap();
            (name, e.metadata().unwrap().len())
        })
        .collect();
    packs.sort();
    packs
}

/// Records of the seal log.
fn seal_records(dir: &Path) -> usize {
    snapshot::read_seal_log(dir).unwrap().records.len()
}

/// Where the seal log places each run: its pack's name, the blob's
/// offset and its length.
fn places(dir: &Path) -> Vec<(RunId, String, u64, u64)> {
    let records = snapshot::read_seal_log(dir).unwrap().records;
    // Each run's last record: where the log says its blob lies now.
    let last: std::collections::BTreeMap<RunId, Seal> =
        records.into_iter().map(|r| (r.run(), r)).collect();
    last.into_values()
        .filter_map(|seal| match seal {
            Seal::Sealed {
                run,
                pack,
                offset,
                len,
            } => Some((run, snapshot::pack_file_name(pack), offset, len)),
            Seal::Evicted { .. } => None,
        })
        .collect()
}

/// Descriptors this process holds on files under `dir`.
#[cfg(target_os = "linux")]
fn open_descriptors(dir: &Path) -> usize {
    let dir = std::fs::canonicalize(dir).unwrap();
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| target.starts_with(&dir))
        .count()
}

/// Every sampled pair answers exactly per replay.
fn assert_answers(engine: &WfEngine, fleet: &[FleetRun]) {
    for (run, exec, naive) in fleet {
        let h = engine.handle(*run).unwrap();
        for a in exec.events().iter().step_by(3) {
            for b in exec.events().iter().step_by(2) {
                assert_eq!(
                    h.reach(a.vertex, b.vertex),
                    Some(naive.reaches(a.vertex, b.vertex)),
                    "{run:?} {:?};{:?} ({:?} tier)",
                    a.vertex,
                    b.vertex,
                    h.tier()
                );
            }
        }
    }
}

/// Sum of `.wfseg` file sizes in the spill dir (the on-disk footprint
/// a dead-heavy rewrite exists to shrink).
fn wfseg_bytes(dir: &PathBuf) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "wfseg"))
        .map(|e| e.metadata().unwrap().len())
        .sum()
}

/// Per-run blob sizes, as the seal log places them.
fn blob_sizes(dir: &std::path::Path) -> Vec<(RunId, u64)> {
    places(dir)
        .into_iter()
        .map(|(run, _, _, len)| (run, len))
        .collect()
}

/// A compacted pack reloaded by a fresh engine is registered without
/// being read, loads each blob's frame at its first read, and answers
/// exactly per replay.
#[test]
fn mapped_pack_reads_match_replay() {
    let dir = TempDir::new("mapped");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(4096);
    let fleet = persist_packs(&dir.0, &spec, 2, 3, 40, &mut rng);
    let engine = spill_engine(&spec, &dir.0);
    let report = engine.compact().unwrap();
    assert_eq!(report.packs_written, 1);
    drop(engine);

    let mapped: WfEngine = WfEngine::builder().spec(spec).spill_dir(&dir.0).build();
    assert_answers(&mapped, &fleet);
    let s = mapped.stats();
    assert_eq!(
        s.pack_pins, 6,
        "each blob resolved against the mapping once"
    );

    // The cross-run surface reads through the same frames.
    let name = fleet[0].1.events()[1].name;
    assert_eq!(
        mapped
            .query()
            .completed()
            .runs_reaching_named_from_source(name)
            .len(),
        fleet
            .iter()
            .filter(|(_, exec, naive)| {
                let src = exec.events()[0].vertex;
                exec.events()
                    .iter()
                    .any(|e| e.name == name && naive.reaches(src, e.vertex))
            })
            .count(),
    );
}

/// **Uncompacted** spills share the pack they were appended to, and read
/// like any other pack: nothing is loaded at registration, the first
/// `reach` loads the blob's frame — that blob alone, not its pack — and
/// verifies it, and under a resident-byte budget the frames are shed and
/// loaded back without a second verification pass.
#[test]
fn uncompacted_spills_read_through_the_mapping() {
    let dir = TempDir::new("pack-of-one");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(512);
    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .spill_dir(&dir.0)
        .build();
    let fleet = persist_fleet(&engine, &spec, 4, &mut rng);
    let s = engine.stats();
    assert_eq!((s.segment_files, s.pack_pins), (1, 0));
    // One query loads exactly the blob it reads.
    let (run, exec, naive) = &fleet[0];
    let (u, v) = (exec.events()[0].vertex, exec.events()[2].vertex);
    assert_eq!(engine.reach(*run, u, v).unwrap(), Some(naive.reaches(u, v)));
    let s = engine.stats();
    assert_eq!(s.pack_pins, 1);
    let sizes = blob_sizes(&dir.0);
    let (_, blob) = sizes.iter().find(|(r, _)| r == run).unwrap();
    assert_eq!(s.persisted_resident_bytes, *blob, "one blob of the pack");
    assert_answers(&engine, &fleet);
    drop(engine);

    // A fresh lifetime with a 1-byte budget: registration loads nothing,
    // every load sheds the previous frame.
    let tight: WfEngine = WfEngine::builder()
        .spec(spec)
        .spill_dir(&dir.0)
        .max_resident_bytes(1)
        .build();
    for _ in 0..3 {
        assert_answers(&tight, &fleet);
    }
    let s = tight.stats();
    assert_eq!(s.pack_pins, 12, "three sweeps of four cold blobs");
    assert!(s.segment_sheds >= 11, "{} sheds", s.segment_sheds);
    assert_eq!(s.segment_loads, 0);
    assert!(s.persisted_resident_bytes <= sizes.iter().map(|b| b.1).max().unwrap());
    // The first-load histogram times the verification pass: four blobs,
    // four passes, however often they were shed and loaded back.
    let verified = tight.metrics().histogram("wf_pack_pin_ns").unwrap();
    assert_eq!(verified.count(), 4, "re-pins skip the checksum");
}

/// Reading many uncompacted packs of one — one engine lifetime's spill
/// each — keeps no file descriptor open: a load opens its pack, reads
/// and closes it. (A descriptor cached per pack would run into
/// `RLIMIT_NOFILE` after about a thousand of them, and every later load,
/// persist and seal record would fail.)
#[cfg(target_os = "linux")]
#[test]
fn loading_many_packs_of_one_keeps_no_descriptor_open() {
    let dir = TempDir::new("descriptors");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(1024);
    let fleet = persist_packs(&dir.0, &spec, 150, 1, 8, &mut rng);
    let engine = spill_engine(&spec, &dir.0);
    assert_eq!(engine.stats().segment_files, 150, "no compaction ran");
    for (run, exec, naive) in &fleet {
        let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
        assert_eq!(engine.reach(*run, u, v).unwrap(), Some(naive.reaches(u, v)));
    }
    assert_eq!(engine.stats().pack_pins, 150, "every pack was loaded");
    assert_eq!(
        open_descriptors(&dir.0),
        0,
        "a descriptor outlived its load"
    );
}

/// A handle taken before a rewrite holds its run's registration, and the
/// rewrite relocates that registration in place. If the handle never
/// read its blob, its first load comes after the rewrite unlinked the
/// file — and follows the blob to the pack it lives in now: nothing
/// unlinked is ever opened.
#[test]
fn handles_taken_before_a_rewrite_answer_after_it() {
    let dir = TempDir::new("stale-handle");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(77);
    // One lifetime's pack of one, then the next lifetime's pack of two.
    let mut fleet = persist_packs(&dir.0, &spec, 1, 1, 40, &mut rng);
    fleet.extend(persist_packs(&dir.0, &spec, 1, 2, 40, &mut rng));
    let engine = spill_engine(&spec, &dir.0);
    let file_of = |run: RunId| {
        let placed = places(&dir.0);
        placed.into_iter().find(|p| p.0 == run).unwrap().1
    };
    // Out of a pack of one…
    let (loose, loose_file) = (engine.handle(fleet[0].0).unwrap(), file_of(fleet[0].0));
    assert_eq!(engine.compact().unwrap().packs_written, 1);
    // …and out of a compacted pack that the next pass rewrites.
    let (packed, packed_file) = (engine.handle(fleet[1].0).unwrap(), file_of(fleet[1].0));
    fleet.extend(persist_fleet(&engine, &spec, 1, &mut rng));
    let report = engine.compact().unwrap();
    assert_eq!((report.files_before, report.files_after), (2, 1));
    for old in [&loose_file, &packed_file] {
        assert!(!dir.0.join(old).exists(), "{old} was unlinked");
    }

    for (h, (run, exec, naive)) in [(&loose, &fleet[0]), (&packed, &fleet[1])] {
        for a in exec.events().iter().step_by(3) {
            for b in exec.events().iter().step_by(2) {
                assert_eq!(
                    h.reach(a.vertex, b.vertex),
                    Some(naive.reaches(a.vertex, b.vertex)),
                    "{run:?} through a pre-rewrite handle"
                );
            }
        }
    }
    let s = engine.stats();
    assert_eq!(s.pack_pins, 2, "one first pin per stale handle");
    drop((loose, packed));

    // A rewrite loads no frame itself, and every run follows its blob
    // to the pack that replaced the unlinked one.
    fleet.extend(persist_fleet(&engine, &spec, 1, &mut rng));
    assert_eq!(engine.compact().unwrap().packs_written, 1);
    assert_answers(&engine, &fleet);
}

/// The replacer's books follow a registration through everything that
/// can happen to it: it counts while its run is read from disk, stops
/// when the run is re-heated, counts again — same blob, nothing written
/// — once the run is persisted back and read, starts from cold at the
/// place a rewrite moved the blob to, and is gone with an eviction.
#[test]
fn resident_bytes_follow_a_registration_through_reheat_and_relocation() {
    let dir = TempDir::new("books");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(808);
    // Two lifetimes, two packs: the compaction below merges them.
    let fleet = persist_packs(&dir.0, &spec, 2, 1, 40, &mut rng);
    let engine = spill_engine(&spec, &dir.0);
    let sizes = blob_sizes(&dir.0);
    let size_of = |run: RunId| sizes.iter().find(|(r, _)| *r == run).unwrap().1;
    let (a, b) = (fleet[0].0, fleet[1].0);
    let resident = || engine.stats().persisted_resident_bytes;

    assert_answers(&engine, &fleet[..1]);
    assert_eq!(resident(), size_of(a));
    engine.reheat_run(a).unwrap();
    assert_eq!(resident(), 0, "a re-heated run is read from memory");
    assert_answers(&engine, &fleet[..1]);
    assert_eq!(resident(), 0);

    engine.persist_run(a).unwrap();
    assert_eq!(resident(), 0, "back on disk, not read yet");
    assert_answers(&engine, &fleet[..1]);
    assert_eq!(resident(), size_of(a));

    assert_eq!(engine.compact().unwrap().runs_packed, 2);
    assert_eq!(resident(), 0, "nothing is resident at the new place yet");
    assert_answers(&engine, &fleet);
    assert_eq!(resident(), size_of(a) + size_of(b));
    engine.evict_run(a).unwrap();
    assert_eq!(resident(), size_of(b));
    assert_eq!(
        engine.stats().pack_pins,
        4,
        "a pinned in three times, b once"
    );
}

/// A pass with nothing to rewrite still sweeps: the pack of an evicted
/// run — placed by no seal record and no registration — is gone after
/// `compact()`, and so are a crash's leftovers: a pack no record names
/// and the temp file of a replace that never got to its rename.
#[test]
fn a_pass_with_no_victims_still_sweeps_orphans() {
    let dir = TempDir::new("sweep");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(9);
    // Each run in a pack of its own, one per lifetime.
    let fleet = persist_packs(&dir.0, &spec, 2, 1, 40, &mut rng);
    let engine = spill_engine(&spec, &dir.0);
    engine.evict_run(fleet[0].0).unwrap();
    let leftover = dir.0.join("pack-999.wfseg");
    std::fs::write(&leftover, b"a pack no record ever named").unwrap();
    let leftover_tmp = dir.0.join(".pack-998.wfseg.tmp");
    std::fs::write(&leftover_tmp, b"half a pack").unwrap();
    let kept = blob_sizes(&dir.0)
        .iter()
        .find(|(r, _)| *r == fleet[1].0)
        .unwrap()
        .1;
    assert!(wfseg_bytes(&dir.0) > kept);

    let report = engine.compact().unwrap();
    assert_eq!(report.packs_written, 0, "one live file: nothing to merge");
    assert!(!leftover.exists());
    assert!(!leftover_tmp.exists());
    assert_eq!(
        wfseg_bytes(&dir.0),
        kept,
        "only the live run's pack remains"
    );
    assert_eq!(
        engine.compact().unwrap().packs_written,
        0,
        "a second pass writes nothing"
    );
    assert_answers(&engine, &fleet[1..]);
}

/// A bit flip inside a pack is caught by the per-blob checksum at the
/// first load: the damaged run degrades to "no labels" (typed, no
/// panic), while every other blob in the same pack keeps answering.
#[test]
fn corrupt_mapped_pack_degrades_cleanly() {
    let dir = TempDir::new("corrupt");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(99);
    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .spill_dir(&dir.0)
        .build();
    let fleet = persist_fleet(&engine, &spec, 6, &mut rng);
    engine.compact().unwrap();
    drop(engine);

    // Flip one bit inside the label bytes of one blob of the compacted
    // pack (the seal log says where each blob lies): past the header the
    // loader reads at registration, so the damage is found by the
    // checksum pass of the blob's first load.
    let placed = places(&dir.0);
    let (_, file, offset, len) = &placed[placed.len() / 2];
    let pack = dir.0.join(file);
    let mut bytes = std::fs::read(&pack).unwrap();
    bytes[(offset + len) as usize - 16] ^= 0x10;
    std::fs::write(&pack, &bytes).unwrap();

    let reloaded: WfEngine = WfEngine::builder().spec(spec).spill_dir(&dir.0).build();
    let mut degraded = 0usize;
    for (run, exec, naive) in &fleet {
        // A registration may have been dropped outright if the flip hit
        // framing the loader checks early — also a clean rejection.
        let Ok(h) = reloaded.handle(*run) else {
            degraded += 1;
            continue;
        };
        let mut this_degraded = false;
        for a in exec.events().iter().step_by(3) {
            for b in exec.events().iter().step_by(2) {
                match h.reach(a.vertex, b.vertex) {
                    Some(got) => assert_eq!(
                        got,
                        naive.reaches(a.vertex, b.vertex),
                        "a damaged blob must degrade, never lie"
                    ),
                    None => this_degraded = true,
                }
            }
        }
        degraded += this_degraded as usize;
        // The fallible surface tells a broken pack from "not labeled
        // yet": a typed error naming the cause, from every entry point,
        // where the infallible handle above could only say `None`.
        let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
        if this_degraded {
            for err in [
                reloaded.reach(*run, u, v).map(drop).unwrap_err(),
                reloaded.label(*run, u).map(drop).unwrap_err(),
                reloaded.reheat_run(*run).unwrap_err(),
            ] {
                match err {
                    wf_service::ServiceError::Snapshot(r, cause) => {
                        assert_eq!(r, *run);
                        assert!(cause.contains("checksum mismatch"), "{cause}");
                    }
                    other => panic!("expected a snapshot error, got {other:?}"),
                }
            }
            assert_eq!(reloaded.run_tier(*run).unwrap(), Tier::Persisted);
        } else {
            assert_eq!(
                reloaded.reach(*run, u, v),
                Ok(Some(naive.reaches(u, v))),
                "an intact blob of the damaged pack still answers"
            );
            assert!(reloaded.label(*run, u).unwrap().is_some());
        }
    }
    assert!(degraded >= 1, "the flipped blob was rejected at pin");
    assert!(degraded < fleet.len(), "intact blobs keep answering");
    // One trace event on the `Unloaded → Failed` edge per rejected blob,
    // however many reads bounced off it afterwards.
    let failed_pins = reloaded
        .trace_dump()
        .iter()
        .filter(|e| e.kind == "pack_pin_failed")
        .count();
    assert_eq!(failed_pins, degraded);
}

/// A re-heat rebuilds an equivalent run: the frozen arena read out of
/// the pack answers label by label — label, name, `label_bits` — and
/// pair by pair identically to a never-persisted control run of the
/// same execution, and still rejects writes.
#[test]
fn reheat_rebuilds_an_equivalent_frozen_run() {
    let dir = TempDir::new("reheat");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(7);
    let gen = RunGenerator::new(&spec)
        .target_size(60)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let mut naive = NaiveDynamicDag::new();
    for ev in exec.events() {
        naive.insert(ev.vertex, &ev.preds);
    }

    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .spill_dir(&dir.0)
        .build();
    // Control: same execution, never leaves the hot tier.
    let control = engine.open_run(SpecId(0)).unwrap();
    for ev in exec.events() {
        engine.submit(control, ev).unwrap();
    }
    engine.complete_run(control).unwrap();
    // Subject: persisted, then re-heated.
    let run = engine.open_run(SpecId(0)).unwrap();
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    engine.complete_run(run).unwrap();
    engine.persist_run(run).unwrap();
    assert_eq!(engine.run_tier(run).unwrap(), Tier::Persisted);
    let before = engine.handle(run).unwrap();
    assert!(!before.is_resident(), "nothing read from disk yet");

    engine.reheat_run(run).unwrap();
    assert_eq!(engine.run_tier(run).unwrap(), Tier::Frozen);
    assert_eq!(engine.stats().reheats, 1);
    // A handle over a sealed run follows its residency changes.
    assert_eq!((before.tier(), before.is_resident()), (Tier::Frozen, true));

    let (h, c) = (engine.handle(run).unwrap(), engine.handle(control).unwrap());
    assert_eq!(h.published(), c.published());
    assert_eq!(h.source(), c.source());
    for ev in exec.events() {
        assert_eq!(h.label(ev.vertex), c.label(ev.vertex), "{:?}", ev.vertex);
        assert_eq!(h.name(ev.vertex), c.name(ev.vertex));
        assert_eq!(h.label_bits(ev.vertex), c.label_bits(ev.vertex));
    }
    for a in exec.events().iter().step_by(2) {
        for b in exec.events() {
            assert_eq!(
                h.reach(a.vertex, b.vertex),
                Some(naive.reaches(a.vertex, b.vertex))
            );
        }
    }
    // Completed stays completed: the re-heated run rejects writes.
    assert!(matches!(
        h.submit(&exec.events()[0]),
        Err(wf_service::ServiceError::RunNotLive(..))
    ));
    // Both runs visible to the cross-run surface, each in its tier.
    assert_eq!(engine.query().completed().run_ids(), vec![control, run]);
    assert_eq!(engine.query().tier(Tier::Frozen).run_ids(), vec![run]);
    // Persisting again lets the held frame go and writes nothing.
    let packs = std::fs::read_dir(&dir.0).unwrap().count();
    engine.persist_run(run).unwrap();
    assert_eq!(before.tier(), Tier::Persisted);
    assert_eq!(std::fs::read_dir(&dir.0).unwrap().count(), packs);
    assert_eq!(engine.stats().spills, 1);
}

/// Regression: when a pack is re-compacted alongside fresh spills,
/// `CompactionReport` byte accounting is over on-disk **file sizes** —
/// the pack counts once, not once per member blob — and the bytes the
/// dead blobs occupied surface in `dead_bytes_reclaimed` instead of
/// silently inflating `bytes_before`.
#[test]
fn recompaction_reports_dead_bytes_separately() {
    let dir = TempDir::new("deadbytes");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(2026);
    let fleet = persist_packs(&dir.0, &spec, 2, 3, 40, &mut rng);
    let engine = spill_engine(&spec, &dir.0);
    let first = engine.compact().unwrap();
    assert_eq!(first.packs_written, 1);
    assert_eq!(
        first.bytes_after, first.bytes_before,
        "compacting fresh spills moves every byte"
    );
    assert_eq!(first.dead_bytes_reclaimed, 0);

    // Kill two members: their blobs stay in the pack as dead bytes.
    engine.evict_run(fleet[0].0).unwrap();
    engine.evict_run(fleet[1].0).unwrap();
    // Two fresh spills in a new pack, so the next pass merges two files.
    let fresh = persist_fleet(&engine, &spec, 2, &mut rng);

    let disk_before = wfseg_bytes(&dir.0);
    let report = engine.compact().unwrap();
    assert_eq!(
        report.bytes_before, disk_before,
        "bytes_before is the on-disk footprint, counted once per file"
    );
    assert!(
        report.dead_bytes_reclaimed > 0,
        "the evicted blobs' bytes are reported, not double-counted"
    );
    assert_eq!(
        report.bytes_after,
        report.bytes_before - report.dead_bytes_reclaimed
    );
    assert_eq!(report.bytes_after, wfseg_bytes(&dir.0));
    assert!(report.json().contains("\"dead_bytes_reclaimed\":"));

    let survivors: Vec<FleetRun> = fleet.into_iter().skip(2).chain(fresh).collect();
    assert_answers(&engine, &survivors);
}

/// Compaction drops the blobs of evicted runs out of an underfull pack
/// whatever their share of it, shrinks the on-disk footprint by exactly
/// the dead bytes, and survivors answer exactly — including through a
/// fresh engine over the seal log that placed them anew.
#[test]
fn compaction_drops_dead_blobs_and_shrinks_the_disk() {
    let dir = TempDir::new("dead-blobs");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(31);
    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .spill_dir(&dir.0)
        .build();
    let fleet = persist_fleet(&engine, &spec, 6, &mut rng);
    let mut sizes = blob_sizes(&dir.0);
    engine.compact().unwrap();

    // Evict the smallest member: dead ratio ≤ 1/6, below the 0.3 that
    // makes a pack dead-heavy — but a pack of five is underfull, and an
    // underfull pack with dead bytes is rewritten without them.
    sizes.sort_by_key(|(_, size)| *size);
    let (smallest, smallest_bytes) = sizes[0];
    engine.evict_run(smallest).unwrap();
    let first = engine.compact().unwrap();
    assert_eq!((first.packs_written, first.runs_packed), (1, 5));
    assert_eq!(first.dead_bytes_reclaimed, smallest_bytes);
    assert_eq!(
        first.bytes_after,
        first.bytes_before - first.dead_bytes_reclaimed
    );

    // Evict the two largest as well: dead ratio ≥ 2/5.
    for (run, _) in sizes.iter().rev().take(2) {
        engine.evict_run(*run).unwrap();
    }
    let disk_before = wfseg_bytes(&dir.0);
    assert!(engine.stats().pack_dead_bytes > 0);
    let report = engine.compact().unwrap();
    assert_eq!(report.packs_written, 1);
    assert_eq!(report.runs_packed, 3);
    assert!(report.dead_bytes_reclaimed > 0);
    assert_eq!(
        report.bytes_after,
        report.bytes_before - report.dead_bytes_reclaimed
    );
    assert!(wfseg_bytes(&dir.0) < disk_before, "the rewrite shrank disk");
    assert_eq!(
        engine.stats().pack_dead_bytes,
        0,
        "no dead bytes survive the rewrite"
    );
    assert!(report.json().contains("\"metric\":\"compaction\""));

    let survivors: Vec<FleetRun> = fleet
        .into_iter()
        .filter(|(run, ..)| *run != smallest && !sizes.iter().rev().take(2).any(|(r, _)| r == run))
        .collect();
    assert_eq!(survivors.len(), 3);
    assert_answers(&engine, &survivors);
    drop(engine);

    // The seal log reloads into a consistent engine.
    let reloaded: WfEngine = WfEngine::builder().spec(spec).spill_dir(&dir.0).build();
    assert_eq!(reloaded.stats().runs_persisted, 3);
    assert_answers(&reloaded, &survivors);
}

/// The dead-byte share decides only for a **full** pack (an underfull
/// one is a victim anyway): a pack of 96 with 3 members evicted is left
/// alone, bytes and all; once more than `DEAD_HEAVY_RATIO` of its bytes
/// are dead — the survivors still a full pack's worth — the next pass
/// rewrites exactly that pack, and the pass after it writes nothing.
#[test]
fn a_full_pack_is_rewritten_only_once_it_is_dead_heavy() {
    use wf_service::snapshot::{DEAD_HEAVY_RATIO, MIN_PACK_RUNS};
    let dir = TempDir::new("dead-heavy");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(96);
    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .spill_dir(&dir.0)
        .build();
    let mut fleet = persist_fleet_of(&engine, &spec, 96, 20, &mut rng);
    // The 96 spills share one full pack already: nothing to merge.
    let first = engine.compact().unwrap();
    assert_eq!((first.packs_written, first.files_after), (0, 1));
    let pack_bytes = wfseg_bytes(&dir.0);
    let mut sizes = blob_sizes(&dir.0);
    sizes.sort_by_key(|(_, size)| *size);
    let evict = |run: RunId, fleet: &mut Vec<FleetRun>| {
        engine.evict_run(run).unwrap();
        fleet.retain(|(r, ..)| *r != run);
    };

    // The three smallest blobs die: ~3 % of a full pack.
    let mut dead = 0u64;
    for (run, size) in sizes.drain(..3) {
        evict(run, &mut fleet);
        dead += size;
    }
    assert!((dead as f64) < DEAD_HEAVY_RATIO * pack_bytes as f64 / 2.0);
    let quiet = engine.compact().unwrap();
    assert_eq!((quiet.packs_written, quiet.runs_packed), (0, 0));
    assert_eq!(quiet.bytes_after, quiet.bytes_before);
    assert_eq!(wfseg_bytes(&dir.0), pack_bytes, "the bytes did not move");
    assert_eq!(engine.stats().pack_dead_bytes, dead);

    // Largest first until the pack is dead-heavy: at most 32 of 96 die.
    while dead as f64 <= DEAD_HEAVY_RATIO * pack_bytes as f64 {
        let (run, size) = sizes.pop().unwrap();
        evict(run, &mut fleet);
        dead += size;
    }
    assert!(
        fleet.len() >= MIN_PACK_RUNS,
        "{} survivors: still a full pack",
        fleet.len()
    );
    assert_eq!(engine.stats().pack_dead_bytes, dead);
    let report = engine.compact().unwrap();
    assert_eq!(
        (
            report.files_before,
            report.packs_written,
            report.files_after
        ),
        (1, 1, 1)
    );
    assert_eq!(report.runs_packed, fleet.len());
    assert_eq!(report.dead_bytes_reclaimed, dead);
    assert_eq!(report.bytes_after, pack_bytes - dead);
    assert_eq!(wfseg_bytes(&dir.0), pack_bytes - dead);
    assert_eq!(engine.stats().pack_dead_bytes, 0);
    assert_answers(&engine, &fleet);

    let again = engine.compact().unwrap();
    assert_eq!(again.packs_written, 0, "nothing left to gain");
    assert_eq!(again.bytes_after, again.bytes_before);
    assert_eq!(wfseg_bytes(&dir.0), pack_bytes - dead);
}

/// Every persist of one engine lifetime appends to one pack: N spills
/// leave one pack file and N seal records (a record per run), and a
/// `compact()` after them has nothing to merge and
/// unlinks nothing. The pass closes the pack, so the next spill opens a
/// new one, and so does the first spill after a rebuild: a closed pack
/// never grows again. Each append opens its file, writes, syncs and
/// closes it: no descriptor is left open on the directory.
#[test]
fn a_lifetimes_persists_append_to_one_pack() {
    let dir = TempDir::new("append");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(34);
    let engine = spill_engine(&spec, &dir.0);
    let mut fleet = persist_fleet(&engine, &spec, 5, &mut rng);
    let first = pack_files(&dir.0);
    assert_eq!(first.len(), 1, "{first:?}");
    assert_eq!(seal_records(&dir.0), 5);
    let report = engine.compact().unwrap();
    assert_eq!(
        (
            report.files_before,
            report.files_after,
            report.packs_written
        ),
        (1, 1, 0)
    );
    assert_eq!(pack_files(&dir.0), first, "nothing moved or unlinked");

    // After `compact()`: a new pack beside the closed one.
    fleet.extend(persist_fleet(&engine, &spec, 2, &mut rng));
    let second = pack_files(&dir.0);
    assert_eq!(second.len(), 2, "{second:?}");
    assert!(second.contains(&first[0]), "the closed pack did not grow");
    assert_eq!(seal_records(&dir.0), 7);
    assert_answers(&engine, &fleet);
    drop(engine);

    // After a rebuild: another new pack.
    let engine = spill_engine(&spec, &dir.0);
    fleet.extend(persist_fleet(&engine, &spec, 2, &mut rng));
    let third = pack_files(&dir.0);
    assert_eq!(third.len(), 3, "{third:?}");
    assert!(
        second.iter().all(|p| third.contains(p)),
        "no older pack grew"
    );
    assert_eq!(seal_records(&dir.0), 9);
    assert_eq!(engine.stats().spills, 2);
    assert_answers(&engine, &fleet);
    #[cfg(target_os = "linux")]
    assert_eq!(
        open_descriptors(&dir.0),
        0,
        "a descriptor outlived its append"
    );
    drop(engine);
    assert_answers(&spill_engine(&spec, &dir.0), &fleet);
}

/// A crash in the middle of a seal-log append leaves the log ending in
/// the start of a record: that persist was never acknowledged, and its
/// run does not register. The next build replaces the log with its whole
/// records before anything is appended to it, so the record the next
/// persist appends follows a whole one, and survives the restart after
/// it.
#[test]
fn a_torn_seal_record_is_cut_before_the_next_append() {
    let dir = TempDir::new("torn-record");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(341);
    let mut fleet = persist_packs(&dir.0, &spec, 1, 3, 40, &mut rng);
    let path = dir.0.join(snapshot::SEAL_LOG_FILE);
    let log = std::fs::read(&path).unwrap();
    let [.., last] = snapshot::read_seal_log(&dir.0).unwrap().records[..] else {
        panic!("three records");
    };
    let torn = fleet.remove(2).0;
    assert_eq!(last.run(), torn);
    let mut frame = Vec::new();
    last.encode_into(&mut frame);
    std::fs::write(&path, &log[..log.len() - frame.len() / 2]).unwrap();

    let engine = spill_engine(&spec, &dir.0);
    assert_eq!(
        engine.run_tier(torn),
        Err(wf_service::ServiceError::UnknownRun(torn))
    );
    assert_eq!(engine.stats().runs_persisted, 2);
    let repaired = snapshot::read_seal_log(&dir.0).unwrap();
    assert!(repaired.torn.is_none(), "{:?}", repaired.records);
    fleet.extend(persist_fleet(&engine, &spec, 1, &mut rng));
    drop(engine);

    let engine = spill_engine(&spec, &dir.0);
    assert_eq!(engine.stats().runs_persisted, 3);
    assert_answers(&engine, &fleet);
    assert_eq!(seal_records(&dir.0), 3);
}

/// A persist whose pack append fails — here the active pack's file was
/// removed between two persists — returns a typed error and registers
/// nothing: the run keeps its frame and no seal record names it. The
/// failure closed the pack, so the next persist opens a fresh one and
/// succeeds.
#[test]
fn a_failed_append_closes_the_active_pack() {
    let dir = TempDir::new("failed-append");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(342);
    let engine = spill_engine(&spec, &dir.0);
    persist_fleet(&engine, &spec, 1, &mut rng);
    let [(gone, _)] = &pack_files(&dir.0)[..] else {
        panic!("one pack");
    };
    std::fs::remove_file(dir.0.join(gone)).unwrap();

    let fleet = vec![complete_one(&engine, &spec, 40, &mut rng)];
    let run = fleet[0].0;
    match engine.persist_run(run) {
        Err(wf_service::ServiceError::Snapshot(r, _)) => assert_eq!(r, run),
        other => panic!("expected a snapshot error, got {other:?}"),
    }
    assert_eq!(engine.run_tier(run).unwrap(), Tier::Frozen);
    assert_eq!(seal_records(&dir.0), 1, "no record names the run");
    assert_answers(&engine, &fleet);

    engine.persist_run(run).unwrap();
    assert_eq!(engine.run_tier(run).unwrap(), Tier::Persisted);
    let fresh = pack_files(&dir.0);
    assert_eq!(fresh.len(), 1, "{fresh:?}");
    assert_ne!(&fresh[0].0, gone, "a fresh pack, not the removed one");
    assert_answers(&engine, &fleet);
    drop(engine);
    assert_answers(&spill_engine(&spec, &dir.0), &fleet);
}

/// Cross-run label scans racing pack rewrites: scanners hold nothing but
/// the views they snapshotted, and every rewrite moves the blobs those
/// views read — a compaction merging fresh spills into the pack, then
/// one dropping the blobs of the runs evicted since. Whatever the
/// interleaving, a scan returns for every surviving run exactly the
/// vertices its event stream published under the name (a run evicted
/// mid-scan may be missing, never wrong). Run as it is, then under a
/// 1-byte resident budget: there every read a scan makes races the shed
/// of the frame it reads, which only the run's place lock holds off.
#[test]
fn label_scans_racing_rewrites_match_the_streams() {
    for budget in [None, Some(1)] {
        scans_racing_rewrites(budget);
    }
}

fn scans_racing_rewrites(budget: Option<u64>) {
    use std::collections::HashMap;
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;
    const SCANNERS: usize = 3;
    const REWRITES: usize = 20;
    const SCANS_EACH: u64 = 20;

    let dir = TempDir::new("scan-race");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(1217);
    let mut builder = WfEngine::builder().spec(spec.clone()).spill_dir(&dir.0);
    if let Some(bytes) = budget {
        builder = builder.max_resident_bytes(bytes);
    }
    let engine: WfEngine = builder.build();
    let survivors = persist_fleet(&engine, &spec, 4, &mut rng);
    let name = survivors[0].1.events()[1].name;
    let named = |exec: &Execution| -> Vec<VertexId> {
        let mut vs: Vec<VertexId> = exec
            .events()
            .iter()
            .filter(|ev| ev.name == name)
            .map(|ev| ev.vertex)
            .collect();
        vs.sort();
        vs
    };
    // What each run must answer, written before the run can be seen.
    let expected: Mutex<HashMap<RunId, Vec<VertexId>>> = Mutex::new(
        survivors
            .iter()
            .map(|(run, exec, _)| (*run, named(exec)))
            .collect(),
    );
    let survivor_ids: Vec<RunId> = survivors.iter().map(|(run, ..)| *run).collect();
    assert!(survivor_ids
        .iter()
        .all(|run| !expected.lock().unwrap()[run].is_empty()));

    let done = AtomicBool::new(false);
    let scans: Vec<AtomicU64> = (0..SCANNERS).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        for count in &scans {
            let (engine, expected, done, survivor_ids) = (&engine, &expected, &done, &survivor_ids);
            s.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let hits = engine.query().completed().vertices_named(name);
                    let expected = expected.lock().unwrap();
                    for (run, vs) in &hits {
                        assert_eq!(Some(vs), expected.get(run), "{run:?} mid-rewrite");
                    }
                    for run in survivor_ids {
                        assert!(hits.iter().any(|(r, _)| r == run), "{run:?} missed");
                    }
                    count.fetch_add(1, Ordering::Release);
                }
            });
        }
        // Twice the survivors' bytes die every round, out of a pack of
        // eight: the second pass always rewrites it.
        let mut rewrites = 0;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        while rewrites < REWRITES || scans.iter().any(|c| c.load(Ordering::Acquire) < SCANS_EACH) {
            assert!(std::time::Instant::now() < deadline, "scanners starved");
            let mut victims = Vec::new();
            for _ in 0..4 {
                let run = engine.open_run(SpecId(0)).unwrap();
                let gen = RunGenerator::new(&spec)
                    .target_size(80)
                    .generate_run(&mut rng);
                let exec = Execution::deterministic(&gen.graph, &gen.origin);
                expected.lock().unwrap().insert(run, named(&exec));
                for ev in exec.events() {
                    engine.submit(run, ev).unwrap();
                }
                engine.complete_run(run).unwrap();
                engine.persist_run(run).unwrap();
                victims.push(run);
            }
            assert_eq!(engine.compact().unwrap().files_after, 1);
            for run in victims {
                engine.evict_run(run).unwrap();
            }
            let report = engine.compact().unwrap();
            assert_eq!((report.packs_written, report.runs_packed), (1, 4));
            rewrites += 1;
        }
        done.store(true, Ordering::Release);
    });
    let s = engine.stats();
    assert_eq!(s.pack_dead_bytes, 0);
    assert!(
        budget.is_none() || s.segment_sheds > 0,
        "the budget shed frames mid-scan"
    );
    assert_answers(&engine, &survivors);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A dead-heavy rewrite racing scans, re-heats and queries: readers
    /// hold the registrations a rewrite relocates in place, so answers
    /// mid-rewrite match naive replay exactly (never a miss, never a
    /// lie), and the settled engine + a reload both stay consistent.
    /// The engine has no automatic policy: no background pass exists to
    /// get to the dead bytes before the explicit ones.
    #[test]
    fn scans_during_a_dead_heavy_rewrite_match_replay(seed in 0u64..1_000) {
        let dir = TempDir::new("rewrite-race");
        let spec = wf_spec::corpus::running_example();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(17).wrapping_add(3));
        let engine: WfEngine = WfEngine::builder()
            .spec(spec.clone())
            .spill_dir(&dir.0)
            .build();
        let fleet = persist_fleet(&engine, &spec, 8, &mut rng);
        engine.compact().unwrap();
        // Three dead members out of eight: the pass has bytes to drop.
        for (run, ..) in &fleet[..3] {
            engine.evict_run(*run).unwrap();
        }
        let survivors = &fleet[3..];
        let survivor_ids: Vec<RunId> = survivors.iter().map(|(r, ..)| *r).collect();
        let disk_before = wfseg_bytes(&dir.0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..3 {
                    engine.compact().unwrap();
                }
            });
            s.spawn(|| {
                // A run re-heated mid-rewrite keeps its registration:
                // the pass moves its blob like any other live one.
                let _ = engine.reheat_run(survivor_ids[0]);
            });
            s.spawn(|| {
                for _ in 0..4 {
                    // The cross-run scan sees exactly the surviving
                    // runs and answers per replay.
                    let ids = engine.query().completed().run_ids();
                    assert_eq!(ids, survivor_ids);
                    for (run, exec, naive) in survivors {
                        let (u, v) = (exec.events()[0].vertex, exec.events()[2].vertex);
                        let got = engine.reach(*run, u, v).unwrap();
                        assert_eq!(got, Some(naive.reaches(u, v)), "{run:?} mid-rewrite");
                    }
                }
            });
        });
        // Settled: every survivor answers exactly, and the first pass
        // shrank the footprint by every dead byte.
        assert_answers(&engine, survivors);
        prop_assert!(wfseg_bytes(&dir.0) < disk_before);
        prop_assert_eq!(engine.stats().pack_dead_bytes, 0);
        // The re-heated run kept its seal record: the reload sees the
        // whole surviving fleet, that run persisted again.
        drop(engine);
        let reloaded: WfEngine = WfEngine::builder().spec(spec).spill_dir(&dir.0).build();
        prop_assert_eq!(reloaded.run_tier(survivor_ids[0]).unwrap(), Tier::Persisted);
        assert_answers(&reloaded, survivors);
    }
}
