//! Reads build no label: a `reach` allocates nothing in any tier, and a
//! name-scoped scan allocates per *match*, not per visited label. Writes
//! build each label once: applying an event through the engine allocates
//! what the bare labeler allocates for it — per parse-tree node, not per
//! event: a label shares its context's prefix array — and what the run
//! keeps on the heap once completed is what `stats()` says it keeps —
//! and once evicted, nothing.
//!
//! The paper's predicate decides "using only the two labels" at the
//! first entry where they differ, so a completed run can answer by
//! walking two bit cursors over its encoded arena — in the heap frame
//! that holds its blob — without materialising either label. This file
//! pins that down with a counting allocator: the counters are
//! thread-local, so the engine's background threads and other tests
//! never disturb a measurement.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;
use wf_provenance::prelude::*;

mod common;
use common::TempDir;

struct Counting;

thread_local! {
    /// `(allocations, bytes)` requested by this thread.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Bytes this thread requested minus bytes it gave back: its net
    /// live heap, as long as it frees what it allocates itself.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// One allocator call that hands out `requested` bytes (0: a `dealloc`)
/// and takes back `released`.
fn count(requested: usize, released: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    if requested > 0 {
        let _ = ALLOCATED.try_with(|c| {
            let (n, b) = c.get();
            c.set((n + 1, b + requested as u64));
        });
    }
    let _ = LIVE.try_with(|c| c.set(c.get() + requested as i64 - released as i64));
}

// SAFETY: every call is forwarded unchanged to `System`; the only added
// work is two thread-local counter bumps, which never allocate (`const`
// initialised `Cell`s with no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` this thread requested while running `f`.
fn allocated_by<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    let after = ALLOCATED.with(Cell::get);
    ((after.0 - before.0, after.1 - before.1), out)
}

/// An engine whose only trace events are lifecycle ones: a `reach` that
/// the scheduler happens to stall must not count as a "slow op" and push
/// an event from the measured thread.
fn engine(spec: &Specification, dir: &TempDir) -> WfEngine {
    WfEngine::builder()
        .spec(spec.clone())
        .spill_dir(&dir.0)
        .slow_op_threshold(Duration::from_secs(3600))
        .build()
}

/// Ingest and complete one run of `exec`, then move it to `tier`.
fn run_in_tier(engine: &WfEngine, exec: &Execution, tier: Tier) -> RunId {
    let run = engine.open_run(SpecId(0)).unwrap();
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    engine.complete_run(run).unwrap();
    match tier {
        Tier::Hot => {}
        Tier::Frozen => engine.freeze_run(run).unwrap(),
        Tier::Persisted => engine.persist_run(run).unwrap(),
    }
    assert_eq!(engine.run_tier(run).unwrap(), tier);
    run
}

fn generate(spec: &Specification, size: usize, seed: u64) -> Execution {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = RunGenerator::new(spec)
        .target_size(size)
        .generate_run(&mut rng);
    Execution::deterministic(&gen.graph, &gen.origin)
}

#[test]
fn reach_allocates_nothing_in_any_tier() {
    let dir = TempDir::new("reach");
    let spec = wf_spec::corpus::running_example();
    let exec = generate(&spec, 200, 41);
    let mut naive = NaiveDynamicDag::new();
    for ev in exec.events() {
        naive.insert(ev.vertex, &ev.preds);
    }
    let engine = engine(&spec, &dir);
    let vertices: Vec<VertexId> = exec.events().iter().map(|e| e.vertex).collect();
    let pairs: Vec<(VertexId, VertexId)> = (0..1000)
        .map(|i| {
            (
                vertices[i * 7 % vertices.len()],
                vertices[i * 13 % vertices.len()],
            )
        })
        .collect();
    for tier in [Tier::Hot, Tier::Frozen, Tier::Persisted] {
        let run = run_in_tier(&engine, &exec, tier);
        let handle = engine.handle(run).unwrap();
        // Warm-up: the first pin maps and verifies the pack; the
        // sampling counters and profile slots of this thread exist.
        for &(u, v) in &pairs {
            assert_eq!(handle.reach(u, v), Some(naive.reaches(u, v)), "{tier}");
        }
        let ((allocations, _), answered) = allocated_by(|| {
            pairs
                .iter()
                .filter(|&&(u, v)| handle.reach(u, v).is_some())
                .count()
        });
        assert_eq!(answered, pairs.len());
        assert_eq!(allocations, 0, "1000 reach calls on a {tier} run");
    }
}

/// `size`, divided by `WF_PROBE_SCALE` when it is set.
fn scaled(size: usize) -> usize {
    let scale = std::env::var("WF_PROBE_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1usize);
    size / scale.max(1)
}

/// **The sealed-read probe** (`#[ignore]`d: it times reads, so it runs
/// in release, on its own):
///
/// ```text
/// cargo test --release --test alloc_free_reads -- --ignored --nocapture sealed_read_probe
/// ```
///
/// One fixed-seed run of the running example and one of BioAID, about
/// 2 000 events each (`WF_PROBE_SCALE=n` divides the sizes), and one
/// fixed sample of vertex pairs asked through `RunHandle::reach` with the
/// run hot, frozen and persisted. Per tier it prints one JSON line: the
/// best of seven passes' ns per call, the allocations per call, and the
/// share of the pairs whose two labels share a context (those decide
/// from their two cells in every tier). Every tier answers every pair
/// alike, and no read allocates. It lives here, beside the counting
/// allocator it reads, rather than in a probe file of its own.
#[test]
#[ignore]
fn sealed_read_probe() {
    const PAIRS: usize = 4096;
    const PASSES: usize = 7;
    let specs = [
        ("running-example", wf_spec::corpus::running_example(), 11),
        ("bioaid", wf_spec::corpus::bioaid(), 12),
    ];
    for (name, spec, seed) in specs {
        let dir = TempDir::new("probe");
        let exec = generate(&spec, scaled(2000), seed);
        let engine = engine(&spec, &dir);
        let vertices: Vec<VertexId> = exec.events().iter().map(|e| e.vertex).collect();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut draw = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            vertices[(state % vertices.len() as u64) as usize]
        };
        let pairs: Vec<(VertexId, VertexId)> = (0..PAIRS).map(|_| (draw(), draw())).collect();
        let mut answers = None;
        for tier in [Tier::Hot, Tier::Frozen, Tier::Persisted] {
            let run = run_in_tier(&engine, &exec, tier);
            let handle = engine.handle(run).unwrap();
            let shared = pairs
                .iter()
                .filter(|&&(u, v)| {
                    let (a, b) = (handle.label(u).unwrap(), handle.label(v).unwrap());
                    let own = |l: &DrlLabel| l.entry(l.depth() - 1).unwrap().index;
                    let prefix = |l: &DrlLabel| l.entries().take(l.depth() - 1).collect::<Vec<_>>();
                    own(&a) == own(&b) && prefix(&a) == prefix(&b)
                })
                .count();
            let answer: Vec<Option<bool>> =
                pairs.iter().map(|&(u, v)| handle.reach(u, v)).collect();
            assert!(answer.iter().all(Option::is_some), "{name} {tier}");
            assert_eq!(
                answers.get_or_insert_with(|| answer.clone()),
                &answer,
                "{name} {tier}"
            );
            let pass = || {
                let started = std::time::Instant::now();
                let reached = pairs
                    .iter()
                    .filter(|&&(u, v)| handle.reach(u, v) == Some(true))
                    .count();
                (started.elapsed(), reached)
            };
            let ((allocations, _), _) = allocated_by(pass);
            let best = (0..PASSES).map(|_| pass().0).min().unwrap();
            println!(
                "{{\"probe\":\"sealed_read\",\"spec\":\"{name}\",\"tier\":\"{tier}\",\
                 \"labels\":{},\"pairs\":{PAIRS},\"ns_per_call\":{:.1},\
                 \"allocs_per_call\":{},\"same_context_share\":{:.3}}}",
                vertices.len(),
                best.as_nanos() as f64 / PAIRS as f64,
                allocations as f64 / PAIRS as f64,
                shared as f64 / PAIRS as f64,
            );
            assert_eq!(allocations, 0, "{name} {tier}");
        }
    }
}

/// One 1 500-event execution completed as two cold runs — frozen, then
/// persisted — and how many of its events carry each module name.
fn two_cold_runs(
    tag: &str,
) -> (
    TempDir,
    WfEngine,
    Execution,
    [RunId; 2],
    std::collections::HashMap<NameId, usize>,
) {
    let dir = TempDir::new(tag);
    let spec = wf_spec::corpus::running_example();
    let exec = generate(&spec, 1500, 43);
    let engine = engine(&spec, &dir);
    let runs = [
        run_in_tier(&engine, &exec, Tier::Frozen),
        run_in_tier(&engine, &exec, Tier::Persisted),
    ];
    let mut by_name = std::collections::HashMap::<NameId, usize>::new();
    for ev in exec.events() {
        *by_name.entry(ev.name).or_default() += 1;
    }
    (dir, engine, exec, runs, by_name)
}

#[test]
fn name_scoped_scans_allocate_per_match_not_per_label() {
    let (_dir, engine, exec, runs, by_name) = two_cold_runs("scan");
    // The rarest module name of the run: few matches among many labels.
    let (&name, &matches) = by_name.iter().min_by_key(|(n, c)| (**c, n.0)).unwrap();
    let labels = exec.len() * runs.len();
    assert!(matches * 50 < exec.len(), "{matches} of {}", exec.len());

    let scan = || engine.query().vertices_named(name);
    let warm = scan();
    assert_eq!(warm.len(), runs.len());
    assert!(warm.iter().all(|(_, vs)| vs.len() == matches));
    let ((allocations, _), again) = allocated_by(scan);
    assert_eq!(again, warm);
    // Per scan: the view snapshot, the result rows; per run: the
    // matcher's dedup set and witness list growing to `matches` entries.
    // Nothing per visited label — the parent decoded every one into a
    // fresh box, matching name or not.
    let budget = 16 + runs.len() as u64 * (8 + 2 * matches as u64);
    assert!(
        allocations <= budget && allocations * 10 < labels as u64,
        "{allocations} allocations over {labels} labels ({matches} matches per run, budget {budget})"
    );
}

/// A standing query holds vertex ids, not labels: a label lives once, in
/// its run, and the matcher reads it back when it evaluates. So a
/// `runs_linking(n, absent)` scan over the two cold runs — every `n`
/// vertex relevant, none ever meeting a counterpart — allocates only as
/// its id set and id list double, O(log matches) per run, and a
/// subscription caught up on both keeps a few bytes per relevant vertex.
/// The parent decoded every `n` label into an owned copy and kept it:
/// 408 allocations per scan, 73 942 B retained.
#[test]
fn cold_scans_and_catch_ups_hold_ids_not_decoded_labels() {
    let (_dir, engine, exec, runs, by_name) = two_cold_runs("ids");
    // The most frequent module name: the most relevant vertices.
    let (&name, &matches) = by_name.iter().max_by_key(|(n, c)| (**c, n.0)).unwrap();
    let absent = NameId(u32::MAX);
    assert!(matches * 10 > exec.len(), "{matches} of {}", exec.len());

    let scan = || engine.query().runs_linking(name, absent);
    assert_eq!(scan(), []);
    let ((allocations, bytes), linked) = allocated_by(scan);
    assert_eq!(linked, []);
    // Per scan: the view snapshot; per run: one allocation per doubling
    // of the `seen` set and of the `from` list.
    let doublings = u64::from(usize::BITS - matches.leading_zeros());
    let budget = 8 + runs.len() as u64 * 2 * doublings;
    assert!(
        allocations <= budget,
        "{allocations} allocations ({bytes} B) scanning {matches} relevant vertices per run, budget {budget}"
    );

    let before = LIVE.with(Cell::get);
    let sub = engine.subscribe(SubPredicate::runs_linking(name, absent));
    let retained = LIVE.with(Cell::get) - before;
    assert_eq!(sub.pending(), 0);
    let relevant = (runs.len() * matches) as i64;
    assert!(
        retained <= 32 * relevant,
        "{retained} B retained by a subscription over {relevant} relevant vertices"
    );
}

/// A linking scan over sealed runs evaluates its pairs off the arena in
/// place: every pair climbs the two labels' trie paths, and nothing is
/// decoded or allocated per pair — what a scan allocates is its id sets
/// doubling, however many pairs it evaluates. The name pair is the one
/// of the run's frequent names that never links (so every relevant pair
/// is evaluated) with the most evaluations.
#[test]
fn a_linking_scan_over_sealed_runs_allocates_nothing_per_pair() {
    let (_dir, engine, exec, runs, by_name) = two_cold_runs("pairs");
    let mut frequent: Vec<NameId> = by_name
        .iter()
        .filter(|(_, &count)| count * 20 > exec.len())
        .map(|(&name, _)| name)
        .collect();
    frequent.sort_by_key(|n| n.0);
    let evaluated = |from, to| {
        let before = engine.stats().queries_answered;
        let linked = engine.query().runs_linking(from, to);
        (linked, engine.stats().queries_answered - before)
    };
    let (from, to, pairs) = frequent
        .iter()
        .flat_map(|&a| frequent.iter().map(move |&b| (a, b)))
        .filter(|&(a, b)| a != b)
        .filter_map(|(a, b)| {
            let (linked, pairs) = evaluated(a, b);
            linked.is_empty().then_some((a, b, pairs))
        })
        .max_by_key(|&(a, b, pairs)| (pairs, a.0, b.0))
        .expect("two frequent names that never link");
    assert!(pairs > 10_000, "{pairs} pairs evaluated");
    let matches = by_name[&from].max(by_name[&to]);
    let doublings = u64::from(usize::BITS - matches.leading_zeros());
    let budget = 8 + runs.len() as u64 * 3 * doublings;
    let ((allocations, bytes), linked) = allocated_by(|| engine.query().runs_linking(from, to));
    assert_eq!(linked, []);
    assert!(
        allocations <= budget,
        "{allocations} allocations ({bytes} B) evaluating {pairs} pairs, budget {budget}"
    );
}

/// Definition 8 gives an insertion one permanent label, and the engine
/// holds one copy of it: the label `ExecutionState::insert` returns is
/// moved into the run's index. So a live run fed through the apply body
/// allocates what the bare `ExecutionLabeler` — which keeps that same one
/// copy in its own table — allocates for the same stream, give or take
/// the index's chunk tables. And the bare labeler allocates at most once
/// per parse-tree *node* — its prefix array, unless it is one more copy
/// under a special node, which holds the array its copies share — plus
/// its tables doubling, not per event: a label is its node's prefix
/// array, shared, plus one inline entry. 1 350 allocations for these
/// 6 000 events and 3 047 nodes. With a child list per node, a hashed
/// expansion map and a candidate list collected per source event it made
/// 8 568; boxing a private copy of the prefix per label, 22 496.
/// `ingest()` applies on its caller's thread through
/// the same door as `RunHandle::submit`, so the same stream allocates
/// exactly as much through it: the event moves in, nothing is copied.
#[test]
fn an_applied_event_allocates_no_more_than_the_bare_labeler() {
    let spec = wf_spec::corpus::running_example();
    let exec = generate(&spec, 6000, 47);
    let skeleton = TclSpecLabels::build(&spec);
    let ((bare, _), labeler) = allocated_by(|| {
        let mut labeler = ExecutionLabeler::new(&spec, &skeleton).unwrap();
        for ev in exec.events() {
            labeler.insert(ev).unwrap();
        }
        labeler
    });
    assert_eq!(labeler.len(), exec.len());
    let nodes = labeler.tree().len() as u64;
    assert!(
        bare <= nodes + 64,
        "{bare} allocations labeling {} events into {nodes} parse-tree nodes",
        exec.len()
    );

    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .slow_op_threshold(Duration::from_secs(3600))
        .build();
    let run = engine.open_run(SpecId(0)).unwrap();
    let handle = engine.handle(run).unwrap();
    let ((applied, _), ()) = allocated_by(|| {
        for ev in exec.events() {
            handle.submit(ev).unwrap();
        }
    });
    assert_eq!(handle.published(), exec.len());
    // The index's chunks for a run this size, of its cells and of its
    // prefix table; the sampled apply spans allocate nothing.
    assert!(
        applied <= bare + 64,
        "{applied} allocations applying {} events through the engine, {bare} in the bare labeler",
        exec.len()
    );

    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .slow_op_threshold(Duration::from_secs(3600))
        .build();
    let run = engine.open_run(SpecId(0)).unwrap();
    let events: Vec<ServiceEvent> = exec
        .events()
        .iter()
        .map(|ev| ServiceEvent {
            run,
            op: RunOp::Insert(ev.clone()),
        })
        .collect();
    let ((ingested, _), ()) = allocated_by(|| {
        for event in events {
            engine.ingest(event).unwrap();
        }
    });
    assert_eq!(engine.handle(run).unwrap().published(), exec.len());
    assert_eq!(
        ingested, applied,
        "allocations applying the same stream through ingest() and RunHandle::submit"
    );
}

/// Journaling an event is encoding it: `log_then_apply` hands the WAL a
/// closure that writes the event's bytes under the shard lock, straight
/// into the shard's buffer, so the same stream costs the same allocations
/// with a log as without — plus the buffer's handful of doublings. The
/// parent built a `Vec` payload per event: ~6 000 more. (Telemetry is off
/// on both sides: a sampled apply — 1 in 64 — traces its `wal_append`
/// child with a rendered detail string, which is tracing's allocation,
/// not journaling's.)
#[test]
fn a_journaled_event_allocates_no_more_than_an_unjournaled_one() {
    let dir = TempDir::new("journaled");
    let spec = wf_spec::corpus::running_example();
    let exec = generate(&spec, 6000, 47);
    let submit_all = |wal: bool| {
        let mut builder = WfEngine::builder().spec(spec.clone()).telemetry(false);
        if wal {
            builder = builder.wal_dir(&dir.0).wal_sync(WalSync::GroupCommit {
                window: Duration::from_millis(2),
            });
        }
        let engine: WfEngine = builder.build();
        assert_eq!(engine.wal_dir().is_some(), wal);
        let run = engine.open_run(SpecId(0)).unwrap();
        let handle = engine.handle(run).unwrap();
        let ((allocations, _), ()) = allocated_by(|| {
            for ev in exec.events() {
                handle.submit(ev).unwrap();
            }
        });
        assert_eq!(handle.published(), exec.len());
        assert_eq!(
            engine.stats().wal_records,
            if wal { 1 + exec.len() as u64 } else { 0 }
        );
        allocations
    };
    let (without_wal, with_wal) = (submit_all(false), submit_all(true));
    assert!(
        with_wal <= without_wal + 64,
        "{with_wal} allocations journaling and applying {} events, {without_wal} applying them",
        exec.len()
    );
}

/// An insert into a context that is already open — the next vertex of a
/// long fork or loop body, most of a `bioaid` run — creates no parse-tree
/// node, so it allocates nothing: its label borrows the node's prefix
/// array. All such inserts of a run together pay only for the labeler's
/// two per-vertex tables doubling.
#[test]
fn an_insert_into_an_open_context_allocates_nothing() {
    let spec = wf_spec::corpus::bioaid();
    let exec = generate(&spec, 6000, 53);
    let skeleton = TclSpecLabels::build(&spec);
    let mut labeler = ExecutionLabeler::new(&spec, &skeleton).unwrap();
    let (mut into_open, mut allocations) = (0usize, 0u64);
    for ev in exec.events() {
        let nodes = labeler.tree().len();
        let ((n, _), inserted) = allocated_by(|| labeler.insert(ev));
        inserted.unwrap();
        if labeler.tree().len() == nodes {
            into_open += 1;
            allocations += n;
        }
    }
    assert!(
        into_open * 5 >= exec.len() * 4,
        "{into_open} of {} inserts found their context open",
        exec.len()
    );
    // Placements and labels, each `Vec` doubling up to 6 000 slots.
    assert!(
        allocations <= 2 * 14,
        "{allocations} allocations over {into_open} inserts into open contexts"
    );
}

/// Runs opened per engine to take what one open run keeps: enough that
/// the registry's growth is a small share of it.
const OPENED: usize = 256;

/// What `open_run` allocates for [`OPENED`] runs of `spec` — bytes
/// requested, and bytes still held — after one run has warmed the engine
/// and this thread up.
fn open_runs(spec: &Specification) -> (u64, i64) {
    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .slow_op_threshold(Duration::from_secs(3600))
        .build();
    engine.open_run(SpecId(0)).unwrap();
    let before = LIVE.with(Cell::get);
    let ((_, bytes), ()) = allocated_by(|| {
        for _ in 0..OPENED {
            engine.open_run(SpecId(0)).unwrap();
        }
    });
    (bytes, LIVE.with(Cell::get) - before)
}

/// Opening a run builds nothing per spec: the labeler's tables — the
/// grammar analysis's designated vertices, which body a source name
/// opens, each composite vertex's expansion slot, the Conditions 1–2
/// check — are built once, with the spec's context, and every run
/// borrows them. So `open_run` allocates the same bytes whatever the
/// spec's graph count, and what a run with no events keeps is its slot:
/// two short chunk directories, not two of 200 entries: 1 761 B
/// requested and 1 715 B kept a run, for each of these three specs. The
/// parent ran the grammar analysis twice and built a name map and a
/// designated-vertex table per run — 23 134, 74 977 and 525 217 B
/// requested a run — and kept 10 371–10 499 B per empty run.
#[test]
fn opening_a_run_allocates_the_same_whatever_the_spec() {
    let deep = wf_spec::synthetic::SyntheticParams {
        depth: 12,
        ..Default::default()
    }
    .build();
    let specs = [
        wf_spec::corpus::running_example(),
        wf_spec::corpus::bioaid(),
        deep,
    ];
    let opened: Vec<(usize, u64, i64)> = specs
        .iter()
        .map(|spec| {
            let (bytes, kept) = open_runs(spec);
            (spec.graph_count(), bytes, kept)
        })
        .collect();
    let graphs: std::collections::BTreeSet<usize> = opened.iter().map(|o| o.0).collect();
    assert_eq!(graphs.len(), specs.len(), "three graph counts: {opened:?}");
    for &(graphs, bytes, kept) in &opened {
        assert_eq!(
            bytes, opened[0].1,
            "bytes allocated opening {OPENED} runs of a {graphs}-graph spec: {opened:?}"
        );
        let per_run = kept as f64 / OPENED as f64;
        assert!(
            per_run <= 2048.0,
            "{per_run:.0} B kept per open run of a {graphs}-graph spec"
        );
    }
}

/// `stats().hot_resident_bytes` is a claim about real memory, so it is
/// held against the allocator: the heap a completed hot run keeps per
/// label — 16-byte two-word cells in their chunk tables, plus the prefix
/// table holding each shared array of 8-byte entry words once, the
/// labeler gone — is small,
/// and the reported figure covers most of it and never more than it. It
/// counts the cells, one prefix-table slot per distinct array and the
/// arrays; it does not count the chunk directories, the chunks'
/// unreached slots, the run's fixed state (`per_run_fixed`: what a run
/// with no events keeps) or, while the run is live, its labeler — the
/// parse tree at six words a node, one 8-byte placement per vertex slot
/// and a 4-byte expansion slot per composite vertex of an expanded
/// instance, which the line's ledger fields break down per label. Measured here: 99.5 B/label live,
/// 41.8 completed, 32.5 reported. With 20-byte decoded entries in the
/// prefix arrays a live run kept 114.4 B/label (56.7 completed, 46.7
/// reported); with 96-byte nodes, child lists, a hashed expansion map
/// and a full chunk directory per table 172.9 (57.4 completed); cells in
/// 32-byte `OnceLock` slots kept 82.8 B/label completed, and cells that
/// each held a fat `Arc` to their prefix 111.7.
#[test]
fn a_completed_hot_run_keeps_the_heap_its_stats_report() {
    let spec = wf_spec::corpus::running_example();
    let exec = generate(&spec, 6000, 47);
    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .slow_op_threshold(Duration::from_secs(3600))
        .build();
    let per_label = |bytes: i64| bytes as f64 / exec.len() as f64;
    let before = LIVE.with(Cell::get);
    let run = engine.open_run(SpecId(0)).unwrap();
    let handle = engine.handle(run).unwrap();
    for ev in exec.events() {
        handle.submit(ev).unwrap();
    }
    let live = per_label(LIVE.with(Cell::get) - before);
    handle.complete().unwrap();
    let completed = per_label(LIVE.with(Cell::get) - before);
    let stats = engine.stats();
    assert_eq!(stats.labels_hot, exec.len() as u64);
    let reported = stats.hot_resident_bytes as f64 / exec.len() as f64;
    let per_run_fixed = open_runs(&spec).1 as f64 / OPENED as f64;
    // The labeler's part of `live`, by field: the bare labeler's state
    // over the same stream.
    let skeleton = TclSpecLabels::build(&spec);
    let mut labeler = ExecutionLabeler::new(&spec, &skeleton).unwrap();
    for ev in exec.events() {
        labeler.insert(ev).unwrap();
    }
    let ledger = labeler.heap();
    let field = |bytes: usize| per_label(bytes as i64);
    // CI appends this line to the tier-footprint artifact.
    println!(
        "{{\"metric\":\"heap_per_label\",\"labels\":{},\"live\":{live:.1},\
         \"completed\":{completed:.1},\"reported\":{reported:.1},\
         \"per_run_fixed\":{per_run_fixed:.0},\"nodes\":{:.1},\"tree_slack\":{:.1},\
         \"placement\":{:.1},\"expansions\":{:.1},\"prefix_arrays\":{:.1}}}",
        exec.len(),
        field(ledger.nodes),
        field(ledger.tree_slack),
        field(ledger.placement),
        field(ledger.expansions),
        field(ledger.prefix_arrays),
    );
    assert!(completed < live, "completion frees the labeler");
    assert!(live <= 100.0, "{live:.1} B of heap per label while live");
    assert!(completed <= 45.0, "{completed:.1} B of heap per label");
    let ratio = reported / completed;
    assert!(
        (0.6..=1.0).contains(&ratio),
        "{reported:.1} B/label reported, {completed:.1} B/label on the heap"
    );
}

/// An evicted run leaves no heap behind: the registry is the one record
/// that a run exists, and an eviction takes the run out of it, so a
/// subscription open beside the evictions keeps no per-run mark of them.
/// A first round grows the registry's shard maps; the second round, as
/// many runs again, must then retain (next to) nothing — a set of
/// evicted ids kept for the engine's lifetime would hold 73 728 B for
/// it.
#[test]
fn an_evicted_run_leaves_no_heap_behind() {
    const RUNS: usize = 4096;
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .slow_op_threshold(Duration::from_secs(3600))
        .build();
    let _sub = engine.subscribe(SubPredicate::vertices_named(NameId(0)));
    let round = || {
        for _ in 0..RUNS {
            let run = engine.open_run(SpecId(0)).unwrap();
            engine.evict_run(run).unwrap();
        }
    };
    round();
    let before = LIVE.with(Cell::get);
    round();
    let retained = LIVE.with(Cell::get) - before;
    assert!(
        retained <= 1024,
        "{retained} B retained by {RUNS} evicted runs"
    );
}

/// A depth is outside input: nothing may be sized from it before the
/// bytes are known to back it — neither a standalone label's prefix
/// count nor a label arena's trie depth, which a label read into an owned
/// copy is sized by.
#[test]
fn a_lying_depth_prefix_sizes_no_allocation() {
    use wf_provenance::drl::{ArenaRef, Entry, LabelArena, NameTable, NodeKind};
    let mut prefix = wf_provenance::drl::encode::BitWriter::new();
    prefix.push_gamma(999_999);
    let lying = prefix.into_bytes();
    let ((_, bytes), decoded) = allocated_by(|| decode_label(&lying, 4));
    assert!(decoded.is_none());
    // Nothing — not the claimed 999 999 entries (≈ 24 MB once).
    assert_eq!(
        bytes,
        0,
        "bytes allocated for a {}-byte buffer",
        lying.len()
    );
    // A three-entry prefix in an arena: its trie records 1–3 at depths
    // 1–3. Record 1 made to claim depth 3 — more than a chain ending at
    // record 1 can have — leaves the label unreadable, and reading it
    // into an owned copy allocates nothing.
    let n = |index, g, v| Entry {
        index,
        kind: NodeKind::N,
        skl: Some((wf_spec::GraphId(g), VertexId(v))),
        rec: None,
    };
    let label = DrlLabel::new(vec![
        n(0, 0, 1),
        Entry::special(900, NodeKind::L),
        n(1, 1, 0),
        n(2, 1, 1),
    ]);
    let names = NameTable::default();
    let arena = LabelArena::build(
        4,
        &names,
        [(VertexId(0), NameId(0), label.view())].into_iter(),
    );
    let bytes = arena.bytes();
    // The trie is the stream's last 3 records; depth is its second field,
    // after the 2-bit parent, 2 bits wide.
    let widths = &bytes[12..27];
    let trie_bits: usize = widths[8..].iter().map(|&w| usize::from(w)).sum();
    assert_eq!((widths[8], widths[9]), (2, 2), "parent and depth widths");
    let stream_bits = {
        let cells: usize = widths[..4].iter().map(|&w| usize::from(w)).sum();
        let contexts: usize = widths[4..8].iter().map(|&w| usize::from(w)).sum();
        cells + contexts + 3 * trie_bits
    };
    let depth_at = (bytes.len() - stream_bits.div_ceil(8)) * 8 + (stream_bits - 3 * trie_bits) + 2;
    let mut patched = bytes.to_vec();
    patched[depth_at / 8] |= 0b11 << (depth_at % 8);
    let reader = ArenaRef::new(&patched, 4, &names).unwrap();
    let ((_, bytes), decoded) = allocated_by(|| reader.label(VertexId(0)).unwrap().to_label());
    assert_eq!((decoded, bytes), (None, 0));
    assert!(reader.to_arena().is_err());
    // The journaled form of an event makes the same promise about its
    // predecessor count: `u32::MAX` of them claimed over two bytes.
    let lying = [1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0];
    let ((allocations, _), read) = allocated_by(|| wf_drl::encode::read_event(&lying));
    assert_eq!((read, allocations), (None, 0));
}
