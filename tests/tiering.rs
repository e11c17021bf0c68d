//! Tiered label store: freeze → snapshot → reload → query agreement
//! with naive replay, and crash-safety of the snapshot loader.
//!
//! The acceptance bar for tiering is exactness: a completed run must
//! answer `reach()` and `engine.query()` identically from the hot index,
//! its sealed blob on the heap, and the same blob reloaded from its pack
//! by a *different* engine — verified here against [`NaiveDynamicDag`], the paper's
//! ground-truth dynamic scheme, for every sampled vertex pair. A
//! truncated or bit-flipped segment — or one in a format version this
//! engine does not write — must be rejected cleanly at load (typed
//! error, no panic), with queries degrading to "no labels".

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use wf_drl::{Entry, NameTable, NodeKind};
use wf_provenance::prelude::*;
use wf_service::snapshot::{self, Seal};
use wf_service::wal::crc32c;
use wf_service::{ServiceError, SnapshotError, Tier};

mod common;
use common::TempDir;

fn spec_for(seed: u64) -> Specification {
    if seed.is_multiple_of(2) {
        wf_spec::corpus::running_example()
    } else {
        wf_spec::corpus::bioaid_nonrecursive()
    }
}

/// Each run's last seal record, when it places the run: where the log
/// says its blob lies now, in run order.
fn sealed(dir: &std::path::Path) -> Vec<Seal> {
    let records = snapshot::read_seal_log(dir).unwrap().records;
    let last: std::collections::BTreeMap<RunId, Seal> =
        records.into_iter().map(|r| (r.run(), r)).collect();
    let last = last.into_values();
    last.filter(|r| matches!(r, Seal::Sealed { .. })).collect()
}

/// The pack file the seal log places `run` in.
fn pack_path(dir: &std::path::Path, run: RunId) -> PathBuf {
    let pack = sealed(dir)
        .into_iter()
        .find_map(|seal| match seal {
            Seal::Sealed { run: r, pack, .. } if r == run => Some(pack),
            _ => None,
        })
        .expect("the seal log places the run");
    dir.join(snapshot::pack_file_name(pack))
}

/// The seal records of `dir`.
fn seals(dir: &std::path::Path) -> Vec<Seal> {
    snapshot::read_seal_log(dir).unwrap().records
}

/// Write `records` as the whole seal log of `dir`.
fn write_seals(dir: &std::path::Path, records: &[Seal]) {
    let path = dir.join(snapshot::SEAL_LOG_FILE);
    std::fs::write(path, snapshot::seal_log_bytes(records)).unwrap();
}

/// Ingest `exec` as a fresh run of spec 0, complete it and spill it.
fn persist_one(engine: &WfEngine, exec: &Execution) -> RunId {
    let run = engine.open_run(SpecId(0)).unwrap();
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    engine.complete_run(run).unwrap();
    engine.persist_run(run).unwrap();
    run
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// freeze → snapshot → reload → query agrees with [`NaiveDynamicDag`]
    /// replay for every vertex pair sampled, across both a recursive and
    /// a non-recursive spec.
    #[test]
    fn frozen_and_persisted_answers_match_naive_replay(
        seed in 0u64..10_000,
        target in 30usize..140,
    ) {
        let dir = TempDir::new("prop");
        let spec = spec_for(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = RunGenerator::new(&spec).target_size(target).generate_run(&mut rng);
        let exec = Execution::random(&gen.graph, &gen.origin, &mut rng);

        // Ground truth: replay the execution through the naive scheme.
        let mut naive = NaiveDynamicDag::new();
        for ev in exec.events() {
            naive.insert(ev.vertex, &ev.preds);
        }

        // Ingest, complete, freeze, spill.
        let engine: WfEngine = WfEngine::builder()
            .spec(spec.clone())
            .ingest_workers(2)
            .spill_dir(&dir.0)
            .build();
        let run = engine.open_run(SpecId(0)).unwrap();
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        engine.complete_run(run).unwrap();
        engine.freeze_run(run).unwrap();
        prop_assert_eq!(engine.run_tier(run).unwrap(), Tier::Frozen);

        // Sampled pairs (every pair for small runs) from the held frame.
        let vertices: Vec<VertexId> = exec.events().iter().map(|e| e.vertex).collect();
        let frozen = engine.handle(run).unwrap();
        for a in vertices.iter().step_by(3) {
            for b in vertices.iter().step_by(2) {
                prop_assert_eq!(frozen.reach(*a, *b), Some(naive.reaches(*a, *b)));
            }
        }
        // The handle follows its run onto disk: keep the labels as the
        // held frame reads them, to compare the reload against.
        let sampled: Vec<_> = vertices.iter().step_by(5).map(|&v| (v, frozen.label(v))).collect();

        engine.persist_run(run).unwrap();
        prop_assert_eq!(engine.run_tier(run).unwrap(), Tier::Persisted);
        drop(engine);

        // Reload in a fresh engine and compare against naive again.
        let reloaded: WfEngine = WfEngine::builder()
            .spec(spec)
            .spill_dir(&dir.0)
            .build();
        prop_assert_eq!(reloaded.run_status(run).unwrap(), RunStatus::Completed);
        let h = reloaded.handle(run).unwrap();
        prop_assert_eq!(h.published(), exec.len());
        for a in vertices.iter().step_by(2) {
            for b in vertices.iter().step_by(3) {
                prop_assert_eq!(h.reach(*a, *b), Some(naive.reaches(*a, *b)));
            }
        }
        // The cross-run surface sees the reloaded run, and its labels
        // round-tripped bit-exactly through the segment.
        prop_assert_eq!(reloaded.query().completed().run_ids(), vec![run]);
        for (v, label) in sampled {
            prop_assert_eq!(reloaded.label(run, v).unwrap(), label);
        }
    }
}

/// FNV-1a, the checksum of segment versions 1–4 — restated here so the
/// test can frame blobs the engine has no encoder for.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The format-v1 or format-v2 blob of a v3 blob: the same 52 common
/// header bytes under the older `version`, then what that format put
/// before the slot table — nothing in v1; `frozen_at` plus the 44-byte
/// SKL report block, here with its flag clear, in v2 (what engines of
/// that format wrote for a run with no derivation) — then the same slots
/// and arena and a fresh checksum.
fn downgrade(v3: &[u8], version: u32) -> Vec<u8> {
    const COMMON: usize = 8 + 4 + 8 + 4 + 4 + 4 + 4 + 8 + 8;
    const HEADER: usize = COMMON + 8;
    const SKL_BLOCK: usize = 4 + 5 * 8;
    let mut old = v3[..COMMON].to_vec();
    old[8..12].copy_from_slice(&version.to_le_bytes());
    if version == 2 {
        old.extend_from_slice(&v3[COMMON..HEADER]);
        old.extend_from_slice(&[0; SKL_BLOCK]);
    }
    old.extend_from_slice(&v3[HEADER..v3.len() - 8]);
    let checksum = fnv1a(&old);
    old.extend_from_slice(&checksum.to_le_bytes());
    old
}

/// The labels an engine publishes for `exec`, in vertex order, by a
/// labeler of its own; and the pointer width they are encoded with.
fn labeled(spec: &Specification, exec: &Execution) -> (usize, Vec<(ExecEvent, DrlLabel)>) {
    let skeleton = TclSpecLabels::build(spec);
    let mut labeler = ExecutionLabeler::new(spec, &skeleton).unwrap();
    for ev in exec.events() {
        labeler.insert(ev).unwrap();
    }
    let mut labels: Vec<_> = exec
        .events()
        .iter()
        .map(|ev| (ev.clone(), labeler.label(ev.vertex).unwrap().clone()))
        .collect();
    labels.sort_by_key(|(ev, _)| ev.vertex);
    (labeler.skl_bits(), labels)
}

/// The entry code, restated: index + 1 (γ), two kind bits, and for an
/// `N` entry its graph + 1 (γ), its skeleton vertex in `skl_bits` bits
/// and its rec flags (one bit, two more when set).
fn push_entry(w: &mut wf_drl::encode::BitWriter, e: &Entry, skl_bits: usize) {
    w.push_gamma(u64::from(e.index) + 1);
    w.push_bits(kind_code(e.kind), 2);
    if let (NodeKind::N, Some((g, v))) = (e.kind, e.skl) {
        w.push_gamma(u64::from(g.0) + 1);
        w.push_bits(u64::from(v.0), skl_bits);
        w.push_bit(e.rec.is_some());
        if let Some((r1, r2)) = e.rec {
            w.push_bit(r1);
            w.push_bit(r2);
        }
    }
}

fn kind_code(kind: NodeKind) -> u64 {
    match kind {
        NodeKind::N => 0,
        NodeKind::L => 1,
        NodeKind::F => 2,
        NodeKind::R => 3,
    }
}

/// A v6 label arena restated from the labels alone, in vertex order: the
/// layout header (id span, the context and trie record counts, the width
/// of each field), a presence word with its rank per 64 ids, then one bit
/// stream of records, each field as wide as its largest value: a cell per
/// label — context, skeleton vertex, rec code, name code (0 when the
/// name is the spec vertex's, else name + 1) — then a context record per
/// distinct (prefix, own index, kind, graph) — prefix, index, kind, graph
/// — then a trie record per distinct (parent, entry), root first as the
/// labels meet them — parent, depth, index, kind, graph, skeleton vertex,
/// rec code. A prefix and a parent are a record's number plus one, 0 for
/// none; every other record number counts from 0.
fn restate_arena(spec: &Specification, labels: &[(ExecEvent, DrlLabel)]) -> Vec<u8> {
    use std::collections::HashMap;
    fn numbered<K: std::hash::Hash + Eq, const N: usize>(
        map: &mut HashMap<K, u32>,
        rows: &mut Vec<[u64; N]>,
        key: K,
        row: [u64; N],
    ) -> u32 {
        *map.entry(key).or_insert_with(|| {
            rows.push(row);
            rows.len() as u32 - 1
        })
    }
    let fields = |e: &Entry| -> [u64; 5] {
        let (g, v) = e.skl.map_or((0, 0), |(g, v)| (g.0, v.0));
        let rec = e
            .rec
            .map_or(0, |(r1, r2)| 1 + 2 * u64::from(r1) + u64::from(r2));
        [e.index.into(), kind_code(e.kind), g.into(), v.into(), rec]
    };
    let (mut trie, mut trie_rows) = (HashMap::new(), Vec::<[u64; 7]>::new());
    let (mut contexts, mut context_rows) = (HashMap::new(), Vec::<[u64; 4]>::new());
    let mut cells = Vec::<[u64; 4]>::new();
    for (ev, label) in labels {
        let entries: Vec<Entry> = label.entries().copied().collect();
        let (last, prefix) = entries.split_last().unwrap();
        let mut parent = 0u64;
        for (depth, e) in (1u64..).zip(prefix) {
            let [i, k, g, v, r] = fields(e);
            let row = [parent, depth, i, k, g, v, r];
            parent = u64::from(numbered(&mut trie, &mut trie_rows, (parent, *e), row)) + 1;
        }
        let [index, kind, graph, vertex, rec] = fields(last);
        let key = [parent, index, kind, graph];
        let context = numbered(&mut contexts, &mut context_rows, key, key);
        let (g, v) = last.skl.unwrap();
        let own = spec.graph(g).name(v);
        let code = if own == ev.name {
            0
        } else {
            u64::from(ev.name.0) + 1
        };
        cells.push([context.into(), vertex, rec, code]);
    }
    fn widths<const N: usize>(rows: &[[u64; N]]) -> Vec<u8> {
        (0..N)
            .map(|k| (64 - rows.iter().map(|r| r[k]).max().unwrap_or(0).leading_zeros()) as u8)
            .collect()
    }
    let (cell_w, context_w, trie_w) = (widths(&cells), widths(&context_rows), widths(&trie_rows));
    let span = labels.last().unwrap().0.vertex.0 + 1;
    let counts = [span, context_rows.len() as u32, trie_rows.len() as u32];
    let mut arena: Vec<u8> = counts.iter().flat_map(|c| c.to_le_bytes()).collect();
    arena.extend(cell_w.iter().chain(&context_w).chain(&trie_w));
    let mut before = 0u32;
    for word in 0..span.div_ceil(64) {
        let bits = labels
            .iter()
            .map(|(ev, _)| ev.vertex.0)
            .filter(|v| v / 64 == word)
            .fold(0u64, |bits, v| bits | 1 << (v % 64));
        arena.extend(bits.to_le_bytes());
        arena.extend(before.to_le_bytes());
        before += bits.count_ones();
    }
    let mut packed = wf_drl::encode::BitWriter::new();
    let regions: [(&[u64], &[u8]); 3] = [
        (cells.as_flattened(), &cell_w),
        (context_rows.as_flattened(), &context_w),
        (trie_rows.as_flattened(), &trie_w),
    ];
    for (rows, widths) in regions {
        for (field, width) in rows.iter().zip(widths.iter().cycle()) {
            packed.push_bits(*field, usize::from(*width));
        }
    }
    arena.extend(packed.into_bytes());
    arena
}

/// A v5 label arena restated from the labels alone, in vertex order: the
/// layout header (id span, prefix-heap length, the width of each cell
/// field), a presence word with its rank per 64 ids, one cell per label
/// bit-packed at the widths of the run — name, prefix offset, own index,
/// kind, graph, skeleton vertex, rec code — and each distinct prefix
/// array once (labels carrying one array carry one number), as its
/// entry count + 1 and its entries, from a byte boundary.
fn restate_v5_arena(labels: &[(ExecEvent, DrlLabel)], skl_bits: usize) -> Vec<u8> {
    let mut heap = Vec::new();
    let mut records = std::collections::HashMap::new();
    let cells: Vec<[u32; 7]> = labels
        .iter()
        .map(|(ev, label)| {
            let entries: Vec<Entry> = label.entries().copied().collect();
            let (last, prefix) = entries.split_last().unwrap();
            let offset = *records.entry(label.prefix_id()).or_insert_with(|| {
                let mut w = wf_drl::encode::BitWriter::new();
                w.push_gamma(prefix.len() as u64 + 1);
                for e in prefix {
                    push_entry(&mut w, e, skl_bits);
                }
                let offset = heap.len() as u32;
                heap.extend(w.into_bytes());
                offset
            });
            let (g, v) = last.skl.unwrap();
            let rec = last
                .rec
                .map_or(0, |(r1, r2)| 1 + 2 * u32::from(r1) + u32::from(r2));
            let kind = kind_code(last.kind) as u32;
            [ev.name.0, offset, last.index, kind, g.0, v.0, rec]
        })
        .collect();
    let widths: Vec<u8> = (0..7)
        .map(|k| (32 - cells.iter().map(|c| c[k]).max().unwrap().leading_zeros()) as u8)
        .collect();
    let span = labels.last().unwrap().0.vertex.0 + 1;
    let mut arena = [span.to_le_bytes(), (heap.len() as u32).to_le_bytes()].concat();
    arena.extend(&widths);
    let mut before = 0u32;
    for word in 0..span.div_ceil(64) {
        let bits = labels
            .iter()
            .map(|(ev, _)| ev.vertex.0)
            .filter(|v| v / 64 == word)
            .fold(0u64, |bits, v| bits | 1 << (v % 64));
        arena.extend(bits.to_le_bytes());
        arena.extend(before.to_le_bytes());
        before += bits.count_ones();
    }
    let mut packed = wf_drl::encode::BitWriter::new();
    for cell in &cells {
        for (field, width) in cell.iter().zip(&widths) {
            packed.push_bits(u64::from(*field), usize::from(*width));
        }
    }
    arena.extend(packed.into_bytes());
    arena.extend(heap);
    arena
}

/// The format-v5 blob of the run a v6 blob holds: its header under
/// version 5 and the v5 arena length, then the v5 arena — the γ-coded
/// prefix heap — and a fresh CRC-32C.
fn v5_blob(v6: &[u8], labels: &[(ExecEvent, DrlLabel)], skl_bits: usize) -> Vec<u8> {
    let arena = restate_v5_arena(labels, skl_bits);
    let mut v5 = v6[..60].to_vec();
    v5[8..12].copy_from_slice(&5u32.to_le_bytes());
    v5[36..44].copy_from_slice(&(arena.len() as u64).to_le_bytes());
    v5.extend(arena);
    let checksum = crc32c(&v5);
    v5.extend_from_slice(&checksum.to_le_bytes());
    v5
}

/// The format-v4 blob of a v5 blob: the same header and arena under
/// version 4, sealed by the `u64` FNV-1a trailer v4 carried instead of
/// the CRC-32C.
fn v4_blob(v5: &[u8]) -> Vec<u8> {
    let mut v4 = v5[..v5.len() - 4].to_vec();
    v4[8..12].copy_from_slice(&4u32.to_le_bytes());
    let checksum = fnv1a(&v4);
    v4.extend_from_slice(&checksum.to_le_bytes());
    v4
}

/// The format-v3 blob of the run a v5 blob holds: its header under
/// version 3 and the v3 arena length, then the slot table — `count` ×
/// (vertex, name, offset) in vertex order — over every `encode_label`
/// back to back, and a fresh FNV-1a.
fn v3_blob(v5: &[u8], labels: &[(ExecEvent, DrlLabel)], skl_bits: usize) -> Vec<u8> {
    let (mut slots, mut heap) = (Vec::new(), Vec::new());
    for (ev, label) in labels {
        for word in [ev.vertex.0, ev.name.0, heap.len() as u32] {
            slots.extend_from_slice(&word.to_le_bytes());
        }
        heap.extend(encode_label(label, skl_bits));
    }
    let mut v3 = v5[..60].to_vec();
    v3[8..12].copy_from_slice(&3u32.to_le_bytes());
    v3[36..44].copy_from_slice(&(heap.len() as u64).to_le_bytes());
    v3.extend([slots, heap].concat());
    let checksum = fnv1a(&v3);
    v3.extend_from_slice(&checksum.to_le_bytes());
    v3
}

/// Behind its 60-byte header a segment is the v6 label arena — the
/// context trie — byte for byte, and a CRC-32C of both closes it (format
/// v6): restated here from the labels alone it equals what the engine
/// spilled, its name field 0 bits wide; a blob decodes and re-encodes to
/// itself; and a directory
/// assembled by hand from such bytes (what any earlier engine of this
/// format left behind) opens and answers every oracle pair.
#[test]
fn segment_bytes_are_unchanged_and_a_directory_of_them_answers_every_pair() {
    const HEADER: usize = 60;
    let dir = TempDir::new("golden");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(1611);
    let gen = RunGenerator::new(&spec)
        .target_size(90)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let build = |dir: &TempDir| -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .spill_dir(&dir.0)
            .build()
    };
    let run = persist_one(&build(&dir), &exec);
    let blob = std::fs::read(pack_path(&dir.0, run)).unwrap();

    let (skl_bits, labels) = labeled(&spec, &exec);
    let mut naive = NaiveDynamicDag::new();
    for ev in exec.events() {
        naive.insert(ev.vertex, &ev.preds);
    }
    let word = |at: usize| u32::from_le_bytes(blob[at..at + 4].try_into().unwrap());
    assert_eq!(word(8), 6, "format version");
    assert_eq!(word(24) as usize, skl_bits);
    assert_eq!(word(32) as usize, labels.len(), "count");
    let body = &blob[HEADER..blob.len() - 4];
    assert_eq!(
        u64::from_le_bytes(blob[36..44].try_into().unwrap()),
        body.len() as u64
    );
    assert!(
        body == restate_arena(&spec, &labels),
        "layout ‖ presence ‖ cells ‖ contexts ‖ trie"
    );
    assert_eq!(body[12 + 3], 0, "an engine's names cost no bits");
    assert_eq!(
        blob[blob.len() - 4..],
        crc32c(&blob[..blob.len() - 4]).to_le_bytes()
    );
    let names = NameTable::new(&spec);
    let (header, arena) = snapshot::decode_segment(&blob, &names).unwrap();
    assert!(
        snapshot::encode_segment(&header, &arena) == blob,
        "re-encode"
    );
    assert_eq!(arena.bytes(), body);

    // A directory written by hand: the blob twice in one pack (a second
    // registration under a run id patched into its header), one seal log.
    let other = TempDir::new("golden-reopen");
    let twin = RunId(run.0 + 7);
    let mut second = blob.clone();
    second[12..20].copy_from_slice(&twin.0.to_le_bytes());
    restamp(&mut second);
    let file = snapshot::pack_file_name(0);
    std::fs::write(other.0.join(&file), [blob.clone(), second].concat()).unwrap();
    let sealed = |run, offset| Seal::Sealed {
        run,
        pack: 0,
        offset,
        len: blob.len() as u64,
    };
    write_seals(&other.0, &[sealed(run, 0), sealed(twin, blob.len() as u64)]);
    let reopened = build(&other);
    for id in [run, twin] {
        assert_eq!(reopened.run_tier(id).unwrap(), Tier::Persisted);
        let h = reopened.handle(id).unwrap();
        for (a, label) in &labels {
            for (b, _) in &labels {
                assert_eq!(
                    h.reach(a.vertex, b.vertex),
                    Some(naive.reaches(a.vertex, b.vertex))
                );
            }
            assert_eq!(h.label(a.vertex).as_ref(), Some(label));
            assert_eq!(h.name(a.vertex), Some(a.name));
        }
    }
}

/// The sealed form's size, held where the context trie (segment v6) put
/// it: a fixed-seed running-example run and a fixed-seed BioAID run of
/// about 2 000 events each, sealed and persisted by an engine, spend at
/// most their measured arena bytes per label plus 5 %. The γ-coded
/// prefix heap of v5 spent 6.00 and 4.02 B on the same labels. Each
/// run's split — layout, presence words, cells, contexts, trie — is
/// printed (`--nocapture`).
#[test]
fn sealed_bytes_per_label_hold_the_context_trie_figure() {
    let runs = [
        (
            "running-example",
            wf_spec::corpus::running_example(),
            11,
            4.14,
        ),
        ("bioaid", wf_spec::corpus::bioaid(), 12, 2.00),
    ];
    for (name, spec, seed, measured) in runs {
        let dir = TempDir::new("sealed-bytes");
        let gen = RunGenerator::new(&spec)
            .target_size(2000)
            .generate_run(&mut StdRng::seed_from_u64(seed));
        let exec = Execution::deterministic(&gen.graph, &gen.origin);
        let engine: WfEngine = WfEngine::builder()
            .spec(spec.clone())
            .spill_dir(&dir.0)
            .build();
        let run = persist_one(&engine, &exec);
        let blob = std::fs::read(pack_path(&dir.0, run)).unwrap();
        let arena = &blob[60..blob.len() - 4];
        let word = |at: usize| u32::from_le_bytes(arena[at..at + 4].try_into().unwrap()) as usize;
        let (span, contexts, trie) = (word(0), word(4), word(8));
        let widths: Vec<usize> = arena[12..27].iter().map(|&w| usize::from(w)).collect();
        let labels = exec.len();
        let bits = |count: usize, fields: &[usize]| count * fields.iter().sum::<usize>();
        let parts = [
            ("layout", 27.0 * 8.0),
            ("presence", (span.div_ceil(64) * 12 * 8) as f64),
            ("cells", bits(labels, &widths[..4]) as f64),
            ("contexts", bits(contexts, &widths[4..8]) as f64),
            ("trie", bits(trie, &widths[8..]) as f64),
        ];
        let per_label = arena.len() as f64 / labels as f64;
        let split: Vec<String> = parts
            .iter()
            .map(|(part, bits)| format!("{part} {:.2}", bits / 8.0 / labels as f64))
            .collect();
        println!(
            "{name}: {labels} labels, {contexts} contexts, {trie} trie records, \
             {per_label:.2} B per label ({})",
            split.join(", ")
        );
        let total: f64 = parts.iter().map(|(_, bits)| bits).sum();
        assert_eq!(
            (total / 8.0).ceil() as usize,
            arena.len(),
            "{name}: the parts fill the arena"
        );
        assert!(
            per_label <= measured * 1.05,
            "{name}: {per_label:.3} B per label, measured {measured}"
        );
    }
}

/// There is one segment format, and a spill directory has one index, its
/// seal log. A well-formed **v1**, **v2**, **v3**, **v4** and **v5 blob**
/// — v3 being the slot table over whole encoded labels, v5 the cells over
/// a γ-coded prefix heap under a CRC-32C, v4 that layout under a `u64`
/// FNV-1a — is each rejected with a typed
/// [`SnapshotError::Format`] naming what it is — never guessed at — and
/// an engine built over any of them still comes up and serves fresh
/// runs. A directory holding a **v1 manifest** is refused: the engine
/// writes nothing there — the directory stays byte for byte, and
/// persisting and compacting are refused.
#[test]
fn v1_blobs_and_manifests_are_rejected_and_the_engine_still_builds() {
    let dir = TempDir::new("v1");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(2027);
    let gen = RunGenerator::new(&spec)
        .target_size(60)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let build = || -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .spill_dir(&dir.0)
            .build()
    };
    let run = persist_one(&build(), &exec);
    let path = pack_path(&dir.0, run);
    let log_path = dir.0.join(snapshot::SEAL_LOG_FILE);
    let v6 = std::fs::read(&path).unwrap();
    let [Seal::Sealed { pack, .. }] = seals(&dir.0)[..] else {
        panic!("one seal record");
    };
    let names = NameTable::new(&spec);
    assert!(
        snapshot::decode_segment(&v6, &names).is_ok(),
        "the v6 blob is sound"
    );
    let (skl_bits, labels) = labeled(&spec, &exec);
    let v5 = v5_blob(&v6, &labels, skl_bits);
    let v3 = v3_blob(&v5, &labels, skl_bits);

    for version in [1, 2, 3, 4, 5] {
        // The older blob: framing and checksum are intact, only the
        // version is one this engine does not read.
        let old = match version {
            5 => v5.clone(),
            4 => v4_blob(&v5),
            3 => v3.clone(),
            _ => downgrade(&v3, version),
        };
        for res in [
            snapshot::verify_segment_bytes(&old).map(|_| ()),
            snapshot::decode_segment(&old, &names).map(|_| ()),
        ] {
            match res {
                Err(SnapshotError::Format(msg)) => {
                    assert!(msg.contains(&format!("version {version}")), "{msg}")
                }
                other => panic!("v{version} blob not rejected as a format error: {other:?}"),
            }
        }
        // An engine over a directory holding it skips the run and works.
        std::fs::write(&path, &old).unwrap();
        let len = old.len() as u64;
        write_seals(
            &dir.0,
            &[Seal::Sealed {
                run,
                pack,
                offset: 0,
                len,
            }],
        );
        let old_log = std::fs::read(&log_path).unwrap();
        let engine = build();
        // Nothing is rewritten: the pack and the record naming it are
        // what they were.
        assert_eq!(std::fs::read(&path).unwrap(), old, "v{version} pack");
        assert_eq!(std::fs::read(&log_path).unwrap(), old_log, "v{version} log");
        assert_eq!(
            engine.run_tier(run).unwrap_err(),
            wf_service::ServiceError::UnknownRun(run)
        );
        let fresh = persist_one(&engine, &exec);
        assert_eq!(engine.run_tier(fresh).unwrap(), Tier::Persisted);
        let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
        assert_eq!(engine.reach(fresh, u, v), Ok(Some(true)));
    }

    // A v1 manifest: `run file bytes` lines under the v1 header, beside
    // the seal log. The engine cannot tell which packs it names, so it
    // leaves the directory byte for byte — the manifest, the log, and
    // every pack through a compaction — and refuses to write there.
    std::fs::write(&path, &v6).unwrap();
    let name = path.file_name().unwrap().to_str().unwrap();
    let v1 = format!("wf-tier-manifest v1\n{} {name} {}\n", run.0, v6.len());
    let manifest_path = dir.0.join("wf-tier-manifest.txt");
    std::fs::write(&manifest_path, &v1).unwrap();
    let packs = dir_bytes(&dir.0);
    let engine = build();
    assert_eq!(engine.stats().runs_persisted, 0, "nothing is guessed at");
    assert!(matches!(
        engine.compact(),
        Err(ServiceError::SpillUnavailable(cause)) if cause.contains("manifest")
    ));
    let fresh = engine.open_run(SpecId(0)).unwrap();
    for ev in exec.events() {
        engine.submit(fresh, ev).unwrap();
    }
    engine.complete_run(fresh).unwrap();
    assert!(matches!(
        engine.persist_run(fresh),
        Err(ServiceError::SpillUnavailable(_))
    ));
    assert_eq!(
        engine.health(),
        wf_service::Health::Degraded {
            causes: vec![wf_service::StallCause::SpillUnavailable]
        }
    );
    let h = engine.handle(fresh).unwrap();
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    assert_eq!(h.reach(u, v), Some(true), "the run is served from memory");
    drop(engine);
    assert_eq!(dir_bytes(&dir.0), packs, "the directory is as it was found");
    assert_eq!(std::fs::read_to_string(&manifest_path).unwrap(), v1);
}

/// A spill directory the previous build wrote — packs and its
/// `wf-tier-manifest.txt` (v2: `run file offset len` lines), no seal log
/// — is refused with [`ServiceError::SpillUnavailable`] and left byte for
/// byte: no seal log is created beside the manifest, no pack is swept,
/// and the engine serves fresh runs from memory.
#[test]
fn a_directory_holding_a_manifest_is_refused_and_left_byte_for_byte() {
    let dir = TempDir::new("manifest");
    let spec = wf_spec::corpus::running_example();
    let written = persist_probed(&dir.0, 320..323);
    let manifest: String = std::iter::once("wf-tier-manifest v2\n".to_string())
        .chain(
            snapshot::read_seal_log(&dir.0)
                .unwrap()
                .records
                .iter()
                .map(|seal| {
                    let Seal::Sealed {
                        run,
                        pack,
                        offset,
                        len,
                    } = *seal
                    else {
                        panic!("{seal:?}");
                    };
                    format!(
                        "{} {} {offset} {len}\n",
                        run.0,
                        snapshot::pack_file_name(pack)
                    )
                }),
        )
        .collect();
    std::fs::remove_file(dir.0.join(snapshot::SEAL_LOG_FILE)).unwrap();
    std::fs::write(dir.0.join("wf-tier-manifest.txt"), manifest).unwrap();
    let before = dir_bytes(&dir.0);

    let engine = WfEngine::builder()
        .spec(spec.clone())
        .spill_dir(&dir.0)
        .build();
    assert_eq!(engine.stats().runs_persisted, 0);
    for (run, _) in &written {
        assert_eq!(engine.run_tier(*run), Err(ServiceError::UnknownRun(*run)));
    }
    assert!(matches!(
        engine.compact(),
        Err(ServiceError::SpillUnavailable(cause)) if cause.contains("wf-tier-manifest.txt")
    ));
    let (exec, probes) = probed_run(&spec, 323);
    let run = engine.open_run(SpecId(0)).unwrap();
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    engine.complete_run(run).unwrap();
    assert!(matches!(
        engine.persist_run(run),
        Err(ServiceError::SpillUnavailable(_))
    ));
    for &(u, v, want) in &probes {
        assert_eq!(engine.reach(run, u, v), Ok(Some(want)));
    }
    drop(engine);
    assert!(dir_bytes(&dir.0) == before, "the directory changed");
}

/// Every file of `dir` with its bytes, by name.
fn dir_bytes(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// Every run whose blob lies in a pack file of `dir`, live or dead: the
/// packs are walked blob by blob, each header giving the next offset.
fn runs_in_packs(dir: &std::path::Path) -> Vec<RunId> {
    const FRAMING: u64 = 60 + 4;
    let mut runs = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|x| x != "wfseg") {
            continue;
        }
        let len = std::fs::metadata(&path).unwrap().len();
        let mut offset = 0;
        while offset < len {
            let h = snapshot::read_header_at(&path, offset).unwrap();
            runs.push(h.run);
            offset += FRAMING + h.arena_len;
        }
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Compaction racing re-heats, evictions, persists and queries:
    /// whatever interleaving happens, surviving runs answer exactly per
    /// naive replay (mid-race queries may transiently miss, but never
    /// lie), an evicted run's last seal record is its eviction and —
    /// after a compaction — it has no blob in any pack, even when its
    /// persist was writing it as it went, and the seal log left behind
    /// reloads into exactly the survivors.
    #[test]
    fn compaction_races_eviction_and_reheat(seed in 0u64..1_000) {
        const PERSISTED: usize = 8;
        let dir = TempDir::new("race");
        let spec = spec_for(seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
        let engine: WfEngine = WfEngine::builder()
            .spec(spec.clone())
            .ingest_workers(2)
            .spill_dir(&dir.0)
            .max_resident_bytes(4096)
            .build();
        // Eight persisted runs, then two left frozen.
        let mut fleet = Vec::new();
        for i in 0..PERSISTED + 2 {
            let run = engine.open_run(SpecId(0)).unwrap();
            let gen = RunGenerator::new(&spec).target_size(36).generate_run(&mut rng);
            let exec = Execution::deterministic(&gen.graph, &gen.origin);
            let mut naive = NaiveDynamicDag::new();
            for ev in exec.events() {
                engine.submit(run, ev).unwrap();
                naive.insert(ev.vertex, &ev.preds);
            }
            engine.complete_run(run).unwrap();
            if i < PERSISTED {
                engine.persist_run(run).unwrap();
            } else {
                engine.freeze_run(run).unwrap();
            }
            fleet.push((run, exec, naive));
        }
        let (evicted, doomed, kept) = (fleet[0].0, fleet[PERSISTED].0, fleet[PERSISTED + 1].0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..3 {
                    engine.compact().unwrap();
                }
            });
            s.spawn(|| {
                for (run, ..) in &fleet[2..5] {
                    let _ = engine.reheat_run(*run);
                }
            });
            s.spawn(|| engine.evict_run(evicted).unwrap());
            // A persist racing the eviction of its run.
            s.spawn(|| {
                let _ = engine.persist_run(doomed);
                engine.persist_run(kept).unwrap();
            });
            s.spawn(|| engine.evict_run(doomed).unwrap());
            s.spawn(|| {
                // Mid-race queries must never contradict the replay.
                for (run, exec, naive) in &fleet[1..] {
                    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
                    if let Ok(Some(got)) = engine.reach(*run, u, v) {
                        assert_eq!(got, naive.reaches(u, v));
                    }
                }
            });
        });
        let survivors: Vec<_> = fleet.iter().filter(|(run, ..)| ![evicted, doomed].contains(run)).collect();
        // Settled state: every surviving run answers exactly.
        for (run, exec, naive) in &survivors {
            let h = engine.handle(*run).unwrap();
            for a in exec.events().iter().step_by(3) {
                for b in exec.events().iter().step_by(3) {
                    prop_assert_eq!(
                        h.reach(a.vertex, b.vertex),
                        Some(naive.reaches(a.vertex, b.vertex)),
                        "{:?} ({:?} tier)", run, h.tier()
                    );
                }
            }
        }
        let listed: Vec<RunId> = sealed(&dir.0).iter().map(Seal::run).collect();
        prop_assert!(!listed.contains(&evicted) && !listed.contains(&doomed), "{:?}", listed);
        engine.compact().unwrap();
        let packed = runs_in_packs(&dir.0);
        prop_assert!(!packed.contains(&evicted) && !packed.contains(&doomed), "{:?}", packed);
        drop(engine);
        // The seal log on disk reloads into exactly the survivors, each
        // answering per replay.
        let reloaded: WfEngine = WfEngine::builder().spec(spec).spill_dir(&dir.0).build();
        let mut expect: Vec<RunId> = survivors.iter().map(|(run, ..)| *run).collect();
        expect.sort();
        prop_assert_eq!(reloaded.query().run_ids(), expect);
        prop_assert_eq!(reloaded.query().run_ids().len(), fleet.len() - 2);
        for (run, exec, naive) in &survivors {
            let h = reloaded.handle(*run).unwrap();
            for a in exec.events().iter().step_by(4) {
                for b in exec.events().iter().step_by(3) {
                    prop_assert_eq!(
                        h.reach(a.vertex, b.vertex),
                        Some(naive.reaches(a.vertex, b.vertex))
                    );
                }
            }
        }
    }
}

/// A seal log that places a run twice registers it once — its last
/// record that reads back wins — so the tier counts agree with the
/// registry, before and after the run is evicted, and after a restart.
#[test]
fn a_run_sealed_twice_in_the_log_registers_once() {
    let dir = TempDir::new("twice");
    let spec = wf_spec::corpus::running_example();
    let mut rng = StdRng::seed_from_u64(60);
    let gen = RunGenerator::new(&spec)
        .target_size(60)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let build = || -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .spill_dir(&dir.0)
            .build()
    };
    let run = persist_one(&build(), &exec);
    let records = seals(&dir.0);
    write_seals(&dir.0, &[records.clone(), records].concat());
    assert_eq!(seals(&dir.0).len(), 2);

    let engine = build();
    assert_eq!(engine.query().run_ids(), vec![run]);
    assert_eq!(engine.stats().runs_persisted, 1);
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    assert_eq!(engine.reach(run, u, v), Ok(Some(true)));
    engine.evict_run(run).unwrap();
    assert!(engine.query().run_ids().is_empty());
    assert_eq!(engine.stats().runs_persisted, 0);
    drop(engine);
    assert!(build().query().run_ids().is_empty());
}

/// A seal record is an index, not a trust root: one whose blob range
/// runs past the end of its pack — a length no frame could be filled to
/// — registers nothing, and the engine builds and serves regardless.
#[test]
fn a_seal_record_past_its_pack_registers_nothing() {
    let dir = TempDir::new("past-end");
    let spec = wf_spec::corpus::running_example();
    let gen = RunGenerator::new(&spec)
        .target_size(40)
        .generate_run(&mut StdRng::seed_from_u64(61));
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let build = || -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .spill_dir(&dir.0)
            .build()
    };
    let run = persist_one(&build(), &exec);
    let [Seal::Sealed { pack, offset, .. }] = seals(&dir.0)[..] else {
        panic!("one seal record");
    };
    let len = 1 << 60;
    write_seals(
        &dir.0,
        &[Seal::Sealed {
            run,
            pack,
            offset,
            len,
        }],
    );

    let engine = build();
    assert_eq!(engine.run_tier(run), Err(ServiceError::UnknownRun(run)));
    let fresh = persist_one(&engine, &exec);
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    assert_eq!(engine.reach(fresh, u, v), Ok(Some(true)));
}

/// A seal record whose length is not the one its blob's header implies
/// — header, arena and checksum — registers nothing: the run's first
/// load could only fail on it. The engine builds and serves regardless.
#[test]
fn a_seal_record_length_other_than_the_headers_registers_nothing() {
    let dir = TempDir::new("short-record");
    let spec = wf_spec::corpus::running_example();
    let gen = RunGenerator::new(&spec)
        .target_size(40)
        .generate_run(&mut StdRng::seed_from_u64(62));
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let build = || -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .spill_dir(&dir.0)
            .build()
    };
    let run = persist_one(&build(), &exec);
    let [Seal::Sealed {
        pack, offset, len, ..
    }] = seals(&dir.0)[..]
    else {
        panic!("one seal record");
    };
    let len = len - 1;
    write_seals(
        &dir.0,
        &[Seal::Sealed {
            run,
            pack,
            offset,
            len,
        }],
    );

    let engine = build();
    assert_eq!(engine.stats().runs_persisted, 0);
    assert_eq!(engine.run_tier(run), Err(ServiceError::UnknownRun(run)));
    let fresh = persist_one(&engine, &exec);
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    assert_eq!(engine.reach(fresh, u, v), Ok(Some(true)));
}

/// Run ids count up from 0 and `open_run` never issues `u64::MAX`, yet
/// a spill directory can name it: a sound blob whose header and seal
/// record both say so registers, and one of a spec beyond the
/// catalog is carried. Neither overflows the next fresh id — which
/// panicked the build, or, without overflow checks, wrapped it to 0 —
/// and fresh runs start above the other runs. A run of `u64::MAX - 1`
/// registers too, and leaves no fresh id: `open_run` is refused with a
/// typed error, before and after a restart.
#[test]
fn a_run_id_at_the_top_of_a_spill_directory_overflows_nothing() {
    let dir = TempDir::new("top-run");
    let spec = wf_spec::corpus::running_example();
    let gen = RunGenerator::new(&spec)
        .target_size(20)
        .generate_run(&mut StdRng::seed_from_u64(64));
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let build = || -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .spill_dir(&dir.0)
            .build()
    };
    let run = persist_one(&build(), &exec);
    let blob = std::fs::read(pack_path(&dir.0, run)).unwrap();
    let listed = seals(&dir.0);
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    for (top, spec_id) in [(u64::MAX, 0u32), (u64::MAX, 1), (u64::MAX - 1, 0)] {
        let top = RunId(top);
        let mut bytes = blob.clone();
        bytes[12..20].copy_from_slice(&top.0.to_le_bytes());
        bytes[20..24].copy_from_slice(&spec_id.to_le_bytes());
        restamp(&mut bytes);
        std::fs::write(dir.0.join(snapshot::pack_file_name(99)), &bytes).unwrap();
        let sealed = Seal::Sealed {
            run: top,
            pack: 99,
            offset: 0,
            len: bytes.len() as u64,
        };
        write_seals(&dir.0, &[listed.clone(), vec![sealed]].concat());
        let fresh = if top.0 == u64::MAX {
            Ok(RunId(run.0 + 1))
        } else {
            Err(ServiceError::RunIdsExhausted)
        };
        for _restart in 0..2 {
            let engine = build();
            if spec_id == 0 {
                assert_eq!(engine.reach(top, u, v), Ok(Some(true)));
            } else {
                assert_eq!(engine.run_tier(top), Err(ServiceError::UnknownRun(top)));
            }
            // No log: a fresh run opened here leaves nothing behind.
            assert_eq!(engine.open_run(SpecId(0)), fresh, "{top} of spec {spec_id}");
        }
    }
}

/// A build with a smaller catalog keeps the history it cannot read:
/// the seal records of a spec beyond its catalog are kept through its
/// rewrites, their packs survive its compaction and orphan sweep,
/// their run ids are not handed out again, and a build with the full
/// catalog serves every one of those runs.
#[test]
fn a_smaller_catalog_keeps_the_persisted_runs_it_cannot_read() {
    let dir = TempDir::new("smaller-catalog");
    let specs = [
        wf_spec::corpus::running_example(),
        wf_spec::corpus::bioaid_nonrecursive(),
    ];
    let build = |n: usize| -> WfEngine {
        specs[..n]
            .iter()
            .fold(WfEngine::builder(), |b, s| b.spec(s.clone()))
            .spill_dir(&dir.0)
            .build()
    };
    let persist = |engine: &WfEngine, spec: SpecId, exec: &Execution| {
        let run = engine.open_run(spec).unwrap();
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        engine.complete_run(run).unwrap();
        engine.persist_run(run).unwrap();
        run
    };

    // Both specs: two spec-1 runs and a spec-0 run compacted into one
    // pack, then a spec-1 run in a pack of its own.
    let mut written = Vec::new();
    let engine = build(2);
    for (i, spec) in [1, 1, 0, 1].into_iter().enumerate() {
        if i == 3 {
            assert_eq!(engine.compact().unwrap().files_after, 1);
        }
        let (exec, probes) = probed_run(&specs[spec], 90 + i as u64);
        written.push((persist(&engine, SpecId(spec), &exec), probes));
    }
    drop(engine);

    // The running example alone: persist and compact one run.
    let engine = build(1);
    assert_eq!(engine.query().run_ids(), vec![written[2].0]);
    let (exec, probes) = probed_run(&specs[0], 99);
    let fresh = persist(&engine, SpecId(0), &exec);
    assert!(
        written.iter().all(|(run, _)| *run != fresh),
        "{fresh} reuses an id the directory holds"
    );
    engine.compact().unwrap();
    written.push((fresh, probes));
    drop(engine);

    // Both specs again: every run answers.
    let engine = build(2);
    let mut ids: Vec<RunId> = written.iter().map(|(run, _)| *run).collect();
    ids.sort();
    assert_eq!(engine.query().run_ids(), ids);
    for (run, probes) in &written {
        for &(u, v, want) in probes {
            assert_eq!(
                engine.reach(*run, u, v),
                Ok(Some(want)),
                "{run}: {u:?} ; {v:?}"
            );
        }
    }
}

/// A pack a smaller catalog shares with records it cannot read holds no
/// dead bytes: those blobs are history this build cannot read, not
/// blobs of evicted runs, so a rebuild that evicted nothing reads
/// `pack_dead_bytes == 0` — and the full catalog again reads the same.
#[test]
fn a_smaller_catalog_counts_the_blobs_it_carries_live() {
    let dir = TempDir::new("carried-live");
    let specs = [
        wf_spec::corpus::running_example(),
        wf_spec::corpus::bioaid_nonrecursive(),
    ];
    let build = |n: usize| -> WfEngine {
        specs[..n]
            .iter()
            .fold(WfEngine::builder(), |b, s| b.spec(s.clone()))
            .spill_dir(&dir.0)
            .build()
    };
    // One pack: fresh spills of one lifetime share it.
    let engine = build(2);
    for (i, spec) in [1, 0, 1].into_iter().enumerate() {
        let (exec, _) = probed_run(&specs[spec], 70 + i as u64);
        let run = engine.open_run(SpecId(spec)).unwrap();
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        engine.complete_run(run).unwrap();
        engine.persist_run(run).unwrap();
    }
    let s = engine.stats();
    assert_eq!((s.segment_files, s.pack_dead_bytes), (1, 0));
    drop(engine);

    for n in [1, 2] {
        let s = build(n).stats();
        assert_eq!(s.runs_persisted, [1, 3][n - 1]);
        assert_eq!((s.segment_files, s.pack_dead_bytes), (1, 0), "{n} specs");
    }
}

/// A run, with vertex pairs and whether the first reaches the second.
type Probed = (RunId, Vec<(VertexId, VertexId, bool)>);

/// Persist the probed runs of `seeds` (spec 0) into one pack of `dir`,
/// over one engine lifetime; returns each run with its probes.
fn persist_probed(dir: &std::path::Path, seeds: std::ops::Range<u64>) -> Vec<Probed> {
    let spec = wf_spec::corpus::running_example();
    let engine = WfEngine::builder()
        .spec(spec.clone())
        .spill_dir(dir)
        .build();
    seeds
        .map(|seed| {
            let (exec, probes) = probed_run(&spec, seed);
            (persist_one(&engine, &exec), probes)
        })
        .collect()
}

/// A spill directory this build cannot read — its seal log is not a
/// file, starts with another version's header, or holds a record that
/// fails its checks with records after it — is refused, not read as
/// empty (nor as a shorter log, which would let the sweep delete packs
/// the later records name): the engine registers nothing, refuses every
/// persist and compaction with a typed error, names the cause in
/// `health()`, and leaves every byte of the directory as it was, so the
/// build that wrote it still serves every run. A record whose blob does
/// not read back makes only its own run unreadable: the other runs
/// register and answer, the record is kept byte for byte, and no pack
/// is lost to a compaction.
#[test]
fn an_unreadable_seal_log_leaves_the_spill_directory_as_it_was() {
    let dir = TempDir::new("unreadable-log");
    let spec = wf_spec::corpus::running_example();
    let written = persist_probed(&dir.0, 300..303);
    let log_path = dir.0.join(snapshot::SEAL_LOG_FILE);
    let log = std::fs::read(&log_path).unwrap();
    let build = || -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .spill_dir(&dir.0)
            .build()
    };
    let answers = |engine: &WfEngine, runs: &[Probed]| {
        for (run, probes) in runs {
            for &(u, v, want) in probes {
                assert_eq!(engine.reach(*run, u, v), Ok(Some(want)), "{run}");
            }
        }
    };

    let mut v2 = log.clone();
    v2[4] = 2;
    // A bit of the first record's checksum: two whole records follow.
    let mut flipped = log.clone();
    flipped[snapshot::SEAL_LOG_HEADER.len() + 1] ^= 0x10;
    let cases = [
        ("v2 header", Some(v2)),
        ("a bad first record", Some(flipped)),
        ("a directory", None),
    ];
    for (what, unreadable) in cases {
        match &unreadable {
            Some(bytes) => std::fs::write(&log_path, bytes).unwrap(),
            None => {
                std::fs::remove_file(&log_path).unwrap();
                std::fs::create_dir(&log_path).unwrap();
            }
        }
        let before = runs_in_packs(&dir.0);
        let engine = build();
        assert_eq!(engine.stats().runs_persisted, 0, "{what}");
        assert!(
            matches!(engine.compact(), Err(ServiceError::SpillUnavailable(_))),
            "{what}"
        );
        let (exec, _) = probed_run(&spec, 309);
        let run = engine.open_run(SpecId(0)).unwrap();
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        engine.complete_run(run).unwrap();
        assert!(
            matches!(
                engine.persist_run(run),
                Err(ServiceError::SpillUnavailable(_))
            ),
            "{what}"
        );
        assert_eq!(
            engine.health(),
            wf_service::Health::Degraded {
                causes: vec![wf_service::StallCause::SpillUnavailable]
            },
            "{what}"
        );
        drop(engine);
        assert_eq!(runs_in_packs(&dir.0), before, "{what}: a pack changed");
        match &unreadable {
            Some(bytes) => assert_eq!(&std::fs::read(&log_path).unwrap(), bytes, "{what}"),
            None => std::fs::remove_dir(&log_path).unwrap(),
        }
        // Put back, the log serves every run again.
        std::fs::write(&log_path, &log).unwrap();
        let engine = build();
        answers(&engine, &written);
        assert_eq!(engine.health(), wf_service::Health::Healthy);
    }

    // The second run's record one byte off its blob.
    let mut records = seals(&dir.0);
    let Seal::Sealed {
        run,
        pack,
        offset,
        len,
    } = records[1]
    else {
        panic!("{:?}", records[1]);
    };
    records[1] = Seal::Sealed {
        run,
        pack,
        offset: offset + 1,
        len,
    };
    write_seals(&dir.0, &records);
    let damaged = std::fs::read(&log_path).unwrap();
    let packs = pack_names(&dir.0);
    let engine = build();
    let kept: Vec<_> = written.iter().filter(|(r, _)| *r != run).cloned().collect();
    assert_eq!(kept.len(), 2);
    assert_eq!(engine.stats().runs_persisted, 2);
    answers(&engine, &kept);
    engine.compact().unwrap();
    drop(engine);
    assert_eq!(pack_names(&dir.0), packs, "no pack went");
    assert!(
        seals(&dir.0).contains(&records[1]),
        "the unreadable record is kept"
    );
    assert!(std::fs::read(&log_path).unwrap().starts_with(&damaged));
    // Mended, the record's run answers again.
    std::fs::write(&log_path, &log).unwrap();
    answers(&build(), &written);
}

/// A length that claims bytes past the end of the seal log is not taken
/// for a crash-cut last append when whole records are there to read —
/// the next one, or the record's own body under a length too long. Three
/// lifetimes leave three single-run packs, each named by one record: the
/// log is refused and left byte for byte, and no pack goes, where
/// cutting the log at the changed length would have dropped the last
/// record and let the sweep delete its pack.
#[test]
fn a_length_past_the_end_of_the_seal_log_before_whole_records_is_refused() {
    let dir = TempDir::new("length-past-end");
    let spec = wf_spec::corpus::running_example();
    let written: Vec<Probed> = (330..333)
        .flat_map(|seed| persist_probed(&dir.0, seed..seed + 1))
        .collect();
    assert_eq!(pack_names(&dir.0).len(), 3, "one pack per lifetime");
    let log_path = dir.0.join(snapshot::SEAL_LOG_FILE);
    let log = std::fs::read(&log_path).unwrap();
    // Each record's frame is `[len][crc ×4][body]`, every length one byte.
    let mut starts = vec![snapshot::SEAL_LOG_HEADER.len()];
    while *starts.last().unwrap() < log.len() {
        let at = *starts.last().unwrap();
        starts.push(at + 5 + usize::from(log[at]));
    }
    assert_eq!(starts.pop(), Some(log.len()));
    assert_eq!(starts.len(), 3);
    let build = || {
        WfEngine::builder()
            .spec(spec.clone())
            .spill_dir(&dir.0)
            .build()
    };
    for (what, at) in [("second-to-last", starts[1]), ("last", starts[2])] {
        let mut bytes = log.clone();
        // One byte more than the file holds after the checksum.
        bytes[at] = u8::try_from(log.len() - at - 5 + 1).unwrap();
        std::fs::write(&log_path, &bytes).unwrap();
        let before = dir_bytes(&dir.0);
        let engine = build();
        assert_eq!(engine.stats().runs_persisted, 0, "{what}");
        assert!(
            matches!(engine.compact(), Err(ServiceError::SpillUnavailable(_))),
            "{what}"
        );
        drop(engine);
        assert!(dir_bytes(&dir.0) == before, "{what}: the directory changed");
    }
    std::fs::write(&log_path, &log).unwrap();
    let engine = build();
    for (run, probes) in &written {
        for &(u, v, want) in probes {
            assert_eq!(engine.reach(*run, u, v), Ok(Some(want)), "{run}");
        }
    }
}

/// The pack files of `dir`, by name.
fn pack_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".wfseg"))
        .collect();
    names.sort();
    names
}

/// A persist is the blob and its seal record, or nothing: when the
/// record cannot be appended — here the log's header was overwritten
/// while the engine ran — `persist_run` fails with a typed error and the
/// run stays `Frozen`, holding its frame and answering, with no record
/// naming it; a later restart does not register it either.
#[test]
fn a_persist_whose_seal_record_fails_stays_frozen() {
    let dir = TempDir::new("record-fails");
    let spec = wf_spec::corpus::running_example();
    let engine = WfEngine::builder()
        .spec(spec.clone())
        .spill_dir(&dir.0)
        .build();
    let (exec, probes) = probed_run(&spec, 310);
    let first = persist_one(&engine, &exec);
    let log_path = dir.0.join(snapshot::SEAL_LOG_FILE);
    let log = std::fs::read(&log_path).unwrap();
    let mut v9 = log.clone();
    v9[4] = 9;
    std::fs::write(&log_path, &v9).unwrap();

    let run = engine.open_run(SpecId(0)).unwrap();
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    engine.complete_run(run).unwrap();
    match engine.persist_run(run) {
        Err(ServiceError::Snapshot(r, cause)) => {
            assert_eq!(r, run);
            assert!(cause.contains("seal log"), "{cause}");
        }
        other => panic!("a persist with no seal record returned {other:?}"),
    }
    assert_eq!(engine.run_tier(run), Ok(Tier::Frozen));
    for &(u, v, want) in &probes {
        assert_eq!(engine.reach(run, u, v), Ok(Some(want)));
    }
    assert_eq!(std::fs::read(&log_path).unwrap(), v9, "no record names it");
    drop(engine);
    std::fs::write(&log_path, &log).unwrap();
    let engine = WfEngine::builder()
        .spec(spec.clone())
        .spill_dir(&dir.0)
        .build();
    assert_eq!(engine.query().run_ids(), vec![first]);
}

/// A truncated snapshot file is rejected cleanly (typed error, no
/// panic), at every prefix length; a bit flip is caught by the checksum.
#[test]
fn truncated_or_corrupt_snapshots_are_rejected_cleanly() {
    let dir = TempDir::new("trunc");
    let spec = wf_spec::corpus::running_example();
    let names = NameTable::new(&spec);
    let mut rng = StdRng::seed_from_u64(77);
    let gen = RunGenerator::new(&spec)
        .target_size(60)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);

    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .spill_dir(&dir.0)
        .build();
    let run = persist_one(&engine, &exec);
    drop(engine);

    let seg_path = pack_path(&dir.0, run);
    let bytes = std::fs::read(&seg_path).unwrap();
    assert!(
        snapshot::decode_segment(&bytes, &names).is_ok(),
        "intact segment loads"
    );

    // Every strict prefix is rejected with a Format error — never a
    // panic, never a half-loaded arena.
    for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
        match snapshot::decode_segment(&bytes[..cut], &names) {
            Err(SnapshotError::Format(_)) => {}
            other => panic!("truncation at {cut} not rejected: {other:?}"),
        }
    }
    // A single flipped bit anywhere trips the checksum (or a deeper
    // validation layer) — sample a few positions.
    for pos in [0, 11, bytes.len() / 2, bytes.len() - 9] {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        assert!(
            snapshot::decode_segment(&bad, &names).is_err(),
            "bit flip at {pos} accepted"
        );
    }

    // Engine build over a segment truncated inside the header: the run
    // is skipped at registration, the engine stays usable, no panic.
    std::fs::write(&seg_path, &bytes[..20]).unwrap();
    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .spill_dir(&dir.0)
        .build();
    assert_eq!(
        engine.run_tier(run).unwrap_err(),
        wf_service::ServiceError::UnknownRun(run)
    );
    assert!(engine.query().completed().run_ids().is_empty());
    // The engine still opens and serves fresh runs.
    let fresh = engine.open_run(SpecId(0)).unwrap();
    for ev in exec.events() {
        engine.submit(fresh, ev).unwrap();
    }
    assert_eq!(engine.handle(fresh).unwrap().published(), exec.len());

    // In-place truncation *after* registration (header read fine, body
    // gone): the first load reads past the file's end — queries degrade
    // to a typed "no labels", never a panic.
    std::fs::write(&seg_path, &bytes).unwrap();
    let engine2: WfEngine = WfEngine::builder().spec(spec).spill_dir(&dir.0).build();
    assert_eq!(engine2.run_tier(run).unwrap(), Tier::Persisted);
    std::fs::write(&seg_path, &bytes[..bytes.len() / 3]).unwrap();
    let h = engine2.handle(run).unwrap();
    let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
    assert_eq!(h.reach(u, v), None, "broken segment degrades, not panics");
    assert_eq!(h.reach(u, v), None, "and stays degraded");
}

/// A blob header's `skl_bits` and an arena layout's field widths are
/// checked, not trusted: a skeleton pointer is a `u32` vertex index and
/// a cell field holds a `u32`, so a wider one — under a checksum that
/// vouches for it — is a typed format error naming the width, from the
/// decoder and from the first load of an engine that registered the
/// blob, never a shift overflow in the label reader.
#[test]
fn a_header_skl_bits_over_32_is_a_typed_format_error() {
    let dir = TempDir::new("skl-bits");
    let spec = wf_spec::corpus::running_example();
    let names = NameTable::new(&spec);
    let mut rng = StdRng::seed_from_u64(32);
    let gen = RunGenerator::new(&spec)
        .target_size(40)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let build = || -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .spill_dir(&dir.0)
            .build()
    };
    let run = persist_one(&build(), &exec);
    let path = pack_path(&dir.0, run);
    let sound = std::fs::read(&path).unwrap();
    // The header's pointer width, then the layout's width of the
    // context's own-index field (after the id span, the two record
    // counts and the four cell widths).
    for (at, width, named) in [(24, 200u32, "width 200"), (60 + 12 + 4 + 1, 40, "width 40")] {
        let mut blob = sound.clone();
        if at == 24 {
            blob[at..at + 4].copy_from_slice(&width.to_le_bytes());
        } else {
            blob[at] = width as u8;
        }
        restamp(&mut blob);

        match snapshot::decode_segment(&blob, &names) {
            Err(SnapshotError::Format(msg)) => assert!(msg.contains(named), "{msg}"),
            other => panic!("{named} not rejected as a format error: {other:?}"),
        }
        std::fs::write(&path, &blob).unwrap();
        let engine = build();
        assert_eq!(engine.run_tier(run).unwrap(), Tier::Persisted);
        let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
        match engine.reach(run, u, v) {
            Err(ServiceError::Snapshot(r, cause)) => {
                assert_eq!(r, run);
                assert!(cause.contains(named), "{cause}");
            }
            other => panic!("expected a snapshot error, got {other:?}"),
        }
    }
}

/// Re-stamp a blob's checksum over what precedes it.
fn restamp(blob: &mut [u8]) {
    let end = blob.len() - 4;
    let checksum = crc32c(&blob[..end]);
    blob[end..].copy_from_slice(&checksum.to_le_bytes());
}

/// Every single-bit flip, and every burst of up to 32 bits, inside a
/// small blob is refused — past the magic and the version word, by its
/// CRC-32C: a CRC-32 detects every burst no longer than itself,
/// which the FNV-1a of v4 never guaranteed. A burst is a first and a
/// last flipped bit at most 32 apart; of the `2^(n-2)` interiors of an
/// `n`-bit burst each gets the empty one, the full one and one drawn
/// from a seed.
#[test]
fn every_burst_of_up_to_32_bits_in_a_blob_is_refused() {
    let dir = TempDir::new("bursts");
    let spec = wf_spec::corpus::running_example();
    let gen = RunGenerator::new(&spec)
        .target_size(16)
        .generate_run(&mut StdRng::seed_from_u64(16));
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let engine: WfEngine = WfEngine::builder().spec(spec).spill_dir(&dir.0).build();
    let run = persist_one(&engine, &exec);
    let mut blob = std::fs::read(pack_path(&dir.0, run)).unwrap();
    assert!(snapshot::verify_segment_bytes(&blob).is_ok());
    let body_bits = (blob.len() - 4) * 8;
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let mut bursts = 0;
    for start in 0..body_bits {
        for len in 1..=32.min(body_bits - start) {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let (ends, inside) = (1u64 | 1 << (len - 1), (1u64 << len) - 1);
            for mask in [ends, inside, ends | (seed & inside)] {
                let flip = |blob: &mut [u8]| {
                    for bit in (0..len).filter(|i| mask >> i & 1 == 1) {
                        blob[(start + bit) / 8] ^= 1 << ((start + bit) % 8);
                    }
                };
                flip(&mut blob);
                // The magic and the version word are read first.
                let cause = match snapshot::verify_segment_bytes(&blob) {
                    Err(SnapshotError::Format(cause)) => cause,
                    other => panic!("burst {mask:#x} at bit {start}: {other:?}"),
                };
                if start >= 12 * 8 {
                    assert_eq!(cause, "checksum mismatch", "burst {mask:#x} at bit {start}");
                }
                flip(&mut blob);
                bursts += 1;
            }
        }
    }
    assert!(snapshot::verify_segment_bytes(&blob).is_ok());
    assert!(bursts > 32 * body_bits, "{bursts} bursts");
}

/// Every cut and every single-bit flip of a ~40-label blob, its checksum
/// re-stamped so the arena itself must answer for it: the decoder either
/// refuses it with a typed format error or hands back an arena whose
/// every read is total: each name and label reads back and decodes, and
/// every pair gets one answer from the cells and the climb — `None` for a
/// shape no labeler issues or a skeleton pointer that names no spec
/// vertex, never a panic. The unvalidated reader over the same bytes
/// (what a frame serves once the framing holds) never panics either,
/// whatever the cells, the context records and the trie say.
#[test]
fn every_cut_and_bit_flip_of_a_blob_is_refused_or_reads_totally() {
    let dir = TempDir::new("corpus");
    let spec = wf_spec::corpus::running_example();
    let names = NameTable::new(&spec);
    let gen = RunGenerator::new(&spec)
        .target_size(40)
        .generate_run(&mut StdRng::seed_from_u64(41));
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .spill_dir(&dir.0)
        .build();
    let run = persist_one(&engine, &exec);
    let blob = std::fs::read(pack_path(&dir.0, run)).unwrap();
    let skeleton = TclSpecLabels::build(&spec);
    let predicate = DrlPredicate::new(&skeleton);
    let vertices: Vec<VertexId> = exec.events().iter().map(|e| e.vertex).collect();
    assert!(
        (30..60).contains(&vertices.len()),
        "{} labels",
        vertices.len()
    );
    let (mut refused, mut accepted) = (0, 0);
    let mut check = |bytes: &[u8]| {
        match snapshot::decode_segment(bytes, &names) {
            Err(SnapshotError::Format(_)) => refused += 1,
            Ok((header, arena)) => {
                accepted += 1;
                let view = arena.view(&names);
                for (v, name, label) in view.iter() {
                    assert_eq!(view.name(v), Some(name));
                    assert!(label.to_label().is_some(), "{v:?}");
                    assert!(label.bit_len(header.skl_bits as usize).is_some());
                }
                let labels: Vec<_> = view.iter().collect();
                for &(u, _, a) in &labels {
                    for &(v, _, b) in labels.iter().step_by(4) {
                        let walked = predicate.reaches_ref(a, b);
                        assert_eq!(view.reach(&predicate, u, v), walked, "{u:?} ; {v:?}");
                    }
                }
            }
            Err(other) => panic!("not a format error: {other:?}"),
        }
        let Some(arena) = bytes.get(60..bytes.len().saturating_sub(4)) else {
            return;
        };
        let skl_bits = u32::from_le_bytes(bytes[24..28].try_into().unwrap()) as usize;
        if let Ok(reader) = wf_drl::ArenaRef::new(arena, skl_bits, &names) {
            let probes = vertices.iter().copied().chain([VertexId(1 << 20)]);
            for u in probes.clone() {
                let _ = (reader.name(u), reader.label(u).map(|l| l.bit_len(skl_bits)));
            }
            let probes: Vec<VertexId> = probes.collect();
            for &u in &probes {
                for &v in probes.iter().step_by(4) {
                    let _ = reader.reach(&predicate, u, v);
                }
            }
            for (_, _, label) in reader.iter().take(4 * vertices.len()) {
                let _ = (label.bit_len(skl_bits), label.to_label());
            }
        }
    };
    for cut in 0..blob.len() {
        let mut bytes = blob[..cut].to_vec();
        if cut >= 64 {
            restamp(&mut bytes);
        }
        check(&bytes);
    }
    for bit in 0..blob.len() * 8 {
        let mut bytes = blob.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        restamp(&mut bytes);
        check(&bytes);
    }
    // Flips in fields any value of which is a label — names, indexes,
    // skeleton pointers — are accepted; the rest break the framing or a
    // record.
    assert!(
        refused > 0 && accepted > 0,
        "{refused} refused, {accepted} accepted"
    );
}

/// Vertex ids need not be dense: a run whose ids are spread as
/// `v → 97·v + 5` answers every pair exactly hot, frozen, persisted and
/// reopened, and the presence words its sparse id span costs leave its
/// frozen footprint within twice the 1 434 B the slot-table format (v3)
/// spent on the same 78 labels.
#[test]
fn sparse_vertex_ids_answer_every_pair_in_every_tier() {
    let dir = TempDir::new("sparse");
    let spec = wf_spec::corpus::running_example();
    let gen = RunGenerator::new(&spec)
        .target_size(80)
        .generate_run(&mut StdRng::seed_from_u64(9));
    let spread = |v: VertexId| VertexId(97 * v.0 + 5);
    let events: Vec<ExecEvent> = Execution::deterministic(&gen.graph, &gen.origin)
        .events()
        .iter()
        .map(|ev| ExecEvent {
            vertex: spread(ev.vertex),
            preds: ev.preds.iter().map(|&p| spread(p)).collect(),
            ..ev.clone()
        })
        .collect();
    assert_eq!(events.len(), 78);
    let mut naive = NaiveDynamicDag::new();
    for ev in &events {
        naive.insert(ev.vertex, &ev.preds);
    }
    let build = || -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .spill_dir(&dir.0)
            .build()
    };
    let every_pair = |engine: &WfEngine, run, state| {
        for a in &events {
            for b in &events {
                let want = naive.reaches(a.vertex, b.vertex);
                assert_eq!(
                    engine.reach(run, a.vertex, b.vertex),
                    Ok(Some(want)),
                    "{state}"
                );
            }
        }
    };
    let engine = build();
    let run = engine.open_run(SpecId(0)).unwrap();
    for ev in &events {
        engine.submit(run, ev).unwrap();
    }
    engine.complete_run(run).unwrap();
    every_pair(&engine, run, "hot");
    engine.freeze_run(run).unwrap();
    every_pair(&engine, run, "frozen");
    let frozen = engine.stats().frozen_bytes;
    assert!(frozen <= 2 * 1434, "{frozen} frozen bytes for 78 labels");
    engine.persist_run(run).unwrap();
    every_pair(&engine, run, "persisted");
    drop(engine);
    every_pair(&build(), run, "reopened");
}

/// A sampled execution of `spec`, its ground truth, and a few
/// `(u, v, u ; v)` probes over its vertices.
fn probed_run(spec: &Specification, seed: u64) -> (Execution, Vec<(VertexId, VertexId, bool)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = RunGenerator::new(spec)
        .target_size(60)
        .generate_run(&mut rng);
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let mut naive = NaiveDynamicDag::new();
    for ev in exec.events() {
        naive.insert(ev.vertex, &ev.preds);
    }
    let vertices: Vec<VertexId> = exec.events().iter().map(|e| e.vertex).collect();
    let probes = vertices
        .iter()
        .step_by(3)
        .flat_map(|a| vertices.iter().step_by(5).map(move |b| (*a, *b)))
        .map(|(a, b)| (a, b, naive.reaches(a, b)))
        .collect();
    (exec, probes)
}

/// One completed run frozen, then cycled persisted ⇄ frozen, while other
/// threads look it up: a run is always registered exactly once, in
/// exactly one tier, with the right answers — until it is evicted, and
/// never after — the stats count it in exactly one tier, and the
/// engine-wide query count never steps backwards across a transition.
#[test]
fn lookups_racing_tier_transitions_see_the_run_exactly_once() {
    use std::sync::atomic::AtomicBool;
    const CYCLES: u64 = 80;
    let dir = TempDir::new("transitions");
    let engine: WfEngine = WfEngine::builder()
        .spec(wf_spec::corpus::running_example())
        .ingest_workers(2)
        .spill_dir(&dir.0)
        .build();
    let (exec, probes) = probed_run(&wf_spec::corpus::running_example(), 11);
    let run = engine.open_run(SpecId(0)).unwrap();
    for ev in exec.events() {
        engine.submit(run, ev).unwrap();
    }
    engine.complete_run(run).unwrap();

    // `evicting` is raised before the eviction starts and `evicted`
    // after it returned: a lookup that finished with `evicting` still
    // down must have found the run; one that began with `evicted` up
    // must not have.
    let (evicting, evicted) = (AtomicBool::new(false), AtomicBool::new(false));
    let start = std::sync::Barrier::new(4);
    let unknown = ServiceError::UnknownRun(run);
    std::thread::scope(|s| {
        for reader in 0..2 {
            let (engine, probes, start) = (&engine, &probes, &start);
            let (evicting, evicted, unknown) = (&evicting, &evicted, &unknown);
            s.spawn(move || {
                start.wait();
                for (u, v, expected) in probes.iter().cycle().skip(reader) {
                    let gone = evicted.load(Ordering::SeqCst);
                    let tier = engine.run_tier(run);
                    let answer = engine.handle(run).map(|h| h.reach(*u, *v));
                    let ids = engine.query().run_ids();
                    if !evicting.load(Ordering::SeqCst) {
                        assert!(tier.is_ok(), "registered run not found: {tier:?}");
                        assert_eq!(answer.as_ref().ok(), Some(&Some(*expected)));
                        assert_eq!(ids, vec![run], "listed once, in one tier");
                    }
                    if gone {
                        assert_eq!(tier.as_ref().err(), Some(unknown));
                        assert_eq!(answer.as_ref().err(), Some(unknown));
                        assert!(ids.is_empty());
                        return;
                    }
                }
            });
        }
        s.spawn(|| {
            start.wait();
            let mut last = 0;
            loop {
                let stats = engine.stats();
                if evicting.load(Ordering::SeqCst) {
                    return; // an eviction legitimately removes the run's count
                }
                let answered = stats.queries_answered;
                assert!(
                    answered >= last,
                    "queries_answered fell {last} -> {answered}"
                );
                last = answered;
                let tiers = (stats.runs_hot, stats.runs_frozen, stats.runs_persisted);
                assert_eq!(
                    tiers.0 + tiers.1 + tiers.2,
                    1,
                    "the run is in exactly one tier: {tiers:?}"
                );
            }
        });
        start.wait();
        engine.freeze_run(run).unwrap();
        for _ in 0..CYCLES {
            engine.persist_run(run).unwrap();
            assert_eq!(engine.run_tier(run).unwrap(), Tier::Persisted);
            engine.reheat_run(run).unwrap();
            assert_eq!(engine.run_tier(run).unwrap(), Tier::Frozen);
        }
        evicting.store(true, Ordering::SeqCst);
        engine.evict_run(run).unwrap();
        evicted.store(true, Ordering::SeqCst);
    });
    assert_eq!(engine.run_tier(run).unwrap_err(), unknown);
    assert_eq!(engine.stats().reheats, CYCLES);
}
