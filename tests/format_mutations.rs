//! A structure-aware mutation suite over the two on-disk formats: the
//! write-ahead log's version-3 shards and the segment's version-5 blobs.
//!
//! A flipped bit is what the checksum is for, and the CRC refuses every
//! one. A mutation that means something has to get *past* it, so each
//! case takes a valid shard or blob the engine wrote, changes one field
//! as a field — a length or a LEB128 varint re-encoded to another value,
//! a non-minimal, overlong or cut encoding, a count, a width, a
//! presence word or its rank, a prefix record's entry count, a deleted
//! or doubled field — and then **re-seals the CRC**, so the bytes reach
//! the parsers behind it. (A frame's length prefix lies outside its CRC
//! and is mutated without a re-seal.) Every case must end in:
//!
//! - no panic;
//! - a typed refusal or a total read: a shard reads back as every frame
//!   or as exactly the frames before the mutated one, and every event
//!   and blob that reads at all re-encodes to the bytes it came from,
//!   with every label in it decoding;
//! - no allocation past a stated bound: one read — a shard's recovery
//!   scan, one event, one blob's decode, one label — requests at most
//!   [`ALLOC_PER_BYTE`] bytes per input byte plus [`ALLOC_SLACK`], so no
//!   count or length taken from the bytes sizes a buffer before it is
//!   held against the bytes that are there.
//!
//! One case in [`ENGINE_EVERY`] is also opened by a whole engine — WAL
//! replay, or spill-directory registration and a read of the run — which
//! must come up and keep serving fresh runs.
//!
//! The corpus is seeded by [`SEED`]; `WF_MUTATION_CASES` sets the cases
//! per format. Each test prints both, with its time.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;
use wf_provenance::prelude::*;
use wf_service::wal::{self, crc32c};
use wf_service::{snapshot, ServiceError, SnapshotError};

mod common;
use common::TempDir;

/// Bytes one read may request per byte of its input…
const ALLOC_PER_BYTE: u64 = 64;
/// …plus this much, whatever the input.
const ALLOC_SLACK: u64 = 16 << 10;
/// One case in this many is also opened by an engine.
const ENGINE_EVERY: usize = 16;
/// Cases per format when `WF_MUTATION_CASES` is unset.
const DEFAULT_CASES: usize = 1500;
/// The mutator's seed: one corpus, drawn the same in every run.
const SEED: u64 = 0x6d75_7461_7465;

struct Counting;

thread_local! {
    /// Bytes this thread requested.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only added
// work is a thread-local counter bump, which never allocates (a `const`
// initialised `Cell` with no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|c| c.set(c.get() + layout.size() as u64));
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = REQUESTED.try_with(|c| c.set(c.get() + new_size as u64));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `read` over `input_len` bytes of input and hold what it requested
/// from the allocator to the bound.
fn bounded<R>(what: &str, input_len: usize, read: impl FnOnce() -> R) -> R {
    let before = REQUESTED.with(Cell::get);
    let out = read();
    let requested = REQUESTED.with(Cell::get) - before;
    let bound = ALLOC_PER_BYTE * input_len as u64 + ALLOC_SLACK;
    assert!(
        requested <= bound,
        "{what}: {requested} bytes requested over {input_len} bytes of input (bound {bound})"
    );
    out
}

/// Cases per format: `WF_MUTATION_CASES`, or [`DEFAULT_CASES`].
fn cases() -> usize {
    std::env::var("WF_MUTATION_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CASES)
}

/// xorshift64*: the mutator's own draws, so a seed names a corpus.
struct Draw(u64);

impl Draw {
    /// The draws of `seed` for the corpus named `salt`: splitmix64 of
    /// both, so distinct seeds start distinct streams.
    fn new(seed: u64, salt: u64) -> Self {
        let mut z = (seed ^ salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self((z ^ (z >> 31)).max(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A value a field is likely to mishandle: a LEB128 width boundary,
    /// a type's edge, or the field's own value moved by one.
    fn value(&mut self, current: u64) -> u64 {
        match self.below(4) {
            0 => current.wrapping_add(1),
            1 => current.wrapping_sub(1),
            2 => self.next() % 1024,
            _ => {
                let edge = [0, 1, 7, 14, 21, 24, 28, 31, 32, 35, 42, 49, 56, 63, 64];
                let bits = edge[self.below(edge.len())];
                let at = if bits == 64 { u64::MAX } else { 1u64 << bits };
                at.wrapping_sub(self.below(2) as u64)
            }
        }
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The varint at the front of `bytes` (not checked for minimality) and
/// its width.
fn get_varint(bytes: &[u8]) -> (u64, usize) {
    let width = 1 + bytes.iter().take_while(|&&b| b & 0x80 != 0).count();
    let v = bytes[..width]
        .iter()
        .rev()
        .fold(0, |v, &b| v << 7 | u64::from(b & 0x7f));
    (v, width)
}

// ---------------------------------------------------------------------------
// WAL shards
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Field {
    Byte,
    Varint,
    Word,
}

/// Where each field of a frame body lies: the kind byte, the run and
/// `seq + 1` varints, then the payload the service wrote — a `RunOpen`'s
/// spec word and resolution byte, an event's five varints and one per
/// predecessor.
fn body_fields(body: &[u8]) -> Vec<(usize, usize, Field)> {
    let mut fields = vec![(0, 1, Field::Byte)];
    let mut at = 1;
    let varint = |fields: &mut Vec<_>, at: &mut usize| {
        let (v, width) = get_varint(&body[*at..]);
        fields.push((*at, width, Field::Varint));
        *at += width;
        v
    };
    varint(&mut fields, &mut at);
    varint(&mut fields, &mut at);
    match body[0] {
        0 => fields.extend([(at, 4, Field::Word), (at + 4, 1, Field::Byte)]),
        1 => {
            for _ in 0..4 {
                varint(&mut fields, &mut at);
            }
            for _ in 0..varint(&mut fields, &mut at) {
                varint(&mut fields, &mut at);
            }
        }
        _ => {}
    }
    fields
}

fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, body.len() as u64);
    out.extend_from_slice(&crc32c(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// The frames of a shard, each with the width of its length prefix.
fn split_shard(shard: &[u8]) -> Vec<(&[u8], usize)> {
    let mut frames = Vec::new();
    let mut at = wal::FILE_HEADER.len();
    while at < shard.len() {
        let (len, width) = get_varint(&shard[at..]);
        let end = at + width + 4 + len as usize;
        assert_eq!(frame(&shard[at + width + 4..end]), shard[at..end]);
        frames.push((&shard[at..end], width));
        at = end;
    }
    frames
}

/// The new bytes of one field: another value, a non-minimal or overlong
/// encoding, a cut one, nothing (deleted) or the field twice.
fn mutate_field(draw: &mut Draw, old: &[u8], field: Field) -> Vec<u8> {
    match draw.below(8) {
        0 => Vec::new(),
        1 => [old, old].concat(),
        _ => match field {
            Field::Byte => vec![draw.next() as u8],
            Field::Word => {
                let v = u32::from_le_bytes(old.try_into().unwrap());
                (draw.value(u64::from(v)) as u32).to_le_bytes().to_vec()
            }
            Field::Varint => {
                let (v, _) = get_varint(old);
                let mut out = Vec::new();
                match draw.below(6) {
                    // Non-minimal: one more byte, a zero group on top.
                    0 => {
                        put_varint(&mut out, v);
                        *out.last_mut().unwrap() |= 0x80;
                        out.push(0);
                    }
                    1 => out.extend_from_slice(&[0xff; 11]),
                    2 => out.extend_from_slice(&old[..old.len() - 1]),
                    _ => put_varint(&mut out, draw.value(v)),
                }
                out
            }
        },
    }
}

/// A shard the engine wrote: two runs (one completed) of the running
/// example, on one worker's shard file.
fn written_shard() -> (Vec<u8>, Specification, Execution) {
    let dir = TempDir::new("wal-source");
    let spec = wf_spec::corpus::running_example();
    let gen = RunGenerator::new(&spec)
        .target_size(24)
        .generate_run(&mut StdRng::seed_from_u64(36));
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let engine: WfEngine = WfEngine::builder()
        .spec(spec.clone())
        .ingest_workers(1)
        .wal_dir(&dir.0)
        .build();
    for complete in [true, false] {
        let run = engine.open_run(SpecId(0)).unwrap();
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        if complete {
            engine.complete_run(run).unwrap();
        }
    }
    engine.flush();
    drop(engine);
    let shard = std::fs::read(dir.0.join(wal::shard_file_name(0))).unwrap();
    (shard, spec, exec)
}

/// Mutate one field of one frame of a valid shard, re-seal it, and read
/// it back: through the log's recovery scan, then every event payload it
/// returns, and — one case in [`ENGINE_EVERY`] — through an engine.
#[test]
fn mutated_wal_fields_are_refused_or_read_totally() {
    let cases = cases();
    let started = Instant::now();
    let (shard, spec, exec) = written_shard();
    let frames = split_shard(&shard);
    assert_eq!(frames.len(), 2 * (1 + exec.len()) + 1);
    let dir = TempDir::new("wal");
    let path = dir.0.join(wal::shard_file_name(0));
    let mut draw = Draw::new(SEED, u64::from_le_bytes(*b"wal v3\0\0"));
    let (mut read_whole, mut cut, mut events_read, mut engines) = (0, 0, 0, 0);
    for case in 0..cases {
        let k = draw.below(frames.len());
        let (whole, width) = frames[k];
        let body = &whole[width + 4..];
        let mutated = if draw.below(8) == 0 {
            // The length prefix: outside the CRC, so no re-seal.
            let (len, _) = get_varint(whole);
            let prefix = mutate_field(&mut draw, &whole[..width], Field::Varint);
            let prefix = if prefix.is_empty() {
                vec![draw.value(len) as u8]
            } else {
                prefix
            };
            [&prefix[..], &whole[width..]].concat()
        } else {
            let fields = body_fields(body);
            let (at, width, field) = fields[draw.below(fields.len())];
            let new = mutate_field(&mut draw, &body[at..at + width], field);
            frame(&[&body[..at], &new[..], &body[at + width..]].concat())
        };
        let mut bytes = wal::FILE_HEADER.to_vec();
        let mut before = bytes.len();
        for (i, &(frame, _)) in frames.iter().enumerate() {
            if i == k {
                before = bytes.len();
                bytes.extend_from_slice(&mutated);
            } else {
                bytes.extend_from_slice(frame);
            }
        }
        std::fs::write(&path, &bytes).unwrap();

        let rec = bounded("recovery scan", bytes.len(), || wal::recover(&dir.0))
            .unwrap_or_else(|e| panic!("case {case}: the header is intact, yet {e}"));
        // Every frame, or exactly the frames before the mutated one.
        match rec.torn.as_slice() {
            [] => {
                assert_eq!(rec.records as usize, frames.len(), "case {case}");
                assert_eq!(rec.bytes as usize, bytes.len(), "case {case}");
                read_whole += 1;
            }
            [torn] => {
                assert_eq!(rec.records as usize, k, "case {case}: {}", torn.detail);
                assert_eq!(torn.valid_bytes as usize, before, "case {case}");
                assert_eq!(rec.bytes as usize, before, "case {case}");
                cut += 1;
            }
            many => panic!("case {case}: {} tears in one file", many.len()),
        }
        for r in rec.runs.iter().flat_map(|r| &r.records) {
            if r.kind != wal::RecordKind::Event {
                continue;
            }
            let event = bounded("event payload", r.payload.len(), || {
                wf_drl::encode::read_event(&r.payload)
            });
            if let Some(ev) = event {
                let mut again = Vec::new();
                wf_drl::encode::write_event(&mut again, &ev);
                assert_eq!(again, r.payload, "case {case}: {ev:?}");
                events_read += 1;
            }
        }

        if case % ENGINE_EVERY == 0 {
            engines += 1;
            let runs: Vec<RunId> = rec.runs.iter().map(|r| RunId(r.run)).collect();
            let engine: WfEngine = WfEngine::builder()
                .spec(spec.clone())
                .ingest_workers(1)
                .wal_dir(&dir.0)
                .build();
            assert_eq!(engine.health(), Health::Healthy, "case {case}");
            for run in runs {
                match engine.handle(run) {
                    Ok(h) => {
                        let published = h.published();
                        for a in exec.events().iter().take(published.min(6)) {
                            for b in exec.events().iter().take(published.min(6)) {
                                let _ = h.reach(a.vertex, b.vertex);
                            }
                        }
                    }
                    Err(ServiceError::UnknownRun(_)) => {}
                    Err(e) => panic!("case {case}: {e}"),
                }
            }
            let fresh = engine.open_run(SpecId(0)).unwrap();
            for ev in exec.events() {
                engine.submit(fresh, ev).unwrap();
            }
            let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
            assert_eq!(engine.reach(fresh, u, v), Ok(Some(true)), "case {case}");
        }
    }
    assert!(read_whole > 0 && cut > 0, "{read_whole} read, {cut} cut");
    println!(
        "wal mutations: seed {SEED:#x}, {cases} cases over {} frames ({read_whole} read whole, \
         {cut} cut at the mutated frame, {events_read} events decoded, {engines} engine \
         replays) in {:.2?}",
        frames.len(),
        started.elapsed()
    );
}

// ---------------------------------------------------------------------------
// Segment blobs
// ---------------------------------------------------------------------------

/// The segment header's fields after the magic: (offset, bytes).
const HEADER_FIELDS: [(usize, usize); 9] = [
    (8, 4),  // version
    (12, 8), // run
    (20, 4), // spec
    (24, 4), // skl_bits
    (28, 4), // source
    (32, 4), // count
    (36, 8), // arena length
    (44, 8), // DRL accounting bits
    (52, 8), // frozen_at
];
/// Where the arena starts: behind the 60-byte header.
const ARENA: usize = 60;
/// The arena's layout header: id span, heap length, seven cell widths.
const LAYOUT: usize = 8 + 7;
/// One presence word and its rank.
const GROUP: usize = 8 + 4;
/// The cell field that names a label's prefix record.
const PREFIX_FIELD: usize = 1;

/// Write `width` bits of `value` at bit `at`, low bit first.
fn set_bits(bytes: &mut [u8], at: usize, width: usize, value: u64) {
    for i in 0..width {
        let bit = at + i;
        if let Some(byte) = bytes.get_mut(bit / 8) {
            *byte &= !(1 << (bit % 8));
            *byte |= ((value >> i & 1) as u8) << (bit % 8);
        }
    }
}

fn get_bits(bytes: &[u8], at: usize, width: usize) -> u64 {
    (0..width).fold(0, |v, i| {
        let bit = at + i;
        let b = bytes.get(bit / 8).map_or(0, |b| b >> (bit % 8) & 1);
        v | u64::from(b) << i
    })
}

/// The arena's parts, read from a valid blob.
struct Arena {
    span: usize,
    widths: [usize; 7],
    cells_at: usize,
    count: usize,
    heap_at: usize,
}

fn arena_parts(blob: &[u8]) -> Arena {
    let arena = &blob[ARENA..blob.len() - 4];
    let word = |i: usize| u32::from_le_bytes(arena[i..i + 4].try_into().unwrap()) as usize;
    let mut widths = [0; 7];
    for (w, &b) in widths.iter_mut().zip(&arena[8..LAYOUT]) {
        *w = usize::from(b);
    }
    let span = word(0);
    Arena {
        span,
        widths,
        cells_at: ARENA + LAYOUT + span.div_ceil(64) * GROUP,
        count: word_at(blob, 32, 4) as usize,
        heap_at: ARENA + arena.len() - word(4),
    }
}

fn word_at(blob: &[u8], at: usize, width: usize) -> u64 {
    let mut b = [0; 8];
    b[..width].copy_from_slice(&blob[at..at + width]);
    u64::from_le_bytes(b)
}

/// One field-level mutation of a valid blob, not yet re-sealed.
fn mutate_blob(draw: &mut Draw, blob: &[u8]) -> Vec<u8> {
    let l = arena_parts(blob);
    let mut out = blob[..blob.len() - 4].to_vec();
    let cell_bits: usize = l.widths.iter().sum();
    let cell = |r: usize, k: usize| {
        (
            l.cells_at * 8 + r * cell_bits + l.widths[..k].iter().sum::<usize>(),
            l.widths[k],
        )
    };
    match draw.below(8) {
        // A header field: a count, a length, a width, an id.
        0 | 1 => {
            let (at, width) = HEADER_FIELDS[draw.below(HEADER_FIELDS.len())];
            let v = draw.value(word_at(blob, at, width));
            out[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
        }
        // The layout header: the id span, the heap length, a cell width.
        2 => match draw.below(3) {
            0 | 1 => {
                let at = ARENA + 4 * draw.below(2);
                let v = draw.value(word_at(blob, at, 4)) as u32;
                out[at..at + 4].copy_from_slice(&v.to_le_bytes());
            }
            _ => {
                let k = draw.below(7);
                let v = draw.value(l.widths[k] as u64) % 48;
                out[ARENA + 8 + k] = v as u8;
            }
        },
        // A presence word or its rank.
        3 => {
            let g = draw.below(l.span.div_ceil(64));
            let at = ARENA + LAYOUT + g * GROUP;
            if draw.below(2) == 0 {
                let v = match draw.below(3) {
                    0 => 0,
                    1 => u64::MAX,
                    _ => word_at(blob, at, 8) ^ 1 << draw.below(64),
                };
                out[at..at + 8].copy_from_slice(&v.to_le_bytes());
            } else {
                let v = draw.value(word_at(blob, at + 8, 4)) as u32;
                out[at + 8..at + 12].copy_from_slice(&v.to_le_bytes());
            }
        }
        // One field of one cell, at another value of its width.
        4 | 5 => {
            let (at, width) = cell(draw.below(l.count), draw.below(7));
            let v = draw.value(get_bits(&out, at, width)) & ((1 << width) - 1);
            set_bits(&mut out, at, width, v);
        }
        // A prefix record's entry count, γ-coded anew.
        6 => {
            let (at, width) = cell(draw.below(l.count), PREFIX_FIELD);
            let record = l.heap_at + get_bits(&out, at, width) as usize;
            let mut w = wf_drl::encode::BitWriter::new();
            w.push_gamma(draw.value(4).max(1));
            let gamma = w.into_bytes();
            let end = (record + gamma.len()).min(out.len());
            out[record..end].copy_from_slice(&gamma[..end - record]);
        }
        // Bytes cut out of or doubled inside the arena, the header's
        // length fixed up to match or left as it was.
        _ => {
            let at = ARENA + draw.below(out.len() - ARENA);
            let n = 1 + draw.below(8.min(out.len() - at));
            if draw.below(2) == 0 {
                out.drain(at..at + n);
            } else {
                let again = out[at..at + n].to_vec();
                out.splice(at..at, again);
            }
            if draw.below(2) == 0 {
                let arena = (out.len() - ARENA) as u64;
                out[36..44].copy_from_slice(&arena.to_le_bytes());
            }
        }
    }
    out
}

/// Mutate one field of a valid blob, re-seal it, and read it back: a
/// typed refusal, or a blob that re-encodes to itself and whose every
/// label decodes; and — one case in [`ENGINE_EVERY`] — the same bytes as
/// the one pack of a spill directory an engine opens.
#[test]
fn mutated_segment_fields_are_refused_or_read_totally() {
    let cases = cases();
    let started = Instant::now();
    let source = TempDir::new("blob-source");
    let spec = wf_spec::corpus::running_example();
    let gen = RunGenerator::new(&spec)
        .target_size(40)
        .generate_run(&mut StdRng::seed_from_u64(5));
    let exec = Execution::deterministic(&gen.graph, &gen.origin);
    let build = |dir: &TempDir| -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .spill_dir(&dir.0)
            .build()
    };
    let run = {
        let engine = build(&source);
        let run = engine.open_run(SpecId(0)).unwrap();
        for ev in exec.events() {
            engine.submit(run, ev).unwrap();
        }
        engine.complete_run(run).unwrap();
        engine.persist_run(run).unwrap();
        run
    };
    let entry = snapshot::load_manifest(&source.0).unwrap().remove(0);
    let blob = std::fs::read(source.0.join(&entry.file)).unwrap();
    assert_eq!(blob.len() as u64, entry.bytes);
    let skeleton = TclSpecLabels::build(&spec);
    let predicate = DrlPredicate::new(&skeleton);
    let mut draw = Draw::new(SEED, u64::from_le_bytes(*b"blob v5\0"));
    let (mut refused, mut accepted, mut framed, mut engines) = (0, 0, 0, 0);
    for case in 0..cases {
        let mut bytes = mutate_blob(&mut draw, &blob);
        let checksum = crc32c(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());

        let verified = bounded("blob verify", bytes.len(), || {
            snapshot::verify_segment_bytes(&bytes)
        });
        let decoded = bounded("blob decode", bytes.len(), || {
            snapshot::decode_segment(&bytes)
        });
        match decoded {
            Err(SnapshotError::Format(_)) => refused += 1,
            Ok((header, arena)) => {
                accepted += 1;
                assert_eq!(verified.as_ref(), Ok(&header), "case {case}");
                assert!(
                    snapshot::encode_segment(&header, &arena) == bytes,
                    "case {case}: re-encode"
                );
                let view = arena.view();
                let heap = arena.bytes().len();
                for (v, name, label) in view.iter() {
                    assert_eq!(view.name(v), Some(name), "case {case}");
                    let owned = bounded("one label", heap, || label.to_label());
                    assert!(owned.is_some(), "case {case}: {v:?}");
                    assert!(label.bit_len(header.skl_bits as usize).is_some());
                }
                let labels: Vec<_> = view.iter().collect();
                for &(u, _, a) in labels.iter().step_by(3) {
                    for &(v, _, b) in labels.iter().step_by(5) {
                        let walked = predicate.reaches_ref(a, b);
                        assert_eq!(view.reach(&predicate, u, v), walked, "case {case}");
                    }
                }
            }
            Err(other) => panic!("case {case}: not a format error: {other:?}"),
        }
        // What a frame serves once its framing holds: the arena read in
        // place, every label unvalidated, each read total and bounded.
        if let Ok(header) = verified {
            let arena = &bytes[ARENA..bytes.len() - 4];
            let skl_bits = header.skl_bits as usize;
            if let Ok(reader) = wf_drl::ArenaRef::new(arena, skl_bits) {
                framed += 1;
                let probes: Vec<VertexId> = reader.names().map(|(v, _)| v).collect();
                for &u in &probes {
                    let _ = reader.name(u);
                    if let Some(label) = reader.label(u) {
                        let _ = bounded("one unvalidated label", arena.len(), || {
                            (label.to_label(), label.bit_len(skl_bits))
                        });
                    }
                }
                for &u in probes.iter().step_by(3) {
                    for &v in probes.iter().step_by(5) {
                        let _ = reader.reach(&predicate, u, v);
                    }
                }
            }
        }

        if case % ENGINE_EVERY == 0 {
            engines += 1;
            let dir = TempDir::new("blob");
            std::fs::write(dir.0.join(&entry.file), &bytes).unwrap();
            let line = snapshot::ManifestEntry {
                bytes: bytes.len() as u64,
                ..entry.clone()
            };
            snapshot::write_manifest(&dir.0, &[line]).unwrap();
            let engine = build(&dir);
            let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
            match engine.reach(run, u, v) {
                Ok(_) | Err(ServiceError::UnknownRun(_)) | Err(ServiceError::Snapshot(..)) => {}
                Err(e) => panic!("case {case}: {e}"),
            }
            let fresh = engine.open_run(SpecId(0)).unwrap();
            for ev in exec.events() {
                engine.submit(fresh, ev).unwrap();
            }
            assert_eq!(engine.reach(fresh, u, v), Ok(Some(true)), "case {case}");
        }
    }
    assert!(
        refused > 0 && accepted > 0,
        "{refused} refused, {accepted} accepted"
    );
    println!(
        "segment mutations: seed {SEED:#x}, {cases} cases over a {}-byte blob ({refused} \
         refused, {accepted} read totally, {framed} arenas read unvalidated behind sound \
         framing, {engines} engine opens) in {:.2?}",
        blob.len(),
        started.elapsed()
    );
}

// ---------------------------------------------------------------------------
// Spill manifests
// ---------------------------------------------------------------------------

/// Change one thing of a manifest's text: a byte of its header, one
/// field of one line (another value, non-digits, emptied, or an extra
/// field beside it), one newline (cut or doubled), or one byte set past
/// ASCII.
fn mutate_manifest(draw: &mut Draw, text: &[u8]) -> Vec<u8> {
    let header = snapshot::MANIFEST_HEADER.len();
    let mut out = text.to_vec();
    match draw.below(6) {
        // The header: a byte changed, cut out or put in.
        0 => {
            let at = draw.below(header);
            match draw.below(3) {
                0 => out[at] = out[at].wrapping_add(1 + draw.below(255) as u8),
                1 => drop(out.drain(at..at + 1 + draw.below(header - at))),
                _ => out.insert(at, b"0 v3wf-"[draw.below(7)]),
            }
        }
        // One field of one line.
        1..=3 => {
            let lines: Vec<&[u8]> = text[header + 1..]
                .split_inclusive(|&b| b == b'\n')
                .collect();
            let k = draw.below(lines.len());
            let line = std::str::from_utf8(lines[k]).unwrap().trim_end();
            let mut fields: Vec<String> = line.split(' ').map(str::to_string).collect();
            let f = draw.below(fields.len());
            match draw.below(4) {
                0 if f == 1 => fields[f] = format!("pack-{}.wfseg", draw.below(3)),
                0 => fields[f] = draw.value(fields[f].parse().unwrap()).to_string(),
                1 => {
                    let odd = ["x", "-1", "1.5", "0x10", "+", "1e3", "\u{0661}", "9a"];
                    fields[f] = odd[draw.below(odd.len())].to_string();
                }
                2 => fields[f].clear(),
                _ => fields.insert(f + draw.below(2), draw.below(1000).to_string()),
            }
            let at = header + 1 + lines[..k].iter().map(|l| l.len()).sum::<usize>();
            let new = format!("{}\n", fields.join(" "));
            out.splice(at..at + lines[k].len(), new.into_bytes());
        }
        // A newline, cut or doubled.
        4 => {
            let newlines: Vec<usize> = (0..text.len()).filter(|&i| text[i] == b'\n').collect();
            let at = newlines[draw.below(newlines.len())];
            if draw.below(2) == 0 {
                out.remove(at);
            } else {
                out.insert(at, b'\n');
            }
        }
        // One byte past ASCII.
        _ => {
            let at = draw.below(out.len());
            out[at] = 0x80 | draw.below(0x80) as u8;
        }
    }
    out
}

/// Every file of `dir` with its bytes, by name.
fn dir_bytes(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

/// Mutate the manifest of an engine-written spill directory — four runs
/// in one pack — one thing at a time, and open an engine over it. Every
/// case builds without a panic. A case that changed the header
/// registers nothing, and the engine leaves the directory byte for byte
/// through a `compact()`, which it refuses; any other case registers
/// every run whose line it left whole, each answering sampled `reach`
/// pairs like naive replay, and after a `compact()` every pack the
/// directory held is still there.
#[test]
fn mutated_manifests_lose_no_run_they_did_not_touch() {
    let cases = cases();
    let started = Instant::now();
    let source = TempDir::new("manifest-source");
    let spec = wf_spec::corpus::running_example();
    let build = |dir: &TempDir| -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .ingest_workers(1)
            .spill_dir(&dir.0)
            .build()
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut runs = Vec::new();
    {
        let engine = build(&source);
        for _ in 0..4 {
            let gen = RunGenerator::new(&spec)
                .target_size(30)
                .generate_run(&mut rng);
            let exec = Execution::deterministic(&gen.graph, &gen.origin);
            let mut naive = NaiveDynamicDag::new();
            let run = engine.open_run(SpecId(0)).unwrap();
            for ev in exec.events() {
                engine.submit(run, ev).unwrap();
                naive.insert(ev.vertex, &ev.preds);
            }
            engine.complete_run(run).unwrap();
            engine.persist_run(run).unwrap();
            let vertices: Vec<VertexId> = exec.events().iter().map(|e| e.vertex).collect();
            let probes: Vec<(VertexId, VertexId, bool)> = vertices
                .iter()
                .flat_map(|&u| vertices.iter().map(move |&v| (u, v)))
                .map(|(u, v)| (u, v, naive.reaches(u, v)))
                .collect();
            runs.push((run, probes));
        }
    }
    let original = dir_bytes(&source.0);
    let text = original[snapshot::MANIFEST_FILE].clone();
    let packs: Vec<&String> = original.keys().filter(|n| n.ends_with(".wfseg")).collect();
    assert_eq!(packs.len(), 1, "one pack: {packs:?}");
    // Each run's line, as the engine wrote it.
    let lines: Vec<&[u8]> = text
        .split(|&b| b == b'\n')
        .skip(1)
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(lines.len(), runs.len());
    let mut draw = Draw::new(SEED, u64::from_le_bytes(*b"manifest"));
    let (mut headers, mut registered, mut lost) = (0, 0, 0);
    for case in 0..cases {
        let mutated = mutate_manifest(&mut draw, &text);
        let dir = TempDir::new("manifest");
        for (name, bytes) in &original {
            let bytes = if name == snapshot::MANIFEST_FILE {
                &mutated
            } else {
                bytes
            };
            std::fs::write(dir.0.join(name), bytes).unwrap();
        }
        let before = dir_bytes(&dir.0);
        let whole: Vec<&[u8]> = mutated
            .split_inclusive(|&b| b == b'\n')
            .filter_map(|l| l.strip_suffix(b"\n"))
            .collect();
        let engine = build(&dir);
        if whole.first() != Some(&snapshot::MANIFEST_HEADER.as_bytes()) {
            headers += 1;
            assert_eq!(engine.stats().runs_persisted, 0, "case {case}");
            assert!(
                matches!(engine.compact(), Err(ServiceError::SpillUnavailable(_))),
                "case {case}"
            );
            drop(engine);
            assert!(
                dir_bytes(&dir.0) == before,
                "case {case}: the directory changed"
            );
            continue;
        }
        for ((run, probes), line) in runs.iter().zip(&lines) {
            if !whole.contains(line) {
                lost += usize::from(engine.run_tier(*run).is_err());
                continue;
            }
            registered += 1;
            assert_eq!(
                engine.run_tier(*run),
                Ok(Tier::Persisted),
                "case {case}: {run}"
            );
            for _ in 0..4 {
                let (u, v, want) = probes[draw.below(probes.len())];
                assert_eq!(
                    engine.reach(*run, u, v),
                    Ok(Some(want)),
                    "case {case}: {run}"
                );
            }
        }
        engine.compact().unwrap();
        drop(engine);
        let after = dir_bytes(&dir.0);
        for pack in &packs {
            assert!(
                after.contains_key(*pack),
                "case {case}: {pack} is gone: {:?}",
                String::from_utf8_lossy(&mutated)
            );
        }
    }
    assert!(headers > 0 && registered > 0 && lost > 0);
    println!(
        "manifest mutations: seed {SEED:#x}, {cases} cases over a {}-byte manifest ({headers} \
         header cases left byte for byte, {registered} untouched lines registered, {lost} \
         touched lines not registered) in {:.2?}",
        text.len(),
        started.elapsed()
    );
}
