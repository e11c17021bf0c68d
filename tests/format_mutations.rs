//! A structure-aware mutation suite over the on-disk formats: the
//! write-ahead log's version-4 shards, the segment's version-6 blobs and
//! the spill directory's version-1 seal log.
//!
//! A flipped bit is what the checksum is for, and the CRC refuses every
//! one. A mutation that means something has to get *past* it, so each
//! case takes a valid shard or blob the engine wrote, changes one field
//! as a field — a length or a LEB128 varint re-encoded to another value,
//! a non-minimal, overlong or cut encoding, a count, a width, a
//! presence word or its rank, any field of a label arena's cell, context
//! or trie record (a trie record's parent also pointed at itself or past
//! it), a deleted or doubled field — and then **re-seals the CRC**, so
//! the bytes reach the parsers behind it. (A frame's length prefix lies
//! outside its CRC and is mutated without a re-seal.) Every case must
//! end in:
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
use wf_service::snapshot::{self, Seal};
use wf_service::wal::{self, crc32c};
use wf_service::{ServiceError, SnapshotError};

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

/// Where each field of a frame body lies: the run and `first seq + 1`
/// varints, then per record its kind byte, its payload length — every
/// record's but the last, whose payload runs to the end of the body —
/// and the payload the service wrote: a `RunOpen`'s spec word and
/// resolution byte, an event's five varints and one per predecessor.
fn body_fields(body: &[u8]) -> Vec<(usize, usize, Field)> {
    let mut fields = Vec::new();
    let mut at = 0;
    let varint = |fields: &mut Vec<_>, at: &mut usize| {
        let (v, width) = get_varint(&body[*at..]);
        fields.push((*at, width, Field::Varint));
        *at += width;
        v
    };
    varint(&mut fields, &mut at);
    varint(&mut fields, &mut at);
    while at < body.len() {
        let (kind, more) = (body[at] & 0x7f, body[at] & 0x80 != 0);
        fields.push((at, 1, Field::Byte));
        at += 1;
        let end = if more {
            let len = varint(&mut fields, &mut at) as usize;
            at + len
        } else {
            body.len()
        };
        match kind {
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
        at = end;
    }
    fields
}

/// How many records the log reads in a frame body, or `None` when it
/// refuses the body — restated from the format: minimal varints, at
/// least one record, known kinds, every record flagged `0x80` but the
/// last followed by another, their payloads inside the body, no record
/// numbered past `u64::MAX`.
fn frame_records(body: &[u8]) -> Option<usize> {
    let (_, run_width) = wal::get_varint(body)?;
    let (first, first_width) = wal::get_varint(&body[run_width..])?;
    let mut at = run_width + first_width;
    let mut n = 0u64;
    loop {
        let &kind = body.get(at)?;
        (kind & 0x7f < 4).then_some(())?;
        at += 1;
        n += 1;
        if kind & 0x80 == 0 {
            break;
        }
        let (len, width) = wal::get_varint(&body[at..])?;
        at = (at + width).checked_add(usize::try_from(len).ok()?)?;
        (at <= body.len()).then_some(())?;
    }
    let numbered = first.wrapping_sub(1).checked_add(n.checked_sub(1)?);
    numbered.map(|_| n as usize)
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

/// A shard the engine wrote: on one worker's shard file, two runs of the
/// running example (one completed) interleaved in bursts of 1 to 7
/// events, so each run's batches split, then a third run's batch and the
/// checkpoint that drops it.
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
    let runs = [(); 2].map(|()| engine.open_run(SpecId(0)).unwrap());
    let mut sent = [0; 2];
    let mut draw = Draw::new(SEED, 2);
    while sent.iter().any(|&n| n < exec.len()) {
        for (run, n) in runs.iter().zip(&mut sent) {
            let burst = (*n + 1 + draw.below(7)).min(exec.len());
            for ev in &exec.events()[*n..burst] {
                engine.submit(*run, ev).unwrap();
            }
            *n = burst;
        }
    }
    engine.complete_run(runs[0]).unwrap();
    let dropped = engine.open_run(SpecId(0)).unwrap();
    for ev in &exec.events()[..3] {
        engine.submit(dropped, ev).unwrap();
    }
    engine.flush();
    drop(engine);
    let writer =
        wal::WalWriter::open(&dir.0, 1, WalSync::default(), Box::new(wal::NullObserver)).unwrap();
    writer.checkpoint(0, dropped.0, 0).unwrap();
    drop(writer);
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
    // Records per frame: two runs' `RunOpen`s, events and one `Complete`,
    // the third run's `RunOpen`, three events and its checkpoint.
    let held: Vec<usize> = frames
        .iter()
        .map(|&(whole, width)| frame_records(&whole[width + 4..]).unwrap())
        .collect();
    let records = held.iter().sum::<usize>();
    assert_eq!(records, 2 * (1 + exec.len()) + 1 + 4 + 1);
    assert!(frames.len() > 4 && held.iter().any(|&n| n > 1), "{held:?}");
    let dir = TempDir::new("wal");
    let path = dir.0.join(wal::shard_file_name(0));
    let mut draw = Draw::new(SEED, u64::from_le_bytes(*b"wal v4\0\0"));
    let (mut read_whole, mut cut, mut events_read, mut engines) = (0, 0, 0, 0);
    for case in 0..cases {
        let k = draw.below(frames.len());
        let (whole, width) = frames[k];
        let body = &whole[width + 4..];
        let (mutated, new_body) = if draw.below(8) == 0 {
            // The length prefix: outside the CRC, so no re-seal.
            let (len, _) = get_varint(whole);
            let prefix = mutate_field(&mut draw, &whole[..width], Field::Varint);
            let prefix = if prefix.is_empty() {
                vec![draw.value(len) as u8]
            } else {
                prefix
            };
            ([&prefix[..], &whole[width..]].concat(), body.to_vec())
        } else {
            let fields = body_fields(body);
            let (at, width, field) = fields[draw.below(fields.len())];
            let new = mutate_field(&mut draw, &body[at..at + width], field);
            let new_body = [&body[..at], &new[..], &body[at + width..]].concat();
            (frame(&new_body), new_body)
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
                let read = frame_records(&new_body)
                    .unwrap_or_else(|| panic!("case {case}: a refused frame was read"));
                assert_eq!(
                    rec.records as usize,
                    records - held[k] + read,
                    "case {case}"
                );
                assert_eq!(rec.bytes as usize, bytes.len(), "case {case}");
                read_whole += 1;
            }
            [torn] => {
                let before_k = held[..k].iter().sum::<usize>();
                assert_eq!(
                    rec.records as usize, before_k,
                    "case {case}: {}",
                    torn.detail
                );
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
/// The arena's layout header: id span, the context and trie record
/// counts, fifteen field widths.
const LAYOUT: usize = 12 + 15;
/// One presence word and its rank.
const GROUP: usize = 8 + 4;
/// The three record regions of the arena's stream, in stream order, and
/// their fields by name, in record order.
const REGIONS: [(&str, &[&str]); 3] = [
    ("cell", &["context", "vertex", "rec", "name"]),
    ("context", &["prefix", "index", "kind", "graph"]),
    (
        "trie",
        &["parent", "depth", "index", "kind", "graph", "vertex", "rec"],
    ),
];

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

/// One record region of a valid blob's arena: where its records start
/// (a bit of the blob), how many there are, and each field's width.
struct Region {
    start: usize,
    count: usize,
    widths: Vec<usize>,
}

impl Region {
    /// Field `k` of record `r`: its bit in the blob and its width.
    fn field(&self, r: usize, k: usize) -> (usize, usize) {
        let bits: usize = self.widths.iter().sum();
        let at = self.start + r * bits + self.widths[..k].iter().sum::<usize>();
        (at, self.widths[k])
    }
}

/// The arena's parts, read from a valid blob.
struct Arena {
    span: usize,
    /// Cells, contexts, trie records, in stream order.
    regions: [Region; 3],
}

fn arena_parts(blob: &[u8]) -> Arena {
    let arena = &blob[ARENA..blob.len() - 4];
    let word = |i: usize| u32::from_le_bytes(arena[i..i + 4].try_into().unwrap()) as usize;
    let span = word(0);
    let counts = [word_at(blob, 32, 4) as usize, word(4), word(8)];
    let mut start = (ARENA + LAYOUT + span.div_ceil(64) * GROUP) * 8;
    let mut widths = arena[12..LAYOUT].iter().map(|&w| usize::from(w));
    let regions = [0, 1, 2].map(|i| {
        let widths: Vec<usize> = widths.by_ref().take(REGIONS[i].1.len()).collect();
        let region = Region {
            start,
            count: counts[i],
            widths,
        };
        start += region.count * region.widths.iter().sum::<usize>();
        region
    });
    Arena { span, regions }
}

fn word_at(blob: &[u8], at: usize, width: usize) -> u64 {
    let mut b = [0; 8];
    b[..width].copy_from_slice(&blob[at..at + width]);
    u64::from_le_bytes(b)
}

/// `blob` without its checksum, its record stream re-packed with field
/// `f` of record `r` of region `i` set to `value` and that field `width`
/// bits wide in every record of the region, and the layout header and
/// the segment header's arena length to match.
fn repacked(
    blob: &[u8],
    l: &Arena,
    (i, r, f): (usize, usize, usize),
    value: u64,
    width: usize,
) -> Vec<u8> {
    let mut widths: Vec<Vec<usize>> = l.regions.iter().map(|g| g.widths.clone()).collect();
    widths[i][f] = width;
    let mut stream = wf_drl::encode::BitWriter::new();
    for (g, region) in l.regions.iter().enumerate() {
        for rec in 0..region.count {
            for (k, &w) in widths[g].iter().enumerate() {
                let (at, old) = region.field(rec, k);
                let v = if (g, rec, k) == (i, r, f) {
                    value
                } else {
                    get_bits(blob, at, old)
                };
                stream.push_bits(v, w);
            }
        }
    }
    let mut out = blob[..l.regions[0].start / 8].to_vec();
    for (w, &new) in out[ARENA + 12..ARENA + LAYOUT]
        .iter_mut()
        .zip(widths.iter().flatten())
    {
        *w = new as u8;
    }
    out.extend(stream.into_bytes());
    let arena = (out.len() - ARENA) as u64;
    out[36..44].copy_from_slice(&arena.to_le_bytes());
    out
}

/// One field-level mutation of a valid blob, not yet re-sealed, and the
/// record field it changed (`None` for one outside the records).
fn mutate_blob(draw: &mut Draw, blob: &[u8]) -> (Vec<u8>, Option<(usize, usize)>) {
    let l = arena_parts(blob);
    let mut out = blob[..blob.len() - 4].to_vec();
    let mut field = None;
    match draw.below(9) {
        // A header field: a count, a length, a width, an id.
        0 | 1 => {
            let (at, width) = HEADER_FIELDS[draw.below(HEADER_FIELDS.len())];
            let v = draw.value(word_at(blob, at, width));
            out[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
        }
        // The layout header: the id span, a record count, a field width.
        2 => match draw.below(4) {
            0..=2 => {
                let at = ARENA + 4 * draw.below(3);
                let v = draw.value(word_at(blob, at, 4)) as u32;
                out[at..at + 4].copy_from_slice(&v.to_le_bytes());
            }
            _ => {
                let k = draw.below(15);
                let v = draw.value(u64::from(out[ARENA + 12 + k])) % 48;
                out[ARENA + 12 + k] = v as u8;
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
        // One field of one record — a cell, a context or a trie record —
        // at another value of its width. A trie link also gets the
        // values that would close a loop: the record itself, one after.
        k @ 4..=7 => {
            let i = (k - 4).min(2);
            let region = &l.regions[i];
            let f = draw.below(REGIONS[i].1.len());
            let r = draw.below(region.count);
            let (at, width) = region.field(r, f);
            let looped = i == 2 && f == 0 && draw.below(3) == 0;
            let v = if looped {
                (r + 1 + draw.below(2)) as u64
            } else {
                draw.value(get_bits(&out, at, width))
            };
            // A field 0 bits wide — a name that is its spec vertex's, an
            // own kind that is `N` — holds no value to change in place:
            // it, and one draw in three of any other, is re-encoded with
            // its width grown to hold the new value (at most 47 bits), and
            // the whole record stream re-packed behind it.
            if width == 0 || draw.below(3) == 0 {
                let grown = (64 - v.leading_zeros() as usize).clamp(width, 47);
                out = repacked(blob, &l, (i, r, f), v & ((1 << grown) - 1), grown);
            } else {
                set_bits(&mut out, at, width, v & ((1 << width) - 1));
            }
            field = Some((i, f));
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
    (out, field)
}

/// Mutate one field of a valid blob, re-seal it, and read it back: a
/// typed refusal, or a blob that re-encodes to itself and whose every
/// label decodes; and — one case in [`ENGINE_EVERY`] — the same bytes as
/// the one pack of a spill directory an engine opens. Every field of
/// every record kind — cell, context, trie — is mutated, each counted
/// by name.
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
    let log = snapshot::read_seal_log(&source.0).unwrap();
    let [Seal::Sealed { pack, len, .. }] = log.records[..] else {
        panic!("one seal record: {:?}", log.records);
    };
    let file = snapshot::pack_file_name(pack);
    let blob = std::fs::read(source.0.join(&file)).unwrap();
    assert_eq!(blob.len() as u64, len);
    let skeleton = TclSpecLabels::build(&spec);
    let predicate = DrlPredicate::new(&skeleton);
    let names = wf_drl::NameTable::new(&spec);
    let mut draw = Draw::new(SEED, u64::from_le_bytes(*b"blob v6\0"));
    let (mut refused, mut accepted, mut framed, mut engines) = (0, 0, 0, 0);
    let mut mutated: Vec<Vec<usize>> = REGIONS.iter().map(|(_, f)| vec![0; f.len()]).collect();
    for case in 0..cases {
        let (mut bytes, field) = mutate_blob(&mut draw, &blob);
        if let Some((region, f)) = field {
            mutated[region][f] += 1;
        }
        let checksum = crc32c(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());

        let verified = bounded("blob verify", bytes.len(), || {
            snapshot::verify_segment_bytes(&bytes)
        });
        let decoded = bounded("blob decode", bytes.len(), || {
            snapshot::decode_segment(&bytes, &names)
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
                let view = arena.view(&names);
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
            if let Ok(reader) = wf_drl::ArenaRef::new(arena, skl_bits, &names) {
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
            std::fs::write(dir.0.join(&file), &bytes).unwrap();
            let sealed = Seal::Sealed {
                run,
                pack,
                offset: 0,
                len: bytes.len() as u64,
            };
            let log = snapshot::seal_log_bytes(&[sealed]);
            std::fs::write(dir.0.join(snapshot::SEAL_LOG_FILE), log).unwrap();
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
    let per_field: Vec<String> = REGIONS
        .iter()
        .zip(&mutated)
        .flat_map(|((region, fields), counts)| {
            fields
                .iter()
                .zip(counts)
                .map(move |(f, n)| format!("{region}.{f} {n}"))
        })
        .collect();
    assert!(
        mutated.iter().flatten().all(|&n| n > 0),
        "a record field never mutated: {per_field:?}"
    );
    println!(
        "segment mutations: seed {SEED:#x}, {cases} cases over a {}-byte blob ({refused} \
         refused, {accepted} read totally, {framed} arenas read unvalidated behind sound \
         framing, {engines} engine opens; record fields mutated: {}) in {:.2?}",
        blob.len(),
        per_field.join(", "),
        started.elapsed()
    );
}

// ---------------------------------------------------------------------------
// Seal logs
// ---------------------------------------------------------------------------

/// Runs the source spill directory's first lifetime persists into one
/// pack: more than the 64 a pack needs not to be underfull, so the pack
/// stays full when a mutation takes a few runs out of it. A second
/// lifetime persists one run into a pack of its own, named by the log's
/// last record. No compaction has anything to gain, so a pack that
/// disappears is one the sweep took because no record it reads names it.
const SEALED_RUNS: usize = 70;

/// Where each field of a seal record's body lies: the kind byte, then a
/// varint each — run, pack, offset, length (run alone for an eviction).
fn seal_fields(body: &[u8]) -> Vec<(usize, usize, Field)> {
    let mut fields = vec![(0, 1, Field::Byte)];
    let mut at = 1;
    while at < body.len() {
        let (_, width) = get_varint(&body[at..]);
        fields.push((at, width, Field::Varint));
        at += width;
    }
    fields
}

/// The run a frame's body names, when its length and run field read.
fn named_run(frame: &[u8]) -> Option<RunId> {
    let (len, width) = wal::get_varint(frame)?;
    let body = frame.get(width + 4..(width + 4).checked_add(usize::try_from(len).ok()?)?)?;
    Some(RunId(wal::get_varint(body.get(1..)?)?.0))
}

/// One change to a seal log (its header, then `frames`, each the run it
/// names), and which runs it touched: the log's bytes after the change,
/// whether the change hit the header, and the runs of the frame it
/// changed or cut, and of any frame it wrote — never a frame it left
/// whole, wherever a changed length claims to end.
fn mutate_seal_log(draw: &mut Draw, frames: &[(&[u8], RunId)]) -> (Vec<u8>, bool, Vec<RunId>) {
    let mut bytes = snapshot::SEAL_LOG_HEADER.to_vec();
    if draw.below(8) == 0 {
        // The header: a byte changed, cut out or put in.
        let at = draw.below(bytes.len());
        match draw.below(3) {
            0 => bytes[at] ^= 1 + draw.below(255) as u8,
            1 => drop(bytes.remove(at)),
            _ => bytes.insert(at, draw.next() as u8),
        }
        frames.iter().for_each(|(f, _)| bytes.extend_from_slice(f));
        return (bytes, true, Vec::new());
    }
    let k = draw.below(frames.len());
    let (whole, run) = frames[k];
    let width = get_varint(whole).1;
    let body = &whole[width + 4..];
    // What goes where frame `k` was (`None`: it stays), and a frame put
    // in before it.
    let (mut replaced, mut inserted) = (None, None);
    match draw.below(6) {
        // One field of the body, re-sealed.
        0 | 1 => {
            let fields = seal_fields(body);
            let (at, w, field) = fields[draw.below(fields.len())];
            let new = mutate_field(draw, &body[at..at + w], field);
            replaced = Some(frame(&[&body[..at], &new[..], &body[at + w..]].concat()));
        }
        // The length prefix: outside the CRC, so no re-seal.
        2 => {
            let (len, _) = get_varint(whole);
            let prefix = mutate_field(draw, &whole[..width], Field::Varint);
            let prefix = if prefix.is_empty() {
                vec![draw.value(len) as u8]
            } else {
                prefix
            };
            replaced = Some([&prefix[..], &whole[width..]].concat());
        }
        // The frame cut out.
        3 => replaced = Some(Vec::new()),
        // A frame put in: another frame again, or a new record.
        4 => {
            inserted = Some(match draw.below(3) {
                0 => frames[draw.below(frames.len())].0.to_vec(),
                1 => {
                    let mut out = Vec::new();
                    let of = frames[draw.below(frames.len())].1;
                    let run = RunId(draw.value(of.0));
                    Seal::Evicted { run }.encode_into(&mut out);
                    out
                }
                _ => {
                    let mut out = Vec::new();
                    Seal::Sealed {
                        run: frames[draw.below(frames.len())].1,
                        pack: draw.value(0),
                        offset: draw.value(0),
                        len: draw.value(600),
                    }
                    .encode_into(&mut out);
                    out
                }
            })
        }
        // One to three bits flipped, no re-seal.
        _ => {
            let mut flipped = whole.to_vec();
            for _ in 0..1 + draw.below(3) {
                let bit = draw.below(flipped.len() * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            replaced = Some(flipped);
        }
    }
    // Frame `k` stays whole when a frame is put in before it; a frame
    // the change wrote touches the run it names.
    let mut touched = if inserted.is_some() {
        vec![]
    } else {
        vec![run]
    };
    for (i, (f, _)) in frames.iter().enumerate() {
        if i == k {
            for new in inserted.iter().chain(&replaced) {
                touched.extend(named_run(new));
                bytes.extend_from_slice(new);
            }
            if replaced.is_some() {
                continue;
            }
        }
        bytes.extend_from_slice(f);
    }
    (bytes, false, touched)
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

/// Mutate the seal log of an engine-written spill directory — seventy
/// runs sealed in one pack, one of them evicted since, then one run in a
/// pack of its own, over two lifetimes — one thing at a time: a header
/// byte, one field of one record (re-sealed), a frame's length, a frame
/// cut or added, or bits flipped. Every case builds
/// without a panic and does one of two things. It is refused: the
/// engine registers nothing, refuses a `compact()`, and leaves the
/// directory byte for byte. Or it registers every run whose records it
/// left whole — the evicted run staying evicted — each answering sampled
/// `reach` pairs like naive replay, a run it touched registering only to
/// answer the same; and then a `compact()` leaves in place every pack
/// that holds a run the case did not touch, and a restart registers the
/// same runs. (A pack whose every run the case touched — the lone run's
/// record cut out, say — is, on disk, a pack a crash left before its
/// record landed, and the sweep takes it.)
#[test]
fn mutated_seal_logs_lose_no_run_they_did_not_touch() {
    let cases = cases();
    let started = Instant::now();
    let source = TempDir::new("seal-source");
    let spec = wf_spec::corpus::running_example();
    let build = |dir: &TempDir| -> WfEngine {
        WfEngine::builder()
            .spec(spec.clone())
            .spill_dir(&dir.0)
            .build()
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut runs = Vec::new();
    let mut evicted = None;
    for lifetime in [SEALED_RUNS, 1] {
        let engine = build(&source);
        for _ in 0..lifetime {
            let gen = RunGenerator::new(&spec)
                .target_size(10)
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
        if evicted.is_none() {
            let run = runs[SEALED_RUNS / 2].0;
            engine.evict_run(run).unwrap();
            evicted = Some(run);
        }
    }
    let evicted = evicted.unwrap();
    let original = dir_bytes(&source.0);
    let log = original[snapshot::SEAL_LOG_FILE].clone();
    // Each pack with the runs whose blobs it holds.
    let mut packs: std::collections::BTreeMap<String, Vec<RunId>> = Default::default();
    for seal in snapshot::read_seal_log(&source.0).unwrap().records {
        if let Seal::Sealed { run, pack, .. } = seal {
            let name = snapshot::pack_file_name(pack);
            packs.entry(name).or_default().push(run);
        }
    }
    let held: Vec<usize> = packs.values().map(Vec::len).collect();
    assert_eq!(held, [SEALED_RUNS, 1], "{packs:?}");
    // Each record's frame, as the engine wrote it (the WAL's codec).
    let frames: Vec<(&[u8], RunId)> = split_shard(&log)
        .into_iter()
        .map(|(f, _)| (f, named_run(f).unwrap()))
        .collect();
    assert_eq!(frames.len(), SEALED_RUNS + 2);
    let mut draw = Draw::new(SEED, u64::from_le_bytes(*b"seal v1\0"));
    let (mut refused, mut whole_runs, mut touched_lost, mut cut, mut swept) = (0, 0, 0, 0, 0);
    for case in 0..cases {
        let (mutated, header, touched) = mutate_seal_log(&mut draw, &frames);
        let dir = TempDir::new("seal");
        for (name, bytes) in &original {
            let bytes = if *name == snapshot::SEAL_LOG_FILE {
                &mutated
            } else {
                bytes
            };
            std::fs::write(dir.0.join(name), bytes).unwrap();
        }
        let before = dir_bytes(&dir.0);
        let engine = build(&dir);
        let why = || format!("case {case}: {:02x?}", &mutated);
        if engine.health() != Health::Healthy {
            refused += 1;
            assert_eq!(engine.stats().runs_persisted, 0, "{}", why());
            assert!(
                matches!(engine.compact(), Err(ServiceError::SpillUnavailable(_))),
                "{}",
                why()
            );
            drop(engine);
            assert!(
                dir_bytes(&dir.0) == before,
                "{}: the directory changed",
                why()
            );
            continue;
        }
        assert!(!header, "{}: a changed header was read", why());
        cut += usize::from(std::fs::read(dir.0.join(snapshot::SEAL_LOG_FILE)).unwrap() != mutated);
        for (run, probes) in &runs {
            let registered = engine.run_tier(*run).is_ok();
            if touched.contains(run) {
                touched_lost += usize::from(!registered);
            } else {
                assert_eq!(registered, *run != evicted, "{}: {run}", why());
                whole_runs += usize::from(registered);
            }
            // A registered run answers from its own blob; a few untouched
            // ones are sampled, every touched one is.
            if registered && (touched.contains(run) || draw.below(16) == 0) {
                for _ in 0..4 {
                    let (u, v, want) = probes[draw.below(probes.len())];
                    assert_eq!(engine.reach(*run, u, v), Ok(Some(want)), "{}: {run}", why());
                }
            }
        }
        let registered = engine.query().run_ids();
        engine.compact().unwrap();
        drop(engine);
        let after = dir_bytes(&dir.0);
        for (pack, held) in &packs {
            if held.iter().any(|run| !touched.contains(run)) {
                assert!(after.contains_key(pack), "{}: {pack} is gone", why());
            } else {
                swept += usize::from(!after.contains_key(pack));
            }
        }
        assert_eq!(build(&dir).query().run_ids(), registered, "{}", why());
    }
    assert!(refused > 0 && whole_runs > 0 && touched_lost > 0);
    println!(
        "seal log mutations: seed {SEED:#x}, {cases} cases over {} records ({refused} refused \
         and left byte for byte, {cut} cut back to a whole record, {whole_runs} untouched \
         runs registered, {touched_lost} touched runs not registered, {swept} packs of \
         touched runs alone swept) in {:.2?}",
        frames.len(),
        started.elapsed()
    );
}
