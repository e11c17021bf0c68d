//! Self-delimiting binary encoding of one DRL label — the standalone
//! label wire form — and of one journaled event.
//!
//! [`DrlLabel::bit_len`] reports the paper's *accounting* size (proof of
//! Theorem 3). This module provides an actual wire format so a label can
//! be shipped or stored on its own: Elias-gamma for the variable
//! quantities (entry count, indexes, graph ids), two bits per node kind,
//! fixed width for skeleton vertex indexes. The encoded size slightly
//! exceeds the accounting size (self-delimiting gamma overhead plus the
//! graph ids, which the accounting charges to the index prefix), and a
//! round-trip is exact.
//!
//! A label is its context's prefix plus one own entry (Algorithm 3's
//! single append), and the encoding keeps that split: a **prefix
//! record** is the entry count plus one (γ), then the entries; a
//! standalone label ([`encode_label`]) is its prefix record followed by
//! its own entry. [`EntryCursor`] is the one reader of it: a bit cursor
//! over a prefix record that yields entries without allocating
//! ([`decode_label`] is that cursor collected, then the own entry).
//!
//! A completed run's labels are not kept in this form: its label arena
//! ([`crate::arena`]) keeps each prefix entry once, as a fixed-width
//! record of a context trie, and reads it without decoding.
//!
//! **What decodes.** An entry decodes only if an [`EntryWord`] holds it
//! — index, graph and skeleton vertex within the word's widths — so
//! every label that reads is one a [`DrlLabel`] can carry. No writer
//! emits wider entries; the rule only narrows what corrupted bytes can
//! pass for.

use crate::entry::{fits_word, Entry, EntryWord, NodeKind};
use crate::label::DrlLabel;
use std::sync::Arc;
use wf_graph::{NameId, VertexId};
use wf_spec::GraphId;

/// Append-only bit buffer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    len: usize,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write one bit.
    pub fn push_bit(&mut self, bit: bool) {
        if self.len.is_multiple_of(8) {
            self.bytes.push(0);
        }
        if bit {
            *self.bytes.last_mut().unwrap() |= 1 << (self.len % 8);
        }
        self.len += 1;
    }

    /// Write the low `width` (≤ 64) bits of `value`, LSB first: the rest
    /// of the last byte, then whole bytes (an arena's records are written
    /// with it).
    pub fn push_bits(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "a field of at most 64 bits");
        let mut value = value & u64::MAX.checked_shr(64 - width as u32).unwrap_or(0);
        let mut width = width;
        let used = self.len % 8;
        if used > 0 && width > 0 {
            *self.bytes.last_mut().expect("a byte to write into") |= (value << used) as u8;
            let took = (8 - used).min(width);
            (value, width, self.len) = (value >> took, width - took, self.len + took);
        }
        self.bytes
            .extend_from_slice(&value.to_le_bytes()[..width.div_ceil(8)]);
        self.len += width;
    }

    /// Elias-gamma code for `value ≥ 1`: `⌊log₂ v⌋` zeros, then the
    /// binary digits of `v` from the MSB.
    pub fn push_gamma(&mut self, value: u64) {
        assert!(value >= 1, "gamma encodes positive integers");
        let bits = 64 - value.leading_zeros() as usize;
        for _ in 0..bits - 1 {
            self.push_bit(false);
        }
        for i in (0..bits).rev() {
            self.push_bit((value >> i) & 1 == 1);
        }
    }

    /// Finish, returning the byte buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Bit-level reader over an encoded buffer.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Read one bit; `None` past the end.
    pub fn read_bit(&mut self) -> Option<bool> {
        let byte = self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Read `width` bits, LSB first; `None` for a width no `u64` holds
    /// (the width can come from a segment header) or past the end. One
    /// little-endian word load, a shift and a mask; a field that spans
    /// into the next word takes one more load.
    #[inline]
    pub fn read_bits(&mut self, width: usize) -> Option<u64> {
        if width > 64 || self.pos + width > self.bytes.len() * 8 {
            return None;
        }
        let (at, shift) = (self.pos / 8, self.pos % 8);
        let mut bits = load_le(self.bytes, at) >> shift;
        if shift + width > 64 {
            bits |= load_le(self.bytes, at + 8) << (64 - shift);
        }
        self.pos += width;
        Some(bits & u64::MAX.checked_shr(64 - width as u32).unwrap_or(0))
    }

    /// Read one Elias-gamma value, a bit at a time. (Counting its zeros
    /// with `trailing_zeros` and reading its body as one field measured
    /// slower on the engine's labels: their codes are a few bits long,
    /// and a branch per bit the processor predicts beats a chain of
    /// shifts that waits on each load.)
    pub fn read_gamma(&mut self) -> Option<u64> {
        let mut zeros = 0usize;
        loop {
            if self.read_bit()? {
                break;
            }
            zeros += 1;
            if zeros > 63 {
                return None;
            }
        }
        let mut v = 1u64;
        for _ in 0..zeros {
            v = (v << 1) | self.read_bit()? as u64;
        }
        Some(v)
    }
}

/// The eight bytes of `bytes` from `at` as a little-endian word, the
/// bytes past the end read as zeros. Near the end of a buffer of eight
/// bytes or more that is its last word shifted down — a label's record
/// is about ten bytes, so most of its reads land there.
#[inline]
pub(crate) fn load_le(bytes: &[u8], at: usize) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    if let Some(b) = bytes.get(at..at + 8) {
        return word(b);
    }
    match bytes.len().checked_sub(8) {
        Some(last) if at < bytes.len() => word(&bytes[last..]) >> (8 * (at - last)),
        _ => (bytes.get(at..).unwrap_or_default().iter().rev())
            .fold(0, |w, &b| w << 8 | u64::from(b)),
    }
}

/// LEB128: seven bits a byte, low group first, the top bit set on every
/// byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Take one varint off the front of `bytes`. `None` when the bytes end
/// inside it, when it does not fit a `u64`, or when it is not the
/// minimal encoding of its value (a trailing zero byte).
fn take_varint(bytes: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for (i, &b) in bytes.iter().enumerate().take(10) {
        let bits = u64::from(b & 0x7f);
        if i == 9 && bits > 1 {
            return None;
        }
        v |= bits << (7 * i);
        if b & 0x80 == 0 {
            *bytes = &bytes[i + 1..];
            return (b != 0 || i == 0).then_some(v);
        }
    }
    None
}

/// **Event wire form**: one [`ExecEvent`](wf_run::ExecEvent) as the
/// write-ahead log journals it before it is applied. Layout, all LEB128
/// varints: `vertex · name · origin.0 · origin.1 · preds.len`, then per
/// predecessor the zigzag of `vertex − pred` — an event's predecessors
/// were inserted shortly before it, so the difference is small where the
/// id is not. Measured on the benchmark's `durable-ingest` workload
/// against the fixed-width form this replaced (`20 + 4·preds` bytes):
/// 53.4 → 20.5 bytes per journaled event, frame included (16.5 since the
/// log's 4-byte CRC-32C replaced its 8-byte FNV-1a), and the append got
/// faster, not slower — there are fewer bytes to checksum and copy than
/// there are shifts to pay for.
pub fn write_event(out: &mut Vec<u8>, ev: &wf_run::ExecEvent) {
    for field in [ev.vertex.0, ev.name.0, ev.origin.0 .0, ev.origin.1 .0] {
        put_varint(out, u64::from(field));
    }
    put_varint(out, ev.preds.len() as u64);
    for p in &ev.preds {
        let delta = i64::from(ev.vertex.0) - i64::from(p.0);
        put_varint(out, ((delta << 1) ^ (delta >> 63)) as u64);
    }
}

/// Parse one event written by [`write_event`]. `None` (the caller treats
/// it as corruption) unless `bytes` is exactly one event: every id must
/// fit a `u32`, the predecessor count is held against the bytes that are
/// left before anything is sized from it, and no byte may remain.
pub fn read_event(mut bytes: &[u8]) -> Option<wf_run::ExecEvent> {
    let at = &mut bytes;
    let mut id = || u32::try_from(take_varint(at)?).ok();
    let (vertex, name, graph, origin) = (id()?, id()?, id()?, id()?);
    let n = usize::try_from(take_varint(at)?).ok()?;
    // A predecessor takes at least a byte.
    if n > at.len() {
        return None;
    }
    let mut preds = Vec::with_capacity(n);
    for _ in 0..n {
        let zigzag = take_varint(at)?;
        let delta = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
        let pred = i64::from(vertex).checked_sub(delta)?;
        preds.push(VertexId(u32::try_from(pred).ok()?));
    }
    at.is_empty().then_some(wf_run::ExecEvent {
        vertex: VertexId(vertex),
        name: NameId(name),
        preds,
        origin: (GraphId(graph), VertexId(origin)),
    })
}

pub(crate) fn kind_code(kind: NodeKind) -> u64 {
    match kind {
        NodeKind::N => 0,
        NodeKind::L => 1,
        NodeKind::F => 2,
        NodeKind::R => 3,
    }
}

pub(crate) fn code_kind(code: u64) -> Option<NodeKind> {
    Some(match code {
        0 => NodeKind::N,
        1 => NodeKind::L,
        2 => NodeKind::F,
        3 => NodeKind::R,
        _ => return None,
    })
}

/// Encode a label: its prefix record, then its own entry — so the first
/// γ code is the label's depth. `skl_bits` must match the labeler's
/// (`⌈log₂ nG⌉`, see [`crate::SpecTables::skl_bits`]).
pub fn encode_label(label: &DrlLabel, skl_bits: usize) -> Vec<u8> {
    let mut w = BitWriter::new();
    let (prefix, last) = label.parts();
    w.push_gamma(prefix.len() as u64 + 1);
    for word in prefix.iter().chain([&last]) {
        write_entry(&mut w, &word.unpack(), skl_bits);
    }
    w.into_bytes()
}

fn write_entry(w: &mut BitWriter, e: &Entry, skl_bits: usize) {
    w.push_gamma(e.index as u64 + 1);
    w.push_bits(kind_code(e.kind), 2);
    if e.kind == NodeKind::N {
        let (g, v) = e.skl.expect("N entries carry skeleton pointers");
        w.push_gamma(g.0 as u64 + 1);
        w.push_bits(v.0 as u64, skl_bits);
        match e.rec {
            None => w.push_bit(false),
            Some((r1, r2)) => {
                w.push_bit(true);
                w.push_bit(r1);
                w.push_bit(r2);
            }
        }
    }
}

/// Decode a label previously written by [`encode_label`] with the same
/// `skl_bits`. Returns `None` on malformed input. This is an
/// [`EntryCursor`] collected, then the own entry read after it — the
/// workspace has one entry decoder.
pub fn decode_label(bytes: &[u8], skl_bits: usize) -> Option<DrlLabel> {
    let (prefix, mut rest) = EntryCursor::new(bytes, skl_bits)?.collect_prefix()?;
    let last = EntryWord::pack(&read_entry(&mut rest, skl_bits)?)?;
    Some(DrlLabel::from_parts(prefix, last, None))
}

/// **The one entry decoder**: a bit cursor over one prefix record that
/// yields its entries root first, allocating nothing. An item of `None`
/// means the bytes stopped decoding at that entry; the cursor is
/// exhausted afterwards, so a consumer that stops at the first `None`
/// never acts on a half-read label.
#[derive(Debug, Clone)]
pub struct EntryCursor<'a> {
    r: BitReader<'a>,
    /// Entries still to come (0 once decoding has failed).
    remaining: usize,
    skl_bits: usize,
}

impl<'a> EntryCursor<'a> {
    /// Start reading the prefix record at the front of `bytes`; `None`
    /// when its entry count does not decode or promises more entries than
    /// `bytes` can hold.
    #[inline]
    pub fn new(bytes: &'a [u8], skl_bits: usize) -> Option<Self> {
        let mut r = BitReader::new(bytes);
        let count = r.read_gamma()? - 1;
        // An entry costs at least 3 bits (a 1-bit index, 2 kind bits): a
        // count the buffer cannot hold is rejected before anything is
        // sized from it.
        (count <= bytes.len() as u64 * 8 / 3).then_some(Self {
            r,
            remaining: count as usize,
            skl_bits,
        })
    }

    /// Every entry still to come, packed straight into one array (the
    /// record knows its length), and the reader right after them; `None`
    /// when one of them does not decode.
    fn collect_prefix(mut self) -> Option<(Arc<[EntryWord]>, BitReader<'a>)> {
        let mut whole = true;
        let unread = EntryWord::from_bits(0);
        let prefix = (0..self.remaining)
            .map(|_| {
                let word = self.next().flatten().and_then(|e| EntryWord::pack(&e));
                whole &= word.is_some();
                word.unwrap_or(unread)
            })
            .collect();
        whole.then_some((prefix, self.r))
    }
}

impl Iterator for EntryCursor<'_> {
    type Item = Option<Entry>;

    #[inline]
    fn next(&mut self) -> Option<Option<Entry>> {
        if self.remaining == 0 {
            return None;
        }
        let entry = read_entry(&mut self.r, self.skl_bits);
        self.remaining = if entry.is_some() {
            self.remaining - 1
        } else {
            0
        };
        Some(entry)
    }
}

/// Read one entry as [`encode_label`] wrote it; `None` past the end, on
/// a bad code, or for an entry no [`EntryWord`] holds. Forced inline:
/// left to the heuristic it stays a call that returns the entry through
/// memory, which costs a third of a label's decode time.
#[inline(always)]
fn read_entry(r: &mut BitReader<'_>, skl_bits: usize) -> Option<Entry> {
    let index = r.read_gamma()? - 1;
    let kind = code_kind(r.read_bits(2)?)?;
    let (skl, rec) = if kind == NodeKind::N {
        let g = r.read_gamma()? - 1;
        let v = r.read_bits(skl_bits)?;
        if !fits_word(index, g, v) {
            return None;
        }
        let (g, v) = (GraphId(g as u32), VertexId(v as u32));
        let rec = if r.read_bit()? {
            Some((r.read_bit()?, r.read_bit()?))
        } else {
            None
        };
        (Some((g, v)), rec)
    } else if fits_word(index, 0, 0) {
        (None, None)
    } else {
        return None;
    };
    Some(Entry {
        index: index as u32,
        kind,
        skl,
        rec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_run::RunGenerator;
    use wf_skeleton::{SpecLabeling, TclSpecLabels};

    #[test]
    fn bit_writer_reader_roundtrip() {
        let mut w = BitWriter::new();
        w.push_bits(0b1011, 4);
        w.push_gamma(1);
        w.push_gamma(17);
        w.push_bits(0x3FF, 10);
        w.push_gamma(1000);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4), Some(0b1011));
        assert_eq!(r.read_gamma(), Some(1));
        assert_eq!(r.read_gamma(), Some(17));
        assert_eq!(r.read_bits(10), Some(0x3FF));
        assert_eq!(r.read_gamma(), Some(1000));
        // Only zero padding remains within the final byte, then EOF.
        while let Some(bit) = r.read_bit() {
            assert!(!bit, "padding bits are zero");
        }
    }

    /// A field written at once leaves the bytes that writing it a bit at
    /// a time does, from every offset within a byte, for every width up
    /// to 64 — the value's bits above the width ignored.
    #[test]
    fn push_bits_matches_the_bit_loop() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(5);
        for lead in 0..8 {
            for width in 0..=64 {
                let value = rng.gen_range(0..u64::MAX);
                let (mut at_once, mut bit_by_bit) = (BitWriter::new(), BitWriter::new());
                for w in [&mut at_once, &mut bit_by_bit] {
                    for _ in 0..lead {
                        w.push_bit(true);
                    }
                }
                at_once.push_bits(value, width);
                for i in 0..width {
                    bit_by_bit.push_bit(value >> i & 1 == 1);
                }
                assert_eq!(at_once.len(), bit_by_bit.len(), "{lead} + {width}");
                assert_eq!(
                    at_once.into_bytes(),
                    bit_by_bit.into_bytes(),
                    "{lead} + {width}"
                );
            }
        }
    }

    /// A skeleton-pointer width no `u64` holds — it can only come from a
    /// damaged header — fails the decode instead of overflowing a shift.
    #[test]
    fn a_width_over_64_bits_does_not_decode() {
        let mut w = BitWriter::new();
        w.push_gamma(1); // depth: one entry
        w.push_gamma(1); // index 0
        w.push_bits(0, 2); // kind N: a skeleton pointer follows
        w.push_gamma(1); // graph 0
        w.push_bits(5, 64); // vertex 5, at width 64
        w.push_bits(0, 64);
        let bytes = w.into_bytes();
        assert!(decode_label(&bytes, 64).is_some());
        assert_eq!(decode_label(&bytes, 65), None);
        assert_eq!(BitReader::new(&bytes).read_bits(65), None);
    }

    /// An entry no entry word holds does not decode, whichever field is
    /// too wide — the record, a label of it and a cursor over it alike;
    /// the same bytes one value narrower do.
    #[test]
    fn an_entry_wider_than_a_word_does_not_decode() {
        let (index, graph, vertex) = (
            u64::from(EntryWord::MAX_INDEX),
            EntryWord::MAX_GRAPHS as u64 - 1,
            EntryWord::MAX_SLOTS as u64 - 1,
        );
        let skl_bits = 20;
        let bytes = |(index, graph, vertex): (u64, u64, u64), kind: NodeKind| {
            let mut w = BitWriter::new();
            w.push_gamma(2); // one prefix entry
            w.push_gamma(index + 1);
            w.push_bits(kind_code(kind), 2);
            if kind == NodeKind::N {
                w.push_gamma(graph + 1);
                w.push_bits(vertex, skl_bits);
                w.push_bit(false);
            }
            write_entry(&mut w, &Entry::special(1, NodeKind::F), skl_bits);
            w.into_bytes()
        };
        for kind in [NodeKind::N, NodeKind::L] {
            let edge = bytes((index, graph, vertex), kind);
            let label = decode_label(&edge, skl_bits).expect("the widest entry a word holds");
            assert_eq!(label.entry(0).unwrap().index, EntryWord::MAX_INDEX);
            assert!(EntryCursor::new(&edge, skl_bits)
                .unwrap()
                .all(|e| e.is_some()));
        }
        for (past, kind) in [
            ((index + 1, graph, vertex), NodeKind::N),
            ((index + 1, 0, 0), NodeKind::R),
            ((index, graph + 1, vertex), NodeKind::N),
            ((index, graph, vertex + 1), NodeKind::N),
        ] {
            let past = bytes(past, kind);
            assert_eq!(decode_label(&past, skl_bits), None);
            let cursor = EntryCursor::new(&past, skl_bits).unwrap();
            assert_eq!(cursor.collect::<Vec<_>>(), [None]);
        }
    }

    /// A word-at-a-time read answers exactly as reading one bit at a
    /// time does — value and `None` alike — from every bit position of
    /// short buffers, fields that span two words and run past the end
    /// among them.
    #[test]
    fn word_reads_match_the_bit_loop() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(157);
        for len in 0..20 {
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256) as u8).collect();
            for start in 0..=len * 8 {
                let at = |pos| BitReader { bytes: &bytes, pos };
                for width in 0..=65 {
                    let mut bit = at(start);
                    let by_bits = (width <= 64)
                        .then(|| {
                            (0..width)
                                .try_fold(0u64, |v, i| Some(v | u64::from(bit.read_bit()?) << i))
                        })
                        .flatten();
                    let mut word = at(start);
                    assert_eq!(
                        word.read_bits(width),
                        by_bits,
                        "{bytes:?} @{start} w{width}"
                    );
                    if by_bits.is_some() {
                        assert_eq!(word.pos, bit.pos);
                    }
                }
            }
        }
    }

    #[test]
    fn gamma_is_self_delimiting_for_all_small_values() {
        for v in 1u64..500 {
            let mut w = BitWriter::new();
            w.push_gamma(v);
            w.push_gamma(v + 1);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_gamma(), Some(v));
            assert_eq!(r.read_gamma(), Some(v + 1));
        }
    }

    #[test]
    fn every_label_of_a_run_roundtrips() {
        let spec = wf_spec::corpus::running_example();
        let skeleton = TclSpecLabels::build(&spec);
        let mut rng = StdRng::seed_from_u64(77);
        let run = RunGenerator::new(&spec)
            .target_size(300)
            .generate_run(&mut rng);
        let mut labeler = crate::DerivationLabeler::new(&spec, &skeleton);
        for step in run.derivation.steps() {
            labeler.apply(step).unwrap();
        }
        let skl_bits = labeler.skl_bits();
        let mut total_encoded = 0usize;
        let mut total_accounted = 0usize;
        for v in run.graph.vertices() {
            let label = labeler.label(v).unwrap();
            let bytes = encode_label(label, skl_bits);
            let back = decode_label(&bytes, skl_bits).unwrap();
            assert_eq!(&back, label, "{v:?}");
            total_encoded += bytes.len() * 8;
            total_accounted += label.bit_len(skl_bits);
        }
        // The wire format stays within ~2.5× of the accounting size
        // (gamma overhead + graph ids + byte padding).
        assert!(total_encoded < total_accounted * 5 / 2);
    }

    #[test]
    fn event_wire_roundtrip() {
        let ev = wf_run::ExecEvent {
            vertex: VertexId(42),
            name: NameId(3),
            preds: vec![VertexId(0), VertexId(7), VertexId(41)],
            origin: (GraphId(2), VertexId(5)),
        };
        let mut bytes = Vec::new();
        write_event(&mut bytes, &ev);
        // vertex, name, origin, three preds as zigzag(42 − pred).
        assert_eq!(bytes, [42, 3, 2, 5, 3, 84, 70, 2]);
        assert_eq!(read_event(&bytes).unwrap(), ev);
        // A predecessor with the larger id: a negative difference, and
        // ids that take more than one byte.
        let back = wf_run::ExecEvent {
            vertex: VertexId(300),
            name: NameId(128),
            preds: vec![VertexId(301), VertexId(1000)],
            origin: (GraphId(0), VertexId(16_384)),
        };
        let mut b1 = Vec::new();
        write_event(&mut b1, &back);
        assert_eq!(
            b1,
            [0xac, 0x02, 0x80, 0x01, 0x00, 0x80, 0x80, 0x01, 2, 1, 0xf7, 0x0a]
        );
        assert_eq!(read_event(&b1).unwrap(), back);
        // No-preds event.
        let ev0 = wf_run::ExecEvent {
            vertex: VertexId(0),
            name: NameId(0),
            preds: vec![],
            origin: (GraphId(0), VertexId(0)),
        };
        let mut b0 = Vec::new();
        write_event(&mut b0, &ev0);
        assert_eq!(b0, [0; 5]);
        assert_eq!(read_event(&b0).unwrap(), ev0);
        // Truncated and over-long buffers are rejected.
        assert!(read_event(&bytes[..bytes.len() - 1]).is_none());
        let mut long = bytes.clone();
        long.push(0);
        assert!(read_event(&long).is_none());
        assert!(read_event(&[]).is_none());
        // So are an id past `u32`, a predecessor below vertex 0, and a
        // varint that is not the short form of its value.
        assert!(read_event(&[0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0, 0]).is_none());
        assert!(read_event(&[5, 0, 0, 0, 1, 12]).is_none());
        assert!(read_event(&[0x80, 0x00, 0, 0, 0, 0]).is_none());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_label(&[], 4).is_none());
        assert!(decode_label(&[0x00, 0x00], 4).is_none());
        // A depth prefix promising more entries than the buffer holds.
        let mut w = BitWriter::new();
        w.push_gamma(9);
        assert!(decode_label(&w.into_bytes(), 4).is_none());
        // A prefix claiming 999 999 entries over a buffer that could hold
        // a dozen: rejected from the length alone — nothing is sized from
        // the claim (`tests/alloc_free_reads.rs` counts the allocation).
        let mut w = BitWriter::new();
        w.push_gamma(999_999);
        let lying = w.into_bytes();
        assert!(EntryCursor::new(&lying, 4).is_none());
        assert!(decode_label(&lying, 4).is_none());
    }

    /// The cursor over a label's bytes yields its prefix entries, and the
    /// own entry follows them; a label cut mid-entry yields its intact
    /// prefix, one `None`, and then ends.
    #[test]
    fn cursors_agree_and_stop_at_the_cut() {
        let label = DrlLabel::new(vec![
            Entry {
                index: 0,
                kind: NodeKind::N,
                skl: Some((GraphId(0), VertexId(1))),
                rec: None,
            },
            Entry::special(1, NodeKind::R),
            Entry {
                index: 700,
                kind: NodeKind::N,
                skl: Some((GraphId(3), VertexId(9))),
                rec: Some((true, false)),
            },
        ]);
        let bytes = encode_label(&label, 5);
        let cursor = EntryCursor::new(&bytes, 5).unwrap();
        assert!(cursor.eq(label.entries().take(2).map(Some)));
        assert_eq!(decode_label(&bytes, 5).as_ref(), Some(&label));
        assert_eq!(label.view().bit_len(5), Some(label.bit_len(5)));
        let cut: Vec<_> = EntryCursor::new(&bytes[..2], 5).unwrap().collect();
        assert_eq!(cut, [label.entry(0), None]);
        assert!(decode_label(&bytes[..2], 5).is_none());
    }

    /// A label kept as entry words answers exactly as its decoded
    /// entries do, over a whole generated run: the bit count read off the
    /// words is the entries' Theorem-3 sum, `encode_label`'s bytes are
    /// the entry code written from the decoded entries, and `reaches` on
    /// the words — the indexed walk, comparing masked index bits — is
    /// the graph's own reachability, for every pair.
    #[test]
    fn words_and_decoded_entries_agree_on_a_generated_run() {
        use wf_graph::reach::ReachOracle;
        let spec = wf_spec::corpus::running_example();
        let skeleton = TclSpecLabels::build(&spec);
        let run = RunGenerator::new(&spec)
            .target_size(300)
            .generate_run(&mut StdRng::seed_from_u64(71));
        let exec =
            wf_run::Execution::random(&run.graph, &run.origin, &mut StdRng::seed_from_u64(72));
        let mut labeler = crate::ExecutionLabeler::new(&spec, &skeleton).unwrap();
        for ev in exec.events() {
            labeler.insert(ev).unwrap();
        }
        let skl_bits = labeler.skl_bits();
        let labels: Vec<(VertexId, &DrlLabel)> = exec
            .events()
            .iter()
            .map(|ev| (ev.vertex, labeler.label(ev.vertex).unwrap()))
            .collect();
        assert!(labels.iter().any(|(_, l)| l.depth() >= 4), "a deep run");
        for (_, label) in &labels {
            let entries: Vec<Entry> = label.entries().collect();
            let bits: usize = entries.iter().map(|e| e.bit_len(skl_bits)).sum();
            assert_eq!(label.bit_len(skl_bits), bits);
            let (last, prefix) = entries.split_last().unwrap();
            let mut w = BitWriter::new();
            w.push_gamma(prefix.len() as u64 + 1);
            for e in prefix.iter().chain([last]) {
                write_entry(&mut w, e, skl_bits);
            }
            let bytes = w.into_bytes();
            assert_eq!(encode_label(label, skl_bits), bytes);
            assert_eq!(decode_label(&bytes, skl_bits).as_ref(), Some(*label));
        }
        let p = crate::DrlPredicate::new(&skeleton);
        let oracle = ReachOracle::new(&run.graph);
        for (u, a) in &labels {
            for (v, b) in &labels {
                let want = oracle.reaches(*u, *v);
                assert_eq!(p.reaches(a, b), want, "{u:?} ; {v:?}");
                assert_eq!(p.reaches_ref(a.view(), b.view()), Some(want));
            }
        }
    }
}
