//! Self-delimiting binary encoding of DRL labels, and the one reader of
//! it.
//!
//! [`DrlLabel::bit_len`] reports the paper's *accounting* size (proof of
//! Theorem 3). This module provides an actual wire format so labels can
//! be stored in a provenance database: Elias-gamma for the variable
//! quantities (entry count, indexes, graph ids), two bits per node kind,
//! fixed width for skeleton vertex indexes. The encoded size slightly
//! exceeds the accounting size (self-delimiting gamma overhead plus the
//! graph ids, which the accounting charges to the index prefix), and a
//! round-trip is exact.
//!
//! Reading has one path at each level. One label: [`EntryCursor`], a bit
//! cursor that yields entries without allocating ([`decode_label`] is
//! that cursor collected); callers hold a [`LabelRef`] — decoded entries
//! or encoded bytes — and never need to know which. One run:
//! [`ArenaRef`], a sorted slot table over a heap of encoded labels (the
//! slotted-page shape), borrowed from a [`LabelArena`] that owns its
//! buffers or from a mapped segment file; it holds the only directory
//! search and the only "label at offset" in the workspace.

use crate::entry::{Entry, NodeKind};
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

    /// Write the low `width` bits of `value`, LSB first.
    pub fn push_bits(&mut self, value: u64, width: usize) {
        for i in 0..width {
            self.push_bit((value >> i) & 1 == 1);
        }
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
    /// (the width can come from a segment header).
    pub fn read_bits(&mut self, width: usize) -> Option<u64> {
        if width > 64 {
            return None;
        }
        let mut v = 0u64;
        for i in 0..width {
            if self.read_bit()? {
                v |= 1 << i;
            }
        }
        Some(v)
    }

    /// Read one Elias-gamma value.
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
/// 53.4 → 20.5 bytes per journaled event, frame included, and the
/// append got faster, not slower — there are fewer bytes to checksum and
/// copy than there are shifts to pay for.
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

fn kind_code(kind: NodeKind) -> u64 {
    match kind {
        NodeKind::N => 0,
        NodeKind::L => 1,
        NodeKind::F => 2,
        NodeKind::R => 3,
    }
}

fn code_kind(code: u64) -> Option<NodeKind> {
    Some(match code {
        0 => NodeKind::N,
        1 => NodeKind::L,
        2 => NodeKind::F,
        3 => NodeKind::R,
        _ => return None,
    })
}

/// Encode a label. `skl_bits` must match the labeler's
/// (`⌈log₂ nG⌉`, see `LabelerCore::skl_bits`).
pub fn encode_label(label: &DrlLabel, skl_bits: usize) -> Vec<u8> {
    let mut w = BitWriter::new();
    write_label(&mut w, label.view(), skl_bits);
    w.into_bytes()
}

/// Write one borrowed label: its depth, then its entries root first. An
/// encoded label is re-encoded entry by entry, as far as it decodes — one
/// that stops decoding is written as a label that stops decoding there.
fn write_label(w: &mut BitWriter, label: LabelRef<'_>, skl_bits: usize) {
    match label {
        LabelRef::Entries { prefix, last } => {
            w.push_gamma(prefix.len() as u64 + 1);
            for e in prefix.iter().chain([last]) {
                write_entry(w, e, skl_bits);
            }
        }
        LabelRef::Encoded(bytes, encoded_with) => {
            let cursor = EntryCursor::new(bytes, encoded_with);
            w.push_gamma(cursor.remaining as u64);
            for e in cursor.map_while(|e| e) {
                write_entry(w, &e, skl_bits);
            }
        }
    }
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
/// [`EntryCursor`] collected — the workspace has one entry decoder.
pub fn decode_label(bytes: &[u8], skl_bits: usize) -> Option<DrlLabel> {
    LabelRef::Encoded(bytes, skl_bits).to_label()
}

/// A **borrowed label**: what every reader of a published label takes,
/// whichever tier holds it. Either a decoded label — its context's
/// shared prefix array and its own entry, lent together, whether from a
/// [`DrlLabel`] ([`DrlLabel::view`]) or from a table that keeps the
/// arrays apart from the entries (the engine's hot index) — or the
/// encoded bytes of one label inside an arena
/// (plus the `skl_bits` they were written with), which an
/// [`EntryCursor`] turns into the same [`Entry`] values one at a time —
/// so the predicate ([`crate::DrlPredicate::reaches_ref`]), the scans and
/// the arena builder never need an owned label on a read.
#[derive(Debug, Clone, Copy)]
pub enum LabelRef<'a> {
    /// A decoded label: every entry but the last, then the last.
    Entries {
        /// The context's shared prefix array, root first.
        prefix: &'a Arc<[Entry]>,
        /// The vertex's own entry.
        last: &'a Entry,
    },
    /// One encoded label starting at the first byte (labels are
    /// self-delimiting, so trailing bytes are ignored), and the
    /// skeleton-pointer width it was encoded with.
    Encoded(&'a [u8], usize),
}

impl LabelRef<'_> {
    /// An owned copy — for the few places that *keep* a label: a decoded
    /// label shares its prefix array (one reference count, no number:
    /// the copy is the keeper's, not the run's), encoded bytes are
    /// decoded into a private one. `None` when the bytes do not decode.
    pub fn to_label(self) -> Option<DrlLabel> {
        match self {
            LabelRef::Entries { prefix, last } => {
                Some(DrlLabel::from_parts(Arc::clone(prefix), *last, None))
            }
            LabelRef::Encoded(bytes, skl_bits) => {
                let mut cursor = EntryCursor::new(bytes, skl_bits);
                // All entries but the last, collected straight into the
                // prefix allocation (a mapped range knows its length). A
                // cursor that fails is exhausted, so the stand-ins for
                // what it could not read never leave this function: no
                // last entry follows them.
                let unread = Entry::special(0, NodeKind::L);
                let prefix = (1..cursor.remaining)
                    .map(|_| cursor.next().flatten().unwrap_or(unread))
                    .collect();
                Some(DrlLabel::from_parts(prefix, cursor.next()??, None))
            }
        }
    }

    /// Label length in bits, the Theorem-3 accounting of
    /// [`DrlLabel::bit_len`]; `None` when the bytes do not decode.
    pub fn bit_len(self, skl_bits: usize) -> Option<usize> {
        match self {
            LabelRef::Entries { prefix, last } => Some(
                prefix
                    .iter()
                    .chain([last])
                    .map(|e| e.bit_len(skl_bits))
                    .sum(),
            ),
            LabelRef::Encoded(bytes, encoded_with) => EntryCursor::new(bytes, encoded_with)
                .try_fold(0, |bits, e| Some(bits + e?.bit_len(skl_bits))),
        }
    }
}

/// **The one entry decoder**: a bit cursor over one encoded label that
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
    /// Start reading the label at the front of `bytes`.
    pub fn new(bytes: &'a [u8], skl_bits: usize) -> Self {
        let mut r = BitReader::new(bytes);
        let remaining = match r.read_gamma() {
            // An entry costs at least 3 bits (a 1-bit index, 2 kind
            // bits): a depth the buffer cannot hold is rejected before
            // anything is sized from it.
            Some(depth) if depth >= 1 && depth <= bytes.len() as u64 * 8 / 3 => depth as usize,
            // A malformed prefix reads as one entry that fails to
            // decode: nothing is left for it in an empty buffer.
            _ => {
                r = BitReader::new(&[]);
                1
            }
        };
        Self {
            r,
            remaining,
            skl_bits,
        }
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

/// Read one entry as [`encode_label`] wrote it. Forced inline: left to
/// the heuristic it stays a call that returns the entry through memory,
/// which costs a third of a label's decode time.
#[inline(always)]
fn read_entry(r: &mut BitReader<'_>, skl_bits: usize) -> Option<Entry> {
    let index = u32::try_from(r.read_gamma()? - 1).ok()?;
    let kind = code_kind(r.read_bits(2)?)?;
    let (skl, rec) = if kind == NodeKind::N {
        let g = GraphId(u32::try_from(r.read_gamma()? - 1).ok()?);
        let v = VertexId(r.read_bits(skl_bits)? as u32);
        let rec = if r.read_bit()? {
            Some((r.read_bit()?, r.read_bit()?))
        } else {
            None
        };
        (Some((g, v)), rec)
    } else {
        (None, None)
    };
    Some(Entry {
        index,
        kind,
        skl,
        rec,
    })
}

/// Directory entry of one vertex inside a label arena: where its encoded
/// label starts, and the module name it was published under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaSlot {
    /// The run vertex.
    pub vertex: VertexId,
    /// Its module name (carried so name-scoped scans work off the arena
    /// alone, without the run's writer state).
    pub name: NameId,
    /// Byte offset of the encoded label in the arena. Labels are
    /// self-delimiting, so no length is stored.
    pub offset: u32,
}

impl ArenaSlot {
    /// Size of one directory entry (three little-endian `u32`s), in
    /// memory and on disk. The slot wire format belongs to the arena,
    /// not to any particular snapshot container.
    pub const WIRE_BYTES: usize = 12;

    /// Append the slot's little-endian wire form.
    fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.vertex.0.to_le_bytes());
        out.extend_from_slice(&self.name.0.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
    }

    /// Parse one slot from exactly [`Self::WIRE_BYTES`] bytes.
    fn read_le(b: &[u8]) -> Self {
        let word = |i: usize| u32::from_le_bytes(b[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        Self {
            vertex: VertexId(word(0)),
            name: NameId(word(1)),
            offset: word(2),
        }
    }
}

/// **The arena reader**: a borrowed slot table (sorted by vertex id, in
/// the 12-byte wire layout) plus the byte heap of encoded labels it
/// points into — the slotted-page shape. Every label read of a completed
/// run goes through this one type, whether the bytes are owned by a
/// [`LabelArena`] or sit in a mapped segment file; it never allocates.
///
/// The view itself trusts nothing: an unsorted directory merely misses
/// lookups, an out-of-range offset or a label that no longer decodes
/// surfaces as a malformed [`LabelRef`] (a `None` from its cursor),
/// never a panic. [`Self::to_arena`] is the validating copy.
#[derive(Debug, Clone, Copy)]
pub struct ArenaRef<'a> {
    slots: &'a [u8],
    bytes: &'a [u8],
    skl_bits: usize,
}

impl<'a> ArenaRef<'a> {
    /// View `slots` (whole [`ArenaSlot::WIRE_BYTES`] records; a trailing
    /// partial record is ignored) over the label heap `bytes`.
    pub fn new(slots: &'a [u8], bytes: &'a [u8], skl_bits: usize) -> Self {
        let whole = slots.len() - slots.len() % ArenaSlot::WIRE_BYTES;
        Self {
            slots: &slots[..whole],
            bytes,
            skl_bits,
        }
    }

    /// Number of labeled vertices.
    pub fn len(&self) -> usize {
        self.slots.len() / ArenaSlot::WIRE_BYTES
    }

    /// True for the empty run.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The skeleton-pointer width the labels were encoded with.
    pub fn skl_bits(&self) -> usize {
        self.skl_bits
    }

    /// The `i`-th directory entry (`i < len`).
    fn slot(&self, i: usize) -> ArenaSlot {
        ArenaSlot::read_le(&self.slots[i * ArenaSlot::WIRE_BYTES..][..ArenaSlot::WIRE_BYTES])
    }

    /// The encoded label a directory entry points at (an empty buffer,
    /// which decodes to nothing, when the offset is out of range).
    fn bytes_at(&self, slot: &ArenaSlot) -> &'a [u8] {
        self.bytes.get(slot.offset as usize..).unwrap_or(&[])
    }

    /// Binary-search the directory for `v`.
    pub fn find(&self, v: VertexId) -> Option<ArenaSlot> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.slot(mid).vertex < v {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.len())
            .then(|| self.slot(lo))
            .filter(|s| s.vertex == v)
    }

    /// The module name `v` was published under.
    pub fn name(&self, v: VertexId) -> Option<NameId> {
        self.find(v).map(|s| s.name)
    }

    /// The label of `v`, if the run labeled it.
    pub fn label(&self, v: VertexId) -> Option<LabelRef<'a>> {
        self.find(v)
            .map(|s| LabelRef::Encoded(self.bytes_at(&s), self.skl_bits))
    }

    /// Every `(vertex, name, label)`, in directory order. Nothing is
    /// decoded until a label's cursor is walked.
    pub fn iter(self) -> impl Iterator<Item = (VertexId, NameId, LabelRef<'a>)> {
        (0..self.len()).map(move |i| {
            let slot = self.slot(i);
            let label = LabelRef::Encoded(self.bytes_at(&slot), self.skl_bits);
            (slot.vertex, slot.name, label)
        })
    }

    /// A validated owned copy (what loading a snapshot or re-heating a
    /// mapped run does). `None` unless the directory is strictly sorted
    /// with in-bounds, non-decreasing offsets **and every label
    /// decodes** — a truncated or corrupted buffer is rejected here, not
    /// at query time.
    pub fn to_arena(&self) -> Option<LabelArena> {
        let mut prev: Option<ArenaSlot> = None;
        for i in 0..self.len() {
            let slot = self.slot(i);
            if prev.is_some_and(|p| p.vertex >= slot.vertex || p.offset > slot.offset) {
                return None;
            }
            if !EntryCursor::new(self.bytes_at(&slot), self.skl_bits).all(|e| e.is_some()) {
                return None;
            }
            prev = Some(slot);
        }
        Some(LabelArena {
            slots: self.slots.into(),
            bytes: self.bytes.into(),
            skl_bits: self.skl_bits,
        })
    }
}

/// **Run-level framing**: every label of one completed run, encoded with
/// [`encode_label`] into a single contiguous byte arena plus a sorted
/// vertex directory.
///
/// This is the compact at-rest representation of a finished run — the
/// static end state of the paper's dynamic scheme. Compared to the
/// in-memory decoded labels it trades two pointer-free, cache-friendly
/// buffers (directory + arena) against walking a bit cursor on every
/// access, which is exactly the trade a hot/frozen tiering policy wants
/// to make for runs that stopped growing. It only *owns* the bytes:
/// reads go through [`Self::view`], the same [`ArenaRef`] a mapped
/// segment hands out, and the directory is kept in its wire layout so a
/// snapshot is a straight copy of both buffers.
#[derive(Debug, Clone)]
pub struct LabelArena {
    /// [`ArenaSlot`] records, sorted by vertex id (strictly increasing).
    slots: Box<[u8]>,
    bytes: Box<[u8]>,
    skl_bits: usize,
}

impl LabelArena {
    /// Encode every `(vertex, name, label)` into one arena. Input may
    /// arrive in any order; the directory is sorted by vertex id.
    /// `skl_bits` must match the labeler's (`LabelerCore::skl_bits`).
    pub fn build<'a>(
        skl_bits: usize,
        labels: impl IntoIterator<Item = (VertexId, NameId, LabelRef<'a>)>,
    ) -> Self {
        let mut staged: Vec<(VertexId, NameId, LabelRef<'a>)> = labels.into_iter().collect();
        staged.sort_by_key(|(v, ..)| *v);
        let mut slots = Vec::with_capacity(staged.len() * ArenaSlot::WIRE_BYTES);
        let mut w = BitWriter::new();
        for (vertex, name, label) in staged {
            let offset = u32::try_from(w.len() / 8).expect("arena exceeds 4 GiB");
            write_label(&mut w, label, skl_bits);
            // Every label starts on a byte.
            w.len = w.len.next_multiple_of(8);
            ArenaSlot {
                vertex,
                name,
                offset,
            }
            .write_le(&mut slots);
        }
        Self {
            slots: slots.into_boxed_slice(),
            bytes: w.into_bytes().into_boxed_slice(),
            skl_bits,
        }
    }

    /// The reader over this arena's buffers.
    pub fn view(&self) -> ArenaRef<'_> {
        ArenaRef::new(&self.slots, &self.bytes, self.skl_bits)
    }

    /// Number of labeled vertices.
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// True for the empty run.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The skeleton-pointer width the labels were encoded with.
    pub fn skl_bits(&self) -> usize {
        self.skl_bits
    }

    /// Size of the encoded label bytes alone.
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Total in-memory footprint: arena bytes plus the directory
    /// ([`ArenaSlot::WIRE_BYTES`] per label).
    pub fn footprint_bytes(&self) -> usize {
        self.bytes.len() + self.slots.len()
    }

    /// The raw directory, in wire layout (snapshot serialization).
    pub fn slots(&self) -> &[u8] {
        &self.slots
    }

    /// The raw arena bytes (snapshot serialization).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
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

    /// A skeleton-pointer width no `u64` holds — it can only come from a
    /// damaged header — fails the decode instead of overflowing a shift.
    #[test]
    fn a_width_over_64_bits_does_not_decode() {
        let mut w = BitWriter::new();
        w.push_gamma(1); // depth: one entry
        w.push_gamma(1); // index 0
        w.push_bits(0, 2); // kind N: a skeleton pointer follows
        w.push_gamma(1); // graph 0
        w.push_bits(u64::MAX, 64);
        w.push_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        assert!(decode_label(&bytes, 64).is_some());
        assert_eq!(decode_label(&bytes, 65), None);
        assert_eq!(BitReader::new(&bytes).read_bits(65), None);
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
        assert_eq!(EntryCursor::new(&lying, 4).collect::<Vec<_>>(), [None]);
        assert!(decode_label(&lying, 4).is_none());
        assert!(LabelRef::Encoded(&lying, 4).bit_len(4).is_none());
    }

    /// The cursor over encoded bytes yields the entries that were
    /// encoded; a label cut mid-entry yields its intact prefix, one
    /// `None`, and then ends.
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
        let encoded = LabelRef::Encoded(&bytes, 5);
        assert!(EntryCursor::new(&bytes, 5).eq(label.entries().map(|e| Some(*e))));
        assert_eq!(encoded.to_label().as_ref(), Some(&label));
        assert_eq!(encoded.bit_len(5), Some(label.bit_len(5)));
        assert_eq!(label.view().bit_len(5), Some(label.bit_len(5)));
        let cut: Vec<_> = EntryCursor::new(&bytes[..2], 5).collect();
        assert_eq!(cut.last(), Some(&None));
        assert!(cut.len() <= label.depth());
        assert!(cut[..cut.len() - 1]
            .iter()
            .zip(label.entries())
            .all(|(got, want)| got.as_ref() == Some(want)));
    }

    #[test]
    fn arena_roundtrips_a_whole_run() {
        let spec = wf_spec::corpus::running_example();
        let skeleton = TclSpecLabels::build(&spec);
        let mut rng = StdRng::seed_from_u64(99);
        let run = RunGenerator::new(&spec)
            .target_size(200)
            .generate_run(&mut rng);
        let mut labeler = crate::DerivationLabeler::new(&spec, &skeleton);
        for step in run.derivation.steps() {
            labeler.apply(step).unwrap();
        }
        let skl_bits = labeler.skl_bits();
        // Feed vertices in reverse order: build must sort.
        let vertices: Vec<_> = run.graph.vertices().collect();
        let labeled: Vec<(VertexId, NameId, LabelRef<'_>)> = vertices
            .iter()
            .rev()
            .map(|&v| (v, NameId(v.0 % 5), labeler.label(v).unwrap().view()))
            .collect();
        let arena = LabelArena::build(skl_bits, labeled);
        let view = arena.view();
        assert_eq!(arena.len(), vertices.len());
        let get = |a: ArenaRef<'_>, v| a.label(v).and_then(LabelRef::to_label);
        for &v in &vertices {
            assert_eq!(get(view, v).as_ref(), labeler.label(v), "{v:?}");
            assert_eq!(view.name(v), Some(NameId(v.0 % 5)));
        }
        assert!(view.label(VertexId(1 << 30)).is_none());
        // iter is vertex-ordered and complete.
        let order: Vec<u32> = view.iter().map(|(v, ..)| v.0).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
        assert_eq!(order.len(), vertices.len());
        // A validated copy of the raw parts (what a disk snapshot does).
        let back = ArenaRef::new(arena.slots(), arena.bytes(), skl_bits)
            .to_arena()
            .unwrap();
        for &v in &vertices {
            assert_eq!(get(back.view(), v).as_ref(), labeler.label(v));
        }
        assert_eq!(back.encoded_bytes(), arena.encoded_bytes());
        // Built again from its own encoded labels: the same bytes.
        let again = LabelArena::build(skl_bits, view.iter());
        assert_eq!(
            (again.slots(), again.bytes()),
            (arena.slots(), arena.bytes())
        );
        assert_eq!(
            arena.footprint_bytes(),
            arena.encoded_bytes() + ArenaSlot::WIRE_BYTES * vertices.len()
        );
    }

    #[test]
    fn validated_copy_rejects_corruption() {
        let label = DrlLabel::new(vec![Entry {
            index: 3,
            kind: NodeKind::N,
            skl: Some((GraphId(0), VertexId(1))),
            rec: None,
        }]);
        let arena = LabelArena::build(4, vec![(VertexId(0), NameId(0), label.view())]);
        let (slots, bytes) = (arena.slots(), arena.bytes());
        // Intact parts reassemble.
        assert!(ArenaRef::new(slots, bytes, 4).to_arena().is_some());
        // Truncated arena: the label no longer decodes — the reader
        // degrades to a malformed label, the validating copy refuses.
        let cut = ArenaRef::new(slots, &[], 4);
        assert!(cut.label(VertexId(0)).unwrap().to_label().is_none());
        assert!(cut.to_arena().is_none());
        // Out-of-bounds offset.
        let mut bad = slots.to_vec();
        bad[8..12].copy_from_slice(&(bytes.len() as u32 + 7).to_le_bytes());
        assert!(ArenaRef::new(&bad, bytes, 4).to_arena().is_none());
        // Unsorted directory.
        let two = LabelArena::build(
            4,
            vec![
                (VertexId(0), NameId(0), label.view()),
                (VertexId(1), NameId(1), label.view()),
            ],
        );
        let mut swapped = two.slots().to_vec();
        swapped.rotate_left(ArenaSlot::WIRE_BYTES);
        assert!(ArenaRef::new(&swapped, two.bytes(), 4).to_arena().is_none());
    }
}
