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
//! A label is its context's prefix plus one own entry (Algorithm 3's
//! single append), and the encoding keeps that split: a **prefix
//! record** is the entry count plus one (γ), then the entries; a
//! standalone label ([`encode_label`]) is its prefix record followed by
//! its own entry.
//!
//! Reading has one path at each level. One label: [`EntryCursor`], a bit
//! cursor over a prefix record that yields entries without allocating
//! ([`decode_label`] is that cursor collected, then the own entry);
//! callers hold a [`LabelRef`] — a prefix plus an own entry, decoded or
//! encoded — and never need to know which. One run: [`ArenaRef`], the
//! reader of a **label arena**, borrowed from a [`LabelArena`] that owns
//! its bytes or from a segment's heap frame; it holds the only "label of
//! vertex" in the workspace.
//!
//! **The label arena** — one completed run, all integers little-endian:
//!
//! ```text
//! layout    span u32 (max vertex id + 1) · heap u32 (prefix-heap bytes)
//!           · 7 × u8: the width of each cell field, in bits (≤ 32)
//! presence  ⌈span / 64⌉ × (word u64: bit v % 64 set iff vertex v is
//!           labeled · u32: the labeled vertices before the word)
//! cells     one per labeled vertex, in vertex order, bit-packed at one
//!           width per field: name · prefix offset · own index · kind ·
//!           graph · skeleton vertex · rec (0 = none, 1–4)
//! heap      each distinct prefix once, as a prefix record starting on
//!           a byte; a cell's prefix offset is where its record starts
//! ```
//!
//! Every field is exactly as wide as its largest value in the run, so a
//! field that is 0 throughout — an own entry's kind is `N` — costs no
//! bits. Finding a label is a presence test and a rank (the count before
//! the word plus a popcount): no search. Reading a field is one
//! unaligned 64-bit load. Only the prefix is decoded a bit at a time,
//! and two labels of one context need not even that.

use crate::entry::{Entry, NodeKind};
use crate::label::DrlLabel;
use crate::predicate::DrlPredicate;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use wf_graph::{NameId, VertexId};
use wf_skeleton::SpecLabeling;
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

    /// Write the low `width` bits of `value`, LSB first — up to a byte at
    /// a time (an arena's cells are written with it).
    pub fn push_bits(&mut self, mut value: u64, mut width: usize) {
        while width > 0 {
            let used = self.len % 8;
            if used == 0 {
                self.bytes.push(0);
            }
            let take = (8 - used).min(width);
            let low = (value & ((1 << take) - 1)) as u8;
            *self.bytes.last_mut().expect("a byte to write into") |= low << used;
            value >>= take;
            width -= take;
            self.len += take;
        }
    }

    /// Skip to the next byte boundary.
    fn pad_to_byte(&mut self) {
        self.len = self.bytes.len() * 8;
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

/// Encode a label: its prefix record, then its own entry — so the first
/// γ code is the label's depth. `skl_bits` must match the labeler's
/// (`⌈log₂ nG⌉`, see `LabelerCore::skl_bits`).
pub fn encode_label(label: &DrlLabel, skl_bits: usize) -> Vec<u8> {
    let mut w = BitWriter::new();
    let view = label.view();
    write_prefix(&mut w, view, skl_bits);
    write_entry(&mut w, &view.last(), skl_bits);
    w.into_bytes()
}

/// Write the prefix record of one borrowed label. An encoded prefix is
/// re-encoded entry by entry; one that does not decode is written as a
/// record that does not either: 64 zero bits, more than any γ code
/// starts with.
fn write_prefix(w: &mut BitWriter, label: LabelRef<'_>, skl_bits: usize) {
    match label {
        LabelRef::Entries { prefix, .. } => {
            w.push_gamma(prefix.len() as u64 + 1);
            for e in prefix.iter() {
                write_entry(w, e, skl_bits);
            }
        }
        LabelRef::Encoded {
            prefix,
            skl_bits: with,
            ..
        } => match EntryCursor::new(prefix, with) {
            Some(cursor) if cursor.clone().all(|e| e.is_some()) => {
                w.push_gamma(cursor.remaining as u64 + 1);
                for e in cursor.flatten() {
                    write_entry(w, &e, skl_bits);
                }
            }
            _ => w.push_bits(0, 64),
        },
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
/// [`EntryCursor`] collected, then the own entry read after it — the
/// workspace has one entry decoder.
pub fn decode_label(bytes: &[u8], skl_bits: usize) -> Option<DrlLabel> {
    let (prefix, mut rest) = EntryCursor::new(bytes, skl_bits)?.collect_prefix()?;
    let last = read_entry(&mut rest, skl_bits)?;
    Some(DrlLabel::from_parts(prefix, last, None))
}

/// A **borrowed label**: what every reader of a published label takes,
/// whichever tier holds it. Both forms are a context prefix plus the
/// vertex's own entry. The prefix is either a decoded array — from a
/// [`DrlLabel`] ([`DrlLabel::view`]) or from a table that keeps the
/// arrays apart from the entries (the engine's hot index) — or a prefix
/// record inside an arena's heap (plus the `skl_bits` it was written
/// with), which an [`EntryCursor`] turns into the same [`Entry`] values
/// one at a time. So the predicate ([`crate::DrlPredicate::reaches_ref`]),
/// the scans and the arena builder never need an owned label on a read.
#[derive(Debug, Clone, Copy)]
pub enum LabelRef<'a> {
    /// A decoded prefix and the own entry.
    Entries {
        /// The context's shared prefix array, root first.
        prefix: &'a Arc<[Entry]>,
        /// The vertex's own entry.
        last: &'a Entry,
    },
    /// An encoded prefix and the own entry.
    Encoded {
        /// The prefix record, from its first byte (records are
        /// self-delimiting, so trailing bytes are ignored).
        prefix: &'a [u8],
        /// The vertex's own entry, read from its cell.
        last: Entry,
        /// The skeleton-pointer width the record was written with.
        skl_bits: usize,
    },
}

impl<'a> LabelRef<'a> {
    /// The vertex's own entry.
    pub fn last(self) -> Entry {
        match self {
            LabelRef::Entries { last, .. } => *last,
            LabelRef::Encoded { last, .. } => last,
        }
    }

    /// Where the prefix is borrowed from: labels that lend one array, or
    /// one record, lend one address.
    fn prefix_address(self) -> usize {
        match self {
            LabelRef::Entries { prefix, .. } => prefix.as_ptr() as usize,
            LabelRef::Encoded { prefix, .. } => prefix.as_ptr() as usize,
        }
    }

    /// An owned copy — for the few places that *keep* a label: a decoded
    /// label shares its prefix array (one reference count, no number:
    /// the copy is the keeper's, not the run's), an encoded prefix is
    /// decoded into a private one. `None` when it does not decode.
    pub fn to_label(self) -> Option<DrlLabel> {
        match self {
            LabelRef::Entries { prefix, last } => {
                Some(DrlLabel::from_parts(Arc::clone(prefix), *last, None))
            }
            LabelRef::Encoded {
                prefix,
                last,
                skl_bits,
            } => {
                let (prefix, _) = EntryCursor::new(prefix, skl_bits)?.collect_prefix()?;
                Some(DrlLabel::from_parts(prefix, last, None))
            }
        }
    }

    /// Label length in bits, the Theorem-3 accounting of
    /// [`DrlLabel::bit_len`]; `None` when the prefix does not decode.
    pub fn bit_len(self, skl_bits: usize) -> Option<usize> {
        match self {
            LabelRef::Entries { prefix, last } => Some(
                prefix
                    .iter()
                    .chain([last])
                    .map(|e| e.bit_len(skl_bits))
                    .sum(),
            ),
            LabelRef::Encoded {
                prefix,
                last,
                skl_bits: encoded_with,
            } => EntryCursor::new(prefix, encoded_with)?
                .try_fold(last.bit_len(skl_bits), |bits, e| {
                    Some(bits + e?.bit_len(skl_bits))
                }),
        }
    }
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

    /// Every entry still to come, collected straight into one array (the
    /// record knows its length), and the reader right after them; `None`
    /// when one of them does not decode.
    fn collect_prefix(mut self) -> Option<(Arc<[Entry]>, BitReader<'a>)> {
        let mut whole = true;
        let unread = Entry::special(0, NodeKind::L);
        let prefix = (0..self.remaining)
            .map(|_| {
                let entry = self.next().flatten();
                whole &= entry.is_some();
                entry.unwrap_or(unread)
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

/// Cell fields, in the order a cell holds them.
const NAME: usize = 0;
const PREFIX: usize = 1;
const INDEX: usize = 2;
const KIND: usize = 3;
const GRAPH: usize = 4;
const VERTEX: usize = 5;
const REC: usize = 6;
const FIELDS: usize = 7;
/// The layout header: the id span, the prefix-heap length, a width per
/// cell field.
const LAYOUT_LEN: usize = 4 + 4 + FIELDS;
/// One presence word and the count of labeled vertices before it.
const GROUP_LEN: usize = 8 + 4;

/// The fields of the cell of a label named `name` whose prefix record
/// starts at heap offset `prefix`. As in the entry code, only an `N`
/// entry carries a skeleton pointer and rec flags.
fn cell_fields(name: NameId, prefix: u32, last: &Entry) -> [u32; FIELDS] {
    let (graph, vertex, rec) = match (last.kind, last.skl) {
        (NodeKind::N, Some((g, v))) => {
            let rec = last
                .rec
                .map_or(0, |(r1, r2)| 1 + 2 * u32::from(r1) + u32::from(r2));
            (g.0, v.0, rec)
        }
        _ => (0, 0, 0),
    };
    let kind = kind_code(last.kind) as u32;
    [name.0, prefix, last.index, kind, graph, vertex, rec]
}

/// The own entry a cell's fields describe; `None` for a kind or rec code
/// no cell is written with.
fn cell_entry(field: impl Fn(usize) -> u32) -> Option<Entry> {
    let kind = code_kind(u64::from(field(KIND)))?;
    let (skl, rec) = if kind == NodeKind::N {
        let rec = match field(REC) {
            0 => None,
            code @ 1..=4 => Some((code >= 3, code % 2 == 0)),
            _ => return None,
        };
        (Some((GraphId(field(GRAPH)), VertexId(field(VERTEX)))), rec)
    } else {
        (None, None)
    };
    Some(Entry {
        index: field(INDEX),
        kind,
        skl,
        rec,
    })
}

/// Why bytes are not a label arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArenaError {
    /// The bytes end before, or run past, the regions their layout
    /// header sizes.
    Length {
        /// The length the layout calls for.
        expected: usize,
        /// The length found.
        found: usize,
    },
    /// A cell field wider than the `u32` it holds.
    Width(u8),
    /// A presence word whose count of the labels before it is wrong.
    Rank(usize),
    /// A vertex whose cell or prefix record does not decode.
    Label(VertexId),
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaError::Length { expected, found } => write!(
                f,
                "arena length {found} does not match its layout (expected {expected})"
            ),
            ArenaError::Width(bits) => write!(f, "cell field width {bits} exceeds 32 bits"),
            ArenaError::Rank(word) => write!(f, "presence word {word} has a wrong rank"),
            ArenaError::Label(v) => write!(f, "the label of {v:?} does not decode"),
        }
    }
}

impl std::error::Error for ArenaError {}

/// **The arena reader**: every label read of a completed run goes
/// through this one type, whether the bytes are owned by a
/// [`LabelArena`] or sit in a segment's heap frame; it never allocates.
///
/// [`Self::new`] checks the framing — the layout header, the widths, and
/// that the regions it sizes fill the bytes exactly — in constant time,
/// so a reader can be made per read. Past that it trusts nothing: a
/// wrong rank reads another cell, an out-of-range cell reads zeros, and
/// a prefix offset out of range or a record that no longer decodes
/// surfaces as a malformed [`LabelRef`] (a `None` from its cursor) —
/// never a panic. [`Self::to_arena`] is the validating copy.
#[derive(Debug, Clone, Copy)]
pub struct ArenaRef<'a> {
    bytes: &'a [u8],
    /// The presence words, each followed by its rank.
    groups: &'a [u8],
    cells: &'a [u8],
    heap: &'a [u8],
    width: [u8; FIELDS],
    /// Each field's bit offset within a cell.
    at: [u8; FIELDS],
    cell_bits: usize,
    skl_bits: usize,
}

impl<'a> ArenaRef<'a> {
    /// Frame the label arena `bytes`, whose prefixes were written with
    /// skeleton pointers `skl_bits` wide.
    pub fn new(bytes: &'a [u8], skl_bits: usize) -> Result<Self, ArenaError> {
        let length = |expected| ArenaError::Length {
            expected,
            found: bytes.len(),
        };
        let layout = bytes.get(..LAYOUT_LEN).ok_or(length(LAYOUT_LEN))?;
        let word = |i: usize| u32::from_le_bytes(layout[i..i + 4].try_into().expect("4 bytes"));
        let mut width = [0; FIELDS];
        width.copy_from_slice(&layout[8..]);
        if let Some(&bits) = width.iter().find(|&&bits| bits > 32) {
            return Err(ArenaError::Width(bits));
        }
        let (mut at, mut cell_bits) = ([0; FIELDS], 0);
        for (at, &bits) in at.iter_mut().zip(&width) {
            *at = cell_bits;
            cell_bits += bits;
        }
        let groups_len = (word(0) as usize).div_ceil(64) * GROUP_LEN;
        let framed = LAYOUT_LEN + groups_len + word(4) as usize;
        let cells_len = bytes.len().checked_sub(framed).ok_or(length(framed))?;
        let (groups, rest) = bytes[LAYOUT_LEN..].split_at(groups_len);
        let (cells, heap) = rest.split_at(cells_len);
        let view = Self {
            bytes,
            groups,
            cells,
            heap,
            width,
            at,
            cell_bits: usize::from(cell_bits),
            skl_bits,
        };
        let expected = framed + (view.len() * view.cell_bits).div_ceil(8);
        if bytes.len() != expected {
            return Err(length(expected));
        }
        Ok(view)
    }

    /// Number of labeled vertices: the last word's rank plus its bits.
    pub fn len(&self) -> usize {
        let last = (self.groups.len() / GROUP_LEN).checked_sub(1);
        last.and_then(|g| self.group(g))
            .map_or(0, |(word, before)| before + word.count_ones() as usize)
    }

    /// True for the empty run.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The skeleton-pointer width the prefixes were encoded with.
    pub fn skl_bits(&self) -> usize {
        self.skl_bits
    }

    /// Presence word `g` and the number of labeled vertices before it.
    #[inline]
    fn group(&self, g: usize) -> Option<(u64, usize)> {
        let b = self.groups.get(g * GROUP_LEN..)?.get(..GROUP_LEN)?;
        let word = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        let before = u32::from_le_bytes(b[8..].try_into().expect("4 bytes"));
        Some((word, before as usize))
    }

    /// The cell of `v`: how many labeled vertices come before it.
    #[inline]
    fn rank(&self, v: VertexId) -> Option<usize> {
        let (word, before) = self.group(v.0 as usize / 64)?;
        let bit = v.0 % 64;
        let below = (word & ((1 << bit) - 1)).count_ones() as usize;
        ((word >> bit) & 1 == 1).then_some(before + below)
    }

    /// Field `k` of cell `r`: one unaligned little-endian load (the
    /// bytes past the last cell read as zeros).
    #[inline]
    fn field(&self, r: usize, k: usize) -> u32 {
        let bit = r
            .saturating_mul(self.cell_bits)
            .saturating_add(usize::from(self.at[k]));
        let at = bit / 8;
        let word = match self.cells.get(at..at + 8) {
            Some(b) => u64::from_le_bytes(b.try_into().expect("8 bytes")),
            None => {
                let mut b = [0; 8];
                let tail = self.cells.get(at..).unwrap_or_default();
                b[..tail.len()].copy_from_slice(tail);
                u64::from_le_bytes(b)
            }
        };
        ((word >> (bit % 8)) & ((1 << self.width[k]) - 1)) as u32
    }

    /// Cell `r`: its prefix's heap offset and its own entry.
    #[inline]
    fn cell(&self, r: usize) -> Option<(u32, Entry)> {
        let field = |k| self.field(r, k);
        Some((field(PREFIX), cell_entry(field)?))
    }

    /// A cell as the borrowed label it stands for.
    #[inline]
    fn labeled(&self, (offset, last): (u32, Entry)) -> LabelRef<'a> {
        LabelRef::Encoded {
            prefix: self.heap.get(offset as usize..).unwrap_or_default(),
            last,
            skl_bits: self.skl_bits,
        }
    }

    /// The module name `v` was published under.
    pub fn name(&self, v: VertexId) -> Option<NameId> {
        Some(NameId(self.field(self.rank(v)?, NAME)))
    }

    /// The label of `v`, if the run labeled it.
    pub fn label(&self, v: VertexId) -> Option<LabelRef<'a>> {
        Some(self.labeled(self.cell(self.rank(v)?)?))
    }

    /// `u ; v`, or `None` unless both are labeled and decode. Two cells
    /// of one context — one prefix record, one own index — decide from
    /// their own entries, without a look at the heap, as two hot cells
    /// of one prefix slot do.
    #[inline]
    pub fn reach<S: SpecLabeling>(
        &self,
        predicate: &DrlPredicate<'_, S>,
        u: VertexId,
        v: VertexId,
    ) -> Option<bool> {
        let (a, b) = (self.cell(self.rank(u)?)?, self.cell(self.rank(v)?)?);
        if a.0 == b.0 && a.1.index == b.1.index {
            return predicate.reaches_in_context(&a.1, &b.1);
        }
        predicate.reaches_ref(self.labeled(a), self.labeled(b))
    }

    /// Every labeled vertex and its cell, in vertex order.
    fn cells(self) -> impl Iterator<Item = (VertexId, usize)> + Clone + 'a {
        (0..self.groups.len() / GROUP_LEN)
            .flat_map(move |g| {
                let (word, _) = self.group(g).unwrap_or_default();
                (0..word.count_ones()).scan(word, move |word, _| {
                    let bit = word.trailing_zeros();
                    *word &= *word - 1;
                    Some(VertexId(g as u32 * 64 + bit))
                })
            })
            .enumerate()
            .map(|(r, v)| (v, r))
    }

    /// Every `(vertex, name)`, in vertex order; no label is read.
    pub fn names(self) -> impl Iterator<Item = (VertexId, NameId)> + 'a {
        self.cells()
            .map(move |(v, r)| (v, NameId(self.field(r, NAME))))
    }

    /// Every `(vertex, name, label)`, in vertex order. No prefix is
    /// decoded until a label's cursor is walked.
    pub fn iter(self) -> impl Iterator<Item = (VertexId, NameId, LabelRef<'a>)> + Clone + 'a {
        self.cells().filter_map(move |(v, r)| {
            Some((v, NameId(self.field(r, NAME)), self.labeled(self.cell(r)?)))
        })
    }

    /// A validated owned copy (what decoding a segment does): beyond the
    /// framing, every rank counts the labels before its word, and every
    /// cell and the prefix record it names decode — a corrupted arena is
    /// rejected here, not at query time.
    pub fn to_arena(&self) -> Result<LabelArena, ArenaError> {
        let mut before = 0;
        for g in 0..self.groups.len() / GROUP_LEN {
            let (word, rank) = self.group(g).ok_or(ArenaError::Rank(g))?;
            if rank != before {
                return Err(ArenaError::Rank(g));
            }
            before += word.count_ones() as usize;
        }
        for (v, r) in self.cells() {
            let decodes = self
                .cell(r)
                .map(|cell| self.labeled(cell).bit_len(self.skl_bits));
            if decodes.flatten().is_none() {
                return Err(ArenaError::Label(v));
            }
        }
        Ok(LabelArena {
            bytes: self.bytes.into(),
            skl_bits: self.skl_bits,
        })
    }
}

/// **Run-level framing**: every label of one completed run in one label
/// arena (see the module docs for the layout) — the static end state of
/// the paper's dynamic scheme, where each context prefix is encoded once
/// and a label is one fixed-width cell naming it.
///
/// Compared to the in-memory decoded labels it trades one pointer-free,
/// cache-friendly buffer against decoding a prefix on access, which is
/// exactly the trade a tiering policy wants to make for runs that
/// stopped growing. It only *owns* the bytes: reads go through
/// [`Self::view`], the same [`ArenaRef`] a segment's frame hands out, so
/// a snapshot is a straight copy of the buffer.
#[derive(Debug, Clone)]
pub struct LabelArena {
    bytes: Box<[u8]>,
    skl_bits: usize,
}

impl LabelArena {
    /// Encode every `(vertex, name, label)`, in strictly increasing
    /// vertex order, into one arena, in two passes over `labels`. The
    /// first numbers each distinct prefix as it is first met — by the
    /// address the label borrows it from, so an array (or a record) that
    /// many labels share is encoded once — and writes it to the heap,
    /// noting each field's largest value. The second writes the presence
    /// words and one cell per label. `skl_bits` must match the labeler's
    /// (`LabelerCore::skl_bits`).
    ///
    /// # Panics
    /// On a vertex out of order or of id `u32::MAX`.
    pub fn build<'a, I>(skl_bits: usize, labels: I) -> Self
    where
        I: Iterator<Item = (VertexId, NameId, LabelRef<'a>)> + Clone,
    {
        let mut heap = BitWriter::new();
        let mut offsets = HashMap::new();
        let (mut span, mut max) = (0u32, [0u32; FIELDS]);
        for (v, name, label) in labels.clone() {
            assert!(v.0 >= span, "labels arrive in increasing vertex order");
            span = v.0.checked_add(1).expect("vertex ids below u32::MAX");
            let offset = *offsets.entry(label.prefix_address()).or_insert_with(|| {
                let offset = u32::try_from(heap.len() / 8).expect("prefix heap under 4 GiB");
                write_prefix(&mut heap, label, skl_bits);
                heap.pad_to_byte();
                offset
            });
            for (max, field) in max.iter_mut().zip(cell_fields(name, offset, &label.last())) {
                *max = (*max).max(field);
            }
        }
        let width = max.map(|m| (u32::BITS - m.leading_zeros()) as u8);
        let heap = heap.into_bytes();
        let mut bytes = Vec::with_capacity(LAYOUT_LEN + (span as usize).div_ceil(64) * GROUP_LEN);
        bytes.extend_from_slice(&span.to_le_bytes());
        bytes.extend_from_slice(&(heap.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&width);
        let mut words = vec![0u64; (span as usize).div_ceil(64)];
        let mut cells = BitWriter::new();
        for (v, name, label) in labels {
            words[v.0 as usize / 64] |= 1 << (v.0 % 64);
            let offset = offsets[&label.prefix_address()];
            for (field, &bits) in cell_fields(name, offset, &label.last()).iter().zip(&width) {
                cells.push_bits(u64::from(*field), usize::from(bits));
            }
        }
        let mut before = 0u32;
        for word in words {
            bytes.extend_from_slice(&word.to_le_bytes());
            bytes.extend_from_slice(&before.to_le_bytes());
            before += word.count_ones();
        }
        bytes.extend_from_slice(&cells.into_bytes());
        bytes.extend_from_slice(&heap);
        Self {
            bytes: bytes.into_boxed_slice(),
            skl_bits,
        }
    }

    /// The reader over this arena's bytes.
    pub fn view(&self) -> ArenaRef<'_> {
        ArenaRef::new(&self.bytes, self.skl_bits)
            .expect("an arena is built or validated before it is owned")
    }

    /// Number of labeled vertices.
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// True for the empty run.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The skeleton-pointer width the prefixes were encoded with.
    pub fn skl_bits(&self) -> usize {
        self.skl_bits
    }

    /// The arena's bytes: its whole footprint, and what a segment blob
    /// carries between its header and its checksum.
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
        assert!(EntryCursor::new(&lying, 4).is_none());
        assert!(decode_label(&lying, 4).is_none());
        let last = Entry::special(1, NodeKind::L);
        let encoded = LabelRef::Encoded {
            prefix: &lying,
            last,
            skl_bits: 4,
        };
        assert!(encoded.bit_len(4).is_none());
        assert!(encoded.to_label().is_none());
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
        assert!(cursor.eq(label.entries().take(2).map(|e| Some(*e))));
        let encoded = LabelRef::Encoded {
            prefix: &bytes,
            last: label.view().last(),
            skl_bits: 5,
        };
        assert_eq!(encoded.to_label().as_ref(), Some(&label));
        assert_eq!(encoded.bit_len(5), Some(label.bit_len(5)));
        assert_eq!(label.view().bit_len(5), Some(label.bit_len(5)));
        let cut: Vec<_> = EntryCursor::new(&bytes[..2], 5).unwrap().collect();
        assert_eq!(cut, [label.entry(0).copied(), None]);
        assert!(decode_label(&bytes[..2], 5).is_none());
    }

    /// The labels of one run, as its labeler issued them, in vertex order.
    fn labeled_run(seed: u64, size: usize) -> (usize, Vec<(VertexId, DrlLabel)>) {
        let spec = wf_spec::corpus::running_example();
        let skeleton = TclSpecLabels::build(&spec);
        let run = RunGenerator::new(&spec)
            .target_size(size)
            .generate_run(&mut StdRng::seed_from_u64(seed));
        let mut labeler = crate::DerivationLabeler::new(&spec, &skeleton);
        for step in run.derivation.steps() {
            labeler.apply(step).unwrap();
        }
        let labels = run
            .graph
            .vertices()
            .map(|v| (v, labeler.label(v).unwrap().clone()))
            .collect();
        (labeler.skl_bits(), labels)
    }

    #[test]
    fn arena_roundtrips_a_whole_run() {
        let (skl_bits, labels) = labeled_run(99, 200);
        let labeled = labels
            .iter()
            .map(|(v, label)| (*v, NameId(v.0 % 5), label.view()));
        let arena = LabelArena::build(skl_bits, labeled.clone());
        let view = arena.view();
        assert_eq!(arena.len(), labels.len());
        let get = |a: ArenaRef<'_>, v| a.label(v).and_then(LabelRef::to_label);
        for (v, label) in &labels {
            assert_eq!(get(view, *v).as_ref(), Some(label), "{v:?}");
            assert_eq!(view.name(*v), Some(NameId(v.0 % 5)));
        }
        assert!(view.label(VertexId(1 << 30)).is_none());
        assert!(view.label(VertexId(labels.len() as u32 + 1)).is_none());
        // iter and names are vertex-ordered and complete.
        assert!(view.iter().map(|(v, n, _)| (v, n)).eq(view.names()));
        assert!(view
            .names()
            .map(|(v, _)| v)
            .eq(labels.iter().map(|(v, _)| *v)));
        // Each distinct prefix array is written once: far fewer records
        // than labels, and a cell of a few bytes.
        let distinct: std::collections::HashSet<_> =
            labels.iter().map(|(_, l)| l.prefix_id()).collect();
        assert!(
            distinct.len() * 3 < labels.len(),
            "{} prefixes",
            distinct.len()
        );
        assert!(
            arena.bytes().len() < 8 * labels.len(),
            "{} B",
            arena.bytes().len()
        );
        // A validated copy of the raw bytes (what a disk snapshot does).
        let back = ArenaRef::new(arena.bytes(), skl_bits)
            .unwrap()
            .to_arena()
            .unwrap();
        assert_eq!(back.bytes(), arena.bytes());
        // Built again from its own encoded labels: the same bytes.
        let again = LabelArena::build(skl_bits, view.iter());
        assert_eq!(again.bytes(), arena.bytes());
        // The labels must come in vertex order.
        let reversed: Vec<_> = labeled.rev().collect();
        let unsorted =
            std::panic::catch_unwind(|| LabelArena::build(skl_bits, reversed.into_iter()));
        assert!(unsorted.is_err());
    }

    /// The framing is checked in constant time; the validating copy
    /// checks every rank and label; the unvalidated reader answers
    /// whatever the bytes say without panicking.
    #[test]
    fn validated_copy_rejects_corruption() {
        let label = DrlLabel::new(vec![Entry {
            index: 3,
            kind: NodeKind::N,
            skl: Some((GraphId(0), VertexId(1))),
            rec: None,
        }]);
        let labels =
            [VertexId(0), VertexId(64), VertexId(130)].map(|v| (v, NameId(v.0), label.view()));
        let arena = LabelArena::build(4, labels.into_iter());
        let bytes = arena.bytes();
        assert!(ArenaRef::new(bytes, 4).unwrap().to_arena().is_ok());
        // Every truncation and every extension breaks the framing.
        for cut in 0..bytes.len() {
            assert!(matches!(
                ArenaRef::new(&bytes[..cut], 4),
                Err(ArenaError::Length { .. })
            ));
        }
        let long = [bytes, &[0]].concat();
        assert!(matches!(
            ArenaRef::new(&long, 4),
            Err(ArenaError::Length { .. })
        ));
        // A width no `u32` field has.
        let mut wide = bytes.to_vec();
        wide[LAYOUT_LEN - 1] = 33;
        assert_eq!(ArenaRef::new(&wide, 4).unwrap_err(), ArenaError::Width(33));
        // A wrong rank short of the last word (whose rank sizes the
        // cells): the framing holds, the validating copy refuses.
        let mut ranked = bytes.to_vec();
        ranked[LAYOUT_LEN + GROUP_LEN + 8] = 5;
        let reader = ArenaRef::new(&ranked, 4).unwrap();
        assert_eq!(reader.to_arena().unwrap_err(), ArenaError::Rank(1));
        for v in [0, 64, 130] {
            let _ = reader.label(VertexId(v)).map(|l| l.to_label());
        }
        // A prefix record that no longer decodes.
        let mut zeroed = bytes.to_vec();
        *zeroed.last_mut().unwrap() = 0;
        let reader = ArenaRef::new(&zeroed, 4).unwrap();
        assert_eq!(
            reader.to_arena().unwrap_err(),
            ArenaError::Label(VertexId(0))
        );
        assert!(reader.label(VertexId(0)).unwrap().to_label().is_none());
    }
}
