//! `wf-wal` — a per-shard write-ahead event log for durable ingest.
//!
//! The engine's tiered label store (hot → frozen → persisted) only
//! writes to disk when a run is frozen and spilled, so everything hot —
//! potentially hours of in-flight events — dies with the process. This
//! crate puts an append-only durable history *in front of* that mutable
//! working set:
//!
//! - **Framing (format version 4).** A shard file starts with the 8-byte
//!   [`FILE_HEADER`] (magic + version); a file that starts with anything
//!   else is refused with [`WalError::Unsupported`] and never modified,
//!   while an empty file or a strict prefix of the header (a crash while
//!   the file was being created) is an empty log. Each frame after it is
//!   `[body_len: varint][crc32c: u32 LE][body]` where the checksum
//!   ([`crc32c`]) covers the whole body. A frame is one run's batch: the
//!   body is `[run: varint][first seq + 1 (wrapping): varint]`, then one
//!   or more records, the record at position `i` numbered
//!   `first seq + i`. Every record but the last is
//!   `[kind | 0x80: u8][payload_len: varint][payload…]`; the last is
//!   `[kind: u8][payload…]`, its payload running to the end of the body,
//!   so a frame of one record — what interleaved traffic writes — costs
//!   exactly the bytes of version 3's one-record frame, and each record
//!   that joins a batch saves the frame head it would have opened, less
//!   the length it gives the record before it.
//!   Varints are LEB128, minimal, at most 10 bytes; `seq + 1` makes a
//!   checkpoint's [`CHECKPOINT_SEQ`] the one-byte `0`. A shard buffer
//!   keeps its last frame open while that run appends its next sequence
//!   number; any other append seals it (length and checksum), and so do a
//!   write-through, a committer pass and a barrier, so a frame never
//!   spans a write to the file. How many records share a frame is a
//!   property of the traffic, not of the format: a run's burst from one
//!   thread shares one, records of runs that alternate on a shard do
//!   not. Each record is folded into the checksum as the next one joins
//!   it, so a seal folds in the last record and writes two fields. A
//!   `Checkpoint` is a frame of its own. A frame carries no state from
//!   the frame before it, and a frame holds one run, so a shard's rewrite
//!   keeps or drops whole frames by their run and copies the kept ones
//!   byte for byte. The payload is opaque to this crate; the service
//!   layer encodes run-open metadata and execution events into it —
//!   [`WalWriter::append_with`] lets it do so straight into the shard
//!   buffer.
//! - **Sharding.** A fixed number of log files (`wal-NNNN.wflog`). The
//!   service routes each run's records to one shard by a hash of its id
//!   and appends them under the run's writer lock, so per-run record
//!   order on disk follows the per-run apply order (sequence numbers
//!   make recovery robust to cross-thread interleaving anyway).
//! - **Group commit, the one way to disk.** Appends land in a per-shard
//!   user-space buffer; a dedicated committer thread flushes and fsyncs
//!   every shard once per [`WalSync::GroupCommit`] window, and
//!   [`WalWriter::barrier`] forces an immediate batch for durability
//!   barriers (`flush()`). An append is durable at the next pass or
//!   barrier, whichever comes first.
//! - **Recovery.** [`recover`] scans a WAL directory, truncates each
//!   file's view at the first bad length/checksum (a torn tail is data
//!   loss bounded by the last barrier, not corruption: a torn frame drops
//!   its whole batch, and no frame spans a barrier), groups records by
//!   run and orders them by sequence number. A file of another format —
//!   version 3's one record per frame included — fails the whole scan:
//!   nothing is guessed at, nothing is rewritten.
//! - **Checkpoints append.** When the service has made a run durable
//!   elsewhere (spilled a segment) or evicted it, it stamps a
//!   `Checkpoint` record, and recovery drops the run's records. The
//!   shard is rewritten without the checkpointed runs only once their
//!   bytes pass [`DEAD_HEAVY_RATIO`] of it — the one rule of every
//!   amortised rewrite, pack compaction's too — so a checkpoint costs an
//!   append, the log stays within a constant factor of hot state, and
//!   recovery time stays proportional to it, not to history. A rewrite
//!   reads and filters the shard with its lock free, then takes the lock
//!   to copy the frames appended meanwhile behind the kept ones and
//!   replace the file, so appends to the shard do not wait on the scan.
//!   Every
//!   rewrite — this one and [`WalWriter::reset`] — keeps the checkpoint
//!   of the highest run id it drops, so no id is issued twice.
//! - **One frame layout, two logs.** The service's seal log frames its
//!   records the same way, one record per frame ([`encode_frame`]);
//!   [`scan_log`] is the one scanner of both, each behind its own file
//!   header, so neither reads as the other.
//! - **The disk idioms, once each.** Every file the engine touches — the
//!   shard files here, the service's packs and seal log — goes through
//!   one module, [`mod@file`]: one positioned read, one whole-file read, one
//!   append, one crash-safe replace, one listing, one rule for leftover
//!   temp files, and one error ([`file::FileError`]) naming the operation
//!   and the path. [`WalWriter::append_with`] is the one log append body
//!   ([`WalWriter::append`] hands it a payload that already exists):
//!   *a failed or panicking append leaves the shard buffer as it found
//!   it* — the rejected record is never written later, nor covered by a
//!   frame's checksum, and a poisoned shard lock is recovered, not fatal.
//!   [`crc32c`] is the one checksum.
//!
//! The crate is dependency-free; telemetry flows out through the
//! [`WalObserver`] trait so the service can bridge into its registry
//! without `wf-wal` depending on `wf-obs`.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::collections::{HashMap, HashSet};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod crc32c;
pub mod file;
/// The integrity check of WAL frames and of the service's segment blobs,
/// so the two on-disk formats share corruption-detection behaviour.
pub use crc32c::crc32c;
use crc32c::crc32c_extend;

/// The on-disk format this crate writes and the only one it reads.
pub const FORMAT_VERSION: u32 = 4;
/// What every shard file starts with: the magic `WFWL`, then
/// [`FORMAT_VERSION`] as a `u32` LE.
pub const FILE_HEADER: [u8; 8] = {
    let v = FORMAT_VERSION.to_le_bytes();
    [b'W', b'F', b'W', b'L', v[0], v[1], v[2], v[3]]
};
/// Bytes of a frame ahead of its body besides the length varint: the
/// `u32` CRC-32C of the body.
const CHECKSUM_BYTES: usize = 4;
/// Lower bound on one frame body: two one-byte varints (run,
/// `first seq + 1`), then one record's kind byte; shorter claims are
/// treated as torn.
pub const MIN_BODY_BYTES: usize = 3;
/// Upper bound on one frame body; longer frames are treated as torn.
pub const MAX_BODY_BYTES: usize = 1 << 26;
/// Byte budget per shard buffer: an append that finds a shard's
/// user-space buffer past this writes it through to the OS first (the
/// fsync still waits for the committer). It bounds a frame's body too:
/// a record joins an open frame only while the body is under it.
pub const GROUP_COMMIT_BYTE_BUDGET: usize = 256 * 1024;

/// The sequence number stamped on `Checkpoint` records: a checkpoint
/// covers *every* record of its run (runs are only checkpointed once
/// they are durable in a segment and can never re-ingest).
pub const CHECKPOINT_SEQ: u64 = u64::MAX;

/// A log or a pack is rewritten once more than this share of it is
/// dead — records of runs made durable elsewhere, blobs of evicted runs:
/// then copying the live remainder wins back more than the copy costs.
/// The one rule of every amortised rewrite ([`dead_heavy`]): a WAL shard
/// after its checkpoints, and the service's packs and seal log.
pub const DEAD_HEAVY_RATIO: f64 = 0.3;

/// True when `dead` of `total` (bytes, or records) passes
/// [`DEAD_HEAVY_RATIO`].
#[must_use]
pub fn dead_heavy(dead: u64, total: u64) -> bool {
    dead as f64 > DEAD_HEAVY_RATIO * total as f64
}

/// Longest LEB128 encoding of a `u64`.
const MAX_VARINT_BYTES: usize = 10;

/// LEB128: seven bits a byte, low group first, the top bit set on every
/// byte but the last.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Bytes [`put_varint`] writes for `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// The varint at the front of `bytes` and its width. `None` when the
/// bytes end inside it, when it does not fit a `u64` (an eleventh byte,
/// or bits past the 64th in the tenth) or when it is not the minimal
/// encoding of its value (a trailing zero byte) — every value has
/// exactly one accepted encoding.
pub fn get_varint(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for (i, &b) in bytes.iter().enumerate().take(MAX_VARINT_BYTES) {
        let bits = u64::from(b & 0x7f);
        if i == MAX_VARINT_BYTES - 1 && bits > 1 {
            return None;
        }
        v |= bits << (7 * i);
        if b & 0x80 == 0 {
            return (b != 0 || i == 0).then_some((v, i + 1));
        }
    }
    None
}

/// What a record means to the service layer. The discriminant is the
/// record's kind byte on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
    /// A run was opened; payload carries its spec + resolution.
    RunOpen = 0,
    /// One execution event; payload is the encoded event.
    Event = 1,
    /// The run was marked complete.
    Complete = 2,
    /// The run is durable elsewhere; all its records may be dropped.
    Checkpoint = 3,
}

impl RecordKind {
    /// The kind whose byte `b` is.
    fn from_u8(b: u8) -> Option<Self> {
        let kinds = [Self::RunOpen, Self::Event, Self::Complete, Self::Checkpoint];
        kinds.get(usize::from(b)).copied()
    }
}

/// One WAL record. `seq` is per-run and monotonically increasing in
/// apply order; recovery sorts by it, so cross-thread write interleaving
/// in a shard file is harmless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub kind: RecordKind,
    pub run: u64,
    pub seq: u64,
    pub payload: Vec<u8>,
}

impl Record {
    /// A checkpoint marker for `run` (empty payload, [`CHECKPOINT_SEQ`]).
    fn checkpoint(run: u64) -> Self {
        Self {
            kind: RecordKind::Checkpoint,
            run,
            seq: CHECKPOINT_SEQ,
            payload: Vec::new(),
        }
    }
}

/// Append one frame to `out`, its body written in place by `body` (which
/// must only append): the encoder of a log whose frames hold one record
/// each, the service's seal log. The length and the checksum go in front
/// of a body whose size is not known until it is written: one length
/// byte is set aside — enough for every body under 128 bytes, which is
/// every seal record — and a longer length is written behind the frame
/// and rotated to its front.
pub fn encode_frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let frame_at = out.len();
    out.extend_from_slice(&[0u8; 1 + CHECKSUM_BYTES]);
    let body_at = out.len();
    body(out);
    let crc = crc32c(&out[body_at..]);
    out[frame_at + 1..body_at].copy_from_slice(&crc.to_le_bytes());
    let body_len = out.len() - body_at;
    put_len_in_front(out, frame_at, body_len);
}

/// Fill in the one byte set aside at `at` for the length `len` of what
/// follows it, which runs to the end of `out`: in place under 128, else
/// written behind and rotated to the front.
fn put_len_in_front(out: &mut Vec<u8>, at: usize, len: usize) {
    if len < 0x80 {
        out[at] = len as u8;
    } else {
        out.remove(at);
        put_varint(out, len as u64);
        out[at..].rotate_right(varint_len(len as u64));
    }
}

/// Write `v` into `dst` as a varint exactly `dst.len()` bytes wide, its
/// minimal width.
fn put_varint_at(dst: &mut [u8], mut v: u64) {
    let last = dst.len() - 1;
    for (i, b) in dst.iter_mut().enumerate() {
        *b = v as u8 & 0x7f | if i < last { 0x80 } else { 0 };
        v >>= 7;
    }
}

/// Bytes a frame with a `body`-byte body takes: its length, its checksum
/// and the body.
fn frame_len(body: usize) -> usize {
    varint_len(body as u64) + CHECKSUM_BYTES + body
}

/// Set on the kind byte of every record of a frame but its last: a
/// payload length follows the byte, and another record follows the
/// payload. The last record's payload runs to the end of the body.
const MORE: u8 = 0x80;

/// Bytes `records` take in a log when they are written in this order with
/// no other record between them — what [`WalWriter::reset`] writes for
/// one run's records, which share a frame while their sequence numbers
/// follow one another: the records pushed through the shard buffer's own
/// encoder.
#[must_use]
pub fn frames_len(records: &[Record]) -> u64 {
    let mut frames = Frames::default();
    for r in records {
        frames.push(r.kind, r.run, r.seq, |out| {
            out.extend_from_slice(&r.payload);
        });
    }
    frames.seal();
    frames.buf.len() as u64
}

/// The last frame of a [`Frames`] buffer, open: its length and checksum
/// are not written yet, and its last record — at the end of the buffer —
/// carries no length.
#[derive(Clone, Copy)]
struct OpenFrame {
    /// Where the frame starts in the buffer.
    at: usize,
    /// Bytes its length takes: the minimal width of the body's length.
    width: usize,
    /// The CRC-32C of the body up to its last record.
    crc: u32,
    /// Bytes of the last record.
    last: usize,
    /// Bytes of the body.
    body: usize,
    run: u64,
    /// One past the last record's number; `None` past `u64::MAX`.
    next_seq: Option<u64>,
}

impl OpenFrame {
    /// The one batching rule: a record joins the frame when it is of the
    /// same run at the next sequence number, not a checkpoint (always a
    /// frame of its own), and the body is under
    /// [`GROUP_COMMIT_BYTE_BUDGET`].
    fn joins(&self, kind: RecordKind, run: u64, seq: u64) -> bool {
        kind != RecordKind::Checkpoint
            && run == self.run
            && Some(seq) == self.next_seq
            && self.body < GROUP_COMMIT_BYTE_BUDGET
    }
}

/// Frames encoded into one buffer: sealed ones, then at most one open
/// frame, which the next record of its run joins ([`OpenFrame::joins`]).
#[derive(Default)]
struct Frames {
    buf: Vec<u8>,
    open: Option<OpenFrame>,
}

/// A record being pushed. Dropped before it is forgotten — its payload
/// unwound — it cuts the buffer back to where the record began and puts
/// the open frame back as it was, so a shard lock poisoned by the unwind
/// guards whole frames and an open frame whose checksum covers its body
/// but its last record.
struct Unpushed<'a> {
    frames: &'a mut Frames,
    at: usize,
    open: Option<OpenFrame>,
}

impl Drop for Unpushed<'_> {
    fn drop(&mut self) {
        self.frames.buf.truncate(self.at);
        self.frames.open = self.open;
    }
}

impl Frames {
    /// Append one record, its payload written by `payload` straight into
    /// the buffer (it must only append): into the open frame when it joins
    /// it, else into a new frame, after sealing the open one. The record
    /// goes in last, with no length; the record it follows gets its
    /// length and the [`MORE`] flag and is folded into the frame's
    /// checksum here, so a seal folds in one record. Returns the bytes the
    /// record adds to the buffer — its own, the length it gives the record
    /// before it, its frame's head when it opens one (length, checksum,
    /// run, first sequence number), and the byte a body past 127 (or
    /// 16 383) bytes adds to the frame's length — so they sum to the
    /// buffer's length.
    fn push(
        &mut self,
        kind: RecordKind,
        run: u64,
        seq: u64,
        payload: impl FnOnce(&mut Vec<u8>),
    ) -> u64 {
        let at = self.buf.len();
        let joined = self.open.filter(|o| o.joins(kind, run, seq));
        if joined.is_none() {
            self.seal();
        }
        let unpushed = Unpushed {
            frames: self,
            at,
            open: joined,
        };
        let buf = &mut unpushed.frames.buf;
        // Where the frame starts, its length's width and its checksum up
        // to the record before this one.
        let (frame_at, mut width, mut crc) = match joined {
            Some(open) => (open.at, open.width, open.crc),
            None => {
                buf.extend_from_slice(&[0; 1 + CHECKSUM_BYTES]);
                let body_at = buf.len();
                put_varint(buf, run);
                put_varint(buf, seq.wrapping_add(1));
                (at, 1, crc32c(&buf[body_at..]))
            }
        };
        let record_at = buf.len();
        buf.push(kind as u8);
        payload(buf);
        std::mem::forget(unpushed);

        let last = self.buf.len() - record_at;
        if let Some(open) = joined {
            // The record before this one is last no more.
            let before = record_at - open.last;
            let payload_len = (open.last - 1) as u64;
            let mut len = [0; MAX_VARINT_BYTES];
            let len = &mut len[..varint_len(payload_len)];
            put_varint_at(len, payload_len);
            self.buf[before] |= MORE;
            self.buf.splice(before + 1..before + 1, len.iter().copied());
            crc = crc32c_extend(crc, &self.buf[before..record_at + len.len()]);
        }
        let body = self.buf.len() - (frame_at + width + CHECKSUM_BYTES);
        let needed = varint_len(body as u64);
        if needed > width {
            let grown = [0; MAX_VARINT_BYTES];
            let gap = grown[width..needed].iter().copied();
            self.buf.splice(frame_at..frame_at, gap);
            width = needed;
        }
        self.open = Some(OpenFrame {
            at: frame_at,
            width,
            crc,
            last,
            body,
            run,
            next_seq: seq.checked_add(1),
        });
        (self.buf.len() - at) as u64
    }

    /// Seal the open frame, if there is one: fold its last record into
    /// its checksum, and write its length and checksum in front of its
    /// body.
    fn seal(&mut self) {
        if let Some(open) = self.open.take() {
            let end = self.buf.len();
            let crc = crc32c_extend(open.crc, &self.buf[end - open.last..]);
            let crc_at = open.at + open.width;
            put_varint_at(&mut self.buf[open.at..crc_at], open.body as u64);
            self.buf[crc_at..crc_at + CHECKSUM_BYTES].copy_from_slice(&crc.to_le_bytes());
        }
    }
}

/// The frame at the front of `bytes`, its body length within `bodies`:
/// the body, checksum verified, and the bytes the frame took.
fn split_frame<'a>(
    bytes: &'a [u8],
    bodies: &RangeInclusive<usize>,
) -> Result<(&'a [u8], usize), String> {
    let (claimed, len_bytes) = get_varint(bytes).ok_or("unreadable body length")?;
    let body_len = usize::try_from(claimed)
        .ok()
        .filter(|len| bodies.contains(len))
        .ok_or_else(|| format!("implausible body length {claimed}"))?;
    let body_at = len_bytes + CHECKSUM_BYTES;
    let crc = bytes
        .get(len_bytes..body_at)
        .ok_or_else(|| format!("short header: {} bytes", bytes.len()))?;
    let body = bytes.get(body_at..body_at + body_len).ok_or_else(|| {
        let have = bytes.len() - body_at;
        format!("short body: want {body_len}, have {have}")
    })?;
    if crc32c(body).to_le_bytes() != crc {
        return Err("checksum mismatch".to_string());
    }
    Ok((body, body_at + body_len))
}

/// The varint at `at` in `body`, named `name` in the error; `at` moves
/// past it.
fn take_varint(body: &[u8], at: &mut usize, name: &str) -> Result<u64, String> {
    let (v, n) = get_varint(&body[*at..]).ok_or_else(|| format!("unreadable {name}"))?;
    *at += n;
    Ok(v)
}

/// Read a frame body, whole: its run and first sequence number, then
/// each record, handed to `each` in order with its run, kind, sequence
/// number and payload. A body holds at least one record; every record
/// but the last is flagged [`MORE`] and gives its payload's length, and
/// the last one's payload runs to the end of the body. A record flagged
/// [`MORE`] with no record after it, or numbered past `u64::MAX`, is
/// refused. Records handed over before an error are the caller's to
/// drop.
fn read_batch(
    body: &[u8],
    mut each: impl FnMut(u64, RecordKind, u64, &[u8]),
) -> Result<(), String> {
    let mut at = 0;
    let run = take_varint(body, &mut at, "run id")?;
    let first = take_varint(body, &mut at, "first sequence number")?.wrapping_sub(1);
    let mut seq = Some(first);
    let mut missing = "a frame with no record";
    loop {
        let &byte = body.get(at).ok_or(missing)?;
        let kind = RecordKind::from_u8(byte & !MORE)
            .ok_or_else(|| format!("unknown record kind {}", byte & !MORE))?;
        at += 1;
        let more = byte & MORE != 0;
        let payload = if more {
            let len = take_varint(body, &mut at, "payload length")?;
            usize::try_from(len)
                .ok()
                .and_then(|len| body[at..].get(..len))
                .ok_or_else(|| format!("payload length {len} past the frame"))?
        } else {
            &body[at..]
        };
        at += payload.len();
        let this = seq.ok_or("sequence number past u64::MAX")?;
        each(run, kind, this, payload);
        if !more {
            return Ok(());
        }
        seq = this.checked_add(1);
        missing = "a record flagged as followed by another ends the frame";
    }
}

/// A frame body's records, pushed onto `out`.
fn parse_batch(body: &[u8], out: &mut Vec<Record>) -> Result<(), String> {
    read_batch(body, |run, kind, seq, payload| {
        out.push(Record {
            kind,
            run,
            seq,
            payload: payload.to_vec(),
        });
    })
}

/// When appends become durable. Group commit is the one policy: an
/// append is durable after the next committer pass or `barrier()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSync {
    /// Buffer appends; a committer thread writes + fsyncs all dirty
    /// shards once per `window`, and `barrier()` forces a batch. One
    /// fsync amortized over the whole batch.
    GroupCommit { window: Duration },
}

impl Default for WalSync {
    fn default() -> Self {
        WalSync::GroupCommit {
            window: Duration::from_millis(2),
        }
    }
}

/// Typed WAL failures.
#[derive(Debug, Clone)]
pub enum WalError {
    /// An I/O error, with the operation that failed.
    Io(String),
    /// A shard file that does not start with [`FILE_HEADER`] — a log of
    /// another format version, or not a log at all. It is refused whole
    /// and left byte for byte as it was found.
    Unsupported {
        file: String,
        /// What the file starts with instead.
        found: String,
    },
    /// The writer is shutting down and cannot accept appends.
    ShuttingDown,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Unsupported { file, found } => write!(
                f,
                "{file} is not a log this build reads ({found}); left untouched"
            ),
            WalError::ShuttingDown => write!(f, "wal writer is shutting down"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<file::FileError> for WalError {
    fn from(e: file::FileError) -> Self {
        WalError::Io(e.to_string())
    }
}

/// Telemetry hooks; every method has a no-op default so tests can pass
/// a unit observer.
pub trait WalObserver: Send + Sync {
    /// One record appended (`bytes` it adds to the file, wall time
    /// including the write-through of a buffer past
    /// [`GROUP_COMMIT_BYTE_BUDGET`]).
    fn append(&self, _bytes: u64, _dur_ns: u64) {}
    /// One shard fsync completed: a committer pass's, or the final sync
    /// at shutdown.
    fn fsync(&self, _dur_ns: u64) {}
    /// A shard was rewritten without its checkpointed runs.
    fn truncation(&self, _shard: usize, _bytes_before: u64, _bytes_after: u64) {}
    /// A lifecycle transition (`"wal_reset"`, `"wal_open"`, …).
    fn lifecycle(&self, _kind: &'static str, _detail: String) {}
}

/// The default observer: drops everything.
pub struct NullObserver;

impl WalObserver for NullObserver {}

/// File name of shard `i` inside the WAL directory.
#[must_use]
pub fn shard_file_name(shard: usize) -> String {
    format!("wal-{shard:04}.wflog")
}

fn is_shard_file(name: &str) -> bool {
    name.starts_with("wal-") && name.ends_with(".wflog")
}

// ---------------------------------------------------------------------------
// Reading + recovery
// ---------------------------------------------------------------------------

/// Where and why a file's valid prefix ends.
#[derive(Debug, Clone)]
pub struct TornTail {
    pub file: String,
    /// Bytes of the file that parsed cleanly; everything after is torn.
    pub valid_bytes: u64,
    pub detail: String,
}

/// Hold the first bytes of a log file (`head`: up to `header`'s length of
/// them) against its `header`. `Ok(true)` for the whole header,
/// `Ok(false)` for an empty file or a strict prefix of it — the file was
/// being created when the process died, and holds no record — and
/// [`WalError::Unsupported`] for anything else.
fn check_header(path: &Path, header: &[u8; 8], head: &[u8]) -> Result<bool, WalError> {
    if header.starts_with(head) {
        return Ok(head.len() == header.len());
    }
    let found = match head.strip_prefix(&header[..4]) {
        Some(&[a, b, c, d]) => format!("format version {}", u32::from_le_bytes([a, b, c, d])),
        _ => format!("no log header; the file starts {head:02x?}"),
    };
    Err(WalError::Unsupported {
        file: path.display().to_string(),
        found,
    })
}

/// One log file, parsed.
#[derive(Debug)]
pub struct Scanned<T> {
    /// The records of its whole frames, in file order, up to the first
    /// frame that failed.
    pub records: Vec<T>,
    /// Bytes that parsed cleanly, header included.
    pub valid_bytes: u64,
    /// Where and why the valid prefix ends, when it is not the file.
    pub torn: Option<TornTail>,
}

/// Read the log file at `path` — `header`, then frames whose bodies are
/// `bodies` bytes long and hold one record each, handed to `parse` — up
/// to its first frame that fails, and say whether that failure is a cut:
/// the failed frame — or header — runs past the end of the file, and no
/// whole frame checks out in what follows the valid prefix, so it is the
/// start of one frame, as an append a crash cut short leaves it. A file
/// that vanished since it was listed is an empty one; a file that does
/// not start with `header` (or a prefix of it) is
/// [`WalError::Unsupported`].
pub fn scan_log<T>(
    path: &Path,
    header: &[u8; 8],
    bodies: RangeInclusive<usize>,
    mut parse: impl FnMut(&[u8]) -> Result<T, String>,
) -> Result<(Scanned<T>, bool), WalError> {
    let bytes = file::read(path)?.unwrap_or_default();
    let mut parse = |body: &[u8], out: &mut Vec<T>| {
        out.push(parse(body)?);
        Ok(())
    };
    let log = scan_bytes(path, &bytes, header, bodies.clone(), &mut parse)?;
    // Only a file cut short holds a strict prefix of its header.
    let at = log.valid_bytes as usize;
    let cut = log.torn.is_some() && (at == 0 || cut_short(&bytes[at..], &bodies, &mut parse));
    Ok((log, cut))
}

/// Read `bytes`, from the file at `path` (which names it in errors), as
/// [`scan_log`] does, `parse` pushing each frame's records — any number —
/// onto the output: the one scanner of every log in this codec. The
/// records a frame that fails pushed are dropped.
fn scan_bytes<T>(
    path: &Path,
    bytes: &[u8],
    header: &[u8; 8],
    bodies: RangeInclusive<usize>,
    mut parse: impl FnMut(&[u8], &mut Vec<T>) -> Result<(), String>,
) -> Result<Scanned<T>, WalError> {
    let head = &bytes[..bytes.len().min(header.len())];
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut detail = None;
    if check_header(path, header, head)? {
        at = header.len();
        while at < bytes.len() {
            let whole = records.len();
            let frame = split_frame(&bytes[at..], &bodies);
            match frame.and_then(|(body, len)| Ok((parse(body, &mut records)?, len))) {
                Ok(((), len)) => at += len,
                Err(why) => {
                    records.truncate(whole);
                    detail = Some(why);
                    break;
                }
            }
        }
    } else if !head.is_empty() {
        detail = Some(format!("short file header: {} bytes", head.len()));
    }
    Ok(Scanned {
        records,
        valid_bytes: at as u64,
        torn: detail.map(|detail| TornTail {
            file: path.display().to_string(),
            valid_bytes: at as u64,
            detail,
        }),
    })
}

/// Whether `tail` — the bytes from the first frame of a log that fails —
/// is what a crash cutting the last append short leaves: the start of one
/// frame, running past the end of the file, holding no whole frame that
/// `parse` reads — neither its own body, under a length that claims more
/// than the bytes after its checksum, nor a later frame.
fn cut_short<T>(
    tail: &[u8],
    bodies: &RangeInclusive<usize>,
    parse: &mut impl FnMut(&[u8], &mut Vec<T>) -> Result<(), String>,
) -> bool {
    let mut parse = |body: &[u8]| parse(body, &mut Vec::new());
    let Some((claimed, n)) = get_varint(tail) else {
        // The bytes end inside the length.
        return tail.len() < MAX_VARINT_BYTES && tail.iter().all(|b| b & 0x80 != 0);
    };
    let past_end = usize::try_from(claimed)
        .is_ok_and(|len| bodies.contains(&len) && n + CHECKSUM_BYTES + len > tail.len());
    past_end
        && tail.get(n + CHECKSUM_BYTES..).is_none_or(|body| {
            !bodies.contains(&body.len())
                || crc32c(body).to_le_bytes() != tail[n..n + CHECKSUM_BYTES]
                || parse(body).is_err()
        })
        && !(1..tail.len())
            .any(|i| split_frame(&tail[i..], bodies).is_ok_and(|(b, _)| parse(b).is_ok()))
}

/// One shard file, parsed.
fn scan_file(path: &Path) -> Result<Scanned<Record>, WalError> {
    scan_shard_bytes(path, &file::read(path)?.unwrap_or_default())
}

/// Bytes of the shard file at `path` — all of it, or the first ones —
/// parsed.
fn scan_shard_bytes(path: &Path, bytes: &[u8]) -> Result<Scanned<Record>, WalError> {
    let bodies = MIN_BODY_BYTES..=MAX_BODY_BYTES;
    scan_bytes(path, bytes, &FILE_HEADER, bodies, parse_batch)
}

/// One run's surviving records after a directory scan.
#[derive(Debug)]
pub struct RecoveredRun {
    pub run: u64,
    /// Seq-ordered, seq-deduplicated records; empty iff `checkpointed`.
    pub records: Vec<Record>,
    /// Highest sequence number seen (0 when empty).
    pub max_seq: u64,
    /// A `Checkpoint` record was found: the run is durable elsewhere
    /// and its records have been dropped.
    pub checkpointed: bool,
}

/// The result of scanning a WAL directory.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Runs in ascending run-id order.
    pub runs: Vec<RecoveredRun>,
    /// One entry per file whose tail failed validation.
    pub torn: Vec<TornTail>,
    /// Shard files scanned.
    pub files: usize,
    /// Valid bytes across all files.
    pub bytes: u64,
    /// Valid records across all files (checkpointed runs included).
    pub records: u64,
}

/// Scan `dir` for shard files and reassemble per-run record streams.
/// A missing directory is an empty recovery, not an error; a shard file
/// of another format is ([`WalError::Unsupported`]), whatever the other
/// files hold.
pub fn recover(dir: &Path) -> Result<Recovery, WalError> {
    let mut out = Recovery::default();
    let mut by_run: BTreeMap<u64, RecoveredRun> = BTreeMap::new();
    for name in file::list(dir)?.iter().filter(|n| is_shard_file(n)) {
        out.files += 1;
        let scanned = scan_file(&dir.join(name))?;
        out.bytes += scanned.valid_bytes;
        out.torn.extend(scanned.torn);
        for rec in scanned.records {
            out.records += 1;
            let entry = by_run.entry(rec.run).or_insert_with(|| RecoveredRun {
                run: rec.run,
                records: Vec::new(),
                max_seq: 0,
                checkpointed: false,
            });
            if rec.kind == RecordKind::Checkpoint {
                entry.checkpointed = true;
            } else {
                entry.records.push(rec);
            }
        }
    }
    for run in by_run.values_mut() {
        if run.checkpointed {
            run.records.clear();
            continue;
        }
        run.records.sort_by_key(|r| r.seq);
        run.records.dedup_by_key(|r| r.seq);
        run.max_seq = run.records.last().map_or(0, |r| r.seq);
    }
    out.runs = by_run.into_values().collect();
    Ok(out)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct ShardFile {
    file: file::Log,
    /// Bytes written through to the OS (not counting `frames`).
    len: u64,
    /// Frames encoded but not yet written through: the group-commit
    /// batch, its last frame open for its run's next record.
    frames: Frames,
    /// Bytes of the records of runs checkpointed since the file was last
    /// rewritten, their checkpoints included: what the next rewrite
    /// drops.
    dead: u64,
    /// A rewrite of this shard is under way: no second one starts.
    rewriting: bool,
}

impl ShardFile {
    /// Seal the open frame and write the buffer through to the OS (no
    /// fsync). A file gets its header with the first bytes it ever
    /// holds; what it has of one is a prefix ([`WalInner::open_append`]
    /// checked).
    fn flush_buf(&mut self) -> Result<(), WalError> {
        self.frames.seal();
        let buf = &mut self.frames.buf;
        if !buf.is_empty() {
            if self.len < FILE_HEADER.len() as u64 {
                self.file.write(&FILE_HEADER[self.len as usize..])?;
                self.len = FILE_HEADER.len() as u64;
            }
            self.file.write(buf)?;
            self.len += buf.len() as u64;
            buf.clear();
        }
        Ok(())
    }
}

struct Shard {
    path: PathBuf,
    state: Mutex<ShardFile>,
}

impl Shard {
    /// The shard's file state. A poisoned lock is recovered: the one
    /// body that runs caller code under it cuts its record on the way
    /// out ([`Unpushed`]), and the rest assign whole fields.
    fn lock(&self) -> MutexGuard<'_, ShardFile> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct CommitState {
    /// Barrier generations requested / completed.
    requested: u64,
    completed: u64,
    /// The latest committer pass that failed: the barrier generations
    /// it covers and what went wrong. A barrier of one of them returns
    /// the error — its appends are not on stable storage.
    failed: Option<(std::ops::RangeInclusive<u64>, WalError)>,
    stop: bool,
}

struct WalInner {
    dir: PathBuf,
    shards: Box<[Shard]>,
    obs: Box<dyn WalObserver>,
    commit: Mutex<CommitState>,
    commit_cv: Condvar,
    /// Appends since the last committer pass. Outside [`Self::commit`]
    /// so the append hot path never touches the global mutex — it is
    /// the difference between one atomic store and a cross-core lock
    /// handoff per event.
    pending: AtomicBool,
    /// Nanoseconds since `start` of the oldest buffered append not yet
    /// covered by a successful sync pass; 0 when fully synced.
    pending_since: AtomicU64,
    /// Anchor for `pending_since` stamps.
    start: Instant,
}

impl WalInner {
    /// Open a shard file for appending, creating it if need be. A file
    /// that is not a log of this format is refused before a byte is
    /// appended to it.
    fn open_append(path: &Path) -> Result<(file::Log, u64), WalError> {
        let (file, len) = file::Log::open(path)?;
        let mut head = [0u8; FILE_HEADER.len()];
        let head = &mut head[..len.min(FILE_HEADER.len() as u64) as usize];
        file.read_at(0, head)?;
        check_header(path, &FILE_HEADER, head)?;
        Ok((file, len))
    }

    /// The commit state. A poisoned lock is recovered: every holder
    /// assigns its counters and flags whole.
    fn commit(&self) -> MutexGuard<'_, CommitState> {
        self.commit.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Flush + fsync every shard with un-synced data. Returns the first
    /// error but visits every shard regardless. The fsync happens on a
    /// duplicated handle **outside** the shard lock — a millisecond-scale
    /// sync must never stall concurrent appenders (that stall, not the
    /// fsync itself, is what would sink group-commit throughput).
    fn sync_all(&self) -> Result<(), WalError> {
        let mut first_err = None;
        for shard in &self.shards {
            let res = (|| {
                let file = {
                    let mut f = shard.lock();
                    f.flush_buf()?;
                    f.file.try_clone()?
                };
                let start = Instant::now();
                file.sync()?;
                self.obs.fsync(start.elapsed().as_nanos() as u64);
                Ok(())
            })();
            if let Err(e) = res {
                first_err.get_or_insert(e);
            }
        }
        if first_err.is_none() {
            self.pending_since.store(0, Ordering::Release);
        }
        first_err.map_or(Ok(()), Err)
    }
}

/// The shard-file writer: owns the append handles and the committer
/// thread. Dropping the writer flushes and joins.
pub struct WalWriter {
    inner: Arc<WalInner>,
    committer: Mutex<Option<JoinHandle<()>>>,
}

impl WalWriter {
    /// Open (or create) a WAL directory with `shards` shard files,
    /// appending to whatever is already there, and start the committer
    /// thread that syncs them once per `policy`'s window.
    pub fn open(
        dir: &Path,
        shards: usize,
        policy: WalSync,
        obs: Box<dyn WalObserver>,
    ) -> Result<Self, WalError> {
        file::create_dir(dir)?;
        let shards = (0..shards.max(1))
            .map(|i| {
                let path = dir.join(shard_file_name(i));
                let (file, len) = WalInner::open_append(&path)?;
                Ok(Shard {
                    path,
                    state: Mutex::new(ShardFile {
                        file,
                        len,
                        frames: Frames::default(),
                        dead: 0,
                        rewriting: false,
                    }),
                })
            })
            .collect::<Result<Vec<_>, WalError>>()?;
        let inner = Arc::new(WalInner {
            dir: dir.to_path_buf(),
            shards: shards.into_boxed_slice(),
            obs,
            commit: Mutex::new(CommitState {
                requested: 0,
                completed: 0,
                failed: None,
                stop: false,
            }),
            commit_cv: Condvar::new(),
            pending: AtomicBool::new(false),
            pending_since: AtomicU64::new(0),
            start: Instant::now(),
        });
        let WalSync::GroupCommit { window } = policy;
        let committer = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("wf-wal-commit".into())
                .spawn(move || committer_loop(&inner, window))
                .map_err(|e| WalError::Io(format!("spawn committer: {e}")))?
        };
        Ok(Self {
            inner,
            committer: Mutex::new(Some(committer)),
        })
    }

    /// Rewrite the WAL directory from scratch: shard `records` across
    /// `shards` files via `route` (run id → shard index), batching each
    /// run's consecutive records as the live log does, durably replace
    /// the old files, delete any stale shard/temp files, then open for
    /// appending. Returns the writer and the bytes each run's records take
    /// in the new files — what a checkpoint of the run later makes dead. This is how recovery normalizes the log —
    /// it drops checkpointed history and re-homes records when the
    /// shard count changed across restarts. `next_run` is one past the
    /// highest run id the old log held: when no kept record reaches it,
    /// the checkpoint of `next_run - 1` is kept too, so the id is never
    /// issued again. Every file it would replace or delete must be a log
    /// of this format (or empty): one that is not fails the reset before
    /// anything is written.
    pub fn reset(
        dir: &Path,
        shards: usize,
        policy: WalSync,
        obs: Box<dyn WalObserver>,
        records: &[Record],
        next_run: u64,
        route: impl Fn(u64) -> usize,
    ) -> Result<(Self, HashMap<u64, u64>), WalError> {
        file::create_dir(dir)?;
        let names = file::list(dir)?;
        for name in names.iter().filter(|n| is_shard_file(n)) {
            WalInner::open_append(&dir.join(name))?;
        }
        let shards = shards.max(1);
        let mut files: Vec<Frames> = (0..shards)
            .map(|_| Frames {
                buf: FILE_HEADER.to_vec(),
                open: None,
            })
            .collect();
        // The checkpoint of the highest run id the old log held, unless a
        // kept record names it: the id stays known.
        let high = next_run.checked_sub(1);
        let mark = high.filter(|&h| records.iter().all(|r| r.run < h));
        let mut run_bytes: HashMap<u64, u64> = HashMap::new();
        for rec in records.iter().chain(&mark.map(Record::checkpoint)) {
            let added = files[route(rec.run) % shards].push(rec.kind, rec.run, rec.seq, |out| {
                out.extend_from_slice(&rec.payload);
            });
            *run_bytes.entry(rec.run).or_default() += added;
        }
        for (i, frames) in files.iter_mut().enumerate() {
            frames.seal();
            file::replace(&dir.join(shard_file_name(i)), &frames.buf)?;
        }
        // Drop shard files beyond the new count and the temp files a
        // crashed replace left behind.
        for name in &names {
            let kept = (0..shards).any(|i| shard_file_name(i) == *name);
            if file::is_temp(name) || (is_shard_file(name) && !kept) {
                let _ = file::remove(&dir.join(name));
            }
        }
        file::sync_dir(dir)?;
        obs.lifecycle(
            "wal_reset",
            format!("shards={shards} records={}", records.len()),
        );
        Ok((Self::open(dir, shards, policy, obs)?, run_bytes))
    }

    /// Number of shard files.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The WAL directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Append one record to `shard`: [`append_with`](Self::append_with)
    /// for a payload that already exists as bytes.
    pub fn append(&self, shard: usize, rec: &Record) -> Result<u64, WalError> {
        self.append_with(shard, rec.kind, rec.run, rec.seq, |out| {
            out.extend_from_slice(&rec.payload);
        })
    }

    /// Append one record to `shard`, its payload written by `payload`
    /// under the shard lock, straight into the shard's buffer (it must
    /// only append to the `Vec` it is handed) — a record costs no
    /// allocation and no copy beyond its own bytes. It joins the shard's
    /// open frame when that is its run's batch at the sequence number
    /// before `seq`, and opens a frame otherwise. The record is durable
    /// after the next committer pass or [`barrier`](Self::barrier). A
    /// buffer past [`GROUP_COMMIT_BYTE_BUDGET`] is written through to the
    /// OS before the record is encoded: if that write fails the record is
    /// rejected before any frame holds it, and if `payload` panics the
    /// record is cut back out, so a rejected record is never written
    /// later (frames buffered before it belong to applied ops and stay
    /// for the committer to retry). Returns the bytes the record adds to
    /// the file: its own, the payload length it gives the record before
    /// it when it joins that one's frame, its frame's head when it opens
    /// one, and the byte a longer body adds to the frame's length — the
    /// returns of a shard's appends sum to its length past the file
    /// header.
    pub fn append_with(
        &self,
        shard: usize,
        kind: RecordKind,
        run: u64,
        seq: u64,
        payload: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64, WalError> {
        let inner = &self.inner;
        let shard_ref = &inner.shards[shard % inner.shards.len()];
        let start = Instant::now();
        let added;
        {
            let mut f = shard_ref.lock();
            if f.frames.buf.len() >= GROUP_COMMIT_BYTE_BUDGET {
                // The fsync still waits for the committer.
                f.flush_buf()?;
            }
            added = f.frames.push(kind, run, seq, payload);
        }
        inner.pending.store(true, Ordering::Release);
        // Stamp the oldest-unsynced mark only if no older append already
        // holds it (max(1) keeps a zero elapsed distinct from "fully
        // synced").
        let now = (inner.start.elapsed().as_nanos() as u64).max(1);
        let _ = inner
            .pending_since
            .compare_exchange(0, now, Ordering::AcqRel, Ordering::Relaxed);
        inner.obs.append(added, start.elapsed().as_nanos() as u64);
        Ok(added)
    }

    /// Durability barrier: every append that happened-before this call
    /// is on stable storage when it returns `Ok`. It wakes the committer
    /// for a pass now, cutting its window short. A write or fsync that
    /// failed in the pass covering this call is returned, not swallowed.
    pub fn barrier(&self) -> Result<(), WalError> {
        let inner = &self.inner;
        let mut st = inner.commit();
        if !st.stop {
            st.requested += 1;
            let my_gen = st.requested;
            inner.commit_cv.notify_all();
            while st.completed < my_gen && !st.stop {
                st = inner
                    .commit_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if st.completed >= my_gen {
                return match &st.failed {
                    Some((covered, e)) if covered.contains(&my_gen) => Err(e.clone()),
                    _ => Ok(()),
                };
            }
        }
        // The committer is gone, or stopped before this generation
        // completed: sync inline.
        drop(st);
        inner.sync_all()
    }

    /// Nanoseconds the oldest buffered, un-synced append has waited for
    /// a sync pass; 0 when everything appended is flushed+synced.
    #[must_use]
    pub fn sync_lag_ns(&self) -> u64 {
        let since = self.inner.pending_since.load(Ordering::Acquire);
        if since == 0 {
            0
        } else {
            (self.inner.start.elapsed().as_nanos() as u64).saturating_sub(since)
        }
    }

    /// Stamp a `Checkpoint` record for `run` on `shard`: recovery drops
    /// every record of a checkpointed run. `bytes` is what the run's own
    /// records take in the shard (its journal counts them as it appends).
    /// The shard is rewritten without the checkpointed runs only once
    /// their bytes pass [`DEAD_HEAVY_RATIO`] of it ([`dead_heavy`]), so
    /// a checkpoint is an append and the rewrite's cost is amortised
    /// over the records it drops (`rewrite_shard`, which keeps the
    /// highest checkpoint, so no run id is issued twice). One rewrite of
    /// a shard runs at a time; a checkpoint that tips the shard while one
    /// is under way leaves its dead bytes to the next.
    pub fn checkpoint(&self, shard: usize, run: u64, bytes: u64) -> Result<(), WalError> {
        let marker = self.append(shard, &Record::checkpoint(run))?;
        let shard = shard % self.inner.shards.len();
        {
            let mut f = self.inner.shards[shard].lock();
            f.dead += bytes + marker;
            if f.rewriting || !dead_heavy(f.dead, f.len + f.frames.buf.len() as u64) {
                return Ok(());
            }
            f.rewriting = true;
        }
        let rewritten = self.rewrite_shard(shard);
        self.inner.shards[shard].lock().rewriting = false;
        rewritten
    }

    /// Rewrite shard `shard_idx` without the frames of the runs
    /// checkpointed in it, but the checkpoint of the highest one, and
    /// durably replace the file. A frame holds one run, so the kept
    /// frames are copied byte for byte: nothing is decoded into records
    /// or checksummed again. The shard lock is taken twice, briefly: to
    /// flush the buffer and note how far the file reaches, and, once the
    /// frames up to there are read and filtered with the lock free, to
    /// copy the frames appended since behind the kept ones, replace the
    /// file and reopen it. Appends to the shard go on meanwhile; they
    /// wait only for that copy and the replace.
    fn rewrite_shard(&self, shard_idx: usize) -> Result<(), WalError> {
        let shard_ref = &self.inner.shards[shard_idx];
        let (file, scanned, dead) = {
            let mut f = shard_ref.lock();
            f.flush_buf()?;
            (f.file.try_clone()?, f.len, f.dead)
        };
        let mut bytes = vec![0; scanned as usize];
        file.read_at(0, &mut bytes)?;
        drop(file);
        // Each frame's run, whether it holds a checkpoint, and its bytes.
        let bodies = MIN_BODY_BYTES..=MAX_BODY_BYTES;
        let frames = scan_bytes(
            &shard_ref.path,
            &bytes,
            &FILE_HEADER,
            bodies,
            |body, out| {
                let (mut named, mut checkpoint) = (0, false);
                read_batch(body, |run, kind, _, _| {
                    named = run;
                    checkpoint |= kind == RecordKind::Checkpoint;
                })?;
                out.push((named, checkpoint, frame_len(body.len())));
                Ok(())
            },
        )?
        .records;
        let checkpointed: HashSet<u64> = frames
            .iter()
            .filter(|&&(_, checkpoint, _)| checkpoint)
            .map(|&(run, ..)| run)
            .collect();
        // The highest checkpoint stays: its run id stays known.
        let high = checkpointed.iter().max().copied();
        let mut buf = FILE_HEADER.to_vec();
        let mut at = FILE_HEADER.len();
        for &(run, checkpoint, len) in &frames {
            if !checkpointed.contains(&run) || checkpoint && Some(run) == high {
                buf.extend_from_slice(&bytes[at..at + len]);
            }
            at += len;
        }
        drop(bytes);
        #[cfg(test)]
        tests::while_unlocked();
        let mut f = shard_ref.lock();
        f.flush_buf()?;
        let before = f.len;
        let kept = buf.len();
        buf.resize(kept + (before - scanned) as usize, 0);
        f.file.read_at(scanned, &mut buf[kept..])?;
        file::replace(&shard_ref.path, &buf)?;
        let (file, len) = WalInner::open_append(&shard_ref.path)?;
        // What was checkpointed during the scan is still in the file.
        (f.file, f.len, f.dead) = (file, len, f.dead - dead);
        self.inner.obs.truncation(shard_idx, before, len);
        Ok(())
    }

    /// Flush everything and stop the committer. Idempotent; also runs
    /// on drop.
    pub fn shutdown(&self) {
        self.inner.commit().stop = true;
        self.inner.commit_cv.notify_all();
        // The handle is only ever taken, so a poisoned lock still holds
        // a consistent `Option`.
        let handle = self
            .committer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        let _ = self.inner.sync_all();
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Committer body: once per window (or immediately on a barrier
/// request), flush + fsync every dirty shard and publish the completed
/// generation — with the pass's error, when it had one.
fn committer_loop(inner: &WalInner, window: Duration) {
    loop {
        let (snapshot, stop, dirty) = {
            let mut st = inner.commit();
            // Pace to the window: at most one fsync per `window` under a
            // steady append stream — that is the whole point of group
            // commit. Only a barrier request (or shutdown) cuts the wait
            // short; mere pending appends wait out the window, otherwise
            // a busy stream degenerates into fsync-per-pass and the
            // committer starves the writing threads of CPU and disk.
            if !st.stop && st.requested == st.completed {
                st = inner
                    .commit_cv
                    .wait_timeout(st, window)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            // Idle windows skip the sync pass entirely — no point
            // cycling every shard lock when nothing was appended and
            // nobody is waiting on a barrier.
            let dirty = inner.pending.swap(false, Ordering::AcqRel)
                || st.requested > st.completed
                || st.stop;
            (st.requested, st.stop, dirty)
        };
        let failure = if dirty { inner.sync_all().err() } else { None };
        if let Some(e) = &failure {
            inner.obs.lifecycle("wal_sync_failed", e.to_string());
        }
        {
            let mut st = inner.commit();
            if let Some(e) = failure {
                // The pass stands for every generation up to its
                // snapshot — and, when nobody was waiting, for the next
                // one: that barrier's caller may have appended what this
                // pass failed to sync, and a later fsync succeeding says
                // nothing about those bytes.
                let first = st.completed + 1;
                st.failed = Some((first..=snapshot.max(first), e));
            }
            st.completed = st.completed.max(snapshot);
            inner.commit_cv.notify_all();
        }
        if stop {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!(
                "wf-wal-test-{}-{}-{}",
                std::process::id(),
                tag,
                seq
            ));
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Parse the log frame at the front of `bytes`: its records and the
    /// bytes it took, or why the bytes are not a frame — what the scanner
    /// does with each frame of a shard.
    fn parse_frame(bytes: &[u8]) -> Result<(Vec<Record>, usize), String> {
        let (body, len) = split_frame(bytes, &(MIN_BODY_BYTES..=MAX_BODY_BYTES))?;
        let mut records = Vec::new();
        parse_batch(body, &mut records)?;
        Ok((records, len))
    }

    /// `records` encoded as the shard buffer encodes them, every frame
    /// sealed, and what each push returned.
    fn encode(records: &[Record]) -> (Vec<u8>, Vec<u64>) {
        let mut frames = Frames::default();
        let added = records
            .iter()
            .map(|r| {
                frames.push(r.kind, r.run, r.seq, |out| {
                    out.extend_from_slice(&r.payload);
                })
            })
            .collect();
        frames.seal();
        (frames.buf, added)
    }

    /// Where each frame of the shard bytes `file` ends, and how many
    /// records it holds.
    fn frame_ends(file: &[u8]) -> Vec<(usize, usize)> {
        let mut at = FILE_HEADER.len();
        let mut ends = Vec::new();
        while at < file.len() {
            let (records, len) = parse_frame(&file[at..]).unwrap();
            at += len;
            ends.push((at, records.len()));
        }
        ends
    }

    /// Parse every valid frame of one WAL file. Corruption mid-file is
    /// not an error: the valid prefix is returned along with a
    /// [`TornTail`] describing the cut (a crash can tear the last frame;
    /// anything after the first bad frame is untrusted). A file that does
    /// not start with [`FILE_HEADER`] is an error — a log of another
    /// format is not a tail torn at offset 0.
    fn read_records(path: &Path) -> Result<(Vec<Record>, Option<TornTail>), WalError> {
        scan_file(path).map(|s| (s.records, s.torn))
    }

    thread_local! {
        /// Run once, on the rewriting thread, while a shard rewrite holds
        /// no lock.
        static WHILE_UNLOCKED: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
            const { std::cell::RefCell::new(None) };
    }

    /// The rewrite's unlocked stretch, as a test sees it.
    pub(super) fn while_unlocked() {
        if let Some(hook) = WHILE_UNLOCKED.with(|h| h.borrow_mut().take()) {
            hook();
        }
    }

    fn rec(kind: RecordKind, run: u64, seq: u64, payload: &[u8]) -> Record {
        Record {
            kind,
            run,
            seq,
            payload: payload.to_vec(),
        }
    }

    /// An hour's window: only a barrier runs a pass.
    fn barrier_only() -> WalSync {
        WalSync::GroupCommit {
            window: Duration::from_secs(3600),
        }
    }

    #[test]
    fn roundtrip_records_through_group_commit() {
        let dir = TempDir::new("roundtrip");
        let w = WalWriter::open(dir.path(), 2, barrier_only(), Box::new(NullObserver)).unwrap();
        let shard_len = |shard| {
            std::fs::metadata(dir.path().join(shard_file_name(shard)))
                .unwrap()
                .len()
        };
        // Appends stay in the shard buffer until a pass; the barrier's
        // writes each frame behind the file header, which goes out with
        // a file's first bytes. Run 1's two records share a frame.
        let mut on_disk = [FILE_HEADER.len() as u64; 2];
        let written = [
            (0, rec(RecordKind::RunOpen, 1, 0, &[7, 7])),
            (0, rec(RecordKind::Event, 1, 1, b"payload")),
            (1, rec(RecordKind::Event, 2, 1, &[])),
        ];
        for (shard, r) in &written {
            on_disk[*shard] += w.append(*shard, r).unwrap();
            assert_eq!(shard_len(*shard), 0, "shard {shard}");
        }
        w.barrier().unwrap();
        assert_eq!([shard_len(0), shard_len(1)], on_disk);
        let frames = [&written[..2], &written[2..]]
            .map(|w| frames_len(&w.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>()));
        assert_eq!(on_disk, frames.map(|f| FILE_HEADER.len() as u64 + f));
        w.shutdown();
        let rec0 = recover(dir.path()).unwrap();
        assert_eq!(rec0.files, 2);
        assert_eq!(rec0.records, 3);
        assert!(rec0.torn.is_empty());
        assert_eq!(rec0.runs.len(), 2);
        assert_eq!(rec0.runs[0].run, 1);
        assert_eq!(rec0.runs[0].records.len(), 2);
        assert_eq!(rec0.runs[0].records[1].payload, b"payload");
        assert_eq!(rec0.runs[0].max_seq, 1);
    }

    /// Three frames, byte for byte: the format's golden. A run's batch of
    /// three records — the first two flagged and giving their lengths,
    /// the last one's payload running to the end — a lone record of a
    /// run and a sequence number whose varints take two bytes, and a
    /// checkpoint.
    fn golden_frames() -> [(Vec<Record>, &'static [u8]); 3] {
        [
            (
                vec![
                    rec(RecordKind::RunOpen, 1, 0, &[7, 0, 0, 0, 1]),
                    rec(RecordKind::Event, 1, 1, &[0xaa, 0xbb, 0xcc]),
                    rec(RecordKind::Complete, 1, 2, &[]),
                ],
                &[
                    0x0f, // body length
                    0xce, 0x72, 0x89, 0x87, // CRC-32C of the body
                    0x01, 0x01, // run 1, first seq 0 as 0 + 1
                    0x80, 0x05, 0x07, 0x00, 0x00, 0x00, 0x01, // kind | MORE, length, payload
                    0x81, 0x03, 0xaa, 0xbb, 0xcc, // seq 1
                    0x02, // seq 2, the last: no length
                ],
            ),
            (
                vec![rec(RecordKind::Event, 300, 129, &[0xaa, 0xbb, 0xcc])],
                &[
                    0x08, //
                    0x81, 0xc6, 0x34, 0xa5, //
                    0xac, 0x02, 0x82, 0x01, // run 300, seq 129 as 130
                    0x01, 0xaa, 0xbb, 0xcc,
                ],
            ),
            (
                vec![Record::checkpoint(5)],
                &[
                    0x03, //
                    0xea, 0x66, 0xab, 0x48, //
                    0x05, 0x00, // run 5, `CHECKPOINT_SEQ` as 0
                    0x03,
                ],
            ),
        ]
    }

    /// The format, byte for byte: a change to the header, the frame
    /// layout or a varint shows up here before it shows up as a log the
    /// previous build cannot read.
    #[test]
    fn frame_layout_is_pinned() {
        assert_eq!(FILE_HEADER, [b'W', b'F', b'W', b'L', 4, 0, 0, 0]);
        let dir = TempDir::new("golden");
        let w = WalWriter::open(dir.path(), 1, WalSync::default(), Box::new(NullObserver)).unwrap();
        let mut file = FILE_HEADER.to_vec();
        for (records, bytes) in &golden_frames() {
            assert_eq!(encode(records).0, *bytes, "{records:?}");
            assert_eq!(frames_len(records), bytes.len() as u64, "{records:?}");
            assert_eq!(parse_frame(bytes), Ok((records.clone(), bytes.len())));
            for r in records {
                w.append(0, r).unwrap();
            }
            file.extend_from_slice(bytes);
        }
        drop(w);
        assert_eq!(
            std::fs::read(dir.path().join(shard_file_name(0))).unwrap(),
            file
        );
    }

    /// A lone record — one whose frame no record of its run joins, as
    /// under interleaved traffic — pays the fields of one record per frame
    /// and nothing for batching: its length, checksum, run, `seq + 1`,
    /// kind and payload, with no payload length. Each further record of a
    /// batch adds its kind, its payload and the length the record before
    /// it now gives.
    #[test]
    fn a_lone_record_pays_for_no_batching() {
        for (run, seq) in [(0, 0), (3, 126), (300, 129), (1 << 20, 1 << 40)] {
            for payload in [0, 1, 7, 120, 121, 122, 200, 16_380] {
                let lone = rec(RecordKind::Event, run, seq, &vec![1; payload]);
                let body = varint_len(run) + varint_len(seq + 1) + 1 + payload;
                let fields = varint_len(body as u64) + CHECKSUM_BYTES + body;
                assert_eq!(frames_len(std::slice::from_ref(&lone)), fields as u64);
                let next = rec(RecordKind::Event, run, seq + 1, &[2; 9]);
                let mut pair = encode(&[lone, next]).1;
                let added = pair.pop().unwrap();
                let grown = varint_len((body + 1 + varint_len(payload as u64) + 10) as u64)
                    - varint_len(body as u64);
                assert_eq!(added, (1 + 9 + varint_len(payload as u64) + grown) as u64);
            }
        }
    }

    /// A body of 128 bytes or more takes a longer length, and so does a
    /// payload that is not a frame's last: a lone record whose body
    /// straddles 128 or 16 384 bytes, and batches that cross 128 bytes on
    /// their 2nd…20th record, in one step or by one byte, their payloads
    /// under and over 127 bytes. The byte a crossing adds to the frame's
    /// length is counted to the record that crossed, so the pushes sum to
    /// the bytes, and the frame reads back as its records.
    #[test]
    fn lengths_past_one_byte_are_counted_to_the_record_that_crossed() {
        // Bodies of 125…129 and 16 382…16 384 bytes.
        let mut cases: Vec<Vec<Record>> = [122, 123, 124, 125, 126, 16_379, 16_380, 16_381]
            .iter()
            .map(|&n| vec![rec(RecordKind::Event, 0, 0, &vec![0x5a; n])])
            .collect();
        for records in 2..=20u64 {
            for payload in [0, 7, 8, 120, 127, 128] {
                cases.push(
                    (0..records)
                        .map(|seq| rec(RecordKind::Event, 9, seq, &vec![seq as u8; payload]))
                        .collect(),
                );
            }
        }
        for records in &cases {
            let (bytes, added) = encode(records);
            assert_eq!(added.iter().sum::<u64>(), bytes.len() as u64);
            assert_eq!(parse_frame(&bytes), Ok((records.clone(), bytes.len())));
        }
    }

    /// Call `check` with every burst of at most 32 bits inside `bits`
    /// bits: its first bit and a mask whose lowest and highest set bits
    /// are the burst's ends. A burst of `n` bits has `2^(n-2)` interiors;
    /// each gets the empty one, the full one and four drawn from `seed`.
    fn for_each_burst(bits: usize, mut seed: u64, mut check: impl FnMut(usize, u64)) {
        for start in 0..bits {
            for len in 1..=32.min(bits - start) {
                let ends = 1u64 | 1 << (len - 1);
                let inside = (1u64 << len) - 1;
                let mut masks = vec![ends, inside];
                for _ in 0..4 {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    masks.push(ends | (seed & inside));
                }
                for mask in masks {
                    check(start, mask);
                }
            }
        }
    }

    /// Every single-bit flip, and every burst of up to 32 bits, inside
    /// the body of each golden frame is refused: a CRC-32 detects every
    /// burst no longer than itself, which FNV-1a never guaranteed.
    #[test]
    fn every_burst_of_up_to_32_bits_in_a_frame_body_is_refused() {
        let mut bursts = 0;
        for (records, bytes) in golden_frames() {
            let body_at = 1 + CHECKSUM_BYTES;
            let body_bits = (bytes.len() - body_at) * 8;
            for_each_burst(body_bits, records[0].run ^ 0x5eed, |start, mask| {
                let mut hit = bytes.to_vec();
                for bit in (0..64).filter(|i| mask >> i & 1 == 1) {
                    let at = body_at * 8 + start + bit;
                    hit[at / 8] ^= 1 << (at % 8);
                }
                assert_eq!(
                    parse_frame(&hit),
                    Err("checksum mismatch".to_string()),
                    "{records:?}: burst {mask:#x} at bit {start}"
                );
                bursts += 1;
            });
        }
        assert!(bursts > 3 * 32 * 8, "{bursts} bursts");
    }

    #[test]
    fn varints_have_one_encoding_each() {
        for v in [
            0,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, v);
            assert_eq!(bytes.len(), varint_len(v), "{v}");
            assert_eq!(get_varint(&bytes), Some((v, bytes.len())), "{v}");
            // Bytes after it are not its business; bytes missing are.
            bytes.push(0xff);
            assert_eq!(get_varint(&bytes), Some((v, bytes.len() - 1)), "{v}");
            assert_eq!(get_varint(&bytes[..bytes.len() - 2]), None, "{v}");
        }
        // Not minimal, an eleventh byte, a 65th bit.
        assert_eq!(get_varint(&[0x80, 0x00]), None);
        assert_eq!(get_varint(&[0xff; 11]), None);
        let mut wide = [0xff; 10];
        wide[9] = 0x02;
        assert_eq!(get_varint(&wide), None);
    }

    /// Cut a small multi-frame shard at every byte and flip every bit
    /// of it, file header included: the reader returns a prefix of what
    /// was written, whole frames only — with a tear reported unless the
    /// cut fell on a frame boundary — or refuses the file by its header.
    /// It never returns a record that was not written.
    #[test]
    fn torn_tail_truncates_at_first_bad_frame() {
        let dir = TempDir::new("torn");
        let w = WalWriter::open(dir.path(), 1, WalSync::default(), Box::new(NullObserver)).unwrap();
        let written = [
            rec(RecordKind::RunOpen, 9, 0, &[0, 0, 0, 0, 1]),
            rec(RecordKind::Event, 9, 1, &[1; 16]),
            rec(RecordKind::Event, 300, 129, &[2; 3]),
            rec(RecordKind::Event, 9, 2, &[3; 130]),
            rec(RecordKind::Complete, 9, 3, &[]),
            Record::checkpoint(300),
        ];
        for r in &written {
            w.append(0, r).unwrap();
        }
        drop(w);
        let path = dir.path().join(shard_file_name(0));
        let full = std::fs::read(&path).unwrap();
        // Offsets at which a whole number of frames ends, and the records
        // those frames hold: run 9's first two, run 300's event, run 9's
        // next two under a two-byte length, the checkpoint.
        let mut boundaries = vec![FILE_HEADER.len()];
        let mut held = vec![0];
        for frame in [&written[..2], &written[2..3], &written[3..5], &written[5..]] {
            boundaries.push(boundaries.last().unwrap() + frames_len(frame) as usize);
            held.push(held.last().unwrap() + frame.len());
        }
        assert_eq!(*boundaries.last().unwrap(), full.len());
        assert_eq!(frame_ends(&full), [(39, 2), (52, 1), (194, 2), (203, 1)]);

        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (records, torn) = read_records(&path).unwrap();
            let whole = boundaries.iter().rposition(|&b| b <= cut).unwrap_or(0);
            assert_eq!(records, written[..held[whole]], "cut at {cut}");
            match torn {
                None => assert!(cut == 0 || boundaries.contains(&cut), "cut at {cut}"),
                Some(torn) => {
                    let valid = if cut < FILE_HEADER.len() {
                        0
                    } else {
                        boundaries[whole]
                    };
                    assert_eq!(torn.valid_bytes, valid as u64, "cut at {cut}");
                    assert!(!boundaries.contains(&cut), "cut at {cut}");
                }
            }
        }
        for bit in 0..full.len() * 8 {
            let mut flipped = full.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &flipped).unwrap();
            match read_records(&path) {
                Ok((records, torn)) => {
                    // The frame holding the flipped bit is where it ends.
                    let hit = boundaries.iter().rposition(|&b| b <= bit / 8).unwrap();
                    assert_eq!(records, written[..held[hit]], "bit {bit}");
                    assert_eq!(torn.unwrap().valid_bytes, boundaries[hit] as u64);
                }
                Err(WalError::Unsupported { file, .. }) => {
                    assert!(bit / 8 < FILE_HEADER.len(), "bit {bit}");
                    assert_eq!(file, path.display().to_string());
                }
                Err(e) => panic!("bit {bit}: {e}"),
            }
            assert_eq!(
                std::fs::read(&path).unwrap(),
                flipped,
                "bit {bit}: rewritten"
            );
        }
    }

    /// A shard file that is not a version-4 log — a version-1 one (frames
    /// from offset 0, no header), a version-2 one (one record per frame
    /// under a 64-bit FNV-1a), a version-3 one (one record per frame
    /// under the CRC-32C), a later version, a stray file — is refused by
    /// every door, named in the error, and left as it was; an empty file
    /// or the first bytes of a header is a log with no records, completed
    /// by the first append.
    #[test]
    fn a_file_of_another_format_is_refused_and_left_untouched() {
        let mut v1 = 22u32.to_le_bytes().to_vec(); // `[len: u32][fnv: u64][body]`
        v1.extend_from_slice(&[0x11; 8 + 22]);
        // `[len: varint][fnv: u64][kind][run][seq + 1]` behind the
        // version-2 header: the version-2 frame of `Record::checkpoint(5)`.
        let mut v2 = FILE_HEADER.to_vec();
        v2[4] = 2;
        v2.extend_from_slice(&[0x03, 0x2f, 0x9e, 0x05, 0x71, 0x18, 0x8b, 0x07, 0xe2]);
        v2.extend_from_slice(&[0x03, 0x05, 0x00]);
        // The same body under a CRC-32C: its version-3 frame.
        let mut v3 = FILE_HEADER.to_vec();
        v3[4] = 3;
        v3.extend_from_slice(&[0x03, 0xa2, 0x9a, 0x62, 0xd7, 0x03, 0x05, 0x00]);
        let mut v5 = FILE_HEADER.to_vec();
        v5[4] = 5;
        for (alien, found) in [
            (v1.as_slice(), "no log header"),
            (v2.as_slice(), "format version 2"),
            (v3.as_slice(), "format version 3"),
            (v5.as_slice(), "format version 5"),
            (&b"WFW?"[..], "no log header"),
        ] {
            let dir = TempDir::new("alien");
            let path = dir.path().join(shard_file_name(1));
            std::fs::write(&path, alien).unwrap();
            let refused = |res: Result<(), WalError>| match res {
                Err(WalError::Unsupported { file, found: f }) => {
                    assert_eq!(file, path.display().to_string());
                    assert!(f.contains(found), "{f}");
                    assert_eq!(std::fs::read(&path).unwrap(), alien);
                }
                other => panic!("{found}: {other:?}"),
            };
            refused(read_records(&path).map(drop));
            refused(recover(dir.path()).map(drop));
            let open = |shards| {
                WalWriter::open(
                    dir.path(),
                    shards,
                    WalSync::default(),
                    Box::new(NullObserver),
                )
            };
            refused(open(2).map(drop));
            // One shard: the alien file is a stale one the reset would
            // delete; two: one it would replace.
            for shards in [1, 2] {
                refused(
                    WalWriter::reset(
                        dir.path(),
                        shards,
                        WalSync::default(),
                        Box::new(NullObserver),
                        &[],
                        0,
                        |run| run as usize,
                    )
                    .map(drop),
                );
            }
        }
        for created in 0..FILE_HEADER.len() {
            let dir = TempDir::new("created");
            let path = dir.path().join(shard_file_name(0));
            std::fs::write(&path, &FILE_HEADER[..created]).unwrap();
            let (records, torn) = read_records(&path).unwrap();
            assert!(records.is_empty());
            assert_eq!(torn.is_some(), created > 0);
            let w =
                WalWriter::open(dir.path(), 1, WalSync::default(), Box::new(NullObserver)).unwrap();
            let first = rec(RecordKind::RunOpen, 4, 0, &[9]);
            w.append(0, &first).unwrap();
            drop(w);
            assert_eq!(read_records(&path).unwrap().0, [first], "{created}");
        }
    }

    /// A checkpoint is an append: the shard is rewritten without the
    /// checkpointed runs only once their bytes pass `DEAD_HEAVY_RATIO` of
    /// it, and the rewrite keeps the highest checkpointed run id when no
    /// kept record reaches it.
    #[test]
    fn checkpoints_append_until_their_runs_are_dead_heavy() {
        let dir = TempDir::new("ckpt");
        let w = WalWriter::open(dir.path(), 1, WalSync::default(), Box::new(NullObserver)).unwrap();
        let mut bytes = [0u64; 4];
        for seq in 0..8 {
            for run in 1..=3u64 {
                let r = rec(RecordKind::Event, run, seq, &[run as u8; 32]);
                bytes[run as usize] += w.append(0, &r).unwrap();
            }
        }
        let len = || {
            w.barrier().unwrap();
            std::fs::metadata(dir.path().join(shard_file_name(0)))
                .unwrap()
                .len()
        };
        // A third of the records is not past 0.3 of the shard once the
        // marker is in: run 1's checkpoint appends.
        let full = len();
        w.checkpoint(0, 1, bytes[1] / 2).unwrap();
        assert_eq!(len(), full + frames_len(&[Record::checkpoint(1)]));
        assert_eq!(recover(dir.path()).unwrap().runs.len(), 3);
        // Run 3's pushes the dead share past it: the rewrite keeps run 2
        // alone, and run 3's checkpoint for its id.
        w.checkpoint(0, 3, bytes[3]).unwrap();
        let recovery = recover(dir.path()).unwrap();
        let runs: Vec<(u64, usize, bool)> = recovery
            .runs
            .iter()
            .map(|r| (r.run, r.records.len(), r.checkpointed))
            .collect();
        assert_eq!(runs, [(2, 8, false), (3, 0, true)]);
        assert!(len() < full, "the rewrite shrank the shard");
    }

    /// A rewrite reads and filters the shard with its lock free: records
    /// appended meanwhile — from the rewriting thread itself, which would
    /// deadlock on a held lock — and a checkpoint among them land behind
    /// the kept records, and a checkpoint that tips the shard again
    /// during the rewrite starts no second one. The kept frames — run 2's
    /// two batches of four — are copied byte for byte. The rewritten
    /// shard is whole frames, every cut of it at a frame boundary
    /// recovers those frames' records, and recovery replays every
    /// surviving run in sequence: the scanned runs the rewrite kept, the
    /// runs appended during it, the highest checkpoint of the scanned
    /// part (run 3) and the checkpoint taken during it (run 5).
    #[test]
    fn a_rewrite_scans_unlocked_and_keeps_what_was_appended_meanwhile() {
        let dir = TempDir::new("rewrite-unlocked");
        let path = dir.path().join(shard_file_name(0));
        let w = Arc::new(
            WalWriter::open(dir.path(), 1, barrier_only(), Box::new(NullObserver)).unwrap(),
        );
        let event = |run: u64, seq| rec(RecordKind::Event, run, seq, &[run as u8; 32]);
        let mut bytes = [0u64; 6];
        for burst in [0..4, 4..8] {
            for run in 1..=3 {
                for seq in burst.clone() {
                    bytes[run as usize] += w.append(0, &event(run, seq)).unwrap();
                }
            }
        }
        w.barrier().unwrap();
        let run2: Vec<u8> = {
            let file = std::fs::read(&path).unwrap();
            let ends = frame_ends(&file);
            assert_eq!(ends.len(), 6);
            // Run 2's batches are the second and the fifth frame.
            [(ends[0].0, ends[1].0), (ends[3].0, ends[4].0)]
                .iter()
                .flat_map(|&(from, to)| file[from..to].to_vec())
                .collect()
        };
        let during = Arc::clone(&w);
        let ran = Arc::new(AtomicBool::new(false));
        let ran_in_hook = Arc::clone(&ran);
        WHILE_UNLOCKED.with(|h| {
            *h.borrow_mut() = Some(Box::new(move || {
                let mut run5 = 0;
                for seq in 0..4 {
                    during.append(0, &event(4, seq)).unwrap();
                    run5 += during.append(0, &event(5, seq)).unwrap();
                }
                // Past the dead-heavy share on its own: flagged, no rewrite.
                during.checkpoint(0, 5, 40 * run5).unwrap();
                ran_in_hook.store(true, Ordering::SeqCst);
            }))
        });
        w.checkpoint(0, 1, bytes[1] / 2).unwrap();
        assert!(
            !ran.load(Ordering::SeqCst),
            "run 1's checkpoint only appends"
        );
        w.checkpoint(0, 3, bytes[3]).unwrap();
        assert!(ran.load(Ordering::SeqCst), "run 3's tipped the shard");
        w.barrier().unwrap();
        let (records, torn) = read_records(&path).unwrap();
        assert!(torn.is_none());
        let shape: Vec<(u64, RecordKind)> = records.iter().map(|r| (r.run, r.kind)).collect();
        let mut want: Vec<(u64, RecordKind)> = vec![(2, RecordKind::Event); 8];
        want.push((3, RecordKind::Checkpoint));
        for _ in 0..4 {
            want.extend([(4, RecordKind::Event), (5, RecordKind::Event)]);
        }
        want.push((5, RecordKind::Checkpoint));
        assert_eq!(shape, want);
        // The checkpoint taken during the rewrite is still dead weight:
        // the next checkpoint rewrites the shard again.
        assert!(w.inner.shards[0].lock().dead > 0);

        let recovery = recover(dir.path()).unwrap();
        let runs: Vec<(u64, Vec<u64>, bool)> = recovery
            .runs
            .iter()
            .map(|r| {
                (
                    r.run,
                    r.records.iter().map(|r| r.seq).collect(),
                    r.checkpointed,
                )
            })
            .collect();
        assert_eq!(
            runs,
            [
                (2, (0..8).collect(), false),
                (3, vec![], true),
                (4, (0..4).collect(), false),
                (5, vec![], true),
            ]
        );
        // Run 2's frames, byte for byte, right behind the header.
        let file = std::fs::read(&path).unwrap();
        assert_eq!(file[FILE_HEADER.len()..][..run2.len()], run2);
        // Prefix replay: every frame-boundary cut of the rewritten shard
        // reads back the records of the frames it keeps, no torn tail.
        let mut cuts = vec![(FILE_HEADER.len(), 0)];
        for (end, held) in frame_ends(&file) {
            cuts.push((end, cuts.last().unwrap().1 + held));
        }
        for &(cut, k) in &cuts {
            let (prefix, torn) = scan_shard_bytes(&path, &file[..cut])
                .map(|s| (s.records, s.torn))
                .unwrap();
            assert!(torn.is_none(), "cut {cut}");
            assert_eq!(prefix, records[..k]);
        }
        assert_eq!(*cuts.last().unwrap(), (file.len(), records.len()));
    }

    /// Three runs append bursts of random length in random order, beside
    /// committer passes that land where they will (a 1 ms window),
    /// barriers and checkpoints of other runs, on one shard and on two:
    /// recovery returns every record with its sequence number, and what
    /// the appends returned sums to each shard's length past its header.
    #[test]
    fn interleaved_bursts_recover_whole_and_their_bytes_sum_to_the_shard() {
        for shards in [1, 2] {
            let dir = TempDir::new("bursts");
            let policy = WalSync::GroupCommit {
                window: Duration::from_millis(1),
            };
            let w = WalWriter::open(dir.path(), shards, policy, Box::new(NullObserver)).unwrap();
            let mut state = 0x2545_F491_4F6C_DD1Du64 ^ shards as u64;
            let mut draw = |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let mut added = vec![0u64; shards];
            let mut next_seq = [0u64; 3];
            let mut written: Vec<Vec<Record>> = vec![Vec::new(); 3];
            let mut checkpointed = Vec::new();
            for step in 0..400u64 {
                let run = draw(3) as usize;
                let shard = run % shards;
                for _ in 0..1 + draw(12) {
                    let seq = next_seq[run];
                    next_seq[run] += 1;
                    let kind = if seq == 0 {
                        RecordKind::RunOpen
                    } else {
                        RecordKind::Event
                    };
                    let payload = vec![seq as u8; draw(24) as usize];
                    let r = rec(kind, run as u64, seq, &payload);
                    added[shard] += w.append(shard, &r).unwrap();
                    written[run].push(r);
                }
                match draw(16) {
                    0 => w.barrier().unwrap(),
                    1 => {
                        // A run with no records here: its checkpoint is a
                        // frame of its own, and drops nothing.
                        let other = 100 + step;
                        let shard = other as usize % shards;
                        w.checkpoint(shard, other, 0).unwrap();
                        added[shard] += frames_len(&[Record::checkpoint(other)]);
                        checkpointed.push(other);
                    }
                    2 => std::thread::sleep(Duration::from_millis(2)),
                    _ => {}
                }
            }
            drop(w);
            for (shard, added) in added.iter().enumerate() {
                let len = std::fs::metadata(dir.path().join(shard_file_name(shard)))
                    .unwrap()
                    .len();
                assert_eq!(*added, len - FILE_HEADER.len() as u64, "shard {shard}");
            }
            let recovery = recover(dir.path()).unwrap();
            assert!(recovery.torn.is_empty(), "{:?}", recovery.torn);
            let total: usize = written.iter().map(Vec::len).sum();
            assert_eq!(recovery.records as usize, total + checkpointed.len());
            for r in &recovery.runs {
                match written.get(r.run as usize) {
                    Some(records) => {
                        assert!(!r.checkpointed);
                        assert_eq!(r.records, *records, "run {}", r.run);
                        assert_eq!(r.max_seq, records.len() as u64 - 1);
                    }
                    None => assert!(r.checkpointed && checkpointed.contains(&r.run)),
                }
            }
            assert_eq!(recovery.runs.len(), 3 + checkpointed.len());
        }
    }

    #[test]
    fn reset_rehomes_records_and_drops_stale_files() {
        let dir = TempDir::new("reset");
        // Seed a 4-shard layout plus an orphaned temp file.
        let w = WalWriter::open(dir.path(), 4, WalSync::default(), Box::new(NullObserver)).unwrap();
        for run in 0..8u64 {
            w.append(run as usize % 4, &rec(RecordKind::RunOpen, run, 0, &[]))
                .unwrap();
        }
        w.shutdown();
        drop(w);
        std::fs::write(dir.path().join("wal-0009.wflog.tmp"), b"junk").unwrap();
        let survivors: Vec<Record> = recover(dir.path())
            .unwrap()
            .runs
            .into_iter()
            .filter(|r| r.run % 2 == 0)
            .flat_map(|r| r.records)
            .collect();
        // Re-home into a 2-shard layout keeping only even runs.
        let (w, run_bytes) = WalWriter::reset(
            dir.path(),
            2,
            WalSync::default(),
            Box::new(NullObserver),
            &survivors,
            8,
            |run| run as usize,
        )
        .unwrap();
        // The even runs on shard 0, the checkpoint of run 7 on shard 1,
        // in the bytes `frames_len` says and the reset counted to each run.
        let shard_len = |shard| {
            std::fs::metadata(dir.path().join(shard_file_name(shard)))
                .unwrap()
                .len()
        };
        let header = FILE_HEADER.len() as u64;
        assert_eq!(shard_len(0), header + frames_len(&survivors));
        assert_eq!(shard_len(1), header + frames_len(&[Record::checkpoint(7)]));
        let mut counted: Vec<(u64, u64)> = run_bytes.into_iter().collect();
        counted.sort_unstable();
        let even = |run| frames_len(&[rec(RecordKind::RunOpen, run, 0, &[])]);
        assert_eq!(
            counted,
            [0, 2, 4, 6]
                .map(|run| (run, even(run)))
                .into_iter()
                .chain([(7, shard_len(1) - header)])
                .collect::<Vec<_>>()
        );
        w.append(0, &rec(RecordKind::Event, 0, 1, &[1])).unwrap();
        w.shutdown();
        drop(w);
        let names: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.iter().all(|n| !n.ends_with(".tmp")));
        assert!(!names.contains(&shard_file_name(2)));
        let recovery = recover(dir.path()).unwrap();
        assert_eq!(recovery.files, 2);
        // Run 7, the highest id the old log held, is kept as a checkpoint.
        let runs: Vec<(u64, bool)> = recovery
            .runs
            .iter()
            .map(|r| (r.run, r.checkpointed))
            .collect();
        assert_eq!(
            runs,
            [(0, false), (2, false), (4, false), (6, false), (7, true)]
        );
        assert_eq!(recovery.runs[0].records.len(), 2);
    }

    /// A committer pass whose write fails (the shard file is `/dev/full`,
    /// so the flush gets `ENOSPC`) must fail the barrier waiting on it —
    /// the caller was promised stable storage — and say so once.
    #[cfg(unix)]
    #[test]
    fn a_failed_group_commit_pass_fails_the_barrier() {
        struct SyncFailures(Arc<AtomicU64>);
        impl WalObserver for SyncFailures {
            fn lifecycle(&self, kind: &'static str, _detail: String) {
                if kind == "wal_sync_failed" {
                    self.0.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        if !Path::new("/dev/full").exists() {
            return;
        }
        let dir = TempDir::new("devfull");
        std::os::unix::fs::symlink("/dev/full", dir.path().join(shard_file_name(0))).unwrap();
        let reported = Arc::new(AtomicU64::new(0));
        let w = WalWriter::open(
            dir.path(),
            1,
            barrier_only(),
            Box::new(SyncFailures(Arc::clone(&reported))),
        )
        .unwrap();
        w.append(0, &rec(RecordKind::Event, 3, 0, &[1, 2, 3]))
            .unwrap();
        match w.barrier() {
            Err(WalError::Io(e)) => assert!(e.contains("write"), "{e}"),
            other => panic!("a barrier over a failed write returned {other:?}"),
        }
        assert_eq!(reported.load(Ordering::SeqCst), 1);
    }

    /// A rejected append must not be written later: the caller was told
    /// the op failed (and may retry it), so its record may not reach the
    /// log on the next pass that succeeds, nor be covered by a frame's
    /// checksum. The shard file is `/dev/full`, so every write-through
    /// gets `ENOSPC`.
    #[cfg(unix)]
    #[test]
    fn a_failed_append_leaves_no_frame_behind() {
        if !Path::new("/dev/full").exists() {
            return;
        }
        let dir = TempDir::new("devfull-append");
        std::os::unix::fs::symlink("/dev/full", dir.path().join(shard_file_name(0))).unwrap();
        let w = WalWriter::open(dir.path(), 1, barrier_only(), Box::new(NullObserver)).unwrap();
        // The third 100 KiB record of one run takes the buffer past the
        // byte budget, the fourth's inline write-through fails, and the
        // one frame of the three appends that succeeded stays buffered,
        // sealed over exactly their records.
        let big = |seq| rec(RecordKind::Event, 3, seq, &[0xCC; 100 * 1024]);
        let mut added = 0;
        for seq in 0..3 {
            added += w.append(0, &big(seq)).unwrap();
        }
        match w.append(0, &big(3)) {
            Err(WalError::Io(e)) => assert!(e.contains("write"), "{e}"),
            other => panic!("an append past the budget onto a full disk returned {other:?}"),
        }
        let f = w.inner.shards[0].lock();
        assert!(f.frames.open.is_none());
        let buffered = &f.frames.buf;
        assert_eq!(buffered.len() as u64, added);
        let batch: Vec<Record> = (0..3).map(big).collect();
        assert_eq!(parse_frame(buffered), Ok((batch, buffered.len())));
    }

    /// A payload that panics under the shard lock poisons it, but the
    /// record it was writing is cut on the way out — from the open frame
    /// it joined, or with the frame it opened: later appends to that
    /// shard and to another go through, a barrier returns `Ok`, and the
    /// log holds exactly the records whose appends returned `Ok`, untorn.
    #[test]
    fn a_panicking_payload_leaves_the_log_usable() {
        let dir = TempDir::new("panic");
        let w = Arc::new(
            WalWriter::open(dir.path(), 2, barrier_only(), Box::new(NullObserver)).unwrap(),
        );
        let before = rec(RecordKind::RunOpen, 1, 0, &[1]);
        w.append(0, &before).unwrap();
        // Run 1's next record joins its frame; run 7's opens one.
        for run in [1, 7] {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                w.append_with(0, RecordKind::Event, run, 1, |out| {
                    out.push(9);
                    panic!("the payload gives up half-written");
                })
            }));
            assert!(unwound.is_err());
            assert!(w.inner.shards[0].state.is_poisoned());
        }
        let after = [
            (0, rec(RecordKind::Event, 1, 1, &[2])),
            (1, rec(RecordKind::RunOpen, 2, 0, &[3])),
        ];
        for (shard, r) in &after {
            w.append(*shard, r).unwrap();
        }
        // On a helper thread, so a wedged log fails the test instead of
        // hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || tx.send(w.barrier()).unwrap())
        };
        let synced = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the barrier never returned");
        synced.unwrap();
        helper.join().unwrap();
        drop(w);
        let recovery = recover(dir.path()).unwrap();
        assert!(recovery.torn.is_empty(), "{:?}", recovery.torn);
        let records: Vec<Record> = recovery.runs.into_iter().flat_map(|r| r.records).collect();
        assert_eq!(records, [before, after[0].1.clone(), after[1].1.clone()]);
    }

    #[test]
    fn group_commit_barrier_waits_for_fsync() {
        let dir = TempDir::new("barrier");
        let w = WalWriter::open(dir.path(), 1, barrier_only(), Box::new(NullObserver)).unwrap();
        w.append(0, &rec(RecordKind::Event, 3, 0, &[1, 2, 3]))
            .unwrap();
        // Buffered: nothing on disk yet (file may exist but be empty).
        let len_before = std::fs::metadata(dir.path().join(shard_file_name(0)))
            .map(|m| m.len())
            .unwrap_or(0);
        assert_eq!(len_before, 0);
        w.barrier().unwrap();
        let len_after = std::fs::metadata(dir.path().join(shard_file_name(0)))
            .unwrap()
            .len();
        assert!(len_after > 0, "barrier must force the batch to disk");
    }
}
