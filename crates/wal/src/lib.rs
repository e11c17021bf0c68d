//! `wf-wal` — a per-shard write-ahead event log for durable ingest.
//!
//! The engine's tiered label store (hot → frozen → persisted) only
//! writes to disk when a run is frozen and spilled, so everything hot —
//! potentially hours of in-flight events — dies with the process. This
//! crate puts an append-only durable history *in front of* that mutable
//! working set:
//!
//! - **Framing (format version 3).** A shard file starts with the 8-byte
//!   [`FILE_HEADER`] (magic + version); a file that starts with anything
//!   else is refused with [`WalError::Unsupported`] and never modified,
//!   while an empty file or a strict prefix of the header (a crash while
//!   the file was being created) is an empty log. Each record after it
//!   is `[body_len: varint][crc32c: u32 LE][body]` where the checksum
//!   ([`crc32c`]) covers the whole body and the body is
//!   `[kind: u8][run: varint][seq + 1 (wrapping): varint][payload…]` —
//!   varints are LEB128, minimal, at most 10 bytes; `seq + 1` makes a
//!   checkpoint's [`CHECKPOINT_SEQ`] the one-byte `0`. A frame is
//!   self-contained (no state carried from the frame before), so
//!   truncation and re-homing move records one by one. The payload is
//!   opaque to this crate; the service layer encodes run-open metadata
//!   and execution events into it — [`WalWriter::append_with`] lets it
//!   do so straight into the shard buffer.
//! - **Sharding.** One log file per ingest worker (`wal-NNNN.wflog`).
//!   The service routes a run's records to the shard of the worker the
//!   run is pinned to, so per-run record order on disk follows the
//!   per-run apply order (sequence numbers make recovery robust to
//!   cross-thread interleaving anyway).
//! - **Group commit, the one way to disk.** Appends land in a per-shard
//!   user-space buffer; a dedicated committer thread flushes and fsyncs
//!   every shard once per [`WalSync::GroupCommit`] window, and
//!   [`WalWriter::barrier`] forces an immediate batch for durability
//!   barriers (`flush()`). An append is durable at the next pass or
//!   barrier, whichever comes first.
//! - **Recovery.** [`recover`] scans a WAL directory, truncates each
//!   file's view at the first bad length/checksum (a torn tail is data
//!   loss bounded by the last barrier, not corruption), groups records
//!   by run and orders them by sequence number. A file of another
//!   format fails the whole scan: nothing is guessed at, nothing is
//!   rewritten.
//! - **Checkpoint truncation.** When the service has made a run durable
//!   elsewhere (spilled a segment), it stamps a `Checkpoint` record and
//!   compacts the shard in place, dropping every record of checkpointed
//!   runs — the log retains only the non-checkpointed suffix, keeping
//!   recovery time proportional to hot state, not history.
//! - **The disk idioms, once each.** Everything the engine keeps on disk
//!   is either an append to a log or an immutable blob whose *name* is
//!   swapped atomically. [`WalWriter::append_with`] is the one append
//!   body ([`WalWriter::append`] hands it a payload that already exists):
//!   *a failed or panicking append leaves the shard buffer as it found
//!   it* — the rejected record's frame is never written later, and a
//!   poisoned shard lock is recovered, not fatal.
//!   [`replace_file`] is the one crash-safe replace (the shard rewrites
//!   here, every pack and manifest of the service's spill directory):
//!   the path holds *its old contents or the new ones, and no temp file
//!   is left behind* by a replace that returned. [`fsync_dir`] is the one
//!   directory fsync and [`crc32c`] the one checksum.
//!
//! The crate is dependency-free; telemetry flows out through the
//! [`WalObserver`] trait so the service can bridge into its registry
//! without `wf-wal` depending on `wf-obs`.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod crc32c;
/// The integrity check of WAL frames and of the service's segment blobs,
/// so the two on-disk formats share corruption-detection behaviour.
pub use crc32c::crc32c;

/// The on-disk format this crate writes and the only one it reads.
pub const FORMAT_VERSION: u32 = 3;
/// What every shard file starts with: the magic `WFWL`, then
/// [`FORMAT_VERSION`] as a `u32` LE.
pub const FILE_HEADER: [u8; 8] = {
    let v = FORMAT_VERSION.to_le_bytes();
    [b'W', b'F', b'W', b'L', v[0], v[1], v[2], v[3]]
};
/// Bytes of a frame ahead of its body besides the length varint: the
/// `u32` CRC-32C of the body.
const CHECKSUM_BYTES: usize = 4;
/// Lower bound on one record body: the kind byte and two one-byte
/// varints (run, `seq + 1`); shorter claims are treated as torn.
pub const MIN_BODY_BYTES: usize = 3;
/// Upper bound on one record body; longer frames are treated as torn.
pub const MAX_BODY_BYTES: usize = 1 << 26;
/// Byte budget per shard buffer: once a shard's user-space buffer
/// crosses this, the appender writes it through to the OS inline (the
/// fsync still waits for the committer).
pub const GROUP_COMMIT_BYTE_BUDGET: usize = 256 * 1024;

/// The sequence number stamped on `Checkpoint` records: a checkpoint
/// covers *every* record of its run (runs are only checkpointed once
/// they are durable in a segment and can never re-ingest).
pub const CHECKPOINT_SEQ: u64 = u64::MAX;

/// Longest LEB128 encoding of a `u64`.
const MAX_VARINT_BYTES: usize = 10;

/// LEB128: seven bits a byte, low group first, the top bit set on every
/// byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
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
fn get_varint(bytes: &[u8]) -> Option<(u64, usize)> {
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

/// What a record means to the service layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A run was opened; payload carries its spec + resolution.
    RunOpen,
    /// One execution event; payload is the encoded event.
    Event,
    /// The run was marked complete.
    Complete,
    /// The run is durable elsewhere; all its records may be dropped.
    Checkpoint,
}

impl RecordKind {
    fn as_u8(self) -> u8 {
        match self {
            RecordKind::RunOpen => 0,
            RecordKind::Event => 1,
            RecordKind::Complete => 2,
            RecordKind::Checkpoint => 3,
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(RecordKind::RunOpen),
            1 => Some(RecordKind::Event),
            2 => Some(RecordKind::Complete),
            3 => Some(RecordKind::Checkpoint),
            _ => None,
        }
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

    /// Bytes this record's frame occupies on disk.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let body_len =
            1 + varint_len(self.run) + varint_len(self.seq.wrapping_add(1)) + self.payload.len();
        varint_len(body_len as u64) + CHECKSUM_BYTES + body_len
    }

    /// Append the framed record to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_frame(out, self.kind, self.run, self.seq, |out| {
            out.extend_from_slice(&self.payload);
        });
    }
}

/// Append one frame to `out`, its payload written in place by `payload`
/// (which must only append). The length and the checksum go in front of
/// a body whose size is not known until it is written: one length byte is
/// set aside — enough for every body under 128 bytes, which is every
/// record the engine writes — and a longer length is written behind the
/// frame and rotated to its front.
fn encode_frame(
    out: &mut Vec<u8>,
    kind: RecordKind,
    run: u64,
    seq: u64,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    let frame_at = out.len();
    out.extend_from_slice(&[0u8; 1 + CHECKSUM_BYTES]);
    let body_at = out.len();
    out.push(kind.as_u8());
    put_varint(out, run);
    put_varint(out, seq.wrapping_add(1));
    payload(out);
    let crc = crc32c(&out[body_at..]);
    out[frame_at + 1..body_at].copy_from_slice(&crc.to_le_bytes());
    let body_len = out.len() - body_at;
    if body_len < 0x80 {
        out[frame_at] = body_len as u8;
    } else {
        out.remove(frame_at);
        put_varint(out, body_len as u64);
        out[frame_at..].rotate_right(varint_len(body_len as u64));
    }
}

/// Parse the frame at the front of `bytes`: the record and the bytes it
/// took, or why the bytes are not a frame.
fn parse_frame(bytes: &[u8]) -> Result<(Record, usize), String> {
    let (claimed, len_bytes) =
        get_varint(bytes).ok_or_else(|| "unreadable body length".to_string())?;
    let body_len = usize::try_from(claimed)
        .ok()
        .filter(|len| (MIN_BODY_BYTES..=MAX_BODY_BYTES).contains(len))
        .ok_or_else(|| format!("implausible body length {claimed}"))?;
    let body_at = len_bytes + CHECKSUM_BYTES;
    let crc = bytes
        .get(len_bytes..body_at)
        .ok_or_else(|| format!("short header: {} bytes", bytes.len()))?;
    let body = bytes.get(body_at..body_at + body_len).ok_or_else(|| {
        format!(
            "short body: want {body_len}, have {}",
            bytes.len() - body_at
        )
    })?;
    if crc32c(body).to_le_bytes() != crc {
        return Err("checksum mismatch".to_string());
    }
    let kind =
        RecordKind::from_u8(body[0]).ok_or_else(|| format!("unknown record kind {}", body[0]))?;
    let mut at = 1;
    let mut field = |name| {
        let (v, n) = get_varint(&body[at..]).ok_or_else(|| format!("unreadable {name}"))?;
        at += n;
        Ok::<u64, String>(v)
    };
    let run = field("run id")?;
    let seq = field("sequence number")?.wrapping_sub(1);
    Ok((
        Record {
            kind,
            run,
            seq,
            payload: body[at..].to_vec(),
        },
        body_at + body_len,
    ))
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
    /// A frame failed validation mid-file (recovery reports where).
    Corrupt {
        file: String,
        offset: u64,
        detail: String,
    },
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
            WalError::Corrupt {
                file,
                offset,
                detail,
            } => write!(
                f,
                "wal corrupt frame in {file} at offset {offset}: {detail}"
            ),
            WalError::Unsupported { file, found } => write!(
                f,
                "wal file {file} is not a version-{FORMAT_VERSION} log ({found}); left untouched"
            ),
            WalError::ShuttingDown => write!(f, "wal writer is shutting down"),
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(op: &str, path: &Path, e: &std::io::Error) -> WalError {
    WalError::Io(format!("{op} {}: {e}", path.display()))
}

/// Telemetry hooks; every method has a no-op default so tests can pass
/// a unit observer.
pub trait WalObserver: Send + Sync {
    /// One record appended (`bytes` on disk, wall time including the
    /// write-through of a buffer past [`GROUP_COMMIT_BYTE_BUDGET`]).
    fn append(&self, _bytes: u64, _dur_ns: u64) {}
    /// One shard fsync completed: a committer pass's, or the final sync
    /// at shutdown.
    fn fsync(&self, _dur_ns: u64) {}
    /// A shard was compacted after a checkpoint.
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

/// The step of a [`replace_file`] that failed, and how.
#[derive(Debug)]
pub struct ReplaceError {
    /// `"create"`, `"write"`, `"fsync"` or `"rename"`.
    pub op: &'static str,
    pub source: io::Error,
}

/// Crash-safe replace: write `bytes` to a temp file next to `path`,
/// fsync it, and rename it over `path` — a reader (or a crash) sees the
/// old contents or the new, never a mix. The temp file is removed on any
/// failure; one a crash strands ends in `.tmp`, which is what the sweeps
/// of the directories' owners look for. The rename is durable once the
/// caller has [`fsync_dir`]ed the directory.
pub fn replace_file(path: &Path, bytes: &[u8]) -> Result<(), ReplaceError> {
    let step = |op| move |source| ReplaceError { op, source };
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = path.with_file_name(format!(".{name}.tmp"));
    let replaced = (|| {
        let mut f = File::create(&tmp).map_err(step("create"))?;
        f.write_all(bytes).map_err(step("write"))?;
        f.sync_all().map_err(step("fsync"))?;
        fs::rename(&tmp, path).map_err(step("rename"))
    })();
    if replaced.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    replaced
}

/// Fsync `dir` so a rename inside it survives a crash. On non-unix
/// platforms directory handles cannot be opened for sync; the rename
/// alone is the best available guarantee there.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
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

/// Hold the first bytes of a shard file (`head`: up to
/// [`FILE_HEADER`]'s length of them) against the header. `Ok(true)` for
/// the whole header, `Ok(false)` for an empty file or a strict prefix of
/// it — the file was being created when the process died, and holds no
/// record — and [`WalError::Unsupported`] for anything else.
fn check_header(path: &Path, head: &[u8]) -> Result<bool, WalError> {
    if FILE_HEADER.starts_with(head) {
        return Ok(head.len() == FILE_HEADER.len());
    }
    let found = match head.strip_prefix(&FILE_HEADER[..4]) {
        Some(&[a, b, c, d]) => format!("format version {}", u32::from_le_bytes([a, b, c, d])),
        _ => format!("no log header; the file starts {head:02x?}"),
    };
    Err(WalError::Unsupported {
        file: path.display().to_string(),
        found,
    })
}

/// [`check_header`] on an open file; returns its length.
fn verify_header(file: &mut File, path: &Path) -> Result<u64, WalError> {
    let len = file.metadata().map_err(|e| io_err("stat", path, &e))?.len();
    let mut head = [0u8; FILE_HEADER.len()];
    let head = &mut head[..len.min(FILE_HEADER.len() as u64) as usize];
    file.read_exact(head)
        .map_err(|e| io_err("read", path, &e))?;
    check_header(path, head)?;
    Ok(len)
}

/// One shard file, parsed.
struct Scanned {
    records: Vec<Record>,
    /// Bytes that parsed cleanly, header included.
    valid_bytes: u64,
    torn: Option<TornTail>,
}

fn scan_file(path: &Path) -> Result<Scanned, WalError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err("read", path, &e))?;
    let head = &bytes[..bytes.len().min(FILE_HEADER.len())];
    let mut records = Vec::new();
    let mut at = 0usize;
    let mut detail = None;
    if check_header(path, head)? {
        at = FILE_HEADER.len();
        while at < bytes.len() {
            match parse_frame(&bytes[at..]) {
                Ok((rec, len)) => {
                    records.push(rec);
                    at += len;
                }
                Err(why) => {
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

/// Parse every valid frame of one WAL file. Corruption mid-file is not
/// an error: the valid prefix is returned along with a [`TornTail`]
/// describing the cut (a crash can tear the last frame; anything after
/// the first bad frame is untrusted). A file that does not start with
/// [`FILE_HEADER`] is an error — a log of another format is not a tail
/// torn at offset 0.
fn read_records(path: &Path) -> Result<(Vec<Record>, Option<TornTail>), WalError> {
    scan_file(path).map(|s| (s.records, s.torn))
}

/// The shard files of `dir`, sorted by name; none when `dir` is missing.
fn shard_paths(dir: &Path) -> Result<Vec<PathBuf>, WalError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err("read dir", dir, &e)),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(is_shard_file)
        })
        .collect();
    paths.sort();
    Ok(paths)
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
    for path in &shard_paths(dir)? {
        out.files += 1;
        let scanned = scan_file(path)?;
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
    file: File,
    /// Bytes written through to the OS (not counting `buf`).
    len: u64,
    /// Frames encoded but not yet written through: the group-commit
    /// batch. Whole frames only, between appends — see [`UnwrittenFrame`].
    buf: Vec<u8>,
}

/// A frame being appended to a shard buffer. Dropped before
/// [`Self::keep`] — its payload unwound, or its write-through failed —
/// it cuts the buffer back to where the frame began, so no later pass
/// writes a partial or rejected frame and a shard lock poisoned by the
/// unwind guards a buffer of whole frames.
struct UnwrittenFrame<'a> {
    shard: &'a mut ShardFile,
    at: usize,
}

impl UnwrittenFrame<'_> {
    fn keep(self) {
        std::mem::forget(self);
    }
}

impl Drop for UnwrittenFrame<'_> {
    fn drop(&mut self) {
        self.shard.buf.truncate(self.at);
    }
}

impl ShardFile {
    /// Write the buffer through to the OS (no fsync). A file gets its
    /// header with the first bytes it ever holds; what it has of one is
    /// a prefix ([`WalInner::open_append`] checked).
    fn flush_buf(&mut self, path: &Path) -> Result<(), WalError> {
        if !self.buf.is_empty() {
            if self.len < FILE_HEADER.len() as u64 {
                self.file
                    .write_all(&FILE_HEADER[self.len as usize..])
                    .map_err(|e| io_err("write", path, &e))?;
                self.len = FILE_HEADER.len() as u64;
            }
            self.file
                .write_all(&self.buf)
                .map_err(|e| io_err("write", path, &e))?;
            self.len += self.buf.len() as u64;
            self.buf.clear();
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
    /// body that runs caller code under it cuts its frame on the way
    /// out ([`UnwrittenFrame`]), and the rest assign whole fields.
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
    fn open_append(path: &Path) -> Result<(File, u64), WalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| io_err("open", path, &e))?;
        let len = verify_header(&mut file, path)?;
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
                    f.flush_buf(&shard.path)?;
                    f.file
                        .try_clone()
                        .map_err(|e| io_err("dup", &shard.path, &e))?
                };
                let start = Instant::now();
                file.sync_data()
                    .map_err(|e| io_err("fsync", &shard.path, &e))?;
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
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, &e))?;
        let shards = (0..shards.max(1))
            .map(|i| {
                let path = dir.join(shard_file_name(i));
                let (file, len) = WalInner::open_append(&path)?;
                Ok(Shard {
                    path,
                    state: Mutex::new(ShardFile {
                        file,
                        len,
                        buf: Vec::new(),
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
    /// `shards` files via `route` (run id → shard index), durably
    /// replace the old files, delete any stale shard/temp files, then
    /// open for appending. This is how recovery normalizes the log —
    /// it drops checkpointed history and re-homes records when the
    /// worker count changed across restarts. Every file it would replace
    /// or delete must be a log of this format (or empty): one that is
    /// not fails the reset before anything is written.
    pub fn reset(
        dir: &Path,
        shards: usize,
        policy: WalSync,
        obs: Box<dyn WalObserver>,
        records: &[Record],
        route: impl Fn(u64) -> usize,
    ) -> Result<Self, WalError> {
        fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, &e))?;
        for path in shard_paths(dir)? {
            let mut file = File::open(&path).map_err(|e| io_err("open", &path, &e))?;
            verify_header(&mut file, &path)?;
        }
        let shards = shards.max(1);
        let mut bufs: Vec<Vec<u8>> = vec![FILE_HEADER.to_vec(); shards];
        for rec in records {
            rec.encode_into(&mut bufs[route(rec.run) % shards]);
        }
        for (i, buf) in bufs.iter().enumerate() {
            let path = dir.join(shard_file_name(i));
            replace_file(&path, buf).map_err(|e| io_err(e.op, &path, &e.source))?;
        }
        // Drop shard files beyond the new count and the temp files a
        // crashed replace left behind.
        if let Ok(entries) = fs::read_dir(dir) {
            for entry in entries.filter_map(Result::ok) {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let stale = name.ends_with(".tmp")
                    || (is_shard_file(name) && !(0..shards).any(|i| shard_file_name(i) == name));
                if stale {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        fsync_dir(dir).map_err(|e| io_err("fsync dir", dir, &e))?;
        obs.lifecycle(
            "wal_reset",
            format!("shards={shards} records={}", records.len()),
        );
        Self::open(dir, shards, policy, obs)
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
    pub fn append(&self, shard: usize, rec: &Record) -> Result<(), WalError> {
        self.append_with(shard, rec.kind, rec.run, rec.seq, |out| {
            out.extend_from_slice(&rec.payload);
        })
    }

    /// Append one record to `shard`, its payload written by `payload`
    /// under the shard lock, straight into the shard's buffer (it must
    /// only append to the `Vec` it is handed) — a record costs no
    /// allocation and no copy beyond its own frame. The record is durable
    /// after the next committer pass or [`barrier`](Self::barrier); a
    /// buffer past [`GROUP_COMMIT_BYTE_BUDGET`] is written through to the
    /// OS on the way. If that write fails, or `payload` panics, the
    /// buffer is cut back to where this record began, so a rejected
    /// record is never written later (frames buffered before it belong
    /// to applied ops and stay for the committer to retry).
    pub fn append_with(
        &self,
        shard: usize,
        kind: RecordKind,
        run: u64,
        seq: u64,
        payload: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), WalError> {
        let inner = &self.inner;
        let shard_ref = &inner.shards[shard % inner.shards.len()];
        let start = Instant::now();
        let frame_len;
        {
            let mut f = shard_ref.lock();
            let at = f.buf.len();
            let frame = UnwrittenFrame { shard: &mut f, at };
            encode_frame(&mut frame.shard.buf, kind, run, seq, payload);
            frame_len = (frame.shard.buf.len() - at) as u64;
            if frame.shard.buf.len() >= GROUP_COMMIT_BYTE_BUDGET {
                // The fsync still waits for the committer.
                frame.shard.flush_buf(&shard_ref.path)?;
            }
            frame.keep();
        }
        inner.pending.store(true, Ordering::Release);
        // Stamp the oldest-unsynced mark only if no older append already
        // holds it (max(1) keeps a zero elapsed distinct from "fully
        // synced").
        let now = (inner.start.elapsed().as_nanos() as u64).max(1);
        let _ = inner
            .pending_since
            .compare_exchange(0, now, Ordering::AcqRel, Ordering::Relaxed);
        inner
            .obs
            .append(frame_len, start.elapsed().as_nanos() as u64);
        Ok(())
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

    /// Stamp a `Checkpoint` record for `run` on `shard`, then compact
    /// the shard file in place so it retains no record of any
    /// checkpointed run. Returns `(bytes_before, bytes_after)`.
    pub fn checkpoint(&self, shard: usize, run: u64) -> Result<(u64, u64), WalError> {
        self.append(shard, &Record::checkpoint(run))?;
        self.truncate_shard(shard)
    }

    /// Compact one shard: drop every record of checkpointed runs and
    /// the checkpoint markers themselves, durably replacing the file.
    /// Appends to this shard block for the duration.
    fn truncate_shard(&self, shard: usize) -> Result<(u64, u64), WalError> {
        let inner = &self.inner;
        let shard_idx = shard % inner.shards.len();
        let shard_ref = &inner.shards[shard_idx];
        let mut f = shard_ref.lock();
        f.flush_buf(&shard_ref.path)?;
        let (records, _torn) = read_records(&shard_ref.path)?;
        let before = f.len;
        let checkpointed: HashSet<u64> = records
            .iter()
            .filter(|r| r.kind == RecordKind::Checkpoint)
            .map(|r| r.run)
            .collect();
        let mut buf = FILE_HEADER.to_vec();
        for rec in &records {
            if !checkpointed.contains(&rec.run) {
                rec.encode_into(&mut buf);
            }
        }
        replace_file(&shard_ref.path, &buf)
            .map_err(|e| io_err(e.op, &shard_ref.path, &e.source))?;
        fsync_dir(&inner.dir).map_err(|e| io_err("fsync dir", &inner.dir, &e))?;
        let (file, len) = WalInner::open_append(&shard_ref.path)?;
        f.file = file;
        f.len = len;
        inner.obs.truncation(shard_idx, before, len);
        Ok((before, len))
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
            // committer starves the ingest workers for CPU and disk.
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
        // a file's first bytes.
        let mut on_disk = [FILE_HEADER.len() as u64; 2];
        for (shard, r) in [
            (0, rec(RecordKind::RunOpen, 1, 0, &[7, 7])),
            (0, rec(RecordKind::Event, 1, 1, b"payload")),
            (1, rec(RecordKind::Event, 2, 1, &[])),
        ] {
            w.append(shard, &r).unwrap();
            assert_eq!(shard_len(shard), 0, "shard {shard}");
            on_disk[shard] += r.encoded_len() as u64;
        }
        w.barrier().unwrap();
        assert_eq!([shard_len(0), shard_len(1)], on_disk);
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

    /// Three frames, byte for byte: the format's golden.
    fn golden_frames() -> [(Record, &'static [u8]); 3] {
        [
            (
                rec(RecordKind::RunOpen, 1, 0, &[7, 0, 0, 0, 1]),
                &[
                    0x08, // body length
                    0x1c, 0x78, 0x06, 0x51, // CRC-32C of the body
                    0x00, 0x01, 0x01, // kind, run 1, seq 0 as 0 + 1
                    0x07, 0x00, 0x00, 0x00, 0x01, // payload
                ],
            ),
            (
                rec(RecordKind::Event, 300, 129, &[0xaa, 0xbb, 0xcc]),
                &[
                    0x08, //
                    0xc9, 0xf0, 0x48, 0x7f, //
                    0x01, 0xac, 0x02, 0x82, 0x01, // kind, run 300, seq 129 as 130
                    0xaa, 0xbb, 0xcc,
                ],
            ),
            (
                Record::checkpoint(5),
                &[
                    0x03, //
                    0xa2, 0x9a, 0x62, 0xd7, //
                    0x03, 0x05, 0x00, // kind, run 5, `CHECKPOINT_SEQ` as 0
                ],
            ),
        ]
    }

    /// The format, byte for byte: a change to the header, the frame
    /// layout or a varint shows up here before it shows up as a log the
    /// previous build cannot read.
    #[test]
    fn frame_layout_is_pinned() {
        assert_eq!(FILE_HEADER, [b'W', b'F', b'W', b'L', 3, 0, 0, 0]);
        let dir = TempDir::new("golden");
        let w = WalWriter::open(dir.path(), 1, WalSync::default(), Box::new(NullObserver)).unwrap();
        let mut file = FILE_HEADER.to_vec();
        for (record, bytes) in &golden_frames() {
            let mut framed = Vec::new();
            record.encode_into(&mut framed);
            assert_eq!(framed, *bytes, "{record:?}");
            assert_eq!(record.encoded_len(), bytes.len(), "{record:?}");
            assert_eq!(parse_frame(bytes), Ok((record.clone(), bytes.len())));
            w.append(0, record).unwrap();
            file.extend_from_slice(bytes);
        }
        drop(w);
        assert_eq!(
            std::fs::read(dir.path().join(shard_file_name(0))).unwrap(),
            file
        );
        // A body of 128 bytes or more takes a longer length prefix, and
        // `encoded_len` knows.
        for payload in [124, 125, 16_381, 16_382] {
            let long = rec(RecordKind::Event, 0, 0, &vec![0x5a; payload]);
            let mut framed = Vec::new();
            long.encode_into(&mut framed);
            assert_eq!(framed.len(), long.encoded_len(), "{payload}");
            assert_eq!(parse_frame(&framed), Ok((long, framed.len())), "{payload}");
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
        for (record, bytes) in golden_frames() {
            let body_at = 1 + CHECKSUM_BYTES;
            let body_bits = (bytes.len() - body_at) * 8;
            for_each_burst(body_bits, record.run ^ 0x5eed, |start, mask| {
                let mut hit = bytes.to_vec();
                for bit in (0..64).filter(|i| mask >> i & 1 == 1) {
                    let at = body_at * 8 + start + bit;
                    hit[at / 8] ^= 1 << (at % 8);
                }
                assert_eq!(
                    parse_frame(&hit),
                    Err("checksum mismatch".to_string()),
                    "{record:?}: burst {mask:#x} at bit {start}"
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

    /// Cut a small multi-record shard at every byte and flip every bit
    /// of it, file header included: the reader returns a prefix of what
    /// was written — with a tear reported unless the cut fell on a frame
    /// boundary — or refuses the file by its header. It never returns a
    /// record that was not written.
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
        // Offsets at which a whole number of frames ends.
        let mut boundaries = vec![FILE_HEADER.len()];
        for r in &written {
            boundaries.push(boundaries.last().unwrap() + r.encoded_len());
        }
        assert_eq!(*boundaries.last().unwrap(), full.len());

        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (records, torn) = read_records(&path).unwrap();
            let whole = boundaries.iter().rposition(|&b| b <= cut).unwrap_or(0);
            assert_eq!(records, written[..whole], "cut at {cut}");
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
                    assert_eq!(records, written[..hit], "bit {bit}");
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

    /// A shard file that is not a version-3 log — a version-1 one (frames
    /// from offset 0, no header), a version-2 one (the same frames under
    /// a 64-bit FNV-1a), a later version, a stray file — is refused by
    /// every door, named in the error, and left as it was; an empty file
    /// or the first bytes of a header is a log with no records, completed
    /// by the first append.
    #[test]
    fn a_file_of_another_format_is_refused_and_left_untouched() {
        let mut v1 = 22u32.to_le_bytes().to_vec(); // `[len: u32][fnv: u64][body]`
        v1.extend_from_slice(&[0x11; 8 + 22]);
        // `[len: varint][fnv: u64][body]` behind the version-2 header: the
        // version-2 frame of `Record::checkpoint(5)`.
        let mut v2 = FILE_HEADER.to_vec();
        v2[4] = 2;
        v2.extend_from_slice(&[0x03, 0x2f, 0x9e, 0x05, 0x71, 0x18, 0x8b, 0x07, 0xe2]);
        v2.extend_from_slice(&[0x03, 0x05, 0x00]);
        let mut v4 = FILE_HEADER.to_vec();
        v4[4] = 4;
        for (alien, found) in [
            (v1.as_slice(), "no log header"),
            (v2.as_slice(), "format version 2"),
            (v4.as_slice(), "format version 4"),
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

    #[test]
    fn checkpoint_truncation_drops_run_history() {
        let dir = TempDir::new("ckpt");
        let w = WalWriter::open(dir.path(), 1, WalSync::default(), Box::new(NullObserver)).unwrap();
        for seq in 0..8 {
            w.append(0, &rec(RecordKind::Event, 1, seq, &[0xAA; 32]))
                .unwrap();
            w.append(0, &rec(RecordKind::Event, 2, seq, &[0xBB; 32]))
                .unwrap();
        }
        let (before, after) = w.checkpoint(0, 1).unwrap();
        assert!(before > after, "truncation must shrink the shard");
        w.shutdown();
        drop(w);
        let recovery = recover(dir.path()).unwrap();
        // Run 1 is gone entirely (checkpoint markers are dropped by the
        // compaction too); run 2 keeps all 8 records.
        assert_eq!(recovery.runs.len(), 1);
        assert_eq!(recovery.runs[0].run, 2);
        assert_eq!(recovery.runs[0].records.len(), 8);
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
        let w = WalWriter::reset(
            dir.path(),
            2,
            WalSync::default(),
            Box::new(NullObserver),
            &survivors,
            |run| run as usize,
        )
        .unwrap();
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
        let runs: Vec<u64> = recovery.runs.iter().map(|r| r.run).collect();
        assert_eq!(runs, vec![0, 2, 4, 6]);
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
    /// the op failed (and may retry it), so its frame may not reach the
    /// log on the next pass that succeeds. The shard file is `/dev/full`,
    /// so every write-through gets `ENOSPC`.
    #[cfg(unix)]
    #[test]
    fn a_failed_append_leaves_no_frame_behind() {
        if !Path::new("/dev/full").exists() {
            return;
        }
        let dir = TempDir::new("devfull-append");
        std::os::unix::fs::symlink("/dev/full", dir.path().join(shard_file_name(0))).unwrap();
        let w = WalWriter::open(dir.path(), 1, barrier_only(), Box::new(NullObserver)).unwrap();
        // The third 100 KiB record crosses the byte budget, its inline
        // write-through fails, and only the two frames of the appends
        // that succeeded stay buffered.
        let big = rec(RecordKind::Event, 3, 0, &[0xCC; 100 * 1024]);
        w.append(0, &big).unwrap();
        w.append(0, &big).unwrap();
        match w.append(0, &big) {
            Err(WalError::Io(e)) => assert!(e.contains("write"), "{e}"),
            other => panic!("an append past the budget onto a full disk returned {other:?}"),
        }
        assert_eq!(w.inner.shards[0].lock().buf.len(), 2 * big.encoded_len());
    }

    /// A payload that panics under the shard lock poisons it, but the
    /// frame it was writing is cut on the way out: later appends to that
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
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.append_with(0, RecordKind::Event, 1, 1, |out| {
                out.push(9);
                panic!("the payload gives up half-written");
            })
        }));
        assert!(unwound.is_err());
        assert!(w.inner.shards[0].state.is_poisoned());
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

    /// A replace that fails leaves the target as it was and no temp file
    /// behind, and the next replace in the directory works.
    #[test]
    fn a_failed_replace_removes_its_temp_file() {
        let dir = TempDir::new("replace");
        let squatter = dir.path().join("blob");
        std::fs::create_dir(&squatter).unwrap();
        std::fs::write(squatter.join("inside"), b"x").unwrap();
        let err = replace_file(&squatter, b"new contents").unwrap_err();
        assert_eq!(err.op, "rename", "{err:?}");
        let names: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["blob"], "no temp file left");
        assert!(squatter.join("inside").exists());

        let free = dir.path().join("free");
        replace_file(&free, b"first").unwrap();
        replace_file(&free, b"second").unwrap();
        fsync_dir(dir.path()).unwrap();
        assert_eq!(std::fs::read(&free).unwrap(), b"second");
        assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 2);
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
