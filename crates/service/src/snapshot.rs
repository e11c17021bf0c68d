//! **Sealed runs**: a completed run is one immutable segment blob, in a
//! versioned binary format with a manifest, whose bytes sit in a heap
//! frame, in a pack file on disk, or both — loadable at engine build time so
//! historical runs keep answering cross-run queries.
//!
//! A *segment blob* holds one run (format version 5, all integers
//! little-endian):
//!
//! ```text
//! magic     8 B   "WFTIERS1"
//! version   u32   5
//! run       u64
//! spec      u32
//! skl_bits  u32
//! source    u32   (u32::MAX = no source recorded)
//! count     u32   labeled vertices
//! arena     u64   arena byte length
//! drl_bits  u64   DRL accounting bits (hot-tier footprint, for stats)
//! frozen_at u64   unix seconds at freeze time (0 = unknown)
//! labels    arena the run's label arena (wf_drl::LabelArena: layout
//!                 header ‖ presence words ‖ cells ‖ prefix heap)
//! checksum  u32   CRC-32C over everything above
//! ```
//!
//! The arena's layout is `wf-drl`'s: this module frames `arena` bytes and
//! hands them to [`wf_drl::ArenaRef`], which checks them.
//! Any other version — blob or manifest — is rejected with a typed
//! [`SnapshotError::Format`], never guessed at: version 4 was this
//! layout under a `u64` FNV-1a trailer, version 3 held a sorted 12-byte
//! `(vertex, name, offset)` slot per label over a heap of whole encoded
//! labels, version 2 carried 44 more header bytes (a freeze-time SKL
//! report), and each is refused by its version word exactly as version 1
//! is.
//!
//! Blobs live in **pack files** (`pack-<seq>.wfseg`): one or more blobs
//! concatenated. Fresh spills append to the pack their engine lifetime
//! opened last, until it reaches [`PACK_MAX_RUNS`] or
//! [`PACK_TARGET_BYTES`]; compaction merges underfull packs and rewrites
//! dead-heavy ones. Each blob carries its own checksum
//! ([`wf_wal::crc32c`], the one the WAL frames use), so a pack needs no
//! container framing: the manifest (`wf-tier-manifest.txt`: `run file
//! offset len` per line) is the directory. Bytes reach disk one of two
//! ways. An **append** (`append_blob_file`, and `append_manifest` for
//! one manifest line) writes at the end of a file and syncs it; a file
//! it creates is made durable by a directory fsync, so a blob is on disk
//! before the manifest line that names it is written. A **rewrite**
//! (`write_blob_file`: the crash-safe replace [`wf_wal::replace_file`]
//! — temp file, fsync, rename; a failed write leaves no temp file —
//! then a directory fsync, [`wf_wal::fsync_dir`]) lands a compacted pack
//! or a whole manifest. A crash cannot leave the manifest pointing at
//! unsynced blobs, and a manifest line cut off mid-append is not read
//! (sync failures surface as the typed [`SnapshotError::Sync`]).
//!
//! A completed run is **one object**, a `SealedRun`, from freeze to
//! eviction, and its bytes in memory are **one frame**: an `Arc<[u8]>`
//! holding the blob, which every read borrows the same
//! [`wf_drl::ArenaRef`] from. Freeze encodes the blob into a frame the
//! run *holds*; persisting appends those bytes, unchanged, to a pack and
//! lets the frame go; a read of a run on disk loads a frame with
//! one positioned read ([`crate::bufmgr`]) that the replacer may drop
//! again; re-heating holds the frame (loading it first if need be).
//! Framing and checksum are verified at the first load at each place; a
//! truncated or corrupted blob is rejected with a typed error — kept on
//! the run, so every later read names the cause — never a panic. All of
//! this happens under the run's one *place lock*, and [`crate::Tier`] is
//! a reading of it: `Frozen` while the frame is held, `Persisted`
//! otherwise. The blob on disk is immutable; what a rewrite changes is
//! where it lies, and the run is told so in place (`SealedRun::relocate`)
//! under the same lock a load reads the location through. That lock is
//! the whole reader protection: a read holds it for as long as it
//! borrows the frame, and the replacer only ever *tries* it. Eviction, a
//! sealed run's only exit, is settled under that lock too.

use crate::bufmgr::{read_exact_at, PackFile};
use crate::store::{SegmentLru, Tier};
use crate::telemetry::with_profile;
use crate::{RunId, ServiceError, SpecId};
use std::fmt;
use std::fs;
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use wf_drl::{ArenaRef, LabelArena};
use wf_graph::VertexId;
use wf_wal::crc32c;

/// Segment file magic.
pub const SEGMENT_MAGIC: [u8; 8] = *b"WFTIERS1";
/// The segment format version this engine reads and writes.
pub const SEGMENT_VERSION: u32 = 5;
/// Manifest file name inside the spill directory.
pub const MANIFEST_FILE: &str = "wf-tier-manifest.txt";
/// The manifest header line (`run file offset len` entries follow).
pub const MANIFEST_HEADER: &str = "wf-tier-manifest v2";

/// A file holding fewer live runs than this is *underfull*: compaction
/// merges underfull files…
pub const MIN_PACK_RUNS: usize = 64;
/// …and rewrites *dead-heavy* ones: once more than this share of a
/// file's bytes belongs to evicted runs, copying the live remainder wins
/// back more disk than the copy costs. Every other file is left alone.
pub const DEAD_HEAVY_RATIO: f64 = 0.3;
/// Compaction closes a pack once it holds this many runs…
pub const PACK_MAX_RUNS: usize = 1024;
/// …or this many bytes, whichever comes first.
pub const PACK_TARGET_BYTES: u64 = 64 << 20;

/// Byte length of the fixed segment header.
const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 4 + 4 + 4 + 8 + 8 + 8;
const CHECKSUM_LEN: usize = 4;

/// Errors reading or writing snapshot segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem failure (message carries the `io::Error`).
    Io(String),
    /// The bytes are not a valid segment: wrong magic/version, truncated,
    /// checksum mismatch, or a label that does not decode.
    Format(String),
    /// An fsync of a just-written file or of the spill directory failed
    /// after the atomic rename — durability of the rename is not
    /// guaranteed, so the operation reports the failure instead of
    /// silently degrading.
    Sync(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Format(e) => write!(f, "invalid snapshot: {e}"),
            SnapshotError::Sync(e) => write!(f, "snapshot fsync failed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            // A positioned read past the end of the file.
            ErrorKind::UnexpectedEof => SnapshotError::Format("truncated segment".into()),
            _ => SnapshotError::Io(e.to_string()),
        }
    }
}

/// Fixed-size segment header — everything the engine needs to register a
/// sealed run *without* reading its arena (the lazy-load metadata).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentHeader {
    /// The run the segment holds.
    pub run: RunId,
    /// Its specification (catalog index; must match across restarts).
    pub spec: SpecId,
    /// Skeleton-pointer width the labels were encoded with.
    pub skl_bits: u32,
    /// The run's source vertex, if recorded.
    pub source: Option<VertexId>,
    /// Labeled vertices in the segment.
    pub count: u32,
    /// Arena byte length.
    pub arena_len: u64,
    /// DRL accounting bits (what the run cost in the hot tier).
    pub drl_bits: u64,
    /// Unix seconds at freeze time (0 = unknown).
    pub frozen_at: u64,
}

fn parse_header(bytes: &[u8]) -> Result<SegmentHeader, SnapshotError> {
    let h = bytes
        .get(..HEADER_LEN)
        .ok_or_else(|| SnapshotError::Format("truncated segment".into()))?;
    // Cannot fail: every offset below lies within `HEADER_LEN`, and `h`
    // is exactly that long, so each range is 4 bytes of `h`.
    let u32_at = |i: usize| u32::from_le_bytes(h[i..i + 4].try_into().expect("4 header bytes"));
    // Cannot fail: as above, each range is 8 bytes of `h`.
    let u64_at = |i: usize| u64::from_le_bytes(h[i..i + 8].try_into().expect("8 header bytes"));
    if h[..8] != SEGMENT_MAGIC {
        return Err(SnapshotError::Format("bad magic".into()));
    }
    let version = u32_at(8);
    if version != SEGMENT_VERSION {
        return Err(SnapshotError::Format(format!(
            "unsupported segment version {version}"
        )));
    }
    Ok(SegmentHeader {
        run: RunId(u64_at(12)),
        spec: SpecId(u32_at(20) as usize),
        skl_bits: u32_at(24),
        source: Some(VertexId(u32_at(28))).filter(|v| v.0 != u32::MAX),
        count: u32_at(32),
        arena_len: u64_at(36),
        drl_bits: u64_at(44),
        frozen_at: u64_at(52),
    })
}

/// File name of the `seq`-th pack file.
pub fn pack_file_name(seq: u64) -> String {
    format!("pack-{seq}.wfseg")
}

/// Inverse of [`pack_file_name`]: the sequence number a spill-directory
/// file name carries, `None` for anything that is not a pack.
pub(crate) fn pack_file_seq(name: &str) -> Option<u64> {
    name.strip_prefix("pack-")?
        .strip_suffix(".wfseg")?
        .parse()
        .ok()
}

/// Serialize the header `h` and the label `arena` it describes into a
/// segment blob — the one encoder, which freeze runs once per run.
pub fn encode_segment(h: &SegmentHeader, arena: &LabelArena) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + arena.bytes().len() + CHECKSUM_LEN);
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out.extend_from_slice(&h.run.0.to_le_bytes());
    out.extend_from_slice(&(h.spec.0 as u32).to_le_bytes());
    out.extend_from_slice(&h.skl_bits.to_le_bytes());
    out.extend_from_slice(&h.source.map_or(u32::MAX, |v| v.0).to_le_bytes());
    out.extend_from_slice(&h.count.to_le_bytes());
    out.extend_from_slice(&h.arena_len.to_le_bytes());
    out.extend_from_slice(&h.drl_bits.to_le_bytes());
    out.extend_from_slice(&h.frozen_at.to_le_bytes());
    out.extend_from_slice(arena.bytes());
    let checksum = crc32c(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Validate a blob's framing — length, magic, version, checksum — and
/// return its header **without** decoding any label. This is the cheap
/// integrity check a rewrite runs before copying a blob verbatim into a
/// new pack, and the one pass the first load at a place pays (labels
/// decode lazily). The version word is read before the checksum, whose
/// width it decides: a blob of another version is refused by its version,
/// not by a trailer this format would misread.
pub fn verify_segment_bytes(bytes: &[u8]) -> Result<SegmentHeader, SnapshotError> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(SnapshotError::Format("truncated segment".into()));
    }
    let (body, tail) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
    let header = parse_header(body)?;
    // Cannot fail: `tail` is the last `CHECKSUM_LEN` (4) bytes, which the
    // length check above guarantees exist.
    let stored = u32::from_le_bytes(tail.try_into().unwrap());
    if crc32c(body) != stored {
        return Err(SnapshotError::Format("checksum mismatch".into()));
    }
    // A skeleton pointer is a `u32` vertex index: a wider field is not
    // something this engine ever wrote, whatever the checksum says.
    if header.skl_bits > 32 {
        return Err(SnapshotError::Format(format!(
            "skeleton pointer width {} exceeds 32 bits",
            header.skl_bits
        )));
    }
    let expected = HEADER_LEN
        .checked_add(header.arena_len as usize)
        .ok_or_else(|| SnapshotError::Format("length overflow".into()))?;
    if body.len() != expected {
        return Err(SnapshotError::Format(format!(
            "segment length {} does not match header (expected {expected})",
            body.len()
        )));
    }
    let labels = blob_arena(bytes, &header)?.len();
    if labels != header.count as usize {
        return Err(SnapshotError::Format(format!(
            "arena holds {labels} labels, header says {}",
            header.count
        )));
    }
    Ok(header)
}

/// The label arena of a blob whose framing matches `header`, read in
/// place — the one frame → reader step, whoever filled the frame. The
/// arena checks its own layout.
fn blob_arena<'a>(blob: &'a [u8], header: &SegmentHeader) -> Result<ArenaRef<'a>, SnapshotError> {
    let arena = blob
        .get(HEADER_LEN..)
        .and_then(|body| body.get(..header.arena_len as usize))
        .ok_or_else(|| SnapshotError::Format("truncated segment".into()))?;
    ArenaRef::new(arena, header.skl_bits as usize).map_err(|e| SnapshotError::Format(e.to_string()))
}

/// Parse and fully validate segment bytes — framing, checksum, **and
/// every label** — back into the header and an owned label arena.
pub fn decode_segment(bytes: &[u8]) -> Result<(SegmentHeader, LabelArena), SnapshotError> {
    let header = verify_segment_bytes(bytes)?;
    let arena = blob_arena(bytes, &header)?
        .to_arena()
        .map_err(|e| SnapshotError::Format(e.to_string()))?;
    Ok((header, arena))
}

/// Atomically materialize `bytes` at `path` inside `dir`: the one
/// crash-safe replace, then the directory fsync that makes its rename
/// durable. `path` holds its old contents (or nothing) or the new ones,
/// and a failed write leaves no temp file behind.
pub(crate) fn write_blob_file(dir: &Path, path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    fs::create_dir_all(dir)?;
    wf_wal::replace_file(path, bytes).map_err(|e| {
        let cause = format!("{} {}: {}", e.op, path.display(), e.source);
        if e.op == "fsync" {
            SnapshotError::Sync(cause)
        } else {
            SnapshotError::Io(cause)
        }
    })?;
    fsync_dir(dir)
}

fn fsync_dir(dir: &Path) -> Result<(), SnapshotError> {
    wf_wal::fsync_dir(dir).map_err(|e| SnapshotError::Sync(format!("{}: {e}", dir.display())))
}

/// Append `bytes` at the end of `path` and `sync_data` them — the one
/// append body every pack and manifest append goes through. `fresh`
/// creates the file, refusing one that exists, and fsyncs `dir` so its
/// entry is durable before anything names the file; otherwise the file
/// must exist. `check` sees the open file and its length first and may
/// refuse it. Returns the offset the bytes start at; a failed write or
/// sync is cut back off, so the file never ends in half an append that
/// was reported failed. No descriptor outlives the call.
pub(crate) fn append_blob_file(
    dir: &Path,
    path: &Path,
    bytes: &[u8],
    fresh: bool,
    check: impl FnOnce(&fs::File, u64) -> Result<(), SnapshotError>,
) -> Result<u64, SnapshotError> {
    let cause = |op: &str, e: std::io::Error| format!("{op} {}: {e}", path.display());
    let mut file = fs::OpenOptions::new()
        .read(true)
        .append(true)
        .create_new(fresh)
        .open(path)
        .map_err(|e| SnapshotError::Io(cause("open", e)))?;
    let offset = file.metadata()?.len();
    check(&file, offset)?;
    let appended = file
        .write_all(bytes)
        .map_err(|e| SnapshotError::Io(cause("write", e)))
        .and_then(|()| {
            file.sync_data()
                .map_err(|e| SnapshotError::Sync(cause("fsync", e)))
        });
    if appended.is_err() {
        let _ = file.set_len(offset);
    }
    appended?;
    if fresh {
        fsync_dir(dir)?;
    }
    Ok(offset)
}

/// Read only the header of the blob at `offset` (the registration path
/// — no arena, no checksum, no frame), by the one positioned read.
pub fn read_header_at(path: &Path, offset: u64) -> Result<SegmentHeader, SnapshotError> {
    let mut buf = [0; HEADER_LEN];
    read_exact_at(&fs::File::open(path)?, &mut buf, offset)?;
    parse_header(&buf)
}

/// One manifest line: a persisted run and the byte range of its blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The persisted run.
    pub run: RunId,
    /// Pack file name, relative to the spill dir.
    pub file: String,
    /// Byte offset of the run's blob within the file.
    pub offset: u64,
    /// Length of the blob in bytes.
    pub bytes: u64,
}

/// Append `entry`'s line to the manifest in `dir` and sync it. Only a
/// manifest that starts with [`MANIFEST_HEADER`] and ends in a complete
/// line is appended to — a line after half of one, or under a header
/// this engine cannot read, would be lost.
pub(crate) fn append_manifest(dir: &Path, entry: &ManifestEntry) -> Result<(), SnapshotError> {
    let path = dir.join(MANIFEST_FILE);
    let line = manifest_line(entry);
    append_blob_file(dir, &path, line.as_bytes(), false, |file, len| {
        let mut head = [0; MANIFEST_HEADER.len() + 1];
        let mut last = [0];
        let whole = read_exact_at(file, &mut head, 0).is_ok()
            && read_exact_at(file, &mut last, len.saturating_sub(1)).is_ok()
            && head[..MANIFEST_HEADER.len()] == *MANIFEST_HEADER.as_bytes()
            && head[MANIFEST_HEADER.len()] == b'\n'
            && last == *b"\n";
        if !whole {
            return Err(SnapshotError::Format(
                "the manifest is not a whole v2 manifest".into(),
            ));
        }
        Ok(())
    })
    .map(drop)
}

/// Atomically rewrite the manifest with every registered blob
/// (`write_blob_file`) — after this returns, a crash cannot resurrect
/// the previous manifest or leave the new one pointing at unsynced data.
pub fn write_manifest(dir: &Path, entries: &[ManifestEntry]) -> Result<(), SnapshotError> {
    let mut out = String::from(MANIFEST_HEADER);
    out.push('\n');
    for e in entries {
        out.push_str(&manifest_line(e));
    }
    write_blob_file(dir, &dir.join(MANIFEST_FILE), out.as_bytes())
}

fn manifest_line(e: &ManifestEntry) -> String {
    format!("{} {} {} {}\n", e.run.0, e.file, e.offset, e.bytes)
}

/// Load the manifest; a missing file is an empty manifest, any header
/// but [`MANIFEST_HEADER`] is a typed [`SnapshotError::Format`], and
/// malformed lines are skipped — among them the `epoch <n>` line earlier
/// engines wrote, and a last line with no `\n`: an append a crash cut
/// off, never acknowledged — (registration re-validates every blob
/// header, so the manifest is an index, not a trust root).
pub fn load_manifest(dir: &Path) -> Result<Vec<ManifestEntry>, SnapshotError> {
    match fs::read_to_string(dir.join(MANIFEST_FILE)) {
        Ok(text) => parse_manifest(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e.into()),
    }
}

/// [`load_manifest`] over the manifest's text.
pub(crate) fn parse_manifest(text: &str) -> Result<Vec<ManifestEntry>, SnapshotError> {
    let mut lines = text.split_inclusive('\n');
    match lines.next().map(str::trim) {
        Some(h) if h == MANIFEST_HEADER => {}
        other => {
            return Err(SnapshotError::Format(format!(
                "bad manifest header {other:?}"
            )))
        }
    }
    let mut entries = Vec::new();
    for line in lines {
        // A last line with no `\n` is an append a crash cut off.
        let Some(line) = line.strip_suffix('\n') else {
            continue;
        };
        let mut parts = line.split_whitespace();
        let (Some(run), Some(file), Some(offset), Some(bytes)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let (Ok(run), Ok(offset), Ok(bytes)) = (
            run.parse::<u64>(),
            offset.parse::<u64>(),
            bytes.parse::<u64>(),
        ) else {
            continue;
        };
        entries.push(ManifestEntry {
            run: RunId(run),
            file: file.to_string(),
            offset,
            bytes,
        });
    }
    Ok(entries)
}

/// What is known of the blob at its pack location.
#[derive(Debug)]
enum LoadState {
    /// Never read at this place: the next load verifies what it reads.
    Unread,
    /// Read and verified once. A pack is append-only — a written byte is
    /// never rewritten — so a re-load after a shed trusts the bytes it
    /// reads again.
    Verified,
    /// A load failed (the blob vanished or was corrupted after
    /// registration); cached with its cause, so reads degrade to "no
    /// labels" instead of re-reading a broken file and the engine's
    /// fallible reads can say why.
    Failed(SnapshotError),
}

/// A blob's pack location, and what has been learnt there.
#[derive(Debug)]
struct Disk {
    /// The pack file the blob lives in, shared with every other run
    /// written to it.
    file: Arc<PackFile>,
    offset: u64,
    state: LoadState,
}

impl Disk {
    fn at(file: Arc<PackFile>, offset: u64) -> Self {
        Self {
            file,
            offset,
            state: LoadState::Unread,
        }
    }
}

/// Where a sealed run's blob is. At least one of `frame` and `disk` is
/// set.
#[derive(Debug)]
struct Place {
    /// The blob's bytes in memory.
    frame: Option<Arc<[u8]>>,
    /// The frame is held: put there by freeze or a re-heat, outside the
    /// replacer, and the run reads as [`Tier::Frozen`]. A frame that is
    /// not held was loaded from disk and is the replacer's to shed.
    held: bool,
    /// The blob's pack location, from the first persist (or the manifest
    /// line the run was registered from) until the eviction.
    disk: Option<Disk>,
    /// Set once, by the eviction: nothing moves the run between tiers or
    /// admits it to the replacer afterwards, while reads through a stale
    /// handle go on.
    evicted: bool,
}

impl Place {
    /// Why reads of the run come back empty, once a load failed.
    fn failure(&self) -> Option<&SnapshotError> {
        match &self.disk.as_ref()?.state {
            LoadState::Failed(cause) => Some(cause),
            _ => None,
        }
    }
}

/// A **sealed run**: a completed run's one segment blob, from freeze
/// until eviction, in a frame, at a pack location, or both. Every read
/// is served from the frame under the place's read lock. A run read from
/// disk loads its frame at the first read that needs it — one positioned
/// read, verified the first time at each place — and the frame joins the
/// store's [`SegmentLru`]: when the resident-byte budget is exceeded the
/// least-recently-used frames are dropped, so a persisted run that turns
/// hot reads from memory and cools back to zero resident bytes when the
/// traffic moves on. A held frame is not the replacer's business.
#[derive(Debug)]
pub(crate) struct SealedRun {
    header: SegmentHeader,
    /// Length of the blob (not of its pack: packs share one file among
    /// many runs). A rewrite copies blobs verbatim, so it never changes.
    len: u64,
    place: RwLock<Place>,
    /// LRU recency stamp (the store's logical clock at the last read of
    /// a frame loaded from disk).
    pub(crate) last_access: AtomicU64,
    lru: Arc<SegmentLru>,
    /// Queries answered over the run's lifetime (carried in from the hot
    /// slot by the freeze transition, so engine-wide `queries_answered`
    /// stays monotone).
    pub(crate) queries: AtomicU64,
}

impl SealedRun {
    fn new(header: SegmentHeader, len: u64, place: Place, lru: Arc<SegmentLru>) -> Self {
        Self {
            header,
            len,
            place: RwLock::new(place),
            last_access: AtomicU64::new(0),
            lru,
            queries: AtomicU64::new(0),
        }
    }

    /// A run just frozen: its encoded `blob` held in a frame, no location
    /// yet.
    pub(crate) fn on_heap(header: SegmentHeader, blob: Vec<u8>, lru: Arc<SegmentLru>) -> Self {
        let len = blob.len() as u64;
        let place = Place {
            frame: Some(blob.into()),
            held: true,
            disk: None,
            evicted: false,
        };
        Self::new(header, len, place, lru)
    }

    /// Register a manifest entry of `file`, `pack_len` bytes long, by
    /// reading its blob header only. Nothing else is read: the frame is
    /// loaded only when queried, which keeps the memory release of
    /// persisting real.
    pub(crate) fn open_entry(
        file: Arc<PackFile>,
        pack_len: u64,
        entry: &ManifestEntry,
        lru: Arc<SegmentLru>,
    ) -> Result<Self, SnapshotError> {
        let header = read_header_at(file.path(), entry.offset)?;
        if header.run != entry.run {
            return Err(SnapshotError::Format(format!(
                "manifest names {} but the blob holds {}",
                entry.run, header.run
            )));
        }
        // The manifest is an index, not a trust root: a length other than
        // the header's would fail the run's first load, and a range past
        // the file's end would size a frame the file cannot fill.
        let implied = header
            .arena_len
            .saturating_add((HEADER_LEN + CHECKSUM_LEN) as u64);
        if entry.bytes != implied {
            return Err(SnapshotError::Format(format!(
                "manifest length {} does not match the blob header (expected {implied})",
                entry.bytes
            )));
        }
        if entry.offset.saturating_add(entry.bytes) > pack_len {
            return Err(SnapshotError::Format("blob range outside its pack".into()));
        }
        let place = Place {
            frame: None,
            held: false,
            disk: Some(Disk::at(file, entry.offset)),
            evicted: false,
        };
        Ok(Self::new(header, entry.bytes, place, lru))
    }

    /// The run this blob holds.
    pub(crate) fn run(&self) -> RunId {
        self.header.run
    }

    /// The blob's header.
    pub(crate) fn header(&self) -> &SegmentHeader {
        &self.header
    }

    /// The blob's length, framing included.
    pub(crate) fn blob_len(&self) -> u64 {
        self.len
    }

    /// The label arena alone: what a frame holds beyond the blob's fixed
    /// header and checksum.
    pub(crate) fn arena_bytes(&self) -> u64 {
        self.len.saturating_sub((HEADER_LEN + CHECKSUM_LEN) as u64)
    }

    // A poisoned place lock is recovered, not propagated: every write
    // under it is a single assignment or flag flip that leaves a readable
    // place, so a holder that panicked left nothing half-done.
    fn read(&self) -> RwLockReadGuard<'_, Place> {
        self.place.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Place> {
        self.place.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// `Frozen` while the frame is held, `Persisted` otherwise.
    pub(crate) fn tier(&self) -> Tier {
        if self.read().held {
            Tier::Frozen
        } else {
            Tier::Persisted
        }
    }

    /// True when a read costs no disk read: the run has a frame.
    pub(crate) fn is_resident(&self) -> bool {
        self.read().frame.is_some()
    }

    /// Where the blob lies on disk, if it has been written: its pack file
    /// and its byte offset within it.
    pub(crate) fn location(&self) -> Option<(Arc<PackFile>, u64)> {
        let place = self.read();
        let disk = place.disk.as_ref()?;
        Some((Arc::clone(&disk.file), disk.offset))
    }

    /// Why the run's frame failed to load (sticky): the blob no longer
    /// reads back cleanly, so retrying is pointless until the blob moves.
    pub(crate) fn load_failure(&self) -> Option<SnapshotError> {
        self.read().failure().cloned()
    }

    /// Lend the run's labels to `f`, read off the frame under the place's
    /// read lock, so the replacer cannot drop it mid-read. A miss loads
    /// the frame under the write lock and lends it from the copy of the
    /// `Arc` the load returned. `None` when the blob no longer reads back
    /// cleanly from disk.
    pub(crate) fn with_labels<R>(self: &Arc<Self>, f: impl FnOnce(ArenaRef<'_>) -> R) -> Option<R> {
        let place = self.read();
        if let Some(frame) = &place.frame {
            if !place.held {
                self.last_access.store(self.lru.tick(), Ordering::Relaxed);
                with_profile(|p| p.verifies_skipped += 1);
            }
            return Some(f(blob_arena(frame, &self.header).ok()?));
        }
        drop(place);
        let mut place = self.write();
        self.last_access.store(self.lru.tick(), Ordering::Relaxed);
        let frame = match &place.frame {
            // Another reader loaded it while this one waited.
            Some(frame) => Arc::clone(frame),
            None => {
                let frame = self.load(&mut place)?;
                if !place.evicted {
                    self.lru.enter(Arc::clone(self));
                }
                frame
            }
        };
        drop(place);
        Some(f(blob_arena(&frame, &self.header).ok()?))
    }

    /// Under the place write lock: read the blob at its location into a
    /// new frame with one positioned read. The first load at a place
    /// verifies it — framing + checksum, and that it is the blob
    /// registered here; labels decode lazily later. A failure is sticky
    /// for this place.
    fn load(&self, place: &mut Place) -> Option<Arc<[u8]>> {
        let disk = place.disk.as_mut()?;
        let verify = match &disk.state {
            LoadState::Failed(_) => return None,
            LoadState::Unread => true,
            LoadState::Verified => false,
        };
        let obs = &self.lru.obs;
        let span = obs.timer();
        let loaded = disk
            .file
            .frame(disk.offset, self.len)
            .map_err(SnapshotError::from)
            .and_then(|frame| {
                if verify && verify_segment_bytes(&frame)? != self.header {
                    return Err(SnapshotError::Format(
                        "the blob changed since its registration".into(),
                    ));
                }
                Ok(frame)
            });
        match loaded {
            Ok(frame) => {
                obs.pack_pins.inc();
                with_profile(|p| p.pack_pins += 1);
                if verify {
                    obs.finish(
                        span,
                        &obs.h_pack_pin,
                        Some(self.run().0),
                        Some(Tier::Persisted.name()),
                        || format!("bytes={}", self.len),
                    );
                    disk.state = LoadState::Verified;
                }
                place.frame = Some(Arc::clone(&frame));
                Some(frame)
            }
            Err(cause) => {
                obs.event(
                    "pack_pin_failed",
                    Some(self.run().0),
                    Some(Tier::Persisted.name()),
                    || format!("file={} cause={cause}", disk.file.path().display()),
                );
                disk.state = LoadState::Failed(cause);
                None
            }
        }
    }

    /// **Persist**: hand the held frame to `write` — which appends it to
    /// a pack and returns the pack and the blob's offset there — unless
    /// the run already has a location, then let the frame go. Returns
    /// where `write` put the blob, `None` when it did not run. The write
    /// runs outside the place lock, so
    /// readers keep reading the frame meanwhile; an eviction that lands
    /// during it wins, and the blob just written is dead bytes in its
    /// pack, which compaction reclaims.
    pub(crate) fn persist(
        &self,
        write: impl FnOnce(&[u8]) -> Result<(Arc<PackFile>, u64), SnapshotError>,
    ) -> Result<Option<(Arc<PackFile>, u64)>, ServiceError> {
        let gone = || ServiceError::UnknownRun(self.run());
        let blob = {
            let mut place = self.write();
            if place.evicted {
                return Err(gone());
            }
            if place.held && place.disk.is_some() {
                release(&mut place);
                return Ok(None);
            }
            match (&place.frame, place.held) {
                (Some(frame), true) => Arc::clone(frame),
                _ => return Ok(None),
            }
        };
        let (file, offset) =
            write(&blob).map_err(|e| ServiceError::Snapshot(self.run(), e.to_string()))?;
        let mut place = self.write();
        if place.evicted {
            return Err(gone());
        }
        place.disk = Some(Disk::at(Arc::clone(&file), offset));
        release(&mut place);
        Ok(Some((file, offset)))
    }

    /// **Re-heat**: load the frame if it is not in memory, hold it, and
    /// take it out of the replacer, so reads stop touching disk. The
    /// location stays — the blob is still listed, and a restart brings
    /// the run back persisted. `Ok(false)` when the frame is held
    /// already.
    pub(crate) fn reheat(&self) -> Result<bool, ServiceError> {
        let mut place = self.write();
        if place.evicted {
            return Err(ServiceError::UnknownRun(self.run()));
        }
        if place.held {
            return Ok(false);
        }
        if place.frame.is_none() && self.load(&mut place).is_none() {
            let cause = place
                .failure()
                .map_or("no blob".into(), SnapshotError::to_string);
            return Err(ServiceError::Snapshot(self.run(), cause));
        }
        place.held = true;
        self.lru.leave(self);
        Ok(true)
    }

    /// A rewrite copied the blob to `offset` of `file`: point the run
    /// there. Every holder — the store, a handle, a scan's snapshot —
    /// follows, because they hold this object and the next load reads
    /// the place under the same lock. A frame loaded from the old place
    /// goes with it; a held one stays. The caller unlinks the old file
    /// only after this returns, so no load ever opens a location that is
    /// gone.
    pub(crate) fn relocate(&self, file: Arc<PackFile>, offset: u64) {
        let mut place = self.write();
        place.disk = Some(Disk::at(file, offset));
        if !place.held {
            place.frame = None;
            self.lru.leave(self);
        }
    }

    /// **Evict**, a sealed run's only exit: leave the replacer. Settled
    /// under the place lock, so a load through a stale handle afterwards
    /// reads on without entering the replacer, and a persist or re-heat
    /// after it changes nothing.
    pub(crate) fn evict(&self) {
        let mut place = self.write();
        place.evicted = true;
        self.lru.leave(self);
    }

    /// Shed the frame (replacer eviction) by dropping it. Non-blocking:
    /// `false` if the place lock is contended — a load or a read is
    /// mid-flight — or there is no frame the replacer may drop.
    pub(crate) fn shed(&self) -> bool {
        let mut place = match self.place.try_write() {
            Ok(place) => place,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return false,
        };
        !place.held && place.frame.take().is_some()
    }
}

/// Let a held frame go: the run is read from its location from now on.
fn release(place: &mut Place) {
    place.frame = None;
    place.held = false;
}
