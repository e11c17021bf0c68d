//! **Sealed runs**: a completed run is one immutable segment blob, in a
//! versioned binary format named by an append-only seal log, whose bytes
//! sit in a heap frame, in a pack file on disk, or both — loadable at
//! engine build time so historical runs keep answering cross-run queries.
//!
//! A *segment blob* holds one run (format version 6, all integers
//! little-endian):
//!
//! ```text
//! magic     8 B   "WFTIERS1"
//! version   u32   6
//! run       u64
//! spec      u32
//! skl_bits  u32
//! source    u32   (u32::MAX = no source recorded)
//! count     u32   labeled vertices
//! arena     u64   arena byte length
//! drl_bits  u64   DRL accounting bits (hot-tier footprint, for stats)
//! frozen_at u64   unix seconds at freeze time (0 = unknown)
//! labels    arena the run's label arena, a context trie
//!                 (wf_drl::LabelArena), below
//! checksum  u32   CRC-32C over everything above
//! ```
//!
//! The arena (`wf_drl::arena` has the bit-level table):
//!
//! | part      | what it holds |
//! |-----------|---------------|
//! | layout    | id span, context and trie record counts, 15 field widths |
//! | presence  | a `u64` word per 64 vertex ids, with the labeled vertices before it |
//! | cells     | per label: context · skeleton vertex · rec · name code (0 = the spec vertex's name) |
//! | contexts  | per distinct context: prefix · own index · own kind · own graph |
//! | trie      | per distinct prefix entry: parent · depth · index · kind · graph · skeleton vertex · rec |
//!
//! Every record is fixed-width at the widths the run needs, in one bit
//! stream; a read is field loads, never a decode. On the benchmark's
//! `tiered-read` workload (seed 1) a frozen label costs 2.99 B, where
//! version 5 spent 4.81 B. A name code 0 reads through the spec's name
//! table ([`wf_drl::SpecTables::names`]), so a sealed run reads its names
//! through its catalog entry, as it reads its reachability through the
//! skeleton.
//!
//! The arena's layout is `wf-drl`'s: this module frames `arena` bytes and
//! hands them to [`wf_drl::ArenaRef`], which checks them.
//! Any other version — of a blob or of the seal log — is rejected with a typed
//! [`SnapshotError::Format`], never guessed at: version 5 was the same
//! presence words over 7-field cells naming a γ-coded prefix heap by
//! byte offset, version 4 that layout under a `u64` FNV-1a trailer,
//! version 3 held a sorted 12-byte `(vertex, name, offset)` slot per
//! label over a heap of whole encoded labels, version 2 carried 44 more
//! header bytes (a freeze-time SKL report), and each is refused by its
//! version word exactly as version 1 is.
//!
//! Blobs live in **pack files** (`pack-<seq>.wfseg`): one or more blobs
//! concatenated. Fresh spills append to the pack their engine lifetime
//! opened last, until it reaches [`PACK_MAX_RUNS`] or
//! [`PACK_TARGET_BYTES`]; compaction merges underfull packs and rewrites
//! dead-heavy ones. Each blob carries its own checksum
//! ([`wf_wal::crc32c`], the one the WAL frames use), so a pack needs no
//! container framing: the **seal log** ([`SEAL_LOG_FILE`]) is the
//! directory. It is `wf-wal`'s frame codec behind its own header
//! ([`SEAL_LOG_HEADER`]), one record per change: [`Seal::Sealed`] names a
//! run's pack, offset and length, [`Seal::Evicted`] ends a run, and a
//! run's last record that reads back is where it lies. Nothing in the log
//! is rewritten in place: it is appended to, and replaced whole only once
//! more than [`DEAD_HEAVY_RATIO`] of its records are dead. Every byte
//! reaches disk, and comes back, through `wf-wal`'s file manager
//! ([`wf_wal::file`]). A pack — a fresh spill's or a compaction's — is
//! created with `create_new` and only ever **appended** to
//! ([`wf_wal::file::append`]: write, sync, and a directory fsync for a
//! new file), so a blob is on disk before the record that names it is
//! appended the same way. A crash cannot leave a record pointing at
//! unsynced blobs; a record cut off mid-append is the log's last bytes —
//! the start of one frame, with no whole record in them — and is dropped
//! (sync failures surface as the typed [`SnapshotError::Sync`]). A seal
//! log read by [`read_seal_log`] that is bad anywhere else — among
//! them a length that claims bytes past the end of the file while a
//! whole record follows — is refused whole, never read as a shorter log.
//!
//! A completed run is **one object**, a `SealedRun`, from freeze to
//! eviction, and its bytes in memory are **one frame**: an `Arc<[u8]>`
//! holding the blob, which every read borrows the same
//! [`wf_drl::ArenaRef`] from. Freeze encodes the blob into a frame the
//! run *holds*; persisting appends those bytes, unchanged, to a pack and
//! lets the frame go; a read of a run on disk loads a frame with one
//! positioned read ([`wf_wal::file::read_at`]: open, `pread`, close — no
//! descriptor outlives a load) that the replacer may drop again, a
//! private copy an unlink of its pack does not touch; re-heating holds
//! the frame (loading it first if need be).
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

use crate::slot::{LineCounter, RunSlot};
use crate::store::{SegmentLru, Tier};
use crate::telemetry::with_profile;
use crate::{RunId, ServiceError, SpecContext, SpecId};
use std::fmt;
use std::io::ErrorKind;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use wf_drl::{ArenaRef, LabelArena, NameTable};
use wf_graph::VertexId;
use wf_wal::crc32c;
use wf_wal::file::{self, FileError};

/// Segment file magic.
pub const SEGMENT_MAGIC: [u8; 8] = *b"WFTIERS1";
/// The segment format version this engine reads and writes.
pub const SEGMENT_VERSION: u32 = 6;
/// A file holding fewer live runs than this is *underfull*: compaction
/// merges underfull files, and rewrites *dead-heavy* ones — more than
/// [`DEAD_HEAVY_RATIO`] of their bytes belonging to evicted runs. Every
/// other file is left alone.
pub const MIN_PACK_RUNS: usize = 64;
pub use wf_wal::DEAD_HEAVY_RATIO;
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

impl From<FileError> for SnapshotError {
    fn from(e: FileError) -> Self {
        match (e.source.kind(), e.op) {
            // A positioned read past the end of the file.
            (ErrorKind::UnexpectedEof, _) => SnapshotError::Format("truncated segment".into()),
            (_, "fsync" | "fsync dir") => SnapshotError::Sync(e.to_string()),
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
    let labels = blob_arena(bytes, &header, &NameTable::default())?.len();
    if labels != header.count as usize {
        return Err(SnapshotError::Format(format!(
            "arena holds {labels} labels, header says {}",
            header.count
        )));
    }
    Ok(header)
}

/// The label arena of a blob whose framing matches `header`, read in
/// place and naming through `names` — the one frame → reader step,
/// whoever filled the frame. The arena checks its own layout.
fn blob_arena<'a>(
    blob: &'a [u8],
    header: &SegmentHeader,
    names: &'a NameTable,
) -> Result<ArenaRef<'a>, SnapshotError> {
    let arena = blob
        .get(HEADER_LEN..)
        .and_then(|body| body.get(..header.arena_len as usize))
        .ok_or_else(|| SnapshotError::Format("truncated segment".into()))?;
    ArenaRef::new(arena, header.skl_bits as usize, names)
        .map_err(|e| SnapshotError::Format(e.to_string()))
}

/// Parse and fully validate segment bytes — framing, checksum, **and
/// every label**, its name read through `names` (the spec's
/// [`wf_drl::SpecTables::names`]) — back into the header and an owned
/// label arena.
pub fn decode_segment(
    bytes: &[u8],
    names: &NameTable,
) -> Result<(SegmentHeader, LabelArena), SnapshotError> {
    let header = verify_segment_bytes(bytes)?;
    let arena = blob_arena(bytes, &header, names)?
        .to_arena()
        .map_err(|e| SnapshotError::Format(e.to_string()))?;
    Ok((header, arena))
}

/// Read only the header of the blob at `offset` (the registration path
/// — no arena, no checksum, no frame), by the one positioned read.
pub fn read_header_at(path: &Path, offset: u64) -> Result<SegmentHeader, SnapshotError> {
    let mut buf = [0; HEADER_LEN];
    file::read_at(path, offset, &mut buf)?;
    parse_header(&buf)
}

/// One record of the seal log: where a persisted run's blob lies, or
/// that the run was evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seal {
    /// The run's blob is the `len` bytes at `offset` of pack `pack`
    /// ([`pack_file_name`]): appended by a persist once the blob is
    /// synced, and by a compaction for every blob it moved.
    Sealed {
        run: RunId,
        pack: u64,
        offset: u64,
        len: u64,
    },
    /// The run was evicted: no earlier record of it registers.
    Evicted { run: RunId },
}

/// The seal log's file name inside the spill directory.
pub const SEAL_LOG_FILE: &str = "wf-seal.log";
/// What the seal log starts with: the magic `WFSL`, then its format
/// version 1 as a `u32` LE. Frames follow in `wf-wal`'s codec
/// ([`wf_wal::encode_frame`]): a log of one kind never reads as the other.
pub const SEAL_LOG_HEADER: [u8; 8] = *b"WFSL\x01\0\0\0";
/// The longest seal record body: a kind byte and four varints.
const MAX_SEAL_BODY: usize = 1 + 4 * 10;

impl Seal {
    /// The run the record names.
    pub fn run(&self) -> RunId {
        match *self {
            Seal::Sealed { run, .. } | Seal::Evicted { run } => run,
        }
    }

    /// Append the record's frame to `out`: `[kind][run][pack][offset][len]`
    /// (kind 0) or `[kind][run]` (kind 1), every number a LEB128 varint.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let (kind, fields) = match *self {
            Seal::Sealed {
                run,
                pack,
                offset,
                len,
            } => (0, vec![run.0, pack, offset, len]),
            Seal::Evicted { run } => (1, vec![run.0]),
        };
        wf_wal::encode_frame(out, |out| {
            out.push(kind);
            fields.into_iter().for_each(|v| wf_wal::put_varint(out, v));
        });
    }

    /// Inverse of [`Self::encode_into`] for one frame's body: a known
    /// kind with its fields, and nothing left over.
    fn parse(body: &[u8]) -> Result<Self, String> {
        let (&kind, mut rest) = body.split_first().ok_or("an empty body")?;
        let mut fields = Vec::new();
        while let Some((v, n)) = wf_wal::get_varint(rest) {
            fields.push(v);
            rest = &rest[n..];
        }
        match (kind, &fields[..], rest.is_empty()) {
            (0, &[run, pack, offset, len], true) => Ok(Seal::Sealed {
                run: RunId(run),
                pack,
                offset,
                len,
            }),
            (1, &[run], true) => Ok(Seal::Evicted { run: RunId(run) }),
            _ => Err(format!("not a seal record: kind {kind}, {body:02x?}")),
        }
    }
}

/// [`SEAL_LOG_HEADER`], then `records`: a whole seal log.
pub fn seal_log_bytes(records: &[Seal]) -> Vec<u8> {
    let mut out = SEAL_LOG_HEADER.to_vec();
    records.iter().for_each(|r| r.encode_into(&mut out));
    out
}

/// Read the seal log of `dir` — the one reader, the engine's and the
/// tests'. A missing log is an empty one; a log that ends in half a
/// record — a crash-cut last append — reads up to it, with its
/// [`wf_wal::Scanned::torn`] set. A log is refused with a
/// [`SnapshotError::Format`] when it does not start with
/// [`SEAL_LOG_HEADER`], or when a frame fails its checks and is not such
/// a cut ([`wf_wal::scan_log`] tells): reading a log that ends early
/// anywhere else would drop records that name packs.
pub fn read_seal_log(dir: &Path) -> Result<wf_wal::Scanned<Seal>, SnapshotError> {
    let path = dir.join(SEAL_LOG_FILE);
    let (log, cut) = wf_wal::scan_log(&path, &SEAL_LOG_HEADER, 2..=MAX_SEAL_BODY, Seal::parse)
        .map_err(|e| SnapshotError::Format(e.to_string()))?;
    match &log.torn {
        Some(torn) if !cut => Err(SnapshotError::Format(format!(
            "{} holds a bad record at byte {}: {}",
            torn.file, torn.valid_bytes, torn.detail
        ))),
        _ => Ok(log),
    }
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
    file: Arc<Path>,
    offset: u64,
    state: LoadState,
}

impl Disk {
    fn at(file: Arc<Path>, offset: u64) -> Self {
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
    /// The blob's pack location, from the first persist (or the seal
    /// record the run was registered from) until the eviction.
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
    /// The run's specification: its name table reads the arena's names.
    ctx: Arc<SpecContext>,
    /// Length of the blob (not of its pack: packs share one file among
    /// many runs). A rewrite copies blobs verbatim, so it never changes.
    len: u64,
    place: RwLock<Place>,
    /// LRU recency stamp (the store's logical clock at the last read of
    /// a frame loaded from disk).
    pub(crate) last_access: AtomicU64,
    lru: Arc<SegmentLru>,
    /// Queries answered over the run's lifetime: a frozen run's is its
    /// hot slot's counter, which a handle taken before the freeze still
    /// bumps; a run read from disk starts a new one.
    pub(crate) queries: Arc<LineCounter>,
    /// Bytes the run's records take in its WAL shard — what its
    /// checkpoint makes dead there; 0 for a run read from disk, whose
    /// records the log no longer holds.
    pub(crate) wal_bytes: u64,
}

impl SealedRun {
    /// A sealed run at `place`, counting its queries afresh, with no
    /// records in a WAL shard.
    fn new(
        header: SegmentHeader,
        ctx: Arc<SpecContext>,
        len: u64,
        place: Place,
        lru: Arc<SegmentLru>,
    ) -> Self {
        Self {
            header,
            ctx,
            len,
            place: RwLock::new(place),
            last_access: AtomicU64::new(0),
            lru,
            queries: Arc::new(LineCounter::new()),
            wal_bytes: 0,
        }
    }

    /// A run just frozen from `slot`: its encoded `blob` held in a frame,
    /// no location yet, counting its queries on the slot's counter, its
    /// records taking what the slot journaled of its WAL shard.
    pub(crate) fn on_heap(
        header: SegmentHeader,
        blob: Vec<u8>,
        slot: &RunSlot,
        lru: Arc<SegmentLru>,
    ) -> Self {
        let len = blob.len() as u64;
        let place = Place {
            frame: Some(blob.into()),
            held: true,
            disk: None,
            evicted: false,
        };
        Self {
            queries: Arc::clone(&slot.queries),
            wal_bytes: slot.wal_bytes.load(Ordering::Relaxed),
            ..Self::new(header, Arc::clone(slot.ctx()), len, place, lru)
        }
    }

    /// Register the blob a [`Seal::Sealed`] record names — `len` bytes at
    /// `offset` of `file`, a pack `pack_len` bytes long — by reading its
    /// header only, its spec looked up in `catalog`. Nothing else is
    /// read: the frame is loaded only when queried, which keeps the
    /// memory release of persisting real.
    pub(crate) fn open_at(
        file: Arc<Path>,
        pack_len: u64,
        (run, offset, len): (RunId, u64, u64),
        catalog: &[Arc<SpecContext>],
        lru: Arc<SegmentLru>,
    ) -> Result<Self, SnapshotError> {
        let header = read_header_at(&file, offset)?;
        if header.run != run {
            return Err(SnapshotError::Format(format!(
                "the seal log names {run} but the blob holds {}",
                header.run
            )));
        }
        let ctx = catalog.get(header.spec.0).ok_or_else(|| {
            SnapshotError::Format(format!("spec {} is beyond the catalog", header.spec.0))
        })?;
        // A record is an index, not a trust root: a length other than the
        // header's would fail the run's first load, and a range past the
        // file's end would size a frame the file cannot fill.
        let implied = header
            .arena_len
            .saturating_add((HEADER_LEN + CHECKSUM_LEN) as u64);
        if len != implied {
            return Err(SnapshotError::Format(format!(
                "sealed length {len} does not match the blob header (expected {implied})"
            )));
        }
        if offset.saturating_add(len) > pack_len {
            return Err(SnapshotError::Format("blob range outside its pack".into()));
        }
        let place = Place {
            frame: None,
            held: false,
            disk: Some(Disk::at(file, offset)),
            evicted: false,
        };
        Ok(Self::new(header, Arc::clone(ctx), len, place, lru))
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
    pub(crate) fn location(&self) -> Option<(Arc<Path>, u64)> {
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
            return Some(f(self.arena(frame)?));
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
        Some(f(self.arena(&frame)?))
    }

    /// The run's arena over `frame`, naming through its spec's table.
    fn arena<'a>(&'a self, frame: &'a [u8]) -> Option<ArenaRef<'a>> {
        blob_arena(frame, &self.header, self.ctx.tables().names()).ok()
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
        let loaded = read_frame(&disk.file, disk.offset, self.len).and_then(|frame| {
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
                    || format!("file={} cause={cause}", disk.file.display()),
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
    /// runs outside the place lock, so readers keep reading the frame
    /// meanwhile; an eviction that lands during it wins, and the blob
    /// just written is dead bytes in its pack, which compaction reclaims
    /// (the spill directory records the eviction after the seal record
    /// `write` appended for it).
    pub(crate) fn persist(
        &self,
        write: impl FnOnce(&[u8]) -> Result<(Arc<Path>, u64), SnapshotError>,
    ) -> Result<Option<(Arc<Path>, u64)>, ServiceError> {
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
    pub(crate) fn relocate(&self, file: Arc<Path>, offset: u64) {
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

/// A new frame holding the `len` bytes at `offset` of `path`: one
/// positioned read.
fn read_frame(path: &Path, offset: u64, len: u64) -> Result<Arc<[u8]>, SnapshotError> {
    let len = usize::try_from(len).map_err(|e| SnapshotError::Format(e.to_string()))?;
    let mut frame: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
    // A frame nobody else has seen yet: the only reference.
    if let Some(buf) = Arc::get_mut(&mut frame) {
        file::read_at(path, offset, buf)?;
    }
    Ok(frame)
}

/// Let a held frame go: the run is read from its location from now on.
fn release(place: &mut Place) {
    place.frame = None;
    place.held = false;
}
