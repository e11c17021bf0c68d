//! The **persisted tier**: frozen label arenas snapshotted to disk in a
//! versioned binary segment format with a manifest, loadable at engine
//! build time so historical runs keep answering cross-run queries.
//!
//! A *segment blob* holds one run (format version 3, all integers
//! little-endian):
//!
//! ```text
//! magic     8 B   "WFTIERS1"
//! version   u32   3
//! run       u64
//! spec      u32
//! skl_bits  u32
//! source    u32   (u32::MAX = no source recorded)
//! count     u32   labeled vertices
//! arena     u64   arena byte length
//! drl_bits  u64   DRL accounting bits (hot-tier footprint, for stats)
//! frozen_at u64   unix seconds at freeze time (0 = unknown)
//! slots     count × 12 (vertex u32, name u32, offset u32)
//! bytes     arena encoded labels
//! checksum  u64   FNV-1a over everything above
//! ```
//!
//! Any other version — blob or manifest — is rejected with a typed
//! [`SnapshotError::Format`], never guessed at: version 2 carried 44
//! more header bytes (a freeze-time SKL report) and is refused by its
//! version word exactly as version 1 is.
//!
//! Blobs live in **pack files** (`pack-<seq>.wfseg`): one or more blobs
//! concatenated. A spill writes a pack of one; compaction merges them
//! into bigger ones to cut file count at 10⁵+ runs. Each blob carries
//! its own checksum ([`wf_wal::fnv1a`], the one the WAL frames use), so a
//! pack needs no container framing: the manifest
//! (`wf-tier-manifest.txt`: `run file offset len` per line) is the
//! directory. Packs and manifests all go to disk through
//! `write_blob_file`: the one crash-safe replace
//! ([`wf_wal::replace_file`] — temp file, fsync, rename; a failed write
//! leaves no temp file) **and a directory fsync after the rename**
//! ([`wf_wal::fsync_dir`]) — a crash cannot leave the manifest pointing
//! at unsynced segments (sync failures surface as the typed
//! [`SnapshotError::Sync`]).
//! Every persisted read goes through the file's mapping
//! ([`crate::bufmgr`]): framing and checksum are verified once, at first
//! pin, and labels are read in place through the same
//! [`wf_drl::ArenaRef`] a frozen run uses; a truncated or corrupted blob
//! is rejected with a typed error — kept on the registration, so every
//! later read names the cause — never a panic.
//!
//! A run has **one registration** ([`PersistedRun`]) for as long as it
//! has a blob on disk. The blob is immutable; what a rewrite changes is
//! where it lies, and the registration is told so in place
//! ([`PersistedRun::relocate`]) under the same lock a first pin reads the
//! location through. That lock plus the `Arc` a [`SegmentPin`] holds on
//! the mapping it resolved is the whole reader protection: whoever holds
//! a registration can read it to the end, wherever the blob has moved.

use crate::bufmgr::{MappedRun, PackFile};
use crate::freeze::FrozenRun;
use crate::store::SegmentLru;
use crate::telemetry::with_profile;
use crate::{RunId, SpecId};
use std::fmt;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use wf_drl::{ArenaRef, ArenaSlot};
use wf_graph::VertexId;
use wf_wal::fnv1a;

/// Segment file magic.
pub const SEGMENT_MAGIC: [u8; 8] = *b"WFTIERS1";
/// The segment format version this engine reads and writes.
pub const SEGMENT_VERSION: u32 = 3;
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
pub(crate) const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 4 + 4 + 4 + 8 + 8 + 8;
const CHECKSUM_LEN: usize = 8;

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
        SnapshotError::Io(e.to_string())
    }
}

struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| SnapshotError::Format("truncated segment".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Fixed-size segment header — everything the engine needs to register a
/// persisted run *without* reading its arena (the lazy-load metadata).
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
    let mut r = ByteReader::new(bytes);
    let magic = r.take(8)?;
    if magic != SEGMENT_MAGIC {
        return Err(SnapshotError::Format("bad magic".into()));
    }
    let version = r.u32()?;
    if version != SEGMENT_VERSION {
        return Err(SnapshotError::Format(format!(
            "unsupported segment version {version}"
        )));
    }
    let run = RunId(r.u64()?);
    let spec = SpecId(r.u32()? as usize);
    let skl_bits = r.u32()?;
    let source = match r.u32()? {
        u32::MAX => None,
        v => Some(VertexId(v)),
    };
    let count = r.u32()?;
    let arena_len = r.u64()?;
    let drl_bits = r.u64()?;
    let frozen_at = r.u64()?;
    Ok(SegmentHeader {
        run,
        spec,
        skl_bits,
        source,
        count,
        arena_len,
        drl_bits,
        frozen_at,
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

/// Serialize a frozen run into a segment blob.
pub fn encode_segment(frozen: &FrozenRun) -> Vec<u8> {
    let arena = frozen.arena();
    let h = frozen.header();
    let mut out = Vec::with_capacity(HEADER_LEN + arena.footprint_bytes() + CHECKSUM_LEN);
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
    out.extend_from_slice(arena.slots());
    out.extend_from_slice(arena.bytes());
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Validate a blob's framing — length, magic, version, checksum — and
/// return its header **without** decoding any label. This is the cheap
/// integrity check a rewrite runs before copying a blob verbatim into a
/// new pack, and the one pass a first pin pays (labels decode lazily).
pub fn verify_segment_bytes(bytes: &[u8]) -> Result<SegmentHeader, SnapshotError> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(SnapshotError::Format("truncated segment".into()));
    }
    let (body, tail) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    if fnv1a(body) != stored {
        return Err(SnapshotError::Format("checksum mismatch".into()));
    }
    let header = parse_header(body)?;
    // A skeleton pointer is a `u32` vertex index: a wider field is not
    // something this engine ever wrote, whatever the checksum says.
    if header.skl_bits > 32 {
        return Err(SnapshotError::Format(format!(
            "skeleton pointer width {} exceeds 32 bits",
            header.skl_bits
        )));
    }
    let slots_len = (header.count as usize)
        .checked_mul(ArenaSlot::WIRE_BYTES)
        .ok_or_else(|| SnapshotError::Format("slot count overflow".into()))?;
    let expected = HEADER_LEN
        .checked_add(slots_len)
        .and_then(|n| n.checked_add(header.arena_len as usize))
        .ok_or_else(|| SnapshotError::Format("length overflow".into()))?;
    if body.len() != expected {
        return Err(SnapshotError::Format(format!(
            "segment length {} does not match header (expected {expected})",
            body.len()
        )));
    }
    Ok(header)
}

/// Parse and fully validate segment bytes — framing, checksum, **and
/// every label** — back into a [`FrozenRun`].
pub fn decode_segment(bytes: &[u8]) -> Result<FrozenRun, SnapshotError> {
    let header = verify_segment_bytes(bytes)?;
    let mut r = ByteReader::new(&bytes[HEADER_LEN..bytes.len() - CHECKSUM_LEN]);
    let slots = r.take(header.count as usize * ArenaSlot::WIRE_BYTES)?;
    let arena_bytes = r.take(header.arena_len as usize)?;
    let arena = ArenaRef::new(slots, arena_bytes, header.skl_bits as usize);
    frozen_from(&header, arena, None)
        .ok_or_else(|| SnapshotError::Format("arena validation failed".into()))
}

/// The one blob → [`FrozenRun`] constructor: the run `header` describes,
/// over an owned, fully re-validated copy of the labels `arena` lends.
/// `None` if a label does not validate.
fn frozen_from(
    header: &SegmentHeader,
    arena: ArenaRef<'_>,
    home: Option<Arc<PersistedRun>>,
) -> Option<FrozenRun> {
    Some(FrozenRun {
        run: header.run,
        spec: header.spec,
        source: header.source,
        arena: arena.to_arena()?,
        drl_bits: header.drl_bits,
        frozen_at: header.frozen_at,
        queries: AtomicU64::new(0),
        home,
    })
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
    wf_wal::fsync_dir(dir).map_err(|e| SnapshotError::Sync(format!("{}: {e}", dir.display())))
}

/// Read `len` raw bytes at `offset` of `path` (one blob's slice of a
/// pack), without validating them.
pub(crate) fn read_raw_range(path: &Path, offset: u64, len: u64) -> Result<Vec<u8>, SnapshotError> {
    let mut f = fs::File::open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    let mut buf = vec![0u8; len as usize];
    f.read_exact(&mut buf)
        .map_err(|_| SnapshotError::Format("truncated segment".into()))?;
    Ok(buf)
}

/// Read only the header of the blob at `offset` (the registration path
/// — no slots, no arena, no checksum, no mapping).
pub fn read_header_at(path: &Path, offset: u64) -> Result<SegmentHeader, SnapshotError> {
    let mut f = fs::File::open(path)?;
    f.seek(SeekFrom::Start(offset))?;
    let mut buf = Vec::with_capacity(HEADER_LEN);
    f.take(HEADER_LEN as u64).read_to_end(&mut buf)?;
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

/// Atomically rewrite the manifest with every registered blob
/// (`write_blob_file`) — after this returns, a crash cannot resurrect
/// the previous manifest or leave the new one pointing at unsynced data.
pub fn write_manifest(dir: &Path, entries: &[ManifestEntry]) -> Result<(), SnapshotError> {
    let mut out = String::from(MANIFEST_HEADER);
    out.push('\n');
    for e in entries {
        out.push_str(&format!(
            "{} {} {} {}\n",
            e.run.0, e.file, e.offset, e.bytes
        ));
    }
    write_blob_file(dir, &dir.join(MANIFEST_FILE), out.as_bytes())
}

/// Load the manifest; a missing file is an empty manifest, any header
/// but [`MANIFEST_HEADER`] is a typed [`SnapshotError::Format`], and
/// malformed lines are skipped — among them the `epoch <n>` line earlier
/// engines wrote — (registration re-validates every blob header, so the
/// manifest is an index, not a trust root).
pub fn load_manifest(dir: &Path) -> Result<Vec<ManifestEntry>, SnapshotError> {
    let path = dir.join(MANIFEST_FILE);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut lines = text.lines();
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

/// Load state of a persisted run's blob: cold, resolved, or known-bad.
#[derive(Debug)]
enum LoadState {
    /// Never pinned at this place; the next query maps the file (if
    /// nobody has yet) and verifies the blob.
    Unloaded,
    /// Resolved to a byte range inside the file's mapping: verified
    /// once, then served zero-copy. Eviction `madvise`s the pages away,
    /// but this state — the parsed metadata — stays until the blob moves.
    Mapped(Arc<MappedRun>),
    /// A load failed (the blob vanished or was corrupted after
    /// registration); cached with its cause, so queries degrade to "no
    /// labels" instead of re-reading a broken file and the engine's
    /// fallible reads can say why.
    Failed(SnapshotError),
}

/// Where a registration's blob is right now, and what has been resolved
/// there. One lock guards all of it, so a reader opens the location it
/// read and a rewrite moves the blob between two reads, never during
/// one.
#[derive(Debug)]
struct Place {
    /// The pack file the blob lives in, shared with every other run
    /// registered in it; reads resolve through its mapping.
    file: Arc<PackFile>,
    offset: u64,
    state: LoadState,
}

/// A run's **registration** in the spill directory: created when its
/// blob is first written (or from a manifest line at engine build),
/// *relocated in place* when a rewrite moves the blob
/// ([`Self::relocate`]), kept by the run's frozen arena across a
/// re-heat, dropped at eviction — one per run for as long as
/// the run has a blob on disk, whichever tier serves it. Its bytes are
/// **mapped and verified lazily** on first query. Residency is governed
/// by the store's [`SegmentLru`]: every pin-in registers there, and when
/// the resident-byte budget is exceeded the least-recently-used blobs
/// have their pages `madvise`d away — so a persisted run that turns hot
/// reads at page-cache speed, and cools back to zero resident bytes when
/// the traffic moves on.
#[derive(Debug)]
pub struct PersistedRun {
    pub(crate) run: RunId,
    pub(crate) spec: SpecId,
    pub(crate) source: Option<VertexId>,
    pub(crate) published: usize,
    /// Length of this run's blob on disk (not the whole file: packs
    /// share one file among many runs). A rewrite copies blobs verbatim,
    /// so the length never changes with the place.
    disk_bytes: u64,
    pub(crate) frozen_at: u64,
    place: RwLock<Place>,
    /// Live [`SegmentPin`] count. A pinned blob is never a replacer
    /// victim, so a scan iterating labels off the mapping cannot have
    /// its pages `madvise`d away mid-visit.
    pins: AtomicU32,
    /// Whether the blob counts as resident in the replacer. Only
    /// [`Self::set_resident`] flips it, and every flip moves the LRU's
    /// byte total by the blob's length, so the two cannot drift.
    resident: AtomicBool,
    /// LRU recency stamp (the store's logical clock at last query).
    pub(crate) last_access: AtomicU64,
    /// Set while the run is served from memory (re-heated) or gone
    /// (evicted), cleared when it is served from here again: a pin-in
    /// through a stale handle must not enter the LRU meanwhile.
    pub(crate) retired: AtomicBool,
    lru: Arc<SegmentLru>,
    /// Queries answered over the run's lifetime (the store's tier
    /// transition carries the count from one representation to the
    /// next, so engine-wide `queries_answered` stays monotone).
    pub(crate) queries: AtomicU64,
}

impl PersistedRun {
    /// Register the blob described by `header`, `len` bytes at `offset`
    /// of `file`. Nothing is read: the bytes are mapped only when
    /// queried, which keeps the memory release of persisting real.
    pub(crate) fn new(
        header: &SegmentHeader,
        file: Arc<PackFile>,
        offset: u64,
        len: u64,
        lru: Arc<SegmentLru>,
    ) -> Self {
        Self {
            run: header.run,
            spec: header.spec,
            source: header.source,
            published: header.count as usize,
            disk_bytes: len,
            frozen_at: header.frozen_at,
            place: RwLock::new(Place {
                file,
                offset,
                state: LoadState::Unloaded,
            }),
            pins: AtomicU32::new(0),
            resident: AtomicBool::new(false),
            last_access: AtomicU64::new(0),
            retired: AtomicBool::new(false),
            lru,
            queries: AtomicU64::new(0),
        }
    }

    /// Register a manifest entry of `file` by reading its blob header
    /// only.
    pub(crate) fn open_entry(
        file: Arc<PackFile>,
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
        Ok(Self::new(&header, file, entry.offset, entry.bytes, lru))
    }

    /// The run this segment holds.
    pub fn run(&self) -> RunId {
        self.run
    }

    /// On-disk size of the run's blob.
    pub fn disk_bytes(&self) -> u64 {
        self.disk_bytes
    }

    /// Where the blob is right now: its pack file, and its byte offset
    /// and length within it.
    pub fn place(&self) -> (Arc<PackFile>, u64, u64) {
        let g = self.place.read().expect("segment place poisoned");
        (Arc::clone(&g.file), g.offset, self.disk_bytes)
    }

    /// A rewrite copied the blob to `offset` of `file`: point the
    /// registration there. Every holder — the store, a handle, a scan's
    /// snapshot — follows, because they hold this object and the next
    /// first pin reads the place under the same lock; a [`SegmentPin`]
    /// taken before the move keeps the mapping it resolved until it
    /// drops. The caller unlinks the old file only after this returns,
    /// so no reader ever opens a location that is gone.
    pub(crate) fn relocate(&self, file: Arc<PackFile>, offset: u64) {
        let mut g = self.place.write().expect("segment place poisoned");
        *g = Place {
            file,
            offset,
            state: LoadState::Unloaded,
        };
        // The old range's pages are no longer reachable from here. No
        // pin can flip the flag back while the place lock is held; the
        // entry this may leave in the LRU's candidate map has nothing to
        // shed and is dropped the next time the run exits.
        self.set_resident(false);
    }

    /// Flip the residency flag, moving the LRU's byte total with it.
    /// Returns whether the flag changed.
    pub(crate) fn set_resident(&self, on: bool) -> bool {
        if self.resident.swap(on, Ordering::AcqRel) == on {
            return false;
        }
        self.lru.account(self.disk_bytes, on);
        true
    }

    /// Pin an already-resolved range (call with the place lock held, so
    /// neither the shed path nor a relocation can slip between the two
    /// steps). A range the replacer `madvise`d away pins back in — the
    /// pages re-fault lazily underneath — and must be re-admitted to the
    /// LRU: returns whether. A retired registration (read through a
    /// stale handle) is not the replacer's business.
    fn repin(&self) -> bool {
        self.pins.fetch_add(1, Ordering::AcqRel);
        if !self.retired.load(Ordering::Acquire) && self.set_resident(true) {
            self.lru.obs.pack_pins.inc();
            with_profile(|p| p.pack_pins += 1);
            true
        } else {
            with_profile(|p| p.verifies_skipped += 1);
            false
        }
    }

    /// The slow path of [`Self::pin`], under the place write lock: map
    /// the file the blob is in *now* (if no other run of the pack has
    /// yet), run the blob's one verification pass — framing + checksum;
    /// labels decode lazily later — and pin the resolved range. A
    /// failure is sticky for this place only; the file handle caches
    /// nothing but a successful map.
    fn first_pin(&self) -> Option<(Arc<MappedRun>, bool)> {
        let mut g = self.place.write().expect("segment place poisoned");
        match &g.state {
            LoadState::Mapped(m) => return Some((Arc::clone(m), self.repin())),
            LoadState::Failed(_) => return None,
            LoadState::Unloaded => {}
        }
        let obs = &self.lru.obs;
        let span = obs.timer();
        let resolved = g
            .file
            .mapping()
            .map_err(SnapshotError::from)
            .and_then(|map| MappedRun::resolve(map, g.offset, self.disk_bytes));
        let m = match resolved {
            Ok(m) => m,
            Err(cause) => {
                obs.event(
                    "pack_pin_failed",
                    Some(self.run.0),
                    Some("persisted"),
                    || format!("file={} cause={cause}", g.file.path().display()),
                );
                g.state = LoadState::Failed(cause);
                return None;
            }
        };
        obs.finish(
            span,
            &obs.h_pack_pin,
            Some(self.run.0),
            Some("persisted"),
            || format!("bytes={}", self.disk_bytes),
        );
        let m = Arc::new(m);
        g.state = LoadState::Mapped(Arc::clone(&m));
        Some((m, self.repin()))
    }

    /// Pin the run's bytes for reading. The first pin maps and verifies
    /// ([`Self::first_pin`]); every later pin is zero-copy. The pin makes
    /// the blob ineligible for eviction until dropped; `None` if the
    /// blob no longer reads back cleanly.
    ///
    /// The pin count is taken while the place lock is held; the shed
    /// path re-checks it under the (try-)write lock, so a blob can
    /// never be evicted between resolve and pin.
    pub(crate) fn pin(self: &Arc<Self>) -> Option<SegmentPin> {
        self.last_access.store(self.lru.tick(), Ordering::Relaxed);
        let resolved = match &self.place.read().expect("segment place poisoned").state {
            LoadState::Mapped(m) => Some((Arc::clone(m), self.repin())),
            LoadState::Failed(_) => return None,
            LoadState::Unloaded => None,
        };
        let (mapped, admit) = match resolved {
            Some(r) => r,
            None => self.first_pin()?,
        };
        // Register outside the place lock: the LRU's shed path takes
        // place locks under its own mutex, so nesting the other way
        // around here would risk an ordering inversion.
        if admit {
            self.lru.admit(Arc::clone(self));
        }
        Some(SegmentPin {
            run: Arc::clone(self),
            mapped,
        })
    }

    /// True while the blob counts as resident — pinned in and not yet
    /// `madvise`d away.
    pub fn is_loaded(&self) -> bool {
        self.resident.load(Ordering::Acquire)
    }

    /// Live pin count (replacer victim filtering).
    pub(crate) fn pinned(&self) -> bool {
        self.pins.load(Ordering::Acquire) > 0
    }

    /// Why the run's first pin failed, once it has (sticky): the blob no
    /// longer reads back cleanly, so retrying is pointless until the
    /// blob moves.
    pub fn load_failure(&self) -> Option<SnapshotError> {
        match &self.place.read().expect("segment place poisoned").state {
            LoadState::Failed(cause) => Some(cause.clone()),
            _ => None,
        }
    }

    /// Evict the resident blob (replacer eviction): the range keeps its
    /// metadata but hands its pages back to the kernel with
    /// `madvise(DONTNEED)`. Non-blocking and pin-aware: returns `None`
    /// if the place lock is contended (a first pin or query is
    /// mid-flight), a pin is live, or nothing is resident; the bytes
    /// freed otherwise.
    pub(crate) fn shed(&self) -> Option<u64> {
        let g = self.place.try_write().ok()?;
        // Re-checked under the write lock: a pin taken under the read
        // lock has either completed (visible here) or is blocked on us.
        if self.pins.load(Ordering::Acquire) > 0 {
            return None;
        }
        match &g.state {
            LoadState::Mapped(m) if self.set_resident(false) => {
                m.advise_dont_need();
                Some(self.disk_bytes)
            }
            _ => None,
        }
    }
}

/// A pinned view of one persisted run's labels. While the pin lives, the
/// replacer will not evict the blob's pages; dropping it unpins. All
/// label reads go through [`Self::arena`], straight off the mapping.
pub struct SegmentPin {
    run: Arc<PersistedRun>,
    mapped: Arc<MappedRun>,
}

impl SegmentPin {
    /// The run's labels, read in place.
    pub(crate) fn arena(&self) -> ArenaRef<'_> {
        self.mapped.arena()
    }

    /// Materialize an owned, fully re-validated [`FrozenRun`] out of the
    /// mapping — the re-heat path; the copy keeps the registration it
    /// was read from as its home. `None` if the mapped bytes no longer
    /// validate.
    pub(crate) fn to_frozen(&self) -> Option<Arc<FrozenRun>> {
        let home = Some(Arc::clone(&self.run));
        frozen_from(self.mapped.header(), self.arena(), home).map(Arc::new)
    }
}

impl Drop for SegmentPin {
    fn drop(&mut self) {
        self.run.pins.fetch_sub(1, Ordering::AcqRel);
    }
}
