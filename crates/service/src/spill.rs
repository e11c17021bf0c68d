//! The **spill directory**: the one owner of everything on disk under
//! the sealed runs — pack naming, the seal log and its lock, and the
//! operations that write there.
//!
//! Everything here works on the store's **registrations**: every sealed
//! run that has a location — read from disk, or re-heated and served from
//! its held frame since. The **seal log** ([`snapshot::SEAL_LOG_FILE`])
//! records where each lies: every write here is one appended record, in
//! `wf-wal`'s frame codec behind the log's own header. A blob is dead
//! only once its run is evicted.
//!
//! * [`SpillDir::persist`] **appends**: one sealed run's held frame, as it
//!   is, goes to the end of the *active pack* — the pack this engine
//!   lifetime created last — and one [`Seal::Sealed`] record to the end
//!   of the log. Nothing is rewritten, so a spill costs two syncs however
//!   many runs the directory holds.
//! * [`SpillDir::forget`] appends [`Seal::Evicted`] after an eviction, so
//!   the evicted run stays gone across a restart and its id is never
//!   issued again.
//! * [`SpillDir::compact`] is the directory's one maintenance pass
//!   (`rewrite_packs`): pick files, stream their live blobs verbatim
//!   into fresh packs, append their new places to the log, relocate the
//!   runs in place, unlink the copied files, sweep orphans. A file is
//!   picked for one of two reasons: it is *underfull* (fewer than
//!   [`MIN_PACK_RUNS`] live runs) or *dead-heavy* (more than
//!   [`DEAD_HEAVY_RATIO`] of its bytes belong to evicted runs).
//! * The log itself is replaced whole — its live records, and the
//!   highest run id it would drop — only at open or after a compaction,
//!   and only once more than [`DEAD_HEAVY_RATIO`] of its records are
//!   dead (or, at open, when a crash cut its last append short).
//!
//! [`DEAD_HEAVY_RATIO`]: wf_wal::DEAD_HEAVY_RATIO
//!
//! The durability contract of an append:
//!
//! * A blob — and, for a new pack, the pack's directory entry — is
//!   synced before the record that names it is appended, and the record
//!   is synced before the persist returns; the WAL checkpoint comes
//!   after that. Both appends are the one write the run's persist waits
//!   on: the run is `Persisted` once both landed, and stays `Frozen`,
//!   holding its frame, if either failed.
//! * No descriptor outlives an operation: each append opens its file,
//!   writes, syncs and closes it again.
//! * A lifetime never appends to a pack it did not create: the active
//!   pack starts out closed, and new packs are numbered past every pack
//!   in the directory.
//! * The active pack is closed once it holds [`PACK_MAX_RUNS`] runs or
//!   the next blob would take it past [`PACK_TARGET_BYTES`], by a failed
//!   append or sync, by `compact()` — before it picks victims or sweeps,
//!   so it never unlinks a file still being appended to — and by
//!   dropping the engine.
//! * A crash mid-append leaves at worst dead bytes at the end of a pack
//!   (compaction reclaims them, from the next lifetime on) or the start
//!   of one record at the end of the log, which [`SpillDir::open`] drops
//!   by replacing the log before anything is appended to it.
//! * A record this build cannot register — a spec beyond its catalog, a
//!   blob that does not read back — stays in the log, through every
//!   rewrite, and names its bytes exactly: its pack is never swept nor
//!   compacted, and those bytes count live.
//! * A directory this build cannot read — a seal log that does not start
//!   with its header or is bad before its end, an I/O error, or the
//!   manifest an earlier build kept — is never read as empty: the
//!   lifetime registers nothing, and rewrites, appends to, compacts and
//!   sweeps nothing there.
//!
//! Every file call goes through `wf-wal`'s file manager
//! ([`wf_wal::file`]). A compacted pack is created like a fresh spill's,
//! with `create_new` and one synced append, so no pack is ever written
//! over an existing file; a whole log lands by the crash-safe replace.
//! The old packs of a compaction are unlinked only after the log holds
//! their runs' new places; the sweep (this pass's or any later one's)
//! removes packs no record names, the temp file of a replace a crash
//! interrupted, and a pack a crash cut off before any record named it.

use crate::snapshot::{
    self, Seal, SealedRun, SnapshotError, MIN_PACK_RUNS, PACK_MAX_RUNS, PACK_TARGET_BYTES,
    SEAL_LOG_FILE, SEAL_LOG_HEADER,
};
use crate::store::{LabelStore, RunView, SegmentLru, Tier};
use crate::{RunId, ServiceError};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use wf_wal::{dead_heavy, file};

/// The file an earlier build kept its spill directory's index in: a
/// directory holding it is refused, byte for byte as it is.
const OLD_MANIFEST: &str = "wf-tier-manifest.txt";

/// What one compaction pass did: how many pack files and on-disk bytes
/// the persisted tier referenced before and after, and how many runs
/// moved into freshly written packs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Distinct pack files referenced before the pass.
    pub files_before: usize,
    /// Distinct pack files referenced after the pass.
    pub files_after: usize,
    /// Sum of **on-disk file bytes** referenced before the pass (a file
    /// counts once, dead blobs included).
    pub bytes_before: u64,
    /// Sum of on-disk file bytes referenced after the pass.
    pub bytes_after: u64,
    /// Dead blob bytes reclaimed by unlinking rewritten files — bytes
    /// that belonged to evicted runs and were carried by a file without
    /// being referenced. Reported separately so the live bytes a pass
    /// moves and the dead ones it drops never mix in one number.
    pub dead_bytes_reclaimed: u64,
    /// Runs rewritten into packs by this pass.
    pub runs_packed: usize,
    /// Pack files this pass wrote.
    pub packs_written: usize,
}

impl CompactionReport {
    /// One JSON line with the before/after file-count and byte stats —
    /// what CI uploads as the `compaction-<sha>` artifact.
    pub fn json(&self) -> String {
        format!(
            concat!(
                "{{\"metric\":\"compaction\",",
                "\"files_before\":{},\"files_after\":{},",
                "\"bytes_before\":{},\"bytes_after\":{},",
                "\"dead_bytes_reclaimed\":{},",
                "\"runs_packed\":{},\"packs_written\":{}}}"
            ),
            self.files_before,
            self.files_after,
            self.bytes_before,
            self.bytes_after,
            self.dead_bytes_reclaimed,
            self.runs_packed,
            self.packs_written,
        )
    }
}

/// A registration: a sealed run that has a location, read once.
pub(crate) struct Located {
    run: Arc<SealedRun>,
    file: Arc<Path>,
    offset: u64,
}

/// The seal record of `run` at `offset` of `file`, a pack this directory
/// named.
fn sealed_at(run: &SealedRun, file: &Path, offset: u64) -> Seal {
    let name = file.file_name().and_then(|n| n.to_str());
    Seal::Sealed {
        run: run.run(),
        pack: name.and_then(snapshot::pack_file_seq).unwrap_or(u64::MAX),
        offset,
        len: run.blob_len(),
    }
}

/// Every registration the store holds — every sealed run that has a
/// location.
pub(crate) fn registrations(store: &LabelStore) -> Vec<Located> {
    let mut out = Vec::new();
    store.for_each(|_, view| {
        if let RunView::Sealed(run) = view {
            if let Some((file, offset)) = run.location() {
                out.push(Located {
                    run: Arc::clone(run),
                    file,
                    offset,
                });
            }
        }
    });
    out
}

/// One pack file the registrations reference.
pub(crate) struct FileStat {
    file: Arc<Path>,
    /// The runs in the file, each with its blob's offset.
    runs: Vec<(Arc<SealedRun>, u64)>,
    /// On-disk size of the file.
    size: u64,
    /// Sum of the registered blobs' bytes, and of the carried ones the
    /// file holds.
    live: u64,
}

impl FileStat {
    /// Bytes of blobs whose runs were evicted.
    pub(crate) fn dead(&self) -> u64 {
        self.size.saturating_sub(self.live)
    }

    /// Too few live runs to be worth a file of its own.
    fn underfull(&self) -> bool {
        self.runs.len() < MIN_PACK_RUNS
    }

    /// Enough dead bytes that copying the live ones pays.
    fn dead_heavy(&self) -> bool {
        dead_heavy(self.dead(), self.size)
    }
}

/// A rewrite gains something when it leaves fewer files behind or drops
/// dead bytes; anything else is a copy for nothing.
fn gains(files: &[FileStat], packs: usize) -> bool {
    files.len() > packs || files.iter().any(|f| f.dead() > 0)
}

/// A run copied into a new pack, and the blob's offset in the new file.
type Member = (Arc<SealedRun>, u64);

/// The pack fresh spills append to.
struct ActivePack {
    file: Arc<Path>,
    /// Runs appended so far.
    runs: usize,
    /// The file's length after the last append.
    bytes: u64,
}

/// What the directory's lock guards.
#[derive(Default)]
struct Writer {
    /// The active pack, `None` while it is closed.
    active: Option<ActivePack>,
    /// Records the seal log holds.
    records: usize,
    /// One past the highest run id the seal log has named (0 for none, or
    /// for only `u64::MAX`): every rewrite keeps it.
    next_run: u64,
}

/// The spill directory of one engine.
pub(crate) struct SpillDir {
    dir: PathBuf,
    /// Serializes pack + log writes — each is a unit, and the log always
    /// names the full persisted set.
    log: Mutex<Writer>,
    /// Next `pack-<seq>.wfseg` number (seeded past any packs already in
    /// the directory, so restarts never reuse a name).
    pack_seq: AtomicU64,
    /// Last spills+compactions sum [`Self::apply_policy`] observed — the
    /// cheap "did the directory change shape" stamp that gates the
    /// per-tick file census. Starts at `u64::MAX` so the first pass
    /// always counts (reloaded history may already need packing), and
    /// an eviction resets it there (its blob just turned dead).
    policy_stamp: AtomicU64,
    /// The seal records this engine could not register — a spec beyond
    /// its catalog, a blob that did not read back — each naming its pack
    /// bytes exactly. Every rewrite of the log keeps them, so a build with
    /// a smaller catalog keeps history it cannot read and nothing is
    /// guessed at: their packs are neither swept nor compacted, and the
    /// file census counts their bytes live.
    unread: Vec<Seal>,
    /// Why this lifetime could not read the directory — its seal log or
    /// its listing failed, or it holds an earlier build's manifest. It
    /// then registers nothing and writes nothing there: every persist,
    /// eviction and compaction is refused
    /// ([`ServiceError::SpillUnavailable`]), and `health()` names
    /// [`crate::StallCause::SpillUnavailable`].
    refused: Option<String>,
}

impl SpillDir {
    /// Open `dir` and register the runs its seal log places, by
    /// header-only reads (no frame is loaded until queried). A run
    /// registers from its last record that reads back; an [`Seal::Evicted`]
    /// after it — or a later record of either kind — ends it. A record
    /// that does not read back, or names a spec beyond the `specs` this
    /// catalog has, is kept unread. A directory that cannot be read is
    /// refused (`Self::refused`), byte for byte as it was found.
    pub(crate) fn open(
        dir: PathBuf,
        lru: &Arc<SegmentLru>,
        specs: usize,
    ) -> (Self, Vec<Arc<SealedRun>>) {
        let mut spill = Self {
            dir,
            log: Mutex::default(),
            pack_seq: AtomicU64::new(0),
            policy_stamp: AtomicU64::new(u64::MAX),
            unread: Vec::new(),
            refused: None,
        };
        let persisted = spill.load(lru, specs).unwrap_or_else(|cause| {
            spill.refused = Some(cause.to_string());
            Vec::new()
        });
        (spill, persisted)
    }

    /// The reads of [`Self::open`], and the log's one rewrite there: a
    /// log that is missing or does not end in a whole record is replaced
    /// before anything is appended to it, and one more than
    /// [`DEAD_HEAVY_RATIO`](wf_wal::DEAD_HEAVY_RATIO) dead is replaced
    /// when that works. An error leaves the directory as it was found.
    fn load(
        &mut self,
        lru: &Arc<SegmentLru>,
        specs: usize,
    ) -> Result<Vec<Arc<SealedRun>>, SnapshotError> {
        file::create_dir(&self.dir)?;
        let names = file::list(&self.dir)?;
        if names.iter().any(|n| n == OLD_MANIFEST) {
            return Err(SnapshotError::Format(format!(
                "{OLD_MANIFEST} is an earlier build's manifest, which this one does not read"
            )));
        }
        let log = snapshot::read_seal_log(&self.dir)?;
        // Each pack named once, with its size (one `stat` per file).
        let mut packs: HashMap<u64, (Arc<Path>, u64)> = HashMap::new();
        let (mut persisted, mut settled) = (Vec::new(), HashSet::new());
        for seal in log.records.iter().rev() {
            let run = seal.run();
            // A later record of the run decided it.
            if settled.contains(&run) {
                continue;
            }
            let Seal::Sealed {
                pack, offset, len, ..
            } = *seal
            else {
                settled.insert(run);
                continue;
            };
            let (file, size) = packs.entry(pack).or_insert_with(|| {
                let path: Arc<Path> = self.pack_path(pack).into();
                (Arc::clone(&path), file::len(&path).unwrap_or(0))
            });
            match SealedRun::open_at(Arc::clone(file), *size, run, offset, len, Arc::clone(lru)) {
                Ok(sealed) if sealed.header().spec.0 < specs => {
                    settled.insert(run);
                    persisted.push(Arc::new(sealed));
                }
                _ => self.unread.push(*seal),
            }
        }
        self.unread.reverse();
        let seqs = names.iter().filter_map(|n| snapshot::pack_file_seq(n));
        self.pack_seq = AtomicU64::new(seqs.max().map_or(0, |m| m + 1));
        let mut w = self.lock();
        let ids = log.records.iter().filter_map(|r| r.run().0.checked_add(1));
        (w.records, w.next_run) = (log.records.len(), ids.max().unwrap_or(0));
        let live = persisted
            .iter()
            .filter_map(|r| r.location().map(|(file, at)| sealed_at(r, &file, at)));
        // A log missing, or ending in half a record, is never appended to.
        let whole = log.torn.is_none() && log.valid_bytes > 0;
        match self.rewrite_log(&mut w, live.collect(), !whole) {
            Err(e) if !whole => Err(e),
            _ => Ok(persisted),
        }
    }

    /// The path of pack `seq`.
    fn pack_path(&self, seq: u64) -> PathBuf {
        self.dir.join(snapshot::pack_file_name(seq))
    }

    /// Replace the seal log with `records` — one per registration, in
    /// run order — and the unread records, then, when none of them
    /// reaches it, the eviction of the highest run id it drops: an id the
    /// log once named is never issued again. Only when `force`d, or once
    /// more than [`DEAD_HEAVY_RATIO`](wf_wal::DEAD_HEAVY_RATIO) of the
    /// log's records are dead.
    fn rewrite_log(
        &self,
        w: &mut Writer,
        mut records: Vec<Seal>,
        force: bool,
    ) -> Result<(), SnapshotError> {
        let dead = w.records.saturating_sub(records.len() + self.unread.len());
        if !force && !dead_heavy(dead as u64, w.records as u64) {
            return Ok(());
        }
        records.sort_by_key(Seal::run);
        records.extend_from_slice(&self.unread);
        let high = w.next_run.checked_sub(1);
        if let Some(run) = high.filter(|&h| records.iter().all(|r| r.run().0 < h)) {
            records.push(Seal::Evicted { run: RunId(run) });
        }
        let bytes = snapshot::seal_log_bytes(&records);
        file::replace(&self.dir.join(SEAL_LOG_FILE), &bytes)?;
        w.records = records.len();
        Ok(())
    }

    /// Append `records` to the seal log and sync them, as one write — to
    /// a log that starts with this build's header, and no other.
    fn append_log(&self, w: &mut Writer, records: &[Seal]) -> Result<(), SnapshotError> {
        let mut frames = Vec::new();
        records.iter().for_each(|r| r.encode_into(&mut frames));
        let path = self.dir.join(SEAL_LOG_FILE);
        file::append(&path, &frames, false, |f, _| {
            let mut head = [0; SEAL_LOG_HEADER.len()];
            match f.read_at(0, &mut head) {
                Ok(()) if head == SEAL_LOG_HEADER => Ok(()),
                _ => Err(SnapshotError::Format(
                    "the seal log does not start with its header".into(),
                )),
            }
        })?;
        w.records += records.len();
        let high = records.iter().filter_map(|r| r.run().0.checked_add(1));
        w.next_run = high.fold(w.next_run, u64::max);
        Ok(())
    }

    /// `Ok` unless this lifetime refused the directory.
    pub(crate) fn usable(&self) -> Result<(), ServiceError> {
        match &self.refused {
            Some(cause) => Err(ServiceError::SpillUnavailable(cause.clone())),
            None => Ok(()),
        }
    }

    /// One past the highest run id the seal log names: fresh runs start
    /// above it, so no id the directory holds, or held, is reused.
    pub(crate) fn next_run(&self) -> u64 {
        self.lock().next_run
    }

    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// The packs unread records name, each with the bytes they name there.
    fn unread_places(&self) -> impl Iterator<Item = (PathBuf, u64)> + '_ {
        self.unread.iter().filter_map(|seal| match *seal {
            Seal::Sealed { pack, len, .. } => Some((self.pack_path(pack), len)),
            Seal::Evicted { .. } => None,
        })
    }

    /// The registrations grouped by pack file (the runs of one pack share
    /// one file handle), with the files' sizes (one `stat` per file, not
    /// per run). A file's live bytes are its registered blobs plus the
    /// bytes unread records name there — history this build cannot read,
    /// not a dead blob.
    pub(crate) fn file_stats(&self, registered: &[Located]) -> Vec<FileStat> {
        let mut by_file: HashMap<&Path, FileStat> = HashMap::new();
        for l in registered {
            let stat = by_file.entry(&l.file).or_insert(FileStat {
                file: Arc::clone(&l.file),
                runs: Vec::new(),
                size: 0,
                live: 0,
            });
            stat.runs.push((Arc::clone(&l.run), l.offset));
            stat.live += l.run.blob_len();
        }
        let mut files: Vec<FileStat> = by_file.into_values().collect();
        for f in &mut files {
            let unread = self.unread_places().filter(|(path, _)| **path == *f.file);
            f.live = unread.fold(f.live, |live, (_, len)| live.saturating_add(len));
            f.size = file::len(&f.file).unwrap_or(f.live);
        }
        files
    }

    /// Take the directory's lock. A poisoned one is recovered: the active
    /// pack is out of the lock for the whole of an append, so a writer
    /// that panicked left it closed, and at worst an orphan file, dead
    /// bytes or a log record the sweep, compaction or a rewrite takes.
    fn lock(&self) -> MutexGuard<'_, Writer> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The path of the next `pack-<seq>.wfseg`, not yet created.
    fn next_pack(&self) -> Arc<Path> {
        let seq = self.pack_seq.fetch_add(1, Ordering::Relaxed);
        self.pack_path(seq).into()
    }

    /// Create the next pack file holding `bytes`, as a fresh spill's is:
    /// one synced append to a file that did not exist.
    fn write_pack(&self, bytes: &[u8]) -> Result<Arc<Path>, SnapshotError> {
        let path = self.next_pack();
        file::append(&path, bytes, true, |_, _| Ok::<_, SnapshotError>(()))?;
        Ok(path)
    }

    /// Append `blob` to the active pack `pack`, first creating a new one
    /// when it is closed or the blob would take it past
    /// [`PACK_MAX_RUNS`] / [`PACK_TARGET_BYTES`]. Returns the pack and the
    /// blob's offset in it.
    fn append(
        &self,
        pack: &mut Option<ActivePack>,
        blob: &[u8],
    ) -> Result<(Arc<Path>, u64), SnapshotError> {
        let len = blob.len() as u64;
        let fits = |p: &ActivePack| p.runs < PACK_MAX_RUNS && p.bytes + len <= PACK_TARGET_BYTES;
        let mut open = pack.take().filter(fits).unwrap_or_else(|| ActivePack {
            file: self.next_pack(),
            runs: 0,
            bytes: 0,
        });
        let fresh = open.runs == 0;
        let offset = file::append(&open.file, blob, fresh, |_, _| Ok::<_, SnapshotError>(()))?;
        (open.runs, open.bytes) = (open.runs + 1, offset + len);
        let file = Arc::clone(&open.file);
        *pack = Some(open);
        Ok((file, offset))
    }

    /// Persist one sealed run: append its held frame, byte for byte, to
    /// the active pack and one [`Seal::Sealed`] record naming it to the
    /// seal log — or, when it already has a location (a re-heated run),
    /// only let the frame go. `Ok(true)` when a blob was written. Both
    /// appends are the write [`SealedRun::persist`] waits on, the blob
    /// synced before its record: the run is persisted once both landed,
    /// and a failure of either returns a typed error, closes the active
    /// pack and leaves the run holding its frame, with no location. An
    /// eviction that lands while the record is written wins, and is
    /// recorded after it ([`Self::forget`]).
    pub(crate) fn persist(
        &self,
        store: &LabelStore,
        sealed: &SealedRun,
    ) -> Result<bool, ServiceError> {
        self.usable()?;
        let run = sealed.run();
        let mut log = self.lock();
        let obs = &store.lru.obs;
        let span = obs.timer();
        // Out of the lock for the appends, back once the record is in.
        let mut pack = log.active.take();
        let mut recorded = false;
        let written = sealed.persist(|blob| {
            let (file, offset) = self.append(&mut pack, blob)?;
            self.append_log(&mut log, &[sealed_at(sealed, &file, offset)])?;
            recorded = true;
            Ok((file, offset))
        });
        let written = match written {
            Err(evicted) if recorded => {
                drop(log);
                self.forget(run)?;
                return Err(evicted);
            }
            written => written?,
        };
        log.active = pack;
        if written.is_none() {
            return Ok(false);
        }
        obs.spills.inc();
        obs.finish(
            span,
            &obs.h_spill,
            Some(run.0),
            Some(Tier::Persisted.name()),
            || format!("bytes={}", sealed.blob_len()),
        );
        Ok(true)
    }

    /// `run`, which had a location, was evicted: append its
    /// [`Seal::Evicted`], so a restart neither registers it again nor
    /// issues its id, and let the next policy pass count the bytes that
    /// just turned dead.
    pub(crate) fn forget(&self, run: RunId) -> Result<(), ServiceError> {
        self.usable()?;
        let mut log = self.lock();
        self.append_log(&mut log, &[Seal::Evicted { run }])
            .map_err(|e| ServiceError::Snapshot(run, e.to_string()))?;
        self.policy_stamp.store(u64::MAX, Ordering::Relaxed);
        Ok(())
    }

    /// **Compaction**, the one maintenance pass: merge underfull packs —
    /// the active pack of a lifetime that spilled few runs, packs a
    /// rewrite left small — into full ones, cutting the directory's file
    /// count, and rewrite dead-heavy packs without the blobs of evicted
    /// runs, cutting its bytes. It closes the active pack first, and
    /// replaces the seal log once more than
    /// [`DEAD_HEAVY_RATIO`](wf_wal::DEAD_HEAVY_RATIO) of its records are
    /// dead (a failure leaves the longer log, which reads the same).
    pub(crate) fn compact(&self, store: &LabelStore) -> Result<CompactionReport, ServiceError> {
        self.usable()?;
        let mut log = self.lock();
        let report = self
            .rewrite_packs(store, &mut log)
            .map_err(|e| ServiceError::Compaction(e.to_string()))?;
        let live: Vec<Seal> = registrations(store)
            .iter()
            .map(|l| sealed_at(&l.run, &l.file, l.offset))
            .collect();
        let _ = self.rewrite_log(&mut log, live, false);
        if report.packs_written > 0 {
            store.lru.obs.compactions.inc();
        }
        Ok(report)
    }

    /// The rewrite pass behind [`Self::compact`], under the directory's
    /// lock. Victim files are copied whole or not at all: a file with a
    /// blob that fails to read back is left exactly as it was, and so is
    /// a file an unread record names. Memory is bounded — blobs stream
    /// through one pack buffer (≤ [`PACK_TARGET_BYTES`] and
    /// [`PACK_MAX_RUNS`], unless a single victim is bigger), never the
    /// whole tier at once — and blobs are copied verbatim, each keeping
    /// its own checksum. Once the log holds every copied run's new place,
    /// the registrations are relocated in place, and only then are the
    /// copied files unlinked: a reader holding a registration loads from
    /// the old place before its relocation and from the new one after,
    /// and a frame is a private copy that no unlink touches. Every exit
    /// sweeps orphans, so a pass with nothing to rewrite still reclaims
    /// the packs of evicted runs and crash leftovers. A pass that
    /// rewrote something is traced as one `compaction` span.
    fn rewrite_packs(
        &self,
        store: &LabelStore,
        log: &mut Writer,
    ) -> Result<CompactionReport, SnapshotError> {
        let obs = &store.lru.obs;
        let span = obs.timer();
        // Closed before victims are picked or the sweep runs: nothing
        // this pass unlinks is appended to again.
        log.active = None;
        let registered = registrations(store);
        let files = self.file_stats(&registered);
        let bytes_before = files.iter().map(|f| f.size).sum();
        let mut out = CompactionReport {
            files_before: files.len(),
            files_after: files.len(),
            bytes_before,
            bytes_after: bytes_before,
            dead_bytes_reclaimed: 0,
            runs_packed: 0,
            packs_written: 0,
        };
        let mut victims: Vec<FileStat> = files
            .into_iter()
            .filter(|f| self.unread_places().all(|(path, _)| *path != *f.file))
            .filter(|f| f.underfull() || f.dead_heavy())
            .collect();
        if !gains(&victims, 1) {
            self.sweep_orphans(&registered);
            return Ok(out);
        }
        // Ascending run id within a file, lowest first across files: a
        // deterministic pack layout.
        for victim in &mut victims {
            victim.runs.sort_by_key(|(p, _)| p.run());
        }
        victims.sort_by_key(|f| f.runs[0].0.run());
        let mut packs: Vec<(Arc<Path>, Vec<Member>)> = Vec::new();
        let mut copied: Vec<FileStat> = Vec::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut members: Vec<Member> = Vec::new();
        for victim in victims {
            if !members.is_empty()
                && (members.len() + victim.runs.len() > PACK_MAX_RUNS
                    || buf.len() as u64 + victim.live > PACK_TARGET_BYTES)
            {
                packs.push((self.write_pack(&buf)?, std::mem::take(&mut members)));
                buf.clear();
            }
            let mark = (buf.len(), members.len());
            let whole = victim.runs.iter().try_for_each(|(p, offset)| {
                let start = buf.len();
                buf.resize(start + p.blob_len() as usize, 0);
                file::read_at(&victim.file, *offset, &mut buf[start..])?;
                snapshot::verify_segment_bytes(&buf[start..])?;
                members.push((Arc::clone(p), start as u64));
                Ok::<_, SnapshotError>(())
            });
            if whole.is_err() {
                buf.truncate(mark.0);
                members.truncate(mark.1);
                continue;
            }
            copied.push(victim);
        }
        if !members.is_empty() {
            packs.push((self.write_pack(&buf)?, members));
        }
        if !gains(&copied, packs.len()) {
            // Leave the registrations and the log untouched; nothing
            // references the packs just written, so the sweep takes them.
            self.sweep_orphans(&registered);
            return Ok(out);
        }
        // The new places go into the log before anything moves…
        let moved: Vec<Seal> = packs
            .iter()
            .flat_map(|(file, members)| members.iter().map(|(p, at)| sealed_at(p, file, *at)))
            .collect();
        self.append_log(log, &moved)?;
        // …then the registrations, and only then is what they left
        // unlinked.
        for (file, members) in &packs {
            for (p, offset) in members {
                p.relocate(Arc::clone(file), *offset);
            }
            out.runs_packed += members.len();
        }
        for old in &copied {
            let _ = file::remove(&old.file);
        }
        // Each unlinked file's live bytes moved verbatim, so the
        // footprint shrinks by exactly the dead ones.
        out.dead_bytes_reclaimed = copied.iter().map(FileStat::dead).sum();
        out.bytes_after -= out.dead_bytes_reclaimed;
        out.files_after = out.files_before - copied.len() + packs.len();
        out.packs_written = packs.len();
        self.sweep_orphans(&registered);
        let tier = Some(Tier::Persisted.name());
        obs.finish(span, &obs.h_compaction, None, tier, || {
            format!(
                "files={}->{} runs={} reclaimed={}",
                out.files_before, out.files_after, out.runs_packed, out.dead_bytes_reclaimed
            )
        });
        Ok(out)
    }

    /// Delete pack files neither `registered` — the pass's snapshot of
    /// the store's registrations, at the places they have by now — nor an
    /// unread record names: packs holding only blobs of evicted runs (a
    /// new pack whose first append failed, or whose run was evicted
    /// during its persist, among them), and leftovers of a crash between
    /// a pack write and the old-file deletion — among them the `*.tmp`
    /// file of a replace the crash cut short. Runs under the directory's
    /// lock the snapshot was taken under and every write takes, with the
    /// active pack closed, so no spill has written a pack since, none
    /// will append to one this unlinks, and no temp file is in flight.
    fn sweep_orphans(&self, registered: &[Located]) {
        let mut referenced: HashSet<PathBuf> = registered
            .iter()
            .filter_map(|l| Some(l.run.location()?.0.to_path_buf()))
            .collect();
        referenced.extend(self.unread_places().map(|(path, _)| path));
        for name in file::list(&self.dir).unwrap_or_default() {
            let path = self.dir.join(&name);
            let pack = snapshot::pack_file_seq(&name).is_some();
            if file::is_temp(&name) || (pack && !referenced.contains(&path)) {
                let _ = file::remove(&path);
            }
        }
    }

    /// One pass of the directory's own policy: run [`Self::compact`]
    /// once `compact_after` underfull files have piled up or any file is
    /// dead-heavy. The file census only reruns after a spill, a
    /// compaction or an eviction changed the directory since the last
    /// pass. Returns what failed.
    pub(crate) fn apply_policy(
        &self,
        store: &LabelStore,
        compact_after: Option<usize>,
    ) -> Option<ServiceError> {
        let threshold = compact_after?;
        let obs = &store.lru.obs;
        let stamp = obs.spills.get().wrapping_add(obs.compactions.get());
        if self.policy_stamp.swap(stamp, Ordering::Relaxed) == stamp {
            return None;
        }
        let files = self.file_stats(&registrations(store));
        let underfull = files.iter().filter(|f| f.underfull()).count();
        if underfull >= threshold.max(2) || files.iter().any(FileStat::dead_heavy) {
            self.compact(store).err()
        } else {
            None
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::{SpecId, Tier, WfEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_run::{Execution, RunGenerator};

    /// Panic on a thread while `hold` holds a lock: the lock is poisoned.
    pub(crate) fn poison<G>(hold: impl FnOnce() -> G + Send) {
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _g = hold();
                panic!("poison a lock on purpose");
            });
            assert!(poisoner.join().is_err());
        });
    }

    /// A thread that panicked under the directory's lock or the
    /// replacer's candidate map left nothing half-done: persists, reads
    /// under a resident budget, an eviction and a compaction after it all
    /// go on.
    #[test]
    fn poisoned_spill_and_lru_locks_are_recovered() {
        let dir = std::env::temp_dir().join(format!("wf-spill-poison-{}", std::process::id()));
        let engine: WfEngine = WfEngine::builder()
            .spec(wf_spec::corpus::running_example())
            .spill_dir(&dir)
            .max_resident_bytes(1)
            .build();
        let (spill, lru) = (
            engine.shared.spill.as_ref().unwrap(),
            &engine.shared.store.lru,
        );
        poison(|| spill.log.lock());
        poison(|| lru.candidates());
        assert!(spill.log.is_poisoned());

        let spec = &engine.context(SpecId(0)).unwrap().spec;
        let mut rng = StdRng::seed_from_u64(5);
        let mut runs = Vec::new();
        for _ in 0..3 {
            let gen = RunGenerator::new(spec)
                .target_size(30)
                .generate_run(&mut rng);
            let exec = Execution::deterministic(&gen.graph, &gen.origin);
            let run = engine.open_run(SpecId(0)).unwrap();
            for ev in exec.events() {
                engine.submit(run, ev).unwrap();
            }
            engine.complete_run(run).unwrap();
            engine.persist_run(run).unwrap();
            assert_eq!(engine.run_tier(run), Ok(Tier::Persisted));
            let (u, v) = (exec.events()[0].vertex, exec.events()[1].vertex);
            assert_eq!(engine.reach(run, u, v), Ok(Some(true)));
            runs.push(run);
        }
        assert!(
            engine.stats().segment_sheds >= 2,
            "each load sheds the last"
        );
        engine.evict_run(runs[0]).unwrap();
        let report = engine.compact().unwrap();
        assert_eq!((report.files_after, report.runs_packed), (1, 2));
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
