//! The **spill directory**: the one owner of everything on disk under
//! the sealed runs — pack naming, the manifest lock, and the operations
//! that write there.
//!
//! Everything here works on the store's **registrations**: every sealed
//! run that has a location — read from disk, or re-heated and served from
//! its held frame since — and the manifest lists exactly those. A blob is
//! dead only once its run is evicted.
//!
//! * [`SpillDir::persist`] **appends**: one sealed run's held frame, as it
//!   is, goes to the end of the *active pack* — the pack this engine
//!   lifetime created last — and one `run file offset len` line goes to
//!   the end of the manifest. Nothing is rewritten, so a spill costs two
//!   syncs however many runs the directory holds.
//! * [`SpillDir::forget`] rewrites the manifest after an eviction, so
//!   the evicted run stays gone across a restart.
//! * [`SpillDir::compact`] is the directory's one maintenance pass
//!   (`rewrite_packs`): pick files, stream their live blobs verbatim
//!   into fresh packs, land the manifest, relocate the runs in place,
//!   unlink the copied files, sweep orphans. A file is picked for one of
//!   two reasons: it is *underfull* (fewer than [`MIN_PACK_RUNS`] live
//!   runs) or *dead-heavy* (more than [`DEAD_HEAVY_RATIO`] of its bytes
//!   belong to evicted runs).
//!
//! The durability contract of an append:
//!
//! * A blob — and, for a new pack, the pack's directory entry — is
//!   synced before the manifest line that names it is appended, and the
//!   line is synced before the persist returns; the WAL checkpoint comes
//!   after that, as before. Both appends are the one write the run's
//!   persist waits on: the run is `Persisted` once both landed, and
//!   stays `Frozen`, holding its frame, if either failed.
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
//!   (compaction reclaims them, from the next lifetime on) or a manifest
//!   line with no `\n`, which the loader skips. [`SpillDir::open`]
//!   rewrites such a manifest whole before anything is appended to it,
//!   and an append refuses a manifest that does not end in a complete
//!   line.
//! * A directory whose manifest cannot be read — an I/O error, or a
//!   header other than this build's — is never read as empty: the
//!   lifetime registers nothing, and rewrites, appends to, compacts and
//!   sweeps nothing there.
//!
//! Every file call goes through `wf-wal`'s file manager
//! ([`wf_wal::file`]). A compacted pack is created like a fresh spill's,
//! with `create_new` and one synced append, so no pack is ever written
//! over an existing file; a whole manifest lands by the crash-safe
//! replace. Until a new manifest is renamed into place the old manifest
//! and old files are intact; after it, the old files are orphans the
//! sweep (this pass's or any later one's) removes, along with the temp
//! file of a replace the crash interrupted and a pack a crash cut off
//! before any manifest named it.

use crate::snapshot::{
    self, Manifest, ManifestEntry, SealedRun, SnapshotError, DEAD_HEAVY_RATIO, MIN_PACK_RUNS,
    PACK_MAX_RUNS, PACK_TARGET_BYTES,
};
use crate::store::{LabelStore, RunView, SegmentLru, Tier};
use crate::{RunId, ServiceError};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use wf_wal::file;

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
        self.dead() as f64 > DEAD_HEAVY_RATIO * self.size as f64
    }
}

/// A rewrite gains something when it leaves fewer files behind or drops
/// dead bytes; anything else is a copy for nothing.
fn gains(files: &[FileStat], packs: usize) -> bool {
    files.len() > packs || files.iter().any(|f| f.dead() > 0)
}

/// A run copied into a new pack, and the blob's offset in the new file.
type Member = (Arc<SealedRun>, u64);

fn manifest_entry(run: &SealedRun, path: &Path, offset: u64) -> ManifestEntry {
    ManifestEntry {
        run: run.run(),
        file: path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned(),
        offset,
        bytes: run.blob_len(),
    }
}

/// The pack fresh spills append to.
struct ActivePack {
    file: Arc<Path>,
    /// Runs appended so far.
    runs: usize,
    /// The file's length after the last append.
    bytes: u64,
}

/// The spill directory of one engine.
pub(crate) struct SpillDir {
    dir: PathBuf,
    /// Serializes pack + manifest writes — each is a unit, and the
    /// manifest always lists the full persisted set — and holds the
    /// active pack, `None` while it is closed.
    manifest: Mutex<Option<ActivePack>>,
    /// Next `pack-<seq>.wfseg` number (seeded past any packs already in
    /// the directory, so restarts never reuse a name).
    pack_seq: AtomicU64,
    /// Last spills+compactions sum [`Self::apply_policy`] observed — the
    /// cheap "did the directory change shape" stamp that gates the
    /// per-tick file census. Starts at `u64::MAX` so the first pass
    /// always counts (reloaded history may already need packing), and
    /// an eviction resets it there (its blob just turned dead).
    policy_stamp: AtomicU64,
    /// The manifest lines this engine could not register — a spec
    /// beyond its catalog, a blob that did not read back, a line that
    /// does not read as an entry — written back byte for byte by every
    /// manifest rewrite, so a build with a smaller catalog keeps history
    /// it cannot read and nothing is guessed at.
    carried: Vec<Vec<u8>>,
    /// One past the highest run id a carried line names (0 for none, or
    /// for only `u64::MAX`).
    next_run: u64,
    /// While a line is carried — or, in this lifetime, was torn — every
    /// pack of the directory that holds bytes the registrations do not
    /// account for, which such a line may name, with those bytes: the
    /// sweep keeps them, compaction does not pick them, and the file
    /// census counts those bytes live.
    carried_packs: HashMap<PathBuf, u64>,
    /// Why this lifetime could not read the directory — its manifest or
    /// its listing failed, or the manifest's header is not this build's.
    /// It then registers nothing and writes nothing there: every persist,
    /// eviction and compaction is refused
    /// ([`ServiceError::SpillUnavailable`]), and `health()` names
    /// [`crate::StallCause::SpillUnavailable`].
    refused: Option<String>,
}

impl SpillDir {
    /// Open `dir` and register the history its manifest lists, by
    /// header-only reads (no frame is loaded until queried). A run listed
    /// twice registers once, from its last line. Entries that do not
    /// read back — or name a spec beyond the `specs` this catalog has —
    /// are carried, not registered, and so are lines that do not read as
    /// an entry. A directory that cannot be read is refused
    /// (`Self::refused`), byte for byte as it was found. A manifest that
    /// is missing, ends in a torn line or holds a line that names no blob
    /// or a run twice is rewritten whole, once, here: appends then always
    /// follow a complete line.
    pub(crate) fn open(
        dir: PathBuf,
        lru: &Arc<SegmentLru>,
        specs: usize,
    ) -> (Self, Vec<Arc<SealedRun>>) {
        let mut spill = Self {
            dir,
            manifest: Mutex::new(None),
            pack_seq: AtomicU64::new(0),
            policy_stamp: AtomicU64::new(u64::MAX),
            carried: Vec::new(),
            next_run: 0,
            carried_packs: HashMap::new(),
            refused: None,
        };
        match spill.load(lru, specs) {
            Ok((persisted, rewrite)) => {
                if let Some(listed) = rewrite {
                    // A failure leaves the manifest as it was: an append
                    // still refuses one that is torn.
                    let _ = spill.write_manifest(&listed);
                }
                (spill, persisted)
            }
            Err(cause) => {
                spill.refused = Some(cause.to_string());
                (spill, Vec::new())
            }
        }
    }

    /// The reads of [`Self::open`]: the registered runs, and the lines to
    /// rewrite the manifest with when it is due. An error leaves the
    /// directory as it was found.
    #[allow(clippy::type_complexity)]
    fn load(
        &mut self,
        lru: &Arc<SegmentLru>,
        specs: usize,
    ) -> Result<(Vec<Arc<SealedRun>>, Option<Vec<ManifestEntry>>), SnapshotError> {
        file::create_dir(&self.dir)?;
        let names = file::list(&self.dir)?;
        let manifest = snapshot::read_manifest(&self.dir)?;
        let rewrite = manifest.as_ref().is_none_or(|m| m.torn || m.epoch);
        let Manifest { lines, torn, .. } = manifest.unwrap_or_default();
        let count = lines.len();
        // Each pack named once, with its size (one `stat` per file) and
        // the bytes of the blobs registered from it.
        let mut files: HashMap<String, (Arc<Path>, u64, u64)> = HashMap::new();
        let (mut persisted, mut kept, mut carried) = (Vec::new(), Vec::new(), Vec::new());
        let mut registered = HashSet::new();
        for (line, entry) in lines.into_iter().rev() {
            let Some(entry) = entry else {
                carried.push(line);
                continue;
            };
            if registered.contains(&entry.run) {
                // A run registers from its last line that reads back: an
                // earlier copy of that line goes, any other line stays.
                if !kept.contains(&entry) {
                    carried.push(line);
                }
                continue;
            }
            let (file, size, live) = files.entry(entry.file.clone()).or_insert_with(|| {
                let path: Arc<Path> = self.dir.join(&entry.file).into();
                let size = file::len(&path).unwrap_or(0);
                (path, size, 0)
            });
            match SealedRun::open_entry(Arc::clone(file), *size, &entry, Arc::clone(lru)) {
                Ok(run) if run.header().spec.0 < specs => {
                    *live += entry.bytes;
                    registered.insert(entry.run);
                    persisted.push(Arc::new(run));
                    kept.push(entry);
                }
                _ => {
                    let next = entry.run.0.checked_add(1).unwrap_or(0);
                    self.next_run = self.next_run.max(next);
                    carried.push(line);
                }
            }
        }
        let rewrite = rewrite || count != kept.len() + carried.len();
        carried.reverse();
        self.carried = carried;
        let packs = names
            .iter()
            .filter(|n| snapshot::pack_file_seq(n).is_some());
        // A line that did not register, or was torn, may have named any
        // blob: then no byte the registrations do not account for is
        // taken for dead.
        if torn || !self.carried.is_empty() {
            for name in packs.clone() {
                let path = self.dir.join(name);
                let (size, live) = match files.get(name) {
                    Some(&(_, size, live)) => (size, live),
                    None => (file::len(&path).unwrap_or(0), 0),
                };
                if size > live {
                    self.carried_packs.insert(path, size - live);
                }
            }
        }
        let next = packs.filter_map(|n| snapshot::pack_file_seq(n)).max();
        self.pack_seq = AtomicU64::new(next.map_or(0, |m| m + 1));
        Ok((persisted, rewrite.then_some(kept)))
    }

    /// Rewrite the whole manifest: `listed`, then the carried lines.
    fn write_manifest(&self, listed: &[ManifestEntry]) -> Result<(), SnapshotError> {
        let mut text = snapshot::manifest_text(listed).into_bytes();
        self.carried
            .iter()
            .for_each(|line| text.extend_from_slice(line));
        Ok(file::replace(
            &self.dir.join(snapshot::MANIFEST_FILE),
            &text,
        )?)
    }

    /// `Ok` unless this lifetime refused the directory.
    pub(crate) fn usable(&self) -> Result<(), ServiceError> {
        match &self.refused {
            Some(cause) => Err(ServiceError::SpillUnavailable(cause.clone())),
            None => Ok(()),
        }
    }

    /// One past the highest run id a carried line names: fresh runs
    /// start above it, so no id the directory holds is reused.
    pub(crate) fn next_run(&self) -> u64 {
        self.next_run
    }

    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// The registrations grouped by pack file (the runs of one pack share
    /// one file handle), with the files' sizes (one `stat` per file, not
    /// per run). A file's live bytes are its registered blobs plus the
    /// carried ones it holds — a carried line is history this build
    /// cannot read, not a dead blob.
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
            f.live += self.carried_packs.get(&*f.file).copied().unwrap_or(0);
            f.size = file::len(&f.file).unwrap_or(f.live);
        }
        files
    }

    /// Take the manifest lock. A poisoned one is recovered: the active
    /// pack is out of the lock for the whole of an append, so a writer
    /// that panicked left it closed, and at worst an orphan file or dead
    /// bytes the sweep or compaction takes.
    fn lock(&self) -> MutexGuard<'_, Option<ActivePack>> {
        self.manifest.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The path of the next `pack-<seq>.wfseg`, not yet created.
    fn next_pack(&self) -> Arc<Path> {
        let seq = self.pack_seq.fetch_add(1, Ordering::Relaxed);
        self.dir.join(snapshot::pack_file_name(seq)).into()
    }

    /// Create the next pack file holding `bytes`, as a fresh spill's is:
    /// one synced append to a file that did not exist.
    fn write_pack(&self, bytes: &[u8]) -> Result<Arc<Path>, SnapshotError> {
        let path = self.next_pack();
        file::append(&path, bytes, true, |_, _| Ok::<_, SnapshotError>(()))?;
        Ok(path)
    }

    /// The manifest lines for the current registrations (call with the
    /// manifest lock held).
    fn manifest_entries(&self, store: &LabelStore) -> Vec<ManifestEntry> {
        registrations(store)
            .iter()
            .map(|l| manifest_entry(&l.run, &l.file, l.offset))
            .collect()
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
    /// the active pack and one line naming it to the manifest — or, when
    /// it already has a location (a re-heated run), only let the frame
    /// go. `Ok(true)` when a blob was written. Both appends are the write
    /// [`SealedRun::persist`] waits on, the blob synced before its line:
    /// the run is persisted once both landed, and a failure of either
    /// returns a typed error, closes the active pack and leaves the run
    /// holding its frame, with no location. An eviction that lands while
    /// the line is written wins, and the line is taken back off
    /// ([`Self::forget`]).
    pub(crate) fn persist(
        &self,
        store: &LabelStore,
        sealed: &SealedRun,
    ) -> Result<bool, ServiceError> {
        self.usable()?;
        let run = sealed.run();
        let mut active = self.lock();
        let obs = &store.lru.obs;
        let span = obs.timer();
        // Out of the lock for the appends, back once the line is listed.
        let mut pack = active.take();
        let mut listed = false;
        let written = sealed.persist(|blob| {
            let (file, offset) = self.append(&mut pack, blob)?;
            snapshot::append_manifest(&self.dir, &manifest_entry(sealed, &file, offset))?;
            listed = true;
            Ok((file, offset))
        });
        let written = match written {
            Err(evicted) if listed => {
                drop(active);
                self.forget(store, run)?;
                return Err(evicted);
            }
            written => written?,
        };
        *active = pack;
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

    /// `run`, which had a location, was evicted: rewrite the manifest
    /// without its line, so a restart does not register it again, and
    /// let the next policy pass count the bytes that just turned dead.
    pub(crate) fn forget(&self, store: &LabelStore, run: RunId) -> Result<(), ServiceError> {
        self.usable()?;
        let _g = self.lock();
        self.write_manifest(&self.manifest_entries(store))
            .map_err(|e| ServiceError::Snapshot(run, e.to_string()))?;
        self.policy_stamp.store(u64::MAX, Ordering::Relaxed);
        Ok(())
    }

    /// **Compaction**, the one maintenance pass: merge underfull packs —
    /// the active pack of a lifetime that spilled few runs, packs a
    /// rewrite left small — into full ones, cutting the directory's file
    /// count, and rewrite dead-heavy packs without the blobs of evicted
    /// runs, cutting its bytes. It closes the active pack first.
    pub(crate) fn compact(&self, store: &LabelStore) -> Result<CompactionReport, ServiceError> {
        self.usable()?;
        let report = self
            .rewrite_packs(store)
            .map_err(|e| ServiceError::Compaction(e.to_string()))?;
        if report.packs_written > 0 {
            store.lru.obs.compactions.inc();
        }
        Ok(report)
    }

    /// The rewrite pass behind [`Self::compact`]. Victim files
    /// are copied whole or not at all: a file with a blob that fails to
    /// read back is left exactly as it was. Memory is bounded — blobs
    /// stream through one pack buffer (≤ [`PACK_TARGET_BYTES`] and
    /// [`PACK_MAX_RUNS`], unless a single victim is bigger), never the
    /// whole tier at once — and blobs are copied verbatim, each keeping
    /// its own checksum. Once the new manifest has landed every copied
    /// registration is relocated in place, and only then are the copied
    /// files unlinked: a reader holding a registration loads from the old
    /// place before its relocation and from the new one after, and a
    /// frame is a private copy that no unlink touches. Every exit sweeps
    /// orphans, so a pass with nothing to rewrite still reclaims the
    /// packs of evicted runs and crash leftovers. A pass that rewrote
    /// something is traced as one `compaction` span.
    fn rewrite_packs(&self, store: &LabelStore) -> Result<CompactionReport, SnapshotError> {
        let obs = &store.lru.obs;
        let span = obs.timer();
        let mut active = self.lock();
        // Closed before victims are picked or the sweep runs: nothing
        // this pass unlinks is appended to again.
        *active = None;
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
            .filter(|f| !self.carried_packs.contains_key(&*f.file))
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
            // Leave the registrations and the manifest untouched; nothing
            // references the packs just written, so the sweep takes them.
            self.sweep_orphans(&registered);
            return Ok(out);
        }
        // The new manifest: copied runs at their new place, everything
        // else where it is.
        let mut moved: HashMap<u64, (&Arc<Path>, u64)> = HashMap::new();
        for (file, members) in &packs {
            for (p, offset) in members {
                moved.insert(p.run().0, (file, *offset));
            }
        }
        let entries: Vec<ManifestEntry> = registered
            .iter()
            .map(|l| {
                let (file, offset) = moved
                    .get(&l.run.run().0)
                    .copied()
                    .unwrap_or((&l.file, l.offset));
                manifest_entry(&l.run, file, offset)
            })
            .collect();
        self.write_manifest(&entries)?;
        // Move the registrations, and only then unlink what they left.
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
    /// the store's registrations, at the places they have by now — nor a
    /// carried line references: packs holding only blobs of evicted runs
    /// (a new pack whose first append failed, or whose run was evicted
    /// during its persist, among them), and leftovers of a crash between
    /// a pack/manifest write and the old-file deletion — among them the
    /// `*.tmp` file of a replace the crash cut short. Runs under the
    /// manifest lock the snapshot was taken under and every write takes,
    /// with the active pack closed, so no spill has written a pack since,
    /// none will append to one this unlinks, and no temp file is in
    /// flight.
    fn sweep_orphans(&self, registered: &[Located]) {
        let mut referenced: HashSet<PathBuf> = registered
            .iter()
            .filter_map(|l| Some(l.run.location()?.0.to_path_buf()))
            .collect();
        referenced.extend(self.carried_packs.keys().cloned());
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

    /// A thread that panicked under the manifest lock or the replacer's
    /// candidate map left nothing half-done: persists, reads under a
    /// resident budget, an eviction and a compaction after it all go on.
    #[test]
    fn poisoned_manifest_and_lru_locks_are_recovered() {
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
        poison(|| spill.manifest.lock());
        poison(|| lru.candidates());
        assert!(spill.manifest.is_poisoned());

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
