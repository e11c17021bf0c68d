//! **wf-bufmgr** — the mmap buffer manager under the sealed runs that
//! are read from disk.
//!
//! Every file in the spill directory is a pack: one or more
//! self-checksummed segment blobs back to back (a fresh spill writes a
//! pack of one; compaction writes bigger ones). Packs are
//! immutable by construction (temp file → fsync → rename; never modified
//! in place), so each one can be mapped once, checksummed once per blob
//! and read in place for as long as a sealed run lies in it:
//!
//! * [`PackFile`] — one pack. The file is `mmap`'d **at first pin**, not
//!   at registration (one shared `OnceLock` per file), so a pack nobody
//!   reads costs no VMA and no address space.
//! * [`PackMapping`] — the mapping itself (read-only, shared). It stays
//!   byte-identical for its whole life, so checksums need verifying only
//!   once, at first pin.
//! * [`MappedRun`] — one run's blob resolved to a verified byte range
//!   *inside* the mapping. It reads nothing itself: the sealed run lends
//!   the same [`wf_drl::ArenaRef`] over these bytes that it lends over a
//!   heap copy of them, so queries rank a vertex, read its cell and walk
//!   its prefix's cursor **straight off the mapping** — no copy, no
//!   allocation, no eager whole-arena validation. A re-heat copies the range onto the
//!   heap once. Shedding is `madvise(MADV_DONTNEED)`: the pages go back
//!   to the kernel, the metadata stays, and the next pin re-faults at
//!   page-cache speed.
//!
//! There is no version clock over the pack set. A mapping lives as long
//! as anything holds it — the [`PackFile`] of a sealed run's location,
//! or a [`MappedRun`] some reader pinned — and outlives the file's
//! unlink (the inode survives until the final `munmap`). Compaction
//! moves blobs by telling each sealed run its new place (under the run's
//! place lock, the one a first pin reads the location through) and only
//! then unlinks what they copied, so a reader mid-flight finishes on the
//! mapping it resolved and the next one opens the new file.

use crate::snapshot::{verify_segment_bytes, SegmentHeader, SnapshotError};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Page granularity assumed for `madvise` range rounding. A constant
/// (not `sysconf`) keeps the offline build free of libc: rounding to a
/// too-small page merely shrinks the advisory range, which is safe.
const PAGE: usize = 4096;

#[cfg(unix)]
mod ffi {
    use std::ffi::c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }

    pub const PROT_READ: i32 = 1;
    pub const MAP_SHARED: i32 = 1;
    pub const MADV_DONTNEED: i32 = 4;
}

/// How a pack file's bytes are held: a real `mmap` on unix, or the
/// whole file read into an owned buffer where mapping is unavailable
/// (non-unix targets, or an `mmap` that refused). Both
/// variants serve the identical zero-copy [`MappedRun`] read path; only
/// eviction differs (`madvise` vs nothing — the owned fallback frees
/// with the mapping itself).
enum PackBytes {
    #[cfg(unix)]
    Mapped {
        ptr: *mut u8,
        len: usize,
    },
    Owned(Box<[u8]>),
}

impl std::fmt::Debug for PackBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            #[cfg(unix)]
            PackBytes::Mapped { len, .. } => write!(f, "Mapped({len}B)"),
            PackBytes::Owned(b) => write!(f, "Owned({}B)", b.len()),
        }
    }
}

/// One pack file of the spill directory, shared by every run registered
/// in it. Registration only names the file; the mapping is established
/// by the first pin that needs bytes and then lives as long as any
/// registration or [`MappedRun`] holds this handle — unmapping is safe
/// even after a rewrite unlinked the file (the inode survives until the
/// final `munmap`).
#[derive(Debug)]
pub struct PackFile {
    path: PathBuf,
    /// Set by the first open that succeeds. A failed open is not cached
    /// here — it may be transient (`EMFILE`, `ENOMEM`), and the file is
    /// shared by up to a pack's worth of runs; the run whose pin failed
    /// remembers that for itself.
    mapping: OnceLock<Arc<PackMapping>>,
    /// The store's `mapped_bytes` gauge, handed to the mapping.
    gauge: Arc<AtomicU64>,
}

impl PackFile {
    pub(crate) fn new(path: PathBuf, gauge: Arc<AtomicU64>) -> Arc<Self> {
        Arc::new(Self {
            path,
            mapping: OnceLock::new(),
            gauge,
        })
    }

    /// The file this handle names.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The file's mapping, established by the first call that can open
    /// the file. (Two first pins racing may both open it; the loser's
    /// mapping is dropped again.)
    pub(crate) fn mapping(&self) -> io::Result<Arc<PackMapping>> {
        if let Some(map) = self.mapping.get() {
            return Ok(Arc::clone(map));
        }
        let opened = PackMapping::open(&self.path, Arc::clone(&self.gauge))?;
        Ok(Arc::clone(self.mapping.get_or_init(|| opened)))
    }

    /// On-disk size, with a fallback when the file cannot be stat'd
    /// (unlinked by a rewrite since the caller looked, exotic
    /// filesystem).
    pub(crate) fn disk_len(&self, fallback: u64) -> u64 {
        fs::metadata(&self.path).map_or(fallback, |m| m.len())
    }
}

/// One pack file mapped read-only, from first pin until the last
/// [`PackFile`] handle or [`MappedRun`] referencing it drops.
#[derive(Debug)]
pub struct PackMapping {
    bytes: PackBytes,
    /// Shared gauge of live mapped bytes (the store's `mapped_bytes`):
    /// incremented on map, decremented on drop.
    gauge: Arc<AtomicU64>,
}

// SAFETY: the mapping is PROT_READ over an immutable file; the raw
// pointer is owned exclusively by this struct and only ever read.
unsafe impl Send for PackMapping {}
unsafe impl Sync for PackMapping {}

impl PackMapping {
    /// Map `path` read-only. Falls back to reading the whole file into
    /// an owned buffer when `mmap` is unavailable or refuses (empty
    /// file, exotic filesystem) — a pin never fails over the mapping
    /// strategy, only over unreadable bytes.
    pub fn open(path: &Path, gauge: Arc<AtomicU64>) -> io::Result<Arc<Self>> {
        let file = fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        let bytes = match Self::map(&file, len) {
            Some(mapped) => {
                gauge.fetch_add(len as u64, Ordering::Relaxed);
                mapped
            }
            None => {
                let mut buf = Vec::with_capacity(len);
                use std::io::Read;
                (&file).read_to_end(&mut buf)?;
                PackBytes::Owned(buf.into_boxed_slice())
            }
        };
        Ok(Arc::new(Self { bytes, gauge }))
    }

    #[cfg(unix)]
    fn map(file: &fs::File, len: usize) -> Option<PackBytes> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return None;
        }
        let ptr = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                len,
                ffi::PROT_READ,
                ffi::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr.is_null() || ptr as isize == -1 {
            return None;
        }
        Some(PackBytes::Mapped {
            ptr: ptr.cast(),
            len,
        })
    }

    #[cfg(not(unix))]
    fn map(_file: &fs::File, _len: usize) -> Option<PackBytes> {
        None
    }

    /// The whole file as one immutable slice.
    pub fn bytes(&self) -> &[u8] {
        match &self.bytes {
            #[cfg(unix)]
            // SAFETY: ptr/len came from a successful PROT_READ mmap that
            // lives until Drop; the file is never truncated or rewritten
            // in place (temp-file + rename discipline), so every byte
            // stays readable.
            PackBytes::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            PackBytes::Owned(b) => b,
        }
    }

    /// A bounds-checked sub-range (one blob's bytes).
    pub fn slice(&self, offset: u64, len: u64) -> Option<&[u8]> {
        let start = usize::try_from(offset).ok()?;
        let end = start.checked_add(usize::try_from(len).ok()?)?;
        self.bytes().get(start..end)
    }

    /// Hint the kernel to drop the pages backing `[offset, offset+len)`
    /// — the mapped tier's eviction. Page-rounded outward (dropping a
    /// neighbour's shared page is harmless: the next touch re-faults
    /// identical bytes). A no-op for the owned fallback.
    pub fn advise_dont_need(&self, offset: u64, len: u64) {
        #[cfg(unix)]
        if let PackBytes::Mapped { ptr, len: map_len } = &self.bytes {
            let start = (offset as usize).min(*map_len) & !(PAGE - 1);
            let end = ((offset + len) as usize)
                .min(*map_len)
                .next_multiple_of(PAGE)
                .min(*map_len);
            if end > start {
                // SAFETY: [start, end) lies inside the live mapping.
                unsafe {
                    ffi::madvise(ptr.add(start).cast(), end - start, ffi::MADV_DONTNEED);
                }
            }
        }
        #[cfg(not(unix))]
        let _ = (offset, len);
    }
}

impl Drop for PackMapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let PackBytes::Mapped { ptr, len } = &self.bytes {
            self.gauge.fetch_sub(*len as u64, Ordering::Relaxed);
            // SAFETY: exclusive owner of a live mapping.
            unsafe {
                ffi::munmap(ptr.cast::<std::ffi::c_void>(), *len);
            }
        }
    }
}

/// One sealed run's blob resolved to a byte range inside a
/// [`PackMapping`]. Constructed once per place a blob has — the
/// construction runs the full framing + checksum verification (§
/// "checksums verify once at first pin") — then reused across every
/// later pin; a shed only drops the *pages*, never this metadata.
#[derive(Debug)]
pub struct MappedRun {
    map: Arc<PackMapping>,
    /// Blob range within the mapping.
    offset: u64,
    len: u64,
}

impl MappedRun {
    /// Resolve (and fully verify — length, magic, version, checksum, and
    /// that it is the blob `header` registered) the blob at
    /// `[offset, offset+len)` of `map`. This is the one integrity pass the
    /// mapped path ever runs: the labels themselves decode lazily, per
    /// query, and a byte that rots *after* this check degrades to a
    /// malformed label at its cursor, never to a panic.
    pub(crate) fn resolve(
        map: Arc<PackMapping>,
        offset: u64,
        len: u64,
        header: &SegmentHeader,
    ) -> Result<Self, SnapshotError> {
        let blob = map
            .slice(offset, len)
            .ok_or_else(|| SnapshotError::Format("blob range outside mapped pack".into()))?;
        if verify_segment_bytes(blob)? != *header {
            return Err(SnapshotError::Format(
                "the blob changed since its registration".into(),
            ));
        }
        Ok(Self { map, offset, len })
    }

    /// The blob's bytes, read in place (`resolve` checked the range).
    pub(crate) fn blob(&self) -> &[u8] {
        &self.map.bytes()[self.offset as usize..(self.offset + self.len) as usize]
    }

    /// Drop the kernel pages behind this blob (mapped-range shed).
    pub(crate) fn advise_dont_need(&self) {
        self.map.advise_dont_need(self.offset, self.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str) -> Arc<PackFile> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "wf-pack-{tag}-{}-{}.wfseg",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&path, b"pack bytes").unwrap();
        PackFile::new(path, Arc::default())
    }

    /// A failed open is not remembered by the file handle (the file is
    /// shared by every run of the pack and the failure may be
    /// transient); a successful one is.
    #[test]
    fn only_a_successful_open_is_cached() {
        let file = temp_file("retry");
        let bytes = fs::read(file.path()).unwrap();
        fs::remove_file(file.path()).unwrap();
        assert!(file.mapping().is_err());
        fs::write(file.path(), &bytes).unwrap();
        let map = file.mapping().expect("second open succeeds");
        fs::remove_file(file.path()).unwrap();
        assert!(Arc::ptr_eq(&map, &file.mapping().unwrap()));
        assert_eq!(map.bytes(), bytes);
    }
}
