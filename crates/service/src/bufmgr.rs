//! **wf-bufmgr** — the file layer under the sealed runs that are read
//! from disk.
//!
//! Every file in the spill directory is a pack: one or more
//! self-checksummed segment blobs back to back (fresh spills append to
//! the pack their engine lifetime opened last; compaction writes whole
//! ones). Packs are append-only: a written byte is never rewritten, so a
//! blob read once reads the same forever.
//!
//! A sealed run's bytes in memory are a **frame**: one heap buffer per
//! blob (`Arc<[u8]>`), owned by the run's place ([`crate::snapshot`]).
//! This module fills frames: [`PackFile::frame`] opens the pack, reads
//! the blob's range with one positioned read and closes the file again,
//! so no descriptor outlives a load however many packs are read. The
//! replacer ([`crate::store::SegmentLru`]) sheds a frame by dropping it;
//! the next read that needs the bytes fills a new one. A frame is a
//! private copy: a rewrite that unlinks the file behind it changes
//! nothing for a reader that holds it.

use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One pack file of the spill directory, shared by every run registered
/// in it. It only names the file: every read opens it afresh.
#[derive(Debug)]
pub struct PackFile {
    path: PathBuf,
}

impl PackFile {
    pub(crate) fn new(path: PathBuf) -> Arc<Self> {
        Arc::new(Self { path })
    }

    /// The file this handle names.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A new frame holding the `len` bytes at `offset`: open, one
    /// positioned read, close.
    pub(crate) fn frame(&self, offset: u64, len: u64) -> io::Result<Arc<[u8]>> {
        let len = usize::try_from(len).map_err(io::Error::other)?;
        let mut frame: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        // A frame nobody else has seen yet: the only reference.
        let buf = Arc::get_mut(&mut frame).ok_or_else(|| io::Error::other("shared frame"))?;
        read_exact_at(&File::open(&self.path)?, buf, offset)?;
        Ok(frame)
    }

    /// On-disk size, with a fallback when the file cannot be stat'd
    /// (unlinked by a rewrite since the caller looked, exotic
    /// filesystem).
    pub(crate) fn disk_len(&self, fallback: u64) -> u64 {
        fs::metadata(&self.path).map_or(fallback, |m| m.len())
    }
}

/// Fill `buf` from `offset` of `file` — the one positioned read every
/// byte taken off a pack goes through. A file too short for `buf` is an
/// `UnexpectedEof` error.
#[cfg(unix)]
pub(crate) fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// The portable form for targets without `pread` (not exercised by CI,
/// which runs on Linux): a seek, then a read. It moves the handle's
/// cursor, which is safe because every caller reads through a `File` it
/// opened for itself.
#[cfg(not(unix))]
pub(crate) fn read_exact_at(mut file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_file(tag: &str) -> Arc<PackFile> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "wf-pack-{tag}-{}-{}.wfseg",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&path, b"pack bytes").unwrap();
        PackFile::new(path)
    }

    /// Every frame is read from the file as it is now: nothing is kept
    /// open between reads, so an unlinked file fails the next read and
    /// a file put back at the path serves it again.
    #[test]
    fn every_frame_opens_the_file_afresh() {
        let file = temp_file("afresh");
        assert_eq!(&*file.frame(0, 4).unwrap(), b"pack");
        let bytes = fs::read(file.path()).unwrap();
        fs::remove_file(file.path()).unwrap();
        assert!(file.frame(0, 4).is_err(), "no handle outlives a read");
        fs::write(file.path(), &bytes).unwrap();
        assert_eq!(&*file.frame(5, 5).unwrap(), b"bytes");
        let eof = file.frame(5, 6).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof, "a short file");
        fs::remove_file(file.path()).unwrap();
    }
}
