//! **The file manager**: every file-system call the engine makes goes
//! through this module — the log's shard files here, the packs and the
//! seal log of `wf-service`'s spill directory — so each disk idiom exists
//! once, with one rule for its failures:
//!
//! - [`read_at`]: a positioned read — open, one `pread`, close; no
//!   descriptor outlives it. A file too short for the buffer is an
//!   `UnexpectedEof` error.
//! - [`read`]: a whole file, `None` when it does not exist — "not found"
//!   is an answer, every other failure an error.
//! - [`append`]: write at the end of a file and `sync_data` it. A new
//!   file is created with `create_new`, so nothing existing is ever
//!   written over, and its directory entry is synced before the append
//!   returns. A failed write or sync is cut back off, so a file never
//!   ends in half an append that was reported failed.
//! - [`replace`]: the crash-safe replace — a temp file, fsync, rename,
//!   directory fsync. The path holds its old contents or the new ones,
//!   and a replace that failed leaves no temp file behind.
//! - [`list`], [`len`], [`remove`], [`create_dir`]: a directory's names
//!   (a missing directory has none), a file's size, an unlink, a
//!   directory made with its parents.
//! - [`is_temp`]: the one rule for leftovers — a name ending in `.tmp`
//!   is the temp file of a replace a crash cut short, which whoever
//!   sweeps the directory removes.
//! - [`Log`]: a file held open for appends, the log's shard handle.
//!
//! Every failure is a [`FileError`] naming the operation and the path.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A file operation that failed: what was done, to which path, and why.
#[derive(Debug)]
pub struct FileError {
    /// `"open"`, `"read"`, `"write"`, `"fsync"`, `"rename"`, …
    pub op: &'static str,
    pub path: PathBuf,
    pub source: io::Error,
}

impl FileError {
    fn at<'a>(op: &'static str, path: &'a Path) -> impl FnOnce(io::Error) -> Self + 'a {
        move |source| Self {
            op,
            path: path.to_path_buf(),
            source,
        }
    }
}

impl std::fmt::Display for FileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.op, self.path.display(), self.source)
    }
}

impl std::error::Error for FileError {}

/// Fill `buf` from `offset` of the open `file`.
#[cfg(unix)]
fn pread(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// The portable form for targets without `pread` (not exercised by CI,
/// which runs on Linux): a seek, then a read. It moves the handle's
/// cursor, which is safe because every caller reads through a handle it
/// opened for itself.
#[cfg(not(unix))]
fn pread(mut file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

/// Fill `buf` from `offset` of `path`: open, one positioned read, close.
pub fn read_at(path: &Path, offset: u64, buf: &mut [u8]) -> Result<(), FileError> {
    let file = File::open(path).map_err(FileError::at("open", path))?;
    pread(&file, buf, offset).map_err(FileError::at("read", path))
}

/// The whole of `path`; `None` when it does not exist.
pub fn read(path: &Path) -> Result<Option<Vec<u8>>, FileError> {
    match fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        read => read.map(Some).map_err(FileError::at("read", path)),
    }
}

/// Append `bytes` to `path` and `sync_data` them; returns the offset they
/// start at. `new` creates the file — refusing one that exists — and
/// syncs its directory, so its entry is durable before anything names
/// it; otherwise the file must exist. `check` sees the open file and its
/// length first, and may refuse it. A failed write or sync is cut back
/// off.
pub fn append<E: From<FileError>>(
    path: &Path,
    bytes: &[u8],
    new: bool,
    check: impl FnOnce(&Log, u64) -> Result<(), E>,
) -> Result<u64, E> {
    let (mut log, len) = Log::open_with(path, false, new)?;
    check(&log, len)?;
    let appended = log.write(bytes).and_then(|()| log.sync());
    if appended.is_err() {
        let _ = log.file.set_len(len);
    }
    appended?;
    if new {
        sync_dir(path.parent().unwrap_or(Path::new(".")))?;
    }
    Ok(len)
}

/// Crash-safe replace: write `bytes` to a temp file next to `path`,
/// fsync it, rename it over `path` and fsync the directory — a reader
/// (or a crash) sees the old contents or the new, never a mix. The temp
/// file is removed on any failure; one a crash strands is [`is_temp`].
pub fn replace(path: &Path, bytes: &[u8]) -> Result<(), FileError> {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = path.with_file_name(format!(".{name}.tmp"));
    let replaced = (|| {
        let mut f = File::create(&tmp).map_err(FileError::at("create", &tmp))?;
        f.write_all(bytes).map_err(FileError::at("write", &tmp))?;
        f.sync_all().map_err(FileError::at("fsync", &tmp))?;
        fs::rename(&tmp, path).map_err(FileError::at("rename", path))
    })();
    if replaced.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    replaced?;
    sync_dir(path.parent().unwrap_or(Path::new(".")))
}

/// True for a leftover: the temp file of a [`replace`] a crash cut short.
#[must_use]
pub fn is_temp(name: &str) -> bool {
    name.ends_with(".tmp")
}

/// The names in `dir`, sorted; a missing `dir` has none. Names that are
/// not UTF-8 are no name the engine writes, and are left out.
pub fn list(dir: &Path) -> Result<Vec<String>, FileError> {
    let mut names: Vec<String> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(FileError::at("list", dir)(e)),
    };
    names.sort();
    Ok(names)
}

/// The size of `path`.
pub fn len(path: &Path) -> Result<u64, FileError> {
    Ok(fs::metadata(path)
        .map_err(FileError::at("stat", path))?
        .len())
}

/// Unlink `path`.
pub fn remove(path: &Path) -> Result<(), FileError> {
    fs::remove_file(path).map_err(FileError::at("remove", path))
}

/// Create `dir` and its parents.
pub fn create_dir(dir: &Path) -> Result<(), FileError> {
    fs::create_dir_all(dir).map_err(FileError::at("create dir", dir))
}

/// Fsync `dir` so a rename or an unlink inside it survives a crash. On
/// non-unix platforms directory handles cannot be opened for sync; the
/// operation alone is the best available guarantee there.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), FileError> {
    #[cfg(unix)]
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(FileError::at("fsync dir", dir))?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// A file open for appends: a log shard, held open — created if missing,
/// its writes made durable by `Log::sync`, which may run on a
/// `Log::try_clone` so a sync never holds the appenders up — or the
/// file of one [`append`], as its check sees it.
pub struct Log {
    file: File,
    path: Arc<Path>,
}

impl Log {
    /// Open `path` for appends, creating it; returns its length too.
    pub(crate) fn open(path: &Path) -> Result<(Self, u64), FileError> {
        Self::open_with(path, true, false)
    }

    fn open_with(path: &Path, create: bool, new: bool) -> Result<(Self, u64), FileError> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(create)
            .create_new(new)
            .open(path)
            .map_err(FileError::at("open", path))?;
        let len = file.metadata().map_err(FileError::at("stat", path))?.len();
        let path = path.into();
        Ok((Self { file, path }, len))
    }

    /// Fill `buf` from `offset` of the file.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), FileError> {
        pread(&self.file, buf, offset).map_err(FileError::at("read", &self.path))
    }

    /// Append `bytes` (no sync).
    pub(crate) fn write(&mut self, bytes: &[u8]) -> Result<(), FileError> {
        self.file
            .write_all(bytes)
            .map_err(FileError::at("write", &self.path))
    }

    /// A second handle on the same open file.
    pub(crate) fn try_clone(&self) -> Result<Self, FileError> {
        let file = self
            .file
            .try_clone()
            .map_err(FileError::at("dup", &self.path))?;
        let path = Arc::clone(&self.path);
        Ok(Self { file, path })
    }

    /// `sync_data` what was written.
    pub(crate) fn sync(&self) -> Result<(), FileError> {
        self.file
            .sync_data()
            .map_err(FileError::at("fsync", &self.path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh, empty directory of its own under the system temp dir.
    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "wf-file-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        create_dir(&dir).unwrap();
        dir
    }

    /// Every positioned read opens the file afresh: nothing is kept open
    /// between reads, so an unlinked file fails the next read and a file
    /// put back at the path serves it again. A file too short for the
    /// read is `UnexpectedEof`.
    #[test]
    fn every_read_at_opens_the_file_afresh() {
        let dir = temp_dir("afresh");
        let path = dir.join("pack-0.wfseg");
        fs::write(&path, b"pack bytes").unwrap();
        let mut buf = [0; 4];
        read_at(&path, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"pack");
        remove(&path).unwrap();
        let gone = read_at(&path, 0, &mut buf).unwrap_err();
        assert_eq!(
            (gone.op, gone.source.kind()),
            ("open", io::ErrorKind::NotFound)
        );
        fs::write(&path, b"pack bytes").unwrap();
        let mut buf = [0; 5];
        read_at(&path, 5, &mut buf).unwrap();
        assert_eq!(&buf, b"bytes");
        let short = read_at(&path, 5, &mut [0; 6]).unwrap_err();
        assert_eq!(
            short.source.kind(),
            io::ErrorKind::UnexpectedEof,
            "a short file"
        );
        assert!(short.to_string().contains("pack-0.wfseg"), "{short}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// "Not found" is an answer, not an error; a directory is neither.
    #[test]
    fn a_missing_file_reads_as_none_and_a_failure_as_an_error() {
        let dir = temp_dir("read");
        assert_eq!(read(&dir.join("absent")).unwrap(), None);
        assert_eq!(read(&dir).unwrap_err().op, "read");
        assert_eq!(list(&dir.join("absent")).unwrap(), Vec::<String>::new());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A new file is never written over; an append to a file that does
    /// not exist is refused; a refused check writes nothing.
    #[test]
    fn an_append_creates_only_new_files_and_checks_first() {
        let dir = temp_dir("append");
        let path = dir.join("pack-0.wfseg");
        let ok = |_: &Log, _| Ok::<(), FileError>(());
        assert_eq!(append(&path, b"first", true, ok).unwrap(), 0);
        let taken = append(&path, b"again", true, ok).unwrap_err();
        assert_eq!(taken.source.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(append(&path, b" second", false, ok).unwrap(), 5);
        let absent = append(&dir.join("absent"), b"x", false, ok).unwrap_err();
        assert_eq!(absent.source.kind(), io::ErrorKind::NotFound);
        let refused = append(&path, b"never", false, |f, len| {
            let mut head = [0; 5];
            f.read_at(0, &mut head)?;
            assert_eq!((&head, len), (b"first", 12));
            Err(FileError::at("check", &path)(io::Error::other("refused")))
        });
        assert_eq!(refused.unwrap_err().op, "check");
        assert_eq!(read(&path).unwrap().unwrap(), b"first second");
        assert_eq!(list(&dir).unwrap(), ["pack-0.wfseg"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A replace that fails leaves the target as it was and no temp file
    /// behind, and the next replace in the directory works.
    #[test]
    fn a_failed_replace_removes_its_temp_file() {
        let dir = temp_dir("replace");
        let squatter = dir.join("blob");
        fs::create_dir(&squatter).unwrap();
        fs::write(squatter.join("inside"), b"x").unwrap();
        let err = replace(&squatter, b"new contents").unwrap_err();
        assert_eq!(err.op, "rename", "{err:?}");
        assert_eq!(list(&dir).unwrap(), ["blob"], "no temp file left");
        assert!(squatter.join("inside").exists());

        let free = dir.join("free");
        replace(&free, b"first").unwrap();
        replace(&free, b"second").unwrap();
        assert_eq!(read(&free).unwrap().unwrap(), b"second");
        assert_eq!(list(&dir).unwrap(), ["blob", "free"]);
        assert!(is_temp(".free.tmp") && !is_temp("free"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
