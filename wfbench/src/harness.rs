//! What every station is handed: the catalog, the span recorder, the
//! operation ledger and a scratch directory that is removed on exit.

use crate::engine_api::Catalog;
use crate::report::Ops;
use crate::trace::Tracer;
use std::path::{Path, PathBuf};

pub struct Ctx<'a> {
    pub catalog: &'a Catalog,
    pub tracer: &'a mut Tracer,
    pub ops: &'a mut Ops,
    pub tmp: &'a TmpRoot,
}

/// `<out>/tmp-<pid>/`: every WAL, spill and crash-copy directory of a
/// process lives under it, and it is removed when the value drops —
/// on success, on a failed run, and on unwinding.
pub struct TmpRoot {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl TmpRoot {
    pub fn create(out_dir: &Path) -> std::io::Result<Self> {
        let root = out_dir.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A path for a fresh directory (not created: the engine and the
    /// WAL writer create their own).
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for TmpRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
