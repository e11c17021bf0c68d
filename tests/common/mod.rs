//! What the integration-test binaries share (each declares `mod common;`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A temp dir that cleans up after itself (no tempfile crate offline).
/// Made under `WF_TIER_TEST_DIR` when that is set, so a CI job can point
/// every suite's files at one place, and under the system temp dir
/// otherwise; named after the test binary, the tag, the process and a
/// per-process sequence number, so no two live ones share a path.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let base = std::env::var_os("WF_TIER_TEST_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let dir = base.join(format!(
            "wf-{}-{tag}-{}-{}",
            env!("CARGO_CRATE_NAME"),
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
