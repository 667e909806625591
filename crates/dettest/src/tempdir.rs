//! [`TempDir`]: an RAII temporary directory for unit tests.
//!
//! PR 2 deduplicated the *integration*-test temp-dir helpers into
//! `tests/common/mod.rs`, but per-crate unit tests cannot see that module.
//! This is the same helper exported from `dettest` (already a dev-dependency
//! everywhere property tests live) so unit tests stop hand-rolling leaky
//! `std::env::temp_dir()` paths: the directory is removed recursively on
//! drop, including when the owning test fails.
#![expect(clippy::disallowed_methods, reason = "scratch directories live under the system temp dir")]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_TMPDIR: AtomicU64 = AtomicU64::new(0);

/// A unique temporary directory removed (recursively) on drop.
///
/// Keep the value alive for as long as files inside it are in use — e.g.
/// return it alongside an index that keeps open files in the directory.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `$TMPDIR/rased-<tag>-<pid>-<n>`, fresh and empty.
    pub fn new(tag: &str) -> TempDir {
        let n = NEXT_TMPDIR.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("rased-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        #[expect(clippy::expect_used, reason = "test infrastructure: a test cannot proceed without its directory")]
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path to `name` inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
