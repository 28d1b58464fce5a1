//! Scratch directories inside the checkout, one per use, removed on drop.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Every scratch directory lives under this directory of the working
/// directory (the checkout root).
pub const ROOT: &str = ".bench_work";

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A directory named by process id, a per-process counter and a tag, so
/// no two uses in or across runs share one; removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(ROOT).join(format!("{}-{n}-{tag}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves the parent in place only while a sibling still uses it.
        let _ = std::fs::remove_dir(ROOT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_are_unique_and_removed() {
        let a = WorkDir::new("t").unwrap();
        let b = WorkDir::new("t").unwrap();
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        std::fs::write(kept.join("f"), b"x").unwrap();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().exists());
    }
}
