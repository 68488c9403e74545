//! The injectable storage I/O surface: every byte the durability layer
//! reads or writes goes through [`StorageIo`], so tests can swap the
//! real filesystem ([`StdIo`]) for a shared in-memory store ([`MemIo`])
//! or a deterministic fault injector (`testkit::FaultyStorageIo`)
//! without touching recovery logic.
//!
//! Paths are flat file names relative to the store's root directory
//! (`"wal.log"`, `"snapshot-….hdbs"`); no implementation interprets
//! separators. Every operation is fallible and reports failures as
//! [`HdbError::Storage`] — the persistent backend translates those into
//! its read-only degradation, never a panic.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use crate::error::{HdbError, Result};

/// How often the WAL is fsynced on the ingest path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every appended record (maximum durability; the
    /// default).
    Always,
    /// `fsync` once every `n` appended records. `EveryN(1)` is
    /// [`SyncPolicy::Always`]; `EveryN(0)` is normalised to 1.
    EveryN(u64),
    /// Never `fsync` from the ingest path (the OS flushes on its own
    /// schedule; a crash may lose the unsynced tail — recovery truncates
    /// it as torn).
    Never,
}

impl SyncPolicy {
    /// Whether an append that brings the unsynced count to `unsynced`
    /// must fsync now.
    #[must_use]
    pub fn due(self, unsynced: u64) -> bool {
        match self {
            Self::Always => true,
            Self::EveryN(n) => unsynced >= n.max(1),
            Self::Never => false,
        }
    }
}

/// The byte-level storage surface the durability layer is written
/// against. Implementations must be safe to share across threads; the
/// persistent backend serialises mutations itself, so implementations
/// only need per-call consistency.
pub trait StorageIo: Send + Sync {
    /// Reads a whole file; `Ok(None)` if it does not exist.
    ///
    /// # Errors
    /// [`HdbError::Storage`] on any I/O failure other than absence.
    fn read(&self, path: &str) -> Result<Option<Vec<u8>>>;

    /// Creates or replaces a file with exactly `bytes`.
    ///
    /// # Errors
    /// [`HdbError::Storage`] on any I/O failure.
    fn write(&self, path: &str, bytes: &[u8]) -> Result<()>;

    /// Appends `bytes` to a file, creating it if absent.
    ///
    /// # Errors
    /// [`HdbError::Storage`] on any I/O failure.
    fn append(&self, path: &str, bytes: &[u8]) -> Result<()>;

    /// Truncates a file to `len` bytes (used to drop a torn WAL tail).
    ///
    /// # Errors
    /// [`HdbError::Storage`] if the file is absent or the truncate fails.
    fn truncate(&self, path: &str, len: u64) -> Result<()>;

    /// Flushes a file's data to stable storage (`fsync`).
    ///
    /// # Errors
    /// [`HdbError::Storage`] if the file is absent or the sync fails.
    fn sync(&self, path: &str) -> Result<()>;

    /// Flushes the store's directory entries (after a rename, so the new
    /// name itself is durable).
    ///
    /// # Errors
    /// [`HdbError::Storage`] on any I/O failure.
    fn sync_dir(&self) -> Result<()>;

    /// Atomically renames `from` to `to`, replacing any existing `to`.
    ///
    /// # Errors
    /// [`HdbError::Storage`] if `from` is absent or the rename fails.
    fn rename(&self, from: &str, to: &str) -> Result<()>;

    /// Removes a file; absence is not an error.
    ///
    /// # Errors
    /// [`HdbError::Storage`] on any other I/O failure.
    fn remove(&self, path: &str) -> Result<()>;

    /// The store's file names, sorted ascending.
    ///
    /// # Errors
    /// [`HdbError::Storage`] if the directory cannot be listed.
    fn list(&self) -> Result<Vec<String>>;
}

fn io_err(op: &str, path: &str, e: &std::io::Error) -> HdbError {
    HdbError::Storage(format!("{op} {path}: {e}"))
}

/// [`StorageIo`] over a real directory on the local filesystem.
#[derive(Debug)]
pub struct StdIo {
    root: PathBuf,
}

impl StdIo {
    /// Opens (creating if needed) `root` as a store directory.
    ///
    /// # Errors
    /// [`HdbError::Storage`] if the directory cannot be created.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)
            .map_err(|e| io_err("create store dir", &root.display().to_string(), &e))?;
        Ok(Self { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl StorageIo for StdIo {
    fn read(&self, path: &str) -> Result<Option<Vec<u8>>> {
        match fs::read(self.path(path)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", path, &e)),
        }
    }

    fn write(&self, path: &str, bytes: &[u8]) -> Result<()> {
        fs::write(self.path(path), bytes).map_err(|e| io_err("write", path, &e))
    }

    fn append(&self, path: &str, bytes: &[u8]) -> Result<()> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(path))
            .map_err(|e| io_err("open for append", path, &e))?;
        f.write_all(bytes).map_err(|e| io_err("append", path, &e))
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        let f = fs::OpenOptions::new()
            .write(true)
            .open(self.path(path))
            .map_err(|e| io_err("open for truncate", path, &e))?;
        f.set_len(len).map_err(|e| io_err("truncate", path, &e))
    }

    fn sync(&self, path: &str) -> Result<()> {
        // fsync flushes the file (inode + data), not a particular
        // descriptor's view, so a fresh read-only handle suffices.
        let f = fs::File::open(self.path(path)).map_err(|e| io_err("open for sync", path, &e))?;
        f.sync_all().map_err(|e| io_err("fsync", path, &e))
    }

    fn sync_dir(&self) -> Result<()> {
        let d = fs::File::open(&self.root)
            .map_err(|e| io_err("open store dir", &self.root.display().to_string(), &e))?;
        // Directory fsync is what makes a completed rename durable on
        // POSIX; platforms where it fails (or is meaningless) already
        // persist the rename, so absence of support is not an error.
        match d.sync_all() {
            Ok(()) | Err(_) => Ok(()),
        }
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        fs::rename(self.path(from), self.path(to)).map_err(|e| io_err("rename", from, &e))
    }

    fn remove(&self, path: &str) -> Result<()> {
        match fs::remove_file(self.path(path)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", path, &e)),
        }
    }

    fn list(&self) -> Result<Vec<String>> {
        let dir = fs::read_dir(&self.root)
            .map_err(|e| io_err("list store dir", &self.root.display().to_string(), &e))?;
        let mut names = Vec::new();
        for entry in dir {
            let entry = entry
                .map_err(|e| io_err("list store dir", &self.root.display().to_string(), &e))?;
            if let Some(name) = entry.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        names.sort();
        Ok(names)
    }
}

/// [`StorageIo`] over a shared in-memory map. Cloning shares the same
/// underlying bytes, so a test can "crash" a store (drop the backend),
/// keep the surviving bytes, and reopen a fresh backend over them.
#[derive(Clone, Debug, Default)]
pub struct MemIo {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemIo {
    /// A fresh, empty in-memory store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn files(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Vec<u8>>> {
        self.files.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Overwrites one byte of `path` at `offset` (test corruption tool);
    /// no-op if the file is absent or shorter.
    pub fn poke(&self, path: &str, offset: usize, byte: u8) {
        if let Some(b) = self.files().get_mut(path).and_then(|f| f.get_mut(offset)) {
            *b = byte;
        }
    }
}

impl StorageIo for MemIo {
    fn read(&self, path: &str) -> Result<Option<Vec<u8>>> {
        Ok(self.files().get(path).cloned())
    }

    fn write(&self, path: &str, bytes: &[u8]) -> Result<()> {
        self.files().insert(path.to_string(), bytes.to_vec());
        Ok(())
    }

    fn append(&self, path: &str, bytes: &[u8]) -> Result<()> {
        self.files().entry(path.to_string()).or_default().extend_from_slice(bytes);
        Ok(())
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        let mut files = self.files();
        let Some(file) = files.get_mut(path) else {
            return Err(HdbError::Storage(format!("truncate {path}: no such file")));
        };
        let len = usize::try_from(len)
            .map_err(|_| HdbError::Storage(format!("truncate {path}: length overflows usize")))?;
        if len < file.len() {
            file.truncate(len);
        }
        Ok(())
    }

    fn sync(&self, path: &str) -> Result<()> {
        if self.files().contains_key(path) {
            Ok(())
        } else {
            Err(HdbError::Storage(format!("fsync {path}: no such file")))
        }
    }

    fn sync_dir(&self) -> Result<()> {
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut files = self.files();
        let Some(bytes) = files.remove(from) else {
            return Err(HdbError::Storage(format!("rename {from}: no such file")));
        };
        files.insert(to.to_string(), bytes);
        Ok(())
    }

    fn remove(&self, path: &str) -> Result<()> {
        self.files().remove(path);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>> {
        Ok(self.files().keys().cloned().collect())
    }
}

/// Boxed trait objects forward verbatim, so adapters can wrap either a
/// concrete implementation or an already-boxed one.
impl StorageIo for Box<dyn StorageIo> {
    fn read(&self, path: &str) -> Result<Option<Vec<u8>>> {
        self.as_ref().read(path)
    }

    fn write(&self, path: &str, bytes: &[u8]) -> Result<()> {
        self.as_ref().write(path, bytes)
    }

    fn append(&self, path: &str, bytes: &[u8]) -> Result<()> {
        self.as_ref().append(path, bytes)
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        self.as_ref().truncate(path, len)
    }

    fn sync(&self, path: &str) -> Result<()> {
        self.as_ref().sync(path)
    }

    fn sync_dir(&self) -> Result<()> {
        self.as_ref().sync_dir()
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.as_ref().rename(from, to)
    }

    fn remove(&self, path: &str) -> Result<()> {
        self.as_ref().remove(path)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.as_ref().list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_policy_due() {
        assert!(SyncPolicy::Always.due(1));
        assert!(!SyncPolicy::Never.due(1_000));
        assert!(!SyncPolicy::EveryN(4).due(3));
        assert!(SyncPolicy::EveryN(4).due(4));
    }

    #[test]
    fn mem_io_round_trip_and_sharing() {
        let a = MemIo::new();
        let b = a.clone();
        a.write("f", b"one").unwrap();
        b.append("f", b"two").unwrap();
        assert_eq!(a.read("f").unwrap().unwrap(), b"onetwo");
        a.truncate("f", 3).unwrap();
        assert_eq!(b.read("f").unwrap().unwrap(), b"one");
        assert_eq!(a.list().unwrap(), vec!["f".to_string()]);
        a.rename("f", "g").unwrap();
        assert!(b.read("f").unwrap().is_none());
        assert!(b.sync("g").is_ok());
        assert!(b.sync("f").is_err());
        a.remove("g").unwrap();
        assert!(a.list().unwrap().is_empty());
    }

    #[test]
    fn std_io_round_trip() {
        let dir = std::env::temp_dir().join(format!("hdb-stdio-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let io = StdIo::new(&dir).unwrap();
        io.write("wal.log", b"abc").unwrap();
        io.append("wal.log", b"def").unwrap();
        assert_eq!(io.read("wal.log").unwrap().unwrap(), b"abcdef");
        io.truncate("wal.log", 2).unwrap();
        assert_eq!(io.read("wal.log").unwrap().unwrap(), b"ab");
        io.sync("wal.log").unwrap();
        io.sync_dir().unwrap();
        io.rename("wal.log", "wal2.log").unwrap();
        assert!(io.read("wal.log").unwrap().is_none());
        assert_eq!(io.list().unwrap(), vec!["wal2.log".to_string()]);
        io.remove("wal2.log").unwrap();
        io.remove("wal2.log").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
