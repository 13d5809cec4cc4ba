//! Virtual file system: the seam between the storage layer and the OS.
//!
//! All file I/O performed by the WAL and snapshot code goes through the
//! [`Vfs`] trait — [`RealVfs`] forwards to `std::fs`, while
//! [`crate::faults::FaultVfs`] wraps another `Vfs` and injects
//! deterministic faults (failed writes, torn writes, fsync errors,
//! ENOSPC, short reads, bit flips) so recovery code can be exercised
//! under every failure the real layer may produce.
//!
//! The trait is deliberately narrow: it models exactly the operations
//! the engine performs (append-mode open, whole-file read, atomic
//! replace via temp + rename), not a general file system. Keeping the
//! surface small is what makes exhaustive fault scheduling tractable —
//! every crash point is one of these calls.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// An open writable file handle obtained from a [`Vfs`].
pub trait VfsFile: Send + Sync {
    /// Write the whole buffer (one logical I/O operation).
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()>;
    /// Flush userspace buffers to the OS.
    fn flush(&mut self) -> std::io::Result<()>;
    /// Durably sync file contents and metadata to stable storage.
    fn sync_all(&mut self) -> std::io::Result<()>;
    /// Truncate (or extend) the file.
    fn set_len(&mut self, len: u64) -> std::io::Result<()>;
    /// Seek to an absolute offset from the start.
    fn seek_start(&mut self, pos: u64) -> std::io::Result<()>;
}

/// The file-system operations the storage layer needs.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Open `path` for appending, creating it if absent.
    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>>;
    /// Create (truncating) `path` for writing.
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>>;
    /// Read the entire contents of `path`.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Atomically replace `to` with `from`.
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// Does `path` exist?
    fn exists(&self, path: &Path) -> bool;
    /// Create a directory and all missing parents.
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()>;
    /// Remove a file; missing files are not an error.
    fn remove_file(&self, path: &Path) -> std::io::Result<()>;
}

/// The production [`Vfs`]: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

/// Shared handle to the production VFS.
pub(crate) fn real() -> Arc<dyn Vfs> {
    Arc::new(RealVfs)
}

/// Newtype so `VfsFile` methods never shadow `std::io::Write` on `File`.
struct RealFile(File);

impl VfsFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        Write::write_all(&mut self.0, buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Write::flush(&mut self.0)
    }

    fn sync_all(&mut self) -> std::io::Result<()> {
        self.0.sync_all()
    }

    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.0.set_len(len)
    }

    fn seek_start(&mut self, pos: u64) -> std::io::Result<()> {
        self.0.seek(SeekFrom::Start(pos)).map(|_| ())
    }
}

impl Vfs for RealVfs {
    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(File::create(path)?)))
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        match std::fs::remove_file(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }
}
