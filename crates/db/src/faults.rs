//! Deterministic fault injection for the storage layer.
//!
//! [`FaultVfs`] wraps any [`Vfs`] and injects failures according to a
//! [`FaultPlan`]. Every VFS call (both file-level and handle-level)
//! increments a global operation counter; faults are scheduled against
//! that counter, so a given `(plan, workload)` pair always fails at
//! exactly the same point — the property the crash-consistency harness
//! relies on to enumerate crash points exhaustively.
//!
//! Two fault families are supported:
//!
//! * **Crash at op N** (`crash_at_op`): the Nth operation fails, and
//!   *every* operation after it fails too, modelling process death —
//!   nothing the code does after the crash point can reach disk. A
//!   torn variant persists a seed-chosen prefix of the crashing write,
//!   modelling a sector-granular partial write.
//! * **Point faults** (`fail_at`): a single operation fails with a
//!   specific [`FaultKind`] (fsync error, ENOSPC, short read, bit
//!   flip, ...) and subsequent operations proceed normally, modelling
//!   a transient I/O error the engine must surface or tolerate.

use crate::vfs::{Vfs, VfsFile};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A single injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The write fails with an I/O error; nothing is persisted.
    FailWrite,
    /// A prefix of the write is persisted, then the write fails.
    TornWrite,
    /// `sync_all` fails after data reached OS buffers.
    FsyncError,
    /// The operation fails with ENOSPC (disk full).
    Enospc,
    /// A read returns fewer bytes than the file holds.
    ShortRead,
    /// A read succeeds but one byte is flipped.
    BitFlip,
}

/// Deterministic schedule of faults, addressed by operation index.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Crash (fail this op and all later ones) at this op index.
    pub crash_at_op: Option<u64>,
    /// When crashing on a write, persist a seed-chosen prefix first.
    pub torn: bool,
    /// One-shot faults: `(op_index, kind)`.
    pub faults: Vec<(u64, FaultKind)>,
    /// Seed for prefix lengths and bit-flip positions.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that crashes at operation `n` (0-based).
    pub fn crash_at(n: u64) -> Self {
        FaultPlan {
            crash_at_op: Some(n),
            ..Default::default()
        }
    }

    /// A plan that crashes at operation `n`, tearing the failing write.
    pub fn torn_crash_at(n: u64, seed: u64) -> Self {
        FaultPlan {
            crash_at_op: Some(n),
            torn: true,
            seed,
            ..Default::default()
        }
    }

    /// A plan with a single point fault at operation `n`.
    pub fn fail_at(n: u64, kind: FaultKind) -> Self {
        FaultPlan {
            faults: vec![(n, kind)],
            ..Default::default()
        }
    }

    /// Builder: set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[derive(Debug)]
struct State {
    plan: FaultPlan,
    ops: u64,
    crashed: bool,
}

/// A [`Vfs`] that injects deterministic faults per a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    state: Arc<Mutex<State>>,
}

/// What the injector decided for one operation.
enum Verdict {
    Ok,
    Fault(FaultKind, u64),
    Crashed,
}

fn io_err(msg: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault: {msg}"))
}

fn enospc() -> std::io::Error {
    std::io::Error::from_raw_os_error(28) // ENOSPC
}

/// One SplitMix64 draw for operation `op` of a plan seeded with `seed`:
/// tiny and deterministic, good enough for choosing torn prefix lengths
/// and bit positions.
fn draw(seed: u64, op: u64) -> u64 {
    let state = seed ^ op.wrapping_mul(0x517C_C1B7_2722_0A95);
    perfdmf_telemetry::mix64(state.wrapping_add(perfdmf_telemetry::GOLDEN_GAMMA))
}

impl FaultVfs {
    /// Wrap `inner`, injecting faults per `plan`.
    pub fn new(inner: Arc<dyn Vfs>, plan: FaultPlan) -> Self {
        FaultVfs {
            inner,
            state: Arc::new(Mutex::new(State {
                plan,
                ops: 0,
                crashed: false,
            })),
        }
    }

    /// Wrap the real file system.
    pub fn on_disk(plan: FaultPlan) -> Self {
        FaultVfs::new(crate::vfs::real(), plan)
    }

    /// Total VFS operations performed so far (including faulted ones).
    pub fn ops_performed(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    /// Did the plan's crash point fire?
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// Replace the plan and reset the op counter (for reuse across
    /// harness iterations).
    pub fn reset(&self, plan: FaultPlan) {
        let mut st = self.state.lock().unwrap();
        st.plan = plan;
        st.ops = 0;
        st.crashed = false;
    }

    /// Count one operation and decide its fate.
    fn step(&self) -> Verdict {
        let mut st = self.state.lock().unwrap();
        let op = st.ops;
        st.ops += 1;
        if st.crashed {
            return Verdict::Crashed;
        }
        if st.plan.crash_at_op == Some(op) {
            st.crashed = true;
            let torn = st.plan.torn;
            let r = draw(st.plan.seed, op);
            return if torn {
                Verdict::Fault(FaultKind::TornWrite, r)
            } else {
                Verdict::Fault(FaultKind::FailWrite, r)
            };
        }
        if let Some(&(_, kind)) = st.plan.faults.iter().find(|&&(n, _)| n == op) {
            let r = draw(st.plan.seed, op);
            return Verdict::Fault(kind, r);
        }
        Verdict::Ok
    }
}

/// A file handle whose operations are metered and faultable.
struct FaultFile {
    inner: Box<dyn VfsFile>,
    vfs: FaultVfs,
}

impl FaultFile {
    fn gate_write(&mut self, buf: &[u8]) -> Result<(), std::io::Error> {
        match self.vfs.step() {
            Verdict::Ok => Ok(()),
            Verdict::Crashed => Err(io_err("post-crash write")),
            Verdict::Fault(kind, r) => match kind {
                FaultKind::FailWrite => Err(io_err("failed write")),
                FaultKind::TornWrite => {
                    // Persist a strict prefix, then fail: a torn write.
                    if !buf.is_empty() {
                        let keep = (r as usize) % buf.len();
                        let _ = self.inner.write_all(&buf[..keep]);
                        let _ = self.inner.flush();
                    }
                    Err(io_err("torn write"))
                }
                FaultKind::Enospc => Err(enospc()),
                // Read-side kinds degrade to a plain failure on a write.
                FaultKind::FsyncError | FaultKind::ShortRead | FaultKind::BitFlip => {
                    Err(io_err("failed write"))
                }
            },
        }
    }
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.gate_write(buf)?;
        self.inner.write_all(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self.vfs.step() {
            Verdict::Ok => self.inner.flush(),
            Verdict::Crashed => Err(io_err("post-crash flush")),
            Verdict::Fault(FaultKind::Enospc, _) => Err(enospc()),
            Verdict::Fault(..) => Err(io_err("failed flush")),
        }
    }

    fn sync_all(&mut self) -> std::io::Result<()> {
        match self.vfs.step() {
            Verdict::Ok => self.inner.sync_all(),
            Verdict::Crashed => Err(io_err("post-crash fsync")),
            Verdict::Fault(FaultKind::Enospc, _) => Err(enospc()),
            Verdict::Fault(..) => Err(io_err("fsync failure")),
        }
    }

    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        match self.vfs.step() {
            Verdict::Ok => self.inner.set_len(len),
            Verdict::Crashed => Err(io_err("post-crash truncate")),
            Verdict::Fault(..) => Err(io_err("failed truncate")),
        }
    }

    fn seek_start(&mut self, pos: u64) -> std::io::Result<()> {
        // Seeks don't touch the medium; never metered or failed.
        self.inner.seek_start(pos)
    }
}

impl Vfs for FaultVfs {
    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        match self.step() {
            Verdict::Ok => Ok(Box::new(FaultFile {
                inner: self.inner.open_append(path)?,
                vfs: self.clone(),
            })),
            Verdict::Crashed => Err(io_err("post-crash open")),
            Verdict::Fault(..) => Err(io_err("failed open")),
        }
    }

    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        match self.step() {
            Verdict::Ok => Ok(Box::new(FaultFile {
                inner: self.inner.create(path)?,
                vfs: self.clone(),
            })),
            Verdict::Crashed => Err(io_err("post-crash create")),
            Verdict::Fault(FaultKind::Enospc, _) => Err(enospc()),
            Verdict::Fault(..) => Err(io_err("failed create")),
        }
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        match self.step() {
            Verdict::Ok => self.inner.read(path),
            Verdict::Crashed => Err(io_err("post-crash read")),
            Verdict::Fault(FaultKind::ShortRead, r) => {
                let bytes = self.inner.read(path)?;
                let keep = if bytes.is_empty() {
                    0
                } else {
                    (r as usize) % bytes.len()
                };
                Ok(bytes[..keep].to_vec())
            }
            Verdict::Fault(FaultKind::BitFlip, r) => {
                let mut bytes = self.inner.read(path)?;
                if !bytes.is_empty() {
                    let pos = (r as usize) % bytes.len();
                    bytes[pos] ^= 1 << ((r >> 32) % 8);
                }
                Ok(bytes)
            }
            Verdict::Fault(..) => Err(io_err("failed read")),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        match self.step() {
            Verdict::Ok => self.inner.rename(from, to),
            Verdict::Crashed => Err(io_err("post-crash rename")),
            Verdict::Fault(..) => Err(io_err("failed rename")),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        // Metadata probe: not a durability-relevant operation.
        self.inner.exists(path)
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        match self.step() {
            Verdict::Ok => self.inner.create_dir_all(path),
            Verdict::Crashed => Err(io_err("post-crash mkdir")),
            Verdict::Fault(..) => Err(io_err("failed mkdir")),
        }
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        match self.step() {
            Verdict::Ok => self.inner.remove_file(path),
            Verdict::Crashed => Err(io_err("post-crash unlink")),
            Verdict::Fault(..) => Err(io_err("failed unlink")),
        }
    }
}
