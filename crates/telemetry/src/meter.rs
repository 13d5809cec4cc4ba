//! Per-request resource metering: one [`RequestMeter`] per network
//! request, threaded through execution the same way a trace context is.
//!
//! The server's session loop creates a meter when a request arrives and
//! *adopts* it on the session thread ([`adopt_meter`]); any code that
//! hops threads captures [`current_meter`] before the hop and adopts it
//! on the other side — exactly the [`crate::trace::current_context`] /
//! [`crate::trace::adopt_context`] pattern, so the meter follows the
//! request through the server's analysis queue, its worker, and every
//! pool partition the worker fans out to.
//!
//! Instrumented subsystems call the free hook functions
//! ([`add_rows_scanned`], [`add_wal_bytes`], …). Each hook is one
//! thread-local read when no meter is adopted — cheap enough to leave in
//! hot paths unconditionally — and one relaxed `fetch_add` on the shared
//! cells when one is. The cells are atomics because pool workers on
//! several threads charge the same request concurrently.
//!
//! When the request completes, [`RequestMeter::snapshot`] yields a
//! [`ResourceUsage`] — a plain `Copy` struct that travels in the wire
//! `Reply` (so clients see server-side cost) and into the request ring
//! behind the `perfdmf_requests` system table ([`crate::requests`]).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Snapshot of the resources one request consumed server-side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Base-table rows materialized during execution.
    pub rows_scanned: u64,
    /// Column-chunk cache hits.
    pub chunk_hits: u64,
    /// Column-chunk cache misses (chunks built).
    pub chunk_misses: u64,
    /// Worker-pool partition tasks dispatched.
    pub pool_tasks: u64,
    /// Bytes appended to the WAL on the request's behalf.
    pub wal_bytes: u64,
    /// Nanoseconds spent waiting in the admission queue.
    pub queue_wait_ns: u64,
    /// Nanoseconds spent executing on a worker.
    pub execute_ns: u64,
}

impl ResourceUsage {
    /// True when every cell is zero (nothing was metered).
    pub fn is_zero(&self) -> bool {
        *self == ResourceUsage::default()
    }

    /// Element-wise saturating sum — used by per-kind aggregates.
    pub fn saturating_add(&self, other: &ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            rows_scanned: self.rows_scanned.saturating_add(other.rows_scanned),
            chunk_hits: self.chunk_hits.saturating_add(other.chunk_hits),
            chunk_misses: self.chunk_misses.saturating_add(other.chunk_misses),
            pool_tasks: self.pool_tasks.saturating_add(other.pool_tasks),
            wal_bytes: self.wal_bytes.saturating_add(other.wal_bytes),
            queue_wait_ns: self.queue_wait_ns.saturating_add(other.queue_wait_ns),
            execute_ns: self.execute_ns.saturating_add(other.execute_ns),
        }
    }
}

#[derive(Default)]
struct Cells {
    rows_scanned: AtomicU64,
    chunk_hits: AtomicU64,
    chunk_misses: AtomicU64,
    pool_tasks: AtomicU64,
    wal_bytes: AtomicU64,
    queue_wait_ns: AtomicU64,
    execute_ns: AtomicU64,
}

/// Shared accounting handle for one request. Clones share the cells, so
/// the handle can be captured by value across thread hops.
#[derive(Clone, Default)]
pub struct RequestMeter {
    cells: Arc<Cells>,
}

impl std::fmt::Debug for RequestMeter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestMeter")
            .field("usage", &self.snapshot())
            .finish()
    }
}

impl RequestMeter {
    /// A fresh meter with every cell at zero.
    pub fn new() -> RequestMeter {
        RequestMeter::default()
    }

    /// Copy the current cell values out as a [`ResourceUsage`].
    pub fn snapshot(&self) -> ResourceUsage {
        let c = &self.cells;
        ResourceUsage {
            rows_scanned: c.rows_scanned.load(Ordering::Relaxed),
            chunk_hits: c.chunk_hits.load(Ordering::Relaxed),
            chunk_misses: c.chunk_misses.load(Ordering::Relaxed),
            pool_tasks: c.pool_tasks.load(Ordering::Relaxed),
            wal_bytes: c.wal_bytes.load(Ordering::Relaxed),
            queue_wait_ns: c.queue_wait_ns.load(Ordering::Relaxed),
            execute_ns: c.execute_ns.load(Ordering::Relaxed),
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<RequestMeter>> = const { RefCell::new(None) };
}

/// The meter adopted on this thread, if any. Capture it before handing
/// work to another thread, then [`adopt_meter`] it there.
pub fn current_meter() -> Option<RequestMeter> {
    CURRENT.with(|m| m.borrow().clone())
}

/// Restores the previously adopted meter when dropped.
pub struct MeterGuard {
    prev: Option<RequestMeter>,
}

/// Adopt `meter` as this thread's active request meter: until the guard
/// drops, every hook call on this thread charges it.
pub fn adopt_meter(meter: RequestMeter) -> MeterGuard {
    let prev = CURRENT.with(|m| m.borrow_mut().replace(meter));
    MeterGuard { prev }
}

impl Drop for MeterGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|m| *m.borrow_mut() = prev);
    }
}

#[inline]
fn charge(f: impl FnOnce(&Cells)) {
    CURRENT.with(|m| {
        if let Some(meter) = m.borrow().as_ref() {
            f(&meter.cells);
        }
    });
}

/// Charge `n` scanned base-table rows to the active meter, if any.
#[inline]
pub fn add_rows_scanned(n: u64) {
    charge(|c| {
        c.rows_scanned.fetch_add(n, Ordering::Relaxed);
    });
}

/// Charge one column-chunk cache hit.
#[inline]
pub fn add_chunk_hit() {
    charge(|c| {
        c.chunk_hits.fetch_add(1, Ordering::Relaxed);
    });
}

/// Charge one column-chunk cache miss.
#[inline]
pub fn add_chunk_miss() {
    charge(|c| {
        c.chunk_misses.fetch_add(1, Ordering::Relaxed);
    });
}

/// Charge `n` pool partition tasks.
#[inline]
pub fn add_pool_tasks(n: u64) {
    charge(|c| {
        c.pool_tasks.fetch_add(n, Ordering::Relaxed);
    });
}

/// Charge `n` bytes appended to the WAL.
#[inline]
pub fn add_wal_bytes(n: u64) {
    charge(|c| {
        c.wal_bytes.fetch_add(n, Ordering::Relaxed);
    });
}

/// Charge `n` nanoseconds of admission-queue wait.
#[inline]
pub fn add_queue_wait_ns(n: u64) {
    charge(|c| {
        c.queue_wait_ns.fetch_add(n, Ordering::Relaxed);
    });
}

/// Charge `n` nanoseconds of worker execution.
#[inline]
pub fn add_execute_ns(n: u64) {
    charge(|c| {
        c.execute_ns.fetch_add(n, Ordering::Relaxed);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_are_inert_without_an_adopted_meter() {
        assert!(current_meter().is_none());
        add_rows_scanned(10);
        add_wal_bytes(10);
        assert!(current_meter().is_none());
    }

    #[test]
    fn adopted_meter_collects_and_guard_restores() {
        let meter = RequestMeter::new();
        {
            let _g = adopt_meter(meter.clone());
            add_rows_scanned(3);
            add_chunk_hit();
            add_chunk_miss();
            add_pool_tasks(4);
            add_wal_bytes(128);
            add_queue_wait_ns(5);
            add_execute_ns(6);
            {
                // Nested adoption shadows, then restores.
                let inner = RequestMeter::new();
                let _g2 = adopt_meter(inner.clone());
                add_rows_scanned(100);
                assert_eq!(inner.snapshot().rows_scanned, 100);
            }
            add_rows_scanned(2);
        }
        add_rows_scanned(50); // after the guard: charged to nobody
        let usage = meter.snapshot();
        assert_eq!(
            usage,
            ResourceUsage {
                rows_scanned: 5,
                chunk_hits: 1,
                chunk_misses: 1,
                pool_tasks: 4,
                wal_bytes: 128,
                queue_wait_ns: 5,
                execute_ns: 6,
            }
        );
        assert!(!usage.is_zero());
        assert!(ResourceUsage::default().is_zero());
    }

    #[test]
    fn clones_share_cells_across_threads() {
        let meter = RequestMeter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = meter.clone();
                s.spawn(move || {
                    let _g = adopt_meter(m);
                    for _ in 0..100 {
                        add_pool_tasks(1);
                    }
                });
            }
        });
        assert_eq!(meter.snapshot().pool_tasks, 400);
    }

    #[test]
    fn saturating_add_merges_elementwise() {
        let a = ResourceUsage {
            rows_scanned: 1,
            wal_bytes: u64::MAX,
            ..Default::default()
        };
        let b = ResourceUsage {
            rows_scanned: 2,
            wal_bytes: 10,
            ..Default::default()
        };
        let sum = a.saturating_add(&b);
        assert_eq!(sum.rows_scanned, 3);
        assert_eq!(sum.wal_bytes, u64::MAX);
    }
}
