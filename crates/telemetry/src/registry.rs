//! Registries: everything telemetry keeps for one database — named
//! counters and histograms, where a fault dump goes, and the record logs
//! (slow statements, metrics history, requests, sessions, regressions).
//! Each database owns one. A thread *adopts* a registry
//! ([`Registry::adopt`]) as it adopts a request meter: until the guard
//! drops, the free functions ([`crate::counter`], [`crate::span`],
//! [`crate::sample_now`], [`crate::requests::record`], ...) on that
//! thread use it, and a thread that adopted none uses the process
//! default. Code that hops threads captures [`current_registry`] and
//! adopts it on the far side. Readers name the registry they read.
//!
//! Lookups hash the metric name to one of 16 shards, each a
//! `parking_lot::RwLock<HashMap>`, so unrelated instruments don't
//! contend. Handles are `Arc`-backed and can be cached by hot paths to
//! skip the lookup entirely.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use crate::metrics::{MetricsSample, METRICS_CAPACITY};
use crate::regressions::{RegressionRecord, REGRESSIONS_CAPACITY};
use crate::requests::{RequestKindSummary, RequestLog, RequestRecord, REQUESTS_CAPACITY};
use crate::sessions::SessionRecord;
use crate::snapshot::{CounterSnapshot, HistogramSnapshot, Snapshot};
use crate::BoundedLog;

const SHARDS: usize = 16;

/// Default slow-query threshold: 50ms.
const DEFAULT_SLOW_QUERY_NS: u64 = 50_000_000;

/// Slow statements retained (oldest evicted first).
const SLOW_QUERIES_CAPACITY: usize = 256;

/// Number of log2 buckets: bucket 0 holds zeros, bucket `i` (1..=64)
/// holds values with `i` significant bits, i.e. `[2^(i-1), 2^i)`.
pub const BUCKETS: usize = 65;

struct CounterInner {
    value: AtomicU64,
}

/// Monotonically increasing named counter.
#[derive(Clone)]
pub struct Counter {
    inner: Arc<CounterInner>,
}

impl Counter {
    /// Add `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.inner.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current total.
    pub fn value(&self) -> u64 {
        self.inner.value.load(Ordering::Relaxed)
    }
}

struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Log2-bucketed distribution of `u64` samples (latencies in ns, sizes
/// in bytes, ...). Recording is lock-free; all fields are atomics.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

/// Bucket index for a sample: 0 for 0, else the number of significant
/// bits (1..=64).
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket, for reporting.
pub(crate) fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let inner = &self.inner;
        inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.min.fetch_min(value, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wraps if it exceeds `u64`).
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample, or `None` before the first record.
    pub fn min(&self) -> Option<u64> {
        match self.inner.min.load(Ordering::Relaxed) {
            u64::MAX if self.count() == 0 => None,
            v => Some(v),
        }
    }

    /// Largest sample, or `None` before the first record.
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.inner.max.load(Ordering::Relaxed))
        }
    }

    /// Copy of the bucket counts.
    pub fn buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.inner.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }
}

/// One retained slow statement, as exposed by `perfdmf_slow_queries`.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowQueryRecord {
    /// Monotonically increasing record number (survives eviction).
    pub seq: u64,
    /// The SQL text, truncated to 512 bytes.
    pub sql: String,
    /// Execution latency in nanoseconds (parse excluded).
    pub elapsed_ns: u64,
    /// SELECT rows handed to the caller.
    pub rows_returned: u64,
    /// Base-table rows materialized during execution.
    pub rows_scanned: u64,
    /// Rows touched when the statement was DML.
    pub rows_affected: u64,
    /// False when the statement returned an error.
    pub ok: bool,
    /// Causal trace the statement ran in, when tracing was on.
    pub trace_id: Option<u64>,
}

pub(crate) struct Instruments {
    counters: [RwLock<HashMap<String, Counter>>; SHARDS],
    histograms: [RwLock<HashMap<String, Histogram>>; SHARDS],
    /// Where [`crate::trace::fault_dump`] writes; `None` disables dumps.
    fault_dump_path: RwLock<Option<PathBuf>>,
    /// The slow-query threshold, nanoseconds.
    slow_query_ns: AtomicU64,
    slow_queries: Mutex<BoundedLog<SlowQueryRecord>>,
    pub(crate) metrics_history: Mutex<BoundedLog<MetricsSample>>,
    pub(crate) requests: Mutex<RequestLog>,
    pub(crate) sessions: Mutex<BTreeMap<u64, SessionRecord>>,
    pub(crate) regressions: Mutex<BoundedLog<RegressionRecord>>,
}

impl Default for Instruments {
    fn default() -> Self {
        Instruments {
            counters: Default::default(),
            histograms: Default::default(),
            fault_dump_path: Default::default(),
            slow_query_ns: AtomicU64::new(DEFAULT_SLOW_QUERY_NS),
            slow_queries: Mutex::new(BoundedLog::new(SLOW_QUERIES_CAPACITY)),
            metrics_history: Mutex::new(BoundedLog::new(METRICS_CAPACITY)),
            requests: Mutex::new(RequestLog {
                ring: BoundedLog::new(REQUESTS_CAPACITY),
                summary: BTreeMap::new(),
            }),
            sessions: Default::default(),
            regressions: Mutex::new(BoundedLog::new(REGRESSIONS_CAPACITY)),
        }
    }
}

/// Sharded name → instrument maps, the fault-dump path and the record
/// logs. Clones share them.
#[derive(Clone, Default)]
pub struct Registry {
    pub(crate) inner: Arc<Instruments>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

fn shard_of(name: &str) -> usize {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

impl Registry {
    /// An empty registry with no fault-dump path.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        let shard = &self.inner.counters[shard_of(name)];
        if let Some(c) = shard.read().get(name) {
            return c.clone();
        }
        shard
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Counter {
                inner: Arc::new(CounterInner {
                    value: AtomicU64::new(0),
                }),
            })
            .clone()
    }

    /// Get or create the named histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let shard = &self.inner.histograms[shard_of(name)];
        if let Some(h) = shard.read().get(name) {
            return h.clone();
        }
        shard
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Histogram {
                inner: Arc::new(HistogramInner {
                    buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                    min: AtomicU64::new(u64::MAX),
                    max: AtomicU64::new(0),
                }),
            })
            .clone()
    }

    /// Capture every registered instrument, names sorted. Concurrent
    /// recording keeps going; per-field reads are atomic, the snapshot
    /// as a whole is not.
    pub fn snapshot(&self) -> Snapshot {
        let counters = sorted(&self.inner.counters).into_iter();
        let histograms = sorted(&self.inner.histograms).into_iter();
        Snapshot {
            counters: counters
                .map(|(name, c)| CounterSnapshot {
                    name,
                    value: c.value(),
                })
                .collect(),
            histograms: histograms
                .map(|(name, h)| HistogramSnapshot {
                    name,
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                    buckets: h.buckets(),
                })
                .collect(),
        }
    }

    /// Retained slow statements, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQueryRecord> {
        self.inner.slow_queries.lock().to_vec()
    }

    /// Retain one slow statement, assigning its sequence number (returned).
    pub fn push_slow_query(&self, record: SlowQueryRecord) -> u64 {
        let mut log = self.inner.slow_queries.lock();
        log.push(|seq| SlowQueryRecord { seq, ..record })
    }

    /// Statements at or above this duration enter the slow-query log.
    pub fn slow_query_threshold(&self) -> Duration {
        Duration::from_nanos(self.inner.slow_query_ns.load(Ordering::Relaxed))
    }

    /// Change this registry's slow-query threshold (default 50ms):
    /// `Duration::ZERO` logs every statement, `Duration::MAX` none.
    pub fn set_slow_query_threshold(&self, threshold: Duration) {
        let ns = threshold.as_nanos().min(u64::MAX as u128) as u64;
        self.inner.slow_query_ns.store(ns, Ordering::Relaxed);
    }

    /// Retained metrics-history samples, oldest first.
    pub fn metrics_history(&self) -> Vec<MetricsSample> {
        self.inner.metrics_history.lock().to_vec()
    }

    /// Retained network-request records, oldest first.
    pub fn requests(&self) -> Vec<RequestRecord> {
        self.inner.requests.lock().ring.to_vec()
    }

    /// Per-kind request aggregates, ordered by kind name. They cover
    /// every request ever recorded, not just those still retained.
    pub fn request_summary(&self) -> Vec<RequestKindSummary> {
        self.inner
            .requests
            .lock()
            .summary
            .values()
            .cloned()
            .collect()
    }

    /// Retained network-session records, ordered by session id.
    pub fn sessions(&self) -> Vec<SessionRecord> {
        self.inner.sessions.lock().values().cloned().collect()
    }

    /// Retained regression findings, oldest first.
    pub fn regressions(&self) -> Vec<RegressionRecord> {
        self.inner.regressions.lock().to_vec()
    }

    /// Where a fault dump taken under this registry is written.
    pub fn fault_dump_path(&self) -> Option<PathBuf> {
        self.inner.fault_dump_path.read().clone()
    }

    /// Set where [`crate::trace::fault_dump`] writes while this registry
    /// is adopted; `None` disables fault dumps.
    pub fn set_fault_dump_path(&self, path: Option<PathBuf>) {
        *self.inner.fault_dump_path.write() = path;
    }

    /// Adopt this registry on the calling thread until the guard drops.
    /// Adopting the registry already adopted costs one thread-local read.
    pub fn adopt(&self) -> RegistryGuard {
        let prev = CURRENT.with(|c| {
            let mut current = c.borrow_mut();
            match &*current {
                Some(r) if Arc::ptr_eq(&r.inner, &self.inner) => None,
                _ => Some(current.replace(self.clone())),
            }
        });
        RegistryGuard { prev }
    }
}

/// Every `(name, handle)` pair of `shards`, sorted by name.
fn sorted<T: Clone>(shards: &[RwLock<HashMap<String, T>>; SHARDS]) -> Vec<(String, T)> {
    let mut out = Vec::new();
    for shard in shards {
        out.extend(shard.read().iter().map(|(n, x)| (n.clone(), x.clone())));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

thread_local! {
    static CURRENT: RefCell<Option<Registry>> = const { RefCell::new(None) };
}

/// Restores the previously adopted registry when dropped.
pub struct RegistryGuard {
    /// `None` when the adoption was a no-op (the registry was current).
    prev: Option<Option<Registry>>,
}

impl Drop for RegistryGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Run `f` on the registry adopted on this thread, else the process
/// default registry.
#[inline]
pub(crate) fn with_current<R>(f: impl FnOnce(&Registry) -> R) -> R {
    static DEFAULT: OnceLock<Registry> = OnceLock::new();
    CURRENT.with(|c| {
        f(c.borrow()
            .as_ref()
            .unwrap_or_else(|| DEFAULT.get_or_init(Registry::new)))
    })
}

/// The registry adopted on this thread, else the process default.
/// Capture it before handing work to another thread, then
/// [`Registry::adopt`] it there.
pub fn current_registry() -> Registry {
    with_current(Registry::clone)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn same_name_same_instrument() {
        let registry = Registry::new();
        let a = registry.counter("registry.same");
        let b = registry.counter("registry.same");
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
    }
}
