//! The global metric registry: named counters and histograms.
//!
//! Lookups hash the metric name to one of 16 shards, each a
//! `parking_lot::RwLock<HashMap>`, so unrelated instruments don't
//! contend. Handles are `Arc`-backed and can be cached by hot paths to
//! skip the lookup entirely; [`LocalCounter`] goes further and batches
//! increments thread-locally, flushing on drop.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

const SHARDS: usize = 16;

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

    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn value(&self) -> u64 {
        self.inner.value.load(Ordering::Relaxed)
    }

    /// Start a thread-local batching view of this counter.
    pub fn local(&self) -> LocalCounter {
        LocalCounter {
            counter: self.clone(),
            pending: 0,
        }
    }
}

/// Per-thread accumulator over a [`Counter`]: increments touch a plain
/// integer and hit the shared atomic once, when the accumulator drops
/// (or on [`LocalCounter::flush`]). For loops incrementing per row.
pub struct LocalCounter {
    counter: Counter,
    pending: u64,
}

impl LocalCounter {
    /// Add `delta` locally; invisible to readers until flushed.
    #[inline]
    pub fn add(&mut self, delta: u64) {
        self.pending += delta;
    }

    /// Increment by one locally.
    #[inline]
    pub fn incr(&mut self) {
        self.pending += 1;
    }

    /// Push pending increments to the shared counter now.
    pub fn flush(&mut self) {
        if self.pending > 0 {
            self.counter.add(self.pending);
            self.pending = 0;
        }
    }
}

impl Drop for LocalCounter {
    fn drop(&mut self) {
        self.flush();
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

/// Sharded name → instrument maps.
pub(crate) struct Registry {
    counters: [RwLock<HashMap<String, Counter>>; SHARDS],
    histograms: [RwLock<HashMap<String, Histogram>>; SHARDS],
}

fn shard_of(name: &str) -> usize {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

impl Registry {
    fn new() -> Self {
        Registry {
            counters: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            histograms: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }

    /// Get or create the named counter.
    pub(crate) fn counter(&self, name: &str) -> Counter {
        let shard = &self.counters[shard_of(name)];
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
    pub(crate) fn histogram(&self, name: &str) -> Histogram {
        let shard = &self.histograms[shard_of(name)];
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

    /// All counters as `(name, handle)` pairs, sorted by name.
    pub(crate) fn counters(&self) -> Vec<(String, Counter)> {
        let mut out: Vec<_> = self
            .counters
            .iter()
            .flat_map(|s| {
                s.read()
                    .iter()
                    .map(|(n, c)| (n.clone(), c.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// All histograms as `(name, handle)` pairs, sorted by name.
    pub(crate) fn histograms(&self) -> Vec<(String, Histogram)> {
        let mut out: Vec<_> = self
            .histograms
            .iter()
            .flat_map(|s| {
                s.read()
                    .iter()
                    .map(|(n, h)| (n.clone(), h.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Drop every registered instrument. Cached handles keep working but
    /// detach from future lookups of the same name.
    pub(crate) fn reset(&self) {
        for shard in &self.counters {
            shard.write().clear();
        }
        for shard in &self.histograms {
            shard.write().clear();
        }
    }
}

/// The process-wide registry.
pub(crate) fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
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
        let a = global().counter("registry.same");
        let b = global().counter("registry.same");
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
    }

    #[test]
    fn local_counter_flushes_on_drop() {
        let c = global().counter("registry.local");
        {
            let mut l = c.local();
            for _ in 0..100 {
                l.incr();
            }
            assert_eq!(c.value(), 0, "pending increments stay local");
        }
        assert_eq!(c.value(), 100);
    }
}
