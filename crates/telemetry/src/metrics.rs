//! Metrics history: periodic snapshots of a registry, kept in that
//! registry's [`crate::BoundedLog`], so the engine's *recent past* — not
//! just its lifetime totals — is queryable.
//!
//! Two entry points:
//!
//! * [`sample_now`] snapshots the current registry now (deterministic;
//!   used by tests and by callers that sample at their own cadence).
//! * [`start_sampler`] spawns a thread that samples the caller's current
//!   registry on a fixed interval until the returned [`SamplerHandle`]
//!   is dropped; [`DEFAULT_INTERVAL`] (250ms) is the usual cadence.
//!
//! [`crate::Registry::metrics_history`] returns the most recent 512
//! samples; older samples fall off the front. Each sample is a full
//! [`Snapshot`] stamped with a monotonically increasing sequence number
//! and milliseconds since the telemetry epoch (the clock span timestamps
//! use), so windowed queries (`WHERE sample >= ...`,
//! `WHERE elapsed_ms > ...`) work without wall clocks. `perfdmf-db`
//! exposes a database's history as the `perfdmf_metrics_history`
//! virtual system table (see `docs/introspection.md`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::registry::with_current;
use crate::snapshot::Snapshot;

/// Samples retained by each registry's history.
pub(crate) const METRICS_CAPACITY: usize = 512;

/// The usual sampler interval.
pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(250);

/// One snapshot in the time series.
#[derive(Debug, Clone)]
pub struct MetricsSample {
    /// Monotonically increasing sample number (never reused, survives
    /// ring eviction).
    pub seq: u64,
    /// Milliseconds since the telemetry epoch.
    pub elapsed_ms: u64,
    /// The full registry snapshot taken at that moment.
    pub snapshot: Snapshot,
}

/// Snapshot the current registry into its own history now; returns the
/// sample's sequence number.
pub fn sample_now() -> u64 {
    with_current(|registry| {
        let snapshot = registry.snapshot();
        let elapsed_ms = crate::trace::epoch()
            .elapsed()
            .as_millis()
            .min(u64::MAX as u128) as u64;
        let mut history = registry.inner.metrics_history.lock();
        history.push(|seq| MetricsSample {
            seq,
            elapsed_ms,
            snapshot,
        })
    })
}

/// Owner handle of a background sampler thread. Dropping it stops the
/// thread (joining it, so no sample races the owner's teardown).
pub struct SamplerHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl SamplerHandle {
    /// Ask the sampler to stop and wait for its thread to exit, as
    /// dropping the handle does.
    pub fn stop(self) {}
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Start a background thread sampling the caller's current registry
/// into its history every `interval`. The thread takes one sample
/// immediately so short-lived processes still record history, then
/// sleeps in small slices so stop requests are honored promptly.
pub fn start_sampler(interval: Duration) -> SamplerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let registry = crate::current_registry();
    let join = std::thread::Builder::new()
        .name("perfdmf-metrics-sampler".into())
        .spawn(move || {
            let _adopted = registry.adopt();
            sample_now();
            let slice = Duration::from_millis(10).min(interval);
            let mut since_sample = Duration::ZERO;
            while !stop_flag.load(Ordering::Relaxed) {
                std::thread::sleep(slice);
                since_sample += slice;
                if since_sample >= interval {
                    sample_now();
                    since_sample = Duration::ZERO;
                }
            }
        })
        .expect("spawn metrics sampler");
    SamplerHandle {
        stop,
        join: Some(join),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn ring_is_bounded_and_ordered() {
        let registry = Registry::new();
        let _adopted = registry.adopt();
        let seqs: Vec<u64> = (0..METRICS_CAPACITY as u64 + 10)
            .map(|_| sample_now())
            .collect();
        let hist = registry.metrics_history();
        assert_eq!(hist.len(), METRICS_CAPACITY);
        let kept: Vec<u64> = hist.iter().map(|s| s.seq).collect();
        assert_eq!(kept, seqs[10..], "newest samples kept, in order");
        assert!(hist.windows(2).all(|w| w[0].elapsed_ms <= w[1].elapsed_ms));
    }

    #[test]
    fn samples_capture_live_counters() {
        let registry = Registry::new();
        let _adopted = registry.adopt();
        crate::counter("metrics.test.c").add(3);
        sample_now();
        crate::counter("metrics.test.c").add(4);
        sample_now();
        let values: Vec<u64> = registry
            .metrics_history()
            .iter()
            .map(|s| s.snapshot.counter("metrics.test.c").unwrap().value)
            .collect();
        assert_eq!(values, [3, 7], "consecutive samples expose the delta");
    }

    #[test]
    fn sampler_thread_samples_and_stops() {
        let registry = Registry::new();
        let handle = {
            let _adopted = registry.adopt();
            start_sampler(Duration::from_millis(5))
        };
        std::thread::sleep(Duration::from_millis(40));
        handle.stop();
        let settled = registry.metrics_history().len();
        assert!(settled > 0, "sampler must have recorded samples");
        std::thread::sleep(Duration::from_millis(30));
        let after = registry.metrics_history().len();
        assert_eq!(after, settled, "no samples after stop");
    }
}
