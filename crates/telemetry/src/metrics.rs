//! Metrics history: periodic snapshots of the registry in a
//! [`BoundedLog`], so the engine's *recent past* — not just its
//! lifetime totals — is queryable.
//!
//! Two entry points:
//!
//! * [`sample_now`] snapshots the current registry now (deterministic;
//!   used by tests and by callers that sample at their own cadence).
//! * [`start_sampler`] spawns a thread that samples the caller's current
//!   registry on a fixed interval until the returned [`SamplerHandle`]
//!   is dropped; [`DEFAULT_INTERVAL`] (250ms) is the usual cadence.
//!
//! [`history`] returns the most recent `METRICS_CAPACITY` samples;
//! older samples fall off the front. Each sample is a full
//! [`Snapshot`] stamped with a monotonically increasing sequence number
//! and milliseconds since the telemetry epoch (the clock span timestamps
//! use), so windowed queries (`WHERE sample >= ...`,
//! `WHERE elapsed_ms > ...`) work without wall clocks. `perfdmf-db`
//! exposes the history as the `perfdmf_metrics_history` virtual system
//! table (see `docs/introspection.md`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::snapshot::{snapshot, Snapshot};
use crate::BoundedLog;

/// Samples retained by the process-wide history.
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

/// The process-wide history: the most recent [`METRICS_CAPACITY`] samples.
static HISTORY: Mutex<BoundedLog<MetricsSample>> = Mutex::new(BoundedLog::new(METRICS_CAPACITY));

/// Snapshot the current registry into the history now; returns the
/// sample's sequence number.
pub fn sample_now() -> u64 {
    let snapshot = snapshot();
    let elapsed_ms = crate::trace::epoch()
        .elapsed()
        .as_millis()
        .min(u64::MAX as u128) as u64;
    HISTORY.lock().push(|seq| MetricsSample {
        seq,
        elapsed_ms,
        snapshot,
    })
}

/// Copy of the retained samples, oldest first.
pub fn history() -> Vec<MetricsSample> {
    HISTORY.lock().to_vec()
}

/// Owner handle of a background sampler thread. Dropping it stops the
/// thread (joining it, so no sample races the owner's teardown).
pub struct SamplerHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl SamplerHandle {
    /// Ask the sampler to stop and wait for its thread to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start a background thread sampling the caller's current registry
/// into the history every `interval`. The thread takes one sample
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

    /// Serializes the tests that sample into the shared history.
    fn test_lock() -> parking_lot::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
    }

    fn last_seq() -> Option<u64> {
        history().last().map(|s| s.seq)
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let _serial = test_lock();
        let seqs: Vec<u64> = (0..10).map(|_| sample_now()).collect();
        let hist = history();
        assert!(hist.len() <= METRICS_CAPACITY);
        let tail: Vec<u64> = hist[hist.len() - 10..].iter().map(|s| s.seq).collect();
        assert_eq!(tail, seqs, "newest samples last, in order");
        assert!(hist.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(hist.windows(2).all(|w| w[0].elapsed_ms <= w[1].elapsed_ms));
    }

    #[test]
    fn samples_capture_live_counters() {
        let _serial = test_lock();
        crate::counter("metrics.test.c").add(3);
        let first = sample_now();
        crate::counter("metrics.test.c").add(4);
        let second = sample_now();
        let value = |seq: u64| {
            let hist = history();
            let sample = hist.iter().find(|s| s.seq == seq).expect("sample retained");
            sample.snapshot.counter("metrics.test.c").unwrap().value
        };
        assert_eq!(
            value(second) - value(first),
            4,
            "consecutive samples expose the delta"
        );
    }

    #[test]
    fn sampler_thread_samples_and_stops() {
        let _serial = test_lock();
        let before = last_seq();
        let handle = start_sampler(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(40));
        handle.stop();
        let settled = last_seq();
        assert!(settled > before, "sampler must have recorded samples");
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(last_seq(), settled, "no samples after stop");
    }
}
