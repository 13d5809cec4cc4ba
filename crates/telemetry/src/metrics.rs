//! Metrics time-series recorder: periodic snapshots of the registry in a
//! bounded ring buffer, so the engine's *recent past* — not just its
//! lifetime totals — is queryable.
//!
//! Two entry points:
//!
//! * [`sample_now`] takes one snapshot immediately (deterministic; used by
//!   tests and by callers that sample at their own cadence).
//! * [`start_sampler`] spawns a background thread that samples on a fixed
//!   interval until the returned [`SamplerHandle`] is dropped;
//!   [`DEFAULT_INTERVAL`] (250ms) is the usual cadence.
//!
//! The ring is a [`BoundedLog`] of the most recent [`METRICS_CAPACITY`]
//! samples; older samples fall off the front. Each sample is a full
//! [`Snapshot`] stamped with a monotonically increasing sequence number
//! and milliseconds since the telemetry epoch (the clock span timestamps
//! use), so windowed queries (`WHERE sample >= ...`,
//! `WHERE elapsed_ms > ...`) work without wall clocks. `perfdmf-db` exposes the ring as the `perfdmf_metrics_history`
//! virtual system table (see `docs/introspection.md`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::snapshot::{snapshot, Snapshot};
use crate::BoundedLog;

/// Samples retained by the process-wide recorder.
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

/// Bounded ring of [`MetricsSample`]s.
pub struct MetricsRecorder {
    ring: Mutex<BoundedLog<MetricsSample>>,
}

impl MetricsRecorder {
    /// A recorder retaining at most `capacity` samples (min 1).
    pub const fn with_capacity(capacity: usize) -> Self {
        MetricsRecorder {
            ring: Mutex::new(BoundedLog::new(capacity)),
        }
    }

    /// Maximum number of retained samples.
    pub fn capacity(&self) -> usize {
        self.ring.lock().capacity()
    }

    /// Number of samples currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// True when no samples have been taken (or all have been evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the registry into the ring now; returns the sample's
    /// sequence number.
    pub fn sample_now(&self) -> u64 {
        let snapshot = snapshot();
        let elapsed_ms = crate::trace::epoch()
            .elapsed()
            .as_millis()
            .min(u64::MAX as u128) as u64;
        self.ring.lock().push(|seq| MetricsSample {
            seq,
            elapsed_ms,
            snapshot,
        })
    }

    /// Copy of the retained samples, oldest first.
    pub fn history(&self) -> Vec<MetricsSample> {
        self.ring.lock().to_vec()
    }

    /// Drop all retained samples (sequence numbers keep counting).
    pub fn clear(&self) {
        self.ring.lock().clear();
    }
}

static RECORDER: MetricsRecorder = MetricsRecorder::with_capacity(METRICS_CAPACITY);

/// The process-wide recorder ([`METRICS_CAPACITY`] samples).
pub fn recorder() -> &'static MetricsRecorder {
    &RECORDER
}

/// Sample the global recorder once, immediately.
pub fn sample_now() -> u64 {
    recorder().sample_now()
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

/// Start a background thread sampling the global recorder every
/// `interval`. The thread takes one sample immediately so short-lived
/// processes still record history, then sleeps in small slices so stop
/// requests are honored promptly.
pub fn start_sampler(interval: Duration) -> SamplerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("perfdmf-metrics-sampler".into())
        .spawn(move || {
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

    #[test]
    fn ring_is_bounded_and_ordered() {
        let rec = MetricsRecorder::with_capacity(4);
        for _ in 0..10 {
            rec.sample_now();
        }
        let hist = rec.history();
        assert_eq!(hist.len(), 4);
        let seqs: Vec<u64> = hist.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest evicted, order kept");
        assert!(hist.windows(2).all(|w| w[0].elapsed_ms <= w[1].elapsed_ms));
    }

    #[test]
    fn samples_capture_live_counters() {
        crate::counter("metrics.test.c").add(3);
        let rec = MetricsRecorder::with_capacity(8);
        rec.sample_now();
        crate::counter("metrics.test.c").add(4);
        rec.sample_now();
        let hist = rec.history();
        let v0 = hist[0].snapshot.counter("metrics.test.c").unwrap().value;
        let v1 = hist[1].snapshot.counter("metrics.test.c").unwrap().value;
        assert_eq!(v1 - v0, 4, "consecutive samples expose the delta");
    }

    #[test]
    fn sampler_thread_samples_and_stops() {
        let rec = recorder();
        let before = rec.len();
        let handle = start_sampler(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(40));
        handle.stop();
        let after = rec.len();
        assert!(after > before, "sampler must have recorded samples");
        let settled = rec.len();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(rec.len(), settled, "no samples after stop");
    }
}
