//! Self-observability for PerfDMF — the performance data framework
//! measuring itself.
//!
//! Two primitives, both behind one global on/off switch:
//!
//! * **Spans** ([`span`]) — RAII scoped timers on a monotonic clock.
//!   Each span records its elapsed nanoseconds into a latency
//!   [`Histogram`] named after the span.
//! * **Counters and histograms** ([`counter`], [`histogram`]) — named
//!   atomics in a sharded [`Registry`]; histograms bucket by power of
//!   two (65 buckets cover the full `u64` range).
//!
//! Everything telemetry keeps is scoped: each database owns a
//! [`Registry`] of instruments and record logs, and the functions here
//! record into the registry the calling thread adopted
//! ([`Registry::adopt`]), else into the process default. Only the
//! switches ([`set_enabled`], [`set_tracing`]) and the flight recorder
//! of [`trace`] are process-wide: one causal trace crosses registries.
//!
//! A third layer, [`trace`], turns the same spans into causal traces:
//! trace/span ids with parent links, cross-thread context propagation,
//! a flight recorder of recent spans, and Chrome-trace export. It has
//! its own switch ([`set_tracing`], default off) so its cost can be
//! priced separately; record logs stamp the active trace id
//! ([`trace::current_trace_id`]).
//!
//! A notable occurrence (a slow statement, a slow request, a flagged
//! regression, a panicked request) is recorded once: as a counter, plus
//! a typed record in one of the registry's logs where one exists. The
//! logs make the instruments queryable after the fact: the slow-query
//! log ([`SlowQueryRecord`], the `perfdmf_slow_queries` system table),
//! [`metrics`] keeps a bounded time series of registry snapshots (the
//! background sampler behind the `perfdmf_metrics_history` system
//! table), [`regressions`] keeps the bounded log of flagged
//! performance regressions (the `perfdmf_regressions` system table),
//! [`sessions`] keeps one record per network session (the
//! `perfdmf_sessions` system table fed by `perfdmf-server`), and
//! [`requests`] keeps a bounded ring of recent network requests with
//! their per-request [`meter::ResourceUsage`] plus per-kind latency
//! [`Moments`] (the `perfdmf_requests` / `perfdmf_request_summary`
//! system tables). Every record ring, the flight recorder's included,
//! is one [`BoundedLog`].
//!
//! When telemetry is disabled ([`set_enabled`]`(false)`) every
//! instrumentation point reduces to one relaxed atomic load.
//!
//! The loop is closed by [`snapshot::profile_from_snapshot`]: a
//! registry's [`Registry::snapshot`] becomes a
//! [`perfdmf_profile::Profile`] (spans → interval events, counters →
//! atomic events), so the framework's own behavior can be stored,
//! queried, and analyzed with the very machinery it instruments.

#![warn(unreachable_pub)]

mod bounded;
pub mod meter;
pub mod metrics;
pub mod registry;
pub mod regressions;
pub mod requests;
pub mod sessions;
pub mod snapshot;
mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

pub use bounded::BoundedLog;
pub use meter::{adopt_meter, current_meter, MeterGuard, RequestMeter, ResourceUsage};
pub use metrics::{sample_now, start_sampler, MetricsSample, SamplerHandle};
pub use perfdmf_profile::Moments;
pub use registry::SlowQueryRecord;
pub use registry::{current_registry, Counter, Histogram, Registry, RegistryGuard};
pub use regressions::RegressionRecord;
pub use requests::{RequestKindSummary, RequestRecord};
pub use sessions::{SessionRecord, SessionState};
pub use snapshot::{snapshot, CounterSnapshot, HistogramSnapshot, Snapshot};
pub use span::{span, SpanGuard};
pub use trace::{set_tracing, tracing_enabled, SpanContext, SpanId, SpanRecord, TraceId};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is telemetry currently collecting?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off globally. Off, instrumentation points cost
/// a single relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Handle to the named counter in the current registry (creating it on
/// first use).
pub fn counter(name: &str) -> Counter {
    registry::with_current(|r| r.counter(name))
}

/// Handle to the named histogram in the current registry (creating it
/// on first use).
pub fn histogram(name: &str) -> Histogram {
    registry::with_current(|r| r.histogram(name))
}

/// Add `delta` to the named counter (no-op while disabled).
#[inline]
pub fn add(name: &str, delta: u64) {
    if enabled() {
        counter(name).add(delta);
    }
}

/// Record one `value` into the named histogram (no-op while disabled).
#[inline]
pub fn record(name: &str, value: u64) {
    if enabled() {
        histogram(name).record(value);
    }
}

/// Record a duration, in nanoseconds, into the named histogram.
#[inline]
pub fn record_duration(name: &str, elapsed: Duration) {
    record(name, elapsed.as_nanos().min(u64::MAX as u128) as u64);
}

/// SplitMix64's increment, the golden-ratio constant 2^64 / φ.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finaliser, the framework's one copy. Each caller steps
/// its own state (a SplitMix64 stream adds [`GOLDEN_GAMMA`] per draw).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Serializes tests that toggle the global enabled flag against tests
/// that rely on it being on: flag-toggling tests take the write lock,
/// flag-dependent tests take a read lock.
#[cfg(test)]
pub(crate) fn enabled_flag_lock() -> &'static parking_lot::RwLock<()> {
    static LOCK: std::sync::OnceLock<parking_lot::RwLock<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| parking_lot::RwLock::new(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_drops_samples() {
        let _toggle = enabled_flag_lock().write();
        let c = counter("lib.disabled.counter");
        set_enabled(false);
        add("lib.disabled.counter", 5);
        record("lib.disabled.hist", 5);
        {
            let _g = span("lib.disabled.span");
        }
        set_enabled(true);
        assert_eq!(c.value(), 0);
        assert_eq!(histogram("lib.disabled.hist").count(), 0);
        assert_eq!(histogram("lib.disabled.span").count(), 0);

        add("lib.disabled.counter", 3);
        assert_eq!(c.value(), 3);
    }

    #[test]
    fn splitmix64_stream_from_state_zero_matches_reference() {
        let mut state = 0u64;
        for want in [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f] {
            state = state.wrapping_add(GOLDEN_GAMMA);
            assert_eq!(mix64(state), want);
        }
    }

    #[test]
    fn record_duration_uses_nanos() {
        let _on = enabled_flag_lock().read();
        record_duration("lib.dur.hist", Duration::from_micros(2));
        let h = histogram("lib.dur.hist");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 2_000);
    }
}
