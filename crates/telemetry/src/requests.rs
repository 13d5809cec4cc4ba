//! The process-wide network-request log: a [`BoundedLog`] of recent
//! requests with their [`ResourceUsage`], plus per-kind latency
//! [`Moments`] and cost totals.
//!
//! `perfdmf-server` calls [`record`] once per answered request;
//! `perfdmf-db` materializes the retained state as the
//! `perfdmf_requests` and `perfdmf_request_summary` virtual system
//! tables (the registry lives here, like [`crate::sessions`], because
//! the db layer cannot depend on the server crate without a cycle).
//!
//! A request at or over 100ms is flagged `slow` and counted in its
//! kind's [`RequestKindSummary::slow`] (which, unlike the ring, fast
//! traffic cannot evict) and in the `server.slow_requests` counter.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use crate::meter::ResourceUsage;
use crate::{BoundedLog, Moments};

/// Request records retained by the ring.
pub(crate) const REQUESTS_CAPACITY: usize = 256;

/// The slow-request threshold: 100ms (a network request includes queue
/// wait and retries, so it breathes wider than a statement).
const SLOW_REQUEST_NS: u64 = 100_000_000;

/// One answered (or failed) network request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Monotonically increasing record number (survives eviction).
    pub seq: u64,
    /// Trace id of the request's causal trace, when tracing was on.
    pub trace_id: Option<u64>,
    /// Server session that carried the request.
    pub session: u64,
    /// Tenant tag of that session.
    pub tenant: String,
    /// Request kind label (e.g. `"ClusterTrial"`, `"Ping"`).
    pub kind: &'static str,
    /// How the request resolved: `"ok"`, `"error"`, `"failed"`,
    /// `"overloaded"`, `"replayed"`, `"rejected"`, `"panic"`, …
    pub status: &'static str,
    /// Milliseconds of deadline remaining at completion (negative when
    /// the deadline was exceeded); `None` for requests with no deadline.
    pub deadline_slack_ms: Option<i64>,
    /// Wall time from dispatch to reply, nanoseconds.
    pub elapsed_ns: u64,
    /// True when `elapsed_ns` met the 100ms slow-request threshold (set
    /// by [`record`]).
    pub slow: bool,
    /// Server-side resources the request consumed.
    pub usage: ResourceUsage,
}

/// Aggregates for one request kind, as exposed by
/// `perfdmf_request_summary`.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestKindSummary {
    pub kind: &'static str,
    /// Requests that resolved as anything but `"ok"` or `"replayed"`.
    pub errors: u64,
    /// Requests that met the slow threshold.
    pub slow: u64,
    /// Latency moments, nanoseconds; `latency.count` is the number of
    /// requests of this kind recorded (all statuses).
    pub latency: Moments,
    /// Largest single latency seen, nanoseconds.
    pub max_latency_ns: u64,
    /// Element-wise resource totals (divide by `latency.count` for means).
    pub totals: ResourceUsage,
}

impl RequestKindSummary {
    fn new(kind: &'static str) -> RequestKindSummary {
        RequestKindSummary {
            kind,
            errors: 0,
            slow: 0,
            latency: Moments::default(),
            max_latency_ns: 0,
            totals: ResourceUsage::default(),
        }
    }
}

struct Log {
    ring: BoundedLog<RequestRecord>,
    summary: BTreeMap<&'static str, RequestKindSummary>,
}

static LOG: Mutex<Log> = Mutex::new(Log {
    ring: BoundedLog::new(REQUESTS_CAPACITY),
    summary: BTreeMap::new(),
});

/// Record one completed request: assigns its sequence number, computes
/// the `slow` flag, folds it into the per-kind summary and the ring, and
/// — when slow — counts it in `server.slow_requests`.
/// No-op while telemetry is disabled.
pub fn record(mut record: RequestRecord) {
    if !crate::enabled() {
        return;
    }
    let slow = record.elapsed_ns >= SLOW_REQUEST_NS;
    record.slow = slow;
    let ok = matches!(record.status, "ok" | "replayed");
    {
        let mut log = LOG.lock();
        let entry = log
            .summary
            .entry(record.kind)
            .or_insert_with(|| RequestKindSummary::new(record.kind));
        entry.errors += u64::from(!ok);
        entry.slow += u64::from(slow);
        entry.latency.push(record.elapsed_ns as f64);
        entry.max_latency_ns = entry.max_latency_ns.max(record.elapsed_ns);
        entry.totals = entry.totals.saturating_add(&record.usage);

        log.ring.push(|seq| RequestRecord { seq, ..record });
    }
    if slow {
        crate::add("server.slow_requests", 1);
    }
}

/// Copy of the retained request records, oldest first.
pub fn log() -> Vec<RequestRecord> {
    LOG.lock().ring.to_vec()
}

/// Per-kind aggregates, ordered by kind name. Aggregates cover every
/// request ever recorded, not just those still in the ring.
pub fn summary() -> Vec<RequestKindSummary> {
    LOG.lock().summary.values().cloned().collect()
}

/// Drop all retained records and aggregates (sequence numbers keep
/// counting).
pub fn clear() {
    let mut log = LOG.lock();
    log.ring.clear();
    log.summary.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that mutate the shared request log.
    fn test_lock() -> parking_lot::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
    }

    fn sample(kind: &'static str, elapsed_ns: u64, status: &'static str) -> RequestRecord {
        RequestRecord {
            seq: 0,
            trace_id: Some(0xABCD),
            session: 7,
            tenant: "t".into(),
            kind,
            status,
            deadline_slack_ms: Some(12),
            elapsed_ns,
            slow: false,
            usage: ResourceUsage {
                rows_scanned: 10,
                execute_ns: elapsed_ns / 2,
                ..Default::default()
            },
        }
    }

    #[test]
    fn records_fold_into_ring_and_summary() {
        let _serial = test_lock();
        let _on = crate::enabled_flag_lock().read();
        clear();
        let before = log().len();
        record(sample("reqtest.Ping", 1_000, "ok"));
        record(sample("reqtest.Ping", 3_000, "ok"));
        record(sample("reqtest.Ping", 2_000, "error"));
        assert_eq!(log().len(), before + 3);
        let summary = summary()
            .into_iter()
            .find(|s| s.kind == "reqtest.Ping")
            .expect("kind aggregated");
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.latency.count, 3);
        assert!((summary.latency.mean - 2_000.0).abs() < 1e-6);
        assert_eq!(summary.max_latency_ns, 3_000);
        assert_eq!(summary.totals.rows_scanned, 30);
        clear();
    }

    #[test]
    fn slow_requests_are_flagged_and_counted() {
        let _serial = test_lock();
        let _on = crate::enabled_flag_lock().read();
        clear();
        record(sample("reqtest.Slow", 1_000, "ok"));
        record(sample("reqtest.Slow", SLOW_REQUEST_NS, "ok"));
        let flags: Vec<(u64, bool)> = log()
            .into_iter()
            .filter(|r| r.kind == "reqtest.Slow")
            .map(|r| (r.elapsed_ns, r.slow))
            .collect();
        assert_eq!(flags, vec![(1_000, false), (SLOW_REQUEST_NS, true)]);
        let summary = summary()
            .into_iter()
            .find(|s| s.kind == "reqtest.Slow")
            .expect("kind aggregated");
        assert_eq!(summary.slow, 1, "only the 100ms request counts as slow");
        clear();
    }

    #[test]
    fn ring_is_bounded() {
        let _serial = test_lock();
        let _on = crate::enabled_flag_lock().read();
        clear();
        for i in 0..REQUESTS_CAPACITY + 10 {
            record(sample("reqtest.Bound", i as u64, "ok"));
        }
        assert_eq!(log().len(), REQUESTS_CAPACITY);
        clear();
    }
}
