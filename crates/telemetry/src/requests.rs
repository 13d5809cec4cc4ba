//! The network-request log of a registry: a [`BoundedLog`] of recent
//! requests with their [`ResourceUsage`], plus per-kind latency
//! [`Moments`] and cost totals.
//!
//! `perfdmf-server` calls [`record`] once per answered request, on a
//! thread that adopted the served database's registry.
//! [`crate::Registry::requests`] and [`crate::Registry::request_summary`]
//! read it back, and `perfdmf-db` materializes them as the
//! `perfdmf_requests` and `perfdmf_request_summary` virtual system
//! tables (the record types live here, like [`crate::sessions`], because
//! the db layer cannot depend on the server crate without a cycle).
//!
//! A request at or over 100ms is flagged `slow` and counted in its
//! kind's [`RequestKindSummary::slow`] (which, unlike the ring, fast
//! traffic cannot evict) and in the `server.slow_requests` counter.

use std::collections::BTreeMap;

use crate::meter::ResourceUsage;
use crate::registry::with_current;
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
#[derive(Debug, Clone, Default, PartialEq)]
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

/// A registry's retained requests and per-kind aggregates.
pub(crate) struct RequestLog {
    pub(crate) ring: BoundedLog<RequestRecord>,
    pub(crate) summary: BTreeMap<&'static str, RequestKindSummary>,
}

/// Record one completed request into the current registry: assigns its
/// sequence number, computes the `slow` flag, folds it into the per-kind
/// summary and the ring, and — when slow — counts it in
/// `server.slow_requests`. No-op while telemetry is disabled.
pub fn record(mut record: RequestRecord) {
    if !crate::enabled() {
        return;
    }
    let slow = record.elapsed_ns >= SLOW_REQUEST_NS;
    record.slow = slow;
    let ok = matches!(record.status, "ok" | "replayed");
    with_current(|registry| {
        let mut log = registry.inner.requests.lock();
        let entry = log
            .summary
            .entry(record.kind)
            .or_insert_with(|| RequestKindSummary {
                kind: record.kind,
                ..Default::default()
            });
        entry.errors += u64::from(!ok);
        entry.slow += u64::from(slow);
        entry.latency.push(record.elapsed_ns as f64);
        entry.max_latency_ns = entry.max_latency_ns.max(record.elapsed_ns);
        entry.totals = entry.totals.saturating_add(&record.usage);

        log.ring.push(|seq| RequestRecord { seq, ..record });
    });
    if slow {
        crate::add("server.slow_requests", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

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
        let _on = crate::enabled_flag_lock().read();
        let registry = Registry::new();
        let _adopted = registry.adopt();
        record(sample("reqtest.Ping", 1_000, "ok"));
        record(sample("reqtest.Ping", 3_000, "ok"));
        record(sample("reqtest.Ping", 2_000, "error"));
        let seqs: Vec<u64> = registry.requests().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        let summaries = registry.request_summary();
        assert_eq!(summaries.len(), 1);
        let summary = &summaries[0];
        assert_eq!(summary.kind, "reqtest.Ping");
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.latency.count, 3);
        assert!((summary.latency.mean - 2_000.0).abs() < 1e-6);
        assert_eq!(summary.max_latency_ns, 3_000);
        assert_eq!(summary.totals.rows_scanned, 30);
    }

    #[test]
    fn slow_requests_are_flagged_and_counted() {
        let _on = crate::enabled_flag_lock().read();
        let registry = Registry::new();
        let _adopted = registry.adopt();
        record(sample("reqtest.Slow", 1_000, "ok"));
        record(sample("reqtest.Slow", SLOW_REQUEST_NS, "ok"));
        let flags: Vec<(u64, bool)> = registry
            .requests()
            .into_iter()
            .map(|r| (r.elapsed_ns, r.slow))
            .collect();
        assert_eq!(flags, vec![(1_000, false), (SLOW_REQUEST_NS, true)]);
        let summary = &registry.request_summary()[0];
        assert_eq!(summary.slow, 1, "only the 100ms request counts as slow");
        let counted = registry.counter("server.slow_requests").value();
        assert_eq!(counted, 1);
    }

    #[test]
    fn ring_is_bounded() {
        let _on = crate::enabled_flag_lock().read();
        let registry = Registry::new();
        let _adopted = registry.adopt();
        for i in 0..REQUESTS_CAPACITY + 10 {
            record(sample("reqtest.Bound", i as u64, "ok"));
        }
        let ring = registry.requests();
        assert_eq!(ring.len(), REQUESTS_CAPACITY);
        assert_eq!(ring[0].seq, 10, "the oldest ten were evicted");
        let summarized = registry.request_summary()[0].latency.count;
        assert_eq!(
            summarized,
            REQUESTS_CAPACITY as u64 + 10,
            "outlives eviction"
        );
    }
}
