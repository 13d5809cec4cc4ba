//! The performance-regression log of a registry.
//!
//! Detection lives in `perfdmf-analysis` (the Chan–Welford baseline
//! comparison) and in callers like the explorer's watchdog hook; this
//! module only *retains* what they flag, in the current registry's
//! bounded log, so the findings are observable after the fact:
//! [`crate::Registry::regressions`] reads it back and `perfdmf-db`
//! exposes it as the `perfdmf_regressions` virtual system table.
//! Reporters count each finding in `analysis.regressions_flagged`.

use crate::registry::with_current;

/// Findings retained by each registry (oldest evicted first).
pub(crate) const REGRESSIONS_CAPACITY: usize = 1024;

/// One flagged deviation of a candidate measurement from its baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionRecord {
    /// Monotonically increasing record number (survives eviction).
    pub seq: u64,
    /// What was compared, e.g. `"trial 7 vs experiment 1 baseline"`.
    pub context: String,
    /// The regressing routine / event / bench name.
    pub event: String,
    /// Metric the samples were taken in (e.g. `TIME`, `ns`).
    pub metric: String,
    /// Baseline mean of the event's samples.
    pub baseline_mean: f64,
    /// Baseline standard deviation (0 when the baseline never varied).
    pub baseline_stddev: f64,
    /// Number of baseline samples behind the mean.
    pub baseline_count: u64,
    /// The candidate's value.
    pub candidate: f64,
    /// `candidate / baseline_mean` (∞ when the baseline mean is 0).
    pub ratio: f64,
    /// Standard-score of the candidate against the baseline, when the
    /// baseline has spread; `None` for a constant baseline.
    pub zscore: Option<f64>,
}

/// Append a finding to the current registry's log, assigning its
/// sequence number (returned).
pub fn report(record: RegressionRecord) -> u64 {
    with_current(|registry| {
        let mut log = registry.inner.regressions.lock();
        log.push(|seq| RegressionRecord { seq, ..record })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn record(event: &str) -> RegressionRecord {
        RegressionRecord {
            seq: 0,
            context: "test".into(),
            event: event.into(),
            metric: "TIME".into(),
            baseline_mean: 10.0,
            baseline_stddev: 1.0,
            baseline_count: 4,
            candidate: 25.0,
            ratio: 2.5,
            zscore: Some(15.0),
        }
    }

    #[test]
    fn report_assigns_increasing_seqs() {
        let registry = Registry::new();
        let _adopted = registry.adopt();
        assert_eq!(report(record("a")), 0);
        assert_eq!(report(record("b")), 1);
        let found = registry.regressions();
        assert_eq!(found.len(), 2);
        assert_eq!((found[0].seq, found[0].event.as_str()), (0, "a"));
        assert_eq!((found[1].seq, found[1].event.as_str()), (1, "b"));
    }
}
