//! The performance-regression watchdog: compare a candidate trial (or any
//! named set of timings) against an archive baseline and flag routines
//! that got meaningfully slower.
//!
//! A trial is read as the per-event [`EventAggregate`] records of one
//! metric. Each routine's sample is its record's mean exclusive value:
//! the mean over the threads that recorded it (SQL `AVG`).
//!
//! The baseline is a per-routine [`AtomicData`] accumulator — Welford
//! mean/stddev per event, merged across trials with Chan et al.'s
//! pairwise combination (the same [`perfdmf_profile::Moments`] the SQL
//! aggregate kernels use). A candidate routine is flagged when it is
//! both *proportionally* slower (`candidate / mean ≥ min_ratio`) and
//! *statistically* surprising (`z-score ≥ min_zscore`, skipped when the
//! baseline never varied). Flagged findings are pushed into the global
//! `perfdmf_telemetry::regressions` log — queryable as the
//! `perfdmf_regressions` system table — with the
//! `analysis.regressions_flagged` counter tracking the total.

use std::collections::BTreeMap;

use perfdmf_profile::{AtomicData, EventAggregate};
use perfdmf_telemetry as telemetry;

/// Thresholds for flagging a candidate sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Minimum `candidate / baseline_mean` ratio to flag (default 1.25 —
    /// a 2× slowdown is flagged with plenty of margin).
    pub min_ratio: f64,
    /// Minimum z-score to flag when the baseline has spread (default
    /// 3.0). Ignored when the baseline stddev is 0 or undefined.
    pub min_zscore: f64,
    /// Baseline samples required before an event is judged at all
    /// (default 2 — below that mean/stddev carry no evidence).
    pub min_baseline: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            min_ratio: 1.25,
            min_zscore: 3.0,
            min_baseline: 2,
        }
    }
}

/// Per-routine baseline statistics accumulated from archive trials.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    metric: String,
    routines: BTreeMap<String, AtomicData>,
}

impl Baseline {
    /// An empty baseline for samples of `metric`.
    pub fn new(metric: impl Into<String>) -> Self {
        Baseline {
            metric: metric.into(),
            routines: BTreeMap::new(),
        }
    }

    /// The metric this baseline's samples are measured in.
    pub fn metric(&self) -> &str {
        &self.metric
    }

    /// Record one named sample (e.g. a bench timing) into the baseline.
    pub fn record(&mut self, event: &str, sample: f64) {
        self.routines
            .entry(event.to_string())
            .or_default()
            .record(sample);
    }

    /// Fold one archive trial into the baseline: each event contributes
    /// its mean exclusive value as one sample.
    pub fn add_trial(&mut self, events: &[EventAggregate]) {
        for (event, sample) in samples(events) {
            self.record(event, sample);
        }
    }

    /// Merge another baseline into this one (Chan–Welford combination per
    /// routine) — the parallel/incremental construction path.
    pub fn merge(&mut self, other: &Baseline) {
        for (event, stats) in &other.routines {
            self.routines.entry(event.clone()).or_default().merge(stats);
        }
    }

    /// Number of routines with baseline statistics.
    pub fn len(&self) -> usize {
        self.routines.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.routines.is_empty()
    }

    /// The accumulated statistics for one routine.
    pub fn stats(&self, event: &str) -> Option<&AtomicData> {
        self.routines.get(event)
    }
}

/// One flagged (or judged) candidate-vs-baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The routine / event / bench name.
    pub event: String,
    /// Metric the samples are measured in.
    pub metric: String,
    /// Baseline mean.
    pub baseline_mean: f64,
    /// Baseline sample standard deviation (0 when undefined or constant).
    pub baseline_stddev: f64,
    /// Baseline sample count.
    pub baseline_count: u64,
    /// The candidate's value.
    pub candidate: f64,
    /// `candidate / baseline_mean` (∞ when the baseline mean is 0).
    pub ratio: f64,
    /// Candidate z-score, when the baseline has spread.
    pub zscore: Option<f64>,
}

/// One (routine, mean exclusive) sample per event with a defined mean.
fn samples(events: &[EventAggregate]) -> impl Iterator<Item = (&str, f64)> {
    events
        .iter()
        .filter_map(|a| Some((a.event_name.as_str(), a.mean_exclusive?)))
}

/// Judge one candidate sample against its baseline statistics. Returns
/// the finding when it crosses both thresholds, `None` otherwise.
fn judge(
    event: &str,
    metric: &str,
    stats: &AtomicData,
    candidate: f64,
    config: &WatchdogConfig,
) -> Option<Finding> {
    if stats.count() < config.min_baseline {
        return None;
    }
    let ratio = if stats.mean() == 0.0 {
        if candidate == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        candidate / stats.mean()
    };
    // NaN (a NaN sample snuck in) compares as None and is not flagged.
    if !matches!(
        ratio.partial_cmp(&config.min_ratio),
        Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
    ) {
        return None;
    }
    let stddev = stats.stddev().unwrap_or(0.0);
    let zscore = (stddev > 0.0).then(|| (candidate - stats.mean()) / stddev);
    // A constant baseline has no spread to score against: the ratio test
    // alone decides. Otherwise both tests must agree.
    if let Some(z) = zscore {
        if z < config.min_zscore {
            return None;
        }
    }
    Some(Finding {
        event: event.to_string(),
        metric: metric.to_string(),
        baseline_mean: stats.mean(),
        baseline_stddev: stddev,
        baseline_count: stats.count(),
        candidate,
        ratio,
        zscore,
    })
}

/// Compare named candidate samples against the baseline, reporting every
/// flagged finding to the adopted telemetry registry's regression log.
/// `context` describes the comparison, e.g. `"trial 7 vs experiment 1"`.
pub fn check_samples<'a>(
    baseline: &Baseline,
    samples: impl IntoIterator<Item = (&'a str, f64)>,
    config: &WatchdogConfig,
    context: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (event, candidate) in samples {
        let Some(stats) = baseline.stats(event) else {
            continue; // new routine: nothing to compare against
        };
        if let Some(finding) = judge(event, &baseline.metric, stats, candidate, config) {
            telemetry::regressions::report(telemetry::RegressionRecord {
                seq: 0,
                context: context.to_string(),
                event: finding.event.clone(),
                metric: finding.metric.clone(),
                baseline_mean: finding.baseline_mean,
                baseline_stddev: finding.baseline_stddev,
                baseline_count: finding.baseline_count,
                candidate: finding.candidate,
                ratio: finding.ratio,
                zscore: finding.zscore,
            });
            telemetry::add("analysis.regressions_flagged", 1);
            findings.push(finding);
        }
    }
    findings
}

/// Compare a candidate trial's per-event records against the baseline.
/// The watchdog entry point for new-trial-vs-archive checks.
pub fn check_trial(
    baseline: &Baseline,
    candidate: &[EventAggregate],
    config: &WatchdogConfig,
    context: &str,
) -> Vec<Finding> {
    check_samples(baseline, samples(candidate), config, context)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf_profile::{IntervalData, IntervalEvent, Metric, MetricId, Profile, ThreadId};

    fn profile(scale: f64) -> Profile {
        let mut p = Profile::new("watchdog-test");
        let m = p.add_metric(Metric::measured("TIME"));
        p.add_thread(ThreadId::ZERO);
        for (name, base) in [("compute", 100.0), ("io", 10.0)] {
            let e = p.add_event(IntervalEvent::new(name, "TAU_DEFAULT"));
            let v = base * scale;
            p.set_interval(e, ThreadId::ZERO, m, IntervalData::new(v, v, 1.0, 0.0));
        }
        p
    }

    fn trial(scale: f64) -> Vec<EventAggregate> {
        profile(scale).event_aggregates(MetricId(0))
    }

    fn baseline(scales: &[f64]) -> Baseline {
        let mut b = Baseline::new("TIME");
        for &scale in scales {
            b.add_trial(&trial(scale));
        }
        b
    }

    #[test]
    fn flags_synthetic_two_x_slowdown() {
        // Baseline: four trials with ±2% jitter. Candidate: compute 2×.
        let registry = telemetry::Registry::new();
        let _adopted = registry.adopt();
        let baseline = baseline(&[0.98, 1.0, 1.01, 1.02]);
        let mut candidate = profile(1.0);
        let m = candidate.find_metric("TIME").unwrap();
        let e = candidate.find_event("compute").unwrap();
        candidate.set_interval(
            e,
            ThreadId::ZERO,
            m,
            IntervalData::new(200.0, 200.0, 1.0, 0.0),
        );
        let candidate = candidate.event_aggregates(m);
        let findings = check_trial(&baseline, &candidate, &WatchdogConfig::default(), "test 2x");
        assert_eq!(findings.len(), 1, "only the slowed routine is flagged");
        let f = &findings[0];
        assert_eq!(f.event, "compute");
        assert!((f.ratio - 2.0).abs() < 0.05, "ratio ≈ 2, got {}", f.ratio);
        assert!(f.zscore.unwrap() > 3.0);
        // The finding landed in the adopted registry's regression log.
        let logged = registry.regressions();
        assert_eq!(logged.len(), 1);
        assert_eq!(logged[0].context, "test 2x");
        assert_eq!(logged[0].event, "compute");
    }

    #[test]
    fn steady_trial_is_not_flagged() {
        let baseline = baseline(&[0.98, 1.0, 1.02]);
        let findings = check_trial(
            &baseline,
            &trial(1.01),
            &WatchdogConfig::default(),
            "steady",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn constant_baseline_uses_ratio_alone() {
        // Identical trials ⇒ stddev 0 ⇒ z-score unavailable; the ratio
        // test alone must still catch the slowdown.
        let baseline = baseline(&[1.0, 1.0]);
        let findings = check_trial(
            &baseline,
            &trial(2.0),
            &WatchdogConfig::default(),
            "constant",
        );
        assert_eq!(findings.len(), 2, "both routines doubled");
        assert!(findings.iter().all(|f| f.zscore.is_none()));
    }

    #[test]
    fn new_routines_and_thin_baselines_are_skipped() {
        let mut baseline = Baseline::new("TIME");
        baseline.record("thin", 1.0); // below min_baseline
        let samples = [("thin", 10.0), ("new", 10.0)];
        let findings = check_samples(&baseline, samples, &WatchdogConfig::default(), "skip");
        assert!(findings.is_empty());
    }

    #[test]
    fn merge_matches_bulk_construction() {
        let a = baseline(&[0.9, 1.0]);
        let b = baseline(&[1.1, 1.2]);
        let mut merged = a.clone();
        merged.merge(&b);
        let bulk = baseline(&[0.9, 1.0, 1.1, 1.2]);
        let ms = merged.stats("compute").unwrap();
        let bs = bulk.stats("compute").unwrap();
        assert_eq!(ms.count(), bs.count());
        assert!((ms.mean() - bs.mean()).abs() < 1e-9);
        assert!((ms.stddev().unwrap() - bs.stddev().unwrap()).abs() < 1e-9);
    }
}
