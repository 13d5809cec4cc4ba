//! The performance-regression watchdog: compare a candidate trial (or any
//! named set of timings) against an archive baseline and flag routines
//! that got meaningfully slower.
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

use perfdmf_profile::{AtomicData, Profile};
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

    /// Fold one archive trial into the baseline: each interval event
    /// contributes its mean exclusive value across threads as one sample.
    pub fn add_profile(&mut self, profile: &Profile) {
        for (event, sample) in routine_samples(profile, &self.metric) {
            self.record(&event, sample);
        }
    }

    /// Build a baseline from a set of archive trials.
    pub fn from_profiles<'a>(
        metric: impl Into<String>,
        profiles: impl IntoIterator<Item = &'a Profile>,
    ) -> Self {
        let mut b = Baseline::new(metric);
        for p in profiles {
            b.add_profile(p);
        }
        b
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

/// Per-routine candidate samples of a trial: the mean exclusive value
/// across threads of every interval event carrying data under `metric`.
pub fn routine_samples(profile: &Profile, metric: &str) -> Vec<(String, f64)> {
    let Some(mid) = profile.find_metric(metric) else {
        return Vec::new();
    };
    let mut sums: BTreeMap<usize, (f64, u64)> = BTreeMap::new();
    for (event, _thread, data) in profile.iter_metric(mid) {
        if let Some(x) = data.exclusive() {
            let e = sums.entry(event.0).or_insert((0.0, 0));
            e.0 += x;
            e.1 += 1;
        }
    }
    sums.into_iter()
        .map(|(eid, (sum, n))| (profile.events()[eid].name.clone(), sum / (n.max(1)) as f64))
        .collect()
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
/// flagged finding to the global regression log. `context` describes
/// the comparison for the log, e.g. `"trial 7 vs experiment 1 baseline"`.
pub fn check_samples(
    baseline: &Baseline,
    samples: &[(String, f64)],
    config: &WatchdogConfig,
    context: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (event, candidate) in samples {
        let Some(stats) = baseline.stats(event) else {
            continue; // new routine: nothing to compare against
        };
        if let Some(finding) = judge(event, &baseline.metric, stats, *candidate, config) {
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

/// Compare a candidate trial's per-routine profile against the baseline.
/// The watchdog entry point for new-trial-vs-archive checks.
pub fn check_profile(
    baseline: &Baseline,
    candidate: &Profile,
    config: &WatchdogConfig,
    context: &str,
) -> Vec<Finding> {
    let samples = routine_samples(candidate, baseline.metric());
    check_samples(baseline, &samples, config, context)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf_profile::{IntervalData, IntervalEvent, Metric, ThreadId};

    fn trial(scale: f64) -> Profile {
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

    #[test]
    fn flags_synthetic_two_x_slowdown() {
        // Baseline: four trials with ±2% jitter. Candidate: compute 2×.
        let baseline =
            Baseline::from_profiles("TIME", &[trial(0.98), trial(1.0), trial(1.01), trial(1.02)]);
        let mut candidate = trial(1.0);
        let m = candidate.find_metric("TIME").unwrap();
        let e = candidate.find_event("compute").unwrap();
        candidate.set_interval(
            e,
            ThreadId::ZERO,
            m,
            IntervalData::new(200.0, 200.0, 1.0, 0.0),
        );
        let findings = check_profile(&baseline, &candidate, &WatchdogConfig::default(), "test 2x");
        assert_eq!(findings.len(), 1, "only the slowed routine is flagged");
        let f = &findings[0];
        assert_eq!(f.event, "compute");
        assert!((f.ratio - 2.0).abs() < 0.05, "ratio ≈ 2, got {}", f.ratio);
        assert!(f.zscore.unwrap() > 3.0);
        // The finding landed in the global regression log.
        let logged = telemetry::regressions::log();
        assert!(logged
            .iter()
            .any(|r| r.context == "test 2x" && r.event == "compute"));
    }

    #[test]
    fn steady_trial_is_not_flagged() {
        let baseline = Baseline::from_profiles("TIME", &[trial(0.98), trial(1.0), trial(1.02)]);
        let findings = check_profile(
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
        let baseline = Baseline::from_profiles("TIME", &[trial(1.0), trial(1.0)]);
        let findings = check_profile(
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
        let samples = vec![("thin".to_string(), 10.0), ("new".to_string(), 10.0)];
        let findings = check_samples(&baseline, &samples, &WatchdogConfig::default(), "skip");
        assert!(findings.is_empty());
    }

    #[test]
    fn merge_matches_bulk_construction() {
        let a = Baseline::from_profiles("TIME", &[trial(0.9), trial(1.0)]);
        let b = Baseline::from_profiles("TIME", &[trial(1.1), trial(1.2)]);
        let mut merged = a.clone();
        merged.merge(&b);
        let bulk =
            Baseline::from_profiles("TIME", &[trial(0.9), trial(1.0), trial(1.1), trial(1.2)]);
        let ms = merged.stats("compute").unwrap();
        let bs = bulk.stats("compute").unwrap();
        assert_eq!(ms.count(), bs.count());
        assert!((ms.mean() - bs.mean()).abs() < 1e-9);
        assert!((ms.stddev().unwrap() - bs.stddev().unwrap()).abs() < 1e-9);
    }
}
