//! Feature extraction: profiles → numeric matrices for data mining.
//!
//! PerfExplorer clusters *threads of execution* by their performance
//! behaviour: each thread becomes one row whose columns are per-event (or
//! per-metric) measurements. This module builds those matrices and offers
//! the standardization step (z-scores) that distance-based methods need.

use perfdmf_profile::{IntervalField, MetricId, Profile, ThreadId};

/// A feature matrix: one row per thread, one column per feature.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    /// Threads in row order.
    pub threads: Vec<ThreadId>,
    /// Column labels (event or metric names).
    pub columns: Vec<String>,
    /// Row-major data, `threads.len() × columns.len()`.
    pub rows: Vec<Vec<f64>>,
}

impl FeatureMatrix {
    /// Standardize each column to zero mean, unit variance (columns with
    /// zero variance become all-zero).
    pub fn standardize(&mut self) {
        let d = self.columns.len();
        let n = self.rows.len();
        if n == 0 {
            return;
        }
        for c in 0..d {
            let mean = self.rows.iter().map(|r| r[c]).sum::<f64>() / n as f64;
            let var = self
                .rows
                .iter()
                .map(|r| (r[c] - mean) * (r[c] - mean))
                .sum::<f64>()
                / n.max(2).saturating_sub(1) as f64;
            let sd = var.sqrt();
            for r in &mut self.rows {
                r[c] = if sd > 0.0 { (r[c] - mean) / sd } else { 0.0 };
            }
        }
    }
}

/// Thread × event matrix of one metric's values.
///
/// Missing (event, thread) combinations become 0.0 — a thread that never
/// calls a routine spent zero time in it.
pub fn thread_event_matrix(
    profile: &Profile,
    metric: MetricId,
    field: IntervalField,
) -> FeatureMatrix {
    let threads = profile.threads().to_vec();
    let columns: Vec<String> = profile.events().iter().map(|e| e.name.clone()).collect();
    let mut rows = vec![vec![0.0f64; columns.len()]; threads.len()];
    for (e, thread, d) in profile.iter_metric(metric) {
        let Some(tpos) = profile.thread_position(thread) else {
            continue;
        };
        rows[tpos][e.0] = field.of(d).unwrap_or(0.0);
    }
    FeatureMatrix {
        threads,
        columns,
        rows,
    }
}

/// Thread × metric matrix for one event (PAPI-counter behaviour vectors,
/// as in Ahn & Vetter's sPPM analysis).
pub fn thread_metric_matrix(
    profile: &Profile,
    event: perfdmf_profile::EventId,
    field: IntervalField,
) -> FeatureMatrix {
    let threads = profile.threads().to_vec();
    let columns: Vec<String> = profile.metrics().iter().map(|m| m.name.clone()).collect();
    let mut rows = vec![vec![0.0f64; columns.len()]; threads.len()];
    for (mi, _) in profile.metrics().iter().enumerate() {
        for (tpos, &thread) in threads.iter().enumerate() {
            if let Some(d) = profile.interval(event, thread, MetricId(mi)) {
                rows[tpos][mi] = field.of(d).unwrap_or(0.0);
            }
        }
    }
    FeatureMatrix {
        threads,
        columns,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf_profile::{IntervalData, IntervalEvent, Metric};

    fn sample() -> Profile {
        let mut p = Profile::new("t");
        let time = p.add_metric(Metric::measured("TIME"));
        let fp = p.add_metric(Metric::measured("PAPI_FP_OPS"));
        let a = p.add_event(IntervalEvent::ungrouped("a"));
        let b = p.add_event(IntervalEvent::ungrouped("b"));
        p.add_threads((0..3).map(|n| ThreadId::new(n, 0, 0)));
        for (i, &t) in p.threads().to_vec().iter().enumerate() {
            p.set_interval(
                a,
                t,
                time,
                IntervalData::new(10.0 * (i + 1) as f64, 10.0 * (i + 1) as f64, 1.0, 0.0),
            );
            p.set_interval(a, t, fp, IntervalData::new(1e6, 1e6, 1.0, 0.0));
        }
        // event b only on thread 2
        p.set_interval(
            b,
            ThreadId::new(2, 0, 0),
            time,
            IntervalData::new(5.0, 5.0, 1.0, 0.0),
        );
        p
    }

    #[test]
    fn thread_event_matrix_shape_and_missing() {
        let p = sample();
        let m = p.find_metric("TIME").unwrap();
        let fm = thread_event_matrix(&p, m, IntervalField::Exclusive);
        assert_eq!(fm.threads.len(), 3);
        assert_eq!(fm.columns, vec!["a", "b"]);
        assert_eq!(fm.rows[0], vec![10.0, 0.0]);
        assert_eq!(fm.rows[2], vec![30.0, 5.0]);
    }

    #[test]
    fn thread_metric_matrix_shape() {
        let p = sample();
        let a = p.find_event("a").unwrap();
        let fm = thread_metric_matrix(&p, a, IntervalField::Exclusive);
        assert_eq!(fm.columns, vec!["TIME", "PAPI_FP_OPS"]);
        assert_eq!(fm.rows[1], vec![20.0, 1e6]);
    }

    #[test]
    fn standardize_zero_mean_unit_variance() {
        let p = sample();
        let m = p.find_metric("TIME").unwrap();
        let mut fm = thread_event_matrix(&p, m, IntervalField::Exclusive);
        fm.standardize();
        let col0: Vec<f64> = fm.rows.iter().map(|r| r[0]).collect();
        let mean: f64 = col0.iter().sum::<f64>() / 3.0;
        assert!(mean.abs() < 1e-12);
        let var: f64 = col0.iter().map(|x| x * x).sum::<f64>() / 2.0;
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn standardize_constant_column_is_zero() {
        let p = sample();
        let a = p.find_event("a").unwrap();
        let mut fm = thread_metric_matrix(&p, a, IntervalField::Exclusive);
        fm.standardize();
        // PAPI column was constant
        assert!(fm.rows.iter().all(|r| r[1] == 0.0));
    }
}
