//! Speedup and scalability analysis (paper §5.2).
//!
//! "Given performance data from experiments with varying numbers of
//! processors, the tool automatically calculates the minimum, mean and
//! maximum values for the speedup \[of\] every profiled routine."
//!
//! [`SpeedupAnalysis`] consumes one trial per processor count, as the
//! per-event [`EventAggregate`] records of the analysed metric (from the
//! DBMS or [`Profile::event_aggregates`](perfdmf_profile::Profile::event_aggregates)),
//! and produces per-routine min/mean/max speedup curves relative to the
//! smallest trial, plus whole-application speedup/efficiency and an
//! Amdahl serial-fraction fit. Every mean is the record's: over the
//! threads that recorded the event, as SQL `AVG` computes it.

use crate::report::truncate;
use crate::stats::linear_fit;
use perfdmf_profile::EventAggregate;
use std::collections::BTreeMap;

/// Speedup of one routine at one processor count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupPoint {
    /// Processor count of this trial.
    pub processors: usize,
    /// Speedup of the thread with the *least* improvement.
    pub min: f64,
    /// Mean speedup across threads.
    pub mean: f64,
    /// Speedup of the thread with the *most* improvement.
    pub max: f64,
}

/// Per-routine speedup curve.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutineSpeedup {
    /// Routine (interval event) name.
    pub event: String,
    /// One point per trial, ordered by processor count.
    pub points: Vec<SpeedupPoint>,
}

/// Whole-application scalability result.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationScaling {
    /// (processors, speedup, efficiency) per trial.
    pub points: Vec<(usize, f64, f64)>,
    /// Estimated Amdahl serial fraction (`None` if the fit is degenerate).
    pub amdahl_serial_fraction: Option<f64>,
}

/// Multi-trial speedup analyzer.
#[derive(Debug, Default)]
pub struct SpeedupAnalysis {
    /// (processors, per-event records), sorted by processors.
    trials: Vec<(usize, Vec<EventAggregate>)>,
}

impl SpeedupAnalysis {
    /// Add one trial: its per-event records of the analysed metric (e.g.
    /// `TIME`).
    pub fn add_trial(&mut self, processors: usize, events: Vec<EventAggregate>) {
        self.trials.push((processors, events));
        self.trials.sort_by_key(|(p, _)| *p);
    }

    /// Number of trials added.
    pub fn trial_count(&self) -> usize {
        self.trials.len()
    }

    /// Mean total time of the application in a trial: the mean inclusive
    /// value of the event with the largest one (the root).
    fn app_time(events: &[EventAggregate]) -> Option<f64> {
        events
            .iter()
            .filter_map(|a| a.mean_inclusive)
            .reduce(f64::max)
    }

    /// Per-routine min/mean/max speedup relative to the smallest trial.
    ///
    /// Speedup of routine r at p processors = mean_exclusive(r, base) /
    /// {max, mean, min}_exclusive(r, p): dividing the baseline by the
    /// slowest thread gives the min speedup, by the fastest the max.
    /// Routines absent from a trial are skipped for that trial.
    pub fn routine_speedups(&self) -> Vec<RoutineSpeedup> {
        let Some((_, base)) = self.trials.first() else {
            return Vec::new();
        };
        // Baseline mean exclusive per routine name.
        let baseline: BTreeMap<&str, f64> = base
            .iter()
            .filter_map(|a| Some((a.event_name.as_str(), a.mean_exclusive?)))
            .filter(|&(_, mean)| mean > 0.0)
            .collect();
        let mut out: BTreeMap<&str, RoutineSpeedup> = BTreeMap::new();
        for (procs, events) in &self.trials {
            for a in events {
                let Some(&base_mean) = baseline.get(a.event_name.as_str()) else {
                    continue;
                };
                let (Some(min), Some(mean), Some(max)) =
                    (a.min_exclusive, a.mean_exclusive, a.max_exclusive)
                else {
                    continue;
                };
                if min <= 0.0 {
                    continue;
                }
                let entry = out.entry(&a.event_name).or_insert_with(|| RoutineSpeedup {
                    event: a.event_name.clone(),
                    points: Vec::new(),
                });
                entry.points.push(SpeedupPoint {
                    processors: *procs,
                    min: base_mean / max,
                    mean: base_mean / mean,
                    max: base_mean / min,
                });
            }
        }
        out.into_values().collect()
    }

    /// Whole-application speedup, efficiency, and Amdahl fit.
    ///
    /// With baseline processors `p0`, speedup(p) = T(p0)/T(p) and
    /// efficiency(p) = speedup·p0/p. The Amdahl serial fraction `s` is
    /// fit from T(p) ≈ T1·(s + (1−s)/(p/p0)) by least squares on
    /// T(p)/T(p0) vs p0/p.
    pub fn application_scaling(&self) -> Option<ApplicationScaling> {
        let (p0, base) = self.trials.first()?;
        let t0 = Self::app_time(base)?;
        if t0 <= 0.0 {
            return None;
        }
        let mut points = Vec::with_capacity(self.trials.len());
        let mut xs = Vec::new(); // p0/p
        let mut ys = Vec::new(); // T(p)/T(p0)
        for (p, events) in &self.trials {
            let t = Self::app_time(events)?;
            let speedup = t0 / t;
            let efficiency = speedup * *p0 as f64 / *p as f64;
            points.push((*p, speedup, efficiency));
            xs.push(*p0 as f64 / *p as f64);
            ys.push(t / t0);
        }
        // Amdahl: T(p)/T(p0) = s + (1-s)·(p0/p) → intercept = s.
        let amdahl_serial_fraction = linear_fit(&xs, &ys)
            .map(|f| f.intercept.clamp(0.0, 1.0))
            .filter(|_| xs.len() >= 3);
        Some(ApplicationScaling {
            points,
            amdahl_serial_fraction,
        })
    }

    /// Format a report table (min/mean/max per routine per trial).
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<32} {:>8} {:>10} {:>10} {:>10}\n",
            "routine", "procs", "min", "mean", "max"
        ));
        for r in self.routine_speedups() {
            for pt in &r.points {
                out.push_str(&format!(
                    "{:<32} {:>8} {:>10.3} {:>10.3} {:>10.3}\n",
                    truncate(&r.event, 32),
                    pt.processors,
                    pt.min,
                    pt.mean,
                    pt.max
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf_profile::{IntervalData, IntervalEvent, Metric, MetricId, Profile, ThreadId};

    /// Records of the profile's only metric.
    fn records(p: &Profile) -> Vec<EventAggregate> {
        p.event_aggregates(MetricId(0))
    }

    /// Perfect-scaling profile: per-thread exclusive time = total/p.
    fn trial(procs: usize, total_work: f64, serial: f64) -> Profile {
        let mut p = Profile::new(format!("p{procs}"));
        let m = p.add_metric(Metric::measured("TIME"));
        let par = p.add_event(IntervalEvent::new("parallel_loop", "COMP"));
        let ser = p.add_event(IntervalEvent::new("serial_setup", "COMP"));
        let root = p.add_event(IntervalEvent::new("main", "COMP"));
        p.add_threads((0..procs as u32).map(|n| ThreadId::new(n, 0, 0)));
        let per = total_work / procs as f64;
        for &t in p.threads().to_vec().iter() {
            p.set_interval(par, t, m, IntervalData::new(per, per, 1.0, 0.0));
            p.set_interval(ser, t, m, IntervalData::new(serial, serial, 1.0, 0.0));
            p.set_interval(root, t, m, IntervalData::new(per + serial, 0.0, 1.0, 2.0));
        }
        p
    }

    fn analysis() -> SpeedupAnalysis {
        let mut a = SpeedupAnalysis::default();
        for procs in [1usize, 2, 4, 8] {
            a.add_trial(procs, records(&trial(procs, 100.0, 5.0)));
        }
        a
    }

    #[test]
    fn routine_speedup_perfect_vs_serial() {
        let a = analysis();
        let routines = a.routine_speedups();
        let par = routines
            .iter()
            .find(|r| r.event == "parallel_loop")
            .unwrap();
        assert_eq!(par.points.len(), 4);
        // parallel loop: speedup == p
        for pt in &par.points {
            assert!((pt.mean - pt.processors as f64).abs() < 1e-9);
            assert!((pt.min - pt.mean).abs() < 1e-9, "no thread imbalance");
        }
        let ser = routines.iter().find(|r| r.event == "serial_setup").unwrap();
        for pt in &ser.points {
            assert!((pt.mean - 1.0).abs() < 1e-9, "serial part never speeds up");
        }
    }

    #[test]
    fn application_scaling_and_amdahl() {
        let a = analysis();
        let s = a.application_scaling().unwrap();
        assert_eq!(s.points.len(), 4);
        let (p, speedup, eff) = s.points[3];
        assert_eq!(p, 8);
        // T(1)=105, T(8)=17.5 → speedup = 6
        assert!((speedup - 6.0).abs() < 1e-9);
        assert!((eff - 0.75).abs() < 1e-9);
        // true serial fraction = 5/105 ≈ 0.0476
        let s_frac = s.amdahl_serial_fraction.unwrap();
        assert!((s_frac - 5.0 / 105.0).abs() < 1e-6, "{s_frac}");
    }

    #[test]
    fn imbalanced_threads_split_min_max() {
        let mut a = SpeedupAnalysis::default();
        a.add_trial(1, records(&trial(1, 100.0, 0.0)));
        // 2-proc trial with imbalance: thread0 60, thread1 40
        let mut p = Profile::new("p2");
        let m = p.add_metric(Metric::measured("TIME"));
        let e = p.add_event(IntervalEvent::new("parallel_loop", "COMP"));
        p.add_threads([ThreadId::new(0, 0, 0), ThreadId::new(1, 0, 0)]);
        p.set_interval(
            e,
            ThreadId::new(0, 0, 0),
            m,
            IntervalData::new(60.0, 60.0, 1.0, 0.0),
        );
        p.set_interval(
            e,
            ThreadId::new(1, 0, 0),
            m,
            IntervalData::new(40.0, 40.0, 1.0, 0.0),
        );
        a.add_trial(2, records(&p));
        let routines = a.routine_speedups();
        let r = routines
            .iter()
            .find(|r| r.event == "parallel_loop")
            .unwrap();
        let pt = r.points.iter().find(|p| p.processors == 2).unwrap();
        assert!((pt.min - 100.0 / 60.0).abs() < 1e-9);
        assert!((pt.max - 100.0 / 40.0).abs() < 1e-9);
        assert!((pt.mean - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_analysis_is_graceful() {
        let a = SpeedupAnalysis::default();
        assert!(a.routine_speedups().is_empty());
        assert!(a.application_scaling().is_none());
        assert_eq!(a.trial_count(), 0);
    }

    #[test]
    fn report_renders() {
        let a = analysis();
        let rep = a.report();
        assert!(rep.contains("parallel_loop"));
        assert!(rep.contains("routine"));
        assert!(rep.lines().count() > 8);
    }
}
