//! Synthetic workload models.
//!
//! Stand-ins for the paper's datasets (EVH1 scalability runs, the ASCI
//! sPPM/SMG2000/SPhot counter studies, and the Miranda BG/L runs at 8K
//! and 16K processors). Each model generates ground-truth [`Profile`]s
//! from a seeded RNG so every experiment is reproducible, with the
//! statistical *shape* of the original workload:
//!
//! * [`Evh1Model`] — an Amdahl-style hydrodynamics code: per-routine
//!   parallel fractions, MPI communication growing with scale, per-thread
//!   noise and imbalance.
//! * [`SppmModel`] — threads carrying PAPI counter vectors with planted
//!   behaviour classes, reproducing the structure behind Ahn & Vetter's
//!   sPPM floating-point clustering result (paper §5.3).
//! * [`MirandaModel`] — the scale test: ~101 events × N processors × one
//!   wall-clock metric (1.6M data points at 16K).

use perfdmf_profile::{AtomicEvent, IntervalData, IntervalEvent, Metric, Profile, ThreadId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A routine in the EVH1-style model.
#[derive(Debug, Clone)]
pub struct RoutineSpec {
    /// Routine name.
    pub name: String,
    /// Event group (`COMPUTE`, `MPI`, `IO`...).
    pub group: String,
    /// Time at 1 processor (seconds).
    pub base_time: f64,
    /// Fraction of the routine that parallelizes (0 = serial, 1 = perfect).
    pub parallel_fraction: f64,
    /// Per-processor overhead factor: extra time ∝ log2(p) · overhead.
    pub comm_overhead: f64,
    /// Calls per run.
    pub calls: f64,
}

/// EVH1-style scalability workload (paper §5.2).
#[derive(Debug, Clone)]
pub struct Evh1Model {
    /// Routine mix.
    pub routines: Vec<RoutineSpec>,
    /// Relative per-thread noise (0.02 = ±2%).
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Evh1Model {
    /// The default EVH1-like routine mix: ~40 routines dominated by
    /// parallel hydro sweeps, a serial setup, and MPI exchange routines
    /// whose share grows with scale.
    pub fn default_mix(seed: u64) -> Self {
        let mut routines = Vec::new();
        routines.push(RoutineSpec {
            name: "init_grid".into(),
            group: "SETUP".into(),
            base_time: 4.0,
            parallel_fraction: 0.0,
            comm_overhead: 0.0,
            calls: 1.0,
        });
        for dim in ["x", "y", "z"] {
            for stage in 1..=10 {
                routines.push(RoutineSpec {
                    name: format!("sweep_{dim}_stage{stage}"),
                    group: "COMPUTE".into(),
                    base_time: 6.0 + stage as f64 * 0.5,
                    parallel_fraction: 0.995,
                    comm_overhead: 0.0,
                    calls: 100.0,
                });
            }
        }
        for op in [
            "MPI_Send()",
            "MPI_Recv()",
            "MPI_Allreduce()",
            "MPI_Barrier()",
        ] {
            routines.push(RoutineSpec {
                name: op.into(),
                group: "MPI".into(),
                base_time: 0.5,
                parallel_fraction: 0.2,
                comm_overhead: 0.35,
                calls: 400.0,
            });
        }
        for io in ["write_checkpoint", "read_input"] {
            routines.push(RoutineSpec {
                name: io.into(),
                group: "IO".into(),
                base_time: 1.5,
                parallel_fraction: 0.5,
                comm_overhead: 0.05,
                calls: 4.0,
            });
        }
        Evh1Model {
            routines,
            noise: 0.03,
            seed,
        }
    }

    /// Analytic per-thread time of one routine at `procs` processors
    /// (before noise): Amdahl split plus logarithmic communication growth.
    pub fn expected_time(&self, spec: &RoutineSpec, procs: usize) -> f64 {
        let p = procs as f64;
        let serial = spec.base_time * (1.0 - spec.parallel_fraction);
        let parallel = spec.base_time * spec.parallel_fraction / p;
        let comm = spec.base_time * spec.comm_overhead * (p.log2().max(0.0)) / 4.0;
        serial + parallel + comm
    }

    /// Generate one trial at `procs` processors.
    pub fn generate(&self, procs: usize) -> Profile {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (procs as u64).wrapping_mul(0x9e3779b9));
        let mut profile = Profile::new(format!("evh1.p{procs}"));
        profile.source_format = "tau".into();
        profile
            .metadata
            .push(("processors".into(), procs.to_string()));
        let metric = profile.add_metric(Metric::measured("GET_TIME_OF_DAY"));
        let main = profile.add_event(IntervalEvent::new("main", "TAU_USER"));
        let event_ids: Vec<_> = self
            .routines
            .iter()
            .map(|r| profile.add_event(IntervalEvent::new(r.name.clone(), r.group.clone())))
            .collect();
        profile.add_threads((0..procs as u32).map(|n| ThreadId::new(n, 0, 0)));
        let threads = profile.threads().to_vec();
        for &thread in &threads {
            let mut total = 0.0;
            for (spec, &event) in self.routines.iter().zip(&event_ids) {
                let expected = self.expected_time(spec, procs);
                let noisy = expected * (1.0 + rng.gen_range(-self.noise..self.noise));
                total += noisy;
                profile.set_interval(
                    event,
                    thread,
                    metric,
                    IntervalData::new(noisy, noisy, spec.calls, 0.0),
                );
            }
            profile.set_interval(
                main,
                thread,
                metric,
                IntervalData::new(total * 1.0001, 0.0, 1.0, self.routines.len() as f64),
            );
        }
        profile.recompute_derived_fields(metric);
        profile
    }
}

/// One behaviour class in the sPPM counter model.
#[derive(Debug, Clone)]
pub struct BehaviorClass {
    /// Class label for reporting.
    pub name: String,
    /// Mean value per metric (same order as [`SppmModel::metrics`]).
    pub metric_means: Vec<f64>,
    /// Relative spread within the class.
    pub spread: f64,
}

/// sPPM-style hardware-counter workload with planted thread classes
/// (paper §5.3 / Ahn & Vetter).
#[derive(Debug, Clone)]
pub struct SppmModel {
    /// PAPI metric names (up to the paper's "7 PAPI hardware counters").
    pub metrics: Vec<String>,
    /// Planted classes.
    pub classes: Vec<BehaviorClass>,
    /// RNG seed.
    pub seed: u64,
}

impl SppmModel {
    /// Default: 7 PAPI counters, 3 behaviour classes (distinct
    /// floating-point intensity — the structure Ahn & Vetter surfaced).
    pub fn default_classes(seed: u64) -> Self {
        let metrics: Vec<String> = [
            "PAPI_FP_OPS",
            "PAPI_TOT_CYC",
            "PAPI_TOT_INS",
            "PAPI_L1_DCM",
            "PAPI_L2_DCM",
            "PAPI_TLB_DM",
            "PAPI_BR_MSP",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let classes = vec![
            BehaviorClass {
                name: "fp-intensive interior".into(),
                metric_means: vec![9.0e9, 1.2e10, 1.0e10, 2.0e7, 4.0e6, 9.0e5, 1.1e6],
                spread: 0.05,
            },
            BehaviorClass {
                name: "boundary exchange".into(),
                metric_means: vec![2.5e9, 1.1e10, 8.0e9, 6.0e7, 2.2e7, 3.0e6, 4.0e6],
                spread: 0.05,
            },
            BehaviorClass {
                name: "io / coordination".into(),
                metric_means: vec![4.0e8, 9.0e9, 5.0e9, 1.2e8, 5.0e7, 8.0e6, 9.0e6],
                spread: 0.08,
            },
        ];
        SppmModel {
            metrics,
            classes,
            seed,
        }
    }

    /// Generate a trial with `threads` threads split over the classes in
    /// the given proportions (must sum to ≤ 1; remainder goes to class 0).
    /// Returns the profile and the planted class label per thread.
    pub fn generate(&self, threads: usize, proportions: &[f64]) -> (Profile, Vec<usize>) {
        assert_eq!(proportions.len(), self.classes.len());
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut profile = Profile::new(format!("sppm.t{threads}"));
        profile.source_format = "tau".into();
        let metric_ids: Vec<_> = self
            .metrics
            .iter()
            .map(|m| profile.add_metric(Metric::measured(m.clone())))
            .collect();
        let event = profile.add_event(IntervalEvent::new("sppm_timestep", "COMPUTE"));
        profile.add_threads((0..threads as u32).map(|n| ThreadId::new(n, 0, 0)));
        // class boundaries
        let mut boundaries = Vec::with_capacity(self.classes.len());
        let mut acc = 0.0;
        for p in proportions {
            acc += p;
            boundaries.push((acc * threads as f64).round() as usize);
        }
        let mut labels = Vec::with_capacity(threads);
        let thread_ids = profile.threads().to_vec();
        for (t, &thread) in thread_ids.iter().enumerate() {
            let class = boundaries.iter().position(|&b| t < b).unwrap_or(0);
            labels.push(class);
            let spec = &self.classes[class];
            for (mi, &metric) in metric_ids.iter().enumerate() {
                let mean = spec.metric_means[mi];
                let v = mean * (1.0 + rng.gen_range(-spec.spread..spec.spread));
                profile.set_interval(event, thread, metric, IntervalData::new(v, v, 100.0, 0.0));
            }
        }
        // an atomic event for message sizes, to exercise that path
        let ae = profile.add_atomic_event(AtomicEvent::new(
            "Message size sent to all nodes",
            "TAU_EVENT",
        ));
        for &thread in &thread_ids {
            for _ in 0..8 {
                let size = 2f64.powi(rng.gen_range(6..18));
                profile.record_atomic(ae, thread, size);
            }
        }
        (profile, labels)
    }
}

/// Miranda-style scale workload (paper §5.3: 101 events, 8K/16K
/// processors, one wall-clock metric, 1.6M data points at 16K).
#[derive(Debug, Clone)]
pub struct MirandaModel {
    /// Number of instrumented events ("Over one hundred events").
    pub events: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MirandaModel {
    fn default() -> Self {
        MirandaModel {
            events: 101,
            seed: 0x4d49_5241,
        }
    }
}

impl MirandaModel {
    /// Generate a trial at `procs` processors. Data points = events × procs.
    pub fn generate(&self, procs: usize) -> Profile {
        let mut rng = StdRng::seed_from_u64(self.seed ^ procs as u64);
        let mut profile = Profile::new(format!("miranda.p{procs}"));
        profile.source_format = "tau".into();
        let metric = profile.add_metric(Metric::measured("WALL_CLOCK"));
        let event_ids: Vec<_> = (0..self.events)
            .map(|i| {
                let (name, group) = if i == 0 {
                    ("main".to_string(), "TAU_USER")
                } else if i % 5 == 0 {
                    (format!("MPI_Routine_{i}()"), "MPI")
                } else {
                    (format!("miranda_kernel_{i}"), "COMPUTE")
                };
                profile.add_event(IntervalEvent::new(name, group))
            })
            .collect();
        profile.add_threads((0..procs as u32).map(|n| ThreadId::new(n, 0, 0)));
        let threads = profile.threads().to_vec();
        let base: Vec<f64> = (0..self.events)
            .map(|i| {
                if i == 0 {
                    0.0
                } else {
                    50.0 / (i as f64).sqrt()
                }
            })
            .collect();
        for &thread in &threads {
            let mut total = 0.0;
            for (i, &event) in event_ids.iter().enumerate().skip(1) {
                let v = base[i] * (1.0 + rng.gen_range(-0.1..0.1f64));
                total += v;
                profile.set_interval(
                    event,
                    thread,
                    metric,
                    IntervalData::new(v, v, (i % 17 + 1) as f64 * 10.0, 0.0),
                );
            }
            profile.set_interval(
                event_ids[0],
                thread,
                metric,
                IntervalData::new(total * 1.0001, 0.0, 1.0, (self.events - 1) as f64),
            );
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evh1_scales_like_amdahl() {
        let model = Evh1Model::default_mix(42);
        let p1 = model.generate(1);
        let p8 = model.generate(8);
        assert_eq!(p1.threads().len(), 1);
        assert_eq!(p8.threads().len(), 8);
        assert!(p1.validate().is_empty(), "{:?}", p1.validate());
        // Mean exclusive time of one routine across threads.
        let mean = |p: &Profile, event: &str| {
            let aggs = p.event_aggregates(p.find_metric("GET_TIME_OF_DAY").unwrap());
            let a = aggs.into_iter().find(|a| a.event_name == event).unwrap();
            a.mean_exclusive.unwrap()
        };
        // a compute sweep speeds up nearly 8x; the serial setup does not
        let speedup = mean(&p1, "sweep_x_stage1") / mean(&p8, "sweep_x_stage1");
        assert!(speedup > 6.0 && speedup < 9.0, "sweep speedup {speedup}");
        let serial_speedup = mean(&p1, "init_grid") / mean(&p8, "init_grid");
        assert!(serial_speedup < 1.2, "serial speedup {serial_speedup}");
        // MPI time grows with scale
        assert!(mean(&p8, "MPI_Allreduce()") > mean(&p1, "MPI_Allreduce()"));
    }

    #[test]
    fn evh1_reproducible() {
        let model = Evh1Model::default_mix(7);
        let a = model.generate(4);
        let b = model.generate(4);
        let m = a.find_metric("GET_TIME_OF_DAY").unwrap();
        let e = a.find_event("sweep_y_stage3").unwrap();
        let t = ThreadId::new(2, 0, 0);
        assert_eq!(
            a.interval(e, t, m).unwrap().exclusive(),
            b.interval(e, t, m).unwrap().exclusive()
        );
    }

    #[test]
    fn sppm_plants_separable_classes() {
        let model = SppmModel::default_classes(11);
        let (profile, labels) = model.generate(96, &[0.5, 0.3, 0.2]);
        assert_eq!(profile.threads().len(), 96);
        assert_eq!(labels.len(), 96);
        assert_eq!(profile.metrics().len(), 7);
        // class sizes roughly match proportions
        let c0 = labels.iter().filter(|&&l| l == 0).count();
        assert!((40..=56).contains(&c0), "c0 = {c0}");
        // fp-ops separate class 0 from class 2 by construction
        let fp = profile.find_metric("PAPI_FP_OPS").unwrap();
        let e = profile.find_event("sppm_timestep").unwrap();
        let t0 = profile.threads()[0];
        let t_last = *profile.threads().last().unwrap();
        let v0 = profile.interval(e, t0, fp).unwrap().exclusive().unwrap();
        let v2 = profile
            .interval(e, t_last, fp)
            .unwrap()
            .exclusive()
            .unwrap();
        assert!(v0 > 5.0 * v2);
        // atomic samples recorded
        assert_eq!(profile.atomic_events().len(), 1);
        assert!(profile.iter_atomic().count() == 96);
    }

    #[test]
    fn miranda_data_point_count() {
        let model = MirandaModel {
            events: 101,
            seed: 1,
        };
        let p = model.generate(64);
        assert_eq!(p.threads().len(), 64);
        assert_eq!(p.events().len(), 101);
        assert_eq!(p.data_point_count(), 101 * 64);
        assert!(p.validate().is_empty());
        // scaled to 16K this is the paper's 1.6M figure:
        assert_eq!(101 * 16384, 1_654_784);
    }
}
