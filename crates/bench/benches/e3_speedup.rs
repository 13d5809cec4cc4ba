//! Experiment E3 — speedup analysis cost (paper §5.2).
//!
//! Measures summarising a trial into per-event records, building the
//! per-routine min/mean/max speedup table and the application-level
//! Amdahl fit from those records over EVH1-style trial series, and the
//! trial diff/merge algebra. Expected shape: summarising grows with
//! routine count × thread count; the analyses over records grow with
//! routine count × trial count only, and stay interactive (well under a
//! second) at study scale. `PERFDMF_BENCH_QUICK` keeps the smallest size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perfdmf_analysis::SpeedupAnalysis;
use perfdmf_bench::sizes;
use perfdmf_profile::{EventAggregate, MetricId, Profile};
use perfdmf_workload::Evh1Model;

const METRIC: &str = "GET_TIME_OF_DAY";

fn records(p: &Profile) -> Vec<EventAggregate> {
    p.event_aggregates(p.find_metric(METRIC).expect("metric"))
}

/// Every metric of `p` with its records: one operand of the diff algebra.
fn summaries(p: &Profile) -> Vec<(String, Vec<EventAggregate>)> {
    (0..p.metrics().len())
        .map(|m| (p.metrics()[m].name.clone(), p.event_aggregates(MetricId(m))))
        .collect()
}

fn build_analysis(max_procs: usize) -> SpeedupAnalysis {
    let model = Evh1Model::default_mix(17);
    let mut analysis = SpeedupAnalysis::default();
    let mut p = 1usize;
    while p <= max_procs {
        analysis.add_trial(p, records(&model.generate(p)));
        p *= 2;
    }
    analysis
}

fn bench_event_aggregates(c: &mut Criterion) {
    let model = Evh1Model::default_mix(17);
    let mut group = c.benchmark_group("e3_event_aggregates");
    for procs in sizes(&[8, 32, 128]) {
        let profile = model.generate(procs);
        group.bench_with_input(BenchmarkId::from_parameter(procs), &profile, |b, p| {
            b.iter(|| records(p));
        });
    }
    group.finish();
}

fn bench_routine_speedups(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_routine_speedups");
    for max_procs in sizes(&[8, 32, 128]) {
        let analysis = build_analysis(max_procs);
        group.bench_with_input(BenchmarkId::from_parameter(max_procs), &analysis, |b, a| {
            b.iter(|| a.routine_speedups());
        });
    }
    group.finish();
}

fn bench_application_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_application_scaling");
    for max_procs in sizes(&[8, 32, 128]) {
        let analysis = build_analysis(max_procs);
        group.bench_with_input(BenchmarkId::from_parameter(max_procs), &analysis, |b, a| {
            b.iter(|| a.application_scaling().expect("scaling"));
        });
    }
    group.finish();
}

fn bench_comparison_algebra(c: &mut Criterion) {
    // the CUBE-style diff over two large trials
    let model = Evh1Model::default_mix(23);
    let a = summaries(&model.generate(64));
    let b_trial = summaries(&model.generate(128));
    let mut group = c.benchmark_group("e3_trial_diff");
    group.bench_function("diff_64_vs_128", |b| {
        b.iter(|| perfdmf_analysis::diff(&a, &b_trial));
    });
    group.bench_function("merge_64_128", |b| {
        b.iter(|| perfdmf_analysis::merge(&a, &b_trial));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_aggregates,
    bench_routine_speedups,
    bench_application_scaling,
    bench_comparison_algebra
);
criterion_main!(benches);
