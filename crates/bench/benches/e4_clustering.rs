//! Experiment E4 — PerfExplorer cluster analysis (paper §5.3).
//!
//! Measures k-means over sPPM-like thread×counter data at growing thread
//! counts, the silhouette-based k selection, and PCA reduction. Expected
//! shape: the assignment-dominated k-means cost grows ~linearly in
//! threads (a serial Lloyd loop, O(n·k·d) per iteration); silhouette
//! (O(n²)) is the k-selection cost ceiling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use perfdmf_analysis::{kmeans, pca, select_k, thread_metric_matrix};
use perfdmf_bench::blob_data;
use perfdmf_profile::IntervalField;
use perfdmf_workload::SppmModel;

fn bench_kmeans_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_kmeans");
    group.sample_size(20);
    for threads in [256usize, 1024, 4096] {
        let (data, _) = blob_data(threads, 7, 3, 5);
        group.throughput(Throughput::Elements(threads as u64));
        group.bench_with_input(BenchmarkId::from_parameter(threads), &data, |b, d| {
            b.iter(|| kmeans(d, 3, 42, 100));
        });
    }
    group.finish();
}

fn bench_k_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_select_k");
    group.sample_size(10);
    for threads in [128usize, 256, 512] {
        let (data, _) = blob_data(threads, 7, 3, 9);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &data, |b, d| {
            b.iter(|| select_k(d, 2..=6, 1));
        });
    }
    group.finish();
}

fn bench_feature_extraction(c: &mut Criterion) {
    let model = SppmModel::default_classes(3);
    let mut group = c.benchmark_group("e4_features");
    for threads in [512usize, 2048] {
        let (profile, _) = model.generate(threads, &[0.5, 0.3, 0.2]);
        let event = profile.find_event("sppm_timestep").expect("event");
        group.throughput(Throughput::Elements(threads as u64));
        group.bench_with_input(BenchmarkId::from_parameter(threads), &(), |b, _| {
            b.iter(|| {
                let mut fm = thread_metric_matrix(&profile, event, IntervalField::Exclusive);
                fm.standardize();
                fm
            });
        });
    }
    group.finish();
}

fn bench_pca(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_pca");
    for (n, d) in [(512usize, 7usize), (512, 32), (2048, 7)] {
        let (data, _) = blob_data(n, d, 3, 13);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}x{d}")),
            &data,
            |b, data| {
                b.iter(|| {
                    let p = pca(data).expect("pca");
                    p.transform(data, 2)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kmeans_scaling,
    bench_k_selection,
    bench_feature_extraction,
    bench_pca
);
criterion_main!(benches);
