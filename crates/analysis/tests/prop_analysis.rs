//! Property tests for the analysis toolkit.

use perfdmf_analysis::{
    adjusted_rand_index, amdahl_speedup, fit_amdahl, hierarchical, kmeans, pca, pearson, select_k,
    silhouette_score, silhouettes, summarize,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_matrix() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (2usize..5, 4usize..40).prop_flat_map(|(d, n)| {
        proptest::collection::vec(proptest::collection::vec(-1e3f64..1e3, d), n)
    })
}

/// One clustering's silhouette scored on its own, a row at a time: the
/// oracle every blocked pass of `silhouettes` must match bit for bit.
fn reference_silhouette(data: &[Vec<f64>], assignments: &[usize], k: usize) -> f64 {
    let sq_dist =
        |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
    let n = data.len();
    if n < 2 || k < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut counted = 0usize;
    for i in 0..n {
        let own = assignments[i];
        let mut sums = vec![0.0f64; k];
        let mut counts = vec![0usize; k];
        for j in 0..n {
            if i == j {
                continue;
            }
            let d = sq_dist(&data[i], &data[j]).sqrt();
            sums[assignments[j]] += d;
            counts[assignments[j]] += 1;
        }
        if counts[own] == 0 {
            continue;
        }
        let a = sums[own] / counts[own] as f64;
        let b = (0..k)
            .filter(|&c| c != own && counts[c] > 0)
            .map(|c| sums[c] / counts[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if !b.is_finite() {
            continue;
        }
        total += (b - a) / a.max(b);
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Assignments and their k.
type Clustering = (Vec<usize>, usize);

/// `silhouettes` of `clusterings`, each checked against the oracle.
fn assert_matches_reference(data: &[Vec<f64>], clusterings: &[Clustering]) {
    let borrowed: Vec<(&[usize], usize)> = clusterings
        .iter()
        .map(|(a, k)| (a.as_slice(), *k))
        .collect();
    let scores = silhouettes(data, &borrowed);
    assert_eq!(scores.len(), clusterings.len());
    for (c, ((assignments, k), score)) in clusterings.iter().zip(&scores).enumerate() {
        let want = reference_silhouette(data, assignments, *k);
        assert_eq!(
            score.to_bits(),
            want.to_bits(),
            "clustering {c} (k={k}): {score} vs {want}"
        );
    }
}

/// Rows with 0..30 entries and clusterings whose k runs past n, so they
/// hold singletons, empty clusters and labels beyond the row count.
fn arb_clusterings() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<Clustering>)> {
    (0usize..30, 1usize..4).prop_flat_map(|(n, d)| {
        let data = proptest::collection::vec(proptest::collection::vec(-1e3f64..1e3, d), n);
        let clustering =
            (1usize..n + 6).prop_flat_map(move |k| (proptest::collection::vec(0..k, n), Just(k)));
        (data, proptest::collection::vec(clustering, 0..8))
    })
}

/// 200 clusterings with k = 4096 over 64 rows, half with labels below 64
/// and half spread over the whole range, score like the oracle and fast.
#[test]
fn silhouettes_of_wide_clusterings_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(38);
    let data: Vec<Vec<f64>> = (0..64)
        .map(|_| (0..3).map(|_| rng.gen_range(-10.0..10.0)).collect())
        .collect();
    let k = 4096;
    let clusterings: Vec<Clustering> = (0..200)
        .map(|c| {
            let bound = if c % 2 == 0 { 64 } else { k };
            let labels: Vec<usize> = (0..1 + c % 7).map(|_| rng.gen_range(0..bound)).collect();
            let assignments = (0..64)
                .map(|_| labels[rng.gen_range(0..labels.len())])
                .collect();
            (assignments, k)
        })
        .collect();
    let borrowed: Vec<(&[usize], usize)> = clusterings
        .iter()
        .map(|(a, k)| (a.as_slice(), *k))
        .collect();
    let started = std::time::Instant::now();
    let scores = silhouettes(&data, &borrowed);
    let elapsed = started.elapsed();
    assert!(elapsed < std::time::Duration::from_secs(1), "{elapsed:?}");
    assert!(scores.iter().any(|&s| s != 0.0));
    assert_matches_reference(&data, &clusterings);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one-pass silhouette of every clustering has the bits of
    /// scoring that clustering alone, whatever its shape.
    #[test]
    fn silhouettes_match_the_reference((data, clusterings) in arb_clusterings()) {
        assert_matches_reference(&data, &clusterings);
    }

    /// `select_k` returns its winner's score, and it is the oracle's.
    #[test]
    fn select_k_score_is_the_winners(data in arb_matrix(), max_k in 2usize..6, seed in 0u64..100) {
        let (k, r, score) = select_k(&data, 2..=max_k, seed);
        let want = reference_silhouette(&data, &r.assignments, k);
        prop_assert_eq!(score.to_bits(), want.to_bits());
        for kk in 2..=max_k {
            let other = kmeans(&data, kk, seed, 100);
            let s = reference_silhouette(&data, &other.assignments, kk);
            prop_assert!(s < score || (s == score && kk >= k) || s.is_nan(), "k={kk}: {s} vs {score}");
        }
    }

    /// k-means invariants: assignments in range, sizes sum to n, inertia
    /// non-negative and non-increasing in k, deterministic per seed.
    #[test]
    fn kmeans_invariants(data in arb_matrix(), k in 1usize..6, seed in 0u64..1000) {
        let r = kmeans(&data, k, seed, 50);
        let keff = k.min(data.len());
        prop_assert_eq!(r.assignments.len(), data.len());
        prop_assert!(r.assignments.iter().all(|&a| a < keff));
        prop_assert_eq!(r.cluster_sizes().iter().sum::<usize>(), data.len());
        prop_assert!(r.inertia >= 0.0);
        let r2 = kmeans(&data, k, seed, 50);
        prop_assert_eq!(r.assignments, r2.assignments);
    }

    /// Inertia never increases when k grows (same seed family).
    #[test]
    fn kmeans_inertia_monotone(data in arb_matrix()) {
        let i1 = kmeans(&data, 1, 7, 60).inertia;
        let i3 = kmeans(&data, 3, 7, 60).inertia;
        // k-means is a heuristic: allow tiny slack for local optima
        prop_assert!(i3 <= i1 * 1.05 + 1e-9, "i1={i1} i3={i3}");
    }

    /// Silhouette is always within [-1, 1].
    #[test]
    fn silhouette_bounded(data in arb_matrix(), k in 2usize..5) {
        let r = kmeans(&data, k, 3, 50);
        let s = silhouette_score(&data, &r.assignments, k.min(data.len()));
        prop_assert!((-1.0..=1.0).contains(&s), "{s}");
    }

    /// ARI properties: reflexive = 1, symmetric, label-permutation
    /// invariant.
    #[test]
    fn ari_properties(labels in proptest::collection::vec(0usize..4, 2..60)) {
        prop_assert_eq!(adjusted_rand_index(&labels, &labels), 1.0);
        let permuted: Vec<usize> = labels.iter().map(|&l| (l + 1) % 4).collect();
        prop_assert!((adjusted_rand_index(&labels, &permuted) - 1.0).abs() < 1e-12);
        let other: Vec<usize> = labels.iter().rev().cloned().collect();
        let ab = adjusted_rand_index(&labels, &other);
        let ba = adjusted_rand_index(&other, &labels);
        prop_assert!((ab - ba).abs() < 1e-12);
    }

    /// PCA invariants: eigenvalues non-negative and descending; their sum
    /// equals the covariance trace; components orthonormal.
    #[test]
    fn pca_invariants(data in arb_matrix()) {
        let Some(p) = pca(&data) else { return Ok(()); };
        for w in p.eigenvalues.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
        prop_assert!(p.eigenvalues.iter().all(|&e| e >= -1e-9));
        let d = data[0].len();
        let n = data.len() as f64;
        let mut trace = 0.0;
        for j in 0..d {
            let mean = data.iter().map(|r| r[j]).sum::<f64>() / n;
            trace += data.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / (n - 1.0);
        }
        let total: f64 = p.eigenvalues.iter().sum();
        prop_assert!((total - trace).abs() < 1e-6 * (1.0 + trace), "{total} vs {trace}");
        for i in 0..d {
            let norm: f64 = p.components[i].iter().map(|x| x * x).sum();
            prop_assert!((norm - 1.0).abs() < 1e-6);
        }
    }

    /// Pearson correlation is symmetric, bounded, and scale-invariant.
    #[test]
    fn pearson_properties(
        xs in proptest::collection::vec(-1e3f64..1e3, 3..40),
        scale in 0.1f64..100.0,
    ) {
        let ys: Vec<f64> = xs.iter().rev().cloned().collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            let r2 = pearson(&ys, &xs).unwrap();
            prop_assert!((r - r2).abs() < 1e-9);
            let scaled: Vec<f64> = xs.iter().map(|x| x * scale + 3.0).collect();
            if let Some(rs) = pearson(&scaled, &ys) {
                prop_assert!((r - rs).abs() < 1e-6, "{r} vs {rs}");
            }
        }
    }

    /// Summary invariants: min <= mean <= max; stddev >= 0; count right.
    #[test]
    fn summary_invariants(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let s = summarize(&xs).unwrap();
        prop_assert_eq!(s.count, xs.len());
        prop_assert!(s.min <= s.mean + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!(s.stddev >= 0.0);
        prop_assert!((s.stddev * s.stddev - s.variance).abs() < 1e-6 * (1.0 + s.variance));
    }

    /// Hierarchical clustering invariants: n−1 merges, cut(k) produces at
    /// most k dense labels covering every leaf, cut(1) is one cluster.
    #[test]
    fn hierarchical_invariants(data in proptest::collection::vec(
        proptest::collection::vec(-50.0f64..50.0, 2), 1..30
    ), k in 1usize..6) {
        let tree = hierarchical(&data);
        prop_assert_eq!(tree.merges.len(), data.len().saturating_sub(1));
        let cut = tree.cut(k);
        prop_assert_eq!(cut.len(), data.len());
        let distinct: std::collections::HashSet<_> = cut.iter().collect();
        prop_assert!(distinct.len() <= k.min(data.len()).max(1));
        // labels dense: 0..distinct
        prop_assert!(cut.iter().all(|&c| c < distinct.len()));
        let one = tree.cut(1);
        prop_assert!(one.iter().all(|&c| c == 0));
        // distances non-negative
        prop_assert!(tree.merges.iter().all(|m| m.distance >= 0.0));
    }

    /// Amdahl fit recovers the generating serial fraction from noiseless
    /// curves at any plausible s.
    #[test]
    fn amdahl_fit_inverts_model(s in 0.001f64..0.9) {
        let pts: Vec<(usize, f64)> = [1usize, 2, 4, 8, 16, 32]
            .iter()
            .map(|&p| (p, amdahl_speedup(s, p)))
            .collect();
        let fit = fit_amdahl(&pts).unwrap();
        prop_assert!((fit.serial_fraction - s).abs() < 1e-6, "{} vs {s}", fit.serial_fraction);
    }
}
