//! k-means clustering — the data-mining core of PerfExplorer (paper §5.3):
//! "statistical analysis methods are used to perform cluster analysis on
//! the data, and then do summarization of the clusters."
//!
//! Implementation notes:
//! * k-means++ seeding for robust initialization;
//! * a serial assignment step: the O(n·k·d) loop split across spawned
//!   threads measured slower than serial at 1,024 and 4,096 rows on
//!   2 cores (bench `e4_kmeans`);
//! * [`silhouette_score`] supports choosing k; [`adjusted_rand_index`]
//!   scores recovered clusterings against ground truth (used by the E4
//!   reproduction to verify the planted sPPM behaviour classes are found).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster index per input row.
    pub assignments: Vec<usize>,
    /// Cluster centroids, `k × d`.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances of rows to their centroid.
    pub inertia: f64,
    /// Iterations executed.
    pub iterations: usize,
}

impl KMeansResult {
    /// Rows in each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let k = self.centroids.len();
        let mut sizes = vec![0usize; k];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Run k-means with k-means++ seeding.
///
/// `data` is row-major (`n × d`). `seed` makes runs reproducible.
/// Panics if `k == 0`; if `k > n`, k is clamped to n.
pub fn kmeans(data: &[Vec<f64>], k: usize, seed: u64, max_iters: usize) -> KMeansResult {
    assert!(k > 0, "k must be positive");
    let n = data.len();
    if n == 0 {
        return KMeansResult {
            assignments: Vec::new(),
            centroids: Vec::new(),
            inertia: 0.0,
            iterations: 0,
        };
    }
    let k = k.min(n);
    let d = data[0].len();
    let mut rng = StdRng::seed_from_u64(seed);

    // --- k-means++ seeding ---
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(data[rng.gen_range(0..n)].clone());
    let mut dist2: Vec<f64> = data.iter().map(|r| sq_dist(r, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = dist2.iter().sum();
        let next = if total <= 0.0 {
            // all points coincide with chosen centroids; pick any
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &w) in dist2.iter().enumerate() {
                if target < w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            chosen
        };
        centroids.push(data[next].clone());
        let c = centroids.last().expect("just pushed");
        for (i, row) in data.iter().enumerate() {
            let dd = sq_dist(row, c);
            if dd < dist2[i] {
                dist2[i] = dd;
            }
        }
    }

    // --- Lloyd iterations ---
    let mut assignments = vec![0usize; n];
    let mut iterations = 0usize;
    for iter in 0..max_iters {
        iterations = iter + 1;
        let changed = assign(data, &centroids, &mut assignments);
        // recompute centroids
        let mut sums = vec![vec![0.0f64; d]; k];
        let mut counts = vec![0usize; k];
        for (row, &a) in data.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(row) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // empty cluster: reseed at the point farthest from its centroid
                let far = (0..n)
                    .max_by(|&i, &j| {
                        sq_dist(&data[i], &centroids[assignments[i]])
                            .total_cmp(&sq_dist(&data[j], &centroids[assignments[j]]))
                    })
                    .expect("n > 0");
                centroids[c] = data[far].clone();
            } else {
                for (slot, s) in centroids[c].iter_mut().zip(&sums[c]) {
                    *slot = s / counts[c] as f64;
                }
            }
        }
        if !changed && iter > 0 {
            break;
        }
    }
    // final assignment + inertia
    assign(data, &centroids, &mut assignments);
    let inertia = data
        .iter()
        .zip(&assignments)
        .map(|(r, &a)| sq_dist(r, &centroids[a]))
        .sum();
    KMeansResult {
        assignments,
        centroids,
        inertia,
        iterations,
    }
}

/// Assign every row to its nearest centroid. Returns true if any
/// assignment changed.
fn assign(data: &[Vec<f64>], centroids: &[Vec<f64>], assignments: &mut [usize]) -> bool {
    let mut changed = false;
    for (row, slot) in data.iter().zip(assignments.iter_mut()) {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (c, centroid) in centroids.iter().enumerate() {
            let dd = sq_dist(row, centroid);
            if dd < best_d {
                best_d = dd;
                best = c;
            }
        }
        if *slot != best {
            *slot = best;
            changed = true;
        }
    }
    changed
}

/// Mean silhouette coefficient of a clustering (−1 ..= 1, higher is
/// better). O(n²); intended for k selection on sampled data.
pub fn silhouette_score(data: &[Vec<f64>], assignments: &[usize], k: usize) -> f64 {
    let n = data.len();
    if n < 2 || k < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut counted = 0usize;
    for i in 0..n {
        let own = assignments[i];
        // mean distance to own cluster (a) and nearest other cluster (b)
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
            continue; // singleton cluster: silhouette undefined, skip
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

/// Pick k in `k_range` maximizing the silhouette score.
pub fn select_k(
    data: &[Vec<f64>],
    k_range: std::ops::RangeInclusive<usize>,
    seed: u64,
) -> (usize, KMeansResult) {
    let mut best: Option<(f64, usize, KMeansResult)> = None;
    for k in k_range {
        let res = kmeans(data, k, seed, 100);
        let score = silhouette_score(data, &res.assignments, k);
        if best.as_ref().is_none_or(|(s, _, _)| score > *s) {
            best = Some((score, k, res));
        }
    }
    let (_, k, res) = best.expect("non-empty k range");
    (k, res)
}

/// Adjusted Rand index between two labelings (1.0 = identical partition,
/// ~0.0 = random agreement).
pub fn adjusted_rand_index(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let ka = a.iter().max().map(|&m| m + 1).unwrap_or(0);
    let kb = b.iter().max().map(|&m| m + 1).unwrap_or(0);
    let mut table = vec![vec![0u64; kb]; ka];
    for (&x, &y) in a.iter().zip(b) {
        table[x][y] += 1;
    }
    let comb2 = |x: u64| -> f64 { (x * x.saturating_sub(1)) as f64 / 2.0 };
    let sum_ij: f64 = table.iter().flatten().map(|&x| comb2(x)).sum();
    let sum_a: f64 = table.iter().map(|row| comb2(row.iter().sum::<u64>())).sum();
    let sum_b: f64 = (0..kb)
        .map(|j| comb2(table.iter().map(|row| row[j]).sum::<u64>()))
        .sum();
    let total = comb2(n as u64);
    let expected = sum_a * sum_b / total;
    let max_index = (sum_a + sum_b) / 2.0;
    if (max_index - expected).abs() < 1e-12 {
        return 1.0;
    }
    (sum_ij - expected) / (max_index - expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated 2-D blobs.
    fn blobs(per: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 8.0)];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..per {
                data.push(vec![
                    cx + rng.gen_range(-1.0..1.0),
                    cy + rng.gen_range(-1.0..1.0),
                ]);
                labels.push(ci);
            }
        }
        (data, labels)
    }

    #[test]
    fn recovers_blobs() {
        let (data, truth) = blobs(40, 7);
        let res = kmeans(&data, 3, 42, 100);
        assert_eq!(res.centroids.len(), 3);
        assert_eq!(adjusted_rand_index(&res.assignments, &truth), 1.0);
        let sizes = res.cluster_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 120);
        assert!(sizes.iter().all(|&s| s == 40));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (data, _) = blobs(20, 3);
        let a = kmeans(&data, 3, 99, 100);
        let b = kmeans(&data, 3, 99, 100);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn inertia_decreases_with_k() {
        let (data, _) = blobs(30, 11);
        let i2 = kmeans(&data, 2, 5, 100).inertia;
        let i3 = kmeans(&data, 3, 5, 100).inertia;
        let i6 = kmeans(&data, 6, 5, 100).inertia;
        assert!(i3 < i2);
        assert!(i6 <= i3 + 1e-9);
    }

    #[test]
    fn silhouette_prefers_true_k() {
        let (data, _) = blobs(30, 13);
        let (k, _) = select_k(&data, 2..=6, 1);
        assert_eq!(k, 3);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let data = vec![vec![0.0], vec![1.0]];
        let res = kmeans(&data, 10, 0, 10);
        assert_eq!(res.centroids.len(), 2);
        assert!(res.inertia < 1e-12);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let res = kmeans(&[], 3, 0, 10);
        assert!(res.assignments.is_empty());
        // all-identical points: one real cluster, no panic
        let data = vec![vec![5.0, 5.0]; 8];
        let res = kmeans(&data, 3, 0, 10);
        assert_eq!(res.assignments.len(), 8);
        assert!(res.inertia < 1e-12);
    }

    #[test]
    fn ari_properties() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert_eq!(adjusted_rand_index(&a, &a), 1.0);
        // permuted labels still perfect
        let b = vec![2, 2, 0, 0, 1, 1];
        assert_eq!(adjusted_rand_index(&a, &b), 1.0);
        // completely merged labeling scores lower
        let c = vec![0, 0, 0, 0, 0, 0];
        assert!(adjusted_rand_index(&a, &c) < 0.5);
    }
}
