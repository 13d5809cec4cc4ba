//! k-means clustering — the data-mining core of PerfExplorer (paper §5.3):
//! "statistical analysis methods are used to perform cluster analysis on
//! the data, and then do summarization of the clusters."
//!
//! Implementation notes:
//! * k-means++ seeding for robust initialization;
//! * a serial assignment step: the O(n·k·d) loop split across spawned
//!   threads measured slower than serial at 1,024 and 4,096 rows on
//!   2 cores (bench `e4_kmeans`);
//! * [`silhouettes`] scores many clusterings of one data set in one
//!   blocked pass: the O(n²·d) pairwise distances are computed once and
//!   shared, each clustering adds O(n²) sums, and every score keeps the
//!   bits of scoring its clustering alone. [`select_k`] and
//!   [`select_by_silhouette`] score all candidate k together and return
//!   the winner's score; [`silhouette_score`] is the one-clustering case;
//! * [`adjusted_rand_index`] scores recovered clusterings against ground
//!   truth (used by the E4 reproduction to verify the planted sPPM
//!   behaviour classes are found).

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

/// Rows whose distances to every row [`silhouettes`] computes at once:
/// one lane each of a [`Lanes`] value.
const BLOCK: usize = 8;

/// One value per row of a block.
type Lanes = [f64; BLOCK];

/// Words of per-clustering state one silhouette pass may hold: rows
/// ordered by cluster, cluster offsets, and relabelled assignments for a
/// clustering whose labels exceed its slots. Clusterings beyond it wait
/// for the next pass.
const PASS_WORDS: usize = 1 << 16;

/// Words a clustering with `k` clusters over `n` rows charges a pass.
fn pass_words(n: usize, k: usize) -> usize {
    2 * n + k.min(n) + 1
}

/// How many leading clusterings of `ks` one pass over `n` rows holds
/// (at least one).
fn pass_len(n: usize, ks: impl IntoIterator<Item = usize>) -> usize {
    let mut words = 0;
    let mut len = 0;
    for k in ks {
        words += pass_words(n, k);
        if len > 0 && words > PASS_WORDS {
            break;
        }
        len += 1;
    }
    len
}

/// Mean silhouette coefficient of a clustering (−1 ..= 1, higher is
/// better): [`silhouettes`] of one clustering.
pub fn silhouette_score(data: &[Vec<f64>], assignments: &[usize], k: usize) -> f64 {
    silhouettes(data, &[(assignments, k)])[0]
}

/// Mean silhouette coefficient of each clustering `(assignments, k)` of
/// `data` (rows of one width), in order; labels must be below their k.
/// O(n²·d) distance work for all of them together, plus O(n²) per
/// clustering.
///
/// Rows go in blocks of 8: a block's distances to every row are
/// computed once and folded into each clustering's per-row cluster sums.
/// Each sum takes its terms in ascending row order, each distance is
/// `sq_dist(row, other).sqrt()`, so every score has the bits of scoring
/// its clustering alone, row by row. A clustering gets min(k, n) slots,
/// and a row's count for a cluster is the cluster's size, less one for
/// its own. A row alone in its cluster, or with no other cluster, is
/// skipped; a score is 0 when every row is, or when n < 2 or k < 2.
pub fn silhouettes(data: &[Vec<f64>], clusterings: &[(&[usize], usize)]) -> Vec<f64> {
    let n = data.len();
    let mut scores = Vec::with_capacity(clusterings.len());
    let mut rest = clusterings;
    while !rest.is_empty() {
        let len = pass_len(n, rest.iter().map(|&(_, k)| k));
        scores.extend(silhouette_pass(data, &rest[..len]));
        rest = &rest[len..];
    }
    scores
}

/// One clustering's state in a silhouette pass.
struct Scored<'a> {
    /// Slot of each row's cluster.
    labels: std::borrow::Cow<'a, [usize]>,
    /// Rows in ascending order within each slot, slot after slot.
    members: Vec<usize>,
    /// Where each slot's rows start in `members`, and their end.
    starts: Vec<usize>,
    total: f64,
    counted: usize,
}

impl<'a> Scored<'a> {
    fn new(assignments: &'a [usize], k: usize, n: usize) -> Self {
        assert_eq!(assignments.len(), n, "one assignment per row");
        let slots = k.min(n);
        let labels = if assignments.iter().all(|&a| a < slots) {
            std::borrow::Cow::Borrowed(assignments)
        } else {
            // Labels reach past n: number them in ascending order, so
            // the slots keep the clusters' order.
            assert!(assignments.iter().all(|&a| a < k), "label out of range");
            let mut seen = assignments.to_vec();
            seen.sort_unstable();
            seen.dedup();
            std::borrow::Cow::Owned(
                assignments
                    .iter()
                    .map(|a| seen.binary_search(a).expect("label seen"))
                    .collect(),
            )
        };
        let mut starts = vec![0usize; slots + 1];
        for &a in labels.iter() {
            starts[a + 1] += 1;
        }
        for c in 0..slots {
            starts[c + 1] += starts[c];
        }
        let mut next = starts.clone();
        let mut members = vec![0usize; n];
        for (j, &a) in labels.iter().enumerate() {
            members[next[a]] = j;
            next[a] += 1;
        }
        Scored {
            labels,
            members,
            starts,
            total: 0.0,
            counted: 0,
        }
    }

    /// Count the silhouettes of rows `block`, given each row's distances
    /// to them (`dist[j][r]` from row `block.start + r` to row j).
    /// `sums` is scratch space.
    fn block(&mut self, block: std::ops::Range<usize>, dist: &[Lanes], sums: &mut Vec<Lanes>) {
        let slots = self.starts.len() - 1;
        sums.clear();
        for c in 0..slots {
            let rows = &self.members[self.starts[c]..self.starts[c + 1]];
            // Rows of the block skip their own lane.
            let lo = rows.partition_point(|&j| j < block.start);
            let hi = rows.partition_point(|&j| j < block.end);
            let mut acc = [0.0f64; BLOCK];
            add_lanes(&mut acc, &rows[..lo], dist);
            for &j in &rows[lo..hi] {
                for (r, (a, d)) in acc.iter_mut().zip(&dist[j]).enumerate() {
                    if r != j - block.start {
                        *a += d;
                    }
                }
            }
            add_lanes(&mut acc, &rows[hi..], dist);
            sums.push(acc);
        }
        let size = |c: usize| self.starts[c + 1] - self.starts[c];
        for (r, i) in block.enumerate() {
            let own = self.labels[i];
            let count = |c: usize| size(c) - usize::from(c == own);
            if count(own) == 0 {
                continue; // singleton cluster: silhouette undefined, skip
            }
            let a = sums[own][r] / count(own) as f64;
            let b = (0..slots)
                .filter(|&c| c != own && count(c) > 0)
                .map(|c| sums[c][r] / count(c) as f64)
                .fold(f64::INFINITY, f64::min);
            if !b.is_finite() {
                continue;
            }
            self.total += (b - a) / a.max(b);
            self.counted += 1;
        }
    }

    fn score(&self) -> f64 {
        if self.counted == 0 {
            0.0
        } else {
            self.total / self.counted as f64
        }
    }
}

/// Add rows `rows`' distances into `acc`, lane by lane, in row order.
fn add_lanes(acc: &mut Lanes, rows: &[usize], dist: &[Lanes]) {
    for &j in rows {
        for (a, d) in acc.iter_mut().zip(&dist[j]) {
            *a += d;
        }
    }
}

/// [`silhouettes`] of clusterings that fit one pass.
fn silhouette_pass(data: &[Vec<f64>], clusterings: &[(&[usize], usize)]) -> Vec<f64> {
    let n = data.len();
    if n < 2 {
        return vec![0.0; clusterings.len()];
    }
    let d = data[0].len();
    assert!(data.iter().all(|r| r.len() == d), "rows of one width");
    let mut scored: Vec<Option<Scored<'_>>> = clusterings
        .iter()
        .map(|&(assignments, k)| (k >= 2).then(|| Scored::new(assignments, k, n)))
        .collect();
    // `sq_dist` lane by lane: the same terms from the same start value.
    let zero: f64 = std::iter::empty::<f64>().sum();
    let mut columns = vec![[0.0f64; BLOCK]; d];
    let mut dist = vec![[0.0f64; BLOCK]; n];
    let mut sums = Vec::new();
    for start in (0..n).step_by(BLOCK) {
        let block = start..(start + BLOCK).min(n);
        for (r, row) in data[block.clone()].iter().enumerate() {
            for (column, &x) in columns.iter_mut().zip(row) {
                column[r] = x;
            }
        }
        for (out, other) in dist.iter_mut().zip(data) {
            let mut acc = [zero; BLOCK];
            for (column, &y) in columns.iter().zip(other) {
                for (a, &x) in acc.iter_mut().zip(column) {
                    *a += (x - y) * (x - y);
                }
            }
            for (o, a) in out.iter_mut().zip(acc) {
                *o = a.sqrt();
            }
        }
        for s in scored.iter_mut().flatten() {
            s.block(block.clone(), &dist, &mut sums);
        }
    }
    scored
        .iter()
        .map(|s| s.as_ref().map_or(0.0, Scored::score))
        .collect()
}

/// Pick the k in `k_range` whose candidate `make(k)` has the highest
/// silhouette, the first on a tie, and return it with that candidate
/// and score. Candidates are made and scored a pass at a time, so at
/// most one pass's worth is held. `make(k)` for k at or past the row
/// count must equal `make(rows)` (k-means and tree cuts clamp k), so
/// those candidates tie the first of them and are not made.
pub fn select_by_silhouette<T>(
    data: &[Vec<f64>],
    k_range: std::ops::RangeInclusive<usize>,
    mut make: impl FnMut(usize) -> T,
    labels: impl Fn(&T) -> &[usize],
) -> (usize, T, f64) {
    let (lo, hi) = k_range.into_inner();
    let ks: Vec<usize> = (lo..=hi.min(data.len().max(lo))).collect();
    let mut best: Option<(f64, usize, T)> = None;
    let mut rest = &ks[..];
    while !rest.is_empty() {
        let len = pass_len(data.len(), rest.iter().copied());
        let made: Vec<(usize, T)> = rest[..len].iter().map(|&k| (k, make(k))).collect();
        let clusterings: Vec<(&[usize], usize)> =
            made.iter().map(|(k, t)| (labels(t), *k)).collect();
        let scores = silhouettes(data, &clusterings);
        for ((k, t), score) in made.into_iter().zip(scores) {
            if best.as_ref().is_none_or(|(s, _, _)| score > *s) {
                best = Some((score, k, t));
            }
        }
        rest = &rest[len..];
    }
    let (score, k, t) = best.expect("non-empty k range");
    (k, t, score)
}

/// Pick k in `k_range` maximizing the silhouette score; returns k, its
/// clustering and its score.
pub fn select_k(
    data: &[Vec<f64>],
    k_range: std::ops::RangeInclusive<usize>,
    seed: u64,
) -> (usize, KMeansResult, f64) {
    select_by_silhouette(
        data,
        k_range,
        |k| kmeans(data, k, seed, 100),
        |r| &r.assignments,
    )
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
        let (k, _, _) = select_k(&data, 2..=6, 1);
        assert_eq!(k, 3);
    }

    /// Every k at or past the row count clusters and scores as k = rows,
    /// so capping the candidates there cannot change the choice.
    #[test]
    fn candidates_past_the_row_count_cannot_win() {
        let (mut data, _) = blobs(22, 19);
        data.truncate(64);
        let at_n = kmeans(&data, 64, 1, 100);
        let at_n_score = silhouette_score(&data, &at_n.assignments, 64);
        for k in [65, 100, 640] {
            let r = kmeans(&data, k, 1, 100);
            assert_eq!(r.assignments, at_n.assignments);
            let score = silhouette_score(&data, &r.assignments, k);
            assert_eq!(score.to_bits(), at_n_score.to_bits());
        }
        let (k, r, score) = select_k(&data, 2..=640, 1);
        let (k_n, r_n, score_n) = select_k(&data, 2..=64, 1);
        assert_eq!(k, k_n);
        assert_eq!(r.assignments, r_n.assignments);
        assert_eq!(score.to_bits(), score_n.to_bits());
    }

    /// Clusterings past one pass's bound go to later passes and score
    /// as they would alone.
    #[test]
    fn clusterings_beyond_one_pass_score_as_alone() {
        let (data, _) = blobs(22, 17);
        let n = data.len();
        let per_pass = PASS_WORDS / pass_words(n, 5);
        assert_eq!(pass_len(n, std::iter::repeat_n(5, 3 * per_pass)), per_pass);
        let mut rng = StdRng::seed_from_u64(4);
        let clusterings: Vec<Vec<usize>> = (0..2 * per_pass + 7)
            .map(|_| (0..n).map(|_| rng.gen_range(0..5)).collect())
            .collect();
        let borrowed: Vec<(&[usize], usize)> = clusterings.iter().map(|a| (&a[..], 5)).collect();
        let scores = silhouettes(&data, &borrowed);
        assert_eq!(scores.len(), clusterings.len());
        for (a, score) in clusterings.iter().zip(&scores) {
            assert_eq!(score.to_bits(), silhouette_score(&data, a, 5).to_bits());
        }
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
