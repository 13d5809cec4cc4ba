//! Atomic-event profiles: count / min / max / mean / standard deviation.
//!
//! Matches the paper's ATOMIC_LOCATION_PROFILE columns ("the sample count,
//! maximum value, minimum value, mean value and standard deviation for each
//! ATOMIC_EVENT, node, context, thread combination").
//!
//! [`Moments`] is the framework's one count/mean/variance accumulator:
//! Welford's online update for single samples and Chan et al.'s pairwise
//! combination for merging partials. Atomic events, the analysis
//! toolkit's summaries and baselines, the SQL `AVG`/`STDDEV` accumulators
//! (row and columnar) and the request-latency aggregates all go through
//! it, so the same samples round the same way wherever they are summed.

/// Running count, mean and sum of squared deviations (Welford / Chan).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Moments {
    /// Number of samples.
    pub count: u64,
    /// Sample mean (0 when empty).
    pub mean: f64,
    /// Sum of squared deviations from the mean (not the variance itself).
    m2: f64,
}

impl Moments {
    /// Rebuild from a count, mean and sample (n−1) standard deviation, as
    /// importers do when the input carries statistics, not samples.
    pub fn from_summary(count: u64, mean: f64, stddev: f64) -> Self {
        let m2 = if count > 1 {
            stddev * stddev * (count - 1) as f64
        } else {
            0.0
        };
        Moments { count, mean, m2 }
    }

    /// Count, mean and spread of a batch of samples, two-pass: the sum,
    /// then the squared deviations from its mean. No division per sample
    /// (Welford's update has one), and at least as accurate; merging the
    /// result equals pushing the samples up to rounding.
    pub fn from_samples(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Moments::default();
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let m2 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
        Moments {
            count: xs.len() as u64,
            mean,
            m2,
        }
    }

    /// Fold in one sample (Welford).
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Fold in another accumulator (Chan et al.'s pairwise update). An
    /// empty side is an exact identity.
    pub fn merge(&mut self, other: &Moments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let total = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }

    /// Sample variance (n−1); `None` with fewer than 2 samples.
    pub fn variance(&self) -> Option<f64> {
        (self.count >= 2).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Sample standard deviation (n−1); `None` with fewer than 2 samples.
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Population standard deviation (n); 0 with fewer than 2 samples.
    pub fn population_stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }
}

/// Summary statistics of one atomic event on one thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomicData {
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Count, mean and spread of the samples.
    pub moments: Moments,
}

impl Default for AtomicData {
    /// Same as [`AtomicData::new`]: an empty accumulator with min/max at
    /// the identity elements (±infinity), not zero.
    fn default() -> Self {
        AtomicData::new()
    }
}

impl AtomicData {
    /// Empty accumulator.
    pub fn new() -> Self {
        AtomicData {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            moments: Moments::default(),
        }
    }

    /// Construct directly from precomputed summary fields (used by
    /// importers whose input files carry the statistics, not the samples).
    pub fn from_summary(count: u64, min: f64, max: f64, mean: f64, stddev: f64) -> Self {
        AtomicData {
            min,
            max,
            moments: Moments::from_summary(count, mean, stddev),
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.moments.count
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.moments.mean
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.moments.push(x);
    }

    /// Sample standard deviation (n−1); `None` with fewer than 2 samples.
    pub fn stddev(&self) -> Option<f64> {
        self.moments.stddev()
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &AtomicData) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.moments.merge(&other.moments);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_basic_stats() {
        let mut a = AtomicData::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.record(x);
        }
        assert_eq!(a.count(), 8);
        assert_eq!(a.min, 2.0);
        assert_eq!(a.max, 9.0);
        assert!((a.mean() - 5.0).abs() < 1e-12);
        assert!((a.stddev().unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stddev_undefined_for_small_samples() {
        let mut a = AtomicData::new();
        assert_eq!(a.stddev(), None);
        a.record(5.0);
        assert_eq!(a.stddev(), None);
        a.record(7.0);
        assert!(a.stddev().is_some());
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = AtomicData::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = AtomicData::new();
        let mut right = AtomicData::new();
        for &x in &xs[..37] {
            left.record(x);
        }
        for &x in &xs[37..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.stddev().unwrap() - whole.stddev().unwrap()).abs() < 1e-12);
        assert_eq!(left.min, whole.min);
        assert_eq!(left.max, whole.max);
    }

    #[test]
    fn batch_moments_match_pushed_samples() {
        let xs: Vec<f64> = (0..100).map(|i| 1e6 + (i as f64).sin() * 10.0).collect();
        let mut pushed = Moments::default();
        for &x in &xs {
            pushed.push(x);
        }
        let batch = Moments::from_samples(&xs);
        assert_eq!(batch.count, pushed.count);
        assert!((batch.mean - pushed.mean).abs() <= 1e-12 * pushed.mean.abs());
        let (b, p) = (batch.stddev().unwrap(), pushed.stddev().unwrap());
        assert!((b - p).abs() <= 1e-9 * p, "{b} vs {p}");
        assert_eq!(Moments::from_samples(&[]), Moments::default());
        assert_eq!(Moments::from_samples(&[3.0]).stddev(), None);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = AtomicData::new();
        a.record(1.0);
        let before = a;
        a.merge(&AtomicData::new());
        assert_eq!(a, before);
        let mut empty = AtomicData::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn from_summary_roundtrip() {
        let mut a = AtomicData::new();
        for x in [1.0, 3.0, 5.0, 7.0] {
            a.record(x);
        }
        let b = AtomicData::from_summary(a.count(), a.min, a.max, a.mean(), a.stddev().unwrap());
        assert!((b.stddev().unwrap() - a.stddev().unwrap()).abs() < 1e-12);
        assert_eq!(b.count(), 4);
    }

    #[test]
    fn population_stddev_matches_direct_computation() {
        let xs = [1.0f64, 2.0, 4.0, 8.0, 16.0, 32.0];
        let mut streamed = Moments::default();
        for &x in &xs {
            streamed.push(x);
        }
        let mut merged = Moments::default();
        for part in [&xs[..3], &xs[3..]] {
            let mut m = Moments::default();
            for &x in part {
                m.push(x);
            }
            merged.merge(&m);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        for m in [streamed, merged] {
            assert_eq!(m.count, xs.len() as u64);
            assert!((m.mean - mean).abs() < 1e-9);
            assert!((m.population_stddev() - var.sqrt()).abs() < 1e-9);
        }
        assert_eq!(Moments::default().population_stddev(), 0.0);
    }
}
