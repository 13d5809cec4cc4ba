//! Descriptive statistics and regression primitives.
//!
//! These are the reusable numeric kernels of the analysis toolkit — the
//! Rust stand-ins for the summary statistics PerfExplorer obtained from R.

use perfdmf_profile::AtomicData;

/// Summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
    /// Sample variance (n−1).
    pub variance: f64,
    /// Sample standard deviation.
    pub stddev: f64,
}

/// Compute a summary; `None` for an empty slice.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let mut acc = AtomicData::new();
    for &x in xs {
        acc.record(x);
    }
    let variance = acc.moments.variance().unwrap_or(0.0);
    Some(Summary {
        count: xs.len(),
        min: acc.min,
        max: acc.max,
        mean: acc.mean(),
        variance,
        stddev: variance.sqrt(),
    })
}

/// Arithmetic mean; 0.0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median (average of middle two for even length); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Linear-interpolated percentile, `p` in [0, 100].
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(v[lo] * (1.0 - frac) + v[hi] * frac)
}

/// Sample covariance (n−1); `None` unless both slices have the same length
/// ≥ 2.
pub fn covariance(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let s: f64 = xs.iter().zip(ys).map(|(&x, &y)| (x - mx) * (y - my)).sum();
    Some(s / (xs.len() - 1) as f64)
}

/// Pearson correlation coefficient; `None` for degenerate input.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let cov = covariance(xs, ys)?;
    let sx = summarize(xs)?.stddev;
    let sy = summarize(ys)?.stddev;
    if sx == 0.0 || sy == 0.0 {
        return None;
    }
    Some(cov / (sx * sy))
}

/// Correlation matrix of column-major data: `data[c]` is column `c`.
/// Degenerate pairs get correlation 0.
pub fn correlation_matrix(data: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = data.len();
    let mut out = vec![vec![0.0; n]; n];
    for i in 0..n {
        out[i][i] = 1.0;
        for j in (i + 1)..n {
            let r = pearson(&data[i], &data[j]).unwrap_or(0.0);
            out[i][j] = r;
            out[j][i] = r;
        }
    }
    out
}

/// Ordinary least squares fit `y = a + b·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LinearFit {
    /// Intercept.
    pub intercept: f64,
    /// Slope.
    pub slope: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
}

/// Fit a line by least squares; `None` for degenerate input.
pub(crate) fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let sxx: f64 = xs.iter().map(|&x| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = xs.iter().zip(ys).map(|(&x, &y)| (x - mx) * (y - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = ys.iter().map(|&y| (y - my) * (y - my)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| {
            let f = intercept + slope * x;
            (y - f) * (y - f)
        })
        .sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(LinearFit {
        intercept,
        slope,
        r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = summarize(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count, 8);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.variance - 32.0 / 7.0).abs() < 1e-12);
        assert!(summarize(&[]).is_none());
        let one = summarize(&[3.0]).unwrap();
        assert_eq!(one.stddev, 0.0);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 100.0), Some(5.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), Some(3.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.5));
    }

    #[test]
    fn correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&xs, &[1.0, 1.0, 1.0, 1.0]), None);
        assert_eq!(pearson(&xs, &ys[..2]), None);
    }

    #[test]
    fn correlation_matrix_shape() {
        let m = correlation_matrix(&[
            vec![1.0, 2.0, 3.0],
            vec![2.0, 4.0, 6.0],
            vec![3.0, 1.0, 2.0],
        ]);
        assert_eq!(m.len(), 3);
        assert_eq!(m[0][0], 1.0);
        assert!((m[0][1] - 1.0).abs() < 1e-12);
        assert_eq!(m[1][2], m[2][1]);
    }

    #[test]
    fn linear_fit_exact_and_noisy() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let f = linear_fit(&xs, &ys).unwrap();
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 3.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
        assert!(linear_fit(&xs, &ys[..2]).is_none());
        assert!(linear_fit(&[1.0, 1.0], &[2.0, 3.0]).is_none());
    }
}
