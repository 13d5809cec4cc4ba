//! Scalability model fitting: Amdahl's law.
//!
//! The paper positions PerfDMF under "benchmarking, procurement
//! evaluation, modeling, prediction" workflows (§2); these are the
//! classic strong-scaling model such studies fit to speedup data.

use crate::stats::linear_fit;

/// A fitted scaling model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingFit {
    /// Estimated serial fraction.
    pub serial_fraction: f64,
    /// Goodness of fit on the linearized form.
    pub r_squared: f64,
}

/// Fit Amdahl's law `S(p) = 1 / (s + (1-s)/p)` to (processors, speedup)
/// observations by linear regression on `1/S vs 1/p`
/// (`1/S = s + (1-s)·(1/p)`). Returns `None` with fewer than 3 points or
/// a degenerate fit.
pub fn fit_amdahl(points: &[(usize, f64)]) -> Option<ScalingFit> {
    if points.len() < 3 {
        return None;
    }
    let xs: Vec<f64> = points.iter().map(|&(p, _)| 1.0 / p as f64).collect();
    let ys: Vec<f64> = points
        .iter()
        .map(|&(_, s)| if s > 0.0 { 1.0 / s } else { f64::NAN })
        .collect();
    if ys.iter().any(|y| !y.is_finite()) {
        return None;
    }
    let fit = linear_fit(&xs, &ys)?;
    Some(ScalingFit {
        serial_fraction: fit.intercept.clamp(0.0, 1.0),
        r_squared: fit.r_squared,
    })
}

/// Predict Amdahl speedup at `p` processors for serial fraction `s`.
pub fn amdahl_speedup(s: f64, p: usize) -> f64 {
    1.0 / (s + (1.0 - s) / p as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn amdahl_points(s: f64) -> Vec<(usize, f64)> {
        [1usize, 2, 4, 8, 16, 32, 64]
            .iter()
            .map(|&p| (p, amdahl_speedup(s, p)))
            .collect()
    }

    #[test]
    fn amdahl_fit_recovers_serial_fraction() {
        for s in [0.01, 0.05, 0.2] {
            let fit = fit_amdahl(&amdahl_points(s)).unwrap();
            assert!((fit.serial_fraction - s).abs() < 1e-9, "s={s}");
            assert!(fit.r_squared > 0.999999);
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert!(fit_amdahl(&[(1, 1.0), (2, 2.0)]).is_none());
        assert!(fit_amdahl(&[(1, 0.0), (2, 0.0), (4, 0.0)]).is_none());
    }

    #[test]
    fn predictions_monotone() {
        let s = 0.08;
        let mut last = 0.0;
        for p in [1usize, 2, 4, 8, 16, 1024] {
            let v = amdahl_speedup(s, p);
            assert!(v > last);
            last = v;
        }
        assert!(amdahl_speedup(s, 1_000_000) < 1.0 / s);
    }
}
