//! Aggregate accumulators: COUNT, SUM, AVG, MIN, MAX, STDDEV.
//!
//! STDDEV keeps its running mean and spread in [`Moments`] — the one
//! Welford/Chan accumulator the profile model uses for atomic events and
//! the analysis toolkit uses for its summaries — so SQL results and
//! toolkit statistics agree bit-for-bit on the same data, serially and
//! across merged partitions.

use super::hash::FastSet;
use crate::error::{DbError, Result};
use crate::sql::ast::AggregateFn;
use crate::value::Value;
use perfdmf_telemetry::Moments;

/// One accumulator instance (per aggregate expression per group).
#[derive(Debug, Clone)]
pub(crate) struct Accumulator {
    func: AggregateFn,
    distinct: bool,
    seen: FastSet<Value>,
    count: u64,
    /// Running sum kept as integer while possible (exact for counters).
    int_sum: i64,
    int_exact: bool,
    float_sum: f64,
    min: Option<Value>,
    max: Option<Value>,
    /// Mean and spread of the numeric inputs (STDDEV only; SUM and AVG
    /// need just the sum and count).
    moments: Moments,
}

impl Accumulator {
    /// New accumulator for `func`.
    pub(crate) fn new(func: AggregateFn, distinct: bool) -> Self {
        Accumulator {
            func,
            distinct,
            seen: FastSet::default(),
            count: 0,
            int_sum: 0,
            int_exact: true,
            float_sum: 0.0,
            min: None,
            max: None,
            moments: Moments::default(),
        }
    }

    /// Feed one input value. `None` means `COUNT(*)` row marker.
    pub(crate) fn update(&mut self, value: Option<&Value>) -> Result<()> {
        let Some(v) = value else {
            // COUNT(*): every row counts.
            self.count += 1;
            return Ok(());
        };
        if v.is_null() {
            return Ok(()); // aggregates skip NULLs
        }
        if self.distinct && !self.seen.insert(v.clone()) {
            return Ok(());
        }
        match self.func {
            AggregateFn::Count => self.count += 1,
            AggregateFn::Min => {
                self.count += 1;
                if self.min.as_ref().is_none_or(|m| v < m) {
                    self.min = Some(v.clone());
                }
            }
            AggregateFn::Max => {
                self.count += 1;
                if self.max.as_ref().is_none_or(|m| v > m) {
                    self.max = Some(v.clone());
                }
            }
            AggregateFn::Sum | AggregateFn::Avg | AggregateFn::StdDev => match v {
                Value::Int(i) => self.push_int(*i),
                _ => self.push_float(v.as_float().ok_or_else(|| {
                    DbError::Eval(format!("{} of non-numeric value {v}", self.func.name()))
                })?),
            },
        }
        Ok(())
    }

    /// Fold one integer input into SUM/AVG/STDDEV state: the checked
    /// integer sum (degrading to float on overflow) and, for STDDEV, the
    /// moments. The columnar SUM/AVG kernels (see `exec::vector`) call
    /// this and [`Accumulator::push_float`] directly from their typed
    /// loops, so their chunk partial is bit-identical to row execution
    /// over the same rows.
    #[inline]
    pub(crate) fn push_int(&mut self, i: i64) {
        self.count += 1;
        if self.int_exact {
            match self.int_sum.checked_add(i) {
                Some(s) => self.int_sum = s,
                None => {
                    self.int_exact = false;
                    self.float_sum = self.int_sum as f64 + i as f64;
                }
            }
        } else {
            self.float_sum += i as f64;
        }
        if self.func == AggregateFn::StdDev {
            self.moments.push(i as f64);
        }
    }

    /// Fold one non-integer numeric input into SUM/AVG/STDDEV state (the
    /// sum turns float for good).
    #[inline]
    pub(crate) fn push_float(&mut self, x: f64) {
        self.count += 1;
        if self.int_exact {
            self.float_sum = self.int_sum as f64;
            self.int_exact = false;
        }
        self.float_sum += x;
        if self.func == AggregateFn::StdDev {
            self.moments.push(x);
        }
    }

    /// A COUNT/MIN/MAX partial computed by a columnar kernel. DISTINCT
    /// never reaches the columnar path.
    pub(crate) fn from_parts(
        func: AggregateFn,
        count: u64,
        min: Option<Value>,
        max: Option<Value>,
    ) -> Self {
        Accumulator {
            count,
            min,
            max,
            ..Accumulator::new(func, false)
        }
    }

    /// A STDDEV partial from the moments of its values, which a columnar
    /// kernel computes in one batch.
    pub(crate) fn from_moments(moments: Moments) -> Self {
        Accumulator {
            count: moments.count,
            moments,
            ..Accumulator::new(AggregateFn::StdDev, false)
        }
    }

    /// Fold another accumulator over the same aggregate expression into
    /// this one. Used by the parallel execution path: each partition feeds
    /// its rows into a private accumulator, then partials are merged in
    /// partition-index order. The merge is commutative up to float
    /// rounding ([`Moments::merge`] is Chan et al.'s pairwise update).
    pub(crate) fn merge(&mut self, other: &Accumulator) -> Result<()> {
        debug_assert_eq!(self.func, other.func);
        if self.distinct || other.distinct {
            return Err(DbError::Unsupported(
                "DISTINCT aggregates cannot be merged across partitions".into(),
            ));
        }
        if other.count == 0 {
            return Ok(());
        }
        if self.count == 0 {
            let func = self.func;
            *self = other.clone();
            self.func = func;
            return Ok(());
        }
        match self.func {
            AggregateFn::Count => {}
            AggregateFn::Min => {
                if let Some(v) = &other.min {
                    if self.min.as_ref().is_none_or(|m| v < m) {
                        self.min = Some(v.clone());
                    }
                }
            }
            AggregateFn::Max => {
                if let Some(v) = &other.max {
                    if self.max.as_ref().is_none_or(|m| v > m) {
                        self.max = Some(v.clone());
                    }
                }
            }
            AggregateFn::Sum | AggregateFn::Avg | AggregateFn::StdDev => {
                if self.int_exact && other.int_exact {
                    match self.int_sum.checked_add(other.int_sum) {
                        Some(s) => self.int_sum = s,
                        None => {
                            self.int_exact = false;
                            self.float_sum = self.int_sum as f64 + other.int_sum as f64;
                        }
                    }
                } else {
                    let lhs = if self.int_exact {
                        self.int_sum as f64
                    } else {
                        self.float_sum
                    };
                    let rhs = if other.int_exact {
                        other.int_sum as f64
                    } else {
                        other.float_sum
                    };
                    self.int_exact = false;
                    self.float_sum = lhs + rhs;
                }
                self.moments.merge(&other.moments);
            }
        }
        self.count += other.count;
        Ok(())
    }

    /// Final aggregate value.
    pub(crate) fn finish(&self) -> Value {
        match self.func {
            AggregateFn::Count => Value::Int(self.count as i64),
            AggregateFn::Min => self.min.clone().unwrap_or(Value::Null),
            AggregateFn::Max => self.max.clone().unwrap_or(Value::Null),
            AggregateFn::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.int_exact {
                    Value::Int(self.int_sum)
                } else {
                    Value::Float(self.float_sum)
                }
            }
            AggregateFn::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    let sum = if self.int_exact {
                        self.int_sum as f64
                    } else {
                        self.float_sum
                    };
                    Value::Float(sum / self.count as f64)
                }
            }
            AggregateFn::StdDev => self.moments.stddev().map_or(Value::Null, Value::Float),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggregateFn, vals: &[Value]) -> Value {
        let mut acc = Accumulator::new(func, false);
        for v in vals {
            acc.update(Some(v)).unwrap();
        }
        acc.finish()
    }

    fn ints(v: &[i64]) -> Vec<Value> {
        v.iter().map(|&i| Value::Int(i)).collect()
    }

    #[test]
    fn count_skips_nulls() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(2)];
        assert_eq!(run(AggregateFn::Count, &vals), Value::Int(2));
    }

    #[test]
    fn count_star_counts_everything() {
        let mut acc = Accumulator::new(AggregateFn::Count, false);
        for _ in 0..5 {
            acc.update(None).unwrap();
        }
        assert_eq!(acc.finish(), Value::Int(5));
    }

    #[test]
    fn sum_integer_exact() {
        assert_eq!(run(AggregateFn::Sum, &ints(&[1, 2, 3])), Value::Int(6));
        // mixed types fall to float
        let vals = vec![Value::Int(1), Value::Float(0.5)];
        assert_eq!(run(AggregateFn::Sum, &vals), Value::Float(1.5));
    }

    #[test]
    fn sum_overflow_degrades_to_float() {
        let vals = ints(&[i64::MAX, 10]);
        match run(AggregateFn::Sum, &vals) {
            Value::Float(f) => assert!((f - (i64::MAX as f64 + 10.0)).abs() < 1e4),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn avg_and_stddev() {
        let vals = ints(&[2, 4, 4, 4, 5, 5, 7, 9]);
        assert_eq!(run(AggregateFn::Avg, &vals), Value::Float(5.0));
        // sample stddev of this classic dataset: sqrt(32/7)
        match run(AggregateFn::StdDev, &vals) {
            Value::Float(s) => assert!((s - (32.0f64 / 7.0).sqrt()).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stddev_needs_two_values() {
        assert_eq!(run(AggregateFn::StdDev, &ints(&[5])), Value::Null);
        assert_eq!(run(AggregateFn::StdDev, &[]), Value::Null);
    }

    #[test]
    fn min_max_text() {
        let vals = vec![
            Value::Text("mpi_send".into()),
            Value::Text("main".into()),
            Value::Text("mpi_recv".into()),
        ];
        assert_eq!(run(AggregateFn::Min, &vals), Value::Text("main".into()));
        assert_eq!(run(AggregateFn::Max, &vals), Value::Text("mpi_send".into()));
    }

    #[test]
    fn empty_aggregates_are_null_except_count() {
        assert_eq!(run(AggregateFn::Sum, &[]), Value::Null);
        assert_eq!(run(AggregateFn::Avg, &[]), Value::Null);
        assert_eq!(run(AggregateFn::Min, &[]), Value::Null);
        assert_eq!(run(AggregateFn::Count, &[]), Value::Int(0));
    }

    #[test]
    fn distinct_dedupes() {
        let mut acc = Accumulator::new(AggregateFn::Count, true);
        for v in ints(&[1, 1, 2, 2, 3]) {
            acc.update(Some(&v)).unwrap();
        }
        assert_eq!(acc.finish(), Value::Int(3));
        let mut acc = Accumulator::new(AggregateFn::Sum, true);
        for v in ints(&[5, 5, 7]) {
            acc.update(Some(&v)).unwrap();
        }
        assert_eq!(acc.finish(), Value::Int(12));
    }

    #[test]
    fn non_numeric_sum_errors() {
        let mut acc = Accumulator::new(AggregateFn::Sum, false);
        assert!(acc.update(Some(&Value::Text("x".into()))).is_err());
    }

    /// Split `vals` at every position, accumulate halves separately, merge,
    /// and compare against the single-pass result.
    fn merged_matches_serial(func: AggregateFn, vals: &[Value]) {
        let serial = run(func, vals);
        for split in 0..=vals.len() {
            let mut left = Accumulator::new(func, false);
            let mut right = Accumulator::new(func, false);
            for v in &vals[..split] {
                left.update(Some(v)).unwrap();
            }
            for v in &vals[split..] {
                right.update(Some(v)).unwrap();
            }
            left.merge(&right).unwrap();
            match (left.finish(), serial.clone()) {
                (Value::Float(a), Value::Float(b)) => {
                    let tol = 1e-9 * b.abs().max(1.0);
                    assert!((a - b).abs() <= tol, "{func:?} split {split}: {a} vs {b}");
                }
                (a, b) => assert_eq!(a, b, "{func:?} split {split}"),
            }
        }
    }

    #[test]
    fn merge_matches_serial_for_every_split() {
        let vals = ints(&[2, 4, 4, 4, 5, 5, 7, 9]);
        for func in [
            AggregateFn::Count,
            AggregateFn::Sum,
            AggregateFn::Avg,
            AggregateFn::Min,
            AggregateFn::Max,
            AggregateFn::StdDev,
        ] {
            merged_matches_serial(func, &vals);
        }
        let floats: Vec<Value> = [1.5, -2.25, 3.75, 0.0, 8.125]
            .iter()
            .map(|&f| Value::Float(f))
            .collect();
        for func in [AggregateFn::Sum, AggregateFn::Avg, AggregateFn::StdDev] {
            merged_matches_serial(func, &floats);
        }
    }

    #[test]
    fn merge_with_empty_side_is_identity() {
        let vals = ints(&[3, 1, 4]);
        merged_matches_serial(AggregateFn::Sum, &vals);
        let mut empty = Accumulator::new(AggregateFn::StdDev, false);
        let mut full = Accumulator::new(AggregateFn::StdDev, false);
        for v in &ints(&[10, 20, 30]) {
            full.update(Some(v)).unwrap();
        }
        empty.merge(&full).unwrap();
        assert_eq!(empty.finish(), full.finish());
    }

    #[test]
    fn merge_int_overflow_degrades_to_float() {
        let mut a = Accumulator::new(AggregateFn::Sum, false);
        let mut b = Accumulator::new(AggregateFn::Sum, false);
        a.update(Some(&Value::Int(i64::MAX))).unwrap();
        b.update(Some(&Value::Int(10))).unwrap();
        a.merge(&b).unwrap();
        match a.finish() {
            Value::Float(f) => assert!((f - (i64::MAX as f64 + 10.0)).abs() < 1e4),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn merge_rejects_distinct() {
        let mut a = Accumulator::new(AggregateFn::Count, true);
        let b = Accumulator::new(AggregateFn::Count, true);
        assert!(a.merge(&b).is_err());
    }
}
