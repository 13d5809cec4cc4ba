//! Vectorized aggregate kernels over column chunks.
//!
//! The columnar execution path compiles a whole-table aggregate query
//! (no joins, no GROUP BY) into a [`ColumnarPlan`]: typed predicates
//! plus one aggregate kernel per expression. Execution walks the
//! table's [`Chunk`]s with tight per-type loops — no per-row `Value`
//! dispatch, no row materialization — and leaves one [`Accumulator`]
//! partial per chunk.
//! Partials merge in ascending chunk order (a fixed left-deep merge
//! tree), so the result is deterministic regardless of how many pool
//! workers processed the chunks.
//!
//! SUM/AVG/STDDEV kernels feed the row path's own
//! `Accumulator::push_int`/`push_float` from their typed loops (the same
//! checked integer sums and the same `Moments` update), and cross-chunk
//! merging is the parallel row path's `Accumulator::merge` — so columnar
//! results match serial results to within the float tolerance the
//! differential oracle already accepts, and bit-for-bit on integer
//! aggregates.
//!
//! Compilation is deliberately strict: any predicate or aggregate whose
//! typed semantics could diverge from the row path (booleans in SUM,
//! cross-type comparisons the total order ranks by type, NULL
//! constants) declines, and the query falls back to row execution.

use super::aggregate::Accumulator;
use super::eval::Layout;
use super::select::{column_test, resolve_base_col, ColumnTest, TestKind};
use crate::column::{bit, Chunk, ColumnData};
use crate::error::Result;
use crate::schema::TableSchema;
use crate::sql::ast::{AggregateFn, BinaryOp, Expr};
use crate::table::Table;
use crate::value::{DataType, IStr, Value};
use perfdmf_pool as pool;
use std::cell::Cell;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::OnceLock;

// ---------------- columnar mode ----------------

/// When the executor uses the columnar path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnarMode {
    /// Never — always row execution.
    Off,
    /// Statistics decide (the default).
    Auto,
    /// Columnar whenever the query shape is eligible.
    Force,
}

thread_local! {
    static MODE_OVERRIDE: Cell<Option<ColumnarMode>> = const { Cell::new(None) };
}

/// The effective columnar mode: a thread-local override if set, else the
/// `PERFDMF_COLUMNAR` environment variable (`0` off, `1` force; read
/// once per process), else [`ColumnarMode::Auto`].
pub fn columnar_mode() -> ColumnarMode {
    static FROM_ENV: OnceLock<ColumnarMode> = OnceLock::new();
    if let Some(m) = MODE_OVERRIDE.with(|c| c.get()) {
        return m;
    }
    *FROM_ENV.get_or_init(|| match std::env::var("PERFDMF_COLUMNAR").ok().as_deref() {
        Some("0") | Some("off") | Some("false") => ColumnarMode::Off,
        Some("1") | Some("on") | Some("force") | Some("true") => ColumnarMode::Force,
        _ => ColumnarMode::Auto,
    })
}

/// Force a columnar mode for the current thread until the guard drops.
/// Tests use this to run the same query through both paths in-process.
pub fn override_for_thread(mode: ColumnarMode) -> ColumnarOverrideGuard {
    let prev = MODE_OVERRIDE.with(|c| c.replace(Some(mode)));
    ColumnarOverrideGuard { prev }
}

/// Restores the previous thread-local mode on drop.
pub struct ColumnarOverrideGuard {
    prev: Option<ColumnarMode>,
}

impl Drop for ColumnarOverrideGuard {
    fn drop(&mut self) {
        MODE_OVERRIDE.with(|c| c.set(self.prev));
    }
}

// ---------------- plan ----------------

/// One aggregate kernel: the function and its source column (`None` for
/// `COUNT(*)`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AggSpec {
    pub func: AggregateFn,
    pub col: Option<usize>,
}

/// A typed predicate constant.
#[derive(Debug, Clone, Copy)]
enum ColConst {
    I(i64),
    F(f64),
    B(bool),
    /// Interned dictionary id of a text constant.
    T(u32),
}

/// Comparison operator on the column's total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PredOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl PredOp {
    fn from_binary(op: BinaryOp) -> Option<PredOp> {
        Some(match op {
            BinaryOp::Eq => PredOp::Eq,
            BinaryOp::NotEq => PredOp::Ne,
            BinaryOp::Lt => PredOp::Lt,
            BinaryOp::LtEq => PredOp::Le,
            BinaryOp::Gt => PredOp::Gt,
            BinaryOp::GtEq => PredOp::Ge,
            _ => return None,
        })
    }

    #[inline]
    fn test(self, ord: Ordering) -> bool {
        match self {
            PredOp::Eq => ord == Ordering::Equal,
            PredOp::Ne => ord != Ordering::Equal,
            PredOp::Lt => ord == Ordering::Less,
            PredOp::Le => ord != Ordering::Greater,
            PredOp::Gt => ord == Ordering::Greater,
            PredOp::Ge => ord != Ordering::Less,
        }
    }
}

/// One compiled WHERE conjunct. All variants treat a NULL operand as
/// not-selected, matching three-valued WHERE semantics.
#[derive(Debug, Clone)]
enum ColPred {
    Cmp {
        col: usize,
        op: PredOp,
        k: ColConst,
    },
    Between {
        col: usize,
        lo: ColConst,
        hi: ColConst,
        negated: bool,
    },
    InList {
        col: usize,
        items: Vec<ColConst>,
        negated: bool,
        /// The original list carried a NULL: a non-matching operand
        /// yields NULL (not selected) instead of `negated`.
        saw_null: bool,
    },
    IsNull {
        col: usize,
        negated: bool,
    },
}

/// A compiled whole-table aggregate query.
#[derive(Debug, Clone)]
pub(crate) struct ColumnarPlan {
    /// One kernel per aggregate expression, in collection order.
    pub aggs: Vec<AggSpec>,
    preds: Vec<ColPred>,
}

impl ColumnarPlan {
    /// Number of compiled predicates (EXPLAIN detail).
    pub(crate) fn pred_count(&self) -> usize {
        self.preds.len()
    }
}

/// Execution measurements for EXPLAIN ANALYZE and telemetry.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ColScanStats {
    pub chunks: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub partitions: usize,
}

// ---------------- compilation ----------------

/// Type a constant against a column. `None` declines the predicate:
/// either the comparison is cross-type (the total order ranks by type,
/// which the row path handles) or the column kind has no kernel.
fn typed_const(ty: DataType, v: &Value) -> Option<ColConst> {
    match (ty, v) {
        (DataType::Integer | DataType::Double, Value::Int(i)) => Some(ColConst::I(*i)),
        (DataType::Integer | DataType::Double, Value::Float(f)) => Some(ColConst::F(*f)),
        (DataType::Boolean, Value::Bool(b)) => Some(ColConst::B(*b)),
        (DataType::Text, Value::Text(s)) => Some(ColConst::T(s.id())),
        _ => None,
    }
}

/// Compile the aggregate expressions plus WHERE conjuncts of a
/// single-table aggregate query. Returns `None` when any part has no
/// exact columnar equivalent — the caller falls back to row execution.
pub(crate) fn plan_columnar(
    schema: &TableSchema,
    binding: &str,
    layout1: &Layout,
    agg_exprs: &[&Expr],
    where_clause: Option<&Expr>,
    params: &[Value],
) -> Option<ColumnarPlan> {
    let mut aggs = Vec::with_capacity(agg_exprs.len());
    for a in agg_exprs {
        let Expr::Aggregate {
            func,
            arg,
            distinct: false,
        } = a
        else {
            return None; // DISTINCT pins the row path
        };
        let spec = match arg {
            None => AggSpec {
                func: *func,
                col: None,
            },
            Some(arg) => {
                let col = resolve_base_col(arg, binding, layout1)?;
                let ty = schema.columns[col].ty;
                let eligible = match func {
                    // COUNT(col) only needs the null bitmap.
                    AggregateFn::Count => true,
                    // Booleans SUM through the row path's float
                    // degradation and text SUM is an eval error; both
                    // decline so semantics stay identical.
                    AggregateFn::Sum | AggregateFn::Avg | AggregateFn::StdDev => {
                        matches!(ty, DataType::Integer | DataType::Double)
                    }
                    AggregateFn::Min | AggregateFn::Max => {
                        matches!(ty, DataType::Integer | DataType::Double | DataType::Text)
                    }
                };
                if !eligible {
                    return None;
                }
                AggSpec {
                    func: *func,
                    col: Some(col),
                }
            }
        };
        aggs.push(spec);
    }

    let mut preds = Vec::new();
    if let Some(pred) = where_clause {
        for c in super::select::conjuncts(pred) {
            preds.push(compile_conjunct(c, schema, binding, layout1, params)?);
        }
    }
    Some(ColumnarPlan { aggs, preds })
}

fn compile_conjunct(
    c: &Expr,
    schema: &TableSchema,
    binding: &str,
    layout1: &Layout,
    params: &[Value],
) -> Option<ColPred> {
    let ColumnTest { col, kind } = column_test(c, binding, layout1, params)?;
    let ty = schema.columns[col].ty;
    match kind {
        TestKind::Cmp { op, value } => {
            let op = PredOp::from_binary(op)?;
            let k = typed_const(ty, &value)?;
            // Text supports only dictionary-id equality; ordered text
            // comparisons stay on the row path.
            if matches!(k, ColConst::T(_)) && !matches!(op, PredOp::Eq | PredOp::Ne) {
                return None;
            }
            Some(ColPred::Cmp { col, op, k })
        }
        TestKind::Between { low, high, negated } => {
            let numeric = matches!(ty, DataType::Integer | DataType::Double);
            if !numeric || low.is_null() || high.is_null() {
                return None;
            }
            Some(ColPred::Between {
                col,
                lo: typed_const(ty, &low)?,
                hi: typed_const(ty, &high)?,
                negated,
            })
        }
        TestKind::InList { items, negated } => Some(ColPred::InList {
            col,
            // A NULL or cross-type item never equals this column's values
            // (sql_eq ranks by type): inert, drop it.
            items: items.iter().filter_map(|v| typed_const(ty, v)).collect(),
            negated,
            saw_null: items.iter().any(Value::is_null),
        }),
        TestKind::IsNull { negated } => Some(ColPred::IsNull { col, negated }),
    }
}

// ---------------- predicate kernels ----------------

#[inline]
fn clear_bit(words: &mut [u64], i: usize) {
    words[i >> 6] &= !(1u64 << (i & 63));
}

/// Compare row `i` of a typed column against a constant, on the same
/// total order the row path uses. Caller guarantees the row is live and
/// non-NULL. Returns `None` if the column data has no kernel.
#[inline]
fn cmp_cell(data: &ColumnData, i: usize, k: ColConst) -> Option<Ordering> {
    Some(match (data, k) {
        (ColumnData::Int(xs), ColConst::I(b)) => xs[i].cmp(&b),
        (ColumnData::Int(xs), ColConst::F(b)) => (xs[i] as f64).total_cmp(&b),
        (ColumnData::Int(xs), ColConst::B(b)) => (xs[i] != 0).cmp(&b),
        (ColumnData::Float(xs), ColConst::I(b)) => xs[i].total_cmp(&(b as f64)),
        (ColumnData::Float(xs), ColConst::F(b)) => xs[i].total_cmp(&b),
        (ColumnData::Dict(ds), ColConst::T(id)) => {
            if ds[i] == id {
                Ordering::Equal
            } else {
                // Only Eq/Ne reach dictionary columns; any non-equal
                // ordering stands in for "not equal".
                Ordering::Less
            }
        }
        _ => return None,
    })
}

/// Apply one predicate to the selection bitmap. Returns `false` when the
/// column data is unsupported and the query must fall back.
fn apply_pred(sel: &mut [u64], chunk: &Chunk, pred: &ColPred) -> bool {
    match pred {
        ColPred::IsNull { col, negated } => {
            let nulls = &chunk.cols[*col].nulls;
            for i in 0..chunk.len {
                if bit(sel, i) && (bit(nulls, i) == *negated) {
                    clear_bit(sel, i);
                }
            }
            true
        }
        ColPred::Cmp { col, op, k } => {
            let cc = &chunk.cols[*col];
            if matches!(cc.data, ColumnData::Unsupported) {
                return false;
            }
            for i in 0..chunk.len {
                if !bit(sel, i) {
                    continue;
                }
                let keep =
                    !bit(&cc.nulls, i) && cmp_cell(&cc.data, i, *k).is_some_and(|ord| op.test(ord));
                if !keep {
                    clear_bit(sel, i);
                }
            }
            true
        }
        ColPred::Between {
            col,
            lo,
            hi,
            negated,
        } => {
            let cc = &chunk.cols[*col];
            if matches!(cc.data, ColumnData::Unsupported) {
                return false;
            }
            for i in 0..chunk.len {
                if !bit(sel, i) {
                    continue;
                }
                let keep = !bit(&cc.nulls, i)
                    && match (cmp_cell(&cc.data, i, *lo), cmp_cell(&cc.data, i, *hi)) {
                        (Some(a), Some(b)) => {
                            (a != Ordering::Less && b != Ordering::Greater) != *negated
                        }
                        _ => false,
                    };
                if !keep {
                    clear_bit(sel, i);
                }
            }
            true
        }
        ColPred::InList {
            col,
            items,
            negated,
            saw_null,
        } => {
            let cc = &chunk.cols[*col];
            if matches!(cc.data, ColumnData::Unsupported) && !items.is_empty() {
                return false;
            }
            for i in 0..chunk.len {
                if !bit(sel, i) {
                    continue;
                }
                let keep = if bit(&cc.nulls, i) {
                    false
                } else {
                    let matched = items
                        .iter()
                        .any(|k| cmp_cell(&cc.data, i, *k) == Some(Ordering::Equal));
                    if matched {
                        !*negated
                    } else if *saw_null {
                        false // NULL in the list ⇒ non-match is NULL
                    } else {
                        *negated
                    }
                };
                if !keep {
                    clear_bit(sel, i);
                }
            }
            true
        }
    }
}

/// Build the chunk's selection bitmap: live ∧ every predicate. `None`
/// means an unsupported column forced a fallback.
fn selection(chunk: &Chunk, preds: &[ColPred]) -> Option<Vec<u64>> {
    let mut sel = chunk.live.clone();
    for p in preds {
        if !apply_pred(&mut sel, chunk, p) {
            return None;
        }
    }
    Some(sel)
}

// ---------------- aggregate kernels ----------------

/// Count of selected rows with bit clear in `nulls`.
fn count_non_null(sel: &[u64], nulls: &[u64]) -> u64 {
    sel.iter()
        .zip(nulls)
        .map(|(s, n)| (s & !n).count_ones() as u64)
        .sum()
}

/// Run one aggregate kernel over a chunk's selected rows. `None` means
/// the column data has no kernel (fallback).
fn agg_partial(chunk: &Chunk, sel: &[u64], spec: AggSpec) -> Option<Accumulator> {
    let AggSpec { func, col } = spec;
    let Some(col) = col else {
        // COUNT(*): every selected row.
        let count: u64 = sel.iter().map(|w| w.count_ones() as u64).sum();
        return Some(Accumulator::from_parts(func, count, None, None));
    };
    let cc = &chunk.cols[col];
    if func == AggregateFn::Count {
        let count = count_non_null(sel, &cc.nulls);
        return Some(Accumulator::from_parts(func, count, None, None));
    }
    match (&cc.data, func) {
        (ColumnData::Int(xs), AggregateFn::Sum | AggregateFn::Avg | AggregateFn::StdDev) => {
            let mut acc = Accumulator::new(func, false);
            for (i, &x) in xs.iter().enumerate() {
                if bit(sel, i) && !bit(&cc.nulls, i) {
                    acc.push_int(x);
                }
            }
            Some(acc)
        }
        (ColumnData::Float(xs), AggregateFn::Sum | AggregateFn::Avg | AggregateFn::StdDev) => {
            let mut acc = Accumulator::new(func, false);
            for (i, &x) in xs.iter().enumerate() {
                if bit(sel, i) && !bit(&cc.nulls, i) {
                    acc.push_float(x);
                }
            }
            Some(acc)
        }
        (ColumnData::Int(xs), AggregateFn::Min | AggregateFn::Max) => {
            let mut count = 0u64;
            let mut best: Option<i64> = None;
            let want = if func == AggregateFn::Min {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            for (i, &x) in xs.iter().enumerate() {
                if bit(sel, i) && !bit(&cc.nulls, i) {
                    count += 1;
                    if best.is_none_or(|b| x.cmp(&b) == want) {
                        best = Some(x);
                    }
                }
            }
            Some(minmax_accumulator(func, count, best.map(Value::Int)))
        }
        (ColumnData::Float(xs), AggregateFn::Min | AggregateFn::Max) => {
            let mut count = 0u64;
            let mut best: Option<f64> = None;
            let want = if func == AggregateFn::Min {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            for (i, &x) in xs.iter().enumerate() {
                if bit(sel, i) && !bit(&cc.nulls, i) {
                    count += 1;
                    // total_cmp matches the row path's Value order (NaN
                    // and -0.0 included).
                    if best.is_none_or(|b| x.total_cmp(&b) == want) {
                        best = Some(x);
                    }
                }
            }
            Some(minmax_accumulator(func, count, best.map(Value::Float)))
        }
        (ColumnData::Dict(ds), AggregateFn::Min | AggregateFn::Max) => {
            let mut count = 0u64;
            let mut best: Option<IStr> = None;
            let want = if func == AggregateFn::Min {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            for (i, &id) in ds.iter().enumerate() {
                if bit(sel, i) && !bit(&cc.nulls, i) {
                    count += 1;
                    match &best {
                        Some(b) if b.id() == id => {}
                        _ => {
                            let s = IStr::from_id(id)?;
                            if best
                                .as_ref()
                                .is_none_or(|b| s.as_str().cmp(b.as_str()) == want)
                            {
                                best = Some(s);
                            }
                        }
                    }
                }
            }
            Some(minmax_accumulator(func, count, best.map(Value::Text)))
        }
        _ => None,
    }
}

fn minmax_accumulator(func: AggregateFn, count: u64, best: Option<Value>) -> Accumulator {
    let (min, max) = if func == AggregateFn::Min {
        (best, None)
    } else {
        (None, best)
    };
    Accumulator::from_parts(func, count, min, max)
}

// ---------------- chunk dispatch ----------------

/// Split `0..n_chunks` into at most `max_parts` contiguous runs.
fn chunk_runs(n_chunks: usize, max_parts: usize) -> Vec<Range<usize>> {
    let parts = max_parts.clamp(1, n_chunks);
    let per = n_chunks.div_ceil(parts);
    (0..parts)
        .map(|p| (p * per).min(n_chunks)..((p + 1) * per).min(n_chunks))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Execute a compiled plan over a table. Returns `Ok(None)` when a chunk
/// exposed unsupported column data — the caller must fall back to row
/// execution. Chunk partials merge in ascending chunk order regardless
/// of worker count, so results are deterministic under any
/// `PERFDMF_THREADS` setting.
pub(crate) fn execute_columnar(
    table: &Table,
    plan: &ColumnarPlan,
) -> Result<Option<(Vec<Accumulator>, ColScanStats)>> {
    let n_chunks = table.chunk_count();
    let mut accs: Vec<Accumulator> = plan
        .aggs
        .iter()
        .map(|a| Accumulator::new(a.func, false))
        .collect();
    let mut stats = ColScanStats {
        chunks: n_chunks,
        ..ColScanStats::default()
    };
    if n_chunks == 0 {
        return Ok(Some((accs, stats)));
    }
    let runs = match pool::partitions(table.slab_len()) {
        Some(parts) => chunk_runs(n_chunks, parts.len()),
        None => chunk_runs(n_chunks, 1),
    };
    stats.partitions = if runs.len() > 1 { runs.len() } else { 0 };

    type RunOut = Option<(Vec<Vec<Accumulator>>, u64, u64)>;
    let runs_ref = &runs;
    let results: Vec<RunOut> = pool::try_run(runs.len(), |pi| -> Result<RunOut> {
        let mut partials = Vec::new();
        let mut hits = 0u64;
        let mut misses = 0u64;
        for ci in runs_ref[pi].clone() {
            let (chunk, hit) = table.chunk(ci);
            let Some(chunk) = chunk else { continue };
            if hit {
                hits += 1;
            } else {
                misses += 1;
            }
            let Some(sel) = selection(&chunk, &plan.preds) else {
                return Ok(None);
            };
            let mut chunk_accs = Vec::with_capacity(plan.aggs.len());
            for spec in &plan.aggs {
                match agg_partial(&chunk, &sel, *spec) {
                    Some(a) => chunk_accs.push(a),
                    None => return Ok(None),
                }
            }
            partials.push(chunk_accs);
        }
        Ok(Some((partials, hits, misses)))
    })?;

    for run in results {
        let Some((partials, hits, misses)) = run else {
            return Ok(None);
        };
        stats.cache_hits += hits;
        stats.cache_misses += misses;
        for chunk_accs in partials {
            for (dst, src) in accs.iter_mut().zip(&chunk_accs) {
                dst.merge(src)?;
            }
        }
    }
    Ok(Some((accs, stats)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::table::Row;

    fn schema() -> TableSchema {
        TableSchema::new(
            "m",
            vec![
                ColumnDef::new("a", DataType::Integer),
                ColumnDef::new("x", DataType::Double),
                ColumnDef::new("s", DataType::Text),
                ColumnDef::new("b", DataType::Boolean),
            ],
        )
        .unwrap()
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    if i % 11 == 5 {
                        Value::Null
                    } else {
                        Value::Int(i as i64)
                    },
                    Value::Float(i as f64 * 0.25),
                    Value::from(["alpha", "beta", "gamma"][i % 3]),
                    Value::Bool(i % 2 == 0),
                ]
            })
            .collect()
    }

    fn table_with(n: usize) -> Table {
        let mut t = Table::new(schema());
        for r in rows(n) {
            t.insert(r).unwrap();
        }
        t
    }

    fn layout1(schema: &TableSchema) -> Layout {
        Layout::single(
            schema.name.clone(),
            schema.columns.iter().map(|c| c.name.clone()).collect(),
        )
    }

    fn agg(func: AggregateFn, col: Option<&str>) -> Expr {
        Expr::Aggregate {
            func,
            arg: col.map(|c| {
                Box::new(Expr::Column {
                    table: None,
                    column: c.to_string(),
                })
            }),
            distinct: false,
        }
    }

    /// Run `exprs` through both the serial accumulator and the columnar
    /// kernels and compare.
    fn columnar_matches_serial(t: &Table, exprs: &[Expr], where_clause: Option<&Expr>) {
        let sch = &t.schema;
        let l1 = layout1(sch);
        let refs: Vec<&Expr> = exprs.iter().collect();
        let plan = plan_columnar(sch, &sch.name, &l1, &refs, where_clause, &[])
            .expect("plan should compile");
        let (cols, stats) = execute_columnar(t, &plan).unwrap().expect("no fallback");
        assert_eq!(stats.chunks, t.chunk_count());

        // Serial reference over the same rows.
        let env_rows: Vec<&Row> = t.iter().map(|(_, r)| r).collect();
        let mut serial: Vec<Accumulator> = exprs
            .iter()
            .map(|e| match e {
                Expr::Aggregate { func, distinct, .. } => Accumulator::new(*func, *distinct),
                _ => unreachable!(),
            })
            .collect();
        let pred = where_clause.map(|w| l1.bind(w).unwrap());
        for row in env_rows {
            let tuple = [Some(row)];
            let env = super::super::eval::Env::new(&tuple, &[]);
            if let Some(pred) = &pred {
                if !super::super::eval::eval_condition(pred, &env).unwrap() {
                    continue;
                }
            }
            for (acc, e) in serial.iter_mut().zip(exprs) {
                let Expr::Aggregate { arg, .. } = e else {
                    unreachable!()
                };
                match arg {
                    None => acc.update(None).unwrap(),
                    Some(a) => {
                        let v = super::super::eval::eval(&l1.bind(a).unwrap(), &env).unwrap();
                        acc.update(Some(&v)).unwrap();
                    }
                }
            }
        }
        for (i, (c, s)) in cols.iter().zip(&serial).enumerate() {
            match (c.finish(), s.finish()) {
                (Value::Float(a), Value::Float(b)) => {
                    let tol = 1e-9 * b.abs().max(1.0);
                    assert!((a - b).abs() <= tol, "agg {i}: {a} vs {b}");
                }
                (a, b) => assert_eq!(a, b, "agg {i}"),
            }
        }
    }

    #[test]
    fn kernels_match_serial_accumulators() {
        let t = table_with(10_000); // spans 3 chunks
        let exprs = vec![
            agg(AggregateFn::Count, None),
            agg(AggregateFn::Count, Some("a")),
            agg(AggregateFn::Sum, Some("a")),
            agg(AggregateFn::Avg, Some("x")),
            agg(AggregateFn::StdDev, Some("x")),
            agg(AggregateFn::Min, Some("a")),
            agg(AggregateFn::Max, Some("x")),
            agg(AggregateFn::Min, Some("s")),
            agg(AggregateFn::Max, Some("s")),
        ];
        columnar_matches_serial(&t, &exprs, None);
    }

    #[test]
    fn predicates_match_row_filtering() {
        let t = table_with(6_000);
        let col = |c: &str| Expr::Column {
            table: None,
            column: c.to_string(),
        };
        let preds = vec![
            // a > 100 AND x <= 700.5
            Expr::Binary {
                op: BinaryOp::And,
                left: Box::new(Expr::Binary {
                    op: BinaryOp::Gt,
                    left: Box::new(col("a")),
                    right: Box::new(Expr::Literal(Value::Int(100))),
                }),
                right: Box::new(Expr::Binary {
                    op: BinaryOp::LtEq,
                    left: Box::new(col("x")),
                    right: Box::new(Expr::Literal(Value::Float(700.5))),
                }),
            },
            // s = 'beta'
            Expr::Binary {
                op: BinaryOp::Eq,
                left: Box::new(col("s")),
                right: Box::new(Expr::Literal(Value::from("beta"))),
            },
            // a BETWEEN 50 AND 2000
            Expr::Between {
                operand: Box::new(col("a")),
                low: Box::new(Expr::Literal(Value::Int(50))),
                high: Box::new(Expr::Literal(Value::Int(2000))),
                negated: false,
            },
            // a IS NULL
            Expr::IsNull {
                operand: Box::new(col("a")),
                negated: false,
            },
            // a IN (7, 8, 9.0, NULL)
            Expr::InList {
                operand: Box::new(col("a")),
                list: vec![
                    Expr::Literal(Value::Int(7)),
                    Expr::Literal(Value::Int(8)),
                    Expr::Literal(Value::Float(9.0)),
                    Expr::Literal(Value::Null),
                ],
                negated: false,
            },
            // s NOT IN ('alpha')
            Expr::InList {
                operand: Box::new(col("s")),
                list: vec![Expr::Literal(Value::from("alpha"))],
                negated: true,
            },
            // b = TRUE
            Expr::Binary {
                op: BinaryOp::Eq,
                left: Box::new(col("b")),
                right: Box::new(Expr::Literal(Value::Bool(true))),
            },
        ];
        let exprs = vec![
            agg(AggregateFn::Count, None),
            agg(AggregateFn::Sum, Some("a")),
            agg(AggregateFn::Avg, Some("x")),
        ];
        for p in &preds {
            columnar_matches_serial(&t, &exprs, Some(p));
        }
    }

    #[test]
    fn strict_compilation_declines_divergent_shapes() {
        let sch = schema();
        let l1 = layout1(&sch);
        let sum_bool = agg(AggregateFn::Sum, Some("b"));
        let refs = vec![&sum_bool];
        assert!(
            plan_columnar(&sch, &sch.name, &l1, &refs, None, &[]).is_none(),
            "SUM over a boolean column must decline"
        );
        let count = agg(AggregateFn::Count, None);
        let refs = vec![&count];
        // Cross-type comparison: int column vs text constant.
        let pred = Expr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(Expr::Column {
                table: None,
                column: "a".into(),
            }),
            right: Box::new(Expr::Literal(Value::from("nope"))),
        };
        assert!(plan_columnar(&sch, &sch.name, &l1, &refs, Some(&pred), &[]).is_none());
        // Ordered text comparison declines too.
        let pred = Expr::Binary {
            op: BinaryOp::Lt,
            left: Box::new(Expr::Column {
                table: None,
                column: "s".into(),
            }),
            right: Box::new(Expr::Literal(Value::from("m"))),
        };
        assert!(plan_columnar(&sch, &sch.name, &l1, &refs, Some(&pred), &[]).is_none());
    }

    #[test]
    fn merge_order_is_chunk_order_for_any_partitioning() {
        let t = table_with(20_000); // 5 chunks
        let exprs = [
            agg(AggregateFn::StdDev, Some("x")),
            agg(AggregateFn::Sum, Some("a")),
        ];
        let sch = &t.schema;
        let l1 = layout1(sch);
        let refs: Vec<&Expr> = exprs.iter().collect();
        let plan = plan_columnar(sch, &sch.name, &l1, &refs, None, &[]).unwrap();
        let serial_pool = pool::override_for_thread(1, usize::MAX);
        let (one, _) = execute_columnar(&t, &plan).unwrap().unwrap();
        drop(serial_pool);
        let wide_pool = pool::override_for_thread(4, 1);
        let (four, _) = execute_columnar(&t, &plan).unwrap().unwrap();
        drop(wide_pool);
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.finish(), b.finish(), "bit-identical across worker counts");
        }
    }

    #[test]
    fn mode_override_round_trips() {
        // The base mode depends on the PERFDMF_COLUMNAR environment (CI
        // legs set it), so only assert the override stack semantics.
        let base = columnar_mode();
        {
            let _g = override_for_thread(ColumnarMode::Force);
            assert_eq!(columnar_mode(), ColumnarMode::Force);
            {
                let _g2 = override_for_thread(ColumnarMode::Off);
                assert_eq!(columnar_mode(), ColumnarMode::Off);
            }
            assert_eq!(columnar_mode(), ColumnarMode::Force);
        }
        assert_eq!(columnar_mode(), base);
    }
}
