//! Vectorized aggregate kernels over column chunks.
//!
//! The columnar execution path compiles an aggregate over one *fact*
//! table, optionally joined to *dimension* tables on their INTEGER
//! PRIMARY KEY, into a [`ColumnarPlan`]: typed predicates, one key-set
//! test per dimension, an optional grouping column, and one aggregate
//! kernel per aggregate call. A single-table aggregate is the case with
//! no dimension and no group.
//!
//! * Each dimension's predicates were evaluated once, at plan time, to a
//!   [`KeySet`] of its matching primary keys. The fact's foreign key is
//!   then tested against the set like any other predicate
//!   ([`TestKind::KeySet`]), so the join never materializes a row.
//! * GROUP BY is the foreign key of one dimension, or columns of that
//!   dimension (which its key determines). The grouping dimension's key
//!   set numbers its keys, so a row finds its group through a dense
//!   table indexed by `key - min_key` (or a binary search when the keys
//!   are sparse); no row is hashed.
//! * Only the chunks that hold candidate rows are read (the plan lists
//!   them when an index located the candidates), so no other chunk is
//!   built or scanned.
//!
//! Execution walks the chunks with tight per-type loops — no per-row
//! `Value` dispatch, no row materialization — and leaves one
//! [`Accumulator`] partial per group per chunk. Partials merge in
//! ascending chunk order (a fixed left-deep merge tree), so the result
//! is deterministic regardless of how many pool workers processed the
//! chunks, and groups come out in the order of their first fact row.
//!
//! SUM/AVG kernels feed the row path's own
//! `Accumulator::push_int`/`push_float` from their typed loops (the same
//! checked integer sums), STDDEV folds each group's values of a chunk
//! two-pass into `Moments` (`Moments::from_samples`), and cross-chunk
//! merging is the parallel row path's `Accumulator::merge` — so columnar
//! results match serial results to within the float tolerance the
//! differential oracle already accepts, and bit-for-bit on COUNT, MIN,
//! MAX and integer SUM.
//!
//! Compilation is deliberately strict: any predicate or aggregate whose
//! typed semantics could diverge from the row path (booleans in SUM,
//! cross-type comparisons the total order ranks by type, NULL
//! constants) declines, and the query falls back to row execution.

use super::aggregate::Accumulator;
use super::eval::Layout;
use super::select::{column_test, ColumnTest, TestKind};
use crate::column::{bit, Chunk, ColumnData, CHUNK_ROWS};
use crate::error::Result;
use crate::schema::TableSchema;
use crate::sql::ast::{AggregateFn, BinaryOp, Expr};
use crate::table::{RowId, Table};
use crate::value::{DataType, IStr, Value};
use perfdmf_pool as pool;
use perfdmf_telemetry::Moments;
use std::cell::Cell;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

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
pub(crate) enum ColConst {
    I(i64),
    F(f64),
    B(bool),
    /// Interned dictionary id of a text constant.
    T(u32),
}

/// Comparison operator on the column's total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PredOp {
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
pub(crate) enum ColPred {
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
    /// An INTEGER foreign key whose value is in a dimension's key set.
    InKeys {
        col: usize,
        keys: Arc<KeySet>,
    },
}

/// The primary keys of the dimension rows that passed the dimension's
/// predicates, each with its row, in ascending key order. A key's
/// position in that order is its group number when the dimension groups.
#[derive(Debug)]
pub(crate) struct KeySet {
    keys: Vec<i64>,
    rows: Vec<RowId>,
    /// `offsets[k - keys[0]]` is the position of key `k`, or `NO_GROUP`:
    /// built when the keys span at most [`DENSE_SPAN`] slots per key.
    offsets: Option<Vec<u32>>,
}

/// A key set is dense, and gets an offset table, when its key range is
/// at most this many slots per key (or at most 64 slots).
const DENSE_SPAN: usize = 4;

/// No group: the row is unselected or its key is outside the set.
const NO_GROUP: u32 = u32::MAX;

impl KeySet {
    /// The set of `(key, row)` pairs; primary keys are unique, so each
    /// key appears once.
    pub(crate) fn new(mut pairs: Vec<(i64, RowId)>) -> KeySet {
        pairs.sort_unstable_by_key(|&(k, _)| k);
        pairs.dedup_by_key(|&mut (k, _)| k);
        let (keys, rows): (Vec<i64>, Vec<RowId>) = pairs.into_iter().unzip();
        let offsets = match (keys.first(), keys.last()) {
            (Some(&lo), Some(&hi)) => {
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let dense = (keys.len() * DENSE_SPAN).max(64) as u128;
                (span <= dense).then(|| {
                    let mut offsets = vec![NO_GROUP; span as usize];
                    for (pos, &k) in keys.iter().enumerate() {
                        offsets[(k - lo) as usize] = pos as u32;
                    }
                    offsets
                })
            }
            _ => None,
        };
        KeySet {
            keys,
            rows,
            offsets,
        }
    }

    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The keys, ascending.
    pub(crate) fn keys(&self) -> &[i64] {
        &self.keys
    }

    /// True when keys are found through the dense offset table.
    pub(crate) fn is_dense(&self) -> bool {
        self.offsets.is_some()
    }

    /// Position of `k` in the ascending key order, if it is in the set.
    #[inline]
    fn position(&self, k: i64) -> Option<usize> {
        match &self.offsets {
            Some(offsets) => {
                let off = k.checked_sub(self.keys[0])?;
                let pos = *offsets.get(usize::try_from(off).ok()?)?;
                (pos != NO_GROUP).then_some(pos as usize)
            }
            None => self.keys.binary_search(&k).ok(),
        }
    }

    /// Bit `b` set ⇔ `xs[b]` is in the set (`xs` holds at most 64
    /// keys): one selection word from 64 tests.
    #[inline]
    fn mask(&self, xs: &[i64]) -> u64 {
        xs.iter().enumerate().fold(0, |m, (b, &x)| {
            m | (u64::from(self.position(x).is_some()) << b)
        })
    }

    /// The dimension row whose primary key is `k`.
    pub(crate) fn row_of(&self, k: i64) -> Option<RowId> {
        self.keys.binary_search(&k).ok().map(|i| self.rows[i])
    }
}

/// A dimension of a star-join plan: where it sits in the pipeline
/// layout, the fact's foreign key into it, and its key set with the
/// statistics of building it (EXPLAIN).
#[derive(Debug)]
pub(crate) struct Dimension {
    /// Binding position in the pipeline layout.
    pub binding: usize,
    /// The fact column holding the foreign key.
    pub fk: usize,
    pub keys: Arc<KeySet>,
    /// Dimension rows read to build the key set.
    pub read: u64,
    /// Wall ns spent building the key set.
    pub ns: u64,
}

/// A compiled aggregate over a fact table and its dimensions.
#[derive(Debug)]
pub(crate) struct ColumnarPlan {
    /// One kernel per aggregate call, in collection order.
    pub aggs: Vec<AggSpec>,
    preds: Vec<ColPred>,
    /// Binding position of the fact table in the pipeline layout.
    pub fact: usize,
    /// The dimensions, in layout order (empty for a single table).
    pub dims: Vec<Dimension>,
    /// The grouping dimension (an index into `dims`), when grouped.
    pub group: Option<usize>,
    /// The chunks that hold candidate rows, ascending; `None` reads
    /// every chunk.
    pub chunks: Option<Vec<usize>>,
    /// The fact columns the plan reads, ascending: only these are built.
    cols: Vec<usize>,
}

impl ColumnarPlan {
    /// A plan over `fact` with the compiled parts; `group` must index
    /// `dims`.
    pub(crate) fn new(
        aggs: Vec<AggSpec>,
        preds: Vec<ColPred>,
        fact: usize,
        dims: Vec<Dimension>,
        group: Option<usize>,
        chunks: Option<Vec<usize>>,
    ) -> ColumnarPlan {
        debug_assert!(group.is_none_or(|g| g < dims.len()));
        let mut cols: Vec<usize> = preds
            .iter()
            .map(|p| match p {
                ColPred::Cmp { col, .. }
                | ColPred::Between { col, .. }
                | ColPred::InList { col, .. }
                | ColPred::IsNull { col, .. }
                | ColPred::InKeys { col, .. } => *col,
            })
            .chain(aggs.iter().filter_map(|a| a.col))
            .chain(group.map(|g| dims[g].fk))
            .collect();
        cols.sort_unstable();
        cols.dedup();
        ColumnarPlan {
            cols,
            aggs,
            preds,
            fact,
            dims,
            group,
            chunks,
        }
    }

    /// Number of compiled predicates, key-set tests included (EXPLAIN
    /// detail).
    pub(crate) fn pred_count(&self) -> usize {
        self.preds.len() + usize::from(self.group.is_some())
    }

    /// Number of chunks the plan reads from `table`.
    pub(crate) fn chunk_count(&self, table: &Table) -> usize {
        self.chunks
            .as_ref()
            .map_or_else(|| table.chunk_count(), Vec::len)
    }
}

/// Execution measurements for EXPLAIN ANALYZE and telemetry.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ColScanStats {
    pub chunks: usize,
    /// Live rows in the chunks read.
    pub rows: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub partitions: usize,
}

/// One output group: its first fact row (slab slot; `None` only for the
/// empty group of an ungrouped aggregate over no rows) and one
/// accumulator per aggregate call.
#[derive(Debug)]
pub(crate) struct ColGroup {
    pub first: Option<usize>,
    pub accs: Vec<Accumulator>,
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

/// Compile one aggregate call over fact column `col` (`None` for
/// `COUNT(*)`). Returns `None` when it has no exact columnar
/// equivalent — the caller falls back to row execution.
pub(crate) fn compile_agg(
    schema: &TableSchema,
    func: AggregateFn,
    col: Option<usize>,
) -> Option<AggSpec> {
    if let Some(col) = col {
        let ty = schema.columns[col].ty;
        let eligible = match func {
            // COUNT(col) only needs the null bitmap.
            AggregateFn::Count => true,
            // Booleans SUM through the row path's float degradation and
            // text SUM is an eval error; both decline so semantics stay
            // identical.
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
    } else if func != AggregateFn::Count {
        return None;
    }
    Some(AggSpec { func, col })
}

/// Compile one WHERE conjunct over the fact table (see [`column_test`]).
pub(crate) fn compile_conjunct(
    c: &Expr,
    schema: &TableSchema,
    binding: &str,
    layout1: &Layout,
    params: &[Value],
) -> Option<ColPred> {
    compile_test(column_test(c, binding, layout1, params)?, schema)
}

/// Compile a column test; `None` when it has no exact typed kernel.
pub(crate) fn compile_test(test: ColumnTest, schema: &TableSchema) -> Option<ColPred> {
    let ColumnTest { col, kind } = test;
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
        TestKind::KeySet(keys) => {
            (ty == DataType::Integer).then_some(ColPred::InKeys { col, keys })
        }
    }
}

// ---------------- predicate kernels ----------------

/// Call `f` with the index of every set bit of a bitmap, ascending.
#[inline(always)]
fn for_each_one(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f((w << 6) | bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// `sel` without the rows whose bit is set in `nulls`.
fn and_not(sel: &[u64], nulls: &[u64]) -> Vec<u64> {
    sel.iter().zip(nulls).map(|(s, n)| s & !n).collect()
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
    // Clear every selected row `keep` rejects.
    fn retain(sel: &mut [u64], keep: impl Fn(usize) -> bool) {
        for (w, word) in sel.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                if !keep((w << 6) | b as usize) {
                    *word &= !(1u64 << b);
                }
            }
        }
    }
    if let ColPred::IsNull { col, negated } = pred {
        let Some(cc) = chunk.col(*col) else {
            return false;
        };
        let nulls = &cc.nulls;
        retain(sel, |i| bit(nulls, i) != *negated);
        return true;
    }
    // Every other test rejects NULL operands.
    let (ColPred::Cmp { col, .. }
    | ColPred::Between { col, .. }
    | ColPred::InList { col, .. }
    | ColPred::InKeys { col, .. }) = pred
    else {
        unreachable!("IS NULL handled above")
    };
    let Some(cc) = chunk.col(*col) else {
        return false;
    };
    for (s, n) in sel.iter_mut().zip(&cc.nulls) {
        *s &= !n;
    }
    // Only an empty IN list needs no column data.
    let no_data = matches!(cc.data, ColumnData::Unsupported);
    if no_data && !matches!(pred, ColPred::InList { items, .. } if items.is_empty()) {
        return false;
    }
    match pred {
        ColPred::IsNull { .. } => unreachable!("handled above"),
        ColPred::Cmp { op, k, .. } => {
            retain(sel, |i| {
                cmp_cell(&cc.data, i, *k).is_some_and(|ord| op.test(ord))
            });
        }
        ColPred::Between {
            lo, hi, negated, ..
        } => retain(sel, |i| {
            match (cmp_cell(&cc.data, i, *lo), cmp_cell(&cc.data, i, *hi)) {
                (Some(a), Some(b)) => (a != Ordering::Less && b != Ordering::Greater) != *negated,
                _ => false,
            }
        }),
        ColPred::InList {
            items,
            negated,
            saw_null,
            ..
        } => retain(sel, |i| {
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
        }),
        ColPred::InKeys { keys, .. } => {
            let ColumnData::Int(xs) = &cc.data else {
                return false;
            };
            for (w, word) in sel.iter_mut().enumerate() {
                if *word != 0 {
                    *word &= keys.mask(&xs[w << 6..((w + 1) << 6).min(xs.len())]);
                }
            }
        }
    }
    true
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

/// A chunk's selected rows bucketed by chunk-local group, each bucket in
/// ascending row order: group `g`'s rows are
/// `rows[starts[g]..starts[g + 1]]`. A kernel then folds each group's
/// rows into a local accumulator, with no store-to-load chain through a
/// group table per row.
struct Buckets {
    starts: Vec<usize>,
    rows: Vec<u32>,
}

impl Buckets {
    /// One bucket per distinct value of `group`, numbered `0..n`, over
    /// the rows of `rows` (ascending): a stable counting sort.
    fn new(rows: &[u32], group: &[u32], n: usize) -> Buckets {
        let mut starts = vec![0usize; n + 1];
        for &g in group {
            starts[g as usize + 1] += 1;
        }
        for g in 0..n {
            starts[g + 1] += starts[g];
        }
        let mut next = starts.clone();
        let mut sorted = vec![0u32; rows.len()];
        for (&i, &g) in rows.iter().zip(group) {
            sorted[next[g as usize]] = i;
            next[g as usize] += 1;
        }
        Buckets {
            starts,
            rows: sorted,
        }
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Fold every bucket's rows with `f`, in group order.
    fn map<T>(&self, mut f: impl FnMut(&[u32]) -> T) -> Vec<T> {
        self.starts
            .windows(2)
            .map(|w| f(&self.rows[w[0]..w[1]]))
            .collect()
    }
}

/// Run one aggregate kernel over a chunk's bucketed rows, into one
/// accumulator per bucket. `None` means the column data has no kernel
/// (fallback).
fn agg_partial(chunk: &Chunk, buckets: &Buckets, spec: AggSpec) -> Option<Vec<Accumulator>> {
    let AggSpec { func, col } = spec;
    let count = |n: usize| Accumulator::from_parts(func, n as u64, None, None);
    let Some(col) = col else {
        // COUNT(*): every selected row.
        return Some(buckets.map(|rows| count(rows.len())));
    };
    let cc = chunk.col(col)?;
    // The non-NULL rows of a bucket.
    fn non_null<'a>(rows: &'a [u32], nulls: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
        rows.iter()
            .map(|&i| i as usize)
            .filter(move |&i| !bit(nulls, i))
    }
    let nulls = &cc.nulls;
    let want = if func == AggregateFn::Min {
        Ordering::Less
    } else {
        Ordering::Greater
    };
    let mut samples: Vec<f64> = Vec::new();
    // STDDEV folds each bucket two-pass into its moments (see
    // `Moments::from_samples`): no division per value.
    let mut stddev = |xs: &mut dyn Iterator<Item = f64>| {
        samples.clear();
        samples.extend(xs);
        Accumulator::from_moments(Moments::from_samples(&samples))
    };
    Some(match (&cc.data, func) {
        (_, AggregateFn::Count) => buckets.map(|rows| count(non_null(rows, nulls).count())),
        (ColumnData::Int(xs), AggregateFn::StdDev) => {
            buckets.map(|rows| stddev(&mut non_null(rows, nulls).map(|i| xs[i] as f64)))
        }
        (ColumnData::Float(xs), AggregateFn::StdDev) => {
            buckets.map(|rows| stddev(&mut non_null(rows, nulls).map(|i| xs[i])))
        }
        (ColumnData::Int(xs), AggregateFn::Sum | AggregateFn::Avg) => buckets.map(|rows| {
            let mut acc = Accumulator::new(func, false);
            for i in non_null(rows, nulls) {
                acc.push_int(xs[i]);
            }
            acc
        }),
        (ColumnData::Float(xs), AggregateFn::Sum | AggregateFn::Avg) => buckets.map(|rows| {
            let mut acc = Accumulator::new(func, false);
            for i in non_null(rows, nulls) {
                acc.push_float(xs[i]);
            }
            acc
        }),
        (ColumnData::Int(xs), AggregateFn::Min | AggregateFn::Max) => buckets.map(|rows| {
            let (mut n, mut best) = (0, None);
            for x in non_null(rows, nulls).map(|i| xs[i]) {
                n += 1;
                if best.is_none_or(|b| x.cmp(&b) == want) {
                    best = Some(x);
                }
            }
            minmax_accumulator(func, n, best.map(Value::Int))
        }),
        (ColumnData::Float(xs), AggregateFn::Min | AggregateFn::Max) => buckets.map(|rows| {
            let (mut n, mut best) = (0, None);
            for x in non_null(rows, nulls).map(|i| xs[i]) {
                n += 1;
                // total_cmp matches the row path's Value order (NaN and
                // -0.0 included).
                if best.is_none_or(|b| x.total_cmp(&b) == want) {
                    best = Some(x);
                }
            }
            minmax_accumulator(func, n, best.map(Value::Float))
        }),
        (ColumnData::Dict(ds), AggregateFn::Min | AggregateFn::Max) => {
            let mut known = true;
            let accs = buckets.map(|rows| {
                let (mut n, mut best) = (0, None::<IStr>);
                for i in non_null(rows, nulls) {
                    n += 1;
                    if best.is_some_and(|b| b.id() == ds[i]) {
                        continue;
                    }
                    let Some(s) = IStr::from_id(ds[i]) else {
                        known = false;
                        continue;
                    };
                    if best.is_none_or(|b| s.as_str().cmp(b.as_str()) == want) {
                        best = Some(s);
                    }
                }
                minmax_accumulator(func, n, best.map(Value::Text))
            });
            known.then_some(accs)?
        }
        _ => return None,
    })
}

/// A MIN/MAX partial over `count` values whose extreme is `best`.
fn minmax_accumulator(func: AggregateFn, count: usize, best: Option<Value>) -> Accumulator {
    let (min, max) = if func == AggregateFn::Min {
        (best, None)
    } else {
        (None, best)
    };
    Accumulator::from_parts(func, count as u64, min, max)
}

// ---------------- chunk dispatch ----------------

/// One chunk's partial result: per chunk-local group, its global group
/// number, its first row (slab slot), and one accumulator per aggregate.
type ChunkPartial = Vec<(usize, usize, Vec<Accumulator>)>;

/// Aggregate one chunk. `local` maps a global group number to its
/// chunk-local one (`NO_GROUP` when absent); it is left all `NO_GROUP`.
/// `None` means the chunk's data forced a fallback.
fn chunk_partial(chunk: &Chunk, plan: &ColumnarPlan, local: &mut [u32]) -> Option<ChunkPartial> {
    let mut sel = selection(chunk, &plan.preds)?;
    // The selected rows, ascending, each with its chunk-local group, and
    // per chunk-local group its global group and first slot.
    let mut rows: Vec<u32> = Vec::with_capacity(chunk.live_count);
    let mut row_group: Vec<u32> = Vec::with_capacity(chunk.live_count);
    let mut groups: Vec<(usize, usize)> = Vec::new();
    match plan.group {
        None => {
            for_each_one(&sel, |i| rows.push(i as u32));
            row_group.resize(rows.len(), 0);
            if let Some(&first) = rows.first() {
                groups.push((0, chunk.base + first as usize));
            }
        }
        Some(d) => {
            let dim = &plan.dims[d];
            let fk = chunk.col(dim.fk)?;
            let ColumnData::Int(xs) = &fk.data else {
                return None;
            };
            sel = and_not(&sel, &fk.nulls);
            for_each_one(&sel, |i| {
                // This lookup is the grouping dimension's key-set test: a
                // key outside the set deselects the row.
                let Some(g) = dim.keys.position(xs[i]) else {
                    return;
                };
                if local[g] == NO_GROUP {
                    local[g] = groups.len() as u32;
                    groups.push((g, chunk.base + i));
                }
                rows.push(i as u32);
                row_group.push(local[g]);
            });
            for &(g, _) in &groups {
                local[g] = NO_GROUP;
            }
        }
    }
    let buckets = Buckets::new(&rows, &row_group, groups.len());
    debug_assert_eq!(buckets.len(), groups.len());
    let mut per_group: Vec<Vec<Accumulator>> = groups
        .iter()
        .map(|_| Vec::with_capacity(plan.aggs.len()))
        .collect();
    for spec in &plan.aggs {
        for (dst, acc) in per_group
            .iter_mut()
            .zip(agg_partial(chunk, &buckets, *spec)?)
        {
            dst.push(acc);
        }
    }
    Some(
        groups
            .into_iter()
            .zip(per_group)
            .map(|((g, first), accs)| (g, first, accs))
            .collect(),
    )
}

/// How many columnar rows cost as much as one row on the row path
/// (`event_aggregates` over one trial: ~190 ns per row grouped on the
/// row path, ~20 ns in the kernels).
const ROW_COST_RATIO: usize = 8;

/// Split `0..n_chunks` into at most `max_parts` contiguous runs.
fn chunk_runs(n_chunks: usize, max_parts: usize) -> Vec<Range<usize>> {
    let parts = max_parts.clamp(1, n_chunks.max(1));
    let per = n_chunks.div_ceil(parts);
    (0..parts)
        .map(|p| (p * per).min(n_chunks)..((p + 1) * per).min(n_chunks))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Execute a compiled plan over its fact table. Returns `Ok(None)` when
/// a chunk exposed unsupported column data — the caller must fall back
/// to row execution. Otherwise returns the groups in the order of their
/// first row; an ungrouped plan returns exactly one group. Chunk
/// partials merge in ascending chunk order regardless of worker count,
/// so results are deterministic under any `PERFDMF_THREADS` setting.
pub(crate) fn execute_columnar(
    table: &Table,
    plan: &ColumnarPlan,
) -> Result<Option<(Vec<ColGroup>, ColScanStats)>> {
    let chunks: Vec<usize> = match &plan.chunks {
        Some(list) => list.clone(),
        None => (0..table.chunk_count()).collect(),
    };
    let domain = plan.group.map_or(1, |d| plan.dims[d].keys.len());
    let mut stats = ColScanStats {
        chunks: chunks.len(),
        ..ColScanStats::default()
    };
    // The pool's partition threshold is sized for row execution; a
    // columnar row costs about an eighth of one, so the chunks go to the
    // workers only when they hold eight times as many rows.
    let slots = (chunks.len() * CHUNK_ROWS).min(table.slab_len());
    let runs = match pool::partitions(slots / ROW_COST_RATIO) {
        Some(parts) => chunk_runs(chunks.len(), parts.len()),
        None => chunk_runs(chunks.len(), 1),
    };
    stats.partitions = if runs.len() > 1 { runs.len() } else { 0 };

    type RunOut = Option<(Vec<ChunkPartial>, u64, u64, u64)>;
    let (runs_ref, chunks_ref) = (&runs, &chunks);
    let results: Vec<RunOut> = pool::try_run(runs.len(), |pi| -> Result<RunOut> {
        let mut partials = Vec::new();
        let (mut rows, mut hits, mut misses) = (0u64, 0u64, 0u64);
        let mut local = vec![NO_GROUP; if plan.group.is_some() { domain } else { 0 }];
        for &ci in &chunks_ref[runs_ref[pi].clone()] {
            let (chunk, hit) = table.chunk(ci, &plan.cols);
            let Some(chunk) = chunk else { continue };
            if hit {
                hits += 1;
            } else {
                misses += 1;
            }
            rows += chunk.live_count as u64;
            match chunk_partial(&chunk, plan, &mut local) {
                Some(partial) => partials.push(partial),
                None => return Ok(None),
            }
        }
        Ok(Some((partials, rows, hits, misses)))
    })?;

    let mut table_groups: Vec<Option<ColGroup>> = (0..domain).map(|_| None).collect();
    for run in results {
        let Some((partials, rows, hits, misses)) = run else {
            return Ok(None);
        };
        stats.rows += rows;
        stats.cache_hits += hits;
        stats.cache_misses += misses;
        for partial in partials {
            for (g, first, accs) in partial {
                match &mut table_groups[g] {
                    Some(group) => {
                        for (dst, src) in group.accs.iter_mut().zip(&accs) {
                            dst.merge(src)?;
                        }
                    }
                    slot => {
                        *slot = Some(ColGroup {
                            first: Some(first),
                            accs,
                        })
                    }
                }
            }
        }
    }
    let mut groups: Vec<ColGroup> = table_groups.into_iter().flatten().collect();
    if plan.group.is_none() && groups.is_empty() {
        // An ungrouped aggregate over no rows still yields one row.
        groups.push(ColGroup {
            first: None,
            accs: plan
                .aggs
                .iter()
                .map(|a| Accumulator::new(a.func, false))
                .collect(),
        });
    }
    // Chunks are read in ascending slot order, so a group's first row is
    // the first one its first partial saw.
    groups.sort_unstable_by_key(|g| g.first);
    Ok(Some((groups, stats)))
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

    /// A single-table plan: the no-dimension, no-group case.
    fn plan_columnar(
        schema: &TableSchema,
        binding: &str,
        layout1: &Layout,
        agg_exprs: &[&Expr],
        where_clause: Option<&Expr>,
        params: &[Value],
    ) -> Option<ColumnarPlan> {
        let mut aggs = Vec::new();
        for a in agg_exprs {
            let Expr::Aggregate {
                func,
                arg,
                distinct: false,
            } = a
            else {
                return None;
            };
            let col = match arg {
                None => None,
                Some(e) => Some(super::super::select::resolve_base_col(e, binding, layout1)?),
            };
            aggs.push(compile_agg(schema, *func, col)?);
        }
        let mut preds = Vec::new();
        for c in where_clause
            .map(super::super::select::conjuncts)
            .unwrap_or_default()
        {
            preds.push(compile_conjunct(c, schema, binding, layout1, params)?);
        }
        Some(ColumnarPlan::new(aggs, preds, 0, Vec::new(), None, None))
    }

    fn run(t: &Table, plan: &ColumnarPlan) -> (Vec<Accumulator>, ColScanStats) {
        let (mut groups, stats) = execute_columnar(t, plan).unwrap().expect("no fallback");
        assert_eq!(groups.len(), 1, "an ungrouped plan yields one group");
        (groups.pop().unwrap().accs, stats)
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
        let (cols, stats) = run(t, &plan);
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
        let (one, _) = run(&t, &plan);
        drop(serial_pool);
        let wide_pool = pool::override_for_thread(4, 1);
        let (four, _) = run(&t, &plan);
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
