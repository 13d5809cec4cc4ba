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
use super::predicate::{ColumnTest, PredOp, TestKind};
use crate::column::{bit, Chunk, ColumnData, CHUNK_ROWS};
use crate::error::Result;
use crate::schema::TableSchema;
use crate::sql::ast::AggregateFn;
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

/// A predicate constant typed against its column: the key it compares
/// as, and the view of the column's data it compares against.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ColConst {
    /// An integer against an INTEGER column, or a boolean (0/1) against a
    /// BOOLEAN one.
    I(i64),
    /// A double, or an integer against a DOUBLE column.
    F(f64),
    /// Interned dictionary id of a text constant.
    T(u32),
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

    /// True when `k` is in the set.
    pub(crate) fn contains(&self, k: i64) -> bool {
        self.position(k).is_some()
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
    /// The fact's WHERE conjuncts and non-grouping key sets.
    preds: Vec<ColumnTest>,
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
        preds: Vec<ColumnTest>,
        fact: usize,
        dims: Vec<Dimension>,
        group: Option<usize>,
        chunks: Option<Vec<usize>>,
    ) -> ColumnarPlan {
        debug_assert!(group.is_none_or(|g| g < dims.len()));
        let mut cols: Vec<usize> = preds
            .iter()
            .map(|p| p.col)
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
        (DataType::Boolean, Value::Bool(b)) => Some(ColConst::I(i64::from(*b))),
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

/// Whether the chunk kernels evaluate `test` exactly over its column:
/// each constant must type against the column, text compares only for
/// equality, BETWEEN needs a numeric column, and a key set an INTEGER
/// one. An IN list's NULL and cross-type items are inert (they never
/// equal a value of the column), but a BLOB column has no kernel.
pub(crate) fn has_kernel(test: &ColumnTest, schema: &TableSchema) -> bool {
    let ty = schema.columns[test.col].ty;
    match &test.kind {
        TestKind::Cmp { op, value } => match typed_const(ty, value) {
            Some(ColConst::T(_)) => matches!(op, PredOp::Eq | PredOp::Ne),
            k => k.is_some(),
        },
        TestKind::Between { low, high, .. } => {
            matches!(ty, DataType::Integer | DataType::Double)
                && typed_const(ty, low).is_some()
                && typed_const(ty, high).is_some()
        }
        TestKind::InList { .. } => ty != DataType::Blob,
        TestKind::IsNull { .. } => true,
        TestKind::KeySet(_) => ty == DataType::Integer,
    }
}

// ---------------- predicate kernels ----------------

/// Words in a full chunk's bitmaps.
const WORDS: usize = CHUNK_ROWS / 64;

/// The order key of a double: integer order on keys is `f64::total_cmp`
/// order on the doubles (NaN and -0.0 included), the row path's order.
#[inline(always)]
fn f64_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// A chunk column viewed as `i64` keys against one typed constant: key
/// order is the row path's total order between the column's values and
/// the constant, so one integer comparison decides each row.
#[derive(Clone, Copy)]
enum Keys<'a> {
    /// INTEGER or BOOLEAN data against an integer constant.
    Int(&'a [i64]),
    /// INTEGER data against a double constant: compared as doubles.
    IntAsFloat(&'a [i64]),
    /// DOUBLE data against any numeric constant.
    Float(&'a [f64]),
    /// TEXT data against a text constant: dictionary ids (equality only).
    Dict(&'a [u32]),
}

/// The key view of `data` against `k`, and `k`'s key; `None` when the
/// data has no kernel for it.
fn keyed(data: &ColumnData, k: ColConst) -> Option<(Keys<'_>, i64)> {
    Some(match (data, k) {
        (ColumnData::Int(xs), ColConst::I(k)) => (Keys::Int(xs), k),
        (ColumnData::Int(xs), ColConst::F(f)) => (Keys::IntAsFloat(xs), f64_key(f)),
        (ColumnData::Float(xs), ColConst::I(k)) => (Keys::Float(xs), f64_key(k as f64)),
        (ColumnData::Float(xs), ColConst::F(f)) => (Keys::Float(xs), f64_key(f)),
        (ColumnData::Dict(xs), ColConst::T(id)) => (Keys::Dict(xs), i64::from(id)),
        _ => return None,
    })
}

/// `out[w]` gets bit `b` set ⇔ row `64w + b` passes `key op k`, for each
/// word in which `sel` selects a row (the others get 0). Each (key view,
/// operator) pair is its own branch-free loop over 64 rows per word.
fn cmp_words(keys: Keys<'_>, op: PredOp, k: i64, sel: &[u64], out: &mut [u64]) {
    #[inline(always)]
    fn words<T: Copy>(xs: &[T], sel: &[u64], out: &mut [u64], keep: impl Fn(T) -> bool) {
        let lane = |xs: &[T]| {
            xs.iter()
                .enumerate()
                .fold(0, |m, (b, &x)| m | (u64::from(keep(x)) << b))
        };
        let full = xs.chunks_exact(64);
        let tail = full.remainder();
        let n = full.len();
        for ((o, &s), xs) in out.iter_mut().zip(sel).zip(full) {
            // A whole word: 64 fixed shifts, fully unrolled.
            let xs: &[T; 64] = xs.try_into().expect("a full word");
            *o = if s == 0 { 0 } else { lane(xs) };
        }
        if !tail.is_empty() {
            out[n] = lane(tail);
        }
    }
    #[inline(always)]
    fn by_op<T: Copy>(
        xs: &[T],
        key: impl Fn(T) -> i64,
        op: PredOp,
        k: i64,
        sel: &[u64],
        out: &mut [u64],
    ) {
        match op {
            PredOp::Eq => words(xs, sel, out, |x| key(x) == k),
            PredOp::Ne => words(xs, sel, out, |x| key(x) != k),
            PredOp::Lt => words(xs, sel, out, |x| key(x) < k),
            PredOp::Le => words(xs, sel, out, |x| key(x) <= k),
            PredOp::Gt => words(xs, sel, out, |x| key(x) > k),
            PredOp::Ge => words(xs, sel, out, |x| key(x) >= k),
        }
    }
    match keys {
        Keys::Int(xs) => by_op(xs, |x| x, op, k, sel, out),
        Keys::IntAsFloat(xs) => by_op(xs, |x| f64_key(x as f64), op, k, sel, out),
        Keys::Float(xs) => by_op(xs, f64_key, op, k, sel, out),
        Keys::Dict(xs) => by_op(xs, i64::from, op, k, sel, out),
    }
}

/// Apply one column test to the selection bitmap, a 64-row word at a
/// time; `ty` is the column's declared type, against which the test's
/// constants are typed. Returns `false` when the column data has no
/// kernel for it and the query must fall back.
fn apply_pred(sel: &mut [u64], chunk: &Chunk, test: &ColumnTest, ty: DataType) -> bool {
    let Some(cc) = chunk.col(test.col) else {
        return false;
    };
    if let TestKind::IsNull { negated } = test.kind {
        for (s, &n) in sel.iter_mut().zip(&cc.nulls) {
            *s &= if negated { !n } else { n };
        }
        return true;
    }
    // Every other test rejects NULL operands.
    for (s, &n) in sel.iter_mut().zip(&cc.nulls) {
        *s &= !n;
    }
    let key_of = |v: &Value| keyed(&cc.data, typed_const(ty, v)?);
    // The rows that pass, then kept where selected.
    let (mut pass, mut scratch) = ([0u64; WORDS], [0u64; WORDS]);
    let (pass, scratch) = (&mut pass[..sel.len()], &mut scratch[..sel.len()]);
    match &test.kind {
        TestKind::IsNull { .. } => unreachable!("handled above"),
        TestKind::Cmp { op, value } => {
            let Some((keys, k)) = key_of(value) else {
                return false;
            };
            cmp_words(keys, *op, k, sel, pass);
        }
        TestKind::Between { low, high, negated } => {
            let (Some((lo_keys, lo)), Some((hi_keys, hi))) = (key_of(low), key_of(high)) else {
                return false;
            };
            cmp_words(lo_keys, PredOp::Ge, lo, sel, scratch);
            cmp_words(hi_keys, PredOp::Le, hi, sel, pass);
            let flip = if *negated { !0 } else { 0 };
            for (p, &a) in pass.iter_mut().zip(scratch.iter()) {
                *p = (*p & a) ^ flip;
            }
        }
        TestKind::InList { items, negated } => {
            // A NULL or cross-type item never equals a value of the
            // column (sql_eq ranks by type): it is inert.
            for k in items.iter().filter_map(|v| typed_const(ty, v)) {
                let Some((keys, k)) = keyed(&cc.data, k) else {
                    return false;
                };
                cmp_words(keys, PredOp::Eq, k, sel, scratch);
                for (p, &hit) in pass.iter_mut().zip(scratch.iter()) {
                    *p |= hit;
                }
            }
            // A non-match is `negated`, or NULL (failing) when the list
            // holds a NULL.
            if *negated {
                let saw_null = items.iter().any(Value::is_null);
                for p in pass.iter_mut() {
                    *p = if saw_null { 0 } else { !*p };
                }
            }
        }
        TestKind::KeySet(keys) => {
            let ColumnData::Int(xs) = &cc.data else {
                return false;
            };
            for (w, (p, &s)) in pass.iter_mut().zip(sel.iter()).enumerate() {
                if s != 0 {
                    *p = keys.mask(&xs[w << 6..((w + 1) << 6).min(xs.len())]);
                }
            }
        }
    }
    for (s, &p) in sel.iter_mut().zip(pass.iter()) {
        *s &= p;
    }
    true
}

/// Build the chunk's selection bitmap: live ∧ every test. `None` means
/// an unsupported column forced a fallback.
fn selection(chunk: &Chunk, tests: &[ColumnTest], schema: &TableSchema) -> Option<Vec<u64>> {
    let mut sel = chunk.live.clone();
    for t in tests {
        if !apply_pred(&mut sel, chunk, t, schema.columns[t.col].ty) {
            return None;
        }
    }
    Some(sel)
}

// ---------------- aggregate kernels ----------------

/// The selected rows of one chunk-local group.
#[derive(Clone, Copy)]
enum GroupRows<'a> {
    /// The set bits of the selection: an ungrouped chunk's one group,
    /// read in place.
    Sel(&'a [u64]),
    /// A bucket of chunk offsets, ascending.
    List(&'a [u32]),
}

impl GroupRows<'_> {
    /// Number of rows.
    fn len(self) -> usize {
        match self {
            GroupRows::Sel(sel) => sel.iter().map(|w| w.count_ones() as usize).sum(),
            GroupRows::List(rows) => rows.len(),
        }
    }

    /// Number of rows not NULL in `nulls`.
    fn count_non_null(self, nulls: &[u64]) -> usize {
        match self {
            GroupRows::Sel(sel) => sel
                .iter()
                .zip(nulls)
                .map(|(s, n)| (s & !n).count_ones() as usize)
                .sum(),
            GroupRows::List(rows) => rows.iter().filter(|&&i| !bit(nulls, i as usize)).count(),
        }
    }

    /// Call `f` with every row not NULL in `nulls`, ascending.
    #[inline(always)]
    fn non_null(self, nulls: &[u64], mut f: impl FnMut(usize)) {
        match self {
            GroupRows::Sel(sel) => {
                let words = sel.iter().zip(nulls).map(|(s, n)| s & !n);
                for (w, mut bits) in words.enumerate() {
                    while bits != 0 {
                        f((w << 6) | bits.trailing_zeros() as usize);
                        bits &= bits - 1;
                    }
                }
            }
            GroupRows::List(rows) => {
                for i in rows.iter().map(|&i| i as usize) {
                    if !bit(nulls, i) {
                        f(i);
                    }
                }
            }
        }
    }
}

/// A grouped chunk's selected rows bucketed by chunk-local group, each
/// bucket in ascending row order: group `g`'s rows are
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

    /// Every bucket's rows, in group order.
    fn groups(&self) -> Vec<GroupRows<'_>> {
        self.starts
            .windows(2)
            .map(|w| GroupRows::List(&self.rows[w[0]..w[1]]))
            .collect()
    }
}

/// Run one aggregate kernel over a chunk's grouped rows, into one
/// accumulator per group. `None` means the column data has no kernel
/// (fallback).
fn agg_partial(chunk: &Chunk, groups: &[GroupRows<'_>], spec: AggSpec) -> Option<Vec<Accumulator>> {
    let AggSpec { func, col } = spec;
    let count = |n: usize| Accumulator::from_parts(func, n as u64, None, None);
    let each = |f: &mut dyn FnMut(GroupRows<'_>) -> Accumulator| -> Vec<Accumulator> {
        groups.iter().map(|&g| f(g)).collect()
    };
    let Some(col) = col else {
        // COUNT(*): every selected row.
        return Some(each(&mut |g| count(g.len())));
    };
    let cc = chunk.col(col)?;
    let nulls = &cc.nulls;
    let want = if func == AggregateFn::Min {
        Ordering::Less
    } else {
        Ordering::Greater
    };
    // STDDEV folds each group two-pass into its moments (see
    // `Moments::from_samples`): no division per value.
    fn stddev(
        s: &mut Vec<f64>,
        g: GroupRows<'_>,
        nulls: &[u64],
        x: impl Fn(usize) -> f64,
    ) -> Accumulator {
        s.clear();
        g.non_null(nulls, |i| s.push(x(i)));
        Accumulator::from_moments(Moments::from_samples(s))
    }
    let mut samples: Vec<f64> = Vec::new();
    Some(match (&cc.data, func) {
        (_, AggregateFn::Count) => each(&mut |g| count(g.count_non_null(nulls))),
        (ColumnData::Int(xs), AggregateFn::StdDev) => {
            each(&mut |g| stddev(&mut samples, g, nulls, |i| xs[i] as f64))
        }
        (ColumnData::Float(xs), AggregateFn::StdDev) => {
            each(&mut |g| stddev(&mut samples, g, nulls, |i| xs[i]))
        }
        (ColumnData::Int(xs), AggregateFn::Sum | AggregateFn::Avg) => each(&mut |g| {
            let mut acc = Accumulator::new(func, false);
            g.non_null(nulls, |i| acc.push_int(xs[i]));
            acc
        }),
        (ColumnData::Float(xs), AggregateFn::Sum | AggregateFn::Avg) => each(&mut |g| {
            let mut acc = Accumulator::new(func, false);
            g.non_null(nulls, |i| acc.push_float(xs[i]));
            acc
        }),
        (ColumnData::Int(xs), AggregateFn::Min | AggregateFn::Max) => each(&mut |g| {
            let (mut n, mut best) = (0, None);
            g.non_null(nulls, |i| {
                n += 1;
                if best.is_none_or(|b: i64| xs[i].cmp(&b) == want) {
                    best = Some(xs[i]);
                }
            });
            minmax_accumulator(func, n, best.map(Value::Int))
        }),
        (ColumnData::Float(xs), AggregateFn::Min | AggregateFn::Max) => each(&mut |g| {
            let (mut n, mut best) = (0, None);
            g.non_null(nulls, |i| {
                n += 1;
                // total_cmp matches the row path's Value order (NaN and
                // -0.0 included).
                if best.is_none_or(|b: f64| xs[i].total_cmp(&b) == want) {
                    best = Some(xs[i]);
                }
            });
            minmax_accumulator(func, n, best.map(Value::Float))
        }),
        (ColumnData::Dict(ds), AggregateFn::Min | AggregateFn::Max) => {
            let mut known = true;
            let accs = each(&mut |g| {
                let (mut n, mut best) = (0, None::<IStr>);
                g.non_null(nulls, |i| {
                    n += 1;
                    if best.is_some_and(|b| b.id() == ds[i]) {
                        return;
                    }
                    let Some(s) = IStr::from_id(ds[i]) else {
                        known = false;
                        return;
                    };
                    if best.is_none_or(|b| s.as_str().cmp(b.as_str()) == want) {
                        best = Some(s);
                    }
                });
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
fn chunk_partial(
    chunk: &Chunk,
    schema: &TableSchema,
    plan: &ColumnarPlan,
    local: &mut [u32],
) -> Option<ChunkPartial> {
    let sel = selection(chunk, &plan.preds, schema)?;
    // Per chunk-local group: its global group and first slot, and its
    // selected rows.
    let buckets;
    let (groups, rows): (Vec<(usize, usize)>, Vec<GroupRows<'_>>) = match plan.group {
        // The selection itself is the one group: no row is copied.
        None => match sel.iter().position(|&w| w != 0) {
            Some(w) => {
                let first = (w << 6) | sel[w].trailing_zeros() as usize;
                (vec![(0, chunk.base + first)], vec![GroupRows::Sel(&sel)])
            }
            None => return Some(Vec::new()),
        },
        Some(d) => {
            let dim = &plan.dims[d];
            let fk = chunk.col(dim.fk)?;
            let ColumnData::Int(xs) = &fk.data else {
                return None;
            };
            // The selected rows, ascending, each with its chunk-local
            // group.
            let mut rows: Vec<u32> = Vec::with_capacity(chunk.live_count);
            let mut row_group: Vec<u32> = Vec::with_capacity(chunk.live_count);
            let mut groups: Vec<(usize, usize)> = Vec::new();
            GroupRows::Sel(&sel).non_null(&fk.nulls, |i| {
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
            buckets = Buckets::new(&rows, &row_group, groups.len());
            (groups, buckets.groups())
        }
    };
    let mut per_group: Vec<Vec<Accumulator>> = groups
        .iter()
        .map(|_| Vec::with_capacity(plan.aggs.len()))
        .collect();
    for spec in &plan.aggs {
        for (dst, acc) in per_group.iter_mut().zip(agg_partial(chunk, &rows, *spec)?) {
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
    // The pool's threshold is in slab slots: the chunks go to the
    // workers only when they span enough slots to repay the dispatch.
    let slots = (chunks.len() * CHUNK_ROWS).min(table.slab_len());
    let runs = match pool::partitions(slots) {
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
            match chunk_partial(&chunk, &table.schema, plan, &mut local) {
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
    use super::super::eval::Layout;
    use super::super::predicate::{column_test, resolve_base_col};
    use super::*;
    use crate::schema::ColumnDef;
    use crate::sql::ast::{BinaryOp, Expr};
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
                Some(e) => Some(resolve_base_col(e, binding, layout1)?),
            };
            aggs.push(compile_agg(schema, *func, col)?);
        }
        let mut preds = Vec::new();
        for c in where_clause
            .map(super::super::select::conjuncts)
            .unwrap_or_default()
        {
            let test = column_test(c, binding, layout1, params)?;
            if !has_kernel(&test, schema) {
                return None;
            }
            preds.push(test);
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

    /// Every word kernel equals the row test, row by row, on a chunk with
    /// dead rows, NULLs and a short last word, for every (column data,
    /// constant, operator) that `has_kernel` accepts.
    #[test]
    fn word_kernels_match_row_tests() {
        let ints = [0, 1, -1, 2, i64::MIN, i64::MAX, 1 << 53, (1 << 53) + 1];
        let floats = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            1.5,
            2.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            9_007_199_254_740_992.0,
            9.223_372_036_854_776e18,
        ];
        let texts = ["alpha", "beta", "gamma"];
        let mut cols = schema().columns;
        cols.push(ColumnDef::new("y", DataType::Blob));
        let mut t = Table::new(TableSchema::new("m", cols).unwrap());
        for i in 0..200usize {
            let null = |m: usize| i % m == 3;
            let row = vec![
                Value::from((!null(7)).then_some(ints[i % ints.len()])),
                Value::from((!null(5)).then_some(floats[i % floats.len()])),
                Value::from((!null(6)).then_some(texts[i % texts.len()])),
                Value::from((!null(4)).then_some(i % 3 == 0)),
                match null(8) {
                    true => Value::Null,
                    false => Value::Bytes(vec![i as u8 % 3].into()),
                },
            ];
            t.insert(row).unwrap();
        }
        for id in (0..200).step_by(9) {
            t.delete(id).unwrap();
        }
        let mut consts: Vec<Value> = ints.iter().map(|&i| Value::Int(i)).collect();
        consts.extend(floats.iter().map(|&f| Value::Float(f)));
        consts.extend(["alpha", "gamma", "delta"].map(Value::from));
        consts.extend([Value::Bool(true), Value::Bool(false), Value::Null]);
        consts.push(Value::Bytes(vec![1].into()));
        let ops = [
            PredOp::Eq,
            PredOp::Ne,
            PredOp::Lt,
            PredOp::Le,
            PredOp::Gt,
            PredOp::Ge,
        ];
        let mut kinds = Vec::new();
        for negated in [false, true] {
            kinds.push(TestKind::IsNull { negated });
            for lo in &consts {
                for hi in &consts {
                    let (low, high) = (lo.clone(), hi.clone());
                    kinds.push(TestKind::Between { low, high, negated });
                }
            }
            for n in 1..4 {
                for items in consts.windows(n).chain([&consts[consts.len() - 2..]]) {
                    let items = items.to_vec();
                    kinds.push(TestKind::InList { items, negated });
                }
            }
        }
        for op in ops {
            for value in consts.iter().filter(|v| !v.is_null()) {
                let value = value.clone();
                kinds.push(TestKind::Cmp { op, value });
            }
        }
        for keys in [vec![0, 1, 2], vec![i64::MIN, 1, i64::MAX]] {
            let set = KeySet::new(keys.into_iter().map(|k| (k, 0)).collect());
            kinds.push(TestKind::KeySet(Arc::new(set)));
        }
        let mut compiled = std::collections::HashSet::new();
        for col in 0..5 {
            let (chunk, _) = t.chunk(0, &[col]);
            let chunk = chunk.unwrap();
            assert_eq!(chunk.len % 64, 8, "the last word is short");
            for kind in &kinds {
                let test = ColumnTest {
                    col,
                    kind: kind.clone(),
                };
                if !has_kernel(&test, &t.schema) {
                    continue;
                }
                let sel = selection(&chunk, std::slice::from_ref(&test), &t.schema)
                    .expect("has a kernel");
                for i in 0..chunk.len {
                    let want = t
                        .row(i as RowId)
                        .is_some_and(|r| test.matches(&r[col]) == Some(true));
                    assert_eq!(bit(&sel, i), want, "column {col}, row {i}: {test:?}");
                }
                use std::mem::discriminant as tag;
                let shape = match &test.kind {
                    TestKind::Cmp { op, value } => format!("cmp {op:?} {:?}", tag(value)),
                    TestKind::Between { low, high, .. } => {
                        format!("between {:?} {:?}", tag(low), tag(high))
                    }
                    other => format!("{:?}", tag(other)),
                };
                compiled.insert((col, shape));
            }
        }
        // Comparisons: 6 ops × {int, double} constants on INTEGER and
        // DOUBLE, 6 ops × bool on BOOLEAN, Eq/Ne × text on TEXT. BETWEEN:
        // 4 bound kinds on each numeric column. IN on the 4 columns that
        // are not BLOB, IS NULL on all 5, key sets on the INTEGER one.
        assert_eq!(compiled.len(), 12 + 12 + 6 + 2 + 8 + 4 + 5 + 1);
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
        // 5 chunks of inexact doubles, each chunk at its own scale, so
        // their sums depend on the order the chunks merge in.
        let mut t = Table::new(schema());
        for (i, mut r) in rows(20_000).into_iter().enumerate() {
            let scale = [1.0, 1e-3, 1e9, 7.0, 1e-6][i / CHUNK_ROWS];
            r[1] = Value::Float((0.1 * i as f64 + 1e-3 * (i % 7) as f64) * scale);
            t.insert(r).unwrap();
        }
        let exprs = [
            agg(AggregateFn::Sum, Some("x")),
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
