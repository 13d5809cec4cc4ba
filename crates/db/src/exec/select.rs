//! SELECT execution over the plan IR.
//!
//! A SELECT no longer runs off ad-hoc heuristic branches: the statement
//! is lowered to a [`Plan`], rewritten by the rule-based optimizer,
//! annotated with per-scan access decisions (`crate::plan`), and then
//! run here — [`exec_pipeline`] scans the base, joins each right side in
//! turn and applies the residual filter, [`run_planned`] the tail — and
//! the EXPLAIN renderer prints the very same plan, so the reported plan
//! cannot drift from what executes.

use super::aggregate::Accumulator;
use super::eval::{eval_condition, eval_ref, Env, Layout};
use super::hash::{FastMap, FastSet};
use super::predicate::{
    column_test, compile_pushed, pushed_match, resolve_base_col, ColumnTest, PredOp, TestKind,
};
use super::vector;
use super::ResultSet;
use crate::column::CHUNK_ROWS;
use crate::database::Database;
use crate::error::{DbError, Result};
use crate::introspect;
use crate::plan;
use crate::plan::ir::{layout_of, Access, Columnar, Plan, PlannedSelect, ScanNode};
use crate::sql::ast::*;
use crate::table::{Row, RowId, Table};
use crate::value::Value;
use perfdmf_telemetry as telemetry;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::convert::Infallible;
use std::ops::Bound;
use std::time::Instant;

/// A resolved FROM-clause table: either a borrowed base table or a
/// virtual system table materialized for this statement. Derefs to
/// [`Table`] so the scan/join/EXPLAIN code is agnostic to the source.
pub(crate) enum TableSource<'a> {
    Base(&'a Table),
    Virtual(Box<Table>),
}

impl std::ops::Deref for TableSource<'_> {
    type Target = Table;

    fn deref(&self) -> &Table {
        match self {
            TableSource::Base(t) => t,
            TableSource::Virtual(t) => t,
        }
    }
}

impl TableSource<'_> {
    pub(crate) fn is_virtual(&self) -> bool {
        matches!(self, TableSource::Virtual(_))
    }
}

/// Resolve a FROM-clause table name: names under the reserved `perfdmf_`
/// prefix materialize the corresponding virtual system table from live
/// engine state; everything else resolves against the database catalog.
pub(crate) fn resolve_table<'a>(db: &'a Database, name: &str) -> Result<TableSource<'a>> {
    if introspect::is_reserved_name(name) {
        return match introspect::materialize(db, name) {
            Some(t) => {
                telemetry::add("db.exec.virtual_scans", 1);
                Ok(TableSource::Virtual(Box::new(t)))
            }
            None => Err(DbError::NoSuchTable(name.to_string())),
        };
    }
    db.table(name).map(TableSource::Base)
}

/// Per-operator measurements collected while executing a SELECT for
/// `EXPLAIN ANALYZE`. Everywhere else the executor runs with `None`, so
/// the normal path pays one `Option` check per stage.
#[derive(Debug, Default)]
pub(crate) struct ExecProfile {
    /// (rows out, rows read, wall ns) of the base scan. Rows read are
    /// the index candidates or live rows visited, before pushed
    /// conjuncts.
    scan: Option<(u64, u64, u64)>,
    /// (live rows, chunks, cache hits, cache misses, partitions, wall ns)
    /// of a columnar scan (fused scan + filter + aggregate).
    colscan: Option<(u64, usize, u64, u64, usize, u64)>,
    /// (rows out, right-side rows read, wall ns) per join, left to right.
    joins: Vec<(u64, u64, u64)>,
    /// (rows in, rows out, wall ns) of the WHERE pass.
    filter: Option<(u64, u64, u64)>,
    /// (groups, wall ns) of the aggregate pass.
    aggregate: Option<(u64, u64)>,
    /// Wall ns of the ORDER BY sort (plain or grouped path).
    sort_ns: u64,
    /// (rows in, rows out) of the DISTINCT pass.
    distinct: Option<(u64, u64)>,
    /// Rows the statement returned.
    returned: u64,
}

fn stage_ns(t0: Option<Instant>) -> u64 {
    t0.map(|t| t.elapsed().as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

fn fmt_ns(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

/// The `actual ..., ...ms` note of a measured operator.
fn measured(what: String, ns: u64) -> String {
    format!("actual {what}, {}", fmt_ns(ns))
}

/// Replace uncorrelated subqueries (`IN (SELECT ...)`, scalar
/// `(SELECT ...)`) in an expression by executing them once up front.
pub(crate) fn resolve_subqueries(db: &Database, expr: &Expr, params: &[Value]) -> Result<Expr> {
    Ok(match expr {
        Expr::InSubquery {
            operand,
            select,
            negated,
        } => {
            let values = subquery_column(db, select, params, "IN")?;
            Expr::InList {
                operand: Box::new(resolve_subqueries(db, operand, params)?),
                list: values.into_iter().map(Expr::Literal).collect(),
                negated: *negated,
            }
        }
        Expr::ScalarSubquery(select) => {
            let mut values = subquery_column(db, select, params, "scalar")?;
            if values.len() > 1 {
                return Err(DbError::Eval(format!(
                    "scalar subquery returned {} rows",
                    values.len()
                )));
            }
            Expr::Literal(values.pop().unwrap_or(Value::Null))
        }
        Expr::Exists { select, negated } => {
            let done = stream_select(db, select, params, &mut |_| {})?;
            Expr::Literal(Value::Bool((done.returned == 0) == *negated))
        }
        other => other.try_map_children(|c| resolve_subqueries(db, c, params))?,
    })
}

/// Run an uncorrelated subquery that must yield one column; its values.
fn subquery_column(
    db: &Database,
    sel: &Select,
    params: &[Value],
    kind: &str,
) -> Result<Vec<Value>> {
    let mut values = Vec::new();
    let done = stream_select(db, sel, params, &mut |row| {
        values.extend(row.first().cloned())
    })?;
    if done.columns.len() != 1 {
        return Err(DbError::Eval(format!(
            "{kind} subquery must return one column, got {}",
            done.columns.len()
        )));
    }
    Ok(values)
}

fn expr_has_subquery(expr: &Expr) -> bool {
    matches!(
        expr,
        Expr::InSubquery { .. } | Expr::ScalarSubquery(_) | Expr::Exists { .. }
    ) || expr.any_child(expr_has_subquery)
}

fn select_has_subqueries(sel: &Select) -> bool {
    sel.projections.iter().any(|p| match p {
        Projection::Expr { expr, .. } => expr_has_subquery(expr),
        _ => false,
    }) || sel.where_clause.as_ref().is_some_and(expr_has_subquery)
        || sel.group_by.iter().any(expr_has_subquery)
        || sel.having.as_ref().is_some_and(expr_has_subquery)
        || sel.order_by.iter().any(|o| expr_has_subquery(&o.expr))
        || sel
            .joins
            .iter()
            .any(|j| j.on.as_ref().is_some_and(expr_has_subquery))
}

/// Rewrite a SELECT with every subquery resolved.
fn resolve_select(db: &Database, sel: &Select, params: &[Value]) -> Result<Select> {
    let mut out = sel.clone();
    for p in &mut out.projections {
        if let Projection::Expr { expr, .. } = p {
            *expr = resolve_subqueries(db, expr, params)?;
        }
    }
    if let Some(w) = &mut out.where_clause {
        *w = resolve_subqueries(db, w, params)?;
    }
    for g in &mut out.group_by {
        *g = resolve_subqueries(db, g, params)?;
    }
    if let Some(h) = &mut out.having {
        *h = resolve_subqueries(db, h, params)?;
    }
    for o in &mut out.order_by {
        o.expr = resolve_subqueries(db, &o.expr, params)?;
    }
    for j in &mut out.joins {
        if let Some(on) = &mut j.on {
            *on = resolve_subqueries(db, on, params)?;
        }
    }
    Ok(out)
}

/// True if every column `expr` reads outside an aggregate call lies
/// inside one of the `group_by` expressions, so its value is the same on
/// every row of a group. With no GROUP BY this means no bare column: the
/// expression needs no representative row, which the columnar path never
/// materializes (and which join reordering may permute).
pub(crate) fn grouped_only(expr: &Expr, group_by: &[Expr]) -> bool {
    group_by.contains(expr)
        || match expr {
            Expr::Column { .. } | Expr::Slot { .. } => false,
            Expr::Aggregate { .. } => true, // columns inside the arg are fine
            _ => !expr.any_child(|c| !grouped_only(c, group_by)),
        }
}

// ---------------- execution ----------------

/// Receives a SELECT's output rows in order, each lent for the call. A
/// streamed projection that is a run of consecutive columns of one
/// binding arrives as `Cow::Borrowed`, a slice of the base row under the
/// statement's read lock; any other row is owned (one reused buffer when
/// streaming). A collector takes it with [`std::mem::take`] and
/// [`Cow::into_owned`].
pub(crate) type Sink<'s> = dyn FnMut(&mut Cow<'_, [Value]>) + 's;

/// What a SELECT reports besides its rows.
#[derive(Debug, Default)]
pub(crate) struct Streamed {
    /// Output column names, in projection order.
    pub columns: Vec<String>,
    /// Rows handed to the sink.
    pub returned: u64,
    /// See [`ResultSet::rows_scanned`].
    pub rows_scanned: u64,
    /// Wall-clock time spent executing the SELECT.
    pub elapsed: std::time::Duration,
}

impl crate::observe::RowCounts for Streamed {
    fn row_counts(&self) -> (u64, u64, u64) {
        (self.returned, self.rows_scanned, 0)
    }
}

/// Execute a SELECT and collect its rows.
pub(crate) fn execute_select(db: &Database, sel: &Select, params: &[Value]) -> Result<ResultSet> {
    let mut rows = Vec::new();
    let done = stream_select(db, sel, params, &mut |row| {
        rows.push(std::mem::take(row).into_owned())
    })?;
    Ok(ResultSet {
        columns: done.columns,
        rows,
        rows_scanned: done.rows_scanned,
        elapsed: done.elapsed,
    })
}

/// Execute a SELECT, handing each output row to `sink` as it is
/// produced. Rows are materialized first only when ORDER BY, DISTINCT or
/// grouping needs them all.
pub(crate) fn stream_select(
    db: &Database,
    sel: &Select,
    params: &[Value],
    sink: &mut Sink<'_>,
) -> Result<Streamed> {
    Ok(run_select(db, sel, params, None, sink)?.1)
}

/// Plan and execute a SELECT, optionally collecting per-operator
/// measurements (the `EXPLAIN ANALYZE` path). Returns the plan that ran
/// together with what it reported.
fn run_select<'a>(
    db: &'a Database,
    sel: &Select,
    params: &[Value],
    prof: Option<&mut ExecProfile>,
    sink: &mut Sink<'_>,
) -> Result<(PlannedSelect<'a>, Streamed)> {
    let started = Instant::now();
    // Uncorrelated subqueries run once, up front; the resolved statement
    // is what gets planned.
    let planned = if select_has_subqueries(sel) {
        plan::plan_select(db, &resolve_select(db, sel, params)?, params, true)?
    } else {
        plan::plan_select(db, sel, params, false)?
    };
    let mut out = run_planned(&planned, params, prof, sink)?;
    out.elapsed = started.elapsed();
    Ok((planned, out))
}

/// OFFSET and LIMIT over the rows a SELECT hands its sink.
struct Window<'w, 's> {
    skip: u64,
    left: u64,
    returned: u64,
    sink: &'w mut Sink<'s>,
}

impl<'w, 's> Window<'w, 's> {
    fn new(offset: Option<u64>, limit: Option<u64>, sink: &'w mut Sink<'s>) -> Self {
        Window {
            skip: offset.unwrap_or(0),
            left: limit.unwrap_or(u64::MAX),
            returned: 0,
            sink,
        }
    }

    /// True once LIMIT rows have been handed on.
    fn is_full(&self) -> bool {
        self.left == 0
    }

    fn push(&mut self, row: &mut Cow<'_, [Value]>) {
        if self.skip > 0 {
            self.skip -= 1;
        } else if self.left > 0 {
            self.left -= 1;
            self.returned += 1;
            (self.sink)(row);
        }
    }

    /// Hand on materialized rows, dropping repeats first under DISTINCT.
    fn push_all(&mut self, mut rows: Vec<Row>, distinct: bool, prof: Option<&mut ExecProfile>) {
        if distinct {
            let rows_in = rows.len();
            let mut seen = FastSet::default();
            rows.retain(|r| seen.insert(r.clone()));
            if let Some(p) = prof {
                p.distinct = Some((rows_in as u64, rows.len() as u64));
            }
        }
        for row in rows {
            self.push(&mut Cow::Owned(row));
        }
    }
}

/// Run an optimized, access-annotated plan, handing its output rows to
/// `sink`.
fn run_planned(
    planned: &PlannedSelect<'_>,
    params: &[Value],
    mut prof: Option<&mut ExecProfile>,
    sink: &mut Sink<'_>,
) -> Result<Streamed> {
    let plan = &planned.plan;
    let mut window = Window::new(plan.offset, plan.limit, sink);

    // Columnar fast path: fused scan + filter + join + aggregate over the
    // fact table's column chunks.
    if let Some(columnar) = &plan.columnar {
        let out = exec_columnar(plan, &columnar.plan, params, prof.as_deref_mut())?;
        window.push_all(out.rows, plan.distinct, None);
        return Ok(Streamed {
            columns: out.columns,
            returned: window.returned,
            rows_scanned: out.rows_scanned,
            ..Streamed::default()
        });
    }

    let (layout, rows, rows_scanned) = exec_pipeline(plan, params, prof.as_deref_mut())?;

    let columns = match &plan.aggregate {
        Some((group_by, having)) => {
            let _stage = telemetry::span("db.exec.aggregate");
            let out = aggregate_path(
                &plan.projections,
                group_by,
                having.as_ref(),
                &plan.order_by,
                &layout,
                &rows,
                params,
                prof.as_deref_mut(),
            )?;
            window.push_all(out.rows, plan.distinct, prof);
            out.columns
        }
        None => {
            let _stage = telemetry::span("db.exec.project");
            plain_path(plan, &layout, &rows, params, prof, &mut window)?
        }
    };
    Ok(Streamed {
        columns,
        returned: window.returned,
        rows_scanned,
        ..Streamed::default()
    })
}

/// The rows one pipeline stage hands the next, late-materialized: each
/// row is a tuple of borrowed base rows, one entry per layout binding
/// (`None` for a LEFT-join miss), stored flat with a fixed stride so a
/// row needs no allocation of its own. Base tables stay borrowed under
/// the statement's read lock, and a virtual table is owned by the plan,
/// so the tuples live as long as the plan. A value is copied only when
/// an output row or a new group key is built.
struct Tuples<'r> {
    stride: usize,
    refs: Vec<Option<&'r Row>>,
}

impl<'r> Tuples<'r> {
    fn len(&self) -> usize {
        self.refs.len() / self.stride
    }

    fn get(&self, i: usize) -> &[Option<&'r Row>] {
        &self.refs[i * self.stride..(i + 1) * self.stride]
    }

    fn iter(&self) -> std::slice::ChunksExact<'_, Option<&'r Row>> {
        self.refs.chunks_exact(self.stride)
    }
}

/// Bind each expression against `layout` (see [`Layout::bind`]).
fn bind_all<'e>(exprs: impl IntoIterator<Item = &'e Expr>, layout: &Layout) -> Result<Vec<Expr>> {
    exprs.into_iter().map(|e| layout.bind(e)).collect()
}

/// Execute the scan/join/filter pipeline of a plan, returning the
/// accumulated layout, the row tuples, and the scanned-row count (rows
/// after scan + joins, before WHERE; or rows *examined* when a scan
/// early-exits).
fn exec_pipeline<'p>(
    plan: &'p Plan<'_>,
    params: &[Value],
    mut prof: Option<&mut ExecProfile>,
) -> Result<(Layout, Tuples<'p>, u64)> {
    let Some(base) = plan.scans.first() else {
        // A FROM-less SELECT reads one tuple of no bindings; its one
        // unused entry keeps the stride nonzero.
        let refs = vec![None];
        return Ok((Layout::default(), Tuples { stride: 1, refs }, 0));
    };
    let (mut layout, mut rows, mut scanned) = exec_scan(base, params, prof.as_deref_mut())?;
    for (right, (kind, on)) in plan.scans[1..].iter().zip(&plan.joins) {
        let on = on.as_ref();
        (layout, rows, scanned) =
            exec_join(layout, rows, right, *kind, on, params, prof.as_deref_mut())?;
    }
    if let Some(predicate) = &plan.filter {
        rows = exec_filter(&layout, rows, predicate, params, prof)?;
    }
    Ok((layout, rows, scanned))
}

/// Read one scan according to its access decision.
fn exec_scan<'p>(
    scan: &'p ScanNode<'_>,
    params: &[Value],
    prof: Option<&mut ExecProfile>,
) -> Result<(Layout, Tuples<'p>, u64)> {
    let table: &'p Table = &scan.source;
    let layout1 = scan.layout1();
    let pushed = compile_pushed(&scan.pushed, &scan.binding, &layout1, params)?;
    let _stage = telemetry::span("db.exec.scan");
    let t0 = prof.is_some().then(Instant::now);

    // Candidate ids, when the access method prescribes an order other
    // than ascending row id.
    let ids: Option<Cow<'p, [RowId]>> = match &scan.access {
        Access::Seq | Access::Probe { .. } => None,
        Access::Index(choice) => Some(Cow::Borrowed(&choice.ids)),
        Access::IndexOrder { column, .. } => {
            let (_, col) = layout1.resolve(None, column)?;
            let Some(ix) = table.index_on(col) else {
                return Err(DbError::Unsupported(format!(
                    "index-order scan lost its index on {column}"
                )));
            };
            // NULL keys are not indexed; NULL sorts first under
            // `Value::total_cmp`, and ids ascend within each key, so
            // NULL-key rows (in id order) followed by `scan_asc` is
            // exactly the stable `ORDER BY column ASC` order.
            let mut ids: Vec<RowId> = table
                .iter()
                .filter(|(_, row)| row[col].is_null())
                .map(|(id, _)| id)
                .collect();
            ids.extend(ix.scan_asc());
            Some(Cow::Owned(ids))
        }
    };

    // The candidate rows, pushed conjuncts tested row by row. With LIMIT
    // pushdown the scan stops after `take` matches.
    let take = scan.stop_after.unwrap_or(usize::MAX);
    let candidates: Box<dyn Iterator<Item = &Row>> = match &ids {
        Some(ids) => Box::new(ids.iter().filter_map(|&id| table.row(id))),
        None => Box::new(table.iter().map(|(_, row)| row)),
    };
    let mut read = 0u64;
    let mut refs: Vec<Option<&'p Row>> = Vec::new();
    if take > 0 {
        for row in candidates {
            read += 1;
            if pushed_match(&pushed, row, params)? {
                refs.push(Some(row));
                if refs.len() >= take {
                    break;
                }
            }
        }
    }
    let rows_out = refs.len() as u64;
    // An early-exit scan reports rows *examined* as its scanned count.
    let scanned = match scan.stop_after {
        Some(_) => read,
        None => rows_out,
    };
    if let Some(p) = prof {
        p.scan = Some((rows_out, read, stage_ns(t0)));
    }
    Ok((layout1, Tuples { stride: 1, refs }, scanned))
}

/// The hash-join key of `v`. `Value` equality is not transitive past
/// ±2^53: the double 2^53 equals the integers 2^53 and 2^53 + 1, which
/// differ. So an integer there is keyed by the double it rounds to, every
/// integer a double equals shares that double's bucket, and an integer
/// probe key keeps only the bucket rows it equals.
fn hash_key(v: &Value) -> Cow<'_, Value> {
    match *v {
        Value::Int(i) if i.unsigned_abs() >= 1 << 53 => Cow::Owned(Value::Float(i as f64)),
        _ => Cow::Borrowed(v),
    }
}

/// Join left tuples against a right scan node: an index nested-loop join
/// when the cost pass chose a probe, else a hash join on an
/// equi-condition, else a nested loop evaluating the full ON. Each
/// output tuple is its left tuple plus one reference to the right row.
/// Each left row's matches come in right-table row-id order whichever
/// strategy runs.
fn exec_join<'p>(
    left_layout: Layout,
    left_rows: Tuples<'p>,
    right: &'p ScanNode<'_>,
    kind: JoinKind,
    on: Option<&Expr>,
    params: &[Value],
    prof: Option<&mut ExecProfile>,
) -> Result<(Layout, Tuples<'p>, u64)> {
    let _stage = telemetry::span("db.exec.join");
    let join_t0 = prof.is_some().then(Instant::now);
    let right_table: &'p Table = &right.source;
    let right_pushed = compile_pushed(&right.pushed, &right.binding, &right.layout1(), params)?;

    let mut bindings = left_layout.bindings().to_vec();
    bindings.push((right.binding.clone(), right.columns.clone()));
    let full_layout = Layout::new(bindings);

    // An index probe reads the index entries under each left key. Every
    // other strategy reads the right rows in row-id order, prefiltered by
    // pushed conjuncts: that drops only rows that could never survive the
    // WHERE, and keeps the survivors' order.
    let probe = match &right.access {
        Access::Probe {
            left_slot,
            right_col,
            ..
        } => match right_table.index_on(*right_col) {
            Some(ix) => Some((*left_slot, ix)),
            None => {
                return Err(DbError::Unsupported(format!(
                    "index probe lost its index on {}",
                    right.columns[*right_col]
                )))
            }
        },
        _ => None,
    };
    let mut right_rows: Vec<&'p Row> = Vec::new();
    if probe.is_none() {
        for (_, row) in right_table.iter() {
            if pushed_match(&right_pushed, row, params)? {
                right_rows.push(row);
            }
        }
    }
    let mut read = right_rows.len() as u64;
    let on = match kind {
        JoinKind::Cross => None,
        JoinKind::Inner | JoinKind::Left => {
            Some(on.ok_or_else(|| DbError::Unsupported("JOIN requires ON".into()))?)
        }
    };
    let on_bound = on.map(|on| full_layout.bind(on)).transpose()?;
    // A hash join on an equi-condition; NULL keys are never hashed.
    let hashed = match (
        probe,
        on.and_then(|on| equi_offsets(on, &left_layout, right)),
    ) {
        (None, Some((l_slot, r_off))) => {
            let mut table: FastMap<Cow<'p, Value>, Vec<&'p Row>> = FastMap::default();
            for &r in right_rows.iter().filter(|r| !r[r_off].is_null()) {
                table.entry(hash_key(&r[r_off])).or_default().push(r);
            }
            Some((l_slot, r_off, table))
        }
        _ => None,
    };

    let mut out: Vec<Option<&'p Row>> = Vec::new();
    for l in left_rows.iter() {
        let before = out.len();
        let left_value = |(b, c): (usize, usize)| Env::new(l, params).slot(b, c);
        if let Some((left_slot, ix)) = probe {
            // NULL keys are not indexed: a NULL key matches nothing.
            let key = left_value(left_slot);
            // A double past 2^53 equals every integer key that rounds to
            // it, and `ids` looks up one key; a range finds them all.
            let ranged;
            let ids = match key {
                Value::Null => &[][..],
                Value::Float(_) => {
                    ranged = ix.range(Bound::Included(key), Bound::Included(key));
                    &ranged[..]
                }
                _ => ix.ids(key),
            };
            read += ids.len() as u64;
            for r in ids.iter().filter_map(|&id| right_table.row(id)) {
                if pushed_match(&right_pushed, r, params)? {
                    out.extend_from_slice(l);
                    out.push(Some(r));
                }
            }
        } else if let Some((l_slot, r_off, table)) = &hashed {
            let key = left_value(*l_slot);
            let bucket = hash_key(key);
            let exact = matches!(bucket, Cow::Owned(_));
            for &m in table.get(&*bucket).into_iter().flatten() {
                if exact && m[*r_off] != *key {
                    continue;
                }
                out.extend_from_slice(l);
                out.push(Some(m));
            }
        } else {
            // Nested loop with full ON evaluation (none for CROSS).
            for &r in &right_rows {
                let start = out.len();
                out.extend_from_slice(l);
                out.push(Some(r));
                if let Some(on) = &on_bound {
                    if !eval_condition(on, &Env::new(&out[start..], params))? {
                        out.truncate(start);
                    }
                }
            }
        }
        if kind == JoinKind::Left && out.len() == before {
            out.extend_from_slice(l);
            out.push(None);
        }
    }
    let joined = Tuples {
        stride: left_rows.stride + 1,
        refs: out,
    };
    let scanned = joined.len() as u64;
    if let Some(p) = prof {
        p.joins.push((scanned, read, stage_ns(join_t0)));
    }
    Ok((full_layout, joined, scanned))
}

/// The WHERE pass: keep the row tuples the predicate accepts, in order.
fn exec_filter<'p>(
    layout: &Layout,
    rows: Tuples<'p>,
    pred: &Expr,
    params: &[Value],
    prof: Option<&mut ExecProfile>,
) -> Result<Tuples<'p>> {
    let pred = layout.bind(pred)?;
    let _stage = telemetry::span("db.exec.filter");
    let t0 = prof.is_some().then(Instant::now);
    let rows_in = rows.len();
    let mut refs = Vec::new();
    for tuple in rows.iter() {
        if eval_condition(&pred, &Env::new(tuple, params))? {
            refs.extend_from_slice(tuple);
        }
    }
    let rows = Tuples {
        stride: rows.stride,
        refs,
    };
    if let Some(p) = prof {
        p.filter = Some((rows_in as u64, rows.len() as u64, stage_ns(t0)));
    }
    Ok(rows)
}

/// Execute a decided columnar plan over the fact scan at layout
/// position `cplan.fact`.
fn exec_columnar(
    plan: &Plan<'_>,
    cplan: &vector::ColumnarPlan,
    params: &[Value],
    mut prof: Option<&mut ExecProfile>,
) -> Result<ResultSet> {
    let scans = &plan.scans;
    let fact: &Table = &scans[cplan.fact].source;
    let t0 = prof.is_some().then(Instant::now);
    let (groups, stats) = {
        let _stage = telemetry::span("db.exec.colscan");
        vector::execute_columnar(fact, cplan)?
    };
    telemetry::add("db.exec.columnar_scans", 1);
    // The aggregate stage, representative rows included, starts where
    // the scan ends, so the two lines never count the same time.
    let scan_ns = stage_ns(t0);
    let agg_t0 = prof.is_some().then(Instant::now);

    let (group_by, having) = plan.aggregate.as_ref().expect("a columnar plan aggregates");
    let bound = BoundAggregate::bind(
        &plan.projections,
        group_by,
        having.as_ref(),
        &plan.order_by,
        &layout_of(scans),
    )?;
    let aggs = bound.aggs();
    debug_assert_eq!(aggs.len(), cplan.aggs.len());
    // Each group is represented by the joined tuple of its first fact
    // row: the fact row plus the dimension row its foreign key names.
    let mut dims: Vec<Option<&vector::Dimension>> = vec![None; scans.len()];
    for d in &cplan.dims {
        dims[d.binding] = Some(d);
    }
    let groups = groups
        .into_iter()
        .map(|g| {
            let rep = g.first.and_then(|slot| fact.row(slot as RowId)).map(|row| {
                let tuple = scans.iter().zip(&dims).map(|(scan, dim)| match dim {
                    None => Some(row),
                    Some(d) => {
                        let key = row[d.fk].as_int()?;
                        scan.source.row(d.keys.row_of(key)?)
                    }
                });
                Cow::Owned(tuple.collect())
            });
            (rep, g.accs)
        })
        .collect();
    if let Some(p) = prof.as_deref_mut() {
        p.colscan = Some((
            stats.rows,
            stats.chunks,
            stats.cache_hits,
            stats.cache_misses,
            stats.partitions,
            scan_ns,
        ));
    }
    let rows = finish_groups(
        &bound,
        &aggs,
        groups,
        scans.len(),
        &plan.order_by,
        params,
        agg_t0,
        prof,
    )?;
    Ok(ResultSet {
        columns: bound.columns,
        rows,
        rows_scanned: stats.rows,
        ..ResultSet::default()
    })
}

// ---------------- EXPLAIN ----------------

/// Describe the plan the executor would use for a SELECT (`EXPLAIN`).
///
/// The description is rendered from the very plan the executor runs —
/// same lowering, same rewrite rules, same access decisions —
/// so it cannot drift from reality. Subqueries are not run, so this
/// plans the unresolved statement. Fired rewrite rules are appended as
/// `optimizer:` trail lines.
pub(crate) fn explain_select(db: &Database, sel: &Select, params: &[Value]) -> Result<Vec<String>> {
    let planned = plan::plan_select(db, sel, params, select_has_subqueries(sel))?;
    Ok(render_plan(&planned, params, None))
}

/// `EXPLAIN ANALYZE` for a SELECT: execute it for real with per-operator
/// instrumentation, then render the plan that ran (after subquery
/// resolution) with each operator's actual rows, partitions used, and
/// wall time. The closing `total:` line carries the executed query's
/// `ResultSet` provenance verbatim (rows returned, rows scanned,
/// elapsed), so the annotated plan cannot disagree with what a plain
/// execution reports.
pub(crate) fn explain_analyze_select(
    db: &Database,
    sel: &Select,
    params: &[Value],
) -> Result<Vec<String>> {
    let mut prof = ExecProfile::default();
    let (planned, done) = run_select(db, sel, params, Some(&mut prof), &mut |_| {})?;
    prof.returned = done.returned;
    let mut lines = render_plan(&planned, params, Some(&prof));
    lines.push(format!(
        "total: {} row(s) returned, {} row(s) scanned, {}",
        done.returned,
        done.rows_scanned,
        fmt_ns(done.elapsed.as_nanos().min(u64::MAX as u128) as u64)
    ));
    Ok(lines)
}

/// Append ` [note]` to a plan line when there is a note.
fn noted(mut line: String, note: Option<String>) -> String {
    if let Some(note) = note {
        line.push_str(&format!(" [{note}]"));
    }
    line
}

/// Render a plan, one line per operator. With a profile (`EXPLAIN
/// ANALYZE`) each operator's line carries what it measured.
fn render_plan(
    planned: &PlannedSelect<'_>,
    params: &[Value],
    prof: Option<&ExecProfile>,
) -> Vec<String> {
    let plan = &planned.plan;
    if plan.scans.is_empty() {
        let note = prof.map(|_| "actual rows=1".to_string());
        return vec![noted("result: constant row (no FROM)".to_string(), note)];
    }
    let mut lines = match &plan.columnar {
        Some(c) if !c.plan.dims.is_empty() => star_lines(plan, c, prof),
        columnar => join_lines(plan, columnar.as_ref(), params, prof),
    };

    // A columnar scan fuses the WHERE predicates into the scan itself, so
    // there is no separate filter operator to report.
    if plan.filter.is_some() && plan.columnar.is_none() {
        let note = prof
            .and_then(|p| p.filter)
            .map(|(rows_in, rows_out, ns)| measured(format!("rows={rows_out} of {rows_in}"), ns));
        lines.push(noted("filter: WHERE".to_string(), note));
    }
    if let Some((group_by, having)) = &plan.aggregate {
        let note = prof
            .and_then(|p| p.aggregate)
            .map(|(groups, ns)| measured(format!("groups={groups}"), ns));
        let line = format!(
            "aggregate: group by {} expr(s){}",
            group_by.len(),
            if having.is_some() { ", having" } else { "" }
        );
        lines.push(noted(line, note));
    }
    if plan.distinct {
        let note = prof
            .and_then(|p| p.distinct)
            .map(|(rows_in, rows_out)| format!("actual rows={rows_out} of {rows_in}"));
        lines.push(noted("distinct".to_string(), note));
    }
    if !plan.order_by.is_empty() {
        let note = prof.map(|p| fmt_ns(p.sort_ns));
        lines.push(noted(format!("sort: {} key(s)", plan.order_by.len()), note));
    }
    if plan.limit.is_some() || plan.offset.is_some() {
        let note = prof.map(|p| format!("actual rows={}", p.returned));
        let line = format!("limit {:?} offset {:?}", plan.limit, plan.offset);
        lines.push(noted(line, note));
    }
    if planned.optimizer_off {
        lines.push("optimizer: off (rewrite rules disabled)".to_string());
    } else {
        for t in &planned.trail {
            lines.push(format!("optimizer: {}: {}", t.rule, t.detail));
        }
    }
    lines
}

/// The base scan and join lines of a row-path plan (or of a columnar
/// single-table aggregate, whose fact is the base), base first.
fn join_lines(
    plan: &Plan<'_>,
    columnar: Option<&Columnar>,
    params: &[Value],
    prof: Option<&ExecProfile>,
) -> Vec<String> {
    // How many of a scan's pushed conjuncts run as typed column tests
    // (the rest go through `eval`).
    let typed = |scan: &ScanNode<'_>| {
        let layout1 = scan.layout1();
        let n = scan
            .pushed
            .iter()
            .filter(|c| column_test(c, &scan.binding, &layout1, params).is_some())
            .count();
        format!("({n} typed)")
    };
    let base = &plan.scans[0];
    let mut lines = vec![scan_line(base, columnar, prof)];
    if !plan.joins.is_empty() && !base.pushed.is_empty() {
        lines.push(format!(
            "  pushdown: {} base-only conjunct(s) {}",
            base.pushed.len(),
            typed(base)
        ));
    }

    for (i, (right, (kind, on))) in plan.scans[1..].iter().zip(&plan.joins).enumerate() {
        let k = match kind {
            JoinKind::Left => "left",
            _ => "inner",
        };
        let (table, rows) = (&right.table_name, right.source.len());
        let line = match (kind, &right.access) {
            (JoinKind::Cross, _) => format!("cross join (cartesian) with {table} ({rows} row(s))"),
            (
                _,
                Access::Probe {
                    index_name,
                    right_col,
                    ..
                },
            ) => {
                let keys = right
                    .source
                    .index_on(*right_col)
                    .map_or(0, |ix| ix.distinct_keys());
                format!(
                    "{k} index nested-loop join with {table} via {index_name} \
                     ({rows} row(s), {keys} distinct key(s))"
                )
            }
            _ => match on
                .as_ref()
                .and_then(|on| equi_offsets(on, &layout_of(&plan.scans[..=i]), right))
            {
                Some(_) => format!("{k} hash join with {table} ({rows} row(s))"),
                None => format!("{k} nested-loop join with {table} ({rows} row(s))"),
            },
        };
        let note = prof
            .and_then(|p| p.joins.get(i))
            .map(|(rows_out, read, ns)| {
                format!("actual rows={rows_out}, read={read}, {}", fmt_ns(*ns))
            });
        lines.push(noted(line, note));
        if !right.pushed.is_empty() {
            lines.push(format!(
                "  pushdown: {} conjunct(s) into {} {}",
                right.pushed.len(),
                right.table_name,
                typed(right)
            ));
        }
    }

    lines
}

/// The lines of a columnar star join: the fact scan, then one key-set
/// line per dimension, in layout order.
fn star_lines(plan: &Plan<'_>, columnar: &Columnar, prof: Option<&ExecProfile>) -> Vec<String> {
    let fact = &plan.scans[columnar.plan.fact];
    let mut lines = vec![scan_line(fact, Some(columnar), prof)];
    for d in &columnar.plan.dims {
        let dim = &plan.scans[d.binding];
        let line = format!(
            "key-set join with {} on {}.{} ({} row(s), {} key(s))",
            dim.table_name,
            fact.binding,
            fact.columns[d.fk],
            dim.source.len(),
            d.keys.len()
        );
        let note = prof.map(|_| {
            format!(
                "actual keys={}, read={}, {}",
                d.keys.len(),
                d.read,
                fmt_ns(d.ns)
            )
        });
        lines.push(noted(line, note));
    }
    lines
}

/// The line of one scan; `columnar` when it is the fact of the plan's
/// columnar aggregate.
fn scan_line(
    scan: &ScanNode<'_>,
    columnar: Option<&Columnar>,
    prof: Option<&ExecProfile>,
) -> String {
    let table: &Table = &scan.source;
    let mut line = if scan.source.is_virtual() {
        // System tables have no indexes or chunk caches; the executor
        // always row-scans the per-statement materialization.
        format!(
            "virtual scan on {} ({} row(s), materialized from live engine state)",
            scan.table_name,
            table.len()
        )
    } else if let Some(Columnar { plan, reason }) = columnar {
        // A star join names its grouping and key-set tests; a
        // single-table aggregate keeps the plain line.
        let (kind, groups) = match plan.group.map(|g| &plan.dims[g]) {
            _ if plan.dims.is_empty() => ("columnar scan", String::new()),
            None => ("columnar star scan", String::new()),
            Some(d) => (
                "columnar star scan",
                format!(
                    ", {} group slot(s) by {} ({})",
                    d.keys.len(),
                    scan.columns[d.fk],
                    if d.keys.is_dense() {
                        "dense key offsets"
                    } else {
                        "sorted keys"
                    }
                ),
            ),
        };
        format!(
            "{kind} on {} ({} live row(s), {} chunk(s) of {}, {} kernel(s), {} fused predicate(s){groups}; {})",
            scan.table_name,
            table.len(),
            plan.chunk_count(table),
            CHUNK_ROWS,
            plan.aggs.len(),
            plan.pred_count(),
            reason
        )
    } else {
        match &scan.access {
            Access::Index(choice) => {
                // The index statistics are read here, under the same read
                // lock the plan was made under.
                let ix = table.indexes().find(|ix| ix.name == choice.index_name);
                let mut l = format!(
                    "index scan on {} ({} candidate row(s) of {}) via {}, {} distinct key(s)",
                    scan.table_name,
                    choice.ids.len(),
                    table.len(),
                    choice.index_name,
                    ix.map_or(0, |ix| ix.distinct_keys())
                );
                if let Some((lo, hi)) = ix.and_then(|ix| Some((ix.min_key()?, ix.max_key()?))) {
                    l.push_str(&format!(", key range [{lo}, {hi}]"));
                }
                l
            }
            Access::IndexOrder { index_name, column } => format!(
                "index-order scan on {} ({} row(s)) via {}, ascending by {}",
                scan.table_name,
                table.len(),
                index_name,
                column
            ),
            // Only join right sides probe; a base scan never does.
            Access::Seq | Access::Probe { .. } => {
                format!("seq scan on {} ({} row(s))", scan.table_name, table.len())
            }
        }
    };
    let columnar = columnar.is_some();
    if let Some(take) = scan.stop_after {
        if !columnar {
            line.push_str(&format!(" [early exit after {take} match(es)]"));
        }
    }
    let note = prof.and_then(|p| match (columnar, p.colscan, p.scan) {
        (true, Some((live, chunks, hits, misses, parts, ns)), _) => {
            let parts = match parts {
                0 => "serial".to_string(),
                n => n.to_string(),
            };
            Some(measured(
                format!(
                    "rows={live}, chunks={chunks}, cache hits={hits} misses={misses}, \
                     partitions={parts}"
                ),
                ns,
            ))
        }
        (false, _, Some((rows_out, read, ns))) => {
            Some(measured(format!("rows={rows_out}, read={read}"), ns))
        }
        _ => None,
    });
    noted(line, note)
}

// ---------------- shared analysis helpers ----------------

/// Collect every column reference in an expression tree.
pub(crate) fn collect_columns<'a>(expr: &'a Expr, out: &mut Vec<(Option<&'a str>, &'a str)>) {
    match expr {
        Expr::Column { table, column } => out.push((table.as_deref(), column)),
        _ => expr.for_each_child(|c| collect_columns(c, out)),
    }
}

/// If `on` is `left_col = right_col` (either order), return the left
/// column's slot in the accumulated layout and the right column's offset
/// in the right table.
pub(crate) fn equi_offsets(
    on: &Expr,
    left_layout: &Layout,
    right: &ScanNode<'_>,
) -> Option<((usize, usize), usize)> {
    let Expr::Binary {
        op: BinaryOp::Eq,
        left: a,
        right: b,
    } = on
    else {
        return None;
    };
    let right_layout = right.layout1();
    [(a, b), (b, a)].into_iter().find_map(|(l, r)| {
        let (
            Expr::Column { table, column },
            Expr::Column {
                table: rt,
                column: rc,
            },
        ) = (&**l, &**r)
        else {
            return None;
        };
        let lo = left_layout.resolve(table.as_deref(), column).ok()?;
        let ro = resolve_base_col(r, &right.binding, &right_layout)?;
        // An unqualified right-side name that also resolves on the left
        // is ambiguous; only explicit qualification settles it.
        (rt.is_some() || left_layout.resolve(None, rc).is_err()).then_some((lo, ro))
    })
}

/// True if every column reference in `expr` resolves within `layout`.
pub(crate) fn refs_only_layout(expr: &Expr, layout: &Layout) -> bool {
    match expr {
        Expr::Column { table, column } => layout.resolve(table.as_deref(), column).is_ok(),
        // Unresolved subqueries cannot be pushed down safely.
        Expr::InSubquery { .. } | Expr::ScalarSubquery(_) | Expr::Exists { .. } => false,
        _ => !expr.any_child(|c| !refs_only_layout(c, layout)),
    }
}

/// Collect top-level AND conjuncts.
pub(crate) fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            let mut v = conjuncts(left);
            v.extend(conjuncts(right));
            v
        }
        other => vec![other],
    }
}

/// An index-restricted scan: the candidate row ids and the index that
/// produced them (EXPLAIN reads its statistics when it renders).
#[derive(Debug)]
pub(crate) struct IndexChoice {
    /// Candidate row ids, in index key order.
    pub ids: Vec<RowId>,
    /// Name of the consulted index.
    pub index_name: String,
}

/// The candidate row ids of the first of `conjuncts` that an index on the
/// table serves; `None` means full scan. Callers pass a WHERE clause's
/// conjuncts (a base scan, an UPDATE/DELETE target) or a scan's pushed
/// ones (join reordering).
pub(crate) fn index_candidates<'e>(
    table: &Table,
    binding: &str,
    layout1: &Layout,
    conjuncts: impl IntoIterator<Item = &'e Expr>,
    params: &[Value],
) -> Result<Option<IndexChoice>> {
    Ok(conjuncts.into_iter().find_map(|c| {
        let test = column_test(c, binding, layout1, params)?;
        index_choice(table, &test)
    }))
}

/// The candidate rows of one column test through the table's index on
/// its column, when there is one and it can serve the test.
pub(crate) fn index_choice(table: &Table, test: &ColumnTest) -> Option<IndexChoice> {
    let ix = table.index_on(test.col)?;
    // A double past 2^53 equals every integer key that rounds to it, and
    // `ids` looks up one key; a range finds them all.
    let equal = |v: &Value| match v {
        Value::Float(_) => ix.range(Bound::Included(v), Bound::Included(v)),
        _ => ix.ids(v).to_vec(),
    };
    let ids = match &test.kind {
        TestKind::Cmp { op, value } => match op {
            PredOp::Eq => equal(value),
            PredOp::Lt => ix.range(Bound::Unbounded, Bound::Excluded(value)),
            PredOp::Le => ix.range(Bound::Unbounded, Bound::Included(value)),
            PredOp::Gt => ix.range(Bound::Excluded(value), Bound::Unbounded),
            PredOp::Ge => ix.range(Bound::Included(value), Bound::Unbounded),
            PredOp::Ne => return None,
        },
        TestKind::Between {
            low,
            high,
            negated: false,
        } => ix.range(Bound::Included(low), Bound::Included(high)),
        TestKind::InList {
            items,
            negated: false,
        } => {
            let mut ids: Vec<RowId> = items.iter().flat_map(equal).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        }
        _ => return None,
    };
    Some(IndexChoice {
        ids,
        index_name: ix.name.clone(),
    })
}

// ---------------- projection ----------------

/// Expand projections into (name, expr) pairs; wildcards become columns.
fn expand_projections(projections: &[Projection], layout: &Layout) -> Result<Vec<(String, Expr)>> {
    let mut out = Vec::new();
    let push_binding = |out: &mut Vec<_>, (binding, cols): &(String, Vec<String>)| {
        for col in cols {
            out.push((
                col.clone(),
                Expr::Column {
                    table: Some(binding.clone()),
                    column: col.clone(),
                },
            ));
        }
    };
    for p in projections {
        match p {
            Projection::Wildcard => {
                for b in layout.bindings() {
                    push_binding(&mut out, b);
                }
            }
            Projection::TableWildcard(t) => {
                let b = layout
                    .binding_index(t)
                    .ok_or_else(|| DbError::NoSuchTable(t.clone()))?;
                push_binding(&mut out, &layout.bindings()[b]);
            }
            Projection::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| expr.default_name());
                out.push((name, expr.clone()));
            }
        }
    }
    Ok(out)
}

/// `(binding, first column)` when the bound projection reads columns
/// `c, c + 1, ..` of one binding in order, so each output row is a slice
/// of one base row.
fn column_run(exprs: &[Expr]) -> Option<(usize, usize)> {
    let slot = |e: &Expr| match e {
        Expr::Slot { binding, column } => Some((*binding, *column)),
        _ => None,
    };
    let (b, c) = slot(exprs.first()?)?;
    let in_order = (0..).zip(exprs).all(|(i, e)| slot(e) == Some((b, c + i)));
    in_order.then_some((b, c))
}

fn plain_path(
    plan: &Plan<'_>,
    layout: &Layout,
    rows: &Tuples<'_>,
    params: &[Value],
    mut prof: Option<&mut ExecProfile>,
    out: &mut Window<'_, '_>,
) -> Result<Vec<String>> {
    let projections = expand_projections(&plan.projections, layout)?;
    let columns: Vec<String> = projections.iter().map(|(n, _)| n.clone()).collect();
    let exprs = bind_all(projections.iter().map(|(_, e)| e), layout)?;

    // Without ORDER BY or DISTINCT each row is handed on at once,
    // stopping when LIMIT is reached: a run of consecutive columns of one
    // binding is lent from its base row, any other projection (or a
    // LEFT-join miss) fills one reused buffer. Otherwise the rows are
    // collected first.
    let stream = plan.order_by.is_empty() && !plan.distinct;
    let run = column_run(&exprs).filter(|_| stream);
    let mut out_rows = Vec::new();
    let mut buf = Vec::new();
    for tuple in rows.iter() {
        if out.is_full() {
            break;
        }
        if let Some((Some(base), c)) = run.map(|(b, c)| (tuple[b], c)) {
            out.push(&mut Cow::Borrowed(&base[c..c + exprs.len()]));
            continue;
        }
        let env = Env::new(tuple, params);
        buf.clear();
        buf.reserve_exact(exprs.len());
        for e in &exprs {
            buf.push(eval_ref(e, &env)?.into_owned());
        }
        if stream {
            let mut row = Cow::Owned(std::mem::take(&mut buf));
            out.push(&mut row);
            if let Cow::Owned(row) = row {
                buf = row;
            }
        } else {
            out_rows.push(std::mem::take(&mut buf));
        }
    }
    if stream {
        return Ok(columns);
    }

    // ORDER BY sees the source row as well as the projected one, so sort
    // keys can use any source column.
    let order_by = &plan.order_by;
    if !order_by.is_empty() {
        let keys = bind_order_keys(order_by, &projections, layout)?;
        let _stage = telemetry::span("db.exec.sort");
        let t0 = prof.is_some().then(Instant::now);
        let mut sort_keys = Vec::with_capacity(out_rows.len());
        for (tuple, row) in rows.iter().zip(&out_rows) {
            let env = Env::new(tuple, params);
            sort_keys.push(order_key_values(&keys, row, |e| {
                Ok(eval_ref(e, &env)?.into_owned())
            })?);
        }
        let mut indices: Vec<usize> = (0..out_rows.len()).collect();
        indices.sort_by(|&a, &b| cmp_order_keys(&sort_keys[a], &sort_keys[b], order_by));
        out_rows = indices
            .into_iter()
            .map(|i| std::mem::take(&mut out_rows[i]))
            .collect();
        if let Some(p) = prof.as_deref_mut() {
            p.sort_ns = stage_ns(t0);
        }
    }
    out.push_all(out_rows, plan.distinct, prof);
    Ok(columns)
}

// ---------------- aggregation ----------------

/// Collect every distinct aggregate sub-expression in a tree.
pub(crate) fn collect_aggregates<'a>(expr: &'a Expr, out: &mut Vec<&'a Expr>) {
    match expr {
        Expr::Aggregate { .. } => {
            if !out.contains(&expr) {
                out.push(expr);
            }
        }
        _ => expr.for_each_child(|c| collect_aggregates(c, out)),
    }
}

/// Replace aggregate nodes with their computed literal values.
fn substitute(expr: &Expr, aggs: &[&Expr], values: &[Value]) -> Expr {
    if let Some(pos) = aggs.iter().position(|a| *a == expr) {
        return Expr::Literal(values[pos].clone());
    }
    let Ok(out) = expr.try_map_children(|c| Ok::<_, Infallible>(substitute(c, aggs, values)));
    out
}

/// The aggregate tail of a statement bound against its pipeline layout:
/// the output expressions, HAVING and ORDER BY keys, with every aggregate
/// call they hold collected in one canonical order. Accumulator `i` of a
/// group belongs to `aggs()[i]`, on the row path and the columnar path
/// alike, since both bind through here.
pub(crate) struct BoundAggregate {
    columns: Vec<String>,
    exprs: Vec<Expr>,
    group_by: Vec<Expr>,
    having: Option<Expr>,
    keys: Vec<OrderKey>,
}

impl BoundAggregate {
    pub(crate) fn bind(
        proj: &[Projection],
        group_by: &[Expr],
        having: Option<&Expr>,
        order_by: &[OrderItem],
        layout: &Layout,
    ) -> Result<Self> {
        let projections = expand_projections(proj, layout)?;
        Ok(BoundAggregate {
            columns: projections.iter().map(|(n, _)| n.clone()).collect(),
            exprs: bind_all(projections.iter().map(|(_, e)| e), layout)?,
            group_by: bind_all(group_by, layout)?,
            having: having.map(|h| layout.bind(h)).transpose()?,
            keys: bind_order_keys(order_by, &projections, layout)?,
        })
    }

    /// Every aggregate call in the projections, HAVING and ORDER BY.
    pub(crate) fn aggs(&self) -> Vec<&Expr> {
        let mut aggs: Vec<&Expr> = Vec::new();
        for e in &self.exprs {
            collect_aggregates(e, &mut aggs);
        }
        if let Some(h) = &self.having {
            collect_aggregates(h, &mut aggs);
        }
        for k in &self.keys {
            if let OrderKey::Expr(e) = k {
                collect_aggregates(e, &mut aggs);
            }
        }
        aggs
    }

    /// The bound GROUP BY expressions.
    pub(crate) fn group_by(&self) -> &[Expr] {
        &self.group_by
    }

    /// True when every output, HAVING and ORDER BY expression reads
    /// columns only inside aggregate calls or GROUP BY expressions, so
    /// it has one value per group whichever row represents the group.
    pub(crate) fn is_grouped_only(&self) -> bool {
        let g = &self.group_by;
        self.exprs.iter().all(|e| grouped_only(e, g))
            && self.having.as_ref().is_none_or(|h| grouped_only(h, g))
            && self.keys.iter().all(|k| match k {
                OrderKey::Output(_) => true,
                OrderKey::Expr(e) => grouped_only(e, g),
            })
    }
}

/// One group on its way out: its representative tuple (the joined tuple
/// of one of its rows; `None` for the empty group of an ungrouped
/// aggregate over no rows) and one accumulator per aggregate call.
type Group<'t> = (Option<Cow<'t, [Option<&'t Row>]>>, Vec<Accumulator>);

/// Turn accumulated groups into output rows: HAVING, the projections and
/// the ORDER BY keys are evaluated on each group's representative tuple
/// with its aggregate values substituted, then the rows are sorted. Both
/// the row path and the columnar path end here. `agg_t0` starts the
/// aggregate stage's EXPLAIN ANALYZE time, which excludes the sort,
/// reported on its own line.
#[allow(clippy::too_many_arguments)]
fn finish_groups(
    bound: &BoundAggregate,
    aggs: &[&Expr],
    groups: Vec<Group<'_>>,
    stride: usize,
    order_by: &[OrderItem],
    params: &[Value],
    agg_t0: Option<Instant>,
    mut prof: Option<&mut ExecProfile>,
) -> Result<Vec<Row>> {
    let group_count = groups.len() as u64;
    let null_tuple = vec![None; stride];
    let mut out_rows = Vec::with_capacity(groups.len());
    // An expression that is one aggregate call reads its value; one with
    // none evaluates as it stands; only a mix is substituted per group.
    let position = |e: &Expr| aggs.iter().position(|a| *a == e);
    let mixed = |e: &Expr| position(e).is_none() && e.contains_aggregate();
    for (rep, accs) in &groups {
        let agg_values: Vec<Value> = accs.iter().map(|a| a.finish()).collect();
        let env = Env::new(rep.as_deref().unwrap_or(&null_tuple), params);
        let value = |e: &Expr| -> Result<Value> {
            if let Some(i) = position(e) {
                return Ok(agg_values[i].clone());
            }
            let e = if mixed(e) {
                Cow::Owned(substitute(e, aggs, &agg_values))
            } else {
                Cow::Borrowed(e)
            };
            Ok(eval_ref(&e, &env)?.into_owned())
        };
        if let Some(h) = &bound.having {
            if !eval_condition(&substitute(h, aggs, &agg_values), &env)? {
                continue;
            }
        }
        let out = bound.exprs.iter().map(&value).collect::<Result<Vec<_>>>()?;
        let key = order_key_values(&bound.keys, &out, value)?;
        out_rows.push((key, out));
    }
    if let Some(p) = prof.as_deref_mut() {
        p.aggregate = Some((group_count, stage_ns(agg_t0)));
    }
    if !order_by.is_empty() {
        let _stage = telemetry::span("db.exec.sort");
        let t0 = prof.is_some().then(Instant::now);
        out_rows.sort_by(|a, b| cmp_order_keys(&a.0, &b.0, order_by));
        if let Some(p) = prof {
            p.sort_ns = stage_ns(t0);
        }
    }
    Ok(out_rows.into_iter().map(|(_, r)| r).collect())
}

#[allow(clippy::too_many_arguments)]
fn aggregate_path(
    proj: &[Projection],
    group_by: &[Expr],
    having: Option<&Expr>,
    order_by: &[OrderItem],
    layout: &Layout,
    rows: &Tuples<'_>,
    params: &[Value],
    prof: Option<&mut ExecProfile>,
) -> Result<ResultSet> {
    let agg_t0 = prof.is_some().then(Instant::now);
    let bound = BoundAggregate::bind(proj, group_by, having, order_by, layout)?;
    let aggs = bound.aggs();

    let groups = group_and_accumulate(bound.group_by(), rows, params, &aggs)?
        .into_iter()
        .map(|(rep, accs)| (rep.map(|i| Cow::Borrowed(rows.get(i))), accs))
        .collect();
    Ok(ResultSet {
        rows: finish_groups(
            &bound,
            &aggs,
            groups,
            rows.stride,
            order_by,
            params,
            agg_t0,
            prof,
        )?,
        columns: bound.columns,
        ..ResultSet::default()
    })
}

fn new_accumulators(aggs: &[&Expr]) -> Vec<Accumulator> {
    aggs.iter()
        .map(|a| match a {
            Expr::Aggregate { func, distinct, .. } => Accumulator::new(*func, *distinct),
            _ => unreachable!("collect_aggregates only collects aggregates"),
        })
        .collect()
}

fn update_accumulators(accs: &mut [Accumulator], aggs: &[&Expr], env: &Env) -> Result<()> {
    for (acc, a) in accs.iter_mut().zip(aggs) {
        let Expr::Aggregate { arg, .. } = a else {
            unreachable!()
        };
        match arg {
            None => acc.update(None)?,
            Some(e) => acc.update(Some(eval_ref(e, env)?.as_ref()))?,
        }
    }
    Ok(())
}

/// Group the rows and feed the aggregates, producing groups in
/// first-occurrence order, each with the index of its first row as
/// representative (`None` only for the one group of an ungrouped
/// aggregate over no rows).
fn group_and_accumulate(
    group_by: &[Expr],
    rows: &Tuples<'_>,
    params: &[Value],
    aggs: &[&Expr],
) -> Result<Vec<(Option<usize>, Vec<Accumulator>)>> {
    if group_by.is_empty() {
        let mut accs = new_accumulators(aggs);
        for tuple in rows.iter() {
            update_accumulators(&mut accs, aggs, &Env::new(tuple, params))?;
        }
        return Ok(vec![((rows.len() > 0).then_some(0), accs)]);
    }
    let mut groups = Vec::new();
    let mut group_index: FastMap<Vec<Cow<'_, Value>>, usize> = FastMap::default();
    // Reused per row; a key is copied only when its group is new.
    let mut key = Vec::with_capacity(group_by.len());
    for (i, tuple) in rows.iter().enumerate() {
        let env = Env::new(tuple, params);
        key.clear();
        for g in group_by {
            key.push(eval_ref(g, &env)?);
        }
        let gi = match group_index.get(key.as_slice()) {
            Some(&gi) => gi,
            None => {
                group_index.insert(key.clone(), groups.len());
                groups.push((Some(i), new_accumulators(aggs)));
                groups.len() - 1
            }
        };
        update_accumulators(&mut groups[gi].1, aggs, &env)?;
    }
    Ok(groups)
}

// ---------------- ORDER BY helpers ----------------

/// An ORDER BY key, bound once per statement: an output column (by
/// ordinal or alias) or an expression bound against the input layout.
enum OrderKey {
    Output(usize),
    Expr(Expr),
}

/// Bind the ORDER BY keys; ordinals and output aliases resolve first.
fn bind_order_keys(
    order_by: &[OrderItem],
    projections: &[(String, Expr)],
    layout: &Layout,
) -> Result<Vec<OrderKey>> {
    order_by
        .iter()
        .map(|o| match resolve_order_expr(&o.expr, projections)? {
            Some(i) => Ok(OrderKey::Output(i)),
            None => layout.bind(&o.expr).map(OrderKey::Expr),
        })
        .collect()
}

/// One row's ORDER BY key values: output columns are read from the
/// projected row `out`, expressions are evaluated by `eval_key`.
fn order_key_values(
    keys: &[OrderKey],
    out: &[Value],
    eval_key: impl Fn(&Expr) -> Result<Value>,
) -> Result<Vec<Value>> {
    keys.iter()
        .map(|k| match k {
            OrderKey::Output(i) => Ok(out[*i].clone()),
            OrderKey::Expr(e) => eval_key(e),
        })
        .collect()
}

/// Resolve ORDER BY shortcuts: ordinal (`ORDER BY 2`) or output alias.
/// Returns the index of the output column when applicable.
fn resolve_order_expr(expr: &Expr, projections: &[(String, Expr)]) -> Result<Option<usize>> {
    match expr {
        Expr::Literal(Value::Int(n)) => {
            let i = *n as usize;
            if i == 0 || i > projections.len() {
                return Err(DbError::Eval(format!(
                    "ORDER BY ordinal {n} out of range 1..={}",
                    projections.len()
                )));
            }
            Ok(Some(i - 1))
        }
        Expr::Column {
            table: None,
            column,
        } => {
            // Prefer an explicit output alias over a source column only if
            // the alias was explicitly given (it shadows).
            Ok(projections
                .iter()
                .position(|(n, e)| n.eq_ignore_ascii_case(column) && !matches!(e, Expr::Column { column: c, .. } if c.eq_ignore_ascii_case(column))))
        }
        _ => Ok(None),
    }
}

/// Compare two rows' ORDER BY keys, honouring each item's direction.
fn cmp_order_keys(a: &[Value], b: &[Value], order_by: &[OrderItem]) -> Ordering {
    a.iter()
        .zip(b)
        .zip(order_by)
        .map(|((x, y), o)| {
            let ord = x.total_cmp(y);
            if o.descending {
                ord.reverse()
            } else {
                ord
            }
        })
        .find(|ord| ord.is_ne())
        .unwrap_or(Ordering::Equal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse_statement;

    fn database() -> Database {
        let mut db = Database::new();
        for sql in [
            "CREATE TABLE e (id INTEGER PRIMARY KEY, trial INTEGER)",
            "CREATE TABLE p (id INTEGER PRIMARY KEY, ev INTEGER, x DOUBLE, n INTEGER, s TEXT)",
            "INSERT INTO e VALUES (1, 1), (2, 1), (3, 2), (4, 1)",
            "INSERT INTO p VALUES (10, 1, 0.5, 7, 'a'), (11, 2, -0.0, NULL, 'b'),
                                  (12, 1, 2.25, 9, NULL), (13, 3, 1.0, 1, 'c')",
        ] {
            crate::exec::execute(&mut db, &parse_statement(sql).unwrap(), &[]).unwrap();
        }
        db
    }

    /// Each row `sql` streams, with whether it arrived lent.
    fn streamed(db: &Database, sql: &str) -> Vec<(bool, Row)> {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else {
            panic!("not a SELECT: {sql}");
        };
        let mut out = Vec::new();
        stream_select(db, &sel, &[], &mut |row| {
            out.push((matches!(row, Cow::Borrowed(_)), row.to_vec()))
        })
        .unwrap();
        out
    }

    /// The rows of `sql`, asserting that every one arrived lent (or not).
    fn rows(db: &Database, sql: &str, lent: bool) -> Vec<Row> {
        let out = streamed(db, sql);
        assert!(out.iter().all(|(b, _)| *b == lent), "{sql}: {out:?}");
        out.into_iter().map(|(_, r)| r).collect()
    }

    #[test]
    fn column_runs_are_lent_and_other_projections_copied() {
        let db = database();
        let all = rows(&db, "SELECT * FROM p", true);
        assert_eq!(all.len(), 4);

        // Columns 1..5 of the fact table through a join, as a trial load.
        let mut join = rows(
            &db,
            "SELECT p.ev, p.x, p.n, p.s FROM e JOIN p ON p.ev = e.id WHERE e.trial = 1",
            true,
        );
        join.sort();
        let mut want: Vec<Row> = all[..3].iter().map(|r| r[1..].to_vec()).collect();
        want.sort();
        assert_eq!(join, want);

        // LIMIT and OFFSET count lent rows like any other.
        assert_eq!(
            rows(&db, "SELECT * FROM p LIMIT 2 OFFSET 1", true),
            all[1..3]
        );
        let tail = rows(&db, "SELECT x, n FROM p LIMIT 5 OFFSET 3", true);
        assert_eq!(tail, [all[3][2..4].to_vec()]);
        assert!(rows(&db, "SELECT * FROM p LIMIT 0", true).is_empty());

        // Computed and permuted columns, ORDER BY and DISTINCT are copied,
        // with the same values.
        let computed = rows(&db, "SELECT id, ev, x, n, s, 1 FROM p", false);
        let with_one = |r: &Row| [r.as_slice(), &[Value::Int(1)]].concat();
        assert_eq!(computed, all.iter().map(with_one).collect::<Vec<_>>());
        let permuted = rows(&db, "SELECT ev, id, x, n, s FROM p", false);
        let swapped = |r: &Row| [&[r[1].clone(), r[0].clone()], &r[2..]].concat();
        assert_eq!(permuted, all.iter().map(swapped).collect::<Vec<_>>());
        assert_eq!(rows(&db, "SELECT * FROM p ORDER BY id", false), all);
        assert_eq!(rows(&db, "SELECT DISTINCT * FROM p", false), all);

        // A LEFT-join miss has no base row to lend from.
        let left = streamed(&db, "SELECT p.ev, p.x FROM e LEFT JOIN p ON p.ev = e.id");
        assert_eq!(left.len(), 5);
        for (lent, row) in &left {
            assert_eq!(*lent, !row.iter().all(Value::is_null), "{left:?}");
        }
        assert!(left.iter().any(|(lent, _)| !lent));
    }
}
