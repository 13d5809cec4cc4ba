//! SELECT execution over the logical-plan IR.
//!
//! A SELECT no longer runs off ad-hoc heuristic branches: the statement
//! is lowered to a [`LogicalPlan`] tree, rewritten by the rule-based
//! optimizer, annotated with per-scan access decisions (`crate::plan`),
//! and then *walked* here — [`run_planned`] decomposes the operator
//! tail, [`exec_pipeline`] recurses over Filter/Join/Scan, and the
//! EXPLAIN renderer prints the very same tree, so the reported plan
//! cannot drift from what executes.

use super::aggregate::Accumulator;
use super::eval::{eval, eval_condition, eval_ref, Env, Layout};
use super::vector;
use super::ResultSet;
use crate::column::CHUNK_ROWS;
use crate::database::Database;
use crate::error::{DbError, Result};
use crate::introspect;
use crate::plan;
use crate::plan::ir::{Access, LogicalPlan, PlannedSelect, ScanNode};
use crate::sql::ast::*;
use crate::table::{Row, RowId, Table};
use crate::value::Value;
use perfdmf_pool as pool;
use perfdmf_telemetry as telemetry;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::convert::Infallible;
use std::ops::Bound;
use std::ops::Range;
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
    /// (rows out, rows read, partitions used, wall ns) of the base scan.
    /// Rows read are the index candidates or live rows visited, before
    /// pushed conjuncts.
    scan: Option<(u64, u64, usize, u64)>,
    /// (live rows, chunks, cache hits, cache misses, partitions, wall ns)
    /// of a columnar scan (fused scan + filter + aggregate).
    colscan: Option<(u64, usize, u64, u64, usize, u64)>,
    /// (rows out, right-side rows read, wall ns) per join, left to right.
    joins: Vec<(u64, u64, u64)>,
    /// (rows in, rows out, partitions used, wall ns) of the WHERE pass.
    filter: Option<(u64, u64, usize, u64)>,
    /// (groups, partitions used, wall ns) of the aggregate pass.
    aggregate: Option<(u64, usize, u64)>,
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

/// The `actual ..., partitions=..., ...ms` note of a measured operator.
fn measured(what: String, partitions: usize, ns: u64) -> String {
    let partitions = match partitions {
        0 => "serial".to_string(),
        n => n.to_string(),
    };
    format!("actual {what}, partitions={partitions}, {}", fmt_ns(ns))
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
            Expr::Column { .. } => false,
            Expr::Aggregate { .. } => true, // columns inside the arg are fine
            _ => !expr.any_child(|c| !grouped_only(c, group_by)),
        }
}

// ---------------- execution ----------------

/// Receives a SELECT's output rows in order. The row is lent for the
/// call; a collector may take it with [`std::mem::take`].
pub(crate) type Sink<'s> = dyn FnMut(&mut Row) + 's;

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
    let done = stream_select(db, sel, params, &mut |row| rows.push(std::mem::take(row)))?;
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

/// The operator tail of a plan, decomposed for direct execution. The
/// lowering's canonical spine ordering makes this a straight-line
/// pattern match.
pub(crate) struct Tail<'p, 'a> {
    limit: Option<u64>,
    offset: Option<u64>,
    has_limit: bool,
    distinct: bool,
    pub order_by: &'p [OrderItem],
    pub projections: &'p [Projection],
    /// `Some((group_by, having))` when an Aggregate node is present.
    pub aggregate: Option<(&'p [Expr], Option<&'p Expr>)>,
    /// The scan/join/filter pipeline below the tail.
    pipeline: &'p LogicalPlan<'a>,
}

pub(crate) fn decompose<'p, 'a>(root: &'p LogicalPlan<'a>) -> Tail<'p, 'a> {
    let mut node = root;
    let (mut limit, mut offset, mut has_limit) = (None, None, false);
    if let LogicalPlan::Limit {
        input,
        limit: l,
        offset: o,
    } = node
    {
        limit = *l;
        offset = *o;
        has_limit = true;
        node = input;
    }
    let mut distinct = false;
    if let LogicalPlan::Distinct { input } = node {
        distinct = true;
        node = input;
    }
    let mut order_by: &[OrderItem] = &[];
    if let LogicalPlan::Sort { input, keys } = node {
        order_by = keys;
        node = input;
    }
    let mut projections: &[Projection] = &[];
    if let LogicalPlan::Project {
        input,
        projections: p,
    } = node
    {
        projections = p;
        node = input;
    }
    let mut aggregate = None;
    if let LogicalPlan::Aggregate {
        input,
        group_by,
        having,
    } = node
    {
        aggregate = Some((group_by.as_slice(), having.as_ref()));
        node = input;
    }
    Tail {
        limit,
        offset,
        has_limit,
        distinct,
        order_by,
        projections,
        aggregate,
        pipeline: node,
    }
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

    fn push(&mut self, row: &mut Row) {
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
            let mut seen = std::collections::HashSet::new();
            rows.retain(|r| seen.insert(r.clone()));
            if let Some(p) = prof {
                p.distinct = Some((rows_in as u64, rows.len() as u64));
            }
        }
        for row in &mut rows {
            self.push(row);
        }
    }
}

/// Walk an optimized, access-annotated plan, handing its output rows to
/// `sink`.
fn run_planned(
    planned: &PlannedSelect<'_>,
    params: &[Value],
    mut prof: Option<&mut ExecProfile>,
    sink: &mut Sink<'_>,
) -> Result<Streamed> {
    let tail = decompose(&planned.root);
    let mut window = Window::new(tail.offset, tail.limit, sink);

    // Columnar fast path: fused scan + filter + aggregate over column
    // chunks. A `None` from the kernels (unsupported chunk data) falls
    // through to row execution below. Only a single-table `Filter?(Scan)`
    // pipeline is ever planned columnar.
    let single = match tail.pipeline {
        LogicalPlan::Filter { input, .. } => &**input,
        node => node,
    };
    if let LogicalPlan::Scan(scan) = single {
        if let Access::Columnar { plan: cplan, .. } = &scan.access {
            if let Some(out) =
                exec_columnar(scan, cplan, tail.projections, params, prof.as_deref_mut())?
            {
                window.push_all(out.rows, false, None);
                return Ok(Streamed {
                    columns: out.columns,
                    returned: window.returned,
                    rows_scanned: out.rows_scanned,
                    ..Streamed::default()
                });
            }
        }
    }

    let (layout, rows, rows_scanned) = exec_pipeline(tail.pipeline, params, prof.as_deref_mut())?;

    let columns = match tail.aggregate {
        Some((group_by, having)) => {
            let _stage = telemetry::span("db.exec.aggregate");
            let out = aggregate_path(
                tail.projections,
                group_by,
                having,
                tail.order_by,
                &layout,
                &rows,
                params,
                prof.as_deref_mut(),
            )?;
            window.push_all(out.rows, tail.distinct, prof);
            out.columns
        }
        None => {
            let _stage = telemetry::span("db.exec.project");
            plain_path(&tail, &layout, &rows, params, prof, &mut window)?
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
    node: &'p LogicalPlan<'_>,
    params: &[Value],
    mut prof: Option<&mut ExecProfile>,
) -> Result<(Layout, Tuples<'p>, u64)> {
    match node {
        // A FROM-less SELECT reads one tuple of no bindings; its one
        // unused entry keeps the stride nonzero.
        LogicalPlan::Empty => Ok((
            Layout::default(),
            Tuples {
                stride: 1,
                refs: vec![None],
            },
            0,
        )),
        LogicalPlan::Scan(scan) => exec_scan(scan, params, prof),
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let (left_layout, left_rows, _) = exec_pipeline(left, params, prof.as_deref_mut())?;
            exec_join(
                left_layout,
                left_rows,
                right,
                *kind,
                on.as_ref(),
                params,
                prof,
            )
        }
        LogicalPlan::Filter { input, predicate } => {
            let (layout, rows, scanned) = exec_pipeline(input, params, prof.as_deref_mut())?;
            let rows = exec_filter(&layout, rows, predicate, params, prof)?;
            Ok((layout, rows, scanned))
        }
        _ => Err(DbError::Unsupported(
            "tail operator in scan pipeline".into(),
        )),
    }
}

/// Evaluate a scan's bound pushed conjuncts against one of its rows.
fn pushed_match(pushed: &[Expr], row: &Row, params: &[Value]) -> Result<bool> {
    let tuple = [Some(row)];
    let env = Env::new(&tuple, params);
    for c in pushed {
        if !eval_condition(c, &env)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Read one scan according to its access decision.
fn exec_scan<'p>(
    scan: &'p ScanNode<'_>,
    params: &[Value],
    prof: Option<&mut ExecProfile>,
) -> Result<(Layout, Tuples<'p>, u64)> {
    let table: &'p Table = &scan.source;
    let layout1 = scan.layout1();
    let pushed = bind_all(&scan.pushed, &layout1)?;
    let _stage = telemetry::span("db.exec.scan");
    let t0 = prof.is_some().then(Instant::now);

    // Candidate ids, when the access method prescribes an order other
    // than ascending row id.
    let ids: Option<Vec<RowId>> = match &scan.access {
        Access::Seq | Access::Probe { .. } => None,
        Access::Index(choice) => Some(choice.ids.clone()),
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
            Some(ids)
        }
        // Runtime fallback from a declined columnar plan: make the index
        // decision the row path would have made.
        Access::Columnar { .. } => index_candidates(
            table,
            &scan.binding,
            &layout1,
            scan.index_filter.as_ref(),
            params,
        )?
        .map(|c| c.ids),
    };

    // A full scan without early exit runs partition-parallel when the
    // pool and row count justify it. The slab is chunked by row-id range;
    // live rows concatenated in partition order match `Table::iter`'s
    // ascending-id order, so the parallel scan returns rows in exactly
    // the serial order.
    let parallel = match (&ids, scan.stop_after) {
        (None, None) => pool::partitions(table.slab_len()),
        _ => None,
    };
    let mut partitions = 0usize;
    let mut read = 0u64;
    let refs: Vec<Option<&'p Row>> = match parallel {
        Some(ranges) => {
            telemetry::add("db.exec.parallel_scans", 1);
            partitions = ranges.len();
            let chunks = pool::try_run(ranges.len(), |pi| {
                let (mut part, mut read) = (Vec::new(), 0u64);
                for row in ranges[pi].clone().filter_map(|id| table.row(id as RowId)) {
                    read += 1;
                    if pushed_match(&pushed, row, params)? {
                        part.push(Some(row));
                    }
                }
                Ok::<_, DbError>((part, read))
            })?;
            read = chunks.iter().map(|(_, n)| n).sum();
            chunks.into_iter().flat_map(|(part, _)| part).collect()
        }
        None => {
            // Serial scan over the candidate rows. With LIMIT pushdown it
            // stops after `take` matches.
            let take = scan.stop_after.unwrap_or(usize::MAX);
            let candidates: Box<dyn Iterator<Item = &Row>> = match &ids {
                Some(ids) => Box::new(ids.iter().filter_map(|&id| table.row(id))),
                None => Box::new(table.iter().map(|(_, row)| row)),
            };
            let mut kept = Vec::new();
            if take > 0 {
                for row in candidates {
                    read += 1;
                    if pushed_match(&pushed, row, params)? {
                        kept.push(Some(row));
                        if kept.len() >= take {
                            break;
                        }
                    }
                }
            }
            kept
        }
    };
    let rows_out = refs.len() as u64;
    // An early-exit scan reports rows *examined* as its scanned count.
    let scanned = match scan.stop_after {
        Some(_) => read,
        None => rows_out,
    };
    if let Some(p) = prof {
        p.scan = Some((rows_out, read, partitions, stage_ns(t0)));
    }
    Ok((layout1, Tuples { stride: 1, refs }, scanned))
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
    let right_pushed = bind_all(&right.pushed, &right.layout1())?;

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
            let mut table: HashMap<&Value, Vec<&'p Row>> = HashMap::new();
            for &r in right_rows.iter().filter(|r| !r[r_off].is_null()) {
                table.entry(&r[r_off]).or_default().push(r);
            }
            Some((l_slot, table))
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
            let ids = if key.is_null() { &[][..] } else { ix.ids(key) };
            read += ids.len() as u64;
            for r in ids.iter().filter_map(|&id| right_table.row(id)) {
                if pushed_match(&right_pushed, r, params)? {
                    out.extend_from_slice(l);
                    out.push(Some(r));
                }
            }
        } else if let Some((l_slot, table)) = &hashed {
            for &m in table.get(left_value(*l_slot)).into_iter().flatten() {
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

/// The WHERE pass: partition-parallel filtering of row tuples.
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
    let keep = |range: Range<usize>| -> Result<Vec<Option<&'p Row>>> {
        let mut kept = Vec::new();
        for i in range {
            let tuple = rows.get(i);
            if eval_condition(&pred, &Env::new(tuple, params))? {
                kept.extend_from_slice(tuple);
            }
        }
        Ok(kept)
    };
    let mut partitions_used = 0;
    let refs = match pool::partitions(rows_in) {
        Some(ranges) => {
            // Concatenating kept tuples in partition order preserves the
            // serial result order.
            telemetry::add("db.exec.parallel_filters", 1);
            partitions_used = ranges.len();
            pool::try_run(ranges.len(), |pi| keep(ranges[pi].clone()))?.concat()
        }
        None => keep(0..rows_in)?,
    };
    let rows = Tuples {
        stride: rows.stride,
        refs,
    };
    if let Some(p) = prof {
        p.filter = Some((
            rows_in as u64,
            rows.len() as u64,
            partitions_used,
            stage_ns(t0),
        ));
    }
    Ok(rows)
}

/// Execute a decided columnar scan. Returns `Ok(None)` when a chunk
/// exposed column data the kernels cannot handle — the caller falls
/// back to row execution.
fn exec_columnar(
    scan: &ScanNode<'_>,
    cplan: &vector::ColumnarPlan,
    projections: &[Projection],
    params: &[Value],
    prof: Option<&mut ExecProfile>,
) -> Result<Option<ResultSet>> {
    let table: &Table = &scan.source;
    let t0 = prof.is_some().then(Instant::now);
    let (accs, stats) = {
        let _stage = telemetry::span("db.exec.colscan");
        match vector::execute_columnar(table, cplan)? {
            Some(out) => out,
            None => return Ok(None),
        }
    };
    telemetry::add("db.exec.columnar_scans", 1);

    let layout = scan.layout1();
    // Same collection order as the access decision, so accumulator `i`
    // belongs to aggregate expression `i`.
    let projections = expand_projections(projections, &layout)?;
    let columns: Vec<String> = projections.iter().map(|(n, _)| n.clone()).collect();
    let mut aggs: Vec<&Expr> = Vec::new();
    for (_, e) in &projections {
        collect_aggregates(e, &mut aggs);
    }
    debug_assert_eq!(aggs.len(), accs.len());
    let agg_values: Vec<Value> = accs.iter().map(|a| a.finish()).collect();

    // No bare columns survive the shape check, so a NULL row suffices as
    // the evaluation environment (matching the serial empty-group case).
    let null_tuple = [None];
    let env = Env::new(&null_tuple, params);
    let mut out_row = Vec::with_capacity(projections.len());
    for (_, e) in &projections {
        let e_sub = layout.bind(&substitute(e, &aggs, &agg_values))?;
        out_row.push(eval(&e_sub, &env)?);
    }

    if let Some(p) = prof {
        let ns = stage_ns(t0);
        p.colscan = Some((
            table.len() as u64,
            stats.chunks,
            stats.cache_hits,
            stats.cache_misses,
            stats.partitions,
            ns,
        ));
        p.aggregate = Some((1, stats.partitions, ns));
    }
    Ok(Some(ResultSet {
        columns,
        rows: vec![out_row],
        rows_scanned: table.len() as u64,
        ..ResultSet::default()
    }))
}

// ---------------- EXPLAIN ----------------

/// Describe the plan the executor would use for a SELECT (`EXPLAIN`).
///
/// The description is rendered from the very plan tree the executor
/// walks — same lowering, same rewrite rules, same access decisions —
/// so it cannot drift from reality. Subqueries are not run, so this
/// plans the unresolved statement. Fired rewrite rules are appended as
/// `optimizer:` trail lines.
pub(crate) fn explain_select(db: &Database, sel: &Select, params: &[Value]) -> Result<Vec<String>> {
    let planned = plan::plan_select(db, sel, params, select_has_subqueries(sel))?;
    Ok(render_plan(&planned, None))
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
    let mut lines = render_plan(&planned, Some(&prof));
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
fn render_plan(planned: &PlannedSelect<'_>, prof: Option<&ExecProfile>) -> Vec<String> {
    let tail = decompose(&planned.root);
    let mut lines = Vec::new();
    // Strip an optional Filter to reach the join chain / base scan.
    let (filter_present, mut node) = match tail.pipeline {
        LogicalPlan::Filter { input, .. } => (true, &**input),
        n => (false, n),
    };
    // Flatten the left-deep join chain, outermost last.
    let mut joins: Vec<(&ScanNode<'_>, JoinKind, Option<&Expr>)> = Vec::new();
    while let LogicalPlan::Join {
        left,
        right,
        kind,
        on,
    } = node
    {
        joins.push((right, *kind, on.as_ref()));
        node = left;
    }
    joins.reverse();
    let LogicalPlan::Scan(base) = node else {
        let note = prof.map(|_| "actual rows=1".to_string());
        return vec![noted("result: constant row (no FROM)".to_string(), note)];
    };

    lines.push(scan_line(base, prof));
    if !joins.is_empty() && !base.pushed.is_empty() {
        lines.push(format!(
            "  pushdown: {} base-only conjunct(s)",
            base.pushed.len()
        ));
    }

    let mut bindings: Vec<(String, Vec<String>)> =
        vec![(base.binding.clone(), base.columns.clone())];
    for (i, (right, kind, on)) in joins.iter().enumerate() {
        let left_layout = Layout::new(bindings.clone());
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
            _ => match on.and_then(|on| equi_offsets(on, &left_layout, right)) {
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
                "  pushdown: {} conjunct(s) into {}",
                right.pushed.len(),
                right.table_name
            ));
        }
        bindings.push((right.binding.clone(), right.columns.clone()));
    }

    // A columnar scan fuses the WHERE predicates into the scan itself, so
    // there is no separate filter operator to report.
    if filter_present && !matches!(base.access, Access::Columnar { .. }) {
        let note = prof
            .and_then(|p| p.filter)
            .map(|(rows_in, rows_out, parts, ns)| {
                measured(format!("rows={rows_out} of {rows_in}"), parts, ns)
            });
        lines.push(noted("filter: WHERE".to_string(), note));
    }
    if let Some((group_by, having)) = tail.aggregate {
        let note = prof
            .and_then(|p| p.aggregate)
            .map(|(groups, parts, ns)| measured(format!("groups={groups}"), parts, ns));
        let line = format!(
            "aggregate: group by {} expr(s){}",
            group_by.len(),
            if having.is_some() { ", having" } else { "" }
        );
        lines.push(noted(line, note));
    }
    if tail.distinct {
        let note = prof
            .and_then(|p| p.distinct)
            .map(|(rows_in, rows_out)| format!("actual rows={rows_out} of {rows_in}"));
        lines.push(noted("distinct".to_string(), note));
    }
    if !tail.order_by.is_empty() {
        let note = prof.map(|p| fmt_ns(p.sort_ns));
        lines.push(noted(format!("sort: {} key(s)", tail.order_by.len()), note));
    }
    if tail.has_limit {
        let note = prof.map(|p| format!("actual rows={}", p.returned));
        let line = format!("limit {:?} offset {:?}", tail.limit, tail.offset);
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

fn scan_line(scan: &ScanNode<'_>, prof: Option<&ExecProfile>) -> String {
    let table: &Table = &scan.source;
    let mut line = if scan.source.is_virtual() {
        // System tables have no indexes or chunk caches; the executor
        // always row-scans the per-statement materialization.
        format!(
            "virtual scan on {} ({} row(s), materialized from live engine state)",
            scan.table_name,
            table.len()
        )
    } else {
        match &scan.access {
            Access::Columnar { plan, reason } => format!(
                "columnar scan on {} ({} live row(s), {} chunk(s) of {}, {} kernel(s), {} fused predicate(s); {})",
                scan.table_name,
                table.len(),
                table.chunk_count(),
                CHUNK_ROWS,
                plan.aggs.len(),
                plan.pred_count(),
                reason
            ),
            Access::Index(choice) => {
                let mut l = format!(
                    "index scan on {} ({} candidate row(s) of {}) via {}, {} distinct key(s)",
                    scan.table_name,
                    choice.ids.len(),
                    table.len(),
                    choice.index_name,
                    choice.distinct_keys
                );
                if let Some((lo, hi)) = &choice.key_range {
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
    let columnar = matches!(scan.access, Access::Columnar { .. });
    if let Some(take) = scan.stop_after {
        if !columnar {
            line.push_str(&format!(" [early exit after {take} match(es)]"));
        }
    }
    let note = prof.and_then(|p| match (columnar, p.colscan, p.scan) {
        (true, Some((live, chunks, hits, misses, parts, ns)), _) => Some(measured(
            format!("rows={live}, chunks={chunks}, cache hits={hits} misses={misses}"),
            parts,
            ns,
        )),
        // The plan chose columnar but the kernels declined a chunk at
        // run time and the row path executed instead.
        (true, None, Some(_)) => Some("fell back to row execution".to_string()),
        (false, _, Some((rows_out, read, parts, ns))) => {
            Some(measured(format!("rows={rows_out}, read={read}"), parts, ns))
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

/// An index-restricted scan: the candidate row ids plus the statistics
/// of the index that produced them (surfaced by EXPLAIN and consulted by
/// the columnar-vs-index decision).
#[derive(Debug)]
pub(crate) struct IndexChoice {
    /// Candidate row ids, in index key order.
    pub ids: Vec<RowId>,
    /// Name of the consulted index.
    pub index_name: String,
    /// Distinct non-NULL keys in the index (cardinality statistic).
    pub distinct_keys: usize,
    /// Smallest and largest indexed key, when the index is non-empty.
    pub key_range: Option<(Value, Value)>,
}

impl IndexChoice {
    fn new(ix: &crate::index::Index, ids: Vec<RowId>) -> Self {
        IndexChoice {
            ids,
            index_name: ix.name.clone(),
            distinct_keys: ix.distinct_keys(),
            key_range: match (ix.min_key(), ix.max_key()) {
                (Some(lo), Some(hi)) => Some((lo.clone(), hi.clone())),
                _ => None,
            },
        }
    }
}

/// If the WHERE clause has an indexable conjunct on the base table, return
/// the candidate row ids; `None` means full scan. Also used by the
/// UPDATE/DELETE executors to avoid full-table target scans.
pub(crate) fn index_candidates(
    table: &Table,
    binding: &str,
    layout1: &Layout,
    where_clause: Option<&Expr>,
    params: &[Value],
) -> Result<Option<IndexChoice>> {
    let Some(pred) = where_clause else {
        return Ok(None);
    };
    for c in conjuncts(pred) {
        let Some(ColumnTest { col, kind }) = column_test(c, binding, layout1, params) else {
            continue;
        };
        let Some(ix) = table.index_on(col) else {
            continue;
        };
        let ids = match kind {
            TestKind::Cmp { op, value } => match op {
                BinaryOp::Eq => ix.ids(&value).to_vec(),
                BinaryOp::Lt => ix.range(Bound::Unbounded, Bound::Excluded(&value)),
                BinaryOp::LtEq => ix.range(Bound::Unbounded, Bound::Included(&value)),
                BinaryOp::Gt => ix.range(Bound::Excluded(&value), Bound::Unbounded),
                BinaryOp::GtEq => ix.range(Bound::Included(&value), Bound::Unbounded),
                _ => continue,
            },
            TestKind::Between {
                low,
                high,
                negated: false,
            } => ix.range(Bound::Included(&low), Bound::Included(&high)),
            TestKind::InList {
                items,
                negated: false,
            } => {
                let mut ids: Vec<RowId> = items.iter().flat_map(|v| ix.ids(v)).copied().collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            }
            _ => continue,
        };
        return Ok(Some(IndexChoice::new(ix, ids)));
    }
    Ok(None)
}

/// A WHERE conjunct that tests one base-table column against constants,
/// as matched by [`column_test`]. Index selection and the columnar
/// predicate compiler both consume it, each serving the shapes it can.
pub(crate) struct ColumnTest {
    /// Offset of the tested column in the base layout.
    pub col: usize,
    pub kind: TestKind,
}

/// The shape of a [`ColumnTest`], with every constant bound.
pub(crate) enum TestKind {
    /// `col op value`: `op` is `=`, `!=`, `<`, `<=`, `>` or `>=`, already
    /// flipped when the constant was written first, and `value` is never
    /// NULL.
    Cmp { op: BinaryOp, value: Value },
    /// `col [NOT] BETWEEN low AND high` (either bound may be NULL).
    Between {
        low: Value,
        high: Value,
        negated: bool,
    },
    /// `col [NOT] IN (items)`, every item a constant (NULLs included).
    InList { items: Vec<Value>, negated: bool },
    /// `col IS [NOT] NULL`.
    IsNull { negated: bool },
}

/// Offset of `e` in the base layout when it is a column of `binding`.
pub(crate) fn resolve_base_col(e: &Expr, binding: &str, layout1: &Layout) -> Option<usize> {
    match e {
        Expr::Column { table: Some(t), .. } if !t.eq_ignore_ascii_case(binding) => None,
        Expr::Column { column, .. } => layout1.resolve(None, column).ok().map(|(_, c)| c),
        _ => None,
    }
}

/// The value of a literal or a bound parameter.
fn const_val(e: &Expr, params: &[Value]) -> Option<Value> {
    match e {
        Expr::Literal(v) => Some(v.clone()),
        Expr::Param(i) => params.get(*i).cloned(),
        _ => None,
    }
}

/// Match a conjunct against the column-vs-constant(s) shapes of
/// [`TestKind`]; `None` when it has none of them.
pub(crate) fn column_test(
    c: &Expr,
    binding: &str,
    layout1: &Layout,
    params: &[Value],
) -> Option<ColumnTest> {
    let col = |e: &Expr| resolve_base_col(e, binding, layout1);
    let val = |e: &Expr| const_val(e, params);
    let (col, kind) = match c {
        Expr::Binary { op, left, right } => {
            // The operator that reads the same with its operands swapped.
            let flipped = match op {
                BinaryOp::Eq | BinaryOp::NotEq => *op,
                BinaryOp::Lt => BinaryOp::Gt,
                BinaryOp::LtEq => BinaryOp::GtEq,
                BinaryOp::Gt => BinaryOp::Lt,
                BinaryOp::GtEq => BinaryOp::LtEq,
                _ => return None,
            };
            let (col, op, value) = match (col(left), val(right)) {
                (Some(c), Some(v)) => (c, *op, v),
                _ => (col(right)?, flipped, val(left)?),
            };
            if value.is_null() {
                return None;
            }
            (col, TestKind::Cmp { op, value })
        }
        Expr::Between {
            operand,
            low,
            high,
            negated,
        } => (
            col(operand)?,
            TestKind::Between {
                low: val(low)?,
                high: val(high)?,
                negated: *negated,
            },
        ),
        Expr::InList {
            operand,
            list,
            negated,
        } => (
            col(operand)?,
            TestKind::InList {
                items: list.iter().map(val).collect::<Option<_>>()?,
                negated: *negated,
            },
        ),
        Expr::IsNull { operand, negated } => {
            (col(operand)?, TestKind::IsNull { negated: *negated })
        }
        _ => return None,
    };
    Some(ColumnTest { col, kind })
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

fn plain_path(
    tail: &Tail<'_, '_>,
    layout: &Layout,
    rows: &Tuples<'_>,
    params: &[Value],
    mut prof: Option<&mut ExecProfile>,
    out: &mut Window<'_, '_>,
) -> Result<Vec<String>> {
    let projections = expand_projections(tail.projections, layout)?;
    let columns: Vec<String> = projections.iter().map(|(n, _)| n.clone()).collect();
    let exprs = bind_all(projections.iter().map(|(_, e)| e), layout)?;

    // Without ORDER BY or DISTINCT each row is projected into one reused
    // buffer and handed on at once, stopping when LIMIT is reached;
    // otherwise the rows are collected first.
    let stream = tail.order_by.is_empty() && !tail.distinct;
    let mut out_rows = Vec::new();
    let mut buf = Vec::new();
    for tuple in rows.iter() {
        if out.is_full() {
            break;
        }
        let env = Env::new(tuple, params);
        buf.clear();
        buf.reserve_exact(exprs.len());
        for e in &exprs {
            buf.push(eval_ref(e, &env)?.into_owned());
        }
        if stream {
            out.push(&mut buf);
        } else {
            out_rows.push(std::mem::take(&mut buf));
        }
    }
    if stream {
        return Ok(columns);
    }

    // ORDER BY sees the source row as well as the projected one, so sort
    // keys can use any source column.
    let order_by = tail.order_by;
    if !order_by.is_empty() {
        let keys = bind_order_keys(order_by, &projections, layout)?;
        let _stage = telemetry::span("db.exec.sort");
        let t0 = prof.is_some().then(Instant::now);
        let mut sort_keys = Vec::with_capacity(out_rows.len());
        for (tuple, row) in rows.iter().zip(&out_rows) {
            let env = Env::new(tuple, params);
            sort_keys.push(order_key_values(&keys, row, |e| eval(e, &env))?);
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
    out.push_all(out_rows, tail.distinct, prof);
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

#[allow(clippy::too_many_arguments)]
fn aggregate_path(
    proj: &[Projection],
    group_by: &[Expr],
    having: Option<&Expr>,
    order_by: &[OrderItem],
    layout: &Layout,
    rows: &Tuples<'_>,
    params: &[Value],
    mut prof: Option<&mut ExecProfile>,
) -> Result<ResultSet> {
    let agg_t0 = prof.is_some().then(Instant::now);
    let projections = expand_projections(proj, layout)?;
    let columns: Vec<String> = projections.iter().map(|(n, _)| n.clone()).collect();
    let exprs = bind_all(projections.iter().map(|(_, e)| e), layout)?;
    let group_by = bind_all(group_by, layout)?;
    let having = having.map(|h| layout.bind(h)).transpose()?;
    let keys = bind_order_keys(order_by, &projections, layout)?;

    // All aggregate expressions across projections, HAVING, ORDER BY.
    let mut aggs: Vec<&Expr> = Vec::new();
    for e in &exprs {
        collect_aggregates(e, &mut aggs);
    }
    if let Some(h) = &having {
        collect_aggregates(h, &mut aggs);
    }
    for k in &keys {
        if let OrderKey::Expr(e) = k {
            collect_aggregates(e, &mut aggs);
        }
    }

    // Group rows and accumulate aggregates, in parallel when the row count
    // justifies it. DISTINCT aggregates dedupe through per-group hash sets
    // that cannot be split across partitions, so they pin the serial path.
    let has_distinct = aggs
        .iter()
        .any(|a| matches!(a, Expr::Aggregate { distinct: true, .. }));
    let parallel = if has_distinct {
        None
    } else {
        pool::partitions(rows.len())
    };
    let mut agg_partitions = 0usize;
    let groups = match parallel {
        Some(ranges) => {
            telemetry::add("db.exec.parallel_aggregates", 1);
            agg_partitions = ranges.len();
            let aggs_ref = &aggs;
            let group_by = &group_by;
            let partials = pool::try_run(ranges.len(), |pi| {
                group_and_accumulate(group_by, rows, params, aggs_ref, ranges[pi].clone())
            })?;
            let _merge = telemetry::span("db.exec.merge");
            merge_group_partials(partials)?
        }
        None => group_and_accumulate(&group_by, rows, params, &aggs, 0..rows.len())?,
    };
    let group_count = groups.len() as u64;

    let null_tuple = vec![None; rows.stride];
    let mut out_rows = Vec::with_capacity(groups.len());
    for (_, rep_idx, accs) in &groups {
        let agg_values: Vec<Value> = accs.iter().map(|a| a.finish()).collect();

        // Representative row for evaluating group-key expressions. An empty
        // group (aggregate over zero rows, no GROUP BY) uses a NULL row.
        let rep = match rep_idx {
            Some(i) => rows.get(*i),
            None => &null_tuple,
        };
        let env = Env::new(rep, params);

        // HAVING
        if let Some(h) = &having {
            let h_sub = substitute(h, &aggs, &agg_values);
            if !eval_condition(&h_sub, &env)? {
                continue;
            }
        }

        let mut out = Vec::with_capacity(exprs.len());
        for e in &exprs {
            let e_sub = substitute(e, &aggs, &agg_values);
            out.push(eval(&e_sub, &env)?);
        }

        // ORDER BY keys for this group (computed now, sorted below).
        let key = order_key_values(&keys, &out, |e| {
            eval(&substitute(e, &aggs, &agg_values), &env)
        })?;
        out_rows.push((key, out));
    }

    // Aggregate time excludes the group sort, reported on its own line.
    let agg_ns = stage_ns(agg_t0);
    if let Some(p) = prof.as_deref_mut() {
        p.aggregate = Some((group_count, agg_partitions, agg_ns));
    }

    // Sort groups.
    if !order_by.is_empty() {
        let _stage = telemetry::span("db.exec.sort");
        let t0 = prof.is_some().then(Instant::now);
        out_rows.sort_by(|a, b| cmp_order_keys(&a.0, &b.0, order_by));
        if let Some(p) = prof {
            p.sort_ns = stage_ns(t0);
        }
    }

    Ok(ResultSet {
        columns,
        rows: out_rows.into_iter().map(|(_, r)| r).collect(),
        ..ResultSet::default()
    })
}

/// Grouping state: key values (borrowed from the base rows where the key
/// is a bare column), index of the group's first (representative) row,
/// and one accumulator per aggregate expression.
type GroupState<'t> = (Vec<Cow<'t, Value>>, Option<usize>, Vec<Accumulator>);

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

/// Group `rows[range]` and feed the aggregates, producing groups in
/// first-occurrence order with the range's first member as representative.
/// Called with the full range on the serial path, and once per partition on
/// the parallel path.
fn group_and_accumulate<'t>(
    group_by: &[Expr],
    rows: &'t Tuples<'_>,
    params: &'t [Value],
    aggs: &[&Expr],
    range: Range<usize>,
) -> Result<Vec<GroupState<'t>>> {
    let mut groups: Vec<GroupState<'t>> = Vec::new();
    if group_by.is_empty() {
        let rep = (!range.is_empty()).then_some(range.start);
        let mut accs = new_accumulators(aggs);
        for i in range {
            update_accumulators(&mut accs, aggs, &Env::new(rows.get(i), params))?;
        }
        groups.push((Vec::new(), rep, accs));
    } else {
        let mut group_index: HashMap<Vec<Cow<'t, Value>>, usize> = HashMap::new();
        // Reused per row; a key is copied only when its group is new.
        let mut key: Vec<Cow<'t, Value>> = Vec::with_capacity(group_by.len());
        for i in range {
            let env = Env::new(rows.get(i), params);
            key.clear();
            for g in group_by {
                key.push(eval_ref(g, &env)?);
            }
            let gi = match group_index.get(key.as_slice()) {
                Some(&gi) => gi,
                None => {
                    group_index.insert(key.clone(), groups.len());
                    groups.push((key.clone(), Some(i), new_accumulators(aggs)));
                    groups.len() - 1
                }
            };
            update_accumulators(&mut groups[gi].2, aggs, &env)?;
        }
    }
    Ok(groups)
}

/// Merge per-partition group partials in partition-index order. Because
/// partitions cover ascending row ranges, first occurrence across the merge
/// equals global first occurrence — group output order and representative
/// rows match the serial path exactly.
fn merge_group_partials(partials: Vec<Vec<GroupState<'_>>>) -> Result<Vec<GroupState<'_>>> {
    let mut groups: Vec<GroupState> = Vec::new();
    let mut group_index: HashMap<Vec<Cow<Value>>, usize> = HashMap::new();
    for partial in partials {
        for (key, rep, accs) in partial {
            match group_index.get(&key) {
                Some(&gi) => {
                    // Keep the earlier representative; merge accumulators.
                    for (dst, src) in groups[gi].2.iter_mut().zip(&accs) {
                        dst.merge(src)?;
                    }
                    if groups[gi].1.is_none() {
                        groups[gi].1 = rep;
                    }
                }
                None => {
                    group_index.insert(key.clone(), groups.len());
                    groups.push((key, rep, accs));
                }
            }
        }
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
