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
use super::eval::{eval, eval_condition, Env, Layout};
use super::vector;
use super::ResultSet;
use crate::column::CHUNK_ROWS;
use crate::database::Database;
use crate::error::{DbError, Result};
use crate::introspect;
use crate::plan;
use crate::plan::ir::{base_scan, Access, LogicalPlan, PlannedSelect, ScanNode};
use crate::sql::ast::*;
use crate::table::{Row, RowId, Table};
use crate::value::Value;
use perfdmf_pool as pool;
use perfdmf_telemetry as telemetry;
use std::collections::HashMap;
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
    /// (rows out, partitions used, wall ns) of the base scan.
    scan: Option<(u64, usize, u64)>,
    /// (live rows, chunks, cache hits, cache misses, partitions, wall ns)
    /// of a columnar scan (fused scan + filter + aggregate).
    colscan: Option<(u64, usize, u64, u64, usize, u64)>,
    /// (rows out, wall ns) per join, left to right.
    joins: Vec<(u64, u64)>,
    /// (rows in, rows out, partitions used, wall ns) of the WHERE pass.
    filter: Option<(u64, u64, usize, u64)>,
    /// (groups, partitions used, wall ns) of the aggregate pass.
    aggregate: Option<(u64, usize, u64)>,
    /// Wall ns of the ORDER BY sort (plain or grouped path).
    sort_ns: u64,
    /// (rows in, rows out) of the DISTINCT pass.
    distinct: Option<(u64, u64)>,
}

fn stage_ns(t0: Option<Instant>) -> u64 {
    t0.map(|t| t.elapsed().as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

fn fmt_ns(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

fn partitions_label(n: usize) -> String {
    if n == 0 {
        "serial".to_string()
    } else {
        n.to_string()
    }
}

/// Replace uncorrelated subqueries (`IN (SELECT ...)`, scalar
/// `(SELECT ...)`) in an expression by executing them once up front.
pub(crate) fn resolve_subqueries(db: &Database, expr: &Expr, params: &[Value]) -> Result<Expr> {
    let rec = |e: &Expr| resolve_subqueries(db, e, params);
    Ok(match expr {
        Expr::InSubquery {
            operand,
            select,
            negated,
        } => {
            let rs = execute_select(db, select, params)?;
            if rs.columns.len() != 1 {
                return Err(DbError::Eval(format!(
                    "IN subquery must return one column, got {}",
                    rs.columns.len()
                )));
            }
            Expr::InList {
                operand: Box::new(rec(operand)?),
                list: rs
                    .rows
                    .into_iter()
                    .map(|mut r| Expr::Literal(r.remove(0)))
                    .collect(),
                negated: *negated,
            }
        }
        Expr::ScalarSubquery(select) => {
            let rs = execute_select(db, select, params)?;
            if rs.columns.len() != 1 {
                return Err(DbError::Eval(format!(
                    "scalar subquery must return one column, got {}",
                    rs.columns.len()
                )));
            }
            if rs.rows.len() > 1 {
                return Err(DbError::Eval(format!(
                    "scalar subquery returned {} rows",
                    rs.rows.len()
                )));
            }
            Expr::Literal(
                rs.rows
                    .into_iter()
                    .next()
                    .map(|mut r| r.remove(0))
                    .unwrap_or(Value::Null),
            )
        }
        Expr::Exists { select, negated } => {
            let rs = execute_select(db, select, params)?;
            Expr::Literal(Value::Bool(rs.rows.is_empty() == *negated))
        }
        Expr::Unary { op, operand } => Expr::Unary {
            op: *op,
            operand: Box::new(rec(operand)?),
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(rec(left)?),
            right: Box::new(rec(right)?),
        },
        Expr::IsNull { operand, negated } => Expr::IsNull {
            operand: Box::new(rec(operand)?),
            negated: *negated,
        },
        Expr::InList {
            operand,
            list,
            negated,
        } => Expr::InList {
            operand: Box::new(rec(operand)?),
            list: list.iter().map(rec).collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Between {
            operand,
            low,
            high,
            negated,
        } => Expr::Between {
            operand: Box::new(rec(operand)?),
            low: Box::new(rec(low)?),
            high: Box::new(rec(high)?),
            negated: *negated,
        },
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => Expr::Aggregate {
            func: *func,
            arg: arg.as_ref().map(|a| rec(a).map(Box::new)).transpose()?,
            distinct: *distinct,
        },
        Expr::Function { name, args } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(rec).collect::<Result<_>>()?,
        },
        Expr::Case {
            branches,
            else_branch,
        } => Expr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| Ok((rec(c)?, rec(v)?)))
                .collect::<Result<_>>()?,
            else_branch: else_branch
                .as_ref()
                .map(|e| rec(e).map(Box::new))
                .transpose()?,
        },
        leaf => leaf.clone(),
    })
}

fn expr_has_subquery(expr: &Expr) -> bool {
    match expr {
        Expr::InSubquery { .. } | Expr::ScalarSubquery(_) | Expr::Exists { .. } => true,
        Expr::Unary { operand, .. } | Expr::IsNull { operand, .. } => expr_has_subquery(operand),
        Expr::Binary { left, right, .. } => expr_has_subquery(left) || expr_has_subquery(right),
        Expr::InList { operand, list, .. } => {
            expr_has_subquery(operand) || list.iter().any(expr_has_subquery)
        }
        Expr::Between {
            operand, low, high, ..
        } => expr_has_subquery(operand) || expr_has_subquery(low) || expr_has_subquery(high),
        Expr::Aggregate { arg, .. } => arg.as_ref().is_some_and(|a| expr_has_subquery(a)),
        Expr::Function { args, .. } => args.iter().any(expr_has_subquery),
        Expr::Case {
            branches,
            else_branch,
        } => {
            branches
                .iter()
                .any(|(c, v)| expr_has_subquery(c) || expr_has_subquery(v))
                || else_branch.as_ref().is_some_and(|e| expr_has_subquery(e))
        }
        _ => false,
    }
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

/// True if the expression reads a column outside of any aggregate call.
/// Such expressions need a representative row, which the columnar path
/// never materializes (and which join reordering may permute).
pub(crate) fn has_bare_column(expr: &Expr) -> bool {
    match expr {
        Expr::Column { .. } => true,
        Expr::Aggregate { .. } => false, // columns inside the arg are fine
        Expr::Literal(_) | Expr::Param(_) => false,
        Expr::Unary { operand, .. } | Expr::IsNull { operand, .. } => has_bare_column(operand),
        Expr::Binary { left, right, .. } => has_bare_column(left) || has_bare_column(right),
        Expr::InList { operand, list, .. } => {
            has_bare_column(operand) || list.iter().any(has_bare_column)
        }
        Expr::Between {
            operand, low, high, ..
        } => has_bare_column(operand) || has_bare_column(low) || has_bare_column(high),
        Expr::Function { args, .. } => args.iter().any(has_bare_column),
        Expr::Case {
            branches,
            else_branch,
        } => {
            branches
                .iter()
                .any(|(c, v)| has_bare_column(c) || has_bare_column(v))
                || else_branch.as_ref().is_some_and(|e| has_bare_column(e))
        }
        Expr::InSubquery { operand, .. } => has_bare_column(operand),
        Expr::ScalarSubquery(_) | Expr::Exists { .. } => false,
    }
}

// ---------------- execution ----------------

/// Execute a SELECT.
pub fn execute_select(db: &Database, sel: &Select, params: &[Value]) -> Result<ResultSet> {
    execute_select_profiled(db, sel, params, None)
}

/// Execute a SELECT, optionally collecting per-operator measurements
/// (the `EXPLAIN ANALYZE` path).
fn execute_select_profiled(
    db: &Database,
    sel: &Select,
    params: &[Value],
    prof: Option<&mut ExecProfile>,
) -> Result<ResultSet> {
    let started = Instant::now();
    // Uncorrelated subqueries run once, up front.
    let had_subqueries = select_has_subqueries(sel);
    let resolved;
    let sel = if had_subqueries {
        resolved = resolve_select(db, sel, params)?;
        &resolved
    } else {
        sel
    };
    let planned = plan::plan_select(db, sel, params, had_subqueries)?;
    let mut out = run_planned(&planned, params, prof)?;
    out.elapsed = started.elapsed();
    Ok(out)
}

/// The operator tail of a plan, decomposed for direct execution. The
/// lowering's canonical spine ordering makes this a straight-line
/// pattern match.
struct Tail<'p, 'a> {
    limit: Option<u64>,
    offset: Option<u64>,
    has_limit: bool,
    distinct: bool,
    order_by: &'p [OrderItem],
    projections: &'p [Projection],
    /// `Some((group_by, having))` when an Aggregate node is present.
    aggregate: Option<(&'p [Expr], Option<&'p Expr>)>,
    /// The scan/join/filter pipeline below the tail.
    pipeline: &'p LogicalPlan<'a>,
}

fn decompose<'p, 'a>(root: &'p LogicalPlan<'a>) -> Tail<'p, 'a> {
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

fn apply_offset_limit(out: &mut ResultSet, offset: Option<u64>, limit: Option<u64>) {
    let offset = offset.unwrap_or(0) as usize;
    if offset > 0 {
        out.rows.drain(..offset.min(out.rows.len()));
    }
    if let Some(limit) = limit {
        out.rows.truncate(limit as usize);
    }
}

/// Walk an optimized, access-annotated plan.
fn run_planned(
    planned: &PlannedSelect<'_>,
    params: &[Value],
    mut prof: Option<&mut ExecProfile>,
) -> Result<ResultSet> {
    let tail = decompose(&planned.root);

    // Columnar fast path: fused scan + filter + aggregate over column
    // chunks. A `None` from the kernels (unsupported chunk data) falls
    // through to row execution below.
    if let Some(scan) = base_scan(tail.pipeline) {
        if let Access::Columnar { plan: cplan, .. } = &scan.access {
            if let Some(mut out) =
                exec_columnar(scan, cplan, tail.projections, params, prof.as_deref_mut())?
            {
                apply_offset_limit(&mut out, tail.offset, tail.limit);
                return Ok(out);
            }
        }
    }

    let (layout, rows, rows_scanned) = exec_pipeline(tail.pipeline, params, prof.as_deref_mut())?;

    let mut out = match tail.aggregate {
        Some((group_by, having)) => {
            let _stage = telemetry::span("db.exec.aggregate");
            aggregate_path(
                tail.projections,
                group_by,
                having,
                tail.order_by,
                &layout,
                &rows,
                params,
                prof.as_deref_mut(),
            )?
        }
        None => {
            let _stage = telemetry::span("db.exec.project");
            plain_path(
                tail.projections,
                tail.order_by,
                &layout,
                &rows,
                params,
                prof.as_deref_mut(),
            )?
        }
    };

    // DISTINCT
    if tail.distinct {
        let rows_in = out.rows.len();
        let mut seen = std::collections::HashSet::new();
        out.rows.retain(|r| seen.insert(r.clone()));
        if let Some(p) = prof {
            p.distinct = Some((rows_in as u64, out.rows.len() as u64));
        }
    }

    apply_offset_limit(&mut out, tail.offset, tail.limit);
    out.rows_scanned = rows_scanned;
    Ok(out)
}

/// Execute the scan/join/filter pipeline of a plan, returning the
/// accumulated layout, the materialized rows, and the scanned-row count
/// (rows materialized after scan + joins, before WHERE; or rows
/// *examined* when a scan early-exits).
fn exec_pipeline(
    node: &LogicalPlan<'_>,
    params: &[Value],
    mut prof: Option<&mut ExecProfile>,
) -> Result<(Layout, Vec<Row>, u64)> {
    match node {
        LogicalPlan::Empty => Ok((Layout::default(), vec![Vec::new()], 0)),
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

/// Evaluate a scan's pushed conjuncts against one of its rows.
fn pushed_match(
    scan: &ScanNode<'_>,
    layout1: &Layout,
    row: &Row,
    params: &[Value],
) -> Result<bool> {
    for c in &scan.pushed {
        let env = Env::new(layout1, row, params);
        if !eval_condition(c, &env)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Materialize one scan according to its access decision.
fn exec_scan(
    scan: &ScanNode<'_>,
    params: &[Value],
    prof: Option<&mut ExecProfile>,
) -> Result<(Layout, Vec<Row>, u64)> {
    let table: &Table = &scan.source;
    let layout1 = scan.layout1();
    let _stage = telemetry::span("db.exec.scan");
    let t0 = prof.is_some().then(Instant::now);

    // Candidate ids, when the access method prescribes an order other
    // than ascending row id.
    let ids: Option<Vec<RowId>> = match &scan.access {
        Access::Seq => None,
        Access::Index(choice) => Some(choice.ids.clone()),
        Access::IndexOrder { column, .. } => {
            let col = layout1.resolve(None, column)?;
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

    // Early-exit scan (LIMIT pushdown): serial, stops after `take`
    // matches, and reports rows *examined* as the scanned count.
    if let Some(take) = scan.stop_after {
        let mut kept: Vec<Row> = Vec::new();
        let mut examined = 0u64;
        if take > 0 {
            match ids {
                Some(ids) => {
                    for id in ids {
                        if let Some(row) = table.row(id) {
                            examined += 1;
                            if pushed_match(scan, &layout1, row, params)? {
                                kept.push(masked_clone(row, &scan.mask));
                                if kept.len() >= take {
                                    break;
                                }
                            }
                        }
                    }
                }
                None => {
                    for (_, row) in table.iter() {
                        examined += 1;
                        if pushed_match(scan, &layout1, row, params)? {
                            kept.push(masked_clone(row, &scan.mask));
                            if kept.len() >= take {
                                break;
                            }
                        }
                    }
                }
            }
        }
        if let Some(p) = prof {
            p.scan = Some((examined, 0, stage_ns(t0)));
        }
        return Ok((layout1, kept, examined));
    }

    let mut partitions = 0usize;
    let rows: Vec<Row> = match ids {
        Some(ids) => {
            let mut out = Vec::with_capacity(ids.len());
            for id in ids {
                if let Some(row) = table.row(id) {
                    if pushed_match(scan, &layout1, row, params)? {
                        out.push(masked_clone(row, &scan.mask));
                    }
                }
            }
            out
        }
        None => {
            // Full scan. The slab is chunked by row-id range; live rows
            // concatenated in partition order match `Table::iter`'s
            // ascending-id order, so the parallel scan returns rows in
            // exactly the serial order.
            match pool::partitions(table.slab_len()) {
                Some(ranges) => {
                    telemetry::add("db.exec.parallel_scans", 1);
                    partitions = ranges.len();
                    let layout1 = &layout1;
                    let chunks = pool::try_run(ranges.len(), |pi| {
                        let mut part = Vec::new();
                        for id in ranges[pi].clone() {
                            if let Some(row) = table.row(id as RowId) {
                                if pushed_match(scan, layout1, row, params)? {
                                    part.push(masked_clone(row, &scan.mask));
                                }
                            }
                        }
                        Ok::<Vec<Row>, DbError>(part)
                    })?;
                    chunks.into_iter().flatten().collect()
                }
                None => {
                    let mut out = Vec::new();
                    for (_, row) in table.iter() {
                        if pushed_match(scan, &layout1, row, params)? {
                            out.push(masked_clone(row, &scan.mask));
                        }
                    }
                    out
                }
            }
        }
    };
    let scanned = rows.len() as u64;
    if let Some(p) = prof {
        p.scan = Some((scanned, partitions, stage_ns(t0)));
    }
    Ok((layout1, rows, scanned))
}

/// Join already-materialized left rows against a right scan node.
fn exec_join(
    left_layout: Layout,
    left_rows: Vec<Row>,
    right: &ScanNode<'_>,
    kind: JoinKind,
    on: Option<&Expr>,
    params: &[Value],
    prof: Option<&mut ExecProfile>,
) -> Result<(Layout, Vec<Row>, u64)> {
    let _stage = telemetry::span("db.exec.join");
    let join_t0 = prof.is_some().then(Instant::now);
    let right_table: &Table = &right.source;
    let right_layout1 = right.layout1();
    let right_width = right.columns.len();

    let mut bindings = left_layout.bindings().to_vec();
    bindings.push((right.binding.clone(), right.columns.clone()));
    let full_layout = Layout::new(bindings);

    // Right rows in insertion order, prefiltered by pushed conjuncts.
    // Prefiltering INNER/CROSS right sides only drops rows that could
    // never survive the residual WHERE, and keeps survivors in the same
    // relative order — so join output is a verbatim subsequence-free
    // match of the unoptimized result.
    let mut right_rows: Vec<&Row> = Vec::new();
    for (_, row) in right_table.iter() {
        if pushed_match(right, &right_layout1, row, params)? {
            right_rows.push(row);
        }
    }

    let extend_masked = |row: &mut Row, r: &Row| match &right.mask {
        None => row.extend(r.iter().cloned()),
        Some(mask) => {
            row.extend(
                r.iter()
                    .zip(mask)
                    .map(|(v, &keep)| if keep { v.clone() } else { Value::Null }),
            )
        }
    };

    let mut joined: Vec<Row> = Vec::new();
    match kind {
        JoinKind::Cross => {
            for l in &left_rows {
                for r in &right_rows {
                    let mut row = l.clone();
                    extend_masked(&mut row, r);
                    joined.push(row);
                }
            }
        }
        JoinKind::Inner | JoinKind::Left => {
            let on = on.ok_or_else(|| DbError::Unsupported("JOIN requires ON".into()))?;
            // Try hash join on a simple equi-condition.
            if let Some((l_off, r_off)) =
                equi_offsets(on, &left_layout, &right.binding, &right.columns)
            {
                let mut table: HashMap<Value, Vec<&Row>> = HashMap::new();
                for r in &right_rows {
                    let key = &r[r_off];
                    if !key.is_null() {
                        table.entry(key.clone()).or_default().push(r);
                    }
                }
                for l in &left_rows {
                    let key = &l[l_off];
                    let matches = if key.is_null() { None } else { table.get(key) };
                    match matches {
                        Some(ms) if !ms.is_empty() => {
                            for m in ms {
                                let mut row = l.clone();
                                extend_masked(&mut row, m);
                                joined.push(row);
                            }
                        }
                        _ if kind == JoinKind::Left => {
                            let mut row = l.clone();
                            row.extend(std::iter::repeat_n(Value::Null, right_width));
                            joined.push(row);
                        }
                        _ => {}
                    }
                }
            } else {
                // General nested loop with full ON evaluation.
                for l in &left_rows {
                    let mut matched = false;
                    for r in &right_rows {
                        let mut row = l.clone();
                        extend_masked(&mut row, r);
                        let env = Env::new(&full_layout, &row, params);
                        if eval_condition(on, &env)? {
                            joined.push(row);
                            matched = true;
                        }
                    }
                    if !matched && kind == JoinKind::Left {
                        let mut row = l.clone();
                        row.extend(std::iter::repeat_n(Value::Null, right_width));
                        joined.push(row);
                    }
                }
            }
        }
    }
    let scanned = joined.len() as u64;
    if let Some(p) = prof {
        p.joins.push((scanned, stage_ns(join_t0)));
    }
    Ok((full_layout, joined, scanned))
}

/// The WHERE pass: partition-parallel filtering of materialized rows.
fn exec_filter(
    layout: &Layout,
    rows: Vec<Row>,
    pred: &Expr,
    params: &[Value],
    prof: Option<&mut ExecProfile>,
) -> Result<Vec<Row>> {
    let _stage = telemetry::span("db.exec.filter");
    let t0 = prof.is_some().then(Instant::now);
    let rows_in = rows.len();
    let mut partitions_used = 0;
    let rows: Vec<Row> = match pool::partitions(rows.len()) {
        Some(ranges) => {
            // Partition the materialized rows; concatenating kept rows
            // in partition order preserves the serial result order.
            telemetry::add("db.exec.parallel_filters", 1);
            partitions_used = ranges.len();
            let rows_ref = &rows;
            let chunks = pool::try_run(ranges.len(), |pi| {
                let mut kept = Vec::new();
                for row in &rows_ref[ranges[pi].clone()] {
                    let env = Env::new(layout, row, params);
                    if eval_condition(pred, &env)? {
                        kept.push(row.clone());
                    }
                }
                Ok::<Vec<Row>, DbError>(kept)
            })?;
            chunks.into_iter().flatten().collect()
        }
        None => {
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                let env = Env::new(layout, &row, params);
                if eval_condition(pred, &env)? {
                    kept.push(row);
                }
            }
            kept
        }
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
    let null_row: Row = vec![Value::Null; layout.width()];
    let env = Env::new(&layout, &null_row, params);
    let mut out_row = Vec::with_capacity(projections.len());
    for (_, e) in &projections {
        let e_sub = substitute(e, &aggs, &agg_values);
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
/// so it cannot drift from reality. Fired rewrite rules are appended as
/// `optimizer:` trail lines.
pub fn explain_select(db: &Database, sel: &Select, params: &[Value]) -> Result<Vec<String>> {
    let had_subqueries = select_has_subqueries(sel);
    let planned = plan::plan_select(db, sel, params, had_subqueries)?;
    Ok(render_plan(&planned))
}

fn render_plan(planned: &PlannedSelect<'_>) -> Vec<String> {
    let tail = decompose(&planned.root);
    let mut lines = Vec::new();
    // Strip an optional Filter to reach the join chain / base scan.
    let (filter_present, mut node) = match tail.pipeline {
        LogicalPlan::Filter { input, .. } => (true, &**input),
        n => (false, n),
    };
    if matches!(node, LogicalPlan::Empty) {
        lines.push("result: constant row (no FROM)".to_string());
        return lines;
    }
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
        lines.push("result: constant row (no FROM)".to_string());
        return lines;
    };

    lines.push(scan_line(base));
    if !joins.is_empty() && !base.pushed.is_empty() {
        lines.push(format!(
            "  pushdown: {} base-only conjunct(s)",
            base.pushed.len()
        ));
    }
    push_mask_line(&mut lines, base);

    let mut bindings: Vec<(String, Vec<String>)> =
        vec![(base.binding.clone(), base.columns.clone())];
    for (right, kind, on) in &joins {
        let left_layout = Layout::new(bindings.clone());
        let strategy = match kind {
            JoinKind::Cross => "cross join (cartesian)".to_string(),
            JoinKind::Inner | JoinKind::Left => {
                let k = if *kind == JoinKind::Left {
                    "left"
                } else {
                    "inner"
                };
                match on
                    .and_then(|on| equi_offsets(on, &left_layout, &right.binding, &right.columns))
                {
                    Some(_) => format!("{k} hash join"),
                    None => format!("{k} nested-loop join"),
                }
            }
        };
        lines.push(format!(
            "{strategy} with {} ({} row(s))",
            right.table_name,
            right.source.len()
        ));
        if !right.pushed.is_empty() {
            lines.push(format!(
                "  pushdown: {} conjunct(s) into {}",
                right.pushed.len(),
                right.table_name
            ));
        }
        push_mask_line(&mut lines, right);
        bindings.push((right.binding.clone(), right.columns.clone()));
    }

    // A columnar scan fuses the WHERE predicates into the scan itself, so
    // there is no separate filter operator to report.
    if filter_present && !matches!(base.access, Access::Columnar { .. }) {
        lines.push("filter: WHERE".to_string());
    }
    if let Some((group_by, having)) = tail.aggregate {
        lines.push(format!(
            "aggregate: group by {} expr(s){}",
            group_by.len(),
            if having.is_some() { ", having" } else { "" }
        ));
    }
    if tail.distinct {
        lines.push("distinct".to_string());
    }
    if !tail.order_by.is_empty() {
        lines.push(format!("sort: {} key(s)", tail.order_by.len()));
    }
    if tail.has_limit {
        lines.push(format!("limit {:?} offset {:?}", tail.limit, tail.offset));
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

fn scan_line(scan: &ScanNode<'_>) -> String {
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
            Access::Seq => format!("seq scan on {} ({} row(s))", scan.table_name, table.len()),
        }
    };
    if let Some(take) = scan.stop_after {
        if !matches!(scan.access, Access::Columnar { .. }) {
            line.push_str(&format!(" [early exit after {take} match(es)]"));
        }
    }
    line
}

fn push_mask_line(lines: &mut Vec<String>, scan: &ScanNode<'_>) {
    if let Some(mask) = &scan.mask {
        let masked = mask.iter().filter(|&&k| !k).count();
        lines.push(format!(
            "  projection pruning: {masked}/{} column(s) of {} masked",
            scan.columns.len(),
            scan.table_name
        ));
    }
}

/// `EXPLAIN ANALYZE` for a SELECT: execute it for real with per-operator
/// instrumentation, then annotate the [`explain_select`] plan lines with
/// actual rows, partitions used, and wall time. The closing `total:`
/// line carries the executed query's `ResultSet` provenance verbatim
/// (rows returned, rows scanned, elapsed), so the annotated plan cannot
/// disagree with what a plain execution reports.
pub fn explain_analyze_select(
    db: &Database,
    sel: &Select,
    params: &[Value],
) -> Result<Vec<String>> {
    let mut prof = ExecProfile::default();
    let rs = execute_select_profiled(db, sel, params, Some(&mut prof))?;
    // The static plan comes from the same planner the execution just ran,
    // against the same database state, so lines match operators
    // one-to-one.
    let mut lines = explain_select(db, sel, params)?;
    let mut joins = prof.joins.iter();
    for line in lines.iter_mut() {
        if line.starts_with("columnar scan on ") {
            if let Some((live, chunks, hits, misses, parts, ns)) = prof.colscan {
                line.push_str(&format!(
                    " [actual rows={live}, chunks={chunks}, cache hits={hits} misses={misses}, partitions={}, {}]",
                    partitions_label(parts),
                    fmt_ns(ns)
                ));
            } else if prof.scan.is_some() {
                // The plan chose columnar but the kernels declined a
                // chunk at run time and the row path executed instead.
                line.push_str(" [fell back to row execution]");
            }
        } else if line.starts_with("index scan on ")
            || line.starts_with("index-order scan on ")
            || line.starts_with("seq scan on ")
            || line.starts_with("virtual scan on ")
        {
            if let Some((rows_out, parts, ns)) = prof.scan {
                line.push_str(&format!(
                    " [actual rows={rows_out}, partitions={}, {}]",
                    partitions_label(parts),
                    fmt_ns(ns)
                ));
            }
        } else if line.contains(" join with ") || line.starts_with("cross join") {
            if let Some((rows_out, ns)) = joins.next() {
                line.push_str(&format!(" [actual rows={rows_out}, {}]", fmt_ns(*ns)));
            }
        } else if line.starts_with("filter: WHERE") {
            if let Some((rows_in, rows_out, parts, ns)) = prof.filter {
                line.push_str(&format!(
                    " [actual rows={rows_out} of {rows_in}, partitions={}, {}]",
                    partitions_label(parts),
                    fmt_ns(ns)
                ));
            }
        } else if line.starts_with("aggregate: ") {
            if let Some((groups, parts, ns)) = prof.aggregate {
                line.push_str(&format!(
                    " [actual groups={groups}, partitions={}, {}]",
                    partitions_label(parts),
                    fmt_ns(ns)
                ));
            }
        } else if line == "distinct" {
            if let Some((rows_in, rows_out)) = prof.distinct {
                line.push_str(&format!(" [actual rows={rows_out} of {rows_in}]"));
            }
        } else if line.starts_with("sort: ") {
            line.push_str(&format!(" [{}]", fmt_ns(prof.sort_ns)));
        } else if line.starts_with("limit ") {
            line.push_str(&format!(" [actual rows={}]", rs.rows.len()));
        } else if line.starts_with("result: constant row") {
            line.push_str(" [actual rows=1]");
        }
    }
    lines.push(format!(
        "total: {} row(s) returned, {} row(s) scanned, {}",
        rs.rows.len(),
        rs.rows_scanned,
        fmt_ns(rs.elapsed.as_nanos().min(u64::MAX as u128) as u64)
    ));
    Ok(lines)
}

// ---------------- shared analysis helpers ----------------

/// Collect every column reference in an expression tree.
pub(crate) fn collect_columns<'a>(expr: &'a Expr, out: &mut Vec<(Option<&'a str>, &'a str)>) {
    match expr {
        Expr::Column { table, column } => out.push((table.as_deref(), column)),
        Expr::Literal(_) | Expr::Param(_) => {}
        Expr::Unary { operand, .. } | Expr::IsNull { operand, .. } => collect_columns(operand, out),
        Expr::Binary { left, right, .. } => {
            collect_columns(left, out);
            collect_columns(right, out);
        }
        Expr::InList { operand, list, .. } => {
            collect_columns(operand, out);
            for e in list {
                collect_columns(e, out);
            }
        }
        Expr::Between {
            operand, low, high, ..
        } => {
            collect_columns(operand, out);
            collect_columns(low, out);
            collect_columns(high, out);
        }
        Expr::Aggregate { arg, .. } => {
            if let Some(a) = arg {
                collect_columns(a, out);
            }
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_columns(a, out);
            }
        }
        Expr::Case {
            branches,
            else_branch,
        } => {
            for (c, v) in branches {
                collect_columns(c, out);
                collect_columns(v, out);
            }
            if let Some(e) = else_branch {
                collect_columns(e, out);
            }
        }
        // Subqueries are resolved before this pass runs; their operand is
        // the only outer-query reference.
        Expr::InSubquery { operand, .. } => collect_columns(operand, out),
        Expr::ScalarSubquery(_) | Expr::Exists { .. } => {}
    }
}

fn masked_clone(row: &Row, mask: &Option<Vec<bool>>) -> Row {
    match mask {
        None => row.clone(),
        Some(mask) => row
            .iter()
            .zip(mask)
            .map(|(v, &keep)| if keep { v.clone() } else { Value::Null })
            .collect(),
    }
}

/// If `on` is `left_col = right_col` (either order), return flat offsets
/// (left offset in the accumulated layout, right offset in the right table).
fn equi_offsets(
    on: &Expr,
    left_layout: &Layout,
    right_binding: &str,
    right_cols: &[String],
) -> Option<(usize, usize)> {
    let Expr::Binary {
        op: BinaryOp::Eq,
        left,
        right,
    } = on
    else {
        return None;
    };
    let as_col = |e: &Expr| -> Option<(Option<String>, String)> {
        if let Expr::Column { table, column } = e {
            Some((table.clone(), column.clone()))
        } else {
            None
        }
    };
    let (lt, lc) = as_col(left)?;
    let (rt, rc) = as_col(right)?;
    let right_off = |t: &Option<String>, c: &str| -> Option<usize> {
        match t {
            Some(t) if !t.eq_ignore_ascii_case(right_binding) => None,
            _ => right_cols.iter().position(|n| n.eq_ignore_ascii_case(c)),
        }
    };
    let left_off = |t: &Option<String>, c: &str| -> Option<usize> {
        left_layout.resolve(t.as_deref(), c).ok()
    };
    // (left = right)
    if let (Some(lo), Some(ro)) = (left_off(&lt, &lc), right_off(&rt, &rc)) {
        // ensure "right" side really refers to the right table (unqualified
        // names could resolve on both sides — prefer explicit qualification)
        if rt.is_some() || left_layout.resolve(None, &rc).is_err() {
            return Some((lo, ro));
        }
    }
    // (right = left)
    if let (Some(lo), Some(ro)) = (left_off(&rt, &rc), right_off(&lt, &lc)) {
        if lt.is_some() || left_layout.resolve(None, &lc).is_err() {
            return Some((lo, ro));
        }
    }
    None
}

/// True if every column reference in `expr` resolves within `layout`.
pub(crate) fn refs_only_layout(expr: &Expr, layout: &Layout) -> bool {
    match expr {
        Expr::Column { table, column } => layout.resolve(table.as_deref(), column).is_ok(),
        Expr::Literal(_) | Expr::Param(_) => true,
        Expr::Unary { operand, .. } | Expr::IsNull { operand, .. } => {
            refs_only_layout(operand, layout)
        }
        Expr::Binary { left, right, .. } => {
            refs_only_layout(left, layout) && refs_only_layout(right, layout)
        }
        Expr::InList { operand, list, .. } => {
            refs_only_layout(operand, layout) && list.iter().all(|e| refs_only_layout(e, layout))
        }
        Expr::Between {
            operand, low, high, ..
        } => {
            refs_only_layout(operand, layout)
                && refs_only_layout(low, layout)
                && refs_only_layout(high, layout)
        }
        Expr::Aggregate { arg, .. } => arg.as_ref().is_none_or(|a| refs_only_layout(a, layout)),
        Expr::Function { args, .. } => args.iter().all(|e| refs_only_layout(e, layout)),
        Expr::Case {
            branches,
            else_branch,
        } => {
            branches
                .iter()
                .all(|(c, v)| refs_only_layout(c, layout) && refs_only_layout(v, layout))
                && else_branch
                    .as_ref()
                    .is_none_or(|e| refs_only_layout(e, layout))
        }
        // Unresolved subqueries cannot be pushed down safely.
        Expr::InSubquery { .. } | Expr::ScalarSubquery(_) | Expr::Exists { .. } => false,
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
    let resolve_base_col = |e: &Expr| -> Option<usize> {
        if let Expr::Column { table: t, column } = e {
            match t {
                Some(t) if !t.eq_ignore_ascii_case(binding) => None,
                _ => layout1.resolve(None, column).ok(),
            }
        } else {
            None
        }
    };
    let const_val = |e: &Expr| -> Option<Value> {
        match e {
            Expr::Literal(v) => Some(v.clone()),
            Expr::Param(i) => params.get(*i).cloned(),
            _ => None,
        }
    };
    for c in conjuncts(pred) {
        if let Expr::Binary { op, left, right } = c {
            // col op const / const op col
            let (col, val, op) = match (resolve_base_col(left), const_val(right)) {
                (Some(col), Some(v)) => (col, v, *op),
                _ => match (resolve_base_col(right), const_val(left)) {
                    (Some(col), Some(v)) => (col, v, flip(*op)),
                    _ => continue,
                },
            };
            if val.is_null() {
                continue;
            }
            let Some(ix) = table.index_on(col) else {
                continue;
            };
            let ids = match op {
                BinaryOp::Eq => ix.ids(&val).to_vec(),
                BinaryOp::Lt => ix.range(Bound::Unbounded, Bound::Excluded(&val)),
                BinaryOp::LtEq => ix.range(Bound::Unbounded, Bound::Included(&val)),
                BinaryOp::Gt => ix.range(Bound::Excluded(&val), Bound::Unbounded),
                BinaryOp::GtEq => ix.range(Bound::Included(&val), Bound::Unbounded),
                _ => continue,
            };
            return Ok(Some(IndexChoice::new(ix, ids)));
        }
        if let Expr::Between {
            operand,
            low,
            high,
            negated: false,
        } = c
        {
            if let (Some(col), Some(lo), Some(hi)) =
                (resolve_base_col(operand), const_val(low), const_val(high))
            {
                if let Some(ix) = table.index_on(col) {
                    let ids = ix.range(Bound::Included(&lo), Bound::Included(&hi));
                    return Ok(Some(IndexChoice::new(ix, ids)));
                }
            }
        }
        if let Expr::InList {
            operand,
            list,
            negated: false,
        } = c
        {
            if let Some(col) = resolve_base_col(operand) {
                if let Some(ix) = table.index_on(col) {
                    let mut ids = Vec::new();
                    let mut all_const = true;
                    for item in list {
                        match const_val(item) {
                            Some(v) => ids.extend_from_slice(ix.ids(&v)),
                            None => {
                                all_const = false;
                                break;
                            }
                        }
                    }
                    if all_const {
                        ids.sort_unstable();
                        ids.dedup();
                        return Ok(Some(IndexChoice::new(ix, ids)));
                    }
                }
            }
        }
    }
    Ok(None)
}

fn flip(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

// ---------------- projection ----------------

/// Expand projections into (name, expr) pairs; wildcards become columns.
fn expand_projections(projections: &[Projection], layout: &Layout) -> Result<Vec<(String, Expr)>> {
    let mut out = Vec::new();
    for p in projections {
        match p {
            Projection::Wildcard => {
                for (binding, col) in layout.flat() {
                    out.push((
                        col.clone(),
                        Expr::Column {
                            table: Some(binding.clone()),
                            column: col.clone(),
                        },
                    ));
                }
            }
            Projection::TableWildcard(t) => {
                let (start, len) = layout
                    .binding_span(t)
                    .ok_or_else(|| DbError::NoSuchTable(t.clone()))?;
                for (binding, col) in &layout.flat()[start..start + len] {
                    out.push((
                        col.clone(),
                        Expr::Column {
                            table: Some(binding.clone()),
                            column: col.clone(),
                        },
                    ));
                }
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
    proj: &[Projection],
    order_by: &[OrderItem],
    layout: &Layout,
    rows: &[Row],
    params: &[Value],
    prof: Option<&mut ExecProfile>,
) -> Result<ResultSet> {
    let projections = expand_projections(proj, layout)?;
    let columns: Vec<String> = projections.iter().map(|(n, _)| n.clone()).collect();

    // ORDER BY before projection so sort keys can use any source column.
    let mut indices: Vec<usize> = (0..rows.len()).collect();
    if !order_by.is_empty() {
        let _stage = telemetry::span("db.exec.sort");
        let t0 = prof.is_some().then(Instant::now);
        let keys = order_keys(order_by, layout, rows, params, &projections)?;
        sort_indices(&mut indices, &keys, order_by);
        if let Some(p) = prof {
            p.sort_ns = stage_ns(t0);
        }
    }

    let mut out_rows = Vec::with_capacity(rows.len());
    for &i in &indices {
        let env = Env::new(layout, &rows[i], params);
        let mut out = Vec::with_capacity(projections.len());
        for (_, e) in &projections {
            out.push(eval(e, &env)?);
        }
        out_rows.push(out);
    }
    Ok(ResultSet {
        columns,
        rows: out_rows,
        ..ResultSet::default()
    })
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
        Expr::Unary { operand, .. } | Expr::IsNull { operand, .. } => {
            collect_aggregates(operand, out)
        }
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        Expr::InList { operand, list, .. } => {
            collect_aggregates(operand, out);
            for e in list {
                collect_aggregates(e, out);
            }
        }
        Expr::Between {
            operand, low, high, ..
        } => {
            collect_aggregates(operand, out);
            collect_aggregates(low, out);
            collect_aggregates(high, out);
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_aggregates(a, out);
            }
        }
        Expr::Case {
            branches,
            else_branch,
        } => {
            for (c, v) in branches {
                collect_aggregates(c, out);
                collect_aggregates(v, out);
            }
            if let Some(e) = else_branch {
                collect_aggregates(e, out);
            }
        }
        Expr::InSubquery { operand, .. } => collect_aggregates(operand, out),
        Expr::ScalarSubquery(_) | Expr::Exists { .. } => {}
        Expr::Literal(_) | Expr::Param(_) | Expr::Column { .. } => {}
    }
}

/// Replace aggregate nodes with their computed literal values.
fn substitute(expr: &Expr, aggs: &[&Expr], values: &[Value]) -> Expr {
    if let Some(pos) = aggs.iter().position(|a| *a == expr) {
        return Expr::Literal(values[pos].clone());
    }
    match expr {
        Expr::Unary { op, operand } => Expr::Unary {
            op: *op,
            operand: Box::new(substitute(operand, aggs, values)),
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(substitute(left, aggs, values)),
            right: Box::new(substitute(right, aggs, values)),
        },
        Expr::IsNull { operand, negated } => Expr::IsNull {
            operand: Box::new(substitute(operand, aggs, values)),
            negated: *negated,
        },
        Expr::InList {
            operand,
            list,
            negated,
        } => Expr::InList {
            operand: Box::new(substitute(operand, aggs, values)),
            list: list.iter().map(|e| substitute(e, aggs, values)).collect(),
            negated: *negated,
        },
        Expr::Between {
            operand,
            low,
            high,
            negated,
        } => Expr::Between {
            operand: Box::new(substitute(operand, aggs, values)),
            low: Box::new(substitute(low, aggs, values)),
            high: Box::new(substitute(high, aggs, values)),
            negated: *negated,
        },
        Expr::Function { name, args } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(|e| substitute(e, aggs, values)).collect(),
        },
        Expr::Case {
            branches,
            else_branch,
        } => Expr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| (substitute(c, aggs, values), substitute(v, aggs, values)))
                .collect(),
            else_branch: else_branch
                .as_ref()
                .map(|e| Box::new(substitute(e, aggs, values))),
        },
        other => other.clone(),
    }
}

#[allow(clippy::too_many_arguments)]
fn aggregate_path(
    proj: &[Projection],
    group_by: &[Expr],
    having: Option<&Expr>,
    order_by: &[OrderItem],
    layout: &Layout,
    rows: &[Row],
    params: &[Value],
    mut prof: Option<&mut ExecProfile>,
) -> Result<ResultSet> {
    let agg_t0 = prof.is_some().then(Instant::now);
    let projections = expand_projections(proj, layout)?;
    let columns: Vec<String> = projections.iter().map(|(n, _)| n.clone()).collect();

    // All aggregate expressions across projections, HAVING, ORDER BY.
    let mut aggs: Vec<&Expr> = Vec::new();
    for (_, e) in &projections {
        collect_aggregates(e, &mut aggs);
    }
    if let Some(h) = having {
        collect_aggregates(h, &mut aggs);
    }
    for o in order_by {
        collect_aggregates(&o.expr, &mut aggs);
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
            let partials = pool::try_run(ranges.len(), |pi| {
                group_and_accumulate(group_by, layout, rows, params, aggs_ref, ranges[pi].clone())
            })?;
            let _merge = telemetry::span("db.exec.merge");
            merge_group_partials(partials)?
        }
        None => group_and_accumulate(group_by, layout, rows, params, &aggs, 0..rows.len())?,
    };
    let group_count = groups.len() as u64;

    let null_row: Row = vec![Value::Null; layout.width()];
    let mut out_rows = Vec::with_capacity(groups.len());
    for (_, rep_idx, accs) in &groups {
        let agg_values: Vec<Value> = accs.iter().map(|a| a.finish()).collect();

        // Representative row for evaluating group-key expressions. An empty
        // group (aggregate over zero rows, no GROUP BY) uses a NULL row.
        let rep: &Row = match rep_idx {
            Some(i) => &rows[*i],
            None => &null_row,
        };
        let env = Env::new(layout, rep, params);

        // HAVING
        if let Some(h) = having {
            let h_sub = substitute(h, &aggs, &agg_values);
            if !eval_condition(&h_sub, &env)? {
                continue;
            }
        }

        let mut out = Vec::with_capacity(projections.len());
        for (_, e) in &projections {
            let e_sub = substitute(e, &aggs, &agg_values);
            out.push(eval(&e_sub, &env)?);
        }

        // ORDER BY keys for this group (computed now, sorted below).
        let mut keys = Vec::with_capacity(order_by.len());
        for o in order_by {
            let key = resolve_order_expr(&o.expr, &projections, &columns, &out)?;
            match key {
                Some(v) => keys.push(v),
                None => {
                    let e_sub = substitute(&o.expr, &aggs, &agg_values);
                    keys.push(eval(&e_sub, &env)?);
                }
            }
        }
        out_rows.push((keys, out));
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
        out_rows.sort_by(|a, b| {
            for (i, o) in order_by.iter().enumerate() {
                let ord = a.0[i].total_cmp(&b.0[i]);
                let ord = if o.descending { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
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

/// Grouping state: key values, index of the group's first (representative)
/// row, and one accumulator per aggregate expression.
type GroupState = (Vec<Value>, Option<usize>, Vec<Accumulator>);

fn new_accumulators(aggs: &[&Expr]) -> Vec<Accumulator> {
    aggs.iter()
        .map(|a| match a {
            Expr::Aggregate { func, distinct, .. } => Accumulator::new(*func, *distinct),
            _ => unreachable!("collect_aggregates only collects aggregates"),
        })
        .collect()
}

fn update_accumulators(accs: &mut [Accumulator], aggs: &[&Expr], env: &Env) -> Result<()> {
    for (ai, a) in aggs.iter().enumerate() {
        let Expr::Aggregate { arg, .. } = a else {
            unreachable!()
        };
        match arg {
            None => accs[ai].update(None)?,
            Some(e) => {
                let v = eval(e, env)?;
                accs[ai].update(Some(&v))?;
            }
        }
    }
    Ok(())
}

/// Group `rows[range]` and feed the aggregates, producing groups in
/// first-occurrence order with the range's first member as representative.
/// Called with the full range on the serial path, and once per partition on
/// the parallel path.
fn group_and_accumulate(
    group_by: &[Expr],
    layout: &Layout,
    rows: &[Row],
    params: &[Value],
    aggs: &[&Expr],
    range: Range<usize>,
) -> Result<Vec<GroupState>> {
    let mut groups: Vec<GroupState> = Vec::new();
    if group_by.is_empty() {
        let rep = (!range.is_empty()).then_some(range.start);
        let mut accs = new_accumulators(aggs);
        for i in range {
            let env = Env::new(layout, &rows[i], params);
            update_accumulators(&mut accs, aggs, &env)?;
        }
        groups.push((Vec::new(), rep, accs));
    } else {
        let mut group_index: HashMap<Vec<Value>, usize> = HashMap::new();
        for i in range {
            let env = Env::new(layout, &rows[i], params);
            let mut key = Vec::with_capacity(group_by.len());
            for g in group_by {
                key.push(eval(g, &env)?);
            }
            let gi = match group_index.get(&key) {
                Some(&gi) => gi,
                None => {
                    group_index.insert(key.clone(), groups.len());
                    groups.push((key, Some(i), new_accumulators(aggs)));
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
fn merge_group_partials(partials: Vec<Vec<GroupState>>) -> Result<Vec<GroupState>> {
    let mut groups: Vec<GroupState> = Vec::new();
    let mut group_index: HashMap<Vec<Value>, usize> = HashMap::new();
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

/// Resolve ORDER BY shortcuts: ordinal (`ORDER BY 2`) or output alias.
/// Returns the already-computed output value when applicable.
fn resolve_order_expr(
    expr: &Expr,
    projections: &[(String, Expr)],
    columns: &[String],
    out_row: &[Value],
) -> Result<Option<Value>> {
    match expr {
        Expr::Literal(Value::Int(n)) => {
            let i = *n as usize;
            if i == 0 || i > columns.len() {
                return Err(DbError::Eval(format!(
                    "ORDER BY ordinal {n} out of range 1..={}",
                    columns.len()
                )));
            }
            Ok(Some(out_row[i - 1].clone()))
        }
        Expr::Column {
            table: None,
            column,
        } => {
            // Prefer an explicit output alias over a source column only if
            // the alias was explicitly given (it shadows).
            if let Some(pos) = projections
                .iter()
                .position(|(n, e)| n.eq_ignore_ascii_case(column) && !matches!(e, Expr::Column { column: c, .. } if c.eq_ignore_ascii_case(column)))
            {
                return Ok(Some(out_row[pos].clone()));
            }
            Ok(None)
        }
        _ => Ok(None),
    }
}

/// Evaluate ORDER BY keys for every row (plain path).
fn order_keys(
    order_by: &[OrderItem],
    layout: &Layout,
    rows: &[Row],
    params: &[Value],
    projections: &[(String, Expr)],
) -> Result<Vec<Vec<Value>>> {
    let columns: Vec<String> = projections.iter().map(|(n, _)| n.clone()).collect();
    let mut keys = Vec::with_capacity(rows.len());
    for row in rows {
        let env = Env::new(layout, row, params);
        let mut k = Vec::with_capacity(order_by.len());
        for o in order_by {
            // For ordinals/aliases we must project first.
            let needs_projection = matches!(&o.expr, Expr::Literal(Value::Int(_)))
                || matches!(&o.expr, Expr::Column { table: None, .. });
            if needs_projection {
                // compute the projected row lazily only when required
                let mut out = Vec::with_capacity(projections.len());
                for (_, e) in projections {
                    out.push(eval(e, &env)?);
                }
                if let Some(v) = resolve_order_expr(&o.expr, projections, &columns, &out)? {
                    k.push(v);
                    continue;
                }
            }
            k.push(eval(&o.expr, &env)?);
        }
        keys.push(k);
    }
    Ok(keys)
}

fn sort_indices(indices: &mut [usize], keys: &[Vec<Value>], order_by: &[OrderItem]) {
    indices.sort_by(|&a, &b| {
        for (i, o) in order_by.iter().enumerate() {
            let ord = keys[a][i].total_cmp(&keys[b][i]);
            let ord = if o.descending { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}
