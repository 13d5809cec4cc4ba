//! Physical access selection: decide per [`ScanNode`] how its rows are
//! read — columnar kernels, index candidates, index-order, or a
//! sequential scan for the base; an index probe or a full read for each
//! join right side — using table and index statistics.
//!
//! This is a *cost* decision, not a rewrite: it runs with the optimizer
//! off too (matching the pre-IR engine, where index and columnar
//! dispatch were per-statement heuristics independent of any rewrites),
//! and it never changes what rows the plan produces, only how they are
//! found.

use super::ir::{base_scan_mut, pipeline_layout, pipeline_mut, Access, LogicalPlan};
use crate::column::CHUNK_ROWS;
use crate::error::Result;
use crate::exec::select::{collect_aggregates, equi_offsets, grouped_only, index_candidates};
use crate::exec::vector;
use crate::sql::ast::{Expr, JoinKind, Projection};
use crate::value::Value;

/// An index is selective when the rows it selects, times this factor,
/// are at most the table's live rows: it then beats a columnar scan, and
/// a join probes it instead of hashing the whole right table.
const SELECTIVE: usize = 4;

/// Annotate every scan in the plan with its access decision.
pub(crate) fn decide_access(
    root: &mut LogicalPlan<'_>,
    params: &[Value],
    had_subqueries: bool,
) -> Result<()> {
    if let Some((plan, reason)) = columnar_choice(root, params, had_subqueries)? {
        if let Some(scan) = base_scan_mut(root) {
            scan.access = Access::Columnar {
                plan: Box::new(plan),
                reason,
            };
        }
        return Ok(());
    }
    let Some(scan) = base_scan_mut(root) else {
        return Ok(());
    };
    // Sort-elision may have preset an index-order scan; per-statement
    // virtual materializations have no indexes.
    if matches!(scan.access, Access::Seq) && !scan.source.is_virtual() {
        let choice = index_candidates(
            &scan.source,
            &scan.binding,
            &scan.layout1(),
            scan.index_filter.as_ref(),
            params,
        )?;
        if let Some(choice) = choice {
            scan.access = Access::Index(choice);
        }
    }
    decide_joins(pipeline_mut(root));
    Ok(())
}

/// Pick each join's right-side access, left to right. Returns the
/// pipeline's estimated rows: the base contributes its index candidate
/// count (exact) or its live rows, and each join multiplies by the
/// fan-out of the right side's index on the join column (live entries
/// per distinct key; 1 without such an index).
fn decide_joins(node: &mut LogicalPlan<'_>) -> usize {
    match node {
        LogicalPlan::Scan(scan) => match &scan.access {
            Access::Index(choice) => choice.ids.len(),
            _ => scan.source.len(),
        },
        LogicalPlan::Filter { input, .. } => decide_joins(input),
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let left_rows = decide_joins(left);
            let equi = match (*kind, on) {
                (JoinKind::Inner | JoinKind::Left, Some(on)) => {
                    equi_offsets(on, &pipeline_layout(left), right)
                }
                _ => None,
            };
            let mut rows = left_rows;
            if let Some((left_slot, right_col)) = equi {
                if let Some(ix) = right.source.index_on(right_col) {
                    rows = left_rows.saturating_mul(ix.len()) / ix.distinct_keys().max(1);
                    if left_rows.saturating_mul(SELECTIVE) <= right.source.len() {
                        right.access = Access::Probe {
                            index_name: ix.name.clone(),
                            left_slot,
                            right_col,
                        };
                    }
                }
            }
            match *kind {
                JoinKind::Left => rows.max(left_rows),
                JoinKind::Cross => left_rows.saturating_mul(right.source.len()),
                JoinKind::Inner => rows,
            }
        }
        _ => 0,
    }
}

/// Decide between columnar, index, and sequential execution for an
/// eligible aggregate plan, using the same statistics thresholds the
/// pre-IR heuristic applied. Returns `None` when row execution (index
/// or seq) should run.
fn columnar_choice(
    root: &LogicalPlan<'_>,
    params: &[Value],
    had_subqueries: bool,
) -> Result<Option<(vector::ColumnarPlan, String)>> {
    // Subqueries resolve to literals before execution but EXPLAIN plans
    // them unresolved; decline in both so the paths agree.
    if had_subqueries {
        return Ok(None);
    }
    let mode = vector::columnar_mode();
    if mode == vector::ColumnarMode::Off {
        return Ok(None);
    }
    // Eligible shape: Limit?(Project(Aggregate[ungrouped](Filter?(Scan))))
    // — a single-table, ungrouped aggregate query whose projections are
    // pure aggregate expressions. Any other node (Sort, Distinct, Join)
    // breaks the pattern and keeps row execution.
    let node = match root {
        LogicalPlan::Limit { input, .. } => &**input,
        other => other,
    };
    let LogicalPlan::Project { input, projections } = node else {
        return Ok(None);
    };
    let LogicalPlan::Aggregate {
        input,
        group_by,
        having,
    } = &**input
    else {
        return Ok(None);
    };
    if !group_by.is_empty() || having.is_some() {
        return Ok(None);
    }
    let (scan, pred) = match &**input {
        LogicalPlan::Scan(s) => (s, None),
        LogicalPlan::Filter { input, predicate } => match &**input {
            LogicalPlan::Scan(s) => (s, Some(predicate)),
            _ => return Ok(None),
        },
        _ => return Ok(None),
    };
    if scan.source.is_virtual() {
        // Virtual tables are rematerialized per statement, so their chunk
        // caches would never pay off: always take the row path.
        return Ok(None);
    }
    if projections.is_empty()
        || !projections.iter().all(|p| match p {
            Projection::Expr { expr, .. } => expr.contains_aggregate() && grouped_only(expr, &[]),
            _ => false,
        })
    {
        return Ok(None);
    }
    let layout1 = scan.layout1();
    // Same collection order as the executor, so accumulator `i` belongs
    // to aggregate expression `i`.
    let mut aggs: Vec<&Expr> = Vec::new();
    for p in projections {
        if let Projection::Expr { expr, .. } = p {
            collect_aggregates(expr, &mut aggs);
        }
    }
    let Some(plan) = vector::plan_columnar(
        &scan.source.schema,
        &scan.binding,
        &layout1,
        &aggs,
        pred,
        params,
    ) else {
        return Ok(None);
    };
    let live = scan.source.len();
    let reason = match mode {
        vector::ColumnarMode::Force => "forced by PERFDMF_COLUMNAR".to_string(),
        vector::ColumnarMode::Auto => {
            match index_candidates(
                &scan.source,
                &scan.binding,
                &layout1,
                scan.index_filter.as_ref(),
                params,
            )? {
                Some(choice) => {
                    // A selective index beats scanning every chunk; a
                    // low-selectivity one does not.
                    if choice.ids.len().saturating_mul(SELECTIVE) <= live {
                        return Ok(None);
                    }
                    format!(
                        "index {} unselective: {} candidate(s) of {} live row(s), {} distinct key(s)",
                        choice.index_name,
                        choice.ids.len(),
                        live,
                        choice.distinct_keys
                    )
                }
                None => {
                    if live < CHUNK_ROWS {
                        return Ok(None); // small table: seq scan is fine
                    }
                    format!("no usable index, {live} live row(s) ≥ {CHUNK_ROWS} threshold")
                }
            }
        }
        vector::ColumnarMode::Off => unreachable!("handled above"),
    };
    Ok(Some((plan, reason)))
}
