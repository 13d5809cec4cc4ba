//! Physical access selection: decide per [`ScanNode`] how its rows are
//! read — index candidates, index-order, or a sequential scan for the
//! base; an index probe or a full read for each join right side — and
//! whether the aggregate runs on column chunks instead (the plan's
//! `columnar` field), using table and index statistics.
//!
//! This is a *cost* decision, not a rewrite: it runs with the optimizer
//! off too (matching the pre-IR engine, where index and columnar
//! dispatch were per-statement heuristics independent of any rewrites),
//! and it never changes what rows the plan produces, only how they are
//! found.

use super::ir::{layout_of, Access, Columnar, Plan, ScanNode};
use crate::column::CHUNK_ROWS;
use crate::error::Result;
use crate::exec::eval::Layout;
use crate::exec::predicate::{
    column_test, compile_pushed, pushed_match, ColumnTest, Conjunct, TestKind,
};
use crate::exec::select::{
    conjuncts, equi_offsets, index_candidates, index_choice, refs_only_layout, BoundAggregate,
};
use crate::exec::vector;
use crate::sql::ast::{BinaryOp, Expr, JoinKind};
use crate::table::{Row, RowId, Table};
use crate::value::{DataType, Value};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// An index is selective when the rows it selects, times this factor,
/// are at most the table's live rows: a join then probes it instead of
/// hashing the whole right table.
const SELECTIVE: usize = 4;

/// Annotate every scan in the plan with its access decision, and decide
/// whether the aggregate runs columnar.
pub(crate) fn decide_access(
    plan: &mut Plan<'_>,
    params: &[Value],
    had_subqueries: bool,
) -> Result<()> {
    if let Some(scan) = plan.scans.first_mut() {
        // Sort-elision may have preset an index-order scan; per-statement
        // virtual materializations have no indexes.
        if matches!(scan.access, Access::Seq) && !scan.source.is_virtual() {
            let where_conjuncts = scan.index_filter.as_ref().map(conjuncts);
            let choice = index_candidates(
                &scan.source,
                &scan.binding,
                &scan.layout1(),
                where_conjuncts.unwrap_or_default(),
                params,
            )?;
            if let Some(choice) = choice {
                scan.access = Access::Index(choice);
            }
        }
        decide_joins(plan);
    }
    plan.columnar = columnar_choice(plan, params, had_subqueries)?;
    Ok(())
}

/// Pick each join's right-side access, left to right. The left side's
/// estimated rows start at the base's index candidate count (exact) or
/// its live rows, and each join multiplies them by the fan-out of the
/// right side's index on the join column (live entries per distinct
/// key; 1 without such an index).
fn decide_joins(plan: &mut Plan<'_>) {
    let mut left_rows = match &plan.scans[0].access {
        Access::Index(choice) => choice.ids.len(),
        _ => plan.scans[0].source.len(),
    };
    for (i, (kind, on)) in plan.joins.iter().enumerate() {
        let (left, right) = plan.scans.split_at_mut(i + 1);
        let right = &mut right[0];
        let equi = match (*kind, on) {
            (JoinKind::Inner | JoinKind::Left, Some(on)) => {
                equi_offsets(on, &layout_of(left), right)
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
        left_rows = match *kind {
            JoinKind::Left => rows.max(left_rows),
            JoinKind::Cross => left_rows.saturating_mul(right.source.len()),
            JoinKind::Inner => rows,
        };
    }
}

/// Decide whether an aggregate runs on column chunks, and compile it.
///
/// The eligible shape is `Limit?(Sort?(Project(Aggregate(Filter?(P)))))`
/// where `P` is one *fact* scan, INNER-joined to any number of
/// *dimension* scans, each on `fact.fk = dim.pk` with `pk` the
/// dimension's INTEGER PRIMARY KEY (join order is free). Every WHERE
/// conjunct reads one table; the fact's must compile to typed kernels,
/// and each dimension's are evaluated here, once, to the key set of its
/// matching rows. Every GROUP BY key is the foreign key of one dimension
/// or a column of that dimension, one of them the key itself; every
/// aggregate is `COUNT(*)` or one over a bare fact column. With no join
/// this is a single-table aggregate.
///
/// Under `Auto` the path is taken when it reads mostly candidate rows:
/// when a fact index locates the candidates, there must be at least
/// [`CHUNK_ROWS`] of them, filling at least half the slots of the chunks
/// that hold them; without one, the fact must hold [`CHUNK_ROWS`] live
/// rows. Returns the plan and the reason EXPLAIN prints; `None` keeps
/// row execution.
fn columnar_choice(
    plan: &Plan<'_>,
    params: &[Value],
    had_subqueries: bool,
) -> Result<Option<Columnar>> {
    // Subqueries resolve to literals before execution but EXPLAIN plans
    // them unresolved; decline in both so the paths agree.
    let mode = vector::columnar_mode();
    if had_subqueries || mode == vector::ColumnarMode::Off {
        return Ok(None);
    }
    let Some((group_by, having)) = &plan.aggregate else {
        return Ok(None);
    };
    if plan.distinct {
        return Ok(None);
    }
    let scans = &plan.scans;
    // Virtual tables are rematerialized per statement, so their chunk
    // caches would never pay off: always take the row path.
    if scans.is_empty() || scans.iter().any(|s| s.source.is_virtual()) {
        return Ok(None);
    }
    let layout = layout_of(scans);
    let Some((fact, dims)) = star(plan, &layout) else {
        return Ok(None);
    };
    let fact_scan = &scans[fact];
    let live = fact_scan.source.len();
    if mode == vector::ColumnarMode::Auto && live < CHUNK_ROWS {
        return Ok(None); // small table: the row path is fine
    }

    // The output, bound as the executor binds it, fixes the aggregate
    // calls and their order.
    let Ok(bound) = BoundAggregate::bind(
        &plan.projections,
        group_by,
        having.as_ref(),
        &plan.order_by,
        &layout,
    ) else {
        return Ok(None); // let the row path report the binding error
    };
    if !bound.is_grouped_only() {
        return Ok(None);
    }
    let schema = &fact_scan.source.schema;
    let mut aggs = Vec::new();
    for a in bound.aggs() {
        let Expr::Aggregate {
            func,
            arg,
            distinct: false,
        } = a
        else {
            return Ok(None); // DISTINCT pins the row path
        };
        let col = match arg.as_deref() {
            None => None,
            Some(Expr::Slot { binding, column }) if *binding == fact => Some(*column),
            Some(_) => return Ok(None),
        };
        match vector::compile_agg(schema, *func, col) {
            Some(spec) => aggs.push(spec),
            None => return Ok(None),
        }
    }
    // Every GROUP BY key must name the same dimension: its foreign key
    // in the fact, or one of its own columns. One of them must be the
    // key itself (fk or pk), so that the key determines the group.
    let mut group = None;
    let mut keyed = false;
    for g in bound.group_by() {
        let Expr::Slot { binding, column } = g else {
            return Ok(None);
        };
        let d = if *binding == fact {
            keyed |= dims.iter().any(|&(_, fk)| fk == *column);
            dims.iter().position(|&(_, fk)| fk == *column)
        } else {
            let pk = scans[*binding].source.schema.primary_key_index();
            keyed |= pk == Some(*column);
            dims.iter().position(|&(b, _)| b == *binding)
        };
        match (d, group) {
            (Some(d), None) => group = Some(d),
            (Some(d), Some(g)) if d == g => {}
            _ => return Ok(None),
        }
    }
    if group.is_some() && !keyed {
        return Ok(None);
    }

    // Sort the WHERE conjuncts (pushed into scans, or still in the
    // filter when the optimizer is off) by the one table each reads.
    let mut preds: Vec<Vec<&Expr>> = scans.iter().map(|s| s.pushed.iter().collect()).collect();
    for c in plan.filter.as_ref().map(conjuncts).unwrap_or_default() {
        if layout.bind(c).is_err() {
            return Ok(None); // ambiguous or unknown: the row path reports it
        }
        let reads: Vec<usize> = (0..scans.len())
            .filter(|&b| !refs_only_layout(c, &without(&layout, b)))
            .collect();
        match reads[..] {
            [b] if refs_only_layout(c, &scans[b].layout1()) => preds[b].push(c),
            _ => return Ok(None),
        }
    }

    let fact_layout = fact_scan.layout1();
    // Every fact conjunct must be a column test with a chunk kernel.
    let mut col_preds: Vec<ColumnTest> = Vec::new();
    for c in &preds[fact] {
        match column_test(c, &fact_scan.binding, &fact_layout, params) {
            Some(test) if vector::has_kernel(&test, schema) => col_preds.push(test),
            _ => return Ok(None),
        }
    }
    // Each dimension's key set tests the fact's INTEGER foreign key.
    let mut dimensions = Vec::with_capacity(dims.len());
    let mut group_test = None;
    for (i, &(b, fk)) in dims.iter().enumerate() {
        let Some((keys, read, ns)) = key_set(&scans[b], &preds[b], params) else {
            return Ok(None);
        };
        let test = ColumnTest {
            col: fk,
            kind: TestKind::KeySet(keys.clone()),
        };
        // The group lookup tests the grouping dimension's keys itself.
        if group == Some(i) {
            group_test = Some(test);
        } else {
            col_preds.push(test);
        }
        dimensions.push(vector::Dimension {
            binding: b,
            fk,
            keys,
            read,
            ns,
        });
    }
    // Candidate rows: the smallest set a fact index yields for one test.
    let candidates = candidate_chunks(&fact_scan.source, col_preds.iter().chain(&group_test));
    let slab = fact_scan.source.slab_len();
    let reason = match (mode, &candidates) {
        (vector::ColumnarMode::Force, _) => "forced by PERFDMF_COLUMNAR".to_string(),
        (_, Some((n, index_name, chunks))) => {
            let slots: usize = chunks
                .iter()
                .map(|&ci| CHUNK_ROWS.min(slab - ci * CHUNK_ROWS))
                .sum();
            if *n < CHUNK_ROWS || n.saturating_mul(2) < slots {
                return Ok(None);
            }
            format!(
                "{n} candidate row(s) via {index_name} fill {}% of {} chunk(s)",
                n * 100 / slots.max(1),
                chunks.len()
            )
        }
        _ => format!("no usable index, {live} live row(s) ≥ {CHUNK_ROWS} threshold"),
    };
    let chunks = candidates.map(|(_, _, chunks)| chunks);
    let plan = vector::ColumnarPlan::new(aggs, col_preds, fact, dimensions, group, chunks);
    Ok(Some(Columnar { plan, reason }))
}

/// Locate the candidate rows through the fact index that serves the
/// most selective of `tests`: their count, the index name, and the
/// chunks that hold them, ascending. The ids are only counted and
/// bucketed, never collected or sorted.
fn candidate_chunks<'t>(
    table: &Table,
    tests: impl Iterator<Item = &'t ColumnTest>,
) -> Option<(usize, String, Vec<usize>)> {
    let (n, name, parts) = tests
        .filter_map(|t| {
            let ix = table.index_on(t.col)?;
            let parts: Vec<Cow<'_, [RowId]>> = match &t.kind {
                TestKind::KeySet(keys) => keys
                    .keys()
                    .iter()
                    .map(|&k| Cow::Borrowed(ix.ids(&Value::Int(k))))
                    .collect(),
                _ => vec![Cow::Owned(index_choice(table, t)?.ids)],
            };
            let n = parts.iter().map(|p| p.len()).sum::<usize>();
            Some((n, &ix.name, parts))
        })
        .min_by_key(|(n, _, _)| *n)?;
    let mut hit = vec![false; table.chunk_count()];
    for &id in parts.iter().flat_map(|p| p.iter()) {
        hit[id as usize / CHUNK_ROWS] = true;
    }
    let chunks = (0..hit.len()).filter(|&c| hit[c]).collect();
    Some((n, name.clone(), chunks))
}

/// `layout` with binding `b`'s columns hidden.
fn without(layout: &Layout, b: usize) -> Layout {
    let mut bindings = layout.bindings().to_vec();
    bindings[b].1.clear();
    Layout::new(bindings)
}

/// Recognise a star: one fact scan whose every INNER join is
/// `fact.fk = dim.pk` with `pk` the INTEGER PRIMARY KEY of a distinct
/// dimension and `fk` an INTEGER fact column. Returns the fact's layout
/// position and `(dimension position, fk column)` per dimension, in
/// layout order. A lone scan is a star with no dimension.
fn star(plan: &Plan<'_>, layout: &Layout) -> Option<(usize, Vec<(usize, usize)>)> {
    let scans = &plan.scans;
    // Each ON, bound against the bindings joined so far, as an equality
    // of two columns: ((binding, column), (binding, column)).
    let mut edges = Vec::new();
    for (i, (kind, on)) in plan.joins.iter().enumerate() {
        if *kind != JoinKind::Inner {
            return None;
        }
        let prefix = Layout::new(layout.bindings()[..=i + 1].to_vec());
        let Expr::Binary {
            op: BinaryOp::Eq,
            left: a,
            right: b,
        } = prefix.bind(on.as_ref()?).ok()?
        else {
            return None;
        };
        match (*a, *b) {
            (
                Expr::Slot {
                    binding: ab,
                    column: ac,
                },
                Expr::Slot {
                    binding: bb,
                    column: bc,
                },
            ) if ab != bb => edges.push(((ab, ac), (bb, bc))),
            _ => return None,
        }
    }
    let int_col = |b: usize, c: usize| scans[b].source.schema.columns[c].ty == DataType::Integer;
    let is_pk = |b: usize, c: usize| int_col(b, c) && scans[b].source.schema.columns[c].primary_key;
    (0..scans.len()).find_map(|fact| {
        let mut dims = Vec::with_capacity(edges.len());
        for &(x, y) in &edges {
            let ((_, fk), (d, pk)) = if x.0 == fact { (x, y) } else { (y, x) };
            if !(x.0 == fact || y.0 == fact) || !int_col(fact, fk) || !is_pk(d, pk) {
                return None;
            }
            dims.push((d, fk));
        }
        dims.sort_unstable();
        dims.dedup_by_key(|&mut (d, _)| d);
        (dims.len() == edges.len()).then_some((fact, dims))
    })
}

/// Evaluate a dimension's predicates to the key set of its matching
/// rows, reading its index candidates when an index serves one of them.
/// Returns the set, the rows read and the wall ns; `None` when a
/// predicate fails to bind or evaluate (the row path then reports it).
fn key_set(
    scan: &ScanNode<'_>,
    preds: &[&Expr],
    params: &[Value],
) -> Option<(Arc<vector::KeySet>, u64, u64)> {
    let t0 = Instant::now();
    let table: &Table = &scan.source;
    let layout1 = scan.layout1();
    let pk = table.schema.primary_key_index()?;
    let compiled = compile_pushed(preds.iter().copied(), &scan.binding, &layout1, params).ok()?;
    let candidates = compiled
        .iter()
        .filter_map(|c| match c {
            Conjunct::Typed(t) => index_choice(table, t),
            Conjunct::Eval(_) => None,
        })
        .min_by_key(|c| c.ids.len());
    let rows: Box<dyn Iterator<Item = (RowId, &Row)>> = match &candidates {
        Some(c) => Box::new(c.ids.iter().filter_map(|&id| Some((id, table.row(id)?)))),
        None => Box::new(table.iter()),
    };
    let (mut pairs, mut read) = (Vec::new(), 0u64);
    for (id, row) in rows {
        read += 1;
        if pushed_match(&compiled, row, params).ok()? {
            if let Value::Int(k) = row[pk] {
                pairs.push((k, id));
            }
        }
    }
    let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    Some((Arc::new(vector::KeySet::new(pairs)), read, ns))
}
