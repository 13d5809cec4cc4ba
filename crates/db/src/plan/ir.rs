//! The plan IR: a parsed `SELECT` lowered to one flat [`Plan`], rewritten
//! by the rule-based optimizer ([`super::rules`]), annotated with a
//! physical access decision per scan and an optional columnar plan
//! ([`super::cost`]), and finally read by the executor and the EXPLAIN
//! renderer.
//!
//! Lowering only ever produces one shape of operators,
//!
//! ```text
//! Limit ( Distinct ( Sort ( Project ( [Aggregate] ( [Filter] ( joins/Scan ))))))
//! ```
//!
//! with left-deep joins whose right side is always a single scan, so the
//! plan stores that spine as fields in that order rather than as a tree:
//! the scans in layout order, one `(kind, ON)` per join, the residual
//! filter, and the tail. Rules rewrite the fields (pushing conjuncts into
//! scans, permuting joins, clearing the sort) but never the spine.

use crate::database::Database;
use crate::error::{DbError, Result};
use crate::exec::eval::Layout;
use crate::exec::select::{resolve_table, IndexChoice, TableSource};
use crate::exec::vector;
use crate::sql::ast::{Expr, JoinKind, OrderItem, Projection, Select, TableRef};

/// How a [`ScanNode`] reads its table — the physical access decision
/// folded out of the old per-statement heuristics in `exec/select.rs`.
pub(crate) enum Access {
    /// Full scan in ascending row-id order (parallel when the pool and
    /// row count justify it).
    Seq,
    /// Candidate row ids from a secondary index, with the statistics
    /// that justified the choice (rendered by EXPLAIN).
    Index(IndexChoice),
    /// Full scan in ascending *key* order of an index: NULL-key rows
    /// first (in row-id order), then `scan_asc`. Because ids are stored
    /// ascending within each key and `Value::total_cmp` sorts NULL
    /// first, this order is exactly the stable `ORDER BY col ASC` order
    /// — which is what lets the sort-elision rule drop the sort.
    IndexOrder { index_name: String, column: String },
    /// Join right sides only — an index nested-loop join: each left
    /// row's key (slot `left_slot` of the left tuple: binding, column) is
    /// looked up in the index on `right_col`. Ids ascend within a key, so a left
    /// row's matches come in row-id order, exactly as the hash join
    /// emits them.
    Probe {
        index_name: String,
        left_slot: (usize, usize),
        right_col: usize,
    },
}

/// A table scan: the resolved source plus everything the optimizer has
/// pushed into it (predicates, an early-exit bound) and the access
/// method the cost pass decided on.
pub(crate) struct ScanNode<'a> {
    /// The resolved table (borrowed base table or owned per-statement
    /// virtual materialization).
    pub source: TableSource<'a>,
    /// Display name from the FROM clause (EXPLAIN uses this).
    pub table_name: String,
    /// Effective binding name (alias or table name).
    pub binding: String,
    /// Column names of the table, in schema order.
    pub columns: Vec<String>,
    /// Conjuncts the predicate-pushdown / limit-pushdown rules moved
    /// into the scan, evaluated on each row while scanning.
    pub pushed: Vec<Expr>,
    /// Early-exit bound from LIMIT pushdown: stop after this many
    /// matching rows.
    pub stop_after: Option<usize>,
    /// The physical access decision (set by [`super::cost`]).
    pub access: Access,
}

impl ScanNode<'_> {
    /// Single-binding layout of this scan's output.
    pub(crate) fn layout1(&self) -> Layout {
        Layout::single(self.binding.clone(), self.columns.clone())
    }
}

/// A planned SELECT's operators, in the fixed spine order.
pub(crate) struct Plan<'a> {
    /// The base scan, then each join's right side, in layout order.
    /// Empty for `SELECT` without FROM, which reads one empty row.
    pub scans: Vec<ScanNode<'a>>,
    /// One `(kind, ON)` per join: join `i` brings in `scans[i + 1]`.
    pub joins: Vec<(JoinKind, Option<Expr>)>,
    /// The residual WHERE, evaluated on the joined rows.
    pub filter: Option<Expr>,
    /// `(group_by, having)` when the statement aggregates.
    pub aggregate: Option<(Vec<Expr>, Option<Expr>)>,
    pub projections: Vec<Projection>,
    /// ORDER BY keys; empty when there is no sort (or it was elided).
    pub order_by: Vec<OrderItem>,
    pub distinct: bool,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
    /// The vectorized aggregate over column chunks, when the cost pass
    /// chose it; it then runs instead of the scans' row access.
    pub columnar: Option<Columnar>,
}

/// The layout of rows joined from `scans`, in order.
pub(crate) fn layout_of(scans: &[ScanNode<'_>]) -> Layout {
    Layout::new(
        scans
            .iter()
            .map(|s| (s.binding.clone(), s.columns.clone()))
            .collect(),
    )
}

/// A decided columnar aggregate: the compiled plan (its `fact` is the
/// fact scan's layout position) and the statistics EXPLAIN cites.
pub(crate) struct Columnar {
    pub plan: vector::ColumnarPlan,
    pub reason: String,
}

/// One fired rewrite, recorded for EXPLAIN's rule trail.
pub(crate) struct TrailEntry {
    pub rule: &'static str,
    pub detail: String,
}

/// A fully planned SELECT: the optimized plan plus the rule trail.
pub(crate) struct PlannedSelect<'a> {
    pub plan: Plan<'a>,
    pub trail: Vec<TrailEntry>,
    /// True when `PERFDMF_OPTIMIZER` (or a thread override) disabled
    /// every rewrite rule; EXPLAIN reports it.
    pub optimizer_off: bool,
}

fn scan_node<'a>(db: &'a Database, tref: &TableRef) -> Result<ScanNode<'a>> {
    let source = resolve_table(db, &tref.table)?;
    let columns: Vec<String> = source
        .schema
        .columns
        .iter()
        .map(|c| c.name.clone())
        .collect();
    Ok(ScanNode {
        source,
        table_name: tref.table.clone(),
        binding: tref.effective_name().to_string(),
        columns,
        pushed: Vec::new(),
        stop_after: None,
        access: Access::Seq,
    })
}

/// Lower a parsed `SELECT` into its plan. Validation that used to happen
/// mid-execution (duplicate bindings, `JOIN` without `ON`, aggregates in
/// WHERE) happens here, before any rows move.
pub(crate) fn lower<'a>(db: &'a Database, sel: &Select) -> Result<Plan<'a>> {
    let mut scans = Vec::with_capacity(sel.joins.len() + 1);
    let mut joins = Vec::with_capacity(sel.joins.len());
    if let Some(base) = &sel.from {
        scans.push(scan_node(db, base)?);
        for join in &sel.joins {
            let right = scan_node(db, &join.table)?;
            if scans
                .iter()
                .any(|s| s.binding.eq_ignore_ascii_case(&right.binding))
            {
                return Err(DbError::Unsupported(format!(
                    "duplicate table binding {:?} in FROM (use an alias)",
                    right.binding
                )));
            }
            if matches!(join.kind, JoinKind::Inner | JoinKind::Left) && join.on.is_none() {
                return Err(DbError::Unsupported("JOIN requires ON".into()));
            }
            scans.push(right);
            joins.push((join.kind, join.on.clone()));
        }
    }
    if sel
        .where_clause
        .as_ref()
        .is_some_and(Expr::contains_aggregate)
    {
        return Err(DbError::Eval("aggregates are not allowed in WHERE".into()));
    }
    let needs_aggregation = !sel.group_by.is_empty()
        || sel.having.is_some()
        || sel.projections.iter().any(|p| match p {
            Projection::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        });
    Ok(Plan {
        scans,
        joins,
        filter: sel.where_clause.clone(),
        aggregate: needs_aggregation.then(|| (sel.group_by.clone(), sel.having.clone())),
        projections: sel.projections.clone(),
        order_by: sel.order_by.clone(),
        distinct: sel.distinct,
        limit: sel.limit,
        offset: sel.offset,
        columnar: None,
    })
}
