//! The logical-plan IR: an explicit operator tree lowered from a parsed
//! `SELECT`, rewritten by the rule-based optimizer ([`super::rules`]),
//! annotated with a physical access decision per scan ([`super::cost`]),
//! and finally walked by the executor and EXPLAIN renderer.
//!
//! The tree is left-deep: the right side of every [`LogicalPlan::Join`]
//! is a [`ScanNode`], mirroring the executor's accumulate-left join
//! pipeline. Lowering produces the canonical operator order
//!
//! ```text
//! Limit ( Distinct ( Sort ( Project ( [Aggregate] ( [Filter] ( joins/Scan ))))))
//! ```
//!
//! with optional nodes present only when the query uses them. Rules
//! rewrite the tree in place (fusing filters into scans, eliding sorts,
//! reordering joins) but never change that spine ordering, so the
//! executor can decompose the tail with simple pattern matches.

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
    /// — which is what lets the sort-elision rule remove the Sort node.
    IndexOrder { index_name: String, column: String },
    /// Vectorized aggregate kernels over column chunks; carries the
    /// compiled plan plus the statistics that justified it.
    Columnar {
        plan: Box<vector::ColumnarPlan>,
        reason: String,
    },
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
    /// The full WHERE clause as the base scan's index-selection hint
    /// (join-reorder hands it to a new driver). This is not a rewrite:
    /// index selection is a physical access decision and stays active
    /// even with the optimizer off, matching the pre-IR engine.
    pub index_filter: Option<Expr>,
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

/// The logical plan tree.
pub(crate) enum LogicalPlan<'a> {
    /// `SELECT` without FROM: one empty row.
    Empty,
    Scan(Box<ScanNode<'a>>),
    Join {
        left: Box<LogicalPlan<'a>>,
        right: Box<ScanNode<'a>>,
        kind: JoinKind,
        on: Option<Expr>,
    },
    Filter {
        input: Box<LogicalPlan<'a>>,
        predicate: Expr,
    },
    Aggregate {
        input: Box<LogicalPlan<'a>>,
        group_by: Vec<Expr>,
        having: Option<Expr>,
    },
    Project {
        input: Box<LogicalPlan<'a>>,
        projections: Vec<Projection>,
    },
    Distinct {
        input: Box<LogicalPlan<'a>>,
    },
    Sort {
        input: Box<LogicalPlan<'a>>,
        keys: Vec<OrderItem>,
    },
    Limit {
        input: Box<LogicalPlan<'a>>,
        limit: Option<u64>,
        offset: Option<u64>,
    },
}

/// One fired rewrite, recorded for EXPLAIN's rule trail.
pub(crate) struct TrailEntry {
    pub rule: &'static str,
    pub detail: String,
}

/// A fully planned SELECT: the optimized tree plus the rule trail.
pub(crate) struct PlannedSelect<'a> {
    pub root: LogicalPlan<'a>,
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
        index_filter: None,
        pushed: Vec::new(),
        stop_after: None,
        access: Access::Seq,
    })
}

/// Lower a parsed `SELECT` into the canonical plan tree. Validation that
/// used to happen mid-execution (duplicate bindings, `JOIN` without
/// `ON`, aggregates in WHERE) now happens here, before any rows move.
pub(crate) fn lower<'a>(db: &'a Database, sel: &Select) -> Result<LogicalPlan<'a>> {
    let mut node = match &sel.from {
        None => LogicalPlan::Empty,
        Some(base) => {
            let base_scan = scan_node(db, base)?;
            let mut bindings = vec![base_scan.binding.clone()];
            let mut node = LogicalPlan::Scan(Box::new(base_scan));
            for join in &sel.joins {
                let right = scan_node(db, &join.table)?;
                if bindings
                    .iter()
                    .any(|b| b.eq_ignore_ascii_case(&right.binding))
                {
                    return Err(DbError::Unsupported(format!(
                        "duplicate table binding {:?} in FROM (use an alias)",
                        right.binding
                    )));
                }
                if matches!(join.kind, JoinKind::Inner | JoinKind::Left) && join.on.is_none() {
                    return Err(DbError::Unsupported("JOIN requires ON".into()));
                }
                bindings.push(right.binding.clone());
                node = LogicalPlan::Join {
                    left: Box::new(node),
                    right: Box::new(right),
                    kind: join.kind,
                    on: join.on.clone(),
                };
            }
            node
        }
    };
    if let Some(pred) = &sel.where_clause {
        if pred.contains_aggregate() {
            return Err(DbError::Eval("aggregates are not allowed in WHERE".into()));
        }
        // Index selection consults the whole WHERE; record it on the
        // base scan before the Filter node hides it.
        if let Some(scan) = base_scan_mut(&mut node) {
            scan.index_filter = Some(pred.clone());
        }
        node = LogicalPlan::Filter {
            input: Box::new(node),
            predicate: pred.clone(),
        };
    }
    let needs_aggregation = !sel.group_by.is_empty()
        || sel.having.is_some()
        || sel.projections.iter().any(|p| match p {
            Projection::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        });
    if needs_aggregation {
        node = LogicalPlan::Aggregate {
            input: Box::new(node),
            group_by: sel.group_by.clone(),
            having: sel.having.clone(),
        };
    }
    node = LogicalPlan::Project {
        input: Box::new(node),
        projections: sel.projections.clone(),
    };
    if !sel.order_by.is_empty() {
        node = LogicalPlan::Sort {
            input: Box::new(node),
            keys: sel.order_by.clone(),
        };
    }
    if sel.distinct {
        node = LogicalPlan::Distinct {
            input: Box::new(node),
        };
    }
    if sel.limit.is_some() || sel.offset.is_some() {
        node = LogicalPlan::Limit {
            input: Box::new(node),
            limit: sel.limit,
            offset: sel.offset,
        };
    }
    Ok(node)
}

/// The left-most (base) scan of a plan, if any. Walks through the
/// operator tail and down the left spine of the join chain.
pub(crate) fn base_scan_mut<'p, 'a>(node: &'p mut LogicalPlan<'a>) -> Option<&'p mut ScanNode<'a>> {
    match node {
        LogicalPlan::Scan(s) => Some(s),
        LogicalPlan::Join { left, .. } => base_scan_mut(left),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => base_scan_mut(input),
        LogicalPlan::Empty => None,
    }
}

/// The scan/join/filter pipeline below the operator tail.
pub(crate) fn pipeline_mut<'p, 'a>(node: &'p mut LogicalPlan<'a>) -> &'p mut LogicalPlan<'a> {
    match node {
        LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => pipeline_mut(input),
        other => other,
    }
}

/// The scans of a join pipeline in layout order: the base, then each
/// join's right side.
pub(crate) fn pipeline_scans<'p, 'a>(node: &'p LogicalPlan<'a>) -> Vec<&'p ScanNode<'a>> {
    match node {
        LogicalPlan::Scan(s) => vec![s],
        LogicalPlan::Join { left, right, .. } => {
            let mut scans = pipeline_scans(left);
            scans.push(right);
            scans
        }
        LogicalPlan::Filter { input, .. } => pipeline_scans(input),
        _ => Vec::new(),
    }
}

/// [`pipeline_scans`], mutably.
pub(crate) fn pipeline_scans_mut<'p, 'a>(
    node: &'p mut LogicalPlan<'a>,
) -> Vec<&'p mut ScanNode<'a>> {
    match node {
        LogicalPlan::Scan(s) => vec![s],
        LogicalPlan::Join { left, right, .. } => {
            let mut scans = pipeline_scans_mut(left);
            scans.push(right);
            scans
        }
        LogicalPlan::Filter { input, .. } => pipeline_scans_mut(input),
        _ => Vec::new(),
    }
}

/// The layout of a join pipeline's output rows.
pub(crate) fn pipeline_layout(node: &LogicalPlan<'_>) -> Layout {
    match node {
        LogicalPlan::Scan(s) => s.layout1(),
        LogicalPlan::Join { left, right, .. } => {
            let mut bindings = pipeline_layout(left).bindings().to_vec();
            bindings.push((right.binding.clone(), right.columns.clone()));
            Layout::new(bindings)
        }
        LogicalPlan::Filter { input, .. } => pipeline_layout(input),
        _ => Default::default(),
    }
}

/// Apply `f` to the pipeline subtree (everything below the
/// Limit/Distinct/Sort/Project/Aggregate tail), rebuilding the tail
/// around the result.
pub(crate) fn map_pipeline<'a>(
    node: LogicalPlan<'a>,
    f: &mut impl FnMut(LogicalPlan<'a>) -> LogicalPlan<'a>,
) -> LogicalPlan<'a> {
    match node {
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => LogicalPlan::Limit {
            input: Box::new(map_pipeline(*input, f)),
            limit,
            offset,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(map_pipeline(*input, f)),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(map_pipeline(*input, f)),
            keys,
        },
        LogicalPlan::Project { input, projections } => LogicalPlan::Project {
            input: Box::new(map_pipeline(*input, f)),
            projections,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            having,
        } => LogicalPlan::Aggregate {
            input: Box::new(map_pipeline(*input, f)),
            group_by,
            having,
        },
        pipeline => f(pipeline),
    }
}
