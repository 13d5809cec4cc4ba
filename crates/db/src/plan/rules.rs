//! Rule-based plan rewrites, each independently toggleable.
//!
//! | rule                 | rewrite                                              |
//! |----------------------|------------------------------------------------------|
//! | `predicate-pushdown` | move single-table WHERE conjuncts into scans of a    |
//! |                      | join pipeline (base always; join right sides only    |
//! |                      | for INNER/CROSS — LEFT right sides would turn        |
//! |                      | filtered matches into NULL extensions); drop the     |
//! |                      | WHERE when every conjunct moved                      |
//! | `join-reorder`       | in an aggregate whose result ignores row order, an   |
//! |                      | index-selected scan drives (becomes the base) and    |
//! |                      | the other INNER joins follow smallest first, each    |
//! |                      | after every binding its qualified ON reads           |
//! | `sort-elision`       | `ORDER BY col ASC ... LIMIT` with an index on `col`  |
//! |                      | drops the Sort and scans in index key order          |
//! | `limit-pushdown`     | single-table `LIMIT` fuses the WHERE into the scan   |
//! |                      | and stops after OFFSET+LIMIT matches — never under a |
//! |                      | Sort unless sort-elision removed it first            |
//!
//! Every rewrite preserves the result multiset AND row order of the
//! unoptimized plan (float aggregate reassociation under join-reorder
//! excepted), which is what the differential oracle's optimizer legs
//! and the per-rule rewrite-equivalence suite check.
//!
//! Configuration: `PERFDMF_OPTIMIZER=off|0|false` disables every rule.
//! Tests pin a config per thread with [`override_for_thread`], which
//! shadows the variable; [`OptimizerConfig::without`] turns off one
//! rule by the names above.

use std::cell::Cell;
use std::sync::OnceLock;

use super::ir::{
    base_scan_mut, map_pipeline, pipeline_layout, pipeline_mut, LogicalPlan, ScanNode, TrailEntry,
};
use crate::exec::predicate::resolve_base_col;
use crate::exec::select::{
    collect_columns, conjuncts, decompose, grouped_only, index_candidates, refs_only_layout,
};
use crate::sql::ast::{BinaryOp, Expr, JoinKind, Projection};
use crate::value::Value;

/// Which rewrite rules run. `enabled: false` turns the optimizer off
/// wholesale (physical access selection — index and columnar — is not a
/// rewrite and stays active).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerConfig {
    pub enabled: bool,
    pub predicate_pushdown: bool,
    pub limit_pushdown: bool,
    pub sort_elision: bool,
    pub join_reorder: bool,
}

impl OptimizerConfig {
    /// Every rule on (the default).
    pub fn all_on() -> Self {
        OptimizerConfig {
            enabled: true,
            predicate_pushdown: true,
            limit_pushdown: true,
            sort_elision: true,
            join_reorder: true,
        }
    }

    /// No rewrites at all — the naive plan runs as lowered.
    pub fn disabled() -> Self {
        OptimizerConfig {
            enabled: false,
            predicate_pushdown: false,
            limit_pushdown: false,
            sort_elision: false,
            join_reorder: false,
        }
    }

    /// All rules on except the named one (rule names as in the module
    /// docs). Unknown names leave everything on.
    pub fn without(rule: &str) -> Self {
        let mut cfg = Self::all_on();
        match rule.trim() {
            "predicate-pushdown" => cfg.predicate_pushdown = false,
            "limit-pushdown" => cfg.limit_pushdown = false,
            "sort-elision" => cfg.sort_elision = false,
            "join-reorder" => cfg.join_reorder = false,
            _ => {}
        }
        cfg
    }

    /// `PERFDMF_OPTIMIZER`, read once per process.
    fn from_env() -> Self {
        static FROM_ENV: OnceLock<OptimizerConfig> = OnceLock::new();
        *FROM_ENV.get_or_init(
            || match std::env::var("PERFDMF_OPTIMIZER").ok().as_deref() {
                Some("off" | "0" | "false") => Self::disabled(),
                _ => Self::all_on(),
            },
        )
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self::all_on()
    }
}

thread_local! {
    static CONFIG_OVERRIDE: Cell<Option<OptimizerConfig>> = const { Cell::new(None) };
}

/// The effective optimizer configuration: a thread-local override if
/// set, else the environment.
pub fn optimizer_config() -> OptimizerConfig {
    CONFIG_OVERRIDE
        .with(|c| c.get())
        .unwrap_or_else(OptimizerConfig::from_env)
}

/// Force an optimizer configuration for the current thread until the
/// guard drops. The differential oracle and the rewrite-equivalence
/// suite use this to run the same query with rules on, off, and
/// individually disabled, in-process.
pub fn override_for_thread(cfg: OptimizerConfig) -> OptimizerOverrideGuard {
    let prev = CONFIG_OVERRIDE.with(|c| c.replace(Some(cfg)));
    OptimizerOverrideGuard { prev }
}

/// Restores the previous thread-local config on drop.
pub struct OptimizerOverrideGuard {
    prev: Option<OptimizerConfig>,
}

impl Drop for OptimizerOverrideGuard {
    fn drop(&mut self) {
        CONFIG_OVERRIDE.with(|c| c.set(self.prev));
    }
}

/// Run the enabled rules over a lowered plan, returning the rewritten
/// tree and the trail of fired rules.
pub(crate) fn optimize<'a>(
    root: LogicalPlan<'a>,
    cfg: &OptimizerConfig,
    params: &[Value],
    had_subqueries: bool,
) -> (LogicalPlan<'a>, Vec<TrailEntry>) {
    let mut trail = Vec::new();
    if !cfg.enabled {
        return (root, trail);
    }
    let mut root = root;
    if cfg.predicate_pushdown {
        root = predicate_pushdown(root, &mut trail);
    }
    if cfg.join_reorder {
        join_reorder(&mut root, params, &mut trail);
    }
    limit_rules(&mut root, cfg, had_subqueries, &mut trail);
    (root, trail)
}

// ---------------- predicate pushdown ----------------

/// Push single-table WHERE conjuncts of a join query into the scans
/// that own their columns. When every conjunct moved, the Filter goes:
/// conjuncts only enter the base and INNER/CROSS right sides, where
/// dropping a row early removes exactly the joined rows the WHERE would
/// have dropped. Otherwise the Filter keeps the full predicate.
fn predicate_pushdown<'a>(root: LogicalPlan<'a>, trail: &mut Vec<TrailEntry>) -> LogicalPlan<'a> {
    map_pipeline(root, &mut |pipe| {
        let LogicalPlan::Filter {
            mut input,
            predicate,
        } = pipe
        else {
            return pipe;
        };
        if !matches!(*input, LogicalPlan::Join { .. }) {
            // Single-table WHERE stays a residual filter, the plan the
            // golden EXPLAIN corpus pins; the filter pass and a pushed
            // conjunct both run serially.
            return LogicalPlan::Filter { input, predicate };
        }
        // A conjunct whose columns do not all resolve in the joined
        // layout (an ambiguous unqualified name) must still fail there.
        let joined = pipeline_layout(&input);
        let mut pushed: Vec<(String, usize)> = Vec::new();
        let mut note = |table: String| match pushed.iter_mut().find(|(t, _)| *t == table) {
            Some((_, n)) => *n += 1,
            None => pushed.push((table, 1)),
        };
        let mut residual = false;
        for c in conjuncts(&predicate) {
            residual |= !refs_only_layout(c, &joined);
            if let Some(base) = base_scan_mut(&mut input) {
                if refs_only_layout(c, &base.layout1()) {
                    let t = base.table_name.clone();
                    base.pushed.push(c.clone());
                    note(t);
                    continue;
                }
            }
            match try_push_right(&mut input, c) {
                Some(t) => note(t),
                None => residual = true,
            }
        }
        for (table, n) in pushed {
            trail.push(TrailEntry {
                rule: "predicate-pushdown",
                detail: format!("{n} conjunct(s) into scan of {table}"),
            });
        }
        if residual {
            LogicalPlan::Filter { input, predicate }
        } else {
            *input
        }
    })
}

/// Push one conjunct into the left-most INNER/CROSS join right scan
/// whose single-table layout resolves every column it references. LEFT
/// join right sides are never eligible: prefiltering them would turn
/// would-be-filtered matches into NULL extensions (visible to e.g.
/// `right.col IS NULL` in the residual WHERE).
fn try_push_right(node: &mut LogicalPlan<'_>, c: &Expr) -> Option<String> {
    match node {
        LogicalPlan::Join {
            left, right, kind, ..
        } => {
            if let Some(t) = try_push_right(left, c) {
                return Some(t);
            }
            if matches!(kind, JoinKind::Inner | JoinKind::Cross)
                && refs_only_layout(c, &right.layout1())
            {
                right.pushed.push(c.clone());
                return Some(right.table_name.clone());
            }
            None
        }
        _ => None,
    }
}

// ---------------- join reordering ----------------

/// Reorder the INNER joins of an aggregate whose result ignores row
/// order (see [`order_insensitive`]) to shrink intermediate row counts:
///
/// * a scan whose pushed conjuncts select through an index becomes the
///   driver (the base) when its candidate count is below the current
///   base's estimate — the base's own index candidates, else its live
///   rows;
/// * the other scans follow smallest first (table stats), each once
///   every binding its ON condition reads is placed.
///
/// Every ON column must be qualified with a binding the written order
/// already placed, so any permutation resolves names identically and
/// joins legally. An order that would hand one join two ON conditions
/// is not taken.
fn join_reorder(root: &mut LogicalPlan<'_>, params: &[Value], trail: &mut Vec<TrailEntry>) {
    if !order_insensitive(root) {
        return;
    }
    let pipe = match pipeline_mut(root) {
        LogicalPlan::Filter { input, .. } => &mut **input,
        other => other,
    };
    if !matches!(pipe, LogicalPlan::Join { .. }) {
        return;
    }
    let owned = std::mem::replace(pipe, LogicalPlan::Empty);
    let (base, joins) = flatten_joins(owned);
    *pipe = reorder_chain(base, joins, params, trail);
}

/// True when an aggregate tail's result does not depend on the order its
/// input rows arrive in (float reassociation aside): every column read
/// outside an aggregate — in projections, HAVING and ORDER BY — is a
/// GROUP BY expression, and ORDER BY sorts on every GROUP BY expression
/// (as a qualified column or a non-column expression, which no output
/// alias can shadow), so the groups come out in one total order.
fn order_insensitive(root: &LogicalPlan<'_>) -> bool {
    let tail = decompose(root);
    let Some((group_by, having)) = tail.aggregate else {
        return false; // no Aggregate in the tail: row order is the result
    };
    let grouped = |e: &Expr| grouped_only(e, group_by);
    let keys = tail.order_by;
    tail.projections
        .iter()
        .all(|p| matches!(p, Projection::Expr { expr, .. } if grouped(expr)))
        && having.is_none_or(grouped)
        && keys.iter().all(|k| grouped(&k.expr))
        && group_by.iter().all(|g| {
            !matches!(g, Expr::Column { table: None, .. }) && keys.iter().any(|k| k.expr == *g)
        })
}

type JoinPart<'a> = (JoinKind, Option<Expr>, Box<ScanNode<'a>>);

fn flatten_joins(node: LogicalPlan<'_>) -> (LogicalPlan<'_>, Vec<JoinPart<'_>>) {
    match node {
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let (base, mut v) = flatten_joins(*left);
            v.push((kind, on, right));
            (base, v)
        }
        other => (other, Vec::new()),
    }
}

fn rebuild_joins<'a>(base: LogicalPlan<'a>, joins: Vec<JoinPart<'a>>) -> LogicalPlan<'a> {
    let mut node = base;
    for (kind, on, right) in joins {
        node = LogicalPlan::Join {
            left: Box::new(node),
            right,
            kind,
            on,
        };
    }
    node
}

/// Index candidates selected by a scan's pushed conjuncts: (count,
/// index name), or `None` when no pushed conjunct uses an index.
fn index_selected(scan: &ScanNode<'_>, params: &[Value]) -> Option<(usize, String)> {
    let filter = scan.pushed.iter().cloned().reduce(|a, b| Expr::Binary {
        op: BinaryOp::And,
        left: Box::new(a),
        right: Box::new(b),
    })?;
    let layout1 = scan.layout1();
    let choice = index_candidates(&scan.source, &scan.binding, &layout1, Some(&filter), params);
    choice.ok()?.map(|c| (c.ids.len(), c.index_name))
}

fn reorder_chain<'a>(
    base: LogicalPlan<'a>,
    joins: Vec<JoinPart<'a>>,
    params: &[Value],
    trail: &mut Vec<TrailEntry>,
) -> LogicalPlan<'a> {
    let LogicalPlan::Scan(base) = base else {
        return rebuild_joins(base, joins);
    };
    let Some((first, steps, detail)) = new_order(&base, &joins, params) else {
        return rebuild_joins(LogicalPlan::Scan(base), joins);
    };
    trail.push(TrailEntry {
        rule: "join-reorder",
        detail,
    });
    let mut ons = Vec::new();
    let mut scans = vec![Some(base)];
    for (_, on, right) in joins {
        ons.push(on);
        scans.push(Some(right));
    }
    let mut driver = scans[first].take().expect("each scan moves once");
    if let Some(old_base) = scans[0].as_mut() {
        driver.index_filter = old_base.index_filter.take();
    }
    let steps = steps.into_iter().map(|(s, j)| {
        let scan = scans[s].take().expect("each scan moves once");
        (JoinKind::Inner, ons[j].take(), scan)
    });
    rebuild_joins(LogicalPlan::Scan(driver), steps.collect())
}

/// A reordered chain, indexing scans base first and ON conditions by
/// written join: the driver, then (scan, ON) steps, and the trail detail.
type Order = (usize, Vec<(usize, usize)>, String);

/// The chain's new order; `None` keeps the written order.
fn new_order(base: &ScanNode<'_>, joins: &[JoinPart<'_>], params: &[Value]) -> Option<Order> {
    let mut scans = vec![base];
    scans.extend(joins.iter().map(|(_, _, right)| &**right));
    let bindings: Vec<&str> = scans.iter().map(|s| s.binding.as_str()).collect();
    // The scans each ON reads: its own right side, and only bindings the
    // written order placed before it.
    let refs: Vec<Vec<usize>> = joins
        .iter()
        .enumerate()
        .map(|(i, (kind, on, _))| {
            let mut cols = Vec::new();
            collect_columns(on.as_ref()?, &mut cols);
            let refs: Vec<usize> = cols
                .iter()
                .map(|(t, _)| {
                    let t = (*t)?;
                    bindings[..=i + 1]
                        .iter()
                        .position(|b| b.eq_ignore_ascii_case(t))
                })
                .collect::<Option<_>>()?;
            (*kind == JoinKind::Inner && refs.contains(&(i + 1))).then_some(refs)
        })
        .collect::<Option<_>>()?;

    let base_rows = index_selected(base, params).map_or(base.source.len(), |(n, _)| n);
    let driver = (1..scans.len())
        .filter_map(|i| index_selected(scans[i], params).map(|(n, ix)| (i, n, ix)))
        .filter(|(_, n, _)| *n < base_rows)
        .min_by_key(|(_, n, _)| *n);
    let first = driver.as_ref().map_or(0, |(i, _, _)| *i);

    // Greedy: next comes the smallest scan that exactly one unused ON
    // joins to the scans already placed.
    let mut placed = vec![first];
    let mut steps: Vec<(usize, usize)> = Vec::new();
    while placed.len() < scans.len() {
        let step = (0..scans.len())
            .filter(|s| !placed.contains(s))
            .filter_map(|s| {
                let mut ready = (0..refs.len()).filter(|&j| {
                    steps.iter().all(|&(_, used)| used != j)
                        && refs[j].iter().all(|r| *r == s || placed.contains(r))
                });
                match (ready.next(), ready.next()) {
                    (Some(j), None) => Some((s, j)),
                    _ => None,
                }
            })
            .min_by_key(|(s, _)| scans[*s].source.len())?;
        placed.push(step.0);
        steps.push(step);
    }
    if placed.iter().enumerate().all(|(pos, &s)| pos == s) {
        return None; // already in order
    }
    let order = steps
        .iter()
        .map(|&(s, _)| format!("{}({})", scans[s].table_name, scans[s].source.len()))
        .collect::<Vec<_>>()
        .join(" ⋈ ");
    let detail = match driver {
        Some((i, n, ix)) => format!(
            "driver {} via {ix} ({n} candidate row(s) < {base_rows}), then {order} (table stats)",
            scans[i].table_name
        ),
        None => format!("smallest right side first: {order} (table stats)"),
    };
    Some((first, steps, detail))
}

// ---------------- LIMIT pushdown + sort elision ----------------

/// Top-k rewrites under a `Limit` node. Two shapes fire:
///
/// * `Limit(Project(Filter?(Scan)))` — the classic early exit: fuse the
///   WHERE into the scan and stop after OFFSET+LIMIT matches.
/// * `Limit(Sort(Project(Filter?(Scan))))` with a single ascending
///   bare-column key backed by an index — sort elision: drop the Sort,
///   scan in index key order, and early-exit as above. Without the
///   index the Sort blocks the pushdown (every row must be seen), which
///   is exactly the regression the plan-equivalence harness pins.
fn limit_rules(
    root: &mut LogicalPlan<'_>,
    cfg: &OptimizerConfig,
    had_subqueries: bool,
    trail: &mut Vec<TrailEntry>,
) {
    // EXPLAIN plans the unresolved statement, execution the resolved
    // one; skip whenever subqueries were present so both agree (the
    // pre-IR engine made the same call).
    if !cfg.limit_pushdown || had_subqueries {
        return;
    }
    let LogicalPlan::Limit {
        input,
        limit: Some(limit),
        offset,
    } = root
    else {
        return;
    };
    let take = (offset.unwrap_or(0) as usize).saturating_add(*limit as usize);
    match &mut **input {
        LogicalPlan::Project { input: pinput, .. } => {
            if let Some((scan, n_fused)) = fuse_filter_into_scan(pinput) {
                scan.stop_after = Some(take);
                trail.push(TrailEntry {
                    rule: "limit-pushdown",
                    detail: format!(
                        "{} early-exits after {take} match(es){}",
                        scan.table_name,
                        if n_fused > 0 {
                            format!(", {n_fused} WHERE conjunct(s) fused into the scan")
                        } else {
                            String::new()
                        }
                    ),
                });
            }
        }
        LogicalPlan::Sort { keys, .. } if cfg.sort_elision => {
            // Single ascending bare-column key only.
            let [key] = keys.as_slice() else { return };
            let key_col = match (&key.expr, key.descending) {
                (Expr::Column { column, .. }, false) => column.clone(),
                _ => return,
            };
            let saved_keys = keys.clone();
            let LogicalPlan::Sort { input: sinput, .. } =
                std::mem::replace(&mut **input, LogicalPlan::Empty)
            else {
                unreachable!("matched above");
            };
            **input = *sinput; // tentatively drop the Sort
            let restore = |input: &mut Box<LogicalPlan>, keys: Vec<crate::sql::ast::OrderItem>| {
                let inner = std::mem::replace(&mut **input, LogicalPlan::Empty);
                **input = LogicalPlan::Sort {
                    input: Box::new(inner),
                    keys,
                };
            };
            let LogicalPlan::Project {
                input: pinput,
                projections,
            } = &mut **input
            else {
                restore(input, saved_keys.clone());
                return;
            };
            // A projection alias with the key's name shadows the table
            // column in ORDER BY resolution; don't second-guess that.
            let shadowed = projections.iter().any(|p| {
                matches!(p, Projection::Expr { alias: Some(a), .. }
                         if a.eq_ignore_ascii_case(&key_col))
            });
            let index = (!shadowed)
                .then(|| match peel_filter(pinput) {
                    LogicalPlan::Scan(scan) => {
                        let col =
                            resolve_base_col(&saved_keys[0].expr, &scan.binding, &scan.layout1())?;
                        scan.source.index_on(col).map(|ix| ix.name.clone())
                    }
                    _ => None,
                })
                .flatten();
            let Some(index_name) = index else {
                restore(input, saved_keys.clone());
                return;
            };
            let Some((scan, n_fused)) = fuse_filter_into_scan(pinput) else {
                restore(input, saved_keys.clone());
                return;
            };
            scan.access = super::ir::Access::IndexOrder {
                index_name: index_name.clone(),
                column: key_col.clone(),
            };
            scan.stop_after = Some(take);
            let table = scan.table_name.clone();
            trail.push(TrailEntry {
                rule: "sort-elision",
                detail: format!(
                    "ORDER BY {key_col} satisfied by index {index_name} on {table}: \
                     Sort dropped, scanning in key order"
                ),
            });
            trail.push(TrailEntry {
                rule: "limit-pushdown",
                detail: format!(
                    "{table} early-exits after {take} match(es){}",
                    if n_fused > 0 {
                        format!(", {n_fused} WHERE conjunct(s) fused into the scan")
                    } else {
                        String::new()
                    }
                ),
            });
        }
        _ => {} // Sort without an index, Distinct, Aggregate: no early exit
    }
}

fn peel_filter<'p, 'a>(node: &'p mut LogicalPlan<'a>) -> &'p mut LogicalPlan<'a> {
    match node {
        LogicalPlan::Filter { input, .. } => input,
        other => other,
    }
}

/// If `node` is `Filter?(Scan)` over a single table, fuse the filter's
/// conjuncts into the scan (removing the Filter node) and return the
/// scan plus the number of fused conjuncts. The fused conjunction is
/// equivalent to the whole predicate because `conjuncts` splits on
/// top-level AND only.
fn fuse_filter_into_scan<'p, 'a>(
    node: &'p mut Box<LogicalPlan<'a>>,
) -> Option<(&'p mut ScanNode<'a>, usize)> {
    match &mut **node {
        LogicalPlan::Scan(_) => match &mut **node {
            LogicalPlan::Scan(s) => Some((s, 0)),
            _ => unreachable!(),
        },
        LogicalPlan::Filter { input, .. } if matches!(&**input, LogicalPlan::Scan(_)) => {
            let LogicalPlan::Filter { input, predicate } =
                std::mem::replace(&mut **node, LogicalPlan::Empty)
            else {
                unreachable!("matched above");
            };
            **node = *input;
            let LogicalPlan::Scan(s) = &mut **node else {
                unreachable!("matched above");
            };
            let fused: Vec<Expr> = conjuncts(&predicate).into_iter().cloned().collect();
            let n = fused.len();
            s.pushed.extend(fused);
            Some((s, n))
        }
        _ => None,
    }
}
