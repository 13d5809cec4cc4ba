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

use super::ir::{layout_of, Access, Plan, ScanNode, TrailEntry};
use crate::exec::predicate::resolve_base_col;
use crate::exec::select::{
    collect_columns, conjuncts, grouped_only, index_candidates, refs_only_layout,
};
use crate::sql::ast::{Expr, JoinKind, Projection};
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

/// Run the enabled rules over a lowered plan, rewriting it in place and
/// returning the trail of fired rules.
pub(crate) fn optimize(
    plan: &mut Plan<'_>,
    cfg: &OptimizerConfig,
    params: &[Value],
    had_subqueries: bool,
) -> Vec<TrailEntry> {
    let mut trail = Vec::new();
    if !cfg.enabled {
        return trail;
    }
    if cfg.predicate_pushdown {
        predicate_pushdown(plan, &mut trail);
    }
    if cfg.join_reorder {
        join_reorder(plan, params, &mut trail);
    }
    limit_rules(plan, cfg, had_subqueries, &mut trail);
    trail
}

// ---------------- predicate pushdown ----------------

/// Push single-table WHERE conjuncts of a join query into the scans
/// that own their columns. When every conjunct moved, the filter goes:
/// conjuncts only enter the base and INNER/CROSS right sides, where
/// dropping a row early removes exactly the joined rows the WHERE would
/// have dropped. Otherwise the filter keeps the full predicate.
///
/// A conjunct enters the base when it reads only the base, else the
/// left-most INNER/CROSS right side that resolves every column it reads.
/// LEFT join right sides are never eligible: prefiltering them would
/// turn would-be-filtered matches into NULL extensions (visible to e.g.
/// `right.col IS NULL` in the residual WHERE).
fn predicate_pushdown(plan: &mut Plan<'_>, trail: &mut Vec<TrailEntry>) {
    // Single-table WHERE stays a residual filter, the plan the golden
    // EXPLAIN corpus pins; the filter pass and a pushed conjunct both
    // run serially.
    let (Some(predicate), false) = (&plan.filter, plan.joins.is_empty()) else {
        return;
    };
    // A conjunct whose columns do not all resolve in the joined layout
    // (an ambiguous unqualified name) must still fail there.
    let joined = layout_of(&plan.scans);
    let mut pushed: Vec<(String, usize)> = Vec::new();
    let mut residual = false;
    for c in conjuncts(predicate) {
        residual |= !refs_only_layout(c, &joined);
        let eligible = |i: usize| i == 0 || plan.joins[i - 1].0 != JoinKind::Left;
        let Some(scan) = (0..plan.scans.len())
            .find(|&i| eligible(i) && refs_only_layout(c, &plan.scans[i].layout1()))
            .map(|i| &mut plan.scans[i])
        else {
            residual = true;
            continue;
        };
        scan.pushed.push(c.clone());
        match pushed.iter_mut().find(|(t, _)| *t == scan.table_name) {
            Some((_, n)) => *n += 1,
            None => pushed.push((scan.table_name.clone(), 1)),
        }
    }
    for (table, n) in pushed {
        trail.push(TrailEntry {
            rule: "predicate-pushdown",
            detail: format!("{n} conjunct(s) into scan of {table}"),
        });
    }
    if !residual {
        plan.filter = None;
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
fn join_reorder(plan: &mut Plan<'_>, params: &[Value], trail: &mut Vec<TrailEntry>) {
    if plan.joins.is_empty() || !order_insensitive(plan) {
        return;
    }
    let Some((first, steps, detail)) = new_order(plan, params) else {
        return;
    };
    trail.push(TrailEntry {
        rule: "join-reorder",
        detail,
    });
    let mut scans: Vec<Option<ScanNode<'_>>> = plan.scans.drain(..).map(Some).collect();
    let mut ons: Vec<Option<Expr>> = plan.joins.drain(..).map(|(_, on)| on).collect();
    let mut driver = scans[first].take().expect("each scan moves once");
    if let Some(old_base) = scans[0].as_mut() {
        driver.index_filter = old_base.index_filter.take();
    }
    plan.scans.push(driver);
    for (s, j) in steps {
        plan.scans
            .push(scans[s].take().expect("each scan moves once"));
        plan.joins.push((JoinKind::Inner, ons[j].take()));
    }
}

/// True when an aggregate's result does not depend on the order its
/// input rows arrive in (float reassociation aside): every column read
/// outside an aggregate — in projections, HAVING and ORDER BY — is a
/// GROUP BY expression, and ORDER BY sorts on every GROUP BY expression
/// (as a qualified column or a non-column expression, which no output
/// alias can shadow), so the groups come out in one total order.
fn order_insensitive(plan: &Plan<'_>) -> bool {
    let Some((group_by, having)) = &plan.aggregate else {
        return false; // no aggregate: row order is the result
    };
    let grouped = |e: &Expr| grouped_only(e, group_by);
    let keys = &plan.order_by;
    plan.projections
        .iter()
        .all(|p| matches!(p, Projection::Expr { expr, .. } if grouped(expr)))
        && having.as_ref().is_none_or(grouped)
        && keys.iter().all(|k| grouped(&k.expr))
        && group_by.iter().all(|g| {
            !matches!(g, Expr::Column { table: None, .. }) && keys.iter().any(|k| k.expr == *g)
        })
}

/// Index candidates selected by a scan's pushed conjuncts: (count,
/// index name), or `None` when no pushed conjunct uses an index.
fn index_selected(scan: &ScanNode<'_>, params: &[Value]) -> Option<(usize, String)> {
    let layout1 = scan.layout1();
    let choice = index_candidates(&scan.source, &scan.binding, &layout1, &scan.pushed, params);
    choice.ok()?.map(|c| (c.ids.len(), c.index_name))
}

/// A reordered chain, indexing scans base first and ON conditions by
/// written join: the driver, then (scan, ON) steps, and the trail detail.
type Order = (usize, Vec<(usize, usize)>, String);

/// The chain's new order; `None` keeps the written order.
fn new_order(plan: &Plan<'_>, params: &[Value]) -> Option<Order> {
    let scans = &plan.scans;
    let bindings: Vec<&str> = scans.iter().map(|s| s.binding.as_str()).collect();
    // The scans each ON reads: its own right side, and only bindings the
    // written order placed before it.
    let refs: Vec<Vec<usize>> = plan
        .joins
        .iter()
        .enumerate()
        .map(|(i, (kind, on))| {
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

    let base_rows = index_selected(&scans[0], params).map_or(scans[0].source.len(), |(n, _)| n);
    let driver = (1..scans.len())
        .filter_map(|i| index_selected(&scans[i], params).map(|(n, ix)| (i, n, ix)))
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

/// Top-k rewrites of a single-table `LIMIT` with no aggregate and no
/// DISTINCT. Two shapes fire:
///
/// * no ORDER BY — the classic early exit: fuse the WHERE into the scan
///   and stop after OFFSET+LIMIT matches.
/// * a single ascending bare-column ORDER BY key backed by an index —
///   sort elision: drop the sort, scan in index key order, and
///   early-exit as above. Without the index the sort blocks the
///   pushdown (every row must be seen), which is exactly the regression
///   the plan-equivalence harness pins.
fn limit_rules(
    plan: &mut Plan<'_>,
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
    let Some(limit) = plan.limit else { return };
    if plan.aggregate.is_some() || plan.distinct || plan.scans.len() != 1 {
        return; // Distinct, Aggregate or a join: no early exit
    }
    let take = (plan.offset.unwrap_or(0) as usize).saturating_add(limit as usize);
    let elided = match plan.order_by.as_slice() {
        [] => None,
        // Single ascending bare-column key only.
        [key] if cfg.sort_elision => {
            let Expr::Column { column, .. } = &key.expr else {
                return;
            };
            // A projection alias with the key's name shadows the table
            // column in ORDER BY resolution; don't second-guess that.
            let shadowed = plan.projections.iter().any(|p| {
                matches!(p, Projection::Expr { alias: Some(a), .. }
                         if a.eq_ignore_ascii_case(column))
            });
            let scan = &plan.scans[0];
            let index = resolve_base_col(&key.expr, &scan.binding, &scan.layout1())
                .and_then(|col| scan.source.index_on(col));
            match index {
                Some(ix) if !key.descending && !shadowed => Some((ix.name.clone(), column.clone())),
                _ => return,
            }
        }
        _ => return, // several keys, or sort elision off: the sort blocks it
    };
    let n_fused = plan.filter.take().map_or(0, |predicate| {
        let fused = conjuncts(&predicate);
        plan.scans[0]
            .pushed
            .extend(fused.iter().map(|&c| c.clone()));
        fused.len()
    });
    let scan = &mut plan.scans[0];
    scan.stop_after = Some(take);
    let table = scan.table_name.clone();
    if let Some((index_name, key_col)) = elided {
        plan.order_by.clear();
        trail.push(TrailEntry {
            rule: "sort-elision",
            detail: format!(
                "ORDER BY {key_col} satisfied by index {index_name} on {table}: \
                 Sort dropped, scanning in key order"
            ),
        });
        scan.access = Access::IndexOrder {
            index_name,
            column: key_col,
        };
    }
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
