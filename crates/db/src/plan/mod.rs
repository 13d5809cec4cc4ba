//! Plan IR, rule-based optimizer, and physical access selection for
//! SELECT execution.
//!
//! Pipeline (entry point [`plan_select`]):
//!
//! 1. [`ir::lower`] turns a parsed `Select` into one flat [`ir::Plan`]:
//!    the scans, joins, residual filter and tail operators as fields.
//! 2. [`rules::optimize`] applies the enabled rewrite rules (predicate
//!    pushdown, join reordering, sort elision, LIMIT pushdown),
//!    recording a trail of what fired.
//! 3. [`cost::decide_access`] picks each scan's physical access method
//!    (index / index-order / seq, or an index probe for a join's right
//!    side) and whether the aggregate runs columnar, from table and
//!    index statistics. This runs even with the optimizer off.
//!
//! The executor and the EXPLAIN renderer in `exec::select` both read
//! the resulting [`ir::PlannedSelect`], so the printed plan cannot
//! drift from what actually runs. Plan-build and rewrite timings feed
//! the `db.plan.*` telemetry counters (queryable through the
//! `perfdmf_counters` system table).

pub(crate) mod cost;
pub(crate) mod ir;
pub(crate) mod rules;

pub use rules::{optimizer_config, override_for_thread, OptimizerConfig, OptimizerOverrideGuard};

use crate::database::Database;
use crate::error::Result;
use crate::sql::ast::Select;
use crate::value::Value;
use perfdmf_telemetry as telemetry;

/// Lower, optimize, and access-annotate a SELECT.
///
/// `had_subqueries` reports whether the *original* statement contained
/// subqueries (the executor plans the resolved statement, EXPLAIN the
/// unresolved one; gating rules on this shared flag keeps their plan
/// shapes identical).
pub(crate) fn plan_select<'a>(
    db: &'a Database,
    sel: &Select,
    params: &[Value],
    had_subqueries: bool,
) -> Result<ir::PlannedSelect<'a>> {
    let t0 = std::time::Instant::now();
    let mut plan = ir::lower(db, sel)?;
    telemetry::add("db.plan.builds", 1);
    telemetry::add("db.plan.build_ns", elapsed_ns(t0));

    let cfg = rules::optimizer_config();
    let t1 = std::time::Instant::now();
    let trail = rules::optimize(&mut plan, &cfg, params, had_subqueries);
    cost::decide_access(&mut plan, params, had_subqueries)?;
    telemetry::add("db.plan.rewrite_ns", elapsed_ns(t1));
    telemetry::add("db.plan.rules_fired", trail.len() as u64);

    Ok(ir::PlannedSelect {
        plan,
        trail,
        optimizer_off: !cfg.enabled,
    })
}

fn elapsed_ns(t0: std::time::Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}
