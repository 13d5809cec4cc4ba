//! Compiled WHERE conjuncts: one column test, two evaluators.
//!
//! A conjunct that tests one base-table column against constants
//! (column vs. constant, BETWEEN, IN list, IS NULL, or a star join's key
//! set) is matched once per statement by [`column_test`] into a
//! [`ColumnTest`], with every constant bound. The test is then
//! evaluated without walking the expression tree:
//!
//! * on rows, by [`ColumnTest::matches`] on the one slot it reads, with
//!   `Value::sql_eq`/`sql_cmp` exactly as `eval` compares;
//! * on column chunks, by the word kernels of `exec::vector`, 64 rows
//!   per selection word.
//!
//! Index selection reads the same test ([`super::select::index_choice`]).
//! Conjuncts of any other shape, and tests whose parameter is missing,
//! stay expressions and go through `eval`, so their errors are unchanged.

use super::eval::{eval_ref, Env, Layout};
use super::vector::KeySet;
use crate::error::Result;
use crate::sql::ast::{BinaryOp, Expr};
use crate::table::Row;
use crate::value::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// Comparison operator of a column test, on the row path's total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PredOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl PredOp {
    /// The comparison operators; `None` for any other binary operator.
    fn from_binary(op: BinaryOp) -> Option<PredOp> {
        Some(match op {
            BinaryOp::Eq => PredOp::Eq,
            BinaryOp::NotEq => PredOp::Ne,
            BinaryOp::Lt => PredOp::Lt,
            BinaryOp::LtEq => PredOp::Le,
            BinaryOp::Gt => PredOp::Gt,
            BinaryOp::GtEq => PredOp::Ge,
            _ => return None,
        })
    }

    /// The operator that reads the same with its operands swapped.
    fn flipped(self) -> PredOp {
        match self {
            PredOp::Lt => PredOp::Gt,
            PredOp::Le => PredOp::Ge,
            PredOp::Gt => PredOp::Lt,
            PredOp::Ge => PredOp::Le,
            op => op,
        }
    }

    /// Whether `ord` (column vs. constant) passes.
    #[inline]
    fn test(self, ord: Ordering) -> bool {
        match self {
            PredOp::Eq => ord == Ordering::Equal,
            PredOp::Ne => ord != Ordering::Equal,
            PredOp::Lt => ord == Ordering::Less,
            PredOp::Le => ord != Ordering::Greater,
            PredOp::Gt => ord == Ordering::Greater,
            PredOp::Ge => ord != Ordering::Less,
        }
    }
}

/// A WHERE conjunct that tests one base-table column against constants,
/// as matched by [`column_test`].
#[derive(Debug, Clone)]
pub(crate) struct ColumnTest {
    /// Offset of the tested column in the base layout.
    pub col: usize,
    pub kind: TestKind,
}

/// The shape of a [`ColumnTest`], with every constant bound.
#[derive(Debug, Clone)]
pub(crate) enum TestKind {
    /// `col op value`: already flipped when the constant was written
    /// first, and `value` is never NULL.
    Cmp { op: PredOp, value: Value },
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
    /// `col` holds one of a dimension's primary keys: the equi-join of a
    /// star, with the dimension's predicates evaluated once into the set.
    /// Built by the planner, never matched from a conjunct; the column is
    /// an INTEGER foreign key, so its values are integers or NULL.
    KeySet(Arc<KeySet>),
}

impl ColumnTest {
    /// The row evaluator: the truth of the conjunct on a row whose tested
    /// column holds `v`, `None` for NULL. Equal to `eval` of the conjunct
    /// on that row.
    #[inline]
    pub(crate) fn matches(&self, v: &Value) -> Option<bool> {
        match &self.kind {
            TestKind::Cmp { op, value } => v.sql_cmp(value).map(|o| op.test(o)),
            TestKind::Between { low, high, negated } => match (v.sql_cmp(low), v.sql_cmp(high)) {
                (Some(a), Some(b)) => {
                    Some((a != Ordering::Less && b != Ordering::Greater) != *negated)
                }
                _ => None,
            },
            TestKind::InList { items, negated } => {
                if v.is_null() {
                    return None;
                }
                let mut saw_null = false;
                for w in items {
                    match v.sql_eq(w) {
                        Some(true) => return Some(!*negated),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                (!saw_null).then_some(*negated)
            }
            TestKind::IsNull { negated } => Some(v.is_null() != *negated),
            TestKind::KeySet(keys) => Some(matches!(v, Value::Int(k) if keys.contains(*k))),
        }
    }
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
            let op = PredOp::from_binary(*op)?;
            let (col, op, value) = match (col(left), val(right)) {
                (Some(c), Some(v)) => (c, op, v),
                _ => (col(right)?, op.flipped(), val(left)?),
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

/// One pushed conjunct of a scan, compiled for row evaluation.
pub(crate) enum Conjunct {
    /// A column test, read from its one slot.
    Typed(ColumnTest),
    /// Any other conjunct, bound to the base layout for `eval`.
    Eval(Expr),
}

/// Compile a scan's pushed conjuncts, in order. Binding fails on the
/// first unknown or ambiguous column, before any row is read.
pub(crate) fn compile_pushed<'e>(
    pushed: impl IntoIterator<Item = &'e Expr>,
    binding: &str,
    layout1: &Layout,
    params: &[Value],
) -> Result<Vec<Conjunct>> {
    pushed
        .into_iter()
        .map(|c| {
            Ok(match column_test(c, binding, layout1, params) {
                Some(test) => Conjunct::Typed(test),
                None => Conjunct::Eval(layout1.bind(c)?),
            })
        })
        .collect()
}

/// Evaluate a scan's compiled pushed conjuncts against one of its rows
/// as `eval` evaluates their `AND`: stop at the first FALSE, and go on
/// past a NULL (so a later conjunct's error still surfaces), which then
/// rejects the row.
pub(crate) fn pushed_match(pushed: &[Conjunct], row: &Row, params: &[Value]) -> Result<bool> {
    let mut all_true = true;
    for c in pushed {
        let truth = match c {
            Conjunct::Typed(test) => test.matches(&row[test.col]),
            Conjunct::Eval(e) => eval_ref(e, &Env::new(&[Some(row)], params))?.as_bool(),
        };
        match truth {
            Some(true) => {}
            Some(false) => return Ok(false),
            None => all_true = false,
        }
    }
    Ok(all_true)
}
