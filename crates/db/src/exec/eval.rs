//! Expression evaluation against a row environment.
//!
//! SQL three-valued logic is represented by `Value::Null` flowing through
//! comparisons and boolean operators: a NULL condition is treated as *not
//! satisfied* by WHERE/HAVING/ON, matching standard SQL.

use crate::error::{DbError, Result};
use crate::sql::ast::{BinaryOp, Expr, UnaryOp};
use crate::table::Row;
use crate::value::Value;
use std::borrow::Cow;

/// Column layout of the row stream an expression is evaluated against.
///
/// Each *binding* is a table (or alias) with its column names. A row of
/// the stream is a tuple holding one base row per binding, so a column
/// resolves to a (binding, column) pair.
#[derive(Debug, Clone, Default)]
pub(crate) struct Layout {
    bindings: Vec<(String, Vec<String>)>,
}

impl Layout {
    /// Build a layout from `(binding_name, column_names)` pairs.
    pub(crate) fn new(bindings: Vec<(String, Vec<String>)>) -> Self {
        Layout { bindings }
    }

    /// Single-binding layout.
    pub(crate) fn single(name: impl Into<String>, columns: Vec<String>) -> Self {
        Layout::new(vec![(name.into(), columns)])
    }

    /// Bindings (table name/alias → column list).
    pub(crate) fn bindings(&self) -> &[(String, Vec<String>)] {
        &self.bindings
    }

    /// Position of a binding, by case-insensitive name.
    pub(crate) fn binding_index(&self, name: &str) -> Option<usize> {
        self.bindings
            .iter()
            .position(|(b, _)| b.eq_ignore_ascii_case(name))
    }

    /// Resolve a column reference to `(binding, column)`.
    pub(crate) fn resolve(&self, table: Option<&str>, column: &str) -> Result<(usize, usize)> {
        let find = |cols: &[String]| cols.iter().position(|c| c.eq_ignore_ascii_case(column));
        match table {
            Some(t) => {
                let b = self
                    .binding_index(t)
                    .ok_or_else(|| DbError::NoSuchTable(t.to_string()))?;
                find(&self.bindings[b].1)
                    .map(|c| (b, c))
                    .ok_or_else(|| DbError::NoSuchColumn {
                        table: t.to_string(),
                        column: column.to_string(),
                    })
            }
            None => {
                let mut found = None;
                for (b, (_, cols)) in self.bindings.iter().enumerate() {
                    if let Some(c) = find(cols) {
                        if found.is_some() {
                            return Err(DbError::AmbiguousColumn(column.to_string()));
                        }
                        found = Some((b, c));
                    }
                }
                found.ok_or_else(|| DbError::NoSuchColumn {
                    table: self
                        .bindings
                        .first()
                        .map(|(b, _)| b.clone())
                        .unwrap_or_default(),
                    column: column.to_string(),
                })
            }
        }
    }

    /// Bind every column reference in `expr` to its [`Expr::Slot`]. This
    /// is where the executor resolves names: once per statement, before
    /// any row is read, so an unknown or ambiguous column fails whatever
    /// the tables hold.
    pub(crate) fn bind(&self, expr: &Expr) -> Result<Expr> {
        match expr {
            Expr::Column { table, column } => {
                let (binding, column) = self.resolve(table.as_deref(), column)?;
                Ok(Expr::Slot { binding, column })
            }
            other => other.try_map_children(|c| self.bind(c)),
        }
    }
}

static NULL: Value = Value::Null;

/// Evaluation context: the current row tuple and bound parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Env<'a> {
    /// One base row per binding of the layout the expression was bound
    /// against; `None` (a LEFT-join miss) reads as NULL.
    pub row: &'a [Option<&'a Row>],
    /// Bound `?` parameters.
    pub params: &'a [Value],
}

impl<'a> Env<'a> {
    /// Construct an environment.
    pub(crate) fn new(row: &'a [Option<&'a Row>], params: &'a [Value]) -> Self {
        Env { row, params }
    }

    /// The value in a bound slot, borrowed from its base row.
    pub(crate) fn slot(&self, binding: usize, column: usize) -> &'a Value {
        self.row[binding].map_or(&NULL, |r| &r[column])
    }
}

/// Evaluate an expression, borrowing the value when it is a bound column.
pub(crate) fn eval_ref<'a>(expr: &Expr, env: &Env<'a>) -> Result<Cow<'a, Value>> {
    match expr {
        Expr::Slot { binding, column } => Ok(Cow::Borrowed(env.slot(*binding, *column))),
        _ => eval(expr, env).map(Cow::Owned),
    }
}

/// Evaluate an expression whose columns were bound by [`Layout::bind`].
/// Aggregate nodes are an error here — the grouped executor substitutes
/// them with literals before calling this.
pub(crate) fn eval(expr: &Expr, env: &Env<'_>) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(i) => env
            .params
            .get(*i)
            .cloned()
            .ok_or(DbError::MissingParameter(*i)),
        Expr::Slot { binding, column } => Ok(env.slot(*binding, *column).clone()),
        Expr::Column { column, .. } => Err(DbError::Eval(format!(
            "column {column} was not bound before evaluation"
        ))),
        Expr::Unary { op, operand } => {
            let v = eval(operand, env)?;
            match op {
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(DbError::Eval(format!("cannot negate {other}"))),
                },
                UnaryOp::Not => match v {
                    Value::Null => Ok(Value::Null),
                    other => match other.as_bool() {
                        Some(b) => Ok(Value::Bool(!b)),
                        None => Err(DbError::Eval(format!("NOT of non-boolean {other}"))),
                    },
                },
            }
        }
        Expr::Binary { op, left, right } => eval_binary(*op, left, right, env),
        Expr::IsNull { operand, negated } => {
            let v = eval_ref(operand, env)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::InList {
            operand,
            list,
            negated,
        } => {
            let v = eval_ref(operand, env)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval_ref(item, env)?;
                match v.sql_eq(&w) {
                    Some(true) => return Ok(Value::Bool(!*negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Between {
            operand,
            low,
            high,
            negated,
        } => {
            let v = eval_ref(operand, env)?;
            let lo = eval_ref(low, env)?;
            let hi = eval_ref(high, env)?;
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => {
                    let inside = a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                    Ok(Value::Bool(inside != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::Aggregate { func, .. } => Err(DbError::Eval(format!(
            "aggregate {} used outside of an aggregating query",
            func.name()
        ))),
        Expr::InSubquery { .. } | Expr::ScalarSubquery(_) | Expr::Exists { .. } => Err(
            DbError::Eval("subquery was not resolved before evaluation".into()),
        ),
        Expr::Function { name, args } => eval_function(name, args, env),
        Expr::Case {
            branches,
            else_branch,
        } => {
            for (cond, value) in branches {
                if eval(cond, env)?.as_bool() == Some(true) {
                    return eval(value, env);
                }
            }
            match else_branch {
                Some(e) => eval(e, env),
                None => Ok(Value::Null),
            }
        }
    }
}

/// Evaluate a condition for WHERE/HAVING/ON: NULL counts as false.
pub(crate) fn eval_condition(expr: &Expr, env: &Env<'_>) -> Result<bool> {
    Ok(eval_ref(expr, env)?.as_bool() == Some(true))
}

fn eval_binary(op: BinaryOp, left: &Expr, right: &Expr, env: &Env<'_>) -> Result<Value> {
    // Short-circuiting three-valued AND/OR.
    match op {
        BinaryOp::And => {
            let l = eval(left, env)?;
            if l.as_bool() == Some(false) {
                return Ok(Value::Bool(false));
            }
            let r = eval(right, env)?;
            return Ok(match (l.as_bool(), r.as_bool()) {
                (Some(true), Some(true)) => Value::Bool(true),
                (_, Some(false)) => Value::Bool(false),
                _ => Value::Null,
            });
        }
        BinaryOp::Or => {
            let l = eval(left, env)?;
            if l.as_bool() == Some(true) {
                return Ok(Value::Bool(true));
            }
            let r = eval(right, env)?;
            return Ok(match (l.as_bool(), r.as_bool()) {
                (Some(false), Some(false)) => Value::Bool(false),
                (_, Some(true)) => Value::Bool(true),
                _ => Value::Null,
            });
        }
        _ => {}
    }
    let l = eval_ref(left, env)?;
    let r = eval_ref(right, env)?;
    match op {
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            arithmetic(op, &l, &r)
        }
        BinaryOp::Eq => Ok(tri(l.sql_eq(&r))),
        BinaryOp::NotEq => Ok(tri(l.sql_eq(&r).map(|b| !b))),
        BinaryOp::Lt => Ok(tri(l.sql_cmp(&r).map(|o| o == std::cmp::Ordering::Less))),
        BinaryOp::LtEq => Ok(tri(l.sql_cmp(&r).map(|o| o != std::cmp::Ordering::Greater))),
        BinaryOp::Gt => Ok(tri(l.sql_cmp(&r).map(|o| o == std::cmp::Ordering::Greater))),
        BinaryOp::GtEq => Ok(tri(l.sql_cmp(&r).map(|o| o != std::cmp::Ordering::Less))),
        BinaryOp::Like => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let text = l
                .as_text()
                .ok_or_else(|| DbError::Eval("LIKE requires text operands".into()))?;
            let pat = r
                .as_text()
                .ok_or_else(|| DbError::Eval("LIKE requires text pattern".into()))?;
            Ok(Value::Bool(like_match(text, pat)))
        }
        BinaryOp::Concat => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Text(format!("{l}{r}").into()))
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

fn tri(v: Option<bool>) -> Value {
    match v {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

fn arithmetic(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Integer arithmetic when both are ints (except division, which is
    // float like most analytics engines expect for AVG-style math).
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        match op {
            BinaryOp::Add => return Ok(Value::Int(a.wrapping_add(*b))),
            BinaryOp::Sub => return Ok(Value::Int(a.wrapping_sub(*b))),
            BinaryOp::Mul => return Ok(Value::Int(a.wrapping_mul(*b))),
            BinaryOp::Mod => {
                if *b == 0 {
                    return Err(DbError::Eval("modulo by zero".into()));
                }
                return Ok(Value::Int(a % b));
            }
            _ => {}
        }
    }
    let a = l
        .as_float()
        .ok_or_else(|| DbError::Eval(format!("non-numeric operand {l}")))?;
    let b = r
        .as_float()
        .ok_or_else(|| DbError::Eval(format!("non-numeric operand {r}")))?;
    let out = match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        BinaryOp::Div => {
            if b == 0.0 {
                return Err(DbError::Eval("division by zero".into()));
            }
            a / b
        }
        BinaryOp::Mod => {
            if b == 0.0 {
                return Err(DbError::Eval("modulo by zero".into()));
            }
            a % b
        }
        _ => unreachable!(),
    };
    Ok(Value::Float(out))
}

/// SQL LIKE with `%` (any run) and `_` (any single char). Case-sensitive.
pub(crate) fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|k| rec(&t[k..], rest)),
            Some(('_', rest)) => match t.split_first() {
                Some((_, t_rest)) => rec(t_rest, rest),
                None => false,
            },
            Some((c, rest)) => match t.split_first() {
                Some((tc, t_rest)) if tc == c => rec(t_rest, rest),
                _ => false,
            },
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

fn eval_function(name: &str, args: &[Expr], env: &Env<'_>) -> Result<Value> {
    let vals: Vec<Value> = args.iter().map(|a| eval(a, env)).collect::<Result<_>>()?;
    let need = |n: usize| -> Result<()> {
        if vals.len() == n {
            Ok(())
        } else {
            Err(DbError::Arity {
                expected: n,
                got: vals.len(),
            })
        }
    };
    let numeric1 = |f: fn(f64) -> f64| -> Result<Value> {
        need(1)?;
        if vals[0].is_null() {
            return Ok(Value::Null);
        }
        vals[0]
            .as_float()
            .map(|x| Value::Float(f(x)))
            .ok_or_else(|| DbError::Eval(format!("{name} of non-numeric {}", vals[0])))
    };
    match name {
        "abs" => {
            need(1)?;
            match &vals[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(DbError::Eval(format!("abs of non-numeric {other}"))),
            }
        }
        "sqrt" => numeric1(f64::sqrt),
        "ln" => numeric1(f64::ln),
        "log" | "log10" => numeric1(f64::log10),
        "log2" => numeric1(f64::log2),
        "exp" => numeric1(f64::exp),
        "floor" => numeric1(f64::floor),
        "ceil" | "ceiling" => numeric1(f64::ceil),
        "round" => {
            if vals.len() == 2 {
                let x = vals[0]
                    .as_float()
                    .ok_or_else(|| DbError::Eval("round of non-numeric".into()))?;
                let d = vals[1]
                    .as_int()
                    .ok_or_else(|| DbError::Eval("round digits must be integer".into()))?;
                let m = 10f64.powi(d as i32);
                Ok(Value::Float((x * m).round() / m))
            } else {
                numeric1(f64::round)
            }
        }
        "power" | "pow" => {
            need(2)?;
            if vals[0].is_null() || vals[1].is_null() {
                return Ok(Value::Null);
            }
            let a = vals[0]
                .as_float()
                .ok_or_else(|| DbError::Eval("power of non-numeric".into()))?;
            let b = vals[1]
                .as_float()
                .ok_or_else(|| DbError::Eval("power of non-numeric".into()))?;
            Ok(Value::Float(a.powf(b)))
        }
        "lower" => {
            need(1)?;
            match &vals[0] {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Text(v.to_string().to_lowercase().into())),
            }
        }
        "upper" => {
            need(1)?;
            match &vals[0] {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Text(v.to_string().to_uppercase().into())),
            }
        }
        "length" => {
            need(1)?;
            match &vals[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
                v => Ok(Value::Int(v.to_string().chars().count() as i64)),
            }
        }
        "trim" => {
            need(1)?;
            match &vals[0] {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Text(v.to_string().trim().to_string().into())),
            }
        }
        "substr" | "substring" => {
            if vals.len() < 2 || vals.len() > 3 {
                return Err(DbError::Arity {
                    expected: 2,
                    got: vals.len(),
                });
            }
            if vals[0].is_null() {
                return Ok(Value::Null);
            }
            let s = vals[0].to_string();
            let chars: Vec<char> = s.chars().collect();
            // SQL substr is 1-based.
            let start = vals[1]
                .as_int()
                .ok_or_else(|| DbError::Eval("substr start must be integer".into()))?;
            let start = (start.max(1) - 1) as usize;
            let len = match vals.get(2) {
                Some(v) => v
                    .as_int()
                    .ok_or_else(|| DbError::Eval("substr length must be integer".into()))?
                    .max(0) as usize,
                None => chars.len().saturating_sub(start),
            };
            let out: String = chars.iter().skip(start).take(len).collect();
            Ok(Value::Text(out.into()))
        }
        "coalesce" => {
            for v in &vals {
                if !v.is_null() {
                    return Ok(v.clone());
                }
            }
            Ok(Value::Null)
        }
        "nullif" => {
            need(2)?;
            if vals[0].sql_eq(&vals[1]) == Some(true) {
                Ok(Value::Null)
            } else {
                Ok(vals[0].clone())
            }
        }
        "cast_integer" | "cast_int" | "cast_bigint" => {
            need(1)?;
            vals[0]
                .coerce(crate::value::DataType::Integer)
                .ok_or_else(|| DbError::Eval(format!("cannot cast {} to INTEGER", vals[0])))
        }
        "cast_double" | "cast_float" | "cast_real" => {
            need(1)?;
            vals[0]
                .coerce(crate::value::DataType::Double)
                .ok_or_else(|| DbError::Eval(format!("cannot cast {} to DOUBLE", vals[0])))
        }
        "cast_text" | "cast_varchar" | "cast_string" => {
            need(1)?;
            vals[0]
                .coerce(crate::value::DataType::Text)
                .ok_or_else(|| DbError::Eval(format!("cannot cast {} to TEXT", vals[0])))
        }
        "cast_boolean" | "cast_bool" => {
            need(1)?;
            vals[0]
                .coerce(crate::value::DataType::Boolean)
                .ok_or_else(|| DbError::Eval(format!("cannot cast {} to BOOLEAN", vals[0])))
        }
        other => Err(DbError::Unsupported(format!("unknown function {other}()"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::{Projection, Statement};
    use crate::sql::parser::parse_statement;

    /// Evaluate a scalar SQL expression with no row context.
    fn eval_sql(expr_sql: &str) -> Result<Value> {
        let stmt = parse_statement(&format!("SELECT {expr_sql}")).unwrap();
        let expr = match stmt {
            Statement::Select(sel) => match sel.projections.into_iter().next().unwrap() {
                Projection::Expr { expr, .. } => expr,
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        };
        eval(&Layout::default().bind(&expr)?, &Env::new(&[], &[]))
    }

    #[test]
    fn arithmetic_rules() {
        assert_eq!(eval_sql("1 + 2 * 3").unwrap(), Value::Int(7));
        assert_eq!(eval_sql("7 / 2").unwrap(), Value::Float(3.5));
        assert_eq!(eval_sql("7 % 3").unwrap(), Value::Int(1));
        assert_eq!(eval_sql("-(3 - 5)").unwrap(), Value::Int(2));
        assert_eq!(eval_sql("1.5 + 1").unwrap(), Value::Float(2.5));
        assert!(eval_sql("1 / 0").is_err());
        assert!(eval_sql("1 % 0").is_err());
    }

    #[test]
    fn null_propagation() {
        assert_eq!(eval_sql("NULL + 1").unwrap(), Value::Null);
        assert_eq!(eval_sql("NULL = NULL").unwrap(), Value::Null);
        assert_eq!(eval_sql("NULL IS NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval_sql("1 IS NOT NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval_sql("NOT NULL").unwrap(), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(eval_sql("FALSE AND NULL").unwrap(), Value::Bool(false));
        assert_eq!(eval_sql("TRUE AND NULL").unwrap(), Value::Null);
        assert_eq!(eval_sql("TRUE OR NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval_sql("FALSE OR NULL").unwrap(), Value::Null);
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_sql("1 < 2").unwrap(), Value::Bool(true));
        assert_eq!(eval_sql("2 <= 2").unwrap(), Value::Bool(true));
        assert_eq!(eval_sql("'abc' < 'abd'").unwrap(), Value::Bool(true));
        assert_eq!(eval_sql("2 <> 3").unwrap(), Value::Bool(true));
        assert_eq!(eval_sql("2.0 = 2").unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_and_between() {
        assert_eq!(eval_sql("2 IN (1, 2, 3)").unwrap(), Value::Bool(true));
        assert_eq!(eval_sql("5 IN (1, 2)").unwrap(), Value::Bool(false));
        assert_eq!(eval_sql("5 NOT IN (1, 2)").unwrap(), Value::Bool(true));
        assert_eq!(eval_sql("5 IN (1, NULL)").unwrap(), Value::Null);
        assert_eq!(eval_sql("2 BETWEEN 1 AND 3").unwrap(), Value::Bool(true));
        assert_eq!(
            eval_sql("0 NOT BETWEEN 1 AND 3").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_sql("NULL BETWEEN 1 AND 3").unwrap(), Value::Null);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("MPI_Send()", "MPI%"));
        assert!(like_match("MPI_Send()", "%Send%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("x", ""));
        assert!(like_match("a%b", "a%b"));
        assert_eq!(eval_sql("'main' LIKE 'm%'").unwrap(), Value::Bool(true));
        assert_eq!(eval_sql("'main' NOT LIKE 'z%'").unwrap(), Value::Bool(true));
    }

    #[test]
    fn concat_and_strings() {
        assert_eq!(
            eval_sql("'a' || 'b' || 1").unwrap(),
            Value::Text("ab1".into())
        );
        assert_eq!(eval_sql("LOWER('MPI')").unwrap(), Value::Text("mpi".into()));
        assert_eq!(eval_sql("UPPER('mpi')").unwrap(), Value::Text("MPI".into()));
        assert_eq!(eval_sql("LENGTH('hello')").unwrap(), Value::Int(5));
        assert_eq!(eval_sql("TRIM('  x ')").unwrap(), Value::Text("x".into()));
        assert_eq!(
            eval_sql("SUBSTR('abcdef', 2, 3)").unwrap(),
            Value::Text("bcd".into())
        );
        assert_eq!(
            eval_sql("SUBSTR('abcdef', 3)").unwrap(),
            Value::Text("cdef".into())
        );
    }

    #[test]
    fn math_functions() {
        assert_eq!(eval_sql("ABS(-3)").unwrap(), Value::Int(3));
        assert_eq!(eval_sql("SQRT(9)").unwrap(), Value::Float(3.0));
        assert_eq!(eval_sql("FLOOR(2.7)").unwrap(), Value::Float(2.0));
        assert_eq!(eval_sql("CEIL(2.1)").unwrap(), Value::Float(3.0));
        assert_eq!(eval_sql("ROUND(2.567, 2)").unwrap(), Value::Float(2.57));
        assert_eq!(eval_sql("POWER(2, 10)").unwrap(), Value::Float(1024.0));
    }

    #[test]
    fn coalesce_nullif_case_cast() {
        assert_eq!(eval_sql("COALESCE(NULL, NULL, 7)").unwrap(), Value::Int(7));
        assert_eq!(eval_sql("COALESCE(NULL)").unwrap(), Value::Null);
        assert_eq!(eval_sql("NULLIF(1, 1)").unwrap(), Value::Null);
        assert_eq!(eval_sql("NULLIF(1, 2)").unwrap(), Value::Int(1));
        assert_eq!(
            eval_sql("CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' ELSE 'c' END").unwrap(),
            Value::Text("b".into())
        );
        assert_eq!(eval_sql("CASE WHEN FALSE THEN 1 END").unwrap(), Value::Null);
        assert_eq!(eval_sql("CAST('42' AS INTEGER)").unwrap(), Value::Int(42));
        assert_eq!(
            eval_sql("CAST(42 AS TEXT)").unwrap(),
            Value::Text("42".into())
        );
    }

    #[test]
    fn column_resolution() {
        let layout = Layout::new(vec![
            ("t".into(), vec!["id".into(), "name".into()]),
            ("e".into(), vec!["id".into(), "kind".into()]),
        ]);
        assert_eq!(layout.resolve(Some("e"), "kind").unwrap(), (1, 1));
        assert_eq!(layout.resolve(None, "name").unwrap(), (0, 1));
        assert!(matches!(
            layout.resolve(None, "id"),
            Err(DbError::AmbiguousColumn(_))
        ));
        assert!(layout.resolve(Some("x"), "id").is_err());
        assert!(layout.resolve(Some("t"), "zzz").is_err());
        assert_eq!(layout.binding_index("E"), Some(1));
        // Binding fails on a bad name before any row exists.
        assert!(matches!(
            layout.bind(&Expr::col("zzz")),
            Err(DbError::NoSuchColumn { .. })
        ));
        assert!(matches!(
            layout.bind(&Expr::col("id")),
            Err(DbError::AmbiguousColumn(_))
        ));
    }

    /// A bound slot read from a row tuple equals the value at the same
    /// column's offset in the flattened row (the bindings' rows
    /// concatenated, a missing binding NULL-filled), for layouts of one
    /// to four bindings with every pattern of LEFT-join misses.
    #[test]
    fn slot_reads_match_flattened_rows() {
        let widths = [3usize, 1, 4, 2];
        for n in 1..=widths.len() {
            let bindings: Vec<(String, Vec<String>)> = (0..n)
                .map(|b| {
                    // `k` repeats in every binding (qualified reads only);
                    // `c{b}_{i}` is unique (unqualified reads too).
                    let mut cols = vec!["k".to_string()];
                    cols.extend((1..widths[b]).map(|i| format!("c{b}_{i}")));
                    (format!("t{b}"), cols)
                })
                .collect();
            let layout = Layout::new(bindings.clone());
            let rows: Vec<Row> = (0..n)
                .map(|b| {
                    (0..widths[b])
                        .map(|i| Value::Int((10 * b + i) as i64))
                        .collect()
                })
                .collect();
            for misses in 0..(1u32 << n) {
                let tuple: Vec<Option<&Row>> = (0..n)
                    .map(|b| (misses & (1 << b) == 0).then_some(&rows[b]))
                    .collect();
                let mut flat: Vec<Value> = Vec::new();
                for (b, row) in tuple.iter().enumerate() {
                    match row {
                        Some(r) => flat.extend(r.iter().cloned()),
                        None => flat.extend(vec![Value::Null; widths[b]]),
                    }
                }
                let env = Env::new(&tuple, &[]);
                let mut offset = 0;
                for (b, (name, cols)) in bindings.iter().enumerate() {
                    for (i, col) in cols.iter().enumerate() {
                        let mut refs = vec![Expr::Column {
                            table: Some(name.to_uppercase()),
                            column: col.clone(),
                        }];
                        if i > 0 || n == 1 {
                            refs.push(Expr::col(col));
                        }
                        for e in refs {
                            let bound = layout.bind(&e).unwrap();
                            assert_eq!(
                                bound,
                                Expr::Slot {
                                    binding: b,
                                    column: i
                                }
                            );
                            let want = &flat[offset + i];
                            assert_eq!(&eval(&bound, &env).unwrap(), want, "{e:?}");
                            assert_eq!(eval_ref(&bound, &env).unwrap().as_ref(), want);
                            if tuple[b].is_none() {
                                assert!(want.is_null());
                            }
                        }
                    }
                    offset += cols.len();
                }
            }
        }
    }

    #[test]
    fn params() {
        let params = vec![Value::Int(5)];
        let env = Env::new(&[], &params);
        assert_eq!(eval(&Expr::Param(0), &env).unwrap(), Value::Int(5));
        assert!(matches!(
            eval(&Expr::Param(1), &env),
            Err(DbError::MissingParameter(1))
        ));
    }

    #[test]
    fn aggregate_outside_grouping_is_error() {
        assert!(eval_sql("SUM(1)").is_err());
    }
}
