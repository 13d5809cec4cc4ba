//! SQL abstract syntax tree.

use crate::schema::ColumnDef;
use crate::value::Value;

/// A full SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `EXPLAIN [ANALYZE] <statement>` — describe the execution plan;
    /// with `ANALYZE`, execute the statement and annotate each plan line
    /// with actual rows, partitions used, and wall time.
    Explain {
        statement: Box<Statement>,
        analyze: bool,
    },
    Select(Select),
    Insert(Insert),
    Update(Update),
    Delete(Delete),
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
        if_not_exists: bool,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    AlterTableAddColumn {
        table: String,
        column: ColumnDef,
    },
    AlterTableDropColumn {
        table: String,
        column: String,
    },
    CreateIndex {
        name: String,
        table: String,
        column: String,
        unique: bool,
    },
    DropIndex {
        name: String,
    },
    Begin,
    Commit,
    Rollback,
}

/// SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub projections: Vec<Projection>,
    /// FROM clause; empty for scalar SELECTs like `SELECT 1+1`.
    pub from: Option<TableRef>,
    pub joins: Vec<Join>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

/// A projected output column.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `*`
    Wildcard,
    /// `t.*`
    TableWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// A table reference with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// Name this table is addressed by in the query.
    pub(crate) fn effective_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// Join types supported by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Cross,
}

/// One JOIN clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub kind: JoinKind,
    pub table: TableRef,
    /// ON condition (absent for CROSS JOIN).
    pub on: Option<Expr>,
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub descending: bool,
}

/// INSERT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: String,
    /// Explicit column list; empty means "all columns in order".
    pub columns: Vec<String>,
    /// One or more value tuples.
    pub rows: Vec<Vec<Expr>>,
}

/// UPDATE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    pub table: String,
    pub assignments: Vec<(String, Expr)>,
    pub where_clause: Option<Expr>,
}

/// DELETE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    pub table: String,
    pub where_clause: Option<Expr>,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Like,
    Concat,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateFn {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    /// Sample standard deviation (n-1 denominator), matching common DBMS
    /// `STDDEV`.
    StdDev,
}

impl AggregateFn {
    /// Parse an aggregate function name.
    pub fn parse(name: &str) -> Option<AggregateFn> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggregateFn::Count),
            "SUM" => Some(AggregateFn::Sum),
            "AVG" | "MEAN" => Some(AggregateFn::Avg),
            "MIN" => Some(AggregateFn::Min),
            "MAX" => Some(AggregateFn::Max),
            "STDDEV" | "STDDEV_SAMP" | "STD" => Some(AggregateFn::StdDev),
            _ => None,
        }
    }

    /// Canonical display name.
    pub fn name(&self) -> &'static str {
        match self {
            AggregateFn::Count => "COUNT",
            AggregateFn::Sum => "SUM",
            AggregateFn::Avg => "AVG",
            AggregateFn::Min => "MIN",
            AggregateFn::Max => "MAX",
            AggregateFn::StdDev => "STDDEV",
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// `?` positional parameter (0-based ordinal).
    Param(usize),
    /// Column reference, optionally qualified: `[table.]column`.
    Column {
        table: Option<String>,
        column: String,
    },
    /// A column bound to its place in the executor's row tuple: column
    /// `column` of the base row in entry `binding`. The parser never
    /// produces it; `Layout::bind` turns every [`Expr::Column`] into one
    /// before rows are read.
    Slot {
        binding: usize,
        column: usize,
    },
    Unary {
        op: UnaryOp,
        operand: Box<Expr>,
    },
    Binary {
        op: BinaryOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        operand: Box<Expr>,
        negated: bool,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        operand: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)` — uncorrelated subquery, resolved to
    /// an `InList` before evaluation.
    InSubquery {
        operand: Box<Expr>,
        select: Box<Select>,
        negated: bool,
    },
    /// `(SELECT ...)` in scalar position — uncorrelated, must yield one
    /// column; resolved to a literal (first row's value, NULL if empty).
    ScalarSubquery(Box<Select>),
    /// `[NOT] EXISTS (SELECT ...)` — uncorrelated; resolved to a boolean.
    Exists {
        select: Box<Select>,
        negated: bool,
    },
    /// `expr BETWEEN lo AND hi`.
    Between {
        operand: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// Aggregate call. `arg` is `None` for `COUNT(*)`.
    Aggregate {
        func: AggregateFn,
        arg: Option<Box<Expr>>,
        distinct: bool,
    },
    /// Scalar function call (ABS, LOWER, COALESCE, ...).
    Function {
        name: String,
        args: Vec<Expr>,
    },
    /// `CASE WHEN c THEN v [WHEN ...] [ELSE e] END`.
    Case {
        branches: Vec<(Expr, Expr)>,
        else_branch: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Column reference shorthand.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            table: None,
            column: name.to_ascii_lowercase(),
        }
    }

    /// Literal shorthand.
    #[cfg(test)]
    pub(crate) fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// True if `f` holds for some direct child, trying the children in
    /// source order and stopping at the first hit. This and
    /// [`Expr::try_map_children`] are the only walks that list every
    /// variant; tree analyses recurse through them and match only the
    /// variants they treat specially. A subquery body is a separate
    /// statement, not a child: `IN (SELECT ...)` has its operand as its
    /// one child, scalar and `EXISTS` subqueries none.
    pub(crate) fn any_child<'a>(&'a self, mut f: impl FnMut(&'a Expr) -> bool) -> bool {
        match self {
            Expr::Literal(_)
            | Expr::Param(_)
            | Expr::Column { .. }
            | Expr::Slot { .. }
            | Expr::ScalarSubquery(_)
            | Expr::Exists { .. } => false,
            Expr::Unary { operand, .. }
            | Expr::IsNull { operand, .. }
            | Expr::InSubquery { operand, .. } => f(operand),
            Expr::Binary { left, right, .. } => f(left) || f(right),
            Expr::InList { operand, list, .. } => f(operand) || list.iter().any(f),
            Expr::Between {
                operand, low, high, ..
            } => f(operand) || f(low) || f(high),
            Expr::Aggregate { arg, .. } => arg.as_deref().is_some_and(f),
            Expr::Function { args, .. } => args.iter().any(f),
            Expr::Case {
                branches,
                else_branch,
            } => {
                branches.iter().any(|(c, v)| f(c) || f(v)) || else_branch.as_deref().is_some_and(f)
            }
        }
    }

    /// Call `f` on every direct child.
    pub(crate) fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        self.any_child(|c| {
            f(c);
            false
        });
    }

    /// Rebuild this node with each direct child replaced by `f(child)`,
    /// visiting the children [`Expr::any_child`] visits, in the
    /// same order. Everything else (operators, names, subquery bodies) is
    /// copied.
    pub(crate) fn try_map_children<E>(
        &self,
        mut f: impl FnMut(&Expr) -> Result<Expr, E>,
    ) -> Result<Expr, E> {
        Ok(match self {
            Expr::Literal(_)
            | Expr::Param(_)
            | Expr::Column { .. }
            | Expr::Slot { .. }
            | Expr::ScalarSubquery(_)
            | Expr::Exists { .. } => self.clone(),
            Expr::Unary { op, operand } => Expr::Unary {
                op: *op,
                operand: Box::new(f(operand)?),
            },
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(f(left)?),
                right: Box::new(f(right)?),
            },
            Expr::IsNull { operand, negated } => Expr::IsNull {
                operand: Box::new(f(operand)?),
                negated: *negated,
            },
            Expr::InList {
                operand,
                list,
                negated,
            } => Expr::InList {
                operand: Box::new(f(operand)?),
                list: list.iter().map(&mut f).collect::<Result<_, E>>()?,
                negated: *negated,
            },
            Expr::InSubquery {
                operand,
                select,
                negated,
            } => Expr::InSubquery {
                operand: Box::new(f(operand)?),
                select: select.clone(),
                negated: *negated,
            },
            Expr::Between {
                operand,
                low,
                high,
                negated,
            } => Expr::Between {
                operand: Box::new(f(operand)?),
                low: Box::new(f(low)?),
                high: Box::new(f(high)?),
                negated: *negated,
            },
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => Expr::Aggregate {
                func: *func,
                arg: arg.as_deref().map(|a| f(a).map(Box::new)).transpose()?,
                distinct: *distinct,
            },
            Expr::Function { name, args } => Expr::Function {
                name: name.clone(),
                args: args.iter().map(&mut f).collect::<Result<_, E>>()?,
            },
            Expr::Case {
                branches,
                else_branch,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((f(c)?, f(v)?)))
                    .collect::<Result<_, E>>()?,
                else_branch: else_branch
                    .as_deref()
                    .map(|e| f(e).map(Box::new))
                    .transpose()?,
            },
        })
    }

    /// True if this expression (sub)tree contains an aggregate call.
    pub(crate) fn contains_aggregate(&self) -> bool {
        matches!(self, Expr::Aggregate { .. }) || self.any_child(Expr::contains_aggregate)
    }

    /// Display name used for an unaliased projection of this expression.
    pub(crate) fn default_name(&self) -> String {
        match self {
            Expr::Column { column, .. } => column.clone(),
            Expr::Aggregate { func, arg, .. } => match arg {
                None => format!("{}(*)", func.name()),
                Some(a) => format!("{}({})", func.name(), a.default_name()),
            },
            Expr::Function { name, .. } => name.to_ascii_lowercase(),
            Expr::Literal(v) => v.to_string(),
            _ => "expr".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse_statement;
    use std::convert::Infallible;

    #[test]
    fn child_walks_cover_every_variant() {
        // One expression of every variant (a new variant belongs here),
        // with its number of direct children.
        let cases = [
            ("1", 0),
            ("?", 0),
            ("a", 0),
            ("-a", 1),
            ("a + 1", 2),
            ("a IS NOT NULL", 1),
            ("a IN (1, ?)", 3),
            ("a IN (SELECT b FROM z WHERE b > a)", 1),
            ("(SELECT b FROM z)", 0),
            ("EXISTS (SELECT b FROM z)", 0),
            ("a BETWEEN 1 AND a + 2", 3),
            ("COUNT(*)", 0),
            ("SUM(DISTINCT a)", 1),
            ("COALESCE(a, 1)", 2),
            ("CASE WHEN a THEN 1 WHEN b THEN a ELSE 0 END", 5),
        ];
        let mut variants = Vec::new();
        for (sql, children) in cases {
            let Ok(Statement::Select(sel)) = parse_statement(&format!("SELECT {sql} FROM t"))
            else {
                panic!("{sql}");
            };
            let Projection::Expr { expr, .. } = &sel.projections[0] else {
                panic!("{sql}");
            };
            variants.push(std::mem::discriminant(expr));
            let mut visited = Vec::new();
            expr.for_each_child(|c| visited.push(c.clone()));
            assert_eq!(visited.len(), children, "{expr:?}");
            // The identity map rebuilds an equal tree, passing the
            // children the traversal visits, in the same order.
            let mut mapped = Vec::new();
            let Ok(copy) = expr.try_map_children(|c| {
                mapped.push(c.clone());
                Ok::<_, Infallible>(c.clone())
            });
            assert_eq!(&copy, expr);
            assert_eq!(mapped, visited, "{expr:?}");
            // A replacing map reaches every child.
            let Ok(zeroed) = expr.try_map_children(|_| Ok::<_, Infallible>(Expr::lit(0)));
            let mut after = Vec::new();
            zeroed.for_each_child(|c| after.push(c.clone()));
            assert_eq!(after, vec![Expr::lit(0); children], "{sql}");
        }
        // The executor-only bound column has no SQL spelling.
        let slot = Expr::Slot {
            binding: 0,
            column: 0,
        };
        assert!(!slot.any_child(|_| true));
        let Ok(copy) = slot.try_map_children(|_| Ok::<_, Infallible>(Expr::lit(0)));
        assert_eq!(copy, slot);
        variants.push(std::mem::discriminant(&slot));
        variants.dedup();
        assert_eq!(variants.len(), 15, "every variant once, aggregates twice");
    }
}
