//! Statement execution.

pub(crate) mod aggregate;
pub(crate) mod eval;
pub(crate) mod hash;
pub(crate) mod predicate;
pub(crate) mod select;
pub(crate) mod vector;

use crate::database::Database;
use crate::error::{DbError, Result};
use crate::schema::TableSchema;
use crate::sql::ast::{Expr, Select, Statement};
use crate::table::{Row, RowId, Table};
use crate::value::Value;
use eval::{Env, Layout};

/// A query result: column names plus rows of values.
///
/// Also carries execution provenance (`rows_scanned`, `elapsed`) filled
/// in by the SELECT executor. Provenance is advisory — it does not
/// participate in equality, so result sets compare by visible data only.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    /// Output column names, in projection order.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
    /// Rows the scan and joins passed on from base tables (after index
    /// pruning, before WHERE filtering); a selectivity denominator.
    pub rows_scanned: u64,
    /// Wall-clock time spent executing the SELECT.
    pub elapsed: std::time::Duration,
}

impl PartialEq for ResultSet {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns && self.rows == other.rows
    }
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a column by (case-insensitive) name.
    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Value at `(row, column-name)`.
    pub fn get(&self, row: usize, column: &str) -> Option<&Value> {
        let ci = self.column_index(column)?;
        self.rows.get(row).and_then(|r| r.get(ci))
    }

    /// First value of the first row — convenient for scalar queries like
    /// `SELECT COUNT(*) ...`.
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }

    /// Render as an aligned text table (for CLI tools and examples).
    pub fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// Outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// SELECT produced rows.
    Rows(ResultSet),
    /// DML affected this many rows. For INSERT into a table with an
    /// AUTO_INCREMENT key, `last_insert_id` carries the last generated id.
    Affected {
        count: usize,
        last_insert_id: Option<i64>,
    },
    /// DDL or transaction-control statement completed.
    Done,
}

impl Outcome {
    /// The rows of a SELECT.
    pub fn rows(self) -> Result<ResultSet> {
        match self {
            Outcome::Rows(rs) => Ok(rs),
            _ => Err(DbError::Unsupported(
                "query() requires a SELECT statement".into(),
            )),
        }
    }

    /// The rows a statement affected (0 for DDL and transaction control).
    pub fn affected(self) -> Result<usize> {
        match self {
            Outcome::Affected { count, .. } => Ok(count),
            Outcome::Done => Ok(0),
            Outcome::Rows(_) => Err(DbError::Unsupported(
                "update() cannot run a SELECT statement".into(),
            )),
        }
    }

    /// The AUTO_INCREMENT id an INSERT generated, if any.
    pub fn last_insert_id(self) -> Result<Option<i64>> {
        match self {
            Outcome::Affected { last_insert_id, .. } => Ok(last_insert_id),
            _ => Err(DbError::Unsupported(
                "insert() requires an INSERT statement".into(),
            )),
        }
    }
}

/// Execute a parsed statement with bound parameters.
///
/// Statement-level atomicity: on error, any partial effects are rolled
/// back; on success outside an explicit transaction, effects are committed
/// (autocommit).
pub(crate) fn execute(db: &mut Database, stmt: &Statement, params: &[Value]) -> Result<Outcome> {
    db.atomically(|db| execute_inner(db, stmt, params))
}

/// `EXPLAIN [ANALYZE]` of a SELECT. It only reads, so callers may hold
/// the read lock.
pub(crate) fn explain_select(
    db: &Database,
    sel: &Select,
    params: &[Value],
    analyze: bool,
) -> Result<Outcome> {
    Ok(plan_rows(if analyze {
        select::explain_analyze_select(db, sel, params)?
    } else {
        select::explain_select(db, sel, params)?
    }))
}

/// Plan lines as the one-column `plan` result of an EXPLAIN.
fn plan_rows(lines: Vec<String>) -> Outcome {
    Outcome::Rows(ResultSet {
        columns: vec!["plan".to_string()],
        rows: lines
            .into_iter()
            .map(|l| vec![Value::Text(l.into())])
            .collect(),
        ..ResultSet::default()
    })
}

fn execute_inner(db: &mut Database, stmt: &Statement, params: &[Value]) -> Result<Outcome> {
    match stmt {
        Statement::Explain { statement, analyze } => {
            let line = match (statement.as_ref(), *analyze) {
                (Statement::Select(sel), _) => return explain_select(db, sel, params, *analyze),
                (other, false) => describe_statement(other),
                (other, true) => {
                    // EXPLAIN ANALYZE of DML/DDL executes the statement for
                    // real (PostgreSQL semantics) and annotates the plan
                    // description with measured effects.
                    let started = std::time::Instant::now();
                    let affected = execute_inner(db, other, params)?.affected().unwrap_or(0);
                    let elapsed_ms =
                        started.elapsed().as_nanos().min(u64::MAX as u128) as f64 / 1e6;
                    format!(
                        "{} [actual rows_affected={affected}, {elapsed_ms:.3}ms]",
                        describe_statement(other)
                    )
                }
            };
            Ok(plan_rows(vec![line]))
        }
        Statement::Select(sel) => Ok(Outcome::Rows(select::execute_select(db, sel, params)?)),
        Statement::Insert(ins) => {
            crate::introspect::check_dml_name(&ins.table)?;
            let (count, last) = execute_insert(db, ins, params)?;
            Ok(Outcome::Affected {
                count,
                last_insert_id: last,
            })
        }
        Statement::Update(upd) => {
            crate::introspect::check_dml_name(&upd.table)?;
            let count = execute_update(db, upd, params)?;
            Ok(Outcome::Affected {
                count,
                last_insert_id: None,
            })
        }
        Statement::Delete(del) => {
            crate::introspect::check_dml_name(&del.table)?;
            let count = execute_delete(db, del, params)?;
            Ok(Outcome::Affected {
                count,
                last_insert_id: None,
            })
        }
        Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        } => {
            let schema = TableSchema::new(name.clone(), columns.clone())?;
            db.create_table(schema, *if_not_exists)?;
            Ok(Outcome::Done)
        }
        Statement::DropTable { name, if_exists } => {
            db.drop_table(name, *if_exists)?;
            Ok(Outcome::Done)
        }
        Statement::AlterTableAddColumn { table, column } => {
            db.add_column(table, column.clone())?;
            Ok(Outcome::Done)
        }
        Statement::AlterTableDropColumn { table, column } => {
            db.drop_column(table, column)?;
            Ok(Outcome::Done)
        }
        Statement::CreateIndex {
            name,
            table,
            column,
            unique,
        } => {
            db.create_index(name, table, column, *unique)?;
            Ok(Outcome::Done)
        }
        Statement::DropIndex { name } => {
            db.drop_index(name)?;
            Ok(Outcome::Done)
        }
        Statement::Begin => {
            db.begin()?;
            Ok(Outcome::Done)
        }
        Statement::Commit => {
            db.commit()?;
            Ok(Outcome::Done)
        }
        Statement::Rollback => {
            db.rollback()?;
            Ok(Outcome::Done)
        }
    }
}

fn describe_statement(stmt: &Statement) -> String {
    match stmt {
        Statement::Insert(i) => format!("insert into {} ({} row(s))", i.table, i.rows.len()),
        Statement::Update(u) => format!(
            "update {} ({} assignment(s){})",
            u.table,
            u.assignments.len(),
            if u.where_clause.is_some() {
                ", filtered"
            } else {
                ", all rows"
            }
        ),
        Statement::Delete(d) => format!(
            "delete from {}{}",
            d.table,
            if d.where_clause.is_some() {
                " (filtered)"
            } else {
                " (all rows)"
            }
        ),
        other => format!("{other:?}")
            .split_whitespace()
            .next()
            .unwrap_or("statement")
            .to_ascii_lowercase(),
    }
}

fn eval_const(expr: &Expr, params: &[Value]) -> Result<Value> {
    eval::eval(&Layout::default().bind(expr)?, &Env::new(&[], params))
}

fn execute_insert(
    db: &mut Database,
    ins: &crate::sql::ast::Insert,
    params: &[Value],
) -> Result<(usize, Option<i64>)> {
    // Resolve the column mapping once.
    let (col_map, auto_pk): (Vec<usize>, Option<usize>) = {
        let t = db.table(&ins.table)?;
        let map: Vec<usize> = if ins.columns.is_empty() {
            (0..t.schema.columns.len()).collect()
        } else {
            let mut m = Vec::with_capacity(ins.columns.len());
            for c in &ins.columns {
                m.push(
                    t.schema
                        .column_index(c)
                        .ok_or_else(|| DbError::NoSuchColumn {
                            table: ins.table.clone(),
                            column: c.clone(),
                        })?,
                );
            }
            m
        };
        let auto = t
            .schema
            .primary_key_index()
            .filter(|&i| t.schema.columns[i].auto_increment);
        (map, auto)
    };
    let defaults: Vec<Value> = {
        let t = db.table(&ins.table)?;
        t.schema
            .columns
            .iter()
            .map(|c| c.default.clone().unwrap_or(Value::Null))
            .collect()
    };
    let mut count = 0;
    let mut last = None;
    for tuple in &ins.rows {
        if tuple.len() != col_map.len() {
            return Err(DbError::Arity {
                expected: col_map.len(),
                got: tuple.len(),
            });
        }
        let mut row: Row = defaults.clone();
        for (slot, expr) in col_map.iter().zip(tuple) {
            let expr = select::resolve_subqueries(db, expr, params)?;
            row[*slot] = eval_const(&expr, params)?;
        }
        let id: RowId = db.insert_row(&ins.table, row)?;
        if let Some(pk) = auto_pk {
            if let Some(Value::Int(v)) = db.table(&ins.table)?.row(id).map(|r| r[pk].clone()) {
                last = Some(v);
            }
        }
        count += 1;
    }
    Ok((count, last))
}

/// Layout binding a single table's columns under its own name.
fn table_layout(t: &Table) -> Layout {
    Layout::single(
        t.schema.name.clone(),
        t.schema.columns.iter().map(|c| c.name.clone()).collect(),
    )
}

/// The rows of `t` that `where_clause` selects, found through an index
/// when the predicate allows one and by a sequential scan otherwise.
/// UPDATE and DELETE collect them before mutating the table.
fn matching_rows(
    t: &Table,
    layout: &Layout,
    where_clause: Option<&Expr>,
    params: &[Value],
) -> Result<Vec<(RowId, Row)>> {
    let pred = where_clause.map(|w| layout.bind(w)).transpose()?;
    let conjuncts = where_clause.map(select::conjuncts).unwrap_or_default();
    let rows: Box<dyn Iterator<Item = (RowId, &Row)>> =
        match select::index_candidates(t, &t.schema.name, layout, conjuncts, params)? {
            Some(choice) => Box::new(
                choice
                    .ids
                    .into_iter()
                    .filter_map(|id| t.row(id).map(|row| (id, row))),
            ),
            None => Box::new(t.iter()),
        };
    let mut found = Vec::new();
    for (id, row) in rows {
        let matched = match &pred {
            None => true,
            Some(pred) => eval::eval_condition(pred, &Env::new(&[Some(row)], params))?,
        };
        if matched {
            found.push((id, row.clone()));
        }
    }
    Ok(found)
}

fn execute_update(
    db: &mut Database,
    upd: &crate::sql::ast::Update,
    params: &[Value],
) -> Result<usize> {
    let where_clause = upd
        .where_clause
        .as_ref()
        .map(|w| select::resolve_subqueries(db, w, params))
        .transpose()?;
    let (assignments, targets) = {
        let t = db.table(&upd.table)?;
        let layout = table_layout(t);
        let mut assigns = Vec::with_capacity(upd.assignments.len());
        for (col, e) in &upd.assignments {
            let idx = t
                .schema
                .column_index(col)
                .ok_or_else(|| DbError::NoSuchColumn {
                    table: upd.table.clone(),
                    column: col.clone(),
                })?;
            assigns.push((
                idx,
                layout.bind(&select::resolve_subqueries(db, e, params)?)?,
            ));
        }
        let targets = matching_rows(t, &layout, where_clause.as_ref(), params)?;
        (assigns, targets)
    };
    let count = targets.len();
    for (id, old_row) in targets {
        let tuple = [Some(&old_row)];
        let env = Env::new(&tuple, params);
        let mut new_row = old_row.clone();
        for (idx, e) in &assignments {
            new_row[*idx] = eval::eval_ref(e, &env)?.into_owned();
        }
        db.update_row(&upd.table, id, new_row)?;
    }
    Ok(count)
}

fn execute_delete(
    db: &mut Database,
    del: &crate::sql::ast::Delete,
    params: &[Value],
) -> Result<usize> {
    let where_clause = del
        .where_clause
        .as_ref()
        .map(|w| select::resolve_subqueries(db, w, params))
        .transpose()?;
    let targets = {
        let t = db.table(&del.table)?;
        matching_rows(t, &table_layout(t), where_clause.as_ref(), params)?
    };
    let count = targets.len();
    for (id, _) in targets {
        db.delete_row(&del.table, id)?;
    }
    Ok(count)
}
