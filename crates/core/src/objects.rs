//! Application / Experiment / Trial data objects.
//!
//! These mirror the paper's Java objects: rows of the three flexible-schema
//! tables, materialized with *whatever columns the table currently has*
//! (runtime metadata discovery — the `getMetaData()` mechanism). Each has a
//! `save()` that inserts or updates its row.

use perfdmf_db::{Connection, DbError, Result, Value};
use std::collections::BTreeMap;

/// A row of one of the flexible tables, with dynamic columns.
#[derive(Debug, Clone, PartialEq)]
pub struct FlexRow {
    /// Primary key, `None` until saved.
    pub id: Option<i64>,
    /// Required display name.
    pub name: String,
    /// All other column values, keyed by column name.
    pub fields: BTreeMap<String, Value>,
}

impl FlexRow {
    /// New unsaved row.
    pub fn new(name: impl Into<String>) -> Self {
        FlexRow {
            id: None,
            name: name.into(),
            fields: BTreeMap::new(),
        }
    }

    /// Set a metadata field (builder style).
    pub fn with_field(mut self, column: impl Into<String>, value: impl Into<Value>) -> Self {
        self.fields
            .insert(column.into().to_ascii_lowercase(), value.into());
        self
    }

    /// Set a metadata field.
    pub fn set_field(&mut self, column: impl Into<String>, value: impl Into<Value>) {
        self.fields
            .insert(column.into().to_ascii_lowercase(), value.into());
    }

    /// Get a metadata field.
    pub fn field(&self, column: &str) -> Option<&Value> {
        self.fields.get(&column.to_ascii_lowercase())
    }

    /// Save into `table`: INSERT when `id` is `None`, UPDATE otherwise.
    ///
    /// Columns are discovered from the live table metadata; fields that do
    /// not correspond to a current column are rejected, fields absent from
    /// the row are left at their column defaults.
    pub fn save(&mut self, conn: &Connection, table: &str) -> Result<i64> {
        let meta = conn.table_meta(table)?;
        let columns: Vec<&str> = meta.iter().map(|c| c.name.as_str()).collect();
        for key in self.fields.keys() {
            if !columns.iter().any(|c| c == key) {
                return Err(DbError::NoSuchColumn {
                    table: table.to_string(),
                    column: key.clone(),
                });
            }
        }
        match self.id {
            None => {
                let mut names = vec!["name".to_string()];
                let mut params = vec![Value::Text(self.name.as_str().into())];
                for (k, v) in &self.fields {
                    if k == "name" || k == "id" {
                        continue;
                    }
                    names.push(k.clone());
                    params.push(v.clone());
                }
                let placeholders = vec!["?"; names.len()].join(", ");
                let sql = format!(
                    "INSERT INTO {table} ({}) VALUES ({placeholders})",
                    names.join(", ")
                );
                let id = conn.insert(&sql, &params)?.ok_or_else(|| {
                    DbError::Unsupported(format!("table {table} has no AUTO_INCREMENT key"))
                })?;
                self.id = Some(id);
                Ok(id)
            }
            Some(id) => {
                let mut sets = vec!["name = ?".to_string()];
                let mut params = vec![Value::Text(self.name.as_str().into())];
                for (k, v) in &self.fields {
                    if k == "name" || k == "id" {
                        continue;
                    }
                    sets.push(format!("{k} = ?"));
                    params.push(v.clone());
                }
                params.push(Value::Int(id));
                let sql = format!("UPDATE {table} SET {} WHERE id = ?", sets.join(", "));
                conn.update(&sql, &params)?;
                Ok(id)
            }
        }
    }

    /// Materialize a row by id, capturing every current column.
    pub fn load(conn: &Connection, table: &str, id: i64) -> Result<FlexRow> {
        let rs = conn.query(
            &format!("SELECT * FROM {table} WHERE id = ?"),
            &[Value::Int(id)],
        )?;
        if rs.is_empty() {
            return Err(DbError::Unsupported(format!("no {table} row with id {id}")));
        }
        Ok(Self::from_result_row(&rs.columns, &rs.rows[0]))
    }

    /// Build from a result row (columns must include `id` and `name`).
    pub(crate) fn from_result_row(columns: &[String], row: &[Value]) -> FlexRow {
        let mut out = FlexRow::new("");
        for (c, v) in columns.iter().zip(row) {
            match c.as_str() {
                "id" => out.id = v.as_int(),
                "name" => out.name = v.as_text().unwrap_or("").to_string(),
                other => {
                    out.fields.insert(other.to_string(), v.clone());
                }
            }
        }
        out
    }
}

/// An APPLICATION row.
pub type Application = FlexRow;
/// An EXPERIMENT row (set the `application` field before saving).
pub type Experiment = FlexRow;
/// A TRIAL row (set the `experiment` field before saving).
pub type Trial = FlexRow;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::create_schema;

    #[test]
    fn insert_update_load_cycle() {
        let conn = Connection::open_in_memory();
        create_schema(&conn).unwrap();
        let mut app = Application::new("EVH1").with_field("version", "1.0");
        let id = app.save(&conn, "application").unwrap();
        assert_eq!(app.id, Some(id));
        app.set_field("description", "hydrodynamics benchmark");
        app.save(&conn, "application").unwrap();
        let back = FlexRow::load(&conn, "application", id).unwrap();
        assert_eq!(back.name, "EVH1");
        assert_eq!(back.field("version"), Some(&Value::from("1.0")));
        assert_eq!(
            back.field("description"),
            Some(&Value::from("hydrodynamics benchmark"))
        );
    }

    #[test]
    fn unknown_field_rejected_until_column_added() {
        let conn = Connection::open_in_memory();
        create_schema(&conn).unwrap();
        let mut app = Application::new("x").with_field("compiler", "xlf");
        assert!(matches!(
            app.save(&conn, "application"),
            Err(DbError::NoSuchColumn { .. })
        ));
        // The paper's flexible-schema move: add the column, then it works.
        conn.execute("ALTER TABLE application ADD COLUMN compiler TEXT", &[])
            .unwrap();
        let id = app.save(&conn, "application").unwrap();
        let back = FlexRow::load(&conn, "application", id).unwrap();
        assert_eq!(back.field("compiler"), Some(&Value::from("xlf")));
    }

    #[test]
    fn hierarchy_with_foreign_keys() {
        let conn = Connection::open_in_memory();
        create_schema(&conn).unwrap();
        let mut app = Application::new("sppm");
        let app_id = app.save(&conn, "application").unwrap();
        let mut exp = Experiment::new("counters").with_field("application", app_id);
        let exp_id = exp.save(&conn, "experiment").unwrap();
        let mut trial = Trial::new("r1")
            .with_field("experiment", exp_id)
            .with_field("node_count", 512i64);
        let trial_id = trial.save(&conn, "trial").unwrap();
        let back = FlexRow::load(&conn, "trial", trial_id).unwrap();
        assert_eq!(back.field("node_count"), Some(&Value::Int(512)));
        assert_eq!(back.field("experiment"), Some(&Value::Int(exp_id)));
    }

    #[test]
    fn load_missing_row_errors() {
        let conn = Connection::open_in_memory();
        create_schema(&conn).unwrap();
        assert!(FlexRow::load(&conn, "application", 42).is_err());
    }
}
