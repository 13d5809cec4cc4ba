//! Table schemas: column definitions, keys, and constraints.
//!
//! PerfDMF's "flexible schema" requirement (paper §3.2) — metadata columns
//! may be added to or removed from APPLICATION / EXPERIMENT / TRIAL at any
//! time without framework changes — is served by `ALTER TABLE ADD/DROP
//! COLUMN` plus runtime metadata discovery ([`TableSchema::columns`]), the
//! equivalent of JDBC's `getMetaData()`.

use crate::error::{DbError, Result};
use crate::value::{DataType, Value};

/// A single column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name (stored lowercase; lookups are case-insensitive).
    pub name: String,
    /// Column type.
    pub ty: DataType,
    /// NOT NULL constraint.
    pub not_null: bool,
    /// UNIQUE constraint (implied by `primary_key`).
    pub unique: bool,
    /// PRIMARY KEY. At most one column per table.
    pub primary_key: bool,
    /// AUTO_INCREMENT (integer primary keys only).
    pub auto_increment: bool,
    /// DEFAULT value used when INSERT omits the column.
    pub default: Option<Value>,
    /// FOREIGN KEY: `(table, column)` this column references.
    pub references: Option<(String, String)>,
}

impl ColumnDef {
    /// A plain nullable column.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef {
            name: name.into().to_ascii_lowercase(),
            ty,
            not_null: false,
            unique: false,
            primary_key: false,
            auto_increment: false,
            default: None,
            references: None,
        }
    }

    /// Builder: NOT NULL.
    pub fn not_null(mut self) -> Self {
        self.not_null = true;
        self
    }

    /// Builder: UNIQUE.
    pub fn unique(mut self) -> Self {
        self.unique = true;
        self
    }

    /// Builder: PRIMARY KEY (implies NOT NULL and UNIQUE).
    pub fn primary_key(mut self) -> Self {
        self.primary_key = true;
        self.not_null = true;
        self.unique = true;
        self
    }

    /// Builder: AUTO_INCREMENT primary key.
    pub fn auto_increment(mut self) -> Self {
        self.auto_increment = true;
        self
    }

    /// Builder: DEFAULT value.
    pub fn default_value(mut self, v: impl Into<Value>) -> Self {
        self.default = Some(v.into());
        self
    }

    /// Builder: FOREIGN KEY reference.
    pub fn references(mut self, table: impl Into<String>, column: impl Into<String>) -> Self {
        self.references = Some((
            table.into().to_ascii_lowercase(),
            column.into().to_ascii_lowercase(),
        ));
        self
    }
}

/// A table schema: an ordered list of columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableSchema {
    /// Table name (lowercase).
    pub name: String,
    /// Columns in definition order.
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Create a schema; validates the column set.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Result<Self> {
        let schema = TableSchema {
            name: name.into().to_ascii_lowercase(),
            columns,
        };
        schema.validate()?;
        Ok(schema)
    }

    fn validate(&self) -> Result<()> {
        let mut pk = 0usize;
        for (i, c) in self.columns.iter().enumerate() {
            if c.primary_key {
                pk += 1;
            }
            if c.auto_increment && (c.ty != DataType::Integer || !c.primary_key) {
                return Err(DbError::Unsupported(format!(
                    "AUTO_INCREMENT requires an INTEGER PRIMARY KEY ({})",
                    c.name
                )));
            }
            if self.columns[..i].iter().any(|p| p.name == c.name) {
                return Err(DbError::ColumnExists {
                    table: self.name.clone(),
                    column: c.name.clone(),
                });
            }
            if let Some(d) = &c.default {
                if !d.is_null() && d.coerce(c.ty).is_none() {
                    return Err(DbError::TypeMismatch {
                        column: c.name.clone(),
                        expected: c.ty,
                        got: d.to_string(),
                    });
                }
            }
        }
        if pk > 1 {
            return Err(DbError::Unsupported(format!(
                "table {} has more than one PRIMARY KEY column",
                self.name
            )));
        }
        Ok(())
    }

    /// Index of a column by (case-insensitive) name.
    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Column definition by name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    /// Index of the primary-key column, if any.
    pub(crate) fn primary_key_index(&self) -> Option<usize> {
        self.columns.iter().position(|c| c.primary_key)
    }

    /// Column names in order (the `getMetaData()` equivalent).
    #[cfg(test)]
    pub(crate) fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Add a column (ALTER TABLE ADD COLUMN). Returns its index.
    pub fn add_column(&mut self, col: ColumnDef) -> Result<usize> {
        if self.column_index(&col.name).is_some() {
            return Err(DbError::ColumnExists {
                table: self.name.clone(),
                column: col.name,
            });
        }
        if col.primary_key && self.primary_key_index().is_some() {
            return Err(DbError::Unsupported(format!(
                "table {} already has a primary key",
                self.name
            )));
        }
        if col.not_null && col.default.is_none() {
            return Err(DbError::Unsupported(format!(
                "cannot add NOT NULL column {} without a DEFAULT",
                col.name
            )));
        }
        self.columns.push(col);
        Ok(self.columns.len() - 1)
    }

    /// Remove a column (ALTER TABLE DROP COLUMN). Returns its old index.
    pub fn drop_column(&mut self, name: &str) -> Result<usize> {
        let idx = self
            .column_index(name)
            .ok_or_else(|| DbError::NoSuchColumn {
                table: self.name.clone(),
                column: name.to_string(),
            })?;
        if self.columns[idx].primary_key {
            return Err(DbError::Unsupported(format!(
                "cannot drop primary key column {name}"
            )));
        }
        self.columns.remove(idx);
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id() -> ColumnDef {
        ColumnDef::new("id", DataType::Integer)
            .primary_key()
            .auto_increment()
    }

    #[test]
    fn build_and_lookup() {
        let s = TableSchema::new(
            "Application",
            vec![id(), ColumnDef::new("NAME", DataType::Text).not_null()],
        )
        .unwrap();
        assert_eq!(s.name, "application");
        assert_eq!(s.column_index("Name"), Some(1));
        assert_eq!(s.primary_key_index(), Some(0));
        assert_eq!(s.column_names(), vec!["id", "name"]);
    }

    #[test]
    fn duplicate_column_rejected() {
        assert!(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Integer),
                ColumnDef::new("A", DataType::Text)
            ]
        )
        .is_err());
    }

    #[test]
    fn two_primary_keys_rejected() {
        assert!(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Integer).primary_key(),
                ColumnDef::new("b", DataType::Integer).primary_key()
            ]
        )
        .is_err());
    }

    #[test]
    fn auto_increment_requires_int_pk() {
        let bad = TableSchema::new(
            "t",
            vec![ColumnDef::new("a", DataType::Text)
                .primary_key()
                .auto_increment()],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn bad_default_rejected() {
        assert!(TableSchema::new(
            "t",
            vec![ColumnDef::new("a", DataType::Integer).default_value("not a number")]
        )
        .is_err());
    }

    #[test]
    fn alter_add_and_drop() {
        let mut s = TableSchema::new("trial", vec![id()]).unwrap();
        s.add_column(ColumnDef::new("compiler", DataType::Text))
            .unwrap();
        assert_eq!(s.columns.len(), 2);
        assert!(s
            .add_column(ColumnDef::new("compiler", DataType::Text))
            .is_err());
        // NOT NULL without default cannot be added post hoc.
        assert!(s
            .add_column(ColumnDef::new("x", DataType::Integer).not_null())
            .is_err());
        // but with a default it can
        s.add_column(
            ColumnDef::new("x", DataType::Integer)
                .not_null()
                .default_value(0i64),
        )
        .unwrap();
        assert_eq!(s.drop_column("compiler").unwrap(), 1);
        assert!(s.drop_column("compiler").is_err());
        assert!(s.drop_column("id").is_err(), "pk cannot be dropped");
    }
}
