//! In-memory table storage: a slab of rows plus secondary indexes.
//!
//! Row ids are stable for the life of a row (deletes leave a tombstone that
//! is reused by later inserts), which lets indexes, the undo log, and the
//! write-ahead log all address rows cheaply.

use crate::column::{Chunk, ColumnCache, CHUNK_ROWS};
use crate::error::{DbError, Result};
use crate::index::Index;
use crate::schema::{ColumnDef, TableSchema};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A row is a vector of values, one per schema column.
pub type Row = Vec<Value>;

/// Stable identifier of a row within its table.
pub type RowId = u64;

/// A single table: schema, row slab, and secondary indexes.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table schema (columns, constraints).
    pub schema: TableSchema,
    /// Row slab; `None` is a tombstone left by DELETE.
    rows: Vec<Option<Row>>,
    /// Free list of tombstone slots for reuse.
    free: Vec<RowId>,
    /// Number of live rows.
    live: usize,
    /// Next AUTO_INCREMENT value.
    next_auto: i64,
    /// Secondary indexes by index name.
    pub(crate) indexes: HashMap<String, Index>,
    /// Lazily-built column chunks (derived data; clones start cold).
    colcache: ColumnCache,
}

impl Table {
    /// Create an empty table.
    pub fn new(schema: TableSchema) -> Self {
        let mut t = Table {
            schema,
            rows: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_auto: 1,
            indexes: HashMap::new(),
            colcache: ColumnCache::default(),
        };
        // Primary key and UNIQUE columns get implicit unique indexes so
        // constraint checks are O(log n).
        let implicit: Vec<(String, usize)> = t
            .schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.unique || c.primary_key)
            .map(|(i, c)| (format!("__uniq_{}_{}", t.schema.name, c.name), i))
            .collect();
        for (name, col) in implicit {
            t.indexes.insert(name.clone(), Index::new(name, col, true));
        }
        t
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Capacity of the underlying slab (including tombstones).
    pub fn slab_len(&self) -> usize {
        self.rows.len()
    }

    /// Tombstone slots awaiting reuse, in reuse order (the last is taken
    /// first by the next insert).
    pub fn free_slots(&self) -> &[RowId] {
        &self.free
    }

    /// Every index on the table, implicit constraint indexes included.
    pub fn indexes(&self) -> impl Iterator<Item = &Index> {
        self.indexes.values()
    }

    /// Get a row by id.
    pub fn row(&self, id: RowId) -> Option<&Row> {
        self.rows.get(id as usize).and_then(|r| r.as_ref())
    }

    /// Iterate `(row_id, row)` over live rows.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|row| (i as RowId, row)))
    }

    /// Current AUTO_INCREMENT counter (next value to be assigned).
    pub fn next_auto_value(&self) -> i64 {
        self.next_auto
    }

    /// Restore the AUTO_INCREMENT counter (used by WAL replay / rollback).
    pub fn set_next_auto_value(&mut self, v: i64) {
        self.next_auto = v;
    }

    /// Coerce and validate `row` against the schema, filling AUTO_INCREMENT
    /// and applying column defaults for `Value::Null` on defaulted columns
    /// is *not* done here — the executor resolves defaults; this method
    /// enforces type and NOT NULL constraints and assigns auto ids.
    fn prepare_row(&mut self, mut row: Row) -> Result<Row> {
        if row.len() != self.schema.columns.len() {
            return Err(DbError::Arity {
                expected: self.schema.columns.len(),
                got: row.len(),
            });
        }
        for (i, col) in self.schema.columns.iter().enumerate() {
            if row[i].is_null() && col.auto_increment {
                row[i] = Value::Int(self.next_auto);
            }
            if row[i].is_null() {
                if col.not_null {
                    return Err(DbError::NotNullViolation {
                        table: self.schema.name.clone(),
                        column: col.name.clone(),
                    });
                }
                continue;
            }
            if row[i].data_type() == Some(col.ty) {
                continue; // already the column's type: nothing to coerce
            }
            row[i] = row[i].coerce(col.ty).ok_or_else(|| DbError::TypeMismatch {
                column: col.name.clone(),
                expected: col.ty,
                got: row[i].to_string(),
            })?;
        }
        Ok(row)
    }

    /// Check unique indexes for a prospective row (excluding `skip` row id,
    /// used on UPDATE).
    fn check_unique(&self, row: &Row, skip: Option<RowId>) -> Result<()> {
        for index in self.indexes.values() {
            if !index.unique {
                continue;
            }
            let key = &row[index.column];
            if key.is_null() {
                continue; // SQL: NULLs never conflict
            }
            for &id in index.ids(key) {
                if Some(id) != skip {
                    return Err(DbError::UniqueViolation {
                        table: self.schema.name.clone(),
                        column: self.schema.columns[index.column].name.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Advance the AUTO_INCREMENT counter past an explicit key in `row`.
    fn bump_auto(&mut self, row: &Row) {
        if let Some(pk) = self.schema.primary_key_index() {
            if self.schema.columns[pk].auto_increment {
                if let Value::Int(v) = row[pk] {
                    self.next_auto = self.next_auto.max(v + 1);
                }
            }
        }
    }

    /// Insert a prepared row; returns its row id.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        let row = self.prepare_row(row)?;
        self.check_unique(&row, None)?;
        self.bump_auto(&row);
        let id = match self.free.pop() {
            Some(slot) => {
                self.rows[slot as usize] = Some(row);
                slot
            }
            None => {
                self.rows.push(Some(row));
                (self.rows.len() - 1) as RowId
            }
        };
        let inserted = self.rows[id as usize].as_ref().expect("just inserted");
        for index in self.indexes.values_mut() {
            index.insert(&inserted[index.column], id);
        }
        self.live += 1;
        self.colcache.invalidate_row(id as usize);
        Ok(id)
    }

    /// Insert at a specific row id (WAL replay, and rollback of a
    /// delete). The slot must be free: past the slab end, or a tombstone.
    ///
    /// O(1) per row: only the gap between the old slab end and `id` is
    /// walked (each gap slot becomes free), and the free list is touched
    /// only when `id` reuses a tombstone. That slot sits at or near the
    /// back of the free list (inserts reuse the most recently freed slot
    /// first), so the search runs from the back.
    pub fn insert_at(&mut self, id: RowId, row: Row) -> Result<()> {
        let idx = self.slot_index(id)?;
        let old_len = self.rows.len();
        if self.rows.get(idx).is_some_and(Option::is_some) {
            return Err(DbError::Corrupt(format!(
                "WAL replay: slot {id} in {} already occupied",
                self.schema.name
            )));
        }
        let row = self.prepare_row(row)?;
        self.check_unique(&row, None)?;
        self.bump_auto(&row);
        if idx >= old_len {
            self.rows.resize(idx + 1, None);
            self.free.extend((old_len..idx).map(|gap| gap as RowId));
        } else if let Some(pos) = self.free.iter().rposition(|&f| f == id) {
            self.free.remove(pos);
        }
        for index in self.indexes.values_mut() {
            index.insert(&row[index.column], id);
        }
        self.rows[idx] = Some(row);
        self.live += 1;
        self.colcache.invalidate_row(idx);
        Ok(())
    }

    /// Slab position of a row id read from the log or a snapshot. An id
    /// no slab could hold comes only from a damaged file.
    fn slot_index(&self, id: RowId) -> Result<usize> {
        let max_slots = isize::MAX as usize / std::mem::size_of::<Option<Row>>();
        usize::try_from(id)
            .ok()
            .filter(|&idx| idx < max_slots)
            .ok_or_else(|| {
                DbError::Corrupt(format!("row id {id} out of range in {}", self.schema.name))
            })
    }

    /// Place a snapshot row at `id` without touching the indexes. Ids must
    /// arrive in strictly ascending order (the order a checkpoint writes);
    /// every skipped slot becomes free. Call [`Table::index_loaded_rows`]
    /// once all rows are in.
    pub(crate) fn load_row(&mut self, id: RowId, row: Row) -> Result<()> {
        let idx = self.slot_index(id)?;
        let old_len = self.rows.len();
        if idx < old_len {
            return Err(DbError::Corrupt(format!(
                "snapshot: row {id} in {} out of order",
                self.schema.name
            )));
        }
        let row = self.prepare_row(row)?;
        self.free.extend((old_len..idx).map(|gap| gap as RowId));
        self.rows.resize(idx, None);
        self.rows.push(Some(row));
        self.live += 1;
        Ok(())
    }

    /// Build every index from the rows placed by [`Table::load_row`], one
    /// pass per index, enforcing uniqueness as each index fills.
    pub(crate) fn index_loaded_rows(&mut self) -> Result<()> {
        let mut indexes = std::mem::take(&mut self.indexes);
        for index in indexes.values_mut() {
            self.fill_index(index)?;
        }
        self.indexes = indexes;
        Ok(())
    }

    /// Fill `index` from every live row in one bulk load, rejecting a
    /// duplicate non-NULL key when the index is unique.
    fn fill_index(&self, index: &mut Index) -> Result<()> {
        let col = index.column;
        index
            .fill(self.iter().map(|(id, row)| (&row[col], id)))
            .map_err(|_| DbError::UniqueViolation {
                table: self.schema.name.clone(),
                column: self.schema.columns[col].name.clone(),
            })
    }

    /// Delete a row by id; returns the removed row.
    pub fn delete(&mut self, id: RowId) -> Result<Row> {
        let slot = self
            .rows
            .get_mut(id as usize)
            .ok_or_else(|| DbError::Corrupt(format!("delete of unknown row {id}")))?;
        let row = slot
            .take()
            .ok_or_else(|| DbError::Corrupt(format!("double delete of row {id}")))?;
        for index in self.indexes.values_mut() {
            index.remove(&row[index.column], id);
        }
        self.free.push(id);
        self.live -= 1;
        self.colcache.invalidate_row(id as usize);
        Ok(row)
    }

    /// Replace a row in place; returns the previous row.
    pub fn update(&mut self, id: RowId, new_row: Row) -> Result<Row> {
        let new_row = self.prepare_row(new_row)?;
        self.check_unique(&new_row, Some(id))?;
        let slot = self
            .rows
            .get_mut(id as usize)
            .and_then(|r| r.as_mut())
            .ok_or_else(|| DbError::Corrupt(format!("update of unknown row {id}")))?;
        let old = std::mem::replace(slot, new_row);
        let new_ref = self.rows[id as usize].as_ref().expect("just updated");
        for index in self.indexes.values_mut() {
            if old[index.column] != new_ref[index.column] {
                index.remove(&old[index.column], id);
                index.insert(&new_ref[index.column], id);
            }
        }
        self.colcache.invalidate_row(id as usize);
        Ok(old)
    }

    /// Create a named secondary index over `column`; backfills existing rows.
    pub fn create_index(&mut self, name: &str, column: &str, unique: bool) -> Result<()> {
        let col = self
            .schema
            .column_index(column)
            .ok_or_else(|| DbError::NoSuchColumn {
                table: self.schema.name.clone(),
                column: column.to_string(),
            })?;
        if self.indexes.contains_key(name) {
            return Err(DbError::Unsupported(format!("index {name} already exists")));
        }
        let mut index = Index::new(name.to_string(), col, unique);
        self.fill_index(&mut index)?;
        self.indexes.insert(name.to_string(), index);
        Ok(())
    }

    /// Drop a named index. Implicit constraint indexes cannot be dropped.
    pub fn drop_index(&mut self, name: &str) -> Result<()> {
        if name.starts_with("__uniq_") {
            return Err(DbError::Unsupported(
                "cannot drop an implicit constraint index".into(),
            ));
        }
        self.indexes
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DbError::Unsupported(format!("no such index: {name}")))
    }

    /// Find an index (any) on the given column offset, preferring unique.
    pub fn index_on(&self, column: usize) -> Option<&Index> {
        let mut best: Option<&Index> = None;
        for index in self.indexes.values() {
            if index.column == column && (best.is_none() || index.unique) {
                best = Some(index);
            }
        }
        best
    }

    /// ALTER TABLE ADD COLUMN: extends every row with the default value.
    pub fn add_column(&mut self, col: ColumnDef) -> Result<()> {
        let default = col
            .default
            .clone()
            .map(|d| {
                d.coerce(col.ty).ok_or_else(|| DbError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.ty,
                    got: d.to_string(),
                })
            })
            .transpose()?
            .unwrap_or(Value::Null);
        self.schema.add_column(col)?;
        for slot in self.rows.iter_mut().flatten() {
            slot.push(default.clone());
        }
        self.colcache.clear();
        Ok(())
    }

    /// ALTER TABLE DROP COLUMN: removes the value from every row and drops
    /// indexes on the column.
    pub fn drop_column(&mut self, name: &str) -> Result<()> {
        let idx = self.schema.drop_column(name)?;
        self.indexes.retain(|_, ix| ix.column != idx);
        for ix in self.indexes.values_mut() {
            if ix.column > idx {
                ix.column -= 1;
            }
        }
        for slot in self.rows.iter_mut().flatten() {
            slot.remove(idx);
        }
        self.colcache.clear();
        Ok(())
    }

    /// Number of column chunks covering the slab.
    pub fn chunk_count(&self) -> usize {
        self.rows.len().div_ceil(CHUNK_ROWS)
    }

    /// Get or build the column chunk `idx`; the flag is true on a cache
    /// hit. `None` only when `idx` is past the slab end.
    pub fn chunk(&self, idx: usize) -> (Option<Arc<Chunk>>, bool) {
        self.colcache.chunk(&self.schema, &self.rows, idx)
    }

    /// Number of column chunks currently cached (tests / EXPLAIN stats).
    pub fn cached_chunk_count(&self) -> usize {
        self.colcache.cached_chunks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn people() -> Table {
        Table::new(
            TableSchema::new(
                "people",
                vec![
                    ColumnDef::new("id", DataType::Integer)
                        .primary_key()
                        .auto_increment(),
                    ColumnDef::new("name", DataType::Text).not_null(),
                    ColumnDef::new("age", DataType::Integer),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn insert_assigns_auto_ids() {
        let mut t = people();
        let a = t
            .insert(vec![Value::Null, "ann".into(), Value::Int(30)])
            .unwrap();
        let b = t
            .insert(vec![Value::Null, "bob".into(), Value::Null])
            .unwrap();
        assert_eq!(t.row(a).unwrap()[0], Value::Int(1));
        assert_eq!(t.row(b).unwrap()[0], Value::Int(2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn explicit_id_advances_counter() {
        let mut t = people();
        t.insert(vec![Value::Int(10), "x".into(), Value::Null])
            .unwrap();
        let id = t
            .insert(vec![Value::Null, "y".into(), Value::Null])
            .unwrap();
        assert_eq!(t.row(id).unwrap()[0], Value::Int(11));
    }

    #[test]
    fn unique_violation() {
        let mut t = people();
        t.insert(vec![Value::Int(1), "a".into(), Value::Null])
            .unwrap();
        let err = t
            .insert(vec![Value::Int(1), "b".into(), Value::Null])
            .unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
    }

    #[test]
    fn not_null_violation() {
        let mut t = people();
        let err = t
            .insert(vec![Value::Null, Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, DbError::NotNullViolation { .. }));
    }

    #[test]
    fn type_coercion_on_insert() {
        let mut t = people();
        let id = t
            .insert(vec![Value::Null, "a".into(), Value::Text("42".into())])
            .unwrap();
        assert_eq!(t.row(id).unwrap()[2], Value::Int(42));
        let err = t
            .insert(vec![Value::Null, "b".into(), Value::Text("old".into())])
            .unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch { .. }));
    }

    #[test]
    fn delete_and_slot_reuse() {
        let mut t = people();
        let a = t
            .insert(vec![Value::Null, "a".into(), Value::Null])
            .unwrap();
        t.insert(vec![Value::Null, "b".into(), Value::Null])
            .unwrap();
        t.delete(a).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.row(a).is_none());
        let c = t
            .insert(vec![Value::Null, "c".into(), Value::Null])
            .unwrap();
        assert_eq!(c, a, "tombstone slot reused");
        assert!(t.delete(a).is_ok());
        assert!(t.delete(a).is_err(), "double delete");
    }

    #[test]
    fn insert_at_past_a_gap_frees_exactly_the_gap_once() {
        let mut t = people();
        let row = |id: i64| vec![Value::Int(id), format!("p{id}").into(), Value::Null];
        let sorted_free = |t: &Table| {
            let mut free = t.free_slots().to_vec();
            free.sort_unstable();
            free
        };
        t.insert_at(2, row(3)).unwrap();
        assert_eq!(sorted_free(&t), [0, 1]);
        // A second gap adds only its own slots; the first gap's are not
        // pushed again.
        t.insert_at(5, row(6)).unwrap();
        assert_eq!(sorted_free(&t), [0, 1, 3, 4]);
        assert_eq!((t.slab_len(), t.len()), (6, 2));
        // Filling a gap slot takes exactly that slot off the free list.
        t.insert_at(3, row(4)).unwrap();
        assert_eq!(sorted_free(&t), [0, 1, 4]);
        // An occupied slot is refused and changes nothing.
        assert!(matches!(t.insert_at(5, row(9)), Err(DbError::Corrupt(_))));
        assert_eq!(sorted_free(&t), [0, 1, 4]);
        assert_eq!(t.len(), 3);
        // Ordinary inserts reuse each free slot once, then grow the slab.
        let mut ids: Vec<RowId> = (0..4)
            .map(|_| {
                t.insert(vec![Value::Null, "n".into(), Value::Null])
                    .unwrap()
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, [0, 1, 4, 6]);
        assert!(t.free_slots().is_empty());
        assert_eq!(t.index_on(0).unwrap().len(), 7);
    }

    #[test]
    fn insert_at_into_a_tombstone_removes_only_that_slot() {
        let mut t = people();
        for name in ["a", "b", "c", "d"] {
            t.insert(vec![Value::Null, name.into(), Value::Null])
                .unwrap();
        }
        let b = t.delete(1).unwrap();
        t.delete(3).unwrap();
        assert_eq!(t.free_slots(), [1, 3]);
        // Rollback of the delete of row 1 puts it back in its own slot.
        t.insert_at(1, b).unwrap();
        assert_eq!(t.free_slots(), [3]);
        assert_eq!(t.row(1).unwrap()[1], Value::Text("b".into()));
        assert_eq!(t.index_on(0).unwrap().ids(&Value::Int(2)), [1]);
    }

    #[test]
    fn loaded_rows_rebuild_indexes_and_free_the_gaps() {
        let mut t = people();
        t.load_row(1, vec![Value::Int(5), "x".into(), Value::Int(40)])
            .unwrap();
        t.load_row(4, vec![Value::Int(9), "y".into(), Value::Int(41)])
            .unwrap();
        assert!(matches!(
            t.load_row(4, vec![Value::Int(10), "z".into(), Value::Null]),
            Err(DbError::Corrupt(_))
        ));
        t.index_loaded_rows().unwrap();
        assert_eq!(t.free_slots(), [0, 2, 3]);
        assert_eq!((t.len(), t.slab_len()), (2, 5));
        assert_eq!(t.index_on(0).unwrap().ids(&Value::Int(9)), [4]);
        // The next insert takes the most recently listed free slot.
        let id = t
            .insert(vec![Value::Null, "n".into(), Value::Null])
            .unwrap();
        assert_eq!(id, 3);

        let mut dup = people();
        dup.load_row(0, vec![Value::Int(1), "a".into(), Value::Null])
            .unwrap();
        dup.load_row(1, vec![Value::Int(1), "b".into(), Value::Null])
            .unwrap();
        assert!(matches!(
            dup.index_loaded_rows(),
            Err(DbError::UniqueViolation { .. })
        ));
    }

    #[test]
    fn update_maintains_indexes() {
        let mut t = people();
        t.create_index("ix_age", "age", false).unwrap();
        let a = t
            .insert(vec![Value::Null, "a".into(), Value::Int(30)])
            .unwrap();
        t.update(a, vec![Value::Int(1), "a".into(), Value::Int(31)])
            .unwrap();
        let ix = t.index_on(2).unwrap();
        assert!(!ix.contains(&Value::Int(30)));
        assert_eq!(ix.ids(&Value::Int(31)), [a]);
    }

    #[test]
    fn update_unique_check_excludes_self() {
        let mut t = people();
        let a = t
            .insert(vec![Value::Null, "a".into(), Value::Null])
            .unwrap();
        // Re-writing the same row with its own pk must not trip UNIQUE.
        t.update(a, vec![Value::Int(1), "a2".into(), Value::Null])
            .unwrap();
        assert_eq!(t.row(a).unwrap()[1], Value::Text("a2".into()));
    }

    #[test]
    fn add_and_drop_column() {
        let mut t = people();
        t.insert(vec![Value::Null, "a".into(), Value::Int(1)])
            .unwrap();
        t.add_column(ColumnDef::new("city", DataType::Text).default_value("eugene"))
            .unwrap();
        assert_eq!(t.row(0).unwrap()[3], Value::Text("eugene".into()));
        t.create_index("ix_city", "city", false).unwrap();
        t.drop_column("age").unwrap();
        assert_eq!(t.row(0).unwrap().len(), 3);
        assert_eq!(t.row(0).unwrap()[2], Value::Text("eugene".into()));
        // index on "city" survived with shifted offset
        let ix = t.indexes.get("ix_city").unwrap();
        assert_eq!(ix.column, 2);
        assert_eq!(ix.ids(&Value::Text("eugene".into())), [0]);
    }

    #[test]
    fn create_unique_index_rejects_existing_dupes() {
        let mut t = people();
        t.insert(vec![Value::Null, "a".into(), Value::Int(1)])
            .unwrap();
        t.insert(vec![Value::Null, "b".into(), Value::Int(1)])
            .unwrap();
        assert!(t.create_index("u_age", "age", true).is_err());
        assert!(t.create_index("ix_age", "age", false).is_ok());
    }

    #[test]
    fn nulls_do_not_conflict_in_unique_index() {
        let mut t = Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Integer).primary_key(),
                    ColumnDef::new("u", DataType::Text).unique(),
                ],
            )
            .unwrap(),
        );
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        assert_eq!(t.len(), 2);
    }
}
