//! The database kernel: a catalog of tables with transactional mutation.
//!
//! All mutation goes through methods on [`Database`], which
//!
//! * validate constraints (types, NOT NULL, UNIQUE, FOREIGN KEY),
//! * push inverse operations onto an undo log (for ROLLBACK and for
//!   statement-level atomicity), and
//! * buffer [`WalRecord`]s that are appended to the write-ahead log when
//!   the enclosing transaction (or autocommit statement) commits.
//!
//! [`Database`] is single-threaded by design; [`crate::Connection`] wraps it
//! in a reader/writer lock for concurrent use.

use crate::error::{DbError, Result};
use crate::schema::{ColumnDef, TableSchema};
use crate::storage::{
    read_snapshot_with, scan_wal, write_snapshot_with, BatchMark, Durability, Wal, WalBatch,
    WalRecord,
};
use crate::table::{Row, RowId, Table};
use crate::value::{DataType, Value};
use crate::vfs::Vfs;
use perfdmf_telemetry as telemetry;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Inverse operations for rollback.
#[derive(Debug)]
enum Undo {
    /// Rows inserted by one statement, in insertion order (a bulk insert
    /// logs its whole batch as one entry).
    Insert {
        table: String,
        ids: Vec<RowId>,
    },
    Delete {
        table: String,
        id: RowId,
        row: Row,
    },
    Update {
        table: String,
        id: RowId,
        old: Row,
    },
    CreateTable {
        name: String,
    },
    /// Whole-table snapshot taken before destructive DDL.
    RestoreTable {
        name: String,
        table: Box<Table>,
    },
    CreateIndex {
        table: String,
        name: String,
    },
}

/// An embedded relational database: the persistent store under PerfDMF.
#[derive(Debug)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    /// index name → table name (index names are global, like PostgreSQL).
    index_owner: BTreeMap<String, String>,
    undo: Vec<Undo>,
    pending: WalBatch,
    in_txn: bool,
    wal: Option<Wal>,
    dir: Option<PathBuf>,
    vfs: Arc<dyn Vfs>,
}

/// Marker for statement-level atomicity: positions in the undo/pending logs
/// captured before a statement runs.
#[derive(Debug, Clone, Copy)]
pub struct StmtMark {
    undo_len: usize,
    pending: BatchMark,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Create an empty in-memory database (no persistence).
    pub fn new() -> Self {
        Database {
            tables: BTreeMap::new(),
            index_owner: BTreeMap::new(),
            undo: Vec::new(),
            pending: WalBatch::default(),
            in_txn: false,
            wal: None,
            dir: None,
            vfs: crate::vfs::real(),
        }
    }

    /// Open (or create) a persistent database in directory `dir`.
    ///
    /// Loads `snapshot.pdmf` if present, then replays committed WAL records.
    pub fn open(dir: &Path) -> Result<Self> {
        Database::open_with_vfs(dir, crate::vfs::real())
    }

    /// Open (or create) a persistent database with all file I/O routed
    /// through `vfs` (fault injection hooks in here).
    ///
    /// Recovery protocol: load the snapshot, then scan the WAL. A WAL
    /// whose generation is *older* than the snapshot's predates it (the
    /// crash hit between the checkpoint's rename and its WAL reset); its
    /// contents are already inside the snapshot, so it is discarded
    /// instead of replayed. Any torn/uncommitted tail — or a stale or
    /// old-format log — is repaired by an atomic rewrite (temp + rename)
    /// so a crash mid-repair can never lose the committed prefix.
    pub fn open_with_vfs(dir: &Path, vfs: Arc<dyn Vfs>) -> Result<Self> {
        let _span = telemetry::span("db.open");
        vfs.create_dir_all(dir)
            .map_err(|e| DbError::io("create database dir", e))?;
        let mut db = Database::new();
        db.vfs = vfs.clone();
        telemetry::add("db.recovery.opens", 1);
        let snap_path = dir.join("snapshot.pdmf");
        let mut snap_gen = 0u64;
        if vfs.exists(&snap_path) {
            let (tables, generation) = read_snapshot_with(&*vfs, &snap_path)?;
            snap_gen = generation;
            for table in tables {
                let name = table.schema.name.clone();
                for ix_name in table.indexes.keys() {
                    if !ix_name.starts_with("__uniq_") {
                        db.index_owner.insert(ix_name.clone(), name.clone());
                    }
                }
                db.tables.insert(name, table);
            }
        }
        let wal_path = dir.join("wal.pdmf");
        let wal = if vfs.exists(&wal_path) {
            // Committed records are applied as the scan reaches them, each
            // moved into its table rather than copied.
            let scan = scan_wal(&*vfs, &wal_path, snap_gen, |rec| db.apply_record(rec))?;
            if scan.torn_tail || scan.torn_header {
                telemetry::add("db.recovery.torn_tail", 1);
                let _ = telemetry::trace::fault_dump("torn wal tail repaired on open");
            }
            if scan.uncommitted > 0 {
                telemetry::add("db.recovery.uncommitted_dropped", scan.uncommitted as u64);
            }
            if scan.generation < snap_gen {
                // Stale log from before the snapshot was taken: every
                // record in it is already part of the snapshot image.
                telemetry::add("db.recovery.stale_wal", 1);
                let _ = telemetry::trace::fault_dump("stale wal discarded on open");
                telemetry::add("db.recovery.wal_rewrites", 1);
                Wal::rewrite(vfs.clone(), &wal_path, snap_gen, &[])?
            } else {
                telemetry::add("db.recovery.replayed_records", scan.visited as u64);
                if scan.needs_rewrite() {
                    telemetry::add("db.recovery.wal_rewrites", 1);
                    Wal::rewrite(
                        vfs.clone(),
                        &wal_path,
                        scan.generation,
                        scan.committed_frames(),
                    )?
                } else {
                    Wal::attach(vfs.clone(), &wal_path, scan.generation, scan.file_bytes)?
                }
            }
        } else {
            Wal::attach(vfs.clone(), &wal_path, snap_gen, 0)?
        };
        db.wal = Some(wal);
        db.dir = Some(dir.to_path_buf());
        Ok(db)
    }

    /// Write a fresh snapshot and truncate the WAL. No-op for in-memory DBs.
    ///
    /// The snapshot is stamped with generation `g+1` (one past the current
    /// WAL's); only after it is durably in place is the WAL reset to the
    /// same generation. A crash in between leaves a stale lower-generation
    /// WAL that recovery detects and discards.
    pub fn checkpoint(&mut self) -> Result<()> {
        let Some(dir) = self.dir.clone() else {
            return Ok(());
        };
        if self.in_txn {
            return Err(DbError::Transaction(
                "cannot checkpoint inside a transaction".into(),
            ));
        }
        let next_gen = self.wal.as_ref().map(|w| w.generation() + 1).unwrap_or(1);
        let entries: Vec<(&String, &Table)> = self.tables.iter().collect();
        write_snapshot_with(&*self.vfs, &dir.join("snapshot.pdmf"), &entries, next_gen)?;
        if let Some(wal) = &mut self.wal {
            wal.reset_to(next_gen)?;
        }
        Ok(())
    }

    /// Apply a WAL record during recovery (no undo, no re-logging).
    fn apply_record(&mut self, rec: WalRecord) -> Result<()> {
        match rec {
            WalRecord::Insert { table, id, row } => {
                self.table_mut_raw(&table)?.insert_at(id, row)?;
            }
            WalRecord::Delete { table, id } => {
                self.table_mut_raw(&table)?.delete(id)?;
            }
            WalRecord::Update { table, id, row } => {
                self.table_mut_raw(&table)?.update(id, row)?;
            }
            WalRecord::CreateTable { schema } => {
                let name = schema.name.clone();
                self.tables.insert(name, Table::new(schema));
            }
            WalRecord::DropTable { name } => {
                if let Some(t) = self.tables.remove(&name) {
                    for ix in t.indexes.keys() {
                        self.index_owner.remove(ix);
                    }
                }
            }
            WalRecord::AddColumn { table, column } => {
                self.table_mut_raw(&table)?.add_column(column)?;
            }
            WalRecord::DropColumn { table, column } => {
                let t = self.table_mut_raw(&table)?;
                // capture dropped index names before mutation
                let dropped: Vec<String> = {
                    let idx = t.schema.column_index(&column);
                    match idx {
                        Some(i) => t
                            .indexes
                            .iter()
                            .filter(|(_, ix)| ix.column == i)
                            .map(|(n, _)| n.clone())
                            .collect(),
                        None => Vec::new(),
                    }
                };
                t.drop_column(&column)?;
                for n in dropped {
                    self.index_owner.remove(&n);
                }
            }
            WalRecord::CreateIndex {
                table,
                name,
                column,
                unique,
            } => {
                self.table_mut_raw(&table)?
                    .create_index(&name, &column, unique)?;
                self.index_owner.insert(name, table);
            }
            WalRecord::DropIndex { table, name } => {
                self.table_mut_raw(&table)?.drop_index(&name)?;
                self.index_owner.remove(&name);
            }
            WalRecord::Commit => {}
        }
        Ok(())
    }

    /// Is a write-ahead log attached (persistent database)?
    fn logging(&self) -> bool {
        self.wal.is_some()
    }

    /// Set when commit batches must reach stable storage. No-op for
    /// in-memory databases (nothing to sync).
    pub fn set_durability(&mut self, durability: Durability) {
        if let Some(wal) = &mut self.wal {
            wal.set_durability(durability);
        }
    }

    /// Current WAL durability mode (in-memory databases report the
    /// default).
    pub fn durability(&self) -> Durability {
        self.wal
            .as_ref()
            .map(|w| w.durability())
            .unwrap_or_default()
    }

    // ---------------- catalog access ----------------

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        let key = catalog_key(name);
        self.tables
            .get(&*key)
            .ok_or_else(|| DbError::NoSuchTable(key.into_owned()))
    }

    fn table_mut_raw(&mut self, name: &str) -> Result<&mut Table> {
        let key = catalog_key(name);
        self.tables
            .get_mut(&*key)
            .ok_or_else(|| DbError::NoSuchTable(key.into_owned()))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Does a table exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&*catalog_key(name))
    }

    // ---------------- statement atomicity ----------------

    /// Capture undo/WAL positions before executing a statement.
    pub fn stmt_begin(&mut self) -> StmtMark {
        StmtMark {
            undo_len: self.undo.len(),
            pending: self.pending.mark(),
        }
    }

    /// Roll back the effects of a failed statement.
    pub fn stmt_abort(&mut self, mark: StmtMark) {
        self.undo_to(mark.undo_len);
        self.pending.truncate(mark.pending);
    }

    /// Finish a successful statement: autocommit if no transaction is open.
    pub fn stmt_finish(&mut self) -> Result<()> {
        if !self.in_txn {
            self.commit_internal()?;
        }
        Ok(())
    }

    fn undo_to(&mut self, len: usize) {
        while self.undo.len() > len {
            let op = self.undo.pop().expect("len checked");
            match op {
                Undo::Insert { table, ids } => {
                    if let Ok(t) = self.table_mut_raw(&table) {
                        for &id in ids.iter().rev() {
                            let _ = t.delete(id);
                        }
                    }
                }
                Undo::Delete { table, id, row } => {
                    let _ = self
                        .table_mut_raw(&table)
                        .and_then(|t| t.insert_at(id, row));
                }
                Undo::Update { table, id, old } => {
                    let _ = self.table_mut_raw(&table).and_then(|t| t.update(id, old));
                }
                Undo::CreateTable { name } => {
                    if let Some(t) = self.tables.remove(&name) {
                        for ix in t.indexes.keys() {
                            self.index_owner.remove(ix);
                        }
                    }
                }
                Undo::RestoreTable { name, table } => {
                    // Re-register this table's named indexes.
                    for ix in table.indexes.keys() {
                        if !ix.starts_with("__uniq_") {
                            self.index_owner.insert(ix.clone(), name.clone());
                        }
                    }
                    self.tables.insert(name, *table);
                }
                Undo::CreateIndex { table, name } => {
                    let _ = self.table_mut_raw(&table).and_then(|t| t.drop_index(&name));
                    self.index_owner.remove(&name);
                }
            }
        }
    }

    // ---------------- transactions ----------------

    /// True if an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.in_txn
    }

    /// BEGIN.
    pub fn begin(&mut self) -> Result<()> {
        if self.in_txn {
            return Err(DbError::Transaction(
                "nested transactions are not supported".into(),
            ));
        }
        // Anything pending belongs to completed autocommit statements.
        debug_assert!(self.pending.is_empty());
        self.in_txn = true;
        Ok(())
    }

    /// COMMIT.
    pub fn commit(&mut self) -> Result<()> {
        if !self.in_txn {
            return Err(DbError::Transaction("COMMIT outside a transaction".into()));
        }
        self.in_txn = false;
        self.commit_internal()
    }

    fn commit_internal(&mut self) -> Result<()> {
        if let Some(wal) = &mut self.wal {
            if !self.pending.is_empty() {
                self.pending.push(&WalRecord::Commit);
                if let Err(e) = wal.append(&self.pending) {
                    // The log rejected the batch: undo the in-memory
                    // changes so memory and disk agree the transaction
                    // did not commit. (If the batch actually reached the
                    // file before the error, recovery may still replay
                    // it — the standard "commit may have happened"
                    // ambiguity of a failed commit acknowledgement.)
                    telemetry::add("db.commit_failures", 1);
                    self.pending.clear();
                    self.undo_to(0);
                    return Err(e);
                }
            }
        }
        self.pending.clear();
        self.undo.clear();
        Ok(())
    }

    /// ROLLBACK.
    pub fn rollback(&mut self) -> Result<()> {
        if !self.in_txn {
            return Err(DbError::Transaction(
                "ROLLBACK outside a transaction".into(),
            ));
        }
        self.in_txn = false;
        self.undo_to(0);
        self.pending.clear();
        Ok(())
    }

    // ---------------- DDL ----------------

    /// CREATE TABLE.
    pub fn create_table(&mut self, schema: TableSchema, if_not_exists: bool) -> Result<()> {
        let name = schema.name.clone();
        crate::introspect::check_ddl_name(&name)?;
        if self.tables.contains_key(&name) {
            if if_not_exists {
                return Ok(());
            }
            return Err(DbError::TableExists(name));
        }
        // Validate FK targets exist (self-reference allowed).
        for col in &schema.columns {
            if let Some((ftable, fcol)) = &col.references {
                if ftable != &name {
                    let target = self.table(ftable)?;
                    if target.schema.column_index(fcol).is_none() {
                        return Err(DbError::NoSuchColumn {
                            table: ftable.clone(),
                            column: fcol.clone(),
                        });
                    }
                }
            }
        }
        self.tables.insert(name.clone(), Table::new(schema.clone()));
        self.undo.push(Undo::CreateTable { name: name.clone() });
        self.pending.push(&WalRecord::CreateTable { schema });
        Ok(())
    }

    /// DROP TABLE.
    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if !self.tables.contains_key(&key) {
            if if_exists {
                return Ok(());
            }
            return Err(DbError::NoSuchTable(key));
        }
        // Refuse to drop a table referenced by another table's FK.
        for (tname, t) in &self.tables {
            if tname == &key {
                continue;
            }
            for col in &t.schema.columns {
                if let Some((ftable, _)) = &col.references {
                    if ftable == &key {
                        return Err(DbError::ForeignKeyViolation {
                            table: tname.clone(),
                            column: col.name.clone(),
                            references: key.clone(),
                        });
                    }
                }
            }
        }
        let table = self.tables.remove(&key).expect("checked above");
        for ix in table.indexes.keys() {
            self.index_owner.remove(ix);
        }
        self.undo.push(Undo::RestoreTable {
            name: key.clone(),
            table: Box::new(table),
        });
        self.pending.push(&WalRecord::DropTable { name: key });
        Ok(())
    }

    /// ALTER TABLE ADD COLUMN.
    pub fn add_column(&mut self, table: &str, column: ColumnDef) -> Result<()> {
        if let Some((ftable, fcol)) = &column.references {
            let target = self.table(ftable)?;
            if target.schema.column_index(fcol).is_none() {
                return Err(DbError::NoSuchColumn {
                    table: ftable.clone(),
                    column: fcol.clone(),
                });
            }
        }
        let key = table.to_ascii_lowercase();
        let t = self.table_mut_raw(&key)?;
        let snapshot = t.clone();
        t.add_column(column.clone())?;
        self.undo.push(Undo::RestoreTable {
            name: key.clone(),
            table: Box::new(snapshot),
        });
        self.pending
            .push(&WalRecord::AddColumn { table: key, column });
        Ok(())
    }

    /// ALTER TABLE DROP COLUMN.
    pub fn drop_column(&mut self, table: &str, column: &str) -> Result<()> {
        let key = table.to_ascii_lowercase();
        let t = self.table_mut_raw(&key)?;
        let snapshot = t.clone();
        let col_idx = t.schema.column_index(column);
        let dropped_ix: Vec<String> = match col_idx {
            Some(i) => t
                .indexes
                .iter()
                .filter(|(_, ix)| ix.column == i)
                .map(|(n, _)| n.clone())
                .collect(),
            None => Vec::new(),
        };
        t.drop_column(column)?;
        for n in dropped_ix {
            self.index_owner.remove(&n);
        }
        self.undo.push(Undo::RestoreTable {
            name: key.clone(),
            table: Box::new(snapshot),
        });
        self.pending.push(&WalRecord::DropColumn {
            table: key,
            column: column.to_ascii_lowercase(),
        });
        Ok(())
    }

    /// CREATE \[UNIQUE\] INDEX.
    pub fn create_index(
        &mut self,
        name: &str,
        table: &str,
        column: &str,
        unique: bool,
    ) -> Result<()> {
        let iname = name.to_ascii_lowercase();
        let tkey = table.to_ascii_lowercase();
        if self.index_owner.contains_key(&iname) {
            return Err(DbError::Unsupported(format!(
                "index {iname} already exists"
            )));
        }
        let t = self.table_mut_raw(&tkey)?;
        t.create_index(&iname, column, unique)?;
        self.index_owner.insert(iname.clone(), tkey.clone());
        self.undo.push(Undo::CreateIndex {
            table: tkey.clone(),
            name: iname.clone(),
        });
        self.pending.push(&WalRecord::CreateIndex {
            table: tkey,
            name: iname,
            column: column.to_ascii_lowercase(),
            unique,
        });
        Ok(())
    }

    /// DROP INDEX.
    pub fn drop_index(&mut self, name: &str) -> Result<()> {
        let iname = name.to_ascii_lowercase();
        let tkey = self
            .index_owner
            .get(&iname)
            .cloned()
            .ok_or_else(|| DbError::Unsupported(format!("no such index: {iname}")))?;
        let t = self.table_mut_raw(&tkey)?;
        let snapshot = t.clone();
        t.drop_index(&iname)?;
        self.index_owner.remove(&iname);
        self.undo.push(Undo::RestoreTable {
            name: tkey.clone(),
            table: Box::new(snapshot),
        });
        self.pending.push(&WalRecord::DropIndex {
            table: tkey,
            name: iname,
        });
        Ok(())
    }

    // ---------------- DML ----------------

    /// Resolve the FOREIGN KEY columns of `schema` once, so a statement
    /// checks each row without repeating the catalog lookups.
    fn foreign_keys(&self, schema: &TableSchema) -> Vec<ForeignKey> {
        schema
            .columns
            .iter()
            .enumerate()
            .filter_map(|(column, col)| {
                let (table, target_column) = col.references.clone()?;
                let target = self
                    .tables
                    .get(&table)
                    .and_then(|t| t.schema.column_index(&target_column));
                Some(ForeignKey {
                    column,
                    name: col.name.clone(),
                    ty: col.ty,
                    table,
                    target_column,
                    target,
                    last_found: None,
                })
            })
            .collect()
    }

    /// Check FK constraints for a prospective row of `table`.
    fn check_foreign_keys(&self, table: &str, fks: &mut [ForeignKey], row: &Row) -> Result<()> {
        for fk in fks {
            let raw = &row[fk.column];
            if raw.is_null() {
                continue;
            }
            // FK checks run before column coercion; coerce a copy so a
            // text '1' matches an integer key 1 the same way the stored
            // row eventually will.
            let coerced;
            let v = if raw.data_type() == Some(fk.ty) {
                raw
            } else {
                coerced = raw.coerce(fk.ty);
                coerced.as_ref().unwrap_or(raw)
            };
            if fk.last_found.as_ref() == Some(v) {
                continue;
            }
            let target = self.table(&fk.table)?;
            let fidx = fk.target.ok_or_else(|| DbError::NoSuchColumn {
                table: fk.table.clone(),
                column: fk.target_column.clone(),
            })?;
            let found = match target.index_on(fidx) {
                Some(ix) => ix.contains(v),
                None => target.iter().any(|(_, r)| r[fidx].sql_eq(v) == Some(true)),
            };
            if !found {
                return Err(DbError::ForeignKeyViolation {
                    table: table.to_string(),
                    column: fk.name.clone(),
                    references: format!("{}.{}", fk.table, fk.target_column),
                });
            }
            fk.last_found = Some(v.clone());
        }
        Ok(())
    }

    /// Check that no row in any table references `(table, key_col) = value`.
    fn check_not_referenced(&self, table: &str, row: &Row, schema: &TableSchema) -> Result<()> {
        for (rname, rtable) in &self.tables {
            for (ci, col) in rtable.schema.columns.iter().enumerate() {
                let Some((ftable, fcol)) = &col.references else {
                    continue;
                };
                if ftable != table {
                    continue;
                }
                let Some(key_idx) = schema.column_index(fcol) else {
                    continue;
                };
                let key = &row[key_idx];
                if key.is_null() {
                    continue;
                }
                let referenced = match rtable.index_on(ci) {
                    Some(ix) => ix.contains(key),
                    None => rtable.iter().any(|(_, r)| r[ci].sql_eq(key) == Some(true)),
                };
                if referenced {
                    return Err(DbError::ForeignKeyViolation {
                        table: rname.clone(),
                        column: col.name.clone(),
                        references: format!("{table}.{fcol}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Insert a row (values in schema order, `Value::Null` for omitted
    /// AUTO_INCREMENT). Returns the row id and the stored row.
    pub fn insert_row(&mut self, table: &str, row: Row) -> Result<RowId> {
        let key = catalog_key(table).into_owned();
        let mut fks = {
            let t = self.table(&key)?;
            if row.len() != t.schema.columns.len() {
                return Err(DbError::Arity {
                    expected: t.schema.columns.len(),
                    got: row.len(),
                });
            }
            self.foreign_keys(&t.schema)
        };
        let id = self.insert_checked(&key, &mut fks, row)?;
        self.undo.push(Undo::Insert {
            table: key,
            ids: vec![id],
        });
        Ok(id)
    }

    /// Check `row`'s foreign keys, insert it into the table `key`, and log
    /// it for the pending commit. The caller records the undo entry.
    fn insert_checked(&mut self, key: &str, fks: &mut [ForeignKey], row: Row) -> Result<RowId> {
        self.check_foreign_keys(key, fks, &row)?;
        let logging = self.logging();
        let t = self
            .tables
            .get_mut(key)
            .ok_or_else(|| DbError::NoSuchTable(key.to_string()))?;
        let id = t.insert(row)?;
        if logging {
            let row = t.row(id).expect("just inserted");
            self.pending.push_insert(key, id, row);
        }
        Ok(id)
    }

    /// Bulk-insert pre-evaluated value tuples into `table` — the
    /// group-commit fast path used by importers. `columns` names the
    /// position of each tuple element (empty = full schema order); omitted
    /// columns take their declared defaults, and an omitted AUTO_INCREMENT
    /// primary key is assigned as usual. All rows join the current pending
    /// batch, so under autocommit the entire bulk lands in **one** WAL
    /// append (and one fsync under [`crate::storage::Durability::Fsync`]).
    /// The table, column map and foreign-key targets are resolved once per
    /// batch, and the batch is one undo entry. Tuples that give every
    /// column in schema order are stored as they are, without a copy.
    ///
    /// Returns the inserted-row count and the last generated
    /// AUTO_INCREMENT id, mirroring `INSERT`'s outcome.
    pub fn bulk_insert(
        &mut self,
        table: &str,
        columns: &[&str],
        rows: Vec<Row>,
    ) -> Result<(usize, Option<i64>)> {
        let key = catalog_key(table).into_owned();
        let (col_map, auto_pk, defaults, mut fks) = {
            let t = self.table(&key)?;
            let n = t.schema.columns.len();
            let map: Vec<usize> = if columns.is_empty() {
                (0..n).collect()
            } else {
                let mut m = Vec::with_capacity(columns.len());
                for c in columns {
                    m.push(
                        t.schema
                            .column_index(c)
                            .ok_or_else(|| DbError::NoSuchColumn {
                                table: table.to_string(),
                                column: c.to_string(),
                            })?,
                    );
                }
                m
            };
            let auto = t
                .schema
                .primary_key_index()
                .filter(|&i| t.schema.columns[i].auto_increment);
            let defaults: Row = t
                .schema
                .columns
                .iter()
                .map(|c| c.default.clone().unwrap_or(Value::Null))
                .collect();
            (map, auto, defaults, self.foreign_keys(&t.schema))
        };
        // Tuples that name every column in schema order are already rows.
        let full_width = col_map.iter().copied().eq(0..defaults.len());
        let mut ids = Vec::with_capacity(rows.len());
        let mut result = Ok(());
        for tuple in rows {
            if tuple.len() != col_map.len() {
                result = Err(DbError::Arity {
                    expected: col_map.len(),
                    got: tuple.len(),
                });
                break;
            }
            let row = if full_width {
                tuple
            } else {
                let mut row: Row = defaults.clone();
                for (slot, value) in col_map.iter().zip(tuple) {
                    row[*slot] = value;
                }
                row
            };
            match self.insert_checked(&key, &mut fks, row) {
                Ok(id) => ids.push(id),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        let count = ids.len();
        let last = match (auto_pk, ids.last()) {
            (Some(pk), Some(&id)) => self.table(&key)?.row(id).and_then(|r| r[pk].as_int()),
            _ => None,
        };
        if !ids.is_empty() {
            self.undo.push(Undo::Insert { table: key, ids });
        }
        result?;
        telemetry::add("db.bulk_insert.rows", count as u64);
        Ok((count, last))
    }

    /// Delete a row by id.
    pub fn delete_row(&mut self, table: &str, id: RowId) -> Result<()> {
        let key = catalog_key(table).into_owned();
        {
            let t = self.table(&key)?;
            let row = t
                .row(id)
                .ok_or_else(|| DbError::Corrupt(format!("delete of unknown row {id}")))?
                .clone();
            let schema = t.schema.clone();
            self.check_not_referenced(&key, &row, &schema)?;
        }
        let logging = self.logging();
        let t = self.table_mut_raw(&key)?;
        let row = t.delete(id)?;
        self.undo.push(Undo::Delete {
            table: key.clone(),
            id,
            row,
        });
        if logging {
            self.pending.push(&WalRecord::Delete { table: key, id });
        }
        Ok(())
    }

    /// Update a row by id with a full replacement row.
    pub fn update_row(&mut self, table: &str, id: RowId, new_row: Row) -> Result<()> {
        let key = catalog_key(table).into_owned();
        {
            let t = self.table(&key)?;
            self.check_foreign_keys(&key, &mut self.foreign_keys(&t.schema), &new_row)?;
            // If a referenced key column changes, enforce RESTRICT.
            let old = t
                .row(id)
                .ok_or_else(|| DbError::Corrupt(format!("update of unknown row {id}")))?;
            let schema = t.schema.clone();
            let changed_keys: Vec<usize> = schema
                .columns
                .iter()
                .enumerate()
                .filter(|(i, _)| old.get(*i) != new_row.get(*i))
                .map(|(i, _)| i)
                .collect();
            if !changed_keys.is_empty() {
                // Only need the referenced-check for the old values.
                let mut probe = old.clone();
                // Mask out unchanged columns so the check only fires on
                // columns whose value is going away.
                for (i, v) in probe.iter_mut().enumerate() {
                    if !changed_keys.contains(&i) {
                        *v = Value::Null;
                    }
                }
                self.check_not_referenced(&key, &probe, &schema)?;
            }
        }
        let logging = self.logging();
        let t = self
            .tables
            .get_mut(&key)
            .ok_or_else(|| DbError::NoSuchTable(key.clone()))?;
        let old = t.update(id, new_row)?;
        if logging {
            self.pending
                .push_update(&key, id, t.row(id).expect("just updated"));
        }
        self.undo.push(Undo::Update {
            table: key,
            id,
            old,
        });
        Ok(())
    }
}

/// Catalog key of a table name: names are case-insensitive and stored
/// lower-case, so an already lower-case name is used as is.
fn catalog_key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// A FOREIGN KEY column of a table, resolved against the catalog.
struct ForeignKey {
    /// Offset of the referencing column.
    column: usize,
    /// Name of the referencing column (for errors).
    name: String,
    /// Declared type of the referencing column; probes coerce to it.
    ty: DataType,
    /// Referenced table (catalog key) and column name.
    table: String,
    target_column: String,
    /// Offset of the referenced column; `None` if it does not exist,
    /// which is reported only when a row sets the key.
    target: Option<usize>,
    /// The key most recently found in the target. A statement only adds
    /// rows while it checks keys, so a found key stays found, and the
    /// consecutive rows of a bulk insert that share a key probe once.
    last_found: Option<Value>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_parent_child() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "parent",
                vec![
                    ColumnDef::new("id", DataType::Integer)
                        .primary_key()
                        .auto_increment(),
                    ColumnDef::new("name", DataType::Text),
                ],
            )
            .unwrap(),
            false,
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "child",
                vec![
                    ColumnDef::new("id", DataType::Integer)
                        .primary_key()
                        .auto_increment(),
                    ColumnDef::new("parent", DataType::Integer).references("parent", "id"),
                ],
            )
            .unwrap(),
            false,
        )
        .unwrap();
        db.stmt_finish().unwrap();
        db
    }

    #[test]
    fn fk_insert_enforced() {
        let mut db = db_with_parent_child();
        assert!(matches!(
            db.insert_row("child", vec![Value::Null, Value::Int(99)]),
            Err(DbError::ForeignKeyViolation { .. })
        ));
        db.insert_row("parent", vec![Value::Null, "p".into()])
            .unwrap();
        db.insert_row("child", vec![Value::Null, Value::Int(1)])
            .unwrap();
        // NULL FK is allowed
        db.insert_row("child", vec![Value::Null, Value::Null])
            .unwrap();
    }

    #[test]
    fn fk_accepts_coercible_values() {
        let mut db = db_with_parent_child();
        db.insert_row("parent", vec![Value::Null, "p".into()])
            .unwrap();
        // text '1' coerces to the integer key 1 before the FK check
        db.insert_row("child", vec![Value::Null, Value::Text("1".into())])
            .unwrap();
        assert_eq!(db.table("child").unwrap().len(), 1);
    }

    #[test]
    fn fk_delete_restricted() {
        let mut db = db_with_parent_child();
        db.insert_row("parent", vec![Value::Null, "p".into()])
            .unwrap();
        db.insert_row("child", vec![Value::Null, Value::Int(1)])
            .unwrap();
        assert!(matches!(
            db.delete_row("parent", 0),
            Err(DbError::ForeignKeyViolation { .. })
        ));
        db.delete_row("child", 0).unwrap();
        db.delete_row("parent", 0).unwrap();
    }

    #[test]
    fn fk_update_restricted() {
        let mut db = db_with_parent_child();
        db.insert_row("parent", vec![Value::Null, "p".into()])
            .unwrap();
        db.insert_row("child", vec![Value::Null, Value::Int(1)])
            .unwrap();
        // Changing the referenced pk away is refused...
        assert!(matches!(
            db.update_row("parent", 0, vec![Value::Int(5), "p".into()]),
            Err(DbError::ForeignKeyViolation { .. })
        ));
        // ...but updating a non-key column is fine.
        db.update_row("parent", 0, vec![Value::Int(1), "renamed".into()])
            .unwrap();
    }

    #[test]
    fn drop_referenced_table_refused() {
        let mut db = db_with_parent_child();
        assert!(matches!(
            db.drop_table("parent", false),
            Err(DbError::ForeignKeyViolation { .. })
        ));
        db.drop_table("child", false).unwrap();
        db.drop_table("parent", false).unwrap();
    }

    #[test]
    fn transaction_rollback_restores_rows() {
        let mut db = db_with_parent_child();
        db.insert_row("parent", vec![Value::Null, "keep".into()])
            .unwrap();
        db.stmt_finish().unwrap();
        db.begin().unwrap();
        db.insert_row("parent", vec![Value::Null, "gone".into()])
            .unwrap();
        db.update_row("parent", 0, vec![Value::Int(1), "changed".into()])
            .unwrap();
        db.rollback().unwrap();
        let t = db.table("parent").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(0).unwrap()[1], Value::Text("keep".into()));
    }

    #[test]
    fn transaction_rollback_restores_ddl() {
        let mut db = db_with_parent_child();
        db.begin().unwrap();
        db.create_table(
            TableSchema::new("temp", vec![ColumnDef::new("x", DataType::Integer)]).unwrap(),
            false,
        )
        .unwrap();
        db.add_column("parent", ColumnDef::new("extra", DataType::Text))
            .unwrap();
        db.create_index("ix_name", "parent", "name", false).unwrap();
        db.rollback().unwrap();
        assert!(!db.has_table("temp"));
        assert!(db.table("parent").unwrap().schema.column("extra").is_none());
        assert!(!db.table("parent").unwrap().indexes.contains_key("ix_name"));
    }

    #[test]
    fn statement_abort_is_partial() {
        let mut db = db_with_parent_child();
        db.begin().unwrap();
        db.insert_row("parent", vec![Value::Null, "a".into()])
            .unwrap();
        let mark = db.stmt_begin();
        db.insert_row("parent", vec![Value::Null, "b".into()])
            .unwrap();
        db.stmt_abort(mark);
        db.commit().unwrap();
        assert_eq!(db.table("parent").unwrap().len(), 1);
    }

    #[test]
    fn nested_begin_rejected() {
        let mut db = Database::new();
        db.begin().unwrap();
        assert!(db.begin().is_err());
        db.commit().unwrap();
        assert!(db.commit().is_err());
        assert!(db.rollback().is_err());
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "pdmf_dbtest_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut db = Database::open(&dir).unwrap();
            db.create_table(
                TableSchema::new(
                    "t",
                    vec![
                        ColumnDef::new("id", DataType::Integer)
                            .primary_key()
                            .auto_increment(),
                        ColumnDef::new("v", DataType::Double),
                    ],
                )
                .unwrap(),
                false,
            )
            .unwrap();
            db.stmt_finish().unwrap();
            let mark = db.stmt_begin();
            let _ = mark;
            db.insert_row("t", vec![Value::Null, Value::Float(1.5)])
                .unwrap();
            db.stmt_finish().unwrap();
            db.insert_row("t", vec![Value::Null, Value::Float(2.5)])
                .unwrap();
            db.stmt_finish().unwrap();
        }
        // Reopen: WAL replay restores everything.
        {
            let mut db = Database::open(&dir).unwrap();
            assert_eq!(db.table("t").unwrap().len(), 2);
            // Checkpoint, add more, reopen again: snapshot + WAL combine.
            db.checkpoint().unwrap();
            db.insert_row("t", vec![Value::Null, Value::Float(9.0)])
                .unwrap();
            db.stmt_finish().unwrap();
        }
        {
            let db = Database::open(&dir).unwrap();
            let t = db.table("t").unwrap();
            assert_eq!(t.len(), 3);
            assert_eq!(t.row(2).unwrap()[1], Value::Float(9.0));
            assert_eq!(t.next_auto_value(), 4);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_txn_not_persisted() {
        let dir = std::env::temp_dir().join(format!(
            "pdmf_dbtest_txn_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut db = Database::open(&dir).unwrap();
            db.create_table(
                TableSchema::new("t", vec![ColumnDef::new("x", DataType::Integer)]).unwrap(),
                false,
            )
            .unwrap();
            db.stmt_finish().unwrap();
            db.begin().unwrap();
            db.insert_row("t", vec![Value::Int(1)]).unwrap();
            // drop without commit — simulated crash
        }
        {
            let db = Database::open(&dir).unwrap();
            assert_eq!(db.table("t").unwrap().len(), 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
