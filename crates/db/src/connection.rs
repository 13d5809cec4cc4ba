//! Thread-safe connection facade — the JDBC-equivalent surface of the
//! engine (paper §3.1: "Access to the SQL interface is provided using the
//! JDBC API ... the tool programmer does not need to worry about
//! vendor-specific SQL syntax").
//!
//! A [`Connection`] is a cheap cloneable handle to a shared database.
//! SELECTs take a read lock (many readers run concurrently); mutating
//! statements take the write lock. Multi-statement transactions that must
//! exclude other writers should use [`Connection::transaction`], which
//! holds the write lock for the closure's duration.

use crate::database::Database;
use crate::error::{DbError, Result};
use crate::exec::{execute, Outcome, ResultSet};
use crate::observe::{self, RowCounts};
use crate::schema::ColumnDef;
use crate::sql::ast::Statement;
use crate::sql::parser::parse_statement_with_params;
use crate::value::Value;
use parking_lot::{Mutex, RwLock};
use perfdmf_telemetry as telemetry;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Entries retained by the per-connection parse cache.
const PARSE_CACHE_CAP: usize = 256;

/// LRU cache of parsed statements, keyed by SQL text. Statements are
/// pure ASTs (no schema binding happens at parse time), so entries never
/// need invalidation on DDL. Shared by all clones of a [`Connection`].
///
/// Telemetry: `db.sql.parse_cache_hits` / `db.sql.parse_cache_misses`.
#[derive(Default)]
struct ParseCache {
    inner: Mutex<ParseCacheInner>,
}

#[derive(Default)]
struct ParseCacheInner {
    /// SQL text → (parsed statement, `?` count, last-use tick).
    map: HashMap<String, (Arc<Statement>, usize, u64)>,
    /// Monotonic use counter backing the LRU ordering.
    tick: u64,
}

impl ParseCache {
    fn get(&self, sql: &str) -> Option<(Arc<Statement>, usize)> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(sql) {
            Some((statement, param_count, last_used)) => {
                *last_used = tick;
                telemetry::add("db.sql.parse_cache_hits", 1);
                Some((Arc::clone(statement), *param_count))
            }
            None => {
                telemetry::add("db.sql.parse_cache_misses", 1);
                None
            }
        }
    }

    fn put(&self, sql: &str, statement: Arc<Statement>, param_count: usize) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= PARSE_CACHE_CAP && !inner.map.contains_key(sql) {
            // Evict the least-recently-used entry. A linear scan over a
            // capped map is cheaper than keeping an order list coherent.
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, (_, _, used))| *used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
            }
        }
        inner
            .map
            .insert(sql.to_string(), (statement, param_count, tick));
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Parse `sql` for execution. Repeated SQL text hits the cache and
    /// skips the parser entirely.
    fn prepare(&self, sql: &str) -> Result<Prepared> {
        let (statement, param_count) = match self.get(sql) {
            Some(hit) => hit,
            None => {
                let _span = telemetry::span("db.parse");
                let (statement, param_count) = parse_statement_with_params(sql)?;
                let statement = Arc::new(statement);
                self.put(sql, Arc::clone(&statement), param_count);
                (statement, param_count)
            }
        };
        Ok(Prepared {
            statement,
            param_count,
            sql: sql.to_string(),
        })
    }
}

/// A handle to a shared database.
#[derive(Clone)]
pub struct Connection {
    db: Arc<RwLock<Database>>,
    parse_cache: Arc<ParseCache>,
    /// The database's registry, held here so adopting it takes no lock.
    telemetry: telemetry::Registry,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection").finish_non_exhaustive()
    }
}

/// A parsed, reusable statement with a known parameter count.
#[derive(Debug, Clone)]
pub struct Prepared {
    statement: Arc<Statement>,
    param_count: usize,
    /// Original SQL text, kept for the slow-query log.
    sql: String,
}

impl Prepared {
    /// The parsed statement.
    pub fn statement(&self) -> &Statement {
        &self.statement
    }

    /// The SQL text this statement was parsed from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Run this statement with `params` through `exec` under `registry`,
    /// inside one `db.exec` span, and record it in the statement metrics
    /// and the slow-query log. Every execution path of both handles ends here.
    fn run<T: RowCounts>(
        &self,
        registry: &telemetry::Registry,
        params: &[Value],
        exec: impl FnOnce(&Statement) -> Result<T>,
    ) -> Result<T> {
        if params.len() < self.param_count {
            return Err(DbError::MissingParameter(params.len()));
        }
        let _adopted = registry.adopt();
        let _span = telemetry::span("db.exec");
        let started = telemetry::enabled().then(Instant::now);
        let outcome = exec(&self.statement);
        if let Some(started) = started {
            observe::record_statement(registry, &self.sql, &outcome, started.elapsed());
        }
        outcome
    }
}

/// Reject a statement that yields no rows before it runs, so a caller
/// that passes the wrong SQL to a row-returning method gets an error and
/// no side effect. EXPLAIN (which returns plan rows) passes.
fn returns_rows(prepared: &Prepared, method: &str) -> Result<()> {
    match prepared.statement() {
        Statement::Select(_) | Statement::Explain { .. } => Ok(()),
        _ => Err(DbError::Unsupported(format!(
            "{method}() requires a SELECT statement"
        ))),
    }
}

impl Connection {
    fn wrap(db: Database) -> Connection {
        Connection {
            telemetry: db.telemetry().clone(),
            db: Arc::new(RwLock::new(db)),
            parse_cache: Arc::new(ParseCache::default()),
        }
    }

    /// Open an in-memory database.
    pub fn open_in_memory() -> Connection {
        Connection::wrap(Database::new())
    }

    /// Open (or create) a persistent database in `dir`. Fault dumps of
    /// its registry go to `flight_recorder.json` in `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Connection> {
        Connection::open_with_vfs(dir, crate::vfs::real())
    }

    /// Open (or create) a persistent database with file I/O routed through
    /// `vfs` — the entry point for fault-injection testing.
    pub fn open_with_vfs(
        dir: impl AsRef<Path>,
        vfs: Arc<dyn crate::vfs::Vfs>,
    ) -> Result<Connection> {
        let db = Database::open_with_vfs(dir.as_ref(), vfs)?;
        Ok(Connection::wrap(db))
    }

    /// The database's telemetry registry, which every `perfdmf_*` record
    /// table but `perfdmf_spans` shows. Clones share it.
    pub fn telemetry(&self) -> telemetry::Registry {
        self.telemetry.clone()
    }

    /// Parse a statement for repeated execution. Repeated SQL text hits
    /// the connection's LRU parse cache and skips the parser entirely.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let _adopted = self.telemetry.adopt();
        self.parse_cache.prepare(sql)
    }

    /// Number of statements currently retained by the parse cache.
    #[cfg(test)]
    pub(crate) fn parse_cache_len(&self) -> usize {
        self.parse_cache.len()
    }

    /// Execute a prepared statement.
    pub fn execute_prepared(&self, prepared: &Prepared, params: &[Value]) -> Result<Outcome> {
        prepared.run(&self.telemetry, params, |statement| match statement {
            // SELECT and EXPLAIN SELECT never mutate; run them under the
            // read lock so they share with other readers.
            Statement::Select(sel) => {
                let db = self.db.read();
                Ok(Outcome::Rows(crate::exec::select::execute_select(
                    &db, sel, params,
                )?))
            }
            Statement::Explain {
                statement: inner,
                analyze,
            } => match inner.as_ref() {
                Statement::Select(sel) => {
                    crate::exec::explain_select(&self.db.read(), sel, params, *analyze)
                }
                // EXPLAIN ANALYZE of DML executes the statement, so it
                // takes the write lock like any other mutation.
                _ => execute(&mut self.db.write(), statement, params),
            },
            _ => execute(&mut self.db.write(), statement, params),
        })
    }

    /// Parse and execute a statement.
    pub fn execute(&self, sql: &str, params: &[Value]) -> Result<Outcome> {
        let prepared = self.prepare(sql)?;
        self.execute_prepared(&prepared, params)
    }

    /// Execute a SELECT (or an EXPLAIN) and return its rows. Any other
    /// statement is an error and is not executed.
    pub fn query(&self, sql: &str, params: &[Value]) -> Result<ResultSet> {
        let prepared = self.prepare(sql)?;
        returns_rows(&prepared, "query")?;
        self.execute_prepared(&prepared, params)?.rows()
    }

    /// Execute a SELECT and call `each` with every output row, in order.
    /// A projection that is a run of consecutive columns of one table
    /// (`SELECT *` on one table, or `p.x, p.y, p.z` in column order) is
    /// lent straight from the table's row, under the read lock, with no
    /// value copied; any other projection, and a LEFT-join miss, fills one
    /// buffer reused for the next row. So no row is allocated unless ORDER
    /// BY, DISTINCT or grouping needs the whole result first. Returns the
    /// number of rows delivered.
    ///
    /// `each` runs under the connection's read lock: it must not execute
    /// statements on this connection or its clones. The statement is
    /// measured like [`Connection::query`] (span, statement metrics,
    /// slow-query log). A statement other than SELECT is an error and is
    /// not executed.
    pub fn query_each(
        &self,
        sql: &str,
        params: &[Value],
        mut each: impl FnMut(&[Value]),
    ) -> Result<usize> {
        let prepared = self.prepare(sql)?;
        let done = prepared.run(&self.telemetry, params, |statement| match statement {
            Statement::Select(sel) => {
                crate::exec::select::stream_select(&self.db.read(), sel, params, &mut |row| {
                    each(row)
                })
            }
            _ => Err(DbError::Unsupported(
                "query_each() requires a SELECT statement".into(),
            )),
        })?;
        Ok(done.returned as usize)
    }

    /// Execute a scalar SELECT (first column of first row).
    pub fn query_scalar(&self, sql: &str, params: &[Value]) -> Result<Value> {
        let rs = self.query(sql, params)?;
        Ok(rs.scalar().cloned().unwrap_or(Value::Null))
    }

    /// Execute DML and return the affected-row count.
    pub fn update(&self, sql: &str, params: &[Value]) -> Result<usize> {
        self.execute(sql, params)?.affected()
    }

    /// Execute an INSERT and return the generated AUTO_INCREMENT id, if any.
    pub fn insert(&self, sql: &str, params: &[Value]) -> Result<Option<i64>> {
        self.execute(sql, params)?.last_insert_id()
    }

    /// Bulk-insert pre-evaluated value tuples as one group-committed batch:
    /// the write lock is taken once, every row is validated and applied,
    /// and a single WAL append (one fsync under
    /// [`crate::storage::Durability::Fsync`]) covers the whole batch. On
    /// any row failure the entire batch rolls back.
    pub fn bulk_insert(
        &self,
        table: &str,
        columns: &[&str],
        rows: Vec<crate::table::Row>,
    ) -> Result<(usize, Option<i64>)> {
        let _adopted = self.telemetry.adopt();
        let _span = telemetry::span("db.bulk_insert");
        self.db
            .write()
            .atomically(|db| db.bulk_insert(table, columns, rows))
    }

    /// Set when WAL commit batches must reach stable storage.
    pub fn set_durability(&self, durability: crate::storage::Durability) {
        self.db.write().set_durability(durability);
    }

    /// Run `f` with exclusive access inside a transaction. Commits on `Ok`,
    /// rolls back on `Err`.
    pub fn transaction<T>(
        &self,
        f: impl FnOnce(&mut TransactionHandle<'_>) -> Result<T>,
    ) -> Result<T> {
        let _adopted = self.telemetry.adopt();
        let mut db = self.db.write();
        db.begin()?;
        let mut handle = TransactionHandle {
            db: &mut db,
            parse_cache: &self.parse_cache,
            telemetry: &self.telemetry,
        };
        match f(&mut handle) {
            Ok(v) => {
                db.commit()?;
                Ok(v)
            }
            Err(e) => {
                let _ = db.rollback();
                Err(e)
            }
        }
    }

    /// Names of all tables (the catalog half of `getMetaData()`).
    pub fn table_names(&self) -> Vec<String> {
        self.db.read().table_names()
    }

    /// Does a table exist?
    pub fn has_table(&self, name: &str) -> bool {
        self.db.read().has_table(name)
    }

    /// Column metadata for a table — PerfDMF's runtime schema discovery
    /// (the JDBC `getMetaData()` equivalent that makes the flexible
    /// APPLICATION/EXPERIMENT/TRIAL schema possible).
    pub fn table_meta(&self, table: &str) -> Result<Vec<ColumnDef>> {
        let db = self.db.read();
        Ok(db.table(table)?.schema.columns.clone())
    }

    /// Number of live rows in a table.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        let db = self.db.read();
        Ok(db.table(table)?.len())
    }

    /// Write a snapshot and truncate the WAL (persistent databases only).
    pub fn checkpoint(&self) -> Result<()> {
        let _adopted = self.telemetry.adopt();
        self.db.write().checkpoint()
    }
}

/// Exclusive access to the database within [`Connection::transaction`].
pub struct TransactionHandle<'a> {
    db: &'a mut Database,
    parse_cache: &'a ParseCache,
    telemetry: &'a telemetry::Registry,
}

impl TransactionHandle<'_> {
    /// Execute a statement inside the transaction. The SQL text goes
    /// through the connection's parse cache, like [`Connection::execute`].
    pub fn execute(&mut self, sql: &str, params: &[Value]) -> Result<Outcome> {
        let prepared = self.parse_cache.prepare(sql)?;
        self.execute_prepared(&prepared, params)
    }

    /// Execute a pre-parsed statement inside the transaction (parse once,
    /// run many — the bulk-load fast path).
    pub fn execute_prepared(&mut self, prepared: &Prepared, params: &[Value]) -> Result<Outcome> {
        if matches!(
            *prepared.statement,
            Statement::Begin | Statement::Commit | Statement::Rollback
        ) {
            return Err(DbError::Transaction(
                "transaction control statements are managed by transaction()".into(),
            ));
        }
        prepared.run(self.telemetry, params, |st| execute(self.db, st, params))
    }

    /// Execute a pre-parsed INSERT and return the generated id.
    pub fn insert_prepared(
        &mut self,
        prepared: &Prepared,
        params: &[Value],
    ) -> Result<Option<i64>> {
        self.execute_prepared(prepared, params)?.last_insert_id()
    }

    /// Bulk-insert pre-evaluated value tuples inside the transaction with
    /// statement-level atomicity: a failing row undoes the batch but leaves
    /// the surrounding transaction open. The rows commit with the
    /// transaction's single WAL batch.
    pub fn bulk_insert(
        &mut self,
        table: &str,
        columns: &[&str],
        rows: Vec<crate::table::Row>,
    ) -> Result<(usize, Option<i64>)> {
        let _span = telemetry::span("db.bulk_insert");
        self.db
            .atomically(|db| db.bulk_insert(table, columns, rows))
    }

    /// Query inside the transaction; like [`Connection::query`], a
    /// statement other than SELECT or EXPLAIN is rejected unexecuted.
    pub fn query(&mut self, sql: &str, params: &[Value]) -> Result<ResultSet> {
        let prepared = self.parse_cache.prepare(sql)?;
        returns_rows(&prepared, "query")?;
        self.execute_prepared(&prepared, params)?.rows()
    }

    /// INSERT returning the generated id.
    pub fn insert(&mut self, sql: &str, params: &[Value]) -> Result<Option<i64>> {
        self.execute(sql, params)?.last_insert_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_counters(conn: &Connection) -> (u64, u64) {
        let count = |name| conn.telemetry().counter(name).value();
        (
            count("db.sql.parse_cache_hits"),
            count("db.sql.parse_cache_misses"),
        )
    }

    #[test]
    fn repeated_sql_parses_once() {
        let conn = Connection::open_in_memory();
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)", &[])
            .unwrap();
        let sql = "SELECT v FROM t WHERE id = ?";
        let (h0, m0) = cache_counters(&conn);
        conn.query(sql, &[Value::Int(1)]).unwrap();
        let (h1, m1) = cache_counters(&conn);
        assert_eq!(h1 - h0, 0, "first use must miss");
        assert!(m1 - m0 >= 1, "first use must miss");
        for i in 0..5 {
            conn.query(sql, &[Value::Int(i)]).unwrap();
        }
        let (h2, m2) = cache_counters(&conn);
        assert_eq!(h2 - h1, 5, "every repeat must hit the parse cache");
        assert_eq!(m2 - m1, 0, "repeats must not re-parse");
        conn.transaction(|tx| {
            for i in 0..3 {
                tx.query(sql, &[Value::Int(i)])?;
            }
            Ok(())
        })
        .unwrap();
        let (h3, m3) = cache_counters(&conn);
        assert_eq!(h3 - h2, 3, "a transaction must use the same cache");
        assert_eq!(m3 - m2, 0, "a transaction must not re-parse");
    }

    #[test]
    fn parse_cache_evicts_least_recently_used() {
        let conn = Connection::open_in_memory();
        // Fill past capacity with distinct statements.
        for i in 0..PARSE_CACHE_CAP + 10 {
            conn.prepare(&format!("SELECT {i}")).unwrap();
        }
        assert_eq!(conn.parse_cache_len(), PARSE_CACHE_CAP);
        // The oldest entries are gone; the newest survive.
        let (h0, _) = cache_counters(&conn);
        conn.prepare(&format!("SELECT {}", PARSE_CACHE_CAP + 9))
            .unwrap();
        let (h1, _) = cache_counters(&conn);
        assert_eq!(h1 - h0, 1, "most recent entry must still be cached");
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let conn = Connection::open_in_memory();
        assert!(conn.prepare("SELEC nonsense").is_err());
        assert!(conn.prepare("SELEC nonsense").is_err());
        assert_eq!(conn.parse_cache_len(), 0);
    }

    #[test]
    fn clones_share_the_parse_cache() {
        let conn = Connection::open_in_memory();
        conn.prepare("SELECT 1").unwrap();
        let clone = conn.clone();
        let (h0, _) = cache_counters(&conn);
        clone.prepare("SELECT 1").unwrap();
        let (h1, _) = cache_counters(&conn);
        assert_eq!(h1 - h0, 1);
    }
}
