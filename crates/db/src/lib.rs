//! # perfdmf-db
//!
//! An embedded relational database engine — the DBMS substrate under
//! PerfDMF.
//!
//! The paper runs PerfDMF on PostgreSQL, MySQL, Oracle, or DB2 through
//! JDBC. This crate provides the equivalent substrate as a from-scratch
//! embedded engine so the framework is self-contained:
//!
//! * typed tables with PRIMARY KEY / UNIQUE / NOT NULL / FOREIGN KEY /
//!   DEFAULT / AUTO_INCREMENT constraints,
//! * ordered secondary indexes with equality and range pushdown,
//! * a SQL dialect covering everything the PerfDMF schema and API use:
//!   CREATE/DROP/ALTER TABLE, CREATE/DROP INDEX, INSERT/UPDATE/DELETE,
//!   SELECT with joins (inner/left/cross, hash-join fast path), WHERE,
//!   GROUP BY + HAVING, aggregates (COUNT/SUM/AVG/MIN/MAX/STDDEV),
//!   DISTINCT, ORDER BY (incl. aliases and ordinals), LIMIT/OFFSET,
//!   scalar functions, CASE, CAST, LIKE, IN, BETWEEN, and `?` parameters,
//! * transactions (BEGIN/COMMIT/ROLLBACK) with statement-level atomicity,
//! * durability via binary snapshots plus a checksummed write-ahead log
//!   with torn-tail recovery,
//! * runtime schema metadata (the JDBC `getMetaData()` equivalent PerfDMF
//!   relies on for its flexible APPLICATION/EXPERIMENT/TRIAL schema).
//!
//! ## Quick example
//!
//! ```
//! use perfdmf_db::{Connection, Value};
//!
//! let conn = Connection::open_in_memory();
//! conn.execute(
//!     "CREATE TABLE application (
//!          id INTEGER PRIMARY KEY AUTO_INCREMENT,
//!          name TEXT NOT NULL,
//!          version TEXT)",
//!     &[],
//! ).unwrap();
//! let id = conn
//!     .insert("INSERT INTO application (name, version) VALUES (?, ?)",
//!             &[Value::from("EVH1"), Value::from("1.0")])
//!     .unwrap()
//!     .unwrap();
//! let rs = conn
//!     .query("SELECT name FROM application WHERE id = ?", &[Value::Int(id)])
//!     .unwrap();
//! assert_eq!(rs.get(0, "name"), Some(&Value::from("EVH1")));
//! ```

#![warn(unreachable_pub)]

mod column;
mod connection;
mod database;
mod error;
mod exec;
mod faults;
mod index;
mod introspect;
mod observe;
mod plan;
mod schema;
mod sql;
pub mod storage;
mod table;
mod value;
mod vfs;

pub use connection::{Connection, Prepared, TransactionHandle};
pub use database::Database;
pub use error::{DbError, Result};
pub use exec::vector::{columnar_mode, override_for_thread as override_columnar, ColumnarMode};
pub use exec::{Outcome, ResultSet};
pub use faults::{FaultKind, FaultPlan, FaultVfs};
pub use introspect::is_reserved_name;
pub use perfdmf_telemetry::SlowQueryRecord;
pub use plan::{
    optimizer_config, override_for_thread as override_optimizer, OptimizerConfig,
    OptimizerOverrideGuard,
};
pub use schema::{ColumnDef, TableSchema};
pub use storage::Durability;
pub use table::{Row, RowId, Table};
pub use value::{Blob, DataType, IStr, Value};
pub use vfs::{RealVfs, Vfs, VfsFile};
