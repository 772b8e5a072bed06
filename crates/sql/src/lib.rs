//! # astore-sql
//!
//! A SQL front-end for the SPJGA subset A-Store executes (paper §3): a
//! hand-written lexer, recursive-descent parser and schema binder that turn
//! SQL text like the paper's Q1/Q3 examples into executable
//! [`astore_core::query::Query`] plans.
//!
//! The planner performs the paper's signature transformation: PK-FK
//! equi-join conditions in the WHERE clause are validated against the
//! schema's AIR edges and then *removed* — joins never execute, the
//! universal-table scan does.
//!
//! ```
//! use astore_storage::prelude::*;
//! use astore_sql::run_sql;
//! use astore_core::prelude::ExecOptions;
//!
//! let mut dim = Table::new("dim", Schema::new(vec![
//!     ColumnDef::new("d_name", DataType::Dict),
//! ]));
//! dim.append_row(&[Value::Str("a".into())]);
//! let mut fact = Table::new("fact", Schema::new(vec![
//!     ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
//!     ColumnDef::new("f_v", DataType::I64),
//! ]));
//! fact.append_row(&[Value::Key(0), Value::Int(5)]);
//! let mut db = Database::new();
//! db.add_table(dim);
//! db.add_table(fact);
//!
//! let out = run_sql(
//!     "SELECT d_name, sum(f_v) AS total FROM fact, dim GROUP BY d_name",
//!     &db,
//!     &ExecOptions::default(),
//! ).unwrap();
//! assert_eq!(out.result.rows.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod planner;
pub mod prepared;
pub mod statement;

use astore_core::exec::{execute, ExecOptions, ExecOutput};
use astore_storage::catalog::Database;

pub use parser::{opens_write, parse, parse_template, ParseError};
pub use planner::{plan, plan_with_params, sql_to_query, PlanError};
pub use prepared::{
    prepare, BoundStatement, ColumnType, ParamError, PrepareError, Prepared, PreparedKind,
};
pub use statement::{
    render_write, strip_explain, strip_explain_analyze, Arg, StatementTemplate, Write,
};

/// An error from any stage of SQL execution.
#[derive(Debug)]
pub enum SqlError {
    /// Parse/plan failure.
    Plan(PlanError),
    /// Schema-binding failure at execution time.
    Bind(astore_core::universal::BindError),
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Plan(e) => write!(f, "{e}"),
            SqlError::Bind(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SqlError {}

/// Parses, plans and executes a SQL string in one call.
pub fn run_sql(sql: &str, db: &Database, opts: &ExecOptions) -> Result<ExecOutput, SqlError> {
    let q = sql_to_query(sql, db).map_err(SqlError::Plan)?;
    execute(db, &q, opts).map_err(SqlError::Bind)
}
