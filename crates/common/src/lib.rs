//! Shared foundations for the taurus-orca reproduction of
//! *Integrating the Orca Optimizer into MySQL* (EDBT 2022).
//!
//! This crate defines the data model used by every other crate in the
//! workspace:
//!
//! * [`types`] — the 31 MySQL column types and the 12 (+2 aggregation-only)
//!   *type categories* the paper's metadata provider groups them into (§5.1).
//! * [`value`] — runtime values with MySQL-style three-valued logic.
//! * [`datetime`] — proleptic-Gregorian civil date arithmetic used for
//!   `DATE` values and `INTERVAL` addition.
//! * [`expr`] — bound scalar expressions (post name-resolution) shared by the
//!   MySQL-like engine, the Orca-like optimizer, and the executor.
//! * [`row`] — rows, schemas and the layout machinery that lets one
//!   expression tree be evaluated against any join-order's concatenated rows.
//! * [`error`] — the workspace-wide error type.
//! * [`sync`] — poison-recovering lock helpers.

pub mod datetime;
pub mod error;
pub mod expr;
pub mod ids;
pub mod row;
pub mod sync;
pub mod types;
pub mod value;

pub use error::{Error, Result};
pub use expr::{AggFunc, BinOp, ColRef, Expr, ScalarFunc, UnOp};
pub use ids::{ColumnId, IndexId, Oid, TableId};
pub use row::{read_columns, Column, Layout, Row, Schema, ALL_COLUMNS};
pub use types::{DataType, MySqlType, TypeCategory};
pub use value::Value;
