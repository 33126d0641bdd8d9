//! In-memory storage engine: heap tables and ordered indexes.
//!
//! The paper's system executes inside MySQL/InnoDB over Taurus Page Stores;
//! this reproduction substitutes an in-memory heap per table with ordered
//! secondary indexes (flat sorted arrays, binary-searched). What matters for the experiments is
//! that the same *access methods* exist — full table scan, ordered index
//! scan, and index lookup ("ref" access) — with the same asymptotic costs,
//! because the two optimizers' divergent access-method choices are a main
//! source of the paper's run-time differences.

pub mod index;
pub mod table;

pub use index::{IndexDef, OrderedIndex};
pub use table::{RowId, TableData};
