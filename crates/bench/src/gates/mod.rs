//! The CI gates: one module per gate, each with its typed measurement
//! rows, the `gate()` that judges them, the markdown formatter, and the
//! `run` function its [`crate::registry`] row points at. The row carries
//! the scale and budget `ci.sh` runs the gate at and says what it fails on.

pub mod concurrency;
pub mod feedback;
pub mod fuzz;
pub mod governance;
pub mod observe;
pub mod orders;
pub mod parallel;
pub mod plancache;
