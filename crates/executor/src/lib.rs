//! Physical plans and their Volcano-style execution.
//!
//! Both optimization paths — the MySQL-like greedy optimizer and the
//! Orca-like Cascades optimizer (via the bridge's skeleton-plan conversion)
//! — produce the same [`plan::Plan`] trees, which this crate executes over
//! catalog tables. This mirrors the paper's architecture: whatever optimizer
//! picked the plan, *MySQL's executor* runs it (§3).
//!
//! The operator set is the one the paper's plans use: table scan, ordered
//! index scan, index range scan, index lookup ("ref" access), nested-loop
//! and hash joins (inner / left-outer / semi / anti-semi), filter,
//! stream/hash aggregation, sort, limit, projection, derived tables, and
//! materialization with per-outer-row invalidation (the "Invalidate
//! materialized tables (row from part)" annotation in Listing 7).
//!
//! Execution also counts *work units* (rows emitted, index lookups, hash
//! probes) so benchmark shapes are machine-independent.

pub mod agg;
pub mod exec;
pub mod governor;
mod keyhash;
pub mod observe;
pub mod ordering;
pub mod parallel;
pub mod plan;

pub use exec::{execute, ExecContext, ExecStats};
pub use governor::{GovernorSpec, QueryGovernor};
pub use observe::{q_error, NodeObservation, ObserverIndex};
pub use parallel::{parallelize, ParallelOpts, DEFAULT_MORSEL_ROWS};
pub use plan::{
    AccessPath, AggSpec, AggStrategy, Est, ExchangeKind, JoinKind, Plan, RowSpace, SortKey,
    TableRead,
};
