//! `mylite` — the MySQL 8.0 stand-in.
//!
//! Implements the MySQL query-processing pipeline of paper Fig 2:
//!
//! * [`resolve`] — the Resolver + Prepare phases: name resolution against
//!   the catalog, and the standard rewrite transformations (subqueries to
//!   semi/anti joins, scalar subqueries to derived tables, CTE expansion
//!   into per-reference copies, constant folding, outer-join
//!   simplification).
//! * [`bound`] — the prepared representation (the stand-in for MySQL's
//!   rewritten AST with its `TABLE_LIST`s).
//! * [`optimizer`] — MySQL's cost-based optimization, with its documented
//!   limitations faithfully reproduced: greedy join-order search, left-deep
//!   trees only, nested-loop preference with non-cost-based hash-join
//!   selection (paper §1 items 1–5).
//! * [`skeleton`] — the *skeleton plan*: join order, join methods, and
//!   access methods only (paper §2.2/§4.2). The Orca bridge produces these
//!   too; it is the integration's intermediary format.
//! * [`refine`] — plan refinement: predicate placement, aggregation, row
//!   ordering and limit enforcement; converts a skeleton into an executable
//!   [`taurus_executor::Plan`] (paper §4.3).
//! * [`explain`] — MySQL-flavoured `EXPLAIN` tree output (Listing 7 style).
//! * [`engine`] — the session facade tying parsing, optimization, and
//!   execution together, with a pluggable cost-based-optimizer backend (the
//!   hook the bridge plugs Orca into).
//! * [`knobs`] — the one table every per-statement setting is declared in.

pub mod bound;
pub mod engine;
pub mod explain;
pub mod feedback;
pub mod knobs;
pub mod optimizer;
pub mod orders;
pub mod plancache;
pub mod refine;
pub mod resolve;
pub mod skeleton;

pub use bound::{BoundQuery, BoundStatement, JoinEntry, OutputCol, TableMeta, TableSource};
pub use engine::{
    AnalyzedQuery, CatalogRef, CostBasedOptimizer, Engine, GovernedCounts, MySqlOptimizer,
    PlannedQuery, QueryOutput, SessionOpts,
};
pub use explain::NodeAnnotation;
pub use feedback::{FeedbackState, ObservationStore};
pub use knobs::PlanShape;
pub use plancache::{CacheEntry, CacheKey, CacheOutcome, Lookup, PlanCache, PlanCacheStats};
pub use skeleton::{AccessChoice, JoinMethod, SearchTrace, SkelLeaf, SkelNode, Skeleton};
