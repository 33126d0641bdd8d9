//! The MySQL ↔ Orca integration bridge — the paper's contribution.
//!
//! Three components implement the interface between the two systems (the
//! blue boxes of paper Fig 3):
//!
//! * [`tree_converter`] — **Parse Tree Converter**: prepared MySQL query
//!   blocks become Orca logical block descriptions, with predicate
//!   segregation already performed and table descriptors carrying the
//!   query-table indexes (the `TABLE_LIST`-pointer trick of §4.1).
//! * [`provider`] (with [`oid`]) — **Metadata Provider**: the
//!   OID-keyed plug-in serving MySQL data-dictionary objects to Orca —
//!   type categories (§5.1), the arithmetic/comparison/aggregation
//!   expression cubes with commutators and inverses (§5.2–5.3), mapped and
//!   regular functions (§5.4), relations/statistics/histograms (§5.5) — all
//!   laid out in the base-plus-enumeration OID space of §5.6.
//! * [`plan_converter`] — **Orca Plan Converter**: Orca physical plans
//!   become MySQL *skeleton plans* through the two-pass translation of
//!   §4.2 (query-block discovery, best-position arrays, estimate copying,
//!   the inner-hash-join build-side flip of §7 item 2).
//!
//! [`router`] ties them together as a [`mylite::CostBasedOptimizer`]: a
//! query whose table-reference count reaches the *complex query threshold*
//! takes the Orca detour; anything Orca cannot handle — unsupported
//! constructs, exhausted search budgets, invalid skeletons, even panics —
//! falls back to the MySQL optimizer (§4.1/§4.2.1), with the reason
//! recorded per statement ([`router::FallbackReason`]). The [`validate`]
//! module is the skeleton-consistency gate the router runs before
//! accepting a converted plan.

pub mod oid;
pub mod plan_converter;
pub mod provider;
pub mod router;
pub mod tree_converter;
pub mod validate;

pub use provider::MySqlMdProvider;
pub use router::{FallbackCounts, FallbackReason, OrcaOptimizer, RouterStats};
pub use validate::validate_skeleton;
