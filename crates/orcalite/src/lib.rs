//! `orcalite` — the Orca stand-in: a Cascades-style, extensible,
//! DBMS-agnostic query optimizer.
//!
//! Like gporca, this crate knows nothing about the host DBMS: metadata
//! arrives exclusively through the [`md::MetadataAccessor`] plug-in trait
//! (the paper's metadata provider boundary, §5), inputs are logical
//! descriptions of prepared query blocks, and outputs are physical plans
//! with Orca conventions (build side on the right, memo group ids on every
//! node as in Fig 6).
//!
//! Architecture:
//!
//! * [`desc`] — the logical input: a flat block description with a
//!   predicate pool (the paper's converter hands Orca trees with selection
//!   pushdown already accomplished, Listing 4).
//! * [`md`] — the metadata-accessor API plus Orca's metadata cache (§5.7).
//! * [`rules`] — normalization and transformation rules: OR factorization
//!   (the Q41 rewrite, §6.2/§7 item 4), predicate classification, and the
//!   apply/join placement freedom that stands in for the paper's 11
//!   apply/join swap rules (§7 item 1).
//! * [`cost`] — Orca's cost model ("relatively high index lookup and hash
//!   join costs", §9).
//! * [`memo`] — the memo: groups of logically equivalent expressions,
//!   explored along the block's join graph under three join-order search
//!   strategies — GREEDY, EXHAUSTIVE (left-deep dynamic programming) and
//!   EXHAUSTIVE2 (bushy dynamic programming, the "most thorough setting",
//!   §6).
//! * [`physical`] — Orca physical plans and search statistics.
//! * [`config`] — the knobs the paper tweaks: rule enable/disable flags
//!   (GbAgg-below-join disabled for the MySQL target, §7 item 5) and the
//!   search strategy.

pub mod config;
pub mod cost;
pub mod desc;
pub mod md;
pub mod memo;
pub mod physical;
pub mod rules;

pub use config::{
    FaultInjector, FaultKind, FaultSite, JoinOrderStrategy, OrcaConfig, SearchBudget,
};
pub use desc::{BlockDesc, EntryDesc, MemberDesc, RelSource};
pub use md::{MdCache, MdIndex, MdRelation, MetadataAccessor};
pub use memo::{optimize_block, optimize_block_cached};
pub use physical::{OrcaPlan, PhysNode, SearchStats};
