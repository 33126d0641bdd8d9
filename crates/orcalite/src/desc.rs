//! Logical block descriptions — Orca's input.
//!
//! The paper's parse-tree converter produces Orca logical trees in which
//! selection pushdown has already been performed and subqueries have become
//! semi-joins or derived tables (Listings 3/4). This module is the typed
//! equivalent: a flat member list with a predicate pool, dependency edges
//! and join-entry semantics. Table descriptors carry the *query-table
//! index* (`qt`) the way the paper's descriptors carry `TABLE_LIST`
//! pointers (§4.1) — they flow through optimization untouched and come back
//! out on the physical plan, which is what makes plan translation cheap and
//! reliable.

use std::collections::BTreeSet;
use taurus_catalog::estimate::ColView;
use taurus_common::{Expr, Oid};

/// One key of an order descriptor: a bare column with a direction. NULLS
/// placement follows direction (ASC ⇒ NULLS FIRST, DESC ⇒ NULLS LAST),
/// matching the host's B-tree iteration order and its shared sort
/// comparator — so an index scan, a sort enforcer, and a merge all agree
/// on what "ordered on this key" means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderKey {
    /// Global query-table index owning the column.
    pub qt: usize,
    /// Column position within the table.
    pub col: usize,
    /// Descending direction (NULLS LAST); ascending (NULLS FIRST) otherwise.
    pub desc: bool,
}

/// Where a member's rows come from, as far as Orca is concerned.
#[derive(Debug, Clone, PartialEq)]
pub enum RelSource {
    /// Base relation identified by a metadata OID; everything else about it
    /// (name, cardinality, columns, indexes, histograms) comes from the
    /// metadata accessor.
    Base { oid: Oid },
    /// A derived table (subquery/CTE consumer). Opaque to the join search:
    /// the host already optimized its inner block and supplies estimates.
    /// `cols` carries per-output-column statistics propagated from the
    /// inner block (bare-column projections keep the base column's NDV,
    /// capped at the derived row count); empty means no column stats.
    Derived { rows: f64, cost: f64, width: usize, correlated: bool, cols: Vec<Option<ColView>> },
}

/// How a member joins its block (mirrors the host's prepared semantics).
#[derive(Debug, Clone, PartialEq)]
pub enum EntryDesc {
    Inner,
    LeftOuter { on: Vec<Expr> },
    Semi { on: Vec<Expr> },
    Anti { on: Vec<Expr>, null_aware: bool },
}

impl EntryDesc {
    pub fn is_inner(&self) -> bool {
        matches!(self, EntryDesc::Inner)
    }

    pub fn on(&self) -> &[Expr] {
        match self {
            EntryDesc::Inner => &[],
            EntryDesc::LeftOuter { on } | EntryDesc::Semi { on } | EntryDesc::Anti { on, .. } => on,
        }
    }
}

/// One table in the block.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberDesc {
    /// Global query-table index (the TABLE_LIST pointer stand-in).
    pub qt: usize,
    pub source: RelSource,
    pub entry: EntryDesc,
    /// Same-block qts that must join before this member.
    pub deps: BTreeSet<usize>,
}

impl MemberDesc {
    pub fn is_dependent(&self) -> bool {
        !self.entry.is_inner() || !self.deps.is_empty()
    }

    pub fn is_correlated_derived(&self) -> bool {
        matches!(self.source, RelSource::Derived { correlated: true, .. })
    }
}

/// A prepared query block, ready for join-order optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDesc {
    /// Size of the global query-table space (for layout bookkeeping).
    pub num_tables: usize,
    pub members: Vec<MemberDesc>,
    /// WHERE-conjunct pool over global qts (selection pushdown input).
    pub predicates: Vec<Expr>,
    /// Tables outside this block usable as parameters (correlation).
    pub outer: BTreeSet<usize>,
    /// Whether the block aggregates — used by the (disabled-by-default)
    /// GbAgg-below-join rule to report a changed block structure.
    pub has_aggregation: bool,
    /// The block's *interesting order* (System R): the minimal sort key the
    /// host will enforce above this block — GROUP BY columns (ascending)
    /// for aggregating blocks, ORDER BY keys otherwise, already reduced to
    /// bare columns with duplicates and constant-equated keys dropped.
    /// Empty when the block needs no order (or the keys are not bare
    /// columns). The memo costs order-delivering alternatives against
    /// plan-plus-enforcer and keeps whichever wins; the host's refinement
    /// independently re-verifies delivery before dropping any Sort.
    pub required_order: Vec<OrderKey>,
}

impl BlockDesc {
    pub fn member_qts(&self) -> BTreeSet<usize> {
        self.members.iter().map(|m| m.qt).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dependency_classification() {
        let inner = MemberDesc {
            qt: 0,
            source: RelSource::Base { oid: Oid(1) },
            entry: EntryDesc::Inner,
            deps: BTreeSet::new(),
        };
        assert!(!inner.is_dependent());
        let semi = MemberDesc {
            qt: 1,
            source: RelSource::Base { oid: Oid(2) },
            entry: EntryDesc::Semi { on: vec![] },
            deps: BTreeSet::new(),
        };
        assert!(semi.is_dependent());
        let correlated = MemberDesc {
            qt: 2,
            source: RelSource::Derived {
                rows: 1.0,
                cost: 10.0,
                width: 1,
                correlated: true,
                cols: Vec::new(),
            },
            entry: EntryDesc::Inner,
            deps: BTreeSet::from([0]),
        };
        assert!(correlated.is_dependent());
        assert!(correlated.is_correlated_derived());
    }
}
