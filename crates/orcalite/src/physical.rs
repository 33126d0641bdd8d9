//! Orca physical plans and search statistics.
//!
//! Every node carries its memo group id, as in the paper's Fig 6 plan
//! sketch ("the numbers after the physical operator names are the 'memo'
//! group ID's"), and the qt indexes flow through so the host's plan
//! converter never has to re-discover table identities (§4.1's
//! `TABLE_LIST`-pointer trick).

use crate::config::JoinOrderStrategy;
use crate::desc::OrderKey;
use std::fmt;
use taurus_common::Expr;

/// Join semantics, mirroring the host's entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysJoinKind {
    Inner,
    LeftOuter,
    Semi,
    AntiSemi,
}

impl PhysJoinKind {
    pub fn name(self) -> &'static str {
        match self {
            PhysJoinKind::Inner => "Inner",
            PhysJoinKind::LeftOuter => "LeftOuter",
            PhysJoinKind::Semi => "Semi",
            PhysJoinKind::AntiSemi => "AntiSemi",
        }
    }
}

/// A physical operator tree as Orca emits it.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysNode {
    /// Sequential scan of a base relation.
    Scan { qt: usize, preds: Vec<Expr>, rows: f64, cost: f64, group: usize },
    /// Index range scan over constant bounds on the index's leading column.
    IndexRange {
        qt: usize,
        /// Host-side index position.
        index: usize,
        lo: Option<(Expr, bool)>,
        hi: Option<(Expr, bool)>,
        /// Conjuncts consumed by the bounds.
        consumed: Vec<Expr>,
        /// Remaining local predicates.
        preds: Vec<Expr>,
        rows: f64,
        cost: f64,
        group: usize,
    },
    /// Full *ordered* scan of an index: every row fetched in key order, no
    /// bounds. Only emitted when the block has a required order this
    /// index's key prefix delivers — the memo's enforcer-free alternative
    /// to scan-then-sort.
    IndexScan { qt: usize, index: usize, preds: Vec<Expr>, rows: f64, cost: f64, group: usize },
    /// The cost-based IN-list rewrite: one point probe per listed value
    /// (keys sorted ascending, deduplicated), concatenated — delivering the
    /// index's leading column ascending as a side effect. Retained as a
    /// group expression alongside scan/range; the cost model chooses.
    InListProbes {
        qt: usize,
        index: usize,
        /// Sorted, deduplicated literal probe keys.
        keys: Vec<Expr>,
        /// The consumed `IN` conjunct.
        consumed: Vec<Expr>,
        /// Remaining local predicates.
        preds: Vec<Expr>,
        rows: f64,
        cost: f64,
        group: usize,
    },
    /// Index probe keyed by outer expressions (inner side of an index NLJ).
    IndexLookup {
        qt: usize,
        index: usize,
        keys: Vec<Expr>,
        consumed: Vec<Expr>,
        preds: Vec<Expr>,
        rows: f64,
        cost: f64,
        group: usize,
    },
    /// Derived-table scan (subquery/CTE consumer); the host supplies the
    /// inner plan.
    DerivedScan { qt: usize, preds: Vec<Expr>, rows: f64, cost: f64, group: usize },
    /// Nested-loop join / correlated apply.
    NLJoin {
        kind: PhysJoinKind,
        null_aware: bool,
        outer: Box<PhysNode>,
        inner: Box<PhysNode>,
        on: Vec<Expr>,
        rows: f64,
        cost: f64,
        group: usize,
    },
    /// Hash join. Orca's convention: **build side on the right** (§7 item
    /// 2); the host converter flips for MySQL inner hash joins.
    HashJoin {
        kind: PhysJoinKind,
        null_aware: bool,
        left: Box<PhysNode>,
        right: Box<PhysNode>,
        keys: Vec<(Expr, Expr)>,
        residual: Vec<Expr>,
        rows: f64,
        cost: f64,
        group: usize,
    },
    /// Sort enforcer placed *inside* the plan (sort-ahead §4: order a
    /// small input early and let order-preserving joins carry it to the
    /// root for free). Keys are the block's required order restricted to
    /// the input's qts.
    Sort { input: Box<PhysNode>, keys: Vec<OrderKey>, rows: f64, cost: f64, group: usize },
}

impl PhysNode {
    pub fn rows(&self) -> f64 {
        match self {
            PhysNode::Scan { rows, .. }
            | PhysNode::IndexRange { rows, .. }
            | PhysNode::IndexScan { rows, .. }
            | PhysNode::InListProbes { rows, .. }
            | PhysNode::IndexLookup { rows, .. }
            | PhysNode::DerivedScan { rows, .. }
            | PhysNode::NLJoin { rows, .. }
            | PhysNode::HashJoin { rows, .. }
            | PhysNode::Sort { rows, .. } => *rows,
        }
    }

    pub fn cost(&self) -> f64 {
        match self {
            PhysNode::Scan { cost, .. }
            | PhysNode::IndexRange { cost, .. }
            | PhysNode::IndexScan { cost, .. }
            | PhysNode::InListProbes { cost, .. }
            | PhysNode::IndexLookup { cost, .. }
            | PhysNode::DerivedScan { cost, .. }
            | PhysNode::NLJoin { cost, .. }
            | PhysNode::HashJoin { cost, .. }
            | PhysNode::Sort { cost, .. } => *cost,
        }
    }

    /// `(nested loop count, hash join count)` — the Fig 4/5 statistic.
    pub fn join_method_counts(&self) -> (usize, usize) {
        match self {
            PhysNode::NLJoin { outer, inner, .. } => {
                let (a, b) = outer.join_method_counts();
                let (c, d) = inner.join_method_counts();
                (a + c + 1, b + d)
            }
            PhysNode::HashJoin { left, right, .. } => {
                let (a, b) = left.join_method_counts();
                let (c, d) = right.join_method_counts();
                (a + c, b + d + 1)
            }
            PhysNode::Sort { input, .. } => input.join_method_counts(),
            _ => (0, 0),
        }
    }

    /// Whether the join tree is bushy (some join has a join on its right
    /// side) — the shape MySQL cannot natively execute (§7 item 1).
    pub fn is_bushy(&self) -> bool {
        fn is_join(n: &PhysNode) -> bool {
            matches!(n, PhysNode::NLJoin { .. } | PhysNode::HashJoin { .. })
        }
        match self {
            PhysNode::NLJoin { outer, inner, .. } => {
                is_join(inner) || outer.is_bushy() || inner.is_bushy()
            }
            PhysNode::HashJoin { left, right, .. } => {
                is_join(right) || left.is_bushy() || right.is_bushy()
            }
            PhysNode::Sort { input, .. } => input.is_bushy(),
            _ => false,
        }
    }

    /// Pre-order leaves' qt indexes (join order as positions).
    pub fn leaf_qts(&self) -> Vec<usize> {
        let mut out = Vec::new();
        fn walk(n: &PhysNode, out: &mut Vec<usize>) {
            match n {
                PhysNode::Scan { qt, .. }
                | PhysNode::IndexRange { qt, .. }
                | PhysNode::IndexScan { qt, .. }
                | PhysNode::InListProbes { qt, .. }
                | PhysNode::IndexLookup { qt, .. }
                | PhysNode::DerivedScan { qt, .. } => out.push(*qt),
                PhysNode::NLJoin { outer, inner, .. } => {
                    walk(outer, out);
                    walk(inner, out);
                }
                PhysNode::HashJoin { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
                PhysNode::Sort { input, .. } => walk(input, out),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Fig 6-style sketch: operator names with memo group ids.
    pub fn sketch(&self) -> String {
        let mut out = String::new();
        fn walk(n: &PhysNode, depth: usize, out: &mut String) {
            use fmt::Write;
            for _ in 0..depth {
                out.push_str("  ");
            }
            match n {
                PhysNode::Scan { qt, group, .. } => {
                    let _ = writeln!(out, "PhysicalTableScan {group} (qt{qt})");
                }
                PhysNode::IndexRange { qt, group, .. } => {
                    let _ = writeln!(out, "PhysicalIndexRangeScan {group} (qt{qt})");
                }
                PhysNode::IndexScan { qt, group, .. } => {
                    let _ = writeln!(out, "PhysicalIndexOnlyOrderedScan {group} (qt{qt})");
                }
                PhysNode::InListProbes { qt, group, keys, .. } => {
                    let _ = writeln!(out, "PhysicalInListProbes[{}] {group} (qt{qt})", keys.len());
                }
                PhysNode::IndexLookup { qt, group, .. } => {
                    let _ = writeln!(out, "PhysicalIndexScan {group} (qt{qt})");
                }
                PhysNode::DerivedScan { qt, group, .. } => {
                    let _ = writeln!(out, "PhysicalDerivedScan {group} (qt{qt})");
                }
                PhysNode::NLJoin { kind, outer, inner, group, .. } => {
                    let _ = writeln!(out, "PhysicalCorrelated{}NLJoin {group}", kind.name());
                    walk(outer, depth + 1, out);
                    walk(inner, depth + 1, out);
                }
                PhysNode::HashJoin { kind, left, right, group, .. } => {
                    let _ = writeln!(out, "Physical{}HashJoin {group}", kind.name());
                    walk(left, depth + 1, out);
                    walk(right, depth + 1, out);
                }
                PhysNode::Sort { input, group, .. } => {
                    let _ = writeln!(out, "PhysicalSort {group}");
                    walk(input, depth + 1, out);
                }
            }
        }
        walk(self, 0, &mut out);
        out
    }
}

/// Search effort statistics, the compile-time drivers of Table 1.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStats {
    /// Memo groups created.
    pub groups: usize,
    /// Join splits (group expressions) explored.
    pub splits_explored: u64,
    /// Physical alternatives costed.
    pub plans_costed: u64,
    /// Normalization-rule applications attempted (one per predicate run
    /// through a rule, e.g. OR factorization §6.2).
    pub rules_applied: u64,
    /// Rule applications that actually rewrote their input.
    pub rules_hit: u64,
}

/// The optimizer's output for one block.
#[derive(Debug, Clone)]
pub struct OrcaPlan {
    pub root: PhysNode,
    /// The strategy the search ran under — not always the configured one:
    /// EXHAUSTIVE2 runs as EXHAUSTIVE above `bushy_member_cap`.
    pub strategy: JoinOrderStrategy,
    pub stats: SearchStats,
    /// Set when an enabled rule changed the query-block structure (e.g.
    /// GbAgg pushed below a join) — the host must fall back to its own
    /// optimizer (§4.2.1).
    pub changed_block_structure: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(qt: usize) -> PhysNode {
        PhysNode::Scan { qt, preds: vec![], rows: 10.0, cost: 10.0, group: qt }
    }

    fn hj(l: PhysNode, r: PhysNode) -> PhysNode {
        PhysNode::HashJoin {
            kind: PhysJoinKind::Inner,
            null_aware: false,
            left: Box::new(l),
            right: Box::new(r),
            keys: vec![],
            residual: vec![],
            rows: 100.0,
            cost: 50.0,
            group: 99,
        }
    }

    #[test]
    fn shape_helpers() {
        let bushy = hj(scan(0), hj(scan(1), scan(2)));
        assert!(bushy.is_bushy());
        assert_eq!(bushy.join_method_counts(), (0, 2));
        assert_eq!(bushy.leaf_qts(), vec![0, 1, 2]);
        let left_deep = hj(hj(scan(0), scan(1)), scan(2));
        assert!(!left_deep.is_bushy());
    }

    #[test]
    fn sketch_includes_group_ids() {
        let plan = hj(scan(0), scan(1));
        let sketch = plan.sketch();
        assert!(sketch.contains("PhysicalInnerHashJoin 99"), "{sketch}");
        assert!(sketch.contains("PhysicalTableScan 0"), "{sketch}");
    }
}
