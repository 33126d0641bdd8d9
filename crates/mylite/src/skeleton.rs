//! Skeleton plans — the integration's intermediary format.
//!
//! A skeleton plan "encodes the best join position and the best join method
//! for each table appearing in a query" (§4.2): join order, join methods,
//! and table access methods, with everything else (predicates, aggregation,
//! ordering, limits) left for plan refinement. Both the MySQL greedy
//! optimizer and the bridge's Orca plan converter produce skeletons; the
//! refinement phase is shared — exactly the paper's architecture.
//!
//! MySQL's native representation is the *best-position array* (Fig 7); the
//! paper extended it slightly to express bushy trees (§7 item 1). Here the
//! tree is primary and the best-position array is derived from it as the
//! pre-order left-to-right leaf sequence.

use std::borrow::Cow;
use taurus_common::Expr;

/// Join methods a skeleton records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinMethod {
    NestedLoop,
    Hash,
}

/// Access method chosen for a leaf.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessChoice {
    TableScan,
    /// Full ordered scan of an index (can supply a sort order, §7 item 4).
    IndexScan {
        index: usize,
    },
    /// Range scan on an index's leading column with constant bounds; the
    /// consumed conjuncts are recorded so refinement doesn't re-apply them.
    IndexRange {
        index: usize,
        lo: Option<(Expr, bool)>,
        hi: Option<(Expr, bool)>,
        consumed: Vec<Expr>,
    },
    /// Index lookup ("ref" access) keyed by outer-row expressions.
    IndexLookup {
        index: usize,
        keys: Vec<Expr>,
        consumed: Vec<Expr>,
    },
    /// Cost-based IN-list rewrite: one point lookup per literal, results
    /// concatenated. The keys are sorted ascending and deduplicated, so the
    /// concatenation delivers the index's leading column in ascending order.
    InListProbes {
        index: usize,
        keys: Vec<Expr>,
        consumed: Vec<Expr>,
    },
    /// Derived table / CTE copy: the inner block's own skeleton.
    Derived {
        skeleton: Box<Skeleton>,
    },
}

impl AccessChoice {
    /// Short name for best-position displays and EXPLAIN.
    pub fn kind_name(&self) -> &'static str {
        match self {
            AccessChoice::TableScan => "table scan",
            AccessChoice::IndexScan { .. } => "index scan",
            AccessChoice::IndexRange { .. } => "index range",
            AccessChoice::IndexLookup { .. } => "index lookup",
            AccessChoice::InListProbes { .. } => "in-list probes",
            AccessChoice::Derived { .. } => "derived",
        }
    }
}

/// One best-position entry: a table, its access method, and the estimates
/// the paper says get copied into MySQL ("cost and cardinality estimations
/// ... are copied over to MySQL side", §4.2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct SkelLeaf {
    /// Global query-table index.
    pub qt: usize,
    pub access: AccessChoice,
    pub rows: f64,
    pub cost: f64,
}

/// A skeleton node: leaf or join.
#[derive(Debug, Clone, PartialEq)]
pub enum SkelNode {
    Leaf(SkelLeaf),
    Join {
        method: JoinMethod,
        left: Box<SkelNode>,
        right: Box<SkelNode>,
        rows: f64,
        cost: f64,
    },
    /// Sort-ahead the optimizer chose as cheaper than sorting the final
    /// result (`(key, desc)` per key). Refinement lowers it to a `Plan::Sort`
    /// and then independently re-verifies whether it (or the block-level
    /// enforcer above it) is redundant — the skeleton's claim is a costing
    /// decision, never trusted for correctness.
    Sort {
        input: Box<SkelNode>,
        keys: Vec<(Expr, bool)>,
        rows: f64,
        cost: f64,
    },
}

impl SkelNode {
    /// Pre-order left-to-right leaves — MySQL's best-position array.
    pub fn best_positions(&self) -> Vec<&SkelLeaf> {
        let mut out = Vec::new();
        fn walk<'a>(n: &'a SkelNode, out: &mut Vec<&'a SkelLeaf>) {
            match n {
                SkelNode::Leaf(l) => out.push(l),
                SkelNode::Join { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
                SkelNode::Sort { input, .. } => walk(input, out),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Qts covered by this subtree.
    pub fn qts(&self) -> Vec<usize> {
        self.best_positions().iter().map(|l| l.qt).collect()
    }

    pub fn rows(&self) -> f64 {
        match self {
            SkelNode::Leaf(l) => l.rows,
            SkelNode::Join { rows, .. } | SkelNode::Sort { rows, .. } => *rows,
        }
    }

    pub fn cost(&self) -> f64 {
        match self {
            SkelNode::Leaf(l) => l.cost,
            SkelNode::Join { cost, .. } | SkelNode::Sort { cost, .. } => *cost,
        }
    }

    /// Whether the tree is left-deep (every right child is a leaf).
    pub fn is_left_deep(&self) -> bool {
        match self {
            SkelNode::Leaf(_) => true,
            SkelNode::Join { left, right, .. } => {
                matches!(right.as_ref(), SkelNode::Leaf(_)) && left.is_left_deep()
            }
            SkelNode::Sort { input, .. } => input.is_left_deep(),
        }
    }
}

/// Optimizer search-effort trace for one statement: what the join-order
/// search did to produce this skeleton. Populated by the Orca detour
/// (summed over the statement's blocks); `None` for the native MySQL
/// optimizer, whose greedy walk has no memo to trace. Rendered as its own
/// line after the EXPLAIN banner and surfaced through `RouterStats`.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchTrace {
    /// Memo groups created.
    pub groups: usize,
    /// Group expressions (join splits) explored.
    pub group_exprs: u64,
    /// Normalization-rule applications attempted (e.g. OR factorization).
    pub rules_applied: u64,
    /// Rule applications that rewrote their input.
    pub rules_hit: u64,
    /// Physical alternatives costed.
    pub plans_costed: u64,
    /// Fraction of the plans-costed budget consumed, in [0, 1].
    pub budget_used: f64,
    /// Never-fail ladder rung that produced the plan (0 = the configured
    /// strategy succeeded outright).
    pub rung: usize,
    /// Join-order strategy of the winning rung, as it ran: a block whose
    /// EXHAUSTIVE2 search was capped to left-deep DP reads
    /// `EXHAUSTIVE2→EXHAUSTIVE(cap 13)`.
    pub strategy: Cow<'static, str>,
}

impl SearchTrace {
    /// One-line rendering for the EXPLAIN header block.
    pub fn display(&self) -> String {
        format!(
            "[search: strategy={} rung={} groups={} group_exprs={} rules={}/{} \
             plans_costed={} budget={:.0}%]",
            self.strategy,
            self.rung,
            self.groups,
            self.group_exprs,
            self.rules_hit,
            self.rules_applied,
            self.plans_costed,
            (self.budget_used * 100.0).min(100.0)
        )
    }
}

/// A full skeleton plan for one query block.
#[derive(Debug, Clone, PartialEq)]
pub struct Skeleton {
    pub root: SkelNode,
    /// Whether Orca chose this skeleton (drives the `EXPLAIN (ORCA)`
    /// banner, Listing 7).
    pub orca_assisted: bool,
    /// When the Orca detour was attempted but aborted, the fallback reason
    /// (e.g. `"panicked"`, `"budget-exhausted"`); `None` for Orca-assisted
    /// plans and for queries below the complex-query threshold. Shown in
    /// the EXPLAIN banner so fallbacks are observable per statement.
    pub orca_fallback: Option<String>,
    /// Always `None`: the session's dop knob alone decides parallelism.
    /// Kept only because the benchmark's replica reads it
    /// (perf/README.md "The pinned surface").
    pub dop: Option<usize>,
    /// Search-effort trace from the optimizer that built this skeleton
    /// (`None` when the backend doesn't trace, e.g. the native optimizer).
    pub search: Option<SearchTrace>,
    /// Set when this plan came from feedback-driven re-optimization: a
    /// short description of the injected observations (rendered as a
    /// `[reopt: …]` EXPLAIN line). `None` for estimate-only compiles.
    pub reopt: Option<String>,
}

impl Skeleton {
    /// The EXPLAIN first line (Listing 7, extended with fallback reasons).
    pub fn explain_banner(&self) -> String {
        if self.orca_assisted {
            "EXPLAIN (ORCA)".to_string()
        } else if let Some(reason) = &self.orca_fallback {
            format!("EXPLAIN (ORCA fallback: {reason})")
        } else {
            "EXPLAIN".to_string()
        }
    }

    /// Render the best-position array like Fig 7: `[part, derived_1_2,
    /// lineitem]`, via a caller-provided qt namer.
    pub fn best_position_display(&self, namer: &dyn Fn(usize) -> String) -> String {
        let names: Vec<String> = self.root.best_positions().iter().map(|l| namer(l.qt)).collect();
        format!("[{}]", names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(qt: usize) -> SkelNode {
        SkelNode::Leaf(SkelLeaf { qt, access: AccessChoice::TableScan, rows: 10.0, cost: 10.0 })
    }

    fn join(l: SkelNode, r: SkelNode) -> SkelNode {
        SkelNode::Join {
            method: JoinMethod::NestedLoop,
            left: Box::new(l),
            right: Box::new(r),
            rows: 100.0,
            cost: 100.0,
        }
    }

    #[test]
    fn best_positions_are_preorder_leaves() {
        // ((0 ⋈ 2) ⋈ 1)
        let tree = join(join(leaf(0), leaf(2)), leaf(1));
        let sk = Skeleton {
            root: tree,
            orca_assisted: false,
            orca_fallback: None,
            dop: None,
            search: None,
            reopt: None,
        };
        assert_eq!(sk.root.qts(), vec![0, 2, 1]);
        assert!(sk.root.is_left_deep());
        assert_eq!(sk.best_position_display(&|qt| format!("t{qt}")), "[t0, t2, t1]");
    }

    #[test]
    fn banner_reflects_provenance() {
        let mut sk = Skeleton {
            root: leaf(0),
            orca_assisted: true,
            orca_fallback: None,
            dop: None,
            search: None,
            reopt: None,
        };
        assert_eq!(sk.explain_banner(), "EXPLAIN (ORCA)");
        sk.orca_assisted = false;
        assert_eq!(sk.explain_banner(), "EXPLAIN");
        sk.orca_fallback = Some("panicked".into());
        assert_eq!(sk.explain_banner(), "EXPLAIN (ORCA fallback: panicked)");
    }

    #[test]
    fn search_trace_displays_every_counter() {
        let t = SearchTrace {
            groups: 7,
            group_exprs: 42,
            rules_applied: 3,
            rules_hit: 1,
            plans_costed: 99,
            budget_used: 0.25,
            rung: 1,
            strategy: "EXHAUSTIVE".into(),
        };
        assert_eq!(
            t.display(),
            "[search: strategy=EXHAUSTIVE rung=1 groups=7 group_exprs=42 rules=1/3 \
             plans_costed=99 budget=25%]"
        );
    }

    #[test]
    fn bushy_detection() {
        let bushy = join(leaf(0), join(leaf(1), leaf(2)));
        assert!(!bushy.is_left_deep());
        assert_eq!(bushy.qts(), vec![0, 1, 2]);
    }
}
