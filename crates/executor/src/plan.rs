//! Physical plan trees.
//!
//! Plans are built by `mylite`'s plan-refinement phase — for both the MySQL
//! path and the Orca detour — and executed by [`crate::exec`].
//!
//! ## Row spaces
//!
//! Operators below the first projection/aggregation boundary produce rows in
//! *table space*: a concatenation of base-table rows described by a
//! [`Layout`], so `Expr::Column` references resolve regardless of join
//! order. `Project`, `Aggregate` and `Derived` change that: `Project` and
//! `Aggregate` emit *slot space* rows addressed by `Expr::Slot`, and
//! `Derived` re-homes a slot-space subplan's output as a fresh query table.
//!
//! A scan's `read.mask` is its *read set*: the columns of its table it emits
//! (bit `c` = column `c`, [`ALL_COLUMNS`] for all), as refinement computes
//! them from every expression of the plan.

use taurus_common::{AggFunc, Expr, Layout, TableId, ALL_COLUMNS};

/// Cardinality/cost estimate attached to a node for EXPLAIN output. The
/// estimates come from whichever optimizer produced the plan — for the Orca
/// path they are *copied over from the Orca plan* (paper §4.2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Est {
    pub rows: f64,
    pub cost: f64,
    /// Degree of parallelism this node executes under: 1 for serial
    /// operators, the worker count for operators inside a morsel-parallel
    /// fragment. EXPLAIN prints it only when > 1 so serial plan shapes are
    /// unchanged.
    pub dop: usize,
}

impl Default for Est {
    fn default() -> Est {
        Est { rows: 0.0, cost: 0.0, dop: 1 }
    }
}

impl Est {
    pub fn new(rows: f64, cost: f64) -> Est {
        Est { rows, cost, dop: 1 }
    }

    /// The same estimate annotated with a degree of parallelism.
    pub fn with_dop(self, dop: usize) -> Est {
        Est { dop: dop.max(1), ..self }
    }
}

/// Join semantics. `Semi`/`AntiSemi` are produced by subquery rewrites;
/// `Cross` is an inner join with no condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    LeftOuter,
    Semi,
    AntiSemi,
}

impl JoinKind {
    pub fn name(self) -> &'static str {
        match self {
            JoinKind::Inner => "inner join",
            JoinKind::LeftOuter => "left join",
            JoinKind::Semi => "semijoin",
            JoinKind::AntiSemi => "antijoin",
        }
    }
}

/// One aggregate computed by an [`Plan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub func: AggFunc,
    /// `None` only for `COUNT(*)`.
    pub arg: Option<Expr>,
    pub distinct: bool,
}

/// How an aggregation is executed (MySQL's plan refinement "chooses between
/// stream and hash aggregates", §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggStrategy {
    /// Requires input sorted by the group-by keys.
    Stream,
    Hash,
}

/// A sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    pub expr: Expr,
    pub desc: bool,
}

/// How a parallel [`Plan::Exchange`] moves rows between the serial section
/// of a plan and its morsel-parallel fragment (see `crate::parallel`).
#[derive(Debug, Clone, PartialEq)]
pub enum ExchangeKind {
    /// Collect per-morsel output buffers and concatenate them in morsel
    /// order — byte-identical to serial execution because every pipeline
    /// operator below preserves its driving scan's row order.
    Gather,
    /// Order-preserving gather above a per-morsel `Sort`: each morsel
    /// produces a sorted run and the gather k-way merges the runs on the
    /// sort keys, breaking ties by morsel index — which reproduces the
    /// serial stable sort exactly.
    GatherMerge,
    /// Hash-partition input rows on the keys so each worker owns a disjoint
    /// set of groups (two-phase partitioned aggregation).
    Repartition { keys: Vec<Expr> },
    /// Execute the input once and share the resulting hash-join build table
    /// with every worker. `slot` keys the shared-build cache and is assigned
    /// by [`Plan::assign_cache_slots`].
    Broadcast { slot: usize },
}

impl ExchangeKind {
    pub fn name(&self) -> &'static str {
        match self {
            ExchangeKind::Gather => "gather",
            ExchangeKind::GatherMerge => "gather-merge",
            ExchangeKind::Repartition { .. } => "repartition",
            ExchangeKind::Broadcast { .. } => "broadcast",
        }
    }
}

/// What kind of rows a plan node emits.
#[derive(Debug, Clone, PartialEq)]
pub enum RowSpace {
    /// Concatenated base-table rows, addressed via the layout.
    Tables(Layout),
    /// Flat rows of the given width, addressed by `Expr::Slot`.
    Slots(usize),
}

impl RowSpace {
    /// The layout for table-space rows; slot-space rows get an empty layout
    /// (any `Expr::Column` against it is an error, caught at eval time).
    pub fn layout(&self, num_tables: usize) -> Layout {
        match self {
            RowSpace::Tables(l) => l.clone(),
            RowSpace::Slots(_) => Layout::empty(num_tables),
        }
    }

    pub fn width(&self) -> usize {
        match self {
            RowSpace::Tables(l) => l.width(),
            RowSpace::Slots(w) => *w,
        }
    }
}

/// The table a [`Plan::Scan`] reads, whatever its access path: base table
/// `table` as query table `qt` of `width` columns, the columns it emits
/// (`mask`, its read set) and the pushed-down `filter` it tests on the
/// stored row.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRead {
    pub table: TableId,
    pub qt: usize,
    pub width: usize,
    pub mask: u64,
    pub filter: Vec<Expr>,
}

impl TableRead {
    /// A read of every column of `table`, filtered by `filter`.
    pub fn all(table: TableId, qt: usize, width: usize, filter: Vec<Expr>) -> TableRead {
        TableRead { table, qt, width, mask: ALL_COLUMNS, filter }
    }
}

/// How a [`Plan::Scan`] reaches its table's rows.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full heap scan, in insertion order.
    Heap,
    /// Full scan of an index in key order (may supply an ORDER BY).
    Index { index: usize },
    /// Range scan on an index's leading column. Bounds are constant
    /// expressions (or correlated expressions over outer bindings).
    Range { index: usize, lo: Option<(Expr, bool)>, hi: Option<(Expr, bool)> },
    /// Index lookup ("ref" access): key expressions are evaluated against
    /// the *outer binding* each time the node is opened — this is the inner
    /// side of an index nested-loop join.
    Lookup { index: usize, keys: Vec<Expr> },
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// A base-table leaf: the table it reads and the access path it reads it
    /// by (MySQL's `AccessPath`).
    Scan { read: TableRead, path: AccessPath, est: Est },
    /// Nested-loop join. The right side re-opens per left row with the left
    /// row added to the binding (which is how correlation works).
    /// `null_aware` applies to anti joins only (`NOT IN` semantics: an
    /// UNKNOWN comparison excludes the row).
    NestedLoop {
        kind: JoinKind,
        left: Box<Plan>,
        right: Box<Plan>,
        on: Vec<Expr>,
        null_aware: bool,
        est: Est,
    },
    /// Hash join. `build_left` mirrors MySQL's inner-hash-join convention
    /// (§7 item 2: MySQL builds on the LEFT for inner joins, on the right
    /// everywhere else).
    HashJoin {
        kind: JoinKind,
        build_left: bool,
        left: Box<Plan>,
        right: Box<Plan>,
        /// Pairs of (left-side key, right-side key).
        keys: Vec<(Expr, Expr)>,
        /// Non-equi residual predicates over the joined row.
        residual: Vec<Expr>,
        /// NULL-aware anti join (for `NOT IN` semantics).
        null_aware: bool,
        est: Est,
    },
    /// Residual filter.
    Filter { input: Box<Plan>, predicate: Vec<Expr>, est: Est },
    /// Re-homes a slot-space subplan as query table `qt` (a derived table
    /// or CTE consumer).
    Derived { input: Box<Plan>, qt: usize, width: usize, name: String, est: Est },
    /// Materialization buffer. `rebind = true` re-materializes every time
    /// the node is opened under a new binding (MySQL's "Invalidate
    /// materialized tables (row from ...)"); `rebind = false` caches the
    /// first execution in `cache_slot`.
    Materialize { input: Box<Plan>, rebind: bool, cache_slot: usize, est: Est },
    /// Projection into slot space.
    Project { input: Box<Plan>, exprs: Vec<Expr>, est: Est },
    /// Grouping + aggregation into slot space: output rows are
    /// `[group values..., aggregate values...]`.
    Aggregate {
        input: Box<Plan>,
        group_by: Vec<Expr>,
        aggs: Vec<AggSpec>,
        strategy: AggStrategy,
        est: Est,
    },
    /// Sort (space-preserving).
    Sort { input: Box<Plan>, keys: Vec<SortKey>, est: Est },
    /// Row-limit (space-preserving).
    Limit { input: Box<Plan>, n: u64, est: Est },
    /// Concatenation of same-width slot-space inputs, with optional
    /// de-duplication (UNION ALL / UNION DISTINCT).
    Union { inputs: Vec<Plan>, distinct: bool, est: Est },
    /// Parallel exchange (space-preserving): the boundary between the serial
    /// section above and the morsel-parallel fragment below, executed with
    /// `dop` workers. Placed by `crate::parallel::parallelize`; a serial
    /// executor may treat it as a no-op pass-through.
    Exchange { kind: ExchangeKind, input: Box<Plan>, dop: usize, est: Est },
}

impl Plan {
    /// The row space this node emits, given the number of query tables.
    pub fn space(&self, num_tables: usize) -> RowSpace {
        match self {
            Plan::Scan { read, .. } => {
                RowSpace::Tables(Layout::read_set(num_tables, read.qt, read.width, read.mask))
            }
            Plan::Derived { qt, width, .. } => {
                RowSpace::Tables(Layout::single(num_tables, *qt, *width))
            }
            Plan::NestedLoop { kind, left, right, .. }
            | Plan::HashJoin { kind, left, right, .. } => match kind {
                JoinKind::Semi | JoinKind::AntiSemi => left.space(num_tables),
                _ => match (left.space(num_tables), right.space(num_tables)) {
                    (RowSpace::Tables(l), RowSpace::Tables(r)) => RowSpace::Tables(l.join(&r)),
                    _ => panic!("joins operate in table space"),
                },
            },
            Plan::Filter { input, .. }
            | Plan::Materialize { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Exchange { input, .. } => input.space(num_tables),
            Plan::Project { exprs, .. } => RowSpace::Slots(exprs.len()),
            Plan::Aggregate { group_by, aggs, .. } => RowSpace::Slots(group_by.len() + aggs.len()),
            Plan::Union { inputs, .. } => {
                inputs.first().map(|p| p.space(num_tables)).unwrap_or(RowSpace::Slots(0))
            }
        }
    }

    /// Estimate attached to this node.
    pub fn est(&self) -> Est {
        match self {
            Plan::Scan { est, .. }
            | Plan::NestedLoop { est, .. }
            | Plan::HashJoin { est, .. }
            | Plan::Filter { est, .. }
            | Plan::Derived { est, .. }
            | Plan::Materialize { est, .. }
            | Plan::Project { est, .. }
            | Plan::Aggregate { est, .. }
            | Plan::Sort { est, .. }
            | Plan::Limit { est, .. }
            | Plan::Union { est, .. }
            | Plan::Exchange { est, .. } => *est,
        }
    }

    /// Mutable access to the node's estimate (used by exchange placement to
    /// stamp the fragment's degree of parallelism for EXPLAIN).
    pub fn est_mut(&mut self) -> &mut Est {
        match self {
            Plan::Scan { est, .. }
            | Plan::NestedLoop { est, .. }
            | Plan::HashJoin { est, .. }
            | Plan::Filter { est, .. }
            | Plan::Derived { est, .. }
            | Plan::Materialize { est, .. }
            | Plan::Project { est, .. }
            | Plan::Aggregate { est, .. }
            | Plan::Sort { est, .. }
            | Plan::Limit { est, .. }
            | Plan::Union { est, .. }
            | Plan::Exchange { est, .. } => est,
        }
    }

    /// Children, for generic traversals.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } => vec![],
            Plan::NestedLoop { left, right, .. } | Plan::HashJoin { left, right, .. } => {
                vec![left, right]
            }
            Plan::Filter { input, .. }
            | Plan::Derived { input, .. }
            | Plan::Materialize { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Exchange { input, .. } => vec![input],
            Plan::Union { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// Mutable children, mirroring [`Plan::children`].
    pub fn children_mut(&mut self) -> Vec<&mut Plan> {
        match self {
            Plan::Scan { .. } => vec![],
            Plan::NestedLoop { left, right, .. } | Plan::HashJoin { left, right, .. } => {
                vec![left, right]
            }
            Plan::Filter { input, .. }
            | Plan::Derived { input, .. }
            | Plan::Materialize { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Exchange { input, .. } => vec![input],
            Plan::Union { inputs, .. } => inputs.iter_mut().collect(),
        }
    }

    /// The slot count [`Plan::assign_cache_slots`] returned for this tree —
    /// its `Materialize` nodes — read without touching (or copying) the plan.
    pub fn cache_slots(&self) -> usize {
        match self {
            Plan::Scan { .. } => 0,
            Plan::NestedLoop { left, right, .. } | Plan::HashJoin { left, right, .. } => {
                left.cache_slots() + right.cache_slots()
            }
            Plan::Materialize { input, .. } => 1 + input.cache_slots(),
            Plan::Filter { input, .. }
            | Plan::Derived { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Exchange { input, .. } => input.cache_slots(),
            Plan::Union { inputs, .. } => inputs.iter().map(Plan::cache_slots).sum(),
        }
    }

    /// Assign distinct cache slots to every `Materialize` node (returning
    /// the slot count) and distinct shared-build slots to every `Broadcast`
    /// exchange. Call once after plan construction.
    pub fn assign_cache_slots(&mut self) -> usize {
        fn assign(plan: &mut Plan, next: &mut usize, next_bcast: &mut usize) {
            match plan {
                Plan::Materialize { cache_slot, .. } => {
                    *cache_slot = *next;
                    *next += 1;
                }
                Plan::Exchange { kind: ExchangeKind::Broadcast { slot }, .. } => {
                    *slot = *next_bcast;
                    *next_bcast += 1;
                }
                _ => {}
            }
            plan.children_mut().into_iter().for_each(|c| assign(c, next, next_bcast));
        }
        let mut n = 0;
        let mut b = 0;
        assign(self, &mut n, &mut b);
        n
    }

    /// Visit every expression embedded in the plan tree mutably — filters,
    /// join conditions, range bounds, lookup keys, projections, aggregate
    /// arguments and sort keys. `f` gets `Some(qt)` with a leaf's pushed-down
    /// filter over query table `qt` (tested on the stored row, not on what
    /// the leaf emits) and `None` with every other expression. The plan-cache
    /// hit path uses this to rebind `Expr::Param` values without
    /// reconstructing the plan; refinement, to compute leaves' read sets.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(Option<usize>, &mut Expr)) {
        match self {
            Plan::Scan { read, path, .. } => {
                match path {
                    AccessPath::Heap | AccessPath::Index { .. } => {}
                    AccessPath::Range { lo, hi, .. } => {
                        lo.iter_mut().chain(hi).for_each(|(e, _)| f(None, e))
                    }
                    AccessPath::Lookup { keys, .. } => keys.iter_mut().for_each(|e| f(None, e)),
                }
                read.filter.iter_mut().for_each(|e| f(Some(read.qt), e));
            }
            Plan::NestedLoop { left, right, on, .. } => {
                on.iter_mut().for_each(|e| f(None, e));
                left.for_each_expr_mut(f);
                right.for_each_expr_mut(f);
            }
            Plan::HashJoin { left, right, keys, residual, .. } => {
                for (l, r) in keys.iter_mut() {
                    f(None, l);
                    f(None, r);
                }
                residual.iter_mut().for_each(|e| f(None, e));
                left.for_each_expr_mut(f);
                right.for_each_expr_mut(f);
            }
            Plan::Filter { input, predicate, .. } => {
                predicate.iter_mut().for_each(|e| f(None, e));
                input.for_each_expr_mut(f);
            }
            Plan::Derived { input, .. } | Plan::Materialize { input, .. } => {
                input.for_each_expr_mut(f);
            }
            Plan::Project { input, exprs, .. } => {
                exprs.iter_mut().for_each(|e| f(None, e));
                input.for_each_expr_mut(f);
            }
            Plan::Aggregate { input, group_by, aggs, .. } => {
                group_by.iter_mut().for_each(|e| f(None, e));
                for a in aggs.iter_mut() {
                    if let Some(arg) = &mut a.arg {
                        f(None, arg);
                    }
                }
                input.for_each_expr_mut(f);
            }
            Plan::Sort { input, keys, .. } => {
                for k in keys.iter_mut() {
                    f(None, &mut k.expr);
                }
                input.for_each_expr_mut(f);
            }
            Plan::Limit { input, .. } => input.for_each_expr_mut(f),
            Plan::Union { inputs, .. } => inputs.iter_mut().for_each(|p| p.for_each_expr_mut(f)),
            Plan::Exchange { kind, input, .. } => {
                if let ExchangeKind::Repartition { keys } = kind {
                    keys.iter_mut().for_each(|e| f(None, e));
                }
                input.for_each_expr_mut(f);
            }
        }
    }

    /// Count of join nodes by method: `(nested_loops, hash_joins)` — the
    /// statistic the paper quotes for Q72's plans (Fig 4/5).
    pub fn join_method_counts(&self) -> (usize, usize) {
        let mut nl = 0;
        let mut hj = 0;
        fn walk(p: &Plan, nl: &mut usize, hj: &mut usize) {
            match p {
                Plan::NestedLoop { .. } => *nl += 1,
                Plan::HashJoin { .. } => *hj += 1,
                _ => {}
            }
            for c in p.children() {
                walk(c, nl, hj);
            }
        }
        walk(self, &mut nl, &mut hj);
        (nl, hj)
    }

    /// Whether the join tree is left-deep: every join's right child is a
    /// leaf-ish access path (scan/lookup/derived/materialize-of-derived).
    /// MySQL without the paper's "glue code" only executes left-deep trees.
    pub fn is_left_deep(&self) -> bool {
        fn leafish(p: &Plan) -> bool {
            match p {
                Plan::Scan { .. } | Plan::Derived { .. } => true,
                Plan::Filter { input, .. }
                | Plan::Materialize { input, .. }
                | Plan::Exchange { input, .. } => leafish(input),
                _ => false,
            }
        }
        fn walk(p: &Plan) -> bool {
            match p {
                Plan::NestedLoop { left, right, .. } | Plan::HashJoin { left, right, .. } => {
                    leafish(right) && walk(left)
                }
                _ => p.children().iter().all(|c| walk(c)),
            }
        }
        walk(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(qt: usize, width: usize) -> Plan {
        let read = TableRead::all(TableId(qt as u32), qt, width, vec![]);
        Plan::Scan { read, path: AccessPath::Heap, est: Est::default() }
    }

    fn inner_nl(l: Plan, r: Plan) -> Plan {
        Plan::NestedLoop {
            kind: JoinKind::Inner,
            left: Box::new(l),
            right: Box::new(r),
            on: vec![],
            null_aware: false,
            est: Est::default(),
        }
    }

    #[test]
    fn join_space_concatenates() {
        let j = inner_nl(scan(0, 2), scan(1, 3));
        match j.space(2) {
            RowSpace::Tables(l) => {
                assert_eq!(l.width(), 5);
                assert_eq!(l.slot(1, 0), Some(2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn semi_join_keeps_left_space() {
        let j = Plan::NestedLoop {
            kind: JoinKind::Semi,
            left: Box::new(scan(0, 2)),
            right: Box::new(scan(1, 3)),
            on: vec![],
            null_aware: false,
            est: Est::default(),
        };
        assert_eq!(j.space(2).width(), 2);
    }

    #[test]
    fn aggregate_switches_to_slots() {
        let a = Plan::Aggregate {
            input: Box::new(scan(0, 2)),
            group_by: vec![Expr::col(0, 0)],
            aggs: vec![AggSpec { func: AggFunc::CountStar, arg: None, distinct: false }],
            strategy: AggStrategy::Hash,
            est: Est::default(),
        };
        assert_eq!(a.space(1), RowSpace::Slots(2));
    }

    #[test]
    fn cache_slot_assignment() {
        let mut p = inner_nl(
            Plan::Materialize {
                input: Box::new(scan(0, 1)),
                rebind: false,
                cache_slot: 99,
                est: Est::default(),
            },
            Plan::Materialize {
                input: Box::new(scan(1, 1)),
                rebind: true,
                cache_slot: 99,
                est: Est::default(),
            },
        );
        assert_eq!(p.assign_cache_slots(), 2);
        assert_eq!(p.cache_slots(), 2, "the counter agrees with the assignment");
        match &p {
            Plan::NestedLoop { left, right, .. } => {
                assert!(matches!(left.as_ref(), Plan::Materialize { cache_slot: 0, .. }));
                assert!(matches!(right.as_ref(), Plan::Materialize { cache_slot: 1, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expr_visitor_reaches_range_bounds_and_filters() {
        use taurus_common::Value;
        let param = |i: usize| Expr::param(i, Value::Int(i as i64));
        let leaf = |qt: usize, path: AccessPath, filter: Expr| Plan::Scan {
            read: TableRead::all(TableId(qt as u32), qt, 1, vec![filter]),
            path,
            est: Est::default(),
        };
        let range =
            AccessPath::Range { index: 0, lo: Some((param(0), true)), hi: Some((param(1), false)) };
        let lookup = AccessPath::Lookup { index: 0, keys: vec![param(4)] };
        let mut p = Plan::Filter {
            input: Box::new(inner_nl(
                inner_nl(leaf(0, range, param(2)), leaf(1, AccessPath::Heap, param(3))),
                leaf(2, lookup, param(5)),
            )),
            predicate: vec![param(6)],
            est: Est::default(),
        };
        let values: Vec<Value> = (0..7).map(|i| Value::Int(10 * i)).collect();
        let (mut seen, mut leaf_filters) = (0, Vec::new());
        p.for_each_expr_mut(&mut |leaf, e| {
            e.rebind_params(&values).unwrap();
            seen += 1;
            leaf_filters.extend(leaf);
        });
        assert_eq!(seen, 7, "both range bounds, three leaf filters, the key and the predicate");
        assert_eq!(leaf_filters, [0, 1, 2], "each leaf filter is tagged with its own table");
        let Plan::Filter { input, predicate, .. } = &p else { panic!("{p:?}") };
        assert_eq!(predicate[0], Expr::param(6, Value::Int(60)));
        let Plan::NestedLoop { right, .. } = input.as_ref() else { panic!("{input:?}") };
        let Plan::Scan { path: AccessPath::Lookup { keys, .. }, .. } = right.as_ref() else {
            panic!("{right:?}")
        };
        assert_eq!(keys[0], Expr::param(4, Value::Int(40)));
    }

    #[test]
    fn shape_helpers() {
        // ((0 ⋈ 1) ⋈ 2) is left-deep; (0 ⋈ (1 ⋈ 2)) is bushy.
        let left_deep = inner_nl(inner_nl(scan(0, 1), scan(1, 1)), scan(2, 1));
        assert!(left_deep.is_left_deep());
        let bushy = inner_nl(scan(0, 1), inner_nl(scan(1, 1), scan(2, 1)));
        assert!(!bushy.is_left_deep());
        assert_eq!(bushy.join_method_counts(), (2, 0));
    }

    #[test]
    fn exchange_preserves_space_and_shape() {
        let g = Plan::Exchange {
            kind: ExchangeKind::Gather,
            input: Box::new(inner_nl(inner_nl(scan(0, 2), scan(1, 3)), scan(2, 1))),
            dop: 4,
            est: Est::default().with_dop(4),
        };
        assert_eq!(g.space(3).width(), 6, "exchange is space-preserving");
        assert_eq!(g.est().dop, 4);
        assert_eq!(g.join_method_counts(), (2, 0));
        assert!(g.is_left_deep(), "a gather above a left-deep tree stays left-deep");
    }

    #[test]
    fn broadcast_slots_assigned_alongside_cache_slots() {
        let bcast = |p: Plan| Plan::Exchange {
            kind: ExchangeKind::Broadcast { slot: 99 },
            input: Box::new(p),
            dop: 2,
            est: Est::default(),
        };
        let mut p = inner_nl(
            bcast(scan(0, 1)),
            Plan::Materialize {
                input: Box::new(bcast(scan(1, 1))),
                rebind: false,
                cache_slot: 99,
                est: Est::default(),
            },
        );
        assert_eq!(p.assign_cache_slots(), 1, "one materialize slot");
        assert_eq!(p.cache_slots(), 1, "broadcast slots are not cache slots");
        match &p {
            Plan::NestedLoop { left, right, .. } => {
                assert!(matches!(
                    left.as_ref(),
                    Plan::Exchange { kind: ExchangeKind::Broadcast { slot: 0 }, .. }
                ));
                match right.as_ref() {
                    Plan::Materialize { cache_slot: 0, input, .. } => assert!(matches!(
                        input.as_ref(),
                        Plan::Exchange { kind: ExchangeKind::Broadcast { slot: 1 }, .. }
                    )),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expr_visitor_reaches_repartition_keys() {
        use taurus_common::Value;
        let mut p = Plan::Exchange {
            kind: ExchangeKind::Repartition { keys: vec![Expr::param(0, Value::Int(1))] },
            input: Box::new(Plan::Scan {
                read: TableRead::all(TableId(0), 0, 1, vec![Expr::param(1, Value::Int(2))]),
                path: AccessPath::Heap,
                est: Est::default(),
            }),
            dop: 2,
            est: Est::default(),
        };
        let mut seen = 0;
        p.for_each_expr_mut(&mut |_, _| seen += 1);
        assert_eq!(seen, 2, "repartition keys and the scan filter are both visited");
    }
}
