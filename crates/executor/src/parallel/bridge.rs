//! Exchange placement: rewrite a serial [`Plan`] into one with parallel
//! fragments under exchange operators.
//!
//! Placement rules (conservative on purpose — anything not provably safe
//! and order-preserving stays serial):
//!
//! 1. A whole subtree that is a *pipeline* (scans, joins, filters,
//!    projections with a morselizable driving scan) gets a `Gather` above
//!    it; build sides of hash joins inside the fragment are wrapped in
//!    `Broadcast` so the build happens once.
//! 2. A `Sort` over a pipeline becomes `GatherMerge` over per-morsel sorts —
//!    the merge respects the sort order instead of interleaving morsels.
//! 3. A grouped stream-aggregate over a `Sort` on exactly its group-by keys
//!    (ascending) becomes an aggregate over `Repartition` — two-phase
//!    partitioned aggregation replaces the sort entirely.
//! 4. Everything else recurses: limits, unions, derived tables and scalar
//!    aggregates stay serial with parallel fragments placed underneath.
//!    The inner side of a nested-loop join is *not* descended into — it
//!    re-opens per outer row under a binding, where exchanges cannot help.

use crate::parallel::morsel::DEFAULT_MORSEL_ROWS;
use crate::plan::{AccessPath, Est, ExchangeKind, Plan, SortKey};
use taurus_catalog::Catalog;
use taurus_common::{Expr, TableId};

/// Plan-time parallelization knobs, carried from the engine into
/// [`parallelize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelOpts {
    /// Target degree of parallelism; < 2 disables placement entirely.
    pub dop: usize,
    /// Fragments whose driving table holds fewer rows than this stay
    /// serial — below one morsel's worth, pool startup dwarfs the work.
    pub min_driver_rows: usize,
}

impl Default for ParallelOpts {
    fn default() -> ParallelOpts {
        ParallelOpts { dop: 1, min_driver_rows: DEFAULT_MORSEL_ROWS }
    }
}

impl ParallelOpts {
    /// Options for a given dop with default thresholds.
    pub fn with_dop(dop: usize) -> ParallelOpts {
        ParallelOpts { dop, ..ParallelOpts::default() }
    }
}

/// Place exchange operators into `plan` for `opts.dop`-way execution.
/// Call **before** [`Plan::assign_cache_slots`] — placement introduces
/// `Broadcast` exchanges whose slots that pass assigns.
pub fn parallelize(plan: Plan, catalog: &Catalog, opts: &ParallelOpts) -> Plan {
    if opts.dop < 2 {
        return plan;
    }
    place(plan, catalog, opts)
}

fn place(plan: Plan, catalog: &Catalog, opts: &ParallelOpts) -> Plan {
    let dop = opts.dop;
    // Rule 1: the whole subtree is a parallelizable pipeline.
    if pipeline_ok(&plan, catalog, opts) {
        return gather(ExchangeKind::Gather, plan, dop);
    }
    match plan {
        // Rule 2: sort over a pipeline -> per-morsel sorted runs + merge.
        Plan::Sort { input, keys, est } if pipeline_ok(&input, catalog, opts) => {
            let frag = mark_dop(wrap_broadcasts(*input, dop), dop);
            let sort = Plan::Sort { input: Box::new(frag), keys, est: est.with_dop(dop) };
            Plan::Exchange {
                kind: ExchangeKind::GatherMerge,
                est: est.with_dop(dop),
                dop,
                input: Box::new(sort),
            }
        }
        // Rule 3: grouped stream-agg over Sort(group keys asc) -> two-phase
        // partitioned aggregation (the Repartition replaces the Sort).
        Plan::Aggregate { input, group_by, aggs, strategy, est } => {
            let agg_input = match *input {
                Plan::Sort { input: sorted, keys, est: sort_est }
                    if !group_by.is_empty()
                        && sort_matches_group(&keys, &group_by)
                        && pipeline_ok(&sorted, catalog, opts) =>
                {
                    let frag = mark_dop(wrap_broadcasts(*sorted, dop), dop);
                    Plan::Exchange {
                        kind: ExchangeKind::Repartition { keys: group_by.clone() },
                        est: sort_est.with_dop(dop),
                        dop,
                        input: Box::new(frag),
                    }
                }
                other => place(other, catalog, opts),
            };
            Plan::Aggregate { input: Box::new(agg_input), group_by, aggs, strategy, est }
        }
        // Rule 4: generic recursion, in place. Only the outer (driving) side
        // of a nested loop is descended: the inner side re-opens per outer
        // row under a binding. Leaves and exchanges stay as they are.
        leaf @ (Plan::Scan { .. } | Plan::Exchange { .. }) => leaf,
        mut other => {
            let children = match &mut other {
                Plan::NestedLoop { left, .. } => vec![left.as_mut()],
                p => p.children_mut(),
            };
            for c in children {
                let hole = Plan::Union { inputs: Vec::new(), distinct: false, est: Est::default() };
                *c = place(std::mem::replace(c, hole), catalog, opts);
            }
            other
        }
    }
}

fn gather(kind: ExchangeKind, plan: Plan, dop: usize) -> Plan {
    let frag = mark_dop(wrap_broadcasts(plan, dop), dop);
    Plan::Exchange { kind, est: frag.est().with_dop(dop), dop, input: Box::new(frag) }
}

/// Whether the serial sort order equals the group-by keys, in order,
/// ascending — the exact order the partitioned aggregate's key-sorted
/// output reproduces.
fn sort_matches_group(keys: &[SortKey], group_by: &[Expr]) -> bool {
    keys.len() == group_by.len() && keys.iter().zip(group_by).all(|(k, g)| !k.desc && k.expr == *g)
}

/// A subtree is pipeline-parallelizable when its shape is morsel-safe and
/// its driving scan's table is big enough to bother.
fn pipeline_ok(plan: &Plan, catalog: &Catalog, opts: &ParallelOpts) -> bool {
    if !shape_ok(plan) {
        return false;
    }
    match find_driving_scan(plan) {
        Some((_, table)) => catalog
            .table(table)
            .map(|t| t.num_rows() >= opts.min_driver_rows.max(1))
            .unwrap_or(false),
        None => false,
    }
}

/// Morsel-safe pipeline shapes: scans, joins, filters, projections.
/// `Derived` and `Materialize` are opaque leaves — executed whole inside a
/// worker (materializations are computed once via the shared slot cache) —
/// and never descended into, so a morsel restriction can't poison them.
/// Aggregates, sorts, limits, unions and existing exchanges end a pipeline.
fn shape_ok(plan: &Plan) -> bool {
    match plan {
        Plan::Scan { .. } | Plan::Derived { .. } | Plan::Materialize { .. } => true,
        Plan::NestedLoop { left, right, .. } | Plan::HashJoin { left, right, .. } => {
            shape_ok(left) && shape_ok(right)
        }
        Plan::Filter { input, .. } | Plan::Project { input, .. } => shape_ok(input),
        _ => false,
    }
}

/// The fragment's driving scan: the leftmost *drivable* leaf along the
/// probe spine. Nested loops drive from the left (outer) side; hash joins
/// from the probe side. Only heap and full-index scans can be morselized —
/// lookups and ranges depend on bindings/bounds, and `Materialize`/
/// `Derived`/`Exchange` subtrees must never see a morsel restriction (their
/// results are shared or already exchanged).
pub(crate) fn find_driving_scan(plan: &Plan) -> Option<(usize, TableId)> {
    match plan {
        Plan::Scan { read, path: AccessPath::Heap | AccessPath::Index { .. }, .. } => {
            Some((read.qt, read.table))
        }
        Plan::NestedLoop { left, .. } => find_driving_scan(left),
        Plan::HashJoin { build_left, left, right, .. } => {
            find_driving_scan(if *build_left { right } else { left })
        }
        Plan::Filter { input, .. } | Plan::Project { input, .. } => find_driving_scan(input),
        // A GatherMerge fragment is `Sort` over a pipeline: the sort runs
        // per morsel and the exchange's k-way merge restores global order.
        Plan::Sort { input, .. } => find_driving_scan(input),
        _ => None,
    }
}

/// Wrap the build side of every hash join along the probe spine in a
/// `Broadcast` exchange, so workers share one build table instead of each
/// building their own. Slots are placeholders until
/// [`Plan::assign_cache_slots`] runs.
fn wrap_broadcasts(plan: Plan, dop: usize) -> Plan {
    match plan {
        Plan::HashJoin { kind, build_left, left, right, keys, residual, null_aware, est } => {
            let (build, probe) = if build_left { (left, right) } else { (right, left) };
            let probe = Box::new(wrap_broadcasts(*probe, dop));
            let build = Box::new(Plan::Exchange {
                kind: ExchangeKind::Broadcast { slot: 0 },
                est: build.est(), // the build itself runs once, serially
                dop,
                input: build,
            });
            let (left, right) = if build_left { (build, probe) } else { (probe, build) };
            Plan::HashJoin { kind, build_left, left, right, keys, residual, null_aware, est }
        }
        Plan::NestedLoop { kind, left, right, on, null_aware, est } => Plan::NestedLoop {
            kind,
            left: Box::new(wrap_broadcasts(*left, dop)),
            right,
            on,
            null_aware,
            est,
        },
        Plan::Filter { input, predicate, est } => {
            Plan::Filter { input: Box::new(wrap_broadcasts(*input, dop)), predicate, est }
        }
        Plan::Project { input, exprs, est } => {
            Plan::Project { input: Box::new(wrap_broadcasts(*input, dop)), exprs, est }
        }
        other => other,
    }
}

/// Stamp `est.dop` on every node of a parallel fragment for EXPLAIN —
/// except subtrees that execute once (broadcast builds, materializations,
/// derived tables), which keep dop 1.
fn mark_dop(mut plan: Plan, dop: usize) -> Plan {
    fn mark(plan: &mut Plan, dop: usize) {
        match plan {
            Plan::Exchange { kind: ExchangeKind::Broadcast { .. }, est, .. } => {
                // The broadcast boundary shows the fragment's dop; its
                // input (the one-shot build) stays serial.
                *est = est.with_dop(dop);
            }
            Plan::Materialize { .. } | Plan::Derived { .. } => {}
            _ => {
                *plan.est_mut() = plan.est().with_dop(dop);
                for c in plan.children_mut() {
                    mark(c, dop);
                }
            }
        }
    }
    mark(&mut plan, dop);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AggSpec, AggStrategy, Est, TableRead};
    use taurus_catalog::Catalog;
    use taurus_common::{AggFunc, Column, DataType, Schema, Value};

    /// A catalog with one 100-row table `t(a, b)` and a tiny table `s(a)`.
    fn setup() -> Catalog {
        let mut cat = Catalog::new();
        let t = cat
            .create_table(
                "t",
                Schema::new(vec![Column::new("a", DataType::Int), Column::new("b", DataType::Int)]),
            )
            .unwrap();
        cat.insert(t, (0..100).map(|i| vec![Value::Int(i), Value::Int(i % 7)])).unwrap();
        let s = cat.create_table("s", Schema::new(vec![Column::new("a", DataType::Int)])).unwrap();
        cat.insert(s, (0..3).map(|i| vec![Value::Int(i)])).unwrap();
        cat
    }

    fn t_scan() -> Plan {
        let read = TableRead::all(TableId(0), 0, 2, vec![]);
        Plan::Scan { read, path: AccessPath::Heap, est: Est::new(100.0, 100.0) }
    }

    fn s_scan() -> Plan {
        let read = TableRead::all(TableId(1), 1, 1, vec![]);
        Plan::Scan { read, path: AccessPath::Heap, est: Est::new(3.0, 3.0) }
    }

    fn opts(dop: usize) -> ParallelOpts {
        ParallelOpts { dop, min_driver_rows: 10 }
    }

    #[test]
    fn pipeline_gets_gather_and_broadcast_build() {
        let cat = setup();
        let join = Plan::HashJoin {
            kind: crate::plan::JoinKind::Inner,
            build_left: false,
            left: Box::new(t_scan()),
            right: Box::new(s_scan()),
            keys: vec![(Expr::col(0, 1), Expr::col(1, 0))],
            residual: vec![],
            null_aware: false,
            est: Est::default(),
        };
        let placed = parallelize(join, &cat, &opts(4));
        match &placed {
            Plan::Exchange { kind: ExchangeKind::Gather, dop: 4, input, est } => {
                assert_eq!(est.dop, 4);
                match input.as_ref() {
                    Plan::HashJoin { right, est, .. } => {
                        assert_eq!(est.dop, 4, "join node runs at fragment dop");
                        assert!(
                            matches!(
                                right.as_ref(),
                                Plan::Exchange { kind: ExchangeKind::Broadcast { .. }, .. }
                            ),
                            "build side broadcast-wrapped: {right:?}"
                        );
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sort_becomes_gather_merge() {
        let cat = setup();
        let sort = Plan::Sort {
            input: Box::new(t_scan()),
            keys: vec![SortKey { expr: Expr::col(0, 1), desc: true }],
            est: Est::default(),
        };
        let placed = parallelize(sort, &cat, &opts(2));
        assert!(
            matches!(
                &placed,
                Plan::Exchange { kind: ExchangeKind::GatherMerge, input, .. }
                    if matches!(input.as_ref(), Plan::Sort { .. })
            ),
            "{placed:?}"
        );
    }

    #[test]
    fn grouped_stream_agg_over_matching_sort_repartitions() {
        let cat = setup();
        let agg = Plan::Aggregate {
            input: Box::new(Plan::Sort {
                input: Box::new(t_scan()),
                keys: vec![SortKey { expr: Expr::col(0, 1), desc: false }],
                est: Est::default(),
            }),
            group_by: vec![Expr::col(0, 1)],
            aggs: vec![AggSpec { func: AggFunc::CountStar, arg: None, distinct: false }],
            strategy: AggStrategy::Stream,
            est: Est::default(),
        };
        let placed = parallelize(agg, &cat, &opts(4));
        match &placed {
            Plan::Aggregate { input, .. } => assert!(
                matches!(
                    input.as_ref(),
                    Plan::Exchange { kind: ExchangeKind::Repartition { .. }, .. }
                ),
                "sort replaced by repartition: {input:?}"
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn small_tables_and_serial_dop_stay_serial() {
        let cat = setup();
        assert_eq!(parallelize(s_scan(), &cat, &opts(4)), s_scan(), "3 rows < min_driver_rows");
        assert_eq!(parallelize(t_scan(), &cat, &opts(1)), t_scan(), "dop 1 is a no-op");
    }

    #[test]
    fn limit_stays_above_the_exchange() {
        let cat = setup();
        let lim = Plan::Limit { input: Box::new(t_scan()), n: 5, est: Est::default() };
        let placed = parallelize(lim, &cat, &opts(2));
        assert!(
            matches!(
                &placed,
                Plan::Limit { input, .. }
                    if matches!(input.as_ref(), Plan::Exchange { kind: ExchangeKind::Gather, .. })
            ),
            "{placed:?}"
        );
    }

    #[test]
    fn nested_loop_inner_side_not_descended() {
        let cat = setup();
        // NL whose outer side is an aggregate (not pipeline-able) and inner
        // is a big scan: the inner side must NOT grow an exchange.
        let nl = Plan::NestedLoop {
            kind: crate::plan::JoinKind::Inner,
            left: Box::new(Plan::Aggregate {
                input: Box::new(s_scan()),
                group_by: vec![],
                aggs: vec![AggSpec { func: AggFunc::CountStar, arg: None, distinct: false }],
                strategy: AggStrategy::Hash,
                est: Est::default(),
            }),
            right: Box::new(t_scan()),
            on: vec![],
            null_aware: false,
            est: Est::default(),
        };
        let placed = parallelize(nl, &cat, &opts(4));
        match &placed {
            Plan::NestedLoop { right, .. } => {
                assert!(matches!(right.as_ref(), Plan::Scan { .. }), "{right:?}")
            }
            other => panic!("{other:?}"),
        }
    }
}
