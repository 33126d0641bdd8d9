//! Feedback-driven re-optimization: fold observed per-operator actuals
//! into per-statement cardinality overrides.
//!
//! After an instrumented (`EXPLAIN ANALYZE`-style) execution of a cached
//! statement, [`fold_plan`] walks the executed plan and its per-node
//! observations in lockstep and distills them into a
//! [`CardOverrides`] table keyed by query-table sets — the join-set
//! identity both optimizers reason in. The [`ObservationStore`] keeps one
//! [`FeedbackState`] per statement fingerprint; when a cached plan's
//! recorded worst q-error crosses the session threshold, the engine evicts
//! the entry and recompiles with the observations injected into the
//! optimizer's estimation path (`optimize_with_feedback`).
//!
//! ## What the fold records
//!
//! * **rel** entries at scan leaves (post-filter output of table, index
//!   and range scans), at join nodes whose subtree is still a join tree,
//!   at `Derived` nodes (the inner block's produced rows, keyed by the
//!   derived table's own qt), and at filters/materializations sitting on a
//!   join tree. The fold is pre-order and [`CardOverrides::record_rel`]
//!   keeps the first entry per key, so the *highest* (post-filter) node
//!   wins for each qt-set.
//! * **agg** entries at `Aggregate` nodes, keyed by the qt-set under the
//!   aggregate's input — the observed group count that replaces the
//!   static one-in-ten grouping guess.
//!
//! ## What the fold skips
//!
//! Nodes on the inner side of a nested-loop join run once per outer row:
//! their observed totals are sums over bindings, not whole-relation
//! cardinalities, so nothing is recorded inside such a subtree — *except*
//! under a non-rebinding `Materialize`, whose input executed exactly once
//! and is whole-relation again. Index lookup leaves are inherently
//! per-probe and never recorded. Slot-space regions (above a `Project`,
//! `Aggregate` or `Union`) are not join trees; rel recording stops there,
//! which keeps HAVING filters from masquerading as join cardinalities.

use crate::explain::NodeAnnotation;
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;
use taurus_catalog::CardOverrides;
use taurus_common::sync::lock;
use taurus_executor::{AccessPath, Plan};

/// Query tables referenced under a node, with derived tables opaque: a
/// `Derived` contributes its own qt and masks its inner block's members —
/// the same identity the optimizers key join sets by.
fn qts_under(p: &Plan, out: &mut BTreeSet<usize>) {
    match p {
        Plan::Scan { read, .. } => {
            out.insert(read.qt);
        }
        Plan::Derived { qt, .. } => {
            out.insert(*qt);
        }
        _ => {
            for c in p.children() {
                qts_under(c, out);
            }
        }
    }
}

fn qt_set(p: &Plan) -> BTreeSet<usize> {
    let mut s = BTreeSet::new();
    qts_under(p, &mut s);
    s
}

/// Whether a subtree consists purely of join-tree operators (scans,
/// derived leaves, joins, and the transparent filter/materialize/exchange
/// wrappers) — the shapes whose output rows mean "the join of exactly
/// these qts with all local predicates applied".
fn join_tree(p: &Plan) -> bool {
    match p {
        Plan::Scan { .. } | Plan::Derived { .. } => true,
        Plan::Filter { input, .. }
        | Plan::Materialize { input, .. }
        | Plan::Exchange { input, .. } => join_tree(input),
        Plan::NestedLoop { left, right, .. } | Plan::HashJoin { left, right, .. } => {
            join_tree(left) && join_tree(right)
        }
        _ => false,
    }
}

/// Number of plan nodes in pre-order — the annotation count [`fold_plan`]
/// expects for this plan (and the renderer/observer produce).
pub fn count_nodes(p: &Plan) -> usize {
    1 + p.children().iter().map(|c| count_nodes(c)).sum::<usize>()
}

/// Distill one observed execution of `plan` into cardinality overrides.
///
/// `nodes` must be the per-operator annotations of an execution of this
/// exact plan shape, in the shared pre-order (see
/// [`crate::explain::annotate`]). Never-executed operators contribute
/// nothing.
pub fn fold_plan(plan: &Plan, nodes: &[NodeAnnotation]) -> CardOverrides {
    let mut out = CardOverrides::new();
    let mut cursor = 0usize;
    fold_walk(plan, nodes, &mut cursor, false, &mut out);
    out
}

fn fold_walk(
    p: &Plan,
    nodes: &[NodeAnnotation],
    cursor: &mut usize,
    per_probe: bool,
    out: &mut CardOverrides,
) {
    let ann = nodes.get(*cursor).copied();
    *cursor += 1;
    let executed = ann.is_some_and(|a| a.loops > 0);
    if executed {
        // Inside a per-probe subtree (a rebinding nested-loop inner side)
        // totals are per-binding sums; the per-loop average is the number
        // the optimizer's estimate means there — same normalization the
        // q-error annotation applies. Pre-order or_insert semantics keep
        // whole-operator records from elsewhere winning over these.
        let actual = ann.map_or(0.0, |a| {
            if per_probe {
                a.actual_rows as f64 / a.loops as f64
            } else {
                a.actual_rows as f64
            }
        });
        match p {
            Plan::Scan { read, path, .. } if !matches!(path, AccessPath::Lookup { .. }) => {
                out.record_rel(BTreeSet::from([read.qt]), actual)
            }
            Plan::Derived { qt, .. } => out.record_rel(BTreeSet::from([*qt]), actual),
            Plan::NestedLoop { .. }
            | Plan::HashJoin { .. }
            | Plan::Filter { .. }
            | Plan::Materialize { .. }
                if join_tree(p) =>
            {
                out.record_rel(qt_set(p), actual)
            }
            Plan::Aggregate { input, .. } => out.record_agg(qt_set(input), actual),
            _ => {}
        }
    }
    match p {
        Plan::NestedLoop { left, right, .. } => {
            fold_walk(left, nodes, cursor, per_probe, out);
            // The inner side re-opens per outer row: totals there are
            // per-binding sums, not relation cardinalities.
            fold_walk(right, nodes, cursor, true, out);
        }
        Plan::Materialize { input, rebind, .. } => {
            // A non-rebinding materialization executes its input exactly
            // once regardless of how many probes read the buffer.
            let inner_probe = if *rebind { per_probe } else { false };
            fold_walk(input, nodes, cursor, inner_probe, out);
        }
        _ => {
            for c in p.children() {
                fold_walk(c, nodes, cursor, per_probe, out);
            }
        }
    }
}

/// Worst (loop-normalized) per-operator q-error of an observed execution,
/// ≥ 1; 1.0 when nothing executed.
pub fn worst_q(nodes: &[NodeAnnotation]) -> f64 {
    nodes.iter().filter_map(|n| n.q_error).fold(1.0, f64::max)
}

/// Accumulated observations for one cached statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeedbackState {
    /// Per-union-branch overrides (branches have separate qt spaces).
    /// Fresher executions overwrite same-key entries.
    pub branches: Vec<CardOverrides>,
    /// Snapshot of `branches` at the last re-optimization. The convergence
    /// guard: a statement is never re-optimized twice on the same
    /// observations, so a re-optimized plan that yields no *new*
    /// information stops the loop no matter its residual q-error.
    applied: Option<Vec<CardOverrides>>,
    /// Worst per-operator q-error of the most recent observed execution.
    pub worst_q: f64,
}

/// Fingerprint-keyed store of observed executions, shared by all sessions
/// of an engine. Lock order when combined with the plan cache is always
/// *cache → feedback*; the store never calls back into the cache.
#[derive(Debug, Default)]
pub struct ObservationStore {
    inner: Mutex<HashMap<u64, FeedbackState>>,
}

impl ObservationStore {
    pub fn new() -> ObservationStore {
        ObservationStore::default()
    }

    /// Merge one observed execution into the statement's state. `folds` is
    /// one [`CardOverrides`] per planned branch; `worst_q` is the
    /// execution's worst per-operator q-error (replaces, not maxes: the
    /// state describes the *current* cached plan's latest run).
    pub fn record(&self, fingerprint: u64, folds: Vec<CardOverrides>, worst_q: f64) {
        let mut m = lock(&self.inner);
        let st = m.entry(fingerprint).or_default();
        if st.branches.len() < folds.len() {
            st.branches.resize(folds.len(), CardOverrides::new());
        }
        for (slot, newer) in st.branches.iter_mut().zip(&folds) {
            slot.merge_from(newer);
        }
        st.worst_q = worst_q;
    }

    /// Whether the statement's next cached serve should re-optimize: its
    /// last observed run was worse than `threshold` (strictly above), it
    /// has observations to inject, and those observations differ from what
    /// the current plan was already compiled with.
    pub fn should_reopt(&self, fingerprint: u64, threshold: f64) -> bool {
        match lock(&self.inner).get(&fingerprint) {
            Some(st) => {
                st.worst_q > threshold
                    && st.branches.iter().any(|b| !b.is_empty())
                    && st.applied.as_ref() != Some(&st.branches)
            }
            None => false,
        }
    }

    /// Snapshot the statement's observations for a re-optimization and
    /// mark them applied (arming the convergence guard).
    pub fn begin_reopt(&self, fingerprint: u64) -> Option<Vec<CardOverrides>> {
        let mut m = lock(&self.inner);
        let st = m.get_mut(&fingerprint)?;
        st.applied = Some(st.branches.clone());
        Some(st.branches.clone())
    }

    /// Current state for one statement (for tests and reports).
    pub fn state(&self, fingerprint: u64) -> Option<FeedbackState> {
        lock(&self.inner).get(&fingerprint).cloned()
    }

    /// Fingerprints with recorded observations, sorted (for tests and
    /// reports).
    pub fn fingerprints(&self) -> Vec<u64> {
        let mut v: Vec<u64> = lock(&self.inner).keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of statements with recorded observations.
    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    pub fn is_empty(&self) -> bool {
        lock(&self.inner).is_empty()
    }

    /// Forget everything (e.g. after ANALYZE changes the data).
    pub fn clear(&self) {
        lock(&self.inner).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_executor::{Est, JoinKind, Plan, TableRead};

    fn set(qts: &[usize]) -> BTreeSet<usize> {
        qts.iter().copied().collect()
    }

    fn scan(qt: usize) -> Plan {
        let read = TableRead::all(taurus_common::TableId(qt as u32), qt, 1, vec![]);
        Plan::Scan { read, path: AccessPath::Heap, est: Est::default() }
    }

    fn ann(rows: u64, loops: u64) -> NodeAnnotation {
        NodeAnnotation {
            est_rows: 1.0,
            actual_rows: rows,
            loops,
            q_error: (loops > 0).then_some(1.0),
        }
    }

    #[test]
    fn fold_records_scans_joins_and_aggregates() {
        // Aggregate(HashJoin(scan0, scan1))
        let plan = Plan::Aggregate {
            input: Box::new(Plan::HashJoin {
                kind: JoinKind::Inner,
                build_left: false,
                left: Box::new(scan(0)),
                right: Box::new(scan(1)),
                keys: vec![],
                residual: vec![],
                null_aware: false,
                est: Est::default(),
            }),
            group_by: vec![taurus_common::Expr::col(0, 0)],
            aggs: vec![],
            strategy: taurus_executor::AggStrategy::Hash,
            est: Est::default(),
        };
        let nodes = [ann(7, 1), ann(50, 1), ann(10, 1), ann(20, 1)];
        let o = fold_plan(&plan, &nodes);
        assert_eq!(o.agg(&set(&[0, 1])), Some(7.0));
        assert_eq!(o.rel(&set(&[0, 1])), Some(50.0));
        assert_eq!(o.rel_singleton(0), Some(10.0));
        assert_eq!(o.rel_singleton(1), Some(20.0));
    }

    #[test]
    fn nlj_materialized_inner_side_attributes_to_the_single_execution() {
        // NLJ(scan0, Materialize{rebind:false}(scan1)): the materialize
        // node's totals are per-probe, its input's are whole-relation.
        let plan = Plan::NestedLoop {
            kind: JoinKind::Inner,
            left: Box::new(scan(0)),
            right: Box::new(Plan::Materialize {
                input: Box::new(scan(1)),
                rebind: false,
                cache_slot: 0,
                est: Est::default(),
            }),
            on: vec![],
            null_aware: false,
            est: Est::default(),
        };
        // join out 30; scan0 10 rows; materialize served 10 probes × 3
        // rows = 30 total; the inner scan ran once producing 3.
        let nodes = [ann(30, 1), ann(10, 1), ann(30, 10), ann(3, 1)];
        let o = fold_plan(&plan, &nodes);
        assert_eq!(o.rel(&set(&[0, 1])), Some(30.0), "join output recorded");
        assert_eq!(o.rel_singleton(0), Some(10.0));
        assert_eq!(o.rel_singleton(1), Some(3.0), "the once-executed input, not the probe sums");
    }

    #[test]
    fn rebinding_materialize_records_the_per_probe_average() {
        let plan = Plan::NestedLoop {
            kind: JoinKind::Inner,
            left: Box::new(scan(0)),
            right: Box::new(Plan::Materialize {
                input: Box::new(scan(1)),
                rebind: true,
                cache_slot: 0,
                est: Est::default(),
            }),
            on: vec![],
            null_aware: false,
            est: Est::default(),
        };
        // The correlated inner side re-executed per probe: 10 probes
        // produced 30 rows total, so the observed cardinality — matching
        // what a per-probe estimate means — is the average, 3 rows.
        let nodes = [ann(30, 1), ann(10, 1), ann(30, 10), ann(30, 10)];
        let o = fold_plan(&plan, &nodes);
        assert_eq!(o.rel_singleton(1), Some(3.0), "per-loop average, not the probe sum");
    }

    #[test]
    fn post_filter_ancestor_wins_over_the_leaf() {
        // Filter({0}) over Materialize over Derived{0}: pre-order records
        // the post-filter count first; the leaf's pre-filter count loses.
        let derived = Plan::Derived {
            input: Box::new(scan(1)),
            qt: 0,
            width: 1,
            name: "d".into(),
            est: Est::default(),
        };
        let plan = Plan::Filter {
            input: Box::new(Plan::Materialize {
                input: Box::new(derived),
                rebind: false,
                cache_slot: 0,
                est: Est::default(),
            }),
            predicate: vec![],
            est: Est::default(),
        };
        let nodes = [ann(4, 1), ann(100, 1), ann(100, 1), ann(100, 1)];
        let o = fold_plan(&plan, &nodes);
        assert_eq!(o.rel_singleton(0), Some(4.0), "post-filter rows win");
    }

    #[test]
    fn never_executed_nodes_record_nothing() {
        let plan = scan(0);
        let o = fold_plan(&plan, &[ann(0, 0)]);
        assert!(o.is_empty());
        // A fold with no annotations at all is also empty.
        assert!(fold_plan(&plan, &[]).is_empty());
    }

    #[test]
    fn store_reopt_trigger_and_convergence_guard() {
        let store = ObservationStore::new();
        let mut o = CardOverrides::new();
        o.record_rel(set(&[0]), 42.0);
        store.record(7, vec![o.clone()], 300.0);
        assert!(store.should_reopt(7, 10.0), "worst q 300 over threshold 10");
        assert!(!store.should_reopt(7, 300.0), "threshold is strictly below");
        assert!(!store.should_reopt(8, 10.0), "unknown fingerprint");
        // Applying the observations arms the guard …
        let snap = store.begin_reopt(7).unwrap();
        assert_eq!(snap.len(), 1);
        assert!(!store.should_reopt(7, 10.0), "same observations never re-applied");
        // … and a genuinely new observation re-arms the trigger.
        let mut o2 = CardOverrides::new();
        o2.record_rel(set(&[0, 1]), 9000.0);
        store.record(7, vec![o2], 50.0);
        assert!(store.should_reopt(7, 10.0));
        // A follow-up run that adds nothing new keeps the guard closed.
        store.begin_reopt(7).unwrap();
        store.record(7, vec![CardOverrides::new()], 50.0);
        assert!(!store.should_reopt(7, 10.0));
    }

    #[test]
    fn record_replaces_worst_q_and_merges_branches() {
        let store = ObservationStore::new();
        let mut o = CardOverrides::new();
        o.record_rel(set(&[0]), 10.0);
        store.record(1, vec![o], 100.0);
        let mut o2 = CardOverrides::new();
        o2.record_rel(set(&[0]), 12.0);
        o2.record_rel(set(&[1]), 5.0);
        store.record(1, vec![o2], 2.0);
        let st = store.state(1).unwrap();
        assert_eq!(st.worst_q, 2.0, "latest run's worst q, not the max");
        assert_eq!(st.branches[0].rel_singleton(0), Some(12.0), "fresher value wins");
        assert_eq!(st.branches[0].rel_singleton(1), Some(5.0));
    }
}
