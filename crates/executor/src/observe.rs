//! Per-operator runtime observation for `EXPLAIN ANALYZE`.
//!
//! Observation is opt-in per execution: the caller builds an
//! [`ObserverIndex`] over the *exact plan instance* it will execute (nodes
//! are keyed by address, so the indexed tree and the executed tree must be
//! the same allocation) and installs it on the [`crate::ExecContext`]. The
//! executor then credits every operator completion to its node id — actual
//! rows out and times opened — in a dense per-node vector inside
//! `ExecStats`, which parallel workers merge exactly like the scalar work
//! counters. When no observer is installed the per-node path is a single
//! `Option` check, so uninstrumented execution is unchanged.

use crate::plan::Plan;
use std::collections::HashMap;

/// Address-keyed map from plan nodes to dense pre-order ids.
///
/// Ids are assigned by a pre-order walk of [`Plan::children`], so they agree
/// with any renderer that walks the same tree in the same order.
#[derive(Debug)]
pub struct ObserverIndex {
    ids: HashMap<usize, usize>,
    len: usize,
}

impl ObserverIndex {
    /// Index every node of `root` in pre-order.
    pub fn new(root: &Plan) -> ObserverIndex {
        fn walk(p: &Plan, ids: &mut HashMap<usize, usize>) {
            let id = ids.len();
            ids.insert(p as *const Plan as usize, id);
            for c in p.children() {
                walk(c, ids);
            }
        }
        let mut ids = HashMap::new();
        walk(root, &mut ids);
        let len = ids.len();
        ObserverIndex { ids, len }
    }

    /// The dense id of a node, or `None` if the reference is not a node of
    /// the indexed tree (e.g. a clone).
    pub fn id_of(&self, plan: &Plan) -> Option<usize> {
        self.ids.get(&(plan as *const Plan as usize)).copied()
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// What one operator actually did during an execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeObservation {
    /// Total rows the operator returned, summed over all openings (and over
    /// all parallel workers).
    pub rows: u64,
    /// Times the operator ran: 1 for most nodes, once per outer row for the
    /// inner side of a nested-loop join, once per morsel inside a parallel
    /// fragment. 0 means the operator never executed.
    pub loops: u64,
}

/// The q-error between an estimate and an observed actual: the larger of
/// over- and under-estimation factors, always ≥ 1. Both sides are floored
/// at one row so empty results don't divide by zero; 1.0 is a perfect
/// estimate.
pub fn q_error(est_rows: f64, actual_rows: f64) -> f64 {
    let e = est_rows.max(1.0);
    let a = actual_rows.max(1.0);
    (e / a).max(a / e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AccessPath, Est, TableRead};
    use taurus_common::TableId;

    fn scan(qt: usize) -> Plan {
        let read = TableRead::all(TableId(0), qt, 1, vec![]);
        Plan::Scan { read, path: AccessPath::Heap, est: Est::default() }
    }

    #[test]
    fn preorder_ids_match_tree_shape() {
        let plan = Plan::Filter {
            input: Box::new(Plan::NestedLoop {
                kind: crate::plan::JoinKind::Inner,
                left: Box::new(scan(0)),
                right: Box::new(scan(1)),
                on: vec![],
                null_aware: false,
                est: Est::default(),
            }),
            predicate: vec![],
            est: Est::default(),
        };
        let ix = ObserverIndex::new(&plan);
        assert_eq!(ix.len(), 4);
        assert_eq!(ix.id_of(&plan), Some(0));
        let Plan::Filter { input, .. } = &plan else { unreachable!() };
        assert_eq!(ix.id_of(input), Some(1));
        let Plan::NestedLoop { left, right, .. } = input.as_ref() else { unreachable!() };
        assert_eq!(ix.id_of(left), Some(2));
        assert_eq!(ix.id_of(right), Some(3));
        // A clone is a different allocation: not indexed.
        let other = plan.clone();
        assert_eq!(ix.id_of(&other), None);
    }

    #[test]
    fn q_error_is_symmetric_and_floored() {
        assert_eq!(q_error(10.0, 10.0), 1.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(10.0, 100.0), 10.0);
        // Zero-row actuals floor to one row instead of dividing by zero.
        assert_eq!(q_error(5.0, 0.0), 5.0);
        assert_eq!(q_error(0.0, 0.0), 1.0);
    }
}
