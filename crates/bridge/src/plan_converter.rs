//! The Orca plan converter: Orca physical plans → MySQL skeleton plans
//! (paper §4.2).
//!
//! The translation runs in the paper's two passes:
//!
//! * **First pass** (`discover_blocks`): a pre-order traversal that
//!   validates the query-block structure — every leaf's query-table index
//!   must belong to the expected block (the `TABLE_LIST` link, §4.2.1). If
//!   Orca changed the block structure, translation aborts with an
//!   [`Error::OrcaFallback`] and the system "resorts to the usual MySQL
//!   query optimization".
//! * **Second pass** (`fill_positions`): builds the skeleton tree whose
//!   pre-order leaves are MySQL's best-position array (Fig 7), copying
//!   Orca's cost and cardinality estimates onto each entry so they "show up
//!   in the MySQL plan (the EXPLAIN output) as usual" (§4.2.2).
//!
//! One §7 lesson applies here: MySQL builds inner hash joins on the *left*
//! while Orca (and everyone else) builds on the right, so "the flip was
//! introduced in the Orca-generated trees for the MySQL target" — inner
//! hash joins swap children during translation.

use mylite::bound::BoundQuery;
use mylite::skeleton::{AccessChoice, JoinMethod, SkelLeaf, SkelNode, Skeleton};
use orcalite::physical::{OrcaPlan, PhysJoinKind, PhysNode};
use std::collections::{BTreeSet, HashMap};
use taurus_common::error::{Error, Result};
use taurus_common::Expr;

/// Convert one block's Orca plan to a MySQL skeleton. `inner_skeletons`
/// maps derived-member qts to their (already converted) inner skeletons.
pub fn to_skeleton(
    plan: &OrcaPlan,
    block: &BoundQuery,
    inner_skeletons: &HashMap<usize, Skeleton>,
) -> Result<Skeleton> {
    if plan.changed_block_structure {
        return Err(Error::fallback(
            "Orca changed the query block structure; falling back to MySQL optimization (§4.2.1)",
        ));
    }
    discover_blocks(&plan.root, block)?;
    let root = fill_positions(&plan.root, inner_skeletons)?;
    Ok(Skeleton {
        root,
        orca_assisted: true,
        orca_fallback: None,
        dop: None,
        search: None,
        reopt: None,
    })
}

/// First pass: verify the plan's leaves are exactly this block's members.
fn discover_blocks(node: &PhysNode, block: &BoundQuery) -> Result<()> {
    let expected: BTreeSet<usize> = block.member_qts();
    let got: BTreeSet<usize> = node.leaf_qts().into_iter().collect();
    if expected != got {
        return Err(Error::fallback(format!(
            "Orca plan covers query tables {got:?} but the block owns {expected:?} — \
             query block structure changed"
        )));
    }
    Ok(())
}

/// Second pass: build the skeleton (best-position array + join tree).
fn fill_positions(node: &PhysNode, inner_skeletons: &HashMap<usize, Skeleton>) -> Result<SkelNode> {
    Ok(match node {
        PhysNode::Scan { qt, rows, cost, .. } => SkelNode::Leaf(SkelLeaf {
            qt: *qt,
            access: AccessChoice::TableScan,
            rows: *rows,
            cost: *cost,
        }),
        PhysNode::IndexRange { qt, index, lo, hi, consumed, rows, cost, .. } => {
            SkelNode::Leaf(SkelLeaf {
                qt: *qt,
                access: AccessChoice::IndexRange {
                    index: *index,
                    lo: lo.clone(),
                    hi: hi.clone(),
                    consumed: consumed.clone(),
                },
                rows: *rows,
                cost: *cost,
            })
        }
        PhysNode::IndexScan { qt, index, rows, cost, .. } => SkelNode::Leaf(SkelLeaf {
            qt: *qt,
            access: AccessChoice::IndexScan { index: *index },
            rows: *rows,
            cost: *cost,
        }),
        PhysNode::InListProbes { qt, index, keys, consumed, rows, cost, .. } => {
            SkelNode::Leaf(SkelLeaf {
                qt: *qt,
                access: AccessChoice::InListProbes {
                    index: *index,
                    keys: keys.clone(),
                    consumed: consumed.clone(),
                },
                rows: *rows,
                cost: *cost,
            })
        }
        PhysNode::IndexLookup { qt, index, keys, consumed, rows, cost, .. } => {
            SkelNode::Leaf(SkelLeaf {
                qt: *qt,
                access: AccessChoice::IndexLookup {
                    index: *index,
                    keys: keys.clone(),
                    consumed: consumed.clone(),
                },
                rows: *rows,
                cost: *cost,
            })
        }
        PhysNode::DerivedScan { qt, rows, cost, .. } => {
            let skeleton = inner_skeletons.get(qt).cloned().ok_or_else(|| {
                Error::internal(format!("derived member qt {qt} has no inner skeleton"))
            })?;
            SkelNode::Leaf(SkelLeaf {
                qt: *qt,
                access: AccessChoice::Derived { skeleton: Box::new(skeleton) },
                rows: *rows,
                cost: *cost,
            })
        }
        PhysNode::NLJoin { outer, inner, rows, cost, .. } => SkelNode::Join {
            method: JoinMethod::NestedLoop,
            left: Box::new(fill_positions(outer, inner_skeletons)?),
            right: Box::new(fill_positions(inner, inner_skeletons)?),
            rows: *rows,
            cost: *cost,
        },
        PhysNode::HashJoin { kind, left, right, rows, cost, .. } => {
            let l = fill_positions(left, inner_skeletons)?;
            let r = fill_positions(right, inner_skeletons)?;
            // §7 item 2: Orca builds on the right; MySQL's executor builds
            // inner hash joins on the left. Swapping children preserves
            // inner-join semantics while keeping Orca's intended build side.
            let (left, right) = if *kind == PhysJoinKind::Inner { (r, l) } else { (l, r) };
            SkelNode::Join {
                method: JoinMethod::Hash,
                left: Box::new(left),
                right: Box::new(right),
                rows: *rows,
                cost: *cost,
            }
        }
        PhysNode::Sort { input, keys, rows, cost, .. } => SkelNode::Sort {
            input: Box::new(fill_positions(input, inner_skeletons)?),
            keys: keys.iter().map(|k| (Expr::col(k.qt, k.col), k.desc)).collect(),
            rows: *rows,
            cost: *cost,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mylite::bound::{BlockTable, JoinEntry};
    use orcalite::{JoinOrderStrategy, SearchStats};
    use taurus_common::Expr;

    fn block_with_qts(qts: &[usize]) -> BoundQuery {
        BoundQuery {
            members: qts
                .iter()
                .map(|&qt| BlockTable { qt, entry: JoinEntry::Inner, deps: BTreeSet::new() })
                .collect(),
            predicates: vec![],
            select: vec![],
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
            distinct: false,
        }
    }

    fn scan(qt: usize) -> PhysNode {
        PhysNode::Scan { qt, preds: vec![], rows: 10.0, cost: 5.0, group: qt }
    }

    fn plan(root: PhysNode) -> OrcaPlan {
        OrcaPlan {
            root,
            strategy: JoinOrderStrategy::Exhaustive2,
            stats: SearchStats::default(),
            changed_block_structure: false,
        }
    }

    #[test]
    fn inner_hash_join_children_flip() {
        let root = PhysNode::HashJoin {
            kind: PhysJoinKind::Inner,
            null_aware: false,
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            keys: vec![(Expr::col(0, 0), Expr::col(1, 0))],
            residual: vec![],
            rows: 100.0,
            cost: 40.0,
            group: 7,
        };
        let sk = to_skeleton(&plan(root), &block_with_qts(&[0, 1]), &HashMap::new()).unwrap();
        assert!(sk.orca_assisted);
        // Orca's right child (qt 1, the build side) becomes MySQL's left.
        assert_eq!(sk.root.qts(), vec![1, 0]);
        match &sk.root {
            SkelNode::Join { method: JoinMethod::Hash, rows, cost, .. } => {
                assert_eq!(*rows, 100.0, "estimates copied over (§4.2.2)");
                assert_eq!(*cost, 40.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn semi_hash_join_does_not_flip() {
        let root = PhysNode::HashJoin {
            kind: PhysJoinKind::Semi,
            null_aware: false,
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            keys: vec![(Expr::col(0, 0), Expr::col(1, 0))],
            residual: vec![],
            rows: 8.0,
            cost: 40.0,
            group: 7,
        };
        let sk = to_skeleton(&plan(root), &block_with_qts(&[0, 1]), &HashMap::new()).unwrap();
        assert_eq!(sk.root.qts(), vec![0, 1]);
    }

    #[test]
    fn changed_block_structure_falls_back() {
        let p = OrcaPlan { changed_block_structure: true, ..plan(scan(0)) };
        let err = to_skeleton(&p, &block_with_qts(&[0]), &HashMap::new()).unwrap_err();
        assert!(matches!(err, Error::OrcaFallback(_)));
    }

    #[test]
    fn wrong_leaf_set_falls_back() {
        // Plan covers qt 5, block owns qt 0: block structure mismatch.
        let err = to_skeleton(&plan(scan(5)), &block_with_qts(&[0]), &HashMap::new()).unwrap_err();
        assert!(matches!(err, Error::OrcaFallback(_)));
    }

    #[test]
    fn derived_leaf_needs_inner_skeleton() {
        let root = PhysNode::DerivedScan { qt: 0, preds: vec![], rows: 1.0, cost: 2.0, group: 0 };
        let err =
            to_skeleton(&plan(root.clone()), &block_with_qts(&[0]), &HashMap::new()).unwrap_err();
        assert!(matches!(err, Error::Internal(_)));
        let mut inner = HashMap::new();
        inner.insert(
            0usize,
            Skeleton {
                root: SkelNode::Leaf(SkelLeaf {
                    qt: 1,
                    access: AccessChoice::TableScan,
                    rows: 3.0,
                    cost: 3.0,
                }),
                orca_assisted: true,
                orca_fallback: None,
                dop: None,
                search: None,
                reopt: None,
            },
        );
        let sk = to_skeleton(&plan(root), &block_with_qts(&[0]), &inner).unwrap();
        match &sk.root {
            SkelNode::Leaf(SkelLeaf { access: AccessChoice::Derived { .. }, .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn best_position_array_matches_preorder() {
        // Fig 7: positions are the plan's left-to-right leaves.
        let root = PhysNode::NLJoin {
            kind: PhysJoinKind::Inner,
            null_aware: false,
            outer: Box::new(PhysNode::NLJoin {
                kind: PhysJoinKind::Inner,
                null_aware: false,
                outer: Box::new(scan(2)),
                inner: Box::new(scan(0)),
                on: vec![],
                rows: 20.0,
                cost: 30.0,
                group: 10,
            }),
            inner: Box::new(scan(1)),
            on: vec![],
            rows: 40.0,
            cost: 80.0,
            group: 11,
        };
        let sk = to_skeleton(&plan(root), &block_with_qts(&[0, 1, 2]), &HashMap::new()).unwrap();
        assert_eq!(sk.root.qts(), vec![2, 0, 1]);
        assert_eq!(sk.best_position_display(&|qt| format!("t{qt}")), "[t2, t0, t1]");
    }
}
