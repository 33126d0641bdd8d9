//! Order properties over executable plans: delivered-order derivation,
//! minimal sort-key reduction, and redundant-Sort elimination.
//!
//! The memo claims orders during search (`orcalite`'s physical properties),
//! but this pass is what makes elimination *safe*: it re-derives, bottom-up
//! over the refined executor plan, the order each node actually delivers —
//! independently of anything the optimizer believed — and drops a `Sort`
//! only under the **stable-sort identity rule**:
//!
//! > a stable sort whose keys (expression, direction, NULLS placement) are
//! > a prefix of the input's delivered order is the identity function.
//!
//! Because the engine's `Sort` is a stable sort (`slice::sort_by` over the
//! shared comparator in `taurus_executor::ordering`), a dropped enforcer
//! changes *no bytes* of the output — not even tie-row order or float
//! accumulation order downstream. That is why the `order_opt` knob can
//! guarantee byte-identical results against always-enforce plans at any
//! dop: the two plans differ only by identity transforms.
//!
//! Delivered orders derive from executor facts (each documented at its
//! match arm): the B-tree index iterates `(key columns ascending via
//! `total_cmp`, then insertion order)`, hash joins emit probe-side order,
//! nested loops preserve the outer side, aggregates emit groups in
//! first-seen order, and `Gather` concatenates morsels in scan order.

use taurus_catalog::Catalog;
use taurus_common::{BinOp, Expr};
use taurus_executor::{AccessPath, JoinKind, Plan, SortKey};

/// Keys proven constant at a block's sort nodes: any expression equated to
/// a literal or parameter by a WHERE-conjunct (`a = 5`, `a = ?`), in either
/// position. Literals and parameters themselves are constant trivially.
pub fn constant_exprs(predicates: &[Expr]) -> Vec<Expr> {
    let mut consts = Vec::new();
    for p in predicates {
        if let Expr::Binary { op: BinOp::Eq, left, right } = p {
            match (is_const(left), is_const(right)) {
                (false, true) => consts.push(left.as_ref().clone()),
                (true, false) => consts.push(right.as_ref().clone()),
                _ => {}
            }
        }
    }
    consts
}

fn is_const(e: &Expr) -> bool {
    matches!(e, Expr::Literal(_) | Expr::Param { .. })
}

/// Reduce an ORDER BY list to its minimal sort key: drop constant keys
/// (literals, parameters, and anything `constant_exprs` proved equal on
/// every row) and duplicate keys (a repeated expression can never break a
/// tie the first occurrence left). Equivalent orders thus compare equal
/// before any order matching. Identity-preserving on a stable sort: every
/// dropped key compares `Equal` on every row pair, so the comparator's
/// verdicts — and therefore the output bytes — are unchanged.
pub fn reduce_order_keys(keys: &[(Expr, bool)], consts: &[Expr]) -> Vec<(Expr, bool)> {
    let mut out: Vec<(Expr, bool)> = Vec::with_capacity(keys.len());
    for (e, desc) in keys {
        if is_const(e) || consts.contains(e) {
            continue;
        }
        // Direction is irrelevant for duplicates: within ties of the first
        // occurrence the repeated key is equal either way.
        if out.iter().any(|(seen, _)| seen == e) {
            continue;
        }
        out.push((e.clone(), *desc));
    }
    out
}

/// The order a plan node delivers, bottom-up, as sort keys valid in the
/// node's own row space. Conservative: an empty vector means "no order
/// proven", never "unordered is fine".
///
/// `consts` carries the block's proven-constant expressions: a delivered
/// key that is constant compares `Equal` on every row pair, so the
/// re-addressing arms (projection, aggregation, derived) may *skip* it
/// instead of breaking the order chain — that is what lets
/// `WHERE a = 5 ORDER BY a, b` match an `(a, b)` index through a
/// projection that only exposes `b`.
pub fn delivered_order(plan: &Plan, catalog: &Catalog, consts: &[Expr]) -> Vec<SortKey> {
    match plan {
        Plan::Scan { read, path, .. } => match path {
            // Heap order is insertion order — deterministic, but not a key
            // order. A lookup makes one point lookup per (re)opening; rows
            // share the looked-up key prefix and arrive in insertion order —
            // nothing worth claiming.
            AccessPath::Heap | AccessPath::Lookup { .. } => Vec::new(),
            // A full index scan iterates the B-tree: key columns ascending
            // (NULLs first under `total_cmp`), ties in insertion order — i.e.
            // a stable sort of the heap by every index column ascending. A
            // range scan iterates the same B-tree over a key subrange: the
            // delivered order is the full index column list, identically.
            AccessPath::Index { index } | AccessPath::Range { index, .. } => {
                index_order(catalog, read.table, read.qt, *index)
            }
        },
        // Filters drop rows in place; limits truncate; materialization
        // buffers and replays — all order-preserving.
        Plan::Filter { input, .. }
        | Plan::Limit { input, .. }
        | Plan::Materialize { input, .. } => delivered_order(input, catalog, consts),
        // A projection re-addresses rows into slot space: keep the prefix of
        // the input's order whose expressions the output still exposes;
        // constant keys are skipped rather than chain-breaking.
        Plan::Project { input, exprs, .. } => {
            let mut out = Vec::new();
            for k in delivered_order(input, catalog, consts) {
                if consts.contains(&k.expr) {
                    continue;
                }
                match exprs.iter().position(|e| *e == k.expr) {
                    Some(pos) => out.push(SortKey { expr: Expr::Slot(pos), desc: k.desc }),
                    None => break,
                }
            }
            out
        }
        // Derived re-homes slot `i` of the inner block as column `i` of
        // query table `qt`; the inner order survives the renaming. (The
        // outer block's constants are in its own column space and cannot
        // match inner slots, so no skip applies here.)
        Plan::Derived { input, qt, .. } => {
            let mut out = Vec::new();
            for k in delivered_order(input, catalog, &[]) {
                match k.expr {
                    Expr::Slot(i) => out.push(SortKey { expr: Expr::col(*qt, i), desc: k.desc }),
                    _ => break,
                }
            }
            out
        }
        // A stable sort delivers its keys, then — within ties — whatever
        // order its input already had.
        Plan::Sort { input, keys, .. } => {
            let mut out = keys.clone();
            for k in delivered_order(input, catalog, consts) {
                if out.iter().all(|o| o.expr != k.expr) {
                    out.push(k);
                }
            }
            out
        }
        // Both aggregate strategies emit groups in first-seen order, so the
        // prefix of the input's order made of grouping expressions carries
        // over (every row of a group is equal on it); output addressing is
        // `Slot(i)` for `group_by[i]`. Scalar aggregation (no GROUP BY)
        // emits one row — no order worth claiming.
        Plan::Aggregate { input, group_by, .. } => {
            let mut out = Vec::new();
            for k in delivered_order(input, catalog, consts) {
                if consts.contains(&k.expr) {
                    continue;
                }
                match group_by.iter().position(|g| *g == k.expr) {
                    Some(i) => out.push(SortKey { expr: Expr::Slot(i), desc: k.desc }),
                    None => break,
                }
            }
            out
        }
        // A hash join streams probe rows in order; every emitted row copies
        // its probe row's values, so probe-side order survives (rows from
        // one probe row tie on every probe expression). Build side: LEFT for
        // inner joins (MySQL's convention), right otherwise — for semi/anti/
        // outer joins the probe is the left side, which is also the output
        // space.
        Plan::HashJoin { kind, build_left, left, right, .. } => {
            let probe: &Plan = match kind {
                JoinKind::Inner if *build_left => right,
                _ => left,
            };
            delivered_order(probe, catalog, consts)
        }
        // Nested loops iterate the outer (left) side in order; inner
        // matches nest within each outer row.
        Plan::NestedLoop { left, .. } => delivered_order(left, catalog, consts),
        Plan::Union { inputs, .. } => {
            match inputs.as_slice() {
                // UNION DISTINCT over one input dedups first-seen, in order.
                [one] => delivered_order(one, catalog, consts),
                // The IN-list expansion: same-index point lookups with
                // strictly ascending constant keys, concatenated — sorted by
                // the index's leading column (ties are per-lookup insertion
                // order, i.e. a stable sort of the combined rows).
                many => in_list_union_order(many, catalog),
            }
        }
        // Exchanges only exist after parallel placement; this pass runs on
        // serial plans, so claim nothing rather than reason about them.
        Plan::Exchange { .. } => Vec::new(),
    }
}

fn index_order(
    catalog: &Catalog,
    table: taurus_common::TableId,
    qt: usize,
    ix: usize,
) -> Vec<SortKey> {
    let Ok(t) = catalog.table(table) else { return Vec::new() };
    let Some(index) = t.indexes.get(ix) else { return Vec::new() };
    index
        .def()
        .columns
        .iter()
        .map(|&col| SortKey { expr: Expr::col(qt, col), desc: false })
        .collect()
}

/// Delivered order of a `Union` of same-index lookups with strictly
/// ascending single-column constant keys (the cost-based IN-list rewrite's
/// shape): the index's leading column, ascending.
fn in_list_union_order(inputs: &[Plan], catalog: &Catalog) -> Vec<SortKey> {
    let mut sig: Option<(taurus_common::TableId, usize, usize)> = None;
    let mut prev: Option<taurus_common::Value> = None;
    for p in inputs {
        let Plan::Scan { read, path: AccessPath::Lookup { index, keys }, .. } = p else {
            return Vec::new();
        };
        match sig {
            None => sig = Some((read.table, read.qt, *index)),
            Some(s) if s == (read.table, read.qt, *index) => {}
            _ => return Vec::new(),
        }
        let [Expr::Literal(v)] = keys.as_slice() else { return Vec::new() };
        if let Some(pv) = &prev {
            if pv.total_cmp(v) != std::cmp::Ordering::Less {
                return Vec::new();
            }
        }
        prev = Some(v.clone());
    }
    let Some((table, qt, ix)) = sig else { return Vec::new() };
    let Ok(t) = catalog.table(table) else { return Vec::new() };
    let Some(index) = t.indexes.get(ix) else { return Vec::new() };
    match index.def().columns.first() {
        Some(&col) => vec![SortKey { expr: Expr::col(qt, col), desc: false }],
        None => Vec::new(),
    }
}

/// Whether a `Sort` with `keys` is the identity over an input delivering
/// `delivered`: each key must match the delivered key at the same rank
/// (expression and direction — NULLS placement follows direction under the
/// shared comparator, so it matches by construction). Delivered keys proven
/// constant are skipped — they compare `Equal` on every surviving row pair
/// and cannot affect the sort — and constant sort keys never occur here
/// (`reduce_order_keys` removed them).
pub fn sort_is_redundant(keys: &[SortKey], delivered: &[SortKey], consts: &[Expr]) -> bool {
    let mut d = delivered.iter().filter(|k| !consts.contains(&k.expr));
    keys.iter().all(|k| match d.next() {
        Some(del) => del.expr == k.expr && del.desc == k.desc,
        None => false,
    })
}

/// Drop every `Sort` node whose input already delivers its keys (per the
/// stable-sort identity rule). Operates on one block's plan: recursion
/// stops at `Derived` boundaries, whose inner blocks ran their own pass
/// with their own constant set. Returns the number of sorts eliminated.
pub fn eliminate_redundant_sorts(plan: &mut Plan, catalog: &Catalog, consts: &[Expr]) -> usize {
    let mut dropped = 0;
    // Children first, so a Sort sees its input's final (post-elimination)
    // shape — elimination only ever *extends* delivered orders upward.
    if !matches!(plan, Plan::Derived { .. }) {
        for c in plan.children_mut() {
            dropped += eliminate_redundant_sorts(c, catalog, consts);
        }
    }
    if let Plan::Sort { input, keys, .. } = plan {
        if sort_is_redundant(keys, &delivered_order(input, catalog, consts), consts) {
            let inner = std::mem::replace(input.as_mut(), placeholder());
            *plan = inner;
            dropped += 1;
        }
    }
    dropped
}

fn placeholder() -> Plan {
    Plan::Union { inputs: Vec::new(), distinct: false, est: taurus_executor::Est::default() }
}

/// Count `Sort` nodes in a plan — the harness `orders` gate's before/after
/// measure of enforcer pressure.
pub fn count_sorts(plan: &Plan) -> usize {
    let mut n = usize::from(matches!(plan, Plan::Sort { .. }));
    for c in plan.children() {
        n += count_sorts(c);
    }
    n
}

/// The constant set a block's sort nodes may assume, from its WHERE
/// conjuncts.
pub fn block_constants(block: &crate::bound::BoundQuery) -> Vec<Expr> {
    constant_exprs(&block.predicates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::Value;

    fn lit(i: i64) -> Expr {
        Expr::Literal(Value::Int(i))
    }

    #[test]
    fn order_reduction_drops_constant_and_duplicate_keys() {
        // WHERE a = 5 ORDER BY a, b, a DESC, 3  →  ORDER BY b
        let a = Expr::col(0, 0);
        let b = Expr::col(0, 1);
        let consts = constant_exprs(&[Expr::Binary {
            op: BinOp::Eq,
            left: Box::new(a.clone()),
            right: Box::new(lit(5)),
        }]);
        let reduced = reduce_order_keys(
            &[(a.clone(), false), (b.clone(), false), (a.clone(), true), (lit(3), false)],
            &consts,
        );
        assert_eq!(reduced, vec![(b, false)]);
    }

    #[test]
    fn constant_detection_is_direction_agnostic() {
        let a = Expr::col(0, 0);
        let flipped =
            Expr::Binary { op: BinOp::Eq, left: Box::new(lit(7)), right: Box::new(a.clone()) };
        assert_eq!(constant_exprs(&[flipped]), vec![a]);
        // col = col equates nothing to a constant.
        let cc = Expr::Binary {
            op: BinOp::Eq,
            left: Box::new(Expr::col(0, 0)),
            right: Box::new(Expr::col(0, 1)),
        };
        assert!(constant_exprs(&[cc]).is_empty());
    }

    #[test]
    fn redundancy_matches_prefixes_and_skips_constant_delivered_keys() {
        let a = || SortKey { expr: Expr::col(0, 0), desc: false };
        let b = || SortKey { expr: Expr::col(0, 1), desc: false };
        let delivered = vec![a(), b()];
        assert!(sort_is_redundant(&[a()], &delivered, &[]), "prefix is identity");
        assert!(!sort_is_redundant(&[b()], &delivered, &[]), "b alone is not a prefix");
        // With a proven constant, the delivered `a` is skippable and `b`
        // becomes the effective leading key.
        assert!(sort_is_redundant(&[b()], &delivered, &[Expr::col(0, 0)]));
        // Direction mismatch is never redundant.
        let a_desc = SortKey { expr: Expr::col(0, 0), desc: true };
        assert!(!sort_is_redundant(&[a_desc], &delivered, &[]));
    }
}
