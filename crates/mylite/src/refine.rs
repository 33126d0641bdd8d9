//! Plan refinement: skeleton plan → executable plan (paper §4.3).
//!
//! Refinement is deliberately *oblivious to which optimizer produced the
//! skeleton* — the paper's integration hinges on this: "MySQL plan
//! refinement — which is oblivious of this Orca detour — begins by handling
//! of the scalar expressions ... then handles aggregations ... tuple
//! orderings and row limits" (§4.3). It performs, in order:
//!
//! 1. **Predicate placement** — each WHERE conjunct attaches at the lowest
//!    plan node covering its tables: leaf filters, join conditions, or
//!    post-join filters (outer joins keep WHERE semantics separate from ON).
//! 2. **Aggregation** — MySQL's sort-then-stream aggregation, with scalar
//!    aggregation for ungrouped aggregates; HAVING becomes a filter above.
//! 3. **Row ordering** — ORDER BY keys resolve into the projected output
//!    (hidden sort columns are appended and trimmed when needed).
//! 4. **Row-limit enforcement** — LIMIT goes on top.
//!
//! The only Orca-specific behaviour, per the paper, is that refinement
//! "always yields to Orca's hash-join decisions" — join methods arrive in
//! the skeleton and are never overridden here.

use crate::bound::{BoundQuery, BoundStatement, JoinEntry, TableSource};
use crate::skeleton::{AccessChoice, JoinMethod, SkelLeaf, SkelNode, Skeleton};
use std::collections::BTreeSet;
use taurus_catalog::{CardOverrides, Catalog};
use taurus_common::error::{Error, Result};
use taurus_common::expr::split_hash_keys;
use taurus_common::{AggFunc, Expr};
use taurus_executor::{AggSpec, AggStrategy, Est, JoinKind, Plan, SortKey};

/// Refine a whole statement's skeleton into an executable plan and, when
/// `opts.dop > 1`, place exchange operators for parallel execution.
/// Exchange placement runs *before* cache-slot assignment so broadcast
/// slots are numbered alongside materialize slots; it is also the one
/// refinement step that is not optimizer-oblivious — the dop arrives from
/// Orca's cost model (or the engine's knob) via the skeleton.
///
/// `fb` carries observed-cardinality overrides: the estimates refinement
/// stamps onto plan nodes (the numbers EXPLAIN ANALYZE compares against
/// actuals) consult the same feedback table the join-order search used, so
/// a re-optimized plan's annotations reflect the injected observations
/// rather than the stale guesses.
///
/// `order_opt = true` (every default path) drops `Sort` enforcers whose
/// input already delivers their keys — a per-plan identity transform under
/// the stable-sort rule (`crate::orders`), so the only difference from
/// `order_opt = false` is the retained redundant sorts. The engine's
/// `set_order_opt(false)` is the always-enforce baseline the fuzzer and the
/// `harness orders` gate compare against, byte for byte.
pub fn refine_statement_orders(
    catalog: &Catalog,
    bound: &BoundStatement,
    skeleton: &Skeleton,
    opts: &taurus_executor::ParallelOpts,
    fb: Option<&CardOverrides>,
    order_opt: bool,
) -> Result<Plan> {
    let mut plan =
        refine_block_opts(catalog, bound, &bound.root, skeleton, &BTreeSet::new(), fb, order_opt)?;
    if opts.dop > 1 {
        plan = taurus_executor::parallelize(plan, catalog, opts);
    }
    plan.assign_cache_slots();
    Ok(plan)
}

/// One aggregate occurrence collected from the output clauses.
#[derive(Debug, Clone, PartialEq)]
struct AggItem {
    func: AggFunc,
    arg: Option<Expr>,
    distinct: bool,
}

pub(crate) fn refine_block_opts(
    catalog: &Catalog,
    bound: &BoundStatement,
    block: &BoundQuery,
    skeleton: &Skeleton,
    outer: &BTreeSet<usize>,
    fb: Option<&CardOverrides>,
    order_opt: bool,
) -> Result<Plan> {
    // Orca-assisted skeletons may rely on OR-factorized predicates (the
    // hash join on Q41's extracted equality); the paper §7 item 4 notes the
    // factorization scope "in MySQL was broadened" so such plans execute.
    // MySQL-native skeletons keep the original predicates (§1 item 3).
    let pending: Vec<Expr> = if skeleton.orca_assisted {
        block
            .predicates
            .iter()
            .cloned()
            .flat_map(|p| taurus_common::expr::factor_or(p).conjuncts())
            .collect()
    } else {
        block.predicates.clone()
    };
    let mut r = Refiner {
        catalog,
        bound,
        block,
        outer,
        pending,
        consumed_on: Vec::new(),
        block_qts: block.member_qts(),
        fb,
        order_opt,
    };
    let (mut plan, covered) = r.build_join(&skeleton.root)?;

    // Any pending conjunct must be coverable at the root.
    let leftovers: Vec<Expr> = std::mem::take(&mut r.pending);
    let mut root_filters = Vec::new();
    for p in leftovers {
        if r.coverable(&p, &covered) {
            root_filters.push(p);
        } else {
            return Err(Error::internal(format!(
                "predicate {p} references tables outside the join tree"
            )));
        }
    }
    if !root_filters.is_empty() {
        let est = plan.est();
        plan = Plan::Filter { input: Box::new(plan), predicate: root_filters, est };
    }

    // §2.2/§7 item 4: "a sort is avoided if an index scan already delivers
    // rows in the expected sorted order".
    let presorted = apply_index_order(catalog, block, &mut plan);
    let mut plan = finish_block(plan, block, presorted, fb)?;
    // Generic enforcer elimination: drop any Sort whose input already
    // delivers its keys (the stable-sort identity rule — see
    // `crate::orders`). Gated by the engine's `order_opt` knob so the
    // always-enforce plan stays available as a byte-identical baseline.
    if order_opt {
        let consts = crate::orders::block_constants(block);
        crate::orders::eliminate_redundant_sorts(&mut plan, catalog, &consts);
    }
    Ok(plan)
}

/// Try to make the plan deliver the block's ORDER BY natively: when the
/// block is a single base-table access with no aggregation/DISTINCT, the
/// ORDER BY keys are ascending bare columns, and an index's leading columns
/// match them, the table scan becomes an ordered index scan and the final
/// sort can be skipped. Returns `true` when the order is now guaranteed.
///
/// Projections, filters, and limits preserve row order in this executor, so
/// the guarantee survives the rest of the refinement pipeline.
fn apply_index_order(catalog: &Catalog, block: &BoundQuery, plan: &mut Plan) -> bool {
    if block.has_aggregation() || block.distinct || block.order_by.is_empty() {
        return false;
    }
    // Match against the *minimal* sort key (duplicates and constant-equated
    // keys dropped), so `WHERE a = 5 ORDER BY a, b` can ride an index on
    // `b` alone. An empty reduction means the order is trivially satisfied;
    // finish_block emits no sort for it either way.
    let consts = crate::orders::constant_exprs(&block.predicates);
    let reduced = crate::orders::reduce_order_keys(&block.order_by, &consts);
    if reduced.is_empty() {
        return false;
    }
    // Ascending bare columns only (descending index scans are unsupported).
    let mut order_cols = Vec::with_capacity(reduced.len());
    for (e, desc) in &reduced {
        match e {
            Expr::Column(c) if !*desc => order_cols.push(*c),
            _ => return false,
        }
    }
    let Plan::TableScan { table, qt, width, filter, est } = plan else { return false };
    if order_cols.iter().any(|c| c.table != *qt) {
        return false;
    }
    let Ok(t) = catalog.table(*table) else { return false };
    let wanted: Vec<usize> = order_cols.iter().map(|c| c.col).collect();
    let Some(index) = t.indexes.iter().position(|ix| {
        ix.def().columns.len() >= wanted.len() && ix.def().columns[..wanted.len()] == wanted[..]
    }) else {
        return false;
    };
    *plan = Plan::IndexScan {
        table: *table,
        qt: *qt,
        width: *width,
        index,
        filter: std::mem::take(filter),
        est: *est,
    };
    true
}

/// Aggregation, HAVING, projection, DISTINCT, ORDER BY, LIMIT — the
/// "refinement pipeline" above the join tree.
fn finish_block(
    mut plan: Plan,
    block: &BoundQuery,
    presorted: bool,
    fb: Option<&CardOverrides>,
) -> Result<Plan> {
    let est = plan.est();
    let mut select_exprs: Vec<Expr> = block.select.iter().map(|o| o.expr.clone()).collect();
    let mut having = block.having.clone();
    // Minimal sort key first: duplicate and constant-equated ORDER BY keys
    // compare `Equal` on every row pair, so dropping them changes no bytes
    // of a stable sort — and makes equivalent orders compare equal for the
    // order-matching passes (presorted index scans, enforcer elimination).
    let consts = crate::orders::constant_exprs(&block.predicates);
    let mut order_exprs: Vec<(Expr, bool)> =
        crate::orders::reduce_order_keys(&block.order_by, &consts);

    if block.has_aggregation() {
        // Collect distinct aggregate occurrences from all output clauses.
        let mut aggs: Vec<AggItem> = Vec::new();
        let mut collect = |e: &Expr| {
            e.walk(&mut |n| {
                if let Expr::Agg { func, arg, distinct } = n {
                    let item =
                        AggItem { func: *func, arg: arg.as_deref().cloned(), distinct: *distinct };
                    if !aggs.contains(&item) {
                        aggs.push(item);
                    }
                }
            });
        };
        for e in &select_exprs {
            collect(e);
        }
        if let Some(h) = &having {
            collect(h);
        }
        for (e, _) in &order_exprs {
            collect(e);
        }

        // MySQL refinement: sort on the grouping keys, then stream-aggregate
        // (the shape in the paper's Fig 4/5: Sort → GbAgg). Scalar
        // aggregates skip the sort.
        if !block.group_by.is_empty() {
            plan = Plan::Sort {
                input: Box::new(plan),
                keys: block
                    .group_by
                    .iter()
                    .map(|g| SortKey { expr: g.clone(), desc: false })
                    .collect(),
                est,
            };
        }
        plan = Plan::Aggregate {
            input: Box::new(plan),
            group_by: block.group_by.clone(),
            aggs: aggs
                .iter()
                .map(|a| AggSpec { func: a.func, arg: a.arg.clone(), distinct: a.distinct })
                .collect(),
            strategy: if block.group_by.is_empty() {
                AggStrategy::Hash
            } else {
                AggStrategy::Stream
            },
            // A scalar aggregate produces exactly one row; grouped output
            // is the usual one-in-ten group guess — unless a prior
            // execution observed the actual group count (feedback).
            est: Est::new(
                match fb.and_then(|f| f.agg(&block.member_qts())) {
                    Some(observed) => observed.max(1.0),
                    None if block.group_by.is_empty() => 1.0,
                    None => est.rows.max(1.0) * 0.1,
                },
                est.cost,
            ),
        };

        // Lower output clauses into the aggregate's slot space.
        let glen = block.group_by.len();
        for e in &mut select_exprs {
            *e = lower_to_slots(e, &block.group_by, &aggs, glen)?;
        }
        if let Some(h) = &mut having {
            *h = lower_to_slots(h, &block.group_by, &aggs, glen)?;
        }
        for (e, _) in &mut order_exprs {
            *e = lower_to_slots(e, &block.group_by, &aggs, glen)?;
        }

        if let Some(h) = having.take() {
            let est = plan.est();
            plan = Plan::Filter { input: Box::new(plan), predicate: h.conjuncts(), est };
        }
    } else if let Some(h) = having.take() {
        // HAVING without aggregation behaves like WHERE (MySQL extension).
        let est = plan.est();
        plan = Plan::Filter { input: Box::new(plan), predicate: h.conjuncts(), est };
    }

    // Projection (+ hidden sort columns when ORDER BY is not in the output).
    // A presorted input (ordered index scan) needs no sort keys at all.
    let visible = select_exprs.len();
    let mut proj = select_exprs;
    let mut sort_keys: Vec<SortKey> = Vec::new();
    let order_exprs: Vec<(Expr, bool)> = if presorted { Vec::new() } else { order_exprs };
    for (e, desc) in &order_exprs {
        let pos = proj.iter().position(|p| p == e).unwrap_or_else(|| {
            proj.push(e.clone());
            proj.len() - 1
        });
        sort_keys.push(SortKey { expr: Expr::Slot(pos), desc: *desc });
    }
    let hidden = proj.len() > visible;
    if block.distinct && hidden {
        return Err(Error::semantic(
            "ORDER BY expressions must appear in the select list when DISTINCT is used",
        ));
    }
    let est = plan.est();
    plan = Plan::Project { input: Box::new(plan), exprs: proj, est };
    if block.distinct {
        let est = plan.est();
        plan = Plan::Union { inputs: vec![plan], distinct: true, est };
    }
    if !sort_keys.is_empty() {
        let est = plan.est();
        plan = Plan::Sort { input: Box::new(plan), keys: sort_keys, est };
    }
    if hidden {
        let est = plan.est();
        plan = Plan::Project {
            input: Box::new(plan),
            exprs: (0..visible).map(Expr::Slot).collect(),
            est,
        };
    }
    if let Some(n) = block.limit {
        let est = plan.est();
        plan = Plan::Limit {
            input: Box::new(plan),
            n,
            est: Est::new(est.rows.min(n as f64), est.cost),
        };
    }
    Ok(plan)
}

/// Rewrite a post-aggregation expression into the aggregate node's slot
/// space: grouping expressions become `Slot(i)`, aggregate calls become
/// `Slot(glen + j)`. Any base-column reference left over violates
/// ONLY_FULL_GROUP_BY.
fn lower_to_slots(e: &Expr, group_by: &[Expr], aggs: &[AggItem], glen: usize) -> Result<Expr> {
    // Top-down so a grouping expression matches before its children change.
    fn go(e: &Expr, group_by: &[Expr], aggs: &[AggItem], glen: usize) -> Result<Expr> {
        if let Some(i) = group_by.iter().position(|g| g == e) {
            return Ok(Expr::Slot(i));
        }
        if let Expr::Agg { func, arg, distinct } = e {
            let item = AggItem { func: *func, arg: arg.as_deref().cloned(), distinct: *distinct };
            let j = aggs
                .iter()
                .position(|a| *a == item)
                .ok_or_else(|| Error::internal("aggregate not collected"))?;
            return Ok(Expr::Slot(glen + j));
        }
        let rec = |x: &Expr| go(x, group_by, aggs, glen);
        Ok(match e {
            Expr::Column(c) => {
                return Err(Error::semantic(format!(
                    "column t{}.c{} is neither grouped nor aggregated (ONLY_FULL_GROUP_BY)",
                    c.table, c.col
                )))
            }
            Expr::Slot(_) | Expr::Literal(_) | Expr::Param { .. } => e.clone(),
            Expr::Binary { op, left, right } => {
                Expr::Binary { op: *op, left: Box::new(rec(left)?), right: Box::new(rec(right)?) }
            }
            Expr::Unary { op, input } => Expr::Unary { op: *op, input: Box::new(rec(input)?) },
            Expr::Func { func, args } => {
                Expr::Func { func: *func, args: args.iter().map(rec).collect::<Result<_>>()? }
            }
            Expr::Case { operand, branches, else_ } => Expr::Case {
                operand: operand.as_deref().map(rec).transpose()?.map(Box::new),
                branches: branches
                    .iter()
                    .map(|(w, t)| Ok((rec(w)?, rec(t)?)))
                    .collect::<Result<_>>()?,
                else_: else_.as_deref().map(rec).transpose()?.map(Box::new),
            },
            Expr::InList { expr, list, negated } => Expr::InList {
                expr: Box::new(rec(expr)?),
                list: list.iter().map(rec).collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::Like { expr, pattern, negated } => Expr::Like {
                expr: Box::new(rec(expr)?),
                pattern: Box::new(rec(pattern)?),
                negated: *negated,
            },
            Expr::Between { expr, low, high, negated } => Expr::Between {
                expr: Box::new(rec(expr)?),
                low: Box::new(rec(low)?),
                high: Box::new(rec(high)?),
                negated: *negated,
            },
            Expr::Agg { .. } => unreachable!("handled above"),
        })
    }
    go(e, group_by, aggs, glen)
}

struct Refiner<'a> {
    catalog: &'a Catalog,
    bound: &'a BoundStatement,
    block: &'a BoundQuery,
    outer: &'a BTreeSet<usize>,
    /// WHERE conjuncts not yet attached.
    pending: Vec<Expr>,
    /// ON conjuncts already applied at a leaf (pushed-down filters or
    /// index-lookup keys); skipped when the join node gathers its ON list.
    consumed_on: Vec<Expr>,
    block_qts: BTreeSet<usize>,
    /// Observed-cardinality overrides (feedback-driven re-optimization).
    fb: Option<&'a CardOverrides>,
    /// Drop redundant Sort enforcers (threaded into derived blocks).
    order_opt: bool,
}

impl<'a> Refiner<'a> {
    fn coverable(&self, p: &Expr, covered: &BTreeSet<usize>) -> bool {
        p.referenced_tables()
            .iter()
            .all(|t| covered.contains(t) || self.outer.contains(t) || !self.block_qts.contains(t))
    }

    /// Take the pending conjuncts attachable at a node covering `covered`.
    fn take_coverable(&mut self, covered: &BTreeSet<usize>) -> Vec<Expr> {
        let mut taken = Vec::new();
        let mut keep = Vec::new();
        for p in std::mem::take(&mut self.pending) {
            if self.coverable(&p, covered) {
                taken.push(p);
            } else {
                keep.push(p);
            }
        }
        self.pending = keep;
        taken
    }

    fn build_join(&mut self, node: &SkelNode) -> Result<(Plan, BTreeSet<usize>)> {
        match node {
            SkelNode::Leaf(leaf) => self.build_leaf(leaf),
            SkelNode::Join { method, left, right, rows, cost } => {
                let (lp, lcov) = self.build_join(left)?;
                let (rp, rcov) = self.build_join(right)?;
                let covered: BTreeSet<usize> = lcov.union(&rcov).copied().collect();
                let est = Est::new(*rows, *cost);

                // Join kind from the right subtree's defining member.
                let (kind, mut on, null_aware) = self.join_kind_and_conditions(&rcov, &covered)?;

                // WHERE conjuncts attachable here.
                let mut post = self.take_coverable(&covered);
                if kind == JoinKind::Inner {
                    on.append(&mut post);
                }

                let mut plan = match method {
                    JoinMethod::NestedLoop => {
                        let rp = self.maybe_materialize(rp, &rcov);
                        Plan::NestedLoop {
                            kind,
                            left: Box::new(lp),
                            right: Box::new(rp),
                            on,
                            null_aware,
                            est,
                        }
                    }
                    JoinMethod::Hash => {
                        let (keys, residual) = split_hash_keys(&on, &lcov, &rcov, self.outer);
                        if keys.is_empty() {
                            // No equi-keys extractable: degrade to NLJ.
                            let rp = self.maybe_materialize(rp, &rcov);
                            Plan::NestedLoop {
                                kind,
                                left: Box::new(lp),
                                right: Box::new(rp),
                                on,
                                null_aware,
                                est,
                            }
                        } else {
                            Plan::HashJoin {
                                kind,
                                // §7 item 2: MySQL builds on the LEFT for
                                // inner hash joins, on the right otherwise.
                                build_left: kind == JoinKind::Inner,
                                left: Box::new(lp),
                                right: Box::new(rp),
                                keys,
                                residual,
                                null_aware,
                                est,
                            }
                        }
                    }
                };
                if !post.is_empty() {
                    plan = Plan::Filter { input: Box::new(plan), predicate: post, est };
                }
                Ok((plan, covered))
            }
            SkelNode::Sort { input, keys, rows, cost } => {
                // Sort-ahead from the optimizer: lower it faithfully even
                // when its order claim is wrong — the enforcer-elimination
                // pass re-derives delivered orders independently, so a
                // mispredicted sort-ahead costs a redundant sort, never
                // wrong bytes.
                let (plan, covered) = self.build_join(input)?;
                let plan = Plan::Sort {
                    input: Box::new(plan),
                    keys: keys
                        .iter()
                        .map(|(e, desc)| SortKey { expr: e.clone(), desc: *desc })
                        .collect(),
                    est: Est::new(*rows, *cost),
                };
                Ok((plan, covered))
            }
        }
    }

    /// Determine the join kind for a node whose right subtree covers `rcov`:
    /// if that subtree is exactly one member with a non-inner entry, the
    /// entry dictates semi/anti/outer semantics and contributes its ON
    /// conjuncts; otherwise it is a plain inner join.
    fn join_kind_and_conditions(
        &self,
        rcov: &BTreeSet<usize>,
        covered: &BTreeSet<usize>,
    ) -> Result<(JoinKind, Vec<Expr>, bool)> {
        if rcov.len() == 1 {
            let qt = *rcov.iter().next().expect("len checked");
            if let Some(m) = self.block.member(qt) {
                match &m.entry {
                    JoinEntry::Inner => {}
                    JoinEntry::LeftOuter { on } => {
                        return Ok((JoinKind::LeftOuter, self.split_on(on, covered)?, false));
                    }
                    JoinEntry::Semi { on } => {
                        return Ok((JoinKind::Semi, self.split_on(on, covered)?, false));
                    }
                    JoinEntry::Anti { on, null_aware } => {
                        return Ok((JoinKind::AntiSemi, self.split_on(on, covered)?, *null_aware));
                    }
                }
            }
        }
        // Multi-table right subtrees join as inner; any non-inner member
        // inside them was already handled at its own join node deeper in
        // the subtree (its ON conjuncts are consumed there). §7 item 6's
        // restriction — no multi-table semi-join *build sides* — holds by
        // construction: both optimizers emit dependents as lone right
        // children of their defining join.
        Ok((JoinKind::Inner, Vec::new(), false))
    }

    /// The ON conjuncts that stay at the join: all but those the leaf
    /// already consumed (single-table ones were pushed down during leaf
    /// construction, lookup keys consumed by the access).
    fn split_on(&self, on: &[Expr], covered: &BTreeSet<usize>) -> Result<Vec<Expr>> {
        let mut at_join = Vec::new();
        for c in on {
            let refs = c.referenced_tables();
            if self.consumed_on.contains(c) {
                continue; // pushed into the leaf or consumed as lookup keys
            }
            if !refs.iter().all(|t| covered.contains(t) || self.outer.contains(t)) {
                return Err(Error::internal(format!(
                    "ON condition {c} references tables outside the join subtree"
                )));
            }
            at_join.push(c.clone());
        }
        Ok(at_join)
    }

    fn build_leaf(&mut self, leaf: &SkelLeaf) -> Result<(Plan, BTreeSet<usize>)> {
        let qt = leaf.qt;
        let meta = self.bound.table(qt);
        let member = self
            .block
            .member(qt)
            .ok_or_else(|| Error::internal(format!("skeleton leaf qt {qt} not in block")))?;
        let width = meta.width();
        let mut covered = BTreeSet::new();
        covered.insert(qt);

        // Leaf-attachable predicates: WHERE conjuncts + single-table ON
        // conjuncts (pushable for outer/semi/anti joins too). WHERE
        // conjuncts must NOT sink below a left join, though: a pre-join
        // filter on the nullable side cannot reject NULL-extended rows.
        // Null-rejecting conjuncts were already promoted to inner joins
        // during prepare, so whatever still targets a LeftOuter member
        // (IS NULL tests, NOT IN, …) has to run above the join — leave it
        // pending for the join node to attach as a post-filter.
        let mut filter = if matches!(member.entry, JoinEntry::LeftOuter { .. }) {
            Vec::new()
        } else {
            self.take_coverable(&covered)
        };
        for c in member.entry.on() {
            let refs = c.referenced_tables();
            if refs.contains(&qt)
                && refs.iter().all(|t| *t == qt || self.outer.contains(t))
                && !self.consumed_on.contains(c)
            {
                filter.push(c.clone());
                self.consumed_on.push(c.clone());
            }
        }

        let est = Est::new(leaf.rows, leaf.cost);
        let plan = match &leaf.access {
            AccessChoice::TableScan => {
                let id = base_id(meta)?;
                Plan::TableScan { table: id, qt, width, filter, est }
            }
            AccessChoice::IndexScan { index } => {
                let id = base_id(meta)?;
                Plan::IndexScan { table: id, qt, width, index: *index, filter, est }
            }
            AccessChoice::IndexRange { index, lo, hi, consumed } => {
                let id = base_id(meta)?;
                filter.retain(|f| !consumed.contains(f));
                self.pending.retain(|p| !consumed.contains(p));
                Plan::IndexRange {
                    table: id,
                    qt,
                    width,
                    index: *index,
                    lo: lo.clone(),
                    hi: hi.clone(),
                    filter,
                    est,
                }
            }
            AccessChoice::IndexLookup { index, keys, consumed } => {
                let id = base_id(meta)?;
                filter.retain(|f| !consumed.contains(f));
                self.pending.retain(|p| !consumed.contains(p));
                // Lookup-consumed ON conjuncts must not re-apply at the join.
                for c in consumed {
                    if !self.consumed_on.contains(c) {
                        self.consumed_on.push(c.clone());
                    }
                }
                Plan::IndexLookup {
                    table: id,
                    qt,
                    width,
                    index: *index,
                    keys: keys.clone(),
                    filter,
                    est,
                }
            }
            AccessChoice::InListProbes { index, keys, consumed } => {
                let id = base_id(meta)?;
                filter.retain(|f| !consumed.contains(f));
                self.pending.retain(|p| !consumed.contains(p));
                for c in consumed {
                    if !self.consumed_on.contains(c) {
                        self.consumed_on.push(c.clone());
                    }
                }
                // One point lookup per (sorted, deduplicated) literal,
                // concatenated: the shape `orders::in_list_union_order`
                // recognizes as delivering the leading column ascending.
                let k = keys.len().max(1) as f64;
                let per = Est::new(leaf.rows / k, leaf.cost / k);
                let inputs: Vec<Plan> = keys
                    .iter()
                    .map(|key| Plan::IndexLookup {
                        table: id,
                        qt,
                        width,
                        index: *index,
                        keys: vec![key.clone()],
                        filter: filter.clone(),
                        est: per,
                    })
                    .collect();
                Plan::Union { inputs, distinct: false, est }
            }
            AccessChoice::Derived { skeleton } => {
                let (inner_block, correlated, label) = match &meta.source {
                    TableSource::Derived { query, correlated, label } => {
                        (query.as_ref(), *correlated, label.clone())
                    }
                    TableSource::Base { .. } => {
                        return Err(Error::internal("Derived access on base table"))
                    }
                };
                let mut inner_outer = self.outer.clone();
                inner_outer.extend(self.block_qts.iter().copied());
                let mut inner_plan = refine_block_opts(
                    self.catalog,
                    self.bound,
                    inner_block,
                    skeleton,
                    &inner_outer,
                    self.fb,
                    self.order_opt,
                )?;
                // An observed cardinality for the derived table is exact for
                // the inner block's head — the nodes above its aggregation
                // (HAVING filter, projection, sort) emit the derived output,
                // which the group-count override alone cannot predict. Only
                // safe without an outer filter: with one, the recorded
                // singleton is the post-filter count, not the block output.
                if filter.is_empty() {
                    if let Some(observed) = self.fb.and_then(|f| f.rel_singleton(qt)) {
                        stamp_observed_output(&mut inner_plan, observed.max(1.0));
                    }
                }
                // Derived and Materialize emit the inner block's rows; only
                // the Filter above applies the outer block's local
                // predicates. Stamping the post-filter estimate (leaf.rows)
                // on all three made the unfiltered nodes look wrong by the
                // filter's whole selectivity in EXPLAIN ANALYZE.
                let pre = if filter.is_empty() {
                    est
                } else {
                    Est::new(
                        crate::optimizer::derived_output_rows_fb(
                            inner_block,
                            skeleton.root.rows(),
                            self.fb,
                        ),
                        leaf.cost,
                    )
                };
                let mut plan =
                    Plan::Derived { input: Box::new(inner_plan), qt, width, name: label, est: pre };
                plan = Plan::Materialize {
                    input: Box::new(plan),
                    rebind: correlated,
                    cache_slot: 0, // assigned later
                    est: pre,
                };
                if !filter.is_empty() {
                    plan = Plan::Filter { input: Box::new(plan), predicate: filter, est };
                }
                return Ok((plan, covered));
            }
        };
        Ok((plan, covered))
    }

    /// Buffer an uncorrelated nested-loop inner side so it is not re-scanned
    /// per outer row (MySQL's join buffering). Correlated subtrees (index
    /// lookups, rebind-materialized deriveds, filters over outer columns)
    /// must re-open per row and are left alone.
    fn maybe_materialize(&self, plan: Plan, rcov: &BTreeSet<usize>) -> Plan {
        if matches!(plan, Plan::IndexLookup { .. } | Plan::Materialize { .. }) {
            return plan;
        }
        let mut allowed = rcov.clone();
        // Tables outside this block (outer correlation) make it rebindable.
        if plan_references_outside(&plan, &mut allowed) {
            return plan;
        }
        let est = plan.est();
        Plan::Materialize { input: Box::new(plan), rebind: false, cache_slot: 0, est }
    }
}

/// Overwrite the estimates on a derived block's head — every node above its
/// aggregation (HAVING filter, projection, sort, limit) — with an observed
/// derived-output cardinality. The aggregate itself keeps the observed group
/// count; only the post-HAVING nodes emit the derived output.
fn stamp_observed_output(plan: &mut Plan, rows: f64) {
    match plan {
        Plan::Project { input, est, .. }
        | Plan::Filter { input, est, .. }
        | Plan::Sort { input, est, .. } => {
            est.rows = rows;
            stamp_observed_output(input, rows);
        }
        // Nodes below a LIMIT emit more rows than the block outputs.
        Plan::Limit { est, .. } => est.rows = rows,
        _ => {}
    }
}

/// Does any expression in the plan reference a table not in `allowed`?
/// (Grows `allowed` with tables the plan itself produces.)
fn plan_references_outside(plan: &Plan, allowed: &mut BTreeSet<usize>) -> bool {
    let mut outside = false;
    let mut check = |e: &Expr| {
        for t in e.referenced_tables() {
            if !allowed.contains(&t) {
                outside = true;
            }
        }
    };
    match plan {
        Plan::TableScan { filter, .. } | Plan::IndexScan { filter, .. } => {
            filter.iter().for_each(&mut check)
        }
        Plan::IndexRange { lo, hi, filter, .. } => {
            if let Some((e, _)) = lo {
                check(e);
            }
            if let Some((e, _)) = hi {
                check(e);
            }
            filter.iter().for_each(&mut check);
        }
        Plan::IndexLookup { keys, filter, .. } => {
            keys.iter().for_each(&mut check);
            filter.iter().for_each(&mut check);
        }
        Plan::NestedLoop { on, .. } => on.iter().for_each(&mut check),
        Plan::HashJoin { keys, residual, .. } => {
            keys.iter().for_each(|(a, b)| {
                check(a);
                check(b);
            });
            residual.iter().for_each(&mut check);
        }
        Plan::Filter { predicate, .. } => predicate.iter().for_each(&mut check),
        Plan::Project { exprs, .. } => exprs.iter().for_each(&mut check),
        Plan::Aggregate { group_by, aggs, .. } => {
            group_by.iter().for_each(&mut check);
            aggs.iter().filter_map(|a| a.arg.as_ref()).for_each(&mut check);
        }
        Plan::Sort { keys, .. } => keys.iter().for_each(|k| check(&k.expr)),
        Plan::Derived { qt, .. } => {
            allowed.insert(*qt);
        }
        Plan::Exchange { kind, .. } => {
            if let taurus_executor::ExchangeKind::Repartition { keys } = kind {
                keys.iter().for_each(&mut check);
            }
        }
        Plan::Materialize { .. } | Plan::Limit { .. } | Plan::Union { .. } => {}
    }
    if outside {
        return true;
    }
    for c in plan.children() {
        if plan_references_outside(c, allowed) {
            return true;
        }
    }
    false
}

fn base_id(meta: &crate::bound::TableMeta) -> Result<taurus_common::TableId> {
    match &meta.source {
        TableSource::Base { id } => Ok(*id),
        TableSource::Derived { .. } => {
            Err(Error::internal("scan access method on a derived table"))
        }
    }
}
