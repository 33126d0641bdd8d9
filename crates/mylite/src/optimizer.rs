//! MySQL-style cost-based optimization (the phase Orca replaces, Fig 2).
//!
//! Reproduces the MySQL optimizer's documented behaviour — including the
//! limitations §1 of the paper enumerates:
//!
//! 1. only left-deep join trees;
//! 2. greedy join-order selection (no optimality guarantee);
//! 3. no OR refactoring;
//! 4. no aggregation pushdown (aggregation always after all joins);
//! 5. limited predicate pushdown through GROUP BY.
//!
//! Join methods are chosen *non-cost-based*, as §3.1 observes: an index
//! nested-loop join is used whenever an index lookup is possible, a hash
//! join only when an equi-join exists with no usable index, and a
//! materialized nested-loop scan otherwise.

use crate::bound::{BoundQuery, BoundStatement, JoinEntry, TableSource};
use crate::skeleton::{AccessChoice, JoinMethod, SkelLeaf, SkelNode, Skeleton};
use std::collections::BTreeSet;
use taurus_catalog::estimate::{Estimator, RelView};
use taurus_catalog::{CardOverrides, Catalog};
use taurus_common::error::{Error, Result};
use taurus_common::{BinOp, Expr};

/// Cost-model constants, roughly calibrated to MySQL's server cost model
/// (sequential row ~1, random index dive ~2, hash overheads ~1-2).
pub mod cost {
    pub const SCAN_PER_ROW: f64 = 1.0;
    pub const RANGE_PER_ROW: f64 = 2.0;
    pub const LOOKUP_BASE: f64 = 2.0;
    pub const LOOKUP_PER_ROW: f64 = 1.5;
    pub const HASH_BUILD_PER_ROW: f64 = 1.5;
    pub const HASH_PROBE_PER_ROW: f64 = 1.0;
    pub const OUTPUT_PER_ROW: f64 = 0.1;
    /// One buffered nested-loop pair evaluation.
    pub const NL_PAIR: f64 = 1.0;
}

/// Entry point: optimize every block of the statement (derived tables
/// bottom-up) into a skeleton plan.
pub fn optimize_statement(catalog: &Catalog, bound: &BoundStatement) -> Result<Skeleton> {
    optimize_statement_feedback(catalog, bound, None)
}

/// [`optimize_statement`] with observed-cardinality overrides from a prior
/// execution (feedback-driven re-optimization): exact-set observations
/// replace estimates at leaves, join prefixes, and grouped-aggregate
/// outputs of derived tables.
pub fn optimize_statement_feedback(
    catalog: &Catalog,
    bound: &BoundStatement,
    fb: Option<&CardOverrides>,
) -> Result<Skeleton> {
    let ctx = PlanCtx { catalog, bound, fb };
    ctx.optimize_block(&bound.root, &BTreeSet::new())
}

/// A derived table's *output* row estimate: the inner block's join-root
/// estimate adjusted for what refinement stacks on top. A scalar aggregate
/// collapses to exactly one row, a grouped aggregate to the usual
/// one-in-ten group guess, and a LIMIT caps the output. Without this, a
/// derived table wrapping `SELECT COUNT(*) ...` carries its input's
/// cardinality and every join above it multiplies the error (the TPC-DS Q9
/// shape: fifteen stacked one-row derived tables estimated at ~70 rows
/// each compound to a 10^28 q-error). Shared with the bridge so the Orca
/// detour sees the same numbers.
///
/// Feedback overrides are consulted first: an observed grouped-aggregate
/// output over the block's member set replaces the one-in-ten group guess
/// — the guess that compounds into the worst q-errors when group counts
/// are data-dependent.
pub fn derived_output_rows_fb(
    block: &BoundQuery,
    join_rows: f64,
    fb: Option<&CardOverrides>,
) -> f64 {
    let mut rows = join_rows;
    if block.has_aggregation() {
        let qts: BTreeSet<usize> = block.member_qts().into_iter().collect();
        rows = match fb.and_then(|f| f.agg(&qts)) {
            Some(observed) => observed.max(1.0),
            None if block.group_by.is_empty() => 1.0,
            None => (rows * 0.1).max(1.0),
        };
    }
    if let Some(n) = block.limit {
        rows = rows.min(n as f64);
    }
    rows
}

/// Build the estimator for a statement: base tables get analyzed stats,
/// derived tables are opaque until their skeletons are known. Shared with
/// the bridge (Orca consumes the same statistics, §8).
pub fn statement_estimator(catalog: &Catalog, bound: &BoundStatement) -> Estimator {
    let rels = bound
        .tables
        .iter()
        .map(|meta| match &meta.source {
            TableSource::Base { id } => {
                let t = catalog.table(*id).ok()?;
                Some(match &t.stats {
                    Some(s) => RelView::from_stats(s),
                    None => RelView::opaque(t.num_rows() as f64, meta.width()),
                })
            }
            TableSource::Derived { .. } => None,
        })
        .collect();
    Estimator::new(rels)
}

struct PlanCtx<'a> {
    catalog: &'a Catalog,
    bound: &'a BoundStatement,
    /// Observed cardinalities from a prior execution of this statement
    /// (feedback-driven re-optimization); `None` for first compiles.
    fb: Option<&'a CardOverrides>,
}

/// Per-member planning info computed up front.
struct MemberInfo {
    /// Index into `block.members`.
    mi: usize,
    qt: usize,
    /// Conjuncts local to this table (given outer-bound tables).
    local_preds: Vec<Expr>,
    /// Rows after local predicates.
    filtered_rows: f64,
    /// Best independent access (scan or range), with its cost.
    access: AccessChoice,
    access_cost: f64,
    /// Skeleton for derived members.
    correlated: bool,
}

impl<'a> PlanCtx<'a> {
    fn optimize_block(&self, block: &BoundQuery, outer: &BTreeSet<usize>) -> Result<Skeleton> {
        if block.members.is_empty() {
            return Err(Error::semantic("SELECT without FROM is not supported"));
        }
        // Tables visible as parameters inside this block.
        let mut inner_outer: BTreeSet<usize> = outer.clone();
        inner_outer.extend(block.member_qts());

        let mut est = statement_estimator(self.catalog, self.bound);
        // Gather per-member info (recursively planning derived members).
        let mut infos: Vec<MemberInfo> = Vec::with_capacity(block.members.len());
        for (mi, m) in block.members.iter().enumerate() {
            let meta = self.bound.table(m.qt);
            // Local predicates: WHERE conjuncts + own-ON conjuncts that
            // touch only this table (plus outer parameters). WHERE
            // conjuncts on a left join's nullable side run above the join
            // (refine keeps them post-join), so only ON conjuncts count as
            // local there — the estimate must match the placement.
            let mut local: Vec<Expr> = Vec::new();
            let usable = |e: &Expr| {
                e.referenced_tables().iter().all(|t| *t == m.qt || outer.contains(t))
                    && e.referenced_tables().contains(&m.qt)
            };
            let wheres: &[Expr] = if m.entry.is_inner() { &block.predicates } else { &[] };
            for p in wheres.iter().chain(m.entry.on()) {
                if usable(p) {
                    local.push(p.clone());
                }
            }
            let (access, base_rows, access_cost, correlated) = match &meta.source {
                TableSource::Base { id } => {
                    let t = self.catalog.table(*id)?;
                    let n = t.num_rows() as f64;
                    let (access, cost) = self.choose_access(*id, m.qt, &local, n, &est);
                    (access, n, cost, false)
                }
                TableSource::Derived { query, correlated, .. } => {
                    let sk = self.optimize_block(query, &inner_outer)?;
                    // An observed cardinality for the derived table itself
                    // (its own qt) beats the derived-output estimate — it
                    // already includes the inner block's HAVING and LIMIT.
                    let rows = self
                        .fb
                        .and_then(|f| f.rel_singleton(m.qt))
                        .map(|r| r.max(1.0))
                        .unwrap_or_else(|| derived_output_rows_fb(query, sk.root.rows(), self.fb));
                    let cost = sk.root.cost();
                    (AccessChoice::Derived { skeleton: Box::new(sk) }, rows, cost, *correlated)
                }
            };
            let sel = est.conjunct_selectivity(&local, base_rows);
            // An observed post-filter cardinality beats any estimate.
            let filtered = match self.fb.and_then(|f| f.rel_singleton(m.qt)) {
                Some(observed) => observed.max(0.01),
                None => (base_rows * sel).max(0.01),
            };
            infos.push(MemberInfo {
                mi,
                qt: m.qt,
                local_preds: local,
                filtered_rows: filtered,
                access,
                access_cost,
                correlated,
            });
            // Register the derived table's row estimate for join math.
            if matches!(meta.source, TableSource::Derived { .. }) {
                est = self.with_derived_rows(&est, m.qt, base_rows, meta.width());
            }
        }

        self.greedy_join_order(block, outer, &est, infos)
    }

    /// Patch an estimator with a derived table's row estimate.
    fn with_derived_rows(&self, est: &Estimator, qt: usize, rows: f64, width: usize) -> Estimator {
        // Estimator is cheap to rebuild: clone views.
        let mut rels: Vec<Option<RelView>> = (0..self.bound.num_tables())
            .map(|t| {
                if t == qt {
                    Some(RelView::opaque(rows, width))
                } else {
                    // Re-derive from the current estimator.
                    Some(RelView::opaque(est.rows(t), self.bound.table(t).width()))
                }
            })
            .collect();
        // Base tables keep their full views (histograms) — rebuild those.
        for (t, meta) in self.bound.tables.iter().enumerate() {
            if t == qt {
                continue;
            }
            if let TableSource::Base { id } = &meta.source {
                if let Ok(tab) = self.catalog.table(*id) {
                    if let Some(s) = &tab.stats {
                        rels[t] = Some(RelView::from_stats(s));
                    }
                }
            }
        }
        Estimator::new(rels)
    }

    /// Pick the cheapest independent access path for a base table: full
    /// scan, or an index range over a constant-bounded leading column.
    fn choose_access(
        &self,
        id: taurus_common::TableId,
        qt: usize,
        local: &[Expr],
        n: f64,
        est: &Estimator,
    ) -> (AccessChoice, f64) {
        let mut best = (AccessChoice::TableScan, n * cost::SCAN_PER_ROW);
        let table = match self.catalog.table(id) {
            Ok(t) => t,
            Err(_) => return best,
        };
        for (ix_pos, ix) in table.indexes.iter().enumerate() {
            let lead = match ix.def().columns.first() {
                Some(c) => *c,
                None => continue,
            };
            // Find constant bounds on the leading column.
            let mut lo: Option<(Expr, bool)> = None;
            let mut hi: Option<(Expr, bool)> = None;
            let mut consumed: Vec<Expr> = Vec::new();
            for p in local {
                if let Some((op, konst)) = p.column_vs_const(qt, lead) {
                    match op {
                        BinOp::Eq => {
                            lo = Some((konst.clone(), true));
                            hi = Some((konst, true));
                            consumed.push(p.clone());
                        }
                        BinOp::Gt => {
                            lo = Some((konst, false));
                            consumed.push(p.clone());
                        }
                        BinOp::Ge => {
                            lo = Some((konst, true));
                            consumed.push(p.clone());
                        }
                        BinOp::Lt => {
                            hi = Some((konst, false));
                            consumed.push(p.clone());
                        }
                        BinOp::Le => {
                            hi = Some((konst, true));
                            consumed.push(p.clone());
                        }
                        _ => {}
                    }
                } else if let Expr::Between { expr, low, high, negated: false } = p {
                    if matches!(expr.as_ref(), Expr::Column(c) if c.table == qt && c.col == lead)
                        && low.is_non_null_const()
                        && high.is_non_null_const()
                    {
                        lo = Some((low.as_ref().clone(), true));
                        hi = Some((high.as_ref().clone(), true));
                        consumed.push(p.clone());
                    }
                }
            }
            if lo.is_none() && hi.is_none() {
                continue;
            }
            // Selectivity of the consumed range.
            let sel = est.conjunct_selectivity(&consumed, n);
            let cost = (n * sel).max(1.0) * cost::RANGE_PER_ROW;
            if cost < best.1 {
                best = (
                    AccessChoice::IndexRange {
                        index: ix_pos,
                        lo: lo.clone(),
                        hi: hi.clone(),
                        consumed,
                    },
                    cost,
                );
            }
        }
        best
    }

    /// The greedy, left-deep join-order search.
    fn greedy_join_order(
        &self,
        block: &BoundQuery,
        outer: &BTreeSet<usize>,
        est: &Estimator,
        infos: Vec<MemberInfo>,
    ) -> Result<Skeleton> {
        let mut placed: BTreeSet<usize> = BTreeSet::new();
        let mut remaining: Vec<usize> = (0..infos.len()).collect(); // indexes into infos

        // Driving table: the inner member with the fewest filtered rows.
        let first = remaining
            .iter()
            .copied()
            .filter(|&i| {
                let m = &block.members[infos[i].mi];
                m.entry.is_inner() && m.deps.iter().all(|d| outer.contains(d))
            })
            .min_by(|&a, &b| {
                infos[a]
                    .filtered_rows
                    .partial_cmp(&infos[b].filtered_rows)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .ok_or_else(|| Error::semantic("no placeable driving table (join graph cycle?)"))?;
        placed.insert(infos[first].qt);
        let mut prefix_rows = infos[first].filtered_rows;
        let mut total_cost = infos[first].access_cost;
        let mut tree = Some(SkelNode::Leaf(SkelLeaf {
            qt: infos[first].qt,
            access: infos[first].access.clone(),
            rows: infos[first].filtered_rows,
            cost: infos[first].access_cost,
        }));
        remaining.retain(|&i| i != first);

        while !remaining.is_empty() {
            // Candidates whose dependencies are satisfied.
            let mut best: Option<(usize, JoinCand)> = None;
            for &i in &remaining {
                let info = &infos[i];
                let m = &block.members[info.mi];
                if !m.deps.iter().all(|d| placed.contains(d) || outer.contains(d)) {
                    continue;
                }
                let cand =
                    self.evaluate_candidate(block, outer, est, info, &placed, prefix_rows)?;
                let better = match &best {
                    None => true,
                    Some((_, b)) => cand.delta_cost < b.delta_cost,
                };
                if better {
                    best = Some((i, cand));
                }
            }
            let (i, cand) = best.ok_or_else(|| {
                Error::semantic("unsatisfiable join dependencies (correlation cycle?)")
            })?;
            let info = &infos[i];
            placed.insert(info.qt);
            remaining.retain(|&r| r != i);
            total_cost += cand.delta_cost;
            prefix_rows = cand.new_rows;
            let leaf = SkelNode::Leaf(SkelLeaf {
                qt: info.qt,
                access: cand.access,
                rows: cand.leaf_rows,
                cost: cand.leaf_cost,
            });
            tree = Some(SkelNode::Join {
                method: cand.method,
                left: Box::new(tree.take().expect("seeded with driving table")),
                right: Box::new(leaf),
                rows: prefix_rows,
                cost: total_cost,
            });
        }

        Ok(Skeleton {
            root: tree.expect("at least one member"),
            orca_assisted: false,
            orca_fallback: None,
            dop: None,
            search: None,
            reopt: None,
        })
    }

    /// Cost one candidate table as the next left-deep join.
    fn evaluate_candidate(
        &self,
        block: &BoundQuery,
        outer: &BTreeSet<usize>,
        est: &Estimator,
        info: &MemberInfo,
        placed: &BTreeSet<usize>,
        prefix_rows: f64,
    ) -> Result<JoinCand> {
        let m = &block.members[info.mi];
        let qt = info.qt;
        // Conditions connecting this table to the placed prefix.
        let mut available: BTreeSet<usize> = placed.clone();
        available.extend(outer.iter().copied());
        let cross_conds: Vec<&Expr> = block
            .predicates
            .iter()
            .chain(m.entry.on())
            .filter(|p| {
                let refs = p.referenced_tables();
                refs.contains(&qt)
                    && refs.iter().any(|t| placed.contains(t))
                    && refs.iter().all(|t| *t == qt || available.contains(t))
            })
            .collect();
        // Floor the stacked cross-condition product at one surviving row of
        // the joint (prefix × inner) space.
        let cross_vec: Vec<Expr> = cross_conds.iter().map(|p| (*p).clone()).collect();
        let cross_sel = est.conjunct_selectivity(&cross_vec, prefix_rows * info.filtered_rows);

        // (1) Index lookup on an equi-condition (MySQL's favourite).
        // NULL-aware anti joins (NOT IN) cannot use plain ref access: a NULL
        // probe key must make membership UNKNOWN, which a lookup that simply
        // finds no rows cannot express. MySQL materializes those too.
        let lookup = if matches!(m.entry, JoinEntry::Anti { null_aware: true, .. }) {
            None
        } else {
            self.find_lookup(qt, &available, &cross_conds, &info.local_preds, est)?
        };
        // (2) Equi-join available at all (for the hash-join rule)?
        let has_equi = cross_conds.iter().any(|p| equi_pair(p, qt, &available).is_some());

        let inner_rows = info.filtered_rows;
        let mut joined: BTreeSet<usize> = placed.clone();
        joined.insert(qt);
        // An observed cardinality for exactly this join prefix replaces the
        // derivation below (feedback-driven re-optimization).
        let observed = self.fb.and_then(|f| f.rel(&joined));
        let new_rows = match observed {
            Some(rows) => rows.max(0.01),
            None => match &m.entry {
                JoinEntry::Inner => (prefix_rows * inner_rows * cross_sel).max(0.01),
                JoinEntry::LeftOuter { .. } => {
                    (prefix_rows * inner_rows * cross_sel).max(prefix_rows)
                }
                JoinEntry::Semi { .. } => {
                    // Match probability, not expected match count: inner rows
                    // sharing an equality key value contribute at most one
                    // match per distinct key combination, so the inner row
                    // count caps at the key columns' NDV product. Without the
                    // cap a large inner side saturates the clamp at 1.0 and
                    // the semi join "filters" nothing (the TPC-H q18 shape).
                    let cap = eq_ndv_cap(&cross_conds, qt, est);
                    let frac = (inner_rows.min(cap) * cross_sel).min(1.0);
                    (prefix_rows * frac).max(0.01)
                }
                JoinEntry::Anti { .. } => {
                    let frac = (inner_rows * cross_sel).min(0.95);
                    (prefix_rows * (1.0 - frac)).max(0.01)
                }
            },
        };

        // Correlated derived tables force nested-loop re-materialization.
        if info.correlated {
            let delta = prefix_rows * (info.access_cost + inner_rows * cost::OUTPUT_PER_ROW);
            return Ok(JoinCand {
                method: JoinMethod::NestedLoop,
                access: info.access.clone(),
                leaf_rows: inner_rows,
                leaf_cost: info.access_cost,
                delta_cost: delta,
                new_rows,
            });
        }

        if let Some((index, keys, consumed, rows_per_probe)) = lookup {
            // Nested loop with index lookup.
            let per_probe = cost::LOOKUP_BASE + rows_per_probe * cost::LOOKUP_PER_ROW;
            let delta = prefix_rows * per_probe;
            return Ok(JoinCand {
                method: JoinMethod::NestedLoop,
                access: AccessChoice::IndexLookup { index, keys, consumed },
                leaf_rows: rows_per_probe.max(0.01),
                leaf_cost: per_probe,
                delta_cost: delta,
                new_rows,
            });
        }
        if has_equi {
            // Hash join: build the inner side once, probe with the prefix.
            let delta = info.access_cost
                + inner_rows * cost::HASH_BUILD_PER_ROW
                + prefix_rows * cost::HASH_PROBE_PER_ROW
                + new_rows * cost::OUTPUT_PER_ROW;
            return Ok(JoinCand {
                method: JoinMethod::Hash,
                access: info.access.clone(),
                leaf_rows: inner_rows,
                leaf_cost: info.access_cost,
                delta_cost: delta,
                new_rows,
            });
        }
        // Materialized nested-loop scan (no index, no equi-join): every
        // prefix×inner pair is evaluated.
        let delta = info.access_cost + prefix_rows * inner_rows * cost::NL_PAIR + prefix_rows;
        Ok(JoinCand {
            method: JoinMethod::NestedLoop,
            access: info.access.clone(),
            leaf_rows: inner_rows,
            leaf_cost: info.access_cost,
            delta_cost: delta,
            new_rows,
        })
    }

    /// Find the best index-lookup access: the index with the longest
    /// prefix of leading columns covered by available equi-conditions.
    /// Returns `(index position, key exprs, consumed conjuncts, rows/probe)`.
    #[allow(clippy::type_complexity)]
    fn find_lookup(
        &self,
        qt: usize,
        available: &BTreeSet<usize>,
        cross_conds: &[&Expr],
        local_preds: &[Expr],
        est: &Estimator,
    ) -> Result<Option<(usize, Vec<Expr>, Vec<Expr>, f64)>> {
        let meta = self.bound.table(qt);
        let id = match &meta.source {
            TableSource::Base { id } => *id,
            TableSource::Derived { .. } => return Ok(None),
        };
        let table = self.catalog.table(id)?;
        let n = table.num_rows() as f64;
        let mut best: Option<(usize, Vec<Expr>, Vec<Expr>, f64)> = None;
        // Equality sources: cross conjuncts `this.col = outer-expr` and
        // local `this.col = const`.
        for (ix_pos, ix) in table.indexes.iter().enumerate() {
            let mut keys: Vec<Expr> = Vec::new();
            let mut consumed: Vec<Expr> = Vec::new();
            let mut sel = 1.0f64;
            for &col in &ix.def().columns {
                let mut hit = false;
                for p in cross_conds.iter().copied().chain(local_preds.iter()) {
                    if let Some((key_expr, key_sel)) = lookup_key(p, qt, col, available, est) {
                        keys.push(key_expr);
                        consumed.push(p.clone());
                        sel *= key_sel;
                        hit = true;
                        break;
                    }
                }
                if !hit {
                    break;
                }
            }
            if keys.is_empty() {
                continue;
            }
            // Cross-conds must participate — pure-local lookups are ranges,
            // already handled in choose_access.
            if !consumed.iter().any(|c| c.referenced_tables().iter().any(|t| *t != qt)) {
                continue;
            }
            let rows_per_probe = (n * sel).max(if ix.def().unique { 0.0 } else { 0.01 }).min(n);
            let better = match &best {
                None => true,
                Some((_, _, _, prev)) => rows_per_probe < *prev,
            };
            if better {
                best = Some((ix_pos, keys, consumed, rows_per_probe.max(1.0).min(n.max(1.0))));
            }
        }
        Ok(best)
    }
}

struct JoinCand {
    method: JoinMethod,
    access: AccessChoice,
    leaf_rows: f64,
    leaf_cost: f64,
    delta_cost: f64,
    new_rows: f64,
}

/// Match an equi-condition `col(qt, col) = expr(available)`; return the key
/// expression and its selectivity contribution.
fn lookup_key(
    p: &Expr,
    qt: usize,
    col: usize,
    available: &BTreeSet<usize>,
    est: &Estimator,
) -> Option<(Expr, f64)> {
    let (this, other) = match p {
        Expr::Binary { op: BinOp::Eq, left, right } => match (left.as_ref(), right.as_ref()) {
            (Expr::Column(c), o) if c.table == qt && c.col == col => (c, o),
            (o, Expr::Column(c)) if c.table == qt && c.col == col => (c, o),
            _ => return None,
        },
        _ => return None,
    };
    // The other side must not reference this table.
    let refs = other.referenced_tables();
    if refs.contains(&qt) || !refs.iter().all(|t| available.contains(t)) {
        return None;
    }
    let sel = 1.0 / est.ndv(taurus_common::ColRef { table: this.table, col: this.col });
    Some((other.clone(), sel))
}

/// Distinct-combination cap for `qt`'s side of the equality join keys in
/// `conds`: the product of its bare-column key NDVs, or ∞ when no bare-
/// column equality exists.
fn eq_ndv_cap(conds: &[&Expr], qt: usize, est: &Estimator) -> f64 {
    let mut cap = f64::INFINITY;
    for p in conds {
        if let Expr::Binary { op: BinOp::Eq, left, right } = p {
            for (a, b) in [(left, right), (right, left)] {
                if let Expr::Column(c) = a.as_ref() {
                    if c.table == qt && !b.referenced_tables().contains(&qt) {
                        let n = est.ndv(*c).max(1.0);
                        cap = if cap.is_finite() { cap * n } else { n };
                        break;
                    }
                }
            }
        }
    }
    cap
}

/// Is `p` an equality connecting `qt` to placed tables?
fn equi_pair(p: &Expr, qt: usize, available: &BTreeSet<usize>) -> Option<(Expr, Expr)> {
    if let Expr::Binary { op: BinOp::Eq, left, right } = p {
        let lr = left.referenced_tables();
        let rr = right.referenced_tables();
        let l_this = lr.contains(&qt) && lr.iter().all(|t| *t == qt);
        let r_other =
            !rr.contains(&qt) && !rr.is_empty() && rr.iter().all(|t| available.contains(t));
        if l_this && r_other {
            return Some((left.as_ref().clone(), right.as_ref().clone()));
        }
        let r_this = rr.contains(&qt) && rr.iter().all(|t| *t == qt);
        let l_other =
            !lr.contains(&qt) && !lr.is_empty() && lr.iter().all(|t| available.contains(t));
        if r_this && l_other {
            return Some((right.as_ref().clone(), left.as_ref().clone()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::resolve_statement;
    use taurus_catalog::stats::AnalyzeOptions;
    use taurus_common::{Column, DataType, Schema, Value};
    use taurus_sql::parser::parse_select;

    /// fact(fk, v) 1000 rows; dim(pk, name) 50 rows with unique index;
    /// other(x) 100 rows, no index.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let fact = cat
            .create_table(
                "fact",
                Schema::new(vec![
                    Column::new("fk", DataType::Int),
                    Column::new("v", DataType::Int),
                ]),
            )
            .unwrap();
        cat.insert(fact, (0..1000).map(|i| vec![Value::Int(i % 50), Value::Int(i)])).unwrap();
        cat.create_index(fact, "fact_fk", vec![0], false).unwrap();
        let dim = cat
            .create_table(
                "dim",
                Schema::new(vec![
                    Column::new("pk", DataType::Int),
                    Column::new("name", DataType::Str),
                ]),
            )
            .unwrap();
        cat.insert(dim, (0..50).map(|i| vec![Value::Int(i), Value::str(format!("d{i}"))])).unwrap();
        cat.create_index(dim, "dim_pk", vec![0], true).unwrap();
        let other =
            cat.create_table("other", Schema::new(vec![Column::new("x", DataType::Int)])).unwrap();
        cat.insert(other, (0..100).map(|i| vec![Value::Int(i)])).unwrap();
        cat.analyze_all(&AnalyzeOptions::default());
        cat
    }

    fn skeleton(cat: &Catalog, sql: &str) -> (BoundStatement, Skeleton) {
        let bound = resolve_statement(cat, &parse_select(sql).unwrap()).unwrap();
        let sk = optimize_statement(cat, &bound).unwrap();
        (bound, sk)
    }

    #[test]
    fn single_table_scan() {
        let cat = catalog();
        let (_, sk) = skeleton(&cat, "SELECT v FROM fact WHERE v > 500");
        match &sk.root {
            SkelNode::Leaf(l) => {
                assert!(matches!(l.access, AccessChoice::TableScan));
                assert!((l.rows - 500.0).abs() < 50.0, "rows={}", l.rows);
            }
            other => panic!("{other:?}"),
        }
        assert!(!sk.orca_assisted);
    }

    #[test]
    fn index_range_chosen_for_selective_constant() {
        let cat = catalog();
        let (_, sk) = skeleton(&cat, "SELECT name FROM dim WHERE pk = 7");
        match &sk.root {
            SkelNode::Leaf(l) => {
                assert!(matches!(l.access, AccessChoice::IndexRange { .. }), "{:?}", l.access);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_uses_index_lookup_and_left_deep() {
        let cat = catalog();
        let (_, sk) = skeleton(&cat, "SELECT v, name FROM fact, dim WHERE fk = pk AND v < 100");
        assert!(sk.root.is_left_deep());
        let positions = sk.root.best_positions();
        assert_eq!(positions.len(), 2);
        // MySQL drives from the filtered fact side and looks dim up by pk.
        match &sk.root {
            SkelNode::Join { method: JoinMethod::NestedLoop, right, .. } => match right.as_ref() {
                SkelNode::Leaf(l) => {
                    assert!(matches!(l.access, AccessChoice::IndexLookup { .. }), "{:?}", l.access)
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hash_join_only_without_index() {
        let cat = catalog();
        // other has no index: equi-join must go hash.
        let (_, sk) = skeleton(&cat, "SELECT v FROM fact, other WHERE v = x");
        match &sk.root {
            SkelNode::Join { method, .. } => assert_eq!(*method, JoinMethod::Hash),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cartesian_falls_back_to_nested_loop() {
        let cat = catalog();
        let (_, sk) = skeleton(&cat, "SELECT name FROM dim, other");
        match &sk.root {
            SkelNode::Join { method, .. } => assert_eq!(*method, JoinMethod::NestedLoop),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn greedy_is_always_left_deep_even_for_many_tables() {
        let cat = catalog();
        let (_, sk) = skeleton(
            &cat,
            "SELECT f1.v FROM fact f1, fact f2, dim d1, dim d2, other \
             WHERE f1.fk = d1.pk AND f2.fk = d2.pk AND f1.v = f2.v AND f1.v = x",
        );
        assert!(sk.root.is_left_deep(), "MySQL never produces bushy plans (§1)");
        assert_eq!(sk.root.best_positions().len(), 5);
    }

    #[test]
    fn left_join_placed_after_dependencies() {
        let cat = catalog();
        let (bound, sk) =
            skeleton(&cat, "SELECT v FROM fact LEFT JOIN dim ON fk = pk WHERE v < 10");
        let qts = sk.root.qts();
        // dim's member has deps on fact's qt.
        let dim_qt = bound.root.members[1].qt;
        assert_eq!(qts.last().copied(), Some(dim_qt));
    }

    #[test]
    fn semi_join_cannot_drive() {
        let cat = catalog();
        let (bound, sk) =
            skeleton(&cat, "SELECT name FROM dim WHERE EXISTS (SELECT * FROM fact WHERE fk = pk)");
        let semi_qt = bound.root.members[1].qt;
        let qts = sk.root.qts();
        assert_eq!(qts[0], bound.root.members[0].qt);
        assert_eq!(qts[1], semi_qt);
    }

    #[test]
    fn correlated_derived_forces_nested_loop() {
        let cat = catalog();
        let (bound, sk) = skeleton(
            &cat,
            "SELECT v FROM fact, dim WHERE fk = pk AND \
             v < (SELECT AVG(v) FROM fact f2 WHERE f2.fk = dim.pk)",
        );
        let derived_qt = bound
            .root
            .members
            .iter()
            .find(|m| bound.tables[m.qt].is_correlated_derived())
            .unwrap()
            .qt;
        // Find the join whose right leaf is the derived table; method must
        // be nested loop (re-materialized per outer row).
        fn find_method(n: &SkelNode, qt: usize) -> Option<JoinMethod> {
            match n {
                SkelNode::Leaf(_) => None,
                SkelNode::Join { method, left, right, .. } => {
                    if let SkelNode::Leaf(l) = right.as_ref() {
                        if l.qt == qt {
                            return Some(*method);
                        }
                    }
                    find_method(left, qt).or_else(|| find_method(right, qt))
                }
                SkelNode::Sort { input, .. } => find_method(input, qt),
            }
        }
        assert_eq!(find_method(&sk.root, derived_qt), Some(JoinMethod::NestedLoop));
    }

    #[test]
    fn estimates_populate_leaves() {
        let cat = catalog();
        let (_, sk) = skeleton(&cat, "SELECT v, name FROM fact, dim WHERE fk = pk");
        for leaf in sk.root.best_positions() {
            assert!(leaf.rows > 0.0);
            assert!(leaf.cost > 0.0);
        }
        assert!(sk.root.cost() >= sk.root.best_positions()[0].cost);
    }
}
