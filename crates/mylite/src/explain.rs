//! MySQL-flavoured `EXPLAIN` tree rendering (paper Listing 7).
//!
//! The first line indicates whether the plan was Orca-assisted; estimated
//! costs and cardinalities on each node come from whichever optimizer chose
//! the plan (for the Orca path they were copied into the skeleton, §4.2.2).
//! When the skeleton carries a [`SearchTrace`], it renders as its own line
//! directly after the banner, and `EXPLAIN ANALYZE` appends per-operator
//! actual rows, loop counts, and q-errors from an observed execution.

use crate::bound::BoundStatement;
use crate::skeleton::Skeleton;
use std::fmt::Write;
use taurus_catalog::Catalog;
use taurus_common::{ColRef, Expr};
use taurus_executor::{
    q_error, AccessPath, AggStrategy, JoinKind, NodeObservation, ObserverIndex, Plan,
};

/// Render an executable plan as an EXPLAIN tree — or, with `ann` (from
/// [`annotate`] over the same plan shape), an EXPLAIN ANALYZE tree: the same
/// shape with each operator line annotated with its observed actuals. The
/// skeleton supplies the provenance banner (Orca-assisted, plain MySQL, or
/// fallback + reason).
pub fn explain_with(
    plan: &Plan,
    bound: &BoundStatement,
    catalog: &Catalog,
    skeleton: &Skeleton,
    ann: Option<&[NodeAnnotation]>,
) -> String {
    let namer = |c: ColRef| -> String {
        let meta = &bound.tables[c.table];
        let col = meta.columns.get(c.col).cloned().unwrap_or_else(|| format!("c{}", c.col));
        format!("{}.{}", meta.display_name, col)
    };
    let mut out = String::new();
    let banner = skeleton.explain_banner();
    if ann.is_some() {
        out.push_str(&banner.replacen("EXPLAIN", "EXPLAIN ANALYZE", 1));
    } else {
        out.push_str(&banner);
    }
    out.push('\n');
    if let Some(t) = &skeleton.search {
        out.push_str(&t.display());
        out.push('\n');
    }
    if let Some(r) = &skeleton.reopt {
        out.push_str(&format!("[reopt: {r}]\n"));
    }
    let consts = crate::orders::constant_exprs(&bound.root.predicates);
    let mut r = Render { bound, catalog, namer: &namer, ann, consts, next: 0 };
    r.node(plan, 0, &mut out);
    out
}

/// Estimated vs observed cardinality for one operator of an analyzed run,
/// in the renderer's pre-order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeAnnotation {
    /// The optimizer's row estimate for this operator. For index lookups on
    /// the inner side of a nested-loop join this is rows *per probe*.
    pub est_rows: f64,
    /// Total rows the operator produced, over all loops and workers.
    pub actual_rows: u64,
    /// Times the operator ran (0 = never executed).
    pub loops: u64,
    /// q-error between the estimate and the (loop-normalized, see
    /// [`annotate`]) actual; `None` when the operator never executed.
    pub q_error: Option<f64>,
}

/// Join a plan's estimates with an execution's per-node observations.
///
/// Ids follow the same pre-order walk as [`ObserverIndex`] and the EXPLAIN
/// renderer, so `annotate(...)[i]` belongs to the i-th rendered operator.
///
/// Estimates on the inner (right) side of a nested-loop join are per-probe
/// — an index lookup estimating 3 rows means 3 rows *per outer row* — so
/// within those subtrees the observed total is divided by the loop count
/// before the q-error comparison. Everywhere else totals compare directly.
/// This normalization makes the q-error invariant to dop and morsel size:
/// parallel morsels multiply loop counts but estimates and totals are
/// whole-operator figures either way.
pub fn annotate(
    plan: &Plan,
    index: &ObserverIndex,
    nodes: &[NodeObservation],
) -> Vec<NodeAnnotation> {
    fn walk(
        p: &Plan,
        index: &ObserverIndex,
        nodes: &[NodeObservation],
        per_loop: bool,
        out: &mut Vec<NodeAnnotation>,
    ) {
        let obs = index.id_of(p).and_then(|id| nodes.get(id).copied()).unwrap_or_default();
        let est_rows = p.est().rows;
        let q = if obs.loops == 0 {
            None
        } else {
            let actual =
                if per_loop { obs.rows as f64 / obs.loops as f64 } else { obs.rows as f64 };
            Some(q_error(est_rows, actual))
        };
        out.push(NodeAnnotation { est_rows, actual_rows: obs.rows, loops: obs.loops, q_error: q });
        if let Plan::NestedLoop { left, right, .. } = p {
            walk(left, index, nodes, per_loop, out);
            walk(right, index, nodes, true, out);
        } else {
            for c in p.children() {
                walk(c, index, nodes, per_loop, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(plan, index, nodes, false, &mut out);
    out
}

fn ann_suffix(a: &NodeAnnotation) -> String {
    if a.loops == 0 {
        return " (never executed)".to_string();
    }
    match a.q_error {
        Some(q) => {
            format!(" (actual rows={} loops={} q-error={:.2})", a.actual_rows, a.loops, q)
        }
        None => format!(" (actual rows={} loops={})", a.actual_rows, a.loops),
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
    out.push_str("-> ");
}

fn est_suffix(plan: &Plan) -> String {
    let e = plan.est();
    // Fixed precision keeps golden EXPLAIN outputs stable; the dop column
    // only appears for parallel operators so serial plans are unchanged.
    if e.dop > 1 {
        format!(" (cost={:.2} rows={:.0} dop={})", e.cost, e.rows.max(0.0), e.dop)
    } else {
        format!(" (cost={:.2} rows={:.0})", e.cost, e.rows.max(0.0))
    }
}

fn exprs_text(exprs: &[Expr], namer: &dyn Fn(ColRef) -> String) -> String {
    exprs.iter().map(|e| e.display_with(namer)).collect::<Vec<_>>().join(" and ")
}

fn join_name(kind: JoinKind, hash: bool) -> String {
    let method = if hash { "Hash" } else { "Nested loop" };
    format!("{method} {}", kind.name())
}

/// Tree renderer state: the naming context plus the annotation cursor
/// (`next` counts nodes in pre-order so annotations line up with ids).
struct Render<'a> {
    bound: &'a BoundStatement,
    catalog: &'a Catalog,
    namer: &'a dyn Fn(ColRef) -> String,
    ann: Option<&'a [NodeAnnotation]>,
    /// Root block's proven-constant expressions, for order annotations.
    consts: Vec<Expr>,
    next: usize,
}

impl Render<'_> {
    fn table_name(&self, qt: usize) -> String {
        self.bound.tables[qt].display_name.clone()
    }

    fn index_name(&self, qt: usize, pos: usize) -> String {
        if let crate::bound::TableSource::Base { id } = &self.bound.tables[qt].source {
            if let Ok(t) = self.catalog.table(*id) {
                if let Some(ix) = t.indexes.get(pos) {
                    return ix.def().name.clone();
                }
            }
        }
        format!("index_{pos}")
    }

    /// A non-empty leaf filter renders as a Filter parent node, like MySQL.
    /// It is the same plan node as the leaf (the filter is fused into the
    /// scan), so it shares the leaf's annotation suffix.
    fn leaf_filter(
        &self,
        plan: &Plan,
        filter: &[Expr],
        asuf: &str,
        out: &mut String,
        depth: usize,
    ) -> usize {
        if filter.is_empty() {
            depth
        } else {
            indent(out, depth);
            let _ = writeln!(
                out,
                "Filter: {}{}{asuf}",
                exprs_text(filter, self.namer),
                est_suffix(plan)
            );
            depth + 1
        }
    }

    /// The order annotation for one line: `Sort` nodes show the order they
    /// require (enforce); any other node that provably delivers an order
    /// shows it. Nodes with no proven order get no annotation, keeping
    /// unordered plans' output unchanged.
    fn order_suffix(&self, plan: &Plan) -> String {
        let keys_text = |keys: &[taurus_executor::SortKey]| {
            keys.iter()
                .map(|k| {
                    format!(
                        "{}{}",
                        k.expr.display_with(self.namer),
                        if k.desc { " DESC (nulls last)" } else { "" }
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        match plan {
            Plan::Sort { keys, .. } => format!(" [order: required {}]", keys_text(keys)),
            _ => {
                let delivered = crate::orders::delivered_order(plan, self.catalog, &self.consts);
                if delivered.is_empty() {
                    String::new()
                } else {
                    format!(" [order: delivered {}]", keys_text(&delivered))
                }
            }
        }
    }

    fn node(&mut self, plan: &Plan, depth: usize, out: &mut String) {
        let id = self.next;
        self.next += 1;
        let asuf = match self.ann {
            Some(a) => a.get(id).map(ann_suffix).unwrap_or_default(),
            None => String::new(),
        };
        let asuf = format!("{}{asuf}", self.order_suffix(plan));
        let namer = self.namer;
        match plan {
            Plan::Scan { read, path, .. } => {
                let d = self.leaf_filter(plan, &read.filter, &asuf, out, depth);
                indent(out, d);
                let table = self.table_name(read.qt);
                let using = |index: &usize| self.index_name(read.qt, *index);
                let access = match path {
                    AccessPath::Heap => format!("Table scan on {table}"),
                    AccessPath::Index { index } => {
                        format!("Index scan on {table} using {}", using(index))
                    }
                    AccessPath::Range { index, .. } => {
                        format!("Index range scan on {table} using {}", using(index))
                    }
                    AccessPath::Lookup { index, keys } => {
                        let keys = keys.iter().map(|k| k.display_with(namer)).collect::<Vec<_>>();
                        format!(
                            "Index lookup on {table} using {} ({})",
                            using(index),
                            keys.join(", ")
                        )
                    }
                };
                let _ = writeln!(out, "{access}{}{asuf}", est_suffix(plan));
            }
            Plan::NestedLoop { kind, left, right, on, .. } => {
                indent(out, depth);
                let cond = if on.is_empty() {
                    String::new()
                } else {
                    format!(" on {}", exprs_text(on, namer))
                };
                let _ =
                    writeln!(out, "{}{}{}{asuf}", join_name(*kind, false), cond, est_suffix(plan));
                self.node(left, depth + 1, out);
                self.node(right, depth + 1, out);
            }
            Plan::HashJoin { kind, left, right, keys, residual, build_left, .. } => {
                indent(out, depth);
                let mut cond: Vec<String> = keys
                    .iter()
                    .map(|(l, r)| format!("{} = {}", l.display_with(namer), r.display_with(namer)))
                    .collect();
                if !residual.is_empty() {
                    cond.push(exprs_text(residual, namer));
                }
                let build = if *build_left { " (build: left)" } else { "" };
                let _ = writeln!(
                    out,
                    "{} ({}){}{}{asuf}",
                    join_name(*kind, true),
                    cond.join(" and "),
                    build,
                    est_suffix(plan)
                );
                self.node(left, depth + 1, out);
                self.node(right, depth + 1, out);
            }
            Plan::Filter { input, predicate, .. } => {
                indent(out, depth);
                let _ = writeln!(
                    out,
                    "Filter: {}{}{asuf}",
                    exprs_text(predicate, namer),
                    est_suffix(plan)
                );
                self.node(input, depth + 1, out);
            }
            Plan::Derived { input, name, .. } => {
                indent(out, depth);
                let _ = writeln!(out, "Table scan on {name}{}{asuf}", est_suffix(plan));
                self.node(input, depth + 1, out);
            }
            Plan::Materialize { input, rebind, .. } => {
                indent(out, depth);
                if *rebind {
                    // Listing 7's red annotation.
                    let _ = writeln!(
                        out,
                        "Materialize (invalidate on outer row){}{asuf}",
                        est_suffix(plan)
                    );
                } else {
                    let _ = writeln!(out, "Materialize{}{asuf}", est_suffix(plan));
                }
                self.node(input, depth + 1, out);
            }
            Plan::Project { input, exprs, .. } => {
                indent(out, depth);
                let text =
                    exprs.iter().map(|e| e.display_with(namer)).collect::<Vec<_>>().join(", ");
                let _ = writeln!(out, "Output: {text}{asuf}");
                self.node(input, depth + 1, out);
            }
            Plan::Aggregate { input, group_by, aggs, strategy, .. } => {
                indent(out, depth);
                let mode = match strategy {
                    AggStrategy::Stream => "Group aggregate",
                    AggStrategy::Hash => "Aggregate",
                };
                let agg_text = aggs
                    .iter()
                    .map(|a| {
                        let e = Expr::Agg {
                            func: a.func,
                            arg: a.arg.clone().map(Box::new),
                            distinct: a.distinct,
                        };
                        e.display_with(namer)
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                if group_by.is_empty() {
                    let _ = writeln!(out, "{mode}: {agg_text}{}{asuf}", est_suffix(plan));
                } else {
                    let _ = writeln!(
                        out,
                        "{mode}: {agg_text} group by {}{}{asuf}",
                        exprs_text(group_by, namer).replace(" and ", ", "),
                        est_suffix(plan)
                    );
                }
                self.node(input, depth + 1, out);
            }
            Plan::Sort { input, keys, .. } => {
                indent(out, depth);
                let keys_text = keys
                    .iter()
                    .map(|k| {
                        format!(
                            "{}{}",
                            k.expr.display_with(namer),
                            if k.desc { " DESC" } else { "" }
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(out, "Sort: {keys_text}{}{asuf}", est_suffix(plan));
                self.node(input, depth + 1, out);
            }
            Plan::Limit { input, n, .. } => {
                indent(out, depth);
                let _ = writeln!(out, "Limit: {n} row(s){asuf}");
                self.node(input, depth + 1, out);
            }
            Plan::Exchange { kind, input, dop, .. } => {
                indent(out, depth);
                let _ = writeln!(
                    out,
                    "Exchange ({}, dop={dop}){}{asuf}",
                    kind.name(),
                    est_suffix(plan)
                );
                self.node(input, depth + 1, out);
            }
            Plan::Union { inputs, distinct, .. } => {
                indent(out, depth);
                let _ = writeln!(
                    out,
                    "Union {}{}{asuf}",
                    if *distinct { "distinct" } else { "all" },
                    est_suffix(plan)
                );
                for i in inputs {
                    self.node(i, depth + 1, out);
                }
            }
        }
    }
}
