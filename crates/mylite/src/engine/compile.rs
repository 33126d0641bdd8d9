//! Compile: a parsed SELECT to a [`PlannedQuery`] — rewrite set operations,
//! resolve, then per union branch optimize (the pluggable backend) and
//! refine — plus the in-place parameter rebind a cached plan is re-served
//! with.

use super::{CostBasedOptimizer, PlannedBranch, PlannedQuery};
use crate::knobs::Knobs;
use crate::refine::refine_statement_orders;
use crate::resolve::resolve_union_branches;
use taurus_catalog::feedback::CardOverrides;
use taurus_catalog::Catalog;
use taurus_common::error::{Error, Result};
use taurus_common::Value;
use taurus_executor::ParallelOpts;
use taurus_sql::rewrite::rewrite_set_ops;
use taurus_sql::{parse, SelectStmt, Statement};

pub(super) fn parse_select_text(sql: &str) -> Result<SelectStmt> {
    match parse(sql)? {
        Statement::Select(s) => Ok(s),
        other => Err(Error::semantic(format!("expected SELECT, got {other:?}"))),
    }
}

/// Plan a parsed SELECT against a catalog snapshot, optionally injecting
/// observed cardinalities (one [`CardOverrides`] per union branch —
/// branches have separate query-table spaces) into the optimizer and
/// refinement estimates.
pub(super) fn compile(
    cat: &Catalog,
    stmt: SelectStmt,
    opt: &dyn CostBasedOptimizer,
    fb: Option<&[CardOverrides]>,
    knobs: &Knobs,
) -> Result<PlannedQuery> {
    // MySQL does not support INTERSECT/EXCEPT; the paper rewrote the
    // affected queries (§6.2). We apply the mechanical rewrite here.
    let stmt = rewrite_set_ops(stmt)?;
    let branches = resolve_union_branches(cat, &stmt)?;
    let mut planned = Vec::with_capacity(branches.len());
    let mut columns: Option<Vec<String>> = None;
    for (i, (bound, all)) in branches.into_iter().enumerate() {
        let bfb = fb.and_then(|f| f.get(i)).filter(|o| !o.is_empty());
        let mut skeleton = match bfb {
            Some(o) => opt.optimize_with_feedback(cat, &bound, o)?,
            None => opt.optimize(cat, &bound)?,
        };
        if let Some(o) = bfb {
            skeleton.reopt = Some(format!("{} observed cardinalities injected", o.len()));
        }
        let opts = ParallelOpts { dop: knobs.dop, min_driver_rows: knobs.parallel_threshold };
        let plan = refine_statement_orders(cat, &bound, &skeleton, &opts, bfb, knobs.order_opt)?;
        let cols: Vec<String> = bound.root.select.iter().map(|o| o.name.clone()).collect();
        match &columns {
            None => columns = Some(cols),
            Some(c) if c.len() != cols.len() => {
                return Err(Error::semantic("UNION branches have different arity"));
            }
            Some(_) => {}
        }
        planned.push(PlannedBranch { bound, skeleton, plan, all });
    }
    let columns = columns.ok_or_else(|| Error::internal("statement resolved to no branches"))?;
    Ok(PlannedQuery { branches: planned, columns })
}

/// Re-bind a cached plan's parameters to a new statement's literal values.
/// Only the executable plans need it — `bound`/`skeleton` are kept for
/// EXPLAIN, where the `$n` markers render instead of stale values.
pub(super) fn rebind_planned(planned: &mut PlannedQuery, binds: &[Value]) -> Result<()> {
    let mut err: Option<Error> = None;
    for b in &mut planned.branches {
        b.plan.for_each_expr_mut(&mut |e| {
            if err.is_none() {
                if let Err(x) = e.rebind_params(binds) {
                    err = Some(x);
                }
            }
        });
    }
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}
