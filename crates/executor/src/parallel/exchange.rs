//! Exchange operator execution: gather, order-preserving merge, and
//! two-phase partitioned aggregation.
//!
//! Determinism argument (also in DESIGN.md §10): the unit of work is a
//! morsel — a contiguous slice of the driving scan's iteration order — and
//! every merge point orders its inputs by morsel index, never by completion
//! time. Whatever the pool's scheduling, dop, or morsel size, the bytes out
//! of an exchange equal the bytes of the serial execution.

use crate::exec::{exec, exec_aggregate, Binding, Env, ExecContext, Rows};
use crate::governor;
use crate::keyhash::{self, Chains};
use crate::parallel::bridge::find_driving_scan;
use crate::parallel::{morsel, morsel::MorselSpec, pool};
use crate::plan::{AggSpec, AggStrategy, ExchangeKind, Plan, SortKey};
use std::cmp::Ordering;
use taurus_common::error::Result;
use taurus_common::{Expr, Row, Value};

/// A hash-join build table. Shared across workers when the build side sits
/// under a `Broadcast` exchange; private per execution otherwise.
pub(crate) struct BuildTable {
    /// Build-side rows in their execution order.
    pub rows: Vec<Row>,
    /// Each row's evaluated key parts (`Key::eval`), `Key::computed()` per
    /// row; empty when every key part is a slot.
    pub computed: Vec<Value>,
    /// Row positions chained by key hash, in build order (NULL keys left
    /// out).
    pub chains: Chains,
    /// Whether any build row had a NULL key component (NULL-aware anti
    /// joins turn membership UNKNOWN on it).
    pub has_null_key: bool,
}

/// Plan the morsels for a parallel fragment, or `None` when the exchange
/// must run serially: dop too low, already inside a worker (no nested
/// pools), a correlated opening (non-empty binding — the fragment would
/// need re-execution per outer row), no morselizable driving scan, or too
/// few morsels to be worth a pool.
fn plan_morsels(
    input: &Plan,
    dop: usize,
    ctx: &ExecContext<'_>,
    binding: Binding<'_>,
) -> Option<Vec<MorselSpec>> {
    if dop < 2 || ctx.in_worker() || !binding.row.is_empty() {
        return None;
    }
    let (qt, table) = find_driving_scan(input)?;
    let total = ctx.catalog.table(table).ok()?.num_rows();
    let morsels = morsel::split(qt, total, ctx.morsel_rows());
    if morsels.len() < 2 {
        None
    } else {
        Some(morsels)
    }
}

/// Execute a `Gather` or `GatherMerge` exchange: run the fragment once per
/// morsel on the pool and merge the per-morsel buffers deterministically.
pub(crate) fn exec_gather(
    kind: &ExchangeKind,
    input: &Plan,
    dop: usize,
    ctx: &ExecContext<'_>,
    binding: Binding<'_>,
) -> Result<Vec<Row>> {
    let Some(morsels) = plan_morsels(input, dop, ctx, binding) else {
        return exec(input, ctx, binding).map(Rows::into_owned);
    };
    let buffers: Vec<Vec<Row>> = pool::run_units(ctx, dop, morsels.len(), |wctx, i| {
        wctx.set_morsel(Some(morsels[i]));
        let rows = exec(input, wctx, binding);
        wctx.set_morsel(None);
        rows.map(Rows::into_owned)
    })?;
    // A fragment topped by `Sort` produced per-morsel sorted runs: merge
    // them on the sort keys even under a plain `Gather` (e.g. a hand-built
    // plan), so concatenation can never interleave a sorted order.
    if matches!(kind, ExchangeKind::GatherMerge) || matches!(input, Plan::Sort { .. }) {
        merge_sorted_runs(input, buffers, ctx, binding)
    } else {
        Ok(buffers.into_iter().flatten().collect())
    }
}

/// K-way merge of per-morsel sorted runs on the `Sort` node's keys, ties
/// broken by run (= morsel) index — which reproduces the serial stable sort
/// exactly, because rows within a run are already in scan order.
fn merge_sorted_runs(
    input: &Plan,
    runs: Vec<Vec<Row>>,
    ctx: &ExecContext<'_>,
    binding: Binding<'_>,
) -> Result<Vec<Row>> {
    let keys: &[SortKey] = match input {
        Plan::Sort { keys, .. } => keys,
        // GatherMerge is only placed above a Sort; anything else degrades to
        // a plain order-preserving gather.
        _ => return Ok(runs.into_iter().flatten().collect()),
    };
    let env = Env::new(binding, &input.space(ctx.num_tables), ctx.num_tables);
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut keyed: Vec<Vec<(Vec<Value>, Row)>> = Vec::with_capacity(runs.len());
    for run in runs {
        let mut kr = Vec::with_capacity(run.len());
        for row in run {
            let mut kv = Vec::with_capacity(keys.len());
            for k in keys {
                kv.push(env.eval(&k.expr, &row)?);
            }
            kr.push((kv, row));
        }
        keyed.push(kr);
    }
    let mut pos = vec![0usize; keyed.len()];
    let mut out = Vec::with_capacity(total);
    loop {
        let mut best: Option<usize> = None;
        for (r, run) in keyed.iter().enumerate() {
            if pos[r] >= run.len() {
                continue;
            }
            best = match best {
                None => Some(r),
                // Strict `Less` keeps the lowest run index on ties.
                Some(b) => {
                    let (x, y) = (&run[pos[r]].0, &keyed[b][pos[b]].0);
                    if crate::ordering::cmp_key_tuples(x, y, keys) == Ordering::Less {
                        Some(r)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        let Some(b) = best else { break };
        out.push(std::mem::take(&mut keyed[b][pos[b]].1));
        pos[b] += 1;
    }
    Ok(out)
}

/// Two-phase partitioned aggregation under a `Repartition` exchange.
///
/// Phase 1 (parallel over morsels): execute the fragment per morsel and
/// hash-partition its rows on the group-by keys into `dop` buckets. The
/// regroup concatenates each partition's sub-buckets in morsel order, so a
/// partition sees its rows in the *original scan order* — every group lives
/// wholly inside one partition, and its accumulators are fed in exactly the
/// order the serial plan feeds them (which matters for `Accumulator`
/// semantics like first-seen DISTINCT ordering).
///
/// Phase 2 (parallel over partitions): hash-aggregate each partition and
/// sort its groups by key. The final concatenation is re-sorted globally —
/// identical output to the serial `Sort`(group keys) + stream-aggregate
/// plan this exchange replaces.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_partitioned_agg(
    input: &Plan,
    keys: &[Expr],
    dop: usize,
    group_by: &[Expr],
    aggs: &[AggSpec],
    xnode: &Plan,
    ctx: &ExecContext<'_>,
    binding: Binding<'_>,
) -> Result<Vec<Row>> {
    let space = input.space(ctx.num_tables);
    let Some(morsels) = plan_morsels(input, dop, ctx, binding) else {
        // Serial fallback: aggregate in one go, but keep the key-sorted
        // output contract of the partitioned path.
        let rows = exec(input, ctx, binding)?;
        // The Repartition node is consumed by the Aggregate arm rather than
        // routed through `exec`; credit it with its pre-aggregation row flow.
        ctx.record(xnode, rows.len() as u64);
        let env = Env::new(binding, &space, ctx.num_tables);
        let agg_bytes = governor::rows_bytes(&rows);
        ctx.charge_mem(agg_bytes)?;
        let mut out = exec_aggregate(&rows, group_by, aggs, AggStrategy::Hash, &env)?;
        ctx.uncharge_mem(agg_bytes);
        sort_by_leading_keys(&mut out, group_by.len());
        return Ok(out);
    };

    let nparts = dop;
    // Phase 1: scan morsels, hash-partition rows on the keys.
    let buckets: Vec<Vec<Vec<Row>>> = pool::run_units(ctx, dop, morsels.len(), |wctx, i| {
        wctx.set_morsel(Some(morsels[i]));
        let rows = exec(input, wctx, binding);
        wctx.set_morsel(None);
        let rows = rows?.into_owned();
        let env = Env::new(binding, &space, wctx.num_tables);
        let key = env.key(keys);
        let mut kv = Vec::new();
        let mut parts: Vec<Vec<Row>> = (0..nparts).map(|_| Vec::new()).collect();
        for row in rows {
            let view = env.view(&row, &[]);
            key.eval(view, &mut kv)?;
            let p = partition_of(keyhash::hash(0, key.values(view, &kv)), nparts);
            parts[p].push(row);
        }
        Ok(parts)
    })?;

    // Regroup in morsel order: partition p = morsel 0's bucket p, then
    // morsel 1's, ... — original scan order within each partition.
    let mut partitions: Vec<Vec<Row>> = (0..nparts).map(|_| Vec::new()).collect();
    for per_morsel in buckets {
        for (p, rows) in per_morsel.into_iter().enumerate() {
            partitions[p].extend(rows);
        }
    }
    ctx.record(xnode, partitions.iter().map(|p| p.len() as u64).sum());
    // The repartition exchange holds every partition buffered while phase 2
    // aggregates them — memory the serial plan never needs at once, charged
    // for the duration of phase 2. (This is what the engine's memory
    // degradation rung reclaims by retrying at dop=1.)
    let exchange_bytes: u64 = partitions.iter().map(|p| governor::rows_bytes(p)).sum();
    ctx.charge_mem(exchange_bytes)?;

    // Phase 2: aggregate each partition; each worker owns whole groups.
    let outs: Vec<Vec<Row>> = pool::run_units(ctx, dop, nparts, |wctx, p| {
        let env = Env::new(binding, &space, wctx.num_tables);
        let agg_bytes = governor::rows_bytes(&partitions[p]);
        wctx.charge_mem(agg_bytes)?;
        let mut out = exec_aggregate(&partitions[p], group_by, aggs, AggStrategy::Hash, &env)?;
        wctx.uncharge_mem(agg_bytes);
        sort_by_leading_keys(&mut out, group_by.len());
        Ok(out)
    })?;

    let mut out: Vec<Row> = outs.into_iter().flatten().collect();
    ctx.uncharge_mem(exchange_bytes);
    sort_by_leading_keys(&mut out, group_by.len());
    Ok(out)
}

/// Sort aggregate output rows by their leading `k` columns (the group
/// values) ascending — the order the serial sort + stream-aggregate plan
/// produces. Group keys are unique, so the order is total.
fn sort_by_leading_keys(rows: &mut [Row], k: usize) {
    rows.sort_by(|a, b| crate::ordering::cmp_leading_cols(a, b, k));
}

/// Deterministic partition assignment from a key's hash (the key tables',
/// unseeded, so every worker agrees). It only affects *which worker* owns a
/// group, never the output order.
fn partition_of(hash: u64, nparts: usize) -> usize {
    (hash % nparts.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_assignment_is_deterministic_and_in_range() {
        let keys = [vec![Value::Int(7)], vec![Value::str("x")], vec![Value::Null]];
        for k in &keys {
            let p = partition_of(keyhash::hash(0, k), 4);
            assert!(p < 4);
            assert_eq!(p, partition_of(keyhash::hash(0, k), 4), "same key, same partition");
        }
        // Keys that compare equal share a partition.
        let two = |v: Value| partition_of(keyhash::hash(0, &[v]), 4);
        assert_eq!(two(Value::Int(2)), two(Value::Double(2.0)));
    }

    #[test]
    fn leading_key_sort_orders_groups() {
        let mut rows = vec![
            vec![Value::Int(2), Value::Int(20)],
            vec![Value::Null, Value::Int(0)],
            vec![Value::Int(1), Value::Int(10)],
        ];
        sort_by_leading_keys(&mut rows, 1);
        // NULLs sort first under the engine's total order.
        assert!(rows[0][0].is_null());
        assert_eq!(rows[1][0], Value::Int(1));
        assert_eq!(rows[2][0], Value::Int(2));
    }
}
