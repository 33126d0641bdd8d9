//! The batch operator runner: executes the largest supported plan subtree
//! as a stream of columnar [`Batch`]es and materializes rows only at the
//! edge where the row engine takes over.
//!
//! Supported operators (the hot set): table scan, ordered index scan,
//! index range scan, filter, projection, hash join build/probe, hash and
//! scalar aggregation, limit, and derived-table pass-through. Everything
//! else — sort, nested loops, unions, materialization, exchanges,
//! correlated anything — returns `None` and runs on the row path, whose
//! own recursion re-enters this module for each child subtree. Parallel
//! workers inherit the context's `vectorized` flag, so a morsel's fragment
//! runs batched with zero changes to the pool or the exchange merges.
//!
//! Ordering discipline: every kernel visits rows in exactly the order the
//! row path would (heap order, index order, probe order, first-seen group
//! order), which is what makes byte-identity achievable at all.

use std::collections::HashMap;
use std::sync::Arc;

use taurus_common::error::Result;
use taurus_common::{Expr, Row, Value};

use crate::agg::Accumulator;
use crate::exec::{self, build_table, concat, null_padded, Binding, Env, ExecContext, ExecStats};
use crate::governor::rows_bytes;
use crate::parallel::exchange::BuildTable;
use crate::plan::{AggSpec, AggStrategy, ExchangeKind, JoinKind, Plan};

use super::kernels::{col_of, collect_refs, compile_pred, pred_passes_row, refine, Pred};
use super::{rows_to_batch, Batch, Batches, Bitmap, Col, ColBuilder, BATCH_ROWS};

/// Batch-execute `plan` if its root is a supported operator, materializing
/// the result back to rows. `None` means "not supported here — run the row
/// path". Callers guarantee the binding is empty (no correlation).
pub(crate) fn try_exec_rows(
    plan: &Plan,
    ctx: &ExecContext<'_>,
    binding: Binding<'_>,
) -> Result<Option<Vec<Row>>> {
    debug_assert!(binding.row.is_empty(), "batch path requires an empty binding");
    let Some(batches) = batch_exec(plan, ctx, binding, None)? else {
        return Ok(None);
    };
    let mut rows = Vec::with_capacity(batches.num_rows());
    for b in &batches.data {
        b.to_rows(&mut rows);
    }
    batches.release(ctx);
    Ok(Some(rows))
}

/// `needed` masks which output positions an ancestor will read (`None` =
/// all of them): scans then skip transposing pruned columns entirely. The
/// mask is only ever narrowed when every ancestor expression's read set
/// could be proven; pruned slots hold [`Col::Absent`] placeholders.
fn batch_exec(
    plan: &Plan,
    ctx: &ExecContext<'_>,
    binding: Binding<'_>,
    needed: Option<&[bool]>,
) -> Result<Option<Batches>> {
    match plan {
        Plan::TableScan { table, qt, filter, .. } => {
            let t = ctx.catalog.table(*table)?;
            let (skip, take) = scan_window(ctx.morsel_range(*qt));
            scan_stream(
                t.data.scan().skip(skip).take(take).map(|(_, r)| r),
                t.data.schema(),
                filter,
                plan,
                ctx,
                binding,
                needed,
            )
            .map(Some)
        }
        Plan::IndexScan { table, qt, index, filter, .. } => {
            let t = ctx.catalog.table(*table)?;
            let Some(ix) = t.indexes.get(*index) else { return Ok(None) };
            let (skip, take) = scan_window(ctx.morsel_range(*qt));
            scan_stream(
                ix.scan_ordered().skip(skip).take(take).map(|rid| t.data.row(rid)),
                t.data.schema(),
                filter,
                plan,
                ctx,
                binding,
                needed,
            )
            .map(Some)
        }
        Plan::IndexRange { table, index, lo, hi, filter, .. } => {
            let t = ctx.catalog.table(*table)?;
            let Some(ix) = t.indexes.get(*index) else { return Ok(None) };
            // Bounds evaluate against the (empty) binding: constants.
            let lo_v = lo
                .as_ref()
                .map(|(e, inc)| Ok::<_, taurus_common::error::Error>((binding.eval(e)?, *inc)))
                .transpose()?;
            let hi_v = hi
                .as_ref()
                .map(|(e, inc)| Ok::<_, taurus_common::error::Error>((binding.eval(e)?, *inc)))
                .transpose()?;
            // Same two guards as the row path: a NULL bound matches nothing,
            // and an unbounded-below range starts after the NULL prefix.
            let null_bound = lo_v.as_ref().is_some_and(|(v, _)| v.is_null())
                || hi_v.as_ref().is_some_and(|(v, _)| v.is_null());
            if null_bound {
                return Ok(Some(Batches::new()));
            }
            let lo_arg = match lo_v.as_ref() {
                Some((v, i)) => Some((v, *i)),
                None => Some((&Value::Null, false)),
            };
            scan_stream(
                ix.range(lo_arg, hi_v.as_ref().map(|(v, i)| (v, *i))).map(|rid| t.data.row(rid)),
                t.data.schema(),
                filter,
                plan,
                ctx,
                binding,
                needed,
            )
            .map(Some)
        }
        Plan::Filter { input, predicate, .. } => {
            filter_op(input, predicate, ctx, binding, needed).map(Some)
        }
        Plan::Project { input, exprs, .. } => {
            project_op(input, exprs, ctx, binding, needed).map(Some)
        }
        Plan::Limit { input, n, .. } => {
            limit_op(input, *n as usize, ctx, binding, needed).map(Some)
        }
        // A derived table only re-homes its input's space; positions are
        // unchanged, so the mask passes straight through.
        Plan::Derived { input, .. } => batch_exec(input, ctx, binding, needed),
        Plan::HashJoin { kind, build_left, left, right, keys, residual, null_aware, .. } => {
            // Degenerate shapes (no keys, build-left non-inner) error on the
            // row path; let it produce those errors.
            if keys.is_empty() || (*build_left && *kind != JoinKind::Inner) {
                return Ok(None);
            }
            hash_join_op(
                *kind,
                *build_left,
                left,
                right,
                keys,
                residual,
                *null_aware,
                ctx,
                binding,
                needed,
            )
            .map(Some)
        }
        Plan::Aggregate { input, group_by, aggs, strategy, .. } => {
            // Partitioned aggregation (Repartition input) and grouped stream
            // aggregation keep their row-path implementations; their inputs
            // still vectorize through the recursion.
            if matches!(
                input.as_ref(),
                Plan::Exchange { kind: ExchangeKind::Repartition { .. }, .. }
            ) {
                return Ok(None);
            }
            if *strategy == AggStrategy::Stream && !group_by.is_empty() {
                return Ok(None);
            }
            aggregate_op(input, group_by, aggs, ctx, binding).map(Some)
        }
        _ => Ok(None),
    }
}

/// Batch-execute a child, falling back to the row path (and transposing its
/// rows) when the child's root is unsupported.
fn batch_input(
    plan: &Plan,
    ctx: &ExecContext<'_>,
    binding: Binding<'_>,
    needed: Option<&[bool]>,
) -> Result<Batches> {
    if let Some(b) = batch_exec(plan, ctx, binding, needed)? {
        return Ok(b);
    }
    let rows = exec::exec(plan, ctx, binding)?;
    let width = plan.space(ctx.num_tables).width();
    let mut out = Batches::new();
    for chunk in rows.chunks(BATCH_ROWS) {
        out.push_charged(rows_to_batch(chunk, width), ctx)?;
    }
    Ok(out)
}

/// `(skip, take)` for a scan iterator under an optional morsel restriction
/// (same shape as the row path's helper).
fn scan_window(range: Option<(usize, usize)>) -> (usize, usize) {
    match range {
        Some((lo, hi)) => (lo, hi.saturating_sub(lo)),
        None => (0, usize::MAX),
    }
}

/// The shared scan kernel: stream heap/index rows in chunks, run the
/// pushed-down filter on the *borrowed* rows (no clone for filtered-out
/// rows), then transpose only the survivors' needed columns — per-column
/// loops, late materialization.
fn scan_stream<'r>(
    rows: impl Iterator<Item = &'r Row>,
    schema: &taurus_common::Schema,
    filter: &[Expr],
    plan: &Plan,
    ctx: &ExecContext<'_>,
    binding: Binding<'_>,
    needed: Option<&[bool]>,
) -> Result<Batches> {
    let space = plan.space(ctx.num_tables);
    let width = space.width();
    let env = Env::new(binding, &space, ctx.num_tables);
    let preds: Vec<Pred<'_>> = filter.iter().map(|e| compile_pred(e, &space)).collect();
    let mut out = Batches::new();
    let mut chunk: Vec<&Row> = Vec::with_capacity(BATCH_ROWS);
    for row in rows {
        chunk.push(row);
        if chunk.len() == BATCH_ROWS {
            flush_scan_chunk(&mut chunk, width, schema, &preds, &env, needed, ctx, &mut out)?;
        }
    }
    flush_scan_chunk(&mut chunk, width, schema, &preds, &env, needed, ctx, &mut out)?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn flush_scan_chunk(
    chunk: &mut Vec<&Row>,
    width: usize,
    schema: &taurus_common::Schema,
    preds: &[Pred<'_>],
    env: &Env,
    needed: Option<&[bool]>,
    ctx: &ExecContext<'_>,
    out: &mut Batches,
) -> Result<()> {
    if chunk.is_empty() {
        return Ok(());
    }
    // Chunk boundary = batch boundary: the governor check that caps how far
    // a cancelled query keeps scanning.
    ctx.check_governor()?;
    ExecStats::bump(&ctx.stats.rows_scanned, chunk.len() as u64);
    let mut kept: Vec<&Row> = Vec::with_capacity(chunk.len());
    'row: for row in chunk.iter().copied() {
        for p in preds {
            if !pred_passes_row(p, row, env)? {
                continue 'row;
            }
        }
        kept.push(row);
    }
    ExecStats::bump(&ctx.stats.rows_emitted, kept.len() as u64);
    if !kept.is_empty() {
        let mut cols = Vec::with_capacity(width);
        for ci in 0..width {
            if needed.is_some_and(|m| !m[ci]) {
                cols.push(Col::Absent);
                continue;
            }
            let mut b = if ci < schema.len() {
                ColBuilder::for_type(schema.column(ci).data_type)
            } else {
                ColBuilder::new()
            };
            for row in &kept {
                b.push(&row[ci]);
            }
            cols.push(b.finish());
        }
        out.push_charged(Batch { cols, len: kept.len(), sel: None }, ctx)?;
    }
    chunk.clear();
    Ok(())
}

/// Filter: refine each batch's selection vector, one compiled conjunct at a
/// time. No rows are copied; survivors are just indices.
fn filter_op(
    input: &Plan,
    predicate: &[Expr],
    ctx: &ExecContext<'_>,
    binding: Binding<'_>,
    needed: Option<&[bool]>,
) -> Result<Batches> {
    let space = input.space(ctx.num_tables);
    // The child must materialize whatever the ancestors need plus whatever
    // the predicate reads.
    let child_needed = needed.and_then(|m| {
        let mut mask = m.to_vec();
        let refs: Vec<&Expr> = predicate.iter().collect();
        collect_refs(&refs, &space, &mut mask).then_some(mask)
    });
    let mut batches = batch_input(input, ctx, binding, child_needed.as_deref())?;
    let env = Env::new(binding, &space, ctx.num_tables);
    let preds: Vec<Pred<'_>> = predicate.iter().map(|e| compile_pred(e, &space)).collect();
    let mut scratch = Vec::new();
    for b in &mut batches.data {
        ctx.check_governor()?;
        for p in &preds {
            refine(b, p, &env, &mut scratch)?;
            if b.num_rows() == 0 {
                break;
            }
        }
    }
    ExecStats::bump(&ctx.stats.rows_emitted, batches.num_rows() as u64);
    Ok(batches)
}

/// Projection: direct column references gather (or share) their input
/// vector; constants broadcast; complex expressions fall back to the
/// interpreter per selected row. Output expressions no ancestor reads are
/// skipped entirely.
fn project_op(
    input: &Plan,
    exprs: &[Expr],
    ctx: &ExecContext<'_>,
    binding: Binding<'_>,
    needed: Option<&[bool]>,
) -> Result<Batches> {
    let space = input.space(ctx.num_tables);
    let iwidth = space.width();
    let eval_needed: Vec<bool> = match needed {
        Some(m) => m.to_vec(),
        None => vec![true; exprs.len()],
    };
    let mut mask = vec![false; iwidth];
    let refs: Vec<&Expr> =
        exprs.iter().zip(&eval_needed).filter(|(_, n)| **n).map(|(e, _)| e).collect();
    let child_needed = collect_refs(&refs, &space, &mut mask).then_some(mask);
    let input_b = batch_input(input, ctx, binding, child_needed.as_deref())?;
    let env = Env::new(binding, &space, ctx.num_tables);
    let direct: Vec<Option<usize>> = exprs.iter().map(|e| col_of(e, &space)).collect();
    let mut out = Batches::new();
    let mut scratch = Vec::new();
    for b in &input_b.data {
        ctx.check_governor()?;
        let n = b.num_rows();
        let mut cols = Vec::with_capacity(exprs.len());
        for (j, e) in exprs.iter().enumerate() {
            if !eval_needed[j] {
                cols.push(Col::Absent);
                continue;
            }
            if let Some(ci) = direct[j] {
                cols.push(gather(&b.cols[ci], b));
                continue;
            }
            let mut builder = ColBuilder::new();
            for i in 0..n {
                let p = b.phys(i);
                b.write_row(p, &mut scratch);
                builder.push(&env.eval(e, &scratch)?);
            }
            cols.push(builder.finish());
        }
        ExecStats::bump(&ctx.stats.rows_emitted, n as u64);
        out.push_charged(Batch { cols, len: n, sel: None }, ctx)?;
    }
    input_b.release(ctx);
    Ok(out)
}

/// Compact a column through a batch's selection vector (clone when dense).
fn gather(c: &Col, b: &Batch) -> Col {
    let Some(sel) = &b.sel else { return c.clone() };
    match c {
        Col::Int { data, valid } => {
            let (d, m) = gather_typed(data, valid, sel);
            Col::Int { data: d, valid: m }
        }
        Col::Double { data, valid } => {
            let (d, m) = gather_typed(data, valid, sel);
            Col::Double { data: d, valid: m }
        }
        Col::Date { data, valid } => {
            let (d, m) = gather_typed(data, valid, sel);
            Col::Date { data: d, valid: m }
        }
        Col::Bool { data, valid } => {
            let (d, m) = gather_typed(data, valid, sel);
            Col::Bool { data: d, valid: m }
        }
        Col::Str { data, valid } => {
            let (d, m) = gather_typed(data, valid, sel);
            Col::Str { data: d, valid: m }
        }
        Col::Vals(v) => Col::Vals(sel.iter().map(|&p| v[p as usize].clone()).collect()),
        Col::Absent => Col::Absent,
    }
}

fn gather_typed<T: Clone>(data: &[T], valid: &Bitmap, sel: &[u32]) -> (Vec<T>, Bitmap) {
    let mut d = Vec::with_capacity(sel.len());
    let mut m = Bitmap::with_capacity(sel.len());
    for &p in sel {
        d.push(data[p as usize].clone());
        m.push(valid.get(p as usize));
    }
    (d, m)
}

/// Limit: logically truncate the batch stream at `n` rows.
fn limit_op(
    input: &Plan,
    n: usize,
    ctx: &ExecContext<'_>,
    binding: Binding<'_>,
    needed: Option<&[bool]>,
) -> Result<Batches> {
    let mut batches = batch_input(input, ctx, binding, needed)?;
    let mut remaining = n;
    let mut keep = Vec::new();
    for mut b in std::mem::take(&mut batches.data) {
        if remaining == 0 {
            break;
        }
        let k = b.num_rows();
        if k <= remaining {
            remaining -= k;
            keep.push(b);
        } else {
            let sel: Vec<u32> = (0..remaining).map(|i| b.phys(i) as u32).collect();
            b.sel = Some(sel);
            remaining = 0;
            keep.push(b);
        }
    }
    batches.data = keep;
    ExecStats::bump(&ctx.stats.rows_emitted, batches.num_rows() as u64);
    Ok(batches)
}

/// Hash join: the build side reuses the row engine's `build_table` (same
/// hash map, same NULL-key exclusion), the probe side streams batches with
/// keys extracted straight from columns where possible, and the probe row
/// is only materialized for rows that actually need it (matches, residuals,
/// outer pads).
#[allow(clippy::too_many_arguments)]
fn hash_join_op(
    kind: JoinKind,
    build_left: bool,
    left: &Plan,
    right: &Plan,
    keys: &[(Expr, Expr)],
    residual: &[Expr],
    null_aware: bool,
    ctx: &ExecContext<'_>,
    binding: Binding<'_>,
    needed: Option<&[bool]>,
) -> Result<Batches> {
    let nt = ctx.num_tables;
    let build_is_left = build_left;
    let (build_plan, probe_plan): (&Plan, &Plan) =
        if build_is_left { (left, right) } else { (right, left) };
    let left_width = left.space(nt).width();
    let right_width = right.space(nt).width();
    let join_space = exec::whole_join_space(nt, left, right)?;
    let probe_space = probe_plan.space(nt);
    let probe_width = probe_space.width();
    let out_width = match kind {
        JoinKind::Inner | JoinKind::LeftOuter => left_width + right_width,
        JoinKind::Semi | JoinKind::AntiSemi => left_width,
    };
    // Probe side's offset inside the combined left++right space.
    let probe_off = if build_is_left { left_width } else { 0 };

    let build_keys: Vec<&Expr> = if build_is_left {
        keys.iter().map(|(l, _)| l).collect()
    } else {
        keys.iter().map(|(_, r)| r).collect()
    };
    let probe_keys: Vec<&Expr> = if build_is_left {
        keys.iter().map(|(_, r)| r).collect()
    } else {
        keys.iter().map(|(l, _)| l).collect()
    };

    // Probe-side pruning: the ancestors' mask restricted to the probe side,
    // widened by the probe keys and the residual's probe-side reads.
    let probe_needed: Option<Vec<bool>> = needed.and_then(|m| {
        let mut pmask = vec![false; probe_width];
        match kind {
            JoinKind::Inner | JoinKind::LeftOuter => {
                for (j, slot) in pmask.iter_mut().enumerate() {
                    *slot = m[probe_off + j];
                }
            }
            // Semi/anti output *is* the probe (left) side.
            JoinKind::Semi | JoinKind::AntiSemi => pmask.copy_from_slice(m),
        }
        if !collect_refs(&probe_keys, &probe_space, &mut pmask) {
            return None;
        }
        if !residual.is_empty() {
            let mut jmask = vec![false; left_width + right_width];
            let refs: Vec<&Expr> = residual.iter().collect();
            if !collect_refs(&refs, &join_space, &mut jmask) {
                return None;
            }
            for (j, slot) in pmask.iter_mut().enumerate() {
                *slot = *slot || jmask[probe_off + j];
            }
        }
        Some(pmask)
    });

    let build_env = Env::new(binding, &build_plan.space(nt), nt);
    let probe_env = Env::new(binding, &probe_space, nt);
    let join_env = Env::new(binding, &join_space, nt);

    // Build exactly as the row path does (shared broadcast builds included).
    let build_is_shared =
        matches!(build_plan, Plan::Exchange { kind: ExchangeKind::Broadcast { .. }, .. });
    let built: Arc<BuildTable> = match build_plan {
        Plan::Exchange { kind: ExchangeKind::Broadcast { slot }, input, .. } => {
            ctx.shared_build(*slot, || {
                let rows = exec::exec(input, ctx, binding)?.into_owned();
                ctx.record(build_plan, rows.len() as u64);
                build_table(rows, &build_keys, &build_env, ctx)
            })?
        }
        _ => {
            let rows = exec::exec(build_plan, ctx, binding)?.into_owned();
            Arc::new(build_table(rows, &build_keys, &build_env, ctx)?)
        }
    };
    let (table, build_rows, build_has_null_key) = (&built.index, &built.rows, built.has_null_key);

    let probe_b = batch_input(probe_plan, ctx, binding, probe_needed.as_deref())?;
    let key_cols: Vec<Option<usize>> = probe_keys.iter().map(|k| col_of(k, &probe_space)).collect();

    let mut out = Batches::new();
    let mut pending: Vec<Row> = Vec::new();
    let mut prow: Vec<Value> = Vec::new();
    let mut kv: Vec<Value> = Vec::with_capacity(probe_keys.len());
    for b in &probe_b.data {
        ctx.check_governor()?;
        for i in 0..b.num_rows() {
            let p = b.phys(i);
            ExecStats::bump(&ctx.stats.hash_probes, 1);
            // Materialize the probe row lazily: key-only misses never pay
            // for it when every key is a direct column.
            let mut prow_filled = false;
            kv.clear();
            let mut any_null = false;
            for (k, kc) in probe_keys.iter().zip(&key_cols) {
                let v = match kc {
                    Some(c) => b.cols[*c].value(p),
                    None => {
                        if !prow_filled {
                            b.write_row(p, &mut prow);
                            prow_filled = true;
                        }
                        probe_env.eval(k, &prow)?
                    }
                };
                any_null |= v.is_null();
                kv.push(v);
            }
            let matches: &[usize] = if any_null {
                &[]
            } else {
                table.get(kv.as_slice()).map(|v| v.as_slice()).unwrap_or(&[])
            };

            let mut matched = false;
            for &bi in matches {
                let brow = build_rows.get(bi).ok_or_else(|| {
                    taurus_common::error::Error::internal("hash-join build index out of range")
                })?;
                if !prow_filled {
                    b.write_row(p, &mut prow);
                    prow_filled = true;
                }
                let (lrow, rrow): (&[Value], &[Value]) =
                    if build_is_left { (brow, &prow) } else { (&prow, brow) };
                if join_env.pair_passes(residual, lrow, rrow)? {
                    matched = true;
                    match kind {
                        JoinKind::Inner | JoinKind::LeftOuter => pending.push(concat(lrow, rrow)),
                        JoinKind::Semi => {
                            pending.push(prow.clone());
                            break;
                        }
                        JoinKind::AntiSemi => break,
                    }
                }
            }
            if !matched {
                match kind {
                    JoinKind::LeftOuter => {
                        if !prow_filled {
                            b.write_row(p, &mut prow);
                        }
                        pending.push(null_padded(&prow, right_width));
                    }
                    JoinKind::AntiSemi => {
                        // Same NULL-aware membership rule as the row path:
                        // UNKNOWN filters the row except over an empty build.
                        if null_aware && !build_rows.is_empty() && (any_null || build_has_null_key)
                        {
                            continue;
                        }
                        if !prow_filled {
                            b.write_row(p, &mut prow);
                        }
                        pending.push(prow.clone());
                    }
                    _ => {}
                }
            }
            if pending.len() >= BATCH_ROWS {
                out.push_charged(rows_to_batch(&pending, out_width), ctx)?;
                pending.clear();
            }
        }
    }
    if !pending.is_empty() {
        out.push_charged(rows_to_batch(&pending, out_width), ctx)?;
        pending.clear();
    }
    if !build_is_shared {
        ctx.uncharge_mem(rows_bytes(&built.rows));
    }
    probe_b.release(ctx);
    ExecStats::bump(&ctx.stats.rows_emitted, out.num_rows() as u64);
    Ok(out)
}

/// Hash / scalar aggregation over batches. Group keys and aggregate inputs
/// read straight from column vectors when they are direct references; the
/// accumulators themselves are the row engine's, fed in identical order,
/// so every finish() is bit-identical.
fn aggregate_op(
    input: &Plan,
    group_by: &[Expr],
    aggs: &[AggSpec],
    ctx: &ExecContext<'_>,
    binding: Binding<'_>,
) -> Result<Batches> {
    let nt = ctx.num_tables;
    let space = input.space(nt);
    let iwidth = space.width();
    let mut mask = vec![false; iwidth];
    let refs: Vec<&Expr> =
        group_by.iter().chain(aggs.iter().filter_map(|s| s.arg.as_ref())).collect();
    let child_needed = collect_refs(&refs, &space, &mut mask).then_some(mask);
    // The batch buffers below are charged by their producers, covering the
    // hash state's footprint on the same scale as the row path's charge.
    let input_b = batch_input(input, ctx, binding, child_needed.as_deref())?;
    let env = Env::new(binding, &space, nt);
    let group_cols: Vec<Option<usize>> = group_by.iter().map(|g| col_of(g, &space)).collect();
    let arg_cols: Vec<Option<usize>> =
        aggs.iter().map(|s| s.arg.as_ref().and_then(|e| col_of(e, &space))).collect();
    let new_accs = || -> Vec<Accumulator> {
        aggs.iter().map(|s| Accumulator::new(s.func, s.distinct)).collect()
    };
    let emit = |key: Vec<Value>, accs: &[Accumulator]| -> Row {
        let mut row = key;
        row.extend(accs.iter().map(|a| a.finish()));
        row
    };
    let out_width = group_by.len() + aggs.len();
    let mut scratch: Vec<Value> = Vec::new();

    let mut out_rows: Vec<Row> = Vec::new();
    if group_by.is_empty() {
        let mut accs = new_accs();
        for b in &input_b.data {
            ctx.check_governor()?;
            // Per-column accumulation: each aggregate sweeps its own column.
            for ((spec, ac), acc) in aggs.iter().zip(&arg_cols).zip(accs.iter_mut()) {
                accumulate_column(spec, *ac, acc, b, &env, &mut scratch)?;
            }
        }
        out_rows.push(emit(Vec::new(), &accs));
    } else {
        let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
        let mut order: Vec<Vec<Value>> = Vec::new();
        for b in &input_b.data {
            ctx.check_governor()?;
            for i in 0..b.num_rows() {
                let p = b.phys(i);
                let mut prow_filled = false;
                let mut key = Vec::with_capacity(group_by.len());
                for (g, gc) in group_by.iter().zip(&group_cols) {
                    let v = match gc {
                        Some(c) => b.cols[*c].value(p),
                        None => {
                            if !prow_filled {
                                b.write_row(p, &mut scratch);
                                prow_filled = true;
                            }
                            env.eval(g, &scratch)?
                        }
                    };
                    key.push(v);
                }
                let accs = match groups.get_mut(&key) {
                    Some(a) => a,
                    None => {
                        order.push(key.clone());
                        groups.entry(key.clone()).or_insert_with(new_accs)
                    }
                };
                for ((spec, ac), acc) in aggs.iter().zip(&arg_cols).zip(accs.iter_mut()) {
                    let v = match (&spec.arg, ac) {
                        (None, _) => Value::Int(1),
                        (Some(_), Some(c)) => b.cols[*c].value(p),
                        (Some(e), None) => {
                            if !prow_filled {
                                b.write_row(p, &mut scratch);
                                prow_filled = true;
                            }
                            env.eval(e, &scratch)?
                        }
                    };
                    acc.update(&v)?;
                }
            }
        }
        out_rows.reserve(order.len());
        for key in order {
            let accs = groups.get(&key).ok_or_else(|| {
                taurus_common::error::Error::internal("hash-aggregate group vanished")
            })?;
            out_rows.push(emit(key, accs));
        }
    }
    input_b.release(ctx);
    ExecStats::bump(&ctx.stats.rows_emitted, out_rows.len() as u64);
    let mut out = Batches::new();
    for chunk in out_rows.chunks(BATCH_ROWS) {
        out.push_charged(rows_to_batch(chunk, out_width), ctx)?;
    }
    Ok(out)
}

/// Sweep one aggregate over one batch (scalar aggregation): direct columns
/// feed the accumulator without touching the interpreter; complex arguments
/// fall back to a scratch row per selected row.
fn accumulate_column(
    spec: &AggSpec,
    arg_col: Option<usize>,
    acc: &mut Accumulator,
    b: &Batch,
    env: &Env,
    scratch: &mut Vec<Value>,
) -> Result<()> {
    match (&spec.arg, arg_col) {
        (None, _) => {
            for _ in 0..b.num_rows() {
                acc.update(&Value::Int(1))?;
            }
        }
        (Some(_), Some(c)) => {
            let col = &b.cols[c];
            for i in 0..b.num_rows() {
                acc.update(&col.value(b.phys(i)))?;
            }
        }
        (Some(e), None) => {
            for i in 0..b.num_rows() {
                b.write_row(b.phys(i), scratch);
                acc.update(&env.eval(e, scratch)?)?;
            }
        }
    }
    Ok(())
}
