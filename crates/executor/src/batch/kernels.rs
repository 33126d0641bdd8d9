//! Batch kernels: compiled predicates over column vectors, and the
//! needed-column analysis that lets scans skip transposing columns no
//! ancestor reads.
//!
//! Every kernel mirrors the row path's semantics exactly — comparisons go
//! through the same `Value::sql_cmp` truth table (NULL ⇒ UNKNOWN ⇒ row
//! filtered, mixed numerics coerce to f64, incomparable types are UNKNOWN),
//! and anything outside the compiled fast paths drops to the row path's own
//! expression interpreter over a scratch row. That equivalence-by-
//! construction is what the row-vs-batch fuzzer oracle checks end to end.

use std::cmp::Ordering;

use taurus_common::error::Result;
use taurus_common::expr::UnOp;
use taurus_common::{BinOp, Expr, Value};

use crate::exec::Env;
use crate::plan::RowSpace;

use super::{Batch, Col};

/// One compiled conjunct of a filter.
pub(crate) enum Pred<'e> {
    /// `col <op> constant` (or the mirrored form) with a comparison
    /// operator: runs as a typed per-column loop.
    CmpConst { col: usize, op: BinOp, lit: &'e Value },
    /// `col IS [NOT] NULL`: a validity-bitmap scan.
    IsNull { col: usize, negated: bool },
    /// Everything else: evaluated per row by the expression interpreter,
    /// exactly as the row path would.
    General(&'e Expr),
}

/// Resolve an expression to a position in the operator's own row, when it
/// is a direct column/slot reference.
pub(crate) fn col_of(e: &Expr, space: &RowSpace) -> Option<usize> {
    match (e, space) {
        (Expr::Column(cr), RowSpace::Tables(l)) => l.slot(cr.table, cr.col),
        (Expr::Slot(i), RowSpace::Slots(w)) => (*i < *w).then_some(*i),
        _ => None,
    }
}

fn lit_of(e: &Expr) -> Option<&Value> {
    match e {
        Expr::Literal(v) => Some(v),
        Expr::Param { value, .. } => Some(value),
        _ => None,
    }
}

/// Compile one conjunct against the operator's row space.
pub(crate) fn compile_pred<'e>(e: &'e Expr, space: &RowSpace) -> Pred<'e> {
    match e {
        Expr::Binary { op, left, right } if op.is_comparison() => {
            if let (Some(col), Some(lit)) = (col_of(left, space), lit_of(right)) {
                return Pred::CmpConst { col, op: *op, lit };
            }
            // `lit op col` commutes to `col op' lit`.
            if let (Some(lit), Some(col)) = (lit_of(left), col_of(right, space)) {
                if let Some(op) = op.commutator() {
                    return Pred::CmpConst { col, op, lit };
                }
            }
            Pred::General(e)
        }
        Expr::Unary { op: UnOp::IsNull, input } => match col_of(input, space) {
            Some(col) => Pred::IsNull { col, negated: false },
            None => Pred::General(e),
        },
        Expr::Unary { op: UnOp::IsNotNull, input } => match col_of(input, space) {
            Some(col) => Pred::IsNull { col, negated: true },
            None => Pred::General(e),
        },
        _ => Pred::General(e),
    }
}

/// Whether a comparison outcome lets a row through. `None` (either side
/// NULL, incomparable types, NaN) is UNKNOWN and never passes — the same
/// rule as `Value::is_true` over a comparison result.
#[inline]
pub(crate) fn cmp_holds(ord: Option<Ordering>, op: BinOp) -> bool {
    let Some(o) = ord else { return false };
    match op {
        BinOp::Eq => o == Ordering::Equal,
        BinOp::Ne => o != Ordering::Equal,
        BinOp::Lt => o == Ordering::Less,
        BinOp::Le => o != Ordering::Greater,
        BinOp::Gt => o == Ordering::Greater,
        BinOp::Ge => o != Ordering::Less,
        _ => false,
    }
}

/// Evaluate one compiled conjunct against a materialized row (the scan
/// prefilter path: predicates run on borrowed heap rows *before* survivors
/// are transposed into columns).
#[inline]
pub(crate) fn pred_passes_row(pred: &Pred<'_>, row: &[Value], env: &Env) -> Result<bool> {
    match pred {
        Pred::CmpConst { col, op, lit } => Ok(cmp_holds(row[*col].sql_cmp(lit), *op)),
        Pred::IsNull { col, negated } => Ok(row[*col].is_null() != *negated),
        Pred::General(e) => env.holds(e, row),
    }
}

/// Refine a batch's selection vector by one compiled conjunct. Typed
/// columns run hoisted per-column loops; everything else goes through the
/// generic `sql_cmp` on materialized values.
pub(crate) fn refine(
    batch: &mut Batch,
    pred: &Pred<'_>,
    env: &Env,
    scratch: &mut Vec<Value>,
) -> Result<()> {
    let n = batch.num_rows();
    let mut out: Vec<u32> = Vec::with_capacity(n);
    {
        // Logical-row iteration: either the current selection or 0..len.
        let sel = batch.sel.as_deref();
        let phys = |i: usize| -> usize {
            match sel {
                Some(s) => s[i] as usize,
                None => i,
            }
        };
        match pred {
            Pred::CmpConst { col, op, lit } => {
                refine_cmp(&batch.cols[*col], *op, lit, n, phys, &mut out);
            }
            Pred::IsNull { col, negated } => {
                let c = &batch.cols[*col];
                for i in 0..n {
                    let p = phys(i);
                    if c.is_null(p) != *negated {
                        out.push(p as u32);
                    }
                }
            }
            Pred::General(e) => {
                for i in 0..n {
                    let p = phys(i);
                    batch.write_row(p, scratch);
                    if env.holds(e, scratch)? {
                        out.push(p as u32);
                    }
                }
            }
        }
    }
    batch.sel = Some(out);
    Ok(())
}

/// The typed comparison loops. Each arm hoists the constant and the column
/// vector once, then runs a branch-light loop over the selection.
fn refine_cmp(
    c: &Col,
    op: BinOp,
    lit: &Value,
    n: usize,
    phys: impl Fn(usize) -> usize,
    out: &mut Vec<u32>,
) {
    // A NULL constant makes every comparison UNKNOWN: nothing passes.
    if lit.is_null() {
        return;
    }
    match (c, lit) {
        (Col::Int { data, valid }, Value::Int(b)) => {
            let b = *b;
            for i in 0..n {
                let p = phys(i);
                if valid.get(p) && cmp_holds(Some(data[p].cmp(&b)), op) {
                    out.push(p as u32);
                }
            }
        }
        // Mixed numerics coerce to f64, mirroring sql_cmp's fallback arm.
        (Col::Int { data, valid }, _) if lit.as_f64().is_some() => {
            let b = lit.as_f64().unwrap_or(0.0);
            for i in 0..n {
                let p = phys(i);
                if valid.get(p) && cmp_holds((data[p] as f64).partial_cmp(&b), op) {
                    out.push(p as u32);
                }
            }
        }
        (Col::Double { data, valid }, _) if lit.as_f64().is_some() => {
            let b = lit.as_f64().unwrap_or(0.0);
            for i in 0..n {
                let p = phys(i);
                if valid.get(p) && cmp_holds(data[p].partial_cmp(&b), op) {
                    out.push(p as u32);
                }
            }
        }
        (Col::Date { data, valid }, Value::Date(b)) => {
            let b = *b;
            for i in 0..n {
                let p = phys(i);
                if valid.get(p) && cmp_holds(Some(data[p].cmp(&b)), op) {
                    out.push(p as u32);
                }
            }
        }
        (Col::Str { data, valid }, Value::Str(b)) => {
            let b = b.as_ref();
            for i in 0..n {
                let p = phys(i);
                if valid.get(p) && cmp_holds(Some(data[p].as_ref().cmp(b)), op) {
                    out.push(p as u32);
                }
            }
        }
        // Anything else — Vals columns, cross-type pairs like Str-vs-Int or
        // Date-vs-Int — materializes per value and asks sql_cmp itself.
        _ => {
            for i in 0..n {
                let p = phys(i);
                if cmp_holds(c.value(p).sql_cmp(lit), op) {
                    out.push(p as u32);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Needed-column analysis
// ---------------------------------------------------------------------

/// Collect every row position `exprs` reads into `mask` (sized to the
/// space's width). Returns `false` — meaning "could not prove the read
/// set, do not prune" — on any reference the space cannot resolve.
pub(crate) fn collect_refs(exprs: &[&Expr], space: &RowSpace, mask: &mut [bool]) -> bool {
    exprs.iter().all(|e| collect_expr(e, space, mask))
}

fn collect_expr(e: &Expr, space: &RowSpace, mask: &mut [bool]) -> bool {
    match e {
        Expr::Column(_) | Expr::Slot(_) => match col_of(e, space) {
            Some(i) => {
                mask[i] = true;
                true
            }
            None => false,
        },
        Expr::Literal(_) | Expr::Param { .. } => true,
        Expr::Binary { left, right, .. } => {
            collect_expr(left, space, mask) && collect_expr(right, space, mask)
        }
        Expr::Unary { input, .. } => collect_expr(input, space, mask),
        Expr::Func { args, .. } => args.iter().all(|a| collect_expr(a, space, mask)),
        Expr::Case { operand, branches, else_ } => {
            operand.as_deref().is_none_or(|o| collect_expr(o, space, mask))
                && branches
                    .iter()
                    .all(|(c, r)| collect_expr(c, space, mask) && collect_expr(r, space, mask))
                && else_.as_deref().is_none_or(|o| collect_expr(o, space, mask))
        }
        Expr::InList { expr, list, .. } => {
            collect_expr(expr, space, mask) && list.iter().all(|i| collect_expr(i, space, mask))
        }
        Expr::Like { expr, pattern, .. } => {
            collect_expr(expr, space, mask) && collect_expr(pattern, space, mask)
        }
        Expr::Between { expr, low, high, .. } => {
            collect_expr(expr, space, mask)
                && collect_expr(low, space, mask)
                && collect_expr(high, space, mask)
        }
        Expr::Agg { arg, .. } => arg.as_deref().is_none_or(|a| collect_expr(a, space, mask)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::rows_to_batch;
    use crate::exec::{Binding, Env};
    use taurus_common::{Layout, Row};

    fn table_space() -> RowSpace {
        RowSpace::Tables(Layout::single(1, 0, 2))
    }

    /// An unbound environment; `unbound` is the empty binding's layout.
    fn env_for<'a>(space: &RowSpace, unbound: &'a Layout) -> Env<'a> {
        Env::new(Binding { row: &[], layout: unbound }, space, 1)
    }

    fn sample() -> Vec<Row> {
        vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Null, Value::str("b")],
            vec![Value::Int(3), Value::Null],
            vec![Value::Int(4), Value::str("d")],
        ]
    }

    fn selected(batch: &Batch) -> Vec<usize> {
        (0..batch.num_rows()).map(|i| batch.phys(i)).collect()
    }

    #[test]
    fn typed_cmp_refine_excludes_nulls() {
        let space = table_space();
        let unbound = Layout::empty(1);
        let env = env_for(&space, &unbound);
        let mut batch = rows_to_batch(&sample(), 2);
        let e = Expr::binary(BinOp::Ge, Expr::col(0, 0), Expr::int(3));
        let pred = compile_pred(&e, &space);
        assert!(matches!(pred, Pred::CmpConst { col: 0, op: BinOp::Ge, .. }));
        refine(&mut batch, &pred, &env, &mut Vec::new()).unwrap();
        assert_eq!(selected(&batch), vec![2, 3], "NULL at row 1 is UNKNOWN, filtered");
    }

    #[test]
    fn mirrored_literal_comparison_commutes() {
        let space = table_space();
        let unbound = Layout::empty(1);
        let env = env_for(&space, &unbound);
        let mut batch = rows_to_batch(&sample(), 2);
        // 3 > col ≡ col < 3.
        let e = Expr::binary(BinOp::Gt, Expr::int(3), Expr::col(0, 0));
        let pred = compile_pred(&e, &space);
        assert!(matches!(pred, Pred::CmpConst { col: 0, op: BinOp::Lt, .. }));
        refine(&mut batch, &pred, &env, &mut Vec::new()).unwrap();
        assert_eq!(selected(&batch), vec![0]);
    }

    #[test]
    fn mixed_int_double_comparison_coerces() {
        let space = table_space();
        let unbound = Layout::empty(1);
        let env = env_for(&space, &unbound);
        let mut batch = rows_to_batch(&sample(), 2);
        let e = Expr::binary(BinOp::Gt, Expr::col(0, 0), Expr::lit(Value::Double(2.5)));
        let pred = compile_pred(&e, &space);
        refine(&mut batch, &pred, &env, &mut Vec::new()).unwrap();
        assert_eq!(selected(&batch), vec![2, 3]);
    }

    #[test]
    fn is_null_scans_validity() {
        let space = table_space();
        let unbound = Layout::empty(1);
        let env = env_for(&space, &unbound);
        let mut batch = rows_to_batch(&sample(), 2);
        let e = Expr::Unary { op: UnOp::IsNull, input: Box::new(Expr::col(0, 1)) };
        let pred = compile_pred(&e, &space);
        refine(&mut batch, &pred, &env, &mut Vec::new()).unwrap();
        assert_eq!(selected(&batch), vec![2]);
    }

    #[test]
    fn refine_composes_over_existing_selection() {
        let space = table_space();
        let unbound = Layout::empty(1);
        let env = env_for(&space, &unbound);
        let mut batch = rows_to_batch(&sample(), 2);
        batch.sel = Some(vec![0, 2, 3]);
        let e = Expr::binary(BinOp::Le, Expr::col(0, 0), Expr::int(3));
        let pred = compile_pred(&e, &space);
        refine(&mut batch, &pred, &env, &mut Vec::new()).unwrap();
        assert_eq!(selected(&batch), vec![0, 2]);
    }

    #[test]
    fn null_literal_filters_everything() {
        let space = table_space();
        let unbound = Layout::empty(1);
        let env = env_for(&space, &unbound);
        let mut batch = rows_to_batch(&sample(), 2);
        let e = Expr::binary(BinOp::Eq, Expr::col(0, 0), Expr::lit(Value::Null));
        let pred = compile_pred(&e, &space);
        refine(&mut batch, &pred, &env, &mut Vec::new()).unwrap();
        assert_eq!(batch.num_rows(), 0);
    }

    #[test]
    fn general_predicate_matches_interpreter() {
        let space = table_space();
        let unbound = Layout::empty(1);
        let env = env_for(&space, &unbound);
        let mut batch = rows_to_batch(&sample(), 2);
        // col0 + 1 >= 4 is not a compiled shape: scratch-row fallback.
        let e = Expr::binary(
            BinOp::Ge,
            Expr::binary(BinOp::Add, Expr::col(0, 0), Expr::int(1)),
            Expr::int(4),
        );
        let pred = compile_pred(&e, &space);
        assert!(matches!(pred, Pred::General(_)));
        refine(&mut batch, &pred, &env, &mut Vec::new()).unwrap();
        assert_eq!(selected(&batch), vec![2, 3]);
    }

    #[test]
    fn collect_refs_finds_read_set() {
        let space = table_space();
        let mut mask = vec![false; 2];
        let e = Expr::binary(BinOp::Gt, Expr::col(0, 1), Expr::int(3));
        assert!(collect_refs(&[&e], &space, &mut mask));
        assert_eq!(mask, vec![false, true]);
        // A reference outside the space refuses to prune.
        let bad = Expr::col(7, 0);
        assert!(!collect_refs(&[&bad], &space, &mut [false; 2]));
    }
}
