//! Shared cardinality estimation.
//!
//! Both optimizers estimate from the *same* statistics — the paper "provided
//! the histograms as they existed inside MySQL" to Orca (§8) — so the
//! selectivity arithmetic lives here once. The MySQL-like optimizer calls it
//! directly; the Orca-like optimizer calls it through its metadata-accessor
//! snapshots. The formulas are the classic System-R family with
//! histogram-backed point/range estimates.

use crate::histogram::Histogram;
use crate::stats::TableStats;
use std::sync::Arc;
use taurus_common::expr::{eq_col_key, EvalCtx};
use taurus_common::{BinOp, ColRef, Expr, Layout, Value};

/// Default selectivity for an equality we cannot estimate.
pub const DEFAULT_EQ_SEL: f64 = 0.1;
/// Default selectivity for an inequality/range we cannot estimate.
pub const DEFAULT_RANGE_SEL: f64 = 1.0 / 3.0;
/// Row count assumed for relations with no statistics.
pub const DEFAULT_ROWS: f64 = 1000.0;

/// Statistics snapshot for one column of one query table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColView {
    pub ndv: f64,
    pub null_frac: f64,
    pub hist: Option<Arc<Histogram>>,
}

/// Statistics snapshot for one query table (base or derived).
#[derive(Debug, Clone)]
pub struct RelView {
    pub rows: f64,
    /// One entry per column; `None` when the column is unknown (derived
    /// tables expose estimated row counts but usually no column stats).
    pub cols: Vec<Option<ColView>>,
}

impl RelView {
    /// A view with a row count but no column statistics.
    pub fn opaque(rows: f64, num_cols: usize) -> RelView {
        RelView { rows, cols: vec![None; num_cols] }
    }

    /// Build from analyzed table statistics.
    pub fn from_stats(stats: &TableStats) -> RelView {
        let rows = stats.row_count as f64;
        let cols = stats
            .columns
            .iter()
            .map(|c| {
                Some(ColView {
                    ndv: c.ndv,
                    null_frac: c.null_fraction(stats.row_count),
                    hist: c.histogram.clone(),
                })
            })
            .collect();
        RelView { rows, cols }
    }
}

/// Estimator over the query's table list: index = query-table index.
#[derive(Debug, Clone, Default)]
pub struct Estimator {
    rels: Vec<Option<RelView>>,
}

impl Estimator {
    pub fn new(rels: Vec<Option<RelView>>) -> Estimator {
        Estimator { rels }
    }

    /// Row count of a query table (defaulting when unknown).
    pub fn rows(&self, qt: usize) -> f64 {
        self.rels.get(qt).and_then(|r| r.as_ref()).map(|r| r.rows).unwrap_or(DEFAULT_ROWS).max(1.0)
    }

    fn col(&self, c: ColRef) -> Option<&ColView> {
        self.rels.get(c.table)?.as_ref()?.cols.get(c.col)?.as_ref()
    }

    /// NDV of a column, defaulting to 10% of its table's rows.
    pub fn ndv(&self, c: ColRef) -> f64 {
        self.col(c).map(|v| v.ndv).unwrap_or_else(|| (self.rows(c.table) * 0.1).max(1.0)).max(1.0)
    }

    /// Distinct-combination cap for `qt`'s side of the equality join keys in
    /// `conds`: the product of its bare-column key NDVs, ∞ when no bare-
    /// column equality exists. A semi join matches at most once per distinct
    /// key combination, so its inner row count caps here.
    pub fn eq_ndv_cap<'e>(&self, conds: impl IntoIterator<Item = &'e Expr>, qt: usize) -> f64 {
        let mut cap = f64::INFINITY;
        for (col, _) in conds.into_iter().filter_map(|c| eq_col_key(c, qt)) {
            let n = self.ndv(ColRef { table: qt, col }).max(1.0);
            cap = if cap.is_finite() { cap * n } else { n };
        }
        cap
    }

    /// Fraction of rows where the tested expression is non-NULL; 1.0 when
    /// unknowable (no stats, or not a bare column). NULLs satisfy neither a
    /// predicate nor its negation, so negated forms subtract from this
    /// rather than from 1.
    fn non_null_of(&self, e: &Expr) -> f64 {
        match e {
            Expr::Column(c) => 1.0 - self.col(*c).map(|v| v.null_frac).unwrap_or(0.0),
            _ => 1.0,
        }
    }

    /// Selectivity of an arbitrary predicate, in [0, 1].
    ///
    /// Handles boolean combinations, histogram-backed comparisons against
    /// constants, column-to-column equalities (join selectivity), `IN`,
    /// `LIKE`, `BETWEEN`, and `IS [NOT] NULL`; anything else falls back to
    /// defaults.
    pub fn selectivity(&self, e: &Expr) -> f64 {
        self.sel(e).clamp(0.0, 1.0)
    }

    fn sel(&self, e: &Expr) -> f64 {
        match e {
            Expr::Literal(Value::Bool(b)) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Expr::Binary { op: BinOp::And, left, right } => self.sel(left) * self.sel(right),
            Expr::Binary { op: BinOp::Or, left, right } => {
                let (a, b) = (self.sel(left), self.sel(right));
                a + b - a * b
            }
            Expr::Unary { op: taurus_common::UnOp::Not, input } => 1.0 - self.sel(input),
            Expr::Unary { op: taurus_common::UnOp::IsNull, input } => match input.as_ref() {
                Expr::Column(c) => self.col(*c).map(|v| v.null_frac).unwrap_or(0.05),
                _ => 0.05,
            },
            Expr::Unary { op: taurus_common::UnOp::IsNotNull, input } => match input.as_ref() {
                Expr::Column(c) => 1.0 - self.col(*c).map(|v| v.null_frac).unwrap_or(0.05),
                _ => 0.95,
            },
            Expr::Binary { op, left, right } if op.is_comparison() => {
                self.comparison_sel(*op, left, right)
            }
            Expr::InList { expr, list, negated } => {
                let mut s = 0.0;
                for item in list {
                    s += self.comparison_sel(BinOp::Eq, expr, item);
                }
                let s = s.min(1.0);
                if *negated {
                    // NULL probes match neither IN nor NOT IN.
                    (self.non_null_of(expr) - s).max(0.0)
                } else {
                    s
                }
            }
            Expr::Like { expr, pattern, negated } => {
                // A leading literal prefix constrains a range; a leading
                // wildcard is near-unestimatable (paper §6.1 on Q16's LIKE).
                let s = match const_value(pattern) {
                    Some(Value::Str(p)) if !p.starts_with('%') && !p.starts_with('_') => 0.05,
                    _ => DEFAULT_EQ_SEL,
                };
                if *negated {
                    // A NULL string is neither LIKE nor NOT LIKE the pattern.
                    (self.non_null_of(expr) - s).max(0.0)
                } else {
                    s
                }
            }
            Expr::Between { expr, low, high, negated } => {
                // Histograms cover non-null rows only; scale to the whole
                // table like `col_vs_const` does.
                let non_null = self.non_null_of(expr);
                let s = match (expr.as_ref(), const_value(low), const_value(high)) {
                    (Expr::Column(c), Some(lo), Some(hi)) => match self.col(*c) {
                        Some(v) => match &v.hist {
                            Some(h) => {
                                h.range_selectivity(Some((&lo, true)), Some((&hi, true))) * non_null
                            }
                            None => DEFAULT_RANGE_SEL,
                        },
                        None => DEFAULT_RANGE_SEL,
                    },
                    _ => DEFAULT_RANGE_SEL,
                };
                if *negated {
                    (non_null - s).max(0.0)
                } else {
                    s
                }
            }
            _ => DEFAULT_EQ_SEL,
        }
    }

    fn comparison_sel(&self, op: BinOp, left: &Expr, right: &Expr) -> f64 {
        // Normalize: column on the left when possible (commutation, §5.3).
        match (left, right) {
            (Expr::Column(l), Expr::Column(r)) => {
                if op == BinOp::Eq {
                    // Equi-join selectivity: 1 / max(ndv).
                    1.0 / self.ndv(*l).max(self.ndv(*r))
                } else if op == BinOp::Ne {
                    // A NULL on either side satisfies neither `=` nor `<>`,
                    // so the complement only covers rows non-null on both.
                    let non_null = self.non_null_of(left) * self.non_null_of(right);
                    (1.0 - 1.0 / self.ndv(*l).max(self.ndv(*r))) * non_null
                } else {
                    DEFAULT_RANGE_SEL
                }
            }
            (Expr::Column(c), rhs) => match const_value(rhs) {
                Some(v) => self.col_vs_const(*c, op, &v),
                None => default_for(op),
            },
            (lhs, Expr::Column(c)) => match (const_value(lhs), op.commutator()) {
                (Some(v), Some(flipped)) => self.col_vs_const(*c, flipped, &v),
                _ => default_for(op),
            },
            _ => default_for(op),
        }
    }

    fn col_vs_const(&self, c: ColRef, op: BinOp, v: &Value) -> f64 {
        if v.is_null() {
            return 0.0; // `col op NULL` is never true
        }
        match self.col(c) {
            Some(view) => {
                let non_null = 1.0 - view.null_frac;
                match &view.hist {
                    Some(h) => h.selectivity(op, v) * non_null,
                    None => {
                        (if op == BinOp::Eq { 1.0 / view.ndv.max(1.0) } else { default_for(op) })
                            * non_null
                    }
                }
            }
            None => default_for(op),
        }
    }

    /// Combined selectivity of a conjunction applied to an input of `rows`
    /// rows, floored at `1/rows` — the naive independence product drives
    /// stacked predicates toward zero rows, which then poisons everything
    /// downstream of the estimate (join costing treats the side as free,
    /// DOP selection sees no work worth parallelizing). At least one row is
    /// assumed to survive any predicate stack actually worth planning for.
    ///
    /// Range conjuncts bounding the *same histogrammed column* are merged
    /// into one interval before entering the product: `x >= a AND x < b` is
    /// one interval whose selectivity the histogram answers directly, not
    /// two independent filters. The independence product double-counts the
    /// restriction (`0.7 × 0.35` where the true interval holds `~0.05` of
    /// the rows — the TPC-DS q15 shape) and every join above the scan
    /// inherits the inflation.
    pub fn conjunct_selectivity(&self, conds: &[Expr], rows: f64) -> f64 {
        // Group range bounds per column; everything else multiplies as
        // before. Per column: the (table, col) key, the non-null fraction,
        // and every bounding conjunct with its range fraction.
        type RangeGroup<'a> = ((usize, usize), f64, Vec<(&'a Expr, RangeFrac)>);
        let mut groups: Vec<RangeGroup> = Vec::new();
        let mut product = 1.0f64;
        for c in conds {
            match self.range_frac(c) {
                Some((key, non_null, rf)) => match groups.iter_mut().find(|g| g.0 == key) {
                    Some(g) => g.2.push((c, rf)),
                    None => groups.push((key, non_null, vec![(c, rf)])),
                },
                None => product *= self.selectivity(c),
            }
        }
        for (_, non_null, fracs) in groups {
            if let [(e, _)] = fracs.as_slice() {
                // A lone bound estimates exactly as the per-predicate path.
                product *= self.selectivity(e);
                continue;
            }
            // Tightest lower and upper bound, as fractions of the non-null
            // rows at-or-above / at-or-below each bound. Their intersection
            // over the shared domain is `lo + hi - 1` (the union covers the
            // whole domain whenever the interval is non-empty).
            let (mut lo, mut hi) = (1.0f64, 1.0f64);
            for (_, rf) in fracs {
                match rf {
                    RangeFrac::Lower(l) => lo = lo.min(l),
                    RangeFrac::Upper(h) => hi = hi.min(h),
                    RangeFrac::Both(l, h) => {
                        lo = lo.min(l);
                        hi = hi.min(h);
                    }
                }
            }
            product *= (lo + hi - 1.0).max(0.0) * non_null;
        }
        let floor = 1.0 / rows.max(1.0);
        product.clamp(floor.min(1.0), 1.0)
    }

    /// Classify a conjunct as a constant range bound on a histogrammed
    /// column: returns the column key, its non-null fraction, and the
    /// fraction(s) of non-null rows satisfying the bound.
    fn range_frac(&self, e: &Expr) -> Option<((usize, usize), f64, RangeFrac)> {
        match e {
            Expr::Binary { op, left, right }
                if matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) =>
            {
                let (c, op, v) = match (left.as_ref(), right.as_ref()) {
                    (Expr::Column(c), rhs) => (c, *op, const_value(rhs)?),
                    (lhs, Expr::Column(c)) => (c, op.commutator()?, const_value(lhs)?),
                    _ => return None,
                };
                if v.is_null() {
                    return None;
                }
                let view = self.col(*c)?;
                let h = view.hist.as_ref()?;
                let frac = h.selectivity(op, &v);
                let rf = match op {
                    BinOp::Lt | BinOp::Le => RangeFrac::Upper(frac),
                    _ => RangeFrac::Lower(frac),
                };
                Some(((c.table, c.col), 1.0 - view.null_frac, rf))
            }
            Expr::Between { expr, low, high, negated: false } => {
                let Expr::Column(c) = expr.as_ref() else { return None };
                let (lo, hi) = (const_value(low)?, const_value(high)?);
                if lo.is_null() || hi.is_null() {
                    return None;
                }
                let view = self.col(*c)?;
                let h = view.hist.as_ref()?;
                Some((
                    (c.table, c.col),
                    1.0 - view.null_frac,
                    RangeFrac::Both(h.selectivity(BinOp::Ge, &lo), h.selectivity(BinOp::Le, &hi)),
                ))
            }
            _ => None,
        }
    }
}

/// A one- or two-sided range restriction as fractions of a column's
/// non-null rows.
enum RangeFrac {
    Lower(f64),
    Upper(f64),
    Both(f64, f64),
}

fn default_for(op: BinOp) -> f64 {
    match op {
        BinOp::Eq => DEFAULT_EQ_SEL,
        BinOp::Ne => 1.0 - DEFAULT_EQ_SEL,
        _ => DEFAULT_RANGE_SEL,
    }
}

/// Evaluate an expression to a constant if it references no columns.
pub fn const_value(e: &Expr) -> Option<Value> {
    if !e.is_const() {
        return None;
    }
    let layout = Layout::empty(0);
    e.eval(EvalCtx::new(&[], &layout)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::AnalyzeOptions;
    use taurus_common::{Column, DataType, Schema};
    use taurus_storage::TableData;

    /// One table, qt 0: col 0 uniform ints 0..999, col 1 has 50% nulls.
    fn estimator() -> Estimator {
        let mut t = TableData::new(Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::nullable("b", DataType::Int),
        ]));
        for i in 0..1000i64 {
            let b = if i % 2 == 0 { Value::Null } else { Value::Int(i % 10) };
            t.push(vec![Value::Int(i), b]).unwrap();
        }
        let stats = TableStats::analyze(&t, &[false, false], &AnalyzeOptions::default());
        Estimator::new(vec![Some(RelView::from_stats(&stats))])
    }

    #[test]
    fn histogram_backed_range() {
        let est = estimator();
        let e = Expr::binary(BinOp::Lt, Expr::col(0, 0), Expr::int(250));
        let s = est.selectivity(&e);
        assert!((s - 0.25).abs() < 0.03, "s={s}");
        // Constant on the left commutes.
        let e = Expr::binary(BinOp::Gt, Expr::int(250), Expr::col(0, 0));
        assert!((est.selectivity(&e) - s).abs() < 1e-9);
    }

    #[test]
    fn null_fraction_scales_estimates() {
        let est = estimator();
        let is_null =
            Expr::Unary { op: taurus_common::UnOp::IsNull, input: Box::new(Expr::col(0, 1)) };
        assert!((est.selectivity(&is_null) - 0.5).abs() < 0.01);
        // b = 3 can only match among the non-null half; the non-null values
        // are {1,3,5,7,9} uniformly, so sel = 0.2 * 0.5 = 0.1.
        let eq = Expr::eq(Expr::col(0, 1), Expr::int(3));
        let s = est.selectivity(&eq);
        assert!((s - 0.1).abs() < 0.01, "s={s}");
    }

    #[test]
    fn boolean_combinations() {
        let est = estimator();
        let half = Expr::binary(BinOp::Lt, Expr::col(0, 0), Expr::int(500));
        let and = Expr::and(half.clone(), half.clone());
        assert!((est.selectivity(&and) - 0.25).abs() < 0.03);
        let or = Expr::or(half.clone(), half.clone());
        assert!((est.selectivity(&or) - 0.75).abs() < 0.03);
        let not = Expr::not(half);
        assert!((est.selectivity(&not) - 0.5).abs() < 0.03);
    }

    #[test]
    fn join_selectivity_uses_max_ndv() {
        let est = Estimator::new(vec![
            Some(RelView {
                rows: 1000.0,
                cols: vec![Some(ColView { ndv: 1000.0, null_frac: 0.0, hist: None })],
            }),
            Some(RelView {
                rows: 100.0,
                cols: vec![Some(ColView { ndv: 100.0, null_frac: 0.0, hist: None })],
            }),
        ]);
        let e = Expr::eq(Expr::col(0, 0), Expr::col(1, 0));
        assert!((est.selectivity(&e) - 0.001).abs() < 1e-9);
    }

    #[test]
    fn in_list_sums() {
        let est = estimator();
        let e = Expr::InList {
            expr: Box::new(Expr::col(0, 0)),
            list: vec![Expr::int(1), Expr::int(2), Expr::int(3)],
            negated: false,
        };
        let s = est.selectivity(&e);
        assert!((s - 0.003).abs() < 0.002, "s={s}");
    }

    #[test]
    fn unknown_rels_use_defaults() {
        let est = Estimator::new(vec![None]);
        assert_eq!(est.rows(0), DEFAULT_ROWS);
        assert_eq!(est.rows(7), DEFAULT_ROWS);
        let e = Expr::eq(Expr::col(0, 0), Expr::int(1));
        assert_eq!(est.selectivity(&e), DEFAULT_EQ_SEL);
    }

    #[test]
    fn like_prefix_vs_wildcard() {
        let est = estimator();
        let prefix = Expr::Like {
            expr: Box::new(Expr::col(0, 0)),
            pattern: Box::new(Expr::string("LARGE%")),
            negated: false,
        };
        let infix = Expr::Like {
            expr: Box::new(Expr::col(0, 0)),
            pattern: Box::new(Expr::string("%Complaints%")),
            negated: false,
        };
        assert!(est.selectivity(&prefix) < est.selectivity(&infix));
    }

    #[test]
    fn ne_join_selectivity_scales_by_null_fractions() {
        let est = Estimator::new(vec![
            Some(RelView {
                rows: 1000.0,
                cols: vec![Some(ColView { ndv: 100.0, null_frac: 0.2, hist: None })],
            }),
            Some(RelView {
                rows: 1000.0,
                cols: vec![Some(ColView { ndv: 50.0, null_frac: 0.1, hist: None })],
            }),
        ]);
        let ne = Expr::binary(BinOp::Ne, Expr::col(0, 0), Expr::col(1, 0));
        // (1 - 1/100) * 0.8 * 0.9 — NULLs on either side satisfy neither
        // `=` nor `<>`.
        let s = est.selectivity(&ne);
        assert!((s - 0.99 * 0.8 * 0.9).abs() < 1e-9, "s={s}");
        // Eq + Ne no longer (incorrectly) partition the whole table when
        // nulls exist.
        let eq = Expr::eq(Expr::col(0, 0), Expr::col(1, 0));
        assert!(est.selectivity(&eq) + s < 1.0);
    }

    #[test]
    fn negated_predicates_exclude_null_rows() {
        let est = estimator(); // col 1: 50% NULL, non-null values {1,3,5,7,9}
        let not_in = Expr::InList {
            expr: Box::new(Expr::col(0, 1)),
            list: vec![Expr::int(3)],
            negated: true,
        };
        // non_null (0.5) minus sel(b = 3) (0.1), not 1 - 0.1.
        let s = est.selectivity(&not_in);
        assert!((s - 0.4).abs() < 0.02, "s={s}");
        let not_between = Expr::Between {
            expr: Box::new(Expr::col(0, 1)),
            low: Box::new(Expr::int(1)),
            high: Box::new(Expr::int(9)),
            negated: true,
        };
        // The whole non-null domain is inside [1, 9]: nothing qualifies.
        let s = est.selectivity(&not_between);
        assert!(s < 0.05, "s={s}");
        let not_like = Expr::Like {
            expr: Box::new(Expr::col(0, 1)),
            pattern: Box::new(Expr::string("x%")),
            negated: true,
        };
        let s = est.selectivity(&not_like);
        assert!((s - 0.45).abs() < 0.01, "s={s}");
    }

    #[test]
    fn params_estimate_like_literals() {
        let est = estimator();
        let lit = Expr::binary(BinOp::Lt, Expr::col(0, 0), Expr::int(250));
        let par = Expr::binary(BinOp::Lt, Expr::col(0, 0), Expr::param(0, Value::Int(250)));
        assert!((est.selectivity(&lit) - est.selectivity(&par)).abs() < 1e-12);
        let like = Expr::Like {
            expr: Box::new(Expr::col(0, 0)),
            pattern: Box::new(Expr::param(0, Value::str("LARGE%"))),
            negated: false,
        };
        assert!((est.selectivity(&like) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn conjunct_selectivity_floors_at_one_row() {
        // 1M-row relation, five stacked equality predicates on a 10-NDV
        // column: the independence product is 0.1^5 = 1e-5, which on 1e6
        // rows still means ~10 rows — fine. But stacking *five more* of the
        // same would claim 1e-10 (a 0.0001-row output); the floor keeps the
        // estimate at one surviving row: sel >= 1/rows.
        let est = Estimator::new(vec![Some(RelView {
            rows: 1_000_000.0,
            cols: vec![Some(ColView { ndv: 10.0, null_frac: 0.0, hist: None })],
        })]);
        let preds: Vec<Expr> = (0..5).map(|i| Expr::eq(Expr::col(0, 0), Expr::int(i))).collect();
        for p in &preds {
            assert!((est.selectivity(p) - 0.1).abs() < 1e-9);
        }
        let sel = est.conjunct_selectivity(&preds, 1_000_000.0);
        // Unfloored product would be 1e-5; with ten stacked it would cross
        // the floor. Verify both regimes.
        assert!((sel - 1e-5).abs() < 1e-12, "sel={sel}");
        let ten: Vec<Expr> = preds.iter().cloned().chain(preds.iter().cloned()).collect();
        let sel = est.conjunct_selectivity(&ten, 1_000_000.0);
        assert!((sel - 1e-6).abs() < 1e-15, "floored sel={sel}");
        // Degenerate inputs never panic or exceed [0, 1].
        assert_eq!(est.conjunct_selectivity(&[], 0.0), 1.0);
        let sel = est.conjunct_selectivity(&ten, 0.5);
        assert!((0.0..=1.0).contains(&sel));
    }

    #[test]
    fn comparisons_with_null_literal_never_match() {
        let est = estimator();
        let e = Expr::eq(Expr::col(0, 0), Expr::lit(Value::Null));
        assert_eq!(est.selectivity(&e), 0.0);
    }
}
