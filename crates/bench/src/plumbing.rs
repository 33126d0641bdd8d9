//! Plumbing every experiment shares: the row canonicaliser, the order
//! statistics, the markdown-table writer, and the "both workloads, every
//! template" testbeds.

use crate::Workload;
use mylite::engine::CostBasedOptimizer;
use mylite::Engine;
use orcalite::OrcaConfig;
use std::time::{Duration, Instant};
use taurus_bridge::OrcaOptimizer;
use taurus_common::{Row, Value};
use taurus_workloads::tpch::Query;
use taurus_workloads::Scale;

/// Canonical rendering of one row. `exact` keeps full double precision
/// (legal only when both sides run the same plan or the same per-row
/// arithmetic); cross-plan comparisons round to 4 decimals because
/// floating-point aggregation order differs legitimately between plan
/// shapes. `-0.0` renders as `0.0` in both modes: the two compare equal in
/// SQL, so which one a plan happens to produce is not a difference.
pub fn canon_row(row: &Row, exact: bool) -> String {
    let cell = |v: &Value| match v {
        Value::Double(d) => {
            let d = if *d == 0.0 { 0.0 } else { *d };
            if exact {
                format!("D{d:?}")
            } else {
                format!("D{d:.4}")
            }
        }
        other => format!("{other:?}"),
    };
    row.iter().map(cell).collect::<Vec<_>>().join("|")
}

/// The sorted multiset of [`canon_row`] renderings — what two runs of one
/// query are compared on when their row order is not part of the contract.
pub fn canon_rows(rows: &[Row], exact: bool) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| canon_row(r, exact)).collect();
    v.sort();
    v
}

/// The value at quantile `q` of `values` (nearest rank over the sorted
/// values), or `None` when there are none.
pub fn percentile<T: PartialOrd + Copy>(values: impl IntoIterator<Item = T>, q: f64) -> Option<T> {
    let mut v: Vec<T> = values.into_iter().collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (v.len().checked_sub(1)? as f64 * q).round() as usize;
    v.get(rank).copied()
}

/// The median (the upper one of an even count).
pub fn median<T: PartialOrd + Copy>(values: impl IntoIterator<Item = T>) -> Option<T> {
    percentile(values, 0.5)
}

/// A markdown table. `columns` and every row are their cells joined by
/// `" | "`; the outer bars and the separator line are added here.
pub fn md_table(columns: &str, rows: impl IntoIterator<Item = String>) -> String {
    let mut out = format!("| {columns} |\n|{}\n", "---|".repeat(columns.split(" | ").count()));
    for row in rows {
        out += &format!("| {row} |\n");
    }
    out
}

/// Median-of-`reps` timing of planning + executing `sql` under `opt`, and
/// the work units of the last run.
pub fn time_query(
    engine: &Engine,
    sql: &str,
    opt: &dyn CostBasedOptimizer,
    reps: usize,
) -> (Duration, u64) {
    let mut work = 0;
    let times: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            work = engine.query_with(sql, opt).expect("workload query must run").work_units;
            t.elapsed()
        })
        .collect();
    (median(times).expect("at least one rep"), work)
}

/// One workload set up for a template sweep: its engine, an Orca router at
/// the paper's complex-query threshold for that workload (default
/// configuration, EXHAUSTIVE2), and its query templates.
pub struct Testbed {
    pub workload: Workload,
    pub engine: Engine,
    pub orca: OrcaOptimizer,
    pub queries: Vec<Query>,
}

impl Testbed {
    pub fn new(workload: Workload, scale: Scale) -> Testbed {
        Testbed {
            workload,
            engine: workload.build_engine(scale),
            orca: OrcaOptimizer::new(OrcaConfig::default(), workload.threshold()),
            queries: workload.queries(),
        }
    }
}

/// Both workloads' testbeds, TPC-H first, with the exchange-placement knobs
/// lowered so that runs at dop > 1 actually parallelize at bench scales
/// (serial runs are unaffected).
pub fn testbeds(scale: Scale) -> Vec<Testbed> {
    [Workload::TpcH, Workload::TpcDs]
        .into_iter()
        .map(|w| {
            let bed = Testbed::new(w, scale);
            bed.engine.set_parallel_threshold(8);
            bed.engine.set_morsel_rows(64);
            bed
        })
        .collect()
}

/// Sweep every template of both workloads (see [`testbeds`]) through `f`.
pub fn for_each_template(scale: Scale, mut f: impl FnMut(&Testbed, &Query)) {
    for bed in testbeds(scale) {
        for q in &bed.queries {
            f(&bed, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canon_rows_pins_negative_zero_and_exact_precision() {
        let rows = vec![
            vec![Value::Int(2), Value::Double(-0.0)],
            vec![Value::Int(1), Value::Double(0.123456789)],
        ];
        // Sorted; -0.0 prints as 0.0 in both modes (two of the four copies
        // this function replaced did not normalise it).
        assert_eq!(canon_rows(&rows, false), ["Int(1)|D0.1235", "Int(2)|D0.0000"]);
        assert_eq!(canon_rows(&rows, true), ["Int(1)|D0.123456789", "Int(2)|D0.0"]);
        // Exact mode separates doubles the rounded mode merges.
        let near = [vec![Value::Double(1.00001)], vec![Value::Double(1.00002)]];
        assert_eq!(canon_rows(&near[..1], false), canon_rows(&near[1..], false));
        assert_ne!(canon_rows(&near[..1], true), canon_rows(&near[1..], true));
    }

    #[test]
    fn median_is_the_upper_middle_and_percentile_is_nearest_rank() {
        assert_eq!(median([3, 1, 2]), Some(2));
        assert_eq!(median([4.0, 1.0, 3.0, 2.0]), Some(3.0));
        assert_eq!(median(Vec::<u64>::new()), None);
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(v.iter().copied(), 0.99), Some(99));
        assert_eq!(percentile(v.iter().copied(), 1.0), Some(100));
    }

    #[test]
    fn md_table_writes_header_separator_and_rows() {
        let t = md_table("a | b", ["1 | x".to_string()]);
        assert_eq!(t, "| a | b |\n|---|---|\n| 1 | x |\n");
    }
}
