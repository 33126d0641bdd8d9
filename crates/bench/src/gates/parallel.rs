//! Parallel-execution gate: morsel-driven workers vs serial.

use crate::plumbing::{md_table, median};
use crate::registry::{Env, Outcome};
use crate::Workload;
use mylite::MySqlOptimizer;
use taurus_workloads::Scale;

/// One parallel microbench template measured serial vs parallel.
#[derive(Debug, Clone)]
pub struct ParallelMeasurement {
    pub name: &'static str,
    /// Serial work units (dop 1).
    pub serial_work: u64,
    /// Parallel critical-path work units (slowest worker per fragment).
    pub parallel_critical: u64,
    /// Rows returned (serial == parallel enforced separately).
    pub rows: usize,
    /// Parallel rows byte-identical to serial, in order.
    pub rows_match: bool,
    /// The parallel plan actually placed an exchange.
    pub exchanged: bool,
}

impl ParallelMeasurement {
    /// Machine-independent speedup: serial work over the parallel critical
    /// path. Wall clock would measure the container's core count; this
    /// measures the plan's parallelism.
    pub fn speedup(&self) -> f64 {
        self.serial_work as f64 / self.parallel_critical.max(1) as f64
    }
}

/// The morsel-driven parallel execution report (`harness parallel`).
#[derive(Debug, Clone)]
pub struct ParallelReport {
    pub dop: usize,
    pub per_template: Vec<ParallelMeasurement>,
}

impl ParallelReport {
    pub fn median_speedup(&self) -> f64 {
        median(self.per_template.iter().map(|m| m.speedup())).unwrap_or(0.0)
    }

    /// The CI gate: every template must return identical rows and place its
    /// exchange, and the median critical-path speedup at this dop must
    /// reach 2× — the acceptance bar for the parallel subsystem.
    pub fn gate(&self) -> std::result::Result<(), String> {
        for m in &self.per_template {
            if !m.rows_match {
                return Err(format!("{}: parallel rows diverged from serial", m.name));
            }
            if !m.exchanged {
                return Err(format!("{}: no exchange was placed (plan stayed serial)", m.name));
            }
        }
        let median = self.median_speedup();
        if median < 2.0 {
            return Err(format!(
                "median critical-path speedup {median:.2}x < 2.0x at dop={}",
                self.dop
            ));
        }
        Ok(())
    }
}

/// The scan/join/agg microbench templates the parallel gate runs on. All
/// drive `lineitem`, the workload's biggest table, so morsel-parallelism
/// has work to split.
fn parallel_templates() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "scan-filter",
            "SELECT l_orderkey, l_quantity, l_extendedprice FROM lineitem \
             WHERE l_quantity > 10 AND l_discount < 0.09",
        ),
        (
            "hash-join",
            "SELECT l_orderkey, l_quantity, o_orderdate FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND l_quantity > 20",
        ),
        (
            "group-agg",
            "SELECT l_returnflag, l_linestatus, COUNT(*) AS n, SUM(l_quantity) AS qty \
             FROM lineitem GROUP BY l_returnflag, l_linestatus \
             ORDER BY l_returnflag, l_linestatus",
        ),
        (
            "sort-merge",
            "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity > 30 \
             ORDER BY l_extendedprice DESC, l_orderkey",
        ),
    ]
}

/// Run the parallel microbench: each template serial, then at `dop`, with
/// the placement threshold and morsel size lowered so small bench scales
/// still split into enough morsels per worker.
pub fn run_parallel(scale: Scale, dop: usize) -> ParallelReport {
    let engine = Workload::TpcH.build_engine(scale);
    engine.set_parallel_threshold(8);
    engine.set_morsel_rows(64);
    let mut per_template = Vec::new();
    for (name, sql) in parallel_templates() {
        engine.set_dop(1);
        let serial = engine.query(sql).expect(name);
        engine.set_dop(dop);
        let parallel = engine.query(sql).expect(name);
        let planned = engine.plan(sql, &MySqlOptimizer).expect(name);
        let exchanged = format!("{:?}", planned.primary().plan).contains("Exchange");
        per_template.push(ParallelMeasurement {
            name,
            serial_work: serial.work_units,
            parallel_critical: parallel.critical_work_units,
            rows: serial.rows.len(),
            rows_match: serial.rows == parallel.rows,
            exchanged,
        });
    }
    ParallelReport { dop, per_template }
}

/// Format the parallel report as markdown (the `harness parallel` body).
pub fn format_parallel_report(r: &ParallelReport) -> String {
    let table = md_table(
        &format!(
            "template | rows | serial work | critical path (dop={}) | speedup | identical",
            r.dop
        ),
        r.per_template.iter().map(|m| {
            format!(
                "{} | {} | {} | {} | {:.2}× | {}",
                m.name,
                m.rows,
                m.serial_work,
                m.parallel_critical,
                m.speedup(),
                m.rows_match
            )
        }),
    );
    format!("{table}\nmedian critical-path speedup: {:.2}×\n", r.median_speedup())
}

/// The registry entry.
pub fn run(env: &Env) -> Outcome {
    let r = run_parallel(env.scale, 4);
    Outcome::gated(
        format_parallel_report(&r),
        r.gate(),
        "identical rows, every template exchanged, ≥2x median critical-path speedup",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_the_four_microbench_templates() {
        let r = run_parallel(Scale(0.02), 4);
        assert_eq!(r.per_template.len(), 4);
        let table = format_parallel_report(&r);
        assert!(table.contains("median critical-path speedup"), "{table}");
    }
}
