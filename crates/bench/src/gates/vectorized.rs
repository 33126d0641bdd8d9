//! Vectorized-execution gate: serial row vs columnar batch engine.

use crate::plumbing::{md_table, median};
use crate::registry::{Env, Outcome};
use crate::Workload;
use mylite::{Engine, MySqlOptimizer};
use std::time::{Duration, Instant};
use taurus_workloads::Scale;

/// One vectorized microbench template: serial row vs serial batch vs
/// parallel batch, wall-clock medians over repeated executions of the
/// same compiled plan (planning is paid once, outside the timed loop).
#[derive(Debug, Clone)]
pub struct VectorizedMeasurement {
    pub name: &'static str,
    /// Rows returned (identical across engines enforced separately).
    pub rows: usize,
    /// Median wall time, serial row engine (ns).
    pub row_ns: u64,
    /// Median wall time, serial batch engine (ns).
    pub batch_ns: u64,
    /// Median wall time, batch engine at the report's dop (ns).
    pub batch_par_ns: u64,
    /// Serial batch rows byte-identical to serial row, in order.
    pub batch_match: bool,
    /// Parallel batch rows byte-identical to serial row, in order.
    pub batch_par_match: bool,
}

impl VectorizedMeasurement {
    /// Serial-row over serial-batch wall time: the pure vectorization win,
    /// no parallelism involved.
    pub fn speedup(&self) -> f64 {
        self.row_ns as f64 / self.batch_ns.max(1) as f64
    }

    /// Serial-row over parallel-batch wall time: vectorization × morsels.
    pub fn par_speedup(&self) -> f64 {
        self.row_ns as f64 / self.batch_par_ns.max(1) as f64
    }
}

/// The vectorized execution report (`harness vectorized`).
#[derive(Debug, Clone)]
pub struct VectorizedReport {
    pub dop: usize,
    pub reps: usize,
    pub per_template: Vec<VectorizedMeasurement>,
}

impl VectorizedReport {
    /// Median serial-batch speedup across templates.
    pub fn median_speedup(&self) -> f64 {
        median(self.per_template.iter().map(|m| m.speedup())).unwrap_or(0.0)
    }

    /// The ratio next to the median template's own serial row and serial
    /// batch times: the ratio alone cannot say which engine moved.
    pub fn speedup_line(&self) -> String {
        let ratio = self.median_speedup();
        let mut line = format!("median serial-batch speedup {ratio:.2}x");
        // `median` returns one of the values it was given.
        if let Some(m) = self.per_template.iter().find(|m| m.speedup() == ratio) {
            line += &format!(
                " ({}: serial row {:.3?}, serial batch {:.3?})",
                m.name,
                Duration::from_nanos(m.row_ns),
                Duration::from_nanos(m.batch_ns)
            );
        }
        line
    }

    /// The purity contract: both batch variants must return the serial row
    /// engine's bytes on every template.
    pub fn gate_identity(&self) -> std::result::Result<(), String> {
        for m in &self.per_template {
            if !m.batch_match {
                return Err(format!("{}: serial batch rows diverged from serial row", m.name));
            }
            if !m.batch_par_match {
                return Err(format!(
                    "{}: batch rows at dop={} diverged from serial row",
                    m.name, self.dop
                ));
            }
        }
        Ok(())
    }

    /// The CI gate: [`Self::gate_identity`], and the median serial-batch
    /// speedup must reach 2× — the acceptance bar for the columnar engine
    /// on its scan/filter/agg-heavy showcase templates.
    pub fn gate(&self) -> std::result::Result<(), String> {
        self.gate_identity()?;
        if self.median_speedup() < 2.0 {
            return Err(format!("{} < 2.0x", self.speedup_line()));
        }
        Ok(())
    }
}

/// The scan/filter/agg-heavy templates the vectorized gate runs on. All
/// are selective over `lineitem`: the batch scan prunes columns and
/// prefilters rows before transposing, so selective predicates are where
/// the columnar engine is designed to win (low-selectivity wide scans
/// roughly break even and are covered by the fuzzer, not this gate).
fn vectorized_templates() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "q6-filter-agg",
            "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
             WHERE l_discount >= 0.04 AND l_discount <= 0.06 AND l_quantity < 24",
        ),
        (
            "filter-project",
            "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity > 45",
        ),
        (
            "conjunct-scan",
            "SELECT l_orderkey, l_quantity, l_discount FROM lineitem \
             WHERE l_quantity > 40 AND l_discount < 0.03 AND l_extendedprice > 2000",
        ),
        (
            "scalar-minmax",
            "SELECT COUNT(*) AS n, MIN(l_extendedprice) AS lo, MAX(l_extendedprice) AS hi, \
             SUM(l_quantity) AS qty FROM lineitem WHERE l_discount > 0.07",
        ),
        (
            "grouped-selective",
            "SELECT l_returnflag, COUNT(*) AS n, SUM(l_extendedprice) AS total \
             FROM lineitem WHERE l_quantity > 45 GROUP BY l_returnflag ORDER BY l_returnflag",
        ),
    ]
}

/// Median wall time of `reps` executions of an already-compiled plan.
fn median_exec_ns(engine: &Engine, planned: &mylite::PlannedQuery, reps: usize) -> u64 {
    let run = |_| {
        let t = Instant::now();
        engine.execute_planned(planned).expect("timed run");
        t.elapsed().as_nanos() as u64
    };
    median((0..reps.max(1)).map(run)).expect("at least one rep")
}

/// Run the vectorized microbench: each template compiled once per plan
/// shape, then executed `reps` times per engine (serial row, serial
/// batch, batch at `dop`) with the median wall time reported. The knob is
/// execution-only, so the serial plan is shared by both serial engines;
/// only the parallel variant re-plans (exchange placement depends on dop).
pub fn run_vectorized(scale: Scale, dop: usize, reps: usize) -> VectorizedReport {
    let engine = Workload::TpcH.build_engine(scale);
    engine.set_parallel_threshold(8);
    engine.set_morsel_rows(256);
    let mut per_template = Vec::new();
    for (name, sql) in vectorized_templates() {
        engine.set_dop(1);
        engine.set_vectorized(false);
        let serial_plan = engine.plan(sql, &MySqlOptimizer).expect(name);
        let reference = engine.execute_planned(&serial_plan).expect(name);
        let row_ns = median_exec_ns(&engine, &serial_plan, reps);

        engine.set_vectorized(true);
        let batch_out = engine.execute_planned(&serial_plan).expect(name);
        let batch_ns = median_exec_ns(&engine, &serial_plan, reps);

        engine.set_dop(dop);
        let par_plan = engine.plan(sql, &MySqlOptimizer).expect(name);
        let par_out = engine.execute_planned(&par_plan).expect(name);
        let batch_par_ns = median_exec_ns(&engine, &par_plan, reps);

        engine.set_dop(1);
        engine.set_vectorized(false);
        per_template.push(VectorizedMeasurement {
            name,
            rows: reference.rows.len(),
            row_ns,
            batch_ns,
            batch_par_ns,
            batch_match: reference.rows == batch_out.rows,
            batch_par_match: reference.rows == par_out.rows,
        });
    }
    VectorizedReport { dop, reps, per_template }
}

/// Format the vectorized report as markdown (the `harness vectorized` body).
pub fn format_vectorized_report(r: &VectorizedReport) -> String {
    let table = md_table(
        &format!(
            "template | rows | serial row | serial batch | batch dop={} | batch speedup | ×dop \
             | identical",
            r.dop
        ),
        r.per_template.iter().map(|m| {
            format!(
                "{} | {} | {:.3?} | {:.3?} | {:.3?} | {:.2}× | {:.2}× | {}",
                m.name,
                m.rows,
                Duration::from_nanos(m.row_ns),
                Duration::from_nanos(m.batch_ns),
                Duration::from_nanos(m.batch_par_ns),
                m.speedup(),
                m.par_speedup(),
                m.batch_match && m.batch_par_match
            )
        }),
    );
    format!(
        "{table}\n{}; medians over {} runs per cell, plan compiled once\n",
        r.speedup_line(),
        r.reps
    )
}

/// The registry entry; `env.budget` is the timed runs per cell. An
/// unoptimized build's wall-clock ratio says nothing about the engines
/// (debug batch kernels measure ~1.7×), so only release builds gate it.
pub fn run(env: &Env) -> Outcome {
    let r = run_vectorized(env.scale, 4, env.budget);
    let body = format_vectorized_report(&r);
    if cfg!(debug_assertions) {
        let pass = "batch rows byte-identical to serial row (dop 1 and 4); \
                    speedup not gated in an unoptimized build";
        return Outcome::gated(body, r.gate_identity(), pass);
    }
    let pass = format!(
        "batch rows byte-identical to serial row (dop 1 and 4), {} ≥ 2x on the \
         scan/filter/agg templates",
        r.speedup_line()
    );
    Outcome::gated(body, r.gate(), pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectorized_report_is_byte_identical() {
        let r = run_vectorized(Scale(0.05), 4, 3);
        assert_eq!(r.per_template.len(), 5);
        for m in &r.per_template {
            assert!(m.batch_match, "{}: serial batch diverged", m.name);
            assert!(m.batch_par_match, "{}: dop-4 batch diverged", m.name);
            assert!(m.rows > 0, "{}: template returned nothing, proves nothing", m.name);
        }
        let table = format_vectorized_report(&r);
        assert!(table.contains("median serial-batch speedup"), "{table}");
        assert!(table.contains("q6-filter-agg"), "{table}");
    }

    #[test]
    fn vectorized_gate_catches_divergence_and_slowdowns() {
        let mut r = VectorizedReport {
            dop: 4,
            reps: 3,
            per_template: vec![VectorizedMeasurement {
                name: "q6-filter-agg",
                rows: 1,
                row_ns: 1000,
                batch_ns: 400,
                batch_par_ns: 300,
                batch_match: true,
                batch_par_match: true,
            }],
        };
        r.gate().expect("clean report passes");
        r.per_template[0].batch_ns = 900;
        assert!(r.gate().unwrap_err().contains("< 2.0x"));
        r.per_template[0].batch_ns = 400;
        r.per_template[0].batch_par_match = false;
        assert!(r.gate().unwrap_err().contains("dop=4"));
        r.per_template[0].batch_par_match = true;
        r.per_template[0].batch_match = false;
        assert!(r.gate().unwrap_err().contains("diverged"));
    }
}
