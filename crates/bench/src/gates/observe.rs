//! Estimation-quality gate: every template under `EXPLAIN ANALYZE`.

use crate::plumbing::{for_each_template, md_table, median, percentile};
use crate::registry::{Env, Outcome};
use taurus_workloads::Scale;

/// Per-template observation: the worst operator q-error at dop 1, and
/// whether instrumented runs (serial and parallel) returned byte-identical
/// rows to an uninstrumented run of the same plan.
#[derive(Debug, Clone)]
pub struct ObserveMeasurement {
    pub workload: &'static str,
    pub name: String,
    /// Operators in the (serial) analyzed plan.
    pub operators: usize,
    /// Operators that actually executed (loops > 0).
    pub executed: usize,
    /// Worst per-operator q-error at dop 1.
    pub max_q: f64,
    /// `EXPLAIN ANALYZE` at dop 1 returned the uninstrumented rows.
    pub serial_identical: bool,
    /// `EXPLAIN ANALYZE` at the report's dop returned the same rows.
    pub parallel_identical: bool,
}

/// The CI ceiling for the worst per-operator q-error across both suites.
/// Observed max at bench scales is ~340 (TPC-DS grouped-aggregate guesses);
/// the pre-fix derived-table bug sat at 10^28, so the ceiling separates
/// honest estimation noise from compounding estimation bugs by 25 orders
/// of magnitude.
pub const OBSERVE_Q_CEILING: f64 = 1000.0;

/// The estimation-quality report (`harness observe`): every TPC-H and
/// TPC-DS template run under `EXPLAIN ANALYZE`, with the q-error
/// distribution over per-template worst operators.
#[derive(Debug, Clone)]
pub struct ObserveReport {
    pub dop: usize,
    pub per_template: Vec<ObserveMeasurement>,
}

impl ObserveReport {
    fn qs(&self) -> impl Iterator<Item = f64> + '_ {
        self.per_template.iter().map(|m| m.max_q)
    }

    pub fn median_q(&self) -> f64 {
        median(self.qs()).unwrap_or(1.0)
    }

    pub fn p95_q(&self) -> f64 {
        percentile(self.qs(), 0.95).unwrap_or(1.0)
    }

    pub fn max_q(&self) -> f64 {
        self.qs().fold(1.0, f64::max)
    }

    /// The template with the worst operator estimate, named so regressions
    /// point straight at a query shape.
    pub fn worst_template(&self) -> Option<&ObserveMeasurement> {
        self.per_template
            .iter()
            .max_by(|a, b| a.max_q.partial_cmp(&b.max_q).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// The CI gate: instrumentation must never change results (serial or
    /// parallel), every template must execute at least one operator, and
    /// the worst q-error must stay under `ceiling` — a cardinality
    /// regression anywhere in the estimation stack trips this.
    pub fn gate(&self, ceiling: f64) -> std::result::Result<(), String> {
        for m in &self.per_template {
            if !m.serial_identical {
                return Err(format!("{} {}: analyzed serial rows diverged", m.workload, m.name));
            }
            if !m.parallel_identical {
                return Err(format!(
                    "{} {}: analyzed rows diverged at dop={}",
                    m.workload, m.name, self.dop
                ));
            }
            if m.executed == 0 {
                return Err(format!("{} {}: no operator recorded execution", m.workload, m.name));
            }
        }
        let max = self.max_q();
        if max > ceiling {
            let worst = self.worst_template().expect("non-empty");
            return Err(format!(
                "max q-error {max:.1} exceeds ceiling {ceiling:.1} \
                 (worst template: {} {})",
                worst.workload, worst.name
            ));
        }
        Ok(())
    }
}

/// Run every TPC-H and TPC-DS template under `EXPLAIN ANALYZE` through the
/// Orca detour (threshold per workload, so both backends are exercised).
/// q-errors are measured at dop 1, where estimates and totals compare
/// directly; the dop-`dop` pass re-analyzes each query to prove the
/// instrumentation is invisible under parallel exchange operators too.
pub fn run_observe(scale: Scale, dop: usize) -> ObserveReport {
    let mut per_template = Vec::new();
    for_each_template(scale, |bed, q| {
        let (engine, orca) = (&bed.engine, &bed.orca);
        engine.set_dop(1);
        let plain = engine.query_with(&q.sql, orca).expect(q.name);
        let serial = engine.explain_analyze(&q.sql, orca).expect(q.name);
        engine.set_dop(dop);
        let parallel = engine.explain_analyze(&q.sql, orca).expect(q.name);
        let max_q = serial.nodes.iter().filter_map(|n| n.q_error).fold(1.0, f64::max);
        per_template.push(ObserveMeasurement {
            workload: bed.workload.name(),
            name: q.name.to_string(),
            operators: serial.nodes.len(),
            executed: serial.nodes.iter().filter(|n| n.loops > 0).count(),
            max_q,
            serial_identical: serial.output.rows == plain.rows,
            parallel_identical: parallel.output.rows == plain.rows,
        });
    });
    ObserveReport { dop, per_template }
}

/// Format the observe report as markdown (the `harness observe` body).
pub fn format_observe_report(r: &ObserveReport) -> String {
    let mut s = md_table(
        &format!(
            "workload | template | operators | max q-error | identical (serial / dop={})",
            r.dop
        ),
        r.per_template.iter().map(|m| {
            format!(
                "{} | {} | {} | {:.2} | {} / {}",
                m.workload, m.name, m.operators, m.max_q, m.serial_identical, m.parallel_identical
            )
        }),
    );
    s += &format!(
        "\nq-error over per-template worst operators: median {:.2}, p95 {:.2}, max {:.2}\n",
        r.median_q(),
        r.p95_q(),
        r.max_q()
    );
    if let Some(w) = r.worst_template() {
        s += &format!("worst template: {} {} (q-error {:.2})\n", w.workload, w.name, w.max_q);
    }
    s
}

/// The registry entry.
pub fn run(env: &Env) -> Outcome {
    let r = run_observe(env.scale, 4);
    Outcome::gated(
        format_observe_report(&r),
        r.gate(OBSERVE_Q_CEILING),
        format!(
            "instrumented runs byte-identical (serial and dop 4), \
             max q-error under {OBSERVE_Q_CEILING:.0}"
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_every_template_of_both_workloads() {
        let r = run_observe(Scale(0.02), 4);
        assert_eq!(r.per_template.len(), 22 + 99, "every TPC-H and TPC-DS template");
        assert!(r.median_q() >= 1.0 && r.median_q() < 20.0, "median {}", r.median_q());
        let table = format_observe_report(&r);
        assert!(table.contains("worst template:"), "{table}");
        assert!(table.contains("| TPC-H | q1 |"), "{table}");
    }

    #[test]
    fn observe_gate_catches_divergence_and_blowups() {
        let mut r = ObserveReport {
            dop: 4,
            per_template: vec![ObserveMeasurement {
                workload: "TPC-H",
                name: "q1".into(),
                operators: 5,
                executed: 5,
                max_q: 2.0,
                serial_identical: true,
                parallel_identical: true,
            }],
        };
        r.gate(OBSERVE_Q_CEILING).expect("clean report passes");
        r.per_template[0].max_q = OBSERVE_Q_CEILING * 10.0;
        assert!(r.gate(OBSERVE_Q_CEILING).unwrap_err().contains("q-error"));
        r.per_template[0].max_q = 2.0;
        r.per_template[0].parallel_identical = false;
        assert!(r.gate(OBSERVE_Q_CEILING).unwrap_err().contains("dop=4"));
        r.per_template[0].parallel_identical = true;
        r.per_template[0].serial_identical = false;
        assert!(r.gate(OBSERVE_Q_CEILING).unwrap_err().contains("diverged"));
    }
}
