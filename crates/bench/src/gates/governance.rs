//! Query-governor gate: chaos under cancel/deadline/memory disturbances.

use crate::plumbing::{canon_rows, md_table, testbeds};
use crate::registry::{Env, Outcome};
use std::time::Duration;
use taurus_workloads::Scale;

/// Outcome of the governance chaos run (`harness governance`): randomized
/// cancel points, wall-clock deadlines, and memory budgets injected across
/// every TPC-H and TPC-DS template. The invariants under test: no
/// disturbance may panic, tracked peak memory never exceeds a configured
/// budget, and after every governed failure the very next serve of the
/// same statement returns the undisturbed answer.
#[derive(Debug, Clone, Default)]
pub struct GovernanceReport {
    /// Disturbed executions performed.
    pub injections: usize,
    /// Distinct templates the round-robin mix cycles through.
    pub templates: usize,
    /// Runs that finished before their disturbance could trip.
    pub completed_ok: usize,
    /// Runs stopped by the injected cancel point.
    pub cancelled: usize,
    /// Runs that died on the injected wall-clock deadline.
    pub deadline_exceeded: usize,
    /// Runs over the injected memory budget even at the serial rung.
    pub memory_exceeded: usize,
    /// Over-budget runs rescued by the engine's retry at dop=1 (from the
    /// engines' governed counters).
    pub memory_degraded: u64,
    /// Executions that panicked instead of failing typed. Must be zero.
    pub panics: usize,
    /// Runs where tracked peak memory exceeded the configured budget.
    pub peak_violations: usize,
    /// Post-failure re-serves compared against the undisturbed answer.
    pub recovery_checks: usize,
    /// Every invariant violation, described.
    pub failures: Vec<String>,
}

impl GovernanceReport {
    /// Disturbances that actually stopped an execution.
    pub fn governed_trips(&self) -> usize {
        self.cancelled + self.deadline_exceeded + self.memory_exceeded
    }

    /// The CI gate: zero panics, peak memory bounded by the budget on every
    /// run, every post-failure serve correct — and the mix must actually
    /// have tripped the governor, otherwise the run proved nothing.
    pub fn gate(&self) -> std::result::Result<(), String> {
        if self.panics > 0 {
            return Err(format!("{} disturbed executions panicked", self.panics));
        }
        if self.peak_violations > 0 {
            return Err(format!(
                "{} runs exceeded their configured memory budget",
                self.peak_violations
            ));
        }
        if let Some(first) = self.failures.first() {
            return Err(format!("{} violations; first: {first}", self.failures.len()));
        }
        if self.governed_trips() + self.memory_degraded as usize == 0 {
            return Err("no disturbance tripped the governor; the run proved nothing".into());
        }
        Ok(())
    }
}

/// Run the governance chaos mix: `injections` disturbed executions
/// round-robined over every TPC-H and TPC-DS template, each under a
/// randomly drawn cancel point, deadline, or memory budget. The testbeds'
/// lowered placement knobs matter here: the chaos must reach the worker
/// pool, not just serial paths.
pub fn run_governance(scale: Scale, injections: usize) -> GovernanceReport {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use taurus_workloads::gen::SmallRng;

    let beds = testbeds(scale);
    let templates: Vec<_> =
        beds.iter().flat_map(|bed| bed.queries.iter().map(move |q| (bed, q))).collect();
    // Lazily computed reference answers for the post-failure recovery check.
    let mut refs: Vec<Option<Vec<String>>> = vec![None; templates.len()];
    let mut rng = SmallRng::seed_from_u64(0x676f7665726e);
    let mut report =
        GovernanceReport { injections, templates: templates.len(), ..Default::default() };

    for i in 0..injections {
        let flat = i % templates.len();
        let (bed, q) = templates[flat];
        let (engine, orca, sql) = (&bed.engine, &bed.orca, &q.sql);
        let name = format!("{} {}", bed.workload.name(), q.name);
        let kind = rng.gen_range(0..3usize);
        let cancel_point = rng.gen_range(1..=40usize) as u64;
        let deadline_ms = rng.gen_range(1..=3usize) as u64;
        // Budgets from one byte to a mebibyte: tiny ones trip on the first
        // charge, large ones only on the heaviest templates.
        let mem_budget = 1u64 << rng.gen_range(0..21usize);

        let mut budget = None;
        match kind {
            0 => engine.set_cancel_after(Some(cancel_point)),
            1 => engine.set_deadline(Some(Duration::from_millis(deadline_ms))),
            _ => {
                budget = Some(mem_budget);
                engine.set_memory_budget(Some(mem_budget));
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.query_cached(sql, orca)));
        engine.set_cancel_after(None);
        engine.set_deadline(None);
        engine.set_memory_budget(None);
        if let Some(b) = budget {
            let peak = engine.last_peak_bytes();
            if peak > b {
                report.peak_violations += 1;
                report.failures.push(format!("{name}: tracked peak {peak} over budget {b}"));
            }
        }
        let failed = match outcome {
            Err(_) => {
                report.panics += 1;
                report.failures.push(format!("{name}: panicked under disturbance"));
                continue;
            }
            Ok(Ok(_)) => {
                report.completed_ok += 1;
                false
            }
            Ok(Err(e)) => {
                match e {
                    taurus_common::Error::Cancelled => report.cancelled += 1,
                    taurus_common::Error::DeadlineExceeded { .. } => report.deadline_exceeded += 1,
                    taurus_common::Error::MemoryExceeded { .. } => report.memory_exceeded += 1,
                    other => report
                        .failures
                        .push(format!("{name}: foreign error under disturbance: {other}")),
                }
                true
            }
        };
        if !failed {
            continue;
        }
        // Serviceability: immediately after every governed failure, the
        // same statement with clean knobs must produce the undisturbed
        // answer — no poisoned plan cache, no wedged workers. Rows compare
        // rounded to 4 decimals: recovery may execute a parallel plan, and
        // float aggregation order is not deterministic across runs of the
        // same parallel plan.
        report.recovery_checks += 1;
        if refs[flat].is_none() {
            // Reference from a fresh compile, bypassing the plan cache, so
            // a poisoned cache entry cannot vouch for itself.
            match engine.query_with(sql, orca) {
                Ok(out) => refs[flat] = Some(canon_rows(&out.rows, false)),
                Err(e) => {
                    report.failures.push(format!("{name}: reference compile failed: {e}"));
                    continue;
                }
            }
        }
        match engine.query_cached(sql, orca) {
            Err(e) => report.failures.push(format!("{name}: still failing after recovery: {e}")),
            Ok(out) => {
                if Some(canon_rows(&out.rows, false)) != refs[flat] {
                    report
                        .failures
                        .push(format!("{name}: answer diverged after a governed failure"));
                }
            }
        }
    }
    report.memory_degraded = beds.iter().map(|b| b.engine.governed_stats().memory_degraded).sum();
    report
}

/// Format the governance report as markdown (the `harness governance` body).
pub fn format_governance_report(r: &GovernanceReport) -> String {
    let mut s = format!(
        "governance chaos: {} disturbed executions over {} templates\n\n",
        r.injections, r.templates
    );
    s += &md_table(
        "outcome | runs",
        [
            format!("completed before the disturbance tripped | {}", r.completed_ok),
            format!("cancelled | {}", r.cancelled),
            format!("deadline exceeded | {}", r.deadline_exceeded),
            format!("memory exceeded | {}", r.memory_exceeded),
            format!("rescued by the serial degradation rung | {}", r.memory_degraded),
            format!("post-failure recovery checks | {}", r.recovery_checks),
            format!("panics | {}", r.panics),
            format!("peak-memory budget violations | {}", r.peak_violations),
        ],
    );
    if !r.failures.is_empty() {
        s += &format!("\n{} violations:\n", r.failures.len());
        for f in &r.failures {
            s += &format!("- {f}\n");
        }
    }
    s
}

/// The registry entry; `env.budget` is the number of disturbed executions.
pub fn run(env: &Env) -> Outcome {
    let r = run_governance(env.scale, env.budget);
    Outcome::gated(
        format_governance_report(&r),
        r.gate(),
        "zero panics, peak memory within budget, engine serviceable after every \
         governed failure",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_covers_both_workloads_and_trips_the_governor() {
        let r = run_governance(Scale(0.02), 40);
        assert_eq!(r.templates, 22 + 99, "round-robin covers both workloads");
        assert_eq!(r.injections, 40);
        assert!(r.governed_trips() > 0, "disturbances must actually trip: {r:?}");
        let table = format_governance_report(&r);
        assert!(table.contains("| cancelled |"), "{table}");
        assert!(table.contains("| panics | 0 |"), "{table}");
    }

    #[test]
    fn governance_gate_flags_every_violation_class() {
        let clean = GovernanceReport {
            injections: 10,
            templates: 5,
            completed_ok: 4,
            cancelled: 3,
            deadline_exceeded: 2,
            memory_exceeded: 1,
            memory_degraded: 0,
            panics: 0,
            peak_violations: 0,
            recovery_checks: 6,
            failures: Vec::new(),
        };
        clean.gate().expect("clean report passes");
        let mut r = clean.clone();
        r.panics = 1;
        assert!(r.gate().unwrap_err().contains("panicked"));
        r = clean.clone();
        r.peak_violations = 2;
        assert!(r.gate().unwrap_err().contains("memory budget"));
        r = clean.clone();
        r.failures.push("TPC-H q1: answer diverged after a governed failure".into());
        assert!(r.gate().unwrap_err().contains("diverged"));
        r = clean;
        r.cancelled = 0;
        r.deadline_exceeded = 0;
        r.memory_exceeded = 0;
        assert!(r.gate().unwrap_err().contains("proved nothing"));
    }
}
