//! The experiment registry: every `harness` subcommand is one row of
//! [`EXPERIMENTS`]. `harness <name>` looks a row up, `harness all` and
//! `harness gates` loop over the table, `harness list` prints it, and
//! `ci.sh` runs `harness gates`. Adding an experiment is one row here plus
//! its `run` function; a row with `ci: Some(..)` is thereby a CI gate.

use crate::gates::{concurrency, feedback, fuzz, governance, observe, orders, parallel, plancache};
use crate::plumbing::md_table;
use crate::{paper, Workload};
use std::ops::Range;
use taurus_workloads::Scale;

/// What an experiment runs under.
#[derive(Debug, Clone)]
pub struct Env {
    pub scale: Scale,
    /// Timed repetitions per measurement in the paper experiments.
    pub reps: usize,
    /// The gate's work budget, in the unit its row documents.
    pub budget: usize,
    /// Fuzzer seeds (half-open).
    pub seeds: Range<u64>,
}

/// The configuration `harness gates` (and so `ci.sh`) runs a gate in.
#[derive(Debug, Clone)]
pub struct Ci {
    pub scale: f64,
    /// Gate-specific work budget; 0 for gates that sweep a fixed set.
    pub budget: usize,
    pub seeds: Range<u64>,
}

/// What an experiment produced: its markdown body and, for a gate, the
/// verdict — the pass line, or the first violation.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub body: String,
    pub verdict: Option<Result<String, String>>,
}

impl Outcome {
    /// A report with nothing to gate.
    pub fn report(body: String) -> Outcome {
        Outcome { body, verdict: None }
    }

    /// A gated report: `gate` is the measurement's own `gate()` result,
    /// `pass` the line printed when it held.
    pub fn gated(body: String, gate: Result<(), String>, pass: impl Into<String>) -> Outcome {
        Outcome { body, verdict: Some(gate.map(|()| pass.into())) }
    }
}

/// One `harness` subcommand.
pub struct Experiment {
    pub name: &'static str,
    /// Section title; `{scale}` and `{budget}` are filled in from the [`Env`].
    pub title: &'static str,
    /// Present ⇔ the experiment is a CI gate.
    pub ci: Option<Ci>,
    pub run: fn(&Env) -> Outcome,
}

impl Experiment {
    /// The environment to run this row in. `scale: None` means the row's
    /// own CI scale (what `harness gates` passes); `budget_mult` scales the
    /// row's CI budget; `seeds: None` means the row's own seeds.
    pub fn env(
        &self,
        scale: Option<Scale>,
        reps: usize,
        budget_mult: usize,
        seeds: Option<Range<u64>>,
    ) -> Env {
        let ci = self.ci.clone().unwrap_or(Ci { scale: DEFAULT_SCALE, budget: 0, seeds: 0..0 });
        Env {
            scale: scale.unwrap_or(Scale(ci.scale)),
            reps,
            budget: ci.budget * budget_mult,
            seeds: seeds.unwrap_or(ci.seeds),
        }
    }

    pub fn heading(&self, env: &Env) -> String {
        self.title
            .replace("{scale}", &format!("{:?}", env.scale))
            .replace("{budget}", &env.budget.to_string())
    }
}

/// `SCALE` when the environment does not set it.
pub const DEFAULT_SCALE: f64 = 0.3;

pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig10",
        title: "Fig 10 — TPC-H execution time, MySQL vs Orca plans (scale {scale})",
        ci: None,
        run: |env| paper::suite_report(Workload::TpcH, env),
    },
    Experiment {
        name: "fig11",
        title: "Fig 11 — TPC-DS execution time, MySQL vs Orca plans (scale {scale})",
        ci: None,
        run: |env| paper::suite_report(Workload::TpcDs, env),
    },
    Experiment {
        name: "fig12",
        title: "Fig 12 — Orca is slower only on short queries (scale {scale})",
        ci: None,
        run: paper::fig12_report,
    },
    Experiment {
        name: "table1",
        title: "Table 1 — query compilation overhead (threshold 1: every query takes the \
                Orca detour; scale {scale})",
        ci: None,
        run: paper::table1_report,
    },
    Experiment {
        name: "q72",
        title: "Fig 4/5 — TPC-DS Q72 plan shapes (scale {scale})",
        ci: None,
        run: paper::q72_report,
    },
    Experiment {
        name: "q17",
        title: "Fig 6/7 + Listing 7 — TPC-H Q17 (scale {scale})",
        ci: None,
        run: paper::q17_report,
    },
    Experiment {
        name: "q41",
        title: "§6.2 Q41 — OR factorization (scale {scale})",
        ci: None,
        run: paper::q41_report,
    },
    Experiment {
        name: "ablations",
        title: "§7 lesson ablations (scale {scale})",
        ci: None,
        run: paper::ablations_report,
    },
    Experiment {
        name: "routing",
        title: "Never-fail detour — routing and fallback reasons (scale {scale})",
        ci: None,
        run: paper::routing_report,
    },
    Experiment {
        name: "hot",
        title: "Hot statements — one warm pass over all 121 templates, slowest first \
                (the benchmark's scale, 1.0)",
        ci: None,
        run: paper::hot_report,
    },
    // Compile-once serve-many. Fully offline and deterministic (fixed
    // statement mix, fixed catalog). Fails if the repeated-statement path
    // re-enters memo exploration, if the hit rate drops below 95%, or if
    // serving a cached plan costs more than 0.75 of merely parsing and
    // resolving the statement (a hit that re-parsed would read ≈ 0.95).
    Experiment {
        name: "plancache",
        title: "Plan cache — compile once, serve many (scale {scale})",
        ci: Some(Ci { scale: 0.05, budget: 0, seeds: 0..0 }),
        run: plancache::run,
    },
    // Morsel-driven speedup. Machine-independent (critical-path work, not
    // wall-clock): fails if the median speedup at dop=4 over serial drops
    // below 2x on the scan/join/agg microbench templates, if any template's
    // rows diverge from serial, or if an expected exchange was not placed.
    Experiment {
        name: "parallel",
        title: "Parallel execution — morsel-driven workers (scale {scale}, dop 4)",
        ci: Some(Ci { scale: 0.05, budget: 0, seeds: 0..0 }),
        run: parallel::run,
    },
    // EXPLAIN ANALYZE q-error. Runs every TPC-H and TPC-DS template under
    // EXPLAIN ANALYZE. Fails if instrumentation changes any result (serial
    // or dop=4), or if the worst per-operator q-error crosses the ceiling —
    // a cardinality-estimation regression anywhere in the stack trips this
    // before it ships.
    Experiment {
        name: "observe",
        title: "EXPLAIN ANALYZE — per-operator q-errors, every template (scale {scale}, dop 4)",
        ci: Some(Ci { scale: 0.05, budget: 0, seeds: 0..0 }),
        run: observe::run,
    },
    // Interesting-order enforcer elimination. Every TPC-H and TPC-DS
    // template, order optimization off vs on. Fails if the optimized plans
    // are not byte-identical to the always-enforce plans at dop 1/4/8, if
    // any template gains a Sort node, if the memo's ordered alternatives
    // push plans_costed past 1.5x the order-blind search, or if the
    // optimization fails to eliminate any Sort enforcer at all.
    Experiment {
        name: "orders",
        title: "Interesting orders — Sort-enforcer elimination vs always-enforce (scale {scale})",
        ci: Some(Ci { scale: 0.05, budget: 0, seeds: 0..0 }),
        run: orders::run,
    },
    // Re-optimization convergence. Compiles every TPC-H and TPC-DS template
    // three times through the plan cache. Any template whose observed worst
    // q-error crossed the threshold must re-optimize on its second compile
    // and converge (worst q-error at or below the ceiling), return identical
    // rows, and serve the third compile as a plain hit; templates under the
    // threshold must never re-optimize. Fails if a bad actor survives or the
    // loop misfires.
    Experiment {
        name: "feedback",
        title: "Feedback loop — observe, re-optimize, converge (scale {scale}, threshold 10)",
        ci: Some(Ci { scale: 0.05, budget: 0, seeds: 0..0 }),
        run: feedback::run,
    },
    // Differential correctness. Seeded, fully deterministic random-query
    // sweep (`budget` queries per seed) over TPC-H, TPC-DS, and the
    // adversarial schema, checked by eight oracles (native-vs-orca,
    // serial-vs-parallel, fresh-vs-rebound, TLP partitioning,
    // cancel-recover, feedback re-optimization, concurrent-sessions,
    // orders). Any miscompare fails the gate and prints the
    // delta-debugged minimal repro SQL.
    Experiment {
        name: "fuzz",
        title: "Differential fuzzer — eight oracles over random queries (scale {scale})",
        ci: Some(Ci { scale: 0.05, budget: 150, seeds: 0..4 }),
        run: fuzz::run,
    },
    // Query-governor chaos. Randomized cancel points, wall-clock deadlines,
    // and memory budgets injected across every TPC-H and TPC-DS template
    // (`budget` disturbed executions). Fails on any panic, on tracked peak
    // memory exceeding a configured budget, or if the engine stops
    // answering correctly right after a governed failure.
    Experiment {
        name: "governance",
        title: "Query governor — chaos under cancel/deadline/memory disturbances \
                (scale {scale}, {budget} injections)",
        ci: Some(Ci { scale: 0.05, budget: 200, seeds: 0..0 }),
        run: governance::run,
    },
    // Multi-session server scaling. Closed-loop bench through real sockets
    // at zero think time: 8 clients vs 1 over a mixed TPC-H/TPC-DS
    // statement mix against the taurus-server front end (`budget`
    // loaded-level statements, split across the 8 clients — at zero think
    // 320 of them last 15 ms, too short to tell 1.8x from 2x). Fails if any
    // response diverges byte-for-byte from the single-session reference
    // serves, or — on a box measured to run two threads at once — if
    // aggregate QPS at 8 clients is under 2x the single-client rate: one
    // lock around the engine's serve measures 1.4–1.7x there, this engine
    // 2.5x and up.
    Experiment {
        name: "concurrency",
        title: "Multi-session server — closed-loop concurrency, 8 clients vs 1 \
                (scale {scale}, budget {budget})",
        ci: Some(Ci { scale: 0.05, budget: 3200, seeds: 0..0 }),
        run: concurrency::run,
    },
];

pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The registry's names, in table order.
pub fn names() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|e| e.name).collect()
}

/// The rows `harness gates` runs.
pub fn gates() -> impl Iterator<Item = &'static Experiment> {
    EXPERIMENTS.iter().filter(|e| e.ci.is_some())
}

/// The `harness list` table.
pub fn list() -> String {
    let row = |e: &Experiment| {
        let ci = e.ci.as_ref().map_or("—".to_string(), |c| {
            format!("scale {}, budget {}, seeds {:?}", c.scale, c.budget, c.seeds)
        });
        format!("{} | {ci} | {}", e.name, e.title)
    };
    md_table("experiment | ci gate | section", EXPERIMENTS.iter().map(row))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        let names = names();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate experiment name {n}");
            assert_eq!(find(n).map(|e| e.name), Some(*n));
        }
        assert!(find("all").is_none() && find("gates").is_none() && find("list").is_none());
    }

    #[test]
    fn env_takes_the_rows_ci_values_unless_overridden() {
        let fuzz = EXPERIMENTS.iter().find(|e| e.ci.as_ref().is_some_and(|c| !c.seeds.is_empty()));
        let fuzz = fuzz.expect("one gate is seeded");
        let ci = fuzz.ci.clone().unwrap();
        let env = fuzz.env(None, 5, 1, None);
        assert_eq!((env.scale.0, env.budget, env.seeds), (ci.scale, ci.budget, ci.seeds.clone()));
        let env = fuzz.env(Some(Scale(0.3)), 5, 2, Some(7..9));
        assert!(fuzz.heading(&env).ends_with("(scale Scale(0.3))"), "{}", fuzz.heading(&env));
        assert_eq!((env.scale.0, env.budget, env.seeds), (0.3, ci.budget * 2, 7..9));
        // Non-gates run at the default scale with no budget.
        let env = EXPERIMENTS[0].env(None, 3, 1, None);
        assert_eq!((env.scale.0, env.reps, env.budget), (DEFAULT_SCALE, 3, 0));
    }
}
