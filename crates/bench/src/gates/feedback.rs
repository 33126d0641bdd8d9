//! Feedback-loop gate: observe, re-optimize, converge.

use crate::plumbing::{canon_rows, md_table, testbeds};
use crate::registry::{Env, Outcome};
use taurus_workloads::Scale;

/// Convergence ceiling for the feedback loop: after one observed execution
/// and one feedback-driven re-optimization, the worst per-operator q-error
/// of every template that started above the re-optimization threshold must
/// land at or under this.
pub const FEEDBACK_Q_CEILING: f64 = 2.0;

/// One template through the feedback loop: three `analyze_cached` serves
/// of the same statement.
#[derive(Debug, Clone)]
pub struct FeedbackMeasurement {
    pub workload: &'static str,
    pub name: String,
    /// Worst per-operator q-error of the first (statically planned) serve.
    pub first_q: f64,
    /// Worst q-error of the second serve — re-optimized with observed
    /// cardinalities when `first_q` crossed the threshold.
    pub second_q: f64,
    /// Cache-outcome labels of the three serves.
    pub outcomes: [&'static str; 3],
    /// Row multisets agree across all three serves (4-decimal double
    /// rounding — plan shapes legitimately reorder float aggregation).
    pub identical: bool,
}

/// The feedback-loop report (`harness feedback`): every TPC-H and TPC-DS
/// template compiled, observed, and (when its worst q-error crossed the
/// threshold) re-optimized with true cardinalities injected.
#[derive(Debug, Clone)]
pub struct FeedbackReport {
    /// Re-optimization q-error threshold the engines ran with.
    pub threshold: f64,
    pub per_template: Vec<FeedbackMeasurement>,
    /// Plan-cache re-optimization evictions summed over both workloads.
    pub cache_reoptimizations: u64,
}

impl FeedbackReport {
    /// Templates whose first serve exceeded the threshold (the loop's
    /// targets).
    pub fn bad_actors(&self) -> Vec<&FeedbackMeasurement> {
        self.per_template.iter().filter(|m| m.first_q > self.threshold).collect()
    }

    /// Templates the second serve re-optimized.
    pub fn reoptimized(&self) -> usize {
        self.per_template.iter().filter(|m| m.outcomes[1] == "reoptimized").count()
    }

    /// The CI gate for `harness feedback`:
    ///
    /// * results must be identical across all three serves of every
    ///   template (first compile, re-optimized serve, converged hit);
    /// * every template whose first worst q-error is above the threshold
    ///   must re-optimize on its second serve and land at or under
    ///   [`FEEDBACK_Q_CEILING`];
    /// * templates under the threshold must serve straight hits;
    /// * the third serve must be a hit everywhere — the convergence
    ///   guarantee (same observations never re-optimize twice);
    /// * at least one bad actor must exist — the loop must have something
    ///   to demonstrate on;
    /// * the plan cache's re-optimization counter must agree with the
    ///   per-template outcomes.
    ///
    /// Note the first serve of a template is not necessarily a cache miss:
    /// generated templates that differ only in literals share a fingerprint
    /// (compile-once-serve-many working as designed), so a template whose
    /// twin compiled first legitimately opens on a hit — and can open
    /// straight onto a re-optimization when the twin's observations
    /// crossed the threshold.
    pub fn gate(&self) -> std::result::Result<(), String> {
        let mut bad_actors = 0usize;
        for m in &self.per_template {
            if !m.identical {
                return Err(format!("{} {}: rows diverged across serves", m.workload, m.name));
            }
            if m.outcomes[2] != "hit" {
                return Err(format!(
                    "{} {}: third serve was {}, expected hit (convergence guarantee)",
                    m.workload, m.name, m.outcomes[2]
                ));
            }
            if m.first_q > self.threshold {
                bad_actors += 1;
                if m.outcomes[1] != "reoptimized" {
                    return Err(format!(
                        "{} {}: first q-error {:.1} over threshold but second serve was {}",
                        m.workload, m.name, m.first_q, m.outcomes[1]
                    ));
                }
                if m.second_q > FEEDBACK_Q_CEILING {
                    return Err(format!(
                        "{} {}: re-optimized q-error {:.2} above ceiling {FEEDBACK_Q_CEILING} \
                         (started at {:.1})",
                        m.workload, m.name, m.second_q, m.first_q
                    ));
                }
            } else if m.outcomes[1] != "hit" {
                return Err(format!(
                    "{} {}: under threshold (q {:.1}) but second serve was {}",
                    m.workload, m.name, m.first_q, m.outcomes[1]
                ));
            }
        }
        if bad_actors == 0 {
            return Err("no template exceeded the threshold; nothing demonstrated".to_string());
        }
        let n = self.reoptimized() as u64;
        if self.cache_reoptimizations != n {
            return Err(format!(
                "re-optimization counter disagrees: {} outcomes, cache {}",
                n, self.cache_reoptimizations
            ));
        }
        Ok(())
    }
}

/// Run every template through three `analyze_cached` serves: compile +
/// observe, re-optimize (when the observed worst q-error crossed the
/// threshold), and the converged hit. Same placement knobs as the observe
/// report, so q-errors match.
pub fn run_feedback(scale: Scale) -> FeedbackReport {
    let threshold = 10.0;
    let mut per_template = Vec::new();
    let beds = testbeds(scale);
    for bed in &beds {
        bed.engine.set_reopt_q_threshold(Some(threshold));
        for q in &bed.queries {
            let serve = || bed.engine.analyze_cached(&q.sql, &bed.orca).expect(q.name);
            let [(a1, o1), (a2, o2), (a3, o3)] = [serve(), serve(), serve()];
            let worst = |a: &mylite::AnalyzedQuery| {
                a.nodes.iter().filter_map(|n| n.q_error).fold(1.0, f64::max)
            };
            // 4-decimal rounding: plan shapes legitimately reorder float
            // aggregation.
            let m1 = canon_rows(&a1.output.rows, false);
            let identical = m1 == canon_rows(&a2.output.rows, false)
                && m1 == canon_rows(&a3.output.rows, false);
            per_template.push(FeedbackMeasurement {
                workload: bed.workload.name(),
                name: q.name.to_string(),
                first_q: worst(&a1),
                second_q: worst(&a2),
                outcomes: [o1.label(), o2.label(), o3.label()],
                identical,
            });
        }
    }
    FeedbackReport {
        threshold,
        per_template,
        cache_reoptimizations: beds
            .iter()
            .map(|b| b.engine.plan_cache_stats().reoptimizations)
            .sum(),
    }
}

/// Format the feedback report as markdown (the `harness feedback` body).
pub fn format_feedback_report(r: &FeedbackReport) -> String {
    let mut s = md_table(
        "workload | template | q-error 1st | q-error 2nd | serves | identical",
        r.per_template.iter().map(|m| {
            format!(
                "{} | {} | {:.2} | {:.2} | {} | {}",
                m.workload,
                m.name,
                m.first_q,
                m.second_q,
                m.outcomes.join(" → "),
                m.identical
            )
        }),
    );
    let bad = r.bad_actors();
    s += &format!(
        "\ntemplates over threshold {:.0}: {} of {}; re-optimized: {}\n",
        r.threshold,
        bad.len(),
        r.per_template.len(),
        r.reoptimized()
    );
    if let Some(worst) = bad
        .iter()
        .max_by(|a, b| a.first_q.partial_cmp(&b.first_q).unwrap_or(std::cmp::Ordering::Equal))
    {
        s += &format!(
            "worst actor: {} {} — q-error {:.2} → {:.2} after re-optimization\n",
            worst.workload, worst.name, worst.first_q, worst.second_q
        );
    }
    s
}

/// The registry entry.
pub fn run(env: &Env) -> Outcome {
    let r = run_feedback(env.scale);
    Outcome::gated(
        format_feedback_report(&r),
        r.gate(),
        format!(
            "every template over q-error 10 re-optimized to ≤ {FEEDBACK_Q_CEILING:.0} \
             on its second compile, identical rows, third serve a hit"
        ),
    )
}
