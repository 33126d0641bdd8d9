//! Interesting-order gate: Sort-enforcer elimination vs always-enforce.

use crate::plumbing::{for_each_template, md_table};
use crate::registry::{Env, Outcome};
use mylite::MySqlOptimizer;
use orcalite::OrcaConfig;
use taurus_bridge::OrcaOptimizer;
use taurus_workloads::Scale;

/// One workload template measured with order optimization off vs on.
#[derive(Debug, Clone)]
pub struct OrdersMeasurement {
    pub workload: &'static str,
    pub name: String,
    /// Rows the always-enforce serial reference returned.
    pub rows: usize,
    /// Sort nodes in the refined plan with `order_opt` off (always-enforce).
    pub sorts_off: usize,
    /// Sort nodes with `order_opt` on (redundant enforcers dropped).
    pub sorts_on: usize,
    /// Memo `plans_costed` with `order_properties` off (order-blind search).
    pub plans_costed_off: u64,
    /// Memo `plans_costed` with `order_properties` on (ordered alternatives
    /// costed against plan-plus-enforcer).
    pub plans_costed_on: u64,
    /// Order-optimized rows byte-identical, in order, to the always-enforce
    /// serial reference at dop 1, 4, and 8.
    pub identical: bool,
}

/// The interesting-order report (`harness orders`).
#[derive(Debug, Clone)]
pub struct OrdersReport {
    pub per_template: Vec<OrdersMeasurement>,
}

impl OrdersReport {
    /// `(always-enforce, order-optimized)` Sort totals over all templates.
    pub fn total_sorts(&self) -> (usize, usize) {
        self.per_template.iter().fold((0, 0), |(off, on), m| (off + m.sorts_off, on + m.sorts_on))
    }

    /// The CI gate: dropped enforcers must never change bytes at any dop,
    /// no template may gain a Sort, the ordered alternatives must stay
    /// within 1.5× of the order-blind search effort per template, and the
    /// optimization must actually fire — strictly fewer Sort nodes across
    /// the workloads combined.
    pub fn gate(&self) -> std::result::Result<(), String> {
        for m in &self.per_template {
            if !m.identical {
                return Err(format!(
                    "{} {}: order-optimized rows diverged from always-enforce",
                    m.workload, m.name
                ));
            }
            if m.sorts_on > m.sorts_off {
                return Err(format!(
                    "{} {}: order optimization added Sort nodes ({} from {})",
                    m.workload, m.name, m.sorts_on, m.sorts_off
                ));
            }
            // 1.5× the order-blind effort, plus the ordered machinery's
            // fixed per-block charges (anchor ordered-leaf seed + root
            // decision) that dominate only when the order-blind search is
            // trivially small (a single-member block costs ~0 plans).
            if m.plans_costed_on as f64 > 1.5 * m.plans_costed_off as f64 + 6.0 {
                return Err(format!(
                    "{} {}: ordered alternatives cost {} plans vs {} order-blind (> 1.5×)",
                    m.workload, m.name, m.plans_costed_on, m.plans_costed_off
                ));
            }
        }
        let (off, on) = self.total_sorts();
        if on >= off {
            return Err(format!(
                "no Sort enforcer was eliminated: {on} Sort nodes with order_opt on \
                 vs {off} always-enforce"
            ));
        }
        Ok(())
    }
}

/// Run the interesting-order measurement over every TPC-H and TPC-DS
/// template: Sort-node counts and memo search effort with the optimization
/// off vs on, plus byte-identity of the optimized plans at dop 1/4/8
/// against the always-enforce serial reference.
pub fn run_orders(scale: Scale) -> OrdersReport {
    // Threshold 1: every template takes the detour, so `plans_costed`
    // measures the memo's ordered alternatives, not the routing policy.
    let orca_off =
        OrcaOptimizer::new(OrcaConfig { order_properties: false, ..OrcaConfig::default() }, 1);
    let orca_on = OrcaOptimizer::new(OrcaConfig::default(), 1);
    let mut per_template = Vec::new();
    // The testbeds' lowered placement knobs make dop 4/8 actually
    // parallelize — the byte-identity claim must cover GatherMerge.
    for_each_template(scale, |bed, q| {
        let engine = &bed.engine;
        let sorts_and_plans_costed = |orca: &OrcaOptimizer| {
            let plan = engine.plan(&q.sql, &MySqlOptimizer).expect("workload query must plan");
            let routed = engine.plan(&q.sql, orca).expect("workload query must plan");
            let sorts = mylite::orders::count_sorts(&plan.primary().plan);
            let searches = routed.branches.iter().filter_map(|b| b.skeleton.search.as_ref());
            (sorts, searches.map(|t| t.plans_costed).sum::<u64>())
        };
        engine.set_dop(1);
        engine.set_order_opt(false);
        let reference = engine.query(&q.sql).expect("workload query must run");
        let (sorts_off, plans_costed_off) = sorts_and_plans_costed(&orca_off);
        engine.set_order_opt(true);
        let (sorts_on, plans_costed_on) = sorts_and_plans_costed(&orca_on);
        let identical = [1usize, 4, 8].into_iter().all(|dop| {
            engine.set_dop(dop);
            engine.query(&q.sql).expect("workload query must run").rows == reference.rows
        });
        engine.set_dop(1);
        per_template.push(OrdersMeasurement {
            workload: bed.workload.name(),
            name: q.name.to_string(),
            rows: reference.rows.len(),
            sorts_off,
            sorts_on,
            plans_costed_off,
            plans_costed_on,
            identical,
        });
    });
    OrdersReport { per_template }
}

/// Format the orders report as markdown (the `harness orders` body). Only
/// templates where the optimization changed the Sort count get a table row;
/// the totals line always covers every template.
pub fn format_orders_report(r: &OrdersReport) -> String {
    let table = md_table(
        "workload | template | rows | Sorts enforce→optimized | plans costed blind→ordered \
         | identical (dop 1/4/8)",
        r.per_template.iter().filter(|m| m.sorts_on != m.sorts_off).map(|m| {
            format!(
                "{} | {} | {} | {}→{} | {}→{} | {}",
                m.workload,
                m.name,
                m.rows,
                m.sorts_off,
                m.sorts_on,
                m.plans_costed_off,
                m.plans_costed_on,
                m.identical
            )
        }),
    );
    let (off, on) = r.total_sorts();
    format!(
        "{table}\ntotal Sort nodes across {} templates: {off} always-enforce → {on} \
         order-optimized ({} eliminated)\n",
        r.per_template.len(),
        off.saturating_sub(on)
    )
}

/// The registry entry.
pub fn run(env: &Env) -> Outcome {
    let r = run_orders(env.scale);
    let (off, on) = r.total_sorts();
    Outcome::gated(
        format_orders_report(&r),
        r.gate(),
        format!(
            "{off} → {on} Sort nodes across TPC-H/TPC-DS, byte-identical at dop 1/4/8, \
             plans_costed within 1.5× per template"
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_every_template_and_eliminates_sorts() {
        let r = run_orders(Scale(0.02));
        assert_eq!(r.per_template.len(), 22 + 99, "every TPC-H and TPC-DS template");
        let (off, on) = r.total_sorts();
        assert!(on < off, "no enforcer eliminated: {on} vs {off}");
        let table = format_orders_report(&r);
        assert!(table.contains("total Sort nodes across 121 templates"), "{table}");
    }

    #[test]
    fn orders_gate_catches_every_violation_class() {
        let clean = OrdersReport {
            per_template: vec![
                OrdersMeasurement {
                    workload: "TPC-H",
                    name: "q1".into(),
                    rows: 4,
                    sorts_off: 2,
                    sorts_on: 1,
                    plans_costed_off: 100,
                    plans_costed_on: 120,
                    identical: true,
                },
                OrdersMeasurement {
                    workload: "TPC-H",
                    name: "q3".into(),
                    rows: 10,
                    sorts_off: 1,
                    sorts_on: 1,
                    plans_costed_off: 50,
                    plans_costed_on: 60,
                    identical: true,
                },
            ],
        };
        clean.gate().expect("clean report passes");
        let mut r = clean.clone();
        r.per_template[0].identical = false;
        assert!(r.gate().unwrap_err().contains("diverged"));
        r = clean.clone();
        r.per_template[0].plans_costed_on = 157;
        assert!(r.gate().unwrap_err().contains("1.5×"));
        r = clean.clone();
        r.per_template[1].sorts_on = 2;
        assert!(r.gate().unwrap_err().contains("added Sort nodes"));
        r = clean;
        r.per_template[0].sorts_on = 2;
        assert!(r.gate().unwrap_err().contains("no Sort enforcer was eliminated"));
    }
}
