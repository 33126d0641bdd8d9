//! Plan-cache gate: compile once, serve many.

use crate::plumbing::{canon_rows, md_table, median, Testbed};
use crate::registry::{Env, Outcome};
use crate::Workload;
use mylite::resolve::resolve_union_branches;
use mylite::PlanCacheStats;
use std::time::{Duration, Instant};
use taurus_bridge::OrcaOptimizer;
use taurus_sql::rewrite::rewrite_set_ops;
use taurus_sql::{parse, Statement};
use taurus_workloads::Scale;

/// The repeated-statement mix for the plan-cache experiment: TPC-H
/// statement *templates*, each instantiated with different literals — the
/// "millions of users running the same queries against their own data"
/// workload the plan cache exists for. Every template keeps its shape
/// (same fingerprint); only literal values vary between instantiations.
fn plan_cache_mix(instances: usize) -> Vec<(&'static str, Vec<String>)> {
    let segs = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"];
    let regions = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
    let colors = ["green", "red", "blue", "ivory", "navy"];
    let many = |f: &dyn Fn(usize) -> String| (0..instances).map(f).collect::<Vec<_>>();
    vec![
        // --- short statements (below the Orca threshold, cheap compiles)
        (
            "pricing-summary",
            many(&|i| {
                format!(
                    "SELECT l_returnflag, SUM(l_quantity) AS sum_qty, COUNT(*) AS n \
                     FROM lineitem WHERE l_shipdate <= DATE '1998-{:02}-01' \
                     GROUP BY l_returnflag ORDER BY l_returnflag",
                    1 + i % 12
                )
            }),
        ),
        (
            "order-lookup",
            many(&|i| {
                format!(
                    "SELECT o_orderdate, o_totalprice FROM orders WHERE o_orderkey = {}",
                    (i * 37) % 900
                )
            }),
        ),
        // --- multi-join statements (Orca detour: the compiles worth caching)
        (
            "shipping-priority",
            many(&|i| {
                format!(
                    "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
                     FROM customer, orders, lineitem \
                     WHERE c_mktsegment = '{}' AND c_custkey = o_custkey \
                       AND l_orderkey = o_orderkey AND o_orderdate < DATE '1995-{:02}-15' \
                     GROUP BY l_orderkey ORDER BY revenue DESC LIMIT 10",
                    segs[i % segs.len()],
                    1 + i % 12
                )
            }),
        ),
        (
            "shipmode-volume",
            many(&|i| {
                format!(
                    "SELECT l_shipmode, COUNT(*) AS n FROM lineitem, orders, customer, nation \
                     WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey \
                       AND c_nationkey = n_nationkey AND n_name = '{}' \
                       AND o_orderdate >= DATE '199{}-01-01' \
                     GROUP BY l_shipmode ORDER BY l_shipmode",
                    ["FRANCE", "GERMANY", "CHINA", "BRAZIL", "JAPAN"][i % 5],
                    3 + i % 5
                )
            }),
        ),
        (
            "regional-part-suppliers",
            many(&|i| {
                format!(
                    "SELECT s_name, p_partkey FROM part, partsupp, supplier, nation, region \
                     WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey \
                       AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
                       AND r_name = '{}' AND p_size = {} \
                     ORDER BY s_name LIMIT 10",
                    regions[(i + 2) % regions.len()],
                    1 + i % 50
                )
            }),
        ),
        (
            "order-fulfillment",
            many(&|i| {
                format!(
                    "SELECT r_name, COUNT(*) AS n, SUM(l_quantity) AS qty \
                     FROM customer, orders, lineitem, nation, region \
                     WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
                       AND c_nationkey = n_nationkey AND n_regionkey = r_regionkey \
                       AND r_name = '{}' AND l_quantity > {} \
                     GROUP BY r_name",
                    regions[i % regions.len()],
                    10 + i % 30
                )
            }),
        ),
        (
            "volume-shipping",
            many(&|i| {
                format!(
                    "SELECT supp_nation, cust_nation, SUM(volume) AS revenue FROM \
                     (SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation, \
                             l_extendedprice * (1 - l_discount) AS volume \
                      FROM supplier, lineitem, orders, customer, nation n1, nation n2 \
                      WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey \
                        AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey \
                        AND c_nationkey = n2.n_nationkey AND n1.n_name = '{}' \
                        AND n2.n_name = '{}' AND l_shipdate >= DATE '1995-{:02}-01') \
                     AS shipping \
                     GROUP BY supp_nation, cust_nation ORDER BY supp_nation, cust_nation",
                    ["FRANCE", "GERMANY", "CHINA", "BRAZIL", "JAPAN"][i % 5],
                    ["GERMANY", "CHINA", "BRAZIL", "JAPAN", "FRANCE"][i % 5],
                    1 + i % 12
                )
            }),
        ),
        (
            "local-supplier-volume",
            many(&|i| {
                format!(
                    "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
                     FROM customer, orders, lineitem, supplier, nation, region \
                     WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
                       AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey \
                       AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
                       AND r_name = '{}' AND o_orderdate >= DATE '199{}-01-01' \
                     GROUP BY n_name ORDER BY revenue DESC",
                    regions[(i + 1) % regions.len()],
                    4 + i % 4
                )
            }),
        ),
        (
            "product-profit",
            many(&|i| {
                format!(
                    "SELECT nationname, SUM(amount) AS sum_profit FROM \
                     (SELECT n_name AS nationname, \
                             l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity \
                             AS amount \
                      FROM part, supplier, lineitem, partsupp, orders, nation \
                      WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey \
                        AND ps_partkey = l_partkey AND p_partkey = l_partkey \
                        AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey \
                        AND p_name LIKE '%{}%') AS profit \
                     GROUP BY nationname ORDER BY nationname",
                    colors[i % colors.len()]
                )
            }),
        ),
        (
            "market-share",
            many(&|i| {
                format!(
                    "SELECT o_year, SUM(volume) AS total FROM \
                     (SELECT YEAR(o_orderdate) AS o_year, \
                             l_extendedprice * (1 - l_discount) AS volume \
                      FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, \
                           region \
                      WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey \
                        AND l_orderkey = o_orderkey AND o_custkey = c_custkey \
                        AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey \
                        AND r_name = '{}' AND s_nationkey = n2.n_nationkey \
                        AND o_orderdate >= DATE '199{}-01-01') AS all_nations \
                     GROUP BY o_year ORDER BY o_year",
                    regions[(i + 3) % regions.len()],
                    5 + i % 3
                )
            }),
        ),
    ]
}

/// Per-template paired timing: the same statement's cold-compile cost and
/// front-end cost against its amortized cache-hit cost. Pairing per template
/// keeps the comparison honest — a cheap single-table statement is compared
/// with its own hits, not with another statement's.
#[derive(Debug, Clone)]
pub struct TemplateTiming {
    pub name: String,
    /// Best-of-3 full compile (parse + resolve + optimize), cache bypassed.
    pub cold: Duration,
    /// Best-of-3 front end alone (parse + set-op rewrite + resolve): what
    /// any compile pays before an optimizer sees the statement.
    pub front_end: Duration,
    /// Hit-path cost (fingerprint + lookup + rebind), amortized over the
    /// template's whole hot batch so timer jitter averages out.
    pub hit: Duration,
}

impl TemplateTiming {
    pub fn speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.hit.as_secs_f64().max(1e-9)
    }

    /// Hit cost as a fraction of the statement's own front-end cost.
    pub fn hit_over_front_end(&self) -> f64 {
        self.hit.as_secs_f64() / self.front_end.as_secs_f64().max(1e-9)
    }
}

/// What the plan-cache experiment measured.
#[derive(Debug, Clone)]
pub struct PlanCacheReport {
    /// Statement executions in the hot phase (all lookups).
    pub executions: usize,
    /// Distinct statement templates (= expected compile count).
    pub templates: usize,
    /// Engine cache counters after the hot phase (before DDL).
    pub stats: PlanCacheStats,
    /// Paired cold/hit timings, one per template.
    pub per_template: Vec<TemplateTiming>,
    /// Median cold-compile latency (cache miss: full optimize + refine).
    pub cold_compile: Duration,
    /// Median hit-path latency (fingerprint + lookup + rebind).
    pub hit_path: Duration,
    /// Optimizer invocations during the hot phase — a cache hit must skip
    /// memo exploration entirely, so this must be 0.
    pub optimizer_calls_hot: u64,
    /// Entries invalidated by the post-hot-phase DDL (ANALYZE).
    pub ddl_invalidations: u64,
    /// Whether cached-plan results matched fresh-compile results.
    pub results_match: bool,
}

impl PlanCacheReport {
    /// Median per-template speedup: the compile-once serve-many win for the
    /// typical statement of the mix.
    pub fn speedup(&self) -> f64 {
        median(self.per_template.iter().map(|t| t.speedup())).unwrap_or(0.0)
    }

    /// Median per-template hit cost as a fraction of the front-end cost.
    pub fn hit_over_front_end(&self) -> f64 {
        median(self.per_template.iter().map(|t| t.hit_over_front_end())).unwrap_or(f64::INFINITY)
    }

    /// The CI gate: every acceptance property, or the first violation.
    pub fn gate(&self) -> std::result::Result<(), String> {
        if self.stats.hit_rate() < 0.95 {
            return Err(format!("hit rate {:.3} < 0.95", self.stats.hit_rate()));
        }
        if self.optimizer_calls_hot != 0 {
            return Err(format!(
                "{} optimizer invocations during the hot phase: cache hits re-entered \
                 memo exploration",
                self.optimizer_calls_hot
            ));
        }
        // A hit must do no compile work, and the reference for that is the
        // statement's own front end, not its full compile: hit / front end
        // does not move when the optimizer gets faster or slower (the
        // cold/hit speedup in the table does, so it is reported, not gated).
        // A hit costs ≈ 0.45 of the front end; parsing is about half the
        // front end, so a hit that re-parsed would read ≈ 0.95 and one that
        // also re-resolved ≈ 1.45.
        if self.hit_over_front_end() > 0.75 {
            return Err(format!(
                "median per-template hit path is {:.2} of the statement's front end \
                 (bound 0.75; median hit {:?}): a hit is doing compile work",
                self.hit_over_front_end(),
                self.hit_path
            ));
        }
        if self.ddl_invalidations < self.templates as u64 {
            return Err(format!(
                "DDL invalidated {}/{} cached statements",
                self.ddl_invalidations, self.templates
            ));
        }
        if !self.results_match {
            return Err("cached-plan results diverged from fresh compiles".into());
        }
        Ok(())
    }
}

/// Run the plan-cache experiment: compile each template once, serve
/// `instances` literal variations per template from the cache, then ANALYZE
/// and observe the invalidation sweep. Fully offline and deterministic
/// (fixed mix, fixed catalog; only the timings vary run to run).
pub fn run_plan_cache(scale: Scale, instances: usize) -> PlanCacheReport {
    let Testbed { mut engine, orca, .. } = Testbed::new(Workload::TpcH, scale);
    let mix = plan_cache_mix(instances.max(2));
    let optimizer_calls = |o: &OrcaOptimizer| {
        let s = o.stats();
        s.routed + s.below_threshold + s.fallbacks
    };

    // Cold phase: the first instantiation of each template compiles and
    // populates the cache.
    for (name, stmts) in &mix {
        let (_, outcome) = engine.plan_cached(&stmts[0], &orca).expect(name);
        assert_eq!(outcome, mylite::CacheOutcome::Miss, "{name} was already cached");
    }

    // Correctness: a cached plan re-bound to fresh literals must return
    // exactly what a from-scratch compile of the same text returns.
    let results_match = mix.iter().take(4).all(|(name, stmts)| {
        let cached = engine.query_cached(&stmts[1], &orca).expect(name);
        let fresh = engine.query_with(&stmts[1], &orca).expect(name);
        canon_rows(&cached.rows, true) == canon_rows(&fresh.rows, true)
    });

    // Calibration: per-template cold-compile cost via `Engine::plan`, which
    // bypasses the cache (stats stay untouched). Best of 3 — the minimum is
    // the least scheduler-contaminated estimate of the true compile cost.
    let mut cold_times = Vec::with_capacity(mix.len());
    for (name, stmts) in &mix {
        let cold = (0..3)
            .map(|_| {
                let t = Instant::now();
                engine.plan(&stmts[0], &orca).expect(name);
                t.elapsed()
            })
            .min()
            .unwrap();
        cold_times.push(cold);
    }

    // The same statements through the front end only — no optimizer, so
    // this reference does not move when compiles get faster or slower.
    let front_end_times: Vec<Duration> = {
        let cat = engine.catalog();
        let front_end = |sql: &str| -> taurus_common::Result<()> {
            let Statement::Select(stmt) = parse(sql)? else { unreachable!("the mix is SELECTs") };
            resolve_union_branches(&cat, &rewrite_set_ops(stmt)?).map(drop)
        };
        mix.iter()
            .map(|(name, stmts)| {
                let best = (0..3).map(|_| {
                    let t = Instant::now();
                    front_end(&stmts[0]).expect(name);
                    t.elapsed()
                });
                best.min().unwrap()
            })
            .collect()
    };

    // Hot phase: every instantiation again — all hits, no optimizer calls.
    // Each template's batch is timed as one span so per-call timer jitter
    // amortizes over the whole batch.
    let calls_before = optimizer_calls(&orca);
    let mut hit_times = Vec::with_capacity(mix.len());
    let mut executions = 0usize;
    for (name, stmts) in &mix {
        let t = Instant::now();
        for s in stmts {
            let (_, outcome) = engine.plan_cached(s, &orca).expect(name);
            assert_eq!(outcome, mylite::CacheOutcome::Hit, "{name} missed in the hot phase");
        }
        hit_times.push(t.elapsed() / stmts.len() as u32);
        executions += stmts.len();
    }
    let optimizer_calls_hot = optimizer_calls(&orca) - calls_before;
    let stats = engine.plan_cache_stats();

    // DDL phase: ANALYZE publishes new statistics, bumping the catalog
    // version; every cached statement must re-compile on next use.
    let inval_before = stats.invalidations;
    engine.analyze();
    for (name, stmts) in &mix {
        engine.plan_cached(&stmts[0], &orca).expect(name);
    }
    let ddl_invalidations = engine.plan_cache_stats().invalidations - inval_before;

    let per_template: Vec<TemplateTiming> = mix
        .iter()
        .zip(cold_times.iter().zip(&front_end_times).zip(&hit_times))
        .map(|((name, _), ((&cold, &front_end), &hit))| TemplateTiming {
            name: name.to_string(),
            cold,
            front_end,
            hit,
        })
        .collect();
    PlanCacheReport {
        executions,
        templates: mix.len(),
        stats,
        per_template,
        cold_compile: median(cold_times).expect("the mix is not empty"),
        hit_path: median(hit_times).expect("the mix is not empty"),
        optimizer_calls_hot,
        ddl_invalidations,
        results_match,
    }
}

/// Format the plan-cache report as markdown (the `harness plancache` body).
pub fn format_plan_cache_report(r: &PlanCacheReport) -> String {
    let summary = md_table(
        "metric | value",
        [
            format!("statement templates | {}", r.templates),
            format!("hot-phase executions | {}", r.executions),
            format!(
                "cache hit rate | {:.1}% ({} hits / {} misses / {} invalidations)",
                r.stats.hit_rate() * 100.0,
                r.stats.hits,
                r.stats.misses,
                r.stats.invalidations
            ),
            format!("median cold compile | {:.3?}", r.cold_compile),
            format!("median hit path | {:.3?}", r.hit_path),
            format!("median per-template speedup | {:.1}x", r.speedup()),
            format!("median per-template hit / front end | {:.2}", r.hit_over_front_end()),
            format!("optimizer calls during hot phase | {}", r.optimizer_calls_hot),
            format!("entries invalidated by ANALYZE | {}", r.ddl_invalidations),
            format!("cached results match fresh compiles | {}", r.results_match),
        ],
    );
    let per_template = md_table(
        "template | cold compile | front end | hit path | speedup | hit / front end",
        r.per_template.iter().map(|t| {
            format!(
                "{} | {:.3?} | {:.3?} | {:.3?} | {:.1}x | {:.2}",
                t.name,
                t.cold,
                t.front_end,
                t.hit,
                t.speedup(),
                t.hit_over_front_end()
            )
        }),
    );
    format!("{summary}\n{per_template}")
}

/// The registry entry. 25 literal variations per template: enough to
/// amortize the compulsory misses past the 95% hit-rate gate.
pub fn run(env: &Env) -> Outcome {
    let r = run_plan_cache(env.scale, 25.max(env.reps));
    Outcome::gated(
        format_plan_cache_report(&r),
        r.gate(),
        "hits skip memo search; DDL invalidates entries",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_phase_serves_every_instance_from_the_cache() {
        let r = run_plan_cache(Scale(0.02), 25);
        assert_eq!(r.executions, r.templates * 25);
        let table = format_plan_cache_report(&r);
        assert!(table.contains("| cache hit rate |"), "{table}");
        assert!(table.contains("| optimizer calls during hot phase | 0 |"), "{table}");
        assert!(table.contains("| median per-template hit / front end |"), "{table}");
    }

    /// The timing bound follows the front end, not the optimizer: a compile
    /// that costs barely more than its front end (speedup ≈ 2x) still
    /// passes, a hit as dear as the front end fails whatever the compile
    /// costs.
    #[test]
    fn gate_bounds_the_hit_against_the_front_end_not_the_compile() {
        let mut r = run_plan_cache(Scale(0.02), 25);
        let us = Duration::from_micros;
        for t in &mut r.per_template {
            (t.cold, t.front_end, t.hit) = (us(22), us(20), us(9));
        }
        assert_eq!(r.gate(), Ok(()), "speedup {:.1}x", r.speedup());
        for t in &mut r.per_template {
            (t.cold, t.front_end, t.hit) = (us(2000), us(20), us(19));
        }
        let err = r.gate().unwrap_err();
        assert!(err.contains("0.95 of the statement's front end"), "{err}");
    }
}
