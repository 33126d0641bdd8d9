//! The two catalogs the benchmark serves from, built the way a user would:
//! `Engine::new` on the generated catalog, `ANALYZE`, default session
//! options, and the Orca detour behind the paper's thresholds. Nothing here
//! sets an engine knob.

use mylite::{Engine, PlanCacheStats, PlannedQuery};
use orcalite::OrcaConfig;
use std::sync::Arc;
use std::time::Instant;
use taurus_bridge::{OrcaOptimizer, RouterStats};
use taurus_workloads::{tpcds, tpch, Scale};

/// Data size of every workload: lineitem 4 000 rows, store_sales 8 000.
pub const SCALE: Scale = Scale(1.0);

/// One catalog with its engine and its router. Shared pointers because the
/// server takes them; the in-process workloads just deref.
pub struct Side {
    pub engine: Arc<Engine>,
    pub orca: Arc<OrcaOptimizer>,
    pub build_s: f64,
    pub analyze_s: f64,
}

impl Side {
    fn new(threshold: usize, build: fn(Scale) -> taurus_catalog::Catalog) -> Side {
        let t = Instant::now();
        let catalog = build(SCALE);
        let build_s = t.elapsed().as_secs_f64();
        let mut engine = Engine::new(catalog);
        let t = Instant::now();
        engine.analyze();
        let analyze_s = t.elapsed().as_secs_f64();
        Side {
            engine: Arc::new(engine),
            orca: Arc::new(OrcaOptimizer::new(OrcaConfig::default(), threshold)),
            build_s,
            analyze_s,
        }
    }

    /// TPC-H behind complex-query threshold 3 (the paper's setting).
    pub fn tpch() -> Side {
        Side::new(3, tpch::build_catalog)
    }

    /// TPC-DS behind complex-query threshold 2 (the paper's setting).
    pub fn tpcds() -> Side {
        Side::new(2, tpcds::build_catalog)
    }

    /// Rows stored across all tables.
    pub fn rows_total(&self) -> u64 {
        self.engine.catalog().tables().iter().map(|t| t.num_rows() as u64).sum()
    }
}

/// Index of each side in a `[Side; 2]`.
pub const TPCH: usize = 0;
pub const TPCDS: usize = 1;

pub fn both_sides() -> [Side; 2] {
    [Side::tpch(), Side::tpcds()]
}

/// One of the 121 benchmark statements.
pub struct Template {
    pub side: usize,
    /// Golden-file key, `tpch/q1` … `tpcds/q99`.
    pub key: String,
    pub sql: String,
}

/// All 22 TPC-H and 99 TPC-DS statements, TPC-H first.
pub fn templates() -> Vec<Template> {
    let h = tpch::queries().into_iter().map(|q| (TPCH, "tpch", q));
    let ds = tpcds::queries().into_iter().map(|q| (TPCDS, "tpcds", q));
    h.chain(ds)
        .map(|(side, suite, q)| Template { side, key: format!("{suite}/{}", q.name), sql: q.sql })
        .collect()
}

/// How the router disposed of a compiled statement, one word per union
/// branch: `routed` (Orca produced the plan), `fallback` (the detour was
/// abandoned) or `below` (under the complex-query threshold).
pub fn route_of(planned: &PlannedQuery) -> String {
    let words: Vec<&str> = planned
        .branches
        .iter()
        .map(|b| match (b.skeleton.orca_assisted, &b.skeleton.orca_fallback) {
            (true, _) => "routed",
            (false, Some(_)) => "fallback",
            (false, None) => "below",
        })
        .collect();
    words.join("+")
}

/// Sum the sides' router counters (one figure per layer is reported).
pub fn merge_router(sides: &[Side]) -> RouterStats {
    let mut sum = RouterStats::default();
    for s in sides.iter().map(|s| s.orca.stats()) {
        sum.routed += s.routed;
        sum.below_threshold += s.below_threshold;
        sum.fallbacks += s.fallbacks;
        sum.degraded += s.degraded;
        sum.search.groups += s.search.groups;
        sum.search.splits_explored += s.search.splits_explored;
        sum.search.plans_costed += s.search.plans_costed;
        sum.search.rules_applied += s.search.rules_applied;
        sum.search.rules_hit += s.search.rules_hit;
    }
    sum
}

/// Sum the sides' plan-cache counters.
pub fn merge_cache(sides: &[Side]) -> PlanCacheStats {
    let mut sum = PlanCacheStats::default();
    for s in sides.iter().map(|s| s.engine.plan_cache_stats()) {
        sum.hits += s.hits;
        sum.misses += s.misses;
        sum.invalidations += s.invalidations;
        sum.insertions += s.insertions;
        sum.evictions += s.evictions;
    }
    sum
}
