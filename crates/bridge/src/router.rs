//! The query router: the Orca detour as a pluggable optimizer backend.
//!
//! A statement is routed to Orca when its total table-reference count
//! reaches the *complex query threshold* (§4.1; default 3, set to 2 for the
//! paper's TPC-DS runs and 1 for the compile-overhead experiment). Only
//! `SELECT`s ever reach a cost-based optimizer in the host engine, matching
//! the paper's INSERT/UPDATE/DELETE exclusion.
//!
//! ## The never-fail detour
//!
//! The router guarantees that no query fails or hangs on the Orca path if
//! the native optimizer would have handled it (§4.2.1's transparent
//! fallback, hardened):
//!
//! * the entire detour runs under [`std::panic::catch_unwind`], so a bug
//!   anywhere in the converters or the optimizer core becomes a recorded
//!   fallback rather than a crashed statement;
//! * search effort is bounded by the config's [`SearchBudget`]; when a
//!   block exhausts it, the router walks a *degradation ladder* — retrying
//!   the block at EXHAUSTIVE, then GREEDY — before giving up on Orca;
//! * every converted skeleton passes a validation pass
//!   ([`crate::validate`]) before it is accepted;
//! * each fallback is attributed to a [`FallbackReason`], surfaced through
//!   [`RouterStats`] and the statement's `EXPLAIN` banner.
//!
//! [`SearchBudget`]: orcalite::config::SearchBudget

use crate::plan_converter::to_skeleton;
use crate::provider::MySqlMdProvider;
use crate::tree_converter::{convert_block, InnerEstimates};
use crate::validate::validate_skeleton;
use mylite::bound::{BoundQuery, BoundStatement, TableSource};
use mylite::engine::{CostBasedOptimizer, MySqlOptimizer};
use mylite::skeleton::{SearchTrace, Skeleton};
use orcalite::config::{FaultSite, JoinOrderStrategy, OrcaConfig};
use orcalite::desc::BlockDesc;
use orcalite::physical::{OrcaPlan, SearchStats};
use orcalite::MdCache;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use taurus_catalog::feedback::CardOverrides;
use taurus_catalog::Catalog;
use taurus_common::error::{Error, Result};
use taurus_common::sync::lock;

/// Why an Orca detour was abandoned for the native optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The detour hit a construct it does not support (or any unexpected
    /// error — the never-fail guarantee treats those identically).
    Unsupported,
    /// The search budget ran out at every rung of the degradation ladder.
    BudgetExhausted,
    /// A panic inside the detour was caught and isolated.
    Panicked,
    /// The converted skeleton failed the bridge's validation pass.
    InvalidSkeleton,
    /// Orca changed the query-block structure (§4.2.1), which MySQL's
    /// refinement cannot express.
    ChangedBlockStructure,
}

impl FallbackReason {
    pub const ALL: [FallbackReason; 5] = [
        FallbackReason::Unsupported,
        FallbackReason::BudgetExhausted,
        FallbackReason::Panicked,
        FallbackReason::InvalidSkeleton,
        FallbackReason::ChangedBlockStructure,
    ];

    /// Stable name used in EXPLAIN banners and the bench routing table.
    pub fn name(&self) -> &'static str {
        match self {
            FallbackReason::Unsupported => "unsupported",
            FallbackReason::BudgetExhausted => "budget-exhausted",
            FallbackReason::Panicked => "panicked",
            FallbackReason::InvalidSkeleton => "invalid-skeleton",
            FallbackReason::ChangedBlockStructure => "changed-block-structure",
        }
    }
}

/// Per-reason fallback counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FallbackCounts {
    pub unsupported: u64,
    pub budget_exhausted: u64,
    pub panicked: u64,
    pub invalid_skeleton: u64,
    pub changed_block_structure: u64,
}

impl FallbackCounts {
    pub fn get(&self, reason: FallbackReason) -> u64 {
        match reason {
            FallbackReason::Unsupported => self.unsupported,
            FallbackReason::BudgetExhausted => self.budget_exhausted,
            FallbackReason::Panicked => self.panicked,
            FallbackReason::InvalidSkeleton => self.invalid_skeleton,
            FallbackReason::ChangedBlockStructure => self.changed_block_structure,
        }
    }

    pub fn total(&self) -> u64 {
        FallbackReason::ALL.iter().map(|r| self.get(*r)).sum()
    }

    fn bump(&mut self, reason: FallbackReason) {
        match reason {
            FallbackReason::Unsupported => self.unsupported += 1,
            FallbackReason::BudgetExhausted => self.budget_exhausted += 1,
            FallbackReason::Panicked => self.panicked += 1,
            FallbackReason::InvalidSkeleton => self.invalid_skeleton += 1,
            FallbackReason::ChangedBlockStructure => self.changed_block_structure += 1,
        }
    }
}

/// Routing counters (inspected by tests and the bench harness). Each
/// statement the router planned lands in exactly one of `routed`,
/// `below_threshold` and `fallbacks`; what happens at execution is the
/// engine's to count ([`mylite::Engine::governed_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouterStats {
    /// Statements optimized by Orca end to end.
    pub routed: u64,
    /// Statements below the complex-query threshold (MySQL handled them).
    pub below_threshold: u64,
    /// Orca detours aborted mid-way (MySQL fallback) — the sum of
    /// `reasons`.
    pub fallbacks: u64,
    /// Fallbacks attributed to their cause.
    pub reasons: FallbackCounts,
    /// Blocks that exhausted their budget but completed on Orca at a
    /// cheaper rung of the degradation ladder (not fallbacks).
    pub degraded: u64,
    /// Cumulative search effort over every Orca optimization this router
    /// performed (groups, group expressions, rules, plans costed).
    pub search: SearchStats,
}

/// Classify a detour error: budget errors keep their identity; everything
/// else is "the detour could not handle it".
fn classify(err: Error) -> FallbackReason {
    if err.is_resource_exhausted() {
        FallbackReason::BudgetExhausted
    } else {
        FallbackReason::Unsupported
    }
}

/// Search-effort accumulator threaded through a statement's blocks: summed
/// memo statistics plus the deepest degradation-ladder rung any block
/// needed and the strategy that won there, as it ran.
struct TraceAcc {
    stats: SearchStats,
    rung: usize,
    strategy: Cow<'static, str>,
}

impl TraceAcc {
    /// Finalize into the skeleton-attached [`SearchTrace`]. Budget use is
    /// the larger of the groups and plans-costed fractions against the
    /// *configured* budget (a fault-squeezed budget still reports against
    /// the configured one — the trace describes the session's settings).
    fn into_trace(self, cfg: &OrcaConfig, md_traffic: (u64, u64)) -> SearchTrace {
        let frac = |used: f64, cap: f64| if cap <= 0.0 { 1.0 } else { (used / cap).min(1.0) };
        let budget_used = frac(self.stats.groups as f64, cfg.budget.max_groups as f64)
            .max(frac(self.stats.plans_costed as f64, cfg.budget.max_plans_costed as f64));
        SearchTrace {
            groups: self.stats.groups,
            group_exprs: self.stats.splits_explored,
            rules_applied: self.stats.rules_applied,
            rules_hit: self.stats.rules_hit,
            plans_costed: self.stats.plans_costed,
            budget_used,
            rung: self.rung,
            strategy: self.strategy,
            md_traffic,
        }
    }
}

/// Stable strategy names for traces and banners.
fn strategy_name(s: JoinOrderStrategy) -> &'static str {
    match s {
        JoinOrderStrategy::Greedy => "GREEDY",
        JoinOrderStrategy::Exhaustive => "EXHAUSTIVE",
        JoinOrderStrategy::Exhaustive2 => "EXHAUSTIVE2",
    }
}

/// A rung's strategy as the trace names it. The memo runs EXHAUSTIVE2 as
/// left-deep DP above `bushy_member_cap`; such a block names both.
fn ran_as(rung: JoinOrderStrategy, ran: JoinOrderStrategy, cap: usize) -> Cow<'static, str> {
    if rung == ran {
        Cow::Borrowed(strategy_name(rung))
    } else {
        Cow::Owned(format!("{}→{}(cap {cap})", strategy_name(rung), strategy_name(ran)))
    }
}

/// The degradation ladder: the configured strategy first, then each
/// cheaper strategy, tried in order when the search budget runs out.
fn ladder(strategy: JoinOrderStrategy) -> &'static [JoinOrderStrategy] {
    use JoinOrderStrategy::{Exhaustive, Exhaustive2, Greedy};
    match strategy {
        Exhaustive2 => &[Exhaustive2, Exhaustive, Greedy],
        Exhaustive => &[Exhaustive, Greedy],
        Greedy => &[Greedy],
    }
}

/// The Orca-backed cost-based optimizer. It keeps no per-statement state:
/// what one statement's planning found rides on its skeleton
/// (`orca_fallback`, `search`); the router keeps only routing counters.
pub struct OrcaOptimizer {
    pub config: OrcaConfig,
    /// The §4.1 "complex query threshold": minimum table-reference count
    /// for the Orca detour.
    pub complex_query_threshold: usize,
    routed: AtomicU64,
    below: AtomicU64,
    reasons: Mutex<FallbackCounts>,
    degraded: AtomicU64,
    total_search: Mutex<SearchStats>,
}

impl Default for OrcaOptimizer {
    fn default() -> Self {
        OrcaOptimizer::new(OrcaConfig::default(), 3)
    }
}

impl OrcaOptimizer {
    pub fn new(config: OrcaConfig, complex_query_threshold: usize) -> Self {
        OrcaOptimizer {
            config,
            complex_query_threshold,
            routed: AtomicU64::new(0),
            below: AtomicU64::new(0),
            reasons: Mutex::new(FallbackCounts::default()),
            degraded: AtomicU64::new(0),
            total_search: Mutex::new(SearchStats::default()),
        }
    }

    pub fn stats(&self) -> RouterStats {
        let reasons = *lock(&self.reasons);
        RouterStats {
            routed: self.routed.load(Ordering::Relaxed),
            below_threshold: self.below.load(Ordering::Relaxed),
            fallbacks: reasons.total(),
            reasons,
            degraded: self.degraded.load(Ordering::Relaxed),
            search: *lock(&self.total_search),
        }
    }

    fn orca_optimize(
        &self,
        catalog: &Catalog,
        bound: &BoundStatement,
        fb: Option<&CardOverrides>,
    ) -> std::result::Result<Skeleton, FallbackReason> {
        let provider = MySqlMdProvider::new(catalog);
        // One metadata cache for the whole statement: all blocks and all
        // degradation-ladder rungs share it, so the provider is consulted
        // at most once per (relation, statistics, indexes) key (§5.7); its
        // traffic rides on the trace.
        let md = MdCache::new(&provider);
        // Observed-cardinality overrides ride the metadata cache: the memo
        // search consults them before the statistics-based estimates.
        if let Some(fb) = fb {
            md.set_overrides(Some(Arc::new(fb.clone())));
        }
        let mut acc = TraceAcc {
            stats: SearchStats::default(),
            rung: 0,
            strategy: Cow::Borrowed(strategy_name(self.config.strategy)),
        };
        let mut skeleton = self.optimize_block(
            bound,
            &provider,
            &md,
            &bound.root,
            &BTreeSet::new(),
            fb,
            &mut acc,
        )?;
        *lock(&self.total_search) += acc.stats;
        skeleton.search = Some(acc.into_trace(&self.config, md.traffic()));
        Ok(skeleton)
    }

    /// Optimize one block, retrying cheaper strategies when the budget
    /// runs out. Returns the winning plan plus the ladder rung and
    /// strategy that produced it, or a budget failure once every rung has
    /// been exhausted.
    fn optimize_with_ladder(
        &self,
        desc: &BlockDesc,
        md: &MdCache<'_>,
    ) -> std::result::Result<(OrcaPlan, usize, JoinOrderStrategy), FallbackReason> {
        for (rung, &strategy) in ladder(self.config.strategy).iter().enumerate() {
            let cfg = OrcaConfig { strategy, ..self.config.clone() };
            match orcalite::optimize_block_cached(desc, md, &cfg) {
                Ok(plan) => {
                    if rung > 0 {
                        self.degraded.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok((plan, rung, strategy));
                }
                Err(e) if e.is_resource_exhausted() => {}
                Err(e) => return Err(classify(e)),
            }
        }
        // Every rung exhausted the budget.
        Err(FallbackReason::BudgetExhausted)
    }

    #[allow(clippy::too_many_arguments)]
    fn optimize_block(
        &self,
        bound: &BoundStatement,
        provider: &MySqlMdProvider<'_>,
        md: &MdCache<'_>,
        block: &BoundQuery,
        outer: &BTreeSet<usize>,
        fb: Option<&CardOverrides>,
        acc: &mut TraceAcc,
    ) -> std::result::Result<Skeleton, FallbackReason> {
        let faults = &self.config.faults;
        // Derived members' inner blocks first (bottom-up).
        let mut inner_estimates = InnerEstimates::new();
        let mut inner_skeletons: HashMap<usize, Skeleton> = HashMap::new();
        let mut inner_outer = outer.clone();
        inner_outer.extend(block.member_qts());
        for m in &block.members {
            if let TableSource::Derived { query, .. } = &bound.table(m.qt).source {
                let sk = self.optimize_block(bound, provider, md, query, &inner_outer, fb, acc)?;
                // Adjust the join-root estimate for the block's aggregation
                // and limit — same numbers the native optimizer sees. An
                // observed cardinality for the derived table itself wins
                // over both (it already includes HAVING and LIMIT).
                let rows =
                    fb.and_then(|f| f.rel_singleton(m.qt)).map(|r| r.max(1.0)).unwrap_or_else(
                        || mylite::optimizer::derived_output_rows_fb(query, sk.root.rows(), fb),
                    );
                inner_estimates.insert(m.qt, (rows, sk.root.cost()));
                inner_skeletons.insert(m.qt, sk);
            }
        }

        faults.fire(FaultSite::TreeConvert).map_err(classify)?;
        let (desc, _oids) =
            convert_block(bound, block, provider, &inner_estimates, outer).map_err(classify)?;

        let (plan, rung, strategy) = self.optimize_with_ladder(&desc, md)?;
        acc.stats += plan.stats;
        // The statement's trace reports the deepest rung any block needed,
        // and among its blocks a capped one.
        if rung > acc.rung || (rung == acc.rung && plan.strategy != strategy) {
            acc.rung = rung;
            acc.strategy = ran_as(strategy, plan.strategy, self.config.bushy_member_cap);
        }
        if plan.changed_block_structure {
            return Err(FallbackReason::ChangedBlockStructure); // §4.2.1
        }

        faults.fire(FaultSite::PlanConvert).map_err(classify)?;
        // The plan converter's own fallback errors are exactly its
        // block-structure checks; anything else is unexpected.
        let skeleton = to_skeleton(&plan, block, &inner_skeletons).map_err(|e| match e {
            Error::OrcaFallback(_) => FallbackReason::ChangedBlockStructure,
            _ => FallbackReason::Unsupported,
        })?;

        faults
            .fire(FaultSite::SkeletonValidate)
            .and_then(|()| validate_skeleton(&skeleton, block, bound))
            .map_err(|_| FallbackReason::InvalidSkeleton)?;
        Ok(skeleton)
    }

    /// The routing decision shared by `optimize` and
    /// `optimize_with_feedback`: threshold check, panic-isolated Orca
    /// detour, attributed native fallback.
    fn route(
        &self,
        catalog: &Catalog,
        bound: &BoundStatement,
        fb: Option<&CardOverrides>,
    ) -> Result<Skeleton> {
        let native = |catalog: &Catalog, bound: &BoundStatement| match fb {
            Some(o) => MySqlOptimizer.optimize_with_feedback(catalog, bound, o),
            None => MySqlOptimizer.optimize(catalog, bound),
        };
        // Query complexity = total table references (§4.1).
        if bound.num_tables() < self.complex_query_threshold {
            self.below.fetch_add(1, Ordering::Relaxed);
            return native(catalog, bound);
        }
        // The whole detour is panic-isolated: `OrcaOptimizer` only holds
        // atomics and mutex-guarded plain counters (locks are recovered
        // from poisoning), so observing a partially-updated state after an
        // unwind is benign, which is what makes the `AssertUnwindSafe`
        // sound.
        let attempt = catch_unwind(AssertUnwindSafe(|| self.orca_optimize(catalog, bound, fb)));
        let reason = match attempt {
            Ok(Ok(skeleton)) => {
                self.routed.fetch_add(1, Ordering::Relaxed);
                return Ok(skeleton);
            }
            Ok(Err(reason)) => reason,
            Err(_) => FallbackReason::Panicked,
        };
        lock(&self.reasons).bump(reason);
        let mut skeleton = native(catalog, bound)?;
        skeleton.orca_fallback = Some(reason.name().to_string());
        Ok(skeleton)
    }
}

impl CostBasedOptimizer for OrcaOptimizer {
    fn name(&self) -> &'static str {
        "mysql+orca"
    }

    fn optimize(&self, catalog: &Catalog, bound: &BoundStatement) -> Result<Skeleton> {
        self.route(catalog, bound, None)
    }

    /// Feedback-driven re-optimization takes the same detour with the
    /// observed cardinalities installed on the statement's metadata cache;
    /// the native fallback consumes them too, so the re-optimized plan is
    /// feedback-aware whichever optimizer produces it.
    fn optimize_with_feedback(
        &self,
        catalog: &Catalog,
        bound: &BoundStatement,
        fb: &CardOverrides,
    ) -> Result<Skeleton> {
        self.route(catalog, bound, Some(fb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mylite::Engine;
    use taurus_catalog::stats::AnalyzeOptions;
    use taurus_common::{Column, DataType, Schema, Value};

    fn engine() -> Engine {
        let mut cat = Catalog::new();
        let fact = cat
            .create_table(
                "fact",
                Schema::new(vec![
                    Column::new("fk", DataType::Int),
                    Column::new("k2", DataType::Int),
                    Column::new("v", DataType::Int),
                ]),
            )
            .unwrap();
        cat.insert(
            fact,
            (0..2000).map(|i| vec![Value::Int(i % 40), Value::Int(i % 25), Value::Int(i)]),
        )
        .unwrap();
        cat.create_index(fact, "fact_fk", vec![0], false).unwrap();
        let dim1 = cat
            .create_table(
                "dim1",
                Schema::new(vec![
                    Column::new("pk", DataType::Int),
                    Column::new("name", DataType::Str),
                ]),
            )
            .unwrap();
        cat.insert(dim1, (0..40).map(|i| vec![Value::Int(i), Value::str(format!("a{i}"))]))
            .unwrap();
        cat.create_index(dim1, "dim1_pk", vec![0], true).unwrap();
        let dim2 = cat
            .create_table(
                "dim2",
                Schema::new(vec![
                    Column::new("pk2", DataType::Int),
                    Column::new("name2", DataType::Str),
                ]),
            )
            .unwrap();
        cat.insert(dim2, (0..25).map(|i| vec![Value::Int(i), Value::str(format!("b{i}"))]))
            .unwrap();
        cat.create_index(dim2, "dim2_pk", vec![0], true).unwrap();
        cat.analyze_all(&AnalyzeOptions::default());
        Engine::new(cat)
    }

    const THREE_WAY: &str = "SELECT v, name, name2 FROM fact, dim1, dim2 \
                             WHERE fk = pk AND k2 = pk2 AND v < 500";

    /// The search trace `sql`'s routed plan carries.
    fn routed_trace(e: &Engine, sql: &str, orca: &OrcaOptimizer) -> SearchTrace {
        let planned = e.plan(sql, orca).unwrap();
        planned.primary().skeleton.search.clone().expect("a routed plan carries a trace")
    }

    fn plans_costed(e: &Engine, orca: &OrcaOptimizer) -> u64 {
        routed_trace(e, THREE_WAY, orca).plans_costed
    }

    #[test]
    fn routed_query_gets_orca_assisted_skeleton() {
        let e = engine();
        let orca = OrcaOptimizer::default();
        let planned = e.plan(THREE_WAY, &orca).unwrap();
        assert!(planned.primary().skeleton.orca_assisted);
        assert_eq!(orca.stats().routed, 1);
        assert!(planned.primary().skeleton.search.as_ref().unwrap().groups > 0);
    }

    #[test]
    fn threshold_keeps_short_queries_on_mysql() {
        let e = engine();
        let orca = OrcaOptimizer::default(); // threshold 3
        let planned = e.plan("SELECT v FROM fact WHERE v < 10", &orca).unwrap();
        assert!(!planned.primary().skeleton.orca_assisted);
        assert_eq!(orca.stats().below_threshold, 1);
        // Threshold 1 routes everything (the Table 1 setting).
        let orca1 = OrcaOptimizer::new(OrcaConfig::default(), 1);
        let planned = e.plan("SELECT v FROM fact WHERE v < 10", &orca1).unwrap();
        assert!(planned.primary().skeleton.orca_assisted);
    }

    #[test]
    fn results_agree_between_optimizers() {
        let e = engine();
        let orca = OrcaOptimizer::default();
        let mysql_out = e.query(THREE_WAY).unwrap();
        let orca_out = e.query_with(THREE_WAY, &orca).unwrap();
        let mut a = mysql_out.rows.clone();
        let mut b = orca_out.rows.clone();
        let key = |r: &Vec<Value>| format!("{r:?}");
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b, "plan choice must not change results");
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn gbagg_rule_triggers_fallback_to_mysql() {
        let e = engine();
        let cfg = OrcaConfig { enable_gbagg_below_join: true, ..OrcaConfig::default() };
        let orca = OrcaOptimizer::new(cfg, 1);
        let sql = "SELECT name, COUNT(*) AS n FROM fact, dim1 WHERE fk = pk GROUP BY name";
        let planned = e.plan(sql, &orca).unwrap();
        // Fallback: plan is NOT Orca-assisted, and the counters show why.
        assert!(!planned.primary().skeleton.orca_assisted);
        assert_eq!(orca.stats().fallbacks, 1);
        assert_eq!(orca.stats().reasons.changed_block_structure, 1);
        assert_eq!(orca.stats().reasons.total(), orca.stats().fallbacks);
        assert_eq!(
            planned.primary().skeleton.orca_fallback.as_deref(),
            Some("changed-block-structure")
        );
        // And it still executes correctly.
        let out = e.execute_planned(&planned).unwrap();
        assert_eq!(out.rows.len(), 40);
    }

    #[test]
    fn fallback_reason_shows_in_explain_banner() {
        let e = engine();
        let cfg = OrcaConfig { enable_gbagg_below_join: true, ..OrcaConfig::default() };
        let orca = OrcaOptimizer::new(cfg, 1);
        let sql = "SELECT name, COUNT(*) AS n FROM fact, dim1 WHERE fk = pk GROUP BY name";
        let text = e.explain(sql, &orca).unwrap();
        assert!(text.starts_with("EXPLAIN (ORCA fallback: changed-block-structure)"), "{text}");
    }

    #[test]
    fn budget_ladder_rescues_capped_join() {
        use orcalite::config::SearchBudget;
        let e = engine();
        // Measure the efforts of left-deep DP vs greedy on the same join.
        let effort = |strategy| {
            let orca = OrcaOptimizer::new(OrcaConfig::with_strategy(strategy), 1);
            plans_costed(&e, &orca)
        };
        let dp = effort(JoinOrderStrategy::Exhaustive);
        let greedy = effort(JoinOrderStrategy::Greedy);
        assert!(greedy + 4 <= dp, "ladder premise: greedy ({greedy}) ≪ DP ({dp})");
        // A join whose member count exceeds the bushy cap, under a budget
        // only greedy fits: the ladder (EXHAUSTIVE2→EXHAUSTIVE→GREEDY)
        // completes the block on Orca instead of falling back to MySQL.
        let cfg = OrcaConfig {
            bushy_member_cap: 2, // THREE_WAY has 3 members
            budget: SearchBudget { max_groups: usize::MAX, max_plans_costed: greedy },
            ..OrcaConfig::default()
        };
        let orca = OrcaOptimizer::new(cfg, 1);
        let planned = e.plan(THREE_WAY, &orca).unwrap();
        assert!(planned.primary().skeleton.orca_assisted, "rescued, not fallen back");
        let stats = orca.stats();
        assert_eq!(stats.fallbacks, 0);
        assert!(stats.degraded >= 1, "{stats:?}");
        // The rescued plan still returns correct rows.
        let out = e.execute_planned(&planned).unwrap();
        assert_eq!(out.rows.len(), 500);
    }

    #[test]
    fn md_cache_spans_ladder_rungs_and_blocks() {
        use orcalite::config::SearchBudget;
        let e = engine();
        // Same ladder scenario as above: two rungs actually run, but the
        // provider is consulted at most once per metadata key — THREE_WAY
        // touches 3 relations × (relation, statistics, indexes) = 9 keys.
        let greedy = {
            let orca = OrcaOptimizer::new(OrcaConfig::with_strategy(JoinOrderStrategy::Greedy), 1);
            plans_costed(&e, &orca)
        };
        let cfg = OrcaConfig {
            bushy_member_cap: 2,
            budget: SearchBudget { max_groups: usize::MAX, max_plans_costed: greedy },
            ..OrcaConfig::default()
        };
        let orca = OrcaOptimizer::new(cfg, 1);
        let (misses, hits) = routed_trace(&e, THREE_WAY, &orca).md_traffic;
        assert!(orca.stats().degraded >= 1, "two rungs must have run");
        assert!(misses <= 9, "ladder rungs re-queried the provider: {misses} round-trips");
        assert!(hits > 0, "later rungs should be served from the statement cache");
        // Cross-block reuse: a correlated subquery optimizes two blocks
        // over the same relation; the second block's metadata is free.
        let sql = "SELECT fk FROM fact WHERE v > \
                   (SELECT AVG(v) FROM fact f2 WHERE f2.fk = fact.fk) AND fk < 3";
        let orca = OrcaOptimizer::new(OrcaConfig::default(), 1);
        let (misses, hits) = routed_trace(&e, sql, &orca).md_traffic;
        assert!(misses <= 3, "one relation's keys only: {misses}");
        assert!(hits > 0);
    }

    #[test]
    fn exhausted_ladder_falls_back_with_budget_reason() {
        use orcalite::config::SearchBudget;
        let e = engine();
        let cfg = OrcaConfig {
            budget: SearchBudget { max_groups: 1, max_plans_costed: 0 },
            ..OrcaConfig::default()
        };
        let orca = OrcaOptimizer::new(cfg, 1);
        let planned = e.plan(THREE_WAY, &orca).unwrap();
        assert!(!planned.primary().skeleton.orca_assisted);
        assert_eq!(orca.stats().reasons.budget_exhausted, 1);
        assert_eq!(
            planned.primary().skeleton.orca_fallback.as_deref(),
            Some(FallbackReason::BudgetExhausted.name())
        );
        assert_eq!(e.execute_planned(&planned).unwrap().rows.len(), 500);
    }

    #[test]
    fn correlated_subquery_roundtrip_through_orca() {
        let e = engine();
        let orca = OrcaOptimizer::new(OrcaConfig::default(), 1);
        let sql = "SELECT fk FROM fact WHERE v > \
                   (SELECT AVG(v) FROM fact f2 WHERE f2.fk = fact.fk) AND fk < 3";
        let mysql_out = e.query(sql).unwrap();
        let orca_out = e.query_with(sql, &orca).unwrap();
        assert_eq!(mysql_out.rows.len(), orca_out.rows.len());
        assert!(orca.stats().routed >= 1);
    }

    // Sessions on several threads may share one router; the counters are
    // atomics/mutexes so the optimizer is Sync.
    const _: () = {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OrcaOptimizer>();
    };

    #[test]
    fn concurrent_routing_keeps_counters_consistent() {
        let e = engine();
        let orca = OrcaOptimizer::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..3 {
                        let planned = e.plan(THREE_WAY, &orca).unwrap();
                        assert!(planned.primary().skeleton.orca_assisted);
                    }
                });
            }
        });
        let stats = orca.stats();
        assert_eq!(stats.routed, 12);
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn explain_banner_shows_orca() {
        let e = engine();
        let orca = OrcaOptimizer::default();
        let text = e.explain(THREE_WAY, &orca).unwrap();
        assert!(text.starts_with("EXPLAIN (ORCA)"), "{text}");
    }

    #[test]
    fn search_trace_attached_to_routed_skeleton() {
        let e = engine();
        let orca = OrcaOptimizer::default();
        let planned = e.plan(THREE_WAY, &orca).unwrap();
        let trace = planned.primary().skeleton.search.clone().expect("detour attaches a trace");
        assert!(trace.groups > 0, "{trace:?}");
        assert!(trace.group_exprs > 0, "{trace:?}");
        assert!(trace.plans_costed > 0, "{trace:?}");
        assert_eq!(trace.rung, 0, "configured strategy succeeded outright");
        assert_eq!(trace.strategy, "EXHAUSTIVE2");
        assert!(trace.budget_used > 0.0 && trace.budget_used <= 1.0, "{trace:?}");
        // Cumulative counters in RouterStats match after a single route.
        let s = orca.stats();
        assert_eq!(s.search.groups, trace.groups);
        assert_eq!(s.search.plans_costed, trace.plans_costed);
        // The trace renders as its own line right after the EXPLAIN banner.
        let text = e.explain(THREE_WAY, &orca).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("EXPLAIN (ORCA)"));
        let trace_line = lines.next().unwrap();
        assert!(trace_line.starts_with("[search: strategy=EXHAUSTIVE2 rung=0 "), "{trace_line}");
        // Above `bushy_member_cap` EXHAUSTIVE2 runs as left-deep DP, and the
        // trace names the strategy that ran, not only the configured rung.
        let capped =
            OrcaOptimizer::new(OrcaConfig { bushy_member_cap: 2, ..OrcaConfig::default() }, 1);
        let text = e.explain(THREE_WAY, &capped).unwrap();
        let trace_line = text.lines().nth(1).unwrap();
        assert!(
            trace_line.starts_with("[search: strategy=EXHAUSTIVE2→EXHAUSTIVE(cap 2) rung=0 "),
            "{trace_line}"
        );
        let left_deep =
            OrcaOptimizer::new(OrcaConfig::with_strategy(JoinOrderStrategy::Exhaustive), 1);
        let (capped, left_deep) =
            (routed_trace(&e, THREE_WAY, &capped), routed_trace(&e, THREE_WAY, &left_deep));
        assert_eq!(capped.strategy, "EXHAUSTIVE2→EXHAUSTIVE(cap 2)");
        assert_eq!(
            capped.group_exprs, left_deep.group_exprs,
            "the capped block searched left-deep"
        );
    }

    #[test]
    fn ladder_rescue_is_visible_in_trace() {
        use orcalite::config::SearchBudget;
        let e = engine();
        let greedy = {
            let orca = OrcaOptimizer::new(OrcaConfig::with_strategy(JoinOrderStrategy::Greedy), 1);
            plans_costed(&e, &orca)
        };
        let cfg = OrcaConfig {
            bushy_member_cap: 2,
            budget: SearchBudget { max_groups: usize::MAX, max_plans_costed: greedy },
            ..OrcaConfig::default()
        };
        let orca = OrcaOptimizer::new(cfg, 1);
        let planned = e.plan(THREE_WAY, &orca).unwrap();
        let trace = planned.primary().skeleton.search.clone().expect("trace on rescued plan");
        assert!(trace.rung >= 1, "rescue came from a lower rung: {trace:?}");
        assert_eq!(trace.strategy, "GREEDY");
        // Exhausted rungs abort without partial stats; the trace carries
        // the winning (greedy) rung's effort, which fits the budget.
        assert!(
            trace.plans_costed > 0 && trace.plans_costed <= greedy,
            "winning rung fits the budget: {trace:?}"
        );
        assert!(trace.budget_used > 0.9, "greedy landed at the budget edge: {trace:?}");
    }

    #[test]
    fn native_optimizer_has_no_trace() {
        let e = engine();
        let planned = e.plan(THREE_WAY, &mylite::MySqlOptimizer).unwrap();
        assert!(planned.primary().skeleton.search.is_none());
        let text = e.explain(THREE_WAY, &mylite::MySqlOptimizer).unwrap();
        assert!(!text.contains("[search:"), "{text}");
    }
}
