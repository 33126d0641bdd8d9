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
use mylite::engine::{CostBasedOptimizer, ExecFaults, GovernedOutcome, MySqlOptimizer};
use mylite::skeleton::{SearchTrace, Skeleton};
use orcalite::config::{FaultSite, JoinOrderStrategy, OrcaConfig};
use orcalite::desc::BlockDesc;
use orcalite::physical::{OrcaPlan, SearchStats};
use orcalite::MdCache;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use taurus_catalog::feedback::CardOverrides;
use taurus_catalog::Catalog;
use taurus_common::error::{Error, Result};

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
    /// Execution (not planning) exceeded its memory budget even after the
    /// engine's serial-retry degradation rung — the governor gave up on the
    /// statement. Recorded here so resource abandonment shares the fallback
    /// taxonomy the routing report and EXPLAIN banners already surface.
    MemoryExceeded,
}

impl FallbackReason {
    pub const ALL: [FallbackReason; 6] = [
        FallbackReason::Unsupported,
        FallbackReason::BudgetExhausted,
        FallbackReason::Panicked,
        FallbackReason::InvalidSkeleton,
        FallbackReason::ChangedBlockStructure,
        FallbackReason::MemoryExceeded,
    ];

    /// Stable name used in EXPLAIN banners and the bench routing table.
    pub fn name(&self) -> &'static str {
        match self {
            FallbackReason::Unsupported => "unsupported",
            FallbackReason::BudgetExhausted => "budget-exhausted",
            FallbackReason::Panicked => "panicked",
            FallbackReason::InvalidSkeleton => "invalid-skeleton",
            FallbackReason::ChangedBlockStructure => "changed-block-structure",
            FallbackReason::MemoryExceeded => "memory-exceeded",
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
    pub memory_exceeded: u64,
}

impl FallbackCounts {
    pub fn get(&self, reason: FallbackReason) -> u64 {
        match reason {
            FallbackReason::Unsupported => self.unsupported,
            FallbackReason::BudgetExhausted => self.budget_exhausted,
            FallbackReason::Panicked => self.panicked,
            FallbackReason::InvalidSkeleton => self.invalid_skeleton,
            FallbackReason::ChangedBlockStructure => self.changed_block_structure,
            FallbackReason::MemoryExceeded => self.memory_exceeded,
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
            FallbackReason::MemoryExceeded => self.memory_exceeded += 1,
        }
    }
}

/// Per-outcome counters for executions run under the engine's query
/// governor: how governed statements ended when governance intervened.
/// `memory_degraded` counts rescues (the serial retry succeeded — not a
/// failure); the other three count statements that surfaced a typed
/// governance error to their caller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernedCounts {
    /// Executions stopped by [`mylite::Engine::cancel`] or a cancel fault.
    pub cancelled: u64,
    /// Executions that outran their wall-clock deadline.
    pub deadline_exceeded: u64,
    /// Executions over their memory budget even at the serial rung (each
    /// also bumps [`FallbackCounts::memory_exceeded`]).
    pub memory_exceeded: u64,
    /// Parallel executions over budget that completed after the engine's
    /// retry at dop=1 / GREEDY-equivalent serial plan.
    pub memory_degraded: u64,
}

impl GovernedCounts {
    pub fn total(&self) -> u64 {
        self.cancelled + self.deadline_exceeded + self.memory_exceeded + self.memory_degraded
    }
}

/// Routing counters (inspected by tests and the bench harness).
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
    /// Governance outcomes of executions routed through this optimizer
    /// (cancellations, deadline and memory-budget trips, serial-retry
    /// rescues).
    pub governed: GovernedCounts,
    /// Cached statements the engine re-optimized through this backend with
    /// runtime feedback (observed cardinalities) injected.
    pub reoptimized: u64,
}

/// A classified detour failure: the fallback reason plus the underlying
/// error text (kept for diagnostics; the reason drives behaviour).
struct DetourFail {
    reason: FallbackReason,
    detail: String,
}

impl DetourFail {
    fn new(reason: FallbackReason, err: &Error) -> DetourFail {
        DetourFail { reason, detail: err.to_string() }
    }

    /// Budget errors keep their identity; everything else is "the detour
    /// could not handle it".
    fn classify(err: Error) -> DetourFail {
        let reason = if err.is_resource_exhausted() {
            FallbackReason::BudgetExhausted
        } else {
            FallbackReason::Unsupported
        };
        DetourFail::new(reason, &err)
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
    fn into_trace(self, cfg: &OrcaConfig) -> SearchTrace {
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

/// Lock a mutex, recovering the data if a previous holder panicked — the
/// router's side-state is plain counters, so a poisoned guard is still
/// structurally sound.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Best-effort text of a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The Orca-backed cost-based optimizer.
pub struct OrcaOptimizer {
    pub config: OrcaConfig,
    /// The §4.1 "complex query threshold": minimum table-reference count
    /// for the Orca detour.
    pub complex_query_threshold: usize,
    routed: AtomicU64,
    below: AtomicU64,
    fallbacks: AtomicU64,
    reasons: Mutex<FallbackCounts>,
    governed: Mutex<GovernedCounts>,
    degraded: AtomicU64,
    last_fallback: Mutex<Option<FallbackReason>>,
    last_search: Mutex<SearchStats>,
    total_search: Mutex<SearchStats>,
    last_trace: Mutex<Option<SearchTrace>>,
    last_md_traffic: Mutex<(u64, u64)>,
    reoptimized: AtomicU64,
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
            fallbacks: AtomicU64::new(0),
            reasons: Mutex::new(FallbackCounts::default()),
            governed: Mutex::new(GovernedCounts::default()),
            degraded: AtomicU64::new(0),
            last_fallback: Mutex::new(None),
            last_search: Mutex::new(SearchStats::default()),
            total_search: Mutex::new(SearchStats::default()),
            last_trace: Mutex::new(None),
            last_md_traffic: Mutex::new((0, 0)),
            reoptimized: AtomicU64::new(0),
        }
    }

    pub fn stats(&self) -> RouterStats {
        RouterStats {
            routed: self.routed.load(Ordering::Relaxed),
            below_threshold: self.below.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            reasons: *lock(&self.reasons),
            degraded: self.degraded.load(Ordering::Relaxed),
            search: *lock(&self.total_search),
            governed: *lock(&self.governed),
            reoptimized: self.reoptimized.load(Ordering::Relaxed),
        }
    }

    /// Search trace of the most recent Orca optimization (all blocks
    /// summed), as attached to its skeleton and EXPLAIN output.
    pub fn last_search_trace(&self) -> Option<SearchTrace> {
        lock(&self.last_trace).clone()
    }

    /// Reason for the most recent fallback, if the last routed statement
    /// fell back (cleared on each Orca success).
    pub fn last_fallback(&self) -> Option<FallbackReason> {
        *lock(&self.last_fallback)
    }

    /// Memo statistics of the most recent Orca optimization (all blocks
    /// summed) — the Table 1 effort metric.
    pub fn last_search_stats(&self) -> SearchStats {
        *lock(&self.last_search)
    }

    /// Metadata-cache traffic `(provider round-trips, cache hits)` of the
    /// most recent Orca optimization. One [`MdCache`] now spans the whole
    /// statement — every block and every degradation-ladder rung — so
    /// re-optimizing a block at a cheaper strategy re-reads metadata from
    /// memory instead of the provider (§5.7).
    ///
    /// [`MdCache`]: orcalite::MdCache
    pub fn last_md_traffic(&self) -> (u64, u64) {
        *lock(&self.last_md_traffic)
    }

    fn note_fallback(&self, reason: FallbackReason) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        lock(&self.reasons).bump(reason);
        *lock(&self.last_fallback) = Some(reason);
    }

    fn orca_optimize(
        &self,
        catalog: &Catalog,
        bound: &BoundStatement,
        fb: Option<&CardOverrides>,
    ) -> std::result::Result<Skeleton, DetourFail> {
        let provider = MySqlMdProvider::new(catalog);
        // One metadata cache for the whole statement: all blocks and all
        // degradation-ladder rungs share it, so the provider is consulted
        // at most once per (relation, statistics, indexes) key.
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
        *lock(&self.last_search) = acc.stats;
        {
            let mut cum = lock(&self.total_search);
            cum.groups += acc.stats.groups;
            cum.splits_explored += acc.stats.splits_explored;
            cum.plans_costed += acc.stats.plans_costed;
            cum.rules_applied += acc.stats.rules_applied;
            cum.rules_hit += acc.stats.rules_hit;
        }
        *lock(&self.last_md_traffic) = md.traffic();
        let trace = acc.into_trace(&self.config);
        *lock(&self.last_trace) = Some(trace.clone());
        skeleton.search = Some(trace);
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
    ) -> std::result::Result<(OrcaPlan, usize, JoinOrderStrategy), DetourFail> {
        let mut exhausted: Option<Error> = None;
        for (rung, &strategy) in ladder(self.config.strategy).iter().enumerate() {
            let cfg = OrcaConfig { strategy, ..self.config.clone() };
            match orcalite::optimize_block_cached(desc, md, &cfg) {
                Ok(plan) => {
                    if rung > 0 {
                        self.degraded.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok((plan, rung, strategy));
                }
                Err(e) if e.is_resource_exhausted() => exhausted = Some(e),
                Err(e) => return Err(DetourFail::classify(e)),
            }
        }
        // Ladders are non-empty, so reaching here means the final rung
        // exhausted the budget too.
        let e = exhausted.unwrap_or_else(|| Error::resource_exhausted("search budget", 0));
        Err(DetourFail::new(FallbackReason::BudgetExhausted, &e))
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
    ) -> std::result::Result<Skeleton, DetourFail> {
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

        faults.fire(FaultSite::TreeConvert).map_err(DetourFail::classify)?;
        let (desc, _oids) = convert_block(bound, block, provider, &inner_estimates, outer)
            .map_err(DetourFail::classify)?;

        let (plan, rung, strategy) = self.optimize_with_ladder(&desc, md)?;
        acc.stats.groups += plan.stats.groups;
        acc.stats.splits_explored += plan.stats.splits_explored;
        acc.stats.plans_costed += plan.stats.plans_costed;
        acc.stats.rules_applied += plan.stats.rules_applied;
        acc.stats.rules_hit += plan.stats.rules_hit;
        // The statement's trace reports the deepest rung any block needed,
        // and among its blocks a capped one.
        if rung > acc.rung || (rung == acc.rung && plan.strategy != strategy) {
            acc.rung = rung;
            acc.strategy = ran_as(strategy, plan.strategy, self.config.bushy_member_cap);
        }
        if plan.changed_block_structure {
            return Err(DetourFail {
                reason: FallbackReason::ChangedBlockStructure,
                detail: "Orca changed the query block structure (§4.2.1)".to_string(),
            });
        }

        faults.fire(FaultSite::PlanConvert).map_err(DetourFail::classify)?;
        let skeleton = to_skeleton(&plan, block, &inner_skeletons).map_err(|e| {
            // The plan converter's own fallback errors are exactly its
            // block-structure checks; anything else is unexpected.
            let reason = match &e {
                Error::OrcaFallback(_) => FallbackReason::ChangedBlockStructure,
                _ => FallbackReason::Unsupported,
            };
            DetourFail::new(reason, &e)
        })?;

        faults
            .fire(FaultSite::SkeletonValidate)
            .and_then(|()| validate_skeleton(&skeleton, block, bound))
            .map_err(|e| DetourFail::new(FallbackReason::InvalidSkeleton, &e))?;
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
        // unwind is benign (at worst a stale last_search snapshot), which
        // is what makes the `AssertUnwindSafe` sound.
        let attempt = catch_unwind(AssertUnwindSafe(|| self.orca_optimize(catalog, bound, fb)));
        let fail = match attempt {
            Ok(Ok(skeleton)) => {
                self.routed.fetch_add(1, Ordering::Relaxed);
                *lock(&self.last_fallback) = None;
                return Ok(skeleton);
            }
            Ok(Err(fail)) => fail,
            Err(payload) => DetourFail {
                reason: FallbackReason::Panicked,
                detail: panic_text(payload.as_ref()),
            },
        };
        let _ = fail.detail; // reason drives behaviour; detail is for debuggers
        self.note_fallback(fail.reason);
        let mut skeleton = native(catalog, bound)?;
        skeleton.orca_fallback = Some(fail.reason.name().to_string());
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

    fn note_reoptimized(&self) {
        self.reoptimized.fetch_add(1, Ordering::Relaxed);
    }

    /// The engine consults this when it builds a statement's governor: an
    /// armed [`FaultSite::ExecGovernor`] fault becomes a forced cancel
    /// point or memory clamp on every execution routed through this
    /// optimizer.
    fn exec_faults(&self) -> Option<ExecFaults> {
        let faults = &self.config.faults;
        let ef =
            ExecFaults { cancel_after: faults.cancel_point(), memory_clamp: faults.memory_clamp() };
        (ef != ExecFaults::default()).then_some(ef)
    }

    /// Governance outcome attribution. A statement the governor gave up on
    /// for memory joins the fallback taxonomy (`memory-exceeded`), so the
    /// routing report's `reasons.total() == fallbacks` invariant covers
    /// execution-time abandonment too.
    fn note_governed(&self, outcome: GovernedOutcome) {
        {
            let mut g = lock(&self.governed);
            match outcome {
                GovernedOutcome::Cancelled => g.cancelled += 1,
                GovernedOutcome::DeadlineExceeded => g.deadline_exceeded += 1,
                GovernedOutcome::MemoryExceeded => g.memory_exceeded += 1,
                GovernedOutcome::MemoryDegraded => g.memory_degraded += 1,
            }
        }
        if outcome == GovernedOutcome::MemoryExceeded {
            self.note_fallback(FallbackReason::MemoryExceeded);
        }
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

    #[test]
    fn routed_query_gets_orca_assisted_skeleton() {
        let e = engine();
        let orca = OrcaOptimizer::default();
        let planned = e.plan(THREE_WAY, &orca).unwrap();
        assert!(planned.primary().skeleton.orca_assisted);
        assert_eq!(orca.stats().routed, 1);
        assert!(orca.last_search_stats().groups > 0);
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
        assert_eq!(orca.last_fallback(), Some(FallbackReason::ChangedBlockStructure));
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
            e.plan(THREE_WAY, &orca).unwrap();
            orca.last_search_stats().plans_costed
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
            e.plan(THREE_WAY, &orca).unwrap();
            orca.last_search_stats().plans_costed
        };
        let cfg = OrcaConfig {
            bushy_member_cap: 2,
            budget: SearchBudget { max_groups: usize::MAX, max_plans_costed: greedy },
            ..OrcaConfig::default()
        };
        let orca = OrcaOptimizer::new(cfg, 1);
        e.plan(THREE_WAY, &orca).unwrap();
        assert!(orca.stats().degraded >= 1, "two rungs must have run");
        let (misses, hits) = orca.last_md_traffic();
        assert!(misses <= 9, "ladder rungs re-queried the provider: {misses} round-trips");
        assert!(hits > 0, "later rungs should be served from the statement cache");
        // Cross-block reuse: a correlated subquery optimizes two blocks
        // over the same relation; the second block's metadata is free.
        let sql = "SELECT fk FROM fact WHERE v > \
                   (SELECT AVG(v) FROM fact f2 WHERE f2.fk = fact.fk) AND fk < 3";
        let orca = OrcaOptimizer::new(OrcaConfig::default(), 1);
        e.plan(sql, &orca).unwrap();
        let (misses, hits) = orca.last_md_traffic();
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
        assert_eq!(orca.last_fallback(), Some(FallbackReason::BudgetExhausted));
        assert_eq!(e.execute_planned(&planned).unwrap().rows.len(), 500);
    }

    #[test]
    fn orca_success_clears_last_fallback() {
        let e = engine();
        let cfg = OrcaConfig { enable_gbagg_below_join: true, ..OrcaConfig::default() };
        let orca = OrcaOptimizer::new(cfg, 1);
        e.plan("SELECT name, COUNT(*) AS n FROM fact, dim1 WHERE fk = pk GROUP BY name", &orca)
            .unwrap();
        assert!(orca.last_fallback().is_some());
        e.plan(THREE_WAY, &orca).unwrap();
        assert_eq!(orca.last_fallback(), None);
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
        assert_eq!(orca.last_fallback(), None);
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
        assert_eq!(orca.last_search_trace(), Some(trace.clone()));
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
        e.plan(THREE_WAY, &left_deep).unwrap();
        let (capped, left_deep) =
            (capped.last_search_trace().unwrap(), left_deep.last_search_trace().unwrap());
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
            e.plan(THREE_WAY, &orca).unwrap();
            orca.last_search_stats().plans_costed
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
    fn governor_faults_attribute_to_router_stats() {
        use orcalite::config::{FaultInjector, FaultKind};
        let e = engine();
        // Mid-query cancel: armed at the governor site, consulted by the
        // engine when it builds the statement's governor.
        let cfg = OrcaConfig {
            faults: FaultInjector::default().arm(FaultSite::ExecGovernor, FaultKind::CancelQuery),
            ..OrcaConfig::default()
        };
        let orca = OrcaOptimizer::new(cfg, 1);
        let err = e.query_with(THREE_WAY, &orca).unwrap_err();
        assert!(matches!(err, Error::Cancelled), "{err}");
        let stats = orca.stats();
        assert_eq!(stats.governed.cancelled, 1);
        assert_eq!(stats.fallbacks, 0, "a cancel is not a fallback");

        // Memory squeeze: the 1-byte clamp fails the sort buffer at the
        // parallel rung and the serial retry alike, so the governor gives
        // up and the abandonment joins the fallback taxonomy.
        let cfg = OrcaConfig {
            faults: FaultInjector::default().arm(FaultSite::ExecGovernor, FaultKind::MemorySqueeze),
            ..OrcaConfig::default()
        };
        let orca = OrcaOptimizer::new(cfg, 1);
        let err = e.query_with("SELECT v FROM fact ORDER BY v", &orca).unwrap_err();
        assert!(matches!(err, Error::MemoryExceeded { .. }), "{err}");
        let stats = orca.stats();
        assert_eq!(stats.governed.memory_exceeded, 1);
        assert_eq!(stats.reasons.memory_exceeded, 1);
        assert_eq!(stats.reasons.total(), stats.fallbacks);
        assert_eq!(orca.last_fallback(), Some(FallbackReason::MemoryExceeded));

        // Disarmed, the same engine serves the same statements again.
        let ok = OrcaOptimizer::new(OrcaConfig::default(), 1);
        assert_eq!(e.query_with(THREE_WAY, &ok).unwrap().rows.len(), 500);
        assert_eq!(ok.stats().governed.total(), 0);
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
