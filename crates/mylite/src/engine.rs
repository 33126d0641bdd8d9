//! The session facade: parse → resolve/prepare → optimize → refine →
//! execute, with a pluggable cost-based-optimizer backend.
//!
//! The backend hook is the integration point of the whole paper: the bridge
//! crate implements [`CostBasedOptimizer`] with the Orca detour (convert →
//! optimize in Orca → convert back to a skeleton), and everything else —
//! parsing, preparation, refinement, execution — is shared, exactly as in
//! Fig 3.
//!
//! # Concurrency model
//!
//! One `Engine` is shared by every session (`Engine` is `Send + Sync`);
//! the server front end hands each connection an `Arc<Engine>` plus a
//! [`SessionOpts`] of per-session knob overrides. The shared state is
//! layered so sessions don't convoy:
//!
//! * **Catalog** — behind a `RwLock`. Every serve takes one read guard up
//!   front and keeps it for the duration: the catalog version it snapshots
//!   is therefore the version of the catalog it *executes against*, which
//!   is what makes plan-cache invalidation sound under races (see
//!   [`crate::plancache`]). DDL (`analyze_shared`, inserts) takes the
//!   write lock and naturally drains in-flight serves first.
//! * **Plan cache** — sharded; cached serves take a shard read lock on the
//!   hot path and execute under the entry's own lock.
//! * **Admission** — an atomic counter fast path; only queued waiters touch
//!   the condvar, and a waiting session's deadline bounds its queue time.
//! * **In-flight registry** — sharded by query id.
//!
//! All locks are poison-recovering ([`taurus_common::sync`]): one panicked query
//! under `catch_unwind` isolation cannot brick later sessions.
//!
//! # Layout
//!
//! This file holds the types and the public surface; every SQL entry point
//! below is an alias over the one pipeline in `serve`. `compile` turns
//! a parsed statement into a [`PlannedQuery`]; `admission` is the gate,
//! the in-flight registry and governed execution. The knobs all three read
//! are declared once, in [`crate::knobs`].

use crate::bound::BoundStatement;
use crate::explain::NodeAnnotation;
use crate::feedback::ObservationStore;
use crate::knobs::{KnobCell, KnobDefaults, KnobValue};
use crate::optimizer::{optimize_statement, optimize_statement_feedback};
use crate::plancache::{CacheOutcome, PlanCache, PlanCacheStats};
use crate::skeleton::Skeleton;
pub use admission::GovernedCounts;
use admission::{AdmissionGate, Governors};
use serve::{Analyze, Explain, Path, Plan as PlanOnly, Run};
use std::ops::Deref;
use std::sync::{RwLock, RwLockReadGuard};
use taurus_catalog::feedback::CardOverrides;
use taurus_catalog::stats::AnalyzeOptions;
use taurus_catalog::Catalog;
use taurus_common::error::Result;
use taurus_common::sync::{rlock, wlock};
use taurus_common::Row;
use taurus_executor::Plan;
use taurus_sql::{parse, Statement};

mod admission;
mod compile;
mod serve;
#[cfg(test)]
mod tests;

pub use crate::knobs::{SessionOpts, DEFAULT_REOPT_Q_THRESHOLD};

/// A pluggable cost-based optimizer (the orange box in paper Fig 2). It
/// plans and nothing else: execution, governance and their counters belong
/// to the engine.
pub trait CostBasedOptimizer {
    /// Short name for EXPLAIN banners and logs.
    fn name(&self) -> &'static str;
    /// Produce a skeleton plan for a prepared statement.
    fn optimize(&self, catalog: &Catalog, bound: &BoundStatement) -> Result<Skeleton>;
    /// Re-optimize a prepared statement with observed cardinalities from a
    /// previous execution injected into the estimation path. Backends that
    /// cannot consume feedback just optimize statically.
    fn optimize_with_feedback(
        &self,
        catalog: &Catalog,
        bound: &BoundStatement,
        _fb: &CardOverrides,
    ) -> Result<Skeleton> {
        self.optimize(catalog, bound)
    }
}

/// MySQL's native greedy optimizer.
#[derive(Debug, Default, Clone, Copy)]
pub struct MySqlOptimizer;

impl CostBasedOptimizer for MySqlOptimizer {
    fn name(&self) -> &'static str {
        "mysql"
    }

    fn optimize(&self, catalog: &Catalog, bound: &BoundStatement) -> Result<Skeleton> {
        optimize_statement(catalog, bound)
    }

    fn optimize_with_feedback(
        &self,
        catalog: &Catalog,
        bound: &BoundStatement,
        fb: &CardOverrides,
    ) -> Result<Skeleton> {
        optimize_statement_feedback(catalog, bound, Some(fb))
    }
}

/// One fully planned union branch.
#[derive(Debug, Clone)]
pub struct PlannedBranch {
    pub bound: BoundStatement,
    pub skeleton: Skeleton,
    pub plan: Plan,
    /// UNION ALL with respect to the previous branch.
    pub all: bool,
}

/// A fully planned statement (one or more union branches).
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    pub branches: Vec<PlannedBranch>,
    pub columns: Vec<String>,
}

impl PlannedQuery {
    /// The primary branch (non-union statements have exactly one).
    pub fn primary(&self) -> &PlannedBranch {
        &self.branches[0]
    }
}

/// Query results plus the executor's work-unit accounting.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    /// Machine-independent work measure (see `ExecStats::work_units`).
    pub work_units: u64,
    /// Work on the critical path: parallel fragments count only their
    /// slowest worker, so `work_units / critical_work_units` is the
    /// machine-independent parallel speedup.
    pub critical_work_units: u64,
}

/// What `EXPLAIN ANALYZE` returns: the query's results (so callers can
/// verify instrumentation didn't perturb them), the annotated plan text,
/// and the raw per-operator annotations for programmatic q-error checks
/// (pre-order per branch, branches concatenated).
#[derive(Debug, Clone)]
pub struct AnalyzedQuery {
    pub output: QueryOutput,
    pub text: String,
    pub nodes: Vec<NodeAnnotation>,
}

/// A read-locked view of the engine's catalog. Dereferences to
/// [`Catalog`]; drop it before calling anything that mutates the catalog
/// (`analyze_shared`, `with_catalog_mut`, INSERT) or issuing statements —
/// holding it across an engine call can deadlock against a queued writer.
pub struct CatalogRef<'a>(RwLockReadGuard<'a, Catalog>);

impl Deref for CatalogRef<'_> {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.0
    }
}

/// The engine: a catalog plus the machinery to run SQL against it.
///
/// `Engine` is `Send + Sync`: the catalog sits behind a `RwLock`, the plan
/// cache is sharded with interior locking, the knobs are atomics, and the
/// admission gate and in-flight registry are atomic/sharded — so thousands
/// of sessions can share one engine across threads while the
/// single-threaded API stays unchanged.
pub struct Engine {
    /// The catalog. Serves hold a read guard for their whole duration (the
    /// version snapshot *is* the executed-against version); DDL takes the
    /// write lock and therefore drains in-flight serves first.
    catalog: RwLock<Catalog>,
    /// Sharded fingerprint-keyed plan cache for the `*_cached` entry
    /// points (interior locking; see [`crate::plancache`]).
    plan_cache: PlanCache,
    /// Engine-wide knob defaults (see [`crate::knobs`]).
    defaults: KnobDefaults,
    admission: AdmissionGate,
    governors: Governors,
    /// Observed per-operator cardinalities of instrumented cached serves,
    /// keyed by statement fingerprint (the feedback loop's memory).
    feedback: ObservationStore,
}

impl Engine {
    pub fn new(catalog: Catalog) -> Engine {
        Engine {
            catalog: RwLock::new(catalog),
            plan_cache: PlanCache::default(),
            defaults: KnobDefaults::new(),
            admission: AdmissionGate::new(),
            governors: Governors::new(),
            feedback: ObservationStore::new(),
        }
    }

    // ------------------------------------------------------- knob defaults

    /// Store one engine default. Cached plans were compiled under the old
    /// value, so a plan-shaping knob drops them wholesale; a session-level
    /// override needs no clearing — those knobs are part of the cache key.
    fn set_default<T: KnobValue>(&self, cell: &KnobCell<T>, value: T) {
        cell.set(value);
        if cell.shapes_plan {
            self.plan_cache.clear();
        }
    }

    /// Set the engine-default degree of parallelism (1 = serial).
    pub fn set_dop(&self, dop: usize) {
        self.set_default(&self.defaults.dop, dop);
    }

    pub fn dop(&self) -> usize {
        self.defaults.resolve(&SessionOpts::default()).dop
    }

    /// Runtime morsel size for parallel scans.
    pub fn set_morsel_rows(&self, rows: usize) {
        self.set_default(&self.defaults.morsel_rows, rows);
    }

    /// Always `false`: there is one executor. Kept only because the
    /// benchmark's replica calls it (perf/README.md "The pinned surface").
    pub fn vectorized(&self) -> bool {
        false
    }

    /// Minimum driving-table rows before refinement places an exchange.
    pub fn set_parallel_threshold(&self, rows: usize) {
        self.set_default(&self.defaults.parallel_threshold, rows);
    }

    /// Enable/disable interesting-order optimization: when on (the
    /// default), refinement drops Sort enforcers whose input already
    /// delivers the requested order. Off keeps every enforcer — the
    /// always-enforce baseline the byte-identity oracles compare against.
    pub fn set_order_opt(&self, on: bool) {
        self.set_default(&self.defaults.order_opt, on);
    }

    pub fn order_opt(&self) -> bool {
        self.defaults.order_opt.get()
    }

    /// Worst-q-error threshold above which an instrumented cached serve
    /// ([`Engine::analyze_cached`]) re-optimizes the statement with its
    /// observed cardinalities injected. `None` disables the loop; the
    /// default is [`DEFAULT_REOPT_Q_THRESHOLD`]. Strictly-above semantics:
    /// a run whose worst q-error equals the threshold does not re-optimize.
    pub fn set_reopt_q_threshold(&self, threshold: Option<f64>) {
        self.set_default(&self.defaults.reopt_q_threshold, threshold.unwrap_or(0.0));
    }

    pub fn reopt_q_threshold(&self) -> Option<f64> {
        let t = self.defaults.resolve(&SessionOpts::default()).reopt_q_threshold;
        (t > 0.0).then_some(t)
    }

    /// The engine's observation store (for tests and reports).
    pub fn feedback(&self) -> &ObservationStore {
        &self.feedback
    }

    // ------------------------------------------------------- catalog

    /// A read-locked view of the catalog. See [`CatalogRef`] for the
    /// holding discipline.
    pub fn catalog(&self) -> CatalogRef<'_> {
        CatalogRef(rlock(&self.catalog))
    }

    /// Run a closure with exclusive catalog access from a shared engine —
    /// the DDL path for concurrent sessions. Takes the write lock, so it
    /// drains in-flight serves first and every later serve snapshots the
    /// bumped version.
    pub fn with_catalog_mut<R>(&self, f: impl FnOnce(&mut Catalog) -> R) -> R {
        f(&mut wlock(&self.catalog))
    }

    /// Run ANALYZE on every table with default options (setup code that
    /// owns the engine).
    pub fn analyze(&mut self) {
        self.analyze_shared();
    }

    /// ANALYZE issued by one session of many (bumps the catalog version;
    /// cached plans compiled under the old statistics invalidate on their
    /// next lookup).
    pub fn analyze_shared(&self) {
        self.with_catalog_mut(|c| c.analyze_all(&AnalyzeOptions::default()));
    }

    // ------------------------------------------------------- plan cache

    /// Plan-cache counters for reports.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Number of currently cached statements.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.len()
    }

    /// Drop every cached plan (counters survive).
    pub fn clear_plan_cache(&self) {
        self.plan_cache.clear();
    }

    // ------------------------------------------------------- SQL entry points
    //
    // Each is an alias over `Engine::serve` (see `engine/serve.rs`): the
    // name picks the action (run / plan / explain / analyze), the path
    // (`*_cached*` goes through the plan cache, the rest compile fresh) and
    // whether per-session knob overrides apply (`*_opts`). Executing
    // actions pass the admission gate and run governed; `plan*`/`explain*`
    // are ungated.

    /// Execute any statement with the native MySQL optimizer (INSERT takes
    /// the catalog write lock).
    pub fn execute_sql_shared(&self, sql: &str) -> Result<QueryOutput> {
        let Statement::Insert { table, rows } = parse(sql)? else { return self.query(sql) };
        self.execute_insert(&table, rows)
    }

    /// Run a SELECT with the native optimizer.
    pub fn query(&self, sql: &str) -> Result<QueryOutput> {
        self.query_with(sql, &MySqlOptimizer)
    }

    /// Run a SELECT with a specific optimizer backend.
    pub fn query_with(&self, sql: &str, opt: &dyn CostBasedOptimizer) -> Result<QueryOutput> {
        self.serve::<Run>(sql, opt, &SessionOpts::default(), Path::Fresh).map(|(out, _)| out)
    }

    /// Plan a SELECT without executing (what `EXPLAIN` does; used by the
    /// compile-time experiment, Table 1).
    pub fn plan(&self, sql: &str, opt: &dyn CostBasedOptimizer) -> Result<PlannedQuery> {
        self.serve::<PlanOnly>(sql, opt, &SessionOpts::default(), Path::Fresh).map(|(p, _)| p)
    }

    /// EXPLAIN output for a SELECT under a given optimizer.
    pub fn explain(&self, sql: &str, opt: &dyn CostBasedOptimizer) -> Result<String> {
        self.serve::<Explain>(sql, opt, &SessionOpts::default(), Path::Fresh).map(|(t, _)| t)
    }

    /// EXPLAIN ANALYZE: plan, execute with per-operator observation
    /// enabled, and render the plan tree annotated with actual rows, loop
    /// counts, and q-errors.
    pub fn explain_analyze(
        &self,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
    ) -> Result<AnalyzedQuery> {
        self.serve::<Analyze>(sql, opt, &SessionOpts::default(), Path::Fresh).map(|(a, _)| a)
    }

    /// Plan through the plan cache, returning an owned copy of the plan and
    /// the cache outcome for banners/reports.
    pub fn plan_cached(
        &self,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
    ) -> Result<(PlannedQuery, CacheOutcome)> {
        self.plan_cached_opts(sql, opt, &SessionOpts::default())
    }

    /// [`Engine::plan_cached`] under per-session knob overrides.
    pub fn plan_cached_opts(
        &self,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
        session: &SessionOpts,
    ) -> Result<(PlannedQuery, CacheOutcome)> {
        self.serve::<PlanOnly>(sql, opt, session, Path::Cached)
    }

    /// Run a SELECT through the plan cache (executes straight off the
    /// shared cached plan).
    pub fn query_cached(&self, sql: &str, opt: &dyn CostBasedOptimizer) -> Result<QueryOutput> {
        self.query_cached_opts(sql, opt, &SessionOpts::default()).map(|(out, _)| out)
    }

    /// [`Engine::query_cached`] under per-session knob overrides, returning
    /// the cache outcome alongside the results (the server reports it to
    /// clients).
    pub fn query_cached_opts(
        &self,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
        session: &SessionOpts,
    ) -> Result<(QueryOutput, CacheOutcome)> {
        self.serve::<Run>(sql, opt, session, Path::Cached)
    }

    /// EXPLAIN through the plan cache under per-session knob overrides: the
    /// banner's first line gains a `[plan cache: hit|miss|invalidated]`
    /// suffix.
    pub fn explain_cached_opts(
        &self,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
        session: &SessionOpts,
    ) -> Result<String> {
        self.serve::<Explain>(sql, opt, session, Path::Cached).map(|(text, _)| text)
    }

    /// EXPLAIN ANALYZE through the plan cache — the entry point of the
    /// feedback-driven re-optimization loop (see `Engine::serve`).
    pub fn analyze_cached(
        &self,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
    ) -> Result<(AnalyzedQuery, CacheOutcome)> {
        self.analyze_cached_opts(sql, opt, &SessionOpts::default())
    }

    /// [`Engine::analyze_cached`] under per-session knob overrides.
    pub fn analyze_cached_opts(
        &self,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
        session: &SessionOpts,
    ) -> Result<(AnalyzedQuery, CacheOutcome)> {
        self.serve::<Analyze>(sql, opt, session, Path::Cached)
    }

    /// Execute a previously planned query (ungoverned: no deadline, budget,
    /// or cancel token — the governed entry points are `query*`).
    pub fn execute_planned(&self, planned: &PlannedQuery) -> Result<QueryOutput> {
        let knobs = self.defaults.resolve(&SessionOpts::default());
        let cat = rlock(&self.catalog);
        self.execute_branches(&cat, planned, None, knobs.morsel_rows, None)
    }
}
