//! The serve pipeline: the one path every SQL entry point takes.
//!
//! resolve knobs → admit (iff the action executes) → catalog read snapshot
//! → [digest → lookup → rebind | parse (→ parameterize) → compile] → act →
//! [fold observations] → [insert]. [`Path`] picks whether the plan cache is
//! consulted at all; the [`Action`] is what happens to the plan.

use super::compile::{compile, parse_select_text, rebind_planned};
use super::{AnalyzedQuery, CostBasedOptimizer, Engine, PlannedBranch, PlannedQuery, QueryOutput};
use crate::explain::{annotate, explain_with, NodeAnnotation};
use crate::feedback::{count_nodes, fold_plan, worst_q};
use crate::knobs::{Knobs, SessionOpts};
use crate::plancache::{CacheKey, CacheOutcome, Lookup};
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;
use taurus_catalog::Catalog;
use taurus_common::error::{Error, Result};
use taurus_common::expr::EvalCtx;
use taurus_common::sync::rlock;
use taurus_common::{Layout, Row, Value};
use taurus_executor::{execute, ExecContext, ObserverIndex, QueryGovernor};
use taurus_sql::fingerprint::{parameterize, token_digest};

/// Where the plan comes from.
pub(super) enum Path {
    /// Parse and compile; the plan cache is neither read nor written.
    Fresh,
    /// Serve through the fingerprint-keyed plan cache.
    Cached,
}

/// What one serve acts with: the engine, its catalog snapshot, the resolved
/// knobs.
pub(super) struct ServeCx<'a> {
    pub(super) engine: &'a Engine,
    pub(super) cat: &'a Catalog,
    pub(super) knobs: &'a Knobs,
}

/// What a serve does with the plan once it has one. Implemented by four
/// unit types so each entry point's result type is static — no result enum
/// to re-match, no boxed closure on the hit path.
pub(super) trait Action {
    type Out;
    /// Runs the plan: the serve takes an admission slot first.
    const EXECUTES: bool;
    /// Observes per-operator cardinalities: the serve folds them into the
    /// feedback store and may re-optimize a cached plan from them.
    const OBSERVES: bool = false;

    fn act(cx: &ServeCx<'_>, planned: Cow<'_, PlannedQuery>) -> Result<Self::Out>;

    /// The observed annotations of an [`Action::OBSERVES`] result.
    fn observed(_out: &Self::Out) -> &[NodeAnnotation] {
        &[]
    }

    /// Mark a cached serve's result with how the cache answered.
    fn stamp(_out: &mut Self::Out, _outcome: CacheOutcome) {}
}

/// Execute under admission and a governor.
pub(super) struct Run;
/// Hand the plan back without executing.
pub(super) struct Plan;
/// Render the plan as EXPLAIN text.
pub(super) struct Explain;
/// Execute with per-operator observation; render EXPLAIN ANALYZE.
pub(super) struct Analyze;

impl Action for Run {
    type Out = QueryOutput;
    const EXECUTES: bool = true;

    fn act(cx: &ServeCx<'_>, planned: Cow<'_, PlannedQuery>) -> Result<QueryOutput> {
        cx.governed_execute(&planned, None)
    }
}

impl Action for Plan {
    type Out = PlannedQuery;
    const EXECUTES: bool = false;

    fn act(_: &ServeCx<'_>, planned: Cow<'_, PlannedQuery>) -> Result<PlannedQuery> {
        Ok(planned.into_owned())
    }
}

impl Action for Explain {
    type Out = String;
    const EXECUTES: bool = false;

    fn act(cx: &ServeCx<'_>, planned: Cow<'_, PlannedQuery>) -> Result<String> {
        Ok(render(cx.cat, &planned, None))
    }

    /// Suffix the banner (first line) with the cache state.
    fn stamp(text: &mut String, outcome: CacheOutcome) {
        if let Some(banner_end) = text.find('\n') {
            text.insert_str(banner_end, &format!(" [plan cache: {}]", outcome.label()));
        }
    }
}

impl Action for Analyze {
    type Out = AnalyzedQuery;
    const EXECUTES: bool = true;
    const OBSERVES: bool = true;

    fn act(cx: &ServeCx<'_>, planned: Cow<'_, PlannedQuery>) -> Result<AnalyzedQuery> {
        let mut nodes = Vec::new();
        let output = cx.governed_execute(&planned, Some(&mut nodes))?;
        let text = render(cx.cat, &planned, Some(&nodes));
        Ok(AnalyzedQuery { output, text, nodes })
    }

    fn observed(out: &AnalyzedQuery) -> &[NodeAnnotation] {
        &out.nodes
    }
}

impl Engine {
    /// Serve one statement.
    ///
    /// **Admission** is taken before any lock: a caller queued at the gate
    /// must hold neither the catalog nor the cache hostage.
    ///
    /// **Snapshot.** The catalog read guard spans the whole serve, so
    /// `version` is the version of the catalog the action executes against:
    /// an entry validated against it cannot be stale for *this* execution
    /// no matter how DDL races — the write lock serializes after us, and
    /// the next serve's snapshot sees the bump and invalidates.
    ///
    /// **Hit.** On [`Path::Cached`] the statement is only digested
    /// ([`token_digest`]): one fold over the lexer's tokens yields the
    /// fingerprint and the literal binds — no parse tree. The cached plan's
    /// parameters are re-bound *in place* and the action runs against the
    /// shared plan under the entry's own lock (sessions serving other
    /// statements are untouched; an eviction only detaches the entry, the
    /// serve holds its own `Arc`), so a hit costs one lex-level scan, one
    /// shard-read lookup and a rebind; never a parse or a plan deep-copy.
    ///
    /// **Re-optimization.** An observing action whose statement's recorded
    /// worst q-error is strictly above the session threshold (and whose
    /// observations differ from what the cached plan was compiled with)
    /// evicts the hit and recompiles with the observations injected into
    /// the optimizer's estimation path; the outcome is
    /// [`CacheOutcome::Reoptimized`].
    ///
    /// **Miss.** The statement is parsed and — on the cached path —
    /// parameterized (planning still sees the peeked literal values),
    /// compiled without any cache lock, acted on, and moved into the cache
    /// keyed by the digest fingerprint. The digest extracts binds in token
    /// order while [`parameterize`]'s in-place walk numbers parameters in
    /// the AST's textual order; the two agree for this grammar, and the
    /// insert verifies it per shape — a statement whose orders diverge is
    /// simply never cached (compiled every time, correct either way).
    ///
    /// Lock order: admission → catalog read → cache shard → entry →
    /// feedback; the feedback store never takes a cache or catalog lock.
    pub(super) fn serve<A: Action>(
        &self,
        sql: &str,
        opt: &dyn CostBasedOptimizer,
        session: &SessionOpts,
        path: Path,
    ) -> Result<(A::Out, CacheOutcome)> {
        let knobs = self.defaults.resolve(session);
        let _permit =
            if A::EXECUTES { Some(self.admission.admit(knobs.deadline_ms)?) } else { None };
        let cat = rlock(&self.catalog);
        let version = cat.version();
        let cx = ServeCx { engine: self, cat: &cat, knobs: &knobs };
        // What the cached path knows the statement by; `None` on the fresh
        // path and for unlexable input (the parser produces the real error
        // for the latter).
        let cached = match path {
            Path::Cached => token_digest(sql).map(|d| {
                (CacheKey { fingerprint: d.fingerprint, shape: knobs.plan_shape() }, d.binds)
            }),
            Path::Fresh => None,
        };
        // Act on a plan the cache holds or will hold, then what every
        // cached serve owes afterwards: fold what it observed, mark the
        // result with how the cache answered.
        let act_cached = |key: &CacheKey, planned: &PlannedQuery, outcome| -> Result<A::Out> {
            let mut out = A::act(&cx, Cow::Borrowed(planned))?;
            if A::OBSERVES {
                self.fold_observations(key.fingerprint, planned, A::observed(&out));
            }
            A::stamp(&mut out, outcome);
            Ok(out)
        };
        let mut outcome = CacheOutcome::Miss;
        let mut feedback = None;
        if let Some((key, binds)) = &cached {
            match self.plan_cache.lookup(key, version) {
                Lookup::Hit(_)
                    if A::OBSERVES
                        && knobs.reopt_q_threshold > 0.0
                        && self.feedback.should_reopt(key.fingerprint, knobs.reopt_q_threshold) =>
                {
                    self.plan_cache.discard_reopt(key);
                    feedback = self.feedback.begin_reopt(key.fingerprint);
                    outcome = CacheOutcome::Reoptimized;
                }
                Lookup::Hit(entry) => {
                    // A rebind refusal (slot count or type-class mismatch
                    // with the peeked values) means the cached plan cannot
                    // serve these binds: discard it and recompile below,
                    // exactly as for any other invalidation. Serving the
                    // stale plan — or failing the query — would turn a
                    // cache artifact into a user-visible behaviour change.
                    let mut planned = entry.planned();
                    if rebind_planned(&mut planned, binds).is_ok() {
                        let out = act_cached(key, &planned, CacheOutcome::Hit)?;
                        return Ok((out, CacheOutcome::Hit));
                    }
                    drop(planned);
                    self.plan_cache.discard(key);
                    outcome = CacheOutcome::Invalidated;
                }
                Lookup::Invalidated => outcome = CacheOutcome::Invalidated,
                Lookup::Miss => {}
            }
        }
        let stmt = parse_select_text(sql)?;
        let Some((key, binds)) = cached else {
            let planned = compile(&cat, stmt, opt, None, &knobs)?;
            return Ok((A::act(&cx, Cow::Owned(planned))?, outcome));
        };
        let p = parameterize(&stmt);
        let planned = compile(&cat, p.stmt, opt, feedback.as_deref(), &knobs)?;
        let out = act_cached(&key, &planned, outcome)?;
        // This compile ran without any cache lock; a concurrent serve may
        // have re-optimized the same statement meanwhile. Never clobber
        // that entry with a static plan — the feedback store's applied
        // snapshot would then suppress a second re-optimization and pin
        // the misestimate. A re-optimized compile always wins.
        if binds == p.binds
            && (feedback.is_some() || !self.plan_cache.has_reopt_entry(&key, version))
        {
            self.plan_cache.insert(&key, version, opt.name(), planned);
        }
        Ok((out, outcome))
    }

    /// Execute a planned query's union branches and merge their rows. With
    /// `observed`, each branch runs under an [`ObserverIndex`] and its
    /// per-operator annotations are appended (pre-order per branch,
    /// branches concatenated) — same execution path, so results are
    /// identical to an uninstrumented run.
    pub(super) fn execute_branches(
        &self,
        cat: &Catalog,
        planned: &PlannedQuery,
        governor: Option<&Arc<QueryGovernor>>,
        morsel_rows: usize,
        mut observed: Option<&mut Vec<NodeAnnotation>>,
    ) -> Result<QueryOutput> {
        let mut rows: Vec<Row> = Vec::new();
        let mut work = 0u64;
        let mut critical = 0u64;
        for (i, b) in planned.branches.iter().enumerate() {
            // Slots were assigned when the plan was refined; a serve only
            // counts them, so a hit never copies the plan.
            let plan = &b.plan;
            let mut ctx = ExecContext::new(cat, b.bound.num_tables(), plan.cache_slots());
            ctx.set_morsel_rows(morsel_rows);
            // The index keys nodes by address: it is built over the exact
            // tree we execute.
            let index = observed.is_some().then(|| Arc::new(ObserverIndex::new(plan)));
            if let Some(index) = &index {
                ctx.set_observer(Arc::clone(index));
            }
            if let Some(g) = governor {
                ctx.set_governor(g.clone());
            }
            let branch_rows = execute(plan, &ctx)?;
            work += ctx.stats.work_units();
            critical += ctx.stats.critical_path_work();
            if let (Some(nodes), Some(index)) = (observed.as_deref_mut(), &index) {
                nodes.extend(annotate(plan, index, &ctx.stats.nodes.borrow()));
            }
            if i == 0 {
                rows = branch_rows;
            } else {
                rows.extend(branch_rows);
                if !b.all {
                    let mut seen = HashSet::new();
                    rows.retain(|r| seen.insert(r.clone()));
                }
            }
        }
        Ok(QueryOutput {
            columns: planned.columns.clone(),
            rows,
            work_units: work,
            critical_work_units: critical,
        })
    }

    /// Fold one instrumented execution into the feedback store.
    fn fold_observations(
        &self,
        fingerprint: u64,
        planned: &PlannedQuery,
        nodes: &[NodeAnnotation],
    ) {
        let folds = branch_annotations(planned, nodes).map(|(b, ann)| fold_plan(&b.plan, ann));
        self.feedback.record(fingerprint, folds.collect(), worst_q(nodes));
    }

    pub(super) fn execute_insert(
        &self,
        table: &str,
        rows: Vec<Vec<taurus_sql::AstExpr>>,
    ) -> Result<QueryOutput> {
        let layout = Layout::empty(0);
        let mut materialized: Vec<Row> = Vec::with_capacity(rows.len());
        for row in rows {
            // INSERT values are constant expressions.
            materialized
                .push(row.iter().map(|e| ast_const_to_value(e, &layout)).collect::<Result<_>>()?);
        }
        let n = materialized.len();
        // Values materialized, now the DDL critical section: the write
        // lock drains in-flight serves, and the index rebuild bumps the
        // catalog version so stale cached plans invalidate.
        self.with_catalog_mut(|cat| -> Result<()> {
            let id = cat.table_by_name(table)?.id;
            cat.insert(id, materialized)?;
            cat.build_indexes(id)
        })?;
        Ok(QueryOutput {
            columns: vec!["rows_inserted".into()],
            rows: vec![vec![Value::Int(n as i64)]],
            work_units: n as u64,
            critical_work_units: n as u64,
        })
    }
}

/// Slice a statement's concatenated annotations back into per-branch runs:
/// each branch's run is as long as its plan's pre-order node count
/// (`annotate` walks the same order, and the executed clone shares the
/// cached plan's structure).
fn branch_annotations<'a>(
    planned: &'a PlannedQuery,
    nodes: &'a [NodeAnnotation],
) -> impl Iterator<Item = (&'a PlannedBranch, &'a [NodeAnnotation])> {
    let mut off = 0usize;
    planned.branches.iter().map(move |b| {
        let n = count_nodes(&b.plan);
        let run = nodes.get(off..off + n).unwrap_or(&[]);
        off += n;
        (b, run)
    })
}

/// Render a planned statement as EXPLAIN text — or, given an execution's
/// annotations, EXPLAIN ANALYZE text — one tree per union branch.
fn render(cat: &Catalog, planned: &PlannedQuery, nodes: Option<&[NodeAnnotation]>) -> String {
    let mut out = String::new();
    for (i, (b, ann)) in branch_annotations(planned, nodes.unwrap_or(&[])).enumerate() {
        if i > 0 {
            out.push_str(if b.all { "UNION ALL\n" } else { "UNION DISTINCT\n" });
        }
        out.push_str(&explain_with(&b.plan, &b.bound, cat, &b.skeleton, nodes.map(|_| ann)));
    }
    out
}

/// Evaluate a constant INSERT expression.
fn ast_const_to_value(e: &taurus_sql::AstExpr, layout: &Layout) -> Result<Value> {
    use taurus_sql::AstExpr as A;
    let expr = match e {
        A::Lit(v) => taurus_common::Expr::Literal(v.clone()),
        A::Neg(inner) => return ast_const_to_value(inner, layout)?.neg(),
        other => {
            return Err(Error::semantic(format!("INSERT values must be literals, got {other:?}")))
        }
    };
    expr.eval(EvalCtx::new(&[], layout))
}
