//! Plan execution.
//!
//! Execution is recursive and materializing: each operator returns its full
//! result. Correlation is handled through *bindings* — a nested-loop join
//! re-opens its right subtree once per left row with the left row appended
//! to the binding, so correlated index lookups, correlated derived tables,
//! and re-materialization ("invalidation") all fall out of one mechanism.
//!
//! Rows are tested before they are built: every predicate is an
//! [`Expr::truth`] over a borrowed row view ([`Env`]), joins evaluate their
//! conditions over `(left, right)` and concatenate only the pairs that pass
//! (a nested loop's ON through a [`Conjunction`] prepared once per open), and
//! a cached `Materialize` hands its rows out by pointer ([`Rows`]).
//!
//! Work-unit counters in [`ExecStats`] make benchmark comparisons
//! machine-independent: the paper's run-time ratios are driven by rows
//! flowing through operators and index lookups performed, both of which are
//! counted here exactly.

use crate::agg::Accumulator;
use crate::governor::{rows_bytes, QueryGovernor};
use crate::observe::{NodeObservation, ObserverIndex};
use crate::parallel::exchange::{self, BuildTable};
use crate::parallel::morsel::{MorselSpec, DEFAULT_MORSEL_ROWS};
use crate::plan::{AggStrategy, ExchangeKind, JoinKind, Plan, RowSpace};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use taurus_catalog::Catalog;
use taurus_common::error::{Error, Result};
use taurus_common::expr::EvalCtx;
use taurus_common::{BinOp, Expr, Layout, Row, Value};

/// Lock a mutex, recovering from poisoning: a panicking worker is already
/// surfaced as an execution error, and every value guarded here (caches of
/// fully-computed results) is only ever written whole.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One `rebind = false` materialization slot: computed once (under the
/// slot's lock) and then shared by reference across workers.
type MatSlot = Mutex<Option<Arc<Vec<Row>>>>;

/// Work-unit counters accumulated over one query execution.
#[derive(Debug, Default)]
pub struct ExecStats {
    /// Rows emitted by all operators combined (the dominant work measure).
    pub rows_emitted: Cell<u64>,
    /// Rows read from base-table heaps and indexes.
    pub rows_scanned: Cell<u64>,
    /// Point lookups performed against indexes.
    pub index_lookups: Cell<u64>,
    /// Probe-side rows hashed against a build table.
    pub hash_probes: Cell<u64>,
    /// Rows inserted into hash-join build tables.
    pub build_rows: Cell<u64>,
    /// Times a Materialize node (re)ran its input.
    pub materializations: Cell<u64>,
    /// Work units performed inside parallel workers, summed over all
    /// workers of all exchanges (a subset of [`ExecStats::work_units`]).
    pub parallel_work: Cell<u64>,
    /// Sum over exchanges of the *slowest* worker's work — the portion of
    /// `parallel_work` that is on the critical path.
    pub parallel_critical: Cell<u64>,
    /// Per-operator observations (indexed by [`ObserverIndex`] node id).
    /// Empty unless an observer is installed on the context.
    pub nodes: RefCell<Vec<NodeObservation>>,
}

impl ExecStats {
    /// Single scalar "work" figure used by the benches: every counted unit
    /// is roughly one row's worth of processing.
    pub fn work_units(&self) -> u64 {
        self.rows_emitted.get()
            + self.rows_scanned.get()
            + self.index_lookups.get()
            + self.hash_probes.get()
            + self.build_rows.get()
    }

    /// Machine-independent critical-path work: total work minus the part
    /// that ran in parallel workers, plus the slowest worker per exchange.
    /// Equals [`ExecStats::work_units`] for a serial execution; the
    /// `parallel` harness report gates on `serial_work / critical_path`.
    pub fn critical_path_work(&self) -> u64 {
        self.work_units()
            .saturating_sub(self.parallel_work.get())
            .saturating_add(self.parallel_critical.get())
    }

    /// Fold a worker's counters into this (parent) stats block.
    pub(crate) fn merge(&self, other: &ExecStats) {
        Self::bump(&self.rows_emitted, other.rows_emitted.get());
        Self::bump(&self.rows_scanned, other.rows_scanned.get());
        Self::bump(&self.index_lookups, other.index_lookups.get());
        Self::bump(&self.hash_probes, other.hash_probes.get());
        Self::bump(&self.build_rows, other.build_rows.get());
        Self::bump(&self.materializations, other.materializations.get());
        Self::bump(&self.parallel_work, other.parallel_work.get());
        Self::bump(&self.parallel_critical, other.parallel_critical.get());
        let theirs = other.nodes.borrow();
        if !theirs.is_empty() {
            let mut ours = self.nodes.borrow_mut();
            if ours.len() < theirs.len() {
                ours.resize(theirs.len(), NodeObservation::default());
            }
            for (o, t) in ours.iter_mut().zip(theirs.iter()) {
                o.rows += t.rows;
                o.loops += t.loops;
            }
        }
    }

    pub(crate) fn bump(cell: &Cell<u64>, by: u64) {
        cell.set(cell.get() + by);
    }
}

/// Per-execution context: the catalog, the query's table count, counters,
/// and the materialization cache. Counters stay `Cell`-based (no atomics in
/// the hot path): each parallel worker gets its *own* context via
/// [`SharedExec::worker`] and the pool merges counters after joining; only
/// the materialization and broadcast caches are shared across workers.
pub struct ExecContext<'a> {
    pub catalog: &'a Catalog,
    pub num_tables: usize,
    pub stats: ExecStats,
    /// `rebind = false` materialization slots, shared across workers — the
    /// first worker to reach a slot computes it under the slot's lock.
    cache: Arc<Vec<MatSlot>>,
    /// Shared hash-join build tables, keyed by `Broadcast` exchange slot.
    broadcast: Arc<Mutex<HashMap<usize, Arc<BuildTable>>>>,
    /// Target rows per morsel for parallel fragments (a runtime knob; the
    /// stress tests sweep it to shake out scheduling-order bugs).
    morsel_rows: usize,
    /// Set inside pool workers: forbids nested worker pools.
    in_worker: bool,
    /// The morsel restriction installed by the worker loop: the driving
    /// scan with this qt only visits positions `[lo, hi)` of its iteration
    /// order.
    morsel: Cell<Option<MorselSpec>>,
    /// Per-node observation index for `EXPLAIN ANALYZE`; `None` (the
    /// default) keeps execution uninstrumented.
    observer: Option<Arc<ObserverIndex>>,
    /// The query's resource governor (cancel token, deadline, memory
    /// accounting), shared across all workers of the query. `None` (the
    /// default) keeps execution ungoverned.
    governor: Option<Arc<QueryGovernor>>,
}

impl<'a> ExecContext<'a> {
    /// `num_cache_slots` comes from [`Plan::assign_cache_slots`].
    pub fn new(catalog: &'a Catalog, num_tables: usize, num_cache_slots: usize) -> Self {
        ExecContext {
            catalog,
            num_tables,
            stats: ExecStats::default(),
            cache: Arc::new((0..num_cache_slots).map(|_| Mutex::new(None)).collect()),
            broadcast: Arc::new(Mutex::new(HashMap::new())),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            in_worker: false,
            morsel: Cell::new(None),
            observer: None,
            governor: None,
        }
    }

    /// Override the morsel granularity (rows per morsel, clamped to ≥ 1).
    pub fn set_morsel_rows(&mut self, rows: usize) {
        self.morsel_rows = rows.max(1);
    }

    /// Accepted and ignored: there is one executor. Kept only because the
    /// benchmark's replica calls it (perf/README.md "The pinned surface").
    pub fn set_vectorized(&mut self, _on: bool) {}

    /// Install a per-node observer. Every operator of the indexed plan then
    /// records its actual rows and loop count into `stats.nodes`.
    pub fn set_observer(&mut self, observer: Arc<ObserverIndex>) {
        self.observer = Some(observer);
    }

    /// Install the query's resource governor. Operators then check it at
    /// every opening (and the worker pool before every morsel claim) and
    /// charge their buffer footprints against its memory budget.
    pub fn set_governor(&mut self, governor: Arc<QueryGovernor>) {
        self.governor = Some(governor);
    }

    /// Cancel/deadline check at an operator or morsel boundary. No-op when the
    /// execution is ungoverned.
    pub(crate) fn check_governor(&self) -> Result<()> {
        match &self.governor {
            Some(g) => g.check(),
            None => Ok(()),
        }
    }

    /// Charge operator buffer bytes against the memory budget (no-op when
    /// ungoverned). Callers must [`ExecContext::uncharge_mem`] the same
    /// amount when the buffer is released — except on error unwinds, where
    /// the governor is discarded with the failed query.
    pub(crate) fn charge_mem(&self, bytes: u64) -> Result<()> {
        match &self.governor {
            Some(g) => g.charge(bytes),
            None => Ok(()),
        }
    }

    /// Release a previous [`ExecContext::charge_mem`].
    pub(crate) fn uncharge_mem(&self, bytes: u64) {
        if let Some(g) = &self.governor {
            g.uncharge(bytes);
        }
    }

    /// Credit one completed opening of `plan` with `rows` output rows.
    pub(crate) fn record(&self, plan: &Plan, rows: u64) {
        let Some(obs) = &self.observer else { return };
        if let Some(id) = obs.id_of(plan) {
            let mut nodes = self.stats.nodes.borrow_mut();
            if nodes.len() < obs.len() {
                nodes.resize(obs.len(), NodeObservation::default());
            }
            nodes[id].rows += rows;
            nodes[id].loops += 1;
        }
    }

    pub fn morsel_rows(&self) -> usize {
        self.morsel_rows
    }

    pub(crate) fn in_worker(&self) -> bool {
        self.in_worker
    }

    /// The `Sync` slice of this context that worker threads clone their own
    /// contexts from: shared caches by `Arc`, fresh counters per worker.
    pub(crate) fn shared(&self) -> SharedExec<'a> {
        SharedExec {
            catalog: self.catalog,
            num_tables: self.num_tables,
            cache: self.cache.clone(),
            broadcast: self.broadcast.clone(),
            morsel_rows: self.morsel_rows,
            observer: self.observer.clone(),
            governor: self.governor.clone(),
        }
    }

    /// Restrict the driving scan `qt` to the given morsel (workers only).
    pub(crate) fn set_morsel(&self, spec: Option<MorselSpec>) {
        self.morsel.set(spec);
    }

    pub(crate) fn morsel_range(&self, qt: usize) -> Option<(usize, usize)> {
        match self.morsel.get() {
            Some(m) if m.qt == qt => Some((m.lo, m.hi)),
            _ => None,
        }
    }

    /// Fetch the shared build table for a broadcast slot, computing it under
    /// the cache lock if this is the first worker to need it.
    pub(crate) fn shared_build(
        &self,
        slot: usize,
        build: impl FnOnce() -> Result<BuildTable>,
    ) -> Result<Arc<BuildTable>> {
        let mut map = lock(&self.broadcast);
        if let Some(b) = map.get(&slot) {
            return Ok(b.clone());
        }
        let b = Arc::new(build()?);
        map.insert(slot, b.clone());
        Ok(b)
    }
}

/// The thread-shareable parts of an [`ExecContext`]. Worker threads derive
/// their own contexts from this; plans are `Send` because every shared data
/// structure on the path (tables, indexes, histogram statistics, cached
/// materializations) is owned or behind `Arc`.
#[derive(Clone)]
pub(crate) struct SharedExec<'a> {
    catalog: &'a Catalog,
    num_tables: usize,
    cache: Arc<Vec<MatSlot>>,
    broadcast: Arc<Mutex<HashMap<usize, Arc<BuildTable>>>>,
    morsel_rows: usize,
    observer: Option<Arc<ObserverIndex>>,
    governor: Option<Arc<QueryGovernor>>,
}

impl<'a> SharedExec<'a> {
    /// A worker's private context sharing the parent's caches.
    pub(crate) fn worker(&self) -> ExecContext<'a> {
        ExecContext {
            catalog: self.catalog,
            num_tables: self.num_tables,
            stats: ExecStats::default(),
            cache: self.cache.clone(),
            broadcast: self.broadcast.clone(),
            morsel_rows: self.morsel_rows,
            in_worker: true,
            morsel: Cell::new(None),
            observer: self.observer.clone(),
            governor: self.governor.clone(),
        }
    }
}

/// An outer binding: the rows of already-bound tables, for correlation.
#[derive(Clone, Copy)]
pub(crate) struct Binding<'a> {
    pub(crate) row: &'a [Value],
    pub(crate) layout: &'a Layout,
}

impl Binding<'_> {
    /// Evaluate an expression that reads the binding only (index-lookup
    /// keys, range bounds).
    pub(crate) fn eval(&self, e: &Expr) -> Result<Value> {
        e.eval(EvalCtx::new(self.row, self.layout))
    }
}

/// An operator's result: rows it owns, or rows a cached `Materialize` slot
/// shares by pointer. Reads go through the slice; only a consumer that
/// moves rows out pays for a copy of shared ones.
pub(crate) enum Rows {
    Owned(Vec<Row>),
    Shared(Arc<Vec<Row>>),
}

impl std::ops::Deref for Rows {
    type Target = [Row];

    fn deref(&self) -> &[Row] {
        match self {
            Rows::Owned(v) => v,
            Rows::Shared(a) => a,
        }
    }
}

impl Rows {
    pub(crate) fn into_owned(self) -> Vec<Row> {
        match self {
            Rows::Owned(v) => v,
            Rows::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| a.as_ref().clone()),
        }
    }

    /// The rows `keep` accepts, in order: moved when owned, cloned (the
    /// survivors only) when shared.
    fn filtered(self, mut keep: impl FnMut(&Row) -> Result<bool>) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        match self {
            Rows::Owned(v) => {
                for row in v {
                    if keep(&row)? {
                        out.push(row);
                    }
                }
            }
            Rows::Shared(a) => {
                for row in a.iter() {
                    if keep(row)? {
                        out.push(row.clone());
                    }
                }
            }
        }
        Ok(out)
    }

    /// The first `n` rows.
    fn truncated(self, n: usize) -> Vec<Row> {
        match self {
            Rows::Owned(mut v) => {
                v.truncate(n);
                v
            }
            Rows::Shared(a) => a[..n.min(a.len())].to_vec(),
        }
    }
}

/// Execute a plan to completion with no outer binding.
pub fn execute(plan: &Plan, ctx: &ExecContext<'_>) -> Result<Vec<Row>> {
    let empty_layout = Layout::empty(ctx.num_tables);
    exec(plan, ctx, Binding { row: &[], layout: &empty_layout }).map(Rows::into_owned)
}

/// Evaluation environment: the (borrowed) binding row as a prefix of an
/// operator's own rows, under the joined layout. Nothing is copied per row —
/// expressions read the binding, the row, or a `(left, right)` pair in place
/// through an [`EvalCtx`] view.
pub(crate) struct Env<'b> {
    layout: Layout,
    prefix: &'b [Value],
}

impl<'b> Env<'b> {
    pub(crate) fn new(binding: Binding<'b>, input_space: &RowSpace, num_tables: usize) -> Env<'b> {
        match input_space {
            RowSpace::Tables(l) if binding.layout.width() == 0 => {
                Env { layout: l.clone(), prefix: &[] }
            }
            RowSpace::Tables(l) => Env { layout: binding.layout.join(l), prefix: binding.row },
            // Slot-space rows are addressed by Expr::Slot; the binding never
            // reaches above a projection/aggregation boundary.
            RowSpace::Slots(_) => Env { layout: Layout::empty(num_tables), prefix: &[] },
        }
    }

    /// The view of `binding ++ left ++ right` (`right` empty for one row).
    #[inline]
    fn view<'a>(&'a self, left: &'a [Value], right: &'a [Value]) -> EvalCtx<'a> {
        EvalCtx::split(self.prefix, left, right, &self.layout)
    }

    pub(crate) fn eval(&self, e: &Expr, row: &[Value]) -> Result<Value> {
        e.eval(self.view(row, &[]))
    }

    /// Whether every conjunct is TRUE for `row`.
    fn passes(&self, filters: &[Expr], row: &[Value]) -> Result<bool> {
        self.pair_passes(filters, row, &[])
    }

    /// Whether every conjunct is TRUE for the pair `left ++ right`, without
    /// building it. Stops at the first conjunct that is not.
    fn pair_passes(&self, filters: &[Expr], left: &[Value], right: &[Value]) -> Result<bool> {
        let view = self.view(left, right);
        for f in filters {
            if f.truth(view)? != Some(true) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Three-valued conjunction over the pair: FALSE short-circuits, any
    /// UNKNOWN without a FALSE leaves the pair's membership unknown — which
    /// matters for NULL-aware anti joins (NOT IN).
    fn pair_verdict(
        &self,
        c: &Conjunction,
        left: &[Value],
        right: &[Value],
    ) -> Result<Option<bool>> {
        let view = self.view(left, right);
        let mut verdict = Some(true);
        for i in 0..c.conjuncts.len() {
            match c.truth(i, view)? {
                Some(true) => {}
                Some(false) => return Ok(Some(false)),
                None => verdict = None,
            }
        }
        Ok(verdict)
    }
}

/// A nested loop's ON conjuncts, prepared once per open. A conjunct is
/// *guarded* when it is an OR whose every arm opens with the same expression
/// `g` ([`Expr::or_lead`]), as `p_partkey = l_partkey` opens TPC-H q19's
/// three. Where `g` is FALSE the conjunct is FALSE without evaluating the OR
/// — exact, errors included: `g` is the first thing the OR would evaluate,
/// and then nothing else. Everything else is [`Expr::truth`]. Only the
/// nested loop guards: it is the one site where a benchmark plan (q19's) has
/// a guarded conjunct.
pub(crate) struct Conjunction<'p> {
    conjuncts: &'p [Expr],
    /// Each conjunct's guard; empty when no conjunct is an OR.
    guards: Vec<Option<Guard<'p>>>,
}

/// A guard comparing columns, literals or params is resolved to slots of the
/// view at open; any other shape, or a column the layout does not cover (an
/// error `Expr::truth` reports), is decided by `Expr::truth`.
enum Guard<'p> {
    Cmp(BinOp, Operand<'p>, Operand<'p>),
    Expr(&'p Expr),
}

#[derive(Clone, Copy)]
enum Operand<'p> {
    Slot(usize),
    Const(&'p Value),
}

impl<'p> Conjunction<'p> {
    fn new(conjuncts: &'p [Expr], layout: &Layout) -> Self {
        let guards = if conjuncts.iter().any(|c| matches!(c, Expr::Binary { op: BinOp::Or, .. })) {
            conjuncts.iter().map(|c| c.or_lead().map(|g| Guard::new(g, layout))).collect()
        } else {
            Vec::new()
        };
        Conjunction { conjuncts, guards }
    }

    /// Three-valued truth of conjunct `i` over `view`.
    #[inline]
    fn truth(&self, i: usize, view: EvalCtx<'_>) -> Result<Option<bool>> {
        if let Some(Some(g)) = self.guards.get(i) {
            if g.truth(view)? == Some(false) {
                return Ok(Some(false));
            }
        }
        self.conjuncts[i].truth(view)
    }
}

impl<'p> Guard<'p> {
    fn new(g: &'p Expr, layout: &Layout) -> Self {
        let operand = |e: &'p Expr| match e {
            Expr::Column(c) => layout.slot(c.table, c.col).map(Operand::Slot),
            Expr::Literal(v) | Expr::Param { value: v, .. } => Some(Operand::Const(v)),
            _ => None,
        };
        if let Expr::Binary { op, left, right } = g {
            if let (true, Some(l), Some(r)) = (op.is_comparison(), operand(left), operand(right)) {
                return Guard::Cmp(*op, l, r);
            }
        }
        Guard::Expr(g)
    }

    #[inline]
    fn truth(&self, view: EvalCtx<'_>) -> Result<Option<bool>> {
        let value = |o: &Operand<'p>| match *o {
            Operand::Slot(s) => view.value(s),
            Operand::Const(v) => v,
        };
        match self {
            Guard::Cmp(op, l, r) => Ok(op.compare(value(l), value(r))),
            Guard::Expr(g) => g.truth(view),
        }
    }
}

/// `left ++ right` as one owned row.
fn concat(left: &[Value], right: &[Value]) -> Row {
    let mut joined = Vec::with_capacity(left.len() + right.len());
    joined.extend_from_slice(left);
    joined.extend_from_slice(right);
    joined
}

/// Execute one node and record its observation (when an observer is
/// installed). All recursion goes through here, so every node of the tree —
/// including exchanges, which bypass the work-unit accounting below — gets
/// its actual rows and loop count credited.
pub(crate) fn exec(plan: &Plan, ctx: &ExecContext<'_>, binding: Binding<'_>) -> Result<Rows> {
    // The governance check: every operator opening (and every correlated
    // re-opening) passes through here, so a cancelled or out-of-time query
    // unwinds within one operator opening.
    ctx.check_governor()?;
    let out = exec_node(plan, ctx, binding)?;
    ctx.record(plan, out.len() as u64);
    Ok(out)
}

fn exec_node(plan: &Plan, ctx: &ExecContext<'_>, binding: Binding<'_>) -> Result<Rows> {
    let out: Vec<Row> = match plan {
        Plan::TableScan { table, qt, filter, .. } => {
            let t = ctx.catalog.table(*table)?;
            // Inside a parallel worker the driving scan only visits its
            // morsel's slice of the heap order.
            let (skip, take) = scan_window(ctx.morsel_range(*qt));
            let rows = t.data.scan().skip(skip).take(take).map(|(_, row)| row);
            scan_rows(plan, filter, rows, ctx, binding)?
        }
        Plan::IndexScan { table, qt, index, filter, .. } => {
            let t = ctx.catalog.table(*table)?;
            let ix = t.indexes.get(*index).ok_or_else(|| Error::internal("bad index id"))?;
            // Morsels over an index scan slice its *key order* positions.
            let (skip, take) = scan_window(ctx.morsel_range(*qt));
            let rows = ix.scan_ordered().skip(skip).take(take).map(|rid| t.data.row(rid));
            scan_rows(plan, filter, rows, ctx, binding)?
        }
        Plan::IndexRange { table, index, lo, hi, filter, .. } => {
            let t = ctx.catalog.table(*table)?;
            let ix = t.indexes.get(*index).ok_or_else(|| Error::internal("bad index id"))?;
            // Bounds evaluate against the binding only (usually constants).
            let lo_v =
                lo.as_ref().map(|(e, inc)| Ok::<_, Error>((binding.eval(e)?, *inc))).transpose()?;
            let hi_v =
                hi.as_ref().map(|(e, inc)| Ok::<_, Error>((binding.eval(e)?, *inc))).transpose()?;
            // A NULL bound makes the consumed comparison UNKNOWN for every
            // row: the range matches nothing. (NULL sorts first in the
            // index's total order, so [NULL, ∞) would otherwise cover the
            // whole table.)
            let null_bound = lo_v.as_ref().is_some_and(|(v, _)| v.is_null())
                || hi_v.as_ref().is_some_and(|(v, _)| v.is_null());
            if null_bound {
                Vec::new()
            } else {
                // An unbounded-below range must still start *after* the
                // index's NULL prefix: the range comes from a comparison
                // predicate, which is UNKNOWN for a NULL key, yet NULL
                // sorts first in the key order — `k <= hi` with no lower
                // bound would otherwise sweep every NULL row in. An
                // exclusive NULL bound is exactly "skip the NULL prefix".
                let lo_arg = match lo_v.as_ref() {
                    Some((v, i)) => Some((v, *i)),
                    None => Some((&Value::Null, false)),
                };
                let rids = ix.range(lo_arg, hi_v.as_ref().map(|(v, i)| (v, *i)));
                scan_rows(plan, filter, rids.map(|rid| t.data.row(rid)), ctx, binding)?
            }
        }
        Plan::IndexLookup { table, index, keys, filter, .. } => {
            let t = ctx.catalog.table(*table)?;
            let ix = t.indexes.get(*index).ok_or_else(|| Error::internal("bad index id"))?;
            let mut key_vals = Vec::with_capacity(keys.len());
            let mut any_null = false;
            for k in keys {
                let v = binding.eval(k)?;
                any_null |= v.is_null();
                key_vals.push(v);
            }
            ExecStats::bump(&ctx.stats.index_lookups, 1);
            // A NULL key never matches anything under `=` semantics.
            if any_null {
                Vec::new()
            } else {
                let rows = ix.lookup(&key_vals).map(|rid| t.data.row(rid));
                scan_rows(plan, filter, rows, ctx, binding)?
            }
        }
        Plan::NestedLoop { kind, left, right, on, null_aware, .. } => {
            exec_nested_loop(*kind, left, right, on, *null_aware, ctx, binding)?
        }
        Plan::HashJoin { kind, build_left, left, right, keys, residual, null_aware, .. } => {
            exec_hash_join(
                *kind,
                *build_left,
                left,
                right,
                keys,
                residual,
                *null_aware,
                ctx,
                binding,
            )?
        }
        Plan::Filter { input, predicate, .. } => {
            let rows = exec(input, ctx, binding)?;
            let env = Env::new(binding, &input.space(ctx.num_tables), ctx.num_tables);
            rows.filtered(|row| env.passes(predicate, row))?
        }
        // Pass-throughs hand their input's rows on untouched (a cached
        // slot's stay shared); only the emit count is theirs.
        Plan::Derived { input, .. } => return emitted(exec(input, ctx, binding)?, ctx),
        Plan::Materialize { input, rebind, cache_slot, .. } => {
            if *rebind {
                // Correlated: re-materialize under the current binding
                // (MySQL's "invalidate on row from ...").
                ExecStats::bump(&ctx.stats.materializations, 1);
                return emitted(exec(input, ctx, binding)?, ctx);
            } else {
                // Compute-under-lock: concurrent workers wanting the same
                // slot wait for the first one instead of duplicating work.
                // Slot locks nest strictly outer-before-inner (tree order),
                // identically in every worker, so no cycles are possible.
                let slot = ctx
                    .cache
                    .get(*cache_slot)
                    .ok_or_else(|| Error::internal("materialize cache slot out of range"))?;
                let mut slot = lock(slot);
                let rows = match &*slot {
                    Some(rows) => rows.clone(),
                    None => {
                        ExecStats::bump(&ctx.stats.materializations, 1);
                        let rows = match exec(input, ctx, binding)? {
                            Rows::Owned(v) => Arc::new(v),
                            Rows::Shared(a) => a,
                        };
                        // The slot outlives this operator (it is shared by
                        // every worker), so its charge is never released.
                        ctx.charge_mem(rows_bytes(&rows))?;
                        *slot = Some(rows.clone());
                        rows
                    }
                };
                return emitted(Rows::Shared(rows), ctx);
            }
        }
        Plan::Project { input, exprs, .. } => {
            let rows = exec(input, ctx, binding)?;
            let env = Env::new(binding, &input.space(ctx.num_tables), ctx.num_tables);
            let mut out = Vec::with_capacity(rows.len());
            for row in rows.iter() {
                let mut prow = Vec::with_capacity(exprs.len());
                for e in exprs {
                    prow.push(env.eval(e, row)?);
                }
                out.push(prow);
            }
            out
        }
        Plan::Aggregate { input, group_by, aggs, strategy, .. } => {
            // A Repartition exchange below a grouped aggregate switches to
            // two-phase partitioned aggregation (each worker owns a
            // disjoint set of groups); any other input aggregates serially.
            if let Plan::Exchange {
                kind: ExchangeKind::Repartition { keys },
                input: pinput,
                dop,
                ..
            } = input.as_ref()
            {
                exchange::exec_partitioned_agg(
                    pinput, keys, *dop, group_by, aggs, input, ctx, binding,
                )?
            } else {
                let rows = exec(input, ctx, binding)?;
                let env = Env::new(binding, &input.space(ctx.num_tables), ctx.num_tables);
                // Hash aggregation holds group state proportional to its
                // input; stream aggregation is O(1) and charges nothing.
                let agg_bytes = if *strategy == AggStrategy::Hash { rows_bytes(&rows) } else { 0 };
                ctx.charge_mem(agg_bytes)?;
                let out = exec_aggregate(&rows, group_by, aggs, *strategy, &env)?;
                ctx.uncharge_mem(agg_bytes);
                out
            }
        }
        Plan::Sort { input, keys, .. } => {
            let rows = exec(input, ctx, binding)?.into_owned();
            let env = Env::new(binding, &input.space(ctx.num_tables), ctx.num_tables);
            // The keyed sort buffer roughly doubles the input's footprint
            // while the sort runs; released once the rows are re-emitted.
            let sort_bytes = rows_bytes(&rows);
            ctx.charge_mem(sort_bytes)?;
            let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
            for row in rows {
                let mut kv = Vec::with_capacity(keys.len());
                for k in keys {
                    kv.push(env.eval(&k.expr, &row)?);
                }
                keyed.push((kv, row));
            }
            keyed.sort_by(|(a, _), (b, _)| crate::ordering::cmp_key_tuples(a, b, keys));
            let out: Vec<Row> = keyed.into_iter().map(|(_, r)| r).collect();
            ctx.uncharge_mem(sort_bytes);
            out
        }
        Plan::Limit { input, n, .. } => exec(input, ctx, binding)?.truncated(*n as usize),
        Plan::Union { inputs, distinct, .. } => {
            let mut out = Vec::new();
            for p in inputs {
                out.extend(exec(p, ctx, binding)?.into_owned());
            }
            if *distinct {
                let mut seen = std::collections::HashSet::new();
                out.retain(|r| seen.insert(r.clone()));
            }
            out
        }
        // Exchanges move buffers between workers; they never process rows
        // themselves (the fragment's operators already counted every row).
        // Returning early — skipping the emit bump below — keeps a parallel
        // plan's total work_units identical to the serial plan's, so the
        // harness speedup is pure critical-path math.
        Plan::Exchange { kind, input, dop, .. } => {
            return match kind {
                ExchangeKind::Gather | ExchangeKind::GatherMerge => {
                    exchange::exec_gather(kind, input, *dop, ctx, binding).map(Rows::Owned)
                }
                // Repartition is consumed by the Aggregate arm above;
                // Broadcast by the hash-join build path. Reached directly
                // (e.g. by a plan built by hand) both are order-preserving
                // pass-throughs.
                ExchangeKind::Repartition { .. } | ExchangeKind::Broadcast { .. } => {
                    exec(input, ctx, binding)
                }
            };
        }
    };
    emitted(Rows::Owned(out), ctx)
}

/// Count an operator's output rows as emitted work.
fn emitted(rows: Rows, ctx: &ExecContext<'_>) -> Result<Rows> {
    ExecStats::bump(&ctx.stats.rows_emitted, rows.len() as u64);
    Ok(rows)
}

/// What every leaf scan does with the rows its access path yields: count
/// each as scanned and keep a copy of those the pushed-down filter passes.
/// With no filter there is nothing to evaluate, so no environment (a layout
/// per `num_tables`) is built — the usual shape of a correlated index
/// lookup, which is re-opened once per outer row.
fn scan_rows<'r>(
    plan: &Plan,
    filter: &[Expr],
    rows: impl Iterator<Item = &'r Row>,
    ctx: &ExecContext<'_>,
    binding: Binding<'_>,
) -> Result<Vec<Row>> {
    let env = (!filter.is_empty())
        .then(|| Env::new(binding, &plan.space(ctx.num_tables), ctx.num_tables));
    let mut out = Vec::new();
    for row in rows {
        ExecStats::bump(&ctx.stats.rows_scanned, 1);
        let keep = match &env {
            Some(env) => env.passes(filter, row)?,
            None => true,
        };
        if keep {
            out.push(row.clone());
        }
    }
    Ok(out)
}

/// `(skip, take)` for a scan iterator under an optional morsel restriction.
fn scan_window(range: Option<(usize, usize)>) -> (usize, usize) {
    match range {
        Some((lo, hi)) => (lo, hi.saturating_sub(lo)),
        None => (0, usize::MAX),
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_nested_loop(
    kind: JoinKind,
    left: &Plan,
    right: &Plan,
    on: &[Expr],
    null_aware: bool,
    ctx: &ExecContext<'_>,
    binding: Binding<'_>,
) -> Result<Vec<Row>> {
    let left_rows = exec(left, ctx, binding)?;
    let (RowSpace::Tables(left_layout), RowSpace::Tables(right_layout)) =
        (left.space(ctx.num_tables), right.space(ctx.num_tables))
    else {
        return Err(Error::internal("join children must be in table space"));
    };
    let right_width = right_layout.width();
    // The right subtree opens under binding + left; the ON condition sees
    // binding + left + right. Each child's space is worked out once per open,
    // and under no binding the left layout is the inner one as it stands.
    let inner_layout =
        if binding.layout.width() == 0 { left_layout } else { binding.layout.join(&left_layout) };
    let on_env = Env { layout: inner_layout.join(&right_layout), prefix: binding.row };
    let on = Conjunction::new(on, &on_env.layout);
    let mut out = Vec::new();
    // The binding for the right subtree is `binding ++ lrow`; the buffer is
    // reused across left rows.
    let mut bound_row = binding.row.to_vec();
    for lrow in left_rows.iter() {
        bound_row.truncate(binding.row.len());
        bound_row.extend_from_slice(lrow);
        let inner_binding = Binding { row: &bound_row, layout: &inner_layout };
        let right_rows = exec(right, ctx, inner_binding)?;

        let mut matched = false;
        let mut saw_unknown = false;
        for rrow in right_rows.iter() {
            match on_env.pair_verdict(&on, lrow, rrow)? {
                Some(true) => {
                    matched = true;
                    match kind {
                        JoinKind::Inner | JoinKind::LeftOuter => out.push(concat(lrow, rrow)),
                        JoinKind::Semi => {
                            out.push(lrow.clone());
                            break;
                        }
                        JoinKind::AntiSemi => break,
                    }
                }
                None => saw_unknown = true,
                Some(false) => {}
            }
        }
        if !matched {
            match kind {
                JoinKind::LeftOuter => out.push(null_padded(lrow, right_width)),
                JoinKind::AntiSemi if !(null_aware && saw_unknown) => {
                    out.push(lrow.clone());
                }
                _ => {}
            }
        }
    }
    Ok(out)
}

/// `row` followed by `pad` NULLs: an outer join's unmatched left row.
fn null_padded(row: &[Value], pad: usize) -> Row {
    let mut joined = Vec::with_capacity(row.len() + pad);
    joined.extend_from_slice(row);
    joined.extend(std::iter::repeat_n(Value::Null, pad));
    joined
}

/// Row space the ON/residual conditions see: left ++ right (even for
/// semi/anti joins whose *output* is left-only).
fn whole_join_space(num_tables: usize, left: &Plan, right: &Plan) -> Result<RowSpace> {
    match (left.space(num_tables), right.space(num_tables)) {
        (RowSpace::Tables(l), RowSpace::Tables(r)) => Ok(RowSpace::Tables(l.join(&r))),
        _ => Err(Error::internal("join children must be in table space")),
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_hash_join(
    kind: JoinKind,
    build_left: bool,
    left: &Plan,
    right: &Plan,
    keys: &[(Expr, Expr)],
    residual: &[Expr],
    null_aware: bool,
    ctx: &ExecContext<'_>,
    binding: Binding<'_>,
) -> Result<Vec<Row>> {
    if keys.is_empty() {
        return Err(Error::internal("hash join requires at least one equi-key"));
    }
    if build_left && kind != JoinKind::Inner {
        return Err(Error::internal(
            "build-on-left is MySQL's inner-hash-join convention only (§7 item 2)",
        ));
    }
    // Decide sides. Build rows are hashed; probe rows stream past.
    let build_is_left = build_left;
    let (build_plan, probe_plan): (&Plan, &Plan) =
        if build_is_left { (left, right) } else { (right, left) };
    let build_env = Env::new(binding, &build_plan.space(ctx.num_tables), ctx.num_tables);
    let probe_env = Env::new(binding, &probe_plan.space(ctx.num_tables), ctx.num_tables);
    let join_space = whole_join_space(ctx.num_tables, left, right)?;
    let join_env = Env::new(binding, &join_space, ctx.num_tables);
    let build_keys: Vec<&Expr> = if build_is_left {
        keys.iter().map(|(l, _)| l).collect()
    } else {
        keys.iter().map(|(_, r)| r).collect()
    };
    let probe_keys: Vec<&Expr> = if build_is_left {
        keys.iter().map(|(_, r)| r).collect()
    } else {
        keys.iter().map(|(l, _)| l).collect()
    };

    // A Broadcast exchange on the build side shares one build table across
    // all parallel workers (built once, under the broadcast cache's lock);
    // otherwise each execution builds privately, exactly as before. A shared
    // build's memory charge stays until the query ends; a private build's is
    // released once its probe phase finishes.
    let build_is_shared =
        matches!(build_plan, Plan::Exchange { kind: ExchangeKind::Broadcast { .. }, .. });
    let built: Arc<BuildTable> = match build_plan {
        Plan::Exchange { kind: ExchangeKind::Broadcast { slot }, input, .. } => {
            ctx.shared_build(*slot, || {
                let rows = exec(input, ctx, binding)?.into_owned();
                // The broadcast node itself is never routed through `exec`,
                // so credit it here — only on the one actual build, not on
                // cache-served accesses.
                ctx.record(build_plan, rows.len() as u64);
                build_table(rows, &build_keys, &build_env, ctx)
            })?
        }
        _ => {
            let rows = exec(build_plan, ctx, binding)?.into_owned();
            Arc::new(build_table(rows, &build_keys, &build_env, ctx)?)
        }
    };
    let probe_rows = exec(probe_plan, ctx, binding)?;
    let (table, build_rows, build_has_null_key) = (&built.index, &built.rows, built.has_null_key);

    let right_width = right.space(ctx.num_tables).width();
    let mut out = Vec::new();
    // One key buffer for every probe; the table is looked up by slice.
    let mut kv: Vec<Value> = Vec::with_capacity(probe_keys.len());
    for prow in probe_rows.iter() {
        ExecStats::bump(&ctx.stats.hash_probes, 1);
        kv.clear();
        let mut any_null = false;
        for k in &probe_keys {
            let v = probe_env.eval(k, prow)?;
            any_null |= v.is_null();
            kv.push(v);
        }
        let matches: &[usize] = if any_null {
            &[]
        } else {
            table.get(kv.as_slice()).map(|v| v.as_slice()).unwrap_or(&[])
        };

        let mut matched = false;
        for &bi in matches {
            let brow = build_rows
                .get(bi)
                .ok_or_else(|| Error::internal("hash-join build index out of range"))?;
            let (lrow, rrow) = if build_is_left { (brow, prow) } else { (prow, brow) };
            if join_env.pair_passes(residual, lrow, rrow)? {
                matched = true;
                match kind {
                    JoinKind::Inner | JoinKind::LeftOuter => out.push(concat(lrow, rrow)),
                    JoinKind::Semi => {
                        out.push(prow.clone());
                        break;
                    }
                    JoinKind::AntiSemi => break,
                }
            }
        }
        if !matched {
            match kind {
                // Probe is the left side for outer joins (asserted above).
                JoinKind::LeftOuter => out.push(null_padded(prow, right_width)),
                JoinKind::AntiSemi => {
                    // NULL-aware anti join (NOT IN): a NULL probe key, or any
                    // NULL key on the build side, makes membership UNKNOWN —
                    // the row is filtered out, not emitted. Over an EMPTY
                    // build side, though, `x NOT IN (∅)` is TRUE even for
                    // NULL x: there is nothing to be unknown against.
                    if null_aware && !build_rows.is_empty() && (any_null || build_has_null_key) {
                        continue;
                    }
                    out.push(prow.clone());
                }
                _ => {}
            }
        }
    }
    if !build_is_shared {
        ctx.uncharge_mem(rows_bytes(&built.rows));
    }
    Ok(out)
}

/// Hash the build side of a join: index row positions by key values.
/// Rows with any NULL key component are excluded from the index (they can
/// never match under `=`) but remembered for NULL-aware anti joins.
/// Charges the buffered rows against the query's memory budget; the caller
/// owns the uncharge (or leaves it charged, for shared broadcast builds).
fn build_table(
    rows: Vec<Row>,
    keys: &[&Expr],
    env: &Env,
    ctx: &ExecContext<'_>,
) -> Result<BuildTable> {
    ctx.charge_mem(rows_bytes(&rows))?;
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(rows.len());
    let mut has_null_key = false;
    for (i, row) in rows.iter().enumerate() {
        ExecStats::bump(&ctx.stats.build_rows, 1);
        let mut kv = Vec::with_capacity(keys.len());
        let mut any_null = false;
        for k in keys {
            let v = env.eval(k, row)?;
            any_null |= v.is_null();
            kv.push(v);
        }
        if any_null {
            has_null_key = true;
            continue;
        }
        index.entry(kv).or_default().push(i);
    }
    Ok(BuildTable { rows, index, has_null_key })
}

pub(crate) fn exec_aggregate(
    rows: &[Row],
    group_by: &[Expr],
    aggs: &[crate::plan::AggSpec],
    strategy: AggStrategy,
    env: &Env,
) -> Result<Vec<Row>> {
    let feed = |accs: &mut [Accumulator], row: &Row| -> Result<()> {
        for (acc, spec) in accs.iter_mut().zip(aggs) {
            let v = match &spec.arg {
                Some(e) => env.eval(e, row)?,
                None => Value::Int(1), // COUNT(*) placeholder
            };
            acc.update(&v)?;
        }
        Ok(())
    };
    let new_accs = || -> Vec<Accumulator> {
        aggs.iter().map(|s| Accumulator::new(s.func, s.distinct)).collect()
    };
    let emit = |key: Vec<Value>, accs: &[Accumulator]| -> Row {
        let mut row = key;
        row.extend(accs.iter().map(|a| a.finish()));
        row
    };

    // Scalar aggregation (no GROUP BY): always exactly one output row.
    if group_by.is_empty() {
        let mut accs = new_accs();
        for row in rows {
            feed(&mut accs, row)?;
        }
        return Ok(vec![emit(Vec::new(), &accs)]);
    }

    match strategy {
        AggStrategy::Hash => {
            let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
            let mut order: Vec<Vec<Value>> = Vec::new();
            for row in rows {
                let mut key = Vec::with_capacity(group_by.len());
                for g in group_by {
                    key.push(env.eval(g, row)?);
                }
                let accs = match groups.get_mut(&key) {
                    Some(a) => a,
                    None => {
                        order.push(key.clone());
                        groups.entry(key.clone()).or_insert_with(new_accs)
                    }
                };
                feed(accs, row)?;
            }
            let mut out = Vec::with_capacity(order.len());
            for key in order {
                let accs = groups
                    .get(&key)
                    .ok_or_else(|| Error::internal("hash-aggregate group vanished"))?;
                out.push(emit(key, accs));
            }
            Ok(out)
        }
        AggStrategy::Stream => {
            // Input must arrive grouped (sorted) on the keys.
            let mut out = Vec::new();
            let mut current: Option<(Vec<Value>, Vec<Accumulator>)> = None;
            for row in rows {
                let mut key = Vec::with_capacity(group_by.len());
                for g in group_by {
                    key.push(env.eval(g, row)?);
                }
                match &mut current {
                    Some((ck, accs)) if *ck == key => feed(accs, row)?,
                    _ => {
                        if let Some((ck, accs)) = current.take() {
                            out.push(emit(ck, &accs));
                        }
                        let mut accs = new_accs();
                        feed(&mut accs, row)?;
                        current = Some((key, accs));
                    }
                }
            }
            if let Some((ck, accs)) = current.take() {
                out.push(emit(ck, &accs));
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AggSpec, Est, SortKey};
    use taurus_catalog::Catalog;
    use taurus_common::{AggFunc, BinOp, Column, DataType, Schema, TableId};

    /// Two tables: emp(id, dept_id, salary) and dept(id, name).
    fn setup() -> Catalog {
        let mut cat = Catalog::new();
        let emp = cat
            .create_table(
                "emp",
                Schema::new(vec![
                    Column::new("id", DataType::Int),
                    Column::nullable("dept_id", DataType::Int),
                    Column::new("salary", DataType::Int),
                ]),
            )
            .unwrap();
        cat.insert(
            emp,
            vec![
                vec![Value::Int(1), Value::Int(10), Value::Int(100)],
                vec![Value::Int(2), Value::Int(10), Value::Int(200)],
                vec![Value::Int(3), Value::Int(20), Value::Int(300)],
                vec![Value::Int(4), Value::Null, Value::Int(400)],
            ],
        )
        .unwrap();
        cat.create_index(emp, "emp_dept", vec![1], false).unwrap();
        let dept = cat
            .create_table(
                "dept",
                Schema::new(vec![
                    Column::new("id", DataType::Int),
                    Column::new("name", DataType::Str),
                ]),
            )
            .unwrap();
        cat.insert(
            dept,
            vec![
                vec![Value::Int(10), Value::str("eng")],
                vec![Value::Int(20), Value::str("ops")],
                vec![Value::Int(30), Value::str("hr")],
            ],
        )
        .unwrap();
        cat.create_index(dept, "dept_pk", vec![0], true).unwrap();
        cat
    }

    // Query-table convention in these tests: qt 0 = emp, qt 1 = dept.
    const EMP: TableId = TableId(0);
    const DEPT: TableId = TableId(1);

    fn emp_scan(filter: Vec<Expr>) -> Plan {
        Plan::TableScan { table: EMP, qt: 0, width: 3, filter, est: Est::default() }
    }

    fn dept_scan() -> Plan {
        Plan::TableScan { table: DEPT, qt: 1, width: 2, filter: vec![], est: Est::default() }
    }

    fn run(plan: &Plan, cat: &Catalog) -> (Vec<Row>, u64) {
        let mut p = plan.clone();
        let slots = p.assign_cache_slots();
        let ctx = ExecContext::new(cat, 2, slots);
        let rows = execute(&p, &ctx).unwrap();
        (rows, ctx.stats.work_units())
    }

    #[test]
    fn table_scan_with_filter() {
        let cat = setup();
        let plan = emp_scan(vec![Expr::binary(BinOp::Gt, Expr::col(0, 2), Expr::int(150))]);
        let (rows, _) = run(&plan, &cat);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn nested_loop_with_index_lookup_inner() {
        let cat = setup();
        // emp NLJ dept via dept_pk lookup on emp.dept_id.
        let plan = Plan::NestedLoop {
            kind: JoinKind::Inner,
            left: Box::new(emp_scan(vec![])),
            right: Box::new(Plan::IndexLookup {
                table: DEPT,
                qt: 1,
                width: 2,
                index: 0,
                keys: vec![Expr::col(0, 1)], // emp.dept_id from the binding
                filter: vec![],
                est: Est::default(),
            }),
            on: vec![],
            null_aware: false,
            est: Est::default(),
        };
        let (rows, _) = run(&plan, &cat);
        // Employee 4 has NULL dept_id -> no match -> dropped by inner join.
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].len(), 5);
        assert_eq!(rows[0][4], Value::str("eng"));
    }

    #[test]
    fn left_outer_nested_loop_pads_nulls() {
        let cat = setup();
        let plan = Plan::NestedLoop {
            kind: JoinKind::LeftOuter,
            left: Box::new(emp_scan(vec![])),
            right: Box::new(dept_scan()),
            on: vec![Expr::eq(Expr::col(0, 1), Expr::col(1, 0))],
            null_aware: false,
            est: Est::default(),
        };
        let (rows, _) = run(&plan, &cat);
        assert_eq!(rows.len(), 4);
        let null_dept: Vec<_> = rows.iter().filter(|r| r[3].is_null()).collect();
        assert_eq!(null_dept.len(), 1);
        assert_eq!(null_dept[0][0], Value::Int(4));
    }

    #[test]
    fn hash_join_inner_and_build_side_flip() {
        let cat = setup();
        for build_left in [false, true] {
            let plan = Plan::HashJoin {
                kind: JoinKind::Inner,
                build_left,
                left: Box::new(emp_scan(vec![])),
                right: Box::new(dept_scan()),
                keys: vec![(Expr::col(0, 1), Expr::col(1, 0))],
                residual: vec![],
                null_aware: false,
                est: Est::default(),
            };
            let (mut rows, _) = run(&plan, &cat);
            rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
            assert_eq!(rows.len(), 3, "build_left={build_left}");
            // Output column order is left++right regardless of build side.
            assert_eq!(rows[0][0], Value::Int(1));
            assert_eq!(rows[0][4], Value::str("eng"));
        }
    }

    #[test]
    fn hash_join_semi_and_anti() {
        let cat = setup();
        let semi = Plan::HashJoin {
            kind: JoinKind::Semi,
            build_left: false,
            left: Box::new(emp_scan(vec![])),
            right: Box::new(dept_scan()),
            keys: vec![(Expr::col(0, 1), Expr::col(1, 0))],
            residual: vec![],
            null_aware: false,
            est: Est::default(),
        };
        let (rows, _) = run(&semi, &cat);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].len(), 3, "semi join output is left-only");

        let anti = Plan::HashJoin {
            kind: JoinKind::AntiSemi,
            build_left: false,
            left: Box::new(emp_scan(vec![])),
            right: Box::new(dept_scan()),
            keys: vec![(Expr::col(0, 1), Expr::col(1, 0))],
            residual: vec![],
            null_aware: false,
            est: Est::default(),
        };
        let (rows, _) = run(&anti, &cat);
        // Only emp 4 (NULL dept, never matches) survives EXISTS-style anti.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(4));
    }

    #[test]
    fn hash_join_on_a_computed_negative_zero_agrees_with_the_nested_loop() {
        let cat = setup();
        // (emp.id - 1) * -1.0 = dept.id - 10: emp 1 computes -0.0, dept 10
        // computes 0 — equal under `=`, so they must meet in the hash table.
        let lkey = Expr::binary(
            BinOp::Mul,
            Expr::binary(BinOp::Sub, Expr::col(0, 0), Expr::int(1)),
            Expr::lit(Value::Double(-1.0)),
        );
        let rkey = Expr::binary(BinOp::Sub, Expr::col(1, 0), Expr::int(10));
        let nested = Plan::NestedLoop {
            kind: JoinKind::Inner,
            left: Box::new(emp_scan(vec![])),
            right: Box::new(dept_scan()),
            on: vec![Expr::eq(lkey.clone(), rkey.clone())],
            null_aware: false,
            est: Est::default(),
        };
        let hashed = Plan::HashJoin {
            kind: JoinKind::Inner,
            build_left: false,
            left: Box::new(emp_scan(vec![])),
            right: Box::new(dept_scan()),
            keys: vec![(lkey, rkey)],
            residual: vec![],
            null_aware: false,
            est: Est::default(),
        };
        let (want, _) = run(&nested, &cat);
        assert_eq!(want.len(), 1);
        assert_eq!((&want[0][0], &want[0][3]), (&Value::Int(1), &Value::Int(10)));
        assert_eq!(run(&hashed, &cat).0, want);
    }

    #[test]
    fn null_aware_anti_join_not_in_semantics() {
        let cat = setup();
        // emp.dept_id NOT IN (SELECT id FROM dept): emp 4's NULL key makes
        // membership UNKNOWN -> filtered out.
        let anti = Plan::HashJoin {
            kind: JoinKind::AntiSemi,
            build_left: false,
            left: Box::new(emp_scan(vec![])),
            right: Box::new(dept_scan()),
            keys: vec![(Expr::col(0, 1), Expr::col(1, 0))],
            residual: vec![],
            null_aware: true,
            est: Est::default(),
        };
        let (rows, _) = run(&anti, &cat);
        assert_eq!(rows.len(), 0);
    }

    #[test]
    fn aggregation_hash_and_stream_agree() {
        let cat = setup();
        let agg_of = |strategy: AggStrategy, input: Plan| Plan::Aggregate {
            input: Box::new(input),
            group_by: vec![Expr::col(0, 1)],
            aggs: vec![
                AggSpec { func: AggFunc::CountStar, arg: None, distinct: false },
                AggSpec { func: AggFunc::Sum, arg: Some(Expr::col(0, 2)), distinct: false },
            ],
            strategy,
            est: Est::default(),
        };
        let (mut hash_rows, _) = run(&agg_of(AggStrategy::Hash, emp_scan(vec![])), &cat);
        // Stream agg needs sorted input.
        let sorted = Plan::Sort {
            input: Box::new(emp_scan(vec![])),
            keys: vec![SortKey { expr: Expr::col(0, 1), desc: false }],
            est: Est::default(),
        };
        let (mut stream_rows, _) = run(&agg_of(AggStrategy::Stream, sorted), &cat);
        hash_rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        stream_rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(hash_rows, stream_rows);
        assert_eq!(hash_rows.len(), 3); // dept 10, 20, NULL
                                        // Group 10: count 2, sum 300.
        let g10 = hash_rows.iter().find(|r| r[0] == Value::Int(10)).unwrap();
        assert_eq!(g10[1], Value::Int(2));
        assert_eq!(g10[2], Value::Int(300));
    }

    #[test]
    fn scalar_aggregate_on_empty_input() {
        let cat = setup();
        let plan = Plan::Aggregate {
            input: Box::new(emp_scan(vec![Expr::lit(Value::Bool(false))])),
            group_by: vec![],
            aggs: vec![
                AggSpec { func: AggFunc::CountStar, arg: None, distinct: false },
                AggSpec { func: AggFunc::Sum, arg: Some(Expr::col(0, 2)), distinct: false },
            ],
            strategy: AggStrategy::Hash,
            est: Est::default(),
        };
        let (rows, _) = run(&plan, &cat);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(0));
        assert!(rows[0][1].is_null());
    }

    #[test]
    fn sort_limit_projection() {
        let cat = setup();
        let plan = Plan::Limit {
            input: Box::new(Plan::Sort {
                input: Box::new(Plan::Project {
                    input: Box::new(emp_scan(vec![])),
                    exprs: vec![Expr::col(0, 0), Expr::col(0, 2)],
                    est: Est::default(),
                }),
                keys: vec![SortKey { expr: Expr::Slot(1), desc: true }],
                est: Est::default(),
            }),
            n: 2,
            est: Est::default(),
        };
        let (rows, _) = run(&plan, &cat);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], Value::Int(400));
        assert_eq!(rows[1][1], Value::Int(300));
    }

    #[test]
    fn materialize_cache_vs_rebind() {
        let cat = setup();
        // Uncorrelated inner side materialized once despite 4 outer rows.
        let cached = Plan::NestedLoop {
            kind: JoinKind::Inner,
            left: Box::new(emp_scan(vec![])),
            right: Box::new(Plan::Materialize {
                input: Box::new(dept_scan()),
                rebind: false,
                cache_slot: 0,
                est: Est::default(),
            }),
            on: vec![Expr::eq(Expr::col(0, 1), Expr::col(1, 0))],
            null_aware: false,
            est: Est::default(),
        };
        let mut p = cached.clone();
        let slots = p.assign_cache_slots();
        let ctx = ExecContext::new(&cat, 2, slots);
        execute(&p, &ctx).unwrap();
        assert_eq!(ctx.stats.materializations.get(), 1);
        // Re-opens of the filled slot hand out the same allocation, not
        // copies of it.
        let Plan::NestedLoop { right: slot_node, .. } = &p else { unreachable!() };
        let unbound = Layout::empty(2);
        let reopen = || exec(slot_node, &ctx, Binding { row: &[], layout: &unbound }).unwrap();
        match (reopen(), reopen()) {
            (Rows::Shared(a), Rows::Shared(b)) => assert!(Arc::ptr_eq(&a, &b)),
            _ => panic!("a cached Materialize shares its rows"),
        }
        assert_eq!(ctx.stats.materializations.get(), 1);

        // rebind=true re-materializes per outer row (the Q17 invalidation).
        let rebound = Plan::NestedLoop {
            kind: JoinKind::Inner,
            left: Box::new(emp_scan(vec![])),
            right: Box::new(Plan::Materialize {
                input: Box::new(dept_scan()),
                rebind: true,
                cache_slot: 0,
                est: Est::default(),
            }),
            on: vec![Expr::eq(Expr::col(0, 1), Expr::col(1, 0))],
            null_aware: false,
            est: Est::default(),
        };
        let mut p = rebound.clone();
        let slots = p.assign_cache_slots();
        let ctx = ExecContext::new(&cat, 2, slots);
        execute(&p, &ctx).unwrap();
        assert_eq!(ctx.stats.materializations.get(), 4);
    }

    #[test]
    fn index_range_scan() {
        let cat = setup();
        let plan = Plan::IndexRange {
            table: EMP,
            qt: 0,
            width: 3,
            index: 0, // emp_dept on dept_id
            lo: Some((Expr::int(10), true)),
            hi: Some((Expr::int(10), true)),
            filter: vec![],
            est: Est::default(),
        };
        let (rows, _) = run(&plan, &cat);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn union_all_and_distinct() {
        let cat = setup();
        let proj = |p: Plan| Plan::Project {
            input: Box::new(p),
            exprs: vec![Expr::col(0, 1)],
            est: Est::default(),
        };
        let u = Plan::Union {
            inputs: vec![proj(emp_scan(vec![])), proj(emp_scan(vec![]))],
            distinct: false,
            est: Est::default(),
        };
        let (rows, _) = run(&u, &cat);
        assert_eq!(rows.len(), 8);
        let u = Plan::Union {
            inputs: vec![proj(emp_scan(vec![])), proj(emp_scan(vec![]))],
            distinct: true,
            est: Est::default(),
        };
        let (rows, _) = run(&u, &cat);
        assert_eq!(rows.len(), 3); // 10, 20, NULL
    }

    #[test]
    fn work_units_track_effort() {
        let cat = setup();
        let (_, scan_work) = run(&emp_scan(vec![]), &cat);
        let join = Plan::NestedLoop {
            kind: JoinKind::Inner,
            left: Box::new(emp_scan(vec![])),
            right: Box::new(dept_scan()),
            on: vec![Expr::eq(Expr::col(0, 1), Expr::col(1, 0))],
            null_aware: false,
            est: Est::default(),
        };
        let (_, join_work) = run(&join, &cat);
        assert!(join_work > scan_work * 3, "NLJ should cost much more than a scan");
    }
}
