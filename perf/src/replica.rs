//! A hand replica of the serve pipeline, one span per layer boundary.
//!
//! The product has no phase timing yet, so the benchmark gets its per-layer
//! numbers from outside: it makes the same sequence of public calls that
//! `Engine::plan` / `Engine::query_cached_opts` make internally
//! (`engine.rs::serve_cached_knobs`, `plan_select_knobs`,
//! `execute_branches`) and that the router makes for the detour
//! (`router.rs::optimize_block`, unrolled bottom-up), each under a span.
//! `trace.coverage` holds the replica against the real call, statement by
//! statement, so a replica that has drifted from the product shows.
//!
//! What the replica leaves out on purpose: the plan-cache lookup, rebind,
//! admission gate and governor (no public seam; they are measured together,
//! by subtraction, as `mylite.hit_overhead_us`), panic isolation and fault
//! injection (off by default).

use crate::span::{Recorder, ROOT};
use mylite::engine::PlannedBranch;
use mylite::optimizer::derived_output_rows_fb;
use mylite::refine::refine_statement_orders;
use mylite::resolve::resolve_union_branches;
use mylite::{
    BoundQuery, BoundStatement, CostBasedOptimizer, Engine, MySqlOptimizer, PlannedQuery,
    SessionOpts, Skeleton, TableSource,
};
use orcalite::{JoinOrderStrategy, MdCache, OrcaConfig, OrcaPlan};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hint::black_box;
use taurus_bridge::plan_converter::to_skeleton;
use taurus_bridge::tree_converter::{convert_block, InnerEstimates};
use taurus_bridge::{validate_skeleton, MySqlMdProvider, OrcaOptimizer};
use taurus_catalog::Catalog;
use taurus_common::{Error, Result, Row};
use taurus_executor::{execute, ExecContext, ParallelOpts, DEFAULT_MORSEL_ROWS};
use taurus_server::protocol::{decode_reply, decode_request, encode_reply, encode_request};
use taurus_server::{Reply, Request, ServeOutcome};
use taurus_sql::fingerprint::{parameterize, token_digest};
use taurus_sql::rewrite::rewrite_set_ops;
use taurus_sql::{parse, Statement};

/// Counts taken at the same boundaries the spans sit on.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub md_requests: u64,
    pub md_provider_calls: u64,
    pub work_units: u64,
    pub rows_scanned: u64,
    pub index_lookups: u64,
    pub rows_out: u64,
    pub reply_bytes: u64,
}

impl Counts {
    pub fn add(&mut self, other: &Counts) {
        self.md_requests += other.md_requests;
        self.md_provider_calls += other.md_provider_calls;
        self.work_units += other.work_units;
        self.rows_scanned += other.rows_scanned;
        self.index_lookups += other.index_lookups;
        self.rows_out += other.rows_out;
        self.reply_bytes += other.reply_bytes;
    }
}

/// What one replica run hands back besides its spans.
pub struct Served {
    pub rows: Vec<Row>,
    /// Duration of the execute span inside the replica, ns.
    pub exec_ns: u64,
}

pub struct Replica<'a> {
    pub rec: Recorder,
    pub counts: Counts,
    engine: &'a Engine,
    orca: &'a OrcaOptimizer,
}

impl<'a> Replica<'a> {
    pub fn new(engine: &'a Engine, orca: &'a OrcaOptimizer) -> Replica<'a> {
        Replica { rec: Recorder::default(), counts: Counts::default(), engine, orca }
    }

    /// Replica of `Engine::plan(sql, &orca)`.
    pub fn plan(&mut self, stmt_id: u32, sql: &str) -> Result<PlannedQuery> {
        let (engine, orca, counts) = (self.engine, self.orca, &mut self.counts);
        self.rec.set_stmt(stmt_id);
        let cat = engine.catalog();
        self.rec.span(ROOT, |rec| compile(rec, counts, engine, orca, &cat, sql, false))
    }

    /// Replica of `Engine::query_cached_opts(sql, &orca, default)` for a
    /// statement the real call just served. A hit is digest + execute of the
    /// re-bound cached plan; anything else compiles first, as the engine
    /// does. With `wire`, the request and reply codecs run around it — the
    /// in-process share of a `Client::query` round trip.
    pub fn serve(&mut self, stmt_id: u32, sql: &str, hit: bool, wire: bool) -> Result<Served> {
        let (engine, orca, counts) = (self.engine, self.orca, &mut self.counts);
        // The re-bound plan a hit executes. Fetched before the clock starts
        // and before the catalog guard is taken (the call locks for itself).
        let cached = if hit {
            Some(engine.plan_cached_opts(sql, orca, &SessionOpts::default())?.0)
        } else {
            None
        };
        self.rec.set_stmt(stmt_id);
        let cat = engine.catalog();
        let served_vectorized = engine.vectorized();
        let mut exec_ns = 0;
        let (planned, rows) = self.rec.span(ROOT, |rec| -> Result<_> {
            if wire {
                rec.span("server.codec_request", |_| {
                    let req = Request::Query { opts: SessionOpts::default(), sql: sql.into() };
                    decode_request(black_box(&encode_request(&req))).map(black_box)
                })?;
            }
            rec.span("sql.digest", |_| black_box(token_digest(sql)));
            let planned = match cached {
                Some(p) => p,
                None => compile(rec, counts, engine, orca, &cat, sql, true)?,
            };
            let t = rec.spans().len();
            let rows = run(rec, counts, &cat, &planned, served_vectorized, true)?;
            exec_ns = rec.spans()[t].dur_ns();
            let rows = if wire {
                let reply = Reply::Rows {
                    outcome: ServeOutcome::Hit,
                    columns: planned.columns.clone(),
                    rows,
                };
                let bytes = rec.span("server.encode_reply", |_| encode_reply(&reply));
                counts.reply_bytes += bytes.len() as u64;
                match rec.span("server.decode_reply", |_| decode_reply(&bytes))? {
                    Reply::Rows { rows, .. } => rows,
                    other => return Err(Error::internal(format!("reply decoded as {other:?}"))),
                }
            } else {
                rows
            };
            Ok((planned, rows))
        })?;
        // Side probe, outside the statement's tree: the same plan through
        // the executor's other engine.
        run(&mut self.rec, counts, &cat, &planned, !served_vectorized, false)?;
        Ok(Served { rows, exec_ns })
    }
}

/// `plan_select_knobs` under the engine's default knobs: parse
/// (+ parameterize on the cached path) → rewrite set operations → resolve →
/// per union branch optimize → refine.
fn compile(
    rec: &mut Recorder,
    counts: &mut Counts,
    engine: &Engine,
    orca: &OrcaOptimizer,
    cat: &Catalog,
    sql: &str,
    cached_path: bool,
) -> Result<PlannedQuery> {
    let stmt = match rec.span("sql.parse", |_| parse(sql))? {
        Statement::Select(s) => s,
        other => return Err(Error::semantic(format!("expected SELECT, got {other:?}"))),
    };
    let stmt =
        if cached_path { rec.span("sql.parameterize", |_| parameterize(&stmt)).stmt } else { stmt };
    let stmt = rec.span("sql.rewrite", |_| rewrite_set_ops(stmt.clone()))?;
    let resolved = rec.span("mylite.resolve", |_| resolve_union_branches(cat, &stmt))?;
    let session_dop = engine.dop();
    let mut branches = Vec::with_capacity(resolved.len());
    for (bound, all) in resolved {
        let skeleton = optimize(rec, counts, orca, cat, &bound)?;
        let dop = skeleton.dop.unwrap_or(session_dop).min(session_dop).max(1);
        let opts = ParallelOpts { dop, min_driver_rows: DEFAULT_MORSEL_ROWS };
        let plan = rec.span("mylite.refine", |_| {
            refine_statement_orders(cat, &bound, &skeleton, &opts, None, engine.order_opt())
        })?;
        branches.push(PlannedBranch { bound, skeleton, plan, all });
    }
    let first = branches.first().ok_or_else(|| Error::internal("no branches"))?;
    let columns = first.bound.root.select.iter().map(|o| o.name.clone()).collect();
    Ok(PlannedQuery { branches, columns })
}

/// `OrcaOptimizer::optimize`: threshold check, the detour, native fallback.
fn optimize(
    rec: &mut Recorder,
    counts: &mut Counts,
    orca: &OrcaOptimizer,
    cat: &Catalog,
    bound: &BoundStatement,
) -> Result<Skeleton> {
    if bound.num_tables() >= orca.complex_query_threshold {
        let detour = rec.span("bridge.detour", |rec| {
            let provider = MySqlMdProvider::new(cat);
            let md = MdCache::new(&provider);
            let sk = detour_block(rec, orca, bound, &provider, &md, &bound.root, &BTreeSet::new());
            let (misses, hits) = md.traffic();
            counts.md_provider_calls += misses;
            counts.md_requests += misses + hits;
            sk
        });
        if let Ok(skeleton) = detour {
            return Ok(skeleton);
        }
    }
    let native = rec.span("mylite.native_opt", |_| MySqlOptimizer.optimize(cat, bound))?;
    let fell_back = bound.num_tables() >= orca.complex_query_threshold;
    Ok(Skeleton { orca_fallback: fell_back.then(|| "replica".to_string()), ..native })
}

/// `router.rs::optimize_block`: derived members' blocks first, then this
/// block through convert → search → convert back → validate.
fn detour_block(
    rec: &mut Recorder,
    orca: &OrcaOptimizer,
    bound: &BoundStatement,
    provider: &MySqlMdProvider<'_>,
    md: &MdCache<'_>,
    block: &BoundQuery,
    outer: &BTreeSet<usize>,
) -> Result<Skeleton> {
    let mut inner_estimates = InnerEstimates::new();
    let mut inner_skeletons: HashMap<usize, Skeleton> = HashMap::new();
    let mut inner_outer = outer.clone();
    inner_outer.extend(block.member_qts());
    for m in &block.members {
        if let TableSource::Derived { query, .. } = &bound.table(m.qt).source {
            let sk = detour_block(rec, orca, bound, provider, md, query, &inner_outer)?;
            let rows = derived_output_rows_fb(query, sk.root.rows(), None);
            inner_estimates.insert(m.qt, (rows, sk.root.cost()));
            inner_skeletons.insert(m.qt, sk);
        }
    }
    let (desc, _oids) = rec.span("bridge.tree_convert", |_| {
        convert_block(bound, block, provider, &inner_estimates, outer)
    })?;
    let plan = rec.span("orcalite.memo_search", |_| search_with_ladder(&desc, md, &orca.config))?;
    if plan.changed_block_structure {
        return Err(Error::fallback("Orca changed the query block structure"));
    }
    let skeleton =
        rec.span("bridge.plan_convert", |_| to_skeleton(&plan, block, &inner_skeletons))?;
    rec.span("bridge.validate", |_| validate_skeleton(&skeleton, block, bound))?;
    Ok(skeleton)
}

/// The router's degradation ladder: the configured strategy, then each
/// cheaper one while the search budget keeps running out.
fn search_with_ladder(
    desc: &orcalite::BlockDesc,
    md: &MdCache<'_>,
    config: &OrcaConfig,
) -> Result<OrcaPlan> {
    use JoinOrderStrategy::{Exhaustive, Exhaustive2, Greedy};
    let ladder: &[JoinOrderStrategy] = match config.strategy {
        Exhaustive2 => &[Exhaustive2, Exhaustive, Greedy],
        Exhaustive => &[Exhaustive, Greedy],
        Greedy => &[Greedy],
    };
    let mut exhausted = None;
    for &strategy in ladder {
        let cfg = OrcaConfig { strategy, ..config.clone() };
        match orcalite::optimize_block_cached(desc, md, &cfg) {
            Err(e) if e.is_resource_exhausted() => exhausted = Some(e),
            done => return done,
        }
    }
    Err(exhausted.expect("a ladder has at least one rung"))
}

/// `Engine::execute_branches`, ungoverned, in the executor engine asked
/// for. In the statement's tree when `in_tree`, else a top-level side probe
/// whose counts are not kept.
fn run(
    rec: &mut Recorder,
    counts: &mut Counts,
    cat: &Catalog,
    planned: &PlannedQuery,
    vectorized: bool,
    in_tree: bool,
) -> Result<Vec<Row>> {
    let name = if vectorized { "executor.batch_exec" } else { "executor.row_exec" };
    rec.span(name, |_| {
        let mut rows: Vec<Row> = Vec::new();
        for (i, b) in planned.branches.iter().enumerate() {
            let mut plan = b.plan.clone();
            let slots = plan.assign_cache_slots();
            let mut ctx = ExecContext::new(cat, b.bound.num_tables(), slots);
            ctx.set_vectorized(vectorized);
            let branch_rows = execute(&plan, &ctx)?;
            if in_tree {
                counts.work_units += ctx.stats.work_units();
                counts.rows_scanned += ctx.stats.rows_scanned.get();
                counts.index_lookups += ctx.stats.index_lookups.get();
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
        if in_tree {
            counts.rows_out += rows.len() as u64;
        }
        Ok(rows)
    })
}
