//! Closed-loop concurrency benchmark: N clients over real sockets against
//! the multi-session server, mixed TPC-H/TPC-DS point-and-aggregate
//! templates, byte-identical correctness against single-session serves.
//!
//! The harness runs the same deterministic per-client schedule at two
//! load levels — one client, then eight — and gates on the aggregate
//! throughput scaling between them. The benchmark is *closed-loop* at
//! *zero think time*: each client sends its next statement the moment the
//! previous one answers, so the only thing eight clients can overlap is
//! the request path itself (codec, session, sharded plan cache, catalog
//! read-snapshots, atomic admission, execution).
//!
//! What the ratio shows. With nothing to overlap but the request path
//! itself, a single client leaves the box half idle (it waits out every
//! socket wake-up), and eight clients fill it: on two cores this mix
//! measures 2.5–3.4× at SCALE 0.05. One mutex held around the in-engine
//! serve of every session — the wire work still overlapping — measures
//! 1.4–1.7× on the same box, and a lock across the whole request would
//! score 1. The gate's [`MIN_SPEEDUP`] sits between the two.
//!
//! The box must have a second core to scale onto, and
//! `available_parallelism` cannot say so: it counts SMT siblings and
//! ignores CPU quotas and busy hosts (the box that measured the numbers
//! above reports 2 CPUs and at times runs two spinning threads no faster
//! than one — and then scores 0.8–1.0× here, lock or no lock). So the
//! harness measures it, two spinning threads against one, before and after
//! the timed levels, and gates the ratio only when both measurements reach
//! [`MIN_PARALLELISM`]; otherwise it prints the ratio and gates only the
//! divergence and cache-hit checks.

use crate::plumbing::{md_table, percentile};
use crate::registry::{Env, Outcome};
use crate::Workload;
use mylite::{Engine, PlanCacheStats};
use orcalite::OrcaConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use taurus_bridge::OrcaOptimizer;
use taurus_server::{Client, Server, ServerHandle};
use taurus_workloads::Scale;

/// How many clients the loaded level runs (the gate compares against 1).
pub const LOADED_CLIENTS: usize = 8;

/// The aggregate-QPS ratio (loaded over single) the gate asks of a box that
/// can run two threads at once: above what a serialized engine reaches
/// there (≤ 1.8×), below what this engine does (≥ 2.5×).
pub const MIN_SPEEDUP: f64 = 2.0;

/// The measured two-thread speedup from which a box counts as having a
/// second core. An SMT sibling or a one-CPU quota measures 1.0–1.3; a
/// second core shared with a busy neighbour measures 1.5–1.7 and holds the
/// engine-dominated mix at SCALE 0.3 to ~1.9×, so that does not count yet.
pub const MIN_PARALLELISM: f64 = 1.8;

/// One load level's measurements.
#[derive(Debug, Clone)]
pub struct LevelStats {
    pub clients: usize,
    /// Total statements served across all clients.
    pub requests: usize,
    /// Wall time of the whole level (connect excluded, joins included).
    pub wall: Duration,
    pub p50: Duration,
    pub p99: Duration,
    /// Aggregate statements per second over the wall time.
    pub qps: f64,
}

/// The `harness concurrency` report.
#[derive(Debug, Clone)]
pub struct ConcurrencyReport {
    /// Distinct cached statements in the mix (templates × literal variants).
    pub statements: usize,
    /// TPC-H vs TPC-DS split of the statement mix.
    pub tpch_statements: usize,
    pub tpcds_statements: usize,
    /// Statements each client executes per level.
    pub iters_per_client: usize,
    /// `std::thread::available_parallelism()` of the box that measured.
    pub cores: usize,
    /// How many times faster that box ran two spinning threads than one —
    /// the lower of a measurement before and one after the timed levels,
    /// because a shared host gives and takes the second CPU over time.
    pub parallelism: f64,
    pub single: LevelStats,
    pub loaded: LevelStats,
    /// Responses that differed from the single-session reference rows.
    pub divergences: usize,
    /// Plan-cache counters summed over both workload engines, end of run.
    pub cache: PlanCacheStats,
    /// `loaded.qps / single.qps` — the gated scaling factor.
    pub speedup: f64,
}

impl ConcurrencyReport {
    /// The acceptance gate: zero divergence from single-session serves, a
    /// plan cache that was actually shared, and — on a box measured to run
    /// two threads at once — at least [`MIN_SPEEDUP`]× aggregate QPS at
    /// eight clients vs one.
    pub fn gate(&self) -> Result<(), String> {
        if self.divergences != 0 {
            return Err(format!(
                "{} responses diverged from the single-session reference rows",
                self.divergences
            ));
        }
        if self.parallelism >= MIN_PARALLELISM && self.speedup < MIN_SPEEDUP {
            return Err(format!(
                "aggregate QPS at {} clients is only {:.2}× the single-client rate \
                 (gate: ≥ {MIN_SPEEDUP}×; this box runs two threads {:.2}× faster than one)",
                self.loaded.clients, self.speedup, self.parallelism
            ));
        }
        if self.cache.hits == 0 {
            return Err("the storm never hit the plan cache — serves are not shared".to_string());
        }
        Ok(())
    }
}

/// The statement mix: fast point lookups and small aggregates from both
/// workloads, three literal variants (`?`) per template so the plan cache
/// holds a realistic working set. Every statement is deterministic (ordered
/// or single-row) so responses can be compared byte-for-byte.
const TEMPLATES: [(Workload, &str, [&str; 3]); 8] = [
    (
        Workload::TpcH,
        "SELECT o_orderdate, o_totalprice FROM orders WHERE o_orderkey = ?",
        ["37", "137", "237"],
    ),
    (
        Workload::TpcH,
        "SELECT l_returnflag, COUNT(*) AS n FROM lineitem WHERE l_quantity < ? \
         GROUP BY l_returnflag ORDER BY l_returnflag",
        ["5", "6", "7"],
    ),
    (
        Workload::TpcH,
        "SELECT COUNT(*) FROM customer WHERE c_mktsegment = ?",
        ["'AUTOMOBILE'", "'BUILDING'", "'FURNITURE'"],
    ),
    (
        Workload::TpcH,
        "SELECT COUNT(*) FROM orders, customer \
         WHERE o_custkey = c_custkey AND c_mktsegment = ?",
        ["'AUTOMOBILE'", "'BUILDING'", "'FURNITURE'"],
    ),
    (
        Workload::TpcDs,
        "SELECT i_item_id, i_current_price FROM item WHERE i_item_sk = ?",
        ["3", "4", "5"],
    ),
    (
        Workload::TpcDs,
        "SELECT COUNT(*), SUM(ss_quantity) FROM store_sales WHERE ss_store_sk = ?",
        ["1", "2", "3"],
    ),
    (
        Workload::TpcDs,
        "SELECT ss_store_sk, COUNT(*) AS n FROM store_sales WHERE ss_quantity > ? \
         GROUP BY ss_store_sk ORDER BY ss_store_sk",
        ["40", "60", "80"],
    ),
    (Workload::TpcDs, "SELECT COUNT(*) FROM date_dim WHERE d_year = ?", ["1999", "2000", "2001"]),
];

fn statements() -> Vec<(Workload, String)> {
    let variant = |i| TEMPLATES.iter().map(move |(w, sql, lits)| (*w, sql.replace('?', lits[i])));
    (0..3).flat_map(variant).collect()
}

/// One running workload: its engine (kept for stats), its server, and the
/// reference rows for every statement routed to it.
struct Backend {
    engine: Arc<Engine>,
    handle: ServerHandle,
}

fn start_backend(workload: Workload, scale: Scale) -> Backend {
    let mut engine = workload.build_engine(scale);
    engine.analyze();
    let engine = Arc::new(engine);
    let optimizer = Arc::new(OrcaOptimizer::new(OrcaConfig::default(), workload.threshold()));
    let handle = Server::start(engine.clone(), optimizer).expect("server binds an ephemeral port");
    Backend { engine, handle }
}

fn connect_pair(backends: [&Backend; 2]) -> [Client; 2] {
    [
        Client::connect(backends[0].handle.addr()).expect("connect TPC-H server"),
        Client::connect(backends[1].handle.addr()).expect("connect TPC-DS server"),
    ]
}

fn backend_index(w: Workload) -> usize {
    match w {
        Workload::TpcH => 0,
        Workload::TpcDs => 1,
    }
}

/// Run one closed-loop level: `clients` threads, each with its own pair of
/// connections, walking the statement mix on a deterministic out-of-phase
/// schedule with no pause between statements.
fn run_level(
    backends: [&Backend; 2],
    stmts: &[(Workload, String)],
    reference: &[Vec<Vec<taurus_common::Value>>],
    clients: usize,
    iters: usize,
    divergences: &AtomicUsize,
) -> LevelStats {
    // Connect outside the clock so the level measures serving, not dialing.
    let mut conns: Vec<[Client; 2]> = (0..clients).map(|_| connect_pair(backends)).collect();
    let t0 = Instant::now();
    let latencies: Vec<Duration> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .drain(..)
            .enumerate()
            .map(|(t, mut pair)| {
                s.spawn(move || {
                    let mut lats = Vec::with_capacity(iters);
                    for i in 0..iters {
                        // Out-of-phase walk: client t starts t*7 statements in.
                        let which = (t * 7 + i) % stmts.len();
                        let (w, sql) = &stmts[which];
                        let started = Instant::now();
                        let got = pair[backend_index(*w)]
                            .query(sql)
                            .unwrap_or_else(|e| panic!("client {t} statement {which}: {e}"));
                        lats.push(started.elapsed());
                        if got.rows != reference[which] {
                            divergences.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    lats
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let wall = t0.elapsed();
    let requests = latencies.len();
    LevelStats {
        clients,
        requests,
        wall,
        p50: percentile(latencies.iter().copied(), 0.50).unwrap_or_default(),
        p99: percentile(latencies.iter().copied(), 0.99).unwrap_or_default(),
        qps: requests as f64 / wall.as_secs_f64().max(1e-9),
    }
}

/// How many times faster this box runs two spinning threads than one: 2.0
/// for two free cores, ~1.0 for one core however many CPUs it reports.
fn measured_parallelism() -> f64 {
    fn spin() -> u64 {
        (0..20_000_000u64).fold(1, |x, i| {
            std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i))
        })
    }
    let time = |threads: usize| {
        let t = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| std::hint::black_box(spin()));
            }
        });
        t.elapsed().as_secs_f64()
    };
    let (one, two) = (time(1), time(2));
    2.0 * one / two.max(1e-9)
}

/// Build both workload engines, serve them over real sockets, and measure
/// closed-loop throughput at one and at [`LOADED_CLIENTS`] clients.
/// `budget` is the loaded level's total statement count; each client runs `max(10, budget / 8)` statements
/// at *both* levels so the levels differ only in concurrency.
pub fn run_concurrency(scale: Scale, budget: usize) -> ConcurrencyReport {
    let h = start_backend(Workload::TpcH, scale);
    let ds = start_backend(Workload::TpcDs, scale);
    let stmts = statements();
    let iters = (budget / LOADED_CLIENTS).max(10);

    // Single-session reference serves: in-process, one statement at a time.
    // These also prime both plan caches, so the timed levels run hot — the
    // steady state the paper's server cares about.
    let reference: Vec<_> = stmts
        .iter()
        .map(|(w, sql)| {
            let backend = if *w == Workload::TpcH { &h } else { &ds };
            let opt = OrcaOptimizer::new(OrcaConfig::default(), w.threshold());
            backend.engine.query_cached(sql, &opt).expect("reference serve").rows
        })
        .collect();

    let divergences = AtomicUsize::new(0);
    let parallelism_before = measured_parallelism();
    let single = run_level([&h, &ds], &stmts, &reference, 1, iters, &divergences);
    let loaded = run_level([&h, &ds], &stmts, &reference, LOADED_CLIENTS, iters, &divergences);

    let sum = |a: PlanCacheStats, b: PlanCacheStats| PlanCacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        invalidations: a.invalidations + b.invalidations,
        insertions: a.insertions + b.insertions,
        evictions: a.evictions + b.evictions,
        reoptimizations: a.reoptimizations + b.reoptimizations,
    };
    let cache = sum(h.engine.plan_cache_stats(), ds.engine.plan_cache_stats());
    let speedup = loaded.qps / single.qps.max(1e-9);
    let tpch_statements = stmts.iter().filter(|(w, _)| *w == Workload::TpcH).count();
    let report = ConcurrencyReport {
        statements: stmts.len(),
        tpch_statements,
        tpcds_statements: stmts.len() - tpch_statements,
        iters_per_client: iters,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        parallelism: parallelism_before.min(measured_parallelism()),
        single,
        loaded,
        divergences: divergences.load(Ordering::Relaxed),
        cache,
        speedup,
    };
    h.handle.stop();
    ds.handle.stop();
    report
}

/// Format the concurrency report as markdown (the `harness concurrency` body).
pub fn format_concurrency_report(r: &ConcurrencyReport) -> String {
    let levels = md_table(
        "clients | requests | wall | p50 | p99 | QPS",
        [&r.single, &r.loaded].map(|lvl| {
            format!(
                "{} | {} | {:.2?} | {:.2?} | {:.2?} | {:.1}",
                lvl.clients, lvl.requests, lvl.wall, lvl.p50, lvl.p99, lvl.qps
            )
        }),
    );
    let gated = if r.parallelism >= MIN_PARALLELISM {
        format!("gate: ≥ {MIN_SPEEDUP}×")
    } else {
        "not gated: no second core to scale onto".to_string()
    };
    format!(
        "mix: {} statements ({} TPC-H, {} TPC-DS), {} per client per level, zero think time\n\
         box: {} CPUs reported, two spinning threads run {:.2}× faster than one\n\n\
         {levels}\n\
         scaling: {:.2}× aggregate QPS at {} clients ({gated}); divergences: {}\n\
         plan cache (both engines): {} hits, {} misses, {} invalidations, {} reoptimizations \
         (hit rate {:.1}%)\n",
        r.statements,
        r.tpch_statements,
        r.tpcds_statements,
        r.iters_per_client,
        r.cores,
        r.parallelism,
        r.speedup,
        r.loaded.clients,
        r.divergences,
        r.cache.hits,
        r.cache.misses,
        r.cache.invalidations,
        r.cache.reoptimizations,
        r.cache.hit_rate() * 100.0
    )
}

/// The registry entry; `env.budget` is the loaded level's statement count.
pub fn run(env: &Env) -> Outcome {
    let r = run_concurrency(env.scale, env.budget);
    Outcome::gated(
        format_concurrency_report(&r),
        r.gate(),
        format!(
            "{:.2}× aggregate QPS at {} clients, zero divergence from single-session serves",
            r.speedup, r.loaded.clients
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature end-to-end run: tiny scale, tiny budget. Exercises both
    /// servers, the schedule, and the divergence accounting.
    #[test]
    fn small_run_produces_a_consistent_report() {
        let r = run_concurrency(Scale(0.02), 16);
        assert_eq!(r.statements, 24);
        assert_eq!(r.divergences, 0, "loaded serves match single-session rows");
        assert_eq!(r.single.clients, 1);
        assert_eq!(r.loaded.clients, LOADED_CLIENTS);
        assert_eq!(r.single.requests, r.iters_per_client);
        assert_eq!(r.loaded.requests, LOADED_CLIENTS * r.iters_per_client);
        assert!(r.cache.hits > 0, "the storm runs hot: {:?}", r.cache);
        assert!(r.single.p50 <= r.single.p99);
    }

    /// A request-wide lock scores 1.0: the gate must reject it wherever
    /// there is a second core to scale onto, and only there.
    #[test]
    fn gate_rejects_a_serialized_engine_on_two_cores() {
        let level = |clients: usize, qps: f64| LevelStats {
            clients,
            requests: clients * 40,
            wall: Duration::from_millis(10),
            p50: Duration::from_micros(200),
            p99: Duration::from_micros(900),
            qps,
        };
        let mut r = ConcurrencyReport {
            statements: 24,
            tpch_statements: 12,
            tpcds_statements: 12,
            iters_per_client: 40,
            cores: 2,
            parallelism: 1.9,
            single: level(1, 5000.0),
            loaded: level(LOADED_CLIENTS, 5000.0),
            divergences: 0,
            cache: PlanCacheStats { hits: 360, misses: 24, ..PlanCacheStats::default() },
            speedup: 1.0,
        };
        assert!(r.gate().unwrap_err().contains("only 1.00×"));
        r.parallelism = 1.1;
        r.gate().expect("no second core: the ratio is reported, not gated");
        r.parallelism = 1.9;
        r.speedup = MIN_SPEEDUP;
        r.gate().expect("the bound itself passes");
        r.divergences = 1;
        assert!(r.gate().unwrap_err().contains("diverged"));
    }
}
