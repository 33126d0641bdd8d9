//! What the four workloads have in common: their names and sizes, the shape
//! of a timed and of a traced result, and the small helpers they share.

use crate::check::Tally;
use crate::quiet::Gate;
use crate::replica::{Counts, Replica};
use crate::span::{self, Span};
use crate::stats::median;
use crate::suite::{self, Side};
use mylite::{CacheOutcome, PlanCacheStats};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use taurus_bridge::RouterStats;
use taurus_workloads::gen::SmallRng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CompileCold,
    AnalyticHot,
    PointServe,
    AdhocChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::CompileCold, Workload::AnalyticHot, Workload::PointServe, Workload::AdhocChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileCold => "compile_cold",
            Workload::AnalyticHot => "analytic_hot",
            Workload::PointServe => "point_serve",
            Workload::AdhocChurn => "adhoc_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Size of the timed section. Run length is a statement count, never a
    /// duration: `--seconds` only scales the count, at a rate fixed here so
    /// that the timed section takes about that long on the 2-core reference
    /// box. Passes over the 121 templates for the first two workloads,
    /// statements per client for `point_serve`, statements for the last.
    pub fn timed_size(self, seconds: u64) -> usize {
        let per_10s = match self {
            Workload::CompileCold => 40,
            Workload::AnalyticHot => 12,
            Workload::PointServe => 2_800_000,
            Workload::AdhocChurn => 60_000,
        };
        (per_10s * seconds as usize).div_ceil(10).max(1)
    }

    /// Size of one traced pass, in the same unit; a traced run makes
    /// [`TRACED_PASSES`] of them whatever `--seconds` says.
    pub fn traced_pass_size(self) -> usize {
        match self {
            Workload::CompileCold | Workload::AnalyticHot => 1,
            Workload::PointServe => 2_000,
            Workload::AdhocChurn => 1_500,
        }
    }
}

pub const TRACED_PASSES: usize = 3;

/// One timed statement: which template or shape it was, and how long the
/// one user-visible call took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub key: u32,
    /// Single precision keeps a sample at eight bytes (a `point_serve` run
    /// holds millions) and still resolves a 60 ms call to 4 ns.
    us: f32,
}

impl Sample {
    pub fn new(key: u32, us: f64) -> Sample {
        Sample { key, us: us as f32 }
    }

    pub fn us(&self) -> f64 {
        f64::from(self.us)
    }
}

/// How many segments a timed section is cut into. Every throughput and
/// latency metric is computed per segment, and the value reported is the
/// fast-side quartile across segments (the tenth best of forty). The
/// reference box is shared: a neighbour slows a core by 5 – 28 % for seconds
/// to tens of seconds at a time, and only ever slows it. Whole-run figures
/// then land wherever the mix of fast and slow stretches puts them (runs of
/// the same code 20 % apart); the fast quartile reads the same as long as a
/// quarter of the run was quiet, without being the luck of one segment.
pub const SEGMENTS: usize = 40;

/// One segment of the timed section.
pub struct Segment {
    pub samples: Vec<Sample>,
    /// Statements completed per second while the segment ran, all clients.
    pub rate: f64,
}

impl Segment {
    /// A segment of a single in-process closed loop: the next call is
    /// issued the moment the last returns, so the time the segment took is
    /// the summed call time (answer checks and bookkeeping excluded).
    pub fn in_process(samples: Vec<Sample>) -> Segment {
        let busy_s = samples.iter().map(Sample::us).sum::<f64>() / 1e6;
        Segment { rate: samples.len() as f64 / busy_s, samples }
    }
}

/// Cut `0..n` into [`SEGMENTS`] contiguous ranges of as equal a length as
/// possible (fewer when `n` is smaller).
pub fn segment_ranges(n: usize) -> Vec<std::ops::Range<usize>> {
    let parts = SEGMENTS.min(n).max(1);
    (0..parts).map(|i| i * n / parts..(i + 1) * n / parts).collect()
}

/// The untraced timed section of a run.
pub struct Timed {
    pub segments: Vec<Segment>,
    pub tally: Tally,
    /// Sizes worth printing beside the numbers.
    pub notes: Vec<(&'static str, String)>,
}

/// The traced section of a run: every per-layer metric by name, plus the
/// spans they came from.
pub struct Traced {
    pub metrics: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
    pub tally: Tally,
}

/// A workload set up and ready to measure.
pub trait World {
    /// The untraced timed section; `gate` is consulted before each segment.
    fn timed(&mut self, size: usize, gate: &Gate) -> Timed;
    fn traced(&mut self, pass_size: usize) -> Traced;
    /// Stop whatever set-up started (servers, connections).
    fn finish(self: Box<Self>) {}
}

/// Time one call in µs. The result goes through `black_box` so the call
/// cannot be optimized around.
pub fn time_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = black_box(f());
    (r, t.elapsed().as_nanos() as f64 / 1e3)
}

/// Fisher–Yates permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// The metric a span's self time is reported under: its own name with the
/// unit appended, except that parameterizing and set-operation rewriting
/// count as parsing (`sql.parse_us` is "text to resolvable AST").
fn metric_of(span_name: &str) -> Option<String> {
    match span_name {
        span::ROOT => None,
        "sql.parameterize" | "sql.rewrite" => Some("sql.parse_us".into()),
        name => Some(format!("{name}_us")),
    }
}

/// Collects per-layer metrics for one traced run: opened before the first
/// traced statement (it snapshots the router and plan-cache counters),
/// closed over the replicas' spans and counts after the last.
pub struct Layers {
    metrics: BTreeMap<String, f64>,
    router_before: RouterStats,
    cache_before: PlanCacheStats,
    /// Per statement: replica root time ÷ real call time.
    coverage: Vec<f64>,
    real_us: f64,
    replica_us: f64,
    stmt_bytes: Vec<f64>,
    /// In-process cached serves: call time by outcome (hit, miss,
    /// invalidated) and, for hits, call time minus the replica's execute.
    serve_us: [Vec<f64>; 3],
    serves: u64,
    hit_overhead_us: Vec<f64>,
}

impl Layers {
    pub fn begin(sides: &[Side]) -> Layers {
        Layers {
            metrics: BTreeMap::new(),
            router_before: suite::merge_router(sides),
            cache_before: suite::merge_cache(sides),
            coverage: Vec::new(),
            real_us: 0.0,
            replica_us: 0.0,
            stmt_bytes: Vec::new(),
            serve_us: Default::default(),
            serves: 0,
            hit_overhead_us: Vec::new(),
        }
    }

    /// Set a metric. Nothing measured (a median of no samples) reads 0,
    /// the value every metric has on a workload it does not apply to.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), if value.is_finite() { value } else { 0.0 });
    }

    /// Record one statement's real call against its replica.
    pub fn compare(&mut self, sql: &str, real_us: f64, replica_ns: u64) {
        let replica_us = replica_ns as f64 / 1e3;
        self.coverage.push(replica_us / real_us);
        self.real_us += real_us;
        self.replica_us += replica_us;
        self.stmt_bytes.push(sql.len() as f64);
    }

    /// Record one real `query_cached_opts` call: how the cache disposed of
    /// it, how long it took, and how long the replica's execute span of the
    /// same plan took (the rest of a hit is digest, lookup, rebind,
    /// admission and governor — `mylite.hit_overhead_us`).
    pub fn served(&mut self, outcome: Option<CacheOutcome>, real_us: f64, exec_ns: Option<u64>) {
        self.serves += 1;
        let slot = match outcome {
            Some(CacheOutcome::Hit) => 0,
            Some(CacheOutcome::Miss) => 1,
            Some(CacheOutcome::Invalidated) => 2,
            _ => return,
        };
        self.serve_us[slot].push(real_us);
        if let (0, Some(ns)) = (slot, exec_ns) {
            self.hit_overhead_us.push(real_us - ns as f64 / 1e3);
        }
    }

    fn router(&mut self, sides: &[Side]) {
        let (before, after) = (self.router_before, suite::merge_router(sides));
        self.set("bridge.routed", (after.routed - before.routed) as f64);
        self.set("bridge.below_threshold", (after.below_threshold - before.below_threshold) as f64);
        self.set("bridge.fallbacks", (after.fallbacks - before.fallbacks) as f64);
        self.set("bridge.degraded", (after.degraded - before.degraded) as f64);
        let (a, b) = (&after.search, &before.search);
        self.set("orcalite.groups", (a.groups - b.groups) as f64);
        self.set("orcalite.splits_explored", (a.splits_explored - b.splits_explored) as f64);
        self.set("orcalite.plans_costed", (a.plans_costed - b.plans_costed) as f64);
        let applied = a.rules_applied - b.rules_applied;
        self.set("orcalite.rules_applied", applied as f64);
        self.set(
            "orcalite.rules_hit_rate",
            (a.rules_hit - b.rules_hit) as f64 / applied.max(1) as f64,
        );
    }

    fn plan_cache(&mut self, sides: &[Side]) {
        let (before, after) = (self.cache_before, suite::merge_cache(sides));
        self.set("mylite.plancache.insertions", (after.insertions - before.insertions) as f64);
        self.set("mylite.plancache.evictions", (after.evictions - before.evictions) as f64);
        self.set(
            "mylite.plancache.invalidations",
            (after.invalidations - before.invalidations) as f64,
        );
    }

    fn catalog(&mut self, sides: &[Side]) {
        self.set("catalog.build_s", sides.iter().map(|s| s.build_s).sum());
        self.set("catalog.analyze_s", sides.iter().map(|s| s.analyze_s).sum());
        self.set("storage.rows_total", sides.iter().map(Side::rows_total).sum::<u64>() as f64);
    }

    fn counts(&mut self, c: &Counts) {
        self.set("bridge.md_requests", c.md_requests as f64);
        self.set("bridge.md_provider_calls", c.md_provider_calls as f64);
        self.set("executor.work_units", c.work_units as f64);
        self.set("executor.rows_scanned", c.rows_scanned as f64);
        self.set("executor.index_lookups", c.index_lookups as f64);
        self.set("executor.rows_out", c.rows_out as f64);
        self.set("server.reply_bytes", c.reply_bytes as f64);
    }

    /// Fold in the replicas' spans and counts and the counters' movement
    /// since [`Layers::begin`], and close the books.
    pub fn finish(mut self, sides: &[Side], replicas: &[Replica<'_>], tally: Tally) -> Traced {
        let mut spans = Vec::new();
        let mut counts = Counts::default();
        for replica in replicas {
            span::append(&mut spans, replica.rec.spans());
            counts.add(&replica.counts);
        }
        self.counts(&counts);
        self.router(sides);
        self.plan_cache(sides);
        self.catalog(sides);
        for (name, us) in span::median_self_us(&spans, metric_of) {
            self.set(&name, us);
        }
        for (layer, share) in span::layer_shares(&spans) {
            self.set(&format!("share.{layer}"), share);
        }
        if self.serves > 0 {
            self.set(
                "mylite.plancache.hit_rate",
                self.serve_us[0].len() as f64 / self.serves as f64,
            );
            self.set("mylite.serve_hit_us", median(&self.serve_us[0]));
            self.set("mylite.serve_miss_us", median(&self.serve_us[1]));
            self.set("mylite.serve_invalidated_us", median(&self.serve_us[2]));
            self.set("mylite.hit_overhead_us", median(&self.hit_overhead_us));
        }
        self.set("sql.stmt_bytes", median(&self.stmt_bytes));
        self.set("trace.coverage", median(&self.coverage));
        self.set("trace.overhead_share", self.replica_us / self.real_us - 1.0);
        self.set("failed_share", tally.failed_share());
        Traced { metrics: self.metrics, spans, tally }
    }
}
