//! The metric tables — names, units, directions and bounds, which
//! `BENCHMARK.json` repeats for the driver (a test holds the two together) —
//! and how a run's numbers are derived from its samples and printed.

use crate::check::Tally;
use crate::json::quote;
use crate::stats::{geomean, median, percentile};
use crate::workload::{Segment, Timed, Workload};
use std::collections::BTreeMap;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the baseline median the metric may worsen by before it
    /// counts as a regression.
    pub bound: f64,
}

/// What a user of the system sees. The seventh end-to-end figure,
/// `failed_share`, has an absolute bound of zero, which a relative bound
/// cannot express: the result line carries it as `failed` / `attempted`.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "stmt_per_s", unit: "1/s", better: "higher", bound: 0.15 },
    EndToEnd { name: "lat_geomean_us", unit: "us", better: "lower", bound: 0.15 },
    EndToEnd { name: "lat_p50_us", unit: "us", better: "lower", bound: 0.15 },
    EndToEnd { name: "lat_p99_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10 },
];

/// `(name, unit, better)` of every per-layer metric. Times are
/// per-statement medians of a span's self time; counts are totals over the
/// traced section and repeat exactly at a fixed seed; a metric that does not
/// apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 61] = [
    ("sql.digest_us", "us", "lower"),
    ("sql.parse_us", "us", "lower"),
    ("sql.stmt_bytes", "bytes", "lower"),
    ("mylite.resolve_us", "us", "lower"),
    ("mylite.native_opt_us", "us", "lower"),
    ("mylite.refine_us", "us", "lower"),
    ("mylite.hit_overhead_us", "us", "lower"),
    ("mylite.serve_hit_us", "us", "lower"),
    ("mylite.serve_miss_us", "us", "lower"),
    ("mylite.serve_invalidated_us", "us", "lower"),
    ("mylite.two_session_p50_us", "us", "lower"),
    ("mylite.two_session_stmt_per_s", "1/s", "higher"),
    ("mylite.plancache.hit_rate", "ratio", "higher"),
    ("mylite.plancache.insertions", "count", "lower"),
    ("mylite.plancache.evictions", "count", "lower"),
    ("mylite.plancache.invalidations", "count", "lower"),
    ("bridge.detour_us", "us", "lower"),
    ("bridge.tree_convert_us", "us", "lower"),
    ("bridge.plan_convert_us", "us", "lower"),
    ("bridge.validate_us", "us", "lower"),
    ("bridge.md_requests", "count", "lower"),
    ("bridge.md_provider_calls", "count", "lower"),
    ("bridge.routed", "count", "higher"),
    ("bridge.below_threshold", "count", "lower"),
    ("bridge.fallbacks", "count", "lower"),
    ("bridge.degraded", "count", "lower"),
    ("orcalite.memo_search_us", "us", "lower"),
    ("orcalite.groups", "count", "lower"),
    ("orcalite.splits_explored", "count", "lower"),
    ("orcalite.plans_costed", "count", "lower"),
    ("orcalite.rules_applied", "count", "lower"),
    ("orcalite.rules_hit_rate", "ratio", "higher"),
    ("executor.row_exec_us", "us", "lower"),
    ("executor.batch_exec_us", "us", "lower"),
    ("executor.work_units", "count", "lower"),
    ("executor.rows_scanned", "count", "lower"),
    ("executor.index_lookups", "count", "lower"),
    ("executor.rows_out", "count", "higher"),
    ("catalog.build_s", "s", "lower"),
    ("catalog.analyze_s", "s", "lower"),
    ("catalog.insert_us", "us", "lower"),
    ("storage.rows_total", "count", "higher"),
    ("server.codec_request_us", "us", "lower"),
    ("server.encode_reply_us", "us", "lower"),
    ("server.decode_reply_us", "us", "lower"),
    ("server.reply_bytes", "bytes", "lower"),
    ("server.wire_overhead_us", "us", "lower"),
    ("server.wire_rtt_us", "us", "lower"),
    ("server.wire_rtt_p99_us", "us", "lower"),
    ("server.wire_stmt_per_s", "1/s", "higher"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("share.sql", "ratio", "lower"),
    ("share.mylite", "ratio", "lower"),
    ("share.bridge", "ratio", "lower"),
    ("share.orcalite", "ratio", "lower"),
    ("share.executor", "ratio", "lower"),
    ("share.catalog", "ratio", "lower"),
    ("share.server", "ratio", "lower"),
    ("share.perf", "ratio", "lower"),
    ("failed_share", "ratio", "lower"),
];

/// One-line reasons, as `BENCHMARK.json` records them.
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::CompileCold => {
            "all 121 TPC-H/TPC-DS statements planned, never cached or run: only the compile layers (sql, resolve, bridge, orcalite) work"
        }
        Workload::AnalyticHot => {
            "the same 121 statements served from a warm plan cache: executor and storage do the work, the compile layers are bypassed"
        }
        Workload::PointServe => {
            "point statements through the server's codec and session path, zero think time: fixed per-statement cost (codec, digest, cache hit, rebind, admission) dominates"
        }
        Workload::AdhocChurn => {
            "1280 statement shapes through a 256-entry plan cache plus an INSERT every 500 statements: miss, evict, invalidate and write-lock paths"
        }
    }
}

/// The four throughput and latency figures of one segment, in the order
/// `stmt_per_s`, `lat_geomean_us`, `lat_p50_us`, `lat_p99_us`.
fn segment_figures(segment: &Segment) -> [f64; 4] {
    let mut by_key: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    let mut all: Vec<f64> = Vec::with_capacity(segment.samples.len());
    for s in &segment.samples {
        by_key.entry(s.key).or_default().push(s.us());
        all.push(s.us());
    }
    all.sort_by(f64::total_cmp);
    let medians: Vec<f64> = by_key.values().map(|v| median(v)).collect();
    [segment.rate, geomean(&medians), median(&all), percentile(&all, 0.99)]
}

/// Per-segment figures of a timed run, one row per segment.
pub fn per_segment(timed: &Timed) -> Vec<[f64; 4]> {
    timed.segments.iter().map(segment_figures).collect()
}

/// The fast-side quartile of per-segment values: the value a quarter of
/// the segments match or beat (nearest rank).
pub fn fast_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    percentile(&v, 0.25)
}

/// The six end-to-end values of a timed run, in [`END_TO_END`] order, from
/// its per-segment figures: each throughput or latency value is the
/// fast-side quartile across segments (see [`crate::workload::SEGMENTS`]).
pub fn end_to_end(rows: &[[f64; 4]], setup_s: f64, peak_rss_mb: f64) -> [f64; 6] {
    let column = |i: usize| rows.iter().map(|r| r[i]).collect::<Vec<f64>>();
    [
        setup_s,
        fast_quartile(&column(0), true),
        fast_quartile(&column(1), false),
        fast_quartile(&column(2), false),
        fast_quartile(&column(3), false),
        peak_rss_mb,
    ]
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`. Unmeasured (non-finite) values read 0.
pub fn result_line(tally: Tally, metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("{}: {{\"value\": {v}, \"unit\": {}}}", quote(name), quote(unit))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workload::Sample;

    #[test]
    fn end_to_end_numbers_follow_their_definitions() {
        // Template 0 is slow (1000 µs), templates 1..=9 take 10 µs; each
        // segment is 10 passes. Three segments were quiet, five ran 25 %
        // slower: more than half the run, and the figures do not move.
        let segment = |slow: f64| {
            let mut samples = Vec::new();
            for _ in 0..10 {
                samples.push(Sample::new(0, 1000.0 * slow));
                samples.extend((1..10).map(|key| Sample::new(key, 10.0 * slow)));
            }
            Segment::in_process(samples)
        };
        let speeds = [1.25, 1.0, 1.25, 1.25, 1.0, 1.25, 1.0, 1.25];
        let timed = Timed {
            segments: speeds.into_iter().map(segment).collect(),
            tally: Tally::default(),
            notes: vec![],
        };
        let rows = per_segment(&timed);
        assert!((rows[1][0] - 100.0 / 0.0109).abs() < 1e-6);
        assert!((rows[0][0] - 80.0 / 0.0109).abs() < 1e-6);
        assert_eq!(rows[0][2], 12.5);
        // A quarter of eight segments is two; both are quiet ones.
        let values = end_to_end(&rows, 0.5, 12.0);
        let m: BTreeMap<_, _> = END_TO_END.iter().map(|spec| spec.name).zip(values).collect();
        assert_eq!(m["stmt_per_s"], rows[1][0]);
        assert_eq!(fast_quartile(&[4.0, 1.0, 3.0, 2.0], false), 1.0);
        assert_eq!(fast_quartile(&[4.0, 1.0, 3.0, 2.0, 5.0], true), 4.0);
        assert_eq!(m["lat_p50_us"], 10.0);
        assert_eq!(m["lat_p99_us"], 1000.0);
        // Ten templates count equally: (1000 · 10^9)^(1/10).
        assert!((m["lat_geomean_us"] - 10f64.powf(1.2)).abs() < 1e-9);
        assert_eq!((m["setup_s"], m["peak_rss_mb"]), (0.5, 12.0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            Tally { attempted: 10, failed: 0 },
            &[("lat_p50_us", 12.5, "us"), ("setup_s", f64::NAN, "s")],
        );
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("lat_p50_us").and_then(|x| x.get("value")).and_then(Json::as_f64),
            Some(12.5)
        );
        assert_eq!(m.get("setup_s").and_then(|x| x.get("value")).and_then(Json::as_f64), Some(0.0));
        let bad = result_line(Tally { attempted: 10, failed: 1 }, &[]);
        assert_eq!(json::parse(&bad).unwrap().get("correct").and_then(Json::as_bool), Some(false));
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints. They must name the same metrics and workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| v.get(key).and_then(Json::as_array).unwrap().to_vec();
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, spec) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(j, "name"), spec.name);
            assert_eq!(text(j, "unit"), spec.unit);
            assert_eq!(text(j, "better"), spec.better);
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(spec.bound));
            assert!(spec.bound <= 0.25);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(
                (text(j, "name"), text(j, "unit"), text(j, "better")),
                (name.to_string(), unit.to_string(), better.to_string())
            );
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (j, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text(j, "name"), w.name());
            assert_eq!(text(j, "why"), why(w));
            assert!(why(w).len() <= 200 && !why(w).contains('\n'));
        }
        assert_eq!(list("paths"), [Json::Str("perf".into())]);
    }
}
