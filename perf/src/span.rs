//! The benchmark's own span recorder. Spans wrap calls into the product's
//! public functions from outside; nothing in the product knows about them.
//! They live in memory and are written out once, when the run ends.

use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `parent` indexes into the recorder's span list;
/// spans of one statement share `stmt`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub stmt: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Name of the per-statement root span of a replica run.
pub const ROOT: &str = "stmt";

/// The layer (product crate) a span belongs to: the part of its name before
/// the first dot. The root's self time is the replica's own glue.
pub fn layer_of(name: &str) -> &str {
    match name.split_once('.') {
        Some((layer, _)) => layer,
        None => "perf",
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    stmt: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), stmt: 0 }
    }
}

impl Recorder {
    /// Spans recorded from now on belong to statement `id`.
    pub fn set_stmt(&mut self, id: u32) {
        self.stmt = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under whichever span is
    /// open. The span closes however `f` returns, so `?` inside is fine.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            stmt: self.stmt,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        r
    }

    /// Duration of the most recently opened top-level span named `name`.
    pub fn last_root_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.parent.is_none() && s.name == name)
            .map_or(0, Span::dur_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Append another recorder's spans, re-basing their parent links. Statement
/// ids must already be distinct between the two.
pub fn append(dst: &mut Vec<Span>, src: &[Span]) {
    let base = dst.len() as u32;
    dst.extend(src.iter().cloned().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus what its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Whether a span sits in a statement's replica tree (under a [`ROOT`]),
/// as opposed to a side probe recorded as its own top-level span.
fn in_replica(spans: &[Span], mut i: usize) -> bool {
    while let Some(p) = spans[i].parent {
        i = p as usize;
    }
    spans[i].name == ROOT
}

/// Per-statement median self time in µs, grouped by `key(span name)`
/// (spans keyed `None` are left out). A statement with several spans under
/// one key (one per query block, say) counts their sum; statements without
/// any do not count at all.
pub fn median_self_us(
    spans: &[Span],
    key: impl Fn(&str) -> Option<String>,
) -> BTreeMap<String, f64> {
    let own = self_times_ns(spans);
    let mut per_stmt: BTreeMap<(String, u32), u64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(&own) {
        if let Some(k) = key(s.name) {
            *per_stmt.entry((k, s.stmt)).or_default() += ns;
        }
    }
    let mut by_key: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for ((k, _), ns) in per_stmt {
        by_key.entry(k).or_default().push(ns as f64 / 1e3);
    }
    by_key.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Share of all replica time each layer spent in its own code (self time
/// summed over every statement ÷ summed root durations). Shares add to 1.
pub fn layer_shares(spans: &[Span]) -> BTreeMap<String, f64> {
    let own = self_times_ns(spans);
    let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
    let mut total = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if in_replica(spans, i) {
            *by_layer.entry(layer_of(s.name).to_string()).or_default() += own[i];
            total += own[i];
        }
    }
    by_layer.into_iter().map(|(l, ns)| (l, ns as f64 / total.max(1) as f64)).collect()
}

/// The trace file: one JSON object, spans in recording order.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out =
        format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"stmt\":{},\"parent\":{parent},\"start\":{},\"end\":{}}}{}\n",
            s.name,
            s.stmt,
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, stmt: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span { name, stmt, parent, start_ns: start, end_ns: end }
    }

    #[test]
    fn recorder_nests_and_closes_on_early_return() {
        let mut rec = Recorder::default();
        rec.set_stmt(7);
        let r: Result<(), &str> = rec.span(ROOT, |rec| {
            rec.span("sql.parse", |_| ());
            rec.span("bridge.detour", |rec| {
                rec.span("orcalite.memo_search", |_| Err::<(), _>("budget"))?;
                unreachable!("the error above leaves the detour")
            })
        });
        assert_eq!(r, Err("budget"));
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(0), Some(2)]
        );
        assert!(s.iter().all(|s| s.stmt == 7 && s.end_ns >= s.start_ns));
        // Children lie inside their parents.
        assert!(s[3].start_ns >= s[2].start_ns && s[3].end_ns <= s[2].end_ns);
        assert!(s[2].end_ns <= s[0].end_ns);
        assert_eq!(rec.last_root_ns(ROOT), s[0].dur_ns());
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            sp(ROOT, 0, None, 0, 100),
            sp("bridge.detour", 0, Some(0), 10, 90),
            sp("orcalite.memo_search", 0, Some(1), 20, 70),
            sp("bridge.validate", 0, Some(1), 70, 80),
        ];
        assert_eq!(self_times_ns(&spans), [20, 20, 50, 10]);
        let shares = layer_shares(&spans);
        assert_eq!(shares["orcalite"], 0.5);
        assert_eq!(shares["bridge"], 0.3);
        assert_eq!(shares["perf"], 0.2);
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn medians_sum_repeats_within_a_statement_and_skip_absent_ones() {
        let spans = [
            // Statement 0: two blocks converted, 2 µs + 4 µs.
            sp(ROOT, 0, None, 0, 10_000),
            sp("bridge.tree_convert", 0, Some(0), 0, 2_000),
            sp("bridge.tree_convert", 0, Some(0), 3_000, 7_000),
            // Statement 1: below the threshold, no conversion at all.
            sp(ROOT, 1, None, 20_000, 21_000),
            // Statement 2: one block, 10 µs.
            sp(ROOT, 2, None, 30_000, 45_000),
            sp("bridge.tree_convert", 2, Some(4), 30_000, 40_000),
        ];
        let m = median_self_us(&spans, |name| Some(name.to_string()));
        assert_eq!(m["bridge.tree_convert"], 8.0); // median of {6, 10}
        assert_eq!(m[ROOT], 4.0); // self times {4, 1, 5}
                                  // Keys can merge spans and drop them.
        let m = median_self_us(&spans, |name| (name != ROOT).then(|| "all".to_string()));
        assert_eq!(m.len(), 1);
        assert_eq!(m["all"], 8.0);
    }

    #[test]
    fn side_probes_stay_out_of_the_shares() {
        let spans = [
            sp(ROOT, 0, None, 0, 100),
            sp("executor.row_exec", 0, Some(0), 0, 100),
            sp("executor.batch_exec", 0, None, 100, 900),
        ];
        let shares = layer_shares(&spans);
        assert_eq!(shares["executor"], 1.0);
        let m = median_self_us(&spans, |name| Some(name.to_string()));
        assert_eq!(m["executor.batch_exec"], 0.8);
    }

    #[test]
    fn appended_spans_keep_their_parents() {
        let mut all = vec![sp(ROOT, 0, None, 0, 10), sp("sql.parse", 0, Some(0), 1, 4)];
        append(&mut all, &[sp(ROOT, 1, None, 0, 20), sp("sql.digest", 1, Some(0), 5, 10)]);
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(self_times_ns(&all), [7, 3, 15, 5]);
    }

    #[test]
    fn trace_json_parses_back() {
        let spans = [sp(ROOT, 3, None, 5, 9), sp("sql.parse", 3, Some(0), 6, 8)];
        let v = crate::json::parse(&to_json("w", 11, &spans)).unwrap();
        assert_eq!(v.get("seed").and_then(|s| s.as_f64()), Some(11.0));
        let arr = v.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(arr[0].get("name").and_then(|p| p.as_str()), Some(ROOT));
    }
}
