//! The differential fuzzer's regression suite: the minimized cross-plan
//! repros the bug sweeps produced — each asserted across every plan path
//! (native, Orca, parallel, plan-cache) so a regression in any one layer
//! trips it. (The bounded seeded run through all eight oracles is the
//! registry's table-driven gate test, `tests/registry.rs`.)

use mylite::{Engine, MySqlOptimizer};
use orcalite::OrcaConfig;
use taurus_bench::gates::fuzz::build_adversarial_catalog;
use taurus_bridge::OrcaOptimizer;

fn engine() -> (Engine, OrcaOptimizer) {
    let e = Engine::new(build_adversarial_catalog());
    e.set_parallel_threshold(8);
    e.set_morsel_rows(16);
    (e, OrcaOptimizer::new(OrcaConfig::default(), 1))
}

/// Run `sql` through native, Orca-routed, parallel (dop 4), and plan-cache
/// paths; return the four row multisets (canonicalized + sorted).
fn all_paths(e: &Engine, orca: &OrcaOptimizer, sql: &str) -> Vec<Vec<String>> {
    let canon = |out: mylite::QueryOutput| {
        let mut v: Vec<String> = out.rows.iter().map(|r| format!("{r:?}")).collect();
        v.sort();
        v
    };
    let native = canon(e.query(sql).expect("native"));
    let routed = canon(e.query_with(sql, orca).expect("orca"));
    e.set_dop(4);
    let parallel = canon(e.query(sql).expect("parallel"));
    e.set_dop(1);
    e.query_cached(sql, &MySqlOptimizer).expect("warm");
    let cached = canon(e.query_cached(sql, &MySqlOptimizer).expect("cached"));
    vec![native, routed, parallel, cached]
}

fn assert_all_paths(e: &Engine, orca: &OrcaOptimizer, sql: &str, expect_rows: usize) {
    let results = all_paths(e, orca, sql);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(
            r.len(),
            expect_rows,
            "path {} returned {:?} for: {sql}",
            ["native", "orca", "parallel", "cached"][i],
            r
        );
    }
    for r in &results[1..] {
        assert_eq!(&results[0], r, "plan paths disagree for: {sql}");
    }
}

#[test]
fn not_in_empty_subquery_keeps_null_probes() {
    // Fuzzer bug (native-vs-orca oracle): the native hash anti join dropped
    // NULL probe keys even when the build side was empty — but
    // `x NOT IN (∅)` is TRUE for every x, NULL included. `twin.t_k` is
    // ~10% NULL; the filtered subquery matches nothing.
    let (e, orca) = engine();
    let total = e.query("SELECT COUNT(*) FROM twin").unwrap().rows[0][0].as_i64().unwrap() as usize;
    assert_all_paths(
        &e,
        &orca,
        "SELECT t.t_seq, t.t_k FROM twin t \
         WHERE t.t_k NOT IN (SELECT o.o_key FROM lone o WHERE o.o_val = 'nope')",
        total,
    );
}

#[test]
fn not_in_nonempty_subquery_drops_null_probes() {
    // The dual: once the subquery has rows, a NULL probe is UNKNOWN and
    // must be filtered on every path.
    let (e, orca) = engine();
    let non_null_misses =
        e.query("SELECT COUNT(*) FROM twin WHERE t_k IS NOT NULL AND t_k <> 1").unwrap().rows[0][0]
            .as_i64()
            .unwrap() as usize;
    assert_all_paths(
        &e,
        &orca,
        "SELECT t.t_seq, t.t_k FROM twin t \
         WHERE t.t_k NOT IN (SELECT o.o_key FROM lone o)",
        non_null_misses,
    );
}

#[test]
fn order_by_ties_deterministic_across_dop() {
    // `twin.t_k` has six distinct values over 64 rows: almost every ORDER
    // BY key is a tie. Serial sort is stable; the parallel GatherMerge
    // breaks ties by morsel index over scan-ordered runs, which reproduces
    // it. The outputs must be byte-identical, not just equal as multisets.
    let (e, orca) = engine();
    for sql in [
        "SELECT t_k, t_v, t_s, t_seq FROM twin ORDER BY t_k",
        "SELECT t_k, t_s, t_seq FROM twin ORDER BY t_k DESC, t_v",
        "SELECT t_k, t_seq FROM twin ORDER BY t_k LIMIT 10",
    ] {
        for opt in [true, false] {
            let run = |dop: usize| -> Vec<String> {
                e.set_dop(dop);
                let out = if opt {
                    e.query_with(sql, &orca).expect(sql)
                } else {
                    e.query(sql).expect(sql)
                };
                e.set_dop(1);
                out.rows.iter().map(|r| format!("{r:?}")).collect()
            };
            let serial = run(1);
            for dop in [4, 8] {
                assert_eq!(
                    serial,
                    run(dop),
                    "tie order diverged at dop {dop} (orca={opt}) for: {sql}"
                );
            }
        }
    }
}

#[test]
fn empty_input_edge_cases_agree_on_all_paths() {
    let (e, orca) = engine();
    // Scalar aggregate over zero rows: one row, COUNT 0, other aggs NULL.
    let results = all_paths(
        &e,
        &orca,
        "SELECT COUNT(*), SUM(v.v_int), MIN(v.v_str), AVG(v.v_dbl) FROM vacuum v",
    );
    for r in &results {
        assert_eq!(r.len(), 1);
        assert!(r[0].starts_with("[Int(0), Null"), "scalar agg over empty: {r:?}");
    }
    for r in &results[1..] {
        assert_eq!(&results[0], r);
    }
    // Grouped aggregate over zero rows: zero groups.
    assert_all_paths(&e, &orca, "SELECT v.v_str, COUNT(*) FROM vacuum v GROUP BY v.v_str", 0);
    // Joins with an empty build side and an empty probe side.
    assert_all_paths(&e, &orca, "SELECT t.t_seq FROM twin t JOIN vacuum v ON v.v_int = t.t_k", 0);
    assert_all_paths(&e, &orca, "SELECT v.v_int FROM vacuum v JOIN twin t ON t.t_k = v.v_int", 0);
    // Semi/anti against an empty inner.
    assert_all_paths(
        &e,
        &orca,
        "SELECT t.t_seq FROM twin t WHERE EXISTS \
         (SELECT 1 FROM vacuum v WHERE v.v_int = t.t_k)",
        0,
    );
    // LIMIT 0 truncates everything, everywhere.
    assert_all_paths(&e, &orca, "SELECT t.t_seq FROM twin t ORDER BY t.t_seq LIMIT 0", 0);
}

#[test]
fn null_range_bound_selects_nothing_on_all_paths() {
    // Fuzzer bug (TLP oracle): `col >= NULL` on an indexed column became an
    // index-range bound; since NULL sorts first in the index's total order
    // the range covered the whole table instead of selecting zero rows.
    // `twin.t_seq` is unique-indexed, so both optimizers are tempted.
    let (e, orca) = engine();
    assert_all_paths(&e, &orca, "SELECT t.t_seq FROM twin t WHERE t.t_seq >= NULL", 0);
    assert_all_paths(&e, &orca, "SELECT t.t_seq FROM twin t WHERE t.t_seq <= NULL", 0);
    assert_all_paths(&e, &orca, "SELECT t.t_seq FROM twin t WHERE t.t_seq BETWEEN NULL AND 99", 0);
}

#[test]
fn unbounded_below_index_range_skips_null_keys() {
    // Fuzzer bug (fresh-vs-rebound oracle, seed 12 #323 of the six-oracle
    // sweep): `h_a <= 0` on the NULL-heavy indexed column compiled to an
    // index range scan with no lower bound. NULL sorts first in the index's
    // total order, so the scan started inside the NULL prefix and returned
    // every NULL-keyed row — rows the comparison predicate must reject as
    // UNKNOWN. The oracle caught it because the *rebound* serve was right:
    // warmed at `<= 25` the plan is a filtered table scan, which rebinds to
    // the correct answer, while the fresh compile of `<= 0` picked the
    // leaky range scan.
    let (e, orca) = engine();
    // Seeded holey data: 7 rows have h_a = 0; h_a is ~40% NULL.
    let zero = "SELECT t0.h_key AS c0 FROM holey t0 WHERE (t0.h_a <= 0) GROUP BY t0.h_key";
    assert_all_paths(&e, &orca, zero, 7);
    // The sweep's minimized literal pair, as the cache oracle ran it.
    let wide = "SELECT t0.h_key AS c0 FROM holey t0 WHERE (t0.h_a <= 25) GROUP BY t0.h_key";
    e.clear_plan_cache();
    let warm = e.query_cached(wide, &MySqlOptimizer).expect("warm");
    let rebound = e.query_cached(zero, &MySqlOptimizer).expect("rebound");
    let fresh = e.query_with(zero, &MySqlOptimizer).expect("fresh");
    let sorted = |out: &mylite::QueryOutput| {
        let mut v: Vec<String> = out.rows.iter().map(|r| format!("{r:?}")).collect();
        v.sort();
        v
    };
    assert_eq!(sorted(&rebound), sorted(&fresh), "rebound and fresh serves disagree");
    assert_eq!(warm.rows.len(), 31, "the warm literal matches every non-NULL h_a");
}
