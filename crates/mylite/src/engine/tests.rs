use super::*;
use crate::plancache::{CacheKey, Lookup};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use taurus_common::error::Error;
use taurus_common::{Column, DataType, Schema, Value};
use taurus_sql::fingerprint::token_digest;

fn engine() -> Engine {
    let mut cat = Catalog::new();
    let t = cat
        .create_table(
            "emp",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::nullable("dept", DataType::Int),
                Column::new("salary", DataType::Int),
            ]),
        )
        .unwrap();
    cat.insert(
        t,
        vec![
            vec![Value::Int(1), Value::Int(10), Value::Int(100)],
            vec![Value::Int(2), Value::Int(10), Value::Int(200)],
            vec![Value::Int(3), Value::Int(20), Value::Int(300)],
            vec![Value::Int(4), Value::Null, Value::Int(50)],
        ],
    )
    .unwrap();
    cat.create_index(t, "emp_pk", vec![0], true).unwrap();
    let d = cat
        .create_table(
            "dept",
            Schema::new(vec![
                Column::new("did", DataType::Int),
                Column::new("dname", DataType::Str),
            ]),
        )
        .unwrap();
    cat.insert(
        d,
        vec![vec![Value::Int(10), Value::str("eng")], vec![Value::Int(20), Value::str("ops")]],
    )
    .unwrap();
    cat.create_index(d, "dept_pk", vec![0], true).unwrap();
    let mut e = Engine::new(cat);
    e.analyze();
    e
}

fn ints(out: &QueryOutput, col: usize) -> Vec<i64> {
    out.rows.iter().map(|r| r[col].as_i64().unwrap()).collect()
}

#[test]
fn select_filter_order_limit() {
    let e = engine();
    let out = e
        .query("SELECT id, salary FROM emp WHERE salary > 60 ORDER BY salary DESC LIMIT 2")
        .unwrap();
    assert_eq!(out.columns, vec!["id", "salary"]);
    assert_eq!(ints(&out, 1), vec![300, 200]);
    assert!(out.work_units > 0);
}

#[test]
fn join_query() {
    let e = engine();
    let out = e.query("SELECT id, dname FROM emp, dept WHERE dept = did ORDER BY id").unwrap();
    assert_eq!(out.rows.len(), 3);
    assert_eq!(out.rows[0][1], Value::str("eng"));
}

#[test]
fn group_by_having() {
    let e = engine();
    let out = e
        .query(
            "SELECT dept, COUNT(*) AS n, SUM(salary) AS total FROM emp \
             GROUP BY dept HAVING COUNT(*) > 1 ORDER BY dept",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(ints(&out, 1), vec![2]);
    assert_eq!(ints(&out, 2), vec![300]);
}

#[test]
fn scalar_aggregate() {
    let e = engine();
    let out = e.query("SELECT COUNT(*), AVG(salary) FROM emp").unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][0], Value::Int(4));
}

#[test]
fn exists_semi_join() {
    let e = engine();
    let out = e
        .query(
            "SELECT dname FROM dept WHERE EXISTS \
             (SELECT * FROM emp WHERE dept = did AND salary > 250) ORDER BY dname",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][0], Value::str("ops"));
}

#[test]
fn not_in_anti_join_null_semantics() {
    let e = engine();
    // dept values include NULL -> NOT IN filters everything when the
    // subquery contains no NULLs but the probe is NULL.
    let out =
        e.query("SELECT id FROM emp WHERE dept NOT IN (SELECT did FROM dept) ORDER BY id").unwrap();
    // emp 4's NULL dept: membership UNKNOWN -> excluded.
    assert_eq!(out.rows.len(), 0);
}

#[test]
fn scalar_subquery_correlated() {
    let e = engine();
    // Employees earning above their department average.
    let out = e
        .query(
            "SELECT id FROM emp e1 WHERE salary > \
             (SELECT AVG(salary) FROM emp e2 WHERE e2.dept = e1.dept) ORDER BY id",
        )
        .unwrap();
    assert_eq!(ints(&out, 0), vec![2]);
}

#[test]
fn left_join_preserved_and_where_filter() {
    let e = engine();
    let out =
        e.query("SELECT id, dname FROM emp LEFT JOIN dept ON dept = did ORDER BY id").unwrap();
    assert_eq!(out.rows.len(), 4);
    assert!(out.rows[3][1].is_null());
}

#[test]
fn distinct_and_union() {
    let e = engine();
    let out = e.query("SELECT DISTINCT dept FROM emp ORDER BY dept").unwrap();
    assert_eq!(out.rows.len(), 3); // NULL, 10, 20
    let out = e
        .query("SELECT id FROM emp WHERE id < 2 UNION ALL SELECT id FROM emp WHERE id < 3")
        .unwrap();
    assert_eq!(out.rows.len(), 3);
    let out =
        e.query("SELECT id FROM emp WHERE id < 2 UNION SELECT id FROM emp WHERE id < 3").unwrap();
    assert_eq!(out.rows.len(), 2);
}

#[test]
fn intersect_auto_rewrites() {
    let e = engine();
    let out =
        e.query("SELECT dept FROM emp WHERE salary > 150 INTERSECT SELECT dept FROM emp").unwrap();
    // depts with salary > 150: {10, 20}; intersect with all: {10, 20}.
    assert_eq!(out.rows.len(), 2);
}

#[test]
fn insert_and_query() {
    let e = engine();
    let out = e.execute_sql_shared("INSERT INTO dept VALUES (30, 'hr')").unwrap();
    assert_eq!(out.rows[0][0], Value::Int(1));
    let q = e.query("SELECT dname FROM dept WHERE did = 30").unwrap();
    assert_eq!(q.rows[0][0], Value::str("hr"));
}

#[test]
fn explain_shows_banner_and_tree() {
    let e = engine();
    let text =
        e.explain("SELECT id, dname FROM emp, dept WHERE dept = did", &MySqlOptimizer).unwrap();
    assert!(text.starts_with("EXPLAIN\n"), "{text}");
    assert!(text.contains("join"), "{text}");
    assert!(text.contains("emp"), "{text}");
}

#[test]
fn case_expression_query() {
    let e = engine();
    let out = e
        .query(
            "SELECT id, CASE WHEN salary >= 200 THEN 'high' ELSE 'low' END AS band \
             FROM emp ORDER BY id",
        )
        .unwrap();
    assert_eq!(out.rows[0][1], Value::str("low"));
    assert_eq!(out.rows[1][1], Value::str("high"));
}

#[test]
fn order_by_hidden_column() {
    let e = engine();
    let out = e.query("SELECT id FROM emp ORDER BY salary DESC").unwrap();
    assert_eq!(ints(&out, 0), vec![3, 2, 1, 4]);
    assert_eq!(out.rows[0].len(), 1, "hidden sort column trimmed");
}

#[test]
fn derived_table_query() {
    let e = engine();
    let out = e
        .query(
            "SELECT d, total FROM (SELECT dept AS d, SUM(salary) AS total FROM emp \
             WHERE dept IS NOT NULL GROUP BY dept) t WHERE total > 250 ORDER BY d",
        )
        .unwrap();
    assert_eq!(ints(&out, 0), vec![10, 20]);
}

#[test]
fn index_scan_supplies_order_and_skips_sort() {
    // §2.2/§7 item 4: ORDER BY on an indexed column uses the ordered
    // index scan and elides the sort.
    let e = engine();
    let text =
        e.explain("SELECT id, salary FROM emp ORDER BY id LIMIT 3", &MySqlOptimizer).unwrap();
    assert!(text.contains("Index scan on emp"), "{text}");
    assert!(!text.contains("Sort:"), "{text}");
    let out = e.query("SELECT id, salary FROM emp ORDER BY id LIMIT 3").unwrap();
    assert_eq!(ints(&out, 0), vec![1, 2, 3]);
    // An unindexed ORDER BY column still sorts.
    let text = e.explain("SELECT id FROM emp ORDER BY salary", &MySqlOptimizer).unwrap();
    assert!(text.contains("Sort:"), "{text}");
    // Descending order cannot come from the index either.
    let text = e.explain("SELECT id FROM emp ORDER BY id DESC", &MySqlOptimizer).unwrap();
    assert!(text.contains("Sort:"), "{text}");
}

#[test]
fn aggregate_in_order_by() {
    let e = engine();
    let out = e
        .query(
            "SELECT dept FROM emp WHERE dept IS NOT NULL GROUP BY dept \
             ORDER BY SUM(salary) DESC",
        )
        .unwrap();
    assert_eq!(ints(&out, 0), vec![10, 20]);
}

#[test]
fn plan_cache_hit_rebinds_new_literals() {
    let e = engine();
    let sql_a = "SELECT id FROM emp WHERE salary > 60 ORDER BY id";
    let sql_b = "SELECT id FROM emp WHERE salary > 250 ORDER BY id";
    let (_, out) = e.plan_cached(sql_a, &MySqlOptimizer).unwrap();
    assert_eq!(out, CacheOutcome::Miss);
    let a = e.query_cached(sql_a, &MySqlOptimizer).unwrap();
    assert_eq!(ints(&a, 0), vec![1, 2, 3]);
    // Same fingerprint, different literal: served from cache, re-bound.
    let (_, out) = e.plan_cached(sql_b, &MySqlOptimizer).unwrap();
    assert_eq!(out, CacheOutcome::Hit);
    let b = e.query_cached(sql_b, &MySqlOptimizer).unwrap();
    assert_eq!(ints(&b, 0), vec![3]);
    assert_eq!(e.plan_cache_len(), 1, "one entry serves both literals");
    // The cached results match a cold compile of the same statements.
    assert_eq!(b.rows, e.query(sql_b).unwrap().rows);
    let s = e.plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.invalidations), (3, 1, 0));
}

#[test]
fn plan_cache_rebinds_index_range_bounds() {
    // The pk index range is driven by the literal: rebinding must reach
    // the IndexRange lo/hi, not just Filter predicates.
    let e = engine();
    let a = e.query_cached("SELECT salary FROM emp WHERE id = 1", &MySqlOptimizer).unwrap();
    assert_eq!(ints(&a, 0), vec![100]);
    let b = e.query_cached("SELECT salary FROM emp WHERE id = 3", &MySqlOptimizer).unwrap();
    assert_eq!(ints(&b, 0), vec![300]);
    assert_eq!(e.plan_cache_stats().hits, 1);
}

#[test]
fn rebind_type_mismatch_discards_and_recompiles() {
    // Differently-typed literals hash to different fingerprints, so a
    // cached plan should never legitimately see binds of another type
    // class. If one ever does (here: an entry planted under the wrong
    // shape's fingerprint), the rebind must refuse and the serve path
    // must recompile — not serve the stale plan, not fail the query.
    // Both executing actions share the one pipeline, so both recover.
    type ServeRows = fn(&Engine, &str) -> Vec<Row>;
    let run: ServeRows = |e, sql| e.query_cached(sql, &MySqlOptimizer).unwrap().rows;
    let analyze: ServeRows = |e, sql| e.analyze_cached(sql, &MySqlOptimizer).unwrap().0.output.rows;
    for (action, serve) in [("run", run), ("analyze", analyze)] {
        let e = engine();
        let sql_int = "SELECT salary FROM emp WHERE id = 2";
        let sql_str = "SELECT salary FROM emp WHERE id = 'two'";
        let (planned, _) = e.plan_cached(sql_int, &MySqlOptimizer).unwrap();
        let poisoned_key = CacheKey {
            fingerprint: token_digest(sql_str).unwrap().fingerprint,
            shape: e.defaults.resolve(&SessionOpts::default()).plan_shape(),
        };
        e.plan_cache.insert(&poisoned_key, e.catalog().version(), "mysql", planned);
        let before = e.plan_cache_stats();
        // The Str-literal query hits the poisoned Int-peeked entry; the
        // type-class check rejects the rebind and a fresh compile serves.
        let rows = serve(&e, sql_str);
        assert_eq!(rows.len(), 0, "{action}: recompiled plan answers the actual query");
        let after = e.plan_cache_stats();
        assert_eq!(after.invalidations, before.invalidations + 1, "{action}: hit reclassified");
        assert_eq!(after.hits, before.hits, "{action}: a refused rebind is not a serve");
        // The poisoned entry is gone: the shape recompiled and re-cached.
        let (_, outcome) = e.plan_cached(sql_str, &MySqlOptimizer).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit, "{action}: fresh entry serves the shape now");
    }
}

#[test]
fn every_action_agrees_across_paths() {
    // One pipeline, so the same statement must answer identically however
    // it is asked: fresh, cached (miss, then hit), and instrumented.
    let statements = [
        "SELECT id, salary FROM emp WHERE salary > 60 ORDER BY salary DESC LIMIT 2",
        "SELECT id, dname FROM emp, dept WHERE dept = did ORDER BY id",
        "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept",
        "SELECT dname FROM dept WHERE EXISTS \
         (SELECT * FROM emp WHERE dept = did AND salary > 250) ORDER BY dname",
        "SELECT id FROM emp WHERE id < 2 UNION ALL SELECT id FROM emp WHERE id < 3",
        "SELECT id FROM emp WHERE salary > 250 UNION SELECT did FROM dept",
    ];
    let e = engine();
    let opt = &MySqlOptimizer;
    let session = SessionOpts::default();
    for sql in statements {
        let fresh = e.query_with(sql, opt).unwrap();
        let (miss, first) = e.query_cached_opts(sql, opt, &session).unwrap();
        let (hit, second) = e.query_cached_opts(sql, opt, &session).unwrap();
        assert_eq!((first, second), (CacheOutcome::Miss, CacheOutcome::Hit), "{sql}");
        assert_eq!(miss.rows, fresh.rows, "{sql}");
        assert_eq!(hit.rows, fresh.rows, "{sql}");
        assert_eq!(hit.columns, fresh.columns, "{sql}");
        let (analyzed, outcome) = e.analyze_cached(sql, opt).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit, "{sql}");
        assert_eq!(analyzed.output.rows, fresh.rows, "{sql}");
        assert_eq!(e.explain_analyze(sql, opt).unwrap().output.rows, fresh.rows, "{sql}");
        // EXPLAIN differs between the paths only by the banner's cache
        // suffix, and by `$n` markers where the cached plan holds binds.
        let mut cached = e.explain_cached_opts(sql, opt, &session).unwrap();
        assert!(cached.starts_with("EXPLAIN [plan cache: hit]\n"), "{cached}");
        cached = cached.replacen(" [plan cache: hit]", "", 1);
        let binds = token_digest(sql).unwrap().binds;
        for (n, value) in binds.iter().enumerate().rev() {
            cached = cached.replace(&format!("${n}"), &value.to_string());
        }
        assert_eq!(cached, e.explain(sql, opt).unwrap(), "{sql}");
    }
}

#[test]
fn plan_shaping_knobs_split_cache_entries_and_execution_knobs_share_them() {
    // Table-driven: a knob added to the table is covered with no new code.
    let sql = "SELECT id FROM emp WHERE salary > 60";
    for row in crate::knobs::table() {
        let e = engine();
        let base = e.defaults.resolve(&SessionOpts::default());
        // The first wire value that resolves away from the engine default.
        let other = (0..4)
            .map(|bits| {
                let mut o = SessionOpts::default();
                assert!(o.set_wire(row.wire_key, bits));
                o
            })
            .find(|o| e.defaults.resolve(o) != base)
            .unwrap_or_else(|| panic!("{}: no non-default value", row.name));
        e.plan_cached(sql, &MySqlOptimizer).unwrap();
        let (_, outcome) = e.plan_cached_opts(sql, &MySqlOptimizer, &other).unwrap();
        if row.shapes_plan {
            assert_eq!(outcome, CacheOutcome::Miss, "{}: its own entry", row.name);
            assert_eq!(e.plan_cache_len(), 2, "{}", row.name);
        } else {
            assert_eq!(outcome, CacheOutcome::Hit, "{}: shares the entry", row.name);
            assert_eq!(e.plan_cache_len(), 1, "{}", row.name);
        }
    }
}

#[test]
fn ddl_invalidates_cached_plans() {
    let mut e = engine();
    let sql = "SELECT id FROM emp WHERE salary > 60";
    e.query_cached(sql, &MySqlOptimizer).unwrap();
    let (_, out) = e.plan_cached(sql, &MySqlOptimizer).unwrap();
    assert_eq!(out, CacheOutcome::Hit);
    // ANALYZE publishes new statistics -> version bump -> stale entry.
    e.analyze();
    let (_, out) = e.plan_cached(sql, &MySqlOptimizer).unwrap();
    assert_eq!(out, CacheOutcome::Invalidated);
    let (_, out) = e.plan_cached(sql, &MySqlOptimizer).unwrap();
    assert_eq!(out, CacheOutcome::Hit, "re-inserted under the new version");
    let s = e.plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.invalidations), (2, 1, 1));
}

#[test]
fn explain_cached_banner_shows_outcome() {
    let e = engine();
    let sql = "SELECT id, dname FROM emp, dept WHERE dept = did";
    let session = SessionOpts::default();
    let text = e.explain_cached_opts(sql, &MySqlOptimizer, &session).unwrap();
    assert!(text.starts_with("EXPLAIN [plan cache: miss]\n"), "{text}");
    let text = e.explain_cached_opts(sql, &MySqlOptimizer, &session).unwrap();
    assert!(text.starts_with("EXPLAIN [plan cache: hit]\n"), "{text}");
    assert!(text.contains("join"), "{text}");
}

// The whole point of the Mutex/atomic migration: one engine, many
// session threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

/// A wider emp table so the parallel threshold can be crossed.
fn big_engine(rows: i64) -> Engine {
    let mut cat = Catalog::new();
    let t = cat
        .create_table(
            "emp",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("dept", DataType::Int),
                Column::new("salary", DataType::Int),
            ]),
        )
        .unwrap();
    cat.insert(
        t,
        (0..rows)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7), Value::Int(i * 13 % 1000)])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let mut e = Engine::new(cat);
    e.analyze();
    e
}

#[test]
fn parallel_query_matches_serial_and_shortens_critical_path() {
    let e = big_engine(5000);
    let sql = "SELECT dept, COUNT(*) AS n, SUM(salary) AS s FROM emp \
               WHERE salary < 900 GROUP BY dept ORDER BY dept";
    let serial = e.query(sql).unwrap();
    e.set_dop(4);
    e.set_morsel_rows(512);
    let parallel = e.query(sql).unwrap();
    assert_eq!(serial.rows, parallel.rows, "parallel results must be identical");
    assert!(
        parallel.critical_work_units < serial.work_units,
        "critical path {} should shrink below serial work {}",
        parallel.critical_work_units,
        serial.work_units
    );
    assert_eq!(serial.critical_work_units, serial.work_units, "serial has no parallelism");
}

#[test]
fn explain_shows_exchange_and_dop_only_when_parallel() {
    let e = big_engine(3000);
    let sql = "SELECT id FROM emp WHERE salary > 500";
    let text = e.explain(sql, &MySqlOptimizer).unwrap();
    assert!(!text.contains("dop="), "serial EXPLAIN unchanged: {text}");
    e.set_dop(4);
    let text = e.explain(sql, &MySqlOptimizer).unwrap();
    assert!(text.contains("Exchange (gather, dop=4)"), "{text}");
    assert!(text.contains("dop=4)"), "{text}");
}

#[test]
fn small_tables_stay_serial_under_dop() {
    let e = engine();
    e.set_dop(8);
    let text = e.explain("SELECT id FROM emp", &MySqlOptimizer).unwrap();
    assert!(!text.contains("Exchange"), "4-row table below threshold: {text}");
    let out = e.query("SELECT id FROM emp ORDER BY id").unwrap();
    assert_eq!(ints(&out, 0), vec![1, 2, 3, 4]);
}

#[test]
fn set_dop_invalidates_cached_plans() {
    let e = big_engine(3000);
    let sql = "SELECT id FROM emp WHERE salary > 500";
    e.query_cached(sql, &MySqlOptimizer).unwrap();
    assert_eq!(e.plan_cache_len(), 1);
    e.set_dop(4);
    assert_eq!(e.plan_cache_len(), 0, "dop change drops serial plans");
    let (planned, _) = e.plan_cached(sql, &MySqlOptimizer).unwrap();
    let has_exchange = format!("{:?}", planned.primary().plan).contains("Exchange");
    assert!(has_exchange, "recompiled plan is parallel");
}

#[test]
fn concurrent_sessions_share_engine_and_plan_cache() {
    let e = std::sync::Arc::new(big_engine(3000));
    e.set_dop(2);
    // Prime the cache so every session thread hits the shared entry.
    let expected = e
        .query_cached(
            "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept",
            &MySqlOptimizer,
        )
        .unwrap()
        .rows;
    std::thread::scope(|s| {
        for _ in 0..4 {
            let e = e.clone();
            let expected = expected.clone();
            s.spawn(move || {
                for _ in 0..5 {
                    let out = e
                        .query_cached(
                            "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept",
                            &MySqlOptimizer,
                        )
                        .unwrap();
                    assert_eq!(out.rows, expected);
                }
            });
        }
    });
    let s = e.plan_cache_stats();
    assert_eq!(s.hits, 20, "every threaded run hits the primed entry: {s:?}");
    assert_eq!(e.plan_cache_len(), 1);
}

#[test]
fn structurally_different_statements_do_not_collide() {
    let e = engine();
    e.query_cached("SELECT id FROM emp WHERE salary > 60", &MySqlOptimizer).unwrap();
    e.query_cached("SELECT id FROM emp WHERE salary > 60 AND dept = 10", &MySqlOptimizer).unwrap();
    e.query_cached("SELECT dept FROM emp WHERE salary > 60", &MySqlOptimizer).unwrap();
    assert_eq!(e.plan_cache_len(), 3);
    assert_eq!(e.plan_cache_stats().hits, 0);
}

#[test]
fn explain_analyze_annotates_every_operator() {
    let e = engine();
    let sql = "SELECT id, salary FROM emp WHERE salary > 60 ORDER BY salary DESC LIMIT 2";
    let plain = e.query(sql).unwrap();
    let analyzed = e.explain_analyze(sql, &MySqlOptimizer).unwrap();
    assert_eq!(analyzed.output.rows, plain.rows, "observation must not change results");
    assert!(analyzed.text.starts_with("EXPLAIN ANALYZE\n"), "{}", analyzed.text);
    // Every operator line carries actuals (or a never-executed marker).
    for line in analyzed.text.lines().skip(1) {
        assert!(
            line.contains("actual rows=") || line.contains("(never executed)"),
            "unannotated line: {line}"
        );
    }
    assert!(analyzed.text.contains("q-error="), "{}", analyzed.text);
    // Limit 2 over 3 qualifying rows: the root actually returns 2.
    assert_eq!(analyzed.nodes[0].actual_rows, 2);
    assert!(!analyzed.nodes.is_empty());
    for n in &analyzed.nodes {
        if n.loops > 0 {
            assert!(n.q_error.unwrap() >= 1.0);
        }
    }
}

#[test]
fn explain_analyze_normalizes_lookup_rows_per_probe() {
    let e = engine();
    // emp ⋈ dept via index lookup: the lookup runs once per outer row.
    let sql = "SELECT id, dname FROM emp, dept WHERE dept = did ORDER BY id";
    let analyzed = e.explain_analyze(sql, &MySqlOptimizer).unwrap();
    assert_eq!(analyzed.output.rows.len(), 3);
    if let Some(line) = analyzed.text.lines().find(|l| l.contains("Index lookup on dept")) {
        // 4 probes (one NULL misses): loops=4 and the per-probe actual
        // is under 1, so the est=1 lookup stays well-calibrated.
        assert!(line.contains("loops=4"), "{line}");
    }
    let lookup_q = analyzed
        .nodes
        .iter()
        .filter(|n| n.loops > 1)
        .map(|n| n.q_error.unwrap())
        .fold(1.0f64, f64::max);
    assert!(lookup_q < 5.0, "per-probe normalization keeps q-error small: {lookup_q}");
}

#[test]
fn explain_analyze_parallel_matches_serial_results() {
    let e = big_engine(5000);
    let sql = "SELECT dept, COUNT(*) AS n, SUM(salary) AS s FROM emp \
               WHERE salary < 900 GROUP BY dept ORDER BY dept";
    let serial = e.query(sql).unwrap();
    e.set_dop(4);
    e.set_morsel_rows(512);
    let analyzed = e.explain_analyze(sql, &MySqlOptimizer).unwrap();
    assert_eq!(analyzed.output.rows, serial.rows, "analyze at dop=4 must not perturb results");
    // The aggregate shape parallelizes through a repartition exchange;
    // its actuals must be attributed exactly once despite dop workers.
    let exchange = analyzed
        .text
        .lines()
        .find(|l| l.contains("Exchange (") && l.contains("dop=4"))
        .expect("exchange line");
    assert!(exchange.contains("actual rows="), "{exchange}");
}

#[test]
fn cancel_after_unwinds_cleanly_and_engine_stays_serviceable() {
    let e = engine();
    let sql = "SELECT id, salary FROM emp WHERE salary > 60 ORDER BY salary DESC";
    let expected = e.query(sql).unwrap().rows;
    // Trip the cancel token at the very first governor check.
    e.set_cancel_after(Some(1));
    assert_eq!(e.query(sql).unwrap_err(), Error::Cancelled);
    // The same engine answers the same query once the knob is cleared —
    // no poisoned cache, no stuck state.
    e.set_cancel_after(None);
    assert_eq!(e.query(sql).unwrap().rows, expected);
    assert!(e.in_flight_ids().is_empty(), "no governor left registered");
}

#[test]
fn cancelled_cached_serve_keeps_the_entry_for_the_next_caller() {
    let e = engine();
    let sql = "SELECT id FROM emp WHERE salary > 60 ORDER BY id";
    e.query_cached(sql, &MySqlOptimizer).unwrap();
    assert_eq!(e.plan_cache_len(), 1);
    e.set_cancel_after(Some(1));
    assert_eq!(e.query_cached(sql, &MySqlOptimizer).unwrap_err(), Error::Cancelled);
    e.set_cancel_after(None);
    // The failed serve neither evicted nor corrupted the entry.
    assert_eq!(e.plan_cache_len(), 1);
    let out = e.query_cached(sql, &MySqlOptimizer).unwrap();
    assert_eq!(ints(&out, 0), vec![1, 2, 3]);
}

#[test]
fn deadline_converts_to_typed_error() {
    // The query must both outlive its 1ms budget and pass governor
    // checks while doing so: a correlated subquery re-opens its subtree
    // per outer row, so checks are sprinkled across the whole run.
    let e = big_engine(2000);
    e.set_deadline(Some(Duration::from_millis(1)));
    let slow = "SELECT COUNT(*) FROM emp a WHERE salary > \
                (SELECT AVG(salary) FROM emp b WHERE b.dept = a.dept)";
    match e.query(slow) {
        Err(Error::DeadlineExceeded { budget_ms }) => assert_eq!(budget_ms, 1),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    e.set_deadline(None);
    assert_eq!(e.query("SELECT COUNT(*) FROM emp").unwrap().rows[0][0], Value::Int(2000));
}

#[test]
fn memory_budget_bounds_peak_and_surfaces_typed_error() {
    let e = engine();
    let sql = "SELECT dept, SUM(salary) FROM emp GROUP BY dept ORDER BY dept";
    e.query(sql).unwrap();
    let unbounded_peak = e.last_peak_bytes();
    assert!(unbounded_peak > 0, "hash aggregate + sort charge memory");
    // A 1-byte budget fails the first charge (serial retry included).
    e.set_memory_budget(Some(1));
    match e.query(sql) {
        Err(Error::MemoryExceeded { used, budget }) => {
            assert_eq!(budget, 1);
            assert!(used > 1);
        }
        other => panic!("expected MemoryExceeded, got {other:?}"),
    }
    assert!(e.last_peak_bytes() <= 1, "peak never exceeds the budget");
    // A generous budget admits the query and tracks the same peak.
    e.set_memory_budget(Some(unbounded_peak * 2));
    assert_eq!(e.query(sql).unwrap().rows.len(), 3);
    assert!(e.last_peak_bytes() <= unbounded_peak * 2);
    e.set_memory_budget(None);
}

#[test]
fn cancel_by_id_stops_a_running_query() {
    let e = std::sync::Arc::new(big_engine(30_000));
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        // A canceller thread that spins until it sees the query in
        // flight, then kills it by id.
        let canceller = {
            let e = e.clone();
            let stop = stop.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for id in e.in_flight_ids() {
                        if e.cancel(id) {
                            return;
                        }
                    }
                    std::thread::yield_now();
                }
            })
        };
        // A correlated self-join: quadratic enough that the canceller
        // always finds it in flight.
        let r = e.query("SELECT a.id FROM emp a, emp b WHERE a.salary = b.salary AND a.id < b.id");
        stop.store(true, Ordering::Relaxed);
        canceller.join().unwrap();
        if let Err(e) = &r {
            assert_eq!(*e, Error::Cancelled);
        }
    });
    // Either way the engine survived; a fresh query still answers.
    assert_eq!(e.query("SELECT COUNT(*) FROM emp").unwrap().rows[0][0], Value::Int(30_000));
    assert!(e.in_flight_ids().is_empty());
}

#[test]
fn admission_gate_bounds_concurrent_executions() {
    let e = std::sync::Arc::new(big_engine(5000));
    e.set_admission_limit(2);
    std::thread::scope(|s| {
        for _ in 0..6 {
            let e = e.clone();
            s.spawn(move || {
                for _ in 0..3 {
                    let out = e
                        .query("SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept")
                        .unwrap();
                    assert_eq!(out.rows.len(), 7);
                    // The registry only ever holds admitted queries, so
                    // a sample mid-storm can never exceed the limit.
                    assert!(e.in_flight_ids().len() <= 2, "admission limit violated");
                }
            });
        }
    });
    // Nothing deadlocked, every caller answered, and the gate drained.
    assert!(e.in_flight_ids().is_empty());
    e.set_admission_limit(usize::MAX);
}

#[test]
fn memory_degradation_rung_retries_parallel_plans_serially() {
    let e = big_engine(5000);
    e.set_dop(4);
    e.set_morsel_rows(256);
    // A grouped aggregate: at dop=4 the repartition exchange buffers
    // every partition while phase 2 runs, charging memory the serial
    // plan never holds at once.
    let sql = "SELECT dept, COUNT(*) AS n, SUM(salary) AS s FROM emp \
               WHERE salary < 900 GROUP BY dept ORDER BY dept";
    let expected = e.query(sql).unwrap().rows;
    let parallel_peak = e.last_peak_bytes();
    e.set_dop(1);
    e.query(sql).unwrap();
    let serial_peak = e.last_peak_bytes();
    e.set_dop(4);
    assert!(
        serial_peak < parallel_peak,
        "premise: the parallel sort-merge buffers charge more \
         (serial {serial_peak} vs parallel {parallel_peak})"
    );
    // A budget between the two peaks: the dop=4 attempt must exceed it
    // and the serial retry must fit — the caller sees a normal answer.
    e.set_memory_budget(Some((serial_peak + parallel_peak) / 2));
    let out = e.query(sql).unwrap();
    assert_eq!(out.rows, expected, "degraded retry answers identically");
    let governed = e.governed_stats();
    assert_eq!(governed.memory_degraded, 1, "one degraded outcome counted: {governed:?}");
    assert_eq!(governed.total(), 1, "and nothing else: {governed:?}");
    e.set_memory_budget(None);
}

#[test]
fn a_panic_under_a_cache_entry_lock_leaves_the_engine_serving() {
    // A panicked query under a held lock must not brick the engine: the
    // sync helpers recover poisoned guards. Panic while holding a cached
    // entry's plan guard — the lock a hit holds across rebind and
    // execution — then keep serving the same entry from four threads.
    let e = big_engine(500);
    let sql = "SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept";
    let expected = e.query_cached(sql, &MySqlOptimizer).unwrap().rows;
    let key = CacheKey {
        fingerprint: token_digest(sql).unwrap().fingerprint,
        shape: e.defaults.resolve(&SessionOpts::default()).plan_shape(),
    };
    let Lookup::Hit(entry) = e.plan_cache.lookup(&key, e.catalog().version()) else {
        panic!("the first serve cached the plan");
    };
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _planned = entry.planned();
        panic!("chaos: die while holding the cache entry lock");
    }));
    assert!(panicked.is_err(), "the panic propagated to the caller");
    drop(entry);
    // The entry lock was poisoned by the unwind; recovery must serve on.
    let hits = e.plan_cache_stats().hits;
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..5 {
                    assert_eq!(
                        e.query_cached(sql, &MySqlOptimizer).unwrap().rows,
                        expected,
                        "post-panic serves answer identically"
                    );
                }
            });
        }
    });
    assert_eq!(e.plan_cache_stats().hits, hits + 20, "every post-panic serve was a hit");
    assert!(e.in_flight_ids().is_empty());
}

#[test]
fn explain_analyze_union_annotates_all_branches() {
    let e = engine();
    let analyzed = e
        .explain_analyze(
            "SELECT id FROM emp WHERE salary > 250 UNION SELECT did FROM dept",
            &MySqlOptimizer,
        )
        .unwrap();
    assert_eq!(analyzed.output.rows.len(), 3, "{:?}", analyzed.output.rows);
    assert!(analyzed.text.contains("UNION DISTINCT\n"), "{}", analyzed.text);
    let banners = analyzed.text.lines().filter(|l| l.starts_with("EXPLAIN ANALYZE")).count();
    assert_eq!(banners, 2, "one banner per branch: {}", analyzed.text);
}

#[test]
fn queued_admission_respects_the_deadline() {
    let e = engine();
    e.set_admission_limit(1);
    // Occupy the only slot directly, then watch a deadline-bounded
    // caller time out in the queue instead of parking forever.
    let slot = e.admission.admit(0).unwrap();
    let session = SessionOpts { deadline_ms: Some(30), ..SessionOpts::default() };
    let t0 = Instant::now();
    match e.query_cached_opts("SELECT id FROM emp", &MySqlOptimizer, &session) {
        Err(Error::DeadlineExceeded { budget_ms }) => assert_eq!(budget_ms, 30),
        other => panic!("expected DeadlineExceeded from the admission queue, got {other:?}"),
    }
    assert!(t0.elapsed() >= Duration::from_millis(30), "waited out the budget");
    drop(slot);
    // With the slot free the same session admits and answers.
    let (out, _) = e.query_cached_opts("SELECT id FROM emp", &MySqlOptimizer, &session).unwrap();
    assert_eq!(out.rows.len(), 4);
    e.set_admission_limit(usize::MAX);
}

#[test]
fn per_session_knobs_layer_over_engine_defaults() {
    let e = big_engine(3000);
    let sql = "SELECT id FROM emp WHERE salary > 500";
    // Engine default dop=1: the session override plans a parallel copy
    // without touching the engine knob or other sessions' entries.
    let (serial, _) = e.plan_cached(sql, &MySqlOptimizer).unwrap();
    assert!(!format!("{:?}", serial.primary().plan).contains("Exchange"));
    let session = SessionOpts { dop: Some(4), ..SessionOpts::default() };
    let (parallel, out) = e.plan_cached_opts(sql, &MySqlOptimizer, &session).unwrap();
    assert_eq!(out, CacheOutcome::Miss, "session knobs are part of the cache key");
    assert!(format!("{:?}", parallel.primary().plan).contains("Exchange"));
    assert_eq!(e.plan_cache_len(), 2, "both knob variants coexist");
    // Each variant hits its own entry on the next serve.
    assert_eq!(e.plan_cached(sql, &MySqlOptimizer).unwrap().1, CacheOutcome::Hit);
    assert_eq!(e.plan_cached_opts(sql, &MySqlOptimizer, &session).unwrap().1, CacheOutcome::Hit);
    // And results agree regardless of the session's dop.
    let ordered = "SELECT id FROM emp WHERE salary > 500 ORDER BY id";
    let (a, _) = e.query_cached_opts(ordered, &MySqlOptimizer, &session).unwrap();
    assert_eq!(a.rows, e.query_cached(ordered, &MySqlOptimizer).unwrap().rows);
}

#[test]
fn session_zero_deadline_disables_the_engine_default() {
    let e = big_engine(2000);
    e.set_deadline(Some(Duration::from_millis(1)));
    let slow = "SELECT COUNT(*) FROM emp a WHERE salary > \
                (SELECT AVG(salary) FROM emp b WHERE b.dept = a.dept)";
    assert!(matches!(e.query(slow), Err(Error::DeadlineExceeded { .. })));
    // Some(0) means "explicitly no deadline", overriding the default.
    let session = SessionOpts { deadline_ms: Some(0), ..SessionOpts::default() };
    let (out, _) = e.query_cached_opts(slow, &MySqlOptimizer, &session).unwrap();
    assert_eq!(out.rows.len(), 1);
    e.set_deadline(None);
}

/// Each leaf's read set in the planned statement, pre-order.
fn read_sets(e: &Engine, sql: &str) -> Vec<u64> {
    fn walk(p: &Plan, out: &mut Vec<u64>) {
        if let Plan::Scan { read, .. } = p {
            out.push(read.mask);
        }
        p.children().into_iter().for_each(|c| walk(c, out));
    }
    let mut out = Vec::new();
    walk(&e.plan(sql, &MySqlOptimizer).unwrap().primary().plan, &mut out);
    out
}

#[test]
fn read_sets_hold_the_columns_the_plan_reads() {
    let e = engine();
    assert_eq!(read_sets(&e, "SELECT * FROM dept"), [0b11], "SELECT * reads everything");
    // The leaf tests its own filter on the stored row: `dept` stays behind.
    assert_eq!(read_sets(&e, "SELECT salary FROM emp WHERE dept > 1"), [0b100]);
    assert_eq!(read_sets(&e, "SELECT salary FROM emp WHERE dept > salary"), [0b100]);
    assert_eq!(read_sets(&e, "SELECT id FROM emp ORDER BY salary"), [0b101]);
    assert_eq!(read_sets(&e, "SELECT COUNT(*) FROM emp"), [0], "COUNT(*) reads no column");
    let out = e.query("SELECT COUNT(*) FROM emp WHERE salary > 60").unwrap();
    assert_eq!(ints(&out, 0), [3]);
}

#[test]
fn a_table_wider_than_a_mask_is_read_whole() {
    let mut cat = Catalog::new();
    let cols = (0..70).map(|c| Column::new(format!("c{c}"), DataType::Int)).collect();
    let t = cat.create_table("wide", Schema::new(cols)).unwrap();
    let row = |i: i64| (0..70).map(|c| Value::Int(i * 100 + c)).collect::<Vec<_>>();
    cat.insert(t, vec![row(1), row(2)]).unwrap();
    let e = Engine::new(cat);
    let sql = "SELECT c69, c1 FROM wide WHERE c68 > 200";
    assert_eq!(read_sets(&e, sql), [taurus_common::ALL_COLUMNS]);
    assert_eq!(ints(&e.query(sql).unwrap(), 0), [269]);
}
