//! Cross-crate integration: both optimizers, both workloads, full suites.
//!
//! The strongest invariant in the repository: for every workload query, the
//! MySQL-optimized plan and the Orca-optimized plan must produce identical
//! result sets — plan choice may change *cost*, never *answers*.

use taurus_orca::bridge::OrcaOptimizer;
use taurus_orca::catalog::Catalog;
use taurus_orca::common::{Column, DataType, Schema, Value};
use taurus_orca::mylite::{CostBasedOptimizer, Engine, MySqlOptimizer, SessionOpts};
use taurus_orca::orcalite::{JoinOrderStrategy, OrcaConfig};
use taurus_orca::workloads::{tpcds, tpch, Scale};

/// Canonicalize result rows: doubles round (summation order is
/// plan-dependent), then sort.
fn canon(rows: Vec<Vec<Value>>) -> Vec<String> {
    let mut out: Vec<String> = rows
        .into_iter()
        .map(|r| {
            r.into_iter()
                .map(|v| match v {
                    Value::Double(d) => format!("D{:.4}", d),
                    other => format!("{other:?}"),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    out.sort();
    out
}

fn assert_agree(engine: &Engine, orca: &OrcaOptimizer, name: &str, sql: &str) {
    let mysql = engine
        .query(sql)
        .unwrap_or_else(|e| panic!("{name} failed under the MySQL optimizer: {e}"));
    let orca_out = engine
        .query_with(sql, orca)
        .unwrap_or_else(|e| panic!("{name} failed under the Orca detour: {e}"));
    assert_eq!(
        canon(mysql.rows),
        canon(orca_out.rows),
        "{name}: MySQL and Orca plans disagree on results"
    );
}

#[test]
fn tpch_full_suite_agrees() {
    let engine = Engine::new(tpch::build_catalog(Scale(0.05)));
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 3);
    for q in tpch::queries() {
        assert_agree(&engine, &orca, q.name, &q.sql);
    }
}

#[test]
fn tpcds_full_suite_agrees() {
    let engine = Engine::new(tpcds::build_catalog(Scale(0.05)));
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 2);
    for q in tpcds::queries() {
        assert_agree(&engine, &orca, q.name, &q.sql);
    }
}

#[test]
fn tpcds_agrees_under_every_search_strategy() {
    let engine = Engine::new(tpcds::build_catalog(Scale(0.03)));
    for strategy in
        [JoinOrderStrategy::Greedy, JoinOrderStrategy::Exhaustive, JoinOrderStrategy::Exhaustive2]
    {
        let orca = OrcaOptimizer::new(OrcaConfig::with_strategy(strategy), 1);
        for n in [1, 6, 17, 41, 72, 81, 92, 5, 10, 25] {
            let q = tpcds::query(n);
            assert_agree(&engine, &orca, q.name, &q.sql);
        }
    }
}

#[test]
fn between_with_a_null_bound_is_three_valued_in_every_engine() {
    // `x BETWEEN lo AND hi` is `x >= lo AND x <= hi`: with `x < lo` decided
    // FALSE, a NULL `hi` cannot make the whole UNKNOWN, so NOT BETWEEN is
    // TRUE for all 25 nations — as the spelled-out form (and MySQL) says.
    let engine = Engine::new(tpch::build_catalog(Scale(0.02)));
    let engines = [
        ("row", SessionOpts::default()),
        (
            "dop 4",
            SessionOpts {
                dop: Some(4),
                parallel_threshold: Some(1),
                morsel_rows: Some(4),
                ..SessionOpts::default()
            },
        ),
    ];
    let cases = [
        ("SELECT COUNT(*) FROM nation WHERE n_nationkey NOT BETWEEN 100 AND NULL", 25),
        ("SELECT COUNT(*) FROM nation WHERE NOT (n_nationkey >= 100 AND n_nationkey <= NULL)", 25),
        ("SELECT COUNT(*) FROM nation WHERE n_nationkey NOT BETWEEN NULL AND -1", 25),
        // Undecided: the known side holds, so the NULL bound leaves UNKNOWN.
        ("SELECT COUNT(*) FROM nation WHERE n_nationkey NOT BETWEEN 0 AND NULL", 0),
        ("SELECT COUNT(*) FROM nation WHERE n_nationkey BETWEEN 0 AND NULL", 0),
    ];
    for (name, opts) in &engines {
        for (sql, want) in cases {
            let (out, _) = engine.query_cached_opts(sql, &MySqlOptimizer, opts).unwrap();
            assert_eq!(out.rows, vec![vec![Value::Int(want)]], "{name} engine: {sql}");
        }
    }
}

#[test]
fn correlated_not_in_reads_an_unknown_correlation_as_no_row() {
    // `l`: k = 1..=6. `r`: (1, 1, 'C'), (2, NULL, NULL), (3, 3, 'B'); only
    // `r.v` and `r.s` are nullable. A correlation conjunct that is UNKNOWN
    // for a subquery row keeps that row out of the subquery — it does not
    // make `x NOT IN (...)` UNKNOWN.
    let mut cat = Catalog::new();
    let l = cat.create_table("l", Schema::new(vec![Column::new("k", DataType::Int)])).unwrap();
    cat.insert(l, (1..=6i64).map(|k| vec![Value::Int(k)])).unwrap();
    let r = cat
        .create_table(
            "r",
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::nullable("v", DataType::Int),
                Column::nullable("s", DataType::Str),
            ]),
        )
        .unwrap();
    cat.insert(
        r,
        vec![
            vec![Value::Int(1), Value::Int(1), Value::str("C")],
            vec![Value::Int(2), Value::Null, Value::Null],
            vec![Value::Int(3), Value::Int(3), Value::str("B")],
        ],
    )
    .unwrap();
    let mut engine = Engine::new(cat);
    engine.analyze();
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 1);
    let cases = [
        // a.k = 2's v is NULL: no b row has `b.v = a.v`, so the set is empty.
        ("SELECT a.k FROM r a WHERE a.k NOT IN (SELECT b.k FROM r b WHERE b.v = a.v)", vec![2]),
        // Only k 1..=3 have a correlated row, and each is k's own value or NULL.
        ("SELECT l.k FROM l WHERE l.k NOT IN (SELECT r.v FROM r WHERE r.k = l.k)", vec![4, 5, 6]),
        (
            "SELECT l.k FROM l WHERE l.k NOT IN \
             (SELECT r.v FROM r WHERE r.s = 'Z' OR r.k = l.k)",
            vec![4, 5, 6],
        ),
        // `r.k` is declared NOT NULL but is NULL on the outer join's
        // NULL-extended side, and NULL NOT IN a non-empty set is UNKNOWN.
        (
            "SELECT l.k FROM l LEFT JOIN r ON r.k = l.k + 10 \
             WHERE r.k NOT IN (SELECT r2.k FROM r r2 WHERE r2.k = l.k)",
            vec![4, 5, 6],
        ),
    ];
    for (sql, want) in cases {
        let want: Vec<Vec<Value>> = want.into_iter().map(|k| vec![Value::Int(k)]).collect();
        let mut mysql = engine.query(sql).unwrap().rows;
        let mut detour = engine.query_with(sql, &orca).unwrap().rows;
        mysql.sort_by(|a, b| a[0].total_cmp(&b[0]));
        detour.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(mysql, want, "MySQL: {sql}");
        assert_eq!(detour, want, "Orca: {sql}");
    }
}

#[test]
fn index_ranges_with_two_bounds_on_one_side_keep_the_second_as_a_filter() {
    // `t(a)` and `s(a)` both hold a = 0..100; only `t` has an index on `a`,
    // so `s` answers by table scan. A range takes the first bound per side;
    // a conjunct offering a bound it does not get stays a filter.
    let mut cat = Catalog::new();
    for name in ["t", "s"] {
        let id =
            cat.create_table(name, Schema::new(vec![Column::new("a", DataType::Int)])).unwrap();
        cat.insert(id, (0..100i64).map(|a| vec![Value::Int(a)])).unwrap();
        if name == "t" {
            cat.create_index(id, "t_a", vec![0], false).unwrap();
        }
    }
    let mut engine = Engine::new(cat);
    engine.analyze();
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 1);
    let cases = [
        ("a >= 35 AND a BETWEEN 24 AND 54", 20),
        ("a < 5 AND a < 50", 5),
        ("a = 7 AND a = 8", 0),
        // Selective enough that the range [85, 90] stays the cheaper access.
        ("a >= 85 AND a BETWEEN 24 AND 90", 6),
    ];
    for (pred, want) in cases {
        let reference = engine.query(&format!("SELECT a FROM s WHERE {pred}")).unwrap().rows;
        assert_eq!(reference.len(), want, "table scan: {pred}");
        let sql = format!("SELECT a FROM t WHERE {pred}");
        for (name, opt) in [("MySQL", &MySqlOptimizer as &dyn CostBasedOptimizer), ("Orca", &orca)]
        {
            let got = engine.query_with(&sql, opt).unwrap().rows;
            assert_eq!(canon(got), canon(reference.clone()), "{name}: {pred}");
        }
    }
}

#[test]
fn router_statistics_reflect_the_threshold() {
    let engine = Engine::new(tpch::build_catalog(Scale(0.02)));
    // Threshold 3 (the TPC-H default): single-table Q1 and two-table Q19
    // stay on MySQL, multi-table queries route.
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 3);
    let queries = tpch::queries();
    for q in &queries {
        engine.plan(&q.sql, &orca).unwrap();
    }
    let stats = orca.stats();
    assert!(stats.below_threshold >= 2, "Q1/Q6/Q19-class queries skip the detour: {stats:?}");
    assert!(stats.routed >= 15, "most TPC-H queries route: {stats:?}");
    assert_eq!(stats.fallbacks, 0, "no fallback on the standard config: {stats:?}");
    // Threshold 1 (the Table 1 configuration) routes everything.
    let orca1 = OrcaOptimizer::new(OrcaConfig::default(), 1);
    for q in &queries {
        engine.plan(&q.sql, &orca1).unwrap();
    }
    assert_eq!(orca1.stats().below_threshold, 0);
}

#[test]
fn gbagg_below_join_falls_back_everywhere_it_matters() {
    // §4.2.1/§7 item 5: enabling the rule MySQL cannot execute makes every
    // aggregating multi-join query fall back — transparently.
    let engine = Engine::new(tpch::build_catalog(Scale(0.02)));
    let cfg = OrcaConfig { enable_gbagg_below_join: true, ..OrcaConfig::default() };
    let orca = OrcaOptimizer::new(cfg, 1);
    let q3 = &tpch::queries()[2];
    let out = engine.query_with(&q3.sql, &orca).expect("fallback still answers");
    let reference = engine.query(&q3.sql).expect("baseline");
    assert_eq!(canon(out.rows), canon(reference.rows));
    assert!(orca.stats().fallbacks >= 1);
}

#[test]
fn explain_banners_distinguish_the_paths() {
    let engine = Engine::new(tpch::build_catalog(Scale(0.02)));
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 1);
    let q3 = &tpch::queries()[2];
    let mysql_text = engine.explain(&q3.sql, &MySqlOptimizer).unwrap();
    let orca_text = engine.explain(&q3.sql, &orca).unwrap();
    assert!(mysql_text.starts_with("EXPLAIN\n"));
    assert!(orca_text.starts_with("EXPLAIN (ORCA)\n"), "Listing 7's first line");
}

#[test]
fn search_stats_scale_with_strategy() {
    // Table 1's driver: EXHAUSTIVE2 explores at least as many splits as
    // EXHAUSTIVE, which explores at least as many as GREEDY.
    let engine = Engine::new(tpcds::build_catalog(Scale(0.02)));
    let q72 = tpcds::query(72);
    let mut splits = Vec::new();
    for strategy in
        [JoinOrderStrategy::Greedy, JoinOrderStrategy::Exhaustive, JoinOrderStrategy::Exhaustive2]
    {
        let orca = OrcaOptimizer::new(OrcaConfig::with_strategy(strategy), 1);
        engine.plan(&q72.sql, &orca).unwrap();
        splits.push(orca.last_search_stats().splits_explored);
    }
    assert!(splits[0] <= splits[1], "greedy <= exhaustive: {splits:?}");
    assert!(splits[1] < splits[2], "exhaustive < exhaustive2 on an 11-way join: {splits:?}");
}
