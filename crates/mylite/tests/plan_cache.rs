//! Plan-cache regression tests for typed bind parameters: literal type
//! classes are part of a statement's fingerprint, so differently-typed
//! literals must compile (and cache) separately — never share a plan whose
//! peeked constants have another type — and each shape must keep answering
//! correctly after the other has been cached.
//!
//! Plus the eviction/concurrency audit from the feedback loop: a
//! re-optimizing eviction racing in-flight serves of the same statement
//! must neither corrupt a serve nor let a straggling static compile
//! clobber (and thereby pin) the re-optimized entry.

use mylite::feedback::worst_q;
use mylite::{Engine, MySqlOptimizer};
use taurus_catalog::Catalog;
use taurus_common::{Column, DataType, Schema, Value};

fn engine() -> Engine {
    let mut cat = Catalog::new();
    let t = cat
        .create_table(
            "m",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::nullable("score", DataType::Double),
                Column::nullable("tag", DataType::Str),
            ]),
        )
        .unwrap();
    cat.insert(
        t,
        vec![
            vec![Value::Int(1), Value::Double(1.5), Value::str("a")],
            vec![Value::Int(2), Value::Double(2.0), Value::str("b")],
            vec![Value::Int(3), Value::Null, Value::Null],
            vec![Value::Int(4), Value::Double(4.5), Value::str("a")],
        ],
    )
    .unwrap();
    cat.create_index(t, "m_pk", vec![0], true).unwrap();
    let mut e = Engine::new(cat);
    e.analyze();
    e
}

fn ids(e: &Engine, sql: &str) -> Vec<i64> {
    e.query_cached(sql, &MySqlOptimizer)
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect()
}

#[test]
fn int_and_double_literals_compile_separately() {
    let e = engine();
    // Same text shape up to the literal, different literal type class:
    // these must be two cache entries, not one rebound entry.
    assert_eq!(ids(&e, "SELECT id FROM m WHERE score > 2 ORDER BY id"), vec![4]);
    assert_eq!(ids(&e, "SELECT id FROM m WHERE score > 1.9 ORDER BY id"), vec![2, 4]);
    assert_eq!(e.plan_cache_len(), 2, "Int and Double shapes are distinct");
    let s = e.plan_cache_stats();
    assert_eq!((s.hits, s.misses), (0, 2));
    // Re-serving each shape hits its own entry and still rebinds correctly.
    assert_eq!(ids(&e, "SELECT id FROM m WHERE score > 4 ORDER BY id"), vec![4]);
    assert_eq!(ids(&e, "SELECT id FROM m WHERE score > 0.5 ORDER BY id"), vec![1, 2, 4]);
    assert_eq!(e.plan_cache_len(), 2);
    assert_eq!(e.plan_cache_stats().hits, 2);
}

#[test]
fn string_literal_shape_is_distinct_from_numeric() {
    let e = engine();
    assert_eq!(ids(&e, "SELECT id FROM m WHERE tag = 'a' ORDER BY id"), vec![1, 4]);
    // An Int literal in the same position: different fingerprint, fresh
    // compile; the comparison is UNKNOWN for every row (Str vs Int).
    assert_eq!(ids(&e, "SELECT id FROM m WHERE tag = 7 ORDER BY id"), Vec::<i64>::new());
    assert_eq!(e.plan_cache_len(), 2, "Str and Int shapes are distinct");
    // And the string shape still serves correct answers afterwards.
    assert_eq!(ids(&e, "SELECT id FROM m WHERE tag = 'b' ORDER BY id"), vec![2]);
    assert_eq!(e.plan_cache_stats().hits, 1);
}

#[test]
fn rebound_results_match_cold_compiles() {
    // The fresh-vs-rebound oracle, distilled: for every literal variant,
    // the cache-served result must equal a from-scratch compile.
    let e = engine();
    let variants = [
        "SELECT id, score FROM m WHERE score > 1.0 ORDER BY id",
        "SELECT id, score FROM m WHERE score > 1.6 ORDER BY id",
        "SELECT id, score FROM m WHERE score > 4.4 ORDER BY id",
    ];
    for sql in variants {
        let warm = e.query_cached(sql, &MySqlOptimizer).unwrap();
        let cold = e.query(sql).unwrap();
        assert_eq!(warm.rows, cold.rows, "rebound plan diverged for: {sql}");
    }
    let s = e.plan_cache_stats();
    assert_eq!((s.hits, s.misses), (2, 1), "one shape, two rebound serves");
}

// ---------------------------------------------- reopt eviction vs serves

/// Four perfectly-correlated columns: the static estimate for the
/// four-way conjunction is low by 7³, so the first observed execution
/// pushes the statement far over the default re-optimization threshold.
fn correlated_engine() -> Engine {
    let mut cat = Catalog::new();
    let t = cat
        .create_table(
            "f",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
                Column::new("c", DataType::Int),
                Column::new("d", DataType::Int),
            ]),
        )
        .unwrap();
    cat.insert(
        t,
        (0..3430i64).map(|i| {
            let v = Value::Int(i % 7);
            vec![v.clone(), v.clone(), v.clone(), v]
        }),
    )
    .unwrap();
    let mut e = Engine::new(cat);
    e.analyze();
    e
}

/// The audited race: the miss path compiles *after* releasing the cache
/// lock, so a static compile that started before a concurrent serve
/// re-optimized the statement can try to insert afterwards. If it were
/// allowed to overwrite, the misestimated plan would come back — and stay,
/// because the feedback store's applied-observations snapshot suppresses a
/// second re-optimization on the same observations. Hammer both serve
/// paths from several threads and then require that the surviving cache
/// entry is the re-optimized one.
#[test]
fn reopt_eviction_racing_concurrent_serves_keeps_the_reoptimized_plan() {
    let e = correlated_engine();
    let sql = "SELECT COUNT(*) FROM f WHERE a = 3 AND b = 3 AND c = 3 AND d = 3";
    let want = vec![vec![Value::Int(490)]];

    std::thread::scope(|s| {
        for t in 0..4usize {
            let (e, want) = (&e, &want);
            s.spawn(move || {
                for i in 0..12usize {
                    // Alternate the instrumented path (folds observations,
                    // can re-optimize) with the plain cached path (static
                    // compiles on a miss — the clobber candidate).
                    if (t + i) % 2 == 0 {
                        let out = e.query_cached(sql, &MySqlOptimizer).unwrap();
                        assert_eq!(&out.rows, want, "cached serve corrupted mid-race");
                    } else {
                        let (a, _) = e.analyze_cached(sql, &MySqlOptimizer).unwrap();
                        assert_eq!(&a.output.rows, want, "instrumented serve corrupted mid-race");
                    }
                }
            });
        }
    });

    assert!(
        e.plan_cache_stats().reoptimizations >= 1,
        "the hammer never crossed the re-optimization threshold"
    );
    // The dust settles onto a converged hit within a serve or two (a last
    // straggler fold may legitimately trigger one more re-optimization).
    let mut settled = None;
    for _ in 0..3 {
        let (a, o) = e.analyze_cached(sql, &MySqlOptimizer).unwrap();
        assert_eq!(&a.output.rows, &want);
        if o.label() == "hit" {
            settled = Some(a);
            break;
        }
    }
    let a = settled.expect("cache never settled to a hit after the hammer");
    let q = worst_q(&a.nodes);
    assert!(q <= 2.0, "a static compile clobbered the re-optimized entry (worst q {q:.1})");
    assert_eq!(e.plan_cache_len(), 1);
}
