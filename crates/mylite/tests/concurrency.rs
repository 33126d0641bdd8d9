//! The multi-session hammer: many threads mixing cached serves,
//! instrumented serves, session-knob variants, and DDL invalidation over
//! one shared engine. The assertions are the concurrency contract:
//!
//! * no deadlock (the test finishing *is* the assertion — lock order is
//!   admission → catalog read → cache shard → entry),
//! * no poisoned lock ever surfaces (all guards are poison-recovering),
//! * every SELECT's result is byte-identical to a serial replay — ANALYZE
//!   only republishes statistics, so results are invariant under any
//!   interleaving of serves and DDL.

use mylite::{Engine, MySqlOptimizer, SessionOpts};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use taurus_catalog::Catalog;
use taurus_common::{Column, DataType, Schema, Value};

fn build_engine(rows: i64) -> Engine {
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
        (0..rows)
            .map(|i| {
                vec![
                    Value::Int(i),
                    if i % 11 == 0 { Value::Null } else { Value::Int(i % 7) },
                    Value::Int(i * 13 % 1000),
                ]
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    cat.create_index(t, "emp_pk", vec![0], true).unwrap();
    let mut e = Engine::new(cat);
    e.analyze();
    e
}

const TEMPLATES: [&str; 5] = [
    "SELECT id, salary FROM emp WHERE id = 37",
    "SELECT COUNT(*), SUM(salary) FROM emp WHERE dept = 3",
    "SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept",
    "SELECT id FROM emp WHERE salary > 970 ORDER BY id",
    "SELECT COUNT(*) FROM emp WHERE dept IS NULL",
];

#[test]
fn hammer_concurrent_serves_analyze_and_ddl() {
    let e = Arc::new(build_engine(3000));
    // Serial replay first: the reference every threaded serve must match.
    let reference: Vec<_> =
        TEMPLATES.iter().map(|sql| e.query_cached(sql, &MySqlOptimizer).unwrap().rows).collect();
    let serves = AtomicUsize::new(0);
    let ddls = AtomicUsize::new(0);
    std::thread::scope(|s| {
        // Six serve threads: plain cached serves, instrumented serves, and
        // a session-knob variant (dop=2) that caches under its own key.
        for t in 0..6 {
            let e = e.clone();
            let reference = &reference;
            let serves = &serves;
            s.spawn(move || {
                let session = if t % 3 == 2 {
                    SessionOpts { dop: Some(2), ..SessionOpts::default() }
                } else {
                    SessionOpts::default()
                };
                for i in 0..40 {
                    let which = (t + i) % TEMPLATES.len();
                    let sql = TEMPLATES[which];
                    let rows = if t % 3 == 1 {
                        let (analyzed, _) =
                            e.analyze_cached_opts(sql, &MySqlOptimizer, &session).unwrap();
                        analyzed.output.rows
                    } else {
                        e.query_cached_opts(sql, &MySqlOptimizer, &session).unwrap().0.rows
                    };
                    assert_eq!(rows, reference[which], "template {which} diverged on thread {t}");
                    serves.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Two DDL threads re-ANALYZE in a loop: catalog write lock, version
        // bumps, cache invalidations — racing every serve above.
        for _ in 0..2 {
            let e = e.clone();
            let ddls = &ddls;
            s.spawn(move || {
                for _ in 0..10 {
                    e.analyze_shared();
                    ddls.fetch_add(1, Ordering::Relaxed);
                    std::thread::yield_now();
                }
            });
        }
    });
    assert_eq!(serves.load(Ordering::Relaxed), 6 * 40, "every serve completed");
    assert_eq!(ddls.load(Ordering::Relaxed), 20, "every ANALYZE completed");
    // The storm is over: the engine still serves, the registry drained,
    // and the cache answers with hits again.
    assert!(e.in_flight_ids().is_empty());
    let s1 = e.plan_cache_stats();
    for (which, sql) in TEMPLATES.iter().enumerate() {
        assert_eq!(e.query_cached(sql, &MySqlOptimizer).unwrap().rows, reference[which]);
    }
    for sql in &TEMPLATES {
        assert_eq!(e.query_cached(sql, &MySqlOptimizer).unwrap().rows.len(), {
            let i = TEMPLATES.iter().position(|t| t == sql).unwrap();
            reference[i].len()
        });
    }
    let s2 = e.plan_cache_stats();
    assert!(s2.hits >= s1.hits + TEMPLATES.len() as u64, "post-storm serves hit: {s1:?} {s2:?}");
    // Invalidation accounting actually fired under the races.
    assert!(s2.invalidations > 0, "DDL invalidated at least one entry: {s2:?}");
}
