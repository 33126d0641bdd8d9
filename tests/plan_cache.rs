//! Tier-1 integration: the compile-once, serve-many plan cache end to end.
//!
//! Exercises the statement lifecycle on real TPC-H data — token-digest
//! fingerprint → cache lookup → catalog-version validation → in-place
//! rebind → execution — and pins the bind-order contract between the
//! token digest and AST parameterization over every workload query.
//! `fingerprints_match_golden` holds every template's digest (and a list of
//! lexical edge cases) against `tests/golden/fingerprints.tsv`: the
//! fingerprint picks the plan-cache shard, so a front-end change must keep
//! it, and the binds, exactly. `BLESS=1` rewrites the file.

mod golden;

use std::fmt::Write;

use taurus_orca::bridge::OrcaOptimizer;
use taurus_orca::common::Value;
use taurus_orca::mylite::{CacheOutcome, Engine, MySqlOptimizer, SessionOpts};
use taurus_orca::orcalite::OrcaConfig;
use taurus_orca::prelude::Error;
use taurus_orca::sql::fingerprint::{parameterize, token_digest};
use taurus_orca::sql::{parse, Statement};
use taurus_orca::workloads::{tpcds, tpch, Scale};

/// Canonicalize result rows for comparison across plan shapes.
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

#[test]
fn repeated_statements_hit_and_rebind_on_real_data() {
    let engine = Engine::new(tpch::build_catalog(Scale(0.05)));
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 3);
    let template = |seg: &str| {
        format!(
            "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
             FROM customer, orders, lineitem \
             WHERE c_mktsegment = '{seg}' AND c_custkey = o_custkey \
               AND l_orderkey = o_orderkey \
             GROUP BY l_orderkey ORDER BY revenue DESC LIMIT 5"
        )
    };
    // First instantiation compiles; the shape enters the cache.
    let (_, first) = engine.plan_cached(&template("BUILDING"), &orca).unwrap();
    assert_eq!(first, CacheOutcome::Miss);
    // Later instantiations are served from the cached plan with the new
    // literal re-bound in place — and must return exactly what a fresh
    // compile of the same text returns.
    for seg in ["AUTOMOBILE", "MACHINERY", "HOUSEHOLD"] {
        let cached = engine.query_cached(&template(seg), &orca).unwrap();
        let fresh = engine.query_with(&template(seg), &orca).unwrap();
        assert_eq!(
            canon(cached.rows),
            canon(fresh.rows),
            "cached plan re-bound to '{seg}' diverged from a fresh compile"
        );
    }
    let stats = engine.plan_cache_stats();
    assert_eq!((stats.hits, stats.misses), (3, 1));
}

#[test]
fn dop_change_recompiles_instead_of_serving_a_parallel_plan() {
    // A cached plan embeds its exchange placement: a plan compiled at
    // dop=4 carries Exchange operators a serial session must never
    // execute. Changing the knob has to force a recompile, end to end.
    let engine = Engine::new(tpch::build_catalog(Scale(0.05)));
    engine.set_parallel_threshold(8);
    engine.set_dop(4);
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 1);
    let sql = "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag";

    let (_, first) = engine.plan_cached(sql, &orca).unwrap();
    assert_eq!(first, CacheOutcome::Miss);
    let parallel_text = engine.explain_cached_opts(sql, &orca, &SessionOpts::default()).unwrap();
    assert!(parallel_text.contains("[plan cache: hit]"), "{parallel_text}");
    assert!(parallel_text.contains("Exchange ("), "dop=4 plan is parallel: {parallel_text}");
    let parallel_rows = canon(engine.query_cached(sql, &orca).unwrap().rows);

    // The knob change must drop the parallel plan; the next serve
    // recompiles under the new setting rather than serving dop=4 shapes.
    engine.set_dop(1);
    let (_, after) = engine.plan_cached(sql, &orca).unwrap();
    assert_eq!(after, CacheOutcome::Miss, "dop change dropped the parallel plan");
    let serial_text = engine.explain_cached_opts(sql, &orca, &SessionOpts::default()).unwrap();
    assert!(serial_text.contains("[plan cache: hit]"), "{serial_text}");
    assert!(!serial_text.contains("Exchange ("), "recompiled serial: {serial_text}");
    assert_eq!(canon(engine.query_cached(sql, &orca).unwrap().rows), parallel_rows);
}

#[test]
fn ddl_invalidates_across_the_engine() {
    let mut engine = Engine::new(tpch::build_catalog(Scale(0.02)));
    let sql = "SELECT o_orderdate FROM orders WHERE o_orderkey = 42";
    let (_, a) = engine.plan_cached(sql, &MySqlOptimizer).unwrap();
    assert_eq!(a, CacheOutcome::Miss);
    let (_, b) = engine.plan_cached(sql, &MySqlOptimizer).unwrap();
    assert_eq!(b, CacheOutcome::Hit);
    // ANALYZE publishes new statistics, bumping the catalog version: the
    // cached plan was costed against stale stats and must not survive.
    engine.analyze();
    let (_, c) = engine.plan_cached(sql, &MySqlOptimizer).unwrap();
    assert_eq!(c, CacheOutcome::Invalidated);
    let (_, d) = engine.plan_cached(sql, &MySqlOptimizer).unwrap();
    assert_eq!(d, CacheOutcome::Hit);
}

#[test]
fn deadline_on_a_cached_serve_keeps_the_entry_intact() {
    // A wall-clock budget must govern cached serves exactly like fresh
    // compiles — and a serve that dies on its deadline must leave the
    // cached plan ready for the next caller, not evicted or corrupted.
    let engine = Engine::new(tpch::build_catalog(Scale(0.05)));
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 3);
    // Correlated subquery: the inner block reopens per outer row, so the
    // governor observes the clock throughout the scan — a 1ms budget trips
    // deterministically on a multi-millisecond statement.
    let sql = "SELECT COUNT(*) AS n FROM lineitem \
               WHERE l_orderkey < 6000 AND l_quantity < \
               (SELECT AVG(l_quantity) FROM lineitem l2 \
                WHERE l2.l_partkey = lineitem.l_partkey)";
    let reference = canon(engine.query_cached(sql, &orca).expect("warming compile").rows);

    engine.set_deadline(Some(std::time::Duration::from_millis(1)));
    let err = engine.query_cached(sql, &orca).expect_err("1ms must not suffice");
    assert!(
        matches!(err, taurus_orca::common::Error::DeadlineExceeded { budget_ms: 1 }),
        "typed deadline error on the cached path, got: {err}"
    );

    // The entry survived: the next serve is a hit and answers identically.
    engine.set_deadline(None);
    assert_eq!(canon(engine.query_cached(sql, &orca).expect("after deadline").rows), reference);
    let stats = engine.plan_cache_stats();
    assert_eq!(stats.misses, 1, "the deadline death must not evict the entry: {stats:?}");
    assert_eq!(stats.hits, 2, "both later serves were cache hits: {stats:?}");
}

#[test]
fn memory_budget_on_a_cached_serve_keeps_the_entry_intact() {
    let engine = Engine::new(tpch::build_catalog(Scale(0.05)));
    let orca = OrcaOptimizer::new(OrcaConfig::default(), 3);
    // The sort buffer is charged against the session budget, so a one-byte
    // budget fails the serve even after the engine's serial retry rung.
    let sql = "SELECT l_orderkey, l_extendedprice FROM lineitem \
               WHERE l_quantity < 10 ORDER BY l_extendedprice DESC";
    let reference = canon(engine.query_cached(sql, &orca).expect("warming compile").rows);

    engine.set_memory_budget(Some(1));
    let err = engine.query_cached(sql, &orca).expect_err("one byte must not suffice");
    assert!(
        matches!(err, taurus_orca::common::Error::MemoryExceeded { budget: 1, .. }),
        "typed memory error on the cached path, got: {err}"
    );
    let peak = engine.last_peak_bytes();
    assert!(peak <= 1, "tracked peak stayed within the budget: {peak}");

    // Over-budget serves must not evict or corrupt the cached plan.
    engine.set_memory_budget(None);
    assert_eq!(canon(engine.query_cached(sql, &orca).expect("after budget").rows), reference);
    let stats = engine.plan_cache_stats();
    assert_eq!(stats.misses, 1, "the budget death must not evict the entry: {stats:?}");
    assert_eq!(stats.hits, 2, "{stats:?}");
}

#[test]
fn digest_binds_agree_with_ast_parameterization_across_suites() {
    // The serve path rebinds cached plans using token-order binds while
    // parameter numbering happens in AST order; they must agree for every
    // statement shape we ship. (The engine also verifies this per shape at
    // insert time and declines to cache on divergence — this test makes
    // sure that safety valve never actually fires for the workloads.)
    for q in tpch::queries().into_iter().chain(tpcds::queries()) {
        let d = token_digest(&q.sql).unwrap_or_else(|| panic!("{} does not lex", q.name));
        let stmt = match parse(&q.sql).unwrap() {
            Statement::Select(s) => s,
            _ => continue,
        };
        let p = parameterize(&stmt);
        assert_eq!(
            d.binds, p.binds,
            "{}: token-order binds diverge from AST parameter order",
            q.name
        );
    }
}

#[test]
fn a_multibyte_character_outside_a_literal_is_a_typed_error() {
    // A multi-byte character where an operator or operand may stand: the
    // digest declines, the parser names the whole character at its offset,
    // and the engine answers the next statement.
    let engine = Engine::new(tpch::build_catalog(Scale(0.01)));
    for (sql, ch) in [("SELECT €", '€'), ("SELECT a FROM t WHERE a =€", '€'), ("SELECT é", 'é')]
    {
        assert!(token_digest(sql).is_none(), "{sql} digested");
        let want = (format!("unexpected character '{ch}'"), sql.find(ch).unwrap());
        match parse(sql) {
            Err(Error::Parse { message, offset }) => assert_eq!((message, offset), want, "{sql}"),
            other => panic!("{sql}: expected a parse error, got {other:?}"),
        }
        match engine.query_cached(sql, &MySqlOptimizer) {
            Err(Error::Parse { message, offset }) => assert_eq!((message, offset), want, "{sql}"),
            other => panic!("{sql}: expected a parse error, got {other:?}"),
        }
        let after = engine.query_cached("SELECT COUNT(*) FROM region", &MySqlOptimizer).unwrap();
        assert_eq!(after.rows, vec![vec![Value::Int(5)]]);
    }
}

/// Statements whose digest turns on a lexical rule the templates barely
/// exercise: structural literals, `DATE` binds, escapes, operator and
/// keyword spellings, comments and the number forms.
const EDGE_STATEMENTS: &[(&str, &str)] = &[
    ("limit", "SELECT a FROM t ORDER BY a LIMIT 10"),
    ("interval_str", "SELECT d + INTERVAL '3' MONTH FROM t"),
    ("interval_int", "SELECT d + INTERVAL 3 DAY FROM t"),
    ("interval_escaped", "SELECT d + INTERVAL '1''2' DAY FROM t"),
    ("date", "SELECT a FROM t WHERE d >= DATE '1995-03-15'"),
    ("escaped_quote", "SELECT a FROM t WHERE s = 'it''s'"),
    ("utf8_string", "SELECT a FROM t WHERE s = 'café €'"),
    ("bang_eq", "SELECT a FROM t WHERE a != 1 AND b <= 2 AND c >= 3"),
    ("lt_gt", "SELECT a FROM t WHERE a <> 1 AND b < 2 AND c > 3"),
    ("backtick", "SELECT `select`, `a b` FROM t"),
    ("comment", "SELECT a -- the column\nFROM t WHERE a = 2"),
    ("lower_case", "select a from t where a = 3 and s like 'x%' limit 4"),
    ("leading_dot", "SELECT a FROM t WHERE b < .5"),
    ("exponent", "SELECT a FROM t WHERE b > 1e3 AND c < 2.5E-2"),
    ("past_i64", "SELECT a FROM t WHERE b = 99999999999999999999"),
];

fn fingerprint_record(name: &str, sql: &str) -> String {
    let d = token_digest(sql).unwrap_or_else(|| panic!("{name} does not lex"));
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{:?}", d.binds).bytes() {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{name}\t{:016x}\t{}\t{hash:016x}", d.fingerprint, d.binds.len())
}

#[test]
fn fingerprints_match_golden() {
    let tpch = tpch::queries().into_iter().map(|q| (format!("tpch.{}", q.name), q.sql));
    let tpcds = tpcds::queries().into_iter().map(|q| (format!("tpcds.{}", q.name), q.sql));
    let edges = EDGE_STATEMENTS.iter().map(|(n, s)| (format!("edge.{n}"), s.to_string()));
    let mut got = String::from("# statement\tfingerprint\tbinds\tbinds_hash\n");
    for (name, sql) in tpch.chain(tpcds).chain(edges) {
        let _ = writeln!(got, "{}", fingerprint_record(&name, &sql));
    }
    golden::check(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fingerprints.tsv"), &got);
}
