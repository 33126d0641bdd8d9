//! End-to-end tests: real sockets, real sessions, shared engine.

use mylite::{BoundStatement, CostBasedOptimizer, Engine, MySqlOptimizer, SessionOpts, Skeleton};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use taurus_catalog::Catalog;
use taurus_common::error::{Error, Result};
use taurus_common::{Column, DataType, Schema, Value};
use taurus_server::protocol::{
    decode_reply, encode_request, read_frame, write_frame, Reply, Request,
};
use taurus_server::{Client, ServeOutcome, Server, ServerHandle};

/// emp(id, dept, salary) with `rows` rows; dept is NULL every 5th row.
fn build_engine(rows: i64) -> Arc<Engine> {
    let mut cat = Catalog::new();
    let t = cat
        .create_table(
            "emp",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::nullable("dept", DataType::Int),
                Column::new("salary", DataType::Int),
                Column::new("name", DataType::Str),
            ]),
        )
        .unwrap();
    cat.insert(
        t,
        (0..rows)
            .map(|i| {
                vec![
                    Value::Int(i),
                    if i % 5 == 0 { Value::Null } else { Value::Int(i % 7) },
                    Value::Int(i * 13 % 1000),
                    Value::str(format!("emp-{i}")),
                ]
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    cat.create_index(t, "emp_pk", vec![0], true).unwrap();
    let mut e = Engine::new(cat);
    e.analyze();
    Arc::new(e)
}

fn start(rows: i64) -> (Arc<Engine>, ServerHandle) {
    let engine = build_engine(rows);
    let handle = Server::start(engine.clone(), Arc::new(MySqlOptimizer)).unwrap();
    (engine, handle)
}

#[test]
fn query_round_trips_values_and_cache_outcomes() {
    let (engine, handle) = start(100);
    let mut c = Client::connect(handle.addr()).unwrap();
    let sql = "SELECT id, dept, name FROM emp WHERE salary > 900 ORDER BY id";
    let first = c.query(sql).unwrap();
    assert_eq!(first.outcome, ServeOutcome::Miss);
    assert_eq!(first.columns, vec!["id", "dept", "name"]);
    // The wire results are byte-identical to an in-process serve.
    let reference = engine.query_cached(sql, &MySqlOptimizer).unwrap();
    assert_eq!(first.rows, reference.rows);
    assert!(first.rows.iter().any(|r| r[1].is_null()), "NULLs survive the wire");
    assert!(first.rows.iter().all(|r| matches!(r[2], Value::Str(_))), "strings survive the wire");
    let second = c.query(sql).unwrap();
    assert_eq!(second.outcome, ServeOutcome::Hit, "second serve hits the shared cache");
    assert_eq!(second.rows, reference.rows);
    c.quit();
    handle.stop();
}

#[test]
fn insert_over_the_wire_is_visible_to_other_sessions() {
    let (_engine, handle) = start(10);
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    let ins = a.query("INSERT INTO emp VALUES (1000, 3, 555, 'new-hire')").unwrap();
    assert_eq!(ins.outcome, ServeOutcome::Uncached);
    assert_eq!(ins.rows, vec![vec![Value::Int(1)]]);
    let seen = b.query("SELECT name FROM emp WHERE id = 1000").unwrap();
    assert_eq!(seen.rows, vec![vec![Value::str("new-hire")]]);
    handle.stop();
}

#[test]
fn session_set_state_is_isolated_between_connections() {
    let (_engine, handle) = start(2000);
    let slow = "SELECT COUNT(*) FROM emp a WHERE salary > \
                (SELECT AVG(salary) FROM emp b WHERE b.dept = a.dept)";
    let mut strict = Client::connect(handle.addr()).unwrap();
    let mut relaxed = Client::connect(handle.addr()).unwrap();
    strict.set(&SessionOpts { deadline_ms: Some(1), ..SessionOpts::default() }).unwrap();
    // The strict session's deadline travels with *its* statements only.
    match strict.query(slow) {
        Err(Error::DeadlineExceeded { budget_ms }) => assert_eq!(budget_ms, 1),
        other => panic!("expected a typed DeadlineExceeded, got {other:?}"),
    }
    let ok = relaxed.query(slow).unwrap();
    assert_eq!(ok.rows.len(), 1, "the other session is untouched");
    // Per-statement options override the session state once more.
    let ok = strict
        .query_opts(slow, &SessionOpts { deadline_ms: Some(0), ..SessionOpts::default() })
        .unwrap();
    assert_eq!(ok.rows.len(), 1, "statement-level Some(0) lifts the session deadline");
    handle.stop();
}

#[test]
fn analyze_over_the_wire_invalidates_cached_plans() {
    let (_engine, handle) = start(100);
    let mut c = Client::connect(handle.addr()).unwrap();
    let sql = "SELECT COUNT(*) FROM emp WHERE salary < 500";
    assert_eq!(c.query(sql).unwrap().outcome, ServeOutcome::Miss);
    assert_eq!(c.query(sql).unwrap().outcome, ServeOutcome::Hit);
    c.analyze().unwrap();
    assert_eq!(
        c.query(sql).unwrap().outcome,
        ServeOutcome::Invalidated,
        "version bump reaches the cached entry"
    );
    assert_eq!(c.query(sql).unwrap().outcome, ServeOutcome::Hit);
    handle.stop();
}

#[test]
fn explain_reports_the_plan_cache_state() {
    let (_engine, handle) = start(100);
    let mut c = Client::connect(handle.addr()).unwrap();
    let sql = "SELECT id FROM emp WHERE salary > 100";
    let text = c.explain(sql).unwrap();
    assert!(text.starts_with("EXPLAIN [plan cache: miss]"), "{text}");
    let text = c.explain(sql).unwrap();
    assert!(text.starts_with("EXPLAIN [plan cache: hit]"), "{text}");
    handle.stop();
}

#[test]
fn typed_errors_round_trip() {
    let (_engine, handle) = start(10);
    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(matches!(c.query("SELEC id FROM emp"), Err(Error::Parse { .. })));
    assert!(matches!(
        c.query("SELECT nope FROM emp"),
        Err(Error::Resolution(_) | Error::Semantic(_))
    ));
    // The session survives its errors.
    assert_eq!(c.query("SELECT COUNT(*) FROM emp").unwrap().rows, vec![vec![Value::Int(10)]]);
    handle.stop();
}

#[test]
fn malformed_frame_gets_an_error_but_keeps_the_session() {
    let (_engine, handle) = start(10);
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    write_frame(&mut raw, &[0xEE, 0xFF]).unwrap();
    let reply = read_frame(&mut raw).unwrap().expect("server answers garbage with an error");
    assert!(matches!(decode_reply(&reply).unwrap(), Reply::Err(_)));
    // A well-framed statement with a multi-byte character where an operand
    // belongs is a typed parse error too, answered in time, not a dead
    // session the client would wait on forever.
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let sql = "SELECT id FROM emp WHERE id =€";
    let req = Request::Query { opts: SessionOpts::default(), sql: sql.into() };
    write_frame(&mut raw, &encode_request(&req)).unwrap();
    let reply = read_frame(&mut raw).expect("a reply within the read timeout").unwrap();
    match decode_reply(&reply).unwrap() {
        Reply::Err(Error::Parse { offset, .. }) => assert_eq!(offset, sql.find('€').unwrap()),
        other => panic!("expected a parse error, got {other:?}"),
    }
    // Same socket, now a well-formed request: the framing stayed in sync.
    let req =
        Request::Query { opts: SessionOpts::default(), sql: "SELECT COUNT(*) FROM emp".into() };
    write_frame(&mut raw, &encode_request(&req)).unwrap();
    let reply = read_frame(&mut raw).unwrap().unwrap();
    match decode_reply(&reply).unwrap() {
        Reply::Rows { rows, .. } => assert_eq!(rows, vec![vec![Value::Int(10)]]),
        other => panic!("expected rows, got {other:?}"),
    }
    handle.stop();
}

#[test]
fn retired_and_unknown_option_keys_are_typed_protocol_errors_and_the_session_survives() {
    let (_engine, handle) = start(10);
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    let good =
        Request::Query { opts: SessionOpts::default(), sql: "SELECT COUNT(*) FROM emp".into() };
    // Key 7 selected the deleted second executor: an old client that still
    // sends it is told so, exactly like a key one past the table's last.
    let keys: Vec<u8> = mylite::knobs::table().iter().map(|r| r.wire_key).collect();
    assert!(!keys.contains(&7), "key 7 is never reused");
    let last_key = *keys.iter().max().unwrap();
    for bad_key in [7, last_key + 1] {
        // A well-formed query frame, except for its one option.
        let mut frame = encode_request(&good);
        assert_eq!(frame[1], 0, "the option count byte");
        frame[1] = 1;
        frame.splice(2..2, std::iter::once(bad_key).chain(1u64.to_le_bytes()));
        write_frame(&mut raw, &frame).unwrap();
        let reply = read_frame(&mut raw).unwrap().expect("an answer, not a hangup");
        match decode_reply(&reply).unwrap() {
            Reply::Err(Error::Internal(m)) => {
                assert!(m.contains(&format!("unknown option key {bad_key}")), "{m}")
            }
            other => panic!("key {bad_key}: expected a protocol error, got {other:?}"),
        }
        // Same socket, same statement without the bad option: still served.
        write_frame(&mut raw, &encode_request(&good)).unwrap();
        let reply = read_frame(&mut raw).unwrap().unwrap();
        match decode_reply(&reply).unwrap() {
            Reply::Rows { rows, .. } => assert_eq!(rows, vec![vec![Value::Int(10)]]),
            other => panic!("key {bad_key}: expected rows, got {other:?}"),
        }
    }
    handle.stop();
}

#[test]
fn many_concurrent_clients_agree_with_the_single_session_reference() {
    let (engine, handle) = start(500);
    let templates = [
        "SELECT id, name FROM emp WHERE id = 42",
        "SELECT COUNT(*), SUM(salary) FROM emp WHERE dept = 3",
        "SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept",
        "SELECT id FROM emp WHERE salary > 950 ORDER BY id",
    ];
    // Reference: one in-process serve per template.
    let reference: Vec<_> = templates
        .iter()
        .map(|sql| engine.query_cached(sql, &MySqlOptimizer).unwrap().rows)
        .collect();
    std::thread::scope(|s| {
        for t in 0..4 {
            let handle = &handle;
            let reference = &reference;
            s.spawn(move || {
                let mut c = Client::connect(handle.addr()).unwrap();
                for i in 0..10 {
                    let which = (t + i) % templates.len();
                    let got = c.query(templates[which]).unwrap();
                    assert_eq!(got.rows, reference[which], "template {which} diverged");
                }
            });
        }
    });
    handle.stop();
}

/// The native optimizer, except that its first `optimize` panics.
struct PanicsOnce(AtomicBool);

impl CostBasedOptimizer for PanicsOnce {
    fn name(&self) -> &'static str {
        "panics-once"
    }

    fn optimize(&self, catalog: &Catalog, bound: &BoundStatement) -> Result<Skeleton> {
        if !self.0.swap(true, Ordering::SeqCst) {
            panic!("optimizer panic on the first statement");
        }
        MySqlOptimizer.optimize(catalog, bound)
    }
}

#[test]
fn a_panic_while_serving_is_a_typed_error_and_the_session_survives() {
    let handle =
        Server::start(build_engine(10), Arc::new(PanicsOnce(AtomicBool::new(false)))).unwrap();
    let addr = handle.addr();
    // The client runs on its own thread, so a session that never answers
    // fails this test by timeout instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        for _ in 0..2 {
            tx.send(c.query("SELECT COUNT(*) FROM emp").map(|r| r.rows)).unwrap();
        }
    });
    let reply = |which| rx.recv_timeout(Duration::from_secs(5)).expect(which);
    let first = reply("the panicking statement gets a reply");
    assert!(matches!(first, Err(Error::Internal(_))), "{first:?}");
    let second = reply("the same connection answers the next statement");
    assert_eq!(second.unwrap(), vec![vec![Value::Int(10)]]);
    client.join().unwrap();
    handle.stop();
}

#[cfg(target_os = "linux")]
#[test]
fn closed_sessions_release_their_sockets() {
    let (_engine, handle) = start(10);
    let open_fds = || std::fs::read_dir("/proc/self/fd").unwrap().count();
    let idle = open_fds();
    for _ in 0..200 {
        let mut c = Client::connect(handle.addr()).unwrap();
        assert_eq!(c.query("SELECT COUNT(*) FROM emp").unwrap().rows, vec![vec![Value::Int(10)]]);
        c.quit();
    }
    // Session threads close their sockets as they see the quit; other tests
    // in this process open and close theirs meanwhile, so poll.
    let deadline = Instant::now() + Duration::from_secs(10);
    while open_fds() > idle {
        assert!(Instant::now() < deadline, "{} fds open, {idle} before 200 sessions", open_fds());
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.stop();
}
