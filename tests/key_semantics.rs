//! Key semantics of the executor's hash tables.
//!
//! A hash join must give the rows, in the order, that a nested loop over
//! the same `=` conditions gives; hash and stream aggregation must form the
//! groups `GROUP BY` defines. The cases are the ones a hash over key values
//! can get wrong: numerics of two types that compare equal (`2 = 2.0`,
//! `-0.0 = 0`), NULL keys, duplicate build keys, composite and string keys,
//! and a table with thousands of distinct keys.

use taurus_orca::catalog::Catalog;
use taurus_orca::common::{AggFunc, BinOp, Column, DataType, Expr, Row, Schema, TableId, Value};
use taurus_orca::executor::{
    execute, AccessPath, AggSpec, AggStrategy, Est, ExecContext, JoinKind, Plan, SortKey, TableRead,
};

const L: TableId = TableId(0);
const R: TableId = TableId(1);
const BIG: TableId = TableId(2);
const BIG_DOUBLES: TableId = TableId(3);
const DISTINCT_KEYS: i64 = 10_000;

fn int(i: i64) -> Value {
    Value::Int(i)
}

fn dbl(d: f64) -> Value {
    Value::Double(d)
}

/// l(k Int, s Str, d Double) × 7 and r(k Int, s Str, d Double, id Int) × 7,
/// all nullable; big(k Int) and big_doubles(k Double) over `0..10 000`, the
/// latter in descending order.
fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let cols = |names: &[(&str, DataType)]| {
        Schema::new(names.iter().map(|(n, t)| Column::nullable(*n, *t)).collect())
    };
    let l = cat
        .create_table(
            "l",
            cols(&[("k", DataType::Int), ("s", DataType::Str), ("d", DataType::Double)]),
        )
        .unwrap();
    cat.insert(
        l,
        vec![
            vec![int(2), Value::str("x"), dbl(2.0)],
            vec![int(0), Value::str("y"), dbl(0.0)],
            vec![Value::Null, Value::str("x"), Value::Null],
            vec![int(1), Value::Null, dbl(1.5)],
            vec![int(2), Value::str("y"), dbl(-0.0)],
            vec![int(3), Value::str("x"), dbl(3.0)],
            vec![int(0), Value::str("x"), dbl(2.0)],
        ],
    )
    .unwrap();
    let r = cat
        .create_table(
            "r",
            cols(&[
                ("k", DataType::Int),
                ("s", DataType::Str),
                ("d", DataType::Double),
                ("id", DataType::Int),
            ]),
        )
        .unwrap();
    cat.insert(
        r,
        vec![
            vec![int(2), Value::str("y"), dbl(2.0), int(10)],
            vec![Value::Null, Value::str("x"), Value::Null, int(11)],
            vec![int(0), Value::str("x"), dbl(0.0), int(12)],
            vec![int(2), Value::str("x"), dbl(2.0), int(13)],
            vec![int(5), Value::Null, dbl(5.0), int(14)],
            vec![int(2), Value::str("y"), dbl(-0.0), int(15)],
            vec![int(0), Value::str("x"), dbl(2.0), int(16)],
        ],
    )
    .unwrap();
    let big = cat.create_table("big", Schema::new(vec![Column::new("k", DataType::Int)])).unwrap();
    cat.insert(big, (0..DISTINCT_KEYS).map(|i| vec![int(i)])).unwrap();
    let doubles = cat
        .create_table("big_doubles", Schema::new(vec![Column::new("k", DataType::Double)]))
        .unwrap();
    cat.insert(doubles, (0..DISTINCT_KEYS).rev().map(|i| vec![dbl(i as f64)])).unwrap();
    cat
}

fn scan(table: TableId, qt: usize, width: usize, filter: Vec<Expr>) -> Plan {
    Plan::Scan {
        read: TableRead::all(table, qt, width, filter),
        path: AccessPath::Heap,
        est: Est::default(),
    }
}

fn run(cat: &Catalog, plan: &Plan) -> Vec<Row> {
    execute(plan, &ExecContext::new(cat, 2, 0)).unwrap()
}

/// `left ⋈ right` on `keys` (one `(left, right)` pair per `=`), as a hash
/// join building on the right.
fn hash_join(
    kind: JoinKind,
    null_aware: bool,
    left: Plan,
    right: Plan,
    keys: &[(Expr, Expr)],
) -> Plan {
    Plan::HashJoin {
        kind,
        build_left: false,
        left: Box::new(left),
        right: Box::new(right),
        keys: keys.to_vec(),
        residual: vec![],
        null_aware,
        est: Est::default(),
    }
}

/// The same join as a nested loop whose ON is the `=` conditions.
fn nested_loop(
    kind: JoinKind,
    null_aware: bool,
    left: Plan,
    right: Plan,
    keys: &[(Expr, Expr)],
) -> Plan {
    Plan::NestedLoop {
        kind,
        left: Box::new(left),
        right: Box::new(right),
        on: keys.iter().map(|(l, r)| Expr::eq(l.clone(), r.clone())).collect(),
        null_aware,
        est: Est::default(),
    }
}

/// Both joins over l (qt 0) and r (qt 1), the second filtered by
/// `r_filter`: the hash join's rows, checked equal to the nested loop's.
fn join_rows(
    kind: JoinKind,
    null_aware: bool,
    keys: &[(Expr, Expr)],
    r_filter: Vec<Expr>,
) -> Vec<Row> {
    let cat = catalog();
    let sides = || (scan(L, 0, 3, vec![]), scan(R, 1, 4, r_filter.clone()));
    let (l, r) = sides();
    let hashed = run(&cat, &hash_join(kind, null_aware, l, r, keys));
    let (l, r) = sides();
    let looped = run(&cat, &nested_loop(kind, null_aware, l, r, keys));
    assert_eq!(hashed, looped, "hash join and nested loop disagree on {keys:?}");
    hashed
}

/// The `id` column of each joined row (l's three columns, then r's four).
fn build_ids(rows: &[Row]) -> Vec<i64> {
    rows.iter().map(|r| r[6].as_i64().unwrap()).collect()
}

#[test]
fn an_int_key_meets_an_equal_double_and_duplicates_come_out_in_build_order() {
    // l.k = r.d: Int 2 meets Double 2.0 three times, in r's order; Int 0
    // meets 0.0 and -0.0; the NULL key and 1, 3 meet nothing.
    let rows = join_rows(JoinKind::Inner, false, &[(Expr::col(0, 0), Expr::col(1, 2))], vec![]);
    assert_eq!(build_ids(&rows), [10, 13, 16, 12, 15, 10, 13, 16, 12, 15]);
    assert!(rows.iter().all(|r| !r[0].is_null()), "a NULL key never matches");
}

#[test]
fn a_computed_negative_zero_key_meets_zero() {
    // l.k * -1.0 is -0.0 for k = 0, which equals r.k = 0.
    let negated = Expr::binary(BinOp::Mul, Expr::col(0, 0), Expr::lit(dbl(-1.0)));
    let rows = join_rows(JoinKind::Inner, false, &[(negated, Expr::col(1, 0))], vec![]);
    assert_eq!(build_ids(&rows), [12, 16, 12, 16]);
    // And a stored -0.0 meets the Int 0 and the Double 0.0 of the build.
    let rows = join_rows(JoinKind::Inner, false, &[(Expr::col(0, 2), Expr::col(1, 0))], vec![]);
    assert_eq!(
        rows.iter().filter(|r| r[2] == dbl(0.0)).count(),
        4,
        "0.0 and -0.0 rows × two zeros"
    );
}

#[test]
fn null_keys_never_match_and_not_in_follows_the_null_rule() {
    // The NULL s of l and r never meet; l's four rows with s = 'x' meet
    // r's four, and its two 'y' rows r's two.
    let rows = join_rows(JoinKind::Inner, false, &[(Expr::col(0, 1), Expr::col(1, 1))], vec![]);
    assert_eq!(rows.len(), 4 * 4 + 2 * 2);
    assert!(rows.iter().all(|r| !r[1].is_null() && !r[4].is_null()));

    let not_in = [(Expr::col(0, 0), Expr::col(1, 0))];
    // NOT IN over a build side that holds a NULL: no row is surely absent.
    assert!(join_rows(JoinKind::AntiSemi, true, &not_in, vec![]).is_empty());
    // Without the NULL, 1 and 3 are absent; the NULL probe key is UNKNOWN.
    let no_null = vec![Expr::Unary {
        op: taurus_orca::common::UnOp::IsNotNull,
        input: Box::new(Expr::col(1, 0)),
    }];
    let rows = join_rows(JoinKind::AntiSemi, true, &not_in, no_null);
    assert_eq!(rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(), [int(1), int(3)]);
    // Over an empty build side every row is absent, the NULL one too.
    let none = vec![Expr::binary(BinOp::Lt, Expr::col(1, 3), Expr::int(0))];
    assert_eq!(join_rows(JoinKind::AntiSemi, true, &not_in, none).len(), 7);
    // A plain anti join keeps the NULL probe key; a semi join drops it.
    assert_eq!(join_rows(JoinKind::AntiSemi, false, &not_in, vec![]).len(), 3);
    assert_eq!(join_rows(JoinKind::Semi, false, &not_in, vec![]).len(), 4);
}

#[test]
fn composite_keys_match_on_every_part() {
    let keys = [(Expr::col(0, 0), Expr::col(1, 0)), (Expr::col(0, 1), Expr::col(1, 1))];
    let rows = join_rows(JoinKind::Inner, false, &keys, vec![]);
    // (2,'x') meets 13; (0,'y') nothing; (2,'y') meets 10 and 15; (0,'x')
    // meets 12 and 16.
    assert_eq!(build_ids(&rows), [13, 10, 15, 12, 16]);
    // A left outer join pads the rest, in probe order.
    let rows = join_rows(JoinKind::LeftOuter, false, &keys, vec![]);
    assert_eq!(rows.len(), 5 + 4);
    assert_eq!(rows.iter().filter(|r| r[6].is_null()).count(), 4);
}

#[test]
fn ten_thousand_distinct_keys_each_meet_their_one_equal() {
    let cat = catalog();
    let keys = [(Expr::col(0, 0), Expr::col(1, 0))];
    let join = hash_join(
        JoinKind::Inner,
        false,
        scan(BIG, 0, 1, vec![]),
        scan(BIG_DOUBLES, 1, 1, vec![]),
        &keys,
    );
    let rows = run(&cat, &join);
    assert_eq!(rows.len(), DISTINCT_KEYS as usize);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row, &vec![int(i as i64), dbl(i as f64)]);
    }
}

/// `GROUP BY key` with COUNT(*) over `input` (one qt-0 table of `width`),
/// hashed and streamed (over the input sorted on the key): the hashed
/// groups in first-seen order, checked equal as a set to the streamed ones.
fn group_rows(table: TableId, width: usize, key: Expr) -> Vec<Row> {
    let cat = catalog();
    let agg = |input: Plan, strategy| Plan::Aggregate {
        input: Box::new(input),
        group_by: vec![key.clone()],
        aggs: vec![AggSpec { func: AggFunc::CountStar, arg: None, distinct: false }],
        strategy,
        est: Est::default(),
    };
    let hashed = run(&cat, &agg(scan(table, 0, width, vec![]), AggStrategy::Hash));
    let sorted = Plan::Sort {
        input: Box::new(scan(table, 0, width, vec![])),
        keys: vec![SortKey { expr: key.clone(), desc: false }],
        est: Est::default(),
    };
    let streamed = run(&cat, &agg(sorted, AggStrategy::Stream));
    let counts = |rows: &[Row]| {
        let mut c: Vec<(String, Value)> =
            rows.iter().map(|r| (r[0].to_string(), r[1].clone())).collect();
        c.sort_by(|a, b| a.0.cmp(&b.0));
        c
    };
    assert_eq!(counts(&hashed), counts(&streamed), "hash and stream aggregation disagree");
    hashed
}

#[test]
fn group_by_puts_nulls_together_and_equal_numerics_in_one_group() {
    // l.k: 2, 0, NULL, 1, 2, 3, 0 — first-seen order, NULL its own group.
    let rows = group_rows(L, 3, Expr::col(0, 0));
    let want = [(int(2), 2), (int(0), 2), (Value::Null, 1), (int(1), 1), (int(3), 1)];
    assert_eq!(rows, want.map(|(k, n)| vec![k, int(n)]));
    // l.d: 0.0 and -0.0 are one group, keyed by the first seen.
    let rows = group_rows(L, 3, Expr::col(0, 2));
    let want = [(dbl(2.0), 2), (dbl(0.0), 2), (Value::Null, 1), (dbl(1.5), 1), (dbl(3.0), 1)];
    assert_eq!(rows, want.map(|(k, n)| vec![k, int(n)]));
    // A computed key: k * 1.0 folds 2 and 2.0 into one Double group.
    let rows = group_rows(L, 3, Expr::binary(BinOp::Mul, Expr::col(0, 0), Expr::lit(dbl(1.0))));
    assert_eq!(rows[0], vec![dbl(2.0), int(2)]);
    // String keys, the NULL one included.
    let rows = group_rows(L, 3, Expr::col(0, 1));
    let want = [(Value::str("x"), 4), (Value::str("y"), 2), (Value::Null, 1)];
    assert_eq!(rows, want.map(|(k, n)| vec![k, int(n)]));
}

#[test]
fn ten_thousand_distinct_groups_come_out_in_first_seen_order() {
    let rows = group_rows(BIG_DOUBLES, 1, Expr::col(0, 0));
    assert_eq!(rows.len(), DISTINCT_KEYS as usize);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row, &vec![dbl((DISTINCT_KEYS - 1 - i as i64) as f64), int(1)]);
    }
}
