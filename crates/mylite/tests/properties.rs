//! NULL-semantics property tests: minimized repros of the bugs the
//! differential fuzzer's TLP oracle surfaced, plus the three-valued-logic
//! identities they violated. Each predicate `p` must partition a query's
//! rows exactly: `Q` ≡ `Q WHERE p` ⊎ `Q WHERE NOT p` ⊎ `Q WHERE p IS NULL`.

use mylite::Engine;
use taurus_catalog::Catalog;
use taurus_common::{Column, DataType, Schema, Value};

/// `l`: 6 plain rows. `r`: join partner with NULL-riddled payload columns —
/// keys 1..=3 match `l`, keys 4..=6 are unmatched on purpose.
fn engine() -> Engine {
    let mut cat = Catalog::new();
    let l = cat.create_table("l", Schema::new(vec![Column::new("k", DataType::Int)])).unwrap();
    cat.insert(l, (1..=6i64).map(|k| vec![Value::Int(k)])).unwrap();
    cat.create_index(l, "l_pk", vec![0], true).unwrap();
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
    cat.create_index(r, "r_pk", vec![0], true).unwrap();
    let mut e = Engine::new(cat);
    e.analyze();
    e
}

fn rows(e: &Engine, sql: &str) -> Vec<String> {
    let mut out: Vec<String> =
        e.query(sql).unwrap().rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

/// Assert the TLP identity for `base` (a FROM clause, no WHERE) and `p`.
fn tlp(e: &Engine, select: &str, base: &str, p: &str) {
    let whole = rows(e, &format!("{select} FROM {base}"));
    let mut parts = rows(e, &format!("{select} FROM {base} WHERE {p}"));
    parts.extend(rows(e, &format!("{select} FROM {base} WHERE NOT ({p})")));
    parts.extend(rows(e, &format!("{select} FROM {base} WHERE ({p}) IS NULL")));
    parts.sort();
    assert_eq!(whole, parts, "TLP partition broken for predicate: {p}");
}

const LJ: &str = "l LEFT JOIN r ON l.k = r.k";

#[test]
fn where_is_null_stays_above_left_join() {
    // Fuzzer bug: a WHERE conjunct targeting the nullable side was pushed
    // below the left join, where it cannot see NULL-extended rows. `r.v IS
    // NULL` holds for the r.k=2 match AND for the three unmatched l rows.
    let e = engine();
    let got = rows(&e, &format!("SELECT l.k FROM {LJ} WHERE r.v IS NULL"));
    assert_eq!(got.len(), 4, "one NULL payload match + three NULL-extended rows: {got:?}");
    tlp(&e, "SELECT l.k, r.v", LJ, "r.v IS NULL");
    tlp(&e, "SELECT l.k, r.v", LJ, "r.v > 1");
}

#[test]
fn coalesce_predicate_does_not_promote_left_join() {
    // Fuzzer bug: `NOT (COALESCE(r.s,'B') = 'C')` was treated as
    // null-rejecting on `r`, illegally promoting LEFT JOIN to INNER.
    // COALESCE absorbs the NULL-extended rows, so they must survive:
    // unmatched l rows get COALESCE(NULL,'B') = 'B' ≠ 'C' → kept.
    let e = engine();
    let got = rows(&e, &format!("SELECT l.k FROM {LJ} WHERE NOT (COALESCE(r.s, 'B') = 'C')"));
    assert_eq!(got.len(), 5, "only the r.s='C' match drops: {got:?}");
    tlp(&e, "SELECT l.k, r.s", LJ, "COALESCE(r.s, 'B') <> 'C'");
    // A genuinely strict predicate on r may still promote — the answer has
    // to match the partition identity either way.
    tlp(&e, "SELECT l.k, r.s", LJ, "r.s <> 'C'");
}

#[test]
fn three_valued_and_or_not() {
    let e = engine();
    // NOT over UNKNOWN stays UNKNOWN: r.k=2 (v NULL) lands in neither the
    // positive nor the negated branch.
    let pos = rows(&e, "SELECT k FROM r WHERE v = 1");
    let neg = rows(&e, "SELECT k FROM r WHERE NOT (v = 1)");
    assert_eq!((pos.len(), neg.len()), (1, 1), "NULL v row is in neither branch");
    // UNKNOWN OR TRUE = TRUE, UNKNOWN AND FALSE = FALSE.
    assert_eq!(rows(&e, "SELECT k FROM r WHERE v = 1 OR k = 2").len(), 2);
    assert_eq!(rows(&e, "SELECT k FROM r WHERE v = 1 AND k = 2").len(), 0);
    tlp(&e, "SELECT r.k", "r", "v = 1 OR s = 'B'");
    tlp(&e, "SELECT r.k", "r", "v = 1 AND s <> 'B'");
}

#[test]
fn in_list_with_null_element() {
    let e = engine();
    // v IN (1, NULL): TRUE only for v=1; UNKNOWN for v=3 (no match, NULL
    // element) and v=NULL.
    assert_eq!(rows(&e, "SELECT k FROM r WHERE v IN (1, NULL)").len(), 1);
    // v NOT IN (1, NULL) can never be TRUE: v≠1 leaves NULL≠v UNKNOWN.
    assert_eq!(rows(&e, "SELECT k FROM r WHERE v NOT IN (1, NULL)").len(), 0);
    tlp(&e, "SELECT r.k", "r", "v IN (1, NULL)");
    tlp(&e, "SELECT r.k", "r", "v NOT IN (3, NULL)");
}

#[test]
fn null_comparison_bound_never_becomes_index_range() {
    // Fuzzer bug: `k >= NULL` on an indexed column was extracted as an
    // index-range lower bound. NULL sorts first in the index's total order,
    // so the range [NULL, ∞) covered the whole table — but a comparison
    // with NULL is UNKNOWN for every row and must select nothing.
    let e = engine();
    for p in ["k >= NULL", "k > NULL", "k <= NULL", "k < NULL", "k = NULL", "NULL <= k"] {
        assert_eq!(rows(&e, &format!("SELECT k FROM l WHERE {p}")).len(), 0, "p = {p}");
        tlp(&e, "SELECT l.k", "l", p);
    }
    assert_eq!(rows(&e, "SELECT k FROM l WHERE k BETWEEN NULL AND 10").len(), 0);
    assert_eq!(rows(&e, "SELECT k FROM l WHERE k BETWEEN 1 AND NULL").len(), 0);
    tlp(&e, "SELECT l.k", "l", "l.k BETWEEN NULL AND 10");
}

#[test]
fn not_in_subquery_over_null_column() {
    let e = engine();
    // The subquery's result {1, NULL, 3} contains NULL: `k NOT IN (...)`
    // is FALSE for k∈{1,3} and UNKNOWN for everything else — zero rows.
    assert_eq!(rows(&e, "SELECT k FROM l WHERE k NOT IN (SELECT v FROM r)").len(), 0);
    // Without the NULL element the anti join behaves set-like again.
    assert_eq!(
        rows(&e, "SELECT k FROM l WHERE k NOT IN (SELECT v FROM r WHERE v IS NOT NULL)").len(),
        4
    );
    // Empty subquery: NOT IN is TRUE for every probe, NULL probes included.
    assert_eq!(rows(&e, "SELECT k FROM l WHERE k NOT IN (SELECT v FROM r WHERE v > 100)").len(), 6);
    assert_eq!(
        rows(&e, "SELECT a.k FROM r a WHERE a.v NOT IN (SELECT b.v FROM r b WHERE b.v > 100)")
            .len(),
        3,
        "a NULL probe against an empty set is still TRUE"
    );
}
