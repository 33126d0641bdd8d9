//! The join hot path's allocation bill, as a count rather than a timing.
//!
//! A join must test a pair before it builds one: rejected pairs cost no
//! allocation, and a cached `Materialize` is re-opened by pointer. Both
//! scenarios below therefore allocate in proportion to the rows that go in
//! and come out, not to the pairs compared — the budget (10 allocations per
//! left row) sits two orders of magnitude under what per-pair concatenation
//! or a per-open copy of the inner rows would spend. Hash tables key on the
//! row's own slots, so a hash join or aggregate allocates per output row and
//! per group, never a key per input row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use taurus_catalog::Catalog;
use taurus_common::{AggFunc, BinOp, Column, DataType, Expr, Row, Schema, TableId, Value};
use taurus_executor::{
    execute, AccessPath, AggSpec, AggStrategy, Est, ExecContext, JoinKind, Plan, TableRead,
};

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own,
    /// so one test's count never sees another's).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a bump of a const-initialised,
// destructor-free thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const LEFT_ROWS: usize = 200;
const INNER_ROWS: usize = 4_000;
const BUDGET_PER_LEFT_ROW: u64 = 10;

const PART: TableId = TableId(0);
const LINEITEM: TableId = TableId(1);
const BUCKET: TableId = TableId(2);
const WIDE: TableId = TableId(3);
const SHIFTED: TableId = TableId(4);
const KEYED_ROWS: i64 = 4_000;

/// part(p_partkey, p_container, p_size, p_bucket) × 200,
/// lineitem(l_partkey, l_quantity, l_shipmode) × 4 000,
/// bucket(b_key, b_val) × 400 with four distinct keys,
/// wide(w_key, w_group) × 4 000 with distinct keys in ten groups,
/// shifted(s_key) × 4 000 whose keys meet ten of wide's.
fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let int = |name: &str| Column::new(name, DataType::Int);
    let text = |name: &str| Column::new(name, DataType::Str);
    let part = cat
        .create_table(
            "part",
            Schema::new(vec![
                int("p_partkey"),
                text("p_container"),
                int("p_size"),
                int("p_bucket"),
            ]),
        )
        .unwrap();
    let containers = ["SM PKG", "MED BOX", "LG BOX", "JUMBO JAR"];
    let rows: Vec<Row> = (0..LEFT_ROWS as i64)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::str(containers[i as usize % containers.len()]),
                Value::Int(i % 50 + 1),
                Value::Int(i % 4),
            ]
        })
        .collect();
    cat.insert(part, rows).unwrap();

    let lineitem = cat
        .create_table(
            "lineitem",
            Schema::new(vec![int("l_partkey"), int("l_quantity"), text("l_shipmode")]),
        )
        .unwrap();
    let modes = ["AIR", "REG AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
    let rows: Vec<Row> = (0..INNER_ROWS as i64)
        .map(|j| {
            vec![
                Value::Int(j % 1_000),
                Value::Int(j % 50 + 1),
                Value::str(modes[j as usize % modes.len()]),
            ]
        })
        .collect();
    cat.insert(lineitem, rows).unwrap();
    cat.create_index(lineitem, "lineitem_partkey", vec![0], false).unwrap();

    let bucket = cat.create_table("bucket", Schema::new(vec![int("b_key"), int("b_val")])).unwrap();
    let rows: Vec<Row> = (0..400i64).map(|i| vec![Value::Int(i % 4), Value::Int(i)]).collect();
    cat.insert(bucket, rows).unwrap();

    let wide = cat.create_table("wide", Schema::new(vec![int("w_key"), int("w_group")])).unwrap();
    cat.insert(wide, (0..KEYED_ROWS).map(|i| vec![Value::Int(i), Value::Int(i % 10)])).unwrap();
    let shifted = cat.create_table("shifted", Schema::new(vec![int("s_key")])).unwrap();
    cat.insert(shifted, (0..KEYED_ROWS).map(|i| vec![Value::Int(i + KEYED_ROWS - 10)])).unwrap();
    cat
}

fn scan(table: TableId, qt: usize, width: usize) -> Plan {
    Plan::Scan {
        read: TableRead::all(table, qt, width, vec![]),
        path: AccessPath::Heap,
        est: Est::default(),
    }
}

/// One arm of TPC-H q19's un-factored OR, over qt 0 = part, qt 1 = lineitem.
fn q19_arm(container: &str, quantity: (i64, i64), max_size: i64) -> Expr {
    let between = |e: Expr, lo: i64, hi: i64| Expr::Between {
        expr: Box::new(e),
        low: Box::new(Expr::int(lo)),
        high: Box::new(Expr::int(hi)),
        negated: false,
    };
    Expr::and_all(vec![
        Expr::eq(Expr::col(0, 0), Expr::col(1, 0)),
        Expr::eq(Expr::col(0, 1), Expr::string(container)),
        between(Expr::col(1, 1), quantity.0, quantity.1),
        between(Expr::col(0, 2), 1, max_size),
        Expr::InList {
            expr: Box::new(Expr::col(1, 2)),
            list: vec![Expr::string("AIR"), Expr::string("REG AIR")],
            negated: false,
        },
    ])
}

#[test]
fn nested_loop_over_a_cached_materialize_allocates_per_row_not_per_pair() {
    let cat = catalog();
    let on = Expr::or(
        Expr::or(q19_arm("SM PKG", (1, 11), 5), q19_arm("MED BOX", (10, 20), 10)),
        q19_arm("LG BOX", (20, 30), 15),
    );
    let mut plan = Plan::NestedLoop {
        kind: JoinKind::Inner,
        left: Box::new(scan(PART, 0, 4)),
        right: Box::new(Plan::Materialize {
            input: Box::new(scan(LINEITEM, 1, 3)),
            rebind: false,
            cache_slot: 0,
            est: Est::default(),
        }),
        on: vec![on],
        null_aware: false,
        est: Est::default(),
    };
    let slots = plan.assign_cache_slots();
    let ctx = ExecContext::new(&cat, 2, slots);
    // The first execution fills the cache slot (one clone per inner row, the
    // scan's); the measured one re-opens it 200 times.
    let warm = execute(&plan, &ctx).unwrap();
    let (rows, allocations) = allocations_during(|| execute(&plan, &ctx).unwrap());
    assert_eq!(rows, warm);
    assert!(!rows.is_empty() && rows.len() <= 30, "q19 shape passes few pairs: {}", rows.len());
    assert_eq!(ctx.stats.materializations.get(), 1, "the slot was filled once");
    assert!(
        allocations < BUDGET_PER_LEFT_ROW * LEFT_ROWS as u64,
        "{allocations} allocations for {LEFT_ROWS} left rows × {INNER_ROWS} inner rows \
         ({} pairs, {} passed)",
        LEFT_ROWS * INNER_ROWS,
        rows.len()
    );
    // Deciding the OR by its shared leading conjunct costs nothing per pair:
    // one clone per left row plus a couple of dozen for buffers and layouts.
    assert!(allocations <= 225, "{allocations} allocations for the q19-shaped nested loop");
}

#[test]
fn hash_join_whose_residual_rejects_every_match_allocates_per_row_not_per_match() {
    let cat = catalog();
    // Every part row matches the 100 bucket rows of its key; the residual
    // (b_val < 0) turns all 20 000 matches down.
    let plan = Plan::HashJoin {
        kind: JoinKind::Inner,
        build_left: false,
        left: Box::new(scan(PART, 0, 4)),
        right: Box::new(scan(BUCKET, 1, 2)),
        keys: vec![(Expr::col(0, 3), Expr::col(1, 0))],
        residual: vec![Expr::binary(BinOp::Lt, Expr::col(1, 1), Expr::int(0))],
        null_aware: false,
        est: Est::default(),
    };
    let ctx = ExecContext::new(&cat, 2, 0);
    let (rows, allocations) = allocations_during(|| execute(&plan, &ctx).unwrap());
    assert!(rows.is_empty());
    assert_eq!(ctx.stats.hash_probes.get(), LEFT_ROWS as u64);
    assert!(
        allocations < BUDGET_PER_LEFT_ROW * LEFT_ROWS as u64,
        "{allocations} allocations for {LEFT_ROWS} probe rows × 100 rejected matches each"
    );
}

#[test]
fn an_index_lookup_opening_copies_its_key_once() {
    let cat = catalog();
    // 200 correlated lookups of four lineitem rows each; the filter turns
    // every row down, so what is left per outer row is its own copy and its
    // opening's fixed bill: the key values, which the index searches by
    // reference, and the filter's one layout (the binding's followed by the
    // table's). A copy of the key as a bound (the B-tree range once made
    // one) or a second layout makes it four.
    let plan = Plan::NestedLoop {
        kind: JoinKind::Inner,
        left: Box::new(scan(PART, 0, 4)),
        right: Box::new(Plan::Scan {
            read: TableRead::all(
                LINEITEM,
                1,
                3,
                vec![Expr::binary(BinOp::Lt, Expr::col(1, 1), Expr::int(0))],
            ),
            path: AccessPath::Lookup { index: 0, keys: vec![Expr::col(0, 0)] },
            est: Est::default(),
        }),
        on: vec![],
        null_aware: false,
        est: Est::default(),
    };
    let ctx = ExecContext::new(&cat, 2, 0);
    let (rows, allocations) = allocations_during(|| execute(&plan, &ctx).unwrap());
    assert!(rows.is_empty());
    assert_eq!(ctx.stats.index_lookups.get(), LEFT_ROWS as u64);
    assert_eq!(ctx.stats.rows_scanned.get(), (LEFT_ROWS * 5) as u64, "four rows per lookup");
    assert!(allocations <= 3 * LEFT_ROWS as u64 + 16, "{allocations} allocations for 200 lookups");
}

/// Allocations a plan makes beyond the leaves that feed it: `plan`'s count
/// minus each leaf's own count when executed alone (a scan copies every row
/// it reads, which is the leaf's, not the operator's).
fn allocations_above_leaves(cat: &Catalog, plan: &Plan, leaves: &[&Plan]) -> (Vec<Row>, u64) {
    let run = |p: &Plan| {
        let ctx = ExecContext::new(cat, 2, 0);
        allocations_during(|| execute(p, &ctx).unwrap())
    };
    let leaf_allocations: u64 = leaves.iter().map(|l| run(l).1).sum();
    let (rows, allocations) = run(plan);
    (rows, allocations - leaf_allocations)
}

#[test]
fn hash_join_and_hash_aggregate_allocate_per_output_row_and_group_not_per_input_row() {
    let cat = catalog();
    // 4 000 probe rows against 4 000 build rows; ten keys meet.
    let (probe, build) = (scan(WIDE, 0, 2), scan(SHIFTED, 1, 1));
    let join = Plan::HashJoin {
        kind: JoinKind::Inner,
        build_left: false,
        left: Box::new(probe.clone()),
        right: Box::new(build.clone()),
        keys: vec![(Expr::col(0, 0), Expr::col(1, 0))],
        residual: vec![],
        null_aware: false,
        est: Est::default(),
    };
    let (rows, allocations) = allocations_above_leaves(&cat, &join, &[&probe, &build]);
    assert_eq!(rows.len(), 10);
    assert!(
        allocations <= rows.len() as u64 + 24,
        "{allocations} allocations above the scans for {KEYED_ROWS} × {KEYED_ROWS} rows, {} out",
        rows.len()
    );

    // 4 000 rows into ten groups, each with COUNT(*) and SUM(w_key).
    let aggs = vec![
        AggSpec { func: AggFunc::CountStar, arg: None, distinct: false },
        AggSpec { func: AggFunc::Sum, arg: Some(Expr::col(0, 0)), distinct: false },
    ];
    let agg = Plan::Aggregate {
        input: Box::new(probe.clone()),
        group_by: vec![Expr::col(0, 1)],
        aggs,
        strategy: AggStrategy::Hash,
        est: Est::default(),
    };
    let (rows, allocations) = allocations_above_leaves(&cat, &agg, &[&probe]);
    assert_eq!(rows.len(), 10);
    assert_eq!(
        rows[3],
        [Value::Int(3), Value::Int(400), Value::Int((0..400).map(|i| 10 * i + 3).sum())]
    );
    assert!(
        allocations <= 3 * rows.len() as u64 + 16,
        "{allocations} allocations above the scan for {KEYED_ROWS} rows into {} groups",
        rows.len()
    );
}
