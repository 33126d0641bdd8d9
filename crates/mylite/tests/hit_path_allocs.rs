//! A plan-cache hit executes the cached plan in place: it never copies it.
//!
//! Counted, not timed (the counting allocator of
//! `crates/executor/tests/alloc_budget.rs`): a warm `query_cached` hit of a
//! multi-join statement allocates fewer times than one `Plan::clone` of the
//! plan it serves. A hit that deep-copied its plan to execute it would pay
//! that clone on top of everything else (digest, governor, operator opens)
//! and could never come in under it. That fixed bill is itself held to a
//! count: it was 129 here while `lexer::keyword` built a `String` per word.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mylite::{Engine, MySqlOptimizer};
use taurus_catalog::Catalog;
use taurus_common::{Column, DataType, Schema, Value};

thread_local! {
    /// Allocations made by this thread (a test runs on a thread of its own).
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

/// Three two-row tables `a(a_id, a_fk, a_v)`, `b(..)`, `c(..)`, each with
/// a primary key.
fn engine() -> Engine {
    let mut cat = Catalog::new();
    for name in ["a", "b", "c"] {
        let cols = ["id", "fk", "v"].map(|c| Column::new(format!("{name}_{c}"), DataType::Int));
        let t = cat.create_table(name, Schema::new(cols.to_vec())).unwrap();
        cat.insert(t, (0..2i64).map(|i| vec![Value::Int(i), Value::Int(i), Value::Int(10 * i)]))
            .unwrap();
        cat.create_index(t, format!("{name}_pk"), vec![0], true).unwrap();
    }
    let mut e = Engine::new(cat);
    e.analyze();
    e
}

/// A two-join statement whose plan is dear to copy and cheap to run: sixteen
/// output expressions of six arithmetic operators each (two boxed operands
/// per operator in the plan, no allocation to evaluate) over one joined row.
fn wide_join() -> String {
    let items: Vec<String> =
        (1..=16).map(|k| format!("a_v * {k} + b_v * {} + c_v * {} + {k}", k + 1, k + 2)).collect();
    format!(
        "SELECT {} FROM a JOIN b ON b_id = a_fk JOIN c ON c_id = b_fk WHERE a_id = 1",
        items.join(", ")
    )
}

#[test]
fn a_warm_hit_allocates_less_than_one_clone_of_its_plan() {
    let (e, sql) = (engine(), wide_join());
    let want = e.query_cached(&sql, &MySqlOptimizer).unwrap().rows;
    assert_eq!(want.len(), 1);
    assert_eq!(want[0][..2], [Value::Int(61), Value::Int(92)]);
    let planned = e.plan(&sql, &MySqlOptimizer).unwrap();
    let (_copy, clone_allocs) = allocations_during(|| planned.primary().plan.clone());
    let hits_before = e.plan_cache_stats().hits;
    let (out, hit_allocs) = allocations_during(|| e.query_cached(&sql, &MySqlOptimizer).unwrap());
    assert_eq!(out.rows, want);
    assert_eq!(e.plan_cache_stats().hits, hits_before + 1, "the measured serve was a hit");
    assert!(
        hit_allocs < clone_allocs,
        "a hit made {hit_allocs} allocations, one Plan::clone makes {clone_allocs}: \
         the hit path is copying the plan it serves"
    );
    assert!(hit_allocs <= 61, "a hit's fixed bill was 59 allocations, now {hit_allocs}");
}
