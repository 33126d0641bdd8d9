//! The worker pool: scoped threads pulling work units off a shared counter.
//!
//! Morsel-driven scheduling needs no queues: units are numbered `0..n` and
//! workers claim the next index with a single `fetch_add`. Results come back
//! in *unit order* regardless of which worker ran what, which is what makes
//! the exchange merges deterministic.

use crate::exec::{ExecContext, ExecStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use taurus_common::error::{Error, Result};
use taurus_common::sync::lock;

/// Run `n_units` closures on up to `dop` worker threads and return their
/// results in unit order.
///
/// Each worker executes with a private [`ExecContext`] derived from `ctx`
/// (own counters, shared materialization/broadcast caches). After the pool
/// joins, worker counters are merged into `ctx.stats` and the exchange-level
/// parallel accounting is updated: `parallel_work` grows by the units' total
/// work and `parallel_critical` by the *makespan* of an ideal list schedule
/// of the per-unit work over `dop` workers (each unit goes to the currently
/// least-loaded worker, in unit order). Using the ideal schedule instead of
/// the observed per-thread split keeps the critical path a property of the
/// plan and the data — the same on a 1-core CI box as on a 64-core machine,
/// where the OS may hand every morsel to a single thread.
///
/// A panicking unit is caught (`catch_unwind`) and surfaced as an execution
/// error; when several units fail, the error of the *lowest* unit index wins
/// so failures are deterministic under any scheduling.
pub(crate) fn run_units<'a, T: Send>(
    ctx: &ExecContext<'a>,
    dop: usize,
    n_units: usize,
    run: impl Fn(&ExecContext<'a>, usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let shared = ctx.shared();
    let n_workers = dop.min(n_units).max(1);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n_units).map(|_| Mutex::new(None)).collect();
    let unit_work: Vec<AtomicU64> = (0..n_units).map(|_| AtomicU64::new(0)).collect();
    let failures: Mutex<Vec<(usize, Error)>> = Mutex::new(Vec::new());
    let worker_stats: Mutex<Vec<ExecStats>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        for _ in 0..n_workers {
            s.spawn(|| {
                let wctx = shared.worker();
                loop {
                    // The morsel-boundary governance check: a cancelled or
                    // out-of-time query stops claiming units, so the pool
                    // drains promptly instead of finishing doomed work.
                    if let Err(e) = wctx.check_governor() {
                        lock(&failures).push((usize::MAX, e));
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_units {
                        break;
                    }
                    let before = wctx.stats.work_units();
                    // AssertUnwindSafe: the shared caches the closure can
                    // touch are only ever written whole under their locks,
                    // so a mid-unit panic cannot leave torn state behind.
                    match catch_unwind(AssertUnwindSafe(|| run(&wctx, i))) {
                        Ok(Ok(v)) => *lock(&slots[i]) = Some(v),
                        Ok(Err(e)) => lock(&failures).push((i, e)),
                        Err(payload) => lock(&failures).push((
                            i,
                            Error::internal(format!(
                                "parallel worker panicked: {}",
                                panic_message(payload.as_ref())
                            )),
                        )),
                    }
                    unit_work[i].store(wctx.stats.work_units() - before, Ordering::Relaxed);
                }
                lock(&worker_stats).push(wctx.stats);
            });
        }
    });

    let per_worker = worker_stats.into_inner().unwrap_or_else(|e| e.into_inner());
    for ws in &per_worker {
        ctx.stats.merge(ws);
    }
    // Ideal list schedule: hand each unit, in unit order, to the currently
    // least-loaded of `dop` workers. The resulting makespan is the critical
    // path a dop-wide machine would see for this morsel set.
    let mut bins = vec![0u64; dop.max(1)];
    let mut total = 0u64;
    for w in &unit_work {
        let w = w.load(Ordering::Relaxed);
        total += w;
        if let Some(min) = bins.iter_mut().min() {
            *min += w;
        }
    }
    ExecStats::bump(&ctx.stats.parallel_work, total);
    ExecStats::bump(&ctx.stats.parallel_critical, bins.into_iter().max().unwrap_or(0));

    let mut failures = failures.into_inner().unwrap_or_else(|e| e.into_inner());
    if !failures.is_empty() {
        failures.sort_by_key(|(i, _)| *i);
        return Err(failures.swap_remove(0).1);
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .ok_or_else(|| Error::internal("parallel pool lost a unit result"))
        })
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_catalog::Catalog;

    fn ctx(cat: &Catalog) -> ExecContext<'_> {
        ExecContext::new(cat, 0, 0)
    }

    #[test]
    fn results_come_back_in_unit_order() {
        let cat = Catalog::new();
        let ctx = ctx(&cat);
        let out = run_units(&ctx, 4, 17, |_, i| Ok(i * 10)).unwrap();
        assert_eq!(out, (0..17).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_counters_fold_into_parent_with_critical_path() {
        let cat = Catalog::new();
        let ctx = ctx(&cat);
        // Each unit "scans" 5 rows in its worker context.
        run_units(&ctx, 2, 6, |w, _| {
            ExecStats::bump(&w.stats.rows_scanned, 5);
            Ok(())
        })
        .unwrap();
        assert_eq!(ctx.stats.rows_scanned.get(), 30);
        assert_eq!(ctx.stats.parallel_work.get(), 30);
        // Ideal schedule of six 5-unit morsels over two workers: 15 each,
        // regardless of how the OS actually interleaved the threads.
        assert_eq!(ctx.stats.parallel_critical.get(), 15);
        assert_eq!(ctx.stats.critical_path_work(), 15);
    }

    #[test]
    fn lowest_unit_error_wins_and_panics_are_isolated() {
        let cat = Catalog::new();
        let ctx = ctx(&cat);
        let err = run_units(&ctx, 4, 8, |_, i| -> Result<()> {
            match i {
                2 => panic!("boom in unit two"),
                5 => Err(Error::internal("unit five failed")),
                _ => Ok(()),
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("boom in unit two"), "unit 2 outranks unit 5: {err}");
    }
}
