//! The per-query resource governor: cooperative cancellation, wall-clock
//! deadlines, and memory accounting.
//!
//! One [`QueryGovernor`] is shared (via `Arc`) by every [`ExecContext`] of a
//! query — the session context and each parallel worker's private context
//! alike. It is consulted at two kinds of boundaries:
//!
//! - **operator boundaries**: [`QueryGovernor::check`] runs at the top of
//!   every operator opening (`exec`), so a cancel or an expired deadline
//!   unwinds the whole tree within one operator opening;
//! - **morsel boundaries**: the worker pool checks before claiming each
//!   morsel, so a wedged parallel fragment drains instead of spinning.
//!
//! Memory accounting is charge/uncharge on the memory-hungry operators
//! (hash-join builds, hash aggregation, sort buffers, materializations).
//! Charges that would cross the budget are *rejected before they are
//! recorded*, so the tracked peak never exceeds the configured budget — the
//! invariant the governance chaos gate asserts. Sizes are deterministic
//! estimates ([`rows_bytes`]), not allocator truth: the point is a
//! reproducible bound on operator state, not a malloc audit.
//!
//! The countdown installed by [`QueryGovernor::with_cancel_after`] is the
//! chaos hook: it flips the cancel token after exactly N governor checks,
//! which gives the fuzzer and the governance harness *deterministic*
//! randomized cancel points without any timing races.
//!
//! [`ExecContext`]: crate::exec::ExecContext

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use taurus_common::error::{Error, Result};
use taurus_common::Row;

/// Sentinel for "no countdown installed" / "no memory budget".
const OFF: u64 = u64::MAX;

/// A resolved set of governance knobs for one query: what a session's
/// overrides layered over the engine defaults work out to. Zero means
/// "off" for every field, matching the engine's atomic-knob encoding, so
/// the spec can be assembled straight from knob loads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorSpec {
    /// Wall-clock budget in ms (0 = no deadline).
    pub deadline_ms: u64,
    /// Tracked-memory budget in bytes (0 = unlimited).
    pub memory_budget: u64,
    /// Cancel at the N-th governor check (0 = off; chaos testing).
    pub cancel_after: u64,
}

/// Shared, thread-safe governance state for one query execution.
#[derive(Debug)]
pub struct QueryGovernor {
    /// The cooperative cancel token. Flipped by [`QueryGovernor::cancel`]
    /// (any thread) or by the cancel-after countdown.
    cancelled: AtomicBool,
    /// Absolute wall-clock deadline, if a budget was set.
    deadline: Option<Instant>,
    /// The original deadline budget, for the typed error's message.
    budget_ms: u64,
    /// Bytes currently charged by live operator state.
    mem_used: AtomicU64,
    /// High-water mark of `mem_used` (only updated by in-budget charges).
    mem_peak: AtomicU64,
    /// Byte budget; `OFF` = unlimited.
    mem_budget: u64,
    /// Chaos hook: flip the cancel token after this many checks.
    /// `OFF` = disabled.
    cancel_after: AtomicU64,
    /// Total governor checks performed (telemetry; also the clock the
    /// cancel-after countdown runs on).
    checks: AtomicU64,
}

impl Default for QueryGovernor {
    fn default() -> Self {
        QueryGovernor::new()
    }
}

impl QueryGovernor {
    /// An unlimited governor: cancellable, but no deadline and no budget.
    pub fn new() -> QueryGovernor {
        QueryGovernor {
            cancelled: AtomicBool::new(false),
            deadline: None,
            budget_ms: 0,
            mem_used: AtomicU64::new(0),
            mem_peak: AtomicU64::new(0),
            mem_budget: OFF,
            cancel_after: AtomicU64::new(OFF),
            checks: AtomicU64::new(0),
        }
    }

    /// Give the query a wall-clock budget, measured from now.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(Instant::now() + budget);
        self.budget_ms = budget.as_millis() as u64;
        self
    }

    /// Cap the query's tracked operator memory at `bytes`.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.mem_budget = bytes;
        self
    }

    /// Chaos hook: cancel the query after exactly `checks` governor checks.
    pub fn with_cancel_after(self, checks: u64) -> Self {
        self.cancel_after.store(checks.min(OFF - 1), Ordering::Relaxed);
        self
    }

    /// Build a governor from a resolved knob set. The engine layers
    /// per-session overrides over its own defaults into a [`GovernorSpec`]
    /// and builds one governor per execution from it.
    pub fn from_spec(spec: GovernorSpec) -> QueryGovernor {
        let mut g = QueryGovernor::new();
        if spec.deadline_ms > 0 {
            g = g.with_deadline(Duration::from_millis(spec.deadline_ms));
        }
        if spec.memory_budget > 0 {
            g = g.with_memory_budget(spec.memory_budget);
        }
        if spec.cancel_after > 0 {
            g = g.with_cancel_after(spec.cancel_after);
        }
        g
    }

    /// Flip the cancel token. The running query observes it at its next
    /// operator or morsel boundary and unwinds with [`Error::Cancelled`].
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// The boundary check: cancel token first, then the deadline. Called at
    /// every operator opening and before every morsel claim.
    pub fn check(&self) -> Result<()> {
        self.checks.fetch_add(1, Ordering::Relaxed);
        // Run the chaos countdown on the check clock. A few extra
        // decrements may land while the query unwinds; the u64 headroom
        // makes wrap-around unreachable in practice.
        if self.cancel_after.load(Ordering::Relaxed) != OFF
            && self.cancel_after.fetch_sub(1, Ordering::Relaxed) <= 1
        {
            self.cancelled.store(true, Ordering::Relaxed);
        }
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(Error::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Error::DeadlineExceeded { budget_ms: self.budget_ms });
            }
        }
        Ok(())
    }

    /// Charge `bytes` of operator state against the budget. A charge that
    /// would cross the budget is rolled back before the peak is updated and
    /// fails with [`Error::MemoryExceeded`] — the tracked peak therefore
    /// never exceeds the budget.
    pub fn charge(&self, bytes: u64) -> Result<()> {
        let now = self.mem_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if self.mem_budget != OFF && now > self.mem_budget {
            self.mem_used.fetch_sub(bytes, Ordering::Relaxed);
            return Err(Error::MemoryExceeded { used: now, budget: self.mem_budget });
        }
        self.mem_peak.fetch_max(now, Ordering::Relaxed);
        Ok(())
    }

    /// Release a previous charge when the operator's buffers are dropped.
    /// (Error unwinds skip uncharges by design: the governor dies with the
    /// query, so a failed query's residue is never observable.)
    pub fn uncharge(&self, bytes: u64) {
        // Saturating: a stray double-uncharge must not wrap the counter.
        let mut cur = self.mem_used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.mem_used.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Bytes currently charged.
    pub fn used_bytes(&self) -> u64 {
        self.mem_used.load(Ordering::Relaxed)
    }

    /// High-water mark of tracked memory over the query's lifetime.
    pub fn peak_bytes(&self) -> u64 {
        self.mem_peak.load(Ordering::Relaxed)
    }

    /// The configured byte budget, if any.
    pub fn memory_budget(&self) -> Option<u64> {
        (self.mem_budget != OFF).then_some(self.mem_budget)
    }

    /// Total governor checks performed so far (the cancel-after clock).
    pub fn checks(&self) -> u64 {
        self.checks.load(Ordering::Relaxed)
    }
}

/// Deterministic size estimate for a materialized row buffer: a fixed
/// per-value footprint plus per-row `Vec` overhead. Identical inputs always
/// charge identical byte counts, which keeps budget behaviour reproducible
/// (the same property the optimizer's search budget has).
pub fn rows_bytes(rows: &[Row]) -> u64 {
    const ROW_OVERHEAD: u64 = 24; // Vec header
    let value = std::mem::size_of::<taurus_common::Value>() as u64;
    rows.iter().map(|r| ROW_OVERHEAD + value * r.len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_trips_the_next_check() {
        let g = QueryGovernor::new();
        assert!(g.check().is_ok());
        g.cancel();
        assert_eq!(g.check(), Err(Error::Cancelled));
        assert!(g.is_cancelled());
    }

    #[test]
    fn deadline_converts_to_typed_error() {
        let g = QueryGovernor::new().with_deadline(Duration::ZERO);
        assert_eq!(g.check(), Err(Error::DeadlineExceeded { budget_ms: 0 }));
        let g = QueryGovernor::new().with_deadline(Duration::from_secs(3600));
        assert!(g.check().is_ok(), "a generous deadline passes");
    }

    #[test]
    fn memory_budget_rejects_the_crossing_charge_and_caps_the_peak() {
        let g = QueryGovernor::new().with_memory_budget(100);
        g.charge(60).unwrap();
        assert_eq!(g.used_bytes(), 60);
        // The crossing charge fails and is rolled back entirely.
        assert_eq!(g.charge(50), Err(Error::MemoryExceeded { used: 110, budget: 100 }));
        assert_eq!(g.used_bytes(), 60, "rejected charge leaves no residue");
        assert!(g.peak_bytes() <= 100, "peak never exceeds the budget");
        g.charge(40).unwrap();
        assert_eq!(g.peak_bytes(), 100);
        g.uncharge(100);
        assert_eq!(g.used_bytes(), 0);
        g.uncharge(10);
        assert_eq!(g.used_bytes(), 0, "uncharge saturates at zero");
    }

    #[test]
    fn cancel_after_countdown_is_deterministic() {
        let g = QueryGovernor::new().with_cancel_after(3);
        assert!(g.check().is_ok());
        assert!(g.check().is_ok());
        assert_eq!(g.check(), Err(Error::Cancelled), "third check trips");
        assert_eq!(g.check(), Err(Error::Cancelled), "and it stays cancelled");
        // Degenerate: cancel before any work.
        let g = QueryGovernor::new().with_cancel_after(0);
        assert_eq!(g.check(), Err(Error::Cancelled));
    }

    #[test]
    fn rows_bytes_is_deterministic_and_monotone() {
        use taurus_common::Value;
        let small = vec![vec![Value::Int(1)]];
        let big = vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(3)]];
        assert_eq!(rows_bytes(&small), rows_bytes(&small));
        assert!(rows_bytes(&big) > rows_bytes(&small));
        assert_eq!(rows_bytes(&[]), 0);
    }
}
