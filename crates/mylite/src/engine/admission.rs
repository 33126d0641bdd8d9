//! Admission and governance: who may execute, under what limits, and how a
//! governed execution is registered, cancelled, and retried.

use super::serve::ServeCx;
use super::{CostBasedOptimizer, Engine, ExecFaults, GovernedOutcome, PlannedQuery, QueryOutput};
use crate::explain::NodeAnnotation;
use crate::knobs::Knobs;
use crate::sync::lock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use taurus_common::error::{Error, Result};
use taurus_executor::{GovernorSpec, Plan, QueryGovernor};

/// The admission gate: at most `limit` callers execute at once, so they
/// don't all contend for the morsel pool.
pub(super) struct AdmissionGate {
    /// Fast path: executing entry points CAS `admitted` below `limit`
    /// before doing any work.
    admitted: AtomicUsize,
    limit: AtomicUsize,
    /// Queued-waiter count; a releasing permit only touches the condvar
    /// mutex when somebody is actually waiting.
    waiters: AtomicUsize,
    /// Slow path: waiters park here. The mutex guards nothing but the
    /// wait itself (the gate state is the atomics above).
    mu: Mutex<()>,
    cv: Condvar,
}

impl AdmissionGate {
    pub(super) fn new() -> AdmissionGate {
        AdmissionGate {
            admitted: AtomicUsize::new(0),
            limit: AtomicUsize::new(usize::MAX),
            waiters: AtomicUsize::new(0),
            mu: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn set_limit(&self, limit: usize) {
        self.limit.store(limit.max(1), Ordering::SeqCst);
        // Take the waiter mutex so the notify cannot slip between a
        // waiter's re-check and its park.
        let _g = lock(&self.mu);
        self.cv.notify_all();
    }

    /// One CAS attempt at the admission fast path.
    fn try_admit(&self) -> bool {
        self.admitted
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                (c < self.limit.load(Ordering::SeqCst)).then(|| c + 1)
            })
            .is_ok()
    }

    /// Take an admission slot. The uncontended path is a single CAS; a
    /// caller over the limit parks on the condvar — bounded by its
    /// effective deadline (`deadline_ms`, 0 = none), so a queued query
    /// returns `DeadlineExceeded` instead of sitting past its budget (it
    /// never started executing, so nothing needs unwinding).
    pub(super) fn admit(&self, deadline_ms: u64) -> Result<AdmissionPermit<'_>> {
        if self.try_admit() {
            return Ok(AdmissionPermit { gate: self });
        }
        let deadline =
            (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));
        let mut parked = lock(&self.mu);
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let admitted = loop {
            // Re-check under the mutex: a permit released after our fast
            // path failed notifies under this same mutex, so the slot
            // cannot vanish between this check and the park below.
            if self.try_admit() {
                break Ok(());
            }
            match deadline {
                None => {
                    parked = self.cv.wait(parked).unwrap_or_else(|e| e.into_inner());
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        break Err(Error::DeadlineExceeded { budget_ms: deadline_ms });
                    }
                    parked =
                        self.cv.wait_timeout(parked, d - now).unwrap_or_else(|e| e.into_inner()).0;
                }
            }
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        drop(parked);
        admitted.map(|()| AdmissionPermit { gate: self })
    }
}

/// RAII admission slot: releasing it wakes one queued caller.
pub(super) struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.gate.admitted.fetch_sub(1, Ordering::SeqCst);
        if self.gate.waiters.load(Ordering::SeqCst) > 0 {
            // Lock the waiter mutex so the notify cannot land between a
            // waiter's failed re-check and its park (the classic lost
            // wake-up); see `AdmissionGate::admit`.
            let _parked = lock(&self.gate.mu);
            self.gate.cv.notify_one();
        }
    }
}

/// Number of independently locked in-flight registry shards (query-id
/// keyed; registration/finish touch one shard each).
const IN_FLIGHT_SHARDS: usize = 8;

/// The registry of executing queries' governors.
pub(super) struct Governors {
    /// Chaos knob: cancel each query at its N-th governor check (0 = off).
    cancel_after: AtomicU64,
    /// Query-id allocator for [`Engine::cancel`].
    next_query_id: AtomicU64,
    /// Governors of currently executing queries, sharded by query id.
    in_flight: Vec<Mutex<HashMap<u64, Arc<QueryGovernor>>>>,
    /// Peak tracked memory of the most recently finished governed query.
    last_peak: AtomicU64,
}

impl Governors {
    pub(super) fn new() -> Governors {
        Governors {
            cancel_after: AtomicU64::new(0),
            next_query_id: AtomicU64::new(1),
            in_flight: (0..IN_FLIGHT_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            last_peak: AtomicU64::new(0),
        }
    }

    fn shard(&self, id: u64) -> &Mutex<HashMap<u64, Arc<QueryGovernor>>> {
        &self.in_flight[(id as usize) % IN_FLIGHT_SHARDS]
    }

    /// Build and register the governor for one execution from the resolved
    /// knobs plus any chaos overrides the optimizer's fault injector
    /// supplies.
    fn start(&self, faults: ExecFaults, knobs: &Knobs) -> (u64, Arc<QueryGovernor>) {
        let mut budget = knobs.memory_budget;
        if let Some(clamp) = faults.memory_clamp {
            budget = if budget == 0 { clamp } else { budget.min(clamp) };
        }
        let cancel = match faults.cancel_after {
            Some(c) => c.max(1),
            None => self.cancel_after.load(Ordering::Relaxed),
        };
        let governor = Arc::new(QueryGovernor::from_spec(GovernorSpec {
            deadline_ms: knobs.deadline_ms,
            memory_budget: budget,
            cancel_after: cancel,
        }));
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        lock(self.shard(id)).insert(id, governor.clone());
        (id, governor)
    }

    fn finish(&self, id: u64, governor: &QueryGovernor) {
        lock(self.shard(id)).remove(&id);
        self.last_peak.store(governor.peak_bytes(), Ordering::Relaxed);
    }
}

impl Engine {
    /// Cap concurrent executions. Callers over the limit block until a slot
    /// frees (or their deadline expires); planning-only entry points
    /// (`plan`, `explain`) are not gated.
    pub fn set_admission_limit(&self, limit: usize) {
        self.admission.set_limit(limit);
    }

    /// Per-query wall-clock budget for executing entry points. `None`
    /// removes the deadline.
    pub fn set_deadline(&self, budget: Option<Duration>) {
        let ms = budget.map(|d| (d.as_millis() as u64).max(1)).unwrap_or(0);
        self.set_default(&self.defaults.deadline_ms, ms);
    }

    /// Per-query budget for tracked operator memory (hash builds, sort
    /// buffers, materializations). `None` removes the budget.
    pub fn set_memory_budget(&self, bytes: Option<u64>) {
        self.set_default(&self.defaults.memory_budget, bytes.map(|b| b.max(1)).unwrap_or(0));
    }

    /// Chaos knob: cancel every subsequent query at its N-th governor
    /// check (deterministic mid-query cancel points for fuzzing). `None`
    /// disables it.
    pub fn set_cancel_after(&self, checks: Option<u64>) {
        self.governors.cancel_after.store(checks.map(|c| c.max(1)).unwrap_or(0), Ordering::Relaxed);
    }

    /// Cancel a running query by id. Returns whether the id was in flight;
    /// the query itself unwinds with `Error::Cancelled` at its next operator
    /// or morsel boundary.
    pub fn cancel(&self, query_id: u64) -> bool {
        match lock(self.governors.shard(query_id)).get(&query_id) {
            Some(g) => {
                g.cancel();
                true
            }
            None => false,
        }
    }

    /// Ids of currently executing queries (for `Engine::cancel` callers on
    /// other threads).
    pub fn in_flight_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .governors
            .in_flight
            .iter()
            .flat_map(|s| lock(s).keys().copied().collect::<Vec<_>>())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Peak tracked memory (bytes) of the most recently finished governed
    /// query — what the governance harness gates against the budget.
    pub fn last_peak_bytes(&self) -> u64 {
        self.governors.last_peak.load(Ordering::Relaxed)
    }
}

impl ServeCx<'_> {
    /// Execute a planned query under a fresh governor, with the memory
    /// degradation rung: a `MemoryExceeded` first attempt is retried once
    /// as serial execution (exchanges forced to dop=1, so no repartition
    /// buffers materialize) under a fresh governor with the same limits. An
    /// observed run (`EXPLAIN ANALYZE`) reports the plan it was asked
    /// about, so it surfaces the error instead of degrading. Governance
    /// outcomes are reported to the optimizer either way.
    pub(super) fn governed_execute(
        &self,
        planned: &PlannedQuery,
        mut observed: Option<&mut Vec<NodeAnnotation>>,
    ) -> Result<QueryOutput> {
        let (governors, knobs) = (&self.engine.governors, self.knobs);
        let attempt = |planned: &PlannedQuery, observed: Option<&mut Vec<NodeAnnotation>>| {
            let (id, governor) = governors.start(self.opt.exec_faults().unwrap_or_default(), knobs);
            let out = self.engine.execute_branches(
                self.cat,
                planned,
                Some(&governor),
                knobs.morsel_rows,
                observed,
            );
            governors.finish(id, &governor);
            out
        };
        let result = match attempt(planned, observed.as_deref_mut()) {
            Err(Error::MemoryExceeded { .. }) if observed.is_none() => {
                attempt(&degrade_serial(planned), None)
                    .inspect(|_| self.opt.note_governed(GovernedOutcome::MemoryDegraded))
            }
            first => first,
        };
        if let Err(e) = &result {
            note_governed_error(self.opt, e);
        }
        result
    }
}

/// The memory degradation rung: a copy of the plan with every exchange
/// forced to dop=1, so it executes serially (no repartition phase buffers,
/// no worker fan-out). Rewriting the *executed* plan — rather than
/// re-refining from the bound statement — keeps any in-place parameter
/// rebinds a cached serve applied.
fn degrade_serial(planned: &PlannedQuery) -> PlannedQuery {
    fn force_serial(plan: &mut Plan) {
        if let Plan::Exchange { dop, .. } = plan {
            *dop = 1;
        }
        for child in plan.children_mut() {
            force_serial(child);
        }
    }
    let mut serial = planned.clone();
    for b in &mut serial.branches {
        force_serial(&mut b.plan);
    }
    serial
}

/// Report a governance failure to the optimizer that planned the statement.
/// Non-governance errors are the statement's own business and stay unnoted.
fn note_governed_error(opt: &dyn CostBasedOptimizer, e: &Error) {
    let outcome = match e {
        Error::Cancelled => GovernedOutcome::Cancelled,
        Error::DeadlineExceeded { .. } => GovernedOutcome::DeadlineExceeded,
        Error::MemoryExceeded { .. } => GovernedOutcome::MemoryExceeded,
        _ => return,
    };
    opt.note_governed(outcome);
}
