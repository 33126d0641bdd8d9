//! Admission and governance: who may execute, under what limits, and how a
//! governed execution is registered, cancelled, and retried.

use super::serve::ServeCx;
use super::{Engine, PlannedQuery, QueryOutput};
use crate::explain::NodeAnnotation;
use crate::knobs::Knobs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use taurus_common::error::{Error, Result};
use taurus_common::sync::lock;
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

/// Per-outcome counters for governed executions: how statements ended when
/// governance intervened. `memory_degraded` counts rescues (the serial
/// retry succeeded — not a failure); the other three count statements that
/// surfaced a typed governance error to their caller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernedCounts {
    /// Executions stopped by [`Engine::cancel`] or a cancel point.
    pub cancelled: u64,
    /// Executions that outran their wall-clock deadline.
    pub deadline_exceeded: u64,
    /// Executions over their memory budget even at the serial rung.
    pub memory_exceeded: u64,
    /// Parallel executions over budget that completed after the engine's
    /// serial retry.
    pub memory_degraded: u64,
}

impl GovernedCounts {
    pub fn total(&self) -> u64 {
        self.cancelled + self.deadline_exceeded + self.memory_exceeded + self.memory_degraded
    }
}

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
    /// [`GovernedCounts`], one atomic per field in declaration order.
    outcomes: [AtomicU64; 4],
}

impl Governors {
    pub(super) fn new() -> Governors {
        Governors {
            cancel_after: AtomicU64::new(0),
            next_query_id: AtomicU64::new(1),
            in_flight: (0..IN_FLIGHT_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            last_peak: AtomicU64::new(0),
            outcomes: Default::default(),
        }
    }

    fn shard(&self, id: u64) -> &Mutex<HashMap<u64, Arc<QueryGovernor>>> {
        &self.in_flight[(id as usize) % IN_FLIGHT_SHARDS]
    }

    /// Build and register the governor for one execution from the resolved
    /// knobs and the chaos cancel point.
    fn start(&self, knobs: &Knobs) -> (u64, Arc<QueryGovernor>) {
        let governor = Arc::new(QueryGovernor::from_spec(GovernorSpec {
            deadline_ms: knobs.deadline_ms,
            memory_budget: knobs.memory_budget,
            cancel_after: self.cancel_after.load(Ordering::Relaxed),
        }));
        let id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        lock(self.shard(id)).insert(id, governor.clone());
        (id, governor)
    }

    fn finish(&self, id: u64, governor: &QueryGovernor) {
        lock(self.shard(id)).remove(&id);
        self.last_peak.store(governor.peak_bytes(), Ordering::Relaxed);
    }

    /// Count a governed execution's outcome. Errors that are not
    /// governance's (the statement's own) stay uncounted.
    fn count(&self, result: &Result<QueryOutput>, degraded: bool) {
        let slot = match result {
            Ok(_) if degraded => 3,
            Err(Error::Cancelled) => 0,
            Err(Error::DeadlineExceeded { .. }) => 1,
            Err(Error::MemoryExceeded { .. }) => 2,
            _ => return,
        };
        self.outcomes[slot].fetch_add(1, Ordering::Relaxed);
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

    /// How governed executions on this engine ended when governance
    /// intervened, whichever optimizer planned them.
    pub fn governed_stats(&self) -> GovernedCounts {
        let [cancelled, deadline_exceeded, memory_exceeded, memory_degraded] =
            self.governors.outcomes.each_ref().map(|n| n.load(Ordering::Relaxed));
        GovernedCounts { cancelled, deadline_exceeded, memory_exceeded, memory_degraded }
    }
}

impl ServeCx<'_> {
    /// Execute a planned query under a fresh governor, with the memory
    /// degradation rung: a `MemoryExceeded` first attempt is retried once
    /// as serial execution (exchanges forced to dop=1, so no repartition
    /// buffers materialize) under a fresh governor with the same limits. An
    /// observed run (`EXPLAIN ANALYZE`) reports the plan it was asked
    /// about, so it surfaces the error instead of degrading. Governance
    /// outcomes are counted in [`Engine::governed_stats`] either way.
    pub(super) fn governed_execute(
        &self,
        planned: &PlannedQuery,
        mut observed: Option<&mut Vec<NodeAnnotation>>,
    ) -> Result<QueryOutput> {
        let (governors, knobs) = (&self.engine.governors, self.knobs);
        let attempt = |planned: &PlannedQuery, observed: Option<&mut Vec<NodeAnnotation>>| {
            let (id, governor) = governors.start(knobs);
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
        let (result, degraded) = match attempt(planned, observed.as_deref_mut()) {
            Err(Error::MemoryExceeded { .. }) if observed.is_none() => {
                (attempt(&degrade_serial(planned), None), true)
            }
            first => (first, false),
        };
        governors.count(&result, degraded);
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
