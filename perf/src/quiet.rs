//! Waiting for a quiet machine.
//!
//! The reference box is shared: for seconds to tens of seconds at a time a
//! neighbour takes a core down by 5 – 28 %, in steps, and a run that falls
//! into such a stretch reads that much slower whatever the code does. The
//! gate times a fixed piece of arithmetic before each segment of a timed
//! section (and before each set-up) and holds the segment back while the
//! probe reads slower than the fastest probe this process has seen, up to a
//! budget of waiting per run. It changes when a segment is measured, never
//! what is measured; what it could not wait out shows as its `waited` note.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A probe this much slower than the fastest one seen means a busy core.
/// The box's slow steps start at +5 %; a quiet core repeats within 1 %.
const TOLERANCE: f64 = 1.03;
const NAP: Duration = Duration::from_millis(20);

pub struct Gate {
    floor_ns: AtomicU64,
    budget: Duration,
    waited_ns: AtomicU64,
    /// Set by any thread whose probe of the current round read slow.
    slow: AtomicBool,
}

/// About 2 ms of dependent integer arithmetic: nothing to cache, nothing to
/// allocate, so its time moves only with the core's speed.
fn probe_ns() -> u64 {
    let started = Instant::now();
    let mut x = 1u64;
    for i in 0..12_000_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    black_box(x);
    started.elapsed().as_nanos() as u64
}

impl Gate {
    /// A gate that will wait at most `budget` in total.
    pub fn new(budget: Duration) -> Gate {
        let floor_ns = (0..10).map(|_| probe_ns()).min().expect("ten probes");
        Gate {
            floor_ns: AtomicU64::new(floor_ns),
            budget,
            waited_ns: AtomicU64::new(0),
            slow: AtomicBool::new(false),
        }
    }

    /// Return when the core looks quiet, or when the budget is spent.
    pub fn wait(&self) {
        self.wait_together(&Barrier::new(1));
    }

    /// [`Gate::wait`] for a group of threads that measure together: every
    /// thread of `threads` calls this, all probe at the same moment, and
    /// all return together once every probe read quiet — two threads
    /// squeezed onto one core read as slow as one thread on a busy core.
    pub fn wait_together(&self, threads: &Barrier) {
        loop {
            threads.wait();
            let began = Instant::now();
            let probe = probe_ns();
            self.floor_ns.fetch_min(probe, SeqCst);
            threads.wait();
            if probe as f64 > self.floor_ns.load(SeqCst) as f64 * TOLERANCE {
                self.slow.store(true, SeqCst);
            }
            let leader = threads.wait().is_leader();
            let retry = self.slow.load(SeqCst) && self.waited() < self.budget;
            threads.wait();
            // Every thread has read the verdict; the leader clears it before
            // it can reach the next round's first barrier.
            if leader {
                self.slow.store(false, SeqCst);
            }
            if !retry {
                return;
            }
            std::thread::sleep(NAP);
            if leader {
                self.waited_ns.fetch_add(began.elapsed().as_nanos() as u64, SeqCst);
            }
        }
    }

    pub fn waited(&self) -> Duration {
        Duration::from_nanos(self.waited_ns.load(SeqCst))
    }

    pub fn floor_ms(&self) -> f64 {
        self.floor_ns.load(SeqCst) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_spent_budget_never_blocks() {
        let gate = Gate::new(Duration::ZERO);
        // An impossible floor makes every probe look slow; with no budget
        // left the gate must still open at once.
        gate.floor_ns.store(1, SeqCst);
        let began = Instant::now();
        gate.wait();
        assert!(began.elapsed() < Duration::from_secs(2));
        assert_eq!(gate.waited(), Duration::ZERO);
    }

    #[test]
    fn waiting_is_charged_to_the_budget() {
        let gate = Gate::new(Duration::from_millis(50));
        gate.floor_ns.store(1, SeqCst);
        gate.wait();
        assert!(gate.waited() >= Duration::from_millis(50));
        assert!(gate.waited() < Duration::from_secs(2));
        assert!(gate.floor_ms() > 0.0);
    }

    #[test]
    fn threads_sit_out_the_same_rounds() {
        let gate = Gate::new(Duration::from_millis(60));
        gate.floor_ns.store(1, SeqCst);
        let threads = Barrier::new(3);
        // A thread leaving a round before the others would strand them at
        // the next barrier, so returning at all shows they left together.
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| gate.wait_together(&threads));
            }
        });
        // The budget is charged once per round, not once per thread.
        assert!(gate.waited() >= Duration::from_millis(60));
        assert!(gate.waited() < Duration::from_secs(2));
        assert!(!gate.slow.load(SeqCst));
    }
}
