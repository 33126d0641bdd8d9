//! The compile-once, serve-many plan cache — sharded for concurrent
//! sessions.
//!
//! Keyed by statement fingerprint ([`taurus_sql::fingerprint`]) *plus* the
//! plan-shaping knobs it was compiled under ([`PlanShape`]), each
//! entry stores the fully refined executable plan compiled under a specific
//! catalog version, together with its optimizer provenance. A hit re-binds
//! the cached [`PlannedQuery`]'s parameters *in place* to the new
//! statement's literal values and serves it by reference — skipping
//! parse-tree resolution, join-order search, plan refinement, and even the
//! plan deep-copy, which is the paper's Table 1 compile overhead amortized
//! across the ROADMAP's "millions of users".
//!
//! # Sharding
//!
//! The table is split into [`NUM_SHARDS`] shards, each behind its own
//! `RwLock`, selected by fingerprint. The hot path (a cached serve) takes
//! only its shard's *read* lock long enough to clone the entry's `Arc` out;
//! rebind and execution then happen under the entry's own interior
//! `Mutex<PlannedQuery>`. Sessions serving different statements therefore
//! never contend: they touch different entry locks, and shard read locks
//! are shared. Only same-statement serves serialize (they must — the plan's
//! bind parameters are rebound in place), and only structural changes
//! (insert, invalidation, eviction, clear) take a shard write lock.
//!
//! Bookkeeping that used to mutate under the global cache lock lives in
//! per-entry atomics (`serves`, `last_used`) and cache-wide atomic counters
//! ([`PlanCacheStats`] is a snapshot of those).
//!
//! # Knobs in the key, version in the entry
//!
//! Plans depend on the plan-shaping knobs (exchange placement, surviving
//! Sort enforcers), so those are part of the cache *key*: sessions running with
//! different per-session knobs coexist, each hitting plans compiled for its
//! own settings, instead of invalidating each other's entries on every
//! serve. The catalog version is *not* part of the key — a version bump
//! (DDL/ANALYZE) must *replace* the entry, not shadow it — so it is
//! validated on lookup: a stale entry is removed under the shard write lock
//! and counted as an invalidation. A plan compiled under stale knobs that
//! re-enters after `clear()` (the insert-after-clear race) is keyed under
//! those stale knobs and can never be found by a current-knob lookup; it
//! ages out via LRU.
//!
//! Eviction is LRU on a logical tick, per shard.

use crate::engine::PlannedQuery;
use crate::knobs::PlanShape;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use taurus_common::sync::{lock, rlock, wlock};

/// Default maximum number of cached statements (across all shards).
pub const DEFAULT_CAPACITY: usize = 256;

/// Number of independently locked cache shards. A power of two so the
/// fingerprint's low bits select uniformly; 16 is plenty for the template
/// counts our workloads carry while keeping the per-shard maps dense.
pub const NUM_SHARDS: usize = 16;

/// Everything a plan's validity depends on that does *not* change the
/// statement's meaning: the statement fingerprint plus the plan-shaping
/// knobs it was compiled under. Two sessions with different knobs get
/// different keys — and therefore different entries — for the same SQL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub fingerprint: u64,
    /// Effective plan-shaping knobs at compile time.
    pub shape: PlanShape,
}

/// Counters surfaced in RouterStats-style reports and the EXPLAIN banner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from cache (after version validation).
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Lookups that found an entry compiled under a stale catalog version
    /// (plus serve-path discards: a refused rebind reclassifies its hit).
    pub invalidations: u64,
    /// Entries inserted after a compile.
    pub insertions: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries evicted because runtime feedback crossed the q-error
    /// threshold; the statement was recompiled with observed
    /// cardinalities injected.
    pub reoptimizations: u64,
}

impl PlanCacheStats {
    /// Hit rate over all lookups, in [0, 1]; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.invalidations + self.reoptimizations;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What a cache lookup concluded — drives the EXPLAIN banner suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    Hit,
    Miss,
    /// An entry existed but was compiled under an older catalog version;
    /// it was dropped and the statement re-optimized.
    Invalidated,
    /// An entry existed and was valid, but its observed executions carried
    /// a worst q-error above the session threshold; it was dropped and the
    /// statement recompiled with the observed cardinalities injected.
    Reoptimized,
}

impl CacheOutcome {
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Invalidated => "invalidated",
            CacheOutcome::Reoptimized => "reoptimized",
        }
    }
}

/// One cached compilation. Shared out of the cache as an `Arc` so the serve
/// path holds no shard lock while it rebinds and executes; the plan itself
/// sits behind the entry's own mutex (in-place rebind requires exclusive
/// access for the duration of the serve).
#[derive(Debug)]
pub struct CacheEntry {
    /// Catalog version the plan was compiled under.
    pub catalog_version: u64,
    /// Optimizer backend name (`"mysql"`, `"orca"`).
    pub optimizer: &'static str,
    /// Whether the plan came from a feedback re-optimization (any branch
    /// skeleton carries the reopt marker). Snapshotted at insert so
    /// [`PlanCache::has_reopt_entry`] needs no plan lock.
    reopt: bool,
    /// Times this entry has been served.
    serves: AtomicU64,
    /// Logical LRU tick of the last lookup that returned this entry.
    last_used: AtomicU64,
    /// The refined, executable plan (with bind parameters embedded).
    planned: Mutex<PlannedQuery>,
}

impl CacheEntry {
    /// Exclusive access to the plan for rebind-and-serve. Poison-recovering:
    /// a panicked serve leaves a structurally sound plan (rebind is a leaf
    /// write of bind values; execution never mutates the plan).
    pub fn planned(&self) -> MutexGuard<'_, PlannedQuery> {
        lock(&self.planned)
    }

    pub fn serves(&self) -> u64 {
        self.serves.load(Ordering::Relaxed)
    }
}

/// What a lookup concluded, with the entry on a hit. Distinguishing
/// `Invalidated` from `Miss` in the return value (rather than by a stats
/// delta) keeps the classification race-free under concurrent lookups.
pub enum Lookup {
    Hit(Arc<CacheEntry>),
    Miss,
    Invalidated,
}

#[derive(Default)]
struct AtomicStats {
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    reoptimizations: AtomicU64,
}

/// Decrement without wrapping below zero (reclassification of a hit whose
/// serve was refused; concurrent discards of the same entry race benignly —
/// only the remover reclassifies).
fn saturating_dec(a: &AtomicU64) {
    let mut cur = a.load(Ordering::Relaxed);
    while cur > 0 {
        match a.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

type Shard = HashMap<CacheKey, Arc<CacheEntry>>;

/// Fingerprint-keyed, sharded LRU plan cache. All methods take `&self`;
/// interior locks are poison-recovering (see [`taurus_common::sync`]).
pub struct PlanCache {
    shards: Vec<RwLock<Shard>>,
    /// Per-shard entry budget (global capacity / shard count).
    shard_capacity: usize,
    tick: AtomicU64,
    stats: AtomicStats,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_CAPACITY)
    }
}

impl PlanCache {
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            shards: (0..NUM_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            shard_capacity: (capacity.max(1)).div_ceil(NUM_SHARDS).max(1),
            tick: AtomicU64::new(0),
            stats: AtomicStats::default(),
        }
    }

    fn shard(&self, key: &CacheKey) -> &RwLock<Shard> {
        &self.shards[(key.fingerprint as usize) % NUM_SHARDS]
    }

    /// Look up a key, validating the entry against the caller's snapshot of
    /// the catalog version. The hot path holds only the shard read lock,
    /// and only long enough to clone the `Arc` out. A stale entry is
    /// removed under the shard write lock and counted as an invalidation
    /// (the caller re-compiles and re-inserts); the removal re-checks under
    /// the write lock, so racing lookups that already saw a fresh
    /// replacement are not clobbered.
    pub fn lookup(&self, key: &CacheKey, catalog_version: u64) -> Lookup {
        let shard = self.shard(key);
        {
            let map = rlock(shard);
            match map.get(key) {
                None => {
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Miss;
                }
                Some(e) if e.catalog_version == catalog_version => {
                    let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
                    e.last_used.store(tick, Ordering::Relaxed);
                    e.serves.fetch_add(1, Ordering::Relaxed);
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Hit(Arc::clone(e));
                }
                Some(_) => {}
            }
        }
        // Stale under our version snapshot: upgrade to the write lock and
        // re-check — a concurrent serve may have replaced the entry with a
        // current compile meanwhile.
        let mut map = wlock(shard);
        match map.get(key) {
            Some(e) if e.catalog_version != catalog_version => {
                map.remove(key);
                self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
                Lookup::Invalidated
            }
            Some(e) => {
                let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
                e.last_used.store(tick, Ordering::Relaxed);
                e.serves.fetch_add(1, Ordering::Relaxed);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit(Arc::clone(e))
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss
            }
        }
    }

    /// Insert a freshly compiled plan, evicting the least-recently-used
    /// entry of the shard if it is full.
    pub fn insert(
        &self,
        key: &CacheKey,
        catalog_version: u64,
        optimizer: &'static str,
        planned: PlannedQuery,
    ) {
        let reopt = planned.branches.iter().any(|b| b.skeleton.reopt.is_some());
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = Arc::new(CacheEntry {
            catalog_version,
            optimizer,
            reopt,
            serves: AtomicU64::new(0),
            last_used: AtomicU64::new(tick),
            planned: Mutex::new(planned),
        });
        let mut map = wlock(self.shard(key));
        if map.len() >= self.shard_capacity && !map.contains_key(key) {
            if let Some(&victim) =
                map.iter().min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed)).map(|(k, _)| k)
            {
                map.remove(&victim);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.stats.insertions.fetch_add(1, Ordering::Relaxed);
        map.insert(*key, entry);
    }

    /// Drop one entry after its `lookup` succeeded but the plan could not
    /// actually be served (e.g. parameter rebinding refused the binds).
    /// Reclassifies the lookup's hit as an invalidation so the counters
    /// describe what the serve path really did.
    pub fn discard(&self, key: &CacheKey) {
        if wlock(self.shard(key)).remove(key).is_some() {
            saturating_dec(&self.stats.hits);
            self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// True when `key` maps to an entry that was produced by a feedback
    /// re-optimization and is still valid under the caller's catalog
    /// version. The serve paths compile on a miss *without* holding any
    /// cache lock, so an in-flight static compile can try to insert after
    /// a concurrent serve re-optimized the same statement; overwriting
    /// would resurrect the misestimated plan — and pin it, because the
    /// feedback store's applied-observations snapshot then suppresses a
    /// second re-optimization. Callers use this to skip such inserts. A
    /// stale re-optimized entry does not block (it can no longer be served
    /// anyway).
    pub fn has_reopt_entry(&self, key: &CacheKey, catalog_version: u64) -> bool {
        rlock(self.shard(key))
            .get(key)
            .is_some_and(|e| e.catalog_version == catalog_version && e.reopt)
    }

    /// Drop one entry whose `lookup` succeeded because runtime feedback
    /// demands a re-optimization: the serve path recompiles the statement
    /// with observed cardinalities injected and re-inserts the result.
    /// Reclassifies the lookup's hit as a re-optimization so the counters
    /// describe what the serve path really did.
    pub fn discard_reopt(&self, key: &CacheKey) {
        if wlock(self.shard(key)).remove(key).is_some() {
            saturating_dec(&self.stats.hits);
            self.stats.reoptimizations.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| rlock(s).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| rlock(s).is_empty())
    }

    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            invalidations: self.stats.invalidations.load(Ordering::Relaxed),
            insertions: self.stats.insertions.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            reoptimizations: self.stats.reoptimizations.load(Ordering::Relaxed),
        }
    }

    /// Drop all entries; counters survive (they describe the session).
    pub fn clear(&self) {
        for shard in &self.shards {
            wlock(shard).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Knobs the dummy entries are compiled under in these tests.
    const SHAPE: PlanShape = PlanShape { dop: 1, parallel_threshold: 1024, order_opt: true };

    fn key(fingerprint: u64) -> CacheKey {
        CacheKey { fingerprint, shape: SHAPE }
    }

    fn dummy_plan() -> PlannedQuery {
        PlannedQuery { branches: vec![], columns: vec![] }
    }

    fn hit(c: &PlanCache, k: &CacheKey, version: u64) -> bool {
        matches!(c.lookup(k, version), Lookup::Hit(_))
    }

    #[test]
    fn hit_miss_and_version_invalidation() {
        let c = PlanCache::new(8);
        assert!(matches!(c.lookup(&key(1), 0), Lookup::Miss));
        c.insert(&key(1), 0, "mysql", dummy_plan());
        assert!(hit(&c, &key(1), 0));
        // Catalog moved: the entry is stale, dropped, and counted.
        assert!(matches!(c.lookup(&key(1), 1), Lookup::Invalidated));
        assert!(
            matches!(c.lookup(&key(1), 1), Lookup::Miss),
            "stale entry was removed -> plain miss"
        );
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn knob_mismatch_is_a_distinct_key() {
        // A plan compiled under dop=1 must not be served at dop=4 (and vice
        // versa for the parallel threshold): the knobs are part of the key,
        // so mismatched-knob sessions simply miss — and, once both compile,
        // coexist without evicting each other. (Variants share a shard —
        // the fingerprint picks it — so give the shard room for both.)
        let c = PlanCache::new(2 * NUM_SHARDS);
        c.insert(&key(1), 0, "mysql", dummy_plan());
        let dop4 = CacheKey { fingerprint: 1, shape: PlanShape { dop: 4, ..SHAPE } };
        assert!(matches!(c.lookup(&dop4, 0), Lookup::Miss), "dop changed");
        let thr8 = CacheKey { fingerprint: 1, shape: PlanShape { parallel_threshold: 8, ..SHAPE } };
        assert!(matches!(c.lookup(&thr8, 0), Lookup::Miss), "threshold changed");
        c.insert(&dop4, 0, "mysql", dummy_plan());
        assert!(hit(&c, &key(1), 0), "original knobs still serve");
        assert!(hit(&c, &dop4, 0), "dop=4 session serves its own plan");
        assert_eq!(c.len(), 2, "knob variants coexist");
    }

    #[test]
    fn lru_eviction_prefers_cold_entries() {
        // Same-shard fingerprints (multiples of NUM_SHARDS) with a
        // 2-entry-per-shard budget.
        let c = PlanCache::new(2 * NUM_SHARDS);
        let f = |i: u64| key(i * NUM_SHARDS as u64);
        c.insert(&f(1), 0, "mysql", dummy_plan());
        c.insert(&f(2), 0, "mysql", dummy_plan());
        assert!(hit(&c, &f(1), 0)); // warm 1
        c.insert(&f(3), 0, "mysql", dummy_plan()); // evicts 2
        assert!(hit(&c, &f(1), 0));
        assert!(matches!(c.lookup(&f(2), 0), Lookup::Miss));
        assert!(hit(&c, &f(3), 0));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn discard_reopt_reclassifies_the_hit() {
        let c = PlanCache::new(4);
        c.insert(&key(1), 0, "mysql", dummy_plan());
        assert!(hit(&c, &key(1), 0));
        c.discard_reopt(&key(1));
        let s = c.stats();
        assert_eq!((s.hits, s.reoptimizations, s.invalidations), (0, 1, 0));
        assert!(c.is_empty());
        // Discarding an absent entry is a no-op.
        c.discard_reopt(&key(1));
        assert_eq!(c.stats().reoptimizations, 1);
    }

    #[test]
    fn hit_rate_reflects_all_lookup_kinds() {
        let c = PlanCache::new(4);
        c.insert(&key(1), 0, "mysql", dummy_plan());
        c.lookup(&key(1), 0);
        c.lookup(&key(1), 0);
        c.lookup(&key(2), 0);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(PlanCacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_lookups_share_read_locks_and_count_exactly() {
        let c = std::sync::Arc::new(PlanCache::new(64));
        for i in 0..8u64 {
            c.insert(&key(i), 0, "mysql", dummy_plan());
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        assert!(hit(&c, &key((t + i) % 8), 0));
                    }
                });
            }
        });
        assert_eq!(c.stats().hits, 400);
        assert_eq!(c.len(), 8);
    }
}
