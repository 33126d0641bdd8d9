//! Poison-recovering lock helpers shared by every crate that guards state
//! with a `Mutex` or `RwLock`.
//!
//! Every such lock guards plain data (maps, counters, plans, result caches)
//! whose invariants hold between statements, and execution runs under
//! `catch_unwind` isolation — so a panic while a guard is held leaves
//! structurally sound data behind. Propagating the poison as a second panic
//! would brick every later session sharing the engine; recovering the guard
//! keeps the server serving. (A panicked *query* still fails; only the
//! shared state survives.)

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock a mutex, recovering the data if a previous holder panicked.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Acquire a shared read guard, recovering from poison.
pub fn rlock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// Acquire an exclusive write guard, recovering from poison.
pub fn wlock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}
