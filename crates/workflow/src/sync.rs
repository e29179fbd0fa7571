//! The engine's one way to take a lock.
//!
//! A panic while a `std::sync::Mutex` is held poisons it, and every
//! later `lock()` then fails. The engine is built so that no such panic
//! leaves shared state half-updated: operator panics (real or injected
//! by a [`crate::fault::FaultPlan`]) are caught per quantum and turned
//! into a `Failed` operator, mailboxes and run queues are plain queues
//! whose every push and pop is complete or not begun, sink buffers only
//! ever grow by whole tuples, and cache state is seal-once — entries
//! are inserted whole and recording buffers are rebuilt from marks on
//! every tee. So the state behind a poisoned lock is still consistent
//! and `into_inner` is safe. Without this, a panic fault landing while
//! a recording sink holds its buffer lock would cascade panics into
//! every unrelated tenant sharing the service pool and cache.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Lock `m`, recovering the guard from a poisoned mutex.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `cv`, recovering the guard like [`lock`].
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `cv` for at most `timeout`, recovering the guard like
/// [`lock`]. Callers re-check their condition either way, so whether
/// the wait timed out is not reported.
pub(crate) fn wait_for<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    let (guard, _timed_out) = cv
        .wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner);
    guard
}
