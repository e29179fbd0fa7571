//! Per-operator retry policy with bounded exponential backoff.
//!
//! The paper's GUI-paradigm pitch (§III-A) is operator-level isolation:
//! a fault should cost one operator's quantum, not the pipeline. The
//! fault harness ([`crate::fault`]) made injected failures deterministic
//! and the drain path made them survivable; this module makes them
//! *recoverable*. A [`RetryPolicy`] gives each operator a budget of
//! replays, spent by one rule: **a fault replays what the faulted step
//! still held, and fails the operator when it held nothing.**
//!
//! * *What is held.* While budget is left, the pooled executor holds each
//!   step's input until the operator has processed it — the whole input
//!   (a mailbox batch, sealed or rows, or a source chunk) or, for an input
//!   armed by an injected [`crate::fault`] trigger, the tail behind the
//!   fault position (the tuples before it were processed and forwarded).
//!   An error or panic in the operator's step, an injected kill, an
//!   injected panic or a poisoned mailbox batch (a kill before the
//!   batch's first tuple) discards the step's partial output and replays
//!   the held input after the backoff, exactly once per tuple.
//! * *What fails instead.* A fault with nothing held — a panic in a port
//!   completion or in routing, or any fault past the budget — fails the
//!   operator and takes the drain path, as an `Err` from a port
//!   completion does. A dropped end-of-stream is not a step fault and
//!   no budget absorbs it: the run stalls and fails
//!   ([`crate::WorkflowError::Stalled`]). The simulator replays a faulted
//!   batch whole, as a virtual quantum.
//!
//! Policies are carried by [`crate::EngineConfig::retry`] (so both
//! engines share one configuration surface) or handed straight to
//! [`crate::LiveExecutor::with_retry`]. The default [`RetryConfig`] is
//! disabled (`max_attempts = 0`): runs without an explicit policy are
//! byte-identical to the pre-retry engine.

use std::time::Duration;

/// Bounded exponential backoff between retry attempts.
///
/// The `i`-th retry (0-based) waits `base * factor^i`, capped at
/// `cap`. The pooled executor never sleeps a worker for it: the retried
/// task is parked until the backoff elapses while its worker runs other
/// tasks, so backoff throttles the faulting operator without blocking
/// the rest of the pool. The simulator lets it elapse on the virtual
/// clock.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use scriptflow_workflow::retry::Backoff;
///
/// let b = Backoff::default();
/// assert_eq!(b.delay(0), Duration::from_millis(1));
/// assert_eq!(b.delay(1), Duration::from_millis(2));
/// assert_eq!(b.delay(30), b.cap, "growth is bounded by the cap");
/// assert_eq!(Backoff::none().delay(5), Duration::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry.
    pub base: Duration,
    /// Multiplier applied per subsequent retry.
    pub factor: u32,
    /// Upper bound on any single delay.
    pub cap: Duration,
}

impl Backoff {
    /// No delay between attempts (tests and latency-critical paths).
    pub const fn none() -> Self {
        Backoff {
            base: Duration::ZERO,
            factor: 1,
            cap: Duration::ZERO,
        }
    }

    /// The delay before the `retry`-th replay (0-based), bounded by
    /// [`Backoff::cap`].
    pub fn delay(&self, retry: u32) -> Duration {
        let mult = self.factor.max(1).saturating_pow(retry.min(16));
        self.base.saturating_mul(mult).min(self.cap)
    }
}

impl Default for Backoff {
    /// 1 ms doubling per retry, capped at 20 ms — long enough to let a
    /// transient condition clear, short enough that a full default
    /// budget costs single-digit milliseconds.
    fn default() -> Self {
        Backoff {
            base: Duration::from_millis(1),
            factor: 2,
            cap: Duration::from_millis(20),
        }
    }
}

/// Retry budget for one operator: how many times a faulted run quantum
/// may be replayed before the operator degrades to the drain path.
///
/// # Examples
///
/// ```
/// use scriptflow_workflow::retry::RetryPolicy;
///
/// assert_eq!(RetryPolicy::default().max_attempts, 3);
/// assert!(RetryPolicy::default().enabled());
/// assert!(!RetryPolicy::disabled().enabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum quantum replays per operator worker. `0` disables
    /// retries entirely (the pre-retry drain behavior, byte-identical).
    pub max_attempts: u32,
    /// Delay schedule between replays.
    pub backoff: Backoff,
}

impl RetryPolicy {
    /// No retries: every fault takes the drain path immediately.
    pub const fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 0,
            backoff: Backoff::none(),
        }
    }

    /// A policy with `max_attempts` replays and the default backoff.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    /// Builder-style setter for the backoff schedule.
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// True when this policy allows at least one replay.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 0
    }
}

impl Default for RetryPolicy {
    /// Three replays with the default exponential backoff.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Backoff::default(),
        }
    }
}

/// Engine-level retry configuration: the one [`RetryPolicy`] every
/// operator runs under.
///
/// The [`Default`] configuration is fully disabled, so an
/// [`crate::EngineConfig`] built without touching `retry` reproduces
/// the pre-retry engines exactly.
///
/// # Examples
///
/// ```
/// use scriptflow_workflow::retry::{RetryConfig, RetryPolicy};
///
/// let cfg = RetryConfig::uniform(RetryPolicy::attempts(3));
/// assert_eq!(cfg.policy.max_attempts, 3);
/// assert!(cfg.enabled());
/// assert!(!RetryConfig::default().enabled());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryConfig {
    /// The policy every operator runs under.
    pub policy: RetryPolicy,
}

impl Default for RetryConfig {
    /// Disabled for every operator — deliberately *not* the derived
    /// default (which would inherit `RetryPolicy::default()`'s three
    /// attempts): `EngineConfig::default()` embeds this and must
    /// reproduce the pre-retry engines byte-for-byte.
    fn default() -> Self {
        RetryConfig::uniform(RetryPolicy::disabled())
    }
}

impl RetryConfig {
    /// One policy for every operator.
    pub fn uniform(policy: RetryPolicy) -> Self {
        RetryConfig { policy }
    }

    /// True when operators may retry.
    pub fn enabled(&self) -> bool {
        self.policy.enabled()
    }
}

/// One operator worker's retry bookkeeping, shared by both engines: the
/// policy resolved for its operator once, and the replays spent.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetryBudget {
    policy: RetryPolicy,
    used: u32,
}

impl RetryBudget {
    pub(crate) fn new(policy: RetryPolicy) -> Self {
        RetryBudget { policy, used: 0 }
    }

    /// True while a(nother) replay could be paid for. Asked before an
    /// input is held, so a disabled policy costs one compare and no
    /// clone.
    pub(crate) fn left(&self) -> bool {
        self.used < self.policy.max_attempts
    }

    /// Spend one replay and return the backoff to serve before it, or
    /// `None`, untouched, once the budget is exhausted.
    pub(crate) fn spend(&mut self) -> Option<Duration> {
        if !self.left() {
            return None;
        }
        self.used += 1;
        Some(self.policy.backoff.delay(self.used - 1))
    }

    /// At least one replay was spent.
    pub(crate) fn retried(&self) -> bool {
        self.used > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let b = Backoff::default();
        assert_eq!(b.delay(0), Duration::from_millis(1));
        assert_eq!(b.delay(2), Duration::from_millis(4));
        assert_eq!(b.delay(10), Duration::from_millis(20));
        // A huge retry index must not overflow.
        assert_eq!(b.delay(u32::MAX), Duration::from_millis(20));
    }

    #[test]
    fn default_config_is_disabled() {
        // The wire-format guarantee: `EngineConfig::default()` (which
        // embeds `RetryConfig::default()`) must reproduce the
        // pre-retry engines byte-for-byte, so the derived default has
        // to be the disabled policy.
        let cfg = RetryConfig::default();
        assert_eq!(cfg.policy.max_attempts, 0);
        assert!(!cfg.enabled());
    }

    #[test]
    fn policy_builders() {
        let p = RetryPolicy::attempts(7).with_backoff(Backoff::none());
        assert_eq!(p.max_attempts, 7);
        assert_eq!(p.backoff.delay(3), Duration::ZERO);
        assert!(p.enabled());
    }
}
