//! Budgeted retry with deterministic backoff, and the per-key circuit
//! breaker.
//!
//! These are the *stateful* resilience pieces, so they are designed for
//! serial use: the search updates them in submission order after each
//! fan-out completes, never from worker threads. Backoff delays are
//! virtual milliseconds on the caller's campaign clock (the injectable
//! `cfs_obs::Clock` world) — nothing here sleeps.

use std::collections::BTreeMap;

use crate::splitmix64;

/// Retries after the first attempt of a probe.
pub const MAX_RETRIES: u32 = 2;
/// Base delay before the first retry, in virtual milliseconds.
const BASE_DELAY_MS: u64 = 2_000;
/// Ceiling on any single delay, in virtual milliseconds.
const MAX_DELAY_MS: u64 = 60_000;
/// Jitter as per-mille of the exponential delay (up to 25% added on
/// top).
const JITTER_PM: u64 = 250;

/// The delay before retry `attempt` (1-based, up to [`MAX_RETRIES`]):
/// exponential backoff with seeded jitter, capped at one minute.
///
/// A pure function: the jitter comes from hashing the caller-supplied
/// seed (derived from the run seed and the probe identity) with the
/// attempt number — never from ambient RNG — so two runs of the same
/// campaign back off identically.
#[must_use]
pub fn backoff_delay_ms(seed: u64, attempt: u32) -> u64 {
    let shift = attempt.saturating_sub(1).min(20);
    let exp = BASE_DELAY_MS
        .saturating_mul(1u64 << shift)
        .min(MAX_DELAY_MS);
    let jitter = splitmix64(seed ^ (u64::from(attempt) << 56)) % (exp * JITTER_PM / 1000 + 1);
    (exp + jitter).min(MAX_DELAY_MS)
}

/// A run-wide retry budget: every retry spends one unit, and once the
/// pool is dry further requests are denied (and counted) instead of
/// issued. Keeps a faulty plane from turning the search into an
/// unbounded probe storm.
#[derive(Clone, Debug)]
pub struct RetryBudget {
    limit: u64,
    spent: u64,
    denied: u64,
}

impl RetryBudget {
    /// A budget of `limit` retries.
    #[must_use]
    pub const fn new(limit: u64) -> Self {
        Self {
            limit,
            spent: 0,
            denied: 0,
        }
    }

    /// Takes one unit if any remain; records the denial otherwise.
    pub fn try_spend(&mut self) -> bool {
        if self.spent < self.limit {
            self.spent += 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// Retries issued so far.
    #[must_use]
    pub const fn spent(&self) -> u64 {
        self.spent
    }

    /// Retry requests denied after exhaustion.
    #[must_use]
    pub const fn denied(&self) -> u64 {
        self.denied
    }

    /// Whether the pool is dry.
    #[must_use]
    pub const fn exhausted(&self) -> bool {
        self.spent >= self.limit
    }
}

/// Per-key failure tracking with open/close hysteresis.
///
/// A key (for the search: a vantage point) trips open after
/// `threshold` *consecutive* failures and stays open for `cooldown_ms`
/// of virtual time, during which the caller should route work to a
/// fallback. A success at any point closes the circuit and resets the
/// streak. `BTreeMap`-backed so iteration (and hence any derived
/// output) is deterministic.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown_ms: u64,
    state: BTreeMap<u64, Breaker>,
    trips: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Breaker {
    streak: u32,
    open_until_ms: u64,
}

impl CircuitBreaker {
    /// A breaker tripping after `threshold` consecutive failures and
    /// holding open for `cooldown_ms`.
    #[must_use]
    pub const fn new(threshold: u32, cooldown_ms: u64) -> Self {
        Self {
            threshold,
            cooldown_ms,
            state: BTreeMap::new(),
            trips: 0,
        }
    }

    /// Records one outcome for `key` at virtual time `at_ms`.
    pub fn record(&mut self, key: u64, ok: bool, at_ms: u64) {
        let entry = self.state.entry(key).or_default();
        if ok {
            entry.streak = 0;
            entry.open_until_ms = 0;
            return;
        }
        entry.streak += 1;
        if self.threshold > 0 && entry.streak == self.threshold {
            entry.open_until_ms = at_ms.saturating_add(self.cooldown_ms);
            entry.streak = 0;
            self.trips += 1;
        }
    }

    /// Whether `key`'s circuit is open at `at_ms`.
    #[must_use]
    pub fn is_open(&self, key: u64, at_ms: u64) -> bool {
        self.state
            .get(&key)
            .is_some_and(|b| at_ms < b.open_until_ms)
    }

    /// The keys whose circuit is open at `at_ms`, in key order.
    pub fn open_at(&self, at_ms: u64) -> impl Iterator<Item = u64> + '_ {
        let open = self
            .state
            .iter()
            .filter(move |(_, b)| at_ms < b.open_until_ms);
        open.map(|(key, _)| *key)
    }

    /// Total trips over the breaker's lifetime.
    #[must_use]
    pub const fn trips(&self) -> u64 {
        self.trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_deterministic_and_capped() {
        for seed in 0..64u64 {
            for (attempt, exp) in [(1, 2_000), (2, 4_000), (3, 8_000), (5, 32_000)] {
                let delay = backoff_delay_ms(seed, attempt);
                assert_eq!(delay, backoff_delay_ms(seed, attempt));
                assert!(
                    (exp..=exp + exp / 4).contains(&delay),
                    "attempt {attempt}: delay {delay}"
                );
            }
            assert_eq!(backoff_delay_ms(seed, 6), 60_000); // capped
        }
    }

    #[test]
    fn jitter_varies_with_seed() {
        let distinct: std::collections::BTreeSet<u64> =
            (0..32u64).map(|s| backoff_delay_ms(s, 1)).collect();
        assert!(distinct.len() > 1, "jitter never moved");
    }

    #[test]
    fn budget_spends_then_denies() {
        let mut b = RetryBudget::new(2);
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend());
        assert!(b.exhausted());
        assert_eq!((b.spent(), b.denied()), (2, 1));
    }

    #[test]
    fn breaker_trips_cools_down_and_recovers() {
        let mut cb = CircuitBreaker::new(3, 1000);
        for t in 0..3 {
            assert!(!cb.is_open(7, t));
            cb.record(7, false, t);
        }
        assert!(cb.is_open(7, 500), "3 straight failures must trip");
        assert_eq!(cb.trips(), 1);
        assert!(!cb.is_open(7, 1002 + 1), "cooldown must elapse");
        cb.record(7, true, 1100);
        assert!(!cb.is_open(7, 1100));
        // Success reset the streak: two failures are not enough again.
        cb.record(7, false, 1200);
        cb.record(7, false, 1300);
        assert!(!cb.is_open(7, 1300));
    }

    #[test]
    fn breaker_keys_are_independent() {
        let mut cb = CircuitBreaker::new(1, 100);
        cb.record(1, false, 0);
        assert!(cb.is_open(1, 10));
        assert!(!cb.is_open(2, 10));
    }
}
