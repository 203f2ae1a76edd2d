//! Injectable time sources.
//!
//! `clippy.toml` bans `Instant::now`, `SystemTime::now` and
//! `thread::sleep` in every target — wall time read inside the pipeline
//! would leak into results and break run-to-run reproducibility. This
//! module is the one sanctioned home for the real clock: code that
//! needs timing takes a `&dyn Clock` (or an `Arc<dyn Clock>`) and the
//! *caller* decides whether time is real ([`Monotonic`]) or scripted
//! ([`Virtual`]). Tests and determinism checks inject [`Virtual`], so
//! recorded durations are a pure function of the test script.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonic nanosecond source. Implementations must never go
/// backwards; beyond that the epoch is arbitrary (only differences are
/// meaningful).
pub trait Clock: Send + Sync {
    /// Nanoseconds since the clock's (arbitrary) epoch.
    fn now_ns(&self) -> u64;
}

/// Real elapsed time, anchored at construction.
///
/// This is the only place in the workspace allowed to call
/// `Instant::now` (under an `#[expect]` on the clippy ban); every other
/// crate reaches real time through this type.
pub struct Monotonic {
    origin: std::time::Instant,
}

impl Monotonic {
    /// A monotonic clock starting at zero now.
    #[expect(clippy::disallowed_methods)] // the sanctioned Instant::now home
    pub fn new() -> Self {
        Self {
            origin: std::time::Instant::now(),
        }
    }

    /// Time elapsed since construction, as a `Duration` (convenience for
    /// operator-facing prints).
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.now_ns())
    }
}

impl Default for Monotonic {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for Monotonic {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Parks the calling thread for `interval` of real time: the sanctioned
/// pacing primitive for operator-facing polling loops (`cfs top`).
///
/// Pipeline and service code must never call this — pacing real time
/// belongs to interactive frontends only, which is why it lives next to
/// [`Monotonic`], the other real-time use the clippy bans expect.
#[expect(clippy::disallowed_methods)] // the sanctioned sleep home
pub fn pace(interval: Duration) {
    std::thread::sleep(interval);
}

/// A scripted clock: time advances only when the owner says so.
///
/// Deterministic by construction — two runs that call
/// [`Virtual::advance`] identically read identical timestamps — which is
/// what keeps span durations out of the way in reproducibility tests.
#[derive(Default)]
pub struct Virtual {
    ns: AtomicU64,
}

impl Virtual {
    /// A virtual clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `delta` nanoseconds.
    pub fn advance(&self, delta: u64) {
        self.ns.fetch_add(delta, Ordering::Relaxed);
    }
}

impl Clock for Virtual {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_never_goes_backwards() {
        let c = Monotonic::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_is_scripted() {
        let c = Virtual::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(250);
        c.advance(250);
        assert_eq!(c.now_ns(), 500);
    }
}
