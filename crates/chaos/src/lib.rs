//! # cfs-chaos
//!
//! Deterministic fault injection for the CFS pipeline: a seeded
//! [`FaultPlan`] that perturbs the measurement plane (ICMP rate-limit
//! episodes, vantage-point outages, transient and persistent timeouts,
//! truncated and looping traces) and the knowledge plane (lagged IXP
//! member lists, deleted facilities, conflicting network records), plus
//! the resilience primitives the search uses to survive it:
//! [`RetryPolicy`], [`RetryBudget`], and a per-key [`CircuitBreaker`].
//!
//! Like `cfs-lint`, this crate is dependency-free: it
//! sits underneath every perturbed crate and must never pull substrate
//! code (or an RNG crate) along.
//!
//! ## Determinism
//!
//! Every fault decision is a **pure hash function** of the plan seed,
//! the entity identity the caller supplies (a `u64` key — a VP id, a
//! router address, an ASN), and, where relevant, a time slot. There is
//! no hidden mutable state, so the same plan gives the same answer for
//! the same probe no matter which worker thread asks, in what order, or
//! how work was chunked — the byte-identical-report guarantee
//! (DESIGN.md §5) holds under chaos. Rate limiting, which in the wild
//! is a stateful token bucket, is modelled as a *slotted* bucket: a
//! router is in a rate-limiting episode for hash-chosen time slots, and
//! within an episode each probe's deterministic ticket decides whether
//! it falls inside the slot's reply budget.
//!
//! Stateful pieces — the retry budget and the circuit breaker — live
//! with the *caller*, which updates them serially in submission order
//! after each fan-out (never from worker threads).
//!
//! ```
//! use cfs_chaos::{FaultPlan, FaultProfile};
//!
//! let plan = FaultPlan::new(7, FaultProfile::named("default").unwrap());
//! // Same question, same answer — forever.
//! assert_eq!(plan.vp_down(3, 60_000), plan.vp_down(3, 60_000));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod plan;
mod retry;

pub use plan::{FaultPlan, FaultProfile, KB_SOURCE_IXP_SITE, KB_SOURCE_PDB_FAC, KB_SOURCE_PDB_NET};
pub use retry::{CircuitBreaker, RetryBudget, RetryPolicy};

/// SplitMix64 — the workspace's standard parameter-mixing hash (the
/// same finalizer `cfs-traceroute` and `cfs-alias` use to derive
/// per-call RNG streams).
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// Plans cross the engine's scoped-worker boundary; prove it at compile
// time like cfs-core does for its substrate types.
#[allow(dead_code)]
fn _assert_send_sync() {
    fn sync<T: Sync + Send>() {}
    sync::<FaultPlan>();
    sync::<FaultProfile>();
    sync::<RetryPolicy>();
    sync::<RetryBudget>();
    sync::<CircuitBreaker>();
}
