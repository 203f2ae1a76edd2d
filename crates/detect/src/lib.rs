//! # cfs-detect
//!
//! Streaming disruption detection at colocation facilities — the
//! Milolidakis-et-al. sequel workload on top of the CFS telemetry stack.
//!
//! The resident session's inference state is cumulative, so a facility
//! going dark never *removes* anything from the report; what changes is
//! which tracked interfaces keep answering probes. Each campaign epoch
//! the daemon summarizes its raw traceroute batch as an
//! [`EpochObservation`], buckets it against the current report's
//! inference ([`EpochFeatures`]: per-facility visibility, the
//! private-peering subset, per-IXP fabric visibility, reached and
//! resolution fractions), and feeds it to the [`Detector`] — one integer
//! EWMA baseline per bucket, exponential aging, slowed while alerting.
//! Divergence beyond the configured floor emits severity-typed,
//! facility-localized [`Alert`]s into a cursor-drained ring, rendered as
//! schema-stable `cfs-alerts/1` JSON lines.
//!
//! Determinism: all scoring is integer arithmetic over `BTreeMap`
//! iteration, timestamps come from the injected `cfs-obs` clock, and the
//! detector only ever *reads* session outputs — enabling it cannot touch
//! the canonical `cfs-trace/1` digest, and under a `Virtual` clock the
//! rendered alert bytes are identical at any thread count.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]

mod alert;
mod detector;
mod features;

pub use alert::{validate_alerts, Alert, AlertKind, AlertLog, AlertsSummary, ALERTS_SCHEMA};
pub use detector::{Detector, DetectorConfig, LocusNames};
pub use features::{extract, EpochFeatures, EpochObservation, IxpVisibility, Visibility};
