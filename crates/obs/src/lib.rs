//! # cfs-obs
//!
//! Deterministic observability for the CFS pipeline: structured spans,
//! counters, and monotonic histograms behind a [`Recorder`] trait, with
//! an injectable [`Clock`] and thread-count-independent aggregation.
//!
//! It sits underneath every instrumented crate and must never pull
//! substrate code along: its only dependency is the vendored
//! `serde_json`, which reads exported documents back for diffing and
//! validation. Rendering stays hand-rolled and byte-stable.
//!
//! The three guarantees instrumented code leans on (DESIGN.md §7):
//!
//! 1. **Free when off** — the default [`NoopRecorder`] turns every
//!    signal into an empty virtual call.
//! 2. **No wall time in the pipeline** — timing goes through [`Clock`];
//!    [`Monotonic`] is the workspace's one sanctioned `Instant::now`
//!    caller, [`Virtual`] is scripted time for tests.
//! 3. **Deterministic aggregation** — [`TraceRecorder`] shards per
//!    thread and merges in fixed order; a snapshot's stable export is
//!    byte-identical however work was chunked, because durations are
//!    kept out of it.
//!
//! Durations leave through the `cfs-profile/2` sidecar ([`profile`]),
//! keyed by the call path each span closed on
//! (`cfs.run;cfs.iteration;stage.extract`). The recorder measures the
//! nesting with a per-thread stack of open spans, so the profile tree is
//! the tree that ran; no table declares it.
//!
//! ```
//! use std::sync::Arc;
//! use cfs_obs::{Recorder, TraceRecorder};
//!
//! let rec = Arc::new(TraceRecorder::deterministic());
//! {
//!     cfs_obs::span!(rec, "stage.extract");
//!     rec.counter("observations", 42);
//!     rec.observe("candidates.per_iface", 3);
//! }
//! let snap = rec.snapshot();
//! # let _ = snap;
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
pub mod diff;
mod events;
pub mod export;
pub mod profile;
mod recorder;
mod trace;
mod window;

pub use clock::{pace, Clock, Monotonic, Virtual};
pub use diff::{diff_docs, DiffError, DocDiff, ProfileDiff, TraceDiff, TRACE_SCHEMA};
pub use events::{CursorRing, Event, EventKind, EventLog, Severity, LOG_SCHEMA};
pub use profile::{
    render_profile_folded, render_profile_json, render_profile_report, DurationStats, ProfileDoc,
    PROFILE_BOUNDS_NS, PROFILE_SCHEMA,
};
pub use recorder::{span, NoopRecorder, Recorder, SpanGuard, NOOP};
pub use trace::{Histogram, SpanStats, TraceRecorder, TraceSnapshot, HISTOGRAM_BOUNDS};
pub use window::{MetricsDoc, MetricsHistogram, MetricsWindow, WindowedRecorder, METRICS_SCHEMA};

/// An object's `name → u64` members, for counter-style maps.
fn to_u64_map(v: &serde_json::Value) -> Option<std::collections::BTreeMap<String, u64>> {
    v.as_object()?
        .iter()
        .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect()
}

/// An array of `u64`, for bucket lists.
fn to_u64_vec(v: &serde_json::Value) -> Option<Vec<u64>> {
    v.as_array()?
        .iter()
        .map(serde_json::Value::as_u64)
        .collect()
}

// The recorder crosses the engine's scoped-worker boundary; prove it at
// compile time like `cfs-core` does for its substrate types.
#[allow(dead_code)]
fn _assert_send_sync() {
    fn sync<T: Sync + Send>() {}
    sync::<NoopRecorder>();
    sync::<TraceRecorder>();
    sync::<WindowedRecorder>();
    sync::<EventLog>();
    sync::<Monotonic>();
    sync::<Virtual>();
}
