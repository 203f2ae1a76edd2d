//! The collecting recorder and its deterministic aggregation.
//!
//! [`TraceRecorder`] buffers signals into a fixed array of shards, each
//! behind its own mutex; a thread writes to the shard assigned to it on
//! first use (a process-wide round-robin), so the engine's scoped
//! workers rarely contend. [`TraceRecorder::snapshot`] merges the shards
//! **in shard-index order** into `BTreeMap`s.
//!
//! ## Determinism contract
//!
//! A snapshot is byte-stable across worker counts because every merged
//! quantity is a sum of per-*item* integer contributions, and the item
//! set (traces extracted, remote tests run, constraints applied…) is
//! itself independent of how work was chunked across threads. Which
//! shard a contribution lands in varies run to run; the fixed-order
//! merge over commutative sums erases that. The only thread-sensitive
//! quantities are span durations, which is why the stable export
//! ([`crate::export::stable_body`]) carries span *counts* but never
//! nanoseconds. Durations still accumulate — per-path min/max and
//! log-scaled distributions in [`TraceSnapshot::durations`] — but they
//! leave the process only through the non-digested `cfs-profile/2`
//! sidecar ([`crate::profile`]) and the human `--metrics` summary.
//!
//! ## Call paths
//!
//! Durations are keyed by the call path a span closed on
//! (`cfs.run;cfs.iteration;stage.extract`), measured rather than
//! declared: each thread keeps a stack of its open spans in its shard.
//! [`Recorder::span_start`] pushes an empty frame; `span_end` pops it
//! and commits the span's own duration, plus every path committed into
//! the frame prefixed with the span's name, to the enclosing frame — or,
//! for a root span, to the shard. A path's statistics therefore appear
//! in a snapshot once its root span has closed, while the name-keyed
//! [`TraceSnapshot::spans`] counts are committed as each span closes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::{Clock, Virtual};
use crate::profile::DurationStats;
use crate::recorder::Recorder;

/// Number of shards: matches the engine's worker clamp (≤ 16), so at
/// full fan-out each worker usually owns a shard.
const SHARDS: usize = 16;

/// Upper (inclusive) bucket bounds of every histogram: powers of two up
/// to 32768, plus an overflow bucket. Fixed bounds keep merged
/// histograms exact and the export schema stable.
pub const HISTOGRAM_BOUNDS: [u64; 16] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768,
];

/// A monotonic histogram over [`HISTOGRAM_BOUNDS`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// One counter per bound, plus the trailing overflow bucket.
    pub buckets: [u64; HISTOGRAM_BOUNDS.len() + 1],
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of `value` (the same state `n` calls to
    /// [`Histogram::record`] leave).
    pub fn record_n(&mut self, value: u64, n: u64) {
        self.count += n;
        self.sum += value * n;
        let idx = HISTOGRAM_BOUNDS
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(HISTOGRAM_BOUNDS.len());
        self.buckets[idx] += n;
    }

    /// Adds another histogram into this one (exact: bounds are shared).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Mean sample value, when any were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// Aggregated timing of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed entries.
    pub count: u64,
    /// Total time spent inside, in clock nanoseconds. Excluded from the
    /// stable export (see module docs).
    pub total_ns: u64,
}

/// Duration statistics by call path (`;`-joined span names).
type PathStats = BTreeMap<String, DurationStats>;

#[derive(Default)]
struct Shard {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    spans: BTreeMap<&'static str, SpanStats>,
    /// Paths of the root spans closed on this shard's threads.
    durations: PathStats,
    /// Open spans of each thread writing here, innermost last: a frame
    /// holds the paths closed inside its span, relative to it.
    open: BTreeMap<usize, Vec<PathStats>>,
}

/// Files a closed span into `into`: its own duration under `name`, and
/// every path closed inside it under `name;path`.
fn commit(into: &mut PathStats, name: &str, elapsed_ns: u64, inner: PathStats) {
    into.entry(name.to_string()).or_default().record(elapsed_ns);
    for (path, d) in inner {
        into.entry(format!("{name};{path}")).or_default().merge(&d);
    }
}

/// A merged, immutable view of everything recorded so far.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Span statistics by name.
    pub spans: BTreeMap<&'static str, SpanStats>,
    /// The duration sidecar: wall-clock distributions by call path
    /// (module docs). Only the `cfs-profile/2` export and `--metrics`
    /// read these; the stable trace body never does.
    pub durations: BTreeMap<String, DurationStats>,
}

/// Process-wide numbering of the threads that record.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's number, assigned on first record; it writes to
    /// shard `number % SHARDS`, a process-wide round-robin.
    static MY_THREAD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The collecting [`Recorder`]: sharded buffers, injectable clock,
/// deterministic snapshots.
pub struct TraceRecorder {
    clock: Arc<dyn Clock>,
    shards: Vec<Mutex<Shard>>,
}

impl TraceRecorder {
    /// A recorder timing spans with the given clock.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Self {
            clock,
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    /// A recorder on a [`Virtual`] clock at time zero: span durations
    /// are all zero, so even the unstable export surface is
    /// deterministic. The choice for tests and CI.
    pub fn deterministic() -> Self {
        Self::new(Arc::new(Virtual::new()))
    }

    /// Runs `f` on this thread's shard, handing it the thread's number.
    fn with_shard<R>(&self, f: impl FnOnce(&mut Shard, usize) -> R) -> R {
        let thread = MY_THREAD.with(|t| *t);
        let mut shard = self.shards[thread % SHARDS]
            .lock()
            .expect("obs shard mutex poisoned by a panicking recorder call");
        f(&mut shard, thread)
    }

    /// Merges every shard, in shard-index order, into one snapshot.
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut out = TraceSnapshot::default();
        for shard in &self.shards {
            let shard = shard
                .lock()
                .expect("obs shard mutex poisoned by a panicking recorder call");
            for (name, v) in &shard.counters {
                *out.counters.entry(name).or_insert(0) += v;
            }
            for (name, h) in &shard.histograms {
                out.histograms.entry(name).or_default().merge(h);
            }
            for (name, s) in &shard.spans {
                let agg = out.spans.entry(name).or_default();
                agg.count += s.count;
                agg.total_ns += s.total_ns;
            }
            for (path, d) in &shard.durations {
                out.durations.entry(path.clone()).or_default().merge(d);
            }
        }
        out
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.with_shard(|s, _| *s.counters.entry(name).or_insert(0) += delta);
    }

    fn observe(&self, name: &'static str, value: u64) {
        self.with_shard(|s, _| s.histograms.entry(name).or_default().record(value));
    }

    fn observe_n(&self, name: &'static str, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.with_shard(|s, _| s.histograms.entry(name).or_default().record_n(value, n));
    }

    fn span_start(&self) -> u64 {
        self.with_shard(|s, thread| s.open.entry(thread).or_default().push(PathStats::new()));
        self.clock.now_ns()
    }

    fn span_end(&self, name: &'static str, start_ns: u64) {
        let elapsed = self.clock.now_ns().saturating_sub(start_ns);
        self.with_shard(|s, thread| {
            let stats = s.spans.entry(name).or_default();
            stats.count += 1;
            stats.total_ns += elapsed;
            let stack = s.open.entry(thread).or_default();
            let inner = stack.pop().unwrap_or_default();
            match stack.last_mut() {
                Some(parent) => commit(parent, name, elapsed, inner),
                None => {
                    s.open.remove(&thread);
                    commit(&mut s.durations, name, elapsed, inner);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::span;

    #[test]
    fn histogram_bucket_edges() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 32768, 32769] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.buckets[0], 2, "0 and 1 share the ≤1 bucket");
        assert_eq!(h.buckets[1], 1, "2 lands in ≤2");
        assert_eq!(h.buckets[2], 1, "3 lands in ≤4");
        assert_eq!(h.buckets[15], 1, "32768 is the last finite bound");
        assert_eq!(h.buckets[16], 1, "32769 overflows");
    }

    #[test]
    fn spans_are_timed_by_the_injected_clock() {
        let clock = Arc::new(Virtual::new());
        let rec = Arc::new(TraceRecorder::new(clock.clone()));
        {
            let _g = span(rec.clone(), "stage");
            clock.advance(1_000);
        }
        let snap = rec.snapshot();
        assert_eq!(
            snap.spans["stage"],
            SpanStats {
                count: 1,
                total_ns: 1_000
            }
        );
    }

    #[test]
    fn durations_are_keyed_by_the_call_path_of_each_thread() {
        let clock = Arc::new(Virtual::new());
        let rec = Arc::new(TraceRecorder::new(clock.clone()));
        let other = Arc::new(TraceRecorder::new(clock.clone()));
        {
            let _run = span(rec.clone(), "run");
            // A span on another thread is a root there, and a span on
            // another recorder never joins this one's stack.
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _worker = span(rec.clone(), "worker");
                    clock.advance(10);
                });
            });
            let _elsewhere = span(other.clone(), "elsewhere");
            for _ in 0..2 {
                let _step = span(rec.clone(), "step");
                let _leaf = span(rec.clone(), "leaf");
                clock.advance(5);
            }
        }
        let snap = rec.snapshot();
        let paths: Vec<(&str, u64, u64)> = snap
            .durations
            .iter()
            .map(|(p, d)| (p.as_str(), d.count, d.total_ns))
            .collect();
        assert_eq!(
            paths,
            [
                ("run", 1, 20),
                ("run;step", 2, 10),
                ("run;step;leaf", 2, 10),
                ("worker", 1, 10),
            ]
        );
        assert_eq!(
            snap.spans["step"],
            SpanStats {
                count: 2,
                total_ns: 10
            }
        );
        assert_eq!(
            other.snapshot().durations.keys().collect::<Vec<_>>(),
            ["elsewhere"]
        );
    }

    #[test]
    fn concurrent_recording_merges_to_the_serial_snapshot() {
        // The same 400 per-item contributions, recorded serially and
        // split over 4 threads, must merge to identical snapshots —
        // the property the engine's trace-JSON determinism rests on.
        let serial = TraceRecorder::deterministic();
        for i in 0..400u64 {
            serial.counter("items", 1);
            serial.observe("sizes", i % 37);
        }

        let sharded = TraceRecorder::deterministic();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let rec = &sharded;
                scope.spawn(move || {
                    for i in (t * 100)..((t + 1) * 100) {
                        rec.counter("items", 1);
                        rec.observe("sizes", i % 37);
                    }
                });
            }
        });

        assert_eq!(serial.snapshot(), sharded.snapshot());
    }
}
