//! The recording API instrumented code talks to.
//!
//! Instrumentation sites hold an `Arc<dyn Recorder>` and emit three
//! kinds of signals:
//!
//! * **counters** — monotonically increasing sums (`counter`),
//! * **histograms** — value distributions over fixed power-of-two
//!   buckets (`observe`),
//! * **spans** — named scopes whose entry/exit are timed through the
//!   injected [`Clock`](crate::Clock) (`span_start`/`span_end`, usually
//!   via the [`span!`](crate::span!) guard macro).
//!
//! The default implementation is [`NoopRecorder`]: every method is an
//! empty body behind one virtual call, so fully-instrumented code costs
//! next to nothing when nobody is listening.

use std::sync::Arc;

/// Sink for counters, histogram samples, and span timings.
///
/// Implementations must be safe to call from the engine's scoped worker
/// threads (`Send + Sync`); aggregation across threads is the
/// implementation's problem (see
/// [`TraceRecorder`](crate::TraceRecorder) for the deterministic one).
///
/// Names are `&'static str` by design: the instrumentation vocabulary is
/// fixed at compile time (DESIGN.md §7 lists it), which keeps recording
/// allocation-free and the export schema stable.
pub trait Recorder: Send + Sync {
    /// Whether anything is listening. Lets call sites skip building
    /// expensive arguments; plain counters don't need the check.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to the named monotonic counter.
    fn counter(&self, _name: &'static str, _delta: u64) {}

    /// Records one sample into the named histogram.
    fn observe(&self, _name: &'static str, _value: u64) {}

    /// Records `n` samples of the same `value`: exactly what `n`
    /// [`Recorder::observe`] calls record. Collecting recorders override
    /// it with one update, so a caller that tallies repeated samples
    /// pays one call per distinct value instead of one per sample.
    fn observe_n(&self, name: &'static str, value: u64, n: u64) {
        for _ in 0..n {
            self.observe(name, value);
        }
    }

    /// Marks a span entry; returns the start timestamp (ns) to hand back
    /// to [`Recorder::span_end`].
    fn span_start(&self) -> u64 {
        0
    }

    /// Marks a span exit entered at `start_ns`.
    fn span_end(&self, _name: &'static str, _start_ns: u64) {}
}

/// The do-nothing recorder: the default everywhere.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn observe_n(&self, _name: &'static str, _value: u64, _n: u64) {}
}

/// A `'static` no-op instance, for call sites that need a borrowed
/// default (`&NOOP`) rather than an owned `Arc`.
pub static NOOP: NoopRecorder = NoopRecorder;

/// RAII span: records the enclosing scope's duration on drop.
///
/// Obtain one through [`span`] or the [`span!`](crate::span!) macro.
pub struct SpanGuard {
    rec: Arc<dyn Recorder>,
    name: &'static str,
    start_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.rec.span_end(self.name, self.start_ns);
    }
}

/// Enters a named span on `rec`; the returned guard closes it on drop.
pub fn span(rec: Arc<dyn Recorder>, name: &'static str) -> SpanGuard {
    let start_ns = rec.span_start();
    SpanGuard {
        rec,
        name,
        start_ns,
    }
}

/// Opens a span over the rest of the enclosing scope:
/// `cfs_obs::span!(self.recorder, "cfs.iteration");`.
///
/// Expands to a hygienic `let` binding holding a [`SpanGuard`], so the
/// span closes when the scope ends; several `span!`s may nest in one
/// function.
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr) => {
        // Two statements so `Arc::clone`'s generic is inferred from the
        // recorder, then unsize-coerced into `span`'s `Arc<dyn Recorder>`.
        let _obs_span_rec = ::std::sync::Arc::clone(&$rec);
        let _obs_span_guard = $crate::span(_obs_span_rec, $name);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_inert() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.counter("x", 1);
        rec.observe("y", 2);
        let s = rec.span_start();
        rec.span_end("z", s);
    }

    /// Samples with repeats, an overflow value, and a zero.
    fn samples() -> Vec<(&'static str, u64)> {
        (0..90u64)
            .map(|i| match i % 3 {
                0 => ("per_trace", i % 7),
                1 => ("per_trace", 40_000),
                _ => ("rule_votes", i % 4),
            })
            .collect()
    }

    /// Records every sample on its own.
    fn each(rec: &dyn Recorder) {
        for (name, value) in samples() {
            rec.counter("traces", 1);
            rec.observe(name, value);
        }
    }

    /// Tallies the samples by (name, value) and flushes the tally once:
    /// one summed counter and one `observe_n` per distinct sample.
    fn tallied(rec: &dyn Recorder) {
        let mut tally: std::collections::BTreeMap<(&'static str, u64), u64> = Default::default();
        for sample in samples() {
            *tally.entry(sample).or_default() += 1;
        }
        rec.counter("traces", samples().len() as u64);
        for ((name, value), n) in tally {
            rec.observe_n(name, value, n);
        }
        rec.observe_n("never", 3, 0);
    }

    #[test]
    fn observe_n_and_a_flushed_tally_equal_one_call_per_sample() {
        use crate::clock::Virtual;
        use crate::trace::TraceRecorder;
        use crate::window::WindowedRecorder;

        let (a, b) = (
            TraceRecorder::deterministic(),
            TraceRecorder::deterministic(),
        );
        each(&a);
        tallied(&b);
        assert_eq!(a.snapshot(), b.snapshot());
        assert!(!b.snapshot().histograms.contains_key("never"));

        let windowed = || {
            let clock = Arc::new(Virtual::new());
            let inner = Arc::new(TraceRecorder::new(clock.clone()));
            (WindowedRecorder::new(inner.clone(), clock, 1_000, 4), inner)
        };
        let ((wa, ia), (wb, ib)) = (windowed(), windowed());
        each(&wa);
        tallied(&wb);
        assert_eq!(wa.render_metrics_json(), wb.render_metrics_json());
        assert_eq!(ia.snapshot(), ib.snapshot());

        // The default method is the per-sample loop; the no-op recorder
        // overrides it, so a huge count costs nothing (the loop would
        // never return).
        #[derive(Default)]
        struct Calls(std::sync::atomic::AtomicU64);
        impl Recorder for Calls {
            fn observe(&self, _name: &'static str, _value: u64) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let calls = Calls::default();
        calls.observe_n("x", 1, 5);
        assert_eq!(calls.0.into_inner(), 5);
        let noop: &dyn Recorder = std::hint::black_box(&NoopRecorder);
        noop.observe_n("x", 1, u64::MAX);
    }

    #[test]
    fn span_macro_compiles_and_nests() {
        let rec: Arc<dyn Recorder> = Arc::new(NoopRecorder);
        span!(rec, "outer");
        span!(rec, "inner");
    }
}
