//! Rolling time-windowed telemetry: [`WindowedRecorder`] and the
//! `cfs-metrics/1` snapshot document.
//!
//! The trace layer ([`crate::trace`]) aggregates over a run's whole
//! lifetime, which is the right shape for post-mortem exports but a
//! black box for a *resident* session: an operator watching `cfsd`
//! absorb deltas wants "what happened in the last minute", not "since
//! boot". [`WindowedRecorder`] wraps any inner [`Recorder`] and, in
//! addition to forwarding every signal, files it into the current
//! fixed-width time window. Closed windows ride a bounded ring, so a
//! snapshot of "the last N windows" is O(ring), never O(history).
//!
//! ## Window model
//!
//! Time is the injected [`Clock`]'s nanoseconds; window `k` covers
//! `[k·width, (k+1)·width)`. The first record whose timestamp falls
//! past the current window closes it onto the ring and opens the new
//! one — rollover is driven entirely by the clock, so under a
//! [`crate::Virtual`] clock it is scripted and deterministic. Idle gaps
//! are represented by index jumps, not by materialized empty windows,
//! which keeps rollover O(1) even after hours of silence.
//!
//! ## Determinism contract
//!
//! A `cfs-metrics/1` snapshot is byte-identical across thread counts
//! under a `Virtual` clock for the same reason the trace export is:
//! every merged quantity is a sum of per-item integer contributions
//! behind one mutex, rendered from `BTreeMap`s in fixed order. Under
//! the real [`crate::Monotonic`] clock values are wall-time-dependent —
//! which is fine, because nothing here ever enters the trace digest.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use serde_json::Value;

use crate::clock::Clock;
use crate::export::{push_histograms, push_joined, push_pairs, push_u64_list};
use crate::profile::{parse_stats, push_stats_entry, DurationStats, PROFILE_BOUNDS_NS};
use crate::recorder::Recorder;
use crate::trace::{Histogram, HISTOGRAM_BOUNDS};

/// Schema identifier stamped into every metrics snapshot.
pub const METRICS_SCHEMA: &str = "cfs-metrics/1";

/// One fixed-width window's worth of telemetry.
#[derive(Clone, Debug, Default)]
struct WindowCell {
    index: u64,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    durations: BTreeMap<&'static str, DurationStats>,
}

impl WindowCell {
    fn merge_into(
        &self,
        counters: &mut BTreeMap<&'static str, u64>,
        histograms: &mut BTreeMap<&'static str, Histogram>,
        durations: &mut BTreeMap<&'static str, DurationStats>,
    ) {
        for (name, v) in &self.counters {
            *counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in &self.histograms {
            histograms.entry(name).or_default().merge(h);
        }
        for (name, d) in &self.durations {
            durations.entry(name).or_default().merge(d);
        }
    }
}

struct WindowState {
    current: WindowCell,
    closed: VecDeque<WindowCell>,
}

/// A [`Recorder`] decorator that maintains ring-buffered fixed-width
/// time windows of counters, value histograms, and span durations, on
/// top of whatever the wrapped recorder collects.
///
/// The wrapper and its inner recorder must share the same clock (the
/// daemon constructs both from one `Arc<dyn Clock>`); span timing is
/// measured against `clock`, and the inner recorder re-measures against
/// its own — identical when shared.
pub struct WindowedRecorder {
    inner: Arc<dyn Recorder>,
    clock: Arc<dyn Clock>,
    width_ns: u64,
    keep: usize,
    start_ns: u64,
    state: Mutex<WindowState>,
}

impl WindowedRecorder {
    /// Wraps `inner`, windowing time from `clock` into `width_ns`-wide
    /// windows and keeping the most recent `keep` closed windows.
    pub fn new(
        inner: Arc<dyn Recorder>,
        clock: Arc<dyn Clock>,
        width_ns: u64,
        keep: usize,
    ) -> Self {
        let width_ns = width_ns.max(1);
        let keep = keep.max(1);
        let start_ns = clock.now_ns();
        Self {
            inner,
            clock,
            width_ns,
            keep,
            start_ns,
            state: Mutex::new(WindowState {
                current: WindowCell {
                    index: start_ns / width_ns,
                    ..WindowCell::default()
                },
                closed: VecDeque::new(),
            }),
        }
    }

    /// The window width, in nanoseconds.
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut WindowState) -> R) -> R {
        // Telemetry must never take the service down: if a recorder call
        // panicked mid-update the cells still hold plain integers, so
        // recover the lock instead of propagating the poison.
        let mut guard = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard)
    }

    fn with_window<R>(&self, f: impl FnOnce(&mut WindowCell) -> R) -> R {
        let idx = self.clock.now_ns() / self.width_ns;
        self.with_state(|st| {
            if idx > st.current.index {
                let full = std::mem::replace(
                    &mut st.current,
                    WindowCell {
                        index: idx,
                        ..WindowCell::default()
                    },
                );
                st.closed.push_back(full);
                while st.closed.len() > self.keep {
                    st.closed.pop_front();
                }
            }
            f(&mut st.current)
        })
    }

    /// Renders the `cfs-metrics/1` snapshot: uptime, the merged totals
    /// across every retained window, and the ring of windows oldest
    /// first with the open window last. Byte-stable for a given state.
    pub fn render_metrics_json(&self) -> String {
        let uptime_ns = self.clock.now_ns().saturating_sub(self.start_ns);
        let (cells, open_index) = self.with_state(|st| {
            let mut cells: Vec<WindowCell> = st.closed.iter().cloned().collect();
            cells.push(st.current.clone());
            (cells, st.current.index)
        });

        let mut totals = WindowCell::default();
        {
            let WindowCell {
                counters,
                histograms,
                durations,
                ..
            } = &mut totals;
            for cell in &cells {
                cell.merge_into(counters, histograms, durations);
            }
        }

        let mut out = format!(
            "{{\"schema\":\"{METRICS_SCHEMA}\",\"window_ns\":{},\"windows_kept\":{},\
             \"uptime_ns\":{uptime_ns},\"histogram_le\":",
            self.width_ns, self.keep
        );
        push_u64_list(&mut out, HISTOGRAM_BOUNDS.iter().copied());
        out.push_str(",\"duration_le_ns\":");
        push_u64_list(&mut out, PROFILE_BOUNDS_NS.iter().copied());
        out.push_str(",\"totals\":{");
        push_cell_body(&mut out, &totals);
        out.push_str("},\"windows\":[");
        push_joined(&mut out, &cells, |out, cell| {
            out.push_str(&format!(
                "{{\"index\":{},\"open\":{},",
                cell.index,
                cell.index == open_index
            ));
            push_cell_body(out, cell);
            out.push('}');
        });
        out.push_str("]}");
        out
    }
}

/// Renders the shared window body: counters, histograms, durations.
/// Used for both the totals object and each ring entry.
fn push_cell_body(out: &mut String, cell: &WindowCell) {
    out.push_str("\"counters\":{");
    push_pairs(out, &cell.counters);
    out.push_str("},\"histograms\":{");
    push_histograms(out, &cell.histograms);
    out.push_str("},\"durations\":{");
    push_joined(out, &cell.durations, |out, (name, d)| {
        push_stats_entry(out, name, d)
    });
    out.push('}');
}

impl Recorder for WindowedRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.inner.counter(name, delta);
        self.with_window(|w| *w.counters.entry(name).or_insert(0) += delta);
    }

    fn observe(&self, name: &'static str, value: u64) {
        self.inner.observe(name, value);
        self.with_window(|w| w.histograms.entry(name).or_default().record(value));
    }

    fn observe_n(&self, name: &'static str, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.inner.observe_n(name, value, n);
        self.with_window(|w| w.histograms.entry(name).or_default().record_n(value, n));
    }

    fn span_start(&self) -> u64 {
        // The inner recorder opens its frame, so its call paths nest;
        // the window times the span against the shared clock.
        self.inner.span_start();
        self.clock.now_ns()
    }

    fn span_end(&self, name: &'static str, start_ns: u64) {
        let elapsed = self.clock.now_ns().saturating_sub(start_ns);
        self.with_window(|w| w.durations.entry(name).or_default().record(elapsed));
        self.inner.span_end(name, start_ns);
    }
}

/// A parsed value histogram from a metrics window.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsHistogram {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// One counter per `histogram_le` bound, plus overflow.
    pub buckets: Vec<u64>,
}

/// One parsed window (or the totals block, with `index`/`open`
/// defaulted) of a `cfs-metrics/1` document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsWindow {
    /// The window number (`timestamp / window_ns`). Gaps mean idle time.
    pub index: u64,
    /// Whether this window was still accumulating at snapshot time.
    pub open: bool,
    /// Counter increments that landed in the window.
    pub counters: BTreeMap<String, u64>,
    /// Value histograms by name.
    pub histograms: BTreeMap<String, MetricsHistogram>,
    /// Span-duration statistics by name.
    pub durations: BTreeMap<String, DurationStats>,
}

/// A parsed `cfs-metrics/1` document: the snapshot a live daemon's
/// `metrics` op returns, as consumed by `cfs top` and the validator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsDoc {
    /// Window width in nanoseconds.
    pub window_ns: u64,
    /// How many closed windows the producer retains.
    pub windows_kept: u64,
    /// Clock nanoseconds since the recorder was constructed.
    pub uptime_ns: u64,
    /// Value-histogram bucket bounds.
    pub histogram_le: Vec<u64>,
    /// Duration-histogram bucket bounds.
    pub duration_le_ns: Vec<u64>,
    /// Merged totals across every retained window.
    pub totals: MetricsWindow,
    /// The retained windows, oldest first; the open window is last.
    pub windows: Vec<MetricsWindow>,
}

impl MetricsDoc {
    /// Parses a `cfs-metrics/1` document. The error names the member
    /// that failed, in the style of [`crate::ProfileDoc::parse`].
    pub fn parse(raw: &str) -> Result<Self, String> {
        Self::read(raw).map_err(|(_, e)| e)
    }

    /// [`MetricsDoc::parse`] with the failing section named: `json`,
    /// `schema` or `structure`.
    fn read(raw: &str) -> Result<Self, (&'static str, String)> {
        let doc =
            serde_json::from_str::<Value>(raw).map_err(|e| ("json", format!("not JSON: {e}")))?;
        crate::check_schema(&doc, METRICS_SCHEMA).map_err(|e| ("schema", e))?;
        Self::from_json(&doc).map_err(|e| ("structure", e))
    }

    fn from_json(doc: &Value) -> Result<Self, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Value::as_u64)
                .ok_or(format!("missing or non-integer {key}"))
        };
        let histogram_le = doc
            .get("histogram_le")
            .and_then(crate::to_u64_vec)
            .ok_or("missing or non-integer histogram_le")?;
        let duration_le_ns = doc
            .get("duration_le_ns")
            .and_then(crate::to_u64_vec)
            .ok_or("missing or non-integer duration_le_ns")?;
        let totals = parse_window(
            doc.get("totals").ok_or("missing totals member")?,
            "totals",
            &histogram_le,
            &duration_le_ns,
            false,
        )?;
        let mut windows = Vec::new();
        for (i, w) in doc
            .get("windows")
            .and_then(Value::as_array)
            .ok_or("missing windows array")?
            .iter()
            .enumerate()
        {
            windows.push(parse_window(
                w,
                &format!("windows[{i}]"),
                &histogram_le,
                &duration_le_ns,
                true,
            )?);
        }
        Ok(Self {
            window_ns: num("window_ns")?,
            windows_kept: num("windows_kept")?,
            uptime_ns: num("uptime_ns")?,
            histogram_le,
            duration_le_ns,
            totals,
            windows,
        })
    }

    /// Validates a raw document against the `cfs-metrics/1` contract,
    /// returning `(section, problem)` pairs in the style of
    /// `cfs check`'s trace checks: schema marker, member shapes, bucket
    /// arities, window ordering, and totals integrity (the totals block
    /// must equal the sum of the windows, the document's analogue of
    /// the trace digest).
    pub fn validate(raw: &str) -> Vec<(&'static str, String)> {
        let mut problems: Vec<(&'static str, String)> = Vec::new();
        let doc = match Self::read(raw) {
            Ok(d) => d,
            Err(problem) => return vec![problem],
        };
        if doc.window_ns == 0 {
            problems.push(("structure", "window_ns must be positive".into()));
        }
        if doc.windows_kept == 0 {
            problems.push(("structure", "windows_kept must be positive".into()));
        }
        for (what, bounds) in [
            ("histogram_le", &doc.histogram_le),
            ("duration_le_ns", &doc.duration_le_ns),
        ] {
            if bounds.windows(2).any(|w| w[1] <= w[0]) {
                problems.push(("structure", format!("{what} is not strictly increasing")));
            }
        }

        if doc.windows.is_empty() {
            problems.push(("windows", "windows array is empty".into()));
        }
        if doc.windows.len() as u64 > doc.windows_kept + 1 {
            problems.push((
                "windows",
                format!(
                    "{} windows retained, want at most windows_kept + 1 = {}",
                    doc.windows.len(),
                    doc.windows_kept + 1
                ),
            ));
        }
        for pair in doc.windows.windows(2) {
            if pair[1].index <= pair[0].index {
                problems.push((
                    "windows",
                    format!(
                        "window indices not strictly increasing: {} then {}",
                        pair[0].index, pair[1].index
                    ),
                ));
                break;
            }
        }
        for (i, w) in doc.windows.iter().enumerate() {
            let is_last = i + 1 == doc.windows.len();
            if w.open != is_last {
                problems.push((
                    "windows",
                    format!(
                        "windows[{i}] open={} (only the last window may be open, and must be)",
                        w.open
                    ),
                ));
            }
        }

        let mut blocks: Vec<(String, &MetricsWindow)> = vec![("totals".to_string(), &doc.totals)];
        for (i, w) in doc.windows.iter().enumerate() {
            blocks.push((format!("windows[{i}]"), w));
        }
        for (at, block) in &blocks {
            for (name, h) in &block.histograms {
                if h.buckets.iter().sum::<u64>() != h.count {
                    problems.push((
                        "histograms",
                        format!("{at} histogram {name:?}: buckets do not sum to count"),
                    ));
                }
            }
            for (name, d) in &block.durations {
                if d.buckets.iter().sum::<u64>() != d.count {
                    problems.push((
                        "durations",
                        format!("{at} duration {name:?}: buckets do not sum to count"),
                    ));
                }
                if d.count > 0 && d.min_ns > d.max_ns {
                    problems.push((
                        "durations",
                        format!("{at} duration {name:?}: min_ns > max_ns"),
                    ));
                }
            }
        }

        // Totals integrity: the totals block must be exactly the sum of
        // the retained windows.
        let mut summed: BTreeMap<&String, u64> = BTreeMap::new();
        for w in &doc.windows {
            for (name, v) in &w.counters {
                *summed.entry(name).or_insert(0) += v;
            }
        }
        let rebuilt: BTreeMap<&String, u64> =
            doc.totals.counters.iter().map(|(n, v)| (n, *v)).collect();
        if summed != rebuilt {
            problems.push((
                "totals",
                "totals.counters do not equal the sum over windows".into(),
            ));
        }
        for (name, t) in &doc.totals.durations {
            let n: u64 = doc
                .windows
                .iter()
                .filter_map(|w| w.durations.get(name))
                .map(|d| d.count)
                .sum();
            if n != t.count {
                problems.push((
                    "totals",
                    format!(
                        "totals duration {name:?}: count {} vs windows sum {n}",
                        t.count
                    ),
                ));
            }
        }
        problems
    }
}

fn parse_window(
    w: &Value,
    at: &str,
    histogram_le: &[u64],
    duration_le_ns: &[u64],
    ring_entry: bool,
) -> Result<MetricsWindow, String> {
    let mut out = MetricsWindow::default();
    if ring_entry {
        out.index = w
            .get("index")
            .and_then(Value::as_u64)
            .ok_or(format!("{at}: missing or non-integer index"))?;
        out.open = w
            .get("open")
            .and_then(Value::as_bool)
            .ok_or(format!("{at}: missing or non-boolean open"))?;
    }
    out.counters = w
        .get("counters")
        .and_then(|v| crate::to_map(v, Value::as_u64))
        .ok_or(format!("{at}: missing counters object"))?;
    for (name, h) in w
        .get("histograms")
        .and_then(Value::as_object)
        .ok_or(format!("{at}: missing histograms object"))?
        .iter()
    {
        let h = crate::to_histogram(h).ok_or(format!("{at}: histogram {name:?} is malformed"))?;
        if h.buckets.len() != histogram_le.len() + 1 {
            return Err(format!(
                "{at}: histogram {name:?}: {} buckets, want {}",
                h.buckets.len(),
                histogram_le.len() + 1
            ));
        }
        out.histograms.insert(name.clone(), h);
    }
    for (name, d) in w
        .get("durations")
        .and_then(Value::as_object)
        .ok_or(format!("{at}: missing durations object"))?
        .iter()
    {
        let at = format!("{at}: duration {name:?}");
        out.durations
            .insert(name.clone(), parse_stats(d, &at, duration_le_ns.len())?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Virtual;
    use crate::recorder::NoopRecorder;

    fn windowed(clock: Arc<Virtual>) -> WindowedRecorder {
        WindowedRecorder::new(Arc::new(NoopRecorder), clock, 1_000, 4)
    }

    #[test]
    fn rollover_is_clock_driven_and_gaps_jump() {
        let clock = Arc::new(Virtual::new());
        let rec = windowed(clock.clone());
        rec.counter("reqs", 1);
        clock.advance(1_000); // window 1
        rec.counter("reqs", 2);
        clock.advance(5_000); // window 6: windows 2..=5 never materialize
        rec.counter("reqs", 4);
        let doc = MetricsDoc::parse(&rec.render_metrics_json()).expect("own export parses");
        let indices: Vec<u64> = doc.windows.iter().map(|w| w.index).collect();
        assert_eq!(indices, vec![0, 1, 6]);
        assert_eq!(doc.windows[0].counters["reqs"], 1);
        assert_eq!(doc.windows[1].counters["reqs"], 2);
        assert_eq!(doc.windows[2].counters["reqs"], 4);
        assert_eq!(doc.totals.counters["reqs"], 7);
        assert!(doc.windows[2].open && !doc.windows[0].open);
        assert_eq!(doc.uptime_ns, 6_000);
    }

    #[test]
    fn idle_gap_longer_than_the_ring_keeps_only_the_pre_gap_window() {
        // A daemon idle for longer than the whole retained span: the
        // next sample must land in the window the clock actually points
        // at (no back-fill of the silent windows), the single pre-gap
        // window survives, and uptime covers the silence.
        let clock = Arc::new(Virtual::new());
        let rec = windowed(clock.clone()); // width 1_000, keep 4
        rec.counter("reqs", 1);
        clock.advance(10_000); // silent windows 1..=9 never materialize
        rec.counter("reqs", 1);
        let doc = MetricsDoc::parse(&rec.render_metrics_json()).expect("parses");
        let indices: Vec<u64> = doc.windows.iter().map(|w| w.index).collect();
        assert_eq!(indices, vec![0, 10], "no empty windows are fabricated");
        assert!(doc.windows[1].open && !doc.windows[0].open);
        assert_eq!(doc.totals.counters["reqs"], 2);
        assert_eq!(doc.uptime_ns, 10_000);
        // A second gap while a window is already open jumps again and
        // closes the interrupted window where it stood.
        clock.advance(3_500);
        rec.counter("reqs", 1);
        let doc = MetricsDoc::parse(&rec.render_metrics_json()).expect("parses");
        let indices: Vec<u64> = doc.windows.iter().map(|w| w.index).collect();
        assert_eq!(indices, vec![0, 10, 13]);
        assert_eq!(doc.windows[1].counters["reqs"], 1);
    }

    #[test]
    fn ring_is_bounded_to_keep() {
        let clock = Arc::new(Virtual::new());
        let rec = windowed(clock.clone());
        for _ in 0..10 {
            rec.counter("ticks", 1);
            clock.advance(1_000);
        }
        rec.counter("ticks", 1);
        let doc = MetricsDoc::parse(&rec.render_metrics_json()).expect("parses");
        assert_eq!(doc.windows.len(), 5, "4 closed + 1 open");
        assert_eq!(doc.windows_kept, 4);
        // Totals cover only what the ring retains.
        assert_eq!(doc.totals.counters["ticks"], 5);
    }

    #[test]
    fn snapshot_is_valid_and_totals_checked() {
        let clock = Arc::new(Virtual::new());
        let rec = windowed(clock.clone());
        rec.observe("batch", 3);
        let s = rec.span_start();
        clock.advance(2_048);
        rec.span_end("api.query", s);
        let raw = rec.render_metrics_json();
        assert_eq!(MetricsDoc::validate(&raw), vec![]);
        // Corrupt a totals counter → the integrity check fires.
        let rec2 = windowed(Arc::new(Virtual::new()));
        rec2.counter("reqs", 3);
        let broken = rec2
            .render_metrics_json()
            .replacen("\"reqs\":3", "\"reqs\":4", 1);
        assert!(MetricsDoc::validate(&broken)
            .iter()
            .any(|(section, _)| *section == "totals"));
    }

    #[test]
    fn validate_names_the_failing_section() {
        for (raw, section) in [
            ("nope", "json"),
            ("{\"schema\":\"cfs-trace/1\"}", "schema"),
            ("{\"schema\":\"cfs-metrics/1\"}", "structure"),
        ] {
            let problems = MetricsDoc::validate(raw);
            assert!(
                problems.iter().any(|(s, _)| *s == section),
                "{raw}: {problems:?}"
            );
        }
    }

    #[test]
    fn snapshots_are_byte_identical_across_thread_counts() {
        // The same per-item contributions — spread over 1, 2, or 8
        // worker threads, with the coordinator advancing a Virtual
        // clock across window boundaries and one idle gap — must render
        // to identical cfs-metrics/1 bytes. This is the windowed
        // analogue of the trace determinism contract.
        let render = |threads: u64| {
            let clock = Arc::new(Virtual::new());
            let rec = windowed(clock.clone());
            for phase in 0..6u64 {
                let per = 240 / threads;
                std::thread::scope(|scope| {
                    for t in 0..threads {
                        let rec = &rec;
                        scope.spawn(move || {
                            for i in (t * per)..((t + 1) * per) {
                                rec.counter("items", 1);
                                rec.observe("sizes", i % 7);
                            }
                        });
                    }
                });
                let s = rec.span_start();
                rec.span_end("phase", s);
                // Phase 3 sleeps through several window widths: the
                // idle gap must appear as the same index jump at every
                // thread count.
                clock.advance(if phase == 3 { 3_500 } else { 400 });
            }
            rec.render_metrics_json()
        };
        let one = render(1);
        assert_eq!(one, render(2));
        assert_eq!(one, render(8));
        assert_eq!(MetricsDoc::validate(&one), vec![]);
    }

    #[test]
    fn forwards_to_the_inner_recorder() {
        let clock: Arc<Virtual> = Arc::new(Virtual::new());
        let inner = Arc::new(crate::trace::TraceRecorder::new(clock.clone()));
        let rec = WindowedRecorder::new(inner.clone(), clock.clone(), 1_000, 4);
        rec.counter("reqs", 2);
        let outer = rec.span_start();
        let s = rec.span_start();
        clock.advance(500);
        rec.span_end("api.status", s);
        rec.span_end("api.batch", outer);
        let snap = inner.snapshot();
        assert_eq!(snap.counters["reqs"], 2);
        assert_eq!(snap.spans["api.status"].total_ns, 500);
        // Span entries reach the inner recorder too, so its paths nest.
        assert_eq!(snap.durations["api.batch;api.status"].total_ns, 500);
    }
}
