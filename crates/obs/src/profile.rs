//! The duration sidecar: wall-clock statistics by call path and the
//! `cfs-profile/2` export.
//!
//! The stable `cfs-trace/1` body deliberately carries no nanoseconds —
//! durations are the one thread- and machine-sensitive quantity a
//! snapshot holds (see [`crate::export::stable_body`]). Profiling still
//! needs them, so they travel in a *sidecar* document with its own
//! schema marker: stable in **shape** (fixed members, fixed log-scaled
//! bucket bounds), never in values, and never digested. Writing or
//! omitting the sidecar cannot perturb the deterministic trace digest
//! because the two exports read disjoint parts of the snapshot.
//!
//! Per call path (`cfs.run;cfs.iteration;stage.extract`, measured by
//! the recorder's per-thread span stack) the document keeps count /
//! total / min / max plus a histogram over [`PROFILE_BOUNDS_NS`]
//! (powers of two from 1 µs to ~17 s), from which
//! [`DurationStats::quantile_ns`] estimates p50/p99 to within one power
//! of two — plenty for "which stage got slower", which is what the diff
//! engine asks.
//!
//! The keys *are* the tree: a path's parent is the path minus its last
//! name, and its *self* time is its total minus its direct children's.
//! Children run inside their parent on the same thread, one after
//! another, so their totals never sum past the parent's;
//! [`ProfileDoc::parse`] refuses a document where they do, or where a
//! path's parent is missing.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::export::push_u64_list;
use crate::trace::TraceSnapshot;

/// Schema identifier stamped into every profile document.
pub const PROFILE_SCHEMA: &str = "cfs-profile/2";

/// Upper (inclusive) bucket bounds of the duration histograms, in
/// nanoseconds: powers of two from 2^10 (≈1 µs) to 2^34 (≈17 s), plus a
/// trailing overflow bucket. Fixed bounds keep merged statistics exact
/// and the export shape stable.
pub const PROFILE_BOUNDS_NS: [u64; 25] = [
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 21,
    1 << 22,
    1 << 23,
    1 << 24,
    1 << 25,
    1 << 26,
    1 << 27,
    1 << 28,
    1 << 29,
    1 << 30,
    1 << 31,
    1 << 32,
    1 << 33,
    1 << 34,
];

/// Aggregated wall-clock statistics of one call path: the sidecar's
/// counterpart to [`crate::SpanStats`]. Everything here is excluded
/// from the stable trace export.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurationStats {
    /// Completed entries.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
    /// Fastest entry, in nanoseconds (0 when nothing was recorded).
    pub min_ns: u64,
    /// Slowest entry, in nanoseconds.
    pub max_ns: u64,
    /// One counter per [`PROFILE_BOUNDS_NS`] bound, plus overflow.
    pub buckets: Vec<u64>,
}

impl Default for DurationStats {
    fn default() -> Self {
        Self {
            count: 0,
            total_ns: 0,
            min_ns: 0,
            max_ns: 0,
            buckets: vec![0; PROFILE_BOUNDS_NS.len() + 1],
        }
    }
}

impl DurationStats {
    /// Records one span duration.
    pub fn record(&mut self, ns: u64) {
        self.min_ns = if self.count == 0 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.max_ns = self.max_ns.max(ns);
        self.count += 1;
        self.total_ns += ns;
        let idx = PROFILE_BOUNDS_NS
            .iter()
            .position(|b| ns <= *b)
            .unwrap_or(PROFILE_BOUNDS_NS.len());
        self.buckets[idx] += 1;
    }

    /// Adds another statistics block into this one (exact: the bounds
    /// are shared).
    pub fn merge(&mut self, other: &DurationStats) {
        if other.count == 0 {
            return;
        }
        self.min_ns = if self.count == 0 {
            other.min_ns
        } else {
            self.min_ns.min(other.min_ns)
        };
        self.max_ns = self.max_ns.max(other.max_ns);
        self.count += other.count;
        self.total_ns += other.total_ns;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// The `pct`-th percentile duration, estimated from the log-scaled
    /// buckets: the upper bound of the bucket where the cumulative count
    /// crosses the rank, clamped into `[min_ns, max_ns]`. Within one
    /// power of two of the true value; deterministic for a given block.
    pub fn quantile_ns(&self, pct: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (u128::from(self.count) * u128::from(pct.min(100)))
            .div_ceil(100)
            .max(1) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let bound = PROFILE_BOUNDS_NS.get(i).copied().unwrap_or(self.max_ns);
                return bound.clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Mean duration in nanoseconds (0 when nothing was recorded).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// A parsed (or freshly built) `cfs-profile/2` document: the bucket
/// bounds it was recorded against plus duration statistics by call
/// path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileDoc {
    /// The `profile_le_ns` bounds the buckets are aligned to.
    pub bounds: Vec<u64>,
    /// Duration statistics by call path (`;`-joined span names), merged
    /// across every thread.
    pub spans: BTreeMap<String, DurationStats>,
}

impl ProfileDoc {
    /// Builds the document for a snapshot's duration sidecar.
    pub fn from_snapshot(snap: &TraceSnapshot) -> Self {
        Self {
            bounds: PROFILE_BOUNDS_NS.to_vec(),
            spans: snap.durations.clone(),
        }
    }

    /// Parses a `cfs-profile/2` document and checks its tree: every
    /// path's parent is present, and no parent's direct children total
    /// more than it does. The error names the member that failed, for
    /// `cfs check` and `trace-diff`'s malformed-input reporting.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let doc = serde_json::from_str::<Value>(raw).map_err(|e| format!("not JSON: {e}"))?;
        match doc.get("schema").and_then(Value::as_str) {
            Some(s) if s == PROFILE_SCHEMA => {}
            Some(s) => return Err(format!("schema is {s:?}, want {PROFILE_SCHEMA:?}")),
            None => return Err("missing schema member".into()),
        }
        let bounds = doc
            .get("profile_le_ns")
            .and_then(crate::to_u64_vec)
            .ok_or("missing or non-integer profile_le_ns")?;
        let mut spans = BTreeMap::new();
        for (path, entry) in doc
            .get("spans")
            .and_then(Value::as_object)
            .ok_or("missing spans object")?
            .iter()
        {
            spans.insert(
                path.clone(),
                parse_stats(entry, &format!("span {path:?}"), bounds.len())?,
            );
        }
        let doc = Self { bounds, spans };
        // Summed wide: the totals come from outside the program.
        let mut children_ns: BTreeMap<&str, u128> = BTreeMap::new();
        for (path, d) in &doc.spans {
            if let Some(parent) = parent_path(path) {
                if !doc.spans.contains_key(parent) {
                    return Err(format!("span {path:?}: parent {parent:?} missing"));
                }
                *children_ns.entry(parent).or_insert(0) += u128::from(d.total_ns);
            }
        }
        for (parent, ns) in children_ns {
            let total_ns = doc.spans[parent].total_ns;
            if ns > u128::from(total_ns) {
                return Err(format!(
                    "span {parent:?}: children total {ns} ns, more than its {total_ns} ns"
                ));
            }
        }
        Ok(doc)
    }

    /// Renders the document. Byte-stable for a given value: the map
    /// iterates in `BTreeMap` order and p50/p99 are recomputed from the
    /// buckets, so parse → render round-trips exactly.
    pub fn render(&self) -> String {
        let mut out = format!("{{\"schema\":\"{PROFILE_SCHEMA}\",\"profile_le_ns\":");
        push_u64_list(&mut out, self.bounds.iter().copied());
        out.push_str(",\"spans\":{");
        for (i, (path, d)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_stats_entry(&mut out, path, d);
        }
        out.push_str("}}");
        out
    }

    /// A path's self time: its total minus its direct children's, which
    /// never exceed it in a recorded or parsed document.
    fn self_ns(&self, path: &str) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|(p, _)| parent_path(p) == Some(path))
            .map(|(_, d)| d.total_ns)
            .sum();
        self.spans[path].total_ns - children
    }
}

/// The path a call path nests in, or `None` for a root.
fn parent_path(path: &str) -> Option<&str> {
    path.rsplit_once(';').map(|(parent, _)| parent)
}

/// Parses one duration-statistics entry (a profile path's or a metrics
/// window's).
pub(crate) fn parse_stats(
    entry: &Value,
    at: &str,
    bounds_len: usize,
) -> Result<DurationStats, String> {
    let field = |key: &str| {
        entry
            .get(key)
            .and_then(Value::as_u64)
            .ok_or(format!("{at}: missing or non-integer {key}"))
    };
    let buckets = entry
        .get("buckets")
        .and_then(crate::to_u64_vec)
        .ok_or(format!("{at}: missing buckets"))?;
    if buckets.len() != bounds_len + 1 {
        return Err(format!(
            "{at}: {} buckets, want {}",
            buckets.len(),
            bounds_len + 1
        ));
    }
    Ok(DurationStats {
        count: field("count")?,
        total_ns: field("total_ns")?,
        min_ns: field("min_ns")?,
        max_ns: field("max_ns")?,
        buckets,
    })
}

/// Renders one `"name":{count,…,buckets}` member (no trailing comma),
/// for profiles and metrics windows alike.
pub(crate) fn push_stats_entry(out: &mut String, name: &str, d: &DurationStats) {
    out.push_str(&format!(
        "\"{name}\":{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\
         \"p50_ns\":{},\"p99_ns\":{},\"buckets\":",
        d.count,
        d.total_ns,
        d.min_ns,
        d.max_ns,
        d.quantile_ns(50),
        d.quantile_ns(99),
    ));
    push_u64_list(out, d.buckets.iter().copied());
    out.push('}');
}

/// Renders the `cfs-profile/2` sidecar for a snapshot (the
/// `cfs run --profile-json` export).
pub fn render_profile_json(snap: &TraceSnapshot) -> String {
    ProfileDoc::from_snapshot(snap).render()
}

/// Renders the profile as folded-stack lines, one per call path:
/// `root;child;leaf <self_ns>`, compatible with flamegraph collapse
/// tooling (`flamegraph.pl`, inferno). The value is the path's *self*
/// nanoseconds, so stacking the lines reconstructs each parent's total.
/// Lines come in path order, so equal documents render equal bytes.
pub fn render_profile_folded(doc: &ProfileDoc) -> String {
    doc.spans
        .keys()
        .map(|path| format!("{path} {}\n", doc.self_ns(path)))
        .collect()
}

/// One row of the rendered tree.
struct TreeRow<'a> {
    path: &'a str,
    depth: usize,
    total_ns: u64,
    self_ns: u64,
    count: u64,
    p99_ns: u64,
}

/// Renders the human profile report: the call-path tree with total/self
/// time per span, then the top-`top_n` bottlenecks by self time
/// (the `cfs profile <file>` output).
pub fn render_profile_report(doc: &ProfileDoc, top_n: usize) -> String {
    let mut children: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut roots: Vec<&str> = Vec::new();
    for path in doc.spans.keys() {
        match parent_path(path) {
            Some(p) => children.entry(p).or_default().push(path),
            None => roots.push(path),
        }
    }
    // Heaviest subtrees first, path as the deterministic tiebreak.
    let by_weight = |paths: &mut Vec<&str>| {
        paths.sort_by(|a, b| {
            doc.spans[*b]
                .total_ns
                .cmp(&doc.spans[*a].total_ns)
                .then(a.cmp(b))
        });
    };
    by_weight(&mut roots);

    let mut rows: Vec<TreeRow> = Vec::new();
    let mut stack: Vec<(&str, usize)> = roots.iter().rev().map(|p| (*p, 0)).collect();
    while let Some((path, depth)) = stack.pop() {
        let d = &doc.spans[path];
        rows.push(TreeRow {
            path,
            depth,
            total_ns: d.total_ns,
            self_ns: doc.self_ns(path),
            count: d.count,
            p99_ns: d.quantile_ns(99),
        });
        if let Some(kids) = children.get_mut(path) {
            by_weight(kids);
            stack.extend(kids.iter().rev().map(|k| (*k, depth + 1)));
        }
    }

    // Every nanosecond recorded sits under exactly one root.
    let recorded_ns: u64 = roots.iter().map(|r| doc.spans[*r].total_ns).sum();
    let ms = |ns: u64| ns as f64 / 1e6;

    let mut out = format!("{PROFILE_SCHEMA} · {} paths\n", doc.spans.len());
    out.push_str("span tree (count · total / self):\n");
    for r in &rows {
        let name = r.path.rsplit(';').next().unwrap_or(r.path);
        let label = format!("{}{name}", "  ".repeat(r.depth));
        out.push_str(&format!(
            "  {label:<28} {:>6}\u{d7} {:>10.3}ms / {:>10.3}ms\n",
            r.count,
            ms(r.total_ns),
            ms(r.self_ns),
        ));
    }

    let mut hot: Vec<&TreeRow> = rows.iter().collect();
    hot.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(b.path)));
    hot.truncate(top_n);
    let width = hot.iter().map(|r| r.path.len()).max().unwrap_or(0);
    out.push_str(&format!("top {} bottlenecks by self time:\n", hot.len()));
    for (i, r) in hot.iter().enumerate() {
        out.push_str(&format!(
            "  {:>2}. {:<width$} {:>10.3}ms self ({:>5.1}% of all)  p99 {:.3}ms\n",
            i + 1,
            r.path,
            ms(r.self_ns),
            100.0 * r.self_ns as f64 / recorded_ns.max(1) as f64,
            ms(r.p99_ns),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::trace::TraceRecorder;
    use crate::Virtual;
    use std::sync::Arc;

    /// A run of 10ms: four 2ms iterations, each around a 0.9ms
    /// constraint stage around a 0.4ms remote stage, then a 0.1ms report.
    fn recorded_snapshot() -> TraceSnapshot {
        let clock = Arc::new(Virtual::new());
        let rec = TraceRecorder::new(clock.clone());
        let run = rec.span_start();
        for _ in 0..4 {
            let iteration = rec.span_start();
            let constrain = rec.span_start();
            let remote = rec.span_start();
            clock.advance(400_000);
            rec.span_end("stage.remote", remote);
            clock.advance(500_000);
            rec.span_end("stage.constrain", constrain);
            clock.advance(1_100_000);
            rec.span_end("cfs.iteration", iteration);
        }
        let report = rec.span_start();
        clock.advance(100_000);
        rec.span_end("stage.report", report);
        clock.advance(1_900_000);
        rec.span_end("cfs.run", run);
        rec.snapshot()
    }

    #[test]
    fn duration_stats_track_extrema_and_quantiles() {
        let mut d = DurationStats::default();
        for ns in [1_000u64, 2_000, 4_000, 1_000_000] {
            d.record(ns);
        }
        assert_eq!(d.count, 4);
        assert_eq!(d.min_ns, 1_000);
        assert_eq!(d.max_ns, 1_000_000);
        assert_eq!(d.total_ns, 1_007_000);
        assert!(d.quantile_ns(50) <= d.quantile_ns(99));
        assert!(d.quantile_ns(99) <= d.max_ns);
        assert!(d.quantile_ns(0) >= d.min_ns);
    }

    #[test]
    fn merge_matches_serial_recording() {
        let mut serial = DurationStats::default();
        let mut left = DurationStats::default();
        let mut right = DurationStats::default();
        for i in 0..100u64 {
            let ns = i * 77_777;
            serial.record(ns);
            if i % 2 == 0 { &mut left } else { &mut right }.record(ns);
        }
        left.merge(&right);
        assert_eq!(serial, left);
    }

    #[test]
    fn overflow_bucket_catches_the_giants() {
        let mut d = DurationStats::default();
        d.record(u64::MAX / 2);
        assert_eq!(d.buckets[PROFILE_BOUNDS_NS.len()], 1);
        assert_eq!(d.quantile_ns(99), u64::MAX / 2);
    }

    #[test]
    fn render_parse_round_trip_is_byte_identical() {
        let doc = ProfileDoc::from_snapshot(&recorded_snapshot());
        let rendered = doc.render();
        assert!(rendered.starts_with("{\"schema\":\"cfs-profile/2\","));
        let reparsed = ProfileDoc::parse(&rendered).expect("parse own output");
        assert_eq!(doc, reparsed);
        assert_eq!(rendered, reparsed.render());
    }

    #[test]
    fn parse_errors_name_the_failing_member() {
        for (raw, needle) in [
            ("{}", "missing schema"),
            ("{\"schema\":\"cfs-trace/1\"}", "schema is"),
            (
                "{\"schema\":\"cfs-profile/1\",\"profile_le_ns\":[1],\"spans\":{}}",
                "schema is \"cfs-profile/1\"",
            ),
            ("{\"schema\":\"cfs-profile/2\"}", "profile_le_ns"),
            (
                "{\"schema\":\"cfs-profile/2\",\"profile_le_ns\":[1],\"spans\":{\"x\":{}}}",
                "missing buckets",
            ),
            (
                "{\"schema\":\"cfs-profile/2\",\"profile_le_ns\":[1],\
                 \"spans\":{\"x\":{\"buckets\":[1]}}}",
                "1 buckets, want 2",
            ),
        ] {
            let err = ProfileDoc::parse(raw).unwrap_err();
            assert!(err.contains(needle), "{raw}: {err}");
        }
    }

    #[test]
    fn report_attributes_self_time_down_the_measured_tree() {
        let doc = ProfileDoc::from_snapshot(&recorded_snapshot());
        let report = render_profile_report(&doc, 3);
        // cfs.run self = 10ms − (4×2ms iteration + 0.1ms report) = 1.9ms.
        assert!(report.contains("cfs.run"), "{report}");
        assert!(report.contains("1.900ms"), "run self time wrong:\n{report}");
        // stage.remote nests under stage.constrain, two levels deep.
        assert!(report.contains("    stage.remote"), "{report}");
        assert!(report.contains("top 3 bottlenecks"), "{report}");
    }

    #[test]
    fn folded_stacks_are_the_call_paths_with_self_time() {
        let doc = ProfileDoc::from_snapshot(&recorded_snapshot());
        let folded = render_profile_folded(&doc);
        let lines: Vec<&str> = folded.lines().collect();
        assert!(
            lines.contains(&"cfs.run;cfs.iteration;stage.constrain;stage.remote 1600000"),
            "{folded}"
        );
        // stage.constrain self = 4×900k − 4×400k (remote nests inside).
        assert!(
            lines.contains(&"cfs.run;cfs.iteration;stage.constrain 2000000"),
            "{folded}"
        );
        // cfs.run self = 10ms − (4×2ms iteration + 0.1ms report).
        assert!(lines.contains(&"cfs.run 1900000"), "{folded}");
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "folded lines are emitted sorted");
        assert_eq!(render_profile_folded(&ProfileDoc::default()), "");
    }

    #[test]
    fn parse_refuses_a_broken_tree() {
        let stats = |total_ns| {
            let mut d = DurationStats::default();
            d.record(total_ns);
            d
        };
        let doc = |paths: &[(&str, u64)]| {
            ProfileDoc {
                bounds: PROFILE_BOUNDS_NS.to_vec(),
                spans: paths
                    .iter()
                    .map(|(path, ns)| ((*path).to_string(), stats(*ns)))
                    .collect(),
            }
            .render()
        };
        let orphan = doc(&[("cfs.run", 10), ("cfs.run;cfs.iteration;stage.extract", 5)]);
        let err = ProfileDoc::parse(&orphan).unwrap_err();
        assert!(
            err.contains("parent \"cfs.run;cfs.iteration\" missing"),
            "{err}"
        );

        let overfull = doc(&[("a", 10), ("a;b", 6), ("a;c", 5), ("a;c;d", 5)]);
        let err = ProfileDoc::parse(&overfull).unwrap_err();
        assert!(err.contains("span \"a\": children total 11 ns"), "{err}");
        // Children whose totals overflow a u64 when summed still outgrow it.
        let max = u64::MAX;
        let wrapping = doc(&[("a", max), ("a;b", max), ("a;c", 1)]);
        let err = ProfileDoc::parse(&wrapping).unwrap_err();
        assert!(err.contains("span \"a\": children total"), "{err}");

        let exact = doc(&[("a", 11), ("a;b", 6), ("a;c", 5), ("a;c;d", 5)]);
        let parsed = ProfileDoc::parse(&exact).expect("children may fill their parent");
        assert_eq!(
            render_profile_folded(&parsed),
            "a 0\na;b 6\na;c 0\na;c;d 5\n"
        );
    }

    #[test]
    fn report_handles_empty_and_unknown_spans() {
        let empty = render_profile_report(&ProfileDoc::default(), 5);
        assert!(empty.contains("0 paths"), "{empty}");
        let mut doc = ProfileDoc::default();
        doc.spans
            .insert("custom.thing".into(), DurationStats::default());
        let report = render_profile_report(&doc, 5);
        assert!(report.contains("custom.thing"), "{report}");
    }
}
