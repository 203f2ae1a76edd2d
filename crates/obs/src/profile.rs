//! The duration sidecar: per-span wall-clock statistics and the
//! `cfs-profile/1` export.
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
//! Per span name the recorder keeps count / total / min / max plus a
//! histogram over [`PROFILE_BOUNDS_NS`] (powers of two from 1 µs to
//! ~17 s), from which [`DurationStats::quantile_ns`] estimates p50/p99
//! to within one power of two — plenty for "which stage got slower",
//! which is what the diff engine asks.
//!
//! [`render_profile_report`] folds the flat per-name statistics into
//! the static span taxonomy (`cfs.run` ⊃ `cfs.iteration` ⊃ `stage.*`)
//! and charges each parent its *self* time — total minus the children
//! recorded under it. Stages that run both inside and outside the
//! iteration loop (`stage.extract`, `stage.alias_resolution` also run
//! once at bootstrap) are attributed to their majority home, so a
//! parent's self time saturates at zero rather than going negative.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::export::push_u64_list;
use crate::trace::TraceSnapshot;

/// Schema identifier stamped into every profile document.
pub const PROFILE_SCHEMA: &str = "cfs-profile/1";

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

/// Aggregated wall-clock statistics of one span name: the sidecar's
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

/// A parsed (or freshly built) `cfs-profile/1` document: the bucket
/// bounds it was recorded against plus per-span duration statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileDoc {
    /// The `profile_le_ns` bounds the buckets are aligned to.
    pub bounds: Vec<u64>,
    /// Duration statistics by span name, merged across every shard.
    pub spans: BTreeMap<String, DurationStats>,
    /// Pre-merge duration statistics keyed by shard id (stringified
    /// shard index): where each span's time was actually spent,
    /// thread by thread. Purely additional — `spans` already holds the
    /// merged totals — and as thread-sensitive as every duration, so
    /// the diff engine ignores it. Empty for documents predating the
    /// member.
    pub threads: BTreeMap<String, BTreeMap<String, DurationStats>>,
}

impl ProfileDoc {
    /// Builds the document for a snapshot's duration sidecar.
    pub fn from_snapshot(snap: &TraceSnapshot) -> Self {
        Self {
            bounds: PROFILE_BOUNDS_NS.to_vec(),
            spans: snap
                .durations
                .iter()
                .map(|(name, d)| ((*name).to_string(), d.clone()))
                .collect(),
            threads: snap
                .duration_shards
                .iter()
                .map(|(shard, durations)| {
                    (
                        shard.to_string(),
                        durations
                            .iter()
                            .map(|(name, d)| ((*name).to_string(), d.clone()))
                            .collect(),
                    )
                })
                .collect(),
        }
    }

    /// Parses a `cfs-profile/1` document. The error names the member
    /// that failed, for `trace-diff`'s malformed-input reporting.
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
        for (name, entry) in doc
            .get("spans")
            .and_then(Value::as_object)
            .ok_or("missing spans object")?
            .iter()
        {
            spans.insert(
                name.clone(),
                parse_stats(entry, &format!("span {name:?}"), bounds.len())?,
            );
        }
        // Optional: documents predating the per-thread shard sidecar
        // carry no threads member.
        let mut threads = BTreeMap::new();
        if let Some(shards) = doc.get("threads") {
            let shards = shards
                .as_object()
                .ok_or("threads member is not an object")?;
            for (shard, obj) in shards.iter() {
                let mut per_span = BTreeMap::new();
                for (name, entry) in obj
                    .as_object()
                    .ok_or(format!("threads shard {shard:?} is not an object"))?
                    .iter()
                {
                    per_span.insert(
                        name.clone(),
                        parse_stats(
                            entry,
                            &format!("threads shard {shard:?} span {name:?}"),
                            bounds.len(),
                        )?,
                    );
                }
                threads.insert(shard.clone(), per_span);
            }
        }
        Ok(Self {
            bounds,
            spans,
            threads,
        })
    }

    /// Renders the document. Byte-stable for a given value: maps
    /// iterate in `BTreeMap` order and p50/p99 are recomputed from the
    /// buckets, so parse → render round-trips exactly.
    pub fn render(&self) -> String {
        let mut out = format!("{{\"schema\":\"{PROFILE_SCHEMA}\",\"profile_le_ns\":");
        push_u64_list(&mut out, self.bounds.iter().copied());
        out.push_str(",\"spans\":{");
        for (i, (name, d)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_stats_entry(&mut out, name, d);
        }
        out.push_str("},\"threads\":{");
        for (i, (shard, per_span)) in self.threads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{shard}\":{{"));
            for (j, (name, d)) in per_span.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_stats_entry(&mut out, name, d);
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// Parses one duration-statistics entry (a span's or a shard-span's).
fn parse_stats(entry: &Value, at: &str, bounds_len: usize) -> Result<DurationStats, String> {
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

/// Renders one `"name":{count,…,buckets}` member (no trailing comma).
fn push_stats_entry(out: &mut String, name: &str, d: &DurationStats) {
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

/// Renders the `cfs-profile/1` sidecar for a snapshot (the
/// `cfs run --profile-json` export).
pub fn render_profile_json(snap: &TraceSnapshot) -> String {
    ProfileDoc::from_snapshot(snap).render()
}

/// Renders the profile as folded-stack lines, one per span:
/// `root;child;leaf <self_ns>`, compatible with flamegraph collapse
/// tooling (`flamegraph.pl`, inferno). The stack is the span's chain of
/// ancestors in the static taxonomy; the value is *self* nanoseconds
/// (total minus children present in the document, floored at zero) so
/// stacking the lines reconstructs each parent's total. Lines are
/// emitted in lexicographic stack order, so equal documents render
/// equal bytes.
pub fn render_profile_folded(doc: &ProfileDoc) -> String {
    let parent_of = |name: &str| -> Option<&str> {
        parent_candidates(name)
            .iter()
            .copied()
            .find(|p| doc.spans.contains_key(*p))
    };
    let mut children_total: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, d) in &doc.spans {
        if let Some(p) = parent_of(name) {
            *children_total.entry(p).or_insert(0) += d.total_ns;
        }
    }
    let mut lines: Vec<String> = Vec::new();
    for (name, d) in &doc.spans {
        // Walk ancestors leaf → root, then reverse into a stack string.
        let mut chain = vec![name.as_str()];
        let mut cursor = name.as_str();
        while let Some(p) = parent_of(cursor) {
            chain.push(p);
            cursor = p;
        }
        chain.reverse();
        let self_ns = d
            .total_ns
            .saturating_sub(children_total.get(name.as_str()).copied().unwrap_or(0));
        lines.push(format!("{} {self_ns}", chain.join(";")));
    }
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// The static span taxonomy: candidate parents for a span name, most
/// specific first. The first candidate actually present in the profile
/// wins; a name with no surviving candidate is a root.
fn parent_candidates(name: &str) -> &'static [&'static str] {
    match name {
        "cfs.run" => &[],
        "cfs.iteration" | "stage.report" => &["cfs.run"],
        // Remote-peering verdicts are prefetched from inside the
        // constraint stage.
        "stage.remote" => &["stage.constrain", "cfs.iteration", "cfs.run"],
        _ if name.starts_with("stage.") => &["cfs.iteration", "cfs.run"],
        _ => &[],
    }
}

/// One row of the aggregated tree.
struct TreeRow {
    name: String,
    depth: usize,
    total_ns: u64,
    self_ns: u64,
    count: u64,
    p99_ns: u64,
}

/// Renders the human profile report: the span tree with total/self
/// time per stage, then the top-`top_n` bottlenecks by self time
/// (the `cfs profile <file>` output).
pub fn render_profile_report(doc: &ProfileDoc, top_n: usize) -> String {
    // Resolve each span's parent against what the profile holds.
    let parent_of = |name: &str| -> Option<&str> {
        parent_candidates(name)
            .iter()
            .copied()
            .find(|p| doc.spans.contains_key(*p))
    };
    let mut children: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut roots: Vec<&str> = Vec::new();
    for name in doc.spans.keys() {
        match parent_of(name) {
            Some(p) => children.entry(p).or_default().push(name),
            None => roots.push(name),
        }
    }
    let child_total = |name: &str| -> u64 {
        children
            .get(name)
            .map(|c| c.iter().map(|n| doc.spans[*n].total_ns).sum())
            .unwrap_or(0)
    };
    // Heaviest subtrees first, name as the deterministic tiebreak.
    let by_weight = |names: &mut Vec<&str>| {
        names.sort_by(|a, b| {
            doc.spans[*b]
                .total_ns
                .cmp(&doc.spans[*a].total_ns)
                .then(a.cmp(b))
        });
    };
    by_weight(&mut roots);

    let mut rows: Vec<TreeRow> = Vec::new();
    let mut stack: Vec<(&str, usize)> = roots.iter().rev().map(|n| (*n, 0)).collect();
    while let Some((name, depth)) = stack.pop() {
        let d = &doc.spans[name];
        rows.push(TreeRow {
            name: name.to_string(),
            depth,
            total_ns: d.total_ns,
            self_ns: d.total_ns.saturating_sub(child_total(name)),
            count: d.count,
            p99_ns: d.quantile_ns(99),
        });
        if let Some(kids) = children.get(name) {
            let mut kids = kids.clone();
            by_weight(&mut kids);
            for k in kids.iter().rev() {
                stack.push((k, depth + 1));
            }
        }
    }

    let run_total = doc
        .spans
        .get("cfs.run")
        .map(|d| d.total_ns)
        .unwrap_or_else(|| {
            rows.iter()
                .filter(|r| r.depth == 0)
                .map(|r| r.total_ns)
                .sum()
        })
        .max(1);
    let ms = |ns: u64| ns as f64 / 1e6;

    let mut out = format!("{PROFILE_SCHEMA} · {} spans\n", doc.spans.len());
    out.push_str("span tree (count · total / self):\n");
    for r in &rows {
        let label = format!("{}{}", "  ".repeat(r.depth), r.name);
        out.push_str(&format!(
            "  {label:<28} {:>6}\u{d7} {:>10.3}ms / {:>10.3}ms\n",
            r.count,
            ms(r.total_ns),
            ms(r.self_ns),
        ));
    }

    let mut hot: Vec<&TreeRow> = rows.iter().collect();
    hot.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    hot.truncate(top_n);
    out.push_str(&format!("top {} bottlenecks by self time:\n", hot.len()));
    for (i, r) in hot.iter().enumerate() {
        out.push_str(&format!(
            "  {:>2}. {:<24} {:>10.3}ms self ({:>5.1}% of run)  p99 {:.3}ms\n",
            i + 1,
            r.name,
            ms(r.self_ns),
            100.0 * r.self_ns as f64 / run_total as f64,
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

    fn recorded_snapshot() -> TraceSnapshot {
        let clock = Arc::new(Virtual::new());
        let rec = TraceRecorder::new(clock.clone());
        let span = |name, ns| {
            let s = rec.span_start();
            clock.advance(ns);
            rec.span_end(name, s);
        };
        span("cfs.run", 10_000_000);
        for _ in 0..4 {
            span("cfs.iteration", 2_000_000);
            span("stage.constrain", 900_000);
            span("stage.remote", 400_000);
        }
        span("stage.report", 100_000);
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
        assert!(rendered.starts_with("{\"schema\":\"cfs-profile/1\","));
        let reparsed = ProfileDoc::parse(&rendered).expect("parse own output");
        assert_eq!(doc, reparsed);
        assert_eq!(rendered, reparsed.render());
    }

    #[test]
    fn parse_errors_name_the_failing_member() {
        for (raw, needle) in [
            ("{}", "missing schema"),
            ("{\"schema\":\"cfs-trace/1\"}", "schema is"),
            ("{\"schema\":\"cfs-profile/1\"}", "profile_le_ns"),
            (
                "{\"schema\":\"cfs-profile/1\",\"profile_le_ns\":[1],\"spans\":{\"x\":{}}}",
                "missing buckets",
            ),
            (
                "{\"schema\":\"cfs-profile/1\",\"profile_le_ns\":[1],\
                 \"spans\":{\"x\":{\"buckets\":[1]}}}",
                "1 buckets, want 2",
            ),
        ] {
            let err = ProfileDoc::parse(raw).unwrap_err();
            assert!(err.contains(needle), "{raw}: {err}");
        }
    }

    #[test]
    fn report_attributes_self_time_down_the_taxonomy() {
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
    fn folded_stacks_chain_the_taxonomy_and_carry_self_time() {
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
    fn threads_map_rides_the_sidecar_with_totals_unchanged() {
        let snap = recorded_snapshot();
        let doc = ProfileDoc::from_snapshot(&snap);
        // Everything above was recorded from one thread → one shard,
        // whose statistics must equal the merged spans.
        assert_eq!(doc.threads.len(), 1, "{:?}", doc.threads.keys());
        let only = doc.threads.values().next().expect("one shard");
        let merged: BTreeMap<String, DurationStats> = doc.spans.clone();
        assert_eq!(*only, merged, "single-shard stats equal the totals");
        // And the member round-trips through the document bytes.
        let rendered = doc.render();
        assert!(rendered.contains("\"threads\":{\""), "{rendered}");
        let reparsed = ProfileDoc::parse(&rendered).expect("parse with threads");
        assert_eq!(doc, reparsed);
        assert_eq!(rendered, reparsed.render());
        // Documents predating the member still parse, threads empty.
        let legacy = "{\"schema\":\"cfs-profile/1\",\"profile_le_ns\":[1],\"spans\":{}}";
        assert!(ProfileDoc::parse(legacy)
            .expect("legacy")
            .threads
            .is_empty());
    }

    #[test]
    fn report_handles_empty_and_unknown_spans() {
        let empty = render_profile_report(&ProfileDoc::default(), 5);
        assert!(empty.contains("0 spans"), "{empty}");
        let mut doc = ProfileDoc::default();
        doc.spans
            .insert("custom.thing".into(), DurationStats::default());
        let report = render_profile_report(&doc, 5);
        assert!(report.contains("custom.thing"), "{report}");
    }
}
