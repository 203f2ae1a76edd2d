//! Structural diffing of exported documents: the engine behind
//! `cfs trace-diff`.
//!
//! Two `cfs-trace/1` documents, read by [`TraceDoc::parse`] (which
//! refuses a digest that does not match its body), are compared
//! **exactly**, member by member — counters added/removed/changed with
//! deltas, histogram count/sum/bucket shifts, span counts, convergence
//! telemetry and resolution-curve divergence, and `shape`,
//! `histogram_le` and `kb_quality` named whole when they differ. The
//! trace body is deterministic for a given (world, seed, code) triple,
//! so *any* difference is drift worth explaining; there is no tolerance
//! on this side.
//!
//! Two `cfs-profile/2` documents are compared **within tolerance**,
//! call path by call path — span *counts* must match exactly (they are
//! deterministic), but
//! durations are machine noise until they move by more than
//! `tolerance_pct` percent, which is when a stage gets flagged as a
//! regression (or an improvement; the diff is signed).
//!
//! [`diff_docs`] sniffs the `schema` member of both inputs and
//! dispatches; mixing the two schemas is malformed input, as is
//! anything that fails to parse. The CLI maps the outcome to exit
//! codes: 0 identical-within-tolerance, 1 drift, 2 malformed.

use std::collections::BTreeSet;
use std::fmt;

use serde_json::Value;

use crate::export::{push_joined, push_pairs, TraceDoc, TRACE_SCHEMA};
use crate::profile::{ProfileDoc, PROFILE_SCHEMA};
use crate::MetricsHistogram;

/// Why a pair of documents could not be diffed (CLI exit code 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiffError {
    /// One input failed to parse or misses required members; the string
    /// names the side (`a`/`b`) and the failing member.
    Malformed(String),
    /// The two inputs carry different schema markers.
    SchemaMismatch(String, String),
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::Malformed(msg) => write!(f, "malformed input: {msg}"),
            DiffError::SchemaMismatch(a, b) => {
                write!(f, "schema mismatch: {a:?} vs {b:?} — diff like with like")
            }
        }
    }
}

/// One histogram whose content moved between the runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramDelta {
    /// Histogram name.
    pub name: String,
    /// Sample counts in a and b.
    pub count: (u64, u64),
    /// Sample sums in a and b.
    pub sum: (u64, u64),
    /// How many buckets hold different values.
    pub shifted_buckets: usize,
}

/// How the convergence telemetry moved.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConvergenceDelta {
    /// `per_iteration` lengths in a and b.
    pub iterations: (usize, usize),
    /// Whether any part of the convergence subtree differs.
    pub changed: bool,
}

/// How the resolution curves diverge.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CurveDelta {
    /// Curve lengths in a and b.
    pub len: (usize, usize),
    /// First index where the curves disagree (or one ends), if any:
    /// set whenever they differ.
    pub first_divergence: Option<usize>,
    /// Largest absolute pointwise difference over the shared prefix.
    pub max_abs_delta: f64,
}

/// The structural difference between two `cfs-trace/1` documents.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceDiff {
    /// Counters only in b, with their values.
    pub counters_added: Vec<(String, u64)>,
    /// Counters only in a, with their values.
    pub counters_removed: Vec<(String, u64)>,
    /// Counters in both with different values: `(name, a, b)`.
    pub counters_changed: Vec<(String, u64, u64)>,
    /// Histograms whose count/sum/buckets moved (includes one-sided
    /// names, with zeros on the missing side).
    pub histograms_changed: Vec<HistogramDelta>,
    /// Span entry counts that moved: `(name, a, b)` (0 = absent).
    pub spans_changed: Vec<(String, u64, u64)>,
    /// Convergence telemetry movement.
    pub convergence: ConvergenceDelta,
    /// Resolution-curve movement.
    pub curve: CurveDelta,
    /// Members compared whole that differ (`shape`, `histogram_le`,
    /// `kb_quality`), in body order.
    pub members_changed: Vec<&'static str>,
}

impl TraceDiff {
    /// Whether anything differs. Trace comparison is exact.
    pub fn is_drift(&self) -> bool {
        !self.counters_added.is_empty()
            || !self.counters_removed.is_empty()
            || !self.counters_changed.is_empty()
            || !self.histograms_changed.is_empty()
            || !self.spans_changed.is_empty()
            || self.convergence.changed
            || self.curve.first_divergence.is_some()
            || !self.members_changed.is_empty()
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        if !self.is_drift() {
            return "trace diff: identical\n".to_string();
        }
        let mut out = String::from("trace diff: DRIFT\n");
        if !(self.counters_added.is_empty()
            && self.counters_removed.is_empty()
            && self.counters_changed.is_empty())
        {
            out.push_str(&format!(
                "counters (+{} \u{2212}{} ~{}):\n",
                self.counters_added.len(),
                self.counters_removed.len(),
                self.counters_changed.len()
            ));
            for (name, v) in &self.counters_added {
                out.push_str(&format!("  + {name} = {v}\n"));
            }
            for (name, v) in &self.counters_removed {
                out.push_str(&format!("  \u{2212} {name} = {v}\n"));
            }
            for (name, a, b) in &self.counters_changed {
                let delta = i128::from(*b) - i128::from(*a);
                out.push_str(&format!("  ~ {name} {a} \u{2192} {b} ({delta:+})\n"));
            }
        }
        if !self.histograms_changed.is_empty() {
            out.push_str(&format!(
                "histograms (~{}):\n",
                self.histograms_changed.len()
            ));
            for h in &self.histograms_changed {
                out.push_str(&format!(
                    "  ~ {} count {} \u{2192} {}, sum {} \u{2192} {}, {} bucket(s) shifted\n",
                    h.name, h.count.0, h.count.1, h.sum.0, h.sum.1, h.shifted_buckets
                ));
            }
        }
        if !self.spans_changed.is_empty() {
            out.push_str(&format!("spans (~{}):\n", self.spans_changed.len()));
            for (name, a, b) in &self.spans_changed {
                out.push_str(&format!("  ~ {name} {a} \u{2192} {b}\n"));
            }
        }
        if self.convergence.changed {
            out.push_str(&format!(
                "convergence: {} \u{2192} {} iterations, telemetry diverged\n",
                self.convergence.iterations.0, self.convergence.iterations.1
            ));
        }
        if let Some(i) = self.curve.first_divergence {
            out.push_str(&format!(
                "resolution_curve: len {} \u{2192} {}, diverges at index {i} (max |\u{394}| {:.6})\n",
                self.curve.len.0, self.curve.len.1, self.curve.max_abs_delta
            ));
        }
        for member in &self.members_changed {
            out.push_str(&format!("{member}: changed\n"));
        }
        out
    }

    /// Machine-readable report (stable member order).
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"cfs-trace-diff/1\",\"drift\":{},\"counters\":{{\"added\":{{",
            self.is_drift()
        );
        push_pairs(&mut out, self.counters_added.iter().map(|(n, v)| (n, v)));
        out.push_str("},\"removed\":{");
        push_pairs(&mut out, self.counters_removed.iter().map(|(n, v)| (n, v)));
        out.push_str("},\"changed\":{");
        push_moves(&mut out, &self.counters_changed);
        out.push_str("}},\"histograms\":{");
        push_pairs(
            &mut out,
            self.histograms_changed.iter().map(|h| {
                let (count, sum) = (h.count, h.sum);
                let moved = format!(
                    "{{\"count\":[{},{}],\"sum\":[{},{}],\"shifted_buckets\":{}}}",
                    count.0, count.1, sum.0, sum.1, h.shifted_buckets
                );
                (&h.name, moved)
            }),
        );
        out.push_str("},\"spans\":{");
        push_moves(&mut out, &self.spans_changed);
        out.push_str(&format!(
            "}},\"convergence\":{{\"iterations\":[{},{}],\"changed\":{}}},\
             \"resolution_curve\":{{\"len\":[{},{}],\"first_divergence\":{},\
             \"max_abs_delta\":{}}},\"members_changed\":[",
            self.convergence.iterations.0,
            self.convergence.iterations.1,
            self.convergence.changed,
            self.curve.len.0,
            self.curve.len.1,
            self.curve
                .first_divergence
                .map_or("null".to_string(), |i| i.to_string()),
            self.curve.max_abs_delta,
        ));
        push_name_list(&mut out, self.members_changed.iter());
        out.push_str("]}");
        out
    }
}

/// Appends `"name":[a,b]` members for values that moved.
fn push_moves(out: &mut String, moves: &[(String, u64, u64)]) {
    push_pairs(out, moves.iter().map(|(n, a, b)| (n, format!("[{a},{b}]"))));
}

/// One stage whose duration moved beyond tolerance.
#[derive(Clone, Debug, PartialEq)]
pub struct StageDelta {
    /// Call path.
    pub name: String,
    /// Total nanoseconds in a and b.
    pub total_ns: (u64, u64),
    /// p99 nanoseconds in a and b.
    pub p99_ns: (u64, u64),
    /// Signed percent change of the total, relative to a.
    pub delta_pct: f64,
}

/// The difference between two `cfs-profile/2` documents, by call path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileDiff {
    /// Tolerance applied to duration comparisons, in percent.
    pub tolerance_pct: u32,
    /// Call paths only in b.
    pub spans_added: Vec<String>,
    /// Call paths only in a.
    pub spans_removed: Vec<String>,
    /// Span entry counts that moved (deterministic, compared exactly).
    pub counts_changed: Vec<(String, u64, u64)>,
    /// Stages whose total duration moved beyond tolerance.
    pub duration_changed: Vec<StageDelta>,
    /// Call paths compared and found within tolerance.
    pub within_tolerance: usize,
}

impl ProfileDiff {
    /// Whether the profiles drifted: structural changes or any stage
    /// beyond tolerance.
    pub fn is_drift(&self) -> bool {
        !self.spans_added.is_empty()
            || !self.spans_removed.is_empty()
            || !self.counts_changed.is_empty()
            || !self.duration_changed.is_empty()
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let verdict = if self.is_drift() {
            "DRIFT"
        } else {
            "within tolerance"
        };
        let mut out = format!(
            "profile diff (tolerance \u{b1}{}%): {verdict}\n",
            self.tolerance_pct
        );
        for name in &self.spans_added {
            out.push_str(&format!("  + span {name}\n"));
        }
        for name in &self.spans_removed {
            out.push_str(&format!("  \u{2212} span {name}\n"));
        }
        for (name, a, b) in &self.counts_changed {
            out.push_str(&format!("  ~ count {name} {a} \u{2192} {b}\n"));
        }
        for d in &self.duration_changed {
            out.push_str(&format!(
                "  ~ {} total {:.3}ms \u{2192} {:.3}ms ({:+.1}%), p99 {:.3}ms \u{2192} {:.3}ms\n",
                d.name,
                d.total_ns.0 as f64 / 1e6,
                d.total_ns.1 as f64 / 1e6,
                d.delta_pct,
                d.p99_ns.0 as f64 / 1e6,
                d.p99_ns.1 as f64 / 1e6,
            ));
        }
        out.push_str(&format!(
            "  {} span(s) within tolerance\n",
            self.within_tolerance
        ));
        out
    }

    /// Machine-readable report (stable member order).
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"cfs-profile-diff/1\",\"drift\":{},\"tolerance_pct\":{},\"added\":[",
            self.is_drift(),
            self.tolerance_pct
        );
        push_name_list(&mut out, &self.spans_added);
        out.push_str("],\"removed\":[");
        push_name_list(&mut out, &self.spans_removed);
        out.push_str("],\"counts_changed\":{");
        push_moves(&mut out, &self.counts_changed);
        out.push_str("},\"duration_changed\":{");
        push_pairs(
            &mut out,
            self.duration_changed.iter().map(|d| {
                let moved = format!(
                    "{{\"total_ns\":[{},{}],\"p99_ns\":[{},{}],\"delta_pct\":{:.3}}}",
                    d.total_ns.0, d.total_ns.1, d.p99_ns.0, d.p99_ns.1, d.delta_pct
                );
                (&d.name, moved)
            }),
        );
        out.push_str(&format!(
            "}},\"within_tolerance\":{}}}",
            self.within_tolerance
        ));
        out
    }
}

fn push_name_list(out: &mut String, names: impl IntoIterator<Item = impl fmt::Display>) {
    push_joined(out, names, |out, n| out.push_str(&format!("\"{n}\"")));
}

/// A diff of either schema pair.
#[derive(Clone, Debug, PartialEq)]
pub enum DocDiff {
    /// Two `cfs-trace/1` documents, compared exactly.
    Trace(TraceDiff),
    /// Two `cfs-profile/2` documents, compared within tolerance.
    Profile(ProfileDiff),
}

impl DocDiff {
    /// Whether the pair drifted (CLI exit code 1).
    pub fn is_drift(&self) -> bool {
        match self {
            DocDiff::Trace(d) => d.is_drift(),
            DocDiff::Profile(d) => d.is_drift(),
        }
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        match self {
            DocDiff::Trace(d) => d.render_text(),
            DocDiff::Profile(d) => d.render_text(),
        }
    }

    /// Machine-readable report.
    pub fn render_json(&self) -> String {
        match self {
            DocDiff::Trace(d) => d.render_json(),
            DocDiff::Profile(d) => d.render_json(),
        }
    }
}

/// Diffs two exported documents, dispatching on their `schema` member.
/// `tolerance_pct` applies only to profile durations; traces are
/// compared exactly.
pub fn diff_docs(a_raw: &str, b_raw: &str, tolerance_pct: u32) -> Result<DocDiff, DiffError> {
    let schema_of = |raw: &str, side: &str| -> Result<String, DiffError> {
        serde_json::from_str::<Value>(raw)
            .map_err(|e| DiffError::Malformed(format!("{side}: {e}")))?
            .get("schema")
            .and_then(Value::as_str)
            .map(String::from)
            .ok_or_else(|| DiffError::Malformed(format!("{side}: missing schema member")))
    };
    let a_schema = schema_of(a_raw, "a")?;
    let b_schema = schema_of(b_raw, "b")?;
    if a_schema != b_schema {
        return Err(DiffError::SchemaMismatch(a_schema, b_schema));
    }
    fn read<T>(
        raw: &str,
        side: &str,
        parse: fn(&str) -> Result<T, String>,
    ) -> Result<T, DiffError> {
        parse(raw).map_err(|e| DiffError::Malformed(format!("{side}: {e}")))
    }
    match a_schema.as_str() {
        TRACE_SCHEMA => Ok(DocDiff::Trace(diff_traces(
            &read(a_raw, "a", TraceDoc::parse)?,
            &read(b_raw, "b", TraceDoc::parse)?,
        ))),
        PROFILE_SCHEMA => Ok(DocDiff::Profile(diff_profiles(
            &read(a_raw, "a", ProfileDoc::parse)?,
            &read(b_raw, "b", ProfileDoc::parse)?,
            tolerance_pct,
        ))),
        other => Err(DiffError::Malformed(format!("unknown schema {other:?}"))),
    }
}

/// Diffs two parsed traces exactly, member by member: every member of
/// the digested body is itemised or named, so two documents whose
/// bodies differ never read identical.
pub fn diff_traces(a: &TraceDoc, b: &TraceDoc) -> TraceDiff {
    let mut d = TraceDiff::default();
    let whole = [
        ("shape", a.shape != b.shape),
        ("histogram_le", a.histogram_le != b.histogram_le),
        ("kb_quality", a.kb_quality != b.kb_quality),
    ];
    d.members_changed = whole
        .iter()
        .filter(|(_, moved)| *moved)
        .map(|(m, _)| *m)
        .collect();
    let counter_names: BTreeSet<&String> = a.counters.keys().chain(b.counters.keys()).collect();
    for name in counter_names {
        match (a.counters.get(name), b.counters.get(name)) {
            (Some(av), None) => d.counters_removed.push((name.clone(), *av)),
            (None, Some(bv)) => d.counters_added.push((name.clone(), *bv)),
            (Some(av), Some(bv)) if av != bv => d.counters_changed.push((name.clone(), *av, *bv)),
            _ => {}
        }
    }

    let empty = MetricsHistogram::default();
    let hist_names: BTreeSet<&String> = a.histograms.keys().chain(b.histograms.keys()).collect();
    for name in hist_names {
        let ha = a.histograms.get(name).unwrap_or(&empty);
        let hb = b.histograms.get(name).unwrap_or(&empty);
        if ha == hb {
            continue;
        }
        let longest = ha.buckets.len().max(hb.buckets.len());
        let shifted = (0..longest)
            .filter(|i| ha.buckets.get(*i).unwrap_or(&0) != hb.buckets.get(*i).unwrap_or(&0))
            .count();
        d.histograms_changed.push(HistogramDelta {
            name: name.clone(),
            count: (ha.count, hb.count),
            sum: (ha.sum, hb.sum),
            shifted_buckets: shifted,
        });
    }

    let span_names: BTreeSet<&String> = a.spans.keys().chain(b.spans.keys()).collect();
    for name in span_names {
        let sa = a.spans.get(name).copied().unwrap_or(0);
        let sb = b.spans.get(name).copied().unwrap_or(0);
        if sa != sb {
            d.spans_changed.push((name.clone(), sa, sb));
        }
    }

    let iterations = |doc: &TraceDoc| {
        doc.convergence
            .get("per_iteration")
            .and_then(Value::as_array)
            .map_or(0, Vec::len)
    };
    d.convergence = ConvergenceDelta {
        iterations: (iterations(a), iterations(b)),
        changed: a.convergence != b.convergence,
    };

    let (ca, cb) = (&a.resolution_curve, &b.resolution_curve);
    d.curve.len = (ca.len(), cb.len());
    for (i, (x, y)) in ca.iter().zip(cb.iter()).enumerate() {
        let delta = (x - y).abs();
        if delta > 0.0 {
            d.curve.first_divergence.get_or_insert(i);
            d.curve.max_abs_delta = d.curve.max_abs_delta.max(delta);
        }
    }
    if d.curve.first_divergence.is_none() && ca.len() != cb.len() {
        d.curve.first_divergence = Some(ca.len().min(cb.len()));
    }
    d
}

/// Diffs two parsed profiles with the given duration tolerance.
pub fn diff_profiles(a: &ProfileDoc, b: &ProfileDoc, tolerance_pct: u32) -> ProfileDiff {
    let mut d = ProfileDiff {
        tolerance_pct,
        ..ProfileDiff::default()
    };
    for name in a.spans.keys() {
        if !b.spans.contains_key(name) {
            d.spans_removed.push(name.clone());
        }
    }
    for name in b.spans.keys() {
        if !a.spans.contains_key(name) {
            d.spans_added.push(name.clone());
        }
    }
    for (name, da) in &a.spans {
        let Some(db) = b.spans.get(name) else {
            continue;
        };
        if da.count != db.count {
            d.counts_changed.push((name.clone(), da.count, db.count));
        }
        let delta_pct =
            (db.total_ns as f64 - da.total_ns as f64) * 100.0 / (da.total_ns.max(1)) as f64;
        if delta_pct.abs() > f64::from(tolerance_pct) {
            d.duration_changed.push(StageDelta {
                name: name.clone(),
                total_ns: (da.total_ns, db.total_ns),
                p99_ns: (da.quantile_ns(99), db.quantile_ns(99)),
                delta_pct,
            });
        } else {
            d.within_tolerance += 1;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DurationStats;

    fn trace_doc(extract: u64, iterations: usize, curve_last: &str) -> String {
        TraceDoc::seal(&trace_body(extract, iterations, curve_last))
    }

    fn trace_body(extract: u64, iterations: usize, curve_last: &str) -> String {
        format!(
            "\"counters\":{{\"extract.observations\":{extract},\"report.links\":4}},\
             \"histogram_le\":[1,2],\
             \"histograms\":{{\"observe.per_trace\":{{\"count\":{extract},\"sum\":9,\
             \"buckets\":[{extract},0,0]}}}},\
             \"spans\":{{\"cfs.iteration\":{{\"count\":{iterations}}}}},\
             \"convergence\":{{\"candidate_bucket_le\":[2,4],\"per_iteration\":[{}],\
             \"trajectories\":{{}}}},\
             \"resolution_curve\":[0.25,{curve_last}],\"kb_quality\":{{\"contested\":0}}",
            (0..iterations)
                .map(|i| format!(
                    "{{\"iteration\":{},\"unconstrained\":0,\"resolved\":1,\"buckets\":[1,0,0]}}",
                    i + 1
                ))
                .collect::<Vec<_>>()
                .join(","),
        )
    }

    #[test]
    fn self_compare_is_clean() {
        let doc = trace_doc(10, 2, "0.5");
        let d = diff_docs(&doc, &doc, 0).unwrap();
        assert!(!d.is_drift());
        assert!(d.render_text().contains("identical"));
        assert!(d.render_json().contains("\"drift\":false"));
    }

    #[test]
    fn counter_and_span_drift_is_itemized() {
        let d = diff_docs(&trace_doc(10, 2, "0.5"), &trace_doc(12, 3, "0.5"), 0).unwrap();
        assert!(d.is_drift());
        let DocDiff::Trace(t) = &d else {
            panic!("trace pair")
        };
        assert_eq!(
            t.counters_changed,
            vec![("extract.observations".to_string(), 10, 12)]
        );
        assert_eq!(t.spans_changed, vec![("cfs.iteration".to_string(), 2, 3)]);
        assert_eq!(
            t.histograms_changed.len(),
            1,
            "histogram moved with counter"
        );
        assert!(t.convergence.changed);
        assert_eq!(t.convergence.iterations, (2, 3));
        let text = d.render_text();
        assert!(
            text.contains("extract.observations 10 \u{2192} 12 (+2)"),
            "{text}"
        );
    }

    #[test]
    fn curve_divergence_is_located() {
        let d = diff_docs(&trace_doc(10, 2, "0.5"), &trace_doc(10, 2, "0.75"), 0).unwrap();
        let DocDiff::Trace(t) = &d else {
            panic!("trace pair")
        };
        assert_eq!(t.curve.first_divergence, Some(1));
        assert!((t.curve.max_abs_delta - 0.25).abs() < 1e-12);
        assert!(d.is_drift());
    }

    #[test]
    fn added_and_removed_counters_split_correctly() {
        let a = trace_body(10, 1, "0.5");
        let b = a.replace("extract.observations", "extract.renamed");
        let DocDiff::Trace(t) = diff_docs(&TraceDoc::seal(&a), &TraceDoc::seal(&b), 0).unwrap()
        else {
            panic!("trace pair")
        };
        assert_eq!(
            t.counters_removed,
            vec![("extract.observations".into(), 10)]
        );
        assert_eq!(t.counters_added, vec![("extract.renamed".into(), 10)]);
    }

    #[test]
    fn malformed_and_mismatched_inputs_error() {
        let trace = trace_doc(1, 1, "0.5");
        let profile =
            "{\"schema\":\"cfs-profile/2\",\"profile_le_ns\":[1],\"spans\":{}}".to_string();
        assert!(matches!(
            diff_docs("not json", &trace, 0),
            Err(DiffError::Malformed(_))
        ));
        assert!(matches!(
            diff_docs("{\"no\":\"schema\"}", &trace, 0),
            Err(DiffError::Malformed(_))
        ));
        assert!(matches!(
            diff_docs(&trace, &profile, 0),
            Err(DiffError::SchemaMismatch(_, _))
        ));
        assert!(matches!(
            diff_docs(
                "{\"schema\":\"cfs-unknown/9\"}",
                "{\"schema\":\"cfs-unknown/9\"}",
                0
            ),
            Err(DiffError::Malformed(_))
        ));
        // A `/1` profile is a schema error.
        let old = profile.replace("cfs-profile/2", "cfs-profile/1");
        assert!(matches!(
            diff_docs(&old, &old, 0),
            Err(DiffError::Malformed(e)) if e.contains("cfs-profile/1")
        ));
    }

    #[test]
    fn reader_keeps_big_integers_and_member_order() {
        // Counters past 2^53 compare exactly (an f64 round-trip would
        // merge these two), and reordered convergence members are drift.
        let body = trace_body(1, 1, "0.5").replace(":1,\"report", ":18446744073709551615,\"report");
        let a = TraceDoc::seal(&body);
        let b = TraceDoc::seal(&body.replace("18446744073709551615", "18446744073709551614"));
        let DocDiff::Trace(t) = diff_docs(&a, &b, 0).unwrap() else {
            panic!("trace pair")
        };
        let big = ("extract.observations".to_string(), u64::MAX, u64::MAX - 1);
        assert_eq!(t.counters_changed, vec![big]);
        let reordered = body
            .replace(
                "\"candidate_bucket_le\":[2,4],\"per_iteration\"",
                "\"per_iteration\"",
            )
            .replace(
                "\"trajectories\"",
                "\"candidate_bucket_le\":[2,4],\"trajectories\"",
            );
        let DocDiff::Trace(t) = diff_docs(&a, &TraceDoc::seal(&reordered), 0).unwrap() else {
            panic!("trace pair")
        };
        assert!(t.convergence.changed);
    }

    #[test]
    fn whole_members_are_named_and_a_broken_seal_is_malformed() {
        let body = trace_body(1, 1, "0.5");
        let a = TraceDoc::seal(&body);
        for (moved, member) in [
            (format!("\"shape\":\"00000000000000ff\",{body}"), "shape"),
            (body.replace("[1,2]", "[1,4]"), "histogram_le"),
            (
                body.replace("\"contested\":0", "\"contested\":5"),
                "kb_quality",
            ),
        ] {
            let DocDiff::Trace(t) = diff_docs(&a, &TraceDoc::seal(&moved), 0).unwrap() else {
                panic!("trace pair")
            };
            assert_eq!(t.members_changed, vec![member]);
            assert!(t.render_text().contains(&format!("{member}: changed")));
            assert!(t
                .render_json()
                .contains(&format!("\"members_changed\":[\"{member}\"]")));
        }
        let tampered = a.replace("\"contested\":0", "\"contested\":5");
        assert!(matches!(
            diff_docs(&a, &tampered, 0),
            Err(DiffError::Malformed(e)) if e.contains("b: [digest] digest mismatch")
        ));
    }

    #[test]
    fn hostile_documents_are_malformed_with_a_location() {
        let trace = trace_doc(1, 1, "0.5");
        let deep = "[".repeat(200) + &"]".repeat(200);
        for (bad, needle) in [
            (deep.as_str(), "recursion limit"),
            ("{\"a\":}", "offset 5"),
            ("{\"a\":1}x", "offset 7"),
        ] {
            let err = diff_docs(bad, &trace, 0).unwrap_err().to_string();
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    fn profile_with(total_ns: u64, count: u64) -> ProfileDoc {
        let mut stats = DurationStats::default();
        for _ in 0..count {
            stats.record(total_ns / count.max(1));
        }
        let mut doc = ProfileDoc {
            bounds: crate::profile::PROFILE_BOUNDS_NS.to_vec(),
            ..ProfileDoc::default()
        };
        doc.spans.insert("stage.constrain".into(), stats);
        doc
    }

    #[test]
    fn profile_tolerance_gates_duration_drift() {
        let a = profile_with(10_000_000, 4);
        let slower = profile_with(14_000_000, 4);
        // +40% is inside a ±50% tolerance, outside ±25%.
        assert!(!diff_profiles(&a, &slower, 50).is_drift());
        let flagged = diff_profiles(&a, &slower, 25);
        assert!(flagged.is_drift());
        assert_eq!(flagged.duration_changed.len(), 1);
        assert!((flagged.duration_changed[0].delta_pct - 40.0).abs() < 1e-9);
        let text = flagged.render_text();
        assert!(text.contains("stage.constrain"), "{text}");
        assert!(flagged.render_json().contains("\"drift\":true"));
    }

    #[test]
    fn profile_count_changes_are_always_drift() {
        let a = profile_with(10_000_000, 4);
        let recounted = profile_with(10_000_000, 5);
        let d = diff_profiles(&a, &recounted, 100);
        assert!(d.is_drift(), "span counts are deterministic; no tolerance");
        assert_eq!(d.counts_changed, vec![("stage.constrain".into(), 4, 5)]);
    }

    #[test]
    fn profile_diff_through_the_document_path() {
        let a = profile_with(10_000_000, 4).render();
        let d = diff_docs(&a, &a, 25).unwrap();
        assert!(!d.is_drift());
        assert!(d.render_text().contains("within tolerance"));
    }
}
