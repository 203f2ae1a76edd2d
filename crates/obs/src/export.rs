//! Rendering snapshots: the stable JSON body `--trace-json` builds on,
//! the `cfs-trace/1` framing around it and [`TraceDoc`], the one
//! reader of that document, plus the human-readable `--metrics`
//! summary.
//!
//! The JSON here is hand-rolled (no serde), with every map iterated in
//! `BTreeMap` order, so a given snapshot always renders to the same
//! bytes. The **stable body** deliberately excludes span durations —
//! they are the one thread- and machine-sensitive quantity a snapshot
//! holds — which is what lets the full trace document be byte-identical
//! across worker counts (see `crates/core/tests/determinism.rs`).

use std::collections::BTreeMap;
use std::fmt::Display;

use serde_json::Value;

use crate::trace::{Histogram, TraceSnapshot, HISTOGRAM_BOUNDS};
use crate::{to_histogram, to_map, to_u64_vec, MetricsHistogram};

/// The trace schema marker, re-exported as `cfs_core::TRACE_SCHEMA`
/// (the renderer lives there because the document embeds report-side
/// convergence telemetry).
pub const TRACE_SCHEMA: &str = "cfs-trace/1";

/// 64-bit FNV-1a over `data`: the digest marking the stable content of
/// a trace document.
pub fn fnv1a64(data: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Escapes a string for embedding between the quotes of a JSON string:
/// `"` and `\` plus every control character, so rendered lines stay
/// strict JSON whatever a name holds.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Appends `items` comma-separated, each written by `item`: the one
/// separator loop behind every hand-rolled document (trace, profile,
/// metrics, diff).
pub fn push_joined<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
}

/// Appends `values` as a JSON array of integers.
pub fn push_u64_list(out: &mut String, values: impl IntoIterator<Item = u64>) {
    out.push('[');
    push_joined(out, values, |out, v| out.push_str(&v.to_string()));
    out.push(']');
}

/// Appends `"name":value` object members.
pub(crate) fn push_pairs<K: Display, V: Display>(
    out: &mut String,
    pairs: impl IntoIterator<Item = (K, V)>,
) {
    push_joined(out, pairs, |out, (k, v)| {
        out.push_str(&format!("\"{k}\":{v}"))
    });
}

/// Appends `"name":{"count","sum","buckets"}` members: a trace body's
/// histograms and a metrics window's.
pub(crate) fn push_histograms<'a, K: Display>(
    out: &mut String,
    histograms: impl IntoIterator<Item = (K, &'a Histogram)>,
) {
    push_joined(out, histograms, |out, (name, h)| {
        out.push_str(&format!(
            "\"{name}\":{{\"count\":{},\"sum\":{},\"buckets\":",
            h.count, h.sum
        ));
        push_u64_list(out, h.buckets.iter().copied());
        out.push('}');
    });
}

/// Renders the thread-count-independent part of a snapshot as JSON
/// object members (no surrounding braces):
/// `"counters":{…},"histograms":{…},"spans":{…}`.
///
/// Histograms carry their shared bucket bounds once, under
/// `"histogram_le"`; spans carry only entry counts, never nanoseconds.
pub fn stable_body(snap: &TraceSnapshot) -> String {
    let mut out = String::from("\"counters\":{");
    push_pairs(&mut out, &snap.counters);
    out.push_str("},\"histogram_le\":");
    push_u64_list(&mut out, HISTOGRAM_BOUNDS);
    out.push_str(",\"histograms\":{");
    push_histograms(&mut out, &snap.histograms);
    out.push_str("},\"spans\":{");
    let counts = snap
        .spans
        .iter()
        .map(|(name, s)| (name, format!("{{\"count\":{}}}", s.count)));
    push_pairs(&mut out, counts);
    out.push('}');
    out
}

/// A parsed `cfs-trace/1` document: the one reader of what
/// [`TraceDoc::seal`] around [`stable_body`] and `cfs_core`'s report
/// members writes. Every member of the digested body is typed;
/// `convergence` and `kb_quality` stay JSON trees, compared whole.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceDoc {
    /// The run-shape fingerprint `cfs run` stamps (16 hex digits);
    /// daemon traces carry none.
    pub shape: Option<String>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// The value-histogram bucket bounds.
    pub histogram_le: Vec<u64>,
    /// Value histograms by name.
    pub histograms: BTreeMap<String, MetricsHistogram>,
    /// Span entry counts by name.
    pub spans: BTreeMap<String, u64>,
    /// Per-iteration candidate histograms and narrowing trajectories.
    pub convergence: Value,
    /// Fraction of interfaces resolved after each iteration.
    pub resolution_curve: Vec<f64>,
    /// How the public sources were reconciled.
    pub kb_quality: Value,
}

/// `(section, problem)` pairs, the shape `cfs check` prints.
type Problems = Vec<(&'static str, String)>;

impl TraceDoc {
    /// Frames a digested body as a `cfs-trace/1` document: the schema
    /// marker, then the FNV-1a 64 of `body` as 16 hex digits, then the
    /// body's members. The writer and the reader share this framing.
    pub fn seal(body: &str) -> String {
        format!(
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"digest\":\"{:016x}\",{body}}}",
            fnv1a64(body)
        )
    }

    /// The strict reader: checks the framing, recomputes the digest and
    /// types every member, refusing unknown or repeated ones. The error
    /// names the section that failed first.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let (doc, problems) = Self::read(raw).map_err(|e| format!("[json] {e}"))?;
        match problems.first() {
            None => Ok(doc),
            Some((section, problem)) => Err(format!("[{section}] {problem}")),
        }
    }

    /// Every problem `cfs check` reports for a trace, tagged with its
    /// section: what [`TraceDoc::parse`] refuses (read on past a digest
    /// mismatch or a missing member), plus the invariants of the
    /// content — bucket arity against the bound lists, non-increasing
    /// trajectories and a resolution curve monotone in `[0, 1]`.
    pub fn validate(raw: &str) -> Problems {
        let (doc, mut problems) = match Self::read(raw) {
            Ok(read) => read,
            Err(e) => return vec![("json", e)],
        };
        // An empty bound list is a missing or mistyped one, already reported.
        let want = doc.histogram_le.len() + 1;
        for (name, h) in doc.histograms.iter().filter(|_| want > 1) {
            let got = h.buckets.len();
            if got != want {
                problems.push((
                    "histograms",
                    format!("histogram {name:?}: {got} buckets, want {want}"),
                ));
            }
        }
        let conv = &doc.convergence;
        let want = conv
            .get("candidate_bucket_le")
            .and_then(Value::as_array)
            .map_or(0, Vec::len)
            + 1;
        for h in conv
            .get("per_iteration")
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
        {
            let got = h.get("buckets").and_then(Value::as_array).map(Vec::len);
            if got != Some(want) {
                problems.push((
                    "convergence",
                    format!("per_iteration buckets: {got:?}, want {want}"),
                ));
                break;
            }
        }
        for (ip, points) in conv
            .get("trajectories")
            .and_then(Value::as_object)
            .into_iter()
            .flat_map(|m| m.iter())
        {
            let sizes: Vec<u64> = points
                .as_array()
                .into_iter()
                .flatten()
                .filter_map(|p| p.as_array()?.get(1)?.as_u64())
                .collect();
            if sizes.windows(2).any(|w| w[1] > w[0]) {
                problems.push(("convergence", format!("trajectory {ip} grows: {sizes:?}")));
            }
        }
        let curve = &doc.resolution_curve;
        if curve.windows(2).any(|w| w[1] < w[0]) || curve.iter().any(|v| !(0.0..=1.0).contains(v)) {
            problems.push((
                "resolution_curve",
                format!("resolution_curve not monotone in [0,1]: {curve:?}"),
            ));
        }
        problems
    }

    /// Reads what it can of a JSON document, recording every framing and
    /// structure problem on the way; a member that is missing or
    /// mistyped reads as empty.
    fn read(raw: &str) -> Result<(Self, Problems), String> {
        let json = serde_json::from_str::<Value>(raw).map_err(|e| format!("not JSON: {e}"))?;
        let mut r = Reader {
            json: &json,
            known: vec!["schema", "digest"],
            problems: Vec::new(),
        };
        if let Err(p) = check_seal(raw) {
            r.problems.push(("digest", p));
        }
        let object = |v: &Value| v.as_object().map(|_| v.clone());
        let doc = Self {
            shape: json
                .get("shape")
                .and_then(|_| r.member("shape", |v| v.as_str().map(String::from))),
            counters: r
                .member("counters", |v| to_map(v, Value::as_u64))
                .unwrap_or_default(),
            histogram_le: r.member("histogram_le", to_u64_vec).unwrap_or_default(),
            histograms: r
                .member("histograms", |v| to_map(v, to_histogram))
                .unwrap_or_default(),
            spans: r
                .member("spans", |v| to_map(v, |s| s.get("count")?.as_u64()))
                .unwrap_or_default(),
            convergence: r.member("convergence", object).unwrap_or(Value::Null),
            resolution_curve: r
                .member("resolution_curve", |v| {
                    v.as_array()?.iter().map(Value::as_f64).collect()
                })
                .unwrap_or_default(),
            kb_quality: r.member("kb_quality", object).unwrap_or(Value::Null),
        };
        // Every member is the framing's or one just read, and appears once.
        let mut seen = Vec::new();
        for (key, _) in json.as_object().into_iter().flat_map(|m| m.iter()) {
            let known = r.known.iter().any(|k| k == key);
            if seen.contains(&key) || !known {
                let what = if known { "repeated" } else { "unknown" };
                r.problems
                    .push(("structure", format!("{what} member {key:?}")));
            }
            seen.push(key);
        }
        Ok((doc, r.problems))
    }
}

/// A trace's JSON tree, the members the reader knows and the problems
/// found reading it.
struct Reader<'a> {
    json: &'a Value,
    known: Vec<&'static str>,
    problems: Problems,
}

impl Reader<'_> {
    /// Member `key`, typed by `read`; a structure problem when it is
    /// missing or mistyped.
    fn member<T>(
        &mut self,
        key: &'static str,
        read: impl FnOnce(&Value) -> Option<T>,
    ) -> Option<T> {
        self.known.push(key);
        let Some(v) = self.json.get(key) else {
            self.problems
                .push(("structure", format!("missing top-level member {key:?}")));
            return None;
        };
        let typed = read(v);
        if typed.is_none() {
            self.problems
                .push(("structure", format!("member {key:?} is mistyped")));
        }
        typed
    }
}

/// Checks the framing [`TraceDoc::seal`] writes: the document must be
/// exactly its body, sealed.
fn check_seal(raw: &str) -> Result<(), String> {
    // The 16 digest digits follow this header; `",` and the body follow them.
    let at = format!("{{\"schema\":\"{TRACE_SCHEMA}\",\"digest\":\"").len();
    let body = raw
        .get(at + 18..raw.len().saturating_sub(1))
        .unwrap_or_default();
    let sealed = TraceDoc::seal(body);
    match raw.get(at..at + 16) {
        _ if sealed == raw => Ok(()),
        Some(digest) if raw.starts_with(&sealed[..at]) => Err(format!(
            "digest mismatch: header {digest}, body {}",
            &sealed[at..at + 16]
        )),
        _ => Err(format!("missing {TRACE_SCHEMA} schema and digest header")),
    }
}

/// Renders the human `--metrics` summary: counters, histogram means,
/// and span wall time. This side *does* show durations; it is for eyes,
/// not for diffing.
pub fn render_metrics(snap: &TraceSnapshot) -> String {
    let mut out = String::from("counters:\n");
    for (name, v) in &snap.counters {
        out.push_str(&format!("  {name:<28} {v}\n"));
    }
    out.push_str("histograms (count / mean):\n");
    for (name, h) in &snap.histograms {
        let mean = h.mean().unwrap_or(0.0);
        out.push_str(&format!("  {name:<28} {} / {mean:.1}\n", h.count));
    }
    out.push_str("spans (count / total ms):\n");
    for (name, s) in &snap.spans {
        out.push_str(&format!(
            "  {name:<28} {} / {:.3}\n",
            s.count,
            s.total_ns as f64 / 1e6
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::trace::TraceRecorder;

    fn sample() -> TraceSnapshot {
        let rec = TraceRecorder::deterministic();
        rec.counter("b.second", 2);
        rec.counter("a.first", 1);
        rec.observe("sizes", 3);
        let s = rec.span_start();
        rec.span_end("stage", s);
        rec.snapshot()
    }

    #[test]
    fn stable_body_is_sorted_and_duration_free() {
        let body = stable_body(&sample());
        assert!(body.starts_with("\"counters\":{\"a.first\":1,\"b.second\":2}"));
        assert!(body.contains("\"stage\":{\"count\":1}"));
        assert!(!body.contains("total_ns"), "durations leaked: {body}");
        assert_eq!(body, stable_body(&sample()), "rendering must be stable");
    }

    /// A trace body over `sample()`, with the report-side members.
    fn trace_body() -> String {
        stable_body(&sample())
            + ",\"convergence\":{\"candidate_bucket_le\":[2],\"per_iteration\":[],\
               \"trajectories\":{}},\"resolution_curve\":[0.5,1],\"kb_quality\":{}"
    }

    #[test]
    fn the_reader_reads_what_seal_writes() {
        let raw = TraceDoc::seal(&trace_body());
        assert_eq!(TraceDoc::validate(&raw), vec![]);
        let doc = TraceDoc::parse(&raw).unwrap();
        assert_eq!(doc.shape, None);
        assert_eq!(doc.counters["b.second"], 2);
        assert_eq!(doc.histograms["sizes"].count, 1);
        assert_eq!(doc.spans["stage"], 1);
        assert_eq!(doc.resolution_curve, vec![0.5, 1.0]);
        let shaped = TraceDoc::seal(&format!("\"shape\":\"00ff\",{}", trace_body()));
        assert_eq!(
            TraceDoc::parse(&shaped).unwrap().shape.as_deref(),
            Some("00ff")
        );
    }

    #[test]
    fn the_reader_refuses_what_the_body_does_not_type() {
        let body = trace_body();
        for (raw, needle) in [
            (
                TraceDoc::seal(&body).replace("\"b.second\":2", "\"b.second\":3"),
                "[digest] digest mismatch",
            ),
            (
                TraceDoc::seal(&format!("{body},\"extra\":1")),
                "[structure] unknown member \"extra\"",
            ),
            (
                TraceDoc::seal(&format!("{body},\"spans\":{{}}")),
                "[structure] repeated member \"spans\"",
            ),
            (
                TraceDoc::seal(&body.replace(",\"kb_quality\":{}", "")),
                "missing top-level member \"kb_quality\"",
            ),
            (
                TraceDoc::seal(&body.replace("[0.5,1]", "[\"x\"]")),
                "member \"resolution_curve\" is mistyped",
            ),
            (
                "{\"schema\":\"cfs-trace/1\",\"digest\":\"0\"}".to_string(),
                "[digest] missing cfs-trace/1",
            ),
            ("nope".to_string(), "[json] not JSON"),
        ] {
            let err = TraceDoc::parse(&raw).unwrap_err();
            assert!(err.contains(needle), "{raw}: {err}");
        }
        // The validator reads on past a broken digest and a missing
        // member to the content invariants.
        let broken = TraceDoc::seal(
            &body
                .replace(",\"kb_quality\":{}", "")
                .replace("[0.5,1]", "[1,0.5]"),
        )
        .replace("\"a.first\":1", "\"a.first\":9");
        let sections: Vec<&str> = TraceDoc::validate(&broken)
            .iter()
            .map(|(s, _)| *s)
            .collect();
        assert_eq!(sections, ["digest", "structure", "resolution_curve"]);
    }

    #[test]
    fn fnv_digest_reference_values() {
        // Pinned so the digest in exported files is comparable across
        // builds: FNV-1a test vectors.
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn escape_round_trips_through_the_reader() {
        let nasty = "a\"b\\c\nd\te\u{1}\u{1f}é";
        let escaped = escape(nasty);
        assert!(escaped.bytes().all(|b| b >= 0x20), "{escaped:?}");
        let back: serde_json::Value = serde_json::from_str(&format!("\"{escaped}\"")).unwrap();
        assert_eq!(back.as_str(), Some(nasty));
    }

    #[test]
    fn metrics_mentions_every_section() {
        let text = render_metrics(&sample());
        for needle in ["counters:", "histograms", "spans", "a.first", "stage"] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
    }
}
