//! Rendering snapshots: the stable JSON body `--trace-json` builds on,
//! and the human-readable `--metrics` summary.
//!
//! The JSON here is hand-rolled (no serde), with every map iterated in
//! `BTreeMap` order, so a given snapshot always renders to the same
//! bytes. The **stable body** deliberately excludes span durations —
//! they are the one thread- and machine-sensitive quantity a snapshot
//! holds — which is what lets the full trace document be byte-identical
//! across worker counts (see `crates/core/tests/determinism.rs`).

use crate::trace::{TraceSnapshot, HISTOGRAM_BOUNDS};

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

/// Appends `values` as a JSON array of integers: the one list renderer
/// behind every hand-rolled document (trace, profile, metrics).
pub fn push_u64_list(out: &mut String, values: impl IntoIterator<Item = u64>) {
    out.push('[');
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

/// Renders the thread-count-independent part of a snapshot as JSON
/// object members (no surrounding braces):
/// `"counters":{…},"histograms":{…},"spans":{…}`.
///
/// Histograms carry their shared bucket bounds once, under
/// `"histogram_le"`; spans carry only entry counts, never nanoseconds.
pub fn stable_body(snap: &TraceSnapshot) -> String {
    let mut out = String::from("\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{v}"));
    }
    out.push_str("},\"histogram_le\":");
    push_u64_list(&mut out, HISTOGRAM_BOUNDS);
    out.push_str(",\"histograms\":{");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{name}\":{{\"count\":{},\"sum\":{},\"buckets\":",
            h.count, h.sum
        ));
        push_u64_list(&mut out, h.buckets.iter().copied());
        out.push('}');
    }
    out.push_str("},\"spans\":{");
    for (i, (name, s)) in snap.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{{\"count\":{}}}", s.count));
    }
    out.push('}');
    out
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
