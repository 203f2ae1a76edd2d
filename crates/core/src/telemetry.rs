//! Rendering the `cfs-trace/1` document: the `--trace-json` export
//! combining a [`cfs_obs::TraceSnapshot`] with the report's convergence
//! telemetry.
//!
//! Everything here is hand-rolled JSON over `BTreeMap`-ordered data, in
//! the style of `cfs_obs::export`: a given `(report, snapshot)` pair
//! always renders to the same bytes, and nothing thread-sensitive (span
//! durations) enters the document. That is what lets
//! `crates/core/tests/determinism.rs` assert byte-identical trace files
//! across worker counts.
//!
//! Document layout:
//!
//! ```text
//! {
//!   "schema": "cfs-trace/1",
//!   "digest": "<fnv1a64 over everything after this member>",
//!   "counters": { "<name>": <u64>, … },
//!   "histogram_le": [1, 2, 4, …],               // shared obs bounds
//!   "histograms": { "<name>": {"count", "sum", "buckets"}, … },
//!   "spans": { "<name>": {"count"}, … },        // counts, never ns
//!   "convergence": {
//!     "candidate_bucket_le": [2, 4, 8, 16, 32],
//!     "per_iteration": [ {"iteration", "unconstrained",
//!                         "resolved", "buckets"}, … ],
//!     "trajectories": { "<ip>": [[iteration, candidates], …], … }
//!   },
//!   "resolution_curve": [0.25, …],
//!   "kb_quality": { "records", "agreement_mean_pm", "unanimous",
//!                   "majority", "contested", "single_source",
//!                   "per_source": { "<label>": {"trust_pm", "claims",
//!                                   "dissents", "mean_agreement_pm"} } }
//! }
//! ```

use cfs_obs::export::{fnv1a64, push_u64_list, stable_body};
use cfs_obs::TraceSnapshot;

use crate::report::{CfsReport, ConvergenceTelemetry, CANDIDATE_BUCKET_LE};

/// Schema identifier stamped into every trace document; defined once in
/// `cfs_obs`, whose diff engine reads the documents this module writes.
pub use cfs_obs::TRACE_SCHEMA;

/// The duration-sidecar renderer, re-exported so trace producers can
/// write the `cfs-profile/2` file next to the trace without reaching
/// into `cfs_obs` themselves. The sidecar reads the same snapshot but
/// never enters [`render_trace_json`]'s digested body.
pub use cfs_obs::profile::{render_profile_json, PROFILE_SCHEMA};

fn push_convergence(out: &mut String, conv: &ConvergenceTelemetry) {
    out.push_str("{\"candidate_bucket_le\":");
    push_u64_list(out, CANDIDATE_BUCKET_LE.map(|b| b as u64));
    out.push_str(",\"per_iteration\":[");
    for (i, h) in conv.per_iteration.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"iteration\":{},\"unconstrained\":{},\"resolved\":{},\"buckets\":",
            h.iteration, h.unconstrained, h.resolved
        ));
        push_u64_list(out, h.buckets.iter().copied());
        out.push('}');
    }
    out.push_str("],\"trajectories\":{");
    for (i, (ip, points)) in conv.trajectories.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{ip}\":["));
        for (j, p) in points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{}]", p.iteration, p.candidates));
        }
        out.push(']');
    }
    out.push_str("}}");
}

fn push_kb_quality(out: &mut String, q: &cfs_kb::KbQuality) {
    out.push_str(&format!(
        "{{\"records\":{},\"agreement_mean_pm\":{},\"unanimous\":{},\"majority\":{},\
         \"contested\":{},\"single_source\":{},\"per_source\":{{",
        q.records, q.agreement_mean_pm, q.unanimous, q.majority, q.contested, q.single_source
    ));
    for (i, (label, s)) in q.per_source.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{label}\":{{\"trust_pm\":{},\"claims\":{},\"dissents\":{},\
             \"mean_agreement_pm\":{}}}",
            s.trust_pm, s.claims, s.dissents, s.mean_agreement_pm
        ));
    }
    out.push_str("}}");
}

/// Renders the full trace document for `--trace-json`.
///
/// The digest is FNV-1a 64 over the document body (everything after the
/// `"digest"` member), so consumers can check integrity — and the
/// determinism test can compare files across thread counts — without
/// parsing.
pub fn render_trace_json(report: &CfsReport, snap: &TraceSnapshot) -> String {
    render_with(report, snap, None)
}

/// [`render_trace_json`] with a run-shape fingerprint stamped into the
/// body: `"shape"` is the FNV-1a 64 of a caller-chosen configuration
/// string (scale, seed, fault plan, …), rendered as 16 hex digits
/// immediately after the digest member — *inside* the digested body, so
/// tampering with the shape invalidates the digest like any other
/// member. `trace-diff --baseline-dir` keys golden selection on it.
/// Consumers that predate the member (the validator, the diff engine's
/// structural walk) skip unknown members, so shaped and shape-less
/// documents interoperate.
pub fn render_trace_json_with_shape(
    report: &CfsReport,
    snap: &TraceSnapshot,
    shape: &str,
) -> String {
    render_with(report, snap, Some(shape))
}

fn render_with(report: &CfsReport, snap: &TraceSnapshot, shape: Option<&str>) -> String {
    let mut body = String::new();
    if let Some(shape) = shape {
        body.push_str(&format!("\"shape\":\"{:016x}\",", fnv1a64(shape)));
    }
    body.push_str(&stable_body(snap));
    body.push_str(",\"convergence\":");
    push_convergence(&mut body, &report.convergence);
    body.push_str(",\"resolution_curve\":[");
    for (i, v) in report.resolution_curve().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        // Shortest-roundtrip float formatting: stable for equal bits.
        body.push_str(&format!("{v}"));
    }
    body.push(']');
    body.push_str(",\"kb_quality\":");
    push_kb_quality(&mut body, &report.kb_quality);
    let digest = fnv1a64(&body);
    format!("{{\"schema\":\"{TRACE_SCHEMA}\",\"digest\":\"{digest:016x}\",{body}}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CandidateHistogram;
    use crate::state::TrajectoryPoint;
    use cfs_obs::{Recorder, TraceRecorder};
    use std::collections::BTreeMap;

    fn report() -> CfsReport {
        let mut hist = CandidateHistogram::new(1);
        hist.record(Some(3));
        hist.record(Some(1));
        hist.record(None);
        let mut trajectories = BTreeMap::new();
        trajectories.insert(
            "10.0.0.1".parse().unwrap(),
            vec![
                TrajectoryPoint {
                    iteration: 1,
                    candidates: 3,
                },
                TrajectoryPoint {
                    iteration: 2,
                    candidates: 1,
                },
            ],
        );
        CfsReport {
            interfaces: BTreeMap::new(),
            links: Vec::new(),
            iterations: Vec::new(),
            router_stats: Default::default(),
            traces_issued: 0,
            convergence: ConvergenceTelemetry {
                per_iteration: vec![hist],
                trajectories,
            },
            data_quality: Default::default(),
            kb_quality: Default::default(),
        }
    }

    fn snapshot() -> TraceSnapshot {
        let rec = TraceRecorder::deterministic();
        rec.counter("cfs.iterations", 2);
        rec.observe("cfs.candidates_per_iface", 3);
        let s = rec.span_start();
        rec.span_end("cfs.run", s);
        rec.snapshot()
    }

    #[test]
    fn document_shape_and_stability() {
        let doc = render_trace_json(&report(), &snapshot());
        assert!(doc.starts_with("{\"schema\":\"cfs-trace/1\",\"digest\":\""));
        for needle in [
            "\"counters\":{\"cfs.iterations\":2",
            "\"convergence\":{\"candidate_bucket_le\":[2,4,8,16,32]",
            "\"per_iteration\":[{\"iteration\":1,\"unconstrained\":1,\"resolved\":1,",
            "\"trajectories\":{\"10.0.0.1\":[[1,3],[2,1]]}",
            "\"resolution_curve\":[]",
            "\"kb_quality\":{\"records\":0,\"agreement_mean_pm\":0,",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
        assert!(!doc.contains("total_ns"), "durations leaked: {doc}");
        assert_eq!(doc, render_trace_json(&report(), &snapshot()));
    }

    #[test]
    fn shape_member_is_digested_and_deterministic() {
        let shaped = render_trace_json_with_shape(&report(), &snapshot(), "scale=tiny;seed=7");
        let expected = format!(
            "\"shape\":\"{:016x}\",\"counters\"",
            fnv1a64("scale=tiny;seed=7")
        );
        assert!(shaped.contains(&expected), "{shaped}");
        // The shape sits inside the digested body: same digest math as
        // digest_matches_body, over a body that now leads with shape.
        let digest_start = shaped.find("\"digest\":\"").unwrap() + "\"digest\":\"".len();
        let digest_hex = &shaped[digest_start..digest_start + 16];
        let body_start = shaped[digest_start..].find("\",").unwrap() + digest_start + 2;
        let body = &shaped[body_start..shaped.len() - 1];
        assert_eq!(format!("{:016x}", fnv1a64(body)), digest_hex);
        // Different shape strings change the digest; shape-less rendering
        // is untouched.
        let other = render_trace_json_with_shape(&report(), &snapshot(), "scale=small;seed=7");
        assert_ne!(shaped, other);
        assert!(!render_trace_json(&report(), &snapshot()).contains("\"shape\""));
    }

    #[test]
    fn digest_matches_body() {
        let doc = render_trace_json(&report(), &snapshot());
        // Everything after the digest member is the digested body.
        let marker = "\",";
        let digest_start = doc.find("\"digest\":\"").unwrap() + "\"digest\":\"".len();
        let digest_hex = &doc[digest_start..digest_start + 16];
        let body_start = doc[digest_start..].find(marker).unwrap() + digest_start + marker.len();
        let body = &doc[body_start..doc.len() - 1];
        assert_eq!(format!("{:016x}", fnv1a64(body)), digest_hex);
    }
}
