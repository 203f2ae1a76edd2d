//! The `cfs-profile/2` contract from the outside: a recorded snapshot
//! renders to a document that parses back and re-renders byte-identical
//! (the golden-file property the CI gate leans on), and the diff engine
//! sees through the whole loop.

use std::sync::Arc;

use cfs_obs::{
    diff_docs, DocDiff, ProfileDoc, Recorder, TraceRecorder, Virtual, PROFILE_BOUNDS_NS,
    PROFILE_SCHEMA,
};

/// A recorder that walked through a plausible run shape: nested stages
/// with distinct, scripted durations.
fn recorded() -> TraceRecorder {
    let clock = Arc::new(Virtual::new());
    let rec = TraceRecorder::new(clock.clone());
    let run = rec.span_start();
    for i in 0..5u64 {
        let iter = rec.span_start();
        let constrain = rec.span_start();
        clock.advance(1_000_000 + i * 250_000);
        rec.span_end("stage.constrain", constrain);
        let followup = rec.span_start();
        clock.advance(400_000);
        rec.span_end("stage.followup", followup);
        rec.span_end("cfs.iteration", iter);
    }
    clock.advance(2_000_000);
    rec.span_end("cfs.run", run);
    rec
}

#[test]
fn serialize_parse_reserialize_is_byte_identical() {
    let doc = cfs_obs::render_profile_json(&recorded().snapshot());
    assert!(doc.starts_with(&format!("{{\"schema\":\"{PROFILE_SCHEMA}\"")));
    let parsed = ProfileDoc::parse(&doc).expect("own export parses");
    assert_eq!(parsed.bounds, PROFILE_BOUNDS_NS.to_vec());
    assert_eq!(
        parsed.render(),
        doc,
        "parse → render must round-trip byte-identically"
    );
    // And once more, through a second generation.
    let again = ProfileDoc::parse(&parsed.render()).expect("reparse");
    assert_eq!(again.render(), doc);
}

#[test]
fn recorded_quantiles_are_sane() {
    let snap = recorded().snapshot();
    let constrain = &snap.durations["cfs.run;cfs.iteration;stage.constrain"];
    assert_eq!(constrain.count, 5);
    assert_eq!(constrain.min_ns, 1_000_000);
    assert_eq!(constrain.max_ns, 2_000_000);
    let p50 = constrain.quantile_ns(50);
    let p99 = constrain.quantile_ns(99);
    assert!(
        (constrain.min_ns..=constrain.max_ns).contains(&p50),
        "p50 {p50} outside extrema"
    );
    assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
    // cfs.run wraps everything: its one entry spans the whole tape.
    assert_eq!(snap.durations["cfs.run"].count, 1);
    assert!(snap.durations["cfs.run"].total_ns > constrain.total_ns);
}

#[test]
fn profile_self_diff_is_clean_and_slowdown_is_flagged() {
    let doc = cfs_obs::render_profile_json(&recorded().snapshot());
    let clean = diff_docs(&doc, &doc, 25).expect("well-formed pair");
    assert!(!clean.is_drift(), "self-compare drifted");

    // A second run, 3× slower per stage: beyond any reasonable tolerance.
    let clock = Arc::new(Virtual::new());
    let slow = TraceRecorder::new(clock.clone());
    let run = slow.span_start();
    for i in 0..5u64 {
        let iter = slow.span_start();
        let constrain = slow.span_start();
        clock.advance(3 * (1_000_000 + i * 250_000));
        slow.span_end("stage.constrain", constrain);
        let followup = slow.span_start();
        clock.advance(3 * 400_000);
        slow.span_end("stage.followup", followup);
        slow.span_end("cfs.iteration", iter);
    }
    clock.advance(6_000_000);
    slow.span_end("cfs.run", run);
    let slow_doc = cfs_obs::render_profile_json(&slow.snapshot());

    let diff = diff_docs(&doc, &slow_doc, 25).expect("well-formed pair");
    assert!(diff.is_drift(), "3× slowdown within 25% tolerance?");
    let DocDiff::Profile(p) = &diff else {
        panic!("profile pair must produce a profile diff");
    };
    assert!(
        p.duration_changed
            .iter()
            .any(|d| d.name == "cfs.run;cfs.iteration;stage.constrain"),
        "slow stage not named: {}",
        diff.render_text()
    );
    assert!(p.counts_changed.is_empty(), "same shape, counts equal");

    // A generous tolerance swallows it again.
    assert!(!diff_docs(&doc, &slow_doc, 500).unwrap().is_drift());
}

#[test]
fn profile_report_renders_the_tree() {
    let doc_raw = cfs_obs::render_profile_json(&recorded().snapshot());
    let doc = ProfileDoc::parse(&doc_raw).unwrap();
    let report = cfs_obs::render_profile_report(&doc, 3);
    assert!(report.contains("cfs.run"), "{report}");
    assert!(report.contains("stage.constrain"), "{report}");
    assert!(report.contains("bottlenecks"), "{report}");
}
