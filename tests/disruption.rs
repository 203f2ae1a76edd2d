//! Streaming disruption detection contracts: the `cfs-alerts/1` stream
//! is byte-identical across worker-thread counts, and attaching the
//! detector never perturbs the inference (the canonical `cfs-trace/1`
//! digest is the same with detection on or off).

use std::sync::Arc;

use cfs::detect::{validate_alerts, Detector, DetectorConfig, EpochObservation};
use cfs::experiments::{Lab, Scale};
use cfs::obs::{Clock, Virtual};
use cfs::prelude::*;
use cfs::topology::{EventSchedule, ScheduleConfig, ScheduleIntensity};
use cfs::traceroute::ScheduledEngine;

/// Streams one scheduled horizon through a resident session at the given
/// thread count. Returns the rendered alert document (one `cfs-alerts/1`
/// line per alert; empty when `detect` is off) and the session's
/// canonical `cfs-trace/1` digest text.
fn stream(lab: &Lab, threads: usize, detect: bool) -> (String, String) {
    let config = ScheduleConfig::at_intensity(lab.topo.config.seed, ScheduleIntensity::Default);
    let schedule = EventSchedule::generate(&lab.topo, config);
    let engine = ScheduledEngine::new(Engine::new(&lab.topo), schedule);
    let horizon = engine.schedule().config.horizon_epochs;

    let mut detector = detect.then(|| {
        Detector::new(
            DetectorConfig::default(),
            lab.locus_names(),
            Arc::new(Virtual::new()) as Arc<dyn Clock>,
        )
    });

    let cfg = CfsConfig {
        followup_interfaces: 0,
        threads,
        ..CfsConfig::default()
    };
    let mut session = lab.session(&engine, &lab.kb, cfg, lab.recorder.clone(), None);
    session.converge();

    let mut doc = String::new();
    for k in 1..horizon {
        let traces = lab.campaign(&engine, k);
        let obs = EpochObservation::from_traces(k, &traces);
        session
            .apply_delta(Delta::TracerouteBatch(traces))
            .expect("follow-up-less delta");
        if let Some(det) = detector.as_mut() {
            for alert in det.observe(&obs, session.report().expect("delta leaves a report")) {
                doc.push_str(&alert.render_json());
                doc.push('\n');
            }
        }
    }
    let digest = canonical_trace(session.report().expect("converged"));
    (doc, digest)
}

#[test]
fn alert_stream_is_byte_identical_across_thread_counts() {
    let lab = Lab::provision(Scale::Tiny, Some(11)).expect("lab");
    let (doc1, _) = stream(&lab, 1, true);
    assert!(!doc1.is_empty(), "the default schedule must raise alerts");
    let summary = validate_alerts(&doc1).expect("well-formed cfs-alerts/1");
    assert!(summary.alerts > 0);
    for threads in [2, 8] {
        let (doc, _) = stream(&lab, threads, true);
        assert_eq!(doc1, doc, "alert bytes diverged at {threads} threads");
    }
}

#[test]
fn detection_never_touches_the_canonical_digest() {
    let lab = Lab::provision(Scale::Tiny, Some(11)).expect("lab");
    let (_, with_detect) = stream(&lab, 1, true);
    let (doc, without_detect) = stream(&lab, 1, false);
    assert!(doc.is_empty(), "detection off must render no alerts");
    assert_eq!(
        with_detect, without_detect,
        "enabling detection changed the cfs-trace/1 digest"
    );
}
