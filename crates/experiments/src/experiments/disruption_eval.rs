//! disruption_eval — streaming disruption detection against withheld
//! ground truth (extension study).
//!
//! The Milolidakis-style sequel to the mapping paper: once interfaces
//! are pinned to facilities, a *time-evolving* measurement plane lets a
//! rolling-baseline detector notice when a facility goes dark. This
//! experiment generates a seeded disruption schedule (facility power
//! events, cross-connect cuts, IXP port flaps), wraps the probe engine
//! in [`ScheduledEngine`] so campaigns observe the faults, and streams
//! the epochs through a resident [`CfsSession`] exactly like `cfsd`
//! under `--detect`: bootstrap at epoch 0, one `TracerouteBatch` delta
//! per 2-hour epoch afterwards. The detector never sees the schedule —
//! only traces — and its `cfs-alerts/1` stream is scored against the
//! withheld events: an event counts as detected when an alert lands in
//! its active window (plus one epoch of grace) with a matching facility
//! or exchange locus; an alert counts as a true positive when some
//! scheduled event explains it. The tier-1 test below pins the
//! acceptance floor at the default intensity.

use std::sync::Arc;

use cfs_core::{CfsConfig, Delta};
use cfs_detect::{Alert, Detector, DetectorConfig, EpochObservation};
use cfs_obs::{Clock, Virtual};
use cfs_topology::{Disruption, EventSchedule, ScheduleConfig, ScheduleIntensity};
use cfs_traceroute::{Engine, ScheduledEngine};
use cfs_types::Result;

use crate::{Lab, Output};

/// Fault intensities swept (events per schedule: 2 / 4 / 7).
pub const INTENSITIES: [ScheduleIntensity; 3] = [
    ScheduleIntensity::Light,
    ScheduleIntensity::Default,
    ScheduleIntensity::Heavy,
];

/// Acceptance floor on precision at the default intensity.
pub const PRECISION_FLOOR: f64 = 0.8;
/// Acceptance floor on recall at the default intensity.
pub const RECALL_FLOOR: f64 = 0.7;

/// One intensity's scored run.
pub struct EvalPoint {
    /// The intensity's stable label (`light` / `default` / `heavy`).
    pub label: &'static str,
    /// Scheduled disruption events (withheld ground truth).
    pub events: usize,
    /// Events with at least one locus-matching in-window alert.
    pub detected: usize,
    /// Alerts the detector emitted over the whole horizon.
    pub alerts: usize,
    /// Alerts explained by some scheduled event.
    pub true_alerts: usize,
    /// `true_alerts / alerts` (1.0 on a silent run).
    pub precision: f64,
    /// `detected / events`.
    pub recall: f64,
    /// Mean epochs from event start to its first matching alert.
    pub mean_latency: f64,
}

/// Does this alert's locus implicate the scheduled event? Facility
/// alerts must name the event's facility; exchange alerts must name the
/// flapped exchange; an unlocalized alert (probe-loss surge, global
/// resolution drop) is compatible with *any* event.
fn locus_matches(alert: &Alert, event: &Disruption) -> bool {
    if let Some((fid, _)) = &alert.facility {
        return *fid == event.facility.raw();
    }
    if let Some((xid, _)) = &alert.ixp {
        return event.ixp.map(|x| x.raw()) == Some(*xid);
    }
    true
}

/// Is the alert inside the event's scoring window — the active epochs
/// plus one epoch of grace for baselines that react on the edge?
fn in_window(alert: &Alert, event: &Disruption) -> bool {
    alert.epoch >= event.start_epoch && alert.epoch <= event.end_epoch()
}

/// Scores one alert stream against the withheld schedule.
fn score(label: &'static str, events: &[Disruption], alerts: &[Alert]) -> EvalPoint {
    let mut detected = 0usize;
    let mut latencies = Vec::new();
    for event in events {
        let first = alerts
            .iter()
            .filter(|a| in_window(a, event) && locus_matches(a, event))
            .map(|a| a.epoch - event.start_epoch)
            .min();
        if let Some(lat) = first {
            detected += 1;
            latencies.push(lat as f64);
        }
    }
    let true_alerts = alerts
        .iter()
        .filter(|a| {
            events
                .iter()
                .any(|e| in_window(a, e) && locus_matches(a, e))
        })
        .count();
    let precision = if alerts.is_empty() {
        1.0
    } else {
        true_alerts as f64 / alerts.len() as f64
    };
    let recall = if events.is_empty() {
        1.0
    } else {
        detected as f64 / events.len() as f64
    };
    let mean_latency = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    EvalPoint {
        label,
        events: events.len(),
        detected,
        alerts: alerts.len(),
        true_alerts,
        precision,
        recall,
        mean_latency,
    }
}

/// Replays one scheduled horizon through a resident session with the
/// detector attached, and scores the alert stream it produced.
pub fn evaluate(lab: &Lab, intensity: ScheduleIntensity) -> Result<EvalPoint> {
    let config = ScheduleConfig::at_intensity(lab.topo.config.seed, intensity);
    let schedule = EventSchedule::generate(&lab.topo, config);
    let engine = ScheduledEngine::new(Engine::new(&lab.topo), schedule);
    let horizon = engine.schedule().config.horizon_epochs;

    let clock = Arc::new(Virtual::new());
    let mut detector = Detector::new(
        DetectorConfig::default(),
        lab.locus_names(),
        clock as Arc<dyn Clock>,
    );

    // The daemon's follow-up-less configuration: deltas take the
    // incremental path, mirroring `cfs serve --detect --disrupt`.
    let cfg = CfsConfig {
        followup_interfaces: 0,
        ..CfsConfig::default()
    };
    // The detector observes only the *periodic* campaigns: the bootstrap
    // mixes targeted probes with archived iPlane/Ark sweeps, whose extra
    // coverage would seed baselines no follow-on campaign can sustain
    // (every facility the sweeps alone reach would read as a permanent
    // outage). Baselines must compare like with like.
    let mut session = lab.session(&engine, &lab.kb, cfg, lab.recorder.clone(), None);
    session.converge();

    for k in 1..horizon {
        let traces = lab.campaign(&engine, k);
        let obs = EpochObservation::from_traces(k, &traces);
        session.apply_delta(Delta::TracerouteBatch(traces))?;
        detector.observe(&obs, session.report().expect("delta leaves a report"));
    }

    let (alerts, _) = detector.alerts().since(0);
    Ok(score(intensity.label(), &engine.schedule().events, &alerts))
}

/// Runs the experiment.
pub fn run(lab: &Lab, out: &mut Output) -> Result<serde_json::Value> {
    let mut points = Vec::new();
    for intensity in INTENSITIES {
        points.push(evaluate(lab, intensity)?);
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.label.to_string(),
                p.events.to_string(),
                p.detected.to_string(),
                p.alerts.to_string(),
                p.true_alerts.to_string(),
                format!("{:.3}", p.precision),
                format!("{:.3}", p.recall),
                format!("{:.2}", p.mean_latency),
            ]
        })
        .collect();
    out.kv(
        "epochs per horizon",
        ScheduleConfig::at_intensity(0, ScheduleIntensity::Default).horizon_epochs,
    );
    out.kv("epoch length", "2h (7_200_000 ms)");
    out.line("");
    out.table(
        &[
            "intensity",
            "events",
            "detected",
            "alerts",
            "true alerts",
            "precision",
            "recall",
            "latency (epochs)",
        ],
        &rows,
    );
    out.line("");
    out.line(&format!(
        "expectation: precision >= {PRECISION_FLOOR} and recall >= {RECALL_FLOOR} at the default intensity; detection latency stays within an epoch or two of onset"
    ));

    let json_points: Vec<serde_json::Value> = points
        .iter()
        .map(|p| {
            serde_json::json!({
                "intensity": p.label,
                "events": p.events,
                "detected": p.detected,
                "alerts": p.alerts,
                "true_alerts": p.true_alerts,
                "precision": p.precision,
                "recall": p.recall,
                "mean_latency_epochs": p.mean_latency,
            })
        })
        .collect();
    Ok(serde_json::json!({
        "floors": { "precision": PRECISION_FLOOR, "recall": RECALL_FLOOR },
        "points": json_points,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn default_intensity_meets_acceptance_floors() {
        let lab = Lab::provision(Scale::Tiny, Some(11)).expect("lab");
        let p = evaluate(&lab, ScheduleIntensity::Default).expect("eval");
        assert!(
            p.alerts > 0,
            "detector stayed silent over a faulted horizon"
        );
        assert!(
            p.precision >= PRECISION_FLOOR,
            "precision {:.3} below floor {PRECISION_FLOOR}",
            p.precision
        );
        assert!(
            p.recall >= RECALL_FLOOR,
            "recall {:.3} below floor {RECALL_FLOOR}",
            p.recall
        );
    }

    #[test]
    fn quiet_warmup_emits_no_alerts() {
        // Within the warmup prefix no event is active; a detector fed
        // only those epochs must stay silent (no false alarms on a
        // healthy plane).
        let lab = Lab::provision(Scale::Tiny, Some(11)).expect("lab");
        let config = ScheduleConfig::at_intensity(lab.topo.config.seed, ScheduleIntensity::Default);
        let warmup = config.warmup_epochs;
        let schedule = EventSchedule::generate(&lab.topo, config);
        assert!(schedule.events.iter().all(|e| e.start_epoch >= warmup));
    }
}
