//! fault_curve — accuracy versus probe-fault rate (extension study).
//!
//! The paper's pipeline assumes a clean measurement plane; real
//! campaigns lose probes to ICMP rate limiting, vantage-point outages,
//! and plain packet loss. This experiment sweeps the chaos layer's
//! probe-loss dial and plots how the inference degrades: resolved
//! coverage should fall *gradually* (retries and metro widening absorb
//! the early losses), and the facilities that do resolve should stay
//! overwhelmingly consistent with the clean run. A cliff to zero at
//! single-digit loss rates would mean the resilience layer is not doing
//! its job; the test below pins that property.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use cfs_chaos::{FaultPlan, FaultProfile};
use cfs_core::{CfsConfig, CfsReport};
use cfs_types::{FacilityId, Result};

use crate::{Lab, Output};

/// Probe-loss rates swept, in per-mille (0 = clean baseline, 100 = 10%).
pub const LOSS_PM: [u32; 5] = [0, 20, 50, 100, 150];

/// Knowledge-plane fault profiles swept alongside the probe-loss curve:
/// uniform staleness versus the torn mid-refresh snapshot.
pub const KB_PROFILES: [&str; 2] = ["stale-kb", "mid-kb-refresh"];

/// KB conflict-contamination rates swept (per-mille of networks whose
/// records self-contradict; 200 = the ISSUE-9 one-in-five scenario).
pub const CONFLICT_PM: [u32; 4] = [0, 50, 100, 200];

/// One point of the degradation curve.
struct Point {
    loss_pm: u32,
    resolved: usize,
    retained: f64,
    consistent: f64,
    retries: u64,
    widened: u64,
}

/// Runs the experiment.
pub fn run(lab: &Lab, out: &mut Output) -> Result<serde_json::Value> {
    let clean = lab.run_cfs(None, None, fast_cfg());
    let clean_map = facility_map(&clean);
    let clean_resolved = clean_map.len().max(1);

    let mut points = Vec::new();
    for pm in LOSS_PM {
        let report = if pm == 0 {
            clean.clone()
        } else {
            let plan = FaultPlan::new(lab.topo.config.seed, FaultProfile::probe_loss(pm));
            lab.run_cfs(Some(plan), None, fast_cfg())
        };
        let map = facility_map(&report);
        let consistent = map
            .iter()
            .filter(|(ip, fac)| clean_map.get(*ip) == Some(fac))
            .count();
        points.push(Point {
            loss_pm: pm,
            resolved: map.len(),
            retained: map.len() as f64 / clean_resolved as f64,
            consistent: consistent as f64 / map.len().max(1) as f64,
            retries: report.data_quality.probes_retried,
            widened: report.data_quality.widened_interfaces,
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}%", p.loss_pm as f64 / 10.0),
                p.resolved.to_string(),
                format!("{:.3}", p.retained),
                format!("{:.3}", p.consistent),
                p.retries.to_string(),
                p.widened.to_string(),
            ]
        })
        .collect();
    out.kv("clean resolved interfaces", clean_resolved);
    out.line("");
    out.table(
        &[
            "probe loss",
            "resolved",
            "retained vs clean",
            "consistent w/ clean",
            "retries",
            "widened",
        ],
        &rows,
    );
    out.line("");
    out.line("expectation: retained coverage decays gradually (no cliff through 10% loss); resolved facilities stay consistent with the clean run");

    // Knowledge-plane scenarios: the same metrics under KB rot, with and
    // without a mid-campaign refresh tearing the snapshot.
    let mut kb_points = Vec::new();
    for name in KB_PROFILES {
        let profile = FaultProfile::parse(name).expect("known kb profile");
        let plan = FaultPlan::new(lab.topo.config.seed, profile);
        let report = lab.run_cfs(Some(plan), None, fast_cfg());
        let map = facility_map(&report);
        let consistent = map
            .iter()
            .filter(|(ip, fac)| clean_map.get(*ip) == Some(fac))
            .count();
        kb_points.push((
            name,
            Point {
                loss_pm: 0,
                resolved: map.len(),
                retained: map.len() as f64 / clean_resolved as f64,
                consistent: consistent as f64 / map.len().max(1) as f64,
                retries: report.data_quality.probes_retried,
                widened: report.data_quality.widened_interfaces,
            },
        ));
    }
    let kb_rows: Vec<Vec<String>> = kb_points
        .iter()
        .map(|(name, p)| {
            vec![
                (*name).to_string(),
                p.resolved.to_string(),
                format!("{:.3}", p.retained),
                format!("{:.3}", p.consistent),
                p.retries.to_string(),
                p.widened.to_string(),
            ]
        })
        .collect();
    out.line("");
    out.table(
        &[
            "kb profile",
            "resolved",
            "retained vs clean",
            "consistent w/ clean",
            "retries",
            "widened",
        ],
        &kb_rows,
    );
    out.line("");
    out.line("expectation: mid-kb-refresh (torn snapshot) hurts consistency at most modestly beyond uniform stale-kb rot");

    // Conflicting-KB sweep: sources that *disagree* rather than lag.
    // The reconciliation layer (DESIGN.md §11) classifies the
    // manufactured contradictions as contested and the engine refuses to
    // pin on them — coverage should shrink a little while every surviving
    // pin stays trustworthy.
    let mut conflict_points = Vec::new();
    for pm in CONFLICT_PM {
        let report = if pm == 0 {
            clean.clone()
        } else {
            let plan = FaultPlan::new(lab.topo.config.seed, FaultProfile::conflict_rate(pm));
            lab.run_cfs(Some(plan), None, fast_cfg())
        };
        let map = facility_map(&report);
        let consistent = map
            .iter()
            .filter(|(ip, fac)| clean_map.get(*ip) == Some(fac))
            .count();
        conflict_points.push((
            pm,
            map.len(),
            map.len() as f64 / clean_resolved as f64,
            consistent as f64 / map.len().max(1) as f64,
            report.kb_quality.contested,
            report.data_quality.contested_pins_refused,
        ));
    }
    let conflict_rows: Vec<Vec<String>> = conflict_points
        .iter()
        .map(|(pm, resolved, retained, consistent, contested, refused)| {
            vec![
                format!("{:.1}%", f64::from(*pm) / 10.0),
                resolved.to_string(),
                format!("{retained:.3}"),
                format!("{consistent:.3}"),
                contested.to_string(),
                refused.to_string(),
            ]
        })
        .collect();
    out.line("");
    out.table(
        &[
            "kb conflict",
            "resolved",
            "retained vs clean",
            "consistent w/ clean",
            "contested claims",
            "pins refused",
        ],
        &conflict_rows,
    );
    out.line("");
    out.line("expectation: retained coverage stays high (>=0.9 at 20% contamination) and no facility pin ever rests on contested provenance — the refused column is the price of that guarantee");

    // Detector ablation at the harshest conflict point: the traIXroute-
    // style multi-rule IXP-hop detector with evidence gating versus the
    // paper's original prefix-only test that trusts every directory row.
    let harsh = FaultPlan::new(
        lab.topo.config.seed,
        FaultProfile::conflict_rate(*CONFLICT_PM.last().expect("non-empty")),
    );
    let multi_rule = lab.run_cfs(Some(harsh), None, fast_cfg());
    let prefix_only = lab.run_cfs(
        Some(harsh),
        None,
        CfsConfig {
            evidence_gating: false,
            ..fast_cfg()
        },
    );
    let detector_stats: Vec<(&str, usize, f64, f64, u64)> =
        [("multi-rule", &multi_rule), ("prefix-only", &prefix_only)]
            .into_iter()
            .map(|(name, report)| {
                let map = facility_map(report);
                let consistent = map
                    .iter()
                    .filter(|(ip, fac)| clean_map.get(*ip) == Some(fac))
                    .count();
                (
                    name,
                    map.len(),
                    map.len() as f64 / clean_resolved as f64,
                    consistent as f64 / map.len().max(1) as f64,
                    report.data_quality.contested_pins_refused,
                )
            })
            .collect();
    let detector_points: Vec<serde_json::Value> = detector_stats
        .iter()
        .map(|(name, resolved, retained, consistent, refused)| {
            serde_json::json!({
                "detector": name,
                "resolved": resolved,
                "retained_fraction": retained,
                "consistent_fraction": consistent,
                "contested_pins_refused": refused,
            })
        })
        .collect();
    let detector_table: Vec<Vec<String>> = detector_stats
        .iter()
        .map(|(name, resolved, retained, consistent, refused)| {
            vec![
                (*name).to_string(),
                resolved.to_string(),
                format!("{retained:.3}"),
                format!("{consistent:.3}"),
                refused.to_string(),
            ]
        })
        .collect();
    out.line("");
    out.table(
        &[
            "ixp-hop detector",
            "resolved",
            "retained vs clean",
            "consistent w/ clean",
            "pins refused",
        ],
        &detector_table,
    );
    out.line("");
    out.line("expectation: prefix-only pins more but some of those pins rest on contested claims; multi-rule trades a sliver of coverage for zero contested pins");

    let json_points: Vec<serde_json::Value> = points
        .iter()
        .map(|p| {
            serde_json::json!({
                "loss_pm": p.loss_pm,
                "resolved": p.resolved,
                "retained_fraction": p.retained,
                "consistent_fraction": p.consistent,
                "probes_retried": p.retries,
                "widened_interfaces": p.widened,
            })
        })
        .collect();
    let json_kb_points: Vec<serde_json::Value> = kb_points
        .iter()
        .map(|(name, p)| {
            serde_json::json!({
                "profile": name,
                "resolved": p.resolved,
                "retained_fraction": p.retained,
                "consistent_fraction": p.consistent,
                "probes_retried": p.retries,
                "widened_interfaces": p.widened,
            })
        })
        .collect();
    let json_conflict_points: Vec<serde_json::Value> = conflict_points
        .iter()
        .map(|(pm, resolved, retained, consistent, contested, refused)| {
            serde_json::json!({
                "conflict_pm": pm,
                "resolved": resolved,
                "retained_fraction": retained,
                "consistent_fraction": consistent,
                "contested_claims": contested,
                "contested_pins_refused": refused,
            })
        })
        .collect();
    Ok(serde_json::json!({
        "clean_resolved": clean_resolved,
        "points": json_points,
        "kb_points": json_kb_points,
        "conflict_points": json_conflict_points,
        "detector_points": detector_points,
    }))
}

fn facility_map(report: &CfsReport) -> BTreeMap<Ipv4Addr, FacilityId> {
    report
        .interfaces
        .values()
        .filter_map(|i| i.facility.map(|f| (i.ip, f)))
        .collect()
}

/// A lighter configuration: the sweep needs several full runs and the
/// degradation signal does not need 100 iterations to show.
fn fast_cfg() -> CfsConfig {
    CfsConfig {
        max_iterations: 30,
        followup_interfaces: 30,
        ..CfsConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scale, Substrate};

    /// The acceptance property of the resilience layer: at ≤10% probe
    /// loss the pipeline keeps resolving a substantial share of what the
    /// clean run resolves — it degrades, but there is no cliff to zero.
    #[test]
    fn degradation_is_bounded_at_ten_percent_loss() {
        let lab = Lab::provision(Scale::Tiny, Some(11)).expect("lab");
        let clean = lab.run_cfs(None, None, fast_cfg());
        let clean_resolved = facility_map(&clean).len();
        assert!(clean_resolved > 0, "clean run resolved nothing");

        for pm in [50u32, 100] {
            let plan = FaultPlan::new(lab.topo.config.seed, FaultProfile::probe_loss(pm));
            let report = lab.run_cfs(Some(plan), None, fast_cfg());
            let resolved = facility_map(&report).len();
            assert!(
                resolved * 2 >= clean_resolved,
                "cliff at {pm}‰ loss: {resolved} of {clean_resolved} clean resolutions survive"
            );
        }
    }

    /// The torn snapshot must dirty the data, not kill the pipeline: a
    /// mid-kb-refresh run still resolves interfaces, and the same plan
    /// reproduces byte-identically.
    #[test]
    fn mid_kb_refresh_degrades_gracefully_and_reproduces() {
        let lab = Lab::provision(Scale::Tiny, Some(11)).expect("lab");
        let plan = FaultPlan::new(
            lab.topo.config.seed,
            FaultProfile::parse("mid-kb-refresh").expect("named profile"),
        );
        let a = lab.run_cfs(Some(plan), None, fast_cfg());
        assert!(
            !facility_map(&a).is_empty(),
            "torn KB snapshot wiped out all resolutions"
        );
        let b = lab.run_cfs(Some(plan), None, fast_cfg());
        assert_eq!(
            serde_json::to_string(&a).expect("render"),
            serde_json::to_string(&b).expect("render")
        );
    }

    /// The ISSUE-9 acceptance property: at 20% contested records the
    /// pipeline keeps ≥90% of its clean coverage, and *no* surviving
    /// facility pin rests on contested provenance — every affected
    /// interface either widened or carries a typed reason instead.
    #[test]
    fn conflict_contamination_retains_coverage_without_contested_pins() {
        let lab = Lab::provision(Scale::Tiny, Some(11)).expect("lab");
        let clean = lab.run_cfs(None, None, fast_cfg());
        let clean_resolved = facility_map(&clean).len();
        assert!(clean_resolved > 0, "clean run resolved nothing");

        let plan = FaultPlan::new(lab.topo.config.seed, FaultProfile::conflict_rate(200));
        let plane = Substrate::new(&lab, Some(plan), None);
        let kb = plane.kb();
        let report = lab
            .session(plane.engine(), kb, fast_cfg(), lab.recorder.clone(), None)
            .into_report();
        let resolved = facility_map(&report).len();
        assert!(
            resolved * 10 >= clean_resolved * 9,
            "coverage retention below 90%: {resolved} of {clean_resolved}"
        );

        // Check every pin against the reconciled provenance of the KB
        // the run read.
        assert!(
            kb.quality().contested > lab.kb.quality().contested,
            "conflict dial manufactured no contested claims"
        );
        for iface in report.interfaces.values() {
            let (Some(owner), Some(f)) = (iface.owner, iface.facility) else {
                continue;
            };
            assert!(
                kb.pin_allowed(owner, f),
                "{} pinned to {f} on contested provenance",
                iface.ip
            );
        }
    }

    /// The detector ablation's direction is pinned: with evidence gating
    /// off (the paper's prefix-only test) the run never refuses a pin,
    /// with the multi-rule detector the refusals are exactly the
    /// `contested_provenance` entries in the unresolved-reason taxonomy.
    #[test]
    fn prefix_only_never_refuses_and_multi_rule_types_its_refusals() {
        let lab = Lab::provision(Scale::Tiny, Some(11)).expect("lab");
        let plan = FaultPlan::new(lab.topo.config.seed, FaultProfile::conflict_rate(200));
        let gated = lab.run_cfs(Some(plan), None, fast_cfg());
        let ungated = lab.run_cfs(
            Some(plan),
            None,
            CfsConfig {
                evidence_gating: false,
                ..fast_cfg()
            },
        );
        assert_eq!(
            ungated.data_quality.contested_pins_refused, 0,
            "prefix-only detector has no refusal path"
        );
        // Every refusal surfaces under the typed reason; gated-but-never-
        // pinned interfaces land under the same code, so the tally is a
        // superset of the refusals.
        assert!(
            gated
                .data_quality
                .unresolved_reasons
                .get("contested_provenance")
                .copied()
                .unwrap_or(0)
                >= gated.data_quality.contested_pins_refused,
            "refusals missing from the contested_provenance reason tally"
        );
    }

    /// Same seed, same plan, same answer — chaos is deterministic even
    /// through the full experiment harness.
    #[test]
    fn faulted_runs_are_reproducible() {
        let lab = Lab::provision(Scale::Tiny, Some(11)).expect("lab");
        let plan = FaultPlan::new(lab.topo.config.seed, FaultProfile::standard());
        let a = lab.run_cfs(Some(plan), None, fast_cfg());
        let b = lab.run_cfs(Some(plan), None, fast_cfg());
        assert_eq!(
            serde_json::to_string(&a).expect("render"),
            serde_json::to_string(&b).expect("render")
        );
    }
}
