//! Ablation study (beyond the paper): which design ingredients carry the
//! result? Each variant disables one mechanism of §4 and re-runs the
//! pipeline; the table reports coverage and ground-truth accuracy.
//!
//! * `full`            — the complete algorithm;
//! * `no-alias`        — without Step 3 (alias sets share a facility);
//! * `no-followup`     — without Step 4 (targeted follow-up traceroutes);
//! * `no-reverse`      — without the §4.3 reverse search;
//! * `no-proximity`    — without the §4.4 switch-proximity fallback;
//! * `classic-tracert` — with classic (non-Paris) traceroute artifacts,
//!   quantifying why the paper insists on Paris traceroute \[9\].

use cfs_core::{CfsConfig, CfsReport};
use cfs_traceroute::Engine;
use cfs_types::Result;

use crate::{Lab, Output};

/// Runs the experiment.
pub fn run(lab: &Lab, out: &mut Output) -> Result<serde_json::Value> {
    let base = CfsConfig::default();
    let variants: Vec<(&str, CfsConfig, bool)> = vec![
        ("full", base.clone(), true),
        (
            "no-alias",
            CfsConfig {
                alias_constraints: false,
                ..base.clone()
            },
            true,
        ),
        (
            "no-followup",
            CfsConfig {
                followup_interfaces: 0,
                ..base.clone()
            },
            true,
        ),
        (
            "no-reverse",
            CfsConfig {
                reverse_search: false,
                ..base.clone()
            },
            true,
        ),
        (
            "no-proximity",
            CfsConfig {
                proximity: false,
                ..base.clone()
            },
            true,
        ),
        ("classic-tracert", base.clone(), false),
    ];

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (label, cfg, paris) in variants {
        let report = run_variant(lab, cfg, paris);
        let (correct, wrong) = accuracy(lab, &report);
        let checked = correct + wrong;
        let acc = if checked > 0 {
            correct as f64 / checked as f64
        } else {
            0.0
        };
        rows.push(vec![
            label.to_string(),
            report.total().to_string(),
            report.resolved().to_string(),
            format!("{:.1}%", report.resolved_fraction() * 100.0),
            format!("{:.1}%", acc * 100.0),
            report.traces_issued.to_string(),
        ]);
        json_rows.push(serde_json::json!({
            "variant": label,
            "tracked": report.total(),
            "resolved": report.resolved(),
            "resolved_fraction": report.resolved_fraction(),
            "accuracy": acc,
            "checked": checked,
            "followup_traces": report.traces_issued,
        }));
    }

    out.table(
        &[
            "variant",
            "tracked",
            "resolved",
            "coverage",
            "accuracy",
            "follow-ups",
        ],
        &rows,
    );
    out.line("");
    out.line("accuracy = resolved verdicts matching hidden ground truth (evaluation-only oracle)");

    Ok(serde_json::json!({ "variants": json_rows }))
}

fn run_variant(lab: &Lab, cfg: CfsConfig, paris: bool) -> CfsReport {
    let engine = if paris {
        Engine::new(&lab.topo)
    } else {
        Engine::new(&lab.topo).without_paris()
    };
    lab.session(&engine, &lab.kb, cfg, lab.recorder.clone(), None)
        .into_report()
}

fn accuracy(lab: &Lab, report: &CfsReport) -> (usize, usize) {
    let mut correct = 0;
    let mut wrong = 0;
    for iface in report.interfaces.values() {
        let Some(inferred) = iface.facility else {
            continue;
        };
        let Some(ifid) = lab.topo.iface_by_ip(iface.ip) else {
            continue;
        };
        let Some(truth) = lab.topo.router_facility(lab.topo.ifaces[ifid].router) else {
            continue;
        };
        if inferred == truth {
            correct += 1;
        } else {
            wrong += 1;
        }
    }
    (correct, wrong)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn followups_matter() {
        let lab = Lab::provision(Scale::Tiny, None).unwrap();
        let mut out = Output::new("ablation-test", "tiny").quiet();
        let json = run(&lab, &mut out).unwrap();
        let rows = json["variants"].as_array().unwrap();
        assert_eq!(rows.len(), 6);
        let resolved = |label: &str| {
            rows.iter()
                .find(|r| r["variant"] == label)
                .and_then(|r| r["resolved"].as_u64())
                .unwrap()
        };
        // Follow-ups discover new interfaces (the *fraction* may move
        // either way as the denominator grows) but never lose absolute
        // resolutions; the no-followup variant issues zero extra traces.
        assert!(resolved("full") >= resolved("no-followup"));
        let no_followup = rows.iter().find(|r| r["variant"] == "no-followup").unwrap();
        assert_eq!(no_followup["followup_traces"].as_u64().unwrap(), 0);
    }
}
