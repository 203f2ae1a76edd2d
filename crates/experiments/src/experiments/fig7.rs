//! Figure 7 — "Fraction of resolved interfaces versus number of CFS
//! iterations when we use all, RIPE Atlas, or LG traceroute platforms."
//!
//! Paper shape: ~40% of interfaces resolve within 10 iterations,
//! diminishing returns after 40, 70.65% at the cap of 100; Atlas resolves
//! about twice as many interfaces per iteration as looking glasses, but
//! 46% of LG-visible interfaces (transit backbones) never appear in Atlas
//! traces.

use cfs_core::CfsConfig;
use cfs_traceroute::Platform;
use cfs_types::Result;

use crate::{Lab, Output};

/// Runs the experiment.
pub fn run(lab: &Lab, out: &mut Output) -> Result<serde_json::Value> {
    let configs: [(&str, Option<&[Platform]>); 3] = [
        ("all", None),
        ("ripe-atlas", Some(&[Platform::RipeAtlas])),
        ("looking-glass", Some(&[Platform::LookingGlass])),
    ];

    let mut curves = Vec::new();
    let mut interface_sets: Vec<std::collections::BTreeSet<std::net::Ipv4Addr>> = Vec::new();
    for (label, platforms) in configs {
        let report = lab.run_cfs(None, platforms, CfsConfig::default());
        let curve = report.resolution_curve();
        interface_sets.push(report.interfaces.keys().copied().collect());
        curves.push((label, curve, report.total(), report.resolved()));
    }

    // Cross-platform visibility: LG-only interfaces unseen by Atlas.
    let atlas = &interface_sets[1];
    let lg = &interface_sets[2];
    let lg_only = lg.difference(atlas).count();
    let lg_unseen_fraction = if lg.is_empty() {
        0.0
    } else {
        lg_only as f64 / lg.len() as f64
    };

    let sample_points = [1usize, 5, 10, 20, 40, 60, 80, 100];
    let mut rows = Vec::new();
    for &it in &sample_points {
        let mut row = vec![it.to_string()];
        for (_, curve, _, _) in &curves {
            let v = curve.get(it.saturating_sub(1)).or_else(|| curve.last());
            row.push(v.map(|f| format!("{:.3}", f)).unwrap_or_else(|| "-".into()));
        }
        rows.push(row);
    }
    out.table(&["iteration", "all", "ripe-atlas", "looking-glass"], &rows);
    out.line("");
    for (label, _curve, total, resolved) in &curves {
        out.kv(
            &format!("{label}: final resolved / tracked"),
            format!(
                "{resolved} / {total} ({:.1}%)",
                100.0 * *resolved as f64 / (*total).max(1) as f64
            ),
        );
    }
    out.kv(
        "LG-visible interfaces unseen by Atlas",
        format!("{:.1}%", lg_unseen_fraction * 100.0),
    );
    out.line("");
    out.line("paper: ~40% by iteration 10, 70.65% at 100; Atlas ≈ 2x LG per iteration; 46% of LG interfaces invisible to Atlas");

    Ok(serde_json::json!({
        "curves": curves
            .iter()
            .map(|(label, curve, total, resolved)| serde_json::json!({
                "platforms": label,
                "curve": curve,
                "tracked": total,
                "resolved": resolved,
            }))
            .collect::<Vec<_>>(),
        "lg_unseen_by_atlas_fraction": lg_unseen_fraction,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn curves_are_monotonic_and_all_dominates() {
        let lab = Lab::provision(Scale::Tiny, None).unwrap();
        let mut out = Output::new("fig7-test", "tiny").quiet();
        let json = run(&lab, &mut out).unwrap();
        let curves = json["curves"].as_array().unwrap();
        assert_eq!(curves.len(), 3);
        for c in curves {
            let vals: Vec<f64> = c["curve"]
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap())
                .collect();
            assert!(!vals.is_empty());
            for w in vals.windows(2) {
                assert!(w[1] >= w[0] - 1e-12);
            }
        }
        // The all-platform run tracks at least as many interfaces as
        // either restricted run.
        let tracked = |i: usize| curves[i]["tracked"].as_u64().unwrap();
        assert!(tracked(0) >= tracked(1));
        assert!(tracked(0) >= tracked(2));
    }
}
