//! Figure 8 — "Average fraction of unresolved interfaces, and interfaces
//! with erroneous facility inference by iteratively removing 1400
//! facilities" (20 repetitions in the paper).
//!
//! Removing facility knowledge both *unresolves* interfaces (lost
//! constraints) and *changes* inferences (the search converges to a
//! different facility by cross-referencing incomplete data); the changed
//! curve is non-monotonic because heavy damage prevents convergence
//! altogether.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use cfs_core::CfsConfig;
use cfs_traceroute::Engine;
use cfs_types::{par, FacilityId, Result};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;

use crate::{Lab, Output, Scale};

/// Runs the experiment.
pub fn run(lab: &Lab, out: &mut Output) -> Result<serde_json::Value> {
    // Baseline inference with the full knowledge base.
    let baseline = lab.run_cfs(None, None, fast_cfg());
    let baseline_map: BTreeMap<Ipv4Addr, FacilityId> = baseline
        .interfaces
        .values()
        .filter_map(|i| i.facility.map(|f| (i.ip, f)))
        .collect();
    let baseline_resolved = baseline_map.len().max(1);

    let total_facilities = lab.topo.facilities.len();
    // The paper removes up to 1,400 of 1,694 facilities (~83%).
    let max_removed = (total_facilities as f64 * 0.83) as usize;
    let steps = 7usize;
    let trials = match lab.scale {
        Scale::Paper => 10,
        Scale::Default => 5,
        Scale::Tiny => 2,
    };

    // Each (step, trial) degradation run is independent and deterministic
    // in its derived seed; fan them out over scoped threads.
    let jobs: Vec<(usize, usize)> = (1..=steps)
        .flat_map(|s| (0..trials).map(move |t| (s, t)))
        .collect();
    let run_one = |step: usize, trial: usize| -> (usize, f64, f64) {
        let removed_count = max_removed * step / steps;
        let mut rng =
            ChaCha20Rng::seed_from_u64(lab.topo.config.seed ^ (step as u64) << 8 ^ trial as u64);
        let mut pool: Vec<FacilityId> = lab.topo.facilities.ids().collect();
        pool.shuffle(&mut rng);
        let removed: BTreeSet<FacilityId> = pool.into_iter().take(removed_count).collect();
        let mut kb = lab.kb.clone();
        kb.remove_facilities(&removed);

        // The clean measurement plane, booted on the degraded KB.
        let engine = Engine::new(&lab.topo);
        let report = lab
            .session(&engine, &kb, fast_cfg(), lab.recorder.clone(), None)
            .into_report();
        let mut lost = 0usize;
        let mut changed = 0usize;
        for (ip, fac) in &baseline_map {
            match report.interfaces.get(ip).and_then(|i| i.facility) {
                None => lost += 1,
                Some(f) if f != *fac => changed += 1,
                Some(_) => {}
            }
        }
        (
            step,
            lost as f64 / baseline_resolved as f64,
            changed as f64 / baseline_resolved as f64,
        )
    };
    let results = par::concat(par::fan_out(0..jobs.len(), par::workers(0), 0, |range| {
        let chunk = jobs[range].iter();
        chunk.map(|(s, t)| run_one(*s, *t)).collect()
    }));

    let mut rows = Vec::new();
    let mut json_points = Vec::new();
    for step in 1..=steps {
        let removed_count = max_removed * step / steps;
        let step_results: Vec<&(usize, f64, f64)> =
            results.iter().filter(|(s, _, _)| *s == step).collect();
        let lost = step_results.iter().map(|(_, l, _)| l).sum::<f64>() / step_results.len() as f64;
        let changed =
            step_results.iter().map(|(_, _, c)| c).sum::<f64>() / step_results.len() as f64;
        rows.push(vec![
            removed_count.to_string(),
            format!(
                "{:.1}%",
                100.0 * removed_count as f64 / total_facilities as f64
            ),
            format!("{:.3}", lost),
            format!("{:.3}", changed),
        ]);
        json_points.push(serde_json::json!({
            "removed": removed_count,
            "removed_fraction": removed_count as f64 / total_facilities as f64,
            "unresolved_fraction": lost,
            "changed_fraction": changed,
        }));
    }

    out.kv("baseline resolved interfaces", baseline_resolved);
    out.kv("trials per point", trials);
    out.line("");
    out.table(
        &[
            "facilities removed",
            "of dataset",
            "unresolved fraction",
            "changed fraction",
        ],
        &rows,
    );
    out.line("");
    out.line("paper: 50% removal -> ~30% unresolved; 80% -> ~60%; changed peaks ~20% near 30% removal, non-monotonic");

    Ok(serde_json::json!({
        "baseline_resolved": baseline_resolved,
        "trials": trials,
        "points": json_points,
    }))
}

/// A lighter CFS configuration: Figure 8 needs dozens of runs, and the
/// degradation signal saturates well before 100 iterations.
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

    #[test]
    fn damage_loses_resolutions_monotonically_overall() {
        let lab = Lab::provision(Scale::Tiny, None).unwrap();
        let mut out = Output::new("fig8-test", "tiny").quiet();
        let json = run(&lab, &mut out).unwrap();
        let points = json["points"].as_array().unwrap();
        assert!(points.len() >= 3);
        let first = points.first().unwrap()["unresolved_fraction"]
            .as_f64()
            .unwrap();
        let last = points.last().unwrap()["unresolved_fraction"]
            .as_f64()
            .unwrap();
        assert!(
            last > first,
            "removing most facilities should unresolve more interfaces ({first} -> {last})"
        );
        assert!(last > 0.2, "83% removal lost only {last}");
    }
}
