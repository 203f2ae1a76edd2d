//! Diagnostic (not a paper artifact): what keeps interfaces unresolved?
//! Prints the outcome mix, candidate-set size histogram, and owner-class
//! breakdown of the unresolved population.

use cfs_core::{CfsConfig, SearchOutcome};
use cfs_experiments::{Lab, Output};

fn main() {
    let (scale, seed) = cfs_experiments::parse_args();
    let lab = Lab::provision(scale, seed).expect("lab");
    let report = lab.run_cfs(None, None, CfsConfig::default());
    let mut out = Output::new("debug_unresolved", scale.label());

    let mut outcomes = std::collections::BTreeMap::new();
    let mut sizes = std::collections::BTreeMap::new();
    let mut classes = std::collections::BTreeMap::new();
    for iface in report.interfaces.values() {
        *outcomes
            .entry(format!("{:?}", iface.outcome))
            .or_insert(0usize) += 1;
        if iface.outcome == SearchOutcome::UnresolvedLocal {
            let bucket = match iface.candidates.len() {
                // One candidate left: the contested-pin gate refused the
                // pin (DESIGN.md §11), so the row stays unresolved.
                0..=1 => "1 (contested pin refused)",
                2 => "2",
                3 => "3",
                4..=5 => "4-5",
                6..=10 => "6-10",
                _ => ">10",
            };
            *sizes.entry(bucket).or_insert(0usize) += 1;
            if let Some(owner) = iface.owner {
                if let Ok(node) = lab.topo.as_node(owner) {
                    *classes.entry(node.class.label()).or_insert(0usize) += 1;
                }
            }
        }
    }
    out.kv("tracked", report.total());
    out.kv("resolved", report.resolved());
    for (k, v) in &outcomes {
        out.kv(&format!("outcome {k}"), v);
    }
    out.heading("unresolved-local candidate set sizes");
    for (k, v) in &sizes {
        out.kv(k, v);
    }
    out.heading("unresolved-local owner classes");
    for (k, v) in &classes {
        out.kv(k, v);
    }
    let _ = out.finish(serde_json::json!({}));
}
