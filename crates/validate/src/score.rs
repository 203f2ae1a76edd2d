//! Scoring CFS verdicts against the validation channels — the Figure 9
//! machinery: accuracy broken down by validation source and inferred
//! link type, at facility and city granularity.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use cfs_core::CfsReport;
use cfs_types::PeeringKind;

use crate::oracle::{ValidationOracles, ValidationSource};

/// Counters for one (source, link-kind) cell of Figure 9.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bucket {
    /// Facility-level comparisons performed.
    pub checked: usize,
    /// Facility-level matches.
    pub matched: usize,
    /// Metro-level comparisons performed.
    pub metro_checked: usize,
    /// Metro-level matches.
    pub metro_matched: usize,
    /// Remote-classification comparisons.
    pub remote_checked: usize,
    /// Remote-classification matches.
    pub remote_matched: usize,
}

impl Bucket {
    /// Facility-level accuracy, `None` when nothing was checked.
    pub fn accuracy(&self) -> Option<f64> {
        (self.checked > 0).then(|| self.matched as f64 / self.checked as f64)
    }

    /// Metro-level accuracy.
    pub fn metro_accuracy(&self) -> Option<f64> {
        (self.metro_checked > 0).then(|| self.metro_matched as f64 / self.metro_checked as f64)
    }
}

/// The full validation scorecard.
#[derive(Clone, Debug, Default)]
pub struct ValidationReport {
    /// Per (source, inferred kind) cells.
    pub cells: BTreeMap<(ValidationSource, PeeringKind), Bucket>,
}

impl ValidationReport {
    /// Aggregated bucket for one source across kinds.
    pub fn by_source(&self, source: ValidationSource) -> Bucket {
        let mut total = Bucket::default();
        for ((s, _), b) in &self.cells {
            if *s == source {
                merge(&mut total, b);
            }
        }
        total
    }

    /// Aggregated bucket over everything.
    pub fn overall(&self) -> Bucket {
        let mut total = Bucket::default();
        for b in self.cells.values() {
            merge(&mut total, b);
        }
        total
    }
}

fn merge(into: &mut Bucket, from: &Bucket) {
    into.checked += from.checked;
    into.matched += from.matched;
    into.metro_checked += from.metro_checked;
    into.metro_matched += from.metro_matched;
    into.remote_checked += from.remote_checked;
    into.remote_matched += from.remote_matched;
}

/// Scores a CFS report against the oracles.
///
/// Only *resolved* interfaces are scored at facility level (the paper
/// validates its inferences, not its abstentions); remote classification
/// is scored wherever the IXP-website channel annotates it.
pub fn score_report(
    report: &CfsReport,
    oracles: &ValidationOracles<'_>,
    topo: &cfs_topology::Topology,
) -> ValidationReport {
    // Dominant inferred kind per interface (for bucketing).
    let mut kind_of: BTreeMap<Ipv4Addr, PeeringKind> = BTreeMap::new();
    let mut kind_votes: BTreeMap<Ipv4Addr, BTreeMap<PeeringKind, usize>> = BTreeMap::new();
    for link in &report.links {
        *kind_votes
            .entry(link.near_ip)
            .or_default()
            .entry(link.kind)
            .or_default() += 1;
        if let Some(far) = link.far_ip {
            *kind_votes
                .entry(far)
                .or_default()
                .entry(link.kind)
                .or_default() += 1;
        }
    }
    for (ip, votes) in kind_votes {
        if let Some((kind, _)) = votes
            .into_iter()
            .max_by_key(|(k, n)| (*n, std::cmp::Reverse(*k)))
        {
            kind_of.insert(ip, kind);
        }
    }

    let mut out = ValidationReport::default();
    for (ip, iface) in &report.interfaces {
        let kind = kind_of.get(ip).copied().unwrap_or(PeeringKind::PublicLocal);
        for answer in oracles.answers(*ip) {
            let bucket = out.cells.entry((answer.source, kind)).or_default();

            if let (Some(inferred), Some(truth)) = (iface.facility, answer.facility) {
                bucket.checked += 1;
                bucket.matched += usize::from(inferred == truth);
                // City-level comparison rides along.
                let inferred_metro = topo.facilities[inferred].metro;
                let truth_metro = topo.facilities[truth].metro;
                bucket.metro_checked += 1;
                bucket.metro_matched += usize::from(inferred_metro == truth_metro);
            } else if let (Some(inferred), Some(truth_metro), None) =
                (iface.facility, answer.metro, answer.facility)
            {
                // Metro-granularity channel (community metro tags).
                bucket.metro_checked += 1;
                bucket.metro_matched += usize::from(topo.facilities[inferred].metro == truth_metro);
            }

            if let Some(truth_remote) = answer.remote {
                bucket.remote_checked += 1;
                bucket.remote_matched += usize::from(iface.remote == truth_remote);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_core::Cfs;
    use cfs_kb::{KbConfig, KnowledgeBase, PublicSources};
    use cfs_topology::{Topology, TopologyConfig};
    use cfs_traceroute::{deploy_vantage_points, run_campaign, CampaignLimits, Engine, VpConfig};

    /// Full pipeline, then Figure 9 scoring.
    fn run() -> (Topology, ValidationReport) {
        let topo = Topology::generate(TopologyConfig::default()).unwrap();
        let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
        let engine = Engine::new(&topo);
        let sources = PublicSources::derive(&topo, &KbConfig { noc_pages: 40 });
        let kb = KnowledgeBase::assemble(&sources, &topo.world);
        let ipasn = topo.build_ipasn_db();

        let targets: Vec<std::net::Ipv4Addr> = topo
            .ases
            .values()
            .filter(|n| matches!(n.class, cfs_types::AsClass::Cdn | cfs_types::AsClass::Tier1))
            .map(|n| topo.target_ip(n.asn).unwrap())
            .collect();
        let all_vps: Vec<_> = vps.ids().collect();
        let traces = run_campaign(
            &engine,
            &vps,
            &all_vps,
            &targets,
            0,
            &CampaignLimits::default(),
        );

        let mut session = Cfs::builder(&engine, &kb)
            .vps(&vps)
            .ipasn(&ipasn)
            .build_session()
            .expect("score: CFS dependencies are always set");
        session.ingest(traces);
        let report = session.into_report();

        let oracles = ValidationOracles::standard(&topo, &sources);
        let scored = score_report(&report, &oracles, &topo);
        (topo, scored)
    }

    #[test]
    fn validation_finds_coverage_and_high_accuracy() {
        let (_topo, scored) = run();
        let overall = scored.overall();
        assert!(
            overall.checked > 10,
            "validation coverage too thin: {}",
            overall.checked
        );
        let acc = overall.accuracy().unwrap();
        assert!(acc > 0.8, "overall validated accuracy {acc:.2}");
        // City-level accuracy dominates facility-level (the paper's
        // misses land in the right city).
        let metro_acc = overall.metro_accuracy().unwrap();
        assert!(
            metro_acc >= acc - 1e-9,
            "metro {metro_acc:.2} < facility {acc:.2}"
        );
    }

    #[test]
    fn multiple_sources_contribute() {
        let (_topo, scored) = run();
        let sources_with_coverage = ValidationSource::ALL
            .iter()
            .filter(|s| {
                let b = scored.by_source(**s);
                b.checked + b.metro_checked + b.remote_checked > 0
            })
            .count();
        assert!(
            sources_with_coverage >= 3,
            "only {sources_with_coverage} sources fired"
        );
    }

    #[test]
    fn bucket_accuracy_handles_empty() {
        let b = Bucket::default();
        assert_eq!(b.accuracy(), None);
        assert_eq!(b.metro_accuracy(), None);
    }
}
