//! End-to-end exercise of the full CFS pipeline on a small world:
//! generate ground truth, derive the public view, run bootstrap
//! campaigns, execute the search, and score the verdicts against the
//! hidden truth.

use cfs_core::{Cfs, SearchOutcome};
use cfs_kb::{KbConfig, KnowledgeBase, PublicSources};
use cfs_topology::{Topology, TopologyConfig};
use cfs_traceroute::{
    deploy_vantage_points, run_campaign, CampaignLimits, Engine, Platform, VpConfig, VpSet,
};
use cfs_types::Asn;

struct Fixture {
    topo: Topology,
}

impl Fixture {
    fn new() -> Self {
        Self {
            topo: Topology::generate(TopologyConfig::default()).unwrap(),
        }
    }

    fn run_cfs(&self) -> (cfs_core::CfsReport, &Topology) {
        let topo = &self.topo;
        let vps = deploy_vantage_points(topo, &VpConfig::tiny()).unwrap();
        let engine = Engine::new(topo);
        let sources = PublicSources::derive(topo, &KbConfig { noc_pages: 40 });
        let kb = KnowledgeBase::assemble(&sources, &topo.world);
        let ipasn = topo.build_ipasn_db();

        // Bootstrap: every VP probes a handful of popular networks.
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
            .unwrap();
        session.ingest(traces);
        let report = session.into_report();
        (report, topo)
    }
}

fn facility_accuracy(report: &cfs_core::CfsReport, topo: &Topology) -> (usize, usize, usize) {
    let mut correct = 0;
    let mut wrong = 0;
    let mut same_city_wrong = 0;
    for iface in report.interfaces.values() {
        let Some(inferred) = iface.facility else {
            continue;
        };
        let Some(ifid) = topo.iface_by_ip(iface.ip) else {
            continue;
        };
        let router = topo.ifaces[ifid].router;
        let Some(truth) = topo.router_facility(router) else {
            continue;
        };
        if inferred == truth {
            correct += 1;
        } else {
            wrong += 1;
            if topo.facilities[inferred].metro == topo.facilities[truth].metro {
                same_city_wrong += 1;
            }
        }
    }
    (correct, wrong, same_city_wrong)
}

#[test]
fn cfs_resolves_interfaces_with_high_accuracy() {
    let fx = Fixture::new();
    let (report, topo) = fx.run_cfs();

    assert!(
        report.total() > 100,
        "only {} interfaces tracked",
        report.total()
    );
    assert!(
        report.resolved_fraction() > 0.35,
        "resolved fraction too low: {:.2}",
        report.resolved_fraction()
    );

    let (correct, wrong, same_city) = facility_accuracy(&report, topo);
    let checked = correct + wrong;
    assert!(checked > 50, "too few verdicts to score: {checked}");
    let accuracy = correct as f64 / checked as f64;
    assert!(
        accuracy > 0.80,
        "facility accuracy {accuracy:.2} ({correct}/{checked})"
    );
    // The paper's signature failure mode: wrong building, right city.
    let city_accuracy = (correct + same_city) as f64 / checked as f64;
    assert!(city_accuracy >= accuracy);
}

#[test]
fn convergence_curve_is_monotonic_and_frontloaded() {
    let fx = Fixture::new();
    let (report, _) = fx.run_cfs();

    let curve = report.resolution_curve();
    assert!(curve.len() >= 2, "no iterations recorded");
    for w in curve.windows(2) {
        assert!(
            w[1] >= w[0] - 1e-12,
            "resolution curve decreased: {curve:?}"
        );
    }
    // Iteration 1 (single-common-facility cases) already resolves a
    // sizeable share, as in Figure 7.
    assert!(
        curve[0] > 0.05,
        "first iteration resolved too little: {}",
        curve[0]
    );
}

#[test]
fn outcome_taxonomy_is_populated() {
    let fx = Fixture::new();
    let (report, _) = fx.run_cfs();

    let mut by_outcome = std::collections::BTreeMap::new();
    for iface in report.interfaces.values() {
        *by_outcome.entry(iface.outcome).or_insert(0usize) += 1;
    }
    assert!(
        by_outcome
            .get(&SearchOutcome::Resolved)
            .copied()
            .unwrap_or(0)
            > 0
    );
    // Incomplete public data must leave some interfaces short of a
    // verdict, as in the paper (70.65% resolved, not 100%).
    let unresolved: usize = by_outcome
        .iter()
        .filter(|(k, _)| **k != SearchOutcome::Resolved)
        .map(|(_, v)| *v)
        .sum();
    assert!(
        unresolved > 0,
        "everything resolved — incompleteness not modelled"
    );
}

#[test]
fn multi_role_routers_emerge() {
    let fx = Fixture::new();
    let (report, _) = fx.run_cfs();
    let stats = report.router_stats;
    assert!(stats.routers > 20);
    assert!(
        stats.multi_role > 0,
        "no router implements both public and private peering"
    );
}

#[test]
fn links_carry_kinds_and_some_are_public() {
    let fx = Fixture::new();
    let (report, _) = fx.run_cfs();
    assert!(!report.links.is_empty());
    let public = report.links.iter().filter(|l| l.kind.is_public()).count();
    let private = report.links.len() - public;
    assert!(public > 0, "no public links classified");
    assert!(private > 0, "no private links classified");
}

#[test]
fn platform_restriction_limits_followups() {
    let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
    let vps: VpSet = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
    let engine = Engine::new(&topo);
    let sources = PublicSources::derive(&topo, &KbConfig::default());
    let kb = KnowledgeBase::assemble(&sources, &topo.world);
    let ipasn = topo.build_ipasn_db();

    let targets: Vec<std::net::Ipv4Addr> = topo
        .ases
        .keys()
        .take(10)
        .map(|a| topo.target_ip(*a).unwrap())
        .collect();
    let atlas_vps: Vec<_> = vps.of_platform(Platform::RipeAtlas).to_vec();
    let traces = run_campaign(
        &engine,
        &vps,
        &atlas_vps,
        &targets,
        0,
        &CampaignLimits::default(),
    );

    let mut session = Cfs::builder(&engine, &kb)
        .vps(&vps)
        .ipasn(&ipasn)
        .platforms(&[Platform::RipeAtlas])
        .build_session()
        .unwrap();
    session.ingest(traces);
    let report = session.into_report();
    // Must complete and produce a nonempty report even under restriction.
    assert!(report.total() > 0);
}

#[test]
fn fabric_interfaces_of_ground_truth_remote_members_marked_remote() {
    let fx = Fixture::new();
    let (report, topo) = fx.run_cfs();

    let mut flagged = 0usize;
    let mut remote_seen = 0usize;
    for ixp in topo.ixps.values() {
        for m in &ixp.members {
            if let Some(iface) = report.interfaces.get(&m.fabric_ip) {
                if m.remote_via.is_some() {
                    remote_seen += 1;
                    flagged += usize::from(iface.remote);
                }
            }
        }
    }
    if remote_seen >= 3 {
        assert!(
            flagged * 2 >= remote_seen,
            "remote recall too low: {flagged}/{remote_seen}"
        );
    }
}

#[test]
fn report_is_deterministic() {
    let fx = Fixture::new();
    let (a, _) = fx.run_cfs();
    let (b, _) = fx.run_cfs();
    assert_eq!(a.total(), b.total());
    assert_eq!(a.resolved(), b.resolved());
    let asn = Asn(15169);
    assert_eq!(a.interfaces_by_kind(asn), b.interfaces_by_kind(asn));
}
