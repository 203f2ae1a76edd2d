//! Incremental map construction — the paper's concluding claim: "by
//! utilizing results for individual interconnections and others inferred
//! in the process, it is possible to incrementally construct a more
//! detailed map of interconnections."
//!
//! A follow-up-less resident session absorbs three successive campaigns
//! with different target sets as `Delta::TracerouteBatch` deltas; each
//! re-converges only the interfaces the new paths touched, and coverage
//! grows with every campaign.
//!
//! ```text
//! cargo run --release --example incremental_map
//! ```

use cfs::prelude::*;

fn main() {
    let topo = Topology::generate(TopologyConfig::default()).expect("topology");
    let vps = deploy_vantage_points(&topo, &VpConfig::default()).expect("vantage points");
    let engine = Engine::new(&topo);
    let sources = PublicSources::derive(&topo, &KbConfig::default());
    let kb = KnowledgeBase::assemble(&sources, &topo.world);
    let ipasn = topo.build_ipasn_db();

    // Three campaigns with disjoint target sets: the CDNs, the Tier-1s,
    // then a slice of the transit providers.
    let of_class = |class: AsClass, n: usize| -> Vec<Asn> {
        let ases = topo.ases.values().filter(|a| a.class == class);
        ases.map(|a| a.asn).take(n).collect()
    };
    let campaigns = [
        of_class(AsClass::Cdn, usize::MAX),
        of_class(AsClass::Tier1, usize::MAX),
        of_class(AsClass::Transit, 12),
    ];

    // Deltas need the iteration-1 fixed point: no targeted follow-ups.
    let config = CfsConfig {
        followup_interfaces: 0,
        ..CfsConfig::default()
    };
    let mut session = Cfs::builder(&engine, &kb)
        .vps(&vps)
        .ipasn(&ipasn)
        .config(config)
        .build_session()
        .expect("vps and ipasn are set");
    let vp_ids: Vec<_> = vps.ids().collect();
    for (day, targets) in campaigns.iter().enumerate() {
        let ips: Vec<std::net::Ipv4Addr> = targets
            .iter()
            .filter_map(|a| topo.target_ip(*a).ok())
            .collect();
        let traces = run_campaign(
            &engine,
            &vps,
            &vp_ids,
            &ips,
            (day as u64) * 86_400_000, // one campaign per day
            &CampaignLimits::default(),
        );
        let outcome = session
            .apply_delta(Delta::TracerouteBatch(traces))
            .expect("a follow-up-less session absorbs campaigns");
        let report = session.report().expect("a delta leaves a converged report");
        println!(
            "campaign {}: {} targets -> {} of {} interfaces resolved, {} interconnections; {outcome:?}",
            day + 1,
            targets.len(),
            report.resolved(),
            report.total(),
            report.links.len(),
        );
    }
}
