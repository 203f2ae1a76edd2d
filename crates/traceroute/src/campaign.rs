//! Campaign scheduling: fan a set of targets out over vantage points,
//! respecting the practical limits of each platform (§3.2).
//!
//! Looking glasses enforce probing timeouts ("we used a timeout of 60
//! seconds between each query to the same looking glass"), so campaigns
//! cap per-LG query counts; Atlas runs a full campaign in ~5 minutes.
//! iPlane and Ark contribute *archived* daily sweeps toward random
//! prefixes rather than targeted queries.

use std::net::Ipv4Addr;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use cfs_types::{par, VantagePointId};

use crate::engine::Trace;
use crate::platform::{Platform, VpSet};
use crate::service::ProbeService;

/// Like [`run_campaign`], fanned out over one worker per core
/// ([`par::fan_out`]). Traces are deterministic per `(vantage point,
/// target, time)`, so the result is identical to the sequential runner
/// (same order, same hops) — only the wall-clock differs. Useful for
/// paper-scale campaigns (8.5k vantage points × targets).
pub fn run_campaign_parallel(
    engine: &dyn ProbeService,
    vps: &VpSet,
    vp_ids: &[VantagePointId],
    targets: &[Ipv4Addr],
    at_ms: u64,
    limits: &CampaignLimits,
) -> Vec<Trace> {
    let chunks = par::fan_out(0..vp_ids.len(), par::workers(0), 64, |range| {
        run_campaign(engine, vps, &vp_ids[range], targets, at_ms, limits)
    });
    par::concat(chunks)
}

/// Per-campaign scheduling limits.
#[derive(Clone, Debug)]
pub struct CampaignLimits {
    /// Maximum targeted queries per looking glass per campaign (rate
    /// limiting makes LGs unsuitable for scans, §3.2).
    pub lg_queries: usize,
    /// Maximum targeted queries per Atlas/iPlane/Ark vantage point.
    pub open_queries: usize,
}

impl Default for CampaignLimits {
    fn default() -> Self {
        Self {
            lg_queries: 25,
            open_queries: 500,
        }
    }
}

/// Runs a targeted campaign: every vantage point probes every target (up
/// to its platform's limit), at the given measurement time.
pub fn run_campaign(
    engine: &dyn ProbeService,
    vps: &VpSet,
    vp_ids: &[VantagePointId],
    targets: &[Ipv4Addr],
    at_ms: u64,
    limits: &CampaignLimits,
) -> Vec<Trace> {
    let mut out = Vec::with_capacity(vp_ids.len() * targets.len().min(limits.open_queries));
    for id in vp_ids {
        let vp = &vps.vps[*id];
        let cap = match vp.platform {
            Platform::LookingGlass => limits.lg_queries,
            _ => limits.open_queries,
        };
        for target in targets.iter().take(cap) {
            out.push(engine.trace(vp, *target, at_ms));
        }
    }
    out
}

/// Simulates the archived daily sweeps of iPlane and Ark: each vantage
/// point traces toward `per_vp` random routed targets.
pub fn archived_sweep(
    engine: &dyn ProbeService,
    vps: &VpSet,
    platform: Platform,
    per_vp: usize,
    seed: u64,
) -> Vec<Trace> {
    let topo = engine.topology();
    let asns: Vec<_> = topo.ases.keys().copied().collect();
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    for id in vps.of_platform(platform) {
        let vp = &vps.vps[*id];
        for _ in 0..per_vp {
            let asn = asns[rng.random_range(0..asns.len())];
            let Ok(target) = topo.target_ip(asn) else {
                continue;
            };
            let at_ms = rng.random_range(0..86_400_000);
            out.push(engine.trace(vp, target, at_ms));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::platform::{deploy_vantage_points, VpConfig};
    use cfs_topology::{Topology, TopologyConfig};

    fn setup() -> (Topology, VpSet) {
        let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
        let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
        (topo, vps)
    }

    #[test]
    fn campaign_produces_trace_per_vp_target_pair() {
        let (topo, vps) = setup();
        let engine = Engine::new(&topo);
        let targets = vec![topo.target_ip(*topo.ases.keys().next().unwrap()).unwrap()];
        let atlas: Vec<_> = vps.of_platform(Platform::RipeAtlas).to_vec();
        let traces = run_campaign(
            &engine,
            &vps,
            &atlas,
            &targets,
            0,
            &CampaignLimits::default(),
        );
        assert_eq!(traces.len(), atlas.len());
    }

    #[test]
    fn lg_rate_limit_caps_queries() {
        let (topo, vps) = setup();
        let engine = Engine::new(&topo);
        let targets: Vec<Ipv4Addr> = topo
            .ases
            .keys()
            .take(40)
            .map(|a| topo.target_ip(*a).unwrap())
            .collect();
        let lgs: Vec<_> = vps.of_platform(Platform::LookingGlass).to_vec();
        let limits = CampaignLimits {
            lg_queries: 5,
            open_queries: 100,
        };
        let traces = run_campaign(&engine, &vps, &lgs, &targets, 0, &limits);
        assert_eq!(traces.len(), lgs.len() * 5);
    }

    #[test]
    fn archived_sweep_covers_many_targets() {
        let (topo, vps) = setup();
        let engine = Engine::new(&topo);
        let traces = archived_sweep(&engine, &vps, Platform::Ark, 10, 1);
        assert_eq!(traces.len(), vps.of_platform(Platform::Ark).len() * 10);
        let distinct: std::collections::BTreeSet<_> = traces.iter().map(|t| t.target).collect();
        assert!(distinct.len() > 5);
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let (topo, vps) = setup();
        let engine = Engine::new(&topo);
        let a = archived_sweep(&engine, &vps, Platform::IPlane, 5, 9);
        let b = archived_sweep(&engine, &vps, Platform::IPlane, 5, 9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.target, y.target);
            assert_eq!(x.hops, y.hops);
        }
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::engine::Engine;
    use crate::platform::{deploy_vantage_points, VpConfig};
    use cfs_topology::{Topology, TopologyConfig};

    #[test]
    fn parallel_campaign_matches_sequential_exactly() {
        let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
        let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
        let engine = Engine::new(&topo);
        let targets: Vec<Ipv4Addr> = topo
            .ases
            .keys()
            .take(3)
            .map(|a| topo.target_ip(*a).unwrap())
            .collect();
        let ids: Vec<_> = vps.ids().collect();
        let limits = CampaignLimits::default();
        let seq = run_campaign(&engine, &vps, &ids, &targets, 5, &limits);
        let par = run_campaign_parallel(&engine, &vps, &ids, &targets, 5, &limits);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.vp, b.vp);
            assert_eq!(a.target, b.target);
            assert_eq!(a.hops, b.hops);
        }
    }
}
