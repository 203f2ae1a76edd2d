//! Remote-peering inference (§4.2 Step 2 case 3, after Castro et al.
//! [14]): when an AS shares no facility with the exchange it peers at,
//! confirm remoteness by measuring the RTT floor to the fabric address
//! from vantage points near the exchange — "multiple measurements taken
//! at different times of the day to avoid temporarily elevated RTT values
//! due to congestion".

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use cfs_chaos::{backoff_delay_ms, MAX_RETRIES};
use cfs_geo::fiber_rtt_ms;
use cfs_obs::{Recorder, NOOP};
use cfs_traceroute::{ProbeService, VantagePoint, VpSet};
use cfs_types::{IxpId, VantagePointId};

/// Spacing between repeated measurements: beyond the congestion episode
/// length, so one bad slot cannot poison every sample.
const SAMPLE_SPACING_MS: u64 = 3_600_000; // one hour

/// Number of repeated measurements per vantage point.
const SAMPLES: u64 = 4;

/// Vantage points ranked per exchange: the nearest responsive one
/// decides.
const NEAREST: usize = 3;

/// Slack added on top of the local propagation bound before declaring a
/// port remote (accounts for queueing and access-circuit detours).
const REMOTE_SLACK_MS: f64 = 6.0;

/// RTT-based remote-peering detector.
pub struct RemoteTester<'a> {
    engine: &'a dyn ProbeService,
    vps: &'a VpSet,
    recorder: &'a dyn Recorder,
    retry_seed: u64,
    down: Option<&'a BTreeSet<VantagePointId>>,
}

impl<'a> RemoteTester<'a> {
    /// Creates a tester over the measurement platforms.
    pub fn new(engine: &'a dyn ProbeService, vps: &'a VpSet) -> Self {
        Self {
            engine,
            vps,
            recorder: &NOOP,
            retry_seed: 0,
            down: None,
        }
    }

    /// Excludes the given vantage points from the measurement pool (a
    /// `VpStatusChange` delta marks platforms administratively down).
    /// The verdict stays a pure function of `(ixp, ip, down-set)`, so a
    /// resident session and a fresh run built with the same exclusions
    /// agree byte-for-byte.
    pub fn excluding(mut self, down: &'a BTreeSet<VantagePointId>) -> Self {
        self.down = Some(down);
        self
    }

    /// Attaches a recorder: every [`RemoteTester::is_remote`] call then
    /// counts its test and verdict. Recording is per tested address, so
    /// the totals are chunking-independent (DESIGN.md §7).
    pub fn recorded(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Seeds the backoff jitter of retried pings: from `seed`, never
    /// from ambient randomness (DESIGN.md §9).
    pub fn retrying(mut self, seed: u64) -> Self {
        self.retry_seed = seed;
        self
    }

    /// One RTT sample with deterministic retry-on-silence: an unanswered
    /// ping is re-issued after an exponential backoff delay, so transient
    /// loss (rate-limit episodes, timeout blips) does not starve the
    /// remote-peering test.
    fn sample(&self, vp: &VantagePoint, target: Ipv4Addr, at_ms: u64) -> Option<f64> {
        if let Some(rtt) = self.engine.ping(vp, target, at_ms) {
            return Some(rtt);
        }
        let seed = self.retry_seed ^ u64::from(u32::from(target)).rotate_left(17) ^ at_ms;
        for attempt in 1..=MAX_RETRIES {
            self.recorder.counter("remote.retries", 1);
            let t = at_ms + backoff_delay_ms(seed, attempt);
            if let Some(rtt) = self.engine.ping(vp, target, t) {
                return Some(rtt);
            }
        }
        None
    }

    /// The nearest vantage points to the exchange's core facility.
    fn nearest_vps(&self, ixp: IxpId, count: usize) -> Vec<(VantagePointId, f64)> {
        let topo = self.engine.topology();
        let core_fac = topo.switches[topo.ixps[ixp].core].facility;
        let core = topo.facilities[core_fac].location;
        let mut scored: Vec<(VantagePointId, f64)> = self
            .vps
            .vps
            .iter()
            .filter(|(id, _)| self.down.is_none_or(|down| !down.contains(id)))
            .map(|(id, vp)| (id, vp.coords.distance_km(core)))
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(count);
        scored
    }

    /// Tests whether the member behind `fabric_ip` peers remotely at
    /// `ixp`. Returns `None` when no measurement succeeded (silent
    /// router, no vantage points).
    pub fn is_remote(&self, ixp: IxpId, fabric_ip: Ipv4Addr) -> Option<bool> {
        self.measure(fabric_ip, &self.nearest_vps(ixp, NEAREST))
    }

    /// [`RemoteTester::is_remote`] from the exchange's ranking: its
    /// [`NEAREST`] vantage points, nearest first, with their distances.
    fn measure(&self, fabric_ip: Ipv4Addr, ranking: &[(VantagePointId, f64)]) -> Option<bool> {
        self.recorder.counter("remote.tests", 1);
        let mut verdict = None;
        for (vp_id, dist_km) in ranking {
            let vp = &self.vps.vps[*vp_id];
            let min_rtt = (0..SAMPLES)
                .filter_map(|k| self.sample(vp, fabric_ip, 1 + k * SAMPLE_SPACING_MS))
                .fold(f64::INFINITY, f64::min);
            if !min_rtt.is_finite() {
                continue;
            }
            // The local bound: reach the exchange, cross the metro fabric.
            let local_bound = fiber_rtt_ms(*dist_km) + REMOTE_SLACK_MS;
            verdict = Some(min_rtt > local_bound);
            break; // nearest responsive vantage point decides
        }
        let outcome = match verdict {
            Some(true) => "remote.verdict_remote",
            Some(false) => "remote.verdict_local",
            None => "remote.verdict_unknown",
        };
        self.recorder.counter(outcome, 1);
        verdict
    }
}

/// Each tested exchange's ranking of its [`NEAREST`] vantage points,
/// computed once under one down set. A remote test otherwise scores and
/// sorts every vantage point for every tested address; the ranking is a
/// pure function of the exchange, the vantage points and the down set,
/// so the holder clears it whenever the down set changes.
#[derive(Default)]
pub(crate) struct Rankings(BTreeMap<IxpId, Vec<(VantagePointId, f64)>>);

impl Rankings {
    /// Ranks `ixp` through `tester` unless already ranked.
    pub(crate) fn rank(&mut self, tester: &RemoteTester<'_>, ixp: IxpId) {
        self.0
            .entry(ixp)
            .or_insert_with(|| tester.nearest_vps(ixp, NEAREST));
    }

    /// [`RemoteTester::is_remote`] through the ranking of `ixp`, which
    /// must be ranked under the tester's down set.
    pub(crate) fn is_remote(
        &self,
        tester: &RemoteTester<'_>,
        ixp: IxpId,
        fabric_ip: Ipv4Addr,
    ) -> Option<bool> {
        tester.measure(fabric_ip, &self.0[&ixp])
    }

    /// Forgets every ranking (the down set changed).
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_topology::{Topology, TopologyConfig};
    use cfs_traceroute::{deploy_vantage_points, Engine, VpConfig};

    fn setup() -> Topology {
        Topology::generate(TopologyConfig::tiny()).unwrap()
    }

    #[test]
    fn remote_members_flagged_locals_cleared() {
        let topo = setup();
        let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
        let engine = Engine::new(&topo);
        let tester = RemoteTester::new(&engine, &vps);

        let mut checked_remote = 0usize;
        let mut correct_remote = 0usize;
        let mut checked_local = 0usize;
        let mut correct_local = 0usize;

        for (id, ixp) in topo.ixps.iter() {
            for m in &ixp.members {
                let Some(verdict) = tester.is_remote(id, m.fabric_ip) else {
                    continue;
                };
                // Ground truth: remote membership via reseller, with the
                // router genuinely far from the exchange.
                let core = topo.facilities[topo.switches[ixp.core].facility].location;
                let far = topo.routers[m.router].coords.distance_km(core) > 400.0;
                if m.remote_via.is_some() && far {
                    checked_remote += 1;
                    correct_remote += usize::from(verdict);
                } else if m.remote_via.is_none() {
                    checked_local += 1;
                    correct_local += usize::from(!verdict);
                }
            }
        }

        assert!(checked_local > 0, "no local members tested");
        assert!(
            correct_local * 10 >= checked_local * 9,
            "local false-positive rate too high: {correct_local}/{checked_local}"
        );
        if checked_remote > 0 {
            assert!(
                correct_remote * 10 >= checked_remote * 8,
                "remote recall too low: {correct_remote}/{checked_remote}"
            );
        }
    }

    #[test]
    fn retries_preserve_verdict_coverage_under_transient_loss() {
        use std::sync::atomic::{AtomicU64, Ordering};

        use cfs_chaos::{FaultPlan, FaultProfile};
        use cfs_traceroute::ChaosEngine;

        #[derive(Default)]
        struct Retries(AtomicU64);
        impl Recorder for Retries {
            fn counter(&self, name: &'static str, delta: u64) {
                if name == "remote.retries" {
                    self.0.fetch_add(delta, Ordering::Relaxed);
                }
            }
        }

        let topo = setup();
        let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
        let clean = Engine::new(&topo);
        let noisy = ChaosEngine::new(
            Engine::new(&topo),
            FaultPlan::new(
                9,
                FaultProfile {
                    probe_timeout_pm: 400,
                    ..FaultProfile::off()
                },
            ),
        );
        let rec = Retries::default();
        let retried = RemoteTester::new(&noisy, &vps).recorded(&rec).retrying(9);

        let baseline = RemoteTester::new(&clean, &vps);
        let mut clean_verdicts = 0usize;
        let mut noisy_verdicts = 0usize;
        let mut tested = 0usize;
        for (id, ixp) in topo.ixps.iter() {
            for m in &ixp.members {
                tested += 1;
                clean_verdicts += usize::from(baseline.is_remote(id, m.fabric_ip).is_some());
                noisy_verdicts += usize::from(retried.is_remote(id, m.fabric_ip).is_some());
            }
        }
        assert!(tested > 0);
        assert!(rec.0.load(Ordering::Relaxed) > 0, "no retries were issued");
        // 40% per-probe transient loss with exponential-backoff retries
        // must not collapse verdict coverage.
        assert!(
            noisy_verdicts * 10 >= clean_verdicts * 9,
            "coverage collapsed: {noisy_verdicts}/{clean_verdicts} of {tested}"
        );
    }

    #[test]
    fn memoized_rankings_equal_a_fresh_ranking_per_exchange() {
        let topo = setup();
        let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
        let engine = Engine::new(&topo);
        // The nearest vantage point of the first exchange goes down, so
        // the down set reorders at least that ranking.
        let first = topo.ixps.ids().next().unwrap();
        let nearest = RemoteTester::new(&engine, &vps).nearest_vps(first, NEAREST)[0].0;
        let down = BTreeSet::from([nearest]);
        let mut rankings = Rankings::default();
        for down in [None, Some(&down)] {
            rankings.clear();
            let mut tester = RemoteTester::new(&engine, &vps);
            if let Some(down) = down {
                tester = tester.excluding(down);
            }
            for round in 0..2 {
                for ixp in topo.ixps.ids() {
                    rankings.rank(&tester, ixp);
                    assert_eq!(
                        rankings.0[&ixp],
                        tester.nearest_vps(ixp, NEAREST),
                        "{ixp:?} round {round} down {down:?}"
                    );
                }
            }
            assert_eq!(
                rankings.0[&first].iter().any(|(vp, _)| *vp == nearest),
                down.is_none()
            );
            for (id, ixp) in topo.ixps.iter() {
                for m in &ixp.members {
                    assert_eq!(
                        rankings.is_remote(&tester, id, m.fabric_ip),
                        tester.is_remote(id, m.fabric_ip)
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_address_yields_no_verdict() {
        let topo = setup();
        let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
        let engine = Engine::new(&topo);
        let tester = RemoteTester::new(&engine, &vps);
        let ixp = topo.ixps.ids().next().unwrap();
        assert_eq!(tester.is_remote(ixp, "198.18.0.1".parse().unwrap()), None);
    }
}
