//! The probe-plane abstraction: [`ProbeService`] is the narrow trait the
//! search consumes instead of the concrete [`Engine`], and
//! [`ChaosEngine`] is the fault-injecting implementation that perturbs a
//! clean engine according to a [`FaultPlan`].
//!
//! The search never learns which implementation it is talking to — that
//! is the point. Fault decisions are pure functions of the plan seed and
//! the probe identity (see `cfs-chaos`), so a `ChaosEngine` keeps every
//! determinism guarantee the clean engine makes: same seed, same plan,
//! same trace, from any thread.

use std::net::Ipv4Addr;

use cfs_chaos::FaultPlan;
use cfs_topology::Topology;

use crate::engine::{Engine, Trace};
use crate::platform::VantagePoint;

/// What the measurement plane owes the search: traceroutes, pings, and
/// the topology handle the search uses for geometry (VP distances, IXP
/// coordinates). `Sync` because the search fans probes out over scoped
/// worker threads.
pub trait ProbeService: Sync {
    /// The underlying topology (geometry only — implementations must not
    /// leak measurement shortcuts through it).
    fn topology(&self) -> &Topology;

    /// Issues one traceroute from `vp` toward `target` at virtual time
    /// `at_ms`.
    fn trace(&self, vp: &VantagePoint, target: Ipv4Addr, at_ms: u64) -> Trace;

    /// Issues one ping; `None` when no reply came back.
    fn ping(&self, vp: &VantagePoint, target: Ipv4Addr, at_ms: u64) -> Option<f64>;
}

impl ProbeService for Engine<'_> {
    fn topology(&self) -> &Topology {
        Engine::topology(self)
    }

    fn trace(&self, vp: &VantagePoint, target: Ipv4Addr, at_ms: u64) -> Trace {
        Engine::trace(self, vp, target, at_ms)
    }

    fn ping(&self, vp: &VantagePoint, target: Ipv4Addr, at_ms: u64) -> Option<f64> {
        Engine::ping(self, vp, target, at_ms)
    }
}

/// A boxed service is a service, so wrappers such as `ScheduledEngine`
/// layer over a stack chosen at run time.
impl<P: ProbeService + ?Sized> ProbeService for Box<P> {
    fn topology(&self) -> &Topology {
        (**self).topology()
    }

    fn trace(&self, vp: &VantagePoint, target: Ipv4Addr, at_ms: u64) -> Trace {
        (**self).trace(vp, target, at_ms)
    }

    fn ping(&self, vp: &VantagePoint, target: Ipv4Addr, at_ms: u64) -> Option<f64> {
        (**self).ping(vp, target, at_ms)
    }
}

/// A fault-injecting [`ProbeService`]: wraps a clean [`Engine`] and lies
/// to the caller exactly as the [`FaultPlan`] dictates — VP outages and
/// transient timeouts suppress whole probes, persistently silent and
/// rate-limited routers blank individual hops, and a slice of traces is
/// truncated or caught in a forwarding loop.
pub struct ChaosEngine<'t> {
    inner: Engine<'t>,
    plan: FaultPlan,
}

impl<'t> ChaosEngine<'t> {
    /// Wraps `inner`, perturbing it per `plan`.
    pub fn new(inner: Engine<'t>, plan: FaultPlan) -> Self {
        Self { inner, plan }
    }

    /// The plan in effect.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped clean engine.
    pub fn inner(&self) -> &Engine<'t> {
        &self.inner
    }

    fn vp_key(vp: &VantagePoint) -> u64 {
        vp.id.raw() as u64
    }

    fn ip_key(ip: Ipv4Addr) -> u64 {
        u64::from(u32::from(ip))
    }
}

impl ProbeService for ChaosEngine<'_> {
    fn topology(&self) -> &Topology {
        self.inner.topology()
    }

    fn trace(&self, vp: &VantagePoint, target: Ipv4Addr, at_ms: u64) -> Trace {
        if self.plan.is_off() {
            return self.inner.trace(vp, target, at_ms);
        }
        let vpk = Self::vp_key(vp);
        let tk = Self::ip_key(target);
        if self.plan.vp_down(vpk, at_ms) || self.plan.probe_timeout(vpk, tk, at_ms) {
            // The probe never produced data: a dark VP or a lost probe
            // both look like an empty, unreached trace to the caller.
            return Trace {
                vp: vp.id,
                src_asn: vp.asn,
                target,
                at_ms,
                hops: Vec::new(),
                reached: false,
            };
        }
        let mut t = self.inner.trace(vp, target, at_ms);
        for (i, hop) in t.hops.iter_mut().enumerate() {
            let Some(ip) = hop.ip else { continue };
            let rk = Self::ip_key(ip);
            let probe = vpk ^ tk.rotate_left(21) ^ ((i as u64) << 40) ^ at_ms;
            if self.plan.router_silent(rk) || self.plan.rate_limited(rk, probe, at_ms) {
                hop.ip = None;
                hop.rtt_ms = 0.0;
            }
        }
        if let Some(k) = self.plan.truncate_len(vpk, tk, at_ms, t.hops.len()) {
            t.hops.truncate(k);
            t.reached = false;
        } else if let Some((start, reps)) = self.plan.loop_segment(vpk, tk, at_ms, t.hops.len()) {
            // A forwarding loop: the tail past `start` repeats until the
            // probe's TTL budget runs out; the destination never answers.
            let end = (start + 4).min(t.hops.len());
            let seg: Vec<_> = t.hops[start..end].to_vec();
            t.hops.truncate(end);
            for _ in 0..reps {
                t.hops.extend_from_slice(&seg);
            }
            t.reached = false;
        }
        t
    }

    fn ping(&self, vp: &VantagePoint, target: Ipv4Addr, at_ms: u64) -> Option<f64> {
        if !self.plan.is_off() {
            let vpk = Self::vp_key(vp);
            let tk = Self::ip_key(target);
            if self.plan.vp_down(vpk, at_ms) || self.plan.probe_timeout(vpk, tk, at_ms) {
                return None;
            }
            // The reply source is the target's router (fabric detours
            // included): persistent silence and rate limiting key on it.
            if self.plan.router_silent(tk) || self.plan.rate_limited(tk, vpk ^ at_ms, at_ms) {
                return None;
            }
        }
        self.inner.ping(vp, target, at_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{deploy_vantage_points, VpConfig, VpSet};
    use cfs_chaos::FaultProfile;
    use cfs_topology::TopologyConfig;

    fn setup() -> (Topology, VpSet) {
        let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
        let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
        (topo, vps)
    }

    fn targets(topo: &Topology, n: usize) -> Vec<Ipv4Addr> {
        topo.ases
            .keys()
            .take(n)
            .map(|a| topo.target_ip(*a).unwrap())
            .collect()
    }

    #[test]
    fn off_plan_is_transparent() {
        let (topo, vps) = setup();
        let clean = Engine::new(&topo);
        let chaos = ChaosEngine::new(Engine::new(&topo), FaultPlan::new(1, FaultProfile::off()));
        let vp = vps.vps.values().next().unwrap();
        for target in targets(&topo, 5) {
            let a = ProbeService::trace(&clean, vp, target, 0);
            let b = chaos.trace(vp, target, 0);
            assert_eq!(a.hops, b.hops);
            assert_eq!(a.reached, b.reached);
            assert_eq!(clean.ping(vp, target, 7), chaos.ping(vp, target, 7));
        }
    }

    #[test]
    fn chaos_traces_are_deterministic() {
        let (topo, vps) = setup();
        let plan = FaultPlan::new(9, FaultProfile::flaky());
        let a_eng = ChaosEngine::new(Engine::new(&topo), plan);
        let b_eng = ChaosEngine::new(Engine::new(&topo), plan);
        for vp in vps.vps.values().take(8) {
            for target in targets(&topo, 4) {
                let a = a_eng.trace(vp, target, 1234);
                let b = b_eng.trace(vp, target, 1234);
                assert_eq!(a.hops, b.hops);
                assert_eq!(a.reached, b.reached);
            }
        }
    }

    #[test]
    fn heavy_loss_suppresses_most_probes() {
        let (topo, vps) = setup();
        let plan = FaultPlan::new(3, FaultProfile::probe_loss(950));
        let eng = ChaosEngine::new(Engine::new(&topo), plan);
        let mut empty = 0usize;
        let mut total = 0usize;
        for vp in vps.vps.values().take(10) {
            for target in targets(&topo, 5) {
                total += 1;
                if eng.trace(vp, target, 0).hops.is_empty() {
                    empty += 1;
                }
            }
        }
        assert!(empty * 10 > total * 8, "{empty}/{total} empty at 95% loss");
    }

    #[test]
    fn persistent_silence_blanks_the_same_router_everywhere() {
        let (topo, vps) = setup();
        let plan = FaultPlan::new(
            5,
            FaultProfile {
                router_silent_pm: 300,
                ..FaultProfile::off()
            },
        );
        let eng = ChaosEngine::new(Engine::new(&topo), plan);
        // Every surviving hop IP must be one the plan considers alive.
        for vp in vps.vps.values().take(10) {
            for target in targets(&topo, 5) {
                for hop in eng.trace(vp, target, 99).hops {
                    if let Some(ip) = hop.ip {
                        assert!(!plan.router_silent(u64::from(u32::from(ip))));
                    }
                }
            }
        }
    }

    #[test]
    fn dark_vp_stays_dark_for_the_whole_window() {
        let (topo, vps) = setup();
        let plan = FaultPlan::new(
            2,
            FaultProfile {
                vp_outage_pm: 400,
                outage_window_ms: 100_000,
                ..FaultProfile::off()
            },
        );
        let eng = ChaosEngine::new(Engine::new(&topo), plan);
        let target = targets(&topo, 1)[0];
        let dark = vps
            .vps
            .values()
            .find(|vp| plan.vp_down(vp.id.raw() as u64, 0))
            .expect("some VP in outage");
        for at in [0, 10_000, 99_999] {
            assert!(eng.trace(dark, target, at).hops.is_empty());
            assert_eq!(eng.ping(dark, target, at), None);
        }
    }
}
