//! The traceroute / ping simulation engine.
//!
//! A probe toward a target resolves the destination AS from the (true)
//! BGP announcements, follows the valley-free AS path, and expands it to
//! a router-level path by hot-potato medium selection at each AS boundary
//! (the physically nearest of the adjacency's instantiations). Each
//! traversed router replies from its **ingress** interface — the detail
//! the whole paper hinges on: IXP fabric addresses show up on the
//! far-side member's router, and private point-to-point addresses may
//! belong to the neighbour's address space (§4.1).

use std::net::Ipv4Addr;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use cfs_bgp::RouteCache;
use cfs_geo::{fiber_rtt_ms, GeoPoint};
use cfs_net::IpAsnDb;
use cfs_topology::{IfaceKind, Medium, Topology};
use cfs_types::{Asn, IfaceId, RouterId};

use crate::platform::VantagePoint;

/// One traceroute hop: a reply source address (or `None` for `*`) and the
/// measured round-trip time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hop {
    /// Reply source, `None` when the router stayed silent or the reply
    /// was lost.
    pub ip: Option<Ipv4Addr>,
    /// Round-trip time in milliseconds.
    pub rtt_ms: f64,
}

/// A completed traceroute.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The issuing vantage point.
    pub vp: cfs_types::VantagePointId,
    /// Source AS.
    pub src_asn: Asn,
    /// Probe destination.
    pub target: Ipv4Addr,
    /// Wall-clock of the measurement (drives congestion episodes).
    pub at_ms: u64,
    /// Hop list, nearest first.
    pub hops: Vec<Hop>,
    /// Whether the destination answered.
    pub reached: bool,
}

/// Default probability that an individual reply is lost in transit.
const REPLY_LOSS: f64 = 0.015;

/// Default probability (percent) that a router is inside a congestion
/// episode in a given 10-minute slot.
const CONGESTION_P: u64 = 4;

/// Length of a congestion slot, ms.
const CONGESTION_SLOT_MS: u64 = 600_000;

/// The simulation engine. Cheap to share by reference; all methods take
/// `&self` and derive their randomness from call parameters, so traces
/// are reproducible and the engine is safe to use from many threads.
pub struct Engine<'t> {
    topo: &'t Topology,
    routes: RouteCache,
    db: IpAsnDb,
    seed: u64,
    paris: bool,
    reply_loss: f64,
    congestion_percent: u64,
}

impl<'t> Engine<'t> {
    /// Creates an engine over a topology (Paris traceroute semantics on).
    pub fn new(topo: &'t Topology) -> Self {
        Self {
            topo,
            routes: RouteCache::new(topo),
            db: topo.build_ipasn_db(),
            seed: topo.config.seed ^ 0x7ace_7005,
            paris: true,
            reply_loss: REPLY_LOSS,
            congestion_percent: CONGESTION_P,
        }
    }

    /// Overrides the per-reply loss probability (failure injection for
    /// robustness tests; default 1.5%).
    pub fn with_reply_loss(mut self, p: f64) -> Self {
        self.reply_loss = p.clamp(0.0, 1.0);
        self
    }

    /// Overrides the congestion-episode probability in percent (failure
    /// injection; default 4%).
    pub fn with_congestion_percent(mut self, percent: u64) -> Self {
        self.congestion_percent = percent.min(100);
        self
    }

    /// Disables Paris semantics: a fraction of intra-AS hops is replaced
    /// by unrelated interfaces, modelling the load-balancing artifacts
    /// classic traceroute suffers from \[9\]. Used by the ablation bench.
    pub fn without_paris(mut self) -> Self {
        self.paris = false;
        self
    }

    /// The underlying topology.
    pub fn topology(&self) -> &'t Topology {
        self.topo
    }

    /// Issues one traceroute.
    pub fn trace(&self, vp: &VantagePoint, target: Ipv4Addr, at_ms: u64) -> Trace {
        let mut rng = self.call_rng(vp, target, at_ms);
        let mut trace = Trace {
            vp: vp.id,
            src_asn: vp.asn,
            target,
            at_ms,
            hops: Vec::new(),
            reached: false,
        };

        let Some(dest_asn) = self.db.origin(target) else {
            // Unrouted space: probes die somewhere in the core.
            trace.hops.extend(
                [Hop {
                    ip: None,
                    rtt_ms: 0.0,
                }; 3],
            );
            return trace;
        };

        let routes = self.routes.routes(dest_asn);
        let Some(as_path) = routes.path(vp.asn) else {
            trace.hops.extend(
                [Hop {
                    ip: None,
                    rtt_ms: 0.0,
                }; 3],
            );
            return trace;
        };

        // Router-level expansion.
        let mut path: Vec<(RouterId, IfaceId)> = Vec::new();
        let mut current = vp.router;
        path.push((current, self.backbone_iface(current)));
        for win in as_path.windows(2) {
            let (x, y) = (win[0], win[1]);
            let Some((egress, ingress, ingress_iface)) =
                self.select_medium(x, y, self.topo.routers[current].coords, &mut rng)
            else {
                // Inconsistent adjacency (should not happen): truncate.
                trace.hops.push(Hop {
                    ip: None,
                    rtt_ms: 0.0,
                });
                return trace;
            };
            if egress != current {
                path.push((egress, self.backbone_iface(egress)));
            }
            path.push((ingress, ingress_iface));
            current = ingress;
        }

        // Emit hops with accumulated delay.
        let mut dist_km = 0.0;
        let mut prev: GeoPoint = vp.coords;
        for (idx, (router, iface)) in path.iter().enumerate() {
            let r = &self.topo.routers[*router];
            dist_km += prev.distance_km(r.coords);
            prev = r.coords;
            let rtt = fiber_rtt_ms(dist_km)
                + 0.05 * (idx + 1) as f64
                + rng.random::<f64>() * 0.8
                + self.congestion_ms(*router, at_ms);
            let responds = r.responds && !rng.random_bool(self.reply_loss);
            let mut ip = responds.then(|| self.topo.ifaces[*iface].ip);
            // Classic traceroute artifact injection (ablation mode).
            if !self.paris && ip.is_some() && rng.random_bool(0.05) {
                ip = Some(self.random_foreign_iface(r.asn, &mut rng));
            }
            trace.hops.push(Hop { ip, rtt_ms: rtt });
        }

        // The destination host itself (targets are verified-active, §5).
        let rtt = fiber_rtt_ms(dist_km) + 0.05 * (path.len() + 1) as f64 + rng.random::<f64>();
        trace.hops.push(Hop {
            ip: Some(target),
            rtt_ms: rtt,
        });
        trace.reached = true;
        trace
    }

    /// Issues one ping, returning the RTT (or `None` when the owner stays
    /// silent). Used by the remote-peering test: fabric addresses of
    /// remote peers answer from far away, and the reseller transport
    /// detours the probe through the exchange first.
    pub fn ping(&self, vp: &VantagePoint, target: Ipv4Addr, at_ms: u64) -> Option<f64> {
        let mut rng = self.call_rng(vp, target, at_ms);
        let iface = self.topo.iface_by_ip(target)?;
        let router_id = self.topo.ifaces[iface].router;
        let router = &self.topo.routers[router_id];
        if !router.responds || rng.random_bool(self.reply_loss) {
            return None;
        }
        // Fabric addresses are reached across the exchange: the probe
        // travels to the IXP first, then over the (possibly long) member
        // access circuit to the router.
        let dist = match self.topo.ifaces[iface].kind {
            IfaceKind::IxpFabric(ixp) => {
                let core_fac = self.topo.switches[self.topo.ixps[ixp].core].facility;
                let core_loc = self.topo.facilities[core_fac].location;
                vp.coords.distance_km(core_loc) + core_loc.distance_km(router.coords)
            }
            _ => vp.coords.distance_km(router.coords),
        };
        Some(
            fiber_rtt_ms(dist)
                + 0.1
                + rng.random::<f64>() * 0.8
                + self.congestion_ms(router_id, at_ms),
        )
    }

    /// The first backbone interface of a router (its intra-AS reply
    /// source).
    fn backbone_iface(&self, router: RouterId) -> IfaceId {
        self.topo.routers[router]
            .ifaces
            .iter()
            .copied()
            .find(|i| self.topo.ifaces[*i].kind == IfaceKind::Backbone)
            .unwrap_or_else(|| self.topo.routers[router].ifaces[0])
    }

    /// Hot-potato medium selection for the AS boundary `x → y`: of all
    /// physical instantiations, take the one whose egress router is
    /// nearest the probe's current position.
    fn select_medium(
        &self,
        x: Asn,
        y: Asn,
        here: GeoPoint,
        _rng: &mut ChaCha20Rng,
    ) -> Option<(RouterId, RouterId, IfaceId)> {
        let adj = self.topo.adjacency(x, y)?;
        let mut best: Option<(f64, (RouterId, RouterId, IfaceId))> = None;
        for medium in &adj.mediums {
            let Some(endpoints) = self.medium_endpoints(*medium, x, y, here) else {
                continue;
            };
            let d = here.distance_km(self.topo.routers[endpoints.0].coords);
            if best.as_ref().is_none_or(|(bd, _)| d < *bd) {
                best = Some((d, endpoints));
            }
        }
        best.map(|(_, e)| e)
    }

    /// Endpoints of a medium oriented from `x` into `y`:
    /// `(egress router of x, ingress router of y, ingress interface)`.
    ///
    /// For public peerings, members may hold several ports (dual-homed
    /// presence): `x` exits via the port nearest the probe, and the
    /// traffic enters `y` at the port *closest in the switch hierarchy*
    /// to `x`'s port — members on one access or backhaul switch exchange
    /// traffic locally (§4.4). Which of `y`'s fabric addresses traceroute
    /// reveals therefore encodes the switch topology.
    fn medium_endpoints(
        &self,
        medium: Medium,
        x: Asn,
        y: Asn,
        here: GeoPoint,
    ) -> Option<(RouterId, RouterId, IfaceId)> {
        match medium {
            Medium::Private(lid) => {
                let link = &self.topo.links[lid];
                if link.a.asn == x && link.b.asn == y {
                    Some((link.a.router, link.b.router, link.b.iface))
                } else if link.b.asn == x && link.a.asn == y {
                    Some((link.b.router, link.a.router, link.a.iface))
                } else {
                    None
                }
            }
            Medium::PublicIxp { ixp } => {
                let exchange = &self.topo.ixps[ixp];
                // x's port: hot potato from the probe's position.
                let mx = exchange
                    .members_of(x)
                    .min_by_key(|m| here.distance_km(self.topo.routers[m.router].coords) as u64)?;
                // y's port: switch proximity to x's port, geography as
                // tie-break.
                let my = exchange.members_of(y).min_by_key(|m| {
                    (
                        self.topo.switch_distance(mx.access_switch, m.access_switch),
                        self.topo.routers[mx.router]
                            .coords
                            .distance_km(self.topo.routers[m.router].coords)
                            as u64,
                    )
                })?;
                Some((mx.router, my.router, my.iface))
            }
        }
    }

    /// Congestion delay of a router in the 10-minute slot containing
    /// `at_ms` (0 for routers outside an episode).
    fn congestion_ms(&self, router: RouterId, at_ms: u64) -> f64 {
        let slot = at_ms / CONGESTION_SLOT_MS;
        let h = splitmix64(self.seed ^ (u64::from(router.raw()) << 20) ^ slot);
        if h % 100 < self.congestion_percent {
            5.0 + ((h >> 8) % 55) as f64
        } else {
            0.0
        }
    }

    /// An unrelated interface of the same AS — the classic-traceroute
    /// load-balancer artifact.
    fn random_foreign_iface(&self, asn: Asn, rng: &mut ChaCha20Rng) -> Ipv4Addr {
        let routers = &self.topo.ases[&asn].routers;
        let r = routers[rng.random_range(0..routers.len())];
        let iface = self.backbone_iface(r);
        self.topo.ifaces[iface].ip
    }

    fn call_rng(&self, vp: &VantagePoint, target: Ipv4Addr, at_ms: u64) -> ChaCha20Rng {
        let k = splitmix64(
            self.seed
                ^ (u64::from(vp.id.raw()) << 32)
                ^ u64::from(u32::from(target))
                ^ at_ms.rotate_left(17),
        );
        ChaCha20Rng::seed_from_u64(k)
    }
}

/// SplitMix64 — tiny, well-distributed hash for deriving per-call seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{deploy_vantage_points, VpConfig, VpSet};
    use cfs_topology::TopologyConfig;

    fn setup() -> (Topology, VpSet) {
        let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
        let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
        (topo, vps)
    }

    #[test]
    fn traces_reach_routed_targets() {
        let (topo, vps) = setup();
        let engine = Engine::new(&topo);
        let target = topo.target_ip(*topo.ases.keys().next().unwrap()).unwrap();
        let mut reached = 0;
        let total = vps.vps.len().min(40);
        for id in vps.ids().take(total) {
            let t = engine.trace(&vps.vps[id], target, 0);
            if t.reached {
                reached += 1;
                assert_eq!(t.hops.last().unwrap().ip, Some(target));
            }
        }
        assert!(reached * 10 >= total * 8, "only {reached}/{total} reached");
    }

    #[test]
    fn traces_are_deterministic() {
        let (topo, vps) = setup();
        let engine = Engine::new(&topo);
        let vp = &vps.vps[vps.ids().next().unwrap()];
        let target = topo.target_ip(*topo.ases.keys().last().unwrap()).unwrap();
        let a = engine.trace(vp, target, 42);
        let b = engine.trace(vp, target, 42);
        assert_eq!(a.hops, b.hops);
    }

    #[test]
    fn rtt_is_monotonic_without_congestion_modulo_jitter() {
        let (topo, vps) = setup();
        let engine = Engine::new(&topo);
        let vp = &vps.vps[vps.ids().next().unwrap()];
        let target = topo.target_ip(*topo.ases.keys().last().unwrap()).unwrap();
        let t = engine.trace(vp, target, 7);
        // RTTs grow along the path except for jitter/congestion wiggle.
        let first = t.hops.first().unwrap().rtt_ms;
        let last = t.hops.last().unwrap().rtt_ms;
        assert!(last + 80.0 >= first, "first {first} last {last}");
    }

    #[test]
    fn unrouted_targets_die_with_stars() {
        let (topo, vps) = setup();
        let engine = Engine::new(&topo);
        let vp = &vps.vps[vps.ids().next().unwrap()];
        let t = engine.trace(vp, "203.0.113.7".parse().unwrap(), 0);
        assert!(!t.reached);
        assert!(t.hops.iter().all(|h| h.ip.is_none()));
    }

    #[test]
    fn fabric_addresses_appear_in_public_crossings() {
        let (topo, vps) = setup();
        let engine = Engine::new(&topo);
        // Trace from many VPs to many targets; at least one public
        // crossing must surface an IXP fabric address.
        let targets: Vec<Ipv4Addr> = topo
            .ases
            .keys()
            .take(30)
            .map(|a| topo.target_ip(*a).unwrap())
            .collect();
        let mut fabric_seen = false;
        'outer: for id in vps.ids() {
            for target in &targets {
                let t = engine.trace(&vps.vps[id], *target, 0);
                if t.hops
                    .iter()
                    .any(|h| h.ip.is_some_and(|ip| topo.ixp_of_ip(ip).is_some()))
                {
                    fabric_seen = true;
                    break 'outer;
                }
            }
        }
        assert!(fabric_seen, "no IXP fabric address ever observed");
    }

    #[test]
    fn ping_remote_member_is_slower_than_local() {
        let (topo, vps) = setup();
        let engine = Engine::new(&topo);
        let vp = &vps.vps[vps.ids().next().unwrap()];

        let mut local_rtt = None;
        let mut remote_rtt = None;
        for ixp in topo.ixps.values() {
            for m in &ixp.members {
                let min_rtt = (0..5)
                    .filter_map(|i| engine.ping(vp, m.fabric_ip, i * CONGESTION_SLOT_MS))
                    .fold(f64::INFINITY, f64::min);
                if !min_rtt.is_finite() {
                    continue;
                }
                // Compare members of the *same* exchange where possible.
                if m.remote_via.is_some() && remote_rtt.is_none() {
                    let far = topo.routers[m.router].coords;
                    let core_fac = topo.switches[ixp.core].facility;
                    let core = topo.facilities[core_fac].location;
                    if core.distance_km(far) > 500.0 {
                        remote_rtt = Some((min_rtt, core.distance_km(far)));
                    }
                } else if m.remote_via.is_none() && local_rtt.is_none() {
                    local_rtt = Some(min_rtt);
                }
            }
        }
        if let (Some(_), Some((remote, dist))) = (local_rtt, remote_rtt) {
            // The remote detour adds at least the propagation floor.
            assert!(
                remote >= fiber_rtt_ms(dist) * 0.9,
                "remote rtt {remote} for {dist} km"
            );
        }
    }

    #[test]
    fn ping_unknown_address_is_none() {
        let (topo, vps) = setup();
        let engine = Engine::new(&topo);
        let vp = &vps.vps[vps.ids().next().unwrap()];
        assert_eq!(engine.ping(vp, "198.18.0.1".parse().unwrap(), 0), None);
    }

    #[test]
    fn non_paris_mode_injects_artifacts() {
        let (topo, vps) = setup();
        let paris = Engine::new(&topo);
        let classic = Engine::new(&topo).without_paris();
        let targets: Vec<Ipv4Addr> = topo
            .ases
            .keys()
            .take(20)
            .map(|a| topo.target_ip(*a).unwrap())
            .collect();
        let mut differs = false;
        for id in vps.ids().take(30) {
            for target in &targets {
                let a = paris.trace(&vps.vps[id], *target, 0);
                let b = classic.trace(&vps.vps[id], *target, 0);
                if a.hops.iter().zip(&b.hops).any(|(x, y)| x.ip != y.ip) {
                    differs = true;
                }
            }
        }
        assert!(differs, "classic mode never produced an artifact");
    }

    #[test]
    fn hop_count_is_bounded() {
        let (topo, vps) = setup();
        let engine = Engine::new(&topo);
        for id in vps.ids().take(50) {
            for asn in topo.ases.keys().take(20) {
                let t = engine.trace(&vps.vps[id], topo.target_ip(*asn).unwrap(), 0);
                assert!(t.hops.len() <= 30, "path too long: {}", t.hops.len());
            }
        }
    }
}
