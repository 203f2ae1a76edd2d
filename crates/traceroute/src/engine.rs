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

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use parking_lot::RwLock;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use cfs_bgp::{RouteCache, Walk};
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
#[derive(Clone, Debug, PartialEq)]
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

/// Traceroute's default maximum TTL. Generated paths stay far below it
/// (at most 12 hops at paper scale); a longer one would end like a
/// broken path, in one `*`.
const MAX_TTL: usize = 30;

/// The simulation engine. Cheap to share by reference; all methods take
/// `&self` and derive their randomness from call parameters, so traces
/// are reproducible and the engine is safe to use from many threads.
///
/// It holds interior state, each part filled on first use: per-destination
/// routes, and the step table's compiled crossings. A slot per (router,
/// next AS) points into an append-only arena of crossings, which hold
/// the hops and fiber of that AS boundary, so a probe is a walk over the
/// route and the arena that draws only its per-probe randomness. Both
/// are pure functions of the topology, so what an engine has already
/// answered never changes what it answers next.
pub struct Engine<'t> {
    topo: &'t Topology,
    routes: RouteCache,
    steps: StepTable,
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
            steps: StepTable::new(topo),
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
        let trace = |hops, reached| Trace {
            vp: vp.id,
            src_asn: vp.asn,
            target,
            at_ms,
            hops,
            reached,
        };
        let star = Hop {
            ip: None,
            rtt_ms: 0.0,
        };
        // Unrouted space, or no route: probes die somewhere in the core.
        let Some(dest_asn) = self.db.origin(target) else {
            return trace(vec![star; 3], false);
        };
        let routes = self.routes.routes(dest_asn);
        let Some(walk) = routes.walk(vp.asn) else {
            return trace(vec![star; 3], false);
        };
        let mut legs = [NO_LEG; MAX_TTL - 1];
        // Inconsistent adjacency (should not happen): truncate.
        let Some(n) = self.legs(vp, walk, &mut legs) else {
            return trace(vec![star], false);
        };

        // Emit hops with accumulated delay.
        let mut rng = self.call_rng(vp, target, at_ms);
        let legs = &legs[..n];
        let mut hops = Vec::with_capacity(legs.len() + 1);
        let mut dist_km = 0.0;
        for (idx, leg) in legs.iter().enumerate() {
            let r = &self.topo.routers[leg.router];
            dist_km += leg.km;
            let rtt = fiber_rtt_ms(dist_km)
                + 0.05 * (idx + 1) as f64
                + rng.random::<f64>() * 0.8
                + self.congestion_ms(leg.router, at_ms);
            let responds = r.responds && !rng.random_bool(self.reply_loss);
            let mut ip = responds.then(|| self.topo.ifaces[leg.iface].ip);
            // Classic traceroute artifact injection (ablation mode).
            if !self.paris && ip.is_some() && rng.random_bool(0.05) {
                ip = Some(self.random_foreign_iface(r.asn, &mut rng));
            }
            hops.push(Hop { ip, rtt_ms: rtt });
        }

        // The destination host itself (targets are verified-active, §5).
        let rtt = fiber_rtt_ms(dist_km) + 0.05 * (legs.len() + 1) as f64 + rng.random::<f64>();
        hops.push(Hop {
            ip: Some(target),
            rtt_ms: rtt,
        });
        trace(hops, true)
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

    /// Writes the router-level path of a probe from `vp` through the ASes
    /// of `walk` into `legs`, with the fiber each hop adds, and returns
    /// its length: the vantage point's router, then per AS boundary the
    /// egress router (when the probe stands elsewhere in its AS) and the
    /// far AS's ingress router. `None` when a boundary has no medium, or
    /// the path outgrows `legs`.
    fn legs(&self, vp: &VantagePoint, walk: Walk<'_>, legs: &mut [Leg]) -> Option<usize> {
        let mut n = 0;
        let mut push = |router, iface, km| {
            *legs.get_mut(n)? = Leg { router, iface, km };
            n += 1;
            Some(())
        };
        let home = &self.topo.routers[vp.router];
        // Every vantage point sits on its router: no fiber to the first hop.
        let km = if vp.coords == home.coords {
            0.0
        } else {
            vp.coords.distance_km(home.coords)
        };
        push(vp.router, self.steps.row(vp.router).backbone, km)?;
        let mut current = vp.router;
        let mut compiled = self.steps.compiled.read();
        for y in walk {
            let slot = self.steps.slot(current, y)?;
            let mut entry = compiled.slots[slot];
            if entry == UNFILLED {
                drop(compiled);
                entry = self.fill(slot, current, y);
                compiled = self.steps.compiled.read();
            }
            if entry == NO_MEDIUM {
                return None;
            }
            let c = compiled.arena[entry as usize - 1];
            if c.egress != current {
                push(c.egress, c.egress_iface, c.to_egress_km)?;
            }
            push(c.ingress, c.ingress_iface, c.to_ingress_km)?;
            current = c.ingress;
        }
        Some(n)
    }

    /// Compiles the crossing of step-table slot `(current, y)` and files
    /// it, returning the slot's entry. The slot is re-checked under the
    /// write lock, so two workers racing to fill it append one crossing.
    fn fill(&self, slot: usize, current: RouterId, y: Asn) -> u32 {
        let crossing = self.crossing(current, y);
        #[cfg(test)]
        self.steps
            .computed
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut compiled = self.steps.compiled.write();
        if compiled.slots[slot] == UNFILLED {
            compiled.slots[slot] = match crossing {
                Some(c) => {
                    compiled.arena.push(c);
                    compiled.arena.len() as u32
                }
                None => NO_MEDIUM,
            };
        }
        compiled.slots[slot]
    }

    /// The crossing into AS `y` of a probe standing on `current`:
    /// [`Self::select_medium`] from there, with the hops it adds and
    /// their fiber.
    fn crossing(&self, current: RouterId, y: Asn) -> Option<Crossing> {
        let here = &self.topo.routers[current];
        let (egress, ingress_iface) = self.select_medium(here.asn, y, here.coords)?;
        let ingress = self.topo.ifaces[ingress_iface].router;
        let at_egress = self.topo.routers[egress].coords;
        Some(Crossing {
            egress,
            egress_iface: self.steps.row(egress).backbone,
            ingress,
            ingress_iface,
            to_egress_km: here.coords.distance_km(at_egress),
            to_ingress_km: at_egress.distance_km(self.topo.routers[ingress].coords),
        })
    }

    /// Hot-potato medium selection for the AS boundary `x → y`: of all
    /// physical instantiations, take the one whose egress router is
    /// nearest the probe's current position.
    fn select_medium(&self, x: Asn, y: Asn, here: GeoPoint) -> Option<(RouterId, IfaceId)> {
        let adj = self.topo.adjacency(x, y)?;
        let mut best: Option<(f64, (RouterId, IfaceId))> = None;
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
    /// `(egress router of x, ingress interface of y)`.
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
    ) -> Option<(RouterId, IfaceId)> {
        match medium {
            Medium::Private(lid) => {
                let link = &self.topo.links[lid];
                if link.a.asn == x && link.b.asn == y {
                    Some((link.a.router, link.b.iface))
                } else if link.b.asn == x && link.a.asn == y {
                    Some((link.b.router, link.a.iface))
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
                Some((mx.router, my.iface))
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
        self.topo.ifaces[self.steps.row(r).backbone].ip
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

/// A step-table slot nobody has computed yet.
const UNFILLED: u32 = 0;

/// A step-table slot whose crossing has no usable medium.
const NO_MEDIUM: u32 = u32::MAX;

/// Compiled crossings keyed by (current router, next AS).
///
/// The hot-potato choice at a boundary `x → y` depends only on where the
/// probe stands (a router of `x`) and on `y`, so every router gets one
/// row with a slot per neighbour of its AS. All slots live in one
/// zero-filled allocation made up front, so pages no probe reaches are
/// never touched. A slot holds its crossing's position in the arena plus
/// one, and the arena grows only with the crossings probes take.
struct StepTable {
    /// Per router: its row's first slot, its AS's range in `next`, and
    /// its backbone interface.
    rows: Vec<Row>,
    /// Every AS's neighbours, sorted, one run per AS.
    next: Vec<Asn>,
    compiled: RwLock<Compiled>,
    /// Crossings compiled, to pin compute-once in tests.
    #[cfg(test)]
    computed: std::sync::atomic::AtomicUsize,
}

/// The step table's slots and the crossings they point at, under one
/// lock so a probe reads both with one acquisition.
struct Compiled {
    /// Arena position + 1, or [`UNFILLED`] / [`NO_MEDIUM`].
    slots: Vec<u32>,
    /// Append-only: a filled slot's position never moves.
    arena: Vec<Crossing>,
}

/// What a probe standing on a router adds to its path when it crosses
/// into the next AS.
#[derive(Clone, Copy)]
struct Crossing {
    /// The router the probe leaves its AS by.
    egress: RouterId,
    /// The egress router's reply interface (its backbone one).
    egress_iface: IfaceId,
    /// The far AS's router the probe enters by.
    ingress: RouterId,
    /// The interface it enters by, and replies from.
    ingress_iface: IfaceId,
    /// Fiber from the probe's router to the egress router; no hop adds
    /// it when the two are one router.
    to_egress_km: f64,
    /// Fiber from the egress router to the ingress router.
    to_ingress_km: f64,
}

#[derive(Clone, Copy)]
struct Row {
    first_slot: u32,
    next_lo: u32,
    next_hi: u32,
    /// The router's first backbone interface (its intra-AS reply
    /// source), else its first interface.
    backbone: IfaceId,
}

impl StepTable {
    fn new(topo: &Topology) -> Self {
        let mut next = Vec::new();
        let mut runs = BTreeMap::new();
        for asn in topo.ases.keys() {
            let lo = next.len();
            let run: BTreeSet<Asn> = topo
                .adjacencies_of(*asn)
                .map(|adj| if adj.a == *asn { adj.b } else { adj.a })
                .collect();
            next.extend(run);
            runs.insert(*asn, (lo, next.len()));
        }
        let mut total = 0;
        let rows = topo
            .routers
            .values()
            .map(|r| {
                let (next_lo, next_hi) = runs.get(&r.asn).copied().unwrap_or_default();
                let row = Row {
                    first_slot: total as u32,
                    next_lo: next_lo as u32,
                    next_hi: next_hi as u32,
                    backbone: r
                        .ifaces
                        .iter()
                        .copied()
                        .find(|i| topo.ifaces[*i].kind == IfaceKind::Backbone)
                        .unwrap_or_else(|| r.ifaces[0]),
                };
                total += next_hi - next_lo;
                row
            })
            .collect();
        assert!(
            total < NO_MEDIUM as usize && next.len() <= u32::MAX as usize,
            "step-table positions fit a u32"
        );
        Self {
            rows,
            next,
            compiled: RwLock::new(Compiled {
                slots: vec![UNFILLED; total],
                arena: Vec::new(),
            }),
            #[cfg(test)]
            computed: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    fn row(&self, router: RouterId) -> Row {
        self.rows[router.raw() as usize]
    }

    /// The slot of `(router, y)`; `None` when `y` is no neighbour of the
    /// router's AS.
    fn slot(&self, router: RouterId, y: Asn) -> Option<usize> {
        let row = self.row(router);
        let k = self.next[row.next_lo as usize..row.next_hi as usize]
            .binary_search(&y)
            .ok()?;
        Some(row.first_slot as usize + k)
    }
}

/// One hop of a probe's path before emission: the router, the interface
/// it replies from, and the fiber from the previous hop.
#[derive(Clone, Copy)]
struct Leg {
    router: RouterId,
    iface: IfaceId,
    km: f64,
}

/// An unwritten entry of a probe's stack buffer of legs.
const NO_LEG: Leg = Leg {
    router: RouterId::new(0),
    iface: IfaceId::new(0),
    km: 0.0,
};

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
    use std::sync::atomic::Ordering::Relaxed;

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

    fn all_targets(topo: &Topology) -> Vec<Ipv4Addr> {
        topo.ases
            .keys()
            .map(|a| topo.target_ip(*a).unwrap())
            .collect()
    }

    /// Filled slots, slots pointing into the arena, and the arena's
    /// length.
    fn arena_shape(engine: &Engine<'_>) -> (usize, usize, usize) {
        let compiled = engine.steps.compiled.read();
        let filled = compiled.slots.iter().filter(|s| **s != UNFILLED);
        let medium = filled.clone().filter(|s| **s != NO_MEDIUM).count();
        (filled.count(), medium, compiled.arena.len())
    }

    #[test]
    fn each_crossing_is_computed_once() {
        let (topo, vps) = setup();
        let engine = Engine::new(&topo);
        let targets = all_targets(&topo);
        let sweep = || {
            for id in vps.ids() {
                for target in &targets {
                    engine.trace(&vps.vps[id], *target, 0);
                }
            }
        };
        let computed = || engine.steps.computed.load(Relaxed);
        sweep();
        let total = engine.steps.compiled.read().slots.len();
        let (used, medium, arena) = arena_shape(&engine);
        assert!(0 < used && used < total, "{used} of {total} slots");
        assert_eq!(computed(), used, "a slot was computed twice");
        assert_eq!(arena, medium, "one crossing per slot with a medium");
        sweep();
        assert_eq!(computed(), used, "a warm sweep recomputed a crossing");
        assert_eq!(arena_shape(&engine), (used, medium, arena));
        // A worker that read a slot unfilled and lost the race to fill it
        // finds the slot filled under the write lock and appends nothing.
        for (router, _) in topo.routers.iter() {
            let row = engine.steps.row(router);
            let next = &engine.steps.next[row.next_lo as usize..row.next_hi as usize];
            for (k, y) in next.iter().enumerate() {
                let slot = row.first_slot as usize + k;
                let entry = engine.steps.compiled.read().slots[slot];
                if entry != UNFILLED {
                    assert_eq!(engine.fill(slot, router, *y), entry);
                }
            }
        }
        assert_eq!(arena_shape(&engine), (used, medium, arena));
    }

    /// Workers racing to fill one slot append one crossing between them.
    #[test]
    fn parallel_campaigns_compile_each_crossing_once() {
        let (topo, vps) = setup();
        let targets = all_targets(&topo);
        let ids: Vec<_> = vps.ids().collect();
        let limits = crate::campaign::CampaignLimits::default();
        let serial = Engine::new(&topo);
        crate::campaign::run_campaign(&serial, &vps, &ids, &targets, 0, &limits);
        let parallel = Engine::new(&topo);
        crate::campaign::run_campaign_parallel(&parallel, &vps, &ids, &targets, 0, &limits);
        let (_, medium, arena) = arena_shape(&parallel);
        assert_eq!(arena, medium, "a raced slot appended twice");
        assert_eq!(arena_shape(&parallel), arena_shape(&serial));
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
