//! The ground-truth generator: orchestration and shared context.
//!
//! Generation proceeds bottom-up through four phases —
//! facilities → IXPs → ASes (with routers and IXP memberships) →
//! interconnections — followed by DNS naming and index construction.
//! Every random draw comes from one ChaCha20 stream, so a config (and its
//! seed) identifies a world exactly.

pub(crate) mod addressing;
mod ases;
mod facilities;
mod ixps;
mod links;

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use cfs_geo::{GeoPoint, World};
use cfs_net::{Announcement, HostAllocator, Ipv4Prefix, PrefixTrie, SubnetAllocator};
use cfs_types::{
    Arena, AsClass, Asn, Error, FacilityId, IfaceId, IxpId, LinkId, MetroId, OperatorId, Rel,
    Result, RouterId, SwitchId,
};

use crate::config::TopologyConfig;
use crate::model::{
    AsNode, Facility, FacilityOperator, Iface, IfaceKind, IpIdBehavior, Ixp, Link, Medium, Router,
    RouterLocation, Switch,
};
use crate::topology::{AsAdjacency, Topology};

use addressing::AsAddressPlan;

/// Fraction of routers that never send ICMP TTL-exceeded.
const SILENT_ROUTER_FRACTION: f64 = 0.03;
/// Fraction of routers with a random IP-ID (defeats MIDAR).
const IPID_RANDOM_FRACTION: f64 = 0.10;
/// Fraction of routers with a constant IP-ID.
const IPID_CONSTANT_FRACTION: f64 = 0.05;

/// Runs the whole pipeline.
pub(crate) fn generate(config: TopologyConfig) -> Result<Topology> {
    config.validate()?;
    let mut g = Gen::new(config)?;
    facilities::build(&mut g)?;
    ixps::build(&mut g)?;
    ases::build(&mut g)?;
    links::build(&mut g)?;
    crate::dns::assign_names(&mut g);
    g.finish()
}

/// Mutable state shared by the generation phases.
pub(crate) struct Gen {
    pub cfg: TopologyConfig,
    pub rng: ChaCha20Rng,
    pub world: World,

    pub operators: Arena<OperatorId, FacilityOperator>,
    pub facilities: Arena<FacilityId, Facility>,
    pub ixps: Arena<IxpId, Ixp>,
    pub switches: Arena<SwitchId, Switch>,
    pub routers: Arena<RouterId, Router>,
    pub ifaces: Arena<IfaceId, Iface>,
    pub links: Arena<LinkId, Link>,
    pub ases: BTreeMap<Asn, AsNode>,

    pub plans: BTreeMap<Asn, AsAddressPlan>,
    /// Sibling ASes drawing infrastructure addresses from another AS's
    /// plan (the §4.1 contamination).
    pub infra_source: BTreeMap<Asn, Asn>,
    pub as_pool: SubnetAllocator,
    pub ixp_pool: SubnetAllocator,
    pub fabric: BTreeMap<IxpId, HostAllocator>,

    pub facs_by_metro: BTreeMap<MetroId, Vec<FacilityId>>,
    pub ixps_by_metro: BTreeMap<MetroId, Vec<IxpId>>,
    pub routers_at: BTreeMap<(Asn, FacilityId), RouterId>,

    pub adj: BTreeMap<(Asn, Asn), (Rel, Vec<Medium>)>,
}

impl Gen {
    fn new(cfg: TopologyConfig) -> Result<Self> {
        let rng = ChaCha20Rng::seed_from_u64(cfg.seed);
        Ok(Self {
            rng,
            world: World::builtin(),
            operators: Arena::new(),
            facilities: Arena::new(),
            ixps: Arena::new(),
            switches: Arena::new(),
            routers: Arena::new(),
            ifaces: Arena::new(),
            links: Arena::new(),
            ases: BTreeMap::new(),
            plans: BTreeMap::new(),
            infra_source: BTreeMap::new(),
            as_pool: SubnetAllocator::new(Ipv4Prefix::must([16, 0, 0, 0], 4), 16)?,
            ixp_pool: SubnetAllocator::new(Ipv4Prefix::must([185, 0, 0, 0], 10), 22)?,
            fabric: BTreeMap::new(),
            facs_by_metro: BTreeMap::new(),
            ixps_by_metro: BTreeMap::new(),
            routers_at: BTreeMap::new(),
            adj: BTreeMap::new(),
            cfg,
        })
    }

    /// The plan an AS draws *infrastructure* addresses from — its own, or
    /// its sibling's when the pair shares address space.
    fn infra_plan(&mut self, asn: Asn) -> Result<&mut AsAddressPlan> {
        let source = self.infra_source.get(&asn).copied().unwrap_or(asn);
        self.plans
            .get_mut(&source)
            .ok_or_else(|| Error::not_found("address plan", source))
    }

    /// Allocates a backbone/loopback address for `asn`.
    pub fn alloc_backbone(&mut self, asn: Asn) -> Result<Ipv4Addr> {
        self.infra_plan(asn)?.alloc_backbone()
    }

    /// Allocates a point-to-point /31 from `asn`'s space.
    pub fn alloc_ptp(&mut self, asn: Asn) -> Result<Ipv4Prefix> {
        // Point-to-point subnets always come from the AS's own plan: the
        // address *must* map to the allocating AS for the §4.1 pitfall to
        // be modelled correctly.
        self.plans
            .get_mut(&asn)
            .ok_or_else(|| Error::not_found("address plan", asn))?
            .alloc_ptp()
    }

    /// Adds an interface to a router and to the global table.
    pub fn add_iface(
        &mut self,
        router: RouterId,
        asn: Asn,
        ip: Ipv4Addr,
        kind: IfaceKind,
    ) -> IfaceId {
        let id = self.ifaces.push(Iface {
            router,
            asn,
            ip,
            kind,
            dns_name: None,
        });
        self.routers[router].ifaces.push(id);
        id
    }

    /// Creates a router for `asn` at `location` with a loopback and one
    /// backbone interface.
    pub fn new_router(
        &mut self,
        asn: Asn,
        location: RouterLocation,
        coords: GeoPoint,
        ipid: IpIdBehavior,
    ) -> Result<RouterId> {
        let responds = !self.rng.random_bool(SILENT_ROUTER_FRACTION);
        let rid = self.routers.push(Router {
            asn,
            location,
            coords,
            ifaces: Vec::new(),
            ipid,
            responds,
        });
        let lo = self.alloc_backbone(asn)?;
        self.add_iface(rid, asn, lo, IfaceKind::Loopback);
        let bb = self.alloc_backbone(asn)?;
        self.add_iface(rid, asn, bb, IfaceKind::Backbone);
        if let Some(node) = self.ases.get_mut(&asn) {
            node.routers.push(rid);
        }
        if let RouterLocation::Facility(f) = location {
            self.routers_at.insert((asn, f), rid);
        }
        Ok(rid)
    }

    /// Samples an IP-ID behaviour for a new router. CDN routers are
    /// usually unresponsive to alias probing (the paper's Google case).
    pub fn sample_ipid(&mut self, class: AsClass) -> IpIdBehavior {
        if class == AsClass::Cdn && self.rng.random_bool(0.6) {
            return IpIdBehavior::Unresponsive;
        }
        let x: f64 = self.rng.random();
        if x < IPID_RANDOM_FRACTION {
            IpIdBehavior::Random
        } else if x < IPID_RANDOM_FRACTION + IPID_CONSTANT_FRACTION {
            IpIdBehavior::Constant
        } else {
            IpIdBehavior::SharedCounter {
                rate_per_ms: self.rng.random_range(1..40),
            }
        }
    }

    /// Registers (or extends) an AS-level adjacency. c2p is canonical as
    /// `(customer, provider)`; p2p as `(min, max)`. A p2p registration on
    /// an existing c2p pair is ignored (providers do not also peer with
    /// their customers).
    pub fn add_adjacency(&mut self, a: Asn, b: Asn, rel: Rel, medium: Medium) {
        debug_assert_ne!(a, b, "self-adjacency");
        let key = match rel {
            Rel::CustomerToProvider => (a, b),
            Rel::PeerToPeer => (a.min(b), a.max(b)),
        };
        // Either orientation of an existing c2p blocks a new p2p.
        if rel == Rel::PeerToPeer
            && (self.adj.contains_key(&(a, b)) || self.adj.contains_key(&(b, a)))
        {
            let existing_key = if self.adj.contains_key(&(a, b)) {
                (a, b)
            } else {
                (b, a)
            };
            if let Some((existing_rel, mediums)) = self.adj.get_mut(&existing_key) {
                if *existing_rel == Rel::PeerToPeer && !mediums.contains(&medium) {
                    mediums.push(medium);
                }
            }
            return;
        }
        let entry = self.adj.entry(key).or_insert_with(|| (rel, Vec::new()));
        if !entry.1.contains(&medium) {
            entry.1.push(medium);
        }
    }

    /// Whether the two ASes already have any adjacency.
    pub fn has_adjacency(&self, a: Asn, b: Asn) -> bool {
        self.adj.contains_key(&(a, b)) || self.adj.contains_key(&(b, a))
    }

    /// Consumes the context: builds announcements, indices, sorts tables,
    /// validates, and returns the immutable topology.
    fn finish(self) -> Result<Topology> {
        let Gen {
            cfg,
            world,
            operators,
            facilities,
            ixps,
            switches,
            routers,
            ifaces,
            links,
            mut ases,
            plans,
            adj,
            ..
        } = self;

        // Announcements: every AS announces its prefixes.
        let mut announcements = Vec::new();
        for (asn, node) in &ases {
            for p in &node.prefixes {
                announcements.push(Announcement {
                    prefix: *p,
                    origin: *asn,
                });
            }
        }
        debug_assert_eq!(plans.len(), ases.len());

        // Canonical sorting inside AS records.
        for node in ases.values_mut() {
            node.facilities.sort();
            node.facilities.dedup();
            node.ixps.sort();
            node.ixps.dedup();
            node.routers.sort();
        }

        // Adjacency table in canonical order.
        let mut adjacencies: Vec<AsAdjacency> = adj
            .into_iter()
            .map(|((a, b), (rel, mediums))| AsAdjacency { a, b, rel, mediums })
            .collect();
        adjacencies.sort_by_key(|adj| (adj.a, adj.b));
        let mut adj_index = BTreeMap::new();
        let mut neighbors: BTreeMap<Asn, Vec<usize>> = BTreeMap::new();
        for (i, adj) in adjacencies.iter().enumerate() {
            adj_index.insert((adj.a, adj.b), i);
            neighbors.entry(adj.a).or_default().push(i);
            neighbors.entry(adj.b).or_default().push(i);
        }

        // IP → interface index (uniqueness enforced).
        let mut iface_by_ip = BTreeMap::new();
        for (id, iface) in ifaces.iter() {
            if iface_by_ip.insert(iface.ip, id).is_some() {
                return Err(Error::invalid(format!(
                    "duplicate interface address {}",
                    iface.ip
                )));
            }
        }

        // IXP peering-LAN trie.
        let mut ixp_prefixes = PrefixTrie::new();
        for (id, ixp) in ixps.iter() {
            ixp_prefixes.insert(ixp.peering_lan, id);
        }

        let topo = Topology {
            config: cfg,
            world,
            operators,
            facilities,
            ixps,
            switches,
            ases,
            routers,
            ifaces,
            links,
            adjacencies,
            announcements,
            iface_by_ip,
            adj_index,
            neighbors,
            ixp_prefixes,
        };
        topo.validate()?;
        Ok(topo)
    }
}

/// Splits `total` into integer parts proportional to `weights` (largest
/// remainder method). Zero weights get zero.
pub(crate) fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 || total == 0 {
        return vec![0; weights.len()];
    }
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut parts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let assigned: usize = parts.iter().sum();
    // Distribute the remainder to the largest fractional parts.
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&i, &j| {
        let fi = exact[i] - exact[i].floor();
        let fj = exact[j] - exact[j].floor();
        fj.partial_cmp(&fi)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(i.cmp(&j))
    });
    for &i in order.iter().take(total - assigned) {
        parts[i] += 1;
    }
    parts
}

/// Draws an index with probability proportional to `weights`.
pub(crate) fn weighted_index(rng: &mut ChaCha20Rng, weights: &[f64]) -> usize {
    let sum: f64 = weights.iter().sum();
    debug_assert!(sum > 0.0, "weighted_index needs positive weights");
    let mut x: f64 = rng.random::<f64>() * sum;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_hits_total_exactly() {
        let parts = apportion(10, &[1.0, 1.0, 1.0]);
        assert_eq!(parts.iter().sum::<usize>(), 10);
        assert!(parts.iter().all(|p| *p == 3 || *p == 4));

        let parts = apportion(1694, &[503.0, 860.0, 143.0, 84.0, 73.0, 31.0]);
        assert_eq!(parts.iter().sum::<usize>(), 1694);
        assert_eq!(parts, vec![503, 860, 143, 84, 73, 31]);
    }

    #[test]
    fn apportion_zero_cases() {
        assert_eq!(apportion(0, &[1.0, 2.0]), vec![0, 0]);
        assert_eq!(apportion(5, &[0.0, 0.0]), vec![0, 0]);
        assert_eq!(apportion(5, &[0.0, 1.0]), vec![0, 5]);
    }

    #[test]
    fn weighted_index_respects_zero_weights() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        for _ in 0..100 {
            let i = weighted_index(&mut rng, &[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn weighted_index_covers_support() {
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let mut seen = [false; 3];
        for _ in 0..500 {
            seen[weighted_index(&mut rng, &[1.0, 1.0, 1.0])] = true;
        }
        assert_eq!(seen, [true; 3]);
    }
}
