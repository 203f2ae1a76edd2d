//! The assembled, immutable ground-truth topology.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use cfs_geo::World;
use cfs_net::{Announcement, IpAsnDb, PrefixTrie};
use cfs_types::{
    Arena, Asn, Error, FacilityId, IfaceId, IxpId, LinkId, OperatorId, Rel, Result, RouterId,
    SwitchId,
};

use crate::config::TopologyConfig;
use crate::model::{AsNode, Facility, FacilityOperator, Iface, Ixp, Link, Medium, Router, Switch};

/// One AS-level adjacency with its physical instantiations.
///
/// Canonical orientation: for `c2p`, `a` is the customer; for `p2p`,
/// `a < b` by ASN.
#[derive(Clone, Debug)]
pub struct AsAdjacency {
    /// First AS (customer for c2p).
    pub a: Asn,
    /// Second AS (provider for c2p).
    pub b: Asn,
    /// Business relationship.
    pub rel: Rel,
    /// Physical realizations (≥1; several for multi-location pairs).
    pub mediums: Vec<Medium>,
}

/// The generated world. All tables are public for read access; the struct
/// is never mutated after generation.
#[derive(Clone, Debug)]
pub struct Topology {
    /// The configuration that produced this topology.
    pub config: TopologyConfig,
    /// Geography (cities, metros).
    pub world: World,
    /// Facility operators.
    pub operators: Arena<OperatorId, FacilityOperator>,
    /// Interconnection facilities.
    pub facilities: Arena<FacilityId, Facility>,
    /// Internet exchange points.
    pub ixps: Arena<IxpId, Ixp>,
    /// IXP switches.
    pub switches: Arena<SwitchId, Switch>,
    /// Autonomous systems, keyed by ASN.
    pub ases: BTreeMap<Asn, AsNode>,
    /// Routers.
    pub routers: Arena<RouterId, Router>,
    /// Router interfaces.
    pub ifaces: Arena<IfaceId, Iface>,
    /// Materialized private/transit links.
    pub links: Arena<LinkId, Link>,
    /// AS-level adjacencies, sorted by `(a, b)`.
    pub adjacencies: Vec<AsAdjacency>,
    /// BGP announcements as route collectors would see them (including
    /// sibling contamination).
    pub announcements: Vec<Announcement>,

    // ---- indices (built once at the end of generation) ----
    pub(crate) iface_by_ip: BTreeMap<Ipv4Addr, IfaceId>,
    pub(crate) adj_index: BTreeMap<(Asn, Asn), usize>,
    pub(crate) neighbors: BTreeMap<Asn, Vec<usize>>,
    pub(crate) ixp_prefixes: PrefixTrie<IxpId>,
}

impl Topology {
    /// Generates a topology from `config`. Deterministic in the seed.
    pub fn generate(config: TopologyConfig) -> Result<Self> {
        crate::generate::generate(config)
    }

    /// The AS record for `asn`.
    pub fn as_node(&self, asn: Asn) -> Result<&AsNode> {
        self.ases
            .get(&asn)
            .ok_or_else(|| Error::not_found("as", asn))
    }

    /// Ground-truth owner interface of an IP address, if any.
    pub fn iface_by_ip(&self, ip: Ipv4Addr) -> Option<IfaceId> {
        self.iface_by_ip.get(&ip).copied()
    }

    /// A stable, always-active "customer" address inside `asn`'s primary
    /// block, used as a traceroute target (the paper selects one active
    /// IP per prefix per target network).
    pub fn target_ip(&self, asn: Asn) -> Result<Ipv4Addr> {
        let node = self.as_node(asn)?;
        let primary = node
            .prefixes
            .first()
            .ok_or_else(|| Error::invalid(format!("{asn} has no prefix")))?;
        primary.nth(10)
    }

    /// The facility a router sits in (None for PoP routers).
    pub fn router_facility(&self, router: RouterId) -> Option<FacilityId> {
        self.routers[router].location.facility()
    }

    /// The IXP owning `ip` (i.e. `ip` is inside some peering LAN).
    pub fn ixp_of_ip(&self, ip: Ipv4Addr) -> Option<IxpId> {
        self.ixp_prefixes.longest_match(ip).map(|(_, id)| *id)
    }

    /// Hop distance between two switches of one exchange in the
    /// core/backhaul/access hierarchy: 0 = same switch, 1 = same backhaul
    /// (or parent/child), 2 = via the core. Members on nearby switches
    /// exchange traffic locally (§4.4, confirmed by operators).
    pub fn switch_distance(&self, a: SwitchId, b: SwitchId) -> u8 {
        if a == b {
            return 0;
        }
        let pa = self.switches[a].parent;
        let pb = self.switches[b].parent;
        if pa == Some(b) || pb == Some(a) {
            return 1;
        }
        match (pa, pb) {
            (Some(x), Some(y)) if x == y => 1,
            _ => 2,
        }
    }

    /// The adjacency between two ASes, if any (order-insensitive).
    pub fn adjacency(&self, x: Asn, y: Asn) -> Option<&AsAdjacency> {
        self.adj_index
            .get(&(x, y))
            .or_else(|| self.adj_index.get(&(y, x)))
            .map(|i| &self.adjacencies[*i])
    }

    /// All adjacencies involving `asn`.
    pub fn adjacencies_of(&self, asn: Asn) -> impl Iterator<Item = &AsAdjacency> {
        self.neighbors
            .get(&asn)
            .into_iter()
            .flatten()
            .map(move |i| &self.adjacencies[*i])
    }

    /// Builds the (contaminated) IP→ASN database from the announcements —
    /// the view Team Cymru-style services expose (§4.1).
    pub fn build_ipasn_db(&self) -> IpAsnDb {
        IpAsnDb::from_announcements(self.announcements.iter().copied())
    }

    /// Checks structural invariants; generation runs this before
    /// returning, and property tests call it on random seeds.
    pub fn validate(&self) -> Result<()> {
        // Every facility's operator lists it back.
        for (fid, f) in self.facilities.iter() {
            let op = self
                .operators
                .get(f.operator)
                .ok_or_else(|| Error::invalid(format!("{fid} has unknown operator")))?;
            if !op.facilities.contains(&fid) {
                return Err(Error::invalid(format!("{fid} missing from operator list")));
            }
        }
        // IXP switch hierarchy: core has no parent, others chain to core;
        // every partner facility hosts exactly one access switch.
        for (iid, ixp) in self.ixps.iter() {
            let core = &self.switches[ixp.core];
            if core.parent.is_some() || core.ixp != iid {
                return Err(Error::invalid(format!("{iid} core switch malformed")));
            }
            for sid in &ixp.switches {
                let sw = &self.switches[*sid];
                if sw.ixp != iid {
                    return Err(Error::invalid(format!("{iid} lists foreign switch {sid}")));
                }
                if *sid != ixp.core {
                    let parent = sw
                        .parent
                        .ok_or_else(|| Error::invalid(format!("{sid} orphaned")))?;
                    let p = &self.switches[parent];
                    if p.ixp != iid {
                        return Err(Error::invalid(format!("{sid} parent in foreign ixp")));
                    }
                }
            }
            for m in &ixp.members {
                if !ixp.peering_lan.contains(m.fabric_ip) {
                    return Err(Error::invalid(format!(
                        "{iid} member {} fabric ip outside LAN",
                        m.asn
                    )));
                }
                let iface = &self.ifaces[m.iface];
                if iface.router != m.router || iface.ip != m.fabric_ip {
                    return Err(Error::invalid(format!("{iid} member {} iface bad", m.asn)));
                }
                // Local members' routers must sit at a partner facility.
                if m.remote_via.is_none() {
                    match self.router_facility(m.router) {
                        Some(f) if ixp.facilities.contains(&f) => {}
                        other => {
                            return Err(Error::invalid(format!(
                                "{iid} local member {} router at {:?}, not a partner facility",
                                m.asn, other
                            )))
                        }
                    }
                }
            }
        }
        // Routers and interfaces are mutually consistent.
        for (rid, r) in self.routers.iter() {
            for ifid in &r.ifaces {
                if self.ifaces[*ifid].router != rid {
                    return Err(Error::invalid(format!(
                        "{rid} iface {ifid} points elsewhere"
                    )));
                }
            }
        }
        for (ifid, iface) in self.ifaces.iter() {
            if !self.routers[iface.router].ifaces.contains(&ifid) {
                return Err(Error::invalid(format!("{ifid} not listed by its router")));
            }
        }
        // Unique IPs.
        if self.iface_by_ip.len() != self.ifaces.len() {
            return Err(Error::invalid("duplicate interface addresses"));
        }
        // AS record consistency.
        for (asn, node) in &self.ases {
            if node.asn != *asn {
                return Err(Error::invalid(format!(
                    "as map key {asn} != node {}",
                    node.asn
                )));
            }
            for rid in &node.routers {
                if self.routers[*rid].asn != *asn {
                    return Err(Error::invalid(format!("{asn} lists foreign router {rid}")));
                }
            }
            let mut sorted = node.facilities.clone();
            sorted.sort();
            sorted.dedup();
            if sorted != node.facilities {
                return Err(Error::invalid(format!(
                    "{asn} facility list not sorted/unique"
                )));
            }
        }
        // Adjacency canonical form and index completeness.
        for (i, adj) in self.adjacencies.iter().enumerate() {
            if adj.rel == Rel::PeerToPeer && adj.a >= adj.b {
                return Err(Error::invalid(format!(
                    "p2p adjacency not canonical at {i}"
                )));
            }
            if adj.mediums.is_empty() {
                return Err(Error::invalid(format!(
                    "adjacency {}-{} has no medium",
                    adj.a, adj.b
                )));
            }
            if self.adj_index.get(&(adj.a, adj.b)) != Some(&i) {
                return Err(Error::invalid("adjacency index out of sync"));
            }
            for m in &adj.mediums {
                if let Medium::Private(lid) = m {
                    let link = &self.links[*lid];
                    let pair_ok = (link.a.asn == adj.a && link.b.asn == adj.b)
                        || (link.a.asn == adj.b && link.b.asn == adj.a);
                    if !pair_ok {
                        return Err(Error::invalid(format!(
                            "link {lid} does not connect {}-{}",
                            adj.a, adj.b
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}
