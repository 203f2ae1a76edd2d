//! BGP-capable looking glasses (§3.2).
//!
//! "An increasing number of networks run public looking glass servers
//! capable of issuing BGP queries [32], e.g. *show ip bgp summary*,
//! *prefix info*, *neighbor info*. We identified 168 that support such
//! queries and we used them to augment our measurements. These types of
//! looking glasses allow us to list the BGP sessions established with the
//! router running the looking glass, and indicate the ASN and IP address
//! of the peering router, as well as showing metainformation about the
//! interconnection, e.g., via BGP communities."
//!
//! [`LookingGlassBgp`] exposes exactly that: per-router session listings
//! (own address, neighbor address, neighbor ASN) and route queries with
//! the ingress communities attached.

use std::net::Ipv4Addr;

use cfs_net::IpAsnDb;
use cfs_topology::{IfaceKind, Topology};
use cfs_types::{Asn, IxpId, RouterId};

use crate::communities::{CommunityDictionary, CommunityValue};
use crate::routing::RouteCache;

/// One BGP session as a looking glass reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BgpSession {
    /// The local interface address the session is bound to.
    pub local_ip: Ipv4Addr,
    /// The neighbor's interface address.
    pub neighbor_ip: Ipv4Addr,
    /// The neighbor's AS number.
    pub neighbor_asn: Asn,
    /// Whether the session runs over an IXP fabric (route server or
    /// bilateral) rather than a private point-to-point circuit.
    pub over_ixp: Option<IxpId>,
}

/// A *show ip bgp `<prefix>`* style answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BgpRecord {
    /// The AS path of the best route.
    pub as_path: Vec<Asn>,
    /// Communities attached to the route (ingress tagging).
    pub communities: Vec<CommunityValue>,
}

/// The BGP query surface of looking-glass routers.
pub struct LookingGlassBgp<'t> {
    topo: &'t Topology,
    routes: RouteCache,
    db: IpAsnDb,
}

impl<'t> LookingGlassBgp<'t> {
    /// Creates the query interface over a topology.
    pub fn new(topo: &'t Topology) -> Self {
        Self {
            topo,
            routes: RouteCache::new(topo),
            db: topo.build_ipasn_db(),
        }
    }

    /// Lists the BGP sessions of a router: its private point-to-point
    /// peers (far-end address from the shared /31) and its public
    /// sessions (the fabric neighbors it exchanges routes with).
    pub fn sessions(&self, router: RouterId) -> Vec<BgpSession> {
        let mut out = Vec::new();
        let asn = self.topo.routers[router].asn;
        for ifid in &self.topo.routers[router].ifaces {
            let iface = &self.topo.ifaces[*ifid];
            match iface.kind {
                IfaceKind::PrivatePtp(lid) => {
                    let link = &self.topo.links[lid];
                    let (my, other) = if link.a.iface == *ifid {
                        (&link.a, &link.b)
                    } else {
                        (&link.b, &link.a)
                    };
                    debug_assert_eq!(my.iface, *ifid);
                    out.push(BgpSession {
                        local_ip: iface.ip,
                        neighbor_ip: self.topo.ifaces[other.iface].ip,
                        neighbor_asn: other.asn,
                        over_ixp: None,
                    });
                }
                IfaceKind::IxpFabric(ixp) => {
                    // Sessions across the fabric: all members this AS has
                    // a public adjacency with at this exchange.
                    let exchange = &self.topo.ixps[ixp];
                    for m in &exchange.members {
                        if m.asn == asn {
                            continue;
                        }
                        let adjacent = self
                            .topo
                            .adjacency(asn, m.asn)
                            .is_some_and(|adj| {
                                adj.mediums.iter().any(|med| {
                                    matches!(med, cfs_topology::Medium::PublicIxp { ixp: i } if *i == ixp)
                                })
                            });
                        if adjacent {
                            out.push(BgpSession {
                                local_ip: iface.ip,
                                neighbor_ip: m.fabric_ip,
                                neighbor_asn: m.asn,
                                over_ixp: Some(ixp),
                            });
                        }
                    }
                }
                IfaceKind::Loopback | IfaceKind::Backbone => {}
            }
        }
        out.sort_by_key(|s| (s.neighbor_asn, s.neighbor_ip));
        out
    }

    /// Answers a route query from a router: the best AS path toward the
    /// destination and the ingress communities the local AS attached
    /// (when the operator's dictionary covers the entry facility).
    pub fn route(
        &self,
        router: RouterId,
        dest: Ipv4Addr,
        dict: &CommunityDictionary,
    ) -> Option<BgpRecord> {
        let asn = self.topo.routers[router].asn;
        let origin = self.db.origin(dest)?;
        let routes = self.routes.routes(origin);
        let as_path = routes.path(asn)?;

        // The route entered this AS at the border router facing the next
        // hop; hot-potato from the LG router's position selects which
        // physical handoff that is (mirroring the traceroute engine).
        let mut communities = Vec::new();
        if as_path.len() >= 2 {
            let next = as_path[1];
            if let Some(adj) = self.topo.adjacency(asn, next) {
                let here = self.topo.routers[router].coords;
                let mut best: Option<(f64, RouterId)> = None;
                for medium in &adj.mediums {
                    let egress = match medium {
                        cfs_topology::Medium::Private(lid) => {
                            let link = &self.topo.links[*lid];
                            if link.a.asn == asn {
                                link.a.router
                            } else {
                                link.b.router
                            }
                        }
                        cfs_topology::Medium::PublicIxp { ixp } => {
                            match self.topo.ixps[*ixp].member(asn) {
                                Some(m) => m.router,
                                None => continue,
                            }
                        }
                    };
                    let d = here.distance_km(self.topo.routers[egress].coords);
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, egress));
                    }
                }
                if let Some((_, border)) = best {
                    if let Some(facility) = self.topo.routers[border].location.facility() {
                        communities = dict.tags_for_ingress(self.topo, asn, facility);
                    }
                }
            }
        }
        Some(BgpRecord {
            as_path,
            communities,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_topology::TopologyConfig;
    use cfs_types::AsClass;

    fn setup() -> Topology {
        Topology::generate(TopologyConfig::tiny()).unwrap()
    }

    #[test]
    fn private_sessions_report_both_ends() {
        let topo = setup();
        let lg = LookingGlassBgp::new(&topo);
        let link = topo.links.values().next().expect("some link");
        let sessions = lg.sessions(link.a.router);
        let found = sessions
            .iter()
            .find(|s| s.neighbor_ip == topo.ifaces[link.b.iface].ip)
            .expect("session for the link");
        assert_eq!(found.neighbor_asn, link.b.asn);
        assert_eq!(found.local_ip, topo.ifaces[link.a.iface].ip);
        assert_eq!(found.over_ixp, None);
    }

    #[test]
    fn fabric_sessions_only_list_actual_peers() {
        let topo = setup();
        let lg = LookingGlassBgp::new(&topo);
        for ixp in topo.ixps.values().filter(|x| x.active) {
            for m in &ixp.members {
                let sessions = lg.sessions(m.router);
                for s in sessions.iter().filter(|s| s.over_ixp.is_some()) {
                    // Every reported fabric session corresponds to a
                    // public adjacency in ground truth.
                    let adj = topo.adjacency(m.asn, s.neighbor_asn);
                    assert!(adj.is_some(), "ghost session {s:?}");
                }
            }
        }
    }

    #[test]
    fn route_query_returns_valley_free_path_from_lg() {
        let topo = setup();
        let lg = LookingGlassBgp::new(&topo);
        let dict = CommunityDictionary::build(
            &topo,
            &topo
                .ases
                .values()
                .filter(|n| n.class == AsClass::Tier1)
                .map(|n| n.asn)
                .collect::<Vec<_>>(),
            20,
        );
        let tier1 = topo
            .ases
            .values()
            .find(|n| n.class == AsClass::Tier1)
            .unwrap();
        let router = tier1.routers[0];
        let dest_as = topo
            .ases
            .values()
            .find(|n| n.class == AsClass::Access)
            .unwrap();
        let dest = topo.target_ip(dest_as.asn).unwrap();
        let record = lg.route(router, dest, &dict).expect("route exists");
        assert_eq!(record.as_path.first(), Some(&tier1.asn));
        assert_eq!(record.as_path.last(), Some(&dest_as.asn));
    }

    #[test]
    fn communities_decode_to_a_real_ingress() {
        let topo = setup();
        let lg = LookingGlassBgp::new(&topo);
        let providers: Vec<Asn> = topo
            .ases
            .values()
            .filter(|n| n.class == AsClass::Tier1)
            .map(|n| n.asn)
            .collect();
        let dict = CommunityDictionary::build(&topo, &providers, 30);

        let mut tagged = 0;
        for p in &providers {
            let node = &topo.ases[p];
            for dest_node in topo.ases.values().take(20) {
                if dest_node.asn == *p {
                    continue;
                }
                let dest = topo.target_ip(dest_node.asn).unwrap();
                if let Some(rec) = lg.route(node.routers[0], dest, &dict) {
                    for cv in &rec.communities {
                        assert!(dict.decode(*cv).is_some(), "undecodable community {cv}");
                        tagged += 1;
                    }
                }
            }
        }
        assert!(tagged > 0, "no route ever carried an ingress tag");
    }

    #[test]
    fn unrouted_destination_yields_none() {
        let topo = setup();
        let lg = LookingGlassBgp::new(&topo);
        let dict = CommunityDictionary::default();
        let router = topo.routers.ids().next().unwrap();
        assert!(lg
            .route(router, "203.0.113.9".parse().unwrap(), &dict)
            .is_none());
    }
}
