//! Consistency between the traceroute engine and the routing/topology
//! substrates: simulated paths must walk the valley-free AS path, cross
//! boundaries on real mediums, and expose exactly the ingress-interface
//! semantics the CFS algorithm depends on.

use std::collections::BTreeSet;

use cfs_bgp::RouteCache;
use cfs_topology::{IfaceKind, Topology, TopologyConfig};
use cfs_traceroute::{deploy_vantage_points, Engine, VpConfig};
use cfs_types::Asn;

fn setup() -> Topology {
    Topology::generate(TopologyConfig::tiny()).unwrap()
}

/// Maps a hop to its ground-truth owner AS (via the interface table).
fn owner(topo: &Topology, ip: std::net::Ipv4Addr) -> Option<Asn> {
    topo.iface_by_ip(ip).map(|ifid| topo.ifaces[ifid].asn)
}

#[test]
fn hops_follow_the_bgp_as_path() {
    let topo = setup();
    let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
    let engine = Engine::new(&topo);
    let cache = RouteCache::new(&topo);

    let mut verified = 0usize;
    for (i, asn) in topo.ases.keys().enumerate().take(15) {
        let target = topo.target_ip(*asn).unwrap();
        let routes = cache.routes(*asn);
        for id in vps.ids().step_by(7) {
            let vp = &vps.vps[id];
            let Some(as_path) = routes.path(vp.asn) else {
                continue;
            };
            let trace = engine.trace(vp, target, i as u64);
            if !trace.reached {
                continue;
            }
            // The sequence of hop owner ASes must be a subsequence of the
            // AS path (hops can be silent, never out of order).
            let as_path_set: Vec<Asn> = as_path.clone();
            let mut pos = 0usize;
            for hop in &trace.hops[..trace.hops.len() - 1] {
                let Some(ip) = hop.ip else { continue };
                let Some(hop_as) = owner(&topo, ip) else {
                    continue;
                };
                // Advance along the AS path until we find this AS.
                while pos < as_path_set.len() && as_path_set[pos] != hop_as {
                    pos += 1;
                }
                assert!(
                    pos < as_path_set.len(),
                    "hop AS {hop_as} not on (or out of order in) path {as_path_set:?}"
                );
            }
            verified += 1;
        }
    }
    assert!(verified > 20, "too few traces verified: {verified}");
}

#[test]
fn boundary_hops_reply_from_fabric_or_ptp_interfaces() {
    let topo = setup();
    let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
    let engine = Engine::new(&topo);

    let mut crossings = 0usize;
    for asn in topo.ases.keys().take(20) {
        let target = topo.target_ip(*asn).unwrap();
        for id in vps.ids().step_by(5) {
            let trace = engine.trace(&vps.vps[id], target, 0);
            // Only truly adjacent responsive pairs: a silent router in
            // between would make unrelated hops look adjacent.
            let hops: Vec<Option<std::net::Ipv4Addr>> = trace.hops.iter().map(|h| h.ip).collect();
            for w in hops.windows(2) {
                let (Some(h0), Some(h1)) = (w[0], w[1]) else {
                    continue;
                };
                let w = [h0, h1];
                let (a, b) = (owner(&topo, w[0]), owner(&topo, w[1]));
                let (Some(a), Some(b)) = (a, b) else { continue };
                if a == b {
                    continue;
                }
                // An AS boundary: the far hop must be a fabric or ptp
                // interface (ingress semantics), never a loopback.
                let ifid = topo.iface_by_ip(w[1]).unwrap();
                match topo.ifaces[ifid].kind {
                    IfaceKind::IxpFabric(_) | IfaceKind::PrivatePtp(_) => crossings += 1,
                    IfaceKind::Backbone => {
                        // Possible: the ptp interface was allocated from
                        // the *other* AS's space, so the ownership flip
                        // happens one hop late. The previous hop must
                        // then be the contaminated ptp interface.
                        let prev = topo.iface_by_ip(w[0]).unwrap();
                        assert!(
                            matches!(topo.ifaces[prev].kind, IfaceKind::PrivatePtp(_)),
                            "boundary into backbone without ptp contamination"
                        );
                        crossings += 1;
                    }
                    IfaceKind::Loopback => panic!("loopback replied in traceroute"),
                }
            }
        }
    }
    assert!(
        crossings > 30,
        "too few boundary crossings observed: {crossings}"
    );
}

#[test]
fn fabric_hop_belongs_to_the_far_member_router() {
    let topo = setup();
    let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
    let engine = Engine::new(&topo);

    let mut checked = 0usize;
    for asn in topo.ases.keys().take(25) {
        let target = topo.target_ip(*asn).unwrap();
        for id in vps.ids().step_by(9) {
            let trace = engine.trace(&vps.vps[id], target, 0);
            for hop in trace.hops.iter().filter_map(|h| h.ip) {
                let Some(ixp) = topo.ixp_of_ip(hop) else {
                    continue;
                };
                // The fabric address must be a member's port at that IXP,
                // configured on that member's router.
                let m = topo.ixps[ixp]
                    .members
                    .iter()
                    .find(|m| m.fabric_ip == hop)
                    .expect("fabric hop is a member port");
                let ifid = topo.iface_by_ip(hop).unwrap();
                assert_eq!(topo.ifaces[ifid].router, m.router);
                checked += 1;
            }
        }
    }
    assert!(checked > 5, "no fabric hops observed: {checked}");
}

#[test]
fn distinct_vantage_points_expose_distinct_boundary_routers() {
    // Hot-potato selection: for a multi-location adjacency, probes from
    // different continents should cross at different facilities. The
    // tiny world is too sparse for this to be reliable; use the default
    // one.
    let topo = Topology::generate(TopologyConfig::default()).unwrap();
    let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
    let engine = Engine::new(&topo);

    let mut multi_location_seen = false;
    'outer: for adj in &topo.adjacencies {
        if adj.mediums.len() < 2 {
            continue;
        }
        let target = topo.target_ip(adj.a).unwrap();
        let mut boundary_ifaces: BTreeSet<std::net::Ipv4Addr> = BTreeSet::new();
        for id in vps.ids() {
            let trace = engine.trace(&vps.vps[id], target, 0);
            let hops: Vec<_> = trace.hops.iter().filter_map(|h| h.ip).collect();
            for w in hops.windows(2) {
                let (Some(x), Some(y)) = (owner(&topo, w[0]), owner(&topo, w[1])) else {
                    continue;
                };
                if (x, y) == (adj.b, adj.a) {
                    boundary_ifaces.insert(w[1]);
                }
            }
        }
        if boundary_ifaces.len() >= 2 {
            multi_location_seen = true;
            break 'outer;
        }
    }
    assert!(
        multi_location_seen,
        "no multi-location adjacency ever crossed at two different interfaces"
    );
}
