//! Phase 4: interconnections — transit relationships, the Tier-1 mesh,
//! private peering (cross-connects and tethering VLANs), and public
//! peering across IXP fabrics (bilateral and route-server multilateral).

use rand::seq::SliceRandom;
use rand::Rng;

use cfs_types::{AsClass, Asn, Error, FacilityId, IxpId, PeeringKind, Rel, Result};

use crate::model::{EndPoint, IfaceKind, Link, Medium};

use super::Gen;

/// Fraction of CDN private interconnects realized as tethering VLANs
/// over an IXP fabric instead of physical cross-connects.
const TETHERING_FRACTION: f64 = 0.12;

pub(super) fn build(g: &mut Gen) -> Result<()> {
    transit_links(g)?;
    tier1_mesh(g)?;
    private_peering(g)?;
    public_peering(g)?;
    Ok(())
}

/// ASNs of a class, sorted (deterministic).
fn of_class(g: &Gen, class: AsClass) -> Vec<Asn> {
    g.ases
        .values()
        .filter(|n| n.class == class)
        .map(|n| n.asn)
        .collect()
}

// ---------------------------------------------------------------------
// Physical link materialization
// ---------------------------------------------------------------------

/// Common ground-truth facilities of two ASes, sorted so the facilities
/// where either side already terminates IXP ports come first (networks
/// consolidate equipment — this is what makes 39% of observed routers
/// carry both public and private peerings in §5).
fn common_facilities(g: &Gen, a: Asn, b: Asn) -> Vec<FacilityId> {
    let fa = &g.ases[&a].facilities;
    let fb = &g.ases[&b].facilities;
    let mut common: Vec<FacilityId> = fa.iter().copied().filter(|f| fb.contains(f)).collect();
    let fabric_ifaces = |asn: Asn, fac: FacilityId| -> usize {
        match g.routers_at.get(&(asn, fac)) {
            Some(rid) => g.routers[*rid]
                .ifaces
                .iter()
                .filter(|i| matches!(g.ifaces[**i].kind, IfaceKind::IxpFabric(_)))
                .count(),
            None => 0,
        }
    };
    common.sort_by_key(|f| std::cmp::Reverse(fabric_ifaces(a, *f) + fabric_ifaces(b, *f)));
    common
}

/// Materializes one private link of `kind` between `a` and `b` at the
/// given facilities (the point-to-point subnet comes from `a`'s space).
fn materialize(
    g: &mut Gen,
    a: Asn,
    b: Asn,
    kind: PeeringKind,
    fac_a: FacilityId,
    fac_b: FacilityId,
    ixp: Option<IxpId>,
) -> Result<Medium> {
    let ra = *g
        .routers_at
        .get(&(a, fac_a))
        .ok_or_else(|| Error::invalid(format!("{a} lacks router at {fac_a}")))?;
    let rb = *g
        .routers_at
        .get(&(b, fac_b))
        .ok_or_else(|| Error::invalid(format!("{b} lacks router at {fac_b}")))?;
    let subnet = g.alloc_ptp(a)?;
    let lid = g.links.next_id();
    let ia = g.add_iface(ra, a, subnet.nth(0)?, IfaceKind::PrivatePtp(lid));
    let ib = g.add_iface(rb, b, subnet.nth(1)?, IfaceKind::PrivatePtp(lid));
    let id = g.links.push(Link {
        kind,
        a: EndPoint {
            asn: a,
            router: ra,
            iface: ia,
        },
        b: EndPoint {
            asn: b,
            router: rb,
            iface: ib,
        },
        ixp,
        subnet,
    });
    debug_assert_eq!(id, lid);
    Ok(Medium::Private(lid))
}

/// Creates a private interconnect between two ASes, choosing the best
/// available engineering: cross-connect at a shared facility, tethering
/// over a shared IXP (when allowed), or a long-haul private line.
fn private_link(g: &mut Gen, a: Asn, b: Asn, allow_tethering: bool) -> Result<Option<Medium>> {
    let common = common_facilities(g, a, b);
    if let Some(fac) = common.first() {
        let m = materialize(g, a, b, PeeringKind::PrivateCrossConnect, *fac, *fac, None)?;
        return Ok(Some(m));
    }

    // §2: "Cross-connects can be established between members that host
    // their network equipment in different facilities of the same
    // interconnection facility operator, if these facilities are
    // interconnected." Campus cross-connects span two buildings of one
    // metro-interconnected operator — the source of the paper's
    // "Telecity Amsterdam 1 instead of Telecity Amsterdam 2" near-misses.
    if let Some((fa, fb)) = campus_pair(g, a, b) {
        let m = materialize(g, a, b, PeeringKind::PrivateCrossConnect, fa, fb, None)?;
        return Ok(Some(m));
    }

    if allow_tethering && g.rng.random_bool(0.75) {
        // Tethering: both sides hold ports on the same IXP fabric but sit
        // in different buildings; a VLAN over the fabric joins them.
        let shared_ixp: Option<IxpId> = {
            let ia = &g.ases[&a].ixps;
            let ib = &g.ases[&b].ixps;
            ia.iter().copied().find(|i| ib.contains(i))
        };
        if let Some(ixp) = shared_ixp {
            let (fac_a, fac_b) = {
                let ma = g.ixps[ixp].member(a).expect("a is member");
                let mb = g.ixps[ixp].member(b).expect("b is member");
                (
                    g.routers[ma.router].location.facility(),
                    g.routers[mb.router].location.facility(),
                )
            };
            if let (Some(fa), Some(fb)) = (fac_a, fac_b) {
                let m = materialize(g, a, b, PeeringKind::PrivateTethering, fa, fb, Some(ixp))?;
                return Ok(Some(m));
            }
        }
    }

    // Long-haul private line between each side's first facility.
    let fa = *g.ases[&a].facilities.first().expect("presence");
    let fb = *g.ases[&b].facilities.first().expect("presence");
    let m = materialize(g, a, b, PeeringKind::PrivateRemote, fa, fb, None)?;
    Ok(Some(m))
}

/// Finds a campus pair: facility of `a` and facility of `b` run by the
/// same metro-interconnected operator in the same metro.
fn campus_pair(g: &Gen, a: Asn, b: Asn) -> Option<(FacilityId, FacilityId)> {
    for fa in &g.ases[&a].facilities {
        let fac_a = &g.facilities[*fa];
        if !g.operators[fac_a.operator].metro_interconnected {
            continue;
        }
        for fb in &g.ases[&b].facilities {
            if fa == fb {
                continue;
            }
            let fac_b = &g.facilities[*fb];
            if fac_b.operator == fac_a.operator && fac_b.metro == fac_a.metro {
                return Some((*fa, *fb));
            }
        }
    }
    None
}

/// A transit handoff. Cross-connect at a shared facility when one
/// exists; otherwise the customer usually *buys into* one of the
/// provider's buildings (extending its ground-truth presence there) —
/// long-haul off-net delivery is the minority case.
fn transit_link(g: &mut Gen, prov: Asn, cust: Asn) -> Result<Option<Medium>> {
    if !common_facilities(g, prov, cust).is_empty() || !g.rng.random_bool(0.6) {
        return private_link(g, prov, cust, false);
    }
    // Move the customer into the provider's facility nearest its home.
    let cust_home = g.routers[g.ases[&cust].routers[0]].coords;
    let target_fac = g.ases[&prov]
        .facilities
        .iter()
        .copied()
        .min_by_key(|f| g.facilities[*f].location.distance_km(cust_home) as u64)
        .expect("provider has presence");
    if !g.routers_at.contains_key(&(cust, target_fac)) {
        let coords = g.facilities[target_fac].location;
        let class = g.ases[&cust].class;
        let ipid = g.sample_ipid(class);
        g.new_router(
            cust,
            crate::model::RouterLocation::Facility(target_fac),
            coords,
            ipid,
        )?;
        let node = g.ases.get_mut(&cust).expect("exists");
        node.facilities.push(target_fac);
        node.facilities.sort();
        node.facilities.dedup();
    }
    let m = materialize(
        g,
        prov,
        cust,
        PeeringKind::PrivateCrossConnect,
        target_fac,
        target_fac,
        None,
    )?;
    Ok(Some(m))
}

// ---------------------------------------------------------------------
// Relationship generation
// ---------------------------------------------------------------------

fn transit_links(g: &mut Gen) -> Result<()> {
    let tier1s = of_class(g, AsClass::Tier1);
    let transits = of_class(g, AsClass::Transit);

    // Customer class → candidate providers and how many to pick.
    let specs: Vec<(AsClass, bool, std::ops::RangeInclusive<usize>)> = vec![
        (AsClass::Transit, true, 2..=3),  // transit buys from tier1s
        (AsClass::Cdn, true, 1..=2),      // cdn keeps tier1 backup transit
        (AsClass::Reseller, true, 1..=2), // resellers ride on tier1s
        (AsClass::Content, false, 1..=2), // content buys from transit
        (AsClass::Access, false, 1..=2),
        (AsClass::Enterprise, false, 1..=2),
    ];

    for (class, from_tier1, range) in specs {
        let customers = of_class(g, class);
        for cust in customers {
            let home = g.ases[&cust].home_region;
            let pool: Vec<Asn> = if from_tier1 {
                tier1s.clone()
            } else {
                // Prefer transit providers with footprint in the home
                // region; fall back to any transit, then tier1.
                let regional: Vec<Asn> = transits
                    .iter()
                    .copied()
                    .filter(|t| g.ases[t].home_region == home)
                    .collect();
                if regional.is_empty() {
                    transits.clone()
                } else {
                    regional
                }
            };
            let pool: Vec<Asn> = if pool.is_empty() {
                tier1s.clone()
            } else {
                pool
            };
            let n = g.rng.random_range(range.clone());
            let mut choices = pool;
            choices.retain(|p| *p != cust);
            choices.shuffle(&mut g.rng);
            for prov in choices.into_iter().take(n) {
                if g.has_adjacency(cust, prov) {
                    continue;
                }
                // 1-2 handoff locations.
                let locations = if g.rng.random_bool(0.25) { 2 } else { 1 };
                for _ in 0..locations {
                    if let Some(m) = transit_link(g, prov, cust)? {
                        g.add_adjacency(cust, prov, Rel::CustomerToProvider, m);
                    }
                }
            }
        }
    }
    Ok(())
}

fn tier1_mesh(g: &mut Gen) -> Result<()> {
    let tier1s = of_class(g, AsClass::Tier1);
    for (i, a) in tier1s.iter().enumerate() {
        for b in &tier1s[i + 1..] {
            let common = common_facilities(g, *a, *b);
            let n_locations = common.len().clamp(1, 3);
            if common.is_empty() {
                if let Some(m) = private_link(g, *a, *b, false)? {
                    g.add_adjacency(*a, *b, Rel::PeerToPeer, m);
                }
                continue;
            }
            for fac in common.into_iter().take(n_locations) {
                let m = materialize(g, *a, *b, PeeringKind::PrivateCrossConnect, fac, fac, None)?;
                g.add_adjacency(*a, *b, Rel::PeerToPeer, m);
            }
        }
    }
    Ok(())
}

fn private_peering(g: &mut Gen) -> Result<()> {
    // CDNs peer privately with the largest transit/access networks they
    // share buildings with (§5: CDNs still keep plenty of private pairs).
    let cdns = of_class(g, AsClass::Cdn);
    let peers_pool: Vec<Asn> = of_class(g, AsClass::Transit)
        .into_iter()
        .chain(of_class(g, AsClass::Access))
        .collect();

    for cdn in cdns {
        let mut scored: Vec<(usize, Asn)> = peers_pool
            .iter()
            .map(|p| (common_facilities(g, cdn, *p).len(), *p))
            .filter(|(n, p)| *n > 0 && !g.has_adjacency(cdn, *p))
            .collect();
        scored.sort_by_key(|(n, asn)| (std::cmp::Reverse(*n), *asn));
        let take = (scored.len() / 2).clamp(1, 18);
        for (_, peer) in scored.into_iter().take(take) {
            let tether = g.rng.random_bool(TETHERING_FRACTION);
            let medium = if tether {
                // Force the tethering path by pretending no shared
                // facility exists: call private_link with tethering
                // allowed only when they actually share an IXP.
                let shares_ixp = {
                    let ia = &g.ases[&cdn].ixps;
                    g.ases[&peer].ixps.iter().any(|i| ia.contains(i))
                };
                if shares_ixp {
                    tethering_link(g, cdn, peer)?
                } else {
                    private_link(g, cdn, peer, false)?
                }
            } else {
                private_link(g, cdn, peer, false)?
            };
            if let Some(m) = medium {
                g.add_adjacency(cdn, peer, Rel::PeerToPeer, m);
            }
        }
    }

    // A sprinkling of transit↔transit private peering at shared sites.
    let transits = of_class(g, AsClass::Transit);
    for (i, a) in transits.iter().enumerate() {
        for b in &transits[i + 1..] {
            if g.has_adjacency(*a, *b) || !g.rng.random_bool(0.12) {
                continue;
            }
            if common_facilities(g, *a, *b).is_empty() {
                continue;
            }
            if let Some(m) = private_link(g, *a, *b, true)? {
                g.add_adjacency(*a, *b, Rel::PeerToPeer, m);
            }
        }
    }
    Ok(())
}

/// Builds a tethering VLAN between two members of a shared IXP.
fn tethering_link(g: &mut Gen, a: Asn, b: Asn) -> Result<Option<Medium>> {
    let shared: Option<IxpId> = {
        let ia = &g.ases[&a].ixps;
        g.ases[&b].ixps.iter().copied().find(|i| ia.contains(i))
    };
    let Some(ixp) = shared else { return Ok(None) };
    let (ra, rb) = {
        let ma = g.ixps[ixp].member(a).expect("member");
        let mb = g.ixps[ixp].member(b).expect("member");
        (ma.router, mb.router)
    };
    let (fa, fb) = (
        g.routers[ra].location.facility(),
        g.routers[rb].location.facility(),
    );
    let (Some(fa), Some(fb)) = (fa, fb) else {
        return Ok(None);
    };
    let m = materialize(g, a, b, PeeringKind::PrivateTethering, fa, fb, Some(ixp))?;
    Ok(Some(m))
}

fn public_peering(g: &mut Gen) -> Result<()> {
    let ixp_ids: Vec<IxpId> = g
        .ixps
        .iter()
        .filter(|(_, x)| x.active)
        .map(|(id, _)| id)
        .collect();
    for ixp in ixp_ids {
        let members: Vec<(Asn, bool)> = g.ixps[ixp]
            .members
            .iter()
            .map(|m| (m.asn, m.uses_route_server))
            .collect();
        for (i, (a, a_rs)) in members.iter().enumerate() {
            for (b, b_rs) in &members[i + 1..] {
                if a == b || g.has_adjacency(*a, *b) {
                    continue;
                }
                let multilateral = *a_rs && *b_rs;
                let bilateral = if multilateral {
                    true
                } else {
                    let p = bilateral_prob(g.ases[a].class, g.ases[b].class);
                    g.rng.random_bool(p)
                };
                if bilateral {
                    g.add_adjacency(*a, *b, Rel::PeerToPeer, Medium::PublicIxp { ixp });
                }
            }
        }
    }
    Ok(())
}

/// Probability that two IXP members establish a bilateral public peering
/// session when at least one avoids the route server.
fn bilateral_prob(a: AsClass, b: AsClass) -> f64 {
    use AsClass::*;
    match (a, b) {
        (Cdn, _) | (_, Cdn) => 0.7,
        (Tier1, _) | (_, Tier1) => 0.15,
        (Transit, Transit) => 0.5,
        (Transit, Access) | (Access, Transit) => 0.45,
        (Access, Access) => 0.15,
        _ => 0.1,
    }
}

#[cfg(test)]
mod tests {
    use crate::config::TopologyConfig;
    use crate::model::Medium;
    use crate::topology::Topology;
    use cfs_types::{AsClass, PeeringKind, Rel};

    fn topo() -> Topology {
        Topology::generate(TopologyConfig::default()).unwrap()
    }

    #[test]
    fn every_stub_as_has_a_provider() {
        let t = topo();
        for node in t.ases.values() {
            if matches!(
                node.class,
                AsClass::Access | AsClass::Enterprise | AsClass::Content
            ) {
                let has_provider = t
                    .adjacencies_of(node.asn)
                    .any(|adj| adj.rel == Rel::CustomerToProvider && adj.a == node.asn);
                assert!(has_provider, "{} has no provider", node.asn);
            }
        }
    }

    #[test]
    fn tier1s_form_a_peering_mesh() {
        let t = topo();
        let tier1s: Vec<_> = t
            .ases
            .values()
            .filter(|n| n.class == AsClass::Tier1)
            .map(|n| n.asn)
            .collect();
        for (i, a) in tier1s.iter().enumerate() {
            for b in &tier1s[i + 1..] {
                let adj = t.adjacency(*a, *b).expect("tier1 pair not connected");
                assert_eq!(adj.rel, Rel::PeerToPeer);
            }
        }
    }

    #[test]
    fn cross_connect_endpoints_share_a_facility_cluster() {
        let t = topo();
        let mut seen = 0;
        for link in t.links.values() {
            if link.kind == PeeringKind::PrivateCrossConnect {
                seen += 1;
                let fa = t.router_facility(link.a.router).unwrap();
                let fb = t.router_facility(link.b.router).unwrap();
                if fa != fb {
                    // Campus cross-connect: same metro-interconnected
                    // operator, same metro (§2).
                    let (fac_a, fac_b) = (&t.facilities[fa], &t.facilities[fb]);
                    assert_eq!(fac_a.operator, fac_b.operator, "cross-operator x-connect");
                    assert_eq!(fac_a.metro, fac_b.metro, "cross-metro x-connect");
                    assert!(t.operators[fac_a.operator].metro_interconnected);
                }
            }
        }
        assert!(seen > 10, "too few cross-connects: {seen}");
    }

    #[test]
    fn tethering_links_reference_their_ixp() {
        let t = topo();
        let mut seen = 0;
        for link in t.links.values() {
            if link.kind == PeeringKind::PrivateTethering {
                seen += 1;
                let ixp = link.ixp.expect("tethering without ixp");
                assert!(t.ixps.get(ixp).is_some());
            } else if link.kind != PeeringKind::PrivateTethering {
                // Non-tethering links never reference a fabric.
                if link.kind != PeeringKind::PrivateTethering {
                    assert!(link.ixp.is_none() || link.kind == PeeringKind::PrivateTethering);
                }
            }
        }
        assert!(seen > 0, "no tethering links generated");
    }

    #[test]
    fn ptp_subnets_come_from_side_a() {
        let t = topo();
        for link in t.links.values() {
            let a_block = t.ases[&link.a.asn].prefixes[0];
            assert!(
                a_block.covers(link.subnet),
                "link subnet {} outside {}'s block",
                link.subnet,
                link.a.asn
            );
            // Which means side b's interface resolves to AS a in BGP — the
            // §4.1 contamination.
            let db = t.build_ipasn_db();
            let b_ip = t.ifaces[link.b.iface].ip;
            assert_eq!(db.origin(b_ip), Some(link.a.asn));
        }
    }

    #[test]
    fn public_adjacencies_exist_via_ixps() {
        let t = topo();
        let public = t
            .adjacencies
            .iter()
            .filter(|adj| {
                adj.mediums
                    .iter()
                    .any(|m| matches!(m, Medium::PublicIxp { .. }))
            })
            .count();
        assert!(public > 50, "too few public adjacencies: {public}");
    }

    #[test]
    fn no_peer_adjacency_duplicates_transit() {
        let t = topo();
        for adj in &t.adjacencies {
            let reverse = t.adjacencies.iter().any(|o| o.a == adj.b && o.b == adj.a);
            assert!(
                !reverse,
                "both orientations present for {}-{}",
                adj.a, adj.b
            );
        }
    }
}
