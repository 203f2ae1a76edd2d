//! Phase 3: autonomous systems — skeletons, sibling pairs, facility
//! footprints, routers, and IXP memberships.

use std::collections::BTreeMap;

use rand::seq::SliceRandom;
use rand::Rng;

use cfs_types::{AsClass, Asn, Error, FacilityId, IxpId, Region, Result};

use crate::model::{AsNode, DnsStyle, IfaceKind, IxpMembership, RouterLocation};
use crate::names::{as_name, asn_base, PAPER_TARGETS};

use super::addressing::AsAddressPlan;
use super::{weighted_index, Gen};

/// Fraction of access and content networks that reach an exchange
/// through a reseller rather than a local port (the paper cites ~20% of
/// AMS-IX members in 2013); transit networks do at half this rate.
const REMOTE_PEERING_FRACTION: f64 = 0.18;

/// Fraction of transit and access networks that share address space
/// with a sibling, producing IP-to-ASN conflicts (§4.1).
const SIBLING_FRACTION: f64 = 0.06;

/// Home-region draw weights (Atlas-era Internet: Europe/NA heavy).
const HOME_REGION_WEIGHTS: [f64; 6] = [0.28, 0.36, 0.15, 0.07, 0.08, 0.06];

/// Class creation order: resellers first so remote peering can ride on
/// their memberships.
const CLASS_ORDER: [AsClass; 7] = [
    AsClass::Reseller,
    AsClass::Tier1,
    AsClass::Transit,
    AsClass::Cdn,
    AsClass::Content,
    AsClass::Access,
    AsClass::Enterprise,
];

pub(super) fn build(g: &mut Gen) -> Result<()> {
    create_skeletons(g)?;
    assign_siblings(g);
    assign_footprints_and_routers(g)?;
    assign_memberships(g)?;
    // Canonical member order inside each IXP.
    for (_, ixp) in g.ixps.iter_mut() {
        ixp.members.sort_by_key(|m| m.asn);
    }
    Ok(())
}

fn class_count(g: &Gen, class: AsClass) -> usize {
    match class {
        AsClass::Tier1 => g.cfg.tier1_count,
        AsClass::Transit => g.cfg.transit_count,
        AsClass::Cdn => g.cfg.cdn_count,
        AsClass::Content => g.cfg.content_count,
        AsClass::Access => g.cfg.access_count,
        AsClass::Enterprise => g.cfg.enterprise_count,
        AsClass::Reseller => g.cfg.reseller_count,
    }
}

fn create_skeletons(g: &mut Gen) -> Result<()> {
    for class in CLASS_ORDER {
        let count = class_count(g, class);
        // Paper-target identities take the first slots of their class.
        let targets: Vec<(u32, &str)> = if g.cfg.named_targets {
            PAPER_TARGETS
                .iter()
                .filter(|(_, _, c)| *c == class)
                .map(|(a, n, _)| (*a, *n))
                .collect()
        } else {
            Vec::new()
        };

        for i in 0..count {
            let (asn, name) = match targets.get(i) {
                Some((a, n)) => (Asn(*a), (*n).to_string()),
                None => (Asn(asn_base(class) + i as u32), as_name(class, i)),
            };
            let home_region = sample_home_region(g, class);
            let plan = AsAddressPlan::new(g.as_pool.alloc()?)?;
            let primary = plan.primary;
            let dns_style = sample_dns_style(g, class, asn);
            g.plans.insert(asn, plan);
            // Large networks announce several blocks (the paper tracks
            // "a list of their IP prefixes … in some cases a content
            // provider uses more than one ASN/prefix").
            let mut prefixes = vec![primary];
            let extra = match class {
                AsClass::Cdn => g.rng.random_range(1..=3),
                AsClass::Tier1 => g.rng.random_range(1..=2),
                AsClass::Transit => usize::from(g.rng.random_bool(0.3)),
                _ => 0,
            };
            for _ in 0..extra {
                prefixes.push(g.as_pool.alloc()?);
            }
            g.ases.insert(
                asn,
                AsNode {
                    asn,
                    name,
                    class,
                    home_region,
                    prefixes,
                    facilities: Vec::new(),
                    ixps: Vec::new(),
                    routers: Vec::new(),
                    dns_style,
                    sibling: None,
                },
            );
        }
    }
    Ok(())
}

fn sample_home_region(g: &mut Gen, class: AsClass) -> Region {
    // Globals skew toward the big interconnection markets.
    let weights = match class {
        AsClass::Tier1 | AsClass::Cdn => [0.45, 0.40, 0.10, 0.02, 0.02, 0.01],
        _ => HOME_REGION_WEIGHTS,
    };
    Region::ALL[weighted_index(&mut g.rng, &weights)]
}

fn sample_dns_style(g: &mut Gen, class: AsClass, asn: Asn) -> DnsStyle {
    // The Google-like CDN famously has no PTR records on peering
    // interfaces (§7: "DNS entries are not available for many IP
    // addresses involved in interconnections, including Google's").
    if asn == Asn(15169) {
        return DnsStyle::None;
    }
    let x: f64 = g.rng.random();
    match class {
        AsClass::Cdn => {
            if x < 0.6 {
                DnsStyle::None
            } else {
                DnsStyle::Opaque
            }
        }
        AsClass::Tier1 => {
            if x < 0.30 {
                DnsStyle::FacilityCoded
            } else if x < 0.70 {
                DnsStyle::CityCoded
            } else {
                DnsStyle::Opaque
            }
        }
        AsClass::Transit => {
            if x < 0.25 {
                DnsStyle::FacilityCoded
            } else if x < 0.60 {
                DnsStyle::CityCoded
            } else if x < 0.90 {
                DnsStyle::Opaque
            } else {
                DnsStyle::None
            }
        }
        AsClass::Content => {
            if x < 0.5 {
                DnsStyle::Opaque
            } else if x < 0.8 {
                DnsStyle::None
            } else {
                DnsStyle::CityCoded
            }
        }
        AsClass::Access => {
            if x < 0.40 {
                DnsStyle::Opaque
            } else if x < 0.65 {
                DnsStyle::CityCoded
            } else {
                DnsStyle::None
            }
        }
        AsClass::Enterprise => {
            if x < 0.6 {
                DnsStyle::None
            } else {
                DnsStyle::Opaque
            }
        }
        AsClass::Reseller => DnsStyle::Opaque,
    }
}

fn assign_siblings(g: &mut Gen) {
    // Pair up a fraction of transit/access ASes as siblings sharing
    // infrastructure address space (§4.1 IP-to-ASN conflicts).
    let candidates: Vec<Asn> = g
        .ases
        .values()
        .filter(|n| matches!(n.class, AsClass::Transit | AsClass::Access))
        .map(|n| n.asn)
        .collect();
    let n_pairs = ((candidates.len() as f64 * SIBLING_FRACTION) / 2.0).round() as usize;
    let mut pool = candidates;
    pool.shuffle(&mut g.rng);
    for pair in pool.chunks(2).take(n_pairs) {
        if let [a, b] = pair {
            g.ases.get_mut(a).expect("exists").sibling = Some(*b);
            g.ases.get_mut(b).expect("exists").sibling = Some(*a);
            // `b` draws backbone addresses from `a`'s plan.
            g.infra_source.insert(*b, *a);
        }
    }
}

/// Scale factor relating this config's facility budget to the paper's
/// dataset; AS footprints shrink proportionally at smaller scales.
fn footprint_scale(g: &Gen) -> f64 {
    (g.cfg.facility_budget as f64 / 1694.0).clamp(0.05, 2.0)
}

fn assign_footprints_and_routers(g: &mut Gen) -> Result<()> {
    let asns: Vec<Asn> = g.ases.keys().copied().collect();
    let s = footprint_scale(g);

    for asn in asns {
        let (class, home) = {
            let n = &g.ases[&asn];
            (n.class, n.home_region)
        };
        let facilities = match class {
            AsClass::Tier1 => {
                let n = (40.0 * s) as usize + g.rng.random_range(4..12);
                sample_global(g, n)
            }
            AsClass::Cdn => {
                let n = (34.0 * s) as usize + g.rng.random_range(3..10);
                sample_global(g, n)
            }
            AsClass::Transit => {
                let n = ((8.0 * s) as usize + g.rng.random_range(2..6)).max(2);
                sample_regional(g, home, n, 0.8)
            }
            AsClass::Content => {
                let n = g.rng.random_range(1..=4);
                sample_regional(g, home, n, 0.9)
            }
            AsClass::Access => {
                let n = g.rng.random_range(1..=3);
                sample_regional(g, home, n, 1.0)
            }
            AsClass::Enterprise => {
                let n = g.rng.random_range(1..=2);
                sample_regional(g, home, n, 1.0)
            }
            AsClass::Reseller => sample_big_ixp_facilities(g, 4 + (8.0 * s) as usize),
        };

        let mut facilities = facilities;
        facilities.sort();
        facilities.dedup();

        // One border router per facility of presence.
        for fac in &facilities {
            let coords = g.facilities[*fac].location;
            let ipid = g.sample_ipid(class);
            g.new_router(asn, RouterLocation::Facility(*fac), coords, ipid)?;
        }
        g.ases.get_mut(&asn).expect("exists").facilities = facilities;

        // Access networks also run aggregation PoPs outside any listed
        // facility (where home-probe vantage points attach).
        if class == AsClass::Access {
            let n_pops = g.rng.random_range(1..=2);
            let cities = g.world.cities_in_region(home);
            for _ in 0..n_pops {
                let city = cities[g.rng.random_range(0..cities.len())];
                let coords = g.world.city(city).location;
                let ipid = g.sample_ipid(class);
                g.new_router(asn, RouterLocation::PopCity(city), coords, ipid)?;
            }
        }
    }
    Ok(())
}

/// Samples `n` facilities world-wide, uniformly (hub metros naturally
/// dominate because they contain more facilities). Carrier-operated
/// (non-neutral) facilities are retried once, biasing toward neutral ones.
fn sample_global(g: &mut Gen, n: usize) -> Vec<FacilityId> {
    let total = g.facilities.len();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n.max(1) {
        let mut pick = FacilityId::new(g.rng.random_range(0..total) as u32);
        if !g.facilities[pick].carrier_neutral {
            pick = FacilityId::new(g.rng.random_range(0..total) as u32);
        }
        out.push(pick);
    }
    out
}

/// Samples `n` facilities, a fraction `home_bias` of them from the home
/// region.
fn sample_regional(g: &mut Gen, home: Region, n: usize, home_bias: f64) -> Vec<FacilityId> {
    let home_facs: Vec<FacilityId> = g
        .facilities
        .iter()
        .filter(|(_, f)| f.region == home)
        .map(|(id, _)| id)
        .collect();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n.max(1) {
        if !home_facs.is_empty() && g.rng.random_bool(home_bias) {
            out.push(home_facs[g.rng.random_range(0..home_facs.len())]);
        } else {
            out.push(FacilityId::new(
                g.rng.random_range(0..g.facilities.len()) as u32
            ));
        }
    }
    out
}

/// Resellers colocate at the primary facilities of the largest exchanges.
fn sample_big_ixp_facilities(g: &mut Gen, n: usize) -> Vec<FacilityId> {
    let mut ixps: Vec<IxpId> = g
        .ixps
        .iter()
        .filter(|(_, x)| x.active)
        .map(|(id, _)| id)
        .collect();
    ixps.sort_by_key(|id| std::cmp::Reverse(g.ixps[*id].facilities.len()));
    ixps.into_iter()
        .take(n.max(1))
        .map(|id| g.ixps[id].facilities[0])
        .collect()
}

// ---------------------------------------------------------------------
// IXP memberships
// ---------------------------------------------------------------------

fn assign_memberships(g: &mut Gen) -> Result<()> {
    // Facility → active IXPs partnering with it.
    let mut partner_index: BTreeMap<FacilityId, Vec<IxpId>> = BTreeMap::new();
    for (id, ixp) in g.ixps.iter() {
        if !ixp.active {
            continue;
        }
        for f in &ixp.facilities {
            partner_index.entry(*f).or_default().push(id);
        }
    }

    // Resellers first (remote members need them), then everyone else.
    let mut roster: Vec<Asn> = g.ases.keys().copied().collect();
    roster.sort_by_key(|asn| {
        let class = g.ases[asn].class;
        (
            CLASS_ORDER
                .iter()
                .position(|c| *c == class)
                .expect("class listed"),
            *asn,
        )
    });

    let s_ixp = (g.cfg.ixp_budget as f64 / 368.0).clamp(0.05, 2.0);

    for asn in roster {
        let class = g.ases[&asn].class;
        let target = match class {
            AsClass::Reseller => usize::MAX, // join everywhere they colocated
            AsClass::Cdn => ((24.0 * s_ixp) as usize + g.rng.random_range(2..8)).max(3),
            AsClass::Tier1 => g.rng.random_range(4..=10),
            AsClass::Transit => g.rng.random_range(3..=(3 + (9.0 * s_ixp) as usize).max(4)),
            AsClass::Content => g.rng.random_range(1..=3),
            AsClass::Access => g.rng.random_range(1..=3),
            AsClass::Enterprise => {
                if g.rng.random_bool(0.3) {
                    1
                } else {
                    0
                }
            }
        };
        if target == 0 {
            continue;
        }

        // Local candidates: active IXPs partnered with a presence
        // facility. Each exchange is joined at the AS's presence facility
        // shared with the *most* of its other candidate exchanges —
        // networks consolidate ports onto one router where they can,
        // which is what makes 11.9% of the paper's public-peering routers
        // span several exchanges.
        let mut options: BTreeMap<IxpId, Vec<FacilityId>> = BTreeMap::new();
        for fac in &g.ases[&asn].facilities {
            if let Some(ixps) = partner_index.get(fac) {
                for i in ixps {
                    options.entry(*i).or_default().push(*fac);
                }
            }
        }
        let mut fac_popularity: BTreeMap<FacilityId, usize> = BTreeMap::new();
        for facs in options.values() {
            for f in facs {
                *fac_popularity.entry(*f).or_default() += 1;
            }
        }
        let mut locals: Vec<(IxpId, FacilityId)> = options
            .iter()
            .map(|(ixp, facs)| {
                let best = facs
                    .iter()
                    .copied()
                    .max_by_key(|f| (fac_popularity[f], std::cmp::Reverse(f.raw())))
                    .expect("non-empty facility list");
                (*ixp, best)
            })
            .collect();
        // Large exchanges first — where the peers are.
        locals.sort_by_key(|(i, _)| std::cmp::Reverse(g.ixps[*i].facilities.len()));

        let mut joined = 0usize;
        for (ixp, fac) in locals {
            if joined >= target {
                break;
            }
            join_local(g, asn, ixp, fac, true)?;
            joined += 1;
            // Second port at another partner facility (the Figure 6 toy:
            // one member reachable at two buildings of the same fabric) —
            // infrastructure-heavy members dual-home their IXP presence
            // for redundancy, buying into a second building if needed.
            let dual_homes = matches!(class, AsClass::Cdn | AsClass::Transit | AsClass::Tier1)
                && g.rng.random_bool(0.35);
            if dual_homes {
                let second = g.ases[&asn]
                    .facilities
                    .iter()
                    .copied()
                    .find(|f| *f != fac && g.ixps[ixp].facilities.contains(f))
                    .or_else(|| {
                        // Extend presence into another partner building.
                        g.ixps[ixp].facilities.iter().copied().find(|f| *f != fac)
                    });
                if let Some(f2) = second {
                    if !g.routers_at.contains_key(&(asn, f2)) {
                        let coords = g.facilities[f2].location;
                        let ipid = g.sample_ipid(class);
                        let _ = g.new_router(asn, RouterLocation::Facility(f2), coords, ipid)?;
                        let node = g.ases.get_mut(&asn).expect("exists");
                        node.facilities.push(f2);
                        node.facilities.sort();
                        node.facilities.dedup();
                    }
                    join_local(g, asn, ixp, f2, false)?;
                }
            }
        }

        // Remote peering: reach a distant exchange through a reseller.
        let wants_remote = match class {
            AsClass::Access | AsClass::Content => g.rng.random_bool(REMOTE_PEERING_FRACTION),
            AsClass::Transit => g.rng.random_bool(REMOTE_PEERING_FRACTION / 2.0),
            AsClass::Cdn => g.rng.random_bool(0.1),
            _ => false,
        };
        if wants_remote || (joined == 0 && target > 0 && class == AsClass::Access) {
            let _ = join_remote(g, asn);
        }
    }
    Ok(())
}

fn join_local(g: &mut Gen, asn: Asn, ixp: IxpId, fac: FacilityId, primary: bool) -> Result<()> {
    if primary && g.ixps[ixp].member(asn).is_some() {
        return Ok(());
    }
    let router = *g
        .routers_at
        .get(&(asn, fac))
        .ok_or_else(|| Error::invalid(format!("{asn} has no router at {fac}")))?;
    let fabric_ip = g
        .fabric
        .get_mut(&ixp)
        .ok_or_else(|| Error::not_found("fabric alloc", ixp))?
        .alloc()?;
    let iface = g.add_iface(router, asn, fabric_ip, IfaceKind::IxpFabric(ixp));
    let access_switch = access_switch_at(g, ixp, fac)?;
    let uses_route_server = match g.ixps[ixp].member(asn) {
        // Secondary ports inherit the member's session setup.
        Some(existing) => existing.uses_route_server,
        None => g.ixps[ixp].has_route_server && sample_rs(g, asn),
    };
    g.ixps[ixp].members.push(IxpMembership {
        asn,
        fabric_ip,
        router,
        iface,
        access_switch,
        remote_via: None,
        uses_route_server,
    });
    if primary {
        g.ases.get_mut(&asn).expect("exists").ixps.push(ixp);
    }
    Ok(())
}

fn join_remote(g: &mut Gen, asn: Asn) -> Result<()> {
    let home = g.ases[&asn].home_region;
    // Candidate exchanges: active, has at least one reseller member, and
    // far from home (that is the point of remote peering — and what the
    // RTT test of §4.2 can detect).
    let candidates: Vec<(IxpId, Asn)> = g
        .ixps
        .iter()
        .filter(|(_, x)| x.active && x.region != home)
        .filter_map(|(id, x)| {
            x.members
                .iter()
                .find(|m| g.ases[&m.asn].class == AsClass::Reseller && m.remote_via.is_none())
                .map(|m| (id, m.asn))
        })
        .filter(|(id, _)| !g.ases[&asn].ixps.contains(id))
        .collect();
    let Some(&(ixp, reseller)) = candidates.get(g.rng.random_range(0..candidates.len().max(1)))
    else {
        return Ok(()); // no reseller reachable; skip silently
    };

    // The member's router stays wherever the AS already is: its first
    // router (facility or PoP) — far from the IXP.
    let router = *g.ases[&asn]
        .routers
        .first()
        .ok_or_else(|| Error::invalid(format!("{asn} has no router for remote peering")))?;
    let fabric_ip = g
        .fabric
        .get_mut(&ixp)
        .ok_or_else(|| Error::not_found("fabric alloc", ixp))?
        .alloc()?;
    let iface = g.add_iface(router, asn, fabric_ip, IfaceKind::IxpFabric(ixp));
    let reseller_switch = g.ixps[ixp]
        .member(reseller)
        .expect("reseller is a member")
        .access_switch;
    let uses_route_server = g.ixps[ixp].has_route_server && sample_rs(g, asn);
    g.ixps[ixp].members.push(IxpMembership {
        asn,
        fabric_ip,
        router,
        iface,
        access_switch: reseller_switch,
        remote_via: Some(reseller),
        uses_route_server,
    });
    g.ases.get_mut(&asn).expect("exists").ixps.push(ixp);
    Ok(())
}

fn sample_rs(g: &mut Gen, asn: Asn) -> bool {
    let p = match g.ases[&asn].class {
        AsClass::Cdn | AsClass::Access | AsClass::Content => 0.9,
        AsClass::Transit => 0.6,
        AsClass::Tier1 => 0.25,
        AsClass::Enterprise => 0.8,
        AsClass::Reseller => 0.5,
    };
    g.rng.random_bool(p)
}

/// The access switch of `ixp` at `fac`.
fn access_switch_at(g: &Gen, ixp: IxpId, fac: FacilityId) -> Result<cfs_types::SwitchId> {
    g.ixps[ixp]
        .switches
        .iter()
        .copied()
        .find(|s| {
            let sw = &g.switches[*s];
            sw.role == crate::model::SwitchRole::Access && sw.facility == fac
        })
        .ok_or_else(|| Error::invalid(format!("{ixp} has no access switch at {fac}")))
}

#[cfg(test)]
mod tests {
    use crate::config::TopologyConfig;
    use crate::topology::Topology;
    use cfs_types::{AsClass, Asn};

    fn topo() -> Topology {
        Topology::generate(TopologyConfig::default()).unwrap()
    }

    #[test]
    fn paper_targets_exist_with_identities() {
        let t = topo();
        let google = t.as_node(Asn(15169)).unwrap();
        assert_eq!(google.class, AsClass::Cdn);
        assert_eq!(google.dns_style, crate::model::DnsStyle::None);
        let level3 = t.as_node(Asn(3356)).unwrap();
        assert_eq!(level3.class, AsClass::Tier1);
        assert!(level3.facilities.len() > 5, "tier1 footprint too small");
    }

    #[test]
    fn class_counts_match_config() {
        let t = topo();
        for class in AsClass::ALL {
            let want = match class {
                AsClass::Tier1 => t.config.tier1_count,
                AsClass::Transit => t.config.transit_count,
                AsClass::Cdn => t.config.cdn_count,
                AsClass::Content => t.config.content_count,
                AsClass::Access => t.config.access_count,
                AsClass::Enterprise => t.config.enterprise_count,
                AsClass::Reseller => t.config.reseller_count,
            };
            let got = t.ases.values().filter(|n| n.class == class).count();
            assert_eq!(got, want, "{class}");
        }
    }

    #[test]
    fn every_as_has_presence_and_routers() {
        let t = topo();
        for node in t.ases.values() {
            assert!(
                !node.facilities.is_empty(),
                "{} has no facilities",
                node.asn
            );
            assert!(!node.routers.is_empty(), "{} has no routers", node.asn);
            // One router per facility of presence.
            for fac in &node.facilities {
                assert!(
                    node.routers
                        .iter()
                        .any(|r| t.router_facility(*r) == Some(*fac)),
                    "{} missing router at {fac}",
                    node.asn
                );
            }
        }
    }

    #[test]
    fn membership_shapes_match_paper() {
        let t = topo();
        // 54% of ASes at >1 IXP, 66% at >1 facility (§3.1.2) — we accept
        // broad agreement.
        let total = t.ases.len() as f64;
        let multi_fac = t.ases.values().filter(|n| n.facilities.len() > 1).count() as f64 / total;
        assert!(multi_fac > 0.35, "multi-facility share {multi_fac}");
        let member_counts: usize = t.ixps.values().map(|x| x.members.len()).sum();
        assert!(
            member_counts > t.ases.len() / 2,
            "too few memberships: {member_counts}"
        );
    }

    #[test]
    fn remote_members_exist_and_sit_far_from_ixp() {
        let t = topo();
        let mut remote = 0;
        for ixp in t.ixps.values() {
            for m in &ixp.members {
                if let Some(reseller) = m.remote_via {
                    remote += 1;
                    assert_eq!(t.ases[&reseller].class, AsClass::Reseller);
                    // The member's router is not at any partner facility.
                    let rf = t.router_facility(m.router);
                    assert!(
                        rf.is_none() || !ixp.facilities.contains(&rf.unwrap()),
                        "remote member router colocated with the ixp"
                    );
                }
            }
        }
        assert!(remote > 0, "no remote memberships generated");
    }

    #[test]
    fn fabric_ips_unique_within_ixp() {
        let t = topo();
        for ixp in t.ixps.values() {
            let mut ips: Vec<_> = ixp.members.iter().map(|m| m.fabric_ip).collect();
            let before = ips.len();
            ips.sort();
            ips.dedup();
            assert_eq!(ips.len(), before);
        }
    }

    #[test]
    fn siblings_share_infrastructure_space() {
        let t = topo();
        let pair = t.ases.values().find(|n| n.sibling.is_some());
        let Some(node) = pair else {
            // Small configs may round to zero pairs; tolerate but note.
            return;
        };
        let sib = node.sibling.unwrap();
        assert_eq!(t.ases[&sib].sibling, Some(node.asn));
    }

    #[test]
    fn cdns_join_more_ixps_than_enterprises() {
        let t = topo();
        let avg = |class: AsClass| {
            let v: Vec<usize> = t
                .ases
                .values()
                .filter(|n| n.class == class)
                .map(|n| n.ixps.len())
                .collect();
            v.iter().sum::<usize>() as f64 / v.len().max(1) as f64
        };
        assert!(avg(AsClass::Cdn) > avg(AsClass::Enterprise));
        assert!(avg(AsClass::Cdn) > avg(AsClass::Tier1));
    }

    #[test]
    fn inactive_ixps_have_no_members() {
        let t = topo();
        for ixp in t.ixps.values() {
            if !ixp.active {
                assert!(ixp.members.is_empty());
            }
        }
    }
}
