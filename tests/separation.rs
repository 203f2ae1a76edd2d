//! The substitution discipline: inference inputs are *views* of ground
//! truth with realistic damage, never the truth itself. These tests pin
//! the boundary.

use cfs::prelude::*;

fn world() -> (Topology, PublicSources, KnowledgeBase) {
    let topo = Topology::generate(TopologyConfig::default()).unwrap();
    let sources = PublicSources::derive(&topo, &KbConfig::default());
    let kb = KnowledgeBase::assemble(&sources, &topo.world);
    (topo, sources, kb)
}

#[test]
fn knowledge_base_is_a_lossy_subset_of_truth() {
    let (topo, _sources, kb) = world();
    let mut kb_links = 0usize;
    let mut truth_links = 0usize;
    for node in topo.ases.values() {
        let known = kb.facilities_of_as(node.asn);
        // Soundness: the KB never invents presence.
        for f in &known {
            assert!(node.facilities.contains(f), "{} invented at {f}", node.asn);
        }
        kb_links += known.len();
        truth_links += node.facilities.len();
    }
    // Lossiness: volunteer data misses a real share of links.
    assert!(
        kb_links < truth_links,
        "no incompleteness: {kb_links} = {truth_links}"
    );
    assert!(
        kb_links * 100 > truth_links * 60,
        "kb implausibly empty: {kb_links}/{truth_links}"
    );
}

#[test]
fn ip_to_asn_database_carries_the_documented_contamination() {
    let (topo, _sources, _kb) = world();
    let db = topo.build_ipasn_db();
    // Point-to-point far ends map to the allocating AS, not the operator.
    let mut contaminated = 0usize;
    for link in topo.links.values() {
        let b_ip = topo.ifaces[link.b.iface].ip;
        let mapped = db.origin(b_ip);
        assert_eq!(mapped, Some(link.a.asn), "ptp subnet must map to side a");
        if link.a.asn != link.b.asn {
            contaminated += 1;
        }
    }
    assert!(
        contaminated > 50,
        "too few contaminated interfaces: {contaminated}"
    );
}

#[test]
fn traceroute_only_reveals_interface_addresses() {
    let (topo, _sources, _kb) = world();
    let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
    let engine = Engine::new(&topo);
    let target = topo.target_ip(Asn(15169)).unwrap();
    for id in vps.ids().take(40) {
        let trace = engine.trace(&vps.vps[id], target, 0);
        for hop in &trace.hops {
            let Some(ip) = hop.ip else { continue };
            // Every hop address is a real interface or the target host.
            assert!(
                ip == target || topo.iface_by_ip(ip).is_some(),
                "trace leaked a non-interface address {ip}"
            );
        }
    }
}

#[test]
fn detailed_ixp_sites_cover_only_a_handful_of_exchanges() {
    let (_topo, sources, _kb) = world();
    let detailed = sources.ixp_sites.values().filter(|s| s.detailed).count();
    assert_eq!(detailed, cfs::kb::DETAILED_IXP_SITES);
    let with_port_facilities = sources
        .ixp_sites
        .values()
        .filter(|s| s.members.iter().any(|m| m.facility.is_some()))
        .count();
    assert_eq!(
        detailed, with_port_facilities,
        "ordinary sites must not leak port data"
    );
}

#[test]
fn remote_memberships_exist_at_scale() {
    let (topo, _sources, _kb) = world();
    let (mut remote, mut total) = (0usize, 0usize);
    for ixp in topo.ixps.values() {
        for m in &ixp.members {
            total += 1;
            remote += usize::from(m.remote_via.is_some());
        }
    }
    assert!(total > 100);
    let frac = remote as f64 / total as f64;
    // Configured at 18%; allow sampling slack either way.
    assert!(
        (0.03..0.40).contains(&frac),
        "remote membership fraction {frac}"
    );
}
