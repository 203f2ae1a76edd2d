//! Phase 2: Internet exchange points and their switch hierarchies.
//!
//! IXPs are apportioned to metros in proportion to facility count (the
//! paper observes ~3 facilities per IXP in a metro, §3.1.2). Each IXP
//! partners with a subset of its metro's facilities: the core switch sits
//! at the primary facility, access switches at every partner facility,
//! and — for exchanges spanning more than four buildings — backhaul
//! switches aggregate access switches as in Figure 6.

use rand::seq::SliceRandom;
use rand::Rng;

use cfs_net::HostAllocator;
use cfs_types::{FacilityId, MetroId, Result, SwitchId};

use crate::model::{Ixp, Switch, SwitchRole};
use crate::names::ixp_name;

use super::{apportion, Gen};

/// Fraction of generated IXPs that are defunct but still present in
/// databases (PCH marks them inactive; the KB assembly filters them).
const INACTIVE_IXP_FRACTION: f64 = 0.05;

pub(super) fn build(g: &mut Gen) -> Result<()> {
    // Metro weights = facility counts; metros without facilities get none.
    let metros: Vec<MetroId> = g.facs_by_metro.keys().copied().collect();
    let weights: Vec<f64> = metros
        .iter()
        .map(|m| g.facs_by_metro[m].len() as f64)
        .collect();
    let mut counts = apportion(g.cfg.ixp_budget, &weights);

    // No metro hosts more IXPs than facilities; redistribute overflow to
    // the largest metros.
    let mut overflow = 0usize;
    for (i, m) in metros.iter().enumerate() {
        let cap = g.facs_by_metro[m].len();
        if counts[i] > cap {
            overflow += counts[i] - cap;
            counts[i] = cap;
        }
    }
    if overflow > 0 {
        let mut order: Vec<usize> = (0..metros.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(g.facs_by_metro[&metros[i]].len()));
        'outer: loop {
            for &i in &order {
                if overflow == 0 {
                    break 'outer;
                }
                if counts[i] < g.facs_by_metro[&metros[i]].len() {
                    counts[i] += 1;
                    overflow -= 1;
                }
            }
            if overflow > 0
                && order
                    .iter()
                    .all(|&i| counts[i] >= g.facs_by_metro[&metros[i]].len())
            {
                break; // every metro saturated; drop the remainder
            }
        }
    }

    for (metro, count) in metros.into_iter().zip(counts) {
        for ordinal in 0..count {
            build_ixp(g, metro, ordinal)?;
        }
    }
    Ok(())
}

fn build_ixp(g: &mut Gen, metro: MetroId, ordinal: usize) -> Result<()> {
    let metro_name = g.world.metro(metro).name.clone();
    let region = g.world.metro(metro).region;
    let all_facs = g.facs_by_metro[&metro].clone();

    // Partner facility count: the metro's first IXP is the big one and
    // takes most of the market; later IXPs are smaller. DE-CIX-like
    // exchanges span up to 18 facilities.
    let max_span = all_facs.len().min(18);
    let span = if ordinal == 0 {
        // Biased high: the incumbent exchange covers 40-100% of the metro.
        let lo = (max_span as f64 * 0.4).ceil() as usize;
        g.rng.random_range(lo.clamp(1, max_span)..=max_span)
    } else {
        g.rng.random_range(1..=max_span.min(4))
    };

    // Exchanges deploy where interconnection already happens: partner
    // facilities are drawn with weight 1 + (access switches already
    // there), concentrating fabrics in the same key buildings — the
    // precondition for the paper's multi-IXP routers (§5: 11.9% of
    // public-peering routers span several exchanges through one
    // cross-IXP facility).
    let mut pool = all_facs;
    pool.shuffle(&mut g.rng);
    let switch_load = |g: &Gen, f: FacilityId| -> usize {
        g.switches
            .values()
            .filter(|s| s.facility == f && s.role == SwitchRole::Access)
            .count()
    };
    let mut partners: Vec<FacilityId> = Vec::with_capacity(span);
    for _ in 0..span {
        let weights: Vec<f64> = pool
            .iter()
            .map(|f| 1.0 + 2.0 * switch_load(g, *f) as f64)
            .collect();
        let idx = super::weighted_index(&mut g.rng, &weights);
        partners.push(pool.swap_remove(idx));
    }
    partners.sort();

    let ixp_id = g.ixps.next_id();
    // Core switch at the primary (first) facility.
    let primary = partners[0];
    let core = g.switches.push(Switch {
        ixp: ixp_id,
        role: SwitchRole::Core,
        facility: primary,
        parent: None,
    });
    let mut switches = vec![core];

    // Backhaul layer only for large exchanges (Figure 6).
    let use_backhaul = partners.len() > 4;
    let mut backhauls: Vec<SwitchId> = Vec::new();
    if use_backhaul {
        let n_backhaul = partners.len().div_ceil(3).min(4);
        for i in 0..n_backhaul {
            let bh_fac = partners[(i * partners.len()) / n_backhaul];
            let bh = g.switches.push(Switch {
                ixp: ixp_id,
                role: SwitchRole::Backhaul,
                facility: bh_fac,
                parent: Some(core),
            });
            backhauls.push(bh);
            switches.push(bh);
        }
    }

    // One access switch per partner facility.
    for (i, fac) in partners.iter().enumerate() {
        let parent = if use_backhaul {
            backhauls[i % backhauls.len()]
        } else {
            core
        };
        let sw = g.switches.push(Switch {
            ixp: ixp_id,
            role: SwitchRole::Access,
            facility: *fac,
            parent: Some(parent),
        });
        switches.push(sw);
    }

    let peering_lan = g.ixp_pool.alloc()?;
    let active = !g.rng.random_bool(INACTIVE_IXP_FRACTION);
    let has_route_server = g.rng.random_bool(0.8);

    let id = g.ixps.push(Ixp {
        name: ixp_name(&metro_name, ordinal),
        metro,
        region,
        peering_lan,
        facilities: partners,
        switches,
        core,
        active,
        has_route_server,
        members: Vec::new(),
    });
    debug_assert_eq!(id, ixp_id);
    g.fabric.insert(id, HostAllocator::new(peering_lan));
    g.ixps_by_metro.entry(metro).or_default().push(id);
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::config::TopologyConfig;
    use crate::model::SwitchRole;
    use crate::topology::Topology;

    #[test]
    fn ixp_budget_met() {
        let t = Topology::generate(TopologyConfig::tiny()).unwrap();
        assert_eq!(t.ixps.len(), t.config.ixp_budget);
    }

    #[test]
    fn every_partner_facility_has_one_access_switch() {
        let t = Topology::generate(TopologyConfig::default()).unwrap();
        for (iid, ixp) in t.ixps.iter() {
            for fac in &ixp.facilities {
                let access: Vec<_> = ixp
                    .switches
                    .iter()
                    .filter(|s| {
                        let sw = &t.switches[**s];
                        sw.role == SwitchRole::Access && sw.facility == *fac
                    })
                    .collect();
                assert_eq!(access.len(), 1, "{iid} facility {fac} has {}", access.len());
            }
        }
    }

    #[test]
    fn switch_hierarchy_reaches_core() {
        let t = Topology::generate(TopologyConfig::default()).unwrap();
        for (_, ixp) in t.ixps.iter() {
            for sid in &ixp.switches {
                // Walk parents; must terminate at the core within 3 hops.
                let mut cur = *sid;
                let mut hops = 0;
                while let Some(p) = t.switches[cur].parent {
                    cur = p;
                    hops += 1;
                    assert!(hops <= 3, "switch chain too deep");
                }
                assert_eq!(cur, ixp.core);
            }
        }
    }

    #[test]
    fn large_ixps_use_backhaul_layer() {
        let t = Topology::generate(TopologyConfig::paper()).unwrap();
        let large = t
            .ixps
            .values()
            .find(|x| x.facilities.len() > 4)
            .expect("a large ixp exists");
        assert!(large
            .switches
            .iter()
            .any(|s| t.switches[*s].role == SwitchRole::Backhaul));
    }

    #[test]
    fn peering_lans_are_disjoint() {
        let t = Topology::generate(TopologyConfig::default()).unwrap();
        let lans: Vec<_> = t.ixps.values().map(|x| x.peering_lan).collect();
        for (i, a) in lans.iter().enumerate() {
            for b in &lans[i + 1..] {
                assert!(!a.overlaps(*b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn facility_to_ixp_ratio_is_about_three() {
        let t = Topology::generate(TopologyConfig::paper()).unwrap();
        let ratio = t.facilities.len() as f64 / t.ixps.len() as f64;
        assert!((2.0..8.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn some_ixps_inactive() {
        let t = Topology::generate(TopologyConfig::paper()).unwrap();
        let inactive = t.ixps.values().filter(|x| !x.active).count();
        assert!(inactive > 0);
        assert!(inactive < t.ixps.len() / 5);
    }
}
