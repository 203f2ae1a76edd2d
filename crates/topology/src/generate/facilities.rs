//! Phase 1: facilities and their operators.
//!
//! The facility budget is split across regions by [`REGION_SHARES`]
//! (§3.1.2's 503/860/143/84/73/31 mix, at every scale) and, within each
//! region, across metros by hub tier, yielding the heavy-tailed metro
//! distribution of Figure 3.

use rand::Rng;

use cfs_geo::GeoPoint;
use cfs_types::{MetroId, OperatorId, Result};

use crate::model::{Facility, FacilityOperator};
use crate::names::{facility_dns_code, facility_name, CHAIN_OPERATORS};

use super::{apportion, Gen};

/// Fraction of the facility budget per region, in [`cfs_types::Region::ALL`]
/// order (North America, Europe, Asia, Oceania, South America, Africa),
/// measured from the paper's dataset: 503/860/143/84/73/31 of 1,694.
const REGION_SHARES: [f64; 6] = [
    503.0 / 1694.0,
    860.0 / 1694.0,
    143.0 / 1694.0,
    84.0 / 1694.0,
    73.0 / 1694.0,
    31.0 / 1694.0,
];

/// Relative facility weight of a metro by hub tier: a tier-0 hub draws
/// roughly 25× the facilities of a small city, giving the Figure 3 skew.
fn tier_weight(tier: u8) -> f64 {
    match tier {
        0 => 26.0,
        1 => 9.0,
        2 => 2.6,
        _ => 1.0,
    }
}

pub(super) fn build(g: &mut Gen) -> Result<()> {
    // Chain operators first; their ids are stable across seeds.
    let chain_ids: Vec<OperatorId> = CHAIN_OPERATORS
        .iter()
        .map(|(name, _)| {
            g.operators.push(FacilityOperator {
                name: (*name).to_string(),
                facilities: Vec::new(),
                metro_interconnected: true,
            })
        })
        .collect();

    // Region budgets, then metro budgets within each region.
    let region_budgets = apportion(g.cfg.facility_budget, &REGION_SHARES);

    for (region, budget) in cfs_types::Region::ALL.iter().zip(region_budgets) {
        let metros: Vec<MetroId> = g
            .world
            .metros()
            .iter()
            .filter(|(_, m)| m.region == *region)
            .map(|(id, _)| id)
            .collect();
        if metros.is_empty() {
            continue;
        }
        // ±30% per-metro jitter: real markets differ even within a tier
        // (Figure 3's ladder is ragged, not stepped).
        let weights: Vec<f64> = metros
            .iter()
            .map(|m| {
                let base = tier_weight(g.world.metro(*m).hub_tier);
                base * (0.7 + 0.6 * g.rng.random::<f64>())
            })
            .collect();
        let counts = apportion(budget, &weights);

        for (metro, count) in metros.into_iter().zip(counts) {
            build_metro(g, metro, count, &chain_ids)?;
        }
    }

    Ok(())
}

fn build_metro(g: &mut Gen, metro: MetroId, count: usize, chain_ids: &[OperatorId]) -> Result<()> {
    if count == 0 {
        return Ok(());
    }
    let m = g.world.metro(metro).clone();

    // One local operator per metro with facilities; smaller markets are
    // often served only by locals.
    let local_op = g.operators.push(FacilityOperator {
        name: format!("{}-colo", m.name.replace(' ', "")),
        facilities: Vec::new(),
        metro_interconnected: g.rng.random_bool(0.5),
    });

    let mut per_op_city_ordinal: std::collections::BTreeMap<(OperatorId, String), usize> =
        std::collections::BTreeMap::new();

    for _ in 0..count {
        // Chains dominate big markets; locals dominate small ones.
        let chain_share = match m.hub_tier {
            0 => 0.75,
            1 => 0.6,
            2 => 0.4,
            _ => 0.2,
        };
        let operator = if g.rng.random_bool(chain_share) {
            chain_ids[g.rng.random_range(0..chain_ids.len())]
        } else {
            local_op
        };

        // Place the building near a random member city of the metro.
        let city = m.cities[g.rng.random_range(0..m.cities.len())];
        let c = g.world.city(city);
        let jitter = |rng: &mut rand_chacha::ChaCha20Rng| (rng.random::<f64>() - 0.5) * 0.12;
        let location = GeoPoint::new(
            c.location.lat + jitter(&mut g.rng),
            c.location.lon + jitter(&mut g.rng),
        );

        let (op_name, op_prefix) = {
            let op = &g.operators[operator];
            let prefix = CHAIN_OPERATORS
                .iter()
                .find(|(n, _)| *n == op.name)
                .map(|(_, p)| (*p).to_string())
                .unwrap_or_else(|| "lc".to_string());
            (op.name.clone(), prefix)
        };
        let iata = c.iata.clone();
        let ordinal = per_op_city_ordinal
            .entry((operator, iata.clone()))
            .and_modify(|o| *o += 1)
            .or_insert(1);
        let ordinal = *ordinal;

        let facility = Facility {
            name: facility_name(&op_name, &iata, ordinal),
            operator,
            city,
            metro,
            region: c.region,
            location,
            carrier_neutral: g.rng.random_bool(0.85),
            dns_code: facility_dns_code(&op_prefix, &iata, ordinal),
        };
        let fid = g.facilities.push(facility);
        g.operators[operator].facilities.push(fid);
        g.facs_by_metro.entry(metro).or_default().push(fid);
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::config::TopologyConfig;
    use crate::topology::Topology;
    use cfs_types::Region;

    #[test]
    fn budget_is_met_exactly() {
        let t = Topology::generate(TopologyConfig::tiny()).unwrap();
        assert_eq!(t.facilities.len(), t.config.facility_budget);
    }

    #[test]
    fn region_mix_follows_shares() {
        let t = Topology::generate(TopologyConfig::default()).unwrap();
        let count = |r: Region| t.facilities.values().filter(|f| f.region == r).count();
        assert!(count(Region::Europe) > count(Region::NorthAmerica));
        assert!(count(Region::NorthAmerica) > count(Region::Asia));
        assert!(count(Region::Africa) >= 1);
    }

    #[test]
    fn hubs_dominate() {
        let t = Topology::generate(TopologyConfig::default()).unwrap();
        let mut per_metro = std::collections::BTreeMap::new();
        for f in t.facilities.values() {
            *per_metro.entry(f.metro).or_insert(0usize) += 1;
        }
        let max = per_metro.values().max().copied().unwrap();
        let median = {
            let mut v: Vec<usize> = per_metro.values().copied().collect();
            v.sort_unstable();
            v[v.len() / 2]
        };
        assert!(
            max >= 5 * median,
            "max {max} median {median} — distribution not heavy-tailed"
        );
    }

    #[test]
    fn operators_list_their_facilities() {
        let t = Topology::generate(TopologyConfig::tiny()).unwrap();
        for (fid, f) in t.facilities.iter() {
            assert!(t.operators[f.operator].facilities.contains(&fid));
        }
    }

    #[test]
    fn facility_names_unique() {
        let t = Topology::generate(TopologyConfig::default()).unwrap();
        let names: std::collections::BTreeSet<&str> =
            t.facilities.values().map(|f| f.name.as_str()).collect();
        assert_eq!(names.len(), t.facilities.len());
    }
}
