//! Constraint-based geolocation (CBG), after Gueye et al. [33] — the
//! delay-measurement geolocation family the paper contrasts with (§4.2
//! cites its triangulation idea; §7 notes delay methods are "reliable
//! only at the country or state level").
//!
//! Landmarks with known positions ping the target; each minimum RTT
//! yields a great-circle distance bound (light in fiber cannot be
//! outrun). The target is placed at the candidate city that violates the
//! bounds least. Queueing noise, detours (remote-peering access
//! circuits!) and sparse landmark coverage make the answers coarse —
//! which is exactly why building-level inference needs constraints of a
//! different kind.

use std::net::Ipv4Addr;

use cfs_geo::{GeoPoint, FIBER_KM_PER_MS};
use cfs_traceroute::{Engine, VpSet};
use cfs_types::{CityId, VantagePointId};

/// RTT samples per landmark (minimum taken, spaced beyond congestion
/// episodes).
const SAMPLES: u64 = 3;

/// Sample spacing, ms.
const SPACING_MS: u64 = 3_600_000;

/// A CBG-style delay geolocator.
pub struct CbgGeolocator<'a> {
    engine: &'a Engine<'a>,
    vps: &'a VpSet,
    landmarks: Vec<(VantagePointId, GeoPoint)>,
}

impl<'a> CbgGeolocator<'a> {
    /// Picks up to `count` landmarks, spread greedily for coverage
    /// (farthest-point selection over the vantage-point set).
    pub fn new(engine: &'a Engine<'a>, vps: &'a VpSet, count: usize) -> Self {
        let all: Vec<(VantagePointId, GeoPoint)> =
            vps.vps.iter().map(|(id, vp)| (id, vp.coords)).collect();
        let mut landmarks: Vec<(VantagePointId, GeoPoint)> = Vec::with_capacity(count);
        if let Some(first) = all.first() {
            landmarks.push(*first);
            while landmarks.len() < count.min(all.len()) {
                // Farthest point from the chosen set.
                let next = all
                    .iter()
                    .max_by_key(|(_, p)| {
                        landmarks
                            .iter()
                            .map(|(_, l)| l.distance_km(*p) as u64)
                            .min()
                            .unwrap_or(0)
                    })
                    .copied()
                    .expect("non-empty");
                if landmarks.iter().any(|(id, _)| *id == next.0) {
                    break;
                }
                landmarks.push(next);
            }
        }
        Self {
            engine,
            vps,
            landmarks,
        }
    }

    /// Number of landmarks in use.
    pub fn landmark_count(&self) -> usize {
        self.landmarks.len()
    }

    /// Distance upper bounds from each landmark (minimum RTT × speed of
    /// light in fiber, no path-stretch assumption — conservative, as CBG
    /// prescribes). `None` when the target never answered anyone.
    fn bounds(&self, target: Ipv4Addr) -> Option<Vec<(GeoPoint, f64)>> {
        let mut out = Vec::new();
        for (id, coords) in &self.landmarks {
            let vp = &self.vps.vps[*id];
            let min_rtt = (0..SAMPLES)
                .filter_map(|k| self.engine.ping(vp, target, 7 + k * SPACING_MS))
                .fold(f64::INFINITY, f64::min);
            if min_rtt.is_finite() {
                // One-way distance bound at full fiber speed.
                out.push((*coords, min_rtt / 2.0 * FIBER_KM_PER_MS));
            }
        }
        (!out.is_empty()).then_some(out)
    }

    /// Geolocates `target` to the candidate city violating the distance
    /// bounds least (total excess over all landmarks; ties by city id).
    pub fn geolocate(&self, target: Ipv4Addr) -> Option<CityId> {
        let bounds = self.bounds(target)?;
        let world = &self.engine.topology().world;
        let mut best: Option<(f64, CityId)> = None;
        for (city, c) in world.cities().iter() {
            let violation: f64 = bounds
                .iter()
                .map(|(l, bound)| (l.distance_km(c.location) - bound).max(0.0))
                .sum();
            if best.as_ref().is_none_or(|(v, _)| violation < *v) {
                best = Some((violation, city));
            }
        }
        best.map(|(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_topology::{RouterLocation, Topology, TopologyConfig};
    use cfs_traceroute::{deploy_vantage_points, VpConfig};

    fn setup() -> Topology {
        Topology::generate(TopologyConfig::default()).unwrap()
    }

    #[test]
    fn landmarks_are_spread_out() {
        let topo = setup();
        let vps = deploy_vantage_points(&topo, &VpConfig::default()).unwrap();
        let engine = Engine::new(&topo);
        let cbg = CbgGeolocator::new(&engine, &vps, 20);
        assert!(cbg.landmark_count() >= 10);
        // At least two landmarks over 3000 km apart (global spread).
        let far = cbg.landmarks.iter().any(|(_, a)| {
            cbg.landmarks
                .iter()
                .any(|(_, b)| a.distance_km(*b) > 3000.0)
        });
        assert!(far, "landmark selection collapsed to one region");
    }

    #[test]
    fn geolocation_is_usually_right_at_coarse_granularity() {
        let topo = setup();
        let vps = deploy_vantage_points(&topo, &VpConfig::default()).unwrap();
        let engine = Engine::new(&topo);
        let cbg = CbgGeolocator::new(&engine, &vps, 25);

        let mut checked = 0usize;
        let mut within_1000km = 0usize;
        let mut exact_metro = 0usize;
        for router in topo.routers.values().step_by(17) {
            let iface = router.ifaces.first().copied().unwrap();
            let ip = topo.ifaces[iface].ip;
            let Some(city) = cbg.geolocate(ip) else {
                continue;
            };
            let truth = match router.location {
                RouterLocation::Facility(f) => topo.facilities[f].location,
                RouterLocation::PopCity(c) => topo.world.city(c).location,
            };
            let guess = topo.world.city(city).location;
            checked += 1;
            if truth.distance_km(guess) < 1000.0 {
                within_1000km += 1;
            }
            let truth_metro = match router.location {
                RouterLocation::Facility(f) => topo.facilities[f].metro,
                RouterLocation::PopCity(c) => topo.world.metro_of(c),
            };
            if topo.world.metro_of(city) == truth_metro {
                exact_metro += 1;
            }
        }
        assert!(checked > 20, "too few targets answered: {checked}");
        // Region-level reliability, metro-level weakness — the paper's
        // point about delay-based methods.
        assert!(
            within_1000km * 10 >= checked * 7,
            "CBG coarse accuracy {within_1000km}/{checked}"
        );
        assert!(
            exact_metro < checked,
            "CBG implausibly perfect at metro level ({exact_metro}/{checked})"
        );
    }

    #[test]
    fn silent_targets_yield_none() {
        let topo = setup();
        let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
        let engine = Engine::new(&topo);
        let cbg = CbgGeolocator::new(&engine, &vps, 10);
        assert_eq!(cbg.geolocate("198.18.0.1".parse().unwrap()), None);
    }
}
