//! DRoP-style DNS geolocation: extract geographically meaningful tokens
//! (airport codes, city names) from router hostnames.

use std::collections::BTreeMap;

use cfs_geo::World;
use cfs_types::CityId;

/// A hostname-token geolocator with generic dictionaries.
///
/// Unlike the per-operator conventions the validation oracle knows
/// (§6 "DNS records"), this baseline only holds world-wide token lists —
/// which is exactly why it cannot decode facility codes and why the paper
/// finds it coarser and less complete than CFS.
pub struct DnsGeolocator {
    tokens: BTreeMap<String, CityId>,
}

impl DnsGeolocator {
    /// Builds the dictionaries from the world city table: IATA airport
    /// codes plus concatenated city names.
    pub fn new(world: &World) -> Self {
        let mut tokens = BTreeMap::new();
        for (id, city) in world.cities().iter() {
            tokens.insert(city.iata.to_lowercase(), id);
            tokens.insert(city.name.replace(' ', ""), id);
        }
        Self { tokens }
    }

    /// Attempts to geolocate a hostname to a city. Labels are examined
    /// right-to-left (location tokens sit near the domain in most naming
    /// schemes); the first dictionary hit wins.
    pub fn geolocate(&self, hostname: &str) -> Option<CityId> {
        for label in hostname.split('.').rev() {
            let label = label.to_lowercase();
            if let Some(city) = self.tokens.get(&label) {
                return Some(*city);
            }
        }
        None
    }

    /// Number of dictionary tokens.
    pub fn dictionary_size(&self) -> usize {
        self.tokens.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_topology::{DnsStyle, RouterLocation, Topology, TopologyConfig};

    fn world() -> World {
        World::builtin()
    }

    #[test]
    fn airport_codes_resolve() {
        let w = world();
        let g = DnsGeolocator::new(&w);
        let city = g.geolocate("ae1.r2.fra.as3356.example.net").unwrap();
        assert_eq!(w.city(city).name, "frankfurt");
        let city = g.geolocate("xe0.r0.lhr.as1299.example.net").unwrap();
        assert_eq!(w.city(city).name, "london");
    }

    #[test]
    fn city_name_tokens_resolve() {
        let w = world();
        let g = DnsGeolocator::new(&w);
        let city = g.geolocate("core1.newyork.example.net").unwrap();
        assert_eq!(w.city(city).name, "new york");
    }

    #[test]
    fn opaque_names_do_not_resolve() {
        let w = world();
        let g = DnsGeolocator::new(&w);
        assert_eq!(g.geolocate("be12.ccr03.as174.example.net"), None);
        assert_eq!(g.geolocate(""), None);
    }

    #[test]
    fn facility_coded_hostnames_resolve_via_embedded_city() {
        // Facility codes themselves are opaque to DRoP, but our
        // facility-coded convention also carries the IATA label.
        let w = world();
        let g = DnsGeolocator::new(&w);
        let city = g.geolocate("ae1.r2.eqfra3.fra.as3356.example.net").unwrap();
        assert_eq!(w.city(city).name, "frankfurt");
    }

    #[test]
    fn coverage_over_generated_names_is_partial() {
        let topo = Topology::generate(TopologyConfig::default()).unwrap();
        let g = DnsGeolocator::new(&topo.world);
        let mut named = 0usize;
        let mut located = 0usize;
        let mut correct = 0usize;
        for iface in topo.ifaces.values() {
            let Some(name) = &iface.dns_name else {
                continue;
            };
            named += 1;
            if let Some(city) = g.geolocate(name) {
                located += 1;
                let truth_metro = match topo.routers[iface.router].location {
                    RouterLocation::Facility(f) => topo.facilities[f].metro,
                    RouterLocation::PopCity(c) => topo.world.metro_of(c),
                };
                if topo.world.metro_of(city) == truth_metro {
                    correct += 1;
                }
            }
        }
        assert!(named > 0);
        assert!(located > 0);
        assert!(
            located < named,
            "every name geolocated — opaque styles missing?"
        );
        // Mostly correct where it answers (stale names are the residue).
        assert!(correct * 10 >= located * 9, "{correct}/{located}");
    }

    #[test]
    fn dns_style_none_interfaces_are_invisible_to_drop() {
        let topo = Topology::generate(TopologyConfig::default()).unwrap();
        let google = &topo.ases[&cfs_types::Asn(15169)];
        assert_eq!(google.dns_style, DnsStyle::None);
        for rid in &google.routers {
            for ifid in &topo.routers[*rid].ifaces {
                assert!(topo.ifaces[*ifid].dns_name.is_none());
            }
        }
    }

    #[test]
    fn dictionary_scales_with_city_table() {
        let w = world();
        let g = DnsGeolocator::new(&w);
        assert!(g.dictionary_size() >= w.cities().len());
    }
}
