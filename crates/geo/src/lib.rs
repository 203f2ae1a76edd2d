//! # cfs-geo
//!
//! Geography substrate for the `cfs` workspace: coordinates and great-circle
//! distance, a fiber propagation-delay model (used by the traceroute
//! simulator and by the remote-peering inference of §4.2), an embedded
//! world-city table, the city-name normalization rules of §3.1.1
//! (ISO country codes, alias folding), and the paper's 5-mile metropolitan
//! clustering ("we group Jersey City and New York City into the NYC
//! metropolitan area").

#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]

mod cities;
mod coord;
mod metro;
mod normalize;
mod world;

pub use cities::{CityRecord, CITY_TABLE};
pub use coord::{fiber_rtt_ms, haversine_km, GeoPoint, FIBER_KM_PER_MS, FIBER_PATH_STRETCH};
pub use metro::{cluster_metros, MetroAssignment, METRO_RADIUS_KM};
pub use normalize::{normalize_city, normalize_country};
pub use world::{City, Metro, World};
