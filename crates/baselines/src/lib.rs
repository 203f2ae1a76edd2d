//! # cfs-baselines
//!
//! The two location-inference heuristics the paper compares CFS against
//! (§5, §7) — both structurally weaker than constraint search:
//!
//! * [`DnsGeolocator`] — a DRoP-style hostname parser \[34\] with generic
//!   airport-code and city-name dictionaries. It geolocates only the
//!   minority of interfaces whose PTR records carry location tokens
//!   (the paper: 29% had no record at all, 55% of the rest no tokens ⇒
//!   32% geolocatable), at city granularity, and is misled by stale
//!   names.
//! * [`IpGeoDb`] — a commercial-geolocation-database model: per-prefix
//!   city answers that are "reliable only at the country or state level"
//!   [52, 35, 33], with the famous pathology that every interconnection
//!   prefix of a large CDN maps to its headquarters.
//! * [`CbgGeolocator`] — constraint-based geolocation \[33\]: RTT
//!   multilateration from landmark vantage points; reliable regionally,
//!   far too coarse for buildings.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]

mod cbg;
mod drop_geo;
mod ipgeo;

pub use cbg::CbgGeolocator;
pub use drop_geo::DnsGeolocator;
pub use ipgeo::IpGeoDb;
