//! # cfs-bgp
//!
//! The interdomain routing substrate: Gao–Rexford valley-free route
//! computation over the ground-truth AS graph, a thread-safe route cache,
//! and the BGP communities machinery (ingress-point tagging) that the
//! paper uses as a validation source (§6).
//!
//! Traceroute paths in `cfs-traceroute` follow the AS paths computed here,
//! so the adjacencies CFS observes are economically plausible rather than
//! arbitrary graph walks.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]

pub mod communities;
mod lg;
mod routing;

pub use communities::{CommunityDictionary, CommunityValue, IngressTag};
pub use lg::{BgpRecord, BgpSession, LookingGlassBgp};
pub use routing::{compute_routes, AsGraph, RouteCache, RouteMap, RouteType};
