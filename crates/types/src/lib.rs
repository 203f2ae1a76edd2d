//! # cfs-types
//!
//! Fundamental identifiers and domain vocabulary shared by every crate in
//! the `cfs` workspace — the Rust reproduction of *"Mapping Peering
//! Interconnections to a Facility"* (CoNEXT 2015).
//!
//! The workspace models the entities of the interdomain peering ecosystem:
//! autonomous systems ([`Asn`]), colocation facilities ([`FacilityId`]),
//! Internet exchange points ([`IxpId`]), routers and their interfaces
//! ([`RouterId`], [`IfaceId`]), and the geography they live in
//! ([`CityId`], [`MetroId`], [`Region`]).
//!
//! Everything here is deliberately small and dependency-free: plain-old-data
//! newtypes over integers, a typed [`arena`] for storing
//! entities, the shared [`Error`] type, the [`diff_keys`] merge walk,
//! and the ordered worker fan-out [`par`].

#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]

pub mod arena;
mod asclass;
mod diff;
mod error;
mod facset;
mod ids;
pub mod par;
mod peering;
mod reason;
mod region;
mod rel;

pub use arena::{Arena, Idx};
pub use asclass::AsClass;
pub use diff::diff_keys;
pub use error::{Error, Result};
pub use facset::{FacilitySet, FacilitySetInterner};
pub use ids::{
    Asn, CityId, CountryId, FacilityId, IfaceId, IxpId, LinkId, MetroId, OperatorId, RouterId,
    SwitchId, VantagePointId,
};
pub use peering::{LinkClass, PeeringKind};
pub use reason::UnresolvedReason;
pub use region::Region;
pub use rel::Rel;
