//! # cfs-topology
//!
//! The ground-truth Internet model: a generative substitute for the
//! physical peering ecosystem the paper measures.
//!
//! A generated [`Topology`] contains interconnection facilities with
//! operators and coordinates, IXPs with their switch hierarchies
//! (core / backhaul / access, Figure 6 of the paper), autonomous systems
//! with business-class-shaped footprints, routers with addressed
//! interfaces (including IXP fabric addresses and point-to-point
//! private-peering subnets), the AS-level adjacency graph with its
//! physical instantiations, and BGP announcements with the realistic
//! contamination (§4.1) that the alias-resolution majority vote exists to
//! correct.
//!
//! Nothing downstream mutates the topology; inference code is only ever
//! given *views* of it (public knowledge bases from `cfs-kb`, probe
//! responses from `cfs-traceroute`), never the ground truth itself.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]

pub mod config;
pub mod dns;
mod generate;
pub mod model;
pub mod names;
pub mod schedule;
mod topology;

pub use config::TopologyConfig;
pub use model::{
    AsNode, DnsStyle, EndPoint, Facility, FacilityOperator, Iface, IfaceKind, IpIdBehavior, Ixp,
    IxpMembership, Link, Medium, Router, RouterLocation, Switch, SwitchRole,
};
pub use schedule::{
    Disruption, DisruptionKind, EventSchedule, ScheduleConfig, ScheduleIntensity, EPOCH_MS,
    HORIZON_EPOCHS, WARMUP_EPOCHS,
};
pub use topology::{AsAdjacency, Topology};
