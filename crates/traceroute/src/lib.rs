//! # cfs-traceroute
//!
//! The measurement substrate: a faithful stand-in for the four traceroute
//! platforms of Table 1 (RIPE Atlas, looking glasses, iPlane, CAIDA Ark)
//! and for the Paris-traceroute semantics the paper's inference relies on:
//!
//! * replies come from the **ingress** interface of each router, so IXP
//!   fabric addresses appear on the far-side member's router and private
//!   point-to-point addresses may belong to the neighbour's address space;
//! * per-hop RTTs accumulate geographic fiber delay plus jitter and
//!   occasional congestion episodes (which is why the remote-peering test
//!   takes minima over repeated measurements, §4.2);
//! * some routers never answer (`*` hops), and traces are cut short when
//!   the destination is unrouted.
//!
//! Everything is deterministic: a probe's randomness is derived from
//! `(engine seed, vantage point, target, time)`.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]

mod campaign;
mod engine;
mod platform;
mod scheduled;
mod service;

pub use campaign::{archived_sweep, run_campaign, run_campaign_parallel, CampaignLimits};
pub use engine::{Engine, Hop, Trace};
pub use platform::{deploy_vantage_points, Platform, VantagePoint, VpConfig, VpSet};
pub use scheduled::ScheduledEngine;
pub use service::{ChaosEngine, ProbeService};
