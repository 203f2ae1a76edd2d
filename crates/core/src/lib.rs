//! # cfs-core
//!
//! The paper's contribution: **Constrained Facility Search** (CFS).
//!
//! Given (a) traceroute reachability through the `cfs-traceroute` engine,
//! (b) the assembled public knowledge base (`cfs-kb`), and (c) alias
//! resolution (`cfs-alias`), CFS infers — for every peering interface it
//! observes — the physical colocation facility the interface sits in and
//! the engineering method of the interconnection (§4):
//!
//! 1. **Classify** each traceroute adjacency as public (an intermediate
//!    hop from confirmed IXP address space) or private (a direct
//!    AS-to-AS hop).
//! 2. **Initial facility search**: intersect the known facility sets of
//!    the near-side AS with the IXP's (public) or the far AS's (private);
//!    single facility ⇒ resolved, several ⇒ unresolved-local, none ⇒
//!    remote (confirmed by an RTT test) or missing data.
//! 3. **Alias constraints**: all interfaces of one router share one
//!    facility, so candidate sets intersect across alias sets.
//! 4. **Targeted follow-ups**: probe toward ASes whose known footprint is
//!    a small subset of the unresolved side's candidates, so every new
//!    crossing shrinks a candidate set; iterate 2–4 to convergence.
//!
//! The reverse search (§4.3) reruns the pipeline from vantage points
//! behind the far side, and the switch-proximity heuristic (§4.4) pins
//! remaining far-end fabric interfaces by facility co-occurrence.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]
#![forbid(unsafe_code)]

mod corpus;
mod engine;
mod observe;
mod proximity;
#[cfg(test)]
mod reference;
mod remote;
mod report;
mod session;
mod state;
mod telemetry;

pub use engine::{Cfs, CfsBuilder, CfsConfig, IterationStats};
pub use observe::{extract_observations, HopMeaning, Observation, Resolver};
pub use proximity::ProximityModel;
pub use remote::RemoteTester;
pub use report::{
    CandidateHistogram, CfsReport, ConvergenceTelemetry, DataQualityReport, InferredInterface,
    InferredLink, RouterRoleStats, CANDIDATE_BUCKET_LE,
};
pub use session::{canonical_trace, CfsSession, Delta, DeltaOutcome, QueryAnswer};
pub use state::{IfaceState, SearchOutcome, TrajectoryPoint};
pub use telemetry::{
    render_profile_json, render_trace_json, render_trace_json_with_shape, PROFILE_SCHEMA,
    TRACE_SCHEMA,
};
