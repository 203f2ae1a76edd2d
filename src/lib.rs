//! # cfs — Constrained Facility Search
//!
//! A complete, self-contained reproduction of *"Mapping Peering
//! Interconnections to a Facility"* (Giotsas, Smaragdakis, Huffaker,
//! Luckie, claffy — CoNEXT 2015): infer, for every peering
//! interconnection observed in traceroute data, the **physical colocation
//! facility** it lives in and the **engineering method** used (public
//! peering over an IXP, private cross-connect, tethering VLAN, remote
//! peering).
//!
//! Because the paper consumes the live Internet, this workspace ships
//! every substrate it needs as a crate: a generative ground-truth
//! topology ([`topology`]), valley-free interdomain routing ([`bgp`]), a
//! Paris-traceroute measurement simulator ([`traceroute`]), MIDAR-style
//! alias resolution ([`alias`]), the messy public knowledge bases
//! ([`kb`]), the CFS algorithm itself ([`core`]), the geolocation
//! baselines it outperforms ([`baselines`]), the four-channel validation
//! harness ([`validate`]), and the experiment suite that regenerates
//! every table and figure ([`experiments`]).
//!
//! ## Quickstart
//!
//! ```
//! use cfs::prelude::*;
//!
//! // 1. A small synthetic peering ecosystem (facilities, IXPs, ASes).
//! let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
//!
//! // 2. Measurement substrate: vantage points + traceroute engine.
//! let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
//! let engine = Engine::new(&topo);
//!
//! // 3. The public view: PeeringDB-like sources, assembled per §3.1.
//! let sources = PublicSources::derive(&topo, &KbConfig::default());
//! let kb = KnowledgeBase::assemble(&sources, &topo.world);
//! let ipasn = topo.build_ipasn_db();
//!
//! // 4. Bootstrap campaign toward a few targets.
//! let targets: Vec<std::net::Ipv4Addr> =
//!     topo.ases.keys().take(5).map(|a| topo.target_ip(*a).unwrap()).collect();
//! let vp_ids: Vec<_> = vps.ids().collect();
//! let traces = run_campaign(&engine, &vps, &vp_ids, &targets, 0, &CampaignLimits::default());
//!
//! // 5. Run Constrained Facility Search as a resident session: converge
//! //    once, then query the cached report. A follow-up-less session
//! //    (`followup_interfaces: 0`) also absorbs deltas via
//! //    `CfsSession::apply_delta` without re-running the world.
//! let mut session = Cfs::builder(&engine, &kb).vps(&vps).ipasn(&ipasn).build_session().unwrap();
//! session.ingest(traces);
//! let report = session.converge();
//! println!("resolved {}/{} interfaces", report.resolved(), report.total());
//! let probe = *report.interfaces.keys().next().unwrap();
//! let answer = session.query(probe);
//! println!("method {} (confidence {:.2})", answer.method, answer.confidence);
//! ```
//!
//! The same session powers the `cfsd` daemon: `cfs serve --socket
//! /tmp/cfsd.sock` keeps one resident and answers line-delimited
//! `cfs-api/1` requests (see [`svc`] and `cfs query`). The request
//! semantics live in [`daemon::Daemon`], which answers the same
//! requests in process.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod daemon;

pub use cfs_alias as alias;
pub use cfs_baselines as baselines;
pub use cfs_bgp as bgp;
pub use cfs_chaos as chaos;
pub use cfs_core as core;
pub use cfs_detect as detect;
pub use cfs_experiments as experiments;
pub use cfs_geo as geo;
pub use cfs_kb as kb;
pub use cfs_net as net;
pub use cfs_obs as obs;
pub use cfs_svc as svc;
pub use cfs_topology as topology;
pub use cfs_traceroute as traceroute;
pub use cfs_types as types;
pub use cfs_validate as validate;

/// The names almost every user of the library needs.
pub mod prelude {
    pub use cfs_chaos::{FaultPlan, FaultProfile, RetryPolicy};
    pub use cfs_core::{
        canonical_trace, Cfs, CfsBuilder, CfsConfig, CfsReport, CfsSession, DataQualityReport,
        Delta, DeltaOutcome, IterationStats, QueryAnswer, RemoteTester, SearchOutcome,
    };
    pub use cfs_kb::{degrade_sources, KbConfig, KnowledgeBase, PublicSources};
    pub use cfs_svc::{Client, Endpoint, Reply, Request, Server};
    pub use cfs_topology::{Topology, TopologyConfig};
    pub use cfs_traceroute::{
        deploy_vantage_points, run_campaign, CampaignLimits, ChaosEngine, Engine, Platform,
        ProbeService, VpConfig,
    };
    pub use cfs_types::{
        AsClass, Asn, FacilityId, FacilitySet, FacilitySetInterner, IxpId, MetroId, PeeringKind,
        Region, UnresolvedReason,
    };
    pub use cfs_validate::{score_report, ValidationOracles};
}
