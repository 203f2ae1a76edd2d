//! Everything the benchmark generates from `--seed`, plus in-process
//! mirrors of what `cfsd` does with a request, used for the output
//! checks and the traced replay.
//!
//! The world itself is pinned to [`WORLD_SEED`]: worlds of different
//! seeds differ in run time and memory by more than the regression
//! bounds, and so does a seeded edit of the paper world's public
//! sources. The seed therefore varies what arrives at a fixed world
//! (campaign numbers, flip lists, query order, arrival phase) and
//! leaves the batch input alone.

use std::net::Ipv4Addr;
use std::sync::Arc;

use cfs::core::{Cfs, CfsConfig, CfsReport, CfsSession};
use cfs::experiments::{Lab, Scale};
use cfs::kb::{KnowledgeBase, PublicSources};
use cfs::obs::Recorder;
use cfs::traceroute::{run_campaign, CampaignLimits, ProbeService, Trace};
use cfs::types::{Asn, FacilityId};

/// The world every workload runs against (the CLI's documented default).
pub const WORLD_SEED: u64 = 7;

/// A small deterministic generator (splitmix64): the benchmark's only
/// source of randomness, keyed by `--seed`.
pub struct Rng(u64);

impl Rng {
    /// A generator for one seed and one purpose, so adding a draw for
    /// one input never shifts another.
    pub fn new(seed: u64, purpose: u64) -> Self {
        Self(seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The configuration `cfs serve` converges with: follow-up-less, so
/// deltas take the incremental path.
pub fn service_config() -> CfsConfig {
    CfsConfig {
        followup_interfaces: 0,
        ..CfsConfig::default()
    }
}

/// Campaign `k` exactly as `cfsd` generates it for a `campaign` delta:
/// every vantage point probes the standard targets at `k * 2h`.
pub fn campaign_traces(lab: &Lab, engine: &dyn ProbeService, k: u64) -> Vec<Trace> {
    let targets: Vec<Ipv4Addr> = lab
        .targets()
        .iter()
        .filter_map(|a| lab.topo.target_ip(*a).ok())
        .collect();
    let vp_ids: Vec<_> = lab.vps.ids().collect();
    run_campaign(
        engine,
        &lab.vps,
        &vp_ids,
        &targets,
        k * 7_200_000,
        &CampaignLimits::default(),
    )
}

/// A resident session built the way `cfs serve` builds its own, with
/// `campaigns` ingested after the bootstrap batch, converged: what a
/// daemon that absorbed them as deltas must serve.
pub fn serve_session<'a>(
    lab: &'a Lab,
    engine: &'a dyn ProbeService,
    campaigns: &[u64],
    recorder: Arc<dyn Recorder>,
) -> CfsSession<'a> {
    let mut session = Cfs::builder(engine, &lab.kb)
        .vps(&lab.vps)
        .ipasn(&lab.ipasn)
        .config(service_config())
        .recorder(recorder)
        .build_session()
        .expect("engine, KB, VPs and IP-to-AS are all set");
    session.ingest(lab.bootstrap_traces(engine, None));
    for &k in campaigns {
        session.ingest(campaign_traces(lab, engine, k));
    }
    lab.feed_bgp_sessions(&mut session, None);
    session.converge();
    session
}

/// `count` consecutive campaign numbers from a seeded start, as a
/// periodic measurement schedule delivers them. Whatever the start, the
/// daemon's corpus grows by one campaign per number.
pub fn campaign_numbers(seed: u64, count: usize) -> Vec<u64> {
    let base = Rng::new(seed, 1).below(1_000);
    (base + 1..=base + count as u64).collect()
}

/// An AS → facility listing a `kb-flip` delta withdraws or restores.
pub type Listing = (Asn, FacilityId);

/// Listings whose withdraw-then-restore pair leaves the public sources
/// exactly as they were (the daemon re-inserts a facility into both
/// PeeringDB and an existing NOC page, sorted), in seeded order.
pub fn restorable_listings(sources: &PublicSources, seed: u64) -> Vec<Listing> {
    let canonical = |list: &[FacilityId]| list.windows(2).all(|w| w[0] < w[1]);
    let mut out: Vec<Listing> = Vec::new();
    for (asn, rec) in &sources.pdb_networks {
        if !canonical(&rec.facilities) {
            continue;
        }
        let page = sources.noc_pages.get(asn);
        for f in &rec.facilities {
            let noc_ok = page.is_none_or(|p| canonical(&p.facilities) && p.facilities.contains(f));
            if noc_ok {
                out.push((*asn, *f));
            }
        }
    }
    Rng::new(seed, 2).shuffle(&mut out);
    out
}

/// Applies one listing change to the sources the way `cfsd`'s `kb-flip`
/// handler does, and assembles the new KB epoch.
pub fn flip_kb(
    sources: &mut PublicSources,
    lab: &Lab,
    listing: Listing,
    present: bool,
) -> KnowledgeBase {
    let (asn, facility) = listing;
    let edit = |list: &mut Vec<FacilityId>| {
        list.retain(|f| *f != facility);
        if present {
            list.push(facility);
            list.sort_unstable();
        }
    };
    if let Some(rec) = sources.pdb_networks.get_mut(&asn) {
        edit(&mut rec.facilities);
    }
    if let Some(page) = sources.noc_pages.get_mut(&asn) {
        edit(&mut page.facilities);
    }
    KnowledgeBase::assemble(sources, &lab.topo.world)
}

/// Every interface a converged report tracks, in seeded order.
pub fn query_order(report: &CfsReport, seed: u64) -> Vec<Ipv4Addr> {
    let mut ips: Vec<Ipv4Addr> = report.interfaces.keys().copied().collect();
    Rng::new(seed, 3).shuffle(&mut ips);
    ips
}

/// Seeded arrival phase of an open-loop stream, in `0..period_ms`.
pub fn arrival_phase_ms(seed: u64, period_ms: f64) -> f64 {
    Rng::new(seed, 4).below(1_000_000) as f64 / 1_000_000.0 * period_ms
}

/// The world size a workload runs at.
pub fn provision(scale: Scale) -> Result<Lab, String> {
    Lab::provision(scale, Some(WORLD_SEED)).map_err(|e| format!("world generation: {e}"))
}
