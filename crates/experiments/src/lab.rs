//! Shared experiment setup: one generated world with its public view and
//! measurement platforms ([`Lab`]), the measurement plane a session
//! probes ([`Substrate`]: clean, faulted, or disrupted), and the one
//! place a session is seasoned ([`Lab::session`]). The batch runners,
//! the experiments and `cfs serve` all season through it, so a daemon
//! starts from exactly the inputs a batch run does.

use std::net::Ipv4Addr;
use std::sync::Arc;

use cfs_bgp::LookingGlassBgp;
use cfs_chaos::FaultPlan;
use cfs_core::{Cfs, CfsConfig, CfsReport, CfsSession};
use cfs_detect::LocusNames;
use cfs_kb::{degrade_sources, KbConfig, KnowledgeBase, PublicSources};
use cfs_net::IpAsnDb;
use cfs_obs::{NoopRecorder, Recorder};
use cfs_topology::names::PAPER_TARGETS;
use cfs_topology::{EventSchedule, Topology, TopologyConfig, EPOCH_MS};
use cfs_traceroute::{
    archived_sweep, deploy_vantage_points, run_campaign, run_campaign_parallel, CampaignLimits,
    ChaosEngine, Engine, Platform, ProbeService, ScheduledEngine, Trace, VpConfig, VpSet,
};
use cfs_types::{Asn, Result};

/// World size for an experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// A few dozen facilities — smoke tests.
    Tiny,
    /// Quarter scale — CI-friendly default.
    Default,
    /// Full §3.1 dataset sizes (1,694 facilities, 368 IXPs, 8.5k VPs).
    Paper,
}

impl Scale {
    fn topology_config(self) -> TopologyConfig {
        match self {
            Self::Tiny => TopologyConfig::tiny(),
            Self::Default => TopologyConfig::default(),
            Self::Paper => TopologyConfig::paper(),
        }
    }

    fn vp_config(self) -> VpConfig {
        match self {
            Self::Tiny => VpConfig::tiny(),
            Self::Default => VpConfig::default(),
            Self::Paper => VpConfig::paper(),
        }
    }

    fn kb_config(self) -> KbConfig {
        match self {
            Self::Tiny => KbConfig { noc_pages: 20 },
            Self::Default => KbConfig { noc_pages: 60 },
            Self::Paper => KbConfig::default(), // 152 NOC pages, as in §3.1.1
        }
    }

    /// Label used in output files.
    pub fn label(self) -> &'static str {
        match self {
            Self::Tiny => "tiny",
            Self::Default => "default",
            Self::Paper => "paper",
        }
    }

    /// The scale a [`Self::label`] names; `None` for any other string.
    pub fn parse(label: &str) -> Option<Self> {
        [Self::Tiny, Self::Default, Self::Paper]
            .into_iter()
            .find(|s| s.label() == label)
    }
}

/// A fully provisioned experiment environment.
pub struct Lab {
    /// The chosen scale.
    pub scale: Scale,
    /// Ground truth (only the measurement substrate and the evaluation
    /// harness may look inside).
    pub topo: Topology,
    /// Deployed vantage points.
    pub vps: VpSet,
    /// Raw public sources.
    pub sources: PublicSources,
    /// Assembled knowledge base.
    pub kb: KnowledgeBase,
    /// Public IP-to-ASN service.
    pub ipasn: IpAsnDb,
    /// Observability recorder attached to every pipeline run this lab
    /// launches (default: the no-op recorder). The experiment binaries
    /// install a `cfs_obs::TraceRecorder` here so each artifact ships
    /// with its metrics.
    pub recorder: Arc<dyn Recorder>,
}

impl Lab {
    /// Provisions a lab at the given scale, optionally overriding the
    /// topology seed.
    pub fn provision(scale: Scale, seed: Option<u64>) -> Result<Self> {
        Self::provision_with_sources(scale, seed, None)
    }

    /// Provisions a lab, optionally substituting an externally supplied
    /// public-source snapshot (saved via [`PublicSources::save`], possibly
    /// hand-edited) for the derived one. The snapshot's ids refer to the
    /// world generated by the same `(scale, seed)` pair.
    pub fn provision_with_sources(
        scale: Scale,
        seed: Option<u64>,
        sources_override: Option<PublicSources>,
    ) -> Result<Self> {
        let mut topo_cfg = scale.topology_config();
        if let Some(s) = seed {
            topo_cfg = topo_cfg.with_seed(s);
        }
        let topo = Topology::generate(topo_cfg)?;
        let vps = deploy_vantage_points(&topo, &scale.vp_config())?;
        let sources = match sources_override {
            Some(s) => s,
            None => PublicSources::derive(&topo, &scale.kb_config()),
        };
        let kb = KnowledgeBase::assemble(&sources, &topo.world);
        let ipasn = topo.build_ipasn_db();
        Ok(Self {
            scale,
            topo,
            vps,
            sources,
            kb,
            ipasn,
            recorder: Arc::new(NoopRecorder),
        })
    }

    /// The ten target networks of §5 that exist in this world (all ten at
    /// default/paper scale; the tiny world has no named targets, so the
    /// largest networks stand in).
    pub fn targets(&self) -> Vec<Asn> {
        let named: Vec<Asn> = PAPER_TARGETS
            .iter()
            .map(|(a, _, _)| Asn(*a))
            .filter(|a| self.topo.ases.contains_key(a))
            .collect();
        if !named.is_empty() {
            return named;
        }
        let mut by_size: Vec<Asn> = self.topo.ases.keys().copied().collect();
        by_size.sort_by_key(|a| std::cmp::Reverse(self.topo.ases[a].facilities.len()));
        by_size.truncate(10);
        by_size
    }

    /// The probe addresses of [`Self::targets`].
    fn target_ips(&self) -> Vec<Ipv4Addr> {
        self.targets()
            .iter()
            .filter_map(|a| self.topo.target_ip(*a).ok())
            .collect()
    }

    /// Bootstrap traces: the targeted campaign of §5 (every vantage point
    /// of the allowed platforms probes every target) plus the archived
    /// iPlane/Ark daily sweeps.
    pub fn bootstrap_traces(
        &self,
        engine: &dyn ProbeService,
        platforms: Option<&[Platform]>,
    ) -> Vec<Trace> {
        let allowed = |p: Platform| platforms.is_none_or(|set| set.contains(&p));
        let targets = self.target_ips();

        let mut traces = Vec::new();
        let mut campaign_vps = Vec::new();
        for p in [Platform::RipeAtlas, Platform::LookingGlass] {
            if allowed(p) {
                campaign_vps.extend_from_slice(self.vps.of_platform(p));
            }
        }
        traces.extend(run_campaign_parallel(
            engine,
            &self.vps,
            &campaign_vps,
            &targets,
            0,
            &CampaignLimits::default(),
        ));

        for (platform, per_vp) in [(Platform::IPlane, 100), (Platform::Ark, 160)] {
            if allowed(platform) {
                traces.extend(archived_sweep(engine, &self.vps, platform, per_vp, 0xa5c1));
            }
        }
        traces
    }

    /// The last campaign number whose probe time `k * EPOCH_MS` fits in
    /// a `u64`; [`Lab::campaign`] takes `k` up to this.
    pub const MAX_CAMPAIGN: u64 = u64::MAX / EPOCH_MS;

    /// Deterministic follow-on campaign `k` (epoch `k`): every vantage
    /// point probes the standard targets at `k * EPOCH_MS`. A pure
    /// function of `(world, engine, k)`, so a daemon that pre-ingested
    /// campaigns 1..N at boot and one that absorbed the same numbers as
    /// deltas hold identical inputs, and `disruption_eval` streams
    /// exactly the epochs `cfsd` serves.
    pub fn campaign(&self, engine: &dyn ProbeService, k: u64) -> Vec<Trace> {
        let vp_ids: Vec<_> = self.vps.ids().collect();
        run_campaign(
            engine,
            &self.vps,
            &vp_ids,
            &self.target_ips(),
            k * EPOCH_MS,
            &CampaignLimits::default(),
        )
    }

    /// Display names for disruption-alert loci, from the facility and
    /// exchange names the public sources publish (the disruption
    /// schedule stays withheld).
    pub fn locus_names(&self) -> LocusNames {
        LocusNames {
            facilities: self
                .topo
                .facilities
                .iter()
                .map(|(id, f)| (id.raw(), f.name.clone()))
                .collect(),
            ixps: self
                .topo
                .ixps
                .iter()
                .map(|(id, x)| (id.raw(), x.name.clone()))
                .collect(),
        }
    }

    /// §3.2 augmentation: roughly one looking glass in ten answers BGP
    /// queries (the paper found 168 of 1,877); their session listings are
    /// fed to the search. Every in-tree run gets them through
    /// [`Self::session`]; public for the benchmark harness, which builds
    /// its sessions by hand.
    pub fn feed_bgp_sessions(&self, cfs: &mut CfsSession<'_>, platforms: Option<&[Platform]>) {
        if platforms.is_some_and(|p| !p.contains(&Platform::LookingGlass)) {
            return;
        }
        let lg_bgp = LookingGlassBgp::new(&self.topo);
        for (i, id) in self
            .vps
            .of_platform(Platform::LookingGlass)
            .iter()
            .enumerate()
        {
            if i % 10 != 0 {
                continue; // only the BGP-capable subset
            }
            let vp = &self.vps.vps[*id];
            cfs.ingest_bgp_sessions(vp.asn, &lg_bgp.sessions(vp.router));
        }
    }

    /// Seasons a session the way every run of the paper's recipe does:
    /// the bootstrap traces of the allowed `platforms` (all when
    /// `None`), then the §3.2 looking-glass BGP sessions. The session
    /// comes back unconverged, so a caller can add inputs first.
    pub fn session<'s>(
        &'s self,
        engine: &'s dyn ProbeService,
        kb: &'s KnowledgeBase,
        cfg: CfsConfig,
        recorder: Arc<dyn Recorder>,
        platforms: Option<&[Platform]>,
    ) -> CfsSession<'s> {
        let mut builder = Cfs::builder(engine, kb)
            .vps(&self.vps)
            .ipasn(&self.ipasn)
            .config(cfg)
            .recorder(recorder);
        if let Some(p) = platforms {
            builder = builder.platforms(p);
        }
        let mut session = builder
            .build_session()
            .expect("lab: CFS dependencies are always set");
        session.ingest(self.bootstrap_traces(engine, platforms));
        self.feed_bgp_sessions(&mut session, platforms);
        session
    }

    /// Runs the full CFS pipeline, optionally restricted to platforms and
    /// with an overridden knowledge base (Figure 8 degradations).
    pub fn run_cfs(
        &self,
        platforms: Option<&[Platform]>,
        kb_override: Option<&KnowledgeBase>,
        cfg: CfsConfig,
    ) -> CfsReport {
        let engine = Engine::new(&self.topo);
        let kb = kb_override.unwrap_or(&self.kb);
        self.session(&engine, kb, cfg, self.recorder.clone(), platforms)
            .into_report()
    }

    /// Runs the pipeline against the [`Substrate`] of `plan`: a faulted
    /// measurement and knowledge plane, or the clean one when `plan` is
    /// `None`. The same `(seed, plan)` pair always yields the
    /// byte-identical report.
    pub fn run_cfs_chaos(&self, plan: Option<FaultPlan>, cfg: CfsConfig) -> CfsReport {
        let plane = Substrate::new(self, plan, None);
        self.session(plane.engine(), plane.kb(), cfg, self.recorder.clone(), None)
            .into_report()
    }
}

/// The measurement plane a session probes and the knowledge base it
/// boots on, over a borrowed [`Lab`].
pub struct Substrate<'l> {
    lab: &'l Lab,
    engine: Box<dyn ProbeService + 'l>,
    /// The chaos-degraded public sources and the KB assembled from
    /// them; `None` reads the lab's own, never a copy.
    degraded: Option<(PublicSources, KnowledgeBase)>,
}

impl<'l> Substrate<'l> {
    /// Layers the measurement plane over `lab`: a clean engine, chaos
    /// under a fault `plan` (which also degrades the public sources the
    /// boot KB is assembled from: stale member lists, deleted
    /// facilities, conflicting records), and a disruption `schedule` on
    /// top. The schedule perturbs probes only; neither a session nor a
    /// detector ever sees its event list.
    pub fn new(lab: &'l Lab, plan: Option<FaultPlan>, schedule: Option<EventSchedule>) -> Self {
        let engine: Box<dyn ProbeService + 'l> = match plan {
            Some(p) => Box::new(ChaosEngine::new(Engine::new(&lab.topo), p)),
            None => Box::new(Engine::new(&lab.topo)),
        };
        let engine = match schedule {
            Some(s) => Box::new(ScheduledEngine::new(engine, s)),
            None => engine,
        };
        let degraded = plan.map(|p| {
            let sources = degrade_sources(&lab.sources, &p);
            let kb = KnowledgeBase::assemble(&sources, &lab.topo.world);
            (sources, kb)
        });
        Self {
            lab,
            engine,
            degraded,
        }
    }

    /// The lab world underneath.
    pub fn lab(&self) -> &'l Lab {
        self.lab
    }

    /// The probe-engine stack.
    pub fn engine(&self) -> &(dyn ProbeService + 'l) {
        &*self.engine
    }

    /// The public sources of the first epoch: chaos-degraded under a
    /// fault plan, the lab's own otherwise.
    pub fn sources(&self) -> &PublicSources {
        self.degraded.as_ref().map_or(&self.lab.sources, |(s, _)| s)
    }

    /// The knowledge base assembled from [`Self::sources`].
    pub fn kb(&self) -> &KnowledgeBase {
        self.degraded.as_ref().map_or(&self.lab.kb, |(_, kb)| kb)
    }
}
