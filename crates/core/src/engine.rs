//! The iterative Constrained Facility Search engine (§4.2–§4.4).
//!
//! The search core is `Send`: every substrate reference it holds
//! ([`Engine`], [`KnowledgeBase`], [`VpSet`], [`IpAsnDb`]) is `Sync`, all
//! facility sets are immutable [`FacilitySet`] values behind shared
//! allocations, and the three measurement-heavy stages (observation
//! extraction, remote-peering verdicts, follow-up traceroutes) fan out
//! over scoped worker threads. Every parallel stage merges its results in
//! a deterministic order, so a run produces a byte-identical
//! [`CfsReport`] at any worker count.
//!
//! All iterated engine state (`states`, the facility caches, the
//! exposure index…) is deliberately `BTreeMap`/`BTreeSet`, never the
//! hashed std containers, so iteration order — and therefore report
//! bytes — cannot depend on hasher seeds. `clippy.toml` bans both
//! hashed containers in every crate (DESIGN.md §6).

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

use cfs_alias::{correct_ip_to_asn, resolve_aliases, AliasResolution, IpIdProber};
use cfs_chaos::{backoff_delay_ms, CircuitBreaker, RetryBudget, MAX_RETRIES};
use cfs_kb::KnowledgeBase;
use cfs_net::IpAsnDb;
use cfs_obs::{NoopRecorder, Recorder};
use cfs_traceroute::{Engine, Platform, ProbeService, Trace, VpSet};
use cfs_types::{
    diff_keys, par, Asn, Error, FacilityId, FacilitySet, FacilitySetInterner, IxpId, LinkClass,
    MetroId, PeeringKind, Result, UnresolvedReason, VantagePointId,
};

use crate::corpus::{PathCorpus, SILENT};
use crate::observe::{extract_path, ExtractTally, HopTable, Observation, PathTally};
use crate::proximity::ProximityModel;
use crate::remote::{Rankings, RemoteTester};
use crate::report::{
    CandidateHistogram, CfsReport, DataQualityReport, InferredInterface, InferredLink,
    RouterRoleStats,
};
use crate::state::{IfaceState, SearchOutcome, States};

/// Tuning knobs of the search loop.
#[derive(Clone, Debug)]
pub struct CfsConfig {
    /// Iteration cap (the paper stops at 100).
    pub max_iterations: usize,
    /// Unresolved interfaces to chase per iteration (measurement budget).
    pub followup_interfaces: usize,
    /// Run the reverse search of §4.3.
    pub reverse_search: bool,
    /// Apply the switch-proximity heuristic of §4.4 at the end.
    pub proximity: bool,
    /// Apply Step 3 (alias sets share a facility). Disabled only by the
    /// ablation experiment.
    pub alias_constraints: bool,
    /// Worker threads for the parallel stages; `0` uses the machine's
    /// available parallelism. The report is byte-identical at any value.
    pub threads: usize,
    /// Gate public-crossing constraints on the multi-rule IXP-hop
    /// evidence and refuse facility pins with contested provenance
    /// (DESIGN.md §11). Disabled only by the prefix-only baseline in
    /// the detector-comparison experiment.
    pub evidence_gating: bool,
}

impl Default for CfsConfig {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            followup_interfaces: 120,
            reverse_search: true,
            proximity: true,
            alias_constraints: true,
            threads: 0,
            evidence_gating: true,
        }
    }
}

/// Follow-up targets per chased interface, smallest overlap first.
pub(crate) const TARGETS_PER_INTERFACE: usize = 3;
/// Vantage points probing each follow-up target.
pub(crate) const VPS_PER_TARGET: usize = 6;
/// Chases an interface gets before it yields its slot in the follow-up
/// budget to fresher ones (the paper's diminishing returns after
/// iteration 40).
pub(crate) const MAX_CHASE_ATTEMPTS: usize = 3;
/// Stop after this many iterations without progress.
const STALE_ITERATIONS: usize = 6;
/// Re-run alias resolution whenever this many iterations have added new
/// interfaces.
pub(crate) const REALIAS_EVERY: usize = 3;
/// Total follow-up retries a run may spend across all iterations;
/// exhaustion surfaces as `probe_exhausted` verdicts, not an error.
/// Each retry re-issues a probe after `cfs_chaos::backoff_delay_ms`
/// (DESIGN.md §9).
const RETRY_BUDGET: u64 = 768;
/// Consecutive failed probes before a vantage point's circuit opens
/// and follow-up planning routes around it.
pub(crate) const BREAKER_THRESHOLD: u32 = 6;
/// How long (virtual ms) an open circuit keeps a vantage point out of
/// the follow-up pool.
const BREAKER_COOLDOWN_MS: u64 = 600_000;

/// The search loop's stopping rule within the iteration cap: stop once
/// no interface is left unresolved-local, or after [`STALE_ITERATIONS`]
/// iterations that neither resolved an interface nor issued a
/// follow-up. The batch loop and the session's synthesized iterations
/// both run it, so a session's `iterations` cannot drift from a batch
/// run's.
#[derive(Default)]
pub(crate) struct Stopping {
    stale: usize,
    last_resolved: usize,
}

impl Stopping {
    /// Records one iteration's progress; whether the loop stops after it.
    pub(crate) fn after(&mut self, resolved: usize, issued: usize, all_done: bool) -> bool {
        if resolved == self.last_resolved && issued == 0 {
            self.stale += 1;
        } else {
            self.stale = 0;
        }
        self.last_resolved = resolved;
        self.stale >= STALE_ITERATIONS || all_done
    }
}

/// A follow-up probe that produced no routing information at all: every
/// hop anonymous (rate-limited/silent routers) or no hops (vantage-point
/// outage, probe timeout). Such traces add no observations, so they are
/// the retry trigger.
pub(crate) fn probe_failed(t: &Trace) -> bool {
    t.hops.iter().all(|h| h.ip.is_none())
}

/// The knowledge base a search reads from: borrowed at build time, or an
/// owned epoch swapped in by a `KbEpochFlip` delta. Every KB read in the
/// engine goes through [`Cfs::kb`], so a flip atomically retargets the
/// whole constraint system.
pub(crate) enum KbHandle<'a> {
    /// The builder-supplied knowledge base.
    Borrowed(&'a KnowledgeBase),
    /// A replacement epoch installed by [`crate::session::Delta::KbEpochFlip`].
    Owned(Arc<KnowledgeBase>),
}

impl KbHandle<'_> {
    pub(crate) fn get(&self) -> &KnowledgeBase {
        match self {
            KbHandle::Borrowed(kb) => kb,
            KbHandle::Owned(kb) => kb,
        }
    }
}

/// A constraint-graph dependency key: which knowledge-base footprint a
/// state's constraints were computed from, and the key of its cached
/// footprint ([`Cfs::footprint`]). A KB epoch flip diffs the footprint
/// cache and dirties exactly `deps[changed key]`, so
/// re-convergence sweeps only interfaces whose inputs actually moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum DepKey {
    /// `facilities_of_as(asn)` was intersected into the state.
    As(Asn),
    /// `facilities_of_ixp(ixp)` was intersected into the state.
    Ixp(IxpId),
    /// The metro-level widening pool of `ixp` could have been applied.
    Metro(IxpId),
}

/// What an owner's footprint is intersected with at one endpoint of a
/// crossing (Step 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Counterpart {
    /// A public crossing at the exchange.
    Exchange(IxpId),
    /// A public crossing at the exchange whose IXP-hop evidence the gate
    /// withholds (DESIGN.md §11): only the owner's footprint applies.
    Gated(IxpId),
    /// A private crossing with the peer AS.
    Peer(Asn),
}

/// One (owner, counterpart) pair the constraint kernel has met.
struct Pair {
    owner: Asn,
    with: Counterpart,
    /// Its footprints under the current epoch, from the first in-scope
    /// application on.
    meet: Option<Meet>,
}

/// A pair's footprints under the current epoch.
struct Meet {
    /// The owner's footprint.
    owner: FacilitySet,
    /// The owner's footprint ∩ the exchange's or the peer's, interned (a
    /// gated pair's is the owner's footprint).
    common: FacilitySet,
    /// Whether the peer's footprint is empty.
    peer_empty: bool,
}

impl Pair {
    /// The footprints its [`Meet`] reads.
    fn reads(&self) -> impl Iterator<Item = DepKey> {
        let with = match self.with {
            Counterpart::Exchange(ixp) => Some(DepKey::Ixp(ixp)),
            Counterpart::Gated(_) => None,
            Counterpart::Peer(peer) => Some(DepKey::As(peer)),
        };
        std::iter::once(DepKey::As(self.owner)).chain(with)
    }

    /// The dependency edges of an endpoint it constrains ([`DepKey`]; the
    /// metro pool is a conservative superset — it only matters on the
    /// widening path).
    fn deps(&self) -> impl Iterator<Item = DepKey> {
        let (with, metro) = match self.with {
            Counterpart::Exchange(ixp) | Counterpart::Gated(ixp) => {
                (DepKey::Ixp(ixp), Some(DepKey::Metro(ixp)))
            }
            Counterpart::Peer(peer) => (DepKey::As(peer), None),
        };
        [DepKey::As(self.owner), with].into_iter().chain(metro)
    }
}

/// The constraint kernel's pair table (DESIGN.md §5): pair ids are stable
/// for the life of the search, and a KB flip refreshes in place exactly
/// the pairs under the footprints it moved.
#[derive(Default)]
pub(crate) struct Pairs {
    ids: BTreeMap<(Asn, Counterpart), u32>,
    pairs: Vec<Pair>,
    /// Footprint key → the pairs whose [`Meet`] read it.
    under: BTreeMap<DepKey, Vec<u32>>,
}

/// One endpoint of a compiled observation: the state it constrains and
/// the pair it applies.
#[derive(Clone, Copy)]
pub(crate) struct End {
    slot: u32,
    pair: u32,
}

/// An observation compiled for the constraint kernel: the endpoints it
/// constrains, near end first.
pub(crate) type Plan = [Option<End>; 2];

impl Pairs {
    fn id(&mut self, owner: Asn, with: Counterpart) -> u32 {
        let pairs = &mut self.pairs;
        *self.ids.entry((owner, with)).or_insert_with(|| {
            pairs.push(Pair {
                owner,
                with,
                meet: None,
            });
            u32::try_from(pairs.len() - 1).expect("fewer than 2^32 pairs")
        })
    }

    /// Compiles one observation: Step 2 constrains both ends of a public
    /// crossing with a known far side, and both ends of a private one
    /// with a known peer AS.
    fn compile(&mut self, obs: &Observation, gating: bool, states: &mut States) -> Plan {
        let mut end = |ip: Ipv4Addr, owner: Asn, with: Counterpart| {
            Some(End {
                slot: states.slot(ip),
                pair: self.id(owner, with),
            })
        };
        match obs.class {
            LinkClass::Public { ixp } => {
                let with = if gating && obs.evidence.weak() {
                    Counterpart::Gated(ixp)
                } else {
                    Counterpart::Exchange(ixp)
                };
                let far = obs.far_asn.zip(obs.far_ip);
                [
                    end(obs.near_ip, obs.near_asn, with),
                    far.and_then(|(asn, ip)| end(ip, asn, with)),
                ]
            }
            LinkClass::Private => {
                let Some(peer) = obs.far_asn else {
                    return [None, None];
                };
                [
                    end(obs.near_ip, obs.near_asn, Counterpart::Peer(peer)),
                    obs.far_ip
                        .and_then(|ip| end(ip, peer, Counterpart::Peer(obs.near_asn))),
                ]
            }
        }
    }
}

/// Convergence record of one iteration (drives Figure 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IterationStats {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Interfaces resolved so far.
    pub resolved: usize,
    /// Interfaces tracked so far.
    pub tracked: usize,
    /// Follow-up traceroutes issued during this iteration.
    pub traces_issued: usize,
}

/// The Constrained Facility Search engine.
///
/// Built through [`Cfs::builder`], which wires the measurement substrate
/// (traceroute engine and vantage points), the public data (knowledge
/// base, IP-to-ASN service), and the configuration into a
/// [`crate::CfsSession`]: the session feeds bootstrap campaigns, iterates
/// to convergence and serves the [`CfsReport`].
pub struct Cfs<'a> {
    pub(crate) engine: &'a dyn ProbeService,
    pub(crate) kb: KbHandle<'a>,
    pub(crate) vps: &'a VpSet,
    pub(crate) ipasn: &'a IpAsnDb,
    pub(crate) cfg: CfsConfig,
    pub(crate) platforms: Option<BTreeSet<Platform>>,

    /// Every ingested trace, held as distinct measured paths with
    /// multiplicities (`crate::corpus`); `processed` counts the paths
    /// extracted into the held observations.
    pub(crate) corpus: PathCorpus,
    pub(crate) processed: usize,
    /// Paths repeated since the last extraction pass; telemetry counts
    /// those the pass does not extract (`[..processed]`) through their
    /// cached tallies.
    pub(crate) repeats: Vec<usize>,
    pub(crate) hop_ips: BTreeSet<Ipv4Addr>,
    pub(crate) aliases: AliasResolution,
    pub(crate) corrected: BTreeMap<Ipv4Addr, Asn>,
    /// Each corpus address's meaning and corrected ASN under the current
    /// epoch, by address id: extended as the corpus interns addresses,
    /// refreshed where [`Cfs::realias`] moves `corrected`, reclassified
    /// when a KB flip changes the classification view.
    pub(crate) hop_table: HopTable,
    pub(crate) observations: Vec<Observation>,
    /// Observations from BGP-capable looking glasses (§3.2 augmentation);
    /// survive the observation rebuilds that follow re-aliasing.
    pub(crate) session_observations: Vec<Observation>,
    /// Raw looking-glass session listings in ingestion order, replayed
    /// under the new epoch when a `KbEpochFlip` delta re-classifies them.
    pub(crate) bgp_log: Vec<(Asn, cfs_bgp::BgpSession)>,
    pub(crate) obs_keys: BTreeSet<(Ipv4Addr, Option<IxpId>, Option<Ipv4Addr>)>,
    /// `observations` and `session_observations` compiled for the
    /// constraint kernel, position for position: extended lazily by each
    /// pass, cleared only where the lists themselves are.
    pub(crate) plans: Vec<Plan>,
    pub(crate) session_plans: Vec<Plan>,
    /// Every (owner, counterpart) pair the kernel has met (see [`Pairs`]).
    pub(crate) pairs: Pairs,
    pub(crate) states: States,
    /// Remote-peering verdicts keyed by fabric address, each bound to the
    /// first exchange that triggered its test (the binding is needed to
    /// recompute the verdict when a delta invalidates it).
    pub(crate) remote_cache: BTreeMap<Ipv4Addr, (IxpId, Option<bool>)>,
    pub(crate) vp_crossed: BTreeMap<Asn, Vec<VantagePointId>>,
    /// Paths `[..indexed]` are walked into `vp_crossed`, each hop under
    /// the corrected ASN it had at its last walk; `reindex` is a bitmap,
    /// by address id, of the addresses whose corrected ASN moved since,
    /// the only hops a re-walk could add entries for.
    pub(crate) indexed: usize,
    pub(crate) reindex: Vec<u64>,
    pub(crate) chase_attempts: BTreeMap<Ipv4Addr, usize>,
    pub(crate) interner: FacilitySetInterner,
    /// Every knowledge-base footprint the search has read, under the
    /// current epoch ([`Cfs::footprint`]).
    pub(crate) footprints: BTreeMap<DepKey, FacilitySet>,
    /// Reverse dependency index: KB footprint key → interfaces whose
    /// constraints consumed it (see [`DepKey`]).
    pub(crate) deps: BTreeMap<DepKey, BTreeSet<Ipv4Addr>>,
    /// Known ASes and their footprints, the follow-up planner's target
    /// pool; built by the first chase that scores targets.
    pub(crate) chase_targets: Option<ChaseTargets>,
    /// (host AS, vantage point) for every vantage point on an allowed
    /// platform, sorted: each AS's run lists its vantage points in id
    /// order.
    pub(crate) vps_by_as: Vec<(Asn, VantagePointId)>,
    /// Vantage points administratively down (`VpStatusChange` deltas);
    /// excluded from the remote-peering measurement pool.
    pub(crate) vp_down: BTreeSet<VantagePointId>,
    /// Each tested exchange's nearest vantage points under `vp_down`,
    /// cleared whenever it changes.
    pub(crate) rankings: Rankings,
    pub(crate) clock_ms: u64,
    pub(crate) iterations: Vec<IterationStats>,
    pub(crate) traces_issued: usize,
    pub(crate) new_ips_since_alias: usize,
    pub(crate) recorder: Arc<dyn Recorder>,
    pub(crate) conv_hists: Vec<CandidateHistogram>,
    /// Follow-up retry budget; spent/denied counts feed the
    /// [`DataQualityReport`].
    pub(crate) retry_budget: RetryBudget,
    /// Per-vantage-point circuit breaker over follow-up probe failures.
    pub(crate) breaker: CircuitBreaker,
    /// Seed for retry backoff jitter, derived from the topology seed so
    /// the schedule is a pure function of the run inputs.
    pub(crate) chaos_seed: u64,
    /// Probes still failed after every retry round.
    pub(crate) failed_probes: u64,
}

/// The follow-up planner's target pool: every AS with a known footprint,
/// indexed by facility so a chase visits only the ASes overlapping its
/// candidates.
pub(crate) struct ChaseTargets {
    /// Known ASes in ASN order, with their footprints.
    ases: Vec<(Asn, FacilitySet)>,
    /// (facility, position in `ases`) for every footprint entry, sorted.
    at: Vec<(FacilityId, usize)>,
}

/// Builder for a [`crate::CfsSession`]: names every dependency at the
/// call site instead of a five-argument positional constructor.
///
/// ```ignore
/// let mut session = Cfs::builder(&engine, &kb)
///     .vps(&vps)
///     .ipasn(&ipasn)
///     .config(CfsConfig { threads: 8, ..CfsConfig::default() })
///     .build_session()?;
/// ```
#[must_use = "call .build_session() to obtain the session"]
pub struct CfsBuilder<'a> {
    engine: &'a dyn ProbeService,
    kb: &'a KnowledgeBase,
    vps: Option<&'a VpSet>,
    ipasn: Option<&'a IpAsnDb>,
    cfg: CfsConfig,
    platforms: Option<BTreeSet<Platform>>,
    recorder: Arc<dyn Recorder>,
    vps_down: BTreeSet<VantagePointId>,
}

impl<'a> CfsBuilder<'a> {
    /// The vantage-point set issuing measurements (required).
    pub fn vps(mut self, vps: &'a VpSet) -> Self {
        self.vps = Some(vps);
        self
    }

    /// The IP-to-ASN service used by alias correction (required).
    pub fn ipasn(mut self, ipasn: &'a IpAsnDb) -> Self {
        self.ipasn = Some(ipasn);
        self
    }

    /// Replaces the whole configuration (default: [`CfsConfig::default`]).
    pub fn config(mut self, cfg: CfsConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Restricts follow-up measurements to the given platforms (the
    /// Figure 7 single-platform runs).
    pub fn platforms(mut self, platforms: &[Platform]) -> Self {
        self.platforms = Some(platforms.iter().copied().collect());
        self
    }

    /// Attaches an observability recorder: every pipeline stage then
    /// emits spans, counters, and histograms through it (default: the
    /// no-op recorder, which costs one empty virtual call per signal).
    /// With a `cfs_obs::TraceRecorder` the stable export is
    /// byte-identical at any [`CfsConfig::threads`] value.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Marks vantage points as administratively down from the start:
    /// they are excluded from the remote-peering measurement pool. A
    /// fresh search built with the same set reproduces a resident
    /// session that absorbed the equivalent `VpStatusChange` deltas.
    pub fn vps_down(mut self, down: BTreeSet<VantagePointId>) -> Self {
        self.vps_down = down;
        self
    }

    /// Builds a resident [`crate::CfsSession`] around the engine, with
    /// incremental re-convergence (`apply_delta`) and a queryable cached
    /// report; errors when a required dependency was not set.
    pub fn build_session(self) -> Result<crate::session::CfsSession<'a>> {
        let vps = self
            .vps
            .ok_or_else(|| Error::invalid("CfsBuilder: vantage points not set (call .vps())"))?;
        let ipasn = self
            .ipasn
            .ok_or_else(|| Error::invalid("CfsBuilder: IP-to-ASN db not set (call .ipasn())"))?;
        Ok(crate::session::CfsSession::new(Cfs::assemble(
            self.engine,
            vps,
            self.kb,
            ipasn,
            self.cfg,
            self.platforms,
            self.recorder,
            self.vps_down,
        )))
    }
}

impl<'a> Cfs<'a> {
    /// Starts building a search over the given measurement engine and
    /// knowledge base. See [`CfsBuilder`]. Any [`ProbeService`] works —
    /// the clean simulator [`Engine`] or a fault-injecting
    /// `cfs_traceroute::ChaosEngine`; the search never learns which.
    pub fn builder(engine: &'a dyn ProbeService, kb: &'a KnowledgeBase) -> CfsBuilder<'a> {
        CfsBuilder {
            engine,
            kb,
            vps: None,
            ipasn: None,
            cfg: CfsConfig::default(),
            platforms: None,
            recorder: Arc::new(NoopRecorder),
            vps_down: BTreeSet::new(),
        }
    }

    /// The knowledge base the search currently reads from (the borrowed
    /// build-time epoch, or the owned epoch a delta flipped in).
    pub(crate) fn kb(&self) -> &KnowledgeBase {
        self.kb.get()
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        engine: &'a dyn ProbeService,
        vps: &'a VpSet,
        kb: &'a KnowledgeBase,
        ipasn: &'a IpAsnDb,
        cfg: CfsConfig,
        platforms: Option<BTreeSet<Platform>>,
        recorder: Arc<dyn Recorder>,
        vp_down: BTreeSet<VantagePointId>,
    ) -> Self {
        let retry_budget = RetryBudget::new(RETRY_BUDGET);
        let breaker = CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_COOLDOWN_MS);
        let chaos_seed = cfs_chaos::splitmix64(engine.topology().config.seed ^ 0xcf5c_4a05);
        let mut vps_by_as: Vec<(Asn, VantagePointId)> = vps
            .vps
            .iter()
            .filter(|(_, vp)| platforms.as_ref().is_none_or(|p| p.contains(&vp.platform)))
            .map(|(id, vp)| (vp.asn, id))
            .collect();
        vps_by_as.sort_unstable();
        // KB-plane quality counters, once per engine: reconciliation is
        // a pure function of the assembled KB, independent of thread
        // count and iteration schedule.
        let q = kb.quality();
        recorder.counter("kb.records", q.records);
        recorder.counter("kb.agreement", u64::from(q.agreement_mean_pm));
        recorder.counter("kb.conflicts", q.contested);
        Self {
            engine,
            kb: KbHandle::Borrowed(kb),
            vps,
            ipasn,
            cfg,
            platforms,
            corpus: PathCorpus::default(),
            processed: 0,
            repeats: Vec::new(),
            hop_ips: BTreeSet::new(),
            aliases: AliasResolution::default(),
            corrected: BTreeMap::new(),
            hop_table: HopTable::default(),
            observations: Vec::new(),
            session_observations: Vec::new(),
            bgp_log: Vec::new(),
            obs_keys: BTreeSet::new(),
            plans: Vec::new(),
            session_plans: Vec::new(),
            pairs: Pairs::default(),
            states: States::default(),
            remote_cache: BTreeMap::new(),
            vp_crossed: BTreeMap::new(),
            indexed: 0,
            reindex: Vec::new(),
            chase_attempts: BTreeMap::new(),
            interner: FacilitySetInterner::new(),
            footprints: BTreeMap::new(),
            deps: BTreeMap::new(),
            chase_targets: None,
            vps_by_as,
            vp_down,
            rankings: Rankings::default(),
            clock_ms: 0,
            iterations: Vec::new(),
            traces_issued: 0,
            new_ips_since_alias: 0,
            recorder,
            conv_hists: Vec::new(),
            retry_budget,
            breaker,
            chaos_seed,
            failed_probes: 0,
        }
    }

    /// Adds traces to the corpus; returns the hop addresses seen for the
    /// first time, in first-seen order. A repeated path only bumps its
    /// multiplicity: its identical first occurrence already fed the hop
    /// set, and extraction counts it through the path's cached tally.
    pub(crate) fn ingest(&mut self, traces: &[Trace]) -> Vec<Ipv4Addr> {
        let known = self.corpus.addrs().len();
        for t in traces {
            if let Some(id) = self.corpus.absorb(t) {
                self.repeats.push(id);
            }
        }
        // The corpus interns in first-seen order; an address it has not
        // held may still be a looking-glass session's.
        let addrs = self.corpus.addrs();
        let fresh: Vec<Ipv4Addr> = addrs[known..]
            .iter()
            .copied()
            .filter(|ip| self.hop_ips.insert(*ip))
            .collect();
        self.hop_table.extend(addrs, self.kb.get(), &self.corrected);
        self.new_ips_since_alias += fresh.len();
        fresh
    }

    /// Feeds BGP session listings from BGP-capable looking glasses
    /// (§3.2): each session pins both end addresses and the neighbor ASN
    /// of an interconnection without a traceroute having to cross it.
    /// `owner` is the AS operating the queried looking glass.
    pub(crate) fn ingest_bgp_sessions(&mut self, owner: Asn, sessions: &[cfs_bgp::BgpSession]) {
        for s in sessions {
            self.bgp_log.push((owner, *s));
            for ip in [s.local_ip, s.neighbor_ip] {
                if self.hop_ips.insert(ip) {
                    self.new_ips_since_alias += 1;
                }
            }
            self.push_session_observation(owner, s);
        }
    }

    /// Classifies one looking-glass session under the current KB epoch
    /// and keeps the observation unless its key is already held.
    fn push_session_observation(&mut self, owner: Asn, s: &cfs_bgp::BgpSession) {
        // Classification mirrors Step 1: confirmed IXP space ⇒ public.
        let class = match self.kb().ixp_of_ip(s.neighbor_ip) {
            Some(ixp) => LinkClass::Public { ixp },
            None => LinkClass::Private,
        };
        let obs = Observation {
            near_asn: owner,
            near_ip: s.local_ip,
            class,
            far_asn: Some(s.neighbor_asn),
            far_ip: Some(s.neighbor_ip),
            // A configured BGP session is direct operator evidence;
            // the IXP-hop rules never applied.
            evidence: crate::observe::IxpHopEvidence::FULL,
        };
        if self.obs_keys.insert(obs.key()) {
            self.session_observations.push(obs);
        }
    }

    /// Drops every observation and rebuilds the looking-glass ones from
    /// the session log under the current KB epoch, so the next
    /// [`Cfs::process_new_traces`] re-extracts the whole trace corpus.
    pub(crate) fn rebuild_observations(&mut self) {
        self.observations.clear();
        self.obs_keys.clear();
        self.session_observations.clear();
        self.plans.clear();
        self.session_plans.clear();
        self.processed = 0;
        let log = std::mem::take(&mut self.bgp_log);
        for (owner, s) in &log {
            self.push_session_observation(*owner, s);
        }
        self.bgp_log = log;
    }

    /// The iterative constraint loop: applies constraints, records
    /// convergence, issues follow-ups, and stops on the paper's
    /// staleness/iteration-cap/all-done conditions. Leaves every verdict
    /// in `self.states`; callers build the report separately.
    ///
    /// `settled` is the loop's constraint-pass watermark (DESIGN.md §5):
    /// the prefix of each observation list an earlier full pass of this
    /// loop applied. In the loop the KB is fixed and `remote_cache` only
    /// gains entries, so only the loop's own re-extraction moves it back.
    pub(crate) fn run_to_convergence(&mut self) {
        self.realias();
        self.reset_observations();
        self.process_new_traces();

        let mut settled = (0, 0);
        let mut stopping = Stopping::default();
        for iteration in 1..=self.cfg.max_iterations {
            cfs_obs::span!(self.recorder, "cfs.iteration");
            self.recorder.counter("cfs.iterations", 1);
            self.apply_constraints_scoped(iteration, None, settled);
            settled = (self.observations.len(), self.session_observations.len());
            if self.cfg.alias_constraints {
                self.apply_alias_constraints_scoped(iteration, None);
            }
            self.record_convergence(iteration);
            let resolved = self.resolved_count();
            let mut issued = 0usize;

            let all_done = self.all_done();
            if !all_done && iteration < self.cfg.max_iterations {
                issued = self.followups();
                self.clock_ms += 120_000; // measurements spread over time
                if self.new_ips_since_alias > 0 && iteration % REALIAS_EVERY == 0 {
                    self.realias();
                    self.reset_observations();
                    settled.0 = 0;
                }
                self.process_new_traces();
            }

            self.iterations.push(IterationStats {
                iteration,
                resolved,
                tracked: self.states.len(),
                traces_issued: issued,
            });
            if stopping.after(resolved, issued, all_done) {
                break;
            }
        }
    }

    /// Whether no tracked interface is left unresolved-local.
    pub(crate) fn all_done(&self) -> bool {
        self.states
            .values()
            .all(|s| s.outcome() != SearchOutcome::UnresolvedLocal)
    }

    /// Snapshots the candidate-set-size distribution after this
    /// iteration's constraints: one [`CandidateHistogram`] per iteration
    /// for `CfsReport::convergence`, mirrored into the recorder's
    /// `cfs.candidates_per_iface` histogram. Iterates the (worker-count
    /// independent) state map, so the telemetry is deterministic.
    pub(crate) fn record_convergence(&mut self, iteration: usize) {
        let mut hist = CandidateHistogram::new(iteration);
        for state in self.states.values() {
            let size = state.candidates.as_ref().map(FacilitySet::len);
            hist.record(size);
            if let Some(n) = size {
                self.recorder.observe("cfs.candidates_per_iface", n as u64);
            }
        }
        self.conv_hists.push(hist);
    }

    // ------------------------------------------------------------------
    // Incremental re-convergence (the session's dirty-frontier sweep)
    // ------------------------------------------------------------------

    /// Re-derives the states of exactly the interfaces in `scope` from
    /// the current observation list and knowledge base, leaving every
    /// other state untouched.
    ///
    /// Correctness rests on the iteration-1 fixed point of follow-up-less
    /// configurations: with no new measurements arriving, the constraint
    /// loop's state after iteration 1 equals its state at convergence
    /// (observation constraints are static sets, re-applying them is a
    /// no-op, and alias combination is idempotent). One scoped sweep at
    /// `iteration = 1` therefore reproduces, byte-for-byte, what a
    /// from-scratch batch run would compute for the scoped interfaces —
    /// provided `scope` is closed over alias sets (callers union in every
    /// member of any alias set containing a dirty interface).
    pub(crate) fn kernel_converge(&mut self, scope: &BTreeSet<Ipv4Addr>) {
        cfs_obs::span!(self.recorder, "serve.kernel");
        for ip in scope {
            self.states.remove(ip);
        }
        self.apply_constraints_scoped(1, Some(scope), (0, 0));
        if self.cfg.alias_constraints {
            self.apply_alias_constraints_scoped(1, Some(scope));
        }
    }

    /// Rebuilds `iterations` and `conv_hists` as the follow-up-less batch
    /// loop would have produced them over the current (fixed-point)
    /// states: the per-iteration resolved/tracked counts are constant, so
    /// the loop's iteration cap and [`Stopping`] rule are replayed
    /// against constants.
    pub(crate) fn synthesize_iterations(&mut self) {
        self.iterations.clear();
        self.conv_hists.clear();
        let mut hist = CandidateHistogram::new(0);
        let mut all_done = true;
        for state in self.states.values() {
            hist.record(state.candidates.as_ref().map(FacilitySet::len));
            all_done &= state.outcome() != SearchOutcome::UnresolvedLocal;
        }
        let (resolved, tracked) = (hist.resolved, self.states.len());
        let mut stopping = Stopping::default();
        for iteration in 1..=self.cfg.max_iterations {
            self.conv_hists.push(CandidateHistogram {
                iteration,
                ..hist.clone()
            });
            self.iterations.push(IterationStats {
                iteration,
                resolved,
                tracked,
                traces_issued: 0,
            });
            if stopping.after(resolved, 0, all_done) {
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Data preparation
    // ------------------------------------------------------------------

    /// Re-resolves aliases over every hop address and re-runs the
    /// IP-to-ASN majority correction; returns the addresses whose
    /// corrected ASN changed (moved, appeared, or vanished), which the
    /// next [`Cfs::process_new_traces`] also re-walks into the exposure
    /// index. Leaves the observation list alone (see
    /// [`Cfs::reset_observations`]).
    pub(crate) fn realias(&mut self) -> Vec<Ipv4Addr> {
        cfs_obs::span!(self.recorder, "stage.alias_resolution");
        let prober = IpIdProber::new(self.engine.topology());
        let ips: Vec<Ipv4Addr> = self.hop_ips.iter().copied().collect();
        let workers = par::workers(self.cfg.threads);
        self.aliases = resolve_aliases(&prober, &ips, workers);
        let (corrected, _stats) = correct_ip_to_asn(self.ipasn, &self.aliases, &ips);
        self.new_ips_since_alias = 0;
        let old = std::mem::replace(&mut self.corrected, corrected);
        // A linear merge walk: the batch loop re-aliases many times.
        let mut moved = Vec::new();
        diff_keys(&old, &self.corrected, |ip| moved.push(*ip));
        for ip in &moved {
            // An address no path crossed (a looking-glass session's) has
            // no id and no hop to re-read.
            if let Some(id) = self.corpus.id_of(*ip) {
                self.hop_table.refresh(id, self.corrected.get(ip).copied());
                if self.reindex.len() <= id / 64 {
                    self.reindex.resize(id / 64 + 1, 0);
                }
                self.reindex[id / 64] |= 1 << (id % 64);
            }
        }
        moved
    }

    /// Drops every trace-derived observation so the next
    /// [`Cfs::process_new_traces`] re-extracts the whole corpus under the
    /// current corrected view. Looking-glass observations come from
    /// authoritative output, never read that view, and survive as-is.
    pub(crate) fn reset_observations(&mut self) {
        self.observations.clear();
        self.plans.clear();
        self.obs_keys = self
            .session_observations
            .iter()
            .map(Observation::key)
            .collect();
        self.processed = 0;
    }

    /// Extracts observations from paths ingested since the last call,
    /// and brings the vantage-point exposure index up to date.
    ///
    /// Extraction is pure per path, so it fans out over worker threads,
    /// each collecting its chunk into one flat list; the dedup merge and
    /// the exposure index then run serially in first-seen order, keeping
    /// results independent of the worker count. Telemetry is tallied per
    /// trace — each new path weighted by its multiplicity, each repeat of
    /// an already extracted path by its cached tally — and recorded once.
    pub(crate) fn process_new_traces(&mut self) {
        cfs_obs::span!(self.recorder, "stage.extract");
        let workers = par::workers(self.cfg.threads);
        let Self {
            ref corpus,
            processed,
            indexed,
            ref kb,
            ref hop_table,
            ref mut obs_keys,
            ref mut observations,
            ref mut vp_crossed,
            ref mut reindex,
            ref mut repeats,
            ref recorder,
            ..
        } = *self;
        let kb = kb.get();
        let (paths, new) = (corpus.len(), corpus.len() - processed);
        let per_chunk = par::fan_out(processed..paths, workers, 64, |range| {
            let (mut out, mut hops) = (Vec::new(), Vec::new());
            let tallies: Vec<PathTally> = range
                .map(|i| {
                    hops.clear();
                    let ids = corpus.hops(i).iter();
                    hops.extend(corpus.path(i).zip(ids.map(|h| hop_table.meaning(*h))));
                    extract_path(&hops, kb, &mut out)
                })
                .collect();
            (out, tallies)
        });

        let mut pass = ExtractTally::default();
        let mut tallies = Vec::with_capacity(new);
        for (obs, chunk_tallies) in per_chunk {
            for obs in obs {
                if obs_keys.insert(obs.key()) {
                    observations.push(obs);
                    pass.observations_new += 1;
                }
            }
            tallies.extend(chunk_tallies);
        }
        for (i, tally) in (processed..).zip(&tallies) {
            pass.add(*tally, corpus.mult(i));
        }
        // A repeat of an already extracted path reads a view that has not
        // moved under any of its hops since (callers reset `processed`
        // otherwise), so its cached tally is what extracting it now
        // would count.
        for id in repeats.drain(..).filter(|id| *id < processed) {
            pass.add(corpus.tally(id), 1);
        }

        // Maintain the exposure index: which vantage points see which
        // ASes on their paths (used to aim follow-ups). Its lists are
        // append-only and capped at 64 entries, so re-walking a hop whose
        // corrected ASN has not moved since its last walk is a no-op:
        // walking the moved hops of already indexed paths, then every
        // hop of the rest, in first-seen order, changes exactly what a
        // walk over every trace would. A caller that keeps the held
        // observations (`processed > 0`) has established that no address
        // of an already extracted path moved, so only a re-extraction
        // re-walks.
        let moved = |h: u32| {
            let h = h as usize;
            reindex.get(h / 64).is_some_and(|w| w & 1 << (h % 64) != 0)
        };
        let start = if processed == 0 && reindex.iter().any(|w| *w != 0) {
            0
        } else {
            indexed
        };
        for i in start..paths {
            let vp = corpus.vp(i);
            for h in corpus.hops(i) {
                if *h == SILENT || i < indexed && !moved(*h) {
                    continue;
                }
                if let Some(asn) = hop_table.asn(*h) {
                    let list = vp_crossed.entry(asn).or_default();
                    if list.len() < 64 && !list.contains(&vp) {
                        list.push(vp);
                    }
                }
            }
        }
        reindex.clear();
        pass.flush(&**recorder);
        for (i, tally) in (processed..).zip(tallies) {
            self.corpus.set_tally(i, tally);
        }
        self.processed = paths;
        self.indexed = paths;
    }

    /// The knowledge-base footprint `key` names, interned and cached
    /// under the current epoch: an AS's or an exchange's facilities, or
    /// an exchange's metro-level widening pool, every known facility in
    /// the metros the exchange operates in. When footprints fail to
    /// intersect, falling back to that pool keeps the interface
    /// geographically constrained instead of dead-ending (DESIGN.md §9).
    pub(crate) fn footprint(&mut self, key: DepKey) -> FacilitySet {
        if let Some(hit) = self.footprints.get(&key) {
            return hit.clone();
        }
        let kb = self.kb();
        let facs = match key {
            DepKey::As(asn) => kb.facilities_of_as(asn),
            DepKey::Ixp(ixp) => kb.facilities_of_ixp(ixp),
            DepKey::Metro(ixp) => kb
                .facilities_of_ixp(ixp)
                .iter()
                .filter_map(|f| kb.metro_of_facility(*f))
                .collect::<BTreeSet<MetroId>>()
                .into_iter()
                .flat_map(|m| kb.facilities_in_metro(m))
                .collect(),
        };
        let set = self.interner.intern_set(&facs);
        self.footprints.insert(key, set.clone());
        set
    }

    // ------------------------------------------------------------------
    // Steps 2 + 3: constraints
    // ------------------------------------------------------------------

    /// Reads the footprints of pair `id` under the current epoch, unless
    /// they are held already: a pair's footprints are read on its first
    /// in-scope application and kept until a KB flip moves one of them
    /// ([`Cfs::refresh_pairs`]).
    fn fill(&mut self, id: u32) {
        let pair = &self.pairs.pairs[id as usize];
        if pair.meet.is_some() {
            return;
        }
        let meet = self.meet(pair.owner, pair.with);
        let Pairs { pairs, under, .. } = &mut self.pairs;
        let pair = &mut pairs[id as usize];
        pair.meet = Some(meet);
        for key in pair.reads() {
            under.entry(key).or_default().push(id);
        }
    }

    /// The footprints of an (owner, counterpart) pair under the current
    /// epoch.
    fn meet(&mut self, owner: Asn, with: Counterpart) -> Meet {
        let f_owner = self.footprint(DepKey::As(owner));
        let (common, peer_empty) = match with {
            Counterpart::Gated(_) => (f_owner.clone(), false),
            Counterpart::Exchange(ixp) => {
                (f_owner.intersect(&self.footprint(DepKey::Ixp(ixp))), false)
            }
            Counterpart::Peer(peer) => {
                let f_peer = self.footprint(DepKey::As(peer));
                (f_owner.intersect(&f_peer), f_peer.is_empty())
            }
        };
        Meet {
            common: self.interner.intern(common.iter()),
            owner: f_owner,
            peer_empty,
        }
    }

    /// Re-reads, in place, the footprints of every pair that read one of
    /// the `moved` keys (a KB flip's footprint diff).
    pub(crate) fn refresh_pairs(&mut self, moved: &[DepKey]) {
        let stale: BTreeSet<u32> = moved
            .iter()
            .filter_map(|key| self.pairs.under.get(key))
            .flatten()
            .copied()
            .collect();
        for id in stale {
            let pair = &self.pairs.pairs[id as usize];
            let meet = self.meet(pair.owner, pair.with);
            self.pairs.pairs[id as usize].meet = Some(meet);
        }
    }

    /// The constraint pass over the merged observation list. With
    /// `scope: None` this is the full batch pass; with a scope, only
    /// endpoints inside it are (re-)constrained — the session's dirty
    /// frontier sweep. The observation order, and therefore every
    /// interface's constraint subsequence, is identical in both modes.
    ///
    /// The pass walks the compiled observations ([`Plan`]), compiling the
    /// ones appended since the last pass first. Every observation is
    /// re-applied, but dependency edges are recorded and remote tests
    /// looked for only past `settled`, the prefix of each list an earlier
    /// full pass of the same loop applied under inputs that have not
    /// moved since ([`Cfs::run_to_convergence`]); a scoped pass settles
    /// nothing.
    pub(crate) fn apply_constraints_scoped(
        &mut self,
        iteration: usize,
        scope: Option<&BTreeSet<Ipv4Addr>>,
        settled: (usize, usize),
    ) {
        cfs_obs::span!(self.recorder, "stage.constrain");
        let gating = self.cfg.evidence_gating;
        let Self {
            ref observations,
            ref session_observations,
            ref mut plans,
            ref mut session_plans,
            ref mut pairs,
            ref mut states,
            ..
        } = *self;
        for (list, plans) in [(observations, plans), (session_observations, session_plans)] {
            let new = &list[plans.len()..];
            plans.extend(new.iter().map(|obs| pairs.compile(obs, gating, states)));
        }
        let plans = std::mem::take(&mut self.plans);
        let session_plans = std::mem::take(&mut self.session_plans);
        self.recorder.counter(
            "constrain.observations",
            (plans.len() + session_plans.len()) as u64,
        );
        let in_scope = |ip: Ipv4Addr| scope.is_none_or(|s| s.contains(&ip));
        let lists = [(&plans[..], settled.0), (&session_plans[..], settled.1)];
        let unsettled = lists.iter().flat_map(|(list, from)| &list[*from..]);
        self.prefill_remote_verdicts(unsettled, in_scope);
        for (list, from) in lists {
            for (i, plan) in list.iter().enumerate() {
                for end in plan.iter().flatten() {
                    let ip = self.states.ip(end.slot);
                    if !in_scope(ip) {
                        continue;
                    }
                    if i >= from {
                        for key in self.pairs.pairs[end.pair as usize].deps() {
                            self.deps.entry(key).or_default().insert(ip);
                        }
                    }
                    self.apply(*end, iteration);
                }
            }
        }
        self.plans = plans;
        self.session_plans = session_plans;
    }

    /// Pre-computes the remote-peering RTT verdicts that [`Cfs::apply`]
    /// will need, fanning the measurements out over worker threads.
    ///
    /// A verdict is needed for a public interface whose owner shares no
    /// facility with the exchange (§4.2 case 3). The serial pass binds
    /// each interface to the *first* exchange triggering the test, so the
    /// work list is gathered in observation order, probed in parallel,
    /// and written back in the same order — identical to the serial run.
    /// A full pass passes only the unsettled observations: an endpoint
    /// an earlier full pass checked is cached, or fails a test whose
    /// inputs have not moved since.
    fn prefill_remote_verdicts<'p>(
        &mut self,
        plans: impl Iterator<Item = &'p Plan>,
        in_scope: impl Fn(Ipv4Addr) -> bool,
    ) {
        cfs_obs::span!(self.recorder, "stage.remote");
        let mut pending: Vec<(Ipv4Addr, IxpId)> = Vec::new();
        let mut queued: BTreeSet<Ipv4Addr> = BTreeSet::new();
        for end in plans.flatten().flatten() {
            // Gated endpoints never intersect with the exchange's
            // footprint, so they never trigger the remote test either.
            let Counterpart::Exchange(ixp) = self.pairs.pairs[end.pair as usize].with else {
                continue;
            };
            let ip = self.states.ip(end.slot);
            if !in_scope(ip) || self.remote_cache.contains_key(&ip) || queued.contains(&ip) {
                continue;
            }
            self.fill(end.pair);
            let meet = self.pairs.pairs[end.pair as usize].meet.as_ref();
            let meet = meet.expect("filled above");
            if !meet.owner.is_empty() && meet.common.is_empty() {
                queued.insert(ip);
                pending.push((ip, ixp));
            }
        }
        if pending.is_empty() {
            return;
        }
        let workers = par::workers(self.cfg.threads);
        let engine = self.engine;
        let vps = self.vps;
        let retry_seed = self.chaos_seed;
        let down = &self.vp_down;
        // Verdict counters are per tested address (the pending list does
        // not depend on the worker count), so the recorder's totals stay
        // chunking-independent.
        let rec: &dyn Recorder = &*self.recorder;
        let tester = || {
            RemoteTester::new(engine, vps)
                .recorded(rec)
                .retrying(retry_seed)
                .excluding(down)
        };
        let rankings = &mut self.rankings;
        let ranker = tester();
        for (_, ixp) in &pending {
            rankings.rank(&ranker, *ixp);
        }
        let rankings = &*rankings;
        let verdicts = par::concat(par::fan_out(0..pending.len(), workers, 8, |range| {
            let tester = tester();
            let chunk = pending[range].iter();
            chunk
                .map(|(ip, ixp)| rankings.is_remote(&tester, *ixp, *ip))
                .collect()
        }));
        for ((ip, ixp), verdict) in pending.into_iter().zip(verdicts) {
            self.remote_cache.insert(ip, (ixp, verdict));
        }
    }

    /// Step 2 at one compiled endpoint: intersect the owner's footprint
    /// with the exchange's (public) or the peer's (private;
    /// cross-connects join routers in one building). A public endpoint
    /// whose owner shares no facility with the exchange goes to
    /// [`Cfs::constrain_unshared`].
    ///
    /// When a public crossing's IXP-hop evidence is weak or contested and
    /// evidence gating is on (a gated pair), the exchange-footprint
    /// intersection is withheld: the interface keeps the owner's full
    /// footprint — a wider-but-correct candidate set — and carries a
    /// `contested_provenance` reason instead of risking a confidently
    /// wrong narrowing from disputed data (DESIGN.md §11). An owner
    /// without facility data leaves the interface missing data, which is
    /// what constraining it to the empty set records.
    fn apply(&mut self, end: End, iteration: usize) {
        self.fill(end.pair);
        let pair = &self.pairs.pairs[end.pair as usize];
        let meet = pair.meet.as_ref().expect("filled above");
        let (slot, owner) = (end.slot, pair.owner);
        match pair.with {
            Counterpart::Peer(_) => {
                // No common facility (tethering, remote private
                // peering): the only safe constraint is the owner's own
                // footprint, unless the peer has no facility data.
                let allowed = if meet.common.is_empty() && !meet.peer_empty {
                    &meet.owner
                } else {
                    &meet.common
                };
                let state = self.states.at(slot, owner);
                state.seen_private = true;
                state.constrain(allowed, iteration);
            }
            Counterpart::Gated(ixp) => {
                let state = self.states.at(slot, owner);
                state.public_ixps.insert(ixp);
                if !meet.owner.is_empty() {
                    let reason = UnresolvedReason::ContestedProvenance;
                    state.reason.get_or_insert(reason);
                    if !std::mem::replace(&mut state.evidence_gated, true) {
                        self.recorder.counter("constrain.evidence_gated", 1);
                    }
                }
                state.constrain(&meet.owner, iteration);
            }
            Counterpart::Exchange(ixp) if meet.owner.is_empty() || !meet.common.is_empty() => {
                let state = self.states.at(slot, owner);
                state.public_ixps.insert(ixp);
                state.constrain(&meet.common, iteration);
            }
            Counterpart::Exchange(ixp) => {
                let f_owner = meet.owner.clone();
                self.constrain_unshared(slot, owner, ixp, &f_owner, iteration);
            }
        }
    }

    /// Step 2 at a public endpoint whose owner `f_owner` shares no
    /// facility with the exchange: the remote test decides (§4.2 case
    /// 3). A remote peer's router is wherever the AS keeps equipment; a
    /// local or inconclusive one widens to the exchange's metro-level
    /// candidates instead of dead-ending (DESIGN.md §9) — later
    /// constraints can still narrow from there.
    fn constrain_unshared(
        &mut self,
        slot: u32,
        owner: Asn,
        ixp: IxpId,
        f_owner: &FacilitySet,
        iteration: usize,
    ) {
        let ip = self.states.ip(slot);
        let verdict = match self.remote_cache.get(&ip) {
            Some((_, verdict)) => *verdict,
            None => {
                let tester = RemoteTester::new(self.engine, self.vps)
                    .recorded(&*self.recorder)
                    .retrying(self.chaos_seed)
                    .excluding(&self.vp_down);
                self.rankings.rank(&tester, ixp);
                let verdict = self.rankings.is_remote(&tester, ixp, ip);
                self.remote_cache.insert(ip, (ixp, verdict));
                verdict
            }
        };
        // The widening pool, read before the state borrow.
        let widened = (verdict != Some(true)).then(|| self.footprint(DepKey::Metro(ixp)));
        let state = self.states.at(slot, owner);
        state.public_ixps.insert(ixp);
        let Some(pool) = widened else {
            state.remote = true;
            state.constrain(f_owner, iteration);
            return;
        };
        state.reason.get_or_insert(match verdict {
            None => UnresolvedReason::RemoteInconclusive,
            Some(_) => UnresolvedReason::EmptyIntersection,
        });
        if pool.is_empty() {
            state.missing_data = true;
            return;
        }
        if !std::mem::replace(&mut state.widened, true) {
            self.recorder.counter("constrain.widened", 1);
        }
        state.constrain(&pool, iteration);
    }

    /// Step 3 (a router's aliases share its facility, so their candidate
    /// sets intersect) over every alias set (scope `None`) or only the
    /// sets intersecting the dirty frontier. A scoped caller must pass a
    /// frontier closed over alias sets, so any set it touches is
    /// entirely inside the scope and the combined intersection matches
    /// the full pass.
    pub(crate) fn apply_alias_constraints_scoped(
        &mut self,
        iteration: usize,
        scope: Option<&BTreeSet<Ipv4Addr>>,
    ) {
        cfs_obs::span!(self.recorder, "stage.alias_constrain");
        let Self {
            ref aliases,
            ref mut states,
            ..
        } = *self;
        for set in &aliases.sets {
            if !scope.is_none_or(|s| set.iter().any(|ip| s.contains(ip))) {
                continue;
            }
            let mut combined: Option<FacilitySet> = None;
            for ip in set {
                if let Some(state) = states.get(ip) {
                    if let Some(c) = &state.candidates {
                        combined = Some(match combined {
                            None => c.clone(),
                            Some(acc) => acc.intersect(c),
                        });
                    }
                }
            }
            let Some(combined) = combined else { continue };
            if combined.is_empty() {
                // Conflicting constraints across aliases — incomplete
                // data; leave the individual states untouched.
                continue;
            }
            for ip in set {
                if let Some(state) = states.get_mut(ip) {
                    state.constrain(&combined, iteration);
                }
            }
        }
    }

    pub(crate) fn resolved_count(&self) -> usize {
        self.states
            .values()
            .filter(|s| s.facility().is_some())
            .count()
    }

    // ------------------------------------------------------------------
    // Step 4: targeted follow-ups (+ §4.3 reverse search)
    // ------------------------------------------------------------------

    fn allowed_vp(&self, id: VantagePointId) -> bool {
        match &self.platforms {
            None => true,
            Some(set) => set.contains(&self.vps.vps[id].platform),
        }
    }

    fn followups(&mut self) -> usize {
        cfs_obs::span!(self.recorder, "stage.followup");
        // Chase the interfaces closest to resolution first, but rotate
        // the measurement budget (`MAX_CHASE_ATTEMPTS`).
        let mut pending: Vec<(usize, usize, Ipv4Addr)> = self
            .states
            .values()
            .filter(|s| s.outcome() == SearchOutcome::UnresolvedLocal)
            .filter_map(|s| {
                let attempts = self.chase_attempts.get(&s.ip).copied().unwrap_or(0);
                (attempts < MAX_CHASE_ATTEMPTS)
                    .then(|| s.candidates.as_ref().map(|c| (attempts, c.len(), s.ip)))
                    .flatten()
            })
            .collect();
        pending.sort_unstable();
        pending.truncate(self.cfg.followup_interfaces);

        // Planning reads the search state and only appends probe
        // requests, so the requests for every chased interface can be
        // gathered first and the traceroutes fanned out in one batch.
        // Per-interface spans let exhausted retry budgets be attributed
        // back to the interfaces they starved.
        let reverse = self.reverse_targets(&pending);
        let mut requests: Vec<(VantagePointId, Ipv4Addr)> = Vec::new();
        let mut spans: Vec<(Ipv4Addr, usize, usize)> = Vec::new();
        let mut skipped = 0u64;
        for (_, _, ip) in pending {
            *self.chase_attempts.entry(ip).or_default() += 1;
            let start = requests.len();
            skipped += self.plan_chase(ip, &reverse, &mut requests);
            spans.push((ip, start, requests.len()));
        }
        if skipped > 0 {
            self.recorder.counter("chase.vp_skipped", skipped);
        }
        let issued = requests.len();
        self.recorder.counter("followup.requests", issued as u64);
        let denied_before = self.retry_budget.denied();
        let traces = self.trace_fanout(&requests);
        if self.retry_budget.denied() > denied_before {
            // The budget ran dry during this fan-out: interfaces whose
            // every probe still failed were starved, not unlucky.
            for (ip, start, end) in spans {
                if start < end && traces[start..end].iter().all(probe_failed) {
                    if let Some(state) = self.states.get_mut(&ip) {
                        state.reason.get_or_insert(UnresolvedReason::ProbeExhausted);
                    }
                }
            }
        }
        self.ingest(&traces);
        self.traces_issued += issued;
        issued
    }

    /// Runs the planned follow-up traceroutes with deterministic
    /// retry-on-failure, fanned out over worker threads.
    ///
    /// Round 0 issues every request at the current clock. Between rounds
    /// a *serial* pass in submission order feeds the circuit breaker and
    /// spends the retry budget, then failed probes are re-issued after an
    /// exponential-backoff delay whose jitter derives from the run seed.
    /// Probing is a pure function of `(vantage point, target, time)` and
    /// all bookkeeping is serial, so any worker count produces the same
    /// traces, counters, and breaker state as a serial run.
    fn trace_fanout(&mut self, requests: &[(VantagePointId, Ipv4Addr)]) -> Vec<Trace> {
        let probes: Vec<(VantagePointId, Ipv4Addr, u64)> = requests
            .iter()
            .map(|(vp, target)| (*vp, *target, self.clock_ms))
            .collect();
        let mut traces = self.probe_batch(&probes);
        for ((vp, _, at), t) in probes.iter().zip(&traces) {
            self.breaker
                .record(u64::from(vp.raw()), !probe_failed(t), *at);
        }

        for attempt in 1..=MAX_RETRIES {
            let mut retry: Vec<(usize, (VantagePointId, Ipv4Addr, u64))> = Vec::new();
            for (i, t) in traces.iter().enumerate() {
                if !probe_failed(t) {
                    continue;
                }
                if !self.retry_budget.try_spend() {
                    continue;
                }
                let (vp, target, _) = probes[i];
                let seed =
                    self.chaos_seed ^ (u64::from(vp.raw()) << 32) ^ u64::from(u32::from(target));
                let at = self.clock_ms + backoff_delay_ms(seed, attempt);
                retry.push((i, (vp, target, at)));
            }
            if retry.is_empty() {
                break;
            }
            self.recorder
                .counter("followup.retries", retry.len() as u64);
            let batch: Vec<(VantagePointId, Ipv4Addr, u64)> =
                retry.iter().map(|(_, p)| *p).collect();
            let fresh = self.probe_batch(&batch);
            for ((i, (vp, _, at)), t) in retry.into_iter().zip(fresh) {
                self.breaker
                    .record(u64::from(vp.raw()), !probe_failed(&t), at);
                traces[i] = t;
            }
        }

        let exhausted = traces.iter().filter(|t| probe_failed(t)).count() as u64;
        self.failed_probes += exhausted;
        if exhausted > 0 {
            self.recorder.counter("followup.exhausted", exhausted);
        }
        traces
    }

    /// One parallel probe round: each entry is traced at its own virtual
    /// time and results merge in submission order.
    fn probe_batch(&self, probes: &[(VantagePointId, Ipv4Addr, u64)]) -> Vec<Trace> {
        let (engine, vps) = (self.engine, self.vps);
        let workers = par::workers(self.cfg.threads);
        par::concat(par::fan_out(0..probes.len(), workers, 32, |range| {
            let chunk = probes[range].iter();
            let traces = chunk.map(|(vp, target, at)| engine.trace(&vps.vps[*vp], *target, *at));
            traces.collect()
        }))
    }

    /// The §4.3 reverse-search targets of one follow-up round: for each
    /// chased interface seen as the far end of a held crossing, the
    /// near-side ASes of its first two crossings, in `observations`-then-
    /// `session_observations` order.
    fn reverse_targets(
        &self,
        pending: &[(usize, usize, Ipv4Addr)],
    ) -> BTreeMap<Ipv4Addr, Vec<Asn>> {
        let mut near: BTreeMap<Ipv4Addr, Vec<Asn>> = BTreeMap::new();
        if !self.cfg.reverse_search {
            return near;
        }
        let chased: BTreeSet<Ipv4Addr> = pending.iter().map(|(_, _, ip)| *ip).collect();
        for o in self.observations.iter().chain(&self.session_observations) {
            if let Some(far_ip) = o.far_ip.filter(|ip| chased.contains(ip)) {
                let list = near.entry(far_ip).or_default();
                if list.len() < 2 {
                    list.push(o.near_asn);
                }
            }
        }
        near
    }

    /// Builds the planner's target pool: looking every known AS up
    /// fills its `footprints` entries exactly as scoring them all did.
    fn build_chase_targets(&mut self) -> ChaseTargets {
        let known: Vec<Asn> = self.kb().known_ases().collect();
        let mut ases = Vec::with_capacity(known.len());
        let mut at = Vec::new();
        for t in known {
            let f_t = self.footprint(DepKey::As(t));
            at.extend(f_t.iter().map(|f| (f, ases.len())));
            ases.push((t, f_t));
        }
        at.sort_unstable();
        ChaseTargets { ases, at }
    }

    /// Plans follow-up traceroutes designed to add constraints for one
    /// unresolved interface, appending `(vantage point, target)` requests;
    /// returns how many vantage points it skipped for an open circuit.
    fn plan_chase(
        &mut self,
        ip: Ipv4Addr,
        reverse: &BTreeMap<Ipv4Addr, Vec<Asn>>,
        requests: &mut Vec<(VantagePointId, Ipv4Addr)>,
    ) -> u64 {
        let (owner, candidates, queried_ixps) = {
            let Some(state) = self.states.get(&ip) else {
                return 0;
            };
            let Some(owner) = state.owner else { return 0 };
            let Some(c) = state.candidates.clone() else {
                return 0;
            };
            (owner, c, state.public_ixps.clone())
        };
        let f_owner = self.footprint(DepKey::As(owner));

        // Rank candidate targets. Preferred (the paper's rule): known
        // ASes whose footprint is a strict subset of the owner's, so the
        // comparison genuinely narrows. When no subset exists — common
        // once footprints grow — fall back to the targets with the
        // smallest footprint whose overlap is a *proper* subset of the
        // candidates: a crossing with them still shrinks the set. Only
        // ASes present at some candidate can overlap, so the facility
        // index yields them with their overlap counted; both lists are
        // sorted on keys ending in the ASN, so visiting order is moot.
        let targets = match self.chase_targets.take() {
            Some(targets) => targets,
            None => self.build_chase_targets(),
        };
        let kb = self.kb.get();
        let mut overlaps = vec![0usize; targets.ases.len()];
        let mut overlapping = Vec::new();
        for f in candidates.iter() {
            let start = targets.at.partition_point(|(g, _)| *g < f);
            for &(_, i) in targets.at[start..].iter().take_while(|(g, _)| *g == f) {
                if overlaps[i] == 0 {
                    overlapping.push(i);
                }
                overlaps[i] += 1;
            }
        }
        let mut subset_scored: Vec<(usize, usize, Asn)> = Vec::new();
        let mut overlap_scored: Vec<(usize, usize, Asn)> = Vec::new();
        for i in overlapping {
            let (t, f_t) = &targets.ases[i];
            let (t, overlap) = (*t, overlaps[i]);
            if t == owner {
                continue;
            }
            let penalty = usize::from(
                kb.ixps_of_as(t)
                    .intersection(&queried_ixps)
                    .next()
                    .is_some(),
            );
            if f_t.len() < f_owner.len() && f_t.is_subset(&f_owner) {
                subset_scored.push((penalty, overlap, t));
            } else if overlap < candidates.len() {
                overlap_scored.push((penalty, f_t.len() + overlap, t));
            }
        }
        self.chase_targets = Some(targets);
        subset_scored.sort_unstable();
        overlap_scored.sort_unstable();
        let mut scored = subset_scored;
        if scored.len() < TARGETS_PER_INTERFACE {
            let need = TARGETS_PER_INTERFACE - scored.len();
            scored.extend(overlap_scored.into_iter().take(need));
        }
        scored.truncate(TARGETS_PER_INTERFACE);

        // Vantage points likely to cross the owner *near the candidate
        // facilities*: probes and looking glasses inside the owner,
        // nearest candidate metro first (hot-potato routing exits close
        // to the source, so a nearby vantage point exposes the nearby
        // peering); then anything that has previously seen the owner.
        // Candidates sharing a metro share its distance.
        let topo = self.engine.topology();
        let candidate_coords: Vec<cfs_geo::GeoPoint> = candidates
            .iter()
            .filter_map(|f| kb.metro_of_facility(f))
            .collect::<BTreeSet<MetroId>>()
            .into_iter()
            .map(|m| topo.world.metro(m).location)
            .collect();
        let distance_to_candidates = |vp: &cfs_traceroute::VantagePoint| -> u64 {
            candidate_coords
                .iter()
                .map(|c| vp.coords.distance_km(*c) as u64)
                .min()
                .unwrap_or(u64::MAX)
        };
        // Vantage points whose circuit is open (consecutive probe
        // failures — an outage window, a silent path) yield their pool
        // slot to the next-nearest candidate instead of burning budget.
        let mut skipped = 0u64;
        let clock_ms = self.clock_ms;
        let breaker = &self.breaker;
        let mut live = |id: VantagePointId| -> bool {
            let open = breaker.is_open(u64::from(id.raw()), clock_ms);
            skipped += u64::from(open);
            !open
        };
        let hosted = &self.vps_by_as;
        let lo = hosted.partition_point(|(asn, _)| *asn < owner);
        let hi = hosted.partition_point(|(asn, _)| *asn <= owner);
        let own_vps = hosted[lo..hi].iter().map(|(_, id)| *id);
        let mut inside: Vec<(u64, VantagePointId)> = own_vps
            .clone()
            .filter(|id| live(*id))
            .map(|id| (distance_to_candidates(&self.vps.vps[id]), id))
            .collect();
        inside.sort_unstable();
        let mut vp_pool: Vec<VantagePointId> = inside.into_iter().map(|(_, id)| id).collect();
        if let Some(seen) = self.vp_crossed.get(&owner) {
            for id in seen {
                if self.allowed_vp(*id) && live(*id) && !vp_pool.contains(id) {
                    vp_pool.push(*id);
                }
            }
        }
        vp_pool.truncate(VPS_PER_TARGET);

        for (_, _, target_as) in &scored {
            let Ok(target) = topo.target_ip(*target_as) else {
                continue;
            };
            for vp_id in &vp_pool {
                requests.push((*vp_id, target));
            }
        }

        // §4.3 reverse search: when the interface belongs to the far side
        // of crossings we observed, probe *from* its owner toward the
        // near-side ASes so the owner becomes the near end.
        for near_asn in reverse.get(&ip).into_iter().flatten() {
            let Ok(target) = topo.target_ip(*near_asn) else {
                continue;
            };
            for vp_id in own_vps.clone().take(2) {
                requests.push((vp_id, target));
            }
        }
        skipped
    }

    // ------------------------------------------------------------------
    // Reporting (+ §4.4 proximity fallback)
    // ------------------------------------------------------------------

    /// Renders the current search state into a fresh [`CfsReport`].
    #[cfg(test)]
    pub(crate) fn build_report(&self) -> CfsReport {
        self.render().report
    }

    /// The in-place refresh ([`Cfs::refresh_report`]) with every row
    /// touched, applied to an empty report.
    pub(crate) fn render(&self) -> Rendered {
        let mut rendered = Rendered::default();
        let every_row = Touched {
            all: true,
            kb: None,
        };
        self.refresh_report(&mut rendered, &BTreeSet::new(), &every_row);
        rendered
    }

    /// Brings a rendered report up to date after a delta re-derived the
    /// states in `scope` (DESIGN.md §10). Re-renders the interface rows
    /// of `scope`, of every interface whose §4.4 overlay entry moved and
    /// of every interface owned by an AS `touched.kb` names; then the
    /// links that read any of those rows and the links of the
    /// observations appended since the last refresh. A row whose state
    /// vanished is removed, and every aggregate moves by difference.
    /// `touched.all` re-renders everything into an empty report.
    ///
    /// A private link's classification also reads both ASes' footprints,
    /// but a footprint that moves dirties every interface whose
    /// constraints read it ([`DepKey`]), both ends of such a link
    /// included, so the link is re-rendered through its rows.
    ///
    /// Deliberately non-mutating: the §4.4 proximity fallback is applied
    /// through an overlay consulted at every read site instead of being
    /// written back into `states`, so a resident session can refresh the
    /// report after every delta without the render perturbing the next
    /// incremental sweep.
    pub(crate) fn refresh_report(
        &self,
        out: &mut Rendered,
        scope: &BTreeSet<Ipv4Addr>,
        touched: &Touched,
    ) {
        cfs_obs::span!(self.recorder, "stage.report");
        if touched.all {
            *out = Rendered::default();
        }
        let held = out.held;
        self.index_links(out);
        let overlay = self.proximity_overlay(&out.proximity);

        // The interface rows to re-render, in address order.
        let rows: Vec<Ipv4Addr> = if touched.all {
            self.states.iter().map(|(ip, _)| *ip).collect()
        } else {
            let mut rows = scope.clone();
            diff_keys(&out.overlay, &overlay, |ip| {
                rows.insert(*ip);
            });
            if let Some(ases) = touched.kb.as_ref().filter(|ases| !ases.is_empty()) {
                // The pin gate reads the owner's claim provenance.
                let owned = out.report.interfaces.values();
                let owned = owned.filter(|row| row.owner.is_some_and(|a| ases.contains(&a)));
                rows.extend(owned.map(|row| row.ip));
            }
            rows.into_iter().collect()
        };
        out.overlay = overlay;
        let (report, overlay) = (&mut out.report, &out.overlay);

        // Router roles move with the rows of their alias sets: take each
        // touched set's share back, re-render, and add it again.
        let set_of = &self.aliases.set_of;
        let groups: BTreeSet<usize> = rows
            .iter()
            .filter_map(|ip| set_of.get(ip))
            .copied()
            .collect();
        let sets = groups.iter().map(|g| self.aliases.sets[*g].as_slice());
        for set in sets.clone() {
            shift_roles(&mut report.router_stats, &report.interfaces, set, false);
        }
        let trajectories = &mut report.convergence.trajectories;
        for ip in &rows {
            let old = match self.states.get(ip) {
                Some(state) => {
                    let row = self.render_interface(state, overlay);
                    tally(&mut report.data_quality, &row, true);
                    match &state.trajectory[..] {
                        [] => trajectories.remove(ip),
                        t => trajectories.insert(*ip, t.to_vec()),
                    };
                    report.interfaces.insert(*ip, row)
                }
                None => {
                    // Vanished in the scoped pass.
                    trajectories.remove(ip);
                    report.interfaces.remove(ip)
                }
            };
            if let Some(old) = old {
                tally(&mut report.data_quality, &old, false);
            }
        }
        for set in sets {
            shift_roles(&mut report.router_stats, &report.interfaces, set, true);
        }

        // Link verdicts: the appended observations' links first, then
        // every held link that reads a re-rendered row.
        let fresh = |link: &u32| match link & SESSION_LINK {
            0 => *link as usize >= held[0],
            _ => (link & !SESSION_LINK) as usize >= held[1],
        };
        let mut links: BTreeSet<u32> = BTreeSet::new();
        if !touched.all {
            let at = rows.iter().flat_map(|ip| links_at(&out.links_at, *ip));
            links.extend(at.filter(|l| !fresh(l)));
        }
        let render = |obs: &Observation| self.render_link(obs, overlay);
        let traces = self.observations[held[0]..].iter().map(render);
        report.links.splice(held[0]..held[0], traces);
        let sessions = self.session_observations[held[1]..].iter().map(render);
        report.links.extend(sessions);
        for link in links {
            let (obs, at) = self.link(link);
            report.links[at] = render(obs);
        }

        self.recorder
            .counter("report.interfaces", report.interfaces.len() as u64);
        self.recorder
            .counter("report.links", report.links.len() as u64);
        report.iterations = self.iterations.clone();
        report.traces_issued = self.traces_issued;
        report.convergence.per_iteration = self.conv_hists.clone();
        // Data-quality ledger: what the run had to absorb (DESIGN.md §9).
        // Built from search-observable symptoms only — the report reads
        // the same whether failures came from injected faults or honest
        // gaps.
        let dq = &mut report.data_quality;
        dq.probes_retried = self.retry_budget.spent();
        dq.retries_denied = self.retry_budget.denied();
        dq.failed_probes = self.failed_probes;
        dq.vp_breaker_trips = self.breaker.trips();
        if touched.all || touched.kb.is_some() {
            report.kb_quality = self.kb().quality().clone();
        }
    }

    /// Indexes the observations appended since the last refresh as links
    /// (see [`Rendered`]).
    fn index_links(&self, out: &mut Rendered) {
        let lists = [
            (&self.observations, 0),
            (&self.session_observations, SESSION_LINK),
        ];
        for ((list, tag), held) in lists.into_iter().zip(&mut out.held) {
            let mut proximity = Vec::new();
            for (i, obs) in list.iter().enumerate().skip(*held) {
                let i = u32::try_from(i).ok().filter(|i| i & SESSION_LINK == 0);
                let link = tag | i.expect("fewer than 2^31 observations");
                for ip in std::iter::once(obs.near_ip).chain(obs.far_ip) {
                    out.links_at.push((ip, link));
                }
                if let (LinkClass::Public { ixp }, Some(asn), Some(_)) =
                    (obs.class, obs.far_asn, obs.far_ip)
                {
                    if self.kb().member_port_count(ixp, asn) >= 2 {
                        proximity.push(link);
                    }
                }
            }
            *held = list.len();
            // Trace links precede looking-glass links, as in the report.
            let at = match tag {
                0 => out.proximity.partition_point(|l| l & SESSION_LINK == 0),
                _ => out.proximity.len(),
            };
            out.proximity.splice(at..at, proximity);
        }
        // The held prefix is one sorted run: this merges.
        out.links_at.sort();
    }

    /// The observation behind a link and the link's position in
    /// [`CfsReport::links`].
    fn link(&self, link: u32) -> (&Observation, usize) {
        match link & SESSION_LINK {
            0 => (&self.observations[link as usize], link as usize),
            _ => {
                let j = (link & !SESSION_LINK) as usize;
                (&self.session_observations[j], self.observations.len() + j)
            }
        }
    }

    /// Contested-pin gate (DESIGN.md §11): a single-facility verdict
    /// only counts as a pin when the reconciled sources behind the
    /// owner's claim to that facility are not contested. A refused pin
    /// is *withheld*, never replaced — the interface reports unresolved
    /// with a typed reason rather than a confidently wrong facility.
    fn pin_ok(&self, state: &IfaceState, f: FacilityId) -> bool {
        !self.cfg.evidence_gating || state.owner.is_none_or(|a| self.kb().pin_allowed(a, f))
    }

    /// The state's single facility, when the pin gate lets it stand.
    fn pinned(&self, state: &IfaceState) -> Option<FacilityId> {
        state.facility().filter(|f| self.pin_ok(state, *f))
    }

    /// The §4.4 proximity fallback over the model's links: which
    /// unresolved far ends read as resolved, and to what. Proximity
    /// verdicts live in this overlay, never in `states`: an overlaid
    /// interface reads as resolved-to-`f` at every site of the report
    /// (verdict, links, data-quality tally).
    ///
    /// The model learns from resolved public links whose far member holds
    /// several ports at the exchange (the directories reveal this): which
    /// of its fabric addresses a path reveals depends on switch locality,
    /// so these links carry the §4.4 signal. Single-port members answer
    /// with their one address from everywhere and would drown it out. The
    /// paper's evaluation (50 single-facility sources × 50 two-facility
    /// targets at AMS-IX) selects the same population.
    fn proximity_overlay(&self, links: &[u32]) -> BTreeMap<Ipv4Addr, FacilityId> {
        let mut overlay = BTreeMap::new();
        if !self.cfg.proximity {
            return overlay;
        }
        let pinned = |ip: &Ipv4Addr| self.states.get(ip).and_then(|s| self.pinned(s));
        let ends = links.iter().filter_map(|link| {
            let obs = self.link(*link).0;
            Some((obs.near_ip, obs.far_ip?))
        });
        let mut proximity = ProximityModel::new();
        for (near_ip, far_ip) in ends.clone() {
            if let (Some(n), Some(f)) = (pinned(&near_ip), pinned(&far_ip)) {
                proximity.observe(n, f);
            }
        }
        // Apply to unresolved far ends with a resolved near end.
        for (near_ip, far_ip) in ends {
            let Some(near_f) = pinned(&near_ip) else {
                continue;
            };
            let Some(far_state) = self.states.get(&far_ip) else {
                continue;
            };
            if far_state.facility().is_some() {
                continue;
            }
            let Some(cands) = &far_state.candidates else {
                continue;
            };
            if let Some(f) = proximity.infer(near_f, cands) {
                if !self.pin_ok(far_state, f) {
                    continue; // contested pin — the overlay stays clean
                }
                // Later observations overwrite earlier ones, exactly
                // as sequential state mutation used to.
                overlay.insert(far_ip, f);
            }
        }
        overlay
    }

    /// One interface's verdict under the §4.4 overlay.
    fn render_interface(
        &self,
        state: &IfaceState,
        overlay: &BTreeMap<Ipv4Addr, FacilityId>,
    ) -> InferredInterface {
        let ip = state.ip;
        let via_proximity = overlay.get(&ip).copied();
        let candidates = match via_proximity {
            Some(f) => BTreeSet::from([f]),
            None => state
                .candidates
                .as_ref()
                .map(FacilitySet::to_btree_set)
                .unwrap_or_default(),
        };
        let metro = {
            let metros: BTreeSet<_> = candidates
                .iter()
                .filter_map(|f| self.kb().metro_of_facility(*f))
                .collect();
            if metros.len() == 1 && !candidates.is_empty() {
                metros.into_iter().next()
            } else {
                None
            }
        };
        let pinned = self.pinned(state);
        // The search converged on one facility, but the pin gate
        // refused it: report the interface unresolved with a typed
        // reason instead of a confidently wrong facility.
        let refused = via_proximity.is_none() && state.facility().is_some() && pinned.is_none();
        let outcome = if via_proximity.is_some() {
            SearchOutcome::Resolved
        } else if refused {
            SearchOutcome::UnresolvedLocal
        } else {
            state.outcome()
        };
        InferredInterface {
            ip,
            owner: state.owner,
            facility: via_proximity.or(pinned),
            candidates,
            metro,
            outcome,
            remote: state.remote,
            public_ixps: state.public_ixps.clone(),
            seen_private: state.seen_private,
            resolved_at: state.resolved_at,
            via_proximity: via_proximity.is_some(),
            widened: state.widened,
            unresolved_reason: if via_proximity.is_some() {
                None
            } else if refused {
                Some(UnresolvedReason::ContestedProvenance)
            } else {
                state.final_reason()
            },
        }
    }

    /// One observation's link verdict under the §4.4 overlay.
    fn render_link(
        &self,
        obs: &Observation,
        overlay: &BTreeMap<Ipv4Addr, FacilityId>,
    ) -> InferredLink {
        let facility_of = |ip: Ipv4Addr| {
            let state = self.states.get(&ip)?;
            overlay.get(&ip).copied().or_else(|| self.pinned(state))
        };
        let near_facility = facility_of(obs.near_ip);
        let far_facility = obs.far_ip.and_then(facility_of);
        let kind = match obs.class {
            LinkClass::Public { .. } => {
                if self.states.get(&obs.near_ip).is_some_and(|s| s.remote) {
                    PeeringKind::PublicRemote
                } else {
                    PeeringKind::PublicLocal
                }
            }
            LinkClass::Private => self.classify_private(obs, near_facility, far_facility),
        };
        InferredLink {
            near_asn: obs.near_asn,
            near_ip: obs.near_ip,
            far_asn: obs.far_asn,
            far_ip: obs.far_ip,
            kind,
            ixp: obs.class.ixp(),
            near_facility,
            far_facility,
        }
    }

    /// Refines a private adjacency into cross-connect / tethering /
    /// remote private, using resolved facilities first and the knowledge
    /// base's footprints second.
    fn classify_private(
        &self,
        obs: &Observation,
        near_facility: Option<FacilityId>,
        far_facility: Option<FacilityId>,
    ) -> PeeringKind {
        if let (Some(n), Some(f)) = (near_facility, far_facility) {
            if n == f {
                return PeeringKind::PrivateCrossConnect;
            }
        }
        let Some(peer) = obs.far_asn else {
            return PeeringKind::PrivateCrossConnect;
        };
        let f_a = self.kb().facilities_of_as(obs.near_asn);
        let f_b = self.kb().facilities_of_as(peer);
        if f_a.intersection(&f_b).next().is_some() {
            return PeeringKind::PrivateCrossConnect;
        }
        // No shared building: a VLAN over a shared exchange, or a
        // long-haul circuit.
        let shared_ixp = self
            .kb()
            .ixps_of_as(obs.near_asn)
            .intersection(self.kb().ixps_of_as(peer))
            .next()
            .is_some();
        if shared_ixp {
            PeeringKind::PrivateTethering
        } else {
            PeeringKind::PrivateRemote
        }
    }
}

/// Tags a looking-glass observation's link name (see [`Rendered`]).
const SESSION_LINK: u32 = 1 << 31;

/// A rendered report and the indexes its in-place refresh finds rows by
/// ([`Cfs::refresh_report`]). A link is named after its observation:
/// trace observation `i` is link `i`, looking-glass observation `j` is
/// link `SESSION_LINK | j`, so appending to either list renames none.
#[derive(Default)]
pub(crate) struct Rendered {
    pub(crate) report: CfsReport,
    /// Trace and looking-glass observations rendered so far.
    held: [usize; 2],
    /// (interface, link reading its state), sorted.
    links_at: Vec<(Ipv4Addr, u32)>,
    /// The links the §4.4 model reads — public, with a far address at a
    /// multi-port member — in report order. Port counts move only with
    /// the classification view, and a flip of that view rebuilds the
    /// observation list, which re-renders every row.
    proximity: Vec<u32>,
    /// The §4.4 overlay the report shows.
    overlay: BTreeMap<Ipv4Addr, FacilityId>,
}

/// What a delta moved that the report reads, beyond the states it
/// re-converged and the observations it appended (DESIGN.md §10).
#[derive(Default)]
pub(crate) struct Touched {
    /// Every row: the first render, a re-extracted or rebuilt observation
    /// list, changed alias sets, and a KB flip that moves the facility →
    /// metro table.
    pub(crate) all: bool,
    /// A KB flip, with the ASes whose footprint or facility-claim
    /// provenance it moved ([`KnowledgeBase::moved`]).
    pub(crate) kb: Option<BTreeSet<Asn>>,
}

/// The links [`Rendered::links_at`] files under `ip`.
fn links_at(index: &[(Ipv4Addr, u32)], ip: Ipv4Addr) -> impl Iterator<Item = u32> + '_ {
    let from = index.partition_point(|e| e.0 < ip);
    index[from..]
        .iter()
        .take_while(move |e| e.0 == ip)
        .map(|e| e.1)
}

/// Adds one interface row's share of the data-quality tallies to `dq`, or
/// takes it back. An overlaid row carries no reason; a refused pin is
/// the one unresolved row left with a single candidate.
fn tally(dq: &mut DataQualityReport, row: &InferredInterface, add: bool) {
    let step = |n: &mut u64| *n = if add { *n + 1 } else { *n - 1 };
    if row.widened {
        step(&mut dq.widened_interfaces);
    }
    if row.facility.is_none() && row.candidates.len() == 1 {
        step(&mut dq.contested_pins_refused);
    }
    let Some(code) = row.unresolved_reason.map(UnresolvedReason::code) else {
        return;
    };
    let reasons = &mut dq.unresolved_reasons;
    match reasons.get_mut(code) {
        Some(n) => step(n),
        None if add => {
            reasons.insert(code.to_string(), 1);
        }
        None => unreachable!("a row's reason is tallied when the row is added"),
    }
    if reasons.get(code) == Some(&0) {
        reasons.remove(code);
    }
}

/// Adds one alias set's router roles over the rows it holds to `stats`,
/// or takes them back. Interfaces that alias resolution could not place
/// (unresponsive/random IP-IDs) are not *routers* in the §5 sense — the
/// paper's 39%/11.9% are fractions of its 2,895 resolved alias sets, so
/// singletons stay out of the denominator.
fn shift_roles(
    stats: &mut RouterRoleStats,
    rows: &BTreeMap<Ipv4Addr, InferredInterface>,
    set: &[Ipv4Addr],
    add: bool,
) {
    let mut ixps: BTreeSet<IxpId> = BTreeSet::new();
    let (mut routers, mut private) = (0, false);
    for row in set.iter().filter_map(|ip| rows.get(ip)) {
        routers = 1;
        ixps.extend(row.public_ixps.iter().copied());
        private |= row.seen_private;
    }
    let public = !ixps.is_empty();
    let roles = [
        (&mut stats.routers, routers),
        (&mut stats.routers_public, usize::from(public)),
        (&mut stats.multi_ixp, usize::from(ixps.len() >= 2)),
        (&mut stats.multi_role, usize::from(public && private)),
    ];
    for (n, by) in roles {
        *n = if add { *n + by } else { *n - by };
    }
}

// The whole point of the Arc/FacilitySet refactor: the search core and
// its substrate types cross thread boundaries. Compile-time proof.
#[allow(dead_code)]
fn _assert_send_sync() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    send::<Cfs<'static>>();
    send::<crate::CfsSession<'static>>();
    send::<KnowledgeBase>();
    sync::<KnowledgeBase>();
    sync::<Engine<'static>>();
    sync::<&dyn ProbeService>();
    send::<RetryBudget>();
    send::<CircuitBreaker>();
    sync::<VpSet>();
    sync::<IpAsnDb>();
    send::<CfsReport>();
    sync::<FacilitySetInterner>();
}
