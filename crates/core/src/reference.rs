//! The reference CFS: the search run the way §4 states it, with none of
//! the engine's fast machinery, and the differential harness that holds
//! the engine to it.
//!
//! [`Reference`] holds every ingested trace in a plain `Vec<Trace>`,
//! reads footprints straight from the knowledge base, applies every
//! observation in every iteration, plans follow-ups by scanning every
//! known AS and vantage point, and probes serially. It shares only pure
//! building blocks with the engine: alias resolution and correction,
//! [`extract_observations`], [`crate::IfaceState::constrain`], [`RemoteTester`],
//! the retry policy and circuit breaker, the looking-glass
//! classification, the stopping rule and the report renderer. Its state
//! lives in a [`Cfs`] value so that `Cfs::build_report` renders it; that
//! value's corpus, footprint cache, `deps` and planner indexes stay empty.
//!
//! Each iteration (§4.2–§4.3):
//! 1. Step 1. Before the first iteration, and after every
//!    [`REALIAS_EVERY`]-th one whose follow-ups found new hop addresses,
//!    resolve aliases over every hop address, correct IP-to-ASN by
//!    alias-set majority (§4.1) and extract every trace again; otherwise
//!    extract the traces measured since. The first observation per
//!    (near, exchange, far) key wins; every extracted trace feeds the
//!    exposure index (append-only, 64 vantage points per AS).
//! 2. Step 2 applies every observation, trace-derived ones first, near
//!    end before far end: a public crossing intersects the owner's
//!    footprint with the exchange's, a private one with the peer's.
//! 3. Step 3 intersects candidate sets across each alias set.
//! 4. Step 4 chases unresolved-local interfaces, fewest past chases (at
//!    most [`MAX_CHASE_ATTEMPTS`]) then fewest candidates first, toward
//!    ASes whose footprint narrows the candidates, adds the §4.3 reverse
//!    search, and probes with retries and per-vantage-point circuits.
//!
//! The loop stops once no interface is unresolved-local, after a run of
//! iterations without a new resolution or follow-up, or at the cap.
//! Step 2 follows three order-sensitive rules:
//! - **The IXP-hop evidence gate** (traIXroute's rule votes): with
//!   gating on, a public crossing with weak or contested evidence keeps
//!   the owner's footprint and never triggers the remote test.
//! - **A remote verdict binds to the first exchange that triggers the
//!   test.** An interface whose owner shares no facility with the
//!   exchange (§4.2 case 3) is RTT-tested ("O Peer, Where Art Thou?")
//!   toward the first exchange, in pass order, where that happens; every
//!   later trigger, at any exchange and in any iteration, reads it.
//! - **The metro pool applies only on an empty intersection without a
//!   remote verdict.** A remote interface keeps its owner's footprint; a
//!   local or inconclusive one widens to every facility in the
//!   exchange's metros.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use cfs_alias::{correct_ip_to_asn, resolve_aliases, IpIdProber};
use cfs_chaos::{backoff_delay_ms, MAX_RETRIES};
use cfs_traceroute::Trace;
use cfs_types::{
    Asn, FacilityId, FacilitySet, IxpId, LinkClass, MetroId, UnresolvedReason, VantagePointId,
};

use crate::engine::{
    probe_failed, Cfs, IterationStats, Stopping, MAX_CHASE_ATTEMPTS, REALIAS_EVERY,
    TARGETS_PER_INTERFACE, VPS_PER_TARGET,
};
use crate::observe::{extract_observations, IxpHopEvidence, Observation, Resolver};
use crate::remote::RemoteTester;
use crate::report::CfsReport;
use crate::session::CfsSession;
use crate::state::SearchOutcome;

/// The reference search (module docs).
pub(crate) struct Reference<'a> {
    cfs: Cfs<'a>,
    /// Every ingested trace; `traces[..extracted]` are extracted.
    traces: Vec<Trace>,
    extracted: usize,
    /// Follow-up chases per interface.
    attempts: BTreeMap<Ipv4Addr, usize>,
}

impl<'a> Reference<'a> {
    /// Runs on the inputs of a session that holds no trace yet: its
    /// looking-glass sessions, down vantage points and circuits carry over.
    pub(crate) fn new(session: CfsSession<'a>) -> Self {
        assert!(session.report().is_none() && session.cfs.corpus.len() == 0);
        Self {
            cfs: session.cfs,
            traces: Vec::new(),
            extracted: 0,
            attempts: BTreeMap::new(),
        }
    }

    pub(crate) fn ingest(&mut self, traces: &[Trace]) {
        for ip in traces.iter().flat_map(|t| &t.hops).filter_map(|h| h.ip) {
            self.cfs.new_ips_since_alias += usize::from(self.cfs.hop_ips.insert(ip));
        }
        self.traces.extend_from_slice(traces);
    }

    /// Runs the search to convergence and renders the report.
    pub(crate) fn converge(&mut self) -> CfsReport {
        self.realias();
        let max = self.cfs.cfg.max_iterations;
        let mut stopping = Stopping::default();
        for iteration in 1..=max {
            self.cfs.recorder.counter("cfs.iterations", 1);
            self.constrain(iteration);
            if self.cfs.cfg.alias_constraints {
                self.combine_aliases(iteration);
            }
            let census = self.cfs.census(iteration);
            let (resolved, all_done) = (census.resolved, census.all_done);
            let mut issued = 0;
            if !all_done && iteration < max {
                issued = self.follow_up();
                self.cfs.clock_ms += 120_000;
                if self.cfs.new_ips_since_alias > 0 && iteration % REALIAS_EVERY == 0 {
                    self.realias();
                } else {
                    self.extract();
                }
            }
            self.cfs.iterations.push(IterationStats {
                iteration,
                resolved,
                tracked: self.cfs.states.len(),
                traces_issued: issued,
            });
            if stopping.after(resolved, issued, all_done) {
                break;
            }
        }
        self.cfs.build_report()
    }

    /// §4.1 over every hop address, then Step 1 over every trace.
    fn realias(&mut self) {
        let cfs = &mut self.cfs;
        let ips: Vec<Ipv4Addr> = cfs.hop_ips.iter().copied().collect();
        let prober = IpIdProber::new(cfs.engine.topology());
        cfs.aliases = resolve_aliases(&prober, &ips, 1);
        cfs.corrected = correct_ip_to_asn(cfs.ipasn, &cfs.aliases, &ips).0;
        cfs.new_ips_since_alias = 0;
        cfs.observations.clear();
        let keys = cfs.session_observations.iter().map(Observation::key);
        cfs.obs_keys = keys.collect();
        self.extracted = 0;
        self.extract();
    }

    /// Step 1 over the traces not extracted yet.
    fn extract(&mut self) {
        let cfs = &mut self.cfs;
        let resolver = Resolver::new(cfs.kb.get(), &cfs.corrected);
        for t in &self.traces[self.extracted..] {
            for obs in extract_observations(t, &resolver) {
                if cfs.obs_keys.insert(obs.key()) {
                    cfs.observations.push(obs);
                }
            }
            for asn in t.hops.iter().filter_map(|h| cfs.corrected.get(&h.ip?)) {
                let list = cfs.vp_crossed.entry(*asn).or_default();
                if list.len() < 64 && !list.contains(&t.vp) {
                    list.push(t.vp);
                }
            }
        }
        self.extracted = self.traces.len();
    }

    /// Step 2 over every observation.
    fn constrain(&mut self, iteration: usize) {
        let all = [&self.cfs.observations[..], &self.cfs.session_observations].concat();
        for obs in &all {
            let far = obs.far_asn.zip(obs.far_ip);
            let ends = std::iter::once((obs.near_asn, obs.near_ip)).chain(far);
            match obs.class {
                LinkClass::Public { ixp } => {
                    for (owner, ip) in ends {
                        self.public(owner, ip, ixp, obs.evidence, iteration);
                    }
                }
                LinkClass::Private => {
                    let Some(peer) = obs.far_asn else { continue };
                    self.private(obs.near_asn, obs.near_ip, peer, iteration);
                    if let Some(far_ip) = obs.far_ip {
                        self.private(peer, far_ip, obs.near_asn, iteration);
                    }
                }
            }
        }
    }

    /// Step 2 for one end of a public crossing, under the module docs'
    /// three rules. Constraining to an empty set (no facility data) marks
    /// the interface as missing data.
    fn public(
        &mut self,
        owner: Asn,
        ip: Ipv4Addr,
        ixp: IxpId,
        evidence: IxpHopEvidence,
        iteration: usize,
    ) {
        let cfs = &mut self.cfs;
        let kb = cfs.kb.get();
        let f_owner = kb.facilities_of_as(owner);
        let gated = cfs.cfg.evidence_gating && evidence.weak();
        let f_ixp = kb.facilities_of_ixp(ixp);
        let common: BTreeSet<FacilityId> = f_owner.intersection(&f_ixp).copied().collect();
        let triggered = !gated && !f_owner.is_empty() && common.is_empty();
        if triggered && !cfs.remote_cache.contains_key(&ip) {
            let verdict = RemoteTester::new(cfs.engine, cfs.vps)
                .recorded(&*cfs.recorder)
                .retrying(cfs.chaos_seed)
                .excluding(&cfs.vp_down)
                .is_remote(ixp, ip);
            cfs.remote_cache.insert(ip, (ixp, verdict));
        }
        let verdict = cfs.remote_cache.get(&ip).and_then(|(_, v)| *v);
        let state = cfs.states.get_or_insert(ip, owner);
        state.public_ixps.insert(ixp);
        let allowed = if f_owner.is_empty() {
            f_owner
        } else if gated {
            state
                .reason
                .get_or_insert(UnresolvedReason::ContestedProvenance);
            if !std::mem::replace(&mut state.evidence_gated, true) {
                cfs.recorder.counter("constrain.evidence_gated", 1);
            }
            f_owner
        } else if !common.is_empty() {
            common
        } else if verdict == Some(true) {
            state.remote = true;
            f_owner
        } else {
            state.reason.get_or_insert(match verdict {
                None => UnresolvedReason::RemoteInconclusive,
                Some(_) => UnresolvedReason::EmptyIntersection,
            });
            let metros: BTreeSet<MetroId> = f_ixp
                .iter()
                .filter_map(|f| kb.metro_of_facility(*f))
                .collect();
            let pool: BTreeSet<FacilityId> = metros
                .into_iter()
                .flat_map(|m| kb.facilities_in_metro(m))
                .collect();
            if !pool.is_empty() && !std::mem::replace(&mut state.widened, true) {
                cfs.recorder.counter("constrain.widened", 1);
            }
            pool
        };
        state.constrain(&FacilitySet::from(allowed), iteration);
    }

    /// Step 2 for one end of a private crossing: a cross-connect joins
    /// routers in one building; with no common facility (tethering,
    /// remote private peering) only the owner's footprint is safe. With
    /// either footprint empty, the empty overlap marks missing data.
    fn private(&mut self, owner: Asn, ip: Ipv4Addr, peer: Asn, iteration: usize) {
        let kb = self.cfs.kb.get();
        let (f_owner, f_peer) = (kb.facilities_of_as(owner), kb.facilities_of_as(peer));
        let common: BTreeSet<FacilityId> = f_owner.intersection(&f_peer).copied().collect();
        let state = self.cfs.states.get_or_insert(ip, owner);
        state.seen_private = true;
        let allowed = if common.is_empty() && !f_peer.is_empty() {
            f_owner
        } else {
            common
        };
        state.constrain(&FacilitySet::from(allowed), iteration);
    }

    /// Step 3: a router's aliases share its facility. Aliases whose
    /// candidates conflict mean incomplete data and are left alone.
    fn combine_aliases(&mut self, iteration: usize) {
        let cfs = &mut self.cfs;
        for set in &cfs.aliases.sets {
            let candidates = set
                .iter()
                .filter_map(|ip| cfs.states.get(ip)?.candidates.clone());
            let combined = candidates.reduce(|a, c| a.intersect(&c));
            let Some(combined) = combined.filter(|c| !c.is_empty()) else {
                continue;
            };
            for ip in set {
                if let Some(state) = cfs.states.get_mut(ip) {
                    state.constrain(&combined, iteration);
                }
            }
        }
    }

    /// Step 4: plans one round of follow-ups, probes them and ingests the
    /// traces; returns how many were issued.
    fn follow_up(&mut self) -> usize {
        let cfs = &self.cfs;
        let attempts = |ip| self.attempts.get(&ip).copied().unwrap_or(0);
        let mut pending: Vec<(usize, usize, Ipv4Addr)> = cfs
            .states
            .values()
            .filter(|s| s.outcome() == SearchOutcome::UnresolvedLocal)
            .filter(|s| attempts(s.ip) < MAX_CHASE_ATTEMPTS)
            .filter_map(|s| Some((attempts(s.ip), s.candidates.as_ref()?.len(), s.ip)))
            .collect();
        pending.sort_unstable();
        pending.truncate(cfs.cfg.followup_interfaces);
        let (mut requests, mut chased, mut skipped) = (Vec::new(), Vec::new(), 0);
        for (_, _, ip) in pending {
            *self.attempts.entry(ip).or_default() += 1;
            let start = requests.len();
            skipped += plan(&self.cfs, ip, &mut requests);
            chased.push((ip, start..requests.len()));
        }
        let rec = &self.cfs.recorder;
        if skipped > 0 {
            rec.counter("chase.vp_skipped", skipped);
        }
        rec.counter("followup.requests", requests.len() as u64);
        let denied = self.cfs.retry_budget.denied();
        let traces = self.probe(&requests);
        // When the budget ran dry, an interface whose every probe still
        // failed was starved.
        let dry = self.cfs.retry_budget.denied() > denied;
        for (ip, range) in chased.into_iter().filter(|_| dry) {
            if !range.is_empty() && traces[range].iter().all(probe_failed) {
                if let Some(state) = self.cfs.states.get_mut(&ip) {
                    state.reason.get_or_insert(UnresolvedReason::ProbeExhausted);
                }
            }
        }
        self.ingest(&traces);
        self.cfs.traces_issued += requests.len();
        requests.len()
    }

    /// Probes the requests at the current clock, then re-issues failed
    /// probes round by round on the retry policy's backoff while the
    /// run's retry budget lasts; every probe feeds its vantage point's
    /// circuit.
    fn probe(&mut self, requests: &[(VantagePointId, Ipv4Addr)]) -> Vec<Trace> {
        let cfs = &mut self.cfs;
        let (engine, vps, clock_ms, breaker) =
            (cfs.engine, cfs.vps, cfs.clock_ms, &mut cfs.breaker);
        let mut run = |vp: VantagePointId, target: Ipv4Addr, at: u64| {
            let t = engine.trace(&vps.vps[vp], target, at);
            breaker.record(u64::from(vp.raw()), !probe_failed(&t), at);
            t
        };
        let mut traces: Vec<Trace> = requests
            .iter()
            .map(|(vp, target)| run(*vp, *target, clock_ms))
            .collect();
        for attempt in 1..=MAX_RETRIES {
            let mut retried = 0;
            for (t, (vp, target)) in traces.iter_mut().zip(requests) {
                if probe_failed(t) && cfs.retry_budget.try_spend() {
                    let key = (u64::from(vp.raw()) << 32) ^ u64::from(u32::from(*target));
                    let at = clock_ms + backoff_delay_ms(cfs.chaos_seed ^ key, attempt);
                    *t = run(*vp, *target, at);
                    retried += 1;
                }
            }
            if retried == 0 {
                break;
            }
            cfs.recorder.counter("followup.retries", retried);
        }
        let exhausted = traces.iter().filter(|t| probe_failed(t)).count() as u64;
        cfs.failed_probes += exhausted;
        if exhausted > 0 {
            cfs.recorder.counter("followup.exhausted", exhausted);
        }
        traces
    }
}

/// Step 4's planner: plans the follow-ups of one chased interface by
/// scanning every known AS and vantage point; returns how many vantage
/// points it skipped for an open circuit. The engine's memoized planner
/// is audited against it (`Cfs::audited_rounds`).
pub(crate) fn plan(
    cfs: &Cfs<'_>,
    ip: Ipv4Addr,
    requests: &mut Vec<(VantagePointId, Ipv4Addr)>,
) -> u64 {
    let kb = cfs.kb.get();
    let Some(state) = cfs.states.get(&ip) else {
        return 0;
    };
    let (Some(owner), Some(candidates)) = (state.owner, &state.candidates) else {
        return 0;
    };
    let f_owner = kb.facilities_of_as(owner);

    // Targets (the paper's rule): known ASes whose footprint is a
    // strict subset of the owner's; short of three, the smallest
    // footprints whose overlap is a proper subset of the candidates.
    // ASes at an exchange the interface was seen at rank last.
    let (mut scored, mut overlapping) = (Vec::new(), Vec::new());
    for t in kb.known_ases().filter(|t| *t != owner) {
        let f_t = kb.facilities_of_as(t);
        let overlap = candidates.iter().filter(|f| f_t.contains(f)).count();
        let penalty = usize::from(!kb.ixps_of_as(t).is_disjoint(&state.public_ixps));
        if overlap > 0 && f_t.len() < f_owner.len() && f_t.is_subset(&f_owner) {
            scored.push((penalty, overlap, t));
        } else if overlap > 0 && overlap < candidates.len() {
            overlapping.push((penalty, f_t.len() + overlap, t));
        }
    }
    scored.sort_unstable();
    overlapping.sort_unstable();
    let need = TARGETS_PER_INTERFACE.saturating_sub(scored.len());
    scored.extend(overlapping.into_iter().take(need));
    scored.truncate(TARGETS_PER_INTERFACE);

    // Vantage points: the owner's own, nearest candidate metro first,
    // then those that crossed the owner before; one with an open
    // circuit yields its slot.
    let topo = cfs.engine.topology();
    let metros: BTreeSet<MetroId> = candidates
        .iter()
        .filter_map(|f| kb.metro_of_facility(f))
        .collect();
    let distance = |id: &VantagePointId| {
        let vp = &cfs.vps.vps[*id];
        let km = |m: &MetroId| vp.coords.distance_km(topo.world.metro(*m).location) as u64;
        metros.iter().map(km).min().unwrap_or(u64::MAX)
    };
    let allowed = |id: VantagePointId| {
        let platform = cfs.vps.vps[id].platform;
        cfs.platforms.as_ref().is_none_or(|p| p.contains(&platform))
    };
    let mut skipped = 0;
    let mut live = |id: VantagePointId| {
        let open = cfs.breaker.is_open(u64::from(id.raw()), cfs.clock_ms);
        skipped += u64::from(open);
        !open
    };
    let own_vps = cfs
        .vps
        .vps
        .iter()
        .filter(|(id, vp)| vp.asn == owner && allowed(*id));
    let own: Vec<VantagePointId> = own_vps.map(|(id, _)| id).collect();
    let mut inside: Vec<(u64, VantagePointId)> = own
        .iter()
        .filter(|id| live(**id))
        .map(|id| (distance(id), *id))
        .collect();
    inside.sort_unstable();
    let mut pool: Vec<VantagePointId> = inside.into_iter().map(|(_, id)| id).collect();
    for id in cfs.vp_crossed.get(&owner).into_iter().flatten() {
        if allowed(*id) && live(*id) && !pool.contains(id) {
            pool.push(*id);
        }
    }
    pool.truncate(VPS_PER_TARGET);
    for target in scored
        .iter()
        .filter_map(|(_, _, t)| topo.target_ip(*t).ok())
    {
        requests.extend(pool.iter().map(|vp| (*vp, target)));
    }

    // §4.3 reverse search: from the owner's first two vantage points
    // toward the near side of the first two crossings that saw the
    // interface as their far end.
    let crossings = cfs.observations.iter().chain(&cfs.session_observations);
    let near = crossings.filter(|o| cfs.cfg.reverse_search && o.far_ip == Some(ip));
    for target in near.take(2).filter_map(|o| topo.target_ip(o.near_asn).ok()) {
        requests.extend(own.iter().take(2).map(|vp| (*vp, target)));
    }
    skipped
}

/// The differential harness. The whole module is test-only; the
/// attribute marks the harness as test code for `cfs-lint`, which reads
/// `#[cfg(test)]` regions within a file.
#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeMap;
    use std::sync::{Arc, OnceLock};

    use cfs_chaos::{FaultPlan, FaultProfile};
    use cfs_kb::{degrade_sources, KnowledgeBase, PublicSources};
    use cfs_obs::TraceRecorder;
    use cfs_topology::TopologyConfig;
    use cfs_traceroute::{ChaosEngine, Engine, Hop, Platform, ProbeService, VpConfig};

    use super::*;
    use crate::engine::{CfsBuilder, CfsConfig, DepKey, BREAKER_THRESHOLD};
    use crate::session::tests::{service_config, World};
    use crate::session::{canonical_trace, Delta};

    /// Distinct ingested paths in first-seen order: (vantage point, hop
    /// addresses, traces that took the path).
    pub(crate) type Paths = Vec<(VantagePointId, Vec<Option<Ipv4Addr>>, u64)>;

    type Counters = BTreeMap<&'static str, u64>;

    /// The paths an engine's corpus holds.
    pub(crate) fn corpus_paths(cfs: &Cfs<'_>) -> Paths {
        let c = &cfs.corpus;
        (0..c.len())
            .map(|i| (c.vp(i), c.path(i).collect(), c.mult(i)))
            .collect()
    }

    /// The distinct paths of a trace list.
    fn distinct_paths(traces: &[Trace]) -> Paths {
        let (mut at, mut paths) = (BTreeMap::new(), Paths::new());
        for t in traces {
            let hops: Vec<Option<Ipv4Addr>> = t.hops.iter().map(|h| h.ip).collect();
            let i = *at.entry((t.vp, hops.clone())).or_insert_with(|| {
                paths.push((t.vp, hops, 0));
                paths.len() - 1
            });
            paths[i].2 += 1;
        }
        paths
    }

    /// The counters that record verdicts rather than work.
    fn verdict_counters(rec: &TraceRecorder) -> Counters {
        let mut counters = rec.snapshot().counters;
        let names = ["cfs.iterations", "chase.vp_skipped", "constrain.widened"];
        let gated = |k: &str| k == "constrain.evidence_gated";
        let prefixed = |k: &str| {
            ["followup.", "remote.", "report."]
                .iter()
                .any(|p| k.starts_with(p))
        };
        counters.retain(|k, _| names.contains(k) || gated(k) || prefixed(k));
        counters
    }

    /// A builder over `world`'s vantage points and IP-to-ASN service that
    /// records into the returned recorder.
    pub(crate) fn builder_for<'a>(
        world: &'a World,
        engine: &'a dyn ProbeService,
        kb: &'a KnowledgeBase,
        cfg: CfsConfig,
    ) -> (CfsBuilder<'a>, Arc<TraceRecorder>) {
        let rec = Arc::new(TraceRecorder::deterministic());
        let builder = Cfs::builder(engine, kb).vps(&world.vps).ipasn(&world.ipasn);
        (builder.config(cfg).recorder(rec.clone()), rec)
    }

    /// Requires a converged engine session to equal the reference that
    /// rendered `report` on the report, its canonical trace, the held
    /// observations (evidence included) and the ingested paths.
    fn assert_same(
        label: &str,
        engine: &CfsSession<'_>,
        reference: &Reference<'_>,
        report: &CfsReport,
    ) {
        let got = engine.report().unwrap();
        let json = |r: &CfsReport| serde_json::to_string(r).unwrap();
        assert!(json(got) == json(report), "{label}: report differs");
        assert!(
            canonical_trace(got) == canonical_trace(report),
            "{label}: trace differs"
        );
        let held = |cfs: &Cfs<'_>| (cfs.observations.clone(), cfs.session_observations.clone());
        assert!(
            held(&engine.cfs) == held(&reference.cfs),
            "{label}: observations differ"
        );
        let paths = distinct_paths(&reference.traces);
        assert!(
            corpus_paths(&engine.cfs) == paths,
            "{label}: ingested paths differ"
        );
    }

    /// Requires the engine at threads {1, 2, 8} to equal the reference on a
    /// batch run: `boot` and every looking glass's BGP sessions ingested,
    /// follow-ups restricted to `platforms` (all when empty) with the circuit
    /// of every other vantage point opened before the first round. Returns
    /// the follow-ups issued by each iteration that issued some, and the
    /// verdict counters.
    fn check(
        label: &str,
        world: &World,
        engine: &dyn ProbeService,
        kb: &KnowledgeBase,
        cfg: &CfsConfig,
        platforms: &[Platform],
        boot: &[Trace],
    ) -> (Vec<usize>, Counters) {
        let session = move |threads| {
            let cfg = CfsConfig {
                threads,
                ..cfg.clone()
            };
            batch_session(world, engine, kb, cfg, platforms)
        };
        let (reference, rec) = session(1);
        let mut reference = Reference::new(reference);
        reference.ingest(boot);
        let report = reference.converge();
        let counters = verdict_counters(&rec);
        for threads in [1, 2, 8] {
            let (mut session, rec) = session(threads);
            session.ingest(boot.to_vec());
            session.converge();
            let label = format!("{label}, threads={threads}");
            assert_same(&label, &session, &reference, &report);
            assert_eq!(verdict_counters(&rec), counters, "{label}: counters differ");
        }
        let issued = report.iterations.iter().map(|i| i.traces_issued);
        (issued.filter(|n| *n > 0).collect(), counters)
    }

    /// A batch session over `world` with every looking glass's BGP
    /// sessions ingested, follow-ups restricted to `platforms` (all when
    /// empty) and the circuit of every other vantage point opened before
    /// the first round.
    fn batch_session<'a>(
        world: &'a World,
        engine: &'a dyn ProbeService,
        kb: &'a KnowledgeBase,
        cfg: CfsConfig,
        platforms: &[Platform],
    ) -> (CfsSession<'a>, Arc<TraceRecorder>) {
        let (builder, rec) = builder_for(world, engine, kb, cfg);
        let builder = match platforms {
            [] => builder,
            _ => builder.platforms(platforms),
        };
        let mut session = builder.build_session().unwrap();
        let lg = cfs_bgp::LookingGlassBgp::new(&world.topo);
        for id in world.vps.of_platform(Platform::LookingGlass) {
            let vp = &world.vps.vps[*id];
            session.ingest_bgp_sessions(vp.asn, &lg.sessions(vp.router));
        }
        for (id, vp) in world.vps.vps.iter() {
            if !platforms.is_empty() && !platforms.contains(&vp.platform) {
                for _ in 0..BREAKER_THRESHOLD {
                    session.cfs.breaker.record(u64::from(id.raw()), false, 0);
                }
            }
        }
        (session, rec)
    }

    /// In every follow-up round, the memoized planner's requests and
    /// skipped vantage points equal the scanning planner's over the same
    /// state (`Cfs::audit_round`): clean at tiny and default scale, and
    /// under outages with one platform planning while the circuits of the
    /// others open and close again.
    #[test]
    fn memoized_plans_equal_the_scanning_planner_in_every_round() {
        let tiny = World::new();
        let default = World::at(TopologyConfig::default(), &VpConfig::default());
        let clean = Engine::new(&tiny.topo);
        let outages = FaultPlan::new(5, FaultProfile::blackout());
        let chaos = ChaosEngine::new(Engine::new(&tiny.topo), outages);
        let default_engine = Engine::new(&default.topo);
        let only = [Platform::RipeAtlas];
        let runs: [(&str, &World, &dyn ProbeService, &[Platform]); 3] = [
            ("tiny", &tiny, &clean, &[]),
            ("blackout", &tiny, &chaos, &only),
            ("default", &default, &default_engine, &[]),
        ];
        for (label, world, engine, platforms) in runs {
            let cfg = CfsConfig::default();
            let (mut session, rec) = batch_session(world, engine, &world.kb, cfg, platforms);
            session.cfs.audited_rounds = Some(0);
            session.ingest(world.campaign(engine, 0, 0..8));
            let report = session.converge();
            let rounds = report.iterations.iter().filter(|i| i.traces_issued > 0);
            let rounds = rounds.count();
            let audited = session.cfs.audited_rounds.unwrap();
            assert!(
                audited >= rounds && rounds > 3,
                "{label}: {audited} of {rounds}"
            );
            let planner = session.cfs.planner.as_ref().unwrap();
            let chases: usize = session
                .cfs
                .chase_attempts
                .iter()
                .map(|n| usize::from(*n))
                .sum();
            assert!(planner.plans.len() < chases, "{label}: no plan was reused");
            let skipped = rec.snapshot().counters.get("chase.vp_skipped").copied();
            assert_eq!(skipped.is_some(), label == "blackout", "{label}: skipped");
        }
    }

    #[test]
    fn engine_equals_the_reference_at_tiny_scale() {
        let world = World::new();
        let (kb, cfg) = (&world.kb, CfsConfig::default());
        let clean = Engine::new(&world.topo);
        let boot = world.campaign(&clean, 0, 0..12);
        let (rounds, _) = check("clean", &world, &clean, kb, &cfg, &[], &boot);
        assert!(rounds.len() > 3, "{} follow-up rounds", rounds.len());

        let forward = CfsConfig {
            reverse_search: false,
            ..cfg.clone()
        };
        let (without, _) = check("forward", &world, &clean, kb, &forward, &[], &boot);
        assert_ne!(without, rounds, "reverse search planned nothing");

        // Outages open circuits; one platform plans, and the circuits of the
        // others are open.
        let chaos = ChaosEngine::new(clean, FaultPlan::new(5, FaultProfile::blackout()));
        let boot = world.campaign(&chaos, 0, 0..12);
        let only = [Platform::RipeAtlas];
        let (_, counters) = check("blackout", &world, &chaos, kb, &cfg, &only, &boot);
        assert!(
            counters.contains_key("chase.vp_skipped"),
            "no circuit opened"
        );
    }

    #[test]
    fn engine_equals_the_reference_at_default_scale() {
        let world = World::at(TopologyConfig::default(), &VpConfig::default());
        let engine = Engine::new(&world.topo);
        let boot = world.campaign(&engine, 0, 0..8);
        let cfg = CfsConfig::default();
        let (rounds, _) = check("default", &world, &engine, &world.kb, &cfg, &[], &boot);
        assert!(rounds.len() > 3, "{} follow-up rounds", rounds.len());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]

        /// The chaos property test's fault-plan strategy (`tests/chaos.rs`),
        /// with its shortened search.
        #[test]
        fn engine_equals_the_reference_under_arbitrary_fault_plans(
            seed in proptest::prelude::any::<u64>(),
            vp_outage_pm in 0u32..400,
            outage_window_ms in 1u64..600_000,
            probe_timeout_pm in 0u32..400,
            router_silent_pm in 0u32..200,
            rate_limit_episode_pm in 0u32..400,
            rate_limit_drop_pm in 0u32..=1000,
            rate_limit_slot_ms in 1u64..120_000,
            truncate_pm in 0u32..300,
            loop_pm in 0u32..300,
            kb_member_lag_pm in 0u32..400,
            kb_facility_loss_pm in 0u32..300,
            kb_conflict_pm in 0u32..400,
            kb_refresh_window_ms in 0u64..172_800_000,
        ) {
            static WORLD: OnceLock<World> = OnceLock::new();
            let world = WORLD.get_or_init(World::new);
            let plan = FaultPlan::new(seed, FaultProfile {
                vp_outage_pm, outage_window_ms, probe_timeout_pm, router_silent_pm,
                rate_limit_episode_pm, rate_limit_drop_pm, rate_limit_slot_ms, truncate_pm, loop_pm,
                kb_member_lag_pm, kb_facility_loss_pm, kb_conflict_pm, kb_refresh_window_ms,
            });
            let engine = ChaosEngine::new(Engine::new(&world.topo), plan);
            let sources = degrade_sources(&world.sources, &plan);
            let kb = KnowledgeBase::assemble(&sources, &world.topo.world);
            let (max_iterations, followup_interfaces) = (6, 12);
            let cfg = CfsConfig { max_iterations, followup_interfaces, ..Default::default() };
            let boot = world.campaign(&engine, 0, 0..8);
            check(&format!("fault plan seed {seed}"), world, &engine, &kb, &cfg, &[], &boot);
        }
    }

    /// A hand-built trace through the unseen interfaces of a router that
    /// `held` crossed, chosen so re-resolving aliases moves the corrected
    /// ASN of an address already held (the whole-corpus re-extraction).
    fn flipping_trace(world: &World, held: &[Trace]) -> Trace {
        let seen: BTreeSet<Ipv4Addr> = held
            .iter()
            .flat_map(|t| t.hops.iter().filter_map(|h| h.ip))
            .collect();
        let prober = IpIdProber::new(&world.topo);
        let corrected = |ips: &BTreeSet<Ipv4Addr>| {
            let ips: Vec<Ipv4Addr> = ips.iter().copied().collect();
            let aliases = resolve_aliases(&prober, &ips, 1);
            correct_ip_to_asn(&world.ipasn, &aliases, &ips).0
        };
        let old = corrected(&seen);
        let routers = world.topo.routers.iter().map(|(_, router)| &router.ifaces);
        let unseen = routers
            .filter_map(|ifaces| {
                let ips = ifaces
                    .iter()
                    .map(|id| world.topo.ifaces.get(*id).unwrap().ip);
                let unseen: Vec<Ipv4Addr> = ips.clone().filter(|ip| !seen.contains(ip)).collect();
                (unseen.len() < ips.count() && !unseen.is_empty()).then_some(unseen)
            })
            .find(|unseen| {
                let new = corrected(&seen.iter().chain(unseen).copied().collect());
                seen.iter().any(|ip| old.get(ip) != new.get(ip))
            })
            .expect("some router's unseen interfaces move an old corrected ASN");
        let mut trace = held[0].clone();
        trace.target = unseen[0];
        trace.hops = unseen
            .iter()
            .map(|ip| Hop {
                ip: Some(*ip),
                rtt_ms: 1.0,
            })
            .collect();
        trace
    }

    /// An epoch whose consortium list disputes a peering LAN that one of
    /// `observations` crossed, naming an unrelated prefix for the exchange
    /// instead: the confirmed space stays, its agreement drops.
    fn dispute_a_crossed_lan(world: &World, observations: &[Observation]) -> Arc<KnowledgeBase> {
        let elsewhere = cfs_net::Ipv4Prefix::must([198, 18, 0, 0], 24);
        let disputed = observations.iter().find_map(|obs| {
            let (ixp, fabric) = obs.class.ixp().zip(obs.far_ip)?;
            let mut sources = world.sources.clone();
            match sources.consortium_list.iter_mut().find(|(x, _)| *x == ixp) {
                Some((_, prefixes)) => {
                    prefixes.retain(|p| !p.contains(fabric));
                    prefixes.push(elsewhere);
                }
                None => sources.consortium_list.push((ixp, vec![elsewhere])),
            }
            let kb = KnowledgeBase::assemble(&sources, &world.topo.world);
            let agreement = |kb: &KnowledgeBase| kb.prefix_agreement_pm(ixp, fabric);
            let lower = agreement(&kb) < agreement(&world.kb);
            (kb.ixp_of_ip(fabric) == Some(ixp) && lower).then(|| Arc::new(kb))
        });
        disputed.expect("some crossed peering LAN can be disputed")
    }

    /// An epoch that withdraws a pinned interface's facility from its
    /// owner's NOC page while the owner's PeeringDB record keeps it: the
    /// footprint (PeeringDB ∪ NOC) stands, so no constraint moves, but the
    /// claim turns contested. Near ends of links whose far end the §4.4
    /// overlay resolved go first: unpinning one can withdraw that overlay
    /// entry too. Returns the epoch and the interface.
    fn contest_a_pin(world: &World, report: &CfsReport) -> (Arc<KnowledgeBase>, Ipv4Addr) {
        let overlaid = |ip: &Ipv4Addr| report.interfaces[ip].via_proximity;
        let links = report.links.iter();
        let near: BTreeSet<Ipv4Addr> = links
            .filter(|l| l.far_ip.as_ref().is_some_and(overlaid))
            .map(|l| l.near_ip)
            .collect();
        let rows = report.interfaces.values();
        let (first, rest): (Vec<_>, Vec<_>) = rows.partition(|row| near.contains(&row.ip));
        let contested = first.into_iter().chain(rest).find_map(|row| {
            let f = row.facility.filter(|_| !row.via_proximity)?;
            let owner = row.owner?;
            let listed = |list: &[FacilityId]| list.contains(&f);
            let page = world.sources.noc_pages.get(&owner)?;
            let pdb = world.sources.pdb_networks.get(&owner)?;
            if page.facilities.len() < 2 || !listed(&page.facilities) || !listed(&pdb.facilities) {
                return None;
            }
            let mut sources = world.sources.clone();
            let page = sources.noc_pages.get_mut(&owner)?;
            page.facilities.retain(|g| *g != f);
            let kb = KnowledgeBase::assemble(&sources, &world.topo.world);
            let same = kb.facilities_of_as(owner) == world.kb.facilities_of_as(owner);
            (same && !kb.pin_allowed(owner, f)).then(|| (Arc::new(kb), row.ip))
        });
        contested.expect("some pinned owner's NOC page shares the facility with PeeringDB")
    }

    /// An epoch that moves one candidate facility of a metro-pinned,
    /// unwidened interface into another metro's city: no footprint
    /// moves, but the facility → metro table that every metro reads does.
    fn relocate_a_candidate(world: &World, report: &CfsReport) -> Arc<KnowledgeBase> {
        let row = report
            .interfaces
            .values()
            .find(|r| r.metro.is_some() && !r.widened);
        let row = row.expect("some interface is pinned to a metro");
        let f = *row.candidates.first().unwrap();
        let mut sources = world.sources.clone();
        let records = &mut sources.pdb_facilities;
        let elsewhere = records
            .iter()
            .find(|r| {
                world
                    .kb
                    .metro_of_facility(r.facility)
                    .is_some_and(|m| Some(m) != row.metro)
            })
            .map(|r| (r.city_raw.clone(), r.country_raw.clone()))
            .expect("a facility in another metro");
        let record = records.iter_mut().find(|r| r.facility == f).unwrap();
        (record.city_raw, record.country_raw) = elsewhere;
        let kb = KnowledgeBase::assemble(&sources, &world.topo.world);
        assert!(kb.metro_of_facility(f) != world.kb.metro_of_facility(f));
        Arc::new(kb)
    }

    /// `sources` without the facilities `gone` names: everywhere, or
    /// only in the partner lists of exchange `ixp`.
    fn without(
        sources: &PublicSources,
        ixp: Option<IxpId>,
        gone: impl Fn(&FacilityId) -> bool,
    ) -> PublicSources {
        let mut sources = sources.clone();
        let keep = |list: &mut Vec<FacilityId>| list.retain(|f| !gone(f));
        let listed = |x: &IxpId| ixp.is_none_or(|ixp| ixp == *x);
        let sites = sources.ixp_sites.iter_mut().filter(|(x, _)| listed(x));
        sites.for_each(|(_, site)| keep(&mut site.facilities));
        let records = sources.pdb_ixps.iter_mut().filter(|(x, _)| listed(x));
        records.for_each(|(_, record)| keep(&mut record.facilities));
        if ixp.is_none() {
            sources
                .pdb_facilities
                .retain(|record| !gone(&record.facility));
            sources
                .pdb_networks
                .values_mut()
                .for_each(|r| keep(&mut r.facilities));
            sources
                .noc_pages
                .values_mut()
                .for_each(|page| keep(&mut page.facilities));
        }
        sources
    }

    /// An epoch after `thin` in which an exchange whose metro-level
    /// widening pool an interface consumed lists none of its partner
    /// facilities in one metro, so that the pool shrinks: only that
    /// exchange's footprints move.
    fn shrink_an_exchange(
        world: &World,
        sources: &PublicSources,
        thin: &KnowledgeBase,
        cfs: &Cfs<'_>,
    ) -> Arc<KnowledgeBase> {
        let consumed = cfs.deps.iter().filter_map(|(key, ifaces)| match key {
            DepKey::Metro(ixp) if !ifaces.is_empty() => Some(*ixp),
            _ => None,
        });
        let shrunk = consumed.into_iter().find_map(|ixp| {
            let metro = thin.metro_of_facility(*thin.facilities_of_ixp(ixp).first()?);
            let sources = without(sources, Some(ixp), |f| thin.metro_of_facility(*f) == metro);
            let next = KnowledgeBase::assemble(&sources, &world.topo.world);
            let moved = thin.moved(&next)?;
            let only = moved.ases.is_empty() && moved.ixps == BTreeSet::from([ixp]);
            let pool = |kb| read(kb, DepKey::Metro(ixp));
            let shrinks = pool(&next) != pool(thin);
            (only && shrinks && thin.same_classification_view(&next)).then(|| Arc::new(next))
        });
        shrunk.expect("some consumed widening pool can lose a metro")
    }

    /// A footprint read straight from an epoch.
    fn read(kb: &KnowledgeBase, key: DepKey) -> BTreeSet<FacilityId> {
        match key {
            DepKey::As(asn) => kb.facilities_of_as(asn),
            DepKey::Ixp(ixp) => kb.facilities_of_ixp(ixp),
            DepKey::Metro(ixp) => {
                let facilities = kb.facilities_of_ixp(ixp);
                let metros = facilities.iter().filter_map(|f| kb.metro_of_facility(*f));
                let metros: BTreeSet<MetroId> = metros.collect();
                metros
                    .into_iter()
                    .flat_map(|m| kb.facilities_in_metro(m))
                    .collect()
            }
        }
    }

    #[test]
    fn delta_sequences_equal_a_fresh_reference_after_every_step() {
        let world = World::new();
        // An epoch whose degraded sources classify crossings differently, and
        // one that keeps the classification but loses half the facilities.
        let stale = degrade_sources(&world.sources, &FaultPlan::new(3, FaultProfile::stale_kb()));
        let stale = Arc::new(KnowledgeBase::assemble(&stale, &world.topo.world));
        assert!(!world.kb.same_classification_view(&stale));
        let halved: BTreeSet<FacilityId> = world.topo.facilities.ids().step_by(2).collect();
        let thin_sources = without(&world.sources, None, |f| halved.contains(f));
        let thin = Arc::new(KnowledgeBase::assemble(&thin_sources, &world.topo.world));
        let vp = world.vps.ids().next().unwrap();
        let timeouts = FaultProfile {
            probe_timeout_pm: 150,
            ..FaultProfile::off()
        };
        let chaos = ChaosEngine::new(Engine::new(&world.topo), FaultPlan::new(11, timeouts));
        let clean = Engine::new(&world.topo);
        for (engine, threads) in [(&clean as &dyn ProbeService, 2), (&chaos, 8)] {
            let campaign = |epoch: u64, ases| world.campaign(engine, epoch * 7_200_000, ases);
            let first = campaign(0, 0..12);
            let boot = [first.clone(), campaign(1, 0..12)].concat();
            let (builder, rec) = builder_for(&world, engine, &world.kb, service_config(threads));
            let mut session = builder.build_session().unwrap();
            session.ingest(boot.clone());
            session.converge();
            let disputed = dispute_a_crossed_lan(&world, &session.cfs.observations);
            let (contested, refused) = contest_a_pin(&world, session.report().unwrap());
            let relocated = relocate_a_candidate(&world, session.report().unwrap());
            let shrunk = shrink_an_exchange(&world, &thin_sources, &thin, &session.cfs);
            let new_targets = campaign(2, 12..18);
            let held = [boot.as_slice(), &new_targets].concat();
            let steps = [
                // Only the pin gate's provenance moves: no constraint does.
                Delta::KbEpochFlip(contested),
                // A facility changes metro.
                Delta::KbEpochFlip(relocated),
                // Every trace repeats a held path: nothing moves.
                Delta::TracerouteBatch(first),
                Delta::TracerouteBatch(campaign(3, 0..12)),
                // New addresses re-resolve aliases.
                Delta::TracerouteBatch(new_targets),
                // A re-alias that moves held addresses re-extracts all.
                Delta::TracerouteBatch(vec![flipping_trace(&world, &held)]),
                Delta::VpStatusChange { vp, up: false },
                Delta::KbEpochFlip(disputed),
                Delta::KbEpochFlip(stale.clone()),
                Delta::TracerouteBatch(campaign(4, 0..18)),
                Delta::KbEpochFlip(thin.clone()),
                // Only one exchange's partner facilities move.
                Delta::KbEpochFlip(shrunk),
                Delta::VpStatusChange { vp, up: true },
            ];
            let (mut traces, mut kb, mut down) = (boot, &world.kb, BTreeSet::new());
            let reports = || rec.snapshot().spans.get("stage.report").map(|s| s.count);
            let mut kept = 0;
            for (i, step) in std::iter::once(None)
                .chain(steps.iter().map(Some))
                .enumerate()
            {
                let label = format!("threads={threads}, step {i}");
                if let Some(step) = step {
                    let (before, built) = (session.fingerprints(), reports());
                    let held: Vec<DepKey> = session.cfs.footprints.keys().copied().collect();
                    let deps = session.cfs.deps.clone();
                    let frontier = session.absorb(step.clone());
                    assert!(i != 1 || frontier.dirty.is_empty(), "{label}: dirty");
                    assert!(i != 12 || !frontier.dirty.is_empty(), "{label}: clean");
                    match step {
                        Delta::TracerouteBatch(batch) => {
                            let moved =
                                CfsSession::fingerprint_diff(&before, &session.fingerprints());
                            assert!(
                                frontier.dirty == moved,
                                "{label}: dirty set is not the fingerprint diff"
                            );
                            traces.extend_from_slice(batch);
                        }
                        Delta::KbEpochFlip(next) => {
                            // The consumers of every held footprint a full
                            // re-read finds moved, plus what a re-extraction
                            // moved.
                            let mut moved =
                                CfsSession::fingerprint_diff(&before, &session.fingerprints());
                            for key in held.iter().filter(|k| read(kb, **k) != read(next, **k)) {
                                moved.extend(deps.get(key).into_iter().flatten().copied());
                            }
                            assert!(
                                frontier.dirty == moved,
                                "{label}: dirty set is not the moved footprints' consumers"
                            );
                            let footprints = session.cfs.footprints.iter();
                            let mut stale =
                                footprints.filter(|(k, f)| f.to_btree_set() != read(next, **k));
                            assert!(stale.next().is_none(), "{label}: a held footprint is stale");
                            kb = next;
                        }
                        Delta::VpStatusChange { vp, up: true } => assert!(down.remove(vp)),
                        Delta::VpStatusChange { vp, up: false } => assert!(down.insert(*vp)),
                    }
                    let outcome = session.reconverge(frontier);
                    assert!(
                        outcome.dirty <= outcome.reconverged
                            && outcome.reconverged <= outcome.total,
                        "{label}: {outcome:?} counts more than the interfaces"
                    );
                    kept += usize::from(reports() == built);
                    if i == 1 {
                        let reason =
                            session.report().unwrap().interfaces[&refused].unresolved_reason;
                        let contested = Some(UnresolvedReason::ContestedProvenance);
                        assert!(reason == contested, "{label}: the pin stands");
                    }
                    let fresh = serde_json::to_string(&session.cfs.build_report()).unwrap();
                    let cached = serde_json::to_string(session.report().unwrap()).unwrap();
                    assert!(
                        cached == fresh,
                        "{label}: the cached report is not a fresh build_report"
                    );
                }
                let (fresh, _) = builder_for(&world, engine, kb, service_config(1));
                let mut reference =
                    Reference::new(fresh.vps_down(down.clone()).build_session().unwrap());
                reference.ingest(&traces);
                let report = reference.converge();
                assert_same(&label, &session, &reference, &report);
            }
            let counters = rec.snapshot().counters;
            assert!(
                counters.contains_key("serve.extract_rebuild"),
                "no re-extraction"
            );
            assert!(kept >= 1, "no campaign kept the report");
            assert!(session.cfs.corpus.len() < traces.len(), "no repeated path");
        }
    }
}
