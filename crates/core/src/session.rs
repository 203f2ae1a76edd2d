//! The resident session API: CFS as a long-lived service instead of a
//! one-shot batch (ROADMAP's north star; the follow-on workload of
//! Milolidakis et al., "Detecting Network Disruptions At Colocation
//! Facilities").
//!
//! A [`CfsSession`] wraps the batch engine, converges once, caches the
//! report, and then absorbs [`Delta`]s — new traceroute campaigns, a
//! knowledge-base epoch flip, a vantage point going down — by dirtying
//! exactly the interfaces whose constraint inputs changed and
//! re-converging only that frontier ([`Cfs::kernel_converge`]). After
//! every delta the cached report is byte-identical to what a from-scratch
//! batch run over the merged inputs would produce; the determinism tests
//! in `crates/core/tests/session.rs` assert this at several thread
//! counts, with and without fault injection.
//!
//! Incremental correctness rests on the **iteration-1 fixed point**:
//! under follow-up-less configurations
//! (`CfsConfig::followup_interfaces == 0`) the batch loop's serialized
//! state stops changing after the first iteration — observation
//! constraints are static sets, re-intersecting them is idempotent, and
//! alias combination leaves every member at the combined set. One scoped
//! constraint pass therefore reproduces convergence for the dirty
//! interfaces, and [`Cfs::synthesize_iterations`] replays the loop's
//! control flow against the (constant) per-iteration counts to rebuild
//! the convergence telemetry the batch loop would have written.
//!
//! Campaign deltas ([`Delta::TracerouteBatch`]) cost O(new paths), not
//! O(corpus). **Repeated paths:** the engine holds each measured
//! (vantage point, hop sequence) once (`crate::corpus`), so a trace that
//! repeats a held path — most of every periodic campaign — only bumps
//! its multiplicity: its identical first occurrence already fed the hop
//! set, the observation dedup and the exposure index under the same
//! view, and telemetry counts it through the path's cached tally.
//! Extraction of a trace reads only the KB and the corrected ASNs of
//! that trace's own hops, so the held observation list stays what a
//! fresh extraction would build as long as no previously seen address
//! changes its corrected ASN. **Rule 1:** a delta that adds no new hop
//! address skips alias resolution — MIDAR output is a pure function of
//! the sorted address set, because probe times key off each candidate's
//! global index — and only the new paths are extracted and appended.
//! The observation list then only grows at its end, so the dirty set is
//! exactly the endpoints of the appended observations: no fingerprint
//! fold. **Rule 2:** a delta that adds hop addresses re-resolves aliases
//! globally (new interfaces can join old sets) but still extracts only
//! the new paths, unless some address seen before the delta changed its
//! corrected ASN; only then is the whole corpus re-extracted (the
//! `serve.extract_rebuild` counter). Both fall back to diffing
//! per-interface fingerprints taken before and after. **Report reuse:**
//! a campaign that appended no observation, re-resolved no alias and
//! left the re-convergence scope empty moved nothing the report reads,
//! so the cached report is kept instead of rebuilt.
//!
//! Follow-up-driven configurations (`followup_interfaces > 0`) have no
//! such fixed point: targeted probing reacts to global state, so a
//! scoped pass cannot reproduce convergence. Those are the paper's
//! batch runs (§4.3, Step 4); their sessions converge and answer
//! queries, and [`CfsSession::apply_delta`] refuses them.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

use cfs_chaos::{splitmix64, RetryPolicy};
use cfs_kb::KnowledgeBase;
use cfs_obs::{Recorder, TraceRecorder};
use cfs_traceroute::Trace;
use cfs_types::{Asn, Error, FacilityId, IxpId, MetroId, Result, VantagePointId};

use crate::engine::{Cfs, DepKey};
use crate::remote::RemoteTester;
use crate::report::CfsReport;
use crate::state::SearchOutcome;
use crate::telemetry::render_trace_json;

/// Folded into an interface's fingerprint ahead of its alias-set members,
/// keeping alias membership apart from observation lines.
const ALIAS_MARK: u64 = 0xa11a_5e75_0000_0001;

/// What absorbing one delta changed.
struct Frontier {
    /// Interfaces whose constraint inputs changed.
    dirty: BTreeSet<Ipv4Addr>,
    /// Whether the frontier's cached remote verdicts may be stale.
    purge_remote: bool,
    /// Whether anything else the report reads may have changed: the
    /// observation list, the alias sets, the KB epoch. A campaign that
    /// moved none of these, with an empty frontier, keeps the report.
    moved: bool,
}

/// An incremental input change a resident session can absorb without
/// recomputing the world.
pub enum Delta {
    /// A new traceroute campaign: ingested, and only the paths it
    /// measured for the first time extracted (a repeated path is only
    /// counted); interfaces whose observation neighborhood or alias set
    /// changed are re-converged. Aliases are re-resolved only when the
    /// campaign adds hop addresses, and the whole corpus is re-extracted
    /// only when that moves the corrected ASN of an address seen before
    /// (module docs).
    TracerouteBatch(Vec<Trace>),
    /// A knowledge-base epoch flip (the `mid-kb-refresh` model made
    /// first-class): footprint caches are diffed against the new epoch
    /// and only interfaces that consumed a changed footprint are dirtied.
    KbEpochFlip(Arc<KnowledgeBase>),
    /// A vantage point going down (or coming back): remote-peering
    /// verdicts measured through the affected pool are recomputed, and
    /// interfaces whose verdict flipped are re-converged.
    VpStatusChange {
        /// The platform whose status changed.
        vp: VantagePointId,
        /// `true` when the vantage point came back up.
        up: bool,
    },
}

/// What one [`CfsSession::apply_delta`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct DeltaOutcome {
    /// Report epoch after the delta (bumped once per applied delta).
    pub epoch: u64,
    /// Interfaces whose constraint inputs changed.
    pub dirty: usize,
    /// Interfaces actually re-converged (the dirty set closed over alias
    /// sets). Strictly less than `total` when the delta was local.
    pub reconverged: usize,
    /// Total interfaces tracked after re-convergence.
    pub total: usize,
}

/// Answer to a single-interface lookup (`interface → facility, method,
/// confidence` — the service query of ROADMAP's north star).
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct QueryAnswer {
    /// The queried address.
    pub ip: Ipv4Addr,
    /// Corrected owner AS, when known.
    pub owner: Option<Asn>,
    /// The single inferred facility, when resolved.
    pub facility: Option<FacilityId>,
    /// The metro, when all candidates agree on one.
    pub metro: Option<MetroId>,
    /// Remaining candidate count (0 when the interface is unknown).
    pub candidates: usize,
    /// Outcome classification.
    pub outcome: SearchOutcome,
    /// Engineering method observed for the interface:
    /// `public-remote`, `mixed`, `public`, `private`, or `unknown`.
    pub method: &'static str,
    /// Heuristic confidence in `facility` (1.0 ⇒ certain).
    pub confidence: f64,
    /// Report epoch the answer was read from.
    pub epoch: u64,
}

/// A resident CFS engine: converge once, query forever, absorb deltas.
///
/// Built by [`crate::CfsBuilder::build_session`], the engine's only
/// entry point: a batch run is a session converged once.
pub struct CfsSession<'a> {
    cfs: Cfs<'a>,
    report: Option<CfsReport>,
    epoch: u64,
}

impl<'a> CfsSession<'a> {
    pub(crate) fn new(cfs: Cfs<'a>) -> Self {
        Self {
            cfs,
            report: None,
            epoch: 0,
        }
    }

    /// Feeds bootstrap traces before the first convergence. After
    /// [`CfsSession::converge`], feed new campaigns through
    /// [`Delta::TracerouteBatch`] instead, so only affected interfaces
    /// are recomputed.
    pub fn ingest(&mut self, traces: Vec<Trace>) {
        self.cfs.ingest(&traces);
    }

    /// Feeds BGP session listings from looking glasses (§3.2). Like
    /// [`CfsSession::ingest`], a bootstrap-phase input.
    pub fn ingest_bgp_sessions(&mut self, owner: Asn, sessions: &[cfs_bgp::BgpSession]) {
        self.cfs.ingest_bgp_sessions(owner, sessions);
    }

    /// Report epoch: 0 before the first convergence, 1 after it, +1 per
    /// applied delta.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The cached report, when the session has converged.
    pub fn report(&self) -> Option<&CfsReport> {
        self.report.as_ref()
    }

    /// Runs the search to convergence (first call) and returns the
    /// cached report (every call).
    pub fn converge(&mut self) -> &CfsReport {
        if self.report.is_none() {
            cfs_obs::span!(self.cfs.recorder, "cfs.run");
            self.cfs.run_to_convergence();
            self.report = Some(self.cfs.build_report());
            self.epoch = 1;
        }
        self.report.as_ref().expect("report cached above")
    }

    /// Converges if needed and surrenders the report.
    pub fn into_report(mut self) -> CfsReport {
        self.converge();
        self.report.expect("converge caches the report")
    }

    /// Single-interface lookup against the cached report. Interfaces the
    /// search never tracked come back as [`SearchOutcome::MissingData`]
    /// with zero confidence; call [`CfsSession::converge`] first.
    pub fn query(&self, ip: Ipv4Addr) -> QueryAnswer {
        let Some(iface) = self.report.as_ref().and_then(|r| r.interfaces.get(&ip)) else {
            return QueryAnswer {
                ip,
                owner: None,
                facility: None,
                metro: None,
                candidates: 0,
                outcome: SearchOutcome::MissingData,
                method: "unknown",
                confidence: 0.0,
                epoch: self.epoch,
            };
        };
        let public = !iface.public_ixps.is_empty();
        let method = match (public, iface.seen_private, iface.remote) {
            (true, true, _) => "mixed",
            (true, false, true) => "public-remote",
            (true, false, false) => "public",
            (false, true, _) => "private",
            (false, false, _) => "unknown",
        };
        let confidence = if iface.outcome == SearchOutcome::Resolved {
            if iface.via_proximity {
                0.7
            } else if iface.widened {
                0.6
            } else {
                0.95
            }
        } else if iface.candidates.is_empty() {
            0.0
        } else {
            1.0 / iface.candidates.len() as f64
        };
        QueryAnswer {
            ip,
            owner: iface.owner,
            facility: iface.facility,
            metro: iface.metro,
            candidates: iface.candidates.len(),
            outcome: iface.outcome,
            method,
            confidence,
            epoch: self.epoch,
        }
    }

    /// Applies one delta: dirties the interfaces whose constraint inputs
    /// changed, closes the set over alias sets, re-converges exactly that
    /// frontier, rebuilds the report (or keeps it, when a campaign moved
    /// nothing it reads), and bumps the epoch.
    ///
    /// Emits `serve.delta`, `serve.dirty_ifaces`, and `serve.reconverged`
    /// through the session recorder.
    ///
    /// Refuses every delta on a follow-up-driven configuration
    /// (`CfsConfig::followup_interfaces > 0`, module docs) before
    /// converging or absorbing anything.
    pub fn apply_delta(&mut self, delta: Delta) -> Result<DeltaOutcome> {
        if self.cfs.cfg.followup_interfaces > 0 {
            return Err(Error::invalid(
                "deltas need a follow-up-less session (followup_interfaces = 0)",
            ));
        }
        if self.report.is_none() {
            self.converge();
        }
        cfs_obs::span!(self.cfs.recorder, "serve.delta");
        let frontier = self.absorb(delta);
        Ok(self.reconverge(frontier))
    }

    /// Merges a delta into the engine's inputs and derives its dirty
    /// frontier.
    fn absorb(&mut self, delta: Delta) -> Frontier {
        match delta {
            Delta::TracerouteBatch(traces) => {
                let (dirty, moved) = self.absorb_traces(traces);
                Frontier {
                    dirty,
                    purge_remote: true,
                    moved,
                }
            }
            Delta::KbEpochFlip(kb) => Frontier {
                dirty: self.absorb_kb_flip(kb),
                purge_remote: true,
                moved: true,
            },
            Delta::VpStatusChange { vp, up } => Frontier {
                dirty: self.absorb_vp_status(vp, up),
                purge_remote: false,
                moved: true,
            },
        }
    }

    /// Re-converges a frontier, refreshes the cached report, and bumps
    /// the epoch.
    fn reconverge(&mut self, frontier: Frontier) -> DeltaOutcome {
        let Frontier {
            dirty,
            purge_remote,
            moved,
        } = frontier;
        let scope = self.alias_closure(&dirty);
        self.cfs
            .recorder
            .counter("serve.dirty_ifaces", dirty.len() as u64);
        self.cfs
            .recorder
            .counter("serve.reconverged", scope.len() as u64);
        self.epoch += 1;
        let outcome = DeltaOutcome {
            epoch: self.epoch,
            dirty: dirty.len(),
            reconverged: scope.len(),
            total: self.cfs.states.len(),
        };
        if !moved && scope.is_empty() {
            // Nothing the report reads changed: no observation, alias
            // set, or interface state. Keep the cached report.
            return outcome;
        }
        if purge_remote {
            // Dirty observation neighborhoods can change which exchange
            // first triggers an interface's remote test; drop the cached
            // verdicts so the kernel re-derives them exactly as a fresh
            // batch run would. Clean interfaces keep theirs: their
            // trigger sequence is an unchanged prefix-preserving
            // subsequence, so the cached verdict is already the batch
            // answer.
            self.cfs.forget_remote_verdicts(&scope);
        }
        self.cfs.kernel_converge(&scope);
        self.cfs.synthesize_iterations();
        self.report = Some(self.cfs.build_report());
        DeltaOutcome {
            total: self.cfs.states.len(),
            ..outcome
        }
    }

    // ------------------------------------------------------------------
    // Delta absorption: compute the dirty frontier
    // ------------------------------------------------------------------

    /// Per-interface fingerprint of everything constraint derivation
    /// reads: the interface's subsequence of the merged observation list
    /// (owner, classification, far side) and its alias-set membership.
    /// An unchanged fingerprint means every constraint the batch pass
    /// would intersect into the interface is unchanged too. Each field is
    /// folded in as an integer through a bijective 64-bit mixer, so the
    /// fold is order-sensitive and no string is built per observation.
    fn fingerprints(&self) -> BTreeMap<Ipv4Addr, u64> {
        let fold = |h: u64, word: u64| splitmix64(h ^ word);
        let opt = |v: Option<u32>| v.map_or(0, |v| u64::from(v) | 1 << 32);
        let mut acc: BTreeMap<Ipv4Addr, u64> = BTreeMap::new();
        for obs in self
            .cfs
            .session_observations
            .iter()
            .chain(self.cfs.observations.iter())
        {
            let line = [
                u64::from(obs.near_asn.raw()) << 32 | u64::from(u32::from(obs.near_ip)),
                opt(obs.class.ixp().map(|x| x.raw())),
                opt(obs.far_asn.map(Asn::raw)),
                opt(obs.far_ip.map(u32::from)),
            ]
            .into_iter()
            .fold(0, fold);
            for ip in std::iter::once(obs.near_ip).chain(obs.far_ip) {
                let h = acc.entry(ip).or_default();
                *h = fold(*h, line);
            }
        }
        let set_marks: Vec<u64> = self
            .cfs
            .aliases
            .sets
            .iter()
            .map(|set| {
                set.iter()
                    .fold(ALIAS_MARK, |h, m| fold(h, u64::from(u32::from(*m))))
            })
            .collect();
        for (ip, set) in &self.cfs.aliases.set_of {
            let h = acc.entry(*ip).or_default();
            *h = fold(*h, set_marks[*set]);
        }
        acc
    }

    /// Interfaces whose fingerprint differs between two snapshots
    /// (changed, appeared, or disappeared).
    fn fingerprint_diff(
        before: &BTreeMap<Ipv4Addr, u64>,
        after: &BTreeMap<Ipv4Addr, u64>,
    ) -> BTreeSet<Ipv4Addr> {
        let mut dirty = BTreeSet::new();
        for (ip, fp) in after {
            if before.get(ip) != Some(fp) {
                dirty.insert(*ip);
            }
        }
        for ip in before.keys() {
            if !after.contains_key(ip) {
                dirty.insert(*ip);
            }
        }
        dirty
    }

    /// Absorbs a campaign; returns the dirty interfaces and whether the
    /// observation list or the alias sets changed at all.
    fn absorb_traces(&mut self, traces: Vec<Trace>) -> (BTreeSet<Ipv4Addr>, bool) {
        let held = self.cfs.observations.len();
        let mut fresh = self.cfs.ingest(&traces);
        // Extraction of a trace reads only the KB and the corrected ASNs
        // of its own hops, so the held observations stay exact while no
        // already-seen address changes its corrected ASN, and only the new
        // paths need extracting. Rule 1: with no new hop address, alias
        // resolution (a pure function of the sorted address set) would
        // reproduce itself, so it is skipped, and the observation list
        // only grows at its end: an interface's fingerprint moves exactly
        // when it is an endpoint of an appended observation.
        if self.cfs.new_ips_since_alias == 0 {
            self.cfs.process_new_traces();
            let appended = &self.cfs.observations[held..];
            let dirty = appended
                .iter()
                .flat_map(|obs| std::iter::once(obs.near_ip).chain(obs.far_ip))
                .collect();
            return (dirty, !appended.is_empty());
        }
        // Rule 2: new addresses re-resolve aliases globally (they can join
        // old sets); the whole corpus is re-extracted only if that moved
        // the corrected ASN of an address seen before the delta. The
        // fingerprint diff then narrows re-convergence to interfaces that
        // actually moved.
        let before = self.fingerprints();
        fresh.sort_unstable();
        let moved = self.cfs.realias();
        if moved.iter().any(|ip| fresh.binary_search(ip).is_err()) {
            self.cfs.recorder.counter("serve.extract_rebuild", 1);
            self.cfs.reset_observations();
        }
        self.cfs.process_new_traces();
        let after = self.fingerprints();
        (Self::fingerprint_diff(&before, &after), true)
    }

    fn absorb_kb_flip(&mut self, kb: Arc<KnowledgeBase>) -> BTreeSet<Ipv4Addr> {
        // When the new epoch classifies observations identically (same
        // confirmed LAN space, same fabric directory, same activity
        // filter), extraction is a fixed point: every trace and
        // looking-glass record would rebuild the exact observation list
        // already held, and the fingerprint diff would come back empty.
        // Skip the rebuild and let the footprint diff below find the
        // dirty frontier — this is what makes a facility-list flip cost
        // O(dirty), not O(world).
        let same_view = self.cfs.kb().same_classification_view(&kb);
        let before = if same_view {
            BTreeMap::new()
        } else {
            self.fingerprints()
        };
        self.cfs.flip_kb(kb);
        let mut dirty = BTreeSet::new();

        // Diff every footprint the constraint system has consumed against
        // the new epoch; a changed footprint dirties exactly the
        // interfaces the dependency index says consumed it.
        let keys: Vec<DepKey> = self.cfs.footprints.keys().copied().collect();
        for key in keys {
            let old = self
                .cfs
                .footprints
                .remove(&key)
                .expect("key collected from this map");
            if old != self.cfs.footprint(key) {
                if let Some(consumers) = self.cfs.deps.get(&key) {
                    dirty.extend(consumers.iter().copied());
                }
            }
        }

        if same_view {
            return dirty;
        }

        // Observation classification reads the KB (confirmed IXP space ⇒
        // public), so rebuild the observation list under the new epoch:
        // replay the looking-glass log, then re-extract every trace.
        // Alias resolution and ownership correction never read the KB, so
        // they stand.
        self.cfs.rebuild_observations();
        self.cfs.process_new_traces();

        let after = self.fingerprints();
        dirty.extend(Self::fingerprint_diff(&before, &after));
        dirty
    }

    fn absorb_vp_status(&mut self, vp: VantagePointId, up: bool) -> BTreeSet<Ipv4Addr> {
        if up {
            self.cfs.vp_down.remove(&vp);
        } else {
            self.cfs.vp_down.insert(vp);
        }
        // Remote verdicts are pure functions of (ixp, ip, down-set);
        // recompute every cached one under the new pool and dirty the
        // interfaces whose verdict flipped. The stored exchange binding
        // keeps the re-measurement aimed where the first trigger aimed.
        let entries: Vec<(Ipv4Addr, IxpId, Option<bool>)> = self
            .cfs
            .remote_cache
            .iter()
            .map(|(ip, (ixp, verdict))| (*ip, *ixp, *verdict))
            .collect();
        let mut dirty = BTreeSet::new();
        for (ip, ixp, old) in entries {
            let verdict = RemoteTester::new(self.cfs.engine, self.cfs.vps)
                .recorded(&*self.cfs.recorder)
                .retrying(RetryPolicy::default(), self.cfs.chaos_seed)
                .excluding(&self.cfs.vp_down)
                .is_remote(ixp, ip);
            if verdict != old {
                self.cfs.remote_cache.insert(ip, (ixp, verdict));
                dirty.insert(ip);
            }
        }
        dirty
    }

    /// Closes a dirty set over alias sets: every member of any alias set
    /// containing a dirty interface joins the re-convergence scope, so
    /// the scoped alias-combination step sees whole routers (alias sets
    /// are disjoint, so one level of closure suffices).
    fn alias_closure(&self, dirty: &BTreeSet<Ipv4Addr>) -> BTreeSet<Ipv4Addr> {
        let mut scope = dirty.clone();
        for ip in dirty {
            if let Some(members) = self.cfs.aliases.aliases_of(*ip) {
                scope.extend(members.iter().copied());
            }
        }
        scope
    }
}

/// Renders the canonical `cfs-trace/1` document for a report: a fresh
/// deterministic recorder is fed pure functions of the report, so equal
/// reports ⇒ equal documents ⇒ equal digests. This is what the daemon
/// serves and what the CI smoke job diffs against a fresh batch run.
pub fn canonical_trace(report: &CfsReport) -> String {
    let recorder = TraceRecorder::deterministic();
    recorder.counter("report.interfaces", report.interfaces.len() as u64);
    recorder.counter("report.links", report.links.len() as u64);
    recorder.counter("cfs.iterations", report.iterations.len() as u64);
    for _ in &report.iterations {
        for iface in report.interfaces.values() {
            if !iface.candidates.is_empty() {
                recorder.observe("cfs.candidates_per_iface", iface.candidates.len() as u64);
            }
        }
    }
    render_trace_json(report, &recorder.snapshot())
}

#[cfg(test)]
mod tests {
    use std::ops::Range;

    use super::*;
    use crate::engine::CfsConfig;
    use crate::observe::Observation;
    use cfs_chaos::{FaultPlan, FaultProfile};
    use cfs_kb::{degrade_sources, KbConfig, PublicSources};
    use cfs_net::IpAsnDb;
    use cfs_obs::Histogram;
    use cfs_topology::{Topology, TopologyConfig};
    use cfs_traceroute::{
        deploy_vantage_points, run_campaign, CampaignLimits, ChaosEngine, Engine, Hop, Platform,
        ProbeService, VpConfig, VpSet,
    };

    struct World {
        topo: Topology,
        sources: PublicSources,
        kb: KnowledgeBase,
        vps: VpSet,
        ipasn: IpAsnDb,
    }

    impl World {
        fn new() -> Self {
            Self::at(TopologyConfig::tiny(), &VpConfig::tiny())
        }

        fn at(cfg: TopologyConfig, vps: &VpConfig) -> Self {
            let topo = Topology::generate(cfg).unwrap();
            let sources = PublicSources::derive(&topo, &KbConfig::default());
            let kb = KnowledgeBase::assemble(&sources, &topo.world);
            let vps = deploy_vantage_points(&topo, vps).unwrap();
            let ipasn = topo.build_ipasn_db();
            Self {
                topo,
                sources,
                kb,
                vps,
                ipasn,
            }
        }

        /// A campaign from every vantage point towards the targets of
        /// the ASes at positions `ases` in ASN order.
        fn campaign(
            &self,
            engine: &dyn ProbeService,
            at_ms: u64,
            ases: Range<usize>,
        ) -> Vec<Trace> {
            let targets: Vec<Ipv4Addr> = self
                .topo
                .ases
                .keys()
                .skip(ases.start)
                .take(ases.len())
                .map(|a| self.topo.target_ip(*a).unwrap())
                .collect();
            let vp_ids: Vec<_> = self.vps.ids().collect();
            let limits = CampaignLimits::default();
            run_campaign(engine, &self.vps, &vp_ids, &targets, at_ms, &limits)
        }

        fn session<'a>(&'a self, engine: &'a Engine<'a>, cfg: CfsConfig) -> CfsSession<'a> {
            Cfs::builder(engine, &self.kb)
                .vps(&self.vps)
                .ipasn(&self.ipasn)
                .config(cfg)
                .build_session()
                .unwrap()
        }
    }

    /// The exposure-index update as first written: a walk over every hop
    /// of `traces` under `corrected`.
    fn walk_every_hop(
        index: &mut BTreeMap<Asn, Vec<VantagePointId>>,
        traces: &[Trace],
        corrected: &BTreeMap<Ipv4Addr, Asn>,
    ) {
        for t in traces {
            for hop in &t.hops {
                if let Some(asn) = hop.ip.and_then(|ip| corrected.get(&ip)) {
                    let list = index.entry(*asn).or_default();
                    if list.len() < 64 && !list.contains(&t.vp) {
                        list.push(t.vp);
                    }
                }
            }
        }
    }

    #[test]
    fn moved_only_reindex_equals_a_walk_over_every_trace() {
        let world = World::new();
        let engine = Engine::new(&world.topo);
        let mut session = world.session(&engine, CfsConfig::default());
        let cfs = &mut session.cfs;
        let mut traces = world.campaign(&engine, 0, 0..12);
        cfs.ingest(&traces);
        cfs.realias();

        // Index the first campaign under a perturbed view, as if the last
        // alias resolution had mapped every fifth address elsewhere and
        // left every fifth unmapped.
        let truth = cfs.corrected.clone();
        for (i, (ip, asn)) in truth.iter().enumerate() {
            match i % 5 {
                0 => cfs.corrected.insert(*ip, Asn::new(asn.raw() + 1)),
                1 => cfs.corrected.remove(ip),
                _ => None,
            };
        }
        cfs.reindex.clear();
        cfs.reset_observations();
        cfs.process_new_traces();
        let mut oracle = BTreeMap::new();
        walk_every_hop(&mut oracle, &traces, &cfs.corrected);
        assert_eq!(cfs.vp_crossed, oracle);

        // New traces under an unchanged view: only they are walked.
        let second = world.campaign(&engine, 7_200_000, 12..30);
        cfs.ingest(&second);
        cfs.process_new_traces();
        walk_every_hop(&mut oracle, &second, &cfs.corrected);
        traces.extend(second);
        assert_eq!(cfs.vp_crossed, oracle);

        // A re-alias moves the perturbed addresses back (and maps the
        // second campaign's new ones): the moved-only update must change
        // the index exactly as a walk over every trace would.
        let before = cfs.vp_crossed.clone();
        let moved = cfs.realias();
        assert!(moved.len() * 3 > truth.len(), "{} moved", moved.len());
        cfs.reset_observations();
        cfs.process_new_traces();
        walk_every_hop(&mut oracle, &traces, &cfs.corrected);
        assert_eq!(cfs.vp_crossed, oracle);
        assert_ne!(cfs.vp_crossed, before, "the re-walk added nothing");
        assert!(cfs.reindex.is_empty());
        assert_eq!(cfs.indexed, cfs.corpus.len());
    }

    /// The part of `followup_config_refuses_every_delta`
    /// (`tests/session.rs`) only the crate can see: a refused delta
    /// leaves the corpus and the vantage-point status as they were.
    #[test]
    fn refused_deltas_leave_the_inputs_alone() {
        let world = World::new();
        let engine = Engine::new(&world.topo);
        let cfg = CfsConfig {
            followup_interfaces: 24,
            ..CfsConfig::default()
        };
        let mut session = world.session(&engine, cfg);
        session.ingest(world.campaign(&engine, 0, 0..12));
        session.converge();
        let held = (session.cfs.corpus.len(), session.cfs.corpus.traces());
        for delta in [
            Delta::TracerouteBatch(world.campaign(&engine, 7_200_000, 12..18)),
            Delta::VpStatusChange {
                vp: world.vps.ids().next().unwrap(),
                up: false,
            },
        ] {
            assert!(session.apply_delta(delta).is_err());
            assert_eq!(
                (session.cfs.corpus.len(), session.cfs.corpus.traces()),
                held
            );
            assert!(session.cfs.vp_down.is_empty());
        }
    }

    /// One input change, replayable into a fresh [`Delta`].
    enum Step {
        Campaign(Vec<Trace>),
        Flip(Arc<KnowledgeBase>),
    }

    impl Step {
        fn delta(&self) -> Delta {
            match self {
                Step::Campaign(traces) => Delta::TracerouteBatch(traces.clone()),
                Step::Flip(kb) => Delta::KbEpochFlip(kb.clone()),
            }
        }
    }

    /// What trace ingestion and extraction built, the telemetry they
    /// recorded, and the report served.
    #[derive(PartialEq)]
    struct Extracted {
        traces: u64,
        hop_ips: BTreeSet<Ipv4Addr>,
        observations: Vec<Observation>,
        obs_keys: BTreeSet<(Ipv4Addr, Option<IxpId>, Option<Ipv4Addr>)>,
        vp_crossed: BTreeMap<Asn, Vec<VantagePointId>>,
        counters: BTreeMap<&'static str, u64>,
        histograms: BTreeMap<&'static str, Histogram>,
        spans: BTreeMap<&'static str, u64>,
        report: String,
    }

    impl Extracted {
        fn of(session: &CfsSession<'_>, rec: &TraceRecorder) -> Self {
            let cfs = &session.cfs;
            let snap = rec.snapshot();
            Self {
                traces: cfs.corpus.traces(),
                hop_ips: cfs.hop_ips.clone(),
                observations: cfs.observations.clone(),
                obs_keys: cfs.obs_keys.clone(),
                vp_crossed: cfs.vp_crossed.clone(),
                counters: snap.counters,
                histograms: snap.histograms,
                spans: snap.spans.iter().map(|(k, s)| (*k, s.count)).collect(),
                report: serde_json::to_string(session.report().unwrap()).unwrap(),
            }
        }

        /// The fields on which `self` and `other` differ.
        fn diff(&self, other: &Self) -> Vec<&'static str> {
            [
                ("traces", self.traces == other.traces),
                ("hop_ips", self.hop_ips == other.hop_ips),
                ("observations", self.observations == other.observations),
                ("obs_keys", self.obs_keys == other.obs_keys),
                ("vp_crossed", self.vp_crossed == other.vp_crossed),
                ("counters", self.counters == other.counters),
                ("histograms", self.histograms == other.histograms),
                ("spans", self.spans == other.spans),
                ("report", self.report == other.report),
            ]
            .into_iter()
            .filter(|(_, same)| !same)
            .map(|(field, _)| field)
            .collect()
        }
    }

    /// One scripted session run.
    struct Run {
        /// State after convergence, then after every step.
        states: Vec<Extracted>,
        /// Distinct paths held at the end.
        paths: usize,
        /// Campaign deltas that kept the cached report.
        kept: usize,
    }

    /// Converges a session on `boot` and applies `steps`, with the corpus
    /// holding distinct paths or, when `naive`, every trace as its own
    /// path. Every campaign's dirty set is checked against the
    /// fingerprint diff, and every report against a fresh `build_report`.
    fn drive(
        world: &World,
        engine: &dyn ProbeService,
        cfg: &CfsConfig,
        boot: &[Vec<Trace>],
        steps: &[Step],
        naive: bool,
    ) -> Run {
        let rec = Arc::new(TraceRecorder::deterministic());
        let mut session = Cfs::builder(engine, &world.kb)
            .vps(&world.vps)
            .ipasn(&world.ipasn)
            .config(cfg.clone())
            .recorder(rec.clone())
            .build_session()
            .unwrap();
        session.cfs.corpus.naive = naive;
        for campaign in boot {
            session.ingest(campaign.clone());
        }
        session.converge();
        let mut states = vec![Extracted::of(&session, &rec)];
        let mut kept = 0;
        let reports =
            |rec: &TraceRecorder| rec.snapshot().spans.get("stage.report").map(|s| s.count);
        for (i, step) in steps.iter().enumerate() {
            let before = session.fingerprints();
            let built = reports(&rec);
            let frontier = session.absorb(step.delta());
            if let Step::Campaign(_) = step {
                let moved = CfsSession::fingerprint_diff(&before, &session.fingerprints());
                assert_eq!(
                    frontier.dirty, moved,
                    "step {i}: dirty set is not the fingerprint diff"
                );
            }
            session.reconverge(frontier);
            if reports(&rec) == built {
                kept += 1;
            }
            let fresh = serde_json::to_string(&session.cfs.build_report()).unwrap();
            assert_eq!(
                serde_json::to_string(session.report().unwrap()).unwrap(),
                fresh,
                "step {i}: the cached report is not a fresh build_report"
            );
            states.push(Extracted::of(&session, &rec));
        }
        Run {
            states,
            paths: session.cfs.corpus.len(),
            kept,
        }
    }

    /// Runs the script over the corpus and over the walk over every
    /// trace, requires identical state after every step, and returns the
    /// corpus run.
    fn corpus_against_naive_walk(
        world: &World,
        engine: &dyn ProbeService,
        cfg: &CfsConfig,
        boot: &[Vec<Trace>],
        steps: &[Step],
        label: &str,
    ) -> Run {
        let naive = drive(world, engine, cfg, boot, steps, true);
        let corpus = drive(world, engine, cfg, boot, steps, false);
        for (i, (a, b)) in naive.states.iter().zip(&corpus.states).enumerate() {
            let diff = a.diff(b);
            assert!(diff.is_empty(), "{label}: state {i} differs in {diff:?}");
        }
        let traces = corpus.states.last().unwrap().traces;
        assert!(
            (corpus.paths as u64) < traces,
            "{label}: {traces} traces, no repeated path"
        );
        assert_eq!(
            naive.paths as u64, traces,
            "{label}: the naive walk deduplicated"
        );
        corpus
    }

    /// A hand-built trace through the unseen interfaces of a router that
    /// `held` crossed, chosen so re-resolving aliases moves the corrected
    /// ASN of an address already held (the whole-corpus re-extraction).
    fn flipping_trace(world: &World, held: &[Trace]) -> Trace {
        let seen: BTreeSet<Ipv4Addr> = held
            .iter()
            .flat_map(|t| t.hops.iter().filter_map(|h| h.ip))
            .collect();
        let alias_cfg = CfsConfig::default().alias;
        let prober = cfs_alias::IpIdProber::new(&world.topo);
        let corrected = |ips: &BTreeSet<Ipv4Addr>| {
            let ips: Vec<Ipv4Addr> = ips.iter().copied().collect();
            let aliases = cfs_alias::resolve_aliases(&prober, &ips, &alias_cfg);
            cfs_alias::correct_ip_to_asn(&world.ipasn, &aliases, &ips).0
        };
        let old = corrected(&seen);
        let unseen = world
            .topo
            .routers
            .iter()
            .filter_map(|(_, router)| {
                let ips: Vec<Ipv4Addr> = router
                    .ifaces
                    .iter()
                    .map(|id| world.topo.ifaces.get(*id).unwrap().ip)
                    .collect();
                let unseen: Vec<Ipv4Addr> = ips
                    .iter()
                    .copied()
                    .filter(|ip| !seen.contains(ip))
                    .collect();
                (unseen.len() < ips.len() && !unseen.is_empty()).then_some(unseen)
            })
            .find(|unseen| {
                let new = corrected(&seen.iter().chain(unseen).copied().collect());
                seen.iter().any(|ip| old.get(ip) != new.get(ip))
            })
            .expect("some router's unseen interfaces move an old corrected ASN");
        Trace {
            vp: held[0].vp,
            src_asn: held[0].src_asn,
            target: unseen[0],
            at_ms: 7_200_000,
            hops: unseen
                .iter()
                .map(|ip| Hop {
                    ip: Some(*ip),
                    rtt_ms: 1.0,
                })
                .collect(),
            reached: false,
        }
    }

    fn service_config(threads: usize) -> CfsConfig {
        CfsConfig {
            followup_interfaces: 0,
            threads,
            ..CfsConfig::default()
        }
    }

    #[test]
    fn distinct_path_corpus_equals_a_walk_over_every_trace() {
        let world = World::new();
        // An epoch whose degraded sources classify crossings differently.
        let stale = degrade_sources(&world.sources, &FaultPlan::new(3, FaultProfile::stale_kb()));
        let stale = Arc::new(KnowledgeBase::assemble(&stale, &world.topo.world));
        assert!(!world.kb.same_classification_view(&stale));
        for faults in [false, true] {
            let engine: Box<dyn ProbeService> = if faults {
                let plan = FaultPlan::new(
                    11,
                    FaultProfile {
                        probe_timeout_pm: 150,
                        ..FaultProfile::off()
                    },
                );
                Box::new(ChaosEngine::new(Engine::new(&world.topo), plan))
            } else {
                Box::new(Engine::new(&world.topo))
            };
            let engine = engine.as_ref();
            let campaign = |epoch: u64, ases| world.campaign(engine, epoch * 7_200_000, ases);
            let boot = vec![campaign(0, 0..12), campaign(1, 0..12)];
            let new_targets = campaign(2, 12..18);
            let held: Vec<Trace> = boot.iter().flatten().chain(&new_targets).cloned().collect();
            let steps = [
                // Every trace repeats a held path: nothing moves.
                Step::Campaign(boot[0].clone()),
                Step::Campaign(campaign(3, 0..12)),
                // New addresses re-resolve aliases.
                Step::Campaign(new_targets),
                // A re-alias that moves held addresses re-extracts all.
                Step::Campaign(vec![flipping_trace(&world, &held)]),
                Step::Flip(stale.clone()),
                Step::Campaign(campaign(4, 0..18)),
            ];
            let label = format!("faults={faults}");
            let run = corpus_against_naive_walk(
                &world,
                engine,
                &service_config(2),
                &boot,
                &steps,
                &label,
            );
            let counters = &run.states.last().unwrap().counters;
            assert!(
                counters.get("serve.extract_rebuild") >= Some(&1),
                "{label}: no re-extraction"
            );
            assert!(run.kept >= 1, "{label}: no campaign kept the report");
        }
    }

    #[test]
    fn distinct_path_corpus_equals_a_walk_over_every_trace_at_default_scale() {
        let world = World::at(TopologyConfig::default(), &VpConfig::default());
        let engine = Engine::new(&world.topo);
        let campaign = |epoch: u64, ases| world.campaign(&engine, epoch * 7_200_000, ases);
        let boot = vec![campaign(0, 0..8)];
        let steps = [
            Step::Campaign(boot[0].clone()),
            Step::Campaign(campaign(1, 0..8)),
            Step::Campaign(campaign(2, 0..12)),
        ];
        let run = corpus_against_naive_walk(
            &world,
            &engine,
            &service_config(2),
            &boot,
            &steps,
            "default",
        );
        assert!(run.kept >= 1, "no campaign kept the report");
    }

    #[test]
    fn distinct_path_corpus_equals_a_walk_over_every_trace_under_follow_ups() {
        let world = World::new();
        let engine = Engine::new(&world.topo);
        let cfg = CfsConfig {
            followup_interfaces: 24,
            threads: 2,
            ..CfsConfig::default()
        };
        let boot = [world.campaign(&engine, 0, 0..12)];
        // With no steps, `paths < traces` needs a follow-up probe that
        // repeats an external path.
        corpus_against_naive_walk(&world, &engine, &cfg, &boot, &[], "follow-ups");
    }

    /// What a batch run planned in every follow-up round, what its full
    /// passes settled, and what it reported.
    struct Planned {
        rounds: Vec<(Vec<(VantagePointId, Ipv4Addr)>, u64)>,
        deps: BTreeMap<DepKey, BTreeSet<Ipv4Addr>>,
        remote_cache: BTreeMap<Ipv4Addr, (IxpId, Option<bool>)>,
        counters: BTreeMap<&'static str, u64>,
        report: String,
    }

    /// A follow-up-driven run: `boot` and every vantage point's
    /// looking-glass sessions ingested, follow-ups restricted to
    /// `platforms` (all when empty), the circuits of every other
    /// vantage point opened before the first round, then converged.
    /// Returns what the session planned and settled; with `naive`, the
    /// scanning planner and full passes that re-settle every
    /// observation.
    fn planned_run(
        world: &World,
        engine: &dyn ProbeService,
        cfg: &CfsConfig,
        platforms: &[Platform],
        boot: &[Trace],
        naive: bool,
    ) -> Planned {
        let rec = Arc::new(TraceRecorder::deterministic());
        let mut builder = Cfs::builder(engine, &world.kb)
            .vps(&world.vps)
            .ipasn(&world.ipasn)
            .config(cfg.clone())
            .recorder(rec.clone());
        if !platforms.is_empty() {
            builder = builder.platforms(platforms);
        }
        let mut session = builder.build_session().unwrap();
        session.cfs.naive = naive;
        session.ingest(boot.to_vec());
        let lg = cfs_bgp::LookingGlassBgp::new(&world.topo);
        for id in world.vps.of_platform(Platform::LookingGlass) {
            let vp = &world.vps.vps[*id];
            session.ingest_bgp_sessions(vp.asn, &lg.sessions(vp.router));
        }
        for (id, vp) in world.vps.vps.iter() {
            if !platforms.is_empty() && !platforms.contains(&vp.platform) {
                for _ in 0..crate::engine::BREAKER_THRESHOLD {
                    session.cfs.breaker.record(u64::from(id.raw()), false, 0);
                }
            }
        }
        session.converge();
        assert_eq!(session.cfs.watermark_breaches(), Vec::<Ipv4Addr>::new());
        Planned {
            rounds: std::mem::take(&mut session.cfs.rounds),
            deps: session.cfs.deps.clone(),
            remote_cache: session.cfs.remote_cache.clone(),
            counters: rec.snapshot().counters,
            report: serde_json::to_string(session.report().unwrap()).unwrap(),
        }
    }

    /// Runs the scenario with the indexed planner and the watermark, and
    /// with the scanning planner and naive passes; requires the same
    /// requests and skipped vantage points in every round, and the same
    /// `deps`, `remote_cache`, counters and report. Returns the indexed
    /// run.
    fn planner_against_naive(
        world: &World,
        engine: &dyn ProbeService,
        cfg: &CfsConfig,
        platforms: &[Platform],
        boot: &[Trace],
        label: &str,
    ) -> Planned {
        let a = planned_run(world, engine, cfg, platforms, boot, true);
        let b = planned_run(world, engine, cfg, platforms, boot, false);
        assert_eq!(a.rounds.len(), b.rounds.len(), "{label}: round count");
        for (round, (a, b)) in a.rounds.iter().zip(&b.rounds).enumerate() {
            assert_eq!(a, b, "{label}: round {round} planned differently");
        }
        assert!(a.deps == b.deps, "{label}: deps differ");
        assert!(
            a.remote_cache == b.remote_cache,
            "{label}: remote verdicts differ"
        );
        assert_eq!(a.counters, b.counters, "{label}: counters differ");
        assert!(a.report == b.report, "{label}: reports differ");
        b
    }

    #[test]
    fn indexed_planner_and_watermark_equal_the_naive_batch() {
        let world = World::new();
        let cfg = CfsConfig {
            threads: 2,
            ..CfsConfig::default()
        };
        let clean = Engine::new(&world.topo);
        let boot = world.campaign(&clean, 0, 0..12);
        let run = planner_against_naive(&world, &clean, &cfg, &[], &boot, "clean");
        assert!(run.rounds.len() > 3, "too few follow-up rounds");

        // Reverse search adds requests the same run without it lacks.
        let forward = CfsConfig {
            reverse_search: false,
            ..cfg.clone()
        };
        let without = planned_run(&world, &clean, &forward, &[], &boot, false);
        assert_ne!(run.rounds, without.rounds, "reverse search planned nothing");

        // Outages open circuits; one platform plans, and the circuits of
        // the others are open, which the scanning planner never counts.
        let plan = FaultPlan::new(5, FaultProfile::blackout());
        let chaos = ChaosEngine::new(Engine::new(&world.topo), plan);
        let boot = world.campaign(&chaos, 0, 0..12);
        let only = [Platform::RipeAtlas];
        let run = planner_against_naive(&world, &chaos, &cfg, &only, &boot, "chaos");
        let skipped: u64 = run.rounds.iter().map(|(_, s)| s).sum();
        assert!(skipped > 0, "no circuit opened");
    }

    #[test]
    fn indexed_planner_and_watermark_equal_the_naive_batch_at_default_scale() {
        let world = World::at(TopologyConfig::default(), &VpConfig::default());
        let engine = Engine::new(&world.topo);
        let cfg = CfsConfig {
            threads: 2,
            ..CfsConfig::default()
        };
        let boot = world.campaign(&engine, 0, 0..8);
        let run = planner_against_naive(&world, &engine, &cfg, &[], &boot, "default");
        assert!(run.rounds.len() > 3, "too few follow-up rounds");
    }

    #[test]
    fn every_mutation_site_resets_the_constraint_watermark() {
        let world = World::new();
        let engine = Engine::new(&world.topo);
        let mut session = world.session(&engine, service_config(2));
        session.ingest(world.campaign(&engine, 0, 0..12));
        session.converge();
        let full_pass = |cfs: &mut Cfs<'_>| {
            cfs.apply_constraints_scoped(1, None);
            assert_eq!(
                cfs.settled,
                (cfs.observations.len(), cfs.session_observations.len())
            );
            assert_eq!(cfs.watermark_breaches(), Vec::<Ipv4Addr>::new());
        };
        // What a watermark left standing over the current lists would
        // miss.
        let stale = |cfs: &mut Cfs<'_>| {
            let kept = cfs.settled;
            cfs.settled = (cfs.observations.len(), cfs.session_observations.len());
            let missed = cfs.watermark_breaches().len();
            cfs.settled = kept;
            missed
        };
        full_pass(&mut session.cfs);

        // Appending keeps the settled prefix settled.
        let cfs = &mut session.cfs;
        cfs.ingest(&world.campaign(&engine, 7_200_000, 12..18));
        cfs.process_new_traces();
        assert!(cfs.settled.0 > 0 && cfs.settled.0 < cfs.observations.len());
        assert_eq!(cfs.watermark_breaches(), Vec::<Ipv4Addr>::new());
        full_pass(cfs);

        cfs.reset_observations();
        assert_eq!(cfs.watermark_breaches(), Vec::<Ipv4Addr>::new());
        cfs.process_new_traces();
        full_pass(cfs);

        cfs.rebuild_observations();
        assert_eq!(cfs.watermark_breaches(), Vec::<Ipv4Addr>::new());
        cfs.process_new_traces();
        full_pass(cfs);

        // A flip to an epoch missing half the facilities empties some
        // owner-exchange overlaps: remote tests the old epoch never ran.
        let mut thin = world.kb.clone();
        let half = world.topo.facilities.ids().step_by(2).collect();
        thin.remove_facilities(&half);
        assert!(world.kb.same_classification_view(&thin));
        session.absorb_kb_flip(Arc::new(thin));
        let cfs = &mut session.cfs;
        assert!(
            stale(cfs) > 0,
            "the flip left every settled observation settled"
        );
        assert_eq!(cfs.watermark_breaches(), Vec::<Ipv4Addr>::new());
        full_pass(cfs);

        let tested: BTreeSet<Ipv4Addr> = cfs.remote_cache.keys().copied().collect();
        cfs.forget_remote_verdicts(&tested);
        assert!(stale(cfs) > 0, "no forgotten verdict was needed");
        assert_eq!(cfs.watermark_breaches(), Vec::<Ipv4Addr>::new());
        full_pass(cfs);
    }

    #[test]
    fn prefix_provenance_flip_re_extracts_the_held_evidence() {
        let world = World::new();
        let engine = Engine::new(&world.topo);
        let boot = world.campaign(&engine, 0, 0..12);
        let mut session = world.session(&engine, service_config(1));
        session.ingest(boot.clone());
        session.converge();

        // The consortium list disputes a crossed peering LAN, naming an
        // unrelated prefix for the exchange instead: the confirmed space
        // stays, its agreement drops.
        let kb2 = session
            .cfs
            .observations
            .iter()
            .find_map(|obs| {
                let (ixp, fabric) = obs.class.ixp().zip(obs.far_ip)?;
                let mut sources = world.sources.clone();
                let elsewhere = cfs_net::Ipv4Prefix::must([198, 18, 0, 0], 24);
                match sources.consortium_list.iter_mut().find(|(x, _)| *x == ixp) {
                    Some((_, prefixes)) => {
                        prefixes.retain(|p| !p.contains(fabric));
                        prefixes.push(elsewhere);
                    }
                    None => sources.consortium_list.push((ixp, vec![elsewhere])),
                }
                let kb2 = KnowledgeBase::assemble(&sources, &world.topo.world);
                let disputed = kb2.ixp_of_ip(fabric) == Some(ixp)
                    && kb2.prefix_agreement_pm(ixp, fabric)
                        < world.kb.prefix_agreement_pm(ixp, fabric);
                disputed.then(|| Arc::new(kb2))
            })
            .expect("some crossed peering LAN can be disputed");
        let held = session.cfs.observations.clone();
        session
            .apply_delta(Delta::KbEpochFlip(kb2.clone()))
            .unwrap();

        let mut fresh = Cfs::builder(&engine, &kb2)
            .vps(&world.vps)
            .ipasn(&world.ipasn)
            .config(service_config(1))
            .build_session()
            .unwrap();
        fresh.ingest(boot);
        fresh.converge();
        assert!(session.cfs.observations != held, "no held evidence moved");
        assert!(session.cfs.observations == fresh.cfs.observations);
        assert!(session.cfs.session_observations == fresh.cfs.session_observations);
        assert_eq!(
            serde_json::to_string(session.report().unwrap()).unwrap(),
            serde_json::to_string(fresh.report().unwrap()).unwrap()
        );
    }
}
