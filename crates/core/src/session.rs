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
//! per-interface fingerprints taken before and after. **Report
//! refresh:** a campaign that appended no observation, re-resolved no
//! alias and left the re-convergence scope empty moved nothing the
//! report reads, so the cached report is kept as it is; any other delta
//! re-renders in place only the report rows it moved
//! ([`Cfs::refresh_report`], DESIGN.md §10).
//!
//! Follow-up-driven configurations (`followup_interfaces > 0`) have no
//! such fixed point: targeted probing reacts to global state, so a
//! scoped pass cannot reproduce convergence. Those are the paper's
//! batch runs (§4.3, Step 4); their sessions converge and answer
//! queries, and [`CfsSession::apply_delta`] refuses them.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

use cfs_chaos::splitmix64;
use cfs_kb::KnowledgeBase;
use cfs_obs::{Recorder, TraceRecorder};
use cfs_traceroute::Trace;
use cfs_types::{Asn, Error, FacilityId, IxpId, MetroId, Result, VantagePointId};

use crate::engine::{Cfs, DepKey, KbHandle, Rendered, Touched};
use crate::remote::RemoteTester;
use crate::report::CfsReport;
use crate::state::SearchOutcome;
use crate::telemetry::render_trace_json;

/// Folded into an interface's fingerprint ahead of its alias-set members,
/// keeping alias membership apart from observation lines.
const ALIAS_MARK: u64 = 0xa11a_5e75_0000_0001;

/// What absorbing one delta changed.
pub(crate) struct Frontier {
    /// Interfaces whose constraint inputs changed.
    pub(crate) dirty: BTreeSet<Ipv4Addr>,
    /// Whether the frontier's cached remote verdicts may be stale.
    purge_remote: bool,
    /// Whether anything else the report reads may have changed: the
    /// observation list, the alias sets, the KB epoch. A campaign that
    /// moved none of these, with an empty frontier, keeps the report.
    moved: bool,
    /// The report rows it moved beyond the re-converged states and the
    /// appended observations.
    touched: Touched,
}

/// An incremental input change a resident session can absorb without
/// recomputing the world.
#[derive(Clone)]
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
    /// Interfaces whose constraint inputs changed. Like `reconverged`,
    /// counted over the addresses that hold an interface state after
    /// re-convergence, so neither exceeds `total`.
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
    pub(crate) cfs: Cfs<'a>,
    report: Option<Rendered>,
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

    /// The knowledge-base epoch the session reads: the one it was built
    /// on, or the last one a [`Delta::KbEpochFlip`] installed.
    pub fn kb(&self) -> &KnowledgeBase {
        self.cfs.kb()
    }

    /// The cached report, when the session has converged.
    pub fn report(&self) -> Option<&CfsReport> {
        self.report.as_ref().map(|r| &r.report)
    }

    /// Runs the search to convergence (first call) and returns the
    /// cached report (every call).
    pub fn converge(&mut self) -> &CfsReport {
        if self.report.is_none() {
            cfs_obs::span!(self.cfs.recorder, "cfs.run");
            self.cfs.run_to_convergence();
            self.report = Some(self.cfs.render());
            self.epoch = 1;
        }
        self.report().expect("report cached above")
    }

    /// Converges if needed and surrenders the report.
    pub fn into_report(mut self) -> CfsReport {
        self.converge();
        self.report.expect("converge caches the report").report
    }

    /// Single-interface lookup against the cached report. Interfaces the
    /// search never tracked come back as [`SearchOutcome::MissingData`]
    /// with zero confidence; call [`CfsSession::converge`] first.
    pub fn query(&self, ip: Ipv4Addr) -> QueryAnswer {
        let Some(iface) = self.report().and_then(|r| r.interfaces.get(&ip)) else {
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
    /// frontier, refreshes the report rows the delta moved (or keeps the
    /// report, when a campaign moved nothing it reads), and bumps the
    /// epoch.
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
    pub(crate) fn absorb(&mut self, delta: Delta) -> Frontier {
        match delta {
            Delta::TracerouteBatch(traces) => self.absorb_traces(traces),
            Delta::KbEpochFlip(kb) => self.absorb_kb_flip(kb),
            Delta::VpStatusChange { vp, up } => Frontier {
                dirty: self.absorb_vp_status(vp, up),
                purge_remote: false,
                moved: true,
                touched: Touched::default(),
            },
        }
    }

    /// Re-converges a frontier, refreshes the cached report, and bumps
    /// the epoch.
    pub(crate) fn reconverge(&mut self, frontier: Frontier) -> DeltaOutcome {
        let Frontier {
            dirty,
            purge_remote,
            moved,
            touched,
        } = frontier;
        let scope = self.alias_closure(&dirty);
        self.epoch += 1;
        // Nothing the report reads changed when no observation, alias set
        // or interface state moved: the cached report is kept.
        if moved || !scope.is_empty() {
            if purge_remote {
                // Dirty observation neighborhoods can change which
                // exchange first triggers an interface's remote test;
                // drop the cached verdicts so the kernel re-derives them
                // exactly as a fresh batch run would. Clean interfaces
                // keep theirs: their trigger sequence is an unchanged
                // prefix-preserving subsequence, so the cached verdict is
                // already the batch answer.
                for ip in &scope {
                    self.cfs.remote_cache.remove(ip);
                }
            }
            self.cfs.kernel_converge(&scope);
            self.cfs.synthesize_iterations();
            let rendered = self.report.as_mut().expect("a delta follows convergence");
            self.cfs.refresh_report(rendered, &scope, &touched);
        }
        // Counted over the addresses that hold an interface state now:
        // an address that yields no state is no interface of the report.
        let held = |set: &BTreeSet<Ipv4Addr>| {
            set.iter()
                .filter(|ip| self.cfs.states.get(ip).is_some())
                .count()
        };
        let outcome = DeltaOutcome {
            epoch: self.epoch,
            dirty: held(&dirty),
            reconverged: held(&scope),
            total: self.cfs.states.len(),
        };
        let recorder = &self.cfs.recorder;
        recorder.counter("serve.dirty_ifaces", outcome.dirty as u64);
        recorder.counter("serve.reconverged", outcome.reconverged as u64);
        outcome
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
    pub(crate) fn fingerprints(&self) -> BTreeMap<Ipv4Addr, u64> {
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
    pub(crate) fn fingerprint_diff(
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

    /// Absorbs a campaign. Only re-extraction and changed alias sets
    /// touch every report row.
    fn absorb_traces(&mut self, traces: Vec<Trace>) -> Frontier {
        let held = self.cfs.observations.len();
        let mut fresh = {
            cfs_obs::span!(self.cfs.recorder, "serve.absorb");
            self.cfs.ingest(&traces)
        };
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
            return Frontier {
                dirty,
                purge_remote: true,
                moved: !appended.is_empty(),
                touched: Touched::default(),
            };
        }
        // Rule 2: new addresses re-resolve aliases globally (they can join
        // old sets); the whole corpus is re-extracted only if that moved
        // the corrected ASN of an address seen before the delta. The
        // fingerprint diff then narrows re-convergence to interfaces that
        // actually moved.
        let before = self.fingerprints();
        let sets = self.cfs.aliases.sets.clone();
        fresh.sort_unstable();
        let moved = self.cfs.realias();
        let rebuild = moved.iter().any(|ip| fresh.binary_search(ip).is_err());
        if rebuild {
            self.cfs.recorder.counter("serve.extract_rebuild", 1);
            self.cfs.reset_observations();
        }
        self.cfs.process_new_traces();
        let after = self.fingerprints();
        Frontier {
            dirty: Self::fingerprint_diff(&before, &after),
            purge_remote: true,
            moved: true,
            touched: Touched {
                all: rebuild || self.cfs.aliases.sets != sets,
                kb: None,
            },
        }
    }

    /// Absorbs a KB epoch. A flip that changes the classification view,
    /// or the facility → metro table, touches every report row.
    fn absorb_kb_flip(&mut self, kb: Arc<KnowledgeBase>) -> Frontier {
        // When the new epoch classifies observations identically (same
        // confirmed LAN space, same fabric directory, same activity
        // filter), extraction is a fixed point: every trace and
        // looking-glass record would rebuild the exact observation list
        // already held, and the fingerprint diff would come back empty.
        // Skip the rebuild and let the footprint diff below find the
        // dirty frontier — this is what makes a facility-list flip cost
        // O(dirty), not O(world).
        let same_view = self.cfs.kb().same_classification_view(&kb);
        let moves = if same_view {
            self.cfs.kb().moved(&kb)
        } else {
            None
        };
        let before = if same_view {
            BTreeMap::new()
        } else {
            self.fingerprints()
        };
        // Every footprint may have moved: the planner's target pool is
        // rebuilt on the next chase.
        self.cfs.kb = KbHandle::Owned(kb);
        self.cfs.chase_targets = None;
        let mut dirty = BTreeSet::new();

        // Diff the footprints the constraint system has consumed against
        // the new epoch; a changed footprint dirties exactly the
        // interfaces the dependency index says consumed it, and the
        // kernel's pairs that read it are refreshed in place. Only the
        // keys of the ASes and exchanges the epochs' merge walk names can
        // have moved; without one (a moved metro table or classification
        // view), every consumed key is re-read.
        let held = &self.cfs.footprints;
        let keys: Vec<DepKey> = match &moves {
            Some(moves) => {
                let ases = moves.ases.iter().map(|a| DepKey::As(*a));
                let ixps = moves.ixps.iter();
                let ixps = ixps.flat_map(|x| [DepKey::Ixp(*x), DepKey::Metro(*x)]);
                ases.chain(ixps).filter(|k| held.contains_key(k)).collect()
            }
            None => held.keys().copied().collect(),
        };
        let mut moved = Vec::new();
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
                moved.push(key);
            }
        }
        self.cfs.refresh_pairs(&moved);
        let touched = Touched {
            all: moves.is_none(),
            kb: Some(moves.map(|m| m.ases).unwrap_or_default()),
        };
        let frontier = |dirty| Frontier {
            dirty,
            purge_remote: true,
            moved: true,
            touched,
        };
        if same_view {
            return frontier(dirty);
        }

        // Observation classification reads the KB (confirmed IXP space ⇒
        // public), so rebuild the observation list under the new epoch:
        // replay the looking-glass log, then re-extract every trace.
        // Alias resolution and ownership correction never read the KB, so
        // they stand.
        let cfs = &mut self.cfs;
        cfs.hop_table.reclassify(cfs.corpus.addrs(), cfs.kb.get());
        cfs.rebuild_observations();
        cfs.process_new_traces();

        let after = self.fingerprints();
        dirty.extend(Self::fingerprint_diff(&before, &after));
        frontier(dirty)
    }

    fn absorb_vp_status(&mut self, vp: VantagePointId, up: bool) -> BTreeSet<Ipv4Addr> {
        if up {
            self.cfs.vp_down.remove(&vp);
        } else {
            self.cfs.vp_down.insert(vp);
        }
        self.cfs.rankings.clear();
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
        let cfs = &mut self.cfs;
        let tester = RemoteTester::new(cfs.engine, cfs.vps)
            .recorded(&*cfs.recorder)
            .retrying(cfs.chaos_seed)
            .excluding(&cfs.vp_down);
        for (ip, ixp, old) in entries {
            cfs.rankings.rank(&tester, ixp);
            let verdict = cfs.rankings.is_remote(&tester, ixp, ip);
            if verdict != old {
                cfs.remote_cache.insert(ip, (ixp, verdict));
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
pub(crate) mod tests {
    use std::ops::Range;

    use super::*;
    use crate::engine::CfsConfig;
    use crate::observe::{extract_path, ExtractTally, Resolver};
    use crate::reference::tests::{builder_for, corpus_paths};
    use cfs_kb::{KbConfig, PublicSources};
    use cfs_net::IpAsnDb;
    use cfs_topology::{Topology, TopologyConfig};
    use cfs_traceroute::{
        deploy_vantage_points, run_campaign, CampaignLimits, Engine, ProbeService, VpConfig, VpSet,
    };

    /// A generated world with its public data, vantage points and
    /// IP-to-ASN service.
    pub(crate) struct World {
        pub(crate) topo: Topology,
        pub(crate) sources: PublicSources,
        pub(crate) kb: KnowledgeBase,
        pub(crate) vps: VpSet,
        pub(crate) ipasn: IpAsnDb,
    }

    impl World {
        pub(crate) fn new() -> Self {
            Self::at(TopologyConfig::tiny(), &VpConfig::tiny())
        }

        pub(crate) fn at(cfg: TopologyConfig, vps: &VpConfig) -> Self {
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
        pub(crate) fn campaign(
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
    }

    /// The configuration of a session that absorbs deltas.
    pub(crate) fn service_config(threads: usize) -> CfsConfig {
        CfsConfig {
            followup_interfaces: 0,
            threads,
            ..CfsConfig::default()
        }
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
        let (builder, _) = builder_for(&world, &engine, &world.kb, cfg);
        let mut session = builder.build_session().unwrap();
        session.ingest(world.campaign(&engine, 0, 0..12));
        session.converge();
        let held = corpus_paths(&session.cfs);
        for delta in [
            Delta::TracerouteBatch(world.campaign(&engine, 7_200_000, 12..18)),
            Delta::VpStatusChange {
                vp: world.vps.ids().next().unwrap(),
                up: false,
            },
        ] {
            assert!(session.apply_delta(delta).is_err());
            assert!(corpus_paths(&session.cfs) == held);
            assert!(session.cfs.vp_down.is_empty());
        }
    }

    /// A scoped pass empties the slot of every scoped state and refills
    /// those its compiled observations still name: a state none names
    /// stays gone, from the count, from a fresh report and from the
    /// refreshed one.
    #[test]
    fn a_state_a_scoped_pass_drops_is_absent_from_the_report() {
        let world = World::new();
        let engine = Engine::new(&world.topo);
        let (builder, _) = builder_for(&world, &engine, &world.kb, service_config(1));
        let mut session = builder.build_session().unwrap();
        session.ingest(world.campaign(&engine, 0, 0..12));
        session.converge();
        let cfs = &mut session.cfs;
        let before = serde_json::to_string(&cfs.build_report()).unwrap();
        let tracked = cfs.states.len();
        let stray: Ipv4Addr = "192.0.2.1".parse().unwrap();
        assert!(cfs.states.get(&stray).is_none(), "an observation names it");
        cfs.states.get_or_insert(stray, Asn(64_512));
        let mut rendered = cfs.render();
        assert!(rendered.report.interfaces.contains_key(&stray));
        let scope = BTreeSet::from([stray]);
        cfs.kernel_converge(&scope);
        assert!(cfs.states.get(&stray).is_none());
        assert_eq!(cfs.states.len(), tracked);
        let report = cfs.build_report();
        assert!(!report.interfaces.contains_key(&stray));
        assert!(serde_json::to_string(&report).unwrap() == before);
        cfs.refresh_report(&mut rendered, &scope, &Touched::default());
        assert!(serde_json::to_string(&rendered.report).unwrap() == before);
    }

    /// Campaign deltas mostly repeat held paths, which extraction counts
    /// through cached per-path tallies: the work telemetry must read as
    /// if every trace recorded itself, over the same ingests and resets.
    #[test]
    fn multiplicity_weighted_telemetry_equals_one_tally_per_trace() {
        let world = World::new();
        let engine = Engine::new(&world.topo);
        let (builder, rec) = builder_for(&world, &engine, &world.kb, service_config(2));
        let mut session = builder.build_session().unwrap();
        let cfs = &mut session.cfs;
        let campaign = |epoch: u64, ases| world.campaign(&engine, epoch * 7_200_000, ases);
        let boot = campaign(0, 0..12);
        // (ingests, re-alias and re-extract before the pass): repeats of
        // paths the pass extracts, repeats of extracted paths, new paths,
        // and repeats pending across a re-extraction.
        let schedule = [
            (vec![boot.clone(), boot.clone()], true),
            (vec![campaign(1, 0..12)], false),
            (vec![campaign(2, 6..18), boot], false),
            (vec![campaign(3, 0..18)], true),
        ];
        let expected = TraceRecorder::deterministic();
        let (mut held, mut from, mut keys) = (Vec::new(), 0, BTreeSet::new());
        for (ingests, reextract) in schedule {
            for traces in ingests {
                cfs.ingest(&traces);
                held.extend(traces);
            }
            if reextract {
                cfs.realias();
                cfs.reset_observations();
                (from, keys) = (0, BTreeSet::new());
            }
            cfs.process_new_traces();
            let resolver = Resolver::new(cfs.kb(), &cfs.corrected);
            let mut pass = ExtractTally::default();
            for t in &held[from..] {
                let hops: Vec<_> = t
                    .hops
                    .iter()
                    .map(|h| (h.ip, resolver.meaning(h.ip)))
                    .collect();
                let mut out = Vec::new();
                pass.add(extract_path(&hops, cfs.kb(), &mut out), 1);
                pass.observations_new += out.iter().filter(|o| keys.insert(o.key())).count() as u64;
            }
            pass.flush(&expected);
            from = held.len();
        }
        let (got, want) = (rec.snapshot(), expected.snapshot());
        let (mut counters, work) = (got.counters, ["extract.", "observe.", "ixp_hop."]);
        counters.retain(|k, _| work.iter().any(|p| k.starts_with(p)));
        assert_eq!(counters, want.counters);
        assert_eq!(
            got.histograms.get("observe.per_trace"),
            want.histograms.get("observe.per_trace")
        );
        assert!(cfs.corpus.len() < held.len(), "no repeated path");
    }
}
