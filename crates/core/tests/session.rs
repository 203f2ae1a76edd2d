//! Service-mode determinism: a resident session that converges and then
//! absorbs deltas must end in *exactly* the state a from-scratch batch
//! run over the merged inputs reaches — byte-identical report JSON and
//! identical canonical trace digests — at several worker counts, with
//! and without an active fault plan. This is the contract that lets
//! `cfsd` serve incremental answers without ever drifting from the
//! paper's batch semantics.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::ops::Range;
use std::sync::Arc;

use cfs_alias::{correct_ip_to_asn, resolve_aliases, IpIdProber};
use cfs_chaos::{FaultPlan, FaultProfile};
use cfs_core::{canonical_trace, Cfs, CfsConfig, CfsReport, Delta};
use cfs_kb::{degrade_sources, KbConfig, KnowledgeBase, PublicSources};
use cfs_net::Ipv4Prefix;
use cfs_obs::TraceRecorder;
use cfs_topology::{Topology, TopologyConfig};
use cfs_traceroute::{
    deploy_vantage_points, run_campaign, CampaignLimits, ChaosEngine, Engine, Hop, ProbeService,
    Trace, VpConfig, VpSet,
};
use cfs_types::{Asn, IxpId, VantagePointId};

struct World {
    topo: Topology,
    sources: PublicSources,
}

impl World {
    fn new() -> Self {
        let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
        let sources = PublicSources::derive(&topo, &KbConfig::default());
        Self { topo, sources }
    }

    fn engine(&self, faults: bool) -> Box<dyn ProbeService + '_> {
        if faults {
            Box::new(ChaosEngine::new(
                Engine::new(&self.topo),
                FaultPlan::new(
                    11,
                    FaultProfile {
                        probe_timeout_pm: 150,
                        ..FaultProfile::off()
                    },
                ),
            ))
        } else {
            Box::new(Engine::new(&self.topo))
        }
    }

    fn campaign(&self, engine: &dyn ProbeService, vps: &VpSet, at_ms: u64) -> Vec<Trace> {
        self.campaign_over(engine, vps, at_ms, 0..12)
    }

    /// A campaign towards the target addresses of the ASes at positions
    /// `ases` in ASN order.
    fn campaign_over(
        &self,
        engine: &dyn ProbeService,
        vps: &VpSet,
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
        let vp_ids: Vec<_> = vps.ids().collect();
        run_campaign(
            engine,
            vps,
            &vp_ids,
            &targets,
            at_ms,
            &CampaignLimits::default(),
        )
    }
}

/// Service sessions run follow-up-less (measurement-complete) configs.
fn service_config(threads: usize) -> CfsConfig {
    CfsConfig {
        followup_interfaces: 0,
        threads,
        ..CfsConfig::default()
    }
}

fn report_bytes(report: &CfsReport) -> String {
    serde_json::to_string(report).unwrap()
}

/// Builds a fresh batch session over the given inputs and converges it.
#[allow(clippy::too_many_arguments)]
fn fresh_report(
    engine: &dyn ProbeService,
    kb: &KnowledgeBase,
    vps: &VpSet,
    ipasn: &cfs_net::IpAsnDb,
    threads: usize,
    campaigns: &[Vec<Trace>],
    down: BTreeSet<VantagePointId>,
) -> CfsReport {
    let mut session = Cfs::builder(engine, kb)
        .vps(vps)
        .ipasn(ipasn)
        .config(service_config(threads))
        .vps_down(down)
        .build_session()
        .unwrap();
    for c in campaigns {
        session.ingest(c.clone());
    }
    session.into_report()
}

#[test]
fn traceroute_delta_replay_matches_fresh_batch() {
    let world = World::new();
    let vps = deploy_vantage_points(&world.topo, &VpConfig::tiny()).unwrap();
    let kb = KnowledgeBase::assemble(&world.sources, &world.topo.world);
    let ipasn = world.topo.build_ipasn_db();

    for faults in [false, true] {
        let engine = world.engine(faults);
        let batch_a = world.campaign(engine.as_ref(), &vps, 0);
        let batch_b = world.campaign(engine.as_ref(), &vps, 7_200_000);

        for threads in [1usize, 2, 8] {
            let full = fresh_report(
                engine.as_ref(),
                &kb,
                &vps,
                &ipasn,
                threads,
                &[batch_a.clone(), batch_b.clone()],
                BTreeSet::new(),
            );

            let mut session = Cfs::builder(engine.as_ref(), &kb)
                .vps(&vps)
                .ipasn(&ipasn)
                .config(service_config(threads))
                .build_session()
                .unwrap();
            session.ingest(batch_a.clone());
            session.converge();
            let outcome = session
                .apply_delta(Delta::TracerouteBatch(batch_b.clone()))
                .unwrap();
            assert_eq!(outcome.epoch, 2);
            let incremental = session.into_report();

            assert_eq!(
                report_bytes(&full),
                report_bytes(&incremental),
                "threads={threads} faults={faults}: replay diverged from batch"
            );
            assert_eq!(
                canonical_trace(&full),
                canonical_trace(&incremental),
                "threads={threads} faults={faults}: trace digests diverged"
            );
        }
    }
}

/// The three ways `absorb_traces` can take a campaign delta.
#[derive(Clone, Copy, Debug)]
enum AbsorbPath {
    /// No new hop address: alias resolution skipped, only the delta's
    /// traces extracted.
    SkipAliases,
    /// New hop addresses, no old corrected ASN moved: aliases
    /// re-resolved, only the delta's traces extracted.
    AppendOnly,
    /// An old address's corrected ASN moved: the whole corpus is
    /// re-extracted.
    Rebuild,
}

/// Hop addresses of a trace corpus.
fn hop_ips(traces: &[Trace]) -> BTreeSet<Ipv4Addr> {
    traces
        .iter()
        .flat_map(|t| t.hops.iter().filter_map(|h| h.ip))
        .collect()
}

/// Whether re-resolving aliases over `boot` plus `delta` moves the
/// corrected ASN of an address `boot` already holds — the condition under
/// which `absorb_traces` must re-extract the whole corpus.
fn moves_old_ip(world: &World, ipasn: &cfs_net::IpAsnDb, boot: &[Trace], delta: &[Trace]) -> bool {
    let cfg = CfsConfig::default().alias;
    let prober = IpIdProber::new(&world.topo);
    let corrected = |ips: &BTreeSet<Ipv4Addr>| {
        let ips: Vec<Ipv4Addr> = ips.iter().copied().collect();
        correct_ip_to_asn(ipasn, &resolve_aliases(&prober, &ips, &cfg, 1), &ips).0
    };
    let seen = hop_ips(boot);
    let (old, new) = (corrected(&seen), corrected(&(&seen | &hop_ips(delta))));
    seen.iter().any(|ip| old.get(ip) != new.get(ip))
}

/// A hand-built trace through the not-yet-seen interfaces of a router
/// `boot` already crossed: the first router, in topology order, whose new
/// interfaces move an old address's corrected ASN once aliases are
/// re-resolved.
fn flipping_trace(world: &World, ipasn: &cfs_net::IpAsnDb, boot: &[Trace]) -> Trace {
    let seen = hop_ips(boot);
    world
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
        .map(|unseen| Trace {
            vp: boot[0].vp,
            src_asn: boot[0].src_asn,
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
        })
        .find(|t| moves_old_ip(world, ipasn, boot, std::slice::from_ref(t)))
        .expect("some router's unseen interfaces move an old corrected ASN")
}

/// Applies `delta` to a session converged on `boot` and checks that (a)
/// the report and canonical trace equal a fresh batch over both, at
/// threads {1, 2, 8}, and (b) the recorder shows `path` actually ran:
/// alias-resolution spans, extracted-trace counts, and the
/// `serve.extract_rebuild` counter.
#[allow(clippy::too_many_arguments)]
fn check_campaign_delta(
    engine: &dyn ProbeService,
    kb: &KnowledgeBase,
    vps: &VpSet,
    ipasn: &cfs_net::IpAsnDb,
    boot: &[Trace],
    delta: &[Trace],
    path: AbsorbPath,
    label: &str,
) {
    for threads in [1usize, 2, 8] {
        let full = fresh_report(
            engine,
            kb,
            vps,
            ipasn,
            threads,
            &[boot.to_vec(), delta.to_vec()],
            BTreeSet::new(),
        );

        let recorder = Arc::new(TraceRecorder::deterministic());
        let mut session = Cfs::builder(engine, kb)
            .vps(vps)
            .ipasn(ipasn)
            .config(service_config(threads))
            .recorder(recorder.clone())
            .build_session()
            .unwrap();
        session.ingest(boot.to_vec());
        session.converge();
        let before = recorder.snapshot();
        session
            .apply_delta(Delta::TracerouteBatch(delta.to_vec()))
            .unwrap();
        let after = recorder.snapshot();
        let counter = |name: &str| {
            after.counters.get(name).copied().unwrap_or(0)
                - before.counters.get(name).copied().unwrap_or(0)
        };
        let spans = |name: &str| {
            after.spans.get(name).map_or(0, |s| s.count)
                - before.spans.get(name).map_or(0, |s| s.count)
        };
        let (realiased, extracted, rebuilt) = match path {
            AbsorbPath::SkipAliases => (0, delta.len(), 0),
            AbsorbPath::AppendOnly => (1, delta.len(), 0),
            AbsorbPath::Rebuild => (1, boot.len() + delta.len(), 1),
        };
        let ctx = format!("{label} threads={threads}");
        assert_eq!(
            spans("stage.alias_resolution"),
            realiased,
            "{ctx}: {path:?}"
        );
        assert_eq!(
            counter("extract.traces"),
            extracted as u64,
            "{ctx}: {path:?}"
        );
        assert_eq!(counter("serve.extract_rebuild"), rebuilt, "{ctx}: {path:?}");

        let incremental = session.into_report();
        assert_eq!(
            report_bytes(&full),
            report_bytes(&incremental),
            "{ctx}: {path:?} delta diverged from batch"
        );
        assert_eq!(
            canonical_trace(&full),
            canonical_trace(&incremental),
            "{ctx}: {path:?} trace digests diverged"
        );
    }
}

#[test]
fn campaign_deltas_take_every_absorb_path_and_match_fresh_batch() {
    let world = World::new();
    let vps = deploy_vantage_points(&world.topo, &VpConfig::tiny()).unwrap();
    let kb = KnowledgeBase::assemble(&world.sources, &world.topo.world);
    let ipasn = world.topo.build_ipasn_db();

    for faults in [false, true] {
        let engine = world.engine(faults);
        let boot = world.campaign(engine.as_ref(), &vps, 0);
        let label = format!("faults={faults}");

        // A repeated campaign adds no hop address.
        check_campaign_delta(
            engine.as_ref(),
            &kb,
            &vps,
            &ipasn,
            &boot,
            &boot,
            AbsorbPath::SkipAliases,
            &label,
        );

        // Six new target ASes add hop addresses without moving any old
        // one.
        let new_targets = world.campaign_over(engine.as_ref(), &vps, 7_200_000, 12..18);
        assert!(
            !hop_ips(&new_targets).is_subset(&hop_ips(&boot))
                && !moves_old_ip(&world, &ipasn, &boot, &new_targets),
            "{label}: the new-target campaign must add addresses, and move none"
        );
        check_campaign_delta(
            engine.as_ref(),
            &kb,
            &vps,
            &ipasn,
            &boot,
            &new_targets,
            AbsorbPath::AppendOnly,
            &label,
        );

        // New interfaces of a router the boot corpus crossed join its
        // alias set and move an old address's corrected ASN. Hand-built:
        // at this scale the generated campaigns that move one leave the
        // report unchanged even without the re-extraction, so only this
        // input shows the fallback is needed.
        let joins_old_set = vec![flipping_trace(&world, &ipasn, &boot)];
        check_campaign_delta(
            engine.as_ref(),
            &kb,
            &vps,
            &ipasn,
            &boot,
            &joins_old_set,
            AbsorbPath::Rebuild,
            &label,
        );
    }
}

#[test]
fn kb_flip_dirties_strict_subset_and_matches_fresh_batch() {
    let world = World::new();
    let vps = deploy_vantage_points(&world.topo, &VpConfig::tiny()).unwrap();
    let kb = KnowledgeBase::assemble(&world.sources, &world.topo.world);
    let ipasn = world.topo.build_ipasn_db();
    let engine = Engine::new(&world.topo);
    let batch = world.campaign(&engine, &vps, 0);

    // A 1-record epoch flip: an AS the search actually constrained loses
    // one listed facility. Pick it from the converged report's owners so
    // the delta provably intersects the constraint graph.
    let baseline = fresh_report(
        &engine,
        &kb,
        &vps,
        &ipasn,
        1,
        std::slice::from_ref(&batch),
        BTreeSet::new(),
    );
    let observed_owners: BTreeSet<_> = baseline
        .interfaces
        .values()
        .filter_map(|i| i.owner)
        .collect();
    // The assembled footprint is pdb ∪ NOC, so scrub the facility from
    // both sources and keep looking until the merged footprint really
    // shrinks.
    let (asn, removed, kb2) = observed_owners
        .iter()
        .find_map(|asn| {
            let rec = world.sources.pdb_networks.get(asn)?;
            if rec.facilities.len() < 2 {
                return None;
            }
            let victim = rec.facilities[0];
            let mut sources2 = world.sources.clone();
            let rec2 = sources2.pdb_networks.get_mut(asn).unwrap();
            rec2.facilities.retain(|f| *f != victim);
            if let Some(page) = sources2.noc_pages.get_mut(asn) {
                page.facilities.retain(|f| *f != victim);
            }
            let kb2 = KnowledgeBase::assemble(&sources2, &world.topo.world);
            (kb2.facilities_of_as(*asn) != kb.facilities_of_as(*asn))
                .then(|| (*asn, victim, Arc::new(kb2)))
        })
        .expect("some observed AS has a removable facility");
    // Footprints are not classification: the flip takes the same-view
    // path, which extracts nothing.
    assert!(kb.same_classification_view(&kb2));

    for threads in [1usize, 2, 8] {
        let full = fresh_report(
            &engine,
            &kb2,
            &vps,
            &ipasn,
            threads,
            std::slice::from_ref(&batch),
            BTreeSet::new(),
        );

        let recorder = Arc::new(TraceRecorder::deterministic());
        let mut session = Cfs::builder(&engine, &kb)
            .vps(&vps)
            .ipasn(&ipasn)
            .config(service_config(threads))
            .recorder(recorder.clone())
            .build_session()
            .unwrap();
        session.ingest(batch.clone());
        session.converge();
        let extracted = recorder.snapshot().counters["extract.traces"];
        let outcome = session
            .apply_delta(Delta::KbEpochFlip(kb2.clone()))
            .unwrap();
        assert_eq!(recorder.snapshot().counters["extract.traces"], extracted);

        // The acceptance assertion: a 1-record KB delta re-converges
        // strictly fewer interfaces than the session tracks, and the
        // serve.* counters say the same thing.
        assert!(
            outcome.dirty > 0,
            "flip of {asn:?}/{removed:?} dirtied nothing"
        );
        assert!(
            outcome.reconverged < outcome.total,
            "1-record delta swept the world: {} of {}",
            outcome.reconverged,
            outcome.total
        );
        let snap = recorder.snapshot();
        assert_eq!(
            snap.counters.get("serve.dirty_ifaces").copied(),
            Some(outcome.dirty as u64)
        );
        assert_eq!(
            snap.counters.get("serve.reconverged").copied(),
            Some(outcome.reconverged as u64)
        );
        assert!(
            snap.counters["serve.reconverged"] < full.total() as u64,
            "counter claims a full sweep"
        );

        let incremental = session.into_report();
        assert_eq!(
            report_bytes(&full),
            report_bytes(&incremental),
            "threads={threads}: KB flip diverged from fresh batch under the new epoch"
        );
        assert_eq!(canonical_trace(&full), canonical_trace(&incremental));
    }
}

/// The kernel holds each (owner, exchange or peer) pair's footprints
/// across deltas, so a KB flip must refresh, in place, the pairs that
/// read a footprint it moves. The flip takes a facility out of the
/// footprint of an AS whose interface held it as a candidate (a pair the
/// kernel already holds moves), and a campaign that applies held pairs
/// again follows; after each step the session must equal a fresh one on
/// the same inputs.
#[test]
fn kb_flip_refreshes_held_pairs_before_a_campaign() {
    let world = World::new();
    let vps = deploy_vantage_points(&world.topo, &VpConfig::tiny()).unwrap();
    let kb = KnowledgeBase::assemble(&world.sources, &world.topo.world);
    let ipasn = world.topo.build_ipasn_db();
    let engine = Engine::new(&world.topo);
    let boot = world.campaign(&engine, &vps, 0);
    let later = world.campaign_over(&engine, &vps, 7_200_000, 0..18);
    let fresh = |kb: &KnowledgeBase, threads, campaigns: &[Vec<Trace>]| {
        fresh_report(
            &engine,
            kb,
            &vps,
            &ipasn,
            threads,
            campaigns,
            BTreeSet::new(),
        )
    };
    let baseline = fresh(&kb, 1, std::slice::from_ref(&boot));
    let kb2 = baseline
        .interfaces
        .values()
        .filter(|iface| iface.candidates.len() > 1)
        .find_map(|iface| {
            let (asn, victim) = (iface.owner?, *iface.candidates.first()?);
            let mut sources = world.sources.clone();
            if let Some(rec) = sources.pdb_networks.get_mut(&asn) {
                rec.facilities.retain(|f| *f != victim);
            }
            if let Some(page) = sources.noc_pages.get_mut(&asn) {
                page.facilities.retain(|f| *f != victim);
            }
            let kb2 = KnowledgeBase::assemble(&sources, &world.topo.world);
            let moved = !kb2.facilities_of_as(asn).contains(&victim);
            (moved && kb.same_classification_view(&kb2)).then(|| Arc::new(kb2))
        })
        .expect("some owner's candidate facility can be withdrawn");

    for threads in [1usize, 2] {
        let mut session = Cfs::builder(&engine, &kb)
            .vps(&vps)
            .ipasn(&ipasn)
            .config(service_config(threads))
            .build_session()
            .unwrap();
        session.ingest(boot.clone());
        session.converge();
        let steps = [
            (Delta::KbEpochFlip(kb2.clone()), vec![boot.clone()]),
            (
                Delta::TracerouteBatch(later.clone()),
                vec![boot.clone(), later.clone()],
            ),
        ];
        for (step, (delta, campaigns)) in steps.into_iter().enumerate() {
            session.apply_delta(delta).unwrap();
            let (got, want) = (session.report().unwrap(), fresh(&kb2, threads, &campaigns));
            assert_eq!(
                report_bytes(got),
                report_bytes(&want),
                "threads={threads}, step {step}: differs from a fresh session"
            );
            assert_eq!(canonical_trace(got), canonical_trace(&want));
        }
    }
}

/// The locality behind the delta path's cost: on a default-scale world,
/// withdrawing one listed facility of the AS that owns the fewest
/// interfaces (a peripheral record changing, not a backbone
/// redeploying) leaves at most 1% of the tracked interfaces dirty.
#[test]
fn peripheral_kb_flip_dirties_at_most_one_percent() {
    let topo = Topology::generate(TopologyConfig::default()).unwrap();
    let sources = PublicSources::derive(&topo, &KbConfig::default());
    let world = World { topo, sources };
    let vps = deploy_vantage_points(&world.topo, &VpConfig::tiny()).unwrap();
    let kb = KnowledgeBase::assemble(&world.sources, &world.topo.world);
    let ipasn = world.topo.build_ipasn_db();
    let engine = Engine::new(&world.topo);
    let mut session = Cfs::builder(&engine, &kb)
        .vps(&vps)
        .ipasn(&ipasn)
        .config(service_config(1))
        .build_session()
        .unwrap();
    session.ingest(world.campaign_over(&engine, &vps, 0, 0..24));
    session.converge();

    let mut owned: BTreeMap<Asn, usize> = BTreeMap::new();
    for owner in session.report().unwrap().interfaces.values() {
        if let Some(asn) = owner.owner {
            *owned.entry(asn).or_default() += 1;
        }
    }
    let mut owners: Vec<(Asn, usize)> = owned.into_iter().collect();
    owners.sort_by_key(|&(asn, n)| (n, asn));
    let (asn, victim) = owners
        .iter()
        .find_map(|(asn, _)| {
            let rec = world.sources.pdb_networks.get(asn)?;
            (rec.facilities.len() >= 2).then(|| (*asn, rec.facilities[0]))
        })
        .expect("some observed AS lists two facilities");
    // The assembled footprint is pdb ∪ NOC: scrub both.
    let mut sources = world.sources.clone();
    if let Some(rec) = sources.pdb_networks.get_mut(&asn) {
        rec.facilities.retain(|f| *f != victim);
    }
    if let Some(page) = sources.noc_pages.get_mut(&asn) {
        page.facilities.retain(|f| *f != victim);
    }
    let flipped = KnowledgeBase::assemble(&sources, &world.topo.world);
    let outcome = session
        .apply_delta(Delta::KbEpochFlip(Arc::new(flipped)))
        .unwrap();
    assert!(
        outcome.dirty > 0 && outcome.dirty * 100 <= outcome.total,
        "flip of {asn:?}/{victim:?} dirtied {} of {} interfaces",
        outcome.dirty,
        outcome.total
    );
}

/// `sources` with the consortium list disputing the peering LAN of `ixp`
/// that covers `fabric`: it names an unrelated prefix for the exchange
/// instead, a lone claim that confirms nothing.
fn dispute_lan(sources: &PublicSources, ixp: IxpId, fabric: Ipv4Addr) -> PublicSources {
    let mut out = sources.clone();
    let elsewhere = Ipv4Prefix::must([198, 18, 0, 0], 24);
    match out.consortium_list.iter_mut().find(|(x, _)| *x == ixp) {
        Some((_, prefixes)) => {
            prefixes.retain(|p| !p.contains(fabric));
            prefixes.push(elsewhere);
        }
        None => out.consortium_list.push((ixp, vec![elsewhere])),
    }
    out
}

#[test]
fn prefix_provenance_flip_matches_fresh_batch() {
    let world = World::new();
    let vps = deploy_vantage_points(&world.topo, &VpConfig::tiny()).unwrap();
    let kb = KnowledgeBase::assemble(&world.sources, &world.topo.world);
    let ipasn = world.topo.build_ipasn_db();
    let engine = Engine::new(&world.topo);
    let batch = world.campaign(&engine, &vps, 0);
    let fresh = |kb: &KnowledgeBase, threads| {
        fresh_report(
            &engine,
            kb,
            &vps,
            &ipasn,
            threads,
            std::slice::from_ref(&batch),
            BTreeSet::new(),
        )
    };
    let baseline = fresh(&kb, 1);

    // One fabric address per crossed exchange, busiest exchange first.
    let mut crossed: BTreeMap<IxpId, (usize, Ipv4Addr)> = BTreeMap::new();
    for link in &baseline.links {
        if let (Some(ixp), Some(fabric)) = (link.ixp, link.far_ip) {
            crossed.entry(ixp).or_insert((0, fabric)).0 += 1;
        }
    }
    let mut crossed: Vec<(usize, IxpId, Ipv4Addr)> = crossed
        .into_iter()
        .map(|(ixp, (n, fabric))| (n, ixp, fabric))
        .collect();
    crossed.sort_unstable_by(|a, b| b.cmp(a));

    // Same confirmed peering-LAN space, lower agreement on one prefix,
    // and a fresh batch that reads the difference.
    let kb2 = crossed
        .iter()
        .find_map(|(_, ixp, fabric)| {
            let sources = dispute_lan(&world.sources, *ixp, *fabric);
            let kb2 = KnowledgeBase::assemble(&sources, &world.topo.world);
            let still_confirmed = kb2.ixp_of_ip(*fabric) == Some(*ixp);
            let disputed =
                kb2.prefix_agreement_pm(*ixp, *fabric) < kb.prefix_agreement_pm(*ixp, *fabric);
            let bites = report_bytes(&fresh(&kb2, 1)) != report_bytes(&baseline);
            (still_confirmed && disputed && bites).then(|| Arc::new(kb2))
        })
        .expect("disputing some crossed peering LAN moves a verdict");
    assert!(!kb.same_classification_view(&kb2));

    for threads in [1usize, 2, 8] {
        let full = fresh(&kb2, threads);
        let recorder = Arc::new(TraceRecorder::deterministic());
        let mut session = Cfs::builder(&engine, &kb)
            .vps(&vps)
            .ipasn(&ipasn)
            .config(service_config(threads))
            .recorder(recorder.clone())
            .build_session()
            .unwrap();
        session.ingest(batch.clone());
        session.converge();
        let extracted = recorder.snapshot().counters["extract.traces"];
        session
            .apply_delta(Delta::KbEpochFlip(kb2.clone()))
            .unwrap();
        assert!(
            recorder.snapshot().counters["extract.traces"] > extracted,
            "threads={threads}: the flip kept the held evidence"
        );
        let incremental = session.into_report();
        assert_eq!(
            report_bytes(&full),
            report_bytes(&incremental),
            "threads={threads}: prefix-provenance flip diverged from fresh batch"
        );
        assert_eq!(canonical_trace(&full), canonical_trace(&incremental));
    }
}

#[test]
fn vp_status_delta_matches_fresh_batch_with_pool_exclusion() {
    let world = World::new();
    let vps = deploy_vantage_points(&world.topo, &VpConfig::tiny()).unwrap();
    let kb = KnowledgeBase::assemble(&world.sources, &world.topo.world);
    let ipasn = world.topo.build_ipasn_db();
    let engine = Engine::new(&world.topo);
    let batch = world.campaign(&engine, &vps, 0);
    let victim = vps.ids().next().unwrap();

    for threads in [1usize, 2, 8] {
        let full = fresh_report(
            &engine,
            &kb,
            &vps,
            &ipasn,
            threads,
            std::slice::from_ref(&batch),
            BTreeSet::from([victim]),
        );

        let mut session = Cfs::builder(&engine, &kb)
            .vps(&vps)
            .ipasn(&ipasn)
            .config(service_config(threads))
            .build_session()
            .unwrap();
        session.ingest(batch.clone());
        session.converge();
        session
            .apply_delta(Delta::VpStatusChange {
                vp: victim,
                up: false,
            })
            .unwrap();
        let incremental = session.into_report();

        assert_eq!(
            report_bytes(&full),
            report_bytes(&incremental),
            "threads={threads}: VP-down delta diverged from a fresh run excluding it"
        );
        assert_eq!(canonical_trace(&full), canonical_trace(&incremental));
    }
}

/// A session converged on `boot` and fed `deltas` in order, its recorder
/// alongside.
#[allow(clippy::too_many_arguments)]
fn session_after(
    engine: &dyn ProbeService,
    kb: &KnowledgeBase,
    vps: &VpSet,
    ipasn: &cfs_net::IpAsnDb,
    threads: usize,
    boot: &[Trace],
    deltas: Vec<Delta>,
) -> (CfsReport, Arc<TraceRecorder>) {
    let recorder = Arc::new(TraceRecorder::deterministic());
    let mut session = Cfs::builder(engine, kb)
        .vps(vps)
        .ipasn(ipasn)
        .config(service_config(threads))
        .recorder(recorder.clone())
        .build_session()
        .unwrap();
    session.ingest(boot.to_vec());
    session.converge();
    for delta in deltas {
        session.apply_delta(delta).unwrap();
    }
    (session.into_report(), recorder)
}

/// The no-reset Rule-2 path: a campaign adds hop addresses and moves
/// only those, so the held observations stand and only the new paths are
/// extracted. Their hops must be read under the re-aliased view: the
/// per-address hop table is filled when the corpus first interns an
/// address (before aliases are re-resolved), so `realias` must refresh
/// every address it moves, fresh ones included.
#[test]
fn rule_two_campaign_reads_fresh_addresses_under_the_new_view() {
    let world = World::new();
    let vps = deploy_vantage_points(&world.topo, &VpConfig::tiny()).unwrap();
    let kb = KnowledgeBase::assemble(&world.sources, &world.topo.world);
    let ipasn = world.topo.build_ipasn_db();
    let engine = Engine::new(&world.topo);
    let boot = world.campaign(&engine, &vps, 0);
    let delta = world.campaign_over(&engine, &vps, 7_200_000, 12..18);
    let fresh_ips = &hop_ips(&delta) - &hop_ips(&boot);
    assert!(!fresh_ips.is_empty() && !moves_old_ip(&world, &ipasn, &boot, &delta));

    for threads in [1usize, 2] {
        let full = fresh_report(
            &engine,
            &kb,
            &vps,
            &ipasn,
            threads,
            &[boot.clone(), delta.clone()],
            BTreeSet::new(),
        );
        // The delta's new addresses carry verdicts of their own.
        assert!(full.interfaces.keys().any(|ip| fresh_ips.contains(ip)));
        let (incremental, recorder) = session_after(
            &engine,
            &kb,
            &vps,
            &ipasn,
            threads,
            &boot,
            vec![Delta::TracerouteBatch(delta.clone())],
        );
        let snap = recorder.snapshot();
        assert_eq!(snap.counters.get("serve.extract_rebuild"), None);
        assert_eq!(
            report_bytes(&full),
            report_bytes(&incremental),
            "threads={threads}: fresh addresses read under a stale view"
        );
        assert_eq!(canonical_trace(&full), canonical_trace(&incremental));
    }
}

/// A KB flip that retires an exchange (its peering LAN is no longer
/// confirmed IXP space) changes what fabric hops mean: every held
/// address is re-classified before the corpus is re-extracted.
#[test]
fn kb_flip_that_unconfirms_a_peering_lan_reclassifies_its_hops() {
    let world = World::new();
    let vps = deploy_vantage_points(&world.topo, &VpConfig::tiny()).unwrap();
    let kb = KnowledgeBase::assemble(&world.sources, &world.topo.world);
    let ipasn = world.topo.build_ipasn_db();
    let engine = Engine::new(&world.topo);
    let batch = world.campaign(&engine, &vps, 0);
    let fresh = |kb: &KnowledgeBase, threads| {
        fresh_report(
            &engine,
            kb,
            &vps,
            &ipasn,
            threads,
            std::slice::from_ref(&batch),
            BTreeSet::new(),
        )
    };
    let baseline = fresh(&kb, 1);

    // The busiest crossed exchange, marked inactive in PCH's list.
    let mut crossed: BTreeMap<IxpId, (usize, Ipv4Addr)> = BTreeMap::new();
    for link in &baseline.links {
        if let (Some(ixp), Some(fabric)) = (link.ixp, link.far_ip) {
            crossed.entry(ixp).or_insert((0, fabric)).0 += 1;
        }
    }
    let (&ixp, &(_, fabric)) = crossed
        .iter()
        .max_by_key(|(ixp, (n, _))| (*n, std::cmp::Reverse(**ixp)))
        .expect("the campaign crosses some exchange");
    let mut sources = world.sources.clone();
    match sources.pch_list.iter_mut().find(|(x, _, _)| *x == ixp) {
        Some((_, _, active)) => *active = false,
        None => sources.pch_list.push((ixp, Vec::new(), false)),
    }
    let kb2 = Arc::new(KnowledgeBase::assemble(&sources, &world.topo.world));
    assert_eq!(kb.ixp_of_ip(fabric), Some(ixp));
    assert_eq!(kb2.ixp_of_ip(fabric), None);
    assert!(!kb.same_classification_view(&kb2));
    assert_ne!(report_bytes(&fresh(&kb2, 1)), report_bytes(&baseline));

    for threads in [1usize, 2] {
        let full = fresh(&kb2, threads);
        let (incremental, _) = session_after(
            &engine,
            &kb,
            &vps,
            &ipasn,
            threads,
            &batch,
            vec![Delta::KbEpochFlip(kb2.clone())],
        );
        assert_eq!(
            report_bytes(&full),
            report_bytes(&incremental),
            "threads={threads}: the flip kept the retired exchange's hop meanings"
        );
        assert_eq!(canonical_trace(&full), canonical_trace(&incremental));
    }
}

/// A vantage point going down changes which vantage points rank nearest
/// an exchange. The session memoizes each exchange's ranking, so the
/// delta must drop the memo: both the re-tested cached verdicts and the
/// remote tests of a later campaign rank without the downed point. The
/// session starts with one vantage point up, so every boot ranking holds
/// exactly the one the delta takes down, and every later verdict is
/// inconclusive.
#[test]
fn vp_down_then_campaign_ranks_remote_tests_without_it() {
    let world = World::new();
    let vps = deploy_vantage_points(&world.topo, &VpConfig::tiny()).unwrap();
    let kb = KnowledgeBase::assemble(&world.sources, &world.topo.world);
    let ipasn = world.topo.build_ipasn_db();
    let engine = Engine::new(&world.topo);
    let boot = world.campaign(&engine, &vps, 0);
    let later = world.campaign_over(&engine, &vps, 7_200_000, 12..18);
    let all: BTreeSet<VantagePointId> = vps.ids().collect();
    let victim = *all.first().unwrap();
    let mut others = all.clone();
    others.remove(&victim);
    let fresh = |campaigns: &[Vec<Trace>], down: &BTreeSet<VantagePointId>, threads| {
        fresh_report(&engine, &kb, &vps, &ipasn, threads, campaigns, down.clone())
    };
    let boot_only = std::slice::from_ref(&boot);
    assert_ne!(
        report_bytes(&fresh(boot_only, &all, 1)),
        report_bytes(&fresh(boot_only, &others, 1)),
        "the last vantage point up decides no boot verdict"
    );

    for threads in [1usize, 2] {
        let full = fresh(&[boot.clone(), later.clone()], &all, threads);
        let recorder = Arc::new(TraceRecorder::deterministic());
        let mut session = Cfs::builder(&engine, &kb)
            .vps(&vps)
            .ipasn(&ipasn)
            .config(service_config(threads))
            .recorder(recorder.clone())
            .vps_down(others.clone())
            .build_session()
            .unwrap();
        session.ingest(boot.clone());
        session.converge();
        session
            .apply_delta(Delta::VpStatusChange {
                vp: victim,
                up: false,
            })
            .unwrap();
        let tests = recorder.snapshot().counters["remote.tests"];
        session
            .apply_delta(Delta::TracerouteBatch(later.clone()))
            .unwrap();
        assert!(
            recorder.snapshot().counters["remote.tests"] > tests,
            "threads={threads}: the campaign ran no remote test"
        );
        let incremental = session.into_report();
        assert_eq!(
            report_bytes(&full),
            report_bytes(&incremental),
            "threads={threads}: a remote test ranked a downed vantage point"
        );
        assert_eq!(canonical_trace(&full), canonical_trace(&incremental));
    }
}

#[test]
fn followup_config_refuses_every_delta() {
    // Follow-up-driven configurations are the paper's batch runs: they
    // have no iteration-1 fixed point, so no scoped pass reproduces
    // their convergence. apply_delta refuses every kind of delta before
    // converging, absorbing anything, or moving the epoch.
    let world = World::new();
    let vps = deploy_vantage_points(&world.topo, &VpConfig::tiny()).unwrap();
    let kb = KnowledgeBase::assemble(&world.sources, &world.topo.world);
    let ipasn = world.topo.build_ipasn_db();
    let engine = Engine::new(&world.topo);
    let stale = degrade_sources(&world.sources, &FaultPlan::new(3, FaultProfile::stale_kb()));
    let stale = Arc::new(KnowledgeBase::assemble(&stale, &world.topo.world));
    let boot = world.campaign(&engine, &vps, 0);
    let deltas = || {
        [
            Delta::TracerouteBatch(world.campaign(&engine, &vps, 7_200_000)),
            Delta::KbEpochFlip(stale.clone()),
            Delta::VpStatusChange {
                vp: vps.ids().next().unwrap(),
                up: false,
            },
        ]
    };
    let session = |rec: Arc<TraceRecorder>| {
        let mut session = Cfs::builder(&engine, &kb)
            .vps(&vps)
            .ipasn(&ipasn)
            .config(CfsConfig {
                followup_interfaces: 24,
                ..CfsConfig::default()
            })
            .recorder(rec)
            .build_session()
            .unwrap();
        session.ingest(boot.clone());
        session
    };
    let work = |rec: &TraceRecorder| {
        let snap = rec.snapshot();
        let spans: BTreeMap<&str, u64> = snap.spans.iter().map(|(k, s)| (*k, s.count)).collect();
        (snap.counters, spans)
    };

    let rec = Arc::new(TraceRecorder::deterministic());
    let mut converged = session(rec.clone());
    let report = report_bytes(converged.converge());
    let trace = canonical_trace(converged.report().unwrap());
    let ran = work(&rec);
    for delta in deltas() {
        assert!(converged.apply_delta(delta).is_err());
        assert_eq!(converged.epoch(), 1);
        assert_eq!(report_bytes(converged.report().unwrap()), report);
        assert_eq!(canonical_trace(converged.report().unwrap()), trace);
        assert!(work(&rec) == ran, "a refused delta did engine work");
    }

    // An unconverged session is refused without converging, and what it
    // converges to afterwards saw none of the refused deltas.
    let rec = Arc::new(TraceRecorder::deterministic());
    let mut unconverged = session(rec.clone());
    for delta in deltas() {
        assert!(unconverged.apply_delta(delta).is_err());
        assert_eq!(unconverged.epoch(), 0);
        assert!(unconverged.report().is_none());
    }
    assert_eq!(report_bytes(unconverged.converge()), report);
    assert!(work(&rec) == ran);
}

#[test]
fn session_queries_answer_from_the_cached_report() {
    let world = World::new();
    let vps = deploy_vantage_points(&world.topo, &VpConfig::tiny()).unwrap();
    let kb = KnowledgeBase::assemble(&world.sources, &world.topo.world);
    let ipasn = world.topo.build_ipasn_db();
    let engine = Engine::new(&world.topo);

    let mut session = Cfs::builder(&engine, &kb)
        .vps(&vps)
        .ipasn(&ipasn)
        .config(service_config(1))
        .build_session()
        .unwrap();
    session.ingest(world.campaign(&engine, &vps, 0));
    assert_eq!(session.epoch(), 0);
    session.converge();
    assert_eq!(session.epoch(), 1);

    let report = session.report().unwrap();
    let (resolved_ip, iface) = report
        .interfaces
        .iter()
        .find(|(_, i)| i.facility.is_some() && !i.via_proximity && !i.widened)
        .map(|(ip, i)| (*ip, i.clone()))
        .expect("some interface resolves");
    let answer = session.query(resolved_ip);
    assert_eq!(answer.facility, iface.facility);
    assert_eq!(answer.owner, iface.owner);
    assert_eq!(answer.candidates, 1);
    assert_eq!(answer.epoch, 1);
    assert!((answer.confidence - 0.95).abs() < 1e-9);
    assert_ne!(answer.method, "unknown");

    // An address the search never tracked: zero-confidence missing-data.
    let missing = session.query("203.0.113.200".parse().unwrap());
    assert_eq!(missing.candidates, 0);
    assert_eq!(missing.confidence, 0.0);
    assert_eq!(missing.method, "unknown");

    // converge() is idempotent.
    let first = report_bytes(session.report().unwrap());
    assert_eq!(report_bytes(session.converge()), first);
    assert_eq!(session.epoch(), 1);
}
