//! The parallel stages must not change results: serial (`threads = 1`)
//! and parallel (`threads ∈ {2, 8}`) runs of the full pipeline over the
//! same seeded world must produce byte-identical `CfsReport` JSON.
//!
//! This holds because every measurement primitive the parallel stages
//! fan out (trace simulation, IP-ID probing, remote-peering RTT tests)
//! is a pure function of its call parameters, and every fan-out merges
//! its results in submission order.

use std::sync::Arc;

use cfs_chaos::{FaultPlan, FaultProfile};
use cfs_core::{render_profile_json, render_trace_json, Cfs, CfsConfig};
use cfs_kb::{degrade_sources, KbConfig, KnowledgeBase, PublicSources};
use cfs_obs::{Clock, Monotonic, TraceRecorder, Virtual};
use cfs_topology::{Topology, TopologyConfig};
use cfs_traceroute::{
    deploy_vantage_points, run_campaign, CampaignLimits, ChaosEngine, Engine, VpConfig,
};

fn report_json(topo: &Topology, threads: usize) -> String {
    let (report, _) = report_and_trace(topo, threads);
    report
}

/// Runs the pipeline with a deterministic (virtual-clock) recorder
/// attached, returning both the report JSON and the rendered
/// `cfs-trace/1` document.
fn report_and_trace(topo: &Topology, threads: usize) -> (String, String) {
    faulted_report_and_trace(topo, threads, None)
}

/// Same pipeline, optionally behind an active fault plan: the probe
/// engine lies (timeouts, truncation, rate limiting) and the knowledge
/// base is assembled from a degraded source snapshot. Retries, breaker
/// bookkeeping, and metro widening must all stay thread-invariant.
fn faulted_report_and_trace(
    topo: &Topology,
    threads: usize,
    plan: Option<FaultPlan>,
) -> (String, String) {
    let (report, trace, _) = run_with_clock(topo, threads, plan, Arc::new(Virtual::new()));
    (report, trace)
}

/// The full pipeline with an arbitrary recorder clock, returning the
/// report JSON, the rendered trace, and the `cfs-profile/2` sidecar.
fn run_with_clock(
    topo: &Topology,
    threads: usize,
    plan: Option<FaultPlan>,
    clock: Arc<dyn Clock>,
) -> (String, String, String) {
    let vps = deploy_vantage_points(topo, &VpConfig::tiny()).unwrap();
    let engine = match plan {
        Some(p) => ChaosEngine::new(Engine::new(topo), p),
        None => ChaosEngine::new(Engine::new(topo), FaultPlan::new(0, FaultProfile::off())),
    };
    let clean_sources = PublicSources::derive(topo, &KbConfig::default());
    let sources = match plan {
        Some(p) => degrade_sources(&clean_sources, &p),
        None => clean_sources,
    };
    let kb = KnowledgeBase::assemble(&sources, &topo.world);
    let ipasn = topo.build_ipasn_db();

    let targets: Vec<std::net::Ipv4Addr> = topo
        .ases
        .keys()
        .take(12)
        .map(|a| topo.target_ip(*a).unwrap())
        .collect();
    let all_vps: Vec<_> = vps.ids().collect();
    let traces = run_campaign(
        &engine,
        &vps,
        &all_vps,
        &targets,
        0,
        &CampaignLimits::default(),
    );

    let recorder = Arc::new(TraceRecorder::new(clock));
    let mut session = Cfs::builder(&engine, &kb)
        .vps(&vps)
        .ipasn(&ipasn)
        .config(CfsConfig {
            max_iterations: 8,
            ..CfsConfig::default()
        })
        .threads(threads)
        .recorder(recorder.clone())
        .build_session()
        .unwrap();
    session.ingest(traces);
    let report = session.into_report();
    let snap = recorder.snapshot();
    let trace = render_trace_json(&report, &snap);
    let profile = render_profile_json(&snap);
    (serde_json::to_string(&report).unwrap(), trace, profile)
}

#[test]
fn trace_json_is_byte_identical_across_thread_counts() {
    // The tentpole guarantee of cfs-obs: worker counters are recorded
    // per item (never per chunk) and the stable export carries no span
    // durations, so the whole `cfs-trace/1` document — counters,
    // histograms, span counts, convergence telemetry, digest — is
    // byte-identical however the stages were chunked.
    let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
    let (serial_report, serial_trace) = report_and_trace(&topo, 1);
    assert!(serial_trace.starts_with("{\"schema\":\"cfs-trace/1\""));
    for threads in [2, 8] {
        let (report, trace) = report_and_trace(&topo, threads);
        assert_eq!(serial_report, report, "report changed at {threads} threads");
        assert_eq!(serial_trace, trace, "trace changed at {threads} threads");
    }
}

#[test]
fn faulted_runs_are_byte_identical_across_thread_counts() {
    // The chaos layer's fault decisions are pure hashes of (seed,
    // entity, time slot), and the resilience machinery they trigger —
    // retry budget spends, circuit-breaker trips, metro widening — is
    // accounted serially in submission order between parallel rounds.
    // So even a run full of injected faults must not depend on how the
    // fan-outs were chunked.
    let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
    let plan = Some(FaultPlan::new(topo.config.seed, FaultProfile::standard()));
    let (serial_report, serial_trace) = faulted_report_and_trace(&topo, 1, plan);
    assert!(serial_trace.starts_with("{\"schema\":\"cfs-trace/1\""));
    // The plan must actually be biting, or this test proves nothing.
    assert!(
        serial_report.contains("\"probes_retried\":")
            && !serial_report.contains("\"probes_retried\":0,"),
        "fault plan injected no retriable probe failures"
    );
    for threads in [2, 8] {
        let (report, trace) = faulted_report_and_trace(&topo, threads, plan);
        assert_eq!(
            serial_report, report,
            "faulted report changed at {threads} threads"
        );
        assert_eq!(
            serial_trace, trace,
            "faulted trace changed at {threads} threads"
        );
    }
}

#[test]
fn conflicted_kb_runs_are_byte_identical_across_thread_counts() {
    // The ISSUE-9 determinism criterion: the dirty-KB composite
    // (staleness + manufactured source conflicts) exercises the whole
    // reconciliation layer — agreement scoring, evidence gating, and the
    // contested-pin refusals in report assembly — and none of it may
    // depend on worker chunking. The kb_quality member rides inside the
    // digested trace body, so the byte-compare covers it too.
    let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
    let plan = Some(FaultPlan::new(
        topo.config.seed,
        FaultProfile::parse("stale-kb+conflict").unwrap(),
    ));
    let (serial_report, serial_trace) = faulted_report_and_trace(&topo, 1, plan);
    assert!(
        serial_trace.contains("\"kb_quality\":{\"records\":"),
        "trace body must carry the kb_quality section"
    );
    // The conflict dial must actually contest something, or this run
    // exercises nothing beyond plain stale-kb.
    assert!(
        !serial_trace.contains("\"contested\":0,"),
        "conflict profile manufactured no contested claims"
    );
    for threads in [2, 8] {
        let (report, trace) = faulted_report_and_trace(&topo, threads, plan);
        assert_eq!(
            serial_report, report,
            "conflicted report changed at {threads} threads"
        );
        assert_eq!(
            serial_trace, trace,
            "conflicted trace changed at {threads} threads"
        );
    }
}

#[test]
fn profile_sidecar_never_perturbs_the_trace() {
    // The ISSUE acceptance criterion: the deterministic trace digest is
    // byte-identical with and without duration capture. A wall-clock
    // (Monotonic) recorder accumulates real nanoseconds in the sidecar,
    // yet the rendered `cfs-trace/1` document — digest included — must
    // match the virtual-clock run exactly, and rendering the profile
    // must not perturb a re-rendered trace.
    let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
    let (_, virtual_trace, virtual_profile) =
        run_with_clock(&topo, 2, None, Arc::new(Virtual::new()));
    let (_, wall_trace, wall_profile) = run_with_clock(&topo, 2, None, Arc::new(Monotonic::new()));
    assert_eq!(
        virtual_trace, wall_trace,
        "wall-clock durations leaked into the digestible trace body"
    );
    for profile in [&virtual_profile, &wall_profile] {
        assert!(
            profile.starts_with("{\"schema\":\"cfs-profile/2\""),
            "sidecar carries its own schema marker: {}",
            &profile[..60.min(profile.len())]
        );
    }
    // Same pipeline work → same span entry counts, whatever the clock.
    let doc_v = cfs_obs::ProfileDoc::parse(&virtual_profile).unwrap();
    let doc_w = cfs_obs::ProfileDoc::parse(&wall_profile).unwrap();
    assert_eq!(
        doc_v.spans.keys().collect::<Vec<_>>(),
        doc_w.spans.keys().collect::<Vec<_>>()
    );
    for (name, stats) in &doc_v.spans {
        assert_eq!(stats.count, doc_w.spans[name].count, "span {name}");
    }
}

#[test]
fn trace_diff_is_clean_across_thread_counts_and_catches_drift() {
    // Self-compare via the diff engine at every supported worker count:
    // the tool must report zero drift for traces of the same world. A
    // different topology seed must surface as counter deltas.
    let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
    let (_, base_trace) = report_and_trace(&topo, 1);
    for threads in [1, 2, 8] {
        let (_, trace) = report_and_trace(&topo, threads);
        let diff = cfs_obs::diff_docs(&base_trace, &trace, 0).unwrap();
        assert!(
            !diff.is_drift(),
            "threads={threads} drifted: {}",
            diff.render_text()
        );
    }

    let other = Topology::generate(TopologyConfig::tiny().with_seed(999)).unwrap();
    let (_, other_trace) = report_and_trace(&other, 1);
    let diff = cfs_obs::diff_docs(&base_trace, &other_trace, 0).unwrap();
    assert!(diff.is_drift(), "different worlds must diff as drift");
    let cfs_obs::DocDiff::Trace(t) = &diff else {
        panic!("trace pair must produce a trace diff");
    };
    assert!(
        !t.counters_changed.is_empty(),
        "seeded drift produced no counter deltas: {}",
        diff.render_text()
    );
}

#[test]
fn rerun_at_same_thread_count_is_deterministic() {
    let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
    assert_eq!(report_json(&topo, 4), report_json(&topo, 4));
}

#[test]
fn cfs_is_send() {
    fn assert_send<T: Send>(_: &T) {}
    let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
    let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
    let engine = Engine::new(&topo);
    let sources = PublicSources::derive(&topo, &KbConfig::default());
    let kb = KnowledgeBase::assemble(&sources, &topo.world);
    let ipasn = topo.build_ipasn_db();
    let session = Cfs::builder(&engine, &kb)
        .vps(&vps)
        .ipasn(&ipasn)
        .build_session()
        .unwrap();
    assert_send(&session);
}
