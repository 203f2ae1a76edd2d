//! The `cfsd` request semantics driven in process through
//! [`Daemon::handle`] — no socket, no subprocess, no sleep — at tiny
//! scale. Covers the daemon branches the socket-level suite
//! (`tests/service_cli.rs`) does not reach: kb-flip deltas and their
//! refusals, out-of-range campaign numbers, server-side severity
//! filtering of the `events` and `alerts` drains, the detection-off
//! `alerts` reply, and the increase-only data-quality events.

use std::sync::Arc;

use cfs::daemon::{Daemon, DaemonOptions};
use cfs::experiments::{Lab, Scale, Substrate};
use cfs::obs::NoopRecorder;
use cfs::prelude::*;
use cfs::topology::{EventSchedule, ScheduleConfig, ScheduleIntensity};
use serde_json::Value;

/// Answers one request and parses the reply line.
fn ask(daemon: &mut Daemon<'_>, req: Request) -> Value {
    let out = daemon.handle(req);
    assert!(!out.shutdown, "only shutdown stops the daemon");
    serde_json::from_str(&out.response).expect("replies are JSON")
}

fn error_code(reply: &Value) -> Option<&str> {
    reply["error"]["code"].as_str()
}

/// Drains a cursor op (`events` or `alerts`) from `since` at an
/// optional severity floor: the records and the `next` cursor.
fn drain(
    daemon: &mut Daemon<'_>,
    alerts: bool,
    since: u64,
    floor: Option<&str>,
) -> (Vec<Value>, u64) {
    let min_severity = floor.map(String::from);
    let (req, member) = if alerts {
        (
            Request::Alerts {
                since,
                min_severity,
            },
            "alerts",
        )
    } else {
        (
            Request::Events {
                since,
                min_severity,
            },
            "events",
        )
    };
    let reply = ask(daemon, req);
    assert_eq!(reply["ok"], Value::Bool(true), "{reply:?}");
    let records = reply[member].as_array().cloned().expect("records array");
    (records, reply["next"].as_u64().expect("next cursor"))
}

fn event_kinds(events: &[Value]) -> Vec<&str> {
    events.iter().filter_map(|e| e["event"].as_str()).collect()
}

fn severity_rank(record: &Value) -> u8 {
    match record["severity"].as_str() {
        Some("info") => 0,
        Some("warn") => 1,
        Some("error") => 2,
        other => panic!("unknown severity {other:?}"),
    }
}

#[test]
fn kb_flip_delta_applies_and_refuses_unknown_targets() {
    let lab = Lab::provision(Scale::Tiny, Some(7)).expect("lab");
    let substrate = Substrate::new(&lab, None, None);
    let mut daemon = Daemon::boot(&substrate, DaemonOptions::default()).expect("boot");
    let facilities = lab.topo.facilities.len() as u32;

    // An observed network with a PeeringDB record, listed at a facility
    // neither its PeeringDB record nor its NOC page names: the flip
    // must move its footprint, and flipping back must restore the
    // boot inputs exactly (flips compose on the daemon's sources).
    let asn = daemon
        .session()
        .report()
        .expect("booted")
        .interfaces
        .values()
        .filter_map(|i| i.owner)
        .find(|a| lab.sources.pdb_networks.contains_key(a))
        .expect("some observed network has a PeeringDB record");
    let listed_at = |f: FacilityId| {
        lab.sources.pdb_networks[&asn].facilities.contains(&f)
            || lab
                .sources
                .noc_pages
                .get(&asn)
                .is_some_and(|p| p.facilities.contains(&f))
    };
    let facility = (0..facilities)
        .find(|f| !listed_at(FacilityId::new(*f)))
        .expect("some facility is unlisted");
    let flip = |present| Request::DeltaKbFlip {
        asn: asn.raw(),
        facility,
        present,
    };
    let boot_trace = daemon.handle(Request::Trace).response;
    let listed = ask(&mut daemon, flip(true));
    assert_eq!(listed["ok"], Value::Bool(true), "{listed:?}");
    assert_eq!(listed["epoch"].as_u64(), Some(2), "{listed:?}");
    assert!(listed["dirty"].as_u64() > Some(0), "{listed:?}");
    let delisted = ask(&mut daemon, flip(false));
    assert_eq!(delisted["epoch"].as_u64(), Some(3), "{delisted:?}");
    assert_eq!(
        daemon.handle(Request::Trace).response,
        boot_trace,
        "list-then-delist must restore the boot report"
    );
    let (events, _) = drain(&mut daemon, false, 0, None);
    let kinds = event_kinds(&events);
    assert_eq!(
        kinds.iter().filter(|k| **k == "kb-flip").count(),
        2,
        "{kinds:?}"
    );

    // Refusals leave the epoch where it was.
    let no_facility = ask(
        &mut daemon,
        Request::DeltaKbFlip {
            asn: asn.raw(),
            facility: facilities,
            present: true,
        },
    );
    assert_eq!(
        error_code(&no_facility),
        Some("bad_delta"),
        "{no_facility:?}"
    );
    let unlisted_asn = lab
        .topo
        .ases
        .keys()
        .find(|a| !lab.sources.pdb_networks.contains_key(a))
        .expect("some AS has no PeeringDB record");
    let no_record = ask(
        &mut daemon,
        Request::DeltaKbFlip {
            asn: unlisted_asn.raw(),
            facility,
            present: true,
        },
    );
    assert_eq!(error_code(&no_record), Some("bad_delta"), "{no_record:?}");
    assert!(
        no_record["error"]["message"]
            .as_str()
            .is_some_and(|m| m.contains("no PeeringDB record")),
        "{no_record:?}"
    );
    // A campaign past `Lab::MAX_CAMPAIGN` would overflow its probe time
    // (`k * EPOCH_MS`).
    for campaign in [0, Lab::MAX_CAMPAIGN + 1, u64::MAX] {
        let reply = ask(&mut daemon, Request::DeltaCampaign { campaign });
        assert_eq!(
            error_code(&reply),
            Some("bad_delta"),
            "{campaign}: {reply:?}"
        );
    }
    let status = ask(&mut daemon, Request::Status);
    assert_eq!(status["epoch"].as_u64(), Some(3), "{status:?}");
}

#[test]
fn kb_flips_serve_the_trace_a_fresh_session_on_the_edited_sources_reaches() {
    // Each flip relists one network from the served epoch; a fresh
    // session converged on the sources assembled from scratch, edited
    // the same way alongside, must serve the same trace after every
    // flip, on clean and on degraded sources.
    let lab = Lab::provision(Scale::Tiny, Some(7)).expect("lab");
    let facilities = lab.topo.facilities.len() as u32;
    for faults in [None, Some("stale-kb+conflict")] {
        let plan = faults.map(|f| FaultPlan::named(f, lab.topo.config.seed).expect("profile"));
        let substrate = Substrate::new(&lab, plan, None);
        let mut daemon = Daemon::boot(&substrate, DaemonOptions::default()).expect("boot");
        let mut sources = substrate.sources().clone();
        let report = daemon.session().report().expect("booted");
        let observed: Vec<Asn> = report
            .interfaces
            .values()
            .filter_map(|i| i.owner)
            .filter(|a| sources.pdb_networks.contains_key(a))
            .collect();
        let networks: Vec<Asn> = sources.pdb_networks.keys().copied().collect();
        let mut seed = 0x9E37_79B9_7F4A_7C15_u64;
        let mut draw = |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        for step in 0..20 {
            // Mostly networks the session observed, so flips move pins.
            let pool = if step % 4 == 3 { &networks } else { &observed };
            let asn = pool[draw(pool.len())];
            let listed = &sources.pdb_networks[&asn].facilities;
            let (facility, present) = if step % 2 == 1 && !listed.is_empty() {
                (listed[draw(listed.len())], false)
            } else {
                (FacilityId::new(draw(facilities as usize) as u32), true)
            };
            let flip = Request::DeltaKbFlip {
                asn: asn.raw(),
                facility: facility.raw(),
                present,
            };
            let reply = ask(&mut daemon, flip);
            assert_eq!(
                reply["ok"],
                Value::Bool(true),
                "{faults:?} {step}: {reply:?}"
            );
            assert!(sources.set_listed(asn, facility, present));

            let kb = KnowledgeBase::assemble(&sources, &lab.topo.world);
            let config = CfsConfig {
                followup_interfaces: 0,
                ..CfsConfig::default()
            };
            let recorder = Arc::new(NoopRecorder);
            let mut fresh = lab.session(substrate.engine(), &kb, config, recorder, None);
            let want: Value = serde_json::from_str(&canonical_trace(fresh.converge())).unwrap();
            let served = ask(&mut daemon, Request::Trace);
            assert!(
                served["trace"] == want,
                "{faults:?} flip {step} ({asn} {facility} {present}) drifted from a fresh session"
            );
        }
    }
}

#[test]
fn event_drain_filters_by_severity_but_advances_past_filtered_records() {
    let lab = Lab::provision(Scale::Tiny, Some(7)).expect("lab");
    let plan = FaultPlan::named("default", lab.topo.config.seed);
    let substrate = Substrate::new(&lab, plan, None);
    let mut daemon = Daemon::boot(&substrate, DaemonOptions::default()).expect("boot");
    // End the log on an info record, so a warn-only drain must advance
    // its cursor past a record it does not return.
    let delta = ask(&mut daemon, Request::DeltaVpStatus { vp: 0, up: false });
    assert_eq!(delta["ok"], Value::Bool(true), "{delta:?}");

    let (all, next) = drain(&mut daemon, false, 0, None);
    assert_eq!(
        all.last().map(|e| e["event"].as_str()),
        Some(Some("delta-applied"))
    );
    assert!(all.iter().any(|e| severity_rank(e) >= 1), "no warn event");
    let (warn, warn_next) = drain(&mut daemon, false, 0, Some("warn"));
    let want: Vec<&Value> = all.iter().filter(|e| severity_rank(e) >= 1).collect();
    assert_eq!(warn.iter().collect::<Vec<_>>(), want);
    assert!(warn.len() < all.len());
    assert_eq!(warn_next, next, "the cursor must pass filtered records");
    let (again, again_next) = drain(&mut daemon, false, warn_next, Some("warn"));
    assert!(again.is_empty(), "{again:?}");
    assert_eq!(again_next, next);
}

#[test]
fn alert_drain_filters_by_severity_but_advances_past_filtered_records() {
    let lab = Lab::provision(Scale::Tiny, Some(11)).expect("lab");
    let config = ScheduleConfig::at_intensity(lab.topo.config.seed, ScheduleIntensity::Default);
    let schedule = EventSchedule::generate(&lab.topo, config);
    let substrate = Substrate::new(&lab, None, Some(schedule));
    let opts = DaemonOptions {
        detect: true,
        ..DaemonOptions::default()
    };
    let mut daemon = Daemon::boot(&substrate, opts).expect("boot");
    for campaign in 1..cfs::topology::HORIZON_EPOCHS {
        let reply = ask(&mut daemon, Request::DeltaCampaign { campaign });
        assert_eq!(reply["ok"], Value::Bool(true), "{reply:?}");
    }

    let (all, next) = drain(&mut daemon, true, 0, None);
    let ranks: Vec<u8> = all.iter().map(severity_rank).collect();
    assert!(!all.is_empty(), "the default schedule must raise alerts");
    assert_eq!(next, all.len() as u64);
    for (floor, rank) in [("warn", 1), ("error", 2)] {
        let (kept, kept_next) = drain(&mut daemon, true, 0, Some(floor));
        let want: Vec<&Value> = all.iter().filter(|a| severity_rank(a) >= rank).collect();
        assert_eq!(kept.iter().collect::<Vec<_>>(), want, "floor {floor}");
        assert_eq!(
            kept_next, next,
            "floor {floor}: cursor must pass filtered records"
        );
    }
    assert!(
        ranks.iter().any(|r| *r < 2),
        "some alert must fall below the error floor"
    );
}

#[test]
fn detection_off_alerts_answer_empty_with_an_unmoved_cursor() {
    let lab = Lab::provision(Scale::Tiny, Some(7)).expect("lab");
    let substrate = Substrate::new(&lab, None, None);
    let mut daemon = Daemon::boot(&substrate, DaemonOptions::default()).expect("boot");
    for since in [0, 5] {
        let (alerts, next) = drain(&mut daemon, true, since, Some("warn"));
        assert!(alerts.is_empty(), "{alerts:?}");
        assert_eq!(next, since);
    }
}

/// Data-quality events report increases only: boot reports its totals
/// once (the same rule, counted from zero), a delta that adds nothing
/// reports nothing, and one that adds reports just the difference.
/// Breaker trips follow the same rule but never occur in a daemon: the
/// breaker only gates follow-up probing, which serving sessions skip,
/// so metro-widened interfaces carry the check.
#[test]
fn data_quality_events_report_increases_once() {
    let lab = Lab::provision(Scale::Tiny, Some(7)).expect("lab");
    let plan = FaultPlan::named("flaky", lab.topo.config.seed);
    let substrate = Substrate::new(&lab, plan, None);
    let mut daemon = Daemon::boot(&substrate, DaemonOptions::default()).expect("boot");
    let dq = |d: &Daemon<'_>| {
        let q = &d.session().report().expect("booted").data_quality;
        (q.vp_breaker_trips, q.widened_interfaces)
    };
    let widened = |events: &[Value]| -> Vec<u64> {
        events
            .iter()
            .filter(|e| e["event"].as_str() == Some("widened-interfaces"))
            .filter_map(|e| e["count"].as_u64())
            .collect()
    };
    let (trips, boot_widened) = dq(&daemon);
    assert_eq!(trips, 0, "serving sessions never chase, so never trip");
    assert!(boot_widened > 0, "the flaky plan must widen some interface");
    let (boot, cursor) = drain(&mut daemon, false, 0, None);
    assert_eq!(widened(&boot), [boot_widened], "{boot:?}");
    assert!(!event_kinds(&boot).contains(&"breaker-trip"), "{boot:?}");

    let vp = ask(&mut daemon, Request::DeltaVpStatus { vp: 0, up: false });
    assert_eq!(vp["ok"], Value::Bool(true), "{vp:?}");
    assert_eq!(
        dq(&daemon),
        (0, boot_widened),
        "the vp delta widened nothing"
    );
    let (after_vp, cursor) = drain(&mut daemon, false, cursor, None);
    assert_eq!(event_kinds(&after_vp), ["delta-applied"], "{after_vp:?}");

    let campaign = ask(&mut daemon, Request::DeltaCampaign { campaign: 1 });
    assert_eq!(campaign["ok"], Value::Bool(true), "{campaign:?}");
    let (_, now_widened) = dq(&daemon);
    assert!(now_widened > boot_widened, "campaign 1 must widen more");
    let (after_campaign, _) = drain(&mut daemon, false, cursor, None);
    assert_eq!(
        widened(&after_campaign),
        [now_widened - boot_widened],
        "{after_campaign:?}"
    );
}

#[test]
fn metrics_count_delta_churn_once() {
    let lab = Lab::provision(Scale::Tiny, Some(7)).expect("lab");
    let substrate = Substrate::new(&lab, None, None);
    let mut daemon = Daemon::boot(&substrate, DaemonOptions::default()).expect("boot");
    let asn = daemon
        .session()
        .report()
        .expect("booted")
        .interfaces
        .values()
        .filter_map(|i| i.owner)
        .find(|a| lab.sources.pdb_networks.contains_key(a))
        .expect("some observed network has a PeeringDB record");
    let facility = lab.sources.pdb_networks[&asn].facilities[0].raw();
    let flip = |present| Request::DeltaKbFlip {
        asn: asn.raw(),
        facility,
        present,
    };
    let deltas = [
        flip(false),
        flip(true),
        flip(false),
        Request::DeltaCampaign { campaign: 1 },
        Request::DeltaCampaign { campaign: 2 },
    ];
    let (mut dirty, mut reconverged) = (0, 0);
    for delta in deltas {
        let reply = ask(&mut daemon, delta);
        assert_eq!(reply["ok"], Value::Bool(true), "{reply:?}");
        dirty += reply["dirty"].as_u64().expect("dirty");
        reconverged += reply["reconverged"].as_u64().expect("reconverged");
    }
    assert!(dirty > 0 && reconverged >= dirty);
    let metrics: Value = serde_json::from_str(&daemon.metrics_json()).expect("metrics JSON");
    let total = |name: &str| metrics["totals"]["counters"][name].as_u64();
    assert_eq!(total("serve.dirty_ifaces"), Some(dirty));
    assert_eq!(total("serve.reconverged"), Some(reconverged));
}

/// A campaign delta times its two phases outside `serve.delta` once
/// each: probing (`serve.campaign`) and, on a detecting daemon, the
/// detector's summary and observation (`serve.detect`). The spans stay
/// out of the canonical trace.
#[test]
fn campaign_deltas_time_probing_and_detection_once() {
    let lab = Lab::provision(Scale::Tiny, Some(7)).expect("lab");
    let substrate = Substrate::new(&lab, None, None);
    let opts = DaemonOptions {
        detect: true,
        ..DaemonOptions::default()
    };
    let mut detecting = Daemon::boot(&substrate, opts).expect("boot");
    let mut plain = Daemon::boot(&substrate, DaemonOptions::default()).expect("boot");
    for daemon in [&mut detecting, &mut plain] {
        let reply = ask(daemon, Request::DeltaCampaign { campaign: 1 });
        assert_eq!(reply["ok"], Value::Bool(true), "{reply:?}");
    }
    let span_counts = |daemon: &Daemon<'_>| -> Vec<Option<u64>> {
        let metrics: Value = serde_json::from_str(&daemon.metrics_json()).expect("metrics JSON");
        ["api.delta", "serve.campaign", "serve.delta", "serve.detect"]
            .iter()
            .map(|span| metrics["totals"]["durations"][*span]["count"].as_u64())
            .collect()
    };
    assert_eq!(span_counts(&detecting), [Some(1); 4]);
    assert_eq!(span_counts(&plain), [Some(1), Some(1), Some(1), None]);
    assert_eq!(
        detecting.handle(Request::Trace).response,
        plain.handle(Request::Trace).response,
        "the campaign's spans reached the canonical trace"
    );
}

/// The service-mode determinism contract (DESIGN.md §10): a daemon that
/// booted with campaigns 1..3 pre-ingested serves byte-for-byte the
/// trace of one that booted on the bootstrap alone and absorbed the
/// same campaigns as deltas — clean at seed 7, and under the default
/// disruption schedule at seed 11, whose verdicts it moves by epoch 3.
#[test]
fn preingested_campaigns_serve_the_trace_their_deltas_reach() {
    for (seed, intensity) in [(7, None), (11, Some(ScheduleIntensity::Default))] {
        let lab = Lab::provision(Scale::Tiny, Some(seed)).expect("lab");
        let schedule = intensity
            .map(|i| EventSchedule::generate(&lab.topo, ScheduleConfig::at_intensity(seed, i)));
        let substrate = Substrate::new(&lab, None, schedule);
        let opts = DaemonOptions {
            campaigns: 3,
            ..DaemonOptions::default()
        };
        let mut batch = Daemon::boot(&substrate, opts).expect("boot");
        let mut incremental = Daemon::boot(&substrate, DaemonOptions::default()).expect("boot");
        for campaign in 1..=3 {
            let reply = ask(&mut incremental, Request::DeltaCampaign { campaign });
            assert_eq!(reply["ok"], Value::Bool(true), "{reply:?}");
        }
        assert_eq!(
            batch.handle(Request::Trace).response,
            incremental.handle(Request::Trace).response,
            "seed {seed}: pre-ingested and delta-absorbed campaigns diverged"
        );
    }
}

/// A campaign count past `Lab::MAX_CAMPAIGN` would overflow its probe
/// time (`k * EPOCH_MS`) and probe for ever: boot refuses it before
/// probing anything.
#[test]
fn boot_refuses_campaigns_past_the_last_probe_time() {
    let lab = Lab::provision(Scale::Tiny, Some(7)).expect("lab");
    let substrate = Substrate::new(&lab, None, None);
    let opts = DaemonOptions {
        campaigns: Lab::MAX_CAMPAIGN + 1,
        ..DaemonOptions::default()
    };
    assert!(Daemon::boot(&substrate, opts).is_err());
}

/// The README's service example queries `16.0.0.10` against the daemon
/// `cfs serve --scale tiny --seed 7` boots; that daemon must serve it.
#[test]
fn the_readme_query_address_is_served_at_tiny_seed_7() {
    let lab = Lab::provision(Scale::Tiny, Some(7)).expect("lab");
    let substrate = Substrate::new(&lab, None, None);
    let mut daemon = Daemon::boot(&substrate, DaemonOptions::default()).expect("boot");
    let iface = "16.0.0.10".to_string();
    let readme = include_str!("../README.md");
    assert!(
        readme.contains(&format!("query --socket /tmp/cfsd.sock {iface} ")),
        "the README quotes another address"
    );
    let reply = ask(&mut daemon, Request::Query { iface });
    assert_eq!(reply["ok"], Value::Bool(true), "{reply:?}");
}
