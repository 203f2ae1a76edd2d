//! The probe plane's bytes. The verdict goldens pin what the search
//! inferred, not the traces that fed it; these tests pin the traces
//! themselves.
//!
//! * An FNV-1a digest over every trace of the bootstrap corpus plus
//!   campaigns 1..3 (vantage point, target, time, outcome, and each hop's
//!   address and RTT bits) must equal the recorded constant, at tiny and
//!   default scale, and at tiny scale for each non-default engine mode:
//!   classic (non-Paris) traceroute, heavy reply loss and pervasive
//!   congestion.
//! * The engine memoizes hot-potato boundary choices as it goes, so the
//!   order probes are sent in must not matter: a fresh engine that
//!   replays the same probes backwards must return equal traces, bare,
//!   in classic mode, under a disruption schedule and under a flaky
//!   fault plan.

use cfs::experiments::{Lab, Scale};
use cfs::prelude::*;
use cfs::topology::{EventSchedule, ScheduleConfig, ScheduleIntensity};
use cfs::traceroute::{ScheduledEngine, Trace};

/// Campaigns probed after the bootstrap corpus.
const CAMPAIGNS: std::ops::RangeInclusive<u64> = 1..=3;

/// The bootstrap corpus followed by campaigns 1..3, as `engine` answers
/// them.
fn probe_plane(lab: &Lab, engine: &dyn ProbeService) -> Vec<Trace> {
    let mut traces = lab.bootstrap_traces(engine, None);
    for k in CAMPAIGNS {
        traces.extend(lab.campaign(engine, k));
    }
    traces
}

/// 64-bit FNV-1a over the fields a consumer of a trace reads.
fn digest(traces: &[Trace]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for t in traces {
        eat(&t.vp.raw().to_le_bytes());
        eat(&t.target.octets());
        eat(&t.at_ms.to_le_bytes());
        eat(&[u8::from(t.reached)]);
        eat(&(t.hops.len() as u64).to_le_bytes());
        for hop in &t.hops {
            match hop.ip {
                Some(ip) => {
                    eat(&[1]);
                    eat(&ip.octets());
                }
                None => eat(&[0]),
            }
            eat(&hop.rtt_ms.to_bits().to_le_bytes());
        }
    }
    h
}

/// Requires the seed-7 probe plane at `scale`, answered by the engine
/// `mode` configures, to digest to `expected`.
fn assert_digest(scale: Scale, mode: fn(Engine<'_>) -> Engine<'_>, expected: u64) {
    let lab = Lab::provision(scale, Some(7)).expect("lab");
    let engine = mode(Engine::new(&lab.topo));
    let traces = probe_plane(&lab, &engine);
    let got = digest(&traces);
    assert_eq!(
        got,
        expected,
        "{} probe plane over {} traces digests to {got:#018x}",
        scale.label(),
        traces.len()
    );
}

#[test]
fn tiny_probe_plane_bytes_are_pinned() {
    assert_digest(Scale::Tiny, |e| e, 0x5cd2_4c7e_cc9f_1b56);
}

#[test]
fn default_probe_plane_bytes_are_pinned() {
    assert_digest(Scale::Default, |e| e, 0x539b_bb1f_b7cf_297c);
}

/// Classic traceroute draws its artifact mid-hop and reads a foreign
/// interface, so the draw order is pinned apart from the Paris one.
#[test]
fn tiny_classic_probe_plane_bytes_are_pinned() {
    assert_digest(Scale::Tiny, |e| e.without_paris(), 0xa835_83e7_89ab_d60a);
}

#[test]
fn tiny_lossy_probe_plane_bytes_are_pinned() {
    assert_digest(
        Scale::Tiny,
        |e| e.with_reply_loss(0.2),
        0x5666_8183_9d80_b4e7,
    );
}

#[test]
fn tiny_congested_probe_plane_bytes_are_pinned() {
    assert_digest(
        Scale::Tiny,
        |e| e.with_congestion_percent(30),
        0x0928_08a1_b59f_ce39,
    );
}

/// Replays every probe of the forward-ordered `forward` backwards on
/// `fresh`, an engine stack that has probed nothing yet, and requires
/// equal traces.
fn assert_order_free(forward: &[Trace], lab: &Lab, fresh: &dyn ProbeService, stack: &str) {
    for (i, t) in forward.iter().enumerate().rev() {
        let again = fresh.trace(&lab.vps.vps[t.vp], t.target, t.at_ms);
        assert_eq!(&again, t, "{stack}: probe {i} differs when sent backwards");
    }
}

fn assert_order_free_stacks(scale: Scale) {
    let lab = Lab::provision(scale, Some(7)).expect("lab");
    let bare = || Engine::new(&lab.topo);
    let classic = || Engine::new(&lab.topo).without_paris();
    let scheduled = || {
        let config = ScheduleConfig::at_intensity(lab.topo.config.seed, ScheduleIntensity::Default);
        ScheduledEngine::new(bare(), EventSchedule::generate(&lab.topo, config))
    };
    let plan = FaultPlan::named("flaky", lab.topo.config.seed).expect("named plan");
    let flaky = || ChaosEngine::new(bare(), plan);

    assert_order_free(&probe_plane(&lab, &bare()), &lab, &bare(), "bare");
    assert_order_free(&probe_plane(&lab, &classic()), &lab, &classic(), "classic");
    assert_order_free(
        &probe_plane(&lab, &scheduled()),
        &lab,
        &scheduled(),
        "scheduled",
    );
    assert_order_free(&probe_plane(&lab, &flaky()), &lab, &flaky(), "flaky");
}

#[test]
fn tiny_traces_do_not_depend_on_probe_order() {
    assert_order_free_stacks(Scale::Tiny);
}

#[test]
fn default_traces_do_not_depend_on_probe_order() {
    assert_order_free_stacks(Scale::Default);
}
