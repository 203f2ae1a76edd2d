//! Time-evolving disruptions: a seeded [`EventSchedule`] of typed
//! facility-level events that the measurement plane replays epoch by
//! epoch.
//!
//! The schedule is ground truth in the same sense the rest of the
//! topology is: the probe plane (`ScheduledEngine` in `cfs-traceroute`)
//! consults it to decide which interfaces answer during an epoch, but
//! nothing downstream of the measurement plane ever sees it. The
//! detection stack (`cfs-detect`) must re-discover the events from
//! divergence in what the probes observe — precision/recall against the
//! withheld schedule is the evaluation (`disruption_eval` in
//! EXPERIMENTS.md).
//!
//! Epochs are coarse campaign slots: campaign `k` of a resident session
//! probes at virtual time `k * EPOCH_MS`, so "epoch" and "campaign
//! index" are the same coordinate.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use cfs_types::{AsClass, FacilityId, Idx, IxpId, SwitchId};

use crate::model::{IxpMembership, SwitchRole};
use crate::Topology;

/// Virtual milliseconds per disruption epoch. Campaign `k` probes at
/// `k * EPOCH_MS`; an event active in epoch `e` darkens its interfaces
/// for every probe with `at_ms / EPOCH_MS == e`.
pub const EPOCH_MS: u64 = 7_200_000;

/// The kind of a scheduled disruption.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DisruptionKind {
    /// Total power loss at one facility: every interface of every router
    /// in the building stops answering, and fabric ports patched into
    /// the building's IXP access switches go dark with it.
    FacilityPower,
    /// A patch-panel failure at one facility: every private
    /// point-to-point link terminating there loses both of its subnet
    /// endpoints (the cross-connect is a physical pair — cutting it
    /// silences both sides).
    CrossConnectCut,
    /// One IXP access switch flaps: the fabric addresses of every member
    /// port patched into that switch stop answering. Localizes to the
    /// facility hosting the switch.
    IxpPortFlap,
}

impl DisruptionKind {
    /// Stable lowercase label used in reports and alert scoring.
    pub fn label(self) -> &'static str {
        match self {
            DisruptionKind::FacilityPower => "facility-power",
            DisruptionKind::CrossConnectCut => "cross-connect-cut",
            DisruptionKind::IxpPortFlap => "ixp-port-flap",
        }
    }
}

/// One scheduled disruption: a typed event pinned to a facility (and,
/// for port flaps, an exchange + access switch) over a closed epoch
/// window.
#[derive(Clone, Debug)]
pub struct Disruption {
    /// What broke.
    pub kind: DisruptionKind,
    /// The facility the event localizes to (ground truth for scoring).
    pub facility: FacilityId,
    /// The affected exchange, for [`DisruptionKind::IxpPortFlap`].
    pub ixp: Option<IxpId>,
    /// The flapping access switch, for [`DisruptionKind::IxpPortFlap`].
    pub switch: Option<SwitchId>,
    /// First epoch the event is active in.
    pub start_epoch: u64,
    /// Number of consecutive active epochs (≥ 1).
    pub duration_epochs: u64,
}

impl Disruption {
    /// Whether the event is active during `epoch`.
    pub fn active(&self, epoch: u64) -> bool {
        epoch >= self.start_epoch && epoch < self.start_epoch + self.duration_epochs
    }

    /// Last active epoch (inclusive).
    pub fn end_epoch(&self) -> u64 {
        self.start_epoch + self.duration_epochs - 1
    }

    /// The set of interface addresses this event silences, derived from
    /// the topology's ground truth.
    pub fn dark_ips(&self, topo: &Topology) -> BTreeSet<Ipv4Addr> {
        let mut dark = BTreeSet::new();
        match self.kind {
            DisruptionKind::FacilityPower => {
                for (rid, router) in topo.routers.iter() {
                    if topo.router_facility(rid) != Some(self.facility) {
                        continue;
                    }
                    for iface in &router.ifaces {
                        dark.insert(topo.ifaces[*iface].ip);
                    }
                }
                // Access switches in the building lose power too: member
                // ports patched into them stop answering even when the
                // member's router sits elsewhere.
                for (_, ixp) in topo.ixps.iter() {
                    for m in &ixp.members {
                        if topo.switches[m.access_switch].facility == self.facility {
                            dark.insert(m.fabric_ip);
                        }
                    }
                }
            }
            DisruptionKind::CrossConnectCut => {
                for (_, link) in topo.links.iter() {
                    let a_fac = topo.router_facility(link.a.router);
                    let b_fac = topo.router_facility(link.b.router);
                    if a_fac == Some(self.facility) || b_fac == Some(self.facility) {
                        dark.insert(topo.ifaces[link.a.iface].ip);
                        dark.insert(topo.ifaces[link.b.iface].ip);
                    }
                }
            }
            DisruptionKind::IxpPortFlap => {
                let (Some(ixp), Some(switch)) = (self.ixp, self.switch) else {
                    return dark;
                };
                for m in &topo.ixps[ixp].members {
                    if m.access_switch == switch {
                        dark.insert(m.fabric_ip);
                    }
                }
            }
        }
        dark
    }
}

/// Named fault intensities for schedule generation: how many events the
/// horizon carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleIntensity {
    /// A couple of isolated events.
    Light,
    /// The evaluation default.
    Default,
    /// A busy horizon with overlapping windows.
    Heavy,
}

impl ScheduleIntensity {
    /// Number of events generated at this intensity.
    pub fn events(self) -> usize {
        match self {
            ScheduleIntensity::Light => 2,
            ScheduleIntensity::Default => 4,
            ScheduleIntensity::Heavy => 7,
        }
    }

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            ScheduleIntensity::Light => "light",
            ScheduleIntensity::Default => "default",
            ScheduleIntensity::Heavy => "heavy",
        }
    }

    /// Parses a label back into an intensity.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "light" => Some(ScheduleIntensity::Light),
            "default" => Some(ScheduleIntensity::Default),
            "heavy" => Some(ScheduleIntensity::Heavy),
            _ => None,
        }
    }
}

/// Epochs kept event-free at the start of the horizon so detectors can
/// form a baseline.
pub const WARMUP_EPOCHS: u64 = 4;
/// Total epochs in a schedule's horizon (bootstrap epoch 0 included).
pub const HORIZON_EPOCHS: u64 = 16;

/// Parameters for schedule generation over the [`HORIZON_EPOCHS`]
/// horizon.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleConfig {
    /// Generation seed (independent of the topology seed).
    pub seed: u64,
    /// How many events to place.
    pub events: usize,
}

impl ScheduleConfig {
    /// The evaluation shape at a named intensity: `intensity.events()`
    /// events.
    pub fn at_intensity(seed: u64, intensity: ScheduleIntensity) -> Self {
        Self {
            seed,
            events: intensity.events(),
        }
    }
}

/// A generated, seeded disruption schedule over one topology.
#[derive(Clone, Debug)]
pub struct EventSchedule {
    /// The generation parameters.
    pub config: ScheduleConfig,
    /// Events sorted by `(start_epoch, facility)`.
    pub events: Vec<Disruption>,
}

impl EventSchedule {
    /// Generates a schedule for `topo`. Deterministic in
    /// `(config.seed, topology)`; events target facilities with enough
    /// ground-truth presence (routers, private links, member ports) for
    /// their loss to be observable in a campaign.
    pub fn generate(topo: &Topology, config: ScheduleConfig) -> Self {
        let fac_pool = facility_pool(topo);
        let cut_pool = cross_connect_pool(topo);
        let flap_pool = port_flap_pool(topo);
        let mut events: Vec<Disruption> = Vec::new();
        let mut used: BTreeSet<(u8, FacilityId)> = BTreeSet::new();

        for i in 0..config.events {
            let h = splitmix64(config.seed ^ ((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            let kind = match h % 3 {
                0 => DisruptionKind::FacilityPower,
                1 => DisruptionKind::CrossConnectCut,
                _ => DisruptionKind::IxpPortFlap,
            };
            let duration = 2 + ((h >> 8) % 2); // 2–3 epochs
            let start = WARMUP_EPOCHS + (h >> 16) % (HORIZON_EPOCHS - WARMUP_EPOCHS - duration);
            let event = match kind {
                DisruptionKind::IxpPortFlap => pick_flap(&flap_pool, &mut used, h, start, duration),
                DisruptionKind::FacilityPower => {
                    pick_facility(&fac_pool, &mut used, kind, h, start, duration)
                }
                DisruptionKind::CrossConnectCut => {
                    pick_facility(&cut_pool, &mut used, kind, h, start, duration)
                }
            };
            if let Some(e) = event {
                events.push(e);
            }
        }
        events.sort_by_key(|e| (e.start_epoch, e.facility, e.kind));
        Self { config, events }
    }

    /// Events active during `epoch`, in schedule order.
    pub fn active(&self, epoch: u64) -> impl Iterator<Item = &Disruption> {
        self.events.iter().filter(move |e| e.active(epoch))
    }
}

/// Trims a prominence-ranked pool to its leading tier — the top quarter,
/// but never fewer than four entries (or the whole pool when smaller).
/// Events drawn from the tail of a big pool hit loci so peripheral that
/// campaigns rarely traverse them; a fault nothing can observe makes a
/// useless evaluation target.
fn shortlist<T>(mut pool: Vec<T>, len: usize) -> Vec<T> {
    pool.truncate((len / 4).max(4).min(len));
    pool
}

/// Facilities ranked by ground-truth router presence (count descending,
/// id ascending), restricted to those hosting at least two routers so a
/// power event is observable.
fn facility_pool(topo: &Topology) -> Vec<FacilityId> {
    let mut counts: Vec<usize> = vec![0; topo.facilities.len()];
    for (rid, _) in topo.routers.iter() {
        if let Some(fac) = topo.router_facility(rid) {
            counts[fac.index()] += 1;
        }
    }
    let mut pool: Vec<FacilityId> = topo
        .facilities
        .ids()
        .filter(|f| counts[f.index()] >= 2)
        .collect();
    pool.sort_by_key(|f| (usize::MAX - counts[f.index()], *f));
    let len = pool.len();
    shortlist(pool, len)
}

/// Facilities ranked by how many private point-to-point links terminate
/// there (count descending, id ascending), restricted to at least one so
/// a patch-panel cut is observable.
fn cross_connect_pool(topo: &Topology) -> Vec<FacilityId> {
    let mut counts: Vec<usize> = vec![0; topo.facilities.len()];
    for (_, link) in topo.links.iter() {
        for router in [link.a.router, link.b.router] {
            if let Some(fac) = topo.router_facility(router) {
                counts[fac.index()] += 1;
            }
        }
    }
    let mut pool: Vec<FacilityId> = topo
        .facilities
        .ids()
        .filter(|f| counts[f.index()] >= 1)
        .collect();
    pool.sort_by_key(|f| (usize::MAX - counts[f.index()], *f));
    let len = pool.len();
    shortlist(pool, len)
}

/// `(ixp, access switch, hosting facility)` triples with at least three
/// *forwarding-relevant* member ports, ranked by that count descending.
///
/// A fabric address only shows up as a traceroute hop when a path
/// crosses the exchange at that member's port, which in practice means
/// the member forwards other networks' traffic: tier-1s, transit
/// providers, and CDNs. A switch dense with on-site stub/enterprise
/// ports has a high raw port count but near-zero campaign visibility —
/// flapping it is a fault nothing can observe. Remote-peering ports are
/// excluded for the same reason the §2 discussion flags them: the
/// member's router is elsewhere, so the port is rarely on-path.
///
/// The rank is fabric size first, per-switch relevant ports second:
/// whether campaigns traverse an exchange *at all* is decided by the
/// whole fabric's prominence — paths concentrate on the largest
/// exchanges — while a regional fabric can host a transit-heavy switch
/// no campaign ever crosses. The floor of three is the detector's
/// support floor (a two-port flap can never clear `min_support`), and
/// the pool is cut to the four most prominent switches rather than the
/// usual quartile: flap picks rotate over the whole pool, so every
/// entry must sit on a fabric campaigns demonstrably cross.
fn port_flap_pool(topo: &Topology) -> Vec<(IxpId, SwitchId, FacilityId, usize)> {
    let relevant = |m: &IxpMembership| {
        m.remote_via.is_none()
            && topo.ases.get(&m.asn).is_some_and(|a| {
                matches!(a.class, AsClass::Tier1 | AsClass::Transit | AsClass::Cdn)
            })
    };
    let mut pool: Vec<(IxpId, SwitchId, FacilityId, usize)> = Vec::new();
    let mut fabric_size: Vec<usize> = Vec::new();
    for (ixp_id, ixp) in topo.ixps.iter() {
        if !ixp.active {
            continue;
        }
        for sw in &ixp.switches {
            if topo.switches[*sw].role != SwitchRole::Access {
                continue;
            }
            let ports = ixp
                .members
                .iter()
                .filter(|m| m.access_switch == *sw && relevant(m))
                .count();
            if ports >= 3 {
                pool.push((ixp_id, *sw, topo.switches[*sw].facility, ports));
                fabric_size.push(ixp.members.len());
            }
        }
    }
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.sort_by_key(|&i| {
        let (ixp, sw, _, ports) = pool[i];
        (usize::MAX - fabric_size[i], usize::MAX - ports, ixp, sw)
    });
    let mut pool: Vec<_> = order.into_iter().map(|i| pool[i]).collect();
    pool.truncate(4);
    pool
}

fn pick_facility(
    pool: &[FacilityId],
    used: &mut BTreeSet<(u8, FacilityId)>,
    kind: DisruptionKind,
    h: u64,
    start: u64,
    duration: u64,
) -> Option<Disruption> {
    if pool.is_empty() {
        return None;
    }
    let tag = kind as u8;
    let offset = ((h >> 32) as usize) % pool.len();
    (0..pool.len())
        .map(|k| pool[(offset + k) % pool.len()])
        .find(|f| used.insert((tag, *f)))
        .map(|facility| Disruption {
            kind,
            facility,
            ixp: None,
            switch: None,
            start_epoch: start,
            duration_epochs: duration,
        })
}

fn pick_flap(
    pool: &[(IxpId, SwitchId, FacilityId, usize)],
    used: &mut BTreeSet<(u8, FacilityId)>,
    h: u64,
    start: u64,
    duration: u64,
) -> Option<Disruption> {
    if pool.is_empty() {
        return None;
    }
    let tag = DisruptionKind::IxpPortFlap as u8;
    let offset = ((h >> 32) as usize) % pool.len();
    (0..pool.len())
        .map(|k| &pool[(offset + k) % pool.len()])
        .find(|(_, _, fac, _)| used.insert((tag, *fac)))
        .map(|(ixp, sw, facility, _)| Disruption {
            kind: DisruptionKind::IxpPortFlap,
            facility: *facility,
            ixp: Some(*ixp),
            switch: Some(*sw),
            start_epoch: start,
            duration_epochs: duration,
        })
}

/// The splitmix64 mix — the same seeded pure-function discipline the
/// probe and chaos planes use; no ambient RNG.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopologyConfig;

    fn topo() -> Topology {
        Topology::generate(TopologyConfig::tiny()).expect("tiny topology")
    }

    fn default_schedule(topo: &Topology) -> EventSchedule {
        EventSchedule::generate(
            topo,
            ScheduleConfig::at_intensity(11, ScheduleIntensity::Default),
        )
    }

    #[test]
    fn generation_is_deterministic() {
        let t = topo();
        let a = default_schedule(&t);
        let b = default_schedule(&t);
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.facility, y.facility);
            assert_eq!(x.start_epoch, y.start_epoch);
            assert_eq!(x.duration_epochs, y.duration_epochs);
            assert_eq!(x.dark_ips(&t), y.dark_ips(&t));
        }
    }

    #[test]
    fn events_respect_warmup_and_horizon() {
        let t = topo();
        let s = default_schedule(&t);
        assert_eq!(s.events.len(), ScheduleIntensity::Default.events());
        for e in &s.events {
            assert!(e.start_epoch >= WARMUP_EPOCHS, "{e:?} in warmup");
            assert!(e.end_epoch() < HORIZON_EPOCHS, "{e:?} past horizon");
            assert!(e.duration_epochs >= 2);
        }
    }

    #[test]
    fn every_event_darkens_something() {
        let t = topo();
        for intensity in [
            ScheduleIntensity::Light,
            ScheduleIntensity::Default,
            ScheduleIntensity::Heavy,
        ] {
            let s = EventSchedule::generate(&t, ScheduleConfig::at_intensity(7, intensity));
            assert!(!s.events.is_empty());
            for e in &s.events {
                let dark = e.dark_ips(&t);
                assert!(dark.len() >= 2, "{e:?} darkens {} ips", dark.len());
                if e.kind == DisruptionKind::IxpPortFlap {
                    assert!(e.ixp.is_some() && e.switch.is_some());
                }
            }
        }
    }

    #[test]
    fn active_window_is_closed_open() {
        let e = Disruption {
            kind: DisruptionKind::FacilityPower,
            facility: FacilityId(0),
            ixp: None,
            switch: None,
            start_epoch: 5,
            duration_epochs: 2,
        };
        assert!(!e.active(4));
        assert!(e.active(5));
        assert!(e.active(6));
        assert!(!e.active(7));
        assert_eq!(e.end_epoch(), 6);
    }
}
