//! Per-epoch feature extraction.
//!
//! The session's inference state is cumulative — observations never
//! expire, so `resolved` does not fall when a building goes dark. What
//! *does* change during a disruption is **visibility**: which of the
//! tracked interfaces answered probes this epoch. [`EpochObservation`]
//! captures the raw per-epoch measurement surface (hop addresses,
//! reached fraction) before the batch is consumed by the session, and
//! [`EpochFeatures`] buckets it against the current report: per inferred
//! facility, per private-peering subset, per IXP fabric, plus the
//! campaign-level scalars.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use cfs_core::CfsReport;
use cfs_traceroute::Trace;
use cfs_types::{FacilityId, IxpId};

/// The raw measurement surface of one epoch's campaign, captured from
/// the traceroute batch before the session absorbs it.
#[derive(Clone, Debug, Default)]
pub struct EpochObservation {
    /// The disruption epoch (campaign index).
    pub epoch: u64,
    /// Every hop address that answered in the batch, sorted and
    /// deduplicated (look one up with `binary_search`).
    pub hop_ips: Vec<Ipv4Addr>,
    /// Number of traces in the batch.
    pub traces: u64,
    /// Number of traces that reached their target.
    pub reached: u64,
}

impl EpochObservation {
    /// Summarizes `traces` as epoch `epoch`'s observation.
    pub fn from_traces(epoch: u64, traces: &[Trace]) -> Self {
        let mut hop_ips: Vec<Ipv4Addr> = traces
            .iter()
            .flat_map(|t| t.hops.iter().filter_map(|h| h.ip))
            .collect();
        hop_ips.sort_unstable();
        hop_ips.dedup();
        let reached = traces.iter().filter(|t| t.reached).count() as u64;
        Self {
            epoch,
            hop_ips,
            traces: traces.len() as u64,
            reached,
        }
    }
}

/// Visibility of one interface bucket: how many of its tracked members
/// answered this epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Visibility {
    /// Members whose address appeared as a hop this epoch.
    pub visible: u64,
    /// Members in the bucket.
    pub tracked: u64,
}

impl Visibility {
    /// Visibility as per-mille of the bucket (1000 when empty — an
    /// empty bucket is vacuously healthy).
    pub fn per_mille(&self) -> u64 {
        (self.visible * 1000)
            .checked_div(self.tracked)
            .unwrap_or(1000)
    }
}

/// Visibility of one IXP fabric plus the localization hint: the inferred
/// facilities of the member interfaces that went missing.
#[derive(Clone, Debug, Default)]
pub struct IxpVisibility {
    /// The fabric-wide visibility.
    pub vis: Visibility,
    /// Inferred facilities of tracked-but-invisible member interfaces.
    /// When every missing port pins to one facility, the candidate-set
    /// churn localizes the flap to that building.
    pub missing_facilities: BTreeSet<FacilityId>,
}

/// One epoch's detector input: the observation bucketed by the report's
/// current inference.
#[derive(Clone, Debug)]
pub struct EpochFeatures {
    /// The disruption epoch.
    pub epoch: u64,
    /// Fraction of campaign traces that reached their target, per-mille.
    pub reached_pm: u64,
    /// Fraction of tracked interfaces resolved to a facility, per-mille.
    pub resolution_pm: u64,
    /// Interfaces tracked in total (support for the campaign-level
    /// scalars).
    pub tracked: u64,
    /// Per-facility visibility over every interface inferred there.
    pub facility: BTreeMap<FacilityId, Visibility>,
    /// Per-facility visibility over the private-peering subset.
    pub facility_private: BTreeMap<FacilityId, Visibility>,
    /// Per-exchange visibility over member fabric interfaces.
    pub ixp: BTreeMap<IxpId, IxpVisibility>,
    /// Per-exchange visibility sliced by the members' inferred
    /// facilities. A port flap on one access switch darkens the members
    /// patched there — typically pinned to the switch's building — so
    /// this slice collapses outright even when the exchange-wide bucket
    /// barely moves (large fabrics dilute a single switch).
    pub ixp_facility: BTreeMap<(IxpId, FacilityId), Visibility>,
}

/// Buckets `obs` against `report`'s inference state.
pub fn extract(obs: &EpochObservation, report: &CfsReport) -> EpochFeatures {
    let mut facility: BTreeMap<FacilityId, Visibility> = BTreeMap::new();
    let mut facility_private: BTreeMap<FacilityId, Visibility> = BTreeMap::new();
    let mut ixp: BTreeMap<IxpId, IxpVisibility> = BTreeMap::new();
    let mut ixp_facility: BTreeMap<(IxpId, FacilityId), Visibility> = BTreeMap::new();

    for (ip, iface) in &report.interfaces {
        let visible = obs.hop_ips.binary_search(ip).is_ok();
        if let Some(fac) = iface.facility {
            let v = facility.entry(fac).or_default();
            v.tracked += 1;
            v.visible += u64::from(visible);
            if iface.seen_private {
                let v = facility_private.entry(fac).or_default();
                v.tracked += 1;
                v.visible += u64::from(visible);
            }
        }
        for x in &iface.public_ixps {
            let v = ixp.entry(*x).or_default();
            v.vis.tracked += 1;
            v.vis.visible += u64::from(visible);
            if !visible {
                if let Some(fac) = iface.facility {
                    v.missing_facilities.insert(fac);
                }
            }
            if let Some(fac) = iface.facility {
                let slice = ixp_facility.entry((*x, fac)).or_default();
                slice.tracked += 1;
                slice.visible += u64::from(visible);
            }
        }
    }

    let reached_pm = (obs.reached * 1000).checked_div(obs.traces).unwrap_or(1000);
    let tracked = report.total() as u64;
    let resolution_pm = (report.resolved() as u64 * 1000)
        .checked_div(tracked)
        .unwrap_or(1000);

    EpochFeatures {
        epoch: obs.epoch,
        reached_pm,
        resolution_pm,
        tracked,
        facility,
        facility_private,
        ixp,
        ixp_facility,
    }
}
