//! The algorithm's output: per-interface facility verdicts, per-link
//! interconnection types, convergence history, and the router-role
//! statistics the paper reports in §5.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use cfs_types::{Asn, FacilityId, IxpId, MetroId, PeeringKind, UnresolvedReason};

use crate::engine::IterationStats;
use crate::state::{SearchOutcome, TrajectoryPoint};

/// Upper (inclusive) bounds of the [`CandidateHistogram`] size buckets
/// for interfaces still holding several candidates; sizes above the last
/// bound land in a trailing overflow bucket.
pub const CANDIDATE_BUCKET_LE: [usize; 5] = [2, 4, 8, 16, 32];

/// Distribution of candidate-set sizes across tracked interfaces at the
/// end of one CFS iteration (the convergence signal behind Figure 7:
/// mass should drain from the wide buckets into `resolved`).
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct CandidateHistogram {
    /// 1-based iteration this snapshot was taken after.
    pub iteration: usize,
    /// Interfaces with no candidate set yet (unconstrained or missing
    /// data).
    pub unconstrained: usize,
    /// Interfaces down to exactly one candidate.
    pub resolved: usize,
    /// Interfaces with > 1 candidates, bucketed by
    /// [`CANDIDATE_BUCKET_LE`] plus one overflow bucket.
    pub buckets: Vec<u64>,
}

impl CandidateHistogram {
    /// An empty histogram for the given iteration.
    pub fn new(iteration: usize) -> Self {
        Self {
            iteration,
            unconstrained: 0,
            resolved: 0,
            buckets: vec![0; CANDIDATE_BUCKET_LE.len() + 1],
        }
    }

    /// Buckets one interface's current candidate-set size (`None` when
    /// no constraint has produced a set yet).
    pub fn record(&mut self, candidates: Option<usize>) {
        match candidates {
            None | Some(0) => self.unconstrained += 1,
            Some(1) => self.resolved += 1,
            Some(n) => {
                let idx = CANDIDATE_BUCKET_LE
                    .iter()
                    .position(|b| n <= *b)
                    .unwrap_or(CANDIDATE_BUCKET_LE.len());
                self.buckets[idx] += 1;
            }
        }
    }
}

/// Convergence telemetry: how candidate sets drained, globally and per
/// interface. Lives alongside [`CfsReport::resolution_curve`], which
/// summarizes the same process as one number per iteration.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct ConvergenceTelemetry {
    /// One candidate-set-size histogram per iteration, in order.
    pub per_iteration: Vec<CandidateHistogram>,
    /// Narrowing trajectory of every interface whose candidate set ever
    /// changed: (iteration, size-after-change) pairs, oldest first.
    pub trajectories: BTreeMap<Ipv4Addr, Vec<TrajectoryPoint>>,
}

/// Final verdict for one observed peering interface.
#[derive(Clone, Debug, serde::Serialize)]
pub struct InferredInterface {
    /// The interface address.
    pub ip: Ipv4Addr,
    /// Corrected owner AS, when known.
    pub owner: Option<Asn>,
    /// The single inferred facility (when resolved).
    pub facility: Option<FacilityId>,
    /// Remaining candidates when not fully resolved.
    pub candidates: BTreeSet<FacilityId>,
    /// The metro, when all candidates agree on one (the paper pins ~9% of
    /// its unresolved interfaces to a single city this way).
    pub metro: Option<MetroId>,
    /// Outcome classification.
    pub outcome: SearchOutcome,
    /// Remote-peering verdict.
    pub remote: bool,
    /// IXPs over which the interface peers publicly.
    pub public_ixps: BTreeSet<IxpId>,
    /// Whether the interface was seen in private peerings.
    pub seen_private: bool,
    /// Iteration of resolution (1-based).
    pub resolved_at: Option<usize>,
    /// Whether the facility came from the switch-proximity fallback
    /// rather than constraint convergence.
    pub via_proximity: bool,
    /// Whether the candidate set was widened to metro-level fallback
    /// candidates after an empty intersection (DESIGN.md §9).
    pub widened: bool,
    /// Why the interface did not pin to one facility, `None` when
    /// resolved (the §9 reason taxonomy).
    pub unresolved_reason: Option<UnresolvedReason>,
}

/// Final verdict for one interconnection (deduplicated across traces).
#[derive(Clone, Debug, serde::Serialize)]
pub struct InferredLink {
    /// Near-side AS.
    pub near_asn: Asn,
    /// Near-side interface.
    pub near_ip: Ipv4Addr,
    /// Far-side AS, when identified.
    pub far_asn: Option<Asn>,
    /// Far-side interface (fabric address or point-to-point neighbour).
    pub far_ip: Option<Ipv4Addr>,
    /// Inferred engineering method.
    pub kind: PeeringKind,
    /// The exchange, for fabric-borne kinds.
    pub ixp: Option<IxpId>,
    /// Inferred near-side facility.
    pub near_facility: Option<FacilityId>,
    /// Inferred far-side facility.
    pub far_facility: Option<FacilityId>,
}

/// Router-level role statistics (§5: 39% of observed routers implement
/// both public and private peering; 11.9% of public-peering routers span
/// 2-3 exchanges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct RouterRoleStats {
    /// Observed routers (alias sets, plus singleton interfaces).
    pub routers: usize,
    /// Routers with both public and private peerings.
    pub multi_role: usize,
    /// Routers peering publicly at two or more exchanges.
    pub routers_public: usize,
    /// Of those, routers spanning ≥ 2 exchanges.
    pub multi_ixp: usize,
}

/// What one run had to absorb to produce its verdicts: retries spent,
/// probes lost for good, circuits opened, and degraded inferences
/// (DESIGN.md §9). Built from search-observable symptoms only, so the
/// ledger reads the same whether trouble came from injected faults or
/// honestly dirty data.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct DataQualityReport {
    /// Follow-up probes re-issued after a failure (retry budget spent).
    pub probes_retried: u64,
    /// Retries refused because the budget had run dry.
    pub retries_denied: u64,
    /// Probes that still carried no routing information after every
    /// retry round.
    pub failed_probes: u64,
    /// Vantage-point circuit-breaker trips over the whole run.
    pub vp_breaker_trips: u64,
    /// Interfaces whose candidates were widened to metro-level fallback
    /// sets after an empty facility intersection.
    pub widened_interfaces: u64,
    /// Single-facility verdicts withheld because the reconciled sources
    /// behind the owner's claim to that facility were contested
    /// (DESIGN.md §11). These interfaces report unresolved with a
    /// `contested_provenance` reason instead of a confident pin.
    pub contested_pins_refused: u64,
    /// Tally of unresolved-verdict reasons, keyed by
    /// [`UnresolvedReason::code`].
    pub unresolved_reasons: BTreeMap<String, u64>,
}

/// Everything the algorithm concluded.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct CfsReport {
    /// Per-interface verdicts.
    pub interfaces: BTreeMap<Ipv4Addr, InferredInterface>,
    /// Per-link verdicts.
    pub links: Vec<InferredLink>,
    /// Convergence history, one entry per CFS iteration.
    pub iterations: Vec<IterationStats>,
    /// Router role statistics.
    pub router_stats: RouterRoleStats,
    /// Total traceroutes issued (bootstrap + follow-ups).
    pub traces_issued: usize,
    /// Convergence telemetry (per-iteration candidate histograms and
    /// per-interface narrowing trajectories).
    pub convergence: ConvergenceTelemetry,
    /// Data-quality ledger: faults absorbed, retries spent, degraded
    /// inferences (DESIGN.md §9).
    pub data_quality: DataQualityReport,
    /// Knowledge-plane quality: how the public sources agreed under
    /// reconciliation — conflict taxonomy counts, mean agreement, and
    /// the per-source trust/claims table (DESIGN.md §11).
    pub kb_quality: cfs_kb::KbQuality,
}

impl CfsReport {
    /// Number of interfaces resolved to exactly one facility.
    pub fn resolved(&self) -> usize {
        self.interfaces
            .values()
            .filter(|i| i.facility.is_some())
            .count()
    }

    /// Number of peering interfaces tracked.
    pub fn total(&self) -> usize {
        self.interfaces.len()
    }

    /// Fraction resolved.
    pub fn resolved_fraction(&self) -> f64 {
        if self.interfaces.is_empty() {
            return 0.0;
        }
        self.resolved() as f64 / self.total() as f64
    }

    /// Interfaces not resolved to a facility but pinned to a single
    /// metro.
    pub fn city_constrained(&self) -> usize {
        self.interfaces
            .values()
            .filter(|i| i.facility.is_none() && i.metro.is_some() && !i.candidates.is_empty())
            .count()
    }

    /// Unresolved interfaces whose owner had no facility data at all.
    pub fn missing_data(&self) -> usize {
        self.interfaces
            .values()
            .filter(|i| i.outcome == SearchOutcome::MissingData)
            .count()
    }

    /// Distinct interfaces of one owner AS by peering kind (Figure 10
    /// rows). An AS's interfaces appear on the *near* side when traces
    /// leave it and on the *far* side (fabric or point-to-point
    /// addresses) when traces enter it; both count. An interface seen
    /// under several kinds lands in its most frequent one.
    pub fn interfaces_by_kind(&self, owner: Asn) -> BTreeMap<PeeringKind, usize> {
        let mut votes: BTreeMap<Ipv4Addr, BTreeMap<PeeringKind, usize>> = BTreeMap::new();
        for link in &self.links {
            if link.near_asn == owner {
                *votes
                    .entry(link.near_ip)
                    .or_default()
                    .entry(link.kind)
                    .or_default() += 1;
            }
            if link.far_asn == Some(owner) {
                if let Some(far_ip) = link.far_ip {
                    // Public kinds are re-read from the far side's own
                    // remote verdict: the near side being local says
                    // nothing about the far port.
                    let kind = if link.kind.is_public() {
                        match self.interfaces.get(&far_ip).map(|i| i.remote) {
                            Some(true) => PeeringKind::PublicRemote,
                            _ => PeeringKind::PublicLocal,
                        }
                    } else {
                        link.kind
                    };
                    *votes.entry(far_ip).or_default().entry(kind).or_default() += 1;
                }
            }
        }
        let mut out: BTreeMap<PeeringKind, usize> = BTreeMap::new();
        for (_, kinds) in votes {
            if let Some((kind, _)) = kinds
                .into_iter()
                .max_by_key(|(k, n)| (*n, std::cmp::Reverse(*k)))
            {
                *out.entry(kind).or_default() += 1;
            }
        }
        out
    }

    /// Like [`CfsReport::interfaces_by_kind`], but returning the
    /// interface addresses per kind (the experiment harness needs their
    /// inferred facilities for regional breakdowns).
    pub fn interfaces_of_owner(&self, owner: Asn) -> BTreeMap<Ipv4Addr, PeeringKind> {
        let mut votes: BTreeMap<Ipv4Addr, BTreeMap<PeeringKind, usize>> = BTreeMap::new();
        for link in &self.links {
            if link.near_asn == owner {
                *votes
                    .entry(link.near_ip)
                    .or_default()
                    .entry(link.kind)
                    .or_default() += 1;
            }
            if link.far_asn == Some(owner) {
                if let Some(far_ip) = link.far_ip {
                    let kind = if link.kind.is_public() {
                        match self.interfaces.get(&far_ip).map(|i| i.remote) {
                            Some(true) => PeeringKind::PublicRemote,
                            _ => PeeringKind::PublicLocal,
                        }
                    } else {
                        link.kind
                    };
                    *votes.entry(far_ip).or_default().entry(kind).or_default() += 1;
                }
            }
        }
        votes
            .into_iter()
            .filter_map(|(ip, kinds)| {
                kinds
                    .into_iter()
                    .max_by_key(|(k, n)| (*n, std::cmp::Reverse(*k)))
                    .map(|(kind, _)| (ip, kind))
            })
            .collect()
    }

    /// Cumulative resolved fraction per iteration (Figure 7 series).
    pub fn resolution_curve(&self) -> Vec<f64> {
        let total = self.total().max(1) as f64;
        self.iterations
            .iter()
            .map(|s| s.resolved as f64 / total)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iface(ip: &str, fac: Option<u32>) -> InferredInterface {
        InferredInterface {
            ip: ip.parse().unwrap(),
            owner: Some(Asn(65_000)),
            facility: fac.map(FacilityId::new),
            candidates: fac.map(FacilityId::new).into_iter().collect(),
            metro: None,
            outcome: if fac.is_some() {
                SearchOutcome::Resolved
            } else {
                SearchOutcome::MissingData
            },
            remote: false,
            public_ixps: BTreeSet::new(),
            seen_private: false,
            resolved_at: fac.map(|_| 1),
            via_proximity: false,
            widened: false,
            unresolved_reason: if fac.is_some() {
                None
            } else {
                Some(UnresolvedReason::NoFacilityData)
            },
        }
    }

    #[test]
    fn counters_add_up() {
        let mut interfaces = BTreeMap::new();
        for (i, fac) in [(0, Some(1)), (1, Some(2)), (2, None)] {
            let ip = format!("10.0.0.{i}");
            interfaces.insert(ip.parse().unwrap(), iface(&ip, fac));
        }
        let report = CfsReport {
            interfaces,
            links: Vec::new(),
            iterations: vec![
                IterationStats {
                    iteration: 1,
                    resolved: 1,
                    tracked: 3,
                    traces_issued: 0,
                },
                IterationStats {
                    iteration: 2,
                    resolved: 2,
                    tracked: 3,
                    traces_issued: 5,
                },
            ],
            router_stats: RouterRoleStats::default(),
            traces_issued: 5,
            convergence: ConvergenceTelemetry::default(),
            data_quality: DataQualityReport::default(),
            kb_quality: Default::default(),
        };
        assert_eq!(report.resolved(), 2);
        assert_eq!(report.total(), 3);
        assert!((report.resolved_fraction() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(report.missing_data(), 1);
        let curve = report.resolution_curve();
        assert_eq!(curve.len(), 2);
        assert!(curve[1] > curve[0]);
    }

    #[test]
    fn resolution_curve_shape_is_pinned() {
        // Four tracked interfaces, resolved counts 1 → 2 → 4 across
        // three iterations: the curve is exactly [0.25, 0.5, 1.0] and
        // never decreases.
        let mut interfaces = BTreeMap::new();
        for i in 0..4 {
            let ip = format!("10.0.1.{i}");
            interfaces.insert(ip.parse().unwrap(), iface(&ip, Some(i)));
        }
        let iterations = [1usize, 2, 4]
            .iter()
            .enumerate()
            .map(|(i, resolved)| IterationStats {
                iteration: i + 1,
                resolved: *resolved,
                tracked: 4,
                traces_issued: 0,
            })
            .collect();
        let report = CfsReport {
            interfaces,
            links: Vec::new(),
            iterations,
            router_stats: RouterRoleStats::default(),
            traces_issued: 0,
            convergence: ConvergenceTelemetry::default(),
            data_quality: DataQualityReport::default(),
            kb_quality: Default::default(),
        };
        assert_eq!(report.resolution_curve(), vec![0.25, 0.5, 1.0]);
        let curve = report.resolution_curve();
        assert!(curve.windows(2).all(|w| w[0] <= w[1]), "must be monotone");

        // Degenerate report: no interfaces, no iterations — empty curve,
        // and the max(1) guard keeps the division finite.
        let empty = CfsReport {
            interfaces: BTreeMap::new(),
            links: Vec::new(),
            iterations: Vec::new(),
            router_stats: RouterRoleStats::default(),
            traces_issued: 0,
            convergence: ConvergenceTelemetry::default(),
            data_quality: DataQualityReport::default(),
            kb_quality: Default::default(),
        };
        assert!(empty.resolution_curve().is_empty());
    }

    #[test]
    fn candidate_histogram_buckets_sizes() {
        let mut h = CandidateHistogram::new(3);
        for size in [None, Some(0), Some(1), Some(2), Some(3), Some(33)] {
            h.record(size);
        }
        assert_eq!(h.iteration, 3);
        assert_eq!(h.unconstrained, 2);
        assert_eq!(h.resolved, 1);
        assert_eq!(h.buckets, vec![1, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn interfaces_by_kind_groups_links() {
        let report = CfsReport {
            interfaces: BTreeMap::new(),
            links: vec![
                InferredLink {
                    near_asn: Asn(1),
                    near_ip: "10.0.0.1".parse().unwrap(),
                    far_asn: Some(Asn(2)),
                    far_ip: None,
                    kind: PeeringKind::PublicLocal,
                    ixp: Some(IxpId::new(0)),
                    near_facility: None,
                    far_facility: None,
                },
                InferredLink {
                    near_asn: Asn(1),
                    near_ip: "10.0.0.2".parse().unwrap(),
                    far_asn: Some(Asn(3)),
                    far_ip: None,
                    kind: PeeringKind::PrivateCrossConnect,
                    ixp: None,
                    near_facility: None,
                    far_facility: None,
                },
            ],
            iterations: Vec::new(),
            router_stats: RouterRoleStats::default(),
            traces_issued: 0,
            convergence: ConvergenceTelemetry::default(),
            data_quality: DataQualityReport::default(),
            kb_quality: Default::default(),
        };
        let by_kind = report.interfaces_by_kind(Asn(1));
        assert_eq!(by_kind[&PeeringKind::PublicLocal], 1);
        assert_eq!(by_kind[&PeeringKind::PrivateCrossConnect], 1);
        assert!(report.interfaces_by_kind(Asn(9)).is_empty());
    }
}
