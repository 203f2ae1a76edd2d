//! Per-interface search state: the candidate facility sets the algorithm
//! progressively narrows.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use cfs_types::{Asn, FacilityId, FacilitySet, IxpId, UnresolvedReason};

/// The paper's Step 2 outcome taxonomy for one interface.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum SearchOutcome {
    /// Converged to exactly one facility.
    Resolved,
    /// Constrained to a set of local candidates (> 1).
    UnresolvedLocal,
    /// Inferred to peer remotely: candidates are wherever the owner AS
    /// has presence, far from the counterparty.
    UnresolvedRemote,
    /// No usable facility data for the owner (33% of the paper's
    /// unresolved interfaces had none).
    MissingData,
}

/// One step of an interface's narrowing trajectory: the candidate-set
/// size right after a constraint changed it (§4's convergence signal,
/// exported through `CfsReport::convergence`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct TrajectoryPoint {
    /// 1-based iteration the change happened in.
    pub iteration: usize,
    /// Candidate facilities remaining after the change.
    pub candidates: usize,
}

/// Search state of one observed peering interface.
#[derive(Clone, Debug)]
pub struct IfaceState {
    /// The interface address.
    pub ip: Ipv4Addr,
    /// Corrected owner AS (post alias majority vote), when known.
    pub owner: Option<Asn>,
    /// Current candidate facilities. `None` until the first constraint is
    /// applied. Interned sets make the clone here a reference-count bump.
    pub candidates: Option<FacilitySet>,
    /// Whether the RTT test flagged this interface as a remote peer.
    pub remote: bool,
    /// Whether any constraint could not be computed for lack of data.
    pub missing_data: bool,
    /// Whether the candidate set was widened to metro-level fallback
    /// candidates after an empty facility intersection (DESIGN.md §9).
    pub widened: bool,
    /// Whether a public-crossing constraint was withheld because the
    /// IXP-hop evidence behind it was weak or contested (DESIGN.md §11)
    /// — the interface kept the wider owner-footprint candidates.
    pub evidence_gated: bool,
    /// First degradation symptom observed for this interface, if any.
    /// [`IfaceState::final_reason`] folds it into the verdict taxonomy.
    pub reason: Option<UnresolvedReason>,
    /// Number of constraints whose intersection would have been empty
    /// (kept for diagnostics; the offending constraint is dropped).
    pub conflicts: usize,
    /// IXPs over which this interface was seen peering publicly.
    pub public_ixps: BTreeSet<IxpId>,
    /// Whether the interface was seen in a private adjacency.
    pub seen_private: bool,
    /// Iteration at which the interface resolved (1-based), if it did.
    pub resolved_at: Option<usize>,
    /// Every point at which a constraint changed the candidate set:
    /// the interface's narrowing trajectory, oldest first.
    pub trajectory: Vec<TrajectoryPoint>,
}

impl IfaceState {
    /// Fresh state for an interface.
    pub fn new(ip: Ipv4Addr, owner: Option<Asn>) -> Self {
        Self {
            ip,
            owner,
            candidates: None,
            remote: false,
            missing_data: false,
            widened: false,
            evidence_gated: false,
            reason: None,
            conflicts: 0,
            public_ixps: BTreeSet::new(),
            seen_private: false,
            resolved_at: None,
            trajectory: Vec::new(),
        }
    }

    /// The single facility, when resolved.
    pub fn facility(&self) -> Option<FacilityId> {
        self.candidates.as_ref().and_then(FacilitySet::single)
    }

    /// Current outcome classification.
    pub fn outcome(&self) -> SearchOutcome {
        match &self.candidates {
            Some(set) if set.len() == 1 => SearchOutcome::Resolved,
            Some(set) if !set.is_empty() => {
                if self.remote {
                    SearchOutcome::UnresolvedRemote
                } else {
                    SearchOutcome::UnresolvedLocal
                }
            }
            _ if self.missing_data => SearchOutcome::MissingData,
            _ if self.remote => SearchOutcome::UnresolvedRemote,
            _ => SearchOutcome::MissingData,
        }
    }

    /// Why the interface is not pinned to exactly one facility, `None`
    /// when it resolved. The first recorded symptom wins; conflicts and
    /// plain ambiguity are the fallbacks when no sharper reason was seen.
    pub fn final_reason(&self) -> Option<UnresolvedReason> {
        match self.outcome() {
            SearchOutcome::Resolved => None,
            SearchOutcome::UnresolvedRemote => Some(UnresolvedReason::RemotePeer),
            SearchOutcome::MissingData => {
                Some(self.reason.unwrap_or(UnresolvedReason::NoFacilityData))
            }
            SearchOutcome::UnresolvedLocal => Some(self.reason.unwrap_or(if self.conflicts > 0 {
                UnresolvedReason::ConstraintConflict
            } else {
                UnresolvedReason::AmbiguousCandidates
            })),
        }
    }

    /// Applies a constraint: intersects the candidate set with `allowed`,
    /// recording the iteration on resolution. An empty intersection is a
    /// conflict (incomplete data, §5/Figure 8): the constraint is dropped
    /// and counted rather than wiping the state.
    ///
    /// Returns `true` when the state changed.
    pub fn constrain(&mut self, allowed: &FacilitySet, iteration: usize) -> bool {
        if allowed.is_empty() {
            self.missing_data = true;
            self.reason.get_or_insert(UnresolvedReason::NoFacilityData);
            return false;
        }
        match &mut self.candidates {
            None => {
                self.candidates = Some(allowed.clone());
                if allowed.len() == 1 {
                    self.resolved_at.get_or_insert(iteration);
                }
                self.trajectory.push(TrajectoryPoint {
                    iteration,
                    candidates: allowed.len(),
                });
                true
            }
            Some(current) => {
                let intersection = current.intersect(allowed);
                if intersection.is_empty() {
                    self.conflicts += 1;
                    return false;
                }
                if intersection.len() == current.len() {
                    return false;
                }
                let resolved_now = intersection.len() == 1;
                *current = intersection;
                if resolved_now {
                    self.resolved_at.get_or_insert(iteration);
                }
                self.trajectory.push(TrajectoryPoint {
                    iteration,
                    candidates: current.len(),
                });
                true
            }
        }
    }
}

/// Every tracked interface's state, each in a boxed slot whose index
/// never changes: the constraint kernel's compiled observations address
/// states by slot, while lookups and iteration go by address, in address
/// order. An address claims its slot once; removing its state empties
/// the slot and keeps the claim, so re-creating the state refills it.
/// Boxing keeps a slot at one pointer, so growing the slot list never
/// copies or doubles the states themselves (DESIGN.md §5).
#[derive(Default)]
pub(crate) struct States {
    by_ip: BTreeMap<Ipv4Addr, u32>,
    ips: Vec<Ipv4Addr>,
    slots: Vec<Option<Box<IfaceState>>>,
    live: usize,
}

impl States {
    /// The slot `ip` claims, claiming a fresh (empty) one on first use.
    pub(crate) fn slot(&mut self, ip: Ipv4Addr) -> u32 {
        *self.by_ip.entry(ip).or_insert_with(|| {
            self.ips.push(ip);
            self.slots.push(None);
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 interfaces")
        })
    }

    /// The state in `slot`, created for `owner` when the slot is empty;
    /// an existing state without an owner takes `owner`.
    pub(crate) fn at(&mut self, slot: u32, owner: Asn) -> &mut IfaceState {
        let i = slot as usize;
        let state = self.slots[i].get_or_insert_with(|| {
            self.live += 1;
            Box::new(IfaceState::new(self.ips[i], Some(owner)))
        });
        state.owner.get_or_insert(owner);
        state
    }

    /// The address that claimed `slot`.
    pub(crate) fn ip(&self, slot: u32) -> Ipv4Addr {
        self.ips[slot as usize]
    }

    /// [`States::at`] by address (the reference CFS's access; the engine
    /// goes through compiled slots).
    #[cfg(test)]
    pub(crate) fn get_or_insert(&mut self, ip: Ipv4Addr, owner: Asn) -> &mut IfaceState {
        let slot = self.slot(ip);
        self.at(slot, owner)
    }

    pub(crate) fn get(&self, ip: &Ipv4Addr) -> Option<&IfaceState> {
        self.slots[*self.by_ip.get(ip)? as usize].as_deref()
    }

    pub(crate) fn get_mut(&mut self, ip: &Ipv4Addr) -> Option<&mut IfaceState> {
        self.slots[*self.by_ip.get(ip)? as usize].as_deref_mut()
    }

    /// Drops the state of `ip`, keeping its slot.
    pub(crate) fn remove(&mut self, ip: &Ipv4Addr) {
        if let Some(slot) = self.by_ip.get(ip) {
            self.live -= usize::from(self.slots[*slot as usize].take().is_some());
        }
    }

    /// Live states (empty slots do not count).
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Live states in address order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Ipv4Addr, &IfaceState)> {
        let slots = &self.slots;
        self.by_ip
            .iter()
            .filter_map(|(ip, slot)| Some((ip, slots[*slot as usize].as_deref()?)))
    }

    /// Live states in address order, with their slots.
    pub(crate) fn slots(&self) -> impl Iterator<Item = (u32, &IfaceState)> {
        let slots = &self.slots;
        self.by_ip
            .values()
            .filter_map(|slot| Some((*slot, slots[*slot as usize].as_deref()?)))
    }

    /// Live states in address order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &IfaceState> {
        self.iter().map(|(_, state)| state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip() -> Ipv4Addr {
        "192.0.2.1".parse().unwrap()
    }

    fn set(ids: &[u32]) -> FacilitySet {
        ids.iter().map(|i| FacilityId::new(*i)).collect()
    }

    #[test]
    fn first_constraint_initializes() {
        let mut s = IfaceState::new(ip(), Some(Asn(65_001)));
        assert_eq!(s.outcome(), SearchOutcome::MissingData);
        assert!(s.constrain(&set(&[1, 2, 3]), 1));
        assert_eq!(s.outcome(), SearchOutcome::UnresolvedLocal);
        assert_eq!(s.facility(), None);
    }

    #[test]
    fn intersection_narrows_until_resolved() {
        let mut s = IfaceState::new(ip(), None);
        s.constrain(&set(&[1, 2, 5]), 1);
        assert!(s.constrain(&set(&[2, 5, 9]), 2));
        assert_eq!(s.candidates.as_ref().unwrap().len(), 2);
        assert!(s.constrain(&set(&[2]), 3));
        assert_eq!(s.outcome(), SearchOutcome::Resolved);
        assert_eq!(s.facility(), Some(FacilityId::new(2)));
        assert_eq!(s.resolved_at, Some(3));
    }

    #[test]
    fn single_facility_first_constraint_resolves_at_iteration_one() {
        let mut s = IfaceState::new(ip(), None);
        s.constrain(&set(&[7]), 1);
        assert_eq!(s.outcome(), SearchOutcome::Resolved);
        assert_eq!(s.resolved_at, Some(1));
    }

    #[test]
    fn conflicting_constraint_is_dropped_not_applied() {
        let mut s = IfaceState::new(ip(), None);
        s.constrain(&set(&[1, 2]), 1);
        assert!(!s.constrain(&set(&[8, 9]), 2));
        assert_eq!(s.conflicts, 1);
        assert_eq!(s.candidates.as_ref().unwrap().len(), 2, "state preserved");
    }

    #[test]
    fn empty_constraint_marks_missing_data() {
        let mut s = IfaceState::new(ip(), None);
        assert!(!s.constrain(&FacilitySet::empty(), 1));
        assert!(s.missing_data);
        assert_eq!(s.outcome(), SearchOutcome::MissingData);
    }

    #[test]
    fn remote_flag_shapes_outcome() {
        let mut s = IfaceState::new(ip(), None);
        s.remote = true;
        assert_eq!(s.outcome(), SearchOutcome::UnresolvedRemote);
        s.constrain(&set(&[1, 2]), 1);
        assert_eq!(s.outcome(), SearchOutcome::UnresolvedRemote);
        s.constrain(&set(&[1]), 2);
        assert_eq!(s.outcome(), SearchOutcome::Resolved);
    }

    #[test]
    fn trajectory_records_every_narrowing_step() {
        let mut s = IfaceState::new(ip(), None);
        s.constrain(&set(&[1, 2, 5]), 1);
        s.constrain(&set(&[1, 2, 5]), 2); // no change: no point
        s.constrain(&set(&[8, 9]), 3); // conflict: no point
        s.constrain(&set(&[2, 5]), 4);
        s.constrain(&set(&[5]), 6);
        assert_eq!(
            s.trajectory,
            vec![
                TrajectoryPoint {
                    iteration: 1,
                    candidates: 3
                },
                TrajectoryPoint {
                    iteration: 4,
                    candidates: 2
                },
                TrajectoryPoint {
                    iteration: 6,
                    candidates: 1
                },
            ]
        );
    }

    #[test]
    fn final_reason_tracks_outcome() {
        let mut s = IfaceState::new(ip(), None);
        assert_eq!(s.final_reason(), Some(UnresolvedReason::NoFacilityData));
        s.constrain(&set(&[1, 2]), 1);
        assert_eq!(
            s.final_reason(),
            Some(UnresolvedReason::AmbiguousCandidates)
        );
        s.constrain(&set(&[8, 9]), 2); // conflict, dropped
        assert_eq!(s.final_reason(), Some(UnresolvedReason::ConstraintConflict));
        s.reason = Some(UnresolvedReason::EmptyIntersection);
        assert_eq!(s.final_reason(), Some(UnresolvedReason::EmptyIntersection));
        s.constrain(&set(&[2]), 3);
        assert_eq!(s.final_reason(), None, "resolved clears the reason");
        s.remote = true;
        s.candidates = Some(set(&[1, 2]));
        assert_eq!(s.final_reason(), Some(UnresolvedReason::RemotePeer));
    }

    #[test]
    fn resolved_at_does_not_regress() {
        let mut s = IfaceState::new(ip(), None);
        s.constrain(&set(&[4]), 2);
        s.constrain(&set(&[4]), 9);
        assert_eq!(s.resolved_at, Some(2));
    }

    /// What `Cfs::kernel_converge` does to a scoped interface: its state
    /// is removed, then the scoped pass re-creates it through the slot its
    /// compiled observations hold.
    #[test]
    fn a_slot_survives_remove_then_recreate() {
        let (a, b) = (ip(), "192.0.2.2".parse().unwrap());
        let mut states = States::default();
        let slot = states.slot(a);
        states.at(slot, Asn(65_001)).constrain(&set(&[1, 2]), 1);
        states.remove(&a);
        assert!(states.get(&a).is_none());
        assert_ne!(states.slot(b), slot, "a later address took the empty slot");
        assert_eq!(states.slot(a), slot);
        let fresh = states.at(slot, Asn(65_002));
        assert_eq!((fresh.ip, fresh.owner), (a, Some(Asn(65_002))));
        assert!(fresh.candidates.is_none(), "the old state came back");
        assert!(states.get(&a).is_some());
    }

    #[test]
    fn len_counts_live_states_only() {
        let (a, b) = (ip(), "192.0.2.2".parse().unwrap());
        let mut states = States::default();
        let slot = states.slot(a);
        states.slot(b);
        assert_eq!(states.len(), 0, "a claimed slot is not a state");
        states.at(slot, Asn(65_001));
        states.at(slot, Asn(65_001));
        assert_eq!(states.len(), 1);
        states.get_or_insert(b, Asn(65_001));
        assert_eq!(states.len(), 2);
        states.remove(&a);
        states.remove(&a);
        assert_eq!(states.len(), 1);
        assert_eq!(states.iter().count(), states.len());
    }

    #[test]
    fn iteration_is_in_address_order() {
        let ips: Vec<Ipv4Addr> = ["10.0.0.9", "10.0.0.1", "192.0.2.1", "10.0.0.5"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let mut states = States::default();
        for ip in &ips {
            states.get_or_insert(*ip, Asn(65_001));
        }
        let mut sorted = ips.clone();
        sorted.sort_unstable();
        let keys: Vec<Ipv4Addr> = states.iter().map(|(ip, _)| *ip).collect();
        assert_eq!(keys, sorted);
        let values: Vec<Ipv4Addr> = states.values().map(|s| s.ip).collect();
        assert_eq!(values, sorted);
    }

    proptest::proptest! {
        /// Candidate sets never grow.
        #[test]
        fn prop_candidates_shrink_monotonically(
            constraints in proptest::collection::vec(
                proptest::collection::btree_set(0u32..12, 1..6),
                1..8
            )
        ) {
            let mut s = IfaceState::new("10.0.0.1".parse().unwrap(), None);
            let mut last_len: Option<usize> = None;
            for (i, raw) in constraints.iter().enumerate() {
                let facs: FacilitySet =
                    raw.iter().map(|x| FacilityId::new(*x)).collect();
                s.constrain(&facs, i + 1);
                if let Some(set) = &s.candidates {
                    if let Some(prev) = last_len {
                        proptest::prop_assert!(set.len() <= prev);
                    }
                    proptest::prop_assert!(!set.is_empty());
                    last_len = Some(set.len());
                }
            }
        }

        /// A resolved facility is a member of every constraint that was
        /// actually applied (non-conflicting).
        #[test]
        fn prop_resolution_consistent_with_applied_constraints(
            constraints in proptest::collection::vec(
                proptest::collection::btree_set(0u32..6, 1..4),
                1..6
            )
        ) {
            let mut s = IfaceState::new("10.0.0.1".parse().unwrap(), None);
            let mut applied: Vec<FacilitySet> = Vec::new();
            for (i, raw) in constraints.iter().enumerate() {
                let facs: FacilitySet =
                    raw.iter().map(|x| FacilityId::new(*x)).collect();
                let before = s.conflicts;
                s.constrain(&facs, i + 1);
                if s.conflicts == before {
                    applied.push(facs);
                }
            }
            if let Some(f) = s.facility() {
                for c in &applied {
                    proptest::prop_assert!(c.contains(f));
                }
            }
        }
    }
}
