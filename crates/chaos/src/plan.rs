//! Fault profiles and the seeded, stateless fault plan.

use crate::splitmix64;

/// Per-mille ceiling: probabilities are expressed as integers in
/// `0..=1000` so profiles stay hashable, exact, and composable without
/// floating point.
const PM: u64 = 1000;

/// Knobs for one fault dimension set, expressed in per-mille (`0..=1000`).
///
/// Profiles are plain data: compose them with [`FaultProfile::merge`],
/// look named ones up with [`FaultProfile::named`], or parse a
/// `+`-separated spec (`"flaky+stale-kb"`) with [`FaultProfile::parse`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultProfile {
    // ---- measurement plane ----
    /// Probability a vantage point is dark for a given outage window.
    pub vp_outage_pm: u32,
    /// Length of a VP outage window in virtual milliseconds.
    pub outage_window_ms: u64,
    /// Per-probe transient timeout probability (the whole probe, not a
    /// single hop, is lost; a retry at a different instant can succeed).
    pub probe_timeout_pm: u32,
    /// Per-router *persistent* silence: the router never answers for the
    /// lifetime of the plan, so retries cannot help.
    pub router_silent_pm: u32,
    /// Probability a router is in an ICMP rate-limiting episode for a
    /// given time slot.
    pub rate_limit_episode_pm: u32,
    /// Fraction of probes dropped while an episode is active (the
    /// slotted token bucket's over-budget share).
    pub rate_limit_drop_pm: u32,
    /// Width of a rate-limit time slot in virtual milliseconds.
    pub rate_limit_slot_ms: u64,
    /// Per-trace probability the path is truncated mid-way.
    pub truncate_pm: u32,
    /// Per-trace probability a forwarding loop repeats the tail hops.
    pub loop_pm: u32,
    // ---- knowledge plane ----
    /// Per-member probability an IXP member row lags out of the KB
    /// snapshot (stale member lists).
    pub kb_member_lag_pm: u32,
    /// Per-facility probability the facility record vanished from the
    /// snapshot.
    pub kb_facility_loss_pm: u32,
    /// Per-network probability the PeeringDB record self-contradicts
    /// (facility list rewritten with plausible-but-wrong entries).
    pub kb_conflict_pm: u32,
    /// Width of the knowledge-plane refresh window in virtual
    /// milliseconds. Zero means the KB snapshot is coherent (every
    /// record fetched at the same instant); non-zero places one seeded
    /// *flip instant* inside the window and assigns every record a
    /// seeded fetch instant, so records land in a pre- or post-refresh
    /// epoch — a torn snapshot, the `mid-kb-refresh` failure mode.
    pub kb_refresh_window_ms: u64,
}

impl FaultProfile {
    /// The all-zero profile: injects nothing.
    #[must_use]
    pub const fn off() -> Self {
        Self {
            vp_outage_pm: 0,
            outage_window_ms: 3_600_000,
            probe_timeout_pm: 0,
            router_silent_pm: 0,
            rate_limit_episode_pm: 0,
            rate_limit_drop_pm: 0,
            rate_limit_slot_ms: 600_000,
            truncate_pm: 0,
            loop_pm: 0,
            kb_member_lag_pm: 0,
            kb_facility_loss_pm: 0,
            kb_conflict_pm: 0,
            kb_refresh_window_ms: 0,
        }
    }

    /// The standard mixed profile (`--faults default`): a little of
    /// everything, calibrated so a tiny-scale run still resolves most
    /// interfaces — dirty data, not a dead measurement plane.
    #[must_use]
    pub const fn standard() -> Self {
        Self {
            vp_outage_pm: 30,
            probe_timeout_pm: 30,
            router_silent_pm: 20,
            rate_limit_episode_pm: 100,
            rate_limit_drop_pm: 400,
            truncate_pm: 20,
            loop_pm: 10,
            kb_member_lag_pm: 30,
            kb_facility_loss_pm: 10,
            kb_conflict_pm: 20,
            ..Self::off()
        }
    }

    /// Measurement-plane-only noise: flapping probes and rate limiting,
    /// clean knowledge base.
    #[must_use]
    pub const fn flaky() -> Self {
        Self {
            vp_outage_pm: 50,
            probe_timeout_pm: 80,
            rate_limit_episode_pm: 200,
            rate_limit_drop_pm: 500,
            truncate_pm: 50,
            loop_pm: 30,
            ..Self::off()
        }
    }

    /// Infrastructure going dark: long VP outages plus persistently
    /// silent routers.
    #[must_use]
    pub const fn blackout() -> Self {
        Self {
            vp_outage_pm: 200,
            outage_window_ms: 7_200_000,
            router_silent_pm: 80,
            ..Self::off()
        }
    }

    /// Knowledge-plane-only rot: stale member lists, vanished
    /// facilities, self-contradicting network records; probes are clean.
    #[must_use]
    pub const fn stale_kb() -> Self {
        Self {
            kb_member_lag_pm: 150,
            kb_facility_loss_pm: 50,
            kb_conflict_pm: 80,
            ..Self::off()
        }
    }

    /// The knowledge plane flipping mid-campaign: the same rot dials as
    /// [`Self::stale_kb`], but with a one-day refresh window, so each
    /// source record is fetched either before or after a seeded flip
    /// instant. IXP-website and PeeringDB views of the same member can
    /// then disagree — the torn-snapshot inconsistency §3 of the paper
    /// warns about, rather than mere uniform staleness.
    #[must_use]
    pub const fn mid_kb_refresh() -> Self {
        Self {
            kb_refresh_window_ms: 86_400_000,
            ..Self::stale_kb()
        }
    }

    /// Contaminated-source pressure: one record in five self-contradicts
    /// (the ISSUE-9 "20% contested records" scenario), with the other
    /// knowledge-plane dials quiet so the reconciliation layer — not the
    /// staleness machinery — is what absorbs the damage. Compose with
    /// `stale-kb` for the full dirty-KB smoke (`stale-kb+conflict`).
    #[must_use]
    pub const fn conflict() -> Self {
        Self {
            kb_conflict_pm: 200,
            ..Self::off()
        }
    }

    /// A pure probe-loss profile at `pm` per-mille, for sweeping
    /// accuracy-vs-fault-rate curves.
    #[must_use]
    pub const fn probe_loss(pm: u32) -> Self {
        Self {
            probe_timeout_pm: pm,
            ..Self::off()
        }
    }

    /// A pure record-conflict profile at `pm` per-mille, for sweeping
    /// coverage-retention-vs-conflict-rate curves.
    #[must_use]
    pub const fn conflict_rate(pm: u32) -> Self {
        Self {
            kb_conflict_pm: pm,
            ..Self::off()
        }
    }

    /// Looks up a named profile: `off`, `default`, `flaky`, `blackout`,
    /// `stale-kb`, `mid-kb-refresh`, `conflict`.
    #[must_use]
    pub fn named(name: &str) -> Option<Self> {
        Some(match name {
            "off" => Self::off(),
            "default" => Self::standard(),
            "flaky" => Self::flaky(),
            "blackout" => Self::blackout(),
            "stale-kb" => Self::stale_kb(),
            "mid-kb-refresh" => Self::mid_kb_refresh(),
            "conflict" => Self::conflict(),
            _ => return None,
        })
    }

    /// Parses a `+`-separated composition of named profiles
    /// (`"flaky+stale-kb"`), merging left to right.
    #[must_use]
    pub fn parse(spec: &str) -> Option<Self> {
        let mut out = Self::off();
        for part in spec.split('+') {
            out = out.merge(&Self::named(part.trim())?);
        }
        Some(out)
    }

    /// Composes two profiles: probabilities add (saturating at 1000, a
    /// certainty), window/slot widths take the more aggressive — larger
    /// outage windows, finer rate-limit slots.
    #[must_use]
    pub fn merge(&self, other: &Self) -> Self {
        let add = |a: u32, b: u32| (a + b).min(PM as u32);
        Self {
            vp_outage_pm: add(self.vp_outage_pm, other.vp_outage_pm),
            outage_window_ms: self.outage_window_ms.max(other.outage_window_ms),
            probe_timeout_pm: add(self.probe_timeout_pm, other.probe_timeout_pm),
            router_silent_pm: add(self.router_silent_pm, other.router_silent_pm),
            rate_limit_episode_pm: add(self.rate_limit_episode_pm, other.rate_limit_episode_pm),
            rate_limit_drop_pm: add(self.rate_limit_drop_pm, other.rate_limit_drop_pm),
            rate_limit_slot_ms: self.rate_limit_slot_ms.min(other.rate_limit_slot_ms),
            truncate_pm: add(self.truncate_pm, other.truncate_pm),
            loop_pm: add(self.loop_pm, other.loop_pm),
            kb_member_lag_pm: add(self.kb_member_lag_pm, other.kb_member_lag_pm),
            kb_facility_loss_pm: add(self.kb_facility_loss_pm, other.kb_facility_loss_pm),
            kb_conflict_pm: add(self.kb_conflict_pm, other.kb_conflict_pm),
            kb_refresh_window_ms: self.kb_refresh_window_ms.max(other.kb_refresh_window_ms),
        }
    }

    /// Whether this profile injects anything at all.
    #[must_use]
    pub const fn is_off(&self) -> bool {
        self.vp_outage_pm == 0
            && self.probe_timeout_pm == 0
            && self.router_silent_pm == 0
            && self.rate_limit_episode_pm == 0
            && self.truncate_pm == 0
            && self.loop_pm == 0
            && self.kb_member_lag_pm == 0
            && self.kb_facility_loss_pm == 0
            && self.kb_conflict_pm == 0
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self::off()
    }
}

/// A seeded fault plan: a [`FaultProfile`] bound to a run seed.
///
/// Every query is a pure function of `(seed, identity, time slot)`;
/// see the crate docs for why that is the determinism-preserving shape.
/// Identities are caller-hashed `u64` keys — a VP id, a router's IPv4
/// address as `u32`, an ASN — so the plan stays substrate-agnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
}

// Domain-separation constants so the same (entity, slot) pair never
// reuses a hash stream across fault dimensions.
const D_VP_OUTAGE: u64 = 0xc4a0_5001;
const D_PROBE_TIMEOUT: u64 = 0xc4a0_5002;
const D_ROUTER_SILENT: u64 = 0xc4a0_5003;
const D_RATE_EPISODE: u64 = 0xc4a0_5004;
const D_RATE_TICKET: u64 = 0xc4a0_5005;
const D_TRUNCATE: u64 = 0xc4a0_5006;
const D_LOOP: u64 = 0xc4a0_5007;
const D_KB_MEMBER: u64 = 0xc4a0_5008;
const D_KB_FACILITY: u64 = 0xc4a0_5009;
const D_KB_CONFLICT: u64 = 0xc4a0_500a;
const D_KB_PICK: u64 = 0xc4a0_500b;
const D_KB_REFRESH: u64 = 0xc4a0_500c;
const D_KB_FETCH: u64 = 0xc4a0_500d;

/// Mixed into a decision's entity key per post-refresh epoch, so epoch 1
/// rolls fresh dice while epoch 0 is bit-identical to the coherent
/// (no-refresh) snapshot. Golden-ratio constant, same family as
/// `splitmix64`'s increment.
const EPOCH_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Source tag for IXP-website site listings (see [`FaultPlan::kb_fetch_epoch`]).
pub const KB_SOURCE_IXP_SITE: u64 = 1;
/// Source tag for PeeringDB network records.
pub const KB_SOURCE_PDB_NET: u64 = 2;
/// Source tag for PeeringDB facility records.
pub const KB_SOURCE_PDB_FAC: u64 = 3;

impl FaultPlan {
    /// Binds a profile to a run seed.
    #[must_use]
    pub const fn new(seed: u64, profile: FaultProfile) -> Self {
        Self { seed, profile }
    }

    /// Parses a `+`-separated profile spec and binds it to `seed`.
    #[must_use]
    pub fn named(spec: &str, seed: u64) -> Option<Self> {
        FaultProfile::parse(spec).map(|p| Self::new(seed, p))
    }

    /// The profile in effect.
    #[must_use]
    pub const fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// The bound seed.
    #[must_use]
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan injects nothing (fast-path for wrappers).
    #[must_use]
    pub const fn is_off(&self) -> bool {
        self.profile.is_off()
    }

    fn hash(&self, domain: u64, a: u64, b: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(domain ^ splitmix64(a) ^ b.rotate_left(23)))
    }

    fn decide(&self, domain: u64, a: u64, b: u64, pm: u32) -> bool {
        pm > 0 && self.hash(domain, a, b) % PM < u64::from(pm)
    }

    // ---- measurement plane ----

    /// Is vantage point `vp` dark at `at_ms`? Outages come in whole
    /// windows: the same VP is down for every probe inside an affected
    /// window, which is what makes fallback VP selection worthwhile.
    #[must_use]
    pub fn vp_down(&self, vp: u64, at_ms: u64) -> bool {
        let window = at_ms / self.profile.outage_window_ms.max(1);
        self.decide(D_VP_OUTAGE, vp, window, self.profile.vp_outage_pm)
    }

    /// Does the probe `(vp, target)` launched at `at_ms` time out in
    /// transit? Transient: keyed on the exact instant, so a retry at a
    /// backed-off time rolls new dice.
    #[must_use]
    pub fn probe_timeout(&self, vp: u64, target: u64, at_ms: u64) -> bool {
        self.decide(
            D_PROBE_TIMEOUT,
            vp ^ target.rotate_left(32),
            at_ms,
            self.profile.probe_timeout_pm,
        )
    }

    /// Is `router` persistently silent? Time-independent: retries never
    /// help, the search must route around it.
    #[must_use]
    pub fn router_silent(&self, router: u64) -> bool {
        self.decide(D_ROUTER_SILENT, router, 0, self.profile.router_silent_pm)
    }

    /// Does `router` suppress the reply to `probe` at `at_ms`? The
    /// slotted token bucket: the router is in an episode for hash-chosen
    /// slots, and within one, a probe's deterministic ticket decides
    /// whether it falls over the reply budget.
    #[must_use]
    pub fn rate_limited(&self, router: u64, probe: u64, at_ms: u64) -> bool {
        let slot = at_ms / self.profile.rate_limit_slot_ms.max(1);
        self.decide(
            D_RATE_EPISODE,
            router,
            slot,
            self.profile.rate_limit_episode_pm,
        ) && self.decide(
            D_RATE_TICKET,
            router ^ probe.rotate_left(17),
            slot,
            self.profile.rate_limit_drop_pm,
        )
    }

    /// If the trace `(vp, target, at_ms)` is truncated, the hop count to
    /// keep (`1..len`); `None` leaves the path intact.
    #[must_use]
    pub fn truncate_len(&self, vp: u64, target: u64, at_ms: u64, len: usize) -> Option<usize> {
        if len < 2 || !self.decide(D_TRUNCATE, vp ^ target, at_ms, self.profile.truncate_pm) {
            return None;
        }
        let h = self.hash(D_TRUNCATE, vp ^ target ^ 1, at_ms);
        Some(1 + (h as usize) % (len - 1))
    }

    /// If the trace `(vp, target, at_ms)` hits a forwarding loop, the
    /// `(start_hop, repetitions)` of the looping tail; `None` for a
    /// loop-free path.
    #[must_use]
    pub fn loop_segment(
        &self,
        vp: u64,
        target: u64,
        at_ms: u64,
        len: usize,
    ) -> Option<(usize, usize)> {
        if len < 2 || !self.decide(D_LOOP, vp ^ target, at_ms, self.profile.loop_pm) {
            return None;
        }
        let h = self.hash(D_LOOP, vp ^ target ^ 1, at_ms);
        let start = (h as usize) % (len - 1);
        let reps = 2 + ((h >> 32) as usize) % 2;
        Some((start, reps))
    }

    // ---- knowledge plane ----

    /// The seeded instant inside [`FaultProfile::kb_refresh_window_ms`]
    /// at which the upstream knowledge plane flipped, or `None` when the
    /// snapshot is coherent (window is zero).
    #[must_use]
    pub fn kb_refresh_at_ms(&self) -> Option<u64> {
        let window = self.profile.kb_refresh_window_ms;
        (window > 0).then(|| self.hash(D_KB_REFRESH, 0, 0) % window)
    }

    /// The refresh epoch a record was fetched in: 0 before the flip
    /// instant, 1 after. `source` is a [`KB_SOURCE_IXP_SITE`]-style tag
    /// and `entity` the record's key, so different sources fetch the
    /// "same" entity at independent seeded instants — the tear. Always 0
    /// when no refresh is active, keeping every epoch-aware decision
    /// bit-identical to its coherent-snapshot counterpart.
    #[must_use]
    pub fn kb_fetch_epoch(&self, source: u64, entity: u64) -> u64 {
        let Some(flip) = self.kb_refresh_at_ms() else {
            return 0;
        };
        let fetched = self.hash(D_KB_FETCH, source, entity) % self.profile.kb_refresh_window_ms;
        u64::from(fetched >= flip)
    }

    /// Mixes a fetch epoch into an entity key. Epoch 0 is the identity.
    const fn epoch_key(entity: u64, epoch: u64) -> u64 {
        entity ^ epoch.wrapping_mul(EPOCH_MIX)
    }

    /// Did member `member` of exchange `ixp` lag out of the snapshot
    /// fetched in `epoch`?
    #[must_use]
    pub fn drop_kb_member_at(&self, ixp: u64, member: u64, epoch: u64) -> bool {
        self.decide(
            D_KB_MEMBER,
            ixp,
            Self::epoch_key(member, epoch),
            self.profile.kb_member_lag_pm,
        )
    }

    /// Did facility `fac` vanish from the snapshot fetched in `epoch`?
    #[must_use]
    pub fn delete_kb_facility_at(&self, fac: u64, epoch: u64) -> bool {
        self.decide(
            D_KB_FACILITY,
            Self::epoch_key(fac, epoch),
            0,
            self.profile.kb_facility_loss_pm,
        )
    }

    /// Is network `asn`'s record self-contradictory in the snapshot
    /// fetched in `epoch`?
    #[must_use]
    pub fn conflict_kb_network_at(&self, asn: u64, epoch: u64) -> bool {
        self.decide(
            D_KB_CONFLICT,
            Self::epoch_key(asn, epoch),
            0,
            self.profile.kb_conflict_pm,
        )
    }

    /// Deterministic index into a pool of `n` replacement candidates,
    /// for rewriting entry `slot` of a conflicted record fetched in
    /// `epoch`. Returns `None` for an empty pool.
    #[must_use]
    pub fn conflict_pick_at(&self, asn: u64, slot: u64, n: usize, epoch: u64) -> Option<usize> {
        if n == 0 {
            return None;
        }
        Some((self.hash(D_KB_PICK, Self::epoch_key(asn, epoch), slot) as usize) % n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::new(42, FaultProfile::standard())
    }

    #[test]
    fn decisions_are_pure_functions() {
        let p = plan();
        for vp in 0..16u64 {
            for t in [0u64, 60_000, 3_600_000] {
                assert_eq!(p.vp_down(vp, t), p.vp_down(vp, t));
                assert_eq!(p.probe_timeout(vp, 99, t), p.probe_timeout(vp, 99, t));
                assert_eq!(p.rate_limited(vp, 7, t), p.rate_limited(vp, 7, t));
            }
        }
    }

    #[test]
    fn off_profile_injects_nothing() {
        let p = FaultPlan::new(7, FaultProfile::off());
        assert!(p.is_off());
        for k in 0..500u64 {
            assert!(!p.vp_down(k, k * 1000));
            assert!(!p.probe_timeout(k, k ^ 3, k));
            assert!(!p.router_silent(k));
            assert!(!p.rate_limited(k, k, k));
            assert!(p.truncate_len(k, k, k, 10).is_none());
            assert!(p.loop_segment(k, k, k, 10).is_none());
            assert!(!p.drop_kb_member_at(k, k, 0));
            assert!(!p.delete_kb_facility_at(k, 0));
            assert!(!p.conflict_kb_network_at(k, 0));
        }
    }

    #[test]
    fn different_seeds_disagree_somewhere() {
        let a = FaultPlan::new(1, FaultProfile::flaky());
        let b = FaultPlan::new(2, FaultProfile::flaky());
        let diverges = (0..4000u64).any(|k| a.probe_timeout(k, 0, 0) != b.probe_timeout(k, 0, 0));
        assert!(diverges, "seeds 1 and 2 produced identical timeout streams");
    }

    #[test]
    fn outages_cover_whole_windows() {
        let p = FaultPlan::new(
            11,
            FaultProfile {
                vp_outage_pm: 500,
                outage_window_ms: 1000,
                ..FaultProfile::off()
            },
        );
        let vp = (0..64).find(|&v| p.vp_down(v, 0)).expect("some VP down");
        for t in 0..1000 {
            assert!(p.vp_down(vp, t), "outage must span its whole window");
        }
    }

    #[test]
    fn truncation_stays_in_bounds() {
        let p = FaultPlan::new(
            3,
            FaultProfile {
                truncate_pm: 1000,
                ..FaultProfile::off()
            },
        );
        for len in 2..40 {
            let k = p.truncate_len(1, 2, 3, len).unwrap();
            assert!(k >= 1 && k < len);
        }
        assert!(p.truncate_len(1, 2, 3, 1).is_none());
    }

    #[test]
    fn probe_loss_rate_tracks_the_knob() {
        let p = FaultPlan::new(5, FaultProfile::probe_loss(100)); // 10%
        let lost = (0..10_000u64)
            .filter(|&k| p.probe_timeout(k, k ^ 0xbeef, 0))
            .count();
        assert!(
            (800..1200).contains(&lost),
            "10% knob produced {lost}/10000"
        );
    }

    #[test]
    fn named_profiles_parse_and_compose() {
        assert_eq!(FaultProfile::parse("off"), Some(FaultProfile::off()));
        assert_eq!(
            FaultProfile::parse("default"),
            Some(FaultProfile::standard())
        );
        assert_eq!(FaultProfile::parse("bogus"), None);
        let both = FaultProfile::parse("flaky+stale-kb").unwrap();
        assert_eq!(
            both.probe_timeout_pm,
            FaultProfile::flaky().probe_timeout_pm
        );
        assert_eq!(
            both.kb_member_lag_pm,
            FaultProfile::stale_kb().kb_member_lag_pm
        );
        assert!(!both.is_off());
    }

    #[test]
    fn conflict_profile_contests_one_in_five_and_composes() {
        let solo = FaultProfile::named("conflict").unwrap();
        assert_eq!(solo.kb_conflict_pm, 200);
        assert!(!solo.is_off());
        let dirty = FaultProfile::parse("stale-kb+conflict").unwrap();
        assert_eq!(
            dirty.kb_conflict_pm,
            FaultProfile::stale_kb().kb_conflict_pm + 200
        );
        assert_eq!(
            dirty.kb_member_lag_pm,
            FaultProfile::stale_kb().kb_member_lag_pm
        );
    }

    #[test]
    fn no_refresh_means_one_epoch_and_unchanged_decisions() {
        let p = FaultPlan::new(42, FaultProfile::stale_kb());
        assert_eq!(p.kb_refresh_at_ms(), None);
        for k in 0..200u64 {
            assert_eq!(p.kb_fetch_epoch(KB_SOURCE_IXP_SITE, k), 0);
        }
    }

    #[test]
    fn mid_refresh_tears_the_snapshot_between_sources() {
        let p = FaultPlan::new(42, FaultProfile::mid_kb_refresh());
        let flip = p.kb_refresh_at_ms().expect("refresh active");
        assert!(flip < FaultProfile::mid_kb_refresh().kb_refresh_window_ms);
        // Both epochs must occur across sources/entities, and the same
        // entity must land in different epochs for some pair of sources
        // — that inter-source disagreement is the failure mode.
        let mut epochs = [false; 2];
        let mut torn = false;
        for k in 0..500u64 {
            let site = p.kb_fetch_epoch(KB_SOURCE_IXP_SITE, k);
            let pdb = p.kb_fetch_epoch(KB_SOURCE_PDB_NET, k);
            epochs[site as usize] = true;
            epochs[pdb as usize] = true;
            torn |= site != pdb;
        }
        assert!(epochs[0] && epochs[1], "flip instant splits the window");
        assert!(torn, "some entity fetched on opposite sides of the flip");
    }

    #[test]
    fn epochs_roll_independent_dice() {
        let p = FaultPlan::new(9, FaultProfile::mid_kb_refresh());
        let disagrees =
            (0..2000u64).any(|m| p.drop_kb_member_at(3, m, 0) != p.drop_kb_member_at(3, m, 1));
        assert!(disagrees, "epoch 1 must not mirror epoch 0");
    }

    #[test]
    fn mid_kb_refresh_parses_and_merges_windows() {
        let p = FaultProfile::parse("mid-kb-refresh").unwrap();
        assert_eq!(p.kb_refresh_window_ms, 86_400_000);
        assert!(!p.is_off());
        let merged = FaultProfile::stale_kb().merge(&p);
        assert_eq!(merged.kb_refresh_window_ms, 86_400_000);
        assert_eq!(
            FaultProfile::off()
                .merge(&FaultProfile::off())
                .kb_refresh_window_ms,
            0
        );
    }

    #[test]
    fn merge_saturates_probabilities() {
        let hot = FaultProfile {
            probe_timeout_pm: 900,
            ..FaultProfile::off()
        };
        assert_eq!(hot.merge(&hot).probe_timeout_pm, 1000);
    }
}
