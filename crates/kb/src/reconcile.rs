//! Cross-source reconciliation: trust priors, per-record agreement
//! scoring, and a conflict taxonomy over the assembled knowledge base.
//!
//! Klöti et al. showed the public IXP datasets disagree wildly on
//! members, prefixes, and facility lists; layering them with a blind
//! union lets one contaminated source silently poison constraint
//! narrowing. This module makes the disagreement explicit: every claim
//! family the assembly pipeline merges (AS→facility, IXP→facility,
//! membership, peering-LAN prefix) is re-derived as a *vote* — each
//! source that could speak about an entity either asserts the claim,
//! dissents, or abstains — and the votes are folded into a
//! [`Provenance`] verdict with a trust-weighted agreement score and a
//! typed [`ConflictClass`].
//!
//! The taxonomy (DESIGN.md §11):
//!
//! * **unanimous** — ≥2 covering sources, no dissent;
//! * **single-source** — exactly one source covers the entity, no
//!   dissent possible;
//! * **majority** — dissent exists but trust-weighted agreement stays
//!   at or above 600‰;
//! * **contested** — trust-weighted agreement below 600‰. Contested
//!   claims are kept in the merge (dropping them would shrink coverage)
//!   but the search refuses to *pin* a facility on contested
//!   provenance, degrading to a wider candidate set with a typed
//!   `UnresolvedReason` instead of a confidently wrong answer.
//!
//! A source with no record covering an entity **abstains** — absence of
//! evidence is not dissent (the JPNAP case: a PeeringDB IXP record with
//! an empty facility list says nothing about facilities, it does not
//! contradict the website). Everything here is pure and deterministic:
//! `BTreeMap` claim keys, a fixed source order, integer per-mille
//! arithmetic.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cfs_net::Ipv4Prefix;
use cfs_types::{Asn, FacilityId, IxpId};

use crate::sources::PublicSources;

/// Agreement below this per-mille threshold is *contested*.
pub const CONTESTED_BELOW_PM: u32 = 600;

/// The public datasets the pipeline layers, ordered by trust.
///
/// Trust priors follow the paper's own source ranking: operators'
/// NOC pages are authoritative for their own footprint (§3.1.1), IXP
/// websites are kept current by the operator (§3.1.2), PCH and the
/// consortium lists are curated, and the volunteer database is the
/// least trusted — rich but rotten in places (Figure 2).
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum SourceId {
    /// Operator NOC pages (essentially complete self-reports).
    NocPage,
    /// IXP websites: facility lists + member directories.
    IxpSite,
    /// PCH's exchange list with liveness annotation.
    Pch,
    /// PeeringDB facility table (near complete).
    PdbFac,
    /// Euro-IX-style consortium exchange lists.
    Consortium,
    /// PeeringDB exchange records.
    PdbIxp,
    /// PeeringDB network records (volunteer quality).
    PdbNet,
}

impl SourceId {
    /// Every source, in descending-trust order (stable for iteration
    /// and display).
    pub const ALL: [Self; 7] = [
        Self::NocPage,
        Self::IxpSite,
        Self::Pch,
        Self::PdbFac,
        Self::Consortium,
        Self::PdbIxp,
        Self::PdbNet,
    ];

    /// Trust prior in per-mille; vote weights in agreement scoring.
    #[must_use]
    pub const fn trust_pm(self) -> u32 {
        match self {
            Self::NocPage => 950,
            Self::IxpSite => 900,
            Self::Pch => 850,
            Self::PdbFac => 800,
            Self::Consortium => 750,
            Self::PdbIxp => 700,
            Self::PdbNet => 600,
        }
    }

    /// Stable label for tables, counters, and the `cfs kb-diff` CLI.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Self::NocPage => "noc",
            Self::IxpSite => "ixp-site",
            Self::Pch => "pch",
            Self::PdbFac => "pdb-fac",
            Self::Consortium => "consortium",
            Self::PdbIxp => "pdb-ixp",
            Self::PdbNet => "pdb-net",
        }
    }

    /// Parses a CLI label back into a source id.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|id| id.label() == s)
    }
}

/// The typed verdict on how much the sources agreed about one claim.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum ConflictClass {
    /// Two or more covering sources, all asserting.
    Unanimous,
    /// Dissent exists, but trust-weighted agreement ≥ 600‰.
    Majority,
    /// Trust-weighted agreement < 600‰ — do not pin on this.
    Contested,
    /// Exactly one source covers the entity; nobody could disagree.
    SingleSource,
}

impl ConflictClass {
    /// Stable snake_case code for tally keys and reports.
    #[must_use]
    pub const fn code(self) -> &'static str {
        match self {
            Self::Unanimous => "unanimous",
            Self::Majority => "majority",
            Self::Contested => "contested",
            Self::SingleSource => "single_source",
        }
    }
}

/// Where a merged claim came from and how much the sources agreed.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Provenance {
    /// Sources asserting the claim, in descending-trust order.
    pub sources: Vec<SourceId>,
    /// Sources that covered the entity but did not assert the claim.
    pub dissenters: Vec<SourceId>,
    /// Trust-weighted agreement in per-mille (1000 = no dissent).
    pub agreement_pm: u32,
    /// The typed conflict verdict.
    pub conflict: ConflictClass,
}

impl Provenance {
    /// Folds assertion/dissent vote sets into a verdict. `sources` and
    /// `dissenters` must already be in `SourceId::ALL` order (callers
    /// build them by iterating `ALL`).
    #[must_use]
    pub fn from_votes(sources: Vec<SourceId>, dissenters: Vec<SourceId>) -> Self {
        let yes: u32 = sources.iter().map(|s| s.trust_pm()).sum();
        let no: u32 = dissenters.iter().map(|s| s.trust_pm()).sum();
        let agreement_pm = if no == 0 {
            1000
        } else {
            yes * 1000 / (yes + no)
        };
        let conflict = if dissenters.is_empty() {
            if sources.len() >= 2 {
                ConflictClass::Unanimous
            } else {
                ConflictClass::SingleSource
            }
        } else if agreement_pm >= CONTESTED_BELOW_PM {
            ConflictClass::Majority
        } else {
            ConflictClass::Contested
        };
        Self {
            sources,
            dissenters,
            agreement_pm,
            conflict,
        }
    }

    /// Whether the search may pin a single facility on this claim.
    #[must_use]
    pub fn pinnable(&self) -> bool {
        self.conflict != ConflictClass::Contested
    }
}

/// Per-source roll-up for the `cfs audit` trust/agreement table.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SourceQuality {
    /// Trust prior in per-mille.
    pub trust_pm: u32,
    /// Claims this source asserted.
    pub claims: u64,
    /// Claims this source dissented on (covered but did not assert).
    pub dissents: u64,
    /// Mean agreement of the claims it asserted, per-mille.
    pub mean_agreement_pm: u32,
}

/// The `kb_quality` summary: conflict-class tallies plus per-source
/// stats. Flows into `DataQualityReport` and the `cfs-trace/1` body.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct KbQuality {
    /// Total reconciled claims across all families.
    pub records: u64,
    /// Mean trust-weighted agreement over all claims, per-mille.
    pub agreement_mean_pm: u32,
    /// Claims classified unanimous.
    pub unanimous: u64,
    /// Claims classified majority.
    pub majority: u64,
    /// Claims classified contested.
    pub contested: u64,
    /// Claims classified single-source.
    pub single_source: u64,
    /// Per-source stats, keyed by [`SourceId::label`].
    pub per_source: BTreeMap<String, SourceQuality>,
}

impl KbQuality {
    /// Contested claims per mille of all claims (0 when empty).
    #[must_use]
    pub fn contested_pm(&self) -> u32 {
        (self.contested * 1000)
            .checked_div(self.records)
            .map_or(0, |pm| u32::try_from(pm).unwrap_or(1000))
    }
}

/// Every reconciled claim family, keyed deterministically.
///
/// A listing edit re-votes only the AS → facility family
/// ([`Self::relist`]); the exchange-side families sit behind `Arc`, so
/// the knowledge-base epochs a run of listing edits produces share them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Reconciliation {
    /// (AS, facility) presence claims: PeeringDB networks vs NOC pages.
    pub as_facility: BTreeMap<(Asn, FacilityId), Provenance>,
    /// (IXP, facility) partnership claims: PeeringDB IXP records vs
    /// websites.
    pub ixp_facility: Arc<BTreeMap<(IxpId, FacilityId), Provenance>>,
    /// (IXP, member AS) claims: website directories vs PeeringDB
    /// networks (ixp list + netixlan ports).
    pub membership: Arc<BTreeMap<(IxpId, Asn), Provenance>>,
    /// (IXP, peering-LAN prefix) claims: PeeringDB IXP records,
    /// websites, PCH, consortium lists.
    pub prefix: Arc<BTreeMap<(IxpId, Ipv4Prefix), Provenance>>,
}

impl Reconciliation {
    /// The quality roll-up over every family.
    #[must_use]
    pub fn quality(&self) -> KbQuality {
        self.sums().quality()
    }

    /// The integer sums behind [`Self::quality`].
    pub(crate) fn sums(&self) -> QualitySums {
        let mut sums = QualitySums::default();
        let all = self
            .as_facility
            .values()
            .chain(self.ixp_facility.values())
            .chain(self.membership.values())
            .chain(self.prefix.values());
        for p in all {
            sums.count(p, false);
        }
        sums
    }

    /// Re-derives one network's AS → facility claims from `src`: one
    /// claim per facility of its merged footprint (PeeringDB ∪ NOC page),
    /// carrying the cross-source vote on it, which replace the claims
    /// held for `asn`. The claims' facilities are the footprint. `sums`
    /// moves by the difference.
    ///
    /// This is the only derivation a listing edit reaches: [`reconcile`]
    /// runs it for every network, [`crate::KnowledgeBase::relist`] for
    /// the edited one.
    pub(crate) fn relist(&mut self, src: &PublicSources, asn: Asn, sums: &mut QualitySums) {
        let held = (asn, FacilityId::new(0))..=(asn, FacilityId::new(u32::MAX));
        let held: Vec<_> = self.as_facility.range(held).map(|(k, _)| *k).collect();
        for key in held {
            let p = self
                .as_facility
                .remove(&key)
                .expect("key read from this map");
            sums.count(&p, true);
        }

        // A source covers the AS when it has a record with a non-empty
        // facility list (an empty list is the operator not bothering,
        // not a claim that the AS is nowhere).
        let noc = src.noc_pages.get(&asn).map_or(&[][..], |p| &p.facilities);
        let pdb = src
            .pdb_networks
            .get(&asn)
            .map_or(&[][..], |r| &r.facilities);
        let footprint: BTreeSet<FacilityId> = noc.iter().chain(pdb).copied().collect();
        for f in footprint {
            let mut v = Votes::new();
            v.cast(SourceId::NocPage, !noc.is_empty(), noc.contains(&f));
            v.cast(SourceId::PdbNet, !pdb.is_empty(), pdb.contains(&f));
            let p = v.seal();
            sums.count(&p, false);
            self.as_facility.insert((asn, f), p);
        }
    }
}

/// The integer sums a [`KbQuality`] is rolled up from. A knowledge base
/// keeps them beside its roll-up, so re-voting one network's claims
/// moves the roll-up by difference instead of re-reading every claim.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct QualitySums {
    records: u64,
    agreement: u64,
    /// Claims per [`ConflictClass`], in declaration order.
    classes: [u64; 4],
    /// Per [`SourceId`], in [`SourceId::ALL`] order: claims asserted,
    /// dissents, and the agreement summed over the asserted claims.
    sources: [[u64; 3]; SourceId::ALL.len()],
}

impl QualitySums {
    /// Adds one claim's votes to the sums, or takes them back out.
    pub(crate) fn count(&mut self, p: &Provenance, removed: bool) {
        let bump = |n: &mut u64, by: u64| {
            if removed {
                *n -= by;
            } else {
                *n += by;
            }
        };
        let agreement = u64::from(p.agreement_pm);
        bump(&mut self.records, 1);
        bump(&mut self.agreement, agreement);
        bump(&mut self.classes[p.conflict as usize], 1);
        for s in &p.sources {
            let [claims, _, sum] = &mut self.sources[*s as usize];
            bump(claims, 1);
            bump(sum, agreement);
        }
        for s in &p.dissenters {
            bump(&mut self.sources[*s as usize][1], 1);
        }
    }

    /// The roll-up: tallies, and means that round down.
    pub(crate) fn quality(&self) -> KbQuality {
        let mean = |sum: u64, n: u64| {
            sum.checked_div(n)
                .map_or(0, |m| u32::try_from(m).unwrap_or(1000))
        };
        let [unanimous, majority, contested, single_source] = self.classes;
        let per_source = SourceId::ALL
            .into_iter()
            .zip(self.sources)
            .map(|(s, [claims, dissents, sum])| {
                let q = SourceQuality {
                    trust_pm: s.trust_pm(),
                    claims,
                    dissents,
                    mean_agreement_pm: mean(sum, claims),
                };
                (s.label().to_string(), q)
            })
            .collect();
        KbQuality {
            records: self.records,
            agreement_mean_pm: mean(self.agreement, self.records),
            unanimous,
            majority,
            contested,
            single_source,
            per_source,
        }
    }
}

/// A helper accumulating ALL-ordered vote vectors.
struct Votes {
    yes: Vec<SourceId>,
    no: Vec<SourceId>,
}

impl Votes {
    fn new() -> Self {
        Self {
            yes: Vec::new(),
            no: Vec::new(),
        }
    }

    /// Records one source's position: asserted, dissented, or (when
    /// `covers` is false) abstained.
    fn cast(&mut self, source: SourceId, covers: bool, asserts: bool) {
        if !covers {
            return;
        }
        if asserts {
            self.yes.push(source);
        } else {
            self.no.push(source);
        }
    }

    fn seal(self) -> Provenance {
        Provenance::from_votes(self.yes, self.no)
    }
}

/// Re-derives every merged claim as a cross-source vote.
#[must_use]
pub fn reconcile(src: &PublicSources) -> Reconciliation {
    let mut out = reconcile_exchanges(src);
    let mut sums = QualitySums::default();
    for asn in src.networks() {
        out.relist(src, asn, &mut sums);
    }
    out
}

/// Re-derives the exchange-side claim families (partner facilities,
/// memberships, peering-LAN prefixes), which no listing edit reaches;
/// the AS → facility family is left empty.
fn reconcile_exchanges(src: &PublicSources) -> Reconciliation {
    let (mut ixp_facility, mut membership, mut prefixes) =
        (BTreeMap::new(), BTreeMap::new(), BTreeMap::new());

    // ---- IXP → facility: PeeringDB exchange records vs websites. An
    // empty facility list abstains — the JPNAP case.
    let mut ixp_fac_claims: BTreeSet<(IxpId, FacilityId)> = BTreeSet::new();
    for rec in src.pdb_ixps.values() {
        for f in &rec.facilities {
            ixp_fac_claims.insert((rec.ixp, *f));
        }
    }
    for site in src.ixp_sites.values() {
        for f in &site.facilities {
            ixp_fac_claims.insert((site.ixp, *f));
        }
    }
    for (ixp, f) in ixp_fac_claims {
        let mut v = Votes::new();
        let site = src.ixp_sites.get(&ixp);
        v.cast(
            SourceId::IxpSite,
            site.is_some_and(|s| !s.facilities.is_empty()),
            site.is_some_and(|s| s.facilities.contains(&f)),
        );
        let pdb = src.pdb_ixps.get(&ixp);
        v.cast(
            SourceId::PdbIxp,
            pdb.is_some_and(|r| !r.facilities.is_empty()),
            pdb.is_some_and(|r| r.facilities.contains(&f)),
        );
        ixp_facility.insert((ixp, f), v.seal());
    }

    // ---- Membership (ixp, asn): website directories vs PeeringDB
    // networks. The PDB claim counts either the ixp list or a netixlan
    // port; a record with neither abstains.
    let mut member_claims: BTreeSet<(IxpId, Asn)> = BTreeSet::new();
    for site in src.ixp_sites.values() {
        for m in &site.members {
            member_claims.insert((site.ixp, m.asn));
        }
    }
    for rec in src.pdb_networks.values() {
        for ixp in &rec.ixps {
            member_claims.insert((*ixp, rec.asn));
        }
        for (ixp, _) in &rec.fabric_ips {
            member_claims.insert((*ixp, rec.asn));
        }
    }
    for (ixp, asn) in member_claims {
        let mut v = Votes::new();
        let site = src.ixp_sites.get(&ixp);
        v.cast(
            SourceId::IxpSite,
            site.is_some_and(|s| !s.members.is_empty()),
            site.is_some_and(|s| s.members.iter().any(|m| m.asn == asn)),
        );
        let pdb = src.pdb_networks.get(&asn);
        v.cast(
            SourceId::PdbNet,
            pdb.is_some_and(|r| !r.ixps.is_empty() || !r.fabric_ips.is_empty()),
            pdb.is_some_and(|r| {
                r.ixps.contains(&ixp) || r.fabric_ips.iter().any(|(x, _)| *x == ixp)
            }),
        );
        membership.insert((ixp, asn), v.seal());
    }

    // ---- Peering-LAN prefixes: four sources can speak.
    let mut prefix_claims: BTreeSet<(IxpId, Ipv4Prefix)> = BTreeSet::new();
    for rec in src.pdb_ixps.values() {
        for p in &rec.prefixes {
            prefix_claims.insert((rec.ixp, *p));
        }
    }
    for site in src.ixp_sites.values() {
        for p in &site.prefixes {
            prefix_claims.insert((site.ixp, *p));
        }
    }
    for (ixp, prefixes, _) in &src.pch_list {
        for p in prefixes {
            prefix_claims.insert((*ixp, *p));
        }
    }
    for (ixp, prefixes) in &src.consortium_list {
        for p in prefixes {
            prefix_claims.insert((*ixp, *p));
        }
    }
    for (ixp, prefix) in prefix_claims {
        let mut v = Votes::new();
        let site = src.ixp_sites.get(&ixp);
        v.cast(
            SourceId::IxpSite,
            site.is_some_and(|s| !s.prefixes.is_empty()),
            site.is_some_and(|s| s.prefixes.contains(&prefix)),
        );
        let pch = src.pch_list.iter().find(|(x, _, _)| *x == ixp);
        v.cast(
            SourceId::Pch,
            pch.is_some_and(|(_, ps, _)| !ps.is_empty()),
            pch.is_some_and(|(_, ps, _)| ps.contains(&prefix)),
        );
        let cons = src.consortium_list.iter().find(|(x, _)| *x == ixp);
        v.cast(
            SourceId::Consortium,
            cons.is_some_and(|(_, ps)| !ps.is_empty()),
            cons.is_some_and(|(_, ps)| ps.contains(&prefix)),
        );
        let pdb = src.pdb_ixps.get(&ixp);
        v.cast(
            SourceId::PdbIxp,
            pdb.is_some_and(|r| !r.prefixes.is_empty()),
            pdb.is_some_and(|r| r.prefixes.contains(&prefix)),
        );
        prefixes.insert((ixp, prefix), v.seal());
    }

    Reconciliation {
        as_facility: BTreeMap::new(),
        ixp_facility: Arc::new(ixp_facility),
        membership: Arc::new(membership),
        prefix: Arc::new(prefixes),
    }
}

/// One family row of a pairwise source comparison.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct DiffRow {
    /// Claim family ("membership", "as-facility", …).
    pub family: &'static str,
    /// Claims both sources assert.
    pub both: u64,
    /// Claims only the first source asserts.
    pub only_a: u64,
    /// Claims only the second source asserts.
    pub only_b: u64,
    /// Jaccard agreement |A∩B| / |A∪B| in per-mille (1000 when both
    /// sets are empty).
    pub jaccard_pm: u32,
}

/// The claim sets one source asserts, per family, as opaque stable keys.
fn claim_sets(src: &PublicSources, s: SourceId) -> BTreeMap<&'static str, BTreeSet<String>> {
    let mut out: BTreeMap<&'static str, BTreeSet<String>> = BTreeMap::new();
    let mut add = |family: &'static str, key: String| {
        out.entry(family).or_default().insert(key);
    };
    match s {
        SourceId::PdbNet => {
            for rec in src.pdb_networks.values() {
                for f in &rec.facilities {
                    add("as-facility", format!("{}@{f}", rec.asn));
                }
                for ixp in &rec.ixps {
                    add("membership", format!("{}@{ixp}", rec.asn));
                }
                for (ixp, _) in &rec.fabric_ips {
                    add("membership", format!("{}@{ixp}", rec.asn));
                }
            }
        }
        SourceId::NocPage => {
            for page in src.noc_pages.values() {
                for f in &page.facilities {
                    add("as-facility", format!("{}@{f}", page.asn));
                }
            }
        }
        SourceId::PdbIxp => {
            for rec in src.pdb_ixps.values() {
                for f in &rec.facilities {
                    add("ixp-facility", format!("{}@{f}", rec.ixp));
                }
                for p in &rec.prefixes {
                    add("prefix", format!("{}@{p}", rec.ixp));
                }
            }
        }
        SourceId::IxpSite => {
            for site in src.ixp_sites.values() {
                for f in &site.facilities {
                    add("ixp-facility", format!("{}@{f}", site.ixp));
                }
                for p in &site.prefixes {
                    add("prefix", format!("{}@{p}", site.ixp));
                }
                for m in &site.members {
                    add("membership", format!("{}@{}", m.asn, site.ixp));
                }
            }
        }
        SourceId::Pch => {
            for (ixp, prefixes, _) in &src.pch_list {
                for p in prefixes {
                    add("prefix", format!("{ixp}@{p}"));
                }
            }
        }
        SourceId::Consortium => {
            for (ixp, prefixes) in &src.consortium_list {
                for p in prefixes {
                    add("prefix", format!("{ixp}@{p}"));
                }
            }
        }
        SourceId::PdbFac => {
            for rec in &src.pdb_facilities {
                add("facility", format!("{}", rec.facility));
            }
        }
    }
    out
}

/// Klöti-style pairwise dataset comparison: for every claim family both
/// sources can speak about, how much do their assertions overlap?
/// Families only one source covers are omitted (nothing to compare).
#[must_use]
pub fn pairwise_diff(src: &PublicSources, a: SourceId, b: SourceId) -> Vec<DiffRow> {
    let sa = claim_sets(src, a);
    let sb = claim_sets(src, b);
    let mut rows = Vec::new();
    for (family, set_a) in &sa {
        let Some(set_b) = sb.get(family) else {
            continue;
        };
        let both = set_a.intersection(set_b).count() as u64;
        let only_a = (set_a.len() as u64) - both;
        let only_b = (set_b.len() as u64) - both;
        let union = both + only_a + only_b;
        let jaccard_pm = (both * 1000)
            .checked_div(union)
            .map_or(1000, |pm| u32::try_from(pm).unwrap_or(1000));
        rows.push(DiffRow {
            family,
            both,
            only_a,
            only_b,
            jaccard_pm,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::{
        IxpSiteRecord, KbConfig, NocPage, PdbIxpRecord, PdbNetworkRecord, SiteMemberRecord,
    };
    use std::net::Ipv4Addr;

    fn asn(n: u32) -> Asn {
        Asn::new(n)
    }
    fn fac(n: u32) -> FacilityId {
        FacilityId::new(n)
    }
    fn ixp(n: u32) -> IxpId {
        IxpId::new(n)
    }

    /// An empty source bundle to hand-populate per scenario.
    fn empty() -> PublicSources {
        PublicSources {
            config: KbConfig::default(),
            pdb_facilities: Vec::new(),
            pdb_networks: BTreeMap::new(),
            pdb_ixps: BTreeMap::new(),
            ixp_sites: BTreeMap::new(),
            noc_pages: BTreeMap::new(),
            pch_list: Vec::new(),
            consortium_list: Vec::new(),
        }
    }

    fn pdb_net(a: u32, facilities: &[u32], ixps: &[u32]) -> PdbNetworkRecord {
        PdbNetworkRecord {
            asn: asn(a),
            facilities: facilities.iter().map(|f| fac(*f)).collect(),
            ixps: ixps.iter().map(|x| ixp(*x)).collect(),
            fabric_ips: Vec::new(),
        }
    }

    fn site(x: u32, facilities: &[u32], members: &[u32]) -> IxpSiteRecord {
        IxpSiteRecord {
            ixp: ixp(x),
            prefixes: vec![Ipv4Prefix::must([10, 0, x as u8, 0], 24)],
            facilities: facilities.iter().map(|f| fac(*f)).collect(),
            members: members
                .iter()
                .enumerate()
                .map(|(i, a)| SiteMemberRecord {
                    asn: asn(*a),
                    fabric_ip: Ipv4Addr::new(10, 0, x as u8, (i + 1) as u8),
                    facility: None,
                    remote: None,
                })
                .collect(),
            detailed: false,
        }
    }

    // ---- Fixture mini-KBs pinning every conflict class with exact
    // agreement scores. ----

    #[test]
    fn unanimous_when_both_sources_assert() {
        let mut src = empty();
        src.pdb_networks.insert(asn(1), pdb_net(1, &[7], &[]));
        src.noc_pages.insert(
            asn(1),
            NocPage {
                asn: asn(1),
                facilities: vec![fac(7)],
            },
        );
        let rec = reconcile(&src);
        let p = &rec.as_facility[&(asn(1), fac(7))];
        assert_eq!(p.conflict, ConflictClass::Unanimous);
        assert_eq!(p.agreement_pm, 1000);
        assert_eq!(p.sources, vec![SourceId::NocPage, SourceId::PdbNet]);
        assert!(p.dissenters.is_empty());
        assert!(p.pinnable());
    }

    #[test]
    fn single_source_when_only_one_covers() {
        let mut src = empty();
        src.pdb_networks.insert(asn(1), pdb_net(1, &[7], &[]));
        let rec = reconcile(&src);
        let p = &rec.as_facility[&(asn(1), fac(7))];
        assert_eq!(p.conflict, ConflictClass::SingleSource);
        assert_eq!(p.agreement_pm, 1000);
        assert!(p.pinnable());
    }

    #[test]
    fn majority_when_the_trusted_source_asserts_over_volunteer_dissent() {
        // NOC (950) asserts, PDB (600) covers the AS but omits the
        // facility: 950·1000/1550 = 612 ≥ 600 → majority. The true pin
        // survives volunteer rot.
        let mut src = empty();
        src.pdb_networks.insert(asn(1), pdb_net(1, &[8], &[]));
        src.noc_pages.insert(
            asn(1),
            NocPage {
                asn: asn(1),
                facilities: vec![fac(7), fac(8)],
            },
        );
        let rec = reconcile(&src);
        let p = &rec.as_facility[&(asn(1), fac(7))];
        assert_eq!(p.conflict, ConflictClass::Majority);
        assert_eq!(p.agreement_pm, 612);
        assert_eq!(p.dissenters, vec![SourceId::PdbNet]);
        assert!(p.pinnable());
    }

    #[test]
    fn contested_when_only_the_volunteer_asserts_against_the_operator() {
        // PDB (600) asserts a facility the NOC page (950) does not
        // list: 600·1000/1550 = 387 < 600 → contested, not pinnable.
        // This is exactly the chaos conflict-rewrite shape.
        let mut src = empty();
        src.pdb_networks.insert(asn(1), pdb_net(1, &[9], &[]));
        src.noc_pages.insert(
            asn(1),
            NocPage {
                asn: asn(1),
                facilities: vec![fac(7)],
            },
        );
        let rec = reconcile(&src);
        let p = &rec.as_facility[&(asn(1), fac(9))];
        assert_eq!(p.conflict, ConflictClass::Contested);
        assert_eq!(p.agreement_pm, 387);
        assert!(!p.pinnable());
    }

    #[test]
    fn membership_site_yes_pdb_dissent_is_exactly_the_threshold() {
        // Site (900) lists the member, the PDB record covers
        // memberships elsewhere but omits this one: 900·1000/1500 =
        // 600 → majority, right at the threshold. Ordinary volunteer
        // lag must not contaminate the member directory.
        let mut src = empty();
        src.ixp_sites.insert(ixp(3), site(3, &[1], &[42]));
        src.pdb_networks.insert(asn(42), pdb_net(42, &[], &[5]));
        src.pdb_networks.insert(asn(5), pdb_net(5, &[], &[]));
        let rec = reconcile(&src);
        let p = &rec.membership[&(ixp(3), asn(42))];
        assert_eq!(p.agreement_pm, 600);
        assert_eq!(p.conflict, ConflictClass::Majority);
    }

    #[test]
    fn membership_pdb_yes_site_dissent_is_contested() {
        // The volunteer claims a membership the site directory refutes:
        // 600·1000/1500 = 400 → contested. The detector must not treat
        // this hop as confirmed-member evidence.
        let mut src = empty();
        src.ixp_sites.insert(ixp(3), site(3, &[1], &[7]));
        src.pdb_networks.insert(asn(42), pdb_net(42, &[], &[3]));
        let rec = reconcile(&src);
        let p = &rec.membership[&(ixp(3), asn(42))];
        assert_eq!(p.agreement_pm, 400);
        assert_eq!(p.conflict, ConflictClass::Contested);
        assert!(!p.pinnable());
    }

    #[test]
    fn empty_facility_list_abstains_like_jpnap() {
        // The PDB IXP record exists but lists no facilities (JPNAP
        // Tokyo I): it must abstain, leaving the website's facilities
        // single-source, not contested.
        let mut src = empty();
        src.pdb_ixps.insert(
            ixp(3),
            PdbIxpRecord {
                ixp: ixp(3),
                prefixes: vec![Ipv4Prefix::must([10, 0, 3, 0], 24)],
                facilities: Vec::new(),
            },
        );
        src.ixp_sites.insert(ixp(3), site(3, &[1, 2], &[]));
        let rec = reconcile(&src);
        for f in [1u32, 2] {
            let p = &rec.ixp_facility[&(ixp(3), fac(f))];
            assert_eq!(p.conflict, ConflictClass::SingleSource, "facility {f}");
            assert_eq!(p.agreement_pm, 1000);
        }
    }

    #[test]
    fn quality_rollup_counts_every_class() {
        let mut src = empty();
        // unanimous: AS 1 / fac 7 on both sources.
        src.pdb_networks.insert(asn(1), pdb_net(1, &[7, 9], &[]));
        src.noc_pages.insert(
            asn(1),
            NocPage {
                asn: asn(1),
                facilities: vec![fac(7)],
            },
        );
        // single-source: AS 2 only in PDB.
        src.pdb_networks.insert(asn(2), pdb_net(2, &[5], &[]));
        let rec = reconcile(&src);
        let q = rec.quality();
        // AS1: fac7 unanimous, fac9 contested (pdb vs noc dissent).
        // AS2: fac5 single-source.
        assert_eq!(q.records, 3);
        assert_eq!(q.unanimous, 1);
        assert_eq!(q.contested, 1);
        assert_eq!(q.single_source, 1);
        assert_eq!(q.majority, 0);
        assert_eq!(q.agreement_mean_pm, (1000 + 387 + 1000) / 3);
        let pdb = &q.per_source["pdb-net"];
        assert_eq!(pdb.claims, 3);
        assert_eq!(pdb.trust_pm, 600);
        let noc = &q.per_source["noc"];
        assert_eq!(noc.claims, 1);
        assert_eq!(noc.dissents, 1);
        assert_eq!(q.contested_pm(), 333);
    }

    #[test]
    fn pairwise_diff_counts_overlap_per_family() {
        let mut src = empty();
        src.pdb_networks.insert(asn(1), pdb_net(1, &[7, 9], &[]));
        src.noc_pages.insert(
            asn(1),
            NocPage {
                asn: asn(1),
                facilities: vec![fac(7), fac(8)],
            },
        );
        let rows = pairwise_diff(&src, SourceId::NocPage, SourceId::PdbNet);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.family, "as-facility");
        assert_eq!((r.both, r.only_a, r.only_b), (1, 1, 1));
        assert_eq!(r.jaccard_pm, 333);
    }

    #[test]
    fn real_derived_sources_reconcile_mostly_clean() {
        use cfs_topology::{Topology, TopologyConfig};
        let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
        let src = crate::sources::PublicSources::derive(&topo, &KbConfig::default());
        let rec = reconcile(&src);
        let q = rec.quality();
        assert!(q.records > 0);
        // Clean derivation: damage is omission, which reconciliation
        // reads as dissent only from covering sources — the bulk of
        // records must not be contested.
        assert!(
            q.contested_pm() < 200,
            "clean KB reads as {}‰ contested",
            q.contested_pm()
        );
        assert!(q.agreement_mean_pm > 800);
        // Prefixes are truth-derived everywhere: never contested.
        for p in rec.prefix.values() {
            assert_ne!(p.conflict, ConflictClass::Contested);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Arbitrary two-source disagreement over one AS's facilities:
        /// PDB lists some subset, the NOC page another. However the
        /// claims disagree, no contested claim is ever pinnable and
        /// every claim classifies into exactly one class consistent
        /// with its score.
        fn claims() -> impl Strategy<Value = Vec<u32>> {
            proptest::collection::vec(0u32..12, 0..6)
        }

        proptest! {
            #[test]
            fn contested_claims_are_never_pinnable(pdb in claims(), noc in claims()) {
                let mut src = empty();
                src.pdb_networks.insert(
                    asn(1),
                    pdb_net(1, &pdb, &[]),
                );
                src.noc_pages.insert(
                    asn(1),
                    NocPage { asn: asn(1), facilities: noc.iter().map(|f| fac(*f)).collect() },
                );
                let rec = reconcile(&src);
                for p in rec.as_facility.values() {
                    // The gate invariant the engine relies on.
                    prop_assert_eq!(
                        p.pinnable(),
                        p.conflict != ConflictClass::Contested
                    );
                    match p.conflict {
                        ConflictClass::Contested => {
                            prop_assert!(p.agreement_pm < CONTESTED_BELOW_PM);
                        }
                        ConflictClass::Majority => {
                            prop_assert!(p.agreement_pm >= CONTESTED_BELOW_PM);
                            prop_assert!(!p.dissenters.is_empty());
                        }
                        ConflictClass::Unanimous => {
                            prop_assert_eq!(p.agreement_pm, 1000);
                            prop_assert!(p.sources.len() >= 2);
                        }
                        ConflictClass::SingleSource => {
                            prop_assert_eq!(p.agreement_pm, 1000);
                            prop_assert_eq!(p.sources.len(), 1);
                        }
                    }
                }
            }

            #[test]
            fn reconciliation_is_deterministic(pdb in claims(), noc in claims()) {
                let mut src = empty();
                src.pdb_networks.insert(asn(1), pdb_net(1, &pdb, &[]));
                src.noc_pages.insert(
                    asn(1),
                    NocPage { asn: asn(1), facilities: noc.iter().map(|f| fac(*f)).collect() },
                );
                prop_assert_eq!(reconcile(&src), reconcile(&src));
            }
        }
    }
}
