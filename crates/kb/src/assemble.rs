//! The §3.1 assembly pipeline: from messy public sources to the facility
//! map the CFS algorithm consumes.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

use cfs_geo::World;
use cfs_net::{Ipv4Prefix, PrefixTrie};
use cfs_types::{diff_keys, Asn, FacilityId, IxpId, MetroId, Region};

use crate::reconcile::{
    reconcile, ConflictClass, KbQuality, Provenance, QualitySums, Reconciliation,
};
use crate::sources::PublicSources;

/// What a KB epoch flip moved ([`KnowledgeBase::moved`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochMoves {
    /// The ASes whose footprint ([`KnowledgeBase::facilities_of_as`]) or
    /// facility-claim provenance ([`KnowledgeBase::provenance_of_as_facility`])
    /// differ.
    pub ases: BTreeSet<Asn>,
    /// The exchanges whose partner facilities
    /// ([`KnowledgeBase::facilities_of_ixp`]) differ.
    pub ixps: BTreeSet<IxpId>,
}

/// The assembled public picture of the peering ecosystem.
///
/// This is the *only* facility data the inference pipeline sees. It can
/// be degraded after assembly (`remove_facilities`) to run the Figure 8
/// robustness experiment.
///
/// The merged AS and exchange tables are the reconciled claims: an AS's
/// footprint (PeeringDB ∪ NOC pages) is the facility set of its
/// AS → facility claims, an exchange's partner facilities (PeeringDB ∪
/// IXP websites) those of its IXP → facility claims.
///
/// A listing edit ([`Self::relist`]) writes only the AS → facility
/// claims. Everything else sits behind `Arc`, so the epochs a run of
/// listing edits produces share it, and a clone copies only that map.
#[derive(Clone, Debug)]
pub struct KnowledgeBase {
    /// Confirmed IXP peering LANs: the prefix claims with ≥3 asserting
    /// sources (§3.1.2) at an exchange that passed the activity filter.
    ixp_prefixes: Arc<PrefixTrie<IxpId>>,
    /// IXP → fabric address → member AS (websites + PeeringDB, ≥2
    /// sources for the *membership*, keyed by what the sites publish).
    ixp_members: Arc<BTreeMap<IxpId, BTreeMap<Ipv4Addr, Asn>>>,
    /// AS → exchanges it is known to be a member of.
    as_ixps: Arc<BTreeMap<Asn, BTreeSet<IxpId>>>,
    /// Facility → metro, resolved through name normalization.
    facility_metro: Arc<BTreeMap<FacilityId, MetroId>>,
    /// Facility → region.
    facility_region: Arc<BTreeMap<FacilityId, Region>>,
    /// Exchanges that passed the activity filter.
    active_ixps: Arc<BTreeSet<IxpId>>,
    /// Cross-source vote on every merged claim (trust priors, agreement
    /// scores, conflict classes); its claim keys are the merged tables.
    reconciliation: Reconciliation,
    /// The integer sums `quality` is rolled up from.
    sums: QualitySums,
    /// The roll-up of the reconciliation, kept current with every edit.
    quality: KbQuality,
}

impl KnowledgeBase {
    /// Runs the assembly pipeline over the public sources.
    pub fn assemble(sources: &PublicSources, world: &World) -> Self {
        // ---- Facility locations: normalize city strings, map to metros.
        let mut facility_metro = BTreeMap::new();
        let mut facility_region = BTreeMap::new();
        for rec in &sources.pdb_facilities {
            if let Some(city) = world.find_city(&rec.city_raw, &rec.country_raw) {
                facility_metro.insert(rec.facility, world.metro_of(city));
                facility_region.insert(rec.facility, world.city(city).region);
            }
        }

        // ---- Activity filter: PCH's annotation, plus the requirement of
        // at least one known member from ≥2 sources (approximated by: the
        // IXP has a website member list or PDB networks claim membership).
        let pch_active: BTreeMap<IxpId, bool> = sources
            .pch_list
            .iter()
            .map(|(id, _, a)| (*id, *a))
            .collect();
        let mut membership_claims: BTreeMap<IxpId, usize> = BTreeMap::new();
        for site in sources.ixp_sites.values() {
            if !site.members.is_empty() {
                *membership_claims.entry(site.ixp).or_default() += 1;
            }
        }
        for net in sources.pdb_networks.values() {
            for ixp in &net.ixps {
                *membership_claims.entry(*ixp).or_default() += 1;
            }
        }
        let mut active_ixps = BTreeSet::new();
        let all_ixps: BTreeSet<IxpId> = sources
            .pdb_ixps
            .keys()
            .copied()
            .chain(sources.ixp_sites.keys().copied())
            .chain(sources.pch_list.iter().map(|(id, _, _)| *id))
            .collect();
        for id in &all_ixps {
            let pch_says_dead = pch_active.get(id) == Some(&false);
            let has_members = membership_claims.get(id).copied().unwrap_or(0) >= 1;
            if !pch_says_dead && has_members {
                active_ixps.insert(*id);
            }
        }

        // ---- Member directories (fabric address → ASN): IXP websites
        // plus PeeringDB netixlan rows. Highest trust wins on a
        // disputed address: the volunteer rows go in first, the site
        // directory (trust 900 vs 600) overwrites.
        let mut ixp_members: BTreeMap<IxpId, BTreeMap<Ipv4Addr, Asn>> = BTreeMap::new();
        for rec in sources.pdb_networks.values() {
            for (ixp, ip) in &rec.fabric_ips {
                ixp_members.entry(*ixp).or_default().insert(*ip, rec.asn);
            }
        }
        for site in sources.ixp_sites.values() {
            let entry = ixp_members.entry(site.ixp).or_default();
            for m in &site.members {
                entry.insert(m.fabric_ip, m.asn);
            }
        }

        // ---- AS → IXP membership (PeeringDB claims ∪ site directories).
        let mut as_ixps: BTreeMap<Asn, BTreeSet<IxpId>> = BTreeMap::new();
        for rec in sources.pdb_networks.values() {
            as_ixps
                .entry(rec.asn)
                .or_default()
                .extend(rec.ixps.iter().copied());
        }
        for site in sources.ixp_sites.values() {
            for m in &site.members {
                as_ixps.entry(m.asn).or_default().insert(site.ixp);
            }
        }

        // ---- Cross-source reconciliation: every merged claim gets a
        // provenance verdict (DESIGN.md §11), and the claim keys are the
        // merged footprints and partner facilities.
        let reconciliation = reconcile(sources);

        // ---- IXP prefix confirmation: a prefix counts when at least
        // three of {PeeringDB, IXP website, PCH, consortium} assert it.
        let mut ixp_prefixes = PrefixTrie::new();
        for ((id, prefix), p) in reconciliation.prefix.iter() {
            if p.sources.len() >= 3 && active_ixps.contains(id) {
                ixp_prefixes.insert(*prefix, *id);
            }
        }

        let sums = reconciliation.sums();
        Self {
            ixp_prefixes: Arc::new(ixp_prefixes),
            ixp_members: Arc::new(ixp_members),
            as_ixps: Arc::new(as_ixps),
            facility_metro: Arc::new(facility_metro),
            facility_region: Arc::new(facility_region),
            active_ixps: Arc::new(active_ixps),
            reconciliation,
            quality: sums.quality(),
            sums,
        }
    }

    /// The epoch after an edit to `asn`'s facility listings: `sources`
    /// must differ from the ones this epoch was assembled from only in
    /// `asn`'s PeeringDB and NOC-page facility lists (what
    /// [`PublicSources::set_listed`] edits). The result equals
    /// [`Self::assemble`] over `sources`, at the cost of one network's
    /// derivation, and shares every field the edit cannot reach.
    #[must_use]
    pub fn relist(&self, sources: &PublicSources, asn: Asn) -> Self {
        let mut next = self.clone();
        next.reconciliation.relist(sources, asn, &mut next.sums);
        next.quality = next.sums.quality();
        next
    }

    /// Facilities where `asn` is known to be present (empty set when the
    /// AS has no public record — the paper's "missing data" outcome).
    pub fn facilities_of_as(&self, asn: Asn) -> BTreeSet<FacilityId> {
        // `extend` inserts one by one: no buffer is staged beside the set.
        let mut set = BTreeSet::new();
        set.extend(claimed(&self.reconciliation.as_facility, asn));
        set
    }

    /// Whether there is *any* facility record for the AS.
    pub fn knows_as(&self, asn: Asn) -> bool {
        claimed(&self.reconciliation.as_facility, asn)
            .next()
            .is_some()
    }

    /// Known partner facilities of an exchange.
    pub fn facilities_of_ixp(&self, ixp: IxpId) -> BTreeSet<FacilityId> {
        let mut set = BTreeSet::new();
        set.extend(claimed(&self.reconciliation.ixp_facility, ixp));
        set
    }

    /// The exchange owning `ip`, per the confirmed prefix list — the §4.2
    /// Step 1 public/private classifier.
    pub fn ixp_of_ip(&self, ip: Ipv4Addr) -> Option<IxpId> {
        self.ixp_prefixes.longest_match(ip).map(|(_, id)| *id)
    }

    /// The member AS behind a fabric address, when a member list covers it.
    pub fn member_of_fabric_ip(&self, ixp: IxpId, ip: Ipv4Addr) -> Option<Asn> {
        self.ixp_members.get(&ixp).and_then(|m| m.get(&ip)).copied()
    }

    /// Exchanges `asn` is known to be a member of (PeeringDB claims plus
    /// website directories) — used for the tethering-vs-remote call and
    /// for follow-up target prioritization.
    pub fn ixps_of_as(&self, asn: Asn) -> &BTreeSet<IxpId> {
        static NONE: BTreeSet<IxpId> = BTreeSet::new();
        self.as_ixps.get(&asn).unwrap_or(&NONE)
    }

    /// How many fabric addresses the directories list for `asn` at `ixp` —
    /// members with two or more ports are the population the §4.4
    /// proximity heuristic can say something about (which port answers
    /// depends on switch locality).
    pub fn member_port_count(&self, ixp: IxpId, asn: Asn) -> usize {
        self.ixp_members
            .get(&ixp)
            .map(|m| m.values().filter(|a| **a == asn).count())
            .unwrap_or(0)
    }

    /// The metro of a facility (resolved from normalized city strings).
    pub fn metro_of_facility(&self, f: FacilityId) -> Option<MetroId> {
        self.facility_metro.get(&f).copied()
    }

    /// The region of a facility.
    pub fn region_of_facility(&self, f: FacilityId) -> Option<Region> {
        self.facility_region.get(&f).copied()
    }

    /// Every known facility in metro `m` — the metro-level widening pool
    /// the search falls back to when footprints fail to intersect
    /// (DESIGN.md §9).
    pub fn facilities_in_metro(&self, m: MetroId) -> BTreeSet<FacilityId> {
        self.facility_metro
            .iter()
            .filter(|(_, metro)| **metro == m)
            .map(|(f, _)| *f)
            .collect()
    }

    /// Exchanges that passed the activity filter.
    pub fn active_ixps(&self) -> &BTreeSet<IxpId> {
        &self.active_ixps
    }

    /// The `kb_quality` roll-up (conflict tallies, per-source stats).
    pub fn quality(&self) -> &KbQuality {
        &self.quality
    }

    /// Provenance of the claim that `asn` is present at facility `f`.
    pub fn provenance_of_as_facility(&self, asn: Asn, f: FacilityId) -> Option<&Provenance> {
        self.reconciliation.as_facility.get(&(asn, f))
    }

    /// Whether the search may pin `asn` at `f`: true unless the claim
    /// reconciled as *contested*. Claims the reconciler never saw (an
    /// AS with no public record at all) are not contested — they simply
    /// have no evidence, which the candidate sets already reflect.
    pub fn pin_allowed(&self, asn: Asn, f: FacilityId) -> bool {
        self.provenance_of_as_facility(asn, f)
            .is_none_or(Provenance::pinnable)
    }

    /// Trust-weighted agreement on the claim that `asn` is a member of
    /// `ixp`, in per-mille. Unreconciled pairs (nobody claimed the
    /// membership) score zero — no evidence is not full confidence.
    pub fn membership_agreement_pm(&self, ixp: IxpId, asn: Asn) -> u32 {
        self.reconciliation
            .membership
            .get(&(ixp, asn))
            .map_or(0, |p| p.agreement_pm)
    }

    /// Whether the membership claim for (`ixp`, `asn`) is contested.
    pub fn membership_contested(&self, ixp: IxpId, asn: Asn) -> bool {
        self.reconciliation
            .membership
            .get(&(ixp, asn))
            .is_some_and(|p| p.conflict == ConflictClass::Contested)
    }

    /// Trust-weighted agreement on the peering-LAN prefix covering `ip`
    /// at `ixp`, in per-mille — the confidence behind a prefix-rule hit
    /// in the multi-rule IXP-hop detector.
    pub fn prefix_agreement_pm(&self, ixp: IxpId, ip: Ipv4Addr) -> u32 {
        // Keys order by (exchange, network, length), so every prefix of
        // `ixp` that can contain `ip` sits between 0.0.0.0/0 and `ip`/32.
        let (lo, hi) = (
            Ipv4Prefix::must([0; 4], 0),
            Ipv4Prefix::must(ip.octets(), 32),
        );
        self.reconciliation
            .prefix
            .range((ixp, lo)..=(ixp, hi))
            .filter(|((_, p), _)| p.contains(ip))
            .map(|(_, prov)| prov.agreement_pm)
            .max()
            .unwrap_or(0)
    }

    /// Whether two epochs agree on everything observation classification
    /// reads: the confirmed peering-LAN space ([`Self::ixp_of_ip`]), the
    /// fabric-address directory ([`Self::member_of_fabric_ip`] and the
    /// port counts), and the activity filter. When the views match, every
    /// trace and looking-glass record classifies identically under either
    /// epoch, so a resident session absorbing the flip can skip
    /// re-extraction and re-converge from the footprint diff alone.
    pub fn same_classification_view(&self, other: &Self) -> bool {
        // The confirmed peering-LAN space is a function of the prefix
        // claims and the activity filter, so comparing both covers it.
        same(&self.active_ixps, &other.active_ixps)
            && same(&self.ixp_members, &other.ixp_members)
            && same(&self.as_ixps, &other.as_ixps)
            // Membership and prefix provenance weight the multi-rule
            // IXP-hop detector, so extraction reads them too.
            && same(&self.reconciliation.membership, &other.reconciliation.membership)
            && same(&self.reconciliation.prefix, &other.reconciliation.prefix)
    }

    /// What differs between two epochs for the footprints the search
    /// reads, or `None` when the epochs are incomparable: they place some
    /// facility in a different metro, or in none, which every verdict
    /// reads.
    pub fn moved(&self, other: &Self) -> Option<EpochMoves> {
        if !same(&self.facility_metro, &other.facility_metro) {
            return None;
        }
        let mut moved = EpochMoves::default();
        // A footprint change is a change of claim keys, so one walk over
        // the AS claims sees it beside every re-voted claim.
        diff_keys(
            &self.reconciliation.as_facility,
            &other.reconciliation.as_facility,
            |(a, _)| {
                moved.ases.insert(*a);
            },
        );
        // Partner facilities are the exchange claims' keys; a re-voted
        // claim moves no exchange.
        let (mine, theirs) = (
            &self.reconciliation.ixp_facility,
            &other.reconciliation.ixp_facility,
        );
        if !Arc::ptr_eq(mine, theirs) {
            fn only_in<'a, V>(
                a: &'a BTreeMap<(IxpId, FacilityId), V>,
                b: &'a BTreeMap<(IxpId, FacilityId), V>,
            ) -> impl Iterator<Item = IxpId> + 'a {
                a.keys().filter(|k| !b.contains_key(k)).map(|(x, _)| *x)
            }
            moved
                .ixps
                .extend(only_in(mine, theirs).chain(only_in(theirs, mine)));
        }
        Some(moved)
    }

    /// All ASes with any facility record.
    pub fn known_ases(&self) -> impl Iterator<Item = Asn> + '_ {
        // Claims are keyed (AS, facility), so each AS's claims are
        // adjacent: yield the AS of the first one.
        let mut last = None;
        self.reconciliation
            .as_facility
            .keys()
            .filter_map(move |(a, _)| (last.replace(*a) != Some(*a)).then_some(*a))
    }

    /// Total number of distinct facilities referenced anywhere.
    pub fn facility_count(&self) -> usize {
        self.facility_metro.len()
    }

    /// Degrades the knowledge base by deleting a set of facilities from
    /// every record — the Figure 8 robustness experiment ("we executed
    /// CFS while iteratively removing 1,400 facilities from our dataset").
    pub fn remove_facilities(&mut self, removed: &BTreeSet<FacilityId>) {
        let rec = &mut self.reconciliation;
        rec.as_facility.retain(|(_, f), _| !removed.contains(f));
        // Copy-on-write: epochs sharing these tables keep theirs.
        Arc::make_mut(&mut rec.ixp_facility).retain(|(_, f), _| !removed.contains(f));
        Arc::make_mut(&mut self.facility_metro).retain(|f, _| !removed.contains(f));
        Arc::make_mut(&mut self.facility_region).retain(|f, _| !removed.contains(f));
    }
}

/// Whether two shared fields hold equal values, without comparing them
/// when both epochs share one.
fn same<T: PartialEq>(a: &Arc<T>, b: &Arc<T>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

/// The facilities `key` holds claims on in a family keyed (entity,
/// facility), in order: one range walk.
fn claimed<K: Ord + Copy>(
    claims: &BTreeMap<(K, FacilityId), Provenance>,
    key: K,
) -> impl Iterator<Item = FacilityId> + '_ {
    let run = (key, FacilityId::new(0))..=(key, FacilityId::new(u32::MAX));
    claims.range(run).map(|((_, f), _)| *f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::{KbConfig, PublicSources};
    use cfs_topology::{Topology, TopologyConfig};

    fn setup() -> (Topology, KnowledgeBase) {
        let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
        let src = PublicSources::derive(
            &topo,
            &KbConfig {
                noc_pages: 20,
                ..Default::default()
            },
        );
        let kb = KnowledgeBase::assemble(&src, &topo.world);
        (topo, kb)
    }

    #[test]
    fn kb_facilities_are_subsets_of_truth() {
        let (topo, kb) = setup();
        for node in topo.ases.values() {
            let known = kb.facilities_of_as(node.asn);
            for f in &known {
                assert!(node.facilities.contains(f), "{} kb invents {f}", node.asn);
            }
        }
    }

    #[test]
    fn kb_misses_some_links_but_knows_most_ases() {
        // Needs a bigger world: in the tiny one a lucky seed can leave
        // every volunteer record complete.
        let topo = Topology::generate(TopologyConfig::default()).unwrap();
        let src = PublicSources::derive(&topo, &KbConfig::default());
        let kb = KnowledgeBase::assemble(&src, &topo.world);
        let truth_links: usize = topo.ases.values().map(|n| n.facilities.len()).sum();
        let kb_links: usize = topo
            .ases
            .keys()
            .map(|a| kb.facilities_of_as(*a).len())
            .sum();
        assert!(kb_links < truth_links, "no incompleteness modelled");
        assert!(
            kb_links * 10 > truth_links * 5,
            "kb too empty: {kb_links}/{truth_links}"
        );
        let known = topo.ases.keys().filter(|a| kb.knows_as(**a)).count();
        assert!(known * 10 >= topo.ases.len() * 8);
    }

    #[test]
    fn confirmed_prefixes_classify_fabric_addresses() {
        let (topo, kb) = setup();
        let mut classified = 0;
        let mut total = 0;
        for (id, ixp) in topo.ixps.iter() {
            if !ixp.active {
                continue;
            }
            for m in &ixp.members {
                total += 1;
                if kb.ixp_of_ip(m.fabric_ip) == Some(id) {
                    classified += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            classified * 10 >= total * 8,
            "{classified}/{total} fabric ips classified"
        );
    }

    #[test]
    fn inactive_ixps_filtered() {
        let (topo, kb) = setup();
        for (id, ixp) in topo.ixps.iter() {
            if !ixp.active {
                assert!(!kb.active_ixps().contains(&id));
                assert_eq!(kb.ixp_of_ip(ixp.peering_lan.nth(1).unwrap()), None);
            }
        }
    }

    #[test]
    fn facility_metros_match_ground_truth() {
        let (topo, kb) = setup();
        let mut resolved = 0;
        for (fid, f) in topo.facilities.iter() {
            if let Some(metro) = kb.metro_of_facility(fid) {
                resolved += 1;
                assert_eq!(metro, f.metro, "metro mismatch for {fid}");
            }
        }
        assert!(resolved * 10 >= topo.facilities.len() * 9);
    }

    #[test]
    fn member_lookup_works_for_covered_ixps() {
        let (topo, kb) = setup();
        let mut hits = 0;
        for (id, ixp) in topo.ixps.iter() {
            for m in &ixp.members {
                if kb.member_of_fabric_ip(id, m.fabric_ip) == Some(m.asn) {
                    hits += 1;
                }
            }
        }
        assert!(hits > 0, "no member directories assembled");
    }

    #[test]
    fn moved_names_exactly_the_edited_network_and_exchange() {
        let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
        let src = PublicSources::derive(&topo, &KbConfig::default());
        let kb = KnowledgeBase::assemble(&src, &topo.world);
        assert_eq!(kb.moved(&kb.clone()), Some(EpochMoves::default()));
        // Withdrawing a facility from a NOC page whose PeeringDB record
        // keeps it leaves the footprint alone but contests the claim.
        let (asn, f) = src
            .noc_pages
            .values()
            .filter(|p| p.facilities.len() >= 2)
            .find_map(|p| {
                let pdb = src.pdb_networks.get(&p.asn)?;
                let f = p.facilities.iter().find(|f| pdb.facilities.contains(f))?;
                Some((p.asn, *f))
            })
            .expect("a NOC page shares a facility with its PeeringDB record");
        let mut edited = src.clone();
        let page = edited.noc_pages.get_mut(&asn).unwrap();
        page.facilities.retain(|g| *g != f);
        let next = KnowledgeBase::assemble(&edited, &topo.world);
        assert_eq!(next.facilities_of_as(asn), kb.facilities_of_as(asn));
        assert!(kb.pin_allowed(asn, f) && !next.pin_allowed(asn, f));
        let ases = |ases| {
            Some(EpochMoves {
                ases,
                ixps: BTreeSet::new(),
            })
        };
        assert_eq!(kb.moved(&next), ases(BTreeSet::from([asn])));
        assert_eq!(next.moved(&kb), ases(BTreeSet::from([asn])));
        // An exchange's website dropping a partner facility moves that
        // exchange only.
        let site = src.ixp_sites.values().find(|s| !s.facilities.is_empty());
        let (ixp, g) = site
            .map(|s| (s.ixp, s.facilities[0]))
            .expect("a site lists a facility");
        let mut edited = src.clone();
        edited
            .ixp_sites
            .get_mut(&ixp)
            .unwrap()
            .facilities
            .retain(|h| *h != g);
        if let Some(rec) = edited.pdb_ixps.get_mut(&ixp) {
            rec.facilities.retain(|h| *h != g);
        }
        let moved = kb.moved(&KnowledgeBase::assemble(&edited, &topo.world));
        let ixps = BTreeSet::from([ixp]);
        assert_eq!(
            moved.map(|m| (m.ases.is_empty(), m.ixps)),
            Some((true, ixps))
        );
        // A facility leaving the metro table moves every verdict.
        let mut thin = kb.clone();
        thin.remove_facilities(&BTreeSet::from([f]));
        assert_eq!(kb.moved(&thin), None);
    }

    #[test]
    fn removing_facilities_shrinks_every_view() {
        let (topo, mut kb) = setup();
        let victim: BTreeSet<FacilityId> = topo
            .facilities
            .ids()
            .take(topo.facilities.len() / 2)
            .collect();
        let before: usize = topo
            .ases
            .keys()
            .map(|a| kb.facilities_of_as(*a).len())
            .sum();
        kb.remove_facilities(&victim);
        let after: usize = topo
            .ases
            .keys()
            .map(|a| kb.facilities_of_as(*a).len())
            .sum();
        assert!(after < before);
        for a in topo.ases.keys() {
            for f in kb.facilities_of_as(*a) {
                assert!(!victim.contains(&f));
            }
        }
        assert!(kb.facility_count() <= topo.facilities.len() - victim.len());
    }

    /// The merged tables, recomputed from the raw sources: footprints
    /// are PeeringDB ∪ NOC page, partner facilities PeeringDB ∪ website,
    /// and a listed prefix classifies its first host exactly when three
    /// distinct sources list it for an exchange that passed the activity
    /// filter. Tiny and default worlds, clean and `stale-kb+conflict`.
    #[test]
    fn merged_tables_match_the_raw_sources() {
        use crate::degrade_sources;
        use cfs_chaos::FaultPlan;
        let tiny = KbConfig {
            noc_pages: 20,
            ..Default::default()
        };
        for (topo_cfg, kb_cfg) in [
            (TopologyConfig::tiny(), tiny),
            (TopologyConfig::default(), KbConfig::default()),
        ] {
            let topo = Topology::generate(topo_cfg).unwrap();
            let clean = PublicSources::derive(&topo, &kb_cfg);
            let plan = FaultPlan::named("stale-kb+conflict", topo.config.seed).unwrap();
            let degraded = degrade_sources(&clean, &plan);
            for src in [clean, degraded] {
                assert!(PublicSources::from_json(&src.to_json().unwrap()).is_ok());
                let kb = KnowledgeBase::assemble(&src, &topo.world);
                let union = |a: Option<&Vec<FacilityId>>, b: Option<&Vec<FacilityId>>| {
                    let both = a.into_iter().chain(b).flatten();
                    both.copied().collect::<BTreeSet<_>>()
                };
                for asn in src.pdb_networks.keys().chain(src.noc_pages.keys()) {
                    let pdb = src.pdb_networks.get(asn).map(|r| &r.facilities);
                    let noc = src.noc_pages.get(asn).map(|p| &p.facilities);
                    let want = union(pdb, noc);
                    assert_eq!(kb.facilities_of_as(*asn), want, "{asn}");
                    assert_eq!(kb.knows_as(*asn), !want.is_empty(), "{asn}");
                }
                for ixp in src.pdb_ixps.keys().chain(src.ixp_sites.keys()) {
                    let pdb = src.pdb_ixps.get(ixp).map(|r| &r.facilities);
                    let site = src.ixp_sites.get(ixp).map(|s| &s.facilities);
                    assert_eq!(kb.facilities_of_ixp(*ixp), union(pdb, site), "{ixp}");
                }
                let lists = |x: IxpId| {
                    let pdb = src.pdb_ixps.get(&x).map(|r| &r.prefixes);
                    let site = src.ixp_sites.get(&x).map(|s| &s.prefixes);
                    let pch = src.pch_list.iter().find(|e| e.0 == x).map(|e| &e.1);
                    let cons = src.consortium_list.iter().find(|e| e.0 == x).map(|e| &e.1);
                    [pdb, site, pch, cons]
                };
                let listed: BTreeSet<(IxpId, Ipv4Prefix)> = src
                    .pdb_ixps
                    .keys()
                    .chain(src.ixp_sites.keys())
                    .chain(src.pch_list.iter().map(|e| &e.0))
                    .chain(src.consortium_list.iter().map(|e| &e.0))
                    .flat_map(|x| lists(*x).into_iter().flatten().flatten().map(|p| (*x, *p)))
                    .collect();
                assert!(!listed.is_empty());
                for (x, p) in listed {
                    let sources = lists(x).into_iter().flatten();
                    let votes = sources.filter(|ps| ps.contains(&p)).count();
                    let confirmed = votes >= 3 && kb.active_ixps().contains(&x);
                    let host = p.nth(1).unwrap();
                    assert_eq!(kb.ixp_of_ip(host) == Some(x), confirmed, "{x} {p}");
                }
            }
        }
    }

    /// The first field on which two epochs differ, if any. The
    /// destructuring makes a new field a compile error until it is
    /// compared here.
    fn first_difference(a: &KnowledgeBase, b: &KnowledgeBase) -> Option<&'static str> {
        let KnowledgeBase {
            ixp_prefixes,
            ixp_members,
            as_ixps,
            facility_metro,
            facility_region,
            active_ixps,
            reconciliation,
            sums,
            quality,
        } = a;
        [
            ("ixp_prefixes", ixp_prefixes.iter() == b.ixp_prefixes.iter()),
            ("ixp_members", *ixp_members == b.ixp_members),
            ("as_ixps", *as_ixps == b.as_ixps),
            ("facility_metro", *facility_metro == b.facility_metro),
            ("facility_region", *facility_region == b.facility_region),
            ("active_ixps", *active_ixps == b.active_ixps),
            ("reconciliation", *reconciliation == b.reconciliation),
            ("sums", *sums == b.sums),
            ("quality", *quality == b.quality),
        ]
        .into_iter()
        .find_map(|(field, equal)| (!equal).then_some(field))
    }

    mod relist {
        use super::*;
        use crate::degrade_sources;
        use cfs_chaos::FaultPlan;
        use proptest::prelude::*;
        use std::sync::LazyLock;

        /// The tiny world and its public sources, clean and degraded by
        /// `stale-kb+conflict`.
        static WORLD: LazyLock<(Topology, [PublicSources; 2])> = LazyLock::new(|| {
            let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
            let cfg = KbConfig {
                noc_pages: 20,
                ..Default::default()
            };
            let clean = PublicSources::derive(&topo, &cfg);
            let plan = FaultPlan::named("stale-kb+conflict", topo.config.seed).unwrap();
            let degraded = degrade_sources(&clean, &plan);
            (topo, [clean, degraded])
        });

        /// One listing edit, resolved against the current sources: the
        /// network it edits. Every edit stays inside that network's
        /// PeeringDB and NOC-page facility lists.
        fn edit(src: &mut PublicSources, facilities: u32, (kind, a, f): (u8, u32, u32)) -> Asn {
            let listed = |src: &PublicSources, asn: &Asn| -> BTreeSet<FacilityId> {
                let pdb = src.pdb_networks.get(asn).map(|r| &r.facilities);
                let noc = src.noc_pages.get(asn).map(|p| &p.facilities);
                pdb.into_iter().chain(noc).flatten().copied().collect()
            };
            let pdb: Vec<Asn> = src.pdb_networks.keys().copied().collect();
            let any = FacilityId::new(f % facilities);
            match kind {
                // Withdraw a listing (an AS with none gets one instead).
                0 => {
                    let asn = *pick(&pdb, a);
                    let held: Vec<FacilityId> = listed(src, &asn).into_iter().collect();
                    let (f, present) = if held.is_empty() {
                        (any, true)
                    } else {
                        (*pick(&held, f), false)
                    };
                    assert!(src.set_listed(asn, f, present));
                    asn
                }
                // List a facility the AS never listed.
                1 => {
                    let asn = *pick(&pdb, a);
                    let held = listed(src, &asn);
                    let fresh: Vec<FacilityId> = (0..facilities)
                        .map(FacilityId::new)
                        .filter(|g| !held.contains(g))
                        .collect();
                    assert!(src.set_listed(asn, *pick(&fresh, f), true));
                    asn
                }
                // Empty a PeeringDB facility list: the source abstains.
                2 => {
                    let asn = *pick(&pdb, a);
                    src.pdb_networks.get_mut(&asn).unwrap().facilities.clear();
                    asn
                }
                // Toggle a facility of an AS that has no NOC page.
                3 => {
                    let bare: Vec<Asn> = pdb
                        .into_iter()
                        .filter(|x| !src.noc_pages.contains_key(x))
                        .collect();
                    let asn = *pick(&bare, a);
                    let present = !listed(src, &asn).contains(&any);
                    assert!(src.set_listed(asn, any, present));
                    asn
                }
                // Toggle a facility on a NOC page alone.
                _ => {
                    let pages: Vec<Asn> = src.noc_pages.keys().copied().collect();
                    let asn = *pick(&pages, a);
                    let page = &mut src.noc_pages.get_mut(&asn).unwrap().facilities;
                    match page.iter().position(|g| *g == any) {
                        Some(i) => {
                            page.remove(i);
                        }
                        None => page.push(any),
                    }
                    asn
                }
            }
        }

        /// The `n`th element of `list`, wrapping.
        fn pick<T>(list: &[T], n: u32) -> &T {
            &list[n as usize % list.len()]
        }

        fn edits() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
            proptest::collection::vec((0u8..5, any::<u32>(), any::<u32>()), 1..16)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// After every listing edit, relisting the edited network
            /// from the previous epoch equals assembling the edited
            /// sources from scratch, field for field, and the epochs
            /// differ in that network at most.
            #[test]
            fn relist_equals_assemble_after_every_edit(degraded in any::<bool>(), steps in edits()) {
                let (topo, sources) = &*WORLD;
                let mut src = sources[usize::from(degraded)].clone();
                let facilities = topo.facilities.len() as u32;
                let mut kb = KnowledgeBase::assemble(&src, &topo.world);
                for step in steps {
                    let asn = edit(&mut src, facilities, step);
                    let next = kb.relist(&src, asn);
                    let fresh = KnowledgeBase::assemble(&src, &topo.world);
                    prop_assert_eq!(first_difference(&next, &fresh), None, "edit {:?} of {}", step.0, asn);
                    prop_assert!(kb.same_classification_view(&next));
                    let moved = kb.moved(&next).expect("the metro table is shared");
                    prop_assert!(moved.ixps.is_empty() && moved.ases.iter().all(|a| *a == asn));
                    kb = next;
                }
            }
        }
    }
}
