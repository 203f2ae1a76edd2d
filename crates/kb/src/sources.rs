//! The individual public data sources, generated from ground truth with
//! realistic incompleteness.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use cfs_net::Ipv4Prefix;
use cfs_topology::Topology;
use cfs_types::{Asn, FacilityId, IxpId};

/// Knobs for deriving the public sources.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct KbConfig {
    /// RNG seed for the damage model.
    pub seed: u64,
    /// Fraction of networks whose PeeringDB record is fully maintained.
    pub pdb_well_maintained: f64,
    /// Fraction of networks missing from PeeringDB entirely.
    pub pdb_absent: f64,
    /// Number of networks whose NOC page we transcribe (the paper checked
    /// 152 ASes).
    pub noc_pages: usize,
    /// Fraction of IXPs with a usable website (facility + member lists).
    pub ixp_site_coverage: f64,
    /// Number of large exchanges publishing *detailed* member data —
    /// interface-to-facility mappings and remote/local annotation, like
    /// AMS-IX / France-IX in §6.
    pub detailed_ixp_sites: usize,
    /// Probability that a PeeringDB IXP record omits its facility
    /// partnerships (the JPNAP Tokyo I case of §3.1.2).
    pub pdb_ixp_missing_facilities: f64,
    /// Probability a facility's PeeringDB city field uses a non-canonical
    /// spelling.
    pub messy_city_fraction: f64,
}

impl Default for KbConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED_0331,
            pdb_well_maintained: 0.7,
            pdb_absent: 0.03,
            noc_pages: 152,
            ixp_site_coverage: 0.75,
            detailed_ixp_sites: 5,
            pdb_ixp_missing_facilities: 0.10,
            messy_city_fraction: 0.20,
        }
    }
}

/// A facility row as PeeringDB publishes it: identity plus *raw* location
/// strings that still need the §3.1.1 normalization.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct PdbFacilityRecord {
    /// The facility (identity is resolvable across sources by name).
    pub facility: FacilityId,
    /// Display name.
    pub name: String,
    /// Raw city string, possibly non-canonical ("Frankfurt am Main").
    pub city_raw: String,
    /// Raw country string, possibly a full name ("Germany").
    pub country_raw: String,
}

/// A network (AS) record in the volunteer database.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct PdbNetworkRecord {
    /// The network.
    pub asn: Asn,
    /// Facilities the volunteer listed (a subset of the truth).
    pub facilities: Vec<FacilityId>,
    /// IXPs the network reports membership at.
    pub ixps: Vec<IxpId>,
    /// netixlan-style port records: the fabric address the network holds
    /// at each listed exchange (volunteers usually fill these in, since
    /// peers need them to configure sessions).
    pub fabric_ips: Vec<(IxpId, Ipv4Addr)>,
}

/// An exchange record in the volunteer database.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct PdbIxpRecord {
    /// The exchange.
    pub ixp: IxpId,
    /// Peering-LAN prefixes as reported.
    pub prefixes: Vec<Ipv4Prefix>,
    /// Partner facilities as reported (sometimes empty — JPNAP case).
    pub facilities: Vec<FacilityId>,
}

/// One member row on an IXP website.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct SiteMemberRecord {
    /// Member network.
    pub asn: Asn,
    /// Fabric address of the member port.
    pub fabric_ip: Ipv4Addr,
    /// Facility of the member port — only on *detailed* sites.
    pub facility: Option<FacilityId>,
    /// Remote/local annotation — only on detailed sites.
    pub remote: Option<bool>,
}

/// An IXP website: facility list plus member directory.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct IxpSiteRecord {
    /// The exchange.
    pub ixp: IxpId,
    /// Peering-LAN prefixes.
    pub prefixes: Vec<Ipv4Prefix>,
    /// Partner facilities (websites keep these current — §3.1.2 found the
    /// missing JPNAP facilities there).
    pub facilities: Vec<FacilityId>,
    /// Member directory.
    pub members: Vec<SiteMemberRecord>,
    /// Whether this is one of the detailed (AMS-IX-like) sites.
    pub detailed: bool,
}

/// A network operator's NOC page: the facility list operators publish to
/// attract peers (§3.1.1, Figure 2).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct NocPage {
    /// The network.
    pub asn: Asn,
    /// Facilities as documented by the operator (essentially complete).
    pub facilities: Vec<FacilityId>,
}

/// All public sources, bundled.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct PublicSources {
    /// The configuration that derived this bundle.
    pub config: KbConfig,
    /// PeeringDB facility table (near complete: the paper found PDB "was
    /// not missing the records of the facilities, only their association
    /// with the IXPs").
    pub pdb_facilities: Vec<PdbFacilityRecord>,
    /// PeeringDB network records.
    pub pdb_networks: BTreeMap<Asn, PdbNetworkRecord>,
    /// PeeringDB exchange records.
    pub pdb_ixps: BTreeMap<IxpId, PdbIxpRecord>,
    /// IXP websites, where available.
    pub ixp_sites: BTreeMap<IxpId, IxpSiteRecord>,
    /// NOC pages for the transcribed subset of networks.
    pub noc_pages: BTreeMap<Asn, NocPage>,
    /// PCH's exchange list: (ixp, prefixes, active?).
    pub pch_list: Vec<(IxpId, Vec<Ipv4Prefix>, bool)>,
    /// Consortium (Euro-IX-like) lists: ixp → prefixes.
    pub consortium_list: Vec<(IxpId, Vec<Ipv4Prefix>)>,
}

impl PublicSources {
    /// Derives the public view of a topology.
    pub fn derive(topo: &Topology, cfg: &KbConfig) -> Self {
        let mut rng = ChaCha20Rng::seed_from_u64(cfg.seed);

        // ---- PeeringDB facility table ----
        let pdb_facilities = topo
            .facilities
            .iter()
            .map(|(id, f)| {
                let city = topo.world.city(f.city);
                let (city_raw, country_raw) = if rng.random_bool(cfg.messy_city_fraction) {
                    messy_spelling(&city.name, &city.country, &mut rng)
                } else {
                    (city.name.clone(), city.country.clone())
                };
                PdbFacilityRecord {
                    facility: id,
                    name: f.name.clone(),
                    city_raw,
                    country_raw,
                }
            })
            .collect();

        // ---- PeeringDB network records (volunteer quality model) ----
        let mut pdb_networks = BTreeMap::new();
        for node in topo.ases.values() {
            // Volunteer quality is bimodal: most records are kept
            // current, the rest rot badly — real neglect is bursty
            // (Figure 2: 61 of 152 ASes carried *all* 1,424 missing
            // links), not a uniform per-link lottery.
            let quality: f64 = if rng.random_bool(cfg.pdb_absent) {
                continue; // no record at all
            } else if rng.random_bool(cfg.pdb_well_maintained) {
                1.0
            } else if rng.random_bool(0.45) {
                0.8 + rng.random::<f64>() * 0.18
            } else {
                0.05 + rng.random::<f64>() * 0.4
            };
            let mut facilities: Vec<FacilityId> = node
                .facilities
                .iter()
                .copied()
                .filter(|_| rng.random_bool(quality))
                .collect();
            // Whoever bothered to create the record listed at least the
            // headquarters site (the paper found only 4 of 152 records
            // with zero facilities).
            if facilities.is_empty() {
                if let Some(first) = node.facilities.first() {
                    if rng.random_bool(0.9) {
                        facilities.push(*first);
                    }
                }
            }
            let ixps: Vec<IxpId> = node
                .ixps
                .iter()
                .copied()
                .filter(|_| rng.random_bool(quality.max(0.6)))
                .collect();
            // netixlan rows for the listed memberships (mostly present).
            let mut fabric_ips: Vec<(IxpId, Ipv4Addr)> = Vec::new();
            for ixp in &ixps {
                for m in topo.ixps[*ixp].members_of(node.asn) {
                    if rng.random_bool((quality * 0.9).max(0.5)) {
                        fabric_ips.push((*ixp, m.fabric_ip));
                    }
                }
            }
            pdb_networks.insert(
                node.asn,
                PdbNetworkRecord {
                    asn: node.asn,
                    facilities,
                    ixps,
                    fabric_ips,
                },
            );
        }

        // ---- PeeringDB exchange records ----
        let mut pdb_ixps = BTreeMap::new();
        for (id, ixp) in topo.ixps.iter() {
            let facilities = if rng.random_bool(cfg.pdb_ixp_missing_facilities) {
                Vec::new() // the JPNAP case
            } else {
                ixp.facilities.clone()
            };
            pdb_ixps.insert(
                id,
                PdbIxpRecord {
                    ixp: id,
                    prefixes: vec![ixp.peering_lan],
                    facilities,
                },
            );
        }

        // ---- IXP websites ----
        let mut by_size: Vec<IxpId> = topo.ixps.iter().map(|(id, _)| id).collect();
        by_size.sort_by_key(|id| std::cmp::Reverse(topo.ixps[*id].members.len()));
        let detailed: std::collections::BTreeSet<IxpId> = by_size
            .iter()
            .copied()
            .take(cfg.detailed_ixp_sites)
            .collect();

        let mut ixp_sites = BTreeMap::new();
        for (id, ixp) in topo.ixps.iter() {
            if !ixp.active {
                continue; // dead exchanges have dead websites
            }
            let is_detailed = detailed.contains(&id);
            if !is_detailed && !rng.random_bool(cfg.ixp_site_coverage) {
                continue;
            }
            let members = ixp
                .members
                .iter()
                .map(|m| SiteMemberRecord {
                    asn: m.asn,
                    fabric_ip: m.fabric_ip,
                    facility: if is_detailed {
                        // The member's port facility: the access switch's
                        // location (for remote members, the reseller port).
                        Some(topo.switches[m.access_switch].facility)
                    } else {
                        None
                    },
                    remote: is_detailed.then_some(m.remote_via.is_some()),
                })
                .collect();
            ixp_sites.insert(
                id,
                IxpSiteRecord {
                    ixp: id,
                    prefixes: vec![ixp.peering_lan],
                    facilities: ixp.facilities.clone(),
                    members,
                    detailed: is_detailed,
                },
            );
        }

        // ---- NOC pages: biased toward networks with poor PDB records,
        // matching how the paper chose which sites to transcribe ----
        let mut noc_candidates: Vec<(f64, Asn)> = topo
            .ases
            .values()
            // The paper's 152 were "ASes with PeeringDB records" whose
            // scope looked off; transcription requires a record to
            // compare against.
            .filter(|n| n.facilities.len() >= 2 && pdb_networks.contains_key(&n.asn))
            .map(|n| {
                let pdb_count = pdb_networks
                    .get(&n.asn)
                    .map(|r| r.facilities.len())
                    .unwrap_or(0);
                let coverage = pdb_count as f64 / n.facilities.len() as f64;
                // Deficient records go first, but plenty of ordinary ones
                // get checked too (global networks were audited regardless
                // of apparent quality).
                (coverage + rng.random::<f64>() * 0.8, n.asn)
            })
            .collect();
        // total_cmp: the score mixes a ratio with seeded noise and can
        // never be NaN, but partial_cmp().unwrap() would turn a future
        // arithmetic slip into a panic deep inside KB assembly.
        noc_candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut noc_pages = BTreeMap::new();
        for (_, asn) in noc_candidates.into_iter().take(cfg.noc_pages) {
            let truth = &topo.ases[&asn].facilities;
            // NOC pages are essentially complete (the operator knows its
            // own sites); allow one lag.
            let facilities: Vec<FacilityId> = truth
                .iter()
                .copied()
                .filter(|_| rng.random_bool(0.98))
                .collect();
            noc_pages.insert(asn, NocPage { asn, facilities });
        }

        // ---- PCH and consortium exchange lists ----
        let mut pch_list = Vec::new();
        let mut consortium_list = Vec::new();
        for (id, ixp) in topo.ixps.iter() {
            // PCH tracks nearly everything and annotates liveness.
            if rng.random_bool(0.95) {
                pch_list.push((id, vec![ixp.peering_lan], ixp.active));
            }
            // Consortium databases cover most of the world's exchanges.
            if rng.random_bool(0.8) {
                consortium_list.push((id, vec![ixp.peering_lan]));
            }
        }

        Self {
            config: cfg.clone(),
            pdb_facilities,
            pdb_networks,
            pdb_ixps,
            ixp_sites,
            noc_pages,
            pch_list,
            consortium_list,
        }
    }

    /// Every network with a PeeringDB record or a NOC page, ascending:
    /// the networks whose facility listings the assembly merges.
    pub(crate) fn networks(&self) -> BTreeSet<Asn> {
        let pdb = self.pdb_networks.keys();
        pdb.chain(self.noc_pages.keys()).copied().collect()
    }

    /// Lists (`present`) or withdraws `facility` for `asn`, the edit a
    /// `kb-flip` delta makes. The assembled footprint is PeeringDB ∪ NOC
    /// page, so the edit reaches both: the PeeringDB record, and the NOC
    /// page when the network has one. Returns `false`, editing nothing,
    /// when `asn` has no PeeringDB record.
    #[must_use]
    pub fn set_listed(&mut self, asn: Asn, facility: FacilityId, present: bool) -> bool {
        let Some(rec) = self.pdb_networks.get_mut(&asn) else {
            return false;
        };
        let page = self.noc_pages.get_mut(&asn).map(|p| &mut p.facilities);
        for facilities in std::iter::once(&mut rec.facilities).chain(page) {
            facilities.retain(|f| *f != facility);
            if present {
                facilities.push(facility);
                facilities.sort_unstable();
            }
        }
        true
    }
}

/// Produces a plausible non-canonical spelling for a city/country pair.
fn messy_spelling(city: &str, country: &str, rng: &mut ChaCha20Rng) -> (String, String) {
    let variants: &[(&str, &str)] = &[
        ("frankfurt", "Frankfurt am Main"),
        ("new york", "New York City"),
        ("dusseldorf", "Duesseldorf"),
        ("cologne", "Koeln"),
        ("munich", "Muenchen"),
        ("vienna", "Wien"),
        ("prague", "Praha"),
        ("milan", "Milano"),
        ("moscow", "Moskva"),
        ("kiev", "Kyiv"),
        ("st petersburg", "Saint Petersburg"),
        ("washington", "Washington, D.C."),
        ("the hague", "Den Haag"),
        ("brussels", "Bruxelles"),
        ("warsaw", "Warszawa"),
        ("lisbon", "Lisboa"),
        ("geneva", "Geneve"),
    ];
    let city_raw = variants
        .iter()
        .find(|(canon, _)| *canon == city)
        .map(|(_, messy)| (*messy).to_string())
        .unwrap_or_else(|| {
            // Generic damage: title case (normalization folds it back).
            let mut s = String::with_capacity(city.len());
            let mut upper = true;
            for ch in city.chars() {
                if upper && ch.is_ascii_alphabetic() {
                    s.push(ch.to_ascii_uppercase());
                    upper = false;
                } else {
                    s.push(ch);
                    if ch == ' ' {
                        upper = true;
                    }
                }
            }
            s
        });
    let country_raw = match country_full_name(country) {
        Some(full) if rng.random_bool(0.5) => full.to_string(),
        _ => country.to_string(),
    };
    (city_raw, country_raw)
}

fn country_full_name(iso: &str) -> Option<&'static str> {
    Some(match iso {
        "US" => "United States",
        "GB" => "United Kingdom",
        "DE" => "Germany",
        "NL" => "The Netherlands",
        "FR" => "France",
        "RU" => "Russian Federation",
        "JP" => "Japan",
        "BR" => "Brazil",
        "AU" => "Australia",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_topology::TopologyConfig;

    fn sources() -> (Topology, PublicSources) {
        let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
        let cfg = KbConfig {
            noc_pages: 20,
            ..KbConfig::default()
        };
        let src = PublicSources::derive(&topo, &cfg);
        (topo, src)
    }

    #[test]
    fn facility_table_is_complete() {
        let (topo, src) = sources();
        assert_eq!(src.pdb_facilities.len(), topo.facilities.len());
    }

    #[test]
    fn some_networks_are_missing_and_some_incomplete() {
        // Larger world: with ~200 ASes the 3% absence rate is virtually
        // guaranteed to hit someone.
        let topo = Topology::generate(TopologyConfig::default()).unwrap();
        let src = PublicSources::derive(&topo, &KbConfig::default());
        assert!(
            src.pdb_networks.len() < topo.ases.len(),
            "nobody missing from PDB"
        );
        let incomplete = src
            .pdb_networks
            .values()
            .filter(|r| r.facilities.len() < topo.ases[&r.asn].facilities.len())
            .count();
        assert!(incomplete > 0, "no volunteer damage at all");
    }

    #[test]
    fn noc_pages_are_nearly_complete() {
        let (topo, src) = sources();
        assert!(!src.noc_pages.is_empty());
        let (mut listed, mut truth_total) = (0usize, 0usize);
        for page in src.noc_pages.values() {
            let truth = &topo.ases[&page.asn].facilities;
            listed += page.facilities.len();
            truth_total += truth.len();
            for f in &page.facilities {
                assert!(truth.contains(f), "NOC page invents a facility");
            }
        }
        assert!(
            listed * 100 >= truth_total * 93,
            "{listed}/{truth_total} listed"
        );
    }

    #[test]
    fn noc_pages_prefer_poorly_maintained_networks() {
        let (topo, src) = sources();
        // Average PDB coverage of NOC-page ASes should be below the
        // overall average — we transcribed the deficient ones.
        let coverage = |asn: &Asn| {
            let truth = topo.ases[asn].facilities.len().max(1);
            let pdb = src
                .pdb_networks
                .get(asn)
                .map(|r| r.facilities.len())
                .unwrap_or(0);
            pdb as f64 / truth as f64
        };
        let noc_avg: f64 =
            src.noc_pages.keys().map(coverage).sum::<f64>() / src.noc_pages.len() as f64;
        let all_avg: f64 = topo.ases.keys().map(coverage).sum::<f64>() / topo.ases.len() as f64;
        assert!(noc_avg <= all_avg + 0.05, "noc {noc_avg} vs all {all_avg}");
    }

    #[test]
    fn detailed_sites_expose_port_facilities() {
        let (_, src) = sources();
        let detailed: Vec<_> = src.ixp_sites.values().filter(|s| s.detailed).collect();
        assert_eq!(
            detailed.len(),
            src.config.detailed_ixp_sites.min(detailed.len())
        );
        assert!(!detailed.is_empty());
        for site in detailed {
            for m in &site.members {
                assert!(m.facility.is_some());
                assert!(m.remote.is_some());
            }
        }
    }

    #[test]
    fn ordinary_sites_hide_port_details() {
        let (_, src) = sources();
        for site in src.ixp_sites.values().filter(|s| !s.detailed) {
            for m in &site.members {
                assert!(m.facility.is_none());
                assert!(m.remote.is_none());
            }
        }
    }

    #[test]
    fn inactive_ixps_have_no_site_and_pch_knows() {
        let (topo, src) = sources();
        for (id, ixp) in topo.ixps.iter() {
            if !ixp.active {
                assert!(!src.ixp_sites.contains_key(&id));
                if let Some((_, _, active)) = src.pch_list.iter().find(|(x, _, _)| *x == id) {
                    assert!(!active);
                }
            }
        }
    }

    #[test]
    fn messy_city_names_normalize_back() {
        let (topo, src) = sources();
        let world = &topo.world;
        let mut messy_seen = 0;
        for rec in &src.pdb_facilities {
            let truth_city = topo.facilities[rec.facility].city;
            if rec.city_raw != world.city(truth_city).name {
                messy_seen += 1;
            }
            let resolved = world.find_city(&rec.city_raw, &rec.country_raw);
            assert_eq!(
                resolved,
                Some(truth_city),
                "normalization failed for {:?}/{:?}",
                rec.city_raw,
                rec.country_raw
            );
        }
        assert!(messy_seen > 0, "no messy spellings generated");
    }

    #[test]
    fn derivation_is_deterministic() {
        let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
        let a = PublicSources::derive(&topo, &KbConfig::default());
        let b = PublicSources::derive(&topo, &KbConfig::default());
        assert_eq!(a.pdb_networks.len(), b.pdb_networks.len());
        for (x, y) in a.pdb_networks.values().zip(b.pdb_networks.values()) {
            assert_eq!(x.facilities, y.facilities);
        }
    }
}
