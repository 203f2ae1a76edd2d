//! IP-to-ASN correction by alias-set majority vote (§4.1).
//!
//! "We map alias sets with conflicting IP interfaces to the ASN to which
//! the majority of interfaces are mapped, as proposed in [16]." This is
//! what repairs the point-to-point and sibling contamination before the
//! CFS algorithm runs.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use cfs_net::IpAsnDb;
use cfs_types::Asn;

use crate::midar::AliasResolution;

/// Statistics of a correction pass, mirroring the numbers the paper
/// reports (2,895 alias sets, 240 of them conflicting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CorrectionStats {
    /// Alias sets examined.
    pub sets: usize,
    /// Sets whose members mapped to more than one ASN.
    pub conflicting_sets: usize,
    /// Individual interfaces whose mapping was rewritten.
    pub corrected_interfaces: usize,
}

/// Produces the corrected IP→ASN view: the raw longest-prefix-match
/// answer everywhere, overridden inside alias sets by the majority vote.
///
/// Ties keep the raw mapping (no evidence either way); unmapped members
/// adopt the set majority.
pub fn correct_ip_to_asn(
    db: &IpAsnDb,
    aliases: &AliasResolution,
    interfaces: &[Ipv4Addr],
) -> (BTreeMap<Ipv4Addr, Asn>, CorrectionStats) {
    let mut out: BTreeMap<Ipv4Addr, Asn> = BTreeMap::new();
    let mut stats = CorrectionStats {
        sets: aliases.sets.len(),
        ..Default::default()
    };

    // Baseline: raw LPM for every interface of interest.
    for ip in interfaces {
        if let Some(asn) = db.origin(*ip) {
            out.insert(*ip, asn);
        }
    }

    for set in &aliases.sets {
        let mut votes: BTreeMap<Asn, usize> = BTreeMap::new();
        for ip in set {
            if let Some(asn) = db.origin(*ip) {
                *votes.entry(asn).or_default() += 1;
            }
        }
        if votes.len() > 1 {
            stats.conflicting_sets += 1;
        }
        let Some((majority, majority_count)) = votes
            .iter()
            .max_by_key(|(asn, count)| (*count, std::cmp::Reverse(*asn)))
            .map(|(asn, count)| (*asn, *count))
        else {
            continue; // fully unmapped set
        };
        // Strict majority required to overrule raw mappings.
        let mapped: usize = votes.values().sum();
        let strict = majority_count * 2 > mapped;
        for ip in set {
            match out.get(ip) {
                Some(current) if *current != majority && strict => {
                    out.insert(*ip, majority);
                    stats.corrected_interfaces += 1;
                }
                None => {
                    out.insert(*ip, majority);
                    stats.corrected_interfaces += 1;
                }
                _ => {}
            }
        }
    }

    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::midar::resolve_aliases;
    use crate::prober::IpIdProber;
    use cfs_net::{Announcement, Ipv4Prefix};
    use cfs_topology::{Topology, TopologyConfig};

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    /// Hand-built scenario: router B owns 3 interfaces, one of them
    /// addressed from A's space (a /31 handoff).
    #[test]
    fn majority_vote_fixes_ptp_contamination() {
        let db = IpAsnDb::from_announcements([
            Announcement {
                prefix: pfx("10.0.0.0/16"),
                origin: Asn(100),
            }, // AS A
            Announcement {
                prefix: pfx("10.1.0.0/16"),
                origin: Asn(200),
            }, // AS B
        ]);
        let set: Vec<Ipv4Addr> = vec![
            "10.0.0.1".parse().unwrap(), // ptp iface from A's space — wrong
            "10.1.5.1".parse().unwrap(),
            "10.1.5.2".parse().unwrap(),
        ];
        let aliases = AliasResolution {
            sets: vec![set.clone()],
            set_of: set.iter().map(|ip| (*ip, 0)).collect(),
        };
        let (corrected, stats) = correct_ip_to_asn(&db, &aliases, &set);
        assert_eq!(corrected[&set[0]], Asn(200), "ptp iface should flip to B");
        assert_eq!(corrected[&set[1]], Asn(200));
        assert_eq!(stats.conflicting_sets, 1);
        assert_eq!(stats.corrected_interfaces, 1);
    }

    #[test]
    fn ties_leave_raw_mapping() {
        let db = IpAsnDb::from_announcements([
            Announcement {
                prefix: pfx("10.0.0.0/16"),
                origin: Asn(100),
            },
            Announcement {
                prefix: pfx("10.1.0.0/16"),
                origin: Asn(200),
            },
        ]);
        let set: Vec<Ipv4Addr> = vec!["10.0.0.1".parse().unwrap(), "10.1.0.1".parse().unwrap()];
        let aliases = AliasResolution {
            sets: vec![set.clone()],
            set_of: set.iter().map(|ip| (*ip, 0)).collect(),
        };
        let (corrected, stats) = correct_ip_to_asn(&db, &aliases, &set);
        // 1-1 split: nothing flips.
        assert_eq!(corrected[&set[0]], Asn(100));
        assert_eq!(corrected[&set[1]], Asn(200));
        assert_eq!(stats.conflicting_sets, 1);
        assert_eq!(stats.corrected_interfaces, 0);
    }

    #[test]
    fn unmapped_member_adopts_majority() {
        let db = IpAsnDb::from_announcements([Announcement {
            prefix: pfx("10.1.0.0/16"),
            origin: Asn(200),
        }]);
        let set: Vec<Ipv4Addr> = vec![
            "192.0.2.1".parse().unwrap(), // unannounced
            "10.1.0.1".parse().unwrap(),
            "10.1.0.2".parse().unwrap(),
        ];
        let aliases = AliasResolution {
            sets: vec![set.clone()],
            set_of: set.iter().map(|ip| (*ip, 0)).collect(),
        };
        let (corrected, stats) = correct_ip_to_asn(&db, &aliases, &set);
        assert_eq!(corrected[&set[0]], Asn(200));
        assert_eq!(stats.conflicting_sets, 0);
        assert_eq!(stats.corrected_interfaces, 1);
    }

    #[test]
    fn end_to_end_correction_over_generated_topology() {
        let t = Topology::generate(TopologyConfig::tiny()).unwrap();
        let prober = IpIdProber::new(&t);
        let ips: Vec<Ipv4Addr> = t.ifaces.values().map(|i| i.ip).collect();
        let aliases = resolve_aliases(&prober, &ips, 1);
        let db = t.build_ipasn_db();
        let (corrected, stats) = correct_ip_to_asn(&db, &aliases, &ips);

        // Correction must improve (or at least not worsen) agreement with
        // ground truth over the raw LPM view.
        let truth = |ip: Ipv4Addr| t.ifaces[t.iface_by_ip(ip).unwrap()].asn;
        let raw_right = ips
            .iter()
            .filter(|ip| db.origin(**ip) == Some(truth(**ip)))
            .count();
        let fixed_right = ips
            .iter()
            .filter(|ip| corrected.get(ip) == Some(&truth(**ip)))
            .count();
        assert!(
            fixed_right >= raw_right,
            "correction made things worse: {fixed_right} < {raw_right}"
        );
        assert!(stats.sets > 0);
    }
}
