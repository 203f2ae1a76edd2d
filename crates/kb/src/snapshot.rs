//! JSON snapshots of the public sources.
//!
//! Real studies work from dated dumps ("we compiled a list of 1,694
//! facilities … for April 2015"); this module gives the derived public
//! view the same property. A [`PublicSources`] bundle can be saved as a
//! human-editable JSON document and loaded back — so a degraded,
//! hand-corrected, or externally produced view (a real PeeringDB dump,
//! massaged into this schema) can drive the pipeline instead of the
//! generated one.

use std::collections::BTreeSet;
use std::path::Path;

use cfs_net::Ipv4Prefix;
use cfs_types::{Error, IxpId, Result};

use crate::sources::PublicSources;

impl PublicSources {
    /// Serializes the bundle to pretty-printed JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| Error::invalid(format!("snapshot serialize: {e}")))
    }

    /// Parses a bundle from JSON. A bundle whose exchange tables a
    /// prefix vote would read differently from its provenance is
    /// refused: an exchange listed twice in one table, a prefix repeated
    /// in one source's list, or a record filed under another exchange's
    /// key.
    pub fn from_json(json: &str) -> Result<Self> {
        let src: Self = serde_json::from_str(json)
            .map_err(|e| Error::invalid(format!("snapshot parse: {e}")))?;
        let pdb = src.pdb_ixps.iter().map(|(k, r)| (*k, r.ixp, &r.prefixes));
        check_exchanges("pdb_ixps", pdb)?;
        let sites = src.ixp_sites.iter().map(|(k, s)| (*k, s.ixp, &s.prefixes));
        check_exchanges("ixp_sites", sites)?;
        let pch = src.pch_list.iter().map(|(x, ps, _)| (*x, *x, ps));
        check_exchanges("pch_list", pch)?;
        let consortium = src.consortium_list.iter().map(|(x, ps)| (*x, *x, ps));
        check_exchanges("consortium_list", consortium)?;
        Ok(src)
    }

    /// Writes the bundle to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Loads a bundle from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
    }
}

/// Checks one source's exchange table, given as (key the entry is filed
/// under, exchange its record names, prefixes): the reconciler gives the
/// source one vote per exchange and prefix, read through that key.
fn check_exchanges<'a>(
    table: &str,
    entries: impl Iterator<Item = (IxpId, IxpId, &'a Vec<Ipv4Prefix>)>,
) -> Result<()> {
    let mut exchanges = BTreeSet::new();
    for (key, ixp, prefixes) in entries {
        let mut seen = BTreeSet::new();
        let fault = if key != ixp {
            Some(format!("the record of exchange {ixp} is filed under {key}"))
        } else if !exchanges.insert(ixp) {
            Some(format!("exchange {ixp} is listed twice"))
        } else {
            let twice = prefixes.iter().find(|p| !seen.insert(**p));
            twice.map(|p| format!("exchange {ixp} lists prefix {p} twice"))
        };
        if let Some(fault) = fault {
            return Err(Error::invalid(format!("snapshot {table}: {fault}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::KnowledgeBase;
    use crate::sources::KbConfig;
    use cfs_topology::{Topology, TopologyConfig};

    fn sources() -> (Topology, PublicSources) {
        let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
        let src = PublicSources::derive(&topo, &KbConfig { noc_pages: 10 });
        (topo, src)
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let (_, src) = sources();
        let json = src.to_json().unwrap();
        let back = PublicSources::from_json(&json).unwrap();

        assert_eq!(src.pdb_facilities.len(), back.pdb_facilities.len());
        assert_eq!(src.pdb_networks.len(), back.pdb_networks.len());
        for (a, b) in src.pdb_networks.values().zip(back.pdb_networks.values()) {
            assert_eq!(a.asn, b.asn);
            assert_eq!(a.facilities, b.facilities);
            assert_eq!(a.ixps, b.ixps);
            assert_eq!(a.fabric_ips, b.fabric_ips);
        }
        assert_eq!(src.pdb_ixps.len(), back.pdb_ixps.len());
        assert_eq!(src.ixp_sites.len(), back.ixp_sites.len());
        assert_eq!(src.noc_pages.len(), back.noc_pages.len());
        assert_eq!(src.pch_list, back.pch_list);
        assert_eq!(src.consortium_list, back.consortium_list);
    }

    #[test]
    fn reloaded_snapshot_assembles_identically() {
        let (topo, src) = sources();
        let json = src.to_json().unwrap();
        let back = PublicSources::from_json(&json).unwrap();

        let kb_a = KnowledgeBase::assemble(&src, &topo.world);
        let kb_b = KnowledgeBase::assemble(&back, &topo.world);
        for asn in topo.ases.keys() {
            assert_eq!(kb_a.facilities_of_as(*asn), kb_b.facilities_of_as(*asn));
            assert_eq!(kb_a.ixps_of_as(*asn), kb_b.ixps_of_as(*asn));
        }
        assert_eq!(kb_a.active_ixps(), kb_b.active_ixps());
        assert_eq!(kb_a.facility_count(), kb_b.facility_count());
    }

    #[test]
    fn save_and_load_via_file() {
        let (_, src) = sources();
        let dir = std::env::temp_dir().join("cfs-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sources.json");
        src.save(&path).unwrap();
        let back = PublicSources::load(&path).unwrap();
        assert_eq!(src.pdb_networks.len(), back.pdb_networks.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_json_rejected_cleanly() {
        assert!(PublicSources::from_json("{").is_err());
        assert!(PublicSources::from_json("{\"pdb_facilities\": 5}").is_err());
        assert!(PublicSources::load("/nonexistent/path.json").is_err());
    }

    /// `from_json` on `src` after `edit`, as the refusal's message.
    fn refusal(edit: impl FnOnce(&mut PublicSources)) -> String {
        let (_, mut src) = sources();
        edit(&mut src);
        match PublicSources::from_json(&src.to_json().unwrap()) {
            Err(Error::Invalid { reason }) => reason,
            other => panic!("snapshot accepted: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn an_exchange_listed_twice_is_refused() {
        let reason = refusal(|src| {
            let first = src.pch_list[0].clone();
            src.pch_list.push(first);
        });
        assert!(
            reason.contains("pch_list") && reason.contains("twice"),
            "{reason}"
        );
        let reason = refusal(|src| {
            let first = src.consortium_list[0].clone();
            src.consortium_list.push(first);
        });
        assert!(reason.contains("consortium_list"), "{reason}");
    }

    #[test]
    fn a_prefix_repeated_in_one_list_is_refused() {
        let reason = refusal(|src| {
            let rec = src.pdb_ixps.values_mut().find(|r| !r.prefixes.is_empty());
            let rec = rec.expect("a PeeringDB exchange lists a prefix");
            rec.prefixes.push(rec.prefixes[0]);
        });
        assert!(
            reason.contains("pdb_ixps") && reason.contains("prefix"),
            "{reason}"
        );
        let reason = refusal(|src| {
            let (_, prefixes, _) = &mut src.pch_list[0];
            prefixes.push(prefixes[0]);
        });
        assert!(
            reason.contains("pch_list") && reason.contains("prefix"),
            "{reason}"
        );
    }

    #[test]
    fn a_record_filed_under_another_exchange_is_refused() {
        let reason = refusal(|src| {
            let mut keys = src.pdb_ixps.keys().copied();
            let (a, b) = (keys.next().unwrap(), keys.next().unwrap());
            let rec = src.pdb_ixps[&a].clone();
            src.pdb_ixps.insert(b, rec);
        });
        assert!(
            reason.contains("pdb_ixps") && reason.contains("filed under"),
            "{reason}"
        );
        let reason = refusal(|src| {
            let mut keys = src.ixp_sites.keys().copied();
            let (a, b) = (keys.next().unwrap(), keys.next().unwrap());
            let site = src.ixp_sites[&a].clone();
            src.ixp_sites.insert(b, site);
        });
        assert!(
            reason.contains("ixp_sites") && reason.contains("filed under"),
            "{reason}"
        );
    }

    #[test]
    fn snapshot_is_editable_json() {
        // The schema must be plain data a human can patch: check that a
        // facility row looks like named fields with a string city.
        let (_, src) = sources();
        let json = src.to_json().unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let first = &value["pdb_facilities"][0];
        assert!(first["facility"].is_number());
        assert!(first["name"].is_string());
        assert!(first["city_raw"].is_string());
    }
}
