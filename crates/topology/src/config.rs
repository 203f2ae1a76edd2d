//! Generator configuration.
//!
//! Two presets matter: [`TopologyConfig::default`], a laptop-friendly
//! quarter-scale ecosystem used by tests and examples, and
//! [`TopologyConfig::paper`], which reproduces the dataset sizes of §3.1
//! (1,694 facilities, 368 IXPs) for the experiment harness. The region
//! mix and the generator's fractions (remote peering, tethering, silent
//! routers, …) are one calibration at every scale, so they are constants
//! beside the generator code that reads them.

use cfs_types::{Error, Result};

/// The sizes of the ground-truth generator. Every distribution is driven
/// by the single `seed`, so equal configs generate identical topologies.
#[derive(Clone, Debug, PartialEq)]
pub struct TopologyConfig {
    /// RNG seed; everything else being equal, the same seed reproduces
    /// the same world bit-for-bit.
    pub seed: u64,

    /// Total number of interconnection facilities (paper: 1,694).
    pub facility_budget: usize,
    /// Total number of IXPs (paper: 368). The generator keeps roughly a
    /// 3:1 facility:IXP ratio per metro, as observed in §3.1.2.
    pub ixp_budget: usize,

    /// Number of Tier-1 backbones (five of them take the paper's
    /// transit-target identities when `named_targets` is set).
    pub tier1_count: usize,
    /// Number of mid-tier transit providers.
    pub transit_count: usize,
    /// Number of CDNs (five take the paper's content-target identities).
    pub cdn_count: usize,
    /// Number of content/hosting networks.
    pub content_count: usize,
    /// Number of access / eyeball networks.
    pub access_count: usize,
    /// Number of enterprise edge networks.
    pub enterprise_count: usize,
    /// Number of IXP port resellers (remote-peering transport partners).
    pub reseller_count: usize,

    /// Give the ten paper targets their real identities (AS15169
    /// Google-like CDN, AS3356 Level3-like Tier-1, …).
    pub named_targets: bool,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self {
            seed: 0xCF5_2015,
            facility_budget: 420,
            ixp_budget: 92,
            tier1_count: 6,
            transit_count: 28,
            cdn_count: 6,
            content_count: 22,
            access_count: 120,
            enterprise_count: 40,
            reseller_count: 4,
            named_targets: true,
        }
    }
}

impl TopologyConfig {
    /// Full paper-scale configuration (§3.1: 1,694 facilities, 368 IXPs).
    pub fn paper() -> Self {
        Self {
            facility_budget: 1694,
            ixp_budget: 368,
            tier1_count: 10,
            transit_count: 110,
            cdn_count: 15,
            content_count: 90,
            access_count: 500,
            enterprise_count: 200,
            reseller_count: 8,
            ..Self::default()
        }
    }

    /// A tiny world for fast unit tests (a few dozen facilities).
    pub fn tiny() -> Self {
        Self {
            facility_budget: 60,
            ixp_budget: 14,
            tier1_count: 3,
            transit_count: 8,
            cdn_count: 3,
            content_count: 6,
            access_count: 25,
            enterprise_count: 8,
            reseller_count: 2,
            named_targets: false,
            ..Self::default()
        }
    }

    /// Returns the same config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total AS count across all classes.
    pub fn total_ases(&self) -> usize {
        self.tier1_count
            + self.transit_count
            + self.cdn_count
            + self.content_count
            + self.access_count
            + self.enterprise_count
            + self.reseller_count
    }

    /// Validates internal consistency; called by the generator before any
    /// randomness is drawn.
    pub fn validate(&self) -> Result<()> {
        if self.facility_budget == 0 {
            return Err(Error::config("facility_budget must be > 0"));
        }
        if self.ixp_budget == 0 {
            return Err(Error::config("ixp_budget must be > 0"));
        }
        if self.ixp_budget > self.facility_budget {
            return Err(Error::config("ixp_budget cannot exceed facility_budget"));
        }
        if self.tier1_count < 2 {
            return Err(Error::config("need at least 2 tier1 networks"));
        }
        if self.named_targets && (self.tier1_count < 5 || self.cdn_count < 5) {
            return Err(Error::config(
                "named_targets requires at least 5 tier1 and 5 cdn networks",
            ));
        }
        if self.total_ases() > 40_000 {
            return Err(Error::config(
                "total AS count exceeds supported scale (40k)",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        TopologyConfig::default().validate().unwrap();
        TopologyConfig::paper().validate().unwrap();
        TopologyConfig::tiny().validate().unwrap();
    }

    #[test]
    fn paper_scale_matches_dataset() {
        let c = TopologyConfig::paper();
        assert_eq!(c.facility_budget, 1694);
        assert_eq!(c.ixp_budget, 368);
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = TopologyConfig {
            facility_budget: 0,
            ..TopologyConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = TopologyConfig::default();
        c.ixp_budget = c.facility_budget + 1;
        assert!(c.validate().is_err());

        let c = TopologyConfig {
            named_targets: true,
            cdn_count: 2,
            ..TopologyConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let a = TopologyConfig::default();
        let b = a.clone().with_seed(99);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.facility_budget, b.facility_budget);
    }

    #[test]
    fn total_ases_sums_classes() {
        let c = TopologyConfig::tiny();
        assert_eq!(c.total_ases(), 3 + 8 + 3 + 6 + 25 + 8 + 2);
    }
}
