//! Vantage points and the four measurement platforms of Table 1.

use std::collections::BTreeMap;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

use cfs_geo::GeoPoint;
use cfs_topology::Topology;
use cfs_types::{Arena, AsClass, Asn, Region, Result, RouterId, VantagePointId};

/// A measurement platform (Table 1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Platform {
    /// RIPE Atlas: thousands of home probes, Europe-heavy footprint.
    RipeAtlas,
    /// Looking glasses: web interfaces on production routers of transit
    /// networks and IXPs; rate-limited, targeted queries only.
    LookingGlass,
    /// iPlane: PlanetLab-hosted daily sweeps.
    IPlane,
    /// CAIDA Archipelago: ~100 monitors sweeping the announced space.
    Ark,
}

impl Platform {
    /// All platforms in Table 1 order.
    pub const ALL: [Platform; 4] = [Self::RipeAtlas, Self::LookingGlass, Self::IPlane, Self::Ark];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Self::RipeAtlas => "ripe-atlas",
            Self::LookingGlass => "looking-glass",
            Self::IPlane => "iplane",
            Self::Ark => "ark",
        }
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A traceroute origin.
#[derive(Clone, Debug)]
pub struct VantagePoint {
    /// Stable id.
    pub id: VantagePointId,
    /// Hosting platform.
    pub platform: Platform,
    /// The AS the vantage point measures from.
    pub asn: Asn,
    /// The router probes enter the topology through. For looking glasses
    /// this *is* the production router; for Atlas it is the access
    /// router the probe's home connection attaches to.
    pub router: RouterId,
    /// Probe coordinates (the router's).
    pub coords: GeoPoint,
}

/// How many vantage points to deploy per platform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VpConfig {
    /// RIPE Atlas probe count (paper: 6,385).
    pub atlas: usize,
    /// Looking-glass count (paper: 1,877).
    pub looking_glass: usize,
    /// iPlane vantage points (paper: 147).
    pub iplane: usize,
    /// Ark monitors (paper: 107).
    pub ark: usize,
}

impl Default for VpConfig {
    fn default() -> Self {
        Self {
            atlas: 1500,
            looking_glass: 450,
            iplane: 60,
            ark: 50,
        }
    }
}

impl VpConfig {
    /// The paper's Table 1 counts.
    pub fn paper() -> Self {
        Self {
            atlas: 6385,
            looking_glass: 1877,
            iplane: 147,
            ark: 107,
        }
    }

    /// A minimal set for unit tests.
    pub fn tiny() -> Self {
        Self {
            atlas: 60,
            looking_glass: 25,
            iplane: 6,
            ark: 5,
        }
    }
}

/// The deployed vantage points with per-platform indices.
#[derive(Clone, Debug)]
pub struct VpSet {
    /// All vantage points.
    pub vps: Arena<VantagePointId, VantagePoint>,
    by_platform: BTreeMap<Platform, Vec<VantagePointId>>,
}

impl VpSet {
    /// Vantage points of one platform.
    pub fn of_platform(&self, platform: Platform) -> &[VantagePointId] {
        self.by_platform
            .get(&platform)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All vantage point ids.
    pub fn ids(&self) -> impl Iterator<Item = VantagePointId> + '_ {
        self.vps.ids()
    }

    /// Number of distinct ASes hosting vantage points (Table 1 row 2).
    pub fn distinct_ases(&self, platform: Option<Platform>) -> usize {
        let mut asns: Vec<Asn> = self
            .vps
            .values()
            .filter(|vp| platform.is_none_or(|p| vp.platform == p))
            .map(|vp| vp.asn)
            .collect();
        asns.sort_unstable();
        asns.dedup();
        asns.len()
    }
}

/// Atlas's region skew: over half the probes sit in Europe.
const ATLAS_REGION_WEIGHTS: [(Region, f64); 6] = [
    (Region::Europe, 0.55),
    (Region::NorthAmerica, 0.22),
    (Region::Asia, 0.09),
    (Region::Oceania, 0.05),
    (Region::SouthAmerica, 0.05),
    (Region::Africa, 0.04),
];

/// RNG seed for deployment choices: one placement stream at every scale
/// (the topology seed varies the world the vantage points land in).
const DEPLOY_SEED: u64 = 0xA71A5;

/// Deploys vantage points over a topology.
pub fn deploy_vantage_points(topo: &Topology, cfg: &VpConfig) -> Result<VpSet> {
    let mut rng = ChaCha20Rng::seed_from_u64(DEPLOY_SEED);
    let mut vps: Arena<VantagePointId, VantagePoint> = Arena::new();
    let mut by_platform: BTreeMap<Platform, Vec<VantagePointId>> = BTreeMap::new();

    // ---- RIPE Atlas: home probes behind access networks ----
    let mut access_by_region: BTreeMap<Region, Vec<Asn>> = BTreeMap::new();
    for node in topo.ases.values() {
        if node.class == AsClass::Access {
            access_by_region
                .entry(node.home_region)
                .or_default()
                .push(node.asn);
        }
    }
    let all_access: Vec<Asn> = topo
        .ases
        .values()
        .filter(|n| n.class == AsClass::Access)
        .map(|n| n.asn)
        .collect();
    for _ in 0..cfg.atlas {
        let x: f64 = rng.random();
        let mut acc = 0.0;
        let mut region = Region::Europe;
        for (r, w) in ATLAS_REGION_WEIGHTS {
            acc += w;
            if x < acc {
                region = r;
                break;
            }
        }
        let pool = access_by_region.get(&region).unwrap_or(&all_access);
        let pool = if pool.is_empty() { &all_access } else { pool };
        let asn = pool[rng.random_range(0..pool.len())];
        let routers = &topo.ases[&asn].routers;
        let router = routers[rng.random_range(0..routers.len())];
        push_vp(
            &mut vps,
            &mut by_platform,
            Platform::RipeAtlas,
            asn,
            router,
            topo,
        );
    }

    // ---- Looking glasses: production routers of transit networks ----
    let mut lg_routers: Vec<(Asn, RouterId)> = topo
        .ases
        .values()
        .filter(|n| matches!(n.class, AsClass::Tier1 | AsClass::Transit))
        .flat_map(|n| n.routers.iter().map(move |r| (n.asn, *r)))
        .collect();
    lg_routers.shuffle(&mut rng);
    for (asn, router) in lg_routers.into_iter().take(cfg.looking_glass) {
        push_vp(
            &mut vps,
            &mut by_platform,
            Platform::LookingGlass,
            asn,
            router,
            topo,
        );
    }

    // ---- iPlane and Ark: small, globally scattered sets ----
    let host_pool: Vec<Asn> = topo
        .ases
        .values()
        .filter(|n| {
            matches!(
                n.class,
                AsClass::Access | AsClass::Content | AsClass::Enterprise
            )
        })
        .map(|n| n.asn)
        .collect();
    for (platform, count) in [(Platform::IPlane, cfg.iplane), (Platform::Ark, cfg.ark)] {
        for _ in 0..count {
            let asn = host_pool[rng.random_range(0..host_pool.len())];
            let routers = &topo.ases[&asn].routers;
            let router = routers[rng.random_range(0..routers.len())];
            push_vp(&mut vps, &mut by_platform, platform, asn, router, topo);
        }
    }

    Ok(VpSet { vps, by_platform })
}

fn push_vp(
    vps: &mut Arena<VantagePointId, VantagePoint>,
    by_platform: &mut BTreeMap<Platform, Vec<VantagePointId>>,
    platform: Platform,
    asn: Asn,
    router: RouterId,
    topo: &Topology,
) {
    let id = vps.next_id();
    vps.push(VantagePoint {
        id,
        platform,
        asn,
        router,
        coords: topo.routers[router].coords,
    });
    by_platform.entry(platform).or_default().push(id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_topology::TopologyConfig;

    fn setup() -> (Topology, VpSet) {
        let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
        let vps = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
        (topo, vps)
    }

    #[test]
    fn counts_match_config() {
        let (_, vps) = setup();
        let cfg = VpConfig::tiny();
        assert_eq!(vps.of_platform(Platform::RipeAtlas).len(), cfg.atlas);
        assert_eq!(vps.of_platform(Platform::IPlane).len(), cfg.iplane);
        assert_eq!(vps.of_platform(Platform::Ark).len(), cfg.ark);
        // LGs are bounded by available transit routers.
        assert!(vps.of_platform(Platform::LookingGlass).len() <= cfg.looking_glass);
        assert!(!vps.of_platform(Platform::LookingGlass).is_empty());
    }

    #[test]
    fn atlas_probes_sit_in_access_networks() {
        let (topo, vps) = setup();
        for id in vps.of_platform(Platform::RipeAtlas) {
            let vp = &vps.vps[*id];
            assert_eq!(topo.ases[&vp.asn].class, AsClass::Access);
            assert_eq!(topo.routers[vp.router].asn, vp.asn);
        }
    }

    #[test]
    fn looking_glasses_sit_on_transit_routers() {
        let (topo, vps) = setup();
        for id in vps.of_platform(Platform::LookingGlass) {
            let vp = &vps.vps[*id];
            assert!(matches!(
                topo.ases[&vp.asn].class,
                AsClass::Tier1 | AsClass::Transit
            ));
        }
    }

    #[test]
    fn lg_routers_are_unique() {
        let (_, vps) = setup();
        let mut routers: Vec<RouterId> = vps
            .of_platform(Platform::LookingGlass)
            .iter()
            .map(|id| vps.vps[*id].router)
            .collect();
        let before = routers.len();
        routers.sort();
        routers.dedup();
        assert_eq!(routers.len(), before);
    }

    #[test]
    fn atlas_skews_european() {
        let topo = Topology::generate(TopologyConfig::default()).unwrap();
        let vps = deploy_vantage_points(&topo, &VpConfig::default()).unwrap();
        let region_of = |id: &VantagePointId| {
            let vp = &vps.vps[*id];
            topo.ases[&vp.asn].home_region
        };
        let atlas = vps.of_platform(Platform::RipeAtlas);
        let eu = atlas
            .iter()
            .filter(|id| region_of(id) == Region::Europe)
            .count();
        let asia = atlas
            .iter()
            .filter(|id| region_of(id) == Region::Asia)
            .count();
        assert!(eu > asia * 2, "eu {eu} asia {asia}");
    }

    #[test]
    fn distinct_as_counting() {
        let (_, vps) = setup();
        let total = vps.distinct_ases(None);
        let atlas_only = vps.distinct_ases(Some(Platform::RipeAtlas));
        assert!(total >= atlas_only);
        assert!(atlas_only > 1);
    }

    #[test]
    fn deployment_is_deterministic() {
        let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
        let a = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
        let b = deploy_vantage_points(&topo, &VpConfig::tiny()).unwrap();
        for (x, y) in a.vps.values().zip(b.vps.values()) {
            assert_eq!(x.router, y.router);
            assert_eq!(x.asn, y.asn);
            assert_eq!(x.platform, y.platform);
        }
    }
}
