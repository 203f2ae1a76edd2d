//! Microbenchmarks of the substrate hot paths.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

use cfs_alias::IpIdProber;
use cfs_bench::BenchWorld;
use cfs_bgp::{compute_routes, AsGraph};
use cfs_geo::{haversine_km, GeoPoint};
use cfs_net::{IpAsnDb, Ipv4Prefix, PrefixTrie};
use cfs_traceroute::{deploy_vantage_points, Engine, VpConfig};
use cfs_types::{FacilityId, FacilitySet, FacilitySetInterner};

fn bench_trie(c: &mut Criterion) {
    let mut rng = ChaCha20Rng::seed_from_u64(1);
    let mut trie: PrefixTrie<u32> = PrefixTrie::new();
    for i in 0..50_000u32 {
        let addr = Ipv4Addr::from(rng.random::<u32>());
        let len = rng.random_range(8..=24);
        trie.insert(Ipv4Prefix::new(addr, len).unwrap(), i);
    }
    let probes: Vec<Ipv4Addr> = (0..1024)
        .map(|_| Ipv4Addr::from(rng.random::<u32>()))
        .collect();
    c.bench_function("trie/longest_match_50k_prefixes", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % probes.len();
            black_box(trie.longest_match(probes[i]))
        })
    });
}

fn bench_ipasn(c: &mut Criterion) {
    let world = BenchWorld::standard();
    let db = IpAsnDb::from_announcements(world.topo.announcements.to_vec());
    let ips: Vec<Ipv4Addr> = world.topo.ifaces.values().map(|i| i.ip).collect();
    c.bench_function("ipasn/origin_lookup", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % ips.len();
            black_box(db.origin(ips[i]))
        })
    });
}

fn bench_geo(c: &mut Criterion) {
    let a = GeoPoint::new(51.5074, -0.1278);
    let b2 = GeoPoint::new(40.7128, -74.0060);
    c.bench_function("geo/haversine", |b| {
        b.iter(|| black_box(haversine_km(a, b2)))
    });
}

fn bench_routing(c: &mut Criterion) {
    let world = BenchWorld::standard();
    let dests: Vec<_> = world.topo.ases.keys().copied().take(16).collect();
    c.bench_function("bgp/as_graph_build", |b| {
        b.iter(|| black_box(AsGraph::new(&world.topo)))
    });
    // Per-destination routes on a prebuilt graph: what `Engine::trace`
    // pays on a route-cache miss.
    let graph = Arc::new(AsGraph::new(&world.topo));
    c.bench_function("bgp/compute_routes_one_destination", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % dests.len();
            black_box(compute_routes(&graph, dests[i]))
        })
    });
}

fn bench_traceroute(c: &mut Criterion) {
    let world = BenchWorld::standard();
    let vps = deploy_vantage_points(&world.topo, &VpConfig::tiny()).unwrap();
    let engine = Engine::new(&world.topo);
    let targets: Vec<Ipv4Addr> = world
        .topo
        .ases
        .keys()
        .take(32)
        .map(|a| world.topo.target_ip(*a).unwrap())
        .collect();
    let vp_ids: Vec<_> = vps.ids().collect();
    c.bench_function("traceroute/single_probe", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            let vp = &vps.vps[vp_ids[i % vp_ids.len()]];
            black_box(engine.trace(vp, targets[i % targets.len()], (i as u64) * 13))
        })
    });
}

fn bench_alias_probe(c: &mut Criterion) {
    let world = BenchWorld::standard();
    let prober = IpIdProber::new(&world.topo);
    let ips: Vec<Ipv4Addr> = world.topo.ifaces.values().map(|i| i.ip).collect();
    c.bench_function("alias/ipid_probe", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            black_box(prober.probe(ips[i % ips.len()], (i as u64) * 7))
        })
    });
}

/// The representation behind the engine's footprint caches: interned
/// sorted-slice sets versus the `BTreeSet` clone-and-intersect the
/// engine used before.
fn bench_facility_sets(c: &mut Criterion) {
    // Footprint shapes modelled on the knowledge base: a few large
    // operator footprints and many small ones, intersected pairwise the
    // way the constraint pass does.
    let interner = FacilitySetInterner::new();
    let sets: Vec<FacilitySet> = (0..64u32)
        .map(|i| {
            let stride = 1 + (i % 7);
            let len = if i % 9 == 0 { 180 } else { 12 + (i % 16) };
            interner.intern((0..len).map(|k| FacilityId::new(i + k * stride)))
        })
        .collect();
    let btrees: Vec<BTreeSet<FacilityId>> = sets.iter().map(FacilitySet::to_btree_set).collect();

    let mut group = c.benchmark_group("facset");
    group.bench_function("intersect_interned", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % sets.len();
            let j = (i * 31 + 7) % sets.len();
            black_box(sets[i].intersect(&sets[j]).len())
        })
    });
    group.bench_function("intersect_btreeset", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % btrees.len();
            let j = (i * 31 + 7) % btrees.len();
            let out: BTreeSet<FacilityId> = btrees[i].intersection(&btrees[j]).copied().collect();
            black_box(out.len())
        })
    });
    group.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology");
    group.sample_size(10);
    group.bench_function("generate_default_scale", |b| {
        b.iter(|| {
            black_box(
                cfs_topology::Topology::generate(cfs_topology::TopologyConfig::default()).unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_trie,
    bench_ipasn,
    bench_geo,
    bench_routing,
    bench_traceroute,
    bench_alias_probe,
    bench_facility_sets,
    bench_generation,
);
criterion_main!(benches);
