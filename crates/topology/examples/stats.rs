//! Prints the headline statistics of a paper-scale generated world, for
//! comparison against §3.1 of the paper (1,694 facilities in 95
//! countries / 684 cities, 368 IXPs, region mix, membership shapes).
//!
//! ```text
//! cargo run --release -p cfs-topology --example stats
//! ```

use cfs_obs::Monotonic;
use cfs_topology::{Topology, TopologyConfig};

fn main() {
    // Timing goes through cfs-obs: `Monotonic` is the workspace's one
    // sanctioned wall-clock reader (`clippy.toml` bans `Instant::now`).
    let start = Monotonic::new();
    let t = Topology::generate(TopologyConfig::paper()).unwrap();
    println!("generation time: {:?}", start.elapsed());
    println!("facilities:      {}", t.facilities.len());
    println!("ixps:            {}", t.ixps.len());
    println!("ases:            {}", t.ases.len());
    println!("routers:         {}", t.routers.len());
    println!("interfaces:      {}", t.ifaces.len());
    println!("private links:   {}", t.links.len());
    println!("as adjacencies:  {}", t.adjacencies.len());

    let memberships: usize = t.ixps.values().map(|x| x.members.len()).sum();
    let remote = t
        .ixps
        .values()
        .flat_map(|x| &x.members)
        .filter(|m| m.remote_via.is_some())
        .count();
    println!("ixp memberships: {memberships} ({remote} remote)");

    let multi_ixp = t.ases.values().filter(|n| n.ixps.len() > 1).count();
    let multi_fac = t.ases.values().filter(|n| n.facilities.len() > 1).count();
    println!(
        "ASes at >1 IXP:      {:.0}%  (paper: 54%)",
        100.0 * multi_ixp as f64 / t.ases.len() as f64
    );
    println!(
        "ASes at >1 facility: {:.0}%  (paper: 66%)",
        100.0 * multi_fac as f64 / t.ases.len() as f64
    );

    for region in cfs_types::Region::ALL {
        let n = t.facilities.values().filter(|f| f.region == region).count();
        println!("  {region:<14} {n:>5} facilities");
    }
}
