//! # cfs-bench
//!
//! Criterion microbenchmarks of the `cfs` kernels no end-to-end
//! workload isolates: prefix-trie and IP-to-ASN lookups, great-circle
//! math, AS-graph routing, traceroute simulation, IP-ID probing,
//! facility-set intersection and topology generation
//! (`benches/substrates.rs`). End-to-end performance is measured by
//! `cfsbench/` at the repository root.
//!
//! Run with `cargo bench -p cfs-bench --bench substrates`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use cfs_topology::{Topology, TopologyConfig};

/// A prebuilt world shared by benchmarks (generation itself is measured
/// separately).
pub struct BenchWorld {
    /// Ground truth.
    pub topo: Topology,
}

impl BenchWorld {
    /// Builds the standard bench world (default scale, fixed seed).
    pub fn standard() -> Self {
        let topo = Topology::generate(TopologyConfig::default()).expect("topology");
        Self { topo }
    }
}
