//! The measured-path corpus: every distinct (vantage point, hop-address
//! sequence) a search has ingested, held once with its multiplicity.
//!
//! Step 1 (§4.2) reads only a trace's vantage point and hop addresses,
//! and every structure it feeds is monotone: the hop-address set, the
//! first-wins observation dedup, and the append-only, capped exposure
//! index. A trace identical to an earlier one, read under the same
//! corrected view, therefore adds nothing the earlier one did not
//! already add in an earlier position. Periodic re-measurement sends the
//! same paths every epoch, so the corpus keeps distinct paths in
//! first-seen order and only counts repeats; a pass over it builds
//! exactly what a walk over every trace would. Multiplicity keeps the
//! work telemetry exact: each path caches the extraction tally of one
//! trace over it, and a pass weights that tally by how many ingested
//! traces took the path (DESIGN.md §5).
//!
//! Paths are indexed by an open-addressed table of path numbers, probed
//! linearly from a deterministic hash and compared exactly on a hit, so
//! the index costs four bytes a slot at most half full. The hash is
//! unkeyed: inputs crafted to collide would slow ingestion, never change
//! what is held, and traces are measurements the engine took, not
//! client input.

use std::net::Ipv4Addr;

use cfs_traceroute::Trace;
use cfs_types::VantagePointId;

use crate::observe::PathTally;

/// An unused index slot.
const EMPTY: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Path {
    vp: VantagePointId,
    /// Offset of the path's first hop in [`PathCorpus::hops`]; the path
    /// ends where the next one starts.
    start: u32,
    /// Ingested traces that took this path.
    mult: u32,
    /// Extraction telemetry of one trace over the path, as of its last
    /// extraction.
    tally: PathTally,
}

/// What [`PathCorpus::absorb`] did with a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Absorbed {
    /// The trace took a path never seen before, appended as this path.
    New(usize),
    /// The trace repeated this already held path; only its multiplicity
    /// grew.
    Repeat(usize),
}

/// Distinct measured paths in first-seen order (module docs).
#[derive(Default)]
pub(crate) struct PathCorpus {
    paths: Vec<Path>,
    /// Every path's hop addresses, back to back (`None` for a silent hop).
    hops: Vec<Option<Ipv4Addr>>,
    /// Open-addressed index into `paths`, a power of two long.
    slots: Vec<u32>,
}

/// Deterministic hash of a (vantage point, hop-address sequence).
fn path_hash(vp: VantagePointId, hops: impl Iterator<Item = Option<Ipv4Addr>>) -> u64 {
    let word = |ip: Option<Ipv4Addr>| ip.map_or(0, |ip| u64::from(u32::from(ip)) | 1 << 32);
    let h = hops.fold(u64::from(vp.raw()), |h, ip| {
        (h.rotate_left(26) ^ word(ip)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    });
    cfs_chaos::splitmix64(h)
}

fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("a corpus holds fewer than 2^32 paths and hop addresses")
}

impl PathCorpus {
    /// Distinct paths held.
    pub(crate) fn len(&self) -> usize {
        self.paths.len()
    }

    /// The vantage point of path `i`.
    pub(crate) fn vp(&self, i: usize) -> VantagePointId {
        self.paths[i].vp
    }

    /// The hop addresses of path `i`, nearest first.
    pub(crate) fn hops(&self, i: usize) -> &[Option<Ipv4Addr>] {
        let end = self
            .paths
            .get(i + 1)
            .map_or(self.hops.len(), |p| p.start as usize);
        &self.hops[self.paths[i].start as usize..end]
    }

    /// How many ingested traces took path `i`.
    pub(crate) fn mult(&self, i: usize) -> u64 {
        u64::from(self.paths[i].mult)
    }

    /// The extraction tally of one trace over path `i`.
    pub(crate) fn tally(&self, i: usize) -> PathTally {
        self.paths[i].tally
    }

    /// Caches the extraction tally of one trace over path `i`.
    pub(crate) fn set_tally(&mut self, i: usize, tally: PathTally) {
        self.paths[i].tally = tally;
    }

    /// Adds one trace: appends its path when new, otherwise bumps the
    /// held path's multiplicity.
    pub(crate) fn absorb(&mut self, t: &Trace) -> Absorbed {
        if (self.paths.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut slot = path_hash(t.vp, t.hops.iter().map(|h| h.ip)) as usize & mask;
        while self.slots[slot] != EMPTY {
            let id = self.slots[slot] as usize;
            if self.paths[id].vp == t.vp
                && self
                    .hops(id)
                    .iter()
                    .copied()
                    .eq(t.hops.iter().map(|h| h.ip))
            {
                self.paths[id].mult += 1;
                return Absorbed::Repeat(id);
            }
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = narrow(self.paths.len());
        self.paths.push(Path {
            vp: t.vp,
            start: narrow(self.hops.len()),
            mult: 1,
            tally: PathTally::default(),
        });
        self.hops.extend(t.hops.iter().map(|h| h.ip));
        Absorbed::New(self.paths.len() - 1)
    }

    /// Re-indexes every path into a table of at least twice its size.
    fn grow(&mut self) {
        let size = (self.paths.len() * 4).next_power_of_two().max(64);
        self.slots.clear();
        self.slots.resize(size, EMPTY);
        let mask = size - 1;
        for id in 0..self.paths.len() {
            let mut slot =
                path_hash(self.paths[id].vp, self.hops(id).iter().copied()) as usize & mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = narrow(id);
        }
    }
}
