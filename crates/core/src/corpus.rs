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
//! Hops are stored as address ids. The corpus interns each hop address
//! on first sight into a dense id, in first-seen order, and a path holds
//! one `u32` per hop ([`SILENT`] for `*`): four bytes a hop, where an
//! `Option<Ipv4Addr>` took five, and each address held once. The engine keys its
//! per-epoch tables by these ids: what a hop means under the current
//! knowledge base and corrected view is looked up once per address and
//! epoch, not once per hop of every extraction (DESIGN.md §5).
//!
//! Paths and addresses are each indexed by an open-addressed table of
//! ids ([`IdTable`]), probed linearly from a deterministic hash and
//! compared exactly on a hit, so an index costs four bytes a slot at
//! most three quarters full (a half-full bound doubled the path index of
//! a default-scale daemon past 65,536 paths, to 1 MB). A repeated path is found by hashing its addresses, so
//! it interns nothing. The hashes are unkeyed: inputs crafted to collide
//! would slow ingestion, never change what is held, and traces are
//! measurements the engine took, not client input.

use std::net::Ipv4Addr;

use cfs_traceroute::Trace;
use cfs_types::VantagePointId;

use crate::observe::PathTally;

/// An unused index slot.
const EMPTY: u32 = u32::MAX;

/// A silent hop (`*`) in a path's hop ids: it has no address, so no id.
pub(crate) const SILENT: u32 = u32::MAX;

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

/// An open-addressed index of dense ids, a power of two long and at most
/// three quarters full. It stores only the ids; the caller hashes and compares
/// what they stand for.
#[derive(Default)]
struct IdTable {
    slots: Vec<u32>,
}

impl IdTable {
    /// The held id that `is` accepts, probing from `hash`, or else the
    /// empty slot where a new one belongs.
    fn find(&self, hash: u64, is: impl Fn(usize) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        while self.slots[slot] != EMPTY {
            let id = self.slots[slot] as usize;
            if is(id) {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
        Err(slot)
    }

    /// Makes room for one more id beside the `held` ones, re-indexing
    /// them by `hash` into a table of at least twice their number when
    /// the table would pass three quarters full. Ids never change.
    fn reserve(&mut self, held: usize, hash: impl Fn(usize) -> u64) {
        if (held + 1) * 4 <= self.slots.len() * 3 {
            return;
        }
        let size = ((held + 1) * 2).next_power_of_two().max(64);
        self.slots.clear();
        self.slots.resize(size, EMPTY);
        for id in 0..held {
            let Err(slot) = self.find(hash(id), |_| false) else {
                unreachable!("a probe that accepts nothing ends on an empty slot")
            };
            self.slots[slot] = narrow(id);
        }
    }
}

/// Distinct measured paths in first-seen order, over interned hop
/// addresses (module docs).
#[derive(Default)]
pub(crate) struct PathCorpus {
    paths: Vec<Path>,
    /// Every path's hops as address ids, back to back ([`SILENT`] for a
    /// silent hop).
    hops: Vec<u32>,
    /// Index into `paths`.
    path_index: IdTable,
    /// Every hop address, by id, in first-seen order.
    addrs: Vec<Ipv4Addr>,
    /// Index into `addrs`.
    addr_index: IdTable,
}

/// Deterministic hash of a (vantage point, hop-address sequence).
fn path_hash(vp: VantagePointId, hops: impl Iterator<Item = Option<Ipv4Addr>>) -> u64 {
    let word = |ip: Option<Ipv4Addr>| ip.map_or(0, |ip| u64::from(u32::from(ip)) | 1 << 32);
    let h = hops.fold(u64::from(vp.raw()), |h, ip| {
        (h.rotate_left(26) ^ word(ip)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    });
    cfs_chaos::splitmix64(h)
}

fn addr_hash(ip: Ipv4Addr) -> u64 {
    cfs_chaos::splitmix64(u64::from(u32::from(ip)))
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

    /// The hop address ids of path `i`, nearest first.
    pub(crate) fn hops(&self, i: usize) -> &[u32] {
        let end = self
            .paths
            .get(i + 1)
            .map_or(self.hops.len(), |p| p.start as usize);
        &self.hops[self.paths[i].start as usize..end]
    }

    /// The hop addresses of path `i`, nearest first (`None` for a silent
    /// hop).
    pub(crate) fn path(&self, i: usize) -> impl Iterator<Item = Option<Ipv4Addr>> + '_ {
        self.hops(i)
            .iter()
            .map(|h| (*h != SILENT).then(|| self.addrs[*h as usize]))
    }

    /// Every interned hop address, indexed by id.
    pub(crate) fn addrs(&self) -> &[Ipv4Addr] {
        &self.addrs
    }

    /// The id of a held hop address.
    pub(crate) fn id_of(&self, ip: Ipv4Addr) -> Option<usize> {
        if self.addrs.is_empty() {
            return None;
        }
        self.addr_index
            .find(addr_hash(ip), |id| self.addrs[id] == ip)
            .ok()
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

    /// Adds one trace: appends its path when new, interning the
    /// addresses it sees first, otherwise bumps the held path's
    /// multiplicity and returns that path.
    pub(crate) fn absorb(&mut self, t: &Trace) -> Option<usize> {
        let ips = || t.hops.iter().map(|h| h.ip);
        // The index is taken out while it probes, so that its callbacks
        // can read the held paths.
        let mut index = std::mem::take(&mut self.path_index);
        index.reserve(self.len(), |id| path_hash(self.vp(id), self.path(id)));
        let found = index.find(path_hash(t.vp, ips()), |id| {
            self.vp(id) == t.vp && self.path(id).eq(ips())
        });
        if let Err(slot) = found {
            index.slots[slot] = narrow(self.len());
        }
        self.path_index = index;
        if let Ok(id) = found {
            self.paths[id].mult += 1;
            return Some(id);
        }
        self.paths.push(Path {
            vp: t.vp,
            start: narrow(self.hops.len()),
            mult: 1,
            tally: PathTally::default(),
        });
        for ip in ips() {
            let id = ip.map_or(SILENT, |ip| self.intern(ip));
            self.hops.push(id);
        }
        None
    }

    /// The id of `ip`, interned as the next id on first sight.
    fn intern(&mut self, ip: Ipv4Addr) -> u32 {
        let addrs = &self.addrs;
        self.addr_index
            .reserve(addrs.len(), |id| addr_hash(addrs[id]));
        match self.addr_index.find(addr_hash(ip), |id| addrs[id] == ip) {
            Ok(id) => narrow(id),
            Err(slot) => {
                let id = narrow(addrs.len());
                self.addr_index.slots[slot] = id;
                self.addrs.push(ip);
                id
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use cfs_traceroute::Hop;
    use cfs_types::Asn;

    use super::*;

    fn trace(vp: u32, hops: &[Option<u32>]) -> Trace {
        Trace {
            vp: VantagePointId::new(vp),
            src_asn: Asn(64_500),
            target: Ipv4Addr::new(198, 51, 100, 1),
            at_ms: 0,
            hops: hops
                .iter()
                .map(|ip| Hop {
                    ip: ip.map(Ipv4Addr::from),
                    rtt_ms: 1.0,
                })
                .collect(),
            reached: true,
        }
    }

    #[test]
    fn addresses_intern_densely_in_first_seen_order() {
        let mut corpus = PathCorpus::default();
        assert_eq!(corpus.id_of(Ipv4Addr::from(7)), None);
        assert_eq!(corpus.absorb(&trace(0, &[Some(7), None, Some(3)])), None);
        assert_eq!(corpus.absorb(&trace(1, &[Some(3), Some(9), None])), None);
        let ips = |ids: &[u32]| ids.iter().map(|i| Ipv4Addr::from(*i)).collect::<Vec<_>>();
        assert_eq!(corpus.addrs(), ips(&[7, 3, 9]));
        // A silent hop takes no id: it is stored as `SILENT`.
        assert_eq!(corpus.hops(0), [0, SILENT, 1]);
        assert_eq!(corpus.hops(1), [1, 2, SILENT]);
        let path: Vec<_> = corpus.path(1).collect();
        assert_eq!(
            path,
            [Some(Ipv4Addr::from(3)), Some(Ipv4Addr::from(9)), None]
        );
        for (id, ip) in corpus.addrs().iter().enumerate() {
            assert_eq!(corpus.id_of(*ip), Some(id));
        }
        assert_eq!(corpus.id_of(Ipv4Addr::from(8)), None);
    }

    #[test]
    fn a_repeated_path_interns_nothing() {
        let mut corpus = PathCorpus::default();
        let t = trace(0, &[Some(1), None, Some(2)]);
        assert_eq!(corpus.absorb(&t), None);
        let (addrs, hops) = (corpus.addrs().to_vec(), corpus.hops.len());
        assert_eq!(corpus.absorb(&t), Some(0));
        assert_eq!((corpus.addrs(), corpus.hops.len()), (&addrs[..], hops));
        assert_eq!((corpus.len(), corpus.mult(0)), (1, 2));
        // Same addresses from another vantage point: a new path over the
        // held ids.
        assert_eq!(corpus.absorb(&trace(1, &[Some(2), Some(1)])), None);
        assert_eq!(corpus.addrs(), addrs);
        assert_eq!(corpus.hops(1), [1, 0]);
    }

    #[test]
    fn growing_the_indexes_keeps_every_id() {
        let mut corpus = PathCorpus::default();
        // 600 paths over 1,000 addresses, most shared: both indexes
        // re-index several times past their 64-slot start.
        for p in 0..600u32 {
            let hops: Vec<_> = (0..4).map(|k| Some((p * 7 + k * 131) % 1000)).collect();
            corpus.absorb(&trace(p % 5, &hops));
        }
        assert!(corpus.addrs().len() > 64 && corpus.path_index.slots.len() > 64 * 4);
        let mut first_seen = Vec::new();
        for p in 0..600u32 {
            let hops: Vec<_> = (0..4).map(|k| Some((p * 7 + k * 131) % 1000)).collect();
            for ip in hops.iter().flatten() {
                if !first_seen.contains(ip) {
                    first_seen.push(*ip);
                }
            }
            assert_eq!(corpus.absorb(&trace(p % 5, &hops)), Some(p as usize));
            assert!(corpus
                .path(p as usize)
                .eq(hops.iter().map(|h| h.map(Ipv4Addr::from))));
        }
        let want: Vec<Ipv4Addr> = first_seen.into_iter().map(Ipv4Addr::from).collect();
        assert_eq!(corpus.addrs(), want);
        for (id, ip) in want.iter().enumerate() {
            assert_eq!(corpus.id_of(*ip), Some(id));
        }
    }
}
