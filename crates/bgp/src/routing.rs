//! Valley-free route computation (Gao–Rexford export rules).
//!
//! For a destination AS `d`, every other AS selects at most one best route
//! whose AS path climbs customer→provider links, crosses at most one peer
//! link, then descends provider→customer links. Preference at each AS is
//! customer routes > peer routes > provider routes, then shortest AS path,
//! then lowest next-hop ASN (determinism).
//!
//! The computation is the classic three-stage BFS over the adjacency list
//! — O(V + E) per destination — with explicit next-hop recording so paths
//! can be reconstructed without re-running anything. The adjacency list
//! is an [`AsGraph`] built once per [`RouteCache`]; each destination's
//! [`RouteMap`] is one packed word per AS over it.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use cfs_topology::Topology;
use cfs_types::{Asn, Rel};

/// How a route was learned, in decreasing preference order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteType {
    /// Learned from a customer (or the destination itself).
    Customer,
    /// Learned from a settlement-free peer.
    Peer,
    /// Learned from a transit provider.
    Provider,
}

/// Bits of a packed route word below the route type: the next hop's
/// position in [`AsGraph`].
const HOP_BITS: u32 = 30;
const HOP_MASK: u32 = (1 << HOP_BITS) - 1;

/// Packs a route as `(type + 1) << 30 | next-hop position`; `0` is "no
/// route".
fn pack(kind: RouteType, next_hop: usize) -> u32 {
    let tag = match kind {
        RouteType::Customer => 1,
        RouteType::Peer => 2,
        RouteType::Provider => 3,
    };
    tag << HOP_BITS | next_hop as u32
}

fn kind_of(word: u32) -> Option<RouteType> {
    match word >> HOP_BITS {
        0 => None,
        1 => Some(RouteType::Customer),
        2 => Some(RouteType::Peer),
        _ => Some(RouteType::Provider),
    }
}

/// Neighbor positions of one AS, split by relationship orientation.
#[derive(Debug, Default)]
struct Nbrs {
    customers: Vec<u32>,
    providers: Vec<u32>,
    peers: Vec<u32>,
}

/// The AS graph in dense form: ASNs sorted ascending, every AS addressed
/// by its position, neighbor lists as sorted position lists. Position
/// order is ASN order, so every ASN tie-break of the route computation
/// is a position tie-break. Built once per [`RouteCache`] and shared by
/// every [`RouteMap`] computed over it.
#[derive(Debug)]
pub struct AsGraph {
    asns: Vec<Asn>,
    nbrs: Vec<Nbrs>,
}

impl AsGraph {
    /// Builds the dense graph of a topology's ASes and adjacencies.
    pub fn new(topo: &Topology) -> Self {
        let asns: Vec<Asn> = topo.ases.keys().copied().collect();
        assert!(
            asns.len() <= HOP_MASK as usize,
            "AS count fits a route word"
        );
        let mut nbrs: Vec<Nbrs> = asns.iter().map(|_| Nbrs::default()).collect();
        let pos = |asn: Asn| asns.binary_search(&asn).expect("as exists") as u32;
        for adj in &topo.adjacencies {
            let (a, b) = (pos(adj.a), pos(adj.b));
            match adj.rel {
                Rel::CustomerToProvider => {
                    nbrs[a as usize].providers.push(b);
                    nbrs[b as usize].customers.push(a);
                }
                Rel::PeerToPeer => {
                    nbrs[a as usize].peers.push(b);
                    nbrs[b as usize].peers.push(a);
                }
            }
        }
        // Deterministic neighbor order.
        for n in &mut nbrs {
            n.customers.sort_unstable();
            n.providers.sort_unstable();
            n.peers.sort_unstable();
        }
        Self { asns, nbrs }
    }

    fn position(&self, asn: Asn) -> Option<usize> {
        self.asns.binary_search(&asn).ok()
    }
}

/// All best routes toward a single destination AS.
#[derive(Clone, Debug)]
pub struct RouteMap {
    graph: Arc<AsGraph>,
    dest: Asn,
    /// One packed route word per graph position (see [`pack`]).
    routes: Vec<u32>,
    coverage: usize,
}

impl RouteMap {
    /// The destination AS.
    pub fn dest(&self) -> Asn {
        self.dest
    }

    /// The packed route word of `from` (`0` when it holds no route).
    fn word(&self, from: Asn) -> u32 {
        self.graph.position(from).map_or(0, |i| self.routes[i])
    }

    /// Whether `from` has any route to the destination.
    pub fn reaches(&self, from: Asn) -> bool {
        from == self.dest || self.word(from) != 0
    }

    /// The next hop `from` forwards to, if it has a route.
    pub fn next_hop(&self, from: Asn) -> Option<Asn> {
        if from == self.dest {
            return None;
        }
        let word = self.word(from);
        (word != 0).then(|| self.graph.asns[(word & HOP_MASK) as usize])
    }

    /// The route type at `from` ([`RouteType::Customer`] for the
    /// destination itself, by convention).
    pub fn route_type(&self, from: Asn) -> Option<RouteType> {
        if from == self.dest {
            return Some(RouteType::Customer);
        }
        kind_of(self.word(from))
    }

    /// The full AS path from `from` to the destination, inclusive of both
    /// ends. `None` when unreachable.
    pub fn path(&self, from: Asn) -> Option<Vec<Asn>> {
        let mut path = vec![from];
        path.extend(self.walk(from)?);
        (path.last() == Some(&self.dest)).then_some(path)
    }

    /// The ASes a packet from `from` crosses after `from` itself, ending
    /// at the destination: [`Self::path`] without its first AS, read off
    /// the packed words in place. `None` when `from` holds no route. The
    /// walk of a route holder always ends at the destination, since every
    /// next hop holds a route too.
    pub fn walk(&self, from: Asn) -> Option<Walk<'_>> {
        if from == self.dest {
            return Some(Walk {
                map: self,
                at: None,
                left: 0,
            });
        }
        let at = self.graph.position(from).filter(|i| self.routes[*i] != 0)?;
        Some(Walk {
            map: self,
            at: Some(at),
            // Bounded walk: AS paths cannot exceed the AS count.
            left: self.coverage + 1,
        })
    }

    /// Number of ASes holding a route.
    pub fn coverage(&self) -> usize {
        self.coverage
    }
}

/// An AS path being read off a [`RouteMap`]; see [`RouteMap::walk`].
pub struct Walk<'m> {
    map: &'m RouteMap,
    /// The position whose next hop comes next; `None` once done.
    at: Option<usize>,
    /// Steps left before the cycle guard ends the walk (cannot happen
    /// with consistent route maps).
    left: usize,
}

impl Iterator for Walk<'_> {
    type Item = Asn;

    fn next(&mut self) -> Option<Asn> {
        let word = self.map.routes[self.at?];
        if word == 0 || self.left == 0 {
            self.at = None;
            return None;
        }
        self.left -= 1;
        // The destination holds no route word, so the walk stops there.
        let pos = (word & HOP_MASK) as usize;
        self.at = Some(pos);
        Some(self.map.graph.asns[pos])
    }
}

/// Computes best valley-free routes from every AS of `graph` toward
/// `dest`.
pub fn compute_routes(graph: &Arc<AsGraph>, dest: Asn) -> RouteMap {
    let n = graph.asns.len();
    let mut routes = vec![0u32; n];
    // Path length per position, meaningful where a route is held (and 0
    // at the destination).
    let mut len = vec![0u32; n];
    let Some(d) = graph.position(dest) else {
        return RouteMap {
            graph: Arc::clone(graph),
            dest,
            routes,
            coverage: 0,
        };
    };
    let held = |routes: &[u32], x: usize| x == d || routes[x] != 0;

    // Stage 1 — customer routes: BFS climbing provider links from dest.
    // An AS x obtains a customer route when some customer of x (or dest)
    // already has one; shorter paths first, lowest next-hop tie-break
    // (guaranteed by sorted neighbor lists + FIFO order).
    let mut queue: VecDeque<usize> = VecDeque::from([d]);
    while let Some(x) = queue.pop_front() {
        for &p in &graph.nbrs[x].providers {
            let p = p as usize;
            if !held(&routes, p) {
                routes[p] = pack(RouteType::Customer, x);
                len[p] = len[x] + 1;
                queue.push_back(p);
            }
        }
    }

    // Stage 2 — peer routes: one peer edge on top of a customer route.
    // Only customer routes are exported to peers; each AS keeps the
    // (shortest, lowest next hop) offer.
    for y in 0..n {
        if y != d && kind_of(routes[y]) != Some(RouteType::Customer) {
            continue;
        }
        for &x in &graph.nbrs[y].peers {
            let x = x as usize;
            if x == d || kind_of(routes[x]) == Some(RouteType::Customer) {
                continue; // customer route wins at x
            }
            let cand_len = len[y] + 1;
            if routes[x] == 0 || (cand_len, y as u32) < (len[x], routes[x] & HOP_MASK) {
                routes[x] = pack(RouteType::Peer, y);
                len[x] = cand_len;
            }
        }
    }

    // Stage 3 — provider routes: BFS descending customer links from every
    // AS that already holds a route. Ordered exploration by path length
    // keeps provider routes shortest; FIFO with sorted neighbors keeps
    // ties deterministic.
    let mut frontier: Vec<(u32, usize)> = (0..n)
        .filter(|&x| held(&routes, x))
        .map(|x| (len[x], x))
        .collect();
    frontier.sort_unstable();
    queue.extend(frontier.into_iter().map(|(_, x)| x));
    while let Some(y) = queue.pop_front() {
        for &x in &graph.nbrs[y].customers {
            let x = x as usize;
            if held(&routes, x) {
                continue;
            }
            routes[x] = pack(RouteType::Provider, y);
            len[x] = len[y] + 1;
            queue.push_back(x);
        }
    }

    let coverage = routes.iter().filter(|w| **w != 0).count();
    RouteMap {
        graph: Arc::clone(graph),
        dest,
        routes,
        coverage,
    }
}

/// A thread-safe per-destination route cache over one [`AsGraph`].
/// Experiments issue millions of traceroutes toward a few hundred
/// destinations; routes are computed once per destination.
pub struct RouteCache {
    graph: Arc<AsGraph>,
    cache: Mutex<BTreeMap<Asn, Arc<RouteMap>>>,
    /// Route computations run, to pin compute-once in tests.
    #[cfg(test)]
    computed: std::sync::atomic::AtomicUsize,
}

impl RouteCache {
    /// Creates an empty cache over the topology's AS graph.
    pub fn new(topo: &Topology) -> Self {
        Self {
            graph: Arc::new(AsGraph::new(topo)),
            cache: Mutex::new(BTreeMap::new()),
            #[cfg(test)]
            computed: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Routes toward `dest`, computing them on first use. The computation
    /// (tens of microseconds) runs under the lock, so workers asking for
    /// the same destination at once compute it exactly once.
    pub fn routes(&self, dest: Asn) -> Arc<RouteMap> {
        let mut guard = self.cache.lock();
        let routes = guard.entry(dest).or_insert_with(|| {
            #[cfg(test)]
            self.computed
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Arc::new(compute_routes(&self.graph, dest))
        });
        Arc::clone(routes)
    }

    /// Number of destinations cached.
    pub fn len(&self) -> usize {
        self.cache.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_topology::TopologyConfig;

    fn topo() -> Topology {
        Topology::generate(TopologyConfig::tiny()).unwrap()
    }

    /// Routes toward `dest` over a freshly built graph of `t`.
    fn routes_to(t: &Topology, dest: Asn) -> RouteMap {
        compute_routes(&Arc::new(AsGraph::new(t)), dest)
    }

    /// The route computation as first written: adjacency and route maps
    /// keyed by ASN, rebuilt per destination. Kept as the oracle the
    /// dense computation must agree with pair by pair.
    mod oracle {
        use std::collections::{BTreeMap, VecDeque};

        use cfs_topology::Topology;
        use cfs_types::{Asn, Rel};

        use super::super::RouteType;

        #[derive(Clone, Copy)]
        struct Route {
            kind: RouteType,
            len: u32,
            next_hop: Asn,
        }

        pub struct RouteMap {
            dest: Asn,
            routes: BTreeMap<Asn, Route>,
        }

        impl RouteMap {
            fn next_hop(&self, from: Asn) -> Option<Asn> {
                if from == self.dest {
                    return None;
                }
                self.routes.get(&from).map(|r| r.next_hop)
            }

            pub fn route_type(&self, from: Asn) -> Option<RouteType> {
                if from == self.dest {
                    return Some(RouteType::Customer);
                }
                self.routes.get(&from).map(|r| r.kind)
            }

            pub fn path(&self, from: Asn) -> Option<Vec<Asn>> {
                if from == self.dest {
                    return Some(vec![from]);
                }
                let mut path = vec![from];
                let mut cur = from;
                for _ in 0..=self.routes.len() {
                    let next = self.next_hop(cur)?;
                    path.push(next);
                    if next == self.dest {
                        return Some(path);
                    }
                    cur = next;
                }
                None
            }

            pub fn coverage(&self) -> usize {
                self.routes.len()
            }
        }

        #[derive(Default)]
        struct Nbrs {
            customers: Vec<Asn>,
            providers: Vec<Asn>,
            peers: Vec<Asn>,
        }

        fn adjacency_lists(topo: &Topology) -> BTreeMap<Asn, Nbrs> {
            let mut map: BTreeMap<Asn, Nbrs> = BTreeMap::new();
            for asn in topo.ases.keys() {
                map.insert(*asn, Nbrs::default());
            }
            for adj in &topo.adjacencies {
                match adj.rel {
                    Rel::CustomerToProvider => {
                        map.get_mut(&adj.a).unwrap().providers.push(adj.b);
                        map.get_mut(&adj.b).unwrap().customers.push(adj.a);
                    }
                    Rel::PeerToPeer => {
                        map.get_mut(&adj.a).unwrap().peers.push(adj.b);
                        map.get_mut(&adj.b).unwrap().peers.push(adj.a);
                    }
                }
            }
            for n in map.values_mut() {
                n.customers.sort_unstable();
                n.providers.sort_unstable();
                n.peers.sort_unstable();
            }
            map
        }

        pub fn compute_routes(topo: &Topology, dest: Asn) -> RouteMap {
            let nbrs = adjacency_lists(topo);
            let mut routes: BTreeMap<Asn, Route> = BTreeMap::new();

            let mut queue: VecDeque<Asn> = VecDeque::new();
            queue.push_back(dest);
            while let Some(x) = queue.pop_front() {
                let x_len = if x == dest { 0 } else { routes[&x].len };
                if let Some(n) = nbrs.get(&x) {
                    for p in n.providers.clone() {
                        if p != dest && !routes.contains_key(&p) {
                            let kind = RouteType::Customer;
                            let (len, next_hop) = (x_len + 1, x);
                            routes.insert(
                                p,
                                Route {
                                    kind,
                                    len,
                                    next_hop,
                                },
                            );
                            queue.push_back(p);
                        }
                    }
                }
            }

            let customer_holders: Vec<(Asn, u32)> = routes
                .iter()
                .map(|(asn, r)| (*asn, r.len))
                .chain(std::iter::once((dest, 0)))
                .collect();
            let mut peer_candidates: BTreeMap<Asn, Route> = BTreeMap::new();
            for (y, y_len) in customer_holders {
                if let Some(n) = nbrs.get(&y) {
                    for x in &n.peers {
                        if *x == dest || routes.contains_key(x) {
                            continue;
                        }
                        let cand = Route {
                            kind: RouteType::Peer,
                            len: y_len + 1,
                            next_hop: y,
                        };
                        let better = match peer_candidates.get(x) {
                            None => true,
                            Some(old) => (cand.len, cand.next_hop) < (old.len, old.next_hop),
                        };
                        if better {
                            peer_candidates.insert(*x, cand);
                        }
                    }
                }
            }
            routes.extend(peer_candidates);

            let mut frontier: Vec<(u32, Asn)> = routes
                .iter()
                .map(|(asn, r)| (r.len, *asn))
                .chain(std::iter::once((0, dest)))
                .collect();
            frontier.sort_unstable();
            let mut queue: VecDeque<Asn> = frontier.into_iter().map(|(_, a)| a).collect();
            while let Some(y) = queue.pop_front() {
                let y_len = if y == dest { 0 } else { routes[&y].len };
                if let Some(n) = nbrs.get(&y) {
                    for x in n.customers.clone() {
                        if x == dest || routes.contains_key(&x) {
                            continue;
                        }
                        let (kind, len, next_hop) = (RouteType::Provider, y_len + 1, y);
                        routes.insert(
                            x,
                            Route {
                                kind,
                                len,
                                next_hop,
                            },
                        );
                        queue.push_back(x);
                    }
                }
            }

            RouteMap { dest, routes }
        }
    }

    /// Asserts the dense computation agrees with the oracle on `path`,
    /// `route_type` and `coverage` for every (dest, from) pair of `t`.
    /// Returns the number of pairs checked.
    fn assert_matches_oracle(t: &Topology, dests: &[Asn]) -> usize {
        let graph = Arc::new(AsGraph::new(t));
        let mut pairs = 0;
        for dest in dests {
            let dense = compute_routes(&graph, *dest);
            let reference = oracle::compute_routes(t, *dest);
            assert_eq!(dense.coverage(), reference.coverage(), "coverage to {dest}");
            for from in t.ases.keys() {
                assert_eq!(dense.path(*from), reference.path(*from), "{from} → {dest}");
                assert_eq!(
                    dense.route_type(*from),
                    reference.route_type(*from),
                    "{from} → {dest}"
                );
                pairs += 1;
            }
        }
        pairs
    }

    /// The default-scale world of `cfs run --scale default --seed 7`.
    #[test]
    fn dense_routes_match_the_oracle_on_the_default_world() {
        let t = Topology::generate(TopologyConfig::default().with_seed(7)).unwrap();
        let asns: Vec<Asn> = t.ases.keys().copied().collect();
        assert_eq!((asns.len(), t.adjacencies.len()), (226, 1875));
        assert_eq!(assert_matches_oracle(&t, &asns), 226 * 226);
    }

    /// Every pair of the `--scale paper --seed 7` world; a few seconds in
    /// release (`cargo test --release -p cfs-bgp -- --ignored`).
    #[test]
    #[ignore]
    fn dense_routes_match_the_oracle_on_the_paper_world() {
        let t = Topology::generate(TopologyConfig::paper().with_seed(7)).unwrap();
        let asns: Vec<Asn> = t.ases.keys().copied().collect();
        assert_eq!(assert_matches_oracle(&t, &asns), 933 * 933);
    }

    /// Checks the valley-free property of a path given the topology.
    fn assert_valley_free(topo: &Topology, path: &[Asn]) {
        #[derive(PartialEq, PartialOrd)]
        enum Phase {
            Up,
            Peer,
            Down,
        }
        // Walking from source toward dest: up (c2p), one peer, down (p2c).
        let mut phase = Phase::Up;
        for w in path.windows(2) {
            let adj = topo.adjacency(w[0], w[1]).expect("adjacent ASes");
            let step = match adj.rel {
                Rel::CustomerToProvider if adj.a == w[0] => Phase::Up,
                Rel::CustomerToProvider => Phase::Down,
                Rel::PeerToPeer => Phase::Peer,
            };
            match step {
                Phase::Up => assert!(phase == Phase::Up, "uphill after peak"),
                Phase::Peer => {
                    assert!(phase == Phase::Up, "second peak");
                    phase = Phase::Peer;
                }
                Phase::Down => phase = Phase::Down,
            }
        }
    }

    #[test]
    fn everyone_reaches_a_tier1() {
        let t = topo();
        let tier1 = t
            .ases
            .values()
            .find(|n| n.class == cfs_types::AsClass::Tier1)
            .map(|n| n.asn)
            .unwrap();
        let rm = routes_to(&t, tier1);
        for asn in t.ases.keys() {
            assert!(rm.reaches(*asn), "{asn} cannot reach {tier1}");
        }
    }

    #[test]
    fn stubs_are_reachable_via_providers() {
        let t = topo();
        let stub = t
            .ases
            .values()
            .find(|n| n.class == cfs_types::AsClass::Enterprise)
            .map(|n| n.asn)
            .unwrap();
        let rm = routes_to(&t, stub);
        // At minimum the stub's providers and the tier1 mesh reach it.
        let reached = t.ases.keys().filter(|a| rm.reaches(**a)).count();
        assert!(reached > t.ases.len() / 2, "only {reached} reach the stub");
    }

    #[test]
    fn paths_are_valley_free() {
        let t = topo();
        for dest_node in t.ases.values().take(12) {
            let rm = routes_to(&t, dest_node.asn);
            for from in t.ases.keys() {
                if let Some(path) = rm.path(*from) {
                    assert_eq!(*path.last().unwrap(), dest_node.asn);
                    assert_eq!(path[0], *from);
                    assert_valley_free(&t, &path);
                }
            }
        }
    }

    #[test]
    fn paths_have_no_loops() {
        let t = topo();
        let dest = *t.ases.keys().next().unwrap();
        let rm = routes_to(&t, dest);
        for from in t.ases.keys() {
            if let Some(path) = rm.path(*from) {
                let mut sorted = path.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), path.len(), "loop in {path:?}");
            }
        }
    }

    #[test]
    fn customer_routes_preferred_over_peer_and_provider() {
        let t = topo();
        // For a destination with customers, its direct providers should
        // hold Customer routes.
        for dest_node in t.ases.values() {
            let rm = routes_to(&t, dest_node.asn);
            for adj in t.adjacencies_of(dest_node.asn) {
                if adj.rel == Rel::CustomerToProvider && adj.a == dest_node.asn {
                    assert_eq!(
                        rm.route_type(adj.b),
                        Some(RouteType::Customer),
                        "{}'s provider {} should use the customer route",
                        dest_node.asn,
                        adj.b
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let t = topo();
        let dest = *t.ases.keys().last().unwrap();
        let a = routes_to(&t, dest);
        let b = routes_to(&t, dest);
        for from in t.ases.keys() {
            assert_eq!(a.path(*from), b.path(*from));
        }
    }

    #[test]
    fn route_cache_computes_once_and_hits() {
        let t = topo();
        let dests: Vec<Asn> = t.ases.keys().copied().take(10).collect();
        let cache = RouteCache::new(&t);
        assert!(cache.is_empty());
        let first = cache.routes(dests[0]);
        let second = cache.routes(dests[0]);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);

        // Two workers asking for the same destinations at once, as the
        // bootstrap campaign's workers do: each is computed exactly once
        // and both workers share one map per destination.
        let barrier = std::sync::Barrier::new(2);
        let [a, b]: [Vec<Arc<RouteMap>>; 2] = std::thread::scope(|s| {
            let worker = || {
                barrier.wait();
                dests.iter().map(|d| cache.routes(*d)).collect::<Vec<_>>()
            };
            let (x, y) = (s.spawn(worker), s.spawn(worker));
            [x.join().unwrap(), y.join().unwrap()]
        });
        assert!(a.iter().zip(&b).all(|(x, y)| Arc::ptr_eq(x, y)));
        assert_eq!(cache.len(), dests.len());
        assert_eq!(
            cache.computed.load(std::sync::atomic::Ordering::Relaxed),
            dests.len()
        );
    }

    #[test]
    fn dest_itself_has_trivial_path() {
        let t = topo();
        let dest = *t.ases.keys().next().unwrap();
        let rm = routes_to(&t, dest);
        assert_eq!(rm.path(dest), Some(vec![dest]));
        assert_eq!(rm.next_hop(dest), None);
        assert!(rm.reaches(dest));
    }

    proptest::proptest! {
        /// Any reachable path is simple, valley-free and ends at dest, and
        /// every (dest, from) pair of the world agrees with the oracle.
        #[test]
        fn prop_paths_well_formed(seed in 0u64..6, dest_idx in 0usize..40) {
            let t = Topology::generate(TopologyConfig::tiny().with_seed(seed)).unwrap();
            let asns: Vec<Asn> = t.ases.keys().copied().collect();
            let dest = asns[dest_idx % asns.len()];
            let rm = routes_to(&t, dest);
            for from in &asns {
                if let Some(path) = rm.path(*from) {
                    proptest::prop_assert_eq!(path[0], *from);
                    proptest::prop_assert_eq!(*path.last().unwrap(), dest);
                    let mut s = path.clone();
                    s.sort_unstable();
                    s.dedup();
                    proptest::prop_assert_eq!(s.len(), path.len());
                    assert_valley_free(&t, &path);
                }
            }
            assert_matches_oracle(&t, &asns);
        }
    }
}
