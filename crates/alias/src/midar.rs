//! The MIDAR-style resolution pipeline: estimation → candidate pairing by
//! velocity and counter offset ("sliding window") → corroboration with
//! the monotonic bounds test → transitive closure into alias sets.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use cfs_types::par;

use crate::prober::IpIdProber;

/// Tuning knobs of the resolution pipeline.
#[derive(Clone, Debug)]
pub struct MidarConfig {
    /// Samples per interface during estimation.
    pub estimation_samples: usize,
    /// Milliseconds between estimation samples.
    pub estimation_spacing_ms: u64,
    /// Interleaved samples per side during corroboration.
    pub corroboration_samples: usize,
    /// Milliseconds between corroboration probes.
    pub corroboration_spacing_ms: u64,
    /// Velocity tolerance for candidate pairing (counter units per ms).
    pub velocity_tolerance: f64,
    /// Width of the counter-offset window for candidate pairing.
    pub offset_window: u32,
}

impl Default for MidarConfig {
    fn default() -> Self {
        Self {
            estimation_samples: 5,
            estimation_spacing_ms: 200,
            corroboration_samples: 10,
            corroboration_spacing_ms: 2,
            velocity_tolerance: 0.5,
            offset_window: 4096,
        }
    }
}

/// The outcome of alias resolution.
#[derive(Clone, Debug, Default)]
pub struct AliasResolution {
    /// Alias sets with at least two members, each sorted.
    pub sets: Vec<Vec<Ipv4Addr>>,
    /// Membership index: interface → position in [`AliasResolution::sets`].
    pub set_of: BTreeMap<Ipv4Addr, usize>,
}

impl AliasResolution {
    /// The alias set containing `ip`, if it was resolved into one.
    pub fn aliases_of(&self, ip: Ipv4Addr) -> Option<&[Ipv4Addr]> {
        self.set_of.get(&ip).map(|i| self.sets[*i].as_slice())
    }

    /// Whether two addresses were inferred to sit on one router.
    pub fn same_router(&self, a: Ipv4Addr, b: Ipv4Addr) -> bool {
        match (self.set_of.get(&a), self.set_of.get(&b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Total resolved interfaces.
    pub fn resolved_interfaces(&self) -> usize {
        self.set_of.len()
    }
}

/// Estimation result for one responsive, monotonic interface.
#[derive(Clone, Copy, Debug)]
struct Estimate {
    ip: Ipv4Addr,
    /// Counter units per millisecond.
    velocity: f64,
    /// Counter value extrapolated back to t = 0 (mod 2^16).
    base: u32,
}

/// Every responsive estimate plus its corroboration probes, in candidate
/// order: `ids` holds each estimate's probe ids round by round
/// ([`slots_per_round`] per round), and `answered` one bitmask per
/// estimate whose bit `2·round + parity` is set when every slot of that
/// parity in that round drew a reply.
#[derive(Default)]
struct Probed {
    estimates: Vec<Estimate>,
    answered: Vec<u8>,
    ids: Vec<u16>,
}

impl Probed {
    fn extend(&mut self, other: Probed) {
        self.estimates.extend(other.estimates);
        self.answered.extend(other.answered);
        self.ids.extend(other.ids);
    }
}

/// The two corroboration rounds as `(round, spacing)`, the second at
/// *tighter* spacing: the bounds test's discrimination scales inversely
/// with (rate × spacing), so the tight round is the one that rejects
/// distinct-router coincidences.
fn rounds(cfg: &MidarConfig) -> [(u64, u64); 2] {
    [
        (0, cfg.corroboration_spacing_ms),
        (1, (cfg.corroboration_spacing_ms / 2).max(1)),
    ]
}

/// Corroboration probe slots per round: the two sides of a pair alternate.
fn slots_per_round(cfg: &MidarConfig) -> usize {
    2 * cfg.corroboration_samples
}

/// Probes `ip` at every corroboration slot (round `r`, slot `j` is at
/// `10_000 + r·5_000 + j·spacing_r`), appending the ids to `ids` (0 for
/// no reply) and returning the `answered` mask (see [`Probed`]).
fn probe_slots(prober: &IpIdProber<'_>, ip: Ipv4Addr, cfg: &MidarConfig, ids: &mut Vec<u16>) -> u8 {
    let mut answered = 0b1111u8;
    for (round, spacing) in rounds(cfg) {
        let start = 10_000 + round * 5_000;
        for j in 0..slots_per_round(cfg) as u64 {
            let id = prober.probe(ip, start + j * spacing);
            if id.is_none() {
                answered &= !(1 << (2 * round + j % 2));
            }
            ids.push(id.unwrap_or(0));
        }
    }
    answered
}

/// Resolves aliases among `candidates` using IP-ID probing, estimating
/// over `workers` threads ([`cfs_types::par`]). Probe outcomes are pure
/// functions of `(ip, time)`, so the result is identical at any worker
/// count.
pub fn resolve_aliases(
    prober: &IpIdProber<'_>,
    candidates: &[Ipv4Addr],
    cfg: &MidarConfig,
    workers: usize,
) -> AliasResolution {
    // ---- Stage 1: estimation ----
    // Pure per candidate, so it fans out over worker threads; estimates
    // are merged back in candidate order. The probe-time offset keys off
    // the candidate's *global* index, so chunk workers reproduce the
    // serial schedule exactly. Corroboration probe times are constants,
    // so each estimate's corroboration slots are probed here, once,
    // instead of once per candidate pair.
    let chunks = par::fan_out(0..candidates.len(), workers, 64, |range| {
        let mut out = Probed::default();
        for idx in range {
            let ip = candidates[idx];
            // Offset probe times per target to avoid synchronized artifacts.
            let t0 = (idx as u64 % 7) * 13;
            let samples: Vec<(u64, u16)> = (0..cfg.estimation_samples)
                .filter_map(|k| {
                    let t = t0 + k as u64 * cfg.estimation_spacing_ms;
                    prober.probe(ip, t).map(|id| (t, id))
                })
                .collect();
            if samples.len() < cfg.estimation_samples {
                continue; // unresponsive or lossy — cannot resolve
            }
            if let Some(est) = estimate(ip, &samples) {
                out.estimates.push(est);
                let answered = probe_slots(prober, ip, cfg, &mut out.ids);
                out.answered.push(answered);
            }
        }
        out
    });
    let probed = chunks.into_iter().reduce(|mut all, chunk| {
        all.extend(chunk);
        all
    });
    let probed = probed.unwrap_or_default();
    let estimates = &probed.estimates;

    // ---- Stage 2: candidate pairing (velocity + offset windows) ----
    // Bucket by rounded velocity and by base >> window bits; only pairs in
    // the same or adjacent offset bucket are corroborated.
    let window_shift = cfg.offset_window.trailing_zeros();
    let mut buckets: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
    for (i, est) in estimates.iter().enumerate() {
        let v = est.velocity.round().max(0.0) as u32;
        let b = est.base >> window_shift;
        buckets.entry((v, b)).or_default().push(i);
    }

    let mut dsu = Dsu::new(estimates.len());
    let bucket_keys: Vec<(u32, u32)> = buckets.keys().copied().collect();
    for key in bucket_keys {
        // Same bucket plus the neighbouring offset bucket (window overlap).
        let mut members = buckets[&key].clone();
        if let Some(adj) = buckets.get(&(key.0, key.1 + 1)) {
            members.extend_from_slice(adj);
        }
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let (a, b) = (members[i], members[j]);
                if dsu.find(a) == dsu.find(b) {
                    continue;
                }
                if velocity_compatible(&estimates[a], &estimates[b], cfg)
                    && corroborated(&probed, a, b, cfg)
                {
                    dsu.union(a, b);
                }
            }
        }
    }

    // ---- Stage 3: gather sets ----
    let mut groups: BTreeMap<usize, Vec<Ipv4Addr>> = BTreeMap::new();
    for (i, estimate) in estimates.iter().enumerate() {
        groups.entry(dsu.find(i)).or_default().push(estimate.ip);
    }
    let mut sets: Vec<Vec<Ipv4Addr>> = groups.into_values().filter(|g| g.len() >= 2).collect();
    for set in &mut sets {
        set.sort();
    }
    sets.sort();
    let mut set_of = BTreeMap::new();
    for (i, set) in sets.iter().enumerate() {
        for ip in set {
            set_of.insert(*ip, i);
        }
    }
    AliasResolution { sets, set_of }
}

/// Fits a line to the unwrapped samples; rejects non-monotonic or
/// wildly jittery (random) counters.
fn estimate(ip: Ipv4Addr, samples: &[(u64, u16)]) -> Option<Estimate> {
    let unwrapped = unwrap_ids(samples);
    // Monotonic (non-strict) requirement.
    for w in unwrapped.windows(2) {
        if w[1].1 < w[0].1 {
            return None;
        }
    }
    let (t0, v0) = unwrapped[0];
    let (tn, vn) = *unwrapped.last()?;
    if tn == t0 {
        return None;
    }
    let velocity = (vn - v0) as f64 / (tn - t0) as f64;
    // Sanity: real shared counters advance a bounded number of ids/ms; a
    // "monotonic by luck" random counter shows an absurd velocity.
    if velocity > 1000.0 {
        return None;
    }
    // Reject constant counters (velocity 0 carries no alias signal —
    // everything would match everything).
    if velocity <= 0.0 {
        return None;
    }
    // Check linearity: every sample near the fitted line.
    for (t, v) in &unwrapped {
        let predicted = v0 as f64 + velocity * (*t - t0) as f64;
        if (*v as f64 - predicted).abs() > 128.0 + velocity * 16.0 {
            return None;
        }
    }
    let base = (v0 as f64 - velocity * t0 as f64).rem_euclid(65536.0) as u32;
    Some(Estimate { ip, velocity, base })
}

/// Unwraps mod-2^16 counter samples into a monotonic-friendly space
/// (assumes < 2^15 advance between consecutive samples, like MIDAR).
fn unwrap_ids(samples: &[(u64, u16)]) -> Vec<(u64, i64)> {
    let mut out = Vec::with_capacity(samples.len());
    let mut offset: i64 = 0;
    let mut prev: i64 = i64::from(samples[0].1);
    for (t, id) in samples {
        let raw = i64::from(*id);
        if raw + offset < prev - 32768 {
            offset += 65536;
        }
        let v = raw + offset;
        out.push((*t, v));
        prev = v;
    }
    out
}

fn velocity_compatible(a: &Estimate, b: &Estimate, cfg: &MidarConfig) -> bool {
    (a.velocity - b.velocity).abs() <= cfg.velocity_tolerance
}

/// The monotonic bounds test on the probe table: interleave the two
/// addresses' probes (`a` on the even slots, `b` on the odd ones) in each
/// round; the merged (time, id) sequence must be monotonic after
/// unwrapping (the rules of [`unwrap_ids`]).
fn corroborated(probed: &Probed, a: usize, b: usize, cfg: &MidarConfig) -> bool {
    let per_round = slots_per_round(cfg);
    let ids = |e: usize, round: usize| &probed.ids[(e * 2 + round) * per_round..][..per_round];
    for round in 0..2 {
        if probed.answered[a] & (1 << (2 * round)) == 0
            || probed.answered[b] & (1 << (2 * round + 1)) == 0
        {
            return false;
        }
        let (ra, rb) = (ids(a, round), ids(b, round));
        let mut offset: i64 = 0;
        let mut prev: Option<i64> = None;
        for j in 0..per_round {
            let raw = i64::from(if j % 2 == 0 { ra[j] } else { rb[j] });
            let last = prev.unwrap_or(raw);
            if raw + offset < last - 32768 {
                offset += 65536;
            }
            let v = raw + offset;
            if v < last {
                return false;
            }
            prev = Some(v);
        }
    }
    true
}

/// The monotonic bounds test probing one pair directly: the per-pair
/// reference [`corroborated`] must agree with.
#[cfg(test)]
fn corroborate(prober: &IpIdProber<'_>, a: &Estimate, b: &Estimate, cfg: &MidarConfig) -> bool {
    for (round, spacing) in rounds(cfg) {
        let start = 10_000 + round * 5_000;
        let mut merged: Vec<(u64, u16)> = Vec::with_capacity(cfg.corroboration_samples * 2);
        for k in 0..cfg.corroboration_samples as u64 {
            let ta = start + 2 * k * spacing;
            let tb = start + (2 * k + 1) * spacing;
            match (prober.probe(a.ip, ta), prober.probe(b.ip, tb)) {
                (Some(ia), Some(ib)) => {
                    merged.push((ta, ia));
                    merged.push((tb, ib));
                }
                _ => return false,
            }
        }
        let unwrapped = unwrap_ids(&merged);
        for w in unwrapped.windows(2) {
            if w[1].1 < w[0].1 {
                return false;
            }
        }
    }
    true
}

/// Small union-find.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_topology::{IpIdBehavior, Topology, TopologyConfig};

    fn topo() -> Topology {
        Topology::generate(TopologyConfig::tiny()).unwrap()
    }

    /// All interfaces of the topology as probe candidates.
    fn all_iface_ips(t: &Topology) -> Vec<Ipv4Addr> {
        t.ifaces.values().map(|i| i.ip).collect()
    }

    #[test]
    fn resolution_has_high_precision() {
        let t = topo();
        let prober = IpIdProber::new(&t);
        let res = resolve_aliases(&prober, &all_iface_ips(&t), &MidarConfig::default(), 1);
        assert!(!res.sets.is_empty(), "no alias sets found");
        let mut wrong_pairs = 0usize;
        let mut pairs = 0usize;
        for set in &res.sets {
            for i in 0..set.len() {
                for j in (i + 1)..set.len() {
                    pairs += 1;
                    let ra = t.ifaces[t.iface_by_ip(set[i]).unwrap()].router;
                    let rb = t.ifaces[t.iface_by_ip(set[j]).unwrap()].router;
                    if ra != rb {
                        wrong_pairs += 1;
                    }
                }
            }
        }
        // MIDAR "produces very few false positives".
        assert!(
            (wrong_pairs as f64) <= (pairs as f64) * 0.02,
            "{wrong_pairs}/{pairs} false alias pairs"
        );
    }

    #[test]
    fn counter_routers_are_mostly_recovered() {
        let t = topo();
        let prober = IpIdProber::new(&t);
        let res = resolve_aliases(&prober, &all_iface_ips(&t), &MidarConfig::default(), 1);
        let mut recovered = 0usize;
        let mut eligible = 0usize;
        for router in t.routers.values() {
            if matches!(router.ipid, IpIdBehavior::SharedCounter { .. }) && router.ifaces.len() >= 2
            {
                eligible += 1;
                let a = t.ifaces[router.ifaces[0]].ip;
                let b = t.ifaces[router.ifaces[1]].ip;
                if res.same_router(a, b) {
                    recovered += 1;
                }
            }
        }
        assert!(eligible > 0);
        assert!(
            recovered * 10 >= eligible * 8,
            "recovered only {recovered}/{eligible} counter routers"
        );
    }

    #[test]
    fn unresponsive_routers_stay_unresolved() {
        let t = topo();
        let prober = IpIdProber::new(&t);
        let res = resolve_aliases(&prober, &all_iface_ips(&t), &MidarConfig::default(), 1);
        for router in t.routers.values() {
            if router.ipid == IpIdBehavior::Unresponsive {
                for ifid in &router.ifaces {
                    assert!(res.aliases_of(t.ifaces[*ifid].ip).is_none());
                }
            }
        }
    }

    #[test]
    fn same_router_is_reflexive_on_sets_only() {
        let t = topo();
        let prober = IpIdProber::new(&t);
        let res = resolve_aliases(&prober, &all_iface_ips(&t), &MidarConfig::default(), 1);
        let in_set = res.sets.first().and_then(|s| s.first()).copied();
        if let Some(ip) = in_set {
            assert!(res.same_router(ip, ip));
        }
        let unknown: Ipv4Addr = "198.18.0.1".parse().unwrap();
        assert!(!res.same_router(unknown, unknown));
    }

    #[test]
    fn unwrap_handles_counter_wrap() {
        let samples = vec![(0u64, 65_500u16), (10, 65_530), (20, 10), (30, 40)];
        let u = unwrap_ids(&samples);
        assert!(u.windows(2).all(|w| w[1].1 >= w[0].1), "{u:?}");
        assert_eq!(u[2].1, 65_546);
    }

    #[test]
    fn estimation_rejects_random_and_constant() {
        // Constant counter: no velocity signal.
        let constant = vec![(0u64, 7u16), (200, 7), (400, 7), (600, 7), (800, 7)];
        assert!(estimate("10.0.0.1".parse().unwrap(), &constant).is_none());
        // Decreasing sequence: not a counter.
        let decreasing = vec![
            (0u64, 500u16),
            (200, 400),
            (400, 300),
            (600, 200),
            (800, 100),
        ];
        assert!(estimate("10.0.0.1".parse().unwrap(), &decreasing).is_none());
    }

    /// The table check agrees with per-pair probing on every candidate
    /// pair of the tiny world, not only on the pairs the bucketing
    /// reaches.
    #[test]
    fn table_check_matches_per_pair_probing() {
        let t = topo();
        let prober = IpIdProber::new(&t);
        let cfg = MidarConfig::default();
        let mut probed = Probed::default();
        for ip in all_iface_ips(&t) {
            let samples: Vec<(u64, u16)> = (0..cfg.estimation_samples as u64)
                .filter_map(|k| {
                    let at = k * cfg.estimation_spacing_ms;
                    prober.probe(ip, at).map(|id| (at, id))
                })
                .collect();
            if samples.len() < cfg.estimation_samples {
                continue;
            }
            if let Some(est) = estimate(ip, &samples) {
                probed.estimates.push(est);
                let answered = probe_slots(&prober, ip, &cfg, &mut probed.ids);
                probed.answered.push(answered);
            }
        }
        let n = probed.estimates.len();
        assert!(n > 100, "only {n} estimates");
        let mut aliased = 0;
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let (ea, eb) = (&probed.estimates[a], &probed.estimates[b]);
                let expect = corroborate(&prober, ea, eb, &cfg);
                assert_eq!(
                    corroborated(&probed, a, b, &cfg),
                    expect,
                    "{} {}",
                    ea.ip,
                    eb.ip
                );
                aliased += usize::from(expect);
            }
        }
        assert!(aliased > 0, "no corroborated pair");
    }

    /// Unanswered slots fail the check exactly where per-pair probing
    /// would: only the slots a side actually uses count.
    #[test]
    fn unanswered_slots_fail_the_table_check() {
        let t = topo();
        let prober = IpIdProber::new(&t);
        let cfg = MidarConfig::default();
        let mut ids = Vec::new();
        assert_eq!(
            probe_slots(&prober, "198.18.0.1".parse().unwrap(), &cfg, &mut ids),
            0
        );
        assert_eq!(ids, vec![0; 4 * cfg.corroboration_samples]);

        // A counter interface paired with itself corroborates until a
        // slot it uses in the pair goes unanswered.
        let router = t
            .routers
            .values()
            .find(|r| matches!(r.ipid, IpIdBehavior::SharedCounter { .. }))
            .unwrap();
        let ip = t.ifaces[router.ifaces[0]].ip;
        let mut probed = Probed::default();
        for _ in 0..2 {
            let est = Estimate {
                ip,
                velocity: 1.0,
                base: 0,
            };
            probed.estimates.push(est);
            let answered = probe_slots(&prober, ip, &cfg, &mut probed.ids);
            probed.answered.push(answered);
        }
        assert!(corroborated(&probed, 0, 1, &cfg));
        probed.answered[0] &= !0b0010; // round 0, odd slots: unused by `a`
        assert!(corroborated(&probed, 0, 1, &cfg));
        probed.answered[1] &= !0b1000; // round 1, odd slots: used by `b`
        assert!(!corroborated(&probed, 0, 1, &cfg));
        probed.answered[1] = 0b1111;
        probed.answered[0] &= !0b0100; // round 1, even slots: used by `a`
        assert!(!corroborated(&probed, 0, 1, &cfg));
    }

    #[test]
    fn resolution_is_identical_at_any_thread_count() {
        let t = topo();
        let prober = IpIdProber::new(&t);
        let ips = all_iface_ips(&t);
        assert!(ips.len() >= 64, "the fan-out needs 64 candidates");
        let at = |workers| {
            let res = resolve_aliases(&prober, &ips, &MidarConfig::default(), workers);
            (res.sets, res.set_of)
        };
        let serial = at(1);
        assert!(!serial.0.is_empty());
        for workers in [2, 8] {
            assert_eq!(at(workers), serial, "workers={workers}");
        }
    }

    #[test]
    fn resolution_is_deterministic() {
        let t = topo();
        let prober = IpIdProber::new(&t);
        let ips = all_iface_ips(&t);
        let a = resolve_aliases(&prober, &ips, &MidarConfig::default(), 1);
        let b = resolve_aliases(&prober, &ips, &MidarConfig::default(), 1);
        assert_eq!(a.sets, b.sets);
    }
}
