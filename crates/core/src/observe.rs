//! Step 1: turning raw traceroute hop lists into peering observations
//! (§4.2, "Identifying public and private peering interconnections").

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use cfs_kb::KnowledgeBase;
use cfs_obs::Recorder;
use cfs_traceroute::Trace;
use cfs_types::{Asn, IxpId, LinkClass};

use crate::corpus::SILENT;

/// What a single hop address means once mapped through the corrected
/// IP-to-ASN view and the confirmed IXP prefix list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopMeaning {
    /// Interface of a known AS.
    As(Asn),
    /// Address from a confirmed IXP peering LAN.
    IxpFabric(IxpId),
    /// Responsive but unmapped address.
    Unknown,
    /// `*` — no reply.
    Silent,
}

/// Maps hop addresses to meanings. The corrected map comes from the alias
/// majority vote (§4.1); raw LPM would misplace point-to-point addresses.
pub struct Resolver<'a> {
    kb: &'a KnowledgeBase,
    corrected: &'a BTreeMap<Ipv4Addr, Asn>,
}

impl<'a> Resolver<'a> {
    /// Creates a resolver over the knowledge base and the corrected
    /// IP-to-ASN map.
    pub fn new(kb: &'a KnowledgeBase, corrected: &'a BTreeMap<Ipv4Addr, Asn>) -> Self {
        Self { kb, corrected }
    }

    /// The meaning of one hop address. IXP space takes precedence: fabric
    /// addresses are *assigned by* the exchange, whatever origin BGP
    /// suggests.
    pub fn meaning(&self, ip: Option<Ipv4Addr>) -> HopMeaning {
        let Some(ip) = ip else {
            return HopMeaning::Silent;
        };
        meaning_of(self.kb.ixp_of_ip(ip), self.corrected.get(&ip).copied())
    }
}

/// A responsive hop's meaning from its exchange (if in confirmed IXP
/// space) and its corrected ASN.
fn meaning_of(ixp: Option<IxpId>, asn: Option<Asn>) -> HopMeaning {
    match (ixp, asn) {
        (Some(ixp), _) => HopMeaning::IxpFabric(ixp),
        (None, Some(asn)) => HopMeaning::As(asn),
        (None, None) => HopMeaning::Unknown,
    }
}

/// What [`Resolver`] answers for every address a path corpus interned,
/// indexed by address id (`crate::corpus`), plus each address's corrected
/// ASN, which the exposure index reads even for fabric addresses. Valid
/// for one epoch: one knowledge-base classification view and one
/// corrected map. The engine extends it for new ids, refreshes the ids
/// whose corrected ASN moved, and reclassifies every id when a knowledge
/// base flip changes the classification view.
#[derive(Default)]
pub(crate) struct HopTable {
    meaning: Vec<HopMeaning>,
    asn: Vec<Option<Asn>>,
}

impl HopTable {
    /// Resolves the addresses of `addrs` (every interned address, by id)
    /// past those already held: the ids interned since the last call.
    pub(crate) fn extend(
        &mut self,
        addrs: &[Ipv4Addr],
        kb: &KnowledgeBase,
        corrected: &BTreeMap<Ipv4Addr, Asn>,
    ) {
        for ip in &addrs[self.asn.len()..] {
            let asn = corrected.get(ip).copied();
            self.asn.push(asn);
            self.meaning.push(meaning_of(kb.ixp_of_ip(*ip), asn));
        }
    }

    /// Re-reads the corrected ASN of address `id`, whose entry in
    /// `corrected` moved; its exchange, if any, still takes precedence.
    pub(crate) fn refresh(&mut self, id: usize, asn: Option<Asn>) {
        self.asn[id] = asn;
        if !matches!(self.meaning[id], HopMeaning::IxpFabric(_)) {
            self.meaning[id] = meaning_of(None, asn);
        }
    }

    /// Re-classifies every address under a new knowledge base.
    pub(crate) fn reclassify(&mut self, addrs: &[Ipv4Addr], kb: &KnowledgeBase) {
        for ((ip, asn), meaning) in addrs.iter().zip(&self.asn).zip(&mut self.meaning) {
            *meaning = meaning_of(kb.ixp_of_ip(*ip), *asn);
        }
    }

    /// The meaning of hop `id` ([`SILENT`] for no reply).
    pub(crate) fn meaning(&self, id: u32) -> HopMeaning {
        if id == SILENT {
            HopMeaning::Silent
        } else {
            self.meaning[id as usize]
        }
    }

    /// The corrected ASN of address `id`.
    pub(crate) fn asn(&self, id: u32) -> Option<Asn> {
        self.asn[id as usize]
    }
}

/// Rule weights of the multi-rule IXP-hop detector, per-mille of the
/// combined evidence score. The prefix rule dominates (it is the §4.2
/// classifier), the membership rules corroborate, and both-sides
/// agreement adds a bonus — the traIXroute rule mix.
const W_PREFIX: u32 = 400;
const W_NEAR: u32 = 250;
const W_FAR: u32 = 250;
const W_BOTH: u32 = 100;

/// Evidence below this per-mille is too weak to localize a public
/// crossing at the exchange's facilities. Calibrated so a clean,
/// uncontested prefix hit passes alone (400‰): prefix classification
/// with no membership corroboration is the paper's baseline behavior,
/// and must not regress under an empty member directory.
pub const EVIDENCE_MIN_PM: u32 = 350;

/// The trust-weighted evidence behind one public-crossing call: which
/// of the traIXroute-style rules fired (prefix hit, near-side member,
/// far-side member, both-sides agreement) and how much the reconciled
/// records backing them agreed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IxpHopEvidence {
    /// How many of the four rules fired (1..=4; the prefix rule always
    /// fires for a public observation).
    pub rule_votes: u32,
    /// Combined rule score in per-mille, each vote weighted by the
    /// reconciled record's agreement.
    pub evidence_pm: u32,
    /// Whether a consulted membership record reconciled as contested —
    /// the identification itself rests on disputed data.
    pub contested: bool,
}

impl IxpHopEvidence {
    /// Full confidence: private crossings and BGP-session observations,
    /// which never ride the IXP-hop rules.
    pub const FULL: Self = Self {
        rule_votes: 4,
        evidence_pm: 1000,
        contested: false,
    };

    /// Whether the evidence is too weak to pin the crossing at the
    /// exchange: contested provenance, or a combined score below
    /// [`EVIDENCE_MIN_PM`].
    #[must_use]
    pub fn weak(&self) -> bool {
        self.contested || self.evidence_pm < EVIDENCE_MIN_PM
    }
}

/// One observed interconnection crossing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observation {
    /// Near-side AS (the paper's AS A).
    pub near_asn: Asn,
    /// Near-side interface (IP_A) — what Step 2 constrains.
    pub near_ip: Ipv4Addr,
    /// Public or private crossing.
    pub class: LinkClass,
    /// Far-side AS when identifiable (from the hop after the boundary, or
    /// the member list behind a fabric address).
    pub far_asn: Option<Asn>,
    /// The far-side interface: the IXP fabric address (public) or the
    /// neighbour's point-to-point interface (private).
    pub far_ip: Option<Ipv4Addr>,
    /// Rule-vote evidence behind the call (always `IxpHopEvidence::FULL`
    /// for private crossings).
    pub evidence: IxpHopEvidence,
}

impl Observation {
    /// Dedup key: near interface, exchange (`None` when private), far
    /// interface. The first observation per key wins.
    pub(crate) fn key(&self) -> (Ipv4Addr, Option<IxpId>, Option<Ipv4Addr>) {
        (self.near_ip, self.class.ixp(), self.far_ip)
    }
}

/// Scores one public crossing against the reconciled knowledge base.
fn score_public_hop(
    kb: &KnowledgeBase,
    ixp: IxpId,
    fabric_ip: Ipv4Addr,
    near: Asn,
    far: Option<Asn>,
) -> IxpHopEvidence {
    let prefix_pm = kb.prefix_agreement_pm(ixp, fabric_ip);
    let member_pm = |asn: Option<Asn>| -> (u32, bool) {
        let Some(asn) = asn else { return (0, false) };
        if kb.membership_contested(ixp, asn) {
            // Contested membership is not evidence — and it taints the
            // call: somebody disputes that this AS is even present.
            (0, true)
        } else {
            (kb.membership_agreement_pm(ixp, asn), false)
        }
    };
    let (near_pm, near_contested) = member_pm(Some(near));
    let (far_pm, far_contested) = member_pm(far);
    let both_pm = near_pm.min(far_pm);
    let mut rule_votes = 1; // the prefix rule fired by construction
    if near_pm > 0 {
        rule_votes += 1;
    }
    if far_pm > 0 {
        rule_votes += 1;
    }
    if both_pm > 0 {
        rule_votes += 1;
    }
    IxpHopEvidence {
        rule_votes,
        evidence_pm: (W_PREFIX * prefix_pm + W_NEAR * near_pm + W_FAR * far_pm + W_BOTH * both_pm)
            / 1000,
        contested: near_contested || far_contested,
    }
}

/// Extracts the peering observations from one trace.
///
/// Rules (§4.2 Step 1):
/// * `(IP_A, IP_e, IP_B)` with `IP_e` in confirmed IXP space ⇒ public
///   peering between A and the fabric address's owner. The owner is taken
///   from the IXP's member directory when available, else from the next
///   hop's AS.
/// * `(IP_A, IP_B)` with different ASes ⇒ private peering A–B; the far
///   interface is IP_B itself.
/// * Crossings involving unresponsive or unmapped middle hops are
///   discarded.
pub fn extract_observations(trace: &Trace, resolver: &Resolver<'_>) -> Vec<Observation> {
    let hops: Vec<_> = trace
        .hops
        .iter()
        .map(|h| (h.ip, resolver.meaning(h.ip)))
        .collect();
    let mut out = Vec::new();
    extract_into(&hops, resolver.kb, &mut out);
    out
}

/// [`extract_observations`] over a path's hops, each with its meaning,
/// appending to `out`.
fn extract_into(
    hops: &[(Option<Ipv4Addr>, HopMeaning)],
    kb: &KnowledgeBase,
    out: &mut Vec<Observation>,
) {
    let meaning = |i: usize| hops.get(i).map(|h| h.1);
    for (i, (ip, m)) in hops.iter().enumerate() {
        let HopMeaning::As(a) = *m else {
            continue;
        };
        let near_ip = ip.expect("mapped hop has an address");

        match meaning(i + 1) {
            // ---- public: A, fabric, B ----
            Some(HopMeaning::IxpFabric(ixp)) => {
                let fabric_ip = hops[i + 1].0.expect("mapped hop has an address");
                // Identify the far member: directory first, next hop second.
                let directory = kb.member_of_fabric_ip(ixp, fabric_ip);
                let next_as = match meaning(i + 2) {
                    Some(HopMeaning::As(b)) if b != a => Some(b),
                    _ => None,
                };
                let far_asn = directory.or(next_as);
                // A fabric hop followed by silence/unknown and no
                // directory entry is unusable (paper: discard).
                if far_asn.is_none() {
                    continue;
                }
                out.push(Observation {
                    near_asn: a,
                    near_ip,
                    class: LinkClass::Public { ixp },
                    far_asn,
                    far_ip: Some(fabric_ip),
                    evidence: score_public_hop(kb, ixp, fabric_ip, a, far_asn),
                });
            }
            // ---- private: A, B directly ----
            Some(HopMeaning::As(b)) if b != a => {
                let far_ip = hops[i + 1].0.expect("mapped hop has an address");
                out.push(Observation {
                    near_asn: a,
                    near_ip,
                    class: LinkClass::Private,
                    far_asn: Some(b),
                    far_ip: Some(far_ip),
                    evidence: IxpHopEvidence::FULL,
                });
            }
            _ => {}
        }
    }
}

/// The extraction telemetry of one trace: its public and private
/// crossings and the IXP-hop rule votes behind the public ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct PathTally {
    public: u32,
    private: u32,
    votes: u32,
}

/// [`extract_observations`] over one measured path's hops, each with
/// its meaning, appending to `out` so a worker collects a whole chunk in
/// one flat list; returns the path's [`PathTally`].
pub(crate) fn extract_path(
    hops: &[(Option<Ipv4Addr>, HopMeaning)],
    kb: &KnowledgeBase,
    out: &mut Vec<Observation>,
) -> PathTally {
    let start = out.len();
    extract_into(hops, kb, out);
    let mut tally = PathTally::default();
    for obs in &out[start..] {
        match obs.class {
            LinkClass::Public { .. } => {
                tally.public += 1;
                tally.votes += obs.evidence.rule_votes;
            }
            LinkClass::Private => tally.private += 1,
        }
    }
    tally
}

/// One extraction pass's telemetry: every extracted trace's
/// [`PathTally`], weighted by how many traces took the path, plus the
/// observations the pass added. Flushed once per pass, it records
/// exactly what recording every trace on its own would: each counter is
/// a sum of per-trace contributions (touched only when some trace
/// touched it), and `observe.per_trace` gets one sample per trace. The
/// sums do not depend on how the pass split traces over workers (the
/// DESIGN.md §7 determinism contract).
#[derive(Default)]
pub(crate) struct ExtractTally {
    traces: u64,
    public: u64,
    private: u64,
    votes: u64,
    /// Traces by observation count.
    per_trace: Vec<u64>,
    pub(crate) observations_new: u64,
}

impl ExtractTally {
    /// Adds `n` traces over a path extracting to `t`.
    pub(crate) fn add(&mut self, t: PathTally, n: u64) {
        self.traces += n;
        self.public += u64::from(t.public) * n;
        self.private += u64::from(t.private) * n;
        self.votes += u64::from(t.votes) * n;
        let k = (t.public + t.private) as usize;
        if self.per_trace.len() <= k {
            self.per_trace.resize(k + 1, 0);
        }
        self.per_trace[k] += n;
    }

    /// Records the pass into `rec`.
    pub(crate) fn flush(&self, rec: &dyn Recorder) {
        rec.counter("extract.traces", self.traces);
        if self.public > 0 {
            rec.counter("observe.public", self.public);
            rec.counter("ixp_hop.rule_votes", self.votes);
        }
        if self.private > 0 {
            rec.counter("observe.private", self.private);
        }
        for (k, n) in self.per_trace.iter().enumerate().filter(|(_, n)| **n > 0) {
            rec.observe_n("observe.per_trace", k as u64, *n);
        }
        if self.observations_new > 0 {
            rec.counter("extract.observations_new", self.observations_new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfs_kb::{KbConfig, KnowledgeBase, PublicSources};
    use cfs_topology::{Topology, TopologyConfig};
    use cfs_traceroute::Hop;

    fn hop(ip: &str) -> Hop {
        Hop {
            ip: Some(ip.parse().unwrap()),
            rtt_ms: 1.0,
        }
    }

    fn star() -> Hop {
        Hop {
            ip: None,
            rtt_ms: 0.0,
        }
    }

    fn trace_of(hops: Vec<Hop>) -> Trace {
        Trace {
            vp: cfs_types::VantagePointId::new(0),
            src_asn: Asn(64_500),
            target: "198.51.100.1".parse().unwrap(),
            at_ms: 0,
            hops,
            reached: true,
        }
    }

    /// Builds a resolver over a real KB plus a hand-made corrected map.
    fn fixture() -> (Topology, KnowledgeBase) {
        let topo = Topology::generate(TopologyConfig::tiny()).unwrap();
        let src = PublicSources::derive(&topo, &KbConfig::default());
        let kb = KnowledgeBase::assemble(&src, &topo.world);
        (topo, kb)
    }

    #[test]
    fn private_adjacency_extracted() {
        let (_topo, kb) = fixture();
        let corrected: BTreeMap<Ipv4Addr, Asn> = [
            ("10.0.0.1".parse().unwrap(), Asn(100)),
            ("10.1.0.1".parse().unwrap(), Asn(200)),
        ]
        .into_iter()
        .collect();
        let resolver = Resolver::new(&kb, &corrected);
        let t = trace_of(vec![hop("10.0.0.1"), hop("10.1.0.1")]);
        let obs = extract_observations(&t, &resolver);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].near_asn, Asn(100));
        assert_eq!(obs[0].class, LinkClass::Private);
        assert_eq!(obs[0].far_asn, Some(Asn(200)));
        assert_eq!(obs[0].far_ip, Some("10.1.0.1".parse().unwrap()));
    }

    #[test]
    fn same_as_hops_produce_nothing() {
        let (_topo, kb) = fixture();
        let corrected: BTreeMap<Ipv4Addr, Asn> = [
            ("10.0.0.1".parse().unwrap(), Asn(100)),
            ("10.0.0.2".parse().unwrap(), Asn(100)),
        ]
        .into_iter()
        .collect();
        let resolver = Resolver::new(&kb, &corrected);
        let t = trace_of(vec![hop("10.0.0.1"), hop("10.0.0.2")]);
        assert!(extract_observations(&t, &resolver).is_empty());
    }

    #[test]
    fn silent_middle_hop_discards_crossing() {
        let (_topo, kb) = fixture();
        let corrected: BTreeMap<Ipv4Addr, Asn> = [
            ("10.0.0.1".parse().unwrap(), Asn(100)),
            ("10.1.0.1".parse().unwrap(), Asn(200)),
        ]
        .into_iter()
        .collect();
        let resolver = Resolver::new(&kb, &corrected);
        let t = trace_of(vec![hop("10.0.0.1"), star(), hop("10.1.0.1")]);
        assert!(extract_observations(&t, &resolver).is_empty());
    }

    #[test]
    fn public_adjacency_uses_member_directory_or_next_hop() {
        let (topo, kb) = fixture();
        // Find an active IXP with a member directory entry in the KB.
        let mut found = None;
        'outer: for (id, ixp) in topo.ixps.iter() {
            for m in &ixp.members {
                if kb.ixp_of_ip(m.fabric_ip) == Some(id) {
                    found = Some((id, m.fabric_ip, m.asn));
                    break 'outer;
                }
            }
        }
        let (ixp, fabric_ip, member_asn) = found.expect("an ixp with confirmed prefix");
        let near: Ipv4Addr = "10.0.0.1".parse().unwrap();
        let next: Ipv4Addr = "10.1.0.1".parse().unwrap();
        let corrected: BTreeMap<Ipv4Addr, Asn> =
            [(near, Asn(100)), (next, member_asn)].into_iter().collect();
        let resolver = Resolver::new(&kb, &corrected);

        let t = trace_of(vec![
            Hop {
                ip: Some(near),
                rtt_ms: 1.0,
            },
            Hop {
                ip: Some(fabric_ip),
                rtt_ms: 2.0,
            },
            Hop {
                ip: Some(next),
                rtt_ms: 3.0,
            },
        ]);
        let obs = extract_observations(&t, &resolver);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].class, LinkClass::Public { ixp });
        assert_eq!(obs[0].near_asn, Asn(100));
        assert_eq!(obs[0].far_ip, Some(fabric_ip));
        assert_eq!(obs[0].far_asn, Some(member_asn));
    }

    #[test]
    fn fabric_hop_without_identity_is_discarded() {
        let (topo, kb) = fixture();
        // A fabric IP that is confirmed but has no directory entry and no
        // mapped next hop.
        let mut pick = None;
        'outer: for (id, ixp) in topo.ixps.iter() {
            for m in &ixp.members {
                if kb.ixp_of_ip(m.fabric_ip) == Some(id)
                    && kb.member_of_fabric_ip(id, m.fabric_ip).is_none()
                {
                    pick = Some(m.fabric_ip);
                    break 'outer;
                }
            }
        }
        let Some(fabric_ip) = pick else {
            return; // every confirmed IXP published a directory — fine
        };
        let near: Ipv4Addr = "10.0.0.1".parse().unwrap();
        let corrected: BTreeMap<Ipv4Addr, Asn> = [(near, Asn(100))].into_iter().collect();
        let resolver = Resolver::new(&kb, &corrected);
        let t = trace_of(vec![
            Hop {
                ip: Some(near),
                rtt_ms: 1.0,
            },
            Hop {
                ip: Some(fabric_ip),
                rtt_ms: 2.0,
            },
            star(),
        ]);
        assert!(extract_observations(&t, &resolver).is_empty());
    }

    #[test]
    fn private_and_directory_crossings_carry_expected_evidence() {
        let (topo, kb) = fixture();
        // Private adjacency: never rides the IXP-hop rules → FULL.
        let corrected: BTreeMap<Ipv4Addr, Asn> = [
            ("10.0.0.1".parse().unwrap(), Asn(100)),
            ("10.1.0.1".parse().unwrap(), Asn(200)),
        ]
        .into_iter()
        .collect();
        let resolver = Resolver::new(&kb, &corrected);
        let t = trace_of(vec![hop("10.0.0.1"), hop("10.1.0.1")]);
        let obs = extract_observations(&t, &resolver);
        assert_eq!(obs[0].evidence, IxpHopEvidence::FULL);
        assert!(!obs[0].evidence.weak());

        // Public crossing identified via a clean directory entry: the
        // prefix and far-member rules both fire with full agreement, so
        // the score is at least W_PREFIX + W_FAR and never weak.
        let mut found = None;
        'outer: for (id, ixp) in topo.ixps.iter() {
            for m in &ixp.members {
                if kb.ixp_of_ip(m.fabric_ip) == Some(id)
                    && kb.member_of_fabric_ip(id, m.fabric_ip).is_some()
                    && !kb.membership_contested(id, m.asn)
                {
                    found = Some((id, m.fabric_ip));
                    break 'outer;
                }
            }
        }
        let (ixp, fabric_ip) = found.expect("an ixp with a clean directory entry");
        let near: Ipv4Addr = "10.0.0.1".parse().unwrap();
        let corrected: BTreeMap<Ipv4Addr, Asn> = [(near, Asn(100))].into_iter().collect();
        let resolver = Resolver::new(&kb, &corrected);
        let t = trace_of(vec![
            Hop {
                ip: Some(near),
                rtt_ms: 1.0,
            },
            Hop {
                ip: Some(fabric_ip),
                rtt_ms: 2.0,
            },
            star(),
        ]);
        let obs = extract_observations(&t, &resolver);
        assert_eq!(obs.len(), 1);
        let ev = obs[0].evidence;
        assert_eq!(obs[0].class, LinkClass::Public { ixp });
        assert!(ev.rule_votes >= 2, "prefix + far-member must fire: {ev:?}");
        assert!(
            ev.evidence_pm >= EVIDENCE_MIN_PM && !ev.weak(),
            "clean directory crossing must clear the gate: {ev:?}"
        );
        assert!(!ev.contested);
    }

    #[test]
    fn contested_membership_taints_the_evidence() {
        // A synthetic score check against the rule arithmetic: a
        // contested membership contributes zero and forces the contested
        // flag, whatever the prefix agreement says.
        let (topo, kb) = fixture();
        let Some((ixp, fabric_ip, member)) = topo.ixps.iter().find_map(|(id, ixp)| {
            ixp.members.iter().find_map(|m| {
                (kb.ixp_of_ip(m.fabric_ip) == Some(id)).then_some((id, m.fabric_ip, m.asn))
            })
        }) else {
            panic!("tiny world always has a confirmed fabric address");
        };
        let clean = score_public_hop(&kb, ixp, fabric_ip, Asn(64_999), Some(member));
        // The synthetic near AS 64999 is nobody's member: only the far
        // side can corroborate the prefix rule.
        assert!(clean.rule_votes <= 3);
        if kb.membership_contested(ixp, member) {
            assert!(clean.contested && clean.weak());
        } else {
            assert!(!clean.contested);
        }
        // No far identity at all: prefix-only call, exactly one vote,
        // and the score collapses to the weighted prefix agreement.
        let alone = score_public_hop(&kb, ixp, fabric_ip, Asn(64_999), None);
        assert_eq!(alone.rule_votes, 1);
        assert_eq!(
            alone.evidence_pm,
            W_PREFIX * kb.prefix_agreement_pm(ixp, fabric_ip) / 1000
        );
    }

    #[test]
    fn multiple_crossings_in_one_trace() {
        let (_topo, kb) = fixture();
        let corrected: BTreeMap<Ipv4Addr, Asn> = [
            ("10.0.0.1".parse().unwrap(), Asn(100)),
            ("10.1.0.1".parse().unwrap(), Asn(200)),
            ("10.2.0.1".parse().unwrap(), Asn(300)),
        ]
        .into_iter()
        .collect();
        let resolver = Resolver::new(&kb, &corrected);
        let t = trace_of(vec![hop("10.0.0.1"), hop("10.1.0.1"), hop("10.2.0.1")]);
        let obs = extract_observations(&t, &resolver);
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].far_asn, Some(Asn(200)));
        assert_eq!(obs[1].near_asn, Asn(200));
        assert_eq!(obs[1].far_asn, Some(Asn(300)));
    }
}
