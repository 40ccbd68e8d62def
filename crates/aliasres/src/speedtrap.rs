//! The speedtrap prober and alias inference.
//!
//! Procedure (following Luckie et al., adapted to the simulator):
//!
//! 1. **Elicitation** — every candidate interface is sent oversized
//!    ICMPv6 Echo Requests; responsive interfaces return *fragmented*
//!    replies whose Fragment-header identification comes from their
//!    router's shared counter.
//! 2. **Candidate clustering** — interfaces whose observed identifiers
//!    land close together are counter-proximity candidates (independent
//!    counters are seeded far apart with overwhelming probability).
//! 3. **Monotonic-bound test (MBT)** — for a candidate pair `(A, B)`,
//!    probe `A, B, A`: if the three identifiers are strictly increasing
//!    within a small span, `A` and `B` share a counter and are aliases.
//!    Verified pairs are merged with union-find.

use serde::{Deserialize, Serialize};
use simnet::Engine;
use std::collections::HashMap;
use std::net::Ipv6Addr;
use v6packet::frag::parse_fragmented_echo_reply;
use v6packet::{csum, ip6, proto_num, Ipv6Header};
use yarrp6::campaign::{supervise, Attempt, RetryPolicy, Supervised};

/// Speedtrap parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AliasConfig {
    /// Echo data size; must force fragmentation (≥ the simulator's
    /// 1000-byte threshold, mirroring real >MTU-48 probes).
    pub probe_size: usize,
    /// Probe rate on the virtual clock (pps).
    pub rate_pps: u64,
}

/// Identifier distance below which two interfaces become MBT
/// candidates.
const CLUSTER_WINDOW: u32 = 64;
/// Maximum identifier span accepted by one MBT triple.
const MBT_SPAN: u32 = 64;
/// Hop limit for direct probes.
const HOP_LIMIT: u8 = 64;

impl Default for AliasConfig {
    fn default() -> Self {
        AliasConfig {
            probe_size: 1200,
            rate_pps: 1_000,
        }
    }
}

/// Resolved alias sets: each inner vector is one inferred router.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AliasSets {
    /// Alias groups with ≥ 2 interfaces.
    pub groups: Vec<Vec<Ipv6Addr>>,
    /// Interfaces that answered fragmented probes but joined no group.
    pub singletons: Vec<Ipv6Addr>,
    /// Interfaces that never produced a fragmented reply.
    pub unresponsive: Vec<Ipv6Addr>,
    /// Probes sent.
    pub probes: u64,
    /// Candidate pairs the monotonic-bound test confirmed (merged).
    pub pairs_confirmed: u64,
    /// Candidate pairs the MBT ran on and rejected — non-monotonic,
    /// over-span, or a sample lost mid-triple.
    pub pairs_rejected: u64,
    /// The probe budget ran out before every candidate interface (or
    /// candidate pair) was tested; the sets cover only what was paid
    /// for. Untested interfaces appear in no list.
    pub truncated: bool,
}

impl AliasSets {
    /// Precision/recall against ground-truth groups (same-router pairs).
    pub fn score(&self, truth: &[Vec<Ipv6Addr>]) -> (f64, f64) {
        let mut truth_router: HashMap<Ipv6Addr, usize> = HashMap::new();
        for (i, g) in truth.iter().enumerate() {
            for &a in g {
                truth_router.insert(a, i);
            }
        }
        let mut inferred_pairs: Vec<(Ipv6Addr, Ipv6Addr)> = Vec::new();
        for g in &self.groups {
            for i in 0..g.len() {
                for j in i + 1..g.len() {
                    inferred_pairs.push((g[i], g[j]));
                }
            }
        }
        let tp = inferred_pairs
            .iter()
            .filter(|(a, b)| {
                matches!((truth_router.get(a), truth_router.get(b)), (Some(x), Some(y)) if x == y)
            })
            .count();
        let precision = if inferred_pairs.is_empty() {
            1.0
        } else {
            tp as f64 / inferred_pairs.len() as f64
        };
        // Recall over truth pairs whose both endpoints were probed and
        // responsive (others are unknowable).
        let probed: std::collections::BTreeSet<Ipv6Addr> = self
            .groups
            .iter()
            .flatten()
            .chain(self.singletons.iter())
            .copied()
            .collect();
        let mut truth_pairs = 0usize;
        let mut found = 0usize;
        let inferred_group: HashMap<Ipv6Addr, usize> = self
            .groups
            .iter()
            .enumerate()
            .flat_map(|(i, g)| g.iter().map(move |&a| (a, i)))
            .collect();
        for g in truth {
            for i in 0..g.len() {
                for j in i + 1..g.len() {
                    if probed.contains(&g[i]) && probed.contains(&g[j]) {
                        truth_pairs += 1;
                        if matches!(
                            (inferred_group.get(&g[i]), inferred_group.get(&g[j])),
                            (Some(x), Some(y)) if x == y
                        ) {
                            found += 1;
                        }
                    }
                }
            }
        }
        let recall = if truth_pairs == 0 {
            1.0
        } else {
            found as f64 / truth_pairs as f64
        };
        (precision, recall)
    }
}

/// Builds an oversized Echo Request to `target` (raw, not a Yarrp6 probe
/// — alias resolution is a follow-on measurement with its own packets).
fn build_big_echo(src: Ipv6Addr, target: Ipv6Addr, size: usize, seq: u16) -> Vec<u8> {
    let mut icmp = vec![0u8; 8 + size];
    icmp[0] = 128;
    let ident = csum::addr_checksum(target);
    icmp[4..6].copy_from_slice(&ident.to_be_bytes());
    icmp[6..8].copy_from_slice(&seq.to_be_bytes());
    // Deterministic filler.
    for (i, b) in icmp[8..].iter_mut().enumerate() {
        *b = (i % 251) as u8;
    }
    let ck = csum::transport_checksum(src, target, proto_num::ICMP6, &icmp);
    icmp[2..4].copy_from_slice(&ck.to_be_bytes());
    let hdr = Ipv6Header {
        traffic_class: 0,
        flow_label: 0,
        payload_len: icmp.len() as u16,
        next_header: proto_num::ICMP6,
        hop_limit: HOP_LIMIT,
        src,
        dst: target,
    };
    let mut out = Vec::with_capacity(ip6::HEADER_LEN + icmp.len());
    out.extend_from_slice(&hdr.encode());
    out.extend_from_slice(&icmp);
    out
}

/// Probes one interface; returns its fragment identifier if a
/// fragmented reply came back.
fn sample(
    engine: &mut Engine,
    src: Ipv6Addr,
    iface: Ipv6Addr,
    cfg: &AliasConfig,
    now_us: &mut u64,
    probes: &mut u64,
    seq: u16,
) -> Option<u32> {
    let wire = build_big_echo(src, iface, cfg.probe_size, seq);
    *probes += 1;
    let d = engine.inject(&wire, *now_us);
    *now_us += 1_000_000 / cfg.rate_pps.max(1);
    let d = d?;
    let r = parse_fragmented_echo_reply(&d.bytes)?;
    (r.header.src == iface).then_some(r.frag_id)
}

/// Runs speedtrap from `vantage_idx` over `interfaces` under a probe
/// budget on an explicit virtual clock: probing starts at `start_us`
/// (so a fault schedule sees alias probes where they really land —
/// after the round's campaigns) and stops, phase by phase, once
/// `max_probes` probes are spent. A truncated run marks
/// [`AliasSets::truncated`]; interfaces the budget never reached appear
/// in no output list, so callers re-offer them later instead of
/// mistaking them for unresponsive. An unbudgeted run is
/// `start_us = 0, max_probes = u64::MAX`.
pub fn resolve_aliases(
    engine: &mut Engine,
    vantage_idx: u8,
    interfaces: &[Ipv6Addr],
    cfg: &AliasConfig,
    start_us: u64,
    max_probes: u64,
) -> AliasSets {
    let src = engine.topology().vantages[vantage_idx as usize].addr;
    let mut now_us = start_us;
    let mut probes = 0u64;
    let mut truncated = false;

    // Phase 1: elicitation.
    let mut samples: Vec<(Ipv6Addr, u32)> = Vec::new();
    let mut unresponsive = Vec::new();
    for (i, &iface) in interfaces.iter().enumerate() {
        if probes >= max_probes {
            truncated = true;
            break;
        }
        match sample(engine, src, iface, cfg, &mut now_us, &mut probes, i as u16) {
            Some(id) => samples.push((iface, id)),
            None => unresponsive.push(iface),
        }
    }

    // Phase 2: candidate clustering by identifier proximity. Counters
    // advance only when probed, so two interfaces of one router sit
    // within a handful of identifiers of each other after phase 1 —
    // but unrelated samples can land between them, so *every* pair
    // within a cluster is a candidate, not just sorted neighbors.
    samples.sort_by_key(|&(_, id)| id);
    let mut clusters: Vec<&[(Ipv6Addr, u32)]> = Vec::new();
    let mut start = 0usize;
    for i in 1..=samples.len() {
        let boundary =
            i == samples.len() || samples[i].1.wrapping_sub(samples[i - 1].1) > CLUSTER_WINDOW;
        if boundary {
            clusters.push(&samples[start..i]);
            start = i;
        }
    }
    let mut candidate_pairs: Vec<(Ipv6Addr, Ipv6Addr)> = Vec::new();
    for cluster in clusters {
        if cluster.len() <= 24 {
            for i in 0..cluster.len() {
                for j in i + 1..cluster.len() {
                    candidate_pairs.push((cluster[i].0, cluster[j].0));
                }
            }
        } else {
            // Degenerate (dense) cluster: fall back to consecutive pairs
            // to bound the verification cost.
            for w in cluster.windows(2) {
                candidate_pairs.push((w[0].0, w[1].0));
            }
        }
    }

    // Phase 3: MBT verification + union-find merge.
    let mut parent: HashMap<Ipv6Addr, Ipv6Addr> = HashMap::new();
    fn find(parent: &mut HashMap<Ipv6Addr, Ipv6Addr>, x: Ipv6Addr) -> Ipv6Addr {
        let p = *parent.get(&x).unwrap_or(&x);
        if p == x {
            x
        } else {
            let r = find(parent, p);
            parent.insert(x, r);
            r
        }
    }
    let mut pairs_confirmed = 0u64;
    let mut pairs_rejected = 0u64;
    for (a, b) in candidate_pairs {
        // An MBT triple costs three probes; don't start one the budget
        // can't finish.
        if probes.saturating_add(3) > max_probes {
            truncated = true;
            break;
        }
        let s1 = sample(engine, src, a, cfg, &mut now_us, &mut probes, 100);
        let s2 = sample(engine, src, b, cfg, &mut now_us, &mut probes, 101);
        let s3 = sample(engine, src, a, cfg, &mut now_us, &mut probes, 102);
        if let (Some(i1), Some(i2), Some(i3)) = (s1, s2, s3) {
            let monotonic = i1 < i2 && i2 < i3;
            let tight = i3.wrapping_sub(i1) <= MBT_SPAN;
            if monotonic && tight {
                pairs_confirmed += 1;
                let ra = find(&mut parent, a);
                let rb = find(&mut parent, b);
                if ra != rb {
                    parent.insert(ra, rb);
                }
            } else {
                pairs_rejected += 1;
            }
        } else {
            pairs_rejected += 1;
        }
    }

    // Collect groups.
    let mut by_root: HashMap<Ipv6Addr, Vec<Ipv6Addr>> = HashMap::new();
    for &(iface, _) in &samples {
        let r = find(&mut parent, iface);
        by_root.entry(r).or_default().push(iface);
    }
    let mut groups = Vec::new();
    let mut singletons = Vec::new();
    for (_, mut g) in by_root {
        g.sort();
        g.dedup();
        if g.len() >= 2 {
            groups.push(g);
        } else {
            singletons.extend(g);
        }
    }
    groups.sort();
    singletons.sort();
    unresponsive.sort();
    AliasSets {
        groups,
        singletons,
        unresponsive,
        probes,
        pairs_confirmed,
        pairs_rejected,
        truncated,
    }
}

/// Runs [`resolve_aliases`] under the campaign supervisor
/// ([`yarrp6::campaign::supervise`] — the same loop streaming campaigns
/// retry under). The call builds one engine and every attempt starts
/// from its [`Engine::reset`] — full buckets, reseeded fragment
/// counters, zero statistics, every flow still open, so a retry
/// re-resolves no path — at the accumulated virtual clock. A panicking
/// attempt or a *blackout* (injected-fault drops with zero fragmented
/// replies — the signature of probing into an outage window) retries
/// with the policy's exponential backoff on the virtual clock, and
/// exhausted retries come back `degraded` instead of panicking. The
/// outcome carries the final completed attempt's sets (if any), the
/// panic message that ended the last failed one, engine accounting
/// merged over **every** attempt (retries burn budget too) and the
/// virtual-time span the whole campaign occupied. Deterministic: the
/// same inputs and fault schedule always produce the same outcome.
pub fn resolve_aliases_supervised(
    topo: &std::sync::Arc<simnet::Topology>,
    vantage_idx: u8,
    interfaces: &[Ipv6Addr],
    cfg: &AliasConfig,
    policy: &RetryPolicy,
    start_us: u64,
    max_probes: u64,
) -> Supervised<AliasSets, String> {
    let step_us = 1_000_000 / cfg.rate_pps.max(1);
    let mut engine = Engine::new(topo.clone());
    supervise(
        policy,
        start_us,
        |clock| {
            engine.reset();
            let sets =
                resolve_aliases(&mut engine, vantage_idx, interfaces, cfg, clock, max_probes);
            let stats = engine.stats;
            debug_assert_eq!(stats.check(), Ok(()));
            Ok(Attempt {
                duration_us: sets.probes.saturating_mul(step_us),
                blackout: stats.fault_dropped_total() > 0 && stats.frag_echo_replies == 0,
                stats,
                output: sets,
            })
        },
        std::convert::identity,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::config::TopologyConfig;
    use simnet::generate::generate;
    use std::sync::Arc;

    fn engine() -> Engine {
        Engine::new(Arc::new(generate(TopologyConfig::tiny(42))))
    }

    /// Interfaces of multi-interface routers, from ground truth (the
    /// prober itself never sees this — the test uses it as the probe
    /// list and the scoring reference).
    fn candidate_ifaces(e: &Engine, n_routers: usize) -> (Vec<Ipv6Addr>, Vec<Vec<Ipv6Addr>>) {
        let truth: Vec<Vec<Ipv6Addr>> = e
            .topology()
            .ground_truth_aliases()
            .into_iter()
            .take(n_routers)
            .collect();
        let ifaces = truth.iter().flatten().copied().collect();
        (ifaces, truth)
    }

    #[test]
    fn fragmented_probe_elicits_counter() {
        let mut e = engine();
        let (ifaces, _) = candidate_ifaces(&e, 3);
        let cfg = AliasConfig::default();
        let src = e.topology().vantages[0].addr;
        let mut now = 0u64;
        let mut probes = 0u64;
        // Two successive samples of the same (responsive) interface are
        // increasing.
        let iface = e
            .topology()
            .routers
            .iter()
            .find(|r| !r.alt_addrs.is_empty() && r.responsive)
            .map(|r| r.addr)
            .expect("responsive aliased router");
        let _ = ifaces;
        let a = sample(&mut e, src, iface, &cfg, &mut now, &mut probes, 1);
        let b = sample(&mut e, src, iface, &cfg, &mut now, &mut probes, 2);
        let (a, b) = (a.expect("first reply"), b.expect("second reply"));
        assert!(b > a, "counter must be monotonic: {a} then {b}");
    }

    #[test]
    fn small_probes_get_plain_replies() {
        let mut e = engine();
        let (ifaces, _) = candidate_ifaces(&e, 1);
        let cfg = AliasConfig {
            probe_size: 64, // below fragmentation threshold
            ..Default::default()
        };
        let src = e.topology().vantages[0].addr;
        let mut now = 0;
        let mut probes = 0;
        assert_eq!(
            sample(&mut e, src, ifaces[0], &cfg, &mut now, &mut probes, 1),
            None,
            "unfragmented reply must not yield an identifier"
        );
    }

    #[test]
    fn resolves_aliases_with_high_precision_and_recall() {
        let mut e = engine();
        let (ifaces, truth) = candidate_ifaces(&e, 40);
        let sets = resolve_aliases(&mut e, 0, &ifaces, &AliasConfig::default(), 0, u64::MAX);
        assert!(!sets.groups.is_empty(), "no alias groups inferred");
        let (precision, recall) = sets.score(&truth);
        assert!(precision > 0.95, "precision {precision}");
        assert!(recall > 0.6, "recall {recall}");
    }

    #[test]
    fn unrelated_interfaces_not_merged() {
        let mut e = engine();
        // Probe one interface from each of many different routers:
        // correct output is no groups at all (or almost none).
        let ifaces: Vec<Ipv6Addr> = e
            .topology()
            .routers
            .iter()
            .filter(|r| r.responsive)
            .map(|r| r.addr)
            .take(60)
            .collect();
        let truth = e.topology().ground_truth_aliases();
        let sets = resolve_aliases(&mut e, 0, &ifaces, &AliasConfig::default(), 0, u64::MAX);
        let (precision, _) = sets.score(&truth);
        assert!(
            precision > 0.9,
            "false merges among unrelated interfaces: precision {precision}"
        );
    }
}
