//! Campaign metrics: the quantities behind Tables 3, 4, 6 and 7 and
//! Figures 5, 6 and 7.
//!
//! All passes are columnar: the log's records are reduced with sorts
//! and merges over flat rows, per-address facts (origin ASN, IID class)
//! are derived once per unique interned address via the trace set's
//! [`crate::intern::AddrInterner`], and no per-record map nodes are
//! allocated.

use crate::traces::TraceSet;
use serde::{Deserialize, Serialize};
use std::net::Ipv6Addr;
use v6addr::iid::{classify, IidClass};
use v6addr::Asn;
use yarrp6::{ProbeLog, ResponseKind};

/// One campaign's Table 7 row (without the cross-campaign exclusives,
/// which need the whole grid).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CampaignMetrics {
    /// Campaign identity.
    pub name: String,
    /// Probes emitted (the paper's "Traces" column counts probes here).
    pub probes: u64,
    /// Unique targets probed.
    pub targets: u64,
    /// Unique Time-Exceeded sources ("Rtr Int Addrs").
    pub interface_addrs: u64,
    /// Distinct BGP prefixes covering discovered interfaces.
    pub int_bgp_prefixes: u64,
    /// Distinct origin ASNs of discovered interfaces.
    pub int_asns: u64,
    /// Fraction of traces that penetrated the target's origin AS: the
    /// destination itself answered, or some responding hop resolves to
    /// the target's ASN (Table 7's "Reach Int Target ASN").
    pub reach_frac: f64,
    /// 95th-percentile path length.
    pub path_len_p95: u8,
    /// Median path length.
    pub path_len_median: u8,
    /// EUI-64 interface addresses discovered.
    pub eui64_addrs: u64,
    /// EUI-64 share of all interface addresses.
    pub eui64_frac: f64,
    /// 5th percentile of EUI-64 path offsets (offset ≤ 0; 0 = last hop).
    pub eui64_offset_p5: i16,
    /// Median EUI-64 path offset.
    pub eui64_offset_median: i16,
}

fn percentile<T: Copy + Ord>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    Some(sorted[idx])
}

impl CampaignMetrics {
    /// Computes the row for one target set from its campaigns' `logs`,
    /// one per vantage (a single campaign is one log), named by the
    /// `+`-joined vantages and the target set.
    ///
    /// Each log is one set of traces: a trace is one path, from one
    /// vantage, so a target probed from several vantages is several
    /// traces, and their paths, of different lengths, never mix. The
    /// per-trace samples (reach, path length, EUI-64 offset) pool over
    /// every log's traces; the address counts (interfaces, their
    /// prefixes and ASNs, EUI-64 interfaces) are over the union of the
    /// logs' addresses.
    pub fn compute(logs: &[&ProbeLog], bgp: &v6addr::BgpTable) -> CampaignMetrics {
        let mut ifaces: Vec<Ipv6Addr> = logs.iter().flat_map(|l| l.interface_addrs()).collect();
        ifaces.sort_unstable();
        ifaces.dedup();

        let mut pfxs: Vec<v6addr::Ipv6Prefix> = Vec::new();
        let mut asns: Vec<u32> = Vec::new();
        for &a in &ifaces {
            if let Some((p, asn)) = bgp.lookup(a) {
                pfxs.push(p);
                asns.push(asn.0);
            }
        }
        pfxs.sort_unstable_by_key(|p| (p.base_word(), p.len()));
        pfxs.dedup();
        asns.sort_unstable();
        asns.dedup();

        let (mut traces, mut reached) = (0usize, 0usize);
        let mut path_lens: Vec<u8> = Vec::new();
        let mut eui_words: Vec<u128> = Vec::new();
        let mut offsets: Vec<i16> = Vec::new();
        for log in logs {
            let ts = TraceSet::from_log(log);
            traces += ts.len();
            // Per-unique-address facts, once per interned id.
            let id_origin: Vec<Option<Asn>> = ts.interner().map_ids(|a| bgp.origin(a));
            let id_eui64: Vec<bool> = ts.interner().map_ids(|a| classify(a) == IidClass::Eui64);

            path_lens.extend(ts.iter().filter_map(|t| t.path_len()));

            reached += ts
                .iter()
                .filter(|t| {
                    if t.reached_at().is_some() {
                        return true;
                    }
                    let Some(tasn) = bgp.origin(t.target()) else {
                        return false;
                    };
                    let hops = t.hop_cells().deepest_first().map(|(_, id)| id);
                    hops.chain(t.unreachable_cells().ids().iter().copied())
                        .any(|id| id_origin[id as usize] == Some(tasn))
                })
                .count();

            // EUI-64 interfaces and their path offsets. Offset is
            // relative to the trace's path length: 0 means last hop on
            // path. Uniqueness within a log is tracked per interned id,
            // not by re-hashing addresses.
            let mut eui_seen = vec![false; ts.interner().len()];
            for t in ts.iter() {
                let Some(plen) = t.path_len() else { continue };
                // Both lists are sorted below: the walk from the leaf.
                for (ttl, id) in t.hop_cells().deepest_first() {
                    if id_eui64[id as usize] {
                        if !eui_seen[id as usize] {
                            eui_seen[id as usize] = true;
                            eui_words.push(ts.interner().resolve_word(id));
                        }
                        offsets.push(ttl as i16 - plen as i16);
                    }
                }
            }
        }
        path_lens.sort_unstable();
        offsets.sort_unstable();
        // An EUI-64 interface two vantages crossed counts once.
        eui_words.sort_unstable();
        eui_words.dedup();
        let eui_count = eui_words.len() as u64;

        let vantages: Vec<&str> = logs.iter().map(|l| &*l.vantage).collect();
        let target_set = logs.first().map_or("", |l| &*l.target_set);
        CampaignMetrics {
            name: format!("{} {target_set}", vantages.join("+")),
            probes: logs.iter().map(|l| l.probes_sent).sum(),
            targets: logs.iter().map(|l| l.traces).sum(),
            interface_addrs: ifaces.len() as u64,
            int_bgp_prefixes: pfxs.len() as u64,
            int_asns: asns.len() as u64,
            reach_frac: if traces == 0 {
                0.0
            } else {
                reached as f64 / traces as f64
            },
            path_len_p95: percentile(&path_lens, 0.95).unwrap_or(0),
            path_len_median: percentile(&path_lens, 0.5).unwrap_or(0),
            eui64_addrs: eui_count,
            eui64_frac: if ifaces.is_empty() {
                0.0
            } else {
                eui_count as f64 / ifaces.len() as f64
            },
            eui64_offset_p5: percentile(&offsets, 0.05).unwrap_or(0),
            eui64_offset_median: percentile(&offsets, 0.5).unwrap_or(0),
        }
    }
}

/// Per-hop responsiveness (Figure 5): for each TTL, the fraction of
/// traces that received a Time-Exceeded from that hop. One flat
/// `(target, ttl)` sort replaces the per-record set probe.
pub fn hop_responsiveness(log: &ProbeLog, max_ttl: u8) -> Vec<f64> {
    let total = log.traces.max(1) as f64;
    let mut rows: Vec<(u128, u8)> = log
        .records
        .iter()
        .filter(|r| r.kind == ResponseKind::TimeExceeded)
        .filter_map(|r| {
            r.probe_ttl
                .filter(|&t| t <= max_ttl)
                .map(|t| (u128::from(r.target), t))
        })
        .collect();
    rows.sort_unstable();
    rows.dedup();
    let mut counts = vec![0u64; max_ttl as usize + 1];
    for &(_, ttl) in &rows {
        counts[ttl as usize] += 1;
    }
    (1..=max_ttl as usize)
        .map(|t| counts[t] as f64 / total)
        .collect()
}

/// Discovery curve (Figure 7): cumulative unique interface addresses as
/// a function of probes emitted. Probe position is recovered from the
/// response's send timestamp and the campaign rate (stateless probers
/// do not number their probes). Two sorts — first-sighting per address,
/// then time order — replace the incremental set.
pub fn discovery_curve(log: &ProbeLog) -> Vec<(u64, u64)> {
    let rate_interval = if log.probes_sent > 0 && log.duration_us > 0 {
        (log.duration_us as f64 / log.probes_sent as f64).max(1.0)
    } else {
        1.0
    };
    // (addr, send time): sorted, the first row per address is its
    // earliest sighting.
    let mut rows: Vec<(u128, u64)> = log
        .records
        .iter()
        .filter(|r| r.kind == ResponseKind::TimeExceeded)
        .map(|r| {
            let sent = r.recv_us - r.rtt_us.unwrap_or(0).min(r.recv_us);
            (u128::from(r.responder), sent)
        })
        .collect();
    rows.sort_unstable();
    rows.dedup_by(|b, a| b.0 == a.0);
    // Re-order first sightings by send time (ties by address, matching
    // the reference's (sent, addr) iteration order).
    let mut firsts: Vec<(u64, u128)> = rows.into_iter().map(|(a, s)| (s, a)).collect();
    firsts.sort_unstable();
    firsts
        .into_iter()
        .enumerate()
        .map(|(i, (sent_us, _))| {
            let probe_no = (sent_us as f64 / rate_interval) as u64 + 1;
            (probe_no, i as u64 + 1)
        })
        .collect()
}

/// Counts, for each sorted per-campaign list, how many of its elements
/// appear in no other campaign's list.
fn exclusive_counts<T: Copy + Ord>(per_log: &[Vec<T>]) -> Vec<u64> {
    let mut all: Vec<T> = per_log.iter().flatten().copied().collect();
    all.sort_unstable();
    // An element kept by exactly one campaign appears exactly once in
    // the concatenation (per-campaign lists are deduplicated).
    let mut unique: Vec<T> = Vec::new();
    let mut i = 0;
    while i < all.len() {
        let mut j = i + 1;
        while j < all.len() && all[j] == all[i] {
            j += 1;
        }
        if j - i == 1 {
            unique.push(all[i]);
        }
        i = j;
    }
    per_log
        .iter()
        .map(|v| v.iter().filter(|x| unique.binary_search(x).is_ok()).count() as u64)
        .collect()
}

/// One vantage's share of a multi-vantage sweep — the quantities
/// behind the paper's vantage tables (each vantage's discoveries, how
/// much only it saw, and how much of the union it covers).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct VantageContribution {
    /// Vantage name (from the set's campaign identity).
    pub vantage: String,
    /// Unique interface addresses this vantage discovered.
    pub interfaces: u64,
    /// Interfaces *no other* vantage in the sweep discovered.
    pub exclusive: u64,
    /// `interfaces / union` — this vantage's coverage of the sweep's
    /// combined discovery (1.0 means it alone saw everything).
    pub union_share: f64,
}

/// Sorted unique interface words per set — the shared basis of the
/// vantage statistics. Borrows the sets (no columnar clones at call
/// sites) and accepts any iterable of references, matching
/// [`TraceSet::merge_all`]'s shape.
fn interface_words_per<'a>(sets: impl IntoIterator<Item = &'a TraceSet>) -> Vec<Vec<u128>> {
    sets.into_iter().map(|s| s.interface_words()).collect()
}

/// Unique interfaces across the union of all sets' discoveries.
fn union_count(per: &[Vec<u128>]) -> u64 {
    let mut all: Vec<u128> = per.iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    all.len() as u64
}

/// Unique interface addresses discovered by the union of the given
/// per-vantage sets (sorted-merge over their interface columns).
pub fn vantage_union_count<'a>(sets: impl IntoIterator<Item = &'a TraceSet>) -> u64 {
    union_count(&interface_words_per(sets))
}

/// Per-vantage contribution rows for a multi-vantage sweep: unique and
/// exclusive interface counts plus each vantage's share of the union.
/// Pass the *per-vantage* sets (e.g. the traces of
/// [`crate::runner::CampaignOutcome::runs`]) — the merged union set
/// cannot attribute discoveries back to vantages.
pub fn vantage_contributions<'a>(
    sets: impl IntoIterator<Item = &'a TraceSet> + Clone,
) -> Vec<VantageContribution> {
    let per = interface_words_per(sets.clone());
    let union = union_count(&per).max(1) as f64;
    let excl = exclusive_counts(&per);
    sets.into_iter()
        .zip(&per)
        .zip(&excl)
        .map(|((s, words), &exclusive)| VantageContribution {
            vantage: s.vantage.to_string(),
            interfaces: words.len() as u64,
            exclusive,
            union_share: words.len() as f64 / union,
        })
        .collect()
}

/// Pairwise Jaccard similarity of the vantages' interface sets:
/// `out[i][j] = |Ai ∩ Aj| / |Ai ∪ Aj|` (1.0 on the diagonal and for
/// two empty sets). Low off-diagonal values are the paper's argument
/// for vantage diversity — the vantages see substantially different
/// slices of the topology.
pub fn vantage_jaccard<'a>(sets: impl IntoIterator<Item = &'a TraceSet>) -> Vec<Vec<f64>> {
    let per = interface_words_per(sets);
    let n = per.len();
    let mut out = vec![vec![1.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            // Sorted-merge intersection count.
            let (a, b) = (&per[i], &per[j]);
            let (mut x, mut y, mut inter) = (0usize, 0usize, 0usize);
            while x < a.len() && y < b.len() {
                match a[x].cmp(&b[y]) {
                    std::cmp::Ordering::Less => x += 1,
                    std::cmp::Ordering::Greater => y += 1,
                    std::cmp::Ordering::Equal => {
                        inter += 1;
                        x += 1;
                        y += 1;
                    }
                }
            }
            let union = a.len() + b.len() - inter;
            let jac = if union == 0 {
                1.0
            } else {
                inter as f64 / union as f64
            };
            out[i][j] = jac;
            out[j][i] = jac;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use yarrp6::ResponseRecord;

    fn rec(
        target: &str,
        responder: &str,
        kind: ResponseKind,
        ttl: u8,
        recv: u64,
    ) -> ResponseRecord {
        ResponseRecord {
            target: target.parse().unwrap(),
            responder: responder.parse().unwrap(),
            kind,
            probe_ttl: Some(ttl),
            rtt_us: Some(10),
            recv_us: recv,
            target_cksum_ok: true,
        }
    }

    fn sample_log() -> ProbeLog {
        let mut log = ProbeLog {
            vantage: "V".into(),
            target_set: "S".into(),
            probes_sent: 100,
            traces: 2,
            duration_us: 100_000,
            ..Default::default()
        };
        log.records.push(rec(
            "2001:db8::1",
            "2001:db8:f::1",
            ResponseKind::TimeExceeded,
            1,
            20,
        ));
        log.records.push(rec(
            "2001:db8::1",
            "2001:db8:f::2",
            ResponseKind::TimeExceeded,
            2,
            30,
        ));
        log.records.push(rec(
            "2001:db8::1",
            "2001:db8:f:0:0211:22ff:fe33:4455",
            ResponseKind::TimeExceeded,
            3,
            40,
        ));
        log.records.push(rec(
            "2001:db8::1",
            "2001:db8::1",
            ResponseKind::EchoReply,
            4,
            50,
        ));
        log.records.push(rec(
            "2001:db8::2",
            "2001:db8:f::1",
            ResponseKind::TimeExceeded,
            1,
            60,
        ));
        log
    }

    fn bgp() -> v6addr::BgpTable {
        let mut b = v6addr::BgpTable::new();
        b.announce("2001:db8::/32".parse().unwrap(), v6addr::Asn(1));
        b
    }

    #[test]
    fn metrics_row() {
        let m = CampaignMetrics::compute(&[&sample_log()], &bgp());
        assert_eq!(m.interface_addrs, 3);
        assert_eq!(m.int_bgp_prefixes, 1);
        assert_eq!(m.int_asns, 1);
        // Trace 1 reached its destination; trace 2's hop resolves to the
        // target's own AS — both count as reaching the target ASN.
        assert_eq!(m.reach_frac, 1.0);
        assert_eq!(m.eui64_addrs, 1);
        // EUI-64 hop at ttl 3, path len 4 → offset -1.
        assert_eq!(m.eui64_offset_median, -1);
        // Path lengths are [1, 4]; the median index rounds up to 4.
        assert_eq!(m.path_len_median, 4);
    }

    #[test]
    fn vantages_pool_their_traces_and_never_mix_paths() {
        // Two vantages trace one target: one crosses an EUI-64 interface
        // at hop 3 of 4, the other crosses the same interface at hop 5
        // of 6. As one log the target's trace would hold both hops
        // against the shorter path (offsets -1 and +1).
        let eui = "2001:db8:f:0:0211:22ff:fe33:4455";
        let log = |vantage: &str, hop: u8| {
            let mut log = ProbeLog {
                vantage: vantage.into(),
                target_set: "S".into(),
                probes_sent: 10,
                traces: 1,
                ..Default::default()
            };
            log.records.extend([
                rec(
                    "2001:db8::1",
                    "2001:db8:a::1",
                    ResponseKind::TimeExceeded,
                    1,
                    10,
                ),
                rec("2001:db8::1", eui, ResponseKind::TimeExceeded, hop, 20),
                rec(
                    "2001:db8::1",
                    "2001:db8::1",
                    ResponseKind::EchoReply,
                    hop + 1,
                    30,
                ),
            ]);
            log
        };
        let (a, b) = (log("A", 3), log("B", 5));
        let m = CampaignMetrics::compute(&[&a, &b], &bgp());
        assert_eq!(m.name, "A+B S");
        assert_eq!((m.probes, m.targets), (20, 2));
        // Two traces, one per vantage, at their own lengths.
        assert_eq!(m.reach_frac, 1.0);
        assert_eq!((m.path_len_median, m.path_len_p95), (6, 6));
        // Both crossings sit one hop before the end; the interface is
        // one address.
        assert_eq!((m.eui64_offset_p5, m.eui64_offset_median), (-1, -1));
        assert_eq!((m.eui64_addrs, m.interface_addrs), (1, 2));
        assert_eq!(m.eui64_frac, 0.5);
        // One vantage alone is that vantage's campaign.
        let solo = CampaignMetrics::compute(&[&a], &bgp());
        assert_eq!((solo.name.as_str(), solo.path_len_median), ("A S", 4));
    }

    #[test]
    fn responsiveness_counts_per_trace() {
        let r = hop_responsiveness(&sample_log(), 4);
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], 1.0); // both traces saw hop 1
        assert_eq!(r[1], 0.5);
    }

    #[test]
    fn curve_is_monotonic() {
        let c = discovery_curve(&sample_log());
        assert_eq!(c.len(), 3); // 3 unique interfaces
        for w in c.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert_eq!(w[1].1, w[0].1 + 1);
        }
    }

    /// A campaign that runs past 2³² µs of virtual time (71.6 minutes;
    /// here at one probe a second, so 4 295 probes in): probes carry
    /// only the low 32 bits of their send time, and an interface first
    /// seen after the wrap must still be dated after it.
    #[test]
    fn curve_keeps_counting_probes_past_the_32_bit_send_clock() {
        use simnet::{config::TopologyConfig, generate::generate, Engine};
        let topo = std::sync::Arc::new(generate(TopologyConfig::tiny(42)));
        let targets: Vec<_> = topo.hosts().map(|(a, _)| a).take(320).collect();
        let cfg = yarrp6::YarrpConfig {
            rate_pps: 1,
            fill_mode: false,
            ..Default::default()
        };
        let log = yarrp6::yarrp::run(&mut Engine::new(topo), 0, &targets, &cfg);
        assert!(log.duration_us > 1 << 32);
        // Round trips are far under the second between probes, so in
        // the receive-ordered log a response to probe n arrives during
        // second n - 1.
        let mut seen = std::collections::HashSet::new();
        let expected: Vec<(u64, u64)> = log
            .records
            .iter()
            .filter(|r| r.kind == ResponseKind::TimeExceeded && seen.insert(r.responder))
            .enumerate()
            .map(|(i, r)| (r.recv_us / 1_000_000 + 1, i as u64 + 1))
            .collect();
        let after_wrap = expected.iter().filter(|c| c.0 > (1 << 32) / 1_000_000);
        assert!(after_wrap.count() > 0, "nothing first seen after the wrap");
        assert_eq!(discovery_curve(&log), expected);
    }

    fn vantage_set(vantage: &str, hops: &[(&str, &str, u8)]) -> TraceSet {
        let mut log = ProbeLog {
            vantage: vantage.into(),
            target_set: "vset".into(),
            ..Default::default()
        };
        for (i, &(tgt, responder, ttl)) in hops.iter().enumerate() {
            log.records.push(rec(
                tgt,
                responder,
                ResponseKind::TimeExceeded,
                ttl,
                i as u64,
            ));
        }
        TraceSet::from_log(&log)
    }

    #[test]
    fn vantage_contribution_rows() {
        // A sees {a, b}; B sees {b, c}; C sees {b}.
        let sets = [
            vantage_set("A", &[("2001:db8::1", "::a", 1), ("2001:db8::1", "::b", 2)]),
            vantage_set("B", &[("2001:db8::2", "::b", 1), ("2001:db8::2", "::c", 2)]),
            vantage_set("C", &[("2001:db8::3", "::b", 1)]),
        ];
        assert_eq!(vantage_union_count(&sets), 3);
        let rows = vantage_contributions(&sets);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].vantage, "A");
        assert_eq!(
            rows.iter().map(|r| r.interfaces).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        assert_eq!(
            rows.iter().map(|r| r.exclusive).collect::<Vec<_>>(),
            vec![1, 1, 0]
        );
        assert!((rows[0].union_share - 2.0 / 3.0).abs() < 1e-9);

        let jac = vantage_jaccard(&sets);
        assert_eq!(jac[0][0], 1.0);
        // A∩B = {b}, A∪B = {a,b,c}.
        assert!((jac[0][1] - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(jac[0][1], jac[1][0]);
        // B∩C = {b}, B∪C = {b,c}.
        assert!((jac[1][2] - 0.5).abs() < 1e-9);
    }
}
