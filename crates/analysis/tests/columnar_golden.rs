//! Golden equivalence: the columnar pipeline must reproduce the
//! map-based reference bit for bit — on real campaigns across every
//! probe protocol and on adversarial synthetic logs (checksum failures,
//! missing TTLs, duplicate records, out-of-order arrival).

use analysis::{discover_by_path_div, ia_hack, AsnResolver, PathDivParams, TraceSet};
use simnet::config::TopologyConfig;
use simnet::Topology;
use std::net::Ipv6Addr;
use std::sync::Arc;
use testkit::oracle as reference;
use v6packet::icmp6::DestUnreachCode;
use v6packet::probe::Protocol;
use yarrp6::campaign::run_campaign;
use yarrp6::{ProbeLog, ResponseKind, ResponseRecord, YarrpConfig};

/// Asserts the columnar set reproduces the reference set exactly.
fn assert_equivalent(col: &TraceSet, refset: &reference::TraceSet) {
    assert_eq!(col.len(), refset.len(), "trace count");
    assert_eq!(col.rewritten_dropped, refset.rewritten_dropped);
    assert_eq!(&*col.vantage, refset.vantage.as_str());
    assert_eq!(&*col.target_set, refset.target_set.as_str());
    for (view, rt) in col.iter().zip(refset.iter_sorted()) {
        assert_eq!(view.target(), rt.target, "target order");
        assert_eq!(view.reached_at(), rt.reached_at, "reached_at {}", rt.target);
        let ref_hops: Vec<(u8, Ipv6Addr)> = rt.hops.iter().map(|(&t, &a)| (t, a)).collect();
        assert_eq!(
            view.hops().collect::<Vec<_>>(),
            ref_hops,
            "hops {}",
            rt.target
        );
        assert_eq!(
            view.unreachable().collect::<Vec<_>>(),
            rt.unreachable,
            "unreachable {}",
            rt.target
        );
        assert_eq!(view.path_len(), rt.path_len(), "path_len {}", rt.target);
        assert_eq!(view.last_hop(), rt.last_hop(), "last_hop {}", rt.target);
        assert_eq!(view.hop_vec(), rt.hop_vec(), "hop_vec {}", rt.target);
    }
}

fn fixture(seed: u64) -> (Arc<Topology>, Vec<Ipv6Addr>) {
    let topo = Arc::new(simnet::generate::generate(TopologyConfig::tiny(seed)));
    let addrs: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(250).collect();
    (topo, addrs)
}

fn resolver(topo: &Topology) -> AsnResolver {
    AsnResolver::new(
        topo.bgp.clone(),
        topo.rir_extra.clone(),
        &topo.asn_equivalences,
    )
}

#[test]
fn campaigns_match_reference_all_protocols() {
    for (i, proto) in [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp]
        .into_iter()
        .enumerate()
    {
        let (topo, addrs) = fixture(1000 + i as u64);
        let set = targets::TargetSet::new("golden", addrs);
        for vary in [false, true] {
            let cfg = YarrpConfig {
                protocol: proto,
                vary_flow_label: vary,
                ..Default::default()
            };
            let res = run_campaign(&topo, (i % 3) as u8, &set, &cfg);
            let col = TraceSet::from_log(&res.log);
            let refset = reference::TraceSet::from_log(&res.log);
            assert_equivalent(&col, &refset);

            // Subnet inference must agree, gate for gate.
            let r = resolver(&topo);
            let vasn = topo.ases[topo.vantages[i % 3].as_idx as usize].asn;
            for params in [
                PathDivParams::default(),
                PathDivParams {
                    allow_gaps: false,
                    ..Default::default()
                },
                PathDivParams {
                    last_lcs_outside_vantage_as: false,
                    lcs_asn_matches: 0,
                    min_lcs: 1,
                    ..Default::default()
                },
            ] {
                assert_eq!(
                    discover_by_path_div(&col, &r, vasn, &params),
                    reference::discover_by_path_div(&refset, &r, vasn, &params),
                    "path divergence diverged (proto {proto:?}, vary {vary}, {params:?})"
                );
            }
            assert_eq!(
                ia_hack(&col),
                reference::ia_hack(&refset),
                "ia_hack diverged (proto {proto:?}, vary {vary})"
            );
        }
    }
}

#[test]
fn fill_and_neighborhood_campaigns_match_reference() {
    let (topo, addrs) = fixture(77);
    let set = targets::TargetSet::new("golden-fill", addrs);
    let cfgs = [
        YarrpConfig {
            max_ttl: 4,
            fill_mode: true,
            ..Default::default()
        },
        YarrpConfig {
            neighborhood: Some(yarrp6::yarrp::Neighborhood {
                max_ttl: 4,
                window_us: 2_000_000,
            }),
            ..Default::default()
        },
    ];
    for cfg in cfgs {
        let res = run_campaign(&topo, 1, &set, &cfg);
        let col = TraceSet::from_log(&res.log);
        let refset = reference::TraceSet::from_log(&res.log);
        assert_equivalent(&col, &refset);
    }
}

/// Deterministic splitmix64 for the synthetic-log fuzz below.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[test]
fn randomized_synthetic_logs_match_reference() {
    for case in 0..40u64 {
        let mut rng = Rng(0xc01u64 ^ (case << 32));
        let n_targets = 1 + (rng.next() % 40) as u128;
        let n_responders = 1 + (rng.next() % 25) as u128;
        let n_records = (rng.next() % 600) as usize;
        let mut log = ProbeLog {
            vantage: "golden-fuzz".into(),
            target_set: format!("case-{case}").into(),
            ..Default::default()
        };
        for _ in 0..n_records {
            let target =
                Ipv6Addr::from((0x2001_0db8_u128 << 96) | (rng.next() as u128 % n_targets));
            let responder =
                Ipv6Addr::from((0x2001_0db8_ffff_u128 << 80) | (rng.next() as u128 % n_responders));
            let kind = match rng.next() % 8 {
                0..=3 => ResponseKind::TimeExceeded,
                4 => ResponseKind::DestUnreachable(DestUnreachCode::NoRoute),
                5 => ResponseKind::DestUnreachable(DestUnreachCode::PortUnreachable),
                6 => ResponseKind::EchoReply,
                _ => ResponseKind::Tcp,
            };
            // Includes None and the degenerate ttl 0 (representable via
            // CSV import), both of which the reference handles.
            let probe_ttl = match rng.next() % 10 {
                0 => None,
                _ => Some((rng.next() % 20) as u8),
            };
            log.records.push(ResponseRecord {
                target,
                responder,
                kind,
                probe_ttl,
                rtt_us: Some(rng.next() % 10_000),
                recv_us: rng.next() % 1_000_000,
                target_cksum_ok: !rng.next().is_multiple_of(10),
            });
        }
        let col = TraceSet::from_log(&log);
        let refset = reference::TraceSet::from_log(&log);
        assert_equivalent(&col, &refset);
        assert_eq!(ia_hack(&col), reference::ia_hack(&refset), "case {case}");
    }
}

/// The metrics passes were rewritten columnar too; pin them against the
/// original map/set-based derivations, recomputed here from the
/// reference trace set on a real campaign.
#[test]
fn metrics_match_map_based_reference() {
    use analysis::metrics::{discovery_curve, hop_responsiveness, CampaignMetrics};
    use std::collections::BTreeSet;
    use v6addr::iid::{classify, IidClass};

    let (topo, addrs) = fixture(99);
    let set = targets::TargetSet::new("golden-metrics", addrs);
    let log = run_campaign(&topo, 2, &set, &YarrpConfig::default()).log;
    let bgp = &topo.bgp;
    let m = CampaignMetrics::compute(&[&log], bgp);
    let refset = reference::TraceSet::from_log(&log);

    // interface_addrs / prefixes / ASNs — original BTreeSet derivation.
    let ifaces: BTreeSet<Ipv6Addr> = log
        .records
        .iter()
        .filter(|r| r.kind == ResponseKind::TimeExceeded)
        .map(|r| r.responder)
        .collect();
    assert!(log.interface_addrs().iter().eq(&ifaces));
    let mut pfxs = BTreeSet::new();
    let mut asns = BTreeSet::new();
    for &a in &ifaces {
        if let Some((p, asn)) = bgp.lookup(a) {
            pfxs.insert(p);
            asns.insert(asn.0);
        }
    }
    assert_eq!(m.interface_addrs, ifaces.len() as u64);
    assert_eq!(m.int_bgp_prefixes, pfxs.len() as u64);
    assert_eq!(m.int_asns, asns.len() as u64);

    // reach_frac — original per-trace map walk.
    let reached = refset
        .traces
        .values()
        .filter(|t| {
            if t.reached_at.is_some() {
                return true;
            }
            let Some(tasn) = bgp.origin(t.target) else {
                return false;
            };
            t.hops
                .values()
                .chain(t.unreachable.iter().map(|(_, r)| r))
                .any(|&h| bgp.origin(h) == Some(tasn))
        })
        .count();
    assert!((m.reach_frac - reached as f64 / refset.len() as f64).abs() < 1e-12);

    // EUI-64 uniques and offsets — original BTreeSet + per-hop walk.
    let mut eui_addrs: BTreeSet<Ipv6Addr> = BTreeSet::new();
    let mut offsets: Vec<i16> = Vec::new();
    for t in refset.traces.values() {
        let Some(plen) = t.path_len() else { continue };
        for (&ttl, &hop) in &t.hops {
            if classify(hop) == IidClass::Eui64 {
                eui_addrs.insert(hop);
                offsets.push(ttl as i16 - plen as i16);
            }
        }
    }
    offsets.sort_unstable();
    assert_eq!(m.eui64_addrs, eui_addrs.len() as u64);
    if !offsets.is_empty() {
        let idx = |p: f64| ((offsets.len() - 1) as f64 * p).round() as usize;
        assert_eq!(m.eui64_offset_median, offsets[idx(0.5)]);
        assert_eq!(m.eui64_offset_p5, offsets[idx(0.05)]);
    }

    // hop_responsiveness — original per-(target, ttl) set derivation.
    let max_ttl = 16;
    let total = log.traces.max(1) as f64;
    let mut counts = vec![0u64; max_ttl as usize + 1];
    let mut seen: BTreeSet<(Ipv6Addr, u8)> = BTreeSet::new();
    for r in &log.records {
        if r.kind == ResponseKind::TimeExceeded {
            if let Some(ttl) = r.probe_ttl {
                if ttl <= max_ttl && seen.insert((r.target, ttl)) {
                    counts[ttl as usize] += 1;
                }
            }
        }
    }
    let expect: Vec<f64> = (1..=max_ttl as usize)
        .map(|t| counts[t] as f64 / total)
        .collect();
    assert_eq!(hop_responsiveness(&log, max_ttl), expect);

    // discovery_curve — original incremental-set derivation.
    let rate_interval = if log.probes_sent > 0 && log.duration_us > 0 {
        (log.duration_us as f64 / log.probes_sent as f64).max(1.0)
    } else {
        1.0
    };
    let mut sends: Vec<(u64, Ipv6Addr)> = log
        .records
        .iter()
        .filter(|r| r.kind == ResponseKind::TimeExceeded)
        .map(|r| {
            let sent = r.recv_us - r.rtt_us.unwrap_or(0).min(r.recv_us);
            (sent, r.responder)
        })
        .collect();
    sends.sort_unstable();
    let mut seen = BTreeSet::new();
    let mut curve = Vec::new();
    for (sent_us, addr) in sends {
        if seen.insert(addr) {
            let probe_no = (sent_us as f64 / rate_interval) as u64 + 1;
            curve.push((probe_no, seen.len() as u64));
        }
    }
    assert_eq!(discovery_curve(&log), curve);
}

#[test]
fn from_traces_round_trips_reference_traces() {
    let (topo, addrs) = fixture(5);
    let set = targets::TargetSet::new("golden-rt", addrs);
    let res = run_campaign(&topo, 0, &set, &YarrpConfig::default());
    let refset = reference::TraceSet::from_log(&res.log);
    let col = testkit::trace_set(refset.traces.values().cloned());
    for (view, rt) in col.iter().zip(refset.iter_sorted()) {
        assert_eq!(view.target(), rt.target);
        assert_eq!(
            view.hops().collect::<Vec<_>>(),
            rt.hops.iter().map(|(&t, &a)| (t, a)).collect::<Vec<_>>()
        );
        assert_eq!(view.reached_at(), rt.reached_at);
        assert_eq!(view.unreachable().collect::<Vec<_>>(), rt.unreachable);
    }
}
