//! Property tests for the simulator: the engine must be total (no panic
//! on any input bytes), conservative (stats account for every probe),
//! and deterministic — and neither showing it probes ahead of time
//! ([`Engine::warm`]) nor handing it flows with them
//! ([`Engine::inject_flow`]) may change anything it does or reports.

use proptest::prelude::*;
use simnet::config::TopologyConfig;
use simnet::generate::generate;
use simnet::Engine;
use std::sync::Arc;
use v6packet::probe::{ProbeSpec, Protocol};
use v6packet::{proto_num, Ipv6Header};

fn topo() -> Arc<simnet::Topology> {
    // One shared topology: generation is deterministic, and the tests
    // only need a fixed world.
    Arc::new(generate(TopologyConfig::tiny(7)))
}

/// An echo request big enough that a router answers it in fragments,
/// which puts its fragment counter on the wire.
fn big_echo(src: std::net::Ipv6Addr, dst: std::net::Ipv6Addr) -> Vec<u8> {
    let mut icmp = vec![0u8; 8 + 1200];
    icmp[0] = 128;
    let hdr = Ipv6Header {
        traffic_class: 0,
        flow_label: 0,
        payload_len: icmp.len() as u16,
        next_header: proto_num::ICMP6,
        hop_limit: 64,
        src,
        dst,
    };
    let mut wire = hdr.encode().to_vec();
    wire.append(&mut icmp);
    wire
}

/// What the properties below show an engine: per `(kind, pick, ttl,
/// junk)` draw, a wire and a hop limit. The wire is junk, or a probe —
/// perfectly good, truncated, of another IP version, from no known
/// vantage, or of an unknown protocol.
fn wires(
    topo: &simnet::Topology,
    hosts: &[std::net::Ipv6Addr],
    shown: Vec<(u8, u128, u8, Vec<u8>)>,
    t0: u64,
) -> Vec<(Vec<u8>, u8)> {
    shown
        .into_iter()
        .map(|(kind, pick, ttl, junk)| {
            // Half the hop limits expire in transit, half anywhere.
            let ttl = if pick & 2 == 0 { ttl % 16 } else { ttl };
            // Half the destinations are real hosts, half anything.
            let target = if pick & 1 == 0 {
                hosts[(pick >> 1) as usize % hosts.len()]
            } else {
                std::net::Ipv6Addr::from(pick)
            };
            let mut wire = ProbeSpec {
                src: topo.vantages[(pick >> 8) as usize % 3].addr,
                target,
                protocol: [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp]
                    [(pick >> 16) as usize % 3],
                ttl: 1 + ttl % 40,
                instance: 1,
                elapsed_us: t0 as u32,
            }
            .build();
            match kind {
                0 => wire = junk,
                1 => {}
                2 => wire.truncate((pick >> 24) as usize % wire.len()),
                3 => wire[0] ^= 0x20, // version 4
                4 => wire[8] ^= 0xff, // a source no vantage has
                _ => wire[6] = 99,    // a next header nobody routes
            }
            (wire, ttl)
        })
        .collect()
}

/// What one injection did, comparably.
fn outcome(e: &mut Engine, wire: &[u8], t: u64) -> Option<(u64, Vec<u8>)> {
    e.inject(wire, t).map(|d| (d.at_us, d.bytes))
}

/// [`outcome`] of an injection that brings a flow along.
fn outcome_with(e: &mut Engine, flow: simnet::Flow, wire: &[u8], t: u64) -> Option<(u64, Vec<u8>)> {
    let mut d = simnet::Delivery::default();
    e.inject_flow(flow, wire, t, &mut d)
        .then_some((d.at_us, d.bytes))
}

proptest! {
    /// Looking ahead is side-effect free. Whatever the engine is shown
    /// — junk, and probes truncated, of another IP version, from no
    /// known vantage, of an unknown protocol, or perfectly good, each
    /// with any hop limit — it does not panic, counts nothing, spends
    /// no token and no fragment identifier, and everything injected
    /// afterwards comes out as from an engine that was shown nothing.
    #[test]
    fn lookahead_has_no_observable_effect(
        shown in prop::collection::vec(
            (0u8..6, any::<u128>(), any::<u8>(), prop::collection::vec(any::<u8>(), 0..120)),
            0..48,
        ),
        // Under the 6.7 ms a default bucket takes to earn a token
        // back, so a token the lookahead spent would still be missing.
        t0 in 0u64..5_000,
    ) {
        let topo = topo();
        let hosts: Vec<std::net::Ipv6Addr> = topo.hosts().map(|(a, _)| a).collect();
        let wires = wires(&topo, &hosts, shown, t0);

        // Some shared history first, so buckets are part-drained and a
        // fragment counter has moved.
        let src = topo.vantages[0].addr;
        let te_probe = ProbeSpec {
            src,
            target: hosts[0],
            protocol: Protocol::Icmp6,
            ttl: 1,
            instance: 1,
            elapsed_us: 0,
        }
        .build();
        let frag_probe = big_echo(src, topo.routers[topo.vantages[0].onprem[0].0 as usize].addr);
        let (mut ahead, mut plain) = (Engine::new(topo.clone()), Engine::new(topo.clone()));
        for e in [&mut ahead, &mut plain] {
            for i in 0..8 {
                e.inject(&te_probe, i);
            }
            e.inject(&frag_probe, 10);
        }
        prop_assert_eq!(ahead.stats.frag_echo_replies, 1);

        let flows: Vec<_> = wires
            .iter()
            .filter_map(|(w, ttl)| Some((ahead.open_flow(w)?, *ttl)))
            .collect();
        ahead.warm(flows.iter().copied());
        prop_assert_eq!(ahead.stats, plain.stats);
        prop_assert_eq!(ahead.bucket_suppressed_by_class(), plain.bucket_suppressed_by_class());

        // The next injections agree: a token spent, a fragment
        // identifier spent, then everything that was shown, in order,
        // with the hop limit it was shown with — each as a burst deep
        // enough to drain its responder's bucket, so a single token
        // missing anywhere the lookahead went would show.
        let t = 20 + t0;
        prop_assert_eq!(outcome(&mut ahead, &te_probe, t), outcome(&mut plain, &te_probe, t));
        prop_assert_eq!(outcome(&mut ahead, &frag_probe, t), outcome(&mut plain, &frag_probe, t));
        for (i, (w, ttl)) in wires.iter().enumerate() {
            let mut w = w.clone();
            if let Some(hop_limit) = w.get_mut(7) {
                *hop_limit = *ttl;
            }
            for _ in 0..64 {
                prop_assert_eq!(outcome(&mut ahead, &w, t), outcome(&mut plain, &w, t), "shown probe {}", i);
            }
        }
        prop_assert_eq!(ahead.stats, plain.stats);
        prop_assert_eq!(ahead.bucket_suppressed_by_class(), plain.bucket_suppressed_by_class());
    }

    /// A flow is only a hint. Whatever bytes are injected, with
    /// whatever hop limit, and whichever flow comes with them — the
    /// wire's own, another probe's, one of a different engine, none of
    /// these after a `reset()` — the engine delivers, counts and spends
    /// tokens exactly as its twin that is given the bytes alone.
    #[test]
    fn a_flow_never_changes_a_result(
        shown in prop::collection::vec(
            (0u8..6, any::<u128>(), any::<u8>(), prop::collection::vec(any::<u8>(), 0..120)),
            1..48,
        ),
        t0 in 0u64..5_000,
    ) {
        let topo = topo();
        let hosts: Vec<std::net::Ipv6Addr> = topo.hosts().map(|(a, _)| a).collect();
        let picks: Vec<u128> = shown.iter().map(|s| s.1).collect();
        let wires: Vec<Vec<u8>> = wires(&topo, &hosts, shown, t0)
            .into_iter()
            .map(|(mut w, ttl)| {
                if let Some(hop_limit) = w.get_mut(7) {
                    *hop_limit = ttl;
                }
                w
            })
            .collect();
        let (mut flowed, mut keyed) = (Engine::new(topo.clone()), Engine::new(topo.clone()));
        // Another engine's flows: the same wires opened in another
        // order, after some of its own, so positions disagree.
        let mut other = Engine::new(topo.clone());
        let spare_wire = ProbeSpec {
            src: topo.vantages[0].addr,
            target: hosts[0],
            protocol: Protocol::Icmp6,
            ttl: 1,
            instance: 1,
            elapsed_us: 0,
        }
        .build();
        let foreign_spare = other.open_flow(&spare_wire).expect("a good probe");
        let foreign: Vec<Option<simnet::Flow>> = {
            let mut f: Vec<_> = wires.iter().rev().map(|w| other.open_flow(w)).collect();
            f.reverse();
            f
        };
        let own_spare = flowed.open_flow(&spare_wire).expect("a good probe");
        let own: Vec<Option<simnet::Flow>> = wires.iter().map(|w| flowed.open_flow(w)).collect();
        prop_assert_eq!(flowed.stats, keyed.stats);

        for round in 0..2 {
            for (i, w) in wires.iter().enumerate() {
                let flow = match (picks[i] >> 40) % 3 {
                    // Its own, if it has one: else anyone's.
                    0 => own[i].unwrap_or(own_spare),
                    // Another probe's.
                    1 => own[(i + 1) % own.len()].unwrap_or(own_spare),
                    // Another engine's.
                    _ => foreign[i].unwrap_or(foreign_spare),
                };
                // A burst deep enough to drain the responder's bucket.
                let t = 20 + t0 + round;
                for _ in 0..64 {
                    prop_assert_eq!(
                        outcome_with(&mut flowed, flow, w, t),
                        outcome(&mut keyed, w, t),
                        "probe {} round {}", i, round
                    );
                }
            }
            prop_assert_eq!(flowed.stats, keyed.stats);
            prop_assert_eq!(flowed.stats.check(), Ok(()));
            prop_assert_eq!(flowed.bucket_suppressed_by_class(), keyed.bucket_suppressed_by_class());
            // Second round: the same flows, after a reset.
            flowed.reset();
            keyed.reset();
        }
    }

    /// What `route::resolve` remembers between calls — where its BGP,
    /// subnet-plan and host lookups last ended — is a head start, not
    /// an input: one scratch reused over a run of destinations, in
    /// address order or any other, resolves each exactly as a scratch
    /// that has never seen a destination does.
    #[test]
    fn a_reused_scratch_resolves_like_a_fresh_one(
        dsts in prop::collection::vec((0u8..4, any::<u128>(), 0u32..=128), 1..120),
        sorted: bool,
        vantage in 0usize..3,
        flow_hash: u64,
    ) {
        use simnet::route::{resolve, ResolveScratch};
        let topo = topo();
        let hosts = &topo.host_words;
        let ifaces: Vec<std::net::Ipv6Addr> = topo.router_addrs().collect();
        // Hosts, addresses near hosts (same LAN, same plan branch, same
        // AS), router interfaces, and anything at all.
        let mut dsts: Vec<u128> = dsts
            .into_iter()
            .map(|(kind, pick, keep)| match kind {
                0 => hosts[pick as usize % hosts.len()],
                1 => hosts[pick as usize % hosts.len()] ^ (pick >> 64).checked_shr(keep).unwrap_or(0),
                2 => ifaces[pick as usize % ifaces.len()].into(),
                _ => pick,
            })
            .collect();
        if sorted {
            dsts.sort_unstable();
        }
        let v = &topo.vantages[vantage];
        let mut reused = ResolveScratch::default();
        let mut arena = Vec::new();
        for dst in dsts {
            let dst = std::net::Ipv6Addr::from(dst);
            let got = resolve(&topo, v, dst, flow_hash, &mut reused, &mut arena);
            let mut fresh_arena = Vec::new();
            let want = resolve(&topo, v, dst, flow_hash, &mut ResolveScratch::default(), &mut fresh_arena);
            prop_assert_eq!(got.hops(&arena), want.hops(&fresh_arena), "hops to {}", dst);
            prop_assert_eq!(
                (got.firewall_hop, got.dest, got.dst_router),
                (want.firewall_hop, want.dest, want.dst_router),
                "end of the path to {}", dst
            );
        }
    }

    /// Arbitrary bytes never panic the engine and never produce a
    /// response (garbage is not a probe).
    #[test]
    fn garbage_in_nothing_out(bytes in prop::collection::vec(any::<u8>(), 0..200), t: u32) {
        let mut e = Engine::new(topo());
        let out = e.inject(&bytes, t as u64);
        // A response requires a valid vantage source address; random
        // bytes essentially cannot contain one.
        prop_assert!(out.is_none());
        prop_assert_eq!(e.stats.probes, 1);
    }

    /// A well-formed probe whose hop limit is 0 cannot leave its
    /// sender: whatever the protocol and destination, no panic, no
    /// response, and the probe is accounted as malformed.
    #[test]
    fn hop_limit_zero_is_malformed(dst: u128, real_host: bool, vantage in 0usize..3, t: u32) {
        let topo = topo();
        let target = if real_host {
            let hosts: Vec<std::net::Ipv6Addr> = topo.hosts().map(|(a, _)| a).collect();
            hosts[dst as usize % hosts.len()]
        } else {
            std::net::Ipv6Addr::from(dst)
        };
        for protocol in [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp] {
            let mut wire = ProbeSpec {
                src: topo.vantages[vantage].addr,
                target,
                protocol,
                ttl: 1,
                instance: 1,
                elapsed_us: t,
            }
            .build();
            wire[7] = 0;
            let mut e = Engine::new(topo.clone());
            prop_assert!(e.inject(&wire, t as u64).is_none(), "{:?}", protocol);
            prop_assert_eq!((e.stats.probes, e.stats.malformed), (1, 1), "{:?}", protocol);
        }
    }

    /// Well-formed probes to arbitrary destinations never panic, and
    /// every probe lands in exactly one accounting bucket.
    #[test]
    fn probes_always_accounted(
        dst: u128,
        ttl in 1u8..=64,
        proto in 0usize..3,
        vantage in 0u8..3,
        t in 0u64..10_000_000,
    ) {
        let topo = topo();
        let mut e = Engine::new(topo.clone());
        let spec = ProbeSpec {
            src: topo.vantages[vantage as usize].addr,
            target: std::net::Ipv6Addr::from(dst),
            protocol: [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp][proto],
            ttl,
            instance: 1,
            elapsed_us: t as u32,
        };
        let delivery = e.inject(&spec.build(), t);
        let s = e.stats;
        prop_assert_eq!(s.probes, 1);
        prop_assert_eq!(s.check(), Ok(()));
        prop_assert_eq!(delivery.is_some(), s.responses() == 1, "stats: {:?}", s);
        // Responses arrive strictly after sending.
        if let Some(d) = delivery {
            prop_assert!(d.at_us > t);
            // And they parse as one of the modeled packet types.
            let parses = v6packet::icmp6::parse(&d.bytes).is_some()
                || v6packet::tcp::parse(&d.bytes).is_some()
                || v6packet::frag::parse_fragmented_echo_reply(&d.bytes).is_some();
            prop_assert!(parses, "unparseable response");
        }
    }

    /// The engine is a deterministic function of (probe, time) from a
    /// fresh state.
    #[test]
    fn injection_deterministic(dst: u128, ttl in 1u8..=32, t in 0u64..1_000_000) {
        let topo = topo();
        let spec = ProbeSpec {
            src: topo.vantages[0].addr,
            target: std::net::Ipv6Addr::from(dst),
            protocol: Protocol::Icmp6,
            ttl,
            instance: 1,
            elapsed_us: t as u32,
        };
        let wire = spec.build();
        let mut e1 = Engine::new(topo.clone());
        let mut e2 = Engine::new(topo.clone());
        let a = e1.inject(&wire, t);
        let b = e2.inject(&wire, t);
        match (a, b) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                prop_assert_eq!(x.at_us, y.at_us);
                prop_assert_eq!(x.bytes, y.bytes);
            }
            _ => prop_assert!(false, "nondeterministic delivery"),
        }
    }
}

/// Conservation at scale, where the rare paths (firewall replies,
/// unresponsive destination-zone responders, drained buckets of both
/// classes) all occur: every host and an off-host neighbour of it, at
/// every TTL, in each protocol. Each probe is in exactly one bucket,
/// the limiter classes sum to `rate_limited`, and the engine reports
/// as many responses as it delivered.
#[test]
fn every_probe_lands_in_exactly_one_bucket() {
    for cfg in [
        TopologyConfig::tiny(42),
        TopologyConfig::small(42),
        TopologyConfig::tiled(42, 2),
    ] {
        let topo = Arc::new(generate(cfg));
        let src = topo.vantages[0].addr;
        for protocol in [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp] {
            let mut e = Engine::new(topo.clone());
            let mut out = simnet::Delivery::default();
            let (mut t, mut delivered) = (0u64, 0u64);
            for (host, _) in topo.hosts().take(3_000) {
                let neighbour = std::net::Ipv6Addr::from(u128::from(host) ^ 0x5a5a);
                for target in [host, neighbour] {
                    for ttl in 1..=24u8 {
                        let spec = ProbeSpec {
                            src,
                            target,
                            protocol,
                            ttl,
                            instance: 1,
                            elapsed_us: t as u32,
                        };
                        delivered += e.inject_into(&spec.build(), t, &mut out) as u64;
                        t += 100;
                    }
                }
            }
            let s = e.stats;
            assert_eq!(s.check(), Ok(()), "{protocol:?}");
            assert_eq!(s.responses(), delivered, "{protocol:?}: {s:?}");
            assert_eq!(
                s.rl_dropped_by_class(),
                e.bucket_suppressed_by_class(),
                "{protocol:?}"
            );
            assert!(s.rate_limited > 0 && s.silent_router > 0 && s.dest_silent > 0);
        }
    }
}
