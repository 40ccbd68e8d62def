//! Fixtures more than one suite builds. Each is byte for byte what the
//! suites built for themselves before: topologies, seeds, set names
//! and generated records are part of what their goldens pin.

use crate::oracle::Trace;
use seeds::sources::SeedCatalog;
use seeds::SeedList;
use simnet::config::TopologyConfig;
use simnet::generate::generate;
use simnet::topology::RouterRole;
use simnet::{AdversarialClass, AdversarialSchedule, RouterId, Topology};
use std::net::Ipv6Addr;
use std::sync::Arc;
use targets::{IidStrategy, TargetSet};
use v6packet::icmp6::DestUnreachCode;
use yarrp6::{ResponseKind, ResponseRecord};

/// The adaptive-loop suites' starting point: the topology `tc`
/// describes, and as round-0 targets one fixed-IID address in every /64
/// of one seed list (`list` picks it from the catalog synthesized with
/// `catalog_seed`), as the set `name`.
pub fn z64_targets(
    tc: TopologyConfig,
    catalog_seed: u64,
    list: fn(&SeedCatalog) -> &SeedList,
    name: &str,
) -> (Arc<Topology>, TargetSet) {
    let topo = Arc::new(generate(tc));
    let seeds = SeedCatalog::synthesize(&topo, catalog_seed);
    let z64 = targets::zn(list(&seeds), 64);
    let set = targets::synthesize::synthesize(name, &z64, IidStrategy::FixedIid);
    (topo, set)
}

/// Every fifth access-network router of `layout` hostile for good,
/// cycling through all five classes. Backbone routers stay honest, so
/// what a run loses is the defenses' doing, not subtrees black-holed
/// behind a zombie.
pub fn hostile_edge(layout: &Topology) -> AdversarialSchedule {
    let access = layout.routers.iter().enumerate().filter(|(_, r)| {
        matches!(
            r.role,
            RouterRole::Distribution | RouterRole::LanGateway | RouterRole::Cpe
        )
    });
    access
        .step_by(5)
        .zip(AdversarialClass::ALL.iter().cycle())
        .fold(AdversarialSchedule::default(), |sched, ((r, _), &class)| {
            sched.with_hostile_always(RouterId(r as u32), class)
        })
}

/// `TopologyConfig::tiled(seed, 2)` with every fifth router hostile,
/// cycling through all five adversarial classes — 20% poisoned,
/// backbone included.
pub fn hostile_config(seed: u64) -> TopologyConfig {
    let mut cfg = TopologyConfig::tiled(seed, 2);
    let routers = generate(cfg.clone()).routers.len();
    cfg.adversarial = (0..routers)
        .step_by(5)
        .zip(AdversarialClass::ALL.iter().cycle())
        .fold(AdversarialSchedule::default(), |sched, (r, &class)| {
            sched.with_hostile_always(RouterId(r as u32), class)
        });
    cfg
}

/// One synthetic record decoded from a drawn word, covering every
/// response class the classify pass distinguishes: Time Exceeded,
/// Destination Unreachable codes, Echo Reply, TCP, missing TTLs, the
/// degenerate ttl 0 and — with `allow_tamper` — checksum failures.
/// Targets and responders come from spaces of 32 and 16 addresses, so
/// they recur.
pub fn synth_record(w: u64, recv_us: u64, allow_tamper: bool) -> ResponseRecord {
    let target = Ipv6Addr::from((0x2001_0db8_u128 << 96) | (w & 0x1f) as u128);
    let responder = Ipv6Addr::from((0x2001_0db8_ffff_u128 << 80) | ((w >> 5) & 0xf) as u128);
    let kind = match (w >> 9) % 8 {
        0..=2 => ResponseKind::TimeExceeded,
        3 => ResponseKind::DestUnreachable(DestUnreachCode::NoRoute),
        4 => ResponseKind::DestUnreachable(DestUnreachCode::AdminProhibited),
        5 => ResponseKind::DestUnreachable(DestUnreachCode::PortUnreachable),
        6 => ResponseKind::EchoReply,
        _ => ResponseKind::Tcp,
    };
    let probe_ttl = match (w >> 12) % 10 {
        0 => None,
        _ => Some(((w >> 16) % 20) as u8),
    };
    ResponseRecord {
        target,
        responder,
        kind,
        probe_ttl,
        rtt_us: Some(w % 10_000),
        recv_us,
        target_cksum_ok: !allow_tamper || !(w >> 21).is_multiple_of(10),
    }
}

/// A checksum-valid record written out by hand, received at `recv_us`.
pub fn rec_at(
    target: &str,
    responder: &str,
    kind: ResponseKind,
    ttl: Option<u8>,
    recv_us: u64,
) -> ResponseRecord {
    ResponseRecord {
        target: target.parse().unwrap(),
        responder: responder.parse().unwrap(),
        kind,
        probe_ttl: ttl,
        rtt_us: Some(1),
        recv_us,
        target_cksum_ok: true,
    }
}

/// [`rec_at`] time zero: a log whose record order is its whole order.
pub fn rec(target: &str, responder: &str, kind: ResponseKind, ttl: Option<u8>) -> ResponseRecord {
    rec_at(target, responder, kind, ttl, 0)
}

/// [`rec_at`] for a Time Exceeded answering hop limit `ttl`.
pub fn te(target: &str, responder: &str, ttl: u8, recv_us: u64) -> ResponseRecord {
    rec_at(
        target,
        responder,
        ResponseKind::TimeExceeded,
        Some(ttl),
        recv_us,
    )
}

/// A hand-built trace toward `target`: the given responders at the
/// given TTLs, nothing else heard.
pub fn trace(target: &str, hops: &[(u8, &str)]) -> Trace {
    let mut t = Trace::new(target.parse().unwrap());
    for &(ttl, h) in hops {
        t.hops.insert(ttl, h.parse().unwrap());
    }
    t
}
