//! Doubletree (Donnet et al. \[20\]) — the classic probe-reduction
//! comparator (§4.2).
//!
//! Doubletree starts each trace at an intermediate TTL and probes
//! *forward* until the destination answers (or a gap), and *backward*
//! toward the vantage until it hits an interface already in its local
//! stop set — paths share their early hops, so backward probing usually
//! stops quickly.
//!
//! The paper observes an unexpected interaction with ICMPv6 rate
//! limiting: when a rate-limited hop stays silent, Doubletree *keeps
//! probing backward* (it never sees the stop-set interface), hammering
//! the very token buckets that are already drained. This implementation
//! reproduces that behavior faithfully: silence ≠ stop.
//!
//! Only the protocol and the rate are settings; the starting TTL
//! (`START_TTL`, 8), the forward limit (`MAX_TTL`, 16), the forward gap
//! limit (`GAP_LIMIT`, 5) and the instance byte (`INSTANCE`, 3) are
//! constants of the module.

use crate::record::{ProbeLog, ResponseKind, ResponseRecord};
use crate::sink::Link;
use serde::{Deserialize, Serialize};
use simnet::Engine;
use std::collections::HashSet;
use std::net::Ipv6Addr;
use v6packet::probe::{ProbeTemplate, Protocol};

/// Doubletree configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DoubletreeConfig {
    /// Probe protocol.
    pub protocol: Protocol,
    /// Probe rate (packets/second).
    pub rate_pps: u64,
}

/// The intermediate starting TTL (h) — per-vantage heuristic the paper
/// criticizes as requiring manual tuning.
const START_TTL: u8 = 8;
/// Forward probing stops here.
const MAX_TTL: u8 = 16;
/// Consecutive silent forward hops before abandoning.
const GAP_LIMIT: u8 = 5;
/// Instance byte the prober's probes carry.
const INSTANCE: u8 = 3;

impl Default for DoubletreeConfig {
    fn default() -> Self {
        DoubletreeConfig {
            protocol: Protocol::Icmp6,
            rate_pps: 1_000,
        }
    }
}

/// Runs a Doubletree campaign from `vantage_idx` against `targets`,
/// collecting into a receive-sorted [`ProbeLog`] (batch shape).
pub fn run(
    engine: &mut Engine,
    vantage_idx: u8,
    targets: &[Ipv6Addr],
    cfg: &DoubletreeConfig,
) -> ProbeLog {
    let src = engine.topology().vantages[vantage_idx as usize].addr;
    let vantage_name = engine.topology().vantages[vantage_idx as usize]
        .name
        .clone();
    let mut log = ProbeLog {
        vantage: vantage_name,
        prober: "doubletree".into(),
        traces: targets.len() as u64,
        ..Default::default()
    };
    let interval_us = 1_000_000 / cfg.rate_pps.max(1);
    let mut now_us = 0u64;
    // Local stop set: interfaces this monitor has already seen.
    let mut stop_set: HashSet<Ipv6Addr> = HashSet::new();
    let mut records: Vec<ResponseRecord> = Vec::new();

    let mut link = Link::new(engine, INSTANCE);
    // One wire for the campaign, aimed at each target in turn: a
    // target's probes all go out before the next one's.
    let mut template = ProbeTemplate::new(src, Ipv6Addr::UNSPECIFIED, cfg.protocol, INSTANCE);

    for &target in targets {
        template.aim(target);
        let flow = link.open(template.wire());
        let mut probe = |ttl: u8| -> Option<ResponseRecord> {
            let wire = template.render(ttl, now_us as u32);
            let rec = link.exchange(flow, wire, now_us, &mut log, &mut records);
            now_us += interval_us;
            rec
        };
        // Forward phase: START_TTL ..= MAX_TTL.
        let mut gap = 0u8;
        for ttl in START_TTL..=MAX_TTL {
            match probe(ttl) {
                Some(rec) => {
                    gap = 0;
                    if rec.kind != ResponseKind::TimeExceeded {
                        break; // destination zone answered
                    }
                    stop_set.insert(rec.responder);
                }
                None => {
                    gap += 1;
                    if gap >= GAP_LIMIT {
                        break;
                    }
                }
            }
        }
        // Backward phase: START_TTL-1 down to 1; stop on a stop-set hit.
        // Crucially: *silence does not stop backward probing* — the
        // pathology under rate limiting.
        for ttl in (1..START_TTL).rev() {
            match probe(ttl) {
                Some(rec) => {
                    let hit =
                        rec.kind == ResponseKind::TimeExceeded && !stop_set.insert(rec.responder);
                    if hit {
                        break;
                    }
                }
                None => { /* keep probing backward */ }
            }
        }
    }
    log.duration_us = now_us;
    log.records = records;
    log.sort_by_recv();
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::config::TopologyConfig;
    use simnet::generate::generate;
    use std::sync::Arc;

    fn topo() -> Arc<simnet::Topology> {
        Arc::new(generate(TopologyConfig::tiny(42)))
    }

    #[test]
    fn uses_fewer_probes_than_full_tracing() {
        let t = topo();
        let targets: Vec<Ipv6Addr> = t.hosts().map(|(a, _)| a).take(100).collect();
        let cfg = DoubletreeConfig {
            rate_pps: 100,
            ..Default::default()
        };
        let dt = run(&mut Engine::new(t.clone()), 0, &targets, &cfg);
        // Full tracing would need MAX_TTL probes per target.
        let full = targets.len() as u64 * u64::from(MAX_TTL);
        assert!(
            dt.probes_sent < full * 3 / 4,
            "doubletree sent {} of {} full probes",
            dt.probes_sent,
            full
        );
        assert!(dt.interface_addrs().len() > 5);
    }

    #[test]
    fn backward_probing_stops_on_shared_prefix_hops() {
        let t = topo();
        let targets: Vec<Ipv6Addr> = t.hosts().map(|(a, _)| a).take(50).collect();
        let cfg = DoubletreeConfig {
            rate_pps: 50,
            ..Default::default()
        };
        let dt = run(&mut Engine::new(t), 0, &targets, &cfg);
        // After the first trace, near hops are in the stop set; TTL-1
        // probes should be rare (only the first trace reaches TTL 1).
        let ttl1 = dt.records.iter().filter(|r| r.probe_ttl == Some(1)).count();
        assert!(ttl1 <= 5, "too many TTL-1 probes: {ttl1}");
    }

    #[test]
    fn backward_pathology_under_rate_limiting() {
        // At high rate the near buckets drain; silence keeps backward
        // probing alive, so doubletree sends *more* near probes per trace
        // than at low rate.
        let t = topo();
        let targets: Vec<Ipv6Addr> = t.hosts().map(|(a, _)| a).take(300).collect();
        let near_probes = |rate: u64| {
            // Silence can only cut forward probing short (GAP_LIMIT), so
            // a faster run sends more probes only through the backward
            // pathology. Vantage 1 avoids the vantage-0 silent-hop quirk.
            let cfg = DoubletreeConfig {
                rate_pps: rate,
                ..Default::default()
            };
            let mut e = Engine::new(t.clone());
            let log = run(&mut e, 1, &targets, &cfg);
            log.probes_sent
        };
        let slow = near_probes(50);
        let fast = near_probes(5_000);
        assert!(
            fast > slow,
            "rate limiting must increase doubletree probing: fast {fast} <= slow {slow}"
        );
    }
}
