//! A scamper-like sequential ICMP-Paris prober — the state of the art the
//! paper compares against (§4.2, Figure 5).
//!
//! Scamper keeps a window of concurrent traces and advances them in
//! lockstep: all windowed destinations are probed at TTL 1, then TTL 2,
//! and so on. Packet captures in the paper show exactly this "per-TTL
//! bursty behavior ... that persists as traces remain synchronized" — a
//! burst of same-TTL probes slams each near-vantage router's ICMPv6
//! token bucket and drains it, which is why sequential probing collapses
//! at high rates where randomized probing does not.
//!
//! The prober is *stateful*, like traceroute: it stops a trace when the
//! destination answers or after `gap_limit` consecutive silent hops.
//! Headers stay constant per destination (Paris), so ECMP paths are
//! stable. The window (`WINDOW`, 1 000 traces) and the instance byte
//! (`INSTANCE`, 2) are constants of the module.

use crate::record::{ProbeLog, ResponseKind, ResponseRecord};
use crate::sink::Link;
use serde::{Deserialize, Serialize};
use simnet::{Engine, Flow};
use std::net::Ipv6Addr;
use v6packet::probe::{ProbeTemplate, Protocol};

/// Sequential prober configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SequentialConfig {
    /// Probe protocol (ICMP-Paris in production use).
    pub protocol: Protocol,
    /// Probe rate (packets/second, virtual clock).
    pub rate_pps: u64,
    /// Maximum TTL per trace.
    pub max_ttl: u8,
    /// Consecutive silent hops before a trace is abandoned.
    pub gap_limit: u8,
}

/// Concurrent traces advanced in lockstep.
const WINDOW: usize = 1_000;
/// Instance byte the prober's probes carry.
const INSTANCE: u8 = 2;

impl Default for SequentialConfig {
    fn default() -> Self {
        SequentialConfig {
            protocol: Protocol::Icmp6,
            rate_pps: 1_000,
            max_ttl: 16,
            gap_limit: 5,
        }
    }
}

/// Per-trace progress.
#[derive(Clone, Copy)]
struct TraceState {
    done: bool,
    gap: u8,
}

/// Runs a sequential campaign from `vantage_idx` against `targets`,
/// collecting into a receive-sorted [`ProbeLog`] (batch shape).
pub fn run(
    engine: &mut Engine,
    vantage_idx: u8,
    targets: &[Ipv6Addr],
    cfg: &SequentialConfig,
) -> ProbeLog {
    let src = engine.topology().vantages[vantage_idx as usize].addr;
    let vantage_name = engine.topology().vantages[vantage_idx as usize]
        .name
        .clone();
    let mut log = ProbeLog {
        vantage: vantage_name,
        prober: "sequential".into(),
        traces: targets.len() as u64,
        ..Default::default()
    };
    let interval_us = 1_000_000 / cfg.rate_pps.max(1);
    let mut now_us = 0u64;
    let mut records: Vec<ResponseRecord> = Vec::new();
    let mut link = Link::new(engine, INSTANCE);
    // One wire for the campaign, aimed at each probe's target.
    let mut template = ProbeTemplate::new(src, Ipv6Addr::UNSPECIFIED, cfg.protocol, INSTANCE);

    for chunk in targets.chunks(WINDOW) {
        let mut state = vec![
            TraceState {
                done: false,
                gap: 0
            };
            chunk.len()
        ];
        let flows: Vec<Flow> = chunk
            .iter()
            .map(|&target| {
                template.aim(target);
                link.open(template.wire())
            })
            .collect();
        for ttl in 1..=cfg.max_ttl {
            for (i, &target) in chunk.iter().enumerate() {
                if state[i].done {
                    continue;
                }
                template.aim(target);
                let wire = template.render(ttl, now_us as u32);
                let rec = link.exchange(flows[i], wire, now_us, &mut log, &mut records);
                now_us += interval_us;
                match rec {
                    Some(rec) => {
                        state[i].gap = 0;
                        // Traceroute semantics: any destination response
                        // or unreachable error terminates the trace.
                        if rec.kind != ResponseKind::TimeExceeded {
                            state[i].done = true;
                        }
                    }
                    None => {
                        state[i].gap += 1;
                        if state[i].gap >= cfg.gap_limit {
                            state[i].done = true;
                        }
                    }
                }
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
    fn traces_and_finds_interfaces_at_low_rate() {
        let t = topo();
        let targets: Vec<Ipv6Addr> = t.hosts().map(|(a, _)| a).take(30).collect();
        let cfg = SequentialConfig {
            rate_pps: 20,
            ..Default::default()
        };
        let log = run(&mut Engine::new(t), 0, &targets, &cfg);
        assert!(log.probes_sent > 0);
        assert!(log.interface_addrs().len() > 5);
    }

    #[test]
    fn gap_limit_caps_probes() {
        let t = topo();
        // Unrouted targets: only the first hops answer, then gap aborts.
        let targets: Vec<Ipv6Addr> = (0..10u16)
            .map(|i| format!("fd00::{i}").parse().unwrap())
            .collect();
        let cfg = SequentialConfig {
            rate_pps: 20,
            gap_limit: 3,
            ..Default::default()
        };
        let log = run(&mut Engine::new(t.clone()), 0, &targets, &cfg);
        // On-prem (2) + border (1) answer, then 3 gaps => ≤ 7 probes/trace
        // (plus rate-limit noise margin).
        assert!(
            log.probes_sent <= 10 * 8,
            "gap limit ignored: {} probes",
            log.probes_sent
        );
    }

    #[test]
    fn sequential_worse_than_spread_at_high_rate() {
        // The Fig 5 effect, in miniature: same targets, same rate — the
        // lockstep prober loses near-hop responses to rate limiting.
        let t = topo();
        let targets: Vec<Ipv6Addr> = t.hosts().map(|(a, _)| a).take(400).collect();
        let seq_cfg = SequentialConfig {
            rate_pps: 2_000,
            gap_limit: 16, // keep tracing so the comparison is probe-fair
            ..Default::default()
        };
        let seq = run(&mut Engine::new(t.clone()), 0, &targets, &seq_cfg);
        let yar_cfg = crate::yarrp::YarrpConfig {
            rate_pps: 2_000,
            fill_mode: false,
            ..Default::default()
        };
        let yar = crate::yarrp::run(&mut Engine::new(t), 0, &targets, &yar_cfg);
        // Compare hop-1 responsiveness: fraction of traces with a TTL-1
        // response.
        let hop1 = |log: &ProbeLog| {
            log.records
                .iter()
                .filter(|r| r.probe_ttl == Some(1) && r.kind == ResponseKind::TimeExceeded)
                .count() as f64
                / targets.len() as f64
        };
        let s1 = hop1(&seq);
        let y1 = hop1(&yar);
        assert!(
            y1 > s1 + 0.2,
            "randomization must help at hop 1: yarrp {y1:.2} vs seq {s1:.2}"
        );
    }

    #[test]
    fn stops_at_destination() {
        let t = topo();
        // A reachable server: after the destination responds, no further
        // TTLs are probed for it.
        let target = t
            .hosts()
            .find(|(_, k)| *k == simnet::topology::HostKind::Server)
            .map(|(a, _)| a)
            .unwrap();
        let cfg = SequentialConfig {
            rate_pps: 20,
            max_ttl: 32,
            ..Default::default()
        };
        let log = run(&mut Engine::new(t), 0, &[target], &cfg);
        // Probes ≤ path length + small slack, never the full 32.
        assert!(log.probes_sent < 32, "sent {}", log.probes_sent);
    }
}
