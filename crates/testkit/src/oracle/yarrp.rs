//! The naive Yarrp6 pipeline [`yarrp6::yarrp::run`] is pinned against
//! (`yarrp6`'s `tests/hotpath_golden.rs`): one freshly encoded packet
//! per probe ([`super::build_probe`]), the allocating
//! [`Engine::inject`], no flows, no lookahead, no sink.
//!
//! Of `yarrp6::yarrp` this module uses the two configuration structs,
//! [`YarrpConfig`] and [`Neighborhood`], and nothing else: the walk,
//! the fill chains and the neighbourhood bookkeeping below are its own,
//! so a defect in the prober's cannot sit on both sides of a golden.
//! (The permutation, the response decoder and the log are shared; they
//! have suites of their own.)

use super::build_probe;
use simnet::Engine;
use std::collections::{BTreeMap, HashSet};
use std::net::Ipv6Addr;
use v6packet::probe::ProbeSpec;
use yarrp6::perm::Permutation;
use yarrp6::record::decode_response;
use yarrp6::yarrp::{Neighborhood, YarrpConfig};
use yarrp6::{ProbeLog, ResponseKind, ResponseRecord};

/// Neighbourhood mode, kept as deadlines: a TTL's probes go out until
/// `quiet_after[ttl]`, which a new interface at that TTL moves to its
/// receive time plus the window. A TTL that has yielded nothing yet
/// stands at the window itself.
struct Quiet {
    mode: Neighborhood,
    seen: HashSet<Ipv6Addr>,
    quiet_after: BTreeMap<u8, u128>,
}

impl Quiet {
    fn new(mode: Neighborhood) -> Self {
        Quiet {
            mode,
            seen: HashSet::new(),
            quiet_after: BTreeMap::new(),
        }
    }

    /// Is the probe with hop limit `ttl` due at `now_us` skipped?
    fn skips(&self, ttl: u8, now_us: u64) -> bool {
        let window = self.mode.window_us as u128;
        let deadline = self.quiet_after.get(&ttl).copied().unwrap_or(window);
        ttl <= self.mode.max_ttl && now_us as u128 > deadline
    }

    fn note(&mut self, rec: &ResponseRecord) {
        if rec.kind != ResponseKind::TimeExceeded || !self.seen.insert(rec.responder) {
            return;
        }
        if let Some(ttl) = rec.probe_ttl {
            let deadline = rec.recv_us as u128 + self.mode.window_us as u128;
            self.quiet_after.insert(ttl, deadline);
        }
    }
}

/// Runs a Yarrp6 campaign from `vantage_idx` against `targets` the
/// naive way and returns its receive-sorted log — what
/// [`yarrp6::yarrp::run`] must return, record for record and counter
/// for counter, leaving `engine` in the same state.
pub fn run_reference(
    engine: &mut Engine,
    vantage_idx: u8,
    targets: &[Ipv6Addr],
    cfg: &YarrpConfig,
) -> ProbeLog {
    assert!(cfg.max_ttl >= 1 && cfg.fill_max_ttl >= cfg.max_ttl);
    let vantage = &engine.topology().vantages[vantage_idx as usize];
    let src = vantage.addr;
    let mut log = ProbeLog {
        vantage: vantage.name.clone(),
        prober: "yarrp6".into(),
        traces: targets.len() as u64,
        ..Default::default()
    };
    let ttl_span = cfg.max_ttl as u64;
    let interval_us = 1_000_000 / cfg.rate_pps.max(1);
    let mut quiet = cfg.neighborhood.map(Quiet::new);

    let perm = Permutation::new(targets.len() as u64 * ttl_span, cfg.perm_seed);
    for (k, v) in perm.iter().enumerate() {
        // The clock ticks once per position, skipped or not.
        let now_us = k as u64 * interval_us;
        log.duration_us = now_us + interval_us;
        let target = targets[(v / ttl_span) as usize];
        let ttl = (v % ttl_span) as u8 + 1;
        if quiet.as_ref().is_some_and(|q| q.skips(ttl, now_us)) {
            continue;
        }
        // The probe, then for as long as fill mode asks, the next hop of
        // whatever target the last answer quoted, sent as it arrives.
        let mut next = Some((target, ttl, now_us));
        while let Some((to, hop_limit, at_us)) = next.take() {
            let Some(rec) = send_probe(engine, src, to, hop_limit, at_us, cfg, &mut log) else {
                break;
            };
            if let Some(q) = &mut quiet {
                q.note(&rec);
            }
            let deeper = rec.probe_ttl.filter(|&h| {
                cfg.fill_mode
                    && rec.kind == ResponseKind::TimeExceeded
                    && h >= cfg.max_ttl
                    && h < cfg.fill_max_ttl
            });
            if let Some(h) = deeper {
                log.fills += 1;
                next = Some((rec.target, h + 1, rec.recv_us));
            }
        }
    }
    log.sort_by_recv();
    log
}

/// One naive-pipeline probe: encode, inject, decode.
fn send_probe(
    engine: &mut Engine,
    src: Ipv6Addr,
    target: Ipv6Addr,
    ttl: u8,
    now_us: u64,
    cfg: &YarrpConfig,
    log: &mut ProbeLog,
) -> Option<ResponseRecord> {
    let spec = ProbeSpec {
        src,
        target,
        protocol: cfg.protocol,
        ttl,
        instance: cfg.instance,
        elapsed_us: now_us as u32,
    };
    log.probes_sent += 1;
    let mut wire = build_probe(&spec);
    if cfg.vary_flow_label {
        // The ablation: a label from the send time, in the 20 bits no
        // checksum covers.
        let label = (now_us as u32).wrapping_mul(0x9e37_79b9) >> 12 & 0xf_ffff;
        let vtf = u32::from_be_bytes([wire[0], wire[1], wire[2], wire[3]]) & !0xf_ffff | label;
        wire[0..4].copy_from_slice(&vtf.to_be_bytes());
    }
    let delivery = engine.inject(&wire, now_us)?;
    match decode_response(&delivery.bytes, delivery.at_us, cfg.instance) {
        Ok(rec) => {
            log.records.push(rec);
            Some(rec)
        }
        Err(e) => {
            log.decode_errors.note(e);
            log.discarded += 1;
            None
        }
    }
}
