//! The Yarrp6 prober (§4.1).
//!
//! Enumerates the `(target × TTL)` space in a keyed random permutation,
//! emitting at a fixed rate on the virtual clock. All response matching
//! is stateless ([`crate::record::decode_response`]). Two optional
//! stateful *extensions* from the paper are implemented faithfully:
//!
//! * **fill mode** — when a response arrives for a probe sent with hop
//!   limit `h ≥ max_ttl`, immediately probe `h+1` (up to a cap): paths
//!   longer than the chosen TTL range are completed at the tail, where
//!   sequential probing is harmless (Table 6);
//! * **neighborhood mode** — per-TTL timestamps of the last *new*
//!   interface; when a low TTL stops producing new interfaces for a
//!   window, its probes are skipped (§4.2 closing remark).
//!
//! The random order that spares the routers is hard on the prober's own
//! memory: consecutive probes share nothing. What a probe shares with
//! the other probes of its *target* is its flow — the path its routing
//! headers resolve to — and [`run_with_sink`] settles that once per
//! target, up front, in target order ([`Engine::open_flow`]). Nothing
//! else is kept per target: the prober is stateless, so the wire is one
//! [`ProbeTemplate`] per campaign, re-aimed at each probe's target and
//! rendered in place. It also looks ahead in its permutation, a window
//! of 64 probes at a time, and has the engine pull in what those probes
//! will touch ([`Engine::warm`]) before sending them, in order, as ever.
//! The order on the wire, and every result, are those of the naive
//! pipeline that does neither — the Yarrp6 oracle of the dev-only
//! `testkit` crate (`testkit::oracle`), which `tests/hotpath_golden.rs`
//! pins this one to.

use crate::addrset::AddrSet;
use crate::perm::Permutation;
use crate::record::{ProbeLog, ResponseKind, ResponseRecord};
use crate::sink::{Link, RecordSink};
use serde::{Deserialize, Serialize};
use simnet::{Engine, Flow};
use std::net::Ipv6Addr;
use v6packet::probe::{ProbeTemplate, Protocol};

/// Neighborhood-mode parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Neighborhood {
    /// TTLs `1..=max_ttl` are subject to skipping.
    pub max_ttl: u8,
    /// Skip a TTL when it produced no new interface for this long (µs).
    pub window_us: u64,
}

/// Yarrp6 configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct YarrpConfig {
    /// Probe protocol (campaigns use ICMPv6, §4.3).
    pub protocol: Protocol,
    /// Probe rate on the virtual clock (packets/second).
    pub rate_pps: u64,
    /// Maximum TTL in the permutation (m); Table 6 tunes this.
    pub max_ttl: u8,
    /// Enable fill mode.
    pub fill_mode: bool,
    /// Fill probes stop at this hop limit.
    pub fill_max_ttl: u8,
    /// Instance byte carried in every probe.
    pub instance: u8,
    /// Permutation key.
    pub perm_seed: u64,
    /// Optional neighborhood state.
    pub neighborhood: Option<Neighborhood>,
    /// ABLATION: vary the IPv6 flow label per probe instead of keeping
    /// all headers per-target constant. Per-flow load balancers then
    /// spray one target's probes across ECMP paths, and reconstructed
    /// traces mix hops from different paths — the artifact Paris
    /// traceroute (and Yarrp6's checksum fudge) exists to prevent.
    pub vary_flow_label: bool,
}

impl Default for YarrpConfig {
    fn default() -> Self {
        YarrpConfig {
            protocol: Protocol::Icmp6,
            rate_pps: 1_000,
            max_ttl: 16,
            fill_mode: true,
            fill_max_ttl: 32,
            instance: 1,
            perm_seed: 0x79_72_70,
            neighborhood: None,
            vary_flow_label: false,
        }
    }
}

/// Records are reserved up front, capped so absurdly large target sets
/// don't pre-commit gigabytes.
const MAX_RESERVE: usize = 1 << 20;

/// Main-sequence probes the prober resolves ahead of sending them, one
/// window at a time. The permutation makes consecutive probes land on
/// unrelated routers — the point of the method — and so on unrelated
/// memory; but it is keyed, so every address a probe will touch is
/// known before it is sent. Not a setting: measured throughput is flat
/// from 16 to 256, and what 64 probes touch fits the first-level cache
/// several times over.
const LOOKAHEAD: usize = 64;

/// The `vary_flow_label` ablation's label for a probe sent at `now_us`,
/// patched over the label bits of `wire` (not covered by any checksum).
/// Render never touches these bits, so the mask clears the previous
/// probe's label.
fn patch_flow_label(wire: &mut [u8], now_us: u64) {
    let label = (now_us as u32).wrapping_mul(0x9e37_79b9) >> 12 & 0xf_ffff;
    let vtf = u32::from_be_bytes([wire[0], wire[1], wire[2], wire[3]]) & !0xf_ffff | label;
    wire[0..4].copy_from_slice(&vtf.to_be_bytes());
}

/// The wire of the probe to `target` with hop limit `ttl` sent at
/// `now_us`: the campaign's template, re-aimed and rendered in place.
#[inline]
fn wire_of<'w>(
    template: &'w mut ProbeTemplate,
    target: Ipv6Addr,
    ttl: u8,
    now_us: u64,
    cfg: &YarrpConfig,
) -> &'w mut [u8] {
    template.aim(target);
    let wire = template.render(ttl, now_us as u32);
    if cfg.vary_flow_label {
        patch_flow_label(wire, now_us);
    }
    wire
}

/// The prober's per-campaign hot-path state: the campaign's one wire
/// template, a flow per target, and one reused response buffer. Steady
/// state allocates nothing per probe — the template is re-aimed and
/// rendered in place and the engine refills the link's delivery.
struct HotPath<'e, 't> {
    link: Link<'e>,
    targets: &'t [Ipv6Addr],
    /// Every probe's wire: aimed at its target, then rendered.
    template: ProbeTemplate,
    /// The flow every probe of a target belongs to, parallel to
    /// `targets`. Under the `vary_flow_label` ablation no two probes
    /// share a flow, and each probe's is opened where it is sent; these
    /// then only say what to warm.
    flows: Vec<Flow>,
}

impl HotPath<'_, '_> {
    /// Gets `window` — the next main-sequence `(target index, TTL)`
    /// pairs, the first due at `now_us`, one every `interval_us` — into
    /// cache before any of it is sent: the targets here, everything a
    /// probe touches inside the engine through [`Engine::warm`]. Sends
    /// nothing and changes no result.
    fn look_ahead(&mut self, window: &[(usize, u8)]) {
        for &(tidx, _) in window {
            simnet::prefetch(&self.targets[tidx]);
        }
        let flows = &self.flows;
        self.link
            .engine
            .warm(window.iter().map(|&(tidx, ttl)| (flows[tidx], ttl)));
    }

    /// Emits one probe to target `tidx`, decoding any response into
    /// `sink`. Returns the decoded record for fill/neighborhood
    /// bookkeeping.
    fn send_probe<S: RecordSink>(
        &mut self,
        tidx: usize,
        ttl: u8,
        now_us: u64,
        cfg: &YarrpConfig,
        log: &mut ProbeLog,
        sink: &mut S,
    ) -> Option<ResponseRecord> {
        let wire = wire_of(&mut self.template, self.targets[tidx], ttl, now_us, cfg);
        // The ablation's label is part of what the network routes by,
        // so its probe's flow is its own.
        let flow = if cfg.vary_flow_label {
            self.link.open(wire)
        } else {
            self.flows[tidx]
        };
        self.link.exchange(flow, wire, now_us, log, sink)
    }

    /// Emits one probe to an arbitrary address — the rare fill-chain
    /// case where the quoted target was rewritten and is no target of
    /// the campaign, so no flow of it is open.
    fn send_probe_to<S: RecordSink>(
        &mut self,
        target: Ipv6Addr,
        ttl: u8,
        now_us: u64,
        cfg: &YarrpConfig,
        log: &mut ProbeLog,
        sink: &mut S,
    ) -> Option<ResponseRecord> {
        let wire = wire_of(&mut self.template, target, ttl, now_us, cfg);
        let flow = self.link.open(wire);
        self.link.exchange(flow, wire, now_us, log, sink)
    }
}

/// Runs a Yarrp6 campaign from `vantage_idx` against `targets`,
/// collecting records into a [`ProbeLog`] sorted by receive time — the
/// batch shape. Implemented over [`run_with_sink`] with a `Vec` sink;
/// the golden tests pin it bit-identical to the naive pipeline of
/// `testkit::oracle`.
pub fn run(
    engine: &mut Engine,
    vantage_idx: u8,
    targets: &[Ipv6Addr],
    cfg: &YarrpConfig,
) -> ProbeLog {
    let n = targets.len() as u64 * cfg.max_ttl as u64;
    let mut records: Vec<ResponseRecord> = Vec::with_capacity((n as usize).min(MAX_RESERVE));
    let mut log = run_with_sink(engine, vantage_idx, targets, cfg, &mut records);
    log.records = records;
    log.sort_by_recv();
    log
}

/// Runs a Yarrp6 campaign, emitting every decoded record into `sink`
/// in emission order (send order — *not* sorted by receive time; the
/// batch [`run`] wrapper sorts, a streaming consumer sees the raw
/// order). The returned [`ProbeLog`] carries the send-side counters
/// (`probes_sent`, `fills`, `discarded`, `duration_us`, identity) with
/// an empty `records` vector — the records went to the sink.
pub fn run_with_sink<S: RecordSink>(
    engine: &mut Engine,
    vantage_idx: u8,
    targets: &[Ipv6Addr],
    cfg: &YarrpConfig,
    sink: &mut S,
) -> ProbeLog {
    assert!(cfg.max_ttl >= 1 && cfg.fill_max_ttl >= cfg.max_ttl);
    let src = engine.topology().vantages[vantage_idx as usize].addr;
    let vantage_name = engine.topology().vantages[vantage_idx as usize]
        .name
        .clone();
    let ttl_span = cfg.max_ttl as u64;
    let n = targets.len() as u64 * ttl_span;
    let perm = Permutation::new(n, cfg.perm_seed);

    let mut log = ProbeLog {
        vantage: vantage_name,
        prober: "yarrp6".into(),
        traces: targets.len() as u64,
        ..Default::default()
    };
    let interval_us = 1_000_000 / cfg.rate_pps.max(1);
    let mut now_us: u64 = 0;

    let mut link = Link::new(engine, cfg.instance);
    let mut template = ProbeTemplate::new(src, Ipv6Addr::UNSPECIFIED, cfg.protocol, cfg.instance);
    // One flow per target, opened in target order: neighbouring targets
    // resolve through neighbouring parts of the topology.
    let flows = targets
        .iter()
        .map(|&t| {
            template.aim(t);
            link.open(template.wire())
        })
        .collect();
    let mut hot = HotPath {
        link,
        targets,
        template,
        flows,
    };

    let mut newest = cfg.neighborhood.map(Newest::new);

    // The permutation is walked a window at a time: looked ahead as a
    // whole, then sent probe by probe, in order, exactly as if it had
    // not been. Fill probes go out between main-sequence probes, where
    // their triggers arrive; they are rare and not looked ahead.
    let mut order = perm
        .iter()
        .map(|v| ((v / ttl_span) as usize, (v % ttl_span) as u8 + 1));
    let mut window: Vec<(usize, u8)> = Vec::with_capacity(LOOKAHEAD);
    loop {
        window.clear();
        window.extend(order.by_ref().take(LOOKAHEAD));
        if window.is_empty() {
            break;
        }
        hot.look_ahead(&window);
        for &(tidx, ttl) in &window {
            if newest.as_ref().is_some_and(|n| n.went_quiet(ttl, now_us)) {
                now_us += interval_us;
                continue;
            }

            let resp = hot.send_probe(tidx, ttl, now_us, cfg, &mut log, sink);
            if let Some(rec) = resp {
                note_response(&rec, &mut newest);
                maybe_fill(&mut hot, tidx, rec, cfg, &mut log, sink, &mut newest);
            }
            now_us += interval_us;
        }
    }
    log.duration_us = now_us;
    log
}

/// Neighborhood-mode state, kept only while the mode is on — the skip
/// is its one reader: when each TTL last yielded an interface not seen
/// before. The seen set is the open-addressed `AddrSet`, one splitmix
/// probe per Time Exceeded.
struct Newest {
    mode: Neighborhood,
    /// Receive time of the last new interface, by probe TTL.
    last_new: [u64; 256],
    seen: AddrSet,
}

impl Newest {
    fn new(mode: Neighborhood) -> Self {
        Newest {
            mode,
            last_new: [0; 256],
            seen: AddrSet::new(),
        }
    }

    /// Has `ttl` gone a whole window without a new interface by
    /// `now_us`? Its probes are then skipped.
    fn went_quiet(&self, ttl: u8, now_us: u64) -> bool {
        ttl <= self.mode.max_ttl
            && now_us > self.mode.window_us
            && now_us.saturating_sub(self.last_new[ttl as usize]) > self.mode.window_us
    }
}

/// Tells neighborhood mode, if it is on, of a response.
fn note_response(rec: &ResponseRecord, newest: &mut Option<Newest>) {
    let Some(n) = newest else { return };
    if rec.kind == ResponseKind::TimeExceeded && n.seen.insert(rec.responder) {
        if let Some(ttl) = rec.probe_ttl {
            n.last_new[ttl as usize] = rec.recv_us;
        }
    }
}

/// Fill mode: chase the path tail past `max_ttl` while hops keep
/// answering. Fill probes are sent when the triggering response arrives
/// (the prober reacts on receipt), so they ride the same virtual clock.
fn maybe_fill<S: RecordSink>(
    hot: &mut HotPath<'_, '_>,
    tidx: usize,
    trigger: ResponseRecord,
    cfg: &YarrpConfig,
    log: &mut ProbeLog,
    sink: &mut S,
    newest: &mut Option<Newest>,
) {
    if !cfg.fill_mode {
        return;
    }
    let mut cur = trigger;
    while let Some(h) = cur.probe_ttl.filter(|&h| {
        h >= cfg.max_ttl && h < cfg.fill_max_ttl && cur.kind == ResponseKind::TimeExceeded
    }) {
        let send_at = cur.recv_us;
        log.fills += 1;
        // Fill chases the *quoted* target (as the stateless prober on the
        // wire would): usually the probed target, whose flow is open,
        // but a middlebox-rewritten quotation diverges from it.
        let rec = if cur.target == hot.targets[tidx] {
            hot.send_probe(tidx, h + 1, send_at, cfg, log, sink)
        } else {
            hot.send_probe_to(cur.target, h + 1, send_at, cfg, log, sink)
        };
        let Some(rec) = rec else { break };
        note_response(&rec, newest);
        cur = rec;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::config::TopologyConfig;
    use simnet::generate::generate;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn engine() -> Engine {
        Engine::new(Arc::new(generate(TopologyConfig::tiny(42))))
    }

    fn some_targets(e: &Engine, n: usize) -> Vec<Ipv6Addr> {
        e.topology().hosts().map(|(a, _)| a).take(n).collect()
    }

    #[test]
    fn discovers_interfaces() {
        let mut e = engine();
        let targets = some_targets(&e, 50);
        let cfg = YarrpConfig::default();
        let log = run(&mut e, 0, &targets, &cfg);
        assert_eq!(log.probes_sent, 50 * 16 + log.fills);
        let ifaces = log.interface_addrs();
        assert!(ifaces.len() > 10, "only {} interfaces", ifaces.len());
        // All records verified ours.
        assert!(log.records.iter().all(|r| r.target_cksum_ok));
    }

    #[test]
    fn stateless_records_reference_real_targets() {
        let mut e = engine();
        let targets = some_targets(&e, 20);
        let log = run(&mut e, 0, &targets, &YarrpConfig::default());
        let tset: HashSet<Ipv6Addr> = targets.iter().copied().collect();
        for r in &log.records {
            // Destination responses name the target directly; quoted
            // responses must reference a probed target.
            assert!(tset.contains(&r.target), "unknown target {}", r.target);
        }
    }

    #[test]
    fn fill_mode_extends_short_max_ttl() {
        // Vantage 1: vantage 0 has the paper-quirk silent hop 5, which
        // (correctly) kills fill chains started at max_ttl 4.
        let mut e = engine();
        let targets = some_targets(&e, 30);
        let mut cfg = YarrpConfig {
            max_ttl: 4,
            ..Default::default()
        };
        let with_fills = run(&mut e, 1, &targets, &cfg);
        assert!(with_fills.fills > 0, "fills expected with max_ttl=4");
        let deep = with_fills
            .records
            .iter()
            .filter(|r| r.probe_ttl.unwrap_or(0) > 4)
            .count();
        assert!(deep > 0, "fill probes must discover deeper hops");

        cfg.fill_mode = false;
        let mut e2 = engine();
        let without = run(&mut e2, 1, &targets, &cfg);
        assert_eq!(without.fills, 0);
        assert!(
            with_fills.interface_addrs().len() > without.interface_addrs().len(),
            "fill mode must discover more"
        );
    }

    #[test]
    fn deterministic_runs() {
        let t = Arc::new(generate(TopologyConfig::tiny(42)));
        let targets: Vec<Ipv6Addr> = t.hosts().map(|(a, _)| a).take(25).collect();
        let cfg = YarrpConfig::default();
        let a = run(&mut Engine::new(t.clone()), 1, &targets, &cfg);
        let b = run(&mut Engine::new(t.clone()), 1, &targets, &cfg);
        assert_eq!(a.records, b.records);
        // A different permutation seed reorders probing (records differ in
        // time even if the set of interfaces converges).
        let cfg2 = YarrpConfig {
            perm_seed: 999,
            ..cfg
        };
        let c = run(&mut Engine::new(t), 1, &targets, &cfg2);
        assert_ne!(a.records, c.records);
    }

    #[test]
    fn neighborhood_mode_reduces_probes_answered() {
        let t = Arc::new(generate(TopologyConfig::tiny(42)));
        let targets: Vec<Ipv6Addr> = t.hosts().map(|(a, _)| a).take(200).collect();
        let base = YarrpConfig {
            fill_mode: false,
            ..Default::default()
        };
        let with_nb = YarrpConfig {
            neighborhood: Some(Neighborhood {
                max_ttl: 4,
                window_us: 2_000_000,
            }),
            ..base
        };
        let full = run(&mut Engine::new(t.clone()), 0, &targets, &base);
        let nb = run(&mut Engine::new(t), 0, &targets, &with_nb);
        // Neighborhood mode skips probes yet finds nearly the same
        // interfaces (near hops saturate early).
        assert!(nb.records.len() < full.records.len());
        let fi = full.interface_addrs();
        let ni = nb.interface_addrs();
        let missing = fi.iter().filter(|a| ni.binary_search(a).is_err()).count();
        assert!(
            missing <= fi.len() / 5,
            "neighborhood lost too much: {missing}/{}",
            fi.len()
        );
    }

    #[test]
    fn rtts_are_plausible() {
        let mut e = engine();
        let targets = some_targets(&e, 10);
        let log = run(&mut e, 0, &targets, &YarrpConfig::default());
        for r in &log.records {
            let rtt = r.rtt_us.unwrap();
            assert!(rtt > 0 && rtt < 60_000_000, "rtt {rtt}");
        }
    }
}
