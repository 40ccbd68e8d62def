//! The packet engine: probes in, responses out, all in virtual time.
//!
//! [`Engine::inject`] accepts a serialized probe at virtual time `now_us`
//! and produces the serialized response — an ICMPv6 Time Exceeded from the
//! expiring router, an ICMPv6 Destination Unreachable per policy, an Echo
//! Reply or TCP segment from a reached host — or silence, when the probe
//! (or the response budget of the router, per RFC 4443 rate limiting) ran
//! out.
//!
//! The engine is the *only* channel between the prober and the topology:
//! probers never peek at ground truth, so their discoveries are earned the
//! same way they would be on the real Internet.

use crate::adversarial::{AdversarialClass, Hostiles, STORM_SPREAD};
use crate::flow::{self, FlowKey};
use crate::pathcache::PathCache;
use crate::ratelimit::TokenBucket;
use crate::route::{self, DestEntry, ResolveScratch, ResolvedPath};
use crate::topology::{HostKind, RouterId, Topology, UnknownAddrPolicy};
use serde::{Deserialize, Serialize};
use std::net::Ipv6Addr;
use std::sync::Arc;
use v6packet::icmp6::{self, DestUnreachCode, Icmp6Type};
use v6packet::{ip6, proto_num, tcp};

/// A response scheduled for delivery back at the vantage.
///
/// Reusable: [`Engine::inject_into`] clears and refills `bytes`, so one
/// `Delivery` can serve an entire campaign without reallocating.
#[derive(Clone, Debug, Default)]
pub struct Delivery {
    /// Virtual arrival time at the prober (µs).
    pub at_us: u64,
    /// Serialized response packet.
    pub bytes: Vec<u8>,
}

/// Outcome counters, updated per injected probe.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Probes injected.
    pub probes: u64,
    /// Probes that failed to parse as IPv6, lacked a known vantage, or
    /// carried hop limit 0.
    pub malformed: u64,
    /// Probes lost in transit.
    pub lost: u64,
    /// ICMPv6 errors suppressed by token buckets.
    pub rate_limited: u64,
    /// Suppressions charged to default-class token buckets
    /// ([`crate::config::TopologyConfig::default_rl`]). Together with
    /// [`rl_dropped_aggressive`](Self::rl_dropped_aggressive) this
    /// counts every *actual* bucket suppression (`rate_limited` can run
    /// slightly higher: its destination-zone call sites also absorb
    /// unresponsive responders), so a consumer (e.g. adaptive-yield
    /// analysis) can tell "nothing left to find" apart from "routers
    /// rate-limited us" — and *which* limiter class did the damage.
    pub rl_dropped_default: u64,
    /// Suppressions charged to aggressive-class token buckets
    /// ([`crate::config::TopologyConfig::aggressive_rl`], the §4.2
    /// hops with markedly stronger limiting).
    pub rl_dropped_aggressive: u64,
    /// Hops that never answer (or answer only ICMPv6).
    pub silent_router: u64,
    /// UDP/TCP probes eaten by destination-AS firewalls.
    pub fw_dropped: u64,
    /// Time Exceeded responses emitted.
    pub time_exceeded: u64,
    /// Echo replies emitted.
    pub echo_replies: u64,
    /// TCP responses emitted.
    pub tcp_responses: u64,
    /// Destination Unreachable code 0 (no route to destination): probes
    /// into space absent from the BGP table, rejected at the vantage AS
    /// border.
    pub du_no_route: u64,
    /// Destination Unreachable code 1 (administratively prohibited):
    /// firewalls and `AdminProhibited`-policy ASes refusing unassigned-
    /// space probes.
    pub du_admin: u64,
    /// Destination Unreachable code 3 (address unreachable): routed
    /// space whose covering subnet has no live host, under the
    /// `AddrUnreachable` policy (the default ND-failure signal).
    pub du_addr: u64,
    /// Destination Unreachable code 4 (port unreachable): UDP probes
    /// that reached a live host with no listener on the probe port —
    /// the destination itself answering.
    pub du_port: u64,
    /// Destination Unreachable code 6 (reject route): ASes whose
    /// unassigned space is covered by a discard/reject route.
    pub du_reject: u64,
    /// Dest-zone probes silently dropped by policy/ND throttling.
    pub dest_silent: u64,
    /// Fragmented echo replies emitted (speedtrap probing).
    pub frag_echo_replies: u64,
    /// Quotations whose destination a middlebox rewrote.
    pub rewritten_quotes: u64,
    /// Probes dropped at the source because their vantage was inside an
    /// injected outage window ([`crate::fault::VantageOutage`]).
    pub fault_vantage_outage: u64,
    /// Probes dropped in transit on an injected link blackhole
    /// ([`crate::fault::LinkFault`] with `flap_period_us == 0`).
    pub fault_link_blackhole: u64,
    /// Probes dropped in a down half-cycle of an injected link flap.
    pub fault_link_flap: u64,
    /// Responses suppressed because the responder was scheduled to
    /// disappear mid-campaign ([`crate::fault::ResponderDown`]).
    pub fault_responder_down: u64,
    /// Responses whose quoted probe TTL a hostile responder rewrote
    /// ([`crate::adversarial::AdversarialClass::LyingTtl`]).
    pub adv_lying_ttl: u64,
    /// Time Exceeded responses emitted with a fabricated off-topology
    /// source and an un-exhausted quoted hop limit
    /// ([`crate::adversarial::AdversarialClass::SpoofedSource`]).
    pub adv_spoofed_source: u64,
    /// Probes intercepted and answered by a zombie middlebox in place
    /// of everything deeper
    /// ([`crate::adversarial::AdversarialClass::ZombieEcho`]).
    pub adv_zombie_echo: u64,
    /// Probes answered by a duplicate-storm responder past its own
    /// depth ([`crate::adversarial::AdversarialClass::DuplicateStorm`]).
    pub adv_duplicate_storm: u64,
    /// Responses corrupted (truncated or bit-flipped) on the way out
    /// ([`crate::adversarial::AdversarialClass::GarbageBytes`]).
    pub adv_garbage: u64,
}

impl EngineStats {
    /// Accumulates another campaign's counters into this one —
    /// multi-campaign aggregation (e.g. a whole Table 7 sweep) without
    /// hand-summing fields at every call site.
    pub fn merge(&mut self, other: &EngineStats) {
        let EngineStats {
            probes,
            malformed,
            lost,
            rate_limited,
            rl_dropped_default,
            rl_dropped_aggressive,
            silent_router,
            fw_dropped,
            time_exceeded,
            echo_replies,
            tcp_responses,
            du_no_route,
            du_admin,
            du_addr,
            du_port,
            du_reject,
            dest_silent,
            frag_echo_replies,
            rewritten_quotes,
            fault_vantage_outage,
            fault_link_blackhole,
            fault_link_flap,
            fault_responder_down,
            adv_lying_ttl,
            adv_spoofed_source,
            adv_zombie_echo,
            adv_duplicate_storm,
            adv_garbage,
        } = other;
        self.probes += probes;
        self.malformed += malformed;
        self.lost += lost;
        self.rate_limited += rate_limited;
        self.rl_dropped_default += rl_dropped_default;
        self.rl_dropped_aggressive += rl_dropped_aggressive;
        self.silent_router += silent_router;
        self.fw_dropped += fw_dropped;
        self.time_exceeded += time_exceeded;
        self.echo_replies += echo_replies;
        self.tcp_responses += tcp_responses;
        self.du_no_route += du_no_route;
        self.du_admin += du_admin;
        self.du_addr += du_addr;
        self.du_port += du_port;
        self.du_reject += du_reject;
        self.dest_silent += dest_silent;
        self.frag_echo_replies += frag_echo_replies;
        self.rewritten_quotes += rewritten_quotes;
        self.fault_vantage_outage += fault_vantage_outage;
        self.fault_link_blackhole += fault_link_blackhole;
        self.fault_link_flap += fault_link_flap;
        self.fault_responder_down += fault_responder_down;
        self.adv_lying_ttl += adv_lying_ttl;
        self.adv_spoofed_source += adv_spoofed_source;
        self.adv_zombie_echo += adv_zombie_echo;
        self.adv_duplicate_storm += adv_duplicate_storm;
        self.adv_garbage += adv_garbage;
    }

    /// The accumulated counters of many campaigns (field-wise sum).
    pub fn merged<'a>(stats: impl IntoIterator<Item = &'a EngineStats>) -> EngineStats {
        let mut total = EngineStats::default();
        for s in stats {
            total.merge(s);
        }
        total
    }

    /// Total responses of any kind.
    pub fn responses(&self) -> u64 {
        self.time_exceeded + self.echo_replies + self.tcp_responses + self.dest_unreach_total()
    }

    /// All Destination Unreachable responses.
    pub fn dest_unreach_total(&self) -> u64 {
        self.du_no_route + self.du_admin + self.du_addr + self.du_port + self.du_reject
    }

    /// Non-Time-Exceeded ICMPv6 responses — the paper's depth signal
    /// (Table 3's "Other ICMPv6" column).
    pub fn other_icmp6(&self) -> u64 {
        self.echo_replies + self.dest_unreach_total()
    }

    /// All token-bucket suppressions, by limiter class
    /// `(default, aggressive)`. Never exceeds
    /// [`rate_limited`](Self::rate_limited) in sum.
    pub fn rl_dropped_by_class(&self) -> (u64, u64) {
        (self.rl_dropped_default, self.rl_dropped_aggressive)
    }

    /// All packets an injected [`FaultSchedule`](crate::fault::FaultSchedule)
    /// cost this campaign, across every fault class. A campaign whose
    /// probes all vanished into a vantage outage shows
    /// `fault_vantage_outage == probes` and zero [`responses`](Self::responses)
    /// — the blackout signature the campaign supervisor retries on.
    pub fn fault_dropped_total(&self) -> u64 {
        self.fault_vantage_outage
            + self.fault_link_blackhole
            + self.fault_link_flap
            + self.fault_responder_down
    }

    /// All hostile actions an injected
    /// [`AdversarialSchedule`](crate::adversarial::AdversarialSchedule)
    /// performed this campaign, across every class — the adversarial
    /// mirror of [`fault_dropped_total`](Self::fault_dropped_total). A
    /// benign campaign always reports zero; a poisoned one reports
    /// exactly the number of responses the engine mutated, intercepted
    /// or corrupted (each hostile response is charged at its emission
    /// site, so composed behaviors — e.g. a lying zombie — count once
    /// per class).
    pub fn adversarial_total(&self) -> u64 {
        self.adv_lying_ttl
            + self.adv_spoofed_source
            + self.adv_zombie_echo
            + self.adv_duplicate_storm
            + self.adv_garbage
    }
}

/// The simulation engine for one probing campaign.
pub struct Engine {
    topo: Arc<Topology>,
    buckets: Vec<TokenBucket>,
    /// `(vantage, dst, flow)` → index into `paths`: an open-addressed
    /// table bucketed directly by the premixed flow hash. A hit costs a
    /// masked index and one key compare — no SipHash, no `Arc`
    /// refcount traffic.
    path_cache: PathCache,
    /// Resolved paths, indexed by `path_cache` values.
    paths: Vec<ResolvedPath>,
    /// The hops of every path in `paths`, back to back.
    hop_arena: Vec<RouterId>,
    /// Buffers `route::resolve` reuses.
    resolve_scratch: ResolveScratch,
    /// What [`Engine::warm`] resolved for the probes it was shown, in
    /// the order shown; [`Engine::inject_into`] consumes it from
    /// `ahead_next` on.
    ahead: Vec<Ahead>,
    /// First entry of `ahead` no injected probe has matched or passed.
    ahead_next: usize,
    /// Per-router fragment-identification counters: one monotonic
    /// counter shared by all of a router's interfaces (the speedtrap
    /// alias signal). Seeded per router so counters are unsynchronized.
    frag_counters: Vec<u32>,
    /// Scheduled faults, copied from the topology config.
    faults: crate::fault::FaultSchedule,
    /// `!faults.is_empty()`, cached so the per-probe hot path pays one
    /// branch when no faults are scheduled.
    has_faults: bool,
    /// Added to every probe's `now_us` when evaluating the fault
    /// schedule — the campaign's start time on the supervisor's global
    /// virtual clock (see [`Engine::set_fault_offset`]). The
    /// adversarial schedule is evaluated on the same shifted clock.
    fault_offset_us: u64,
    /// Scheduled hostile responders, laid out from the topology config.
    hostiles: Hostiles,
    /// `!hostiles.is_empty()`, cached like `has_faults`.
    has_adversarial: bool,
    /// Outcome counters.
    pub stats: EngineStats,
}

impl Engine {
    /// A fresh engine (full token buckets, empty caches) over `topo`.
    pub fn new(topo: Arc<Topology>) -> Self {
        let buckets = topo
            .routers
            .iter()
            .map(|r| {
                TokenBucket::new(if r.aggressive_rl {
                    topo.config.aggressive_rl
                } else {
                    topo.config.default_rl
                })
            })
            .collect();
        let frag_counters = (0..topo.routers.len())
            .map(|i| flow::mix64(i as u64 ^ 0xf4a6) as u32)
            .collect();
        let faults = topo.config.faults.clone();
        let has_faults = !faults.is_empty();
        let hostiles = Hostiles::new(&topo.config.adversarial, topo.routers.len());
        let has_adversarial = !hostiles.is_empty();
        Engine {
            topo,
            buckets,
            path_cache: PathCache::new(),
            paths: Vec::new(),
            hop_arena: Vec::new(),
            resolve_scratch: ResolveScratch::default(),
            ahead: Vec::new(),
            ahead_next: 0,
            frag_counters,
            faults,
            has_faults,
            fault_offset_us: 0,
            hostiles,
            has_adversarial,
            stats: EngineStats::default(),
        }
    }

    /// Sets the campaign's start time on the fault schedule's clock:
    /// the schedule is evaluated at `probe send time + offset`. Probers
    /// run every campaign from virtual time 0; the campaign supervisor
    /// sets this so a retried (or later-round) campaign experiences the
    /// *remainder* of an outage window rather than replaying it —
    /// deterministic backoff in virtual time. Irrelevant (and unused)
    /// when the schedule is empty.
    pub fn set_fault_offset(&mut self, offset_us: u64) {
        self.fault_offset_us = offset_us;
    }

    /// The configured fault-clock offset (see [`Self::set_fault_offset`]).
    pub fn fault_offset(&self) -> u64 {
        self.fault_offset_us
    }

    /// The topology under test.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Resets buckets and statistics (keeps path caches — the topology is
    /// unchanged).
    pub fn reset(&mut self) {
        for (b, r) in self.buckets.iter_mut().zip(&self.topo.routers) {
            *b = TokenBucket::new(if r.aggressive_rl {
                self.topo.config.aggressive_rl
            } else {
                self.topo.config.default_rl
            });
        }
        for (i, c) in self.frag_counters.iter_mut().enumerate() {
            *c = flow::mix64(i as u64 ^ 0xf4a6) as u32;
        }
        self.stats = EngineStats::default();
    }

    /// Resolves (with caching) the forward path a probe with this header
    /// and flow takes, returning its index into the engine's path table
    /// (see [`Self::path`]).
    pub fn resolve_path_idx(&mut self, vantage_idx: u8, dst: Ipv6Addr, flow_hash: u64) -> u32 {
        let dst_word = u128::from(dst);
        if let Some(i) = self.path_cache.get(vantage_idx, dst_word, flow_hash) {
            return i;
        }
        let v = &self.topo.vantages[vantage_idx as usize];
        let p = route::resolve(
            &self.topo,
            v,
            dst,
            flow_hash,
            &mut self.resolve_scratch,
            &mut self.hop_arena,
        );
        let idx = self.paths.len() as u32;
        self.paths.push(p);
        self.path_cache
            .insert(vantage_idx, dst_word, flow_hash, idx);
        idx
    }

    /// The resolved path behind an index from [`Self::resolve_path_idx`].
    pub fn path(&self, idx: u32) -> &ResolvedPath {
        &self.paths[idx as usize]
    }

    /// The routers that path crosses, in order.
    pub fn path_hops(&self, idx: u32) -> &[RouterId] {
        self.paths[idx as usize].hops(&self.hop_arena)
    }

    /// Ground-truth suppression counts straight from the token buckets
    /// ([`crate::ratelimit::TokenBucket::suppressed`]), summed by
    /// limiter class `(default, aggressive)`. Always equals
    /// [`EngineStats::rl_dropped_by_class`] — exposed so per-round
    /// consumers can audit the stats against the buckets themselves.
    pub fn bucket_suppressed_by_class(&self) -> (u64, u64) {
        let mut default = 0;
        let mut aggressive = 0;
        for (b, r) in self.buckets.iter().zip(&self.topo.routers) {
            if r.aggressive_rl {
                aggressive += b.suppressed;
            } else {
                default += b.suppressed;
            }
        }
        (default, aggressive)
    }

    /// Injects a probe at virtual time `now_us`; returns the response
    /// delivery, if any. Allocating convenience wrapper over
    /// [`Self::inject_into`].
    pub fn inject(&mut self, wire: &[u8], now_us: u64) -> Option<Delivery> {
        let mut out = Delivery::default();
        if self.inject_into(wire, now_us, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    /// Shows the engine probes it is about to be given, in injection
    /// order: `(wire, hop limit)` pairs, where `wire` need only carry
    /// the headers the engine routes by (addresses, flow label, next
    /// header, ports) — a prober's per-target template, before the hop
    /// limit and payload are rendered into it.
    ///
    /// A randomized prober touches, per probe, one chain of unrelated
    /// memory: path-cache slot → path → hop → router → token bucket.
    /// Probe by probe those misses serialise; here each level is walked
    /// for the whole batch before the next, so a batch's misses at one
    /// level overlap, and the in-order [`Self::inject_into`] calls that
    /// follow find their lines in cache. Paths not resolved yet are
    /// resolved here.
    ///
    /// **No observable effect**: nothing is counted, no token bucket,
    /// fragment counter or fault/adversarial schedule is consulted, and
    /// bytes that do not parse as a probe are skipped (they are counted
    /// when actually injected). Only the order in which paths enter the
    /// engine's path table can differ, which nothing reports. Showing
    /// probes that are then never injected, or injecting others in
    /// between, is harmless.
    pub fn warm<'a>(&mut self, probes: impl Iterator<Item = (&'a [u8], u8)>) {
        self.ahead.clear();
        self.ahead_next = 0;
        // Level 1: routing key, flow hash, home slot of the path cache.
        for (wire, ttl) in probes {
            let Some(key) = RawKey::parse(wire) else {
                continue;
            };
            let (Some(vidx), Some(ports)) = (self.vantage_of(key.src), key.ports) else {
                continue;
            };
            let flow_hash = key.flow_hash(ports);
            self.path_cache.touch(flow_hash);
            self.ahead.push(Ahead {
                key,
                flow_hash,
                pidx: 0,
                hop_at: NO_HOP,
                vidx,
                ttl,
            });
        }
        // Level 2: the path's index (resolving it if new), its entry.
        for k in 0..self.ahead.len() {
            let Ahead {
                vidx,
                key,
                flow_hash,
                ..
            } = self.ahead[k];
            let pidx = self.resolve_path_idx(vidx, Ipv6Addr::from(key.dst), flow_hash);
            self.ahead[k].pidx = pidx;
            prefetch(&self.paths[pidx as usize]);
        }
        // Level 3: who answers — the hop the probe expires at (one more
        // level down, in the hop arena) or the path's end.
        for a in &mut self.ahead {
            let p = &self.paths[a.pidx as usize];
            let ttl = a.ttl as usize;
            if (1..=p.len()).contains(&ttl) {
                a.hop_at = p.hop_index(ttl - 1) as u32;
                prefetch(&self.hop_arena[a.hop_at as usize]);
            } else if let Some(r) = p.dst_router.or(p.dest.responder()) {
                touch_router(&self.topo, &self.buckets, r);
            }
        }
        // Level 4: the expiring hop's router and bucket.
        for a in &self.ahead {
            if a.hop_at != NO_HOP {
                let r = self.hop_arena[a.hop_at as usize];
                touch_router(&self.topo, &self.buckets, r);
            }
        }
    }

    /// What [`Self::warm`] resolved for a probe with this routing key,
    /// if it is among the entries not yet consumed: vantage and path
    /// index — exactly what the full lookup would find, since both are
    /// functions of the key alone. Entries passed over (shown but not
    /// injected) are dropped.
    #[inline]
    fn take_ahead(&mut self, key: &RawKey) -> Option<(u8, u32)> {
        let rest = &self.ahead[self.ahead_next..];
        let at = rest.iter().position(|a| a.key == *key)?;
        self.ahead_next += at + 1;
        Some((rest[at].vidx, rest[at].pidx))
    }

    /// Index of the vantage probing from `src`.
    #[inline]
    fn vantage_of(&self, src: u128) -> Option<u8> {
        self.topo
            .vantages
            .iter()
            .position(|v| u128::from(v.addr) == src)
            .map(|i| i as u8)
    }

    /// Injects a probe at virtual time `now_us`, writing any response
    /// into `out` (cleared and refilled) and returning whether one was
    /// produced.
    ///
    /// This is the hot path, and the single way in. With a reused `out`
    /// it allocates nothing for a probe whose path is already resolved;
    /// the first probe of each `(vantage, destination, flow)` resolves
    /// its path into the engine's tables, which allocate only as they
    /// grow. A caller that knows its probes ahead of time shows them to
    /// [`Self::warm`] first — resolution then happens there, and this
    /// call skips the lookup it already did; every other caller just
    /// injects, and pays for resolution and for the memory latency of
    /// its own probe order here.
    pub fn inject_into(&mut self, wire: &[u8], now_us: u64, out: &mut Delivery) -> bool {
        self.stats.probes += 1;
        let Some(key) = RawKey::parse(wire) else {
            self.stats.malformed += 1;
            return false;
        };
        // Hop limit 0 never leaves its sender: no hop to expire at.
        let hop_limit = wire[7];
        if hop_limit == 0 {
            self.stats.malformed += 1;
            return false;
        }
        let ahead = self.take_ahead(&key);
        let Some(vidx) = ahead.map(|a| a.0).or_else(|| self.vantage_of(key.src)) else {
            self.stats.malformed += 1;
            return false;
        };

        // An injected vantage outage eats the probe at the source.
        if self.has_faults
            && self
                .faults
                .vantage_down(vidx, now_us.saturating_add(self.fault_offset_us))
        {
            self.stats.fault_vantage_outage += 1;
            return false;
        }

        let Some((sport, dport)) = key.ports else {
            self.stats.malformed += 1;
            return false;
        };
        let dst = Ipv6Addr::from(key.dst);
        let pidx = match ahead {
            Some((_, pidx)) => pidx,
            None => self.resolve_path_idx(vidx, dst, key.flow_hash((sport, dport))),
        } as usize;
        let body = &wire[ip6::HEADER_LEN..];
        let vaddr = self.topo.vantages[vidx as usize].addr;
        let is_icmp = key.next_header == proto_num::ICMP6;
        let dst_word = key.dst;
        let ttl = hop_limit as usize;
        // Scalars copied out of the path so `self` stays free for the
        // mutable responder calls below; hop ids are re-read per branch.
        let (hops_len, firewall_hop, dest, dst_router) = {
            let p = &self.paths[pidx];
            (p.len(), p.firewall_hop, p.dest, p.dst_router)
        };

        // Injected link faults drop the probe at the first traversed
        // hop whose inbound link is down — checked before loss and
        // firewall draws because a dead link precedes both.
        if self.has_faults {
            let fnow = now_us.saturating_add(self.fault_offset_us);
            let traversed = ttl.min(hops_len);
            let mut hit = None;
            for &h in &self.paths[pidx].hops(&self.hop_arena)[..traversed] {
                if let Some(kind) = self.faults.link_down(h, fnow) {
                    hit = Some(kind);
                    break;
                }
            }
            match hit {
                Some(crate::fault::LinkFaultKind::Blackhole) => {
                    self.stats.fault_link_blackhole += 1;
                    return false;
                }
                Some(crate::fault::LinkFaultKind::Flap) => {
                    self.stats.fault_link_flap += 1;
                    return false;
                }
                None => {}
            }
        }

        // Transit loss applies to every probe (hash-keyed, deterministic).
        let dst_fold = (dst_word as u64) ^ ((dst_word >> 64) as u64).rotate_left(32);
        let loss_key = flow::mix2(dst_fold, (hop_limit as u64) << 32 | 0x1055);
        if flow::draw_milli(loss_key, self.topo.config.loss_milli) {
            self.stats.lost += 1;
            return false;
        }

        // Hostile in-path interception: a zombie middlebox answers for
        // every probe passing beyond it; a duplicate-storm responder
        // shadows the next [`STORM_SPREAD`] hops with stale duplicates.
        // The shallowest hostile hop wins — nothing deeper (the true
        // expiring hop, the destination) is ever reached.
        if self.has_adversarial {
            let fnow = now_us.saturating_add(self.fault_offset_us);
            let scan = hops_len.min(ttl.saturating_sub(1));
            let mut hit = None;
            {
                let hops = self.paths[pidx].hops(&self.hop_arena);
                for (i, &h) in hops[..scan].iter().enumerate() {
                    let mask = self.hostiles.mask(h);
                    if mask == 0 {
                        continue;
                    }
                    let depth = i + 1;
                    let zombie = mask & AdversarialClass::ZombieEcho.bit() != 0
                        && self.hostiles.active(h, AdversarialClass::ZombieEcho, fnow);
                    let storm = !zombie
                        && mask & AdversarialClass::DuplicateStorm.bit() != 0
                        && ttl <= depth + STORM_SPREAD
                        && self
                            .hostiles
                            .active(h, AdversarialClass::DuplicateStorm, fnow);
                    if zombie || storm {
                        hit = Some((h, prev_hop_key(hops, i, vidx), depth, zombie));
                        break;
                    }
                }
            }
            if let Some((router, prev, depth, zombie)) = hit {
                return if self.router_error(
                    router,
                    prev,
                    vaddr,
                    Icmp6Type::TimeExceeded,
                    wire,
                    now_us,
                    depth,
                    dst_word,
                    out,
                ) {
                    self.stats.time_exceeded += 1;
                    if zombie {
                        self.stats.adv_zombie_echo += 1;
                    } else {
                        self.stats.adv_duplicate_storm += 1;
                    }
                    true
                } else {
                    self.stats.rate_limited += 1;
                    false
                };
            }
        }

        // Destination-AS firewall eats UDP/TCP probes traveling past it.
        if let (Some(f), false) = (firewall_hop, is_icmp) {
            if ttl > f as usize + 1 {
                self.stats.fw_dropped += 1;
                // Firewalls mostly drop silently; a minority emit
                // admin-prohibited, rate limited like any other error.
                if !flow::draw_milli(flow::mix2(flow::mix128(dst_word), 0xf1a3), 250) {
                    return false;
                }
                let (router, prev) = {
                    let hops = self.paths[pidx].hops(&self.hop_arena);
                    (hops[f as usize], prev_hop_key(hops, f as usize, vidx))
                };
                return self.router_error(
                    router,
                    prev,
                    vaddr,
                    Icmp6Type::DestUnreachable(DestUnreachCode::AdminProhibited),
                    wire,
                    now_us,
                    f as usize + 1,
                    dst_word,
                    out,
                );
            }
        }

        if ttl <= hops_len {
            // Expires in transit at hops[ttl-1].
            if self
                .topo
                .config
                .vantage_silent_hops
                .contains(&(vidx, hop_limit))
            {
                self.stats.silent_router += 1;
                return false;
            }
            let (router, prev) = {
                let hops = self.paths[pidx].hops(&self.hop_arena);
                (hops[ttl - 1], prev_hop_key(hops, ttl - 1, vidx))
            };
            let info = &self.topo.routers[router.0 as usize];
            if !info.responsive || (info.icmp_only && !is_icmp) {
                self.stats.silent_router += 1;
                return false;
            }
            return if self.router_error(
                router,
                prev,
                vaddr,
                Icmp6Type::TimeExceeded,
                wire,
                now_us,
                ttl,
                dst_word,
                out,
            ) {
                self.stats.time_exceeded += 1;
                true
            } else {
                self.stats.rate_limited += 1;
                false
            };
        }

        // Reached the destination zone.
        let cfg = &self.topo.config;
        let (
            client_silent_milli,
            host_fw_milli,
            nohost_du_milli,
            nosubnet_du_milli,
            noroute_du_milli,
        ) = (
            cfg.client_silent_milli,
            cfg.host_fw_milli,
            cfg.nohost_du_milli,
            cfg.nosubnet_du_milli,
            cfg.noroute_du_milli,
        );
        let hops = hops_len;

        // Direct probes to a *router interface* (alias-resolution
        // probing): the router answers echoes itself; oversized echoes
        // force fragmentation and expose the shared identification
        // counter.
        if let Some(rid) = dst_router {
            let info = &self.topo.routers[rid.0 as usize];
            if !info.responsive {
                self.stats.silent_router += 1;
                return false;
            }
            if self.has_faults
                && self
                    .faults
                    .responder_down(rid, now_us.saturating_add(self.fault_offset_us))
            {
                self.stats.fault_responder_down += 1;
                return false;
            }
            if !is_icmp {
                // Routers drop unsolicited TCP/UDP to their interfaces.
                self.stats.dest_silent += 1;
                return false;
            }
            let data = &body[8..];
            // The reply's source is the probed interface itself.
            if data.len() >= 1000 {
                let id = self.frag_counters[rid.0 as usize];
                self.frag_counters[rid.0 as usize] = id.wrapping_add(1);
                self.stats.frag_echo_replies += 1;
                v6packet::frag::build_fragmented_echo_reply_into(
                    &mut out.bytes,
                    dst,
                    vaddr,
                    sport,
                    dport,
                    data,
                    64,
                    id,
                );
                self.finish(out, now_us, hops + 1, dst_word);
                return true;
            }
            self.stats.echo_replies += 1;
            icmp6::build_echo_reply_into(&mut out.bytes, dst, vaddr, sport, dport, data, 64);
            self.finish(out, now_us, hops + 1, dst_word);
            return true;
        }

        match dest {
            DestEntry::Host(kind) => {
                let silent_milli = if kind == HostKind::Client {
                    client_silent_milli
                } else {
                    host_fw_milli
                };
                if flow::draw_milli(flow::mix2(flow::mix128(dst_word), 0xf00d), silent_milli) {
                    self.stats.dest_silent += 1;
                    return false;
                }
                match key.next_header {
                    proto_num::ICMP6 => {
                        self.stats.echo_replies += 1;
                        let data = &body[8..];
                        icmp6::build_echo_reply_into(
                            &mut out.bytes,
                            dst,
                            vaddr,
                            sport,
                            dport,
                            data,
                            64,
                        );
                        self.finish(out, now_us, hops + 1, dst_word);
                        true
                    }
                    proto_num::UDP => {
                        // No listener on the probe port: port unreachable
                        // from the host itself.
                        self.stats.du_port += 1;
                        icmp6::build_error_into(
                            &mut out.bytes,
                            dst,
                            vaddr,
                            Icmp6Type::DestUnreachable(DestUnreachCode::PortUnreachable),
                            wire,
                            64,
                        );
                        self.finish(out, now_us, hops + 1, dst_word);
                        true
                    }
                    _ => {
                        self.stats.tcp_responses += 1;
                        tcp::build_response_into(
                            &mut out.bytes,
                            dst,
                            vaddr,
                            dport,
                            sport,
                            tcp::flags::RST | tcp::flags::ACK,
                            64,
                        );
                        self.finish(out, now_us, hops + 1, dst_word);
                        true
                    }
                }
            }
            DestEntry::NoHost { responder } => {
                let prev = {
                    let hops = self.paths[pidx].hops(&self.hop_arena);
                    prev_hop_key(hops, hops.len(), vidx)
                };
                self.dest_policy_response(
                    responder,
                    prev,
                    vaddr,
                    wire,
                    now_us,
                    hops,
                    nohost_du_milli,
                    dst_word,
                    out,
                )
            }
            DestEntry::NoSubnet { responder } => {
                let prev = {
                    let hops = self.paths[pidx].hops(&self.hop_arena);
                    prev_hop_key(hops, hops.len(), vidx)
                };
                self.dest_policy_response(
                    responder,
                    prev,
                    vaddr,
                    wire,
                    now_us,
                    hops,
                    nosubnet_du_milli,
                    dst_word,
                    out,
                )
            }
            DestEntry::Unrouted { responder } => {
                if !flow::draw_milli(flow::mix2(flow::mix128(dst_word), 0x2042), noroute_du_milli) {
                    self.stats.dest_silent += 1;
                    return false;
                }
                let prev = {
                    let hops = self.paths[pidx].hops(&self.hop_arena);
                    prev_hop_key(hops, hops.len(), vidx)
                };
                let r = self.router_error(
                    responder,
                    prev,
                    vaddr,
                    Icmp6Type::DestUnreachable(DestUnreachCode::NoRoute),
                    wire,
                    now_us,
                    hops,
                    dst_word,
                    out,
                );
                if r {
                    self.stats.du_no_route += 1;
                } else {
                    self.stats.rate_limited += 1;
                }
                r
            }
        }
    }

    /// Destination-zone policy response for unassigned space.
    #[allow(clippy::too_many_arguments)]
    fn dest_policy_response(
        &mut self,
        responder: RouterId,
        prev_key: u64,
        vaddr: std::net::Ipv6Addr,
        wire: &[u8],
        now_us: u64,
        hops: usize,
        du_milli: u32,
        dst_word: u128,
        out: &mut Delivery,
    ) -> bool {
        if !flow::draw_milli(flow::mix2(flow::mix128(dst_word), 0xdead), du_milli) {
            self.stats.dest_silent += 1;
            return false;
        }
        let as_idx = self.topo.routers[responder.0 as usize].as_idx;
        let code = match self.topo.ases[as_idx as usize].unknown_policy {
            UnknownAddrPolicy::AddrUnreachable => DestUnreachCode::AddrUnreachable,
            UnknownAddrPolicy::AdminProhibited => DestUnreachCode::AdminProhibited,
            UnknownAddrPolicy::RejectRoute => DestUnreachCode::RejectRoute,
            UnknownAddrPolicy::Silent => {
                self.stats.dest_silent += 1;
                return false;
            }
        };
        let r = self.router_error(
            responder,
            prev_key,
            vaddr,
            Icmp6Type::DestUnreachable(code),
            wire,
            now_us,
            hops,
            dst_word,
            out,
        );
        if r {
            match code {
                DestUnreachCode::AddrUnreachable => self.stats.du_addr += 1,
                DestUnreachCode::AdminProhibited => self.stats.du_admin += 1,
                DestUnreachCode::RejectRoute => self.stats.du_reject += 1,
                _ => {}
            }
        } else {
            self.stats.rate_limited += 1;
        }
        r
    }

    /// Emits an ICMPv6 error from `router` into `out` if its token
    /// bucket allows; `hop_count` scales the RTT.
    #[allow(clippy::too_many_arguments)]
    fn router_error(
        &mut self,
        router: RouterId,
        prev_key: u64,
        vaddr: std::net::Ipv6Addr,
        ty: Icmp6Type,
        wire: &[u8],
        now_us: u64,
        hop_count: usize,
        dst_word: u128,
        out: &mut Delivery,
    ) -> bool {
        let info = &self.topo.routers[router.0 as usize];
        if !info.responsive {
            self.stats.silent_router += 1;
            return false;
        }
        // A responder scheduled to disappear forwards but never answers
        // (its Time Exceeded / Destination Unreachable callers then add
        // their undifferentiated miss counters, like any silent hop).
        if self.has_faults
            && self
                .faults
                .responder_down(router, now_us.saturating_add(self.fault_offset_us))
        {
            self.stats.fault_responder_down += 1;
            return false;
        }
        if !self.buckets[router.0 as usize].try_consume(now_us) {
            // Charge the drop to the bucket's limiter class here, at the
            // one site where a token bucket actually suppresses; the
            // callers add the undifferentiated `rate_limited` count.
            if info.aggressive_rl {
                self.stats.rl_dropped_aggressive += 1;
            } else {
                self.stats.rl_dropped_default += 1;
            }
            return false;
        }
        // Hostile mutation flags, evaluated once the response is sure
        // to be emitted (suppressed responses charge no adv counters).
        let (adv_lie, adv_spoof, adv_garble) = if self.has_adversarial {
            let mask = self.hostiles.mask(router);
            if mask == 0 {
                (false, false, false)
            } else {
                let fnow = now_us.saturating_add(self.fault_offset_us);
                (
                    mask & AdversarialClass::LyingTtl.bit() != 0
                        && self
                            .hostiles
                            .active(router, AdversarialClass::LyingTtl, fnow),
                    // Spoofing only pays off for Time Exceeded — a
                    // spoofed Destination Unreachable names no new hop.
                    mask & AdversarialClass::SpoofedSource.bit() != 0
                        && ty == Icmp6Type::TimeExceeded
                        && self
                            .hostiles
                            .active(router, AdversarialClass::SpoofedSource, fnow),
                    mask & AdversarialClass::GarbageBytes.bit() != 0
                        && self
                            .hostiles
                            .active(router, AdversarialClass::GarbageBytes, fnow),
                )
            }
        } else {
            (false, false, false)
        };
        // Interior routers of a middlebox-fronted AS saw a *rewritten*
        // destination; their quotations carry it. The prober's target
        // checksum (in the source port / ICMPv6 id) is how this
        // tampering is detected (paper §4.1).
        let middlebox = self.topo.ases[info.as_idx as usize].middlebox
            && info.role != crate::topology::RouterRole::Border;
        if middlebox {
            self.stats.rewritten_quotes += 1;
        }
        // The source address depends on the arrival direction: multi-
        // interface routers answer from the interface facing the probe.
        // A spoofing responder fabricates a per-probe address in
        // fd00::/8 instead — provably outside the topology's 2001::/16
        // and 2a10::/16 allocations.
        let addr = if adv_spoof {
            let m = flow::mix2(
                flow::mix128(dst_word),
                ((router.0 as u64) << 8) ^ wire.get(7).copied().unwrap_or(0) as u64,
            );
            std::net::Ipv6Addr::from(
                (0xfdu128 << 120)
                    | ((m as u128) << 56)
                    | (flow::mix64(m) as u128 & 0x00ff_ffff_ffff_ffff),
            )
        } else {
            info.response_addr(router, prev_key)
        };
        // Quote the packet as the router saw it — hop limit exhausted,
        // destination possibly rewritten — patching the single copy
        // inside the response buffer. A spoofer cannot know the quoted
        // packet's residual hop limit, so its quote keeps the original
        // value instead of the exhausted 0 — the inconsistency a
        // hardened decoder rejects. A liar rewrites the quoted probe
        // payload's TTL field to a per-(router, target) fabrication.
        icmp6::build_error_quoted_into(&mut out.bytes, addr, vaddr, ty, wire, 64, |quote| {
            if ty == Icmp6Type::TimeExceeded && !adv_spoof {
                quote[7] = 0;
            }
            if middlebox {
                quote[39] ^= 0x40;
            }
            if adv_lie && quote.len() > 6 {
                let tlen = if quote[6] == proto_num::TCP { 20 } else { 8 };
                let off = 40 + tlen + 5;
                if off < quote.len() {
                    quote[off] = 1
                        + (flow::mix2(flow::mix128(dst_word), (router.0 as u64) ^ 0x11e) % 250)
                            as u8;
                }
            }
        });
        self.finish(out, now_us, hop_count, dst_word);
        if adv_garble {
            garble_bytes(
                &mut out.bytes,
                flow::mix2(flow::mix128(dst_word), (router.0 as u64) ^ 0x6a5b),
            );
        }
        if adv_lie {
            self.stats.adv_lying_ttl += 1;
        }
        if adv_spoof {
            self.stats.adv_spoofed_source += 1;
        }
        if adv_garble {
            self.stats.adv_garbage += 1;
        }
        true
    }

    /// Stamps the delivery time: `out.bytes` is already filled.
    fn finish(&self, out: &mut Delivery, now_us: u64, hop_count: usize, key: u128) {
        let lat = self.topo.config.hop_latency_us;
        let oneway = hop_count as u64 * lat + flow::jitter_us(flow::mix128(key), lat);
        out.at_us = now_us + 2 * oneway;
    }
}

/// The header fields a probe is routed by, as they sit on the wire.
/// Two probes with equal keys take the same path from the same vantage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RawKey {
    src: u128,
    dst: u128,
    /// The version / traffic class / flow label word.
    vtf: u32,
    /// Source and destination port (TCP, UDP) or identifier and
    /// sequence (ICMPv6); `None` when the transport header is cut short
    /// or of a protocol the engine does not route.
    ports: Option<(u16, u16)>,
    next_header: u8,
}

impl RawKey {
    /// `None` unless `wire` starts with a whole IPv6 header.
    #[inline]
    fn parse(wire: &[u8]) -> Option<RawKey> {
        let (hdr, body) = wire.split_first_chunk::<{ ip6::HEADER_LEN }>()?;
        let word = |at: usize| u128::from_be_bytes(*hdr[at..].first_chunk().expect("in header"));
        let vtf = u32::from_be_bytes(*hdr.first_chunk().expect("in header"));
        if vtf >> 28 != 6 {
            return None;
        }
        let next_header = hdr[6];
        let ports_at = match next_header {
            proto_num::TCP | proto_num::UDP => Some(0),
            proto_num::ICMP6 => Some(4),
            _ => None,
        };
        let ports = ports_at.and_then(|at| body.get(at..at + 4)).map(|b| {
            (
                u16::from_be_bytes([b[0], b[1]]),
                u16::from_be_bytes([b[2], b[3]]),
            )
        });
        Some(RawKey {
            src: word(8),
            dst: word(24),
            vtf,
            ports,
            next_header,
        })
    }

    /// The flow hash per-flow load balancers see.
    #[inline]
    fn flow_hash(&self, (sport, dport): (u16, u16)) -> u64 {
        FlowKey {
            src: Ipv6Addr::from(self.src),
            dst: Ipv6Addr::from(self.dst),
            flow_label: self.vtf & 0xf_ffff,
            proto: self.next_header,
            sport,
            dport,
        }
        .hash()
    }
}

/// One probe [`Engine::warm`] was shown, and what it resolved for it.
#[derive(Clone, Copy)]
struct Ahead {
    key: RawKey,
    flow_hash: u64,
    pidx: u32,
    /// Hop-arena index of the hop the probe expires at, or [`NO_HOP`].
    hop_at: u32,
    vidx: u8,
    ttl: u8,
}

const NO_HOP: u32 = u32::MAX;

/// Asks the CPU to start loading `*r` — its first and last byte, so a
/// value that straddles a cache line gets both; nothing is read. A
/// no-op off x86-64.
#[inline(always)]
pub fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint: it accesses no memory
    // architecturally and cannot fault. Both addresses lie inside `*r`,
    // a live reference, so the pointer offset stays in bounds.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let first = r as *const T as *const i8;
        _mm_prefetch::<_MM_HINT_T0>(first);
        _mm_prefetch::<_MM_HINT_T0>(first.add(size_of::<T>().saturating_sub(1)));
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

/// Starts loading the two per-router lines an answering probe touches.
#[inline]
fn touch_router(topo: &Topology, buckets: &[TokenBucket], r: RouterId) {
    prefetch(&topo.routers[r.0 as usize]);
    prefetch(&buckets[r.0 as usize]);
}

/// Corrupts a built response deterministically, keyed like every other
/// engine draw: even keys truncate the packet (sometimes inside the
/// IPv6 header, sometimes inside the ICMPv6 header), odd keys flip
/// three bytes of the ICMPv6 message. An odd number of equal-valued
/// flips can never fully cancel, so at least one checksummed byte
/// always changes — both shapes classify as a typed decode error,
/// never as a record.
fn garble_bytes(bytes: &mut Vec<u8>, key: u64) {
    if bytes.len() <= 41 {
        return;
    }
    if key & 1 == 0 {
        let keep = ((key >> 1) % 47) as usize + 1; // 1..=47
        bytes.truncate(keep.min(bytes.len() - 1));
    } else {
        let len = bytes.len();
        for k in 0..3u64 {
            let pos = 40 + ((key >> (8 + 8 * k)) as usize) % (len - 40);
            bytes[pos] ^= ((key >> 32) as u8) | 1;
        }
    }
}

/// Direction key for the hop at `idx` in `hops`: the previous router's
/// id, or a vantage marker for the first hop.
fn prev_hop_key(hops: &[RouterId], idx: usize, vidx: u8) -> u64 {
    if idx == 0 || hops.is_empty() {
        0xface_0000 + vidx as u64
    } else {
        let i = idx.min(hops.len()) - 1;
        hops[i].0 as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologyConfig;
    use crate::generate::generate;
    use v6packet::probe::{decode_quotation, ProbeSpec, Protocol};

    fn engine() -> Engine {
        Engine::new(Arc::new(generate(TopologyConfig::tiny(42))))
    }

    fn spec(e: &Engine, target: std::net::Ipv6Addr, ttl: u8, proto: Protocol) -> ProbeSpec {
        ProbeSpec {
            src: e.topology().vantages[0].addr,
            target,
            protocol: proto,
            ttl,
            instance: 1,
            elapsed_us: 0,
        }
    }

    #[test]
    fn stats_merge_accumulates_every_field() {
        // Two real campaigns' worth of stats, merged, must equal the
        // field-wise sums (checked through the derived aggregates so a
        // future field that `merge` misses fails the destructure, and
        // the totals here catch arithmetic slips).
        let mut e1 = engine();
        let mut e2 = engine();
        let hosts: Vec<std::net::Ipv6Addr> =
            e1.topology().hosts().map(|(a, _)| a).take(30).collect();
        for (i, &h) in hosts.iter().enumerate() {
            let t = (i as u64) * 1_000;
            let _ = e1.inject(
                &spec(&e1, h, (i % 12) as u8 + 1, Protocol::Icmp6).build(),
                t,
            );
            let _ = e2.inject(&spec(&e2, h, (i % 7) as u8 + 1, Protocol::Udp).build(), t);
        }
        let mut merged = e1.stats;
        merged.merge(&e2.stats);
        assert_eq!(merged.probes, e1.stats.probes + e2.stats.probes);
        assert_eq!(
            merged.responses(),
            e1.stats.responses() + e2.stats.responses()
        );
        assert_eq!(
            merged.dest_unreach_total(),
            e1.stats.dest_unreach_total() + e2.stats.dest_unreach_total()
        );
        assert_eq!(
            merged.rate_limited + merged.lost + merged.silent_router,
            e1.stats.rate_limited
                + e2.stats.rate_limited
                + e1.stats.lost
                + e2.stats.lost
                + e1.stats.silent_router
                + e2.stats.silent_router
        );
        assert_eq!(EngineStats::merged([&e1.stats, &e2.stats]), merged);
        assert_eq!(EngineStats::merged([]), EngineStats::default());

        // The injected-fault counters ride through merge like any other
        // field (the exhaustive destructure above enforces presence;
        // this pins the arithmetic and the class total).
        let faulty = EngineStats {
            fault_vantage_outage: 1,
            fault_link_blackhole: 2,
            fault_link_flap: 3,
            fault_responder_down: 4,
            ..EngineStats::default()
        };
        let mut twice = faulty;
        twice.merge(&faulty);
        assert_eq!(twice.fault_vantage_outage, 2);
        assert_eq!(twice.fault_link_blackhole, 4);
        assert_eq!(twice.fault_link_flap, 6);
        assert_eq!(twice.fault_responder_down, 8);
        assert_eq!(
            twice.fault_dropped_total(),
            2 * faulty.fault_dropped_total()
        );
        assert_eq!(faulty.fault_dropped_total(), 10);
        assert_eq!(
            merged.fault_dropped_total(),
            0,
            "clean runs charge no faults"
        );

        // And the adversarial counters, plus their rollup.
        let hostile = EngineStats {
            adv_lying_ttl: 1,
            adv_spoofed_source: 2,
            adv_zombie_echo: 3,
            adv_duplicate_storm: 4,
            adv_garbage: 5,
            ..EngineStats::default()
        };
        let mut twice = hostile;
        twice.merge(&hostile);
        assert_eq!(twice.adv_lying_ttl, 2);
        assert_eq!(twice.adv_spoofed_source, 4);
        assert_eq!(twice.adv_zombie_echo, 6);
        assert_eq!(twice.adv_duplicate_storm, 8);
        assert_eq!(twice.adv_garbage, 10);
        assert_eq!(twice.adversarial_total(), 2 * hostile.adversarial_total());
        assert_eq!(hostile.adversarial_total(), 15);
        assert_eq!(
            merged.adversarial_total(),
            0,
            "benign runs charge no adversarial actions"
        );
    }

    #[test]
    fn hop1_time_exceeded_roundtrip() {
        let mut e = engine();
        let (host, _) = e.topology().hosts().next().unwrap();
        let s = spec(&e, host, 1, Protocol::Icmp6);
        let d = e.inject(&s.build(), 0).expect("hop 1 must answer at t=0");
        assert!(d.at_us > 0);
        let (outer, msg) = icmp6::parse(&d.bytes).unwrap();
        assert_eq!(msg.ty, Icmp6Type::TimeExceeded);
        // First hop is the first on-prem router.
        let first = e.topology().vantages[0].onprem[0];
        assert_eq!(outer.src, e.topology().routers[first.0 as usize].addr);
        let dec = decode_quotation(&msg.body).unwrap();
        assert_eq!(dec.target, host);
        assert_eq!(dec.ttl, 1);
        assert!(dec.target_cksum_ok);
    }

    #[test]
    fn full_trace_reaches_host() {
        let mut e = engine();
        // Find a non-client host (clients are mostly firewalled).
        let (host, _) = e
            .topology()
            .hosts()
            .find(|(_, k)| *k == HostKind::Server)
            .unwrap();
        let mut reached = false;
        for ttl in 1..=32u8 {
            let s = spec(&e, host, ttl, Protocol::Icmp6);
            if let Some(d) = e.inject(&s.build(), ttl as u64 * 100_000) {
                if let Some((outer, msg)) = icmp6::parse(&d.bytes) {
                    if msg.ty == Icmp6Type::EchoReply {
                        assert_eq!(outer.src, host);
                        reached = true;
                    }
                }
            }
        }
        // Host firewalls are hash-keyed; most Server hosts respond. If
        // this specific host is firewalled the test would be vacuous, so
        // assert via stats instead: either reached or dest_silent.
        assert!(reached || e.stats.dest_silent > 0);
    }

    #[test]
    fn udp_to_host_yields_port_unreachable() {
        let mut e = engine();
        // Pick a server in a non-firewalling AS.
        let topo = e.topology().clone();
        let target = topo
            .hosts()
            .find(|(a, k)| {
                *k == HostKind::Server
                    && topo
                        .bgp
                        .origin(*a)
                        .and_then(|asn| topo.as_by_asn(asn))
                        .map(|i| !topo.ases[i as usize].fw_blocks_udp_tcp)
                        .unwrap_or(false)
                    && !flow::draw_milli(
                        flow::mix2(flow::mix128(u128::from(*a)), 0xf00d),
                        topo.config.host_fw_milli,
                    )
            })
            .map(|(a, _)| a)
            .expect("an unfirewalled server must exist");
        let mut got_port_unreach = false;
        for ttl in 1..=32u8 {
            let s = spec(&e, target, ttl, Protocol::Udp);
            if let Some(d) = e.inject(&s.build(), ttl as u64 * 100_000) {
                if let Some((outer, msg)) = icmp6::parse(&d.bytes) {
                    if msg.ty == Icmp6Type::DestUnreachable(DestUnreachCode::PortUnreachable) {
                        assert_eq!(outer.src, target);
                        let dec = decode_quotation(&msg.body).unwrap();
                        assert_eq!(dec.target, target);
                        got_port_unreach = true;
                    }
                }
            }
        }
        assert!(got_port_unreach);
    }

    #[test]
    fn rate_limiting_suppresses_bursts() {
        let mut e = engine();
        let (host, _) = e.topology().hosts().next().unwrap();
        // Hammer hop 1 with TTL-1 probes at effectively infinite rate.
        let mut answered = 0;
        let n = 1_000;
        for i in 0..n {
            let s = spec(&e, host, 1, Protocol::Icmp6);
            if e.inject(&s.build(), i as u64).is_some() {
                answered += 1;
            }
        }
        assert!(answered < n / 2, "rate limiting must bite: {answered}/{n}");
        assert!(e.stats.rate_limited > 0);
        // The same burst spread over several virtual minutes succeeds.
        e.reset();
        let mut answered_slow = 0;
        for i in 0..200u64 {
            let s = spec(&e, host, 1, Protocol::Icmp6);
            if e.inject(&s.build(), i * 50_000).is_some() {
                answered_slow += 1;
            }
        }
        assert!(
            answered_slow >= 190,
            "slow probing mostly answered: {answered_slow}"
        );
    }

    #[test]
    fn rate_limit_drops_are_classed_and_bucket_audited() {
        let mut e = engine();
        let topo = e.topology().clone();
        // Broad load across many destinations and TTLs at a hot rate:
        // both limiter classes should see suppressions somewhere.
        let mut t = 0u64;
        for (host, _) in topo.hosts().take(120) {
            for ttl in 1..=10u8 {
                let s = spec(&e, host, ttl, Protocol::Icmp6);
                e.inject(&s.build(), t);
                t += 20; // 50k pps aggregate
            }
        }
        let (def, agg) = e.stats.rl_dropped_by_class();
        assert!(def + agg > 0, "workload must trip rate limiting");
        // The stats' class split is exactly the buckets' own counters.
        assert_eq!((def, agg), e.bucket_suppressed_by_class());
        // Every classed drop is a rate_limited drop (the reverse can
        // differ: unresponsive dest responders also land there).
        assert!(def + agg <= e.stats.rate_limited);
        // merge carries the class split.
        let mut m = EngineStats::default();
        m.merge(&e.stats);
        m.merge(&e.stats);
        assert_eq!(m.rl_dropped_default, 2 * def);
        assert_eq!(m.rl_dropped_aggressive, 2 * agg);
    }

    #[test]
    fn responses_arrive_later_for_farther_hops() {
        let mut e = engine();
        let (host, _) = e.topology().hosts().next().unwrap();
        let d1 = e
            .inject(&spec(&e, host, 1, Protocol::Icmp6).build(), 0)
            .unwrap();
        // TTL 3 is still on-prem+border, always present.
        let d3 = e
            .inject(&spec(&e, host, 3, Protocol::Icmp6).build(), 0)
            .unwrap();
        assert!(d3.at_us > d1.at_us);
    }

    #[test]
    fn stats_account_for_every_probe() {
        let mut e = engine();
        let topo = e.topology().clone();
        let mut n = 0u64;
        for (host, _) in topo.hosts().take(50) {
            for ttl in 1..=20u8 {
                let s = spec(&e, host, ttl, Protocol::Icmp6);
                e.inject(&s.build(), n * 1_000);
                n += 1;
            }
        }
        let s = e.stats;
        assert_eq!(s.probes, n);
        let accounted =
            s.responses() + s.lost + s.rate_limited + s.silent_router + s.dest_silent + s.malformed;
        // fw_dropped probes may still produce an admin-prohibited reply
        // (counted in responses) or be rate-limited; they are not a
        // disjoint outcome, so accounted >= probes - fw_dropped overlap.
        assert!(
            accounted >= s.probes,
            "unaccounted probes: {} < {}",
            accounted,
            s.probes
        );
    }

    #[test]
    fn vantage_outage_eats_probes_inside_the_window() {
        let mut cfg = TopologyConfig::tiny(42);
        cfg.faults = crate::fault::FaultSchedule::default().with_vantage_outage(0, 10_000, 50_000);
        let mut e = Engine::new(Arc::new(generate(cfg)));
        let (host, _) = e.topology().hosts().next().unwrap();
        // Before the window: hop 1 answers as usual.
        assert!(e
            .inject(&spec(&e, host, 1, Protocol::Icmp6).build(), 0)
            .is_some());
        // Inside: dropped at the source, charged to the outage counter.
        assert!(e
            .inject(&spec(&e, host, 1, Protocol::Icmp6).build(), 20_000)
            .is_none());
        assert_eq!(e.stats.fault_vantage_outage, 1);
        // After: answers again (fresh tokens accrued meanwhile).
        assert!(e
            .inject(&spec(&e, host, 1, Protocol::Icmp6).build(), 60_000)
            .is_some());
        // Other vantages are untouched throughout.
        let v1 = e.topology().vantages[1].addr;
        let s = ProbeSpec {
            src: v1,
            target: host,
            protocol: Protocol::Icmp6,
            ttl: 1,
            instance: 1,
            elapsed_us: 0,
        };
        assert!(e.inject(&s.build(), 20_000).is_some());
        assert_eq!(e.stats.fault_vantage_outage, 1);
    }

    #[test]
    fn fault_offset_shifts_the_schedule_clock() {
        let mut cfg = TopologyConfig::tiny(42);
        cfg.faults = crate::fault::FaultSchedule::default().with_vantage_outage(0, 0, 100_000);
        let mut e = Engine::new(Arc::new(generate(cfg)));
        let (host, _) = e.topology().hosts().next().unwrap();
        assert!(e
            .inject(&spec(&e, host, 1, Protocol::Icmp6).build(), 0)
            .is_none());
        assert_eq!(e.stats.fault_vantage_outage, 1);
        // A retried campaign starting at +100ms on the supervisor's
        // clock sees the window already over.
        e.reset();
        e.set_fault_offset(100_000);
        assert_eq!(e.fault_offset(), 100_000);
        assert!(e
            .inject(&spec(&e, host, 1, Protocol::Icmp6).build(), 0)
            .is_some());
        assert_eq!(e.stats.fault_vantage_outage, 0);
    }

    #[test]
    fn link_blackhole_and_flap_drop_transit_probes() {
        let base = TopologyConfig::tiny(42);
        let clean = Engine::new(Arc::new(generate(base.clone())));
        let first = clean.topology().vantages[0].onprem[0];

        let mut cfg = base.clone();
        cfg.faults = crate::fault::FaultSchedule::default().with_link_blackhole(first, 0, u64::MAX);
        let mut e = Engine::new(Arc::new(generate(cfg)));
        let (host, _) = e.topology().hosts().next().unwrap();
        // Every probe from vantage 0 crosses its first on-prem hop.
        for ttl in 1..=4u8 {
            assert!(e
                .inject(
                    &spec(&e, host, ttl, Protocol::Icmp6).build(),
                    ttl as u64 * 1_000
                )
                .is_none());
        }
        assert_eq!(e.stats.fault_link_blackhole, 4);
        assert_eq!(e.stats.responses(), 0);

        let mut cfg = base;
        cfg.faults =
            crate::fault::FaultSchedule::default().with_link_flap(first, 0, u64::MAX, 10_000);
        let mut e = Engine::new(Arc::new(generate(cfg)));
        // Down half-cycle [0,10ms): dropped; up half-cycle [10,20ms):
        // delivered.
        assert!(e
            .inject(&spec(&e, host, 1, Protocol::Icmp6).build(), 5_000)
            .is_none());
        assert!(e
            .inject(&spec(&e, host, 1, Protocol::Icmp6).build(), 15_000)
            .is_some());
        assert_eq!(e.stats.fault_link_flap, 1);
    }

    #[test]
    fn responder_disappearance_silences_but_keeps_forwarding() {
        let base = TopologyConfig::tiny(42);
        let clean = Engine::new(Arc::new(generate(base.clone())));
        let first = clean.topology().vantages[0].onprem[0];

        let mut cfg = base;
        cfg.faults = crate::fault::FaultSchedule::default().with_responder_down(first, 50_000);
        let mut e = Engine::new(Arc::new(generate(cfg)));
        let (host, _) = e.topology().hosts().next().unwrap();
        // Before the disappearance the hop answers.
        assert!(e
            .inject(&spec(&e, host, 1, Protocol::Icmp6).build(), 0)
            .is_some());
        // After it: TTL-1 probes get nothing from the dead hop…
        assert!(e
            .inject(&spec(&e, host, 1, Protocol::Icmp6).build(), 60_000)
            .is_none());
        assert!(e.stats.fault_responder_down >= 1);
        // …but deeper probes still pass through it (it forwards).
        assert!(e
            .inject(&spec(&e, host, 2, Protocol::Icmp6).build(), 70_000)
            .is_some());
        // Faulted-run bookkeeping still covers every probe.
        let s = e.stats;
        let accounted = s.responses()
            + s.lost
            + s.rate_limited
            + s.silent_router
            + s.dest_silent
            + s.malformed
            + s.fault_vantage_outage
            + s.fault_link_blackhole
            + s.fault_link_flap;
        assert!(accounted >= s.probes);
    }

    #[test]
    fn icmp_penetrates_firewalled_ases_deeper_than_udp() {
        let mut e = engine();
        let topo = e.topology().clone();
        let fw_as = topo
            .ases
            .iter()
            .position(|a| a.fw_blocks_udp_tcp && a.subnet_root.is_some())
            .expect("firewalled stub with subnets") as u32;
        // A host inside the firewalled AS.
        let target = topo
            .hosts()
            .find(|(a, _)| topo.bgp.origin(*a).and_then(|x| topo.as_by_asn(x)) == Some(fw_as))
            .map(|(a, _)| a)
            .expect("host in firewalled AS");
        let mut icmp_hops = std::collections::HashSet::new();
        let mut udp_hops = std::collections::HashSet::new();
        for ttl in 1..=24u8 {
            let t = ttl as u64 * 200_000;
            if let Some(d) = e.inject(&spec(&e, target, ttl, Protocol::Icmp6).build(), t) {
                if let Some((outer, msg)) = icmp6::parse(&d.bytes) {
                    if msg.ty == Icmp6Type::TimeExceeded {
                        icmp_hops.insert(outer.src);
                    }
                }
            }
            if let Some(d) = e.inject(&spec(&e, target, ttl, Protocol::Udp).build(), t + 50_000) {
                if let Some((outer, msg)) = icmp6::parse(&d.bytes) {
                    if msg.ty == Icmp6Type::TimeExceeded {
                        udp_hops.insert(outer.src);
                    }
                }
            }
        }
        assert!(
            icmp_hops.len() > udp_hops.len(),
            "icmp {} <= udp {}",
            icmp_hops.len(),
            udp_hops.len()
        );
    }
}

#[cfg(test)]
mod adversarial_tests {
    use super::*;
    use crate::adversarial::{AdversarialClass, AdversarialSchedule};
    use crate::config::TopologyConfig;
    use crate::generate::generate;
    use v6packet::probe::{decode_quotation, ProbeSpec, Protocol};

    fn spec(e: &Engine, target: std::net::Ipv6Addr, ttl: u8) -> ProbeSpec {
        ProbeSpec {
            src: e.topology().vantages[0].addr,
            target,
            protocol: Protocol::Icmp6,
            ttl,
            instance: 1,
            elapsed_us: 0,
        }
    }

    /// An engine whose vantage-0 first on-prem hop (on every path from
    /// vantage 0) is permanently hostile in `class`.
    fn hostile_engine(class: AdversarialClass) -> (Engine, RouterId) {
        let base = TopologyConfig::tiny(42);
        let clean = Engine::new(Arc::new(generate(base.clone())));
        let first = clean.topology().vantages[0].onprem[0];
        let mut cfg = base;
        cfg.adversarial = AdversarialSchedule::default().with_hostile_always(first, class);
        (Engine::new(Arc::new(generate(cfg))), first)
    }

    #[test]
    fn lying_ttl_rewrites_the_quoted_probe_ttl() {
        let (mut e, _) = hostile_engine(AdversarialClass::LyingTtl);
        let topo = e.topology().clone();
        let mut lied = false;
        let mut answered = 0u64;
        for (i, (host, _)) in topo.hosts().take(8).enumerate() {
            let Some(d) = e.inject(&spec(&e, host, 1).build(), i as u64 * 100_000) else {
                continue;
            };
            let (_, msg) = icmp6::parse(&d.bytes).expect("lying responses still parse");
            assert_eq!(msg.ty, Icmp6Type::TimeExceeded);
            let dec = decode_quotation(&msg.body).unwrap();
            assert_eq!(dec.target, host);
            assert!(dec.target_cksum_ok, "a TTL lie leaves the target intact");
            if dec.ttl != 1 {
                lied = true;
            }
            answered += 1;
        }
        assert!(answered > 0);
        assert!(lied, "per-target lies must move records off the true TTL");
        assert_eq!(e.stats.adv_lying_ttl, answered);
        assert_eq!(e.stats.adversarial_total(), answered);
    }

    #[test]
    fn spoofed_source_is_off_topology_with_unexhausted_quote() {
        let (mut e, _) = hostile_engine(AdversarialClass::SpoofedSource);
        let topo = e.topology().clone();
        let mut answered = 0u64;
        for (i, (host, _)) in topo.hosts().take(8).enumerate() {
            let Some(d) = e.inject(&spec(&e, host, 1).build(), i as u64 * 100_000) else {
                continue;
            };
            let (outer, msg) = icmp6::parse(&d.bytes).unwrap();
            assert_eq!(msg.ty, Icmp6Type::TimeExceeded);
            assert_eq!(
                u128::from(outer.src) >> 120,
                0xfd,
                "fabricated source lives in fd00::/8, off the topology"
            );
            assert_ne!(
                msg.body[7], 0,
                "a spoofer cannot know the residual hop limit: quote stays unexhausted"
            );
            answered += 1;
        }
        assert!(answered > 0);
        assert_eq!(e.stats.adv_spoofed_source, answered);
    }

    #[test]
    fn zombie_answers_for_every_ttl_past_its_depth() {
        let (mut e, _) = hostile_engine(AdversarialClass::ZombieEcho);
        let topo = e.topology().clone();
        let (host, _) = topo.hosts().next().unwrap();
        // TTL 1: the zombie is simply the true expiring hop.
        let base_src = {
            let d = e
                .inject(&spec(&e, host, 1).build(), 0)
                .expect("hop 1 answers");
            icmp6::parse(&d.bytes).unwrap().0.src
        };
        let mut intercepted = 0u64;
        for ttl in 2..=8u8 {
            let Some(d) = e.inject(&spec(&e, host, ttl).build(), ttl as u64 * 200_000) else {
                continue;
            };
            let (outer, msg) = icmp6::parse(&d.bytes).unwrap();
            assert_eq!(msg.ty, Icmp6Type::TimeExceeded);
            assert_eq!(
                outer.src, base_src,
                "every deeper probe is answered by the zombie itself"
            );
            intercepted += 1;
        }
        assert!(intercepted > 0);
        assert_eq!(e.stats.adv_zombie_echo, intercepted);
        assert_eq!(e.stats.echo_replies, 0, "the destination is never reached");
    }

    #[test]
    fn duplicate_storm_shadows_only_the_next_spread_ttls() {
        let (mut e, _) = hostile_engine(AdversarialClass::DuplicateStorm);
        let topo = e.topology().clone();
        let mut checked = false;
        for (i, (host, _)) in topo.hosts().take(8).enumerate() {
            let t0 = i as u64 * 1_000_000;
            let r = |e: &mut Engine, ttl: u8, t: u64| {
                e.inject(&spec(e, host, ttl).build(), t)
                    .and_then(|d| icmp6::parse(&d.bytes).map(|(o, _)| o.src))
            };
            let (Some(s1), Some(s2), Some(s3)) = (
                r(&mut e, 1, t0),
                r(&mut e, 2, t0 + 200_000),
                r(&mut e, 3, t0 + 400_000),
            ) else {
                continue;
            };
            assert_eq!(s2, s1, "TTL 2 shadowed by the storm responder");
            assert_eq!(s3, s1, "TTL 3 shadowed by the storm responder");
            if let Some(s4) = r(&mut e, 4, t0 + 600_000) {
                assert_ne!(s4, s1, "TTL 4 is past the spread: the true hop answers");
            }
            checked = true;
            break;
        }
        assert!(checked, "a host with responses at TTL 1..=3 must exist");
        assert_eq!(e.stats.adv_duplicate_storm, 2);
    }

    #[test]
    fn garbage_bytes_never_parse_as_a_response() {
        let (mut e, _) = hostile_engine(AdversarialClass::GarbageBytes);
        let topo = e.topology().clone();
        let mut answered = 0u64;
        for (i, (host, _)) in topo.hosts().take(12).enumerate() {
            let Some(d) = e.inject(&spec(&e, host, 1).build(), i as u64 * 100_000) else {
                continue;
            };
            assert!(
                icmp6::parse(&d.bytes).is_none(),
                "garbled bytes must fail checksum/length validation"
            );
            answered += 1;
        }
        assert!(answered > 0);
        assert_eq!(e.stats.adv_garbage, answered);
    }

    #[test]
    fn composed_classes_each_charge_their_counter() {
        let base = TopologyConfig::tiny(42);
        let clean = Engine::new(Arc::new(generate(base.clone())));
        let first = clean.topology().vantages[0].onprem[0];
        let mut cfg = base;
        cfg.adversarial = AdversarialSchedule::default()
            .with_hostile_always(first, AdversarialClass::ZombieEcho)
            .with_hostile_always(first, AdversarialClass::SpoofedSource);
        let mut e = Engine::new(Arc::new(generate(cfg)));
        let topo = e.topology().clone();
        let mut hit = false;
        for (i, (host, _)) in topo.hosts().take(8).enumerate() {
            let Some(d) = e.inject(&spec(&e, host, 3).build(), i as u64 * 200_000) else {
                continue;
            };
            let (outer, _) = icmp6::parse(&d.bytes).unwrap();
            assert_eq!(u128::from(outer.src) >> 120, 0xfd, "spoof composes");
            hit = true;
            break;
        }
        assert!(hit);
        assert_eq!(e.stats.adv_zombie_echo, 1, "interception charged");
        assert_eq!(e.stats.adv_spoofed_source, 1, "spoofing charged");
        assert_eq!(e.stats.adversarial_total(), 2);
    }

    #[test]
    fn windows_respect_the_shifted_virtual_clock() {
        let base = TopologyConfig::tiny(42);
        let clean = Engine::new(Arc::new(generate(base.clone())));
        let first = clean.topology().vantages[0].onprem[0];
        let mut cfg = base;
        cfg.adversarial = AdversarialSchedule::default().with_hostile(
            first,
            AdversarialClass::LyingTtl,
            100_000,
            200_000,
        );
        let mut e = Engine::new(Arc::new(generate(cfg)));
        let (host, _) = e.topology().hosts().next().unwrap();
        let _ = e.inject(&spec(&e, host, 1).build(), 0);
        assert_eq!(e.stats.adv_lying_ttl, 0, "before the window: honest");
        let _ = e.inject(&spec(&e, host, 1).build(), 150_000);
        assert_eq!(e.stats.adv_lying_ttl, 1, "inside the window: lying");
        // A retried campaign starting past the window sees honesty.
        e.reset();
        e.set_fault_offset(200_000);
        let _ = e.inject(&spec(&e, host, 1).build(), 0);
        assert_eq!(e.stats.adv_lying_ttl, 0, "offset clock is shared");
    }
}

#[cfg(test)]
mod middlebox_tests {
    use super::*;
    use crate::config::TopologyConfig;
    use crate::generate::generate;
    use crate::topology::AsTier;
    use v6packet::probe::{decode_quotation, ProbeSpec, Protocol};

    /// Probes into a middlebox-fronted AS produce quotations whose
    /// destination fails the target checksum — and only those.
    #[test]
    fn middlebox_rewrites_are_detectable() {
        let mut cfg = TopologyConfig::tiny(42);
        cfg.middlebox_milli = 400; // make boxes common for the test
        let topo = std::sync::Arc::new(generate(cfg));
        let mb_as = topo
            .ases
            .iter()
            .position(|a| a.middlebox && matches!(a.tier, AsTier::Stub) && a.subnet_root.is_some())
            .expect("a middlebox stub must exist at 40%") as u32;
        let target = topo
            .hosts()
            .find(|(a, _)| topo.bgp.origin(*a).and_then(|x| topo.as_by_asn(x)) == Some(mb_as))
            .map(|(a, _)| a)
            .expect("host in middlebox AS");
        let mut e = Engine::new(topo.clone());
        let mut saw_rewrite = false;
        let mut saw_clean = false;
        for ttl in 1..=24u8 {
            let spec = ProbeSpec {
                src: topo.vantages[1].addr,
                target,
                protocol: Protocol::Icmp6,
                ttl,
                instance: 1,
                elapsed_us: 0,
            };
            if let Some(d) = e.inject(&spec.build(), ttl as u64 * 200_000) {
                if let Some((_, msg)) = v6packet::icmp6::parse(&d.bytes) {
                    if msg.ty == v6packet::icmp6::Icmp6Type::TimeExceeded {
                        let dec = decode_quotation(&msg.body).unwrap();
                        if dec.target_cksum_ok {
                            saw_clean = true; // transit hops before the box
                        } else {
                            saw_rewrite = true; // interior hops behind it
                            assert_ne!(dec.target, target);
                        }
                    }
                }
            }
        }
        assert!(saw_clean, "transit quotations must stay clean");
        assert!(saw_rewrite, "interior quotations must be rewritten");
        assert!(e.stats.rewritten_quotes > 0);
    }
}
