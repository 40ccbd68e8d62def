//! The **seed** packet engine, vendored verbatim (modulo imports) from
//! commit `f54a62c` for benchmark baselining: SipHash path cache keyed to
//! `Arc<ResolvedPath>` clones, `wire.to_vec()` quotations, allocating
//! response builders, and a second header decode per error — everything
//! the hot-path rework removed. Benchmarks compare
//! [`simnet::Engine::inject_into`] against [`SeedEngine::inject`] so the
//! speedup is measured against real seed code, not a reconstruction.
//!
//! Not for production use: the simulator's engine is `simnet::Engine`.
//!
//! The per-probe flow hash is also the seed's (`seed_flow_hash` below):
//! the current `FlowKey::hash` was since re-budgeted, and the baseline
//! must carry the seed's full per-probe cost. Because the hash and the
//! loss-key derivation differ from the current engine, `SeedEngine`'s
//! *outputs* (ECMP choices, loss draws) are not comparable with
//! `simnet::Engine` — only its throughput is.

use simnet::engine::{Delivery, EngineStats};
use simnet::flow::{self, FlowKey};
use simnet::ratelimit::TokenBucket;
use simnet::route::{self, DestEntry};
use simnet::topology::{HostKind, RouterId, Topology, UnknownAddrPolicy};
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::Arc;
use v6packet::icmp6::{DestUnreachCode, Icmp6Type};
use v6packet::{ip6, proto_num, tcp, Ipv6Header};

/// A resolved path as the seed held it: one owned hop list per path.
pub struct SeedPath {
    hops: Vec<RouterId>,
    dest: DestEntry,
    firewall_hop: Option<u8>,
}

impl SeedPath {
    fn len(&self) -> usize {
        self.hops.len()
    }
}

/// The simulation engine for one probing campaign.
pub struct SeedEngine {
    topo: Arc<Topology>,
    buckets: Vec<TokenBucket>,
    path_cache: HashMap<(u8, u128, u64), Arc<SeedPath>>,
    /// Per-router fragment-identification counters: one monotonic
    /// counter shared by all of a router's interfaces (the speedtrap
    /// alias signal). Seeded per router so counters are unsynchronized.
    frag_counters: Vec<u32>,
    /// Outcome counters.
    pub stats: EngineStats,
}

impl SeedEngine {
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
        SeedEngine {
            topo,
            buckets,
            path_cache: HashMap::new(),
            frag_counters,
            stats: EngineStats::default(),
        }
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
    /// and flow takes.
    pub fn resolve_path(
        &mut self,
        vantage_idx: u8,
        dst: std::net::Ipv6Addr,
        flow_hash: u64,
    ) -> Arc<SeedPath> {
        let key = (vantage_idx, u128::from(dst), flow_hash);
        if let Some(p) = self.path_cache.get(&key) {
            return p.clone();
        }
        let v = &self.topo.vantages[vantage_idx as usize];
        let mut hops = Vec::new();
        let p = route::resolve(
            &self.topo,
            v,
            dst,
            flow_hash,
            &mut Default::default(),
            &mut hops,
        );
        let p = Arc::new(SeedPath {
            hops,
            dest: p.dest,
            firewall_hop: p.firewall_hop,
        });
        self.path_cache.insert(key, p.clone());
        p
    }

    /// Injects a probe at virtual time `now_us`; returns the response
    /// delivery, if any.
    pub fn inject(&mut self, wire: &[u8], now_us: u64) -> Option<Delivery> {
        self.stats.probes += 1;
        let Some(hdr) = Ipv6Header::decode(wire) else {
            self.stats.malformed += 1;
            return None;
        };
        let Some(vidx) = self
            .topo
            .vantages
            .iter()
            .position(|v| v.addr == hdr.src)
            .map(|i| i as u8)
        else {
            self.stats.malformed += 1;
            return None;
        };

        // Flow key from the transport header.
        let body = &wire[ip6::HEADER_LEN.min(wire.len())..];
        let (sport, dport) = match hdr.next_header {
            proto_num::TCP | proto_num::UDP if body.len() >= 4 => (
                u16::from_be_bytes([body[0], body[1]]),
                u16::from_be_bytes([body[2], body[3]]),
            ),
            proto_num::ICMP6 if body.len() >= 8 => (
                u16::from_be_bytes([body[4], body[5]]),
                u16::from_be_bytes([body[6], body[7]]),
            ),
            _ => {
                self.stats.malformed += 1;
                return None;
            }
        };
        let fk = FlowKey {
            src: hdr.src,
            dst: hdr.dst,
            flow_label: hdr.flow_label,
            proto: hdr.next_header,
            sport,
            dport,
        };
        let flow_hash = seed_flow_hash(&fk);
        let path = self.resolve_path(vidx, hdr.dst, flow_hash);
        let vaddr = self.topo.vantages[vidx as usize].addr;
        let is_icmp = hdr.next_header == proto_num::ICMP6;
        let dst_word = u128::from(hdr.dst);
        let ttl = hdr.hop_limit as usize;

        // Transit loss applies to every probe (hash-keyed, deterministic).
        let loss_key = flow::mix2(
            flow::mix2(dst_word as u64, (dst_word >> 64) as u64),
            (hdr.hop_limit as u64) << 32 | 0x1055,
        );
        if flow::draw_milli(loss_key, self.topo.config.loss_milli) {
            self.stats.lost += 1;
            return None;
        }

        // Destination-AS firewall eats UDP/TCP probes traveling past it.
        if let (Some(f), false) = (path.firewall_hop, is_icmp) {
            if ttl > f as usize + 1 {
                self.stats.fw_dropped += 1;
                // Firewalls mostly drop silently; a minority emit
                // admin-prohibited, rate limited like any other error.
                if !flow::draw_milli(flow::mix2(flow::mix128(dst_word), 0xf1a3), 250) {
                    return None;
                }
                let router = path.hops[f as usize];
                let prev = prev_hop_key(&path.hops, f as usize, vidx);
                return self.router_error(
                    router,
                    prev,
                    vaddr,
                    Icmp6Type::DestUnreachable(DestUnreachCode::AdminProhibited),
                    wire,
                    now_us,
                    f as usize + 1,
                );
            }
        }

        if ttl <= path.len() {
            // Expires in transit at hops[ttl-1].
            if self
                .topo
                .config
                .vantage_silent_hops
                .contains(&(vidx, hdr.hop_limit))
            {
                self.stats.silent_router += 1;
                return None;
            }
            let router = path.hops[ttl - 1];
            let info = &self.topo.routers[router.0 as usize];
            if !info.responsive || (info.icmp_only && !is_icmp) {
                self.stats.silent_router += 1;
                return None;
            }
            let prev = prev_hop_key(&path.hops, ttl - 1, vidx);
            return self
                .router_error(
                    router,
                    prev,
                    vaddr,
                    Icmp6Type::TimeExceeded,
                    wire,
                    now_us,
                    ttl,
                )
                .inspect(|_| self.stats.time_exceeded += 1)
                .or_else(|| {
                    self.stats.rate_limited += 1;
                    None
                });
        }

        // Reached the destination zone.
        let cfg = &self.topo.config;
        let hops = path.len();

        // Direct probes to a *router interface* (alias-resolution
        // probing): the router answers echoes itself; oversized echoes
        // force fragmentation and expose the shared identification
        // counter.
        if let Some(rid) = self.topo.router_by_iface(hdr.dst) {
            let info = &self.topo.routers[rid.0 as usize];
            if !info.responsive {
                self.stats.silent_router += 1;
                return None;
            }
            if !is_icmp {
                // Routers drop unsolicited TCP/UDP to their interfaces.
                self.stats.dest_silent += 1;
                return None;
            }
            let data = &body[8..];
            // The reply's source is the probed interface itself.
            if data.len() >= 1000 {
                let id = self.frag_counters[rid.0 as usize];
                self.frag_counters[rid.0 as usize] = id.wrapping_add(1);
                self.stats.frag_echo_replies += 1;
                let bytes =
                    seed_build_fragmented_echo_reply(hdr.dst, vaddr, sport, dport, data, 64, id);
                return Some(self.deliver(bytes, now_us, hops + 1, dst_word));
            }
            self.stats.echo_replies += 1;
            let bytes = seed_build_echo_reply(hdr.dst, vaddr, sport, dport, data, 64);
            return Some(self.deliver(bytes, now_us, hops + 1, dst_word));
        }

        match path.dest {
            DestEntry::Host(kind) => {
                let silent_milli = if kind == HostKind::Client {
                    cfg.client_silent_milli
                } else {
                    cfg.host_fw_milli
                };
                if flow::draw_milli(flow::mix2(flow::mix128(dst_word), 0xf00d), silent_milli) {
                    self.stats.dest_silent += 1;
                    return None;
                }
                match hdr.next_header {
                    proto_num::ICMP6 => {
                        self.stats.echo_replies += 1;
                        let data = &body[8..];
                        let bytes = seed_build_echo_reply(hdr.dst, vaddr, sport, dport, data, 64);
                        Some(self.deliver(bytes, now_us, hops + 1, dst_word))
                    }
                    proto_num::UDP => {
                        // No listener on the probe port: port unreachable
                        // from the host itself.
                        self.stats.du_port += 1;
                        let bytes = seed_build_error(
                            hdr.dst,
                            vaddr,
                            Icmp6Type::DestUnreachable(DestUnreachCode::PortUnreachable),
                            wire,
                            64,
                        );
                        Some(self.deliver(bytes, now_us, hops + 1, dst_word))
                    }
                    _ => {
                        self.stats.tcp_responses += 1;
                        let bytes = seed_build_response(
                            hdr.dst,
                            vaddr,
                            dport,
                            sport,
                            tcp::flags::RST | tcp::flags::ACK,
                            64,
                        );
                        Some(self.deliver(bytes, now_us, hops + 1, dst_word))
                    }
                }
            }
            DestEntry::NoHost { responder } => {
                let prev = prev_hop_key(&path.hops, path.hops.len(), vidx);
                self.dest_policy_response(
                    responder,
                    prev,
                    vaddr,
                    wire,
                    now_us,
                    hops,
                    cfg.nohost_du_milli,
                    dst_word,
                )
            }
            DestEntry::NoSubnet { responder } => {
                let prev = prev_hop_key(&path.hops, path.hops.len(), vidx);
                self.dest_policy_response(
                    responder,
                    prev,
                    vaddr,
                    wire,
                    now_us,
                    hops,
                    cfg.nosubnet_du_milli,
                    dst_word,
                )
            }
            DestEntry::Unrouted { responder } => {
                if !flow::draw_milli(
                    flow::mix2(flow::mix128(dst_word), 0x2042),
                    cfg.noroute_du_milli,
                ) {
                    self.stats.dest_silent += 1;
                    return None;
                }
                let prev = prev_hop_key(&path.hops, path.hops.len(), vidx);
                let r = self.router_error(
                    responder,
                    prev,
                    vaddr,
                    Icmp6Type::DestUnreachable(DestUnreachCode::NoRoute),
                    wire,
                    now_us,
                    hops,
                );
                if r.is_some() {
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
    ) -> Option<Delivery> {
        if !flow::draw_milli(flow::mix2(flow::mix128(dst_word), 0xdead), du_milli) {
            self.stats.dest_silent += 1;
            return None;
        }
        let as_idx = self.topo.routers[responder.0 as usize].as_idx;
        let code = match self.topo.ases[as_idx as usize].unknown_policy {
            UnknownAddrPolicy::AddrUnreachable => DestUnreachCode::AddrUnreachable,
            UnknownAddrPolicy::AdminProhibited => DestUnreachCode::AdminProhibited,
            UnknownAddrPolicy::RejectRoute => DestUnreachCode::RejectRoute,
            UnknownAddrPolicy::Silent => {
                self.stats.dest_silent += 1;
                return None;
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
        );
        if r.is_some() {
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

    /// Emits an ICMPv6 error from `router` if its token bucket allows;
    /// `hop_count` scales the RTT.
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
    ) -> Option<Delivery> {
        let info = &self.topo.routers[router.0 as usize];
        if !info.responsive {
            self.stats.silent_router += 1;
            return None;
        }
        if !self.buckets[router.0 as usize].try_consume(now_us) {
            return None;
        }
        // Quote the packet as the router saw it: hop limit exhausted.
        let mut quoted = wire.to_vec();
        if ty == Icmp6Type::TimeExceeded {
            quoted[7] = 0;
        }
        // Interior routers of a middlebox-fronted AS saw a *rewritten*
        // destination; their quotations carry it. The prober's target
        // checksum (in the source port / ICMPv6 id) is how this
        // tampering is detected (paper §4.1).
        if self.topo.ases[info.as_idx as usize].middlebox
            && info.role != simnet::topology::RouterRole::Border
        {
            quoted[39] ^= 0x40;
            self.stats.rewritten_quotes += 1;
        }
        // The source address depends on the arrival direction: multi-
        // interface routers answer from the interface facing the probe.
        let addr = info.response_addr(router, prev_key);
        let bytes = seed_build_error(addr, vaddr, ty, &quoted, 64);
        let dst_word = u128::from(Ipv6Header::decode(wire).map(|h| h.dst).unwrap_or(addr));
        Some(self.deliver(bytes, now_us, hop_count, dst_word))
    }

    fn deliver(&self, bytes: Vec<u8>, now_us: u64, hop_count: usize, key: u128) -> Delivery {
        let lat = self.topo.config.hop_latency_us;
        let oneway = hop_count as u64 * lat + flow::jitter_us(flow::mix128(key), lat);
        Delivery {
            at_us: now_us + 2 * oneway,
            bytes,
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

// ---- seed response builders (vendored from f54a62c) ----

/// Builds a complete ICMPv6 *error* packet (IPv6 header + ICMPv6) from
/// router `src` back to `dst`, quoting `invoking_packet` (a full IPv6
/// packet as received). The quotation is truncated so the whole error
/// stays within [`v6packet::MIN_MTU`].
fn seed_build_error(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    ty: Icmp6Type,
    invoking_packet: &[u8],
    hop_limit: u8,
) -> Vec<u8> {
    debug_assert!(ty.is_error());
    let max_quote = v6packet::MIN_MTU - ip6::HEADER_LEN - 8;
    let quote = &invoking_packet[..invoking_packet.len().min(max_quote)];
    let (t, c) = ty.type_code();
    let mut icmp = Vec::with_capacity(8 + quote.len());
    icmp.extend_from_slice(&[t, c, 0, 0, 0, 0, 0, 0]); // cksum + unused filled below
    icmp.extend_from_slice(quote);
    let ck = v6packet::csum::transport_checksum(src, dst, proto_num::ICMP6, &icmp);
    icmp[2..4].copy_from_slice(&ck.to_be_bytes());
    let hdr = Ipv6Header {
        traffic_class: 0,
        flow_label: 0,
        payload_len: icmp.len() as u16,
        next_header: proto_num::ICMP6,
        hop_limit,
        src,
        dst,
    };
    let mut out = Vec::with_capacity(ip6::HEADER_LEN + icmp.len());
    out.extend_from_slice(&hdr.encode());
    out.extend_from_slice(&icmp);
    out
}

/// Builds a complete Echo Reply packet answering an echo request with
/// identifier `ident`, sequence `seq` and `data` (the request's payload,
/// returned verbatim per RFC 4443 §4.2).
fn seed_build_echo_reply(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    ident: u16,
    seq: u16,
    data: &[u8],
    hop_limit: u8,
) -> Vec<u8> {
    let mut icmp = Vec::with_capacity(8 + data.len());
    icmp.extend_from_slice(&[129, 0, 0, 0]);
    icmp.extend_from_slice(&ident.to_be_bytes());
    icmp.extend_from_slice(&seq.to_be_bytes());
    icmp.extend_from_slice(data);
    let ck = v6packet::csum::transport_checksum(src, dst, proto_num::ICMP6, &icmp);
    icmp[2..4].copy_from_slice(&ck.to_be_bytes());
    let hdr = Ipv6Header {
        traffic_class: 0,
        flow_label: 0,
        payload_len: icmp.len() as u16,
        next_header: proto_num::ICMP6,
        hop_limit,
        src,
        dst,
    };
    let mut out = Vec::with_capacity(ip6::HEADER_LEN + icmp.len());
    out.extend_from_slice(&hdr.encode());
    out.extend_from_slice(&icmp);
    out
}

/// Builds a complete IPv6+TCP response segment (20-byte header, no
/// options, no payload) from `src` back to `dst`.
fn seed_build_response(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    sport: u16,
    dport: u16,
    flags: u8,
    hop_limit: u8,
) -> Vec<u8> {
    let mut seg = [0u8; 20];
    seg[0..2].copy_from_slice(&sport.to_be_bytes());
    seg[2..4].copy_from_slice(&dport.to_be_bytes());
    seg[12] = 5 << 4;
    seg[13] = flags;
    seg[14..16].copy_from_slice(&0u16.to_be_bytes());
    let ck = v6packet::csum::transport_checksum(src, dst, proto_num::TCP, &seg);
    seg[16..18].copy_from_slice(&ck.to_be_bytes());
    let hdr = Ipv6Header {
        traffic_class: 0,
        flow_label: 0,
        payload_len: 20,
        next_header: proto_num::TCP,
        hop_limit,
        src,
        dst,
    };
    let mut out = Vec::with_capacity(ip6::HEADER_LEN + 20);
    out.extend_from_slice(&hdr.encode());
    out.extend_from_slice(&seg);
    out
}

/// Builds a fragmented (atomic-fragment) ICMPv6 Echo Reply carrying
/// `ident`/`seq`/`data`, with fragment identification `frag_id`.
fn seed_build_fragmented_echo_reply(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    ident: u16,
    seq: u16,
    data: &[u8],
    hop_limit: u8,
    frag_id: u32,
) -> Vec<u8> {
    let mut icmp = Vec::with_capacity(8 + data.len());
    icmp.extend_from_slice(&[129, 0, 0, 0]);
    icmp.extend_from_slice(&ident.to_be_bytes());
    icmp.extend_from_slice(&seq.to_be_bytes());
    icmp.extend_from_slice(data);
    let ck = v6packet::csum::transport_checksum(src, dst, proto_num::ICMP6, &icmp);
    icmp[2..4].copy_from_slice(&ck.to_be_bytes());

    let mut frag = Vec::with_capacity(v6packet::frag::FRAG_HEADER_LEN + icmp.len());
    frag.push(proto_num::ICMP6); // inner next header
    frag.push(0); // reserved
    frag.extend_from_slice(&0u16.to_be_bytes()); // offset 0, M=0
    frag.extend_from_slice(&frag_id.to_be_bytes());
    frag.extend_from_slice(&icmp);

    let hdr = Ipv6Header {
        traffic_class: 0,
        flow_label: 0,
        payload_len: frag.len() as u16,
        next_header: v6packet::frag::FRAGMENT_NH,
        hop_limit,
        src,
        dst,
    };
    let mut out = Vec::with_capacity(ip6::HEADER_LEN + frag.len());
    out.extend_from_slice(&hdr.encode());
    out.extend_from_slice(&frag);
    out
}

/// The seed's `FlowKey::hash` (f54a62c): two full `mix128` rounds and
/// two `mix2` combines per probe.
fn seed_flow_hash(fk: &FlowKey) -> u64 {
    let s = flow::mix128(u128::from(fk.src));
    let d = flow::mix128(u128::from(fk.dst));
    let ports = ((fk.proto as u64) << 32) | ((fk.sport as u64) << 16) | fk.dport as u64;
    flow::mix2(flow::mix2(s, d), ports ^ ((fk.flow_label as u64) << 40))
}
