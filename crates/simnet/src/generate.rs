//! Deterministic construction of the synthetic Internet from a
//! [`TopologyConfig`].
//!
//! The generator builds, in order: the AS-level graph (tier-1 clique, a
//! high-centrality hub, regional tier-2s, stubs, residential CPE ISPs and
//! a 6to4 relay), per-AS infrastructure routers, per-AS subnet plans
//! (distribution → LAN hierarchies for stubs; region → aggregation →
//! subscriber-delegation hierarchies for CPE ISPs), the host population,
//! the BGP table, and the three probing vantages.
//!
//! Everything derives from the config's seed: generating twice with equal
//! configs yields identical topologies (asserted by tests).

use crate::config::TopologyConfig;
use crate::flow::MixMap;
use crate::topology::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv6Addr;
use v6addr::{bits, iid, Asn, BgpTable, Ipv6Prefix, PrefixTrie};

/// Enterprise SLAAC OUIs drawn for non-CPE EUI-64 hosts.
const ENTERPRISE_OUIS: [u32; 5] = [0x3c5ab4, 0x8c1645, 0xf0def1, 0x54bf64, 0x48f17f];

/// Builder state.
struct Gen {
    cfg: TopologyConfig,
    rng: SmallRng,
    ases: Vec<AsInfo>,
    routers: Vec<RouterInfo>,
    subnets: Vec<SubnetNode>,
    subnet_trie: PrefixTrie<SubnetId>,
    bgp: BgpTable,
    hosts: Vec<(u128, HostKind)>,
    vantages: Vec<Vantage>,
    rir_extra: Vec<(Ipv6Prefix, Asn)>,
    asn_equivalences: Vec<(Asn, Asn)>,
    next_slab: u32,
    next_unrouted_slab: u32,
    next_city: u16,
}

/// Generates a topology from `config`.
pub fn generate(config: TopologyConfig) -> Topology {
    let rng = SmallRng::seed_from_u64(config.seed);
    let mut g = Gen {
        rng,
        cfg: config,
        ases: Vec::new(),
        routers: Vec::new(),
        subnets: Vec::new(),
        subnet_trie: PrefixTrie::new(),
        bgp: BgpTable::new(),
        hosts: Vec::new(),
        vantages: Vec::new(),
        rir_extra: Vec::new(),
        asn_equivalences: Vec::new(),
        next_slab: 0,
        next_unrouted_slab: 0,
        next_city: 1,
    };
    g.build();
    g.finish()
}

impl Gen {
    // ---- address allocation -------------------------------------------

    /// Allocates the next /32 slab from the routed 2001::/16 region.
    fn alloc_slab(&mut self) -> Ipv6Prefix {
        let top32 = 0x2001_0000u32 + self.next_slab;
        self.next_slab += 1;
        Ipv6Prefix::from_word((top32 as u128) << 96, 32)
    }

    /// Allocates a /32 slab from a region that is *never announced* —
    /// used for registry-only infrastructure prefixes (§6).
    fn alloc_unrouted_slab(&mut self) -> Ipv6Prefix {
        let top32 = 0x2a10_0000u32 + self.next_unrouted_slab;
        self.next_unrouted_slab += 1;
        Ipv6Prefix::from_word((top32 as u128) << 96, 32)
    }

    fn fresh_city(&mut self) -> u16 {
        let c = self.next_city;
        self.next_city += 1;
        c
    }

    // ---- router construction ------------------------------------------

    /// Adds a router with the given response address.
    fn add_router(&mut self, addr: Ipv6Addr, as_idx: AsIdx, role: RouterRole) -> RouterId {
        let id = RouterId(self.routers.len() as u32);
        let aggressive = self.rng.gen_bool(self.cfg.aggressive_frac);
        let responsive = !self.rng.gen_bool(self.cfg.unresponsive_frac);
        let icmp_only = self.rng.gen_bool(0.01);
        self.routers.push(RouterInfo {
            addr,
            alt_addrs: Vec::new(),
            as_idx,
            role,
            aggressive_rl: aggressive,
            responsive,
            icmp_only,
        });
        id
    }

    /// Gives infrastructure routers additional interface addresses
    /// (aliases) in their AS's infra prefix — the alias-resolution
    /// ground truth. Backbone gear typically exposes several numbered
    /// interfaces; edge gear (LAN gateways, CPE) one.
    fn add_alias_interfaces(&mut self, r: RouterId, style: u8, serial_base: u64) {
        let n_extra = self.rng.gen_range(0..=2usize);
        let as_idx = self.routers[r.0 as usize].as_idx;
        let infra = self.ases[as_idx as usize].infra_prefix;
        for k in 0..n_extra {
            // Serial spacing of 3 keeps alias blocks of neighboring
            // routers (whose primary serials differ by 1) disjoint.
            let iid = self.infra_iid(style, 600 + serial_base * 3 + k as u64);
            let addr = infra.addr(iid as u128);
            self.routers[r.0 as usize].alt_addrs.push(addr);
        }
    }

    /// Draws an infrastructure interface IID in the AS's numbering style.
    fn infra_iid(&mut self, style: u8, serial: u64) -> u64 {
        match style {
            // Low-byte numbering: ::1, ::2, ...
            0 => serial + 1,
            // Random-looking 64-bit IIDs.
            1 => self.rng.gen::<u64>() | 1,
            // EUI-64 infra (rare).
            _ => {
                let oui = ENTERPRISE_OUIS[self.rng.gen_range(0..ENTERPRISE_OUIS.len())];
                let mac = [
                    (oui >> 16) as u8,
                    (oui >> 8) as u8,
                    oui as u8,
                    self.rng.gen(),
                    self.rng.gen(),
                    self.rng.gen(),
                ];
                iid::eui64_from_mac(mac)
            }
        }
    }

    // ---- top-level assembly -------------------------------------------

    fn build(&mut self) {
        let cfg = self.cfg.clone();
        // AS layout: [tier1s][hub][tier2s][cpe isps][6to4 relay][vantage stubs][stubs]
        let n1 = cfg.n_tier1;
        let n2 = cfg.n_tier2;
        let ncpe = cfg.cpe_isps.len();

        // 1. Create the AS skeletons.
        for i in 0..n1 {
            self.new_as(Asn(100 + i as u32), AsTier::Tier1);
        }
        let hub = self.new_as(Asn(6939), AsTier::Hub); // HE's real ASN, as a wink
        for i in 0..n2 {
            self.new_as(Asn(2000 + i as u32), AsTier::Tier2);
        }
        for i in 0..ncpe {
            self.new_as(Asn(7000 + i as u32), AsTier::CpeIsp(i as u8));
        }
        let relay = self.new_as(Asn(9000), AsTier::Stub); // 6to4 relay
                                                          // Vantage ASes are the first three "stubs".
        let v_as: Vec<AsIdx> = (0..3)
            .map(|i| self.new_as(Asn(64496 + i as u32), AsTier::Stub))
            .collect();
        for i in 0..cfg.n_stub {
            self.new_as(Asn(10_000 + i as u32), AsTier::Stub);
        }

        // 2. AS graph edges.
        self.wire_graph(n1, hub, n2, ncpe, relay, &v_as);

        // 3. Per-AS prefixes, routers, subnet plans, hosts.
        for idx in 0..self.ases.len() as AsIdx {
            self.populate_as(idx, relay);
        }

        // 4. Vantages.
        let names = ["EU-NET", "US-EDU-1", "US-EDU-2"];
        for (i, &as_idx) in v_as.iter().enumerate() {
            self.make_vantage(i as u8, names[i], as_idx);
        }
    }

    fn new_as(&mut self, asn: Asn, tier: AsTier) -> AsIdx {
        let idx = self.ases.len() as AsIdx;
        self.ases.push(AsInfo {
            asn,
            tier,
            prefixes: Vec::new(),
            infra_prefix: Ipv6Prefix::from_word(0, 0), // placeholder
            infra_announced: true,
            sibling_asn: None,
            border: RouterId(u32::MAX), // placeholder
            border2: None,
            core: Vec::new(),
            neighbors: Vec::new(),
            subnet_root: None,
            fw_blocks_udp_tcp: false,
            unknown_policy: UnknownAddrPolicy::AddrUnreachable,
            middlebox: false,
        });
        idx
    }

    fn connect(&mut self, a: AsIdx, b: AsIdx) {
        if a != b && !self.ases[a as usize].neighbors.contains(&b) {
            self.ases[a as usize].neighbors.push(b);
            self.ases[b as usize].neighbors.push(a);
        }
    }

    fn wire_graph(
        &mut self,
        n1: usize,
        hub: AsIdx,
        n2: usize,
        ncpe: usize,
        relay: AsIdx,
        v_as: &[AsIdx],
    ) {
        let tier1: Vec<AsIdx> = (0..n1 as AsIdx).collect();
        let tier2_start = n1 as AsIdx + 1;
        let tier2: Vec<AsIdx> = (tier2_start..tier2_start + n2 as AsIdx).collect();

        // Tier-1 clique.
        for i in 0..tier1.len() {
            for j in i + 1..tier1.len() {
                self.connect(tier1[i], tier1[j]);
            }
        }
        // Hub peers with every tier-1 and a third of tier-2s.
        for &t in &tier1 {
            self.connect(hub, t);
        }
        for &t in &tier2 {
            if self.rng.gen_bool(0.33) {
                self.connect(hub, t);
            }
        }
        // Tier-2: two tier-1 uplinks, occasional lateral peering.
        for &t in &tier2 {
            let a = tier1[self.rng.gen_range(0..tier1.len())];
            let b = tier1[self.rng.gen_range(0..tier1.len())];
            self.connect(t, a);
            self.connect(t, b);
            if self.rng.gen_bool(0.3) {
                let peer = tier2[self.rng.gen_range(0..tier2.len())];
                self.connect(t, peer);
            }
        }
        // CPE ISPs: multihomed to two tier-1s plus the hub.
        let cpe_start = tier2_start + n2 as AsIdx;
        for i in 0..ncpe as AsIdx {
            let c = cpe_start + i;
            let t1 = tier1[self.rng.gen_range(0..tier1.len())];
            self.connect(c, t1);
            self.connect(c, tier1[(i as usize) % tier1.len()]);
            self.connect(c, hub);
        }
        // 6to4 relay hangs off one tier-1.
        self.connect(relay, tier1[0]);
        // Everything after the relay is a stub: 1–2 tier-2 providers, and
        // hub peering for a fraction.
        let stub_start = relay + 1;
        for s in stub_start..self.ases.len() as AsIdx {
            let p = tier2[self.rng.gen_range(0..tier2.len())];
            self.connect(s, p);
            if self.rng.gen_bool(0.35) {
                let p2 = tier2[self.rng.gen_range(0..tier2.len())];
                self.connect(s, p2);
            }
            if self.rng.gen_bool(self.cfg.hub_peering_frac) {
                self.connect(s, hub);
            }
        }
        // Vantage ASes additionally get a second, deterministic provider
        // so their connectivity is stable across scales.
        for (i, &v) in v_as.iter().enumerate() {
            self.connect(v, tier2[i % tier2.len()]);
        }
    }

    // ---- per-AS population --------------------------------------------

    fn populate_as(&mut self, idx: AsIdx, relay: AsIdx) {
        let tier = self.ases[idx as usize].tier;
        let asn = self.ases[idx as usize].asn;

        // Announced prefix: transit and CPE ISPs announce their whole /32;
        // stubs announce /32 (40%), /40 (20%), /44 (15%) or /48 (25%).
        let slab = self.alloc_slab();
        let announced = match tier {
            AsTier::Tier1 | AsTier::Tier2 | AsTier::Hub | AsTier::CpeIsp(_) => slab,
            AsTier::Stub => {
                let roll: f64 = self.rng.gen();
                if roll < 0.40 {
                    slab
                } else if roll < 0.60 {
                    slab.subnet(40, 0)
                } else if roll < 0.75 {
                    slab.subnet(44, 0)
                } else {
                    slab.subnet(48, 0)
                }
            }
        };
        if idx == relay {
            // The relay announces 6to4 space alongside its own slab (so
            // its infrastructure addresses remain routed).
            let p6to4 = v6addr::sixtofour_prefix();
            self.ases[idx as usize].prefixes.push(p6to4);
            self.bgp.announce(p6to4, asn);
            self.ases[idx as usize].prefixes.push(announced);
            self.bgp.announce(announced, asn);
        } else {
            self.ases[idx as usize].prefixes.push(announced);
            self.bgp.announce(announced, asn);
        }

        // Infrastructure prefix: usually the top /48-equivalent inside the
        // announced prefix; ~10% of transit ASes keep infra in
        // registry-only space (§6 complication).
        let infra_unannounced =
            matches!(tier, AsTier::Tier1 | AsTier::Tier2 | AsTier::Hub) && self.rng.gen_bool(0.10);
        let infra = if infra_unannounced {
            let s = self.alloc_unrouted_slab();
            self.rir_extra.push((s.subnet(48, 0), asn));
            s.subnet(48, 0)
        } else {
            let width = 48u8.saturating_sub(announced.len()).min(16);
            let last = if width == 0 { 0 } else { (1u128 << width) - 1 };
            announced.subnet((announced.len() + width).min(64), last)
        };
        self.ases[idx as usize].infra_prefix = infra;
        self.ases[idx as usize].infra_announced = !infra_unannounced;

        // Router numbering style for this AS.
        let style_roll: f64 = self.rng.gen();
        let style: u8 = if style_roll < 0.70 {
            0
        } else if style_roll < 0.95 {
            1
        } else {
            2
        };

        // Border router(s) and core. A majority of stubs number their
        // upstream-facing interfaces from *provider* space (point-to-point
        // links live in the transit AS's infra prefix) — so the hop
        // addresses a trace reveals at a stub's edge often do not resolve
        // to the stub's own ASN, one reason the paper's "reached target
        // ASN" fractions are well below 100%.
        let is_transit = matches!(tier, AsTier::Tier1 | AsTier::Tier2 | AsTier::Hub);
        let provider_infra = if matches!(tier, AsTier::Stub) && self.rng.gen_bool(0.6) {
            self.ases[idx as usize]
                .neighbors
                .first()
                .map(|&n| self.ases[n as usize].infra_prefix)
                .filter(|p| p.len() > 0)
        } else {
            None
        };
        let edge_addr = |g: &mut Self, style: u8, serial: u64| -> Ipv6Addr {
            match provider_infra {
                // Link numbering from the provider's /48: offsets keyed by
                // our ASN so customers do not collide.
                Some(p) => p.addr((0x1_0000u128 + asn.0 as u128 * 16 + serial as u128) << 1),
                None => {
                    let iid = g.infra_iid(style, serial);
                    g.ases[idx as usize].infra_prefix.addr(iid as u128)
                }
            }
        };
        let baddr = edge_addr(self, style, 0);
        let border = self.add_router(baddr, idx, RouterRole::Border);
        self.add_alias_interfaces(border, style, 0);
        // Many networks assign the announced prefix's ::1 to the border
        // (a loopback convention) — these answer the ::1-per-prefix
        // probing CAIDA/RIPE production systems rely on.
        if matches!(tier, AsTier::Stub) && self.rng.gen_bool(0.35) {
            let loopback = announced.addr(1);
            self.routers[border.0 as usize].alt_addrs.push(loopback);
        }
        self.ases[idx as usize].border = border;
        if is_transit && self.rng.gen_bool(0.3) {
            let iid2 = self.infra_iid(style, 1);
            let b2 = self.add_router(infra.addr(iid2 as u128), idx, RouterRole::Border);
            self.ases[idx as usize].border2 = Some(b2);
        }
        let n_core = if is_transit { 2 } else { 1 };
        for k in 0..n_core {
            let caddr = edge_addr(self, style, 10 + k);
            let c = self.add_router(caddr, idx, RouterRole::Core);
            self.add_alias_interfaces(c, style, 10 + k);
            self.ases[idx as usize].core.push(c);
        }

        // Policies.
        self.ases[idx as usize].fw_blocks_udp_tcp =
            matches!(tier, AsTier::Stub) && self.rng.gen_bool(self.cfg.fw_blocks_udp_tcp_frac);
        self.ases[idx as usize].middlebox = matches!(tier, AsTier::Stub)
            && self.rng.gen_bool(self.cfg.middlebox_milli as f64 / 1000.0);
        self.ases[idx as usize].unknown_policy = {
            let roll: f64 = self.rng.gen();
            if roll < self.cfg.admin_prohibited_frac {
                UnknownAddrPolicy::AdminProhibited
            } else if roll < self.cfg.admin_prohibited_frac + 0.1 {
                UnknownAddrPolicy::RejectRoute
            } else if roll < self.cfg.admin_prohibited_frac + 0.25 {
                UnknownAddrPolicy::Silent
            } else {
                UnknownAddrPolicy::AddrUnreachable
            }
        };

        // Sibling ASN announcing a customer more-specific (§6).
        if matches!(tier, AsTier::Stub) && announced.len() <= 40 && self.rng.gen_bool(0.10) {
            let sibling = Asn(asn.0 + 50_000);
            self.ases[idx as usize].sibling_asn = Some(sibling);
            self.asn_equivalences.push((asn, sibling));
            let cust = announced.subnet(48, 1);
            self.ases[idx as usize].prefixes.push(cust);
            self.bgp.announce(cust, sibling);
        }

        // Subnet plan + hosts.
        match tier {
            AsTier::Stub if idx == relay => self.plan_6to4_relay(idx, style),
            AsTier::Stub => self.plan_stub(idx, announced, style),
            AsTier::CpeIsp(i) => self.plan_cpe_isp(idx, announced, i as usize),
            _ => {} // transit ASes host no end-user subnets
        }
    }

    fn add_subnet(
        &mut self,
        prefix: Ipv6Prefix,
        router: RouterId,
        parent: Option<SubnetId>,
        as_idx: AsIdx,
        kind: SubnetKind,
    ) -> SubnetId {
        let id = SubnetId(self.subnets.len() as u32);
        self.subnets.push(SubnetNode {
            prefix,
            router,
            parent,
            as_idx,
            kind,
        });
        self.subnet_trie.insert(prefix, id);
        id
    }

    /// Enterprise stub plan: announced prefix → city-level distribution
    /// subnets → second-level distribution → /64 LANs with hosts.
    fn plan_stub(&mut self, idx: AsIdx, announced: Ipv6Prefix, style: u8) {
        let l1 = (announced.len() + 8).min(56);
        let l2 = (l1 + 4).min(60);
        let n_cities = self.rng.gen_range(2..=4usize);
        let lans = self.cfg.lans_per_stub;

        let root_iid = self.infra_iid(style, 100);
        let root_router = self.add_router(
            self.ases[idx as usize].infra_prefix.addr(root_iid as u128),
            idx,
            RouterRole::Distribution,
        );
        self.add_alias_interfaces(root_router, style, 100);
        let root_city = self.fresh_city();
        let root = self.add_subnet(
            announced,
            root_router,
            None,
            idx,
            SubnetKind::Distribution { city: root_city },
        );
        self.ases[idx as usize].subnet_root = Some(root);

        let mut l2_nodes = Vec::new();
        for c in 0..n_cities {
            let city = self.fresh_city();
            let cpfx = announced.subnet(l1, c as u128 + 1);
            let ciid = self.infra_iid(style, 200 + c as u64);
            let crouter = self.add_router(
                self.ases[idx as usize].infra_prefix.addr(ciid as u128),
                idx,
                RouterRole::Distribution,
            );
            self.add_alias_interfaces(crouter, style, 200 + c as u64);
            let cnode = self.add_subnet(
                cpfx,
                crouter,
                Some(root),
                idx,
                SubnetKind::Distribution { city },
            );
            let n_l2 = self.rng.gen_range(1..=3usize);
            for j in 0..n_l2 {
                let jpfx = cpfx.subnet(l2, j as u128 + 1);
                let jiid = self.infra_iid(style, 300 + (c * 8 + j) as u64);
                let jrouter = self.add_router(
                    self.ases[idx as usize].infra_prefix.addr(jiid as u128),
                    idx,
                    RouterRole::Distribution,
                );
                self.add_alias_interfaces(jrouter, style, 300 + (c * 8 + j) as u64);
                let jn = self.add_subnet(
                    jpfx,
                    jrouter,
                    Some(cnode),
                    idx,
                    SubnetKind::Distribution { city },
                );
                l2_nodes.push(jn);
            }
        }

        // LANs round-robin across level-2 nodes. Mostly small sequential
        // /64 indices (dense address plans), some sparse random ones.
        for k in 0..lans {
            let parent = l2_nodes[k % l2_nodes.len()];
            let ppfx = self.subnets[parent.0 as usize].prefix;
            let span = 64 - ppfx.len();
            let lan_idx: u128 = if self.rng.gen_bool(0.8) {
                (k / l2_nodes.len()) as u128 + 1
            } else {
                self.rng.gen_range(0..(1u128 << span.min(24)))
            };
            let lan = ppfx.subnet(64, lan_idx & ((1u128 << span) - 1));
            // Gateway responds from lan::1 (the IA-hack observable) in
            // 80% of LANs, otherwise from infra space.
            let gw_addr = if self.rng.gen_bool(0.8) {
                lan.addr(1)
            } else {
                let iid = self.infra_iid(style, 400 + k as u64);
                self.ases[idx as usize].infra_prefix.addr(iid as u128)
            };
            let gw = self.add_router(gw_addr, idx, RouterRole::LanGateway);
            self.add_subnet(lan, gw, Some(parent), idx, SubnetKind::Lan);
            self.populate_lan_hosts(lan);
        }
    }

    fn populate_lan_hosts(&mut self, lan: Ipv6Prefix) {
        for h in 0..self.cfg.hosts_per_lan {
            let roll: f64 = self.rng.gen();
            let (iid, kind) = if roll < 0.40 {
                (
                    2 + h as u64 + self.rng.gen_range(0..32u64),
                    HostKind::Server,
                )
            } else if roll < 0.60 {
                let oui = ENTERPRISE_OUIS[self.rng.gen_range(0..ENTERPRISE_OUIS.len())];
                let mac = [
                    (oui >> 16) as u8,
                    (oui >> 8) as u8,
                    oui as u8,
                    self.rng.gen(),
                    self.rng.gen(),
                    self.rng.gen(),
                ];
                (iid::eui64_from_mac(mac), HostKind::Slaac)
            } else {
                (self.rng.gen::<u64>() | (1 << 63), HostKind::Privacy)
            };
            let addr = bits::join(bits::net_bits(lan.base_word()), iid);
            self.hosts.push((addr, kind));
        }
    }

    /// Residential ISP plan: /32 → regions (/36, city-labeled) →
    /// aggregation (/44) → subscriber delegations (/56 or /64) fronted by
    /// an EUI-64-addressed CPE.
    fn plan_cpe_isp(&mut self, idx: AsIdx, announced: Ipv6Prefix, isp_i: usize) {
        let isp = self.cfg.cpe_isps[isp_i].clone();
        let n_regions = 8usize;
        let subs_per_region = isp.subscribers.div_ceil(n_regions);
        let subs_per_agg = 2_000usize;
        let n_aggs = subs_per_region.div_ceil(subs_per_agg);

        let root_router = self.add_router(
            self.ases[idx as usize].infra_prefix.addr(0x101),
            idx,
            RouterRole::Distribution,
        );
        let root_city = self.fresh_city();
        let root = self.add_subnet(
            announced,
            root_router,
            None,
            idx,
            SubnetKind::Distribution { city: root_city },
        );
        self.ases[idx as usize].subnet_root = Some(root);

        let mut serial: u64 = 1;
        let mut remaining = isp.subscribers;
        for r in 0..n_regions {
            let city = self.fresh_city();
            let rpfx = announced.subnet(36, r as u128 + 1);
            let rrouter = self.add_router(
                self.ases[idx as usize].infra_prefix.addr(0x200 + r as u128),
                idx,
                RouterRole::Distribution,
            );
            let rnode = self.add_subnet(
                rpfx,
                rrouter,
                Some(root),
                idx,
                SubnetKind::Distribution { city },
            );
            for a in 0..n_aggs {
                let apfx = rpfx.subnet(44, a as u128 + 1);
                let arouter = self.add_router(
                    self.ases[idx as usize]
                        .infra_prefix
                        .addr(0x1000 + (r * 64 + a) as u128),
                    idx,
                    RouterRole::Distribution,
                );
                let anode = self.add_subnet(
                    apfx,
                    arouter,
                    Some(rnode),
                    idx,
                    SubnetKind::Distribution { city },
                );
                let in_this_agg = subs_per_agg.min(remaining);
                remaining -= in_this_agg;
                for s in 0..in_this_agg {
                    let del = apfx.subnet(isp.delegation_len, s as u128 + 1);
                    // CPE responds from an EUI-64 address inside the
                    // delegation's first /64.
                    let mac = [
                        (isp.oui >> 16) as u8,
                        (isp.oui >> 8) as u8,
                        isp.oui as u8,
                        (serial >> 16) as u8,
                        (serial >> 8) as u8,
                        serial as u8,
                    ];
                    serial += 1;
                    let cpe_iid = iid::eui64_from_mac(mac);
                    let first64 = Ipv6Prefix::truncating(del.base(), 64);
                    let cpe_addr =
                        bits::from_u128(bits::join(bits::net_bits(first64.base_word()), cpe_iid));
                    let cpe = self.add_router(cpe_addr, idx, RouterRole::Cpe);
                    let active = self.rng.gen_bool(isp.active_client_frac);
                    self.add_subnet(
                        del,
                        cpe,
                        Some(anode),
                        idx,
                        SubnetKind::CpeDelegation {
                            active_client: active,
                        },
                    );
                    if active {
                        // One active WWW client with a privacy address in
                        // the delegation's first /64.
                        let client_iid = self.rng.gen::<u64>() | (1 << 63);
                        let caddr = bits::join(bits::net_bits(first64.base_word()), client_iid);
                        self.hosts.push((caddr, HostKind::Client));
                    }
                }
            }
        }
    }

    /// A handful of 6to4 sites behind the relay: 2002:V4::/48 each with
    /// one LAN — these surface in DNS-derived seeds (Table 5's 6to4
    /// column).
    fn plan_6to4_relay(&mut self, idx: AsIdx, style: u8) {
        let p6to4 = v6addr::sixtofour_prefix();
        let root_iid = self.infra_iid(style, 100);
        let root_router = self.add_router(
            self.ases[idx as usize].infra_prefix.addr(root_iid as u128),
            idx,
            RouterRole::Distribution,
        );
        let root_city = self.fresh_city();
        let root = self.add_subnet(
            p6to4,
            root_router,
            None,
            idx,
            SubnetKind::Distribution { city: root_city },
        );
        self.ases[idx as usize].subnet_root = Some(root);
        let n_sites = 24usize.min(4 + self.cfg.n_stub / 10);
        for _ in 0..n_sites {
            // A plausible public IPv4 address embedded in the /48.
            let mut first = self.rng.gen_range(1u32..=223);
            if first == 127 {
                first = 128;
            }
            let v4: u32 = (first << 24) | (self.rng.gen::<u32>() & 0x00ff_ffff);
            let site = p6to4.subnet(48, v4 as u128);
            let lan = site.subnet(64, 1);
            let gw = self.add_router(lan.addr(1), idx, RouterRole::LanGateway);
            let site_city = self.fresh_city();
            let site_node = self.add_subnet(
                site,
                gw,
                Some(root),
                idx,
                SubnetKind::Distribution { city: site_city },
            );
            let gw2 = self.add_router(lan.addr(2), idx, RouterRole::LanGateway);
            self.add_subnet(lan, gw2, Some(site_node), idx, SubnetKind::Lan);
            self.populate_lan_hosts(lan);
        }
    }

    fn make_vantage(&mut self, i: u8, name: &str, as_idx: AsIdx) {
        let n_hops = self.cfg.vantage_onprem_hops[i as usize];
        let infra = self.ases[as_idx as usize].infra_prefix;
        let mut onprem = Vec::with_capacity(n_hops);
        for h in 0..n_hops {
            let r = self.add_router(
                infra.addr(0x500 + h as u128),
                as_idx,
                RouterRole::Distribution,
            );
            // On-prem first hops must answer reliably at baseline rates
            // (the Fig. 5 hop-1..3 curves), so never mark them
            // unresponsive; rate-limit class stays as drawn.
            self.routers[r.0 as usize].responsive = true;
            onprem.push(r);
        }
        let vaddr = self.ases[as_idx as usize].prefixes[0]
            .subnet(64, 0xbee)
            .addr(0x10 + i as u128);
        self.vantages.push(Vantage {
            id: VantageId(i),
            name: name.into(),
            addr: vaddr,
            as_idx,
            onprem,
        });
    }

    // ---- finishing ----------------------------------------------------

    fn finish(mut self) -> Topology {
        // Deduplicate + sort hosts.
        self.hosts.sort_unstable_by_key(|&(w, _)| w);
        self.hosts.dedup_by_key(|&mut (w, _)| w);
        let (host_words, host_kinds): (Vec<u128>, Vec<HostKind>) = self.hosts.into_iter().unzip();

        // BFS per vantage over the AS graph.
        let mut as_parents = Vec::with_capacity(self.vantages.len());
        for v in &self.vantages {
            as_parents.push(bfs_parents(&self.ases, v.as_idx));
        }

        // Interface address → router.
        let mut iface_index = MixMap::default();
        for (i, r) in self.routers.iter().enumerate() {
            for a in r.all_addrs() {
                iface_index.insert(u128::from(a), RouterId(i as u32));
            }
        }

        // ASN (primary and sibling) → AS index.
        let mut asn_index = MixMap::default();
        for (i, a) in self.ases.iter().enumerate() {
            asn_index.insert(a.asn.0, i as AsIdx);
            if let Some(sib) = a.sibling_asn {
                asn_index.insert(sib.0, i as AsIdx);
            }
        }

        Topology {
            config: self.cfg,
            ases: self.ases,
            bgp: self.bgp,
            routers: self.routers,
            subnets: self.subnets,
            subnet_trie: self.subnet_trie,
            host_words,
            host_kinds,
            vantages: self.vantages,
            as_parents,
            rir_extra: self.rir_extra,
            asn_equivalences: self.asn_equivalences,
            asn_index,
            iface_index,
        }
    }
}

/// BFS parent array over the undirected AS graph, rooted at `root`.
fn bfs_parents(ases: &[AsInfo], root: AsIdx) -> Vec<AsIdx> {
    let mut parent = vec![u32::MAX; ases.len()];
    let mut queue = std::collections::VecDeque::new();
    parent[root as usize] = root;
    queue.push_back(root);
    while let Some(a) = queue.pop_front() {
        for &n in &ases[a as usize].neighbors {
            if parent[n as usize] == u32::MAX {
                parent[n as usize] = a;
                queue.push_back(n);
            }
        }
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologyConfig;

    fn topo() -> Topology {
        generate(TopologyConfig::tiny(42))
    }

    #[test]
    fn deterministic_generation() {
        let a = generate(TopologyConfig::tiny(7));
        let b = generate(TopologyConfig::tiny(7));
        assert_eq!(a.routers.len(), b.routers.len());
        assert_eq!(a.host_words, b.host_words);
        assert_eq!(
            a.routers.iter().map(|r| r.addr).collect::<Vec<_>>(),
            b.routers.iter().map(|r| r.addr).collect::<Vec<_>>()
        );
        let c = generate(TopologyConfig::tiny(8));
        assert_ne!(a.host_words, c.host_words);
    }

    #[test]
    fn as_counts_match_config() {
        let t = topo();
        // tier1 + tier2 + hub + stubs + CPE ISPs + 6to4 relay + three
        // vantage ASes.
        let c = &t.config;
        let configured = c.n_tier1 + c.n_tier2 + 1 + c.n_stub + c.cpe_isps.len();
        assert_eq!(t.ases.len(), configured + 4);
        assert_eq!(t.vantages.len(), 3);
    }

    #[test]
    fn graph_is_connected_from_each_vantage() {
        let t = topo();
        for p in &t.as_parents {
            let unreachable = p.iter().filter(|&&x| x == u32::MAX).count();
            assert_eq!(unreachable, 0, "all ASes must be reachable");
        }
    }

    #[test]
    fn hosts_are_routed_and_within_active_subnets() {
        let t = topo();
        assert!(t.host_count() > 100);
        for (addr, _) in t.hosts().take(500) {
            assert!(t.bgp.is_routed(addr), "{addr} unrouted");
            assert!(
                t.subnet_trie.longest_match(addr).is_some(),
                "{addr} outside subnet plan"
            );
        }
    }

    #[test]
    fn cpe_routers_use_isp_oui() {
        let t = topo();
        let mut seen = [false, false];
        for r in &t.routers {
            if r.role == RouterRole::Cpe {
                let iid = u128::from(r.addr) as u64;
                let oui = v6addr::iid::eui64_oui(iid).expect("CPE must be EUI-64");
                let which = t
                    .config
                    .cpe_isps
                    .iter()
                    .position(|c| c.oui == oui)
                    .expect("OUI must belong to a configured ISP");
                seen[which] = true;
            }
        }
        assert!(seen[0] && seen[1]);
    }

    #[test]
    fn subnet_chains_descend() {
        let t = topo();
        let (addr, _) = t.hosts().next().unwrap();
        let mut chain: Vec<_> = t
            .subnet_chain_up_from(&mut v6addr::Finger::default(), addr)
            .collect();
        chain.reverse();
        assert!(chain.len() >= 2);
        // Prefix lengths strictly increase along the chain.
        let mut last = 0;
        for id in &chain {
            let p = t.subnets[id.0 as usize].prefix;
            assert!(p.len() >= last);
            assert!(p.contains_addr(addr));
            last = p.len();
        }
    }

    #[test]
    fn ground_truth_has_cities_and_equivalences() {
        let t = topo();
        let gt = t.ground_truth_distribution_subnets();
        assert!(gt.len() > 20);
        let clients = t.active_client_64s();
        assert!(clients.len() > 50);
        // Some sibling-ASN pairs should exist at tiny scale with 40 stubs.
        // (Probabilistic but with seed 42 fixed, deterministic.)
        let _ = t.asn_equivalences; // existence is config-dependent; just exercised
    }

    #[test]
    fn sixtofour_sites_exist() {
        let t = topo();
        let in_6to4 = t.hosts().filter(|(a, _)| v6addr::is_sixtofour(*a)).count();
        assert!(in_6to4 > 0, "6to4 hosts must exist for Table 5");
    }

    #[test]
    fn vantage_onprem_lengths_follow_config() {
        let t = topo();
        assert_eq!(t.vantages[0].onprem.len(), t.config.vantage_onprem_hops[0]);
        assert_eq!(t.vantages[2].onprem.len(), t.config.vantage_onprem_hops[2]);
        assert!(t.vantages[2].onprem.len() > t.vantages[0].onprem.len());
    }
}
