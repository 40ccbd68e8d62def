//! The eight seed-source synthesizers (§3.2), sampling simulated ground
//! truth with each real source's collection bias.

use crate::{kip, sixgen, SeedEntry, SeedList};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simnet::topology::{AsTier, HostKind, RouterRole, Topology};
use std::net::Ipv6Addr;
use v6addr::{bits, Ipv6Prefix};

/// All seed lists, synthesized together so they share one ground truth.
#[derive(Clone, Debug)]
pub struct SeedCatalog {
    /// CAIDA-style: ::1 plus one random address per routed prefix ≤ /48.
    pub caida: SeedList,
    /// rDNS zone-walking: dense per-org enumeration plus stale entries.
    pub fiebig: SeedList,
    /// Forward DNS ANY: servers across many ASes, 6to4 included.
    pub fdns: SeedList,
    /// Passive DNS: broad, moderate-rate sampling of named hosts.
    pub dnsdb: SeedList,
    /// CDN WWW-client aggregates, kIP k=32 (finer).
    pub cdn_k32: SeedList,
    /// CDN WWW-client aggregates, kIP k=256 (coarser).
    pub cdn_k256: SeedList,
    /// 6Gen loose-mode generation from CAIDA-derived observations.
    pub sixgen: SeedList,
    /// TUM collection: fdns ∪ infrastructure names ∪ residential dyndns.
    pub tum: SeedList,
    /// The subsets `tum` is the union of (Table 2), as drawn.
    pub tum_parts: Vec<SeedList>,
    /// Random control: uniform prefix, then uniform address within.
    pub random: SeedList,
    /// Union of the six independent lists (Table 1's "Combined").
    pub combined: SeedList,
}

impl SeedCatalog {
    /// Synthesizes every list from `topo`, deterministically under `seed`.
    pub fn synthesize(topo: &Topology, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_ca7a_1006);
        let caida = caida(topo, &mut rng);
        let fiebig = fiebig(topo, &mut rng);
        let fdns = fdns(topo, &mut rng);
        let dnsdb = dnsdb(topo, &mut rng);
        let clients = topo.active_client_64s();
        // kIP anonymity is relative to population density: the paper's
        // k=32 over >100M active client /64s yields 3.4M aggregates
        // (~30 clients per aggregate). At simulation scale we preserve
        // that *ratio* — k_fine ≈ population/10k (min 2) and the paper's
        // 8x fine/coarse split — while keeping the paper's row labels.
        let k_fine = (clients.len() / 100_000).max(2);
        let k_coarse = 8 * k_fine;
        let cdn_k32 = SeedList::new(
            "cdn-k32",
            kip::kip_aggregate(&clients, k_fine)
                .into_iter()
                .map(SeedEntry::Prefix),
        );
        let cdn_k256 = SeedList::new(
            "cdn-k256",
            kip::kip_aggregate(&clients, k_coarse)
                .into_iter()
                .map(SeedEntry::Prefix),
        );
        let sixgen = sixgen_list(topo, &caida, &mut rng);
        let tum_parts = tum_subsets(topo, &fdns, &mut rng);
        let tum = SeedList::union("tum", &tum_parts.iter().collect::<Vec<_>>());
        let random = random_control(topo, &mut rng);
        let combined = SeedList::union(
            "combined",
            &[&caida, &dnsdb, &fiebig, &fdns, &cdn_k32, &cdn_k256, &sixgen],
        );
        SeedCatalog {
            caida,
            fiebig,
            fdns,
            dnsdb,
            cdn_k32,
            cdn_k256,
            sixgen,
            tum,
            tum_parts,
            random,
            combined,
        }
    }

    /// The six-plus-two individually-probed lists, by table order.
    pub fn named(&self) -> Vec<(&str, &SeedList)> {
        vec![
            ("caida", &self.caida),
            ("dnsdb", &self.dnsdb),
            ("fiebig", &self.fiebig),
            ("fdns", &self.fdns),
            ("cdn-k256", &self.cdn_k256),
            ("cdn-k32", &self.cdn_k32),
            ("6gen", &self.sixgen),
            ("tum", &self.tum),
            ("random", &self.random),
        ]
    }
}

/// Groups host addresses by origin AS index.
fn hosts_by_as(topo: &Topology) -> Vec<Vec<(Ipv6Addr, HostKind)>> {
    let mut by_as: Vec<Vec<(Ipv6Addr, HostKind)>> = vec![Vec::new(); topo.ases.len()];
    for (addr, kind) in topo.hosts() {
        if let Some(asn) = topo.bgp.origin(addr) {
            if let Some(i) = topo.as_by_asn(asn) {
                by_as[i as usize].push((addr, kind));
            }
        }
    }
    by_as
}

/// CAIDA: for every routed prefix of length ≤ 48, the ::1 address plus
/// one uniformly random address (Ark's per-prefix pair).
pub(crate) fn caida(topo: &Topology, rng: &mut SmallRng) -> SeedList {
    let mut entries = Vec::new();
    for (prefix, _) in topo.bgp.prefixes_up_to(48) {
        entries.push(SeedEntry::Addr(prefix.addr(1)));
        let span = 128 - prefix.len();
        let off: u128 = rng.gen::<u128>() & ((1u128 << span.min(127)) - 1);
        entries.push(SeedEntry::Addr(prefix.addr(off)));
    }
    SeedList::new("caida", entries)
}

/// Fiebig rDNS: a third of stub ASes maintain ip6.arpa; walking them
/// yields *every* named host, the LAN gateways, dense sequential
/// enumeration inside each /64 — and stale zones pointing at unrouted
/// space (Table 5 shows barely half of Fiebig targets are routed).
pub(crate) fn fiebig(topo: &Topology, rng: &mut SmallRng) -> SeedList {
    let by_as = hosts_by_as(topo);
    let mut entries = Vec::new();
    for (i, info) in topo.ases.iter().enumerate() {
        if !matches!(info.tier, AsTier::Stub) || !rng.gen_bool(0.33) {
            continue;
        }
        let stale = rng.gen_bool(0.35);
        for &(addr, _) in &by_as[i] {
            entries.push(SeedEntry::Addr(addr));
            // Dense enumeration: rDNS zones typically hold runs of
            // sequential names next to each live address.
            let w = u128::from(addr);
            let net = bits::net_bits(w);
            for d in 1..=3u64 {
                entries.push(SeedEntry::Addr(bits::from_u128(bits::join(
                    net,
                    (bits::iid_bits(w)).wrapping_add(d),
                ))));
            }
            if stale {
                // The org renumbered; the old zone survives, pointing
                // into space that is no longer announced.
                let stale_w = w ^ (0x1fffu128 << 112);
                entries.push(SeedEntry::Addr(bits::from_u128(stale_w)));
            }
        }
    }
    // Gateways of walked ASes appear too (router PTR names).
    for r in &topo.routers {
        if r.role == RouterRole::LanGateway && rng.gen_bool(0.15) {
            entries.push(SeedEntry::Addr(r.addr));
        }
    }
    SeedList::new("fiebig", entries)
}

/// Rapid7 forward-DNS ANY: server names dominate, across nearly all ASes;
/// 6to4 hosts surface here (Table 5's 6to4 column).
pub(crate) fn fdns(topo: &Topology, rng: &mut SmallRng) -> SeedList {
    let mut entries = Vec::new();
    for (addr, kind) in topo.hosts() {
        let p = match kind {
            HostKind::Server => 0.75,
            HostKind::Slaac => 0.10,
            HostKind::Privacy => 0.02,
            HostKind::Client => 0.0,
        };
        if p > 0.0 && rng.gen_bool(p) {
            entries.push(SeedEntry::Addr(addr));
        }
    }
    // Some infrastructure names leak into forward DNS.
    for r in &topo.routers {
        if matches!(r.role, RouterRole::LanGateway | RouterRole::Border) && rng.gen_bool(0.05) {
            entries.push(SeedEntry::Addr(r.addr));
        }
    }
    SeedList::new("fdns", entries)
}

/// Farsight passive DNS: what resolvers actually asked for — broad ASN
/// coverage at a lower per-AS rate than fdns.
pub(crate) fn dnsdb(topo: &Topology, rng: &mut SmallRng) -> SeedList {
    let mut entries = Vec::new();
    for (addr, kind) in topo.hosts() {
        let p = match kind {
            HostKind::Server => 0.45,
            HostKind::Slaac => 0.20,
            HostKind::Privacy => 0.05,
            HostKind::Client => 0.01,
        };
        if p > 0.0 && rng.gen_bool(p) {
            entries.push(SeedEntry::Addr(addr));
        }
    }
    SeedList::new("dnsdb", entries)
}

/// 6Gen: loose-mode generation seeded by CAIDA observations — the
/// targets CAIDA probed plus the interfaces that probing discovered
/// (approximated here by a thin sample of true router addresses, as the
/// paper used CAIDA's actual measurement output).
pub(crate) fn sixgen_list(topo: &Topology, caida: &SeedList, rng: &mut SmallRng) -> SeedList {
    let mut input: Vec<Ipv6Addr> = caida.addrs().collect();
    for r in &topo.routers {
        if rng.gen_bool(0.05) {
            input.push(r.addr);
        }
    }
    let budget = input.len() * 20;
    let generated = sixgen::generate_loose(&input, budget, rng.gen());
    SeedList::new("6gen", generated.into_iter().map(SeedEntry::Addr))
}

/// The TUM collection's subsets (Table 2 analogue): fdns, infrastructure
/// names (caida-dnsnames / traceroute / openipmap analogues: true router
/// addresses) and residential dyndns/CT names reaching into CPE space.
/// [`SeedCatalog::synthesize`] keeps them and unions them into `tum`.
fn tum_subsets(topo: &Topology, fdns: &SeedList, rng: &mut SmallRng) -> Vec<SeedList> {
    // rapid7-dnsany analogue: the fdns list itself.
    let rapid7 = SeedList::new("rapid7-dnsany", fdns.entries.iter().copied());
    // caida-dnsnames / traceroute / openipmap analogues: infrastructure
    // addresses observed in public measurement data.
    let mut infra = Vec::new();
    for r in &topo.routers {
        if rng.gen_bool(0.04) {
            infra.push(SeedEntry::Addr(r.addr));
        }
    }
    let traceroute = SeedList::new("traceroute-v6", infra);
    // ct / alexa analogue: residential dyndns and certificate-transparency
    // names reaching into CPE client space.
    let mut resi = Vec::new();
    for (addr, kind) in topo.hosts() {
        if kind == HostKind::Client && rng.gen_bool(0.08) {
            resi.push(SeedEntry::Addr(addr));
        }
    }
    let ct = SeedList::new("ct", resi);
    vec![rapid7, traceroute, ct]
}

/// The random control: a uniformly chosen routed prefix, then a uniform
/// address inside it. Sized like the combined host population.
pub(crate) fn random_control(topo: &Topology, rng: &mut SmallRng) -> SeedList {
    let prefixes: Vec<Ipv6Prefix> = topo.bgp.iter().map(|(p, _)| p).collect();
    let n = (topo.host_count() * 2).max(1_000);
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let p = prefixes[rng.gen_range(0..prefixes.len())];
        let span = 128 - p.len();
        let off: u128 = rng.gen::<u128>() & ((1u128 << span.min(127)) - 1);
        entries.push(SeedEntry::Addr(p.addr(off)));
    }
    SeedList::new("random", entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::config::TopologyConfig;
    use simnet::generate::generate;
    use v6addr::IidClass;

    fn catalog() -> (Topology, SeedCatalog) {
        let topo = generate(TopologyConfig::tiny(42));
        let cat = SeedCatalog::synthesize(&topo, 99);
        (topo, cat)
    }

    #[test]
    fn caida_is_two_per_routed_prefix() {
        let (topo, cat) = catalog();
        let routed48 = topo.bgp.prefixes_up_to(48).len();
        // ::1 + random per prefix, minus any collisions.
        assert!(cat.caida.len() <= 2 * routed48);
        assert!(cat.caida.len() > routed48);
    }

    #[test]
    fn deterministic_catalog() {
        let topo = generate(TopologyConfig::tiny(42));
        let a = SeedCatalog::synthesize(&topo, 5);
        let b = SeedCatalog::synthesize(&topo, 5);
        assert_eq!(a.fdns.entries, b.fdns.entries);
        assert_eq!(a.random.entries, b.random.entries);
        let c = SeedCatalog::synthesize(&topo, 6);
        assert_ne!(a.random.entries, c.random.entries);
    }

    #[test]
    fn cdn_lists_are_prefixes_k32_finer() {
        let (_, cat) = catalog();
        assert_eq!(cat.cdn_k32.addrs().count(), 0);
        assert_eq!(cat.cdn_k256.addrs().count(), 0);
        assert!(
            cat.cdn_k32.len() >= cat.cdn_k256.len(),
            "k32 {} < k256 {}",
            cat.cdn_k32.len(),
            cat.cdn_k256.len()
        );
        // Aggregates never more specific than /64.
        for p in cat.cdn_k32.prefixes() {
            assert!(p.len() <= 64);
        }
    }

    #[test]
    fn fiebig_contains_unrouted_staleness() {
        let (topo, cat) = catalog();
        let unrouted = cat
            .fiebig
            .addrs()
            .filter(|a| !topo.bgp.is_routed(*a))
            .count();
        assert!(unrouted > 0, "fiebig must contain stale/unrouted entries");
    }

    #[test]
    fn fiebig_denser_than_fdns() {
        // Fig 3: fiebig's DPL distribution is far right of caida's.
        let (_, cat) = catalog();
        let fiebig_addrs: Vec<Ipv6Addr> = cat.fiebig.addrs().collect();
        let caida_addrs: Vec<Ipv6Addr> = cat.caida.addrs().collect();
        let f = v6addr::dpl::DplCdf::from_addrs(&fiebig_addrs);
        let c = v6addr::dpl::DplCdf::from_addrs(&caida_addrs);
        assert!(
            f.median().unwrap() > c.median().unwrap(),
            "fiebig median {:?} <= caida {:?}",
            f.median(),
            c.median()
        );
    }

    #[test]
    fn fdns_is_lowbyte_heavy_6gen_random_heavy() {
        let (_, cat) = catalog();
        let fdns = cat.fdns.iid_census();
        assert!(fdns.fraction(IidClass::LowByte) > 0.3);
        let sg = cat.sixgen.iid_census();
        assert!(
            sg.fraction(IidClass::Random) > 0.5,
            "6gen random fraction {}",
            sg.fraction(IidClass::Random)
        );
    }

    #[test]
    fn tum_supersets_fdns_mostly() {
        let (_, cat) = catalog();
        let fdns_set: std::collections::BTreeSet<_> = cat.fdns.entries.iter().collect();
        let tum_set: std::collections::BTreeSet<_> = cat.tum.entries.iter().collect();
        let contained = fdns_set.iter().filter(|e| tum_set.contains(**e)).count();
        assert_eq!(contained, fdns_set.len(), "tum must contain all of fdns");
        assert!(cat.tum.len() > cat.fdns.len());
    }

    #[test]
    fn tum_is_the_union_of_its_kept_parts() {
        let (_, cat) = catalog();
        let refs: Vec<&SeedList> = cat.tum_parts.iter().collect();
        assert_eq!(SeedList::union("tum", &refs).entries, cat.tum.entries);
        let sum: usize = cat.tum_parts.iter().map(SeedList::len).sum();
        assert!(cat.tum.len() <= sum, "union {} > sum {sum}", cat.tum.len());
    }

    #[test]
    fn random_targets_all_routed() {
        let (topo, cat) = catalog();
        for a in cat.random.addrs().take(200) {
            assert!(topo.bgp.is_routed(a));
        }
    }

    #[test]
    fn sixtofour_present_in_fdns() {
        let (_, cat) = catalog();
        let n = cat
            .fdns
            .addrs()
            .filter(|a| v6addr::is_sixtofour(*a))
            .count();
        assert!(n > 0, "fdns must include 6to4 hosts");
    }
}
