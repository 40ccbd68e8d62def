//! The generated Internet: ASes, routers, subnet plans, hosts, vantages.
//!
//! All entities live in flat arenas indexed by small integer ids, keeping
//! the structure compact and the generation deterministic. Ground truth —
//! the exact subnet plan and host population — is queryable for the §6
//! validation experiments, but the probing engine only ever reveals it
//! through packets.

use crate::config::TopologyConfig;
use crate::flow::MixMap;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use std::sync::Arc;
use v6addr::{Asn, BgpTable, Finger, Ipv6Prefix, PrefixTrie};

/// Index into [`Topology::ases`].
pub(crate) type AsIdx = u32;

/// Index into [`Topology::routers`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RouterId(pub u32);

/// Index into [`Topology::subnets`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SubnetId(pub u32);

/// One of the three probing vantage points.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VantageId(pub u8);

/// AS role in the transit hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AsTier {
    /// Default-free clique member.
    Tier1,
    /// Regional transit.
    Tier2,
    /// The high-centrality peering hub (Hurricane Electric analogue).
    Hub,
    /// Edge/stub enterprise network.
    Stub,
    /// Residential ISP with CPE subscribers; payload is the index into
    /// `TopologyConfig::cpe_isps`.
    CpeIsp(u8),
}

/// How a stub answers probes to covered-but-unassigned addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnknownAddrPolicy {
    /// ICMPv6 address unreachable (code 3).
    AddrUnreachable,
    /// ICMPv6 administratively prohibited (code 1).
    AdminProhibited,
    /// ICMPv6 reject route (code 6).
    RejectRoute,
    /// Silent drop.
    Silent,
}

/// One autonomous system.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AsInfo {
    /// The (primary) AS number.
    pub asn: Asn,
    /// Role in the hierarchy.
    pub tier: AsTier,
    /// Prefixes announced into BGP.
    pub prefixes: Vec<Ipv6Prefix>,
    /// Router-infrastructure prefix. May be *unannounced* (see
    /// [`AsInfo::infra_announced`]) — the §6 record-keeping complication.
    pub infra_prefix: Ipv6Prefix,
    /// Whether the infra prefix is visible in BGP.
    pub infra_announced: bool,
    /// A sibling ASN used to originate customer prefixes, if any — the
    /// §6 "equivalent ASN" complication.
    pub sibling_asn: Option<Asn>,
    /// Entry (border) router.
    pub border: RouterId,
    /// Second border for ECMP entry, if the AS load-balances.
    pub border2: Option<RouterId>,
    /// Backbone routers crossed when transiting this AS.
    pub core: Vec<RouterId>,
    /// Adjacent ASes (undirected graph).
    pub neighbors: Vec<AsIdx>,
    /// Root of this AS's subnet plan, if it hosts subnets.
    pub subnet_root: Option<SubnetId>,
    /// Border firewall drops UDP/TCP probes toward end hosts.
    pub fw_blocks_udp_tcp: bool,
    /// Response policy for covered-but-unassigned addresses.
    pub unknown_policy: UnknownAddrPolicy,
    /// An NPTv6-style middlebox rewrites inbound destinations (flips a
    /// low IID bit) before packets traverse this AS's interior.
    pub middlebox: bool,
}

/// Router role (determines its response-address style).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterRole {
    /// AS backbone.
    Core,
    /// AS border.
    Border,
    /// Intermediate distribution/aggregation router.
    Distribution,
    /// /64 LAN gateway (responds from `prefix::1` — IA-hack visible).
    LanGateway,
    /// Subscriber CPE (responds from an EUI-64 address).
    Cpe,
}

/// One router we may hear from. A physical router owns one or more
/// interface addresses; which one sources an ICMPv6 error depends on the
/// direction the probe arrived from — the reason *alias resolution*
/// (grouping interfaces back into routers) is its own research problem,
/// and the per-router fragment-identification counter is the signal
/// speedtrap-style resolution exploits.
///
/// One cache line per router: a probe that expires at a router reads
/// its record once, from memory no earlier probe had reason to touch,
/// so the record must not straddle two lines.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[repr(align(64))]
pub struct RouterInfo {
    /// Primary interface address (always present).
    pub addr: Ipv6Addr,
    /// Additional interface addresses (aliases of this router).
    pub alt_addrs: Vec<Ipv6Addr>,
    /// Owning AS.
    pub as_idx: AsIdx,
    /// Role.
    pub role: RouterRole,
    /// Uses the aggressive rate-limit class.
    pub aggressive_rl: bool,
    /// Never originates ICMPv6 errors (silent hop).
    pub responsive: bool,
    /// Responds only to ICMPv6 probes (the §4.2 stateful-security hop).
    pub icmp_only: bool,
}

const _: () = assert!(size_of::<RouterInfo>() == 64);

impl RouterInfo {
    /// The interface address used when answering a probe that arrived
    /// from `prev` (a stable per-direction choice).
    pub(crate) fn response_addr(&self, router_id: RouterId, prev: u64) -> Ipv6Addr {
        if self.alt_addrs.is_empty() {
            return self.addr;
        }
        let n = self.alt_addrs.len() + 1;
        let pick = crate::flow::mix2(router_id.0 as u64, prev) as usize % n;
        if pick == 0 {
            self.addr
        } else {
            self.alt_addrs[pick - 1]
        }
    }

    /// All interface addresses of this router.
    pub(crate) fn all_addrs(&self) -> impl Iterator<Item = Ipv6Addr> + '_ {
        std::iter::once(self.addr).chain(self.alt_addrs.iter().copied())
    }
}

/// Subnet-plan node kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubnetKind {
    /// Interior distribution subnet with a city-level location — the §6
    /// ground truth granularity.
    Distribution {
        /// Synthetic city identifier.
        city: u16,
    },
    /// Active /64 LAN with hosts.
    Lan,
    /// Residential subscriber delegation (IA), /56 or /64.
    CpeDelegation {
        /// Has an active WWW client (visible to the CDN seed).
        active_client: bool,
    },
}

/// One node in an AS's subnet plan.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SubnetNode {
    /// Covered prefix.
    pub prefix: Ipv6Prefix,
    /// Gateway / distribution router for this node — the hop a trace
    /// crosses when descending into the subnet.
    pub router: RouterId,
    /// Parent node (None at the AS's plan root).
    pub parent: Option<SubnetId>,
    /// Owning AS.
    pub as_idx: AsIdx,
    /// Node kind.
    pub kind: SubnetKind,
}

/// Host address classes (drives IID synthesis and seed visibility).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HostKind {
    /// Manually numbered server (low-byte IID); likely in forward DNS.
    Server,
    /// SLAAC with EUI-64 IID.
    Slaac,
    /// SLAAC privacy (random IID).
    Privacy,
    /// Residential WWW client (random IID, inside a CPE delegation);
    /// visible only to the CDN.
    Client,
}

/// A probing vantage point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Vantage {
    /// Identifier (index).
    pub id: VantageId,
    /// Display name (EU-NET, US-EDU-1, US-EDU-2) — shared so probers
    /// carry it into logs without copying.
    pub name: Arc<str>,
    /// Probe source address.
    pub addr: Ipv6Addr,
    /// Hosting AS.
    pub as_idx: AsIdx,
    /// On-premises router chain crossed before the AS border.
    pub onprem: Vec<RouterId>,
}

/// A fully generated synthetic Internet.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Generation parameters.
    pub config: TopologyConfig,
    /// All ASes.
    pub ases: Vec<AsInfo>,
    /// The global routing table (announced prefixes only).
    pub bgp: BgpTable,
    /// All router interfaces.
    pub routers: Vec<RouterInfo>,
    /// All subnet-plan nodes.
    pub subnets: Vec<SubnetNode>,
    /// Most-specific active subnet per address.
    pub subnet_trie: PrefixTrie<SubnetId>,
    /// Sorted host address words (for existence checks).
    pub host_words: Vec<u128>,
    /// Parallel to `host_words`: the host's class.
    pub host_kinds: Vec<HostKind>,
    /// The three vantages.
    pub vantages: Vec<Vantage>,
    /// BFS parent array per vantage over the AS graph
    /// (`as_parents[v][a]` = previous AS on the path from vantage `v`'s AS
    /// to AS `a`, or `u32::MAX` if unreachable/self).
    pub(crate) as_parents: Vec<Vec<AsIdx>>,
    /// Registry-only (unannounced) infra prefixes: the §6 augmentation.
    pub rir_extra: Vec<(Ipv6Prefix, Asn)>,
    /// Declared sibling-ASN pairs: the §6 equivalence augmentation.
    pub asn_equivalences: Vec<(Asn, Asn)>,
    /// ASN (including siblings) → owning AS index.
    pub(crate) asn_index: MixMap<u32, AsIdx>,
    /// Interface address → owning router (for direct-probing lookups).
    pub(crate) iface_index: MixMap<u128, RouterId>,
}

impl Topology {
    /// The host's class, if one exists at `addr`, for lookups that come
    /// in runs of nearby addresses: `cursor` is where the last search
    /// ended, and the next one gallops out from there instead of
    /// bisecting the whole population. Any cursor value gives the same
    /// answer.
    pub(crate) fn host_kind_from(&self, cursor: &mut usize, addr: Ipv6Addr) -> Option<HostKind> {
        search_from(&self.host_words, cursor, u128::from(addr))
            .ok()
            .map(|i| self.host_kinds[i])
    }

    /// Iterates `(address, kind)` over the full host population.
    pub fn hosts(&self) -> impl Iterator<Item = (Ipv6Addr, HostKind)> + '_ {
        self.host_words
            .iter()
            .zip(&self.host_kinds)
            .map(|(&w, &k)| (Ipv6Addr::from(w), k))
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.host_words.len()
    }

    /// All router response addresses (every interface of every router) —
    /// the discovery *ceiling* any campaign can reach.
    pub fn router_addrs(&self) -> impl Iterator<Item = Ipv6Addr> + '_ {
        self.routers.iter().flat_map(|r| r.all_addrs())
    }

    /// The router owning interface address `addr`, if any.
    pub fn router_by_iface(&self, addr: Ipv6Addr) -> Option<RouterId> {
        self.iface_index.get(&u128::from(addr)).copied()
    }

    /// Ground-truth alias groups: for each router with more than one
    /// interface, its full address set (the speedtrap validation target).
    pub fn ground_truth_aliases(&self) -> Vec<Vec<Ipv6Addr>> {
        self.routers
            .iter()
            .filter(|r| !r.alt_addrs.is_empty())
            .map(|r| r.all_addrs().collect())
            .collect()
    }

    /// Ground-truth alias groups restricted to `ifaces`: for each
    /// router owning at least two of the given interfaces, the owned
    /// subset. The scoring reference for alias resolution over a
    /// *discovered* interface set — interfaces discovery never saw
    /// can't be expected from the resolver.
    pub fn ground_truth_aliases_among(&self, ifaces: &[Ipv6Addr]) -> Vec<Vec<Ipv6Addr>> {
        let mut by_router: BTreeMap<RouterId, Vec<Ipv6Addr>> = BTreeMap::new();
        for &a in ifaces {
            if let Some(rid) = self.router_by_iface(a) {
                by_router.entry(rid).or_default().push(a);
            }
        }
        let mut groups: Vec<Vec<Ipv6Addr>> = by_router
            .into_values()
            .filter(|g| g.len() >= 2)
            .map(|mut g| {
                g.sort_unstable();
                g.dedup();
                g
            })
            .filter(|g| g.len() >= 2)
            .collect();
        groups.sort();
        groups
    }

    /// Ground-truth router count behind `ifaces`: how many distinct
    /// routers own the given interface addresses (non-router addresses
    /// count for nothing). The target a perfect alias resolver would
    /// collapse the set to.
    pub fn ground_truth_router_count(&self, ifaces: &[Ipv6Addr]) -> usize {
        let routers: std::collections::BTreeSet<RouterId> = ifaces
            .iter()
            .filter_map(|&a| self.router_by_iface(a))
            .collect();
        routers.len()
    }

    /// Ground-truth interior ("distribution") subnets with city labels,
    /// for §6 validation.
    pub fn ground_truth_distribution_subnets(&self) -> Vec<(Ipv6Prefix, u16, Asn)> {
        self.subnets
            .iter()
            .filter_map(|s| match s.kind {
                SubnetKind::Distribution { city } => {
                    Some((s.prefix, city, self.ases[s.as_idx as usize].asn))
                }
                _ => None,
            })
            .collect()
    }

    /// Ground-truth active client /64s (for the CDN seed and kIP), as the
    /// covering /64 of each active subscriber delegation.
    pub fn active_client_64s(&self) -> Vec<Ipv6Prefix> {
        self.hosts()
            .filter(|(_, k)| *k == HostKind::Client)
            .map(|(a, _)| Ipv6Prefix::truncating(a, 64))
            .collect()
    }

    /// The AS that owns `asn` (primary or sibling).
    pub fn as_by_asn(&self, asn: Asn) -> Option<AsIdx> {
        self.asn_index.get(&asn.0).copied()
    }

    /// The subnet chain covering `addr` inside its AS's plan, walked the
    /// way the plan links it — most-specific node first, then each parent
    /// up to the root — with the leaf found from `finger` (see
    /// [`PrefixTrie::longest_match_from`]).
    pub(crate) fn subnet_chain_up_from(
        &self,
        finger: &mut Finger,
        addr: Ipv6Addr,
    ) -> impl Iterator<Item = SubnetId> + '_ {
        let leaf = self
            .subnet_trie
            .longest_match_from(finger, u128::from(addr))
            .map(|(_, &leaf)| leaf);
        std::iter::successors(leaf, |cur| self.subnets[cur.0 as usize].parent)
    }
}

/// `sorted.binary_search(&w)` started at `*cursor` — an exponential
/// search outwards from it, then a bisection of the bracket found — and
/// leaving `*cursor` at the result. `sorted` is strictly ascending.
pub(crate) fn search_from(sorted: &[u128], cursor: &mut usize, w: u128) -> Result<usize, usize> {
    let n = sorted.len();
    let at = (*cursor).min(n);
    let mut step = 1;
    // `sorted[..lo] < w <= sorted[hi..]`, and `sorted[hi]` may be `w`.
    let (lo, hi) = if at < n && sorted[at] < w {
        let mut lo = at + 1;
        while lo + step <= n && sorted[lo + step - 1] < w {
            lo += step;
            step *= 2;
        }
        (lo, (lo + step).min(n))
    } else {
        let mut hi = at;
        while hi >= step && sorted[hi - step] >= w {
            hi -= step;
            step *= 2;
        }
        (hi.saturating_sub(step - 1), (hi + 1).min(n))
    };
    let found = match sorted[lo..hi].binary_search(&w) {
        Ok(i) => Ok(lo + i),
        Err(i) => Err(lo + i),
    };
    let (Ok(at) | Err(at)) = found;
    *cursor = at;
    found
}

#[cfg(test)]
mod tests {
    use super::search_from;
    use proptest::prelude::*;

    proptest! {
        /// The cursor is a hint: from wherever it points — inside the
        /// slice, at its end, far past it — and in whatever order the
        /// lookups come (as drawn, ascending, descending, each twice),
        /// a search ends where `binary_search` does, cursor included.
        #[test]
        fn search_from_is_binary_search(
            words in prop::collection::btree_set(any::<u128>(), 0..200),
            lookups in prop::collection::vec((any::<usize>(), any::<u128>(), 0u32..=128), 1..80),
            start: usize,
            order in 0u8..4,
        ) {
            let sorted: Vec<u128> = words.into_iter().collect();
            // Half the lookups hit a stored word, the rest land near one.
            let mut lookups: Vec<u128> = lookups
                .into_iter()
                .map(|(pick, noise, keep)| match sorted.get(pick % (sorted.len() + 1)) {
                    Some(&w) if pick & 1 == 0 => w,
                    Some(&w) => w ^ noise.checked_shr(keep).unwrap_or(0),
                    None => noise,
                })
                .collect();
            match order {
                0 => {}
                1 => lookups.sort_unstable(),
                2 => lookups.sort_unstable_by(|x, y| y.cmp(x)),
                _ => lookups = lookups.iter().flat_map(|&w| [w, w]).collect(),
            }
            let mut cursor = start;
            for w in lookups {
                let want = sorted.binary_search(&w);
                prop_assert_eq!(search_from(&sorted, &mut cursor, w), want);
                let (Ok(at) | Err(at)) = want;
                prop_assert_eq!(cursor, at);
            }
        }
    }
}
