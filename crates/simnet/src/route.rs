//! Path resolution: from a vantage to any destination address.
//!
//! Paths are deterministic functions of `(vantage, destination, flow)`:
//!
//! * the AS-level segment follows the BFS tree of the undirected AS graph
//!   (shortest AS path, stable tie-breaking);
//! * inside each transit AS the probe crosses the entry border router
//!   (or its ECMP sibling, chosen by flow hash) and one backbone router;
//! * inside the destination AS the probe descends the subnet plan —
//!   one hop per plan level — ending at the /64 gateway or subscriber
//!   CPE. This descent is what gives fine-grained target sets their
//!   *depth*: a ::1-per-BGP-prefix target stops at the plan root, while a
//!   target inside an active LAN crosses every distribution router above
//!   it (and those divergence points are exactly what §6's subnet
//!   inference recovers).

use crate::flow;
use crate::topology::*;
use serde::{Deserialize, Serialize};
use std::net::Ipv6Addr;
use v6addr::Finger;

/// What lies at the end of a resolved path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DestEntry {
    /// A live host of the given class.
    Host(HostKind),
    /// The covering /64 (or delegation) is active but no host owns the
    /// address; `responder` (the gateway) answers per AS policy.
    NoHost {
        /// Gateway that answers.
        responder: RouterId,
    },
    /// Routed space with no active subnet below the deepest plan node.
    NoSubnet {
        /// Deepest distribution router (or dest border).
        responder: RouterId,
    },
    /// Not in the BGP table at all; the vantage AS border rejects.
    Unrouted {
        /// The rejecting router.
        responder: RouterId,
    },
}

impl DestEntry {
    /// The router that answers for the destination, unless a host does.
    #[inline]
    pub(crate) fn responder(&self) -> Option<RouterId> {
        match *self {
            DestEntry::Host(_) => None,
            DestEntry::NoHost { responder }
            | DestEntry::NoSubnet { responder }
            | DestEntry::Unrouted { responder } => Some(responder),
        }
    }
}

/// A fully resolved forward path. The hop list lives in a hop arena
/// shared by every path resolved into it (the engine owns one): a path
/// is an `(offset, len)` window onto it, so following a path costs no
/// pointer chase of its own and resolving one allocates nothing.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ResolvedPath {
    pub(crate) hop_off: u32,
    pub(crate) hop_len: u16,
    /// Index into the hops of the destination AS border, when that AS
    /// firewalls UDP/TCP probes toward hosts (§4.2 protocol effects).
    pub firewall_hop: Option<u8>,
    /// What a probe that out-lives the path reaches.
    pub dest: DestEntry,
    /// The router owning the destination address, when the destination
    /// is a router interface (alias-resolution probing).
    pub dst_router: Option<RouterId>,
}

impl ResolvedPath {
    /// Number of router hops.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.hop_len as usize
    }

    /// Routers crossed, in order; `hops[i]` answers TTL `i+1`. `arena`
    /// is the hop arena this path was resolved into.
    pub fn hops<'a>(&self, arena: &'a [RouterId]) -> &'a [RouterId] {
        &arena[self.hop_off as usize..][..self.hop_len as usize]
    }

    /// Arena index of the hop answering TTL `i+1` (`i < len`).
    #[inline]
    pub(crate) fn hop_index(&self, i: usize) -> usize {
        self.hop_off as usize + i
    }
}

/// What [`resolve`] keeps from call to call: its buffers, and where its
/// three ordered lookups — BGP origin, subnet plan, host population —
/// last ended. Destinations resolved in address order share most of
/// their leading bits, so each lookup resumes where the last one left
/// off; in any other order it finds its own way, to the same answer.
#[derive(Debug, Default)]
pub struct ResolveScratch {
    /// AS-level path, destination AS first.
    as_path: Vec<AsIdx>,
    /// Subnet-plan chain of the destination, leaf first.
    chain: Vec<SubnetId>,
    /// Last descent of `Topology::bgp`.
    bgp: Finger,
    /// Last descent of `Topology::subnet_trie`.
    subnet: Finger,
    /// Last position in `Topology::host_words`.
    host: usize,
}

/// Resolves the path from `vantage` to `dst` under flow hash `flow_hash`,
/// appending its hops to `arena`. Allocates only when `arena` or
/// `scratch` have to grow.
pub fn resolve(
    topo: &Topology,
    vantage: &Vantage,
    dst: Ipv6Addr,
    flow_hash: u64,
    scratch: &mut ResolveScratch,
    arena: &mut Vec<RouterId>,
) -> ResolvedPath {
    let hop_off = arena.len();
    let finish = |arena: &Vec<RouterId>, dest, firewall_hop| ResolvedPath {
        hop_off: u32::try_from(hop_off).expect("hop arena outgrew u32 offsets"),
        hop_len: (arena.len() - hop_off) as u16,
        firewall_hop,
        dest,
        dst_router: topo.router_by_iface(dst),
    };
    arena.extend_from_slice(&vantage.onprem);
    let v_as = vantage.as_idx;
    let v_border = topo.ases[v_as as usize].border;

    // Unrouted destinations die at the vantage AS border.
    let origin = topo.bgp.origin_from(&mut scratch.bgp, dst);
    let Some(dest_as) = origin.and_then(|o| topo.as_by_asn(o)) else {
        arena.push(v_border);
        let dest = DestEntry::Unrouted {
            responder: v_border,
        };
        return finish(arena, dest, None);
    };

    // AS-level path: walk BFS parents from the destination back to us.
    let parents = &topo.as_parents[vantage.id.0 as usize];
    let as_path = &mut scratch.as_path;
    as_path.clear();
    as_path.push(dest_as);
    let mut cur = dest_as;
    while cur != v_as {
        let p = parents[cur as usize];
        debug_assert_ne!(p, u32::MAX, "AS graph must be connected");
        as_path.push(p);
        cur = p;
    }
    as_path.reverse(); // vantage AS first

    // Exit our own AS through its border.
    arena.push(v_border);

    // Cross each subsequent AS: entry border (ECMP by flow), and one
    // backbone hop for transit ASes.
    let mut firewall_hop = None;
    for (i, &a) in as_path.iter().enumerate().skip(1) {
        let info = &topo.ases[a as usize];
        let entry = match info.border2 {
            Some(b2) if flow::mix2(flow_hash, a as u64) & 1 == 1 => b2,
            _ => info.border,
        };
        arena.push(entry);
        let is_dest = i == as_path.len() - 1;
        if is_dest {
            if info.fw_blocks_udp_tcp {
                firewall_hop = Some((arena.len() - hop_off - 1) as u8);
            }
            // One backbone hop between the border and the subnet plan.
            if let Some(&c) = info.core.first() {
                arena.push(c);
            }
        } else if !info.core.is_empty() {
            // Transit crossing: one backbone hop, chosen by the
            // entry/exit pair (stable per AS-path).
            let prev = as_path[i - 1] as u64;
            let next = as_path[i + 1] as u64;
            let pick = flow::mix2(a as u64, prev ^ (next << 32)) as usize % info.core.len();
            arena.push(info.core[pick]);
        }
    }

    // Descend the destination AS's subnet plan. Addresses covered only by
    // the plan *root* (the announced aggregate, no more-specific
    // structure) are unassigned space: the route dies at the border and
    // no interior router is crossed — the breadth-only fate of
    // ::1-per-BGP-prefix probing.
    let chain = &mut scratch.chain;
    chain.clear();
    chain.extend(
        topo.subnet_chain_up_from(&mut scratch.subnet, dst)
            .filter(|s| topo.subnets[s.0 as usize].as_idx == dest_as),
    );
    if chain.len() == 1 && topo.subnets[chain[0].0 as usize].parent.is_none() {
        chain.clear();
    }
    for s in chain.iter().rev() {
        let r = topo.subnets[s.0 as usize].router;
        if arena.last() != Some(&r) {
            arena.push(r);
        }
    }

    // Classify the destination.
    let dest = if let Some(kind) = topo.host_kind_from(&mut scratch.host, dst) {
        DestEntry::Host(kind)
    } else if let Some(&leaf) = chain.first() {
        let node = &topo.subnets[leaf.0 as usize];
        match node.kind {
            SubnetKind::Lan | SubnetKind::CpeDelegation { .. } => DestEntry::NoHost {
                responder: node.router,
            },
            SubnetKind::Distribution { .. } => DestEntry::NoSubnet {
                responder: node.router,
            },
        }
    } else {
        DestEntry::NoSubnet {
            responder: topo.ases[dest_as as usize].border,
        }
    };
    finish(arena, dest, firewall_hop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologyConfig;
    use crate::generate::generate;

    fn topo() -> Topology {
        generate(TopologyConfig::tiny(42))
    }

    /// A path resolved into an arena of its own.
    struct Owned {
        path: ResolvedPath,
        hops: Vec<RouterId>,
    }

    impl Owned {
        fn len(&self) -> usize {
            self.path.len()
        }
    }

    fn resolve(t: &Topology, v: &Vantage, dst: Ipv6Addr, flow_hash: u64) -> Owned {
        let mut hops = Vec::new();
        let path = super::resolve(t, v, dst, flow_hash, &mut Default::default(), &mut hops);
        assert_eq!(path.hops(&hops), &hops[..]);
        Owned { path, hops }
    }

    #[test]
    fn host_paths_end_in_host() {
        let t = topo();
        let v = &t.vantages[0];
        let mut checked = 0;
        for (addr, kind) in t.hosts().take(100) {
            let p = resolve(&t, v, addr, 1234);
            assert!(matches!(p.path.dest, DestEntry::Host(k) if k == kind));
            assert!(p.len() >= 3, "path suspiciously short: {}", p.len());
            assert!(p.len() <= 40);
            checked += 1;
        }
        assert_eq!(checked, 100);
    }

    #[test]
    fn unrouted_rejected_at_vantage_border() {
        let t = topo();
        let v = &t.vantages[0];
        let p = resolve(&t, v, "fd00::1".parse().unwrap(), 0);
        assert!(matches!(p.path.dest, DestEntry::Unrouted { .. }));
        assert_eq!(p.len(), v.onprem.len() + 1);
    }

    #[test]
    fn same_flow_same_path() {
        let t = topo();
        let v = &t.vantages[1];
        let (addr, _) = t.hosts().nth(5).unwrap();
        let a = resolve(&t, v, addr, 777);
        let b = resolve(&t, v, addr, 777);
        assert_eq!(a.hops, b.hops);
    }

    #[test]
    fn flows_can_diverge_somewhere() {
        // With ECMP borders present, at least one (host, flow-pair) in the
        // population must take different paths under different flows.
        let t = topo();
        let v = &t.vantages[0];
        let mut diverged = false;
        'outer: for (addr, _) in t.hosts() {
            let base = resolve(&t, v, addr, 0);
            for fh in [1u64, 17, 999_999, u64::MAX] {
                if resolve(&t, v, addr, fh).hops != base.hops {
                    diverged = true;
                    break 'outer;
                }
            }
        }
        assert!(diverged, "no ECMP divergence found across host population");
    }

    #[test]
    fn deeper_targets_have_longer_paths() {
        // A ::1 probe at a stub's announced prefix stops at the plan root;
        // a probe into an active LAN crosses the distribution levels.
        let t = topo();
        let v = &t.vantages[0];
        let (host, _) = t
            .hosts()
            .find(|(a, _)| {
                // host in a stub (not CPE, not 6to4)
                t.bgp
                    .origin(*a)
                    .and_then(|asn| t.as_by_asn(asn))
                    .map(|i| matches!(t.ases[i as usize].tier, AsTier::Stub))
                    .unwrap_or(false)
                    && !v6addr::is_sixtofour(*a)
            })
            .unwrap();
        let origin = t.bgp.origin(host).unwrap();
        let as_idx = t.as_by_asn(origin).unwrap();
        let shallow_target = t.ases[as_idx as usize].prefixes[0].addr(1); // ::1 style
        let deep = resolve(&t, v, host, 42);
        let shallow = resolve(&t, v, shallow_target, 42);
        assert!(
            deep.len() > shallow.len(),
            "deep {} <= shallow {}",
            deep.len(),
            shallow.len()
        );
    }

    #[test]
    fn cpe_delegation_path_ends_at_cpe() {
        let t = topo();
        let v = &t.vantages[0];
        // Find a CPE delegation subnet and probe a nonexistent IID there.
        let del = t
            .subnets
            .iter()
            .find(|s| matches!(s.kind, SubnetKind::CpeDelegation { .. }))
            .unwrap();
        let target = del.prefix.addr(0x1234_5678_1234_5678);
        let p = resolve(&t, v, target, 9);
        match p.path.dest {
            DestEntry::Host(_) => {} // astronomically unlikely collision
            DestEntry::NoHost { responder } => {
                assert_eq!(t.routers[responder.0 as usize].role, RouterRole::Cpe);
                assert_eq!(p.hops.last(), Some(&responder));
            }
            other => panic!("unexpected dest {other:?}"),
        }
    }

    #[test]
    fn firewall_hop_marks_dest_border() {
        let t = topo();
        let v = &t.vantages[0];
        let fw_as = t
            .ases
            .iter()
            .position(|a| a.fw_blocks_udp_tcp)
            .expect("tiny config should have firewalled stubs") as u32;
        let target = t.ases[fw_as as usize].prefixes[0].addr(1);
        let p = resolve(&t, v, target, 5);
        let fh = p.path.firewall_hop.expect("firewall hop must be set") as usize;
        let border_router = p.hops[fh];
        assert_eq!(t.routers[border_router.0 as usize].as_idx, fw_as);
    }
}
