//! The engine's flow table: every `(vantage, routing headers)` the
//! engine has been shown, with the path it resolved for them.
//!
//! Entries are appended and never move, so a [`Flow`] — an entry's
//! position — stays good for the engine's lifetime: a prober opens one
//! per target and reaches the path of each later probe in one indexed
//! load. An entry holds the routing key beside the path, in one cache
//! line, so checking that a wire really is the flow it claims to be
//! costs no second miss.
//!
//! Lookup by key goes through a purpose-built open-addressing index of
//! `(tag, position)` words. The flow hash is already a uniformly mixed
//! 64-bit word (it incorporates src, dst, ports and label through
//! splitmix rounds), so its low bits bucket and its high bits tag — a
//! lookup is one masked index plus a linear scan that almost always
//! terminates on the first slot, and only a matching tag is followed to
//! its entry. No SipHash, no generic hasher machinery.

use crate::flow::FlowKey;
use crate::route::ResolvedPath;
use crate::topology::Vantage;
use std::net::Ipv6Addr;
use v6packet::{ip6, proto_num};

/// A handle to one flow of one [`crate::Engine`]: the routing headers of
/// a probe and the path they take ([`crate::Engine::open_flow`]). Only a
/// hint — the engine checks it against every wire it is handed with, so
/// a handle from another engine, or for another probe, costs a lookup
/// and changes nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flow(u32);

/// The header fields a probe is routed by, as they sit on the wire.
/// Two probes with equal keys take the same path from the same vantage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RawKey {
    pub src: u128,
    pub dst: u128,
    /// The version / traffic class / flow label word.
    pub vtf: u32,
    /// Source and destination port (TCP, UDP) or identifier and
    /// sequence (ICMPv6); `None` when the transport header is cut short
    /// or of a protocol the engine does not route.
    pub ports: Option<(u16, u16)>,
    pub next_header: u8,
}

impl RawKey {
    /// `None` unless `wire` starts with a whole IPv6 header.
    #[inline]
    pub(crate) fn parse(wire: &[u8]) -> Option<RawKey> {
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
    pub(crate) fn flow_hash(&self, (sport, dport): (u16, u16)) -> u64 {
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

/// One flow: what it is keyed by, and its path. Exactly a cache line.
#[repr(align(64))]
pub(crate) struct Entry {
    dst: u128,
    /// The flow hash per-flow load balancers see: the index's bucket
    /// and tag.
    flow_hash: u64,
    pub path: ResolvedPath,
    vtf: u32,
    ports: (u16, u16),
    next_header: u8,
    /// Index of the vantage the flow leaves from.
    pub vidx: u8,
}

const _: () = assert!(size_of::<Entry>() == 64);

impl Entry {
    /// Is a probe with routing key `key` one of this flow? (`vantages`
    /// are the topology's: the entry names its own by index.)
    #[inline]
    pub(crate) fn carries(&self, key: &RawKey, vantages: &[Vantage]) -> bool {
        self.dst == key.dst
            && self.vtf == key.vtf
            && Some(self.ports) == key.ports
            && self.next_header == key.next_header
            && u128::from(vantages[self.vidx as usize].addr) == key.src
    }
}

/// One index word; `at == EMPTY` marks a free slot.
#[derive(Clone, Copy)]
struct Slot {
    /// High half of the entry's flow hash.
    tag: u32,
    /// Position of the entry.
    at: u32,
}

const EMPTY: u32 = u32::MAX;

/// The flow table: entries in the order opened, indexed by key.
pub(crate) struct FlowTable {
    entries: Vec<Entry>,
    index: Vec<Slot>,
    mask: usize,
}

impl FlowTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        let cap = 1024;
        FlowTable {
            entries: Vec::new(),
            index: vec![Slot { tag: 0, at: EMPTY }; cap],
            mask: cap - 1,
        }
    }

    /// The entry behind `flow`, if this table has one there.
    #[inline]
    pub(crate) fn get(&self, flow: Flow) -> Option<&Entry> {
        self.entries.get(flow.0 as usize)
    }

    /// Looks up the flow of `key`, whose flow hash is `flow_hash`.
    #[inline]
    pub(crate) fn find(&self, key: &RawKey, flow_hash: u64, vantages: &[Vantage]) -> Option<Flow> {
        let tag = (flow_hash >> 32) as u32;
        let mut i = flow_hash as usize & self.mask;
        loop {
            let s = self.index[i];
            if s.at == EMPTY {
                return None;
            }
            if s.tag == tag && self.entries[s.at as usize].carries(key, vantages) {
                return Some(Flow(s.at));
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Appends the flow of `key` (which has ports, and must not already
    /// be present) with its resolved `path`.
    pub(crate) fn insert(
        &mut self,
        key: &RawKey,
        vidx: u8,
        flow_hash: u64,
        path: ResolvedPath,
    ) -> Flow {
        let at = u32::try_from(self.entries.len()).expect("flow table outgrew u32 positions");
        assert_ne!(at, EMPTY);
        if (self.entries.len() + 1) * 4 > self.index.len() * 3 {
            self.grow();
        }
        Self::index_entry(&mut self.index, self.mask, flow_hash, at);
        self.entries.push(Entry {
            dst: key.dst,
            flow_hash,
            path,
            vtf: key.vtf,
            ports: key.ports.expect("a routed probe has ports"),
            next_header: key.next_header,
            vidx,
        });
        Flow(at)
    }

    /// Doubles the index, and makes room for exactly the entries it
    /// will hold before it doubles again.
    fn grow(&mut self) {
        let cap = self.index.len() * 2;
        self.mask = cap - 1;
        self.index.clear();
        self.index.resize(cap, Slot { tag: 0, at: EMPTY });
        for (i, e) in self.entries.iter().enumerate() {
            Self::index_entry(&mut self.index, self.mask, e.flow_hash, i as u32);
        }
        self.entries.reserve_exact(cap / 4 * 3 - self.entries.len());
    }

    fn index_entry(index: &mut [Slot], mask: usize, flow_hash: u64, at: u32) {
        let mut i = flow_hash as usize & mask;
        while index[i].at != EMPTY {
            i = (i + 1) & mask;
        }
        index[i] = Slot {
            tag: (flow_hash >> 32) as u32,
            at,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::DestEntry;
    use crate::topology::{RouterId, VantageId};

    /// Vantage `i` probes from address `i`.
    fn vantages() -> Vec<Vantage> {
        (0..3u32)
            .map(|i| Vantage {
                id: VantageId(i as u8),
                name: "v".into(),
                addr: Ipv6Addr::from(i as u128),
                as_idx: 0,
                onprem: Vec::new(),
            })
            .collect()
    }

    fn key(vidx: u8, dst: u128, sport: u16) -> RawKey {
        RawKey {
            src: vidx as u128,
            dst,
            vtf: 6 << 28,
            ports: Some((sport, 7)),
            next_header: proto_num::UDP,
        }
    }

    fn path(hop_off: u32) -> ResolvedPath {
        ResolvedPath {
            hop_off,
            hop_len: 0,
            firewall_hop: None,
            dest: DestEntry::Unrouted {
                responder: RouterId(0),
            },
            dst_router: None,
        }
    }

    #[test]
    fn insert_get_roundtrip_with_growth() {
        let (mut c, v) = (FlowTable::new(), vantages());
        let n = 10_000u32;
        // Adversarially clustered flows exercise linear probing, and
        // shared tags the entry compare.
        let flow = |i: u32| (i as u64 / 4).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64 & 1);
        let key = |i: u32| key((i % 3) as u8, i as u128 * 7, 9);
        for i in 0..n {
            let f = c.insert(&key(i), (i % 3) as u8, flow(i), path(i));
            assert_eq!(f, Flow(i), "flows are positions, in insertion order");
        }
        for i in 0..n {
            assert_eq!(c.find(&key(i), flow(i), &v), Some(Flow(i)));
            let e = c.get(Flow(i)).unwrap();
            assert_eq!((e.vidx, e.path.hop_off), ((i % 3) as u8, i));
        }
        assert_eq!(c.find(&key(n), 2, &v), None);
        assert!(c.get(Flow(n)).is_none());
    }

    #[test]
    fn distinguishes_all_key_fields() {
        let (mut c, v) = (FlowTable::new(), vantages());
        let k = key(1, 100, 9);
        let f = c.insert(&k, 1, 7, path(0));
        assert_eq!(c.find(&k, 7, &v), Some(f));
        for other in [
            key(2, 100, 9),
            key(1, 101, 9),
            key(1, 100, 8),
            RawKey {
                vtf: k.vtf | 5,
                ..k
            },
            RawKey {
                next_header: proto_num::TCP,
                ..k
            },
            RawKey { ports: None, ..k },
        ] {
            assert_eq!(c.find(&other, 7, &v), None, "{other:?}");
            assert!(!c.get(f).unwrap().carries(&other, &v), "{other:?}");
        }
        // A different hash is a different bucket.
        assert_eq!(c.find(&k, 8, &v), None);
    }
}
