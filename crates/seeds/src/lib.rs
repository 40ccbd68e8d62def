//! Synthesis of the paper's IPv6 seed lists (§3.2, Table 1).
//!
//! The real seed datasets are proprietary (Farsight DNSDB, CDN client
//! prefixes), privacy-restricted (kIP aggregates) or large external
//! collections (rDNS walks, Rapid7 FDNS, TUM). This crate substitutes
//! synthesizers that sample the *simulated ground truth* with the same
//! collection bias each real source has:
//!
//! | list    | real provenance                | bias reproduced here |
//! |---------|--------------------------------|----------------------|
//! | caida   | ::1 + random per BGP prefix    | pure breadth, no depth |
//! | fiebig  | ip6.arpa (rDNS) zone walking   | dense per-org enumeration (high DPL), much unrouted staleness |
//! | fdns    | forward DNS ANY answers        | servers across many ASes, low-byte heavy, 6to4 |
//! | dnsdb   | passive DNS (AAAA answers)     | broad ASN coverage, moderate size |
//! | cdn     | WWW client /64s via kIP (k=32/256) | client space as anonymized aggregates |
//! | 6gen    | 6Gen generative tool           | locality-driven expansion near dense ranges |
//! | tum     | union of public collections    | fdns ∪ infrastructure names ∪ residential dyndns |
//! | random  | uniform in routed space        | unguided control |
//!
//! Each synthesizer is deterministic given `(topology, seed)`.
//!
//! [`feedback`] is the closed-loop entry point: instead of a static
//! source it regenerates seeds from a probing round's own discoveries
//! (kIP aggregation + 6Gen expansion over discovered interfaces), which
//! is what the adaptive multi-round orchestrator feeds between rounds.

#![warn(unreachable_pub)]

pub mod feedback;
mod kip;
pub mod sixgen;
pub mod sources;

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::net::Ipv6Addr;
use v6addr::iid::IidCensus;
use v6addr::Ipv6Prefix;

/// One seed entry: either a concrete address or an (anonymized) prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SeedEntry {
    /// An IPv6 address (implicit /128).
    Addr(Ipv6Addr),
    /// A prefix (e.g. a kIP aggregate).
    Prefix(Ipv6Prefix),
}

impl SeedEntry {
    /// The entry as a prefix (addresses become /128s).
    pub(crate) fn as_prefix(&self) -> Ipv6Prefix {
        match self {
            SeedEntry::Addr(a) => Ipv6Prefix::truncating(*a, 128),
            SeedEntry::Prefix(p) => *p,
        }
    }
}

/// A named seed list.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SeedList {
    /// Source name (lowercase, as used in the paper's tables).
    pub name: String,
    /// Deduplicated entries.
    pub entries: Vec<SeedEntry>,
}

impl SeedList {
    /// Builds a list from entries, deduplicating and sorting.
    pub fn new(name: impl Into<String>, entries: impl IntoIterator<Item = SeedEntry>) -> Self {
        let set: BTreeSet<SeedEntry> = entries.into_iter().collect();
        SeedList {
            name: name.into(),
            entries: set.into_iter().collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates concrete addresses (skipping prefix entries).
    pub fn addrs(&self) -> impl Iterator<Item = Ipv6Addr> + '_ {
        self.entries.iter().filter_map(|e| match e {
            SeedEntry::Addr(a) => Some(*a),
            SeedEntry::Prefix(_) => None,
        })
    }

    /// Iterates all entries as prefixes.
    pub fn prefixes(&self) -> impl Iterator<Item = Ipv6Prefix> + '_ {
        self.entries.iter().map(|e| e.as_prefix())
    }

    /// addr6-style IID census over the address entries (Table 1 columns).
    /// Prefix-only lists (the CDN aggregates) yield an empty census.
    pub fn iid_census(&self) -> IidCensus {
        IidCensus::of(self.addrs())
    }

    /// Union of several lists (the paper's "Combined" row).
    pub(crate) fn union(name: impl Into<String>, lists: &[&SeedList]) -> SeedList {
        SeedList::new(name, lists.iter().flat_map(|l| l.entries.iter().copied()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> SeedEntry {
        SeedEntry::Addr(s.parse().unwrap())
    }

    #[test]
    fn dedup_and_sort() {
        let l = SeedList::new(
            "t",
            vec![a("2001:db8::2"), a("2001:db8::1"), a("2001:db8::2")],
        );
        assert_eq!(l.len(), 2);
        let v: Vec<_> = l.addrs().collect();
        assert!(v[0] < v[1]);
    }

    #[test]
    fn union_merges() {
        let l1 = SeedList::new("a", vec![a("::1")]);
        let l2 = SeedList::new("b", vec![a("::1"), a("::2")]);
        let u = SeedList::union("u", &[&l1, &l2]);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn prefix_entries_skip_addr_iter() {
        let p = SeedEntry::Prefix("2001:db8::/48".parse().unwrap());
        let l = SeedList::new("t", vec![p, a("::1")]);
        assert_eq!(l.addrs().count(), 1);
        assert_eq!(l.prefixes().count(), 2);
        assert_eq!(l.iid_census().total, 1);
    }
}
