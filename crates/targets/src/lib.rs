//! The target-generation pipeline (§3.1, Figure 1):
//!
//! ```text
//!   seeds  --prefix transformation-->  intermediate prefixes
//!          --target synthesis------->  target addresses
//! ```
//!
//! * [`transform`] — the `zn` transformation (extend/aggregate every seed
//!   prefix to exactly /n) — `kn` (kIP) lives in the `seeds` crate since
//!   it is applied at the data source;
//! * [`synthesize`] — IID selection: `lowbyte1`, `fixediid`, `random`,
//!   `known`;
//! * [`TargetSet`] — a deduplicated target list with the
//!   characterization machinery behind Table 5, Figure 2 and Figure 3;
//! * [`TargetCatalog`] — the full 18-set catalog (9 sources × z48/z64)
//!   used by the probing campaigns.

#![warn(unreachable_pub)]

mod pipeline;
pub mod synthesize;
pub mod transform;

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::net::Ipv6Addr;
use std::sync::Arc;
use v6addr::dpl::DplCdf;
use v6addr::{BgpTable, Ipv6Prefix};

pub use pipeline::{feedback_targets, TargetCatalog};
pub use synthesize::IidStrategy;
pub use transform::zn;

/// Evenly stride-samples `n` items out of `items`, spanning the whole
/// slice — on a sorted target list this keeps a truncated round or
/// allocation spread across the address space instead of starving the
/// high end. When `n >= items.len()` the slice is returned whole. For
/// `n <= items.len()` the picked indices `i * len / n` are strictly
/// increasing (consecutive picks differ by `len / n >= 1`), so no item
/// repeats.
pub fn stride_sample<T: Copy>(items: &[T], n: usize) -> Vec<T> {
    if n >= items.len() {
        items.to_vec()
    } else {
        (0..n).map(|i| items[i * items.len() / n]).collect()
    }
}

/// A named, deduplicated, sorted set of probe targets.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TargetSet {
    /// Name, e.g. `"cdn-k32-z64"` — shared (`Arc`) so campaign logs
    /// reference it without copying.
    pub name: Arc<str>,
    /// Sorted unique target addresses.
    pub addrs: Vec<Ipv6Addr>,
}

impl TargetSet {
    /// Builds a set from addresses, deduplicating and sorting.
    pub fn new(name: impl Into<Arc<str>>, addrs: impl IntoIterator<Item = Ipv6Addr>) -> Self {
        let mut v: Vec<u128> = addrs.into_iter().map(u128::from).collect();
        v.sort_unstable();
        v.dedup();
        TargetSet {
            name: name.into(),
            addrs: v.into_iter().map(Ipv6Addr::from).collect(),
        }
    }

    /// Number of unique targets.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        self.addrs.binary_search(&addr).is_ok()
    }

    /// The DPL CDF of this set alone (Fig 3a).
    pub fn dpl_cdf(&self) -> DplCdf {
        DplCdf::from_addrs(&self.addrs)
    }

    /// Union of several sets (used for combined DPL, Fig 3b).
    pub fn union(name: impl Into<Arc<str>>, sets: &[&TargetSet]) -> TargetSet {
        TargetSet::new(name, sets.iter().flat_map(|s| s.addrs.iter().copied()))
    }

    /// The DPL each member of `self` attains inside `combined` — the
    /// Fig 3b rightward-shift measurement.
    pub fn dpl_cdf_within(&self, combined: &TargetSet) -> DplCdf {
        let words: Vec<u128> = combined.addrs.iter().map(|&a| u128::from(a)).collect();
        let dpls = v6addr::dpl::dpl_of_sorted_words(&words);
        let mine: Vec<u8> = combined
            .addrs
            .iter()
            .zip(&dpls)
            .filter(|(a, _)| self.contains(**a))
            .map(|(_, &d)| d)
            .collect();
        DplCdf::from_dpls(&mine)
    }
}

/// Per-set characterization: one row of Table 5.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SetStats {
    /// Set name.
    pub name: Arc<str>,
    /// Unique targets.
    pub unique: u64,
    /// Targets found in no other independent set.
    pub exclusive: u64,
    /// Targets covered by the BGP table.
    pub routed: u64,
    /// Routed targets exclusive to this set.
    pub exclusive_routed: u64,
    /// Distinct routed prefixes the targets fall into.
    pub bgp_prefixes: u64,
    /// Prefixes hit only by this set.
    pub exclusive_prefixes: u64,
    /// Distinct origin ASNs.
    pub asns: u64,
    /// ASNs hit only by this set.
    pub exclusive_asns: u64,
    /// Targets inside 2002::/16.
    pub sixtofour: u64,
}

/// Characterizes `sets` against `bgp`. Exclusivity is computed only among
/// the sets whose indices appear in `independent` (the paper excludes
/// Combined/TUM from the exclusivity basis since they are supersets);
/// sets outside `independent` still get their exclusive-vs-independent
/// counts.
pub fn characterize(sets: &[&TargetSet], independent: &[usize], bgp: &BgpTable) -> Vec<SetStats> {
    // Membership maps: target -> count among independent sets,
    // prefix/asn -> count among independent sets.
    use std::collections::HashMap;
    let mut addr_count: HashMap<u128, u32> = HashMap::new();
    let mut pfx_count: HashMap<Ipv6Prefix, u32> = HashMap::new();
    let mut asn_count: HashMap<u32, u32> = HashMap::new();
    for &i in independent {
        let mut pfxs = BTreeSet::new();
        let mut asns = BTreeSet::new();
        for &a in &sets[i].addrs {
            *addr_count.entry(u128::from(a)).or_default() += 1;
            if let Some((p, asn)) = bgp.lookup(a) {
                pfxs.insert(p);
                asns.insert(asn.0);
            }
        }
        for p in pfxs {
            *pfx_count.entry(p).or_default() += 1;
        }
        for a in asns {
            *asn_count.entry(a).or_default() += 1;
        }
    }

    sets.iter()
        .enumerate()
        .map(|(i, set)| {
            let in_basis = independent.contains(&i);
            let mut stats = SetStats {
                name: set.name.clone(),
                ..Default::default()
            };
            let mut pfxs: BTreeSet<Ipv6Prefix> = BTreeSet::new();
            let mut asns: BTreeSet<u32> = BTreeSet::new();
            for &a in &set.addrs {
                stats.unique += 1;
                let w = u128::from(a);
                // Exclusive: in no *other* independent set.
                let others = addr_count.get(&w).copied().unwrap_or(0) - u32::from(in_basis);
                let excl = others == 0;
                if excl {
                    stats.exclusive += 1;
                }
                if v6addr::is_sixtofour(a) {
                    stats.sixtofour += 1;
                }
                if let Some((p, asn)) = bgp.lookup(a) {
                    stats.routed += 1;
                    if excl {
                        stats.exclusive_routed += 1;
                    }
                    pfxs.insert(p);
                    asns.insert(asn.0);
                }
            }
            stats.bgp_prefixes = pfxs.len() as u64;
            stats.asns = asns.len() as u64;
            stats.exclusive_prefixes = pfxs
                .iter()
                .filter(|p| pfx_count.get(p).copied().unwrap_or(0) == u32::from(in_basis))
                .count() as u64;
            stats.exclusive_asns = asns
                .iter()
                .filter(|a| asn_count.get(a).copied().unwrap_or(0) == u32::from(in_basis))
                .count() as u64;
            stats
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6addr::Asn;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn bgp() -> BgpTable {
        let mut t = BgpTable::new();
        t.announce("2001:db8::/32".parse().unwrap(), Asn(1));
        t.announce("2620::/32".parse().unwrap(), Asn(2));
        t.announce("2002::/16".parse().unwrap(), Asn(3));
        t
    }

    #[test]
    fn set_dedup_and_contains() {
        let s = TargetSet::new("t", vec![a("::2"), a("::1"), a("::2")]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(a("::1")));
        assert!(!s.contains(a("::3")));
    }

    #[test]
    fn characterize_exclusives() {
        let s1 = TargetSet::new("one", vec![a("2001:db8::1"), a("2001:db8::2")]);
        let s2 = TargetSet::new("two", vec![a("2001:db8::2"), a("2620::1"), a("fd00::1")]);
        let b = bgp();
        let stats = characterize(&[&s1, &s2], &[0, 1], &b);
        assert_eq!(stats[0].unique, 2);
        assert_eq!(stats[0].exclusive, 1); // ::1 only in s1
        assert_eq!(stats[0].routed, 2);
        assert_eq!(stats[1].unique, 3);
        assert_eq!(stats[1].exclusive, 2); // 2620::1 and fd00::1
        assert_eq!(stats[1].routed, 2); // fd00:: unrouted
        assert_eq!(stats[1].exclusive_routed, 1);
        // Prefix exclusivity: 2001:db8::/32 shared; 2620::/32 only s2.
        assert_eq!(stats[0].exclusive_prefixes, 0);
        assert_eq!(stats[1].exclusive_prefixes, 1);
        assert_eq!(stats[1].exclusive_asns, 1);
    }

    #[test]
    fn superset_not_in_basis_has_no_exclusives_for_shared() {
        let s1 = TargetSet::new("ind", vec![a("2001:db8::1")]);
        let all = TargetSet::new("union", vec![a("2001:db8::1"), a("2620::9")]);
        let b = bgp();
        let stats = characterize(&[&s1, &all], &[0], &b);
        // The union's ::1 is in the basis set, so not exclusive; 2620::9
        // is in no independent set, so it counts as exclusive.
        assert_eq!(stats[1].exclusive, 1);
        assert_eq!(stats[0].exclusive, 1);
    }

    #[test]
    fn sixtofour_counted() {
        let s = TargetSet::new("t", vec![a("2002:102:304::1"), a("2001:db8::1")]);
        let b = bgp();
        let stats = characterize(&[&s], &[0], &b);
        assert_eq!(stats[0].sixtofour, 1);
    }

    #[test]
    fn dpl_within_combined_shifts_right() {
        let s = TargetSet::new("s", vec![a("2001:db8::1"), a("2001:db8:8000::1")]);
        let interleaver = TargetSet::new("i", vec![a("2001:db8:4000::1")]);
        let alone = s.dpl_cdf();
        let comb = TargetSet::union("u", &[&s, &interleaver]);
        let within = s.dpl_cdf_within(&comb);
        assert!(within.median().unwrap() >= alone.median().unwrap());
    }

    #[test]
    fn stride_sample_spans_without_repeats() {
        let items: Vec<u32> = (0..100).collect();
        for n in [1usize, 3, 37, 99, 100, 250] {
            let picked = stride_sample(&items, n);
            assert_eq!(picked.len(), n.min(100));
            // Strictly increasing — no repeats, order preserved.
            assert!(picked.windows(2).all(|w| w[0] < w[1]), "n = {n}");
            // Spans the whole range: first pick at the bottom, last at
            // the top-stride index (n-1)·len/n.
            assert_eq!(picked[0], 0);
            let m = n.min(100);
            assert_eq!(*picked.last().unwrap(), ((m - 1) * 100 / m) as u32);
        }
        assert!(stride_sample(&items[..0], 5).is_empty());
    }
}
