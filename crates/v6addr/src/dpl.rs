//! Discriminating Prefix Length (DPL) computations (paper §3.4.1).
//!
//! An address' DPL within a set is the first (leftmost, 1-indexed) bit at
//! which it differs from its *nearest* companion in the sorted set — i.e.
//! `max` shared-prefix length with either sorted neighbor, plus one. High
//! DPLs mean densely packed addresses; when two addresses are in different
//! subnets their DPL lower-bounds the subnets' prefix lengths.

use crate::bits;
use std::net::Ipv6Addr;

/// Computes the DPL of every address in `addrs` (1..=128).
///
/// The input need not be sorted or deduplicated; output order corresponds
/// to the *sorted, deduplicated* set returned alongside. Sets with fewer
/// than two addresses have no defined DPL and yield an empty vector.
pub fn dpl_of_set(addrs: &[Ipv6Addr]) -> (Vec<Ipv6Addr>, Vec<u8>) {
    let mut words: Vec<u128> = addrs.iter().map(|&a| bits::to_u128(a)).collect();
    words.sort_unstable();
    words.dedup();
    let dpls = dpl_of_sorted_words(&words);
    (words.into_iter().map(bits::from_u128).collect(), dpls)
}

/// DPL per element of an already-sorted, deduplicated word slice.
pub fn dpl_of_sorted_words(words: &[u128]) -> Vec<u8> {
    if words.len() < 2 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(words.len());
    for i in 0..words.len() {
        let left = if i > 0 {
            bits::common_prefix_len(words[i - 1], words[i])
        } else {
            0
        };
        let right = if i + 1 < words.len() {
            bits::common_prefix_len(words[i], words[i + 1])
        } else {
            0
        };
        // Distinct addresses share at most 127 leading bits, so +1 <= 128.
        out.push(left.max(right) + 1);
    }
    out
}

/// The DPL of a *pair* of distinct addresses: the 1-indexed position of
/// their first differing bit. Used by path-divergence subnet inference to
/// lower-bound subnet prefix lengths.
pub fn dpl_of_pair(a: Ipv6Addr, b: Ipv6Addr) -> Option<u8> {
    let (wa, wb) = (bits::to_u128(a), bits::to_u128(b));
    if wa == wb {
        None
    } else {
        Some(bits::common_prefix_len(wa, wb) + 1)
    }
}

/// An empirical CDF over DPL values, evaluated at each bit position.
///
/// `fraction_at(l)` is the fraction of addresses whose DPL is ≤ `l` —
/// exactly the curves of Figure 3.
#[derive(Clone, Debug)]
pub struct DplCdf {
    counts: [u64; 129],
    total: u64,
}

impl DplCdf {
    /// Builds the CDF from per-address DPL values.
    pub fn from_dpls(dpls: &[u8]) -> Self {
        let mut counts = [0u64; 129];
        for &d in dpls {
            counts[d as usize] += 1;
        }
        DplCdf {
            counts,
            total: dpls.len() as u64,
        }
    }

    /// Builds the CDF directly from an address set.
    pub fn from_addrs(addrs: &[Ipv6Addr]) -> Self {
        let (_, dpls) = dpl_of_set(addrs);
        Self::from_dpls(&dpls)
    }

    /// Fraction of addresses with DPL ≤ `len` (0.0..=1.0).
    pub fn fraction_at(&self, len: u8) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let cum: u64 = self.counts[..=(len as usize)].iter().sum();
        cum as f64 / self.total as f64
    }

    /// Median DPL (smallest `l` with CDF ≥ 0.5), or `None` when empty.
    pub fn median(&self) -> Option<u8> {
        if self.total == 0 {
            return None;
        }
        let mut cum = 0u64;
        for l in 0..=128usize {
            cum += self.counts[l];
            if cum * 2 >= self.total {
                return Some(l as u8);
            }
        }
        None
    }

    /// Mean DPL, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(l, &c)| l as u64 * c)
            .sum();
        Some(sum as f64 / self.total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn pair_dpl() {
        assert_eq!(dpl_of_pair(a("::"), a("::1")), Some(128));
        assert_eq!(dpl_of_pair(a("::"), a("8000::")), Some(1));
        assert_eq!(dpl_of_pair(a("2001:db8::"), a("2001:db8::")), None);
        // 2001:db8:: vs 2001:db9:: differ within the second group:
        // db8 = 1101 1011 1000, db9 = 1101 1011 1001 -> bit index 31 (0-based), DPL 32.
        assert_eq!(dpl_of_pair(a("2001:db8::"), a("2001:db9::")), Some(32));
    }

    #[test]
    fn set_dpl_neighbors() {
        // Three addresses: the middle one is near the last.
        let set = [a("2001:db8::1"), a("3fff::1"), a("3fff::2")];
        let (sorted, dpls) = dpl_of_set(&set);
        assert_eq!(sorted.len(), 3);
        // 3fff::1 and 3fff::2 share 126 bits -> DPL 127 for both.
        assert_eq!(dpls[1], 127);
        assert_eq!(dpls[2], 127);
        // 2001:db8::1's nearest is 3fff::1: 0010... vs 0011... -> DPL 4.
        assert_eq!(dpls[0], 4);
    }

    #[test]
    fn set_dpl_dedups() {
        let set = [a("::1"), a("::1"), a("::2")];
        let (sorted, dpls) = dpl_of_set(&set);
        assert_eq!(sorted.len(), 2);
        assert_eq!(dpls, vec![127, 127]);
    }

    #[test]
    fn degenerate_sets() {
        assert!(dpl_of_set(&[]).1.is_empty());
        assert!(dpl_of_set(&[a("::1")]).1.is_empty());
    }

    #[test]
    fn cdf_fractions() {
        let dpls = vec![32, 32, 64, 128];
        let cdf = DplCdf::from_dpls(&dpls);
        assert_eq!(cdf.fraction_at(31), 0.0);
        assert_eq!(cdf.fraction_at(32), 0.5);
        assert_eq!(cdf.fraction_at(64), 0.75);
        assert_eq!(cdf.fraction_at(128), 1.0);
        assert_eq!(cdf.median(), Some(32));
        assert_eq!(cdf.mean(), Some((32.0 + 32.0 + 64.0 + 128.0) / 4.0));
    }

    #[test]
    fn cdf_empty() {
        let cdf = DplCdf::from_dpls(&[]);
        assert_eq!(cdf.fraction_at(128), 0.0);
        assert_eq!(cdf.median(), None);
        assert_eq!(cdf.mean(), None);
    }

    #[test]
    fn combination_shifts_right() {
        // Paper §3.4.1 / Fig 3b: interleaving another set's addresses can
        // only raise (or keep) each address's DPL.
        let base = [a("2001:db8::1"), a("2001:db8:ffff::1")];
        let (_, alone) = dpl_of_set(&base);
        let mut combined = base.to_vec();
        combined.push(a("2001:db8:8000::1"));
        let (sorted, comb) = dpl_of_set(&combined);
        for (i, addr) in sorted.iter().enumerate() {
            if let Some(j) = base.iter().position(|x| x == addr) {
                assert!(comb[i] >= alone[j]);
            }
        }
    }
}
