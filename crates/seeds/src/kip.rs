//! kIP aggregation-based address anonymization (Plonka & Berger \[49\]).
//!
//! The CDN cannot share client addresses; instead it shares *aggregates*:
//! prefixes that each cover at least `k` simultaneously-active client
//! /64s. Larger `k` means coarser prefixes (stronger anonymity); the
//! paper uses k=32 and k=256 (Table 1), and §6 observes that the
//! aggregation itself limits subnet-discovery fidelity in sparsely-active
//! networks.
//!
//! Implementation: a top-down partition of the (implicit) binary trie of
//! active /64s. A node is split when every non-empty child still holds at
//! least `k` actives; otherwise the node itself is emitted. The result is
//! a set of **disjoint** prefixes that covers every active /64 exactly
//! once, each as deep (specific) as k-anonymity allows.

use v6addr::{bits, Ipv6Prefix};

/// Aggregates active client /64s into k-anonymous prefixes.
///
/// Returns a sorted partition: disjoint prefixes covering every input /64
/// exactly once. Every aggregate covers ≥ `min(k, population-in-region)`
/// actives; when the whole population is smaller than `k` a single
/// covering prefix is emitted.
pub(crate) fn kip_aggregate(client_64s: &[Ipv6Prefix], k: usize) -> Vec<Ipv6Prefix> {
    assert!(k >= 1, "k must be positive");
    let mut words: Vec<u128> = client_64s
        .iter()
        .map(|p| {
            debug_assert!(p.len() <= 64, "client prefixes must be /64 or shorter");
            p.base_word() & bits::mask(64)
        })
        .collect();
    words.sort_unstable();
    words.dedup();
    if words.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    partition(&words, 0, k, &mut out);
    out
}

/// Recursive top-down split of a sorted slice of /64 base words that all
/// share their first `len` bits.
fn partition(words: &[u128], len: u8, k: usize, out: &mut Vec<Ipv6Prefix>) {
    if len == 64 {
        out.push(Ipv6Prefix::from_word(words[0], 64));
        return;
    }
    // Split on bit `len`.
    let split = words.partition_point(|&w| !bits::bit(w, len));
    let (left, right) = words.split_at(split);
    let splittable = (left.is_empty() || left.len() >= k)
        && (right.is_empty() || right.len() >= k)
        && !(left.is_empty() && right.is_empty());
    if splittable {
        if !left.is_empty() {
            partition(left, len + 1, k, out);
        }
        if !right.is_empty() {
            partition(right, len + 1, k, out);
        }
    } else {
        out.push(Ipv6Prefix::from_word(words[0], len));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;

    fn p64(s: &str) -> Ipv6Prefix {
        Ipv6Prefix::truncating(s.parse::<Ipv6Addr>().unwrap(), 64)
    }

    #[test]
    fn k1_returns_the_64s() {
        let clients = vec![p64("2001:db8:0:1::"), p64("2001:db8:0:2::")];
        let agg = kip_aggregate(&clients, 1);
        assert_eq!(agg, clients);
    }

    #[test]
    fn k2_merges_dense_neighbors() {
        let clients = vec![p64("2001:db8:0:0::"), p64("2001:db8:0:1::")];
        let agg = kip_aggregate(&clients, 2);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0], "2001:db8::/63".parse().unwrap());
    }

    #[test]
    fn larger_k_coarser_output() {
        // 64 dense /64s under one /58.
        let base: Ipv6Addr = "2001:db8::".parse().unwrap();
        let blk = Ipv6Prefix::truncating(base, 58);
        let clients: Vec<Ipv6Prefix> = (0..64u128).map(|i| blk.subnet(64, i)).collect();
        let a8 = kip_aggregate(&clients, 8);
        let a64 = kip_aggregate(&clients, 64);
        assert!(a8.len() > a64.len());
        assert_eq!(a64.len(), 1);
        assert_eq!(a64[0].len(), 58);
        for agg in &a8 {
            let covered = clients.iter().filter(|c| agg.contains_prefix(c)).count();
            assert!(covered >= 8, "{agg} covers only {covered}");
        }
    }

    #[test]
    fn partition_covers_each_client_exactly_once() {
        let clients = vec![
            p64("2001:db8:0:0::"),
            p64("2001:db8:0:1::"),
            p64("2001:db8:ff:3::"),
            p64("2620:1:2:3::"),
        ];
        for k in [1usize, 2, 3, 4, 10] {
            let agg = kip_aggregate(&clients, k);
            for c in &clients {
                let covering = agg.iter().filter(|a| a.contains_prefix(c)).count();
                assert_eq!(covering, 1, "k={k}: {c} covered {covering} times");
            }
            // Disjointness: no aggregate contains another.
            for (i, a) in agg.iter().enumerate() {
                for (j, b) in agg.iter().enumerate() {
                    if i != j {
                        assert!(!a.contains_prefix(b), "k={k}: {a} contains {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_input() {
        assert!(kip_aggregate(&[], 32).is_empty());
    }

    #[test]
    fn under_populated_region_emits_single_cover() {
        let clients = vec![p64("2001:db8::")];
        let agg = kip_aggregate(&clients, 256);
        assert_eq!(agg.len(), 1);
        assert!(agg[0].contains_prefix(&clients[0]));
        assert!(agg[0].len() < 64);
    }
}
