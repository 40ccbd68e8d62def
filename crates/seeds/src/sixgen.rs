//! A reimplementation of 6Gen-style target generation (Murdock et al.
//! \[46\]), loose-clustering mode.
//!
//! 6Gen exploits *address locality*: observed addresses cluster, and new
//! live addresses are likelier near dense observed ranges. Seeds are
//! grouped into clusters; per nybble position the observed value range is
//! recorded; loose mode then generates fresh addresses by drawing each
//! nybble uniformly within its cluster range (a wildcard when the range
//! spans), weighting generation toward denser clusters.
//!
//! Deduplication is sort-based (draw, sort, dedup) with a **bounded
//! rejection loop**: when duplicate draws leave the output short of the
//! budget, up to `REFILL_ROUNDS` extra proportional rounds redraw only
//! the deficit.
//!
//! The paper feeds 6Gen with CAIDA probing results (targets probed plus
//! interfaces discovered) and observes a characteristic discovery curve:
//! strong initial yield near dense ranges, then flattening — "the shape
//! of the 6gen curve closely mirrors random, but with a fixed positive
//! offset" (§5.2).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv6Addr;

/// Number of leading bits two addresses must share to sit in one cluster.
const CLUSTER_BITS: u8 = 32;

/// Extra proportional redraw rounds allowed to make up for duplicate
/// draws. Bounded so saturated clusters (fewer distinct addresses than
/// budget share) cannot spin.
const REFILL_ROUNDS: usize = 4;

/// Sorts/dedups the seed words once, up front.
fn seed_words(seeds: &[Ipv6Addr]) -> Vec<u128> {
    let mut words: Vec<u128> = seeds.iter().map(|&a| u128::from(a)).collect();
    words.sort_unstable();
    words.dedup();
    words
}

/// Cluster boundaries over sorted seed words: `(start, end)` index
/// ranges of members sharing a `CLUSTER_BITS` prefix.
fn cluster_bounds(words: &[u128]) -> Vec<(usize, usize)> {
    let mut bounds = Vec::new();
    let mut start = 0usize;
    for i in 1..=words.len() {
        let boundary = i == words.len()
            || v6addr::bits::common_prefix_len(words[i - 1], words[i]) < CLUSTER_BITS;
        if boundary {
            bounds.push((start, i));
            start = i;
        }
    }
    bounds
}

/// Draws `deficit` fresh words proportionally to cluster weights,
/// merges them into `out`, and sort-dedups once per round.
fn refill(
    out: &mut Vec<u128>,
    budget: usize,
    clusters: &[Cluster],
    total_weight: usize,
    rng: &mut SmallRng,
) {
    let mut rounds = 0;
    while out.len() < budget && rounds < REFILL_ROUNDS {
        rounds += 1;
        let deficit = budget - out.len();
        let before = out.len();
        for c in clusters {
            let share = ((c.members as f64 / total_weight as f64) * deficit as f64).ceil() as usize;
            for _ in 0..share {
                if out.len() - before >= deficit {
                    break;
                }
                out.push(c.draw(rng));
            }
        }
        out.sort_unstable();
        out.dedup();
        if out.len() == before {
            // The clusters cannot produce anything new; stop early.
            break;
        }
    }
}

/// A cluster of observed addresses and its per-nybble value ranges.
#[derive(Clone, Debug)]
struct Cluster {
    /// Inclusive (low, high) observed nybble values, most significant
    /// first.
    ranges: [(u8, u8); 32],
    /// Number of seed members.
    members: usize,
}

impl Cluster {
    fn from_members(words: &[u128]) -> Self {
        let mut ranges = [(0xfu8, 0x0u8); 32];
        for &w in words {
            for (i, r) in ranges.iter_mut().enumerate() {
                let nyb = ((w >> (124 - 4 * i)) & 0xf) as u8;
                r.0 = r.0.min(nyb);
                r.1 = r.1.max(nyb);
            }
        }
        Cluster {
            ranges,
            members: words.len(),
        }
    }

    /// Draws one address from the cluster's loose ranges.
    fn draw(&self, rng: &mut SmallRng) -> u128 {
        let mut w = 0u128;
        for (i, &(lo, hi)) in self.ranges.iter().enumerate() {
            let nyb = if lo >= hi { lo } else { rng.gen_range(lo..=hi) } as u128;
            w |= nyb << (124 - 4 * i);
        }
        w
    }
}

/// Generates up to `budget` addresses from `seeds` in loose-clustering
/// mode. Deterministic for a given `(seeds, budget, rng_seed)`.
pub fn generate_loose(seeds: &[Ipv6Addr], budget: usize, rng_seed: u64) -> Vec<Ipv6Addr> {
    let words = seed_words(seeds);
    if words.is_empty() || budget == 0 {
        return Vec::new();
    }

    // Cluster by shared CLUSTER_BITS prefix over the sorted words.
    let clusters: Vec<Cluster> = cluster_bounds(&words)
        .into_iter()
        .map(|(s, e)| Cluster::from_members(&words[s..e]))
        .collect();

    // Weight clusters by member count (denser ranges yield more targets).
    let total_members: usize = clusters.iter().map(|c| c.members).sum();
    let mut rng = SmallRng::seed_from_u64(rng_seed);
    let mut out: Vec<u128> = Vec::with_capacity(budget);
    for c in &clusters {
        let share = ((c.members as f64 / total_members as f64) * budget as f64).ceil() as usize;
        for _ in 0..share {
            if out.len() >= budget {
                break;
            }
            out.push(c.draw(&mut rng));
        }
    }
    out.sort_unstable();
    out.dedup();
    refill(&mut out, budget, &clusters, total_members, &mut rng);
    out.into_iter().map(Ipv6Addr::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn generated_stay_within_cluster_ranges() {
        let seeds = vec![
            a("2001:db8::1"),
            a("2001:db8::9"),
            a("2001:db8::100"),
            a("2620:0:1::5"),
        ];
        let out = generate_loose(&seeds, 500, 7);
        assert!(!out.is_empty());
        for addr in &out {
            let w = u128::from(*addr);
            // Every generated address shares a /32 with some seed.
            let covered = seeds
                .iter()
                .any(|s| v6addr::bits::common_prefix_len(w, u128::from(*s)) >= 32);
            assert!(covered, "{addr} outside all seed clusters");
        }
    }

    #[test]
    fn deterministic() {
        let seeds = vec![a("2001:db8::1"), a("2001:db8::ff")];
        let x = generate_loose(&seeds, 100, 1);
        let y = generate_loose(&seeds, 100, 1);
        assert_eq!(x, y);
        let z = generate_loose(&seeds, 100, 2);
        assert_ne!(x, z);
    }

    #[test]
    fn denser_clusters_get_more_targets() {
        // 20 seeds in cluster A, 2 in cluster B.
        let mut seeds = Vec::new();
        for i in 0..20u32 {
            seeds.push(Ipv6Addr::from(
                u128::from(a("2001:db8::")) | (i as u128) << 8 | 1,
            ));
        }
        seeds.push(a("2620:0:1::1"));
        seeds.push(a("2620:0:1::2"));
        let out = generate_loose(&seeds, 1_000, 3);
        let in_a = out
            .iter()
            .filter(|x| u128::from(**x) >> 96 == u128::from(a("2001:db8::")) >> 96)
            .count();
        let in_b = out.len() - in_a;
        assert!(in_a > in_b, "dense {in_a} vs sparse {in_b}");
    }

    #[test]
    fn empty_and_zero_budget() {
        assert!(generate_loose(&[], 100, 1).is_empty());
        assert!(generate_loose(&[a("::1")], 0, 1).is_empty());
    }

    #[test]
    fn rejection_rounds_fill_toward_budget() {
        // A wide cluster: the address space is ~16^3 at the varying
        // positions, plenty for the budget; duplicate draws alone should
        // not leave the output badly short.
        let seeds = vec![a("2001:db8::"), a("2001:db8::fff")];
        let out = generate_loose(&seeds, 1_000, 9);
        assert!(out.len() <= 1_000);
        assert!(
            out.len() >= 900,
            "refill left output at {} of 1000",
            out.len()
        );
        // Saturated cluster: only 16 distinct addresses exist; the
        // bounded loop must terminate without spinning.
        let narrow = vec![a("2001:db8::10"), a("2001:db8::1f")];
        let small = generate_loose(&narrow, 1_000, 9);
        assert!(small.len() <= 16);
        assert!(!small.is_empty());
    }

    #[test]
    fn wildcard_positions_vary() {
        // Seeds spanning a nybble range must produce variety there.
        let seeds = vec![a("2001:db8::1000"), a("2001:db8::9000")];
        let out = generate_loose(&seeds, 200, 11);
        let distinct: std::collections::HashSet<u128> =
            out.iter().map(|&x| u128::from(x) >> 12 & 0xf).collect();
        assert!(distinct.len() > 2, "wildcard nybble shows no variety");
    }
}
