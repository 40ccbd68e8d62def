//! A keyed random permutation of `[0, n)` via a balanced Feistel network
//! with cycle-walking.
//!
//! Yarrp derives its rate-limit evasion from enumerating the
//! `(target, TTL)` space in an order that looks random but needs no
//! stored shuffle: a format-preserving permutation. We build a 4-round
//! Feistel cipher over the smallest even bit-width covering `n`, and
//! cycle-walk values that land outside `[0, n)` — the standard
//! construction (also used by the original Yarrp via RC5).
//!
//! Properties (property-tested): bijective on `[0, n)`, deterministic per
//! key, and different keys give different orders.

use serde::{Deserialize, Serialize};

const ROUNDS: usize = 4;

/// A keyed permutation of `[0, n)`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Permutation {
    n: u64,
    half_bits: u32,
    keys: [u64; ROUNDS],
}

#[inline]
fn mix(x: u64) -> u64 {
    // splitmix64 finalizer.
    let mut x = x;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Permutation {
    /// Creates the permutation of `[0, n)` keyed by `seed`.
    ///
    /// `n = 0` yields an empty permutation; `n = 1` the identity.
    pub fn new(n: u64, seed: u64) -> Self {
        // Smallest even width b with 2^b >= n (minimum 2 so both Feistel
        // halves are non-empty).
        let mut bits = 64 - n.saturating_sub(1).leading_zeros();
        if bits < 2 {
            bits = 2;
        }
        if bits % 2 == 1 {
            bits += 1;
        }
        let mut keys = [0u64; ROUNDS];
        for (i, k) in keys.iter_mut().enumerate() {
            *k = mix(seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)));
        }
        Permutation {
            n,
            half_bits: bits / 2,
            keys,
        }
    }

    fn feistel(&self, x: u64) -> u64 {
        let half_mask = (1u64 << self.half_bits) - 1;
        let mut l = (x >> self.half_bits) & half_mask;
        let mut r = x & half_mask;
        for &k in &self.keys {
            let f = mix(r ^ k) & half_mask;
            let nl = r;
            let nr = l ^ f;
            l = nl;
            r = nr;
        }
        (l << self.half_bits) | r
    }

    /// Maps index `i` (must be `< n`) to its permuted value in `[0, n)`.
    ///
    /// Cycle-walking: a Feistel output outside the domain is re-encrypted
    /// until it lands inside; because the cipher is a bijection on the
    /// covering power-of-two domain, the walk terminates and the overall
    /// map stays bijective on `[0, n)`.
    pub fn apply(&self, i: u64) -> u64 {
        assert!(i < self.n, "index {i} out of domain [0, {})", self.n);
        let mut x = self.feistel(i);
        while x >= self.n {
            x = self.feistel(x);
        }
        x
    }

    /// Iterates the full permuted sequence.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.n).map(move |i| self.apply(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bijective_on_small_domains() {
        for n in [1u64, 2, 3, 10, 16, 17, 100, 1000, 1023, 1024, 1025] {
            let p = Permutation::new(n, 42);
            let mut seen = vec![false; n as usize];
            for i in 0..n {
                let v = p.apply(i);
                assert!(v < n, "n={n}: value {v} out of range");
                assert!(!seen[v as usize], "n={n}: duplicate {v}");
                seen[v as usize] = true;
            }
        }
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        let a = Permutation::new(1000, 7);
        let b = Permutation::new(1000, 7);
        let c = Permutation::new(1000, 8);
        let va: Vec<u64> = a.iter().collect();
        let vb: Vec<u64> = b.iter().collect();
        let vc: Vec<u64> = c.iter().collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn looks_shuffled() {
        // The permutation must not be (close to) the identity: count
        // fixed points and monotone runs.
        let n = 10_000u64;
        let p = Permutation::new(n, 3);
        let fixed = (0..n).filter(|&i| p.apply(i) == i).count();
        assert!(fixed < 20, "too many fixed points: {fixed}");
        let mut ascending_pairs = 0u64;
        let mut prev = p.apply(0);
        for i in 1..n {
            let v = p.apply(i);
            if v == prev + 1 {
                ascending_pairs += 1;
            }
            prev = v;
        }
        assert!(ascending_pairs < 20, "sequential runs: {ascending_pairs}");
    }

    #[test]
    fn spreads_ttls_of_one_target() {
        // Map (target, ttl) pairs as the prober does and confirm probes of
        // one target are far apart in emission order.
        let targets = 500u64;
        let ttls = 16u64;
        let n = targets * ttls;
        let p = Permutation::new(n, 9);
        // Position of each probe of target 7 in the output order.
        let mut positions: Vec<u64> = Vec::new();
        for (pos, v) in p.iter().enumerate() {
            if v / ttls == 7 {
                positions.push(pos as u64);
            }
        }
        assert_eq!(positions.len(), ttls as usize);
        // No two consecutive emissions for the same target.
        positions.sort_unstable();
        let min_gap = positions.windows(2).map(|w| w[1] - w[0]).min().unwrap();
        assert!(min_gap > 1, "same-target probes adjacent in order");
    }

    #[test]
    fn empty_domain() {
        let p = Permutation::new(0, 1);
        assert_eq!(p.iter().count(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_domain_panics() {
        Permutation::new(10, 1).apply(10);
    }
}
