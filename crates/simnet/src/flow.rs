//! Deterministic hashing for flow keys and "random-looking" per-entity
//! decisions (loss, jitter, policy draws).
//!
//! The simulator must be reproducible, so anything that looks random is a
//! hash of stable identifiers. `splitmix64` is used as the mixing
//! function — tiny, fast, and statistically solid for this purpose.

use std::net::Ipv6Addr;

/// SplitMix64 finalizer: a bijective 64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Combines two words into one mixed word.
#[inline]
pub(crate) fn mix2(a: u64, b: u64) -> u64 {
    mix64(a ^ mix64(b))
}

/// Hashes a 128-bit word.
#[inline]
pub(crate) fn mix128(x: u128) -> u64 {
    mix2(x as u64, (x >> 64) as u64)
}

/// Hasher for the topology's integer-keyed, get-only tables: splitmix
/// instead of SipHash. Their keys are generated by this program, never
/// read from input, so there is no crafted collision to resist.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MixHasher(u64);

impl std::hash::Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix64(self.0 ^ b as u64);
        }
    }
    fn write_u32(&mut self, x: u32) {
        self.0 = mix64(self.0 ^ x as u64);
    }
    fn write_u128(&mut self, x: u128) {
        self.0 ^= mix128(x);
    }
}

/// A `HashMap` hashed by [`MixHasher`].
pub(crate) type MixMap<K, V> =
    std::collections::HashMap<K, V, std::hash::BuildHasherDefault<MixHasher>>;

/// The 5-tuple a per-flow load balancer hashes. For Yarrp6 probes every
/// field is constant per target (paper §4.1), so ECMP path choice is
/// stable per target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct FlowKey {
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
    /// IPv6 flow label (RFC 6438 recommends hashing it for ECMP).
    pub flow_label: u32,
    /// Transport protocol number.
    pub proto: u8,
    /// Source port / ICMPv6 identifier.
    pub sport: u16,
    /// Destination port / ICMPv6 sequence.
    pub dport: u16,
}

impl FlowKey {
    /// The 64-bit flow hash used by ECMP decisions.
    ///
    /// Two splitmix finalizer rounds over xor-folded addresses: the
    /// fields land in distinct bit positions before the first avalanche,
    /// which is plenty for ECMP bit draws and cache bucketing — and this
    /// sits on the per-probe hot path, so rounds are budgeted.
    #[inline]
    pub(crate) fn hash(&self) -> u64 {
        let src = u128::from(self.src);
        let dst = u128::from(self.dst);
        let s = (src as u64) ^ ((src >> 64) as u64).rotate_left(32);
        let d = (dst as u64) ^ ((dst >> 64) as u64).rotate_left(32);
        let ports = ((self.proto as u64) << 32) | ((self.sport as u64) << 16) | self.dport as u64;
        mix2(s, d ^ ports ^ ((self.flow_label as u64) << 40))
    }
}

/// A deterministic Bernoulli draw: true with probability `milli`/1000,
/// keyed by `key`.
#[inline]
pub(crate) fn draw_milli(key: u64, milli: u32) -> bool {
    (mix64(key) % 1000) < milli as u64
}

/// Deterministic jitter in `[0, span_us)`, keyed by `key`.
#[inline]
pub(crate) fn jitter_us(key: u64, span_us: u64) -> u64 {
    if span_us == 0 {
        0
    } else {
        mix64(key) % span_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
        // Low bits of consecutive inputs should differ (avalanche sanity).
        let a = mix64(1) & 0xff;
        let b = mix64(2) & 0xff;
        let c = mix64(3) & 0xff;
        assert!(!(a == b && b == c));
    }

    #[test]
    fn flowkey_stable_and_sensitive() {
        let k = FlowKey {
            src: "2001:db8::1".parse().unwrap(),
            dst: "2001:db8::2".parse().unwrap(),
            flow_label: 0,
            proto: 58,
            sport: 0x1234,
            dport: 80,
        };
        assert_eq!(k.hash(), k.hash());
        let mut k2 = k;
        k2.sport = 0x1235;
        assert_ne!(k.hash(), k2.hash());
        let mut k3 = k;
        k3.dst = "2001:db8::3".parse().unwrap();
        assert_ne!(k.hash(), k3.hash());
        let mut k4 = k;
        k4.flow_label = 0xabcde;
        assert_ne!(k.hash(), k4.hash());
    }

    #[test]
    fn draws_respect_probability_roughly() {
        let n = 10_000u64;
        let hits = (0..n).filter(|&i| draw_milli(i, 100)).count();
        // 10% ± 2% over 10k draws.
        assert!((800..=1200).contains(&hits), "hits={hits}");
        let all = (0..n).filter(|&i| draw_milli(i, 1000)).count();
        assert_eq!(all as u64, n);
        let none = (0..n).filter(|&i| draw_milli(i, 0)).count();
        assert_eq!(none, 0);
    }

    #[test]
    fn jitter_bounded() {
        for i in 0..1000 {
            assert!(jitter_us(i, 500) < 500);
        }
        assert_eq!(jitter_us(7, 0), 0);
    }
}
