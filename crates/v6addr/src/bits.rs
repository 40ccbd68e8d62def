//! Bit-level helpers over `u128` address words.
//!
//! Addresses are treated as 128-bit words in *network bit order*: bit 0 is
//! the most significant bit (the first bit on the wire), bit 127 the least
//! significant. A prefix of length `l` covers bits `[0, l)`.

use std::net::Ipv6Addr;

/// Converts an [`Ipv6Addr`] to its `u128` word (network bit order).
#[inline]
pub(crate) fn to_u128(addr: Ipv6Addr) -> u128 {
    u128::from(addr)
}

/// Converts a `u128` word back to an [`Ipv6Addr`].
#[inline]
pub fn from_u128(word: u128) -> Ipv6Addr {
    Ipv6Addr::from(word)
}

/// The network mask for a prefix of length `len` (0..=128): the top `len`
/// bits set.
///
/// `mask(0) == 0`, `mask(128) == u128::MAX`.
#[inline]
pub fn mask(len: u8) -> u128 {
    debug_assert!(len <= 128);
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - len as u32)
    }
}

/// Number of leading bits in which `a` and `b` agree (0..=128).
#[inline]
pub fn common_prefix_len(a: u128, b: u128) -> u8 {
    (a ^ b).leading_zeros() as u8
}

/// The value of bit `idx` (0 = most significant) of `word`.
#[inline]
pub fn bit(word: u128, idx: u8) -> bool {
    debug_assert!(idx < 128);
    word & (1u128 << (127 - idx as u32)) != 0
}

/// Returns `word` with bit `idx` (0 = most significant) set to `value`.
#[inline]
pub(crate) fn with_bit(word: u128, idx: u8, value: bool) -> u128 {
    debug_assert!(idx < 128);
    let m = 1u128 << (127 - idx as u32);
    if value {
        word | m
    } else {
        word & !m
    }
}

/// Extracts the low 64 bits — the interface identifier (IID) — of an
/// address word.
#[inline]
pub fn iid_bits(word: u128) -> u64 {
    word as u64
}

/// Extracts the high 64 bits — the subnet (network) identifier.
#[inline]
pub fn net_bits(word: u128) -> u64 {
    (word >> 64) as u64
}

/// Builds an address word from a 64-bit network identifier and 64-bit IID.
#[inline]
pub fn join(net: u64, iid: u64) -> u128 {
    ((net as u128) << 64) | iid as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_edges() {
        assert_eq!(mask(0), 0);
        assert_eq!(mask(128), u128::MAX);
        assert_eq!(mask(1), 1u128 << 127);
        assert_eq!(mask(64), 0xffff_ffff_ffff_ffff_0000_0000_0000_0000);
    }

    #[test]
    fn common_prefix() {
        assert_eq!(common_prefix_len(0, 0), 128);
        assert_eq!(common_prefix_len(0, 1), 127);
        assert_eq!(common_prefix_len(0, 1u128 << 127), 0);
        let a = to_u128("2001:db8::1".parse().unwrap());
        let b = to_u128("2001:db8::2".parse().unwrap());
        assert_eq!(common_prefix_len(a, b), 126);
    }

    #[test]
    fn bit_roundtrip() {
        let w = to_u128("2001:db8::1".parse().unwrap());
        assert!(bit(w, 2)); // 0x2001... -> 0010 0000 0000 0001
        assert!(!bit(w, 0));
        assert!(bit(w, 127));
        assert_eq!(with_bit(w, 127, false), w - 1);
        assert_eq!(with_bit(w, 0, true), w | (1u128 << 127));
    }

    #[test]
    fn net_iid_split() {
        let w = join(0x2001_0db8_0000_0001, 0x0000_0000_0000_00aa);
        assert_eq!(net_bits(w), 0x2001_0db8_0000_0001);
        assert_eq!(iid_bits(w), 0xaa);
        assert_eq!(
            from_u128(w),
            "2001:db8:0:1::aa".parse::<Ipv6Addr>().unwrap()
        );
    }
}
