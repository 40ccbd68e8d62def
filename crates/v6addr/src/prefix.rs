//! IPv6 prefixes: a base address plus a length, always kept canonical
//! (host bits zero).

use crate::bits;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;

/// A canonical IPv6 prefix.
///
/// Invariants: `len <= 128`, and all bits of `base` below the prefix length
/// are zero. Parsing (`"2001:db8::/32".parse()`) enforces canonical
/// form (rejecting set host bits), while [`Ipv6Prefix::truncating`] masks
/// them away — the common case when deriving a covering prefix from an
/// address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ipv6Prefix {
    base: u128,
    len: u8,
}

/// Error produced by [`Ipv6Prefix::new`] and [`FromStr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// Length exceeded 128 bits.
    LengthOutOfRange(u16),
    /// Base address had bits set beyond the prefix length.
    HostBitsSet,
    /// Textual form did not parse.
    Malformed(String),
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::LengthOutOfRange(l) => write!(f, "prefix length {l} out of range"),
            PrefixError::HostBitsSet => write!(f, "base address has host bits set"),
            PrefixError::Malformed(s) => write!(f, "malformed prefix {s:?}"),
        }
    }
}

impl std::error::Error for PrefixError {}

impl Ipv6Prefix {
    /// Creates a prefix, rejecting non-canonical bases.
    pub(crate) fn new(base: Ipv6Addr, len: u8) -> Result<Self, PrefixError> {
        if len > 128 {
            return Err(PrefixError::LengthOutOfRange(len as u16));
        }
        let word = bits::to_u128(base);
        if word & !bits::mask(len) != 0 {
            return Err(PrefixError::HostBitsSet);
        }
        Ok(Self { base: word, len })
    }

    /// Creates the prefix of length `len` covering `addr`, discarding host
    /// bits.
    pub fn truncating(addr: Ipv6Addr, len: u8) -> Self {
        assert!(len <= 128, "prefix length {len} out of range");
        Self {
            base: bits::to_u128(addr) & bits::mask(len),
            len,
        }
    }

    /// Creates a prefix directly from a `u128` word, masking host bits.
    pub fn from_word(word: u128, len: u8) -> Self {
        assert!(len <= 128, "prefix length {len} out of range");
        Self {
            base: word & bits::mask(len),
            len,
        }
    }

    /// The base address (host bits zero).
    pub fn base(&self) -> Ipv6Addr {
        bits::from_u128(self.base)
    }

    /// The base address as a `u128` word.
    pub fn base_word(&self) -> u128 {
        self.base
    }

    /// The prefix length in bits. (`is_empty` would be meaningless — a
    /// /0 is the default route, not an empty prefix.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Does this prefix cover `addr`?
    pub fn contains_addr(&self, addr: Ipv6Addr) -> bool {
        self.contains_word(bits::to_u128(addr))
    }

    /// Does this prefix cover the address word `word`?
    #[inline]
    pub fn contains_word(&self, word: u128) -> bool {
        (word ^ self.base) & bits::mask(self.len) == 0
    }

    /// Does this prefix cover (or equal) `other`?
    pub fn contains_prefix(&self, other: &Ipv6Prefix) -> bool {
        other.len >= self.len && self.contains_word(other.base)
    }

    /// The immediate parent (one bit shorter), or `None` at the root.
    pub fn parent(&self) -> Option<Ipv6Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Ipv6Prefix::from_word(self.base, self.len - 1))
        }
    }

    /// The two children one bit longer, or `None` at /128.
    pub fn children(&self) -> Option<(Ipv6Prefix, Ipv6Prefix)> {
        if self.len == 128 {
            return None;
        }
        let left = Ipv6Prefix {
            base: self.base,
            len: self.len + 1,
        };
        let right = Ipv6Prefix {
            base: self.base | (1u128 << (127 - self.len as u32)),
            len: self.len + 1,
        };
        Some((left, right))
    }

    /// The `idx`-th subnet of this prefix at length `sub_len`
    /// (`sub_len >= len`). Panics if `idx` does not fit in the available
    /// `sub_len - len` bits.
    pub fn subnet(&self, sub_len: u8, idx: u128) -> Ipv6Prefix {
        assert!(sub_len >= self.len && sub_len <= 128);
        let width = sub_len - self.len;
        assert!(
            width == 128 || idx < (1u128 << width),
            "subnet index {idx} out of range for /{sub_len} inside /{}",
            self.len
        );
        let base = self.base | (idx << (128 - sub_len as u32));
        Ipv6Prefix { base, len: sub_len }
    }

    /// The `idx`-th address within the prefix (offset from the base).
    pub fn addr(&self, idx: u128) -> Ipv6Addr {
        bits::from_u128(self.base | idx)
    }

    /// The number of /64 prefixes covered (saturating; a /64 covers one).
    pub fn count_64s(&self) -> u128 {
        if self.len >= 64 {
            1
        } else {
            1u128 << (64 - self.len as u32)
        }
    }
}

impl fmt::Display for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base(), self.len)
    }
}

impl fmt::Debug for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base(), self.len)
    }
}

impl FromStr for Ipv6Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| PrefixError::Malformed(s.to_string()))?;
        let addr: Ipv6Addr = addr
            .parse()
            .map_err(|_| PrefixError::Malformed(s.to_string()))?;
        let len: u8 = len
            .parse()
            .map_err(|_| PrefixError::Malformed(s.to_string()))?;
        Ipv6Prefix::new(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["2001:db8::/32", "::/0", "2001:db8::1/128", "2002::/16"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn rejects_host_bits() {
        assert_eq!(
            "2001:db8::1/32".parse::<Ipv6Prefix>(),
            Err(PrefixError::HostBitsSet)
        );
        assert!("2001:db8::/129".parse::<Ipv6Prefix>().is_err());
        assert!("junk".parse::<Ipv6Prefix>().is_err());
    }

    #[test]
    fn truncating_masks() {
        let pf = Ipv6Prefix::truncating("2001:db8:1:2::abcd".parse().unwrap(), 48);
        assert_eq!(pf, p("2001:db8:1::/48"));
    }

    #[test]
    fn containment() {
        let p32 = p("2001:db8::/32");
        assert!(p32.contains_addr("2001:db8:ffff::1".parse().unwrap()));
        assert!(!p32.contains_addr("2001:db9::1".parse().unwrap()));
        assert!(p32.contains_prefix(&p("2001:db8:aa::/48")));
        assert!(!p32.contains_prefix(&p("2001::/16")));
        assert!(p("::/0").contains_prefix(&p32));
    }

    #[test]
    fn parent_children() {
        let pf = p("2001:db8::/32");
        let (l, r) = pf.children().unwrap();
        assert_eq!(l, p("2001:db8::/33"));
        assert_eq!(r, p("2001:db8:8000::/33"));
        assert_eq!(l.parent().unwrap(), pf);
        assert_eq!(r.parent().unwrap(), pf);
        assert!(p("::/0").parent().is_none());
        assert!(p("2001:db8::1/128").children().is_none());
    }

    #[test]
    fn subnet_indexing() {
        let pf = p("2001:db8::/32");
        assert_eq!(pf.subnet(48, 0), p("2001:db8::/48"));
        assert_eq!(pf.subnet(48, 1), p("2001:db8:1::/48"));
        assert_eq!(pf.subnet(48, 0xffff), p("2001:db8:ffff::/48"));
    }

    #[test]
    #[should_panic]
    fn subnet_index_overflow_panics() {
        p("2001:db8::/32").subnet(48, 0x1_0000);
    }

    #[test]
    fn count_64s() {
        assert_eq!(p("2001:db8::/64").count_64s(), 1);
        assert_eq!(p("2001:db8::1/128").count_64s(), 1);
        assert_eq!(p("2001:db8::/63").count_64s(), 2);
        assert_eq!(p("2001:db8::/32").count_64s(), 1u128 << 32);
    }

    #[test]
    fn addr_offsets() {
        let pf = p("2001:db8::/64");
        assert_eq!(pf.addr(1), "2001:db8::1".parse::<Ipv6Addr>().unwrap());
    }
}
