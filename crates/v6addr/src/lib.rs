//! IPv6 address primitives for active topology discovery.
//!
//! This crate provides the address-level machinery shared by every other
//! crate in the workspace:
//!
//! * [`Ipv6Prefix`] — a validated `(base address, length)` pair with
//!   containment, aggregation and canonical textual form;
//! * [`PrefixTrie`] — a binary (radix-1) trie keyed by prefixes supporting
//!   exact lookup and longest-prefix match, used for BGP tables and
//!   ground-truth subnet plans;
//! * [`BgpTable`] — a routed-prefix table mapping prefixes to origin
//!   [`Asn`]s, with the "equivalent ASN" augmentation from §6 of the paper;
//! * [`dpl`] — *Discriminating Prefix Length* computations (§3.4.1);
//! * [`iid`] — the `addr6`-style interface-identifier classifier used for
//!   Table 1 and Table 7 (EUI-64 / low-byte / embedded-IPv4 / random).
//!
//! All address math is done on `u128` in network bit order (bit 0 is the
//! most significant bit of the address).

#![warn(unreachable_pub)]

mod bgp;
pub mod bits;
pub mod dpl;
pub mod iid;
mod prefix;
mod trie;

pub use bgp::{Asn, BgpTable};
pub use iid::IidClass;
pub use prefix::Ipv6Prefix;
pub use trie::{Finger, PrefixTrie};

use std::net::Ipv6Addr;

/// The well-known 6to4 relay prefix `2002::/16` (RFC 3056).
///
/// Table 5 counts how many targets in each set fall inside 6to4 space; the
/// constant lives here so both `targets` and the bench binaries agree.
pub fn sixtofour_prefix() -> Ipv6Prefix {
    Ipv6Prefix::new(Ipv6Addr::new(0x2002, 0, 0, 0, 0, 0, 0, 0), 16).unwrap()
}

/// Returns true if `addr` lies in 6to4 (`2002::/16`) space.
pub fn is_sixtofour(addr: Ipv6Addr) -> bool {
    sixtofour_prefix().contains_addr(addr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixtofour_detection() {
        assert!(is_sixtofour("2002:db8::1".parse().unwrap()));
        assert!(!is_sixtofour("2001:db8::1".parse().unwrap()));
    }
}
