//! Wire formats for IPv6 active topology probing.
//!
//! This crate implements, at the byte level, everything that crosses the
//! (simulated) wire:
//!
//! * [`ip6`] — the 40-byte IPv6 header;
//! * [`csum`] — the RFC 1071 Internet checksum and the IPv6 pseudo-header;
//! * [`icmp6`] — ICMPv6 messages: Echo Request/Reply, Time Exceeded and
//!   Destination Unreachable errors carrying full packet quotations
//!   (RFC 4443 §2.4 requires as much of the invoking packet as fits);
//! * [`probe`] — the Yarrp6 probe: a TCP/UDP/ICMPv6 transport followed by a
//!   12-byte payload encoding `(magic, instance, TTL, timestamp, fudge)` so
//!   the prober can be completely stateless (paper §4.1, Figure 4). The
//!   *fudge* field keeps the transport checksum constant per target so that
//!   per-flow load balancers (which hash the ICMPv6 checksum) see a single
//!   flow per target — Paris-traceroute behaviour for free.
//!
//! Everything is length-checked; malformed input yields [`probe::DecodeError`]
//! rather than panics, since real responses traverse middleboxes that
//! rewrite and truncate.

#![warn(unreachable_pub)]

pub mod csum;
pub mod frag;
pub mod icmp6;
pub mod ip6;
pub mod probe;
pub mod tcp;

pub use icmp6::Icmp6Type;
pub use ip6::Ipv6Header;
pub use probe::{DecodeError, ProbeSpec, Protocol, YARRP6_MAGIC};

/// Protocol numbers for the IPv6 Next Header field.
pub mod proto_num {
    /// TCP (RFC 9293).
    pub const TCP: u8 = 6;
    /// UDP (RFC 768).
    pub const UDP: u8 = 17;
    /// ICMPv6 (RFC 4443).
    pub const ICMP6: u8 = 58;
}

/// Minimum IPv6 MTU; an ICMPv6 error message must not exceed it
/// (RFC 4443 §2.4(c)).
pub(crate) const MIN_MTU: usize = 1280;
