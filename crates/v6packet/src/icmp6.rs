//! ICMPv6 messages (RFC 4443): echo, Time Exceeded, Destination
//! Unreachable — the response vocabulary of topology probing.
//!
//! Error messages carry a *quotation*: as much of the invoking packet as
//! fits within the minimum MTU. For Yarrp6 this quotation is the state
//! store — Tables 3 and 4 of the paper tabulate exactly these types/codes.

use crate::ip6::{self, Ipv6Header};
use crate::{csum, proto_num, MIN_MTU};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv6Addr;

/// ICMPv6 message type numbers used in this workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Icmp6Type {
    /// Type 1 — Destination Unreachable, with code.
    DestUnreachable(DestUnreachCode),
    /// Type 3, code 0 — Hop limit exceeded in transit.
    TimeExceeded,
    /// Type 128 — Echo Request.
    EchoRequest,
    /// Type 129 — Echo Reply.
    EchoReply,
}

/// Destination Unreachable codes (RFC 4443 §3.1) observed in Table 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DestUnreachCode {
    /// Code 0 — no route to destination.
    NoRoute,
    /// Code 1 — communication administratively prohibited.
    AdminProhibited,
    /// Code 3 — address unreachable.
    AddrUnreachable,
    /// Code 4 — port unreachable.
    PortUnreachable,
    /// Code 6 — reject route to destination.
    RejectRoute,
}

impl DestUnreachCode {
    /// Wire code value.
    pub fn code(self) -> u8 {
        match self {
            DestUnreachCode::NoRoute => 0,
            DestUnreachCode::AdminProhibited => 1,
            DestUnreachCode::AddrUnreachable => 3,
            DestUnreachCode::PortUnreachable => 4,
            DestUnreachCode::RejectRoute => 6,
        }
    }

    /// Parses a wire code value.
    pub(crate) fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => DestUnreachCode::NoRoute,
            1 => DestUnreachCode::AdminProhibited,
            3 => DestUnreachCode::AddrUnreachable,
            4 => DestUnreachCode::PortUnreachable,
            6 => DestUnreachCode::RejectRoute,
            _ => return None,
        })
    }
}

impl fmt::Display for DestUnreachCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DestUnreachCode::NoRoute => "no route to destination",
            DestUnreachCode::AdminProhibited => "administratively prohibited",
            DestUnreachCode::AddrUnreachable => "address unreachable",
            DestUnreachCode::PortUnreachable => "port unreachable",
            DestUnreachCode::RejectRoute => "reject route to destination",
        };
        f.write_str(s)
    }
}

impl Icmp6Type {
    /// `(type, code)` wire values.
    pub(crate) fn type_code(self) -> (u8, u8) {
        match self {
            Icmp6Type::DestUnreachable(c) => (1, c.code()),
            Icmp6Type::TimeExceeded => (3, 0),
            Icmp6Type::EchoRequest => (128, 0),
            Icmp6Type::EchoReply => (129, 0),
        }
    }

    /// Parses `(type, code)` wire values.
    pub fn from_type_code(ty: u8, code: u8) -> Option<Self> {
        Some(match (ty, code) {
            (1, c) => Icmp6Type::DestUnreachable(DestUnreachCode::from_code(c)?),
            (3, 0) => Icmp6Type::TimeExceeded,
            (128, 0) => Icmp6Type::EchoRequest,
            (129, 0) => Icmp6Type::EchoReply,
            _ => return None,
        })
    }

    /// Error messages carry a quotation; informational ones do not.
    pub(crate) fn is_error(self) -> bool {
        matches!(
            self,
            Icmp6Type::DestUnreachable(_) | Icmp6Type::TimeExceeded
        )
    }
}

/// A parsed ICMPv6 message, with its (possibly truncated) quotation or
/// echo body.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Icmp6Message {
    /// Message type and code.
    pub ty: Icmp6Type,
    /// For echoes: the identifier; unused (zero) for errors.
    pub ident: u16,
    /// For echoes: the sequence number; unused (zero) for errors.
    pub seq: u16,
    /// Error quotation (the invoking IPv6 packet) or echo data.
    pub body: Vec<u8>,
}

/// Builds a complete ICMPv6 *error* packet (IPv6 header + ICMPv6) from
/// router `src` back to `dst` into `out` (cleared first), quoting
/// `invoking_packet` (a full IPv6 packet as received). The quotation is
/// truncated so the whole error stays within the minimum IPv6 MTU (1280
/// bytes); no allocation once `out` has grown to that size.
pub fn build_error_into(
    out: &mut Vec<u8>,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    ty: Icmp6Type,
    invoking_packet: &[u8],
    hop_limit: u8,
) {
    build_error_quoted_into(out, src, dst, ty, invoking_packet, hop_limit, |_| {});
}

/// [`build_error_into`] with a `patch_quote` hook applied to the copied
/// quotation *before* the checksum is computed. Routers quote the packet
/// as they saw it (hop limit exhausted, middlebox-rewritten destination),
/// and patching the single copy in place avoids an intermediate
/// mutate-then-copy buffer on the engine's hot path.
pub fn build_error_quoted_into(
    out: &mut Vec<u8>,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    ty: Icmp6Type,
    invoking_packet: &[u8],
    hop_limit: u8,
    patch_quote: impl FnOnce(&mut [u8]),
) {
    debug_assert!(ty.is_error());
    let max_quote = MIN_MTU - ip6::HEADER_LEN - 8;
    let quote = &invoking_packet[..invoking_packet.len().min(max_quote)];
    let (t, c) = ty.type_code();
    let hdr = Ipv6Header {
        traffic_class: 0,
        flow_label: 0,
        payload_len: (8 + quote.len()) as u16,
        next_header: proto_num::ICMP6,
        hop_limit,
        src,
        dst,
    };
    out.clear();
    out.extend_from_slice(&hdr.encode());
    out.extend_from_slice(&[t, c, 0, 0, 0, 0, 0, 0]); // cksum filled below
    out.extend_from_slice(quote);
    let quote_off = ip6::HEADER_LEN + 8;
    patch_quote(&mut out[quote_off..]);
    let ck = csum::transport_checksum(src, dst, proto_num::ICMP6, &out[ip6::HEADER_LEN..]);
    out[ip6::HEADER_LEN + 2..ip6::HEADER_LEN + 4].copy_from_slice(&ck.to_be_bytes());
}

/// Builds a complete Echo Reply packet into `out` (cleared first),
/// answering an echo request with identifier `ident`, sequence `seq` and
/// `data` (the request's payload, returned verbatim per RFC 4443 §4.2).
#[allow(clippy::too_many_arguments)]
pub fn build_echo_reply_into(
    out: &mut Vec<u8>,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    ident: u16,
    seq: u16,
    data: &[u8],
    hop_limit: u8,
) {
    let hdr = Ipv6Header {
        traffic_class: 0,
        flow_label: 0,
        payload_len: (8 + data.len()) as u16,
        next_header: proto_num::ICMP6,
        hop_limit,
        src,
        dst,
    };
    out.clear();
    out.extend_from_slice(&hdr.encode());
    out.extend_from_slice(&[129, 0, 0, 0]);
    out.extend_from_slice(&ident.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(data);
    let ck = csum::transport_checksum(src, dst, proto_num::ICMP6, &out[ip6::HEADER_LEN..]);
    out[ip6::HEADER_LEN + 2..ip6::HEADER_LEN + 4].copy_from_slice(&ck.to_be_bytes());
}

/// Parses a full IPv6+ICMPv6 packet. Returns the outer header and the
/// message. Checksum is verified; `None` on any malformation.
pub fn parse(packet: &[u8]) -> Option<(Ipv6Header, Icmp6Message)> {
    let hdr = Ipv6Header::decode(packet)?;
    if hdr.next_header != proto_num::ICMP6 {
        return None;
    }
    let icmp = packet.get(ip6::HEADER_LEN..)?;
    if icmp.len() < 8 || icmp.len() != hdr.payload_len as usize {
        return None;
    }
    if !csum::verify_transport(hdr.src, hdr.dst, proto_num::ICMP6, icmp) {
        return None;
    }
    let ty = Icmp6Type::from_type_code(icmp[0], icmp[1])?;
    let (ident, seq, body) = if ty.is_error() {
        (0, 0, icmp[8..].to_vec())
    } else {
        (
            u16::from_be_bytes([icmp[4], icmp[5]]),
            u16::from_be_bytes([icmp[6], icmp[7]]),
            icmp[8..].to_vec(),
        )
    };
    Some((
        hdr,
        Icmp6Message {
            ty,
            ident,
            seq,
            body,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn error_roundtrip() {
        let invoking = vec![0xabu8; 100];
        let mut pkt = Vec::new();
        build_error_into(
            &mut pkt,
            addr("2001:db8::a"),
            addr("2001:db8::b"),
            Icmp6Type::TimeExceeded,
            &invoking,
            64,
        );
        let (hdr, msg) = parse(&pkt).unwrap();
        assert_eq!(hdr.src, addr("2001:db8::a"));
        assert_eq!(hdr.dst, addr("2001:db8::b"));
        assert_eq!(msg.ty, Icmp6Type::TimeExceeded);
        assert_eq!(msg.body, invoking);
    }

    #[test]
    fn error_quotation_truncated_to_min_mtu() {
        let invoking = vec![0u8; 4000];
        let mut pkt = Vec::new();
        build_error_into(
            &mut pkt,
            addr("::1"),
            addr("::2"),
            Icmp6Type::DestUnreachable(DestUnreachCode::NoRoute),
            &invoking,
            64,
        );
        assert!(pkt.len() <= MIN_MTU);
        let (_, msg) = parse(&pkt).unwrap();
        assert_eq!(msg.body.len(), MIN_MTU - ip6::HEADER_LEN - 8);
    }

    #[test]
    fn echo_reply_roundtrip() {
        let data = b"yarrp6 payload".to_vec();
        let mut pkt = Vec::new();
        build_echo_reply_into(&mut pkt, addr("::1"), addr("::2"), 0x1234, 80, &data, 55);
        let (hdr, msg) = parse(&pkt).unwrap();
        assert_eq!(hdr.hop_limit, 55);
        assert_eq!(msg.ty, Icmp6Type::EchoReply);
        assert_eq!(msg.ident, 0x1234);
        assert_eq!(msg.seq, 80);
        assert_eq!(msg.body, data);
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let mut pkt = Vec::new();
        build_echo_reply_into(&mut pkt, addr("::1"), addr("::2"), 1, 2, b"x", 64);
        let n = pkt.len() - 1;
        pkt[n] ^= 0x55;
        assert!(parse(&pkt).is_none());
    }

    #[test]
    fn all_codes_roundtrip() {
        for code in [
            DestUnreachCode::NoRoute,
            DestUnreachCode::AdminProhibited,
            DestUnreachCode::AddrUnreachable,
            DestUnreachCode::PortUnreachable,
            DestUnreachCode::RejectRoute,
        ] {
            let ty = Icmp6Type::DestUnreachable(code);
            let (t, c) = ty.type_code();
            assert_eq!(Icmp6Type::from_type_code(t, c), Some(ty));
        }
        assert_eq!(Icmp6Type::from_type_code(1, 2), None);
        assert_eq!(Icmp6Type::from_type_code(200, 0), None);
    }
}
