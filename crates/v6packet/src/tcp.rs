//! Minimal TCP segments: what a reached destination sends back to a TCP
//! SYN probe (RST or SYN-ACK), and its parser.
//!
//! Unlike ICMPv6 errors, destination TCP responses carry **no quotation**,
//! so the prober cannot recover the originating TTL or timestamp from
//! them — a real limitation of TCP probing the paper's protocol trials
//! surface (§4.2): TCP yields the fewest responses and the least
//! recoverable state.

use crate::csum;
use crate::ip6::{self, Ipv6Header};
use crate::proto_num;
use std::net::Ipv6Addr;

/// TCP flag bits used here.
pub mod flags {
    /// Connection reset.
    pub const RST: u8 = 0x04;
    /// Acknowledge.
    pub const ACK: u8 = 0x10;
}

/// A parsed (header-only) TCP segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// Flag bits.
    pub flags: u8,
}

/// Builds a complete IPv6+TCP response segment (20-byte header, no
/// options, no payload) from `src` back to `dst` into `out` (cleared
/// first).
#[allow(clippy::too_many_arguments)]
pub fn build_response_into(
    out: &mut Vec<u8>,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    sport: u16,
    dport: u16,
    flags: u8,
    hop_limit: u8,
) {
    let mut seg = [0u8; 20];
    seg[0..2].copy_from_slice(&sport.to_be_bytes());
    seg[2..4].copy_from_slice(&dport.to_be_bytes());
    seg[12] = 5 << 4;
    seg[13] = flags;
    seg[14..16].copy_from_slice(&0u16.to_be_bytes());
    let ck = csum::transport_checksum(src, dst, proto_num::TCP, &seg);
    seg[16..18].copy_from_slice(&ck.to_be_bytes());
    let hdr = Ipv6Header {
        traffic_class: 0,
        flow_label: 0,
        payload_len: 20,
        next_header: proto_num::TCP,
        hop_limit,
        src,
        dst,
    };
    out.clear();
    out.extend_from_slice(&hdr.encode());
    out.extend_from_slice(&seg);
}

/// Parses an IPv6+TCP packet (header only); checksum-verified.
pub fn parse(packet: &[u8]) -> Option<(Ipv6Header, TcpSegment)> {
    let hdr = Ipv6Header::decode(packet)?;
    if hdr.next_header != proto_num::TCP {
        return None;
    }
    let seg = packet.get(ip6::HEADER_LEN..)?;
    if seg.len() < 20 || seg.len() != hdr.payload_len as usize {
        return None;
    }
    if !csum::verify_transport(hdr.src, hdr.dst, proto_num::TCP, seg) {
        return None;
    }
    Some((
        hdr,
        TcpSegment {
            sport: u16::from_be_bytes([seg[0], seg[1]]),
            dport: u16::from_be_bytes([seg[2], seg[3]]),
            flags: seg[13],
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rst_roundtrip() {
        let mut pkt = Vec::new();
        build_response_into(
            &mut pkt,
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
            80,
            0x1234,
            flags::RST | flags::ACK,
            60,
        );
        let (hdr, seg) = parse(&pkt).unwrap();
        assert_eq!(hdr.hop_limit, 60);
        assert_eq!(seg.sport, 80);
        assert_eq!(seg.dport, 0x1234);
        assert_eq!(seg.flags, flags::RST | flags::ACK);
    }

    #[test]
    fn rejects_corruption_and_non_tcp() {
        let mut pkt = Vec::new();
        build_response_into(
            &mut pkt,
            "::1".parse().unwrap(),
            "::2".parse().unwrap(),
            80,
            1,
            flags::RST,
            64,
        );
        assert!(parse(&pkt[..30]).is_none());
        pkt[45] ^= 1;
        assert!(parse(&pkt).is_none());
    }
}
