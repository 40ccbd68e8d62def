//! The IPv6 Fragment extension header (RFC 8200 §4.5) — the channel
//! speedtrap-style alias resolution reads.
//!
//! IPv6 has no per-packet identifier in its fixed header; one appears
//! only when a source fragments, in the Fragment header's 32-bit
//! Identification field. Most router implementations draw that field
//! from a single monotonic counter shared by *all* interfaces — so two
//! interface addresses whose fragment identifiers interleave along one
//! counter belong to one router. Speedtrap (Luckie et al. \[42\]) elicits
//! fragmented Echo Replies with oversized Echo Requests and exploits
//! exactly this.
//!
//! We model the "atomic fragment" response: a single fragment carrying
//! the whole reply (offset 0, M=0) — enough to expose the identifier
//! without reassembly machinery.

use crate::csum;
use crate::ip6::{self, Ipv6Header};
use crate::proto_num;
use std::net::Ipv6Addr;

/// Next Header value of the Fragment extension header.
pub(crate) const FRAGMENT_NH: u8 = 44;

/// Length of the Fragment header.
pub(crate) const FRAG_HEADER_LEN: usize = 8;

/// Builds a fragmented (atomic-fragment) ICMPv6 Echo Reply carrying
/// `ident`/`seq`/`data`, with fragment identification `frag_id`, into a
/// reusable buffer (cleared first).
#[allow(clippy::too_many_arguments)]
pub fn build_fragmented_echo_reply_into(
    out: &mut Vec<u8>,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    ident: u16,
    seq: u16,
    data: &[u8],
    hop_limit: u8,
    frag_id: u32,
) {
    let icmp_len = 8 + data.len();
    let hdr = Ipv6Header {
        traffic_class: 0,
        flow_label: 0,
        payload_len: (FRAG_HEADER_LEN + icmp_len) as u16,
        next_header: FRAGMENT_NH,
        hop_limit,
        src,
        dst,
    };
    out.clear();
    out.extend_from_slice(&hdr.encode());
    out.push(proto_num::ICMP6); // inner next header
    out.push(0); // reserved
    out.extend_from_slice(&0u16.to_be_bytes()); // offset 0, M=0
    out.extend_from_slice(&frag_id.to_be_bytes());
    out.extend_from_slice(&[129, 0, 0, 0]);
    out.extend_from_slice(&ident.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(data);
    let icmp_off = ip6::HEADER_LEN + FRAG_HEADER_LEN;
    let ck = csum::transport_checksum(src, dst, proto_num::ICMP6, &out[icmp_off..]);
    out[icmp_off + 2..icmp_off + 4].copy_from_slice(&ck.to_be_bytes());
}

/// A parsed fragmented echo reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FragmentedEchoReply {
    /// Outer header.
    pub header: Ipv6Header,
    /// Fragment identification — the alias-resolution signal.
    pub frag_id: u32,
    /// Echo identifier.
    pub ident: u16,
    /// Echo sequence.
    pub seq: u16,
    /// Echo data.
    pub data: Vec<u8>,
}

/// Parses a fragmented echo reply; checksum-verified; `None` on any
/// malformation or if the packet is not `IPv6 / Fragment / ICMPv6 echo
/// reply`.
pub fn parse_fragmented_echo_reply(packet: &[u8]) -> Option<FragmentedEchoReply> {
    let hdr = Ipv6Header::decode(packet)?;
    if hdr.next_header != FRAGMENT_NH {
        return None;
    }
    let frag = packet.get(ip6::HEADER_LEN..)?;
    if frag.len() < FRAG_HEADER_LEN || frag.len() != hdr.payload_len as usize {
        return None;
    }
    if frag[0] != proto_num::ICMP6 {
        return None;
    }
    let offset_flags = u16::from_be_bytes([frag[2], frag[3]]);
    if offset_flags != 0 {
        return None; // only atomic fragments are modeled
    }
    let frag_id = u32::from_be_bytes([frag[4], frag[5], frag[6], frag[7]]);
    let icmp = &frag[FRAG_HEADER_LEN..];
    if icmp.len() < 8 || icmp[0] != 129 || icmp[1] != 0 {
        return None;
    }
    if !csum::verify_transport(hdr.src, hdr.dst, proto_num::ICMP6, icmp) {
        return None;
    }
    Some(FragmentedEchoReply {
        header: hdr,
        frag_id,
        ident: u16::from_be_bytes([icmp[4], icmp[5]]),
        seq: u16::from_be_bytes([icmp[6], icmp[7]]),
        data: icmp[8..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn roundtrip() {
        let (src, dst) = (a("2001:db8::1"), a("2001:db8::2"));
        let mut pkt = Vec::new();
        build_fragmented_echo_reply_into(
            &mut pkt,
            src,
            dst,
            0xbeef,
            7,
            b"speedtrap",
            64,
            0x01020304,
        );
        let r = parse_fragmented_echo_reply(&pkt).unwrap();
        assert_eq!(r.frag_id, 0x01020304);
        assert_eq!(r.ident, 0xbeef);
        assert_eq!(r.seq, 7);
        assert_eq!(r.data, b"speedtrap");
        assert_eq!(r.header.src, a("2001:db8::1"));
    }

    #[test]
    fn rejects_non_fragment_and_corruption() {
        let mut plain = Vec::new();
        crate::icmp6::build_echo_reply_into(&mut plain, a("::1"), a("::2"), 1, 2, b"x", 64);
        assert!(parse_fragmented_echo_reply(&plain).is_none());
        let mut pkt = Vec::new();
        build_fragmented_echo_reply_into(&mut pkt, a("::1"), a("::2"), 1, 2, b"x", 64, 9);
        let n = pkt.len() - 1;
        pkt[n] ^= 0xff;
        assert!(parse_fragmented_echo_reply(&pkt).is_none());
    }

    #[test]
    fn rejects_nonzero_offset() {
        let mut pkt = Vec::new();
        build_fragmented_echo_reply_into(&mut pkt, a("::1"), a("::2"), 1, 2, b"x", 64, 9);
        pkt[ip6::HEADER_LEN + 2] = 0x01; // offset != 0
        assert!(parse_fragmented_echo_reply(&pkt).is_none());
    }
}
