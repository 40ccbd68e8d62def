//! The naive probe encoder [`ProbeSpec::build_into`] and
//! [`v6packet::probe::ProbeTemplate`] are pinned against (`v6packet`'s
//! `tests/props.rs`, and through [`super::run_reference`] every
//! hot-path golden).

use v6packet::csum::{self, Summer};
use v6packet::ip6::{self, Ipv6Header};
use v6packet::probe::{ProbeSpec, Protocol, DST_PORT, PAYLOAD_LEN, YARRP6_MAGIC};

/// Serializes the probe to wire bytes the long way: the body is built
/// with the fudge zeroed and summed twice — once as sent, once with
/// hop limit and send time zeroed, the per-target constant — and the
/// fudge is whatever takes the first sum back to the second. Shares
/// the checksum arithmetic ([`v6packet::csum`]) and the header codec
/// with the library, and none of its probe layout code.
pub fn build_probe(spec: &ProbeSpec) -> Vec<u8> {
    let tlen = spec.protocol.transport_len();
    let payload_len = tlen + PAYLOAD_LEN;
    let target_ck = csum::addr_checksum(spec.target);

    // Transport + Yarrp6 payload, checksum and fudge zeroed.
    let mut body = vec![0u8; payload_len];
    match spec.protocol {
        Protocol::Icmp6 => {
            body[0] = 128; // Echo Request
            body[4..6].copy_from_slice(&target_ck.to_be_bytes());
            body[6..8].copy_from_slice(&DST_PORT.to_be_bytes());
        }
        Protocol::Udp => {
            body[0..2].copy_from_slice(&target_ck.to_be_bytes());
            body[2..4].copy_from_slice(&DST_PORT.to_be_bytes());
            body[4..6].copy_from_slice(&(payload_len as u16).to_be_bytes());
        }
        Protocol::Tcp => {
            body[0..2].copy_from_slice(&target_ck.to_be_bytes());
            body[2..4].copy_from_slice(&DST_PORT.to_be_bytes());
            body[12] = 5 << 4; // data offset: 5 words
            body[13] = 0x02; // SYN
            body[14..16].copy_from_slice(&0xffffu16.to_be_bytes());
        }
    }
    let p = tlen;
    body[p..p + 4].copy_from_slice(&YARRP6_MAGIC.to_be_bytes());
    body[p + 4] = spec.instance;
    body[p + 5] = spec.ttl;
    body[p + 6..p + 10].copy_from_slice(&spec.elapsed_us.to_be_bytes());
    // fudge at p+10..p+12 currently zero.

    // Canonical sum: same packet with ttl = 0 and elapsed = 0.
    let nh = spec.protocol.next_header();
    let mut canon = Summer::new();
    csum::pseudo_header(&mut canon, spec.src, spec.target, payload_len as u32, nh);
    canon.add_bytes(&body[..p + 4]); // through magic
    canon.add_u16(spec.instance as u16); // (instance, ttl=0) word
    canon.add_u32(0); // elapsed = 0
    canon.add_u16(0); // fudge = 0
    let canon_sum = canon.fold();

    // Actual sum with real ttl/elapsed, fudge still zero.
    let mut actual = Summer::new();
    csum::pseudo_header(&mut actual, spec.src, spec.target, payload_len as u32, nh);
    actual.add_bytes(&body);
    let actual_sum = actual.fold();

    // fudge makes the folded sum equal the canonical sum again.
    let fudge = csum::ones_complement_sub(canon_sum, actual_sum);
    body[p + 10..p + 12].copy_from_slice(&fudge.to_be_bytes());

    // The checksum over a packet summing to canon must be !canon.
    let cksum = !canon_sum;
    let ck_off = match spec.protocol {
        Protocol::Icmp6 => 2,
        Protocol::Udp => 6,
        Protocol::Tcp => 16,
    };
    body[ck_off..ck_off + 2].copy_from_slice(&cksum.to_be_bytes());

    let hdr = Ipv6Header {
        traffic_class: 0,
        flow_label: 0,
        payload_len: payload_len as u16,
        next_header: nh,
        hop_limit: spec.ttl,
        src: spec.src,
        dst: spec.target,
    };
    let mut out = Vec::with_capacity(ip6::HEADER_LEN + payload_len);
    out.extend_from_slice(&hdr.encode());
    out.extend_from_slice(&body);
    out
}
