//! The Yarrp6 probe codec (paper §4.1, Figure 4).
//!
//! A probe is an IPv6 packet whose transport (TCP, UDP or ICMPv6 echo) is
//! followed by a 12-byte Yarrp6 payload:
//!
//! ```text
//!  0        4         5      6         10       12
//!  | magic  | instance| ttl  | elapsed  | fudge  |
//! ```
//!
//! * **magic** + **instance** authenticate responses as answers to *this*
//!   prober instance;
//! * **ttl** is the originating hop limit (the IPv6 header's own hop limit
//!   has been decremented en route, so it cannot be recovered from the
//!   quotation);
//! * **elapsed** is the send timestamp in µs since campaign start, enabling
//!   stateless RTT computation;
//! * **fudge** is chosen so the transport checksum is a **per-target
//!   constant**: since ICMPv6 checksums participate in per-flow load
//!   balancing, a varying checksum would send probes of the same target
//!   down different ECMP paths. With the fudge, all headers a load balancer
//!   can hash are constant per target (Paris behaviour).
//!
//! A 16-bit checksum **of the target address** is carried in the TCP/UDP
//! source port or ICMPv6 identifier; on decode a mismatch against the
//! quoted destination reveals middlebox rewriting. The destination port /
//! echo sequence is the fixed value 80.

use crate::csum::{self, Summer};
use crate::ip6::{self, Ipv6Header};
use crate::proto_num;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv6Addr;

/// `"yp6\0"`-style magic tag marking Yarrp6 payloads.
pub const YARRP6_MAGIC: u32 = 0x7972_7036; // "yrp6"

/// Fixed destination port / echo sequence number.
pub const DST_PORT: u16 = 80;

/// Length of the Yarrp6 payload.
pub const PAYLOAD_LEN: usize = 12;

/// Probe transport protocol (paper §4.2 "Protocol" trials).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// ICMPv6 Echo Request — the paper's choice for production campaigns.
    Icmp6,
    /// UDP to port 80.
    Udp,
    /// TCP SYN to port 80.
    Tcp,
}

impl Protocol {
    /// IPv6 Next Header value.
    pub fn next_header(self) -> u8 {
        match self {
            Protocol::Icmp6 => proto_num::ICMP6,
            Protocol::Udp => proto_num::UDP,
            Protocol::Tcp => proto_num::TCP,
        }
    }

    /// Transport header length preceding the Yarrp6 payload.
    pub fn transport_len(self) -> usize {
        match self {
            Protocol::Icmp6 => 8,
            Protocol::Udp => 8,
            Protocol::Tcp => 20,
        }
    }

    /// Total probe length on the wire.
    pub(crate) fn probe_len(self) -> usize {
        ip6::HEADER_LEN + self.transport_len() + PAYLOAD_LEN
    }

    /// Parses from a Next Header value.
    pub(crate) fn from_next_header(nh: u8) -> Option<Self> {
        Some(match nh {
            proto_num::ICMP6 => Protocol::Icmp6,
            proto_num::UDP => Protocol::Udp,
            proto_num::TCP => Protocol::Tcp,
            _ => return None,
        })
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Protocol::Icmp6 => "icmp6",
            Protocol::Udp => "udp",
            Protocol::Tcp => "tcp",
        };
        f.write_str(s)
    }
}

/// Everything needed to emit one probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeSpec {
    /// Source (vantage) address.
    pub src: Ipv6Addr,
    /// Target address.
    pub target: Ipv6Addr,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Originating hop limit.
    pub ttl: u8,
    /// Prober instance identifier.
    pub instance: u8,
    /// Microseconds since campaign start at send time.
    pub elapsed_us: u32,
}

/// State recovered, statelessly, from a quoted probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodedProbe {
    /// The probed target (the quoted packet's destination).
    pub target: Ipv6Addr,
    /// Transport protocol of the probe.
    pub protocol: Protocol,
    /// Originating hop limit recovered from the payload.
    pub ttl: u8,
    /// Prober instance.
    pub instance: u8,
    /// Send timestamp (µs since campaign start).
    pub elapsed_us: u32,
    /// Whether the target checksum in the source port / ICMPv6 identifier
    /// matches the quoted destination — `false` flags middlebox rewriting.
    pub target_cksum_ok: bool,
    /// Hop limit remaining in the quoted header (usually 0 or 1 at the
    /// expiring router).
    pub quoted_hop_limit: u8,
}

/// Why a (quoted) packet failed to decode as a Yarrp6 probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Quotation shorter than the fixed probe layout.
    Truncated,
    /// Outer bytes were not an IPv6 header.
    NotIpv6,
    /// Next Header was not TCP/UDP/ICMPv6.
    UnknownProtocol(u8),
    /// Payload magic did not match [`YARRP6_MAGIC`].
    BadMagic(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "quotation truncated"),
            DecodeError::NotIpv6 => write!(f, "quotation is not IPv6"),
            DecodeError::UnknownProtocol(p) => write!(f, "unknown protocol {p}"),
            DecodeError::BadMagic(m) => write!(f, "bad yarrp6 magic {m:#010x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Longest probe on the wire (TCP transport).
pub const MAX_PROBE_LEN: usize = ip6::HEADER_LEN + 20 + PAYLOAD_LEN;

/// Offset of the transport checksum field within the transport header.
fn checksum_offset(protocol: Protocol) -> usize {
    match protocol {
        Protocol::Icmp6 => 2,
        Protocol::Udp => 6,
        Protocol::Tcp => 16,
    }
}

/// Offset of the target checksum (TCP/UDP source port, ICMPv6
/// identifier) within the transport header.
fn ident_offset(protocol: Protocol) -> usize {
    match protocol {
        Protocol::Icmp6 => 4,
        Protocol::Udp | Protocol::Tcp => 0,
    }
}

/// The fudge restoring the canonical per-target sum for given variable
/// fields.
///
/// The canonical pass sums the instance as a *low*-byte word (see
/// [`ProbeSpec::canonical_sum`]) while the wire carries `(instance,
/// ttl)` with the instance in the high byte, so the fudge cancels both
/// the variable fields and that representation difference:
/// `fudge = instance ⊖ ((instance << 8 | ttl) ⊕ elapsed)`.
#[inline]
fn fudge_for(instance: u8, ttl: u8, elapsed_us: u32) -> u16 {
    let mut d = Summer::new();
    d.add_u16(((instance as u16) << 8) | ttl as u16)
        .add_u32(elapsed_us);
    csum::ones_complement_sub(instance as u16, d.fold())
}

impl ProbeSpec {
    /// Serializes the probe to freshly allocated wire bytes:
    /// [`build_into`](Self::build_into) into a `Vec`. The probers render
    /// a [`ProbeTemplate`] in place instead.
    pub fn build(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.protocol.probe_len()];
        self.build_into(&mut out);
        out
    }

    /// The canonical (ttl = 0, elapsed = 0, fudge = 0, checksum = 0)
    /// ones'-complement sum over pseudo-header and body — the per-target
    /// constant every probe's transport sum is fudged back to. Computed
    /// directly from the handful of nonzero words; no packet is built.
    pub(crate) fn canonical_sum(&self) -> u16 {
        let tlen = self.protocol.transport_len();
        let payload_len = tlen + PAYLOAD_LEN;
        let target_ck = csum::addr_checksum(self.target);
        let mut s = Summer::new();
        csum::pseudo_header(
            &mut s,
            self.src,
            self.target,
            payload_len as u32,
            self.protocol.next_header(),
        );
        // Nonzero constant body words (checksum field zeroed).
        match self.protocol {
            Protocol::Icmp6 => {
                s.add_u16(128 << 8); // type = Echo Request, code 0
                s.add_u16(target_ck); // identifier
                s.add_u16(DST_PORT); // sequence
            }
            Protocol::Udp => {
                s.add_u16(target_ck); // source port
                s.add_u16(DST_PORT);
                s.add_u16(payload_len as u16);
            }
            Protocol::Tcp => {
                s.add_u16(target_ck); // source port
                s.add_u16(DST_PORT);
                s.add_u16(((5u16 << 4) << 8) | 0x02); // data offset + SYN
                s.add_u16(0xffff); // window
            }
        }
        s.add_u32(YARRP6_MAGIC);
        // Historical quirk kept for wire compatibility: the canonical
        // pass sums the instance as a low-byte word even though the
        // packet carries it in the high byte of the (instance, ttl)
        // word; `fudge_for` compensates, so probes stay checksum-valid
        // and per-target constant either way.
        s.add_u16(self.instance as u16);
        s.fold()
    }

    /// Serializes the probe into `out`, returning the wire length,
    /// with the fudge that makes the transport checksum the per-target
    /// constant described in the module docs. One checksum pass over
    /// the constants (via `canonical_sum`); the variable fields
    /// are cancelled incrementally by the fudge. Pinned byte-identical
    /// to the encoder that sums the whole packet twice
    /// (`testkit::oracle::build_probe`, in `tests/props.rs`).
    pub fn build_into(&self, out: &mut [u8]) -> usize {
        let tlen = self.protocol.transport_len();
        let payload_len = tlen + PAYLOAD_LEN;
        let total = ip6::HEADER_LEN + payload_len;
        assert!(out.len() >= total, "build_into: buffer too small");
        let target_ck = csum::addr_checksum(self.target);

        let hdr = Ipv6Header {
            traffic_class: 0,
            flow_label: 0,
            payload_len: payload_len as u16,
            next_header: self.protocol.next_header(),
            hop_limit: self.ttl,
            src: self.src,
            dst: self.target,
        };
        out[..ip6::HEADER_LEN].copy_from_slice(&hdr.encode());

        let body = &mut out[ip6::HEADER_LEN..total];
        body.fill(0);
        match self.protocol {
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
        body[p + 4] = self.instance;
        body[p + 5] = self.ttl;
        body[p + 6..p + 10].copy_from_slice(&self.elapsed_us.to_be_bytes());
        body[p + 10..p + 12]
            .copy_from_slice(&fudge_for(self.instance, self.ttl, self.elapsed_us).to_be_bytes());

        let canon_sum = self.canonical_sum();
        let ck_off = checksum_offset(self.protocol);
        body[ck_off..ck_off + 2].copy_from_slice(&(!canon_sum).to_be_bytes());
        total
    }
}

/// A cached wire image for the zero-allocation hot path.
///
/// By the Paris-checksum design (paper §4.1) everything except the hop
/// limit, the payload's `ttl`/`elapsed` fields, and the cancelling
/// `fudge` is constant per `(src, target, protocol, instance)`. The
/// template holds the fully built packet and [`render`](Self::render)
/// patches those fields in place — an incremental ones'-complement
/// update instead of a fresh checksum pass, and zero heap traffic.
///
/// Of the rest only the destination and its checksum depend on the
/// target, so a prober needs one template per campaign, not one per
/// target: [`aim`](Self::aim) turns it to the next target in place.
#[derive(Clone, Debug)]
pub struct ProbeTemplate {
    wire: [u8; MAX_PROBE_LEN],
    len: u16,
    /// Wire offset of the target checksum (source port / identifier).
    ident_off: u16,
    payload_off: u16,
}

impl ProbeTemplate {
    /// Builds the template, aimed at `target`.
    pub fn new(src: Ipv6Addr, target: Ipv6Addr, protocol: Protocol, instance: u8) -> Self {
        let spec = ProbeSpec {
            src,
            target,
            protocol,
            ttl: 0,
            instance,
            elapsed_us: 0,
        };
        let mut wire = [0u8; MAX_PROBE_LEN];
        let len = spec.build_into(&mut wire);
        ProbeTemplate {
            wire,
            len: len as u16,
            ident_off: (ip6::HEADER_LEN + ident_offset(protocol)) as u16,
            payload_off: (ip6::HEADER_LEN + protocol.transport_len()) as u16,
        }
    }

    /// Re-aims the template at `target`, leaving the wire as
    /// [`Self::new`] for `target` would have built it but for the
    /// fields [`render`](Self::render) patches: the destination and the
    /// target checksum are rewritten. The transport checksum needs no
    /// second pass — the target checksum is the complement of the
    /// destination's own sum, so the two cancel in it and it is the
    /// same for every target of a campaign.
    #[inline]
    pub fn aim(&mut self, target: Ipv6Addr) {
        self.wire[ip6::HEADER_LEN - 16..ip6::HEADER_LEN].copy_from_slice(&target.octets());
        let at = self.ident_off as usize;
        self.wire[at..at + 2].copy_from_slice(&csum::addr_checksum(target).to_be_bytes());
    }

    /// The wire bytes as last rendered. Addresses, flow label, protocol
    /// and ports — everything a network routes the probe by — are the
    /// target's constants whatever was rendered last.
    pub fn wire(&self) -> &[u8] {
        &self.wire[..self.len as usize]
    }

    /// Patches the hop limit, payload ttl/elapsed, and fudge, returning
    /// the ready-to-send wire bytes. Byte-identical to
    /// [`ProbeSpec::build`] with the same fields.
    ///
    /// The returned slice is mutable so callers can apply checksum-
    /// neutral edits (e.g. the `vary_flow_label` ablation); any such
    /// edit is overwritten or preserved verbatim by the next `render`.
    #[inline]
    pub fn render(&mut self, ttl: u8, elapsed_us: u32) -> &mut [u8] {
        let p = self.payload_off as usize;
        let wire = &mut self.wire[..self.len as usize];
        let instance = wire[p + 4];
        wire[7] = ttl; // IPv6 hop limit
        wire[p + 5] = ttl;
        wire[p + 6..p + 10].copy_from_slice(&elapsed_us.to_be_bytes());
        wire[p + 10..p + 12].copy_from_slice(&fudge_for(instance, ttl, elapsed_us).to_be_bytes());
        wire
    }
}

/// Decodes Yarrp6 state from a quoted probe packet (the body of an ICMPv6
/// error). Works on exactly the bytes the prober emitted, however they
/// were truncated — the fixed layout fits well within any quotation.
pub fn decode_quotation(quote: &[u8]) -> Result<DecodedProbe, DecodeError> {
    let hdr = Ipv6Header::decode(quote).ok_or(DecodeError::NotIpv6)?;
    let protocol = Protocol::from_next_header(hdr.next_header)
        .ok_or(DecodeError::UnknownProtocol(hdr.next_header))?;
    let tlen = protocol.transport_len();
    let need = ip6::HEADER_LEN + tlen + PAYLOAD_LEN;
    if quote.len() < need {
        return Err(DecodeError::Truncated);
    }
    let body = &quote[ip6::HEADER_LEN..];
    let sport_off = ident_offset(protocol);
    let carried_ck = u16::from_be_bytes([body[sport_off], body[sport_off + 1]]);
    let p = tlen;
    let magic = u32::from_be_bytes([body[p], body[p + 1], body[p + 2], body[p + 3]]);
    if magic != YARRP6_MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    Ok(DecodedProbe {
        target: hdr.dst,
        protocol,
        ttl: body[p + 5],
        instance: body[p + 4],
        elapsed_us: u32::from_be_bytes([body[p + 6], body[p + 7], body[p + 8], body[p + 9]]),
        target_cksum_ok: carried_ck == csum::addr_checksum(hdr.dst),
        quoted_hop_limit: hdr.hop_limit,
    })
}

/// Decodes the Yarrp6 payload from an Echo Reply *body* (the request data
/// a destination returned verbatim, RFC 4443 §4.2). Returns
/// `(instance, ttl, elapsed_us)`.
pub fn decode_echo_body(body: &[u8]) -> Result<(u8, u8, u32), DecodeError> {
    if body.len() < PAYLOAD_LEN {
        return Err(DecodeError::Truncated);
    }
    let magic = u32::from_be_bytes([body[0], body[1], body[2], body[3]]);
    if magic != YARRP6_MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    Ok((
        body[4],
        body[5],
        u32::from_be_bytes([body[6], body[7], body[8], body[9]]),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csum::verify_transport;

    fn spec(proto: Protocol, ttl: u8, elapsed: u32) -> ProbeSpec {
        ProbeSpec {
            src: "2001:db8:f00::1".parse().unwrap(),
            target: "2001:db8:1:2::abcd".parse().unwrap(),
            protocol: proto,
            ttl,
            instance: 7,
            elapsed_us: elapsed,
        }
    }

    #[test]
    fn probe_is_checksum_valid() {
        for proto in [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp] {
            let s = spec(proto, 9, 123_456);
            let pkt = s.build();
            assert_eq!(pkt.len(), proto.probe_len());
            let hdr = Ipv6Header::decode(&pkt).unwrap();
            assert_eq!(hdr.hop_limit, 9);
            assert!(
                verify_transport(
                    hdr.src,
                    hdr.dst,
                    proto.next_header(),
                    &pkt[ip6::HEADER_LEN..]
                ),
                "{proto} checksum invalid"
            );
        }
    }

    /// The transport checksum field of a probe's wire.
    fn checksum_field(wire: &[u8], proto: Protocol) -> u16 {
        let off = ip6::HEADER_LEN + checksum_offset(proto);
        u16::from_be_bytes([wire[off], wire[off + 1]])
    }

    #[test]
    fn checksum_constant_across_ttl_and_time() {
        for proto in [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp] {
            let s = spec(proto, 1, 0);
            let mut tmpl = ProbeTemplate::new(s.src, s.target, proto, s.instance);
            let base = checksum_field(tmpl.render(1, 0), proto);
            for ttl in [1u8, 2, 16, 32, 255] {
                for elapsed in [0u32, 1, 999_999, u32::MAX] {
                    assert_eq!(
                        checksum_field(tmpl.render(ttl, elapsed), proto),
                        base,
                        "{proto} ttl={ttl} elapsed={elapsed}"
                    );
                }
            }
        }
    }

    #[test]
    fn flow_checksum_matches_wire_checksum_field() {
        // Every probe to a target carries the complement of its
        // canonical sum, the per-target constant the fudge restores.
        for proto in [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp] {
            let s = spec(proto, 9, 123_456);
            assert_eq!(
                checksum_field(&s.build(), proto),
                !s.canonical_sum(),
                "{proto}"
            );
        }
    }

    #[test]
    fn decode_roundtrip() {
        for proto in [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp] {
            let s = spec(proto, 13, 77_000);
            let d = decode_quotation(&s.build()).unwrap();
            assert_eq!(d.target, s.target);
            assert_eq!(d.protocol, proto);
            assert_eq!(d.ttl, 13);
            assert_eq!(d.instance, 7);
            assert_eq!(d.elapsed_us, 77_000);
            assert!(d.target_cksum_ok);
        }
    }

    #[test]
    fn middlebox_rewrite_detected() {
        let s = spec(Protocol::Udp, 5, 1);
        let mut pkt = s.build();
        // Rewrite the destination address in the IPv6 header.
        pkt[39] ^= 0x01;
        let d = decode_quotation(&pkt).unwrap();
        assert!(!d.target_cksum_ok);
    }

    #[test]
    fn decode_errors() {
        assert_eq!(decode_quotation(&[0u8; 10]), Err(DecodeError::NotIpv6));
        let s = spec(Protocol::Icmp6, 5, 1);
        let pkt = s.build();
        assert_eq!(decode_quotation(&pkt[..50]), Err(DecodeError::Truncated));
        let mut bad_magic = pkt.clone();
        bad_magic[ip6::HEADER_LEN + 8] = 0; // clobber magic
        assert!(matches!(
            decode_quotation(&bad_magic),
            Err(DecodeError::BadMagic(_))
        ));
        let mut bad_proto = pkt;
        bad_proto[6] = 99;
        assert_eq!(
            decode_quotation(&bad_proto),
            Err(DecodeError::UnknownProtocol(99))
        );
    }

    #[test]
    fn flow_identity_comes_from_source_port() {
        // The target checksum in the source port cancels the target's
        // pseudo-header contribution, so the transport *checksum field* is
        // a global constant; per-target flow diversity comes from the
        // source port / ICMPv6 identifier itself.
        let a = spec(Protocol::Icmp6, 1, 0);
        let mut b = a;
        b.target = "2001:db8:1:3::abcd".parse().unwrap();
        let pa = a.build();
        let pb = b.build();
        assert_eq!(
            checksum_field(&pa, Protocol::Icmp6),
            checksum_field(&pb, Protocol::Icmp6)
        );
        // ICMPv6 identifier at transport offset 4.
        assert_ne!(
            &pa[ip6::HEADER_LEN + 4..ip6::HEADER_LEN + 6],
            &pb[ip6::HEADER_LEN + 4..ip6::HEADER_LEN + 6]
        );
    }

    #[test]
    fn quoted_through_icmp_error_roundtrip() {
        use crate::icmp6;
        let s = spec(Protocol::Icmp6, 4, 42);
        let probe = s.build();
        // A router at hop 4 quotes the probe with hop limit exhausted.
        let mut expired = probe.clone();
        expired[7] = 0;
        let mut err = Vec::new();
        icmp6::build_error_into(
            &mut err,
            "2001:db8:beef::1".parse().unwrap(),
            s.src,
            Icmp6TypeAlias::TimeExceeded,
            &expired,
            63,
        );
        let (outer, msg) = icmp6::parse(&err).unwrap();
        assert_eq!(outer.dst, s.src);
        let d = decode_quotation(&msg.body).unwrap();
        assert_eq!(d.ttl, 4);
        assert_eq!(d.elapsed_us, 42);
        assert_eq!(d.quoted_hop_limit, 0);
        assert_eq!(d.target, s.target);
    }

    use crate::icmp6::Icmp6Type as Icmp6TypeAlias;

    #[test]
    fn echo_body_roundtrip() {
        let s = spec(Protocol::Icmp6, 11, 5_000);
        let pkt = s.build();
        // The echo data is everything after the 8-byte ICMPv6 header.
        let body = &pkt[ip6::HEADER_LEN + 8..];
        let (inst, ttl, elapsed) = decode_echo_body(body).unwrap();
        assert_eq!((inst, ttl, elapsed), (7, 11, 5_000));
        assert_eq!(decode_echo_body(&body[..8]), Err(DecodeError::Truncated));
        let mut bad = body.to_vec();
        bad[0] = 0;
        assert!(matches!(
            decode_echo_body(&bad),
            Err(DecodeError::BadMagic(_))
        ));
    }
}
