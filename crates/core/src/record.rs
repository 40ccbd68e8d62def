//! Response records and probe logs — what a campaign produces.
//!
//! A [`ResponseRecord`] is decoded *statelessly* from response bytes: the
//! prober looks only at what came back (quotation, echo body, TCP ports),
//! exactly as Yarrp6 does on the wire. [`ProbeLog`] collects the records
//! of one campaign together with send-side counters.

use serde::{Deserialize, Serialize};
use std::net::Ipv6Addr;
use std::sync::Arc;
use v6packet::icmp6::{DestUnreachCode, Icmp6Type};
use v6packet::probe::{self, decode_echo_body, decode_quotation};
use v6packet::{csum, ip6, proto_num, Ipv6Header};

/// The classified response type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResponseKind {
    /// ICMPv6 Time Exceeded — a router hop.
    TimeExceeded,
    /// ICMPv6 Destination Unreachable with code.
    DestUnreachable(DestUnreachCode),
    /// ICMPv6 Echo Reply — destination reached (ICMPv6 probes).
    EchoReply,
    /// TCP RST/SYN-ACK — destination reached (TCP probes).
    Tcp,
}

impl ResponseKind {
    /// Did the *destination itself* respond?
    pub(crate) fn is_destination(&self) -> bool {
        matches!(
            self,
            ResponseKind::EchoReply
                | ResponseKind::Tcp
                | ResponseKind::DestUnreachable(DestUnreachCode::PortUnreachable)
        )
    }
}

/// One decoded response.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResponseRecord {
    /// The probed target this response answers (from the quotation).
    pub target: Ipv6Addr,
    /// Responding source address.
    pub responder: Ipv6Addr,
    /// Response classification.
    pub kind: ResponseKind,
    /// Originating probe hop limit, when recoverable (TCP destination
    /// responses carry no quotation).
    pub probe_ttl: Option<u8>,
    /// Round-trip time, when recoverable.
    pub rtt_us: Option<u64>,
    /// Virtual receive time.
    pub recv_us: u64,
    /// Target checksum verified against the quoted destination (false
    /// flags middlebox rewriting; always true for TCP).
    pub target_cksum_ok: bool,
}

/// Why a received packet was rejected instead of recorded — the *total*
/// classification of [`decode_response`]: every byte string lands in
/// exactly one of these classes or in a record, never in a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecodeError {
    /// Shorter than its headers claim (cut mid-header or mid-payload).
    Truncated,
    /// The version nibble was not 6.
    BadVersion,
    /// A checksum failed: the transport checksum over corrupted bytes,
    /// or the carried target checksum against the responding source (a
    /// TCP response from an address we never probed).
    ChecksumMismatch,
    /// The quoted packet contradicts what the probe must have looked
    /// like at the quoting router: not IPv6, an impossible transport,
    /// or a Time Exceeded quoting an *unexhausted* hop limit — the
    /// fingerprint of a fabricated (spoofed) error.
    QuoteInconsistent,
    /// Well-formed lengths but meaningless content (unknown ICMPv6
    /// type/code, unhandled transport protocol).
    Malformed,
    /// Valid traffic that is not this prober's: wrong Yarrp6 magic,
    /// wrong instance, someone else's echo request or TCP flow.
    NotOurs,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DecodeError::Truncated => "response truncated",
            DecodeError::BadVersion => "not an IPv6 packet",
            DecodeError::ChecksumMismatch => "checksum mismatch",
            DecodeError::QuoteInconsistent => "quotation inconsistent with probe",
            DecodeError::Malformed => "malformed response",
            DecodeError::NotOurs => "not this prober's traffic",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DecodeError {}

/// Per-class counters for responses [`decode_response`] rejected —
/// surfaced on [`ProbeLog::decode_errors`] so a campaign's hostile-input
/// exposure is visible next to its yield.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodeStats {
    /// [`DecodeError::Truncated`] rejections.
    pub truncated: u64,
    /// [`DecodeError::BadVersion`] rejections.
    pub bad_version: u64,
    /// [`DecodeError::ChecksumMismatch`] rejections.
    pub checksum_mismatch: u64,
    /// [`DecodeError::QuoteInconsistent`] rejections.
    pub quote_inconsistent: u64,
    /// [`DecodeError::Malformed`] rejections.
    pub malformed: u64,
    /// [`DecodeError::NotOurs`] rejections.
    pub not_ours: u64,
}

impl DecodeStats {
    /// Charges one rejection to its class counter.
    pub fn note(&mut self, err: DecodeError) {
        match err {
            DecodeError::Truncated => self.truncated += 1,
            DecodeError::BadVersion => self.bad_version += 1,
            DecodeError::ChecksumMismatch => self.checksum_mismatch += 1,
            DecodeError::QuoteInconsistent => self.quote_inconsistent += 1,
            DecodeError::Malformed => self.malformed += 1,
            DecodeError::NotOurs => self.not_ours += 1,
        }
    }

    /// Total rejections across every class.
    pub fn total(&self) -> u64 {
        let DecodeStats {
            truncated,
            bad_version,
            checksum_mismatch,
            quote_inconsistent,
            malformed,
            not_ours,
        } = *self;
        truncated + bad_version + checksum_mismatch + quote_inconsistent + malformed + not_ours
    }
}

/// Round-trip time of a response received at `recv_us` to a probe that
/// carried send time `elapsed`. Probes have room for the low 32 bits of
/// the send time only, so the difference is taken modulo 2³² µs (as
/// Yarrp does): right for any round trip under 71 minutes, however long
/// the campaign has run.
#[inline]
fn rtt_us(recv_us: u64, elapsed: u32) -> u64 {
    (recv_us as u32).wrapping_sub(elapsed) as u64
}

/// Decodes response `bytes` received at `recv_us` for prober `instance`.
///
/// **Total and panic-free**: classifies *any* byte string — hostile,
/// truncated, corrupted, or empty — as either one [`ResponseRecord`] or
/// one [`DecodeError`], validating every length and checksum before the
/// bytes behind them are touched. The classification is single-pass
/// (headers are examined once; no intermediate allocation for error
/// bodies beyond the quotation handoff).
///
/// Two hardening rules beyond plain parsing:
///
/// * a Time Exceeded whose quotation still carries a **non-zero hop
///   limit** is rejected as [`DecodeError::QuoteInconsistent`] — the
///   expiring router by definition saw the hop limit reach exhaustion,
///   so an unexhausted quote can only come from an off-path fabricator
///   guessing at packet state it never observed;
/// * a TCP response whose destination port does not equal the target
///   checksum of its own source address is rejected as
///   [`DecodeError::ChecksumMismatch`] — TCP responses carry no
///   quotation, so a rewritten/fabricated source is otherwise
///   indistinguishable from the probed target and would previously
///   have produced a record naming an address we never probed.
pub fn decode_response(
    bytes: &[u8],
    recv_us: u64,
    instance: u8,
) -> Result<ResponseRecord, DecodeError> {
    let Some(outer) = Ipv6Header::decode(bytes) else {
        return Err(if bytes.len() < ip6::HEADER_LEN {
            DecodeError::Truncated
        } else {
            DecodeError::BadVersion
        });
    };
    let body = &bytes[ip6::HEADER_LEN..];
    let plen = outer.payload_len as usize;
    if body.len() != plen {
        return Err(if body.len() < plen {
            DecodeError::Truncated
        } else {
            DecodeError::Malformed
        });
    }
    match outer.next_header {
        proto_num::ICMP6 => {
            if body.len() < 8 {
                return Err(DecodeError::Truncated);
            }
            if !csum::verify_transport(outer.src, outer.dst, proto_num::ICMP6, body) {
                return Err(DecodeError::ChecksumMismatch);
            }
            let Some(ty) = Icmp6Type::from_type_code(body[0], body[1]) else {
                return Err(DecodeError::Malformed);
            };
            match ty {
                Icmp6Type::TimeExceeded | Icmp6Type::DestUnreachable(_) => {
                    let d = decode_quotation(&body[8..]).map_err(|e| match e {
                        probe::DecodeError::Truncated => DecodeError::Truncated,
                        probe::DecodeError::NotIpv6 | probe::DecodeError::UnknownProtocol(_) => {
                            DecodeError::QuoteInconsistent
                        }
                        probe::DecodeError::BadMagic(_) => DecodeError::NotOurs,
                    })?;
                    if d.instance != instance {
                        return Err(DecodeError::NotOurs);
                    }
                    if ty == Icmp6Type::TimeExceeded && d.quoted_hop_limit != 0 {
                        return Err(DecodeError::QuoteInconsistent);
                    }
                    let kind = match ty {
                        Icmp6Type::TimeExceeded => ResponseKind::TimeExceeded,
                        Icmp6Type::DestUnreachable(c) => ResponseKind::DestUnreachable(c),
                        _ => unreachable!(),
                    };
                    Ok(ResponseRecord {
                        target: d.target,
                        responder: outer.src,
                        kind,
                        probe_ttl: Some(d.ttl),
                        rtt_us: Some(rtt_us(recv_us, d.elapsed_us)),
                        recv_us,
                        target_cksum_ok: d.target_cksum_ok,
                    })
                }
                Icmp6Type::EchoReply => {
                    let (inst, ttl, elapsed) =
                        decode_echo_body(&body[8..]).map_err(|e| match e {
                            probe::DecodeError::Truncated => DecodeError::Truncated,
                            probe::DecodeError::BadMagic(_) => DecodeError::NotOurs,
                            _ => DecodeError::Malformed,
                        })?;
                    if inst != instance {
                        return Err(DecodeError::NotOurs);
                    }
                    Ok(ResponseRecord {
                        target: outer.src,
                        responder: outer.src,
                        kind: ResponseKind::EchoReply,
                        probe_ttl: Some(ttl),
                        rtt_us: Some(rtt_us(recv_us, elapsed)),
                        recv_us,
                        target_cksum_ok: true,
                    })
                }
                Icmp6Type::EchoRequest => Err(DecodeError::NotOurs),
            }
        }
        proto_num::TCP => {
            if body.len() < 20 {
                return Err(DecodeError::Truncated);
            }
            if !csum::verify_transport(outer.src, outer.dst, proto_num::TCP, body) {
                return Err(DecodeError::ChecksumMismatch);
            }
            // A destination's RST/SYN-ACK: our probes use dport 80, so
            // the response's source port must be 80 and its dport must
            // carry the target checksum of the address that answers.
            let sport = u16::from_be_bytes([body[0], body[1]]);
            let dport = u16::from_be_bytes([body[2], body[3]]);
            if sport != probe::DST_PORT {
                return Err(DecodeError::NotOurs);
            }
            if dport != csum::addr_checksum(outer.src) {
                return Err(DecodeError::ChecksumMismatch);
            }
            Ok(ResponseRecord {
                target: outer.src,
                responder: outer.src,
                kind: ResponseKind::Tcp,
                probe_ttl: None,
                rtt_us: None,
                recv_us,
                target_cksum_ok: true,
            })
        }
        _ => Err(DecodeError::Malformed),
    }
}

/// The output of one probing campaign.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ProbeLog {
    /// Vantage name — shared (`Arc`), so carrying it into per-campaign
    /// logs and trace sets is a refcount bump, not a string copy.
    pub vantage: Arc<str>,
    /// Target-set name (shared).
    pub target_set: Arc<str>,
    /// Prober name ("yarrp6", "sequential", "doubletree").
    pub prober: Arc<str>,
    /// Probes emitted.
    pub probes_sent: u64,
    /// Fill-mode probes among them.
    pub fills: u64,
    /// Unique targets traced.
    pub traces: u64,
    /// Responses discarded (wrong instance / malformed).
    pub discarded: u64,
    /// Per-class breakdown of the discards: what kind of hostile or
    /// damaged input the campaign absorbed.
    pub decode_errors: DecodeStats,
    /// Virtual duration of the campaign (µs).
    pub duration_us: u64,
    /// All decoded responses, in receive order.
    pub records: Vec<ResponseRecord>,
}

impl ProbeLog {
    /// Unique interface addresses, sorted: distinct sources of Time
    /// Exceeded messages (the paper's §4.2 definition, Table 7's "Rtr
    /// Int Addrs"). One flat sort, no per-record set node.
    pub fn interface_addrs(&self) -> Vec<Ipv6Addr> {
        let mut ifaces: Vec<Ipv6Addr> = self
            .records
            .iter()
            .filter(|r| r.kind == ResponseKind::TimeExceeded)
            .map(|r| r.responder)
            .collect();
        ifaces.sort_unstable();
        ifaces.dedup();
        ifaces
    }

    /// Count of non-Time-Exceeded responses (Table 3's "Other ICMPv6").
    pub fn other_responses(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.kind != ResponseKind::TimeExceeded)
            .count() as u64
    }

    /// Targets whose destination answered (Table 7's "Reach Target %"
    /// numerator).
    pub fn reached_targets(&self) -> std::collections::BTreeSet<Ipv6Addr> {
        self.records
            .iter()
            .filter(|r| r.kind.is_destination())
            .map(|r| r.target)
            .collect()
    }

    /// Sorts records by receive time (probers append in emission order;
    /// analysis wants arrival order).
    pub fn sort_by_recv(&mut self) {
        self.records.sort_by_key(|r| r.recv_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6packet::icmp6;
    use v6packet::probe::{ProbeSpec, Protocol};
    use v6packet::tcp;

    fn spec(proto: Protocol) -> ProbeSpec {
        ProbeSpec {
            src: "2001:db8:f::1".parse().unwrap(),
            target: "2001:db8:1::abcd".parse().unwrap(),
            protocol: proto,
            ttl: 6,
            instance: 9,
            elapsed_us: 1_000,
        }
    }

    /// A Time Exceeded as a real expiring router emits it: the quoted
    /// probe's hop limit is zeroed, because the router saw it exhaust.
    fn te_from(src: &str, s: &ProbeSpec) -> Vec<u8> {
        let probe = s.build();
        let mut out = Vec::new();
        icmp6::build_error_quoted_into(
            &mut out,
            src.parse().unwrap(),
            s.src,
            Icmp6Type::TimeExceeded,
            &probe,
            64,
            |q| q[7] = 0,
        );
        out
    }

    #[test]
    fn te_response_decodes() {
        let err = te_from("2001:db8:42::1", &spec(Protocol::Icmp6));
        let r = decode_response(&err, 25_000, 9).unwrap();
        assert_eq!(r.kind, ResponseKind::TimeExceeded);
        assert_eq!(r.responder, "2001:db8:42::1".parse::<Ipv6Addr>().unwrap());
        assert_eq!(r.target, "2001:db8:1::abcd".parse::<Ipv6Addr>().unwrap());
        assert_eq!(r.probe_ttl, Some(6));
        assert_eq!(r.rtt_us, Some(24_000));
    }

    /// The send time a probe carries is the clock's low 32 bits: the
    /// same probe sent just before, just after, and long after the
    /// clock passes 2³² µs decodes to the same round trip.
    #[test]
    fn rtt_survives_the_send_clock_wrapping() {
        const WRAP: u64 = 1 << 32;
        for sent in [
            5_000,
            WRAP - 5_000,
            WRAP - 1,
            WRAP,
            WRAP + 5_000,
            3 * WRAP + 7,
        ] {
            let s = ProbeSpec {
                elapsed_us: sent as u32,
                ..spec(Protocol::Icmp6)
            };
            // Received after the wrap even when sent just before it.
            let recv = sent + 10_976;
            let quoted = decode_response(&te_from("2001:db8:42::1", &s), recv, 9).unwrap();
            assert_eq!(
                (quoted.rtt_us, quoted.recv_us),
                (Some(10_976), recv),
                "{sent}"
            );
            let probe = s.build();
            let mut reply = Vec::new();
            icmp6::build_echo_reply_into(&mut reply, s.target, s.src, 0x1111, 80, &probe[48..], 60);
            let echo = decode_response(&reply, recv, 9).unwrap();
            assert_eq!((echo.rtt_us, echo.recv_us), (Some(10_976), recv), "{sent}");
        }
    }

    #[test]
    fn wrong_instance_rejected() {
        // Bare build_error_into leaves the quoted hop limit unexhausted, but
        // the instance check comes first: another prober's traffic is
        // NotOurs even when the quote is also inconsistent.
        let probe = spec(Protocol::Icmp6).build();
        let mut err = Vec::new();
        icmp6::build_error_into(
            &mut err,
            "::1".parse().unwrap(),
            "2001:db8:f::1".parse().unwrap(),
            Icmp6Type::TimeExceeded,
            &probe,
            64,
        );
        assert_eq!(decode_response(&err, 0, 8), Err(DecodeError::NotOurs));
    }

    #[test]
    fn unexhausted_quote_rejected_as_spoofed() {
        // Same packet, *our* instance: a Time Exceeded quoting a probe
        // whose hop limit never reached zero can only be fabricated.
        let probe = spec(Protocol::Icmp6).build();
        let mut err = Vec::new();
        icmp6::build_error_into(
            &mut err,
            "2001:db8:42::1".parse().unwrap(),
            "2001:db8:f::1".parse().unwrap(),
            Icmp6Type::TimeExceeded,
            &probe,
            64,
        );
        assert_eq!(
            decode_response(&err, 0, 9),
            Err(DecodeError::QuoteInconsistent)
        );
    }

    #[test]
    fn dest_unreachable_quote_may_keep_hop_limit() {
        // Destination Unreachable is sent by a node the probe *reached*,
        // so its quotation legitimately carries a non-zero hop limit.
        let probe = spec(Protocol::Icmp6).build();
        let mut err = Vec::new();
        icmp6::build_error_into(
            &mut err,
            "2001:db8:1::abcd".parse().unwrap(),
            "2001:db8:f::1".parse().unwrap(),
            Icmp6Type::DestUnreachable(DestUnreachCode::NoRoute),
            &probe,
            64,
        );
        let r = decode_response(&err, 0, 9).unwrap();
        assert_eq!(
            r.kind,
            ResponseKind::DestUnreachable(DestUnreachCode::NoRoute)
        );
    }

    #[test]
    fn corrupted_bytes_fail_the_checksum() {
        let mut err = te_from("2001:db8:42::1", &spec(Protocol::Icmp6));
        let last = err.len() - 1;
        err[last] ^= 0x5a;
        assert_eq!(
            decode_response(&err, 0, 9),
            Err(DecodeError::ChecksumMismatch)
        );
    }

    #[test]
    fn truncated_error_rejected() {
        let err = te_from("2001:db8:42::1", &spec(Protocol::Icmp6));
        assert_eq!(
            decode_response(&err[..err.len() - 9], 0, 9),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn bad_version_rejected() {
        let mut err = te_from("2001:db8:42::1", &spec(Protocol::Icmp6));
        err[0] = 0x45; // IPv4 version nibble
        assert_eq!(decode_response(&err, 0, 9), Err(DecodeError::BadVersion));
    }

    #[test]
    fn echo_reply_decodes() {
        let s = spec(Protocol::Icmp6);
        let probe = s.build();
        let data = &probe[40 + 8..];
        let mut reply = Vec::new();
        icmp6::build_echo_reply_into(&mut reply, s.target, s.src, 0x1111, 80, data, 60);
        let r = decode_response(&reply, 9_000, 9).unwrap();
        assert_eq!(r.kind, ResponseKind::EchoReply);
        assert_eq!(r.target, s.target);
        assert_eq!(r.probe_ttl, Some(6));
        assert_eq!(r.rtt_us, Some(8_000));
    }

    #[test]
    fn tcp_rst_decodes_without_state() {
        let s = spec(Protocol::Tcp);
        let ck = v6packet::csum::addr_checksum(s.target);
        let mut rst = Vec::new();
        tcp::build_response_into(&mut rst, s.target, s.src, 80, ck, tcp::flags::RST, 60);
        let r = decode_response(&rst, 5_000, 9).unwrap();
        assert_eq!(r.kind, ResponseKind::Tcp);
        assert_eq!(r.target, s.target);
        assert_eq!(r.probe_ttl, None);
        assert!(r.target_cksum_ok);
    }

    #[test]
    fn tcp_wrong_target_checksum_rejected() {
        // A TCP response whose dport does not match its own source's
        // target checksum names an address we never probed — rejected,
        // not recorded with a warning bit.
        let s = spec(Protocol::Tcp);
        let ck = v6packet::csum::addr_checksum(s.target);
        let mut rst = Vec::new();
        let dport = ck.wrapping_add(1);
        tcp::build_response_into(&mut rst, s.target, s.src, 80, dport, tcp::flags::RST, 60);
        assert_eq!(
            decode_response(&rst, 0, 9),
            Err(DecodeError::ChecksumMismatch)
        );
    }

    #[test]
    fn garbage_discarded() {
        assert_eq!(
            decode_response(&[1, 2, 3], 0, 0),
            Err(DecodeError::Truncated)
        );
        assert_eq!(decode_response(&[], 0, 0), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_stats_count_per_class() {
        let mut st = DecodeStats::default();
        st.note(DecodeError::Truncated);
        st.note(DecodeError::NotOurs);
        st.note(DecodeError::NotOurs);
        assert_eq!(st.truncated, 1);
        assert_eq!(st.not_ours, 2);
        assert_eq!(st.total(), 3);
        st.note(DecodeError::ChecksumMismatch);
        assert_eq!(st.total(), 4);
        assert_eq!(st.checksum_mismatch, 1);
    }

    #[test]
    fn log_accessors() {
        let mut log = ProbeLog::default();
        let mk = |resp: &str, kind: ResponseKind, recv| ResponseRecord {
            target: "2001:db8::1".parse().unwrap(),
            responder: resp.parse().unwrap(),
            kind,
            probe_ttl: Some(1),
            rtt_us: Some(1),
            recv_us: recv,
            target_cksum_ok: true,
        };
        log.records.push(mk("::a", ResponseKind::TimeExceeded, 30));
        log.records.push(mk("::a", ResponseKind::TimeExceeded, 10));
        log.records.push(mk("::b", ResponseKind::EchoReply, 20));
        assert_eq!(log.interface_addrs().len(), 1);
        assert_eq!(log.other_responses(), 1);
        assert_eq!(log.reached_targets().len(), 1);
        log.sort_by_recv();
        assert_eq!(log.records[0].recv_us, 10);
    }
}
