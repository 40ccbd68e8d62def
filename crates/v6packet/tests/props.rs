//! Property tests: every randomly-parameterized probe is checksum-valid,
//! flow-constant, and decodes back to its spec — including after being
//! quoted inside an ICMPv6 error — and the library's one encoder and
//! its template are byte-identical to the naive encoder that sums the
//! whole packet twice (`testkit::oracle::build_probe`).

use proptest::prelude::*;
use std::net::Ipv6Addr;
use testkit::oracle::build_probe;
use v6packet::csum::verify_transport;
use v6packet::icmp6::{self, DestUnreachCode, Icmp6Type};
use v6packet::probe::{decode_quotation, ProbeSpec, ProbeTemplate, Protocol, MAX_PROBE_LEN};
use v6packet::{ip6, Ipv6Header};

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
fn build_into_and_template_match_naive_build() {
    for proto in [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp] {
        let mut tmpl = ProbeTemplate::new(
            "2001:db8:f00::1".parse().unwrap(),
            "2001:db8:1:2::abcd".parse().unwrap(),
            proto,
            7,
        );
        for ttl in [1u8, 2, 9, 16, 64, 255] {
            for elapsed in [0u32, 1, 123_456, 0xffff, 0x1_0000, u32::MAX] {
                let s = spec(proto, ttl, elapsed);
                let naive = build_probe(&s);
                assert_eq!(s.build(), naive, "{proto} build ttl={ttl}");
                let mut buf = [0u8; MAX_PROBE_LEN];
                let n = s.build_into(&mut buf);
                assert_eq!(&buf[..n], &naive[..], "{proto} build_into ttl={ttl}");
                assert_eq!(
                    tmpl.render(ttl, elapsed),
                    &naive[..],
                    "{proto} template ttl={ttl} elapsed={elapsed}"
                );
            }
        }
    }
}

/// The transport checksum field of a rendered probe.
fn checksum_field(wire: &[u8], proto: Protocol) -> u16 {
    let off = ip6::HEADER_LEN
        + match proto {
            Protocol::Icmp6 => 2,
            Protocol::Udp => 6,
            Protocol::Tcp => 16,
        };
    u16::from_be_bytes([wire[off], wire[off + 1]])
}

fn protocols() -> impl Strategy<Value = Protocol> {
    prop_oneof![
        Just(Protocol::Icmp6),
        Just(Protocol::Udp),
        Just(Protocol::Tcp)
    ]
}

/// Target addresses: mostly arbitrary, with the words whose
/// ones'-complement sums are the two zeros (0 and 0xffff) mixed in.
fn targets() -> impl Strategy<Value = u128> {
    prop_oneof![
        any::<u128>(),
        any::<u128>(),
        Just(0u128),
        Just(u128::MAX),
        Just(0xffffu128),
        Just((0xfffeu128 << 112) | 1)
    ]
}

prop_compose! {
    fn specs()(
        src: u128,
        target: u128,
        protocol in protocols(),
        ttl in 1u8..=255,
        instance: u8,
        elapsed_us: u32,
    ) -> ProbeSpec {
        ProbeSpec {
            src: Ipv6Addr::from(src),
            target: Ipv6Addr::from(target),
            protocol,
            ttl,
            instance,
            elapsed_us,
        }
    }
}

proptest! {
    #[test]
    fn probes_always_checksum_valid(spec in specs()) {
        let pkt = spec.build();
        let hdr = Ipv6Header::decode(&pkt).unwrap();
        prop_assert!(verify_transport(
            hdr.src, hdr.dst, spec.protocol.next_header(), &pkt[ip6::HEADER_LEN..]
        ));
    }

    #[test]
    fn flow_checksum_independent_of_ttl_time(
        spec in specs(), ttl2 in 1u8..=255, elapsed2: u32,
    ) {
        let mut tmpl = ProbeTemplate::new(spec.src, spec.target, spec.protocol, spec.instance);
        let first = checksum_field(tmpl.render(spec.ttl, spec.elapsed_us), spec.protocol);
        let other = checksum_field(tmpl.render(ttl2, elapsed2), spec.protocol);
        prop_assert_eq!(first, other);
    }

    #[test]
    fn decode_inverts_build(spec in specs()) {
        let d = decode_quotation(&spec.build()).unwrap();
        prop_assert_eq!(d.target, spec.target);
        prop_assert_eq!(d.protocol, spec.protocol);
        prop_assert_eq!(d.ttl, spec.ttl);
        prop_assert_eq!(d.instance, spec.instance);
        prop_assert_eq!(d.elapsed_us, spec.elapsed_us);
        prop_assert!(d.target_cksum_ok);
    }

    #[test]
    fn decode_survives_error_quotation(
        spec in specs(),
        router: u128,
        code in 0usize..6,
    ) {
        let probe = spec.build();
        let ty = match code {
            0 => Icmp6Type::TimeExceeded,
            1 => Icmp6Type::DestUnreachable(DestUnreachCode::NoRoute),
            2 => Icmp6Type::DestUnreachable(DestUnreachCode::AdminProhibited),
            3 => Icmp6Type::DestUnreachable(DestUnreachCode::AddrUnreachable),
            4 => Icmp6Type::DestUnreachable(DestUnreachCode::PortUnreachable),
            _ => Icmp6Type::DestUnreachable(DestUnreachCode::RejectRoute),
        };
        let mut err = Vec::new();
        icmp6::build_error_into(&mut err, Ipv6Addr::from(router), spec.src, ty, &probe, 64);
        let (outer, msg) = icmp6::parse(&err).unwrap();
        prop_assert_eq!(outer.src, Ipv6Addr::from(router));
        prop_assert_eq!(msg.ty, ty);
        let d = decode_quotation(&msg.body).unwrap();
        prop_assert_eq!(d.target, spec.target);
        prop_assert_eq!(d.ttl, spec.ttl);
        prop_assert_eq!(d.elapsed_us, spec.elapsed_us);
    }

    /// Flipping any single byte of the transport/payload breaks checksum
    /// verification (ensuring the simulator can't accept corrupt packets).
    #[test]
    fn corruption_detected(spec in specs(), at in 0usize..20, val: u8) {
        let pkt = spec.build();
        let off = ip6::HEADER_LEN + at % (pkt.len() - ip6::HEADER_LEN);
        let mut bad = pkt.clone();
        if bad[off] == val { return Ok(()); }
        bad[off] = val;
        let hdr = Ipv6Header::decode(&bad).unwrap();
        prop_assert!(!verify_transport(
            hdr.src, hdr.dst, spec.protocol.next_header(), &bad[ip6::HEADER_LEN..]
        ));
    }

    /// One template re-aimed from target to target (a draw with `stay`
    /// re-aims at the target it already has) is the template built
    /// afresh for each, and what it renders is the naive build.
    #[test]
    fn one_template_aimed_from_target_to_target_is_a_fresh_one_each_time(
        src: u128,
        protocol in protocols(),
        instance: u8,
        steps in prop::collection::vec(
            (targets(), any::<bool>(), 1u8..=255, any::<u32>()), 1..24
        ),
    ) {
        let src = Ipv6Addr::from(src);
        let mut target = Ipv6Addr::from(steps[0].0);
        // `aimed` is never rendered, so its whole wire stays comparable.
        let mut aimed = ProbeTemplate::new(src, target, protocol, instance);
        let mut sent = aimed.clone();
        for &(next, stay, ttl, elapsed_us) in &steps {
            if !stay {
                target = Ipv6Addr::from(next);
            }
            aimed.aim(target);
            let fresh = ProbeTemplate::new(src, target, protocol, instance);
            prop_assert_eq!(aimed.wire(), fresh.wire());
            sent.aim(target);
            let spec = ProbeSpec { src, target, protocol, ttl, instance, elapsed_us };
            prop_assert_eq!(&*sent.render(ttl, elapsed_us), &build_probe(&spec)[..]);
        }
    }
}
