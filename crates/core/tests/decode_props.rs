//! Fuzz properties for the response decoder: `decode_response` is a
//! *total* function — every byte string, hostile or damaged, maps to
//! exactly one record or one typed `DecodeError`, never to a panic.
//!
//! Three input families: pure noise, legitimate responses with random
//! byte corruption, and legitimate responses truncated at every length.

use proptest::prelude::*;
use std::net::Ipv6Addr;
use v6packet::icmp6::{self, DestUnreachCode, Icmp6Type};
use v6packet::probe::{ProbeSpec, Protocol};
use yarrp6::record::{decode_response, DecodeError, DecodeStats};

fn protocols() -> impl Strategy<Value = Protocol> {
    prop_oneof![
        Just(Protocol::Icmp6),
        Just(Protocol::Udp),
        Just(Protocol::Tcp)
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

/// A legitimate Time Exceeded / Destination Unreachable response to the
/// probe, as the simulator's routers emit it (Time Exceeded quotes an
/// exhausted hop limit).
fn real_response(spec: &ProbeSpec, router: u128, ty_sel: usize) -> Vec<u8> {
    let probe = spec.build();
    let ty = match ty_sel % 3 {
        0 => Icmp6Type::TimeExceeded,
        1 => Icmp6Type::DestUnreachable(DestUnreachCode::NoRoute),
        _ => Icmp6Type::DestUnreachable(DestUnreachCode::PortUnreachable),
    };
    let mut out = Vec::new();
    icmp6::build_error_quoted_into(
        &mut out,
        Ipv6Addr::from(router),
        spec.src,
        ty,
        &probe,
        64,
        |q| {
            if ty == Icmp6Type::TimeExceeded {
                q[7] = 0;
            }
        },
    );
    out
}

/// Every decode outcome lands in the stats table — totality made
/// observable: if a new error class is ever added without a counter,
/// this helper stops compiling or the count stops matching.
fn classify(bytes: &[u8], recv_us: u64, instance: u8) -> (bool, DecodeStats) {
    let mut st = DecodeStats::default();
    match decode_response(bytes, recv_us, instance) {
        Ok(_) => (true, st),
        Err(e) => {
            st.note(e);
            (false, st)
        }
    }
}

proptest! {
    /// Pure noise: arbitrary bytes of arbitrary length never panic and
    /// always classify into exactly one class.
    #[test]
    fn never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        recv_us: u64,
        instance: u8,
    ) {
        let (ok, st) = classify(&bytes, recv_us, instance);
        if ok {
            prop_assert_eq!(st.total(), 0);
        } else {
            prop_assert_eq!(st.total(), 1);
        }
    }

    /// Noise wearing a plausible IPv6 coat: version nibble forced to 6,
    /// payload length forced consistent, next header drawn from the
    /// interesting set. Exercises the transport parsing paths that pure
    /// noise rarely reaches.
    #[test]
    fn never_panics_on_shaped_noise(
        mut bytes in prop::collection::vec(any::<u8>(), 40..180),
        nh in prop_oneof![Just(58u8), Just(6u8), Just(17u8), any::<u8>()],
        recv_us: u64,
        instance: u8,
    ) {
        bytes[0] = 0x60 | (bytes[0] & 0x0f);
        let plen = (bytes.len() - 40) as u16;
        bytes[4..6].copy_from_slice(&plen.to_be_bytes());
        bytes[6] = nh;
        let (ok, st) = classify(&bytes, recv_us, instance);
        prop_assert_eq!(st.total(), u64::from(!ok));
    }

    /// A real response with one corrupted byte never panics; corruption
    /// inside the checksummed payload is always rejected.
    #[test]
    fn corrupted_real_response_never_panics(
        spec in specs(),
        router: u128,
        ty_sel in 0usize..3,
        at: usize,
        val: u8,
        recv_us: u64,
    ) {
        let mut resp = real_response(&spec, router, ty_sel);
        let off = at % resp.len();
        let changed = resp[off] != val;
        resp[off] = val;
        let out = decode_response(&resp, recv_us, spec.instance);
        if changed && off >= 40 {
            // Any payload corruption breaks the transport checksum or
            // earlier structure — a single flipped byte can never
            // produce a clean record.
            prop_assert!(out.is_err());
        }
    }

    /// Every truncation of a real response decodes without panicking,
    /// and only the full packet yields a record.
    #[test]
    fn every_truncation_classifies(
        spec in specs(),
        router: u128,
        ty_sel in 0usize..3,
        recv_us: u64,
    ) {
        let resp = real_response(&spec, router, ty_sel);
        for len in 0..resp.len() {
            let out = decode_response(&resp[..len], recv_us, spec.instance);
            prop_assert!(out.is_err(), "truncated to {} bytes decoded", len);
        }
        prop_assert!(decode_response(&resp, recv_us, spec.instance).is_ok());
    }

    /// A fabricated Time Exceeded whose quotation still carries the
    /// probe's live hop limit is rejected as QuoteInconsistent for every
    /// probe shape — the spoofed-source defense holds universally.
    #[test]
    fn unexhausted_quote_always_rejected(spec in specs(), router: u128, recv_us: u64) {
        let probe = spec.build();
        let mut err = Vec::new();
        icmp6::build_error_into(
            &mut err,
            Ipv6Addr::from(router),
            spec.src,
            Icmp6Type::TimeExceeded,
            &probe,
            64,
        );
        prop_assert_eq!(
            decode_response(&err, recv_us, spec.instance),
            Err(DecodeError::QuoteInconsistent)
        );
    }
}
