//! Interface-identifier (IID) classification, after the `addr6` tool from
//! the SI6 IPv6 toolkit (paper §3.2, Table 1).
//!
//! The classifier examines the low 64 bits of an address and buckets it:
//!
//! * **EUI-64** — a MAC-derived IID with the `ff:fe` marker in bytes 3–4;
//!   exposes the embedded OUI (manufacturer) used by the Table 7 analysis;
//! * **LowByte** — a run of zeroes followed by a small value (e.g. `::1`),
//!   typical of manually numbered routers and servers;
//! * **EmbeddedIpv4** — the IID carries an IPv4 address in its low 32 bits;
//! * **PatternBytes** — a repeated byte pattern (e.g. `dead:dead:dead:dead`);
//! * **Random** — no recognized structure (SLAAC privacy addresses land
//!   here, as does anything the heuristics cannot name).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv6Addr;

/// The classification buckets, mirroring the Table 1 columns (plus the
/// minor classes addr6 distinguishes that the paper folds into "other").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IidClass {
    /// MAC-derived modified EUI-64 (`xx:xx:xx:ff:fe:xx:xx:xx`).
    Eui64,
    /// Zero run followed by a low value (at most the low 16 bits set).
    LowByte,
    /// IPv4 address embedded in the low 32 bits.
    EmbeddedIpv4,
    /// A repeated 16-bit pattern across all four IID groups.
    PatternBytes,
    /// No recognized structure.
    Random,
}

impl fmt::Display for IidClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IidClass::Eui64 => "eui64",
            IidClass::LowByte => "lowbyte",
            IidClass::EmbeddedIpv4 => "embedded-ipv4",
            IidClass::PatternBytes => "pattern-bytes",
            IidClass::Random => "random",
        };
        f.write_str(s)
    }
}

/// Classifies the IID of `addr`.
pub fn classify(addr: Ipv6Addr) -> IidClass {
    classify_iid(u128::from(addr) as u64)
}

/// Classifies a raw 64-bit IID.
pub(crate) fn classify_iid(iid: u64) -> IidClass {
    // EUI-64: bytes 3 and 4 of the IID are 0xff 0xfe.
    if (iid >> 24) & 0xffff == 0xfffe {
        return IidClass::Eui64;
    }
    // LowByte: only the low 16 bits may be set (covers ::1, ::25, ::1000).
    if iid & 0xffff_ffff_ffff_0000 == 0 {
        return IidClass::LowByte;
    }
    // Embedded IPv4: high 32 bits zero, low 32 bits a plausible unicast
    // IPv4 address (first octet in 1..=223, not loopback).
    if iid >> 32 == 0 {
        let v4 = iid as u32;
        let first = (v4 >> 24) as u8;
        if (1..=223).contains(&first) && first != 127 {
            return IidClass::EmbeddedIpv4;
        }
        // High-zero but implausible as IPv4 and too large for LowByte:
        // fall through to pattern/random.
    }
    // PatternBytes: all four 16-bit groups identical (and nonzero).
    let g0 = iid & 0xffff;
    if g0 != 0
        && (iid >> 16) & 0xffff == g0
        && (iid >> 32) & 0xffff == g0
        && (iid >> 48) & 0xffff == g0
    {
        return IidClass::PatternBytes;
    }
    IidClass::Random
}

/// Extracts the OUI (IEEE manufacturer identifier, 24 bits) from an EUI-64
/// IID, un-flipping the universal/local bit. Returns `None` for non-EUI-64
/// IIDs.
pub fn eui64_oui(iid: u64) -> Option<u32> {
    if classify_iid(iid) != IidClass::Eui64 {
        return None;
    }
    let b0 = ((iid >> 56) as u8) ^ 0x02; // undo u/l bit flip
    let b1 = (iid >> 48) as u8;
    let b2 = (iid >> 40) as u8;
    Some(((b0 as u32) << 16) | ((b1 as u32) << 8) | b2 as u32)
}

/// Builds a modified-EUI-64 IID from a MAC address (used by the simulator's
/// CPE address plans).
pub fn eui64_from_mac(mac: [u8; 6]) -> u64 {
    let b0 = mac[0] ^ 0x02;
    ((b0 as u64) << 56)
        | ((mac[1] as u64) << 48)
        | ((mac[2] as u64) << 40)
        | (0xffu64 << 32)
        | (0xfeu64 << 24)
        | ((mac[3] as u64) << 16)
        | ((mac[4] as u64) << 8)
        | mac[5] as u64
}

/// Aggregate classification counts over an address set (one Table 1 row).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IidCensus {
    pub total: u64,
    pub eui64: u64,
    pub lowbyte: u64,
    pub embedded_ipv4: u64,
    pub pattern: u64,
    pub random: u64,
}

impl IidCensus {
    /// Classifies every address and tallies the buckets.
    pub fn of(addrs: impl IntoIterator<Item = Ipv6Addr>) -> Self {
        let mut c = IidCensus::default();
        for a in addrs {
            c.total += 1;
            match classify(a) {
                IidClass::Eui64 => c.eui64 += 1,
                IidClass::LowByte => c.lowbyte += 1,
                IidClass::EmbeddedIpv4 => c.embedded_ipv4 += 1,
                IidClass::PatternBytes => c.pattern += 1,
                IidClass::Random => c.random += 1,
            }
        }
        c
    }

    /// Fraction of a bucket (0.0 when the census is empty).
    pub fn fraction(&self, class: IidClass) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = match class {
            IidClass::Eui64 => self.eui64,
            IidClass::LowByte => self.lowbyte,
            IidClass::EmbeddedIpv4 => self.embedded_ipv4,
            IidClass::PatternBytes => self.pattern,
            IidClass::Random => self.random,
        };
        n as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: &str) -> IidClass {
        classify(s.parse().unwrap())
    }

    #[test]
    fn lowbyte() {
        assert_eq!(c("2001:db8::1"), IidClass::LowByte);
        assert_eq!(c("2001:db8::25"), IidClass::LowByte);
        assert_eq!(c("2001:db8::ffff"), IidClass::LowByte);
        assert_eq!(c("2001:db8::"), IidClass::LowByte); // all-zero IID
    }

    #[test]
    fn eui64() {
        assert_eq!(c("2001:db8::0211:22ff:fe33:4455"), IidClass::Eui64);
    }

    #[test]
    fn fixediid_is_random() {
        // The paper's fixed IID 1234:5678:1234:5678 repeats with period 32
        // bits, not 16, so it is not PatternBytes and classifies random.
        assert_eq!(c("2001:db8::1234:5678:1234:5678"), IidClass::Random);
    }

    #[test]
    fn embedded_v4() {
        // ::c000:0201 embeds 192.0.2.1.
        assert_eq!(c("2001:db8::c000:201"), IidClass::EmbeddedIpv4);
        // ::e900:0001 has first octet 233 (multicast-range) -> not IPv4-like.
        assert_eq!(c("2001:db8::e900:1"), IidClass::Random);
    }

    #[test]
    fn pattern_bytes() {
        assert_eq!(c("2001:db8::dead:dead:dead:dead"), IidClass::PatternBytes);
    }

    #[test]
    fn random_class() {
        assert_eq!(c("2001:db8::8a2e:370:7334:9f1b"), IidClass::Random);
    }

    #[test]
    fn mac_roundtrip() {
        let mac = [0x00, 0x11, 0x22, 0x33, 0x44, 0x55];
        let iid = eui64_from_mac(mac);
        assert_eq!(classify_iid(iid), IidClass::Eui64);
        assert_eq!(eui64_oui(iid), Some(0x001122));
        assert_eq!(eui64_oui(0x1), None);
    }

    #[test]
    fn census() {
        let addrs: Vec<Ipv6Addr> = vec![
            "2001:db8::1".parse().unwrap(),
            "2001:db8::0211:22ff:fe33:4455".parse().unwrap(),
            "2001:db8::8a2e:370:7334:9f1b".parse().unwrap(),
        ];
        let census = IidCensus::of(addrs);
        assert_eq!(census.total, 3);
        assert_eq!(census.lowbyte, 1);
        assert_eq!(census.eui64, 1);
        assert_eq!(census.random, 1);
        assert!((census.fraction(IidClass::Eui64) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(IidCensus::default().fraction(IidClass::Random), 0.0);
    }
}
