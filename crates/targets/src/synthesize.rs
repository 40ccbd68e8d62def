//! Target synthesis (§3.1 step 3): choosing the IID to probe within each
//! intermediate prefix.
//!
//! The paper evaluates `lowbyte1` (the ::1 every router might hold) and
//! `fixediid` (a fixed pseudo-random identifier almost certainly *not*
//! assigned to any host) and finds <2% difference in discovery — so all
//! campaigns use `fixediid` to avoid disturbing end hosts (§3.3, §4.3).
//! `random` and `known` round out the comparison.

use crate::TargetSet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::net::Ipv6Addr;
use v6addr::{bits, Ipv6Prefix};

/// The paper's fixed pseudo-random IID: `1234:5678:1234:5678`.
pub(crate) const FIXED_IID: u64 = 0x1234_5678_1234_5678;

/// IID selection strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum IidStrategy {
    /// `prefix | ::1`.
    LowByte1,
    /// `prefix | 1234:5678:1234:5678`.
    FixedIid,
    /// A fresh random IID per prefix (seeded).
    Random {
        /// RNG seed for reproducibility.
        seed: u64,
    },
}

/// Synthesizes one target per intermediate prefix.
///
/// Prefixes must be /64 or shorter; the IID is OR-ed into the low 64
/// bits (the paper's bitwise-OR semantics).
pub fn synthesize(
    name: impl Into<std::sync::Arc<str>>,
    prefixes: &[Ipv6Prefix],
    strategy: IidStrategy,
) -> TargetSet {
    let mut rng = match strategy {
        IidStrategy::Random { seed } => Some(SmallRng::seed_from_u64(seed)),
        _ => None,
    };
    let addrs = prefixes.iter().map(|p| {
        debug_assert!(p.len() <= 64, "synthesis requires /64-or-shorter prefixes");
        let iid = match strategy {
            IidStrategy::LowByte1 => 1,
            IidStrategy::FixedIid => FIXED_IID,
            IidStrategy::Random { .. } => rng.as_mut().unwrap().gen::<u64>(),
        };
        bits::from_u128(p.base_word() | iid as u128)
    });
    TargetSet::new(name, addrs)
}

/// The `known` strategy: probe seed addresses verbatim (used in the
/// Table 4 comparison against end-host addresses).
pub fn known(
    name: impl Into<std::sync::Arc<str>>,
    addrs: impl IntoIterator<Item = Ipv6Addr>,
) -> TargetSet {
    TargetSet::new(name, addrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6addr::iid::{classify, IidClass};

    fn pfxs() -> Vec<Ipv6Prefix> {
        vec![
            "2001:db8:0:1::/64".parse().unwrap(),
            "2001:db8:0:2::/64".parse().unwrap(),
            "2620::/48".parse().unwrap(),
        ]
    }

    #[test]
    fn lowbyte1_sets_one() {
        let set = synthesize("t", &pfxs(), IidStrategy::LowByte1);
        assert_eq!(set.len(), 3);
        for a in &set.addrs {
            assert_eq!(u128::from(*a) & 0xffff_ffff_ffff_ffff, 1);
            assert_eq!(classify(*a), IidClass::LowByte);
        }
    }

    #[test]
    fn fixediid_sets_constant() {
        let set = synthesize("t", &pfxs(), IidStrategy::FixedIid);
        for a in &set.addrs {
            assert_eq!(u128::from(*a) as u64, FIXED_IID);
        }
        // Network bits preserved.
        assert!(set.contains("2001:db8:0:1:1234:5678:1234:5678".parse().unwrap()));
    }

    #[test]
    fn random_is_seeded() {
        let a = synthesize("t", &pfxs(), IidStrategy::Random { seed: 1 });
        let b = synthesize("t", &pfxs(), IidStrategy::Random { seed: 1 });
        let c = synthesize("t", &pfxs(), IidStrategy::Random { seed: 2 });
        assert_eq!(a.addrs, b.addrs);
        assert_ne!(a.addrs, c.addrs);
    }

    #[test]
    fn duplicates_collapse() {
        let p: Ipv6Prefix = "2001:db8::/64".parse().unwrap();
        let set = synthesize("t", &[p, p], IidStrategy::FixedIid);
        assert_eq!(set.len(), 1);
    }
}
