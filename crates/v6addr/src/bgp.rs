//! A BGP-style routed-prefix table.
//!
//! Maps advertised prefixes to their origin [`Asn`] and answers the
//! questions the paper's target characterization (Table 5) and subnet
//! discovery (§6) ask of a RIB snapshot: is an address routed, which
//! prefix covers it, and which AS originates it.
//!
//! §6 of the paper augments the BGP view in two ways that we mirror:
//!
//! * **equivalent ASNs** — sibling ASNs run by the same operator (e.g.
//!   post-acquisition) are treated as equal when matching a hop's ASN to a
//!   target's ASN;
//! * **registry prefixes** — prefixes present in an RIR but not globally
//!   advertised (router infrastructure space) can be added so hops inside
//!   them still resolve to an origin AS.

use crate::prefix::Ipv6Prefix;
use crate::trie::{Finger, PrefixTrie};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv6Addr;

/// An autonomous system number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// A routed-prefix table: prefix → origin ASN, with longest-prefix match.
#[derive(Clone, Debug, Default)]
pub struct BgpTable {
    rib: PrefixTrie<Asn>,
    /// Union-find-free equivalence map: ASN → canonical representative.
    equivalents: HashMap<Asn, Asn>,
}

impl BgpTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Announces `prefix` with origin `asn`. Re-announcing replaces the
    /// origin (returns the previous one).
    pub fn announce(&mut self, prefix: Ipv6Prefix, asn: Asn) -> Option<Asn> {
        self.rib.insert(prefix, asn)
    }

    /// Number of announced prefixes.
    pub fn prefix_count(&self) -> usize {
        self.rib.len()
    }

    /// Declares `a` and `b` to be operated by the same organization
    /// (paper §6: "equivalent ASNs"). Equivalence is transitive.
    pub fn declare_equivalent(&mut self, a: Asn, b: Asn) {
        let ra = self.representative(a);
        let rb = self.representative(b);
        if ra != rb {
            // Map the larger representative onto the smaller for stability.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.equivalents.insert(hi, lo);
        }
    }

    /// The canonical representative of `asn`'s equivalence class.
    pub(crate) fn representative(&self, asn: Asn) -> Asn {
        let mut cur = asn;
        while let Some(&next) = self.equivalents.get(&cur) {
            cur = next;
        }
        cur
    }

    /// Are two ASNs the same organization (equal or declared equivalent)?
    pub fn same_org(&self, a: Asn, b: Asn) -> bool {
        a == b || self.representative(a) == self.representative(b)
    }

    /// Longest-prefix match: the most specific announced prefix covering
    /// `addr` and its origin.
    pub fn lookup(&self, addr: Ipv6Addr) -> Option<(Ipv6Prefix, Asn)> {
        self.rib.longest_match(addr).map(|(p, &a)| (p, a))
    }

    /// Is `addr` covered by any announced prefix?
    pub fn is_routed(&self, addr: Ipv6Addr) -> bool {
        self.rib.covers(addr)
    }

    /// Origin ASN for `addr`, if routed.
    pub fn origin(&self, addr: Ipv6Addr) -> Option<Asn> {
        self.lookup(addr).map(|(_, a)| a)
    }

    /// [`Self::origin`] resumed from `finger` (see
    /// [`PrefixTrie::longest_match_from`]): the same answer, sooner when
    /// lookups come in address order.
    pub fn origin_from(&self, finger: &mut Finger, addr: Ipv6Addr) -> Option<Asn> {
        self.rib
            .longest_match_from(finger, u128::from(addr))
            .map(|(_, &a)| a)
    }

    /// Iterates over all `(prefix, origin)` announcements.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv6Prefix, Asn)> + '_ {
        self.rib.iter().map(|(p, &a)| (p, a))
    }

    /// All announced prefixes with length at most `max_len` — the
    /// "prefixes of size /48 or larger" selection CAIDA's target list uses
    /// (paper §3.2).
    pub fn prefixes_up_to(&self, max_len: u8) -> Vec<(Ipv6Prefix, Asn)> {
        self.iter().filter(|(p, _)| p.len() <= max_len).collect()
    }
}

impl FromIterator<(Ipv6Prefix, Asn)> for BgpTable {
    fn from_iter<I: IntoIterator<Item = (Ipv6Prefix, Asn)>>(iter: I) -> Self {
        let mut t = BgpTable::new();
        for (p, a) in iter {
            t.announce(p, a);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn announce_and_lookup() {
        let mut t = BgpTable::new();
        t.announce(p("2001:db8::/32"), Asn(64496));
        t.announce(p("2001:db8:aa::/48"), Asn(64497));
        assert_eq!(t.prefix_count(), 2);
        assert_eq!(
            t.lookup("2001:db8:aa::1".parse().unwrap()),
            Some((p("2001:db8:aa::/48"), Asn(64497)))
        );
        assert_eq!(
            t.origin("2001:db8:bb::1".parse().unwrap()),
            Some(Asn(64496))
        );
        assert!(!t.is_routed("3fff::1".parse().unwrap()));
    }

    #[test]
    fn reannounce_replaces() {
        let mut t = BgpTable::new();
        assert_eq!(t.announce(p("2001:db8::/32"), Asn(1)), None);
        assert_eq!(t.announce(p("2001:db8::/32"), Asn(2)), Some(Asn(1)));
        assert_eq!(t.prefix_count(), 1);
    }

    #[test]
    fn equivalence_transitive() {
        let mut t = BgpTable::new();
        t.declare_equivalent(Asn(10), Asn(20));
        t.declare_equivalent(Asn(20), Asn(30));
        assert!(t.same_org(Asn(10), Asn(30)));
        assert!(t.same_org(Asn(30), Asn(10)));
        assert!(!t.same_org(Asn(10), Asn(40)));
        assert!(t.same_org(Asn(40), Asn(40)));
    }

    #[test]
    fn prefixes_up_to_caida_selection() {
        let mut t = BgpTable::new();
        t.announce(p("2001:db8::/32"), Asn(1));
        t.announce(p("2001:db8:aa::/48"), Asn(1));
        t.announce(p("2001:db8:aa:bb::/64"), Asn(1));
        let sel = t.prefixes_up_to(48);
        assert_eq!(sel.len(), 2);
        assert!(sel.iter().all(|(pf, _)| pf.len() <= 48));
    }
}
