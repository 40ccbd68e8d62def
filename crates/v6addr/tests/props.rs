//! Property-based tests for the address primitives.

use proptest::prelude::*;
use std::net::Ipv6Addr;
use v6addr::{bits, dpl, Finger, Ipv6Prefix, PrefixTrie};

proptest! {
    /// mask(len) has exactly `len` leading ones.
    #[test]
    fn mask_popcount(len in 0u8..=128) {
        prop_assert_eq!(bits::mask(len).count_ones(), len as u32);
        if len > 0 {
            prop_assert!(bits::bit(bits::mask(len), len - 1));
        }
        if len < 128 {
            prop_assert!(!bits::bit(bits::mask(len), len));
        }
    }

    /// common_prefix_len is symmetric and consistent with equality.
    #[test]
    fn common_prefix_symmetric(a: u128, b: u128) {
        prop_assert_eq!(bits::common_prefix_len(a, b), bits::common_prefix_len(b, a));
        if a == b {
            prop_assert_eq!(bits::common_prefix_len(a, b), 128);
        } else {
            let l = bits::common_prefix_len(a, b);
            prop_assert!(l < 128);
            // They agree on the first l bits and differ at bit l.
            prop_assert_eq!(a & bits::mask(l), b & bits::mask(l));
            prop_assert_ne!(bits::bit(a, l), bits::bit(b, l));
        }
    }

    /// truncating() produces a prefix that contains the original address.
    #[test]
    fn truncating_contains(word: u128, len in 0u8..=128) {
        let addr = Ipv6Addr::from(word);
        let p = Ipv6Prefix::truncating(addr, len);
        prop_assert!(p.contains_addr(addr));
        prop_assert_eq!(p.len(), len);
        // Canonical: re-truncating the base is a fixed point.
        prop_assert_eq!(Ipv6Prefix::truncating(p.base(), len), p);
    }

    /// parent/child relationships are mutually consistent.
    #[test]
    fn parent_child_consistent(word: u128, len in 1u8..=127) {
        let p = Ipv6Prefix::from_word(word, len);
        let parent = p.parent().unwrap();
        prop_assert!(parent.contains_prefix(&p));
        let (l, r) = p.children().unwrap();
        prop_assert_eq!(l.parent().unwrap(), p);
        prop_assert_eq!(r.parent().unwrap(), p);
        prop_assert!(p.contains_prefix(&l) && p.contains_prefix(&r));
        prop_assert_ne!(l, r);
    }

    /// Trie longest-match agrees with a brute-force linear scan.
    #[test]
    fn trie_lpm_matches_linear(
        entries in prop::collection::vec((any::<u128>(), 0u8..=64), 1..40),
        probe: u128,
    ) {
        let mut trie = PrefixTrie::new();
        let mut linear: Vec<Ipv6Prefix> = Vec::new();
        for (w, l) in entries {
            let p = Ipv6Prefix::from_word(w, l);
            trie.insert(p, p.len());
            if !linear.contains(&p) {
                linear.push(p);
            }
        }
        let want = linear
            .iter()
            .filter(|p| p.contains_word(probe))
            .max_by_key(|p| p.len());
        let got = trie.longest_match_word(probe);
        match (want, got) {
            (None, None) => {}
            (Some(wp), Some((gp, &glen))) => {
                prop_assert_eq!(wp.len(), gp.len());
                prop_assert_eq!(wp.len(), glen);
                prop_assert_eq!(*wp, gp);
            }
            (w, g) => prop_assert!(false, "mismatch: want {:?} got {:?}", w, g.map(|x| x.0)),
        }
    }

    /// A finger changes how fast a longest-prefix match is found, never
    /// which: whatever the order of the lookups (as drawn, ascending,
    /// descending, each one twice), with `insert`s and `remove`s between
    /// them, and with the one finger passed back and forth between two
    /// tries that started as clones and then diverged.
    #[test]
    fn longest_match_from_is_longest_match_word(
        entries in prop::collection::vec((any::<u128>(), 0u8..=128), 1..40),
        steps in prop::collection::vec((0u8..10, any::<usize>(), any::<u128>(), 0u32..=128), 1..160),
        order in 0u8..4,
    ) {
        let mut next_value = 0u32;
        let mut value = || {
            next_value += 1;
            next_value
        };
        let mut a = PrefixTrie::new();
        for &(w, l) in &entries {
            a.insert(Ipv6Prefix::from_word(w, l), value());
        }
        // Lookups stay near what is stored — an entry's word with its
        // low bits redrawn — so consecutive ones share long prefixes and
        // descents go deep.
        let near = |pick: usize, noise: u128, keep: u32| {
            entries[pick % entries.len()].0 ^ noise.checked_shr(keep).unwrap_or(0)
        };
        let mut lookups: Vec<u128> = steps
            .iter()
            .filter(|s| s.0 >= 3)
            .map(|&(_, pick, noise, keep)| near(pick, noise, keep))
            .collect();
        match order {
            0 => {}
            1 => lookups.sort_unstable(),
            2 => lookups.sort_unstable_by(|x, y| y.cmp(x)),
            _ => lookups = lookups.iter().flat_map(|&w| [w, w]).collect(),
        }
        let mut lookups = lookups.into_iter();

        let mut b = a.clone();
        let mut on_a = true;
        let mut finger = Finger::default();
        for &(op, pick, noise, keep) in &steps {
            let trie = if on_a { &mut a } else { &mut b };
            match op {
                0 => {
                    let p = Ipv6Prefix::from_word(near(pick, noise, keep), (pick % 129) as u8);
                    trie.insert(p, value());
                }
                1 => {
                    let (w, l) = entries[pick % entries.len()];
                    trie.remove(&Ipv6Prefix::from_word(w, l));
                }
                2 => on_a = !on_a,
                _ => {
                    // Twice as many are on hand when each comes twice.
                    for w in lookups.by_ref().take(if order == 3 { 2 } else { 1 }) {
                        let got = trie.longest_match_from(&mut finger, w).map(|(p, &v)| (p, v));
                        let want = trie.longest_match_word(w).map(|(p, &v)| (p, v));
                        prop_assert_eq!(got, want, "word {:032x}", w);
                    }
                }
            }
        }
    }

    /// Every inserted prefix is found by exact lookup and iteration.
    #[test]
    fn trie_iter_complete(entries in prop::collection::vec((any::<u128>(), 0u8..=64), 1..40)) {
        let mut trie = PrefixTrie::new();
        let mut set = std::collections::BTreeSet::new();
        for (w, l) in entries {
            let p = Ipv6Prefix::from_word(w, l);
            trie.insert(p, ());
            set.insert(p);
        }
        prop_assert_eq!(trie.len(), set.len());
        let mut seen: Vec<Ipv6Prefix> = trie.iter().map(|(p, _)| p).collect();
        prop_assert_eq!(seen.len(), set.len());
        seen.sort();
        let want: Vec<Ipv6Prefix> = set.into_iter().collect();
        prop_assert_eq!(seen, want);
    }

    /// DPL values are consistent with pairwise DPL lower bounds: the DPL of
    /// an address is the max pair-DPL against any other member.
    #[test]
    fn dpl_matches_bruteforce(words in prop::collection::btree_set(any::<u128>(), 2..24) ) {
        let addrs: Vec<Ipv6Addr> = words.iter().map(|&w| Ipv6Addr::from(w)).collect();
        let (sorted, dpls) = dpl::dpl_of_set(&addrs);
        for (i, &a) in sorted.iter().enumerate() {
            let best = sorted
                .iter()
                .filter(|&&b| b != a)
                .filter_map(|&b| dpl::dpl_of_pair(a, b))
                .max()
                .unwrap();
            prop_assert_eq!(dpls[i], best, "address {} in {:?}", a, sorted);
        }
    }
}
