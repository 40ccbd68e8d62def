//! Property tests for the shared address interner: id ↔ address
//! round-trips, stable ids under re-insertion, dense id assignment.

use analysis::AddrInterner;
use proptest::prelude::*;
use std::net::Ipv6Addr;

/// An address word, `::` half the time: a free slot's key is zero too.
fn word() -> impl Strategy<Value = u128> {
    prop_oneof![Just(0u128), any::<u128>()]
}

proptest! {
    /// Every interned address resolves back to itself, and lookup
    /// agrees with intern.
    #[test]
    fn roundtrip(words in prop::collection::vec(word(), 1..300)) {
        let mut it = AddrInterner::new();
        let ids: Vec<u32> = words.iter().map(|&w| it.intern(Ipv6Addr::from(w))).collect();
        for (&w, &id) in words.iter().zip(&ids) {
            prop_assert_eq!(it.resolve(id), Ipv6Addr::from(w));
            prop_assert_eq!(it.resolve_word(id), w);
            prop_assert_eq!(it.lookup(Ipv6Addr::from(w)), Some(id));
        }
    }

    /// Re-interning any address returns its original id, in any order,
    /// across growth.
    #[test]
    fn ids_stable_under_reinsert(words in prop::collection::vec(word(), 1..300)) {
        let mut it = AddrInterner::new();
        let first: Vec<u32> = words.iter().map(|&w| it.intern(Ipv6Addr::from(w))).collect();
        let len_after_first = it.len();
        // Second pass in reverse order: nothing new, same ids.
        for (&w, &id) in words.iter().zip(&first).rev() {
            prop_assert_eq!(it.intern(Ipv6Addr::from(w)), id);
        }
        prop_assert_eq!(it.len(), len_after_first);
    }

    /// Ids are dense: 0..n in first-insertion order, n = distinct count.
    #[test]
    fn ids_dense_in_first_insertion_order(words in prop::collection::vec(word(), 1..300)) {
        let mut it = AddrInterner::new();
        let mut expected_order: Vec<u128> = Vec::new();
        for &w in &words {
            let id = it.intern(Ipv6Addr::from(w));
            if !expected_order.contains(&w) {
                // New address: must receive the next dense id.
                prop_assert_eq!(id as usize, expected_order.len());
                expected_order.push(w);
            } else {
                prop_assert!((id as usize) < expected_order.len());
            }
        }
        prop_assert_eq!(it.len(), expected_order.len());
        // The arena mirrors first-insertion order exactly.
        let arena: Vec<u128> = it.addrs().iter().map(|&a| u128::from(a)).collect();
        prop_assert_eq!(arena, expected_order);
    }

    /// lookup never invents members.
    #[test]
    fn lookup_misses_unknown(words in prop::collection::vec(word(), 1..100), probe in word()) {
        let mut it = AddrInterner::new();
        for &w in &words {
            it.intern(Ipv6Addr::from(w));
        }
        if !words.contains(&probe) {
            prop_assert_eq!(it.lookup(Ipv6Addr::from(probe)), None);
        }
    }

    /// map_ids computes per unique id, aligned with the arena.
    #[test]
    fn map_ids_aligned(words in prop::collection::vec(word(), 1..200)) {
        let mut it = AddrInterner::new();
        for &w in &words {
            it.intern(Ipv6Addr::from(w));
        }
        let mapped = it.map_ids(u128::from);
        prop_assert_eq!(mapped.len(), it.len());
        for (id, &w) in mapped.iter().enumerate() {
            prop_assert_eq!(it.resolve_word(id as u32), w);
        }
    }
}
