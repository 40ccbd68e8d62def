//! Property tests for the shared address interner: id ↔ address
//! round-trips, stable ids under re-insertion, dense id assignment, and
//! [`union`], where the ids of different tables meet.

use analysis::{union, AddrInterner};
use proptest::prelude::*;
use std::net::Ipv6Addr;
use std::sync::Arc;

/// An address word, `::` half the time: a free slot's key is zero too.
fn word() -> impl Strategy<Value = u128> {
    prop_oneof![Just(0u128), any::<u128>()]
}

/// A table's words, drawn from a pool of 12 so that tables overlap.
fn words() -> impl Strategy<Value = Vec<u128>> {
    prop::collection::vec(0u128..12, 0..10)
}

fn table(words: &[u128]) -> Arc<AddrInterner> {
    let mut it = AddrInterner::new();
    for &w in words {
        it.intern(Ipv6Addr::from(w));
    }
    Arc::new(it)
}

proptest! {
    /// Every id map resolves to its input's words, a `None` map through
    /// the input's own ids, and the union holds nothing else.
    #[test]
    fn union_maps_resolve_to_their_inputs_words(
        start in words(),
        tables in prop::collection::vec(words(), 0..6),
    ) {
        let (start, tables) = (table(&start), tables.iter().map(|w| table(w)).collect::<Vec<_>>());
        let mut u = Arc::clone(&start);
        let maps = union(&mut u, &tables);
        prop_assert_eq!(maps.len(), tables.len());
        for (t, map) in tables.iter().zip(&maps) {
            for (id, &w) in t.words().iter().enumerate() {
                let at = map.as_ref().map_or(id as u32, |m| m[id]);
                prop_assert_eq!(u.resolve_word(at), w);
            }
        }
        let mut all: Vec<u128> = start.words().to_vec();
        all.extend(tables.iter().flat_map(|t| t.words().iter().copied()));
        all.sort_unstable();
        all.dedup();
        let mut held = u.words().to_vec();
        held.sort_unstable();
        prop_assert_eq!(held, all);
    }

    /// Prefix-related tables map to `None` in either order, and the
    /// union is then the longer table itself, not a copy.
    #[test]
    fn prefix_related_tables_map_to_none(t in words(), n in 0usize..10) {
        let t = table(&t);
        let short = table(&t.words()[..n.min(t.len())]);
        for (first, second) in [(&short, &t), (&t, &short)] {
            let mut u = Arc::clone(first);
            prop_assert_eq!(union(&mut u, [second]), [None]);
            let longer = if first.len() <= second.len() { second } else { first };
            prop_assert!(Arc::ptr_eq(&u, longer));
        }
    }

    /// Ids already in `table` never move: the union's words start with
    /// the table's. A union that adds nothing and adopts no table is
    /// `table` itself, not a copy.
    #[test]
    fn union_never_moves_an_id(start in words(), tables in prop::collection::vec(words(), 0..6)) {
        let (start, tables) = (table(&start), tables.iter().map(|w| table(w)).collect::<Vec<_>>());
        let mut u = Arc::clone(&start);
        union(&mut u, &tables);
        prop_assert!(u.words().starts_with(start.words()));
        let adopts = tables.iter().any(|t| t.words().starts_with(start.words()));
        if u.len() == start.len() && !adopts {
            prop_assert!(Arc::ptr_eq(&u, &start));
        }
    }

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
