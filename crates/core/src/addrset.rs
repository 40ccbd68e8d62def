//! A compact open-addressed set of IPv6 addresses for the prober's
//! live discovery counters.
//!
//! `yarrp::run` tracks "have we seen this Time-Exceeded source before"
//! once per response — on the hot path, where a std `HashSet<Ipv6Addr>`
//! pays SipHash plus hasher machinery per probe. This set hashes the
//! folded 128-bit word with one splitmix round and probes linearly, in
//! the same style as `simnet::pathcache` and `analysis::intern`.
//!
//! A slot here is a 4-byte index into the insertion-ordered words, and
//! a probe reads the word through it; `analysis::AddrInterner` keeps
//! each slot's word inline beside its id (20 bytes a slot). The two are
//! not folded into one layout because each choice pays where its set
//! is hot. Measured with the `benchmark/` harness on a 2-core Xeon,
//! 8 alternating pairs at `--reps 3`, seeds 211–218:
//!
//! * id-only interner slots cut peak heap on every workload (8/8 pairs
//!   each: `sweep` 74.30 → 69.06 MB, `store` 159.5 → 153.2 MB, `loop`
//!   72.19 → 70.09 MB) but cut `store`'s `probes_per_s` by 21 %
//!   (better in only 2/8 pairs): its union and merge walks probe the
//!   interner by the million, and the extra arena read per probe costs
//!   more than the smaller table saves;
//! * inline keys here would add ≈ 4.2 MB to `loop`, whose probed set
//!   holds 104 160 targets: 16 bytes more in each of 262 144 slots.

use simnet::flow::mix64;
use std::net::Ipv6Addr;

const EMPTY: u32 = u32::MAX;

#[inline]
fn hash_word(w: u128) -> u64 {
    mix64((w >> 64) as u64 ^ w as u64)
}

/// Open-addressed insert-only set of `Ipv6Addr`.
#[derive(Clone, Debug)]
pub struct AddrSet {
    /// Member words in insertion order.
    words: Vec<u128>,
    /// Slot table holding indices into `words`; `EMPTY` is free.
    slots: Vec<u32>,
    mask: usize,
}

impl Default for AddrSet {
    fn default() -> Self {
        Self::new()
    }
}

impl AddrSet {
    /// An empty set.
    pub fn new() -> Self {
        let cap = 256;
        AddrSet {
            words: Vec::new(),
            slots: vec![EMPTY; cap],
            mask: cap - 1,
        }
    }

    /// Number of distinct addresses inserted.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Inserts `addr`; returns `true` when it was not yet a member
    /// (mirroring `HashSet::insert`).
    #[inline]
    pub fn insert(&mut self, addr: Ipv6Addr) -> bool {
        let n = self.words.len();
        self.insert_index(addr) == n
    }

    /// Inserts `addr` unless it is a member, and returns its index in
    /// insertion order: a new member's is the old [`len`](Self::len).
    #[inline]
    pub fn insert_index(&mut self, addr: Ipv6Addr) -> usize {
        let w = u128::from(addr);
        let mut i = hash_word(w) as usize & self.mask;
        loop {
            let id = self.slots[i];
            if id == EMPTY {
                let id = self.words.len();
                self.slots[i] = id as u32;
                self.words.push(w);
                if self.words.len() * 4 >= self.slots.len() * 3 {
                    self.grow();
                }
                return id;
            }
            if self.words[id as usize] == w {
                return id as usize;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Members in insertion order — for the adaptive loop this is
    /// *discovery order*, so feeding the set back into target
    /// generation is deterministic across serial and parallel drivers.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Ipv6Addr> + '_ {
        self.words.iter().map(|&w| Ipv6Addr::from(w))
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        let w = u128::from(addr);
        let mut i = hash_word(w) as usize & self.mask;
        loop {
            let id = self.slots[i];
            if id == EMPTY {
                return false;
            }
            if self.words[id as usize] == w {
                return true;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        self.mask = cap - 1;
        self.slots.clear();
        self.slots.resize(cap, EMPTY);
        for (id, &w) in self.words.iter().enumerate() {
            let mut i = hash_word(w) as usize & self.mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = id as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_semantics_match_hashset() {
        let mut ours = AddrSet::new();
        let mut std_set = std::collections::HashSet::new();
        let mut w = 0x2001_0db8_u128 << 96;
        for i in 0..5_000u64 {
            // Pseudo-random-ish walk with repeats.
            w = w
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i as u128 % 97);
            let a = Ipv6Addr::from(w >> 7);
            assert_eq!(ours.insert(a), std_set.insert(a));
        }
        assert_eq!(ours.len(), std_set.len());
        for &a in &std_set {
            assert!(ours.contains(a));
        }
        assert!(!ours.contains(Ipv6Addr::from(1u128)));
    }

    #[test]
    fn iter_preserves_insertion_order() {
        let mut s = AddrSet::new();
        let addrs: Vec<Ipv6Addr> = (0..10u128).map(|i| Ipv6Addr::from(i * 77 + 5)).collect();
        for &a in &addrs {
            s.insert(a);
            s.insert(a); // duplicates don't re-enter
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), addrs);
        assert_eq!(s.iter().len(), s.len());
    }

    #[test]
    fn insert_index_finds_a_member_and_appends_a_new_word() {
        let mut s = AddrSet::new();
        let addr = |i: u128| Ipv6Addr::from(i * 0x9e37_79b9 + 1);
        // The 256-slot table grows three times on the way to 1 000 words.
        for i in 0..1_000 {
            assert_eq!(s.insert_index(addr(i)), i as usize, "a new word is len - 1");
            assert_eq!(s.len(), i as usize + 1);
        }
        for i in (0..1_000).rev() {
            assert_eq!(
                s.insert_index(addr(i)),
                i as usize,
                "a member keeps its index"
            );
        }
        assert_eq!(s.len(), 1_000, "a member is not inserted again");
        assert!(!s.insert(addr(7)) && s.insert(addr(1_000)));
        assert_eq!(s.insert_index(addr(1_000)), 1_000);
    }
}
