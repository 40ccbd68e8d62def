//! Interface-address interning: a `u32`-keyed table shared by every
//! analysis stage.
//!
//! A campaign's records repeat the same few thousand responder addresses
//! millions of times. The map-based pipeline paid for that repetition on
//! every pass — each stage re-hashed full 128-bit addresses into its own
//! `HashSet`/`HashMap` node soup. The columnar pipeline instead interns
//! every responder address **once** into an [`AddrInterner`] and carries
//! dense `u32` ids everywhere else: trace hops store ids, equality checks
//! are integer compares, and any per-address derived quantity (origin
//! ASN, IID class) is computed once per *unique* address via
//! [`AddrInterner::map_ids`] and then looked up by index.
//!
//! The table is purpose-built open addressing in the style of
//! `simnet::pathcache`, over a `Vec<u128>` arena of address words in id
//! order: a splitmix-mixed fold of the 128-bit word as the bucket hash,
//! linear probing, no per-entry allocation. Its slots are two columns,
//! 20 bytes a slot: `keys`, each slot's address word, and `ids`, its id
//! or `EMPTY`. A probe reads the id before the key, so the all-zero
//! address `::` never matches a free slot's zero key. Ids are assigned
//! in first-insertion order and are **stable**: re-interning an address
//! always returns the id of its first insertion, and ids of earlier
//! inserts never move when the table grows.
//!
//! One sizing rule: the table doubles at three quarters full, and an
//! interner whose final size is known — a set finished or read back —
//! is allocated once at
//! [`AddrInterner::with_room_for`], the table doubling would end at.

use simnet::flow::mix64;
use std::net::Ipv6Addr;
use std::sync::Arc;

const EMPTY: u32 = u32::MAX;

/// Bucket hash for an address word: fold the halves, one splitmix round
/// (`yarrp6::addrset` hashes the same way).
#[inline]
fn hash_word(w: u128) -> u64 {
    mix64((w >> 64) as u64 ^ w as u64)
}

/// Open-addressed `Ipv6Addr → u32` interner over a dense address arena.
///
/// Slot `i` is `(keys[i], ids[i])`: two columns of one power-of-two
/// length, where a `{u128, u32}` slot struct would pad to 32 bytes.
#[derive(Clone, Debug)]
pub struct AddrInterner {
    /// Arena: `words[id]` is the interned address word (insertion order).
    words: Vec<u128>,
    /// The address word of each occupied slot; zero in a free one.
    keys: Vec<u128>,
    /// The id of each occupied slot; `EMPTY` marks a free slot.
    ids: Vec<u32>,
    mask: usize,
}

impl Default for AddrInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl AddrInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::with_room_for(0)
    }

    /// An empty interner that takes exactly `n` distinct addresses
    /// without growing: the table doubling would have ended at,
    /// allocated once. How every interner whose final size is known is
    /// made.
    pub(crate) fn with_room_for(n: usize) -> Self {
        // `intern` doubles at three quarters full.
        let cap = (n + n / 3 + 1).next_power_of_two().max(64);
        AddrInterner {
            words: Vec::with_capacity(n),
            keys: vec![0; cap],
            ids: vec![EMPTY; cap],
            mask: cap - 1,
        }
    }

    /// Number of distinct addresses interned.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The bucket hash of `addr`, the same in every interner: what
    /// [`Self::intern_hashed`] and [`Self::prefetch_hashed`] take, for a
    /// caller that needs it more than once.
    #[inline]
    pub(crate) fn hash_of(addr: Ipv6Addr) -> u64 {
        hash_word(u128::from(addr))
    }

    /// Interns `addr`, returning its stable dense id.
    #[inline]
    pub fn intern(&mut self, addr: Ipv6Addr) -> u32 {
        self.intern_hashed(addr, Self::hash_of(addr))
    }

    /// [`Self::intern`] given `hash`, which must be
    /// [`Self::hash_of`]`(addr)`.
    #[inline]
    pub(crate) fn intern_hashed(&mut self, addr: Ipv6Addr, hash: u64) -> u32 {
        let w = u128::from(addr);
        debug_assert_eq!(hash, hash_word(w));
        match self.probe(w, hash) {
            Ok(id) => id,
            Err(i) => {
                let new_id = self.words.len() as u32;
                self.keys[i] = w;
                self.ids[i] = new_id;
                self.words.push(w);
                if self.words.len() * 4 >= self.ids.len() * 3 {
                    self.grow();
                }
                new_id
            }
        }
    }

    /// Walks the probe run of `w` from the home slot of `hash`: `Ok` with
    /// the id of the slot holding `w`, or `Err` with the free slot that
    /// ends the run.
    #[inline]
    fn probe(&self, w: u128, hash: u64) -> Result<u32, usize> {
        let mut i = hash as usize & self.mask;
        loop {
            // The id first: a free slot's key is zero, the word of `::`.
            let id = self.ids[i];
            if id == EMPTY {
                return Err(i);
            }
            if self.keys[i] == w {
                return Ok(id);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Hints the CPU to pull the home slot of the address hashing to
    /// `hash` — its key and its id — into cache. The classify pass
    /// batches a window of prefetches ahead of its probes
    /// (`hashed_ahead`), so slot misses overlap instead of serializing —
    /// the main reason the columnar ingest outruns a per-record `HashMap`
    /// probe, whose bucket address is unknowable outside the map.
    #[inline]
    pub(crate) fn prefetch_hashed(&self, hash: u64) {
        let i = hash as usize & self.mask;
        simnet::prefetch(&self.keys[i]);
        simnet::prefetch(&self.ids[i]);
    }

    /// The id of `addr` if already interned.
    #[inline]
    pub fn lookup(&self, addr: Ipv6Addr) -> Option<u32> {
        let w = u128::from(addr);
        self.probe(w, hash_word(w)).ok()
    }

    /// The address behind `id` (panics on an id never returned by
    /// [`intern`](Self::intern)).
    #[inline]
    pub fn resolve(&self, id: u32) -> Ipv6Addr {
        Ipv6Addr::from(self.words[id as usize])
    }

    /// The `u128` word behind `id`.
    #[inline]
    pub fn resolve_word(&self, id: u32) -> u128 {
        self.words[id as usize]
    }

    /// All interned address words, indexed by id (insertion order).
    pub fn words(&self) -> &[u128] {
        &self.words
    }

    /// All interned addresses in id order (insertion order).
    pub fn addrs(&self) -> Vec<Ipv6Addr> {
        self.words.iter().map(|&w| Ipv6Addr::from(w)).collect()
    }

    /// Computes `f` once per unique address; `out[id]` is `f(addr(id))`.
    /// The per-id cache every analysis stage uses instead of re-deriving
    /// per occurrence (origin ASN, IID class, ...).
    pub fn map_ids<T>(&self, mut f: impl FnMut(Ipv6Addr) -> T) -> Vec<T> {
        self.words.iter().map(|&w| f(Ipv6Addr::from(w))).collect()
    }

    fn grow(&mut self) {
        let cap = self.ids.len() * 2;
        self.mask = cap - 1;
        self.keys.clear();
        self.keys.resize(cap, 0);
        self.ids.clear();
        self.ids.resize(cap, EMPTY);
        for (id, &w) in self.words.iter().enumerate() {
            let mut i = hash_word(w) as usize & self.mask;
            while self.ids[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.keys[i] = w;
            self.ids[i] = id as u32;
        }
    }
}

/// How far ahead of its probe a target-table slot is prefetched.
const AHEAD: usize = 8;

/// Each of `items` with the [`AddrInterner::hash_of`] of its address —
/// and, beside it, the hash of the item [`AHEAD`] further on, for the
/// caller to [`AddrInterner::prefetch_hashed`]. An address is hashed
/// once for both: the hash waits in a ring until its item comes up.
pub(crate) fn hashed_ahead<T>(
    items: &[T],
    addr: impl Fn(&T) -> Ipv6Addr,
) -> impl Iterator<Item = (&T, u64, Option<u64>)> {
    let mut ring = [0u64; AHEAD];
    for (slot, item) in ring.iter_mut().zip(items) {
        *slot = AddrInterner::hash_of(addr(item));
    }
    items.iter().enumerate().map(move |(i, item)| {
        let slot = &mut ring[i % AHEAD];
        let hash = *slot;
        let ahead = items.get(i + AHEAD).map(|next| {
            *slot = AddrInterner::hash_of(addr(next));
            *slot
        });
        (item, hash, ahead)
    })
}

/// The one place where ids of different tables meet: extends `table`
/// with every word of `tables` and returns each one's id map into it.
/// Each table appends its unseen words in its id order, so ids already
/// in `table` never move.
///
/// One rule spares the hashing: when one table's words are a prefix of
/// the other's, their ids agree and the longer table is the union. Such
/// a table maps to `None`, and when it is the longer one `table` becomes
/// it, shared and not copied. That covers a table that *is* `table`, an
/// empty `table`, and a chain of tables each extending the last (the
/// adaptive loop's rounds). Any other table is looked up word by word,
/// and `table` is copied only when it is shared and a word is missing.
///
/// A merge starts from its first input's table; the router-graph
/// builder extends its own; the quarantine pools evidence by union id;
/// the adaptive loop rebases each round's sets onto one table.
pub fn union<'t>(
    table: &mut Arc<AddrInterner>,
    tables: impl IntoIterator<Item = &'t Arc<AddrInterner>>,
) -> Vec<Option<Vec<u32>>> {
    tables
        .into_iter()
        .map(|t| {
            if is_prefix(table, t) {
                *table = Arc::clone(t);
                return None;
            }
            if is_prefix(t, table) {
                return None;
            }
            let map = t.words().iter().map(|&w| {
                let addr = Ipv6Addr::from(w);
                match Arc::get_mut(table) {
                    Some(own) => own.intern(addr),
                    None => table
                        .lookup(addr)
                        .unwrap_or_else(|| Arc::make_mut(table).intern(addr)),
                }
            });
            Some(map.collect())
        })
        .collect()
}

/// Are `a`'s words a prefix of `b`'s (the same table, or equal words,
/// included)?
fn is_prefix(a: &Arc<AddrInterner>, b: &Arc<AddrInterner>) -> bool {
    Arc::ptr_eq(a, b) || b.words().starts_with(a.words())
}

/// Re-interns ids of `src` into a fresh interner on first touch: the
/// new ids follow the caller's cell walk, and an address is hashed once
/// per responder, not once per cell.
pub(crate) struct Reintern<'a> {
    src: &'a AddrInterner,
    /// `src` id → new id; `EMPTY` until first touched.
    remap: Vec<u32>,
    interner: AddrInterner,
}

impl<'a> Reintern<'a> {
    /// A re-interner whose new interner takes every address of `src`
    /// without growing ([`AddrInterner::with_room_for`]).
    pub(crate) fn new(src: &'a AddrInterner) -> Self {
        Reintern {
            src,
            remap: vec![EMPTY; src.len()],
            interner: AddrInterner::with_room_for(src.len()),
        }
    }

    /// The new id of `src`'s `id`.
    #[inline]
    pub(crate) fn id(&mut self, id: u32) -> u32 {
        let slot = &mut self.remap[id as usize];
        if *slot == EMPTY {
            *slot = self.interner.intern(self.src.resolve(id));
        }
        *slot
    }

    /// Has `src`'s `id` been given a new id?
    pub(crate) fn touched(&self, id: usize) -> bool {
        self.remap[id] != EMPTY
    }

    /// The interner built so far.
    pub(crate) fn finish(self) -> AddrInterner {
        self.interner
    }
}

#[cfg(test)]
impl AddrInterner {
    /// Slots in the table.
    pub(crate) fn slots(&self) -> usize {
        self.ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut it = AddrInterner::new();
        let x = it.intern(a("2001:db8::1"));
        let y = it.intern(a("2001:db8::2"));
        assert_eq!((x, y), (0, 1));
        assert_eq!(it.intern(a("2001:db8::1")), x);
        assert_eq!(it.len(), 2);
        assert_eq!(it.resolve(y), a("2001:db8::2"));
        assert_eq!(it.lookup(a("2001:db8::2")), Some(y));
        assert_eq!(it.lookup(a("2001:db8::3")), None);
    }

    #[test]
    fn survives_growth() {
        let mut it = AddrInterner::new();
        let n = 10_000u32;
        for i in 0..n {
            let id = it.intern(Ipv6Addr::from(0x2001_0db8_u128 << 96 | i as u128));
            assert_eq!(id, i);
        }
        assert_eq!(it.len(), n as usize);
        for i in 0..n {
            let addr = Ipv6Addr::from(0x2001_0db8_u128 << 96 | i as u128);
            assert_eq!(it.lookup(addr), Some(i));
            assert_eq!(it.resolve(i), addr);
        }
    }

    #[test]
    fn room_for_n_is_the_table_doubling_ends_at() {
        let addr = |i: usize| Ipv6Addr::from(0x2001_0db8_u128 << 96 | i as u128);
        for n in [0, 1, 47, 48, 49, 1535, 1536, 1537, 20_000] {
            let mut sized = AddrInterner::with_room_for(n);
            let mut grown = AddrInterner::new();
            let slots = sized.slots();
            for i in 0..n {
                sized.intern(addr(i));
                grown.intern(addr(i));
            }
            assert_eq!(sized.slots(), slots, "{n} addresses grew the table");
            assert_eq!(slots, grown.slots(), "{n} addresses");
        }
    }

    #[test]
    fn the_zero_word_never_matches_a_free_slot() {
        // A free slot's key is zero, the word of `::`.
        let zero = Ipv6Addr::UNSPECIFIED;
        let mut it = AddrInterner::new();
        assert_eq!(it.lookup(zero), None);
        assert_eq!(it.intern(zero), 0);
        assert_eq!(it.intern(zero), 0);
        assert_eq!((it.len(), it.lookup(zero)), (1, Some(0)));
        assert_eq!(it.resolve(0), zero);
        let mut other = AddrInterner::new();
        other.intern(a("2001:db8::1"));
        assert_eq!(other.lookup(zero), None);
    }

    #[test]
    fn a_probe_run_wraps_past_the_last_slot() {
        // Words whose home slots in a 64-slot table are the last two: the
        // run fills slots 62 and 63, then wraps to slot 0 onwards.
        let mut homed_last = (1u128..).filter(|&w| hash_word(w) as usize % 64 >= 62);
        let words: Vec<u128> = homed_last.by_ref().take(12).collect();
        let absent = homed_last.next().unwrap();
        let mut it = AddrInterner::new();
        for (id, &w) in words.iter().enumerate() {
            assert_eq!(it.intern(Ipv6Addr::from(w)), id as u32);
        }
        assert_eq!(it.slots(), 64);
        let occupied: Vec<usize> = (0..64).filter(|&i| it.ids[i] != EMPTY).collect();
        assert_eq!(occupied, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 62, 63]);
        for (id, &w) in words.iter().enumerate() {
            assert_eq!(it.lookup(Ipv6Addr::from(w)), Some(id as u32));
            assert_eq!(it.intern(Ipv6Addr::from(w)), id as u32);
        }
        assert_eq!(it.lookup(Ipv6Addr::from(absent)), None);
        assert_eq!(it.lookup(Ipv6Addr::UNSPECIFIED), None);
        assert_eq!(it.len(), words.len());
    }

    fn table(words: &[&str]) -> Arc<AddrInterner> {
        let mut it = AddrInterner::new();
        for w in words {
            it.intern(a(w));
        }
        Arc::new(it)
    }

    #[test]
    fn a_union_that_adds_nothing_copies_nothing() {
        let shared = table(&["::1", "::2", "::3"]);
        let mut u = Arc::clone(&shared);
        // Every word present, none a prefix: looked up, never cloned.
        let maps = union(&mut u, [&table(&["::3", "::1"])]);
        assert_eq!(maps, [Some(vec![2, 0])]);
        assert!(Arc::ptr_eq(&u, &shared), "nothing added, nothing copied");
        // The first miss copies the shared table once; the original stays.
        let maps = union(&mut u, [&table(&["::2", "::4"]), &table(&["::5"])]);
        assert_eq!(maps, [Some(vec![1, 3]), Some(vec![4])]);
        assert!(!Arc::ptr_eq(&u, &shared));
        assert_eq!((shared.len(), u.len()), (3, 5));
    }

    #[test]
    fn prefix_related_tables_are_the_longer_one() {
        let short = table(&["::1", "::2"]);
        let long = table(&["::1", "::2", "::3"]);
        let mut u = Arc::clone(&short);
        assert_eq!(union(&mut u, [&long, &short]), [None, None]);
        assert!(Arc::ptr_eq(&u, &long), "the longer table, adopted");
        let mut empty = Arc::default();
        assert_eq!(union(&mut empty, [&short]), [None]);
        assert!(Arc::ptr_eq(&empty, &short));
    }

    #[test]
    fn map_ids_is_per_unique_address() {
        let mut it = AddrInterner::new();
        for _ in 0..100 {
            it.intern(a("::1"));
            it.intern(a("::2"));
        }
        let mut calls = 0;
        let lens = it.map_ids(|addr| {
            calls += 1;
            u128::from(addr)
        });
        assert_eq!(calls, 2);
        assert_eq!(lens, vec![1, 2]);
    }
}
