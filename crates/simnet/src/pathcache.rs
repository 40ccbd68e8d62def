//! The engine's indexed path cache: `(vantage, dst, flow)` → `u32`
//! index into the engine's path table.
//!
//! A purpose-built open-addressing table. The flow hash is already a
//! uniformly mixed 64-bit word (it incorporates src, dst, ports and
//! label through splitmix rounds), so it serves directly as the bucket
//! hash — a lookup is one masked index plus a linear scan that almost
//! always terminates on the first slot. No SipHash, no generic hasher
//! machinery, `u32` payloads instead of `Arc` clones.

/// One cache slot; `idx == EMPTY` marks a free slot.
#[derive(Clone, Copy)]
struct Slot {
    dst: u128,
    flow: u64,
    idx: u32,
    vidx: u8,
}

const EMPTY: u32 = u32::MAX;

/// Open-addressed `(vantage, dst, flow) → u32` map.
pub struct PathCache {
    slots: Vec<Slot>,
    mask: usize,
    len: usize,
}

impl Default for PathCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PathCache {
    /// An empty cache.
    pub fn new() -> Self {
        let cap = 1024;
        PathCache {
            slots: vec![
                Slot {
                    dst: 0,
                    flow: 0,
                    idx: EMPTY,
                    vidx: 0,
                };
                cap
            ],
            mask: cap - 1,
            len: 0,
        }
    }

    /// Entries stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up the path index for `(vidx, dst, flow)`.
    #[inline]
    pub fn get(&self, vidx: u8, dst: u128, flow: u64) -> Option<u32> {
        let mut i = flow as usize & self.mask;
        loop {
            let s = &self.slots[i];
            if s.idx == EMPTY {
                return None;
            }
            if s.flow == flow && s.dst == dst && s.vidx == vidx {
                return Some(s.idx);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Starts loading the slot a lookup of `flow` begins at; nothing is
    /// read.
    #[inline]
    pub fn touch(&self, flow: u64) {
        crate::engine::prefetch(&self.slots[flow as usize & self.mask]);
    }

    /// Inserts a new entry (the key must not already be present).
    pub fn insert(&mut self, vidx: u8, dst: u128, flow: u64, idx: u32) {
        debug_assert_ne!(idx, EMPTY);
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        Self::insert_slot(
            &mut self.slots,
            self.mask,
            Slot {
                dst,
                flow,
                idx,
                vidx,
            },
        );
        self.len += 1;
    }

    fn insert_slot(slots: &mut [Slot], mask: usize, slot: Slot) {
        let mut i = slot.flow as usize & mask;
        while slots[i].idx != EMPTY {
            i = (i + 1) & mask;
        }
        slots[i] = slot;
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        let mask = cap - 1;
        let mut slots = vec![
            Slot {
                dst: 0,
                flow: 0,
                idx: EMPTY,
                vidx: 0,
            };
            cap
        ];
        for s in self.slots.iter().filter(|s| s.idx != EMPTY) {
            Self::insert_slot(&mut slots, mask, *s);
        }
        self.slots = slots;
        self.mask = mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip_with_growth() {
        let mut c = PathCache::new();
        let n = 10_000u32;
        for i in 0..n {
            // Adversarially clustered flows exercise linear probing.
            let flow = (i as u64 / 4).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            c.insert((i % 3) as u8, i as u128 * 7, flow ^ i as u64, i);
        }
        assert_eq!(c.len(), n as usize);
        for i in 0..n {
            let flow = (i as u64 / 4).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(
                c.get((i % 3) as u8, i as u128 * 7, flow ^ i as u64),
                Some(i)
            );
        }
        assert_eq!(c.get(9, 1, 2), None);
    }

    #[test]
    fn distinguishes_all_key_fields() {
        let mut c = PathCache::new();
        c.insert(1, 100, 7, 42);
        assert_eq!(c.get(1, 100, 7), Some(42));
        assert_eq!(c.get(2, 100, 7), None);
        assert_eq!(c.get(1, 101, 7), None);
        assert_eq!(c.get(1, 100, 8), None);
    }
}
