//! Virtual-time adversarial injection: hostile responders layered over
//! the deterministic topology.
//!
//! Where [`crate::fault`] models parts of the network *failing*, this
//! module models parts of it *lying*. An [`AdversarialSchedule`]
//! designates routers as hostile for a window of the virtual clock, in
//! one of five classes drawn from the pathologies a real IPv6 campaign
//! meets (bogus quotes, spoofed sources, broken middleboxes):
//!
//! * [`AdversarialClass::LyingTtl`] — the router answers normally but
//!   rewrites the quoted probe's TTL field to a per-(router, target)
//!   pseudo-random lie, teleporting the record to a wrong hop distance;
//! * [`AdversarialClass::SpoofedSource`] — the router's Time Exceeded
//!   errors carry a fabricated source address outside the topology's
//!   address space. An off-path spoofer cannot know the quoted packet's
//!   residual hop limit, so its quotes keep the original value instead
//!   of the exhausted `0` — the inconsistency a hardened decoder
//!   rejects;
//! * [`AdversarialClass::ZombieEcho`] — an in-path middlebox that
//!   intercepts every probe passing beyond it and answers Time Exceeded
//!   with its own address, whatever the probe's TTL — the "answers for
//!   every TTL" zombie, which plants its address at many TTLs of the
//!   same trace;
//! * [`AdversarialClass::DuplicateStorm`] — a stale buffer bug: the
//!   router also answers probes addressed a few TTLs past it
//!   ([`STORM_SPREAD`]), smearing duplicates of its Time Exceeded over
//!   neighboring rows and suppressing the true hops there;
//! * [`AdversarialClass::GarbageBytes`] — the router's responses leave
//!   corrupted: deterministically truncated or bit-flipped, exercising
//!   every branch of a total decoder.
//!
//! The schedule rides on
//! [`TopologyConfig::adversarial`](crate::config::TopologyConfig::adversarial)
//! and is evaluated by [`Engine`](crate::engine::Engine) per probe on
//! the same shifted virtual clock as the fault schedule, charging one
//! of the `adv_*` counters of [`EngineStats`](crate::engine::EngineStats)
//! per hostile action. Everything is pure arithmetic — no wall time, no
//! RNG — so a poisoned campaign replays bit-for-bit, and the default
//! (empty) schedule is a guaranteed no-op on the hot path.

use crate::topology::RouterId;
use serde::{Deserialize, Serialize};

/// How many TTLs past its own depth a [`AdversarialClass::DuplicateStorm`]
/// responder keeps answering for, spraying stale duplicates over the
/// neighboring rows of the trace.
pub(crate) const STORM_SPREAD: usize = 2;

/// The hostile behavior a scheduled responder exhibits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdversarialClass {
    /// Rewrites the quoted probe TTL to a per-(router, target) lie.
    LyingTtl,
    /// Time Exceeded errors carry a fabricated off-topology source and
    /// an un-exhausted (non-zero) quoted hop limit.
    SpoofedSource,
    /// Intercepts every probe passing beyond it and answers Time
    /// Exceeded with its own address, at any TTL.
    ZombieEcho,
    /// Also answers probes addressed up to `STORM_SPREAD` TTLs past
    /// it, shadowing the true hops there with stale duplicates.
    DuplicateStorm,
    /// Emits truncated or bit-flipped response bytes.
    GarbageBytes,
}

impl AdversarialClass {
    /// Bit for the engine's per-router class mask.
    pub(crate) fn bit(self) -> u8 {
        match self {
            AdversarialClass::LyingTtl => 1 << 0,
            AdversarialClass::SpoofedSource => 1 << 1,
            AdversarialClass::ZombieEcho => 1 << 2,
            AdversarialClass::DuplicateStorm => 1 << 3,
            AdversarialClass::GarbageBytes => 1 << 4,
        }
    }

    /// Every class, in declaration order (bench/test fan-out helper).
    pub const ALL: [AdversarialClass; 5] = [
        AdversarialClass::LyingTtl,
        AdversarialClass::SpoofedSource,
        AdversarialClass::ZombieEcho,
        AdversarialClass::DuplicateStorm,
        AdversarialClass::GarbageBytes,
    ];
}

/// One router's hostile window: `router` exhibits `class` for probes
/// whose shifted virtual send time falls in `[from_us, until_us)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostileWindow {
    /// The router that misbehaves.
    pub router: RouterId,
    /// What it does while hostile.
    pub class: AdversarialClass,
    /// Window start (inclusive), µs on the virtual clock.
    pub from_us: u64,
    /// Window end (exclusive). `u64::MAX` never ends.
    pub until_us: u64,
}

/// A deterministic, virtual-time schedule of hostile responders.
///
/// Attach one to
/// [`TopologyConfig::adversarial`](crate::config::TopologyConfig::adversarial);
/// the engine evaluates it per probe. The default (empty) schedule is a
/// guaranteed no-op: the hot path pays one cached branch when nothing is
/// scheduled, so clean campaigns stay bit-identical to builds without
/// this module. One router may carry several classes at once — the
/// behaviors compose (a lying zombie both intercepts and mis-quotes).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdversarialSchedule {
    /// Scheduled hostile windows, evaluated independently.
    pub hostiles: Vec<HostileWindow>,
}

impl AdversarialSchedule {
    /// No hostile responders at all — the engine skips evaluation.
    pub(crate) fn is_empty(&self) -> bool {
        self.hostiles.is_empty()
    }

    /// Adds a hostile window (builder style).
    pub fn with_hostile(
        mut self,
        router: RouterId,
        class: AdversarialClass,
        from_us: u64,
        until_us: u64,
    ) -> Self {
        self.hostiles.push(HostileWindow {
            router,
            class,
            from_us,
            until_us,
        });
        self
    }

    /// Adds a permanently hostile router (builder style): the window is
    /// `[0, u64::MAX)`.
    pub fn with_hostile_always(self, router: RouterId, class: AdversarialClass) -> Self {
        self.with_hostile(router, class, 0, u64::MAX)
    }

    /// Union of the class bits `router` ever exhibits, over all windows:
    /// the definition [`Hostiles`] is tested against.
    #[cfg(test)]
    fn class_mask(&self, router: RouterId) -> u8 {
        self.hostiles
            .iter()
            .filter(|h| h.router == router && h.from_us < h.until_us)
            .fold(0u8, |m, h| m | h.class.bit())
    }
}

/// A schedule laid out for the engine, which asks about one router at a
/// time, once or more per probe, and is built once per campaign: the
/// windows sorted by router, and every router's class bits.
#[derive(Clone, Debug, Default)]
pub(crate) struct Hostiles {
    /// The schedule's non-empty windows, sorted by router.
    windows: Vec<HostileWindow>,
    /// Per router, the union of the class bits it ever exhibits (0 for
    /// honest routers): the O(1) filter in front of `windows`.
    mask: Vec<u8>,
}

impl Hostiles {
    /// Lays out `schedule` for a topology of `routers` routers, in one
    /// pass over its windows (plus their sort). Windows naming a router
    /// the topology does not have can never be asked about and are
    /// dropped.
    pub(crate) fn new(schedule: &AdversarialSchedule, routers: usize) -> Self {
        let mut mask = vec![0u8; if schedule.is_empty() { 0 } else { routers }];
        let mut windows = Vec::with_capacity(schedule.hostiles.len());
        for h in &schedule.hostiles {
            if let Some(m) = mask.get_mut(h.router.0 as usize) {
                if h.from_us < h.until_us {
                    *m |= h.class.bit();
                    windows.push(*h);
                }
            }
        }
        windows.sort_by_key(|h| h.router);
        Hostiles { windows, mask }
    }

    /// No router is ever hostile.
    pub(crate) fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The class bits `router` ever exhibits.
    #[inline]
    pub(crate) fn mask(&self, router: RouterId) -> u8 {
        self.mask[router.0 as usize]
    }

    /// Is `router` exhibiting `class` at `now_us`?
    pub(crate) fn active(&self, router: RouterId, class: AdversarialClass, now_us: u64) -> bool {
        let first = self.windows.partition_point(|h| h.router < router);
        self.windows[first..]
            .iter()
            .take_while(|h| h.router == router)
            .any(|h| h.class == class && h.from_us <= now_us && now_us < h.until_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_a_no_op() {
        let s = AdversarialSchedule::default();
        assert!(s.is_empty());
        let h = Hostiles::new(&s, 1);
        for c in AdversarialClass::ALL {
            assert!(!h.active(RouterId(0), c, 0));
        }
        assert_eq!(s.class_mask(RouterId(0)), 0);
    }

    #[test]
    fn windows_are_half_open_and_per_class() {
        let r = RouterId(5);
        let s =
            AdversarialSchedule::default().with_hostile(r, AdversarialClass::LyingTtl, 100, 200);
        assert!(!s.is_empty());
        let h = Hostiles::new(&s, 8);
        assert!(!h.active(r, AdversarialClass::LyingTtl, 99));
        assert!(h.active(r, AdversarialClass::LyingTtl, 100));
        assert!(h.active(r, AdversarialClass::LyingTtl, 199));
        assert!(!h.active(r, AdversarialClass::LyingTtl, 200));
        assert!(
            !h.active(r, AdversarialClass::ZombieEcho, 150),
            "other classes unaffected"
        );
        assert!(
            !h.active(RouterId(6), AdversarialClass::LyingTtl, 150),
            "other routers unaffected"
        );
    }

    #[test]
    fn class_mask_unions_all_windows() {
        let r = RouterId(9);
        let s = AdversarialSchedule::default()
            .with_hostile(r, AdversarialClass::LyingTtl, 0, 100)
            .with_hostile(r, AdversarialClass::GarbageBytes, 500, 600)
            .with_hostile(RouterId(10), AdversarialClass::ZombieEcho, 0, u64::MAX);
        assert_eq!(
            s.class_mask(r),
            AdversarialClass::LyingTtl.bit() | AdversarialClass::GarbageBytes.bit()
        );
        assert_eq!(
            s.class_mask(RouterId(10)),
            AdversarialClass::ZombieEcho.bit()
        );
        // A degenerate (empty) window contributes nothing.
        let s = AdversarialSchedule::default().with_hostile(r, AdversarialClass::LyingTtl, 50, 50);
        assert_eq!(s.class_mask(r), 0);
        assert!(!Hostiles::new(&s, 16).active(r, AdversarialClass::LyingTtl, 50));
    }

    #[test]
    fn engine_layout_answers_like_the_schedule() {
        // Overlapping windows of one class, several classes on one
        // router, empty and inverted windows, routers out of order, one
        // beyond the topology, and honest routers in between.
        let n = 12;
        let s = AdversarialSchedule::default()
            .with_hostile(RouterId(9), AdversarialClass::LyingTtl, 0, 100)
            .with_hostile(RouterId(2), AdversarialClass::ZombieEcho, 50, 150)
            .with_hostile(RouterId(9), AdversarialClass::LyingTtl, 80, 300)
            .with_hostile(RouterId(9), AdversarialClass::GarbageBytes, 500, 600)
            .with_hostile(RouterId(4), AdversarialClass::SpoofedSource, 70, 70)
            .with_hostile(RouterId(4), AdversarialClass::DuplicateStorm, 90, 10)
            .with_hostile(RouterId(2), AdversarialClass::DuplicateStorm, 0, u64::MAX)
            .with_hostile(RouterId(40), AdversarialClass::ZombieEcho, 0, u64::MAX)
            .with_hostile_always(RouterId(0), AdversarialClass::SpoofedSource);
        let h = Hostiles::new(&s, n);
        assert!(!h.is_empty());
        // The schedule's own meaning: any window of that router and class
        // covering `t`.
        let scheduled = |r: RouterId, c: AdversarialClass, t: u64| {
            let mut windows = s.hostiles.iter();
            windows.any(|w| w.router == r && w.class == c && w.from_us <= t && t < w.until_us)
        };
        for r in (0..n as u32).map(RouterId) {
            assert_eq!(h.mask(r), s.class_mask(r), "mask of {r:?}");
            for c in AdversarialClass::ALL {
                for t in [
                    0,
                    49,
                    50,
                    70,
                    79,
                    80,
                    99,
                    100,
                    149,
                    150,
                    299,
                    300,
                    550,
                    u64::MAX - 1,
                ] {
                    assert_eq!(h.active(r, c, t), scheduled(r, c, t), "{r:?} {c:?} at {t}");
                }
            }
        }
        assert_eq!(h.mask(RouterId(4)), 0, "empty windows set no bit");

        let none = Hostiles::new(&AdversarialSchedule::default(), n);
        assert!(none.is_empty());
        let only_empty = AdversarialSchedule::default().with_hostile(
            RouterId(1),
            AdversarialClass::LyingTtl,
            5,
            5,
        );
        assert!(Hostiles::new(&only_empty, n).is_empty());
    }

    #[test]
    fn always_hostile_never_expires() {
        let r = RouterId(1);
        let s =
            AdversarialSchedule::default().with_hostile_always(r, AdversarialClass::DuplicateStorm);
        let h = Hostiles::new(&s, 2);
        assert!(h.active(r, AdversarialClass::DuplicateStorm, 0));
        assert!(h.active(r, AdversarialClass::DuplicateStorm, u64::MAX - 1));
    }

    #[test]
    fn class_bits_are_distinct() {
        let mut seen = 0u8;
        for c in AdversarialClass::ALL {
            assert_eq!(seen & c.bit(), 0, "duplicate bit for {c:?}");
            seen |= c.bit();
        }
        assert_eq!(seen.count_ones(), 5);
    }
}
