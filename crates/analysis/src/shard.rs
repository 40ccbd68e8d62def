//! Sharding the columnar [`TraceSet`] by target prefix.
//!
//! A [`ShardedTraceSet`] is a longitudinal store: **one** `TraceSet`
//! plus the fixed prefix→shard function ([`ShardRoute`]) that cuts it
//! into shards. All addresses in one /64 land in the same shard (a
//! trace never straddles shards, and the same target routes
//! identically in every set), so the route, a pure function of the
//! shard count, is all a store needs to know of its shards. On disk a
//! store is one file holding the count and the set
//! ([`write_sharded_snapshot`](crate::write_sharded_snapshot)); no
//! shard placement is stored. A shard is built only when asked for
//! ([`ShardedTraceSet::shard`]).
//!
//! A shard is a complete `TraceSet` over its (sorted) target subset,
//! so every analysis pass runs on a shard unchanged, and all shards
//! share the store's **one** address table (a router interface lies on
//! the paths toward many prefixes). Ids mean the same in every shard,
//! so a shard copies id columns verbatim, and the contracts
//! (property-tested in `tests/shard_props.rs`) are exact, with no
//! canonical form:
//!
//! ```text
//! ShardedTraceSet::from_set(&ts, k).to_trace_set() == ts
//! TraceSet::merge_all(shards s = 0..k of from_set(&ts, k)) == ts
//! ShardedTraceSet::merge_all(&[from_set(&a, k), from_set(&b, k)])
//!     == from_set(&TraceSet::merge_all([&a, &b]), k)
//! ```
//!
//! for any shard count. `from_set` and `to_trace_set` are clones, O(1)
//! ([`TraceSet`]'s columns are shared), and the merge is
//! [`TraceSet::merge_all`].

use crate::traces::{Columns, TraceSet, TraceView};
use simnet::flow::mix64;
use std::net::Ipv6Addr;
use std::sync::Arc;
use yarrp6::addrset::AddrSet;

/// The fixed prefix→shard routing function.
///
/// A target's shard is `splitmix64(top 64 bits) mod shards`: routing
/// depends only on the /64 prefix — the paper's unit of target
/// generation — so every address of one subnet stays in one shard
/// (locality for subnet inference), while the mixer spreads clustered
/// prefix allocations evenly across shards. The function is pure and
/// versioned by the snapshot format: two processes with the same shard
/// count route identically, so a stored count is a stored route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRoute {
    shards: u32,
}

/// The most shards a route may have: a store's file holds its count,
/// and what sizes anything per shard (a delta run's reopen latches)
/// must not be sized by an unbounded number read back.
pub const MAX_SHARDS: usize = 1 << 16;

impl ShardRoute {
    /// A route over `shards` shards (at least 1). Panics past
    /// [`MAX_SHARDS`], so every store that can be written can be read.
    pub fn new(shards: usize) -> ShardRoute {
        assert!(shards <= MAX_SHARDS, "{shards} shards, past {MAX_SHARDS}");
        ShardRoute {
            shards: shards.max(1) as u32,
        }
    }

    /// The shard `addr` routes to. Constant per /64 prefix.
    #[inline]
    pub fn shard_of(&self, addr: Ipv6Addr) -> usize {
        if self.shards == 1 {
            return 0;
        }
        (mix64((u128::from(addr) >> 64) as u64) % self.shards as u64) as usize
    }
}

/// A [`TraceSet`] and the fixed [`ShardRoute`] that partitions it into
/// shards. See the module docs for the contracts.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedTraceSet {
    route: ShardRoute,
    /// The whole store; shard `s` is its traces whose targets route to
    /// `s`.
    pub(crate) set: TraceSet,
}

impl ShardedTraceSet {
    /// The store of `ts` under a route of `shards` shards: a clone of
    /// `ts`, which shares its columns and table.
    pub fn from_set(ts: &TraceSet, shards: usize) -> ShardedTraceSet {
        ShardedTraceSet {
            route: ShardRoute::new(shards),
            set: ts.clone(),
        }
    }

    /// The routing function this set is partitioned by.
    pub fn route(&self) -> ShardRoute {
        self.route
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.route.shards as usize
    }

    /// The store as one set, in a one-element slice. The store holds no
    /// per-shard sets (build one with [`shard`](Self::shard)); a pass
    /// over many sets that share a table, such as a router-graph build,
    /// reads the store through this.
    pub fn shards(&self) -> &[TraceSet] {
        std::slice::from_ref(&self.set)
    }

    /// Builds shard `s`: the store's traces whose targets route to `s`,
    /// in target order, each trace's cells copied verbatim into columns
    /// reserved at their final length, on the store's table.
    /// `rewritten_dropped` (a set-level counter with no per-target home)
    /// goes to shard 0. Panics when `s` is not a shard of the route.
    pub fn shard(&self, s: usize) -> TraceSet {
        assert!(s < self.n_shards(), "shard {s} of {}", self.n_shards());
        let (ts, cols) = (&self.set, &*self.set.cols);
        let mine: Vec<usize> = (0..ts.len())
            .filter(|&i| self.route.shard_of(cols.targets[i]) == s)
            .collect();
        let (n_hops, n_unreach) = mine.iter().fold((0, 0), |(h, u), &i| {
            (h + cols.hop_range(i).len(), u + cols.unreach_range(i).len())
        });
        let mut out = Columns::reserved([mine.len(), n_hops, n_unreach]);
        for i in mine {
            out.push_trace(cols, i, None);
        }
        TraceSet {
            vantage: ts.vantage.clone(),
            target_set: ts.target_set.clone(),
            rewritten_dropped: if s == 0 { ts.rewritten_dropped } else { 0 },
            interner: Arc::clone(&ts.interner),
            cols: Arc::new(out),
        }
    }

    /// Total traces in the store.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True when the store holds no trace.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The trace probed toward `target`.
    pub fn get(&self, target: Ipv6Addr) -> Option<TraceView<'_>> {
        self.set.get(target)
    }

    /// Merges stores of one route: [`TraceSet::merge_all`] of their
    /// sets, under that route. Panics on mixed routes — re-shard first.
    pub fn merge_all(sets: &[ShardedTraceSet]) -> ShardedTraceSet {
        let Some(first) = sets.first() else {
            return ShardedTraceSet::from_set(&TraceSet::default(), 1);
        };
        assert!(
            sets.iter().all(|s| s.route == first.route),
            "cannot merge sharded sets with different routes"
        );
        ShardedTraceSet {
            route: first.route,
            set: TraceSet::merge_all(sets.iter().map(|s| &s.set)),
        }
    }

    /// The store as one flat [`TraceSet`]: a clone, sharing the store's
    /// columns and table.
    pub fn to_trace_set(&self) -> TraceSet {
        self.set.clone()
    }

    /// [`TraceSet::discovery_delta`] of the store.
    pub fn discovery_delta(&self, seen: &mut AddrSet) -> Vec<Ipv6Addr> {
        self.set.discovery_delta(seen)
    }

    /// [`TraceSet::interface_words`] of the store.
    pub fn interface_words(&self) -> Vec<u128> {
        self.set.interface_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::fixtures::te as rec;
    use yarrp6::ProbeLog;

    fn sample_set() -> TraceSet {
        // Targets across several /64s so the route actually splits.
        let mut records = Vec::new();
        for p in 0u64..12 {
            let t = format!("2001:db8:{p:x}::1");
            records.push(rec(&t, &format!("2001:db8:ffff::{:x}", p % 5), 1, p));
            records.push(rec(&t, &format!("2001:db8:fffe::{:x}", p % 3), 2, 100 + p));
        }
        let mut log = ProbeLog {
            vantage: "V".into(),
            target_set: "S".into(),
            records,
            ..Default::default()
        };
        log.sort_by_recv();
        TraceSet::from_log(&log)
    }

    #[test]
    #[should_panic(expected = "65537 shards, past 65536")]
    fn a_route_past_the_shard_limit_is_refused() {
        ShardRoute::new(MAX_SHARDS + 1);
    }

    #[test]
    fn route_is_prefix_constant() {
        let route = ShardRoute::new(8);
        let a: Ipv6Addr = "2001:db8:7::1".parse().unwrap();
        let b: Ipv6Addr = "2001:db8:7::ffff".parse().unwrap();
        assert_eq!(route.shard_of(a), route.shard_of(b));
    }

    #[test]
    fn from_set_round_trips_through_canonical() {
        let ts = sample_set();
        for k in [1, 2, 3, 8] {
            let sharded = ShardedTraceSet::from_set(&ts, k);
            assert_eq!(sharded.len(), ts.len());
            assert_eq!(
                sharded.to_trace_set().canonical(),
                ts.clone().canonical(),
                "shard count {k}"
            );
            // Every shard holds only its own targets.
            for s in 0..k {
                for &t in sharded.shard(s).targets() {
                    assert_eq!(sharded.route().shard_of(t), s);
                }
            }
        }
    }

    #[test]
    fn every_shard_column_is_reserved_at_its_final_length() {
        let ts = sample_set();
        let store = ShardedTraceSet::from_set(&ts, 8);
        for s in 0..8 {
            assert_eq!(store.shard(s).spare_capacity(), [0; 8]);
        }
    }

    #[test]
    fn get_routes_to_the_right_shard() {
        let ts = sample_set();
        let sharded = ShardedTraceSet::from_set(&ts, 4);
        for view in ts.iter() {
            let got = sharded.get(view.target()).expect("target present");
            assert!(got.same_observations(&view));
            let shard = sharded.shard(sharded.route().shard_of(view.target()));
            let got = shard.get(view.target()).expect("target in its shard");
            assert!(got.same_observations(&view));
        }
        assert!(sharded.get("2001:db8:aaaa::1".parse().unwrap()).is_none());
    }

    #[test]
    fn sharded_merge_matches_flat_merge() {
        let ts = sample_set();
        // Split the set into two halves by target parity and merge back.
        let halves: Vec<TraceSet> = (0..2)
            .map(|par| {
                let keep: Vec<_> = ts
                    .iter()
                    .filter(|v| (u128::from(v.target()) as usize) % 2 == par)
                    .map(|v| v.index())
                    .collect();
                let mut log = ProbeLog {
                    vantage: "V".into(),
                    target_set: "S".into(),
                    ..Default::default()
                };
                for i in keep {
                    let v = ts.view_at(i);
                    for (ttl, hop) in v.hops() {
                        log.records
                            .push(rec(&v.target().to_string(), &hop.to_string(), ttl, 0));
                    }
                }
                log.sort_by_recv();
                TraceSet::from_log(&log)
            })
            .collect();
        let flat = TraceSet::merge_all(&halves).canonical();
        let sharded: Vec<ShardedTraceSet> = halves
            .iter()
            .map(|h| ShardedTraceSet::from_set(h, 4))
            .collect();
        let merged = ShardedTraceSet::merge_all(&sharded);
        assert_eq!(merged.to_trace_set().canonical(), flat);
    }

    #[test]
    fn discovery_matches_flat_interfaces() {
        let ts = sample_set();
        let sharded = ShardedTraceSet::from_set(&ts, 8);
        assert_eq!(sharded.interface_words(), {
            let mut w = ts.interface_words();
            w.sort_unstable();
            w
        });
        let mut seen = AddrSet::new();
        let fresh = sharded.discovery_delta(&mut seen);
        assert_eq!(fresh.len(), ts.interner().len());
        // Second walk discovers nothing.
        assert!(sharded.discovery_delta(&mut seen).is_empty());
    }
}
