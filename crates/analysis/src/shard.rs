//! Sharding the columnar [`TraceSet`] by target prefix.
//!
//! A [`ShardedTraceSet`] is a longitudinal store: **one** `TraceSet`
//! plus the fixed prefix→shard function ([`ShardRoute`]) a delta run
//! reopens the store by. All addresses in one /64 route to the same
//! shard (a trace never straddles shards, and the same target routes
//! identically in every set), so the route, a pure function of the
//! shard count, is all a store knows of its shards: no per-shard set is
//! ever built. On disk a store is one file holding the count and the
//! set ([`write_sharded_snapshot`](crate::write_sharded_snapshot)). The
//! contracts (property-tested in `tests/shard_props.rs`) are exact, with
//! no canonical form:
//!
//! ```text
//! ShardedTraceSet::from_set(&ts, k).to_trace_set() == ts
//! ShardedTraceSet::merge_all(&[from_set(&a, k), from_set(&b, k)])
//!     == from_set(&TraceSet::merge_all([&a, &b]), k)
//! ```
//!
//! for any shard count. `from_set` and `to_trace_set` are clones, O(1)
//! ([`TraceSet`]'s columns are shared), and the merge is
//! [`TraceSet::merge_all`].

use crate::traces::TraceSet;
use simnet::flow::mix64;
use std::net::Ipv6Addr;

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

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.route.shards as usize
    }

    /// The store as one set, in a one-element slice: a pass over many
    /// sets that share a table, such as a router-graph build, reads the
    /// store through this.
    pub fn shards(&self) -> &[TraceSet] {
        std::slice::from_ref(&self.set)
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
            assert_eq!(sharded.n_shards(), k);
            assert_eq!(
                sharded.to_trace_set().canonical(),
                ts.clone().canonical(),
                "shard count {k}"
            );
        }
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
}
