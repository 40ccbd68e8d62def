//! Sharding the columnar [`TraceSet`] by target prefix.
//!
//! A single flat `TraceSet` serves one campaign well, but a
//! longitudinal store accumulating many campaigns wants two things the
//! flat layout can't give: `merge_all`/`canonical` that scale across cores,
//! and an on-disk layout of independent units ([`crate::snapshot`]'s
//! per-shard segments, encoded in parallel and each checked on its own
//! at load; [`write_sharded_snapshot`](crate::write_sharded_snapshot)
//! still rewrites every segment, so no write is incremental yet).
//! [`ShardedTraceSet`] provides both by routing every target through a **fixed
//! prefix→shard function** ([`ShardRoute`]): all addresses in one /64
//! land in the same shard (a trace never straddles shards, and the
//! same target routes identically in every set), so per-shard
//! `merge_all`/`canonical` are independent and fan out across
//! the same work-queue pattern the campaign drivers use.
//!
//! Each shard is a complete `TraceSet` over its (sorted) target subset,
//! so every analysis pass runs on a shard unchanged, and all shards
//! share **one** address table (a router interface lies on the paths
//! toward many prefixes). Ids mean the same in every shard, so sharding
//! copies id columns verbatim, and the contracts (property-tested in
//! `tests/shard_props.rs`) are exact, with no canonical form:
//!
//! ```text
//! ShardedTraceSet::from_set(&ts, k).to_trace_set() == ts
//! ShardedTraceSet::merge_all(&[from_set(&a, k), from_set(&b, k)])
//!     == from_set(&TraceSet::merge_all([&a, &b]), k)
//! ```
//!
//! for any shard count.

use crate::intern::{union, AddrInterner};
use crate::traces::{interface_words, TraceSet, TraceView};
use simnet::flow::mix64;
use std::net::Ipv6Addr;
use std::sync::Arc;
use yarrp6::addrset::AddrSet;
use yarrp6::campaign::pool_map;

/// The fixed prefix→shard routing function.
///
/// A target's shard is `splitmix64(top 64 bits) mod shards`: routing
/// depends only on the /64 prefix — the paper's unit of target
/// generation — so every address of one subnet stays in one shard
/// (locality for subnet inference), while the mixer spreads clustered
/// prefix allocations evenly across shards. The function is pure and
/// versioned by the snapshot format: two processes with the same shard
/// count route identically, which is what makes per-shard merge of
/// independently built sets sound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRoute {
    shards: u32,
}

impl ShardRoute {
    /// A route over `shards` shards (at least 1).
    pub fn new(shards: usize) -> ShardRoute {
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

/// A [`TraceSet`] partitioned into independent per-shard stores by the
/// fixed [`ShardRoute`]. See the module docs for the contracts.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedTraceSet {
    route: ShardRoute,
    /// One `TraceSet` per shard, all sharing one interner; shard `s`
    /// holds exactly the targets with `route.shard_of(t) == s`.
    /// `rewritten_dropped` (a set-level counter with no per-target
    /// home) lives on shard 0 by convention.
    shards: Vec<TraceSet>,
}

impl ShardedTraceSet {
    /// Partitions `ts` into `shards` shards that share its table, each
    /// trace's cells copied verbatim. Shard target lists stay sorted
    /// because a subsequence of a sorted list is sorted.
    pub fn from_set(ts: &TraceSet, shards: usize) -> ShardedTraceSet {
        let route = ShardRoute::new(shards);
        let n = route.shards as usize;
        // Bucket trace indices first so each shard's build is a single
        // in-order walk (and can fan out if ever needed).
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, &t) in ts.targets.iter().enumerate() {
            buckets[route.shard_of(t)].push(i);
        }
        let shards = pool_map(n, n > 1, |s| {
            // Every column is reserved at its final length, summed from
            // the bucket's traces, so none grows by doubling.
            let bucket = &buckets[s];
            let (n_hops, n_unreach) = bucket.iter().fold((0usize, 0usize), |(h, u), &i| {
                (h + ts.hop_range(i).len(), u + ts.unreach_range(i).len())
            });
            let mut out = TraceSet::reserved(
                ts.vantage.clone(),
                ts.target_set.clone(),
                if s == 0 { ts.rewritten_dropped } else { 0 },
                Arc::clone(&ts.interner),
                [bucket.len(), n_hops, n_unreach],
            );
            for &i in bucket {
                out.push_trace(ts, i, None);
            }
            out
        });
        ShardedTraceSet { route, shards }
    }

    /// Reassembles a sharded set from already-partitioned shards (the
    /// snapshot reader's path). The caller guarantees each shard's
    /// targets route to it, and that every shard shares one table.
    pub(crate) fn from_parts(route: ShardRoute, shards: Vec<TraceSet>) -> ShardedTraceSet {
        debug_assert_eq!(route.shards as usize, shards.len());
        ShardedTraceSet { route, shards }
    }

    /// The routing function this set was partitioned by.
    pub fn route(&self) -> ShardRoute {
        self.route
    }

    /// The address table every shard shares.
    pub(crate) fn table(&self) -> &Arc<AddrInterner> {
        &self.shards[0].interner
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard stores, in shard order.
    pub fn shards(&self) -> &[TraceSet] {
        &self.shards
    }

    /// One shard's store.
    pub fn shard(&self, s: usize) -> &TraceSet {
        &self.shards[s]
    }

    /// Total traces across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when no shard holds a trace.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// The trace probed toward `target`, routed straight to its shard
    /// (one hash, one binary search — no cross-shard scan).
    pub fn get(&self, target: Ipv6Addr) -> Option<TraceView<'_>> {
        self.shards[self.route.shard_of(target)].get(target)
    }

    /// Merges many sharded sets: the union of their tables is built
    /// once, and shard `s` of the result is the owner walk of
    /// [`TraceSet::merge_all`] over every input's shard `s` against it,
    /// all shards in parallel on the work-queue pool. Sound because the
    /// shared route puts any given target in the same shard of every
    /// input, so a shard's merge sees exactly the conflicts the flat
    /// merge would: this equals sharding the flat `merge_all` of the
    /// unsharded inputs, ids included. Panics on mixed routes —
    /// re-shard first.
    pub fn merge_all(sets: &[ShardedTraceSet]) -> ShardedTraceSet {
        match sets {
            [] => return ShardedTraceSet::from_set(&TraceSet::default(), 1),
            [one] => return one.clone(),
            _ => {}
        }
        let route = sets[0].route;
        assert!(
            sets.iter().all(|s| s.route == route),
            "cannot merge sharded sets with different routes"
        );
        let mut table = Arc::clone(sets[0].table());
        let id_remaps = union(&mut table, sets.iter().map(|s| s.table()));
        let shards = pool_map(route.shards as usize, route.shards > 1, |s| {
            let refs: Vec<&TraceSet> = sets.iter().map(|set| &set.shards[s]).collect();
            TraceSet::merge_walk(&refs, Arc::clone(&table), &id_remaps)
        });
        ShardedTraceSet { route, shards }
    }

    /// Folds the shards back into one flat [`TraceSet`] sharing the
    /// store's table: `merge_all` in shard order, which over disjoint
    /// targets and one table concatenates the columns. Exactly
    /// `from_set(&ts, k).to_trace_set() == ts`.
    pub fn to_trace_set(&self) -> TraceSet {
        TraceSet::merge_all(&self.shards)
    }

    /// [`TraceSet::discovery_delta`] over the store's one table.
    pub fn discovery_delta(&self, seen: &mut AddrSet) -> Vec<Ipv6Addr> {
        self.shards[0].discovery_delta(seen)
    }

    /// All distinct interface words across shards, ascending: the words
    /// of the one table that some shard's hop cell names.
    pub fn interface_words(&self) -> Vec<u128> {
        interface_words(self.table(), self.shards.iter().map(|s| &s.hop_ids[..]))
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
            for (s, shard) in sharded.shards().iter().enumerate() {
                for &t in shard.targets() {
                    assert_eq!(sharded.route().shard_of(t), s);
                }
            }
        }
    }

    #[test]
    fn every_shard_column_is_reserved_at_its_final_length() {
        let ts = sample_set();
        for shard in ShardedTraceSet::from_set(&ts, 8).shards() {
            assert_eq!(shard.spare_capacity(), [0; 8]);
        }
    }

    #[test]
    fn get_routes_to_the_right_shard() {
        let ts = sample_set();
        let sharded = ShardedTraceSet::from_set(&ts, 4);
        for view in ts.iter() {
            let got = sharded.get(view.target()).expect("target present");
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
