//! Property suite pinning the sharded columnar store
//! ([`ShardedTraceSet`]) to its flat reference: sharding is a pure
//! re-partitioning of the columns, so every whole-store operation —
//! flatten, merge, canonicalize, discovery — must agree bit-for-bit
//! with the unsharded [`TraceSet`] path on any fuzzed record stream.

use analysis::{ShardRoute, ShardedTraceSet, TraceSet};
use proptest::prelude::*;
use std::net::Ipv6Addr;
use v6packet::icmp6::DestUnreachCode;
use yarrp6::addrset::AddrSet;
use yarrp6::{ProbeLog, ResponseKind, ResponseRecord};

/// Decodes one synthetic record from two drawn words — the same
/// generator shape as the merge property suite, with the target's
/// low bits spread over several /64 prefixes so the prefix router
/// actually fans out.
fn synth_record(w: u64, recv_us: u64, allow_tamper: bool) -> ResponseRecord {
    let prefix = (w >> 40) & 0x7; // one of 8 /64s
    let target =
        Ipv6Addr::from((0x2001_0db8_u128 << 96) | (prefix as u128) << 64 | (w & 0x1f) as u128);
    let responder = Ipv6Addr::from((0x2001_0db8_ffff_u128 << 80) | ((w >> 5) & 0xf) as u128);
    let kind = match (w >> 9) % 8 {
        0..=2 => ResponseKind::TimeExceeded,
        3 => ResponseKind::DestUnreachable(DestUnreachCode::NoRoute),
        4 => ResponseKind::DestUnreachable(DestUnreachCode::AdminProhibited),
        5 => ResponseKind::DestUnreachable(DestUnreachCode::PortUnreachable),
        6 => ResponseKind::EchoReply,
        _ => ResponseKind::Tcp,
    };
    let probe_ttl = match (w >> 12) % 10 {
        0 => None,
        _ => Some(((w >> 16) % 20) as u8),
    };
    ResponseRecord {
        target,
        responder,
        kind,
        probe_ttl,
        rtt_us: Some(w % 10_000),
        recv_us,
        target_cksum_ok: !allow_tamper || !(w >> 21).is_multiple_of(10),
    }
}

fn set_of(draws: &[(u64, u64)], allow_tamper: bool) -> TraceSet {
    let records: Vec<ResponseRecord> = draws
        .iter()
        .map(|&(w, recv)| synth_record(w, recv, allow_tamper))
        .collect();
    set_of_records(records)
}

fn set_of_records(records: Vec<ResponseRecord>) -> TraceSet {
    let mut log = ProbeLog {
        vantage: "V".into(),
        target_set: "S".into(),
        records,
        ..Default::default()
    };
    log.sort_by_recv();
    TraceSet::from_log(&log)
}

/// A set from `draws` whose responders are its own, disjoint from
/// `set_of`'s: merged after a `set_of` set, a trace it loses to the
/// dedup usually leaves a word no surviving cell references.
fn losing_side(draws: &[(u64, u64)]) -> TraceSet {
    set_of_records(
        draws
            .iter()
            .map(|&(w, recv)| {
                let mut r = synth_record(w, recv, true);
                r.responder = Ipv6Addr::from(u128::from(r.responder) | 1 << 32);
                r
            })
            .collect(),
    )
}

proptest! {
    /// The central contract: shard any set, merge the shards back
    /// down, canonicalize — bit-identical to the canonical flat set,
    /// for every shard count. `from_set` → `to_trace_set` is a clean
    /// round trip.
    #[test]
    fn shard_then_flatten_is_bit_identical(
        draws in prop::collection::vec((any::<u64>(), 0u64..50_000), 0..500),
        k in 1usize..9,
    ) {
        let flat = set_of(&draws, true);
        let sharded = ShardedTraceSet::from_set(&flat, k);
        let back = sharded.to_trace_set().canonical();
        let want = flat.canonical();
        prop_assert!(back == want, "{k}-shard round trip diverged");
        // Every trace landed in the shard its target routes to.
        let route = ShardRoute::new(k);
        for s in 0..k {
            for &t in sharded.shard(s).targets() {
                prop_assert_eq!(route.shard_of(t), s, "target {} misrouted", t);
            }
        }
    }

    /// Sharded merge_all distributes over the flat one: merging k
    /// sharded stores shard-by-shard then flattening equals flat
    /// merge_all of the flattened inputs.
    #[test]
    fn sharded_merge_all_matches_flat(
        a in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        b in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        c in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        k in 1usize..6,
    ) {
        let flats = [set_of(&a, true), set_of(&b, true), set_of(&c, true)];
        let shardeds: Vec<ShardedTraceSet> =
            flats.iter().map(|f| ShardedTraceSet::from_set(f, k)).collect();
        let merged_sharded = ShardedTraceSet::merge_all(&shardeds).to_trace_set().canonical();
        let merged_flat = TraceSet::merge_all(&flats).canonical();
        prop_assert!(merged_sharded == merged_flat, "sharded merge_all diverged at k={k}");
    }

    /// The sharded store's merge is **bit-identical** per shard — not
    /// merely canonical-equal — to flat `merge_all` (pinned to the
    /// pairwise fold in `merge_props`) over the same per-shard inputs:
    /// interner id assignment, column layout, names, everything.
    #[test]
    fn kway_shard_merge_is_bit_identical_to_pairwise_fold(
        a in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        b in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        c in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        d in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        k in 1usize..6,
    ) {
        let flats = [set_of(&a, true), set_of(&b, true), set_of(&c, true), set_of(&d, true)];
        let shardeds: Vec<ShardedTraceSet> =
            flats.iter().map(|f| ShardedTraceSet::from_set(f, k)).collect();
        let merged = ShardedTraceSet::merge_all(&shardeds);
        for s in 0..k {
            let shards: Vec<TraceSet> = shardeds.iter().map(|set| set.shard(s)).collect();
            let fold = TraceSet::merge_all(&shards);
            prop_assert!(
                merged.shard(s) == fold,
                "merge of shard {s} is not bit-identical to flat merge_all (k={k})"
            );
        }
    }

    /// Every shard shares its set's table, so sharding copies each
    /// trace's cells verbatim, ids included, and keeps every word of the
    /// table — a merge's dedup losers, referenced by no surviving cell,
    /// too — in the flat set's id order.
    #[test]
    fn shards_copy_ids_verbatim_and_keep_every_word(
        a in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        b in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        k in 1usize..6,
    ) {
        let flat = TraceSet::merge_all(&[set_of(&a, true), losing_side(&b)]);
        let sharded = ShardedTraceSet::from_set(&flat, k);
        for s in 0..k {
            let shard = sharded.shard(s);
            prop_assert_eq!(shard.interner().words(), flat.interner().words(), "shard {}", s);
            for t in shard.iter() {
                let want = flat.get(t.target()).expect("a shard's target is the set's");
                prop_assert_eq!(t.hop_cells(), want.hop_cells());
                prop_assert_eq!(t.unreachable_cells(), want.unreachable_cells());
            }
        }
    }

    /// The exact round trip: sharding then flattening returns the set,
    /// interner ids and all, with no canonical form on either side —
    /// for one campaign's set and for a merge that left words no trace
    /// references. So does merging the built shards, as a snapshot
    /// read does.
    #[test]
    fn shard_then_flatten_is_exact(
        a in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        b in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        k in 1usize..9,
    ) {
        let one = set_of(&a, true);
        let merged = TraceSet::merge_all(&[one.clone(), losing_side(&b)]);
        for ts in [one, merged] {
            let store = ShardedTraceSet::from_set(&ts, k);
            prop_assert!(store.to_trace_set() == ts, "{k}-shard round trip is not exact");
            let shards: Vec<TraceSet> = (0..k).map(|s| store.shard(s)).collect();
            prop_assert!(TraceSet::merge_all(&shards) == ts, "{k} shards merge to another set");
        }
    }

    /// The exact merge: merging sharded sets equals sharding the flat
    /// merge of the sets, interner ids and all, with no canonical form
    /// on either side.
    #[test]
    fn sharded_merge_is_sharding_the_flat_merge(
        a in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        b in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        k in 1usize..6,
    ) {
        let (a, b) = (set_of(&a, true), losing_side(&b));
        let sharded = ShardedTraceSet::merge_all(&[
            ShardedTraceSet::from_set(&a, k),
            ShardedTraceSet::from_set(&b, k),
        ]);
        let flat = ShardedTraceSet::from_set(&TraceSet::merge_all([&a, &b]), k);
        prop_assert!(sharded == flat, "sharded merge diverged from the flat one at k={k}");
    }

    /// Discovery is partition-independent: the sharded store's
    /// interface union and discovery delta equal the flat set's.
    #[test]
    fn discovery_is_partition_independent(
        draws in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        k in 1usize..6,
    ) {
        let flat = set_of(&draws, true);
        let sharded = ShardedTraceSet::from_set(&flat, k);
        let mut w = flat.interface_words();
        w.sort_unstable();
        prop_assert_eq!(sharded.interface_words(), w);
        let mut seen_flat = AddrSet::new();
        let mut seen_sharded = AddrSet::new();
        let mut from_flat = flat.discovery_delta(&mut seen_flat);
        let mut from_sharded = sharded.discovery_delta(&mut seen_sharded);
        from_flat.sort_unstable();
        from_sharded.sort_unstable();
        prop_assert_eq!(from_flat, from_sharded);
        // Nothing is new against a seen-set that already holds it all.
        prop_assert!(sharded.discovery_delta(&mut seen_sharded).is_empty());
    }
}
