//! Property suite pinning the sharded store ([`ShardedTraceSet`]: one
//! set and the [`ShardRoute`] a delta run reopens it by) to its flat
//! reference: `from_set` and `to_trace_set` round-trip a set exactly,
//! and a store's merge is the flat [`TraceSet::merge_all`] of its sets,
//! bit for bit, on any fuzzed record stream. The route sends every
//! address of one /64 to one shard.

use analysis::{ShardRoute, ShardedTraceSet, TraceSet};
use proptest::prelude::*;
use std::net::Ipv6Addr;
use testkit::oracle::{merge_fold, Merged};
use v6packet::icmp6::DestUnreachCode;
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
    /// The central contract: a store's set, flattened and canonicalized,
    /// is bit-identical to the canonical flat set for every shard count,
    /// and the route keeps each /64 in one shard.
    #[test]
    fn shard_then_flatten_is_bit_identical(
        draws in prop::collection::vec((any::<u64>(), 0u64..50_000), 0..500),
        k in 1usize..9,
    ) {
        let flat = set_of(&draws, true);
        let sharded = ShardedTraceSet::from_set(&flat, k);
        prop_assert_eq!(sharded.n_shards(), k);
        let back = sharded.to_trace_set().canonical();
        let want = flat.clone().canonical();
        prop_assert!(back == want, "{k}-shard round trip diverged");
        let route = ShardRoute::new(k);
        for &t in flat.targets() {
            let s = route.shard_of(t);
            prop_assert!(s < k, "target {} routed past {} shards", t, k);
            let other_iid = Ipv6Addr::from(u128::from(t) ^ 0xffff_ffff);
            prop_assert_eq!(route.shard_of(other_iid), s, "the /64 of {} straddles shards", t);
        }
    }

    /// Sharded merge_all distributes over the flat one: merging k
    /// sharded stores then flattening equals flat merge_all of the
    /// flattened inputs.
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

    /// The store's k-way merge is **bit-identical** — not merely
    /// canonical-equal — to the pairwise fold of the two-set union
    /// keyed by address (`testkit::oracle::merge_fold`): interner id
    /// assignment, column layout, names, everything; and it keeps the
    /// route.
    #[test]
    fn kway_shard_merge_is_bit_identical_to_pairwise_fold(
        a in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        b in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        c in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        d in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        k in 1usize..6,
    ) {
        let flats = [set_of(&a, true), set_of(&b, true), set_of(&c, true), losing_side(&d)];
        let shardeds: Vec<ShardedTraceSet> =
            flats.iter().map(|f| ShardedTraceSet::from_set(f, k)).collect();
        let merged = ShardedTraceSet::merge_all(&shardeds);
        prop_assert_eq!(merged.n_shards(), k);
        prop_assert!(
            Merged::of(&merged.to_trace_set()) == merge_fold(&flats),
            "the store's merge is not the pairwise fold (k={k})"
        );
    }

    /// The exact round trip: a store's set is the set it was made of,
    /// interner ids and all, with no canonical form on either side —
    /// for one campaign's set and for a merge that left words no trace
    /// references.
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
}
