//! [`sibling_candidates`] pinned to the map-of-sets derivation it
//! replaced: one heap-allocated `BTreeSet` per `/64` of the whole trace
//! record and per `(target /64, TTL)` bucket of the round, the literal
//! form of the two sibling rules, keyed by address. The merge-join —
//! handed the record's one table instead of the record, and the round's
//! sets rebased onto it — must return the same sorted list on any
//! input: vantages sharing targets, several targets in one /64, sets
//! with no traces, hop cells repeated across shards, everything already
//! tested, nothing tested yet.

use aliasres::sibling_candidates;
use analysis::{AddrInterner, TraceSet};
use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use proptest::test_runner::TestRng;
use std::net::Ipv6Addr;
use std::sync::Arc;
use testkit::oracle::Trace;
use testkit::trace_set;
use yarrp6::addrset::AddrSet;

#[cfg(test)]
mod oracle {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The derivation as the adaptive loop carried it before the
    /// merge-join: every bucket materialized as its own set.
    pub fn sibling_candidates(
        history: &[TraceSet],
        round: &[TraceSet],
        tested: &AddrSet,
    ) -> Vec<Ipv6Addr> {
        let mut fresh = AddrSet::new();
        for ts in round {
            for &w in ts.interner().words() {
                let a = Ipv6Addr::from(w);
                if !tested.contains(a) {
                    fresh.insert(a);
                }
            }
        }
        let mut cand: BTreeSet<Ipv6Addr> = BTreeSet::new();
        if !fresh.is_empty() {
            let mut by64: BTreeMap<u64, BTreeSet<Ipv6Addr>> = BTreeMap::new();
            for ts in history {
                for &w in ts.interner().words() {
                    by64.entry((w >> 64) as u64)
                        .or_default()
                        .insert(Ipv6Addr::from(w));
                }
            }
            for bucket in by64.values() {
                if bucket.len() >= 2 && bucket.iter().any(|&a| fresh.contains(a)) {
                    cand.extend(bucket.iter().copied());
                }
            }
            let mut byhop: BTreeMap<(u64, u8), BTreeSet<Ipv6Addr>> = BTreeMap::new();
            for ts in round {
                let words = ts.interner().words();
                for tv in ts.iter() {
                    let t64 = (u128::from(tv.target()) >> 64) as u64;
                    for (ttl, aid) in tv.hop_cells() {
                        byhop
                            .entry((t64, ttl))
                            .or_default()
                            .insert(Ipv6Addr::from(words[aid as usize]));
                    }
                }
            }
            for bucket in byhop.values() {
                if bucket.len() >= 2 && bucket.iter().any(|&a| fresh.contains(a)) {
                    cand.extend(bucket.iter().copied());
                }
            }
        }
        cand.into_iter().collect()
    }
}

/// Interface `i` of /64 number `p`. Twelve /64s of two interfaces: a
/// /64 bucket is as often one address heard by several campaigns (not
/// a pair) as two.
fn iface(p: u64, i: u64) -> Ipv6Addr {
    Ipv6Addr::from(((0x2001_0db8_0000_0000u128 + p as u128) << 64) + 1 + i as u128)
}

const IFACE_64S: u64 = 12;
const IFACES_PER_64: u64 = 2;

/// Target `i` of target-/64 number `p` (disjoint from the interfaces).
fn target(p: u64, i: u64) -> Ipv6Addr {
    Ipv6Addr::from(((0x2001_0db8_00aa_0000u128 + p as u128) << 64) + 1 + i as u128)
}

/// Three draws in eight land on one of two hot interfaces in different
/// /64s, so hop buckets repeat an address across traces and shards
/// without the /64 rule pairing it.
fn gen_iface(rng: &mut TestRng) -> Ipv6Addr {
    match rng.next_u64() % 8 {
        r @ 0..=2 => iface(r % 2, 0),
        _ => iface(rng.next_u64() % IFACE_64S, rng.next_u64() % IFACES_PER_64),
    }
}

/// 0..5 traces (an empty set is a campaign that heard nothing) toward
/// 2 target /64s of 3 targets each, 0..4 hops at TTLs 1..3.
fn gen_set(rng: &mut TestRng) -> TraceSet {
    let n = (rng.next_u64() % 5) as usize;
    trace_set((0..n).map(|_| {
        let mut t = Trace::new(target(rng.next_u64() % 2, rng.next_u64() % 3));
        for _ in 0..rng.next_u64() % 4 {
            t.hops
                .insert(1 + (rng.next_u64() % 3) as u8, gen_iface(rng));
        }
        t
    }))
}

fn gen_sets(rng: &mut TestRng) -> Vec<TraceSet> {
    (0..rng.next_u64() % 5).map(|_| gen_set(rng)).collect()
}

#[derive(Debug)]
struct Case {
    /// The record's sets before the round.
    history: Vec<TraceSet>,
    round: Vec<TraceSet>,
    /// Several tested sets judged over the same record: everything
    /// (nothing is fresh), nothing (everything is), random subsets.
    tested: Vec<Vec<Ipv6Addr>>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    FnStrategy(|rng: &mut TestRng| {
        let round = gen_sets(rng);
        // Earlier rounds, or none: without them the /64 rule reads the
        // round's words alone.
        let history = match rng.next_u64() % 4 {
            0 => Vec::new(),
            _ => gen_sets(rng),
        };
        let mut tested = vec![
            (0..IFACE_64S * IFACES_PER_64)
                .map(|i| iface(i / IFACES_PER_64, i % IFACES_PER_64))
                .collect(),
            Vec::new(),
        ];
        for _ in 0..4 {
            tested.push((0..rng.next_u64() % 24).map(|_| gen_iface(rng)).collect());
        }
        Case {
            history,
            round,
            tested,
        }
    })
}

/// The loop's shape: the record's older sets and then the round's,
/// rebased onto one table (`Record::push_round`), the round's sets as
/// rebased, and its arrivals as a bitmap over the table's ids: the
/// words the round's sets' own tables held.
fn on_one_table(
    history: &[TraceSet],
    round: &[TraceSet],
) -> (Arc<AddrInterner>, Vec<TraceSet>, Vec<bool>) {
    let mut sets: Vec<TraceSet> = history.iter().chain(round).cloned().collect();
    let mut table = Arc::default();
    TraceSet::rebase(&mut table, &mut sets);
    let mut arrivals = vec![false; table.len()];
    for &w in round.iter().flat_map(|ts| ts.interner().words()) {
        let id = table
            .lookup(Ipv6Addr::from(w))
            .expect("the table holds the round");
        arrivals[id as usize] = true;
    }
    (table, sets.split_off(history.len()), arrivals)
}

fn addr_set(addrs: &[Ipv6Addr]) -> AddrSet {
    let mut set = AddrSet::new();
    for &a in addrs {
        set.insert(a);
    }
    set
}

proptest! {
    #[test]
    fn merge_join_matches_the_map_of_sets(case in case_strategy()) {
        let (table, rebased, arrivals) = on_one_table(&case.history, &case.round);
        let record = [&case.history[..], &case.round].concat();
        for tested in &case.tested {
            let tested = addr_set(tested);
            let got = sibling_candidates(&table, &rebased, &arrivals, &tested);
            prop_assert_eq!(&got, &oracle::sibling_candidates(&record, &case.round, &tested));
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
        }
    }
}

fn trace(t: Ipv6Addr, hops: &[(u8, Ipv6Addr)]) -> Trace {
    let mut tr = Trace::new(t);
    tr.hops.extend(hops.iter().copied());
    tr
}

#[test]
fn nothing_fresh_offers_nothing() {
    // A /64 pair and a hop pair, both adjudicated in an earlier round.
    let (a, b) = (iface(0, 0), iface(0, 1));
    let round = [trace_set([
        trace(target(0, 0), &[(3, a)]),
        trace(target(0, 1), &[(3, b)]),
    ])];
    let (table, round, arrivals) = on_one_table(&[], &round);
    let offer =
        |tested: &[Ipv6Addr]| sibling_candidates(&table, &round, &arrivals, &addr_set(tested));
    assert_eq!(offer(&[]), [a, b]);
    assert_eq!(offer(&[a]), [a, b]);
    assert!(offer(&[a, b]).is_empty());
}

#[test]
fn each_rule_reads_its_own_input() {
    // `old` is in the record only: its /64 sibling `new` arrives fresh
    // this round at a TTL nobody shares, so the hop rule is silent and
    // the /64 rule alone offers both.
    let (old, new, lone) = (iface(0, 0), iface(0, 1), iface(1, 0));
    let earlier = trace_set([trace(target(0, 0), &[(2, old)])]);
    let round = [trace_set([trace(target(1, 0), &[(3, new), (4, lone)])])];
    let tested = addr_set(&[old]);
    let (table, rebased, arrivals) = on_one_table(&[earlier], &round);
    assert_eq!(
        sibling_candidates(&table, &rebased, &arrivals, &tested),
        [old, new]
    );
    // Without the record only the round's words are on the table, and
    // neither rule pairs them.
    let (table, rebased, arrivals) = on_one_table(&[], &round);
    assert!(sibling_candidates(&table, &rebased, &arrivals, &tested).is_empty());
}

#[test]
fn one_address_seen_by_every_shard_is_not_a_pair() {
    // Three campaigns hear the same interface at the same TTL toward
    // one /64: one distinct address, no candidate — until a second
    // address joins the bucket from another target of that /64.
    let (a, b) = (iface(0, 0), iface(2, 1));
    let shard = |i| trace_set([trace(target(0, i), &[(3, a)])]);
    let none = AddrSet::new();
    let offer = |round: &[TraceSet]| {
        let (table, round, arrivals) = on_one_table(&[], round);
        sibling_candidates(&table, &round, &arrivals, &none)
    };
    assert!(offer(&[shard(0), shard(1), shard(0)]).is_empty());
    let joined = [shard(0), trace_set([trace(target(0, 2), &[(3, b)])])];
    assert_eq!(offer(&joined), [a, b]);
    // Same TTL, different target /64: different position, no pair.
    let apart = [shard(0), trace_set([trace(target(1, 2), &[(3, b)])])];
    assert!(offer(&apart).is_empty());
}

#[test]
#[should_panic(expected = "every round set reads the record's table")]
fn a_round_set_on_another_table_is_refused() {
    // The same words on a table of its own: ids that only look alike.
    let set = || trace_set([trace(target(0, 0), &[(3, iface(0, 0)), (4, iface(0, 1))])]);
    let (table, _, arrivals) = on_one_table(&[], &[set()]);
    sibling_candidates(&table, &[set()], &arrivals, &AddrSet::new());
}
