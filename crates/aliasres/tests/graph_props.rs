//! The router-graph builder's contracts, pinned:
//!
//! * **order independence** — union-find alias merging yields the same
//!   partition (and the same canonical graph) whatever order groups
//!   and trace sets arrive in, even though the internal parent arrays
//!   differ;
//! * **the oracle** — for any ingest history, `builder.snapshot()` is
//!   bit-identical to the address-keyed
//!   `testkit::oracle::build_reference(&sets, &groups).canonical()`,
//!   which merges groups that share a member into one class — on
//!   random inputs, on real campaign output over every probe protocol,
//!   across vantages, and on quarantined sets;
//! * **one builder** — `RouterGraph::build` and `build_multi` are the
//!   builder's snapshot, so they meet the same oracle, and an interface
//!   listed in several groups is in exactly one node;
//! * **the rebuild** — a fresh builder that ingests the same sets and
//!   merges `alias_groups()` has the same snapshot, counts and groups
//!   (what a checkpoint restores the loop's builder from).

use aliasres::{RouterGraph, RouterGraphBuilder};
use analysis::{quarantine_all, CampaignRunner, QuarantineConfig, TraceSet};
use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use proptest::test_runner::TestRng;
use simnet::config::TopologyConfig;
use simnet::generate::generate;
use std::collections::BTreeSet;
use std::net::Ipv6Addr;
use std::sync::Arc;
use targets::TargetSet;
use testkit::oracle::{build_reference, Trace};
use testkit::trace_set;
use v6packet::probe::Protocol;
use yarrp6::YarrpConfig;

/// A small closed address universe keeps collisions (and therefore
/// links, merges and node fusions) frequent at proptest scale.
fn addr(i: u8) -> Ipv6Addr {
    Ipv6Addr::from(0x2001_0db8_0000_0000_0000_0000_0000_0000u128 + i as u128)
}

fn trace_from(target: u8, hops: &[(u8, u8)]) -> Trace {
    let mut t = Trace::new(addr(target));
    for &(ttl, h) in hops {
        t.hops.insert(ttl.max(1), addr(h));
    }
    t
}

/// One random trace set: 1..6 traces, each with 1..6 hops drawn from
/// the 32-address universe at TTLs 1..12.
fn gen_trace_set(rng: &mut TestRng) -> TraceSet {
    let n = 1 + (rng.next_u64() % 5) as usize;
    let traces = (0..n)
        .map(|_| {
            let target = rng.next_u64() as u8;
            let nh = 1 + (rng.next_u64() % 5) as usize;
            let hops: Vec<(u8, u8)> = (0..nh)
                .map(|_| (1 + (rng.next_u64() % 11) as u8, (rng.next_u64() % 32) as u8))
                .collect();
            trace_from(target, &hops)
        })
        .collect::<Vec<_>>();
    trace_set(traces)
}

fn trace_set_strategy() -> impl Strategy<Value = TraceSet> {
    FnStrategy(gen_trace_set)
}

fn sets_strategy() -> impl Strategy<Value = Vec<TraceSet>> {
    FnStrategy(|rng: &mut TestRng| {
        let n = 1 + (rng.next_u64() % 3) as usize;
        (0..n).map(|_| gen_trace_set(rng)).collect()
    })
}

/// 0..5 alias groups of 2..4 members each, over the same universe
/// (overlapping groups exercise transitive union).
fn groups_strategy() -> impl Strategy<Value = Vec<Vec<Ipv6Addr>>> {
    FnStrategy(|rng: &mut TestRng| {
        let n = (rng.next_u64() % 5) as usize;
        (0..n)
            .map(|_| {
                let m = 2 + (rng.next_u64() % 3) as usize;
                (0..m).map(|_| addr((rng.next_u64() % 32) as u8)).collect()
            })
            .collect()
    })
}

/// The golden form: the address-keyed oracle over the same
/// per-campaign sets and the same groups, canonicalized.
fn golden(sets: &[&TraceSet], groups: &[Vec<Ipv6Addr>]) -> RouterGraph {
    build_reference(sets, groups).canonical()
}

proptest! {
    /// Merging the same alias groups in any order produces the same
    /// partition and the same canonical snapshot.
    #[test]
    fn alias_merge_is_order_independent(
        set in trace_set_strategy(),
        groups in groups_strategy(),
    ) {
        let mut fwd = RouterGraphBuilder::new();
        fwd.ingest(&set);
        for g in &groups {
            fwd.merge_alias_group(g);
        }
        let mut rev = RouterGraphBuilder::new();
        rev.ingest(&set);
        for g in groups.iter().rev() {
            let flipped: Vec<Ipv6Addr> = g.iter().rev().copied().collect();
            rev.merge_alias_group(&flipped);
        }
        prop_assert_eq!(fwd.alias_groups(), rev.alias_groups());
        prop_assert_eq!(fwd.snapshot(), rev.snapshot());
    }

    /// Interleaving ingests and merges arbitrarily still matches the
    /// all-at-once oracle.
    #[test]
    fn incremental_matches_batch_on_random_input(
        sets in sets_strategy(),
        groups in groups_strategy(),
    ) {
        let mut b = RouterGraphBuilder::new();
        // Interleave: one set, then one group, until both run dry —
        // the adaptive loop's actual shape.
        let mut gi = groups.iter();
        for set in &sets {
            b.ingest(set);
            if let Some(g) = gi.next() {
                b.merge_alias_group(g);
            }
        }
        for g in gi {
            b.merge_alias_group(g);
        }
        let refs: Vec<&TraceSet> = sets.iter().collect();
        prop_assert_eq!(b.snapshot(), golden(&refs, &groups));
    }

    /// Nodes, links and the unobserved tally of `build_multi` and
    /// `build` equal the address-keyed oracle's, canonicalized: over
    /// 1-4 sets sharing addresses, with single-member groups, groups
    /// that overlap each other and members no trace ever showed.
    #[test]
    fn build_multi_matches_the_address_keyed_oracle(
        sets in FnStrategy(|rng: &mut TestRng| {
            let n = 1 + (rng.next_u64() % 4) as usize;
            (0..n).map(|_| gen_trace_set(rng)).collect::<Vec<TraceSet>>()
        }),
        groups in FnStrategy(|rng: &mut TestRng| {
            // Hops come from addresses 0..32: a quarter of the members
            // drawn here are never observed.
            let n = (rng.next_u64() % 5) as usize;
            (0..n)
                .map(|_| {
                    let m = 1 + (rng.next_u64() % 4) as usize;
                    (0..m).map(|_| addr((rng.next_u64() % 40) as u8)).collect()
                })
                .collect::<Vec<Vec<Ipv6Addr>>>()
        }),
    ) {
        let refs: Vec<&TraceSet> = sets.iter().collect();
        prop_assert_eq!(RouterGraph::build_multi(&refs, &groups), golden(&refs, &groups));
        prop_assert_eq!(RouterGraph::build(&sets[0], &groups), golden(&refs[..1], &groups));
    }

    /// Groups that overlap or repeat a member, over a universe of
    /// eight addresses so most do: every interface is in exactly one
    /// node, and `build` is the builder's snapshot.
    #[test]
    fn overlapping_groups_put_every_interface_in_one_node(
        set in trace_set_strategy(),
        groups in FnStrategy(|rng: &mut TestRng| {
            let n = 1 + (rng.next_u64() % 5) as usize;
            (0..n)
                .map(|_| {
                    let m = 1 + (rng.next_u64() % 4) as usize;
                    (0..m).map(|_| addr((rng.next_u64() % 8) as u8)).collect()
                })
                .collect::<Vec<Vec<Ipv6Addr>>>()
        }),
    ) {
        let g = RouterGraph::build(&set, &groups);
        let mut members: Vec<Ipv6Addr> = g.nodes.iter().flatten().copied().collect();
        let listed = members.len();
        members.sort_unstable();
        members.dedup();
        prop_assert_eq!(members.len(), listed, "an interface in two nodes: {:?}", g.nodes);
        let mut b = RouterGraphBuilder::new();
        b.ingest(&set);
        for group in &groups {
            b.merge_alias_group(group);
        }
        prop_assert_eq!(g, b.snapshot());
    }

    /// Ingesting the same sets in a different order changes nothing
    /// canonical (links and observations are set-unions).
    #[test]
    fn ingest_order_is_canonical_noise(
        sets in sets_strategy(),
        groups in groups_strategy(),
    ) {
        let mut fwd = RouterGraphBuilder::new();
        for set in &sets {
            fwd.ingest(set);
        }
        let mut rev = RouterGraphBuilder::new();
        for set in sets.iter().rev() {
            rev.ingest(set);
        }
        for g in &groups {
            fwd.merge_alias_group(g);
            rev.merge_alias_group(g);
        }
        prop_assert_eq!(fwd.snapshot(), rev.snapshot());
    }

    /// The builder's router count is the rendered graph's, after every
    /// step of an interleaved history — groups of interfaces no trace
    /// ever showed included — and a builder rebuilt from the same sets
    /// and its alias groups renders and counts what it does.
    #[test]
    fn observed_node_count_matches_the_snapshot(
        sets in sets_strategy(),
        groups in groups_strategy(),
    ) {
        let mut b = RouterGraphBuilder::new();
        let check = |b: &RouterGraphBuilder| {
            prop_assert_eq!(b.observed_node_count(), b.snapshot().observed_node_count());
            Ok(())
        };
        check(&b)?;
        // Outside the trace universe: a node that must not be counted
        // until a merge ties it to an observed interface.
        b.merge_alias_group(&[addr(200), addr(201)]);
        check(&b)?;
        let mut gi = groups.iter();
        for set in &sets {
            b.ingest(set);
            check(&b)?;
            if let Some(g) = gi.next() {
                b.merge_alias_group(g);
                check(&b)?;
            }
        }
        for g in gi {
            b.merge_alias_group(g);
            check(&b)?;
        }
        b.merge_alias_group(&[addr(201), addr(0)]);
        check(&b)?;
        // The rebuild a checkpoint makes: the same sets, then the
        // builder's own partition.
        let mut rebuilt = RouterGraphBuilder::new();
        for set in &sets {
            rebuilt.ingest(set);
        }
        for g in b.alias_groups() {
            rebuilt.merge_alias_group(&g);
        }
        prop_assert_eq!(rebuilt.snapshot(), b.snapshot());
        prop_assert_eq!(rebuilt.observed_interface_count(), b.observed_interface_count());
        prop_assert_eq!(rebuilt.observed_node_count(), b.observed_node_count());
        prop_assert_eq!(rebuilt.alias_groups(), b.alias_groups());
    }
}

#[test]
fn a_member_of_two_groups_joins_them_into_one_router() {
    let set = trace_set(vec![trace_from(9, &[(1, 1), (2, 2), (3, 3)])]);
    let groups = vec![vec![addr(2), addr(50)], vec![addr(2), addr(3)]];
    let g = RouterGraph::build_multi(&[&set], &groups);
    assert_eq!(g, golden(&[&set], &groups));
    // The shared interface ties both groups into one observed router;
    // its link to 3 is inside that node, so 1 links to it once.
    assert_eq!(
        g.nodes,
        vec![vec![addr(1)], vec![addr(2), addr(3), addr(50)]]
    );
    assert_eq!(g.links, BTreeSet::from([(0, 1)]));
    assert_eq!(g.unobserved_alias_nodes, 0);
}

/// One streamed campaign's finished trace set.
fn campaign_traces(
    topo: &Arc<simnet::Topology>,
    vantage: u8,
    set: &TargetSet,
    cfg: &YarrpConfig,
) -> TraceSet {
    CampaignRunner::new(topo)
        .targets(set)
        .vantage(vantage)
        .config(*cfg)
        .run()
        .expect("clean campaign completes")
        .runs
        .remove(0)
        .traces
}

/// One real campaign per protocol: the incremental graph over streamed
/// prober output (not hand-built traces) must match the oracle,
/// with the topology's ground-truth alias groups merged in.
#[test]
fn campaign_golden_all_protocols() {
    let topo = Arc::new(generate(TopologyConfig::tiny(42)));
    let addrs: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(80).collect();
    let set = TargetSet::new("alias-golden", addrs);
    let aliases: Vec<Vec<Ipv6Addr>> = topo.ground_truth_aliases().into_iter().take(16).collect();
    for protocol in [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp] {
        let cfg = YarrpConfig {
            protocol,
            ..YarrpConfig::default()
        };
        let traces = campaign_traces(&topo, 0, &set, &cfg);
        let mut b = RouterGraphBuilder::new();
        b.ingest(&traces);
        for g in &aliases {
            b.merge_alias_group(g);
        }
        assert_eq!(
            b.snapshot(),
            golden(&[&traces], &aliases),
            "protocol {protocol:?}"
        );
    }
}

/// Multi-vantage: per-campaign ingest across two vantages equals the
/// oracle over both sets — and the two ingest orders agree.
#[test]
fn campaign_golden_multi_vantage() {
    let topo = Arc::new(generate(TopologyConfig::tiny(42)));
    let addrs: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(80).collect();
    let set = TargetSet::new("alias-golden", addrs);
    let cfg = YarrpConfig::default();
    let t0 = campaign_traces(&topo, 0, &set, &cfg);
    let t1 = campaign_traces(&topo, 1, &set, &cfg);
    let aliases: Vec<Vec<Ipv6Addr>> = topo.ground_truth_aliases().into_iter().take(16).collect();

    let mut b = RouterGraphBuilder::new();
    b.ingest(&t0);
    b.ingest(&t1);
    for g in &aliases {
        b.merge_alias_group(g);
    }
    let want = golden(&[&t0, &t1], &aliases);
    assert_eq!(b.snapshot(), want);

    let mut rev = RouterGraphBuilder::new();
    rev.ingest(&t1);
    rev.ingest(&t0);
    for g in &aliases {
        rev.merge_alias_group(g);
    }
    assert_eq!(rev.snapshot(), want, "vantage ingest order must not matter");
}

/// Quarantine-scrubbed campaign output flows through the same
/// equivalence: what the adaptive loop ingests with
/// `quarantine_feedback` on still matches the oracle over the scrubbed
/// sets.
#[test]
fn campaign_golden_quarantined_input() {
    let topo = Arc::new(generate(TopologyConfig::tiny(42)));
    let addrs: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(80).collect();
    let set = TargetSet::new("alias-golden", addrs);
    let cfg = YarrpConfig::default();
    let t0 = campaign_traces(&topo, 0, &set, &cfg);
    let t1 = campaign_traces(&topo, 1, &set, &cfg);
    let (scrubbed, _) = quarantine_all(&[&t0, &t1], &QuarantineConfig::default());
    let aliases: Vec<Vec<Ipv6Addr>> = topo.ground_truth_aliases().into_iter().take(16).collect();

    let mut b = RouterGraphBuilder::new();
    for ts in &scrubbed {
        b.ingest(ts);
    }
    for g in &aliases {
        b.merge_alias_group(g);
    }
    let refs: Vec<&TraceSet> = scrubbed.iter().map(|c| &**c).collect();
    assert_eq!(b.snapshot(), golden(&refs, &aliases));
}
