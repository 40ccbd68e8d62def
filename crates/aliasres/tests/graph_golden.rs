//! Golden equivalence for the router-level graph builder: the id-indexed
//! build must produce the address-keyed oracle's graph
//! (`testkit::oracle::build_reference`, canonicalized — its node
//! numbering follows its own walk), on real campaign traces with and
//! without alias merging, and on hand-built traces.

use aliasres::speedtrap::{resolve_aliases, AliasConfig};
use aliasres::{RouterGraph, RouterGraphBuilder};
use analysis::TraceSet;
use simnet::config::TopologyConfig;
use simnet::Engine;
use std::net::Ipv6Addr;
use std::sync::Arc;
use testkit::fixtures::trace;
use testkit::oracle::build_reference;
use testkit::trace_set as ts;
use yarrp6::campaign::run_campaign;
use yarrp6::YarrpConfig;

#[test]
fn campaign_graph_matches_reference() {
    let topo = Arc::new(simnet::generate::generate(TopologyConfig::tiny(31)));
    let addrs: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(300).collect();
    let set = targets::TargetSet::new("graph-golden", addrs);
    let res = run_campaign(&topo, 1, &set, &YarrpConfig::default());

    let col = TraceSet::from_log(&res.log);

    // Real alias groups from speedtrap over the discovered interfaces.
    let ifaces: Vec<Ipv6Addr> = res.log.interface_addrs().into_iter().collect();
    let mut engine = Engine::new(topo.clone());
    let aliases = resolve_aliases(
        &mut engine,
        1,
        &ifaces,
        &AliasConfig::default(),
        0,
        u64::MAX,
    );

    for groups in [&[][..], &aliases.groups[..]] {
        let colg = RouterGraph::build(&col, groups);
        let refg = build_reference(&[&col], groups);
        assert_eq!(colg.link_addr_pairs(), refg.link_addr_pairs());
        assert_eq!(colg.connected_node_count(), refg.connected_node_count());
        assert_eq!(colg.degree_histogram(), refg.degree_histogram());
        assert_eq!(colg, refg.canonical());
    }
}

#[test]
fn matches_reference_builder() {
    let t1 = trace("2001:db8::1", &[(1, "::a"), (2, "::b"), (4, "::c")]);
    let t2 = trace("2001:db8::2", &[(1, "::a"), (2, "::d")]);
    let aliases = vec![vec!["::b".parse().unwrap(), "::d".parse().unwrap()]];
    let set = ts(vec![t1, t2]);
    let col = RouterGraph::build(&set, &aliases);
    let refg = build_reference(&[&set], &aliases);
    assert_eq!(col.link_addr_pairs(), refg.link_addr_pairs());
    assert_eq!(col.connected_node_count(), refg.connected_node_count());
    assert_eq!(col.degree_histogram(), refg.degree_histogram());
}

#[test]
fn incremental_matches_batch_single_set() {
    let traces = vec![
        trace("2001:db8::1", &[(1, "::a"), (2, "::b"), (4, "::c")]),
        trace("2001:db8::2", &[(1, "::a"), (2, "::d")]),
    ];
    let set = ts(traces);
    let aliases = vec![vec!["::b".parse().unwrap(), "::d".parse().unwrap()]];
    let mut b = RouterGraphBuilder::new();
    b.ingest(&set);
    b.merge_alias_group(&aliases[0]);
    let golden = build_reference(&[&set], &aliases).canonical();
    assert_eq!(b.snapshot(), golden);
    assert_eq!(
        RouterGraph::build(&set, &aliases),
        golden,
        "the batch build is the builder's snapshot"
    );
}
