//! The map-based router-graph builder [`aliasres::RouterGraph::build`]
//! is pinned against (`aliasres`'s `tests/graph_golden.rs`).

use super::traces::TraceSet;
use aliasres::RouterGraph;
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv6Addr;

/// Builds the graph over the map-based trace set, every interface
/// looked up by address: alias groups become the first nodes, other
/// interfaces a node each as a qualifying hop window first touches
/// them. Node ids follow the trace map's iteration order, which differs
/// from run to run: compare through [`RouterGraph::link_addr_pairs`] or
/// [`RouterGraph::canonical`] where that order can show.
pub fn build_reference(traces: &TraceSet, aliases: &[Vec<Ipv6Addr>]) -> RouterGraph {
    let mut node_of: HashMap<Ipv6Addr, u32> = HashMap::new();
    let mut nodes: Vec<Vec<Ipv6Addr>> = Vec::new();
    for group in aliases {
        let id = nodes.len() as u32;
        nodes.push(group.clone());
        for &a in group {
            node_of.insert(a, id);
        }
    }
    let intern =
        |a: Ipv6Addr, nodes: &mut Vec<Vec<Ipv6Addr>>, node_of: &mut HashMap<Ipv6Addr, u32>| {
            *node_of.entry(a).or_insert_with(|| {
                let id = nodes.len() as u32;
                nodes.push(vec![a]);
                id
            })
        };

    let mut touched = vec![false; aliases.len()];
    let mut links = BTreeSet::new();
    for trace in traces.traces.values() {
        let hops: Vec<(u8, Ipv6Addr)> = trace.hops.iter().map(|(&t, &a)| (t, a)).collect();
        for w in hops.windows(2) {
            let (t1, a1) = w[0];
            let (t2, a2) = w[1];
            if t2 - t1 <= 2 && a1 != a2 {
                let n1 = intern(a1, &mut nodes, &mut node_of);
                let n2 = intern(a2, &mut nodes, &mut node_of);
                for n in [n1, n2] {
                    if let Some(t) = touched.get_mut(n as usize) {
                        *t = true;
                    }
                }
                if n1 != n2 {
                    links.insert((n1.min(n2), n1.max(n2)));
                }
            }
        }
    }
    let unobserved_alias_nodes = touched.iter().filter(|&&t| !t).count() as u32;
    RouterGraph {
        nodes,
        links,
        unobserved_alias_nodes,
    }
}
