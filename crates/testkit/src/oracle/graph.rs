//! The address-keyed router-graph builder
//! [`aliasres::RouterGraphBuilder`] and [`aliasres::RouterGraph::build`]
//! are pinned against (`aliasres`'s `tests/graph_props.rs` and
//! `tests/graph_golden.rs`).

use aliasres::RouterGraph;
use analysis::TraceSet;
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv6Addr;

/// Builds the graph over `sets`, every interface looked up by address
/// in std maps. Alias groups that share a member are one router: each
/// group absorbs every earlier class one of its members is in, and the
/// merged classes become the first nodes. Every other interface gets a
/// node at its first qualifying hop window (consecutive responding hops
/// at most one silent TTL apart), sets and traces walked in order.
/// Node ids follow that walk, not the library's: compare through
/// [`RouterGraph::canonical`].
pub fn build_reference(sets: &[&TraceSet], aliases: &[Vec<Ipv6Addr>]) -> RouterGraph {
    let mut classes: Vec<BTreeSet<Ipv6Addr>> = Vec::new();
    let mut class_of: HashMap<Ipv6Addr, usize> = HashMap::new();
    for group in aliases {
        let mut members: BTreeSet<Ipv6Addr> = group.iter().copied().collect();
        for a in group {
            if let Some(&c) = class_of.get(a) {
                members.append(&mut classes[c]);
            }
        }
        for &a in &members {
            class_of.insert(a, classes.len());
        }
        classes.push(members);
    }
    let mut nodes: Vec<Vec<Ipv6Addr>> = Vec::new();
    let mut node_of: HashMap<Ipv6Addr, u32> = HashMap::new();
    for class in classes.into_iter().filter(|c| !c.is_empty()) {
        for &a in &class {
            node_of.insert(a, nodes.len() as u32);
        }
        nodes.push(class.into_iter().collect());
    }
    let alias_nodes = nodes.len() as u32;

    let mut touched: BTreeSet<u32> = BTreeSet::new();
    let mut links = BTreeSet::new();
    for set in sets {
        for trace in set.iter() {
            let hops: Vec<(u8, Ipv6Addr)> = trace.hops().collect();
            for w in hops.windows(2) {
                let ((t1, a1), (t2, a2)) = (w[0], w[1]);
                if t2 - t1 > 2 || a1 == a2 {
                    continue;
                }
                let [n1, n2] = [a1, a2].map(|a| {
                    let n = *node_of.entry(a).or_insert_with(|| {
                        nodes.push(vec![a]);
                        nodes.len() as u32 - 1
                    });
                    touched.insert(n);
                    n
                });
                if n1 != n2 {
                    links.insert((n1.min(n2), n1.max(n2)));
                }
            }
        }
    }
    let unobserved = (0..alias_nodes).filter(|n| !touched.contains(n));
    RouterGraph {
        unobserved_alias_nodes: unobserved.count() as u32,
        nodes,
        links,
    }
}
