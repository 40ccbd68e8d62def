//! Router-level graph construction (ITDK-style): collapse an
//! interface-level trace set with resolved alias sets into routers and
//! links — the paper's §7.2 goal ("produce router-level topologies and
//! facilitate comparative graph analyses").
//!
//! There is one builder,
//! [`RouterGraphBuilder`](crate::incremental::RouterGraphBuilder):
//! [`RouterGraph::build`] and [`RouterGraph::build_multi`] ingest the
//! sets into a fresh one, merge the alias groups and render its
//! snapshot. Link extraction ([`collect_links`]) is one walk over each
//! set's path-prefix tree, by interner id: a hop window is a node and
//! its parent.

use crate::incremental::RouterGraphBuilder;
use analysis::TraceSet;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv6Addr;

/// No id: an empty slot of an id-indexed column.
pub(crate) const UNASSIGNED: u32 = u32::MAX;

/// A router-level topology graph.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterGraph {
    /// Node id → its interface addresses.
    pub nodes: Vec<Vec<Ipv6Addr>>,
    /// Undirected links between node ids (deduplicated, a < b).
    pub links: BTreeSet<(u32, u32)>,
    /// Nodes none of whose interfaces ever appeared in a qualifying hop
    /// window of any trace: alias groups whose members were verified by
    /// probing but never observed on a path. They are *kept* in
    /// [`nodes`](Self::nodes) (an alias verdict is real evidence) but
    /// counted here so router-level metrics can exclude them —
    /// [`observed_node_count`](Self::observed_node_count) is the
    /// uninflated router count.
    pub unobserved_alias_nodes: u32,
}

/// Link pairs held before they are sorted, deduplicated and moved to
/// the link set: 32 KiB however long the walk, sorted in first-level
/// cache.
const PAIR_SCRATCH: usize = 1 << 12;

/// The hop-window walk: consecutive responding hops are adjacent
/// routers. A gap of exactly one silent TTL is bridged (the standard
/// inference); wider gaps are not. `endpoints` turns a qualifying
/// window's two interner ids into the ids `links` is kept in (equal
/// ids: no link), once a window.
///
/// Two consecutive hops of a trace are a node of the set's path tree
/// and its parent, so the walk visits each node once however many
/// traces run through it: target-sorted neighbours share their path
/// prefix, and the windows of a shared prefix are one window each. The
/// pairs are packed into `u64`s and deduplicated a scratch-full at a
/// time, since one pair of interfaces may close windows below several
/// parents.
pub(crate) fn collect_links(
    traces: &TraceSet,
    links: &mut BTreeSet<(u32, u32)>,
    mut endpoints: impl FnMut(u32, u32) -> (u32, u32),
) {
    let mut flush = |pairs: &mut Vec<u64>| {
        pairs.sort_unstable();
        pairs.dedup();
        links.extend(pairs.drain(..).map(|p| ((p >> 32) as u32, p as u32)));
    };
    let nodes = traces.path_nodes();
    let mut pairs: Vec<u64> = Vec::with_capacity(PAIR_SCRATCH);
    for node in nodes {
        let Some(parent) = node.parent() else {
            continue;
        };
        let parent = &nodes[parent as usize];
        let ((t1, a1), (t2, a2)) = ((parent.ttl(), parent.id()), (node.ttl(), node.id()));
        if t2 - t1 > 2 || a1 == a2 {
            continue;
        }
        let (x, y) = endpoints(a1, a2);
        if x != y {
            pairs.push((x.min(y) as u64) << 32 | x.max(y) as u64);
            if pairs.len() == PAIR_SCRATCH {
                flush(&mut pairs);
            }
        }
    }
    flush(&mut pairs);
}

impl RouterGraph {
    /// Builds the graph from traces, merging interfaces per `aliases`.
    /// Interfaces outside any alias group become single-interface nodes,
    /// and groups that share a member are one node. The graph is in
    /// [`canonical`](Self::canonical) form.
    ///
    /// Alias-group members never seen in any trace stay in their node
    /// and the node is tallied in
    /// [`unobserved_alias_nodes`](Self::unobserved_alias_nodes) when
    /// *no* member was observed — use
    /// [`observed_node_count`](Self::observed_node_count) for router
    /// counts that must not be inflated by probe-only evidence.
    pub fn build(traces: &TraceSet, aliases: &[Vec<Ipv6Addr>]) -> RouterGraph {
        Self::build_multi(&[traces], aliases)
    }

    /// [`build`](Self::build) over *several* trace sets ingested in
    /// order. Per-campaign sets are walked as given, so two campaigns
    /// tracing the same target both contribute links, which differs
    /// from building over a first-wins [`TraceSet::merge_all`].
    pub fn build_multi(sets: &[&TraceSet], aliases: &[Vec<Ipv6Addr>]) -> RouterGraph {
        let mut builder = RouterGraphBuilder::new();
        for set in sets {
            builder.ingest(set);
        }
        for group in aliases {
            builder.merge_alias_group(group);
        }
        builder.snapshot()
    }

    /// The node-id-independent normal form: members sorted within each
    /// node, nodes sorted by member list, links remapped accordingly.
    /// Two graphs over the same observations built by different
    /// interning or ingest orders canonicalize to equal values — the
    /// comparison surface of the builder-vs-oracle tests. A built graph
    /// is already canonical.
    pub fn canonical(&self) -> RouterGraph {
        let mut sorted: Vec<Vec<Ipv6Addr>> = self
            .nodes
            .iter()
            .map(|m| {
                let mut m = m.clone();
                m.sort_unstable();
                m
            })
            .collect();
        let mut order: Vec<usize> = (0..sorted.len()).collect();
        order.sort_by(|&a, &b| sorted[a].cmp(&sorted[b]));
        let mut remap = vec![0u32; sorted.len()];
        for (new, &old) in order.iter().enumerate() {
            remap[old] = new as u32;
        }
        let nodes: Vec<Vec<Ipv6Addr>> = order
            .iter()
            .map(|&o| std::mem::take(&mut sorted[o]))
            .collect();
        let links = self
            .links
            .iter()
            .map(|&(a, b)| {
                let (x, y) = (remap[a as usize], remap[b as usize]);
                (x.min(y), x.max(y))
            })
            .collect();
        RouterGraph {
            nodes,
            links,
            unobserved_alias_nodes: self.unobserved_alias_nodes,
        }
    }

    /// Router count excluding probe-only alias nodes
    /// ([`unobserved_alias_nodes`](Self::unobserved_alias_nodes)) —
    /// the honest numerator for collapse-ratio metrics.
    pub fn observed_node_count(&self) -> usize {
        self.nodes.len() - self.unobserved_alias_nodes as usize
    }

    /// Number of router nodes observed in links.
    pub fn connected_node_count(&self) -> usize {
        let mut seen = BTreeSet::new();
        for &(a, b) in &self.links {
            seen.insert(a);
            seen.insert(b);
        }
        seen.len()
    }

    /// Degree distribution over connected nodes.
    pub fn degree_histogram(&self) -> BTreeMap<u32, u32> {
        let mut deg: HashMap<u32, u32> = HashMap::new();
        for &(a, b) in &self.links {
            *deg.entry(a).or_default() += 1;
            *deg.entry(b).or_default() += 1;
        }
        let mut hist = BTreeMap::new();
        for (_, d) in deg {
            *hist.entry(d).or_default() += 1;
        }
        hist
    }

    /// Links as address pairs — node-id-independent canonical form, for
    /// comparing graphs built by different interning orders.
    pub fn link_addr_pairs(&self) -> BTreeSet<(Ipv6Addr, Ipv6Addr)> {
        self.links
            .iter()
            .map(|&(a, b)| {
                let x = self.nodes[a as usize][0];
                let y = self.nodes[b as usize][0];
                (x.min(y), x.max(y))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::fixtures::trace;
    use testkit::trace_set as ts;

    #[test]
    fn links_from_consecutive_hops() {
        let t = trace("2001:db8::1", &[(1, "::a"), (2, "::b"), (3, "::c")]);
        let g = RouterGraph::build(&ts(vec![t]), &[]);
        assert_eq!(g.links.len(), 2);
        assert_eq!(g.connected_node_count(), 3);
    }

    #[test]
    fn single_gap_bridged_wider_not() {
        let t = trace("2001:db8::1", &[(1, "::a"), (3, "::b"), (6, "::c")]);
        let g = RouterGraph::build(&ts(vec![t]), &[]);
        // a-(gap)-b bridged; b..c gap of 3 TTLs not.
        assert_eq!(g.links.len(), 1);
    }

    #[test]
    fn aliases_collapse_nodes() {
        // Two traces crossing different interfaces of one router R.
        let t1 = trace("2001:db8::1", &[(1, "::a"), (2, "::aa1")]);
        let t2 = trace("2001:db8::2", &[(1, "::a"), (2, "::aa2")]);
        let no_alias = RouterGraph::build(&ts(vec![t1.clone(), t2.clone()]), &[]);
        assert_eq!(no_alias.connected_node_count(), 3);
        let aliased = RouterGraph::build(
            &ts(vec![t1, t2]),
            &[vec!["::aa1".parse().unwrap(), "::aa2".parse().unwrap()]],
        );
        assert_eq!(aliased.connected_node_count(), 2);
        assert_eq!(aliased.links.len(), 1);
    }

    #[test]
    fn alias_group_absent_from_traces_is_counted() {
        let t = trace("2001:db8::1", &[(1, "::a"), (2, "::b")]);
        let g = RouterGraph::build(
            &ts(vec![t]),
            &[vec!["::dead".parse().unwrap(), "::beef".parse().unwrap()]],
        );
        assert_eq!(g.links.len(), 1);
        // The unused alias node exists but joins no link — and it is
        // tallied so router counts can exclude it.
        assert_eq!(g.connected_node_count(), 2);
        assert_eq!(g.nodes.len(), 3);
        assert_eq!(g.unobserved_alias_nodes, 1);
        assert_eq!(g.observed_node_count(), 2);
    }

    #[test]
    fn observed_alias_group_not_counted_unobserved() {
        // One member of the group appears on a path: the node is a
        // path-observed router.
        let t1 = trace("2001:db8::1", &[(1, "::a"), (2, "::aa1")]);
        let g = RouterGraph::build(
            &ts(vec![t1]),
            &[vec!["::aa1".parse().unwrap(), "::aa2".parse().unwrap()]],
        );
        assert_eq!(g.unobserved_alias_nodes, 0);
        assert_eq!(g.observed_node_count(), g.nodes.len());
    }

    #[test]
    fn canonical_is_order_invariant() {
        let t1 = trace("2001:db8::1", &[(1, "::a"), (2, "::b"), (3, "::c")]);
        let t2 = trace("2001:db8::2", &[(1, "::a"), (2, "::d")]);
        let aliases = vec![vec!["::b".parse().unwrap(), "::d".parse().unwrap()]];
        let s1 = ts(vec![t1.clone(), t2.clone()]);
        let g12 =
            RouterGraph::build_multi(&[&ts(vec![t1.clone()]), &ts(vec![t2.clone()])], &aliases);
        let g21 = RouterGraph::build_multi(&[&ts(vec![t2]), &ts(vec![t1])], &aliases);
        assert_eq!(g12.canonical(), g21.canonical());
        assert_eq!(
            RouterGraph::build(&s1, &aliases).canonical(),
            g12.canonical()
        );
    }

    #[test]
    fn degree_histogram_counts() {
        let t = trace("2001:db8::1", &[(1, "::a"), (2, "::b"), (3, "::c")]);
        let g = RouterGraph::build(&ts(vec![t]), &[]);
        let h = g.degree_histogram();
        assert_eq!(h[&1], 2); // ::a and ::c
        assert_eq!(h[&2], 1); // ::b
    }
}
