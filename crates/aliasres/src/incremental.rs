//! Router-graph construction over interner ids: the one builder,
//! behind both the adaptive loop's per-round graph and
//! [`RouterGraph::build`].
//!
//! [`RouterGraphBuilder`] holds one address table whose dense ids are
//! stable across rounds, a union-find forest over those ids (alias
//! merges), the accumulated link set, and per-interface observation
//! flags. Each adaptive round feeds it the round's kept trace sets
//! ([`ingest`](RouterGraphBuilder::ingest) appends links) and the
//! round's freshly verified alias groups
//! ([`merge_alias_group`](RouterGraphBuilder::merge_alias_group) unions
//! nodes) — no per-round rebuild of the whole graph. A set's ids meet
//! the builder's through one [`union`] of the two tables: a set whose
//! table is a prefix of the builder's, or extends it, costs no hashing
//! at all (an empty builder, the shards of one store, the adaptive
//! loop's rounds, each on a table that extends the last), and in the
//! second case the builder adopts the set's table without copying it.
//!
//! Aliasing is an equivalence: groups that share a member are one
//! router, whatever order they arrive in.
//! [`snapshot`](RouterGraphBuilder::snapshot) renders the current state
//! as a **canonical** [`RouterGraph`] (members sorted within a node,
//! nodes sorted by their first member, links node-id remapped). The
//! `graph_props` suite pins it to an address-keyed oracle
//! (`testkit::oracle::build_reference`) for any ingest and merge order.
//!
//! The builder's layout is its own: nothing outside this module reads
//! or writes its forest. What a graph *is* is the sets it ingested and
//! its alias partition, [`alias_groups`](RouterGraphBuilder::alias_groups),
//! so a fresh builder that ingests the same sets and merges those
//! groups has the same snapshot, counts and partition (pinned by
//! `graph_props`). That is how the adaptive loop's checkpoint restores
//! one.

use crate::graph::{collect_links, RouterGraph, UNASSIGNED};
use analysis::{union, AddrInterner, TraceSet};
use std::collections::BTreeSet;
use std::net::Ipv6Addr;
use std::sync::Arc;

/// One union-find class of interface ids, as a node would render it.
struct Class {
    members: Vec<Ipv6Addr>,
    root: u32,
    /// Some member took part in a qualifying hop window.
    observed: bool,
}

/// Incrementally maintained router-level graph state. See the module
/// docs for the update model and the oracle contract.
#[derive(Clone, Debug, Default)]
pub struct RouterGraphBuilder {
    interner: Arc<AddrInterner>,
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Links at *interface* granularity (lo id < hi id); collapsed to
    /// node pairs only at snapshot time, so an alias merge after the
    /// fact retroactively fuses already-recorded links.
    links: BTreeSet<(u32, u32)>,
    observed: Vec<bool>,
    alias_member: Vec<bool>,
}

impl RouterGraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        RouterGraphBuilder::default()
    }

    /// The address table the builder's ids index. A set whose table
    /// extends it is ingested by adopting that table, so after a round
    /// of the adaptive loop it is the round's table itself.
    pub fn interner(&self) -> &Arc<AddrInterner> {
        &self.interner
    }

    /// Grows the per-id arrays to the table: each new id its own class.
    fn grow(&mut self) {
        let n = self.interner.len();
        self.parent.extend(self.parent.len() as u32..n as u32);
        self.rank.resize(n, 0);
        self.observed.resize(n, false);
        self.alias_member.resize(n, false);
    }

    /// The id of `addr`, interned if new (the table is copied first
    /// only if it is shared and `addr` is new to it).
    fn id_of(&mut self, addr: Ipv6Addr) -> u32 {
        let id = self
            .interner
            .lookup(addr)
            .unwrap_or_else(|| Arc::make_mut(&mut self.interner).intern(addr));
        self.grow();
        id
    }

    /// Union-find root with path halving.
    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Root without mutation (for snapshots off a shared reference).
    fn find_ro(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Appends the trace set's links: consecutive responding hops with
    /// at most one silent TTL between them (`t2 - t1 <= 2`). Both
    /// endpoints of every qualifying window are marked *observed*;
    /// interfaces that appear only outside qualifying windows stay
    /// unobserved and join the snapshot only if an alias group names
    /// them.
    pub fn ingest(&mut self, traces: &TraceSet) {
        // The set's id map into the builder's table, built once per set
        // (the trace walk then never re-hashes an address); `None` when
        // the ids are the builder's own.
        let map = union(&mut self.interner, [traces.interner()]).swap_remove(0);
        self.grow();
        let id = |a: u32| map.as_ref().map_or(a, |m| m[a as usize]);
        let observed = &mut self.observed;
        collect_links(traces, &mut self.links, |a1, a2| {
            let (x, y) = (id(a1), id(a2));
            observed[x as usize] = true;
            observed[y as usize] = true;
            (x, y)
        });
    }

    /// Unions the group's interfaces into one node. Members never seen
    /// in any trace are interned here and join the node anyway (they
    /// are counted, not hidden — see
    /// [`RouterGraph::unobserved_alias_nodes`]).
    pub fn merge_alias_group(&mut self, group: &[Ipv6Addr]) {
        let ids: Vec<u32> = group.iter().map(|&a| self.id_of(a)).collect();
        for &id in &ids {
            self.alias_member[id as usize] = true;
        }
        for pair in ids.windows(2) {
            let (ra, rb) = (self.find(pair[0]), self.find(pair[1]));
            if ra == rb {
                continue;
            }
            // Union by rank keeps the forest shallow; the *resulting
            // partition* is order-independent even though the parent
            // arrays differ.
            match self.rank[ra as usize].cmp(&self.rank[rb as usize]) {
                std::cmp::Ordering::Less => self.parent[ra as usize] = rb,
                std::cmp::Ordering::Greater => self.parent[rb as usize] = ra,
                std::cmp::Ordering::Equal => {
                    self.parent[rb as usize] = ra;
                    self.rank[ra as usize] += 1;
                }
            }
        }
    }

    /// The union-find classes of the ids `keep` admits, in canonical
    /// order: each class's members sorted, classes by their smallest
    /// member (classes are disjoint, so that is their member lists'
    /// order). Also returns, for each class root, its class's index.
    fn classes(&self, keep: impl Fn(usize) -> bool) -> (Vec<Class>, Vec<u32>) {
        let mut index_of = vec![UNASSIGNED; self.parent.len()];
        let mut classes: Vec<Class> = Vec::new();
        for id in (0..self.parent.len()).filter(|&id| keep(id)) {
            let root = self.find_ro(id as u32);
            let slot = &mut index_of[root as usize];
            if *slot == UNASSIGNED {
                *slot = classes.len() as u32;
                classes.push(Class {
                    members: Vec::new(),
                    root,
                    observed: false,
                });
            }
            let class = &mut classes[*slot as usize];
            class.members.push(self.interner.resolve(id as u32));
            class.observed |= self.observed[id];
        }
        for class in &mut classes {
            class.members.sort_unstable();
        }
        classes.sort_unstable_by_key(|c| c.members[0]);
        for (i, c) in classes.iter().enumerate() {
            index_of[c.root as usize] = i as u32;
        }
        (classes, index_of)
    }

    /// The current alias partition: every union-find class holding at
    /// least one alias member, its alias members sorted, classes sorted.
    /// Groups that share a member have merged into one.
    pub fn alias_groups(&self) -> Vec<Vec<Ipv6Addr>> {
        let (classes, _) = self.classes(|id| self.alias_member[id]);
        classes.into_iter().map(|c| c.members).collect()
    }

    /// Interfaces that appeared in a qualifying hop window — the
    /// denominator of the router-collapse ratio (unobserved alias
    /// members are excluded so the ratio is not flattered by
    /// interfaces discovery never saw).
    pub fn observed_interface_count(&self) -> usize {
        self.observed.iter().filter(|&&o| o).count()
    }

    /// Routers resolved so far: union-find classes with at least one
    /// observed member. Equal to
    /// `self.snapshot().observed_node_count()` (pinned by the
    /// `graph_props` suite) without rendering the graph — one pass over
    /// the id arrays and a root bitmap.
    pub fn observed_node_count(&self) -> usize {
        let mut counted = vec![false; self.parent.len()];
        let mut nodes = 0;
        for id in 0..self.parent.len() as u32 {
            if self.observed[id as usize] {
                let root = self.find_ro(id) as usize;
                nodes += usize::from(!std::mem::replace(&mut counted[root], true));
            }
        }
        nodes
    }

    /// Renders the current state as a canonical [`RouterGraph`]: nodes
    /// are the union-find classes restricted to observed or
    /// alias-member interfaces, members sorted within a node, nodes
    /// sorted by their first member, links remapped to node ids with
    /// intra-node links dropped.
    pub fn snapshot(&self) -> RouterGraph {
        let (classes, node_of_root) = self.classes(|id| self.observed[id] || self.alias_member[id]);
        let node = |id: u32| node_of_root[self.find_ro(id) as usize];
        // Collected whole: the set sorts once and builds in bulk.
        let links = self
            .links
            .iter()
            .map(|&(x, y)| (node(x), node(y)))
            .filter(|(nx, ny)| nx != ny)
            .map(|(nx, ny)| (nx.min(ny), nx.max(ny)))
            .collect();
        RouterGraph {
            unobserved_alias_nodes: classes.iter().filter(|c| !c.observed).count() as u32,
            nodes: classes.into_iter().map(|c| c.members).collect(),
            links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::ShardedTraceSet;
    use testkit::fixtures::trace;
    use testkit::trace_set as ts;

    #[test]
    fn alias_merge_fuses_previously_recorded_links() {
        // Links land before the alias is known; the merge must collapse
        // them retroactively.
        let set = ts(vec![
            trace("2001:db8::1", &[(1, "::a"), (2, "::aa1")]),
            trace("2001:db8::2", &[(1, "::a"), (2, "::aa2")]),
        ]);
        let mut b = RouterGraphBuilder::new();
        b.ingest(&set);
        assert_eq!(b.snapshot().connected_node_count(), 3);
        b.merge_alias_group(&["::aa1".parse().unwrap(), "::aa2".parse().unwrap()]);
        let g = b.snapshot();
        assert_eq!(g.connected_node_count(), 2);
        assert_eq!(g.links.len(), 1);
    }

    #[test]
    fn unobserved_members_are_counted_not_hidden() {
        let set = ts(vec![trace("2001:db8::1", &[(1, "::a"), (2, "::b")])]);
        let mut b = RouterGraphBuilder::new();
        // Alias-group members that never appeared in a qualifying hop
        // window of any ingested trace.
        let unobserved = |b: &RouterGraphBuilder| {
            let members = b.alias_member.iter().zip(&b.observed);
            members.filter(|&(&am, &ob)| am && !ob).count()
        };
        b.ingest(&set);
        b.merge_alias_group(&["::dead".parse().unwrap(), "::beef".parse().unwrap()]);
        assert_eq!(unobserved(&b), 2);
        let g = b.snapshot();
        assert_eq!(g.nodes.len(), 3);
        assert_eq!(g.unobserved_alias_nodes, 1);
        assert_eq!(g.observed_node_count(), 2);
        // A group with one observed member counts as observed.
        b.merge_alias_group(&["::a".parse().unwrap(), "::cafe".parse().unwrap()]);
        let g = b.snapshot();
        assert_eq!(g.unobserved_alias_nodes, 1);
        assert_eq!(unobserved(&b), 3);
    }

    #[test]
    fn the_shards_of_one_store_share_the_builders_table() {
        let set = ts((1..=8).map(|p| {
            let hops = [(1, "::a"), (2, if p % 2 == 0 { "::b" } else { "::c" })];
            trace(&format!("2001:db8:{p}::1"), &hops)
        }));
        let store = ShardedTraceSet::from_set(&set, 4);
        assert!(store.shards().iter().filter(|s| !s.is_empty()).count() > 1);
        let mut b = RouterGraphBuilder::new();
        for shard in store.shards() {
            b.ingest(shard);
        }
        let table = store.shards()[0].interner();
        assert!(
            Arc::ptr_eq(&b.interner, table),
            "the store's one table, adopted"
        );
        // Merging interfaces the table holds copies nothing.
        let aliases = [vec!["::b".parse().unwrap(), "::c".parse().unwrap()]];
        b.merge_alias_group(&aliases[0]);
        assert!(Arc::ptr_eq(&b.interner, table));
        let shards: Vec<&TraceSet> = store.shards().iter().collect();
        assert_eq!(b.snapshot(), RouterGraph::build_multi(&shards, &aliases));
        assert_eq!(b.snapshot(), RouterGraph::build(&set, &aliases));
    }
}
