//! The path-prefix tree of an [`analysis::TraceSet`], rebuilt from its
//! views.
//!
//! A set holds its hop cells as one node table, each trace a path from
//! the root to its leaf, numbered in the order a walk of the traces
//! first reaches them. [`path_tree`] rebuilds that table the obvious
//! way — a map from (parent, hop limit, id) to node, filled by walking
//! every trace's cells in order — so a suite can ask whether the set's
//! own table is the canonical one.

use analysis::TraceSet;
use std::collections::HashMap;

/// One node as [`path_tree`] holds it: its parent (`None` for a first
/// hop), hop limit, interface id and depth.
pub type Node = (Option<u32>, u8, u32, usize);

/// The node table of `ts` and each trace's leaf (`None` for a trace
/// without hops), rebuilt from the views: traces in target order, each
/// trace's cells ascending, a node added the first time its (parent,
/// hop limit, id) is met.
pub fn path_tree(ts: &TraceSet) -> (Vec<Node>, Vec<Option<u32>>) {
    let mut nodes: Vec<Node> = Vec::new();
    let mut index: HashMap<(Option<u32>, u8, u32), u32> = HashMap::new();
    let leaves = ts
        .iter()
        .map(|t| {
            let mut at: Option<u32> = None;
            for (depth, (ttl, id)) in t.hop_cells().iter().enumerate() {
                let n = *index.entry((at, ttl, id)).or_insert_with(|| {
                    nodes.push((at, ttl, id, depth + 1));
                    nodes.len() as u32 - 1
                });
                at = Some(n);
            }
            at
        })
        .collect();
    (nodes, leaves)
}

/// The node table `ts` holds and each trace's leaf, in the form
/// [`path_tree`] returns.
pub fn held_tree(ts: &TraceSet) -> (Vec<Node>, Vec<Option<u32>>) {
    let nodes = ts
        .path_nodes()
        .iter()
        .map(|n| (n.parent(), n.ttl(), n.id(), n.depth()))
        .collect();
    (nodes, ts.iter().map(|t| t.leaf()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{trace_set, Trace};
    use std::net::Ipv6Addr;

    fn trace(target: &str, hops: &[(u8, &str)]) -> Trace {
        let mut t = Trace::new(target.parse().unwrap());
        for &(ttl, hop) in hops {
            t.hops.insert(ttl, hop.parse::<Ipv6Addr>().unwrap());
        }
        t
    }

    #[test]
    fn the_rebuilt_tree_is_the_held_one() {
        let set = trace_set([
            trace("2001:db8::1", &[(1, "::a"), (2, "::b"), (4, "::c")]),
            trace("2001:db8::2", &[(1, "::a"), (2, "::d")]),
            trace("2001:db8::3", &[]),
            trace("2001:db8::4", &[(1, "::a"), (2, "::b"), (4, "::c")]),
        ]);
        let (nodes, leaves) = path_tree(&set);
        assert_eq!(
            nodes,
            [
                (None, 1, 0, 1),
                (Some(0), 2, 1, 2),
                (Some(1), 4, 2, 3),
                (Some(0), 2, 3, 2)
            ]
        );
        assert_eq!(leaves, [Some(2), Some(3), None, Some(2)]);
        assert_eq!(held_tree(&set), (nodes, leaves));
    }
}
