//! The path-prefix tree a [`crate::TraceSet`] holds its hop cells in.
//!
//! Yarrp6 probes every target of a list from one vantage, so the paths
//! toward neighbouring targets share all but their last hops. A set
//! therefore stores each distinct path prefix once: a [`PathNode`] is one
//! hop cell (hop limit, interface id) below its parent, the cell before
//! it on every path through it, and a trace is its deepest node, its
//! *leaf*. A trace's hop cells are the walk from its leaf to the root,
//! reversed. The root is no node: it is the parent of every first hop
//! and the leaf of a trace without hops.
//!
//! Nodes are numbered in the order a walk of the traces first reaches
//! them: traces in target order, each trace's cells ascending. So a
//! parent precedes its children, the nodes a trace adds are a block of
//! consecutive numbers ending at its leaf, no two nodes hold the same
//! (parent, hop limit, id), and sets that hold the same cells hold
//! equal node tables. Every constructor keeps that order; a remap of
//! ids through a one-to-one map keeps it too.

use simnet::flow::mix64;
use std::ops::Range;

/// No node: the parent of a first hop, and the leaf of a trace without
/// hop cells.
pub(crate) const ROOT: u32 = u32::MAX;

/// The most hop cells one trace holds: one per hop limit.
pub(crate) const MAX_HOPS: usize = 256;

/// One node of a set's path-prefix tree: a hop cell, shared by every
/// trace whose path runs through it. A trace's hop cells are the walk
/// from its leaf ([`crate::TraceView::leaf`]) up through the parents,
/// reversed.
///
/// Nodes are numbered in the order a walk of the traces first reaches
/// them: traces in target order, each trace's cells ascending. So a
/// parent precedes its children, no two nodes hold the same (parent,
/// hop limit, id), every node is on some trace's path, and sets that
/// hold the same cells hold equal node tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathNode {
    /// The node one cell nearer the vantage, or [`ROOT`].
    parent: u32,
    /// Interface id, resolved through the set's table.
    id: u32,
    /// Hop limit, above the parent's.
    ttl: u8,
    /// Cells above this one on its path: its position in every trace
    /// through it, so a trace's length is its leaf's `rank + 1`.
    rank: u8,
}

impl PathNode {
    /// The node one cell nearer the vantage; `None` for a first hop.
    pub fn parent(&self) -> Option<u32> {
        (self.parent != ROOT).then_some(self.parent)
    }

    /// The cell's hop limit.
    pub fn ttl(&self) -> u8 {
        self.ttl
    }

    /// The cell's interface id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The cells from the first hop down to this one.
    pub fn depth(&self) -> usize {
        usize::from(self.rank) + 1
    }

    /// Moves the cell to another id: `rebase` and `canonical` remap every
    /// node through a one-to-one map, which keeps the tree as it is.
    #[inline]
    pub(crate) fn set_id(&mut self, id: u32) {
        self.id = id;
    }
}

/// The cells on the path from the root to `leaf`.
#[inline]
pub(crate) fn depth(nodes: &[PathNode], leaf: u32) -> usize {
    match leaf {
        ROOT => 0,
        n => nodes[n as usize].depth(),
    }
}

/// Builds a node table in canonical order, one trace at a time
/// ([`push`](Self::push) its cells ascending, then [`end`](Self::end)
/// it), or node by node through [`child`](Self::child).
///
/// A new cell is first compared with the previous trace's path at the
/// same depth, the finger: while the two paths agree, the node is the
/// one the previous trace used. After they diverge, it is compared with
/// the two children its parent led to last (paths that alternate
/// between two branches, or rejoin an older trace's path below where
/// they left the previous one's), and only then is `(parent, hop limit,
/// id)` looked up: first the node right after the parent, then an
/// open-addressed index of every other node, which doubles at half
/// full. A node added right after its parent is its parent's first
/// child, found without the index, so it is not indexed; that is every
/// node a trace adds below the first one it adds, and those are added
/// without a lookup. [`finish`](Self::finish) drops the index and the
/// memo.
pub(crate) struct PathBuilder {
    nodes: Vec<PathNode>,
    /// Each slot a node whose parent is not the node before it, or
    /// `ROOT` when free; a power of two long.
    slots: Vec<u32>,
    /// Nodes in `slots`.
    indexed: usize,
    /// The two children each node led to last, newest first, at the
    /// node's number + 1 (the root's at 0); `ROOT` where there is none.
    recent: Vec<[u32; 2]>,
    /// The current trace's path so far, root first, over the rest of
    /// the previous trace's; in a [`graft`](Self::graft), the source
    /// nodes still to map.
    path: [u32; MAX_HOPS],
    /// Cells of the current trace so far.
    depth: usize,
    /// Cells of the previous trace.
    prev: usize,
    /// The current trace has followed the previous trace's path so far.
    following: bool,
    /// The current trace has added a node: no node lies below it yet.
    added: bool,
}

impl Default for PathBuilder {
    fn default() -> Self {
        PathBuilder {
            nodes: Vec::new(),
            slots: vec![ROOT; 1 << 10],
            indexed: 0,
            recent: vec![[ROOT; 2]],
            path: [ROOT; MAX_HOPS],
            depth: 0,
            prev: 0,
            following: true,
            added: false,
        }
    }
}

impl PathBuilder {
    /// Appends a cell to the current trace; hop limits ascend within a
    /// trace.
    #[inline]
    pub(crate) fn push(&mut self, ttl: u8, id: u32) {
        let d = self.depth;
        debug_assert!(d == 0 || self.nodes[self.path[d - 1] as usize].ttl < ttl);
        let same = |n: u32| {
            n != ROOT && {
                let node = &self.nodes[n as usize];
                node.ttl == ttl && node.id == id
            }
        };
        if !(self.following && d < self.prev && same(self.path[d])) {
            self.following = false;
            let parent = if d == 0 { ROOT } else { self.path[d - 1] };
            // The root's memo is at 0.
            let at = parent.wrapping_add(1) as usize;
            let [last, before] = self.recent[at];
            // A node this trace added has no children yet.
            let node = if self.added {
                self.add(parent, ttl, id)
            } else if same(last) {
                last
            } else if same(before) {
                before
            } else {
                let n = self.nodes.len();
                let node = self.child(parent, ttl, id);
                self.added = self.nodes.len() > n;
                node
            };
            // A finger hit leaves the memo as it is: the previous trace
            // led the same way.
            if node != last {
                self.recent[at] = [node, last];
            }
            self.path[d] = node;
        }
        self.depth = d + 1;
    }

    /// Ends the current trace and returns its leaf.
    #[inline]
    pub(crate) fn end(&mut self) -> u32 {
        let leaf = match self.depth {
            0 => ROOT,
            d => self.path[d - 1],
        };
        self.prev = self.depth;
        self.depth = 0;
        self.following = true;
        self.added = false;
        leaf
    }

    /// The node holding `(ttl, id)` below `parent`, added when there is
    /// none.
    pub(crate) fn child(&mut self, parent: u32, ttl: u8, id: u32) -> u32 {
        let is = |node: &PathNode| node.parent == parent && node.ttl == ttl && node.id == id;
        // The root's first child is node 0.
        let first = parent.wrapping_add(1);
        if self.nodes.get(first as usize).is_some_and(is) {
            return first;
        }
        let mask = self.slots.len() - 1;
        let mut i = slot_of(parent, ttl, id) & mask;
        loop {
            match self.slots[i] {
                ROOT => return self.add(parent, ttl, id),
                n if is(&self.nodes[n as usize]) => return n,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Indexes node `n` at the first free slot from where it hashes.
    fn index(&mut self, n: u32) {
        let node = &self.nodes[n as usize];
        let mask = self.slots.len() - 1;
        let mut i = slot_of(node.parent, node.ttl, node.id) & mask;
        while self.slots[i] != ROOT {
            i = (i + 1) & mask;
        }
        self.slots[i] = n;
    }

    /// Adds the node `(parent, ttl, id)`, known to be new; it is indexed
    /// unless it is its parent's first child.
    fn add(&mut self, parent: u32, ttl: u8, id: u32) -> u32 {
        let n = self.nodes.len() as u32;
        assert!(
            n < ROOT,
            "one trace set holds fewer than 2^32 - 1 path nodes"
        );
        let rank = match parent {
            ROOT => 0,
            p => self.nodes[p as usize].rank + 1,
        };
        self.nodes.push(PathNode {
            parent,
            id,
            ttl,
            rank,
        });
        self.recent.push([ROOT; 2]);
        if parent != n.wrapping_sub(1) {
            self.indexed += 1;
            if self.indexed * 2 > self.slots.len() {
                self.slots = vec![ROOT; self.slots.len() * 2];
                for m in 0..n {
                    if self.nodes[m as usize].parent != m.wrapping_sub(1) {
                        self.index(m);
                    }
                }
            }
            self.index(n);
        }
        n
    }

    /// This table's leaf for the path that ends at `leaf` in the table
    /// `src`, its ids translated through `remap` when there is one.
    /// `memo` holds this table's node for each of `src`'s nodes, `ROOT`
    /// until mapped: the walk goes up `src` to the first node it maps,
    /// then down again, finding or adding each node below it. So every
    /// source node is mapped once, and a table grafted trace by trace
    /// is numbered in the order its own walk first reaches its nodes.
    pub(crate) fn graft(
        &mut self,
        src: &[PathNode],
        memo: &mut [u32],
        leaf: u32,
        remap: Option<&[u32]>,
    ) -> u32 {
        let (mut at, mut k) = (leaf, 0);
        while at != ROOT && memo[at as usize] == ROOT {
            self.path[k] = at;
            k += 1;
            at = src[at as usize].parent;
        }
        let mut node = if at == ROOT { ROOT } else { memo[at as usize] };
        for j in (0..k).rev() {
            let n = self.path[j] as usize;
            let id = remap.map_or(src[n].id, |r| r[src[n].id as usize]);
            node = self.child(node, src[n].ttl, id);
            memo[n] = node;
        }
        node
    }

    /// The node table, with no spare capacity: its length was not known
    /// while it grew.
    pub(crate) fn finish(self) -> Vec<PathNode> {
        let mut nodes = self.nodes;
        nodes.shrink_to_fit();
        nodes
    }
}

/// For each trace of `leaves`, in order, the nodes it reaches first: in
/// canonical order they are one block, after every node an earlier
/// trace reached and ending at the trace's leaf (empty when the trace
/// adds no node). Every other cell of the trace is a node an earlier
/// trace reached.
pub(crate) fn first_reached(leaves: &[u32]) -> impl Iterator<Item = Range<usize>> + '_ {
    leaves.iter().scan(0usize, |next, &leaf| {
        let start = *next;
        if leaf != ROOT && leaf as usize >= start {
            *next = leaf as usize + 1;
        }
        Some(start..*next)
    })
}

/// The index slot `(parent, ttl, id)` hashes to, before the mask.
#[inline]
fn slot_of(parent: u32, ttl: u8, id: u32) -> usize {
    let key = u64::from(parent) << 32 | u64::from(id);
    mix64(key ^ u64::from(ttl).wrapping_mul(0x9e37_79b9_7f4a_7c15)) as usize
}

/// One trace's path held as its nodes, root first, for a pass that
/// moves through every trace of a set in order. Moving to the next
/// trace's path visits only its nodes below the last node the two paths
/// share. Of those, the nodes the trace reaches first are one block of
/// the table, read in order ([`first_reached`]); only the rest are found
/// by walking up through the parents. So a pass over target-sorted
/// neighbours chases a few nodes a trace, not every cell.
pub(crate) struct PathCursor {
    len: usize,
    /// The first node no trace moved to so far reaches.
    next: usize,
    nodes: [u32; MAX_HOPS],
    /// The new path's nodes between the shared one and the block,
    /// deepest first, while a move is under way.
    fresh: [u32; MAX_HOPS],
}

impl Default for PathCursor {
    fn default() -> Self {
        PathCursor {
            len: 0,
            next: 0,
            nodes: [ROOT; MAX_HOPS],
            fresh: [ROOT; MAX_HOPS],
        }
    }
}

impl PathCursor {
    /// Moves to the path ending at `leaf`, the next trace's leaf in
    /// `nodes` (the table every earlier move read), hands `each` the
    /// depth (from 0) and node of each of its cells below the last node
    /// it shares with the path before, shallowest first, and returns how
    /// many cells it shares.
    #[inline]
    pub(crate) fn move_to(
        &mut self,
        nodes: &[PathNode],
        leaf: u32,
        mut each: impl FnMut(usize, &PathNode),
    ) -> usize {
        let len = depth(nodes, leaf);
        // The block the trace reaches first, at the bottom of its path:
        // none of it is on the held path.
        let block = match leaf {
            ROOT => self.next..self.next,
            _ => self.next..(leaf as usize + 1).max(self.next),
        };
        let top = len - block.len();
        let mut at = match block.is_empty() {
            true => leaf,
            false => nodes[block.start].parent,
        };
        // Up from above the block to the first node the held path holds
        // at the same depth: a node has one depth, so that is the last
        // shared.
        let mut k = top;
        while k > 0 && (k > self.len || self.nodes[k - 1] != at) {
            self.fresh[top - k] = at;
            at = nodes[at as usize].parent;
            k -= 1;
        }
        for (d, &n) in (k..top).zip(self.fresh[..top - k].iter().rev()) {
            self.nodes[d] = n;
            each(d, &nodes[n as usize]);
        }
        for (d, n) in (top..len).zip(block.clone()) {
            debug_assert!(n == block.start || nodes[n].parent as usize + 1 == n);
            self.nodes[d] = n as u32;
            each(d, &nodes[n]);
        }
        self.next = block.end;
        self.len = len;
        k
    }

    /// The path's nodes, root first.
    #[inline]
    pub(crate) fn path(&self) -> &[u32] {
        &self.nodes[..self.len]
    }
}

/// One trace's hop cells, `(ttl, id)`: the path from the set's root to
/// the trace's leaf. Ids resolve through [`crate::TraceSet::interner`];
/// id equality is address equality. The length and the last cell are
/// read off the leaf; [`iter`](Self::iter) reads the cells root first,
/// [`deepest_first`](Self::deepest_first) leaf first.
#[derive(Clone, Copy)]
pub struct HopCells<'a> {
    nodes: &'a [PathNode],
    leaf: u32,
}

impl<'a> HopCells<'a> {
    #[inline]
    pub(crate) fn new(nodes: &'a [PathNode], leaf: u32) -> Self {
        HopCells { nodes, leaf }
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        depth(self.nodes, self.leaf)
    }

    /// True when the trace has no hop cell.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.leaf == ROOT
    }

    /// The deepest cell.
    #[inline]
    pub fn last(&self) -> Option<(u8, u32)> {
        let n = self.nodes.get(self.leaf as usize)?;
        Some((n.ttl, n.id))
    }

    /// The cells with hop limits ascending. Nothing is allocated: the
    /// iterator holds the path's node numbers.
    #[inline]
    pub fn iter(&self) -> HopIter<'a> {
        HopIter::new(self.nodes, self.leaf)
    }

    /// The cells with hop limits descending: the walk from the leaf,
    /// for a caller to whom the order does not matter.
    #[inline]
    pub fn deepest_first(&self) -> DeepestFirst<'a> {
        DeepestFirst {
            nodes: self.nodes,
            at: self.leaf,
            left: self.len(),
        }
    }
}

/// Equal cells, whichever sets the two paths live in.
impl PartialEq for HopCells<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.deepest_first().eq(other.deepest_first())
    }
}

impl Eq for HopCells<'_> {}

impl std::fmt::Debug for HopCells<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for HopCells<'a> {
    type Item = (u8, u32);
    type IntoIter = HopIter<'a>;

    #[inline]
    fn into_iter(self) -> HopIter<'a> {
        self.iter()
    }
}

/// The iterator of [`HopCells::iter`]: a trace's cells, hop limits
/// ascending.
#[derive(Clone)]
pub struct HopIter<'a> {
    nodes: &'a [PathNode],
    /// The path's nodes, root first, in `path[..len]`.
    path: [u32; MAX_HOPS],
    front: usize,
    back: usize,
}

impl<'a> HopIter<'a> {
    #[inline]
    fn new(nodes: &'a [PathNode], leaf: u32) -> Self {
        let len = depth(nodes, leaf);
        let mut path = [0; MAX_HOPS];
        let mut at = leaf;
        for slot in path[..len].iter_mut().rev() {
            *slot = at;
            at = nodes[at as usize].parent;
        }
        HopIter {
            nodes,
            path,
            front: 0,
            back: len,
        }
    }

    #[inline]
    fn cell(&self, k: usize) -> (u8, u32) {
        let n = &self.nodes[self.path[k] as usize];
        (n.ttl, n.id)
    }
}

impl Iterator for HopIter<'_> {
    type Item = (u8, u32);

    #[inline]
    fn next(&mut self) -> Option<(u8, u32)> {
        if self.front == self.back {
            return None;
        }
        self.front += 1;
        Some(self.cell(self.front - 1))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for HopIter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<(u8, u32)> {
        if self.front == self.back {
            return None;
        }
        self.back -= 1;
        Some(self.cell(self.back))
    }
}

impl ExactSizeIterator for HopIter<'_> {}

/// The iterator of [`HopCells::deepest_first`]: a trace's cells, hop
/// limits descending.
#[derive(Clone)]
pub struct DeepestFirst<'a> {
    nodes: &'a [PathNode],
    at: u32,
    left: usize,
}

impl Iterator for DeepestFirst<'_> {
    type Item = (u8, u32);

    #[inline]
    fn next(&mut self) -> Option<(u8, u32)> {
        let n = self.nodes.get(self.at as usize)?;
        self.at = n.parent;
        self.left -= 1;
        Some((n.ttl, n.id))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for DeepestFirst<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cells of every trace `leaves` names, root first.
    fn paths(nodes: &[PathNode], leaves: &[u32]) -> Vec<Vec<(u8, u32)>> {
        leaves
            .iter()
            .map(|&l| HopCells::new(nodes, l).iter().collect())
            .collect()
    }

    #[test]
    fn the_finger_and_the_index_find_the_same_nodes() {
        // The third trace leaves the second's path and comes back to the
        // first's: its shared prefix is found through the index.
        let traces: [&[(u8, u32)]; 4] = [
            &[(1, 7), (2, 8), (3, 9)],
            &[(1, 7), (2, 5)],
            &[(1, 7), (2, 8), (4, 1)],
            &[],
        ];
        let mut b = PathBuilder::default();
        let leaves: Vec<u32> = traces
            .iter()
            .map(|cells| {
                cells.iter().for_each(|&(t, id)| b.push(t, id));
                b.end()
            })
            .collect();
        let nodes = b.finish();
        assert_eq!(leaves, [2, 3, 4, ROOT]);
        assert_eq!(nodes.len(), 5);
        assert_eq!(nodes.capacity(), 5);
        assert_eq!(paths(&nodes, &leaves), traces.map(<[_]>::to_vec));
    }

    #[test]
    fn the_index_grows_past_its_first_size() {
        // Far more nodes than the first index holds, each reached twice:
        // once when added, once through the index after a detour.
        let mut b = PathBuilder::default();
        let n = 5000u32;
        let mut leaves = Vec::new();
        for i in 0..n {
            b.push(1, i);
            b.push(2, i);
            leaves.push(b.end());
            b.push(1, i);
            b.push(3, i);
            leaves.push(b.end());
        }
        for i in 0..n {
            b.push(1, i);
            b.push(2, i);
            assert_eq!(b.end(), leaves[2 * i as usize]);
        }
        let nodes = b.finish();
        assert_eq!(nodes.len(), 3 * n as usize);
        for (k, cells) in paths(&nodes, &leaves).iter().enumerate() {
            let i = k as u32 / 2;
            assert_eq!(cells, &[(1, i), (2 + k as u8 % 2, i)]);
        }
    }

    #[test]
    fn a_cursor_holds_each_path_it_moves_to() {
        let traces: [&[(u8, u32)]; 5] = [
            &[(1, 1), (2, 2), (3, 3), (4, 4)],
            &[(1, 1), (2, 2), (5, 5)],
            &[],
            &[(2, 9)],
            &[(1, 1), (2, 2), (3, 3), (4, 4)],
        ];
        let mut b = PathBuilder::default();
        let leaves: Vec<u32> = traces
            .iter()
            .map(|cells| {
                cells.iter().for_each(|&(t, id)| b.push(t, id));
                b.end()
            })
            .collect();
        let nodes = b.finish();
        let mut cursor = PathCursor::default();
        let mut cells = [(0, 0); MAX_HOPS];
        // In order, then, every node reached, in any order; each move
        // reports the cells below the shared ones.
        let mut held: &[(u8, u32)] = &[];
        for k in [0, 1, 2, 3, 4, 1, 4, 3, 0] {
            let mut below = Vec::new();
            let shared = cursor.move_to(&nodes, leaves[k], |d, n| {
                cells[d] = (n.ttl(), n.id());
                below.push(d);
            });
            let len = traces[k].len();
            assert_eq!(&cells[..len], traces[k], "trace {k}");
            assert_eq!(below, (shared..len).collect::<Vec<_>>(), "trace {k}");
            let common = held.iter().zip(traces[k]).take_while(|(a, b)| a == b);
            assert_eq!(shared, common.count(), "trace {k}");
            let path: Vec<(u8, u32)> = cursor
                .path()
                .iter()
                .map(|&n| (nodes[n as usize].ttl(), nodes[n as usize].id()))
                .collect();
            assert_eq!(path, traces[k], "trace {k}");
            held = traces[k];
        }
    }
}
