//! Reconstructing per-target traces from stateless response records —
//! columnar layout.
//!
//! Yarrp6 responses arrive in no particular order, interleaved across
//! all destinations; this module groups them back into traceroute-style
//! paths. The store is flat and index-based rather than a map of maps:
//!
//! * records are bucketed by target with one **stable counting
//!   scatter** over dense interned target ids — no comparison sort
//!   over the record volume and no `HashMap`/`BTreeMap` node
//!   insertions;
//! * hop cells live in one path-prefix tree per set ([`crate::paths`]):
//!   traces toward neighbouring targets share all but their last hops,
//!   so each distinct (vantage, path prefix) is one node — a parent, a
//!   hop limit, an interface id and a depth, 12 bytes — and a trace
//!   holds only its deepest node, its leaf. A campaign's nodes are a
//!   few percent of its hop cells. Destination Unreachable cells keep
//!   record order and may repeat a hop limit, so they stay two flat
//!   columns in trace order, a trace known by where its cells *end*:
//!   trace `i` owns `ends[i - 1]..ends[i]` (from 0 for the first). With
//!   its leaf and `reached_at` that is 10 bytes of metadata a trace.
//!   Iteration is already in target order, so no `iter_sorted()`
//!   re-sort per analysis pass;
//! * responder addresses are interned once into a shared
//!   [`AddrInterner`] ([`crate::intern`]); hops carry dense `u32` ids
//!   and downstream stages cache per-address derived values by id.
//!
//! [`TraceView`] is the per-trace accessor; it mirrors the old `Trace`
//! API (`path_len`, `last_hop`, `hop_vec`, ...) over the flat store.
//! The original map-based implementation survives as an oracle in the
//! dev-only `testkit` crate (`testkit::oracle::TraceSet`), which the
//! golden tests pin this store bit-identical to.

use crate::intern::{hashed_ahead, union, AddrInterner, Reintern};
use crate::paths::{first_reached, HopCells, PathBuilder, PathNode, ROOT};
use crate::snapshot::HopShape;
use std::iter::{Copied, Zip};
use std::net::Ipv6Addr;
use std::ops::Range;
use std::slice;
use std::sync::Arc;
use v6addr::{Asn, BgpTable, Finger, Ipv6Prefix};
use v6packet::icmp6::DestUnreachCode;
use yarrp6::addrset::AddrSet;
use yarrp6::{ProbeLog, ResponseKind, ResponseRecord};

/// Trace `idx`'s cells in a column whose traces end at `ends`: from
/// where the previous trace ends (0 for the first) to its own end.
#[inline]
pub(crate) fn cell_range(ends: &[u32], idx: usize) -> Range<usize> {
    let start = match idx {
        0 => 0,
        _ => ends[idx - 1],
    };
    start as usize..ends[idx] as usize
}

/// The lengths of the traces whose cells end at `ends`.
pub(crate) fn trace_lens(ends: &[u32]) -> impl Iterator<Item = u32> + '_ {
    ends.iter().scan(0, |start, &end| {
        let len = end - *start;
        *start = end;
        Some(len)
    })
}

/// All traces of one campaign in columnar form, sorted by target.
///
/// A trace is a row across the target and metadata columns. Its hop
/// cells are the path from the root of the set's path-prefix tree to
/// the row's leaf [`PathNode`], so a prefix that many traces share is
/// held once. Its Destination Unreachable cells are a range of
/// the unreachable columns, which hold every trace's in trace order, so
/// the row stores only where that range ends (`cell_range`). The ranges
/// tile their columns by construction: every constructor appends a
/// trace's cells and then ends it.
///
/// The columns sit behind one `Arc`, as the address table does,
/// so `clone` is O(1): the clone shares both, and the shards of a
/// store, the flat view of one and a delta run's prior are all such
/// clones. Constructors fill their own columns and never share them
/// while filling. Two methods write in place, [`rebase`](Self::rebase)
/// (an id remap) and [`canonical`](Self::canonical) (an id rewrite),
/// and each copies the columns first only when another set shares them.
#[derive(Clone, Debug, Default)]
pub struct TraceSet {
    /// Campaign identity, carried through for reporting (shared, not
    /// re-allocated per analysis). For a merged set this is the
    /// `+`-joined list of distinct source vantage names.
    pub vantage: Arc<str>,
    /// Target-set name.
    pub target_set: Arc<str>,
    /// Records dropped because the quoted destination failed the target
    /// checksum (middlebox rewriting detected): their "target" is not
    /// an address we probed, so including them would fabricate traces.
    /// Additive under [`merge_all`](Self::merge_all) — a union of campaigns
    /// saw the sum of their tampered records.
    pub rewritten_dropped: u64,
    /// Interned responder/interface addresses shared by all stages, and
    /// by every set built from one store. A table is never mutated once
    /// shared.
    pub(crate) interner: Arc<AddrInterner>,
    /// The trace columns, the path tree and the unreachable columns,
    /// shared by the set's clones.
    pub(crate) cols: Arc<Columns>,
}

/// The columns of a [`TraceSet`]: one row per trace in `targets`,
/// `leaves`, `unreach_ends` and `reached`, one per path node in
/// `nodes`, one per Destination Unreachable cell in the two unreachable
/// columns. Nodes are in canonical order ([`crate::paths`]), so the
/// derived equality is equality of cells.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Columns {
    /// Probed destinations, ascending by address word.
    pub(crate) targets: Vec<Ipv6Addr>,
    /// Each trace's deepest hop cell, a node of `nodes`, parallel to
    /// `targets`; [`ROOT`] for a trace without hops.
    pub(crate) leaves: Vec<u32>,
    /// Where each trace's unreachable cells end, parallel to `targets`:
    /// non-decreasing, the last one the unreachable columns' length.
    pub(crate) unreach_ends: Vec<u32>,
    /// The smallest hop limit the destination answered at, parallel to
    /// `targets`.
    pub(crate) reached: Vec<Option<u8>>,
    /// The path-prefix tree of every trace's hop cells.
    pub(crate) nodes: Vec<PathNode>,
    /// The hop limit of every Destination Unreachable cell, contiguous
    /// per trace, record order within a trace.
    pub(crate) unreach_ttls: Vec<u8>,
    /// The responder id of every Destination Unreachable cell, parallel
    /// to `unreach_ttls`.
    pub(crate) unreach_ids: Vec<u32>,
    /// What the hop cells size in a snapshot: how many do not repeat
    /// the previous trace's (a hop at the same limit with the same id),
    /// the hop ids a snapshot writes, and their hop-limit window. Found
    /// by the first encode and kept, because a checkpoint writes every
    /// set of its record again each round; [`Columns::make_mut`] clears
    /// it.
    pub(crate) hop_shape: Memo<HopShape>,
}

/// A value derived from the columns it sits in, found once on demand.
/// It takes no part in equality: columns that hold the same cells are
/// equal whether or not it was found yet.
#[derive(Clone, Debug)]
pub(crate) struct Memo<T>(std::sync::OnceLock<T>);

impl<T> Default for Memo<T> {
    fn default() -> Self {
        Memo(std::sync::OnceLock::new())
    }
}

impl<T: Copy> Memo<T> {
    /// A memo that already holds `v`.
    pub(crate) fn of(v: T) -> Memo<T> {
        Memo(v.into())
    }

    /// The value, found by `find` on first use.
    pub(crate) fn get(&self, find: impl FnOnce() -> T) -> T {
        *self.0.get_or_init(find)
    }
}

impl<T> PartialEq for Memo<T> {
    fn eq(&self, _: &Memo<T>) -> bool {
        true
    }
}

impl<T> Eq for Memo<T> {}

impl Columns {
    /// Empty columns reserved for `[traces, unreachable cells]`. The node
    /// table is built apart and set last: its length is not known up
    /// front.
    pub(crate) fn reserved([n_targets, n_unreach]: [usize; 2]) -> Columns {
        Columns {
            targets: Vec::with_capacity(n_targets),
            leaves: Vec::with_capacity(n_targets),
            unreach_ends: Vec::with_capacity(n_targets),
            reached: Vec::with_capacity(n_targets),
            nodes: Vec::new(),
            unreach_ttls: Vec::with_capacity(n_unreach),
            unreach_ids: Vec::with_capacity(n_unreach),
            hop_shape: Memo::default(),
        }
    }

    /// Ends the trace toward `target`, whose hop cells end at `leaf`: it
    /// owns every unreachable cell appended since the previous trace
    /// ended. The `u32` ends cannot wrap: every constructor's columns
    /// hold fewer than 2³² cells.
    #[inline]
    pub(crate) fn end_trace(&mut self, target: Ipv6Addr, leaf: u32, reached_at: Option<u8>) {
        self.targets.push(target);
        self.leaves.push(leaf);
        self.unreach_ends.push(self.unreach_ids.len() as u32);
        self.reached.push(reached_at);
    }

    /// `cols` to write in place: copied first if another set shares
    /// them, and with what was derived from them cleared.
    pub(crate) fn make_mut(cols: &mut Arc<Columns>) -> &mut Columns {
        let cols = Arc::make_mut(cols);
        cols.hop_shape = Memo::default();
        cols
    }

    /// Trace `idx`'s range of the unreachable columns.
    #[inline]
    pub(crate) fn unreach_range(&self, idx: usize) -> Range<usize> {
        cell_range(&self.unreach_ends, idx)
    }

    /// Trace `idx`'s hop cells.
    #[inline]
    pub(crate) fn hop_cells(&self, idx: usize) -> HopCells<'_> {
        HopCells::new(&self.nodes, self.leaves[idx])
    }
}

/// Bit-for-bit equality of the flat stores, *including* interner id
/// assignment — the pinned contract between the batch classify pass
/// and the streaming [`crate::builder::TraceSetBuilder`], and between
/// the multi-vantage streaming and batch merge paths. Every field
/// takes part: a set holds observations and the names of the campaigns
/// they came from, nothing per trace about which vantage earned it.
impl PartialEq for TraceSet {
    fn eq(&self, other: &Self) -> bool {
        self.vantage == other.vantage
            && self.target_set == other.target_set
            && self.rewritten_dropped == other.rewritten_dropped
            && self.cols == other.cols
            && self.interner.words() == other.interner.words()
    }
}

/// `reached_at` sentinel in the tid-indexed scratch column.
pub(crate) const NOT_REACHED: u16 = u16::MAX;

/// One classified record on its way into the hop or unreachable column.
/// `key` orders a target's rows where their position in the row vector
/// does not ([`assemble`]). The four fields pack into two words — 8
/// bytes with the batch path's `()` key, 16 with a receive time — so
/// the ids have less than 32 bits each: [`Row::new`] checks them.
#[derive(Clone, Copy)]
pub(crate) struct Row<K> {
    pub key: K,
    /// Dense probed-target id, and in the top bit whether this is a
    /// Destination Unreachable row (else Time Exceeded).
    tid_unreach: u32,
    /// Responder id, and in the low byte the originating probe hop limit.
    rid_ttl: u32,
}

impl<K> Row<K> {
    /// Target ids a row can carry.
    pub(crate) const TID_LIMIT: u32 = 1 << 31;
    /// Responder ids a row can carry.
    pub(crate) const RID_LIMIT: u32 = 1 << 24;

    /// Packs a row.
    ///
    /// # Panics
    ///
    /// When `tid` or `rid` does not fit — more than 2³¹ probed targets
    /// or 2²⁴ distinct responders in one campaign.
    #[inline]
    pub(crate) fn new(key: K, tid: u32, rid: u32, ttl: u8, unreach: bool) -> Self {
        assert!(
            tid < Self::TID_LIMIT,
            "one campaign's rows hold at most 2^31 probed targets"
        );
        assert!(
            rid < Self::RID_LIMIT,
            "one campaign's rows hold at most 2^24 distinct responders"
        );
        Row {
            key,
            tid_unreach: tid | (unreach as u32) << 31,
            rid_ttl: rid << 8 | ttl as u32,
        }
    }

    /// Dense probed-target id.
    #[inline]
    pub(crate) fn tid(&self) -> u32 {
        self.tid_unreach & (Self::TID_LIMIT - 1)
    }

    /// Destination Unreachable row (else Time Exceeded).
    #[inline]
    pub(crate) fn unreach(&self) -> bool {
        self.tid_unreach >> 31 != 0
    }

    /// Responder id.
    #[inline]
    pub(crate) fn rid(&self) -> u32 {
        self.rid_ttl >> 8
    }

    /// Replaces the responder id by one known to fit (the builder's
    /// renumbering permutes ids that already do).
    #[inline]
    pub(crate) fn set_rid(&mut self, rid: u32) {
        debug_assert!(rid < Self::RID_LIMIT);
        self.rid_ttl = rid << 8 | self.rid_ttl & 0xff;
    }
}

/// A [`Row`] in its target's bucket: the key beside the row's packed
/// responder id and hop limit, at 4-byte alignment — 12 bytes with a
/// receive-time key, where `{K, u32, u8}` pads to 16, and 4 with the
/// batch path's `()`. A packed field is read by value (the accessors),
/// never borrowed.
#[derive(Clone, Copy, Default)]
#[repr(C, packed(4))]
struct Cell<K> {
    key: K,
    rid_ttl: u32,
}

const _: () = assert!(size_of::<Cell<u64>>() == 12 && size_of::<Cell<()>>() == 4);

impl<K: Copy> Cell<K> {
    #[inline]
    fn key(self) -> K {
        self.key
    }

    #[inline]
    fn rid(self) -> u32 {
        self.rid_ttl >> 8
    }

    #[inline]
    fn ttl(self) -> u8 {
        self.rid_ttl as u8
    }
}

/// Stable counting scatter: buckets rows into target-address order
/// (`order[r] = (word, tid)`) in two linear passes (count, then place),
/// Time Exceeded and Destination Unreachable rows apart (`[0]` and
/// `[1]` of everything returned): the bucketed cells plus the `n + 1`
/// bucket start offsets (rank-indexed). Both passes index one per-tid
/// array directly — one random access per row. Within a bucket the
/// input (record) order is preserved; that stability is what lets the
/// emit walk break ties for the earlier row without any comparison
/// sort.
fn scatter_by_rank<K: Copy + Default>(
    rows: &[Row<K>],
    order: &[(u128, u32)],
) -> ([Vec<Cell<K>>; 2], Vec<[u32; 2]>) {
    let n_targets = order.len();
    // Row counts by tid, then (same array) write cursors by tid, so the
    // place pass skips the tid → rank indirection.
    let mut cur = vec![[0u32; 2]; n_targets];
    for row in rows {
        cur[row.tid() as usize][row.unreach() as usize] += 1;
    }
    let mut starts = vec![[0u32; 2]; n_targets + 1];
    let mut acc = [0u32; 2];
    for (r, &(_, tid)) in order.iter().enumerate() {
        starts[r] = acc;
        let count = std::mem::replace(&mut cur[tid as usize], acc);
        acc = [acc[0] + count[0], acc[1] + count[1]];
    }
    starts[n_targets] = acc;
    let mut out = acc.map(|n| vec![Cell::default(); n as usize]);
    for row in rows {
        let slot = &mut cur[row.tid() as usize][row.unreach() as usize];
        out[row.unreach() as usize][*slot as usize] = Cell {
            key: row.key,
            rid_ttl: row.rid_ttl,
        };
        *slot += 1;
    }
    (out, starts)
}

/// The classified form of a record stream, ready for assembly: the
/// shared seam between the batch classify pass ([`TraceSet::from_log`])
/// and the incremental [`crate::builder::TraceSetBuilder`].
#[derive(Default)]
pub(crate) struct ClassifiedRows<K> {
    /// Responder interner — at assembly, ids as the final `TraceSet`
    /// will carry them (first-occurrence order over the classified
    /// rows, in key order). The streaming builder numbers responders as
    /// it meets them and renumbers at finish.
    pub interner: AddrInterner,
    /// Probed-target interner: dense `tid`s.
    pub tgt_ids: AddrInterner,
    /// Min destination-response TTL per tid; [`NOT_REACHED`] = none.
    pub reached: Vec<u16>,
    /// Time Exceeded and Destination Unreachable rows.
    pub rows: Vec<Row<K>>,
    /// Records dropped for failing the target checksum.
    pub rewritten_dropped: u64,
}

impl<K> ClassifiedRows<K> {
    /// Reads one record, whose target hashes to `target_hash`, into
    /// everything but `rows` — the one place a record's class is
    /// decided. A record failing the target checksum is counted and
    /// names no target. A destination response (echo reply, TCP, port
    /// unreachable from the host) lowers its target's `reached` TTL. A
    /// Time Exceeded or any other Destination Unreachable that quotes
    /// its hop limit is the row returned, ordered by `key`, for the
    /// caller to append to `rows` by its own growth rule.
    #[inline]
    pub(crate) fn classify(
        &mut self,
        r: &ResponseRecord,
        target_hash: u64,
        key: K,
    ) -> Option<Row<K>> {
        if !r.target_cksum_ok {
            self.rewritten_dropped += 1;
            return None;
        }
        let tid = self.tgt_ids.intern_hashed(r.target, target_hash);
        if tid as usize == self.reached.len() {
            self.reached.push(NOT_REACHED);
        }
        let unreach = match r.kind {
            ResponseKind::TimeExceeded => false,
            ResponseKind::DestUnreachable(c) if c != DestUnreachCode::PortUnreachable => true,
            _ => {
                let at = r.probe_ttl.unwrap_or(u8::MAX) as u16;
                self.reached[tid as usize] = self.reached[tid as usize].min(at);
                return None;
            }
        };
        let ttl = r.probe_ttl?;
        let rid = self.interner.intern(r.responder);
        Some(Row::new(key, tid, rid, ttl, unreach))
    }
}

/// Assembles classified rows into the final columnar store: target-
/// address ordering, the stable counting scatter, and the dedup/emit
/// walk.
///
/// A target's rows count in ascending `key` order, equal keys in row
/// order: the first Time Exceeded row wins its (target, ttl), and
/// Destination Unreachable rows are kept in that order. With `K = ()`
/// row order is the whole order (a receive-sorted log) and every key
/// comparison below compiles away; the streaming builder, whose rows
/// arrive in send order, passes receive times instead of sorting.
pub(crate) fn assemble<K: Copy + Ord + Default>(
    rows: ClassifiedRows<K>,
    vantage: Arc<str>,
    target_set: Arc<str>,
) -> TraceSet {
    let ClassifiedRows {
        interner,
        tgt_ids,
        reached,
        rows,
        rewritten_dropped,
    } = rows;
    let n_targets = tgt_ids.len();

    // Target-address order over the dense tid arena (the arena holds
    // every probed target, so no separate union pass exists). The
    // sort runs over materialized (word, tid) pairs — sorting ids
    // with an arena-lookup key would re-read random memory on every
    // comparison.
    let mut order: Vec<(u128, u32)> = tgt_ids
        .words()
        .iter()
        .enumerate()
        .map(|(tid, &w)| (w, tid as u32))
        .collect();
    order.sort_unstable();

    // Stable counting scatter: bucket rows straight into final
    // trace order, preserving record order within each bucket.
    let ([hop_cells, mut unreach_cells], starts) = scatter_by_rank(&rows, &order);
    drop(rows);

    // Emit walk. `ttl_slot[t]` holds (owner rank + 1, winning cell) —
    // the epoch trick avoids clearing 256 slots per trace.
    let mut ttl_slot = [(0u32, Cell::<K>::default()); 256];
    let mut cols = Columns::reserved([n_targets, unreach_cells.len()]);
    let mut tree = PathBuilder::default();
    for (r, &(word, tid)) in order.iter().enumerate() {
        let epoch = r as u32 + 1;
        let bucket = &hop_cells[starts[r][0] as usize..starts[r + 1][0] as usize];
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for &cell in bucket {
            let ttl = cell.ttl() as usize;
            let slot = &mut ttl_slot[ttl];
            // Bucket order is row order, so an equal key never takes a
            // claimed slot.
            if slot.0 != epoch || cell.key() < slot.1.key() {
                *slot = (epoch, cell);
                lo = lo.min(ttl);
                hi = hi.max(ttl);
            }
        }
        if lo != usize::MAX {
            for (t, &(e, cell)) in ttl_slot.iter().enumerate().take(hi + 1).skip(lo) {
                if e == epoch {
                    tree.push(t as u8, cell.rid());
                }
            }
        }
        let bucket = &mut unreach_cells[starts[r][1] as usize..starts[r + 1][1] as usize];
        if bucket.windows(2).any(|w| w[1].key() < w[0].key()) {
            bucket.sort_by_key(|cell| cell.key());
        }
        cols.unreach_ttls
            .extend(bucket.iter().map(|cell| cell.ttl()));
        cols.unreach_ids
            .extend(bucket.iter().map(|cell| cell.rid()));
        let at = reached[tid as usize];
        cols.end_trace(
            Ipv6Addr::from(word),
            tree.end(),
            (at != NOT_REACHED).then_some(at as u8),
        );
    }
    cols.nodes = tree.finish();
    TraceSet {
        vantage,
        target_set,
        rewritten_dropped,
        interner: Arc::new(interner),
        cols: Arc::new(cols),
    }
}

impl TraceSet {
    /// Builds traces from a probe log in one classify pass plus a
    /// *stable* counting scatter — no comparison sort, no `seq` keys:
    ///
    /// * targets are interned to dense `tid`s, so the destination-
    ///   response class updates a flat `reached_at[tid]` min-column —
    ///   no rows at all;
    /// * Time-Exceeded hops become 8-byte `(tid, responder id, ttl)`
    ///   rows, bucketed by the target's *rank* (position in address
    ///   order) with one counting scatter into 4-byte cells; the
    ///   scatter is stable, so each bucket keeps record order and
    ///   "first record wins per (target, ttl)" — the map pipeline's
    ///   exact semantics — falls out of a 256-slot TTL scratch, no
    ///   per-bucket sort;
    /// * Destination Unreachable rows ride the same scatter; their
    ///   bucket order *is* the required record order, copied verbatim;
    /// * the winners land in the set's path-prefix tree, which finds a
    ///   cell's node on the previous trace's path while the two paths
    ///   agree, and hashes it only after they diverge.
    pub fn from_log(log: &ProbeLog) -> Self {
        // The log says how many targets were probed; no log has more
        // distinct ones than records.
        let n_targets = usize::try_from(log.traces)
            .unwrap_or(usize::MAX)
            .min(log.records.len());
        // Record order, which for a log is receive order: no key.
        let mut classified = ClassifiedRows::<()> {
            // Responders are counted only by reading the log: start at
            // the table a thousand would fill.
            interner: AddrInterner::with_room_for(1024),
            tgt_ids: AddrInterner::with_room_for(n_targets),
            reached: Vec::with_capacity(n_targets),
            rows: Vec::with_capacity(log.records.len() / 2),
            rewritten_dropped: 0,
        };
        // Probe the target table a window ahead so slot misses overlap
        // instead of serializing (a HashMap cannot expose its bucket
        // address to do this).
        for (r, hash, ahead) in hashed_ahead(&log.records, |r| r.target) {
            if let Some(ahead) = ahead {
                classified.tgt_ids.prefetch_hashed(ahead);
            }
            if let Some(row) = classified.classify(r, hash, ()) {
                classified.rows.push(row);
            }
        }
        assemble(classified, log.vantage.clone(), log.target_set.clone())
    }

    /// Number of traces with at least one response.
    pub fn len(&self) -> usize {
        self.cols.targets.len()
    }

    /// True when no responses were recorded.
    pub fn is_empty(&self) -> bool {
        self.cols.targets.is_empty()
    }

    /// The probed targets, ascending.
    pub fn targets(&self) -> &[Ipv6Addr] {
        &self.cols.targets
    }

    /// The path-prefix tree of the set's hop cells, in canonical order
    /// (see [`PathNode`]): each trace's path ends at its
    /// [`TraceView::leaf`].
    pub fn path_nodes(&self) -> &[PathNode] {
        &self.cols.nodes
    }

    /// The interface-address table. Sets may share one (the sets
    /// [`rebase`](Self::rebase) moves do), and [`union`] maps a shared
    /// table, or one that extends another, without hashing.
    pub fn interner(&self) -> &Arc<AddrInterner> {
        &self.interner
    }

    /// Per-round incremental discovery delta: every responder interface
    /// in this set that is not yet in `seen`, in first-discovery
    /// (interner id) order, inserting each into `seen` as it goes.
    ///
    /// This is a straight walk of the interner's word column — no
    /// per-record work, no re-derivation from the hop cells — so a
    /// multi-round orchestrator pays O(unique interfaces) per round to
    /// learn what the round newly earned, and a shared `seen` set
    /// guarantees no interface is ever counted (or re-fed into target
    /// generation) twice across rounds.
    pub fn discovery_delta(&self, seen: &mut AddrSet) -> Vec<Ipv6Addr> {
        let mut fresh = Vec::new();
        for &w in self.interner.words() {
            let addr = Ipv6Addr::from(w);
            if seen.insert(addr) {
                fresh.push(addr);
            }
        }
        fresh
    }

    /// Unique *interface* address words of this set — the distinct
    /// responders referenced by Time-Exceeded hop cells (the paper's
    /// "Rtr Int Addrs"; Destination Unreachable responders are in the
    /// interner but are not interfaces in this sense) — sorted
    /// ascending. One flat pass over the path nodes, each a distinct
    /// hop cell, plus a per-id bitmap; no address re-hashing.
    pub fn interface_words(&self) -> Vec<u128> {
        let mut seen = vec![false; self.interner.len()];
        for node in &self.cols.nodes {
            seen[node.id() as usize] = true;
        }
        let words = self.interner.words().iter().zip(&seen);
        let mut out: Vec<u128> = words.filter_map(|(&w, &s)| s.then_some(w)).collect();
        out.sort_unstable();
        out
    }

    /// [`interface_words`](Self::interface_words) as addresses.
    pub fn interface_addrs(&self) -> Vec<Ipv6Addr> {
        self.interface_words()
            .into_iter()
            .map(Ipv6Addr::from)
            .collect()
    }

    /// Unions columnar sets into one — the cross-vantage merge. Returns
    /// an empty default set for an empty iterator.
    ///
    /// * **Interner union with id remapping**: the result's interner
    ///   keeps the first set's ids verbatim and appends each later set's
    ///   unseen addresses in that set's id order (first appearance,
    ///   input-major), so the merged interner is the *full* union of
    ///   every campaign's discovered responders — including responders
    ///   whose traces lose the dedup below. Union discovery yield is
    ///   therefore never undercounted. A set sharing the first set's
    ///   table (sets rebased onto one) is copied without a remap.
    /// * **First-wins per-target trace dedup**: where several sets
    ///   probed the same target, the earliest set's whole trace (hops,
    ///   unreachables, `reached_at`) is kept and the others are dropped
    ///   from the trace columns — deterministic for the multi-vantage
    ///   drivers, which merge in vantage order.
    /// * `rewritten_dropped` adds; the `vantage`/`target_set` names
    ///   join with `+` when they differ. That joined name is all the
    ///   result knows of its inputs: a trace does not record which one
    ///   it came from. Per-vantage answers (each vantage's interfaces,
    ///   what only it found) come from the inputs themselves.
    ///
    /// Merging is commutative and associative *up to canonical form*
    /// ([`canonical`](Self::canonical)) whenever the operands' target
    /// sets are disjoint or agree on shared traces; with conflicting
    /// shared targets the first operand's trace wins by design. Merging
    /// a set with itself returns the same observations
    /// (`merge_all([&a, &a]) == a` when `rewritten_dropped` is zero; the
    /// tamper counter is additive).
    ///
    /// One union of the tables, then one k-way walk, equal to the left
    /// fold of the two-set union: each surviving unreachable cell is
    /// copied once, into a column reserved at exactly its final length,
    /// each input path node a surviving trace reaches is mapped once,
    /// through a memo per input, and each input word interned once,
    /// where a fold re-copies and re-hashes the accumulated set at every
    /// step. The `merge_props` suite pins
    /// it against that fold written out over addresses
    /// (`testkit::oracle::merge_fold`).
    pub fn merge_all<'a>(sets: impl IntoIterator<Item = &'a TraceSet>) -> TraceSet {
        let refs: Vec<&TraceSet> = sets.into_iter().collect();
        match refs.len() {
            0 => return TraceSet::default(),
            1 => return refs[0].clone(),
            _ => {}
        }
        let mut interner = Arc::clone(&refs[0].interner);
        let id_remaps = union(&mut interner, refs.iter().map(|s| &s.interner));
        // Names and tamper counter fold left; `join_names` dedups, so
        // any grouping agrees.
        let mut vantage = refs[0].vantage.clone();
        let mut target_set = refs[0].target_set.clone();
        let mut rewritten_dropped = refs[0].rewritten_dropped;
        for s in &refs[1..] {
            vantage = join_names(&vantage, &s.vantage);
            target_set = join_names(&target_set, &s.target_set);
            rewritten_dropped += s.rewritten_dropped;
        }

        // The owner walk runs twice: once to size every column at
        // exactly what survives dedup (inputs over the same targets
        // would otherwise reserve their sum), once to copy.
        let (mut n_targets, mut n_unreach) = (0usize, 0usize);
        for (i, idx) in owner_walk(&refs) {
            n_targets += 1;
            n_unreach += refs[i].cols.unreach_range(idx).len();
        }
        assert!(
            n_unreach <= u32::MAX as usize,
            "one trace set holds at most 2^32 - 1 unreachable cells"
        );
        let mut cols = Columns::reserved([n_targets, n_unreach]);
        let mut tree = PathBuilder::default();
        // Each input node's node in the result; `ROOT` until mapped.
        let mut memos: Vec<Vec<u32>> = refs
            .iter()
            .map(|s| vec![ROOT; s.cols.nodes.len()])
            .collect();
        for (i, idx) in owner_walk(&refs) {
            let (src, remap) = (&*refs[i].cols, id_remaps[i].as_deref());
            let leaf = tree.graft(&src.nodes, &mut memos[i], src.leaves[idx], remap);
            let unreach = src.unreach_range(idx);
            cols.unreach_ttls
                .extend_from_slice(&src.unreach_ttls[unreach.clone()]);
            extend_ids(&mut cols.unreach_ids, &src.unreach_ids[unreach], remap);
            cols.end_trace(src.targets[idx], leaf, src.reached[idx]);
        }
        cols.nodes = tree.finish();
        TraceSet {
            vantage,
            target_set,
            rewritten_dropped,
            interner,
            cols: Arc::new(cols),
        }
    }

    /// Moves `sets` onto one table: one [`union`] extends `table` by
    /// their tables, then each set's ids are remapped through its map
    /// and the set shares `table`. Returns the maps, in input order
    /// (`None`: the set's table is a prefix of the union, and its ids
    /// stand). Every cell resolves to the address it did, so no view of
    /// a set changes; only its interner holds more words. A map is one
    /// to one, so the path tree keeps its shape: only its nodes' ids
    /// move, O(nodes).
    ///
    /// A table the union extended is held at its length: the copy of a
    /// shared table is exact, so its first new word doubles its word
    /// column, and once shared it never grows again.
    ///
    /// A set whose ids are remapped and whose columns another set shares
    /// gets its own copy of the columns first; the other set keeps the
    /// ids it had.
    pub fn rebase<'s>(
        table: &mut Arc<AddrInterner>,
        sets: impl IntoIterator<Item = &'s mut TraceSet>,
    ) -> Vec<Option<Vec<u32>>> {
        let mut sets: Vec<&mut TraceSet> = sets.into_iter().collect();
        let maps = union(table, sets.iter().map(|s| &s.interner));
        if let Some(own) = Arc::get_mut(table) {
            own.shrink_words();
        }
        for (set, map) in sets.iter_mut().zip(&maps) {
            if let Some(m) = map {
                let cols = Columns::make_mut(&mut set.cols);
                for node in &mut cols.nodes {
                    node.set_id(m[node.id() as usize]);
                }
                for id in &mut cols.unreach_ids {
                    *id = m[*id as usize];
                }
            }
            set.interner = Arc::clone(table);
        }
        maps
    }

    /// The canonically re-interned form of this set: interner ids are
    /// reassigned by first use in a deterministic walk (traces in
    /// target order, each trace's hop cells then unreachable cells),
    /// with addresses referenced by no surviving cell — dedup losers,
    /// and whole traces lost to merge dedup — appended afterwards in
    /// ascending address order.
    ///
    /// Two sets holding the same observations through different
    /// assembly histories (different merge orders; a merge of split
    /// logs vs `from_log` of their concatenation) differ only in id
    /// assignment; their canonical forms compare bit-identical under
    /// `PartialEq`. The trace columns, targets, and counters are
    /// untouched apart from the id rewrite.
    ///
    /// Consumes the set: the ids are rewritten in place, everything
    /// else is moved, and only the new interner is allocated — once, at
    /// its final size. A caller that keeps its input canonicalizes a
    /// clone, and the columns that clone shares are copied once, before
    /// the rewrite. The walk is O(nodes), not O(hop cells): in canonical
    /// node order the cells a trace meets first are the block of nodes
    /// from the first no earlier trace reached to its leaf, and every
    /// other cell of it repeats an id met before.
    pub fn canonical(mut self) -> TraceSet {
        let mut ids = Reintern::new(&self.interner);
        let cols = Columns::make_mut(&mut self.cols);
        for (idx, fresh) in first_reached(&cols.leaves).enumerate() {
            for node in &mut cols.nodes[fresh] {
                node.set_id(ids.id(node.id()));
            }
            for id in &mut cols.unreach_ids[cell_range(&cols.unreach_ends, idx)] {
                *id = ids.id(*id);
            }
        }
        // Unreferenced remainder in a history-free order.
        let mut rest: Vec<u128> = (0..self.interner.len())
            .filter(|&id| !ids.touched(id))
            .map(|id| self.interner.words()[id])
            .collect();
        rest.sort_unstable();
        let mut interner = ids.finish();
        for w in rest {
            interner.intern(Ipv6Addr::from(w));
        }
        self.interner = Arc::new(interner);
        self
    }

    /// Iterates traces in target order — a slice walk, no re-sort.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TraceView<'_>> + Clone {
        (0..self.len()).map(move |idx| TraceView { set: self, idx })
    }

    /// The trace at position `idx` in target order.
    pub fn view_at(&self, idx: usize) -> TraceView<'_> {
        assert!(idx < self.len());
        TraceView { set: self, idx }
    }

    /// The trace toward `target`, via binary search.
    pub fn get(&self, target: Ipv6Addr) -> Option<TraceView<'_>> {
        let w = u128::from(target);
        self.cols
            .targets
            .binary_search_by_key(&w, |&t| u128::from(t))
            .ok()
            .map(|idx| TraceView { set: self, idx })
    }
}

/// Appends `ids`, each translated through `remap` when there is one.
fn extend_ids(out: &mut Vec<u32>, ids: &[u32], remap: Option<&[u32]>) {
    match remap {
        None => out.extend_from_slice(ids),
        Some(r) => out.extend(ids.iter().map(|&id| r[id as usize])),
    }
}

/// The k-way owner walk of [`TraceSet::merge_all`]: `(input, index)` of
/// every surviving trace, in target order. Each step takes the smallest
/// pending target; the lowest-index input holding it owns the surviving
/// trace (leftmost wins, as in the fold) and every input at that target
/// advances.
fn owner_walk<'s>(sets: &'s [&'s TraceSet]) -> impl Iterator<Item = (usize, usize)> + 's {
    let mut cursors = vec![0usize; sets.len()];
    std::iter::from_fn(move || {
        let mut min: Option<u128> = None;
        for (s, &c) in sets.iter().zip(&cursors) {
            if let Some(&t) = s.cols.targets.get(c) {
                let w = u128::from(t);
                if min.is_none_or(|m| w < m) {
                    min = Some(w);
                }
            }
        }
        let min = min?;
        let mut owner: Option<usize> = None;
        for (i, (s, c)) in sets.iter().zip(&mut cursors).enumerate() {
            if s.cols
                .targets
                .get(*c)
                .is_some_and(|&t| u128::from(t) == min)
            {
                if owner.is_none() {
                    owner = Some(i);
                }
                *c += 1;
            }
        }
        let i = owner.expect("min target has an owner");
        Some((i, cursors[i] - 1))
    })
}

/// Joins two campaign-identity names for a merged set: the
/// `+`-separated union of both sides' *distinct* components in
/// first-appearance order — `merge_all` over the three vantages yields
/// `"EU-NET+US-EDU-1+US-EDU-2"`, and re-merging sets that share
/// components (an adaptive run folding the same vantages round after
/// round) never repeats one or grows the name unboundedly. An empty
/// side (the `Default` identity) contributes nothing.
fn join_names(a: &Arc<str>, b: &Arc<str>) -> Arc<str> {
    if a == b || b.is_empty() {
        return a.clone();
    }
    if a.is_empty() {
        return b.clone();
    }
    let parts: Vec<&str> = a.split('+').collect();
    let fresh: Vec<&str> = b.split('+').filter(|p| !parts.contains(p)).collect();
    if fresh.is_empty() {
        a.clone()
    } else {
        let mut out = String::from(&**a);
        for p in fresh {
            out.push('+');
            out.push_str(p);
        }
        out.into()
    }
}

/// One trace's Destination Unreachable cells, `(ttl, id)`, in record
/// order, read from the set's two parallel unreachable columns. Ids
/// resolve through [`TraceSet::interner`]; id equality is address
/// equality. A trace's hop cells are a path instead, [`HopCells`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Cells<'a> {
    ttls: &'a [u8],
    ids: &'a [u32],
}

impl<'a> Cells<'a> {
    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the trace has no such cell.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The cells as `(ttl, id)`, in column order.
    #[inline]
    pub fn iter(&self) -> CellIter<'a> {
        self.ttls.iter().copied().zip(self.ids.iter().copied())
    }

    /// The last cell, in record order.
    #[inline]
    pub fn last(&self) -> Option<(u8, u32)> {
        Some((*self.ttls.last()?, *self.ids.last()?))
    }

    /// The cells' hop limits.
    #[inline]
    pub fn ttls(&self) -> &'a [u8] {
        self.ttls
    }

    /// The cells' ids, parallel to [`ttls`](Self::ttls).
    #[inline]
    pub fn ids(&self) -> &'a [u32] {
        self.ids
    }
}

/// The iterator of [`Cells::iter`].
pub type CellIter<'a> = Zip<Copied<slice::Iter<'a, u8>>, Copied<slice::Iter<'a, u32>>>;

impl<'a> IntoIterator for Cells<'a> {
    type Item = (u8, u32);
    type IntoIter = CellIter<'a>;

    #[inline]
    fn into_iter(self) -> CellIter<'a> {
        self.iter()
    }
}

impl std::fmt::Debug for Cells<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A borrowed view of one trace inside the flat store: its row of the
/// set's per-trace columns, through its leaf its path of hop cells, and
/// through its end its range of the unreachable columns.
#[derive(Clone, Copy)]
pub struct TraceView<'a> {
    set: &'a TraceSet,
    idx: usize,
}

impl<'a> TraceView<'a> {
    /// The probed destination.
    #[inline]
    pub fn target(&self) -> Ipv6Addr {
        self.set.cols.targets[self.idx]
    }

    /// Position of this trace in target order.
    #[inline]
    pub(crate) fn index(&self) -> usize {
        self.idx
    }

    /// Smallest TTL at which the destination itself answered, if any.
    #[inline]
    pub fn reached_at(&self) -> Option<u8> {
        self.set.cols.reached[self.idx]
    }

    /// The raw hop cells `(ttl, iface_id)`, ttl strictly ascending: the
    /// trace's path in the set's path-prefix tree. Its length and last
    /// cell are O(1), and iterating it allocates nothing.
    #[inline]
    pub fn hop_cells(&self) -> HopCells<'a> {
        self.set.cols.hop_cells(self.idx)
    }

    /// The trace's deepest hop cell, a node of
    /// [`TraceSet::path_nodes`]; `None` for a trace without hops.
    #[inline]
    pub fn leaf(&self) -> Option<u32> {
        let leaf = self.set.cols.leaves[self.idx];
        (leaf != ROOT).then_some(leaf)
    }

    /// Hops as `(ttl, address)`, ttl ascending.
    pub fn hops(&self) -> impl ExactSizeIterator<Item = (u8, Ipv6Addr)> + 'a {
        let interner = &self.set.interner;
        self.hop_cells()
            .iter()
            .map(move |(ttl, id)| (ttl, interner.resolve(id)))
    }

    /// The raw Destination Unreachable cells `(ttl, responder_id)`, in
    /// record order.
    #[inline]
    pub fn unreachable_cells(&self) -> Cells<'a> {
        let cols = &*self.set.cols;
        let r = cols.unreach_range(self.idx);
        Cells {
            ttls: &cols.unreach_ttls[r.clone()],
            ids: &cols.unreach_ids[r],
        }
    }

    /// Destination Unreachable responses as `(ttl, responder)`.
    pub fn unreachable(&self) -> impl ExactSizeIterator<Item = (u8, Ipv6Addr)> + 'a {
        let interner = &self.set.interner;
        self.unreachable_cells()
            .iter()
            .map(move |(ttl, id)| (ttl, interner.resolve(id)))
    }

    /// Estimated path length in router hops: the TTL of the destination
    /// response when reached, else the deepest responding hop (a lower
    /// bound).
    pub fn path_len(&self) -> Option<u8> {
        self.reached_at()
            .or_else(|| self.hop_cells().last().map(|(ttl, _)| ttl))
    }

    /// The deepest responding hop address (the "last hop" of §6).
    pub fn last_hop(&self) -> Option<(u8, Ipv6Addr)> {
        self.hop_cells()
            .last()
            .map(|(t, id)| (t, self.set.interner.resolve(id)))
    }

    /// The hop sequence `ttl=1..=k` with gaps as `None`, up to the
    /// deepest response. Compatibility helper — the analysis passes walk
    /// [`hop_cells`](Self::hop_cells) directly instead of materializing
    /// this.
    pub fn hop_vec(&self) -> Vec<Option<Ipv6Addr>> {
        let cells = self.hop_cells();
        let Some((max, _)) = cells.last() else {
            return Vec::new();
        };
        let mut out = vec![None; max as usize];
        for (ttl, id) in cells.deepest_first() {
            // The sequence starts at ttl 1; a (nonsensical but
            // representable) ttl-0 hop is dropped here, as the map
            // reference's `(1..=max)` range did.
            if ttl > 0 {
                out[ttl as usize - 1] = Some(self.set.interner.resolve(id));
            }
        }
        out
    }

    /// True when both views report the same observations — identical
    /// `(ttl, address)` hop sequences, the same destination-response
    /// TTL, and the same unreachable cells *as a multiset* — regardless
    /// of which set (and thus which interner id assignment) each view
    /// lives in. The change detector of snapshot-vs-snapshot
    /// comparison.
    ///
    /// Hop cells compare in order (they are TTL-ascending and deduped,
    /// so the order is canonical). Unreachable cells keep record
    /// (receive) order, which follows the prober's randomized schedule
    /// — two probes of an unchanged target from differently composed
    /// campaigns interleave differently — so they compare sorted.
    pub fn same_observations(&self, other: &TraceView<'_>) -> bool {
        if self.reached_at() != other.reached_at() || !self.hops().eq(other.hops()) {
            return false;
        }
        let mut a: Vec<(u8, Ipv6Addr)> = self.unreachable().collect();
        let mut b: Vec<(u8, Ipv6Addr)> = other.unreachable().collect();
        a.sort_unstable();
        b.sort_unstable();
        a == b
    }
}

/// Resolves addresses to origin ASNs using the *public* view: BGP,
/// registry-only prefixes, and declared ASN equivalences (§6's two
/// augmentations).
#[derive(Clone, Debug)]
pub struct AsnResolver {
    bgp: BgpTable,
    extra: Vec<(Ipv6Prefix, Asn)>,
}

impl AsnResolver {
    /// Builds a resolver; `extra` are the registry-only prefixes and
    /// `equivalences` the sibling-ASN declarations.
    pub fn new(bgp: BgpTable, extra: Vec<(Ipv6Prefix, Asn)>, equivalences: &[(Asn, Asn)]) -> Self {
        let mut bgp = bgp;
        for &(a, b) in equivalences {
            bgp.declare_equivalent(a, b);
        }
        AsnResolver { bgp, extra }
    }

    /// Origin ASN under the augmented view.
    pub fn origin(&self, addr: Ipv6Addr) -> Option<Asn> {
        self.bgp.origin(addr).or_else(|| self.registry_origin(addr))
    }

    /// [`Self::origin`] with the BGP lookup resumed from `finger` (see
    /// [`v6addr::PrefixTrie::longest_match_from`]): for a caller whose
    /// addresses come sorted.
    pub(crate) fn origin_from(&self, finger: &mut Finger, addr: Ipv6Addr) -> Option<Asn> {
        self.bgp
            .origin_from(finger, addr)
            .or_else(|| self.registry_origin(addr))
    }

    /// Origin by the registry-only prefixes alone.
    fn registry_origin(&self, addr: Ipv6Addr) -> Option<Asn> {
        self.extra
            .iter()
            .find(|(p, _)| p.contains_addr(addr))
            .map(|&(_, a)| a)
    }

    /// Are two ASNs the same organization?
    pub fn same_org(&self, a: Asn, b: Asn) -> bool {
        self.bgp.same_org(a, b)
    }
}

#[cfg(test)]
impl TraceSet {
    /// Reserved but unused slots of the `targets`, `leaves`,
    /// `unreach_ends`, `reached`, `nodes`, `unreach_ttls` and
    /// `unreach_ids` columns, in that order.
    pub(crate) fn spare_capacity(&self) -> [usize; 7] {
        fn spare<T>(v: &Vec<T>) -> usize {
            v.capacity() - v.len()
        }
        [
            spare(&self.cols.targets),
            spare(&self.cols.leaves),
            spare(&self.cols.unreach_ends),
            spare(&self.cols.reached),
            spare(&self.cols.nodes),
            spare(&self.cols.unreach_ttls),
            spare(&self.cols.unreach_ids),
        ]
    }

    /// Bytes the node table and the two unreachable columns hold, by
    /// capacity: what a set's cells cost the heap.
    pub(crate) fn cell_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        bytes(&self.cols.nodes) + bytes(&self.cols.unreach_ttls) + bytes(&self.cols.unreach_ids)
    }

    /// Bytes the target and per-trace metadata columns hold, by
    /// capacity: what a set's traces cost the heap beyond their cells.
    pub(crate) fn trace_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        bytes(&self.cols.targets)
            + bytes(&self.cols.leaves)
            + bytes(&self.cols.unreach_ends)
            + bytes(&self.cols.reached)
    }

    /// Panics unless the columns are laid out as every constructor lays
    /// them out: one row per trace in each per-trace column, unreachable
    /// columns of equal length, ends that never decrease and stop at
    /// their column's length, and a node table in canonical order — each
    /// trace's leaf is the root or a node, the nodes a trace reaches
    /// first are the block after every node an earlier trace reached,
    /// ending at its leaf, every node is reached, a child's hop limit is
    /// above its parent's, its rank one more, and no two nodes hold the
    /// same cell below the same parent.
    pub(crate) fn assert_tiled(&self) {
        let cols = &*self.cols;
        let n = cols.targets.len();
        let rows = [
            cols.leaves.len(),
            cols.unreach_ends.len(),
            cols.reached.len(),
        ];
        assert_eq!(rows, [n; 3], "one row per trace");
        let ends = &cols.unreach_ends;
        assert_eq!(
            cols.unreach_ttls.len(),
            cols.unreach_ids.len(),
            "unreach columns"
        );
        assert!(
            ends.windows(2).all(|w| w[0] <= w[1]),
            "unreach ends decrease"
        );
        let last = ends.last().map_or(0, |&end| end as usize);
        assert_eq!(
            last,
            cols.unreach_ids.len(),
            "unreach ends stop at the column's end"
        );

        let nodes = &cols.nodes;
        for (k, node) in nodes.iter().enumerate() {
            if let Some(p) = node.parent() {
                assert!((p as usize) < k, "node {k} precedes its parent");
                let parent = &nodes[p as usize];
                assert!(node.ttl() > parent.ttl(), "node {k}'s hop limit");
                assert_eq!(node.depth(), parent.depth() + 1, "node {k}'s depth");
            } else {
                assert_eq!(node.depth(), 1, "node {k}'s depth");
            }
        }
        let triples: std::collections::HashSet<_> = nodes
            .iter()
            .map(|n| (n.parent(), n.ttl(), n.id()))
            .collect();
        assert_eq!(triples.len(), nodes.len(), "a repeated node");
        let mut reached = 0;
        for (&leaf, fresh) in cols.leaves.iter().zip(first_reached(&cols.leaves)) {
            // The trace's path: the block it reaches first, below nodes
            // an earlier trace reached.
            let mut at = leaf;
            for n in fresh.clone().rev() {
                assert_eq!(at as usize, n, "a trace's new nodes are one block");
                at = nodes[n].parent().unwrap_or(ROOT);
            }
            assert!(at == ROOT || (at as usize) < fresh.start, "a reached node");
            reached = fresh.end;
        }
        assert_eq!(reached, nodes.len(), "a node no leaf reaches");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::fixtures::rec;

    #[test]
    fn a_row_is_two_words_and_keeps_every_field() {
        assert_eq!(size_of::<Row<u64>>(), 16);
        assert_eq!(size_of::<Row<()>>(), 8);
        let (tid, rid) = (Row::<u64>::TID_LIMIT - 1, Row::<u64>::RID_LIMIT - 1);
        assert_eq!((tid, rid), ((1 << 31) - 1, (1 << 24) - 1));
        for (tid, rid) in [(tid, rid), (0, rid), (tid, 0), (0, 0)] {
            for ttl in [0, 255] {
                for unreach in [false, true] {
                    let mut row = Row::new(u64::MAX, tid, rid, ttl, unreach);
                    let fields =
                        |r: &Row<u64>| (r.key, r.tid(), r.rid(), r.rid_ttl as u8, r.unreach());
                    assert_eq!(fields(&row), (u64::MAX, tid, rid, ttl, unreach));
                    row.set_rid(rid ^ 1);
                    assert_eq!(fields(&row), (u64::MAX, tid, rid ^ 1, ttl, unreach));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 2^24 distinct responders")]
    fn a_responder_id_past_the_row_limit_panics() {
        Row::new((), 0, 1 << 24, 1, false);
    }

    #[test]
    #[should_panic(expected = "at most 2^31 probed targets")]
    fn a_target_id_past_the_row_limit_panics() {
        Row::new((), 1 << 31, 0, 1, false);
    }

    #[test]
    fn reconstructs_hops_and_reach() {
        let mut log = ProbeLog::default();
        log.records.push(rec(
            "2001:db8::1",
            "::a",
            ResponseKind::TimeExceeded,
            Some(1),
        ));
        log.records.push(rec(
            "2001:db8::1",
            "::b",
            ResponseKind::TimeExceeded,
            Some(3),
        ));
        log.records.push(rec(
            "2001:db8::1",
            "2001:db8::1",
            ResponseKind::EchoReply,
            Some(4),
        ));
        log.records.push(rec(
            "2001:db8::1",
            "2001:db8::1",
            ResponseKind::EchoReply,
            Some(7),
        ));
        let ts = TraceSet::from_log(&log);
        let t = ts.get("2001:db8::1".parse().unwrap()).unwrap();
        assert_eq!(t.hop_cells().len(), 2);
        assert_eq!(t.reached_at(), Some(4));
        assert_eq!(t.path_len(), Some(4));
        assert_eq!(
            t.hop_vec(),
            vec![
                Some("::a".parse().unwrap()),
                None,
                Some("::b".parse().unwrap()),
            ]
        );
        assert_eq!(t.last_hop().unwrap().0, 3);
    }

    #[test]
    fn discovery_delta_is_incremental_and_ordered() {
        let mut log = ProbeLog::default();
        log.records.push(rec(
            "2001:db8::1",
            "::a",
            ResponseKind::TimeExceeded,
            Some(1),
        ));
        log.records.push(rec(
            "2001:db8::1",
            "::b",
            ResponseKind::TimeExceeded,
            Some(2),
        ));
        let ts1 = TraceSet::from_log(&log);
        log.records.push(rec(
            "2001:db8::2",
            "::b",
            ResponseKind::TimeExceeded,
            Some(2),
        ));
        log.records.push(rec(
            "2001:db8::2",
            "::c",
            ResponseKind::TimeExceeded,
            Some(3),
        ));
        let ts2 = TraceSet::from_log(&log);

        let mut seen = AddrSet::new();
        let first = ts1.discovery_delta(&mut seen);
        let a: Ipv6Addr = "::a".parse().unwrap();
        let b: Ipv6Addr = "::b".parse().unwrap();
        let c: Ipv6Addr = "::c".parse().unwrap();
        assert_eq!(first, vec![a, b]);
        // Round two only pays for the genuinely new interface.
        let second = ts2.discovery_delta(&mut seen);
        assert_eq!(second, vec![c]);
        assert_eq!(seen.len(), 3);
        // A repeat round discovers nothing.
        assert!(ts2.discovery_delta(&mut seen).is_empty());
    }

    #[test]
    fn first_te_record_wins_per_ttl() {
        let mut log = ProbeLog::default();
        log.records.push(rec(
            "2001:db8::1",
            "::a",
            ResponseKind::TimeExceeded,
            Some(2),
        ));
        log.records.push(rec(
            "2001:db8::1",
            "::b",
            ResponseKind::TimeExceeded,
            Some(2),
        ));
        let ts = TraceSet::from_log(&log);
        let t = ts.get("2001:db8::1".parse().unwrap()).unwrap();
        assert_eq!(
            t.hops().collect::<Vec<_>>(),
            vec![(2, "::a".parse().unwrap())]
        );
    }

    #[test]
    fn unreached_path_len_is_deepest_hop() {
        let mut log = ProbeLog::default();
        log.records.push(rec(
            "2001:db8::2",
            "::a",
            ResponseKind::TimeExceeded,
            Some(5),
        ));
        let ts = TraceSet::from_log(&log);
        let t = ts.get("2001:db8::2".parse().unwrap()).unwrap();
        assert_eq!(t.reached_at(), None);
        assert_eq!(t.path_len(), Some(5));
    }

    #[test]
    fn targets_sorted_and_interner_shared() {
        let mut log = ProbeLog::default();
        log.records.push(rec(
            "2001:db8::9",
            "::a",
            ResponseKind::TimeExceeded,
            Some(1),
        ));
        log.records.push(rec(
            "2001:db8::1",
            "::a",
            ResponseKind::TimeExceeded,
            Some(1),
        ));
        let ts = TraceSet::from_log(&log);
        let targets: Vec<Ipv6Addr> = ts.targets().to_vec();
        assert_eq!(
            targets,
            vec![
                "2001:db8::1".parse::<Ipv6Addr>().unwrap(),
                "2001:db8::9".parse::<Ipv6Addr>().unwrap(),
            ]
        );
        // Both traces' hop cells share one interned id for ::a.
        assert_eq!(ts.interner().len(), 1);
        let ids: Vec<Option<(u8, u32)>> = ts.iter().map(|t| t.hop_cells().last()).collect();
        assert_eq!(ids, vec![Some((1, 0)); 2]);
        // And one node: the same first hop.
        assert_eq!(ts.path_nodes().len(), 1);
    }

    fn log_named(vantage: &str, records: Vec<ResponseRecord>) -> ProbeLog {
        ProbeLog {
            vantage: vantage.into(),
            target_set: "merge-test".into(),
            records,
            ..Default::default()
        }
    }

    #[test]
    fn merge_unions_disjoint_targets_and_interners() {
        let a = TraceSet::from_log(&log_named(
            "V-A",
            vec![rec(
                "2001:db8::9",
                "::a",
                ResponseKind::TimeExceeded,
                Some(1),
            )],
        ));
        let b = TraceSet::from_log(&log_named(
            "V-B",
            vec![
                rec("2001:db8::1", "::b", ResponseKind::TimeExceeded, Some(2)),
                rec("2001:db8::1", "::a", ResponseKind::TimeExceeded, Some(3)),
            ],
        ));
        let m = TraceSet::merge_all([&a, &b]);
        assert_eq!(m.len(), 2);
        assert_eq!(&*m.vantage, "V-A+V-B");
        assert_eq!(&*m.target_set, "merge-test");
        // Targets sorted; ::1 (from b) precedes ::9 (from a).
        let t1 = m.view_at(0);
        assert_eq!(t1.target(), "2001:db8::1".parse::<Ipv6Addr>().unwrap());
        assert_eq!(
            t1.hops().collect::<Vec<_>>(),
            vec![
                (2, "::b".parse::<Ipv6Addr>().unwrap()),
                (3, "::a".parse::<Ipv6Addr>().unwrap())
            ]
        );
        let t9 = m.view_at(1);
        assert_eq!(
            t9.hops().collect::<Vec<_>>(),
            vec![(1, "::a".parse::<Ipv6Addr>().unwrap())]
        );
        // Interner: a's ids first (::a = 0), b's new words after
        // (::b = 1); b's ::a remapped onto a's id.
        assert_eq!(m.interner().len(), 2);
        assert_eq!(m.interner().resolve(0), "::a".parse::<Ipv6Addr>().unwrap());
        assert_eq!(m.interner().resolve(1), "::b".parse::<Ipv6Addr>().unwrap());
    }

    #[test]
    fn rebased_sets_share_one_table_and_read_the_same_addresses() {
        let te = ResponseKind::TimeExceeded;
        let a = TraceSet::from_log(&log_named(
            "V-A",
            vec![
                rec("2001:db8::1", "::a", te, Some(1)),
                rec("2001:db8::1", "::b", te, Some(2)),
            ],
        ));
        let b = TraceSet::from_log(&log_named(
            "V-B",
            vec![
                rec("2001:db8::2", "::c", te, Some(1)),
                rec("2001:db8::2", "::a", te, Some(2)),
            ],
        ));
        let hops = |s: &TraceSet| -> Vec<Vec<(u8, Ipv6Addr)>> {
            s.iter().map(|t| t.hops().collect()).collect()
        };
        let before = [hops(&a), hops(&b)];
        let prior = Arc::clone(a.interner());
        let (mut a2, mut b2) = (a.clone(), b.clone());
        let mut table = Arc::clone(&prior);
        let maps = TraceSet::rebase(&mut table, [&mut a2, &mut b2]);
        assert_eq!(maps, [None, Some(vec![2, 0])]);
        assert_eq!([hops(&a2), hops(&b2)], before);
        assert!(Arc::ptr_eq(a2.interner(), &table) && Arc::ptr_eq(b2.interner(), &table));
        // The table before is a prefix of the one after, left as it was.
        assert!(table.words().starts_with(prior.words()) && prior.len() == 2);
        // A set rebased onto its own table comes back unchanged.
        let maps = TraceSet::rebase(&mut table, [&mut a2]);
        assert_eq!(maps, [None]);
        assert!(Arc::ptr_eq(a2.interner(), &table));
        assert_eq!(
            TraceSet::merge_all([&a2, &b2]),
            TraceSet::merge_all([&a, &b])
        );
    }

    #[test]
    fn a_rebased_round_table_holds_no_spare_words() {
        // Three rounds of a loop's record: each round's sets move onto a
        // table that extends the last round's, which its sets still
        // share, so the union copies it before adding a word. At these
        // sizes the copy's word vector, doubled, would end with spare
        // words in every round.
        let te = ResponseKind::TimeExceeded;
        let words = |n: u32, v: u32| 5 + 3 * v + n;
        let round = |n: u32| -> Vec<TraceSet> {
            (0..2)
                .map(|v| {
                    let records = (0..words(n, v))
                        .map(|i| {
                            let target = format!("2001:db8::{n}:{v}:{i}");
                            rec(&target, &format!("::{n}:{v}:{i}"), te, Some(1))
                        })
                        .collect();
                    TraceSet::from_log(&log_named("V", records))
                })
                .collect()
        };
        let mut table = Arc::default();
        let (mut record, mut total) = (Vec::new(), 0);
        for n in 0..3 {
            let mut sets = round(n);
            let before = sets.iter().map(|s| s.interface_addrs()).collect::<Vec<_>>();
            TraceSet::rebase(&mut table, sets.iter_mut());
            total += words(n, 0) + words(n, 1);
            assert_eq!(table.len(), total as usize);
            assert_eq!(table.spare_words(), 0, "round {n}");
            let after = sets.iter().map(|s| s.interface_addrs()).collect::<Vec<_>>();
            assert_eq!(after, before, "round {n}");
            assert!(sets.iter().all(|s| Arc::ptr_eq(s.interner(), &table)));
            record.extend(sets);
        }
    }

    /// A copy of `ts` that shares nothing with it.
    fn deep_copy(ts: &TraceSet) -> TraceSet {
        TraceSet {
            interner: Arc::new(AddrInterner::clone(&ts.interner)),
            cols: Arc::new(Columns::clone(&ts.cols)),
            ..ts.clone()
        }
    }

    /// Two sets over the responders `::a`, `::b` and `::c`: the first
    /// interns `::b` before `::a`, so its canonical form renumbers both,
    /// and the second's `::a` is not at its id in the first's table.
    fn two_sets() -> [TraceSet; 2] {
        let te = ResponseKind::TimeExceeded;
        let a = TraceSet::from_log(&log_named(
            "V-A",
            vec![
                rec("2001:db8::9", "::b", te, Some(1)),
                rec("2001:db8::1", "::a", te, Some(1)),
            ],
        ));
        let b = TraceSet::from_log(&log_named(
            "V-B",
            vec![
                rec("2001:db8::2", "::c", te, Some(1)),
                rec("2001:db8::2", "::a", te, Some(2)),
            ],
        ));
        [a, b]
    }

    #[test]
    fn clones_and_stores_share_their_columns() {
        use crate::shard::ShardedTraceSet;
        let [ts, _] = two_sets();
        let clone = ts.clone();
        assert!(Arc::ptr_eq(&clone.cols, &ts.cols) && Arc::ptr_eq(&clone.interner, &ts.interner));
        let store = ShardedTraceSet::from_set(&ts, 4);
        assert!(Arc::ptr_eq(&store.shards()[0].cols, &ts.cols));
        assert!(Arc::ptr_eq(&store.to_trace_set().cols, &ts.cols));
        let merged = ShardedTraceSet::merge_all(std::slice::from_ref(&store));
        assert!(Arc::ptr_eq(&merged.to_trace_set().cols, &ts.cols));
    }

    #[test]
    fn a_write_to_shared_columns_leaves_the_other_set_as_it_was() {
        use crate::quarantine::{quarantine_all, QuarantineConfig};
        let [a, b] = two_sets();
        let (deep_a, deep_b) = (deep_copy(&a), deep_copy(&b));

        let canonical = a.clone().canonical();
        assert_ne!(canonical.cols.nodes, a.cols.nodes, "the ids move");
        assert!(!Arc::ptr_eq(&canonical.cols, &a.cols));
        assert_eq!(a, deep_a);

        let mut moved = b.clone();
        let maps = TraceSet::rebase(&mut Arc::clone(a.interner()), [&mut moved]);
        assert!(maps[0].is_some(), "the ids move");
        assert!(!Arc::ptr_eq(&moved.cols, &b.cols));
        assert_eq!(b, deep_b);

        // A hop past the plausible depth, so the scrub rebuilds the set.
        let config = QuarantineConfig {
            max_plausible_ttl: 1,
            ..QuarantineConfig::default()
        };
        let shared = b.clone();
        let (cleaned, report) = quarantine_all(&[&shared], &config);
        assert_eq!(report.cells_dropped(), 1);
        assert!(matches!(cleaned[0], std::borrow::Cow::Owned(_)));
        assert_eq!(b, deep_b);
        assert_eq!(shared, deep_b);
    }

    #[test]
    fn a_write_to_unshared_columns_copies_nothing() {
        let [a, b] = two_sets();
        let mut moved = b;
        let before = Arc::as_ptr(&moved.cols);
        let maps = TraceSet::rebase(&mut Arc::clone(a.interner()), [&mut moved]);
        assert!(maps[0].is_some(), "the ids move");
        assert_eq!(Arc::as_ptr(&moved.cols), before);
        let before = Arc::as_ptr(&a.cols);
        assert_eq!(Arc::as_ptr(&a.canonical().cols), before);
    }

    #[test]
    fn merge_first_wins_on_shared_targets_but_interner_keeps_both() {
        let a = TraceSet::from_log(&log_named(
            "V-A",
            vec![rec(
                "2001:db8::1",
                "::a",
                ResponseKind::TimeExceeded,
                Some(1),
            )],
        ));
        let b = TraceSet::from_log(&log_named(
            "V-B",
            vec![rec(
                "2001:db8::1",
                "::b",
                ResponseKind::TimeExceeded,
                Some(2),
            )],
        ));
        let m = TraceSet::merge_all([&a, &b]);
        assert_eq!(m.len(), 1);
        let t = m.view_at(0);
        // a's trace wins wholesale...
        assert_eq!(
            t.hops().collect::<Vec<_>>(),
            vec![(1, "::a".parse::<Ipv6Addr>().unwrap())]
        );
        // ...but b's responder still counts toward union discovery.
        assert_eq!(m.interner().len(), 2);
        // The hop-referenced interfaces exclude the dedup loser.
        assert_eq!(
            m.interface_addrs(),
            vec!["::a".parse::<Ipv6Addr>().unwrap()]
        );
        // Reversed merge order flips the winner.
        let r = TraceSet::merge_all([&b, &a]);
        assert_eq!(
            r.view_at(0).hops().collect::<Vec<_>>(),
            vec![(2, "::b".parse::<Ipv6Addr>().unwrap())]
        );
    }

    #[test]
    fn merge_is_idempotent_on_observations_and_sums_drops() {
        let mut records = vec![
            rec("2001:db8::1", "::a", ResponseKind::TimeExceeded, Some(1)),
            rec("2001:db8::2", "::b", ResponseKind::TimeExceeded, Some(2)),
            rec(
                "2001:db8::1",
                "2001:db8::1",
                ResponseKind::EchoReply,
                Some(3),
            ),
        ];
        let a = TraceSet::from_log(&log_named("V", records.clone()));
        let aa = TraceSet::merge_all([&a, &a]);
        assert_eq!(aa, a, "self-merge must be a no-op");
        assert_eq!(&*aa.vantage, "V");

        // The tamper counter is additive by design.
        records[0].target_cksum_ok = false;
        let d = TraceSet::from_log(&log_named("V", records));
        assert_eq!(d.rewritten_dropped, 1);
        assert_eq!(TraceSet::merge_all([&d, &d]).rewritten_dropped, 2);
    }

    #[test]
    fn canonical_reassigns_ids_in_walk_order() {
        // Build a set whose interner order (record order) differs from
        // trace-walk order: target ::9's record comes first, but ::1
        // sorts first.
        let ts = TraceSet::from_log(&log_named(
            "V",
            vec![
                rec("2001:db8::9", "::b", ResponseKind::TimeExceeded, Some(1)),
                rec("2001:db8::1", "::a", ResponseKind::TimeExceeded, Some(1)),
            ],
        ));
        assert_eq!(ts.interner().resolve(0), "::b".parse::<Ipv6Addr>().unwrap());
        let c = ts.clone().canonical();
        // Walk order visits ::1's trace first, so ::a takes id 0.
        assert_eq!(c.interner().resolve(0), "::a".parse::<Ipv6Addr>().unwrap());
        assert_eq!(c.interner().resolve(1), "::b".parse::<Ipv6Addr>().unwrap());
        // Same observations either way.
        for (t, u) in ts.iter().zip(c.iter()) {
            assert_eq!(t.target(), u.target());
            assert_eq!(t.hops().collect::<Vec<_>>(), u.hops().collect::<Vec<_>>());
        }
        // Canonicalizing is itself idempotent.
        assert_eq!(c.clone().canonical(), c);
    }

    #[test]
    fn merge_all_folds_left_and_handles_empty() {
        assert!(TraceSet::merge_all(std::iter::empty::<&TraceSet>()).is_empty());
        let a = TraceSet::from_log(&log_named(
            "A",
            vec![rec(
                "2001:db8::1",
                "::a",
                ResponseKind::TimeExceeded,
                Some(1),
            )],
        ));
        let b = TraceSet::from_log(&log_named(
            "B",
            vec![rec(
                "2001:db8::2",
                "::b",
                ResponseKind::TimeExceeded,
                Some(1),
            )],
        ));
        let c = TraceSet::from_log(&log_named(
            "C",
            vec![rec(
                "2001:db8::3",
                "::c",
                ResponseKind::TimeExceeded,
                Some(1),
            )],
        ));
        let m = TraceSet::merge_all([&a, &b, &c]);
        assert_eq!(m.len(), 3);
        assert_eq!(&*m.vantage, "A+B+C");
        assert_eq!(m, TraceSet::merge_all([&TraceSet::merge_all([&a, &b]), &c]));
        // Each trace is its one holder's.
        let hops: Vec<Vec<(u8, Ipv6Addr)>> = m.iter().map(|t| t.hops().collect()).collect();
        let owners: Vec<Vec<(u8, Ipv6Addr)>> = [&a, &b, &c]
            .iter()
            .map(|s| s.view_at(0).hops().collect())
            .collect();
        assert_eq!(hops, owners);
    }

    #[test]
    fn merge_all_reserves_exactly_what_survives_dedup() {
        // Three vantages over the same four targets: the first owns every
        // trace, so a third of the inputs' cells survive.
        let te = ResponseKind::TimeExceeded;
        let du = ResponseKind::DestUnreachable(DestUnreachCode::NoRoute);
        let sets: Vec<TraceSet> = ["a", "b", "c"]
            .map(|v| {
                let records = (1..=4)
                    .flat_map(|t| {
                        let (target, hop) = (format!("2001:db8::{t}"), format!("::{v}{t}"));
                        [
                            rec(&target, &hop, te, Some(1)),
                            rec(&target, &hop, te, Some(2)),
                            rec(&target, "::f", du, Some(3)),
                        ]
                    })
                    .collect();
                TraceSet::from_log(&log_named(v, records))
            })
            .into();
        let m = TraceSet::merge_all(&sets);
        assert_eq!(
            (m.len(), m.cols.nodes.len(), m.cols.unreach_ids.len()),
            (4, 8, 4)
        );
        assert_eq!(m.spare_capacity(), [0; 7]);
        // The inputs' hops differ at every target; the first holder's
        // survive.
        for (t, first) in m.iter().zip(sets[0].iter()) {
            assert_eq!(
                t.hops().collect::<Vec<_>>(),
                first.hops().collect::<Vec<_>>()
            );
            assert_eq!(t.reached_at(), first.reached_at());
        }
    }

    /// Calls `check` on one set of every kind the library builds, named:
    /// `from_log`, the streaming builder, a merge, a quarantine scrub, a
    /// snapshot read back, a rebase and a canonical form. Each is checked
    /// as built, never through a clone, which would drop its spare
    /// capacity.
    fn every_kind_of_set(check: impl Fn(&str, &TraceSet)) {
        use crate::builder::TraceSetBuilder;
        use crate::quarantine::{quarantine_all, QuarantineConfig};
        use crate::snapshot::{read_trace_set, write_trace_set, SnapReader, SnapWriter};
        use std::borrow::Cow;

        // Three hops at distinct TTLs and one unreachable per target, so
        // no cell loses a dedup and leaves a reserved slot; the hop at
        // TTL 50 is past the quarantine's plausible depth. Every path
        // starts at `::a`, so the traces share a node.
        let te = ResponseKind::TimeExceeded;
        let du = ResponseKind::DestUnreachable(DestUnreachCode::NoRoute);
        let records = |v: &str| -> Vec<ResponseRecord> {
            (1..=4)
                .flat_map(|t| {
                    let target = format!("2001:db8:{t}::1");
                    [
                        rec(&target, "::a", te, Some(1)),
                        rec(&target, &format!("::{v}{t}"), te, Some(2)),
                        rec(&target, "::f", du, Some(3)),
                    ]
                })
                .chain([rec("2001:db8:1::1", "::c", te, Some(50))])
                .collect()
        };
        let mut builder = TraceSetBuilder::new();
        builder.push_chunk(&records("a"));
        let finished = builder.finish();
        let other = TraceSet::from_log(&log_named("B", records("b")));
        let merged = TraceSet::merge_all([&finished, &other]);
        check("finished", &finished);
        check("from_log", &other);
        check("merged", &merged);
        let (cleaned, report) = quarantine_all(&[&merged], &QuarantineConfig::default());
        let Cow::Owned(scrubbed) = &cleaned[0] else {
            panic!("the TTL-50 hop is dropped");
        };
        // The scrub drops a hop cell, which holds no reserved slot: the
        // node table is built apart and shrunk.
        assert_eq!(report.cells_dropped(), 1);
        check("quarantined", scrubbed);
        let mut w = SnapWriter::new();
        write_trace_set(&mut w, &merged);
        let back = read_trace_set(&mut SnapReader::new(w.bytes())).unwrap();
        check("read back", &back);
        let (mut a, mut b) = (finished, other);
        TraceSet::rebase(&mut Arc::default(), [&mut a, &mut b]);
        check("rebased", &a);
        check("rebased", &b);
        check("canonical", &back.canonical());
    }

    #[test]
    fn every_kind_of_set_holds_a_node_in_12_bytes() {
        // A node is a parent, an id, a hop limit and a rank; an
        // unreachable cell is a hop limit and an id in two columns.
        assert_eq!(size_of::<PathNode>(), 12);
        every_kind_of_set(|what, ts| {
            let (nodes, unreach) = (ts.cols.nodes.len(), ts.cols.unreach_ids.len());
            let cells: usize = ts.iter().map(|t| t.hop_cells().len()).sum();
            assert!(nodes > 0 && unreach > 0, "{what} holds cells");
            assert!(nodes < cells, "{what}'s traces share no node");
            assert_eq!(ts.cell_bytes(), 12 * nodes + 5 * unreach, "{what}");
        });
    }

    #[test]
    fn every_kind_of_set_holds_no_spare_capacity() {
        // The node count is not known until the table is built, so each
        // builder's doubling table is shrunk when it finishes.
        every_kind_of_set(|what, ts| {
            assert_eq!(ts.spare_capacity(), [0; 7], "{what}");
        });
    }

    #[test]
    fn every_kind_of_set_holds_a_trace_in_26_bytes() {
        // A 16-byte target, a 4-byte leaf, a 4-byte unreachable end and a
        // 2-byte `reached_at`.
        let row = size_of::<Ipv6Addr>() + 2 * size_of::<u32>() + size_of::<Option<u8>>();
        assert_eq!(row, 26);
        every_kind_of_set(|what, ts| {
            assert!(!ts.is_empty(), "{what} holds traces");
            assert_eq!(ts.trace_bytes(), 26 * ts.len(), "{what}");
        });
    }

    #[test]
    fn every_kind_of_set_encodes_to_its_exact_length() {
        use crate::snapshot::{
            read_trace_record, read_trace_set, trace_set_encoded_len, write_trace_record,
            write_trace_set, SnapReader, SnapWriter,
        };
        // Standalone and as a one-set record, each set's bytes are
        // exactly the length reserved for them, and the set decoded
        // from them writes them again.
        every_kind_of_set(|what, ts| {
            let mut w = SnapWriter::new();
            write_trace_set(&mut w, ts);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), trace_set_encoded_len(ts), "{what}");
            let back = read_trace_set(&mut SnapReader::new(&bytes)).unwrap();
            let mut w = SnapWriter::new();
            write_trace_set(&mut w, &back);
            assert!(w.bytes() == bytes, "{what} re-encodes to other bytes");

            // A one-set record is a count, the table, then the set
            // without it: four bytes more than the set alone.
            let mut w = SnapWriter::new();
            write_trace_record(&mut w, [ts], 0);
            let record = w.into_bytes();
            assert_eq!(record.len(), 4 + bytes.len(), "{what} record");
            let back = read_trace_record(&mut SnapReader::new(&record)).unwrap();
            let mut w = SnapWriter::new();
            write_trace_record(&mut w, &back, 0);
            assert!(
                w.bytes() == record,
                "{what} record re-encodes to other bytes"
            );
        });
    }

    #[test]
    fn every_kind_of_set_tiles_its_cell_columns() {
        every_kind_of_set(|what, ts| {
            ts.assert_tiled();
            // The views read every unreachable cell, each through one
            // trace, and a path's length and last cell are its walk's.
            let views = ts.iter().map(|t| t.unreachable_cells().len());
            assert_eq!(views.sum::<usize>(), ts.cols.unreach_ids.len(), "{what}");
            for t in ts.iter() {
                let cells = t.hop_cells();
                let walk: Vec<(u8, u32)> = cells.iter().collect();
                assert_eq!(cells.len(), walk.len(), "{what}");
                assert_eq!(cells.last(), walk.last().copied(), "{what}");
                let mut up: Vec<(u8, u32)> = cells.deepest_first().collect();
                up.reverse();
                assert_eq!(up, walk, "{what}");
            }
        });
    }

    /// A set over one target's records, for looking at its cells.
    fn one_trace(records: Vec<ResponseRecord>) -> TraceSet {
        TraceSet::from_log(&log_named("V", records))
    }

    /// A set of one trace a target, toward `2001:db8::` + the trace's
    /// index, with the given hops `(ttl, responder)`.
    fn paths(traces: &[&[(u8, &str)]]) -> TraceSet {
        let records = traces
            .iter()
            .enumerate()
            .flat_map(|(i, hops)| {
                let target = format!("2001:db8::{:x}", i + 1);
                hops.iter().map(move |&(ttl, hop)| {
                    rec(&target, hop, ResponseKind::TimeExceeded, Some(ttl))
                })
            })
            .collect();
        TraceSet::from_log(&log_named("V", records))
    }

    /// The nodes of trace `idx`'s path, root first.
    fn path_of(ts: &TraceSet, idx: usize) -> Vec<u32> {
        let mut path = Vec::new();
        let mut at = ts.view_at(idx).leaf();
        while let Some(n) = at {
            path.push(n);
            at = ts.path_nodes()[n as usize].parent();
        }
        path.reverse();
        path
    }

    #[test]
    fn two_traces_with_a_common_prefix_share_its_nodes() {
        let prefix = [(1, "::1"), (2, "::2"), (3, "::3"), (4, "::4"), (5, "::5")];
        let a: Vec<(u8, &str)> = prefix.iter().copied().chain([(6, "::a")]).collect();
        let b: Vec<(u8, &str)> = prefix.iter().copied().chain([(6, "::b")]).collect();
        let ts = paths(&[&a, &b]);
        assert_eq!(ts.path_nodes().len(), 7);
        let (pa, pb) = (path_of(&ts, 0), path_of(&ts, 1));
        assert_eq!((pa.len(), pb.len()), (6, 6));
        assert_eq!(pa[..5], pb[..5], "the five shared nodes");
        assert_ne!(pa[5], pb[5]);
        assert_eq!(pa, [0, 1, 2, 3, 4, 5]);
        assert_eq!(pb[5], 6);
        ts.assert_tiled();
    }

    #[test]
    fn gapped_paths_share_only_their_common_prefix() {
        let ts = paths(&[
            &[(1, "::a"), (3, "::b"), (7, "::c")],
            &[(1, "::a"), (3, "::b"), (8, "::c")],
            // The same last hop without the hop at 3: another path.
            &[(1, "::a"), (7, "::c")],
        ]);
        assert_eq!(ts.path_nodes().len(), 5);
        let [p0, p1, p2] = [0, 1, 2].map(|i| path_of(&ts, i));
        assert_eq!((p0, p1, p2), (vec![0, 1, 2], vec![0, 1, 3], vec![0, 4]));
        let cell = |n: usize| {
            let node = &ts.path_nodes()[n];
            (node.ttl(), node.id(), node.depth())
        };
        assert_eq!(
            (cell(2), cell(3), cell(4)),
            ((7, 2, 3), (8, 2, 3), (7, 2, 2))
        );
        ts.assert_tiled();
    }

    #[test]
    fn a_hop_less_traces_leaf_is_the_root() {
        let du = ResponseKind::DestUnreachable(DestUnreachCode::NoRoute);
        let ts = one_trace(vec![rec("2001:db8::1", "::f", du, Some(7))]);
        let t = ts.view_at(0);
        assert_eq!(t.leaf(), None);
        assert!(ts.path_nodes().is_empty());
        assert_eq!(ts.cols.leaves, [ROOT]);
        let cells = t.hop_cells();
        assert_eq!(
            (cells.len(), cells.last(), cells.iter().len()),
            (0, None, 0)
        );
        assert_eq!(cells.deepest_first().next(), None);
    }

    #[test]
    fn cells_of_a_trace_with_none() {
        let ts = one_trace(vec![rec(
            "2001:db8::1",
            "2001:db8::1",
            ResponseKind::EchoReply,
            Some(6),
        )]);
        let t = ts.view_at(0);
        let hops = t.hop_cells();
        assert!(hops.is_empty());
        assert_eq!(
            (hops.len(), hops.last(), hops.iter().next()),
            (0, None, None)
        );
        assert_eq!(format!("{hops:?}"), "[]");
        let cells = t.unreachable_cells();
        assert!(cells.is_empty());
        assert_eq!(
            (cells.len(), cells.last(), cells.iter().next()),
            (0, None, None)
        );
        assert!(cells.ttls().is_empty() && cells.ids().is_empty());
        assert_eq!(format!("{cells:?}"), "[]");
        assert_eq!((t.path_len(), t.last_hop()), (Some(6), None));
        assert!(t.hop_vec().is_empty());
    }

    #[test]
    fn cells_of_an_unreachable_only_trace() {
        let du = ResponseKind::DestUnreachable(DestUnreachCode::NoRoute);
        let ts = one_trace(vec![
            rec("2001:db8::1", "::f", du, Some(7)),
            rec("2001:db8::1", "::e", du, Some(3)),
        ]);
        let t = ts.view_at(0);
        assert!(t.hop_cells().is_empty());
        let cells = t.unreachable_cells();
        // Record order, not TTL order.
        assert_eq!(cells.iter().collect::<Vec<_>>(), [(7, 0), (3, 1)]);
        assert_eq!((cells.len(), cells.last()), (2, Some((3, 1))));
        assert_eq!((cells.ttls(), cells.ids()), (&[7, 3][..], &[0, 1][..]));
        assert_eq!((t.path_len(), t.last_hop()), (None, None));
    }

    #[test]
    fn cells_iterate_and_compare_across_sets() {
        let te = ResponseKind::TimeExceeded;
        let records = vec![
            rec("2001:db8::1", "::a", te, Some(1)),
            rec("2001:db8::1", "::b", te, Some(4)),
            rec("2001:db8::1", "::a", te, Some(2)),
        ];
        let ts = one_trace(records.clone());
        let cells = ts.view_at(0).hop_cells();
        assert_eq!(cells.iter().collect::<Vec<_>>(), [(1, 0), (2, 0), (4, 1)]);
        assert_eq!(cells.into_iter().next_back(), cells.last());
        assert_eq!(cells.last(), Some((4, 1)));
        let mut iter = cells.iter();
        assert_eq!(
            (iter.len(), iter.next(), iter.next_back(), iter.len()),
            (3, Some((1, 0)), Some((4, 1)), 1)
        );
        assert_eq!(
            cells.deepest_first().collect::<Vec<_>>(),
            [(4, 1), (2, 0), (1, 0)]
        );
        assert_eq!(format!("{cells:?}"), "[(1, 0), (2, 0), (4, 1)]");
        // Equal cells in another set compare equal; a moved hop does not.
        let same = one_trace(records.clone());
        assert_eq!(same.view_at(0).hop_cells(), cells);
        let mut moved = records;
        moved[2].probe_ttl = Some(3);
        let moved = one_trace(moved);
        assert_ne!(moved.view_at(0).hop_cells(), cells);
        let ids = |c: HopCells<'_>| c.iter().map(|(_, id)| id).collect::<Vec<_>>();
        assert_eq!(ids(moved.view_at(0).hop_cells()), ids(cells));
    }

    #[test]
    fn merging_with_an_empty_set_leaves_no_phantom_provenance() {
        let b = TraceSet::from_log(&log_named(
            "V-B",
            vec![rec(
                "2001:db8::1",
                "::a",
                ResponseKind::TimeExceeded,
                Some(1),
            )],
        ));
        let empty = TraceSet::default();
        for m in [
            TraceSet::merge_all([&empty, &b]),
            TraceSet::merge_all([&b, &empty]),
        ] {
            assert_eq!(m, b, "empty side must not change observations");
            assert_eq!(&*m.vantage, "V-B", "no phantom nameless vantage");
        }
    }

    #[test]
    fn resolver_augmentations() {
        let mut bgp = BgpTable::new();
        bgp.announce("2001:db8::/32".parse().unwrap(), Asn(1));
        let extra = vec![("2a10::/32".parse().unwrap(), Asn(2))];
        let r = AsnResolver::new(bgp, extra, &[(Asn(1), Asn(51))]);
        assert_eq!(r.origin("2001:db8::1".parse().unwrap()), Some(Asn(1)));
        assert_eq!(r.origin("2a10::9".parse().unwrap()), Some(Asn(2)));
        assert_eq!(r.origin("3fff::1".parse().unwrap()), None);
        assert!(r.same_org(Asn(1), Asn(51)));
        assert!(!r.same_org(Asn(1), Asn(2)));
    }
}
