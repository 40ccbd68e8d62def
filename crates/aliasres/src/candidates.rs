//! Alias-candidate derivation: which interfaces a round's discoveries
//! make worth speedtrapping. Two sibling rules, both gated on a *fresh*
//! member (an interface of this round the prober has not tested yet —
//! a bucket without one was fully adjudicated in an earlier round):
//!
//! * **shared /64** — interfaces numbered out of one /64 are prime
//!   same-router candidates. Old members of a bucket with a fresh
//!   arrival are offered again, so cross-round pairs can still confirm;
//! * **shared hop** — interfaces answering at one TTL for targets in
//!   one /64 occupy the same topological position: sibling candidates
//!   even across /64 boundaries.
//!
//! The cost follows the round, not the trace record. Trace sets are
//! sorted by target with TTL-ascending hop cells, so the shared-hop
//! rule is a k-way merge-join of the round's sets on the target /64:
//! the few traces of one /64 are gathered into one reused scratch
//! vector, sorted, and every TTL run with two distinct addresses and a
//! fresh member is emitted — no map, no per-bucket allocation. The
//! shared-/64 rule needs old members, but not the sets they came from:
//! it reads the record's one table (which holds every interface the
//! record does), picks out the words whose /64 holds a fresh address
//! and sorts that handful.
//!
//! Every round set reads that table, so an address is one id
//! everywhere: fresh members and the output are bitmaps over the
//! table's ids, a hop bucket holds `(ttl, id)` cells, and no address
//! is hashed but the tested ones and the fresh /64s.

use analysis::{AddrInterner, TraceSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv6Addr;
use std::sync::Arc;
use yarrp6::addrset::AddrSet;

/// The /64 an address word is numbered out of.
fn hi64(w: u128) -> u64 {
    (w >> 64) as u64
}

/// The /64 of `w` as its zero-IID address — a /64 as an [`AddrSet`] key.
fn net64(w: u128) -> Ipv6Addr {
    Ipv6Addr::from(w >> 64 << 64)
}

/// Marks in `out` every run of `sorted` (ascending, distinct) that
/// shares a key, holds at least two ids and at least one `fresh` one.
/// `sorted` pairs the bucket key with the table id.
fn emit_fresh_runs<K: Copy + Eq>(sorted: &[(K, u32)], fresh: &[bool], out: &mut [bool]) {
    for run in sorted.chunk_by(|a, b| a.0 == b.0) {
        if run.len() >= 2 && run.iter().any(|&(_, id)| fresh[id as usize]) {
            for &(_, id) in run {
                out[id as usize] = true;
            }
        }
    }
}

/// The interfaces to offer the alias prober after a round, sorted
/// ascending and deduplicated.
///
/// `table` is the kept trace record's one table: every distinct
/// interface word of the record, this round's included (the shared-/64
/// rule buckets it by /64). `round` is this round's kept sets, each on
/// `table` (the shared-hop rule buckets their hop cells by
/// `(target /64, TTL)`). `arrivals` marks the round's distinct
/// interfaces by table id (the words of the round's sets' own tables,
/// before the adaptive loop rebased them onto the record's), and
/// `tested` is what the prober has already adjudicated. The arrivals
/// outside `tested` are *fresh*; an address belongs to the result when
/// one of those buckets holds it, at least one other address and at
/// least one fresh one. With nothing fresh the result is empty and no
/// set is read. Panics when a round set reads another table.
pub fn sibling_candidates(
    table: &Arc<AddrInterner>,
    round: &[TraceSet],
    arrivals: &[bool],
    tested: &AddrSet,
) -> Vec<Ipv6Addr> {
    assert!(
        round.iter().all(|ts| Arc::ptr_eq(ts.interner(), table)),
        "every round set reads the record's table"
    );
    let words = table.words();
    let mut fresh = vec![false; words.len()];
    let mut fresh64 = AddrSet::new();
    for (id, _) in arrivals.iter().enumerate().filter(|&(_, &a)| a) {
        if !tested.contains(Ipv6Addr::from(words[id])) {
            fresh[id] = true;
            fresh64.insert(net64(words[id]));
        }
    }
    if fresh64.is_empty() {
        return Vec::new();
    }
    let mut out = vec![false; words.len()];

    // Shared /64. Only a /64 holding a fresh address can qualify, so
    // only those interfaces are sorted into buckets.
    let mut by64: Vec<(u64, u32)> = (0u32..)
        .zip(words)
        .filter(|&(_, &w)| fresh64.contains(net64(w)))
        .map(|(id, &w)| (hi64(w), id))
        .collect();
    by64.sort_unstable();
    emit_fresh_runs(&by64, &fresh, &mut out);

    // Shared hop: merge-join the round's sets on the target /64. The
    // heap holds each set's next unread /64; every set standing on the
    // smallest one contributes its traces to the scratch bucket.
    let mut cursor = vec![0usize; round.len()];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = round
        .iter()
        .enumerate()
        .filter_map(|(i, ts)| Some(Reverse((hi64(u128::from(*ts.targets().first()?)), i))))
        .collect();
    let mut cells: Vec<(u8, u32)> = Vec::new();
    while let Some(&Reverse((t64, _))) = heap.peek() {
        cells.clear();
        while let Some(&Reverse((k, i))) = heap.peek() {
            if k != t64 {
                break;
            }
            heap.pop();
            let ts = &round[i];
            let targets = ts.targets();
            let mut idx = cursor[i];
            while idx < targets.len() && hi64(u128::from(targets[idx])) == t64 {
                cells.extend(ts.view_at(idx).hop_cells().deepest_first());
                idx += 1;
            }
            cursor[i] = idx;
            if let Some(&next) = targets.get(idx) {
                heap.push(Reverse((hi64(u128::from(next)), i)));
            }
        }
        cells.sort_unstable();
        cells.dedup();
        emit_fresh_runs(&cells, &fresh, &mut out);
    }

    let mut out: Vec<Ipv6Addr> = words
        .iter()
        .zip(out)
        .filter_map(|(&w, o)| o.then_some(Ipv6Addr::from(w)))
        .collect();
    out.sort_unstable();
    out
}
