//! Property suite pinning every [`TraceSet`] constructor's path-prefix
//! tree.
//!
//! A set holds its hop cells as one node table, each trace a path from
//! the root to its leaf, numbered in the order a walk of the traces
//! first reaches them (traces in target order, each trace's cells
//! ascending). For any drawn log, every view reads the oracle's trace
//! (`testkit::oracle::TraceSet`), and after each constructor — batch
//! `from_log`, the streaming builder's `finish`, `merge_all`, `rebase`,
//! `canonical`, the quarantine's scrub and the snapshot reader, alone
//! and as a record — the node table is the one rebuilt from the views
//! (`testkit::oracle::path_tree`): no node that no leaf reaches, no
//! repeated (parent, hop limit, id), every child's hop limit above its
//! parent's, and the numbering canonical. The adaptive loop's
//! `Record::push_round` is checked the same way in `beholder`'s own
//! tests.
//!
//! The logs are drawn so that paths share prefixes, as a campaign's do:
//! each target follows one of a few drawn routes, drops some of its
//! hops (a gap splits a prefix) and ends in a hop of its own, amid
//! records of every other class.

use analysis::snapshot::{decode_segment, encode_segment, read_trace_record, write_trace_record};
use analysis::{
    quarantine_all, QuarantineConfig, SnapReader, SnapWriter, TraceSet, TraceSetBuilder,
};
use proptest::prelude::*;
use std::net::Ipv6Addr;
use std::sync::Arc;
use testkit::fixtures::synth_record;
use testkit::oracle::{self, held_tree, path_tree};
use yarrp6::{ProbeLog, ResponseKind, ResponseRecord};

/// One target's walk of a route: the target (of 32), the route, which
/// of its hops answer (hop `k` is dropped where the `k`-th nibble is 0,
/// one in sixteen) and when the first answer arrives.
type Walk = (u8, usize, u64, u64);

/// A log of `walks` over `routes` (each a list of responders, of 16,
/// at hop limits 1, 2, ...), each target's own last hop one past its
/// route, and `noise` records of every class, receive-sorted.
fn log_of(vantage: &str, routes: &[Vec<u8>], walks: &[Walk], noise: &[(u64, u64)]) -> ProbeLog {
    let addr = |w: u128| Ipv6Addr::from(0x2001_0db8_u128 << 96 | w);
    let mut records: Vec<ResponseRecord> = noise
        .iter()
        .map(|&(w, recv)| synth_record(w, recv, true))
        .collect();
    for &(target, route, drops, recv) in walks {
        let route = &routes[route % routes.len()];
        let te = |responder: u128, ttl: usize| ResponseRecord {
            target: addr(u128::from(target)),
            responder: addr(0xffff << 64 | responder),
            kind: ResponseKind::TimeExceeded,
            probe_ttl: Some(ttl as u8),
            rtt_us: Some(1),
            recv_us: recv + ttl as u64,
            target_cksum_ok: true,
        };
        for (k, &hop) in route.iter().enumerate() {
            if drops >> (4 * k) & 0xf != 0 {
                records.push(te(u128::from(hop), k + 1));
            }
        }
        records.push(te(0x100 | u128::from(target), route.len() + 1));
    }
    let mut log = ProbeLog {
        vantage: vantage.into(),
        target_set: "S".into(),
        records,
        ..Default::default()
    };
    log.sort_by_recv();
    log
}

/// Panics unless the set's node table is the one its views rebuild,
/// with no unreached node, no repeated cell below one parent, and every
/// child's hop limit above its parent's.
fn assert_canonical(what: &str, ts: &TraceSet) {
    let held = held_tree(ts);
    assert_eq!(held, path_tree(ts), "{what}: the tree its views rebuild");
    let (nodes, leaves) = held;
    let mut reached = vec![false; nodes.len()];
    for leaf in leaves.into_iter().flatten() {
        let mut at = Some(leaf);
        while let Some(n) = at.filter(|&n| !reached[n as usize]) {
            reached[n as usize] = true;
            at = nodes[n as usize].0;
        }
    }
    assert!(reached.iter().all(|&r| r), "{what}: a node no leaf reaches");
    let mut triples: Vec<_> = nodes.iter().map(|&(p, ttl, id, _)| (p, ttl, id)).collect();
    triples.sort_unstable();
    triples.dedup();
    assert_eq!(triples.len(), nodes.len(), "{what}: a repeated node");
    for &(parent, ttl, _, depth) in &nodes {
        if let Some(p) = parent {
            let (_, pttl, _, pdepth) = nodes[p as usize];
            assert!(
                ttl > pttl && depth == pdepth + 1,
                "{what}: a child above its parent"
            );
        }
    }
}

/// Panics unless every view of `ts` reads the oracle's trace to its
/// target.
fn assert_views_read_the_oracle(what: &str, ts: &TraceSet, log: &ProbeLog) {
    let want = oracle::TraceSet::from_log(log);
    assert_eq!(ts.len(), want.len(), "{what}");
    for t in ts.iter() {
        let o = &want.traces[&t.target()];
        let hops: Vec<(u8, Ipv6Addr)> = o.hops.iter().map(|(&ttl, &a)| (ttl, a)).collect();
        assert_eq!(t.hops().collect::<Vec<_>>(), hops, "{what}");
        assert_eq!(t.hop_cells().len(), hops.len(), "{what}");
        assert_eq!(t.last_hop(), hops.last().copied(), "{what}");
        assert_eq!(t.unreachable().collect::<Vec<_>>(), o.unreachable, "{what}");
        assert_eq!(t.reached_at(), o.reached_at, "{what}");
    }
}

/// Each trace's hops, by address.
fn hops(ts: &TraceSet) -> Vec<Vec<(u8, Ipv6Addr)>> {
    ts.iter().map(|t| t.hops().collect()).collect()
}

fn routes() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..16, 0..12), 1..5)
}

fn walks() -> impl Strategy<Value = Vec<Walk>> {
    prop::collection::vec((0u8..32, 0usize..4, any::<u64>(), 0u64..20_000), 0..48)
}

fn noise() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((any::<u64>(), 0u64..20_000), 0..24)
}

proptest! {
    #[test]
    fn every_constructor_keeps_the_tree_canonical(
        routes in routes(),
        walks in prop::collection::vec(walks(), 3..4),
        noise in prop::collection::vec(noise(), 3..4),
    ) {
        let logs: Vec<ProbeLog> = (0..3)
            .map(|v| log_of(&format!("V{v}"), &routes, &walks[v], &noise[v]))
            .collect();
        let sets: Vec<TraceSet> = logs.iter().map(TraceSet::from_log).collect();
        for (ts, log) in sets.iter().zip(&logs) {
            assert_canonical("from_log", ts);
            assert_views_read_the_oracle("from_log", ts, log);
        }

        let mut builder = TraceSetBuilder::new();
        for chunk in logs[0].records.chunks(7) {
            builder.push_chunk(chunk);
        }
        let finished = builder.finish();
        assert_canonical("finished", &finished);
        assert_views_read_the_oracle("finished", &finished, &logs[0]);

        let merged = TraceSet::merge_all(&sets);
        assert_canonical("merged", &merged);
        let reversed = TraceSet::merge_all(sets.iter().rev());
        assert_canonical("merged in reverse", &reversed);

        let mut moved = sets.clone();
        TraceSet::rebase(&mut Arc::default(), moved.iter_mut());
        for (m, s) in moved.iter().zip(&sets) {
            assert_canonical("rebased", m);
            assert_eq!(hops(m), hops(s));
        }

        let canonical = merged.clone().canonical();
        assert_canonical("canonical", &canonical);
        assert_eq!(hops(&canonical), hops(&merged));

        // A shallow plausible depth, so most drawn sets are scrubbed.
        let config = QuarantineConfig {
            max_plausible_ttl: 6,
            ..QuarantineConfig::default()
        };
        let refs: Vec<&TraceSet> = sets.iter().chain([&merged]).collect();
        let (cleaned, _) = quarantine_all(&refs, &config);
        for clean in &cleaned {
            assert_canonical("quarantined", clean);
        }

        for ts in sets.iter().chain([&merged, &canonical]) {
            let back = decode_segment(&encode_segment(ts)).unwrap();
            assert_canonical("read back", &back);
            prop_assert!(&back == ts);
        }
        let mut w = SnapWriter::new();
        write_trace_record(&mut w, &moved, 0);
        let record = read_trace_record(&mut SnapReader::new(w.bytes())).unwrap();
        for (back, m) in record.iter().zip(&moved) {
            assert_canonical("read back as a record", back);
            prop_assert!(back == m);
        }
    }
}
