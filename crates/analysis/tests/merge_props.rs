//! Property + differential suite pinning [`TraceSet::merge_all`].
//!
//! The central contract: take any fuzzed record stream, receive-sort
//! it (what a batch prober's log looks like), and split it across `k`
//! vantages **by target** — the multi-vantage shape, where each
//! vantage's log holds whole traces. Then
//!
//! * `merge_all` over the per-vantage sets is **bit-identical** to
//!   `from_log` of the full concatenated log, after canonical
//!   re-interning of both sides (id assignment is the only thing the
//!   two assembly histories may disagree on);
//! * merging is commutative and associative up to canonical form;
//! * merging a set with itself changes nothing;
//! * `merge_all`'s single k-way pass is **bit-identical** — raw
//!   interner ids included — to the left fold
//!   of a two-set union keyed by address, which shares no code with it
//!   (`testkit::oracle::merge_fold`), and to the pairwise reduction
//!   over two-set `merge_all`s ([`fold_oracle`]).
//!
//! The algebraic properties hold *because* the per-vantage sets carry
//! whole traces: `merge_all`'s first-wins trace dedup only bites on
//! conflicting shared targets, where the multi-vantage drivers resolve
//! by vantage order (pinned by unit tests in `analysis::traces`). A
//! merged set does not record which input a trace came from, so the
//! first holder's ownership is checked by content: inputs that share a
//! target hold different traces there, and the survivor's hops are the
//! first holder's.

use analysis::TraceSet;
use proptest::prelude::*;
use testkit::fixtures::synth_record;
use testkit::oracle::{merge_fold, Merged};
use yarrp6::{ProbeLog, ResponseKind, ResponseRecord};

fn log_of(records: Vec<ResponseRecord>) -> ProbeLog {
    ProbeLog {
        vantage: "V".into(),
        target_set: "S".into(),
        records,
        ..Default::default()
    }
}

/// Receive-sorts the fuzz draws into the batch-log shape, then
/// partitions the records across `k` per-vantage logs **by target**
/// (hash of the target word), preserving the global receive order
/// inside each partition — each vantage holds whole traces, the shape
/// `merge_all` is specified over.
fn sorted_and_split(
    draws: &[(u64, u64)],
    k: usize,
    allow_tamper: bool,
) -> (ProbeLog, Vec<ProbeLog>) {
    let records: Vec<ResponseRecord> = draws
        .iter()
        .map(|&(w, recv)| synth_record(w, recv, allow_tamper))
        .collect();
    let mut full = log_of(records);
    full.sort_by_recv();
    let mut parts: Vec<Vec<ResponseRecord>> = vec![Vec::new(); k];
    for r in &full.records {
        let word = u128::from(r.target);
        let slot = (word ^ (word >> 7)) as usize % k;
        parts[slot].push(*r);
    }
    let chunks = parts.into_iter().map(log_of).collect();
    (full, chunks)
}

/// The pairwise reduction over two-set [`TraceSet::merge_all`]s —
/// adjacent pairs, then pairs of pairs. The two-set union is
/// associative bit for bit, so this equals the left fold and the one
/// k-way pass.
fn fold_oracle(refs: &[&TraceSet]) -> TraceSet {
    match refs.len() {
        0 => TraceSet::default(),
        1 => refs[0].clone(),
        _ => {
            let mut level: Vec<TraceSet> = refs
                .chunks(2)
                .map(|c| {
                    if c.len() == 2 {
                        TraceSet::merge_all(c.iter().copied())
                    } else {
                        c[0].clone()
                    }
                })
                .collect();
            while level.len() > 1 {
                level = level
                    .chunks(2)
                    .map(|c| {
                        if c.len() == 2 {
                            TraceSet::merge_all(c)
                        } else {
                            c[0].clone()
                        }
                    })
                    .collect();
            }
            level.pop().expect("non-empty reduction")
        }
    }
}

#[test]
fn merge_all_pairwise_reduction_equals_left_fold() {
    // Five sets (odd count exercises the carried chunk), with
    // repeated vantage names and one target every set traces through a
    // hop of its own, so dedup and name joining are both live.
    let rec = |target: String, responder: String, ttl: u8| ResponseRecord {
        target: target.parse().unwrap(),
        responder: responder.parse().unwrap(),
        kind: ResponseKind::TimeExceeded,
        probe_ttl: Some(ttl),
        rtt_us: Some(1),
        recv_us: 0,
        target_cksum_ok: true,
    };
    let sets: Vec<TraceSet> = (0..5)
        .map(|i| {
            TraceSet::from_log(&ProbeLog {
                vantage: if i % 2 == 0 { "V-A" } else { "V-B" }.into(),
                target_set: "merge-test".into(),
                records: vec![
                    rec(format!("2001:db8::{}", i + 1), format!("::{}", i + 1), 1),
                    rec("2001:db8::77".into(), format!("::a{i}"), 2),
                ],
                ..Default::default()
            })
        })
        .collect();
    let fold = sets[1..]
        .iter()
        .fold(sets[0].clone(), |acc, s| TraceSet::merge_all([&acc, s]));
    let pairwise = fold_oracle(&sets.iter().collect::<Vec<_>>());
    assert_eq!(pairwise, fold);
    assert_eq!(TraceSet::merge_all(&sets), fold);
    assert_eq!(Merged::of(&fold), merge_fold(&sets));
    // Bit-identical including raw interner ids (PartialEq covers
    // the words; spot-check an id too).
    assert_eq!(pairwise.interner().words(), fold.interner().words());
    // Repeated vantage names never duplicate in the joined identity.
    assert_eq!(&*pairwise.vantage, "V-A+V-B");
    // The shared target's trace is the first set's.
    let shared = pairwise.get("2001:db8::77".parse().unwrap()).unwrap();
    let first = sets[0].get("2001:db8::77".parse().unwrap()).unwrap();
    assert_eq!(
        shared.hops().collect::<Vec<_>>(),
        vec![(2, "::a0".parse().unwrap())]
    );
    assert!(shared.same_observations(&first));
}

proptest! {
    /// `merge_all` against the address-keyed fold, bit for bit, at every k its
    /// callers use (vantages ≤ 3, 8 shards, 24 round × vantage sets)
    /// and the degenerate ones. The inputs draw from one small target
    /// and responder space independently, so the same target recurs
    /// across inputs (leftmost must win), losers leave interner words
    /// no surviving cell references, some inputs are empty, vantage
    /// names repeat, and every fourth input is itself a two-source
    /// merge.
    #[test]
    fn merge_all_is_bit_identical_to_the_fold(
        draws in prop::collection::vec(
            prop::collection::vec((any::<u64>(), 0u64..20_000), 0..40),
            24..25,
        ),
    ) {
        let sets: Vec<TraceSet> = draws
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let set_of = |vantage: String, flip: u64| {
                    let records = d
                        .iter()
                        .map(|&(w, recv)| synth_record(w ^ flip, recv, true))
                        .collect();
                    let mut log = log_of(records);
                    log.vantage = vantage.into();
                    log.sort_by_recv();
                    TraceSet::from_log(&log)
                };
                let set = set_of(format!("V{}", i % 3), 0);
                if i % 4 == 3 {
                    // Flipped target bits: both sources own traces.
                    TraceSet::merge_all([&set, &set_of("V-other".into(), 0x15)])
                } else {
                    set
                }
            })
            .collect();
        for k in [0usize, 1, 2, 3, 8, 24] {
            let got = TraceSet::merge_all(&sets[..k]);
            // The model spells out every column and the interner in id
            // order.
            prop_assert!(
                Merged::of(&got) == merge_fold(&sets[..k]),
                "k-way merge_all diverged from the address-keyed fold at k={k}"
            );
            let want = fold_oracle(&sets[..k].iter().collect::<Vec<_>>());
            prop_assert!(got == want, "k-way merge_all diverged from the pairwise merge at k={k}");
        }
    }

    /// The differential contract: per-vantage sets merged in vantage
    /// order are bit-identical (after canonical re-intern) to the
    /// batch `from_log` of the receive-sorted concatenated log —
    /// targets, metas, hop/unreachable columns, interner contents, and
    /// the tamper counter all included.
    #[test]
    fn split_logs_merge_bit_identical_to_concatenated_from_log(
        draws in prop::collection::vec((any::<u64>(), 0u64..50_000), 0..500),
        k in 2usize..5,
    ) {
        let (full, chunks) = sorted_and_split(&draws, k, true);
        let want = TraceSet::from_log(&full).canonical();
        let sets: Vec<TraceSet> = chunks.iter().map(TraceSet::from_log).collect();
        let merged = TraceSet::merge_all(&sets).canonical();
        prop_assert!(merged == want, "merge of {k}-way split != from_log of concatenation");
    }

    /// Commutativity and associativity up to canonical form: any
    /// merge order over the per-vantage sets produces the same set.
    #[test]
    fn merge_is_commutative_and_associative_up_to_canonical(
        draws in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
        rot in 0usize..3,
    ) {
        let (_, chunks) = sorted_and_split(&draws, 3, true);
        let s: Vec<TraceSet> = chunks.iter().map(TraceSet::from_log).collect();
        // Left fold in a rotated order.
        let order = [&s[rot % 3], &s[(rot + 1) % 3], &s[(rot + 2) % 3]];
        let rotated = TraceSet::merge_all(order).canonical();
        let reference = TraceSet::merge_all(&s).canonical();
        prop_assert!(rotated == reference, "rotation {rot} diverged");
        // Right-associated grouping.
        let right = TraceSet::merge_all([&s[0], &TraceSet::merge_all([&s[1], &s[2]])]).canonical();
        prop_assert!(right == reference, "right association diverged");
        // Full reversal.
        let reversed = TraceSet::merge_all([&TraceSet::merge_all([&s[2], &s[1]]), &s[0]]).canonical();
        prop_assert!(reversed == reference, "reversal diverged");
    }

    /// Idempotence: merging a set with itself is a no-op on every
    /// observation column (the tamper counter is additive by design,
    /// so the generator draws no tampered records here).
    #[test]
    fn merge_is_idempotent(
        draws in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
    ) {
        let records: Vec<ResponseRecord> =
            draws.iter().map(|&(w, recv)| synth_record(w, recv, false)).collect();
        let mut log = log_of(records);
        log.sort_by_recv();
        let a = TraceSet::from_log(&log);
        prop_assert!(TraceSet::merge_all([&a, &a]) == a, "self-merge must be a no-op");
    }

    /// The canonical form is a fixed point: canonicalizing twice equals
    /// canonicalizing once, and canonicalization never changes the
    /// observations a view reports.
    #[test]
    fn canonical_is_a_fixed_point_preserving_observations(
        draws in prop::collection::vec((any::<u64>(), 0u64..20_000), 0..300),
    ) {
        let records: Vec<ResponseRecord> =
            draws.iter().map(|&(w, recv)| synth_record(w, recv, true)).collect();
        let mut log = log_of(records);
        log.sort_by_recv();
        let a = TraceSet::from_log(&log);
        let c = a.clone().canonical();
        prop_assert!(c.clone().canonical() == c, "canonical must be idempotent");
        prop_assert_eq!(a.len(), c.len());
        prop_assert_eq!(a.interner().len(), c.interner().len());
        for (x, y) in a.iter().zip(c.iter()) {
            prop_assert_eq!(x.target(), y.target());
            prop_assert_eq!(x.reached_at(), y.reached_at());
            prop_assert_eq!(x.hops().collect::<Vec<_>>(), y.hops().collect::<Vec<_>>());
            prop_assert_eq!(
                x.unreachable().collect::<Vec<_>>(),
                y.unreachable().collect::<Vec<_>>()
            );
        }
    }
}
