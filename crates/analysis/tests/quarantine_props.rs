//! Property suite pinning [`quarantine_all`] to a naive, address-keyed
//! statement of its four rules. The library walks cells by interner id
//! and pools evidence across sets through id maps; the oracle here keys
//! everything by `Ipv6Addr` in std maps, so an id-mapping slip (evidence
//! pooled under the wrong responder, a verdict read through the wrong
//! set's ids) shows as a difference in the cleaned columns or the
//! report.

use analysis::{quarantine_all, QuarantineConfig, QuarantineReport, TraceSet};
use proptest::prelude::*;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv6Addr;
use std::sync::Arc;
use v6packet::icmp6::DestUnreachCode;
use yarrp6::{ProbeLog, ResponseKind, ResponseRecord};

/// What `TraceSet: PartialEq` compares beyond the campaign identity,
/// spelled out so an oracle outside the crate can state the cleaned set
/// it expects: interner words in id order and, per trace, target,
/// `reached_at`, hop cells and unreachable cells as `(ttl, id)`.
#[derive(Debug, PartialEq)]
struct Columns {
    words: Vec<u128>,
    traces: Vec<Trace>,
}
type Trace = (Ipv6Addr, Option<u8>, Vec<(u8, u32)>, Vec<(u8, u32)>);

fn columns(ts: &TraceSet) -> Columns {
    Columns {
        words: ts.interner().words().to_vec(),
        traces: ts
            .iter()
            .map(|t| {
                (
                    t.target(),
                    t.reached_at(),
                    t.hop_cells().iter().collect(),
                    t.unreachable_cells().iter().collect(),
                )
            })
            .collect(),
    }
}

/// The quarantine rules by address: loop (a responder at
/// `min_loop_repeats` hop cells of one trace), span (hop-cell TTL range
/// over all sets above `max_ttl_span`, loopers excepted), then per cell
/// condemned / implausible / beyond-destination. A set that loses a
/// cell is re-interned in walk order; one that loses nothing is
/// expected back verbatim.
fn naive_quarantine(
    sets: &[&TraceSet],
    cfg: &QuarantineConfig,
) -> (Vec<Columns>, QuarantineReport) {
    let mut span: HashMap<Ipv6Addr, (u8, u8)> = HashMap::new();
    let mut looping: BTreeSet<Ipv6Addr> = BTreeSet::new();
    for set in sets {
        for t in set.iter() {
            let mut repeats: HashMap<Ipv6Addr, u32> = HashMap::new();
            for (ttl, a) in t.hops() {
                let e = span.entry(a).or_insert((ttl, ttl));
                *e = (e.0.min(ttl), e.1.max(ttl));
                let c = repeats.entry(a).or_default();
                *c += 1;
                if *c >= cfg.min_loop_repeats {
                    looping.insert(a);
                }
            }
        }
    }
    let wide: BTreeSet<Ipv6Addr> = span
        .iter()
        .filter(|&(a, &(lo, hi))| hi - lo > cfg.max_ttl_span && !looping.contains(a))
        .map(|(&a, _)| a)
        .collect();
    let condemned: BTreeSet<Ipv6Addr> = looping.union(&wide).copied().collect();
    let mut report = QuarantineReport {
        looping_responders: looping.len() as u64,
        wide_span_responders: wide.len() as u64,
        condemned: condemned.iter().copied().collect(),
        ..QuarantineReport::default()
    };
    let cleaned = sets
        .iter()
        .map(|set| {
            let mut ids: HashMap<Ipv6Addr, u32> = HashMap::new();
            let mut words: Vec<u128> = Vec::new();
            let mut id_of = |a: Ipv6Addr| {
                *ids.entry(a).or_insert_with(|| {
                    words.push(u128::from(a));
                    words.len() as u32 - 1
                })
            };
            let touched_before = report.traces_touched;
            let traces: Vec<Trace> = set
                .iter()
                .map(|t| {
                    let dropped_before = report.cells_dropped();
                    let mut hops = Vec::new();
                    for (ttl, a) in t.hops() {
                        if condemned.contains(&a) {
                            report.condemned_hops_dropped += 1;
                        } else if ttl > cfg.max_plausible_ttl
                            || t.reached_at().is_some_and(|r| ttl > r)
                        {
                            report.implausible_hops_dropped += 1;
                        } else {
                            hops.push((ttl, id_of(a)));
                        }
                    }
                    let mut unreach = Vec::new();
                    for (ttl, a) in t.unreachable() {
                        if condemned.contains(&a) || ttl > cfg.max_plausible_ttl {
                            report.unreach_dropped += 1;
                        } else {
                            unreach.push((ttl, id_of(a)));
                        }
                    }
                    report.traces_touched += u64::from(report.cells_dropped() > dropped_before);
                    (t.target(), t.reached_at(), hops, unreach)
                })
                .collect();
            if report.traces_touched == touched_before {
                columns(set)
            } else {
                Columns { words, traces }
            }
        })
        .collect();
    (cleaned, report)
}

fn rec(target: Ipv6Addr, responder: Ipv6Addr, kind: ResponseKind, ttl: u8) -> ResponseRecord {
    ResponseRecord {
        target,
        responder,
        kind,
        probe_ttl: Some(ttl),
        rtt_us: Some(1),
        recv_us: 0,
        target_cksum_ok: true,
    }
}

fn set_of(vantage: &str, records: Vec<ResponseRecord>) -> TraceSet {
    TraceSet::from_log(&ProbeLog {
        vantage: vantage.into(),
        target_set: "q-props".into(),
        records,
        ..ProbeLog::default()
    })
}

fn target(i: u64) -> Ipv6Addr {
    Ipv6Addr::from((0x2001_0db8_u128 << 96) | ((i / 2) as u128) << 64 | (i % 2 + 1) as u128)
}

fn responder(i: u64) -> Ipv6Addr {
    Ipv6Addr::from((0x2001_0db8_ffff_u128 << 80) | (i + 1) as u128)
}

/// One record from a drawn word: a handful of targets and of responders
/// (the same pool in every set, so sets share responders and a repeat
/// within one trace is common), TTLs 1..=12 around every threshold the
/// drawn configuration can take, a fifth each of unreachables and of
/// the destination's own answer (which sets `reached_at`).
fn synth_record(w: u64) -> ResponseRecord {
    let t = target(w % 4);
    let ttl = ((w >> 8) % 12) as u8 + 1;
    match (w >> 16) % 5 {
        0 => rec(t, t, ResponseKind::EchoReply, ttl),
        1 => rec(
            t,
            responder((w >> 24) % 6),
            ResponseKind::DestUnreachable(DestUnreachCode::NoRoute),
            ttl,
        ),
        _ => rec(t, responder((w >> 24) % 6), ResponseKind::TimeExceeded, ttl),
    }
}

fn assert_matches_oracle(sets: &[&TraceSet], cfg: &QuarantineConfig) -> QuarantineReport {
    let (cleaned, report) = quarantine_all(sets, cfg);
    let (want, want_report) = naive_quarantine(sets, cfg);
    assert_eq!(report, want_report);
    assert_eq!(cleaned.len(), sets.len());
    for ((got, want), input) in cleaned.iter().zip(&want).zip(sets) {
        assert_eq!(&columns(got), want);
        assert_eq!(
            (&got.vantage, &got.target_set),
            (&input.vantage, &input.target_set)
        );
        if *want == columns(input) {
            assert!(
                matches!(got, Cow::Borrowed(s) if std::ptr::eq(*s, *input)),
                "an untouched set must come back as the input itself"
            );
        } else {
            assert!(matches!(got, Cow::Owned(_)), "a scrubbed set is rebuilt");
        }
    }
    assert_eq!(
        report.is_clean(),
        cleaned.iter().all(|c| matches!(c, Cow::Borrowed(_))),
        "a report is clean exactly when every slot is borrowed"
    );
    report
}

proptest! {
    #[test]
    fn quarantine_matches_the_address_keyed_oracle(
        draws in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..60), 1..4),
        min_loop_repeats in 1u32..4,
        max_ttl_span in 1u8..5,
        max_plausible_ttl in 6u8..13,
    ) {
        let sets: Vec<TraceSet> = draws
            .iter()
            .enumerate()
            .map(|(i, d)| set_of(&format!("V{i}"), d.iter().map(|&w| synth_record(w)).collect()))
            .collect();
        let refs: Vec<&TraceSet> = sets.iter().collect();
        let cfg = QuarantineConfig { min_loop_repeats, max_ttl_span, max_plausible_ttl };
        assert_matches_oracle(&refs, &cfg);
        // Sets rebased onto one table meet without a map; a set left on
        // a table of its own meets them through one.
        let mut rebased = sets.clone();
        TraceSet::rebase(&mut Arc::default(), &mut rebased);
        for shared in [sets.len(), sets.len() - 1] {
            let refs: Vec<&TraceSet> = rebased[..shared].iter().chain(&sets[shared..]).collect();
            assert_matches_oracle(&refs, &cfg);
        }
    }
}

#[test]
fn every_threshold_is_exact_and_evidence_pools_across_sets() {
    let cfg = QuarantineConfig {
        min_loop_repeats: 3,
        max_ttl_span: 4,
        max_plausible_ttl: 20,
    };
    let te = ResponseKind::TimeExceeded;
    let du = ResponseKind::DestUnreachable(DestUnreachCode::NoRoute);
    let [twice, thrice, at_span, past_span, far_unreach, loops_in_a, honest, deep] =
        [0, 1, 2, 3, 4, 5, 6, 7].map(responder);
    let a = set_of(
        "A",
        vec![
            // One repeat short of the loop rule, and exactly at it.
            rec(target(0), twice, te, 1),
            rec(target(0), twice, te, 2),
            rec(target(0), thrice, te, 3),
            rec(target(0), thrice, te, 4),
            rec(target(0), thrice, te, 5),
            // Half of two spans; set B holds the other ends.
            rec(target(1), at_span, te, 2),
            rec(target(1), past_span, te, 3),
            // Unreachable cells are no span evidence, however far apart.
            rec(target(1), far_unreach, du, 1),
            rec(target(2), far_unreach, du, 19),
            // Loops here, behaves in B.
            rec(target(2), loops_in_a, te, 6),
            rec(target(2), loops_in_a, te, 7),
            rec(target(2), loops_in_a, te, 8),
            // Beyond the destination's own answer, and past plausible.
            rec(target(3), honest, te, 9),
            rec(target(3), target(3), ResponseKind::EchoReply, 8),
            rec(target(1), deep, te, 21),
        ],
    );
    let b = set_of(
        "B",
        vec![
            rec(target(0), at_span, te, 6),
            rec(target(0), past_span, te, 8),
            rec(target(1), loops_in_a, te, 6),
            rec(target(2), loops_in_a, du, 6),
            rec(target(3), honest, te, 5),
        ],
    );
    let report = assert_matches_oracle(&[&a, &b], &cfg);
    assert_eq!(report.looping_responders, 2, "thrice and loops_in_a");
    assert_eq!(report.wide_span_responders, 1, "past_span only");
    let mut condemned = vec![thrice, past_span, loops_in_a];
    condemned.sort_unstable();
    assert_eq!(report.condemned, condemned);
    assert_eq!(report.condemned_hops_dropped, 3 + 2 + 3 + 1);
    assert_eq!(report.implausible_hops_dropped, 2);
    assert_eq!(report.unreach_dropped, 1, "B's unreachable from A's looper");

    // Alone, B has nothing against anyone.
    let alone = assert_matches_oracle(&[&b], &cfg);
    assert!(alone.is_clean());
}
