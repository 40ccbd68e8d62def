//! Trace quarantine: scrubbing hostile-responder artifacts out of a
//! [`TraceSet`] before its interfaces feed anything downstream.
//!
//! The decoder ([`yarrp6::record::decode_response`]) already rejects
//! packets that are *provably* fabricated — bad checksums, spoofed
//! Time Exceeded messages quoting an unexhausted hop limit, truncated
//! garbage. What survives decoding is well-formed traffic from real
//! on-path devices that *lie at the trace level*: zombie middleboxes
//! answering for every TTL, duplicate-storm boxes shadowing their
//! neighbors, and TTL-rewriting routers whose quoted probe TTL places
//! them at depths they never occupied. Those lies are invisible per
//! packet and only emerge as cross-trace structure, which is what this
//! pass inspects:
//!
//! * **loop rule** — a responder appearing at
//!   [`QuarantineConfig::min_loop_repeats`] or more distinct TTLs of
//!   *one* trace is condemned. Per-flow ECMP pins a target's path, so a
//!   clean interface occupies exactly one depth per trace; only a
//!   device answering for hops it does not occupy (zombie, storm) can
//!   repeat.
//! * **span rule** — a responder whose observed probe-TTL range across
//!   *all* traces exceeds [`QuarantineConfig::max_ttl_span`] is
//!   condemned. Honest depths vary a little across targets and
//!   vantages; a TTL-rewriting router smears itself across the whole
//!   TTL space.
//! * **implausible TTL** — individual hop/unreachable cells beyond
//!   [`QuarantineConfig::max_plausible_ttl`] are dropped even when
//!   their responder survives.
//! * **beyond-destination** — a Time Exceeded deeper than the TTL at
//!   which the destination itself answered contradicts the probe's own
//!   fate; such cells are dropped.
//!
//! Condemnation is *global*: once an address is condemned anywhere,
//! every cell it owns is scrubbed from every set
//! ([`quarantine_all`] evaluates the rules jointly across vantages).
//! The sets' tables meet through one [`union`]: evidence and verdicts
//! are indexed by union id and read through each set's id map, so the
//! sets rebased onto one table need no map at all.
//! A set with nothing to scrub is neither rebuilt nor copied: its slot
//! is `Cow::Borrowed` from the input itself, so the clean-input path is
//! bit-identical by construction and costs no memory.

use crate::intern::{union, Reintern};
use crate::paths::PathBuilder;
use crate::traces::{Columns, TraceSet};
use std::borrow::Cow;
use std::net::Ipv6Addr;
use std::sync::Arc;

/// Thresholds for the quarantine rules. The defaults are conservative
/// for this simulator's topologies (depths well under 24) and for
/// Paris-style probing (per-target flow keys, so one depth per
/// responder per trace).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuarantineConfig {
    /// Distinct TTLs within one trace at which a responder must appear
    /// to be condemned as looping. `2` assumes Paris-style probing;
    /// raise it when probing varies flow labels per TTL.
    pub min_loop_repeats: u32,
    /// Maximum credible spread between a responder's shallowest and
    /// deepest observed probe TTL across all traces and vantages.
    pub max_ttl_span: u8,
    /// Hop/unreachable cells with a probe TTL above this are dropped
    /// outright.
    pub max_plausible_ttl: u8,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig {
            min_loop_repeats: 2,
            max_ttl_span: 24,
            max_plausible_ttl: 40,
        }
    }
}

/// What a quarantine pass found and removed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    /// Responders condemned by the loop rule.
    pub looping_responders: u64,
    /// Responders condemned by the span rule (not already looping).
    pub wide_span_responders: u64,
    /// Every condemned address, ascending — the union of both rules.
    pub condemned: Vec<Ipv6Addr>,
    /// Hop cells removed because their responder was condemned.
    pub condemned_hops_dropped: u64,
    /// Hop cells removed for an implausible or beyond-destination TTL
    /// while their responder survived.
    pub implausible_hops_dropped: u64,
    /// Destination Unreachable cells removed (condemned responder or
    /// implausible TTL).
    pub unreach_dropped: u64,
    /// Traces that lost at least one cell.
    pub traces_touched: u64,
}

impl QuarantineReport {
    /// Did the pass remove anything at all? A report is clean exactly
    /// when every returned slot is borrowed from its input.
    pub fn is_clean(&self) -> bool {
        self.condemned.is_empty()
            && self.condemned_hops_dropped == 0
            && self.implausible_hops_dropped == 0
            && self.unreach_dropped == 0
    }

    /// Total cells removed across all classes.
    pub fn cells_dropped(&self) -> u64 {
        self.condemned_hops_dropped + self.implausible_hops_dropped + self.unreach_dropped
    }
}

/// Rule evidence for one responder, indexed by union id and pooled
/// across every set's cells.
#[derive(Clone, Copy)]
struct Evidence {
    /// Shallowest and deepest hop-cell TTL; `lo > hi` until a hop cell
    /// is seen (unreachable cells are no span evidence).
    lo: u8,
    hi: u8,
    /// Met the loop rule in some trace.
    looped: bool,
    /// The trace (position across all sets, + 1) `repeats` counts cells
    /// of: a new stamp restarts the count, so nothing is cleared between
    /// traces.
    stamp: u32,
    repeats: u32,
}

const UNSEEN: Evidence = Evidence {
    lo: u8::MAX,
    hi: 0,
    looped: false,
    stamp: 0,
    repeats: 0,
};

/// Quarantines many sets jointly: the loop and span rules pool their
/// evidence across every set (a router lying toward one vantage is
/// condemned toward all), then each set is scrubbed independently.
/// Outputs are index-aligned with inputs: a slot is `Cow::Owned` only
/// where the pass dropped at least one cell, and a set that loses
/// nothing comes back `Cow::Borrowed` — the input itself, nothing
/// copied to say "unchanged".
pub fn quarantine_all<'a>(
    sets: &[&'a TraceSet],
    cfg: &QuarantineConfig,
) -> (Vec<Cow<'a, TraceSet>>, QuarantineReport) {
    // Pass 1: evidence per cell, by union id.
    let mut table = Arc::default();
    let maps = union(&mut table, sets.iter().map(|s| s.interner()));
    let mut evidence = vec![UNSEEN; table.len()];
    let mut stamp = 0;
    for (set, map) in sets.iter().zip(&maps) {
        for t in set.iter() {
            stamp += 1;
            // Min, max and count ask for no order: the walk from the leaf.
            for (ttl, id) in t.hop_cells().deepest_first() {
                let e = &mut evidence[union_id(map, id)];
                e.lo = e.lo.min(ttl);
                e.hi = e.hi.max(ttl);
                if e.stamp != stamp {
                    e.stamp = stamp;
                    e.repeats = 0;
                }
                e.repeats += 1;
                e.looped |= e.repeats >= cfg.min_loop_repeats;
            }
        }
    }
    let mut report = QuarantineReport::default();
    let mut condemned: Vec<Ipv6Addr> = Vec::new();
    let bad: Vec<bool> = table
        .words()
        .iter()
        .zip(&evidence)
        .map(|(&w, e)| {
            if e.looped {
                report.looping_responders += 1;
            } else if e.lo <= e.hi && e.hi - e.lo > cfg.max_ttl_span {
                report.wide_span_responders += 1;
            } else {
                return false;
            }
            condemned.push(Ipv6Addr::from(w));
            true
        })
        .collect();
    condemned.sort_unstable();

    // Pass 2: scrub each set.
    let cleaned = sets
        .iter()
        .zip(&maps)
        .map(|(&set, map)| {
            let bad = |id: u32| bad[union_id(map, id)];
            scrub(set, cfg, bad, &mut report).map_or(Cow::Borrowed(set), Cow::Owned)
        })
        .collect();
    report.condemned = condemned;
    (cleaned, report)
}

/// Where a set's `id` sits in the union, through the set's id map.
#[inline]
fn union_id(map: &Option<Vec<u32>>, id: u32) -> usize {
    map.as_ref().map_or(id, |m| m[id as usize]) as usize
}

/// Rebuilds one set without the condemned/implausible cells, or
/// returns `None` when no cell is dropped. The surviving cells are
/// re-interned in walk order (traces in target order, hops then
/// unreachables), so the cleaned interner holds *only* addresses still
/// backed by an observation — nothing condemned can leak out through
/// `discovery_delta` or `interface_words`. `bad(id)` is the verdict on
/// the set's own `id`.
fn scrub(
    set: &TraceSet,
    cfg: &QuarantineConfig,
    bad: impl Fn(u32) -> bool,
    report: &mut QuarantineReport,
) -> Option<TraceSet> {
    let keep_hop = |ttl: u8, id: u32, reached_at: Option<u8>| -> Option<bool> {
        // Some(true)=keep, Some(false)=implausible drop, None=condemned.
        if bad(id) {
            return None;
        }
        let beyond = matches!(reached_at, Some(r) if ttl > r);
        Some(ttl <= cfg.max_plausible_ttl && !beyond)
    };
    let keep_unreach = |ttl: u8, id: u32| -> bool { !bad(id) && ttl <= cfg.max_plausible_ttl };

    // Dry pass: is there anything to drop at all? Each path node is a
    // hop cell of some trace, and a trace holds a hop past its
    // `reached_at` exactly when its deepest one is.
    let clean = set
        .path_nodes()
        .iter()
        .all(|n| keep_hop(n.ttl(), n.id(), None) == Some(true))
        && set.iter().all(|t| {
            let r = t.reached_at();
            let last = t.hop_cells().last();
            last.is_none_or(|(ttl, id)| keep_hop(ttl, id, r) == Some(true))
                && t.unreachable_cells()
                    .iter()
                    .all(|(ttl, id)| keep_unreach(ttl, id))
        });
    if clean {
        return None;
    }

    // Sized for every address: a scrub drops few.
    let mut ids = Reintern::new(set.interner());

    let mut out = Columns::reserved([set.len(), set.cols.unreach_ids.len()]);
    let mut tree = PathBuilder::default();
    for t in set.iter() {
        let r = t.reached_at();
        let mut touched = false;
        for (ttl, id) in t.hop_cells() {
            match keep_hop(ttl, id, r) {
                Some(true) => tree.push(ttl, ids.id(id)),
                Some(false) => {
                    report.implausible_hops_dropped += 1;
                    touched = true;
                }
                None => {
                    report.condemned_hops_dropped += 1;
                    touched = true;
                }
            }
        }
        for (ttl, id) in t.unreachable_cells() {
            if keep_unreach(ttl, id) {
                out.unreach_ttls.push(ttl);
                out.unreach_ids.push(ids.id(id));
            } else {
                report.unreach_dropped += 1;
                touched = true;
            }
        }
        if touched {
            report.traces_touched += 1;
        }
        out.end_trace(tree.end(), r);
    }
    out.nodes = tree.finish();
    // One trace out for each trace in: the targets are the input's.
    out.targets = Arc::clone(&set.cols.targets);
    Some(TraceSet {
        vantage: set.vantage.clone(),
        target_set: set.target_set.clone(),
        rewritten_dropped: set.rewritten_dropped,
        interner: ids.finish().into(),
        cols: Arc::new(out),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use testkit::fixtures::rec;
    use yarrp6::{ProbeLog, ResponseKind, ResponseRecord};

    fn set_of(records: Vec<ResponseRecord>) -> TraceSet {
        TraceSet::from_log(&ProbeLog {
            vantage: Arc::from("V"),
            target_set: Arc::from("q-test"),
            records,
            ..ProbeLog::default()
        })
    }

    #[test]
    fn clean_set_comes_back_bit_identical() {
        let set = set_of(vec![
            rec("2001:db8::1", "::a", ResponseKind::TimeExceeded, Some(1)),
            rec("2001:db8::1", "::b", ResponseKind::TimeExceeded, Some(2)),
            rec(
                "2001:db8::1",
                "2001:db8::1",
                ResponseKind::EchoReply,
                Some(3),
            ),
            rec("2001:db8::2", "::a", ResponseKind::TimeExceeded, Some(1)),
        ]);
        let (cleaned, report) = quarantine_all(&[&set], &QuarantineConfig::default());
        assert!(report.is_clean());
        // Not a copy: the input itself, interner ids and all.
        assert!(matches!(cleaned[0], Cow::Borrowed(s) if std::ptr::eq(s, &set)));
    }

    #[test]
    fn zombie_repeating_across_ttls_is_condemned() {
        let set = set_of(vec![
            rec("2001:db8::1", "::ea1", ResponseKind::TimeExceeded, Some(1)),
            rec("2001:db8::1", "::bad", ResponseKind::TimeExceeded, Some(2)),
            rec("2001:db8::1", "::bad", ResponseKind::TimeExceeded, Some(3)),
            rec("2001:db8::1", "::bad", ResponseKind::TimeExceeded, Some(4)),
            // The zombie also answered for a second target, at a sane
            // single depth there: condemnation is global, so that cell
            // goes too.
            rec("2001:db8::2", "::bad", ResponseKind::TimeExceeded, Some(2)),
        ]);
        let (cleaned, report) = quarantine_all(&[&set], &QuarantineConfig::default());
        let cleaned = &cleaned[0];
        assert_eq!(report.looping_responders, 1);
        assert_eq!(report.condemned, vec!["::bad".parse::<Ipv6Addr>().unwrap()]);
        assert_eq!(report.condemned_hops_dropped, 4);
        assert_eq!(report.traces_touched, 2);
        assert_eq!(
            cleaned.interface_addrs(),
            vec!["::ea1".parse::<Ipv6Addr>().unwrap()]
        );
        // The scrubbed interner carries no trace of the zombie.
        assert!(!cleaned
            .interner()
            .words()
            .contains(&u128::from("::bad".parse::<Ipv6Addr>().unwrap())));
    }

    #[test]
    fn ttl_liar_smeared_across_traces_is_condemned_by_span() {
        let mut records = vec![rec(
            "2001:db8::1",
            "::be5",
            ResponseKind::TimeExceeded,
            Some(3),
        )];
        // One cell per target (Paris probing dedups per TTL), but the
        // lied depths range 1..=200 across targets.
        for (i, lie) in [1u8, 60, 130, 200].iter().enumerate() {
            records.push(rec(
                &format!("2001:db8::1:{}", i + 1),
                "::dead",
                ResponseKind::TimeExceeded,
                Some(*lie),
            ));
        }
        let set = set_of(records);
        let (cleaned, report) = quarantine_all(&[&set], &QuarantineConfig::default());
        let cleaned = &cleaned[0];
        assert_eq!(report.looping_responders, 0);
        assert_eq!(report.wide_span_responders, 1);
        assert_eq!(
            report.condemned,
            vec!["::dead".parse::<Ipv6Addr>().unwrap()]
        );
        assert_eq!(
            cleaned.interface_addrs(),
            vec!["::be5".parse::<Ipv6Addr>().unwrap()]
        );
        // Implausible-TTL cells (130, 200 > 40) are charged to the
        // condemned counter, not double-counted.
        assert_eq!(report.condemned_hops_dropped, 4);
        assert_eq!(report.implausible_hops_dropped, 0);
    }

    #[test]
    fn implausible_and_beyond_destination_cells_drop_without_condemning() {
        let set = set_of(vec![
            rec("2001:db8::1", "::a", ResponseKind::TimeExceeded, Some(2)),
            // Beyond max_plausible_ttl.
            rec("2001:db8::1", "::b", ResponseKind::TimeExceeded, Some(99)),
            // Beyond the destination's own answer at TTL 4.
            rec("2001:db8::2", "::c", ResponseKind::TimeExceeded, Some(6)),
            rec(
                "2001:db8::2",
                "2001:db8::2",
                ResponseKind::EchoReply,
                Some(4),
            ),
            rec("2001:db8::2", "::a", ResponseKind::TimeExceeded, Some(2)),
        ]);
        let (cleaned, report) = quarantine_all(&[&set], &QuarantineConfig::default());
        let cleaned = &cleaned[0];
        assert!(report.condemned.is_empty());
        assert_eq!(report.implausible_hops_dropped, 2);
        assert_eq!(report.traces_touched, 2);
        assert_eq!(
            cleaned.interface_addrs(),
            vec!["::a".parse::<Ipv6Addr>().unwrap()]
        );
        // reached_at survives scrubbing.
        assert_eq!(
            cleaned
                .get("2001:db8::2".parse().unwrap())
                .unwrap()
                .reached_at(),
            Some(4)
        );
    }

    #[test]
    fn condemnation_pools_across_sets() {
        // The zombie loops only in vantage A's set; vantage B saw it
        // once, at a plausible depth. Joint quarantine still scrubs B.
        let a = set_of(vec![
            rec("2001:db8::1", "::bad", ResponseKind::TimeExceeded, Some(2)),
            rec("2001:db8::1", "::bad", ResponseKind::TimeExceeded, Some(3)),
        ]);
        let b = set_of(vec![
            rec("2001:db8::9", "::bad", ResponseKind::TimeExceeded, Some(2)),
            rec("2001:db8::9", "::feed", ResponseKind::TimeExceeded, Some(3)),
        ]);
        let (cleaned, report) = quarantine_all(&[&a, &b], &QuarantineConfig::default());
        assert_eq!(report.looping_responders, 1);
        assert!(cleaned[0].interface_addrs().is_empty());
        assert_eq!(
            cleaned[1].interface_addrs(),
            vec!["::feed".parse::<Ipv6Addr>().unwrap()]
        );
        // Solo quarantine of B alone would have kept the zombie.
        let (solo, solo_report) = quarantine_all(&[&b], &QuarantineConfig::default());
        assert!(solo_report.is_clean());
        assert_eq!(solo[0].interface_addrs().len(), 2);
    }

    #[test]
    fn unreachable_cells_from_condemned_responders_drop() {
        let set = set_of(vec![
            rec("2001:db8::1", "::bad", ResponseKind::TimeExceeded, Some(2)),
            rec("2001:db8::1", "::bad", ResponseKind::TimeExceeded, Some(3)),
            rec(
                "2001:db8::2",
                "::bad",
                ResponseKind::DestUnreachable(v6packet::icmp6::DestUnreachCode::NoRoute),
                Some(4),
            ),
            rec(
                "2001:db8::2",
                "::f3",
                ResponseKind::DestUnreachable(v6packet::icmp6::DestUnreachCode::AdminProhibited),
                Some(3),
            ),
        ]);
        let (cleaned, report) = quarantine_all(&[&set], &QuarantineConfig::default());
        assert_eq!(report.unreach_dropped, 1);
        let t = cleaned[0].get("2001:db8::2".parse().unwrap()).unwrap();
        assert_eq!(t.unreachable().count(), 1);
        assert_eq!(
            t.unreachable().next().unwrap().1,
            "::f3".parse::<Ipv6Addr>().unwrap()
        );
    }

    #[test]
    fn repeat_quarantine_is_a_fixpoint() {
        let set = set_of(vec![
            rec("2001:db8::1", "::a", ResponseKind::TimeExceeded, Some(1)),
            rec("2001:db8::1", "::bad", ResponseKind::TimeExceeded, Some(2)),
            rec("2001:db8::1", "::bad", ResponseKind::TimeExceeded, Some(3)),
        ]);
        let cfg = QuarantineConfig::default();
        let (once, r1) = quarantine_all(&[&set], &cfg);
        let (twice, r2) = quarantine_all(&[&once[0]], &cfg);
        assert!(!r1.is_clean());
        assert!(r2.is_clean());
        assert!(matches!(twice[0], Cow::Borrowed(s) if std::ptr::eq(s, &*once[0])));
    }
}
