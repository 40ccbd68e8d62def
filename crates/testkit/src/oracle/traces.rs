//! The map-based analysis pipeline the columnar one is pinned against.
//!
//! [`Trace`]/[`TraceSet`] here are the `HashMap<Ipv6Addr, Trace>` +
//! per-trace `BTreeMap<u8, Ipv6Addr>` structures the analysis layer
//! started with, together with the original [`discover_by_path_div`] /
//! [`ia_hack`] implementations that re-sort and allocate per call.
//! [`analysis::TraceSet`] and the miners of [`analysis::subnets`] are
//! pinned bit-identical to this module by `analysis`'s
//! `tests/columnar_golden.rs`.
//!
//! [`trace_set`] goes the other way: hand-built [`Trace`]s in, the
//! library's columnar set out, through the library's own front door.

use analysis::subnets::{CandidateSubnet, PathDivParams};
use analysis::AsnResolver;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv6Addr;
use v6addr::{bits, dpl, Asn, Ipv6Prefix};
use v6packet::icmp6::DestUnreachCode;
use yarrp6::{ProbeLog, ResponseKind, ResponseRecord};

/// One reconstructed trace (map-based reference layout).
#[derive(Clone, Debug)]
pub struct Trace {
    /// The probed destination.
    pub target: Ipv6Addr,
    /// TTL → responding router interface (Time Exceeded sources only).
    pub hops: BTreeMap<u8, Ipv6Addr>,
    /// Smallest TTL at which the destination itself answered, if any.
    pub reached_at: Option<u8>,
    /// Destination Unreachable responses seen: (ttl, responder).
    pub unreachable: Vec<(u8, Ipv6Addr)>,
}

impl Trace {
    /// An empty trace toward `target`.
    pub fn new(target: Ipv6Addr) -> Self {
        Trace {
            target,
            hops: BTreeMap::new(),
            reached_at: None,
            unreachable: Vec::new(),
        }
    }

    /// Estimated path length in router hops: the TTL of the destination
    /// response when reached, else the deepest responding hop (a lower
    /// bound).
    pub fn path_len(&self) -> Option<u8> {
        self.reached_at
            .or_else(|| self.hops.keys().next_back().copied())
    }

    /// The deepest responding hop address (the "last hop" of §6).
    pub fn last_hop(&self) -> Option<(u8, Ipv6Addr)> {
        self.hops.iter().next_back().map(|(&t, &a)| (t, a))
    }

    /// The hop sequence `ttl=1..=k` with gaps as `None`, up to the
    /// deepest response.
    pub fn hop_vec(&self) -> Vec<Option<Ipv6Addr>> {
        let Some((&max, _)) = self.hops.iter().next_back() else {
            return Vec::new();
        };
        (1..=max).map(|t| self.hops.get(&t).copied()).collect()
    }
}

/// All traces of one campaign, indexed by target (reference layout).
#[derive(Clone, Debug, Default)]
pub struct TraceSet {
    /// target → trace.
    pub traces: HashMap<Ipv6Addr, Trace>,
    /// Campaign identity, carried through for reporting.
    pub vantage: String,
    /// Target-set name.
    pub target_set: String,
    /// Records dropped because the quoted destination failed the target
    /// checksum (middlebox rewriting detected).
    pub rewritten_dropped: u64,
}

impl TraceSet {
    /// Builds traces from a probe log (original per-record map updates).
    pub fn from_log(log: &ProbeLog) -> Self {
        let mut traces: HashMap<Ipv6Addr, Trace> = HashMap::new();
        let mut rewritten_dropped = 0u64;
        for r in &log.records {
            if !r.target_cksum_ok {
                rewritten_dropped += 1;
                continue;
            }
            let t = traces
                .entry(r.target)
                .or_insert_with(|| Trace::new(r.target));
            match r.kind {
                ResponseKind::TimeExceeded => {
                    if let Some(ttl) = r.probe_ttl {
                        // First responder wins; duplicates (fill + main
                        // probes) are consistent by path determinism.
                        t.hops.entry(ttl).or_insert(r.responder);
                    }
                }
                ResponseKind::DestUnreachable(c) if c != DestUnreachCode::PortUnreachable => {
                    if let Some(ttl) = r.probe_ttl {
                        t.unreachable.push((ttl, r.responder));
                    }
                }
                _ => {
                    // Destination responded (echo reply, TCP, port
                    // unreachable from the host).
                    let at = r.probe_ttl.unwrap_or(u8::MAX);
                    t.reached_at = Some(t.reached_at.map_or(at, |x| x.min(at)));
                }
            }
        }
        TraceSet {
            traces,
            vantage: log.vantage.to_string(),
            target_set: log.target_set.to_string(),
            rewritten_dropped,
        }
    }

    /// Number of traces with at least one response.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when no responses were recorded.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Iterates traces in target order (re-sorts on every call — the
    /// cost the columnar layout eliminates).
    pub fn iter_sorted(&self) -> Vec<&Trace> {
        let mut v: Vec<&Trace> = self.traces.values().collect();
        v.sort_by_key(|t| u128::from(t.target));
        v
    }
}

/// Original path-divergence discovery over the map-based trace set.
pub fn discover_by_path_div(
    ts: &TraceSet,
    resolver: &AsnResolver,
    vantage_asn: Asn,
    params: &PathDivParams,
) -> Vec<CandidateSubnet> {
    let traces = ts.iter_sorted();
    // Per-target best (max) DPL bound.
    let mut best: HashMap<Ipv6Addr, u8> = HashMap::new();
    for pair in traces.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if let Some(n) = divergence_bound(a, b, resolver, vantage_asn, params) {
            for t in [a.target, b.target] {
                let e = best.entry(t).or_insert(0);
                *e = (*e).max(n);
            }
        }
    }
    let mut out: Vec<CandidateSubnet> = best
        .into_iter()
        .map(|(t, n)| CandidateSubnet {
            prefix: Ipv6Prefix::truncating(t, n),
            exact: false,
        })
        .collect();
    out.sort_by_key(|c| (c.prefix.base_word(), c.prefix.len()));
    out.dedup();
    out
}

/// Tests one target pair for significant divergence; returns the DPL
/// bound when the gates pass (original allocating implementation).
fn divergence_bound(
    a: &Trace,
    b: &Trace,
    resolver: &AsnResolver,
    vantage_asn: Asn,
    params: &PathDivParams,
) -> Option<u8> {
    // T: both targets in the same organization.
    let asn_a = resolver.origin(a.target)?;
    let asn_b = resolver.origin(b.target)?;
    if params.targets_same_asn && !resolver.same_org(asn_a, asn_b) {
        return None;
    }

    let ha = a.hop_vec();
    let hb = b.hop_vec();

    // LCS: common prefix of the hop sequences. A position where both
    // responded with the same address extends it; differing responses
    // mark the divergence point; a missing response either terminates
    // the LCS (strict mode) or is skipped without being counted.
    let mut lcs_hops: Vec<Ipv6Addr> = Vec::new();
    let mut i = 0usize;
    let mut diverged_at = None;
    while i < ha.len().min(hb.len()) {
        match (ha[i], hb[i]) {
            (Some(x), Some(y)) if x == y => {
                lcs_hops.push(x);
                i += 1;
            }
            (Some(_), Some(_)) => {
                diverged_at = Some(i);
                break;
            }
            _ => {
                if !params.allow_gaps {
                    break;
                }
                i += 1;
            }
        }
    }
    let div = diverged_at?;
    if lcs_hops.len() < params.min_lcs {
        return None;
    }
    // A: divergence must happen outside the vantage AS.
    if params.last_lcs_outside_vantage_as {
        let last_asn = resolver.origin(*lcs_hops.last()?)?;
        if resolver.same_org(last_asn, vantage_asn) {
            return None;
        }
    }
    // C: enough LCS hops inside the target's organization.
    let lcs_matches = lcs_hops
        .iter()
        .filter(|&&h| {
            resolver
                .origin(h)
                .map(|x| resolver.same_org(x, asn_a))
                .unwrap_or(false)
        })
        .count();
    if lcs_matches < params.lcs_asn_matches {
        return None;
    }
    // DS: both suffixes non-empty (z = 0) and long enough, counting only
    // responding hops from the divergence point on.
    let ds_a: Vec<Ipv6Addr> = ha[div..].iter().flatten().copied().collect();
    let ds_b: Vec<Ipv6Addr> = hb[div..].iter().flatten().copied().collect();
    if ds_a.len() < params.min_ds || ds_b.len() < params.min_ds {
        return None;
    }
    // S: enough DS hops inside the target's organization, on each side.
    let count_in_org = |ds: &[Ipv6Addr], asn: Asn| {
        ds.iter()
            .filter(|&&h| {
                resolver
                    .origin(h)
                    .map(|x| resolver.same_org(x, asn))
                    .unwrap_or(false)
            })
            .count()
    };
    if count_in_org(&ds_a, asn_a) < params.ds_asn_matches
        || count_in_org(&ds_b, asn_b) < params.ds_asn_matches
    {
        return None;
    }

    dpl::dpl_of_pair(a.target, b.target)
}

/// Original IA-hack discovery over the map-based trace set.
pub fn ia_hack(ts: &TraceSet) -> Vec<CandidateSubnet> {
    let mut out = Vec::new();
    for t in ts.iter_sorted() {
        let Some((_, last)) = t.last_hop() else {
            continue;
        };
        let lw = u128::from(last);
        let tw = u128::from(t.target);
        let same_64 = bits::net_bits(lw) == bits::net_bits(tw);
        let is_one = bits::iid_bits(lw) == 1;
        if same_64 && is_one {
            out.push(CandidateSubnet {
                prefix: Ipv6Prefix::from_word(tw, 64),
                exact: true,
            });
        }
    }
    out.sort_by_key(|c| c.prefix.base_word());
    out.dedup();
    out
}

/// The columnar [`analysis::TraceSet`] holding exactly `traces`, built
/// the only way the library builds one: [`analysis::TraceSet::from_log`]
/// over records synthesized per trace. Of two traces toward one target
/// the last wins, as `HashMap::insert` would have it.
///
/// Traces go in target order and each contributes its hops (TTL
/// ascending), then its unreachables (as listed), then its destination
/// response — so responders are interned trace by trace, hops before
/// unreachables. The set carries no campaign identity and no dropped
/// records.
pub fn trace_set(traces: impl IntoIterator<Item = Trace>) -> analysis::TraceSet {
    let mut by_target: BTreeMap<u128, Trace> = BTreeMap::new();
    for t in traces {
        by_target.insert(u128::from(t.target), t);
    }
    let mut log = ProbeLog {
        traces: by_target.len() as u64,
        ..Default::default()
    };
    for t in by_target.into_values() {
        let record = |responder, kind, probe_ttl| ResponseRecord {
            target: t.target,
            responder,
            kind,
            probe_ttl,
            rtt_us: Some(1),
            recv_us: 0,
            target_cksum_ok: true,
        };
        let before = log.records.len();
        for (&ttl, &hop) in &t.hops {
            log.records
                .push(record(hop, ResponseKind::TimeExceeded, Some(ttl)));
        }
        for &(ttl, responder) in &t.unreachable {
            let kind = ResponseKind::DestUnreachable(DestUnreachCode::NoRoute);
            log.records.push(record(responder, kind, Some(ttl)));
        }
        if let Some(at) = t.reached_at {
            log.records
                .push(record(t.target, ResponseKind::EchoReply, Some(at)));
        }
        if log.records.len() == before {
            // A trace that heard nothing is still a trace: a Time
            // Exceeded that quotes no hop limit names its target and
            // adds no cell.
            log.records
                .push(record(t.target, ResponseKind::TimeExceeded, None));
        }
    }
    analysis::TraceSet::from_log(&log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    /// Hand-built trace: hops at ttl 1.. from a list.
    fn trace(target: &str, hops: &[&str]) -> Trace {
        let mut t = Trace::new(addr(target));
        for (i, h) in hops.iter().enumerate() {
            t.hops.insert(i as u8 + 1, addr(h));
        }
        t
    }

    #[test]
    fn trace_set_holds_the_traces_in_target_order_with_ids_in_walk_order() {
        // The pair `analysis::subnets`' tests diverge, given in reverse.
        let a = trace(
            "2001:db8:0:1::aa",
            &["2620:1::1", "2001:db8:ff::1", "2001:db8:ff::10"],
        );
        let mut b = trace(
            "2001:db8:0:2::bb",
            &["2620:1::1", "2001:db8:ff::1", "2001:db8:ff::20"],
        );
        b.unreachable.push((4, addr("2001:db8:ff::30")));
        b.unreachable.push((4, addr("2620:1::1")));
        b.reached_at = Some(5);
        let set = trace_set([b.clone(), a.clone()]);

        assert_eq!(set.targets(), [a.target, b.target]);
        // Ids: trace by trace, hops before unreachables, a known
        // address keeping its id.
        let words: Vec<Ipv6Addr> = set
            .interner()
            .words()
            .iter()
            .map(|&w| Ipv6Addr::from(w))
            .collect();
        let want = [
            "2620:1::1",
            "2001:db8:ff::1",
            "2001:db8:ff::10",
            "2001:db8:ff::20",
            "2001:db8:ff::30",
        ];
        assert_eq!(words, want.map(addr));
        for (view, t) in set.iter().zip([&a, &b]) {
            let hops: Vec<_> = t.hops.iter().map(|(&ttl, &h)| (ttl, h)).collect();
            assert_eq!(view.hops().collect::<Vec<_>>(), hops);
            assert_eq!(view.unreachable().collect::<Vec<_>>(), t.unreachable);
            assert_eq!(view.reached_at(), t.reached_at);
        }
        assert_eq!(
            set.view_at(1).hop_cells().iter().collect::<Vec<_>>(),
            [(1, 0), (2, 1), (3, 3)]
        );
        assert_eq!(
            set.view_at(1)
                .unreachable_cells()
                .iter()
                .collect::<Vec<_>>(),
            [(4, 4), (4, 0)]
        );
        assert_eq!((&*set.vantage, &*set.target_set), ("", ""));
        assert_eq!(set.rewritten_dropped, 0);
    }

    #[test]
    fn trace_set_keeps_gaps_and_the_last_of_two_traces_to_one_target() {
        let mut gapped = Trace::new(addr("2001:db8:0:1::aa"));
        gapped.hops.insert(1, addr("2620:1::1"));
        gapped.hops.insert(3, addr("2001:db8:ff::10")); // gap at 2
        let earlier = trace("2001:db8:0:1::aa", &["2620:2::1", "2620:2::2"]);
        let set = trace_set([earlier, gapped.clone()]);
        assert_eq!(set.len(), 1);
        let view = set.view_at(0);
        assert_eq!(
            view.hop_vec(),
            [gapped.hops.get(&1), None, gapped.hops.get(&3)].map(|h| h.copied())
        );
        // The loser left nothing behind, not even an interned address.
        assert_eq!(set.interner().len(), 2);
    }

    #[test]
    fn a_trace_that_heard_nothing_is_still_a_trace() {
        let mut reached = Trace::new(addr("2001:db8::2"));
        reached.reached_at = Some(255);
        let set = trace_set([Trace::new(addr("2001:db8::1")), reached]);
        assert_eq!(set.len(), 2);
        assert!(set.interner().is_empty());
        let silent = set.view_at(0);
        assert!(silent.hop_cells().is_empty() && silent.unreachable_cells().is_empty());
        assert_eq!((silent.reached_at(), silent.path_len()), (None, None));
        assert_eq!(set.view_at(1).reached_at(), Some(255));
        assert!(trace_set([]).is_empty());
    }
}
