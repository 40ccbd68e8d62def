//! Subnet discovery from trace results (§6).
//!
//! Two techniques:
//!
//! * **Path divergence** (`discoverByPathDiv`, after Lee & Spring's
//!   Hobbit adapted to IPv6): when traces to two targets share a
//!   significant *last common subpath* (LCS) and then diverge into
//!   significant *divergent suffixes* (DS), the targets are taken to be
//!   in different subnets; their Discriminating Prefix Length then
//!   lower-bounds both subnets' prefix lengths. The implementation is
//!   deliberately conservative, gated by the paper's parameters
//!   (`c, C, A, s, S, z, T`).
//! * **The IA hack**: when a trace's last hop is a `::1`-IID address in
//!   the *same /64* as the target, the gateway of the target's LAN
//!   answered — the /64 is discovered exactly and the trace is known to
//!   be complete.
//!
//! Candidate subnets report *minimum* prefix lengths: "we've discovered
//! a subnet having a prefix length of at least that reported".
//!
//! Both discoveries are **single sorted-merge passes** over the columnar
//! [`TraceSet`]: traces arrive already in target order (adjacent pairs
//! are just consecutive indices), hop comparison walks two `(ttl, id)`
//! slices with two cursors, and all per-address ASN lookups are resolved
//! once per unique interned address up front. The only allocation per
//! call is the output vector plus one reused LCS scratch buffer — the
//! original per-pair `hop_vec()` materializations live on as oracles in
//! the dev-only `testkit` crate (`testkit::oracle::discover_by_path_div`,
//! `ia_hack`) and are pinned equivalent by golden tests.

use crate::paths::{PathCursor, MAX_HOPS, ROOT};
use crate::traces::{AsnResolver, TraceSet, TraceView};
use serde::{Deserialize, Serialize};
use v6addr::{bits, dpl, Asn, Finger, Ipv6Prefix};

/// The discoverByPathDiv gate parameters (§6 defaults).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PathDivParams {
    /// `c` — minimum LCS length.
    pub min_lcs: usize,
    /// `C` — LCS hops whose ASN must match the target's ASN.
    pub lcs_asn_matches: usize,
    /// `A` — require the LCS's last hop outside the vantage AS.
    pub last_lcs_outside_vantage_as: bool,
    /// `s` — minimum DS length.
    pub min_ds: usize,
    /// `S` — DS hops whose ASN must match the target's ASN.
    pub ds_asn_matches: usize,
    /// `T` — require both targets in the same (equivalent) ASN.
    pub targets_same_asn: bool,
    /// Tolerate non-responding TTLs inside the common subpath (they are
    /// skipped and never counted toward `c`/`C`). The paper's strictest
    /// reading ("missing hop addresses are not allowed in the LCS") is
    /// `false`; the default `true` keeps vantages with a permanently
    /// silent hop (like the paper's own) usable.
    pub allow_gaps: bool,
}

impl Default for PathDivParams {
    fn default() -> Self {
        PathDivParams {
            min_lcs: 2,
            lcs_asn_matches: 1,
            last_lcs_outside_vantage_as: true,
            min_ds: 1,
            ds_asn_matches: 1,
            targets_same_asn: true,
            allow_gaps: true,
        }
    }
}

/// A discovered candidate subnet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CandidateSubnet {
    /// The subnet's covering prefix at the inferred minimum length.
    pub prefix: Ipv6Prefix,
    /// True when produced by the IA hack (exact /64), false for the
    /// path-divergence lower bound.
    pub exact: bool,
}

/// Per-unique-address ASN facts, resolved once and indexed by interned
/// id — the shared-interner payoff: a campaign touches each router
/// interface thousands of times but resolves it exactly once.
struct IdAsns {
    /// Origin ASN per interned id.
    origin: Vec<Option<Asn>>,
    /// Whether the id's origin is the vantage organization.
    vantage_org: Vec<bool>,
}

impl IdAsns {
    fn resolve(ts: &TraceSet, resolver: &AsnResolver, vantage_asn: Asn) -> Self {
        let origin = ts.interner().map_ids(|a| resolver.origin(a));
        let vantage_org = origin
            .iter()
            .map(|o| {
                o.map(|x| resolver.same_org(x, vantage_asn))
                    .unwrap_or(false)
            })
            .collect();
        IdAsns {
            origin,
            vantage_org,
        }
    }
}

/// Runs path-divergence discovery over a set of traces.
///
/// Pairs are formed between *address-adjacent* targets (sorted order):
/// nearest neighbors have the highest DPL and thus give the tightest
/// subnet bounds; comparing all O(n²) pairs adds nothing since any
/// farther pair has lower DPL than some adjacent chain. The columnar
/// store keeps targets sorted, so the pass is one linear walk.
pub fn discover_by_path_div(
    ts: &TraceSet,
    resolver: &AsnResolver,
    vantage_asn: Asn,
    params: &PathDivParams,
) -> Vec<CandidateSubnet> {
    let n = ts.len();
    if n < 2 {
        return Vec::new();
    }
    let ids = IdAsns::resolve(ts, resolver, vantage_asn);
    // Target origins, one lookup per trace; the targets ascend, so each
    // lookup resumes from the last.
    let mut finger = Finger::default();
    let tgt_origin: Vec<Option<Asn>> = ts
        .targets()
        .iter()
        .map(|&t| resolver.origin_from(&mut finger, t))
        .collect();

    // Per-target best (max) DPL bound; 0 = no divergence found (a real
    // bound is always >= 1).
    let mut best = vec![0u8; n];
    let mut lcs_buf: Vec<u32> = Vec::new();
    // Each trace's cells on a cursor that moves through every trace,
    // rewriting them below where the trace leaves the one before, then
    // copied off to stand as the previous trace's in the next pair.
    let nodes = ts.path_nodes();
    let mut path = PathCursor::default();
    let (mut ttls, mut hop_ids) = ([0; MAX_HOPS], [0; MAX_HOPS]);
    let (mut prev_ttls, mut prev_ids) = (Vec::new(), Vec::new());
    for i in 0..n {
        let t = ts.view_at(i);
        path.move_to(nodes, t.leaf().unwrap_or(ROOT), |d, node| {
            (ttls[d], hop_ids[d]) = (node.ttl(), node.id());
        });
        let len = t.hop_cells().len();
        let cells = (&ttls[..len], &hop_ids[..len]);
        if i > 0 {
            if let Some(b) = divergence_bound(
                [ts.view_at(i - 1), t],
                [(&prev_ttls, &prev_ids), cells],
                &ids,
                &tgt_origin,
                resolver,
                params,
                &mut lcs_buf,
            ) {
                best[i - 1] = best[i - 1].max(b);
                best[i] = best[i].max(b);
            }
        }
        prev_ttls.clear();
        prev_ttls.extend_from_slice(cells.0);
        prev_ids.clear();
        prev_ids.extend_from_slice(cells.1);
    }
    let mut out: Vec<CandidateSubnet> = ts
        .targets()
        .iter()
        .zip(&best)
        .filter(|&(_, &b)| b > 0)
        .map(|(&t, &b)| CandidateSubnet {
            prefix: Ipv6Prefix::truncating(t, b),
            exact: false,
        })
        .collect();
    out.sort_by_key(|c| (c.prefix.base_word(), c.prefix.len()));
    out.dedup();
    out
}

/// Tests one adjacent target pair for significant divergence; returns
/// the DPL bound when the gates pass. Walks the two hop slices with two
/// cursors — no `hop_vec` materialization, no per-pair allocation
/// (`lcs_buf` is reused across pairs). The second argument holds each
/// trace's hop limits and ids.
fn divergence_bound(
    [a, b]: [TraceView<'_>; 2],
    [(ta, ia), (tb, ib)]: [(&[u8], &[u32]); 2],
    ids: &IdAsns,
    tgt_origin: &[Option<Asn>],
    resolver: &AsnResolver,
    params: &PathDivParams,
    lcs_buf: &mut Vec<u32>,
) -> Option<u8> {
    // T: both targets in the same organization.
    let asn_a = tgt_origin[a.index()]?;
    let asn_b = tgt_origin[b.index()]?;
    if params.targets_same_asn && !resolver.same_org(asn_a, asn_b) {
        return None;
    }

    // Conceptual hop arrays run over ttl 1..=deepest; the walk visits
    // each position once, advancing both cursors monotonically.
    let deepest_a = ta.last().map_or(0, |&t| t as usize);
    let deepest_b = tb.last().map_or(0, |&t| t as usize);
    let limit = deepest_a.min(deepest_b);

    // LCS: common prefix of the hop sequences. A position where both
    // responded with the same interface extends it (id equality is
    // address equality — shared interner); differing responses mark the
    // divergence point; a missing response either terminates the LCS
    // (strict mode) or is skipped without being counted.
    lcs_buf.clear();
    let (mut pa, mut pb) = (0usize, 0usize);
    let mut diverged_at = None;
    let mut pos = 0usize;
    while pos < limit {
        let ttl = pos as u8 + 1;
        while pa < ta.len() && ta[pa] < ttl {
            pa += 1;
        }
        while pb < tb.len() && tb[pb] < ttl {
            pb += 1;
        }
        let xa = (pa < ta.len() && ta[pa] == ttl).then(|| ia[pa]);
        let xb = (pb < tb.len() && tb[pb] == ttl).then(|| ib[pb]);
        match (xa, xb) {
            (Some(x), Some(y)) if x == y => {
                lcs_buf.push(x);
                pos += 1;
            }
            (Some(_), Some(_)) => {
                diverged_at = Some(pos);
                break;
            }
            _ => {
                if !params.allow_gaps {
                    break;
                }
                pos += 1;
            }
        }
    }
    let div = diverged_at?;
    if lcs_buf.len() < params.min_lcs {
        return None;
    }
    // A: divergence must happen outside the vantage AS.
    if params.last_lcs_outside_vantage_as {
        let last = *lcs_buf.last()? as usize;
        ids.origin[last]?;
        if ids.vantage_org[last] {
            return None;
        }
    }
    // C: enough LCS hops inside the target's organization.
    let lcs_matches = lcs_buf
        .iter()
        .filter(|&&h| in_org(ids, resolver, h, asn_a))
        .count();
    if lcs_matches < params.lcs_asn_matches {
        return None;
    }
    // DS: both suffixes non-empty (z = 0) and long enough, counting only
    // responding hops from the divergence point on. In the flat layout
    // the divergent suffix is simply the tail of each hop slice.
    let ds_a = &ia[ta.partition_point(|&t| (t as usize) <= div)..];
    let ds_b = &ib[tb.partition_point(|&t| (t as usize) <= div)..];
    if ds_a.len() < params.min_ds || ds_b.len() < params.min_ds {
        return None;
    }
    // S: enough DS hops inside the target's organization, on each side.
    let count_in_org = |ds: &[u32], asn: Asn| {
        ds.iter()
            .filter(|&&h| in_org(ids, resolver, h, asn))
            .count()
    };
    if count_in_org(ds_a, asn_a) < params.ds_asn_matches
        || count_in_org(ds_b, asn_b) < params.ds_asn_matches
    {
        return None;
    }

    dpl::dpl_of_pair(a.target(), b.target())
}

#[inline]
fn in_org(ids: &IdAsns, resolver: &AsnResolver, id: u32, asn: Asn) -> bool {
    ids.origin[id as usize]
        .map(|x| resolver.same_org(x, asn))
        .unwrap_or(false)
}

/// The IA hack: traces whose last hop is a low-byte (`::1`) address in
/// the target's own /64 discovered that /64 exactly. One pass in target
/// order — the output is born sorted, no re-sort needed.
pub fn ia_hack(ts: &TraceSet) -> Vec<CandidateSubnet> {
    let mut out: Vec<CandidateSubnet> = Vec::new();
    let interner = ts.interner();
    for t in ts.iter() {
        let Some((_, last_id)) = t.hop_cells().last() else {
            continue;
        };
        let lw = interner.resolve_word(last_id);
        let tw = u128::from(t.target());
        let same_64 = bits::net_bits(lw) == bits::net_bits(tw);
        let is_one = bits::iid_bits(lw) == 1;
        if same_64 && is_one {
            out.push(CandidateSubnet {
                prefix: Ipv6Prefix::from_word(tw, 64),
                exact: true,
            });
        }
    }
    // Targets ascend, so /64 base words ascend too; only dedup remains.
    debug_assert!(out
        .windows(2)
        .all(|w| w[0].prefix.base_word() <= w[1].prefix.base_word()));
    out.dedup();
    out
}

/// Histogram of candidate counts by minimum prefix length (Fig 8b).
pub fn by_prefix_length(cands: &[CandidateSubnet]) -> std::collections::BTreeMap<u8, u64> {
    let mut m = std::collections::BTreeMap::new();
    for c in cands {
        *m.entry(c.prefix.len()).or_default() += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use testkit::fixtures::te;
    use yarrp6::{ProbeLog, ResponseRecord};

    /// Hand-built trace: hops at ttl 1.. from a list, as the Time
    /// Exceeded records they would arrive in.
    fn trace(target: &str, hops: &[&str]) -> Vec<ResponseRecord> {
        let hop = |(i, h): (usize, &&str)| te(target, h, i as u8 + 1, 0);
        hops.iter().enumerate().map(hop).collect()
    }

    fn resolver() -> AsnResolver {
        let mut bgp = v6addr::BgpTable::new();
        bgp.announce("2001:db8::/32".parse().unwrap(), Asn(100)); // target org
        bgp.announce("2620:1::/32".parse().unwrap(), Asn(50)); // transit
        bgp.announce("2620:2::/32".parse().unwrap(), Asn(1)); // vantage
        AsnResolver::new(bgp, vec![], &[])
    }

    fn ts(traces: Vec<Vec<ResponseRecord>>) -> TraceSet {
        TraceSet::from_log(&ProbeLog {
            records: traces.concat(),
            ..Default::default()
        })
    }

    #[test]
    fn detects_divergence_and_bounds_subnet() {
        // Shared: transit hop + org border; divergent: two distribution
        // routers inside the org.
        let a = trace(
            "2001:db8:0:1::aa",
            &["2620:1::1", "2001:db8:ff::1", "2001:db8:ff::10"],
        );
        let b = trace(
            "2001:db8:0:2::bb",
            &["2620:1::1", "2001:db8:ff::1", "2001:db8:ff::20"],
        );
        let cands = discover_by_path_div(
            &ts(vec![a, b]),
            &resolver(),
            Asn(1),
            &PathDivParams::default(),
        );
        assert_eq!(cands.len(), 2);
        let n = dpl::dpl_of_pair(
            "2001:db8:0:1::aa".parse().unwrap(),
            "2001:db8:0:2::bb".parse().unwrap(),
        )
        .unwrap();
        assert!(cands.iter().all(|c| c.prefix.len() == n));
    }

    #[test]
    fn no_divergence_no_candidates() {
        // Identical paths except final hop missing: no divergent suffix.
        let a = trace("2001:db8:0:1::aa", &["2620:1::1", "2001:db8:ff::1"]);
        let b = trace("2001:db8:0:2::bb", &["2620:1::1", "2001:db8:ff::1"]);
        let cands = discover_by_path_div(
            &ts(vec![a, b]),
            &resolver(),
            Asn(1),
            &PathDivParams::default(),
        );
        assert!(cands.is_empty());
    }

    #[test]
    fn different_asn_targets_rejected() {
        let a = trace(
            "2001:db8:0:1::aa",
            &["2620:1::1", "2001:db8:ff::1", "2001:db8:ff::10"],
        );
        let b = trace(
            "2620:2:0:2::bb",
            &["2620:1::1", "2001:db8:ff::1", "2001:db8:ff::20"],
        );
        let cands = discover_by_path_div(
            &ts(vec![a, b]),
            &resolver(),
            Asn(1),
            &PathDivParams::default(),
        );
        assert!(cands.is_empty());
    }

    #[test]
    fn short_lcs_rejected() {
        let a = trace("2001:db8:0:1::aa", &["2620:1::1", "2001:db8:ff::10"]);
        let b = trace("2001:db8:0:2::bb", &["2620:1::1", "2001:db8:ff::20"]);
        // LCS = 1 < c = 2.
        let cands = discover_by_path_div(
            &ts(vec![a, b]),
            &resolver(),
            Asn(1),
            &PathDivParams::default(),
        );
        assert!(cands.is_empty());
    }

    #[test]
    fn missing_hop_in_lcs_rejected() {
        let a = vec![
            te("2001:db8:0:1::aa", "2620:1::1", 1, 0),
            te("2001:db8:0:1::aa", "2001:db8:ff::10", 3, 0), // gap at 2
        ];
        let b = trace(
            "2001:db8:0:2::bb",
            &["2620:1::1", "2001:db8:ff::1", "2001:db8:ff::20"],
        );
        let cands = discover_by_path_div(
            &ts(vec![a, b]),
            &resolver(),
            Asn(1),
            &PathDivParams::default(),
        );
        assert!(cands.is_empty());
    }

    #[test]
    fn divergence_inside_vantage_as_rejected() {
        // All common hops inside the vantage AS (2620:2::/32, ASN 1).
        let a = trace(
            "2001:db8:0:1::aa",
            &["2620:2::1", "2620:2::2", "2001:db8:ff::10"],
        );
        let b = trace(
            "2001:db8:0:2::bb",
            &["2620:2::1", "2620:2::2", "2001:db8:ff::20"],
        );
        let cands = discover_by_path_div(
            &ts(vec![a.clone(), b.clone()]),
            &resolver(),
            Asn(1),
            &PathDivParams::default(),
        );
        assert!(cands.is_empty());
        // With the gate disabled (and C relaxed — the LCS is all vantage
        // hops), the same pair passes.
        let relaxed = PathDivParams {
            last_lcs_outside_vantage_as: false,
            lcs_asn_matches: 0,
            ..Default::default()
        };
        let cands = discover_by_path_div(&ts(vec![a, b]), &resolver(), Asn(1), &relaxed);
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn ia_hack_finds_gateway_64() {
        let t = trace("2001:db8:0:7::abcd", &["2620:1::1", "2001:db8:0:7::1"]);
        let cands = ia_hack(&ts(vec![t]));
        assert_eq!(cands.len(), 1);
        assert!(cands[0].exact);
        assert_eq!(cands[0].prefix, "2001:db8:0:7::/64".parse().unwrap());
        // A last hop in a different /64 does not trigger.
        let t2 = trace("2001:db8:0:8::abcd", &["2620:1::1", "2001:db8:0:9::1"]);
        assert!(ia_hack(&ts(vec![t2])).is_empty());
        // A non-::1 last hop does not trigger.
        let t3 = trace("2001:db8:0:8::abcd", &["2620:1::1", "2001:db8:0:8::2"]);
        assert!(ia_hack(&ts(vec![t3])).is_empty());
    }

    #[test]
    fn histogram_counts() {
        let cands = vec![
            CandidateSubnet {
                prefix: "2001:db8::/48".parse().unwrap(),
                exact: false,
            },
            CandidateSubnet {
                prefix: "2001:db8:1::/48".parse().unwrap(),
                exact: false,
            },
            CandidateSubnet {
                prefix: "2001:db8:2:3::/64".parse().unwrap(),
                exact: true,
            },
        ];
        let h: BTreeMap<u8, u64> = by_prefix_length(&cands);
        assert_eq!(h[&48], 2);
        assert_eq!(h[&64], 1);
    }
}
