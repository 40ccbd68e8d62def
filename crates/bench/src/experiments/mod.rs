//! The experiments, in the paper's order, and what several of them share.

mod campaigns;
mod followups;
mod sets;
mod trials;

use crate::{Ctx, Experiment};
use analysis::{discover_by_path_div, AsnResolver, CandidateSubnet, PathDivParams, TraceSet};
use std::collections::BTreeMap;

/// Every table and figure `repro` knows.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { id: "table1", title: "Seed list properties", paper_ref: "Table 1", run: sets::table1 },
    Experiment { id: "table2", title: "TUM seed subsets", paper_ref: "Table 2", run: sets::table2 },
    Experiment { id: "table3", title: "ICMPv6 trial by zn transformation (fdns)", paper_ref: "Table 3", run: trials::table3 },
    Experiment { id: "table4", title: "ICMPv6 response mix by IID synthesis (cdn-k256 z64 vs known fiebig addresses, UDP)", paper_ref: "Table 4", run: trials::table4 },
    Experiment { id: "table5", title: "Target set properties", paper_ref: "Table 5", run: sets::table5 },
    Experiment { id: "table6", title: "Fill mode by maximum TTL (caida-z64, fill cap 32)", paper_ref: "Table 6", run: trials::table6 },
    Experiment { id: "table7", title: "Aggregate campaigns, 3 vantages x 18 target sets", paper_ref: "Table 7", run: campaigns::table7 },
    Experiment { id: "fig2", title: "Features contributed by each z64 target set", paper_ref: "Fig 2", run: sets::fig2 },
    Experiment { id: "fig3", title: "DPL CDFs of the z64 sets, (a) alone and (b) within their combination", paper_ref: "Fig 3", run: sets::fig3 },
    Experiment { id: "fig5", title: "Per-hop responsiveness, sequential vs randomized, by rate (caida-z64)", paper_ref: "Fig 5, §4.2", run: trials::fig5 },
    Experiment { id: "fig6", title: "Result features of the z64 campaigns, all vantages", paper_ref: "Fig 6", run: campaigns::fig6 },
    Experiment { id: "fig7", title: "Interfaces discovered vs probes sent, z64 sets from EU-NET", paper_ref: "Fig 7", run: campaigns::fig7 },
    Experiment { id: "fig8", title: "Subnets inferred by path divergence: CDF of lengths, counts, IA-hack /64s", paper_ref: "Fig 8, §6", run: campaigns::fig8 },
    Experiment { id: "doubletree", title: "Doubletree vs sequential vs Yarrp6 by rate (caida-z64 from US-EDU-1)", paper_ref: "§4.2 Doubletree", run: trials::doubletree },
    Experiment { id: "protocol", title: "ICMPv6 vs UDP vs TCP probes (caida seed addresses, 20 pps)", paper_ref: "§4.3 Protocol", run: trials::protocol },
    Experiment { id: "ablation", title: "Per-target constant headers vs per-probe flow labels (combined-z64, two campaigns each)", paper_ref: "§4.1", run: followups::ablation },
    Experiment { id: "validation", title: "Yarrp6 from one vantage vs an Ark-style production system", paper_ref: "§5.3", run: followups::validation },
    Experiment { id: "subnets", title: "Inferred subnets against ground-truth distribution subnets", paper_ref: "§6 validation", run: followups::subnets },
    Experiment { id: "alias", title: "Speedtrap alias resolution and the router-level graph", paper_ref: "§7.2", run: followups::alias },
];

/// Names of the catalog's z64 sets, minus the sources in `skip`.
fn z64_sets(ctx: &Ctx, skip: &[&str]) -> Vec<String> {
    let keep = |n: &&str| n.ends_with("-z64") && !skip.iter().any(|s| n.starts_with(s));
    let names = ctx.targets.iter().map(|(n, _)| n);
    names.filter(keep).map(str::to_string).collect()
}

/// Subnets inferred by path divergence from `vantage`'s `traces`.
fn path_div(
    ctx: &Ctx,
    resolver: &AsnResolver,
    traces: &TraceSet,
    vantage: usize,
) -> Vec<CandidateSubnet> {
    let asn = ctx.topo.ases[ctx.topo.vantages[vantage].as_idx as usize].asn;
    discover_by_path_div(traces, resolver, asn, &PathDivParams::default())
}

/// A set's source: its name without the `-z64` suffix.
fn source(name: &str) -> &str {
    name.trim_end_matches("-z64")
}

/// For each set (its members unique: a `BTreeSet` or a sorted, deduped
/// `Vec`), how many of its members no other set holds.
fn exclusive<T: Ord + Copy, S>(sets: &[&S]) -> Vec<u64>
where
    for<'s> &'s S: IntoIterator<Item = &'s T>,
{
    let mut holders: BTreeMap<T, u32> = BTreeMap::new();
    for &x in sets.iter().flat_map(|&s| s) {
        *holders.entry(x).or_default() += 1;
    }
    let alone = |&s: &&S| s.into_iter().filter(|x| holders[x] == 1).count() as u64;
    sets.iter().map(alone).collect()
}

/// The `n` names with the largest values, largest first.
fn leaders<'a>(rows: impl IntoIterator<Item = (&'a str, u64)>, n: usize) -> Vec<&'a str> {
    let mut rows: Vec<(&str, u64)> = rows.into_iter().collect();
    rows.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
    rows.into_iter().take(n).map(|(name, _)| name).collect()
}

/// `a / b`, zero when `b` is.
fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}
