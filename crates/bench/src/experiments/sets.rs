//! Seed lists and target sets (§3): Tables 1, 2 and 5, Figures 2 and 3.
//! No probing.

use super::{leaders, ratio, source, z64_sets};
use crate::fmt::{human, pct};
use crate::report::Report;
use crate::Ctx;
use std::collections::BTreeMap;
use targets::{characterize, SetStats, TargetSet};
use v6addr::IidClass::{Eui64, LowByte, Random};

/// Table 1, with addr6's IID classes.
pub fn table1(ctx: &mut Ctx) -> Report {
    let seeds = &ctx.seeds;
    let mut r = Report::new("Name|#Entries|#Addrs|Random|LowByte|EUI-64");
    for (name, list) in seeds
        .named()
        .into_iter()
        .chain([("combined", &seeds.combined)])
    {
        let census = list.iid_census();
        // CDN aggregates hold prefixes only: no IID to classify.
        let frac = |class| match census.total {
            0 => "N/A".to_string(),
            _ => pct(census.fraction(class)),
        };
        let sizes = [human(list.len() as u64), human(census.total)];
        r.row(
            name,
            sizes.into_iter().chain([Random, LowByte, Eui64].map(frac)),
        );
    }
    let [k32, k256] = [&seeds.cdn_k32, &seeds.cdn_k256].map(|l| (l.len(), l.iid_census().total));
    r.claim(
        "table1.cdn-prefixes-only",
        "the CDN lists are kIP-anonymized prefix aggregates: entries but no addresses, IIDs N/A",
        k32.0 > 0 && k256.0 > 0 && k32.1 + k256.1 == 0,
        format!("(entries, addrs): k32 {k32:?}, k256 {k256:?}"),
    );
    let caida = seeds.caida.iid_census();
    let (low, random) = (caida.fraction(LowByte), caida.fraction(Random));
    r.claim(
        "table1.caida-half-lowbyte",
        "the CAIDA list is ::1 plus one random address per routed prefix: half low-byte, half random",
        (low - 0.5).abs() < 0.01 && (random - 0.5).abs() < 0.01,
        format!("low-byte {}, random {}", pct(low), pct(random)),
    );
    r
}

/// Table 2: the TUM collection's subsets (our analogues of rapid7-dnsany,
/// caida-dnsnames/traceroute/openipmap and ct/alexa), their sum and union.
pub fn table2(ctx: &mut Ctx) -> Report {
    let seeds = &ctx.seeds;
    let mut r = Report::new("Subset|#Entries");
    for p in &seeds.tum_parts {
        r.row(&p.name, [human(p.len() as u64)]);
    }
    let sum: u64 = seeds.tum_parts.iter().map(|p| p.len() as u64).sum();
    let unique = seeds.tum.len() as u64;
    r.blank();
    r.row("Total", [human(sum)]);
    r.row("Total Unique", [human(unique)]);
    r.claim(
        "table2.union-within-sum",
        "the unique union is no larger than the sum of the subsets",
        unique <= sum,
        format!("sum {sum}, unique {unique}"),
    );
    r.claim(
        "table2.heavy-overlap",
        "the subsets overlap heavily: the union is well below half the sum (80.1M summed, 5.6M unique)",
        2 * unique < sum,
        format!("sum {sum}, unique {unique}"),
    )
    .gap("the three synthetic subsets are drawn from fdns hosts, routers and clients: nearly disjoint populations");
    r
}

/// Table 5: every `(source, zn)` target set characterized against BGP.
pub fn table5(ctx: &mut Ctx) -> Report {
    let sets: Vec<&TargetSet> = ctx.targets.sets.iter().collect();
    let stats = characterize(&sets, &ctx.targets.independent_indices(), &ctx.topo.bgp);
    let mut r = Report::new("Name|Unique|Excl|Routed|ExclRtd|BGPPfx|ExclPfx|ASNs|ExclASN|6to4");
    // Four (own, exclusive) column pairs, then 6to4.
    let cells = |s: &SetStats, exclusive: &dyn Fn(u64) -> String| {
        let pairs = [(s.unique, s.exclusive), (s.routed, s.exclusive_routed)];
        let pairs = pairs
            .into_iter()
            .chain([(s.bgp_prefixes, s.exclusive_prefixes)]);
        let pairs = pairs.chain([(s.asns, s.exclusive_asns)]);
        let cells = pairs.flat_map(|(own, excl)| [human(own), exclusive(excl)]);
        cells.chain([human(s.sixtofour)]).collect::<Vec<_>>()
    };
    for s in &stats {
        r.row(&s.name, cells(s, &human));
    }
    // The union of everything (the paper's "Total both").
    let all = TargetSet::union("total", &sets);
    let total = &characterize(&[&all], &[], &ctx.topo.bgp)[0];
    r.blank();
    r.row("Total", cells(total, &|_| "N/A".into()));

    // Claims compare the z64 sets of the individually collected sources.
    let z64 = stats
        .iter()
        .map(|s| (&*s.name, s))
        .filter(|(n, _)| n.ends_with("-z64"));
    let z64 = z64
        .map(|(n, s)| (source(n), s))
        .filter(|(n, _)| !["random", "combined"].contains(n));
    let z64: BTreeMap<&str, &SetStats> = z64.collect();
    // `f`'s value on set `name`, and its largest value on any other set.
    let against = |name: &str, f: &dyn Fn(&SetStats) -> f64| {
        let others = z64.iter().filter(|(n, _)| **n != name).map(|(_, s)| f(s));
        (f(z64[name]), others.fold(0.0, f64::max))
    };
    let (fiebig, next) = against("fiebig", &|s| 1.0 - ratio(s.routed, s.unique));
    r.claim(
        "table5.fiebig-unrouted",
        "the rDNS (fiebig) set carries a large unrouted share: stale entries no other source has",
        fiebig > 0.1 && fiebig > next,
        format!(
            "unrouted: fiebig-z64 {}, next largest {}",
            pct(fiebig),
            pct(next)
        ),
    );
    let largest = leaders(z64.iter().map(|(n, s)| (*n, s.unique)), 2);
    r.claim(
        "table5.6gen-cdn-largest",
        "6gen and cdn-k32 dominate the unique target counts",
        largest == ["6gen", "cdn-k32"],
        format!("largest z64 sets: {largest:?}"),
    )
    .from_small();
    let (caida, next) = against("caida", &|s| ratio(s.bgp_prefixes.min(s.asns), s.unique));
    r.claim(
        "table5.caida-breadth",
        "caida covers the most BGP prefixes and ASNs per target",
        caida > next,
        format!("prefixes (ASNs) per target: caida-z64 {caida:.2}, next {next:.2}"),
    );
    let [fdns, tum, cdn] = ["fdns", "tum", "cdn-k32"].map(|n| z64[n].sixtofour);
    r.claim(
        "table5.dns-sets-carry-6to4",
        "the DNS-derived fdns and tum sets carry 6to4 targets; the CDN client aggregates carry none",
        fdns > 0 && tum > 0 && cdn == 0,
        format!("6to4 targets: fdns-z64 {fdns}, tum-z64 {tum}, cdn-k32-z64 {cdn}"),
    );
    r
}

/// Figure 2: Table 5's features, exclusivity among the z64 sets.
pub fn fig2(ctx: &mut Ctx) -> Report {
    let names = z64_sets(ctx, &["combined", "tum", "random"]);
    let sets: Vec<&TargetSet> = names.iter().map(|n| ctx.set(n)).collect();
    let independent: Vec<usize> = (0..sets.len()).collect();
    let stats = characterize(&sets, &independent, &ctx.topo.bgp);
    let mut r = Report::new("Set|Targets|Routed|BGPPfx|ASNs|ExclPfx|ExclASN|ExclPfx%|ExclASN%");
    for s in &stats {
        let (pfxs, asns) = (s.exclusive_prefixes, s.exclusive_asns);
        let counts = [s.unique, s.routed, s.bgp_prefixes, s.asns, pfxs, asns].map(human);
        let shares = [ratio(pfxs, s.bgp_prefixes), ratio(asns, s.asns)].map(pct);
        r.row(source(&s.name), counts.into_iter().chain(shares));
    }
    let sizes = stats.iter().map(|s| (source(&s.name), s.unique));
    let larger_half = leaders(sizes, stats.len() / 2);
    let broadest = leaders(stats.iter().map(|s| (source(&s.name), s.bgp_prefixes)), 1)[0];
    r.claim(
        "fig2.size-is-not-coverage",
        "set size does not correlate with BGP prefix/ASN coverage: the broadest set is one of the smaller ones",
        !larger_half.contains(&broadest),
        format!("most targets: {}; most BGP prefixes: {broadest}", larger_half[0]),
    );
    let all = TargetSet::union("all", &sets);
    let total = &characterize(&[&all], &[], &ctx.topo.bgp)[0];
    let pfxs = ratio(
        stats.iter().map(|s| s.exclusive_prefixes).sum(),
        total.bgp_prefixes,
    );
    let asns = ratio(stats.iter().map(|s| s.exclusive_asns).sum(), total.asns);
    r.claim(
        "fig2.coverage-is-shared",
        "the vast majority of prefixes and ASNs are covered by two or more sets",
        pfxs < 0.1 && asns < 0.1,
        format!(
            "exclusive to one set: {} of prefixes, {} of ASNs",
            pct(pfxs),
            pct(asns)
        ),
    );
    r
}

/// Figure 3: DPL CDFs, each set alone and each set's addresses inside the
/// combination of all; a rightward shift means the others interleave with it.
pub fn fig3(ctx: &mut Ctx) -> Report {
    const POINTS: [u8; 11] = [24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64];
    let names = z64_sets(ctx, &["combined", "random"]);
    let sets: Vec<&TargetSet> = names.iter().map(|n| ctx.set(n)).collect();
    let combined = TargetSet::union("combined", &sets);
    let mut r = Report::new("set \\ DPL<=");
    r.columns.extend(POINTS.map(|p| p.to_string()));
    r.columns.push("mean".into());
    // Mean DPL by source: alone, then within the combination.
    let [alone, within] = [("(a)", false), ("(b)", true)].map(|(panel, within)| {
        let means = sets.iter().map(|set| {
            let cdf = match within {
                true => set.dpl_cdf_within(&combined),
                false => set.dpl_cdf(),
            };
            let mean = cdf.mean().unwrap_or(0.0);
            let cells = POINTS.map(|p| format!("{:.2}", cdf.fraction_at(p)));
            let label = format!("{panel} {}", source(&set.name));
            r.row(label, cells.into_iter().chain([format!("{mean:.1}")]));
            (source(&set.name), mean)
        });
        let means: BTreeMap<&str, f64> = means.collect();
        r.blank();
        means
    });
    let [fiebig, caida, fiebig_in, caida_in] = [
        alone["fiebig"],
        alone["caida"],
        within["fiebig"],
        within["caida"],
    ];
    let leftmost = alone
        .iter()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(s, _)| *s);
    r.claim(
        "fig3.fiebig-dense-caida-sparse",
        "fiebig sits far right of caida, alone and combined (dense rDNS clusters vs one target per prefix); alone, caida is the leftmost set",
        fiebig > caida && fiebig_in > caida_in && leftmost == Some("caida"),
        format!("mean DPL fiebig/caida: alone {fiebig:.1}/{caida:.1}, combined {fiebig_in:.1}/{caida_in:.1}"),
    );
    let [cdn, sixgen, tum, shift] =
        ["cdn-k32", "6gen", "tum", "caida"].map(|s| within[s] - alone[s]);
    r.claim(
        "fig3.caida-shifts-right",
        "caida shifts right in combination: the other sets interleave with its sparse targets",
        shift >= 2.0,
        format!("caida mean DPL {caida:.1} alone, {caida_in:.1} combined"),
    );
    r.claim(
        "fig3.large-sets-barely-shift",
        "the large sets (cdn-k32, 6gen, tum) barely shift: they already discriminate among themselves",
        [cdn, sixgen, tum].iter().all(|&s| s < 2.0 && s < shift),
        format!("mean DPL shift: cdn-k32 {cdn:+.1}, 6gen {sixgen:+.1}, tum {tum:+.1}, caida {shift:+.1}"),
    );
    let fiebig_shift = fiebig_in - fiebig;
    r.claim(
        "fig3.fiebig-barely-shifts",
        "fiebig's dense clusters barely shift in combination: its mean DPL moves by under 2 bits",
        fiebig_shift.abs() < 2.0,
        format!("fiebig mean DPL {fiebig:.1} alone, {fiebig_in:.1} combined ({fiebig_shift:+.1})"),
    )
    .gap("the synthetic fiebig set walks the same host /64s that fdns, dnsdb and tum draw from: each of those alone moves its mean DPL about 1.9 bits at small");
    r
}
