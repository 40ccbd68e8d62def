//! The Yarrp6 campaigns of §5 and the subnet inference of §6: Table 7,
//! Figures 6, 7 and 8. All default-config campaigns of catalog sets, so
//! all of them come from (and fill) the campaign cache.

use super::{exclusive, leaders, path_div, source, z64_sets};
use crate::fmt::{human, pct};
use crate::report::Report;
use crate::Ctx;
use analysis::metrics::CampaignMetrics;
use analysis::{ia_hack, CandidateSubnet, TraceSet};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;
use std::sync::Arc;
use v6addr::{BgpTable, Ipv6Prefix};
use yarrp6::ProbeLog;

/// What the three vantages' campaigns against one target set found.
struct SetResult {
    name: String,
    probes: u64,
    ifaces: BTreeSet<Ipv6Addr>,
    pfxs: BTreeSet<Ipv6Prefix>,
    asns: BTreeSet<u32>,
}

impl SetResult {
    fn of(name: &str, logs: &[Arc<ProbeLog>], bgp: &BgpTable) -> SetResult {
        let ifaces: BTreeSet<Ipv6Addr> = logs.iter().flat_map(|l| l.interface_addrs()).collect();
        let routed: Vec<_> = ifaces.iter().filter_map(|&a| bgp.lookup(a)).collect();
        SetResult {
            name: name.to_string(),
            probes: logs.iter().map(|l| l.probes_sent).sum(),
            pfxs: routed.iter().map(|&(p, _)| p).collect(),
            asns: routed.iter().map(|&(_, asn)| asn.0).collect(),
            ifaces,
        }
    }

    /// Interfaces, prefixes, ASNs and the exclusive count of each, for
    /// every result among all.
    fn features(results: &[SetResult]) -> Vec<[u64; 6]> {
        let excl_i = exclusive(&results.iter().map(|r| &r.ifaces).collect::<Vec<_>>());
        let excl_p = exclusive(&results.iter().map(|r| &r.pfxs).collect::<Vec<_>>());
        let excl_a = exclusive(&results.iter().map(|r| &r.asns).collect::<Vec<_>>());
        let own = |r: &SetResult| [r.ifaces.len(), r.pfxs.len(), r.asns.len()].map(|n| n as u64);
        let row = |(i, r)| {
            let [ifaces, pfxs, asns] = own(r);
            [ifaces, excl_i[i], pfxs, excl_p[i], asns, excl_a[i]]
        };
        results.iter().enumerate().map(row).collect()
    }
}

/// Table 7, reverse-sorted by interface yield under the summary rows.
pub fn table7(ctx: &mut Ctx) -> Report {
    let names: Vec<String> = ctx.targets.iter().map(|(n, _)| n.to_string()).collect();
    // Per vantage: probes, interfaces, per-set reach fractions.
    let mut vantages = [(); 3].map(|_| (0u64, BTreeSet::new(), Vec::new()));
    let (mut results, mut metrics) = (Vec::new(), Vec::new());
    for name in names.iter().filter(|n| !n.starts_with("combined")) {
        let logs = ctx.logs(name, &[0, 1, 2]);
        let bgp = &ctx.topo.bgp;
        let logs_ref: Vec<&ProbeLog> = logs.iter().map(|l| &**l).collect();
        for (log, v) in logs_ref.iter().zip(&mut vantages) {
            v.0 += log.probes_sent;
            v.1.extend(log.interface_addrs());
            v.2.push(CampaignMetrics::compute(&[log], bgp).reach_frac);
        }
        // The three vantages' traces pooled, each on its own path.
        metrics.push(CampaignMetrics::compute(&logs_ref, bgp));
        results.push(SetResult::of(name, &logs, bgp));
    }
    let features = SetResult::features(&results);

    let mut r = Report::new("Campaign|Probes|Targets|IntAddrs|ExclInt|IntPfx|ExclPfx|IntASN|ExclASN|Reach%|PathLen|EUI64|EUI%|Offset");
    let all: BTreeSet<&Ipv6Addr> = results.iter().flat_map(|s| &s.ifaces).collect();
    let probes: u64 = results.iter().map(|s| s.probes).sum();
    r.row(
        "ALL",
        [human(probes), String::new(), human(all.len() as u64)],
    );
    for (v, (probes, ifaces, reach)) in ctx.topo.vantages.iter().zip(&vantages) {
        let mut cells = vec![String::new(); 9];
        cells[0] = human(*probes);
        cells[2] = human(ifaces.len() as u64);
        cells[8] = pct(reach.iter().sum::<f64>() / reach.len().max(1) as f64);
        r.row(&v.name, cells);
    }
    r.blank();
    let mut order: Vec<usize> = (0..results.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(results[i].ifaces.len()));
    for i in order {
        let (s, m) = (&results[i], &metrics[i]);
        let head = [human(s.probes), human(ctx.set(&s.name).len() as u64)];
        let tail = [
            pct(m.reach_frac),
            format!("{} ({})", m.path_len_p95, m.path_len_median),
            human(m.eui64_addrs),
            pct(m.eui64_frac),
            format!("{} ({})", m.eui64_offset_p5, m.eui64_offset_median),
        ];
        r.row(
            &s.name,
            head.into_iter().chain(features[i].map(human)).chain(tail),
        );
    }

    let by_name = |name: &str| {
        results
            .iter()
            .position(|s| s.name == name)
            .expect("campaign")
    };
    let ifaces = |name: &str| results[by_name(name)].ifaces.len();
    let best = vantages.iter().map(|v| v.1.len()).max().unwrap_or(0);
    r.claim(
        "table7.vantages-add-up",
        "the union of the three vantages holds more interfaces than the best single vantage",
        all.len() > best,
        format!("union {}, best vantage {best}", all.len()),
    );
    let gain = all.len() as f64 / best.max(1) as f64;
    r.claim(
        "table7.union-a-fifth-above-best",
        "vantage diversity pays: the union holds at least 1.2x the interfaces of the best single vantage",
        gain >= 1.2,
        format!("union {gain:.3}x the best vantage"),
    )
    .gap("the simulated Internet is shallow: at max TTL 16 every vantage reaches nearly every interface the others do");
    let alone = exclusive(&vantages.each_ref().map(|v| &v.1));
    r.claim(
        "table7.every-vantage-exclusive",
        "every vantage discovers interfaces no other vantage does",
        alone.iter().all(|&n| n > 0),
        format!("exclusive interfaces by vantage: {alone:?}"),
    );
    let z48s = results
        .iter()
        .map(|s| s.name.as_str())
        .filter(|n| n.ends_with("-z48"));
    let worse: Vec<&str> = z48s
        .filter(|n| ifaces(n) > ifaces(&n.replace("-z48", "-z64")))
        .collect();
    r.claim(
        "table7.z64-beats-z48",
        "for every source the z64 set finds at least the interfaces of its z48 set",
        worse.is_empty(),
        format!("z48 sets that find more than their z64 set: {worse:?}"),
    );
    let column = |c: usize| {
        results
            .iter()
            .zip(&features)
            .map(move |(s, f)| (s.name.as_str(), f[c]))
    };
    let (by_ifaces, by_excl) = (leaders(column(0), 2), leaders(column(1), 2));
    r.claim(
        "table7.cdn-tum-lead-exclusives",
        "cdn-k32-z64 and tum-z64 contribute the most exclusive interfaces",
        by_excl.contains(&"cdn-k32-z64") && by_excl.contains(&"tum-z64"),
        format!("most exclusive interfaces: {by_excl:?}"),
    );
    r.claim(
        "table7.cdn-tum-lead-interfaces",
        "cdn-k32-z64 and tum-z64 find the most interfaces",
        by_ifaces.contains(&"cdn-k32-z64") && by_ifaces.contains(&"tum-z64"),
        format!("most interfaces: {by_ifaces:?}"),
    )
    .from_small();
    let [cdn, tum] = ["cdn-k32-z64", "tum-z64"].map(|n| &metrics[by_name(n)]);
    let others = results.iter().zip(&metrics);
    let others = others.filter(|(s, _)| !s.name.starts_with("cdn") && !s.name.starts_with("tum"));
    let rest = others.map(|(_, m)| m.eui64_frac).fold(0.0, f64::max);
    r.claim(
        "table7.cpe-clouds-are-eui64",
        "their interfaces are EUI-64 to a far larger extent than any other source's (CPE clouds)",
        cdn.eui64_frac > 2.0 * rest && tum.eui64_frac > 2.0 * rest,
        format!(
            "EUI-64 share: cdn-k32-z64 {}, tum-z64 {}, largest other {}",
            pct(cdn.eui64_frac),
            pct(tum.eui64_frac),
            pct(rest)
        ),
    );
    r.claim(
        "table7.cdn-eui64-over-30pct",
        "the CDN campaign reveals a CPE cloud: over 30% of cdn-k32-z64's interfaces are EUI-64",
        cdn.eui64_frac > 0.3,
        format!("EUI-64 share of cdn-k32-z64 {}", pct(cdn.eui64_frac)),
    );
    let offsets = [cdn.eui64_offset_median, tum.eui64_offset_median];
    r.claim(
        "table7.eui64-near-last-hop",
        "their EUI-64 interfaces sit at or near the last hop: median path offset within three hops of the end",
        offsets.iter().all(|&o| o >= -3),
        format!("median EUI-64 offset, cdn-k32-z64 and tum-z64: {offsets:?}"),
    )
    .from_small();
    r.claim(
        "table7.eui64-within-two-hops",
        "cdn-k32-z64's EUI-64 interfaces sit within two hops of the end of their paths (median offset)",
        offsets[0] >= -2,
        format!("median EUI-64 offset of cdn-k32-z64 {}", offsets[0]),
    );
    let (caida, fiebig) = (ifaces("caida-z64"), ifaces("fiebig-z64"));
    let dns = ["dnsdb-z64", "fdns-z64", "tum-z64"].map(ifaces);
    r.claim(
        "table7.caida-fiebig-trail",
        "caida and fiebig trail the DNS-derived sets despite caida's breadth",
        caida < fiebig && dns.iter().all(|&n| fiebig < n),
        format!("interfaces: caida-z64 {caida}, fiebig-z64 {fiebig}, dnsdb/fdns/tum-z64 {dns:?}"),
    );
    r
}

/// Figure 6: Table 7's features, exclusivity among the z64 campaigns.
pub fn fig6(ctx: &mut Ctx) -> Report {
    let mut results = Vec::new();
    for name in z64_sets(ctx, &["combined", "random"]) {
        let logs = ctx.logs(&name, &[0, 1, 2]);
        results.push(SetResult::of(source(&name), &logs, &ctx.topo.bgp));
    }
    let features = SetResult::features(&results);
    let mut r = Report::new("Set|Traces|IntAddrs|ExclInt|IntPfx|ExclPfx|IntASN|ExclASN");
    for (s, f) in results.iter().zip(&features) {
        r.row(&s.name, [human(s.probes)].into_iter().chain(f.map(human)));
    }
    let pfxs: BTreeSet<_> = results.iter().flat_map(|s| &s.pfxs).collect();
    let asns: BTreeSet<_> = results.iter().flat_map(|s| &s.asns).collect();
    let excl = |c: usize| features.iter().map(|f| f[c]).sum::<u64>();
    let (excl_p, excl_a) = (excl(3), excl(5));
    r.claim(
        "fig6.prefixes-asns-shared",
        "the prefixes and ASNs of discovered interfaces are overwhelmingly shared across campaigns",
        20 * excl_p <= pfxs.len() as u64 && 20 * excl_a <= asns.len() as u64,
        format!(
            "exclusive to one campaign: {excl_p} of {} prefixes, {excl_a} of {} ASNs",
            pfxs.len(),
            asns.len()
        ),
    );
    let by_excl = leaders(
        results
            .iter()
            .zip(&features)
            .map(|(s, f)| (s.name.as_str(), f[1])),
        2,
    );
    r.claim(
        "fig6.cdn-tum-exclusive-interfaces",
        "cdn-k32 and tum carry the largest exclusive interface counts",
        by_excl.contains(&"cdn-k32") && by_excl.contains(&"tum"),
        format!("most exclusive interfaces: {by_excl:?}"),
    )
    .from_small();
    r
}

/// Figure 7, sampled at log-spaced probe counts.
pub fn fig7(ctx: &mut Ctx) -> Report {
    let names = z64_sets(ctx, &["combined"]);
    let most = names
        .iter()
        .map(|n| ctx.set(n).len() as u64 * 16)
        .max()
        .unwrap_or(0);
    // ~2.5x steps on the log axis.
    let points = std::iter::successors(Some(1_000u64), |p| Some(p * 10 / 4));
    let points: Vec<u64> = points.take_while(|&p| p < most * 2).collect();
    let mut r = Report::new("set \\ probes");
    r.columns.extend(points.iter().map(|&p| human(p)));
    r.columns
        .extend(["total probes", "interfaces"].map(String::from));
    // (probes, interfaces, interfaces found by half the probes) by source.
    let mut ends = BTreeMap::new();
    for name in &names {
        let log = &ctx.logs(name, &[0])[0];
        let curve = analysis::discovery_curve(log);
        // Interfaces seen by the time `at` probes were out.
        let seen = |at: u64| {
            let sent = curve.partition_point(|&(probes, _)| probes <= at);
            curve[..sent].last().map_or(0, |&(_, ifaces)| ifaces)
        };
        let total = log.interface_addrs().len() as u64;
        let cells = points.iter().map(|&pt| human(seen(pt)));
        let tail = [human(log.probes_sent), human(total)];
        r.row(source(name), cells.chain(tail));
        ends.insert(
            source(name),
            (log.probes_sent, total, seen(log.probes_sent / 2)),
        );
    }
    let [caida, sixgen, random] =
        ["caida", "6gen", "random"].map(|s| ends[s].1 as f64 / ends[s].0.max(1) as f64);
    let fewest = ends
        .iter()
        .filter(|(s, _)| **s != "cdn-k256")
        .min_by_key(|(_, e)| e.1);
    let fewest = fewest.map(|(s, _)| *s);
    r.claim(
        "fig7.caida-strong-early-flattens-hard",
        "BGP-guided caida is strong early (far more interfaces per probe than the random and 6gen controls) and flattens hard: one target per prefix ends with the fewest interfaces of any source but the coarse cdn-k256",
        caida > 2.0 * random.max(sixgen) && fewest == Some("caida"),
        format!("interfaces per probe: caida {caida:.4}, 6gen {sixgen:.4}, random {random:.4}; fewest interfaces: {fewest:?}"),
    );
    let late = ["random", "6gen", "cdn-k32", "tum"]
        .map(|s| 1.0 - ends[s].2 as f64 / ends[s].1.max(1) as f64);
    r.claim(
        "fig7.controls-flatten-clients-rise",
        "random and 6gen flatten once their cluster mass is spent (under a third of their interfaces come from the second half of their probes); cdn-k32 and tum keep rising (over a third)",
        late[0].max(late[1]) < 1.0 / 3.0 && late[2].min(late[3]) > 1.0 / 3.0,
        format!("found in the second half, random/6gen/cdn-k32/tum: {:?}", late.map(pct)),
    );
    let largest = leaders(ends.iter().map(|(s, e)| (*s, e.1)), 2);
    r.claim(
        "fig7.cdn-tum-largest",
        "cdn-k32 and tum rise to the largest totals",
        largest.contains(&"cdn-k32") && largest.contains(&"tum"),
        format!("most interfaces: {largest:?}"),
    )
    .from_small();
    r
}

/// Figure 8.
pub fn fig8(ctx: &mut Ctx) -> Report {
    const POINTS: [u8; 11] = [24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64];
    let resolver = ctx.resolver();
    let mut r = Report::new("set \\ len<=");
    r.columns.extend(POINTS.map(|p| p.to_string()));
    r.columns.extend(["total", "IA/64s"].map(String::from));
    let (mut total, mut total_ia) = (0, 0);
    // Per source: the longest inferred length, and the largest distance
    // between the inferred-length CDF and the set's DPL CDF (Fig 3a).
    let mut inferred = BTreeMap::new();
    for name in z64_sets(ctx, &["random"]) {
        // Traces are analyzed per vantage (paths from different vantages
        // must not be mixed into one trace); candidates are unioned.
        let (mut cands, mut ia): (Vec<CandidateSubnet>, Vec<CandidateSubnet>) = Default::default();
        for (v, log) in ctx.logs(&name, &[0, 1, 2]).iter().enumerate() {
            let ts = TraceSet::from_log(log);
            cands.extend(path_div(ctx, &resolver, &ts, v));
            ia.extend(ia_hack(&ts));
        }
        cands.sort_by_key(|c| (c.prefix.base_word(), c.prefix.len()));
        cands.dedup();
        ia.sort_by_key(|c| c.prefix.base_word());
        ia.dedup();
        let mut lens: Vec<u8> = cands.iter().map(|c| c.prefix.len()).collect();
        lens.sort_unstable();
        let cdf = |p: u8| lens.partition_point(|&l| l <= p) as f64 / lens.len().max(1) as f64;
        let cells = POINTS.map(|p| format!("{:.2}", cdf(p)));
        let tail = [human(lens.len() as u64), human(ia.len() as u64)];
        r.row(source(&name), cells.into_iter().chain(tail));
        total += lens.len() as u64;
        total_ia += ia.len() as u64;
        let dpl = ctx.set(&name).dpl_cdf();
        let distance = POINTS.map(|p| (cdf(p) - dpl.fraction_at(p)).abs());
        let distance = distance.into_iter().fold(0.0, f64::max);
        inferred.insert(
            source(&name).to_string(),
            (lens.last().copied().unwrap_or(0), distance),
        );
    }
    r.blank();
    let blank = vec![String::new(); POINTS.len()];
    r.row(
        "all sets",
        blank.into_iter().chain([human(total), human(total_ia)]),
    );

    let (worst, distance) = inferred
        .iter()
        .map(|(s, &(_, d))| (s, d))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("sets");
    r.claim(
        "fig8.lengths-track-dpl",
        "every set's inferred-length CDF tracks its target set's DPL CDF (Fig 3a): within 0.15 at every sampled length",
        distance <= 0.15,
        format!("largest CDF distance {distance:.2} ({worst})"),
    )
    .gap("caida yields no candidates at all (one target per prefix never diverges inside one) and 6gen's inferred lengths run shorter than its DPLs; the DNS, tum and cdn sets do track");
    let longest = |s: &str| inferred[s].0;
    let aggregate = [&ctx.seeds.cdn_k32, &ctx.seeds.cdn_k256]
        .map(|l| l.prefixes().map(|p| p.len()).max().unwrap_or(0));
    let cdn = [longest("cdn-k32"), longest("cdn-k256")];
    r.claim(
        "fig8.cdn-capped-by-aggregates",
        "the cdn sets' inferred subnets cap out at the kIP aggregate lengths",
        cdn[0] <= aggregate[0] && cdn[1] <= aggregate[1],
        format!("longest inferred, cdn-k32/cdn-k256: {cdn:?}; longest aggregate: {aggregate:?}"),
    );
    let dns = ["dnsdb", "fdns", "fiebig", "tum"].map(longest);
    r.claim(
        "fig8.dns-sets-reach-64",
        "the DNS-based sets' inferred subnets reach /64",
        dns.iter().all(|&l| l == 64),
        format!("longest inferred length, dnsdb/fdns/fiebig/tum: {dns:?}"),
    );
    r
}
