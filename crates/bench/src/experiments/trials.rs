//! The probing trials of §4: Tables 3, 4 and 6, Figure 5, the Doubletree
//! and protocol trials. Each runs campaigns under a configuration of its
//! own, so none of them goes through the campaign cache.

use super::{exclusive, ratio};
use crate::fmt::{human, pct};
use crate::report::Report;
use crate::Ctx;
use analysis::metrics::hop_responsiveness;
use simnet::Engine;
use std::collections::BTreeMap;
use targets::synthesize::{known, synthesize, IidStrategy};
use v6packet::icmp6::DestUnreachCode;
use yarrp6::campaign::run_campaign;
use yarrp6::doubletree::{self, DoubletreeConfig};
use yarrp6::sequential::{self, SequentialConfig};
use yarrp6::{yarrp, ProbeLog, Protocol, ResponseKind, YarrpConfig};

const RATES: [u64; 3] = [20, 1_000, 2_000];

/// One prober's run of the trial's target set on a fresh engine.
type Prober<'a> = &'a dyn Fn(&mut Engine) -> ProbeLog;

/// Table 3: the fdns seed list probed under z40/z48/z56/z64 (fixediid).
pub fn table3(ctx: &mut Ctx) -> Report {
    let levels = [40u8, 48, 56, 64];
    let logs = levels.map(|n| {
        let prefixes = targets::transform::zn(&ctx.seeds.fdns, n);
        let set = synthesize(format!("fdns-z{n}"), &prefixes, IidStrategy::FixedIid);
        run_campaign(&ctx.topo, 0, &set, &YarrpConfig::default()).log
    });
    let addrs = logs.each_ref().map(ProbeLog::interface_addrs);
    let excl = exclusive(&addrs.each_ref());
    let probes = logs.each_ref().map(|l| l.probes_sent);
    let found = addrs.each_ref().map(|a| a.len() as u64);
    let other = logs
        .each_ref()
        .map(|l| ratio(l.other_responses(), l.probes_sent));
    let mut r = Report::new("zn|Probes|OtherICMPv6|Addrs|ExclAddrs|Other/Probe");
    for (i, n) in levels.iter().enumerate() {
        let counts = [probes[i], logs[i].other_responses(), found[i], excl[i]].map(human);
        r.row(
            format!("/{n}"),
            counts.into_iter().chain([format!("{:.4}", other[i])]),
        );
    }
    r.claim(
        "table3.finer-finds-more",
        "probes and discovered interface addresses grow with n",
        probes.windows(2).all(|w| w[0] < w[1]) && found.windows(2).all(|w| w[0] < w[1]),
        format!("probes {probes:?}, interfaces {found:?}"),
    );
    r.claim(
        "table3.z64-exclusive-tail",
        "z64 contributes a meaningful exclusive tail: more exclusive interfaces than z48, a tenth or more of its own",
        excl[3] > excl[1] && 10 * excl[3] >= found[3],
        format!("exclusive at z48 {}, at z64 {} of {}", excl[1], excl[3], found[3]),
    );
    r.claim(
        "table3.other-per-probe-rises",
        "other-ICMPv6 per probe rises with n, finer targets reaching deeper into networks (0.012 to 0.041)",
        other.windows(2).all(|w| w[0] <= w[1]),
        format!("other/probe {other:.4?}"),
    )
    .gap("falls from z40 to z56 before jumping at z64: coarse targets earn a near-constant handful of unreachables while probes grow; whether simnet under-generates them off the allocated /64s is open");
    r
}

/// Table 4: lowbyte1 vs fixediid synthesis over cdn-k256 z64 prefixes,
/// against known addresses (fiebig seeds verbatim). UDP probes: port
/// unreachable is an error only end hosts generate, and only for UDP.
pub fn table4(ctx: &mut Ctx) -> Report {
    use DestUnreachCode::*;
    use ResponseKind::{DestUnreachable, TimeExceeded};
    // The paper's rows: ICMPv6 errors only.
    const ROWS: [(&str, ResponseKind); 6] = [
        ("Time Exceeded", TimeExceeded),
        ("no route to destination", DestUnreachable(NoRoute)),
        (
            "administratively prohibited",
            DestUnreachable(AdminProhibited),
        ),
        ("address unreachable", DestUnreachable(AddrUnreachable)),
        ("port unreachable", DestUnreachable(PortUnreachable)),
        ("reject route to destination", DestUnreachable(RejectRoute)),
    ];
    let prefixes = targets::transform::zn(&ctx.seeds.cdn_k256, 64);
    let cfg = YarrpConfig {
        protocol: Protocol::Udp,
        ..Default::default()
    };
    let sets = [
        synthesize("cdn-k256-z64-lowbyte1", &prefixes, IidStrategy::LowByte1),
        synthesize("cdn-k256-z64-fixediid", &prefixes, IidStrategy::FixedIid),
        known("fiebig-known", ctx.seeds.fiebig.addrs()),
    ];
    // share[campaign][row]
    let share = sets.each_ref().map(|set| {
        let log = run_campaign(&ctx.topo, 0, set, &cfg).log;
        let count = |kind| log.records.iter().filter(|r| r.kind == kind).count() as u64;
        let counts = ROWS.map(|(_, kind)| count(kind));
        counts.map(|n| ratio(n, counts.iter().sum()))
    });
    let mut r = Report::new("type/code|lowbyte1|fixediid|known");
    for (i, (row, _)) in ROWS.iter().enumerate() {
        r.row(row, share.each_ref().map(|s| pct(s[i])));
    }
    let [low, fixed, known] = share.each_ref().map(|s| pct(s[0]));
    r.claim(
        "table4.time-exceeded-dominates",
        "Time Exceeded is at least 95% of the ICMPv6 errors under every strategy",
        share.iter().all(|s| s[0] >= 0.95),
        format!("Time Exceeded share: lowbyte1 {low}, fixediid {fixed}, known {known}"),
    )
    .gap("known fiebig addresses sit behind simulated edges that answer with unreachables far more often than the paper's Internet did");
    let spread = (0..ROWS.len()).map(|i| (share[0][i] - share[1][i]).abs());
    let spread = spread.fold(0.0, f64::max);
    r.claim(
        "table4.lowbyte1-like-fixediid",
        "lowbyte1 and fixediid draw the same mix: the synthesized IID does not matter",
        spread <= 0.02,
        format!("largest per-row difference {}", pct(spread)),
    )
    .from_small();
    let port = share.each_ref().map(|s| s[4]);
    let [low, fixed, known] = port.map(pct);
    r.claim(
        "table4.known-reaches-hosts",
        "known addresses show a clearly larger port-unreachable share: the probes reach end hosts",
        port[2] > 0.0 && port[2] > 2.0 * port[0].max(port[1]),
        format!("port unreachable: lowbyte1 {low}, fixediid {fixed}, known {known}"),
    );
    r
}

/// Table 6: fill mode under maximum TTL 4, 8, 16 and 32.
pub fn table6(ctx: &mut Ctx) -> Report {
    let set = ctx.set("caida-z64");
    let ttls = [4u8, 8, 16, 32];
    // [probes, fills, interfaces] by max TTL.
    let runs = ttls.map(|max_ttl| {
        let cfg = YarrpConfig {
            max_ttl,
            fill_mode: true,
            fill_max_ttl: 32,
            ..Default::default()
        };
        let log = run_campaign(&ctx.topo, 0, set, &cfg).log;
        [
            log.probes_sent,
            log.fills,
            log.interface_addrs().len() as u64,
        ]
    });
    let yields = runs.map(|[probes, _, ints]| ratio(ints, probes));
    let mut r = Report::new("MaxTTL|Targets|Probes|Fills|IntAddrs|Yield%");
    for (i, ttl) in ttls.iter().enumerate() {
        let counts = [set.len() as u64].into_iter().chain(runs[i]).map(human);
        r.row(ttl, counts.chain([format!("{:.1}", 100.0 * yields[i])]));
    }
    let ([probes8, _, ints8], [probes32, _, ints32]) = (runs[1], runs[3]);
    r.claim(
        "table6.fill-recovers-the-tail",
        "fill mode from max TTL 8 finds at least 0.9x the interfaces of max TTL 32 with at most half the probes",
        ints8 as f64 >= 0.9 * ints32 as f64 && 2 * probes8 <= probes32,
        format!("interfaces (probes): TTL 8 {ints8} ({probes8}), TTL 32 {ints32} ({probes32})"),
    );
    let best = (0..4)
        .max_by(|&a, &b| yields[a].total_cmp(&yields[b]))
        .map(|i| ttls[i]);
    r.claim(
        "table6.ttl16-is-the-sweet-spot",
        "max TTL 16 has the highest yield, which is why the campaigns use it",
        best == Some(16),
        format!("highest yield at max TTL {best:?}"),
    )
    .gap("simulated paths to caida targets are short enough that TTL 8 plus fills already covers them, so yield peaks at 8");
    r
}

/// Figure 5, §4.2's central result: sequential (scamper-like) probing's
/// near hops collapse at high rates, randomized (Yarrp6) probing's do not.
pub fn fig5(ctx: &mut Ctx) -> Report {
    const MAX_TTL: u8 = 16;
    let (topo, set) = (&ctx.topo, ctx.set("caida-z64"));
    let mut r = Report::new("vantage|method|pps");
    r.columns.extend((1..=MAX_TTL).map(|h| h.to_string()));
    // (sequential, randomized) curves by vantage, then rate.
    let mut curves = Vec::new();
    // One better-connected vantage and US-EDU-2 (long on-prem chain).
    for vantage in [1u8, 2] {
        for rate_pps in RATES {
            let seq_cfg = SequentialConfig {
                rate_pps,
                max_ttl: MAX_TTL,
                gap_limit: MAX_TTL, // full tracing, as the trial requires
                ..Default::default()
            };
            let mut engine = Engine::new(topo.clone());
            let log = sequential::run(&mut engine, vantage, &set.addrs, &seq_cfg);
            let seq = hop_responsiveness(&log, MAX_TTL);
            let yarrp_cfg = YarrpConfig {
                rate_pps,
                max_ttl: MAX_TTL,
                fill_mode: false,
                ..Default::default()
            };
            let mut engine = Engine::new(topo.clone());
            let log = yarrp::run(&mut engine, vantage, &set.addrs, &yarrp_cfg);
            let rand = hop_responsiveness(&log, MAX_TTL);
            for (method, curve) in [("sequential", &seq), ("yarrp", &rand)] {
                let head = [method.to_string(), rate_pps.to_string()];
                let cells = head
                    .into_iter()
                    .chain(curve.iter().map(|x| format!("{x:.2}")));
                r.row(&topo.vantages[vantage as usize].name, cells);
            }
            curves.push((seq, rand));
        }
    }
    let slow = [&curves[0], &curves[3]];
    let gap = slow
        .iter()
        .flat_map(|(s, y)| s.iter().zip(y).map(|(a, b)| (a - b).abs()));
    let gap = gap.fold(0.0, f64::max);
    r.claim(
        "fig5.equal-at-20pps",
        "at 20 pps the sequential and randomized curves are equal hop for hop",
        gap <= 0.01,
        format!("largest per-hop difference {gap:.3}"),
    );
    // Near hops (1..=4) at 1000 and 2000 pps against the same vantage's
    // 20 pps run: (sequential fast, slow, randomized fast, slow).
    let mut near = Vec::new();
    for (hi, lo) in [(1, 0), (2, 0), (4, 3), (5, 3)] {
        let (fast, slow) = (&curves[hi], &curves[lo]);
        near.extend((0..4).map(|h| (fast.0[h], slow.0[h], fast.1[h], slow.1[h])));
    }
    let worst_seq = near.iter().map(|n| n.0 / n.1).fold(0.0, f64::max);
    let worst_rand = near.iter().map(|n| (n.2 - n.3).abs()).fold(0.0, f64::max);
    r.claim(
        "fig5.randomization-survives-rate-limiting",
        "at 1000 and 2000 pps sequential probing's hop 1-4 responsiveness falls below 0.7x its 20 pps value (drained token buckets) while randomized probing stays within 0.05 of its own",
        worst_seq < 0.7 && worst_rand <= 0.05,
        format!("near hops vs 20 pps: sequential at best {worst_seq:.2}x, randomized off by at most {worst_rand:.3}"),
    );
    // Hop 1 at 2000 pps, both vantages: (sequential, randomized). An
    // absolute level needs a burst that drains hop 1's token bucket, and
    // tiny's caida-z64 set is too small to drain it, so the claim starts
    // at small.
    let hop1 = [&curves[2], &curves[5]].map(|(s, y)| (s[0], y[0]));
    r.claim(
        "fig5.hop1-at-2000pps",
        "at 2000 pps randomized probing keeps hop 1 above 0.8 responsiveness while sequential probing's falls below 0.4",
        hop1.iter().all(|&(s, y)| y > 0.8 && s < 0.4),
        format!("hop 1 at 2000 pps (sequential, randomized) by vantage: {hop1:.2?}"),
    )
    .from_small();
    r
}

/// §4.2 Doubletree trial: probe cost, discovery, rate-limited responses.
pub fn doubletree(ctx: &mut Ctx) -> Report {
    let (topo, set) = (&ctx.topo, ctx.set("caida-z64"));
    let mut r = Report::new("Prober|Rate|Probes|IntAddrs|Yield%|RateLimited");
    // (probes, interfaces) at each rate, by prober.
    let mut runs: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
    for rate_pps in RATES {
        let dt = DoubletreeConfig {
            rate_pps,
            ..Default::default()
        };
        let seq = SequentialConfig {
            rate_pps,
            ..Default::default()
        };
        let yar = YarrpConfig {
            rate_pps,
            fill_mode: false,
            ..Default::default()
        };
        let probers: [(&str, Prober); 3] = [
            ("doubletree", &|e| doubletree::run(e, 1, &set.addrs, &dt)),
            ("sequential", &|e| sequential::run(e, 1, &set.addrs, &seq)),
            ("yarrp6", &|e| yarrp::run(e, 1, &set.addrs, &yar)),
        ];
        for (name, probe) in probers {
            let mut engine = Engine::new(topo.clone());
            let log = probe(&mut engine);
            let (probes, ints) = (log.probes_sent, log.interface_addrs().len() as u64);
            let yield_pct = format!("{:.1}", 100.0 * ratio(ints, probes));
            let limited = human(engine.stats.rate_limited);
            r.row(
                name,
                [
                    rate_pps.to_string(),
                    human(probes),
                    human(ints),
                    yield_pct,
                    limited,
                ],
            );
            runs.entry(name).or_default().push((probes, ints));
        }
    }
    let (dt, seq, yar) = (&runs["doubletree"], &runs["sequential"], &runs["yarrp6"]);
    r.claim(
        "doubletree.fewest-probes-at-low-rate",
        "at 20 pps Doubletree uses the fewest probes",
        dt[0].0 < seq[0].0 && dt[0].0 < yar[0].0,
        format!(
            "probes at 20 pps: doubletree {}, sequential {}, yarrp6 {}",
            dt[0].0, seq[0].0, yar[0].0
        ),
    );
    r.claim(
        "doubletree.probes-grow-with-rate",
        "Doubletree's probe count grows with rate: silent rate-limited hops defeat its backward stop rule",
        dt[2].0 > dt[0].0,
        format!("doubletree probes at 20/1000/2000 pps: {}/{}/{}", dt[0].0, dt[1].0, dt[2].0),
    )
    .gap("Doubletree's backward probes never drain a simulated token bucket: the same handful of rate-limited responses at every rate, so the stop rule is never defeated");
    r.claim(
        "doubletree.yarrp-keeps-discovery",
        "Yarrp6 keeps full discovery at every rate while sequential probing loses interfaces",
        yar.iter().all(|y| y.1 as f64 >= 0.99 * yar[0].1 as f64)
            && (seq[2].1 as f64) < 0.9 * seq[0].1 as f64,
        format!(
            "interfaces at 20/2000 pps: yarrp6 {}/{}, sequential {}/{}",
            yar[0].1, yar[2].1, seq[0].1, seq[2].1
        ),
    );
    r
}

/// §4.3 protocol trial, to the CAIDA seed addresses themselves (::1 +
/// random per prefix, as the production systems probe).
pub fn protocol(ctx: &mut Ctx) -> Report {
    let set = known("caida-seed", ctx.seeds.caida.addrs());
    let mut r = Report::new("Vantage|Protocol|IntAddrs|NonTE|DestResp");
    // [interfaces, non-TE responses, destination responses] by vantage,
    // then protocol.
    let runs = [1u8, 2].map(|vantage| {
        [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp].map(|protocol| {
            let cfg = YarrpConfig {
                protocol,
                rate_pps: 20,
                fill_mode: false,
                ..Default::default()
            };
            let log = run_campaign(&ctx.topo, vantage, &set, &cfg).log;
            let ints = log.interface_addrs().len() as u64;
            let row = [
                ints,
                log.other_responses(),
                log.reached_targets().len() as u64,
            ];
            let cells = [protocol.to_string()].into_iter().chain(row.map(human));
            r.row(&ctx.topo.vantages[vantage as usize].name, cells);
            row
        })
    });
    let icmp = ratio(runs[0][0][0] + runs[1][0][0], 2);
    let other = ratio(runs.iter().map(|v| v[1][0] + v[2][0]).sum(), 4);
    let delta = format!("{:+.1}%", 100.0 * (icmp - other) / other.max(1.0));
    r.blank();
    r.row("ICMPv6 vs UDP/TCP", [String::new(), delta.clone()]);
    r.claim(
        "protocol.by-a-few-percent",
        "the ICMPv6 advantage in interfaces is a few percent (+2.1-2.2%)",
        icmp > other && icmp <= 1.05 * other,
        format!("{delta} interfaces"),
    )
    .gap("the simulated edge filters cost UDP and TCP 11-16% of the interfaces, not 2%");
    r.claim(
        "protocol.icmp-penetrates-edges",
        "at both vantages ICMPv6 finds more interfaces, draws more non-Time-Exceeded responses and is the protocol that destinations answer",
        runs.iter().all(|v| (0..3).all(|field| v[0][field] > v[1][field].max(v[2][field]))),
        format!("[interfaces, non-TE, destination responses] icmp6/udp/tcp by vantage: {runs:?}"),
    );
    r
}
