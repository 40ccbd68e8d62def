//! What the paper does with and around the campaigns: the §4.1
//! constant-header ablation, the §5.3 comparison with production mapping,
//! the §6 subnet validation and the §7.2 alias-resolution follow-on.

use super::{path_div, ratio};
use crate::fmt::{human, pct};
use crate::report::Report;
use crate::Ctx;
use aliasres::speedtrap::{resolve_aliases, AliasConfig};
use aliasres::RouterGraph;
use analysis::validate::{stratified_sample, validate};
use analysis::TraceSet;
use simnet::Engine;
use std::collections::BTreeSet;
use std::net::Ipv6Addr;
use targets::TargetSet;
use yarrp6::campaign::run_campaign;
use yarrp6::sequential::{self, SequentialConfig};
use yarrp6::{ProbeLog, ResponseKind, YarrpConfig};

/// How many `(target, ttl)` cells of `logs` heard from more than one
/// responder, and how many cells were answered at all.
fn conflicts(logs: &[ProbeLog]) -> (u64, u64) {
    let records = logs.iter().flat_map(|l| &l.records);
    let hops = records.filter(|r| r.kind == ResponseKind::TimeExceeded);
    let mut cells: Vec<(Ipv6Addr, u8, Ipv6Addr)> = hops
        .filter_map(|r| Some((r.target, r.probe_ttl?, r.responder)))
        .collect();
    cells.sort_unstable();
    cells.dedup();
    let groups = cells.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1));
    groups.fold((0, 0), |(conflicted, total), g| {
        (conflicted + u64::from(g.len() > 1), total + 1)
    })
}

/// §4.1 ablation: why Yarrp6 keeps every header a load balancer can hash
/// constant per target (the checksum fudge / Paris discipline). Vary the
/// flow label per probe and per-flow ECMP sprays one target's probes across
/// parallel paths: the reconstructed "trace" interleaves different paths.
pub fn ablation(ctx: &mut Ctx) -> Report {
    let (set, resolver) = (ctx.set("combined-z64"), ctx.resolver());
    let mut r = Report::new("Prober|Interfaces|Conflicts|(target,ttl)|Conflict%|Subnets");
    let probers = [("paris (fudge)", false), ("varying flow label", true)];
    let [paris, varying] = probers.map(|(name, vary_flow_label)| {
        // Two campaigns with different permutation keys: probes of one
        // (target, ttl) go out at different times, so the ablated prober
        // stamps them with different flow labels.
        let logs = [1u64, 2].map(|perm_seed| {
            let cfg = YarrpConfig {
                vary_flow_label,
                perm_seed,
                ..Default::default()
            };
            run_campaign(&ctx.topo, 1, set, &cfg).log
        });
        let (conflicted, cells) = conflicts(&logs);
        let subnets = path_div(ctx, &resolver, &TraceSet::from_log(&logs[0]), 1).len();
        let ifaces: BTreeSet<Ipv6Addr> = logs.iter().flat_map(|l| l.interface_addrs()).collect();
        let share = format!("{:.2}%", 100.0 * ratio(conflicted, cells));
        let counts = [
            human(ifaces.len() as u64),
            conflicted.to_string(),
            cells.to_string(),
        ];
        r.row(
            name,
            counts.into_iter().chain([share, human(subnets as u64)]),
        );
        conflicted
    });
    r.claim(
        "ablation.constant-headers-keep-paths-coherent",
        "varying the flow label per probe sends one target's probes down different ECMP paths, so (target, ttl) cells hear from two responders; with per-target constant headers none does",
        paris == 0 && varying > 0,
        format!("conflicted cells: constant headers {paris}, varying flow label {varying}"),
    );
    r
}

/// §5.3: an Ark/Atlas-style strategy (sequential ICMP-Paris to the caida
/// targets at low rate) against Yarrp6 over the two most powerful sets.
pub fn validation(ctx: &mut Ctx) -> Report {
    // Production platforms are many weak vantages; three is what we have.
    let caida = ctx.set("caida-z64");
    let cfg = SequentialConfig {
        rate_pps: 100,
        ..Default::default()
    };
    let (mut ark, mut ark_probes) = (BTreeSet::new(), 0);
    for v in 0..3u8 {
        let log = sequential::run(&mut Engine::new(ctx.topo.clone()), v, &caida.addrs, &cfg);
        ark_probes += log.probes_sent;
        ark.extend(log.interface_addrs());
    }
    let ark_targets = 3 * caida.len() as u64;
    let (mut ours, mut probes, mut targets) = (BTreeSet::new(), 0, 0);
    for name in ["cdn-k32-z64", "tum-z64"] {
        let log = &ctx.logs(name, &[0])[0];
        probes += log.probes_sent;
        targets += ctx.set(name).len() as u64;
        ours.extend(log.interface_addrs());
    }
    let mut r = Report::new("System|Targets|Probes|IntAddrs|Ints/Probe");
    let systems = [
        ("ark-style (3 vps)", ark_targets, ark_probes, &ark),
        ("yarrp6 (1 vp, 2 sets)", targets, probes, &ours),
    ];
    for (name, targets, probes, ifaces) in systems {
        let ifaces = ifaces.len() as u64;
        let per_probe = format!("{:.4}", ratio(ifaces, probes));
        r.row(
            name,
            [targets, probes, ifaces]
                .map(human)
                .into_iter()
                .chain([per_probe]),
        );
    }
    let factor = ours.len() as f64 / ark.len().max(1) as f64;
    let traces = ratio(targets, ark_targets);
    let ratios = [
        format!("{traces:.1}x"),
        String::new(),
        format!("{factor:.1}x"),
    ];
    r.row("yarrp6 / ark-style", ratios);
    r.claim(
        "validation.beats-production-mapping",
        "one vantage with synthesized targets out-discovers the production-style system by a wide margin",
        factor > 2.0,
        format!("{factor:.1}x the interfaces"),
    );
    r.claim(
        "validation.order-of-magnitude",
        "the margin is an order of magnitude",
        factor >= 10.0,
        format!("{factor:.1}x the interfaces"),
    )
    .from_small();
    r.claim(
        "validation.twice-the-traces",
        "with only about twice the traces",
        traces <= 3.0,
        format!("{traces:.1}x the traces"),
    )
    .gap("the synthetic cdn-k32 and tum sets are not scaled against caida the way the paper's were: 7.9x the ark-style traces at small")
    .from_small();
    r
}

/// §6 validation: full traces, then one target per truth subnet.
pub fn subnets(ctx: &mut Ctx) -> Report {
    let log = ctx.logs("combined-z64", &[0]).remove(0);
    let (set, resolver) = (ctx.set("combined-z64"), ctx.resolver());
    let truth = ctx.topo.ground_truth_distribution_subnets();
    let truth: Vec<v6addr::Ipv6Prefix> = truth.into_iter().map(|s| s.0).collect();
    let infer = |log: &ProbeLog, set: &TargetSet| {
        let cands = path_div(ctx, &resolver, &TraceSet::from_log(log), 0);
        (cands.len() as u64, validate(&cands, &truth, &set.addrs))
    };
    let (full_cands, full) = infer(&log, set);
    let sample = TargetSet::new("stratified", stratified_sample(&set.addrs, &truth));
    let sample_log = run_campaign(&ctx.topo, 0, &sample, &YarrpConfig::default()).log;
    let (cands, strat) = infer(&sample_log, &sample);

    let mut r = Report::new("Measure|Full traces|Stratified");
    r.row("ground-truth subnets", [human(truth.len() as u64)]);
    let rows = [
        ("targets", set.len() as u64, sample.len() as u64),
        (
            "truth subnets traced into",
            full.truth_considered,
            strat.truth_considered,
        ),
        ("candidates discovered", full_cands, cands),
        ("exact matches", full.exact, strat.exact),
        (
            "truth w/ more-specific cands",
            full.truth_with_more_specific,
            strat.truth_with_more_specific,
        ),
        ("short by one bit", full.short_by_one, strat.short_by_one),
        ("short by two bits", full.short_by_two, strat.short_by_two),
        ("unmatched", full.unmatched, strat.unmatched),
    ];
    for (measure, full, strat) in rows {
        r.row(measure, [human(full), human(strat)]);
    }
    r.claim(
        "subnets.full-traces-more-specific",
        "full traces find mostly more-specific subnets: truth is interior, discovery reaches below it",
        full.truth_with_more_specific > full.exact,
        format!("truth subnets with more-specific candidates {}, exact matches {}", full.truth_with_more_specific, full.exact),
    );
    let (exact_full, exact_strat) = (ratio(full.exact, full_cands), ratio(strat.exact, cands));
    let judged = strat.exact + strat.short_by_one + strat.short_by_two + strat.unmatched;
    let close = ratio(strat.exact + strat.short_by_one, judged);
    let holds = cands < full_cands && exact_strat > exact_full && close >= 0.9;
    let [exact_full, exact_strat, close] = [exact_full, exact_strat, close].map(pct);
    r.claim(
        "subnets.stratified-trades-volume-for-exactness",
        "stratified sampling yields fewer candidates, a larger share of them exact, nearly all exact or one bit short (43% + 52%)",
        holds,
        format!("exact: {exact_strat} of {cands} stratified, {exact_full} of {full_cands} full; {close} exact or one bit short"),
    );
    r
}

/// §7.2 follow-on: speedtrap over the interfaces the combined campaigns
/// discover from all three vantages (different approach directions reveal
/// different interfaces of one router), scored against ground truth.
pub fn alias(ctx: &mut Ctx) -> Report {
    let logs = ctx.logs("combined-z64", &[0, 1, 2]);
    let ifaces: BTreeSet<Ipv6Addr> = logs.iter().flat_map(|l| l.interface_addrs()).collect();
    let ifaces: Vec<Ipv6Addr> = ifaces.into_iter().collect();
    let mut engine = Engine::new(ctx.topo.clone());
    let sets = resolve_aliases(
        &mut engine,
        1,
        &ifaces,
        &AliasConfig::default(),
        0,
        u64::MAX,
    );
    let (precision, recall) = sets.score(&ctx.topo.ground_truth_aliases());
    // ITDK-style graphs from one vantage's traces.
    let traces = TraceSet::from_log(&logs[1]);
    let by_iface = RouterGraph::build(&traces, &[]);
    let by_router = RouterGraph::build(&traces, &sets.groups);
    let (iface_nodes, router_nodes) = (
        by_iface.connected_node_count(),
        by_router.connected_node_count(),
    );
    let max_degree = by_router
        .degree_histogram()
        .keys()
        .next_back()
        .copied()
        .unwrap_or(0);

    let mut r = Report::new("Measure|Value");
    let counts = [
        ("discovered interfaces (3 vps)", ifaces.len()),
        ("speedtrap probes", sets.probes as usize),
        ("alias groups (>=2 ifaces)", sets.groups.len()),
        ("aliased interfaces", sets.groups.iter().map(Vec::len).sum()),
        ("singletons", sets.singletons.len()),
        ("no fragmented reply", sets.unresponsive.len()),
        ("interface-level graph nodes", iface_nodes),
        ("interface-level graph links", by_iface.links.len()),
        ("router-level graph nodes", router_nodes),
        ("router-level graph links", by_router.links.len()),
        ("max router degree", max_degree as usize),
    ];
    for (measure, n) in counts {
        r.row(measure, [human(n as u64)]);
    }
    r.row("precision (pairs)", [format!("{precision:.3}")]);
    r.row("recall (probed pairs)", [format!("{recall:.3}")]);
    r.claim(
        "alias.precise",
        "speedtrap's alias pairs are correct: precision above 0.95 against ground truth",
        precision > 0.95,
        format!("precision {precision:.3}, recall over probed pairs {recall:.3}"),
    );
    r.claim(
        "alias.router-graph-smaller",
        "collapsing aliases leaves the router-level graph with fewer nodes than the interface-level graph",
        router_nodes < iface_nodes,
        format!("{router_nodes} router nodes, {iface_nodes} interface nodes"),
    );
    r
}
