//! Alias-resolution throughput and fidelity: speedtrap probing rate,
//! precision/recall against the simulator's ground-truth alias groups,
//! and the router-collapse ratio the adaptive loop's alias stage earns
//! end to end. Writes `BENCH_alias.json` so the trajectory is tracked
//! PR over PR.
//!
//! Two phases:
//!
//! * **standalone** — speedtrap over the interfaces of ground-truth
//!   multi-interface routers (the resolver never sees the truth; it is
//!   the probe list and the scoring reference). Measures wall-clock
//!   probe throughput and precision/recall.
//! * **adaptive** — the full loop with
//!   [`AdaptiveConfig::alias_resolution`] on: candidates derive from
//!   each round's own discoveries, alias probes burn the shared
//!   budget, and the incremental router graph accumulates. Measures
//!   precision over the inferred graph's multi-member nodes, and the
//!   resolved-router vs observed-interface collapse. Its kept trace
//!   sets are then replayed round by round through
//!   [`sibling_candidates`] with every interface of the round fresh
//!   (nothing tested yet — the most the rules can be asked), timing
//!   the derivation per hop cell.
//!
//! Asserts (always on): the adaptive arm resolves strictly fewer
//! routers than it observed interfaces — alias resolution must
//! actually collapse the interface-level view.
//!
//! Env knobs:
//! * `BENCH_ALIAS_TILES` — topology tile count (default 4)
//! * `BENCH_ALIAS_ROUTERS` — standalone-phase router count (default 64)
//! * `BENCH_ALIAS_BUDGET` — adaptive-phase probe budget (default 300000)
//! * `BENCH_ALIAS_ROUNDS` — adaptive-phase round cap (default 4)
//! * `BENCH_ALIAS_MIN_PRECISION` — fail when either phase's precision
//!   drops below this (the CI smoke gate sets 0.9)
//! * `BENCH_ALIAS_MAX_CANDIDATES_NS` — fail when candidate derivation
//!   costs more than this many ns per hop cell (the CI smoke gate sets
//!   60: the merge-join measures 16–20 at that scale, a set per bucket
//!   170–250)

use aliasres::{resolve_aliases, sibling_candidates, AliasConfig, AliasSets};
use beholder::adaptive::{run_adaptive_parallel, AdaptiveConfig};
use beholder_bench::fmt::human;
use beholder_bench::{env_gate, env_or};
use simnet::config::TopologyConfig;
use simnet::Engine;
use std::hint::black_box;
use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::Instant;
use targets::{synthesize::synthesize, IidStrategy};
use yarrp6::addrset::AddrSet;
use yarrp6::YarrpConfig;

fn main() {
    let tiles = env_or::<usize>("BENCH_ALIAS_TILES", 4);
    let routers = env_or::<usize>("BENCH_ALIAS_ROUTERS", 64);
    let budget = env_or::<u64>("BENCH_ALIAS_BUDGET", 300_000);
    let rounds = env_or::<usize>("BENCH_ALIAS_ROUNDS", 4);

    let topo = Arc::new(simnet::generate::generate(TopologyConfig::tiled(7, tiles)));

    // --- Standalone phase: speedtrap over known-aliased routers -------
    let truth: Vec<Vec<Ipv6Addr>> = topo
        .ground_truth_aliases()
        .into_iter()
        .take(routers)
        .collect();
    let ifaces: Vec<Ipv6Addr> = truth.iter().flatten().copied().collect();
    let mut engine = Engine::new(topo.clone());
    let t0 = Instant::now();
    let sets = resolve_aliases(&mut engine, 0, &ifaces, &AliasConfig::default());
    let standalone_s = t0.elapsed().as_secs_f64();
    let pps = sets.probes as f64 / standalone_s.max(1e-9);
    let (prec_a, rec_a) = sets.score(&truth);

    println!(
        "alias_resolution_pps: tiled x{tiles}, {} routers / {} interfaces offered",
        truth.len(),
        ifaces.len()
    );
    println!(
        "  standalone: {:>8} probes in {standalone_s:.3}s ({:>9}/s) -> {} groups, \
         precision {prec_a:.3}, recall {rec_a:.3}",
        human(sets.probes),
        human(pps as u64),
        sets.groups.len()
    );

    // --- Adaptive phase: the loop's alias stage end to end ------------
    let catalog = seeds::sources::SeedCatalog::synthesize(&topo, 7);
    let z64 = targets::zn(&catalog.caida, 64);
    let seed_set = synthesize("adaptive-r0", &z64, IidStrategy::FixedIid);
    let cfg = AdaptiveConfig {
        yarrp: YarrpConfig {
            fill_mode: false,
            ..YarrpConfig::default()
        },
        probe_budget: budget,
        round_targets: 1_024,
        shards: 4,
        max_rounds: rounds,
        min_yield_per_kprobes: 0.0,
        alias_resolution: true,
        ..AdaptiveConfig::default()
    };
    let t0 = Instant::now();
    let res = run_adaptive_parallel(&topo, &seed_set, &cfg);
    let adaptive_s = t0.elapsed().as_secs_f64();
    let rl = res
        .router_level
        .as_ref()
        .expect("alias_resolution on must yield a router-level result");

    // Precision of the inferred graph's alias verdicts against global
    // ground truth, over the same pair surface `AliasSets::score` uses.
    let mut inferred = AliasSets::default();
    for node in &rl.graph.nodes {
        if node.len() >= 2 {
            inferred.groups.push(node.clone());
        } else {
            inferred.singletons.push(node[0]);
        }
    }
    let global_truth = topo.ground_truth_aliases();
    let (prec_b, rec_b) = inferred.score(&global_truth);
    let interfaces = rl.interfaces;
    let resolved = rl.routers() as u64;

    println!(
        "  adaptive  : {} rounds, {:>8} probes ({:>7} alias) in {adaptive_s:.3}s ({:?})",
        res.rounds.len(),
        human(res.probes()),
        human(rl.alias_probes),
        res.stop
    );
    for r in &res.rounds {
        println!(
            "    round {}: {:>7} probes ({:>6} alias), {:>5} new ifaces, \
             {:>4} routers, pairs +{} -{}",
            r.round,
            human(r.probes),
            human(r.alias_probes),
            human(r.new_interfaces),
            r.routers,
            r.alias_pairs_confirmed,
            r.alias_pairs_rejected,
        );
    }
    println!(
        "  router-level: {resolved} routers / {interfaces} observed interfaces \
         (collapse {:.3}), precision {prec_b:.3}, recall {rec_b:.3}, pairs +{} -{}",
        rl.collapse_ratio(),
        rl.pairs_confirmed,
        rl.pairs_rejected,
    );

    // Candidate derivation on the adaptive arm's own record: one
    // vantage on a clean network, so every round kept `shards` sets.
    assert_eq!(res.traces.len(), res.rounds.len() * cfg.shards);
    let hop_cells: usize = res
        .traces
        .iter()
        .flat_map(|ts| ts.iter())
        .map(|tv| tv.hop_cells().len())
        .sum();
    let untested = AddrSet::new();
    let mut reps: Vec<f64> = (0..9)
        .map(|_| {
            let mut known = AddrSet::new();
            let mut spent_ns = 0u128;
            for round in res.traces.chunks(cfg.shards) {
                for ts in round {
                    ts.discovery_delta(&mut known);
                }
                let t0 = Instant::now();
                black_box(sibling_candidates(black_box(&known), round, &untested));
                spent_ns += t0.elapsed().as_nanos();
            }
            spent_ns as f64 / hop_cells.max(1) as f64
        })
        .collect();
    reps.sort_by(f64::total_cmp);
    let candidates_ns = reps[reps.len() / 2];
    println!(
        "  candidates: {candidates_ns:.1} ns per hop cell ({} cells, median of {} replays)",
        human(hop_cells as u64),
        reps.len()
    );

    assert!(res.probes() <= budget, "adaptive arm over budget");
    assert!(
        resolved < interfaces,
        "alias stage must collapse the interface view: {resolved} routers \
         vs {interfaces} interfaces"
    );

    // Hand-rolled JSON: the workspace's serde is a no-op shim. Both
    // phases emit a "precision" key, so the tracked headline is the
    // worse of the two.
    let json = format!(
        "{{\n  \"bench\": \"alias_resolution_pps\",\n  \"scenario\": \"tiled x{tiles}, {routers} routers standalone, budget {budget} adaptive\",\n  \"standalone\": {{ \"probes\": {}, \"pps\": {pps:.0}, \"groups\": {}, \"precision\": {prec_a:.4}, \"recall\": {rec_a:.4} }},\n  \"adaptive\": {{ \"rounds\": {}, \"probes\": {}, \"alias_probes\": {}, \"interfaces\": {interfaces}, \"routers\": {resolved}, \"collapse_ratio\": {:.4}, \"precision\": {prec_b:.4}, \"recall\": {rec_b:.4}, \"pairs_confirmed\": {}, \"pairs_rejected\": {}, \"elapsed_s\": {adaptive_s:.6}, \"candidates_ns_per_hop_cell\": {candidates_ns:.1} }}\n}}\n",
        sets.probes,
        sets.groups.len(),
        res.rounds.len(),
        res.probes(),
        rl.alias_probes,
        rl.collapse_ratio(),
        rl.pairs_confirmed,
        rl.pairs_rejected,
    );
    let path = "BENCH_alias.json";
    std::fs::write(path, json).expect("write BENCH_alias.json");
    println!("  wrote {path}");

    if let Some(min) = env_gate("BENCH_ALIAS_MIN_PRECISION") {
        let worst = prec_a.min(prec_b);
        if worst < min {
            eprintln!("FAIL: alias precision {worst:.3} below required {min:.2}");
            std::process::exit(1);
        }
        println!("  precision gate: {worst:.3} >= {min:.2} OK");
    }
    if let Some(max) = env_gate("BENCH_ALIAS_MAX_CANDIDATES_NS") {
        if candidates_ns > max {
            eprintln!(
                "FAIL: candidate derivation {candidates_ns:.1} ns per hop cell above allowed {max:.0}"
            );
            std::process::exit(1);
        }
        println!("  candidates gate: {candidates_ns:.1} <= {max:.0} ns per hop cell OK");
    }
}
