//! Adaptive-vs-static discovery yield at **equal probe budget**: the
//! paper's thesis ("what you probe determines what you see") as a
//! benchmark. Writes `BENCH_adaptive.json` so the trajectory is
//! tracked PR over PR.
//!
//! Both arms start from the same sparse seed source (caida-style: two
//! addresses per routed prefix) on the same tiled topology and spend
//! the same nominal probe budget:
//!
//! * **static** — one open-loop round: the seed-derived z64 targets
//!   padded to the full budget with 6Gen expansion *of the seeds
//!   themselves* (the best a feedback-free pipeline can do);
//! * **adaptive** — the multi-round loop: each round's discoveries are
//!   aggregated (kIP), expanded (6Gen) and synthesized into the next
//!   round's targets, with a global seen-set so no interface is paid
//!   for twice.
//!
//! Fill mode is disabled in both arms so a round's probe cost is
//! exactly `targets × max_ttl` and the budgets compare exactly.
//!
//! Env knobs:
//! * `BENCH_ADAPTIVE_TILES` — topology tile count (default 4)
//! * `BENCH_ADAPTIVE_BUDGET` — total probe budget (default 400000)
//! * `BENCH_ADAPTIVE_ROUNDS` — adaptive round cap (default 6)
//! * `BENCH_ADAPTIVE_MIN_RATIO` — fail when adaptive/static unique-
//!   interface yield drops below this (the CI smoke gate sets 1.0:
//!   adaptive must discover at least as much as static)

use beholder::adaptive::{run_adaptive_parallel, AdaptiveConfig};
use beholder_bench::fmt::human;
use beholder_bench::{env_gate, env_or};
use seeds::feedback::FeedbackParams;
use simnet::config::TopologyConfig;
use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::Instant;
use targets::{synthesize::synthesize, IidStrategy, TargetSet};
use yarrp6::YarrpConfig;

fn main() {
    let tiles = env_or::<usize>("BENCH_ADAPTIVE_TILES", 4);
    let budget = env_or::<u64>("BENCH_ADAPTIVE_BUDGET", 400_000);
    let rounds = env_or::<usize>("BENCH_ADAPTIVE_ROUNDS", 6);

    let topo = Arc::new(simnet::generate::generate(TopologyConfig::tiled(7, tiles)));
    let catalog = seeds::sources::SeedCatalog::synthesize(&topo, 7);
    let z64 = targets::zn(&catalog.caida, 64);
    let seed_set = synthesize("adaptive-r0", &z64, IidStrategy::FixedIid);

    let yarrp = YarrpConfig {
        fill_mode: false, // exact probe accounting: cost = targets × ttl
        ..YarrpConfig::default()
    };
    let per_target = yarrp.max_ttl as u64;
    let n_targets = (budget / per_target) as usize;

    // --- Static arm: seeds + open-loop 6Gen padding, one round --------
    // Every seed target is kept; only the padding is capped, so the
    // static arm never loses seed coverage to truncation.
    let seed_addrs: Vec<Ipv6Addr> = catalog.caida.addrs().collect();
    let pad = seeds::sixgen::generate_loose(&seed_addrs, 4 * n_targets, 7);
    let pad_z64 = targets::transform::zn_addrs(&TargetSet::new("pad", pad), 64);
    let pad_set = synthesize("pad", &pad_z64, IidStrategy::FixedIid);
    let pad_room = n_targets.saturating_sub(seed_set.len());
    let static_addrs: Vec<Ipv6Addr> = seed_set
        .addrs
        .iter()
        .copied()
        .chain(
            pad_set
                .addrs
                .iter()
                .copied()
                .filter(|a| !seed_set.contains(*a))
                .take(pad_room),
        )
        .collect();
    let static_set = TargetSet::new("adaptive-r0", static_addrs);
    let n_static = static_set.len();
    // Equal budgets: both arms get exactly what the static arm can use.
    let eff_budget = n_static as u64 * per_target;

    let static_cfg = AdaptiveConfig {
        yarrp,
        probe_budget: eff_budget,
        round_targets: n_static,
        max_rounds: 1,
        min_yield_per_kprobes: 0.0,
        ..AdaptiveConfig::default()
    };
    let t0 = Instant::now();
    let static_res = run_adaptive_parallel(&topo, &static_set, &static_cfg);
    let static_s = t0.elapsed().as_secs_f64();

    // --- Adaptive arm: multi-round feedback, same budget --------------
    let adaptive_cfg = AdaptiveConfig {
        yarrp,
        probe_budget: eff_budget,
        round_targets: (n_static / rounds).max(1),
        shards: 4,
        max_rounds: rounds,
        min_yield_per_kprobes: 0.0, // spend the whole budget: pure yield comparison
        feedback: FeedbackParams {
            // Enough generative mass per round to keep the pool ahead
            // of the round size.
            sixgen_budget: (2 * n_static / rounds).max(2_048),
            ..FeedbackParams::default()
        },
        ..AdaptiveConfig::default()
    };
    let t0 = Instant::now();
    let adaptive_res = run_adaptive_parallel(&topo, &seed_set, &adaptive_cfg);
    let adaptive_s = t0.elapsed().as_secs_f64();

    let si = static_res.unique_interfaces() as u64;
    let ai = adaptive_res.unique_interfaces() as u64;
    let yield_ratio = ai as f64 / si.max(1) as f64;

    println!(
        "adaptive_yield: tiled x{tiles}, caida seeds ({} z64 targets), budget {} probes",
        seed_set.len(),
        human(eff_budget)
    );
    println!(
        "  static   : {:>7} targets, {:>9} probes -> {:>7} interfaces in {static_s:.3}s",
        human(n_static as u64),
        human(static_res.probes()),
        human(si)
    );
    println!(
        "  adaptive : {:>2} rounds, {:>9} probes -> {:>7} interfaces in {adaptive_s:.3}s ({:?})",
        adaptive_res.rounds.len(),
        human(adaptive_res.probes()),
        human(ai),
        adaptive_res.stop
    );
    for r in &adaptive_res.rounds {
        println!(
            "    round {}: {:>6} targets, {:>8} probes, {:>6} new ifaces, {:>5} new subnets, \
             {:.2}/kprobe ({} rate-limited: {} default, {} aggressive)",
            r.round,
            human(r.targets),
            human(r.probes),
            human(r.new_interfaces),
            human(r.new_subnets),
            r.yield_per_kprobe,
            human(r.rate_limited),
            human(r.rl_dropped_default),
            human(r.rl_dropped_aggressive),
        );
    }
    println!("  yield ratio (adaptive/static): {yield_ratio:.3}x");

    // Equal-budget sanity: neither arm may exceed the budget.
    assert!(static_res.probes() <= eff_budget, "static arm over budget");
    assert!(
        adaptive_res.probes() <= eff_budget,
        "adaptive arm over budget"
    );

    // Hand-rolled JSON: the workspace's serde is a no-op shim.
    let json = format!(
        "{{\n  \"bench\": \"adaptive_yield\",\n  \"scenario\": \"tiled x{tiles}, caida seeds, 1 vantage, budget {eff_budget}\",\n  \"probe_budget\": {eff_budget},\n  \"static\": {{ \"targets\": {n_static}, \"probes\": {}, \"interfaces\": {si}, \"elapsed_s\": {static_s:.6}, \"rate_limited\": {} }},\n  \"adaptive\": {{ \"rounds\": {}, \"probes\": {}, \"interfaces\": {ai}, \"elapsed_s\": {adaptive_s:.6}, \"rate_limited\": {}, \"stop\": \"{:?}\" }},\n  \"yield_ratio\": {yield_ratio:.3}\n}}\n",
        static_res.probes(),
        static_res.stats.rate_limited,
        adaptive_res.rounds.len(),
        adaptive_res.probes(),
        adaptive_res.stats.rate_limited,
        adaptive_res.stop,
    );
    let path = "BENCH_adaptive.json";
    std::fs::write(path, json).expect("write BENCH_adaptive.json");
    println!("  wrote {path}");

    if let Some(min) = env_gate("BENCH_ADAPTIVE_MIN_RATIO") {
        if yield_ratio < min {
            eprintln!("FAIL: adaptive/static yield {yield_ratio:.3}x below required {min:.2}x");
            std::process::exit(1);
        }
        println!("  yield gate: {yield_ratio:.3}x >= {min:.2}x OK");
    }
}
