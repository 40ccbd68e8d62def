//! Discovery yield under **vantage churn**: the adaptive loop on a
//! fault-injected simnet (one of three vantages permanently lost
//! mid-run, plus a flapping transit link) versus the identical
//! fault-free run. Writes `BENCH_churn.json` so the robustness
//! trajectory is tracked PR over PR.
//!
//! Both arms share the topology seed, the seed catalog and the
//! adaptive configuration (three vantages, vantage budgeting on, fill
//! mode off for exact probe accounting); the faulty arm additionally
//! carries a [`simnet::FaultSchedule`]. The supervisor retries
//! blacked-out campaigns with virtual-time backoff, declares the
//! unreachable vantage dead, and the budgeter reallocates its share —
//! the bench's headline is how much of the fault-free union interface
//! yield survives all that.
//!
//! Env knobs:
//! * `BENCH_CHURN_TILES`   — topology tile count (default 4)
//! * `BENCH_CHURN_BUDGET`  — total probe budget (default 400000)
//! * `BENCH_CHURN_ROUNDS`  — adaptive round cap (default 6)
//! * `BENCH_CHURN_KILL_US` — virtual µs at which vantage 1 goes dark
//!   for good (default 2000000: mid round 0)
//! * `BENCH_CHURN_MIN_RATIO` — fail when faulty/fault-free unique-
//!   interface yield drops below this (the CI gate sets 0.8, the
//!   acceptance bar for losing one vantage of three)

use beholder::adaptive::{run_adaptive_parallel, AdaptiveConfig};
use beholder_bench::fmt::human;
use beholder_bench::{env_gate, env_or};
use seeds::feedback::FeedbackParams;
use simnet::config::TopologyConfig;
use simnet::topology::RouterId;
use simnet::FaultSchedule;
use std::sync::Arc;
use std::time::Instant;
use targets::{synthesize::synthesize, IidStrategy};
use yarrp6::campaign::RetryPolicy;
use yarrp6::YarrpConfig;

fn main() {
    let tiles = env_or::<usize>("BENCH_CHURN_TILES", 4);
    let budget = env_or::<u64>("BENCH_CHURN_BUDGET", 400_000);
    let rounds = env_or::<usize>("BENCH_CHURN_ROUNDS", 6);
    let kill_us = env_or::<u64>("BENCH_CHURN_KILL_US", 2_000_000);

    let yarrp = YarrpConfig {
        fill_mode: false, // exact probe accounting: cost = targets × ttl
        ..YarrpConfig::default()
    };
    let vantages: Vec<u8> = vec![0, 1, 2];
    let per_target = yarrp.max_ttl as u64 * vantages.len() as u64;
    let n_targets = (budget / per_target) as usize;

    let cfg = AdaptiveConfig {
        yarrp,
        vantages,
        vantage_budgeting: true,
        vantage_floor_share: 0.05,
        probe_budget: budget,
        round_targets: (n_targets / rounds).max(1),
        shards: 4,
        max_rounds: rounds,
        min_yield_per_kprobes: 0.0, // spend the whole budget
        feedback: FeedbackParams {
            sixgen_budget: (2 * n_targets / rounds).max(2_048),
            ..FeedbackParams::default()
        },
        retry: RetryPolicy {
            max_retries: 1,
            base_backoff_us: 250_000,
            retry_blackout: true,
        },
        ..AdaptiveConfig::default()
    };

    let arm = |faults: FaultSchedule| {
        let tc = TopologyConfig {
            faults,
            ..TopologyConfig::tiled(7, tiles)
        };
        let topo = Arc::new(simnet::generate::generate(tc));
        let catalog = seeds::sources::SeedCatalog::synthesize(&topo, 7);
        let z64 = targets::zn(&catalog.caida, 64);
        let seed_set = synthesize("adaptive-r0", &z64, IidStrategy::FixedIid);
        let t0 = Instant::now();
        let res = run_adaptive_parallel(&topo, &seed_set, &cfg);
        (res, t0.elapsed().as_secs_f64(), topo)
    };

    // --- Fault-free arm ----------------------------------------------
    let (clean, clean_s, topo) = arm(FaultSchedule::default());

    // --- Churn arm: kill vantage 1 mid-run + flap a transit link -----
    let flapped = RouterId(topo.routers.len() as u32 / 2);
    let schedule = FaultSchedule::default()
        .with_vantage_outage(1, kill_us, u64::MAX)
        .with_link_flap(flapped, kill_us, u64::MAX, 100_000);
    let (churn, churn_s, _) = arm(schedule);

    let ci = clean.unique_interfaces() as u64;
    let fi = churn.unique_interfaces() as u64;
    let yield_ratio = fi as f64 / ci.max(1) as f64;
    let degraded_rounds = churn
        .rounds
        .iter()
        .filter(|r| !r.degraded_vantages().is_empty())
        .count();
    let max_attempts = churn
        .rounds
        .iter()
        .flat_map(|r| r.per_vantage.iter().map(|p| p.attempts))
        .max()
        .unwrap_or(0);

    println!(
        "churn_yield: tiled x{tiles}, 3 vantages, budget {} probes, kill v1 at {}us + flap r{}",
        human(budget),
        human(kill_us),
        flapped.0
    );
    println!(
        "  fault-free : {:>2} rounds, {:>9} probes -> {:>7} interfaces in {clean_s:.3}s ({:?})",
        clean.rounds.len(),
        human(clean.probes()),
        human(ci),
        clean.stop
    );
    println!(
        "  churn      : {:>2} rounds, {:>9} probes -> {:>7} interfaces in {churn_s:.3}s ({:?})",
        churn.rounds.len(),
        human(churn.probes()),
        human(fi),
        churn.stop
    );
    for r in &churn.rounds {
        let degraded = r.degraded_vantages();
        println!(
            "    round {}: {:>6} targets, {:>8} probes, {:>6} new ifaces, \
             fault-dropped {:>7}, degraded {:?}",
            r.round,
            human(r.targets),
            human(r.probes),
            human(r.new_interfaces),
            human(r.per_vantage.iter().map(|p| p.fault_dropped).sum::<u64>()),
            degraded,
        );
    }
    println!("  yield ratio (churn/fault-free): {yield_ratio:.3}x");

    // Sanity: the supervisor reported the injected faults.
    assert!(
        churn.stats.fault_vantage_outage > 0,
        "outage must be visible in the stats"
    );
    assert!(
        churn
            .rounds
            .iter()
            .any(|r| r.degraded_vantages().contains(&1)),
        "vantage 1 must be reported degraded"
    );
    assert!(clean.probes() <= budget, "fault-free arm over budget");
    assert!(churn.probes() <= budget, "churn arm over budget");

    // Hand-rolled JSON: the workspace's serde is a no-op shim.
    let json = format!(
        "{{\n  \"bench\": \"churn_yield\",\n  \"scenario\": \"tiled x{tiles}, 3 vantages, kill v1 at {kill_us}us + link flap, budget {budget}\",\n  \"probe_budget\": {budget},\n  \"fault_free\": {{ \"rounds\": {}, \"probes\": {}, \"interfaces\": {ci}, \"elapsed_s\": {clean_s:.6}, \"stop\": \"{:?}\" }},\n  \"churn\": {{ \"rounds\": {}, \"probes\": {}, \"interfaces\": {fi}, \"elapsed_s\": {churn_s:.6}, \"stop\": \"{:?}\", \"degraded_rounds\": {degraded_rounds}, \"max_attempts\": {max_attempts}, \"fault_dropped\": {} }},\n  \"yield_ratio\": {yield_ratio:.3}\n}}\n",
        clean.rounds.len(),
        clean.probes(),
        clean.stop,
        churn.rounds.len(),
        churn.probes(),
        churn.stop,
        churn.stats.fault_dropped_total(),
    );
    let path = "BENCH_churn.json";
    std::fs::write(path, json).expect("write BENCH_churn.json");
    println!("  wrote {path}");

    if let Some(min) = env_gate("BENCH_CHURN_MIN_RATIO") {
        if yield_ratio < min {
            eprintln!("FAIL: churn/fault-free yield {yield_ratio:.3}x below required {min:.2}x");
            std::process::exit(1);
        }
        println!("  yield gate: {yield_ratio:.3}x >= {min:.2}x OK");
    }
}
