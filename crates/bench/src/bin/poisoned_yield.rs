//! Discovery yield under **adversarial poisoning**: the quarantined
//! adaptive loop on a simnet where a share of *access-network* routers
//! (distribution/aggregation middleboxes, LAN gateways, subscriber
//! CPE — the realistic adversarial population) is hostile, cycling
//! through all five [`simnet::AdversarialClass`]es, versus the
//! identical clean run. Writes `BENCH_poisoned.json` so the
//! poisoning-resistance trajectory is tracked PR over PR.
//!
//! Both arms share the topology seed, seed catalog and adaptive
//! configuration (three vantages, fill mode off for exact probe
//! accounting); the poisoned arm additionally carries an
//! [`simnet::AdversarialSchedule`] and runs with
//! `quarantine_feedback` on. Two headline claims:
//!
//! * **zero fabricated interfaces** — every address the poisoned run
//!   discovers resolves to a real router of the topology (hard assert,
//!   not a ratio);
//! * **yield survives** — the poisoned run keeps at least
//!   `BENCH_POISONED_MIN_RATIO` of the clean run's unique-interface
//!   yield despite hostile responders burning budget and the
//!   quarantine discarding their traffic.
//!
//! Env knobs:
//! * `BENCH_POISONED_TILES`  — topology tile count (default 4)
//! * `BENCH_POISONED_BUDGET` — total probe budget (default 400000)
//! * `BENCH_POISONED_ROUNDS` — adaptive round cap (default 6)
//! * `BENCH_POISONED_MILLI`  — hostile edge routers per 1000 (default
//!   200, i.e. 20% — the acceptance scenario)
//! * `BENCH_POISONED_MIN_RATIO` — fail when poisoned/clean unique-
//!   interface yield drops below this (the CI gate sets 0.8)

use beholder::adaptive::{run_adaptive_parallel, AdaptiveConfig};
use beholder_bench::fmt::human;
use beholder_bench::{env_gate, env_or};
use seeds::feedback::FeedbackParams;
use simnet::config::TopologyConfig;
use simnet::topology::{RouterId, RouterRole};
use simnet::{AdversarialClass, AdversarialSchedule};
use std::sync::Arc;
use std::time::Instant;
use targets::{synthesize::synthesize, IidStrategy};
use yarrp6::YarrpConfig;

fn main() {
    let tiles = env_or::<usize>("BENCH_POISONED_TILES", 4);
    let budget = env_or::<u64>("BENCH_POISONED_BUDGET", 400_000);
    let rounds = env_or::<usize>("BENCH_POISONED_ROUNDS", 6);
    let milli = env_or::<u64>("BENCH_POISONED_MILLI", 200).clamp(1, 1000);

    let yarrp = YarrpConfig {
        fill_mode: false, // exact probe accounting: cost = targets × ttl
        ..YarrpConfig::default()
    };
    let vantages: Vec<u8> = vec![0, 1, 2];
    let per_target = yarrp.max_ttl as u64 * vantages.len() as u64;
    let n_targets = (budget / per_target) as usize;

    let cfg = |quarantine_feedback: bool| AdaptiveConfig {
        yarrp,
        vantages: vantages.clone(),
        probe_budget: budget,
        round_targets: (n_targets / rounds).max(1),
        shards: 4,
        max_rounds: rounds,
        min_yield_per_kprobes: 0.0, // spend the whole budget
        feedback: FeedbackParams {
            sixgen_budget: (2 * n_targets / rounds).max(2_048),
            ..FeedbackParams::default()
        },
        quarantine_feedback,
        ..AdaptiveConfig::default()
    };

    let arm = |adversarial: AdversarialSchedule, quarantine: bool| {
        let tc = TopologyConfig {
            adversarial,
            ..TopologyConfig::tiled(7, tiles)
        };
        let topo = Arc::new(simnet::generate::generate(tc));
        let catalog = seeds::sources::SeedCatalog::synthesize(&topo, 7);
        // The Combined seed list (Table 1) reaches *host* space, so
        // probe paths actually cross the LAN-gateway/CPE edge where the
        // hostile population lives — CAIDA-style router-interface seeds
        // never would.
        let z64 = targets::zn(&catalog.combined, 64);
        let seed_set = synthesize("adaptive-r0", &z64, IidStrategy::FixedIid);
        let t0 = Instant::now();
        let res = run_adaptive_parallel(&topo, &seed_set, &cfg(quarantine));
        (res, t0.elapsed().as_secs_f64(), topo)
    };

    // --- Clean arm ---------------------------------------------------
    let (clean, clean_s, topo) = arm(AdversarialSchedule::default(), false);

    // --- Poisoned arm: every-Nth *edge* router hostile, all classes --
    //
    // The hostile population is drawn from the access network
    // (distribution/aggregation middleboxes, LAN gateways, subscriber
    // CPE): compromised customer gear and TTL-mangling access
    // middleboxes are where real adversarial responders live — backbone
    // and border routers are operator-controlled, and a "hostile
    // backbone" scenario mostly measures the black-holing of entire
    // subtrees (a zombie on a transit path absorbs every probe through
    // it, so routers behind it never respond at all), not the
    // decode/quarantine defenses this bench gates.
    let edge: Vec<usize> = topo
        .routers
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            matches!(
                r.role,
                RouterRole::Distribution | RouterRole::LanGateway | RouterRole::Cpe
            )
        })
        .map(|(i, _)| i)
        .collect();
    let stride = (1000 / milli).max(1) as usize;
    let mut sched = AdversarialSchedule::default();
    let mut hostile = 0usize;
    for &r in edge.iter().step_by(stride) {
        sched = sched.with_hostile_always(
            RouterId(r as u32),
            AdversarialClass::ALL[hostile % AdversarialClass::ALL.len()],
        );
        hostile += 1;
    }
    let (poisoned, poisoned_s, ptopo) = arm(sched, true);

    let ci = clean.unique_interfaces() as u64;
    let pi = poisoned.unique_interfaces() as u64;
    let yield_ratio = pi as f64 / ci.max(1) as f64;

    // Zero fabricated interfaces: every discovery is a real router
    // interface of the (poisoned) topology — nothing invented by a
    // spoofer, garbler or liar made it through decode + quarantine.
    let mut fabricated = 0u64;
    for addr in poisoned.interfaces.iter() {
        if ptopo.router_by_iface(addr).is_none() {
            fabricated += 1;
            eprintln!("  fabricated interface: {addr}");
        }
    }

    println!(
        "poisoned_yield: tiled x{tiles}, 3 vantages, budget {} probes, {hostile} hostile edge routers ({}% of {} edge)",
        human(budget),
        milli / 10,
        edge.len(),
    );
    println!(
        "  clean    : {:>2} rounds, {:>9} probes -> {:>7} interfaces in {clean_s:.3}s ({:?})",
        clean.rounds.len(),
        human(clean.probes()),
        human(ci),
        clean.stop
    );
    println!(
        "  poisoned : {:>2} rounds, {:>9} probes -> {:>7} interfaces in {poisoned_s:.3}s ({:?})",
        poisoned.rounds.len(),
        human(poisoned.probes()),
        human(pi),
        poisoned.stop
    );
    let adv = &poisoned.stats;
    println!(
        "  hostile traffic absorbed: lying-ttl {}, spoofed {}, zombie {}, storm {}, garbage {} (total {})",
        human(adv.adv_lying_ttl),
        human(adv.adv_spoofed_source),
        human(adv.adv_zombie_echo),
        human(adv.adv_duplicate_storm),
        human(adv.adv_garbage),
        human(adv.adversarial_total()),
    );
    println!("  fabricated interfaces: {fabricated}");
    println!("  yield ratio (poisoned/clean): {yield_ratio:.3}x");

    // Sanity: the hostile schedule actually fired, and the defense's
    // core claim holds.
    assert!(
        poisoned.stats.adversarial_total() > 0,
        "no adversarial responses were generated — the schedule is dead"
    );
    assert_eq!(fabricated, 0, "fabricated interfaces reached the results");
    assert!(clean.probes() <= budget, "clean arm over budget");
    assert!(poisoned.probes() <= budget, "poisoned arm over budget");

    // Hand-rolled JSON: the workspace's serde is a no-op shim.
    let json = format!(
        "{{\n  \"bench\": \"poisoned_yield\",\n  \"scenario\": \"tiled x{tiles}, 3 vantages, {hostile} hostile edge routers ({milli}/1000 of edge, all classes), budget {budget}\",\n  \"probe_budget\": {budget},\n  \"clean\": {{ \"rounds\": {}, \"probes\": {}, \"interfaces\": {ci}, \"elapsed_s\": {clean_s:.6}, \"stop\": \"{:?}\" }},\n  \"poisoned\": {{ \"rounds\": {}, \"probes\": {}, \"interfaces\": {pi}, \"elapsed_s\": {poisoned_s:.6}, \"stop\": \"{:?}\", \"adversarial_responses\": {}, \"fabricated_interfaces\": {fabricated} }},\n  \"yield_ratio\": {yield_ratio:.3}\n}}\n",
        clean.rounds.len(),
        clean.probes(),
        clean.stop,
        poisoned.rounds.len(),
        poisoned.probes(),
        poisoned.stop,
        poisoned.stats.adversarial_total(),
    );
    let path = "BENCH_poisoned.json";
    std::fs::write(path, json).expect("write BENCH_poisoned.json");
    println!("  wrote {path}");

    if let Some(min) = env_gate("BENCH_POISONED_MIN_RATIO") {
        if yield_ratio < min {
            eprintln!("FAIL: poisoned/clean yield {yield_ratio:.3}x below required {min:.2}x");
            std::process::exit(1);
        }
        println!("  yield gate: {yield_ratio:.3}x >= {min:.2}x OK");
    }
}
