//! The closed feedback loop, end to end: start from a sparse
//! caida-style seed set on a tiled topology, then let each round's
//! discoveries generate the next round's targets — and watch the
//! discovery curve flatten until the marginal-yield stopping rule
//! fires.
//!
//! ```sh
//! cargo run --release --example adaptive_discovery
//! ```

use beholder::prelude::*;
use std::sync::Arc;

fn main() {
    // A tiled discovery topology: tranches of stub ASes with dense
    // sequential LAN plans — structure the initial seeds only graze.
    let topo = Arc::new(beholder::net::generate::generate(TopologyConfig::tiled(
        7, 4,
    )));
    let seeds = SeedCatalog::synthesize(&topo, 7);
    let z64 = targets::zn(&seeds.caida, 64);
    let initial = targets::synthesize::synthesize("adaptive-r0", &z64, IidStrategy::FixedIid);

    let cfg = AdaptiveConfig {
        vantages: vec![0],
        probe_budget: 300_000,
        round_targets: 3_000,
        shards: 4,
        max_rounds: 8,
        // Stop once two consecutive rounds earn fewer than 0.5 new
        // interfaces per 1000 probes.
        min_yield_per_kprobes: 0.5,
        patience: 2,
        path_div: Some(PathDivParams::default()),
        ..AdaptiveConfig::default()
    };

    println!(
        "adaptive discovery: {} initial targets, budget {} probes\n",
        initial.len(),
        cfg.probe_budget
    );
    let res = run_adaptive_checkpointed(&topo, &initial, &cfg, true, |_| {});

    println!(
        "{:>5} {:>8} {:>9} {:>10} {:>9} {:>12} {:>12}",
        "round", "targets", "probes", "new ifaces", "subnets", "yield/kprobe", "rate-limited"
    );
    for r in &res.rounds {
        println!(
            "{:>5} {:>8} {:>9} {:>10} {:>9} {:>12.2} {:>12}",
            r.round,
            r.targets,
            r.probes,
            r.new_interfaces,
            r.new_subnets,
            r.yield_per_kprobe,
            r.rate_limited
        );
    }
    println!(
        "\nstopped: {:?} after {} probes — {} unique interfaces, {} inferred subnets",
        res.stop,
        res.stats.probes,
        res.unique_interfaces(),
        res.subnets.len()
    );
    let (def, agg) = res.stats.rl_dropped_by_class();
    println!("rate-limit drops: {def} default-class, {agg} aggressive-class");
}
