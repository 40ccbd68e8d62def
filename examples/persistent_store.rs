//! The longitudinal workflow end to end: run a discovery sweep, route
//! the merged trace store's targets to shards by prefix, persist it as
//! one versioned snapshot file, read it back, and run a *delta* sweep against it
//! — canaries re-probe a sample of known targets, and budget flows
//! only where the topology changed (here: nowhere, so the delta run
//! stops almost immediately at the same discovered-interface count).
//!
//! ```sh
//! cargo run --release --example persistent_store
//! ```

use beholder::prelude::*;
use std::sync::Arc;

fn main() {
    let topo = Arc::new(beholder::net::generate::generate(TopologyConfig::tiled(
        42, 2,
    )));
    let seeds = SeedCatalog::synthesize(&topo, 42);
    let z64 = targets::zn(&seeds.caida, 64);
    let initial = targets::synthesize::synthesize("store-r0", &z64, IidStrategy::FixedIid);

    let cfg = AdaptiveConfig {
        vantages: vec![0, 2],
        probe_budget: 1_000_000,
        round_targets: 2_048,
        shards: 2,
        max_rounds: 3,
        min_yield_per_kprobes: 0.5,
        patience: 1,
        ..AdaptiveConfig::default()
    };

    // --- Day 0: a fresh adaptive sweep.
    let fresh = run_adaptive_checkpointed(&topo, &initial, &cfg, true, |_| {});
    println!(
        "fresh sweep: {} rounds, {} probes, {} unique interfaces",
        fresh.rounds.len(),
        fresh.stats.probes,
        fresh.unique_interfaces()
    );

    // --- Route the merged store by /64 prefix and persist it.
    let merged = fresh.merged_traces();
    let store = ShardedTraceSet::from_set(&merged, 8);
    let dir = std::env::temp_dir().join(format!("beholder-store-{}", std::process::id()));
    let manifest = write_sharded_snapshot(&dir, &store).expect("snapshot write");
    let on_disk: u64 = manifest.segments.iter().map(|s| s.len).sum();
    println!(
        "snapshot: one file of {} bytes, {} traces under {} shards, at {}",
        on_disk,
        merged.len(),
        manifest.n_shards,
        dir.join(beholder::analyze::snapshot::STORE_FILE).display()
    );
    // A shard is only a route: count the targets each one holds.
    let route = ShardRoute::new(store.n_shards());
    let mut per_shard = vec![0usize; store.n_shards()];
    for &t in merged.targets() {
        per_shard[route.shard_of(t)] += 1;
    }
    for (s, n) in per_shard.iter().enumerate() {
        println!("  shard {s}: {n:>5} targets");
    }

    // --- Day 1: reload and sweep only the delta.
    let prior = read_sharded_snapshot(&dir).expect("snapshot read");
    assert!(prior == store, "round trip must be exact");
    let start = Checkpoint::delta(&topo, &initial, &cfg, &prior);
    let delta = resume_adaptive(&topo, &cfg, &start, true, |_| {}).expect("resume");
    println!(
        "delta sweep against the unchanged snapshot: {} rounds, {} probes, \
         {} unique interfaces ({:?})",
        delta.rounds.len(),
        delta.stats.probes,
        delta.unique_interfaces(),
        delta.stop
    );
    println!(
        "probe cost: {} fresh vs {} delta ({:.1}% of the fresh sweep)",
        fresh.stats.probes,
        delta.stats.probes,
        100.0 * delta.stats.probes as f64 / fresh.stats.probes as f64
    );

    let _ = std::fs::remove_dir_all(&dir);

    // What this example claims, checked: the unchanged world yields
    // nothing new, and the delta run's record leads with the store it
    // was seeded from, as one set.
    assert_eq!(
        delta.unique_interfaces(),
        fresh.unique_interfaces(),
        "an unchanged world ends at the fresh sweep's interface count"
    );
    assert!(
        delta.traces.prior() == Some(&prior.to_trace_set()),
        "the delta run's record begins with the prior store"
    );
}
