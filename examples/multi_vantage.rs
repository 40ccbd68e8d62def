//! Multi-vantage discovery, end to end: probe the same target set
//! from all three vantages concurrently, report each vantage's
//! contribution and overlap from the per-vantage trace sets (the
//! paper's vantage tables), merge them into one union that keeps the
//! first vantage's trace per target, then run the adaptive loop with
//! vantage-aware budgeting so probes drift toward the vantages that
//! keep earning. The merged set says nothing per trace about which
//! vantage found it; the per-vantage sets answer that, and the example
//! asserts how their counts bound the union's.
//!
//! ```sh
//! cargo run --release --example multi_vantage
//! ```

use beholder::prelude::*;
use std::sync::Arc;

fn main() {
    let topo = Arc::new(beholder::net::generate::generate(TopologyConfig::tiled(
        42, 2,
    )));
    let seeds = SeedCatalog::synthesize(&topo, 42);
    let catalog = TargetCatalog::build(&seeds, IidStrategy::FixedIid);
    let set = catalog.get("combined-z64").unwrap();

    // --- One multi-vantage sweep: same set, equal budget per vantage.
    let cfg = YarrpConfig {
        fill_mode: false,
        max_ttl: 12,
        ..YarrpConfig::default()
    };
    let sweep = CampaignRunner::new(&topo)
        .targets(set)
        .vantages(&[0, 1, 2])
        .config(cfg)
        .parallel(true)
        .run()
        .expect("sweep failed");

    let per = || sweep.runs.iter().map(|r| &r.traces);
    let rows = vantage_contributions(per());
    let union = vantage_union_count(per());
    println!(
        "multi-vantage sweep: {} targets x 3 vantages ({} probes total)\n",
        set.len(),
        sweep.stats.probes
    );
    for r in &rows {
        println!(
            "  {:<9}: {:>5} interfaces, {:>4} exclusive, {:>5.1}% of union",
            r.vantage,
            r.interfaces,
            r.exclusive,
            100.0 * r.union_share
        );
    }
    let exclusive: u64 = rows.iter().map(|r| r.exclusive).sum();
    assert!(
        rows.iter().all(|r| r.interfaces <= union) && exclusive <= union,
        "a vantage's interfaces, and all exclusive ones together, fit in the union"
    );
    let best = rows.iter().map(|r| r.interfaces).max().unwrap();
    println!(
        "  union {:>5} interfaces = {:.2}x the best single vantage\n",
        union,
        union as f64 / best as f64
    );

    let jac = vantage_jaccard(per());
    for i in 0..rows.len() {
        for j in (i + 1)..rows.len() {
            println!(
                "  jaccard({}, {}) = {:.3}",
                rows[i].vantage, rows[j].vantage, jac[i][j]
            );
        }
    }

    // The merged union: every responder any vantage saw, the first
    // vantage's trace per target. Its hops are a subset of the
    // per-vantage union; its table holds that union and more (the
    // unreachable responders, the hops of traces it dropped).
    let merged = sweep.merged();
    let (kept, table) = (merged.interface_addrs().len(), merged.interner().len());
    println!(
        "\nmerged: {} ({} traces, {} interfaces on kept traces, {} responders)",
        merged.vantage,
        merged.len(),
        kept,
        table
    );
    assert_eq!(&*merged.vantage, "EU-NET+US-EDU-1+US-EDU-2");
    assert!(
        kept as u64 <= union && union <= table as u64,
        "kept interfaces {kept} <= per-vantage union {union} <= responders {table}"
    );

    // --- Adaptive loop with vantage-aware budgeting: allocations
    // follow each vantage's marginal yield across rounds.
    let z64 = targets::zn(&seeds.caida, 64);
    let initial = targets::synthesize::synthesize("adaptive-r0", &z64, IidStrategy::FixedIid);
    let acfg = AdaptiveConfig {
        vantages: vec![0, 1, 2],
        vantage_budgeting: true,
        probe_budget: 200_000,
        round_targets: 1_500,
        shards: 2,
        max_rounds: 5,
        min_yield_per_kprobes: 0.0,
        ..AdaptiveConfig::default()
    };
    let res = run_adaptive_checkpointed(&topo, &initial, &acfg, true, |_| {});
    println!(
        "\nadaptive multi-vantage: {} rounds, {} probes, {} unique interfaces ({:?})",
        res.rounds.len(),
        res.stats.probes,
        res.unique_interfaces(),
        res.stop
    );
    for r in &res.rounds {
        let alloc: Vec<String> = r
            .per_vantage
            .iter()
            .map(|p| {
                format!(
                    "v{}: {} tgts, {} new, {:.0}% next",
                    p.vantage,
                    p.targets,
                    p.new_interfaces,
                    100.0 * p.next_share
                )
            })
            .collect();
        println!("  round {}: [{}]", r.round, alloc.join(" | "));
    }
}
