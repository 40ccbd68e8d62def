//! Vantage-diversity yield: the union of the three vantages against
//! the best single vantage at **equal per-vantage budget** — the
//! paper's central multi-vantage table as a benchmark. Writes
//! `BENCH_vantage.json` so the ratio is tracked PR over PR.
//!
//! All three vantages probe the *same* combined-z64 target set with
//! the same prober configuration (fill mode off, so every vantage
//! spends exactly `targets × max_ttl` probes) through the streaming
//! multi-vantage driver; the union is the deterministic cross-vantage
//! [`analysis::TraceSet`] merge. Everything runs in virtual time, so the
//! headline ratio is exactly reproducible — the CI gate is a hard
//! floor, not a noisy threshold.
//!
//! The probe depth defaults to `max_ttl = 12`, a mid-path budget: the
//! tiny simulated Internet is shallow enough that probing to TTL 16
//! lets *every* vantage exhaust the shared core, an artifact of sim
//! scale that buries the near-/mid-path diversity the paper's vantage
//! tables measure.
//!
//! Env knobs:
//! * `BENCH_VANTAGE_TILES` — topology tile count (default 4)
//! * `BENCH_VANTAGE_TARGETS` — target cap, stride-sampled (default 20000)
//! * `BENCH_VANTAGE_TTL` — per-target probe depth (default 12)
//! * `BENCH_VANTAGE_MIN_RATIO` — fail when union/best-single drops
//!   below this (the CI smoke gate sets 1.2: vantage diversity must
//!   keep paying)

use analysis::{vantage_contributions, vantage_jaccard, vantage_union_count, CampaignRunner};
use beholder_bench::fmt::human;
use beholder_bench::{env_gate, env_or};
use simnet::config::TopologyConfig;
use std::sync::Arc;
use std::time::Instant;
use targets::{stride_sample, IidStrategy, TargetCatalog, TargetSet};
use yarrp6::YarrpConfig;

fn main() {
    let tiles = env_or::<usize>("BENCH_VANTAGE_TILES", 4);
    let cap = env_or::<usize>("BENCH_VANTAGE_TARGETS", 20_000);
    let ttl = env_or::<u8>("BENCH_VANTAGE_TTL", 12);

    let topo = Arc::new(simnet::generate::generate(TopologyConfig::tiled(42, tiles)));
    let seed_catalog = seeds::sources::SeedCatalog::synthesize(&topo, 42);
    let catalog = TargetCatalog::build(&seed_catalog, IidStrategy::FixedIid);
    let full = catalog.get("combined-z64").expect("combined-z64 set");
    // Stride-sample the cap so the set spans the whole address space.
    let set = TargetSet::new("combined-z64", stride_sample(&full.addrs, cap));

    let yarrp = YarrpConfig {
        fill_mode: false, // equal budgets exactly: cost = targets × ttl
        max_ttl: ttl,
        ..YarrpConfig::default()
    };
    let vantages = [0u8, 1, 2];
    let per_vantage_budget = set.len() as u64 * yarrp.max_ttl as u64;

    let t0 = Instant::now();
    let sweep = CampaignRunner::new(&topo)
        .targets(&set)
        .vantages(&vantages)
        .config(yarrp)
        .parallel(true)
        .run()
        .expect("a sweep on a fault-free network cannot fail");
    let elapsed = t0.elapsed().as_secs_f64();

    let per = || sweep.runs.iter().map(|r| &r.traces);
    let rows = vantage_contributions(per());
    let jac = vantage_jaccard(per());
    let union = vantage_union_count(per());
    let best = rows.iter().map(|r| r.interfaces).max().unwrap_or(0);
    let yield_ratio = union as f64 / best.max(1) as f64;

    println!(
        "vantage_yield: tiled x{tiles}, {} combined-z64 targets, {} probes/vantage, {elapsed:.3}s",
        human(set.len() as u64),
        human(per_vantage_budget)
    );
    for (r, run) in rows.iter().zip(&sweep.runs) {
        println!(
            "  {:<9}: {:>7} interfaces ({:>5} exclusive, {:>5.1}% of union), {:>9} probes",
            r.vantage,
            human(r.interfaces),
            human(r.exclusive),
            100.0 * r.union_share,
            human(run.stats.probes),
        );
    }
    for i in 0..rows.len() {
        for j in (i + 1)..rows.len() {
            println!(
                "  jaccard({}, {}) = {:.3}",
                rows[i].vantage, rows[j].vantage, jac[i][j]
            );
        }
    }
    println!(
        "  union: {} interfaces; best single: {}; union/best = {yield_ratio:.3}x",
        human(union),
        human(best)
    );

    // Hand-rolled JSON: the workspace's serde is a no-op shim.
    let mut per_json = String::new();
    for (i, r) in rows.iter().enumerate() {
        per_json.push_str(&format!(
            "    {{ \"vantage\": \"{}\", \"interfaces\": {}, \"exclusive\": {}, \"union_share\": {:.4} }}{}\n",
            r.vantage,
            r.interfaces,
            r.exclusive,
            r.union_share,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"vantage_yield\",\n  \"scenario\": \"tiled x{tiles}, combined-z64, 3 vantages, {} targets, ttl {ttl}\",\n  \"per_vantage_probe_budget\": {per_vantage_budget},\n  \"per_vantage\": [\n{per_json}  ],\n  \"union_interfaces\": {union},\n  \"best_single_interfaces\": {best},\n  \"elapsed_s\": {elapsed:.6},\n  \"yield_ratio\": {yield_ratio:.3}\n}}\n",
        set.len(),
    );
    let path = "BENCH_vantage.json";
    std::fs::write(path, json).expect("write BENCH_vantage.json");
    println!("  wrote {path}");

    if let Some(min) = env_gate("BENCH_VANTAGE_MIN_RATIO") {
        if yield_ratio < min {
            eprintln!("FAIL: union/best yield {yield_ratio:.3}x below required {min:.2}x");
            std::process::exit(1);
        }
        println!("  yield gate: {yield_ratio:.3}x >= {min:.2}x OK");
    }
}
