//! Sharded-store throughput and the delta-sweep economics: times the
//! flat [`TraceSet::merge_all`] against the sharded, work-queue
//! parallel [`ShardedTraceSet::merge_all`] on a multi-tile topology's
//! multi-vantage campaign sets, then the persistent snapshot's
//! write/read round trip — asserting byte-determinism and exactness on
//! the benched workload — and finally (gated) the delta-seeding
//! contract: a sweep against an unchanged snapshot must probe strictly
//! fewer targets than the fresh sweep at the same discovered-interface
//! count. Writes `BENCH_snapshot.json` so the trajectory is tracked PR
//! over PR.
//!
//! Env knobs:
//! * `BENCH_SNAPSHOT_TILES` — topology tile count (default 6; CI's
//!   smoke gate sets 4 — the speedup floor assumes at least 4)
//! * `BENCH_SNAPSHOT_SHARDS` — shard count (default 8)
//! * `BENCH_SNAPSHOT_SETS` — campaign sets to merge (default 12)
//! * `BENCH_SNAPSHOT_REPS` — best-of repetitions (default 3)
//! * `BENCH_SNAPSHOT_MIN_SPEEDUP` — fail when sharded/flat `merge_all`
//!   throughput falls below this (the CI regression gate)
//! * `BENCH_SNAPSHOT_DELTA_GATE` — when set (any value), run the
//!   delta-seeding contract check and fail on violation

use analysis::{read_sharded_snapshot, write_sharded_snapshot, ShardedTraceSet, TraceSet};
use beholder::adaptive::{
    run_adaptive_delta, run_adaptive_parallel, AdaptiveConfig, DeltaSeedConfig,
};
use beholder_bench::{env_gate, env_or};
use simnet::config::TopologyConfig;
use std::sync::Arc;
use std::time::Instant;
use yarrp6::campaign::{try_run_campaigns_parallel, CampaignSpec};
use yarrp6::YarrpConfig;

struct Measurement {
    elapsed_s: f64,
    per_s: f64,
}

/// Best-of-`reps` timing of `f`, rated against `units` items per call.
fn measure<T>(units: u64, reps: usize, mut f: impl FnMut() -> T) -> Measurement {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Measurement {
        elapsed_s: best,
        per_s: units as f64 / best,
    }
}

fn main() {
    let tiles = env_or::<usize>("BENCH_SNAPSHOT_TILES", 6).max(1);
    let shards = env_or::<usize>("BENCH_SNAPSHOT_SHARDS", 8).max(1);
    let n_sets = env_or::<usize>("BENCH_SNAPSHOT_SETS", 12).max(2);
    let reps = env_or::<usize>("BENCH_SNAPSHOT_REPS", 3).max(1);

    let topo = Arc::new(simnet::generate::generate(TopologyConfig::tiled(42, tiles)));
    let seeds = seeds::sources::SeedCatalog::synthesize(&topo, 42);
    let catalog = targets::TargetCatalog::build(&seeds, targets::IidStrategy::FixedIid);
    let set = catalog.get("combined-z64").expect("combined-z64");
    let cfg = YarrpConfig::default();

    // The merge workload: the same set probed from every vantage,
    // several times over (longitudinal accumulation — the sharded
    // store's reason to exist).
    let specs: Vec<CampaignSpec<'_>> = (0..n_sets)
        .map(|i| CampaignSpec {
            vantage_idx: (i % 3) as u8,
            set,
            cfg,
        })
        .collect();
    let flats: Vec<TraceSet> = try_run_campaigns_parallel(&topo, &specs)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .map(|run| TraceSet::from_log(&run.log))
        .collect();
    let shardeds: Vec<ShardedTraceSet> = flats
        .iter()
        .map(|f| ShardedTraceSet::from_set(f, shards))
        .collect();
    let n_traces: u64 = flats.iter().map(|f| f.len() as u64).sum();
    println!(
        "shard_snapshot_pps: tiled({tiles}) combined-z64, {} targets x {n_sets} campaigns \
         = {n_traces} traces, {shards} shards, best of {reps}",
        set.len()
    );

    // --- Flat merge_all (single-threaded reference) -------------------
    let flat = measure(n_traces, reps, || TraceSet::merge_all(&flats));
    println!(
        "  flat merge_all    : {n_traces:>8} traces in {:.3}s = {:>12.0} traces/s",
        flat.elapsed_s, flat.per_s
    );

    // --- Sharded merge_all (per-shard fan-out) ------------------------
    let sharded = measure(n_traces, reps, || ShardedTraceSet::merge_all(&shardeds));
    println!(
        "  sharded merge_all : {n_traces:>8} traces in {:.3}s = {:>12.0} traces/s",
        sharded.elapsed_s, sharded.per_s
    );
    let speedup = sharded.per_s / flat.per_s;
    println!("  speedup           : {speedup:.2}x");

    // Exactness on the benched workload: the shard fan-out merge folds
    // back to the flat merge, bit for bit, under canonical ids.
    let merged = ShardedTraceSet::merge_all(&shardeds);
    assert!(
        merged.to_trace_set().canonical() == TraceSet::merge_all(&flats).canonical(),
        "sharded merge_all diverged from the flat reference"
    );

    // --- Snapshot write / read round trip -----------------------------
    let dir = std::env::temp_dir().join(format!("beholder-bench-snap-{}", std::process::id()));
    let bytes_on_disk = {
        let manifest = write_sharded_snapshot(&dir, &merged).expect("snapshot write");
        manifest.segments.iter().map(|s| s.len).sum::<u64>()
    };
    let write = measure(bytes_on_disk, reps, || {
        write_sharded_snapshot(&dir, &merged).expect("snapshot write")
    });
    let read = measure(bytes_on_disk, reps, || {
        read_sharded_snapshot(&dir).expect("snapshot read")
    });
    println!(
        "  snapshot write    : {bytes_on_disk:>8} B in {:.4}s = {:>12.0} B/s",
        write.elapsed_s, write.per_s
    );
    println!(
        "  snapshot read     : {bytes_on_disk:>8} B in {:.4}s = {:>12.0} B/s",
        read.elapsed_s, read.per_s
    );
    // Byte-determinism: a second directory is file-for-file identical.
    let dir2 = std::env::temp_dir().join(format!("beholder-bench-snap2-{}", std::process::id()));
    write_sharded_snapshot(&dir2, &merged).expect("snapshot write");
    for entry in std::fs::read_dir(&dir).expect("read_dir") {
        let name = entry.expect("entry").file_name();
        assert_eq!(
            std::fs::read(dir.join(&name)).unwrap(),
            std::fs::read(dir2.join(&name)).unwrap(),
            "snapshot write of {name:?} is not byte-deterministic"
        );
    }
    let back = read_sharded_snapshot(&dir).expect("snapshot read");
    assert!(back == merged, "snapshot round trip diverged");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);

    // --- Delta-seeding contract (gated: it runs two adaptive sweeps) --
    let delta_gate = std::env::var("BENCH_SNAPSHOT_DELTA_GATE").is_ok();
    let (mut delta_fresh_targets, mut delta_targets) = (0u64, 0u64);
    if delta_gate {
        let z64 = targets::zn(&seeds.caida, 64);
        let initial =
            targets::synthesize::synthesize("bench-r0", &z64, targets::IidStrategy::FixedIid);
        let acfg = AdaptiveConfig {
            vantages: vec![0, 2],
            probe_budget: 2_000_000,
            round_targets: 4_096,
            shards: 2,
            max_rounds: 3,
            min_yield_per_kprobes: 0.5,
            patience: 1,
            delta_seeding: Some(DeltaSeedConfig { canary_targets: 64 }),
            ..AdaptiveConfig::default()
        };
        let fresh = run_adaptive_parallel(&topo, &initial, &acfg);
        let prior = ShardedTraceSet::from_set(&fresh.merged_traces(), shards);
        let delta = run_adaptive_delta(&topo, &initial, &acfg, &prior, true);
        delta_fresh_targets = fresh.rounds.iter().map(|r| r.targets).sum();
        delta_targets = delta.rounds.iter().map(|r| r.targets).sum();
        println!(
            "  delta gate        : fresh {} targets / {} ifaces vs delta {} targets / {} ifaces",
            delta_fresh_targets,
            fresh.unique_interfaces(),
            delta_targets,
            delta.unique_interfaces()
        );
        if delta_targets >= delta_fresh_targets {
            eprintln!(
                "FAIL: delta sweep against an unchanged snapshot probed {delta_targets} \
                 targets, not fewer than the fresh sweep's {delta_fresh_targets}"
            );
            std::process::exit(1);
        }
        if delta.unique_interfaces() != fresh.unique_interfaces() {
            eprintln!(
                "FAIL: delta sweep found {} unique interfaces, fresh found {}",
                delta.unique_interfaces(),
                fresh.unique_interfaces()
            );
            std::process::exit(1);
        }
        println!("  delta gate        : OK (strictly fewer targets, equal discovery)");
    }

    // Hand-rolled JSON: the workspace's serde is a no-op shim.
    let json = format!(
        "{{\n  \"bench\": \"shard_snapshot_pps\",\n  \"scenario\": \"tiled({tiles}) combined-z64, {n_sets} campaigns, {shards} shards\",\n  \"traces\": {n_traces},\n  \"flat\": {{ \"elapsed_s\": {:.6}, \"traces_per_s\": {:.0} }},\n  \"sharded\": {{ \"elapsed_s\": {:.6}, \"traces_per_s\": {:.0} }},\n  \"speedup\": {:.3},\n  \"snapshot_bytes\": {bytes_on_disk},\n  \"snapshot_write_s\": {:.6},\n  \"snapshot_read_s\": {:.6},\n  \"delta_fresh_targets\": {delta_fresh_targets},\n  \"delta_targets\": {delta_targets}\n}}\n",
        flat.elapsed_s,
        flat.per_s,
        sharded.elapsed_s,
        sharded.per_s,
        speedup,
        write.elapsed_s,
        read.elapsed_s,
    );
    let path = "BENCH_snapshot.json";
    std::fs::write(path, json).expect("write BENCH_snapshot.json");
    println!("  wrote {path}");

    if let Some(min) = env_gate("BENCH_SNAPSHOT_MIN_SPEEDUP") {
        if speedup < min {
            eprintln!("FAIL: sharded/flat merge_all {speedup:.2}x below required {min:.2}x");
            std::process::exit(1);
        }
        println!("  speedup gate      : {speedup:.2}x >= {min:.2}x OK");
    }
}
