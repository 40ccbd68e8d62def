//! Receive-side analysis throughput: records/second through trace
//! reconstruction and subnet inference, columnar pipeline vs the kept
//! map-based reference. Writes `BENCH_analysis.json` so the performance
//! trajectory is tracked PR over PR; set `BENCH_ANALYSIS_MIN_SPEEDUP`
//! (e.g. in CI) to fail the run when either speedup drops below the
//! threshold, and `BENCH_ANALYSIS_TILES` to shrink/grow the workload.
//!
//! Workload: real `combined-z64` campaigns (synthesized /64 targets —
//! like the paper's, almost all responses are router Time-Exceededs)
//! from all three vantages, tiled with target-shifted replicas to
//! production scale and shuffled into the unordered arrival a stateless
//! prober actually sees. Inference runs on the real per-vantage traces.

use analysis::{discover_by_path_div, ia_hack, reference, AsnResolver, PathDivParams, TraceSet};
use beholder_bench::{env_gate, env_or};
use simnet::config::TopologyConfig;
use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::Instant;
use v6addr::Asn;
use yarrp6::campaign::run_campaign;
use yarrp6::{ProbeLog, YarrpConfig};

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

#[inline]
fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn main() {
    let tiles = env_or::<u128>("BENCH_ANALYSIS_TILES", 64);
    let topo = Arc::new(simnet::generate::generate(TopologyConfig::tiny(7)));
    let seeds = seeds::sources::SeedCatalog::synthesize(&topo, 7);
    let catalog = targets::TargetCatalog::build(&seeds, targets::IidStrategy::FixedIid);
    let set = catalog.get("combined-z64").expect("combined-z64");
    let cfg = YarrpConfig::default();

    // One campaign per vantage. Inference is measured on these real
    // logs; reconstruction on the tiled + shuffled merge.
    let logs: Vec<ProbeLog> = (0..3u8)
        .map(|v| run_campaign(&topo, v, set, &cfg).log)
        .collect();
    let mut merged = ProbeLog {
        vantage: "ALL".into(),
        target_set: set.name.clone(),
        ..Default::default()
    };
    for log in &logs {
        for k in 0..tiles {
            merged.records.extend(log.records.iter().map(|r| {
                let mut r = *r;
                // Distinct destinations per tile; shared router
                // interfaces, as on a real backbone.
                r.target = Ipv6Addr::from(u128::from(r.target) ^ (k << 64));
                r
            }));
        }
    }
    // Fisher–Yates with a fixed seed: stateless responses arrive in no
    // useful order.
    let mut rng = 0x1badb002u64;
    for i in (1..merged.records.len()).rev() {
        let j = (splitmix(&mut rng) % (i as u64 + 1)) as usize;
        merged.records.swap(i, j);
    }
    let n_records = merged.records.len() as u64;
    let reps = 5;
    println!(
        "trace_analysis_pps: combined-z64 x{tiles} tiles, {} base targets, {n_records} records, best of {reps}",
        set.len()
    );

    // --- Trace reconstruction -----------------------------------------
    let recon_new = measure(n_records, reps, || TraceSet::from_log(&merged));
    let recon_ref = measure(n_records, reps, || reference::TraceSet::from_log(&merged));
    let recon_speedup = recon_new.per_s / recon_ref.per_s;
    println!(
        "  reconstruction: columnar {:>12.0} rec/s | reference {:>12.0} rec/s | {recon_speedup:.2}x",
        recon_new.per_s, recon_ref.per_s
    );

    // --- Subnet inference (path divergence + IA hack) ------------------
    let resolver = AsnResolver::new(
        topo.bgp.clone(),
        topo.rir_extra.clone(),
        &topo.asn_equivalences,
    );
    let params = PathDivParams::default();
    let vasns: Vec<Asn> = (0..3)
        .map(|v| topo.ases[topo.vantages[v].as_idx as usize].asn)
        .collect();
    let col_sets: Vec<TraceSet> = logs.iter().map(TraceSet::from_log).collect();
    let ref_sets: Vec<reference::TraceSet> =
        logs.iter().map(reference::TraceSet::from_log).collect();
    let infer_units: u64 = logs.iter().map(|l| l.records.len() as u64).sum();

    let infer_new = measure(infer_units, reps, || {
        col_sets
            .iter()
            .zip(&vasns)
            .map(|(ts, &vasn)| {
                discover_by_path_div(ts, &resolver, vasn, &params).len() + ia_hack(ts).len()
            })
            .sum::<usize>()
    });
    let infer_ref = measure(infer_units, reps, || {
        ref_sets
            .iter()
            .zip(&vasns)
            .map(|(ts, &vasn)| {
                reference::discover_by_path_div(ts, &resolver, vasn, &params).len()
                    + reference::ia_hack(ts).len()
            })
            .sum::<usize>()
    });
    let infer_speedup = infer_new.per_s / infer_ref.per_s;
    println!(
        "  subnet infer  : columnar {:>12.0} rec/s | reference {:>12.0} rec/s | {infer_speedup:.2}x",
        infer_new.per_s, infer_ref.per_s
    );

    // Sanity: the two pipelines agree (the golden tests pin this; the
    // bench double-checks the exact workload it timed).
    for ((ts, rs), &vasn) in col_sets.iter().zip(&ref_sets).zip(&vasns) {
        assert_eq!(
            discover_by_path_div(ts, &resolver, vasn, &params),
            reference::discover_by_path_div(rs, &resolver, vasn, &params),
            "pipelines diverged on the benched workload"
        );
    }

    // Hand-rolled JSON: the workspace's serde is a no-op shim.
    let json = format!(
        "{{\n  \"bench\": \"trace_analysis_pps\",\n  \"scenario\": \"tiny combined-z64 x{tiles}\",\n  \"targets\": {},\n  \"records\": {},\n  \"reconstruction\": {{\n    \"columnar\": {{ \"elapsed_s\": {:.6}, \"records_per_s\": {:.0} }},\n    \"reference\": {{ \"elapsed_s\": {:.6}, \"records_per_s\": {:.0} }},\n    \"speedup\": {:.3}\n  }},\n  \"subnet_inference\": {{\n    \"columnar\": {{ \"elapsed_s\": {:.6}, \"records_per_s\": {:.0} }},\n    \"reference\": {{ \"elapsed_s\": {:.6}, \"records_per_s\": {:.0} }},\n    \"speedup\": {:.3}\n  }}\n}}\n",
        set.len() as u128 * tiles,
        n_records,
        recon_new.elapsed_s,
        recon_new.per_s,
        recon_ref.elapsed_s,
        recon_ref.per_s,
        recon_speedup,
        infer_new.elapsed_s,
        infer_new.per_s,
        infer_ref.elapsed_s,
        infer_ref.per_s,
        infer_speedup,
    );
    let path = "BENCH_analysis.json";
    std::fs::write(path, json).expect("write BENCH_analysis.json");
    println!("  wrote {path}");

    if let Some(min) = env_gate("BENCH_ANALYSIS_MIN_SPEEDUP") {
        let worst = recon_speedup.min(infer_speedup);
        if worst < min {
            eprintln!("FAIL: speedup {worst:.2}x below required {min:.2}x");
            std::process::exit(1);
        }
        println!("  speedup gate: {worst:.2}x >= {min:.2}x OK");
    }
}
