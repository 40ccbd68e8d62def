//! End-to-end hot-path throughput: probes/second through the full
//! probe → engine → decode → record pipeline, for both the
//! template/buffer-reuse hot path and the naive build-per-probe
//! reference, plus the locality gap underneath both: the same probes
//! straight into a path-warm engine in permutation order and in
//! target-major order. Writes `BENCH_hotpath.json` so the performance
//! trajectory is tracked PR over PR.
//!
//! `BEHOLDER_SCALE` sizes the scenario. Unset means `tiny` (21 536
//! probes, everything cache-resident: the PR smoke run and the
//! committed baseline); `small` leaves the cache, and is what the
//! weekly trend job runs.

use simnet::config::TopologyConfig;
use simnet::{Delivery, Engine, Scale, Topology};
use std::hint::black_box;
use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::Instant;
use v6packet::probe::ProbeTemplate;
use yarrp6::perm::Permutation;
use yarrp6::yarrp::{self, YarrpConfig};

struct Measurement {
    probes: u64,
    elapsed_s: f64,
    pps: f64,
}

fn measure<F: FnMut(&mut Engine) -> u64>(
    topo: &Arc<Topology>,
    reps: usize,
    mut f: F,
) -> Measurement {
    let mut best_pps = 0.0f64;
    let mut probes = 0u64;
    let mut best_elapsed = f64::INFINITY;
    for _ in 0..reps {
        let mut engine = Engine::new(topo.clone());
        let t0 = Instant::now();
        let n = f(&mut engine);
        let dt = t0.elapsed().as_secs_f64();
        let pps = n as f64 / dt;
        if pps > best_pps {
            best_pps = pps;
            best_elapsed = dt;
            probes = n;
        }
    }
    Measurement {
        probes,
        elapsed_s: best_elapsed,
        pps: best_pps,
    }
}

/// Best-of-`reps` ns/probe of render + inject over every `(target,
/// TTL)` pair, in permutation order and in target-major order, on one
/// engine that has already resolved every path. No prober, no
/// lookahead: what the order alone costs through memory.
fn order_ns_per_probe(
    topo: &Arc<Topology>,
    targets: &[Ipv6Addr],
    cfg: &YarrpConfig,
    reps: usize,
) -> (f64, f64) {
    let src = topo.vantages[0].addr;
    let ttl_span = cfg.max_ttl as u64;
    let n = targets.len() as u64 * ttl_span;
    let interval_us = 1_000_000 / cfg.rate_pps.max(1);
    let mut templates: Vec<ProbeTemplate> = targets
        .iter()
        .map(|&t| ProbeTemplate::new(src, t, cfg.protocol, cfg.instance))
        .collect();
    // Both orders are materialised, so neither pays for computing it.
    let permuted: Vec<u64> = Permutation::new(n, cfg.perm_seed).iter().collect();
    let major: Vec<u64> = (0..n).collect();
    let mut engine = Engine::new(topo.clone());
    let mut out = Delivery::default();
    let mut sweep = |engine: &mut Engine, order: &[u64]| {
        engine.reset();
        let t0 = Instant::now();
        for (i, &v) in order.iter().enumerate() {
            let now_us = i as u64 * interval_us;
            let wire =
                templates[(v / ttl_span) as usize].render((v % ttl_span) as u8 + 1, now_us as u32);
            black_box(engine.inject_into(wire, now_us, &mut out));
        }
        t0.elapsed().as_secs_f64() * 1e9 / n as f64
    };
    sweep(&mut engine, &major); // resolves every path
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        best.0 = best.0.min(sweep(&mut engine, &permuted));
        best.1 = best.1.min(sweep(&mut engine, &major));
    }
    best
}

fn main() {
    let scale = beholder_bench::env_scale(Scale::Tiny);
    let topo = Arc::new(simnet::generate::generate(TopologyConfig::at_scale(
        scale, 7,
    )));
    let targets: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).collect();
    let cfg = YarrpConfig::default();
    let reps = 5;
    println!(
        "hotpath_pps: {scale} scenario, {} targets x {} TTLs, best of {reps} runs",
        targets.len(),
        cfg.max_ttl
    );

    let hot = measure(&topo, reps, |e| {
        yarrp::run(e, 0, &targets, &cfg).probes_sent
    });
    println!(
        "  hot path   : {:>9} probes in {:.3}s  = {:>12.0} pps",
        hot.probes, hot.elapsed_s, hot.pps
    );

    let naive = measure(&topo, reps, |e| {
        yarrp::run_reference(e, 0, &targets, &cfg).probes_sent
    });
    println!(
        "  naive path : {:>9} probes in {:.3}s  = {:>12.0} pps",
        naive.probes, naive.elapsed_s, naive.pps
    );

    let speedup = hot.pps / naive.pps;
    println!("  speedup    : {speedup:.2}x");

    let (permuted_ns, major_ns) = order_ns_per_probe(&topo, &targets, &cfg, 3);
    println!(
        "  path-warm inject, no lookahead: permutation order {permuted_ns:.0} ns/probe, \
         target-major order {major_ns:.0} ns/probe"
    );

    // Hand-rolled JSON: the workspace's serde is a no-op shim.
    let json = format!(
        "{{\n  \"bench\": \"hotpath_pps\",\n  \"scenario\": \"{scale}\",\n  \"targets\": {},\n  \"max_ttl\": {},\n  \"probes\": {},\n  \"hot\": {{ \"elapsed_s\": {:.6}, \"pps\": {:.0} }},\n  \"naive\": {{ \"elapsed_s\": {:.6}, \"pps\": {:.0} }},\n  \"speedup\": {:.3},\n  \"path_warm_permutation_order_ns_per_probe\": {permuted_ns:.1},\n  \"path_warm_target_major_order_ns_per_probe\": {major_ns:.1}\n}}\n",
        targets.len(),
        cfg.max_ttl,
        hot.probes,
        hot.elapsed_s,
        hot.pps,
        naive.elapsed_s,
        naive.pps,
        speedup
    );
    let path = "BENCH_hotpath.json";
    std::fs::write(path, json).expect("write BENCH_hotpath.json");
    println!("  wrote {path}");
}
