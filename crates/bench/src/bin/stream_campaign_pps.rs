//! Streaming-pipeline throughput: end-to-end campaign → trace-set
//! records/second for the streaming path (prober and incremental
//! `TraceSetBuilder` running concurrently over the bounded chunk
//! channel) against the batch path (buffer the full `ProbeLog`, then
//! `TraceSet::from_log`). Writes `BENCH_stream.json` so the
//! trajectory is tracked PR over PR.
//!
//! Alongside throughput it reports the **peak record-memory proxy** of
//! each path: the batch path must hold every `ResponseRecord` of a
//! campaign at once, while the streaming path holds at most the
//! bounded channel's chunks plus the builder's classified rows
//! (`TraceSetBuilder::ROW_BYTES` each). (A proxy, not RSS: both paths
//! also build the identical columnar output, which is excluded from
//! the comparison.)
//!
//! Env knobs:
//! * `BEHOLDER_SCALE` — topology/workload scale (`tiny` | `small` |
//!   `full`; default `small`, the experiment-binary default — CI's
//!   smoke gate sets `tiny`)
//! * `BENCH_STREAM_VANTAGES` — campaigns per measurement (default 3)
//! * `BENCH_STREAM_REPS` — best-of repetitions (default 3)
//! * `BENCH_STREAM_CHUNK` — records per streamed chunk (default 4096)
//! * `BENCH_STREAM_MIN_RATIO` — fail when streaming/batch end-to-end
//!   throughput drops below this (the CI regression gate)

use analysis::{CampaignRunner, TraceSet};
use beholder_bench::{env_gate, env_or};
use simnet::config::TopologyConfig;
use simnet::{EngineStats, Topology};
use std::sync::Arc;
use std::time::Instant;
use targets::TargetSet;
use yarrp6::campaign::run_campaign;
use yarrp6::sink::StreamConfig;
use yarrp6::{ResponseKind, ResponseRecord, YarrpConfig};

/// The streaming path under measurement: one campaign through the
/// runner (prober → bounded channel → `TraceSetBuilder`).
fn stream_campaign(
    topo: &Arc<Topology>,
    vantage: u8,
    set: &TargetSet,
    cfg: &YarrpConfig,
    stream: &StreamConfig,
) -> (TraceSet, EngineStats) {
    let run = CampaignRunner::new(topo)
        .targets(set)
        .vantage(vantage)
        .config(*cfg)
        .streaming(*stream)
        .run()
        .expect("a campaign on a fault-free network cannot fail")
        .runs
        .remove(0);
    (run.traces, run.stats)
}

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

/// Records that become classified rows in the builder (the rest fold
/// into counters immediately).
fn classified_rows(records: &[ResponseRecord]) -> usize {
    records
        .iter()
        .filter(|r| {
            r.target_cksum_ok
                && r.probe_ttl.is_some()
                && match r.kind {
                    ResponseKind::TimeExceeded => true,
                    ResponseKind::DestUnreachable(c) => {
                        c != v6packet::icmp6::DestUnreachCode::PortUnreachable
                    }
                    _ => false,
                }
        })
        .count()
}

fn main() {
    let scale = beholder_bench::env_scale(simnet::Scale::Small);
    let vantages = env_or::<usize>("BENCH_STREAM_VANTAGES", 3).clamp(1, 3) as u8;
    let reps = env_or::<usize>("BENCH_STREAM_REPS", 3).max(1);

    let topo = Arc::new(simnet::generate::generate(TopologyConfig::at_scale(
        scale, 7,
    )));
    let seeds = seeds::sources::SeedCatalog::synthesize(&topo, 7);
    let catalog = targets::TargetCatalog::build(&seeds, targets::IidStrategy::FixedIid);
    let set = catalog.get("combined-z64").expect("combined-z64");
    let cfg = YarrpConfig::default();
    let stream = StreamConfig {
        chunk_records: env_or::<usize>("BENCH_STREAM_CHUNK", 4096).max(1),
        ..Default::default()
    };

    // Workload accounting (and the memory proxy) from one batch pass.
    let batch_runs: Vec<_> = (0..vantages)
        .map(|v| run_campaign(&topo, v, set, &cfg))
        .collect();
    let n_records: u64 = batch_runs.iter().map(|r| r.log.records.len() as u64).sum();
    let n_probes: u64 = batch_runs.iter().map(|r| r.log.probes_sent).sum();
    let rec_size = std::mem::size_of::<ResponseRecord>();
    // Peak per-campaign record buffering: the batch path holds one
    // campaign's full log; the streaming path holds the channel's
    // chunks plus the builder's classified rows.
    let batch_peak_bytes = batch_runs
        .iter()
        .map(|r| r.log.records.len() * rec_size)
        .max()
        .unwrap_or(0);
    let stream_peak_bytes = stream.max_buffered_records() * rec_size
        + batch_runs
            .iter()
            .map(|r| classified_rows(&r.log.records) * analysis::TraceSetBuilder::ROW_BYTES)
            .max()
            .unwrap_or(0);
    println!(
        "stream_campaign_pps: {scale:?} combined-z64, {} targets, {vantages} vantage(s), \
         {n_probes} probes -> {n_records} records, best of {reps}",
        set.len()
    );

    // --- Batch: probe (full log) then analyze -------------------------
    let batch = measure(n_records, reps, || {
        (0..vantages)
            .map(|v| {
                let res = run_campaign(&topo, v, set, &cfg);
                let ts = TraceSet::from_log(&res.log);
                (ts.len(), res.engine_stats.probes)
            })
            .fold((0usize, 0u64), |a, b| (a.0 + b.0, a.1 + b.1))
    });
    println!(
        "  batch path : {n_records:>9} records in {:.3}s  = {:>12.0} rec/s end-to-end",
        batch.elapsed_s, batch.per_s
    );

    // --- Streaming: probe -> bounded channel -> builder, overlapped ---
    let streaming = measure(n_records, reps, || {
        (0..vantages)
            .map(|v| {
                let (ts, stats) = stream_campaign(&topo, v, set, &cfg, &stream);
                (ts.len(), stats.probes)
            })
            .fold((0usize, 0u64), |a, b| (a.0 + b.0, a.1 + b.1))
    });
    println!(
        "  streaming  : {n_records:>9} records in {:.3}s  = {:>12.0} rec/s end-to-end",
        streaming.elapsed_s, streaming.per_s
    );

    let speedup = streaming.per_s / batch.per_s;
    let mem_ratio = batch_peak_bytes as f64 / (stream_peak_bytes.max(1)) as f64;
    println!("  speedup    : {speedup:.2}x end-to-end");
    println!(
        "  peak record memory: batch {batch_peak_bytes} B vs streaming {stream_peak_bytes} B \
         ({mem_ratio:.1}x smaller)"
    );

    // Sanity on the exact benched workload: the streamed sets are
    // bit-identical to the batch sets (the golden/property tests pin
    // this; the bench re-checks what it timed), and the engines agree.
    for (v, b) in batch_runs.iter().enumerate() {
        let (ts, stats) = stream_campaign(&topo, v as u8, set, &cfg, &stream);
        assert_eq!(
            ts,
            TraceSet::from_log(&b.log),
            "streaming diverged from batch on vantage {v}"
        );
        assert_eq!(
            stats, b.engine_stats,
            "engine stats diverged on vantage {v}"
        );
    }
    let merged = EngineStats::merged(batch_runs.iter().map(|r| &r.engine_stats));
    assert_eq!(merged.probes, n_probes);

    // Hand-rolled JSON: the workspace's serde is a no-op shim.
    let json = format!(
        "{{\n  \"bench\": \"stream_campaign_pps\",\n  \"scenario\": \"{scale:?} combined-z64, {vantages} vantage(s)\",\n  \"targets\": {},\n  \"probes\": {n_probes},\n  \"records\": {n_records},\n  \"batch\": {{ \"elapsed_s\": {:.6}, \"records_per_s\": {:.0}, \"peak_record_bytes\": {batch_peak_bytes} }},\n  \"streaming\": {{ \"elapsed_s\": {:.6}, \"records_per_s\": {:.0}, \"peak_record_bytes\": {stream_peak_bytes} }},\n  \"speedup\": {:.3},\n  \"peak_memory_ratio\": {:.1}\n}}\n",
        set.len(),
        batch.elapsed_s,
        batch.per_s,
        streaming.elapsed_s,
        streaming.per_s,
        speedup,
        mem_ratio,
    );
    let path = "BENCH_stream.json";
    std::fs::write(path, json).expect("write BENCH_stream.json");
    println!("  wrote {path}");

    if let Some(min) = env_gate("BENCH_STREAM_MIN_RATIO") {
        if speedup < min {
            eprintln!("FAIL: streaming/batch throughput {speedup:.2}x below required {min:.2}x");
            std::process::exit(1);
        }
        println!("  throughput gate: {speedup:.2}x >= {min:.2}x OK");
    }
}
