//! A multi-vantage, multi-set sweep on the **streaming** pipeline:
//! every campaign's records flow straight from the prober into an
//! incremental trace builder over a bounded channel, so no campaign
//! ever materializes its `ProbeLog` — the sweep's record memory is
//! bounded by the channel, not by the workload.
//!
//! ```sh
//! cargo run --release --example streaming_campaign
//! ```

use beholder::prelude::*;
use std::sync::Arc;

fn main() {
    let topo = Arc::new(beholder::net::generate::generate(TopologyConfig::tiny(99)));
    let seeds = SeedCatalog::synthesize(&topo, 99);
    let catalog = TargetCatalog::build(&seeds, IidStrategy::FixedIid);

    let set_names = ["caida-z64", "fdns-z64", "cdn-k32-z64", "tum-z64"];
    let sets: Vec<&TargetSet> = set_names.iter().map(|n| catalog.get(n).unwrap()).collect();
    let vantages: Vec<u8> = (0..topo.vantages.len() as u8).collect();

    // One runner per set, all vantages on the work-queue pool; each
    // worker streams its prober into a per-campaign TraceSetBuilder
    // and hands back the finished columnar TraceSet plus the engine's
    // accounting — `run()` always takes the streaming pipeline, so no
    // campaign ever holds its record log.
    let results: Vec<(TraceSet, EngineStats)> = sets
        .iter()
        .flat_map(|set| {
            CampaignRunner::new(&topo)
                .targets(set)
                .vantages(&vantages)
                .parallel(true)
                .run()
                .expect("campaign failed")
                .runs
                .into_iter()
                .map(|r| (r.traces, r.stats))
        })
        .collect();

    println!(
        "{:<12} {:<10} {:>8} {:>8} {:>9} {:>7}",
        "set", "vantage", "probes", "traces", "intaddrs", "medlen"
    );
    for (ts, stats) in &results {
        // Unique router interfaces: distinct interned hop ids.
        let ifaces: std::collections::BTreeSet<u32> = ts
            .iter()
            .flat_map(|t| t.hop_cells().iter().map(|(_, id)| id))
            .collect();
        let mut lens: Vec<u8> = ts.iter().filter_map(|t| t.path_len()).collect();
        lens.sort_unstable();
        let medlen = lens.get(lens.len() / 2).copied().unwrap_or(0);
        println!(
            "{:<12} {:<10} {:>8} {:>8} {:>9} {:>7}",
            ts.target_set,
            ts.vantage,
            stats.probes,
            ts.len(),
            ifaces.len(),
            medlen,
        );
    }

    // The whole sweep's ground-truth accounting, via the merge helper.
    let total = EngineStats::merged(results.iter().map(|(_, s)| s));
    println!(
        "\n{} campaigns: {} probes, {} responses ({} rate-limited, {} lost)",
        results.len(),
        total.probes,
        total.responses(),
        total.rate_limited,
        total.lost
    );
}
