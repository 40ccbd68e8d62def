//! A multi-vantage, multi-set probing campaign — a miniature of the
//! paper's Table 7 grid — driven through the unified
//! [`CampaignRunner`] builder (one runner per target set, all
//! vantages in parallel, streaming trace assembly).
//!
//! ```sh
//! cargo run --release --example campaign
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

    println!(
        "{:<12} {:<10} {:>8} {:>9} {:>7} {:>8}",
        "set", "vantage", "probes", "intaddrs", "reach%", "pathlen"
    );
    let mut all = std::collections::BTreeSet::new();
    let mut campaigns = 0usize;
    for set in &sets {
        // One builder call replaces the spec-vector + driver-function
        // dance; each vantage's campaign streams into its own trace
        // builder on the work-queue pool.
        let outcome = CampaignRunner::new(&topo)
            .targets(set)
            .vantages(&vantages)
            .parallel(true)
            .run()
            .expect("campaign failed");
        for run in &outcome.runs {
            let reached = run
                .traces
                .iter()
                .filter(|t| t.reached_at().is_some())
                .count();
            let mut lens: Vec<u8> = run.traces.iter().filter_map(|t| t.path_len()).collect();
            lens.sort_unstable();
            let median = lens.get(lens.len() / 2).copied().unwrap_or(0);
            println!(
                "{:<12} {:<10} {:>8} {:>9} {:>6.1}% {:>8}",
                &*set.name,
                &*topo.vantages[run.vantage_idx as usize].name,
                run.stats.probes,
                run.traces.interface_addrs().len(),
                100.0 * reached as f64 / set.len().max(1) as f64,
                median,
            );
            campaigns += 1;
        }
        // The outcome's union is merged deterministically in vantage
        // order — the paper's union-of-vantages yield per set.
        all.extend(outcome.merged().interface_addrs());
    }

    // Union across everything: the paper's ALL row.
    println!(
        "\nTotal unique interfaces across {} campaigns: {}",
        campaigns,
        all.len()
    );
}
