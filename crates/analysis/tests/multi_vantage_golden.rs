//! Golden equivalence for the multi-vantage orchestration: the
//! streaming sweep ([`CampaignRunner`], serial and parallel) must be
//! **bit-identical** — per
//! vantage, in the merged union (interner ids included, both raw and
//! after canonical re-intern), and in the merged engine accounting —
//! to the batch path (per-vantage `run_campaign` → `from_log` →
//! `TraceSet::merge_all`), across every probe protocol,
//! `vary_flow_label`, fill mode, and neighborhood mode.

use analysis::{CampaignOutcome, CampaignRunner, TraceSet};
use simnet::config::TopologyConfig;
use simnet::{EngineStats, Topology};
use std::net::Ipv6Addr;
use std::sync::Arc;
use targets::TargetSet;
use v6packet::probe::Protocol;
use yarrp6::campaign::run_campaign;
use yarrp6::sink::StreamConfig;
use yarrp6::yarrp::Neighborhood;
use yarrp6::YarrpConfig;

const VANTAGES: [u8; 3] = [0, 1, 2];

fn fixture(seed: u64) -> (Arc<Topology>, TargetSet) {
    let topo = Arc::new(simnet::generate::generate(TopologyConfig::tiny(seed)));
    let addrs: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(200).collect();
    let set = TargetSet::new("mv-golden", addrs);
    (topo, set)
}

/// The batch comparator: per-vantage batch campaigns, merged in
/// vantage order.
fn batch(
    topo: &Arc<Topology>,
    set: &TargetSet,
    cfg: &YarrpConfig,
) -> (TraceSet, Vec<TraceSet>, EngineStats) {
    let per: Vec<(TraceSet, EngineStats)> = VANTAGES
        .iter()
        .map(|&v| {
            let res = run_campaign(topo, v, set, cfg);
            (TraceSet::from_log(&res.log), res.engine_stats)
        })
        .collect();
    let merged = TraceSet::merge_all(per.iter().map(|(ts, _)| ts));
    let stats = EngineStats::merged(per.iter().map(|(_, es)| es));
    (merged, per.into_iter().map(|(ts, _)| ts).collect(), stats)
}

/// The streaming sweep under test.
fn sweep(
    topo: &Arc<Topology>,
    set: &TargetSet,
    cfg: &YarrpConfig,
    stream: &StreamConfig,
    parallel: bool,
) -> CampaignOutcome {
    CampaignRunner::new(topo)
        .targets(set)
        .vantages(&VANTAGES)
        .config(*cfg)
        .streaming(*stream)
        .parallel(parallel)
        .run()
        .expect("clean sweep completes")
}

fn assert_sweep_matches(topo: &Arc<Topology>, set: &TargetSet, cfg: &YarrpConfig, label: &str) {
    let stream = StreamConfig {
        chunk_records: 64, // tiny chunks: many channel round-trips
        channel_chunks: 2,
    };
    let (want_merged, want_per, want_stats) = batch(topo, set, cfg);
    for (mode, sweep) in [
        ("serial", sweep(topo, set, cfg, &stream, false)),
        ("parallel", sweep(topo, set, cfg, &stream, true)),
    ] {
        assert_eq!(sweep.runs.len(), 3, "{label} [{mode}]");
        for (v, (run, want)) in sweep.runs.iter().zip(&want_per).enumerate() {
            assert_eq!(&run.traces, want, "{label} [{mode}] vantage {v} diverged");
        }
        let merged = sweep.merged();
        assert_eq!(
            merged, want_merged,
            "{label} [{mode}] merged union diverged"
        );
        assert_eq!(
            merged.clone().canonical(),
            want_merged.clone().canonical(),
            "{label} [{mode}] canonical forms diverged"
        );
        assert_eq!(
            sweep.stats, want_stats,
            "{label} [{mode}] merged engine stats diverged"
        );
        // The merged identity is the `+`-joined vantage list, and every
        // trace is the one the first vantage holding its target saw.
        assert_eq!(&*merged.vantage, "EU-NET+US-EDU-1+US-EDU-2");
        for t in merged.iter() {
            let owner = sweep.runs.iter().find_map(|r| r.traces.get(t.target()));
            assert!(
                owner.is_some_and(|o| o.same_observations(&t)),
                "{label} [{mode}] trace {} is not its first holder's",
                t.target()
            );
        }
    }
}

#[test]
fn multi_vantage_streaming_matches_batch_all_protocols() {
    for (i, proto) in [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp]
        .into_iter()
        .enumerate()
    {
        let (topo, set) = fixture(4600 + i as u64);
        for vary in [false, true] {
            let cfg = YarrpConfig {
                protocol: proto,
                vary_flow_label: vary,
                ..Default::default()
            };
            assert_sweep_matches(&topo, &set, &cfg, &format!("proto {proto:?} vary {vary}"));
        }
    }
}

#[test]
fn multi_vantage_streaming_matches_batch_fill_and_neighborhood() {
    let (topo, set) = fixture(4677);
    let cfgs = [
        (
            "fill",
            YarrpConfig {
                max_ttl: 4,
                fill_mode: true,
                ..Default::default()
            },
        ),
        (
            "neighborhood",
            YarrpConfig {
                neighborhood: Some(Neighborhood {
                    max_ttl: 4,
                    window_us: 2_000_000,
                }),
                ..Default::default()
            },
        ),
    ];
    for (label, cfg) in cfgs {
        assert_sweep_matches(&topo, &set, &cfg, label);
    }
}

/// The union must actually union: the merged set's interface count is
/// at least every single vantage's, and its interner covers every
/// per-vantage discovery.
#[test]
fn merged_union_covers_every_vantage() {
    let (topo, set) = fixture(4712);
    let sweep = sweep(
        &topo,
        &set,
        &YarrpConfig::default(),
        &StreamConfig::default(),
        true,
    );
    let union = analysis::vantage_union_count(sweep.runs.iter().map(|r| &r.traces));
    let merged = sweep.merged();
    for ts in sweep.runs.iter().map(|r| &r.traces) {
        assert!(ts.interface_words().len() as u64 <= union);
        for w in ts.interner().words() {
            assert!(
                merged.interner().lookup(Ipv6Addr::from(*w)).is_some(),
                "merged interner missing a per-vantage discovery"
            );
        }
    }
}
