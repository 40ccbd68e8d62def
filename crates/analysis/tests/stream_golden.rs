//! Golden + property equivalence for the streaming pipeline: a
//! campaign streamed chunk-by-chunk through [`TraceSetBuilder`] must
//! produce a `TraceSet` **bit-identical** (interner ids included — the
//! `PartialEq` on `TraceSet` compares the raw columns) to the batch
//! path `TraceSet::from_log(&run_campaign(..).log)`, across every
//! probe protocol, fill mode, neighborhood mode, and middlebox
//! rewriting — and on adversarial synthetic record streams with
//! arbitrary chunk boundaries.

use analysis::{stream_campaigns_supervised, CampaignRunner, TraceSet, TraceSetBuilder};
use proptest::prelude::*;
use simnet::config::TopologyConfig;
use simnet::{EngineStats, Topology};
use std::net::Ipv6Addr;
use std::sync::Arc;
use targets::TargetSet;
use v6packet::probe::Protocol;
use yarrp6::campaign::{run_campaign, CampaignSpec, RetryPolicy};
use yarrp6::sink::StreamConfig;
use yarrp6::yarrp::Neighborhood;
use yarrp6::{ProbeLog, ResponseRecord, YarrpConfig};

fn fixture(seed: u64) -> (Arc<Topology>, TargetSet) {
    let topo = Arc::new(simnet::generate::generate(TopologyConfig::tiny(seed)));
    let addrs: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(250).collect();
    let set = TargetSet::new("stream-golden", addrs);
    (topo, set)
}

/// Batch comparator: the full-log pipeline the streaming path must
/// reproduce.
fn batch(topo: &Arc<Topology>, v: u8, set: &TargetSet, cfg: &YarrpConfig) -> TraceSet {
    TraceSet::from_log(&run_campaign(topo, v, set, cfg).log)
}

/// The streaming path under test: one campaign through the runner.
fn stream_campaign(
    topo: &Arc<Topology>,
    v: u8,
    set: &TargetSet,
    cfg: &YarrpConfig,
    stream: &StreamConfig,
) -> (TraceSet, EngineStats) {
    let run = CampaignRunner::new(topo)
        .targets(set)
        .vantage(v)
        .config(*cfg)
        .streaming(*stream)
        .run()
        .expect("clean campaign completes")
        .runs
        .remove(0);
    (run.traces, run.stats)
}

#[test]
fn streamed_campaigns_match_batch_all_protocols() {
    for (i, proto) in [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp]
        .into_iter()
        .enumerate()
    {
        let (topo, set) = fixture(3100 + i as u64);
        let v = (i % 3) as u8;
        for vary in [false, true] {
            let cfg = YarrpConfig {
                protocol: proto,
                vary_flow_label: vary,
                ..Default::default()
            };
            // A tiny chunk size exercises many channel round-trips.
            let stream = StreamConfig {
                chunk_records: 64,
                channel_chunks: 2,
            };
            let (streamed, stats) = stream_campaign(&topo, v, &set, &cfg, &stream);
            assert_eq!(
                streamed,
                batch(&topo, v, &set, &cfg),
                "stream != batch (proto {proto:?}, vary {vary})"
            );
            assert_eq!(
                stats,
                run_campaign(&topo, v, &set, &cfg).engine_stats,
                "engine stats diverged (proto {proto:?}, vary {vary})"
            );
        }
    }
}

#[test]
fn streamed_fill_and_neighborhood_match_batch() {
    let (topo, set) = fixture(3177);
    let cfgs = [
        YarrpConfig {
            max_ttl: 4,
            fill_mode: true,
            ..Default::default()
        },
        YarrpConfig {
            neighborhood: Some(Neighborhood {
                max_ttl: 4,
                window_us: 2_000_000,
            }),
            ..Default::default()
        },
    ];
    for cfg in cfgs {
        let stream = StreamConfig {
            chunk_records: 17, // deliberately odd: chunk seams everywhere
            channel_chunks: 3,
        };
        let (streamed, _) = stream_campaign(&topo, 1, &set, &cfg, &stream);
        assert_eq!(streamed, batch(&topo, 1, &set, &cfg));
    }
}

#[test]
fn parallel_streamed_sweep_matches_batch_sets() {
    let (topo, set) = fixture(3204);
    let cfg = YarrpConfig::default();
    let specs: Vec<CampaignSpec> = (0..3u8)
        .map(|v| CampaignSpec {
            vantage_idx: v,
            set: &set,
            cfg,
        })
        .collect();
    let results = stream_campaigns_supervised(
        &topo,
        &specs,
        &StreamConfig::default(),
        &RetryPolicy::NONE,
        0,
        true,
    );
    assert_eq!(results.len(), 3);
    for (v, sc) in results.iter().enumerate() {
        let ts = sc.output().expect("clean campaign completes");
        let b = run_campaign(&topo, v as u8, &set, &cfg);
        assert_eq!(*ts, TraceSet::from_log(&b.log), "vantage {v}");
        assert_eq!(sc.stats, b.engine_stats, "vantage {v}");
        assert_eq!(&*ts.vantage, &*b.log.vantage, "vantage name {v}");
        assert_eq!(&*ts.target_set, "stream-golden");
    }
}

/// Every response class the decoder produces, checksum failures
/// included.
fn synth_record(w: u64, recv_us: u64) -> ResponseRecord {
    testkit::fixtures::synth_record(w, recv_us, true)
}

proptest! {
    /// Chunked streaming ingestion — random records, random chunk
    /// sizes — is bit-identical to the batch pipeline (receive-sort
    /// then `from_log`), interner ids and all.
    #[test]
    fn chunked_ingestion_matches_batch_from_log(
        draws in prop::collection::vec((any::<u64>(), 0u64..50_000), 0..600),
        chunk_size in 1usize..80,
    ) {
        let records: Vec<ResponseRecord> =
            draws.iter().map(|&(w, recv)| synth_record(w, recv)).collect();

        let mut log = ProbeLog {
            vantage: "stream-prop".into(),
            target_set: "prop-set".into(),
            records: records.clone(),
            ..Default::default()
        };
        log.sort_by_recv();
        let want = TraceSet::from_log(&log);

        let mut builder = TraceSetBuilder::new()
            .with_identity("stream-prop".into(), "prop-set".into());
        for chunk in records.chunks(chunk_size) {
            builder.push_chunk(chunk);
        }
        prop_assert_eq!(builder.records_seen(), records.len() as u64);
        let got = builder.finish();
        prop_assert!(got == want, "builder != batch from_log (chunk {})", chunk_size);
    }

    /// The same with receive times that collide all the time: hop and
    /// unreachable rows of different responders and targets share them,
    /// and only ingestion order — the batch sort is stable — says which
    /// responder was seen first, which row of a (target, TTL) wins, and
    /// how a target's unreachables line up.
    #[test]
    fn tied_receive_times_resolve_by_ingestion_order(
        draws in prop::collection::vec((any::<u64>(), 0u64..8), 0..600),
        chunk_size in 1usize..80,
    ) {
        let records: Vec<ResponseRecord> =
            draws.iter().map(|&(w, recv)| synth_record(w, recv)).collect();
        let mut log = ProbeLog {
            records: records.clone(),
            ..Default::default()
        };
        log.sort_by_recv();
        let mut builder = TraceSetBuilder::new();
        for chunk in records.chunks(chunk_size) {
            builder.push_chunk(chunk);
        }
        prop_assert!(builder.finish() == TraceSet::from_log(&log), "chunk {}", chunk_size);
    }

    /// Splitting one stream at an arbitrary seam never changes the
    /// result: prefix+suffix ingestion equals whole-stream ingestion.
    #[test]
    fn chunk_seams_are_invisible(
        draws in prop::collection::vec((any::<u64>(), 0u64..10_000), 1..200),
        seam_frac in 0u32..100,
    ) {
        let records: Vec<ResponseRecord> =
            draws.iter().map(|&(w, recv)| synth_record(w, recv)).collect();
        let seam = (records.len() * seam_frac as usize) / 100;

        let mut whole = TraceSetBuilder::new();
        whole.push_chunk(&records);

        let mut split = TraceSetBuilder::new();
        split.push_chunk(&records[..seam]);
        split.push_chunk(&records[seam..]);

        prop_assert!(whole.finish() == split.finish(), "seam at {}", seam);
    }
}
