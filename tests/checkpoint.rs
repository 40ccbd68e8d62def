//! Checkpoint/resume contracts of the adaptive loop (tier-1):
//!
//! * **kill-and-resume is invisible** — resuming from *any*
//!   round-boundary checkpoint reproduces the uninterrupted run's
//!   final merged trace set, stats, reports and stop reason
//!   bit-identically (fault-free and under injected faults alike);
//! * **bytes are deterministic** — `to_bytes ∘ from_bytes` is the
//!   identity on the encoding, and truncated/corrupt input is a clean
//!   [`SnapshotError`], never a panic;
//! * **bytes are sealed** — every truncation and every flipped bit is
//!   refused (the trailer checksum catches what no range check can),
//!   older versions are refused by number, and behind the seal the
//!   body decoder accepts only bytes it would write itself;
//! * **foreign checkpoints are refused** — a digest mismatch (other
//!   config, other topology) is [`ResumeError::ConfigMismatch`];
//! * **properties** — seeded small runs pin the round-trip and the
//!   determinism of supervised retries under fuzzed fault schedules.

use analysis::snapshot::write_trace_record;
use analysis::SnapWriter;
use beholder::prelude::*;
use proptest::prelude::*;
use seeds::feedback::FeedbackParams;
use std::net::Ipv6Addr;
use std::sync::{Arc, OnceLock};
use testkit::checkpoint::Pin;
use testkit::fixtures::z64_targets;

fn fixture(faults: FaultSchedule) -> (Arc<Topology>, TargetSet) {
    let tc = TopologyConfig {
        faults,
        ..TopologyConfig::tiled(42, 2)
    };
    z64_targets(tc, 42, |c| &c.caida, "adaptive-r0")
}

fn cfg() -> AdaptiveConfig {
    AdaptiveConfig {
        vantages: vec![0, 2],
        probe_budget: 150_000,
        round_targets: 300,
        shards: 2,
        max_rounds: 3,
        min_yield_per_kprobes: 0.0,
        feedback: FeedbackParams {
            sixgen_budget: 512,
            ..FeedbackParams::default()
        },
        path_div: Some(PathDivParams::default()),
        ..AdaptiveConfig::default()
    }
}

fn assert_same(a: &AdaptiveResult, b: &AdaptiveResult) {
    assert_eq!(a.round_targets, b.round_targets);
    assert_eq!(a.rounds, b.rounds);
    assert!(a.traces == b.traces, "trace sets diverged");
    assert_eq!(a.merged_traces(), b.merged_traces());
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stop, b.stop);
    assert_eq!(
        a.interfaces.iter().collect::<Vec<_>>(),
        b.interfaces.iter().collect::<Vec<_>>()
    );
    assert_eq!(a.subnets, b.subnets);
}

#[test]
fn resume_from_every_round_boundary_is_bit_identical() {
    let (topo, set) = fixture(FaultSchedule::default());
    let cfg = cfg();
    let mut snaps: Vec<Vec<u8>> = Vec::new();
    let full = run_adaptive_checkpointed(&topo, &set, &cfg, false, |ck| {
        snaps.push(ck.to_bytes());
    });
    // One checkpoint per finished round; observing them changes nothing.
    assert_eq!(snaps.len(), full.rounds.len());
    assert_same(
        &full,
        &run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {}),
    );

    for (i, bytes) in snaps.iter().enumerate() {
        let ck = Checkpoint::from_bytes(bytes).expect("checkpoint must deserialize");
        assert_eq!(ck.round(), i + 1);
        assert!(ck.consumed_probes() > 0);
        assert!(ck.interfaces() > 0);
        // Kill-and-resume: serial and parallel drivers both reproduce
        // the uninterrupted run exactly, and the resumed run keeps
        // checkpointing: its observer sees the uninterrupted stream's
        // tail, byte for byte.
        for parallel in [false, true] {
            let mut resumed_snaps: Vec<Vec<u8>> = Vec::new();
            let resumed = resume_adaptive(&topo, &cfg, &ck, parallel, |ck| {
                resumed_snaps.push(ck.to_bytes());
            })
            .expect("resume must be accepted");
            assert_same(&full, &resumed);
            assert!(
                resumed_snaps == snaps[i + 1..],
                "resumed at round {}, parallel = {parallel}: checkpoint stream diverged",
                i + 1
            );
        }
    }
}

#[test]
fn resume_under_faults_is_bit_identical() {
    // The fault-tolerance scenario — vantage 1 of 3 permanently lost
    // mid-run — checkpointed and resumed: degradation state, virtual
    // clock and reallocated budget all survive the snapshot.
    let (topo, set) = fixture(FaultSchedule::default().with_vantage_outage(1, 1_500_000, u64::MAX));
    let cfg = AdaptiveConfig {
        vantages: vec![0, 1, 2],
        vantage_budgeting: true,
        probe_budget: 400_000,
        round_targets: 250,
        retry: RetryPolicy {
            max_retries: 1,
            base_backoff_us: 250_000,
            retry_blackout: true,
        },
        ..cfg()
    };
    let mut snaps: Vec<Vec<u8>> = Vec::new();
    let full = run_adaptive_checkpointed(&topo, &set, &cfg, false, |ck| {
        snaps.push(ck.to_bytes());
    });
    assert!(
        full.rounds
            .iter()
            .any(|r| r.degraded_vantages().contains(&1)),
        "fixture must actually degrade vantage 1"
    );
    for bytes in &snaps {
        let ck = Checkpoint::from_bytes(bytes).unwrap();
        let resumed = resume_adaptive(&topo, &cfg, &ck, false, |_| {}).unwrap();
        assert_same(&full, &resumed);
    }
}

#[test]
fn retained_checkpoint_never_shows_later_rounds() {
    // A capture shares the trace record with the running loop instead
    // of copying it. Hold on to round 1's checkpoint *value* while the
    // loop runs on: nothing later rounds do may show through it.
    let (topo, set) = fixture(FaultSchedule::default());
    let cfg = AdaptiveConfig {
        quarantine_feedback: true,
        alias_resolution: true,
        ..cfg()
    };
    let mut retained: Option<(Checkpoint, Vec<u8>)> = None;
    let full = run_adaptive_checkpointed(&topo, &set, &cfg, false, |ck| {
        if ck.round() == 1 {
            retained = Some((ck.clone(), ck.to_bytes()));
        }
    });
    assert!(full.rounds.len() > 1, "fixture must run past round 1");
    let (ck, bytes_at_round_1) = retained.expect("round 1 was checkpointed");
    assert_eq!(ck.round(), 1);
    assert_eq!(ck.to_bytes(), bytes_at_round_1);
    // Resume borrows the retained value (it is not consumed), twice.
    for parallel in [false, true] {
        let resumed = resume_adaptive(&topo, &cfg, &ck, parallel, |_| {}).expect("resume");
        assert_same(&full, &resumed);
        assert_eq!(
            full.router_level.as_ref().map(|r| &r.graph),
            resumed.router_level.as_ref().map(|r| &r.graph)
        );
        assert_eq!(ck.to_bytes(), bytes_at_round_1);
    }
}

#[test]
fn checkpoint_bytes_round_trip_and_reject_corruption() {
    let (topo, set) = fixture(FaultSchedule::default());
    let cfg = cfg();
    let mut last: Option<Vec<u8>> = None;
    run_adaptive_checkpointed(&topo, &set, &cfg, false, |ck| {
        last = Some(ck.to_bytes());
    });
    let bytes = last.expect("at least one checkpoint");

    // Decode/encode is the identity on the bytes.
    let ck = Checkpoint::from_bytes(&bytes).unwrap();
    assert_eq!(ck.to_bytes(), bytes, "re-encoding must be byte-identical");

    // Truncations fail cleanly at representative cut points.
    for cut in [0, 1, 3, 7, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            Checkpoint::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} must be an error"
        );
    }
    // A stamped-over magic is refused outright.
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        Checkpoint::from_bytes(&bad),
        Err(SnapshotError::BadMagic)
    ));
    // Trailing garbage is not silently ignored.
    let mut long = bytes.clone();
    long.push(0);
    assert!(Checkpoint::from_bytes(&long).is_err());
}

#[test]
fn foreign_checkpoints_are_refused() {
    let (topo, set) = fixture(FaultSchedule::default());
    let cfg = cfg();
    let mut last: Option<Vec<u8>> = None;
    run_adaptive_checkpointed(&topo, &set, &cfg, false, |ck| {
        last = Some(ck.to_bytes());
    });
    let ck = Checkpoint::from_bytes(&last.unwrap()).unwrap();

    // Same topology, different config.
    let other_cfg = AdaptiveConfig {
        rng_seed: 1,
        ..cfg.clone()
    };
    assert_eq!(
        resume_adaptive(&topo, &other_cfg, &ck, false, |_| {}).unwrap_err(),
        ResumeError::ConfigMismatch
    );
    // Same config, different topology (a fault schedule is part of the
    // topology, so it changes the digest too).
    let (other_topo, _) = fixture(FaultSchedule::default().with_vantage_outage(0, 0, 1));
    assert_eq!(
        resume_adaptive(&other_topo, &cfg, &ck, false, |_| {}).unwrap_err(),
        ResumeError::ConfigMismatch
    );
    // The matching pair still resumes.
    assert!(resume_adaptive(&topo, &cfg, &ck, false, |_| {}).is_ok());
}

/// A deliberately small run for the property tests: tiny topology,
/// short rounds, no fill mode — each case stays in the millisecond
/// range.
fn small_run(
    topo_seed: u64,
    faults: FaultSchedule,
    parallel: bool,
    snaps: &mut Vec<Vec<u8>>,
) -> (Arc<Topology>, AdaptiveConfig, AdaptiveResult) {
    let tc = TopologyConfig {
        faults,
        ..TopologyConfig::tiny(topo_seed)
    };
    let topo = Arc::new(beholder::net::generate::generate(tc));
    let addrs: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(30).collect();
    let set = TargetSet::new("adaptive-r0", addrs);
    let cfg = AdaptiveConfig {
        yarrp: YarrpConfig {
            fill_mode: false,
            max_ttl: 8,
            ..YarrpConfig::default()
        },
        vantages: vec![0, 1],
        probe_budget: 20_000,
        round_targets: 30,
        max_rounds: 2,
        min_yield_per_kprobes: 0.0,
        retry: RetryPolicy {
            max_retries: 2,
            base_backoff_us: 300_000,
            retry_blackout: true,
        },
        rng_seed: topo_seed,
        ..AdaptiveConfig::default()
    };
    let res = run_adaptive_checkpointed(&topo, &set, &cfg, parallel, |ck| {
        snaps.push(ck.to_bytes());
    });
    (topo, cfg, res)
}

proptest! {
    /// Checkpoint round-trip: for fuzzed seeds and outage schedules,
    /// every emitted checkpoint survives `to_bytes`/`from_bytes`
    /// byte-identically and resumes to the uninterrupted result.
    #[test]
    fn prop_checkpoint_round_trip(
        topo_seed in 0u64..6,
        outage_at in 0u64..800_000,
    ) {
        // The top quarter of the draw range means "no fault".
        let faults = if outage_at < 600_000 {
            FaultSchedule::default().with_vantage_outage(0, outage_at, u64::MAX)
        } else {
            FaultSchedule::default()
        };
        let mut snaps = Vec::new();
        let (topo, cfg, full) = small_run(topo_seed, faults, false, &mut snaps);
        prop_assert_eq!(snaps.len(), full.rounds.len());
        for bytes in &snaps {
            let ck = Checkpoint::from_bytes(bytes).unwrap();
            prop_assert_eq!(&ck.to_bytes(), bytes);
            let resumed = resume_adaptive(&topo, &cfg, &ck, false, |_| {}).unwrap();
            prop_assert_eq!(&full.round_targets, &resumed.round_targets);
            prop_assert_eq!(&full.rounds, &resumed.rounds);
            prop_assert_eq!(&full.traces, &resumed.traces);
            prop_assert_eq!(&full.stats, &resumed.stats);
            prop_assert_eq!(full.stop, resumed.stop);
        }
    }

    /// Supervised retries stay deterministic under fuzzed fault
    /// schedules: the same seeded outage/flap produces bit-identical
    /// results, serial and parallel alike.
    #[test]
    fn prop_retry_determinism_under_faults(
        topo_seed in 0u64..6,
        from in 0u64..400_000,
        width in 1u64..800_000,
        flap in 0u64..200_000,
    ) {
        let mut faults = FaultSchedule::default().with_vantage_outage(0, from, from.saturating_add(width));
        // Draws above the minimum half-period add a flapping link.
        if flap >= 50_000 {
            faults = faults.with_link_flap(beholder::net::topology::RouterId(0), 0, u64::MAX, flap);
        }
        let mut s1 = Vec::new();
        let mut s2 = Vec::new();
        let mut s3 = Vec::new();
        let (_, _, a) = small_run(topo_seed, faults.clone(), false, &mut s1);
        let (_, _, b) = small_run(topo_seed, faults.clone(), false, &mut s2);
        let (_, _, p) = small_run(topo_seed, faults, true, &mut s3);
        prop_assert_eq!(&a.rounds, &b.rounds);
        prop_assert_eq!(&a.rounds, &p.rounds);
        prop_assert_eq!(&a.traces, &b.traces);
        prop_assert_eq!(&a.traces, &p.traces);
        prop_assert_eq!(&a.stats, &b.stats);
        prop_assert_eq!(&a.stats, &p.stats);
        prop_assert_eq!(a.stop, p.stop);
        // The checkpoint streams agree byte for byte, too.
        prop_assert_eq!(&s1, &s2);
        prop_assert_eq!(&s1, &s3);
    }
}

/// The checkpoint trailer, computed again here so a test can reseal
/// bytes it edited: FNV-1a over little-endian `u64` words, then byte by
/// byte over the tail.
fn reseal(bytes: &mut [u8]) {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let (body, trailer) = bytes.split_at_mut(bytes.len() - 8);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut words = body.chunks_exact(8);
    for word in &mut words {
        h = (h ^ u64::from_le_bytes(word.try_into().unwrap())).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    trailer.copy_from_slice(&h.to_le_bytes());
}

/// The first checkpoint of a `small_run`: small enough to corrupt at
/// every byte.
fn small_checkpoint() -> Vec<u8> {
    let mut snaps = Vec::new();
    small_run(1, FaultSchedule::default(), false, &mut snaps);
    snaps.swap_remove(0)
}

#[test]
fn every_truncation_and_bit_flip_is_refused() {
    let bytes = small_checkpoint();
    for cut in 0..bytes.len() {
        assert!(
            Checkpoint::from_bytes(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix decoded"
        );
    }
    // Debug builds flip one bit of each byte, optimised builds all eight.
    let mut bad = bytes.clone();
    for i in 0..bytes.len() {
        let bits = if cfg!(debug_assertions) {
            i % 8..i % 8 + 1
        } else {
            0..8
        };
        for bit in bits {
            bad[i] ^= 1 << bit;
            assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "bit {bit} of byte {i} flipped, and it decoded"
            );
            bad[i] ^= 1 << bit;
        }
    }
    reseal(&mut bad);
    assert!(bad == bytes, "the test's trailer is the codec's");
}

#[test]
fn a_state_that_does_not_fit_its_config_is_refused() {
    let mut snaps = Vec::new();
    let (topo, cfg, _) = small_run(1, FaultSchedule::default(), false, &mut snaps);
    let bytes = &snaps[0];
    let resume = |bytes: &[u8]| {
        let ck = Checkpoint::from_bytes(bytes).expect("the body decoder accepts the edit");
        resume_adaptive(&topo, &cfg, &ck, false, |_| {}).map(|_| ())
    };
    assert_eq!(resume(bytes), Ok(()));

    // One vantage fewer in the state than in the config: the last
    // weight, the last liveness flag and each round report's last
    // per-vantage entry dropped. Bytes 16..20 count the weights, 8
    // bytes each; the flags' count and a byte a flag follow; then the
    // discovery set (16 bytes an address) and the subnets (17 bytes a
    // prefix), each behind its count; then the reports, each nine
    // counters and its per-vantage entries (46 bytes each) behind their
    // count.
    let k = cfg.vantages.len();
    let count = (k as u32 - 1).to_le_bytes();
    let count_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let mut short = bytes[..16].to_vec();
    let mut at = 16;
    for width in [8, 1] {
        short.extend(count);
        short.extend(&bytes[at + 4..at + 4 + width * (k - 1)]);
        at += 4 + width * k;
    }
    let seen_end = at + 4 + 16 * count_at(at);
    let reports = seen_end + 4 + 17 * count_at(seen_end);
    short.extend(&bytes[at..reports + 4]);
    at = reports + 4;
    for _ in 0..count_at(reports) {
        assert_eq!(count_at(at + 72), k, "a report's per-vantage count");
        short.extend(&bytes[at..at + 72]);
        short.extend(count);
        short.extend(&bytes[at + 76..at + 76 + 46 * (k - 1)]);
        at += 76 + 46 * k;
    }
    short.extend(&bytes[at..]);
    reseal(&mut short);
    assert_eq!(resume(&short), Err(ResumeError::ConfigMismatch));

    // Alias state in a checkpoint of a run without alias resolution:
    // the flag that ends the body set, then an empty alias state (no
    // alias groups, nothing tested).
    let flag = bytes.len() - 9;
    assert_eq!(bytes[flag], 0, "the run kept no alias state");
    let mut aliased = bytes[..flag].to_vec();
    aliased.push(1);
    aliased.extend([0u8; 4 + 4]);
    aliased.extend([0u8; 8]);
    reseal(&mut aliased);
    assert_eq!(resume(&aliased), Err(ResumeError::ConfigMismatch));
}

/// Offset of the first set's hop-limit base inside a checkpoint's trace
/// record: the set count, the table's length and as many words, then the
/// first set's two strings, a `u64`, the target count and two varints a
/// target, then the base.
fn hop_limit_base(record: &[u8]) -> usize {
    let count = |at: usize| u32::from_le_bytes(record[at..at + 4].try_into().unwrap()) as usize;
    let mut at = 4;
    at += 4 + 16 * count(at);
    at += 4 + count(at);
    at += 4 + count(at) + 8;
    let targets = count(at);
    at += 4;
    for _varint in 0..2 * targets {
        while record[at] & 0x80 != 0 {
            at += 1;
        }
        at += 1;
    }
    assert!(record[at + 1] > 0, "the set has hop cells");
    at
}

#[test]
fn a_flipped_hop_cell_fails_the_checksum() {
    // A set's hop cells shift with its hop-limit base, which takes any
    // value its bitmaps leave room for, so no range check of the body
    // can see this edit: only the seal does.
    let bytes = small_checkpoint();
    let ck = Checkpoint::from_bytes(&bytes).unwrap();
    let mut w = SnapWriter::new();
    write_trace_record(&mut w, ck.record().iter(), 0);
    let record = w.into_bytes();
    let at = bytes
        .windows(record.len())
        .position(|w| w == record)
        .expect("the checkpoint holds its trace record inline");
    let mut bad = bytes.clone();
    bad[at + hop_limit_base(&record)] ^= 0x01;
    assert_eq!(
        Checkpoint::from_bytes(&bad).unwrap_err(),
        SnapshotError::BadValue("checkpoint checksum")
    );
    // Resealed, the same edit decodes to another state.
    reseal(&mut bad);
    let other = Checkpoint::from_bytes(&bad).expect("the body decoder accepts the edit");
    assert!(other.to_bytes() == bad);
}

#[test]
fn older_versions_are_refused_by_number() {
    let bytes = small_checkpoint();
    // Version 3 had no trailer; version 4 was the directory form's;
    // version 5 stored 4-byte ids and each trace's offsets; version 6
    // wrote each trace set's own word table; version 7 wrote the probed
    // set, the charged probes and the alias totals beside what they
    // are derived from; version 8 wrote the router-graph builder's
    // forest and a delta run's prior store shard by shard; version 9
    // wrote two provenance lists per trace set and four round-report
    // fields the loop derives; version 10 wrote 16-byte targets, a hop
    // length column, a hop limit byte per cell and every hop id;
    // version 11 wrote the trace record as a chain of tables and each
    // round's targets and the pool at 16 bytes an address.
    for version in [3u32, 4, 5, 6, 7, 8, 9, 10, 11] {
        let mut old = bytes.clone();
        old[4..8].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            Checkpoint::from_bytes(&old).unwrap_err(),
            SnapshotError::BadValue("unsupported checkpoint version")
        );
    }
}

/// The first checkpoint of the quarantine + alias fixture, fresh or
/// delta-seeded from a four-shard store of the fresh run: every part of
/// the state (subnets, alias groups, trace sets, the delta run's prior
/// set and latches) is non-empty. Each is the run's only round, so the
/// run's router graph is the checkpoint's.
fn sealed_checkpoint(delta: bool) -> &'static [u8] {
    static BYTES: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    let both = BYTES.get_or_init(|| {
        let (topo, set) = fixture(FaultSchedule::default());
        let cfg = AdaptiveConfig {
            quarantine_feedback: true,
            alias_resolution: true,
            max_rounds: 1,
            ..cfg()
        };
        let (mut fresh, mut seeded) = (None, None);
        // An alias group is a node of more than one interface.
        let grouped = |res: &AdaptiveResult| {
            let graph = &res
                .router_level
                .as_ref()
                .expect("alias resolution is on")
                .graph;
            assert!(
                graph.nodes.iter().any(|n| n.len() > 1),
                "the checkpoint holds an alias group"
            );
        };
        let res = run_adaptive_checkpointed(&topo, &set, &cfg, false, |ck| {
            fresh.get_or_insert_with(|| ck.to_bytes());
        });
        grouped(&res);
        let prior = ShardedTraceSet::from_set(&res.merged_traces(), 4);
        let start = Checkpoint::delta(&topo, &set, &cfg, &prior);
        let seeded_res = resume_adaptive(&topo, &cfg, &start, false, |ck| {
            seeded.get_or_insert_with(|| ck.to_bytes());
        })
        .expect("a delta checkpoint fits its config");
        grouped(&seeded_res);
        [fresh, seeded].map(|ck| ck.expect("one checkpoint"))
    });
    &both[usize::from(delta)]
}

proptest! {
    /// Behind the seal the body decoder stands on its own: resealed
    /// after random edits anywhere between the version and the trailer,
    /// a checkpoint — fresh or delta-seeded, half the time each —
    /// decodes to an error or to a state that re-encodes to exactly the
    /// input — never a panic, never a second spelling of one state —
    /// and whose every trace reads through the views: the hop sequence,
    /// path length and last hop agree, and each set canonicalizes.
    #[test]
    fn prop_resealed_edits_decode_canonically(
        delta in any::<bool>(),
        edits in prop::collection::vec((any::<u64>(), 1u8..=255), 1..4),
    ) {
        let mut bytes = sealed_checkpoint(delta).to_vec();
        let body = bytes.len() - 16;
        for &(at, x) in &edits {
            bytes[8 + (at % body as u64) as usize] ^= x;
        }
        reseal(&mut bytes);
        if let Ok(ck) = Checkpoint::from_bytes(&bytes) {
            prop_assert!(ck.to_bytes() == bytes, "a decoded checkpoint re-encodes to other bytes");
            for set in ck.record().iter() {
                for t in set.iter() {
                    let deepest = t.last_hop().map(|(ttl, _)| ttl);
                    prop_assert_eq!(t.hop_vec().len(), deepest.map_or(0, usize::from));
                    prop_assert_eq!(t.path_len(), t.reached_at().or(deepest));
                }
                prop_assert_eq!(set.clone().canonical().len(), set.len());
            }
        }
    }
}

/// Golden per-section `(len, fnv1a)` tables of the quarantine + alias
/// fixture's encodings, cut by `testkit::checkpoint::SECTIONS`, the
/// whole file last. Round trips only show an encoding agrees with
/// itself; these show it did not move across commits, and a failure
/// names each section that did. Re-pinned when five settings no caller
/// set became constants (the configuration digest and the trailer
/// moved), at version 6, when each trace set came to pack its columns at
/// its data's width, and at version 7, when the trace sets became one
/// chain that writes each word once: each time the header, trace-set
/// and trailer rows moved, and every other row is the earlier
/// encoding's. Re-pinned at version 8, when the state stopped writing
/// what it derives (the probed set, the charged probes, the alias
/// totals) and gained a delta flag: the header, pre-trace scalars, tail
/// and trailer rows moved, and the trace-set row is version 7's.
/// Re-pinned at version 9, when the alias state became the partition
/// the decoder rebuilds the router graph from: the header, tail and
/// trailer rows moved, and every other row is version 8's. Re-pinned at
/// version 10, when trace sets lost their provenance lists (8 bytes a
/// set) and round reports the four fields the loop derives (32 bytes a
/// round): the header, pre-trace scalars, trace-set and trailer rows
/// moved, and the config digest and tail rows are version 9's.
/// Re-pinned at version 11, when trace sets came to be written by their
/// redundancy (varint target steps, hop-limit bitmaps, repeat bits in
/// place of the ids they spell): the header, trace-set and trailer rows
/// moved (the trace-set row to 54 % of its bytes in round 1, 44 % in the
/// last), every set re-encodes to its own bytes, and every other row is
/// version 10's. Re-pinned at version 12, when the trace record came to
/// be one table and then the sets (the set count moved into it), and
/// each round's target list and the pool ascending varint steps: every
/// row but the configuration digest moved. The pre-trace scalars went
/// 8 092 → 5 748 bytes in round 1 and 18 678 → 9 900 in the last, the
/// tail 13 838 → 7 952 and 14 502 → 8 680, the trace sets 14 162 →
/// 14 154 and 37 537 → 37 497, and every set re-encodes to its own
/// bytes. Re-pinned, still version 12, when the record came to fold
/// each round's shard sets into one set a vantage: the same state in
/// fewer sets (2 in round 1 where there were 4, 6 in the last where
/// there were 12), so only the trace-set, trailer and whole-file rows
/// moved, the trace sets 14 154 → 12 282 bytes in round 1 and 37 497 →
/// 32 875 in the last; every set re-encodes to its own bytes.
const PINNED_ROUND_1: [Pin; 7] = [
    (8, 7644271183402071133),
    (8, 12423028813639569097),
    (5748, 107578657537927652),
    (12282, 17388768978854006525),
    (7952, 12762019696373908667),
    (8, 6624234428670487265),
    (26006, 3144749177531321250),
];
const PINNED_LAST_ROUND: [Pin; 7] = [
    (8, 7644271183402071133),
    (8, 12423028813639569097),
    (9900, 3403523234001093685),
    (32875, 16855456084918569906),
    (8680, 16628553672307143381),
    (8, 11930117436580930808),
    (51479, 3240359261625088855),
];

/// Fails unless every section of `bytes` matches its row of `pinned`,
/// printing each section that moved with its byte range.
fn assert_pinned(bytes: &[u8], pinned: &[Pin; 7], what: &str) {
    let ck = Checkpoint::from_bytes(bytes).expect("a pinned checkpoint decodes");
    let moved = testkit::checkpoint::moved(bytes, ck.record().iter(), pinned);
    assert!(moved.is_empty(), "{what}: the checkpoint moved\n{moved}");
}

#[test]
fn checkpoint_format_is_pinned() {
    let (topo, set) = fixture(FaultSchedule::default());
    let cfg = AdaptiveConfig {
        quarantine_feedback: true,
        alias_resolution: true,
        ..cfg()
    };
    let mut flat: Vec<Vec<u8>> = Vec::new();
    run_adaptive_checkpointed(&topo, &set, &cfg, false, |ck| flat.push(ck.to_bytes()));
    assert_pinned(&flat[0], &PINNED_ROUND_1, "round 1");
    assert_pinned(flat.last().unwrap(), &PINNED_LAST_ROUND, "last round");
}

/// Golden per-section tables of the *final* checkpoint of two runs that
/// end on a stop the loop cannot know before the round closes, captured
/// at the commit before feedback generation became speculative. The
/// pool generated beside such a round's alias stage is dropped, so the
/// last checkpoint still carries the pool the round was planned from. No
/// result can show a leak (nothing reads the pool after the stop); only
/// these bytes can. Re-pinned with the two above, and in the same rows.
const PINNED_YIELD_FLOOR_LAST: [Pin; 7] = [
    (8, 7644271183402071133),
    (8, 16338742832451936537),
    (7886, 11657844821193855894),
    (22829, 9607378763535811948),
    (8488, 15477803328870047839),
    (8, 11326785827674548757),
    (39227, 7605946118442767671),
];
const PINNED_BUDGET_LAST: [Pin; 7] = [
    (8, 7644271183402071133),
    (8, 10288825219387128118),
    (10750, 6829358611850835568),
    (36869, 1641795654765947898),
    (8785, 17123177562037150119),
    (8, 8413984059944746249),
    (56428, 7527450347631578152),
];

#[test]
fn a_discarded_pool_never_reaches_the_last_checkpoint() {
    let (topo, set) = fixture(FaultSchedule::default());
    let base = AdaptiveConfig {
        quarantine_feedback: true,
        alias_resolution: true,
        max_rounds: 6,
        ..cfg()
    };
    let yield_floor = AdaptiveConfig {
        min_yield_per_kprobes: 1e9, // unreachable floor
        patience: 2,
        ..base.clone()
    };
    let budget = AdaptiveConfig {
        probe_budget: 30_000,
        ..base
    };
    for (cfg, stop, pinned) in [
        (yield_floor, StopReason::YieldFloor, PINNED_YIELD_FLOOR_LAST),
        (budget, StopReason::BudgetExhausted, PINNED_BUDGET_LAST),
    ] {
        for parallel in [false, true] {
            let mut last = Vec::new();
            let res = run_adaptive_checkpointed(&topo, &set, &cfg, parallel, |ck| {
                last = ck.to_bytes();
            });
            assert_eq!(res.stop, stop);
            // Stopped short of the cap, so the last round did speculate.
            assert!(res.rounds.len() < cfg.max_rounds);
            assert_pinned(&last, &pinned, &format!("{stop:?}, parallel = {parallel}"));
        }
    }
}
