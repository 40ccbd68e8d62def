//! Checkpoint/resume contracts of the adaptive loop (tier-1):
//!
//! * **kill-and-resume is invisible** — resuming from *any*
//!   round-boundary checkpoint reproduces the uninterrupted run's
//!   final merged trace set, stats, reports and stop reason
//!   bit-identically (fault-free and under injected faults alike);
//! * **bytes are deterministic** — `to_bytes ∘ from_bytes` is the
//!   identity on the encoding, and truncated/corrupt input is a clean
//!   [`SnapshotError`], never a panic;
//! * **foreign checkpoints are refused** — a digest mismatch (other
//!   config, other topology) is [`ResumeError::ConfigMismatch`];
//! * **properties** — seeded small runs pin the round-trip and the
//!   determinism of supervised retries under fuzzed fault schedules.

use beholder::prelude::*;
use proptest::prelude::*;
use seeds::feedback::FeedbackParams;
use std::net::Ipv6Addr;
use std::sync::Arc;
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
    assert_eq!(a.traces.len(), b.traces.len());
    for (x, y) in a.traces.iter().zip(&b.traces) {
        assert_eq!(x, y, "trace sets diverged");
    }
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
    assert_same(&full, &run_adaptive(&topo, &set, &cfg));

    for (i, bytes) in snaps.iter().enumerate() {
        let ck = Checkpoint::from_bytes(bytes).expect("checkpoint must deserialize");
        assert_eq!(ck.round(), i + 1);
        assert!(ck.consumed_probes() > 0);
        assert!(ck.interfaces() > 0);
        // Kill-and-resume: serial and parallel drivers both reproduce
        // the uninterrupted run exactly.
        let resumed = resume_adaptive(&topo, &cfg, &ck, false).expect("resume must be accepted");
        assert_same(&full, &resumed);
        let resumed_par = resume_adaptive(&topo, &cfg, &ck, true).expect("resume (parallel)");
        assert_same(&full, &resumed_par);
    }

    // A resumed run keeps checkpointing, and its final round-boundary
    // snapshot is byte-identical to the uninterrupted run's.
    let first = Checkpoint::from_bytes(&snaps[0]).unwrap();
    let mut resumed_snaps: Vec<Vec<u8>> = Vec::new();
    let resumed = resume_adaptive_checkpointed(&topo, &cfg, &first, false, |ck| {
        resumed_snaps.push(ck.to_bytes());
    })
    .unwrap();
    assert_same(&full, &resumed);
    assert_eq!(resumed_snaps.len(), snaps.len() - 1);
    assert_eq!(resumed_snaps.last(), snaps.last());
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
        vantage_floor_share: 0.05,
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
        let resumed = resume_adaptive(&topo, &cfg, &ck, false).unwrap();
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
        let resumed = resume_adaptive(&topo, &cfg, &ck, parallel).expect("resume");
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
        resume_adaptive(&topo, &other_cfg, &ck, false).unwrap_err(),
        ResumeError::ConfigMismatch
    );
    // Same config, different topology (a fault schedule is part of the
    // topology, so it changes the digest too).
    let (other_topo, _) = fixture(FaultSchedule::default().with_vantage_outage(0, 0, 1));
    assert_eq!(
        resume_adaptive(&other_topo, &cfg, &ck, false).unwrap_err(),
        ResumeError::ConfigMismatch
    );
    // The matching pair still resumes.
    assert!(resume_adaptive(&topo, &cfg, &ck, false).is_ok());
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
            let resumed = resume_adaptive(&topo, &cfg, &ck, false).unwrap();
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

/// A unique scratch directory removed on drop, even on panic.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("beholder-ck-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn checkpoint_directory_round_trip_and_reject_corruption() {
    let (topo, set) = fixture(FaultSchedule::default());
    let cfg = cfg();
    let dir = TempDir::new("round-trip");
    let mut last: Option<Vec<u8>> = None;
    run_adaptive_checkpointed(&topo, &set, &cfg, false, |ck| {
        ck.save_dir(&dir.0).expect("save_dir");
        last = Some(ck.to_bytes());
    });
    let flat = last.expect("at least one checkpoint");

    // The directory decodes to the same state the flat encoding holds:
    // resuming from either is indistinguishable, so compare the bytes.
    let ck = Checkpoint::load_dir(&dir.0).expect("load_dir");
    assert_eq!(ck.to_bytes(), flat, "directory round trip diverged");
    assert!(
        dir.0.join("trace-0000.seg").is_file(),
        "per-trace segments expected"
    );

    // A truncated trace segment fails the manifest length check.
    let seg = dir.0.join("trace-0000.seg");
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..bytes.len() - 1]).unwrap();
    assert!(matches!(
        Checkpoint::load_dir(&dir.0),
        Err(StoreError::Mismatch(_))
    ));

    // Same length, flipped bit: the checksum names the segment.
    let mut rot = bytes.clone();
    let mid = rot.len() / 2;
    rot[mid] ^= 0x10;
    std::fs::write(&seg, &rot).unwrap();
    assert!(matches!(
        Checkpoint::load_dir(&dir.0),
        Err(StoreError::Corrupt { segment: 0 })
    ));

    // A deleted segment is an I/O error, not a panic.
    std::fs::remove_file(&seg).unwrap();
    assert!(matches!(
        Checkpoint::load_dir(&dir.0),
        Err(StoreError::Io(_))
    ));

    // Restore and confirm the directory loads (and resumes) again.
    std::fs::write(&seg, &bytes).unwrap();
    let ck = Checkpoint::load_dir(&dir.0).expect("restored directory must load");
    let resumed = resume_adaptive(&topo, &cfg, &ck, false).expect("resume from dir");
    let straight = run_adaptive(&topo, &set, &cfg);
    assert_eq!(resumed.stats, straight.stats);
    assert_eq!(resumed.stop, straight.stop);
}

/// Golden `(len, fnv1a)` of the quarantine + alias fixture's encodings,
/// captured at the commit before the codec was rewritten around one
/// body writer and one body reader. Round trips only show an encoding
/// agrees with itself; these show it did not move across commits.
const PINNED_ROUND_1: (usize, u64) = (85_254, 11_730_058_205_706_831_948);
const PINNED_LAST_ROUND: (usize, u64) = (230_470, 295_990_156_829_139_876);
const PINNED_DIR_FILE: (usize, u64) = (56_217, 10_560_436_029_968_677_654);
const PINNED_SEGMENTS: usize = 12;

#[test]
fn checkpoint_format_is_pinned() {
    use analysis::snapshot::fnv1a;
    let (topo, set) = fixture(FaultSchedule::default());
    let cfg = AdaptiveConfig {
        quarantine_feedback: true,
        alias_resolution: true,
        ..cfg()
    };
    let dir = TempDir::new("pinned");
    let mut flat: Vec<(usize, u64)> = Vec::new();
    run_adaptive_checkpointed(&topo, &set, &cfg, false, |ck| {
        let bytes = ck.to_bytes();
        flat.push((bytes.len(), fnv1a(&bytes)));
        ck.save_dir(&dir.0).expect("save_dir");
    });
    assert_eq!(flat[0], PINNED_ROUND_1);
    assert_eq!(*flat.last().unwrap(), PINNED_LAST_ROUND);

    let bin = std::fs::read(dir.0.join("checkpoint.bin")).unwrap();
    assert_eq!((bin.len(), fnv1a(&bin)), PINNED_DIR_FILE);
    let segments = std::fs::read_dir(&dir.0)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension() == Some("seg".as_ref()))
        .count();
    assert_eq!(segments, PINNED_SEGMENTS);
    // Both forms hold the same state.
    let loaded = Checkpoint::load_dir(&dir.0).expect("load_dir").to_bytes();
    assert_eq!((loaded.len(), fnv1a(&loaded)), PINNED_LAST_ROUND);
}

/// Golden `(len, fnv1a)` of the *final* checkpoint of two runs that end
/// on a stop the loop cannot know before the round closes, captured at
/// the commit before feedback generation became speculative. The pool
/// generated beside such a round's alias stage is dropped, so the last
/// checkpoint still carries the pool the round was planned from. No
/// result can show a leak (nothing reads the pool after the stop); only
/// these bytes can.
const PINNED_YIELD_FLOOR_LAST: (usize, u64) = (158_441, 7_475_253_908_518_151_844);
const PINNED_BUDGET_LAST: (usize, u64) = (258_115, 8_323_124_362_037_187_076);

#[test]
fn a_discarded_pool_never_reaches_the_last_checkpoint() {
    use analysis::snapshot::fnv1a;
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
            let mut last = (0, 0);
            let res = run_adaptive_checkpointed(&topo, &set, &cfg, parallel, |ck| {
                let bytes = ck.to_bytes();
                last = (bytes.len(), fnv1a(&bytes));
            });
            assert_eq!(res.stop, stop);
            // Stopped short of the cap, so the last round did speculate.
            assert!(res.rounds.len() < cfg.max_rounds);
            assert_eq!(last, pinned, "{stop:?}, parallel = {parallel}");
        }
    }
}
