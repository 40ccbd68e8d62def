//! Contracts of snapshot-seeded delta discovery: a delta run is
//! [`beholder::checkpoint::Checkpoint::delta`], a starting checkpoint,
//! run with [`beholder::adaptive::resume_adaptive`]:
//!
//! * **unchanged world, cheaper sweep** — against a snapshot of its
//!   own prior run, the delta loop probes one round of its 64 canaries
//!   and stops at the yield floor, at the fresh run's
//!   discovered-interface count (the canaries confirm nothing moved, so
//!   budget buys nothing);
//! * **determinism** — same `(topology, initial, config, snapshot)`
//!   produces identical rounds, serial or parallel;
//! * **changed world, reopened shards** — a snapshot whose stored
//!   observations disagree with what the canaries re-probe forces the
//!   mismatched shards back into the target pool, costing more than
//!   the unchanged case;
//! * **resumable** — resumed from any of its round-boundary
//!   checkpoints, serial or parallel, a delta run equals the
//!   uninterrupted one, checkpoint bytes included.

use beholder::prelude::*;
use std::sync::Arc;
use testkit::fixtures::z64_targets;

fn fixture() -> (Arc<Topology>, TargetSet) {
    // Rate limiting is the one schedule-dependent response path (token
    // buckets drain differently under a 64-canary round than under a
    // full sweep); neutralizing it makes observations a pure function
    // of (target, ttl), which is what lets an unchanged world re-probe
    // to identical canary observations. Loss/unresponsiveness are
    // hash-keyed and deterministic either way.
    let mut tc = TopologyConfig::tiled(42, 2);
    tc.default_rl = beholder::net::config::RateLimitClass {
        rate_pps: 1_000_000,
        burst: 1_000_000,
    };
    tc.aggressive_frac = 0.0;
    z64_targets(tc, 42, |c| &c.caida, "delta-r0")
}

/// Round cap far above the initial set so the fresh run covers it in
/// round 0 and the snapshot knows every responsive target.
fn cfg() -> AdaptiveConfig {
    AdaptiveConfig {
        vantages: vec![0, 2],
        probe_budget: 2_000_000,
        round_targets: 4_096,
        shards: 2,
        max_rounds: 3,
        // A positive yield floor with no patience is what lets the
        // delta loop *stop* on an unchanged world: its canary round
        // earns nothing, so the run ends there instead of re-deriving
        // feedback targets from the seeded discovery set.
        min_yield_per_kprobes: 0.5,
        patience: 1,
        ..AdaptiveConfig::default()
    }
}

fn targets_probed(res: &AdaptiveResult) -> u64 {
    res.rounds.iter().map(|r| r.targets).sum()
}

fn snapshot_of(res: &AdaptiveResult) -> ShardedTraceSet {
    ShardedTraceSet::from_set(&res.merged_traces(), 8)
}

/// A delta run against `prior`, unobserved: its starting checkpoint,
/// resumed.
fn run_delta(
    topo: &Arc<Topology>,
    set: &TargetSet,
    cfg: &AdaptiveConfig,
    prior: &ShardedTraceSet,
    parallel: bool,
) -> AdaptiveResult {
    let start = Checkpoint::delta(topo, set, cfg, prior);
    resume_adaptive(topo, cfg, &start, parallel, |_| {})
        .expect("a delta checkpoint fits its config")
}

/// The canaries a delta run re-probes: a stride-sampled 64 of the prior
/// store's targets.
const CANARY_TARGETS: u64 = 64;

#[test]
fn unchanged_snapshot_probes_fewer_targets_for_equal_discovery() {
    let (topo, set) = fixture();
    for vantage_budgeting in [false, true] {
        let mut cfg = cfg();
        cfg.vantage_budgeting = vantage_budgeting;
        let fresh = run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
        let prior = snapshot_of(&fresh);
        let delta = run_delta(&topo, &set, &cfg, &prior, false);
        assert!(
            targets_probed(&delta) < targets_probed(&fresh),
            "delta against an unchanged snapshot must probe strictly fewer targets \
             (delta {} vs fresh {})",
            targets_probed(&delta),
            targets_probed(&fresh)
        );
        // An unchanged world costs exactly its canaries: one round, every
        // vantage probing all of them, which earns nothing and stops the
        // loop at the yield floor.
        let rounds: Vec<(u64, Vec<u64>)> = delta
            .rounds
            .iter()
            .map(|r| (r.targets, r.per_vantage.iter().map(|v| v.targets).collect()))
            .collect();
        let what = format!("vantage_budgeting = {vantage_budgeting}");
        assert_eq!(
            rounds,
            [(CANARY_TARGETS, vec![CANARY_TARGETS; 2])],
            "{what}"
        );
        assert_eq!(delta.stop, StopReason::YieldFloor, "{what}");
        assert_eq!(
            delta.unique_interfaces(),
            fresh.unique_interfaces(),
            "an unchanged world must yield the same discovered-interface count ({what})"
        );
    }
}

#[test]
fn delta_runs_are_deterministic_serial_and_parallel() {
    let (topo, set) = fixture();
    let fresh = run_adaptive_checkpointed(&topo, &set, &cfg(), false, |_| {});
    let prior = snapshot_of(&fresh);
    let a = run_delta(&topo, &set, &cfg(), &prior, false);
    let b = run_delta(&topo, &set, &cfg(), &prior, true);
    assert_eq!(a.round_targets, b.round_targets);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stop, b.stop);
    assert!(
        a.traces == b.traces,
        "delta trace sets diverged between drivers"
    );
    assert_eq!(
        a.interfaces.iter().collect::<Vec<_>>(),
        b.interfaces.iter().collect::<Vec<_>>()
    );
}

#[test]
fn changed_observations_reopen_their_shards() {
    let (topo, set) = fixture();
    let fresh = run_adaptive_checkpointed(&topo, &set, &cfg(), false, |_| {});
    let unchanged_prior = snapshot_of(&fresh);
    // A snapshot taken with a much shorter TTL horizon: every stored
    // path is a truncated version of what a canary re-probe sees, so
    // canaries disagree and their shards must be re-swept.
    let short = AdaptiveConfig {
        yarrp: YarrpConfig {
            max_ttl: 4,
            ..YarrpConfig::default()
        },
        ..cfg()
    };
    let stale = run_adaptive_checkpointed(&topo, &set, &short, false, |_| {});
    let stale_prior = snapshot_of(&stale);

    let calm = run_delta(&topo, &set, &cfg(), &unchanged_prior, false);
    let resweep = run_delta(&topo, &set, &cfg(), &stale_prior, false);
    assert!(
        targets_probed(&resweep) > targets_probed(&calm),
        "disagreeing canaries must reopen shards and probe more targets \
         (stale {} vs unchanged {})",
        targets_probed(&resweep),
        targets_probed(&calm)
    );
}

#[test]
fn a_delta_run_resumes_from_every_round_boundary() {
    let (topo, set) = fixture();
    // A stale snapshot reopens shards, so the run goes on past its
    // canary round with latches set and targets queued. It was taken
    // from a vantage the delta run does not probe from, so some of its
    // links are never seen again: a resume that fed them to the router
    // graph would count other routers.
    let short = AdaptiveConfig {
        yarrp: YarrpConfig {
            max_ttl: 4,
            ..YarrpConfig::default()
        },
        vantages: vec![1],
        ..cfg()
    };
    let prior = snapshot_of(&run_adaptive_checkpointed(
        &topo,
        &set,
        &short,
        false,
        |_| {},
    ));
    // Once plain, once with the router graph a resume rebuilds from the
    // record's sets after the prior one (scrubbed sets, with the
    // quarantine on).
    let aliased = AdaptiveConfig {
        alias_resolution: true,
        quarantine_feedback: true,
        ..cfg()
    };
    for cfg in [cfg(), aliased] {
        let start = Checkpoint::delta(&topo, &set, &cfg, &prior);
        let mut snaps: Vec<Vec<u8>> = Vec::new();
        let full = resume_adaptive(&topo, &cfg, &start, false, |ck| snaps.push(ck.to_bytes()))
            .expect("a delta checkpoint fits its config");
        assert!(
            full.rounds.len() > 1,
            "the stale snapshot must reopen shards"
        );
        assert_eq!(snaps.len(), full.rounds.len());
        let graph = |res: &AdaptiveResult| res.router_level.as_ref().map(|r| r.graph.clone());
        for (i, bytes) in snaps.iter().enumerate() {
            let ck = Checkpoint::from_bytes(bytes).expect("a delta checkpoint decodes");
            assert_eq!(&ck.to_bytes(), bytes);
            for parallel in [false, true] {
                let mut later: Vec<Vec<u8>> = Vec::new();
                let resumed = resume_adaptive(&topo, &cfg, &ck, parallel, |ck| {
                    later.push(ck.to_bytes());
                })
                .expect("resume must be accepted");
                assert_eq!(resumed.rounds, full.rounds);
                assert_eq!(resumed.round_targets, full.round_targets);
                assert_eq!(resumed.stats, full.stats);
                assert!(resumed.traces == full.traces, "trace sets diverged");
                assert_eq!(
                    resumed.interfaces.iter().collect::<Vec<_>>(),
                    full.interfaces.iter().collect::<Vec<_>>()
                );
                assert!(graph(&resumed) == graph(&full), "router graphs diverged");
                assert!(
                    later == snaps[i + 1..],
                    "resumed at round {}, parallel = {parallel}: checkpoint stream diverged",
                    i + 1
                );
            }
        }
    }
}
