//! Every opt-in of the adaptive loop at once, on a network that is
//! both faulty and hostile (tier-1): vantage budgeting, quarantined
//! feedback, the alias stage and path divergence over three vantages
//! and several shards, with one vantage permanently lost in the middle
//! of round 0, a flapping link, and every fifth edge router hostile
//! across all five adversarial classes. Each feature is pinned alone
//! elsewhere; this suite pins that they compose:
//!
//! * serial == parallel, bit for bit, router graph included — and the
//!   checkpoint bytes at **every** round boundary, which also hold what
//!   no result shows (the next round's pool, the alias stage's tested
//!   set, the virtual clock);
//! * kill-and-resume from **every** round boundary reproduces the
//!   uninterrupted run and every later checkpoint's bytes;
//! * no fabricated interface reaches the result and the probe
//!   accounting closes under the budget;
//! * the same features under delta seeding, serial == parallel.

use beholder::prelude::*;
use seeds::feedback::FeedbackParams;
use simnet::RouterId;
use std::sync::Arc;
use testkit::fixtures::{hostile_edge, z64_targets};

/// Virtual time at which vantage 1 dies for good and the link flap
/// starts: inside round 0, so the supervisor sees the outage begin,
/// retries into it, and the budgeter renormalises afterwards.
const FAULTS_FROM_US: u64 = 500_000;
const FLAP_PERIOD_US: u64 = 100_000;

fn fixture() -> (Arc<Topology>, TargetSet) {
    let mut tc = TopologyConfig::tiled(42, 2);
    // The schedules name routers, so the layout has to exist first; it
    // does not depend on the schedules and is regenerated unchanged.
    let layout = beholder::net::generate::generate(tc.clone());
    tc.adversarial = hostile_edge(&layout);
    tc.faults = FaultSchedule::default()
        .with_vantage_outage(1, FAULTS_FROM_US, u64::MAX)
        .with_link_flap(
            RouterId(layout.routers.len() as u32 / 2),
            FAULTS_FROM_US,
            u64::MAX,
            FLAP_PERIOD_US,
        );
    // The combined list reaches host space, so paths cross the
    // LAN-gateway and CPE edge where the hostile routers live.
    z64_targets(tc, 42, |c| &c.combined, "adaptive-r0")
}

fn cfg() -> AdaptiveConfig {
    AdaptiveConfig {
        yarrp: YarrpConfig {
            fill_mode: false,
            ..YarrpConfig::default()
        },
        vantages: vec![0, 1, 2],
        vantage_budgeting: true,
        probe_budget: 120_000,
        round_targets: 300,
        shards: 3,
        max_rounds: 4,
        min_yield_per_kprobes: 0.0,
        feedback: FeedbackParams {
            sixgen_budget: 1_024,
            ..FeedbackParams::default()
        },
        path_div: Some(PathDivParams::default()),
        retry: RetryPolicy {
            max_retries: 1,
            base_backoff_us: 250_000,
            retry_blackout: true,
        },
        quarantine_feedback: true,
        alias_resolution: true,
        ..AdaptiveConfig::default()
    }
}

fn assert_same(a: &AdaptiveResult, b: &AdaptiveResult) {
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.round_targets, b.round_targets);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stop, b.stop);
    assert!(a.traces == b.traces, "trace sets diverged");
    assert!(
        a.merged_traces() == b.merged_traces(),
        "merged traces diverged"
    );
    assert_eq!(
        a.interfaces.iter().collect::<Vec<_>>(),
        b.interfaces.iter().collect::<Vec<_>>()
    );
    assert_eq!(a.subnets, b.subnets);
    let (ra, rb) = (
        a.router_level.as_ref().expect("alias stage is on"),
        b.router_level.as_ref().expect("alias stage is on"),
    );
    assert_eq!(ra.graph, rb.graph);
    assert_eq!(
        (
            ra.interfaces,
            ra.alias_probes,
            ra.pairs_confirmed,
            ra.pairs_rejected
        ),
        (
            rb.interfaces,
            rb.alias_probes,
            rb.pairs_confirmed,
            rb.pairs_rejected
        )
    );
}

/// The scenario cannot silently go clean, and what it produces is
/// accounted for.
fn assert_hostile_and_accounted(topo: &Topology, cfg: &AdaptiveConfig, res: &AdaptiveResult) {
    let round_sum: u64 = res.rounds.iter().map(|r| r.probes).sum();
    assert_eq!(round_sum, res.stats.probes);
    assert!(res.stats.probes <= cfg.probe_budget);
    // Campaign and alias probes of every attempt, merged: each in
    // exactly one bucket.
    assert_eq!(res.stats.check(), Ok(()));
    let fabricated = res
        .interfaces
        .iter()
        .filter(|&a| topo.router_by_iface(a).is_none())
        .count();
    assert_eq!(fabricated, 0, "fabricated interfaces in the result");
    assert!(
        res.rounds.iter().any(|r| !r.degraded_vantages().is_empty()),
        "the fault schedule never degraded a round"
    );
    assert!(
        res.stats.adversarial_total() > 0,
        "the hostile population never fired"
    );
}

#[test]
fn all_features_compose_under_faults_and_adversaries() {
    let (topo, set) = fixture();
    let cfg = cfg();

    let serial = run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
    assert_same(
        &serial,
        &run_adaptive_checkpointed(&topo, &set, &cfg, true, |_| {}),
    );
    assert_hostile_and_accounted(&topo, &cfg, &serial);
    assert!(serial.rounds.len() > 2, "fixture must run several rounds");
    // The outage begins inside round 0 (probes eaten, campaigns still
    // answer in part), the next round's campaigns run wholly inside it
    // and degrade, and the dead vantage probes nothing afterwards.
    let v1 = |r: &RoundReport| r.per_vantage[1];
    assert!(v1(&serial.rounds[0]).fault_dropped > 0 && !v1(&serial.rounds[0]).degraded);
    assert!(v1(&serial.rounds[1]).degraded && v1(&serial.rounds[1]).attempts == 2);
    assert!(serial.rounds[2..].iter().all(|r| v1(r).targets == 0));
    let rl = serial.router_level.as_ref().unwrap();
    assert!(rl.alias_probes > 0, "the alias stage never probed");

    // Observing checkpoints changes nothing.
    let mut snaps: Vec<Vec<u8>> = Vec::new();
    let full = run_adaptive_checkpointed(&topo, &set, &cfg, true, |ck| {
        snaps.push(ck.to_bytes());
    });
    assert_same(&serial, &full);
    assert_eq!(snaps.len(), full.rounds.len());
    // The parallel driver runs the round tail as two lanes and the
    // miners on the pool; the serial one runs them in turn. Same state
    // at every boundary, not only the same result at the end.
    let mut serial_snaps: Vec<Vec<u8>> = Vec::new();
    run_adaptive_checkpointed(&topo, &set, &cfg, false, |ck| {
        serial_snaps.push(ck.to_bytes());
    });
    assert!(
        serial_snaps == snaps,
        "serial and parallel checkpoints diverged"
    );

    // Kill-and-resume from every boundary: the same result, and the
    // same bytes at every later boundary.
    for (i, bytes) in snaps.iter().enumerate() {
        let ck = Checkpoint::from_bytes(bytes).expect("checkpoint must deserialize");
        assert_eq!(ck.round(), i + 1);
        assert_eq!(&ck.to_bytes(), bytes);
        let mut later: Vec<Vec<u8>> = Vec::new();
        let resumed = resume_adaptive(&topo, &cfg, &ck, i % 2 == 0, |ck| {
            later.push(ck.to_bytes());
        })
        .expect("resume must be accepted");
        assert_same(&full, &resumed);
        assert_eq!(later.as_slice(), &snaps[i + 1..]);
        let plain = resume_adaptive(&topo, &cfg, &ck, i % 2 == 1, |_| {}).expect("resume");
        assert_same(&full, &plain);
    }
}

#[test]
fn all_features_compose_under_delta_seeding() {
    let (topo, set) = fixture();
    let cfg = cfg();
    let first = run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
    let prior = ShardedTraceSet::from_set(&first.merged_traces(), 8);
    let start = Checkpoint::delta(&topo, &set, &cfg, &prior);
    let a = resume_adaptive(&topo, &cfg, &start, false, |_| {}).expect("resume");
    let b = resume_adaptive(&topo, &cfg, &start, true, |_| {}).expect("resume");
    assert_same(&a, &b);
    assert_hostile_and_accounted(&topo, &cfg, &a);
    assert!(!a.rounds.is_empty());
}
