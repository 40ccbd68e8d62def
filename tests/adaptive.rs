//! Contracts of the adaptive discovery loop:
//!
//! * **seeded determinism** — the same `(topology, initial set,
//!   config)` produces identical round-by-round target lists and
//!   bit-identical final trace sets;
//! * **golden one-round equivalence** — a single-shard, single-round
//!   run is exactly one streamed `CampaignRunner` campaign, bit for
//!   bit (interner ids included);
//! * **parallel matches serial** — the work-queue driver reproduces the
//!   serial driver's entire result.

use beholder::prelude::*;
use seeds::feedback::FeedbackParams;
use std::net::Ipv6Addr;
use std::sync::Arc;
use testkit::fixtures::z64_targets;

fn fixture() -> (Arc<Topology>, TargetSet) {
    z64_targets(
        TopologyConfig::tiled(42, 2),
        42,
        |c| &c.caida,
        "adaptive-r0",
    )
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

#[test]
fn seeded_determinism_round_by_round() {
    let (topo, set) = fixture();
    let a = run_adaptive_checkpointed(&topo, &set, &cfg(), false, |_| {});
    let b = run_adaptive_checkpointed(&topo, &set, &cfg(), false, |_| {});
    assert_eq!(
        a.round_targets, b.round_targets,
        "round-by-round target lists diverged"
    );
    assert!(a.traces == b.traces, "trace sets diverged");
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stop, b.stop);
    assert_eq!(
        a.interfaces.iter().collect::<Vec<_>>(),
        b.interfaces.iter().collect::<Vec<_>>()
    );
    assert_eq!(a.subnets, b.subnets);

    // A different generation seed must change the generated rounds
    // (round 0 is seed-independent, later rounds draw differently).
    let other = AdaptiveConfig {
        rng_seed: 1,
        ..cfg()
    };
    let c = run_adaptive_checkpointed(&topo, &set, &other, false, |_| {});
    assert_eq!(a.round_targets[0], c.round_targets[0]);
    assert_ne!(
        a.round_targets[1..],
        c.round_targets[1..],
        "generation rng must matter after round 0"
    );
}

#[test]
fn one_round_golden_matches_stream_campaign() {
    let (topo, set) = fixture();
    let one = AdaptiveConfig {
        vantages: vec![1],
        shards: 1,
        max_rounds: 1,
        round_targets: usize::MAX,
        probe_budget: u64::MAX,
        ..AdaptiveConfig::default()
    };
    let res = run_adaptive_checkpointed(&topo, &set, &one, false, |_| {});
    assert_eq!(res.rounds.len(), 1);
    assert_eq!(res.round_targets[0], set.addrs);

    let golden = CampaignRunner::new(&topo)
        .targets(&set)
        .vantage(1)
        .config(one.yarrp)
        .streaming(one.stream)
        .run()
        .expect("clean campaign completes")
        .runs
        .remove(0);
    let (golden_ts, golden_stats) = (golden.traces, golden.stats);
    assert!(
        res.traces.iter().eq([&golden_ts]),
        "one-round adaptive must be bit-identical to a plain streamed campaign"
    );
    assert_eq!(res.stats, golden_stats);
    // The interfaces the loop reports are exactly the golden set's
    // interner content.
    let ifaces: Vec<Ipv6Addr> = res.interfaces.iter().collect();
    assert_eq!(ifaces, golden_ts.interner().addrs());
}

#[test]
fn parallel_matches_serial() {
    let (topo, set) = fixture();
    let serial = run_adaptive_checkpointed(&topo, &set, &cfg(), false, |_| {});
    let parallel = run_adaptive_checkpointed(&topo, &set, &cfg(), true, |_| {});
    assert_eq!(serial.round_targets, parallel.round_targets);
    assert!(serial.traces == parallel.traces, "trace sets diverged");
    assert_eq!(serial.stats, parallel.stats);
    assert_eq!(serial.stop, parallel.stop);
    assert_eq!(
        serial.interfaces.iter().collect::<Vec<_>>(),
        parallel.interfaces.iter().collect::<Vec<_>>()
    );
    assert_eq!(serial.subnets, parallel.subnets);
    for (s, p) in serial.rounds.iter().zip(&parallel.rounds) {
        assert_eq!(s, p);
    }
}

fn budgeting_cfg() -> AdaptiveConfig {
    AdaptiveConfig {
        vantages: vec![0, 1, 2],
        vantage_budgeting: true,
        probe_budget: 200_000,
        round_targets: 250,
        shards: 2,
        max_rounds: 3,
        min_yield_per_kprobes: 0.0,
        feedback: FeedbackParams {
            sixgen_budget: 512,
            ..FeedbackParams::default()
        },
        ..AdaptiveConfig::default()
    }
}

#[test]
fn vantage_budgeting_is_deterministic_and_parallel_matches_serial() {
    let (topo, set) = fixture();
    let cfg = budgeting_cfg();
    let a = run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
    let b = run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
    let p = run_adaptive_checkpointed(&topo, &set, &cfg, true, |_| {});
    assert_eq!(a.round_targets, b.round_targets);
    assert_eq!(a.round_targets, p.round_targets);
    for ((x, y), z) in a.rounds.iter().zip(&b.rounds).zip(&p.rounds) {
        assert_eq!(x, y, "budgeting rounds must be deterministic");
        assert_eq!(x, z, "parallel budgeting must match serial");
    }
    assert!(a.traces == p.traces, "trace sets diverged");
    assert_eq!(a.stats, p.stats);
}

#[test]
fn vantage_budgeting_shifts_allocation_toward_yield() {
    let (topo, set) = fixture();
    let res = run_adaptive_checkpointed(&topo, &set, &budgeting_cfg(), false, |_| {});
    assert!(res.rounds.len() >= 2, "need at least two rounds");
    let k = 3usize;
    for r in &res.rounds {
        assert_eq!(r.per_vantage.len(), k);
        // The exploration floor keeps every vantage probing.
        for pv in &r.per_vantage {
            assert!(pv.targets >= 1, "vantage {} starved", pv.vantage);
            assert!(pv.probes > 0, "vantage {} sent nothing", pv.vantage);
        }
        // Shares are a distribution.
        let share_sum: f64 = r.per_vantage.iter().map(|p| p.next_share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "shares must normalize");
        // Round budget stays within the uniform round's total.
        let total: u64 = r.per_vantage.iter().map(|p| p.targets).sum();
        assert!(total <= (k as u64) * r.targets + k as u64);
    }
    // Round 0 allocates uniformly; afterwards, the vantage with the
    // best round-0 marginal yield never gets fewer targets than the
    // worst one.
    let r0 = &res.rounds[0];
    assert!(r0.per_vantage.iter().all(|p| p.targets == r0.targets));
    let yield_of = |p: &VantageRound| p.new_interfaces as f64 / p.probes.max(1) as f64;
    let best = (0..k).max_by(|&a, &b| {
        yield_of(&r0.per_vantage[a])
            .partial_cmp(&yield_of(&r0.per_vantage[b]))
            .unwrap()
    });
    let worst = (0..k).min_by(|&a, &b| {
        yield_of(&r0.per_vantage[a])
            .partial_cmp(&yield_of(&r0.per_vantage[b]))
            .unwrap()
    });
    let (best, worst) = (best.unwrap(), worst.unwrap());
    if yield_of(&r0.per_vantage[best]) > yield_of(&r0.per_vantage[worst]) {
        let r1 = &res.rounds[1];
        assert!(
            r1.per_vantage[best].targets >= r1.per_vantage[worst].targets,
            "allocation must not move against marginal yield"
        );
        assert!(
            r0.per_vantage[best].next_share >= r0.per_vantage[worst].next_share,
            "shares must order by yield"
        );
    }
}

#[test]
fn uniform_rounds_report_uniform_vantage_stats() {
    let (topo, set) = fixture();
    let res = run_adaptive_checkpointed(&topo, &set, &cfg(), false, |_| {});
    for r in &res.rounds {
        assert_eq!(r.per_vantage.len(), 2);
        for pv in &r.per_vantage {
            // Budgeting off: every vantage probes the full round list
            // at the uniform share.
            assert_eq!(pv.targets, r.targets);
            assert!((pv.next_share - 0.5).abs() < 1e-9);
        }
        // Per-vantage probe accounting covers the whole round.
        let total: u64 = r.per_vantage.iter().map(|p| p.probes).sum();
        assert_eq!(total, r.probes);
    }
}

#[test]
fn merged_traces_union_all_discoveries() {
    let (topo, set) = fixture();
    let res = run_adaptive_checkpointed(&topo, &set, &cfg(), false, |_| {});
    let merged = res.merged_traces();
    // Every interface the loop counted is in the merged union's
    // interner, and vice versa.
    assert_eq!(merged.interner().len(), res.unique_interfaces());
    for a in res.interfaces.iter() {
        assert!(merged.interner().lookup(a).is_some());
    }
    // The merged name joins every vantage that probed, each the name
    // of a per-vantage set.
    let names: Vec<&str> = merged.vantage.split('+').collect();
    assert!(!names.is_empty());
    for ts in res.traces.iter() {
        assert!(names.contains(&&*ts.vantage));
    }
}

#[test]
fn feedback_rounds_discover_beyond_round_zero() {
    let (topo, set) = fixture();
    let res = run_adaptive_checkpointed(&topo, &set, &cfg(), false, |_| {});
    assert!(
        res.rounds.len() > 1,
        "fixture must sustain more than one round"
    );
    let later: u64 = res.rounds[1..].iter().map(|r| r.new_interfaces).sum();
    assert!(
        later > 0,
        "feedback-generated rounds must discover new interfaces"
    );
    // Rate-limit accounting flows through per round.
    for r in &res.rounds {
        assert_eq!(
            r.rl_dropped_default + r.rl_dropped_aggressive,
            r.rate_limited
        );
    }
}

/// The paper's thesis at equal probe budget: the feedback loop
/// discovers at least as many unique interfaces as the best open-loop
/// run — the seed-derived targets padded to the full budget with 6Gen
/// expansion of the seeds themselves. Fill mode off, so a round costs
/// exactly `targets × max_ttl` and the budgets compare exactly.
#[test]
fn adaptive_matches_or_beats_static_at_equal_probe_budget() {
    let topo = Arc::new(beholder::net::generate::generate(TopologyConfig::tiled(
        7, 2,
    )));
    let catalog = SeedCatalog::synthesize(&topo, 7);
    let z64 = targets::zn(&catalog.caida, 64);
    let seed_set = targets::synthesize::synthesize("adaptive-r0", &z64, IidStrategy::FixedIid);
    let yarrp = YarrpConfig {
        fill_mode: false,
        ..YarrpConfig::default()
    };
    let per_target = yarrp.max_ttl as u64;
    let n_targets = (150_000 / per_target) as usize;
    let rounds = 6;

    // Static arm: every seed target, then open-loop padding up to the
    // budget.
    let seed_addrs: Vec<Ipv6Addr> = catalog.caida.addrs().collect();
    let pad = seeds::sixgen::generate_loose(&seed_addrs, 4 * n_targets, 7);
    let pad_z64 = targets::transform::zn_addrs(&TargetSet::new("pad", pad), 64);
    let pad_set = targets::synthesize::synthesize("pad", &pad_z64, IidStrategy::FixedIid);
    let pad_room = n_targets.saturating_sub(seed_set.len());
    let padding = pad_set
        .addrs
        .iter()
        .copied()
        .filter(|a| !seed_set.contains(*a))
        .take(pad_room);
    let static_set = TargetSet::new("adaptive-r0", seed_set.addrs.iter().copied().chain(padding));
    let n_static = static_set.len();
    // Both arms get exactly what the static arm can use.
    let budget = n_static as u64 * per_target;

    let static_res = run_adaptive_checkpointed(
        &topo,
        &static_set,
        &AdaptiveConfig {
            yarrp,
            probe_budget: budget,
            round_targets: n_static,
            max_rounds: 1,
            min_yield_per_kprobes: 0.0,
            ..AdaptiveConfig::default()
        },
        false,
        |_| {},
    );
    let adaptive_res = run_adaptive_checkpointed(
        &topo,
        &seed_set,
        &AdaptiveConfig {
            yarrp,
            probe_budget: budget,
            round_targets: (n_static / rounds).max(1),
            shards: 4,
            max_rounds: rounds,
            min_yield_per_kprobes: 0.0,
            feedback: FeedbackParams {
                sixgen_budget: (2 * n_static / rounds).max(2_048),
                ..FeedbackParams::default()
            },
            ..AdaptiveConfig::default()
        },
        false,
        |_| {},
    );
    assert!(static_res.stats.probes <= budget, "static arm over budget");
    assert!(
        adaptive_res.stats.probes <= budget,
        "adaptive arm over budget"
    );
    let (si, ai) = (
        static_res.unique_interfaces(),
        adaptive_res.unique_interfaces(),
    );
    assert!(
        ai >= si,
        "adaptive {ai} interfaces < static {si} at {budget} probes each"
    );
}
