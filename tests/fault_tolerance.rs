//! Fault tolerance of the adaptive loop (tier-1): under injected
//! simnet faults the loop **degrades instead of dying**.
//!
//! * **kill 1 of 3** — a vantage permanently blacked out mid-run,
//!   while a transit link flaps, is reported degraded in its
//!   [`RoundReport`], excluded from later rounds (its budget share
//!   flows to the survivors), and the run still retains ≥ 0.8× the
//!   fault-free union interface yield;
//! * **transient outage** — a blackout shorter than the retry backoff
//!   heals: the supervisor's second attempt lands after the outage and
//!   the run's discoveries are bit-identical to fault-free;
//! * **determinism under faults** — seeded fault schedules keep the
//!   loop deterministic, serial and parallel alike;
//! * **all vantages down** — the loop stops with
//!   [`StopReason::AllVantagesDown`], never a panic.

use beholder::prelude::*;
use seeds::feedback::FeedbackParams;
use simnet::topology::RouterRole;
use simnet::RouterId;
use std::sync::Arc;
use testkit::fixtures::z64_targets;

/// The pinned three-vantage fixture, optionally with a fault schedule
/// attached. Faults live on the topology config, so the same seed with
/// and without them generates the identical network.
fn fixture(faults: FaultSchedule) -> (Arc<Topology>, TargetSet) {
    let tc = TopologyConfig {
        faults,
        ..TopologyConfig::tiled(42, 2)
    };
    z64_targets(tc, 42, |c| &c.caida, "adaptive-r0")
}

fn cfg() -> AdaptiveConfig {
    AdaptiveConfig {
        vantages: vec![0, 1, 2],
        vantage_budgeting: true,
        probe_budget: 400_000,
        round_targets: 250,
        shards: 2,
        max_rounds: 3,
        min_yield_per_kprobes: 0.0,
        feedback: FeedbackParams {
            sixgen_budget: 512,
            ..FeedbackParams::default()
        },
        retry: RetryPolicy {
            max_retries: 1,
            base_backoff_us: 250_000,
            retry_blackout: true,
        },
        ..AdaptiveConfig::default()
    }
}

/// Permanent loss of vantage 1 partway into round 0, and from the
/// same instant a transit link (the middle core router's) flapping at
/// a 100 ms half-period for the rest of the run.
fn kill_v1() -> FaultSchedule {
    let topo = fixture(FaultSchedule::default()).0;
    let core: Vec<usize> = (0..topo.routers.len())
        .filter(|&r| topo.routers[r].role == RouterRole::Core)
        .collect();
    FaultSchedule::default()
        .with_vantage_outage(1, 1_500_000, u64::MAX)
        .with_link_flap(
            RouterId(core[core.len() / 2] as u32),
            1_500_000,
            u64::MAX,
            100_000,
        )
}

#[test]
fn killing_one_of_three_vantages_degrades_instead_of_dying() {
    let (fault_free_topo, set) = fixture(FaultSchedule::default());
    let (faulty_topo, _) = fixture(kill_v1());
    let cfg = cfg();

    let baseline = run_adaptive_checkpointed(&fault_free_topo, &set, &cfg, false, |_| {});
    // Completes without panicking, all rounds accounted.
    let faulty = run_adaptive_checkpointed(&faulty_topo, &set, &cfg, false, |_| {});
    assert!(!faulty.rounds.is_empty());

    // The dead vantage is reported degraded in some round's report.
    assert!(
        faulty
            .rounds
            .iter()
            .any(|r| r.degraded_vantages().contains(&1)),
        "vantage 1 must be reported degraded"
    );
    // Once declared dead it probes no more: after the first degraded
    // round, vantage 1 holds zero targets and zero share while the
    // survivors keep the whole allocation.
    let died_at = faulty
        .rounds
        .iter()
        .position(|r| r.per_vantage[1].degraded)
        .unwrap();
    for r in &faulty.rounds[died_at + 1..] {
        assert_eq!(r.per_vantage[1].targets, 0);
        assert_eq!(r.per_vantage[1].probes, 0);
        assert_eq!(r.per_vantage[1].next_share, 0.0);
        let share_sum: f64 = r.per_vantage.iter().map(|p| p.next_share).sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "survivors must absorb the dead vantage's share"
        );
    }
    // Fault accounting reaches the reports.
    assert!(faulty
        .rounds
        .iter()
        .any(|r| r.per_vantage[1].fault_dropped > 0));
    assert!(faulty.stats.fault_vantage_outage > 0);
    assert!(faulty.stats.fault_link_flap > 0, "the flap must bite");

    // The acceptance bar: the union interface yield survives the loss.
    let ratio = faulty.unique_interfaces() as f64 / baseline.unique_interfaces().max(1) as f64;
    assert!(
        ratio >= 0.8,
        "one dead vantage of three must retain >= 0.8x fault-free yield, got {ratio:.3} \
         ({} vs {})",
        faulty.unique_interfaces(),
        baseline.unique_interfaces()
    );
}

#[test]
fn faulty_runs_are_deterministic_and_parallel_matches_serial() {
    let (topo, set) = fixture(kill_v1());
    let cfg = cfg();
    let a = run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
    let b = run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
    let p = run_adaptive_checkpointed(&topo, &set, &cfg, true, |_| {});
    assert_eq!(a.round_targets, b.round_targets);
    assert_eq!(a.round_targets, p.round_targets);
    for ((x, y), z) in a.rounds.iter().zip(&b.rounds).zip(&p.rounds) {
        assert_eq!(x, y, "faulty rounds must be deterministic");
        assert_eq!(x, z, "parallel faulty rounds must match serial");
    }
    assert!(a.traces == p.traces, "trace sets diverged");
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stats, p.stats);
    assert_eq!(a.stop, p.stop);
}

#[test]
fn transient_outage_heals_through_retry() {
    // A short blackout over the whole of attempt 0: the retry (after a
    // virtual-time backoff) lands beyond the outage and succeeds, so
    // discoveries are bit-identical to the fault-free run — only the
    // accounting (burned probes, attempts, fault counters) differs.
    let small_yarrp = YarrpConfig {
        fill_mode: false,
        max_ttl: 8,
        ..YarrpConfig::default()
    };
    let mk = |faults: FaultSchedule| {
        let tc = TopologyConfig {
            faults,
            ..TopologyConfig::tiny(42)
        };
        Arc::new(beholder::net::generate::generate(tc))
    };
    let topo_ok = mk(FaultSchedule::default());
    // tiny + 40 targets + max_ttl 8 ≈ 320 probes ≈ 320 ms of virtual
    // time per campaign: an outage over [0, 700 ms) blacks out all of
    // attempt 0, and the 500 ms backoff pushes attempt 1 past it.
    let topo_fault = mk(FaultSchedule::default().with_vantage_outage(0, 0, 700_000));
    let addrs: Vec<std::net::Ipv6Addr> = topo_ok.hosts().map(|(a, _)| a).take(40).collect();
    let set = TargetSet::new("adaptive-r0", addrs);
    let cfg = AdaptiveConfig {
        yarrp: small_yarrp,
        vantages: vec![0, 1],
        probe_budget: 60_000,
        round_targets: 40,
        max_rounds: 2,
        min_yield_per_kprobes: 0.0,
        retry: RetryPolicy {
            max_retries: 2,
            base_backoff_us: 500_000,
            retry_blackout: true,
        },
        ..AdaptiveConfig::default()
    };

    let baseline = run_adaptive_checkpointed(&topo_ok, &set, &cfg, false, |_| {});
    let healed = run_adaptive_checkpointed(&topo_fault, &set, &cfg, false, |_| {});

    // Second attempt, not degraded, nobody reported dead.
    assert_eq!(healed.rounds[0].per_vantage[0].attempts, 2);
    assert!(healed.rounds[0].degraded_vantages().is_empty());
    assert!(healed.rounds[0].per_vantage[0].fault_dropped > 0);

    // Discoveries heal bit-identically.
    assert_eq!(baseline.round_targets, healed.round_targets);
    assert_eq!(
        baseline.interfaces.iter().collect::<Vec<_>>(),
        healed.interfaces.iter().collect::<Vec<_>>()
    );
    assert_eq!(baseline.subnets, healed.subnets);
    // The retry burned real budget: the healed run paid more probes.
    assert!(healed.stats.probes > baseline.stats.probes);
}

#[test]
fn all_vantages_down_stops_cleanly() {
    let schedule = FaultSchedule::default()
        .with_vantage_outage(0, 0, u64::MAX)
        .with_vantage_outage(1, 0, u64::MAX)
        .with_vantage_outage(2, 0, u64::MAX);
    let (topo, set) = fixture(schedule);
    let res = run_adaptive_checkpointed(&topo, &set, &cfg(), false, |_| {});
    assert_eq!(res.stop, StopReason::AllVantagesDown);
    assert_eq!(res.rounds.len(), 1, "one fully-degraded round, then stop");
    assert!(res.rounds[0].per_vantage.iter().all(|p| p.degraded));
    assert_eq!(res.unique_interfaces(), 0);
}

/// One supervisor, two measurements: streaming campaigns and speedtrap
/// both retry through `yarrp6::campaign::supervise`, so the same policy
/// against the same outage window must walk the same retry sequence —
/// equal attempts, equal degraded flag, and a final attempt that starts
/// at the same virtual time (every earlier attempt plus every backoff).
#[test]
fn campaign_and_alias_supervisors_share_one_retry_sequence() {
    let policy = RetryPolicy {
        max_retries: 2,
        base_backoff_us: 250_000,
        retry_blackout: true,
    };
    let alias_cfg = AliasConfig::default();
    let step_us = 1_000_000 / alias_cfg.rate_pps;
    // 10 targets × 8 TTLs and 80 interfaces, both at 1k pps: a
    // blacked-out attempt of either kind sends 80 probes in 80 ms, so
    // attempts start at 0, 330 ms and 910 ms on the fault clock.
    let yarrp = YarrpConfig {
        fill_mode: false,
        max_ttl: 8,
        ..YarrpConfig::default()
    };
    for (outage_end_us, attempts, degraded) in [
        (0, 1, false),
        (200_000, 2, false),
        (600_000, 3, false),
        (u64::MAX, 3, true),
    ] {
        let tc = TopologyConfig {
            faults: FaultSchedule::default().with_vantage_outage(0, 0, outage_end_us),
            ..TopologyConfig::tiny(42)
        };
        let topo = Arc::new(beholder::net::generate::generate(tc));
        let set = TargetSet::new("retry-seq", topo.hosts().map(|(a, _)| a).take(10));
        let ifaces: Vec<std::net::Ipv6Addr> = topo
            .routers
            .iter()
            .filter(|r| r.responsive)
            .map(|r| r.addr)
            .take(80)
            .collect();
        assert_eq!(ifaces.len(), 80);

        let spec = CampaignSpec {
            vantage_idx: 0,
            set: &set,
            cfg: yarrp,
        };
        let campaign = stream_campaigns_supervised(
            &topo,
            &[spec],
            &StreamConfig::default(),
            &policy,
            0,
            false,
        )
        .pop()
        .expect("one spec, one outcome");
        let alias = resolve_aliases_supervised(&topo, 0, &ifaces, &alias_cfg, &policy, 0, u64::MAX);

        let label = format!("outage until {outage_end_us}");
        assert_eq!(campaign.attempts, attempts, "{label}");
        assert_eq!(alias.attempts, attempts, "{label}");
        assert_eq!(campaign.degraded, degraded, "{label}");
        assert_eq!(alias.degraded, degraded, "{label}");
        let last_campaign_us = campaign.result.as_ref().expect("completes").log.duration_us;
        let last_alias_us = alias.result.as_ref().expect("completes").probes * step_us;
        assert_eq!(
            campaign.elapsed_us - last_campaign_us,
            alias.elapsed_us - last_alias_us,
            "{label}: final attempts start at different virtual times"
        );
        if degraded {
            // Every attempt a blackout: the whole runs coincide.
            assert_eq!(campaign.elapsed_us, alias.elapsed_us, "{label}");
            assert_eq!(
                campaign.elapsed_us,
                3 * 80 * step_us + policy.backoff_us(0) + policy.backoff_us(1)
            );
        }
    }
}
