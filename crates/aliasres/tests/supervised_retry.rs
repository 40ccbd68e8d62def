//! [`resolve_aliases_supervised`] builds one engine per call and starts
//! every attempt from [`Engine::reset`]. This pins it to the form it
//! replaced — a fresh `Engine::new` inside the supervised closure, so
//! every retry re-resolved every path — through vantage outages that
//! make the supervisor retry: one that heals during the backoff, one
//! the retry straddles (its first probes are eaten, the rest answer),
//! one that outlasts every retry, and none at all. A reset that forgot
//! anything an attempt touches (statistics, fragment counters, token
//! buckets) would show as a different run.

use aliasres::{resolve_aliases, resolve_aliases_supervised, AliasConfig, AliasSets};
use simnet::config::TopologyConfig;
use simnet::generate::generate;
use simnet::{Engine, FaultSchedule, Topology};
use std::net::Ipv6Addr;
use std::sync::Arc;
use yarrp6::campaign::{supervise, Attempt, RetryPolicy, Supervised};

/// The per-attempt form, as `speedtrap.rs` carried it.
fn fresh_engine_per_attempt(
    topo: &Arc<Topology>,
    interfaces: &[Ipv6Addr],
    cfg: &AliasConfig,
    policy: &RetryPolicy,
    start_us: u64,
    max_probes: u64,
) -> Supervised<AliasSets, String> {
    let step_us = 1_000_000 / cfg.rate_pps.max(1);
    supervise(
        policy,
        start_us,
        |clock| {
            let mut engine = Engine::new(topo.clone());
            let sets = resolve_aliases(&mut engine, 0, interfaces, cfg, clock, max_probes);
            let stats = engine.stats;
            Ok(Attempt {
                duration_us: sets.probes.saturating_mul(step_us),
                blackout: stats.fault_dropped_total() > 0 && stats.frag_echo_replies == 0,
                stats,
                output: sets,
            })
        },
        std::convert::identity,
    )
}

#[test]
fn a_reset_engine_retries_exactly_like_a_fresh_one() {
    let cfg = AliasConfig::default();
    let policy = RetryPolicy::default();
    // 40 interfaces at 1 000 pps: a blacked-out attempt spans 40 ms and
    // the first retry starts 250 ms after it, at 290 ms.
    let step_us = 1_000_000 / cfg.rate_pps;
    let retry_at = 40 * step_us + policy.backoff_us(0);
    for (outage_until, attempts, degraded) in [
        (0, 1, false),
        (200_000, 2, false),
        (retry_at + 10 * step_us, 2, false),
        (u64::MAX, 3, true),
    ] {
        let topo = Arc::new(generate(TopologyConfig {
            faults: FaultSchedule::default().with_vantage_outage(0, 0, outage_until),
            ..TopologyConfig::tiny(42)
        }));
        let truth = topo.ground_truth_aliases();
        let interfaces: Vec<Ipv6Addr> = truth.iter().flatten().copied().take(40).collect();
        assert_eq!(interfaces.len(), 40);
        for max_probes in [u64::MAX, 70] {
            let got =
                resolve_aliases_supervised(&topo, 0, &interfaces, &cfg, &policy, 0, max_probes);
            let want = fresh_engine_per_attempt(&topo, &interfaces, &cfg, &policy, 0, max_probes);
            assert_eq!((got.attempts, got.degraded), (attempts, degraded));
            // Every field, the sets' lists included: `Debug` prints
            // them all and neither type is `PartialEq`.
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            let answered = got.result.is_some_and(|s| !s.groups.is_empty());
            assert_eq!(answered, !degraded, "outage until {outage_until}");
        }
    }
}
