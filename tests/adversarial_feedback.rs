//! Poisoning resistance of the adaptive loop:
//!
//! * with `quarantine_feedback` on and 20% of routers hostile (all five
//!   adversarial classes), the run's discovered interface set contains
//!   **zero fabricated addresses** — every interface resolves to a real
//!   router of the topology;
//! * with 20% of the access-network routers hostile, the quarantined
//!   run keeps at least 0.8x the clean run's unique-interface yield;
//! * the quarantined loop is deterministic, and its parallel driver
//!   matches the serial one bit for bit;
//! * on a clean topology the quarantine stage is invisible: flag on and
//!   flag off produce bit-identical results (the clean-input contract).

use beholder::prelude::*;
use seeds::feedback::FeedbackParams;
use std::net::Ipv6Addr;
use std::sync::Arc;
use testkit::fixtures::{hostile_config, hostile_edge, z64_targets};

fn fixture(topo_cfg: TopologyConfig) -> (Arc<Topology>, TargetSet) {
    z64_targets(topo_cfg, 42, |c| &c.caida, "adv-fb-r0")
}

fn loop_cfg(quarantine_feedback: bool) -> AdaptiveConfig {
    AdaptiveConfig {
        vantages: vec![0, 2],
        probe_budget: 120_000,
        round_targets: 250,
        shards: 2,
        max_rounds: 3,
        min_yield_per_kprobes: 0.0,
        feedback: FeedbackParams {
            sixgen_budget: 512,
            ..FeedbackParams::default()
        },
        quarantine_feedback,
        ..AdaptiveConfig::default()
    }
}

fn assert_no_fabricated(topo: &Topology, interfaces: impl IntoIterator<Item = Ipv6Addr>) {
    for addr in interfaces {
        assert!(
            topo.router_by_iface(addr).is_some(),
            "fabricated interface {addr} reached the feedback loop"
        );
        assert_ne!(addr.octets()[0], 0xfd, "spoofed source {addr} survived");
    }
}

#[test]
fn quarantined_run_on_hostile_topology_has_zero_fabricated_interfaces() {
    let (topo, set) = fixture(hostile_config(42));
    let res = run_adaptive_checkpointed(&topo, &set, &loop_cfg(true), false, |_| {});
    assert!(
        !res.interfaces.is_empty(),
        "hostile run discovered nothing at all"
    );
    assert_no_fabricated(&topo, res.interfaces.iter());
    // The per-round trace sets the result keeps are the *cleaned* ones:
    // their interface columns are fabricated-free too.
    for ts in res.traces.iter() {
        assert_no_fabricated(&topo, ts.interface_addrs());
    }
    let union = res.merged_traces();
    assert_no_fabricated(&topo, union.interface_addrs());
}

/// Yield survives poisoning where adversarial responders really live:
/// every fifth *access-network* router (distribution middleboxes, LAN
/// gateways, CPE) hostile, all five classes, probed from three vantages
/// with Combined seeds — host space, so paths cross that edge. The
/// quarantined run keeps at least 0.8x the clean run's unique
/// interfaces. (`hostile_config` also poisons backbone routers, which
/// black-holes whole subtrees: 208 of 295 interfaces, 0.705, measures
/// reachability lost to zombies on transit paths, not the defenses.)
#[test]
fn poisoned_run_retains_most_of_the_clean_yield() {
    let base = TopologyConfig::tiled(7, 2);
    let edge_hostile = hostile_edge(&beholder::net::generate::generate(base.clone()));
    let arm = |adversarial: AdversarialSchedule, quarantine_feedback: bool| {
        let tc = TopologyConfig {
            adversarial,
            ..base.clone()
        };
        let (topo, set) = z64_targets(tc, 7, |c| &c.combined, "adv-fb-r0");
        let cfg = AdaptiveConfig {
            yarrp: YarrpConfig {
                fill_mode: false,
                ..YarrpConfig::default()
            },
            vantages: vec![0, 1, 2],
            round_targets: 833,
            shards: 4,
            feedback: FeedbackParams {
                sixgen_budget: 2_048,
                ..FeedbackParams::default()
            },
            ..loop_cfg(quarantine_feedback)
        };
        let res = run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
        assert_no_fabricated(&topo, res.interfaces.iter());
        res.unique_interfaces()
    };
    let clean = arm(AdversarialSchedule::default(), false);
    let poisoned = arm(edge_hostile, true);
    let ratio = poisoned as f64 / clean.max(1) as f64;
    assert!(
        ratio >= 0.8,
        "20% hostile edge routers must leave >= 0.8x the clean yield, got {ratio:.3} \
         ({poisoned} vs {clean})"
    );
}

#[test]
fn quarantined_loop_is_deterministic_and_parallel_matches_serial() {
    let (topo, set) = fixture(hostile_config(43));
    let cfg = loop_cfg(true);
    let a = run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
    let b = run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
    assert_eq!(a.round_targets, b.round_targets);
    assert_eq!(a.traces, b.traces);
    assert_eq!(a.stats, b.stats);
    let p = run_adaptive_checkpointed(&topo, &set, &cfg, true, |_| {});
    assert_eq!(a.round_targets, p.round_targets);
    assert_eq!(a.traces, p.traces);
    assert_eq!(a.stats, p.stats);
    assert_eq!(
        a.interfaces.iter().collect::<Vec<_>>(),
        p.interfaces.iter().collect::<Vec<_>>()
    );
}

#[test]
fn clean_topology_makes_quarantine_invisible() {
    let (topo, set) = fixture(TopologyConfig::tiled(42, 2));
    let off = run_adaptive_checkpointed(&topo, &set, &loop_cfg(false), false, |_| {});
    let on = run_adaptive_checkpointed(&topo, &set, &loop_cfg(true), false, |_| {});
    assert_eq!(off.round_targets, on.round_targets, "feedback diverged");
    // Set equality compares each set's table words: ids included.
    assert_eq!(off.traces, on.traces, "trace sets diverged");
    assert_eq!(off.stats, on.stats);
    assert_eq!(off.subnets, on.subnets);
    assert_eq!(
        off.interfaces.iter().collect::<Vec<_>>(),
        on.interfaces.iter().collect::<Vec<_>>()
    );
}

/// The union of every kept trace set's responder interner.
fn kept_responders(res: &AdaptiveResult) -> std::collections::BTreeSet<u128> {
    res.traces
        .iter()
        .flat_map(|ts| ts.interner().words().iter().copied())
        .collect()
}

#[test]
fn hostile_run_quarantine_actually_condemns() {
    // The control: the defense does real work, not a vacuous check.
    // Discovery counting (`interfaces`) keeps every checksum-validated
    // responder, but the kept trace record holds only quarantine-clean
    // sets — on a 20%-hostile topology the clean record must be
    // *strictly smaller* than the raw discovery count (condemned
    // responders were scrubbed out of everything that feeds forward),
    // while with the flag off the two are identical.
    let (topo, set) = fixture(hostile_config(42));
    let raw = run_adaptive_checkpointed(&topo, &set, &loop_cfg(false), false, |_| {});
    assert_eq!(
        kept_responders(&raw).len(),
        raw.interfaces.len(),
        "with quarantine off the kept traces are the raw observations"
    );
    let cleaned = run_adaptive_checkpointed(&topo, &set, &loop_cfg(true), false, |_| {});
    assert!(
        kept_responders(&cleaned).len() < cleaned.interfaces.len(),
        "quarantine condemned nothing on a 20%-hostile topology \
         (kept {}, observed {})",
        kept_responders(&cleaned).len(),
        cleaned.interfaces.len()
    );
}
