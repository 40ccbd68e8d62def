//! End-to-end contracts of the router-level topology stage (tier-1):
//!
//! * **collapse with fidelity** — on a tiled topology the adaptive
//!   loop with [`AdaptiveConfig::alias_resolution`] on resolves
//!   strictly fewer routers than it observed interfaces, and the
//!   inferred alias groups score ≥ 0.9 precision against the
//!   simulator's ground truth;
//! * **off means off** — with the flag at its default the result
//!   carries no router-level view and every per-round alias field is
//!   zero;
//! * **checkpoints carry the alias state** — kill-and-resume with the
//!   stage on reproduces the uninterrupted run bit-identically,
//!   router graph included, and the snapshot encoding round-trips.

use beholder::prelude::*;
use seeds::feedback::FeedbackParams;
use std::net::Ipv6Addr;
use std::sync::Arc;
use testkit::fixtures::z64_targets;

fn fixture(tile_seed: u64, tiles: usize) -> (Arc<Topology>, TargetSet) {
    let tc = TopologyConfig::tiled(tile_seed, tiles);
    z64_targets(tc, tile_seed, |c| &c.caida, "adaptive-r0")
}

fn alias_cfg() -> AdaptiveConfig {
    AdaptiveConfig {
        yarrp: YarrpConfig {
            fill_mode: false,
            ..YarrpConfig::default()
        },
        probe_budget: 300_000,
        round_targets: 1_024,
        shards: 4,
        max_rounds: 4,
        min_yield_per_kprobes: 0.0,
        alias_resolution: true,
        ..AdaptiveConfig::default()
    }
}

/// The paper's router-level claim, end to end: alias resolution must
/// actually collapse the interface-level view, and what it merges must
/// be right.
#[test]
fn alias_stage_collapses_interfaces_with_high_precision() {
    let (topo, set) = fixture(7, 2);
    let res = run_adaptive_checkpointed(&topo, &set, &alias_cfg(), true, |_| {});
    let rl = res
        .router_level
        .as_ref()
        .expect("alias_resolution on must yield a router-level view");

    let interfaces = rl.interfaces;
    let resolved = rl.routers() as u64;
    assert!(interfaces > 0, "loop discovered nothing");
    assert!(
        resolved < interfaces,
        "alias stage must collapse the interface view: {resolved} routers \
         vs {interfaces} interfaces"
    );
    assert!(rl.collapse_ratio() < 1.0);
    assert!(rl.pairs_confirmed > 0, "no alias pair ever confirmed");
    assert!(rl.alias_probes > 0, "alias stage never probed");

    // Precision of the inferred graph's multi-member nodes against the
    // simulator's global ground truth.
    let mut inferred = AliasSets::default();
    for node in &rl.graph.nodes {
        if node.len() >= 2 {
            inferred.groups.push(node.clone());
        } else {
            inferred.singletons.push(node[0]);
        }
    }
    let (precision, _recall) = inferred.score(&topo.ground_truth_aliases());
    assert!(precision >= 0.9, "alias precision {precision:.3} below 0.9");

    // Round reports reconcile with the run-level result.
    assert_eq!(
        res.rounds.iter().map(|r| r.alias_probes).sum::<u64>(),
        rl.alias_probes
    );
    assert_eq!(
        res.rounds
            .iter()
            .map(|r| r.alias_pairs_confirmed)
            .sum::<u64>(),
        rl.pairs_confirmed
    );
    assert_eq!(
        res.rounds
            .iter()
            .map(|r| r.alias_pairs_rejected)
            .sum::<u64>(),
        rl.pairs_rejected
    );
    let last = res.rounds.last().unwrap();
    assert_eq!(
        last.routers, resolved,
        "final round must report the final graph"
    );
    // Router counts only ever grow (union-find never splits and
    // ingest never removes).
    assert!(res.rounds.windows(2).all(|w| w[0].routers <= w[1].routers));

    // Alias probes burn the shared budget.
    assert!(res.stats.probes <= alias_cfg().probe_budget);
    assert_eq!(res.stats.probes, res.rounds.iter().map(|r| r.probes).sum());

    // The graph never invents interfaces: every observed member was
    // discovered by the loop, and ground truth over the discovered
    // surface agrees the collapse is real.
    let discovered: Vec<Ipv6Addr> = res.interfaces.iter().collect();
    let gt_routers = topo.ground_truth_router_count(&discovered);
    assert!(
        gt_routers <= interfaces as usize,
        "ground truth can never exceed the interface count"
    );
}

/// The flag's default-off contract: no router-level result, all-zero
/// per-round alias accounting.
#[test]
fn alias_off_yields_no_router_level_view() {
    let (topo, set) = fixture(7, 2);
    let cfg = AdaptiveConfig {
        alias_resolution: false,
        ..alias_cfg()
    };
    let res = run_adaptive_checkpointed(&topo, &set, &cfg, true, |_| {});
    assert!(res.router_level.is_none());
    for r in &res.rounds {
        assert_eq!(r.routers, 0);
        assert_eq!(r.alias_probes, 0);
        assert_eq!(r.alias_pairs_confirmed, 0);
        assert_eq!(r.alias_pairs_rejected, 0);
    }
}

fn assert_same(a: &AdaptiveResult, b: &AdaptiveResult) {
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.round_targets, b.round_targets);
    assert_eq!(a.merged_traces(), b.merged_traces());
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stop, b.stop);
    match (&a.router_level, &b.router_level) {
        (Some(x), Some(y)) => {
            assert_eq!(x.graph, y.graph, "router graphs diverged");
            assert_eq!(x.interfaces, y.interfaces);
            assert_eq!(x.alias_probes, y.alias_probes);
            assert_eq!(x.pairs_confirmed, y.pairs_confirmed);
            assert_eq!(x.pairs_rejected, y.pairs_rejected);
        }
        (None, None) => {}
        _ => panic!("router-level presence diverged"),
    }
}

/// Kill-and-resume with the alias stage on: the builder's union-find,
/// probed set and counters all survive the snapshot, and the resumed
/// run is bit-identical — including the final router graph.
#[test]
fn alias_state_survives_checkpoint_resume_bit_identically() {
    let (topo, set) = fixture(42, 2);
    let cfg = AdaptiveConfig {
        vantages: vec![0, 2],
        probe_budget: 150_000,
        round_targets: 300,
        shards: 2,
        max_rounds: 3,
        feedback: FeedbackParams {
            sixgen_budget: 512,
            ..FeedbackParams::default()
        },
        ..alias_cfg()
    };
    let mut snaps: Vec<Vec<u8>> = Vec::new();
    let full = run_adaptive_checkpointed(&topo, &set, &cfg, false, |ck| {
        snaps.push(ck.to_bytes());
    });
    assert_eq!(snaps.len(), full.rounds.len());
    assert!(
        full.router_level.is_some(),
        "checkpointed run must still build the router-level view"
    );
    assert_same(
        &full,
        &run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {}),
    );

    for (i, bytes) in snaps.iter().enumerate() {
        let ck = Checkpoint::from_bytes(bytes).expect("checkpoint must deserialize");
        assert_eq!(ck.round(), i + 1);
        // The encoding (alias arrays included) round-trips exactly.
        assert_eq!(&ck.to_bytes(), bytes, "snapshot bytes not deterministic");
        let resumed =
            resume_adaptive(&topo, &cfg, &ck, false, |_| {}).expect("resume must be accepted");
        assert_same(&full, &resumed);
        let resumed_par =
            resume_adaptive(&topo, &cfg, &ck, true, |_| {}).expect("resume (parallel)");
        assert_same(&full, &resumed_par);
    }
}
