//! Integration tests that pin the paper's *qualitative claims* — the
//! shapes its tables and figures report — at test scale, on fixtures of
//! their own. The table-by-table scorecard is `beholder_bench`'s `repro`
//! (tier-1: `crates/bench/tests/scorecard.rs`).

use beholder::prelude::*;
use std::sync::Arc;
use yarrp6::sequential::{self, SequentialConfig};
use yarrp6::yarrp;

fn fixture() -> (Arc<Topology>, TargetCatalog) {
    let topo = Arc::new(beholder::net::generate::generate(TopologyConfig::tiny(
        1818,
    )));
    let seeds = SeedCatalog::synthesize(&topo, 1818);
    let targets = TargetCatalog::build(&seeds, IidStrategy::FixedIid);
    (topo, targets)
}

/// §4.2 / Fig 5: randomization preserves near-hop responsiveness at high
/// rates; sequential probing loses it.
#[test]
fn randomization_beats_sequential_at_high_rate() {
    let (topo, catalog) = fixture();
    // The burst must exceed the near-hop bucket depth: use the combined
    // set (the tiny-scale caida set alone is too small to drain it).
    let set = catalog.get("combined-z64").unwrap();
    let rate = 2_000;

    let mut e = Engine::new(topo.clone());
    let seq = sequential::run(
        &mut e,
        1,
        &set.addrs,
        &SequentialConfig {
            rate_pps: rate,
            gap_limit: 16,
            ..Default::default()
        },
    );
    let mut e = Engine::new(topo.clone());
    let yar = yarrp::run(
        &mut e,
        1,
        &set.addrs,
        &YarrpConfig {
            rate_pps: rate,
            fill_mode: false,
            ..Default::default()
        },
    );
    let hop1 = |log: &ProbeLog| {
        analysis::metrics::hop_responsiveness(log, 3)
            .first()
            .copied()
            .unwrap_or(0.0)
    };
    assert!(hop1(&yar) > 0.8, "yarrp hop1 {}", hop1(&yar));
    assert!(hop1(&seq) < 0.4, "sequential hop1 {}", hop1(&seq));
}

/// §4.2: at low rate the two strategies are equivalent.
#[test]
fn low_rate_equivalence() {
    let (topo, catalog) = fixture();
    let set = catalog.get("caida-z64").unwrap();
    let mut e = Engine::new(topo.clone());
    let seq = sequential::run(
        &mut e,
        1,
        &set.addrs,
        &SequentialConfig {
            rate_pps: 20,
            gap_limit: 16,
            ..Default::default()
        },
    );
    let mut e = Engine::new(topo.clone());
    let yar = yarrp::run(
        &mut e,
        1,
        &set.addrs,
        &YarrpConfig {
            rate_pps: 20,
            fill_mode: false,
            ..Default::default()
        },
    );
    let s = seq.interface_addrs().len() as f64;
    let y = yar.interface_addrs().len() as f64;
    assert!(
        (s - y).abs() / y.max(1.0) < 0.1,
        "low-rate divergence: seq {s} vs yarrp {y}"
    );
}

/// Table 6: fill mode recovers most of the discovery of a large max TTL
/// at a fraction of the probes.
#[test]
fn fill_mode_efficiency() {
    let (topo, catalog) = fixture();
    let set = catalog.get("caida-z64").unwrap();
    let full = run_campaign(
        &topo,
        1,
        set,
        &YarrpConfig {
            max_ttl: 32,
            fill_mode: false,
            ..Default::default()
        },
    );
    let filled = run_campaign(
        &topo,
        1,
        set,
        &YarrpConfig {
            max_ttl: 16,
            fill_mode: true,
            fill_max_ttl: 32,
            ..Default::default()
        },
    );
    let f = filled.log.interface_addrs().len() as f64;
    let full_n = full.log.interface_addrs().len() as f64;
    assert!(f >= 0.9 * full_n, "fill mode found {f} vs full {full_n}");
    assert!(
        filled.log.probes_sent < full.log.probes_sent * 3 / 4,
        "fill mode probes {} not cheaper than {}",
        filled.log.probes_sent,
        full.log.probes_sent
    );
}

/// Fig 3: fiebig is dense (high DPL), caida sparse; combination shifts
/// caida right but leaves fiebig unchanged.
#[test]
fn dpl_shapes() {
    let (_, catalog) = fixture();
    let fiebig = catalog.get("fiebig-z64").unwrap();
    let caida = catalog.get("caida-z64").unwrap();
    let f_alone = fiebig.dpl_cdf();
    let c_alone = caida.dpl_cdf();
    assert!(
        f_alone.median().unwrap() > c_alone.median().unwrap(),
        "fiebig must be denser than caida"
    );
    let combined = TargetSet::union("both", &[fiebig, caida]);
    let c_comb = caida.dpl_cdf_within(&combined);
    let f_comb = fiebig.dpl_cdf_within(&combined);
    assert!(c_comb.mean().unwrap() >= c_alone.mean().unwrap());
    // Fiebig's dense clusters are barely interleaved by caida.
    assert!((f_comb.mean().unwrap() - f_alone.mean().unwrap()).abs() < 2.0);
}

/// Table 5: the fiebig (rDNS) set carries stale, unrouted targets.
#[test]
fn fiebig_staleness_visible_in_targets() {
    let (topo, catalog) = fixture();
    let set = catalog.get("fiebig-z64").unwrap();
    let unrouted = set
        .addrs
        .iter()
        .filter(|a| !topo.bgp.is_routed(**a))
        .count();
    assert!(unrouted > 0, "fiebig lost its stale entries");
}

/// §5 / Table 7: vantage diversity pays — the union of the three
/// vantages discovers at least 1.2x the unique interfaces of the best
/// single vantage, at equal per-vantage budget, deterministically
/// under a fixed seed.
#[test]
fn vantage_union_beats_best_single_vantage() {
    let topo = Arc::new(beholder::net::generate::generate(TopologyConfig::tiled(
        2026, 3,
    )));
    let addrs: Vec<std::net::Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(600).collect();
    let set = TargetSet::new("vantage-union", addrs);
    // Equal per-vantage budget by construction: same set, same config
    // (fill mode off, so every vantage spends exactly targets × max_ttl).
    // max_ttl 12 is a mid-path budget: the simulated Internet is shallow
    // enough that TTL 16 lets every vantage exhaust the shared core.
    let yarrp = YarrpConfig {
        fill_mode: false,
        max_ttl: 12,
        ..YarrpConfig::default()
    };
    let run_sweep = || {
        CampaignRunner::new(&topo)
            .targets(&set)
            .vantages(&[0, 1, 2])
            .config(yarrp)
            .parallel(true)
            .run()
            .expect("clean sweep completes")
    };
    let sweep = run_sweep();
    let per = || sweep.runs.iter().map(|r| &r.traces);
    let union = vantage_union_count(per());
    let rows = vantage_contributions(per());
    let best = rows.iter().map(|r| r.interfaces).max().unwrap();
    assert!(
        union as f64 >= 1.2 * best as f64,
        "union {union} must be at least 1.2x the best single vantage {best}"
    );
    // Every vantage contributes something only it saw (the paper's
    // per-vantage exclusive columns are all nonzero).
    for r in &rows {
        assert!(r.exclusive > 0, "vantage {} has no exclusives", r.vantage);
    }
    // Determinism of the claim: a repeat run reproduces the exact
    // counts (virtual time, engine-isolated campaigns).
    let again = run_sweep();
    assert_eq!(sweep.merged(), again.merged());
    assert_eq!(
        union,
        vantage_union_count(again.runs.iter().map(|r| &r.traces))
    );
}

/// §5.1: one vantage with a synthesized target catalog out-discovers an
/// Ark-style ::1-per-prefix system by a wide margin.
#[test]
fn beats_production_style_mapping() {
    let (topo, catalog) = fixture();
    let caida = catalog.get("caida-z64").unwrap();
    let mut e = Engine::new(topo.clone());
    let ark = sequential::run(
        &mut e,
        0,
        &caida.addrs,
        &SequentialConfig {
            rate_pps: 100,
            ..Default::default()
        },
    );
    // "Our" strategy: yarrp6 over the two most powerful synthesized
    // sets, one vantage (as in §5.3's comparison).
    let mut ours = std::collections::BTreeSet::new();
    for name in ["cdn-k32-z64", "tum-z64"] {
        let res = run_campaign(
            &topo,
            0,
            catalog.get(name).unwrap(),
            &YarrpConfig::default(),
        );
        ours.extend(res.log.interface_addrs());
    }
    assert!(
        ours.len() > 2 * ark.interface_addrs().len(),
        "ours {} vs ark-style {}",
        ours.len(),
        ark.interface_addrs().len()
    );
}
