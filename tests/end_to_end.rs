//! End-to-end integration: synthetic Internet → seeds → targets →
//! Yarrp6 campaign → analysis. Each test pins a mechanism that crosses
//! crate boundaries against the topology's ground truth. The paper's
//! claims are stated once, on `beholder_bench`'s scorecard
//! (`crates/bench/tests/scorecard.rs`).

use beholder::prelude::*;
use std::sync::Arc;

fn fixture() -> (Arc<Topology>, SeedCatalog, TargetCatalog) {
    let topo = Arc::new(beholder::net::generate::generate(TopologyConfig::tiny(
        4242,
    )));
    let seeds = SeedCatalog::synthesize(&topo, 4242);
    let targets = TargetCatalog::build(&seeds, IidStrategy::FixedIid);
    (topo, seeds, targets)
}

#[test]
fn full_pipeline_discovers_topology() {
    let (topo, _, catalog) = fixture();
    let set = catalog.get("combined-z64").unwrap();
    let res = run_campaign(&topo, 0, set, &YarrpConfig::default());
    let ifaces = res.log.interface_addrs();
    assert!(
        ifaces.len() > 100,
        "combined campaign found only {} interfaces",
        ifaces.len()
    );
    // Every discovered interface is a real router response address.
    let truth: std::collections::BTreeSet<_> = topo.router_addrs().collect();
    for a in &ifaces {
        assert!(truth.contains(a), "phantom interface {a}");
    }
}

#[test]
fn cdn_campaign_reveals_eui64_cpe_cloud() {
    let (topo, _, catalog) = fixture();
    let set = catalog.get("cdn-k32-z64").unwrap();
    let res = run_campaign(&topo, 0, set, &YarrpConfig::default());
    // The EUI-64 interfaces carry the configured CPE manufacturers' OUIs.
    let ouis: std::collections::BTreeSet<u32> = res
        .log
        .interface_addrs()
        .into_iter()
        .filter_map(|a| beholder::addr::iid::eui64_oui(u128::from(a) as u64))
        .collect();
    let configured: std::collections::BTreeSet<u32> =
        topo.config.cpe_isps.iter().map(|c| c.oui).collect();
    assert!(
        ouis.iter().filter(|o| configured.contains(o)).count() >= 1,
        "no configured OUI among discovered EUI-64 addresses"
    );
}

#[test]
fn subnet_inference_agrees_with_ground_truth() {
    let (topo, _, catalog) = fixture();
    let set = catalog.get("combined-z64").unwrap();
    let res = run_campaign(&topo, 1, set, &YarrpConfig::default());
    let ts = TraceSet::from_log(&res.log);
    let resolver = AsnResolver::new(
        topo.bgp.clone(),
        topo.rir_extra.clone(),
        &topo.asn_equivalences,
    );
    let vantage_asn = topo.ases[topo.vantages[1].as_idx as usize].asn;
    let cands = discover_by_path_div(&ts, &resolver, vantage_asn, &PathDivParams::default());
    assert!(!cands.is_empty(), "no subnets inferred");
    // Every candidate must be covered by some announced prefix or be a
    // plausible bound within one (sanity: inference never invents space
    // outside what was probed).
    for c in cands.iter().take(200) {
        assert!(
            topo.bgp.is_routed(c.prefix.base()),
            "candidate {} outside routed space",
            c.prefix
        );
    }
    // IA-hack /64s correspond to real LAN gateways (prefix::1 responded).
    let ia = ia_hack(&ts);
    for c in ia.iter().take(100) {
        assert_eq!(c.prefix.len(), 64);
        assert!(c.exact);
    }
}

#[test]
fn engine_stats_match_prober_view() {
    let (topo, _, catalog) = fixture();
    let set = catalog.get("caida-z64").unwrap();
    let res = run_campaign(&topo, 2, set, &YarrpConfig::default());
    // The engine saw exactly the probes the prober sent.
    assert_eq!(res.engine_stats.probes, res.log.probes_sent);
    // Every response the engine emitted was recorded or counted as
    // rejected by the decoder.
    assert_eq!(
        res.engine_stats.responses(),
        res.log.records.len() as u64 + res.log.discarded
    );
}

#[test]
fn middlebox_rewrites_detected_and_quarantined() {
    // The default config deploys NPTv6-style middleboxes in ~2% of stub
    // ASes; Yarrp6's target checksum must flag their rewritten
    // quotations, and trace reconstruction must quarantine them rather
    // than fabricate traces toward addresses never probed.
    let (topo, _, catalog) = fixture();
    let set = catalog.get("combined-z64").unwrap();
    let res = run_campaign(&topo, 0, set, &YarrpConfig::default());
    let flagged = res
        .log
        .records
        .iter()
        .filter(|r| !r.target_cksum_ok)
        .count() as u64;
    let ts = TraceSet::from_log(&res.log);
    assert_eq!(ts.rewritten_dropped, flagged);
    // No reconstructed trace may reference an unprobed target.
    let probed: std::collections::BTreeSet<_> = set.addrs.iter().copied().collect();
    for t in ts.targets() {
        assert!(probed.contains(t), "fabricated trace toward {t}");
    }
    // With middleboxes disabled, every checksum verifies.
    let mut cfg = beholder::net::config::TopologyConfig::tiny(4242);
    cfg.middlebox_milli = 0;
    let clean_topo = Arc::new(beholder::net::generate::generate(cfg));
    let clean_seeds = SeedCatalog::synthesize(&clean_topo, 4242);
    let clean_catalog = TargetCatalog::build(&clean_seeds, IidStrategy::FixedIid);
    let clean = run_campaign(
        &clean_topo,
        0,
        clean_catalog.get("dnsdb-z64").unwrap(),
        &YarrpConfig::default(),
    );
    assert!(clean.log.records.iter().all(|r| r.target_cksum_ok));
}
