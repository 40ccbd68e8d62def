//! Quarantine under fire: for **every** hostile responder class the
//! simulator can schedule, the quarantine stage must be deterministic
//! (serial == parallel streaming, repeat runs bit-identical) and must
//! never let a fabricated interface through — every surviving interface
//! address resolves to a real router of the topology.
//!
//! The clean-input contract rides along: quarantining a campaign with
//! no hostile responders returns the input itself, borrowed.

use analysis::{quarantine_all, CampaignRunner, QuarantineConfig, TraceSet};
use simnet::config::TopologyConfig;
use simnet::{AdversarialClass, AdversarialSchedule, Topology};
use std::borrow::Cow;
use std::net::Ipv6Addr;
use std::sync::Arc;
use targets::TargetSet;
use yarrp6::sink::StreamConfig;

/// Marks every `stride`-th router permanently hostile, cycling through
/// `classes`, and returns the poisoned topology.
fn hostile_topology(seed: u64, classes: &[AdversarialClass], stride: usize) -> Arc<Topology> {
    let base = TopologyConfig::tiny(seed);
    let clean = simnet::generate::generate(base.clone());
    let mut sched = AdversarialSchedule::default();
    let mut k = 0usize;
    for r in 0..clean.routers.len() {
        if r % stride == 0 {
            sched =
                sched.with_hostile_always(simnet::RouterId(r as u32), classes[k % classes.len()]);
            k += 1;
        }
    }
    let mut cfg = base;
    cfg.adversarial = sched;
    Arc::new(simnet::generate::generate(cfg))
}

fn targets_of(topo: &Topology, n: usize) -> TargetSet {
    let addrs: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(n).collect();
    TargetSet::new("q-adv", addrs)
}

fn run_all(topo: &Arc<Topology>, set: &TargetSet, parallel: bool) -> Vec<TraceSet> {
    CampaignRunner::new(topo)
        .targets(set)
        .vantages(&[0, 1, 2])
        .streaming(StreamConfig {
            chunk_records: 64,
            channel_chunks: 2,
        })
        .parallel(parallel)
        .run()
        .expect("hostile responders do not fail campaigns")
        .runs
        .into_iter()
        .map(|r| r.traces)
        .collect()
}

/// Every interface address a cleaned set still carries must belong to a
/// real router of the topology — zero fabricated interfaces.
fn assert_no_fabricated(topo: &Topology, sets: &[Cow<'_, TraceSet>], label: &str) {
    for set in sets {
        for addr in set.interface_addrs() {
            assert!(
                topo.router_by_iface(addr).is_some(),
                "{label}: fabricated interface {addr} survived quarantine"
            );
            assert_ne!(
                addr.octets()[0],
                0xfd,
                "{label}: spoofed-source address {addr} survived"
            );
        }
    }
}

#[test]
fn every_class_is_deterministic_and_yields_no_fabricated_interfaces() {
    for (i, class) in AdversarialClass::ALL.into_iter().enumerate() {
        let topo = hostile_topology(9000 + i as u64, &[class], 4);
        let set = targets_of(&topo, 200);
        let cfg = QuarantineConfig::default();

        let serial = run_all(&topo, &set, false);
        let parallel = run_all(&topo, &set, true);
        assert_eq!(serial, parallel, "{class:?}: serial != parallel streaming");

        let refs: Vec<&TraceSet> = serial.iter().collect();
        let prefs: Vec<&TraceSet> = parallel.iter().collect();
        let (clean_s, rep_s) = quarantine_all(&refs, &cfg);
        let (clean_p, rep_p) = quarantine_all(&prefs, &cfg);
        assert_eq!(clean_s, clean_p, "{class:?}: quarantine output diverged");
        assert_eq!(rep_s, rep_p, "{class:?}: quarantine report diverged");

        // Repeat run from scratch: bit-identical, interner ids and all.
        let again = run_all(&topo, &set, false);
        let arefs: Vec<&TraceSet> = again.iter().collect();
        let (clean_a, rep_a) = quarantine_all(&arefs, &cfg);
        assert_eq!(clean_s, clean_a, "{class:?}: repeat run diverged");
        assert_eq!(rep_s, rep_a, "{class:?}: repeat report diverged");
        for (a, b) in clean_s.iter().zip(&clean_a) {
            assert_eq!(
                a.interner().words(),
                b.interner().words(),
                "{class:?}: interner id assignment diverged"
            );
        }

        assert_no_fabricated(&topo, &clean_s, &format!("{class:?}"));
    }
}

#[test]
fn mixed_classes_pooled_across_vantages() {
    let topo = hostile_topology(9100, &AdversarialClass::ALL, 5);
    let set = targets_of(&topo, 250);
    let sets = run_all(&topo, &set, false);
    let refs: Vec<&TraceSet> = sets.iter().collect();
    let (cleaned, report) = quarantine_all(&refs, &QuarantineConfig::default());
    // A fleet this hostile must trip at least one rule.
    assert!(
        !report.is_clean(),
        "a topology with every fifth router hostile produced a clean report"
    );
    assert_no_fabricated(&topo, &cleaned, "mixed");
    // The merged cleaned union stays fabricated-free too.
    let merged = TraceSet::merge_all(cleaned.iter().map(|c| &**c));
    assert_no_fabricated(&topo, &[Cow::Owned(merged)], "merged");
}

#[test]
fn clean_campaigns_pass_through_bit_identical() {
    let base = TopologyConfig::tiny(9200);
    let topo = Arc::new(simnet::generate::generate(base));
    let set = targets_of(&topo, 200);
    let sets = run_all(&topo, &set, false);
    let cfg = QuarantineConfig::default();
    for ts in &sets {
        let (cleaned, report) = quarantine_all(&[ts], &cfg);
        assert!(report.is_clean(), "clean campaign flagged: {report:?}");
        assert!(matches!(cleaned[0], Cow::Borrowed(s) if std::ptr::eq(s, ts)));
    }
}
