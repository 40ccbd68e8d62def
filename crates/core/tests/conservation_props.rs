//! Conservation across the simulator and the probers, under random
//! faults and adversaries: every probe a prober sends ends in exactly
//! one `EngineStats` bucket, and every reply the engine emits comes out
//! of the prober as a record or as a counted decode rejection — for
//! Yarrp6 (fill on and off), the sequential prober and Doubletree, in
//! all three protocols.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simnet::config::TopologyConfig;
use simnet::generate::generate;
use simnet::{AdversarialClass, AdversarialSchedule, Engine, EngineStats, FaultSchedule, RouterId};
use std::net::Ipv6Addr;
use std::sync::{Arc, OnceLock};
use v6packet::probe::Protocol;
use yarrp6::doubletree::{self, DoubletreeConfig};
use yarrp6::sequential::{self, SequentialConfig};
use yarrp6::yarrp::{self, YarrpConfig};
use yarrp6::ProbeLog;

/// Fast enough to drain token buckets, slow enough that a campaign
/// spans the fault windows below.
const RATE_PPS: u64 = 5_000;
/// Fault and hostility windows start and end within this span; the
/// campaigns below run for about half of it.
const SPAN_US: u64 = 600_000;

fn base() -> TopologyConfig {
    TopologyConfig::tiny(7)
}

/// The schedules name routers, so the layout has to exist first; it
/// does not depend on the schedules and regenerates unchanged.
fn router_count() -> u32 {
    static N: OnceLock<u32> = OnceLock::new();
    *N.get_or_init(|| generate(base()).routers.len() as u32)
}

fn protocols() -> impl Strategy<Value = Protocol> {
    prop_oneof![
        Just(Protocol::Icmp6),
        Just(Protocol::Udp),
        Just(Protocol::Tcp)
    ]
}

/// Hosts spread over the whole topology, each with an off-host
/// neighbour in the same /64, so destination-zone policy answers and
/// silences occur next to host replies.
fn targets(topo: &simnet::Topology) -> Vec<Ipv6Addr> {
    let hosts: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).collect();
    hosts
        .iter()
        .step_by((hosts.len() / 40).max(1))
        .flat_map(|&h| [h, Ipv6Addr::from(u128::from(h) ^ 0x5a5a)])
        .collect()
}

fn assert_conserved(what: &str, stats: &EngineStats, log: &ProbeLog) -> Result<(), TestCaseError> {
    prop_assert_eq!(stats.check(), Ok(()), "{}", what);
    prop_assert_eq!(stats.probes, log.probes_sent, "{}", what);
    prop_assert_eq!(
        stats.responses(),
        log.records.len() as u64 + log.discarded,
        "{}: replies emitted != records + decode-rejected ({:?})",
        what,
        log.decode_errors
    );
    prop_assert_eq!(log.discarded, log.decode_errors.total(), "{}", what);
    Ok(())
}

proptest! {
    #[test]
    fn every_probe_and_every_reply_is_accounted(
        hostile in prop::collection::vec((any::<u32>(), 0usize..5, 0u64..SPAN_US), 0..48),
        links in prop::collection::vec(
            ((any::<u32>(), any::<bool>()), 0u64..SPAN_US, 0u64..SPAN_US, 1_000u64..50_000),
            0..4,
        ),
        downs in prop::collection::vec((any::<u32>(), 0u64..SPAN_US), 0..6),
        outage in (0u8..3, 0u64..SPAN_US, 0u64..SPAN_US / 4),
        vantage in 0u8..3,
        protocol in protocols(),
        fill_mode: bool,
    ) {
        let n = router_count();
        let mut cfg = base();
        cfg.adversarial = hostile.iter().fold(
            AdversarialSchedule::default(),
            |s, &(r, class, from)| {
                s.with_hostile(RouterId(r % n), AdversarialClass::ALL[class], from, u64::MAX)
            },
        );
        cfg.faults = links.iter().fold(
            FaultSchedule::default().with_vantage_outage(outage.0, outage.1, outage.1 + outage.2),
            |s, &((r, flap), from, len, period)| {
                // A zero period is a blackhole.
                s.with_link_flap(RouterId(r % n), from, from + len, if flap { period } else { 0 })
            },
        );
        cfg.faults = downs.iter().fold(cfg.faults, |s, &(r, after)| {
            s.with_responder_down(RouterId(r % n), after)
        });
        let topo = Arc::new(generate(cfg));
        let targets = targets(&topo);

        let mut e = Engine::new(topo.clone());
        let ycfg = YarrpConfig { protocol, fill_mode, rate_pps: RATE_PPS, ..Default::default() };
        let log = yarrp::run(&mut e, vantage, &targets, &ycfg);
        assert_conserved("yarrp6", &e.stats, &log)?;

        let mut e = Engine::new(topo.clone());
        let scfg = SequentialConfig { protocol, rate_pps: RATE_PPS, ..Default::default() };
        let log = sequential::run(&mut e, vantage, &targets, &scfg);
        assert_conserved("sequential", &e.stats, &log)?;

        let mut e = Engine::new(topo);
        let dcfg = DoubletreeConfig { protocol, rate_pps: RATE_PPS };
        let log = doubletree::run(&mut e, vantage, &targets, &dcfg);
        assert_conserved("doubletree", &e.stats, &log)?;
    }
}
