//! Golden determinism: the template/buffer-reuse hot path must produce
//! records **bit-identical** to the naive pipeline
//! (`testkit::oracle::run_reference`: a packet encoded from scratch per
//! probe, the allocating `Engine::inject`, bookkeeping of its own that
//! shares nothing with `yarrp.rs`) — for every protocol, with the
//! `vary_flow_label` ablation on and off, through fill chains, and on
//! middlebox-heavy topologies where fill chases rewritten quoted targets.
//!
//! The hot path also *looks ahead* in its permutation (a window of
//! probes is resolved inside the engine before any of it is sent) and
//! the reference never does, so the same comparison, extended to the
//! engine's own counters and token buckets, pins that lookahead changes
//! nothing observable: at probe counts on every side of the window, and
//! under fault and adversarial schedules, whose state the lookahead
//! must not touch.

use simnet::config::TopologyConfig;
use simnet::generate::generate;
use simnet::{AdversarialClass, AdversarialSchedule, Engine, FaultSchedule, RouterId, Topology};
use std::net::Ipv6Addr;
use std::sync::Arc;
use testkit::oracle::run_reference;
use v6packet::probe::Protocol;
use yarrp6::yarrp::{self, YarrpConfig};
use yarrp6::{ResponseKind, ResponseRecord};

fn assert_pipelines_match(
    topo: &Arc<Topology>,
    vantage: u8,
    targets: &[Ipv6Addr],
    cfg: &YarrpConfig,
) {
    let (mut hot_engine, mut naive_engine) = (Engine::new(topo.clone()), Engine::new(topo.clone()));
    let hot = yarrp::run(&mut hot_engine, vantage, targets, cfg);
    let naive = run_reference(&mut naive_engine, vantage, targets, cfg);
    let label = format!(
        "proto={} vary_flow_label={} max_ttl={} targets={}",
        cfg.protocol,
        cfg.vary_flow_label,
        cfg.max_ttl,
        targets.len()
    );
    assert_eq!(hot_engine.stats, naive_engine.stats, "stats: {label}");
    assert_eq!(hot_engine.stats.probes, hot.probes_sent, "probes: {label}");
    assert_eq!(
        hot_engine.bucket_suppressed_by_class(),
        naive_engine.bucket_suppressed_by_class(),
        "buckets: {label}"
    );
    assert_eq!(hot.probes_sent, naive.probes_sent, "probes_sent: {label}");
    assert_eq!(hot.fills, naive.fills, "fills: {label}");
    assert_eq!(hot.discarded, naive.discarded, "discarded: {label}");
    assert_eq!(hot.duration_us, naive.duration_us, "duration: {label}");
    assert_eq!(hot.records, naive.records, "records: {label}");
}

#[test]
fn template_pipeline_matches_naive_for_all_protocols() {
    let topo = Arc::new(generate(TopologyConfig::tiny(42)));
    let targets: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(60).collect();
    for protocol in [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp] {
        for vary_flow_label in [false, true] {
            let cfg = YarrpConfig {
                protocol,
                vary_flow_label,
                ..Default::default()
            };
            assert_pipelines_match(&topo, 0, &targets, &cfg);
        }
    }
}

#[test]
fn template_pipeline_matches_naive_through_fill_chains() {
    // Small max_ttl forces fill mode to chase path tails; vantage 1
    // avoids vantage 0's silent-hop quirk that truncates chains.
    let topo = Arc::new(generate(TopologyConfig::tiny(42)));
    let targets: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(40).collect();
    let cfg = YarrpConfig {
        max_ttl: 4,
        ..Default::default()
    };
    let probe = yarrp::run(&mut Engine::new(topo.clone()), 1, &targets, &cfg);
    assert!(probe.fills > 0, "fixture must exercise fill chains");
    assert_pipelines_match(&topo, 1, &targets, &cfg);
}

#[test]
fn template_pipeline_matches_naive_on_middlebox_topology() {
    // Middlebox-fronted ASes rewrite quoted destinations, sending fill
    // chains down the off-template scratch path.
    let mut tcfg = TopologyConfig::tiny(42);
    tcfg.middlebox_milli = 400;
    let topo = Arc::new(generate(tcfg));
    let targets: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(60).collect();
    for vary_flow_label in [false, true] {
        let cfg = YarrpConfig {
            max_ttl: 5,
            vary_flow_label,
            ..Default::default()
        };
        assert_pipelines_match(&topo, 1, &targets, &cfg);
    }
}

#[test]
fn fill_chains_that_leave_the_targets_and_come_back_match() {
    // The prober has one wire template, re-aimed probe by probe. Here a
    // fill chain follows a rewritten quotation to an address that is no
    // target of the campaign, and the next probes are the targets' own
    // again: a template left aimed where the last probe went would show.
    let mut tcfg = TopologyConfig::tiny(42);
    tcfg.middlebox_milli = 400;
    let topo = Arc::new(generate(tcfg));
    let targets: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(60).collect();
    for vary_flow_label in [false, true] {
        let cfg = YarrpConfig {
            max_ttl: 4,
            vary_flow_label,
            ..Default::default()
        };
        let log = run_reference(&mut Engine::new(topo.clone()), 2, &targets, &cfg);
        let sent_at = |r: &ResponseRecord| r.recv_us - r.rtt_us.expect("a quoted probe");
        // A Time Exceeded at fill depth whose quotation names a stranger
        // sends the next fill probe after the stranger.
        let left = log
            .records
            .iter()
            .filter(|r| {
                r.kind == ResponseKind::TimeExceeded
                    && r.probe_ttl.is_some_and(|h| h >= cfg.max_ttl)
                    && !targets.contains(&r.target)
            })
            .map(sent_at)
            .min()
            .expect("fixture: a fill chain must leave the campaign's targets");
        assert!(
            log.records
                .iter()
                .any(|r| targets.contains(&r.target) && r.rtt_us.is_some() && sent_at(r) > left),
            "fixture: probes to the campaign's targets must follow"
        );
        assert_pipelines_match(&topo, 2, &targets, &cfg);
    }
}

#[test]
fn neighborhood_mode_pipelines_match() {
    let topo = Arc::new(generate(TopologyConfig::tiny(42)));
    let targets: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(80).collect();
    // 80 targets x 16 TTLs at 1 kpps is 1.28 virtual seconds: the window
    // has to be well inside that for a TTL to go quiet at all. With only
    // the near hops subject to skipping, nothing new turns up at them
    // once the window has passed; with every TTL subject, the deep ones
    // keep yielding interfaces whose answers are still in flight when
    // their TTL's next probe is due — a receive time ahead of the send
    // clock, which the two sides account for in code they do not share.
    for skip_up_to in [4, 16] {
        let cfg = YarrpConfig {
            neighborhood: Some(yarrp::Neighborhood {
                max_ttl: skip_up_to,
                window_us: 200_000,
            }),
            ..Default::default()
        };
        let log = yarrp::run(&mut Engine::new(topo.clone()), 0, &targets, &cfg);
        let main_sequence = log.probes_sent - log.fills;
        assert!(
            main_sequence < targets.len() as u64 * cfg.max_ttl as u64,
            "fixture must skip probes: sent {main_sequence} of {} x {}",
            targets.len(),
            cfg.max_ttl
        );
        assert_pipelines_match(&topo, 0, &targets, &cfg);
    }
}

/// The prober's lookahead window (`LOOKAHEAD` in `yarrp.rs`, private).
const WINDOW: usize = 64;

#[test]
fn probe_counts_on_every_side_of_the_lookahead_window_match() {
    // One TTL per target makes the probe count the target count: none,
    // one, a window less one, exactly one, one more, and three and a
    // bit. With fill mode on, every answered probe starts a fill chain
    // (its TTL is already `max_ttl`), so fill probes land between the
    // looked-ahead ones throughout.
    let topo = Arc::new(generate(TopologyConfig::tiny(42)));
    let hosts: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).collect();
    for n in [0, 1, WINDOW - 1, WINDOW, WINDOW + 1, 3 * WINDOW + 5] {
        for fill_mode in [false, true] {
            let cfg = YarrpConfig {
                max_ttl: 1,
                fill_mode,
                ..Default::default()
            };
            assert_pipelines_match(&topo, 1, &hosts[..n], &cfg);
        }
    }
    // And a whole number of TTLs per target that the window does not
    // divide: the last window is short, and targets straddle windows.
    let cfg = YarrpConfig {
        max_ttl: 7,
        ..Default::default()
    };
    assert_pipelines_match(&topo, 0, &hosts[..WINDOW + 1], &cfg);
}

#[test]
fn per_probe_flows_survive_skipped_probes_across_windows() {
    // Under `vary_flow_label` every probe has a flow of its own, opened
    // where it is sent, while the look-ahead warms the targets' flows —
    // with neighborhood mode skipping positions, fill probes going out
    // in between, and the last window short.
    let topo = Arc::new(generate(TopologyConfig::tiny(42)));
    let hosts: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).collect();
    for (n, max_ttl) in [(WINDOW + 1, 1), (3 * WINDOW + 5, 1), (13, 5)] {
        for fill_mode in [false, true] {
            let cfg = YarrpConfig {
                max_ttl,
                fill_mode,
                vary_flow_label: true,
                neighborhood: Some(yarrp::Neighborhood {
                    max_ttl,
                    window_us: 40_000,
                }),
                ..Default::default()
            };
            let log = yarrp::run(&mut Engine::new(topo.clone()), 1, &hosts[..n], &cfg);
            let main_sequence = log.probes_sent - log.fills;
            assert!(
                main_sequence < (n * max_ttl as usize) as u64,
                "fixture must skip probes: sent {main_sequence} of {n} x {max_ttl}"
            );
            assert_pipelines_match(&topo, 1, &hosts[..n], &cfg);
        }
    }
}

#[test]
fn pipelines_match_under_a_fault_schedule() {
    // A vantage outage and a flapping first-hop link, both inside the
    // campaign's span (80 targets x 16 TTLs at 1 kpps is 1.28 s).
    let mut tcfg = TopologyConfig::tiny(42);
    let first_hop = generate(tcfg.clone()).vantages[0].onprem[0];
    tcfg.faults = FaultSchedule::default()
        .with_vantage_outage(0, 200_000, 400_000)
        .with_link_flap(first_hop, 600_000, 1_000_000, 50_000);
    let topo = Arc::new(generate(tcfg));
    let targets: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(80).collect();
    let cfg = YarrpConfig::default();
    let mut e = Engine::new(topo.clone());
    yarrp::run(&mut e, 0, &targets, &cfg);
    assert!(
        e.stats.fault_vantage_outage > 0 && e.stats.fault_link_flap > 0,
        "fixture must fire both faults: {:?}",
        e.stats
    );
    assert_pipelines_match(&topo, 0, &targets, &cfg);
}

#[test]
fn pipelines_match_under_an_adversarial_schedule() {
    // Every seventh router hostile, cycling through all five classes.
    let mut tcfg = TopologyConfig::tiny(42);
    let routers = generate(tcfg.clone()).routers.len();
    tcfg.adversarial = (0..routers)
        .step_by(7)
        .zip(AdversarialClass::ALL.iter().cycle())
        .fold(AdversarialSchedule::default(), |s, (r, &class)| {
            s.with_hostile_always(RouterId(r as u32), class)
        });
    let topo = Arc::new(generate(tcfg));
    let targets: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(120).collect();
    let mut fired = simnet::EngineStats::default();
    for vantage in 0..3 {
        let cfg = YarrpConfig::default();
        let mut e = Engine::new(topo.clone());
        yarrp::run(&mut e, vantage, &targets, &cfg);
        fired.merge(&e.stats);
        assert_pipelines_match(&topo, vantage, &targets, &cfg);
    }
    let by_class = [
        fired.adv_lying_ttl,
        fired.adv_spoofed_source,
        fired.adv_zombie_echo,
        fired.adv_duplicate_storm,
        fired.adv_garbage,
    ];
    assert!(
        by_class.iter().all(|&n| n > 0),
        "fixture must fire all five classes: {by_class:?}"
    );
}

#[test]
fn neighborhood_window_shorter_than_a_round_trip_does_not_underflow() {
    // `last_new` holds a *receive* time, which for one round trip lies
    // ahead of the send clock: the idle time is then zero, not negative.
    // With one TTL per target every probe asks the same first hop, which
    // is new exactly once, so the main sequence is sent for as long as
    // the first answer's receive time plus the window lasts.
    let topo = Arc::new(generate(TopologyConfig::tiny(42)));
    let hosts: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(200).collect();
    let (window_us, interval_us) = (500, 100);
    let cfg = YarrpConfig {
        max_ttl: 1,
        fill_mode: false,
        rate_pps: 1_000_000 / interval_us,
        neighborhood: Some(yarrp::Neighborhood {
            max_ttl: 1,
            window_us,
        }),
        ..Default::default()
    };
    let log = yarrp::run(&mut Engine::new(topo.clone()), 1, &hosts, &cfg);
    // The only new interface: the answer to the earliest-sent probe.
    let first = log
        .records
        .iter()
        .min_by_key(|r| r.recv_us - r.rtt_us.expect("a Time Exceeded quotes its probe"))
        .expect("the first hop answers");
    assert!(
        log.records.iter().all(|r| r.responder == first.responder),
        "fixture: one first hop"
    );
    assert!(
        first.recv_us > window_us + interval_us,
        "fixture: the window must be shorter than a round trip"
    );
    // Probe k goes out at k * interval: sent while that is within the
    // window of the only new interface, skipped from then on.
    assert_eq!(
        log.probes_sent,
        (first.recv_us + window_us) / interval_us + 1
    );
    assert!(
        log.probes_sent < hosts.len() as u64,
        "fixture: the rest is skipped"
    );
    assert_pipelines_match(&topo, 1, &hosts, &cfg);
}
