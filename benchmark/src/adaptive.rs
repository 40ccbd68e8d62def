//! `loop` and `hostile`: the everything-on adaptive discovery loop,
//! once on a clean network and once with hostile edge routers, a dead
//! vantage and a flapping link, so the same layers run off their fast
//! path.

use crate::alloc;
use crate::measure::{quartiles, Tracer};
use crate::work::{
    digest, fabricated, median_wall, per, Checks, LayerValue, Rep, RoundSample, Scale, Summary,
    Workload, TOPOLOGY_SEED,
};
use aliasres::{resolve_aliases_supervised, AliasSets, RouterGraphBuilder};
use analysis::{
    discover_by_path_div, ia_hack, quarantine_all, stream_campaigns_supervised, AsnResolver,
    PathDivParams, TraceSet,
};
use beholder::adaptive::{run_adaptive_checkpointed, AdaptiveConfig, AdaptiveResult};
use beholder::checkpoint::Checkpoint;
use seeds::feedback::{feedback_list, FeedbackParams};
use seeds::sources::SeedCatalog;
use simnet::config::TopologyConfig;
use simnet::flow::mix64;
use simnet::topology::{RouterId, RouterRole};
use simnet::{AdversarialClass, AdversarialSchedule, FaultSchedule, Topology};
use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::Instant;
use targets::{feedback_targets, stride_sample, synthesize::synthesize, IidStrategy, TargetSet};
use yarrp6::addrset::AddrSet;
use yarrp6::campaign::{CampaignSpec, RetryPolicy};
use yarrp6::YarrpConfig;

/// Virtual time at which vantage 1 dies for good and the link flap
/// starts: the middle of round 0, so the supervisor sees the outage
/// begin, retries into it, and the budgeter renormalises afterwards.
const FAULTS_FROM_US: u64 = 2_000_000;
const FLAP_PERIOD_US: u64 = 100_000;

pub struct Adaptive {
    hostile: bool,
    topo: Arc<Topology>,
    seed_set: TargetSet,
    cfg: AdaptiveConfig,
}

pub struct Output {
    res: AdaptiveResult,
    rounds: Vec<RoundSample>,
    last_checkpoint: Vec<u8>,
}

impl Adaptive {
    pub fn setup(scale: Scale, seed: u64, hostile: bool) -> Self {
        let (tiles, budget) = match scale {
            Scale::Full => (24, 5_000_000),
            Scale::Smoke => (2, 120_000),
        };
        let mut tc = TopologyConfig::tiled(TOPOLOGY_SEED, tiles);
        if hostile {
            // The schedules name routers, so the layout has to exist
            // first; it does not depend on the schedules and is
            // regenerated unchanged below.
            let layout = simnet::generate::generate(tc.clone());
            tc.adversarial = hostile_edge(&layout);
            tc.faults = FaultSchedule::default()
                .with_vantage_outage(1, FAULTS_FROM_US, u64::MAX)
                .with_link_flap(
                    RouterId(layout.routers.len() as u32 / 2),
                    FAULTS_FROM_US,
                    u64::MAX,
                    FLAP_PERIOD_US,
                );
        }
        let topo = Arc::new(simnet::generate::generate(tc));
        let catalog = SeedCatalog::synthesize(&topo, seed);
        // The combined list reaches host space, so paths cross the
        // LAN-gateway and CPE edge where the hostile routers live.
        let z64 = targets::zn(&catalog.combined, 64);
        let seed_set = synthesize("adaptive-r0", &z64, IidStrategy::FixedIid);

        let yarrp = YarrpConfig {
            fill_mode: false,
            perm_seed: seed,
            ..YarrpConfig::default()
        };
        let vantages = vec![0u8, 1, 2];
        let max_rounds = 8;
        let per_target = yarrp.max_ttl as u64 * vantages.len() as u64;
        let round_targets = ((budget / per_target) as usize / max_rounds).max(1);
        let cfg = AdaptiveConfig {
            yarrp,
            vantages,
            vantage_budgeting: true,
            probe_budget: budget,
            round_targets,
            shards: 4,
            max_rounds,
            min_yield_per_kprobes: 0.0,
            rng_seed: seed,
            // Enough 6Gen draws that feedback can fill every round; the
            // default would starve the loop after round 1.
            feedback: FeedbackParams {
                sixgen_budget: (2 * round_targets).max(2_048),
                ..FeedbackParams::default()
            },
            path_div: Some(PathDivParams::default()),
            retry: RetryPolicy {
                max_retries: 1,
                base_backoff_us: 250_000,
                retry_blackout: true,
            },
            quarantine_feedback: true,
            alias_resolution: true,
            ..AdaptiveConfig::default()
        };
        Adaptive {
            hostile,
            topo,
            seed_set,
            cfg,
        }
    }

    fn name(&self) -> &'static str {
        if self.hostile {
            "hostile"
        } else {
            "loop"
        }
    }

    /// Times each loop stage's public function on the inputs the fused
    /// run recorded: every round's exact target list and per-vantage
    /// allocation. Returns the replay's own counts, which the layer
    /// metrics are divided by.
    fn replay(&self, fused: &AdaptiveResult, tr: &mut Tracer) -> ReplayCounts {
        let cfg = &self.cfg;
        let topo = &self.topo;
        let shards = cfg.shards.max(1);
        let resolver = AsnResolver::new(
            topo.bgp.clone(),
            topo.rir_extra.clone(),
            &topo.asn_equivalences,
        );
        let params = cfg.path_div.expect("path divergence is on");
        let mut c = ReplayCounts::default();
        let mut vclock_us = 0u64;
        let mut seen = AddrSet::new();
        let mut clean_seen = AddrSet::new();
        let mut probed: Vec<Ipv6Addr> = Vec::new();
        let mut subnets = Vec::new();
        let mut graph = RouterGraphBuilder::new();

        for (round, (report, targets)) in fused.rounds.iter().zip(&fused.round_targets).enumerate()
        {
            // Rebuild the round's campaigns the way the loop does: each
            // vantage stride-samples its allocation, then splits it
            // round-robin into shards.
            let sets: Vec<(u8, Vec<TargetSet>)> = report
                .per_vantage
                .iter()
                .filter(|v| v.targets > 0)
                .map(|v| {
                    let mine = stride_sample(targets, v.targets as usize);
                    let split = (0..shards)
                        .map(|s| {
                            TargetSet::new(
                                format!("adaptive-r{round}-s{s}"),
                                mine.iter().copied().skip(s).step_by(shards),
                            )
                        })
                        .collect();
                    (v.vantage, split)
                })
                .collect();
            let specs: Vec<CampaignSpec<'_>> = sets
                .iter()
                .flat_map(|(v, split)| {
                    split.iter().map(|set| CampaignSpec {
                        vantage_idx: *v,
                        set,
                        cfg: cfg.yarrp,
                    })
                })
                .collect();
            let results = tr.span("yarrp6.campaign", |_| {
                stream_campaigns_supervised(topo, &specs, &cfg.stream, &cfg.retry, vclock_us, true)
            });
            c.campaign_probes += results.iter().map(|sc| sc.stats.probes).sum::<u64>();
            let elapsed_us = results.iter().map(|sc| sc.elapsed_us).max().unwrap_or(0);
            // Hard-failed campaigns leave no set; keep each survivor
            // with the vantage it probed from.
            let (raw, raw_vantage): (Vec<&TraceSet>, Vec<u8>) = results
                .iter()
                .filter_map(|sc| sc.output().map(|ts| (ts, sc.vantage_idx)))
                .unzip();
            c.traces += raw.iter().map(|ts| ts.len() as u64).sum::<u64>();
            c.cells += raw.iter().map(|ts| cells(ts)).sum::<u64>();

            let (clean, report_q) = tr.span("analysis.quarantine", |_| {
                quarantine_all(&raw, &cfg.quarantine)
            });
            c.cells_dropped += report_q.cells_dropped();

            // As in the loop: discoveries count on the raw sets,
            // structure is mined from the scrubbed ones.
            tr.span("analysis.mine", |_| {
                for ((raw, clean), &v) in raw.iter().zip(&clean).zip(&raw_vantage) {
                    std::hint::black_box(raw.discovery_delta(&mut seen));
                    let vasn = topo.ases[topo.vantages[v as usize].as_idx as usize].asn;
                    subnets.extend(ia_hack(clean).into_iter().map(|s| s.prefix));
                    subnets.extend(
                        discover_by_path_div(clean, &resolver, vasn, &params)
                            .into_iter()
                            .map(|s| s.prefix),
                    );
                }
                subnets.sort_unstable();
                subnets.dedup();
            });

            tr.span("aliasres.ingest", |_| {
                for ts in &clean {
                    graph.ingest(ts);
                }
                std::hint::black_box(graph.snapshot());
            });

            let mut fresh: Vec<Ipv6Addr> =
                clean.iter().flat_map(|ts| ts.interface_addrs()).collect();
            fresh.sort_unstable();
            fresh.dedup();
            let candidates = stride_sample(&fresh, cfg.alias.max_candidates_per_round);
            // The loop probes aliases from its first living vantage.
            let prober = sets.first().map_or(cfg.vantages[0], |(v, _)| *v);
            let alias = tr.span("aliasres.speedtrap", |_| {
                resolve_aliases_supervised(
                    topo,
                    prober,
                    &candidates,
                    &cfg.alias.probe,
                    &cfg.retry,
                    vclock_us.saturating_add(elapsed_us),
                    cfg.alias.max_probes_per_round,
                )
            });
            c.alias_probes += alias.stats.probes;
            vclock_us = vclock_us
                .saturating_add(elapsed_us)
                .saturating_add(alias.elapsed_us);

            for ts in &clean {
                for &w in ts.interner().words() {
                    clean_seen.insert(Ipv6Addr::from(w));
                }
            }
            probed.extend_from_slice(targets);
            if round + 1 < fused.rounds.len() {
                let pool = tr.span("seeds.feedback", |_| {
                    let discovered: Vec<Ipv6Addr> = clean_seen.iter().collect();
                    let fb = feedback_list(
                        format!("adaptive-fb-r{round}"),
                        &discovered,
                        &probed,
                        &subnets,
                        &cfg.feedback,
                        mix64(cfg.rng_seed ^ round as u64),
                    );
                    feedback_targets(
                        format!("adaptive-r{}", round + 1),
                        &fb,
                        cfg.per_prefix_64s,
                        cfg.iid,
                    )
                });
                c.feedback_targets += pool.len() as u64;
            }
        }
        c
    }
}

/// Every fifth access-network router hostile, cycling through all five
/// classes: compromised customer gear and TTL-mangling middleboxes are
/// where hostile responders live, and a hostile backbone would mostly
/// measure black-holed subtrees, not the decode and quarantine paths.
fn hostile_edge(layout: &Topology) -> AdversarialSchedule {
    layout
        .routers
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            matches!(
                r.role,
                RouterRole::Distribution | RouterRole::LanGateway | RouterRole::Cpe
            )
        })
        .step_by(5)
        .enumerate()
        .fold(AdversarialSchedule::default(), |sched, (k, (i, _))| {
            sched.with_hostile_always(
                RouterId(i as u32),
                AdversarialClass::ALL[k % AdversarialClass::ALL.len()],
            )
        })
}

fn degraded_rounds(res: &AdaptiveResult) -> usize {
    res.rounds
        .iter()
        .filter(|r| !r.degraded_vantages().is_empty())
        .count()
}

fn cells(ts: &TraceSet) -> u64 {
    ts.iter()
        .map(|t| (t.hop_cells().len() + t.unreachable_cells().len()) as u64)
        .sum()
}

#[derive(Default)]
struct ReplayCounts {
    campaign_probes: u64,
    traces: u64,
    cells: u64,
    cells_dropped: u64,
    alias_probes: u64,
    feedback_targets: u64,
}

impl Workload for Adaptive {
    type Output = Output;

    /// The whole loop, serialising a checkpoint at every round
    /// boundary as a durable deployment would.
    fn pipeline(&self) -> Output {
        let mut rounds = Vec::new();
        let mut last_checkpoint = Vec::new();
        let mut mark = Instant::now();
        let res = run_adaptive_checkpointed(&self.topo, &self.seed_set, &self.cfg, true, |ck| {
            let t = Instant::now();
            last_checkpoint = ck.to_bytes();
            let now = Instant::now();
            rounds.push(RoundSample {
                wall_s: (now - mark).as_secs_f64(),
                encode_s: (now - t).as_secs_f64(),
                checkpoint_bytes: last_checkpoint.len() as u64,
            });
            mark = now;
        });
        Output {
            res,
            rounds,
            last_checkpoint,
        }
    }

    fn verify(&self, out: &Output, checks: &mut Checks) -> Summary {
        let name = self.name();
        let res = &out.res;
        let round_sum: u64 = res.rounds.iter().map(|r| r.probes).sum();
        checks.check(
            res.stats.probes == round_sum && round_sum <= self.cfg.probe_budget,
            || {
                format!(
                    "{name}: {} probes, rounds sum to {round_sum}, budget {}",
                    res.stats.probes, self.cfg.probe_budget
                )
            },
        );
        let fake = fabricated(&self.topo, res.interfaces.iter());
        checks.check(fake == 0, || {
            format!("{name}: {fake} fabricated interfaces")
        });
        let degraded = degraded_rounds(res);
        if self.hostile {
            checks.check(
                res.stats.adversarial_total() > 0
                    && res.stats.fault_dropped_total() > 0
                    && degraded > 0,
                || format!("{name}: the hostile schedule or the faults never fired"),
            );
        } else {
            checks.check(degraded == 0, || {
                format!("{name}: {degraded} degraded rounds on a fault-free network")
            });
        }
        Summary {
            probes: res.stats.probes,
            interfaces: res.unique_interfaces() as u64,
            digest: digest(&res.merged_traces()),
            rounds: out.rounds.clone(),
        }
    }

    fn traced(&self, baseline: &[Rep], tr: &mut Tracer, checks: &mut Checks) -> Vec<LayerValue> {
        let name = self.name();
        alloc::start();
        let fused = tr.span("loop.fused", |_| self.pipeline());
        let fused_wall = tr.total_s("loop.fused");
        let counted = alloc::stop();
        self.verify(&fused, checks);
        let res = &fused.res;

        let t = Instant::now();
        let decoded = Checkpoint::from_bytes(&fused.last_checkpoint);
        let decode_s = t.elapsed().as_secs_f64();
        checks.check(
            decoded
                .as_ref()
                .is_ok_and(|ck| ck.to_bytes() == fused.last_checkpoint),
            || format!("{name}: the last checkpoint does not re-encode to its own bytes"),
        );

        let rl = res.router_level.as_ref().expect("alias resolution is on");
        let mut inferred = AliasSets::default();
        for node in &rl.graph.nodes {
            match node.as_slice() {
                [one] => inferred.singletons.push(*one),
                many => inferred.groups.push(many.to_vec()),
            }
        }
        let discovered: Vec<Ipv6Addr> = res.interfaces.iter().collect();
        let (precision, recall) =
            inferred.score(&self.topo.ground_truth_aliases_among(&discovered));
        checks.check(precision >= 0.9, || {
            format!("{name}: alias precision {precision:.3} is below 0.9")
        });

        let c = tr.span("loop.replay", |tr| self.replay(res, tr));

        // Round timeline: every timed rep's samples plus the fused
        // pass's, so the percentiles rest on reps × rounds samples.
        let timeline: Vec<&[RoundSample]> = baseline
            .iter()
            .map(|r| r.summary.rounds.as_slice())
            .chain([fused.rounds.as_slice()])
            .collect();
        let round_s: Vec<f64> = timeline
            .iter()
            .flat_map(|r| r.iter().map(|s| s.wall_s))
            .collect();
        let rq = quartiles(&round_s);
        let round_ns_per_probe = |pick: fn(&[RoundSample]) -> Option<&RoundSample>, probes: u64| {
            let s: Vec<f64> = timeline
                .iter()
                .filter_map(|r| pick(r))
                .map(|s| s.wall_s)
                .collect();
            per(quartiles(&s).median * 1e9, probes as f64)
        };
        let encode_s: f64 = timeline
            .iter()
            .flat_map(|r| r.iter().map(|s| s.encode_s))
            .sum();
        let encode_bytes: u64 = timeline
            .iter()
            .flat_map(|r| r.iter().map(|s| s.checkpoint_bytes))
            .sum();

        let probes = res.stats.probes as f64;
        let fused_traces: u64 = res.traces.iter().map(|ts| ts.len() as u64).sum();
        let ns = |span: &str, den: u64| per(tr.total_s(span) * 1e9, den as f64);
        let campaign = ns("yarrp6.campaign", c.campaign_probes);
        let quarantine = ns("analysis.quarantine", c.traces);
        let mine = ns("analysis.mine", c.traces);
        let ingest = ns("aliasres.ingest", c.traces);
        let speedtrap = ns("aliasres.speedtrap", c.alias_probes);
        // Unit costs × the fused run's own counts. Feedback has no
        // count in the fused result (pool sizes are not public), so the
        // replay's total stands in; checkpoint encoding was timed in
        // the fused run itself.
        let explained_s = (campaign * (res.stats.probes - rl.alias_probes) as f64
            + (quarantine + mine + ingest) * fused_traces as f64
            + speedtrap * rl.alias_probes as f64)
            * 1e-9
            + tr.total_s("seeds.feedback")
            + fused.rounds.iter().map(|s| s.encode_s).sum::<f64>();

        let later = || res.rounds.iter().skip(1);
        let baseline_wall = median_wall(baseline);
        vec![
            ("beholder.round_s_p50", rq.median),
            ("beholder.round_s_p75", rq.q3),
            (
                "beholder.round0_ns_per_probe",
                round_ns_per_probe(|r| r.first(), res.rounds.first().map_or(0, |r| r.probes)),
            ),
            (
                "beholder.last_round_ns_per_probe",
                round_ns_per_probe(|r| r.last(), res.rounds.last().map_or(0, |r| r.probes)),
            ),
            (
                "beholder.checkpoint_encode_mb_per_s",
                per(encode_bytes as f64 * 1e-6, encode_s),
            ),
            (
                "beholder.checkpoint_decode_mb_per_s",
                per(fused.last_checkpoint.len() as f64 * 1e-6, decode_s),
            ),
            (
                "beholder.checkpoint_bytes_per_round",
                per(encode_bytes as f64, round_s.len() as f64),
            ),
            ("yarrp6.campaign_ns_per_probe", campaign),
            ("analysis.quarantine_ns_per_trace", quarantine),
            ("analysis.mine_ns_per_trace", mine),
            (
                "seeds.feedback_ns_per_target",
                ns("seeds.feedback", c.feedback_targets),
            ),
            ("aliasres.ingest_ns_per_trace", ingest),
            ("aliasres.speedtrap_ns_per_probe", speedtrap),
            (
                "beholder.loop_unexplained_share",
                1.0 - per(explained_s, fused_wall),
            ),
            (
                "seeds.feedback_yield_per_ktarget",
                per(
                    later().map(|r| r.new_interfaces).sum::<u64>() as f64 * 1e3,
                    later().map(|r| r.targets).sum::<u64>() as f64,
                ),
            ),
            (
                "aliasres.alias_probe_share",
                per(rl.alias_probes as f64, probes),
            ),
            ("aliasres.precision", precision),
            ("aliasres.recall", recall),
            ("aliasres.collapse_ratio", rl.collapse_ratio()),
            (
                "simnet.responses_per_probe",
                per(res.stats.responses() as f64, probes),
            ),
            (
                "simnet.rate_limited_share",
                per(res.stats.rate_limited as f64, probes),
            ),
            (
                "simnet.fault_dropped_share",
                per(res.stats.fault_dropped_total() as f64, probes),
            ),
            (
                "simnet.adversarial_share",
                per(res.stats.adversarial_total() as f64, probes),
            ),
            (
                "analysis.quarantine_cells_dropped_share",
                per(c.cells_dropped as f64, c.cells as f64),
            ),
            (
                "yarrp6.max_attempts",
                res.rounds
                    .iter()
                    .flat_map(|r| r.per_vantage.iter().map(|p| p.attempts))
                    .max()
                    .unwrap_or(0) as f64,
            ),
            ("beholder.degraded_rounds", degraded_rounds(res) as f64),
            (
                "beholder.budget_used_share",
                per(probes, self.cfg.probe_budget as f64),
            ),
            (
                "allocs_per_kprobe",
                per(counted.allocs as f64 * 1e3, probes),
            ),
            (
                "trace_overhead_share",
                per(fused_wall - baseline_wall, baseline_wall),
            ),
        ]
    }
}
