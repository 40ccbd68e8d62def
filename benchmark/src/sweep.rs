//! `sweep`: one stateless randomized Yarrp6 sweep from one vantage,
//! streamed into the columnar builder, then subnet inference and the
//! router-level graph. The paper's core; feedback, quarantine, alias
//! probing and checkpointing do no work here.

use crate::alloc;
use crate::measure::Tracer;
use crate::work::{
    digest, fabricated, median_wall, per, Checks, LayerValue, Rep, Scale, Summary, Workload,
    TOPOLOGY_SEED,
};
use aliasres::RouterGraph;
use analysis::{
    discover_by_path_div, ia_hack, AsnResolver, CampaignRunner, PathDivParams, TraceSet,
    TraceSetBuilder,
};
use seeds::sources::SeedCatalog;
use simnet::config::TopologyConfig;
use simnet::{Delivery, Engine, EngineStats, Topology};
use std::net::Ipv6Addr;
use std::sync::Arc;
use targets::{synthesize::synthesize, IidStrategy, TargetSet};
use v6addr::Asn;
use v6packet::probe::{ProbeTemplate, MAX_PROBE_LEN};
use yarrp6::perm::Permutation;
use yarrp6::record::decode_response;
use yarrp6::sink::{RecordSink, RecordStream, StreamConfig};
use yarrp6::{ResponseRecord, YarrpConfig};

const VANTAGE: u8 = 0;
/// Probes per staged batch: large enough that a span per stage per
/// batch costs nothing, small enough that the batch arena stays in
/// cache like the fused prober's single reused buffers do.
const BATCH: usize = 4096;

pub struct Sweep {
    topo: Arc<Topology>,
    catalog: SeedCatalog,
    cfg: YarrpConfig,
    resolver: AsnResolver,
    vantage_asn: Asn,
}

pub struct Output {
    set: TargetSet,
    traces: TraceSet,
    stats: EngineStats,
    subnets: usize,
    graph: RouterGraph,
}

impl Sweep {
    pub fn setup(scale: Scale, seed: u64) -> Self {
        let tc = match scale {
            Scale::Full => TopologyConfig::small(TOPOLOGY_SEED),
            Scale::Smoke => TopologyConfig::tiny(TOPOLOGY_SEED),
        };
        let topo = Arc::new(simnet::generate::generate(tc));
        let catalog = SeedCatalog::synthesize(&topo, seed);
        let resolver = AsnResolver::new(
            topo.bgp.clone(),
            topo.rir_extra.clone(),
            &topo.asn_equivalences,
        );
        let vantage_asn = topo.ases[topo.vantages[VANTAGE as usize].as_idx as usize].asn;
        Sweep {
            topo,
            catalog,
            // Fill mode off: the probe count is exactly targets × TTLs,
            // and no probe depends on an earlier response, which is
            // what lets the staged replay reproduce the run exactly.
            cfg: YarrpConfig {
                fill_mode: false,
                perm_seed: seed,
                ..YarrpConfig::default()
            },
            resolver,
            vantage_asn,
        }
    }

    fn make_targets(&self) -> TargetSet {
        let z64 = targets::zn(&self.catalog.combined, 64);
        synthesize("sweep", &z64, IidStrategy::FixedIid)
    }

    fn mine(&self, traces: &TraceSet) -> usize {
        ia_hack(traces).len()
            + discover_by_path_div(
                traces,
                &self.resolver,
                self.vantage_asn,
                &PathDivParams::default(),
            )
            .len()
    }

    /// Re-drives the prober loop from the layers' public pieces, one
    /// span per stage per batch, in the same permutation order and on
    /// the same virtual clock as `yarrp6::yarrp::run_with_sink`.
    fn staged(&self, set: &TargetSet, tr: &mut Tracer) -> (TraceSet, EngineStats, Counts) {
        let cfg = &self.cfg;
        let addrs: &[Ipv6Addr] = &set.addrs;
        let vantage = &self.topo.vantages[VANTAGE as usize];
        let ttl_span = cfg.max_ttl as u64;
        let n = addrs.len() as u64 * ttl_span;
        let perm = Permutation::new(n, cfg.perm_seed);
        let interval_us = 1_000_000 / cfg.rate_pps.max(1);

        let mut templates: Vec<ProbeTemplate> = tr.span("v6packet.template", |_| {
            addrs
                .iter()
                .map(|&t| ProbeTemplate::new(vantage.addr, t, cfg.protocol, cfg.instance))
                .collect()
        });
        let mut engine = Engine::new(self.topo.clone());
        let mut builder =
            TraceSetBuilder::new().with_identity(vantage.name.clone(), set.name.clone());
        let (mut sink, stream) = RecordStream::channel(&StreamConfig::default());

        let mut order: Vec<u64> = Vec::with_capacity(BATCH);
        let mut arena = vec![0u8; BATCH * MAX_PROBE_LEN];
        let mut lens = vec![0usize; BATCH];
        let mut deliveries = vec![Delivery::default(); BATCH];
        let mut answered = vec![false; BATCH];
        let mut records: Vec<ResponseRecord> = Vec::with_capacity(BATCH);
        let mut counts = Counts::default();

        std::thread::scope(|s| {
            // The sink's far end only counts, so `yarrp6.sink` is the
            // channel's own cost, not the builder's.
            let consumer = s.spawn(move || {
                let mut got = 0u64;
                stream.for_each_chunk(|c| got += c.len() as u64);
                got
            });
            let mut first = 0u64;
            while first < n {
                let m = BATCH.min((n - first) as usize);
                tr.span("yarrp6.perm", |_| {
                    order.clear();
                    order.extend((first..first + m as u64).map(|i| perm.apply(i)));
                });
                tr.span("v6packet.render", |_| {
                    for (k, &v) in order.iter().enumerate() {
                        let now_us = (first + k as u64) * interval_us;
                        let wire = templates[(v / ttl_span) as usize]
                            .render((v % ttl_span) as u8 + 1, now_us as u32);
                        lens[k] = wire.len();
                        arena[k * MAX_PROBE_LEN..][..wire.len()].copy_from_slice(wire);
                    }
                });
                tr.span("simnet.inject", |_| {
                    for k in 0..m {
                        let now_us = (first + k as u64) * interval_us;
                        let wire = &arena[k * MAX_PROBE_LEN..][..lens[k]];
                        answered[k] = engine.inject_into(wire, now_us, &mut deliveries[k]);
                    }
                });
                tr.span("yarrp6.decode", |_| {
                    records.clear();
                    for d in deliveries[..m].iter().zip(&answered).filter(|(_, &a)| a) {
                        counts.responses += 1;
                        if let Ok(rec) = decode_response(&d.0.bytes, d.0.at_us, cfg.instance) {
                            records.push(rec);
                        }
                    }
                });
                tr.span("yarrp6.sink", |_| {
                    for &rec in &records {
                        sink.record(rec);
                    }
                });
                tr.span("analysis.ingest", |_| builder.push_chunk(&records));
                counts.records += records.len() as u64;
                first += m as u64;
            }
            tr.span("yarrp6.sink", |_| {
                sink.finish()
                    .expect("the counting consumer outlives the sink")
            });
            let got = consumer.join().expect("the counting consumer cannot panic");
            assert_eq!(got, counts.records, "sink lost records");
        });
        let traces = tr.span("analysis.finish", |_| builder.finish());
        (traces, engine.stats, counts)
    }
}

#[derive(Default)]
struct Counts {
    responses: u64,
    records: u64,
}

/// Discards everything: what is left is the prober alone.
struct NullSink;

impl RecordSink for NullSink {
    fn record(&mut self, rec: ResponseRecord) {
        std::hint::black_box(rec);
    }
}

impl Workload for Sweep {
    type Output = Output;

    /// Seed list → targets → campaign → analysis.
    fn pipeline(&self) -> Output {
        let set = self.make_targets();
        let outcome = CampaignRunner::new(&self.topo)
            .targets(&set)
            .vantage(VANTAGE)
            .config(self.cfg)
            .run()
            .expect("an unsupervised campaign on a fault-free network cannot fail");
        let run = outcome.runs.into_iter().next().expect("one vantage");
        let subnets = self.mine(&run.traces);
        let graph = RouterGraph::build(&run.traces, &[]);
        Output {
            set,
            traces: run.traces,
            stats: run.stats,
            subnets,
            graph,
        }
    }

    fn verify(&self, out: &Output, checks: &mut Checks) -> Summary {
        let expect = out.set.len() as u64 * self.cfg.max_ttl as u64;
        checks.check(out.stats.probes == expect, || {
            format!(
                "sweep: {} probes injected, targets x TTLs is {expect}",
                out.stats.probes
            )
        });
        let ifaces = out.traces.interface_addrs();
        let fake = fabricated(&self.topo, ifaces.iter().copied());
        checks.check(fake == 0, || format!("sweep: {fake} fabricated interfaces"));
        checks.check(
            out.subnets > 0 && out.graph.observed_node_count() > 0,
            || "sweep: analysis produced no subnets or no router graph".into(),
        );
        Summary {
            probes: out.stats.probes,
            interfaces: ifaces.len() as u64,
            digest: digest(&out.traces),
            rounds: Vec::new(),
        }
    }

    fn traced(&self, baseline: &[Rep], tr: &mut Tracer, checks: &mut Checks) -> Vec<LayerValue> {
        let baseline_wall_s = median_wall(baseline);
        alloc::start();
        let fused = tr.span("sweep.fused", |_| self.pipeline());
        let counted = alloc::stop();
        self.verify(&fused, checks);

        let (set, (traces, stats, counts), subnets, graph) = tr.span("sweep.staged", |tr| {
            let set = tr.span("targets.synthesize", |_| self.make_targets());
            let staged = self.staged(&set, tr);
            let subnets = tr.span("analysis.subnets", |_| self.mine(&staged.0));
            let graph = tr.span("aliasres.graph_build", |_| {
                RouterGraph::build(&staged.0, &[])
            });
            (set, staged, subnets, graph)
        });
        let (fused_wall, staged_wall) = (tr.total_s("sweep.fused"), tr.total_s("sweep.staged"));
        checks.check(traces == fused.traces && stats == fused.stats, || {
            "sweep: staged replay differs from the fused run".into()
        });
        checks.check(
            subnets == fused.subnets && graph.canonical() == fused.graph.canonical(),
            || "sweep: staged analysis differs from the fused run".into(),
        );

        tr.span("yarrp6.prober_only", |_| {
            let mut engine = Engine::new(self.topo.clone());
            yarrp6::yarrp::run_with_sink(&mut engine, VANTAGE, &set.addrs, &self.cfg, &mut NullSink)
        });

        let probes = stats.probes as f64;
        let n_targets = set.len() as f64;
        let n_traces = traces.len() as f64;
        let records = counts.records as f64;
        let ns = |name: &str, den: f64| per(tr.total_s(name) * 1e9, den);
        vec![
            (
                "targets.synthesize_ns_per_target",
                ns("targets.synthesize", n_targets),
            ),
            ("yarrp6.perm_ns_per_probe", ns("yarrp6.perm", probes)),
            (
                "v6packet.template_ns_per_target",
                ns("v6packet.template", n_targets),
            ),
            (
                "v6packet.render_ns_per_probe",
                ns("v6packet.render", probes),
            ),
            ("simnet.inject_ns_per_probe", ns("simnet.inject", probes)),
            (
                "yarrp6.decode_ns_per_response",
                ns("yarrp6.decode", counts.responses as f64),
            ),
            ("yarrp6.sink_ns_per_record", ns("yarrp6.sink", records)),
            (
                "analysis.ingest_ns_per_record",
                ns("analysis.ingest", records),
            ),
            (
                "analysis.finish_ns_per_trace",
                ns("analysis.finish", n_traces),
            ),
            (
                "analysis.subnets_ns_per_trace",
                ns("analysis.subnets", n_traces),
            ),
            (
                "aliasres.graph_build_ns_per_trace",
                ns("aliasres.graph_build", n_traces),
            ),
            (
                "yarrp6.prober_only_ns_per_probe",
                ns("yarrp6.prober_only", probes),
            ),
            ("sweep.staged_over_fused", per(staged_wall, fused_wall)),
            (
                "simnet.responses_per_probe",
                per(counts.responses as f64, probes),
            ),
            (
                "simnet.rate_limited_share",
                per(stats.rate_limited as f64, probes),
            ),
            ("yarrp6.records_per_probe", per(records, probes)),
            (
                "allocs_per_kprobe",
                per(counted.allocs as f64 * 1e3, probes),
            ),
            (
                "trace_overhead_share",
                per(fused_wall - baseline_wall_s, baseline_wall_s),
            ),
        ]
    }
}
