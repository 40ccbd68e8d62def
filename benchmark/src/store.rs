//! `store`: no probing at all. Three recorded campaign logs go through
//! batch trace assembly, quarantine, sharding, the k-way merge, a
//! snapshot written and read back, and the analysis passes. It uses
//! `analysis` the other way round from `sweep` (batch `from_log` beside
//! streaming ingest, snapshot read beside write) and bypasses
//! `v6packet`, `simnet` and `yarrp6` entirely.

use crate::alloc;
use crate::measure::Tracer;
use crate::work::{
    digest, fabricated, median_wall, per, Checks, LayerValue, Rep, Scale, Summary, Workload,
    TOPOLOGY_SEED,
};
use aliasres::RouterGraph;
use analysis::{
    discover_by_path_div, ia_hack, quarantine_all, read_sharded_snapshot, write_sharded_snapshot,
    AsnResolver, PathDivParams, QuarantineConfig, ShardedTraceSet, TraceSet,
};
use seeds::sources::SeedCatalog;
use simnet::config::TopologyConfig;
use simnet::Topology;
use std::path::PathBuf;
use std::sync::Arc;
use targets::{synthesize::synthesize, IidStrategy};
use v6addr::Asn;
use yarrp6::campaign::{try_run_campaigns_parallel, CampaignSpec};
use yarrp6::{ProbeLog, YarrpConfig};

const SHARDS: usize = 8;

pub struct Store {
    topo: Arc<Topology>,
    logs: Vec<ProbeLog>,
    resolver: AsnResolver,
    vantage_asn: Asn,
    /// Where the snapshot goes: inside the checkout, one directory per
    /// process so concurrent runs cannot collide.
    dir: PathBuf,
}

pub struct Output {
    merged: ShardedTraceSet,
    back: ShardedTraceSet,
    flat: TraceSet,
    snapshot_bytes: u64,
    subnets: usize,
    graph: RouterGraph,
}

impl Store {
    pub fn setup(scale: Scale, seed: u64, out_dir: &std::path::Path) -> Self {
        let tc = match scale {
            Scale::Full => TopologyConfig::small(TOPOLOGY_SEED),
            Scale::Smoke => TopologyConfig::tiny(TOPOLOGY_SEED),
        };
        let topo = Arc::new(simnet::generate::generate(tc));
        let catalog = SeedCatalog::synthesize(&topo, seed);
        let z64 = targets::zn(&catalog.combined, 64);
        let set = synthesize("combined-z64", &z64, IidStrategy::FixedIid);
        // Default prober configuration, fill mode included, so
        // fill-mode records are analysed by at least one workload.
        let cfg = YarrpConfig {
            perm_seed: seed,
            ..YarrpConfig::default()
        };
        let specs: Vec<CampaignSpec<'_>> = (0..3)
            .map(|v| CampaignSpec {
                vantage_idx: v,
                set: &set,
                cfg,
            })
            .collect();
        let logs = try_run_campaigns_parallel(&topo, &specs)
            .into_iter()
            .map(|r| {
                r.expect("recording on a fault-free network cannot fail")
                    .log
            })
            .collect();
        let resolver = AsnResolver::new(
            topo.bgp.clone(),
            topo.rir_extra.clone(),
            &topo.asn_equivalences,
        );
        let vantage_asn = topo.ases[topo.vantages[0].as_idx as usize].asn;
        Store {
            topo,
            logs,
            resolver,
            vantage_asn,
            dir: out_dir.join(format!("store-{}", std::process::id())),
        }
    }

    /// Every step is a span; the steps are already a sequence of public
    /// calls, so the spans are exact.
    fn run(&self, tr: &mut Tracer) -> Output {
        let sets: Vec<TraceSet> = tr.span("analysis.from_log", |_| {
            self.logs.iter().map(TraceSet::from_log).collect()
        });
        let refs: Vec<&TraceSet> = sets.iter().collect();
        let (clean, _) = tr.span("analysis.quarantine", |_| {
            quarantine_all(&refs, &QuarantineConfig::default())
        });
        let sharded: Vec<ShardedTraceSet> = tr.span("analysis.shard", |_| {
            clean
                .iter()
                .map(|ts| ShardedTraceSet::from_set(ts, SHARDS))
                .collect()
        });
        let merged = tr.span("analysis.merge", |_| ShardedTraceSet::merge_all(&sharded));
        let manifest = tr.span("analysis.snapshot_write", |_| {
            write_sharded_snapshot(&self.dir, &merged).expect("write the snapshot")
        });
        let back = tr.span("analysis.snapshot_read", |_| {
            read_sharded_snapshot(&self.dir).expect("read the snapshot back")
        });
        let flat = tr.span("analysis.canonical", |_| back.to_trace_set().canonical());
        let subnets = tr.span("analysis.subnets", |_| {
            ia_hack(&flat).len()
                + discover_by_path_div(
                    &flat,
                    &self.resolver,
                    self.vantage_asn,
                    &PathDivParams::default(),
                )
                .len()
        });
        let graph = tr.span("aliasres.graph_multi", |_| {
            let shards: Vec<&TraceSet> = back.shards().iter().collect();
            RouterGraph::build_multi(&shards, &[])
        });
        Output {
            merged,
            back,
            flat,
            snapshot_bytes: manifest.segments.iter().map(|s| s.len).sum(),
            subnets,
            graph,
        }
    }

    fn probes(&self) -> u64 {
        self.logs.iter().map(|l| l.probes_sent).sum()
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Best effort: a leftover snapshot directory is harmless.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for Store {
    type Output = Output;

    fn pipeline(&self) -> Output {
        // Spans are a few dozen clock reads per pass, so the untraced
        // reps go through the same code with a throwaway recorder.
        self.run(&mut Tracer::new())
    }

    fn verify(&self, out: &Output, checks: &mut Checks) -> Summary {
        checks.check(out.back == out.merged, || {
            "store: the snapshot read back differs from the merged store".into()
        });
        let ifaces = out.flat.interface_addrs();
        let fake = fabricated(&self.topo, ifaces.iter().copied());
        checks.check(fake == 0, || format!("store: {fake} fabricated interfaces"));
        checks.check(
            out.subnets > 0 && out.graph.observed_node_count() > 0,
            || "store: analysis produced no subnets or no router graph".into(),
        );
        Summary {
            probes: self.probes(),
            interfaces: ifaces.len() as u64,
            digest: digest(&out.flat),
            rounds: Vec::new(),
        }
    }

    fn traced(&self, baseline: &[Rep], tr: &mut Tracer, checks: &mut Checks) -> Vec<LayerValue> {
        alloc::start();
        let out = tr.span("store.fused", |tr| self.run(tr));
        let wall = tr.total_s("store.fused");
        let counted = alloc::stop();
        self.verify(&out, checks);

        let records: u64 = self.logs.iter().map(|l| l.records.len() as u64).sum();
        let input_traces: u64 = self.logs.iter().map(|l| l.traces).sum();
        let traces = out.flat.len() as f64;
        let mb = out.snapshot_bytes as f64 * 1e-6;
        let ns = |span: &str, den: f64| per(tr.total_s(span) * 1e9, den);
        let baseline_wall = median_wall(baseline);
        vec![
            (
                "analysis.from_log_ns_per_record",
                ns("analysis.from_log", records as f64),
            ),
            (
                "analysis.quarantine_ns_per_trace",
                ns("analysis.quarantine", input_traces as f64),
            ),
            (
                "analysis.shard_ns_per_trace",
                ns("analysis.shard", input_traces as f64),
            ),
            (
                "analysis.merge_ns_per_trace",
                ns("analysis.merge", input_traces as f64),
            ),
            (
                "analysis.snapshot_write_mb_per_s",
                per(mb, tr.total_s("analysis.snapshot_write")),
            ),
            (
                "analysis.snapshot_read_mb_per_s",
                per(mb, tr.total_s("analysis.snapshot_read")),
            ),
            (
                "analysis.canonical_ns_per_trace",
                ns("analysis.canonical", traces),
            ),
            (
                "analysis.subnets_ns_per_trace",
                ns("analysis.subnets", traces),
            ),
            (
                "aliasres.graph_multi_ns_per_trace",
                ns("aliasres.graph_multi", traces),
            ),
            (
                "analysis.snapshot_bytes_per_trace",
                per(out.snapshot_bytes as f64, traces),
            ),
            (
                "allocs_per_kprobe",
                per(counted.allocs as f64 * 1e3, self.probes() as f64),
            ),
            (
                "trace_overhead_share",
                per(wall - baseline_wall, baseline_wall),
            ),
        ]
    }
}
