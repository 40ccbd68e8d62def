//! One front door for a multi-vantage sweep: the [`CampaignRunner`]
//! builder.
//!
//! A sweep is one target set probed from N vantages, each campaign
//! streamed into its own trace builder, the finished sets merged in
//! vantage order:
//!
//! ```ignore
//! let outcome = CampaignRunner::new(&topo)
//!     .targets(set)
//!     .vantages(&[0, 1, 2])
//!     .parallel(true)
//!     .run()?;
//! // outcome.merged(), outcome.runs[i].traces, outcome.stats
//! ```
//!
//! `run()` is [`stream_campaigns_supervised`] under
//! [`RetryPolicy::NONE`] with the first failure turned into the `Err`:
//! the record log never materializes, and every per-vantage set is
//! bit-identical to `TraceSet::from_log(&run_campaign(..).log)`.
//! Callers that need retries, a start time on the fault clock, mixed
//! target sets or partial results call [`stream_campaigns_supervised`]
//! directly.

use crate::builder::stream_campaigns_supervised;
use crate::traces::TraceSet;
use simnet::{EngineStats, Topology};
use std::sync::Arc;
use targets::TargetSet;
use yarrp6::campaign::{CampaignError, CampaignSpec, RetryPolicy};
use yarrp6::sink::StreamConfig;
use yarrp6::YarrpConfig;

/// One campaign's slice of a [`CampaignOutcome`]: the vantage it
/// probed from, its finished trace set, and its accounting.
#[derive(Clone, Debug)]
pub struct CampaignRun {
    /// Vantage index this campaign probed from.
    pub vantage_idx: u8,
    /// The campaign's finished columnar trace set.
    pub traces: TraceSet,
    /// The campaign's engine accounting.
    pub stats: EngineStats,
}

/// Everything a [`CampaignRunner::run`] produces: per-campaign sets in
/// vantage order and merged accounting; their deterministic union is
/// [`merged`](Self::merged), computed when asked for.
///
/// The per-vantage sets are what is kept because contribution and
/// overlap statistics ([`crate::metrics::vantage_contributions`],
/// [`crate::metrics::vantage_jaccard`]) need each vantage's view, and a
/// single-vantage sweep's union is a copy of its only set.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Each campaign's own run, in [`CampaignRunner::vantages`] order.
    pub runs: Vec<CampaignRun>,
    /// Engine accounting merged over every campaign.
    pub stats: EngineStats,
}

impl CampaignOutcome {
    /// `TraceSet::merge_all` over the runs in vantage order — the
    /// union-of-vantages discovery set: its interner is the full union
    /// of every vantage's discovered responders, its trace columns keep
    /// the first vantage's trace per shared target, and its `vantage` is
    /// the `+`-joined vantage names. It does not say which vantage found
    /// a trace: per-vantage questions read [`runs`](Self::runs), each
    /// set named by its `vantage` field. Merges on every call.
    pub fn merged(&self) -> TraceSet {
        TraceSet::merge_all(self.runs.iter().map(|r| &r.traces))
    }
}

/// Builder for a probing campaign (or a multi-vantage sweep of them).
/// See the module docs; every knob has a conservative default — the
/// minimum viable call is `CampaignRunner::new(&topo).targets(set).run()`.
#[derive(Clone, Debug)]
pub struct CampaignRunner<'a> {
    topo: &'a Arc<Topology>,
    set: Option<&'a TargetSet>,
    vantages: Vec<u8>,
    cfg: YarrpConfig,
    stream: StreamConfig,
    parallel: bool,
}

impl<'a> CampaignRunner<'a> {
    /// A runner over `topo` with defaults: vantage 0, default prober
    /// and stream configs, serial.
    pub fn new(topo: &'a Arc<Topology>) -> CampaignRunner<'a> {
        CampaignRunner {
            topo,
            set: None,
            vantages: vec![0],
            cfg: YarrpConfig::default(),
            stream: StreamConfig::default(),
            parallel: false,
        }
    }

    /// The target set to probe (required).
    pub fn targets(mut self, set: &'a TargetSet) -> Self {
        self.set = Some(set);
        self
    }

    /// Probe from these vantage indices, one campaign each, merged in
    /// this order. Replaces the default `[0]`.
    pub fn vantages(mut self, vantages: &[u8]) -> Self {
        self.vantages = vantages.to_vec();
        self
    }

    /// Probe from a single vantage.
    pub fn vantage(mut self, vantage_idx: u8) -> Self {
        self.vantages = vec![vantage_idx];
        self
    }

    /// Prober configuration for every campaign.
    pub fn config(mut self, cfg: YarrpConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Bounded-channel configuration for the streaming pipeline.
    pub fn streaming(mut self, stream: StreamConfig) -> Self {
        self.stream = stream;
        self
    }

    /// Run the campaigns on the work-queue thread pool instead of one
    /// after another. Bit-identical either way (campaigns are
    /// engine-isolated and results return in input order).
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Runs the configured campaigns and assembles the outcome. The
    /// first campaign failure is the `Err`; completed sibling campaigns
    /// are dropped with it — use [`stream_campaigns_supervised`]
    /// directly when partial sweeps must survive.
    ///
    /// # Panics
    ///
    /// When no target set was given ([`targets`](Self::targets)).
    pub fn run(self) -> Result<CampaignOutcome, CampaignError> {
        let set = self.set.expect("CampaignRunner::run without .targets(..)");
        let specs: Vec<CampaignSpec<'_>> = self
            .vantages
            .iter()
            .map(|&v| CampaignSpec {
                vantage_idx: v,
                set,
                cfg: self.cfg,
            })
            .collect();
        let runs = stream_campaigns_supervised(
            self.topo,
            &specs,
            &self.stream,
            &RetryPolicy::NONE,
            0,
            self.parallel,
        )
        .into_iter()
        .map(|sc| match sc.result {
            Some(run) => Ok(CampaignRun {
                vantage_idx: sc.vantage_idx,
                traces: run.output,
                stats: sc.stats,
            }),
            None => Err(sc.error.expect("failed campaign carries its error")),
        })
        .collect::<Result<Vec<_>, _>>()?;
        Ok(CampaignOutcome {
            stats: EngineStats::merged(runs.iter().map(|r| &r.stats)),
            runs,
        })
    }
}
