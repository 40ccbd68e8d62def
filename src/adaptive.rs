//! Adaptive multi-round topology discovery: the closed feedback loop
//! the paper argues for — *what you probe determines what you see*, so
//! round *n+1*'s targets are generated from round *n*'s discoveries.
//!
//! Each round streams probe campaigns straight into the incremental
//! [`TraceSetBuilder`](analysis::TraceSetBuilder) (record memory stays
//! bounded by the chunk channel), mines the finished
//! [`TraceSet`]s for newly discovered interfaces
//! ([`TraceSet::discovery_delta`] against one global seen-set) and
//! inferred subnets (the IA hack, optionally path divergence), feeds
//! those through the feedback seed generator
//! ([`seeds::feedback::feedback_list`]: kIP aggregation + 6Gen
//! expansion) and the feedback target synthesizer
//! ([`targets::feedback_targets`]), and repeats under a global probe
//! budget until the marginal yield stays below a floor for
//! [`AdaptiveConfig::patience`] consecutive rounds.
//!
//! ```text
//!        ┌──────────── targets (round n) ────────────┐
//!        │                                           ▼
//!  seeds/feedback ◄── interfaces + subnets ◄── streamed campaigns
//!   (kIP + 6Gen)        (discovery_delta,       → TraceSetBuilder
//!        │               IA hack/path-div)            │
//!        └────────── targets (round n+1) ◄────────────┘
//! ```
//!
//! Rounds are **multi-vantage**: every configured vantage probes each
//! round under one global seen-set, and with
//! [`AdaptiveConfig::vantage_budgeting`] the loop tracks each
//! vantage's marginal yield (new interfaces per probe, EWMA-smoothed
//! with an exploration floor) and reallocates the next round's
//! target-probe budget toward the vantages that are still earning —
//! the paper's vantage-diversity observation turned into a feedback
//! controller.
//!
//! Two drivers share one deterministic loop body:
//! [`run_adaptive`] runs each round's campaigns serially,
//! [`run_adaptive_parallel`] runs them on the work-queue pool.
//! Campaigns are engine-isolated and results return in input order, so
//! the two produce bit-identical results — pinned by the `adaptive`
//! test suite, alongside a golden test that a one-round run equals a
//! plain single-vantage [`analysis::CampaignRunner`] campaign.
//!
//! ## Fault tolerance
//!
//! Every round runs under the campaign supervisor
//! ([`analysis::stream_campaigns_supervised`]): a campaign that
//! panics, loses its record stream or probes into a scheduled blackout
//! ([`simnet::FaultSchedule`]) is retried with exponential backoff on
//! the loop's **virtual clock** — each round's campaigns start at the
//! accumulated virtual time of all earlier rounds, so retries and
//! later rounds deterministically land later on the fault schedule.
//! A vantage whose campaigns all come back degraded in one round is
//! declared **dead**: the budgeter reallocates its share across the
//! survivors, its [`VantageRound`] entries report
//! [`degraded`](VantageRound::degraded), and the loop continues
//! instead of aborting (stopping with
//! [`StopReason::AllVantagesDown`] only when nobody is left).
//!
//! ## Checkpoint/resume
//!
//! [`run_adaptive_checkpointed`] emits a [`Checkpoint`] at every round
//! boundary — a compact hand-rolled snapshot of the whole loop state
//! (interner-preserving trace sets, budget and EWMA state, the
//! regenerated pool). [`resume_adaptive`] continues from any such
//! checkpoint and produces results bit-identical to the uninterrupted
//! run, pinned by the `checkpoint` test suite.
//!
//! ## Between rounds
//!
//! The network rate-limits probing, so analysis and feedback are what
//! a long run pays for — and each between-round stage is sized by the
//! round just finished, not by the trace record so far. Quarantine,
//! mining and the router graph take the round's sets only; alias
//! candidates come from a merge-join over the round's sets plus the
//! record's distinct interfaces ([`aliasres::sibling_candidates`]);
//! the round's router count is read off the graph builder's union-find
//! ([`RouterGraphBuilder::observed_node_count`]), not off a rendered
//! graph; membership views (known subnets, clean interfaces) are
//! extended, not rebuilt; and a checkpoint capture shares the kept
//! sets instead of copying them. The one cumulative input is inherent:
//! the feedback generators (kIP, 6Gen) cluster *all* discoveries and
//! probed targets, by the paper's definition of their basis.
//!
//! This module lives in the umbrella crate because it is the one place
//! the whole pipeline meets: it orchestrates `yarrp6` (probers),
//! `analysis` (trace mining), `seeds`/`targets` (generation) and
//! `simnet` (the network under test).

use crate::checkpoint::{config_digest, Checkpoint, ResumeError};
use aliasres::{
    resolve_aliases_supervised, sibling_candidates, AliasConfig, RouterGraph, RouterGraphBuilder,
};
use analysis::{
    discover_by_path_div, ia_hack, quarantine_all, stream_campaigns_supervised, AsnResolver,
    PathDivParams, QuarantineConfig, ShardedTraceSet, TraceSet,
};
use seeds::feedback::{feedback_list, FeedbackParams};
// The workspace's shared splitmix64, for per-round generation seeds.
use simnet::flow::mix64 as mix;
use simnet::{EngineStats, Topology};
use std::collections::BTreeSet;
use std::net::Ipv6Addr;
use std::sync::Arc;
use targets::{feedback_targets, stride_sample, IidStrategy, TargetSet};
use v6addr::Ipv6Prefix;
use yarrp6::addrset::AddrSet;
use yarrp6::campaign::{CampaignSpec, RetryPolicy};
use yarrp6::{StreamConfig, YarrpConfig};

/// Configuration of the adaptive discovery loop.
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// Prober configuration used by every round's campaigns.
    pub yarrp: YarrpConfig,
    /// Bounded-channel configuration for the streaming campaigns.
    pub stream: StreamConfig,
    /// Vantage indices probing each round. With uniform budgeting
    /// every vantage probes every round target; with
    /// [`vantage_budgeting`](Self::vantage_budgeting) each vantage
    /// probes its allocated slice.
    pub vantages: Vec<u8>,
    /// Vantage-aware budget allocation: when `true`, the round's
    /// per-vantage target allocations follow each vantage's tracked
    /// marginal yield (new interfaces per probe, EWMA-smoothed), so
    /// probes shift toward productive vantages across rounds. When
    /// `false` (the default) every vantage probes the full round list —
    /// the original uniform behavior, bit-identical to earlier
    /// releases.
    pub vantage_budgeting: bool,
    /// Floor share of the per-round allocation any single vantage
    /// keeps under vantage budgeting (exploration: a vantage that went
    /// quiet can still prove itself again). Clamped to `1/len(vantages)`.
    pub vantage_floor_share: f64,
    /// EWMA smoothing for the per-vantage yield weights: the fraction
    /// of the previous weight retained each round (0 = follow the last
    /// round only, 1 = never move).
    pub vantage_smoothing: f64,
    /// Global probe budget: once the engines' cumulative probe count
    /// reaches it, no further round starts, and each round's target
    /// list is pre-truncated so its nominal cost
    /// (`targets × max_ttl × vantages`) fits the remainder.
    pub probe_budget: u64,
    /// Cap on targets probed per round (before the budget truncation).
    pub round_targets: usize,
    /// Shards per round: each round's target list is split round-robin
    /// into this many independent campaigns per vantage, giving the
    /// parallel driver work units and bounding per-campaign memory.
    pub shards: usize,
    /// Hard round cap.
    pub max_rounds: usize,
    /// Marginal-yield floor: new interfaces per 1000 probes.
    pub min_yield_per_kprobes: f64,
    /// Stop after this many *consecutive* rounds below the floor.
    pub patience: usize,
    /// Feedback seed-generation knobs (kIP k, 6Gen budget).
    pub feedback: FeedbackParams,
    /// How many /64s to expand out of each aggregated/inferred prefix
    /// when synthesizing the next round's targets.
    pub per_prefix_64s: usize,
    /// IID synthesis strategy for generated targets.
    pub iid: IidStrategy,
    /// Master seed for the per-round generation RNG.
    pub rng_seed: u64,
    /// Optionally run path-divergence subnet inference each round (the
    /// IA hack always runs; path divergence needs the public ASN view
    /// and costs more).
    pub path_div: Option<PathDivParams>,
    /// Supervisor retry policy for failed or blacked-out campaigns:
    /// bounded exponential backoff on the loop's virtual clock. The
    /// default retries twice; set
    /// [`RetryPolicy::max_retries`] to 0 to disable retrying (failures
    /// then degrade immediately). Fault-free campaigns are unaffected.
    pub retry: RetryPolicy,
    /// Poisoning-resistant feedback: when `true`, every round's trace
    /// sets pass jointly through the adversarial quarantine
    /// ([`analysis::quarantine_all`]) before anything feeds *forward* —
    /// subnet inference, path-divergence, the kept trace record, and
    /// the feedback generators all see only quarantine-clean cells, so
    /// hostile responders cannot steer later rounds. Discovery
    /// *counting* (the seen-set, per-vantage attribution) stays on the
    /// raw sets: a responder that survived the panic-free decoder is a
    /// real, checksum-validated interface even when the quarantine
    /// condemns the hop structure it reported. When `false` (the
    /// default) the raw sets flow through unchanged — bit-identical to
    /// earlier releases.
    pub quarantine_feedback: bool,
    /// Thresholds for the quarantine stage; read only when
    /// [`quarantine_feedback`](Self::quarantine_feedback) is on.
    pub quarantine: QuarantineConfig,
    /// Router-level resolution: when `true`, every round is followed by
    /// a speedtrap alias-probing stage — candidate interface pairs are
    /// derived from the round's discoveries (shared /64, shared
    /// trace-neighborhood), probed under the supervised campaign rules
    /// on the loop's virtual clock, charged against the same global
    /// probe budget, and merged into an incrementally maintained
    /// [`RouterGraph`] ([`AdaptiveResult::router_level`]). When `false`
    /// (the default) no alias probe is ever sent and the loop is
    /// bit-identical to earlier releases.
    pub alias_resolution: bool,
    /// Knobs for the alias stage; read only when
    /// [`alias_resolution`](Self::alias_resolution) is on.
    pub alias: AliasStageConfig,
    /// Opt-in delta seeding (read by [`run_adaptive_delta`]): resume
    /// discovery from a prior run's persisted sharded store, spending
    /// budget only where the topology changed. `None` (the default)
    /// leaves every other entry point bit-identical to earlier
    /// releases — the field only matters to the delta driver.
    pub delta_seeding: Option<DeltaSeedConfig>,
}

/// Knobs for the per-round alias-resolution stage
/// ([`AdaptiveConfig::alias_resolution`]).
#[derive(Clone, Copy, Debug)]
pub struct AliasStageConfig {
    /// Speedtrap prober parameters (probe size, rate, cluster window,
    /// MBT span).
    pub probe: AliasConfig,
    /// Cap on candidate interfaces offered to the prober per round
    /// (stride-sampled when the derived candidate set overflows, so
    /// the stage spans the whole address range).
    pub max_candidates_per_round: usize,
    /// Per-round cap on alias probes, on top of the loop's remaining
    /// global budget (whichever is smaller wins). A truncated stage
    /// leaves untested interfaces fresh for the next round.
    pub max_probes_per_round: u64,
}

impl Default for AliasStageConfig {
    fn default() -> Self {
        AliasStageConfig {
            probe: AliasConfig::default(),
            max_candidates_per_round: 256,
            max_probes_per_round: 20_000,
        }
    }
}

/// Knobs for [`run_adaptive_delta`]'s snapshot-seeded mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeltaSeedConfig {
    /// How many already-known targets to re-probe as *canaries*: a
    /// stride-sampled subset of the prior snapshot's targets whose
    /// observations are compared against the stored ones. A canary
    /// whose trace changed reopens its whole target-prefix shard for
    /// re-probing (and resets the yield-floor streak).
    pub canary_targets: usize,
}

impl Default for DeltaSeedConfig {
    fn default() -> Self {
        DeltaSeedConfig { canary_targets: 64 }
    }
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            yarrp: YarrpConfig::default(),
            stream: StreamConfig::default(),
            vantages: vec![0],
            vantage_budgeting: false,
            vantage_floor_share: 0.10,
            vantage_smoothing: 0.5,
            probe_budget: 1_000_000,
            round_targets: 4_096,
            shards: 1,
            max_rounds: 8,
            min_yield_per_kprobes: 1.0,
            patience: 2,
            feedback: FeedbackParams::default(),
            per_prefix_64s: 16,
            iid: IidStrategy::FixedIid,
            rng_seed: 0xada_917e,
            path_div: None,
            retry: RetryPolicy::default(),
            quarantine_feedback: false,
            quarantine: QuarantineConfig::default(),
            alias_resolution: false,
            alias: AliasStageConfig::default(),
            delta_seeding: None,
        }
    }
}

/// Why the loop ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The probe budget cannot fund another target.
    BudgetExhausted,
    /// Marginal yield stayed below the floor for `patience` rounds.
    YieldFloor,
    /// Feedback generation produced no unprobed targets.
    NoTargets,
    /// The round cap was reached.
    MaxRounds,
    /// Every configured vantage degraded (retry-exhausted failures or
    /// permanent blackout); nobody is left to probe.
    AllVantagesDown,
}

/// One vantage's slice of a round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VantageRound {
    /// Vantage index.
    pub vantage: u8,
    /// Targets allocated to this vantage this round.
    pub targets: u64,
    /// Probes this vantage's campaigns injected (all supervised
    /// attempts — retries burn budget too).
    pub probes: u64,
    /// Interfaces this vantage discovered that were unknown at round
    /// start. Two vantages finding the same new interface both get
    /// credit here (this measures vantage productivity, not the
    /// round's deduplicated total — that is
    /// [`RoundReport::new_interfaces`]).
    pub new_interfaces: u64,
    /// The share of the next round's allocation this vantage earned
    /// (post-smoothing, post-floor). Uniform `1/k` when vantage
    /// budgeting is off; 0 for a dead vantage.
    pub next_share: f64,
    /// At least one of this vantage's campaigns ended degraded this
    /// round (exhausted retries or a final-blackout attempt). When
    /// *every* campaign degraded the vantage is declared dead and
    /// excluded from later rounds.
    pub degraded: bool,
    /// Most supervised attempts any of this vantage's campaigns needed
    /// (1 = everything succeeded first try, 0 = the vantage ran no
    /// campaigns this round).
    pub attempts: u32,
    /// Probes eaten by injected faults across this vantage's attempts
    /// ([`EngineStats::fault_dropped_total`]).
    pub fault_dropped: u64,
}

/// One round's accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: usize,
    /// Targets probed this round (per vantage).
    pub targets: u64,
    /// Probes the engines injected this round (all campaigns).
    pub probes: u64,
    /// Interfaces first discovered this round.
    pub new_interfaces: u64,
    /// Subnets first inferred this round.
    pub new_subnets: u64,
    /// Marginal yield: `1000 × new_interfaces / probes`.
    pub yield_per_kprobe: f64,
    /// ICMPv6 errors the routers suppressed this round — high values
    /// mean low yield reflects rate limiting, not an exhausted net.
    pub rate_limited: u64,
    /// Bucket-audited suppression split: default-class limiters.
    pub rl_dropped_default: u64,
    /// Bucket-audited suppression split: aggressive-class limiters.
    pub rl_dropped_aggressive: u64,
    /// Routers in the incremental router-level graph after this round's
    /// alias stage (observed nodes only — alias groups discovery never
    /// saw are excluded). 0 when
    /// [`AdaptiveConfig::alias_resolution`] is off.
    pub routers: u64,
    /// Alias candidate pairs the monotonic-bound test confirmed this
    /// round. 0 when the stage is off.
    pub alias_pairs_confirmed: u64,
    /// Alias candidate pairs the MBT ran on and rejected this round.
    /// 0 when the stage is off.
    pub alias_pairs_rejected: u64,
    /// Probes the alias stage spent this round (supervised attempts
    /// included; part of [`probes`](Self::probes) and charged against
    /// the global budget). 0 when the stage is off.
    pub alias_probes: u64,
    /// Per-vantage accounting, in [`AdaptiveConfig::vantages`] order.
    pub per_vantage: Vec<VantageRound>,
}

impl RoundReport {
    /// The vantages that ended this round degraded (at least one
    /// campaign exhausted its retries or stayed blacked out).
    pub fn degraded_vantages(&self) -> Vec<u8> {
        self.per_vantage
            .iter()
            .filter(|p| p.degraded)
            .map(|p| p.vantage)
            .collect()
    }
}

/// The finished loop: everything the rounds earned, plus the pinned
/// determinism surface (round-by-round target lists).
#[derive(Clone, Debug)]
pub struct AdaptiveResult {
    /// Per-round accounting, in order.
    pub rounds: Vec<RoundReport>,
    /// Each round's exact (sorted, deduplicated) target list — the
    /// seeded-determinism contract of the loop.
    pub round_targets: Vec<Vec<Ipv6Addr>>,
    /// Every campaign's trace set, rounds in order, vantage-major
    /// within a round, shards within a vantage. A campaign that failed
    /// hard (exhausted supervisor retries without one completed
    /// attempt) contributes no set.
    pub traces: Vec<TraceSet>,
    /// Engine accounting accumulated over all campaigns (every
    /// supervised attempt) via [`EngineStats::merge`].
    pub stats: EngineStats,
    /// All discovered interfaces, in discovery order.
    pub interfaces: AddrSet,
    /// All inferred subnet prefixes, in discovery order.
    pub subnets: Vec<Ipv6Prefix>,
    /// The router-level view accumulated by the alias stage; `None`
    /// when [`AdaptiveConfig::alias_resolution`] is off.
    pub router_level: Option<RouterLevelResult>,
    /// Why the loop stopped.
    pub stop: StopReason,
}

/// What the alias stage earned over the whole run
/// ([`AdaptiveResult::router_level`]).
#[derive(Clone, Debug)]
pub struct RouterLevelResult {
    /// The canonical router-level graph: union-find alias classes over
    /// every ingested trace link.
    pub graph: RouterGraph,
    /// Interfaces observed in qualifying hop windows — the denominator
    /// of [`collapse_ratio`](Self::collapse_ratio).
    pub interfaces: u64,
    /// Probes the alias stage spent (all rounds, all supervised
    /// attempts).
    pub alias_probes: u64,
    /// Candidate pairs the monotonic-bound test confirmed.
    pub pairs_confirmed: u64,
    /// Candidate pairs the MBT rejected.
    pub pairs_rejected: u64,
}

impl RouterLevelResult {
    /// Routers resolved: observed nodes of the graph (alias groups
    /// discovery never saw are kept in the graph but not counted here).
    pub fn routers(&self) -> usize {
        self.graph.observed_node_count()
    }

    /// `routers / interfaces` — below 1.0 exactly when alias resolution
    /// collapsed interfaces into multi-interface routers.
    pub fn collapse_ratio(&self) -> f64 {
        if self.interfaces == 0 {
            1.0
        } else {
            self.routers() as f64 / self.interfaces as f64
        }
    }
}

impl AdaptiveResult {
    /// Unique interfaces discovered over the whole run.
    pub fn unique_interfaces(&self) -> usize {
        self.interfaces.len()
    }

    /// Probes consumed over the whole run.
    pub fn probes(&self) -> u64 {
        self.stats.probes
    }

    /// The cross-vantage, cross-round union of every campaign's trace
    /// set ([`TraceSet::merge_all`] in execution order — rounds in
    /// order, vantage-major within a round), with per-trace vantage
    /// provenance. The merged interner is the loop's full discovery
    /// union; the trace columns keep the earliest campaign's trace per
    /// target.
    pub fn merged_traces(&self) -> TraceSet {
        TraceSet::merge_all(&self.traces)
    }
}

/// The loop's complete cross-round state — everything the next round
/// reads. Captured at every round boundary by the checkpoint layer
/// ([`Checkpoint`]); resuming from a snapshot of this state reproduces
/// the uninterrupted run bit-identically.
#[derive(Clone, Debug)]
pub(crate) struct LoopState {
    /// EWMA yield weights, one per configured vantage.
    pub(crate) vweights: Vec<f64>,
    /// Liveness mask, one per configured vantage; a vantage goes (and
    /// stays) dead when every one of its campaigns degrades in a round.
    pub(crate) alive: Vec<bool>,
    /// Interfaces discovered so far, in discovery order.
    pub(crate) seen: AddrSet,
    /// Targets already probed (never re-paid).
    pub(crate) probed: AddrSet,
    /// Subnets inferred so far, in discovery order.
    pub(crate) subnets: Vec<Ipv6Prefix>,
    /// Finished round reports.
    pub(crate) rounds: Vec<RoundReport>,
    /// Each finished round's exact target list.
    pub(crate) round_targets: Vec<Vec<Ipv6Addr>>,
    /// Every completed campaign's trace set. Shared, never mutated
    /// once pushed: a [`Checkpoint`] capture bumps reference counts
    /// instead of copying the ever-growing record, and the sets a
    /// retained checkpoint holds are the very ones the loop keeps
    /// reading.
    pub(crate) traces: Vec<Arc<TraceSet>>,
    /// Merged engine accounting.
    pub(crate) stats: EngineStats,
    /// Probes charged against the budget.
    pub(crate) consumed: u64,
    /// Consecutive rounds below the yield floor.
    pub(crate) low_streak: usize,
    /// The candidate pool the next round samples its targets from.
    pub(crate) pool: Vec<Ipv6Addr>,
    /// Accumulated virtual time: where the next round's campaigns
    /// start on the fault schedule's clock.
    pub(crate) vclock_us: u64,
    /// Alias-stage state; `Some` exactly when
    /// [`AdaptiveConfig::alias_resolution`] is on (installed at loop
    /// start, carried through checkpoints).
    pub(crate) alias: Option<AliasState>,
}

/// Cross-round state of the alias-resolution stage.
#[derive(Clone, Debug, Default)]
pub(crate) struct AliasState {
    /// The incrementally maintained router-level graph.
    pub(crate) builder: RouterGraphBuilder,
    /// Interfaces the prober has already tested (listed in a prior
    /// stage's groups/singletons/unresponsive) — the `tested` input of
    /// [`aliasres::sibling_candidates`]: candidates stay re-offerable,
    /// but a bucket with no untested member re-probes nobody.
    pub(crate) probed: AddrSet,
    /// MBT-confirmed pairs over all rounds.
    pub(crate) pairs_confirmed: u64,
    /// MBT-rejected pairs over all rounds.
    pub(crate) pairs_rejected: u64,
    /// Alias probes charged against the budget over all rounds.
    pub(crate) probes: u64,
}

impl LoopState {
    fn fresh(initial: &TargetSet, k: usize) -> Self {
        LoopState {
            vweights: vec![1.0 / k as f64; k],
            alive: vec![true; k],
            seen: AddrSet::new(),
            probed: AddrSet::new(),
            subnets: Vec::new(),
            rounds: Vec::new(),
            round_targets: Vec::new(),
            traces: Vec::new(),
            stats: EngineStats::default(),
            consumed: 0,
            low_streak: 0,
            pool: initial.addrs.clone(),
            vclock_us: 0,
            alias: None,
        }
    }
}

/// Runs the adaptive loop with each round's campaigns executed
/// serially. See the module docs for the loop structure.
pub fn run_adaptive(
    topo: &Arc<Topology>,
    initial: &TargetSet,
    cfg: &AdaptiveConfig,
) -> AdaptiveResult {
    let st = LoopState::fresh(initial, cfg.vantages.len().max(1));
    run_loop(topo, cfg, false, st, None, |_| {})
}

/// Runs the adaptive loop with each round's campaigns executed on the
/// work-queue thread pool. Bit-identical to [`run_adaptive`] (campaigns
/// are engine-isolated and return in input order); the discovery
/// mining between rounds is always on the calling thread.
pub fn run_adaptive_parallel(
    topo: &Arc<Topology>,
    initial: &TargetSet,
    cfg: &AdaptiveConfig,
) -> AdaptiveResult {
    let st = LoopState::fresh(initial, cfg.vantages.len().max(1));
    run_loop(topo, cfg, true, st, None, |_| {})
}

/// Runs the adaptive loop seeded from a prior run's persisted sharded
/// store ([`ShardedTraceSet`], typically loaded with
/// [`analysis::read_sharded_snapshot`]): everything the snapshot
/// already discovered counts as seen, every target it already holds a
/// trace for is pre-marked probed, and budget flows only to *new*
/// targets — plus a stride-sampled set of **canaries**
/// ([`DeltaSeedConfig::canary_targets`]) re-probed to detect topology
/// change. A canary whose observations differ from the stored trace
/// reopens its whole target-prefix shard (every stored target in the
/// canary's [`ShardRoute`](analysis::ShardRoute) shard is re-queued)
/// and resets the yield-floor streak, so changed regions are re-swept
/// at full intensity while unchanged regions cost only their canaries.
///
/// Reads [`AdaptiveConfig::delta_seeding`] (its default when `None`).
/// The result's `traces` include the prior shards (the merged view is
/// the updated store); `stats`/`probes()` count only this run's
/// probing. Delta runs are not checkpointable — the snapshot, not the
/// checkpoint layer, is the durability story here.
pub fn run_adaptive_delta(
    topo: &Arc<Topology>,
    initial: &TargetSet,
    cfg: &AdaptiveConfig,
    prior: &ShardedTraceSet,
    parallel: bool,
) -> AdaptiveResult {
    let dcfg = cfg.delta_seeding.unwrap_or_default();
    let mut st = LoopState::fresh(initial, cfg.vantages.len().max(1));
    // The snapshot's discoveries seed the seen-set (they are not
    // re-counted as yield) and its shards seed the kept trace record,
    // so the result's merged view is the updated store.
    prior.discovery_delta(&mut st.seen);
    st.traces
        .extend(prior.shards().iter().map(|s| Arc::new(s.clone())));
    // Every stored target — the prior run's initial *and* feedback
    // rounds — is pre-marked probed so no budget re-pays it (feedback
    // generation from the seeded seen-set re-derives much of the prior
    // run's target space; without this the delta run would re-sweep
    // it). Canaries are exempted: they stay probeable for change
    // detection. Shard target lists are disjoint, so one sort yields
    // the stride-sampling order.
    let mut known: Vec<Ipv6Addr> = prior
        .shards()
        .iter()
        .flat_map(|s| s.targets().iter().copied())
        .collect();
    known.sort_unstable();
    let canaries = stride_sample(&known, dcfg.canary_targets.max(1));
    for &t in &known {
        if canaries.binary_search(&t).is_err() {
            st.probed.insert(t);
        }
    }
    // The canaries ride the force queue into round 0: most stored
    // targets are feedback-round derivations outside `initial`'s pool,
    // so sampling the pool alone would re-probe almost none of them.
    let delta = DeltaCtx {
        prior,
        force: canaries.clone(),
        canaries,
        reopened: vec![false; prior.n_shards()],
    };
    run_loop(topo, cfg, parallel, st, Some(delta), |_| {})
}

/// [`run_adaptive`] (or its parallel form) with a [`Checkpoint`]
/// handed to `on_round` at **every round boundary** — after the
/// round's mining, budget accounting and pool regeneration, i.e.
/// exactly the state the next round starts from. Persist
/// [`Checkpoint::to_bytes`] wherever durability lives; a process
/// killed between rounds resumes with [`resume_adaptive`]
/// bit-identically.
pub fn run_adaptive_checkpointed(
    topo: &Arc<Topology>,
    initial: &TargetSet,
    cfg: &AdaptiveConfig,
    parallel: bool,
    mut on_round: impl FnMut(&Checkpoint),
) -> AdaptiveResult {
    let digest = config_digest(topo, cfg);
    let st = LoopState::fresh(initial, cfg.vantages.len().max(1));
    run_loop(topo, cfg, parallel, st, None, |s| {
        on_round(&Checkpoint::capture(digest, s))
    })
}

/// Continues an adaptive run from a round-boundary [`Checkpoint`].
/// The final [`AdaptiveResult`] — merged trace set, stats, reports —
/// is bit-identical to the run that was never interrupted, provided
/// `topo` and `cfg` are the ones the checkpoint was taken under
/// (enforced by digest; a mismatch is a [`ResumeError`], not a corrupt
/// result).
pub fn resume_adaptive(
    topo: &Arc<Topology>,
    cfg: &AdaptiveConfig,
    ckpt: &Checkpoint,
    parallel: bool,
) -> Result<AdaptiveResult, ResumeError> {
    resume_adaptive_checkpointed(topo, cfg, ckpt, parallel, |_| {})
}

/// [`resume_adaptive`] that keeps checkpointing: `on_round` fires at
/// every round boundary after the resume point.
pub fn resume_adaptive_checkpointed(
    topo: &Arc<Topology>,
    cfg: &AdaptiveConfig,
    ckpt: &Checkpoint,
    parallel: bool,
    mut on_round: impl FnMut(&Checkpoint),
) -> Result<AdaptiveResult, ResumeError> {
    let digest = config_digest(topo, cfg);
    if digest != ckpt.digest() {
        return Err(ResumeError::ConfigMismatch);
    }
    Ok(run_loop(
        topo,
        cfg,
        parallel,
        ckpt.state().clone(),
        None,
        |s| on_round(&Checkpoint::capture(digest, s)),
    ))
}

/// Cross-round context of a delta-seeded run ([`run_adaptive_delta`]):
/// the prior store the canaries compare against, which shards have
/// already been reopened, and the reopened targets queued for the next
/// round. `None` everywhere else — the plain loop never looks at it.
struct DeltaCtx<'a> {
    prior: &'a ShardedTraceSet,
    /// Stride-sampled known targets re-probed for change detection
    /// (sorted — a subset of the sorted initial list).
    canaries: Vec<Ipv6Addr>,
    /// Reopen-once latch per prior shard.
    reopened: Vec<bool>,
    /// Targets queued for forced re-probing (reopened shards), drained
    /// up to the round cap each round.
    force: Vec<Ipv6Addr>,
}

/// The distinct interfaces of `sets`, in first-appearance order.
fn interfaces_of(sets: &[Arc<TraceSet>]) -> AddrSet {
    let mut all = AddrSet::new();
    for ts in sets {
        ts.discovery_delta(&mut all);
    }
    all
}

fn run_loop(
    topo: &Arc<Topology>,
    cfg: &AdaptiveConfig,
    parallel: bool,
    mut st: LoopState,
    mut delta: Option<DeltaCtx<'_>>,
    mut on_round: impl FnMut(&LoopState),
) -> AdaptiveResult {
    assert!(!cfg.vantages.is_empty(), "at least one vantage required");
    // Install the alias stage's cross-round state on a fresh run; a
    // resumed run arrives with it already populated (or absent, when
    // the stage is off — the checkpoint round-trips both).
    if cfg.alias_resolution && st.alias.is_none() {
        st.alias = Some(AliasState::default());
    }
    let shards = cfg.shards.max(1);
    let k = cfg.vantages.len();
    assert_eq!(st.vweights.len(), k, "state/config vantage count mismatch");
    // Per-vantage yield weights: an EWMA-smoothed distribution (sums
    // to 1), updated from marginal yield when vantage budgeting is on;
    // uniform (and untouched) otherwise. The *allocation share* of a
    // vantage is `floor + (1 - k·floor) · weight` — an affine map that
    // keeps every vantage at or above the exploration floor exactly
    // while still summing to 1 (flooring-then-renormalizing would push
    // quiet vantages back below the floor). With dead vantages the
    // surviving weights renormalize and the same affine map runs over
    // the survivor count — a dead vantage's share flows to the living.
    let floor = cfg.vantage_floor_share.clamp(0.0, 1.0 / k as f64);
    let share_of = move |w: f64| floor + (1.0 - k as f64 * floor) * w;
    let share_vec = |vweights: &[f64], alive: &[bool]| -> Vec<f64> {
        let alive_k = alive.iter().filter(|&&a| a).count();
        if alive_k == k {
            // All alive: the original formula, untouched (bit-identical
            // to fault-free releases — no renormalizing division).
            return vweights.iter().map(|&w| share_of(w)).collect();
        }
        if alive_k == 0 {
            return vec![0.0; k];
        }
        let wsum: f64 = vweights
            .iter()
            .zip(alive)
            .filter(|&(_, &a)| a)
            .map(|(&w, _)| w)
            .sum();
        let floor_a = cfg.vantage_floor_share.clamp(0.0, 1.0 / alive_k as f64);
        vweights
            .iter()
            .zip(alive)
            .map(|(&w, &a)| {
                if !a {
                    0.0
                } else {
                    let wn = if wsum > 0.0 {
                        w / wsum
                    } else {
                        1.0 / alive_k as f64
                    };
                    floor_a + (1.0 - alive_k as f64 * floor_a) * wn
                }
            })
            .collect()
    };
    let resolver = cfg.path_div.map(|_| {
        AsnResolver::new(
            topo.bgp.clone(),
            topo.rir_extra.clone(),
            &topo.asn_equivalences,
        )
    });
    // Rebuilt (not checkpointed) views of checkpointed state, extended
    // as the round's sets are kept: membership of `st.subnets`, and
    // the distinct interfaces of the kept trace record. With the
    // quarantine off every mined set is kept raw, so those are
    // `st.seen` itself; with it on the record holds the scrubbed sets
    // and `clean_seen` tracks their (fewer) interfaces.
    let mut subnet_set: BTreeSet<Ipv6Prefix> = st.subnets.iter().copied().collect();
    let mut clean_seen = cfg.quarantine_feedback.then(|| interfaces_of(&st.traces));

    let stop = loop {
        let round = st.rounds.len();
        // Every stop decision happens here at the loop top, from state
        // alone — that is what makes the round-boundary checkpoint a
        // complete resume point. Order matters and mirrors the original
        // control flow: the yield-floor verdict of the previous round
        // precedes the round cap.
        if st.low_streak > 0 && st.low_streak >= cfg.patience {
            break StopReason::YieldFloor;
        }
        if round >= cfg.max_rounds {
            break StopReason::MaxRounds;
        }
        let alive_k = st.alive.iter().filter(|&&a| a).count();
        if alive_k == 0 {
            break StopReason::AllVantagesDown;
        }
        // Nominal per-target probe cost, used only to pre-truncate a
        // round's list; the budget itself is enforced on actual
        // injections. Dead vantages don't probe, so they don't count.
        let per_target = cfg.yarrp.max_ttl as u64 * alive_k as u64;
        let remaining = cfg.probe_budget.saturating_sub(st.consumed);
        let budget_cap = (remaining / per_target) as usize;
        if budget_cap == 0 {
            break StopReason::BudgetExhausted;
        }

        // This round's targets: the unprobed part of the pool, capped
        // by the round size and the remaining budget. When the pool
        // overflows the cap, stride-sample it so the round spans the
        // whole (sorted) pool instead of starving high address space —
        // a lowest-first truncation would spend every round in the
        // same low slabs.
        let unprobed: Vec<Ipv6Addr> = st
            .pool
            .iter()
            .copied()
            .filter(|&a| !st.probed.contains(a))
            .collect();
        let cap = cfg.round_targets.min(budget_cap);
        // Delta seeding: reopened-shard targets jump the queue — they
        // fill the round up to the cap first (leftovers wait for the
        // next round), the regular pool sample takes what remains.
        let forced: Vec<Ipv6Addr> = match delta.as_mut() {
            Some(d) if !d.force.is_empty() => {
                let take = d.force.len().min(cap);
                d.force.drain(..take).collect()
            }
            _ => Vec::new(),
        };
        let targets = if forced.is_empty() {
            stride_sample(&unprobed, cap)
        } else {
            let mut t = forced;
            t.extend(stride_sample(&unprobed, cap - t.len()));
            t.sort_unstable();
            t.dedup();
            t
        };
        if targets.is_empty() {
            break StopReason::NoTargets;
        }
        for &t in &targets {
            // Forced re-probes were already marked in a prior round (or
            // at delta seeding); re-inserting is a harmless no-op.
            st.probed.insert(t);
        }

        // Per-vantage allocation of the round's `alive_k × |targets|`
        // target-probe budget: uniform budgeting gives every living
        // vantage the full list; vantage budgeting splits it by the
        // tracked yield shares (dead vantages hold share 0).
        let alloc: Vec<usize> = if cfg.vantage_budgeting && k > 1 {
            let shares = share_vec(&st.vweights, &st.alive);
            shares
                .iter()
                .zip(&st.alive)
                .map(|(&s, &a)| {
                    if !a {
                        0
                    } else {
                        ((s * (alive_k * targets.len()) as f64).round() as usize)
                            .clamp(1, targets.len())
                    }
                })
                .collect()
        } else {
            st.alive
                .iter()
                .map(|&a| if a { targets.len() } else { 0 })
                .collect()
        };

        // Round-robin sharding keeps each shard spread across the
        // address space (and the permutation within a campaign does the
        // rest of the burst-avoidance). Under vantage budgeting each
        // vantage first stride-samples its allocated slice of the round
        // list, so a shrunken allocation still spans the whole space;
        // with uniform allocations (the default mode, and any round
        // where every share rounds to the full list) all vantages share
        // one set of shard sets instead of building k identical copies.
        let make_shards = |vtargets: &[Ipv6Addr]| -> Vec<TargetSet> {
            (0..shards)
                .map(|s| {
                    let name: Arc<str> = if shards == 1 {
                        format!("adaptive-r{round}").into()
                    } else {
                        format!("adaptive-r{round}-s{s}").into()
                    };
                    TargetSet::new(
                        name,
                        vtargets
                            .iter()
                            .copied()
                            .enumerate()
                            .filter(|(i, _)| i % shards == s)
                            .map(|(_, a)| a),
                    )
                })
                .collect()
        };
        let uniform = alive_k == k && alloc.iter().all(|&n| n >= targets.len());
        let vantage_sets: Vec<Vec<TargetSet>> = if uniform {
            vec![make_shards(&targets)]
        } else {
            alloc
                .iter()
                .map(|&n| {
                    if n == 0 {
                        Vec::new()
                    } else {
                        make_shards(&stride_sample(&targets, n))
                    }
                })
                .collect()
        };
        // Specs plus a campaign → vantage-position map (dead vantages
        // contribute no campaigns, so `i / shards` no longer works).
        let mut specs: Vec<CampaignSpec<'_>> = Vec::new();
        let mut spec_vi: Vec<usize> = Vec::new();
        for (vi, &v) in cfg.vantages.iter().enumerate() {
            for set in &vantage_sets[if uniform { 0 } else { vi }] {
                specs.push(CampaignSpec {
                    vantage_idx: v,
                    set,
                    cfg: cfg.yarrp,
                });
                spec_vi.push(vi);
            }
        }

        // Supervised execution: campaigns start at the loop's virtual
        // clock, failures and blackouts retry with deterministic
        // backoff, exhausted retries come back degraded, never a panic.
        let results = stream_campaigns_supervised(
            topo,
            &specs,
            &cfg.stream,
            &cfg.retry,
            st.vclock_us,
            parallel,
        );
        let round_elapsed = results.iter().map(|sc| sc.elapsed_us).max().unwrap_or(0);

        // Quarantine (opt-in): scrub hostile-responder artifacts from
        // the round's trace sets *jointly* — evidence pools across
        // vantages, so a router lying toward one is condemned toward
        // all — before any cell reaches subnet inference, the kept
        // trace record, or the feedback generators. Discovery
        // *counting* (seen-set, attribution) stays on the raw sets:
        // everything past the decoder is a real, checksum-validated
        // responder. `cleaned` is index-aligned with `results` (None
        // where a campaign failed outright). Default off: the raw
        // path below is untouched.
        let mut cleaned: Vec<Option<TraceSet>> = if cfg.quarantine_feedback {
            let refs: Vec<&TraceSet> = results
                .iter()
                .filter_map(|sc| sc.result.as_ref().map(|run| &run.output))
                .collect();
            let (scrubbed, _report) = quarantine_all(&refs, &cfg.quarantine);
            let mut it = scrubbed.into_iter();
            results
                .iter()
                .map(|sc| {
                    sc.result
                        .as_ref()
                        .map(|_| it.next().expect("scrubbed sets align with results"))
                })
                .collect()
        } else {
            Vec::new()
        };

        // Per-vantage yield attribution, *before* the global seen-set
        // absorbs the round: crediting against the unmutated round-
        // start state means shared finds credit every vantage that
        // made them, without order bias — and without cloning the
        // (ever-growing) seen-set each round.
        let mut per_v: Vec<VantageRound> = cfg
            .vantages
            .iter()
            .zip(&alloc)
            .map(|(&v, &n)| VantageRound {
                vantage: v,
                targets: n as u64,
                probes: 0,
                new_interfaces: 0,
                next_share: 0.0,
                degraded: false,
                attempts: 0,
                fault_dropped: 0,
            })
            .collect();
        let mut vfresh = AddrSet::new();
        let mut cur_vi = usize::MAX;
        // A vantage survives the round if at least one of its campaigns
        // came back non-degraded.
        let mut v_ok = vec![false; k];
        for (i, sc) in results.iter().enumerate() {
            let vi = spec_vi[i];
            if vi != cur_vi {
                vfresh = AddrSet::new();
                cur_vi = vi;
            }
            per_v[vi].probes += sc.stats.probes;
            per_v[vi].attempts = per_v[vi].attempts.max(sc.attempts);
            per_v[vi].fault_dropped += sc.stats.fault_dropped_total();
            if sc.degraded {
                per_v[vi].degraded = true;
            } else {
                v_ok[vi] = true;
            }
            if let Some(run) = &sc.result {
                // Attribution (like the seen-set below) counts every
                // checksum-validated responder, quarantined or not:
                // condemned responders are real interfaces whose
                // *reported structure* is untrustworthy — discovery
                // accounting keeps them, feedback does not.
                for &w in run.output.interner().words() {
                    let a = Ipv6Addr::from(w);
                    if !st.seen.contains(a) && vfresh.insert(a) {
                        per_v[vi].new_interfaces += 1;
                    }
                }
            }
        }

        // Mine the round: discovery deltas against the global seen-set,
        // inferred subnets, merged engine accounting (every supervised
        // attempt's probes count — retries burn real budget).
        let sets_before = st.traces.len();
        let mut round_stats = EngineStats::default();
        let mut new_ifaces = 0u64;
        let mut new_subnets = 0u64;
        for (i, sc) in results.into_iter().enumerate() {
            round_stats.merge(&sc.stats);
            let Some(run) = sc.result else {
                continue; // hard failure: no trace set to mine
            };
            // The seen-set absorbs the *raw* set — every responder
            // that survived the panic-free decoder (checksum-verified,
            // quote-consistent) is a genuinely observed interface and
            // counts toward yield, even when the quarantine condemns
            // its reported hop structure.
            new_ifaces += run.output.discovery_delta(&mut st.seen).len() as u64;
            // Structure mining and the kept trace record use the
            // quarantined set when the stage is on: subnet inference,
            // path-divergence and the result's traces then hold only
            // clean cells.
            let ts = match cleaned.get_mut(i).and_then(|c| c.take()) {
                Some(clean) => clean,
                None => run.output,
            };
            for cand in ia_hack(&ts) {
                if subnet_set.insert(cand.prefix) {
                    st.subnets.push(cand.prefix);
                    new_subnets += 1;
                }
            }
            if let (Some(params), Some(res)) = (&cfg.path_div, &resolver) {
                let v = cfg.vantages[spec_vi[i]];
                let vasn = topo.ases[topo.vantages[v as usize].as_idx as usize].asn;
                for cand in discover_by_path_div(&ts, res, vasn, params) {
                    if subnet_set.insert(cand.prefix) {
                        st.subnets.push(cand.prefix);
                        new_subnets += 1;
                    }
                }
            }
            if let Some(clean) = clean_seen.as_mut() {
                ts.discovery_delta(clean);
            }
            st.traces.push(Arc::new(ts));
        }
        let kept = clean_seen.as_ref().unwrap_or(&st.seen);

        // Alias-resolution stage (opt-in): extend the incremental
        // router graph with the round's kept sets, derive candidate
        // sibling interfaces from the discoveries, and speedtrap them
        // under the supervised campaign rules — on the loop's virtual
        // clock (after the round's campaigns), charged against the
        // same global probe budget. Default off: no probe is sent and
        // none of the round's accounting moves.
        let mut alias_elapsed = 0u64;
        let (mut alias_probes, mut alias_confirmed, mut alias_rejected) = (0u64, 0u64, 0u64);
        let mut routers = 0u64;
        if let Some(al) = st.alias.as_mut() {
            for ts in &st.traces[sets_before..] {
                al.builder.ingest(ts);
            }
            // Candidates stay re-offerable (a cross-round pair needs
            // the old member probed alongside the new one), but only a
            // bucket with an untested arrival is offered at all.
            let cand = stride_sample(
                &sibling_candidates(kept, &st.traces[sets_before..], &al.probed),
                cfg.alias.max_candidates_per_round,
            );
            let remaining = cfg
                .probe_budget
                .saturating_sub(st.consumed)
                .saturating_sub(round_stats.probes);
            let cap = cfg.alias.max_probes_per_round.min(remaining);
            if !cand.is_empty() && cap > 0 {
                if let Some(vi) = st.alive.iter().position(|&a| a) {
                    let run = resolve_aliases_supervised(
                        topo,
                        cfg.vantages[vi],
                        &cand,
                        &cfg.alias.probe,
                        &cfg.retry,
                        st.vclock_us.saturating_add(round_elapsed),
                        cap,
                    );
                    round_stats.merge(&run.stats);
                    alias_probes = run.stats.probes;
                    alias_elapsed = run.elapsed_us;
                    per_v[vi].probes += run.stats.probes;
                    per_v[vi].fault_dropped += run.stats.fault_dropped_total();
                    per_v[vi].attempts = per_v[vi].attempts.max(run.attempts);
                    if run.degraded {
                        per_v[vi].degraded = true;
                    }
                    if let Some(sets) = run.sets {
                        alias_confirmed = sets.pairs_confirmed;
                        alias_rejected = sets.pairs_rejected;
                        for g in &sets.groups {
                            al.builder.merge_alias_group(g);
                            for &a in g {
                                al.probed.insert(a);
                            }
                        }
                        for &a in sets.singletons.iter().chain(&sets.unresponsive) {
                            al.probed.insert(a);
                        }
                    }
                }
            }
            al.probes += alias_probes;
            al.pairs_confirmed += alias_confirmed;
            al.pairs_rejected += alias_rejected;
            routers = al.builder.observed_node_count() as u64;
        }

        st.stats.merge(&round_stats);
        st.consumed += round_stats.probes;
        // All of a round's campaigns run concurrently in virtual time;
        // the round occupies the slowest one's span (including retry
        // backoffs), the alias stage runs after it, and the next round
        // starts after both.
        st.vclock_us = st
            .vclock_us
            .saturating_add(round_elapsed)
            .saturating_add(alias_elapsed);

        // Liveness: a vantage whose every campaign degraded is dead —
        // its weight zeroes and later rounds exclude it. (A vantage
        // with no campaigns this round keeps its state.)
        for vi in 0..k {
            if st.alive[vi] && per_v[vi].degraded && !v_ok[vi] {
                st.alive[vi] = false;
                st.vweights[vi] = 0.0;
            }
        }

        // Budget allocator update: shift the next round's allocation
        // toward the vantages that earned their probes this round. The
        // EWMA blends two distributions, so the weights stay a
        // distribution without renormalizing. (Dead vantages yield 0
        // and decay toward 0; the share map renormalizes survivors.)
        if cfg.vantage_budgeting && k > 1 {
            let yields: Vec<f64> = per_v
                .iter()
                .map(|p| p.new_interfaces as f64 / p.probes.max(1) as f64)
                .collect();
            let total: f64 = yields.iter().sum();
            if total > 0.0 {
                let keep = cfg.vantage_smoothing.clamp(0.0, 1.0);
                for (w, y) in st.vweights.iter_mut().zip(&yields) {
                    *w = keep * *w + (1.0 - keep) * (y / total);
                }
            }
        }
        let next_shares = share_vec(&st.vweights, &st.alive);
        for (p, &s) in per_v.iter_mut().zip(&next_shares) {
            p.next_share = s;
        }

        let yield_per_kprobe = 1000.0 * new_ifaces as f64 / round_stats.probes.max(1) as f64;
        st.rounds.push(RoundReport {
            round,
            targets: targets.len() as u64,
            probes: round_stats.probes,
            new_interfaces: new_ifaces,
            new_subnets,
            yield_per_kprobe,
            rate_limited: round_stats.rate_limited,
            rl_dropped_default: round_stats.rl_dropped_default,
            rl_dropped_aggressive: round_stats.rl_dropped_aggressive,
            routers,
            alias_pairs_confirmed: alias_confirmed,
            alias_pairs_rejected: alias_rejected,
            alias_probes,
            per_vantage: per_v,
        });
        st.round_targets.push(targets);

        // Stopping rule bookkeeping: marginal yield below the floor
        // for `patience` consecutive rounds (the break itself happens
        // at the loop top, off checkpointable state).
        if yield_per_kprobe < cfg.min_yield_per_kprobes {
            st.low_streak += 1;
        } else {
            st.low_streak = 0;
        }

        // Delta seeding: compare every canary probed this round against
        // its stored trace. Changed (or vanished) observations reopen
        // the canary's whole target-prefix shard — its stored targets
        // queue for forced re-probing — and reset the yield streak so
        // the floor can't stop the loop before the re-sweep runs.
        if let Some(d) = delta.as_mut() {
            let round_list = st
                .round_targets
                .last()
                .expect("round list pushed just above");
            let this_round = &st.traces[sets_before..];
            let mut reopened_any = false;
            for &c in &d.canaries {
                if round_list.binary_search(&c).is_err() {
                    continue; // not sampled this round
                }
                let changed = match (d.prior.get(c), this_round.iter().find_map(|ts| ts.get(c))) {
                    (Some(p), Some(f)) => !f.same_observations(&p),
                    (Some(_), None) => true, // trace vanished entirely
                    (None, _) => false,      // canaries are prior targets
                };
                if changed {
                    let s = d.prior.route().shard_of(c);
                    if !d.reopened[s] {
                        d.reopened[s] = true;
                        // Canaries re-probe through their own sampling;
                        // everything else in the shard queues.
                        d.force.extend(
                            d.prior
                                .shard(s)
                                .targets()
                                .iter()
                                .copied()
                                .filter(|t| d.canaries.binary_search(t).is_err()),
                        );
                        reopened_any = true;
                    }
                }
            }
            if reopened_any {
                st.low_streak = 0;
            }
        }

        // Skip pool regeneration when the loop top is certain to stop —
        // don't pay for (and then discard) a generation pass.
        let alive_after = st.alive.iter().filter(|&&a| a).count();
        let next_per_target = cfg.yarrp.max_ttl as u64 * alive_after.max(1) as u64;
        let stopping = (st.low_streak > 0 && st.low_streak >= cfg.patience)
            || st.rounds.len() >= cfg.max_rounds
            || alive_after == 0
            || cfg.probe_budget.saturating_sub(st.consumed) < next_per_target;
        if !stopping {
            // Feedback: regenerate the pool from *all* discoveries so
            // far plus everything already probed — the paper's 6Gen
            // basis ("targets probed plus interfaces discovered");
            // cumulative input gives the generators their cluster mass,
            // and the `probed` filter at the top keeps rounds from
            // re-paying.
            // With the quarantine on, *only clean interfaces feed
            // forward*: the kept trace record holds the scrubbed sets,
            // whose interners are exactly the surviving observations —
            // a condemned responder steers no future targeting.
            let discovered: Vec<Ipv6Addr> = kept.iter().collect();
            let probed_targets: Vec<Ipv6Addr> = st.probed.iter().collect();
            let fb = feedback_list(
                format!("adaptive-fb-r{round}"),
                &discovered,
                &probed_targets,
                &st.subnets,
                &cfg.feedback,
                mix(cfg.rng_seed ^ round as u64),
            );
            st.pool = feedback_targets(
                format!("adaptive-r{}", round + 1),
                &fb,
                cfg.per_prefix_64s,
                cfg.iid,
            )
            .addrs;
        }
        // Round boundary: everything the next loop-top reads is now in
        // `st` — the checkpoint the observer sees is a complete resume
        // point.
        on_round(&st);
    };

    let router_level = st.alias.map(|al| RouterLevelResult {
        graph: al.builder.snapshot(),
        interfaces: al.builder.observed_interface_count() as u64,
        alias_probes: al.probes,
        pairs_confirmed: al.pairs_confirmed,
        pairs_rejected: al.pairs_rejected,
    });
    AdaptiveResult {
        rounds: st.rounds,
        round_targets: st.round_targets,
        // Free when no checkpoint was retained; a retained one keeps
        // its sets and the result takes copies.
        traces: st.traces.into_iter().map(Arc::unwrap_or_clone).collect(),
        stats: st.stats,
        interfaces: st.seen,
        subnets: st.subnets,
        router_level,
        stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::config::TopologyConfig;
    use simnet::generate::generate;

    fn fixture() -> (Arc<Topology>, TargetSet) {
        let topo = Arc::new(generate(TopologyConfig::tiny(42)));
        let addrs: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(60).collect();
        let set = TargetSet::new("adaptive-r0", addrs);
        (topo, set)
    }

    fn small_cfg() -> AdaptiveConfig {
        AdaptiveConfig {
            probe_budget: 60_000,
            round_targets: 200,
            max_rounds: 3,
            min_yield_per_kprobes: 0.0,
            ..AdaptiveConfig::default()
        }
    }

    #[test]
    fn loop_runs_and_accounts() {
        let (topo, set) = fixture();
        let res = run_adaptive(&topo, &set, &small_cfg());
        assert!(!res.rounds.is_empty());
        assert!(res.unique_interfaces() > 0);
        assert_eq!(res.rounds.len(), res.round_targets.len());
        // Stats accumulate across every campaign.
        let per_campaign: u64 = res.rounds.iter().map(|r| r.probes).sum();
        assert_eq!(res.stats.probes, per_campaign);
        // No round re-probes a target.
        let mut all = AddrSet::new();
        for rt in &res.round_targets {
            for &t in rt {
                assert!(all.insert(t), "target {t} probed twice");
            }
        }
        // Fault-free: nothing degraded, everything first-try.
        for r in &res.rounds {
            assert!(r.degraded_vantages().is_empty());
            for pv in &r.per_vantage {
                assert_eq!(pv.attempts, 1);
                assert_eq!(pv.fault_dropped, 0);
            }
        }
    }

    #[test]
    fn budget_is_respected() {
        let (topo, set) = fixture();
        let cfg = AdaptiveConfig {
            probe_budget: 5_000,
            round_targets: 10_000,
            max_rounds: 10,
            min_yield_per_kprobes: 0.0,
            ..AdaptiveConfig::default()
        };
        let res = run_adaptive(&topo, &set, &cfg);
        // Each round is pre-truncated to the nominal remainder, so the
        // overshoot is at most one round's fill-mode surplus.
        let nominal: u64 = res
            .rounds
            .iter()
            .map(|r| r.targets * cfg.yarrp.max_ttl as u64 * cfg.vantages.len() as u64)
            .sum();
        assert!(nominal <= cfg.probe_budget);
        assert!(matches!(
            res.stop,
            StopReason::BudgetExhausted | StopReason::YieldFloor | StopReason::NoTargets
        ));
    }

    #[test]
    fn yield_floor_stops_early() {
        let (topo, set) = fixture();
        let cfg = AdaptiveConfig {
            probe_budget: 10_000_000,
            round_targets: 50,
            max_rounds: 20,
            min_yield_per_kprobes: 1e9, // unreachable floor
            patience: 2,
            ..AdaptiveConfig::default()
        };
        let res = run_adaptive(&topo, &set, &cfg);
        assert_eq!(res.stop, StopReason::YieldFloor);
        assert_eq!(res.rounds.len(), 2);
    }
}
