//! Adaptive multi-round topology discovery: the closed feedback loop
//! the paper argues for — *what you probe determines what you see*, so
//! round *n+1*'s targets are generated from round *n*'s discoveries.
//!
//! ```text
//!        ┌──────────── targets (round n) ────────────┐
//!        │                                           ▼
//!  seeds/feedback ◄── interfaces + subnets ◄── streamed campaigns
//!   (kIP + 6Gen)        (seen-set walk,         → TraceSetBuilder
//!        │               IA hack/path-div)            │
//!        └────────── targets (round n+1) ◄────────────┘
//! ```
//!
//! Rounds are **multi-vantage** (every configured vantage probes each
//! round under one global seen-set), run under a global probe budget,
//! and repeat until the marginal yield stays below a floor for
//! [`AdaptiveConfig::patience`] consecutive rounds. Four behaviours
//! are opt-in and bit-identical to their absence when off:
//! [`vantage_budgeting`](AdaptiveConfig::vantage_budgeting),
//! [`quarantine_feedback`](AdaptiveConfig::quarantine_feedback),
//! [`alias_resolution`](AdaptiveConfig::alias_resolution) and
//! [`path_div`](AdaptiveConfig::path_div). Delta seeding is a starting
//! checkpoint of its own, [`Checkpoint::delta`].
//!
//! ## Stages
//!
//! The loop is a short driver over one state, `LoopState` — everything
//! the next round reads, each fact once, owned by the [`Checkpoint`]
//! the round-boundary observer is shown — plus the views every run
//! rebuilds from it at loop entry (known subnets, probed targets, a
//! delta run's canaries). A round is the stages below, in order; each
//! is one private function that takes the state plus the round-local
//! outputs of earlier stages and returns its own.
//!
//! | stage | reads | writes in `LoopState` | belongs to |
//! |---|---|---|---|
//! | stop rule | `low_streak`, `rounds`, `alive`, `stats` (its probe count is the budget's charge) | — (ends the loop: yield floor, round cap, all vantages down, budget) | always |
//! | plan/budget | `pool`, `vweights`, `alive`, `stats`, the probed view; `delta`'s force queue | `delta`'s force queue (drained up to the round cap); the probed view gains the round's stride-sampled, budget-capped targets | always; per-vantage allocation by yield share is `vantage_budgeting`, queue-jumping targets are a delta run's |
//! | probe | `vclock_us` (campaigns start there on the fault schedule) | — (one supervised outcome per vantage × shard) | always |
//! | quarantine | the round's raw sets, jointly | — (a scrubbed replacement for each set that lost cells, for everything that feeds *forward*; an untouched set is not copied) | `quarantine_feedback` |
//! | attribute | `seen`, the round's raw sets | `seen`, in one walk: each word is inserted once, and a word whose insertion index is at or past the round-start length is new, credited once to each vantage that heard it (raw sets: a decoded responder is a real interface) | always |
//! | mine | the round's kept sets (scrubbed when the quarantine is on) | `subnets`, the record (the round's kept sets appended, each vantage's folded into one set; the arrivals come back as a bitmap over the table's ids) | always; path divergence is `path_div` |
//! | alias ‖ | the round's kept sets and arrivals, the record's table (by id), `alive`, `vclock_us`, `stats` | `alias` (router graph, tested set) | `alias_resolution` |
//! | feedback ‖ | the record's table words, the probed view, `subnets` | — (returns the next pool: kIP + 6Gen over *all* discoveries, cumulative by the paper's definition of their basis) | always; not started when the round cap decides the stop |
//! | close round | every round-local output above | `stats`, `vclock_us`, `alive`, `vweights`, `rounds`, `round_targets`, `low_streak` | always; the EWMA weight update is `vantage_budgeting` |
//! | delta canaries | the round's targets and sets, the prior store (the record's [`prior`](Record::prior) set), the canary view | `delta`'s latches and force queue (a changed canary reopens its [`ShardRoute`] shard once; the stored targets routed to it queue), `low_streak` (reset when a shard reopens) | a delta run ([`Checkpoint::delta`]) |
//! | install pool | the stop rule, the generated pool | `pool` — or nothing: if the stop rule now stops, the pool is dropped | always |
//!
//! The two `‖` rows are the round tail's **two lanes**: they read the
//! same finished round and nothing of each other, `LoopState::lanes`
//! hands each its disjoint borrows of the state, and `join` runs them —
//! side by side under the parallel driver, one after the other under
//! the serial one, with the same results. That makes feedback
//! *speculative*: it is generated before the round closes, when only
//! the round cap is known to stop the loop (then it is not started);
//! a yield-floor, budget or all-vantages-down stop discards the one
//! pass generated beside its last alias stage. The mine stage is three
//! passes — account serially, run the subnet miners per set on the
//! campaign pool, fold serially in campaign order.
//!
//! Every other stage is sized by the round just finished, not by the
//! record so far: alias candidates come from a merge-join over the
//! round's sets ([`aliasres::sibling_candidates`]), the router count is
//! read off the graph builder's union-find
//! ([`RouterGraphBuilder::observed_node_count`]), the membership views
//! the stages share (known subnets, probed targets) are extended, never
//! rebuilt, and the kept record's interfaces are its table's words.
//!
//! ## The record's one table
//!
//! The kept trace record is one [`Record`]: a delta run's prior store
//! as one set, then one set per round and vantage. Each campaign
//! interns its responders into a table of its own while it streams. At
//! the round boundary, after the subnet miners (which read a set's own
//! ids), the mine stage appends the round's kept sets
//! (`Record::push_round`):
//! one [`TraceSet::rebase`] over the older sets, then the round's. The
//! older sets come first and share one table, so [`analysis::union`]
//! adopts it as it stands and extends it by the round's words; the
//! round's ids are remapped, and the extended table is handed to every
//! set. The older sets' ids stand, so no column of theirs is copied.
//! Then each vantage's sets fold into one ([`TraceSet::merge_all`]).
//! They are its shards, round-robin slices of one sorted target list,
//! so their paths share nearly every prefix, and the fold's one path
//! tree holds each shared prefix once where the shards held it once
//! each. On the shared table the fold remaps no id, and the shards'
//! targets are disjoint, so it drops no trace. The arrivals are read
//! off the rebase before the fold. The shard count is a probing detail
//! (the pool's work units): it does not shape how the record, the
//! result's traces or the checkpoint group the sets.
//! Every set of the record shares one table, a delta run's prior set
//! included once round 0 closes; it holds every word of the record, in
//! the order the rounds met them. Nothing a set's views read moves.
//! Downstream, the alias builder adopts each round's table, and the
//! merged view maps every set to `None`. Both lanes read the kept
//! interfaces as the table's words (with the quarantine off, `seen`'s,
//! in order: the attribute stage and `union` walk the same sets alike).
//! The alias candidates read the table by id: the round's arrivals are
//! a bitmap over its ids, marked off the rebase's id maps.
//!
//! The round's raw sets stay off the table. Rebased before the
//! quarantine, they would carry the words it removes into the record,
//! through the sibling sets it leaves unscrubbed, and reorder the
//! scrubbed sets' words; wherever it scrubs, the record, the merged
//! view, feedback's interfaces and the checkpoint would move. The raw
//! address space (`seen`) and the kept one (the record) stay apart.
//!
//! Once the pool is installed (or dropped) the state is a complete
//! resume point and the round-boundary observer borrows the
//! [`Checkpoint`] that owns it — nothing is copied to show it. The stop
//! rule reads state alone, which is what makes that true:
//! the same function decides at the loop top and decides whether the
//! generated pool is kept.
//!
//! ## Entry points and drivers
//!
//! A run starts fresh ([`run_adaptive_checkpointed`], from an initial
//! target set) or from a [`Checkpoint`] ([`resume_adaptive`]), which a
//! run seeded from a prior run's persisted store builds with
//! [`Checkpoint::delta`]. Both take `parallel` and the round-boundary
//! observer (`|_| {}` when nothing watches).
//!
//! The serial driver (`parallel = false`) runs each round's campaigns
//! one at a time and its subnet miners and two tail lanes in turn on
//! the calling thread; the parallel driver runs campaigns and miners on
//! the work-queue pool and the lanes side by side. It is one code path:
//! the drivers differ only inside `pool_map` and `join`. Campaigns are
//! engine-isolated, miners are pure per set, pool results return in
//! input order and the lanes share no mutable state, so the two are
//! bit-identical, checkpoint bytes at every round boundary included —
//! pinned by the `adaptive` suite, alongside a golden
//! test that a one-round run equals a plain single-vantage
//! [`analysis::CampaignRunner`] campaign, and by `everything_on` with
//! every opt-in at once on a faulty, hostile network.
//!
//! ## Fault tolerance
//!
//! The probe stage runs under the campaign supervisor
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
//! (stopping with [`StopReason::AllVantagesDown`] only when nobody is
//! left). A vantage index the topology does not have, an empty vantage
//! list or a zero TTL horizon is a configuration error and panics at
//! loop entry, naming the field; it is never reported as a fault.
//!
//! ## Checkpoint/resume
//!
//! [`resume_adaptive`] continues from any round-boundary
//! [`Checkpoint`] (a byte-deterministic snapshot of `LoopState`) and
//! produces results bit-identical to the uninterrupted run, its
//! observer shown the same checkpoints the uninterrupted run's was from
//! that round on — pinned by the `checkpoint` suite, and for delta runs
//! by the `delta_seeding` suite. A checkpoint taken under another
//! topology or configuration, or whose state does not fit the
//! configuration offered, is refused with
//! [`ResumeError::ConfigMismatch`]. The state holds nothing a run can
//! derive (`LoopState` lists what is derived), so the checkpoint
//! writes nothing twice.
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
    discover_by_path_div, ia_hack, quarantine_all, stream_campaigns_supervised, AddrInterner,
    AsnResolver, CandidateSubnet, PathDivParams, QuarantineConfig, ShardRoute, ShardedTraceSet,
    TraceSet,
};
use seeds::feedback::{feedback_list, FeedbackParams};
// The workspace's shared splitmix64, for per-round generation seeds.
use simnet::flow::mix64 as mix;
use simnet::{EngineStats, Topology};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::net::Ipv6Addr;
use std::sync::Arc;
use targets::{feedback_targets, stride_sample, IidStrategy, TargetSet};
use v6addr::Ipv6Prefix;
use yarrp6::addrset::AddrSet;
use yarrp6::campaign::{pool_map, CampaignSpec, RetryPolicy, SupervisedCampaign};
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
    /// Global probe budget: once the engines' cumulative probe count
    /// reaches it, no further round starts, and each round's target
    /// list is pre-truncated so its nominal cost
    /// (`targets × max_ttl × vantages`) fits the remainder.
    pub probe_budget: u64,
    /// Cap on targets probed per round (before the budget truncation).
    pub round_targets: usize,
    /// Shards per round: each round's target list is split round-robin
    /// into this many independent campaigns per vantage, giving the
    /// parallel driver work units and bounding per-campaign memory. The
    /// record folds a vantage's shards back into one set a round
    /// ([`AdaptiveResult::traces`]).
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
}

/// Knobs for the per-round alias-resolution stage
/// ([`AdaptiveConfig::alias_resolution`]).
#[derive(Clone, Copy, Debug)]
pub struct AliasStageConfig {
    /// Speedtrap prober parameters (probe size and rate).
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

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            yarrp: YarrpConfig::default(),
            stream: StreamConfig::default(),
            vantages: vec![0],
            vantage_budgeting: false,
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

/// A round's marginal yield, [`RoundReport::yield_per_kprobe`]: new
/// interfaces per thousand probes.
pub(crate) fn yield_per_kprobe(new_interfaces: u64, probes: u64) -> f64 {
    1000.0 * new_interfaces as f64 / probes.max(1) as f64
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
    /// The trace record: one trace set per round and vantage (its
    /// campaigns, the shards of its target list, folded into one),
    /// rounds in order, vantages in [`AdaptiveConfig::vantages`] order
    /// within a round, after a delta run's prior store
    /// ([`Checkpoint::delta`]). A campaign that failed hard (exhausted
    /// supervisor retries without one completed attempt) contributes no
    /// traces; a vantage all of whose campaigns did, no set.
    pub traces: Record,
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

    /// The cross-vantage, cross-round union of the record's trace sets
    /// ([`TraceSet::merge_all`] in execution order — rounds in order,
    /// vantage-major within a round). The merged interner is the
    /// loop's full discovery union; the trace columns keep the earliest
    /// campaign's trace per target and do not say which campaign that
    /// was. Per-vantage questions read [`traces`](Self::traces), each
    /// set named by its `vantage` field.
    pub fn merged_traces(&self) -> TraceSet {
        TraceSet::merge_all(self.traces.iter())
    }
}

/// The loop's trace record: a delta run's prior store as one set, then
/// one set per round and vantage, each the fold of that vantage's kept
/// campaign sets, all on one table (module docs, "The record's one
/// table"). A clone shares every set's columns and the
/// table, so a [`Checkpoint`] an observer keeps copies no column.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record {
    /// A delta run's prior store; `None` for any other run.
    pub(crate) prior: Option<TraceSet>,
    /// The rounds' sets, one a vantage, in the order
    /// [`AdaptiveResult::traces`] describes.
    pub(crate) sets: Vec<TraceSet>,
}

impl Record {
    /// A delta run's prior store, as one set.
    pub fn prior(&self) -> Option<&TraceSet> {
        self.prior.as_ref()
    }

    /// Every set of the record, the prior store first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceSet> {
        self.prior.iter().chain(&self.sets)
    }

    /// The record's one table; `None` while the record holds no set.
    pub(crate) fn table(&self) -> Option<&Arc<AddrInterner>> {
        self.iter().last().map(TraceSet::interner)
    }

    /// The record's table's words: every interface the record holds, in
    /// the order the rounds met them.
    pub(crate) fn words(&self) -> &[u128] {
        self.table().map_or(&[], |t| t.words())
    }

    /// Appends a round's kept sets, each with the vantage index it
    /// probed from, vantage-major: one [`TraceSet::rebase`] over the
    /// older sets, then the round's, and then each vantage's sets folded
    /// into one by [`TraceSet::merge_all`] (module docs, "The record's
    /// one table"). Returns the round's arrivals as a bitmap over the
    /// table's ids: the words the round's sets' own tables held, read
    /// off their id maps before the fold.
    pub(crate) fn push_round(&mut self, sets: Vec<(u8, TraceSet)>) -> Vec<bool> {
        let first = self.sets.len();
        let (vantages, sets): (Vec<u8>, Vec<TraceSet>) = sets.into_iter().unzip();
        let own: Vec<usize> = sets.iter().map(|ts| ts.interner().len()).collect();
        self.sets.extend(sets);
        let mut table = Arc::default();
        let maps = TraceSet::rebase(&mut table, self.prior.iter_mut().chain(&mut self.sets));
        let mut arrived = vec![false; table.len()];
        // The round's sets are the last ones rebased.
        for (map, &n) in maps.iter().rev().zip(own.iter().rev()) {
            match map {
                Some(m) => m.iter().for_each(|&id| arrived[id as usize] = true),
                None => arrived[..n].fill(true),
            }
        }
        // The sets share the table now, so the fold remaps no id, and a
        // vantage's sets hold disjoint targets, so it drops no trace.
        let mut round = self.sets.split_off(first).into_iter();
        for group in vantages.chunk_by(|a, b| a == b) {
            let mine: Vec<TraceSet> = round.by_ref().take(group.len()).collect();
            self.sets.push(TraceSet::merge_all(&mine));
        }
        arrived
    }
}

/// The loop's complete cross-round state — everything the next round
/// reads, each fact once, and nothing a stage can rebuild: the probed
/// targets are the round target lists (after a delta run's stored
/// targets but the canaries), the budget's charge is the stats' probe
/// count, the alias totals are the round reports' sums, the kept
/// interfaces are the record's table, a delta run's canaries come
/// from its prior set, and the router graph is the record's sets plus
/// its alias partition (which is all a checkpoint writes of it). It has
/// one owner: the loop runs on the state inside the [`Checkpoint`] it
/// shows the round-boundary observer, so a checkpoint is the loop's
/// state, not a copy of it, and resuming from one reproduces the
/// uninterrupted run bit-identically. The only clone is the one a resume makes of the
/// caller's `&Checkpoint`, once per run.
#[derive(Clone, Debug)]
pub(crate) struct LoopState {
    /// EWMA yield weights, one per configured vantage.
    pub(crate) vweights: Vec<f64>,
    /// Liveness mask, one per configured vantage; a vantage goes (and
    /// stays) dead when every one of its campaigns degrades in a round.
    pub(crate) alive: Vec<bool>,
    /// Interfaces discovered so far, in discovery order.
    pub(crate) seen: AddrSet,
    /// Subnets inferred so far, in discovery order.
    pub(crate) subnets: Vec<Ipv6Prefix>,
    /// Finished round reports.
    pub(crate) rounds: Vec<RoundReport>,
    /// Each finished round's exact target list.
    pub(crate) round_targets: Vec<Vec<Ipv6Addr>>,
    /// The trace record: a delta run's prior set, then each round's
    /// sets, one a vantage. A round only appends to it and hands every
    /// set the extended table; no column of a set moves once pushed.
    pub(crate) traces: Record,
    /// Merged engine accounting; its probe count is what the budget
    /// has been charged.
    pub(crate) stats: EngineStats,
    /// Consecutive rounds below the yield floor.
    pub(crate) low_streak: usize,
    /// The candidate pool the next round samples its targets from.
    pub(crate) pool: Vec<Ipv6Addr>,
    /// Accumulated virtual time: where the next round's campaigns
    /// start on the fault schedule's clock.
    pub(crate) vclock_us: u64,
    /// Delta-seeding state; `Some` exactly when the run started from
    /// [`Checkpoint::delta`].
    pub(crate) delta: Option<DeltaState>,
    /// Alias-stage state; `Some` exactly when
    /// [`AdaptiveConfig::alias_resolution`] is on (installed with the
    /// fresh state, carried through checkpoints).
    pub(crate) alias: Option<AliasState>,
}

/// Cross-round state of the alias-resolution stage.
#[derive(Clone, Debug, Default)]
pub(crate) struct AliasState {
    /// The incrementally maintained router-level graph: the record's
    /// round sets (never a delta run's prior set), ingested in record
    /// order, and the alias groups merged into it. A checkpoint writes
    /// only its partition and rebuilds the rest from the record.
    pub(crate) builder: RouterGraphBuilder,
    /// Interfaces the prober has already tested (listed in a prior
    /// stage's groups/singletons/unresponsive) — the `tested` input of
    /// [`aliasres::sibling_candidates`]: candidates stay re-offerable,
    /// but a bucket with no untested member re-probes nobody.
    pub(crate) probed: AddrSet,
}

/// Cross-round state of a delta-seeded run ([`Checkpoint::delta`]),
/// whose prior store is the record's [`prior`](Record::prior) set.
#[derive(Clone, Debug)]
pub(crate) struct DeltaState {
    /// The prior store's shard count: its [`ShardRoute`] is the unit a
    /// changed canary reopens.
    pub(crate) shards: usize,
    /// Reopen-once latch per prior shard.
    pub(crate) reopened: Vec<bool>,
    /// Targets queued for forced re-probing (the canaries, then
    /// reopened shards), drained up to the round cap each round.
    pub(crate) force: Vec<Ipv6Addr>,
}

/// The state no round has touched yet, inside the checkpoint that will
/// own it for the run.
fn fresh(topo: &Topology, initial: &TargetSet, cfg: &AdaptiveConfig) -> Checkpoint {
    let k = cfg.vantages.len();
    let state = LoopState {
        vweights: vec![1.0 / k as f64; k],
        alive: vec![true; k],
        seen: AddrSet::new(),
        subnets: Vec::new(),
        rounds: Vec::new(),
        round_targets: Vec::new(),
        traces: Record::default(),
        stats: EngineStats::default(),
        low_streak: 0,
        pool: initial.addrs.clone(),
        vclock_us: 0,
        delta: None,
        alias: cfg.alias_resolution.then(AliasState::default),
    };
    Checkpoint {
        digest: config_digest(topo, cfg),
        state,
    }
}

/// How many already-known targets a delta-seeded run re-probes as
/// canaries: a stride-sampled subset of the prior store's targets whose
/// observations are compared against the stored ones.
const CANARY_TARGETS: usize = 64;

/// The canaries: stride-sampled from the prior store's targets.
fn canaries(prior: &TraceSet) -> Vec<Ipv6Addr> {
    stride_sample(prior.targets(), CANARY_TARGETS)
}

impl Checkpoint {
    /// The starting checkpoint of a run seeded from a prior run's
    /// persisted sharded store ([`ShardedTraceSet`], typically loaded
    /// with [`analysis::read_sharded_snapshot`]); run it with
    /// [`resume_adaptive`]. Everything the snapshot already discovered
    /// counts as seen, every target it already holds a trace for is
    /// pre-marked probed, and budget flows only to *new* targets — plus
    /// a stride-sampled set of 64 **canaries** re-probed to detect
    /// topology change. A canary whose observations differ from the
    /// stored trace re-queues its whole [`ShardRoute`] shard and resets
    /// the yield-floor streak, so changed regions are re-swept at full
    /// intensity while unchanged regions cost only their canaries. The
    /// run's record holds the prior store as one set
    /// ([`ShardedTraceSet::to_trace_set`], a clone that shares the
    /// store's columns and table, so it copies nothing; the merged view
    /// is the updated store); `stats` counts only this run's probing.
    pub fn delta(
        topo: &Topology,
        initial: &TargetSet,
        cfg: &AdaptiveConfig,
        prior: &ShardedTraceSet,
    ) -> Checkpoint {
        let mut ck = fresh(topo, initial, cfg);
        let st = &mut ck.state;
        // The snapshot's discoveries seed the seen-set (they are not
        // re-counted as yield) and the store, as one set, leads the kept
        // trace record, so the result's merged view is the updated store.
        let prior_set = st.traces.prior.insert(prior.to_trace_set());
        prior_set.discovery_delta(&mut st.seen);
        // The canaries ride the force queue into round 0: most stored
        // targets are feedback-round derivations outside `initial`'s
        // pool, so sampling the pool alone would re-probe almost none.
        st.delta = Some(DeltaState {
            shards: prior.n_shards(),
            reopened: vec![false; prior.n_shards()],
            force: canaries(prior_set),
        });
        ck
    }
}

/// Runs the adaptive loop from `initial`: a fresh run. With
/// `parallel` each round's campaigns and per-set subnet miners run on
/// the work-queue thread pool and the round tail's two lanes side by
/// side; without it everything runs in turn on the calling thread. The
/// two are bit-identical (module docs, "Entry points and drivers").
///
/// The loop's [`Checkpoint`] is shown to `on_round` at **every round
/// boundary** — after the round's mining, budget accounting and pool
/// regeneration, i.e. exactly the state the next round starts from.
/// The observer borrows the state the loop runs on (showing it copies
/// nothing); persist [`Checkpoint::to_bytes`] wherever durability
/// lives, or clone it to keep the value, or pass `|_| {}`. A process
/// killed between rounds resumes with [`resume_adaptive`]
/// bit-identically.
pub fn run_adaptive_checkpointed(
    topo: &Arc<Topology>,
    initial: &TargetSet,
    cfg: &AdaptiveConfig,
    parallel: bool,
    on_round: impl FnMut(&Checkpoint),
) -> AdaptiveResult {
    run_loop(topo, cfg, parallel, fresh(topo, initial, cfg), on_round)
}

/// Continues an adaptive run from a [`Checkpoint`] — a round boundary
/// of an earlier run, or a delta run's start ([`Checkpoint::delta`]) —
/// with `parallel` and `on_round` as in [`run_adaptive_checkpointed`]:
/// `on_round` fires at every round boundary after the resume point. The
/// final [`AdaptiveResult`] — merged trace set, stats, reports — is
/// bit-identical to the run that was never interrupted, provided `topo`
/// and `cfg` are the ones the checkpoint was taken under. That is
/// enforced twice, and either failure is
/// [`ResumeError::ConfigMismatch`], not a corrupt result or a panic: the
/// digest must match, and the state must fit `cfg` — one budgeter
/// weight per configured vantage, alias state exactly when
/// [`AdaptiveConfig::alias_resolution`] is on. The caller's checkpoint
/// is left as it was; the resumed loop runs on a clone of it (which
/// shares the trace record).
pub fn resume_adaptive(
    topo: &Arc<Topology>,
    cfg: &AdaptiveConfig,
    ckpt: &Checkpoint,
    parallel: bool,
    on_round: impl FnMut(&Checkpoint),
) -> Result<AdaptiveResult, ResumeError> {
    // The decoder holds the liveness list to the weights' length.
    let st = &ckpt.state;
    let fits =
        st.vweights.len() == cfg.vantages.len() && st.alias.is_some() == cfg.alias_resolution;
    if config_digest(topo, cfg) != ckpt.digest || !fits {
        return Err(ResumeError::ConfigMismatch);
    }
    Ok(run_loop(topo, cfg, parallel, ckpt.clone(), on_round))
}

/// Views of checkpointed state that every run rebuilds at loop entry
/// and the stages extend as rounds finish; never serialized.
struct Views {
    /// Membership of `LoopState::subnets`.
    subnet_set: BTreeSet<Ipv6Prefix>,
    /// Targets already probed (never re-paid), in the order the run
    /// first marked them: a delta run's stored targets but the
    /// canaries, then each round's targets.
    probed: AddrSet,
    /// A delta run's canaries, sorted; empty for any other run.
    canaries: Vec<Ipv6Addr>,
    /// The public ASN view path divergence reads; `Some` exactly when
    /// [`AdaptiveConfig::path_div`] is.
    resolver: Option<AsnResolver>,
}

impl Views {
    fn rebuild(topo: &Topology, cfg: &AdaptiveConfig, st: &LoopState) -> Views {
        let known = st.traces.prior().map_or(&[][..], TraceSet::targets);
        let canaries = st.traces.prior().map_or_else(Vec::new, canaries);
        // A delta run's stored targets count as probed, so no budget
        // re-pays them (feedback from the seeded seen-set re-derives
        // much of them); the canaries stay probeable.
        let mut probed = AddrSet::new();
        let stored = known.iter().filter(|t| canaries.binary_search(t).is_err());
        for &t in stored.chain(st.round_targets.iter().flatten()) {
            probed.insert(t);
        }
        Views {
            subnet_set: st.subnets.iter().copied().collect(),
            probed,
            canaries,
            resolver: cfg.path_div.map(|_| {
                AsnResolver::new(
                    topo.bgp.clone(),
                    topo.rir_extra.clone(),
                    &topo.asn_equivalences,
                )
            }),
        }
    }
}

/// Plan stage output: what the round probes and from where.
struct RoundPlan {
    /// The round's sorted, deduplicated target list.
    targets: Vec<Ipv6Addr>,
    /// Targets allocated to each configured vantage (0 for a dead one).
    alloc: Vec<usize>,
    /// Each vantage's shard sets (none when dead).
    vantage_sets: Vec<Vec<TargetSet>>,
}

/// Probe stage output: one supervised outcome per campaign,
/// vantage-major, shards within a vantage.
struct RoundRun {
    results: Vec<SupervisedCampaign<TraceSet>>,
    /// Campaign → position in [`AdaptiveConfig::vantages`] (dead
    /// vantages contribute no campaigns, so `i / shards` would not do).
    spec_vi: Vec<usize>,
}

impl RoundRun {
    /// All of a round's campaigns run concurrently in virtual time; the
    /// round occupies the slowest one's span, retry backoffs included.
    fn elapsed_us(&self) -> u64 {
        self.results
            .iter()
            .map(|sc| sc.elapsed_us)
            .max()
            .unwrap_or(0)
    }
}

/// Attribute stage output: the round's per-vantage accounting so far
/// (the alias and close stages finish it).
struct VantageTally {
    per_v: Vec<VantageRound>,
    /// Vantages with at least one campaign that came back non-degraded.
    ok: Vec<bool>,
    /// Interfaces new to the seen-set this round.
    new_interfaces: u64,
}

/// Mine stage output.
struct Mined {
    /// Engine accounting of the round's campaigns, every supervised
    /// attempt included — retries burn real budget.
    stats: EngineStats,
    new_subnets: u64,
    /// Where the round's sets start in the record's sets.
    first_set: usize,
    /// The distinct interfaces of the round's kept sets, as a bitmap
    /// over the record's table ids: the words their own tables held
    /// before the rebase.
    arrivals: Vec<bool>,
}

/// Alias stage output; all zero when the stage is off or had nothing
/// to probe.
#[derive(Default)]
struct AliasRound {
    stats: EngineStats,
    elapsed_us: u64,
    confirmed: u64,
    rejected: u64,
    routers: u64,
}

/// A configuration no network fault can explain is refused before the
/// first probe, naming the field — otherwise the supervisor would retry
/// a vantage the topology does not have and report it *degraded, then
/// dead*, and a zero TTL horizon would surface as a division by zero.
/// A fill horizon below the TTL horizon is the same kind of error: every
/// prober thread would refuse it by panicking, which the supervisor
/// cannot tell from a crash.
fn check_config(topo: &Topology, cfg: &AdaptiveConfig) {
    assert!(
        !cfg.vantages.is_empty(),
        "AdaptiveConfig::vantages is empty: at least one vantage required"
    );
    if let Some(v) = cfg
        .vantages
        .iter()
        .find(|&&v| v as usize >= topo.vantages.len())
    {
        panic!(
            "AdaptiveConfig::vantages names vantage {v}, but the topology has {} vantages",
            topo.vantages.len()
        );
    }
    assert!(
        cfg.yarrp.max_ttl > 0,
        "AdaptiveConfig::yarrp.max_ttl is 0: a round could not send a probe"
    );
    assert!(
        cfg.yarrp.fill_max_ttl >= cfg.yarrp.max_ttl,
        "AdaptiveConfig::yarrp.fill_max_ttl is {}, below yarrp.max_ttl {}: \
         fill probes start where the main sequence ends",
        cfg.yarrp.fill_max_ttl,
        cfg.yarrp.max_ttl
    );
}

/// The stop rule: every way the loop ends that state alone decides
/// (the fifth, [`StopReason::NoTargets`], is the plan stage coming back
/// empty). Deciding from state alone is what makes the round-boundary
/// checkpoint a complete resume point. Order matters: the yield-floor
/// verdict of the previous round precedes the round cap.
fn stop_reason(st: &LoopState, cfg: &AdaptiveConfig) -> Option<StopReason> {
    if st.low_streak > 0 && st.low_streak >= cfg.patience {
        Some(StopReason::YieldFloor)
    } else if st.rounds.len() >= cfg.max_rounds {
        Some(StopReason::MaxRounds)
    } else if st.alive_count() == 0 {
        Some(StopReason::AllVantagesDown)
    } else if st.budget_cap(cfg) == 0 {
        Some(StopReason::BudgetExhausted)
    } else {
        None
    }
}

/// Floor share of the per-round allocation any single vantage keeps
/// under vantage budgeting (exploration: a vantage that went quiet can
/// still prove itself again). Clamped to `1/alive vantages`.
const VANTAGE_FLOOR_SHARE: f64 = 0.10;

/// EWMA smoothing for the per-vantage yield weights under vantage
/// budgeting: the fraction of the previous weight retained each round
/// (0 = follow the last round only, 1 = never move).
const VANTAGE_SMOOTHING: f64 = 0.5;

/// Each vantage's share of the next round's allocation. The weights
/// are an EWMA-smoothed distribution (sum 1); the share is
/// `floor + (1 - k·floor) · weight` — an affine map that keeps every
/// vantage at or above the exploration floor exactly while still
/// summing to 1 (flooring-then-renormalizing would push quiet vantages
/// back below the floor). With dead vantages the surviving weights
/// renormalize and the same map runs over the survivor count, so a
/// dead vantage's share flows to the living.
fn vantage_shares(vweights: &[f64], alive: &[bool]) -> Vec<f64> {
    let alive_k = alive.iter().filter(|&&a| a).count();
    if alive_k == 0 {
        return vec![0.0; alive.len()];
    }
    // All alive: the weights already are the distribution — no
    // renormalizing division (bit-identical to fault-free releases).
    let survivor_sum: Option<f64> = (alive_k < alive.len()).then(|| {
        let living = vweights.iter().zip(alive).filter(|&(_, &a)| a);
        living.map(|(&w, _)| w).sum()
    });
    let floor = VANTAGE_FLOOR_SHARE.min(1.0 / alive_k as f64);
    vweights
        .iter()
        .zip(alive)
        .map(|(&w, &a)| {
            if !a {
                return 0.0;
            }
            let wn = match survivor_sum {
                None => w,
                Some(sum) if sum > 0.0 => w / sum,
                Some(_) => 1.0 / alive_k as f64,
            };
            floor + (1.0 - alive_k as f64 * floor) * wn
        })
        .collect()
}

/// Splits a vantage's targets round-robin into the round's shard sets,
/// which keeps each shard spread across the address space (the
/// permutation within a campaign does the rest of the burst-avoidance).
fn shard_sets(round: usize, shards: usize, vtargets: &[Ipv6Addr]) -> Vec<TargetSet> {
    (0..shards)
        .map(|s| {
            let name: Arc<str> = if shards == 1 {
                format!("adaptive-r{round}").into()
            } else {
                format!("adaptive-r{round}-s{s}").into()
            };
            TargetSet::new(name, vtargets.iter().copied().skip(s).step_by(shards))
        })
        .collect()
}

/// Probe stage: the plan's campaigns under the supervisor. They start
/// at the loop's virtual clock, failures and blackouts retry with
/// deterministic backoff, and exhausted retries come back degraded,
/// never as a panic.
fn probe_round(
    topo: &Arc<Topology>,
    cfg: &AdaptiveConfig,
    parallel: bool,
    start_us: u64,
    plan: &RoundPlan,
) -> RoundRun {
    let mut specs: Vec<CampaignSpec<'_>> = Vec::new();
    let mut spec_vi: Vec<usize> = Vec::new();
    for (vi, &v) in cfg.vantages.iter().enumerate() {
        for set in &plan.vantage_sets[vi] {
            specs.push(CampaignSpec {
                vantage_idx: v,
                set,
                cfg: cfg.yarrp,
            });
            spec_vi.push(vi);
        }
    }
    let results =
        stream_campaigns_supervised(topo, &specs, &cfg.stream, &cfg.retry, start_us, parallel);
    RoundRun { results, spec_vi }
}

/// Quarantine stage (opt-in): scrub hostile-responder artifacts from
/// the round's trace sets *jointly* — evidence pools across vantages,
/// so a router lying toward one is condemned toward all — before any
/// cell reaches subnet inference, the kept trace record or the
/// feedback generators. The output is index-aligned with the run's
/// results: `Some` is the scrubbed replacement of a set that lost
/// cells; `None` is a set the pass left alone (the mine stage keeps
/// the original — nothing is copied to say "unchanged") or a campaign
/// that failed outright. Empty when the stage is off. The borrowed
/// slots cannot outlive this call: the mine stage consumes `run`.
fn quarantine_round(cfg: &AdaptiveConfig, run: &RoundRun) -> Vec<Option<TraceSet>> {
    if !cfg.quarantine_feedback {
        return Vec::new();
    }
    let refs: Vec<&TraceSet> = run.results.iter().filter_map(|sc| sc.output()).collect();
    let (scrubbed, _report) = quarantine_all(&refs, &cfg.quarantine);
    let mut it = scrubbed.into_iter().map(|c| match c {
        Cow::Owned(t) => Some(t),
        Cow::Borrowed(_) => None,
    });
    run.results
        .iter()
        .map(|sc| {
            sc.output()
                .and_then(|_| it.next().expect("scrubbed sets align with results"))
        })
        .collect()
}

/// Runs a round's two independent lanes and returns both results: `b`
/// on a scoped thread beside `a` when `parallel`, `a` then `b` on the
/// calling thread when not. The lanes borrow disjoint state (the borrow
/// checker is the proof), so the results are the same either way. A
/// panic in either lane is the caller's panic once both have ended.
fn join<A, B: Send>(parallel: bool, a: impl FnOnce() -> A, b: impl FnOnce() -> B + Send) -> (A, B) {
    if !parallel {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let lane_b = s.spawn(b);
        let ra = a();
        match lane_b.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// The subnets one kept set implies: the IA hack always, path
/// divergence when configured. A pure function of the set, so the mine
/// stage maps it over the round's sets on the campaign pool.
fn mine_set(
    topo: &Topology,
    cfg: &AdaptiveConfig,
    resolver: Option<&AsnResolver>,
    vantage_idx: u8,
    ts: &TraceSet,
) -> Vec<CandidateSubnet> {
    let mut found = ia_hack(ts);
    if let (Some(params), Some(res)) = (&cfg.path_div, resolver) {
        let vantage = &topo.vantages[vantage_idx as usize];
        let vasn = topo.ases[vantage.as_idx as usize].asn;
        found.extend(discover_by_path_div(ts, res, vasn, params));
    }
    found
}

/// Lane A of the round tail: what the alias stage borrows of
/// [`LoopState`] — `alias` to write, the rest to read.
struct AliasLane<'a> {
    alias: Option<&'a mut AliasState>,
    /// The round's kept sets.
    round_sets: &'a [TraceSet],
    /// Their distinct interfaces ([`Mined::arrivals`]).
    arrivals: &'a [bool],
    /// The record's one table, which the round's sets read.
    table: Option<&'a Arc<AddrInterner>>,
    /// Probes the budget was charged before this round.
    charged: u64,
    alive: &'a [bool],
    vclock_us: u64,
}

/// Lane B of the round tail: what feedback generation reads of
/// [`LoopState`]. It writes nothing: the pool is returned, and the
/// driver installs it only if the loop goes on.
struct FeedbackLane<'a> {
    /// The round being closed (`rounds.len()` before its report is
    /// filed).
    round: usize,
    kept: &'a [u128],
    probed: &'a AddrSet,
    subnets: &'a [Ipv6Prefix],
}

impl LoopState {
    fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// How many targets the remaining budget funds at the nominal
    /// per-target cost `max_ttl × living vantages` (dead vantages
    /// don't probe, so they don't count). Used only to decide whether
    /// a round can start and to pre-truncate its list; the budget
    /// itself is enforced on actual injections. The stop rule rules
    /// out zero living vantages before asking.
    fn budget_cap(&self, cfg: &AdaptiveConfig) -> usize {
        let per_target = cfg.yarrp.max_ttl as u64 * self.alive_count() as u64;
        (cfg.probe_budget.saturating_sub(self.stats.probes) / per_target) as usize
    }

    /// Plan/budget stage: the round's targets and their allocation to
    /// vantages and shards, or `None` when nothing is left to probe.
    fn plan_round(&mut self, cfg: &AdaptiveConfig, probed: &mut AddrSet) -> Option<RoundPlan> {
        let round = self.rounds.len();
        // The unprobed part of the pool, capped by the round size and
        // the remaining budget. When the pool overflows the cap it is
        // stride-sampled, so the round spans the whole (sorted) pool —
        // a lowest-first truncation would spend every round in the
        // same low slabs.
        let unprobed: Vec<Ipv6Addr> = self
            .pool
            .iter()
            .copied()
            .filter(|&a| !probed.contains(a))
            .collect();
        let cap = cfg.round_targets.min(self.budget_cap(cfg));
        // Delta seeding: reopened-shard targets jump the queue — they
        // fill the round up to the cap first (leftovers wait for the
        // next round), the regular pool sample takes what remains.
        let mut targets: Vec<Ipv6Addr> = self.delta.as_mut().map_or_else(Vec::new, |d| {
            let take = d.force.len().min(cap);
            d.force.drain(..take).collect()
        });
        if targets.is_empty() {
            targets = stride_sample(&unprobed, cap);
        } else {
            targets.extend(stride_sample(&unprobed, cap - targets.len()));
            targets.sort_unstable();
            targets.dedup();
        }
        if targets.is_empty() {
            return None;
        }
        for &t in &targets {
            // Forced re-probes were already marked in a prior round (or
            // at delta seeding); re-inserting is a harmless no-op.
            probed.insert(t);
        }

        // Per-vantage allocation of the round's `alive × |targets|`
        // target-probe budget: uniform budgeting gives every living
        // vantage the full list; vantage budgeting splits it by the
        // tracked yield shares (dead vantages hold share 0). One vantage
        // keeps its weight at 1 and its share at `0.1 + 0.9 == 1`: the
        // whole list.
        let alive_k = self.alive_count();
        let alloc: Vec<usize> = if cfg.vantage_budgeting {
            let slots = (alive_k * targets.len()) as f64;
            vantage_shares(&self.vweights, &self.alive)
                .iter()
                .zip(&self.alive)
                .map(|(&s, &a)| match a {
                    true => ((s * slots).round() as usize).clamp(1, targets.len()),
                    false => 0,
                })
                .collect()
        } else {
            let full = |&a: &bool| if a { targets.len() } else { 0 };
            self.alive.iter().map(full).collect()
        };

        // Each vantage stride-samples its slice of the round list, so a
        // shrunken allocation still spans the whole space; a full
        // allocation samples the list whole.
        let shards = cfg.shards.max(1);
        let vantage_sets = alloc
            .iter()
            .map(|&n| match n {
                0 => Vec::new(),
                n => shard_sets(round, shards, &stride_sample(&targets, n)),
            })
            .collect();
        Some(RoundPlan {
            targets,
            alloc,
            vantage_sets,
        })
    }

    /// Attribute stage: the round's raw sets into the seen-set, in one
    /// walk. Each word is inserted once; one whose insertion index is
    /// at or past the round-start length is new to the round, and it
    /// credits each vantage that heard it once — shared finds credit
    /// every vantage that made them, without order bias. Like the
    /// seen-set it counts every checksum-validated responder,
    /// quarantined or not: condemned responders are real interfaces
    /// whose *reported structure* is untrustworthy.
    fn attribute(
        &mut self,
        cfg: &AdaptiveConfig,
        plan: &RoundPlan,
        run: &RoundRun,
    ) -> VantageTally {
        let mut per_v: Vec<VantageRound> = cfg
            .vantages
            .iter()
            .zip(&plan.alloc)
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
        let mut ok = vec![false; per_v.len()];
        let start = self.seen.len();
        // The vantage last credited with each new word, by its index
        // past `start`.
        let mut credited: Vec<usize> = Vec::new();
        for (sc, &vi) in run.results.iter().zip(&run.spec_vi) {
            let p = &mut per_v[vi];
            p.probes += sc.stats.probes;
            p.attempts = p.attempts.max(sc.attempts);
            p.fault_dropped += sc.stats.fault_dropped_total();
            p.degraded |= sc.degraded;
            ok[vi] |= !sc.degraded;
            let Some(ts) = sc.output() else {
                continue;
            };
            for &w in ts.interner().words() {
                let Some(new) = self.seen.insert_index(w.into()).checked_sub(start) else {
                    continue;
                };
                if new == credited.len() {
                    credited.push(usize::MAX);
                }
                if std::mem::replace(&mut credited[new], vi) != vi {
                    p.new_interfaces += 1;
                }
            }
        }
        VantageTally {
            per_v,
            ok,
            new_interfaces: credited.len() as u64,
        }
    }

    /// Mine stage: inferred subnets, merged engine accounting, and the
    /// round's sets appended to the kept record. The attribute stage
    /// put the *raw* sets into the seen-set — every responder that
    /// survived the panic-free decoder is a genuinely observed interface
    /// and counts toward yield. Structure mining and the kept record use
    /// the quarantined set when there is one, so subnet inference, path
    /// divergence and the result's traces then hold only clean cells.
    ///
    /// Three passes: the accounting is serial, the subnet miners are
    /// pure per set and run on the campaign pool, and the fold back into
    /// the state is serial in campaign order — so the discovery order of
    /// `subnets` is the one-thread order. The fold ends by appending the
    /// round's sets to the record, on its one table, extended, one set a
    /// vantage (module docs, "The record's one table").
    fn mine_round(
        &mut self,
        topo: &Topology,
        cfg: &AdaptiveConfig,
        parallel: bool,
        views: &mut Views,
        run: RoundRun,
        mut cleaned: Vec<Option<TraceSet>>,
    ) -> Mined {
        let mut mined = Mined {
            stats: EngineStats::default(),
            new_subnets: 0,
            first_set: self.traces.sets.len(),
            arrivals: Vec::new(),
        };
        let mut kept: Vec<(u8, TraceSet)> = Vec::with_capacity(run.results.len());
        for (i, sc) in run.results.into_iter().enumerate() {
            mined.stats.merge(&sc.stats);
            let Some(streamed) = sc.result else {
                continue; // hard failure: no trace set to mine
            };
            let clean = cleaned.get_mut(i).and_then(Option::take);
            kept.push((sc.vantage_idx, clean.unwrap_or(streamed.output)));
        }
        let resolver = views.resolver.as_ref();
        let found = pool_map(kept.len(), parallel, |i| {
            let (vantage_idx, ts) = &kept[i];
            mine_set(topo, cfg, resolver, *vantage_idx, ts)
        });
        for cand in found.into_iter().flatten() {
            if views.subnet_set.insert(cand.prefix) {
                self.subnets.push(cand.prefix);
                mined.new_subnets += 1;
            }
        }
        mined.arrivals = self.traces.push_round(kept);
        mined
    }

    /// Splits the state into the round tail's two lanes — disjoint
    /// borrows, which is what lets [`join`] run them side by side.
    fn lanes<'a>(
        &'a mut self,
        views: &'a Views,
        mined: &'a Mined,
    ) -> (AliasLane<'a>, FeedbackLane<'a>) {
        let alias = AliasLane {
            alias: self.alias.as_mut(),
            round_sets: &self.traces.sets[mined.first_set..],
            arrivals: &mined.arrivals,
            table: self.traces.table(),
            charged: self.stats.probes,
            alive: &self.alive,
            vclock_us: self.vclock_us,
        };
        let feedback = FeedbackLane {
            round: self.rounds.len(),
            kept: self.traces.words(),
            probed: &views.probed,
            subnets: &self.subnets,
        };
        (alias, feedback)
    }

    /// Close-round stage: charge the round to the budget and the
    /// virtual clock, settle liveness and the budgeter's weights, file
    /// the report, and update the yield-floor streak the stop rule
    /// reads.
    fn close_round(
        &mut self,
        cfg: &AdaptiveConfig,
        plan: RoundPlan,
        tally: VantageTally,
        mined: &Mined,
        alias: AliasRound,
        round_elapsed: u64,
    ) {
        let mut round_stats = mined.stats;
        round_stats.merge(&alias.stats);
        self.stats.merge(&round_stats);
        // The alias stage runs after the round's campaigns, and the
        // next round starts after both.
        self.vclock_us = self
            .vclock_us
            .saturating_add(round_elapsed)
            .saturating_add(alias.elapsed_us);

        // Liveness: a vantage whose every campaign degraded is dead —
        // its weight zeroes and later rounds exclude it. (A vantage
        // with no campaigns this round keeps its state.)
        let VantageTally {
            mut per_v,
            ok,
            new_interfaces,
        } = tally;
        for (vi, p) in per_v.iter().enumerate() {
            if self.alive[vi] && p.degraded && !ok[vi] {
                self.alive[vi] = false;
                self.vweights[vi] = 0.0;
            }
        }
        // Budget allocator update: shift the next round's allocation
        // toward the vantages that earned their probes this round. The
        // EWMA blends two distributions, so the weights stay a
        // distribution without renormalizing. (Dead vantages yield 0
        // and decay toward 0; the share map renormalizes survivors. One
        // vantage's weight stays exactly 1: `0.5 · 1 + 0.5 · y / y`.)
        if cfg.vantage_budgeting {
            let yields: Vec<f64> = per_v
                .iter()
                .map(|p| p.new_interfaces as f64 / p.probes.max(1) as f64)
                .collect();
            let total: f64 = yields.iter().sum();
            if total > 0.0 {
                for (w, y) in self.vweights.iter_mut().zip(&yields) {
                    *w = VANTAGE_SMOOTHING * *w + (1.0 - VANTAGE_SMOOTHING) * (y / total);
                }
            }
        }
        let next_shares = vantage_shares(&self.vweights, &self.alive);
        for (p, &s) in per_v.iter_mut().zip(&next_shares) {
            p.next_share = s;
        }

        let yield_per_kprobe = yield_per_kprobe(new_interfaces, round_stats.probes);
        self.rounds.push(RoundReport {
            round: self.rounds.len(),
            targets: plan.targets.len() as u64,
            probes: round_stats.probes,
            new_interfaces,
            new_subnets: mined.new_subnets,
            yield_per_kprobe,
            rate_limited: round_stats.rate_limited,
            rl_dropped_default: round_stats.rl_dropped_default,
            rl_dropped_aggressive: round_stats.rl_dropped_aggressive,
            routers: alias.routers,
            alias_pairs_confirmed: alias.confirmed,
            alias_pairs_rejected: alias.rejected,
            alias_probes: alias.stats.probes,
            per_vantage: per_v,
        });
        self.round_targets.push(plan.targets);
        if yield_per_kprobe < cfg.min_yield_per_kprobes {
            self.low_streak += 1;
        } else {
            self.low_streak = 0;
        }
    }

    /// Delta-canary stage: compare every canary probed this round
    /// against its stored trace. Changed (or vanished) observations
    /// reopen the canary's whole target-prefix shard — its stored
    /// targets queue for forced re-probing — and reset the yield streak
    /// so the floor can't stop the loop before the re-sweep runs.
    fn reopen_changed_shards(&mut self, canaries: &[Ipv6Addr], first_set: usize) {
        let (Some(d), Some(prior)) = (self.delta.as_mut(), self.traces.prior()) else {
            return;
        };
        let round_list = self.round_targets.last().expect("a round just closed");
        let this_round = &self.traces.sets[first_set..];
        let route = ShardRoute::new(d.shards);
        let mut reopened_any = false;
        for &c in canaries {
            if round_list.binary_search(&c).is_err() {
                continue; // not sampled this round
            }
            let s = route.shard_of(c);
            let changed = match (prior.get(c), this_round.iter().find_map(|ts| ts.get(c))) {
                (Some(p), Some(f)) => !f.same_observations(&p),
                (Some(_), None) => true, // trace vanished entirely
                (None, _) => false,      // canaries are prior targets
            };
            if changed && !std::mem::replace(&mut d.reopened[s], true) {
                // Canaries re-probe through their own sampling;
                // everything else in the shard queues.
                let stored = prior.targets().iter().copied();
                let queued = stored.filter(|&t| route.shard_of(t) == s);
                d.force
                    .extend(queued.filter(|t| canaries.binary_search(t).is_err()));
                reopened_any = true;
            }
        }
        if reopened_any {
            self.low_streak = 0;
        }
    }

    fn into_result(self, stop: StopReason) -> AdaptiveResult {
        let sum = |f: fn(&RoundReport) -> u64| self.rounds.iter().map(f).sum();
        let router_level = self.alias.map(|al| RouterLevelResult {
            graph: al.builder.snapshot(),
            interfaces: al.builder.observed_interface_count() as u64,
            alias_probes: sum(|r| r.alias_probes),
            pairs_confirmed: sum(|r| r.alias_pairs_confirmed),
            pairs_rejected: sum(|r| r.alias_pairs_rejected),
        });
        AdaptiveResult {
            rounds: self.rounds,
            round_targets: self.round_targets,
            traces: self.traces,
            stats: self.stats,
            interfaces: self.seen,
            subnets: self.subnets,
            router_level,
            stop,
        }
    }
}

impl AliasLane<'_> {
    /// Alias stage (opt-in): extend the incremental router graph with
    /// the round's kept sets, derive candidate sibling interfaces from
    /// the discoveries, and speedtrap them under the supervised
    /// campaign rules — on the loop's virtual clock (after the round's
    /// campaigns), from the first living vantage, charged against the
    /// same global probe budget. Off: no probe is sent and none of the
    /// round's accounting moves.
    fn run(
        self,
        topo: &Arc<Topology>,
        cfg: &AdaptiveConfig,
        mined: &Mined,
        round_elapsed: u64,
        tally: &mut VantageTally,
    ) -> AliasRound {
        let Some(al) = self.alias else {
            return AliasRound::default();
        };
        for ts in self.round_sets {
            al.builder.ingest(ts);
        }
        let mut out = AliasRound::default();
        // Candidates stay re-offerable (a cross-round pair needs the
        // old member probed alongside the new one), but only a bucket
        // with an untested arrival is offered at all.
        let cand = self.table.map_or_else(Vec::new, |table| {
            let all = sibling_candidates(table, self.round_sets, self.arrivals, &al.probed);
            stride_sample(&all, cfg.alias.max_candidates_per_round)
        });
        let remaining = cfg
            .probe_budget
            .saturating_sub(self.charged)
            .saturating_sub(mined.stats.probes);
        let cap = cfg.alias.max_probes_per_round.min(remaining);
        let prober = self.alive.iter().position(|&a| a);
        if let Some(vi) = prober.filter(|_| !cand.is_empty() && cap > 0) {
            let run = resolve_aliases_supervised(
                topo,
                cfg.vantages[vi],
                &cand,
                &cfg.alias.probe,
                &cfg.retry,
                self.vclock_us.saturating_add(round_elapsed),
                cap,
            );
            let p = &mut tally.per_v[vi];
            p.probes += run.stats.probes;
            p.fault_dropped += run.stats.fault_dropped_total();
            p.attempts = p.attempts.max(run.attempts);
            p.degraded |= run.degraded;
            if let Some(sets) = run.result {
                out.confirmed = sets.pairs_confirmed;
                out.rejected = sets.pairs_rejected;
                for g in &sets.groups {
                    al.builder.merge_alias_group(g);
                }
                let tested = sets.groups.iter().flatten();
                for &a in tested.chain(&sets.singletons).chain(&sets.unresponsive) {
                    al.probed.insert(a);
                }
            }
            out.stats = run.stats;
            out.elapsed_us = run.elapsed_us;
        }
        out.routers = al.builder.observed_node_count() as u64;
        out
    }
}

impl FeedbackLane<'_> {
    /// Feedback stage: the next round's pool, generated from *all*
    /// discoveries so far plus everything already probed — the paper's
    /// 6Gen basis ("targets probed plus interfaces discovered");
    /// cumulative input gives the generators their cluster mass, and
    /// the plan stage's `probed` filter keeps rounds from re-paying.
    fn generate(self, cfg: &AdaptiveConfig) -> Vec<Ipv6Addr> {
        let round = self.round;
        let discovered: Vec<Ipv6Addr> = self.kept.iter().map(|&w| Ipv6Addr::from(w)).collect();
        let probed_targets: Vec<Ipv6Addr> = self.probed.iter().collect();
        let fb = feedback_list(
            format!("adaptive-fb-r{round}"),
            &discovered,
            &probed_targets,
            self.subnets,
            &cfg.feedback,
            mix(cfg.rng_seed ^ round as u64),
        );
        feedback_targets(
            format!("adaptive-r{}", round + 1),
            &fb,
            cfg.per_prefix_64s,
            cfg.iid,
        )
        .addrs
    }
}

/// The loop: the stage list of the module docs over the state `ck`
/// owns. `on_round` sees that same checkpoint at every round boundary,
/// when everything the next loop top reads is in it.
fn run_loop(
    topo: &Arc<Topology>,
    cfg: &AdaptiveConfig,
    parallel: bool,
    mut ck: Checkpoint,
    mut on_round: impl FnMut(&Checkpoint),
) -> AdaptiveResult {
    check_config(topo, cfg);
    let mut views = Views::rebuild(topo, cfg, &ck.state);
    let stop = loop {
        let st = &mut ck.state;
        if let Some(stop) = stop_reason(st, cfg) {
            break stop;
        }
        let Some(plan) = st.plan_round(cfg, &mut views.probed) else {
            break StopReason::NoTargets;
        };
        let run = probe_round(topo, cfg, parallel, st.vclock_us, &plan);
        let round_elapsed = run.elapsed_us();
        let cleaned = quarantine_round(cfg, &run);
        let mut tally = st.attribute(cfg, &plan, &run);
        let mined = st.mine_round(topo, cfg, parallel, &mut views, run, cleaned);
        // The round tail's two lanes read the same finished round and
        // nothing of each other. The pool is generated before the round
        // closes, so it is speculative: only the round cap is decided
        // already (then no pass is started); any other stop discards
        // the one pass it was generated beside.
        let speculate = st.rounds.len() + 1 < cfg.max_rounds;
        let (alias_lane, feedback_lane) = st.lanes(&views, &mined);
        let (alias, pool) = join(
            parallel && speculate,
            || alias_lane.run(topo, cfg, &mined, round_elapsed, &mut tally),
            || speculate.then(|| feedback_lane.generate(cfg)),
        );
        st.close_round(cfg, plan, tally, &mined, alias, round_elapsed);
        st.reopen_changed_shards(&views.canaries, mined.first_set);
        if stop_reason(st, cfg).is_none() {
            st.pool = pool.expect("only the round cap skips generation, and it stops the loop");
        }
        on_round(&ck);
    };
    ck.state.into_result(stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::AddrInterner;
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
        let res = run_adaptive_checkpointed(&topo, &set, &small_cfg(), false, |_| {});
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
    fn a_round_shares_one_table_that_extends_the_last_rounds() {
        let (topo, set) = fixture();
        let cfg = AdaptiveConfig {
            vantages: vec![0, 1],
            shards: 2,
            quarantine_feedback: true,
            alias_resolution: true,
            ..small_cfg()
        };
        // What each round boundary shows, for the run and for a resume.
        let check = |ck: &Checkpoint, prev: &mut Option<Arc<AddrInterner>>, sets: &mut usize| {
            let st = &ck.state;
            let round = &st.traces.sets[*sets..];
            *sets = st.traces.sets.len();
            let table = round[0].interner();
            assert_eq!(round.len(), 2, "two vantages, one set a vantage");
            assert!(round.iter().all(|ts| Arc::ptr_eq(ts.interner(), table)));
            if let Some(prev) = prev.replace(Arc::clone(table)) {
                assert!(table.len() > prev.len() && table.words().starts_with(prev.words()));
            }
            let builder = &st.alias.as_ref().expect("alias state").builder;
            assert!(Arc::ptr_eq(builder.interner(), table));
        };
        let (mut prev, mut sets) = (None, 0);
        let mut first = None;
        let res = run_adaptive_checkpointed(&topo, &set, &cfg, false, |ck| {
            check(ck, &mut prev, &mut sets);
            first.get_or_insert_with(|| ck.to_bytes());
        });
        assert_eq!(res.rounds.len(), 3);
        // A resumed record shares one table too, and its builder adopts
        // the next round's table.
        let ck = Checkpoint::from_bytes(&first.unwrap()).unwrap();
        let (mut prev, mut sets) = (Some(Arc::clone(ck.state.traces.sets[0].interner())), 2);
        resume_adaptive(&topo, &cfg, &ck, false, |ck| {
            check(ck, &mut prev, &mut sets)
        })
        .unwrap();
    }

    #[test]
    fn the_record_holds_one_table() {
        let (topo, set) = fixture();
        // Every set of the record, a delta run's prior set included,
        // shares the first set's table.
        fn one_table<'a>(mut sets: impl Iterator<Item = &'a TraceSet>, what: &str) {
            let table = Arc::clone(sets.next().expect("a set").interner());
            assert!(sets.all(|ts| Arc::ptr_eq(ts.interner(), &table)), "{what}");
        }
        let check = |ck: &Checkpoint| {
            let what = format!("round {}", ck.round());
            one_table(ck.record().iter(), &what);
            let back = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
            one_table(back.record().iter(), &format!("{what}, decoded"));
        };
        for quarantine_feedback in [false, true] {
            let cfg = AdaptiveConfig {
                vantages: vec![0, 1],
                shards: 2,
                quarantine_feedback,
                ..small_cfg()
            };
            let fresh = run_adaptive_checkpointed(&topo, &set, &cfg, false, check);
            assert!(fresh.rounds.len() > 1, "a second round extends the table");
            one_table(fresh.traces.iter(), "the result");
            let prior = ShardedTraceSet::from_set(&fresh.merged_traces(), 4);
            let start = Checkpoint::delta(&topo, &set, &cfg, &prior);
            let delta = resume_adaptive(&topo, &cfg, &start, false, check).unwrap();
            one_table(delta.traces.iter(), "the delta result");
        }
    }

    /// What a result derives equals what it is derived from: the probes
    /// charged are the rounds' probes, the alias totals are the rounds'
    /// verdicts, and with the quarantine off the interfaces, in
    /// discovery order, are the words of the record's table.
    fn assert_accounted(res: &AdaptiveResult, quarantine: bool) {
        let sum = |f: fn(&RoundReport) -> u64| res.rounds.iter().map(f).sum::<u64>();
        assert_eq!(res.stats.probes, sum(|r| r.probes));
        let rl = res.router_level.as_ref().expect("alias resolution is on");
        assert_eq!(rl.alias_probes, sum(|r| r.alias_probes));
        assert_eq!(rl.pairs_confirmed, sum(|r| r.alias_pairs_confirmed));
        assert_eq!(rl.pairs_rejected, sum(|r| r.alias_pairs_rejected));
        if !quarantine {
            let table = res.traces.words();
            let words: Vec<Ipv6Addr> = table.iter().map(|&w| Ipv6Addr::from(w)).collect();
            assert_eq!(res.interfaces.iter().collect::<Vec<_>>(), words);
        }
    }

    /// The same identity at a round boundary, plus the budget's charge.
    fn assert_boundary_accounted(ck: &Checkpoint, quarantine: bool) {
        let res = ck.state.clone().into_result(StopReason::MaxRounds);
        assert_eq!(ck.consumed_probes(), res.stats.probes);
        assert_accounted(&res, quarantine);
    }

    /// Each round appended one set for each vantage that probed, in
    /// vantage order, each named by its vantage. The fixture's network
    /// is fault-free, so every vantage that probed returned a set.
    fn assert_one_set_a_vantage(topo: &Topology, ck: &Checkpoint) {
        let mut sets = ck.state.traces.sets.iter();
        for report in &ck.state.rounds {
            let probed = report.per_vantage.iter().filter(|p| p.targets > 0);
            let names: Vec<&str> = probed
                .map(|p| &*topo.vantages[p.vantage as usize].name)
                .collect();
            let held: Vec<&str> = sets
                .by_ref()
                .take(names.len())
                .map(|ts| &*ts.vantage)
                .collect();
            assert_eq!(held, names, "round {}", report.round);
            let distinct: BTreeSet<&str> = held.iter().copied().collect();
            assert_eq!(distinct.len(), held.len(), "round {}", report.round);
        }
        assert!(sets.next().is_none(), "every set belongs to a round");
    }

    #[test]
    fn every_round_boundary_accounts_for_itself() {
        let (topo, set) = fixture();
        for quarantine_feedback in [false, true] {
            let cfg = AdaptiveConfig {
                vantages: vec![0, 1],
                vantage_budgeting: true,
                shards: 2,
                path_div: Some(PathDivParams::default()),
                quarantine_feedback,
                alias_resolution: true,
                ..small_cfg()
            };
            let check = |ck: &Checkpoint| {
                assert_boundary_accounted(ck, quarantine_feedback);
                assert_one_set_a_vantage(&topo, ck);
            };
            let mut first = None;
            let fresh = run_adaptive_checkpointed(&topo, &set, &cfg, false, |ck| {
                check(ck);
                first.get_or_insert_with(|| ck.clone());
            });
            assert_accounted(&fresh, quarantine_feedback);
            let resumed = resume_adaptive(&topo, &cfg, &first.unwrap(), true, check).unwrap();
            assert_accounted(&resumed, quarantine_feedback);
            let prior = ShardedTraceSet::from_set(&fresh.merged_traces(), 4);
            let start = Checkpoint::delta(&topo, &set, &cfg, &prior);
            let delta = resume_adaptive(&topo, &cfg, &start, false, check).unwrap();
            assert!(!delta.rounds.is_empty());
            assert_accounted(&delta, quarantine_feedback);
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
        let res = run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
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
        let res = run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
        assert_eq!(res.stop, StopReason::YieldFloor);
        assert_eq!(res.rounds.len(), 2);
    }

    #[test]
    fn join_gives_the_same_pair_on_one_thread_or_two() {
        let caller = std::thread::current().id();
        for parallel in [false, true] {
            let mut written = 0;
            let (a, b) = join(
                parallel,
                || {
                    written = 7; // lane a may borrow mutably
                    (1, std::thread::current().id())
                },
                || (2, std::thread::current().id()),
            );
            assert_eq!((a.0, b.0, written), (1, 2, 7));
            // Lane a never leaves the caller; lane b leaves it exactly
            // when asked to — the serial driver spawns nothing here.
            assert_eq!(a.1, caller);
            assert_eq!(b.1 != caller, parallel);
        }
    }

    #[test]
    fn a_panicking_lane_panics_the_caller_of_join() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for parallel in [false, true] {
            for lane in ["a", "b"] {
                let joined = catch_unwind(AssertUnwindSafe(|| {
                    join(
                        parallel,
                        || assert!(lane != "a", "lane a failed"),
                        || assert!(lane != "b", "lane b failed"),
                    )
                }));
                // Returning at all is half the contract: the healthy
                // lane is joined, not waited on forever.
                let payload = joined.expect_err("must panic");
                let message = payload.downcast_ref::<&str>().expect("a literal message");
                assert_eq!(*message, format!("lane {lane} failed"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "AdaptiveConfig::vantages is empty")]
    fn empty_vantage_list_is_a_config_error() {
        let (topo, set) = fixture();
        let cfg = AdaptiveConfig {
            vantages: Vec::new(),
            ..small_cfg()
        };
        run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
    }

    #[test]
    #[should_panic(expected = "AdaptiveConfig::vantages names vantage 9")]
    fn unknown_vantage_index_is_a_config_error() {
        // Not a fault: without the check the supervisor retries the
        // prober's panic and the loop reports vantage 9 degraded, then
        // dead, and finishes on vantage 0 alone.
        let (topo, set) = fixture();
        assert_eq!(topo.vantages.len(), 3);
        let cfg = AdaptiveConfig {
            vantages: vec![0, 9],
            ..small_cfg()
        };
        run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
    }

    #[test]
    #[should_panic(expected = "AdaptiveConfig::yarrp.max_ttl is 0")]
    fn zero_max_ttl_is_a_config_error() {
        let (topo, set) = fixture();
        let mut cfg = small_cfg();
        cfg.yarrp.max_ttl = 0;
        run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
    }

    #[test]
    #[should_panic(expected = "AdaptiveConfig::yarrp.fill_max_ttl is 32, below yarrp.max_ttl 40")]
    fn fill_horizon_below_max_ttl_is_a_config_error() {
        let (topo, set) = fixture();
        let mut cfg = small_cfg();
        cfg.yarrp.max_ttl = 40;
        run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
    }

    /// Panics unless every set of `record` holds the path tree its views
    /// rebuild (`testkit::oracle::path_tree`).
    fn assert_trees_canonical<'a>(sets: impl Iterator<Item = &'a TraceSet>, what: &str) {
        use testkit::oracle::{held_tree, path_tree};
        for (i, ts) in sets.enumerate() {
            assert_eq!(held_tree(ts), path_tree(ts), "{what}, set {i}");
        }
    }

    #[test]
    fn every_record_set_keeps_its_path_tree_canonical() {
        // At every round boundary the record has been through
        // `Record::push_round`, which rebases every set onto the record's
        // table; the decoded record's sets are read back one by one.
        let (topo, set) = fixture();
        let cfg = AdaptiveConfig {
            vantages: vec![0, 1],
            shards: 2,
            quarantine_feedback: true,
            ..small_cfg()
        };
        run_adaptive_checkpointed(&topo, &set, &cfg, false, |ck| {
            let what = format!("round {}", ck.round());
            assert_trees_canonical(ck.record().iter(), &what);
            let back = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
            assert_trees_canonical(back.record().iter(), &format!("{what}, decoded"));
        });
    }

    /// One trace through the views: target, `reached_at`, hop cells and
    /// unreachable cells, by address.
    type TraceCells = (
        Ipv6Addr,
        Option<u8>,
        Vec<(u8, Ipv6Addr)>,
        Vec<(u8, Ipv6Addr)>,
    );

    /// A set as its names, tamper count and traces, read through the
    /// views: what two sets on different tables can be compared by.
    fn views(ts: &TraceSet) -> (&str, &str, u64, Vec<TraceCells>) {
        let traces = ts.iter().map(|t| -> TraceCells {
            let (hops, unreachable) = (t.hops().collect(), t.unreachable().collect());
            (t.target(), t.reached_at(), hops, unreachable)
        });
        (
            &ts.vantage,
            &ts.target_set,
            ts.rewritten_dropped,
            traces.collect(),
        )
    }

    proptest::proptest! {
        #[test]
        fn push_round_keeps_every_path_tree_canonical(
            rounds in proptest::collection::vec(
                proptest::collection::vec(
                    (
                        0u8..3,
                        proptest::collection::vec(
                            (proptest::prelude::any::<u64>(), 0u64..20_000),
                            0..40,
                        ),
                    ),
                    1..6,
                ),
                1..4,
            ),
        ) {
            // `flat` is pushed the same sets, each with a vantage of its
            // own, so it folds nothing.
            let (mut record, mut flat) = (Record::default(), Record::default());
            for (r, round) in rounds.iter().enumerate() {
                let mut sets: Vec<(u8, TraceSet)> = round
                    .iter()
                    .map(|(vantage, draws)| {
                        let records = draws
                            .iter()
                            .map(|&(w, recv)| testkit::fixtures::synth_record(w, recv, true))
                            .collect();
                        let mut log = yarrp6::ProbeLog {
                            records,
                            ..Default::default()
                        };
                        log.sort_by_recv();
                        (*vantage, TraceSet::from_log(&log))
                    })
                    .collect();
                // Vantage-major, as the mine stage keeps them.
                sets.sort_by_key(|&(v, _)| v);
                let first = record.sets.len();
                let unfolded = sets.iter().enumerate().map(|(i, (_, ts))| (i as u8, ts.clone()));
                let flat_arrivals = flat.push_round(unfolded.collect());
                assert_eq!(record.push_round(sets.clone()), flat_arrivals, "round {r}");
                assert_eq!(record.words(), flat.words(), "round {r}");
                let groups: Vec<&[(u8, TraceSet)]> = sets.chunk_by(|a, b| a.0 == b.0).collect();
                let appended = &record.sets[first..];
                assert_eq!(appended.len(), groups.len(), "round {r}: one set a vantage");
                for (set, group) in appended.iter().zip(groups) {
                    let merged = TraceSet::merge_all(group.iter().map(|(_, ts)| ts));
                    assert_eq!(views(set), views(&merged), "round {r}");
                }
                assert_trees_canonical(record.iter(), &format!("round {r}"));
            }
        }
    }
}
