//! # beholder — *In the IP of the Beholder*, as a Rust workspace
//!
//! A full reproduction of Beverly, Durairajan, Plonka & Rohrer,
//! ["In the IP of the Beholder: Strategies for Active IPv6 Topology
//! Discovery"](https://doi.org/10.1145/3278532.3278559) (IMC 2018):
//! the Yarrp6 stateless randomized prober, the seed/target generation
//! pipeline, the comparison probers (scamper-style sequential,
//! Doubletree), subnet inference, and — since this environment has no
//! IPv6 connectivity — a deterministic packet-level simulator of an IPv6
//! Internet with mandated ICMPv6 rate limiting standing in for the real
//! one.
//!
//! This crate re-exports the workspace members under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`addr`] | `v6addr` | prefixes, tries, DPL, IID classification |
//! | [`packet`] | `v6packet` | wire formats, Yarrp6 probe codec |
//! | [`net`] | `simnet` | the synthetic IPv6 Internet |
//! | [`seed`] | `seeds` | seed-list synthesis, kIP, 6Gen |
//! | [`target`] | `targets` | zn transformation, IID synthesis, set characterization |
//! | [`probe`] | `yarrp6` | Yarrp6 + sequential + Doubletree probers |
//! | [`analyze`] | `analysis` | traces, metrics, subnet discovery |
//! | [`alias`] | `aliasres` | speedtrap alias resolution, router-level graphs |
//!
//! On top of the re-exports, [`adaptive`] (native to this crate — it
//! is where the whole pipeline meets) closes the loop: multi-round
//! discovery whose next targets are generated from the previous
//! round's own findings, under a global probe budget with a
//! marginal-yield stopping rule. The loop is fault-tolerant: every
//! round runs under the campaign supervisor (panics, lost streams and
//! scheduled blackouts retry with deterministic virtual-time backoff;
//! a vantage whose campaigns all degrade is declared dead and its
//! budget share flows to the survivors), and the state it runs on is a
//! [`checkpoint::Checkpoint`], shown to an observer at every round
//! boundary. A run starts fresh
//! ([`adaptive::run_adaptive_checkpointed`]) or from a checkpoint
//! ([`adaptive::resume_adaptive`]): one a killed run left, which it
//! continues bit-identically, or one seeded from a prior run's
//! persisted store ([`checkpoint::Checkpoint::delta`]).
//!
//! With [`adaptive::AdaptiveConfig::alias_resolution`] on (default
//! off, bit-identical without it), each round additionally feeds its
//! discoveries through speedtrap alias resolution under the same
//! probe budget and accumulates an incremental router-level graph
//! ([`adaptive::RouterLevelResult`]) — the paper's router-level view
//! of the topology, checkpointed along with everything else.
//!
//! ## Quickstart
//!
//! ```
//! use beholder::prelude::*;
//!
//! // A tiny synthetic Internet, a seed catalog, and one campaign.
//! let topo = std::sync::Arc::new(beholder::net::generate::generate(
//!     TopologyConfig::tiny(7),
//! ));
//! let seeds = SeedCatalog::synthesize(&topo, 7);
//! let catalog = TargetCatalog::build(&seeds, IidStrategy::FixedIid);
//! let set = catalog.get("caida-z64").unwrap();
//! let result = run_campaign(&topo, 0, set, &YarrpConfig::default());
//! assert!(!result.log.interface_addrs().is_empty());
//! ```

#![warn(unreachable_pub)]
// Keeps the adaptive loop a list of stages: a function under `src/`
// that outgrows `too-many-lines-threshold` (clippy.toml) fails CI's
// lint job.
#![warn(clippy::too_many_lines)]

pub mod adaptive;
pub mod checkpoint;

pub use aliasres as alias;
pub use analysis as analyze;
pub use seeds as seed;
pub use simnet as net;
pub use targets as target;
pub use v6addr as addr;
pub use v6packet as packet;
pub use yarrp6 as probe;

/// The commonly-used types, one `use` away.
pub mod prelude {
    pub use crate::adaptive::{
        resume_adaptive, run_adaptive_checkpointed, AdaptiveConfig, AdaptiveResult,
        AliasStageConfig, RoundReport, RouterLevelResult, StopReason, VantageRound,
    };
    pub use crate::checkpoint::{Checkpoint, ResumeError};
    pub use aliasres::{
        resolve_aliases, resolve_aliases_supervised, AliasConfig, AliasSets, RouterGraph,
        RouterGraphBuilder,
    };
    pub use analysis::{
        discover_by_path_div, ia_hack, quarantine_all, read_sharded_snapshot,
        stream_campaigns_supervised, vantage_contributions, vantage_jaccard, vantage_union_count,
        write_sharded_snapshot, AsnResolver, CampaignOutcome, CampaignRun, CampaignRunner,
        CandidateSubnet, PathDivParams, QuarantineConfig, QuarantineReport, ShardRoute,
        ShardedTraceSet, SnapshotError, SnapshotManifest, StoreError, TraceSet, TraceSetBuilder,
        TraceView, VantageContribution,
    };
    pub use seeds::sources::SeedCatalog;
    pub use seeds::{SeedEntry, SeedList};
    pub use simnet::config::TopologyConfig;
    pub use simnet::{
        AdversarialClass, AdversarialSchedule, Engine, EngineStats, FaultSchedule, Scale, Topology,
    };
    pub use targets::{IidStrategy, TargetCatalog, TargetSet};
    pub use v6addr::{Asn, BgpTable, IidClass, Ipv6Prefix, PrefixTrie};
    pub use v6packet::probe::Protocol;
    pub use yarrp6::campaign::{
        run_campaign, CampaignError, CampaignSpec, RetryPolicy, SupervisedCampaign,
    };
    pub use yarrp6::{
        ProbeLog, RecordSink, ResponseKind, ResponseRecord, SinkDisconnected, StreamConfig,
        YarrpConfig,
    };
}
