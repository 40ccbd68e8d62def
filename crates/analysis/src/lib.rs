//! Analysis of probing campaigns: trace reconstruction, discovery
//! metrics (Tables 3/4/6/7, Figures 5/6/7) and subnet inference (§6,
//! Figure 8).
//!
//! Everything here consumes only the prober's [`yarrp6::ProbeLog`] plus
//! *public* routing metadata (BGP table, registry prefixes, ASN
//! equivalences) — never the simulator's ground truth, which appears
//! only in [`validate`] where the paper, too, compares against operator
//! truth data.
//!
//! The pipeline is **columnar**: [`TraceSet`] stores a campaign's
//! traces in flat, target-sorted columns, their hops as one path-prefix
//! tree, with responder addresses interned to `u32` ids
//! ([`AddrInterner`]), and the analysis
//! passes ([`subnets`], [`metrics`], [`validate`]) are sorted-merge
//! walks over those columns. The original map-based implementation lives
//! on as an oracle in the dev-only `testkit` crate (`testkit::oracle`),
//! which the golden tests pin this one bit-identical to.
//!
//! It is also **streaming**: [`TraceSetBuilder`] ingests
//! record chunks as a campaign produces them and assembles the
//! identical columnar set without the log ever existing, and
//! [`stream_campaigns_supervised`] / [`CampaignRunner`]
//! wire that builder to the probers' bounded-channel driver (which
//! returns the engine's [`simnet::EngineStats`] alongside, like
//! `yarrp6::campaign::run_campaign` does — the analysis passes
//! themselves still consume only prober-visible data).

#![warn(unreachable_pub)]

mod builder;
pub mod export;
mod intern;
pub mod metrics;
mod paths;
mod quarantine;
mod runner;
mod shard;
pub mod snapshot;
pub mod subnets;
mod traces;
pub mod validate;

pub use builder::{stream_campaigns_supervised, TraceSetBuilder};
pub use intern::{union, AddrInterner};
pub use metrics::{
    discovery_curve, hop_responsiveness, vantage_contributions, vantage_jaccard,
    vantage_union_count, CampaignMetrics, VantageContribution,
};
pub use paths::{DeepestFirst, HopCells, HopIter, PathNode};
pub use quarantine::{quarantine_all, QuarantineConfig, QuarantineReport};
pub use runner::{CampaignOutcome, CampaignRun, CampaignRunner};
pub use shard::{ShardRoute, ShardedTraceSet, MAX_SHARDS};
pub use snapshot::{
    read_sharded_snapshot, read_trace_set, write_sharded_snapshot, write_trace_set, SnapReader,
    SnapWriter, SnapshotError, SnapshotManifest, StoreError,
};
pub use subnets::{discover_by_path_div, ia_hack, CandidateSubnet, PathDivParams};
pub use traces::{AsnResolver, CellIter, Cells, TraceSet, TraceView};
