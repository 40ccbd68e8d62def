//! Speedtrap-style IPv6 alias resolution and router-level graphs — the
//! paper's stated follow-on (§7.2, citing Luckie et al. \[42\]).
//!
//! Interface-level discovery (the paper's contribution) produces a set
//! of router *interface* addresses; turning them into a router-level
//! topology requires deciding which interfaces belong to one physical
//! router. IPv6 removed the per-packet IP-ID from the fixed header, but
//! it reappears in the Fragment extension header — drawn, on most
//! platforms, from a **single counter shared by all interfaces**.
//! Speedtrap elicits fragmented Echo Replies with oversized Echo
//! Requests and declares two interfaces aliases when their
//! identification sequences interleave along one monotonic counter.
//!
//! * [`sibling_candidates`] — which interfaces a round's discoveries
//!   make worth probing (shared /64, shared hop), derived
//!   by merge-join at a cost that follows the round, not the record;
//! * [`speedtrap`] — the prober and the monotonic-bound alias test,
//!   plus the budgeted/supervised campaign entry points the adaptive
//!   loop drives ([`resolve_aliases_supervised`]);
//! * [`RouterGraph`] — collapsing an interface-level trace set into a
//!   router-level graph using resolved aliases (ITDK-style);
//! * [`RouterGraphBuilder`] — the one builder, per round in the loop
//!   and behind [`RouterGraph::build`]: union-find alias merges and
//!   appended links over one address table.

#![warn(unreachable_pub)]

mod candidates;
mod graph;
mod incremental;
pub mod speedtrap;

pub use candidates::sibling_candidates;
pub use graph::RouterGraph;
pub use incremental::{RouterGraphBuilder, RouterGraphParts};
pub use speedtrap::{resolve_aliases, resolve_aliases_supervised, AliasConfig, AliasSets};
