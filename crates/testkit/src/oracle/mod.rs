//! Second implementations: each does a job the library does, the slow
//! and obvious way, against the library's public API only, so a suite
//! can ask the two for the same answer.
//!
//! | oracle | pins | in |
//! |---|---|---|
//! | [`Trace`], [`TraceSet`], [`discover_by_path_div`], [`ia_hack`] | `analysis::TraceSet::from_log` and the subnet miners | `analysis/tests/columnar_golden.rs` |
//! | [`build_reference`] | `aliasres::RouterGraphBuilder`, `RouterGraph::build` | `aliasres/tests/graph_props.rs`, `graph_golden.rs` |
//! | [`run_reference`] | `yarrp6::yarrp::run` | `core/tests/hotpath_golden.rs` |
//! | [`build_probe`] | `ProbeSpec::build_into`, `ProbeTemplate` | `v6packet/tests/props.rs` |
//! | [`merge_fold`] over [`Merged`] | `analysis::TraceSet::merge_all` | `analysis/tests/merge_props.rs` |
//! | [`path_tree`] | every `analysis::TraceSet` constructor's node table | `analysis/tests/tree_props.rs`, `beholder`'s `adaptive` tests |
//!
//! [`trace_set`] is the one function here that is not an oracle: it
//! turns hand-built [`Trace`]s into the library's own columnar set.

mod graph;
mod merge;
mod paths;
mod probe;
mod traces;
mod yarrp;

pub use graph::build_reference;
pub use merge::{merge_fold, Merged, MergedTrace};
pub use paths::{held_tree, path_tree};
pub use probe::build_probe;
pub use traces::{discover_by_path_div, ia_hack, trace_set, Trace, TraceSet};
pub use yarrp::run_reference;
