//! Pipeline benchmark: four fixed-size workloads through the pipeline
//! users run, end-to-end metrics from untraced reps and a per-layer
//! ledger from a separate traced pass. See `benchmark/README.md`.
//!
//! The binary (`main.rs`) is the harness; this library holds the
//! workloads and the declared metric lists so the crate's own test can
//! read them.

pub mod adaptive;
pub mod alloc;
pub mod compare;
pub mod json;
pub mod measure;
pub mod reference;
pub mod spec;
pub mod store;
pub mod sweep;
pub mod work;
