//! What the test suites of this workspace share and the library does
//! not ship: [`oracle`], the second implementations the library is
//! pinned against, [`fixtures`], the topologies, target sets,
//! schedules and records more than one suite builds, and
//! [`checkpoint`], which cuts a pinned checkpoint into its sections.
//!
//! Dev-only. Every crate that names this one does so under
//! `[dev-dependencies]`; it depends on the library crates, never the
//! other way round, and never on the umbrella crate. Because a crate's
//! in-file `#[cfg(test)]` modules are compiled as a second copy of that
//! crate, a unit test can use from here only what is spelled in *other*
//! crates' types: an oracle that returns crate `x`'s own types is
//! called from `x/tests/`, not from `x/src/`.

pub mod checkpoint;
pub mod fixtures;
pub mod oracle;

pub use oracle::trace_set;
