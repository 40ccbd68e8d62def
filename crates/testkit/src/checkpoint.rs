//! A checkpoint encoding cut into its sections, so that a pin that
//! moves names what moved instead of only saying that the file did.
//!
//! This crate never depends on the umbrella crate, so the caller
//! decodes (`Checkpoint::from_bytes(bytes)?.traces()`) and hands the
//! decoded sets in. Their span is found by re-encoding them as the
//! checkpoint does, one chain ([`write_trace_chain`]), and locating
//! those bytes in the checkpoint. The fixed parts are the encoding's
//! own: an 8-byte magic and version, an 8-byte configuration digest,
//! and an 8-byte trailer. The scalars before the trace sets are the
//! budgeter's weights and liveness, the discovery set, the subnets, the
//! round reports and the round target lists; the tail after them is
//! the stats, the low-yield streak, the pool, the virtual clock, the
//! delta state (a flag, then the prior store's shard count, the reopen
//! latches and the force queue) and the alias state (a flag, then the
//! alias groups and the tested set; the decoder rebuilds the router
//! graph from those and the trace sets).

use analysis::snapshot::{fnv1a, write_trace_chain};
use analysis::{SnapWriter, TraceSet};
use std::fmt::Write as _;
use std::ops::Range;

/// The sections of a checkpoint, in encoding order. The last row is the
/// whole file, so a table of pins is never weaker than one pin of the
/// file.
pub const SECTIONS: [&str; 7] = [
    "header",
    "config digest",
    "pre-trace scalars",
    "trace sets",
    "tail (stats .. alias state)",
    "trailer",
    "whole file",
];

/// One pin: a section's length in bytes and its FNV-1a.
pub type Pin = (usize, u64);

/// The byte range of each of [`SECTIONS`] in the checkpoint `bytes`,
/// whose decoded trace sets are `sets`. Panics if the re-encoded sets
/// are not in `bytes`, or if there are none.
pub fn sections<'a>(
    bytes: &[u8],
    sets: impl IntoIterator<Item = &'a TraceSet>,
) -> [Range<usize>; 7] {
    let mut w = SnapWriter::new();
    write_trace_chain(&mut w, sets);
    let sets = w.into_bytes();
    assert!(!sets.is_empty(), "a checkpoint with no trace sets");
    let start = 16
        + bytes[16..]
            .windows(sets.len())
            .position(|w| w == sets)
            .expect("the checkpoint holds its trace sets inline");
    let (end, n) = (start + sets.len(), bytes.len());
    [
        0..8,
        8..16,
        16..start,
        start..end,
        end..n - 8,
        n - 8..n,
        0..n,
    ]
}

/// Every section of `bytes` whose pin is not the one in `pinned`, a
/// line each with its byte range, then the whole table to re-pin from.
/// Empty when nothing moved.
pub fn moved<'a>(
    bytes: &[u8],
    sets: impl IntoIterator<Item = &'a TraceSet>,
    pinned: &[Pin; 7],
) -> String {
    let ranges = sections(bytes, sets);
    let now = ranges.clone().map(|r| (r.len(), fnv1a(&bytes[r])));
    if now == *pinned {
        return String::new();
    }
    let mut out = String::new();
    for (((name, range), pin), was) in SECTIONS.iter().zip(&ranges).zip(&now).zip(pinned) {
        if pin != was {
            let _ = writeln!(
                out,
                "  {name} moved: bytes {range:?}, {pin:?}, pinned {was:?}"
            );
        }
    }
    let _ = writeln!(out, "  now: {now:?}");
    out
}
