//! Hand-rolled binary snapshots of the columnar stores — the
//! serialization seam under the adaptive loop's checkpoint/resume.
//!
//! The repo's serde is a no-op shim (derives expand to markers), so
//! durable state is written by hand: a [`SnapWriter`] appends
//! fixed-width little-endian primitives and length-prefixed strings to
//! a byte vector, a [`SnapReader`] reads them back with explicit
//! [`SnapshotError`]s instead of panics. The encoding has no varints,
//! no alignment, no framing beyond what the caller writes — two
//! encodes of equal values are byte-identical, which is what lets the
//! checkpoint tests compare snapshots with `==`.
//!
//! [`write_trace_set`] / [`read_trace_set`] snapshot a
//! [`TraceSet`] *bit-identically*: the interner is stored as its word
//! column in id order and rebuilt by re-interning in that order (ids
//! are first-insertion-order stable, so every hop cell's id resolves to
//! the same address after a round-trip), so merges after a resume
//! behave exactly as they would have in the uninterrupted run. A set
//! holds its campaign names, not which vantage earned each trace; the
//! per-vantage sets are what answers per-vantage questions. Each packed
//! column is fixed width per
//! set, at the width its data needs: a cell is its hop limit and its id
//! in the fewest whole bytes that hold the set's largest id, and a
//! trace's lengths are in the fewest bytes that hold the set's longest,
//! behind one width byte. A set holds where each trace's cells end; the
//! encoding holds the lengths, the differences of those ends, and the
//! decoder turns them back into ends as running sums. Every width is the
//! minimal one, so a set has one encoding.
//!
//! [`write_trace_chain`] / [`read_trace_chain`] snapshot a list of sets
//! whose tables form a prefix chain (each table's words start with the
//! previous one's) and write each word once: per set, its table's
//! length, the words past the previous set's, then the set without its
//! table. The adaptive checkpoint's trace record is such a chain.
//!
//! [`write_sharded_snapshot`] / [`read_sharded_snapshot`] persist a
//! store as one file: a header, the shard count, the store's one set in
//! the [`write_trace_set`] layout, and a checksum of all of it.

use crate::intern::AddrInterner;
use crate::traces::{cell_range, trace_lens, Columns, TraceSet};
use std::net::Ipv6Addr;
use std::sync::Arc;

/// Why a snapshot failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the value it promised.
    Truncated,
    /// The leading magic/version did not match this build's format.
    BadMagic,
    /// A decoded value was structurally impossible (an out-of-range
    /// index, a length that overflows the buffer); the payload names
    /// the field.
    BadValue(&'static str),
    /// A string field held invalid UTF-8.
    Utf8,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "snapshot magic/version mismatch"),
            SnapshotError::BadValue(what) => write!(f, "snapshot field out of range: {what}"),
            SnapshotError::Utf8 => write!(f, "snapshot string is not UTF-8"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Appends fixed-width little-endian values to a growing byte buffer.
#[derive(Clone, Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `n` more bytes in one allocation.
    pub fn reserve(&mut self, n: usize) {
        self.buf.reserve(n);
    }

    /// Appends bytes already encoded elsewhere.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far, borrowed.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits — exact, so EWMA
    /// weights survive a round-trip to the last ulp.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Reads [`SnapWriter`]-encoded values back out of a byte slice.
#[derive(Clone, Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its raw bits.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool; anything but 0/1 is a [`SnapshotError::BadValue`].
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::BadValue("bool")),
        }
    }

    /// Reads a `u32` count of items at least `size` bytes each. A count
    /// the rest of the buffer cannot hold is [`SnapshotError::Truncated`]
    /// before anything is sized by it: a corrupt count never reserves
    /// more than the input could fill.
    pub(crate) fn count(&mut self, size: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(size) > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| SnapshotError::Utf8)
    }
}

/// The fewest whole bytes, at least one, that hold `v`.
fn width_of(v: u32) -> usize {
    (4 - v.leading_zeros() as usize / 8).max(1)
}

/// The width of every id of a set with `n_words` interner words: the
/// fewest bytes that hold its largest id, `n_words - 1`. It follows
/// from the word count, which is decoded first, so no byte carries it.
fn id_width(n_words: usize) -> usize {
    width_of(n_words.saturating_sub(1) as u32)
}

/// What sizes a set's encoding beyond its column lengths: the width of
/// each packed column, and how many traces carry a `reached_at`.
struct Widths {
    hop_len: usize,
    unreach_len: usize,
    id: usize,
    reached: usize,
}

impl Widths {
    fn of(ts: &TraceSet) -> Widths {
        let longest = |ends| trace_lens(ends).max().unwrap_or(0);
        let cols = &ts.cols;
        Widths {
            hop_len: width_of(longest(&cols.hop_ends)),
            unreach_len: width_of(longest(&cols.unreach_ends)),
            id: id_width(ts.interner.len()),
            reached: cols.reached.iter().filter(|at| at.is_some()).count(),
        }
    }

    /// The exact length of `ts`'s encoding, these its widths, with its
    /// word table or without.
    fn encoded_len(&self, ts: &TraceSet, with_table: bool) -> usize {
        let str_len = |s: &str| 4 + s.len();
        let n = ts.len();
        str_len(&ts.vantage)
            + str_len(&ts.target_set)
            + 8
            + if with_table {
                4 + 16 * ts.interner.len()
            } else {
                0
            }
            + (4 + 16 * n)
            + (1 + self.hop_len * n)
            + (1 + self.unreach_len * n)
            + (n + self.reached)
            + (4 + (1 + self.id) * ts.cols.hop_ids.len())
            + (4 + (1 + self.id) * ts.cols.unreach_ids.len())
    }
}

/// Serializes a [`TraceSet`]: the interner as its word list in id
/// order, the targets, each trace's hop and unreachable lengths as two
/// packed columns behind a width byte each, a `reached_at` per trace,
/// then the two cell columns, each as its count, its hop limits and its
/// packed ids. Inverse of [`read_trace_set`].
pub fn write_trace_set(w: &mut SnapWriter, ts: &TraceSet) {
    write_set(w, ts, true);
}

/// [`write_trace_set`], the word table (its count, then its words in id
/// order) left out unless `with_table`: a chain's set shares its chain's.
fn write_set(w: &mut SnapWriter, ts: &TraceSet, with_table: bool) {
    let widths = Widths::of(ts);
    // One reservation, not a doubling buffer copied on the way up.
    let len = widths.encoded_len(ts, with_table);
    w.reserve(len);
    let end = w.buf.len() + len;
    w.str(&ts.vantage);
    w.str(&ts.target_set);
    w.u64(ts.rewritten_dropped);
    if with_table {
        w.u32(ts.interner.len() as u32);
        for &word in ts.interner.words() {
            w.u128(word);
        }
    }
    let cols = &ts.cols;
    w.u32(cols.targets.len() as u32);
    for &t in &cols.targets {
        w.u128(u128::from(t));
    }
    write_lens(w, widths.hop_len, trace_lens(&cols.hop_ends));
    write_lens(w, widths.unreach_len, trace_lens(&cols.unreach_ends));
    for &reached_at in &cols.reached {
        match reached_at {
            Some(at) => {
                w.u8(1);
                w.u8(at);
            }
            None => w.u8(0),
        }
    }
    for (ttls, ids) in [
        (&cols.hop_ttls, &cols.hop_ids),
        (&cols.unreach_ttls, &cols.unreach_ids),
    ] {
        w.u32(ids.len() as u32);
        w.raw(ttls);
        write_packed(w, widths.id, ids.iter().copied());
    }
    debug_assert_eq!(w.buf.len(), end, "the encoded length is exact");
}

/// Appends each value's low `width` bytes, little-endian. The width is
/// matched once, and each arm is a loop specialised to it.
fn write_packed(w: &mut SnapWriter, width: usize, values: impl Iterator<Item = u32>) {
    fn put<const W: usize>(buf: &mut Vec<u8>, values: impl Iterator<Item = u32>) {
        for v in values {
            buf.extend_from_slice(&v.to_le_bytes()[..W]);
        }
    }
    match width {
        1 => put::<1>(&mut w.buf, values),
        2 => put::<2>(&mut w.buf, values),
        3 => put::<3>(&mut w.buf, values),
        _ => put::<4>(&mut w.buf, values),
    }
}

/// Reads `n` values of `width` bytes each, as [`write_packed`] wrote
/// them. `width` is in `1..=4`; the caller checked it.
fn read_packed(r: &mut SnapReader<'_>, n: usize, width: usize) -> Result<Vec<u32>, SnapshotError> {
    fn get<const W: usize>(bytes: &[u8]) -> Vec<u32> {
        let value = |c: &[u8]| {
            let mut v = [0; 4];
            v[..W].copy_from_slice(c);
            u32::from_le_bytes(v)
        };
        bytes.chunks_exact(W).map(value).collect()
    }
    let bytes = r.take(n * width)?;
    Ok(match width {
        1 => get::<1>(bytes),
        2 => get::<2>(bytes),
        3 => get::<3>(bytes),
        _ => get::<4>(bytes),
    })
}

/// Appends a length column: its width byte, then each length at that
/// width.
fn write_lens(w: &mut SnapWriter, width: usize, lens: impl Iterator<Item = u32>) {
    w.u8(width as u8);
    write_packed(w, width, lens);
}

/// Reads a length column: its width byte, then `n` lengths at that
/// width. A width outside `1..=4`, or wider than the longest length
/// needs, is a `BadValue(what)`: each set has one spelling.
fn read_lens(
    r: &mut SnapReader<'_>,
    n: usize,
    what: &'static str,
) -> Result<Vec<u32>, SnapshotError> {
    let width = usize::from(r.u8()?);
    if !(1..=4).contains(&width) {
        return Err(SnapshotError::BadValue(what));
    }
    let lens = read_packed(r, n, width)?;
    if width != width_of(lens.iter().copied().max().unwrap_or(0)) {
        return Err(SnapshotError::BadValue(what));
    }
    Ok(lens)
}

/// Reads a cell column pair: its count, the hop limits, the ids at the
/// set's id width. An id the interner's `n_words` cannot resolve is a
/// `BadValue(what)`.
fn read_cells(
    r: &mut SnapReader<'_>,
    n_words: usize,
    what: &'static str,
) -> Result<(Vec<u8>, Vec<u32>), SnapshotError> {
    let width = id_width(n_words);
    let n = r.count(1 + width)?;
    let ttls = r.take(n)?.to_vec();
    let ids = read_packed(r, n, width)?;
    if ids
        .iter()
        .copied()
        .max()
        .is_some_and(|id| id as usize >= n_words)
    {
        return Err(SnapshotError::BadValue(what));
    }
    Ok((ttls, ids))
}

/// Deserializes a [`TraceSet`] written by [`write_trace_set`]. The
/// interner is rebuilt by re-interning the stored word list in order —
/// ids are insertion-order stable, so the result is bit-identical to
/// the original (`PartialEq`, interner ids and all).
///
/// What every set the library builds holds is also what decoding
/// demands, because the views trust it: ids the interner resolves,
/// targets strictly ascending, trace lengths that sum to their
/// column's length (each trace's range starts where the previous
/// trace's ends), and hop TTLs strictly ascending within a trace. So
/// does the one spelling of each set: every length width the minimal
/// one. Anything else is a [`SnapshotError::BadValue`].
pub fn read_trace_set(r: &mut SnapReader<'_>) -> Result<TraceSet, SnapshotError> {
    read_set(r, None)
}

/// The exact number of bytes [`write_trace_chain`] appends for `sets`.
pub fn trace_chain_encoded_len<'a>(sets: impl IntoIterator<Item = &'a TraceSet>) -> usize {
    let mut prev = 0;
    sets.into_iter()
        .map(|ts| {
            let n = ts.interner.len();
            let added = n.saturating_sub(std::mem::replace(&mut prev, n));
            4 + 16 * added + Widths::of(ts).encoded_len(ts, false)
        })
        .sum()
}

/// Serializes a chain of trace sets, each reading a table whose words
/// start with the previous set's (the adaptive loop's record: one table
/// per round, each a prefix of the next). Each word is written once:
/// per set, the length of its table, the words past the previous set's
/// length, then the set in the [`write_trace_set`] layout without its
/// table. Sets that share a table write no words after the first, so a
/// run of sets and their new words is one contiguous span. Panics if a
/// table does not extend the previous one. Inverse of
/// [`read_trace_chain`]; the count of sets is the caller's to write.
pub fn write_trace_chain<'a>(w: &mut SnapWriter, sets: impl IntoIterator<Item = &'a TraceSet>) {
    let mut prev: Option<&Arc<AddrInterner>> = None;
    for ts in sets {
        let table = &ts.interner;
        let done = prev.map_or(&[][..], |p| p.words());
        assert!(
            prev.is_some_and(|p| Arc::ptr_eq(p, table)) || table.words().starts_with(done),
            "each table of a trace chain extends the previous one"
        );
        w.u32(table.len() as u32);
        for &word in &table.words()[done.len()..] {
            w.u128(word);
        }
        write_set(w, ts, false);
        prev = Some(table);
    }
}

/// Deserializes `n` sets written by [`write_trace_chain`]. Sets of one
/// table length share one table, and each longer table is the previous
/// one extended, so the decoded chain holds what the encoded one did. A
/// table length below the previous set's, one past what the input
/// holds, a word repeated across the increments or an id at or past its
/// set's table length is a [`SnapshotError::BadValue`]; each set is
/// checked as [`read_trace_set`] checks one.
pub fn read_trace_chain(r: &mut SnapReader<'_>, n: usize) -> Result<Vec<TraceSet>, SnapshotError> {
    let mut table: Arc<AddrInterner> = Arc::default();
    // Not reserved from `n`, which came out of the input.
    let mut sets = Vec::new();
    for _ in 0..n {
        let len = r.u32()? as usize;
        let added = len.checked_sub(table.len()).ok_or(SnapshotError::BadValue(
            "trace table length below the previous set's",
        ))?;
        if added.saturating_mul(16) > r.remaining() {
            return Err(SnapshotError::BadValue("trace table length past the input"));
        }
        if added > 0 {
            let mut next = AddrInterner::clone(&table);
            for _ in 0..added {
                next.intern(Ipv6Addr::from(r.u128()?));
            }
            if next.len() != len {
                return Err(SnapshotError::BadValue("duplicate interner word"));
            }
            // The clone is exact, so its first new word doubled its word
            // column; held at its length, as a live run's rebase holds it.
            next.shrink_words();
            table = Arc::new(next);
        }
        sets.push(read_set(r, Some(&table))?);
    }
    Ok(sets)
}

/// Reads a word table, re-interned in order; a repeated word is refused.
fn read_words(r: &mut SnapReader<'_>) -> Result<AddrInterner, SnapshotError> {
    let n_words = r.count(16)?;
    let mut table = AddrInterner::with_room_for(n_words);
    for _ in 0..n_words {
        table.intern(Ipv6Addr::from(r.u128()?));
    }
    if table.len() != n_words {
        return Err(SnapshotError::BadValue("duplicate interner word"));
    }
    Ok(table)
}

/// Reads what [`write_set`] wrote: with its own word table when `table`
/// is `None`, else sharing `table`, which its ids must resolve in.
fn read_set(
    r: &mut SnapReader<'_>,
    table: Option<&Arc<AddrInterner>>,
) -> Result<TraceSet, SnapshotError> {
    let vantage: Arc<str> = r.str()?.into();
    let target_set: Arc<str> = r.str()?.into();
    let rewritten_dropped = r.u64()?;
    let interner = match table {
        Some(table) => Arc::clone(table),
        None => Arc::new(read_words(r)?),
    };
    let n_words = interner.len();
    // A target is its word, two lengths and a `reached_at` tag, at
    // least a byte each.
    let n_targets = r.count(16 + 3)?;
    let mut targets = Vec::with_capacity(n_targets);
    for _ in 0..n_targets {
        targets.push(Ipv6Addr::from(r.u128()?));
    }
    // The length columns are decoded in place into the end columns:
    // each trace's end is the sum of its length and the lengths before
    // it, and a sum past `u32` is refused rather than wrapped. Ends
    // built so never decrease, so the ranges tile their columns once
    // the last end is the column's length.
    let mut hop_ends = read_lens(r, n_targets, "hop length width")?;
    let mut unreach_ends = read_lens(r, n_targets, "unreach length width")?;
    let (mut hop_end, mut unreach_end) = (0u32, 0u32);
    let mut reached = Vec::with_capacity(n_targets);
    for (hop, unreach) in hop_ends.iter_mut().zip(&mut unreach_ends) {
        reached.push(match r.u8()? {
            0 => None,
            1 => Some(r.u8()?),
            _ => return Err(SnapshotError::BadValue("reached_at tag")),
        });
        hop_end = hop_end
            .checked_add(*hop)
            .ok_or(SnapshotError::BadValue("trace hop lengths past u32"))?;
        *hop = hop_end;
        unreach_end = unreach_end
            .checked_add(*unreach)
            .ok_or(SnapshotError::BadValue("trace unreach lengths past u32"))?;
        *unreach = unreach_end;
    }
    let (hop_ttls, hop_ids) = read_cells(r, n_words, "hop interner id")?;
    let (unreach_ttls, unreach_ids) = read_cells(r, n_words, "unreach interner id")?;
    if hop_end as usize != hop_ids.len() {
        return Err(SnapshotError::BadValue("trace hop range"));
    }
    if unreach_end as usize != unreach_ids.len() {
        return Err(SnapshotError::BadValue("trace unreach range"));
    }
    // `path_len`, `last_hop` and `hop_vec` read a trace's deepest hop
    // off its last cell.
    if (0..n_targets).any(|idx| {
        hop_ttls[cell_range(&hop_ends, idx)]
            .windows(2)
            .any(|w| w[0] >= w[1])
    }) {
        return Err(SnapshotError::BadValue("hop ttl order"));
    }
    // `get` binary-searches the targets.
    if targets.windows(2).any(|w| w[0] >= w[1]) {
        return Err(SnapshotError::BadValue("target order"));
    }
    Ok(TraceSet {
        vantage,
        target_set,
        rewritten_dropped,
        interner,
        cols: Arc::new(Columns {
            targets,
            hop_ends,
            unreach_ends,
            reached,
            hop_ttls,
            hop_ids,
            unreach_ttls,
            unreach_ids,
        }),
    })
}

// ---------------------------------------------------------------------------
// Persistent store: one versioned file.
//
// A [`crate::shard::ShardedTraceSet`] persists as one file, `store.snap`
// in its directory: the magic, the format version, the shard count, the
// store's one set in the `write_trace_set` layout (word table
// included), then an FNV-1a checksum of every byte before it. No shard
// placement is stored: the route is a function of the count. A write
// goes to a temporary file, synced, then renamed over the last store,
// so a crash mid-write leaves the previous store readable. Writes are
// byte-deterministic: persisting the same store twice produces
// identical files, so day-over-day diffs of a snapshot are real
// topology diffs.

use crate::shard::{ShardedTraceSet, MAX_SHARDS};
use std::io::Write;
use std::path::Path;

/// Store file magic: `"BSNP"`.
pub(crate) const STORE_MAGIC: u32 = 0x4253_4e50;
/// Standalone segment magic: `"BSEG"`.
pub(crate) const SEGMENT_MAGIC: u32 = 0x4253_4547;
/// On-disk format version. Bump on any layout change; readers reject
/// other versions rather than guessing. Version 5 is one file; 4 was a
/// directory of a manifest, a word-table segment and a segment per
/// shard; 3 had per-trace provenance lists; 2 gave each shard segment
/// its own word table; 1 had 4-byte ids and offsets.
pub(crate) const STORE_VERSION: u32 = 5;

/// The store's file name inside a snapshot directory.
pub const STORE_FILE: &str = "store.snap";

/// Where a write puts the file before renaming it onto [`STORE_FILE`].
const TEMP_FILE: &str = "store.snap.tmp";

/// FNV-1a over a byte slice — the same construction
/// `beholder::checkpoint` uses for its config digest, applied here to
/// a whole store file so bit rot fails loudly at load.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A store file's length and checksum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentInfo {
    /// File length in bytes.
    pub len: u64,
    /// The file's trailing checksum: FNV-1a over every byte before it.
    pub fnv: u64,
}

/// What [`write_sharded_snapshot`] wrote: the shard count and the file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotManifest {
    /// Shard count — the [`crate::ShardRoute`] parameter (the routing
    /// function itself is versioned by `STORE_VERSION`).
    pub n_shards: u32,
    /// The store file, in a one-element slice: a store is one file,
    /// and summing these lengths gives its size on disk.
    pub segments: Vec<SegmentInfo>,
}

/// A file: magic, version, then what `body` writes.
fn encode_file(magic: u32, body: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.u32(magic);
    w.u32(STORE_VERSION);
    body(&mut w);
    w.into_bytes()
}

/// Decodes what [`encode_file`] wrote, `body` reading the payload: any
/// version but this build's is refused by number, and trailing bytes
/// are a `BadValue(what)`.
fn decode_file<T>(
    bytes: &[u8],
    magic: u32,
    what: &'static str,
    body: impl FnOnce(&mut SnapReader<'_>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let mut r = SnapReader::new(bytes);
    if r.u32()? != magic {
        return Err(SnapshotError::BadMagic);
    }
    if r.u32()? != STORE_VERSION {
        return Err(SnapshotError::BadValue("store version"));
    }
    let value = body(&mut r)?;
    if r.remaining() != 0 {
        return Err(SnapshotError::BadValue(what));
    }
    Ok(value)
}

/// Encodes one set as a standalone segment: magic, version, then the
/// [`write_trace_set`] layout, word table included. Byte-deterministic.
pub fn encode_segment(ts: &TraceSet) -> Vec<u8> {
    encode_file(SEGMENT_MAGIC, |w| write_trace_set(w, ts))
}

/// Decodes what [`encode_segment`] wrote.
pub fn decode_segment(bytes: &[u8]) -> Result<TraceSet, SnapshotError> {
    let trailing = "trailing segment bytes";
    decode_file(bytes, SEGMENT_MAGIC, trailing, read_trace_set)
}

/// Why a persistent snapshot failed to load or save.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (missing directory, unreadable file, ...).
    Io(std::io::Error),
    /// The store file failed structural decoding.
    Decode(SnapshotError),
    /// The store file's bytes did not match its checksum.
    Corrupt,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot io: {e}"),
            StoreError::Decode(e) => write!(f, "snapshot decode: {e}"),
            StoreError::Corrupt => write!(f, "snapshot failed its checksum"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        StoreError::Decode(e)
    }
}

/// Persists a sharded store under `dir` (created if absent) as one
/// file, [`STORE_FILE`]: the shard count, the store's set and a
/// trailing checksum. The file is written under a temporary name,
/// synced, and renamed into place, and the directory synced, so a
/// crash mid-write leaves the previous store. Returns what it wrote.
/// Byte-deterministic — equal stores produce identical files.
pub fn write_sharded_snapshot(
    dir: &Path,
    store: &ShardedTraceSet,
) -> Result<SnapshotManifest, StoreError> {
    let ts = &store.set;
    let n_shards = store.n_shards() as u32;
    let mut bytes = encode_file(STORE_MAGIC, |w| {
        // The count, the set and the checksum in one reservation.
        w.reserve(4 + Widths::of(ts).encoded_len(ts, true) + 8);
        w.u32(n_shards);
        write_trace_set(w, ts);
    });
    let fnv = fnv1a(&bytes);
    bytes.extend_from_slice(&fnv.to_le_bytes());
    std::fs::create_dir_all(dir)?;
    let temp = dir.join(TEMP_FILE);
    let mut file = std::fs::File::create(&temp)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    std::fs::rename(&temp, dir.join(STORE_FILE))?;
    // The rename is durable once the directory entry is.
    std::fs::File::open(dir)?.sync_all()?;
    let segments = vec![SegmentInfo {
        len: bytes.len() as u64,
        fnv,
    }];
    Ok(SnapshotManifest { n_shards, segments })
}

/// Loads the store [`write_sharded_snapshot`] wrote under `dir`. The
/// checksum is checked before a byte is decoded; then the magic, the
/// version, a shard count in `1..=MAX_SHARDS` and that no bytes trail
/// the set. The set is decoded once, and the route rebuilt from the
/// count.
pub fn read_sharded_snapshot(dir: &Path) -> Result<ShardedTraceSet, StoreError> {
    let bytes = std::fs::read(dir.join(STORE_FILE))?;
    let body_len = bytes.len().checked_sub(8).ok_or(SnapshotError::Truncated)?;
    let (body, sum) = bytes.split_at(body_len);
    if fnv1a(body) != u64::from_le_bytes(sum.try_into().expect("the last eight bytes")) {
        return Err(StoreError::Corrupt);
    }
    let (n_shards, set) = decode_file(body, STORE_MAGIC, "trailing store bytes", |r| {
        let n_shards = r.u32()? as usize;
        if !(1..=MAX_SHARDS).contains(&n_shards) {
            return Err(SnapshotError::BadValue("shard count"));
        }
        Ok((n_shards, read_trace_set(r)?))
    })?;
    Ok(ShardedTraceSet::from_set(&set, n_shards))
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::fixtures::rec;
    use yarrp6::{ProbeLog, ResponseKind};

    fn sample() -> TraceSet {
        let a = TraceSet::from_log(&ProbeLog {
            vantage: "V-A".into(),
            target_set: "snap".into(),
            records: vec![
                rec("2001:db8::1", "::a", ResponseKind::TimeExceeded, Some(1)),
                rec("2001:db8::1", "::b", ResponseKind::TimeExceeded, Some(2)),
                rec(
                    "2001:db8::1",
                    "2001:db8::1",
                    ResponseKind::EchoReply,
                    Some(3),
                ),
            ],
            ..Default::default()
        });
        let b = TraceSet::from_log(&ProbeLog {
            vantage: "V-B".into(),
            target_set: "snap".into(),
            records: vec![rec(
                "2001:db8::9",
                "::c",
                ResponseKind::TimeExceeded,
                Some(4),
            )],
            ..Default::default()
        });
        TraceSet::merge_all([&a, &b])
    }

    #[test]
    fn trace_set_round_trips_bit_identically() {
        let ts = sample();
        let mut w = SnapWriter::new();
        write_trace_set(&mut w, &ts);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = read_trace_set(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(back, ts);
        assert_eq!(back.interner().words(), ts.interner().words());
        for (x, y) in back.iter().zip(ts.iter()) {
            assert_eq!(x.hop_cells(), y.hop_cells());
            assert_eq!(x.unreachable_cells(), y.unreachable_cells());
        }
        // Byte-determinism: re-encoding the decoded set is identical.
        let mut w2 = SnapWriter::new();
        write_trace_set(&mut w2, &back);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn truncation_is_an_error_at_every_length() {
        let ts = sample();
        let mut w = SnapWriter::new();
        write_trace_set(&mut w, &ts);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(
                read_trace_set(&mut r).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    /// `ts`'s encoding.
    fn encode(ts: &TraceSet) -> Vec<u8> {
        let mut w = SnapWriter::new();
        write_trace_set(&mut w, ts);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<TraceSet, SnapshotError> {
        read_trace_set(&mut SnapReader::new(bytes))
    }

    /// The fewest bytes that hold `v`, spelled out.
    fn min_width(v: u32) -> u8 {
        match v {
            0..=0xff => 1,
            0x100..=0xffff => 2,
            0x1_0000..=0xff_ffff => 3,
            _ => 4,
        }
    }

    /// A set written field by field, so a test can state what the
    /// library never builds: `n_words` interner words, a target per
    /// `[hop_len, unreach_len]` pair, the two length columns behind the
    /// width bytes `len_widths`, no trace reached, and the given
    /// `(ttl, id)` cells with ids at the width `n_words` implies.
    fn raw(
        n_words: u32,
        len_widths: [u8; 2],
        lens: &[[u32; 2]],
        hops: &[(u8, u32)],
        unreach: &[(u8, u32)],
    ) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.str("v");
        w.str("t");
        w.u64(0);
        w.u32(n_words);
        for i in 0..n_words {
            w.u128(0xa + u128::from(i));
        }
        w.u32(lens.len() as u32);
        for i in 0..lens.len() {
            w.u128(0x2001_0db8 << 96 | i as u128);
        }
        for (k, &width) in len_widths.iter().enumerate() {
            w.u8(width);
            for len in lens {
                w.raw(&len[k].to_le_bytes()[..usize::from(width).min(4)]);
            }
        }
        lens.iter().for_each(|_| w.u8(0)); // not reached
        let id_width = usize::from(min_width(n_words.saturating_sub(1)));
        for cells in [hops, unreach] {
            w.u32(cells.len() as u32);
            cells.iter().for_each(|&(ttl, _)| w.u8(ttl));
            cells
                .iter()
                .for_each(|&(_, id)| w.raw(&id.to_le_bytes()[..id_width]));
        }
        w.into_bytes()
    }

    /// [`raw`] with one interner word and minimal length widths.
    fn raw_set(lens: &[[u32; 2]], hops: &[(u8, u32)], unreach: &[(u8, u32)]) -> Vec<u8> {
        let widest = |k: usize| min_width(lens.iter().map(|l| l[k]).max().unwrap_or(0));
        raw(1, [widest(0), widest(1)], lens, hops, unreach)
    }

    #[test]
    fn corrupt_ids_are_rejected() {
        let bad = |what| Err(SnapshotError::BadValue(what));
        // An empty interner resolves no id: a hop cell naming id 0.
        assert_eq!(
            decode(&raw(0, [1, 1], &[[1, 0]], &[(1, 0)], &[])),
            bad("hop interner id")
        );
        // At ids of 1, 2 and 3 bytes, the largest id the word count
        // allows decodes, and every larger id the width can spell is
        // refused, in either column. At 256 and 65 536 words no larger
        // id fits the width.
        for n_words in [1, 255, 256, 257, 65_536, 65_537] {
            let width = min_width(n_words - 1);
            let set = |hop: u32, unreach: u32| {
                decode(&raw(
                    n_words,
                    [1, 1],
                    &[[1, 1]],
                    &[(1, hop)],
                    &[(1, unreach)],
                ))
            };
            assert!(set(n_words - 1, 0).is_ok(), "{n_words} words");
            assert!(set(0, n_words - 1).is_ok(), "{n_words} words");
            let widest = u32::MAX >> (32 - 8 * u32::from(width));
            for id in [n_words, widest] {
                if (n_words..=widest).contains(&id) {
                    assert_eq!(set(id, 0), bad("hop interner id"), "{n_words} words");
                    assert_eq!(set(0, id), bad("unreach interner id"), "{n_words} words");
                }
            }
        }
        // 4-byte ids need over 2^24 words, so their column reader is
        // called on its own.
        let n_words = (1 << 24) + 1;
        assert_eq!(id_width(n_words), 4);
        let cells = |id: u32| {
            let mut w = SnapWriter::new();
            w.u32(1);
            w.u8(7);
            w.u32(id);
            w.into_bytes()
        };
        let read = |id| read_cells(&mut SnapReader::new(&cells(id)), n_words, "id");
        assert_eq!(read(1 << 24), Ok((vec![7], vec![1 << 24])));
        assert_eq!(read((1 << 24) + 1), Err(SnapshotError::BadValue("id")));
        assert_eq!(read(u32::MAX), Err(SnapshotError::BadValue("id")));
    }

    #[test]
    fn sets_at_every_id_width_boundary_round_trip_bit_identically() {
        for (n, width) in [(256u32, 1), (257, 2), (65_536, 2), (65_537, 3)] {
            // `n` responders, 250 hops a target.
            let records: Vec<_> = (0..n)
                .map(|i| {
                    rec(
                        &format!("2001:db8::{:x}", i / 250),
                        &format!("2001:db8:ffff::{:x}:{:x}", i >> 16, i & 0xffff),
                        ResponseKind::TimeExceeded,
                        Some((i % 250) as u8 + 1),
                    )
                })
                .collect();
            let ts = TraceSet::from_log(&ProbeLog {
                vantage: "V".into(),
                target_set: "wide".into(),
                records,
                ..Default::default()
            });
            assert_eq!(ts.interner.len(), n as usize);
            assert_eq!(id_width(n as usize), width, "{n} words");
            let bytes = encode(&ts);
            assert_eq!(bytes.len(), Widths::of(&ts).encoded_len(&ts, true));
            let back = decode(&bytes).unwrap();
            assert_eq!(back, ts, "{n} words");
            assert_eq!(back.interner().words(), ts.interner().words());
            assert_eq!(encode(&back), bytes, "{n} words");
        }
    }

    #[test]
    fn lengths_of_255_and_256_cross_the_length_width() {
        for (n, width) in [(255u32, 1), (256, 2)] {
            // One trace: hop limits 0.. ascending, as many unreachable
            // cells.
            let cells: Vec<(u8, u32)> = (0..n).map(|ttl| (ttl as u8, 0)).collect();
            let bytes = raw(1, [width, width], &[[n, n]], &cells, &cells);
            let ts = decode(&bytes).unwrap();
            assert_eq!(ts.view_at(0).hop_cells().len(), n as usize);
            assert_eq!(ts.view_at(0).unreachable_cells().len(), n as usize);
            assert_eq!(encode(&ts), bytes, "{n} cells");
            assert_eq!(Widths::of(&ts).encoded_len(&ts, true), bytes.len());
        }
        // 65 536 cells take a third byte.
        let cells = vec![(1, 0); 1 << 16];
        let bytes = raw(1, [1, 3], &[[0, 1 << 16]], &[], &cells);
        assert_eq!(encode(&decode(&bytes).unwrap()), bytes);
    }

    #[test]
    fn a_length_width_that_is_not_minimal_is_refused() {
        let cells = [(1, 0), (2, 0)];
        let lens = [[2, 1], [0, 1]];
        assert!(decode(&raw(1, [1, 1], &lens, &cells, &cells)).is_ok());
        let hop = Err(SnapshotError::BadValue("hop length width"));
        let unreach = Err(SnapshotError::BadValue("unreach length width"));
        for wider in 2..=4 {
            assert_eq!(decode(&raw(1, [wider, 1], &lens, &cells, &cells)), hop);
            assert_eq!(decode(&raw(1, [1, wider], &lens, &cells, &cells)), unreach);
        }
        // 255 fits one byte, so two is not minimal.
        let long: Vec<(u8, u32)> = (0..255).map(|ttl| (ttl, 0)).collect();
        assert!(decode(&raw(1, [1, 1], &[[255, 0]], &long, &[])).is_ok());
        assert_eq!(decode(&raw(1, [2, 1], &[[255, 0]], &long, &[])), hop);
        // With no traces the width is still one byte.
        assert!(decode(&raw(1, [1, 1], &[], &[], &[])).is_ok());
        assert_eq!(decode(&raw(1, [1, 2], &[], &[], &[])), unreach);
    }

    #[test]
    fn a_length_width_of_0_or_5_is_refused() {
        let cells = [(1, 0), (2, 0)];
        let lens = [[2, 1], [0, 1]];
        for width in [0, 5, 255] {
            assert_eq!(
                decode(&raw(1, [width, 1], &lens, &cells, &cells)),
                Err(SnapshotError::BadValue("hop length width")),
                "width {width}"
            );
            assert_eq!(
                decode(&raw(1, [1, width], &lens, &cells, &cells)),
                Err(SnapshotError::BadValue("unreach length width")),
                "width {width}"
            );
        }
    }

    #[test]
    fn a_count_the_input_cannot_hold_is_truncation() {
        // Each count sizes an allocation before its items are read; at
        // u32::MAX it would ask for more memory than any machine has.
        let cases: [fn(&mut SnapWriter); 3] = [
            |w| w.u32(u32::MAX), // interner words
            |w| {
                w.u32(0);
                w.u32(u32::MAX); // targets
            },
            |w| {
                w.u32(0);
                w.u32(0);
                w.u8(1); // hop length width
                w.u8(1); // unreach length width
                w.u32(u32::MAX); // hop cells
            },
        ];
        for counts in cases {
            let mut w = SnapWriter::new();
            w.str("v");
            w.str("t");
            w.u64(0);
            counts(&mut w);
            w.raw(&[0; 64]);
            let bytes = w.into_bytes();
            assert_eq!(
                read_trace_set(&mut SnapReader::new(&bytes)),
                Err(SnapshotError::Truncated)
            );
        }
    }

    #[test]
    fn corrupt_trace_metadata_is_rejected() {
        let read = |ts: &TraceSet| decode(&encode(ts));
        // `sample`: two traces, of two hops and of one, no unreachables.
        fn cols(ts: &mut TraceSet) -> &mut Columns {
            Arc::make_mut(&mut ts.cols)
        }
        type Corrupt = fn(&mut TraceSet);
        let cases: [(Corrupt, &str); 3] = [
            // The first trace 100 hops longer, the second as it was.
            (
                |ts| cols(ts).hop_ends.iter_mut().for_each(|end| *end += 100),
                "trace hop range",
            ),
            (|ts| cols(ts).unreach_ends[1] += 1, "trace unreach range"),
            (|ts| cols(ts).targets.swap(0, 1), "target order"),
        ];
        for (corrupt, what) in cases {
            let mut ts = sample();
            corrupt(&mut ts);
            assert_eq!(read(&ts), Err(SnapshotError::BadValue(what)));
        }
        // Lengths whose sum passes u32 have no ends to hold them, so
        // only the bytes can spell them: a first trace of u32::MAX hop
        // or unreachable cells.
        let hops = [(1, 0), (2, 0), (4, 0)];
        let cases = [
            ([[u32::MAX, 0], [1, 0]], "trace hop lengths past u32"),
            ([[2, u32::MAX], [1, 1]], "trace unreach lengths past u32"),
        ];
        for (lens, what) in cases {
            let bytes = raw_set(&lens, &hops, &[]);
            assert_eq!(decode(&bytes), Err(SnapshotError::BadValue(what)));
        }
        // The last trace's ranges end exactly at their columns' ends.
        let ts = sample();
        ts.assert_tiled();
        assert_eq!(read(&ts), Ok(ts));
    }

    #[test]
    fn hop_ttls_out_of_order_within_a_trace_are_rejected() {
        let hops = |ttls: [u8; 2]| ttls.map(|ttl| (ttl, 0));
        // Two two-hop traces. Ascending within each, in any order across
        // them.
        let two = [[2, 0], [2, 0]];
        let ok = [(3, 0), (5, 0), (1, 0), (2, 0)];
        let ts = decode(&raw_set(&two, &ok, &[])).unwrap();
        assert_eq!(ts.view_at(0).hop_vec().len(), 5);
        assert_eq!(ts.view_at(0).path_len(), Some(5));
        // One edit that put a trace's deepest hop first, and one that
        // repeats a TTL.
        for bad in [hops([9, 5]), hops([5, 5])] {
            for at in [0, 2] {
                let mut cells = ok;
                cells[at..at + 2].copy_from_slice(&bad);
                assert_eq!(
                    decode(&raw_set(&two, &cells, &[])).unwrap_err(),
                    SnapshotError::BadValue("hop ttl order"),
                    "{cells:?}"
                );
            }
        }
        // Unreachable cells keep record order: any TTLs go.
        let du = [[0, 2]];
        assert!(decode(&raw_set(&du, &[], &[(9, 0), (5, 0)])).is_ok());
    }

    #[test]
    fn cell_ranges_that_do_not_tile_their_column_are_rejected() {
        // Offsets are the running sums of the lengths, so two ways are
        // left to break the tiling: lengths that do not sum to their
        // column's length, and a sum past u32.
        let cells = [(1, 0), (2, 0), (3, 0)];
        assert!(decode(&raw_set(&[[1, 1], [2, 2]], &cells, &cells)).is_ok());
        let cases: [([[u32; 2]; 2], &str); 6] = [
            // A cell no trace owns, a trace past the column's end.
            ([[1, 1], [1, 2]], "trace hop range"),
            ([[1, 1], [3, 2]], "trace hop range"),
            ([[1, 1], [2, 1]], "trace unreach range"),
            ([[1, 2], [2, 2]], "trace unreach range"),
            ([[u32::MAX, 1], [1, 2]], "trace hop lengths past u32"),
            ([[1, u32::MAX], [2, 1]], "trace unreach lengths past u32"),
        ];
        for (lens, what) in cases {
            assert_eq!(
                decode(&raw_set(&lens, &cells, &cells)).unwrap_err(),
                SnapshotError::BadValue(what),
                "{lens:?}"
            );
        }
    }

    #[test]
    fn every_shard_of_a_store_shares_one_table() {
        let shared = |set: &ShardedTraceSet| {
            let table = &set.set.interner;
            (0..set.n_shards()).all(|s| Arc::ptr_eq(&set.shard(s).interner, table))
        };
        let (a, b) = (sample(), TraceSet::merge_all([&sample(), &sample()]));
        let sharded = ShardedTraceSet::from_set(&a, 4);
        assert!(shared(&sharded) && Arc::ptr_eq(&sharded.set.interner, &a.interner));
        let merged = ShardedTraceSet::merge_all(&[sharded, ShardedTraceSet::from_set(&b, 4)]);
        assert!(shared(&merged));
        let dir = std::env::temp_dir().join(format!("beholder-one-table-{}", std::process::id()));
        write_sharded_snapshot(&dir, &merged).unwrap();
        let back = read_sharded_snapshot(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        let back = back.unwrap();
        assert!(shared(&back) && back == merged);
    }

    /// Two rounds of a loop's record: `sample` and a one-trace set on one
    /// table, then a set that adds a word, on the next.
    fn chain() -> Vec<TraceSet> {
        let set = |target: &str, hop: &str| {
            TraceSet::from_log(&ProbeLog {
                vantage: "V".into(),
                target_set: "chain".into(),
                records: vec![rec(target, hop, ResponseKind::TimeExceeded, Some(1))],
                ..Default::default()
            })
        };
        let mut sets = vec![
            sample(),
            set("2001:db8::5", "::a"),
            set("2001:db8::7", "::d"),
        ];
        let mut table = Arc::default();
        let (first, last) = sets.split_at_mut(2);
        TraceSet::rebase(&mut table, first.iter_mut());
        TraceSet::rebase(&mut table, last.iter_mut());
        sets
    }

    fn encode_chain(sets: &[TraceSet]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        write_trace_chain(&mut w, sets);
        w.into_bytes()
    }

    fn decode_chain(bytes: &[u8], n: usize) -> Result<Vec<TraceSet>, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        let sets = read_trace_chain(&mut r, n)?;
        assert_eq!(r.remaining(), 0);
        Ok(sets)
    }

    #[test]
    fn a_trace_chain_writes_each_word_once_and_round_trips() {
        let sets = chain();
        let (first, last) = (&sets[0].interner, &sets[2].interner);
        assert!(Arc::ptr_eq(first, &sets[1].interner) && (first.len(), last.len()) == (3, 4));
        let bytes = encode_chain(&sets);
        assert_eq!(bytes.len(), trace_chain_encoded_len(&sets));
        let own: usize = sets
            .iter()
            .map(|s| Widths::of(s).encoded_len(s, false))
            .sum();
        assert_eq!(
            bytes.len(),
            own + 3 * 4 + 16 * 4,
            "three lengths, four words"
        );
        let back = decode_chain(&bytes, 3).unwrap();
        assert_eq!(back, sets);
        assert!(Arc::ptr_eq(&back[0].interner, &back[1].interner));
        assert!(back[2]
            .interner
            .words()
            .starts_with(back[0].interner.words()));
        assert_eq!(encode_chain(&back), bytes);
        for cut in 0..bytes.len() {
            assert!(read_trace_chain(&mut SnapReader::new(&bytes[..cut]), 3).is_err());
        }
    }

    #[test]
    fn a_decoded_chain_holds_no_spare_words() {
        // Three rounds of a loop's record, as a live run's rebase builds
        // them: each round's two sets on a table that extends the last
        // round's. Decoding builds each longer table from a copy of the
        // last one, whose word vector, doubled, would end with spare
        // words in every round at these sizes.
        let words = |n: u32, v: u32| 5 + 3 * v + n;
        let mut table = Arc::default();
        let mut sets = Vec::new();
        for n in 0..3 {
            let mut round: Vec<TraceSet> = (0..2)
                .map(|v| {
                    let records = (0..words(n, v))
                        .map(|i| {
                            let target = format!("2001:db8::{n}:{v}:{i}");
                            let hop = format!("::{n}:{v}:{i}");
                            rec(&target, &hop, ResponseKind::TimeExceeded, Some(1))
                        })
                        .collect();
                    TraceSet::from_log(&ProbeLog {
                        vantage: "V".into(),
                        target_set: "chain".into(),
                        records,
                        ..Default::default()
                    })
                })
                .collect();
            TraceSet::rebase(&mut table, round.iter_mut());
            sets.extend(round);
        }
        let back = decode_chain(&encode_chain(&sets), sets.len()).unwrap();
        assert_eq!(back, sets);
        let mut total = 0;
        for (k, pair) in back.chunks(2).enumerate() {
            let n = k as u32;
            total += (words(n, 0) + words(n, 1)) as usize;
            assert!(Arc::ptr_eq(&pair[0].interner, &pair[1].interner));
            assert_eq!(pair[0].interner.len(), total);
            assert_eq!(pair[0].interner.spare_words(), 0, "round {n}");
        }
    }

    #[test]
    #[should_panic(expected = "each table of a trace chain extends the previous one")]
    fn a_table_that_does_not_extend_the_last_is_not_a_chain() {
        let mut sets = chain();
        sets.swap(0, 2);
        encode_chain(&sets);
    }

    /// One chain entry written field by field: a table length, the
    /// words it adds, then a set of one trace with the given hop cells
    /// at ids as wide as `len` implies.
    fn entry(w: &mut SnapWriter, len: u32, words: &[u128], hops: &[(u8, u32)]) {
        w.u32(len);
        words.iter().for_each(|&word| w.u128(word));
        w.str("v");
        w.str("t");
        w.u64(0);
        w.u32(1);
        w.u128(0x2001_0db8 << 96);
        w.u8(1);
        w.u8(hops.len() as u8);
        w.u8(1);
        w.u8(0);
        w.u8(0); // not reached
        let id_width = usize::from(min_width(len.saturating_sub(1)));
        w.u32(hops.len() as u32);
        hops.iter().for_each(|&(ttl, _)| w.u8(ttl));
        hops.iter()
            .for_each(|&(_, id)| w.raw(&id.to_le_bytes()[..id_width]));
        w.u32(0); // no unreachable cells
    }

    #[test]
    fn corrupt_trace_chains_are_refused() {
        type Entry<'a> = (u32, &'a [u128], &'a [(u8, u32)]);
        // Two entries: the first reads [0xa, 0xb], the second as given.
        let chain = |first: Entry<'_>, second: Entry<'_>| {
            let mut w = SnapWriter::new();
            for (len, words, hops) in [first, second] {
                entry(&mut w, len, words, hops);
            }
            decode_chain(&w.into_bytes(), 2)
        };
        let first: Entry<'_> = (2, &[0xa, 0xb], &[(1, 1)]);
        let sets = chain(first, (3, &[0xc], &[(1, 2)])).unwrap();
        assert!(sets[1]
            .interner
            .words()
            .starts_with(sets[0].interner.words()));
        let bad = |what| Err(SnapshotError::BadValue(what));
        let below = "trace table length below the previous set's";
        assert_eq!(chain(first, (1, &[], &[(1, 0)])), bad(below));
        let past = "trace table length past the input";
        assert_eq!(chain(first, (1000, &[0xc], &[(1, 2)])), bad(past));
        // A word the first set's increment already added.
        let repeat = "duplicate interner word";
        assert_eq!(chain(first, (3, &[0xa], &[(1, 2)])), bad(repeat));
        // Id 2 is in the second set's table, not in the first's.
        let beyond: Entry<'_> = (2, &[0xa, 0xb], &[(1, 2)]);
        assert_eq!(
            chain(beyond, (3, &[0xc], &[(1, 2)])),
            bad("hop interner id")
        );
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.u128(0x0123_4567_89ab_cdef_u128 << 64 | 42);
        w.f64(0.1 + 0.2);
        w.bool(true);
        w.str("κλίμα");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.u128().unwrap(), 0x0123_4567_89ab_cdef_u128 << 64 | 42);
        assert_eq!(r.f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "κλίμα");
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), Err(SnapshotError::Truncated));
    }
}
