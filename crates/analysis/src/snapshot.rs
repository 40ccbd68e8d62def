//! Hand-rolled binary snapshots of the columnar stores — the
//! serialization seam under the adaptive loop's checkpoint/resume.
//!
//! The repo's serde is a no-op shim (derives expand to markers), so
//! durable state is written by hand: a [`SnapWriter`] appends
//! little-endian primitives, LEB128 varints and length-prefixed strings
//! to a byte vector, a [`SnapReader`] reads them back with explicit
//! [`SnapshotError`]s instead of panics. The encoding has no alignment
//! and no framing beyond what the caller writes — two encodes of equal
//! values are byte-identical, which is what lets the checkpoint tests
//! compare snapshots with `==`.
//!
//! [`write_trace_set`] / [`read_trace_set`] snapshot a
//! [`TraceSet`] *bit-identically*: the interner is stored as its word
//! column in id order and rebuilt by re-interning in that order (ids
//! are first-insertion-order stable, so every hop cell's id resolves to
//! the same address after a round-trip), so merges after a resume
//! behave exactly as they would have in the uninterrupted run. A set
//! holds its campaign names, not which vantage earned each trace; the
//! per-vantage sets are what answers per-vantage questions.
//!
//! The columns are written by what they hold. Traces to neighbouring
//! targets share most of their path, so a set is mostly repeats:
//! - **Targets** ascend, so each is two LEB128 varints, the step of its
//!   high 64 bits over the previous target's and its low 64 bits xor
//!   the previous target's (the first against zero).
//! - **Hop limits** are one window per set, a base byte (the smallest
//!   hop limit of any hop cell) and a width byte, then one bitmap per
//!   trace of that many bytes: bit *i* says the trace answered at hop
//!   limit base + *i*. A trace's hop count is its bitmap's popcount, and
//!   its hop limits ascend by construction.
//! - **Hop ids** are a second bitmap per trace, "this hop repeats the
//!   previous trace's": set where the previous trace holds a hop at the
//!   same limit with the same id. Only the other ids are written, each
//!   in the fewest whole bytes that hold the set's largest id.
//! - **Unreachable cells** keep record order and may share a hop limit,
//!   so they stay a length column (behind one width byte) and two cell
//!   columns: the hop limits, then the ids.
//!
//! Every varint, width and base is the minimal one, and a repeat bit is
//! set exactly where it can be, so a set has one encoding.
//!
//! [`write_ascending`] / [`read_ascending`] write any strictly ascending
//! address list as the target column is written, a count and then two
//! varints an address.
//!
//! [`write_trace_record`] / [`read_trace_record`] snapshot a list of sets
//! that share one word table (the adaptive checkpoint's trace record):
//! the table once, then each set without it. Decoding builds the one
//! table and hands it to every set.
//!
//! [`write_sharded_snapshot`] / [`read_sharded_snapshot`] persist a
//! store as one file: a header, the shard count, the store's one set in
//! the [`write_trace_set`] layout, and a checksum of all of it.

use crate::intern::AddrInterner;
use crate::paths::{PathBuilder, PathCursor, PathNode};
use crate::traces::{trace_lens, Columns, Memo, TraceSet};
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
    pub(crate) fn reserve(&mut self, n: usize) {
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

    /// Appends `v` as an LEB128 varint: seven bits a byte, low bits
    /// first, the high bit set on every byte but the last.
    pub(crate) fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
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

    /// Reads an LEB128 varint as [`SnapWriter::varint`] writes it. A
    /// value is spelled one way: a last byte of zero after the first
    /// (`"overlong varint"`) and a tenth byte above one (`"varint past 64
    /// bits"`) are refused.
    pub(crate) fn varint(&mut self) -> Result<u64, SnapshotError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(SnapshotError::BadValue("varint past 64 bits"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(SnapshotError::BadValue("overlong varint"));
                }
                return Ok(v);
            }
        }
        unreachable!("a tenth byte of 0 or 1 ends the varint")
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

/// The bytes of `v`'s LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// The widest hop-limit bitmap: a bit for each of the 256 hop limits.
const MAX_BITMAP: usize = 32;

/// The fewest bytes a trace takes: a varint for each half of its target,
/// an unreachable length and a `reached_at` tag, at least a byte each.
/// Hop-limit bitmaps are no bytes at all in a set without hops.
const LEAST_TRACE_BYTES: usize = 4;

/// Each target as the two varints it is written as: its high half's
/// step over the previous target's, and its low half xor the previous
/// target's, the first against zero. Ascending targets never step
/// down; a step that would (from columns the library never builds)
/// wraps, and its decode overflows into a refusal.
fn target_steps(targets: &[Ipv6Addr]) -> impl Iterator<Item = (u64, u64)> + '_ {
    targets.iter().scan((0u64, 0u64), |prev, &t| {
        let word = u128::from(t);
        let (hi, lo) = ((word >> 64) as u64, word as u64);
        let step = (hi.wrapping_sub(prev.0), lo ^ prev.1);
        *prev = (hi, lo);
        Some(step)
    })
}

/// The hop columns' repeat rule, walked trace by trace in order: a hop
/// repeats the previous trace's where that trace answered at the same
/// hop limit with the same id. Every cell above where a trace's path
/// leaves the previous trace's repeats, so only the cells below are
/// visited; the answered bitmap (`WORDS` words from hop limit `base`)
/// and the id each hop limit last had carry the rest. That id is the
/// previous trace's wherever it answered: its cells above the parting
/// point are the ones before it, whose ids the cells below never move.
struct RepeatWalk<const WORDS: usize> {
    path: PathCursor,
    base: u8,
    last: [u32; 256],
    answered: [u64; WORDS],
}

impl<const WORDS: usize> RepeatWalk<WORDS> {
    fn new(base: u8) -> Self {
        RepeatWalk {
            path: PathCursor::default(),
            base,
            last: [0; 256],
            answered: [0; WORDS],
        }
    }

    /// Moves to the next trace, whose path ends at `leaf` in `nodes`,
    /// hands `each` each of its cells below the parting point with
    /// whether it repeats, and returns the trace's answered and repeat
    /// bitmaps.
    #[inline]
    fn step(
        &mut self,
        nodes: &[PathNode],
        leaf: u32,
        mut each: impl FnMut(u8, u32, bool),
    ) -> [[u64; WORDS]; 2] {
        let base = self.base;
        let bit = |ttl: u8| {
            let rel = ttl - base;
            let word = if WORDS == 1 { 0 } else { usize::from(rel / 64) };
            (word, 1u64 << (rel % 64))
        };
        let (prev, last) = (&self.answered, &mut self.last);
        let (mut answered, mut repeats) = ([0; WORDS], [0; WORDS]);
        let shared = self.path.move_to(nodes, leaf, |_, node| {
            let (ttl, id) = (node.ttl(), node.id());
            let (word, bit) = bit(ttl);
            let slot = &mut last[usize::from(ttl - base)];
            // Without a branch: neighbouring traces repeat a hop often,
            // but not predictably.
            let repeat = (prev[word] & bit != 0) & (*slot == id);
            repeats[word] |= bit * u64::from(repeat);
            answered[word] |= bit;
            *slot = id;
            each(ttl, id, repeat);
        });
        // The previous trace's bits up to the last shared hop limit.
        if let Some(&n) = self.path.path()[..shared].last() {
            let (word, bit) = bit(nodes[n as usize].ttl());
            let mask = bit | (bit - 1);
            for (w, (a, r)) in answered.iter_mut().zip(&mut repeats).enumerate() {
                let shared_bits = match w.cmp(&word) {
                    std::cmp::Ordering::Less => self.answered[w],
                    std::cmp::Ordering::Equal => self.answered[w] & mask,
                    std::cmp::Ordering::Greater => 0,
                };
                (*a, *r) = (*a | shared_bits, *r | shared_bits);
            }
        }
        self.answered = answered;
        [answered, repeats]
    }
}

/// What a set's hop cells size in its encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct HopShape {
    /// How many hop ids no repeat bit spells.
    stored: usize,
    /// The smallest and largest hop limit of any hop cell; `None` with
    /// none.
    window: Option<(u8, u8)>,
}

/// The hop shape of `cols`: every hop cell but those that repeat the
/// previous trace's is stored, and every node is a cell below where the
/// trace that first reaches it leaves the trace before, so the walk of
/// those cells meets every hop limit.
fn hop_shape(cols: &Columns) -> HopShape {
    let mut walk = RepeatWalk::<4>::new(0);
    let (mut stored, mut lo, mut hi) = (0, u8::MAX, 0);
    for &leaf in &cols.leaves {
        walk.step(&cols.nodes, leaf, |ttl, _, repeat| {
            stored += usize::from(!repeat);
            (lo, hi) = (lo.min(ttl), hi.max(ttl));
        });
    }
    HopShape {
        stored,
        window: (lo <= hi).then_some((lo, hi)),
    }
}

/// What sizes a set's encoding beyond its column lengths: the varint
/// bytes of its targets, its hop-limit window, the width of each packed
/// column, how many hop ids no repeat bit spells and how many traces
/// carry a `reached_at`. Finding them walks the targets and the hop
/// cells once; the writer then fills a region of known length.
struct Widths {
    targets: usize,
    /// The smallest hop limit of any hop cell; 0 with none.
    base: u8,
    /// Bytes of each hop-limit bitmap: the fewest that hold a bit from
    /// `base` to the largest hop limit; 0 with no hop cells.
    bitmap: usize,
    stored: usize,
    unreach_len: usize,
    id: usize,
    reached: usize,
}

impl Widths {
    fn of(ts: &TraceSet) -> Widths {
        let cols = &ts.cols;
        let shape = cols.hop_shape.get(|| hop_shape(cols));
        debug_assert_eq!(shape, hop_shape(cols), "a stale hop shape");
        let (base, bitmap) = match shape.window {
            None => (0, 0),
            Some((lo, hi)) => (lo, usize::from(hi - lo) / 8 + 1),
        };
        let stored = shape.stored;
        Widths {
            targets: target_steps(&cols.targets)
                .map(|(hi, lo)| varint_len(hi) + varint_len(lo))
                .sum(),
            base,
            bitmap,
            stored,
            unreach_len: width_of(trace_lens(&cols.unreach_ends).max().unwrap_or(0)),
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
            + (4 + self.targets)
            + (2 + 2 * self.bitmap * n)
            + self.id * self.stored
            + (1 + self.unreach_len * n)
            + (n + self.reached)
            + (4 + (1 + self.id) * ts.cols.unreach_ids.len())
    }
}

/// The exact number of bytes [`write_trace_set`] appends for `ts`.
#[cfg(test)]
pub(crate) fn trace_set_encoded_len(ts: &TraceSet) -> usize {
    Widths::of(ts).encoded_len(ts, true)
}

/// Appends `addrs`, strictly ascending, as a set's target column is
/// written: a `u32` count, then each address as two varints, its high
/// half's step over the previous address's and its low half xor the
/// previous address's (the first against zero). A list that does not
/// strictly ascend is written as given, and [`read_ascending`] refuses
/// it. Inverse of [`read_ascending`].
pub fn write_ascending(w: &mut SnapWriter, addrs: &[Ipv6Addr]) {
    w.u32(addrs.len() as u32);
    for (hi, lo) in target_steps(addrs) {
        w.varint(hi);
        w.varint(lo);
    }
}

/// Reads what [`write_ascending`] wrote: a list that does not strictly
/// ascend is `"target order"`, and a count the rest of the input cannot
/// hold at two bytes an address is [`SnapshotError::Truncated`].
pub fn read_ascending(r: &mut SnapReader<'_>) -> Result<Vec<Ipv6Addr>, SnapshotError> {
    let n = r.count(2)?;
    read_targets(r, n)
}

/// Serializes a [`TraceSet`]: the interner as its word list in id
/// order, the targets as varint steps, the hop-limit window and each
/// trace's two bitmaps (answered, repeats the previous trace), the ids
/// no repeat bit spells, the unreachable lengths behind a width byte, a
/// `reached_at` per trace, then the unreachable cells as their count,
/// their hop limits and their packed ids. Reserved once, at its exact
/// length. Inverse of [`read_trace_set`].
pub fn write_trace_set(w: &mut SnapWriter, ts: &TraceSet) {
    let widths = Widths::of(ts);
    w.reserve(widths.encoded_len(ts, true));
    write_set(w, ts, &widths, true);
}

/// A word table: its count, then its words in id order.
fn write_words(w: &mut SnapWriter, table: &AddrInterner) {
    w.u32(table.len() as u32);
    for &word in table.words() {
        w.u128(word);
    }
}

/// [`write_trace_set`] at the given widths, the word table left out
/// unless `with_table`: a record's set shares its record's. The caller
/// reserves.
fn write_set(w: &mut SnapWriter, ts: &TraceSet, widths: &Widths, with_table: bool) {
    let start = w.buf.len();
    w.str(&ts.vantage);
    w.str(&ts.target_set);
    w.u64(ts.rewritten_dropped);
    if with_table {
        write_words(w, &ts.interner);
    }
    let cols = &ts.cols;
    write_ascending(w, &cols.targets);
    w.u8(widths.base);
    w.u8(widths.bitmap as u8);
    match (widths.id, widths.bitmap) {
        (1, 0..=8) => write_hops::<1, 1>(w, cols, widths),
        (2, 0..=8) => write_hops::<2, 1>(w, cols, widths),
        (3, 0..=8) => write_hops::<3, 1>(w, cols, widths),
        (_, 0..=8) => write_hops::<4, 1>(w, cols, widths),
        (1, _) => write_hops::<1, 4>(w, cols, widths),
        (2, _) => write_hops::<2, 4>(w, cols, widths),
        (3, _) => write_hops::<3, 4>(w, cols, widths),
        _ => write_hops::<4, 4>(w, cols, widths),
    }
    w.u8(widths.unreach_len as u8);
    write_packed(w, widths.unreach_len, trace_lens(&cols.unreach_ends));
    for &reached_at in &cols.reached {
        match reached_at {
            Some(at) => {
                w.u8(1);
                w.u8(at);
            }
            None => w.u8(0),
        }
    }
    w.u32(cols.unreach_ids.len() as u32);
    w.raw(&cols.unreach_ttls);
    write_packed(w, widths.id, cols.unreach_ids.iter().copied());
    debug_assert_eq!(
        w.buf.len() - start,
        widths.encoded_len(ts, with_table),
        "the encoded length is exact"
    );
}

/// Appends the two bitmap columns, answered then repeats, one bitmap of
/// `widths.bitmap` bytes a trace in each, and after them every hop id no
/// repeat bit spells, `W` bytes each. One walk of each trace's cells
/// below where its path leaves the previous trace's ([`RepeatWalk`])
/// fills the region in place, each trace's bitmaps in `WORDS` words (one
/// while the window is at most 64 hop limits).
fn write_hops<const W: usize, const WORDS: usize>(
    w: &mut SnapWriter,
    cols: &Columns,
    widths: &Widths,
) {
    let (base, width) = (widths.base, widths.bitmap);
    let column = cols.targets.len() * width;
    let at = w.buf.len();
    let end = at + 2 * column + W * widths.stored;
    // Each id is written whole and kept unless it repeats, which needs
    // `W` bytes of slack past the last: the set's unreachable width byte
    // and cell count follow, so the reservation holds them.
    w.buf.resize(end + W, 0);
    let buf = &mut w.buf;
    let mut pos = at + 2 * column;
    let mut walk = RepeatWalk::<WORDS>::new(base);
    for (idx, &leaf) in cols.leaves.iter().enumerate() {
        let [answered, repeats] = walk.step(&cols.nodes, leaf, |_, id, repeat| {
            buf[pos..pos + W].copy_from_slice(&id.to_le_bytes()[..W]);
            pos += W * usize::from(!repeat);
        });
        let row = at + idx * width;
        for j in 0..width {
            let shift = 8 * (j % 8);
            buf[row + j] = (answered[j / 8] >> shift) as u8;
            buf[row + column + j] = (repeats[j / 8] >> shift) as u8;
        }
    }
    debug_assert_eq!(pos, end, "every stored id is written");
    buf.truncate(end);
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

/// Reads `n` ids at the width `n_words` implies. An id the interner's
/// `n_words` cannot resolve is a `BadValue(what)`.
fn read_ids(
    r: &mut SnapReader<'_>,
    n: usize,
    n_words: usize,
    what: &'static str,
) -> Result<Vec<u32>, SnapshotError> {
    let ids = read_packed(r, n, id_width(n_words))?;
    if ids
        .iter()
        .copied()
        .max()
        .is_some_and(|id| id as usize >= n_words)
    {
        return Err(SnapshotError::BadValue(what));
    }
    Ok(ids)
}

/// Deserializes a [`TraceSet`] written by [`write_trace_set`]. The
/// interner is rebuilt by re-interning the stored word list in order —
/// ids are insertion-order stable, so the result is bit-identical to
/// the original (`PartialEq`, interner ids and all).
///
/// What every set the library builds holds is also what decoding
/// demands, because the views trust it: ids the interner resolves,
/// targets strictly ascending and unreachable lengths that sum to
/// their column's length (each trace's range starts where the previous
/// trace's ends); hop limits ascend within a trace by construction. So
/// does the one spelling of each set: every varint, width and base the
/// minimal one, a repeat bit only on a hop the trace and the previous
/// trace both hold, and never an id a repeat bit would spell. Anything
/// else is a [`SnapshotError::BadValue`].
pub fn read_trace_set(r: &mut SnapReader<'_>) -> Result<TraceSet, SnapshotError> {
    read_set(r, None)
}

/// Serializes a trace record, sets that share one word table (the
/// adaptive loop's record): a `u32` count of sets, then, when there are
/// any, their table once (its length, then its words in id order), then
/// each set in the [`write_trace_set`] layout without its table. Reserves once: the
/// record's exact length and `room_after` bytes more, for what the
/// caller writes next. Panics if a set reads another table than the
/// first set's. Inverse of [`read_trace_record`].
pub fn write_trace_record<'a>(
    w: &mut SnapWriter,
    sets: impl IntoIterator<Item = &'a TraceSet>,
    room_after: usize,
) {
    let sized: Vec<_> = sets.into_iter().map(|ts| (ts, Widths::of(ts))).collect();
    let table = sized.first().map(|(ts, _)| &ts.interner);
    assert!(
        sized
            .iter()
            .all(|(ts, _)| table.is_some_and(|t| Arc::ptr_eq(t, &ts.interner))),
        "every set of a trace record shares one table"
    );
    let table_bytes = table.map_or(0, |t| 4 + 16 * t.len());
    let set_bytes: usize = sized.iter().map(|(ts, wd)| wd.encoded_len(ts, false)).sum();
    w.reserve(4 + table_bytes + set_bytes + room_after);
    w.u32(sized.len() as u32);
    if let Some(table) = table {
        write_words(w, table);
    }
    for (ts, widths) in &sized {
        write_set(w, ts, widths, false);
    }
}

/// Deserializes what [`write_trace_record`] wrote: one table, which
/// every set shares, its ids resolving in it. A repeated word or an id
/// at or past the table's length is a [`SnapshotError::BadValue`]; each
/// set is checked as [`read_trace_set`] checks one.
pub fn read_trace_record(r: &mut SnapReader<'_>) -> Result<Vec<TraceSet>, SnapshotError> {
    let n = r.u32()? as usize;
    // Not reserved from `n`, which came out of the input.
    let mut sets = Vec::new();
    if n > 0 {
        let table = Arc::new(read_words(r)?);
        for _ in 0..n {
            sets.push(read_set(r, Some(&table))?);
        }
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

/// Reads `n` addresses written as [`target_steps`]: strictly ascending,
/// else `"target order"`.
fn read_targets(r: &mut SnapReader<'_>, n: usize) -> Result<Vec<Ipv6Addr>, SnapshotError> {
    let mut targets = Vec::with_capacity(n);
    let (mut hi, mut lo) = (0u64, 0u64);
    for k in 0..n {
        let (step, x) = (r.varint()?, r.varint()?);
        let next = hi.checked_add(step);
        let ascends = k == 0 || step > 0 || lo ^ x > lo;
        let Some(next) = next.filter(|_| ascends) else {
            return Err(SnapshotError::BadValue("target order"));
        };
        (hi, lo) = (next, lo ^ x);
        targets.push(Ipv6Addr::from(u128::from(hi) << 64 | u128::from(lo)));
    }
    Ok(targets)
}

/// A set's hop cells as read back: each trace's leaf, the node table,
/// and their shape.
struct Hops {
    leaves: Vec<u32>,
    nodes: Vec<PathNode>,
    shape: HopShape,
}

/// The hop cells of `n` traces as read back: the window and both
/// bitmap columns, checked for their one spelling, then the ids no
/// repeat bit spells. The cells go into a [`PathBuilder`], whose finger
/// finds a repeated prefix on the previous trace's path.
fn read_hops(r: &mut SnapReader<'_>, n: usize, n_words: usize) -> Result<Hops, SnapshotError> {
    let bad = |what| Err(SnapshotError::BadValue(what));
    let base = r.u8()?;
    let width = usize::from(r.u8()?);
    if width > MAX_BITMAP {
        return bad("hop limit width");
    }
    // `n` is bounded by the input, and `width` by 32.
    let answered = r.take(n * width)?;
    let repeats = r.take(n * width)?;
    // The window is the minimal one: the union of the bitmaps starts at
    // bit 0 and ends in the last byte; no bit passes hop limit 255.
    let mut union = [0u8; MAX_BITMAP];
    for row in answered.chunks_exact(width.max(1)) {
        for (u, b) in union.iter_mut().zip(row) {
            *u |= b;
        }
    }
    let union = &union[..width];
    let lowest =
        (union.iter().position(|&u| u != 0)).map(|j| 8 * j + union[j].trailing_zeros() as usize);
    let highest = (union.iter().rposition(|&u| u != 0))
        .map(|j| 8 * j + 7 - union[j].leading_zeros() as usize);
    match (lowest, highest) {
        (None, _) if width > 0 => return bad("hop limit width"),
        (None, _) if base > 0 => return bad("hop limit base"),
        (Some(lo), _) if lo > 0 => return bad("hop limit base"),
        (_, Some(hi)) if hi / 8 + 1 != width => return bad("hop limit width"),
        (_, Some(hi)) if usize::from(base) + hi > 255 => return bad("hop limit past 255"),
        _ => {}
    }
    // A repeat bit sits on a hop of its own trace and of the previous
    // trace: the first trace has none.
    if repeats.iter().zip(answered).any(|(rep, a)| rep & !a != 0) {
        return bad("hop repeat bit without a hop");
    }
    let (first, rest) = repeats.split_at(width.min(repeats.len()));
    if first.iter().any(|&rep| rep != 0) || rest.iter().zip(answered).any(|(rep, a)| rep & !a != 0)
    {
        return bad("hop repeat bit without a previous hop");
    }
    let cells: usize = answered.iter().map(|a| a.count_ones() as usize).sum();
    let stored: usize = answered
        .iter()
        .zip(repeats)
        .map(|(a, rep)| (a & !rep).count_ones() as usize)
        .sum();
    // Nodes are at most cells, so every node number stays below `ROOT`.
    if cells > u32::MAX as usize {
        return bad("trace hop lengths past u32");
    }
    let stored_ids = read_ids(r, stored, n_words, "hop interner id")?;
    let mut leaves = Vec::with_capacity(n);
    let mut tree = PathBuilder::default();
    // The id each hop limit last had: the previous trace's wherever it
    // answered, which is wherever a repeat bit may sit.
    let mut last = [0u32; 256];
    // The next stored id, and whether an id was written where a repeat
    // bit spells it.
    let (mut k, mut spelled) = (0, false);
    // Word `w` of a bitmap row, little-endian.
    let word = |row: &[u8], w: usize| {
        let bytes = &row[(8 * w).min(row.len())..(8 * w + 8).min(row.len())];
        bytes.iter().rev().fold(0u64, |v, &b| v << 8 | u64::from(b))
    };
    for idx in 0..n {
        let row = idx * width;
        let (answered_row, repeat_row) = (&answered[row..row + width], &repeats[row..row + width]);
        let had_row = if idx > 0 {
            &answered[row - width..row]
        } else {
            &[][..]
        };
        for w in 0..width.div_ceil(8) {
            let (mut a, rep, had) = (word(answered_row, w), word(repeat_row, w), word(had_row, w));
            while a != 0 {
                let b = a.trailing_zeros() as usize;
                a &= a - 1;
                // Below 256, and base + rel at most 255: the window check
                // bounds every bit.
                let rel = 64 * w + b;
                // Without a branch, as the writer: the next stored id, or
                // the previous trace's where the repeat bit is set.
                let repeat = rep >> b & 1 == 1;
                let stored = stored_ids.get(k).copied().unwrap_or(0);
                let prev = last[rel];
                spelled |= (had >> b & 1 == 1) & !repeat & (prev == stored);
                let id = if repeat { prev } else { stored };
                k += usize::from(!repeat);
                last[rel] = id;
                tree.push(base + rel as u8, id);
            }
        }
        leaves.push(tree.end());
    }
    if spelled {
        return bad("hop id a repeat bit spells");
    }
    Ok(Hops {
        leaves,
        nodes: tree.finish(),
        shape: HopShape {
            stored,
            window: highest.map(|hi| (base, base + hi as u8)),
        },
    })
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
    let n_targets = r.count(LEAST_TRACE_BYTES)?;
    let targets = read_targets(r, n_targets)?;
    let hops = read_hops(r, n_targets, n_words)?;
    // The unreachable lengths are decoded in place into the end column:
    // each trace's end is the sum of its length and the lengths before
    // it, and a sum past `u32` is refused rather than wrapped. Ends
    // built so never decrease, so the ranges tile their columns once
    // the last end is the column's length.
    let width = usize::from(r.u8()?);
    if !(1..=4).contains(&width) {
        return Err(SnapshotError::BadValue("unreach length width"));
    }
    let mut unreach_ends = read_packed(r, n_targets, width)?;
    if width != width_of(unreach_ends.iter().copied().max().unwrap_or(0)) {
        return Err(SnapshotError::BadValue("unreach length width"));
    }
    let mut unreach_end = 0u32;
    let mut reached = Vec::with_capacity(n_targets);
    for end in &mut unreach_ends {
        reached.push(match r.u8()? {
            0 => None,
            1 => Some(r.u8()?),
            _ => return Err(SnapshotError::BadValue("reached_at tag")),
        });
        unreach_end = unreach_end
            .checked_add(*end)
            .ok_or(SnapshotError::BadValue("trace unreach lengths past u32"))?;
        *end = unreach_end;
    }
    let n_unreach = r.count(1 + id_width(n_words))?;
    let unreach_ttls = r.take(n_unreach)?.to_vec();
    let unreach_ids = read_ids(r, n_unreach, n_words, "unreach interner id")?;
    if unreach_end as usize != n_unreach {
        return Err(SnapshotError::BadValue("trace unreach range"));
    }
    Ok(TraceSet {
        vantage,
        target_set,
        rewritten_dropped,
        interner,
        cols: Arc::new(Columns {
            targets,
            leaves: hops.leaves,
            unreach_ends,
            reached,
            nodes: hops.nodes,
            unreach_ttls,
            unreach_ids,
            hop_shape: Memo::of(hops.shape),
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
/// other versions rather than guessing. Version 6 writes a set by its
/// redundancy (varint target steps, hop-limit bitmaps, repeat bits in
/// place of the ids they spell); 5 was the same one file over 16-byte
/// targets, a hop length column, a hop limit byte a cell and every hop
/// id; 4 was a directory of a manifest, a word-table segment and a
/// segment per shard; 3 had per-trace provenance lists; 2 gave each
/// shard segment its own word table; 1 had 4-byte ids and offsets.
pub(crate) const STORE_VERSION: u32 = 6;

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
        let widths = Widths::of(ts);
        w.reserve(4 + widths.encoded_len(ts, true) + 8);
        w.u32(n_shards);
        write_set(w, ts, &widths, true);
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
    use crate::shard::ShardRoute;
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

    fn bad<T>(what: &'static str) -> Result<T, SnapshotError> {
        Err(SnapshotError::BadValue(what))
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

    /// `v` in LEB128, spelled out: seven bits a byte, low first.
    fn leb128(mut v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        loop {
            let low = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(low);
                return out;
            }
            out.push(low | 0x80);
        }
    }

    /// One trace's `(ttl, id)` hop cells, ascending, and its
    /// unreachable cells.
    type RawTrace<'a> = (&'a [(u8, u32)], &'a [(u8, u32)]);

    /// A trace with no cells.
    const NO_CELLS: RawTrace<'static> = (&[], &[]);

    /// A set written field by field, so a test can state what the
    /// library never builds: [`Raw::of`] spells a set the way the
    /// layout says, a test edits a field, and [`Raw::bytes`] writes it.
    /// No trace is reached, and the word table is `n_words` words.
    #[derive(Clone, Debug)]
    struct Raw {
        n_words: u32,
        n: u32,
        /// The target column after its count, two varints a target.
        targets: Vec<u8>,
        base: u8,
        width: u8,
        answered: Vec<u8>,
        repeats: Vec<u8>,
        /// The hop ids no repeat bit spells, at the width `n_words`
        /// implies.
        ids: Vec<u32>,
        unreach_width: u8,
        unreach_lens: Vec<u32>,
        unreach: Vec<(u8, u32)>,
    }

    impl Raw {
        /// A set of `traces` toward `2001:db8::` + their index.
        fn of(n_words: u32, traces: &[RawTrace<'_>]) -> Raw {
            let ttls = || traces.iter().flat_map(|t| t.0.iter().map(|&(ttl, _)| ttl));
            let (base, width) = match (ttls().min(), ttls().max()) {
                (Some(lo), Some(hi)) => (lo, (hi - lo) / 8 + 1),
                _ => (0, 0),
            };
            let w = usize::from(width);
            let unreach_lens: Vec<u32> = traces.iter().map(|t| t.1.len() as u32).collect();
            let mut raw = Raw {
                n_words,
                n: traces.len() as u32,
                targets: Vec::new(),
                base,
                width,
                answered: vec![0; traces.len() * w],
                repeats: vec![0; traces.len() * w],
                ids: Vec::new(),
                unreach_width: min_width(unreach_lens.iter().copied().max().unwrap_or(0)),
                unreach_lens,
                unreach: traces.iter().flat_map(|t| t.1.iter().copied()).collect(),
            };
            let targets: Vec<u128> = (0..traces.len() as u128)
                .map(|i| 0x2001_0db8 << 96 | i)
                .collect();
            raw.set_targets(&targets);
            for (k, (hops, _)) in traces.iter().enumerate() {
                for &(ttl, id) in *hops {
                    let bit = usize::from(ttl - base);
                    let (at, mask) = (k * w + bit / 8, 1 << (bit % 8));
                    raw.answered[at] |= mask;
                    if k > 0 && traces[k - 1].0.contains(&(ttl, id)) {
                        raw.repeats[at] |= mask;
                    } else {
                        raw.ids.push(id);
                    }
                }
            }
            raw
        }

        /// Spells `words` as the target column: per target, its high
        /// half's step and its low half xor the previous target's.
        fn set_targets(&mut self, words: &[u128]) {
            self.targets.clear();
            let mut prev = 0u128;
            for &word in words {
                let step = ((word >> 64) - (prev >> 64)) as u64;
                self.targets.extend(leb128(step));
                self.targets.extend(leb128((word ^ prev) as u64));
                prev = word;
            }
        }

        fn write(&self, w: &mut SnapWriter, with_table: bool) {
            w.str("v");
            w.str("t");
            w.u64(0);
            if with_table {
                w.u32(self.n_words);
                for i in 0..self.n_words {
                    w.u128(0xa + u128::from(i));
                }
            }
            w.u32(self.n);
            w.raw(&self.targets);
            w.u8(self.base);
            w.u8(self.width);
            w.raw(&self.answered);
            w.raw(&self.repeats);
            let id_width = usize::from(min_width(self.n_words.saturating_sub(1)));
            for id in &self.ids {
                w.raw(&id.to_le_bytes()[..id_width]);
            }
            w.u8(self.unreach_width);
            for len in &self.unreach_lens {
                w.raw(&len.to_le_bytes()[..usize::from(self.unreach_width).min(4)]);
            }
            (0..self.n).for_each(|_| w.u8(0)); // not reached
            w.u32(self.unreach.len() as u32);
            self.unreach.iter().for_each(|&(ttl, _)| w.u8(ttl));
            for &(_, id) in &self.unreach {
                w.raw(&id.to_le_bytes()[..id_width]);
            }
        }

        fn bytes(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            self.write(&mut w, true);
            w.into_bytes()
        }

        fn decode(&self) -> Result<TraceSet, SnapshotError> {
            decode(&self.bytes())
        }

        /// Decodes, and checks the set re-encodes to the same bytes at
        /// the exact length.
        fn round_trip(&self) -> TraceSet {
            let bytes = self.bytes();
            let ts = decode(&bytes).unwrap();
            assert_eq!(encode(&ts), bytes, "{self:?}");
            assert_eq!(trace_set_encoded_len(&ts), bytes.len());
            ts
        }
    }

    #[test]
    fn corrupt_ids_are_rejected() {
        // An empty interner resolves no id: a hop cell naming id 0.
        assert_eq!(
            Raw::of(0, &[(&[(1, 0)], &[])]).decode(),
            bad("hop interner id")
        );
        // At ids of 1, 2 and 3 bytes, the largest id the word count
        // allows decodes, and every larger id the width can spell is
        // refused, in either column. At 256 and 65 536 words no larger
        // id fits the width.
        for n_words in [1, 255, 256, 257, 65_536, 65_537] {
            let width = min_width(n_words - 1);
            let set = |hop: u32, unreach: u32| Raw::of(n_words, &[(&[(1, hop)], &[(1, unreach)])]);
            set(n_words - 1, 0).round_trip();
            set(0, n_words - 1).round_trip();
            let widest = u32::MAX >> (32 - 8 * u32::from(width));
            for id in [n_words, widest] {
                if (n_words..=widest).contains(&id) {
                    let (hop, unreach) = (set(id, 0).decode(), set(0, id).decode());
                    assert_eq!(hop, bad("hop interner id"), "{n_words} words");
                    assert_eq!(unreach, bad("unreach interner id"), "{n_words} words");
                }
            }
        }
        // 4-byte ids need over 2^24 words, so their column reader is
        // called on its own.
        let n_words = (1 << 24) + 1;
        assert_eq!(id_width(n_words), 4);
        let read = |id: u32| read_ids(&mut SnapReader::new(&id.to_le_bytes()), 1, n_words, "id");
        assert_eq!(read(1 << 24), Ok(vec![1 << 24]));
        assert_eq!(read((1 << 24) + 1), bad("id"));
        assert_eq!(read(u32::MAX), bad("id"));
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
            // One trace: hops at limits 0.. ascending, as many
            // unreachable cells. Either way every hop limit's bit fits
            // the widest bitmap.
            let cells: Vec<(u8, u32)> = (0..n).map(|ttl| (ttl as u8, 0)).collect();
            let raw = Raw::of(1, &[(&cells, &cells)]);
            assert_eq!((raw.unreach_width, raw.width), (width, 32));
            let ts = raw.round_trip();
            assert_eq!(ts.view_at(0).hop_cells().len(), n as usize);
            assert_eq!(ts.view_at(0).unreachable_cells().len(), n as usize);
        }
        // 65 536 cells take a third byte.
        let cells = vec![(1, 0); 1 << 16];
        let raw = Raw::of(1, &[(&[], &cells)]);
        assert_eq!(raw.unreach_width, 3);
        raw.round_trip();
    }

    #[test]
    fn a_length_width_that_is_not_minimal_is_refused() {
        let cells = [(1, 0), (2, 0)];
        let raw = Raw::of(1, &[(&cells, &cells[..1]), (&[], &cells[1..])]);
        raw.round_trip();
        for wider in 2..=4 {
            let edited = Raw {
                unreach_width: wider,
                ..raw.clone()
            };
            assert_eq!(edited.decode(), bad("unreach length width"));
        }
        // 255 fits one byte, so two is not minimal.
        let long: Vec<(u8, u32)> = (0..255).map(|ttl| (ttl, 0)).collect();
        let raw = Raw::of(1, &[(&[], &long)]);
        raw.round_trip();
        let two = Raw {
            unreach_width: 2,
            ..raw
        };
        assert_eq!(two.decode(), bad("unreach length width"));
        // With no traces the width is still one byte.
        let empty = Raw::of(1, &[]);
        empty.round_trip();
        let two = Raw {
            unreach_width: 2,
            ..empty
        };
        assert_eq!(two.decode(), bad("unreach length width"));
    }

    #[test]
    fn a_length_width_of_0_or_5_is_refused() {
        let cells = [(1, 0), (2, 0)];
        let raw = Raw::of(1, &[(&cells, &cells[..1]), (&[], &cells[1..])]);
        for width in [0, 5, 255] {
            let edited = Raw {
                unreach_width: width,
                ..raw.clone()
            };
            assert_eq!(edited.decode(), bad("unreach length width"), "{width}");
        }
    }

    #[test]
    fn a_hop_limit_window_that_is_not_minimal_is_refused() {
        // Hops at 3 and 12: base 3, and bit 9 is in the second byte.
        let raw = Raw::of(1, &[(&[(3, 0), (12, 0)], &[]), (&[(5, 0)], &[])]);
        assert_eq!(
            (raw.base, raw.width, &raw.answered[..]),
            (3, 2, &[1, 2, 4, 0][..])
        );
        raw.round_trip();
        // The same hops from base 2: no hop at bit 0.
        let mut low = raw.clone();
        low.base = 2;
        low.answered = vec![2, 4, 8, 0];
        assert_eq!(low.decode(), bad("hop limit base"));
        // A third byte no hop reaches, and a width past 32 bytes.
        for (width, rows) in [(3, vec![1, 2, 0, 4, 0, 0]), (33, vec![0; 66])] {
            let wide = Raw {
                width,
                repeats: vec![0; rows.len()],
                answered: rows,
                ..raw.clone()
            };
            assert_eq!(wide.decode(), bad("hop limit width"), "{width}");
        }
        // Without hops the window is base 0 and no bitmap at all.
        let none = Raw::of(1, &[(&[], &[(1, 0)])]);
        assert_eq!((none.base, none.width), (0, 0));
        none.round_trip();
        let based = Raw {
            base: 1,
            ..none.clone()
        };
        assert_eq!(based.decode(), bad("hop limit base"));
        let empty_rows = Raw {
            width: 1,
            answered: vec![0],
            repeats: vec![0],
            ..none
        };
        assert_eq!(empty_rows.decode(), bad("hop limit width"));
        // Hop limit 255 is the last a bit can name.
        let top = Raw::of(1, &[(&[(248, 0), (255, 0)], &[])]);
        assert_eq!((top.base, top.width), (248, 1));
        top.round_trip();
        let past = Raw { base: 249, ..top };
        assert_eq!(past.decode(), bad("hop limit past 255"));
    }

    #[test]
    fn repeat_bits_have_one_spelling() {
        // The second trace repeats the first's hop at 1 and not its hop
        // at 2, whose id differs; the third repeats both of the second's
        // and adds one.
        let (a, b) = ([(1, 0), (2, 1)], [(1, 0), (2, 2)]);
        let c = [(1, 0), (2, 2), (3, 3)];
        let raw = Raw::of(4, &[(&a, &[]), (&b, &[]), (&c, &[])]);
        assert_eq!(raw.repeats, [0, 1, 3]);
        assert_eq!(raw.ids, [0, 1, 2, 3]);
        let ts = raw.round_trip();
        let hops = |idx: usize| ts.view_at(idx).hop_cells().iter().collect::<Vec<_>>();
        assert_eq!(
            (hops(0), hops(1), hops(2)),
            (a.to_vec(), b.to_vec(), c.to_vec())
        );
        let edit = |f: fn(&mut Raw)| {
            let mut edited = raw.clone();
            f(&mut edited);
            edited.decode()
        };
        // A repeat bit on a hop the trace does not hold.
        assert_eq!(
            edit(|r| r.repeats[1] |= 4),
            bad("hop repeat bit without a hop")
        );
        // On a hop the previous trace does not hold: the third trace's
        // hop at 3, and any hop of the first trace.
        assert_eq!(
            edit(|r| r.repeats[2] |= 4),
            bad("hop repeat bit without a previous hop")
        );
        assert_eq!(
            edit(|r| r.repeats[0] |= 1),
            bad("hop repeat bit without a previous hop")
        );
        // The second trace's hop at 1 written out where a repeat bit
        // spells it.
        assert_eq!(
            edit(|r| {
                r.repeats[1] = 0;
                r.ids.insert(2, 0);
            }),
            bad("hop id a repeat bit spells")
        );
        // A repeat bit where the id differs is another set: the second
        // trace's hop at 2 becomes the first's, id 1.
        let other = edit(|r| {
            r.repeats[1] = 3;
            r.ids.remove(2);
        })
        .unwrap();
        assert_eq!(other.view_at(1).hop_cells().iter().nth(1), Some((2, 1)));
    }

    #[test]
    fn varints_are_spelled_one_way() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX >> 1, u64::MAX] {
            let mut w = SnapWriter::new();
            w.varint(v);
            assert_eq!(w.bytes(), leb128(v), "{v}");
            assert_eq!(varint_len(v), w.bytes().len(), "{v}");
            let mut r = SnapReader::new(w.bytes());
            assert_eq!(r.varint(), Ok(v));
            assert_eq!(r.remaining(), 0);
        }
        let read = |bytes: &[u8]| SnapReader::new(bytes).varint();
        assert_eq!(read(&[0x80, 0x00]), bad("overlong varint"));
        assert_eq!(read(&[0xff, 0x80, 0x00]), bad("overlong varint"));
        let mut ten = [0xff; 10];
        ten[9] = 0x01;
        assert_eq!(read(&ten), Ok(u64::MAX));
        ten[9] = 0x02;
        assert_eq!(read(&ten), bad("varint past 64 bits"));
        ten[9] = 0x81;
        assert_eq!(read(&ten), bad("varint past 64 bits"));
        assert_eq!(read(&[0x80]), Err(SnapshotError::Truncated));
        // In a target column: both halves several bytes long, then each
        // half spelled with a byte too many.
        let words = [
            0x2001_0db8_0000_0000_0000_0000_0000_0fff,
            0x2001_0db8_0000_0080_8000_0000_0000_0fff,
            0x2001_0db8_4000_0080_8000_0000_0000_0001,
        ];
        let mut raw = Raw::of(1, &[NO_CELLS; 3]);
        raw.set_targets(&words);
        let ts = raw.round_trip();
        let targets: Vec<u128> = ts.targets().iter().map(|&t| u128::from(t)).collect();
        assert_eq!(targets, words);
        let steps = [
            [leb128(0x2001_0db8_0000_0000), leb128(0xfff)],
            [leb128(0x80), leb128(0x8000_0000_0000_0000)],
            [leb128(0x4000_0000), leb128(0xffe)],
        ];
        assert!(steps.iter().flatten().all(|v| v.len() > 1));
        assert_eq!(raw.targets, steps.concat().concat());
        for half in 0..2 {
            let mut overlong = steps.clone();
            let last = overlong[2][half].len() - 1;
            overlong[2][half][last] |= 0x80;
            overlong[2][half].push(0);
            raw.targets = overlong.concat().concat();
            assert_eq!(raw.decode(), bad("overlong varint"), "half {half}");
        }
    }

    #[test]
    fn targets_decode_strictly_ascending() {
        let mut raw = Raw::of(1, &[NO_CELLS; 2]);
        let order = |raw: &Raw| raw.decode().err();
        let bad = Some(SnapshotError::BadValue("target order"));
        // The first target may be `::`, against the zero it starts from.
        raw.targets = [0, 0, 0, 1].to_vec();
        raw.round_trip();
        // A step of zero whose low half does not rise: equal, then lower.
        raw.targets = [0, 5, 0, 0].to_vec();
        assert_eq!(order(&raw), bad);
        raw.targets = [0, 5, 0, 1].to_vec();
        assert_eq!(order(&raw), bad);
        // A high half stepped past 2^64 wraps nowhere.
        raw.targets = [1, 0]
            .into_iter()
            .chain(leb128(u64::MAX))
            .chain([0])
            .collect();
        assert_eq!(order(&raw), bad);
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
                w.u8(0); // hop limit base
                w.u8(0); // hop limit width
                w.u8(1); // unreach length width
                w.u32(u32::MAX); // unreachable cells
            },
        ];
        let set = |counts: fn(&mut SnapWriter)| {
            let mut w = SnapWriter::new();
            w.str("v");
            w.str("t");
            w.u64(0);
            counts(&mut w);
            w.raw(&[0; 64]);
            read_trace_set(&mut SnapReader::new(w.bytes()))
        };
        for counts in cases {
            assert_eq!(set(counts), Err(SnapshotError::Truncated));
        }
        // A trace is at least four bytes: 64 hold 16 traces, not 17.
        let targets: [fn(&mut SnapWriter); 2] = [
            |w| {
                w.u32(0);
                w.u32(17);
            },
            |w| {
                w.u32(0);
                w.u32(16);
            },
        ];
        assert_eq!(set(targets[0]), Err(SnapshotError::Truncated));
        assert_eq!(set(targets[1]), bad("target order"));
    }

    #[test]
    fn corrupt_trace_metadata_is_rejected() {
        let read = |ts: &TraceSet| decode(&encode(ts));
        // `sample`: two traces, of two hops and of one, no unreachables.
        fn cols(ts: &mut TraceSet) -> &mut Columns {
            Arc::make_mut(&mut ts.cols)
        }
        type Corrupt = fn(&mut TraceSet);
        let cases: [(Corrupt, &str); 2] = [
            (|ts| cols(ts).unreach_ends[1] += 1, "trace unreach range"),
            (|ts| cols(ts).targets.swap(0, 1), "target order"),
        ];
        for (corrupt, what) in cases {
            let mut ts = sample();
            corrupt(&mut ts);
            assert_eq!(read(&ts), bad(what));
        }
        // Lengths whose sum passes u32 have no ends to hold them, so
        // only the bytes can spell them: a first trace of u32::MAX
        // unreachable cells.
        let mut raw = Raw::of(1, &[(&[], &[(1, 0)]), (&[], &[])]);
        raw.unreach_width = 4;
        raw.unreach_lens = vec![u32::MAX, 1];
        assert_eq!(raw.decode(), bad("trace unreach lengths past u32"));
        // The last trace's ranges end exactly at their columns' ends.
        let ts = sample();
        ts.assert_tiled();
        assert_eq!(read(&ts), Ok(ts));
    }

    #[test]
    fn hop_ttls_ascend_within_a_trace_by_construction() {
        // Two two-hop traces. Ascending within each, in any order across
        // them.
        let raw = Raw::of(1, &[(&[(3, 0), (5, 0)], &[]), (&[(1, 0), (2, 0)], &[])]);
        let ts = raw.round_trip();
        let ttls = |ts: &TraceSet| -> Vec<u8> {
            let cells = ts.view_at(0).hop_cells();
            cells.iter().map(|(ttl, _)| ttl).collect()
        };
        assert_eq!(ttls(&ts), [3, 5]);
        assert_eq!(ts.view_at(0).hop_vec().len(), 5);
        assert_eq!(ts.view_at(0).path_len(), Some(5));
        // Every one-byte bitmap of a minimal window (bits 0 and 7 set)
        // reads as its bits' hop limits, ascending.
        for bits in (0..=255u8).filter(|b| b & 0x81 == 0x81) {
            let one = Raw {
                n: 1,
                targets: vec![0, 1],
                base: 10,
                width: 1,
                answered: vec![bits],
                repeats: vec![0],
                ids: vec![0; bits.count_ones() as usize],
                unreach_lens: vec![0],
                ..Raw::of(1, &[])
            };
            let ts = one.round_trip();
            let want: Vec<u8> = (0..8)
                .filter(|b| bits >> b & 1 == 1)
                .map(|b| 10 + b)
                .collect();
            assert_eq!(ttls(&ts), want, "{bits:#010b}");
        }
        // Unreachable cells keep record order: any TTLs go.
        let ts = Raw::of(1, &[(&[], &[(9, 0), (5, 0)])]).round_trip();
        assert_eq!(ts.view_at(0).unreachable_cells().ttls(), [9, 5]);
    }

    #[test]
    fn cell_ranges_that_do_not_tile_their_column_are_rejected() {
        // Hop ranges are the bitmaps' popcounts and tile by
        // construction. Unreachable ends are the running sums of the
        // lengths, so two ways are left to break their tiling: lengths
        // that do not sum to the column's length, and a sum past u32.
        let cells = [(1, 0), (2, 0), (3, 0)];
        let raw = Raw::of(1, &[(&cells[..1], &cells[..1]), (&cells[1..], &cells[1..])]);
        raw.round_trip();
        let cases: [([u32; 2], &str); 3] = [
            // A cell no trace owns, a trace past the column's end.
            ([1, 1], "trace unreach range"),
            ([2, 2], "trace unreach range"),
            ([1, u32::MAX], "trace unreach lengths past u32"),
        ];
        for (lens, what) in cases {
            let edited = Raw {
                unreach_width: min_width(lens[0].max(lens[1])),
                unreach_lens: lens.to_vec(),
                ..raw.clone()
            };
            assert_eq!(edited.decode(), bad(what), "{lens:?}");
        }
    }

    #[test]
    fn every_shard_of_a_store_shares_one_table() {
        // A store's traces split by its route, each shard a set of its
        // own, rebased onto one table: the stores made of them merge
        // into a store on that table, written and read back whole.
        let route = ShardRoute::new(4);
        let records: Vec<_> = (0..8)
            .map(|p| {
                let hop = format!("::{}", 10 + p % 3);
                let te = ResponseKind::TimeExceeded;
                rec(&format!("2001:db8:{p}::1"), &hop, te, Some(1))
            })
            .collect();
        let mut shards: Vec<TraceSet> = (0..4)
            .map(|s| {
                TraceSet::from_log(&ProbeLog {
                    vantage: "V".into(),
                    target_set: "snap".into(),
                    records: records
                        .iter()
                        .filter(|r| route.shard_of(r.target) == s)
                        .cloned()
                        .collect(),
                    ..Default::default()
                })
            })
            .collect();
        assert!(shards.iter().filter(|s| !s.is_empty()).count() > 1);
        TraceSet::rebase(&mut Arc::default(), &mut shards);
        let stores: Vec<_> = shards
            .iter()
            .map(|s| ShardedTraceSet::from_set(s, 4))
            .collect();
        let merged = ShardedTraceSet::merge_all(&stores);
        assert!(Arc::ptr_eq(&merged.set.interner, &shards[0].interner));
        let dir = std::env::temp_dir().join(format!("beholder-one-table-{}", std::process::id()));
        write_sharded_snapshot(&dir, &merged).unwrap();
        let back = read_sharded_snapshot(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(back.unwrap(), merged);
    }

    /// A loop's record: `sample`, and two one-trace sets, the last of
    /// which adds a word, all three on one table.
    fn record() -> Vec<TraceSet> {
        let set = |target: &str, hop: &str| {
            TraceSet::from_log(&ProbeLog {
                vantage: "V".into(),
                target_set: "record".into(),
                records: vec![rec(target, hop, ResponseKind::TimeExceeded, Some(1))],
                ..Default::default()
            })
        };
        let mut sets = vec![
            sample(),
            set("2001:db8::5", "::a"),
            set("2001:db8::7", "::d"),
        ];
        TraceSet::rebase(&mut Arc::default(), sets.iter_mut());
        sets
    }

    fn encode_record(sets: &[TraceSet]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        write_trace_record(&mut w, sets, 0);
        w.into_bytes()
    }

    fn decode_record(bytes: &[u8]) -> Result<Vec<TraceSet>, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        let sets = read_trace_record(&mut r)?;
        assert_eq!(r.remaining(), 0);
        Ok(sets)
    }

    #[test]
    fn a_trace_record_writes_its_table_once_and_round_trips() {
        let sets = record();
        let table = &sets[0].interner;
        assert!(sets.iter().all(|s| Arc::ptr_eq(&s.interner, table)) && table.len() == 4);
        let bytes = encode_record(&sets);
        let own: usize = sets
            .iter()
            .map(|s| Widths::of(s).encoded_len(s, false))
            .sum();
        assert_eq!(bytes.len(), own + 4 + 4 + 16 * 4, "a count, four words");
        let back = decode_record(&bytes).unwrap();
        assert_eq!(back, sets);
        assert!(back
            .iter()
            .all(|s| Arc::ptr_eq(&s.interner, &back[0].interner)));
        assert_eq!(encode_record(&back), bytes);
        for cut in 0..bytes.len() {
            assert!(read_trace_record(&mut SnapReader::new(&bytes[..cut])).is_err());
        }
        // No set, no table: the count alone.
        assert_eq!(encode_record(&[]), [0; 4]);
        assert_eq!(decode_record(&[0; 4]), Ok(Vec::new()));
    }

    #[test]
    fn a_decoded_record_holds_no_spare_words() {
        // Three rounds of a loop's record, each round's two sets rebased
        // onto the one table. A table grown word by word would end with
        // spare words at these sizes; the decoder reads it at its length.
        let words = |n: u32, v: u32| 5 + 3 * v + n;
        let mut table = Arc::default();
        let mut sets = Vec::new();
        for n in 0..3 {
            let round: Vec<TraceSet> = (0..2)
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
                        target_set: "record".into(),
                        records,
                        ..Default::default()
                    })
                })
                .collect();
            sets.extend(round);
            TraceSet::rebase(&mut table, sets.iter_mut());
        }
        let back = decode_record(&encode_record(&sets)).unwrap();
        assert_eq!(back, sets);
        assert_eq!(back[0].interner.len(), 45);
        assert_eq!(back[0].interner.spare_words(), 0);
    }

    #[test]
    #[should_panic(expected = "every set of a trace record shares one table")]
    fn sets_on_two_tables_are_not_a_record() {
        let mut sets = record();
        sets.push(sample());
        encode_record(&sets);
    }

    #[test]
    fn corrupt_trace_records_are_refused() {
        // Two sets of one trace each on the table [0xa, 0xb, 0xc], each
        // with the given hop cells.
        let record = |words: [u128; 3], hops: [&[(u8, u32)]; 2]| {
            let mut w = SnapWriter::new();
            w.u32(2);
            w.u32(3);
            words.iter().for_each(|&word| w.u128(word));
            for cells in hops {
                Raw::of(3, &[(cells, &[])]).write(&mut w, false);
            }
            decode_record(&w.into_bytes())
        };
        let sets = record([0xa, 0xb, 0xc], [&[(1, 1)], &[(1, 2)]]).unwrap();
        assert!(Arc::ptr_eq(&sets[0].interner, &sets[1].interner));
        assert_eq!(sets[1].interner.resolve(2), Ipv6Addr::from(0xc));
        let bad = |what| Err(SnapshotError::BadValue(what));
        let repeat = record([0xa, 0xb, 0xa], [&[(1, 1)], &[(1, 2)]]);
        assert_eq!(repeat, bad("duplicate interner word"));
        // Id 3 is past the table, in either set.
        let beyond = record([0xa, 0xb, 0xc], [&[(1, 1)], &[(1, 3)]]);
        assert_eq!(beyond, bad("hop interner id"));
        let beyond = record([0xa, 0xb, 0xc], [&[(1, 3)], &[(1, 2)]]);
        assert_eq!(beyond, bad("hop interner id"));
        // A table longer than the input is truncation.
        let mut long = SnapWriter::new();
        long.u32(1);
        long.u32(1000);
        long.raw(&[0; 64]);
        assert_eq!(decode_record(long.bytes()), Err(SnapshotError::Truncated));
    }

    /// `addrs` as [`write_ascending`] writes them.
    fn ascending_bytes(addrs: &[u128]) -> Vec<u8> {
        let addrs: Vec<Ipv6Addr> = addrs.iter().map(|&a| Ipv6Addr::from(a)).collect();
        let mut w = SnapWriter::new();
        write_ascending(&mut w, &addrs);
        w.into_bytes()
    }

    fn read_ascending_words(bytes: &[u8]) -> Result<Vec<u128>, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        let addrs = read_ascending(&mut r)?;
        assert_eq!(r.remaining(), 0);
        Ok(addrs.into_iter().map(u128::from).collect())
    }

    #[test]
    fn ascending_lists_round_trip_and_refuse_every_other_order() {
        let ones = u128::MAX;
        let db8 = 0x2001_0db8_u128 << 96;
        let lists: [&[u128]; 7] = [
            &[],
            &[db8 | 1],
            &[0],
            &[ones],
            &[0, 1, ones],
            // Equal high halves: every step is in the low half.
            &[db8 | 1, db8 | 2, db8 | 0xffff << 48],
            // A high step of 2^64 - 1.
            &[5, u128::from(u64::MAX) << 64],
        ];
        for list in lists {
            let bytes = ascending_bytes(list);
            let steps = list.iter().scan(0u128, |prev, &a| {
                let (hi, lo) = (((a >> 64) - (*prev >> 64)) as u64, (a ^ *prev) as u64);
                *prev = a;
                Some(varint_len(hi) + varint_len(lo))
            });
            assert_eq!(bytes.len(), 4 + steps.sum::<usize>(), "{list:x?}");
            assert_eq!(read_ascending_words(&bytes).as_deref(), Ok(list));
        }
        assert_eq!(ascending_bytes(&[0]), [1, 0, 0, 0, 0, 0]);
        let high = ascending_bytes(&[u128::from(u64::MAX) << 64]);
        assert_eq!(high[4..], [leb128(u64::MAX), vec![0]].concat());
        let order = bad("target order");
        // A repeat, a descending low half, a descending high half.
        for list in [[db8 | 7, db8 | 7], [db8 | 2, db8 | 1], [db8 | 1 << 64, db8]] {
            assert_eq!(read_ascending_words(&ascending_bytes(&list)), order);
        }
        // An overlong varint in either half.
        let overlong = [[1, 0, 0, 0, 0x80, 0, 0], [1, 0, 0, 0, 0, 0x80, 0]];
        for bytes in overlong {
            assert_eq!(read_ascending_words(&bytes), bad("overlong varint"));
        }
        // At two bytes an address, four bytes hold two, not three.
        let count = |n: u8| [n, 0, 0, 0, 0, 1, 0, 2];
        assert_eq!(read_ascending_words(&count(2)), Ok(vec![1, 3]));
        assert_eq!(
            read_ascending_words(&count(3)),
            Err(SnapshotError::Truncated)
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
