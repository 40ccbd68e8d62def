//! Filesystem battery for the persistent store
//! ([`analysis::snapshot`]), one file per store: byte-determinism of
//! the written file, a faithful round trip, a torn write that leaves
//! the last store readable, and — because a longitudinal store is only
//! as good as its failure modes — loud rejection of truncation, bit
//! rot, version and magic skew, an out-of-range shard count, trailing
//! bytes, a missing file and ids the word table cannot resolve — and a
//! set decoded from edited bytes is one every view can read.

use analysis::snapshot::{
    decode_segment, encode_segment, fnv1a, read_ascending, write_ascending, STORE_FILE,
};
use analysis::{
    read_sharded_snapshot, read_trace_set, write_sharded_snapshot, write_trace_set,
    ShardedTraceSet, SnapReader, SnapWriter, SnapshotError, StoreError, TraceSet, MAX_SHARDS,
};
use proptest::prelude::*;
use std::net::Ipv6Addr;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use v6packet::icmp6::DestUnreachCode;
use yarrp6::{ProbeLog, ResponseKind, ResponseRecord};

/// The store's file name while a write is under way.
const TEMP_FILE: &str = "store.snap.tmp";

/// The bytes before the set: magic, version and shard count.
const HEADER: usize = 12;

/// A unique scratch directory removed on drop, even when the test
/// fails partway.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("beholder-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    /// The store file inside.
    fn file(&self) -> PathBuf {
        self.0.join(STORE_FILE)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A deterministic synthetic store spread over several /64 prefixes so
/// every shard of a small route is non-empty.
fn sample_store(shards: usize) -> ShardedTraceSet {
    ShardedTraceSet::from_set(&TraceSet::from_log(&sample_log(0)), shards)
}

/// [`sample_store`]'s log, every responder address XORed with `salt`.
fn sample_log(salt: u128) -> ProbeLog {
    let mut records = Vec::new();
    let mut x = 0x9e37_79b9u64;
    for i in 0..400u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let prefix = x & 0xf;
        let target = Ipv6Addr::from(
            (0x2001_0db8_u128 << 96) | (prefix as u128) << 64 | (x >> 32 & 0x3f) as u128,
        );
        let responder = (0x2001_0db8_ffff_u128 << 80) | (x >> 16 & 0xff) as u128;
        let responder = Ipv6Addr::from(responder ^ salt);
        let kind = match x % 5 {
            0..=2 => ResponseKind::TimeExceeded,
            3 => ResponseKind::DestUnreachable(DestUnreachCode::NoRoute),
            _ => ResponseKind::EchoReply,
        };
        records.push(ResponseRecord {
            target,
            responder,
            kind,
            probe_ttl: Some((x % 16) as u8 + 1),
            rtt_us: Some(x % 10_000),
            recv_us: i * 10,
            target_cksum_ok: !x.is_multiple_of(97),
        });
    }
    let mut log = ProbeLog {
        vantage: "snapshot-v".into(),
        target_set: "snapshot-s".into(),
        records,
        ..Default::default()
    };
    log.sort_by_recv();
    log
}

fn patch(path: &Path, offset: usize, f: impl FnOnce(&mut u8)) {
    let mut bytes = std::fs::read(path).unwrap();
    f(&mut bytes[offset]);
    std::fs::write(path, bytes).unwrap();
}

/// Rewrites the store file at `path` with its body edited by `edit`
/// and a checksum that vouches for the edit, so what fires is a check
/// behind the checksum.
fn rechecksum(path: &Path, edit: impl FnOnce(&mut Vec<u8>)) {
    let bytes = std::fs::read(path).unwrap();
    let mut body = bytes[..bytes.len() - 8].to_vec();
    edit(&mut body);
    let sum = fnv1a(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    std::fs::write(path, body).unwrap();
}

/// Sets the little-endian `u32` at `at` of the store file at `path` to
/// `v`, re-checksummed: the version at 4, the shard count at 8.
fn set_u32(path: &Path, at: usize, v: u32) {
    rechecksum(path, |b| b[at..at + 4].copy_from_slice(&v.to_le_bytes()));
}

/// Reads the store under `dir`, expecting the decode error `want`.
fn expect_decode(dir: &Path, want: SnapshotError) {
    match read_sharded_snapshot(dir) {
        Err(StoreError::Decode(got)) => assert_eq!(got, want),
        other => panic!("expected {want:?}, got {other:?}"),
    }
}

#[test]
fn round_trip_is_faithful() {
    let dir = TempDir::new("round-trip");
    let store = sample_store(4);
    let manifest = write_sharded_snapshot(dir.path(), &store).unwrap();
    assert_eq!(manifest.n_shards, 4);
    let bytes = std::fs::read(dir.file()).unwrap();
    let tail = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    assert_eq!(manifest.segments.len(), 1, "one file");
    assert_eq!(manifest.segments[0].len, bytes.len() as u64);
    assert_eq!(manifest.segments[0].fnv, tail);
    let back = read_sharded_snapshot(dir.path()).unwrap();
    // Exact: same route, same set, same interner id assignment.
    assert!(back == store, "snapshot round trip diverged");
    assert!(back.to_trace_set().canonical() == store.to_trace_set().canonical());
}

#[test]
fn single_shard_and_empty_stores_round_trip() {
    let dir = TempDir::new("degenerate");
    for (name, store) in [
        ("one", sample_store(1)),
        ("empty", ShardedTraceSet::from_set(&TraceSet::default(), 3)),
    ] {
        let sub = dir.path().join(name);
        write_sharded_snapshot(&sub, &store).unwrap();
        assert!(read_sharded_snapshot(&sub).unwrap() == store);
    }
}

#[test]
fn writes_are_byte_deterministic() {
    let dir = TempDir::new("determinism");
    let store = sample_store(4);
    let (a, b) = (dir.path().join("a"), dir.path().join("b"));
    write_sharded_snapshot(&a, &store).unwrap();
    write_sharded_snapshot(&b, &store).unwrap();
    assert_eq!(
        std::fs::read(a.join(STORE_FILE)).unwrap(),
        std::fs::read(b.join(STORE_FILE)).unwrap(),
        "two writes of the same store differ"
    );
    // A write leaves its one file and nothing beside it.
    let names: Vec<_> = std::fs::read_dir(&a)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, [STORE_FILE]);
}

#[test]
fn truncated_segment_is_rejected_before_decoding() {
    // Every cut is refused: a file shorter than its checksum is
    // truncated, and any longer cut fails the checksum.
    let dir = TempDir::new("truncate");
    write_sharded_snapshot(dir.path(), &sample_store(3)).unwrap();
    let bytes = std::fs::read(dir.file()).unwrap();
    for cut in 0..bytes.len() {
        std::fs::write(dir.file(), &bytes[..cut]).unwrap();
        match read_sharded_snapshot(dir.path()) {
            Err(StoreError::Decode(SnapshotError::Truncated) | StoreError::Corrupt) => {}
            other => panic!("a cut at {cut} of {} read as {other:?}", bytes.len()),
        }
    }
}

#[test]
fn bit_rot_fails_the_checksum() {
    let dir = TempDir::new("bitrot");
    write_sharded_snapshot(dir.path(), &sample_store(3)).unwrap();
    // Flip one bit past the header, in the set, and one in the
    // checksum itself; the length is unchanged, so only the checksum
    // can catch either.
    let len = std::fs::read(dir.file()).unwrap().len();
    for at in [64, len - 1] {
        patch(&dir.file(), at, |b| *b ^= 0x40);
        match read_sharded_snapshot(dir.path()) {
            Err(StoreError::Corrupt) => {}
            other => panic!("expected a flip at {at} corrupt, got {other:?}"),
        }
        patch(&dir.file(), at, |b| *b ^= 0x40);
    }
    assert!(read_sharded_snapshot(dir.path()).unwrap() == sample_store(3));
}

#[test]
fn manifest_version_and_magic_skew_are_rejected() {
    let dir = TempDir::new("skew");
    write_sharded_snapshot(dir.path(), &sample_store(2)).unwrap();
    // Bytes 4..8 are the little-endian store version, 0..4 the magic.
    rechecksum(&dir.file(), |b| b[4] ^= 0xff);
    expect_decode(dir.path(), SnapshotError::BadValue("store version"));
    rechecksum(&dir.file(), |b| b[4] ^= 0xff);
    rechecksum(&dir.file(), |b| b[0] ^= 0xff);
    expect_decode(dir.path(), SnapshotError::BadMagic);
}

#[test]
fn a_standalone_segment_covers_every_address() {
    // Renaming every responder keeps the id pattern, so only the word
    // table tells the two sets apart: a standalone segment, and any
    // digest of one, must carry it.
    let a = TraceSet::from_log(&sample_log(0));
    let b = TraceSet::from_log(&sample_log(1 << 40));
    assert!(a.interner().words() != b.interner().words());
    let (ea, eb) = (encode_segment(&a), encode_segment(&b));
    assert_eq!(ea.len(), eb.len());
    assert!(ea != eb, "two sets apart only in their words encode alike");
    assert!(decode_segment(&ea).unwrap() == a && decode_segment(&eb).unwrap() == b);
}

#[test]
fn older_store_versions_are_refused_by_number() {
    // Version 1 stored 4-byte ids and each trace's offsets; version 2
    // gave every shard segment a word table of its own; version 3 wrote
    // two provenance lists after each set's cells; version 4 was a
    // directory of a manifest, a word-table segment and a segment per
    // shard; version 5 wrote 16-byte targets, a hop length column, a hop
    // limit byte per cell and every hop id. A later version is refused
    // as well.
    let dir = TempDir::new("store-old");
    write_sharded_snapshot(dir.path(), &sample_store(2)).unwrap();
    let set_version = |v| set_u32(&dir.file(), 4, v);
    assert_eq!(std::fs::read(dir.file()).unwrap()[4..8], 6u32.to_le_bytes());
    for other in [1, 2, 3, 4, 5, 7] {
        set_version(other);
        expect_decode(dir.path(), SnapshotError::BadValue("store version"));
    }
    // The edit undone: the store reads again.
    set_version(6);
    assert!(read_sharded_snapshot(dir.path()).unwrap() == sample_store(2));
}

#[test]
fn a_shard_count_the_manifest_cannot_hold_is_truncation() {
    // A delta run sizes a latch per shard of the store it reads, so a
    // count outside 1..=MAX_SHARDS is refused before anything is sized
    // by it, whatever the checksum vouches for.
    let dir = TempDir::new("shard-count");
    write_sharded_snapshot(dir.path(), &sample_store(2)).unwrap();
    let set_count = |n| set_u32(&dir.file(), 8, n);
    for count in [0, MAX_SHARDS as u32 + 1, u32::MAX] {
        set_count(count);
        expect_decode(dir.path(), SnapshotError::BadValue("shard count"));
    }
    // The largest route reads, and the count is all it reads of it.
    set_count(MAX_SHARDS as u32);
    let back = read_sharded_snapshot(dir.path()).unwrap();
    assert_eq!(back.n_shards(), MAX_SHARDS);
    assert!(back.to_trace_set() == sample_store(2).to_trace_set());
    set_count(2);
    assert!(read_sharded_snapshot(dir.path()).unwrap() == sample_store(2));
}

#[test]
fn a_shard_id_the_table_cannot_resolve_is_refused() {
    let dir = TempDir::new("short-table");
    let store = sample_store(3);
    write_sharded_snapshot(dir.path(), &store).unwrap();
    // A table of the first half of the words: ids stay one byte wide,
    // and the cells name words past its end.
    let ts = store.to_trace_set();
    let words = ts.interner().words();
    assert!((4..=256).contains(&words.len()));
    let half = &words[..words.len() / 2];
    // The table follows the two names and the dropped-record count.
    let at = HEADER + (4 + ts.vantage.len()) + (4 + ts.target_set.len()) + 8;
    rechecksum(&dir.file(), |b| {
        let mut w = SnapWriter::new();
        w.raw(&b[..at]);
        w.u32(half.len() as u32);
        half.iter().for_each(|&word| w.u128(word));
        w.raw(&b[at + 4 + 16 * words.len()..]);
        *b = w.into_bytes();
    });
    expect_decode(dir.path(), SnapshotError::BadValue("hop interner id"));
}

#[test]
fn a_trailing_byte_is_refused() {
    let dir = TempDir::new("trailing");
    write_sharded_snapshot(dir.path(), &sample_store(3)).unwrap();
    rechecksum(&dir.file(), |b| b.push(0));
    expect_decode(dir.path(), SnapshotError::BadValue("trailing store bytes"));
}

#[test]
fn missing_segment_is_an_io_error() {
    let dir = TempDir::new("missing");
    write_sharded_snapshot(dir.path(), &sample_store(3)).unwrap();
    std::fs::remove_file(dir.file()).unwrap();
    match read_sharded_snapshot(dir.path()) {
        Err(StoreError::Io(_)) => {}
        other => panic!("expected io error, got {other:?}"),
    }
}

#[test]
fn a_torn_write_leaves_the_last_store_readable() {
    // Store B's bytes, torn halfway at the temporary name, as a crash
    // mid-write leaves them: the last store, A, still reads.
    let dir = TempDir::new("torn");
    let (a, b) = (sample_store(2), sample_store(5));
    let other = dir.path().join("b");
    write_sharded_snapshot(&other, &b).unwrap();
    let b_bytes = std::fs::read(other.join(STORE_FILE)).unwrap();
    write_sharded_snapshot(dir.path(), &a).unwrap();
    let temp = dir.path().join(TEMP_FILE);
    std::fs::write(&temp, &b_bytes[..b_bytes.len() / 2]).unwrap();
    assert!(read_sharded_snapshot(dir.path()).unwrap() == a);
    // The next write replaces the torn file and then the store.
    write_sharded_snapshot(dir.path(), &b).unwrap();
    assert!(read_sharded_snapshot(dir.path()).unwrap() == b);
    assert!(!temp.exists(), "the temporary file is renamed away");
    assert_eq!(std::fs::read(dir.file()).unwrap(), b_bytes);
}

/// An encoded set of 40 traces, most several hops deep (so an edited
/// hop limit can fall out of order), some with an unreachable cell or a
/// destination response.
fn sample_set_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut records = Vec::new();
        for t in 0..40u32 {
            let target = Ipv6Addr::from(0x2001_0db8_u128 << 96 | (t as u128) << 64 | 1);
            let record = |responder: u128, kind, ttl: u32| ResponseRecord {
                target,
                responder: Ipv6Addr::from(0x2001_0db8_ffff_u128 << 80 | responder),
                kind,
                probe_ttl: Some(ttl as u8),
                rtt_us: Some(1),
                recv_us: u64::from(t * 16 + ttl),
                target_cksum_ok: true,
            };
            for ttl in (1..=6).filter(|ttl| (t * 7 + ttl) % 5 != 0) {
                let responder = u128::from(t % 7 * 16 + ttl);
                records.push(record(responder, ResponseKind::TimeExceeded, ttl));
            }
            if t % 3 == 0 {
                let code = DestUnreachCode::NoRoute;
                records.push(record(0xff, ResponseKind::DestUnreachable(code), 7));
            }
            if t % 2 == 0 {
                records.push(record(0, ResponseKind::EchoReply, 8));
            }
        }
        let log = ProbeLog {
            vantage: "edit-v".into(),
            target_set: "edit-s".into(),
            records,
            ..Default::default()
        };
        let mut w = SnapWriter::new();
        write_trace_set(&mut w, &TraceSet::from_log(&log));
        w.into_bytes()
    })
}

/// An encoded set whose ids and trace lengths are two bytes wide: 556
/// responders, one trace of 256 hops (hop limits 0 to 255), one of 300
/// unreachable cells, and eight short traces beside them.
fn wide_sample_set_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let target = |t: u32| Ipv6Addr::from(0x2001_0db8_u128 << 96 | u128::from(t) << 64 | 1);
        let record = |t: u32, responder: u32, kind, ttl: u8| ResponseRecord {
            target: target(t),
            responder: Ipv6Addr::from(0x2001_0db8_ffff_u128 << 80 | u128::from(responder)),
            kind,
            probe_ttl: Some(ttl),
            rtt_us: Some(1),
            recv_us: 0,
            target_cksum_ok: true,
        };
        let unreach = ResponseKind::DestUnreachable(DestUnreachCode::NoRoute);
        let mut records: Vec<_> = (0..=255u8)
            .map(|ttl| record(0, u32::from(ttl), ResponseKind::TimeExceeded, ttl))
            .collect();
        records.extend((0..300).map(|k| record(1, 256 + k, unreach, (k % 8) as u8 + 1)));
        for t in 2..10 {
            for ttl in 1..=3 {
                let responder = t * 37 + u32::from(ttl);
                records.push(record(t, responder, ResponseKind::TimeExceeded, ttl));
            }
        }
        let log = ProbeLog {
            vantage: "wide-v".into(),
            target_set: "wide-s".into(),
            records,
            ..Default::default()
        };
        let ts = TraceSet::from_log(&log);
        assert_eq!(ts.interner().len(), 556);
        assert_eq!(ts.view_at(0).hop_cells().len(), 256);
        assert_eq!(ts.view_at(1).unreachable_cells().len(), 300);
        let mut w = SnapWriter::new();
        write_trace_set(&mut w, &ts);
        w.into_bytes()
    })
}

/// The hop-limit windows of [`redundant_set_bytes`]: a base above 1,
/// and the last hop limit, so that each trace's bitmap is 1, 2 and 4
/// bytes wide (the widest past hop limit 16, as fill mode probes).
const WINDOWS: [(u8, u8); 3] = [(2, 9), (3, 18), (5, 36)];

/// An encoded set of 48 traces as a sweep sees them: neighbouring
/// targets share most hops, so many hops repeat the previous trace's
/// and some do not. Target pairs share their high half, and every step
/// of either half is several varint bytes. The hops span
/// `WINDOWS[window]`, with gaps; some traces end in an unreachable cell
/// or a destination response.
fn redundant_set_bytes(window: usize) -> &'static [u8] {
    static BYTES: [OnceLock<Vec<u8>>; 3] = [const { OnceLock::new() }; 3];
    BYTES[window].get_or_init(|| {
        let (first, last) = WINDOWS[window];
        let mut records = Vec::new();
        for t in 0..48u32 {
            let hi = 0x2001_0db8_0000_0000_u128 + u128::from(t / 2) * 0x1_0000;
            let lo = u128::from(t % 2 + 1) << 40 | u128::from(t);
            let target = Ipv6Addr::from(hi << 64 | lo);
            let record = |responder: u32, kind, ttl: u8| ResponseRecord {
                target,
                responder: Ipv6Addr::from(0x2001_0db8_ffff_u128 << 80 | u128::from(responder)),
                kind,
                probe_ttl: Some(ttl),
                rtt_us: Some(1),
                recv_us: u64::from(t * 64 + u32::from(ttl)),
                target_cksum_ok: true,
            };
            for ttl in (first..=last).filter(|&ttl| (t * 7 + u32::from(ttl)) % 5 != 0) {
                // A hop on the path of the target's group of four, or
                // one of the target's own.
                let own = (t + u32::from(ttl)).is_multiple_of(3);
                let responder = if own { t * 64 } else { 0x8000 + t / 4 * 64 } + u32::from(ttl);
                records.push(record(responder, ResponseKind::TimeExceeded, ttl));
            }
            if t % 3 == 0 {
                let code = DestUnreachCode::NoRoute;
                records.push(record(0xffff, ResponseKind::DestUnreachable(code), last));
            }
            if t % 2 == 0 {
                records.push(record(0, ResponseKind::EchoReply, last + 1));
            }
        }
        let ts = TraceSet::from_log(&ProbeLog {
            vantage: "redundant-v".into(),
            target_set: "redundant-s".into(),
            records,
            ..Default::default()
        });
        let hops = |idx: usize| ts.view_at(idx).hop_cells().iter().collect::<Vec<_>>();
        let ttls = (0..ts.len()).flat_map(|idx| hops(idx).into_iter().map(|(ttl, _)| ttl));
        assert_eq!((ttls.clone().min(), ttls.max()), (Some(first), Some(last)));
        let repeats = (1..ts.len()).map(|idx| {
            let prev = hops(idx - 1);
            hops(idx).iter().filter(|cell| prev.contains(cell)).count()
        });
        let repeats: Vec<usize> = repeats.collect();
        assert!(repeats.contains(&0), "a trace with no repeat");
        assert!(repeats.iter().any(|&r| r > 1), "traces with repeats");
        let mut w = SnapWriter::new();
        write_trace_set(&mut w, &ts);
        w.into_bytes()
    })
}

/// An encoded set of two traces, only the second of which answered at
/// the set's lowest hop limit, 1: the first answered at 2 and 3, the
/// second at 1, 3 and 5, each hop with an id of its own (no repeat bit),
/// on a table of three words. One edit of the second trace's bitmap can
/// move its hop off limit 1 and keep the number of stored ids, which
/// leaves a window whose base no hop holds.
fn lowest_hop_once_set_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let hop = |target: u128, responder: u128, ttl: u8| ResponseRecord {
            target: Ipv6Addr::from(target),
            responder: Ipv6Addr::from(0xa + responder),
            kind: ResponseKind::TimeExceeded,
            probe_ttl: Some(ttl),
            rtt_us: Some(1),
            recv_us: 0,
            target_cksum_ok: true,
        };
        let records = vec![
            hop(1, 0, 2),
            hop(1, 1, 3),
            hop(2, 2, 1),
            hop(2, 0, 3),
            hop(2, 1, 5),
        ];
        let ts = TraceSet::from_log(&ProbeLog {
            vantage: "v".into(),
            target_set: "s".into(),
            records,
            ..Default::default()
        });
        let limits = |idx: usize| -> Vec<u8> {
            let cells = ts.view_at(idx).hop_cells();
            cells.iter().map(|(ttl, _)| ttl).collect()
        };
        assert_eq!((limits(0), limits(1)), (vec![2, 3], vec![1, 3, 5]));
        let mut w = SnapWriter::new();
        write_trace_set(&mut w, &ts);
        w.into_bytes()
    })
}

proptest! {
    /// A set decoded from edited bytes is one the views can read, not
    /// only one that re-encodes: after random edits anywhere, decoding
    /// fails, or it yields a set that writes back exactly the bytes it
    /// read, whose every trace agrees with itself on its hop sequence,
    /// path length and last hop, and which canonicalizes. The edits land
    /// on a set of one-byte ids and lengths, on one of two-byte ones
    /// (and a 32-byte hop-limit bitmap), on one of the redundant sets
    /// (multi-byte varints in both halves of a target, a base hop limit
    /// above 1, bitmaps of 1, 2 and 4 bytes, traces with and without
    /// repeats), or on a set whose lowest hop limit one trace holds.
    #[test]
    fn prop_edited_trace_set_bytes_decode_to_a_usable_set(
        fixture in 0..6usize,
        edits in prop::collection::vec((any::<u64>(), 1u8..=255), 1..4),
    ) {
        let sample = match fixture {
            0 => sample_set_bytes(),
            1 => wide_sample_set_bytes(),
            5 => lowest_hop_once_set_bytes(),
            k => redundant_set_bytes(k - 2),
        };
        let mut bytes = sample.to_vec();
        for &(at, x) in &edits {
            let n = bytes.len();
            bytes[(at % n as u64) as usize] ^= x;
        }
        let mut r = SnapReader::new(&bytes);
        if let Ok(ts) = read_trace_set(&mut r) {
            let read = bytes.len() - r.remaining();
            let mut w = SnapWriter::new();
            write_trace_set(&mut w, &ts);
            prop_assert!(w.bytes() == &bytes[..read], "a decoded set re-encodes to other bytes");
            for t in ts.iter() {
                let deepest = t.last_hop().map(|(ttl, _)| ttl);
                prop_assert_eq!(t.hop_vec().len(), deepest.map_or(0, usize::from));
                prop_assert_eq!(t.path_len(), t.reached_at().or(deepest));
            }
            prop_assert_eq!(ts.clone().canonical().len(), ts.len());
        }
    }
}

proptest! {
    /// The ascending-list codec is a bijection onto strictly ascending
    /// lists: any list, drawn with high halves from four values half the
    /// time (so that steps in the low half alone are common), decodes
    /// from its encoding exactly when it strictly ascends, to itself, and
    /// is otherwise refused as out of order; its sorted, deduplicated
    /// form always round-trips.
    #[test]
    fn prop_ascending_lists_round_trip(
        draws in prop::collection::vec((any::<bool>(), any::<u64>(), any::<u64>()), 0..24),
    ) {
        let list: Vec<Ipv6Addr> = draws
            .iter()
            .map(|&(near, hi, lo)| {
                let hi = if near { hi % 4 } else { hi };
                Ipv6Addr::from(u128::from(hi) << 64 | u128::from(lo))
            })
            .collect();
        let read = |list: &[Ipv6Addr]| {
            let mut w = SnapWriter::new();
            write_ascending(&mut w, list);
            let mut r = SnapReader::new(w.bytes());
            let back = read_ascending(&mut r);
            (back, r.remaining())
        };
        let ascends = list.windows(2).all(|w| w[0] < w[1]);
        match read(&list) {
            (Ok(back), rest) => {
                prop_assert!(ascends && back == list && rest == 0);
            }
            (Err(e), _) => {
                prop_assert!(!ascends);
                prop_assert_eq!(e, SnapshotError::BadValue("target order"));
            }
        }
        let mut sorted = list.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(read(&sorted), (Ok(sorted.clone()), 0));
    }
}

/// The store [`a_written_store_is_pinned_byte_for_byte`] writes:
/// `sample_log(0)`'s set merged with one over the same targets whose
/// responders are renamed, so every trace of the second loses the dedup
/// and its words stay in the table, referenced by no cell.
fn pinned_store(shards: usize) -> ShardedTraceSet {
    let [a, b] = [0, 1 << 40].map(|salt| TraceSet::from_log(&sample_log(salt)));
    ShardedTraceSet::merge_all(&[
        ShardedTraceSet::from_set(&a, shards),
        ShardedTraceSet::from_set(&b, shards),
    ])
}

#[test]
fn a_written_store_is_pinned_byte_for_byte() {
    // Each shard count's file as `(shards, length, fnv1a)`. Re-pinned
    // once at store version 6, when a set came to be written by its
    // redundancy (varint target steps, hop-limit bitmaps, repeat bits):
    // 13 071 bytes at version 5.
    let pins: [(usize, u64, u64); 3] = [
        (1, 9320, 0x1d03f316c6cda71e),
        (3, 9320, 0x775f8e22a26e070d),
        (8, 9320, 0x7a96d6fd3d6f0bac),
    ];
    let mut files = Vec::new();
    let mut got = Vec::new();
    for (k, _, _) in pins {
        let dir = TempDir::new(&format!("pinned-{k}"));
        let store = pinned_store(k);
        write_sharded_snapshot(dir.path(), &store).unwrap();
        let bytes = std::fs::read(dir.file()).unwrap();
        // Between the header and the checksum: the set, as
        // `write_trace_set` writes it.
        let mut w = SnapWriter::new();
        write_trace_set(&mut w, &store.to_trace_set());
        assert!(bytes[HEADER..bytes.len() - 8] == *w.bytes(), "{k} shards");
        assert_eq!(bytes[8..HEADER], (k as u32).to_le_bytes());
        got.push((k, bytes.len() as u64, fnv1a(&bytes)));
        files.push(bytes);
    }
    // The files differ only in the shard count and the checksum.
    let settled = |b: &[u8]| [&b[..8], &b[HEADER..b.len() - 8]].concat();
    assert!(files.iter().all(|f| settled(f) == settled(&files[0])));
    if got != pins {
        let rows: String = got
            .iter()
            .map(|(k, len, fnv)| format!("    ({k}, {len}, {fnv:#018x}),\n"))
            .collect();
        panic!("the written store moved; now:\n{rows}");
    }
}
