//! Filesystem battery for the persistent sharded snapshot
//! ([`analysis::snapshot`]): byte-determinism of the written
//! directory, a faithful round trip, and — because a longitudinal
//! store is only as good as its failure modes — loud rejection of
//! truncation, bit rot, version skew, missing files, segments whose
//! targets route to the wrong shard or whose ids the word table cannot
//! resolve — and a set decoded from edited bytes is one every view can
//! read.

use analysis::snapshot::{
    decode_segment, encode_manifest, encode_segment, fnv1a, segment_file, SegmentInfo,
    MANIFEST_FILE,
};
use analysis::{
    read_sharded_snapshot, read_trace_set, write_sharded_snapshot, write_trace_set,
    ShardedTraceSet, SnapReader, SnapWriter, SnapshotError, SnapshotManifest, StoreError, TraceSet,
};
use proptest::prelude::*;
use std::net::Ipv6Addr;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The word table's segment inside a snapshot directory.
const TABLE_FILE: &str = "table.seg";
use v6packet::icmp6::DestUnreachCode;
use yarrp6::{ProbeLog, ResponseKind, ResponseRecord};

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

/// Rewrites `dir`'s manifest for the `n_shards` segments and the table
/// its files hold now, so every length and checksum vouches for them.
fn remanifest(dir: &Path, n_shards: u32) {
    let info = |name: &str| {
        let b = std::fs::read(dir.join(name)).unwrap();
        SegmentInfo {
            len: b.len() as u64,
            fnv: fnv1a(&b),
        }
    };
    let mut segments: Vec<SegmentInfo> = (0..n_shards as usize)
        .map(|s| info(&segment_file(s)))
        .collect();
    segments.push(info(TABLE_FILE));
    let m = SnapshotManifest { n_shards, segments };
    std::fs::write(dir.join(MANIFEST_FILE), encode_manifest(&m)).unwrap();
}

/// Sets the store version, bytes 4..8 of every store file, to `v`.
fn set_version(path: &Path, v: u32) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[4..8].copy_from_slice(&v.to_le_bytes());
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn round_trip_is_faithful() {
    let dir = TempDir::new("round-trip");
    let store = sample_store(4);
    let manifest = write_sharded_snapshot(dir.path(), &store).unwrap();
    assert_eq!(manifest.n_shards, 4);
    let back = read_sharded_snapshot(dir.path()).unwrap();
    // Exact: same route, same shards, same interner id assignment.
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
    let mut files: Vec<String> = (0..4).map(segment_file).collect();
    files.push(TABLE_FILE.to_string());
    files.push(MANIFEST_FILE.to_string());
    for f in files {
        assert_eq!(
            std::fs::read(a.join(&f)).unwrap(),
            std::fs::read(b.join(&f)).unwrap(),
            "{f} differs between two writes of the same store"
        );
    }
}

#[test]
fn truncated_segment_is_rejected_before_decoding() {
    let dir = TempDir::new("truncate");
    write_sharded_snapshot(dir.path(), &sample_store(3)).unwrap();
    let seg = dir.path().join(segment_file(1));
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..bytes.len() - 1]).unwrap();
    match read_sharded_snapshot(dir.path()) {
        Err(StoreError::Mismatch(what)) => assert_eq!(what, "segment length"),
        other => panic!("expected length mismatch, got {other:?}"),
    }
}

#[test]
fn bit_rot_fails_the_checksum() {
    let dir = TempDir::new("bitrot");
    write_sharded_snapshot(dir.path(), &sample_store(3)).unwrap();
    // Flip one bit past the segment header; length is unchanged, so
    // only the checksum can catch it — and it names the shard.
    patch(&dir.path().join(segment_file(2)), 64, |b| *b ^= 0x40);
    match read_sharded_snapshot(dir.path()) {
        Err(StoreError::Corrupt { segment: 2 }) => {}
        other => panic!("expected corrupt segment 2, got {other:?}"),
    }
}

#[test]
fn manifest_version_and_magic_skew_are_rejected() {
    let dir = TempDir::new("skew");
    write_sharded_snapshot(dir.path(), &sample_store(2)).unwrap();
    // Bytes 4..8 are the little-endian store version.
    patch(&dir.path().join(MANIFEST_FILE), 4, |b| *b ^= 0xff);
    match read_sharded_snapshot(dir.path()) {
        Err(StoreError::Decode(SnapshotError::BadValue("store version"))) => {}
        other => panic!("expected version rejection, got {other:?}"),
    }
    patch(&dir.path().join(MANIFEST_FILE), 4, |b| *b ^= 0xff);
    patch(&dir.path().join(MANIFEST_FILE), 0, |b| *b ^= 0xff);
    match read_sharded_snapshot(dir.path()) {
        Err(StoreError::Decode(SnapshotError::BadMagic)) => {}
        other => panic!("expected magic rejection, got {other:?}"),
    }
}

#[test]
fn segment_version_skew_is_rejected() {
    let shard = sample_store(1).shard(0).clone();
    let mut bytes = encode_segment(&shard);
    bytes[4] ^= 0xff;
    match decode_segment(&bytes) {
        Err(SnapshotError::BadValue("store version")) => {}
        other => panic!("expected version rejection, got {other:?}"),
    }
    bytes[4] ^= 0xff;
    assert!(decode_segment(&bytes).unwrap() == shard);
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
    // two provenance lists after each set's cells.
    let dir = TempDir::new("store-old");
    let version = |name: &str| {
        write_sharded_snapshot(dir.path(), &sample_store(2)).unwrap();
        let bytes = std::fs::read(dir.path().join(name)).unwrap();
        u32::from_le_bytes(bytes[4..8].try_into().unwrap())
    };
    assert_eq!(version(MANIFEST_FILE), 4);
    for old in [1, 2, 3] {
        // Each kind of store file at the old version, under a manifest
        // that vouches for its bytes.
        for name in [
            MANIFEST_FILE.to_string(),
            segment_file(1),
            TABLE_FILE.to_string(),
        ] {
            write_sharded_snapshot(dir.path(), &sample_store(2)).unwrap();
            set_version(&dir.path().join(&name), old);
            if name != MANIFEST_FILE {
                remanifest(dir.path(), 2);
            }
            match read_sharded_snapshot(dir.path()) {
                Err(StoreError::Decode(SnapshotError::BadValue("store version"))) => {}
                other => panic!("expected a version {old} {name} refused, got {other:?}"),
            }
        }
    }
    // The last edit undone: the store reads again.
    set_version(&dir.path().join(TABLE_FILE), 4);
    remanifest(dir.path(), 2);
    assert!(read_sharded_snapshot(dir.path()).unwrap() == sample_store(2));
}

#[test]
fn a_shard_count_the_manifest_cannot_hold_is_truncation() {
    // The count sizes the segment table before any entry is read; at
    // u32::MAX that would ask for 68 GB.
    let dir = TempDir::new("shard-count");
    write_sharded_snapshot(dir.path(), &sample_store(2)).unwrap();
    let manifest = dir.path().join(MANIFEST_FILE);
    let written = std::fs::read(&manifest).unwrap();
    for (count, bytes) in [
        (u32::MAX, written[..12].to_vec()),
        (u32::MAX, written.clone()),
        // Two shards' entries and the table's: one more shard than that.
        (3, written.clone()),
    ] {
        let mut bytes = bytes;
        bytes[8..12].copy_from_slice(&count.to_le_bytes());
        std::fs::write(&manifest, &bytes).unwrap();
        match read_sharded_snapshot(dir.path()) {
            Err(StoreError::Decode(SnapshotError::Truncated)) => {}
            other => panic!("expected a count of {count} truncated, got {other:?}"),
        }
    }
    std::fs::write(&manifest, &written).unwrap();
    assert!(read_sharded_snapshot(dir.path()).unwrap() == sample_store(2));
}

#[test]
fn a_damaged_table_segment_is_named_as_the_table() {
    let dir = TempDir::new("table");
    let table = dir.path().join(TABLE_FILE);
    let expect = |what: &str| match read_sharded_snapshot(dir.path()) {
        Err(StoreError::Table(got)) => assert_eq!(got, what),
        other => panic!("expected the table's {what} refused, got {other:?}"),
    };
    write_sharded_snapshot(dir.path(), &sample_store(3)).unwrap();
    let bytes = std::fs::read(&table).unwrap();
    std::fs::write(&table, &bytes[..bytes.len() - 1]).unwrap();
    expect("length");
    std::fs::write(&table, &bytes).unwrap();
    patch(&table, bytes.len() - 3, |b| *b ^= 0x40);
    expect("checksum");
    std::fs::remove_file(&table).unwrap();
    expect("unreadable");
}

#[test]
fn a_shard_id_the_table_cannot_resolve_is_refused() {
    let dir = TempDir::new("short-table");
    let store = sample_store(3);
    write_sharded_snapshot(dir.path(), &store).unwrap();
    // A table of the first half of the words: ids stay one byte wide,
    // and the shards name words past its end.
    let shard = store.shard(0);
    let words = shard.interner().words();
    assert!((2..=256).contains(&words.len()));
    let half = &words[..words.len() / 2];
    let table = dir.path().join(TABLE_FILE);
    let mut w = SnapWriter::new();
    w.raw(&std::fs::read(&table).unwrap()[..8]);
    w.u32(half.len() as u32);
    half.iter().for_each(|&word| w.u128(word));
    std::fs::write(&table, w.bytes()).unwrap();
    remanifest(dir.path(), 3);
    match read_sharded_snapshot(dir.path()) {
        Err(StoreError::Decode(SnapshotError::BadValue(
            "hop interner id" | "unreach interner id",
        ))) => {}
        other => panic!("expected an unresolvable id refused, got {other:?}"),
    }
}

#[test]
fn missing_segment_is_an_io_error() {
    let dir = TempDir::new("missing");
    write_sharded_snapshot(dir.path(), &sample_store(3)).unwrap();
    std::fs::remove_file(dir.path().join(segment_file(0))).unwrap();
    match read_sharded_snapshot(dir.path()) {
        Err(StoreError::Io(_)) => {}
        other => panic!("expected io error, got {other:?}"),
    }
}

#[test]
fn misrouted_segment_is_rejected() {
    let dir = TempDir::new("misroute");
    let store = sample_store(2);
    write_sharded_snapshot(dir.path(), &store).unwrap();
    // Swap the two segment files and re-manifest with matching
    // lengths/checksums: every integrity check passes, but the targets
    // now sit in shards the route disagrees with.
    let (f0, f1) = (
        dir.path().join(segment_file(0)),
        dir.path().join(segment_file(1)),
    );
    let (b0, b1) = (std::fs::read(&f0).unwrap(), std::fs::read(&f1).unwrap());
    std::fs::write(&f0, &b1).unwrap();
    std::fs::write(&f1, &b0).unwrap();
    remanifest(dir.path(), 2);
    match read_sharded_snapshot(dir.path()) {
        Err(StoreError::Mismatch(what)) => assert_eq!(what, "target routed to wrong shard"),
        other => panic!("expected misroute rejection, got {other:?}"),
    }
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

proptest! {
    /// A set decoded from edited bytes is one the views can read, not
    /// only one that re-encodes: after random edits anywhere, decoding
    /// fails, or it yields a set that writes back exactly the bytes it
    /// read, whose every trace agrees with itself on its hop sequence,
    /// path length and last hop, and which canonicalizes. The edits land
    /// on a set of one-byte ids and lengths, or on one of two-byte ones.
    #[test]
    fn prop_edited_trace_set_bytes_decode_to_a_usable_set(
        wide in any::<bool>(),
        edits in prop::collection::vec((any::<u64>(), 1u8..=255), 1..4),
    ) {
        let sample = if wide { wide_sample_set_bytes() } else { sample_set_bytes() };
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

/// Every file of a written store, as `(name, length, fnv1a)`: the
/// manifest, the table, then each shard's segment in order.
type Pin = &'static [(&'static str, u64, u64)];

#[test]
fn a_written_store_is_pinned_byte_for_byte() {
    let pins: [(usize, Pin); 3] = [(1, PIN_1), (3, PIN_3), (8, PIN_8)];
    for (k, pin) in pins {
        let dir = TempDir::new(&format!("pinned-{k}"));
        write_sharded_snapshot(dir.path(), &pinned_store(k)).unwrap();
        let mut files = vec![MANIFEST_FILE.to_string(), TABLE_FILE.to_string()];
        files.extend((0..k).map(segment_file));
        let got: Vec<(String, u64, u64)> = files
            .into_iter()
            .map(|name| {
                let bytes = std::fs::read(dir.path().join(&name)).unwrap();
                let (len, fnv) = (bytes.len() as u64, fnv1a(&bytes));
                (name, len, fnv)
            })
            .collect();
        let want: Vec<(String, u64, u64)> = pin
            .iter()
            .map(|&(name, len, fnv)| (name.to_string(), len, fnv))
            .collect();
        if got != want {
            let rows: String = got
                .iter()
                .map(|(name, len, fnv)| format!("    ({name:?}, {len}, {fnv:#018x}),\n"))
                .collect();
            panic!("the {k}-shard store's files moved; now:\n{rows}");
        }
    }
}

const PIN_1: Pin = &[
    ("manifest.snap", 44, 0x1e8df321cc48ad50),
    ("table.seg", 5932, 0x173eb543ea20c540),
    ("shard-0000.seg", 7135, 0x2ab7a80499278837),
];
const PIN_3: Pin = &[
    ("manifest.snap", 76, 0x9bf34c4d351f2d97),
    ("table.seg", 5932, 0x173eb543ea20c540),
    ("shard-0000.seg", 927, 0xaabe71b0f010be68),
    ("shard-0001.seg", 4066, 0x739f8d5ff351e003),
    ("shard-0002.seg", 2258, 0xd1ca414f3fd3ce73),
];
const PIN_8: Pin = &[
    ("manifest.snap", 156, 0x0b4f02cb470513e9),
    ("table.seg", 5932, 0x173eb543ea20c540),
    ("shard-0000.seg", 433, 0x1bf8a262a854b738),
    ("shard-0001.seg", 477, 0x94e17897341947a0),
    ("shard-0002.seg", 478, 0xe4a4d6f2164e33ea),
    ("shard-0003.seg", 885, 0xaaf065962f28634e),
    ("shard-0004.seg", 1385, 0x84b00e3c76efe622),
    ("shard-0005.seg", 1950, 0x6b4977304cf73b52),
    ("shard-0006.seg", 499, 0x661a929a3bba765d),
    ("shard-0007.seg", 1434, 0x0127dbfd861a3b2e),
];
