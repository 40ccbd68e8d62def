//! Filesystem battery for the persistent sharded snapshot
//! ([`analysis::snapshot`]): byte-determinism of the written
//! directory, a faithful round trip, and — because a longitudinal
//! store is only as good as its failure modes — loud rejection of
//! truncation, bit rot, version skew, missing files, and segments
//! whose targets route to the wrong shard — and a set decoded from
//! edited bytes is one every view can read.

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
        let responder = Ipv6Addr::from((0x2001_0db8_ffff_u128 << 80) | (x >> 16 & 0xff) as u128);
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
    ShardedTraceSet::from_set(&TraceSet::from_log(&log), shards)
}

fn patch(path: &Path, offset: usize, f: impl FnOnce(&mut u8)) {
    let mut bytes = std::fs::read(path).unwrap();
    f(&mut bytes[offset]);
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
fn store_version_1_segments_and_manifests_are_refused() {
    // Version 1 stored 4-byte ids and each trace's offsets.
    let v1 = 1u32.to_le_bytes();
    let dir = TempDir::new("store-v1");
    write_sharded_snapshot(dir.path(), &sample_store(2)).unwrap();
    let manifest = dir.path().join(MANIFEST_FILE);
    let current = std::fs::read(&manifest).unwrap();
    let mut old = current.clone();
    old[4..8].copy_from_slice(&v1);
    std::fs::write(&manifest, &old).unwrap();
    match read_sharded_snapshot(dir.path()) {
        Err(StoreError::Decode(SnapshotError::BadValue("store version"))) => {}
        other => panic!("expected a version 1 manifest refused, got {other:?}"),
    }
    // A version 1 segment under a manifest that vouches for its bytes.
    let seg = dir.path().join(segment_file(0));
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes[4..8].copy_from_slice(&v1);
    std::fs::write(&seg, &bytes).unwrap();
    let mut m = SnapshotManifest {
        n_shards: 2,
        segments: (0..2)
            .map(|s| {
                let b = std::fs::read(dir.path().join(segment_file(s))).unwrap();
                SegmentInfo {
                    len: b.len() as u64,
                    fnv: fnv1a(&b),
                }
            })
            .collect(),
    };
    std::fs::write(&manifest, encode_manifest(&m)).unwrap();
    match read_sharded_snapshot(dir.path()) {
        Err(StoreError::Decode(SnapshotError::BadValue("store version"))) => {}
        other => panic!("expected a version 1 segment refused, got {other:?}"),
    }
    assert_eq!(
        decode_segment(&bytes).unwrap_err(),
        SnapshotError::BadValue("store version")
    );
    // The same manifest at the current version, for contrast, and the
    // segment put back: the store reads again.
    bytes[4..8].copy_from_slice(&current[4..8]);
    std::fs::write(&seg, &bytes).unwrap();
    m.segments[0].fnv = fnv1a(&bytes);
    std::fs::write(&manifest, encode_manifest(&m)).unwrap();
    assert!(read_sharded_snapshot(dir.path()).unwrap() == sample_store(2));
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
    let manifest = SnapshotManifest {
        n_shards: 2,
        segments: vec![
            SegmentInfo {
                len: b1.len() as u64,
                fnv: fnv1a(&b1),
            },
            SegmentInfo {
                len: b0.len() as u64,
                fnv: fnv1a(&b0),
            },
        ],
    };
    std::fs::write(dir.path().join(MANIFEST_FILE), encode_manifest(&manifest)).unwrap();
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
