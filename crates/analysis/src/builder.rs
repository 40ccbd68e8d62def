//! Incremental trace reconstruction: the streaming half of the
//! columnar pipeline.
//!
//! [`TraceSetBuilder`] ingests response records in fixed-size chunks
//! *as a campaign produces them* and assembles the same columnar
//! [`TraceSet`] the batch path builds from a full
//! [`yarrp6::ProbeLog`] — so a
//! campaign-scale sweep never materializes its log. Per record the
//! builder keeps at most one 16-byte row (targets and responders are
//! interned to dense ids on ingestion, and packed with the hop limit
//! and the class beside the receive time), in a vector that past 64 Ki
//! rows grows by an eighth at a time, so it never holds much more than
//! the rows themselves; destination responses and checksum-failed
//! records fold into counters immediately and keep no row at all.
//!
//! **Equivalence contract** (pinned by golden + property tests in
//! `tests/stream_golden.rs`): feeding the builder a campaign's records
//! in any chunking of their emission order and calling
//! [`finish`](TraceSetBuilder::finish) yields a `TraceSet`
//! bit-identical — interner ids included — to
//! [`TraceSet::from_log`] on the receive-sorted `ProbeLog` the batch
//! prober would have returned. That log is the emission order under
//! one stable sort by receive time
//! ([`yarrp6::ProbeLog::sort_by_recv`]), and the sort decides three
//! things only: the order responders are first seen in, which row of a
//! (target, TTL) comes first, and the order of a target's unreachable
//! rows. The builder buffers rows keyed by receive time and settles
//! the first per responder at finish and the other two per target,
//! inside the same `assemble` code the batch path runs; the rows
//! themselves are never sorted.
//!
//! [`stream_campaigns_supervised`] wires the builder to the
//! bounded-channel campaign driver in `yarrp6::campaign`, returning
//! finished trace sets directly; [`crate::runner::CampaignRunner`] is
//! the same call for one target set swept over many vantages.

use crate::intern::{hashed_ahead, AddrInterner};
use crate::traces::{assemble, ClassifiedRows, Row, TraceSet};
use simnet::Topology;
use std::sync::Arc;
use yarrp6::campaign::{run_campaigns_streaming, CampaignSpec, RetryPolicy, SupervisedCampaign};
use yarrp6::sink::{RecordStream, StreamConfig};
use yarrp6::ResponseRecord;

/// Rows up to which the builder's row vector doubles; past it, it grows
/// by an eighth. A doubled vector of a campaign's rows is up to half
/// spare capacity at the moment it matters — when `finish` allocates
/// the columns beside it.
const DOUBLING_ROWS: usize = 1 << 16;

/// Builds a [`TraceSet`] incrementally from streamed response records.
#[derive(Default)]
pub struct TraceSetBuilder {
    vantage: Arc<str>,
    target_set: Arc<str>,
    /// Everything ingested so far, classified: one interned row per
    /// record that reaches the hop/unreachable columns — 16 bytes
    /// instead of a 64-byte [`ResponseRecord`] — keyed by receive time.
    /// Its responder interner is in ingestion order; finish renumbers
    /// it in receive order so the final ids match the batch pipeline's
    /// exactly.
    classified: ClassifiedRows<u64>,
    records_seen: u64,
}

impl TraceSetBuilder {
    /// An empty builder with blank campaign identity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stamps the campaign identity carried into the finished set
    /// (what [`TraceSet::from_log`] copies from the log's fields).
    pub fn with_identity(mut self, vantage: Arc<str>, target_set: Arc<str>) -> Self {
        self.vantage = vantage;
        self.target_set = target_set;
        self
    }

    /// Sizes the target tables for a campaign over `n` targets, so they
    /// are allocated once instead of doubling their way up.
    pub(crate) fn for_targets(mut self, n: usize) -> Self {
        self.classified.tgt_ids = AddrInterner::with_room_for(n);
        self.classified.reached = Vec::with_capacity(n);
        self
    }

    /// Ingests one record, given the hash of `r.target`.
    #[inline]
    fn push_hashed(&mut self, r: &ResponseRecord, target_hash: u64) {
        self.records_seen += 1;
        if let Some(row) = self.classified.classify(r, target_hash, r.recv_us) {
            self.push_row(row);
        }
    }

    /// Appends a row, growing a full vector by its own rule past
    /// [`DOUBLING_ROWS`].
    #[inline]
    fn push_row(&mut self, row: Row<u64>) {
        let rows = &mut self.classified.rows;
        let len = rows.len();
        if len == rows.capacity() && len >= DOUBLING_ROWS {
            rows.reserve_exact(len / 8);
        }
        rows.push(row);
    }

    /// Ingests a chunk, prefetching the target-interner slot a window
    /// ahead (the same overlap trick as the batch classify pass).
    pub fn push_chunk(&mut self, chunk: &[ResponseRecord]) {
        for (r, hash, ahead) in hashed_ahead(chunk, |r| r.target) {
            if let Some(ahead) = ahead {
                self.classified.tgt_ids.prefetch_hashed(ahead);
            }
            self.push_hashed(r, hash);
        }
    }

    /// Records ingested so far (including dropped/destination ones).
    pub fn records_seen(&self) -> u64 {
        self.records_seen
    }

    /// Assembles the final columnar set.
    ///
    /// [`TraceSet::from_log`] numbers responders as they first appear
    /// in the receive-sorted log (ties keep ingestion order — the
    /// stable [`yarrp6::ProbeLog::sort_by_recv`]), which is the order
    /// of each responder's earliest `(receive time, row)`: one pass
    /// over the rows finds those, the *responders* are sorted by them,
    /// and the rows are renumbered where they lie. Order within a
    /// target is the shared scatter/emit core's to settle, from the
    /// rows' keys.
    pub fn finish(self) -> TraceSet {
        let mut classified = self.classified;
        let scratch = std::mem::take(&mut classified.interner);
        let mut first = vec![(u64::MAX, usize::MAX); scratch.len()];
        for (i, row) in classified.rows.iter().enumerate() {
            let seen = &mut first[row.rid() as usize];
            *seen = (*seen).min((row.key, i));
        }
        let mut by_first: Vec<u32> = (0..first.len() as u32).collect();
        by_first.sort_unstable_by_key(|&rid| first[rid as usize]);
        classified.interner = AddrInterner::with_room_for(by_first.len());
        let mut renumbered = vec![0u32; by_first.len()];
        for rid in by_first {
            renumbered[rid as usize] = classified.interner.intern(scratch.resolve(rid));
        }
        for row in &mut classified.rows {
            row.set_rid(renumbered[row.rid() as usize]);
        }
        assemble(classified, self.vantage, self.target_set)
    }
}

/// Runs many streaming campaigns under the campaign supervisor
/// (`yarrp6::campaign::supervise`): each campaign's prober feeds a
/// fresh per-attempt, identity-stamped [`TraceSetBuilder`] through the
/// bounded chunk channel — a campaign-scale sweep holds columnar
/// stores, never record logs, and each finished set is bit-identical
/// to `TraceSet::from_log(&run_campaign(..).log)`. Failed or
/// blacked-out attempts are retried with deterministic virtual-time
/// backoff starting at `start_us`, and exhausted retries come back as a
/// degraded [`SupervisedCampaign`] instead of a panic — so a
/// multi-round orchestrator keeps every surviving vantage's trace set
/// when one vantage dies. [`RetryPolicy::NONE`] runs every campaign
/// exactly once. `parallel` picks the work-queue pool over the calling
/// thread; the two are bit-identical (supervision clocks are virtual,
/// campaigns engine-isolated).
pub fn stream_campaigns_supervised(
    topo: &Arc<Topology>,
    specs: &[CampaignSpec<'_>],
    stream: &StreamConfig,
    policy: &RetryPolicy,
    start_us: u64,
    parallel: bool,
) -> Vec<SupervisedCampaign<TraceSet>> {
    run_campaigns_streaming(
        topo,
        specs,
        stream,
        policy,
        start_us,
        parallel,
        |_, spec| {
            let vantage = topo.vantages[spec.vantage_idx as usize].name.clone();
            let set_name = spec.set.name.clone();
            let n_targets = spec.set.len();
            move |records: RecordStream| {
                let mut builder = TraceSetBuilder::new()
                    .with_identity(vantage, set_name)
                    .for_targets(n_targets);
                records.for_each_chunk(|c| builder.push_chunk(c));
                builder.finish()
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;
    use testkit::fixtures::rec_at as rec;
    use v6packet::icmp6::DestUnreachCode;
    use yarrp6::{ProbeLog, ResponseKind};

    /// The batch comparator: what the prober's receive-sorted log
    /// analyzes to.
    fn batch(records: &[ResponseRecord]) -> TraceSet {
        let mut log = ProbeLog {
            records: records.to_vec(),
            ..Default::default()
        };
        log.sort_by_recv();
        TraceSet::from_log(&log)
    }

    #[test]
    fn chunked_ingestion_matches_batch() {
        let records = vec![
            rec(
                "2001:db8::1",
                "::a",
                ResponseKind::TimeExceeded,
                Some(1),
                50,
            ),
            rec(
                "2001:db8::1",
                "::b",
                ResponseKind::TimeExceeded,
                Some(3),
                20,
            ),
            rec(
                "2001:db8::2",
                "::a",
                ResponseKind::TimeExceeded,
                Some(2),
                90,
            ),
            rec(
                "2001:db8::1",
                "2001:db8::1",
                ResponseKind::EchoReply,
                Some(4),
                70,
            ),
            rec(
                "2001:db8::2",
                "::c",
                ResponseKind::DestUnreachable(DestUnreachCode::NoRoute),
                Some(5),
                10,
            ),
        ];
        for chunk_size in [1, 2, 5] {
            let mut b = TraceSetBuilder::new();
            for chunk in records.chunks(chunk_size) {
                b.push_chunk(chunk);
            }
            assert_eq!(b.records_seen(), 5);
            assert_eq!(b.finish(), batch(&records), "chunk size {chunk_size}");
        }
    }

    #[test]
    fn out_of_emission_order_duplicates_resolve_by_recv_time() {
        // Two TE records for the same (target, ttl): the batch path
        // sorts by recv and keeps the first — the builder must agree
        // even though the later-received record was emitted first.
        let records = vec![
            rec(
                "2001:db8::1",
                "::b",
                ResponseKind::TimeExceeded,
                Some(2),
                80,
            ),
            rec(
                "2001:db8::1",
                "::a",
                ResponseKind::TimeExceeded,
                Some(2),
                30,
            ),
        ];
        let mut b = TraceSetBuilder::new();
        b.push_chunk(&records);
        let ts = b.finish();
        assert_eq!(ts, batch(&records));
        let t = ts.get("2001:db8::1".parse().unwrap()).unwrap();
        assert_eq!(
            t.hops().collect::<Vec<_>>(),
            vec![(2u8, "::a".parse::<Ipv6Addr>().unwrap())]
        );
    }

    #[test]
    fn a_large_row_vector_holds_at_most_an_eighth_to_spare() {
        let mut b = TraceSetBuilder::new();
        let mut r = rec("2001:db8::1", "::a", ResponseKind::TimeExceeded, Some(1), 0);
        for i in 0..8 * DOUBLING_ROWS as u64 {
            r.recv_us = i;
            b.push_chunk(std::slice::from_ref(&r));
            // Whatever capacity doubling left behind is outgrown by twice
            // the threshold: from there on every growth was an eighth.
            let (len, cap) = (b.classified.rows.len(), b.classified.rows.capacity());
            if len > 2 * DOUBLING_ROWS {
                assert!(cap <= len + len / 8, "{len} rows hold room for {cap}");
            }
        }
        assert_eq!(b.classified.rows.len(), 8 * DOUBLING_ROWS);
    }

    #[test]
    fn a_finished_or_read_back_interner_is_allocated_once() {
        // 40 responders fit the 64 slots doubling ends at; two slots an
        // address, rounded up, would be 128.
        use crate::snapshot::{read_trace_set, write_trace_set, SnapReader, SnapWriter};
        use testkit::fixtures::te;
        let records: Vec<ResponseRecord> = (1..=40u8)
            .map(|i| te("2001:db8::1", &format!("::{i:x}"), i, i.into()))
            .collect();
        let mut b = TraceSetBuilder::new();
        b.push_chunk(&records);
        let built = b.finish();
        let mut w = SnapWriter::new();
        write_trace_set(&mut w, &built);
        let bytes = w.into_bytes();
        let read = read_trace_set(&mut SnapReader::new(&bytes)).unwrap();
        for ts in [&built, &read] {
            let n = ts.interner().len();
            assert_eq!(n, 40);
            assert_eq!(
                ts.interner().slots(),
                AddrInterner::with_room_for(n).slots()
            );
        }
    }

    #[test]
    fn rewritten_records_counted_not_traced() {
        let mut bad = rec("2001:db8::9", "::a", ResponseKind::TimeExceeded, Some(1), 5);
        bad.target_cksum_ok = false;
        let mut b = TraceSetBuilder::new();
        b.push_chunk(&[bad]);
        assert_eq!(b.classified.rows.len(), 0);
        let ts = b.finish();
        assert_eq!(ts.rewritten_dropped, 1);
        assert!(ts.is_empty());
    }

    #[test]
    fn identity_is_carried() {
        let b = TraceSetBuilder::new().with_identity("EU-NET".into(), "fdns-z64".into());
        let ts = b.finish();
        assert_eq!(&*ts.vantage, "EU-NET");
        assert_eq!(&*ts.target_set, "fdns-z64");
    }
}
