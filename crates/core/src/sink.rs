//! Record sinks: where probers put decoded responses.
//!
//! Every prober's round trip ([`crate::yarrp`], [`crate::sequential`],
//! [`crate::doubletree`]) hands each decoded [`ResponseRecord`] to a
//! [`RecordSink`] in **emission order** (the order the prober observed
//! it, which is send order, not arrival order). Yarrp6 takes the sink
//! from its caller; the two comparison probers fill a `Vec`. Two sinks
//! cover the repo's shapes:
//!
//! * `Vec<ResponseRecord>` — the batch shape: buffer everything,
//!   analyze afterwards;
//! * [`ChunkSender`] — the streaming shape: fixed-size record chunks
//!   over a **bounded** channel to a concurrent consumer, so a
//!   campaign's full log never exists in memory. Backpressure is the
//!   channel bound: a slow consumer throttles the prober instead of
//!   growing a buffer. Spent chunk buffers are recycled back to the
//!   sender, so steady state allocates nothing per chunk.
//!
//! [`RecordStream::channel`] wires a `ChunkSender` to the
//! [`RecordStream`] the consumer drains; [`crate::campaign`] runs the
//! two ends on separate threads.

use crate::record::{decode_response, ProbeLog, ResponseRecord};
use simnet::{Delivery, Engine, Flow};
use std::sync::mpsc;

/// A destination for decoded response records, fed in emission order.
/// Rejected responses never reach a sink: the prober counts them by
/// class in its [`ProbeLog`]'s `decode_errors`.
pub trait RecordSink {
    /// Accepts one decoded record.
    fn record(&mut self, rec: ResponseRecord);
}

/// A prober's end of the wire: the engine it probes through, the
/// instance byte its probes carry, and the one response buffer every
/// round trip reuses.
pub(crate) struct Link<'e> {
    pub(crate) engine: &'e mut Engine,
    instance: u8,
    delivery: Delivery,
}

impl<'e> Link<'e> {
    pub(crate) fn new(engine: &'e mut Engine, instance: u8) -> Self {
        Link {
            engine,
            instance,
            delivery: Delivery::default(),
        }
    }

    /// Opens the flow of a probe this prober built (its routing headers
    /// are what count; hop limit and payload may change from probe to
    /// probe).
    pub(crate) fn open(&mut self, wire: &[u8]) -> Flow {
        self.engine
            .open_flow(wire)
            .expect("a prober's own probe, from its own vantage, routes")
    }

    /// One probe's round trip, the same for every prober: inject `wire`,
    /// a probe of `flow`, at `now_us`, decode what comes back and hand
    /// it to `sink`. Every reply the engine emits is either recorded or
    /// counted as rejected in `log`, by class — never dropped unseen. Returns the record for the prober's own
    /// bookkeeping.
    #[inline]
    pub(crate) fn exchange<S: RecordSink>(
        &mut self,
        flow: Flow,
        wire: &[u8],
        now_us: u64,
        log: &mut ProbeLog,
        sink: &mut S,
    ) -> Option<ResponseRecord> {
        // The engine would quietly look a wrong flow up by key; a
        // prober that hands it one has lost its fast path.
        debug_assert_eq!(self.engine.open_flow(wire), Some(flow));
        log.probes_sent += 1;
        if !self
            .engine
            .inject_flow(flow, wire, now_us, &mut self.delivery)
        {
            return None;
        }
        match decode_response(&self.delivery.bytes, self.delivery.at_us, self.instance) {
            Ok(rec) => {
                sink.record(rec);
                Some(rec)
            }
            Err(e) => {
                log.decode_errors.note(e);
                log.discarded += 1;
                None
            }
        }
    }
}

/// The batch sink.
impl RecordSink for Vec<ResponseRecord> {
    #[inline]
    fn record(&mut self, rec: ResponseRecord) {
        self.push(rec);
    }
}

/// Tuning for the streaming record pipeline.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Records per chunk handed to the consumer. Large enough to
    /// amortize channel synchronization, small enough that a chunk is
    /// cache-friendly.
    pub chunk_records: usize,
    /// Chunks the bounded channel holds before the prober blocks — the
    /// pipeline's entire record buffering, and therefore its peak
    /// record memory: `chunk_records * (channel_chunks + 2)` records
    /// (one chunk filling at the prober, `channel_chunks` in flight,
    /// one draining at the consumer).
    pub channel_chunks: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            chunk_records: 4096,
            channel_chunks: 4,
        }
    }
}

/// The consumer end of a streaming pipeline disappeared (its
/// [`RecordStream`] was dropped) before the prober finished: at least
/// one record chunk could not be delivered. Surfaced by
/// [`ChunkSender::finish`] so the campaign driver can report a
/// `SinkDisconnected` campaign error instead of silently losing
/// records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SinkDisconnected;

impl std::fmt::Display for SinkDisconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "record stream consumer disconnected before the prober finished"
        )
    }
}

impl std::error::Error for SinkDisconnected {}

/// The streaming sink: batches records into chunks and sends them over
/// a bounded channel. Created by [`RecordStream::channel`].
pub struct ChunkSender {
    tx: mpsc::SyncSender<Vec<ResponseRecord>>,
    /// Spent buffers coming back from the consumer.
    spare: mpsc::Receiver<Vec<ResponseRecord>>,
    buf: Vec<ResponseRecord>,
    chunk_records: usize,
    /// Set when a chunk send failed because the consumer dropped its
    /// [`RecordStream`]; sticky — later records are discarded cheaply
    /// and [`ChunkSender::finish`] reports the loss.
    disconnected: bool,
}

impl RecordSink for ChunkSender {
    #[inline]
    fn record(&mut self, rec: ResponseRecord) {
        self.buf.push(rec);
        if self.buf.len() >= self.chunk_records {
            self.flush();
        }
    }
}

impl ChunkSender {
    /// Sends the current partial chunk, swapping in a recycled buffer
    /// when the consumer has returned one. A send error means the
    /// consumer dropped its stream; the sender goes sticky-disconnected
    /// — remaining records are discarded cheaply so the prober can run
    /// to completion, and [`ChunkSender::finish`] reports the loss.
    fn flush(&mut self) {
        if self.disconnected {
            self.buf.clear();
            return;
        }
        if self.buf.is_empty() {
            return;
        }
        let mut next = self.spare.try_recv().unwrap_or_default();
        next.clear();
        let full = std::mem::replace(&mut self.buf, next);
        if self.tx.send(full).is_err() {
            self.disconnected = true;
        }
    }

    /// Flushes the trailing partial chunk and closes the stream; the
    /// consumer's iteration ends once the channel drains. Returns
    /// [`SinkDisconnected`] when the consumer vanished before the
    /// prober finished (records were lost) — a clean error path where
    /// an unchecked send would have poisoned the prober thread.
    pub fn finish(mut self) -> Result<(), SinkDisconnected> {
        self.flush();
        if self.disconnected {
            Err(SinkDisconnected)
        } else {
            Ok(())
        }
    }
}

/// The consumer end of a streaming record pipeline.
pub struct RecordStream {
    rx: mpsc::Receiver<Vec<ResponseRecord>>,
    spare_tx: mpsc::Sender<Vec<ResponseRecord>>,
}

impl RecordStream {
    /// Creates a connected `(sender, stream)` pair with `cfg`'s chunk
    /// size and channel bound.
    pub fn channel(cfg: &StreamConfig) -> (ChunkSender, RecordStream) {
        let (tx, rx) = mpsc::sync_channel(cfg.channel_chunks.max(1));
        let (spare_tx, spare) = mpsc::channel();
        (
            ChunkSender {
                tx,
                spare,
                buf: Vec::with_capacity(cfg.chunk_records.max(1)),
                chunk_records: cfg.chunk_records.max(1),
                disconnected: false,
            },
            RecordStream { rx, spare_tx },
        )
    }

    /// Drains the stream, calling `f` once per chunk (in emission
    /// order) and recycling each spent buffer back to the prober.
    /// Returns when the sender side finishes.
    pub fn for_each_chunk(self, mut f: impl FnMut(&[ResponseRecord])) {
        for chunk in self.rx.iter() {
            f(&chunk);
            // The prober may already be gone (it sent everything and
            // finished); a dead spare channel is fine.
            let _ = self.spare_tx.send(chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ResponseKind;
    use std::net::Ipv6Addr;

    fn rec(i: u64) -> ResponseRecord {
        ResponseRecord {
            target: Ipv6Addr::from(i as u128),
            responder: Ipv6Addr::from(0xff00 + i as u128),
            kind: ResponseKind::TimeExceeded,
            probe_ttl: Some((i % 16) as u8),
            rtt_us: Some(i),
            recv_us: i * 7 % 97,
            target_cksum_ok: true,
        }
    }

    #[test]
    fn chunks_preserve_order_and_nothing_is_lost() {
        let cfg = StreamConfig {
            chunk_records: 8,
            channel_chunks: 2,
        };
        let (mut sink, stream) = RecordStream::channel(&cfg);
        let n = 1000u64;
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            let mut chunks = 0usize;
            stream.for_each_chunk(|c| {
                assert!(c.len() <= 8);
                got.extend_from_slice(c);
                chunks += 1;
            });
            (got, chunks)
        });
        for i in 0..n {
            sink.record(rec(i));
        }
        sink.finish().unwrap();
        let (got, chunks) = consumer.join().unwrap();
        assert_eq!(got, (0..n).map(rec).collect::<Vec<_>>());
        assert_eq!(chunks, n.div_ceil(8) as usize);
    }

    #[test]
    fn trailing_partial_chunk_is_flushed() {
        let cfg = StreamConfig {
            chunk_records: 64,
            channel_chunks: 1,
        };
        let (mut sink, stream) = RecordStream::channel(&cfg);
        let consumer = std::thread::spawn(move || {
            let mut got = 0usize;
            stream.for_each_chunk(|c| got += c.len());
            got
        });
        for i in 0..5 {
            sink.record(rec(i));
        }
        sink.finish().unwrap();
        assert_eq!(consumer.join().unwrap(), 5);
    }

    #[test]
    fn dropped_consumer_is_a_clean_error_not_a_panic() {
        let cfg = StreamConfig {
            chunk_records: 4,
            channel_chunks: 1,
        };
        let (mut sink, stream) = RecordStream::channel(&cfg);
        drop(stream);
        // Filling chunks against a dead consumer must not panic or
        // block; the sender goes sticky-disconnected and keeps eating
        // records.
        for i in 0..64 {
            sink.record(rec(i));
        }
        assert!(sink.disconnected);
        assert_eq!(sink.finish(), Err(SinkDisconnected));
    }

    #[test]
    fn consumer_that_drains_everything_yields_clean_finish() {
        let cfg = StreamConfig {
            chunk_records: 4,
            channel_chunks: 1,
        };
        let (mut sink, stream) = RecordStream::channel(&cfg);
        let consumer = std::thread::spawn(move || {
            let mut got = 0usize;
            stream.for_each_chunk(|c| got += c.len());
            got
        });
        for i in 0..10 {
            sink.record(rec(i));
        }
        assert!(!sink.disconnected);
        assert!(sink.finish().is_ok());
        assert_eq!(consumer.join().unwrap(), 10);
    }
}
