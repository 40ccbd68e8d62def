//! Campaign drivers: binding probers to vantages and target sets.
//!
//! A campaign is `(vantage, target set, prober config)` run against a
//! fresh [`Engine`] (fresh token buckets — campaigns are independent, as
//! the paper launched its 54 campaigns separately). There are two ways
//! to run one, and one way to run many of either:
//!
//! * **batch** — [`run_campaign`] returns the campaign's whole
//!   [`ProbeLog`]; [`try_run_campaigns_parallel`] does that for a list
//!   of [`CampaignSpec`]s.
//! * **streaming** — [`run_campaigns_streaming`] runs each campaign's
//!   prober on its own thread, connected by the bounded chunk channel
//!   of [`crate::sink`] to a caller-supplied consumer: the consumer
//!   sees fixed-size record chunks as they are produced and the
//!   campaign's full log never exists in memory. `analysis` installs an
//!   incremental trace builder as that consumer.
//!
//! Many campaigns share one worker pool: a fixed set of threads pulling
//! campaign indices from a shared atomic queue, so a slow campaign never
//! stalls unrelated ones; the engine is per-campaign so no locking is
//! needed beyond the shared, read-only topology. Results come back in
//! input order and are bit-identical whether the pool or the calling
//! thread ran them.
//!
//! ## Fault tolerance
//!
//! No driver panics on a failed campaign: a prober-thread panic, a
//! consumer panic or a disconnected record stream each map to a
//! [`CampaignError`] tagged with the failed campaign, so a
//! multi-campaign run keeps its completed results. Every streaming
//! campaign runs under [`supervise`], which retries a failed or
//! blacked-out attempt with bounded exponential backoff — *in virtual
//! time*, so a retry deterministically lands later on the fault
//! schedule's clock (see [`simnet::FaultSchedule`]) and a transient outage
//! heals without any wall clock involved. Exhausted retries come back
//! tagged `degraded` with the error preserved. "Unsupervised" is the
//! same path under [`RetryPolicy::NONE`].

use crate::record::ProbeLog;
use crate::sink::{RecordStream, StreamConfig};
use crate::yarrp::{self, YarrpConfig};
use simnet::{Engine, EngineStats, Topology};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use targets::TargetSet;

/// A finished campaign: the prober's log plus the engine's ground-truth
/// accounting (used by tests and the rate-limiting analyses).
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// The prober's view.
    pub log: ProbeLog,
    /// The simulator's view.
    pub engine_stats: EngineStats,
}
/// Why a campaign failed — every variant names the campaign it came
/// from, so a multi-campaign driver can keep its completed results and
/// report exactly which `(vantage, target set)` went down.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CampaignError {
    /// The prober thread panicked; `message` carries the panic payload.
    ProberPanic {
        /// Vantage the campaign probed from.
        vantage_idx: u8,
        /// Name of the target set being probed.
        target_set: Arc<str>,
        /// The panic payload, stringified.
        message: String,
    },
    /// The streaming consumer panicked while draining the record
    /// stream; `message` carries the panic payload.
    ConsumerPanic {
        /// Vantage the campaign probed from.
        vantage_idx: u8,
        /// Name of the target set being probed.
        target_set: Arc<str>,
        /// The panic payload, stringified.
        message: String,
    },
    /// The streaming consumer dropped its [`RecordStream`] before the
    /// prober finished: records were lost, the output is incomplete.
    SinkDisconnected {
        /// Vantage the campaign probed from.
        vantage_idx: u8,
        /// Name of the target set being probed.
        target_set: Arc<str>,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::ProberPanic {
                vantage_idx,
                target_set,
                message,
            } => write!(
                f,
                "prober thread panicked (vantage {vantage_idx}, set {target_set}): {message}"
            ),
            CampaignError::ConsumerPanic {
                vantage_idx,
                target_set,
                message,
            } => write!(
                f,
                "record consumer panicked (vantage {vantage_idx}, set {target_set}): {message}"
            ),
            CampaignError::SinkDisconnected {
                vantage_idx,
                target_set,
            } => write!(
                f,
                "record stream disconnected mid-campaign (vantage {vantage_idx}, set {target_set})"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Stringifies a panic payload (the `Box<dyn Any>` from a failed join
/// or [`catch_unwind`]) for [`CampaignError`] messages.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one Yarrp6 campaign on a fresh engine.
pub fn run_campaign(
    topo: &Arc<Topology>,
    vantage_idx: u8,
    set: &TargetSet,
    cfg: &YarrpConfig,
) -> CampaignResult {
    let mut engine = Engine::new(topo.clone());
    let mut log = yarrp::run(&mut engine, vantage_idx, &set.addrs, cfg);
    log.target_set = set.name.clone();
    debug_assert_eq!(engine.stats.check(), Ok(()));
    CampaignResult {
        log,
        engine_stats: engine.stats,
    }
}

/// A campaign specification for the many-campaign drivers.
pub struct CampaignSpec<'a> {
    /// Vantage index.
    pub vantage_idx: u8,
    /// Target set to probe.
    pub set: &'a TargetSet,
    /// Prober configuration.
    pub cfg: YarrpConfig,
}

/// The workspace's one work queue: maps `f` over `0..n`, results in
/// index order. With `parallel`, a fixed pool of worker threads (bounded
/// by the machine) claims indices from a shared atomic counter — unlike
/// a wave-join, no worker ever idles behind a slow item in its wave: the
/// pool stays busy until the queue drains. Otherwise `f` runs on the
/// calling thread. A panic in `f` panics the caller either way: the
/// scope re-raises a worker's panic once every worker has stopped, so
/// a result that comes back has every slot filled.
pub fn pool_map<R: Send>(n: usize, parallel: bool, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if !parallel {
        return (0..n).map(f).collect();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let (tx, next, f) = (tx.clone(), &next, &f);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in rx {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("the scope returned, so every worker sent its items"))
        .collect()
}

/// Runs many batch campaigns on the worker pool, returning results in
/// input order: each slot holds either the finished campaign or the
/// [`CampaignError`] that took it down — one poisoned campaign does
/// not abort its siblings.
pub fn try_run_campaigns_parallel(
    topo: &Arc<Topology>,
    specs: &[CampaignSpec<'_>],
) -> Vec<Result<CampaignResult, CampaignError>> {
    pool_map(specs.len(), true, |i| {
        let spec = &specs[i];
        catch_unwind(AssertUnwindSafe(|| {
            run_campaign(topo, spec.vantage_idx, spec.set, &spec.cfg)
        }))
        .map_err(|payload| CampaignError::ProberPanic {
            vantage_idx: spec.vantage_idx,
            target_set: spec.set.name.clone(),
            message: panic_message(payload),
        })
    })
}

/// A finished *streaming* campaign: whatever the consumer produced,
/// plus the send-side counters and the engine's accounting. `log` is
/// the counters-only [`ProbeLog`] from
/// [`yarrp::run_with_sink`] — its `records` is empty; the records went
/// through the consumer.
#[derive(Clone, Debug)]
pub struct StreamedCampaign<T> {
    /// The consumer's product (e.g. a finished trace set).
    pub output: T,
    /// Send-side counters (empty `records`).
    pub log: ProbeLog,
    /// The simulator's view.
    pub engine_stats: EngineStats,
}

/// One streaming attempt — the only place a campaign thread is spawned:
/// the prober runs on a scoped thread while `consume` drains the bounded
/// record stream on the calling thread.
///
/// The prober blocks when the consumer falls `stream.channel_chunks`
/// chunks behind (backpressure bounds memory); the consumer's
/// [`RecordStream`] ends when the prober finishes. Records arrive in
/// emission order — the order a [`ProbeLog`] would hold them *before*
/// its final [`ProbeLog::sort_by_recv`]; an order-sensitive consumer
/// (like `analysis`'s trace builder) accounts for that itself.
///
/// `start_us` is the attempt's start on the fault schedule's virtual
/// clock: the engine evaluates its [`simnet::FaultSchedule`] at
/// `probe send time + start_us` ([`Engine::set_fault_offset`]), so
/// attempts launched "later" (retries, later adaptive rounds)
/// deterministically see later parts of scheduled outages.
fn stream_attempt<T>(
    topo: &Arc<Topology>,
    spec: &CampaignSpec<'_>,
    stream: &StreamConfig,
    start_us: u64,
    consume: impl FnOnce(RecordStream) -> T,
) -> Result<StreamedCampaign<T>, CampaignError> {
    let (vantage_idx, set) = (spec.vantage_idx, spec.set);
    let (sink, records) = RecordStream::channel(stream);
    std::thread::scope(|s| {
        let prober = s.spawn(move || {
            let mut engine = Engine::new(topo.clone());
            engine.set_fault_offset(start_us);
            let mut sink = sink;
            let mut log =
                yarrp::run_with_sink(&mut engine, vantage_idx, &set.addrs, &spec.cfg, &mut sink);
            log.target_set = set.name.clone();
            debug_assert_eq!(engine.stats.check(), Ok(()));
            // The stream ends at `finish`, and there the consumer
            // starts on its own product (a trace builder assembles its
            // columns): the engine — flows, hop arena, key index — goes
            // first, so the two never share the heap.
            let engine_stats = engine.stats;
            drop(engine);
            (log, engine_stats, sink.finish().is_ok())
        });
        let output = consume(records);
        // Joining explicitly (instead of letting the scope re-panic)
        // turns a poisoned prober into a value the caller can route.
        match prober.join() {
            Ok((log, engine_stats, true)) => Ok(StreamedCampaign {
                output,
                log,
                engine_stats,
            }),
            Ok((_, _, false)) => Err(CampaignError::SinkDisconnected {
                vantage_idx,
                target_set: set.name.clone(),
            }),
            Err(payload) => Err(CampaignError::ProberPanic {
                vantage_idx,
                target_set: set.name.clone(),
                message: panic_message(payload),
            }),
        }
    })
}

/// Retry policy of [`supervise`]: bounded exponential backoff on the
/// virtual clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries + 1` attempts
    /// total).
    pub max_retries: u32,
    /// Backoff before retry `k` (0-based) is
    /// `base_backoff_us << k` — exponential, in virtual microseconds.
    pub base_backoff_us: u64,
    /// Also retry *blackouts*: attempts that completed without error
    /// but whose engine charged injected-fault drops and produced zero
    /// responses (the signature of probing into an outage window). The
    /// retry starts later on the fault clock, so a transient outage
    /// heals by itself.
    pub retry_blackout: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff_us: 250_000,
            retry_blackout: true,
        }
    }
}

impl RetryPolicy {
    /// No supervision: one attempt, nothing retried. An "unsupervised"
    /// campaign is a supervised one under this policy.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_retries: 0,
        base_backoff_us: 0,
        retry_blackout: false,
    };

    /// Backoff before retry `attempt` (0-based): exponential, capped at
    /// `base << 20` so the virtual clock cannot overflow.
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        self.base_backoff_us.saturating_mul(1u64 << attempt.min(20))
    }

    /// Total attempts the supervisor makes (`max_retries + 1`).
    pub(crate) fn max_attempts(&self) -> u32 {
        self.max_retries.saturating_add(1)
    }
}

/// What one completed attempt reports back to [`supervise`].
#[derive(Clone, Debug)]
pub struct Attempt<T> {
    /// The attempt's product.
    pub output: T,
    /// The attempt's engine accounting.
    pub stats: EngineStats,
    /// Virtual time the attempt occupied.
    pub duration_us: u64,
    /// The attempt completed but probed into an outage: the engine
    /// charged injected-fault drops and nothing answered.
    pub blackout: bool,
}

/// The outcome of [`supervise`]: the last attempt's product (if any
/// attempt completed), the error that exhausted the retries (if none
/// did), and accounting that covers *every* attempt — retries inject
/// real probes, so their cost must be visible to budget keepers.
#[derive(Clone, Debug)]
pub struct Supervised<T, E> {
    /// The final completed attempt's output, or `None` when every
    /// attempt failed hard.
    pub result: Option<T>,
    /// The error that ended the last failed attempt, when `result` is
    /// `None`.
    pub error: Option<E>,
    /// Engine accounting merged over **all completed attempts** —
    /// blacked-out attempts burn probes too.
    pub stats: EngineStats,
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Virtual time the whole supervised run occupied: every attempt's
    /// duration plus every backoff.
    pub elapsed_us: u64,
    /// Every retry failed hard, or the final attempt was still a
    /// blackout.
    pub degraded: bool,
}

/// The retry loop behind every supervised measurement (streaming
/// campaigns here, speedtrap in `aliasres`): `attempt` is called with
/// its start time on the **virtual** clock — `start_us` for the first,
/// then where the previous attempt's virtual time plus backoff ended,
/// so against a [`simnet::FaultSchedule`] the retry sequence is exactly
/// reproducible. An attempt that returns `Err`, panics (`on_panic` turns
/// the payload message into the caller's error) or reports a
/// [blackout](Attempt::blackout) is retried per `policy`; partial
/// output of a failed attempt is discarded. After
/// `policy.max_attempts()` the run comes back `degraded` instead of
/// panicking.
pub fn supervise<T, E>(
    policy: &RetryPolicy,
    start_us: u64,
    mut attempt: impl FnMut(u64) -> Result<Attempt<T>, E>,
    on_panic: impl Fn(String) -> E,
) -> Supervised<T, E> {
    let max_attempts = policy.max_attempts();
    let mut stats = EngineStats::default();
    let mut clock = start_us;
    let mut attempts = 0u32;
    loop {
        let res = catch_unwind(AssertUnwindSafe(|| attempt(clock)))
            .unwrap_or_else(|payload| Err(on_panic(panic_message(payload))));
        attempts += 1;
        let last = attempts == max_attempts;
        let done = match res {
            Ok(a) => {
                stats.merge(&a.stats);
                clock = clock.saturating_add(a.duration_us);
                let retry = a.blackout && policy.retry_blackout && !last;
                (!retry).then_some((Some(a.output), None, a.blackout))
            }
            Err(e) => last.then_some((None, Some(e), true)),
        };
        if let Some((result, error, degraded)) = done {
            return Supervised {
                result,
                error,
                stats,
                attempts,
                elapsed_us: clock - start_us,
                degraded,
            };
        }
        clock = clock.saturating_add(policy.backoff_us(attempts - 1));
    }
}

/// One campaign's [`Supervised`] outcome, tagged with its vantage.
#[derive(Clone, Debug)]
pub struct SupervisedCampaign<T> {
    /// Vantage the campaign probed from.
    pub vantage_idx: u8,
    /// The final completed attempt, or `None` when every attempt failed
    /// hard (panic/disconnect).
    pub result: Option<StreamedCampaign<T>>,
    /// The error that ended the last failed attempt, when `result` is
    /// `None`.
    pub error: Option<CampaignError>,
    /// Engine accounting merged over **all completed attempts**.
    pub stats: EngineStats,
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Virtual time the whole supervised campaign occupied. The
    /// caller's global clock advances by this.
    pub elapsed_us: u64,
    /// The campaign ended degraded: every retry failed hard, or the
    /// final attempt was still a blackout (faults charged, zero
    /// responses).
    pub degraded: bool,
}

impl<T> SupervisedCampaign<T> {
    /// The final attempt's output, when one completed.
    pub fn output(&self) -> Option<&T> {
        self.result.as_ref().map(|r| &r.output)
    }
}

/// Runs many streaming campaigns, each under [`supervise`], returning
/// outcomes in input order. Never panics; per-campaign outcomes carry
/// their own errors, so completed campaigns survive a failed sibling.
///
/// `make_consumer` is called once per attempt (with the campaign's
/// index into `specs`), on the thread that runs the campaign, to create
/// that attempt's consumer — e.g. a fresh incremental trace builder.
/// Every campaign starts at the same `start_us` on the global virtual
/// clock (they model concurrent vantage campaigns of one round).
/// `parallel` picks the worker pool over the calling thread; the two are
/// bit-identical (campaigns are engine-isolated and every attempt's
/// clock is derived from `start_us`, not from wall time). Peak record
/// memory per campaign is `chunk_records × (channel_chunks + 2)` (the
/// prober's chunk, the channel, the consumer's chunk).
pub fn run_campaigns_streaming<T, C, F>(
    topo: &Arc<Topology>,
    specs: &[CampaignSpec<'_>],
    stream: &StreamConfig,
    policy: &RetryPolicy,
    start_us: u64,
    parallel: bool,
    make_consumer: F,
) -> Vec<SupervisedCampaign<T>>
where
    T: Send,
    C: FnOnce(RecordStream) -> T,
    F: Fn(usize, &CampaignSpec<'_>) -> C + Sync,
{
    let run_one = |i: usize| {
        let spec = &specs[i];
        supervise(
            policy,
            start_us,
            |clock| {
                let run = stream_attempt(topo, spec, stream, clock, make_consumer(i, spec))?;
                Ok(Attempt {
                    stats: run.engine_stats,
                    duration_us: run.log.duration_us,
                    blackout: run.engine_stats.fault_dropped_total() > 0
                        && run.engine_stats.responses() == 0,
                    output: run,
                })
            },
            |message| CampaignError::ConsumerPanic {
                vantage_idx: spec.vantage_idx,
                target_set: spec.set.name.clone(),
                message,
            },
        )
    };
    pool_map(specs.len(), parallel, run_one)
        .into_iter()
        .zip(specs)
        .map(|(run, spec)| SupervisedCampaign {
            vantage_idx: spec.vantage_idx,
            result: run.result,
            error: run.error,
            stats: run.stats,
            attempts: run.attempts,
            elapsed_us: run.elapsed_us,
            degraded: run.degraded,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ResponseRecord;
    use simnet::config::TopologyConfig;
    use simnet::generate::generate;
    use simnet::FaultSchedule;
    use std::net::Ipv6Addr;

    fn fixture() -> (Arc<Topology>, TargetSet) {
        let topo = Arc::new(generate(TopologyConfig::tiny(42)));
        let addrs: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(40).collect();
        let set = TargetSet::new("test-set", addrs);
        (topo, set)
    }

    fn three_vantages(set: &TargetSet, cfg: YarrpConfig) -> Vec<CampaignSpec<'_>> {
        (0..3u8)
            .map(|v| CampaignSpec {
                vantage_idx: v,
                set,
                cfg,
            })
            .collect()
    }

    /// The consumer most tests install: every streamed record, in
    /// emission order.
    fn collect(_: usize, _: &CampaignSpec<'_>) -> fn(RecordStream) -> Vec<ResponseRecord> {
        |records| {
            let mut all = Vec::new();
            records.for_each_chunk(|c| all.extend_from_slice(c));
            all
        }
    }

    fn discard(_: usize, _: &CampaignSpec<'_>) -> fn(RecordStream) {
        |records| records.for_each_chunk(|_| {})
    }

    /// One streaming campaign through the many-campaign driver.
    fn stream_one<T: Send, C: FnOnce(RecordStream) -> T>(
        topo: &Arc<Topology>,
        spec: CampaignSpec<'_>,
        stream: &StreamConfig,
        policy: &RetryPolicy,
        make_consumer: impl Fn(usize, &CampaignSpec<'_>) -> C + Sync,
    ) -> SupervisedCampaign<T> {
        run_campaigns_streaming(topo, &[spec], stream, policy, 0, false, make_consumer)
            .pop()
            .expect("one spec, one outcome")
    }

    #[test]
    fn single_campaign_runs() {
        let (topo, set) = fixture();
        let res = run_campaign(&topo, 0, &set, &YarrpConfig::default());
        assert_eq!(&*res.log.target_set, "test-set");
        assert_eq!(&*res.log.vantage, "EU-NET");
        assert!(res.engine_stats.probes >= res.log.probes_sent);
        assert!(!res.log.records.is_empty());
    }

    /// On the pool the scope re-raises a worker's panic after joining
    /// the others, so no caller ever sees a slot without a result.
    #[test]
    fn a_panicking_item_panics_the_caller() {
        for parallel in [false, true] {
            let run = || pool_map(8, parallel, |i| if i == 5 { panic!("item {i}") } else { i });
            assert!(catch_unwind(run).is_err(), "parallel = {parallel}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let (topo, set) = fixture();
        let cfg = YarrpConfig::default();
        let serial: Vec<CampaignResult> = (0..3u8)
            .map(|v| run_campaign(&topo, v, &set, &cfg))
            .collect();
        let parallel = try_run_campaigns_parallel(&topo, &three_vantages(&set, cfg));
        for (s, p) in serial.iter().zip(&parallel) {
            let p = p.as_ref().expect("clean campaign completes");
            assert_eq!(s.log.records, p.log.records, "campaign divergence");
            assert_eq!(s.engine_stats, p.engine_stats);
        }
    }

    #[test]
    fn streaming_campaign_delivers_the_batch_records() {
        let (topo, set) = fixture();
        let cfg = YarrpConfig::default();
        let batch = run_campaign(&topo, 0, &set, &cfg);
        let stream = StreamConfig {
            chunk_records: 32,
            channel_chunks: 2,
        };
        let spec = CampaignSpec {
            vantage_idx: 0,
            set: &set,
            cfg,
        };
        let streamed = stream_one(&topo, spec, &stream, &RetryPolicy::NONE, collect)
            .result
            .expect("clean campaign completes");
        // Same records (the batch log is receive-sorted; the stream is
        // emission-ordered), same counters, same engine view.
        let mut collected = streamed.output;
        collected.sort_by_key(|r| r.recv_us);
        assert_eq!(collected, batch.log.records);
        assert!(streamed.log.records.is_empty());
        assert_eq!(streamed.log.probes_sent, batch.log.probes_sent);
        assert_eq!(streamed.log.fills, batch.log.fills);
        assert_eq!(streamed.log.discarded, batch.log.discarded);
        assert_eq!(streamed.log.duration_us, batch.log.duration_us);
        assert_eq!(&*streamed.log.target_set, "test-set");
        assert_eq!(streamed.engine_stats, batch.engine_stats);
    }

    #[test]
    fn serial_streaming_matches_parallel_streaming() {
        let (topo, set) = fixture();
        let specs = three_vantages(&set, YarrpConfig::default());
        let stream = StreamConfig::default();
        let none = RetryPolicy::NONE;
        let serial = run_campaigns_streaming(&topo, &specs, &stream, &none, 0, false, collect);
        let parallel = run_campaigns_streaming(&topo, &specs, &stream, &none, 0, true, collect);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.into_iter().zip(parallel) {
            let (s, p) = (s.result.expect("serial"), p.result.expect("parallel"));
            assert_eq!(s.output, p.output);
            assert_eq!(s.engine_stats, p.engine_stats);
            assert_eq!(s.log.probes_sent, p.log.probes_sent);
        }
    }

    #[test]
    fn parallel_streaming_matches_parallel_batch() {
        let (topo, set) = fixture();
        let specs = three_vantages(&set, YarrpConfig::default());
        let batch = try_run_campaigns_parallel(&topo, &specs);
        let streamed = run_campaigns_streaming(
            &topo,
            &specs,
            &StreamConfig::default(),
            &RetryPolicy::NONE,
            0,
            true,
            collect,
        );
        assert_eq!(streamed.len(), batch.len());
        for (s, b) in streamed.into_iter().zip(batch) {
            let (s, b) = (s.result.expect("streamed"), b.expect("batch"));
            let mut collected = s.output;
            collected.sort_by_key(|r| r.recv_us);
            assert_eq!(collected, b.log.records);
            assert_eq!(s.engine_stats, b.engine_stats);
        }
    }

    #[test]
    fn vantages_differ_in_results() {
        let (topo, set) = fixture();
        let cfg = YarrpConfig::default();
        let a = run_campaign(&topo, 0, &set, &cfg);
        let c = run_campaign(&topo, 2, &set, &cfg);
        // US-EDU-2's longer on-prem path shows up in its discoveries.
        assert_ne!(a.log.interface_addrs(), c.log.interface_addrs());
    }

    /// max_ttl 0 trips the prober's config assert on its thread.
    fn panicking_config() -> YarrpConfig {
        YarrpConfig {
            max_ttl: 0,
            fill_max_ttl: 0,
            ..YarrpConfig::default()
        }
    }

    #[test]
    fn prober_panic_is_a_campaign_error_not_a_crash() {
        let (topo, set) = fixture();
        let spec = CampaignSpec {
            vantage_idx: 0,
            set: &set,
            cfg: panicking_config(),
        };
        let policy = RetryPolicy::NONE;
        let res = stream_one(&topo, spec, &StreamConfig::default(), &policy, discard);
        assert!(res.result.is_none());
        assert!(res.degraded);
        match res.error {
            Some(CampaignError::ProberPanic {
                vantage_idx,
                target_set,
                message,
            }) => {
                assert_eq!(vantage_idx, 0);
                assert_eq!(&*target_set, "test-set");
                assert!(!message.is_empty());
            }
            other => panic!("expected ProberPanic, got {other:?}"),
        }
    }

    #[test]
    fn dropped_stream_is_a_sink_disconnect_error() {
        let (topo, set) = fixture();
        let stream = StreamConfig {
            chunk_records: 1, // every record forces a send
            channel_chunks: 1,
        };
        let spec = CampaignSpec {
            vantage_idx: 0,
            set: &set,
            cfg: YarrpConfig::default(),
        };
        let res = stream_one(&topo, spec, &stream, &RetryPolicy::NONE, |_, _| drop);
        assert_eq!(
            res.error,
            Some(CampaignError::SinkDisconnected {
                vantage_idx: 0,
                target_set: set.name.clone(),
            })
        );
    }

    #[test]
    fn consumer_panic_is_a_campaign_error_and_is_retried() {
        let (topo, set) = fixture();
        let spec = CampaignSpec {
            vantage_idx: 2,
            set: &set,
            cfg: YarrpConfig::default(),
        };
        let policy = RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        };
        let res = stream_one(&topo, spec, &StreamConfig::default(), &policy, |_, _| {
            |_: RecordStream| panic!("consumer blew up")
        });
        assert_eq!(res.attempts, 2);
        assert!(res.degraded);
        assert_eq!(
            res.elapsed_us,
            policy.backoff_us(0),
            "failed attempts take no time"
        );
        assert_eq!(
            res.error,
            Some(CampaignError::ConsumerPanic {
                vantage_idx: 2,
                target_set: set.name.clone(),
                message: "consumer blew up".into(),
            })
        );
    }

    #[test]
    fn completed_campaigns_are_kept_around_failures() {
        let (topo, set) = fixture();
        let mut specs = three_vantages(&set, YarrpConfig::default());
        specs[1].cfg = panicking_config();
        let out = try_run_campaigns_parallel(&topo, &specs);
        assert!(out[0].is_ok());
        assert!(matches!(
            out[1],
            Err(CampaignError::ProberPanic { vantage_idx: 1, .. })
        ));
        assert!(out[2].is_ok());
        // Streamed form captures the same failure per slot.
        let streamed = run_campaigns_streaming(
            &topo,
            &specs,
            &StreamConfig::default(),
            &RetryPolicy::NONE,
            0,
            true,
            discard,
        );
        assert!(streamed[0].result.is_some());
        assert!(matches!(
            streamed[1].error,
            Some(CampaignError::ProberPanic { vantage_idx: 1, .. })
        ));
        assert!(streamed[2].result.is_some());
    }

    #[test]
    fn no_retry_policy_matches_default_policy_when_clean() {
        let (topo, set) = fixture();
        let stream = StreamConfig::default();
        let spec = || CampaignSpec {
            vantage_idx: 0,
            set: &set,
            cfg: YarrpConfig::default(),
        };
        let plain = stream_one(&topo, spec(), &stream, &RetryPolicy::NONE, collect);
        let sup = stream_one(&topo, spec(), &stream, &RetryPolicy::default(), collect);
        for run in [&plain, &sup] {
            assert_eq!(run.attempts, 1);
            assert!(!run.degraded);
            assert!(run.error.is_none());
        }
        assert_eq!(sup.stats, plain.stats);
        assert_eq!(sup.elapsed_us, plain.elapsed_us);
        let plain = plain.result.expect("clean campaign completes");
        let run = sup.result.expect("clean campaign completes");
        assert_eq!(run.output, plain.output);
        assert_eq!(run.engine_stats, plain.engine_stats);
        assert_eq!(sup.stats, plain.engine_stats);
        assert_eq!(sup.elapsed_us, run.log.duration_us);
    }

    #[test]
    fn supervisor_retries_heal_a_transient_outage() {
        let topo_cfg = TopologyConfig::tiny(42);
        let clean_topo = Arc::new(generate(topo_cfg.clone()));
        let addrs: Vec<Ipv6Addr> = clean_topo.hosts().map(|(a, _)| a).take(40).collect();
        let set = TargetSet::new("test-set", addrs);
        let spec = || CampaignSpec {
            vantage_idx: 0,
            set: &set,
            cfg: YarrpConfig {
                fill_mode: false,
                max_ttl: 8,
                ..YarrpConfig::default()
            },
        };
        // 40 targets × 8 TTLs at 1k pps = 320 ms of campaign. Outage
        // covers attempt 0 entirely; with a 500 ms backoff, attempt 1
        // starts past the window and completes clean.
        let mut faulty_cfg = topo_cfg;
        faulty_cfg.faults = FaultSchedule::default().with_vantage_outage(0, 0, 700_000);
        let faulty_topo = Arc::new(generate(faulty_cfg));
        let policy = RetryPolicy {
            max_retries: 2,
            base_backoff_us: 500_000,
            retry_blackout: true,
        };
        let stream = StreamConfig::default();
        let count = |_: usize, _: &CampaignSpec<'_>| {
            |records: RecordStream| {
                let mut n = 0usize;
                records.for_each_chunk(|c| n += c.len());
                n
            }
        };
        let sup = stream_one(&faulty_topo, spec(), &stream, &policy, count);
        assert_eq!(sup.attempts, 2, "blackout attempt then clean retry");
        assert!(!sup.degraded);
        let run = sup.result.expect("retry completes");
        assert!(run.engine_stats.responses() > 0);
        assert_eq!(run.engine_stats.fault_dropped_total(), 0);
        // The blacked-out attempt's probes still show in the merged
        // accounting.
        assert_eq!(sup.stats.fault_vantage_outage, run.engine_stats.probes);
        // The healed retry equals the fault-free campaign bit for bit.
        let clean = stream_one(&clean_topo, spec(), &stream, &RetryPolicy::NONE, count)
            .result
            .expect("clean campaign completes");
        assert_eq!(run.output, clean.output);
        assert_eq!(run.engine_stats, clean.engine_stats);
        // Deterministic: the same supervised campaign replays exactly.
        let again = stream_one(&faulty_topo, spec(), &stream, &policy, count);
        assert_eq!(again.attempts, sup.attempts);
        assert_eq!(again.stats, sup.stats);
        assert_eq!(again.elapsed_us, sup.elapsed_us);
    }

    #[test]
    fn supervisor_reports_degraded_after_exhausted_retries() {
        let mut topo_cfg = TopologyConfig::tiny(42);
        // A permanent outage: every attempt blacks out.
        topo_cfg.faults = FaultSchedule::default().with_vantage_outage(0, 0, u64::MAX);
        let topo = Arc::new(generate(topo_cfg));
        let addrs: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(20).collect();
        let set = TargetSet::new("test-set", addrs);
        let spec = CampaignSpec {
            vantage_idx: 0,
            set: &set,
            cfg: YarrpConfig::default(),
        };
        let policy = RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        };
        let sup = stream_one(&topo, spec, &StreamConfig::default(), &policy, discard);
        assert_eq!(sup.attempts, 2);
        assert!(sup.degraded, "permanent outage must end degraded");
        assert!(sup.result.is_some(), "blackout still yields the attempt");
        assert!(sup.error.is_none());
        assert_eq!(sup.stats.responses(), 0);
        assert_eq!(sup.stats.fault_vantage_outage, sup.stats.probes);
    }

    #[test]
    fn supervised_parallel_matches_serial() {
        let mut topo_cfg = TopologyConfig::tiny(42);
        topo_cfg.faults = FaultSchedule::default().with_vantage_outage(1, 0, 400_000);
        let topo = Arc::new(generate(topo_cfg));
        let addrs: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(30).collect();
        let set = TargetSet::new("test-set", addrs);
        let yarrp = YarrpConfig {
            fill_mode: false,
            max_ttl: 8,
            ..YarrpConfig::default()
        };
        let specs = three_vantages(&set, yarrp);
        let stream = StreamConfig::default();
        let policy = RetryPolicy::default();
        let serial = run_campaigns_streaming(&topo, &specs, &stream, &policy, 0, false, collect);
        let parallel = run_campaigns_streaming(&topo, &specs, &stream, &policy, 0, true, collect);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.attempts, p.attempts);
            assert_eq!(s.stats, p.stats);
            assert_eq!(s.degraded, p.degraded);
            assert_eq!(s.elapsed_us, p.elapsed_us);
            assert_eq!(s.output(), p.output());
        }
    }
}
