//! Round-boundary checkpoints for the adaptive loop: the loop's
//! complete cross-round state (`LoopState` — the trace record, a delta
//! run's prior store as one set and then one set per round and vantage, the
//! discovery set, the round reports and target lists, the
//! budgeter's EWMA weights and liveness mask, the regenerated target
//! pool, the virtual clock, a delta run's shard count, latches and
//! force queue, the alias stage's partition and tested set) and a
//! compact, hand-rolled binary encoding of it. The state holds each
//! fact once, so nothing is written twice: what the loop derives, it
//! derives from what is written, which the decoder holds to the shape
//! the loop writes. The router graph is such a derivation: the decoder
//! rebuilds it through the builder's own API, from the record's sets
//! and the written alias groups, so only `aliasres` knows its layout.
//!
//! A [`Checkpoint`] *is* the state the loop runs on, not a copy taken
//! of it, so showing one to the round-boundary observer is free. It
//! has one encoding, a byte string ([`Checkpoint::to_bytes`] /
//! [`Checkpoint::from_bytes`]): a magic/version header, the state's
//! fields in declaration order, and an 8-byte trailer that checksums
//! every byte before it, so a damaged checkpoint is refused before its
//! body is read.
//!
//! The format rides on [`analysis::snapshot`]'s little-endian
//! primitives and trace-set columns: byte-deterministic (the same state
//! always encodes to the same bytes, and a decoded state re-encodes to
//! the bytes it came from). Every set of the trace record shares one
//! table (see [`crate::adaptive`]), so the record is written as one table
//! and then the sets without it ([`write_trace_record`]), and decoding
//! builds that one table and hands it to every set, as the running
//! record holds it. Between the table and the sets come a set count for
//! each round: a prior store is the one set they leave out, and it is
//! written first, its targets as steps. The record follows the round
//! reports and target lists, so a round set's plan (its vantage's
//! stride sample of the round's list at the vantage's allocation) is
//! derived by the decoder before the set is read, and the set writes its
//! vantage and one tag in place of its targets: the plan (on a clean
//! network, every set), or a presence bitmap over the plan (a failed
//! shard or an unanswered target). A set that is its round's whole list decodes
//! holding the decoded list's allocation, as the running record does.
//! The round target lists and the pool ascend, so each
//! is written as the two varint steps an address of a set's targets is
//! ([`write_ascending`]). A checkpoint is only meaningful under the
//! exact topology and configuration it was captured under, so it
//! carries an FNV-1a digest of both;
//! [`crate::adaptive::resume_adaptive`] refuses a mismatch, or a state
//! that does not fit the configuration, with
//! [`ResumeError::ConfigMismatch`] instead of producing a
//! silently-divergent run.

use crate::adaptive::{
    yield_per_kprobe, AdaptiveConfig, AliasState, DeltaState, LoopState, Record, RoundReport,
    VantageRound,
};
use aliasres::RouterGraphBuilder;
use analysis::snapshot::{
    fnv1a, read_ascending, read_trace_record, write_ascending, write_trace_record, Planned,
};
use analysis::{SnapReader, SnapWriter, SnapshotError, MAX_SHARDS};
use simnet::{EngineStats, Topology};
use std::collections::BTreeSet;
use std::net::Ipv6Addr;
use std::sync::Arc;
use targets::stride_sample;
use v6addr::Ipv6Prefix;
use yarrp6::addrset::AddrSet;

/// `"BHCK"` — beholder checkpoint.
const MAGIC: u32 = 0x4248_434B;
/// Version 13 writes the record's rounds (a set count a round) and a
/// round set's targets as its vantage and one tag against the plan the
/// decoder derives from the round's list and the vantage's allocation:
/// the plan itself, or a presence bitmap over it
/// ([`write_trace_record`]). Version 12 wrote the trace record as one
/// table, then the sets without it, every set's targets as varint
/// steps, and each round's target list and the pool as ascending varint
/// steps ([`write_ascending`]). Version 11 wrote each trace set by its
/// redundancy ([`analysis::snapshot`]'s layout): targets as varint
/// steps, hop limits
/// as one bitmap a trace over a per-set window, and a second bitmap of
/// the hops that repeat the previous trace's in place of their ids, on a
/// table chain (a table length and the new words before each set).
/// Version 10 wrote trace sets without the per-trace provenance lists
/// ([`analysis::snapshot`]'s layout lost them), and round reports
/// without the four fields the loop derives from others: the round
/// index (its position), the target count (its round list's length),
/// the yield per kiloprobe and the rate-limited total (its limiter
/// classes' sum). Version 9 wrote the alias stage's partition where version 8 wrote
/// the router-graph builder's forest (interner words, union-find
/// arrays, flags, links), and a delta run's prior store as one set
/// where version 8 wrote one set per shard. Version 8 wrote each fact
/// once (no probed set, charged probes or alias totals) and a delta
/// run's state in the tail. Version 7 made the trace sets one chain,
/// each word written once: a set's table length, the words past the
/// previous set's, then its columns. Version 6 wrote each set's own
/// word table, its ids and
/// trace lengths packed at the width its data needs, and no offsets.
/// Version 5 had the same [`checksum`] trailer over 4-byte ids and
/// stored offsets; version 4 numbered a directory form that no longer
/// exists and is never reused. Any other version, v3 and v5 to v12
/// included, is refused by number.
const VERSION: u32 = 13;
/// Bytes of the trailing checksum.
const TRAILER: usize = 8;

/// Why a resume was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResumeError {
    /// The checkpoint was captured under a different topology or
    /// adaptive configuration than the one offered for the resume (the
    /// digests differ), or its state does not fit that configuration:
    /// a vantage count other than the configuration's, or alias state
    /// present exactly when alias resolution is off.
    ConfigMismatch,
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::ConfigMismatch => {
                write!(
                    f,
                    "checkpoint was captured under a different topology/config"
                )
            }
        }
    }
}

impl std::error::Error for ResumeError {}

/// The adaptive loop's state at a round boundary, and the state the
/// loop runs on: every entry point builds (or, on resume, clones) one
/// `Checkpoint`, the loop advances the `LoopState` inside it, and
/// [`crate::adaptive::run_adaptive_checkpointed`] and
/// [`crate::adaptive::resume_adaptive`] show it to their observer after
/// every finished round by reference — nothing is copied to take a
/// checkpoint. Serialize with
/// [`to_bytes`](Checkpoint::to_bytes) (or clone it: the trace record
/// is shared, not copied), and continue a killed run with
/// [`crate::adaptive::resume_adaptive`] — the resumed run's final
/// result is bit-identical to the run that was never interrupted.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// FNV-1a digest of the topology configuration and the adaptive
    /// configuration this checkpoint was captured under.
    pub(crate) digest: u64,
    pub(crate) state: LoopState,
}

impl Checkpoint {
    /// Rounds completed at capture time (the next round to run).
    pub fn round(&self) -> usize {
        self.state.rounds.len()
    }

    /// Probes charged against the budget so far.
    pub fn consumed_probes(&self) -> u64 {
        self.state.stats.probes
    }

    /// Interfaces discovered so far.
    pub fn interfaces(&self) -> usize {
        self.state.seen.len()
    }

    /// The trace record so far: what the run's
    /// [`AdaptiveResult::traces`](crate::adaptive::AdaptiveResult::traces)
    /// will begin with.
    pub fn record(&self) -> &Record {
        &self.state.traces
    }

    /// Serializes the checkpoint: header, then `LoopState`'s fields in
    /// declaration order, then the 8-byte checksum of all of that.
    /// Byte-deterministic: the same state always produces the same
    /// bytes. The trace sets are nearly all of it, so from their count
    /// on the stream is reserved once at its exact length, trailer
    /// included, instead of doubling its way up: what follows the trace
    /// sets is encoded first, into a buffer of its own, and appended.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode(&plans(&self.state))
    }

    /// [`to_bytes`](Self::to_bytes), each round set's targets written
    /// against `plans[r][i]`, the plan of round `r`'s `i`-th set.
    fn encode(&self, plans: &[Vec<Arc<Vec<Ipv6Addr>>>]) -> Vec<u8> {
        let st = &self.state;
        let mut tail = SnapWriter::new();
        write_stats(&mut tail, &st.stats);
        tail.u64(st.low_streak as u64);
        write_ascending(&mut tail, &st.pool);
        tail.u64(st.vclock_us);
        tail.bool(st.delta.is_some());
        if let Some(d) = &st.delta {
            tail.u32(d.shards as u32);
            write_list(&mut tail, &d.reopened, |w, &r| w.bool(r));
            write_addrs(&mut tail, &d.force);
        }
        tail.bool(st.alias.is_some());
        if let Some(al) = &st.alias {
            write_alias_state(&mut tail, al);
        }

        let mut w = SnapWriter::new();
        w.u32(MAGIC);
        w.u32(VERSION);
        w.u64(self.digest);
        write_list(&mut w, &st.vweights, |w, &v| w.f64(v));
        write_list(&mut w, &st.alive, |w, &a| w.bool(a));
        write_addr_set(&mut w, &st.seen);
        write_list(&mut w, &st.subnets, |w, p| {
            w.u128(p.base_word());
            w.u8(p.len());
        });
        write_list(&mut w, &st.rounds, write_round);
        write_list(&mut w, &st.round_targets, |w, rt| write_ascending(w, rt));
        let record = &st.traces;
        let rounds: Vec<Vec<Planned<'_>>> = (plans.iter().enumerate())
            .map(|(r, plans)| {
                let sets = record.round(r).iter().zip(record.round_vantages(r));
                (sets.zip(plans))
                    .map(|((set, &v), plan)| Planned {
                        key: v as u64,
                        set,
                        plan,
                    })
                    .collect()
            })
            .collect();
        let room_after = tail.bytes().len() + TRAILER;
        write_trace_record(&mut w, record.prior(), &rounds, room_after);
        w.raw(tail.bytes());
        let sum = checksum(w.bytes());
        w.u64(sum);
        w.into_bytes()
    }

    /// Deserializes a checkpoint produced by
    /// [`to_bytes`](Checkpoint::to_bytes), checking in order the magic
    /// ([`SnapshotError::BadMagic`]), the version, the trailer and only
    /// then the body — so a checkpoint of another version is refused by
    /// number and a damaged one by its checksum, before a field of it is
    /// trusted. Truncated, corrupt or foreign input is a
    /// [`SnapshotError`], never a panic. Struct-literal fields are
    /// evaluated as written, which is the encoding order.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, SnapshotError> {
        let (body, trailer) = bytes.split_at(bytes.len().saturating_sub(TRAILER));
        let r = &mut SnapReader::new(body);
        if r.u32()? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if r.u32()? != VERSION {
            return Err(SnapshotError::BadValue("unsupported checkpoint version"));
        }
        if SnapReader::new(trailer).u64()? != checksum(body) {
            return Err(SnapshotError::BadValue("checkpoint checksum"));
        }
        let digest = r.u64()?;
        let vweights = read_list(r, SnapReader::f64)?;
        let alive = read_list(r, SnapReader::bool)?;
        let seen = read_addr_set(r)?;
        let subnets = read_list(r, read_prefix)?;
        let mut rounds = read_list(r, read_round)?;
        let round_targets: Vec<Arc<Vec<Ipv6Addr>>> = read_list(r, read_ascending)?
            .into_iter()
            .map(Arc::new)
            .collect();
        // A report's index and target count are its place in the lists.
        for (i, (report, targets)) in rounds.iter_mut().zip(&round_targets).enumerate() {
            report.round = i;
            report.targets = targets.len() as u64;
        }
        let traces = read_record(r, &vweights, &rounds, &round_targets)?;
        let mut state = LoopState {
            vweights,
            alive,
            seen,
            subnets,
            rounds,
            round_targets,
            traces,
            stats: read_stats(r)?,
            low_streak: r.u64()? as usize,
            pool: read_ascending(r)?,
            vclock_us: r.u64()?,
            delta: match r.bool()? {
                true => Some(DeltaState {
                    shards: r.u32()? as usize,
                    reopened: read_list(r, SnapReader::bool)?,
                    force: read_addrs(r)?,
                }),
                false => None,
            },
            alias: None,
        };
        if r.bool()? {
            state.alias = Some(read_alias_state(r, &state)?);
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::BadValue("trailing bytes after checkpoint"));
        }
        check_shape(&state)?;
        Ok(Checkpoint { digest, state })
    }
}

/// The trailer: FNV-1a over `bytes` as little-endian `u64` words, then
/// byte by byte over the tail past the last whole word. Word-wide, it
/// keeps pace with the encoder, where bytewise [`fnv1a`] would not. Each
/// step (xor a word, multiply by an odd prime) is a bijection of the
/// state, so a corruption confined to one word always changes the sum.
fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = (h ^ u64::from_le_bytes(word.try_into().unwrap())).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// A `u32` count, then the items.
fn write_list<T>(w: &mut SnapWriter, items: &[T], mut put: impl FnMut(&mut SnapWriter, &T)) {
    w.u32(items.len() as u32);
    for item in items {
        put(w, item);
    }
}

/// A `u32` count, then the items. The count came out of the input:
/// what is reserved up front is bounded, a short read fails as
/// truncation.
fn read_list<'a, T>(
    r: &mut SnapReader<'a>,
    mut get: impl FnMut(&mut SnapReader<'a>) -> Result<T, SnapshotError>,
) -> Result<Vec<T>, SnapshotError> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(get(r)?);
    }
    Ok(out)
}

/// A prefix is stored as its base word and length. A base with host
/// bits set is refused rather than masked: it would decode to a prefix
/// that re-encodes to other bytes.
fn read_prefix(r: &mut SnapReader<'_>) -> Result<Ipv6Prefix, SnapshotError> {
    let (word, len) = (r.u128()?, r.u8()?);
    if len > 128 {
        return Err(SnapshotError::BadValue("prefix length over 128"));
    }
    let p = Ipv6Prefix::from_word(word, len);
    if p.base_word() != word {
        return Err(SnapshotError::BadValue("prefix host bits set"));
    }
    Ok(p)
}

/// The plan each round set was drawn from, a list a round: its
/// vantage's sample of the round's list, which is the list itself, its
/// allocation, when the vantage drew from all of it. Empty where the
/// state has no list or no report for the set, which the loop never
/// builds and the decoder refuses.
fn plans(st: &LoopState) -> Vec<Vec<Arc<Vec<Ipv6Addr>>>> {
    let record = &st.traces;
    let plan = |r: usize, v: usize| {
        let report = st.rounds.get(r).and_then(|rep| rep.per_vantage.get(v));
        let alloc = report.map_or(0, |p| p.targets);
        (st.round_targets.get(r)).map_or_else(Arc::default, |list| plan_of(list, alloc))
    };
    (0..record.rounds())
        .map(|r| {
            record
                .round_vantages(r)
                .iter()
                .map(|&v| plan(r, v))
                .collect()
        })
        .collect()
}

/// A set's plan from its round's list and its vantage's allocation.
fn plan_of(list: &Arc<Vec<Ipv6Addr>>, alloc: u64) -> Arc<Vec<Ipv6Addr>> {
    match usize::try_from(alloc) {
        Ok(n) if n < list.len() => Arc::new(stride_sample(list, n)),
        _ => Arc::clone(list),
    }
}

/// Reads the trace record: a delta run's prior set, then each round's
/// sets, their targets against the plans derived from the reports and
/// lists already read. A set from a vantage the weights do not have, or
/// from one that was given no targets that round, is refused, and so is
/// a round whose list or per-vantage report is missing (so the set
/// cannot be planned).
fn read_record(
    r: &mut SnapReader<'_>,
    vweights: &[f64],
    rounds: &[RoundReport],
    round_targets: &[Arc<Vec<Ipv6Addr>>],
) -> Result<Record, SnapshotError> {
    let bad = |what| Err(SnapshotError::BadValue(what));
    let read = read_trace_record(r, rounds.len(), |round, key| {
        let Some(v) = usize::try_from(key).ok().filter(|&v| v < vweights.len()) else {
            return bad("record set vantage out of range");
        };
        let Some(list) = round_targets.get(round) else {
            return bad("round target lists and rounds differ in count");
        };
        let Some(report) = rounds[round].per_vantage.get(v) else {
            return bad("per-vantage reports/weight length mismatch");
        };
        if report.targets == 0 {
            return bad("record set vantage without targets");
        }
        Ok(plan_of(list, report.targets))
    })?;
    let mut record = Record {
        prior: read.lead,
        ..Record::default()
    };
    for round in read.groups {
        record.starts.push(record.sets.len());
        for (v, set) in round {
            record.vantages.push(v as usize);
            record.sets.push(set);
        }
    }
    Ok(record)
}

/// The loop indexes and derives its views from a decoded state, so it
/// must have the shape the loop writes: a liveness flag and a
/// per-vantage report entry per weight, each subnet once, a target list
/// per round, no vantage given more targets than its round's list
/// holds (a larger allocation would plan the same list as the list's
/// length does: a second spelling of one state), and a prior set
/// leading the record exactly in a delta run, routed over at least one
/// shard with a latch each. The pool and each round's targets strictly
/// ascend by their encoding ([`read_ascending`]).
fn check_shape(st: &LoopState) -> Result<(), SnapshotError> {
    let mut subnets = BTreeSet::new();
    let delta = st.delta.as_ref();
    let past_list = |(report, list): (&RoundReport, &Arc<Vec<Ipv6Addr>>)| {
        (report.per_vantage.iter()).any(|p| p.targets > list.len() as u64)
    };
    let refusal = if st.alive.len() != st.vweights.len() {
        "alive/weight length mismatch"
    } else if st
        .rounds
        .iter()
        .any(|r| r.per_vantage.len() != st.vweights.len())
    {
        "per-vantage reports/weight length mismatch"
    } else if !st.subnets.iter().all(|&p| subnets.insert(p)) {
        "repeated subnet"
    } else if st.round_targets.len() != st.rounds.len() {
        "round target lists and rounds differ in count"
    } else if st.rounds.iter().zip(&st.round_targets).any(past_list) {
        "a vantage allocation past its round's list"
    } else if delta.is_some() && st.traces.prior.is_none() {
        "a delta run's record begins with its prior set"
    } else if delta.is_none() && st.traces.prior.is_some() {
        "a prior set outside a delta run"
    } else if delta.is_some_and(|d| d.shards == 0) {
        "a delta run's route has no shard"
    } else if delta.is_some_and(|d| d.shards > MAX_SHARDS) {
        "a delta run's route past the shard limit"
    } else if delta.is_some_and(|d| d.reopened.len() != d.shards) {
        "reopen latches not one per prior shard"
    } else {
        return Ok(());
    };
    Err(SnapshotError::BadValue(refusal))
}

/// The alias stage's cross-round state: the router graph's alias
/// partition ([`RouterGraphBuilder::alias_groups`]) and the tested set.
/// The rest of the graph is the record's: the builder ingested its
/// round sets (never a delta run's prior set), so the decoder
/// rebuilds it from those, in record order, and then merges the groups.
fn write_alias_state(w: &mut SnapWriter, al: &AliasState) {
    write_list(w, &al.builder.alias_groups(), |w, g| write_addrs(w, g));
    write_addr_set(w, &al.probed);
}

/// Refuses a group list the rebuilt builder would not return as its
/// partition (unsorted, overlapping or empty groups): it would
/// re-encode to other bytes.
fn read_alias_state(r: &mut SnapReader<'_>, st: &LoopState) -> Result<AliasState, SnapshotError> {
    let groups = read_list(r, read_addrs)?;
    let mut builder = RouterGraphBuilder::new();
    for set in &st.traces.sets {
        builder.ingest(set);
    }
    for g in &groups {
        builder.merge_alias_group(g);
    }
    if builder.alias_groups() != groups {
        return Err(SnapshotError::BadValue(
            "alias groups not the rebuilt partition",
        ));
    }
    Ok(AliasState {
        builder,
        probed: read_addr_set(r)?,
    })
}

/// FNV-1a over the debug renderings of the topology configuration and
/// the adaptive configuration — the resume compatibility key. Debug
/// formatting is deterministic for these plain-data structs, and any
/// semantic change to either (budget, vantages, fault schedule, retry
/// policy, …) changes the digest.
pub(crate) fn config_digest(topo: &Topology, cfg: &AdaptiveConfig) -> u64 {
    fnv1a(format!("{:?}|{:?}", topo.config, cfg).as_bytes())
}

fn write_addrs(w: &mut SnapWriter, addrs: &[Ipv6Addr]) {
    write_list(w, addrs, |w, &a| w.u128(u128::from(a)));
}

fn read_addrs(r: &mut SnapReader<'_>) -> Result<Vec<Ipv6Addr>, SnapshotError> {
    read_list(r, |r| Ok(Ipv6Addr::from(r.u128()?)))
}

/// Serialized in insertion order; rebuilding by re-inserting in that
/// order reproduces the identical set (insertion indices are what the
/// loop's yield credit reads: a word is new to a round when its index
/// is at or past the round-start length).
fn write_addr_set(w: &mut SnapWriter, set: &AddrSet) {
    w.u32(set.len() as u32);
    for a in set.iter() {
        w.u128(u128::from(a));
    }
}

fn read_addr_set(r: &mut SnapReader<'_>) -> Result<AddrSet, SnapshotError> {
    let n = r.u32()? as usize;
    let mut set = AddrSet::new();
    for _ in 0..n {
        if !set.insert(Ipv6Addr::from(r.u128()?)) {
            return Err(SnapshotError::BadValue("duplicate address in set"));
        }
    }
    Ok(set)
}

/// A report without the fields the loop derives from others: its
/// index, target count, yield and rate-limited total.
fn write_round(w: &mut SnapWriter, r: &RoundReport) {
    w.u64(r.probes);
    w.u64(r.new_interfaces);
    w.u64(r.new_subnets);
    w.u64(r.rl_dropped_default);
    w.u64(r.rl_dropped_aggressive);
    w.u64(r.routers);
    w.u64(r.alias_pairs_confirmed);
    w.u64(r.alias_pairs_rejected);
    w.u64(r.alias_probes);
    write_list(w, &r.per_vantage, |w, p| {
        w.u8(p.vantage);
        w.u64(p.targets);
        w.u64(p.probes);
        w.u64(p.new_interfaces);
        w.f64(p.next_share);
        w.bool(p.degraded);
        w.u32(p.attempts);
        w.u64(p.fault_dropped);
    });
}

/// What [`write_round`] wrote, the derived fields derived as the loop
/// does: the yield and the rate-limited total here, the index and the
/// target count by [`Checkpoint::from_bytes`] from the lists.
fn read_round(r: &mut SnapReader<'_>) -> Result<RoundReport, SnapshotError> {
    let probes = r.u64()?;
    let new_interfaces = r.u64()?;
    let new_subnets = r.u64()?;
    let rl_dropped_default = r.u64()?;
    let rl_dropped_aggressive = r.u64()?;
    Ok(RoundReport {
        // Set from the lists once both are read.
        round: 0,
        targets: 0,
        probes,
        new_interfaces,
        new_subnets,
        yield_per_kprobe: yield_per_kprobe(new_interfaces, probes),
        rate_limited: rl_dropped_default.saturating_add(rl_dropped_aggressive),
        rl_dropped_default,
        rl_dropped_aggressive,
        routers: r.u64()?,
        alias_pairs_confirmed: r.u64()?,
        alias_pairs_rejected: r.u64()?,
        alias_probes: r.u64()?,
        per_vantage: read_list(r, |r| {
            Ok(VantageRound {
                vantage: r.u8()?,
                targets: r.u64()?,
                probes: r.u64()?,
                new_interfaces: r.u64()?,
                next_share: r.f64()?,
                degraded: r.bool()?,
                attempts: r.u32()?,
                fault_dropped: r.u64()?,
            })
        })?,
    })
}

/// The counters in [`EngineStats::to_array`] order, which is the struct's
/// declaration order: adding a field lengthens the array, and with it
/// this encoding and the pinned golden's lengths.
fn write_stats(w: &mut SnapWriter, s: &EngineStats) {
    s.to_array().into_iter().for_each(|v| w.u64(v));
}

fn read_stats(r: &mut SnapReader<'_>) -> Result<EngineStats, SnapshotError> {
    let mut values = [0u64; EngineStats::FIELDS];
    for v in &mut values {
        *v = r.u64()?;
    }
    Ok(EngineStats::from_array(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{resume_adaptive, run_adaptive_checkpointed};
    use analysis::ShardedTraceSet;
    use simnet::config::TopologyConfig;
    use simnet::generate::generate;
    use std::sync::Arc;
    use targets::TargetSet;

    /// The first round boundary of a delta run against a four-shard
    /// store of a fresh run: every list the decoder checks is non-empty.
    fn delta_checkpoint() -> Checkpoint {
        let topo = Arc::new(generate(TopologyConfig::tiny(42)));
        let addrs: Vec<Ipv6Addr> = topo.hosts().map(|(a, _)| a).take(60).collect();
        let set = TargetSet::new("adaptive-r0", addrs);
        let cfg = AdaptiveConfig {
            probe_budget: 60_000,
            round_targets: 200,
            max_rounds: 3,
            min_yield_per_kprobes: 0.0,
            ..AdaptiveConfig::default()
        };
        let fresh = run_adaptive_checkpointed(&topo, &set, &cfg, false, |_| {});
        let prior = ShardedTraceSet::from_set(&fresh.merged_traces(), 4);
        let start = Checkpoint::delta(&topo, &set, &cfg, &prior);
        let mut first = None;
        resume_adaptive(&topo, &cfg, &start, false, |ck| {
            first.get_or_insert_with(|| ck.clone());
        })
        .unwrap();
        first.expect("a delta run probes its canaries")
    }

    #[test]
    fn the_lists_the_loop_derives_from_are_checked() {
        let base = delta_checkpoint();
        assert!(Checkpoint::from_bytes(&base.to_bytes()).is_ok());
        type Edit = fn(&mut LoopState);
        let cases: [(Edit, &str); 13] = [
            (
                |st| {
                    st.rounds[0].per_vantage.pop();
                },
                "per-vantage reports/weight length mismatch",
            ),
            (
                |st| {
                    let p = Ipv6Prefix::from_word(0x2001_0db8_u128 << 96, 32);
                    st.subnets.extend([p, p]);
                },
                "repeated subnet",
            ),
            (
                |st| st.round_targets.push(Arc::default()),
                "round target lists and rounds differ in count",
            ),
            // A list that does not ascend is refused by its encoding.
            (
                |st| Arc::make_mut(&mut st.round_targets[0]).swap(0, 1),
                "target order",
            ),
            (|st| st.pool.push(st.pool[0]), "target order"),
            (
                |st| st.traces.prior = None,
                "a delta run's record begins with its prior set",
            ),
            (|st| st.delta = None, "a prior set outside a delta run"),
            // A round set's plan is derived from its vantage's report.
            (
                |st| st.traces.vantages[0] = st.vweights.len(),
                "record set vantage out of range",
            ),
            (
                |st| {
                    let v = st.traces.vantages[0];
                    st.rounds[0].per_vantage[v].targets = 0;
                },
                "record set vantage without targets",
            ),
            (
                |st| {
                    let v = st.traces.vantages[0];
                    st.rounds[0].per_vantage[v].targets = st.round_targets[0].len() as u64 + 1;
                },
                "a vantage allocation past its round's list",
            ),
            (
                |st| {
                    let d = st.delta.as_mut().unwrap();
                    (d.shards, d.reopened) = (0, Vec::new());
                },
                "a delta run's route has no shard",
            ),
            (
                |st| {
                    let d = st.delta.as_mut().unwrap();
                    (d.shards, d.reopened) = (MAX_SHARDS + 1, vec![false; MAX_SHARDS + 1]);
                },
                "a delta run's route past the shard limit",
            ),
            (
                |st| {
                    st.delta.as_mut().unwrap().reopened.pop();
                },
                "reopen latches not one per prior shard",
            ),
        ];
        // Each edited state's sets are written against the plans of the
        // state they came from, which an edit can leave them outside.
        let plans = plans(&base.state);
        for (edit, refusal) in cases {
            let mut ck = base.clone();
            edit(&mut ck.state);
            assert_eq!(
                Checkpoint::from_bytes(&ck.encode(&plans)).unwrap_err(),
                SnapshotError::BadValue(refusal)
            );
        }
    }

    #[test]
    fn only_the_rebuilt_partition_decodes_as_alias_groups() {
        let st = delta_checkpoint().state;
        let a = |i: u16| Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i);
        let read = |groups: &[Vec<Ipv6Addr>]| {
            let mut w = SnapWriter::new();
            write_list(&mut w, groups, |w, g| write_addrs(w, g));
            write_addr_set(&mut w, &AddrSet::new());
            let al = read_alias_state(&mut SnapReader::new(w.bytes()), &st)?;
            Ok(al.builder.alias_groups())
        };
        let canonical = vec![vec![a(1), a(2)], vec![a(3), a(4), a(5)]];
        assert_eq!(read(&canonical), Ok(canonical.clone()));
        for groups in [
            vec![vec![a(2), a(1)]],
            vec![vec![a(3), a(4)], vec![a(1), a(2)]],
            vec![vec![a(1), a(2)], vec![a(2), a(3)]],
            vec![vec![]],
        ] {
            assert_eq!(
                read(&groups),
                Err(SnapshotError::BadValue(
                    "alias groups not the rebuilt partition"
                ))
            );
        }
    }

    #[test]
    fn a_prefix_with_host_bits_is_refused() {
        let read = |word: u128, len: u8| {
            let mut w = SnapWriter::new();
            w.u128(word);
            w.u8(len);
            read_prefix(&mut SnapReader::new(w.bytes()))
        };
        let base = 0x2001_0db8_u128 << 96;
        assert_eq!(read(base, 32), Ok(Ipv6Prefix::from_word(base, 32)));
        // Masking the host bit away would decode a prefix that encodes
        // to other bytes.
        assert_eq!(
            read(base | 1, 32),
            Err(SnapshotError::BadValue("prefix host bits set"))
        );
        assert_eq!(
            read(base, 129),
            Err(SnapshotError::BadValue("prefix length over 128"))
        );
    }
}
