//! Round-boundary checkpoints for the adaptive loop: a compact,
//! hand-rolled binary snapshot of the loop's complete cross-round
//! state — the interner-preserving trace sets, the discovery and
//! probed sets, the budgeter's EWMA weights and liveness mask, the
//! regenerated target pool and the virtual clock.
//!
//! The format rides on [`analysis::snapshot`]'s fixed-width
//! little-endian primitives: byte-deterministic (the same state always
//! encodes to the same bytes) and versioned by a magic/version header.
//! A checkpoint is only meaningful under the exact topology and
//! configuration it was captured under, so it carries an FNV-1a digest
//! of both; [`crate::adaptive::resume_adaptive`] refuses a mismatch
//! with [`ResumeError::ConfigMismatch`] instead of producing a
//! silently-divergent run.

use crate::adaptive::{AdaptiveConfig, AliasState, LoopState, RoundReport, VantageRound};
use aliasres::{RouterGraphBuilder, RouterGraphParts};
use analysis::snapshot::{decode_segment, encode_segment, fnv1a};
use analysis::{
    read_trace_set, write_trace_set, SnapReader, SnapWriter, SnapshotError, StoreError,
};
use simnet::{EngineStats, Topology};
use std::net::Ipv6Addr;
use std::path::Path;
use std::sync::Arc;
use v6addr::Ipv6Prefix;
use yarrp6::addrset::AddrSet;

/// `"BHCK"` — beholder checkpoint.
const MAGIC: u32 = 0x4248_434B;
/// Version 3: [`RoundReport`] gained the router-level counters and the
/// loop state carries the alias stage's cross-round state (incremental
/// router-graph builder, tested-interface set, pair verdict totals).
/// Older checkpoints are refused — the alias stage's absence from them
/// is indistinguishable from "stage off", and resuming a stage-on run
/// without its graph would silently diverge.
const VERSION: u32 = 3;
/// The directory format ([`Checkpoint::save_dir`]): instead of
/// inlining every trace set, `checkpoint.bin` holds the loop scalars
/// plus a segment table (length + FNV-1a per trace set), and each
/// trace set lives in its own `trace-NNNN.seg` file alongside — the
/// same per-segment encoding the persistent sharded store uses, so a
/// later round appends new segment files without rewriting the old
/// ones.
const DIR_VERSION: u32 = 4;
/// The scalar/table file of the directory format.
const DIR_FILE: &str = "checkpoint.bin";

/// Segment file name of the `i`-th trace set in the directory format.
fn trace_file(i: usize) -> String {
    format!("trace-{i:04}.seg")
}

/// Why a resume was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResumeError {
    /// The checkpoint was captured under a different topology or
    /// adaptive configuration than the one offered for the resume.
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

/// A round-boundary snapshot of the adaptive loop, captured by
/// [`crate::adaptive::run_adaptive_checkpointed`] after every finished
/// round. Serialize with [`to_bytes`](Checkpoint::to_bytes), persist
/// wherever durability lives, and continue a killed run with
/// [`crate::adaptive::resume_adaptive`] — the resumed run's final
/// result is bit-identical to the run that was never interrupted.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    digest: u64,
    state: LoopState,
}

impl Checkpoint {
    /// Snapshots `state`. The trace record is shared, not copied
    /// (`LoopState::traces` holds `Arc`s and the loop never mutates a
    /// kept set), so a capture costs the scalars, sets and pool — not
    /// the record.
    pub(crate) fn capture(digest: u64, state: &LoopState) -> Self {
        Checkpoint {
            digest,
            state: state.clone(),
        }
    }

    pub(crate) fn state(&self) -> &LoopState {
        &self.state
    }

    /// FNV-1a digest of the topology configuration and the adaptive
    /// configuration this checkpoint was captured under.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Rounds completed at capture time (the next round to run).
    pub fn round(&self) -> usize {
        self.state.rounds.len()
    }

    /// Probes charged against the budget so far.
    pub fn consumed_probes(&self) -> u64 {
        self.state.consumed
    }

    /// Interfaces discovered so far.
    pub fn interfaces(&self) -> usize {
        self.state.seen.len()
    }

    /// Serializes the checkpoint. Byte-deterministic: the same state
    /// always produces the same bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u32(MAGIC);
        w.u32(VERSION);
        w.u64(self.digest);
        let st = &self.state;
        write_pre_traces(&mut w, st);
        w.u32(st.traces.len() as u32);
        for ts in &st.traces {
            write_trace_set(&mut w, ts);
        }
        write_post_traces(&mut w, st);
        w.into_bytes()
    }

    /// Deserializes a checkpoint produced by
    /// [`to_bytes`](Checkpoint::to_bytes). Truncated, corrupt or
    /// foreign input is a [`SnapshotError`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        if r.u32()? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if r.u32()? != VERSION {
            return Err(SnapshotError::BadValue("unsupported checkpoint version"));
        }
        let digest = r.u64()?;
        let pre = read_pre_traces(&mut r)?;
        let n = r.u32()? as usize;
        let mut traces = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            traces.push(read_trace_set(&mut r)?);
        }
        let post = read_post_traces(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::BadValue("trailing bytes after checkpoint"));
        }
        Ok(Checkpoint {
            digest,
            state: assemble_state(pre, traces, post),
        })
    }

    /// Persists the checkpoint as a **directory**: `checkpoint.bin`
    /// holds the loop scalars plus a segment table, and each trace set
    /// is its own `trace-NNNN.seg` file (the persistent store's
    /// segment encoding). Since the trace record only ever grows by
    /// appending campaign sets, successive round-boundary saves rewrite
    /// the small scalar file and *add* segment files — earlier rounds'
    /// segments are byte-identical and need no rewrite (an rsync-style
    /// sink transfers only the delta).
    pub fn save_dir(&self, dir: &Path) -> Result<(), StoreError> {
        std::fs::create_dir_all(dir)?;
        let st = &self.state;
        let mut w = SnapWriter::new();
        w.u32(MAGIC);
        w.u32(DIR_VERSION);
        w.u64(self.digest);
        write_pre_traces(&mut w, st);
        w.u32(st.traces.len() as u32);
        for (i, ts) in st.traces.iter().enumerate() {
            let seg = encode_segment(ts);
            w.u64(seg.len() as u64);
            w.u64(fnv1a(&seg));
            std::fs::write(dir.join(trace_file(i)), &seg)?;
        }
        write_post_traces(&mut w, st);
        std::fs::write(dir.join(DIR_FILE), w.into_bytes())?;
        Ok(())
    }

    /// Loads a checkpoint saved by [`save_dir`](Self::save_dir),
    /// verifying every segment's recorded length and FNV-1a before
    /// decoding — a truncated or bit-flipped segment file is
    /// [`StoreError::Mismatch`] / [`StoreError::Corrupt`], never a
    /// panic or a silently wrong resume.
    pub fn load_dir(dir: &Path) -> Result<Checkpoint, StoreError> {
        let bytes = std::fs::read(dir.join(DIR_FILE))?;
        let mut r = SnapReader::new(&bytes);
        if r.u32()? != MAGIC {
            return Err(StoreError::Decode(SnapshotError::BadMagic));
        }
        if r.u32()? != DIR_VERSION {
            return Err(StoreError::Decode(SnapshotError::BadValue(
                "unsupported checkpoint directory version",
            )));
        }
        let digest = r.u64()?;
        let pre = read_pre_traces(&mut r)?;
        let n = r.u32()? as usize;
        let mut traces = Vec::with_capacity(n.min(1 << 16));
        for i in 0..n {
            let len = r.u64()?;
            let fnv = r.u64()?;
            let seg = std::fs::read(dir.join(trace_file(i)))?;
            if seg.len() as u64 != len {
                return Err(StoreError::Mismatch("trace segment length"));
            }
            if fnv1a(&seg) != fnv {
                return Err(StoreError::Corrupt { segment: i as u32 });
            }
            traces.push(decode_segment(&seg)?);
        }
        let post = read_post_traces(&mut r)?;
        if r.remaining() != 0 {
            return Err(StoreError::Decode(SnapshotError::BadValue(
                "trailing bytes after checkpoint",
            )));
        }
        Ok(Checkpoint {
            digest,
            state: assemble_state(pre, traces, post),
        })
    }
}

/// The checkpointed loop fields serialized *before* the trace record,
/// in encoding order.
struct PreTraces {
    vweights: Vec<f64>,
    alive: Vec<bool>,
    seen: AddrSet,
    probed: AddrSet,
    subnets: Vec<Ipv6Prefix>,
    rounds: Vec<RoundReport>,
    round_targets: Vec<Vec<Ipv6Addr>>,
}

/// The checkpointed loop fields serialized *after* the trace record.
struct PostTraces {
    stats: EngineStats,
    consumed: u64,
    low_streak: usize,
    pool: Vec<Ipv6Addr>,
    vclock_us: u64,
    alias: Option<AliasState>,
}

fn write_pre_traces(w: &mut SnapWriter, st: &LoopState) {
    w.u32(st.vweights.len() as u32);
    for &v in &st.vweights {
        w.f64(v);
    }
    w.u32(st.alive.len() as u32);
    for &a in &st.alive {
        w.bool(a);
    }
    write_addr_set(w, &st.seen);
    write_addr_set(w, &st.probed);
    w.u32(st.subnets.len() as u32);
    for p in &st.subnets {
        w.u128(p.base_word());
        w.u8(p.len());
    }
    w.u32(st.rounds.len() as u32);
    for r in &st.rounds {
        write_round(w, r);
    }
    w.u32(st.round_targets.len() as u32);
    for rt in &st.round_targets {
        write_addrs(w, rt);
    }
}

fn read_pre_traces(r: &mut SnapReader<'_>) -> Result<PreTraces, SnapshotError> {
    let n = r.u32()? as usize;
    let mut vweights = Vec::with_capacity(n);
    for _ in 0..n {
        vweights.push(r.f64()?);
    }
    let n = r.u32()? as usize;
    let mut alive = Vec::with_capacity(n);
    for _ in 0..n {
        alive.push(r.bool()?);
    }
    if alive.len() != vweights.len() {
        return Err(SnapshotError::BadValue("alive/weight length mismatch"));
    }
    let seen = read_addr_set(r)?;
    let probed = read_addr_set(r)?;
    let n = r.u32()? as usize;
    let mut subnets = Vec::with_capacity(n);
    for _ in 0..n {
        let word = r.u128()?;
        let len = r.u8()?;
        if len > 128 {
            return Err(SnapshotError::BadValue("prefix length over 128"));
        }
        subnets.push(Ipv6Prefix::from_word(word, len));
    }
    let n = r.u32()? as usize;
    let mut rounds = Vec::with_capacity(n);
    for _ in 0..n {
        rounds.push(read_round(r)?);
    }
    let n = r.u32()? as usize;
    let mut round_targets = Vec::with_capacity(n);
    for _ in 0..n {
        round_targets.push(read_addrs(r)?);
    }
    Ok(PreTraces {
        vweights,
        alive,
        seen,
        probed,
        subnets,
        rounds,
        round_targets,
    })
}

fn write_post_traces(w: &mut SnapWriter, st: &LoopState) {
    write_stats(w, &st.stats);
    w.u64(st.consumed);
    w.u64(st.low_streak as u64);
    write_addrs(w, &st.pool);
    w.u64(st.vclock_us);
    w.bool(st.alias.is_some());
    if let Some(al) = &st.alias {
        write_alias_state(w, al);
    }
}

fn read_post_traces(r: &mut SnapReader<'_>) -> Result<PostTraces, SnapshotError> {
    let stats = read_stats(r)?;
    let consumed = r.u64()?;
    let low_streak = r.u64()? as usize;
    let pool = read_addrs(r)?;
    let vclock_us = r.u64()?;
    let alias = if r.bool()? {
        Some(read_alias_state(r)?)
    } else {
        None
    };
    Ok(PostTraces {
        stats,
        consumed,
        low_streak,
        pool,
        vclock_us,
        alias,
    })
}

/// The alias stage's cross-round state: the incremental router-graph
/// builder's raw parts (interner words in id order, union-find arrays,
/// flags, id-pair links — exact restoration keeps later merges
/// evolving identically), the tested-interface set, and the verdict
/// totals.
fn write_alias_state(w: &mut SnapWriter, al: &AliasState) {
    let parts = al.builder.to_parts();
    w.u32(parts.words.len() as u32);
    for &word in &parts.words {
        w.u128(word);
    }
    for &p in &parts.parent {
        w.u32(p);
    }
    for &rk in &parts.rank {
        w.u8(rk);
    }
    for &o in &parts.observed {
        w.bool(o);
    }
    for &m in &parts.alias_member {
        w.bool(m);
    }
    w.u32(parts.links.len() as u32);
    for &(a, b) in &parts.links {
        w.u32(a);
        w.u32(b);
    }
    write_addr_set(w, &al.probed);
    w.u64(al.pairs_confirmed);
    w.u64(al.pairs_rejected);
    w.u64(al.probes);
}

fn read_alias_state(r: &mut SnapReader<'_>) -> Result<AliasState, SnapshotError> {
    let n = r.u32()? as usize;
    let mut parts = RouterGraphParts::default();
    for _ in 0..n {
        parts.words.push(r.u128()?);
    }
    for _ in 0..n {
        parts.parent.push(r.u32()?);
    }
    for _ in 0..n {
        parts.rank.push(r.u8()?);
    }
    for _ in 0..n {
        parts.observed.push(r.bool()?);
    }
    for _ in 0..n {
        parts.alias_member.push(r.bool()?);
    }
    let nl = r.u32()? as usize;
    for _ in 0..nl {
        let a = r.u32()?;
        let b = r.u32()?;
        parts.links.push((a, b));
    }
    let builder = RouterGraphBuilder::from_parts(&parts)
        .ok_or(SnapshotError::BadValue("inconsistent router-graph state"))?;
    let probed = read_addr_set(r)?;
    let pairs_confirmed = r.u64()?;
    let pairs_rejected = r.u64()?;
    let probes = r.u64()?;
    Ok(AliasState {
        builder,
        probed,
        pairs_confirmed,
        pairs_rejected,
        probes,
    })
}

fn assemble_state(pre: PreTraces, traces: Vec<analysis::TraceSet>, post: PostTraces) -> LoopState {
    LoopState {
        vweights: pre.vweights,
        alive: pre.alive,
        seen: pre.seen,
        probed: pre.probed,
        subnets: pre.subnets,
        rounds: pre.rounds,
        round_targets: pre.round_targets,
        traces: traces.into_iter().map(Arc::new).collect(),
        stats: post.stats,
        consumed: post.consumed,
        low_streak: post.low_streak,
        pool: post.pool,
        vclock_us: post.vclock_us,
        alias: post.alias,
    }
}

/// FNV-1a over the debug renderings of the topology configuration and
/// the adaptive configuration — the resume compatibility key. Debug
/// formatting is deterministic for these plain-data structs, and any
/// semantic change to either (budget, vantages, fault schedule, retry
/// policy, …) changes the digest.
pub(crate) fn config_digest(topo: &Topology, cfg: &AdaptiveConfig) -> u64 {
    let s = format!("{:?}|{:?}", topo.config, cfg);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn write_addrs(w: &mut SnapWriter, addrs: &[Ipv6Addr]) {
    w.u32(addrs.len() as u32);
    for &a in addrs {
        w.u128(u128::from(a));
    }
}

fn read_addrs(r: &mut SnapReader<'_>) -> Result<Vec<Ipv6Addr>, SnapshotError> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(Ipv6Addr::from(r.u128()?));
    }
    Ok(out)
}

/// Serialized in insertion order; rebuilding by re-inserting in that
/// order reproduces the identical set (iteration order is the
/// contract [`analysis::TraceSet::discovery_delta`] credit depends
/// on).
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

fn write_round(w: &mut SnapWriter, r: &RoundReport) {
    w.u64(r.round as u64);
    w.u64(r.targets);
    w.u64(r.probes);
    w.u64(r.new_interfaces);
    w.u64(r.new_subnets);
    w.f64(r.yield_per_kprobe);
    w.u64(r.rate_limited);
    w.u64(r.rl_dropped_default);
    w.u64(r.rl_dropped_aggressive);
    w.u64(r.routers);
    w.u64(r.alias_pairs_confirmed);
    w.u64(r.alias_pairs_rejected);
    w.u64(r.alias_probes);
    w.u32(r.per_vantage.len() as u32);
    for p in &r.per_vantage {
        w.u8(p.vantage);
        w.u64(p.targets);
        w.u64(p.probes);
        w.u64(p.new_interfaces);
        w.f64(p.next_share);
        w.bool(p.degraded);
        w.u32(p.attempts);
        w.u64(p.fault_dropped);
    }
}

fn read_round(r: &mut SnapReader<'_>) -> Result<RoundReport, SnapshotError> {
    let round = r.u64()? as usize;
    let targets = r.u64()?;
    let probes = r.u64()?;
    let new_interfaces = r.u64()?;
    let new_subnets = r.u64()?;
    let yield_per_kprobe = r.f64()?;
    let rate_limited = r.u64()?;
    let rl_dropped_default = r.u64()?;
    let rl_dropped_aggressive = r.u64()?;
    let routers = r.u64()?;
    let alias_pairs_confirmed = r.u64()?;
    let alias_pairs_rejected = r.u64()?;
    let alias_probes = r.u64()?;
    let n = r.u32()? as usize;
    let mut per_vantage = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        per_vantage.push(VantageRound {
            vantage: r.u8()?,
            targets: r.u64()?,
            probes: r.u64()?,
            new_interfaces: r.u64()?,
            next_share: r.f64()?,
            degraded: r.bool()?,
            attempts: r.u32()?,
            fault_dropped: r.u64()?,
        });
    }
    Ok(RoundReport {
        round,
        targets,
        probes,
        new_interfaces,
        new_subnets,
        yield_per_kprobe,
        rate_limited,
        rl_dropped_default,
        rl_dropped_aggressive,
        routers,
        alias_pairs_confirmed,
        alias_pairs_rejected,
        alias_probes,
        per_vantage,
    })
}

/// Exhaustive destructure: adding a field to [`EngineStats`] without
/// versioning this encoding becomes a compile error, not silent data
/// loss.
fn write_stats(w: &mut SnapWriter, s: &EngineStats) {
    let EngineStats {
        probes,
        malformed,
        lost,
        rate_limited,
        rl_dropped_default,
        rl_dropped_aggressive,
        silent_router,
        fw_dropped,
        time_exceeded,
        echo_replies,
        tcp_responses,
        du_no_route,
        du_admin,
        du_addr,
        du_port,
        du_reject,
        dest_silent,
        frag_echo_replies,
        rewritten_quotes,
        fault_vantage_outage,
        fault_link_blackhole,
        fault_link_flap,
        fault_responder_down,
        adv_lying_ttl,
        adv_spoofed_source,
        adv_zombie_echo,
        adv_duplicate_storm,
        adv_garbage,
    } = *s;
    for v in [
        probes,
        malformed,
        lost,
        rate_limited,
        rl_dropped_default,
        rl_dropped_aggressive,
        silent_router,
        fw_dropped,
        time_exceeded,
        echo_replies,
        tcp_responses,
        du_no_route,
        du_admin,
        du_addr,
        du_port,
        du_reject,
        dest_silent,
        frag_echo_replies,
        rewritten_quotes,
        fault_vantage_outage,
        fault_link_blackhole,
        fault_link_flap,
        fault_responder_down,
        adv_lying_ttl,
        adv_spoofed_source,
        adv_zombie_echo,
        adv_duplicate_storm,
        adv_garbage,
    ] {
        w.u64(v);
    }
}

fn read_stats(r: &mut SnapReader<'_>) -> Result<EngineStats, SnapshotError> {
    Ok(EngineStats {
        probes: r.u64()?,
        malformed: r.u64()?,
        lost: r.u64()?,
        rate_limited: r.u64()?,
        rl_dropped_default: r.u64()?,
        rl_dropped_aggressive: r.u64()?,
        silent_router: r.u64()?,
        fw_dropped: r.u64()?,
        time_exceeded: r.u64()?,
        echo_replies: r.u64()?,
        tcp_responses: r.u64()?,
        du_no_route: r.u64()?,
        du_admin: r.u64()?,
        du_addr: r.u64()?,
        du_port: r.u64()?,
        du_reject: r.u64()?,
        dest_silent: r.u64()?,
        frag_echo_replies: r.u64()?,
        rewritten_quotes: r.u64()?,
        fault_vantage_outage: r.u64()?,
        fault_link_blackhole: r.u64()?,
        fault_link_flap: r.u64()?,
        fault_responder_down: r.u64()?,
        adv_lying_ttl: r.u64()?,
        adv_spoofed_source: r.u64()?,
        adv_zombie_echo: r.u64()?,
        adv_duplicate_storm: r.u64()?,
        adv_garbage: r.u64()?,
    })
}
