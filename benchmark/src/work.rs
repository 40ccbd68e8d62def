//! What every workload gives the harness: one timed pipeline pass with
//! its output checks, and one traced pass that yields layer metrics.

use crate::measure::Tracer;
use analysis::snapshot::{encode_segment, fnv1a};
use analysis::TraceSet;
use simnet::Topology;
use std::net::Ipv6Addr;

/// The network under test is the same for every `--seed`: the seed
/// varies what is done to it (seed lists, synthesized targets, probing
/// order, the loop's generation draws). Regenerating the topology per
/// seed moves the adaptive workloads' size by a quarter between seeds
/// (on some layouts the budgeter starves a second vantage), which would
/// drown any per-probe comparison across seeds.
pub const TOPOLOGY_SEED: u64 = 7;

/// Input size. `Smoke` shrinks every topology and budget so all four
/// workloads finish in a few seconds; its numbers mean nothing, it
/// exists so the crate's own test can run every code path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Output checks: how many were made, which failed and why.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One adaptive round as the round callback saw it.
#[derive(Clone, Copy, Debug)]
pub struct RoundSample {
    /// Wall seconds from the previous round boundary to this one.
    pub wall_s: f64,
    /// Seconds of that spent in `Checkpoint::to_bytes`.
    pub encode_s: f64,
    pub checkpoint_bytes: u64,
}

/// What the untimed verification read off one pipeline output.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Probes injected in the timed region (for `store`: the probes the
    /// input logs cost to record).
    pub probes: u64,
    /// Unique router interfaces in the result.
    pub interfaces: u64,
    /// FNV-1a of the result's merged trace set in its store encoding.
    pub digest: u64,
    /// Empty except on the adaptive workloads.
    pub rounds: Vec<RoundSample>,
}

/// One pipeline pass: the timed region's clocks plus its summary.
#[derive(Clone, Debug)]
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub summary: Summary,
}

/// A layer metric measured by a traced pass.
pub type LayerValue = (&'static str, f64);

pub trait Workload {
    type Output;

    /// The timed region: exactly what the workload table in the README
    /// names, nothing else.
    fn pipeline(&self) -> Self::Output;

    /// Checks one pipeline output (untimed).
    fn verify(&self, out: &Self::Output, checks: &mut Checks) -> Summary;

    /// Runs the pipeline once more with the counting allocator on and
    /// spans around every call into a layer, then the workload's
    /// replay. Returns the layer metrics it defines; `baseline` holds
    /// the untraced reps the tracing overhead is taken against (and
    /// whose round samples join the round timeline).
    fn traced(&self, baseline: &[Rep], tr: &mut Tracer, checks: &mut Checks) -> Vec<LayerValue>;
}

pub fn digest(merged: &TraceSet) -> u64 {
    fnv1a(&encode_segment(merged))
}

/// Interfaces that resolve to no router of the topology. The decoder
/// and the quarantine exist to keep this at zero.
pub fn fabricated(topo: &Topology, ifaces: impl IntoIterator<Item = Ipv6Addr>) -> usize {
    ifaces
        .into_iter()
        .filter(|&a| topo.router_by_iface(a).is_none())
        .count()
}

pub fn median_wall(reps: &[Rep]) -> f64 {
    crate::measure::median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>())
}

/// `num / den`, or 0 when the denominator is (a layer the workload
/// never entered).
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
