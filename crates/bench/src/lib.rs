//! The checked reproduction: one `repro` binary over one table of
//! [`EXPERIMENTS`], each of which prints one of the paper's tables or
//! figures from the simulator and states what the paper says about it as
//! [`report::Claim`]s computed from the printed numbers.
//!
//! ```sh
//! cargo run --release -p beholder_bench --bin repro            # everything
//! BEHOLDER_SCALE=tiny cargo run --release -p beholder_bench --bin repro table7 fig5
//! ```
//!
//! Every experiment reads the same scenario — synthetic Internet, seed
//! catalog, target catalog — built from `BEHOLDER_SCALE`
//! (tiny/small/full, default small) and a fixed master seed, and shares
//! the default-config campaign logs, all through [`Ctx`]. The run ends with a
//! scorecard of every claim and fails when a claim's status differs from
//! what the repository declares about it ([`report::Declared`]).

mod experiments;
pub mod fmt;
pub mod report;

pub use experiments::EXPERIMENTS;
use report::{Claim, Report};
use seeds::sources::SeedCatalog;
use simnet::config::TopologyConfig;
use simnet::{Scale, Topology};
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use targets::{IidStrategy, TargetCatalog, TargetSet};
use yarrp6::campaign::{try_run_campaigns_parallel, CampaignSpec};
use yarrp6::{ProbeLog, YarrpConfig};

/// The master seed all experiments share.
pub const MASTER_SEED: u64 = 0xbe401de5;

/// The scale `BEHOLDER_SCALE` selects (`default` when unset). A value
/// that names no scale ends the process with status 2: a run at a scale
/// nobody asked for is worse than no run.
pub fn env_scale(default: Scale) -> Scale {
    Scale::from_env_or(default).unwrap_or_else(|e| {
        eprintln!("BEHOLDER_SCALE: {e}");
        std::process::exit(2)
    })
}

/// What every experiment runs against: one scenario, and the logs of the
/// default-config campaigns of its z64 sets run so far, by `(target set,
/// vantage)`. Those are what Table 7, Figures 6-8 and the §5-§7
/// follow-ons share; the z48 sets are Table 7's alone, so their logs (a
/// third of all records) are not kept, and trials with a configuration
/// of their own run uncached.
pub struct Ctx {
    /// The synthetic Internet.
    pub topo: Arc<Topology>,
    /// Seed lists.
    pub seeds: SeedCatalog,
    /// Target sets (fixediid synthesis, the campaign default).
    pub targets: TargetCatalog,
    logs: HashMap<(Arc<str>, u8), Arc<ProbeLog>>,
}

impl Ctx {
    /// Builds the scenario at `scale`.
    pub fn new(scale: Scale) -> Ctx {
        let cfg = TopologyConfig::at_scale(scale, MASTER_SEED);
        let topo = Arc::new(simnet::generate::generate(cfg));
        let seeds = SeedCatalog::synthesize(&topo, MASTER_SEED);
        let targets = TargetCatalog::build(&seeds, IidStrategy::FixedIid);
        Ctx {
            topo,
            seeds,
            targets,
            logs: HashMap::new(),
        }
    }

    /// The augmented ASN resolver (public view) for subnet analyses.
    pub fn resolver(&self) -> analysis::AsnResolver {
        analysis::AsnResolver::new(
            self.topo.bgp.clone(),
            self.topo.rir_extra.clone(),
            &self.topo.asn_equivalences,
        )
    }

    /// The catalog's target set `name`.
    pub fn set(&self, name: &str) -> &TargetSet {
        let set = self.targets.get(name);
        set.unwrap_or_else(|| panic!("no target set {name}"))
    }

    /// The default-config campaign logs of catalog set `name` from each
    /// of `vantages`; the ones not run yet run now, in parallel.
    pub fn logs(&mut self, name: &str, vantages: &[u8]) -> Vec<Arc<ProbeLog>> {
        let set = self.targets.get(name);
        let set = set.unwrap_or_else(|| panic!("no target set {name}"));
        let key = |v: u8| (set.name.clone(), v);
        let cached = |v: &u8| self.logs.contains_key(&key(*v));
        let missing: Vec<u8> = vantages.iter().copied().filter(|v| !cached(v)).collect();
        let spec = |&vantage_idx: &u8| CampaignSpec {
            vantage_idx,
            set,
            cfg: YarrpConfig::default(),
        };
        let specs: Vec<CampaignSpec> = missing.iter().map(spec).collect();
        let runs = try_run_campaigns_parallel(&self.topo, &specs);
        for (&v, run) in missing.iter().zip(runs) {
            let mut log = run.unwrap_or_else(|e| panic!("{e}")).log;
            log.records.shrink_to_fit();
            self.logs.insert(key(v), Arc::new(log));
        }
        let logs = vantages
            .iter()
            .map(|&v| self.logs[&key(v)].clone())
            .collect();
        if !name.ends_with("-z64") {
            self.logs.retain(|(kept, _), _| kept != &set.name);
        }
        logs
    }
}

/// One table or figure of the paper.
pub struct Experiment {
    /// The name `repro` takes on its command line.
    pub id: &'static str,
    /// What it shows.
    pub title: &'static str,
    /// Where the paper shows it.
    pub paper_ref: &'static str,
    /// Produces the table and its claims.
    pub run: fn(&mut Ctx) -> Report,
}

/// Runs the experiments named by `ids` (all of them when empty) at
/// `scale`, writing each table and then the scorecard of every claim to
/// `out`. Returns the claims, each with its experiment's paper
/// reference, or the ids that name no experiment.
pub fn repro(
    scale: Scale,
    ids: &[String],
    out: &mut impl Write,
) -> Result<Vec<(&'static str, Claim)>, Vec<String>> {
    let known = |id: &String| EXPERIMENTS.iter().any(|e| e.id == id);
    let unknown: Vec<String> = ids.iter().filter(|id| !known(id)).cloned().collect();
    if !unknown.is_empty() {
        return Err(unknown);
    }
    let mut ctx = Ctx::new(scale);
    let mut claims: Vec<(&'static str, Claim)> = Vec::new();
    let mut emit = |text: String| out.write_all(text.as_bytes()).expect("write report");
    emit(format!("# beholder reproduction, scale {scale}\n"));
    for e in EXPERIMENTS {
        if !ids.is_empty() && !ids.iter().any(|id| id == e.id) {
            continue;
        }
        let report = (e.run)(&mut ctx);
        let (id, title, paper) = (e.id, e.title, e.paper_ref);
        emit(format!(
            "\n## {id}: {title} ({paper})\n\n{}",
            report.table()
        ));
        claims.extend(report.claims.into_iter().map(|c| (e.paper_ref, c)));
    }
    let card = report::scorecard(&claims, scale);
    emit(format!("\n## Scorecard\n\n{card}"));
    Ok(claims)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scenario_builds() {
        let s = Ctx::new(Scale::Tiny);
        assert_eq!(s.topo.vantages.len(), 3);
        assert!(s.targets.get("caida-z64").is_some());
        assert!(!s.seeds.fdns.is_empty());
    }
}
