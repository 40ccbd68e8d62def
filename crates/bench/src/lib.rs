//! Experiment harness shared by the per-table / per-figure binaries.
//!
//! Every binary builds the same [`Scenario`] — synthetic Internet, seed
//! catalog, target catalog — from `BEHOLDER_SCALE` (tiny/small/full,
//! default small) and a fixed master seed, so experiment outputs are
//! reproducible and mutually consistent.

pub mod fmt;

use seeds::sources::SeedCatalog;
use simnet::config::TopologyConfig;
use simnet::{Scale, Topology};
use std::sync::Arc;
use targets::{IidStrategy, TargetCatalog};

/// The master seed all experiments share.
pub const MASTER_SEED: u64 = 0xbe401de5;

/// Everything an experiment needs.
pub struct Scenario {
    /// The synthetic Internet.
    pub topo: Arc<Topology>,
    /// Seed lists.
    pub seeds: SeedCatalog,
    /// Target sets (fixediid synthesis, the campaign default).
    pub targets: TargetCatalog,
    /// Scale in effect.
    pub scale: Scale,
}

/// The scale `BEHOLDER_SCALE` selects (`default` when unset). A value
/// that names no scale ends the process with status 2: a bench run at
/// a scale nobody asked for is worse than no run.
pub fn env_scale(default: Scale) -> Scale {
    Scale::from_env_or(default).unwrap_or_else(|e| {
        eprintln!("BEHOLDER_SCALE: {e}");
        std::process::exit(2)
    })
}

impl Scenario {
    /// Builds the scenario at the environment-selected scale.
    pub fn load() -> Self {
        Self::load_at(env_scale(Scale::Small))
    }

    /// Builds the scenario at an explicit scale.
    pub fn load_at(scale: Scale) -> Self {
        let cfg = TopologyConfig::at_scale(scale, MASTER_SEED);
        let topo = Arc::new(simnet::generate::generate(cfg));
        let seeds = SeedCatalog::synthesize(&topo, MASTER_SEED);
        let targets = TargetCatalog::build(&seeds, IidStrategy::FixedIid);
        Scenario {
            topo,
            seeds,
            targets,
            scale,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scenario_builds() {
        let s = Scenario::load_at(Scale::Tiny);
        assert_eq!(s.topo.vantages.len(), 3);
        assert!(s.targets.get("caida-z64").is_some());
        assert!(!s.seeds.fdns.is_empty());
    }
}
