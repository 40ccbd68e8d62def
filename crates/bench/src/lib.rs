//! Experiment harness shared by the per-table / per-figure binaries.
//!
//! Every binary builds the same [`Scenario`] — synthetic Internet, seed
//! catalog, target catalog — from `BEHOLDER_SCALE` (tiny/small/full,
//! default small) and a fixed master seed, so experiment outputs are
//! reproducible and mutually consistent.

pub mod fmt;
pub mod seed_baseline;

use seeds::sources::SeedCatalog;
use simnet::config::TopologyConfig;
use simnet::{Scale, Topology};
use std::str::FromStr;
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

/// What `name`'s value means: `default` when the variable is unset,
/// else the value parsed as a `T`. A value that does not parse is an
/// error naming the variable, the value and the expected type — never
/// the default (`BENCH_CHURN_BUDGET=400k` must not quietly run 400 000).
pub fn parse_env<T: FromStr>(name: &str, raw: Option<&str>, default: T) -> Result<T, String> {
    let Some(raw) = raw else {
        return Ok(default);
    };
    raw.trim().parse().map_err(|_| {
        let expected = std::any::type_name::<T>();
        format!("{name}={raw:?}: expected a value of type {expected}")
    })
}

/// The bench bins' one environment reader: [`parse_env`] on the
/// process environment, ending the process with status 2 on a value
/// that does not parse (as [`env_scale`] does for a scale nobody
/// named).
pub fn env_or<T: FromStr>(name: &str, default: T) -> T {
    let raw = std::env::var_os(name);
    let raw = raw.as_deref().map(|s| s.to_string_lossy());
    parse_env(name, raw.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// An optional gate threshold (`*_MIN_*`, `*_MAX_*`): `None` when the
/// variable is unset, so the bin skips the gate.
pub fn env_gate(name: &str) -> Option<f64> {
    std::env::var_os(name).map(|_| env_or(name, f64::NAN))
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

    #[test]
    fn env_values_parse_or_are_refused_never_defaulted() {
        assert_eq!(parse_env("BENCH_X", None, 400_000u64), Ok(400_000));
        assert_eq!(
            parse_env("BENCH_X", Some("120000"), 400_000u64),
            Ok(120_000)
        );
        assert_eq!(parse_env("BENCH_X", Some(" 12 "), 3usize), Ok(12));
        assert_eq!(parse_env("BENCH_X", Some("0.6"), f64::NAN), Ok(0.6));
        // The typo class: a unit suffix, a float where a count goes, an
        // empty value, an out-of-range TTL.
        for (raw, what) in [("400k", "u64"), ("1.5", "u64"), ("", "u64")] {
            let err = parse_env("BENCH_X", Some(raw), 400_000u64).unwrap_err();
            assert!(
                err.contains("BENCH_X") && err.contains(&format!("{raw:?}")) && err.contains(what),
                "unhelpful message: {err}"
            );
        }
        assert!(parse_env("BENCH_TTL", Some("300"), 12u8).is_err());
        assert!(parse_env("BENCH_MIN", Some("fast"), f64::NAN).is_err());
    }
}
