//! End-to-end target catalog: the 18 target sets (9 sources × z48/z64)
//! that the paper's campaigns probe (Table 5 / Table 7 row space) —
//! plus the feedback-driven entry point ([`feedback_targets`]) that
//! turns *discovered* prefixes into the next probing round's targets
//! instead of starting from a static file.

use crate::synthesize::{synthesize, IidStrategy};
use crate::transform::zn;
use crate::TargetSet;
use seeds::sources::SeedCatalog;
use seeds::SeedList;
use std::sync::Arc;
use v6addr::Ipv6Prefix;

/// All generated target sets, in table order.
#[derive(Clone, Debug)]
pub struct TargetCatalog {
    /// `(source-name, aggregation)` → target set; aggregation ∈ {48, 64}.
    pub sets: Vec<TargetSet>,
}

/// Sources excluded from the exclusivity basis (supersets of others).
const NON_INDEPENDENT: [&str; 3] = ["tum", "combined", "random"];

/// Feedback-driven target synthesis: the adaptive loop's replacement
/// for the static `zn` step.
///
/// Address entries aggregate to their /64 exactly like `z64`. Prefix
/// entries (kIP aggregates of discovered interfaces, analysis-inferred
/// subnets) are *expanded*: every /64 inside the prefix, up to
/// `per_prefix_64s` of them, becomes an intermediate prefix — the gaps
/// inside an aggregate are precisely where locality says the next
/// round should look, which plain `zn` (base-/64 only) would throw
/// away. One target per intermediate prefix is then synthesized under
/// `strategy`, deduplicated and sorted as always.
pub fn feedback_targets(
    name: impl Into<Arc<str>>,
    list: &SeedList,
    per_prefix_64s: usize,
    strategy: IidStrategy,
) -> TargetSet {
    let cap = per_prefix_64s.max(1) as u128;
    let mut prefixes: Vec<Ipv6Prefix> = Vec::new();
    for p in list.prefixes() {
        if p.len() >= 64 {
            prefixes.push(Ipv6Prefix::truncating(p.base(), 64));
        } else {
            let n = p.count_64s().min(cap);
            for i in 0..n {
                prefixes.push(p.subnet(64, i));
            }
        }
    }
    prefixes.sort_unstable();
    prefixes.dedup();
    synthesize(name, &prefixes, strategy)
}

impl TargetCatalog {
    /// Builds every `(source, zn)` combination with the given synthesis
    /// strategy (campaigns use `fixediid`).
    pub fn build(catalog: &SeedCatalog, strategy: IidStrategy) -> Self {
        let mut sets = Vec::new();
        let mut named = catalog.named();
        named.push(("combined", &catalog.combined));
        for (name, list) in named {
            for n in [48u8, 64] {
                let prefixes = zn(list, n);
                sets.push(synthesize(format!("{name}-z{n}"), &prefixes, strategy));
            }
        }
        TargetCatalog { sets }
    }

    /// Looks a set up by full name (e.g. `"cdn-k32-z64"`).
    pub fn get(&self, name: &str) -> Option<&TargetSet> {
        self.sets.iter().find(|s| &*s.name == name)
    }

    /// Indices of the independent sets (the Table 5 exclusivity basis:
    /// everything except TUM, Combined and the random control).
    pub fn independent_indices(&self) -> Vec<usize> {
        self.sets
            .iter()
            .enumerate()
            .filter(|(_, s)| !NON_INDEPENDENT.iter().any(|ni| s.name.starts_with(ni)))
            .map(|(i, _)| i)
            .collect()
    }

    /// All sets as `(name, &set)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TargetSet)> {
        self.sets.iter().map(|s| (&*s.name, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::config::TopologyConfig;
    use simnet::generate::generate;

    fn catalog() -> TargetCatalog {
        let topo = generate(TopologyConfig::tiny(42));
        let seeds = SeedCatalog::synthesize(&topo, 99);
        TargetCatalog::build(&seeds, IidStrategy::FixedIid)
    }

    #[test]
    fn feedback_targets_expand_prefix_interiors() {
        use seeds::SeedEntry;
        let list = SeedList::new(
            "fb",
            vec![
                SeedEntry::Prefix("2001:db8::/60".parse().unwrap()), // 16 /64s
                SeedEntry::Addr("2620::1234".parse().unwrap()),
                SeedEntry::Prefix("2620:0:0:7::/64".parse().unwrap()),
            ],
        );
        let set = feedback_targets("fb-targets", &list, 8, IidStrategy::FixedIid);
        // /60 expands to its first 8 /64s (capped), the address to its
        // own /64, the /64 passes through: 10 targets.
        assert_eq!(set.len(), 10);
        for a in &set.addrs {
            assert_eq!(u128::from(*a) as u64, crate::synthesize::FIXED_IID);
        }
        // Interior /64s beyond the base are present.
        assert!(set.contains(
            "2001:db8:0:3:1234:5678:1234:5678"
                .parse::<std::net::Ipv6Addr>()
                .unwrap()
        ));
        // Uncapped expansion covers the whole /60.
        let full = feedback_targets("fb-full", &list, 1_000, IidStrategy::FixedIid);
        assert_eq!(full.len(), 18);
        // Determinism.
        assert_eq!(
            feedback_targets("x", &list, 8, IidStrategy::FixedIid).addrs,
            set.addrs
        );
    }

    #[test]
    fn twenty_sets_built() {
        let c = catalog();
        assert_eq!(c.sets.len(), 20); // 10 sources × 2 aggregations
        assert!(c.get("caida-z64").is_some());
        assert!(c.get("cdn-k32-z48").is_some());
        assert!(c.get("combined-z64").is_some());
        assert!(c.get("nope").is_none());
    }

    #[test]
    fn z64_at_least_as_large_as_z48() {
        let c = catalog();
        for src in ["caida", "fdns", "fiebig", "cdn-k32"] {
            let z48 = c.get(&format!("{src}-z48")).unwrap().len();
            let z64 = c.get(&format!("{src}-z64")).unwrap().len();
            assert!(z64 >= z48, "{src}: z64 {z64} < z48 {z48}");
        }
    }

    #[test]
    fn independent_basis_excludes_supersets() {
        let c = catalog();
        let ind = c.independent_indices();
        assert_eq!(ind.len(), 14); // 7 independent sources × 2
        for &i in &ind {
            let n = &c.sets[i].name;
            assert!(
                !n.starts_with("tum") && !n.starts_with("combined") && !n.starts_with("random")
            );
        }
    }

    #[test]
    fn all_targets_have_fixed_iid() {
        let c = catalog();
        for (_, set) in c.iter() {
            for &a in set.addrs.iter().take(20) {
                assert_eq!(u128::from(a) as u64, crate::synthesize::FIXED_IID);
            }
        }
    }

    #[test]
    fn z64_slice() {
        let c = catalog();
        let z64 = c.sets.iter().filter(|s| s.name.ends_with("-z64"));
        assert_eq!(z64.count(), 10);
    }
}
