//! Feedback-driven seed generation: the closed-loop counterpart of the
//! static sources in [`crate::sources`].
//!
//! The paper's central observation is that *what you probe determines
//! what you see* — the productive seeds for round *n+1* are round *n*'s
//! discoveries, not another static file. This module turns a round's
//! discoveries (interface addresses earned from the traces, plus any
//! inferred subnet prefixes) into a fresh [`SeedList`] by running the
//! same generator machinery the static pipeline uses, but over live
//! measurement output:
//!
//! * **kIP aggregation** (`kip`) over the discovered
//!   interfaces' /64s: dense discovery regions merge into covering
//!   prefixes whose *unprobed gaps* are the next round's best guesses —
//!   the aggregation the CDN uses for anonymity doubles as a locality
//!   summary;
//! * **6Gen-style expansion** ([`crate::sixgen`], loose mode) over the
//!   probed targets plus the raw interface addresses (the paper's own
//!   6Gen input: "targets probed plus interfaces discovered"): fresh
//!   candidate addresses drawn near the dense observed ranges;
//! * **inferred subnets** (e.g. the IA hack's exact /64s, path-
//!   divergence lower bounds) passed through as prefix entries.
//!
//! Everything is deterministic for a given `(inputs, params, rng_seed)`
//! — the adaptive loop's serial and parallel drivers rely on that.

use crate::{kip, sixgen, SeedEntry, SeedList};
use std::net::Ipv6Addr;
use v6addr::Ipv6Prefix;

/// Knobs for one feedback-generation step.
#[derive(Clone, Copy, Debug)]
pub struct FeedbackParams {
    /// kIP aggregation threshold over discovered-interface /64s: a
    /// region splits only while every side still holds `kip_k`
    /// discoveries, so larger values yield coarser (more speculative)
    /// covering prefixes. 2 keeps aggregates tight around what was
    /// actually seen.
    pub kip_k: usize,
    /// Addresses to draw from the 6Gen loose-mode generator per step.
    pub sixgen_budget: usize,
}

impl Default for FeedbackParams {
    fn default() -> Self {
        FeedbackParams {
            kip_k: 2,
            sixgen_budget: 2_048,
        }
    }
}

/// Builds the next round's seed list from this round's discoveries.
///
/// `discovered` are interface addresses earned so far (cumulative input
/// gives the generators more cluster mass); `probed` are the targets
/// already spent on — the paper feeds 6Gen with "the targets CAIDA
/// probed plus the interfaces that probing discovered", and the union
/// is exactly what makes the feedback basis a strict superset of any
/// open-loop expansion of the original seeds; `inferred` are subnet
/// prefixes from the analysis passes. The output list contains the
/// kIP aggregates (over *discoveries* only — locality that was earned,
/// not guessed) and inferred prefixes as [`SeedEntry::Prefix`] entries
/// and the 6Gen draws as [`SeedEntry::Addr`] entries, deduplicated and
/// sorted like every other seed list.
pub fn feedback_list(
    name: impl Into<String>,
    discovered: &[Ipv6Addr],
    probed: &[Ipv6Addr],
    inferred: &[Ipv6Prefix],
    params: &FeedbackParams,
    rng_seed: u64,
) -> SeedList {
    let mut entries: Vec<SeedEntry> = Vec::new();

    // Locality summary: aggregate the discovered interfaces' /64s.
    let iface_64s: Vec<Ipv6Prefix> = discovered
        .iter()
        .map(|&a| Ipv6Prefix::truncating(a, 64))
        .collect();
    entries.extend(
        kip::kip_aggregate(&iface_64s, params.kip_k.max(1))
            .into_iter()
            .map(SeedEntry::Prefix),
    );

    // Analysis-inferred subnets ride along verbatim.
    entries.extend(inferred.iter().copied().map(SeedEntry::Prefix));

    // Generative expansion near the dense observed ranges, seeded by
    // probed targets and discoveries together (6Gen dedups internally).
    let basis: Vec<Ipv6Addr> = probed.iter().chain(discovered.iter()).copied().collect();
    entries.extend(
        sixgen::generate_loose(&basis, params.sixgen_budget, rng_seed)
            .into_iter()
            .map(SeedEntry::Addr),
    );

    SeedList::new(name, entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn deterministic_for_fixed_inputs() {
        // A wide cluster (draw space far larger than the budget), so
        // different rng seeds must produce different draws.
        let disc = vec![
            a("2001:db8::1"),
            a("2001:db8::9"),
            a("2001:db8:1234:5678:9abc::1"),
            a("2001:db8:0:2::1"),
        ];
        let inf: Vec<Ipv6Prefix> = vec!["2001:db8:0:7::/64".parse().unwrap()];
        let p = FeedbackParams::default();
        let x = feedback_list("fb", &disc, &[], &inf, &p, 42);
        let y = feedback_list("fb", &disc, &[], &inf, &p, 42);
        assert_eq!(x.entries, y.entries);
        let z = feedback_list("fb", &disc, &[], &inf, &p, 43);
        assert_ne!(x.entries, z.entries, "rng seed must matter");
    }

    #[test]
    fn carries_inferred_prefixes_and_aggregates() {
        let disc = vec![
            a("2001:db8:0:1::1"),
            a("2001:db8:0:2::1"),
            a("2001:db8:0:3::1"),
        ];
        let inferred: Vec<Ipv6Prefix> = vec!["2620:1:2:3::/64".parse().unwrap()];
        let fb = feedback_list("fb", &disc, &[], &inferred, &FeedbackParams::default(), 1);
        // The inferred prefix is present verbatim.
        assert!(fb
            .prefixes()
            .any(|p| p == "2620:1:2:3::/64".parse().unwrap()));
        // Some aggregate covers each discovered interface's /64.
        for d in &disc {
            assert!(
                fb.prefixes().any(|p| p.len() <= 64 && p.contains_addr(*d)),
                "{d} not covered by any aggregate"
            );
        }
        // 6Gen drew concrete addresses near the cluster.
        assert!(fb.addrs().count() > 0);
    }

    #[test]
    fn probed_basis_widens_generation() {
        // With a probed basis in a second region, draws appear there
        // even though nothing was discovered in it.
        let disc = vec![a("2001:db8::1"), a("2001:db8::ff")];
        let probed = vec![a("2620:77::1"), a("2620:77::9000")];
        let fb = feedback_list("fb", &disc, &probed, &[], &FeedbackParams::default(), 3);
        let second_region = fb
            .addrs()
            .filter(|x| u128::from(*x) >> 96 == u128::from(a("2620:77::")) >> 96)
            .count();
        assert!(second_region > 0, "probed basis must seed generation");
    }

    #[test]
    fn empty_discoveries_yield_only_inferred() {
        let inferred: Vec<Ipv6Prefix> = vec!["2001:db8::/64".parse().unwrap()];
        let fb = feedback_list("fb", &[], &[], &inferred, &FeedbackParams::default(), 7);
        assert_eq!(fb.len(), 1);
        assert!(feedback_list("fb", &[], &[], &[], &FeedbackParams::default(), 7).is_empty());
    }
}
