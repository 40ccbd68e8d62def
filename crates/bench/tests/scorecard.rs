//! The whole reproduction at `Scale::Tiny`, as a tier-1 suite: every
//! claim's status is the one the repository declares, so a paper claim
//! that stops reproducing — or a recorded gap that closes — fails here
//! before it fails CI's `repro` run at `small`. The rendered text is
//! pinned too, so a change that moves any printed number fails here even
//! when no claim changes status.

use analysis::snapshot::fnv1a;
use beholder_bench::report::{mismatches, Declared};
use beholder_bench::{repro, EXPERIMENTS};
use simnet::Scale;
use std::collections::BTreeSet;

/// `(len, fnv1a)` of the whole `tiny` report — what `BEHOLDER_SCALE=tiny
/// repro` prints. Re-pin only for a change that means to move a number,
/// and say which numbers moved and why.
const TINY_REPORT: (usize, u64) = (27_288, 0xafe2_dbf1_0ec4_45b2);

#[test]
fn every_claim_has_its_declared_status_and_the_run_is_deterministic() {
    let run = || {
        let mut out = Vec::new();
        let claims = repro(Scale::Tiny, &[], &mut out).expect("every id is known");
        (String::from_utf8(out).expect("utf-8"), claims)
    };
    // Two whole runs, side by side: fresh scenario, fresh campaign cache.
    let (first, second) = std::thread::scope(|s| {
        let other = s.spawn(run);
        (run(), other.join().expect("second run"))
    });
    assert!(first.0 == second.0, "two runs rendered different output");
    let (text, claims) = first;
    assert_eq!(
        (text.len(), fnv1a(text.as_bytes())),
        TINY_REPORT,
        "the tiny report's bytes moved"
    );

    // Claim ids are `experiment.claim`: which experiments state something.
    let mut stated = BTreeSet::new();
    for (_, c) in &claims {
        let (status, mismatch) = c.status(Scale::Tiny);
        assert!(!mismatch, "{}: {status} ({})", c.id, c.observed);
        // `n/a` is for claims that name a larger scale, nothing else.
        assert_eq!(status == "n/a", c.from != Scale::Tiny, "{}", c.id);
        if let Declared::Gap(why) = c.expect {
            assert!(!why.is_empty(), "{}: a gap needs its reason", c.id);
        }
        let (experiment, _) = c.id.split_once('.').expect("experiment.claim");
        assert!(EXPERIMENTS.iter().any(|e| e.id == experiment), "{}", c.id);
        assert!(
            text.contains(&format!("| `{}` |", c.id)),
            "{} not on the scorecard",
            c.id
        );
        stated.insert(experiment);
    }
    assert_eq!(
        mismatches(&claims, Scale::Tiny),
        0,
        "what `repro` exits with"
    );
    let ids: BTreeSet<&str> = claims.iter().map(|(_, c)| c.id).collect();
    assert_eq!(ids.len(), claims.len(), "claim ids must be unique");
    assert!(claims.len() >= 30, "only {} claims", claims.len());
    for e in EXPERIMENTS {
        assert!(stated.contains(e.id), "{} states no claim", e.id);
        assert!(
            text.contains(&format!("\n## {}: ", e.id)),
            "{} not printed",
            e.id
        );
    }
}

#[test]
fn an_unknown_experiment_is_refused_before_anything_runs() {
    let ids = ["table7".to_string(), "table8".to_string()];
    let mut out = Vec::new();
    assert_eq!(
        repro(Scale::Tiny, &ids, &mut out).err(),
        Some(vec!["table8".to_string()])
    );
    assert!(out.is_empty());
}

#[test]
fn named_experiments_run_alone_in_table_order() {
    let ids = ["fig5".to_string(), "table2".to_string()];
    let mut out = Vec::new();
    let claims = repro(Scale::Tiny, &ids, &mut out).expect("known ids");
    let text = String::from_utf8(out).expect("utf-8");
    let (t2, f5) = (
        text.find("## table2: ").expect("table2"),
        text.find("## fig5: ").expect("fig5"),
    );
    assert!(t2 < f5 && !text.contains("## table7: "));
    assert!(claims
        .iter()
        .all(|(_, c)| c.id.starts_with("table2.") || c.id.starts_with("fig5.")));
}
