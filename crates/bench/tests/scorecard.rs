//! The whole reproduction at `Scale::Tiny`, as a tier-1 suite: every
//! claim's status is the one the repository declares, so a paper claim
//! that stops reproducing — or a recorded gap that closes — fails here
//! before it fails CI's `repro` run at `small`. The rendered text is
//! pinned too, so a change that moves any printed number fails here even
//! when no claim changes status.

use beholder_bench::report::{mismatches, Declared};
use beholder_bench::{repro, EXPERIMENTS};
use simnet::Scale;
use std::collections::BTreeSet;

/// The whole `tiny` report — what `BEHOLDER_SCALE=tiny repro` prints.
/// Re-pin only for a change that means to move a number: run this suite,
/// read the differences it prints, copy the file it names over this one,
/// and say which numbers moved and why.
const TINY_REPORT: &str = include_str!("tiny_report.md");

/// Where a run that differs from [`TINY_REPORT`] leaves its text.
const NEW_REPORT: &str = concat!(env!("CARGO_TARGET_TMPDIR"), "/tiny_report.md");

/// The first `n` lines where `new` differs from `old`, each with its
/// line number; empty when the two are equal.
fn first_differences(old: &str, new: &str, n: usize) -> String {
    let (mut old, mut new) = (old.split('\n'), new.split('\n'));
    let mut out = String::new();
    let mut shown = 0;
    for line in 1.. {
        let (a, b) = (old.next(), new.next());
        if a.is_none() && b.is_none() || shown == n {
            break;
        }
        if a != b {
            let none = "(no such line)";
            out.push_str(&format!(
                "line {line}:\n  pinned: {}\n  now:    {}\n",
                a.unwrap_or(none),
                b.unwrap_or(none)
            ));
            shown += 1;
        }
    }
    out
}

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
    if text != TINY_REPORT {
        std::fs::write(NEW_REPORT, &text).expect("write the new report");
        panic!(
            "the tiny report moved; the new text is in {NEW_REPORT}\n{}",
            first_differences(TINY_REPORT, &text, 5)
        );
    }

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
