//! `--compare A.json B.json`: do two result files agree, per
//! (end-to-end metric, workload), within the metric's bound? `A` is the
//! reference: the change is B's value relative to A's.

use crate::json::{self, Value};
use crate::spec::{Better, END_TO_END};
use std::path::Path;
use std::process::ExitCode;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn value_of(file: &Value, workload: &str, metric: &str) -> Option<f64> {
    file.get("results")?
        .get(workload)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let (fa, fb) = match (load(a), load(b)) {
        (Ok(fa), Ok(fb)) => (fa, fb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if fa.get("seed") != fb.get("seed") || fa.get("scale") != fb.get("scale") {
        eprintln!("error: the two files were measured with different seeds or scales");
        return ExitCode::from(2);
    }
    let mut compared = 0;
    let mut disagree = 0;
    println!("workload metric A B change bound verdict");
    for (workload, _) in fa.get("results").map_or(&[][..], Value::members) {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (
                value_of(&fa, workload, m.name),
                value_of(&fb, workload, m.name),
            ) else {
                continue;
            };
            compared += 1;
            let change = (vb - va) / va;
            let worse = match m.better {
                Better::Higher => -change,
                Better::Lower => change,
            };
            let verdict = if worse > m.bound {
                "worse"
            } else if -worse > m.bound {
                "better"
            } else {
                "agree"
            };
            if verdict != "agree" {
                disagree += 1;
            }
            println!(
                "{workload} {} {va} {vb} {:+.2}% {:.0}% {verdict}",
                m.name,
                change * 100.0,
                m.bound * 100.0
            );
        }
    }
    if compared == 0 {
        eprintln!("error: the two files share no end-to-end metric");
        return ExitCode::from(2);
    }
    println!("{compared} compared, {disagree} outside their bound");
    if disagree == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
