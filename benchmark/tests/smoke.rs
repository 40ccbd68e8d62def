//! Runs the harness end to end at smoke scale and checks what it
//! prints against the declared metric lists, and the declared lists
//! against `BENCHMARK.json`.

use pipeline_bench::json::{self, Value};
use pipeline_bench::spec::{DECLARED, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_pipeline-bench");

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("parse")
}

fn names(list: &Value) -> Vec<&str> {
    list.items()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("a name"))
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_harness_measures() {
    let b = benchmark_json();
    assert_eq!(names(b.get("workloads").unwrap()), DECLARED);
    assert!(DECLARED.iter().all(|w| WORKLOADS.contains(w)));
    let e2e = b.get("end_to_end").unwrap();
    assert_eq!(e2e.items().len(), END_TO_END.len());
    for (decl, m) in e2e.items().iter().zip(END_TO_END) {
        assert_eq!(decl.get("name").unwrap().as_str(), Some(m.name));
        assert_eq!(decl.get("unit").unwrap().as_str(), Some(m.unit));
        assert_eq!(
            decl.get("better").unwrap().as_str(),
            Some(m.better.as_str())
        );
        assert_eq!(decl.get("bound").unwrap().as_f64(), Some(m.bound));
    }
    let layers = b.get("per_layer").unwrap();
    assert_eq!(layers.items().len(), PER_LAYER.len());
    for (decl, m) in layers.items().iter().zip(PER_LAYER) {
        assert_eq!(decl.get("name").unwrap().as_str(), Some(m.name));
        assert_eq!(decl.get("unit").unwrap().as_str(), Some(m.unit));
        assert_eq!(
            decl.get("better").unwrap().as_str(),
            Some(m.better.as_str())
        );
    }
    for name in names(e2e).into_iter().chain(names(layers)).chain(WORKLOADS) {
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name}"
        );
    }
}

#[test]
fn smoke_run_prints_every_declared_metric_once_and_passes_its_checks() {
    let out = Command::new(BIN).arg("--smoke").output().expect("run");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8");
    assert!(
        out.status.success(),
        "smoke run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = json::parse(lines.pop().expect("a result line")).expect("result JSON");
    // Every output check passed — among them that the staged `sweep`
    // replay equals the fused run bit for bit.
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(last.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

    let mut seen: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for line in lines {
        let mut f = line.split(' ');
        let (w, m, v) = (f.next().unwrap(), f.next().unwrap(), f.next().unwrap());
        v.parse::<f64>()
            .unwrap_or_else(|_| panic!("not a number in: {line}"));
        *seen.entry((w, m)).or_default() += 1;
    }
    let b = benchmark_json();
    let declared: Vec<&str> = names(b.get("end_to_end").unwrap())
        .into_iter()
        .chain(names(b.get("per_layer").unwrap()))
        .collect();
    for w in WORKLOADS {
        for m in &declared {
            assert_eq!(
                seen.remove(&(w, m)),
                Some(1),
                "{w} {m} not printed exactly once"
            );
        }
    }
    assert!(seen.is_empty(), "undeclared metrics printed: {seen:?}");

    // The per-(workload, pass) form the driver uses: bare metric names.
    let out = Command::new(BIN)
        .args([
            "--smoke",
            "--workload",
            "sweep",
            "--trace",
            "0",
            "--seed",
            "8",
            "--seconds",
            "1",
        ])
        .output()
        .expect("run");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8");
    let last = json::parse(stdout.lines().last().unwrap()).expect("result JSON");
    let keys: Vec<&str> = last
        .get("metrics")
        .unwrap()
        .members()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, names(b.get("end_to_end").unwrap()));
}

#[test]
fn bad_flags_are_hard_errors() {
    for args in [
        &["--sed", "7"][..],
        &["--seed", "seven"],
        &["--workload", "swep"],
        &["--reps", "0"],
        &["--trace", "2"],
        &["--seconds"],
    ] {
        let out = Command::new(BIN).args(args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn compare_flags_a_metric_outside_its_bound_and_nothing_else() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/compare-test");
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let file = |name: &str, probes_per_s: f64| {
        let path = dir.join(name);
        let text = format!(
            r#"{{"seed": 7, "scale": "Full", "results": {{"sweep": {{
                "probes_per_s": {{"value": {probes_per_s}, "unit": "probes/s"}},
                "peak_heap_mb": {{"value": 120.0, "unit": "MB"}}}}}}}}"#
        );
        std::fs::write(&path, text).expect("write a result file");
        path
    };
    let reference = file("a.json", 1_000_000.0);
    let compare = |other: &std::path::Path| {
        Command::new(BIN)
            .arg("--compare")
            .args([&reference, other])
            .output()
            .expect("run")
    };
    // 20% slower is inside the 25% bound, 30% slower and 30% faster are
    // both outside it.
    assert_eq!(compare(&file("b.json", 800_000.0)).status.code(), Some(0));
    for outside in [700_000.0, 1_300_000.0] {
        let out = compare(&file("c.json", outside));
        assert_eq!(out.status.code(), Some(1));
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("2 compared, 1 outside their bound"), "{text}");
    }
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}
