//! The benchmark harness: command line, rep loops, output.

use pipeline_bench::measure::{self, quartiles, Quartiles, Span, Tracer};
use pipeline_bench::reference::{self, Reference};
use pipeline_bench::work::{Checks, Rep, Scale, Workload};
use pipeline_bench::{adaptive, alloc, compare, spec, store, sweep};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: run.sh [--workload NAME] [--trace 0|1] [--seed N] [--seconds N] [--reps N] [--smoke]
       run.sh --compare A.json B.json

  --workload NAME  sweep | loop | hostile | store (default: all four)
  --trace 0|1      0: untraced reps, end-to-end metrics; 1: traced pass,
                   per-layer metrics (default: both, one after the other)
  --seed N         seed of every generated input (default 7)
  --seconds N      keep adding timed reps until N seconds have been
                   measured, at least 3 reps (default 12)
  --reps N         exactly N timed reps instead
  --smoke          tiny inputs, one rep: exercises every code path in
                   seconds, measures nothing
  --compare A B    compare two result files metric by metric";

/// Timed reps never number fewer than this, however short `--seconds`.
const MIN_REPS: usize = 3;
/// Reference-kernel time per second of set-up or timed rep. One sample
/// (0.1 s) scatters by a tenth around the machine's speed of the
/// minute, so the run's slowdown is the median of many, spread over
/// the run in proportion to what was measured.
const REFERENCE_SHARE: f64 = 0.15;
/// Setup is repeated until this much time has gone into it…
const SETUP_TOTAL_S: f64 = 2.0;
/// …but at most this often.
const SETUP_MAX: usize = 9;

struct Args {
    workloads: Vec<&'static str>,
    passes: Vec<bool>,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    scale: Scale,
}

enum Command {
    Run(Args),
    Compare(PathBuf, PathBuf),
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut args = Args {
        workloads: spec::WORKLOADS.to_vec(),
        passes: vec![false, true],
        seed: 7,
        seconds: 25.0,
        reps: None,
        scale: Scale::Full,
    };
    fn number<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse()
            .map_err(|_| format!("{flag}: '{v}' is not a valid number"))
    }
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => {
                let v = argv.next().ok_or("--workload needs a name")?;
                let known = spec::WORKLOADS.iter().find(|w| **w == v);
                args.workloads = vec![known.ok_or_else(|| format!("unknown workload '{v}'"))?];
            }
            "--trace" => {
                args.passes = match argv.next().as_deref() {
                    Some("0") => vec![false],
                    Some("1") => vec![true],
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--seed" => args.seed = number("--seed", argv.next())?,
            "--seconds" => {
                args.seconds = number("--seconds", argv.next())?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--reps" => {
                let n: usize = number("--reps", argv.next())?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                args.reps = Some(n);
            }
            "--smoke" => args.scale = Scale::Smoke,
            "--compare" => {
                let (a, b) = (argv.next(), argv.next());
                return match (a, b, argv.next()) {
                    (Some(a), Some(b), None) => Ok(Command::Compare(a.into(), b.into())),
                    _ => Err("--compare takes exactly two files and no other flag".into()),
                };
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Command::Run(args))
}

/// One reported number. Quartiles are over the timed reps the value is
/// a median of; a number read once has `n == 1`.
struct Measured {
    name: &'static str,
    unit: &'static str,
    q: Quartiles,
    /// The median as the clocks read it, for the time metrics that are
    /// reported at the reference kernel's nominal speed.
    raw: Option<f64>,
}

struct PassResult {
    workload: &'static str,
    metrics: Vec<Measured>,
    checks: Checks,
    spans: Vec<Span>,
    /// Reference kernel time ÷ its nominal time over this pass; only
    /// the untraced pass measures it.
    slowdown: Option<f64>,
}

fn timed_rep<W: Workload>(w: &W, checks: &mut Checks) -> Rep {
    let (out, wall_s, cpu_s) = measure::timed(|| w.pipeline());
    Rep {
        wall_s,
        cpu_s,
        summary: w.verify(&out, checks),
    }
}

/// Timed reps until `seconds` have been measured (at least `MIN_REPS`),
/// or exactly `--reps`. `after` runs after every rep with the rep's
/// wall seconds.
fn timed_reps<W: Workload>(
    w: &W,
    args: &Args,
    seconds: f64,
    checks: &mut Checks,
    mut after: impl FnMut(f64),
) -> Vec<Rep> {
    let mut reps = Vec::new();
    let mut measured_s = 0.0;
    loop {
        let rep = timed_rep(w, checks);
        measured_s += rep.wall_s;
        after(rep.wall_s);
        reps.push(rep);
        let done = match (args.scale, args.reps) {
            (Scale::Smoke, _) => true,
            (_, Some(n)) => reps.len() >= n,
            (_, None) => reps.len() >= MIN_REPS && measured_s >= seconds,
        };
        if done {
            return reps;
        }
    }
}

/// Same seed, same inputs, same result: the deterministic part of every
/// rep must be identical.
fn check_repeatable(workload: &str, reps: &[Rep], checks: &mut Checks) {
    let first = &reps[0].summary;
    let same = reps.iter().all(|r| {
        let s = &r.summary;
        (s.probes, s.interfaces, s.digest) == (first.probes, first.interfaces, first.digest)
    });
    checks.check(same, || {
        format!("{workload}: probes, interfaces or digest differ between reps")
    });
}

fn untraced_pass<W: Workload>(
    workload: &'static str,
    args: &Args,
    setup: impl Fn() -> W,
) -> PassResult {
    // The reference kernel is sampled around the set-ups and between
    // the timed reps; the run's median sample says how fast the
    // machine was while this run measured.
    let mut reference = Reference::default();
    let mut reference_s = vec![reference.sample()];
    let mut sample_for = |measured_s: f64| {
        let mut spent_s = 0.0;
        while spent_s < REFERENCE_SHARE * measured_s {
            let s = reference.sample();
            spent_s += s;
            reference_s.push(s);
        }
    };

    let mut setup_s = Vec::new();
    let mut w;
    loop {
        let t = Instant::now();
        w = setup();
        setup_s.push(t.elapsed().as_secs_f64());
        if args.scale == Scale::Smoke
            || setup_s.len() >= SETUP_MAX
            || setup_s.iter().sum::<f64>() >= SETUP_TOTAL_S
        {
            break;
        }
    }
    let mut checks = Checks::default();
    sample_for(setup_s.iter().sum());

    // The first pass warms caches and the heap; it is also the one
    // counted pass, so the peak it reports is above the level at its
    // own start and the timed reps below run with counting off.
    alloc::start();
    let out = w.pipeline();
    let counted = alloc::stop();
    let warm = w.verify(&out, &mut checks);
    drop(out);

    let reps = timed_reps(&w, args, args.seconds, &mut checks, &mut sample_for);
    check_repeatable(workload, &reps, &mut checks);
    checks.check(reps[0].summary.digest == warm.digest, || {
        format!("{workload}: the counted pass produced a different result")
    });

    // > 1 when the machine ran slower than the kernel's nominal speed.
    let slowdown = measure::median(&reference_s) / reference::NOMINAL_S;
    let s = &reps[0].summary;
    let probes = s.probes as f64;
    let declared = |name: &str, q: Quartiles, raw: Option<f64>| {
        let m = spec::END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("a declared end-to-end metric");
        Measured {
            name: m.name,
            unit: m.unit,
            q,
            raw,
        }
    };
    // A time metric: every sample is scaled to nominal machine speed,
    // the unscaled median rides along.
    let at_nominal = |name: &str, samples: Vec<f64>, scale: f64| {
        let raw = measure::median(&samples);
        let scaled: Vec<f64> = samples.iter().map(|v| v * scale).collect();
        declared(name, quartiles(&scaled), Some(raw))
    };
    let once = |name: &str, value: f64| declared(name, quartiles(&[value]), None);
    let metrics = vec![
        at_nominal(
            "probes_per_s",
            reps.iter().map(|r| probes / r.wall_s).collect(),
            slowdown,
        ),
        at_nominal(
            "cpu_ns_per_probe",
            reps.iter().map(|r| r.cpu_s * 1e9 / probes).collect(),
            1.0 / slowdown,
        ),
        once("interfaces_per_kprobe", s.interfaces as f64 * 1e3 / probes),
        once("peak_heap_mb", counted.peak_bytes as f64 * 1e-6),
        at_nominal("setup_s", setup_s, 1.0 / slowdown),
    ];
    PassResult {
        workload,
        metrics,
        checks,
        spans: Vec::new(),
        slowdown: Some(slowdown),
    }
}

fn traced_pass<W: Workload>(
    workload: &'static str,
    args: &Args,
    setup: impl Fn() -> W,
) -> PassResult {
    let w = setup();
    let mut checks = Checks::default();
    // No separate warm-up: the baseline is a median of three, which a
    // slow first rep does not move.
    let baseline = timed_reps(&w, args, 0.0, &mut checks, |_| ());
    check_repeatable(workload, &baseline, &mut checks);
    let mut tr = Tracer::new();
    let values = w.traced(&baseline, &mut tr, &mut checks);
    for (name, _) in &values {
        assert!(
            spec::PER_LAYER.iter().any(|l| l.name == *name),
            "{workload} reported undeclared layer metric {name}"
        );
    }
    let metrics = spec::PER_LAYER
        .iter()
        .map(|l| {
            let value = values
                .iter()
                .find(|(n, _)| *n == l.name)
                .map_or(0.0, |v| v.1);
            Measured {
                name: l.name,
                unit: l.unit,
                q: quartiles(&[value]),
                raw: None,
            }
        })
        .collect();
    PassResult {
        workload,
        metrics,
        checks,
        spans: tr.spans().to_vec(),
        slowdown: None,
    }
}

fn run_pass(workload: &'static str, traced: bool, args: &Args, out_dir: &Path) -> PassResult {
    fn pass<W: Workload>(
        workload: &'static str,
        traced: bool,
        args: &Args,
        setup: impl Fn() -> W,
    ) -> PassResult {
        if traced {
            traced_pass(workload, args, setup)
        } else {
            untraced_pass(workload, args, setup)
        }
    }
    let (scale, seed) = (args.scale, args.seed);
    match workload {
        "sweep" => pass(workload, traced, args, || sweep::Sweep::setup(scale, seed)),
        "loop" => pass(workload, traced, args, || {
            adaptive::Adaptive::setup(scale, seed, false)
        }),
        "hostile" => pass(workload, traced, args, || {
            adaptive::Adaptive::setup(scale, seed, true)
        }),
        "store" => pass(workload, traced, args, || {
            store::Store::setup(scale, seed, out_dir)
        }),
        other => unreachable!("parse_args admits only declared workloads, not {other}"),
    }
}

fn metric_json(m: &Measured) -> String {
    let raw = m.raw.map_or(String::new(), |r| format!(", \"raw\": {r}"));
    format!(
        "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"q1\": {}, \"q3\": {}, \"n\": {}{raw}}}",
        m.name, m.q.median, m.unit, m.q.q1, m.q.q3, m.q.n
    )
}

/// `out/results.json`: every metric measured by this invocation, per
/// workload — the file `--compare` reads.
fn results_json(args: &Args, results: &[PassResult]) -> String {
    let workloads: Vec<String> = args
        .workloads
        .iter()
        .map(|w| {
            let of_workload = || results.iter().filter(|r| r.workload == *w);
            let metrics: Vec<String> = of_workload()
                .flat_map(|r| r.metrics.iter().map(metric_json))
                .chain(
                    of_workload()
                        .filter_map(|r| r.slowdown)
                        .map(|s| format!("\"reference_slowdown\": {s}")),
                )
                .collect();
            format!(
                "    \"{w}\": {{\n      {}\n    }}",
                metrics.join(",\n      ")
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {},\n  \"scale\": \"{:?}\",\n  \"parallelism\": {},\n  \"results\": {{\n{}\n  }}\n}}\n",
        args.seed,
        args.scale,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        workloads.join(",\n")
    )
}

fn trace_json(results: &[PassResult]) -> String {
    let mut spans = Vec::new();
    for r in results {
        for (id, s) in r.spans.iter().enumerate() {
            spans.push(format!(
                "  {{\"workload\": \"{}\", \"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                r.workload,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ));
        }
    }
    format!("{{\"spans\": [\n{}\n]}}\n", spans.join(",\n"))
}

fn run(args: &Args) -> ExitCode {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut results = Vec::new();
    for &traced in &args.passes {
        for &workload in &args.workloads {
            let r = run_pass(workload, traced, args, &out_dir);
            if let Some(s) = r.slowdown {
                eprintln!("{workload}: the reference kernel took {s:.3} x its nominal time");
            }
            for m in &r.metrics {
                print!("{} {} {} {}", r.workload, m.name, m.q.median, m.unit);
                if m.q.n > 1 {
                    print!(" q1={} q3={} n={}", m.q.q1, m.q.q3, m.q.n);
                }
                if let Some(raw) = m.raw {
                    print!(" raw={raw}");
                }
                println!();
            }
            results.push(r);
        }
    }

    let written = std::fs::write(out_dir.join("results.json"), results_json(args, &results))
        .and_then(|()| {
            if args.passes.contains(&true) {
                std::fs::write(out_dir.join("trace.json"), trace_json(&results))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "error: cannot write results under {}: {e}",
            out_dir.display()
        );
        return ExitCode::FAILURE;
    }

    let attempted: u64 = results.iter().map(|r| r.checks.attempted).sum();
    let failures: Vec<&String> = results.iter().flat_map(|r| &r.checks.failures).collect();
    for f in &failures {
        eprintln!("FAILED CHECK: {f}");
    }
    // The last line is the machine-readable result. With one workload
    // and one pass the keys are the bare metric names; otherwise they
    // carry the workload.
    let single = results.len() == 1;
    let metrics: Vec<String> = results
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| {
                let key = if single {
                    m.name.to_string()
                } else {
                    format!("{}/{}", r.workload, m.name)
                };
                format!(
                    "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.q.median, m.unit
                )
            })
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        failures.len(),
        metrics.join(", ")
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => run(&args),
        Ok(Command::Compare(a, b)) => compare::run(&a, &b),
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
