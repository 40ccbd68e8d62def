//! `yarrp6_sim` — the Yarrp6 prober as a command-line tool, run against
//! the simulated Internet (the release-artifact form of the paper's
//! prober \[7\], adapted to this reproduction's substrate).
//!
//! ```text
//! yarrp6_sim [--scale tiny|small|full] [--seed N] [--vantage 0..2]
//!            [--set NAME] [--proto icmp6|udp|tcp] [--rate PPS]
//!            [--max-ttl N] [--no-fill] [--neighborhood TTL:WINDOW_US]
//!            [--out-targets FILE] [--out-csv FILE] [--out-ifaces FILE]
//! ```
//!
//! Examples:
//!
//! ```sh
//! cargo run --release -p beholder_bench --bin yarrp6_sim -- --set cdn-k32-z64
//! cargo run --release -p beholder_bench --bin yarrp6_sim -- \
//!     --scale tiny --set caida-z64 --rate 2000 --out-csv /tmp/run.csv
//! ```

use seeds::sources::SeedCatalog;
use simnet::config::TopologyConfig;
use simnet::Scale;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use targets::{IidStrategy, TargetCatalog};
use v6packet::probe::Protocol;
use yarrp6::campaign::run_campaign;
use yarrp6::yarrp::Neighborhood;
use yarrp6::YarrpConfig;

struct Args {
    scale: Scale,
    seed: u64,
    vantage: u8,
    set: String,
    cfg: YarrpConfig,
    out_targets: Option<PathBuf>,
    out_csv: Option<PathBuf>,
    out_ifaces: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: yarrp6_sim [--scale tiny|small|full] [--seed N] [--vantage 0..2]\n\
         \x20                 [--set NAME] [--proto icmp6|udp|tcp] [--rate PPS]\n\
         \x20                 [--max-ttl N] [--no-fill] [--neighborhood TTL:WINDOW_US]\n\
         \x20                 [--out-targets FILE] [--out-csv FILE] [--out-ifaces FILE]\n\
         sets: caida|dnsdb|fiebig|fdns|cdn-k256|cdn-k32|6gen|tum|random|combined x -z48/-z64"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: beholder_bench::env_scale(Scale::Small),
        seed: 0xbe401de5,
        vantage: 0,
        set: "caida-z64".into(),
        cfg: YarrpConfig::default(),
        out_targets: None,
        out_csv: None,
        out_ifaces: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match a.as_str() {
            "--scale" => {
                args.scale = val("--scale").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--vantage" => args.vantage = val("--vantage").parse().unwrap_or_else(|_| usage()),
            "--set" => args.set = val("--set"),
            "--proto" => {
                args.cfg.protocol = match val("--proto").as_str() {
                    "icmp6" => Protocol::Icmp6,
                    "udp" => Protocol::Udp,
                    "tcp" => Protocol::Tcp,
                    other => {
                        eprintln!("unknown protocol {other}");
                        usage()
                    }
                }
            }
            "--rate" => args.cfg.rate_pps = val("--rate").parse().unwrap_or_else(|_| usage()),
            "--max-ttl" => args.cfg.max_ttl = val("--max-ttl").parse().unwrap_or_else(|_| usage()),
            "--no-fill" => args.cfg.fill_mode = false,
            "--neighborhood" => {
                let v = val("--neighborhood");
                let (ttl, win) = v.split_once(':').unwrap_or_else(|| usage());
                args.cfg.neighborhood = Some(Neighborhood {
                    max_ttl: ttl.parse().unwrap_or_else(|_| usage()),
                    window_us: win.parse().unwrap_or_else(|_| usage()),
                });
            }
            "--out-targets" => args.out_targets = Some(val("--out-targets").into()),
            "--out-csv" => args.out_csv = Some(val("--out-csv").into()),
            "--out-ifaces" => args.out_ifaces = Some(val("--out-ifaces").into()),
            "-h" | "--help" => usage(),
            other => {
                eprintln!("unknown argument {other}");
                usage()
            }
        }
    }
    if args.vantage > 2 {
        eprintln!("vantage must be 0..2");
        usage()
    }
    args
}

fn main() {
    let args = parse_args();
    eprintln!(
        "# generating topology (scale {:?}, seed {:#x})…",
        args.scale, args.seed
    );
    let topo = Arc::new(simnet::generate::generate(TopologyConfig::at_scale(
        args.scale, args.seed,
    )));
    eprintln!(
        "# {} ASes, {} prefixes, {} routers, {} hosts",
        topo.ases.len(),
        topo.bgp.prefix_count(),
        topo.routers.len(),
        topo.host_count()
    );
    let seeds = SeedCatalog::synthesize(&topo, args.seed);
    let catalog = TargetCatalog::build(&seeds, IidStrategy::FixedIid);
    let Some(set) = catalog.get(&args.set) else {
        eprintln!("unknown target set {:?}; available:", args.set);
        for (n, s) in catalog.iter() {
            eprintln!("  {n} ({} targets)", s.len());
        }
        exit(2);
    };

    if let Some(path) = &args.out_targets {
        analysis::export::write_addrs(path, &set.name, &set.addrs).expect("write targets");
        eprintln!("# wrote {} targets to {}", set.len(), path.display());
    }

    eprintln!(
        "# probing {} ({} targets) from vantage {} at {}pps, max TTL {}…",
        set.name,
        set.len(),
        topo.vantages[args.vantage as usize].name,
        args.cfg.rate_pps,
        args.cfg.max_ttl
    );
    let res = run_campaign(&topo, args.vantage, set, &args.cfg);
    let log = &res.log;
    let ifaces = log.interface_addrs();
    println!(
        "probes={} fills={} responses={} interfaces={} reached={} duration_virtual={:.1}s",
        log.probes_sent,
        log.fills,
        log.records.len(),
        ifaces.len(),
        log.reached_targets().len(),
        log.duration_us as f64 / 1e6,
    );
    println!(
        "engine: rate_limited={} lost={} silent={} rewritten_quotes={}",
        res.engine_stats.rate_limited,
        res.engine_stats.lost,
        res.engine_stats.silent_router,
        res.engine_stats.rewritten_quotes,
    );

    if let Some(path) = &args.out_csv {
        analysis::export::write_log_csv(path, log).expect("write csv");
        eprintln!(
            "# wrote {} records to {}",
            log.records.len(),
            path.display()
        );
    }
    if let Some(path) = &args.out_ifaces {
        analysis::export::write_addrs(path, "interfaces", &ifaces).expect("write ifaces");
        eprintln!("# wrote {} interfaces to {}", ifaces.len(), path.display());
    }
}
