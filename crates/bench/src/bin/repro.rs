//! `repro` — the paper's tables and figures from the simulator, then a
//! scorecard of what the paper says about each, checked.
//!
//! ```text
//! repro [EXPERIMENT...]      # all experiments when none is named
//! ```
//!
//! `BEHOLDER_SCALE` (tiny/small/full, default small) is the only setting.
//! Exit status: 0 when every claim's status is the declared one, 1 when
//! one is not, 2 for an unknown experiment or scale.

use beholder_bench::{env_scale, report::mismatches, repro, EXPERIMENTS};
use simnet::Scale;
use std::process::exit;

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let scale = env_scale(Scale::Small);
    match repro(scale, &ids, &mut std::io::stdout().lock()) {
        Ok(claims) => match mismatches(&claims, scale) {
            0 => {}
            n => {
                eprintln!("{n} claim(s) contradict their declared status (MISMATCH above)");
                exit(1)
            }
        },
        Err(unknown) => {
            let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            eprintln!("unknown experiment {unknown:?}; valid: {}", valid.join(" "));
            exit(2)
        }
    }
}
