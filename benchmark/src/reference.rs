//! A fixed reference kernel that measures how fast the machine is
//! right now.
//!
//! The benchmark runs on a shared 2-vCPU VM whose speed shifts by a
//! factor of up to 1.8 for minutes at a time with the neighbours' load:
//! the same binary on the same inputs reads 1.2 M probes/s in one
//! quarter of an hour and 0.65 M in the next, CPU time included. No
//! number of reps inside one run averages that away, and it is larger
//! than any bound a regression gate could use. So every run samples
//! this kernel between its timed reps, and the time metrics are
//! reported at the kernel's nominal speed (`NOMINAL_S`): measured time
//! × nominal ÷ measured kernel time. The raw readings are printed
//! beside them.
//!
//! The kernel never calls the library, so no change to the library can
//! move it. It is a chain of dependent random reads and writes over a
//! 4 MiB table — past the private caches, inside the shared one — with
//! a few integer operations per step, because that is what slows down
//! like the pipeline does. Over 13 runs of each workload spread across
//! a slow phase, workload time rose with this kernel's time with a
//! log-log slope of 0.9 to 1.2 on all four workloads, so dividing is
//! the right correction. The same walk over 32 MiB with more integer
//! work per step under-corrected (slope 1.1 to 1.7), a pure integer
//! kernel barely notices the neighbours (2.3 to 3.8), and a streaming
//! pass over 64 MiB over-corrects (0.3 to 0.5).

use std::time::Instant;

/// Kernel time on this machine class when nothing else contends (the
/// fastest regime seen while the benchmark was written). Only a scale:
/// it fixes what "one second" means in the normalised metrics, and
/// cancels out of any comparison between two commits.
pub const NOMINAL_S: f64 = 0.100;

const TABLE_WORDS: usize = 1 << 19; // 4 MiB
const STEPS: u64 = 2_800_000;

pub struct Reference {
    table: Vec<u64>,
    state: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            table: (0..TABLE_WORDS as u64).collect(),
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl Reference {
    /// Runs the kernel once and returns its wall seconds.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mask = TABLE_WORDS as u64 - 1;
        let mut x = self.state;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // The next index depends on what this step read, so reads
            // cannot overlap: latency-bound, like a hash probe.
            let slot = (x & mask) as usize;
            let v = self.table[slot]
                .rotate_left(5)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ x;
            self.table[slot] = v;
            x ^= v >> 40;
        }
        self.state = x;
        t.elapsed().as_secs_f64()
    }
}
