//! Clocks, order statistics and the in-memory span recorder.

use std::time::Instant;

/// Process CPU time (user + system, every thread including ones that
/// already exited) in seconds, from `/proc/self/stat`. Linux reports
/// these fields in `USER_HZ` ticks, which is 100 on every supported
/// architecture.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are
    // positional only after its closing parenthesis.
    let after = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let mut fields = after.split(' ').skip(11);
    let mut tick = || -> u64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (tick() + tick()) as f64 / 100.0
}

/// Wall and CPU seconds of `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let c0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, cpu_seconds() - c0)
}

/// Median and quartiles of a sample, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so numbers
/// here can be compared directly with the driver's.
#[derive(Clone, Copy, Debug)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |p: f64| -> f64 {
        if n == 1 {
            return v[0];
        }
        // Exclusive method: position p·(n+1), clamped into the sample.
        let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    Quartiles {
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
        n,
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// One recorded span. `parent` indexes into the recorder's span list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Keeps spans in memory; they are written out once, when the run
/// ends. Spans nest by call order: a span begun while another is open
/// is its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name` and returns its result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn spans_nest_by_call_order() {
        let mut tr = Tracer::new();
        tr.span("outer", |tr| tr.span("inner", |_| ()));
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(tr.total_s("outer") >= tr.total_s("inner"));
    }
}
