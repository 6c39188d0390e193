//! Measurement helpers: wall-clock spans taken from outside the
//! program's public calls, their summary statistics, and the process
//! memory figures the kernel reports in `/proc/self/status`.

use std::time::Instant;

/// Nanoseconds elapsed since `t`, saturated into a `u64`.
#[inline(always)]
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The median duration an empty span measures: the cost of the clock
/// reads themselves, subtracted from every span a layer reports.
pub fn span_overhead_ns() -> u64 {
    let mut samples: Vec<u64> = (0..20_001)
        .map(|_| {
            let t = Instant::now();
            ns_since(std::hint::black_box(t))
        })
        .collect();
    let mid = samples.len() / 2;
    *samples.select_nth_unstable(mid).1
}

/// Accumulated time and call count of one kind of span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Raw summed span durations, clock overhead included.
    pub ns: u64,
    /// Spans recorded.
    pub calls: u64,
}

impl Acc {
    /// Adds one span that started at `t`.
    #[inline(always)]
    pub fn add(&mut self, t: Instant) {
        self.ns += ns_since(t);
        self.calls += 1;
    }

    /// Summed durations with `overhead` taken off every span, floored
    /// at zero.
    pub fn net_ns(&self, overhead: u64) -> f64 {
        self.ns.saturating_sub(self.calls * overhead) as f64
    }

    /// Mean net duration per span; zero when no span was recorded.
    pub fn mean_ns(&self, overhead: u64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.net_ns(overhead) / self.calls as f64
        }
    }
}

/// The `q`-quantile (nearest rank) of per-call durations, each net of
/// `overhead`; zero for an empty set.
pub fn quantile_ns(samples: &mut [u32], q: f64, overhead: u64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    let raw = *samples.select_nth_unstable(idx).1;
    u64::from(raw).saturating_sub(overhead) as f64
}

/// Median of a non-empty slice of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`, ...) in MiB,
/// or `None` where the kernel does not report it.
pub fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.split(':').next() == Some(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs `build` and returns its value with the growth of the resident
/// set it caused, in MiB.
pub fn rss_delta_mb<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let before = status_mb("VmRSS").unwrap_or(0.0);
    let value = build();
    let after = status_mb("VmRSS").unwrap_or(0.0);
    (value, (after - before).max(0.0))
}
