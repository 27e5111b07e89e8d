//! Latency histograms, the result line and process measurements.

/// Nanosecond values: kept exactly up to `RAW_MAX` samples, beyond that
/// in a log-linear histogram, exact below 128 ns, then 128 sub-buckets
/// per power of two (under 0.8% bucket width), whose quantiles
/// interpolate by rank inside a bucket so they are not snapped to bucket
/// edges.
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    raw: Vec<u64>,
}

const RAW_MAX: usize = 1 << 16;

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            n: 0,
            raw: Vec::new(),
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        let mant = (v >> shift) - SUB;
        ((shift as u64 + 1) * SUB + mant) as usize
    }

    fn bounds(idx: usize) -> (f64, f64) {
        let idx = idx as u64;
        if idx < SUB {
            return (idx as f64, (idx + 1) as f64);
        }
        let shift = idx / SUB - 1;
        let lo = (SUB + idx % SUB) << shift;
        (lo as f64, (lo + (1u64 << shift)) as f64)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
        if self.n as usize <= RAW_MAX {
            self.raw.push(v);
        } else if !self.raw.is_empty() {
            self.raw = Vec::new();
        }
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile (0..=1) in ns; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        if self.raw.len() as u64 == self.n {
            return quantile(&mut self.raw.clone(), q);
        }
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (before + c) as f64 > rank {
                let (lo, hi) = Self::bounds(i);
                return lo + (hi - lo) * ((rank - before as f64 + 0.5) / c as f64).min(1.0);
            }
            before += c;
        }
        Self::bounds(self.counts.len() - 1).1
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.is_empty() {
        0.0
    } else if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// The `q`-quantile of a sample, interpolating between neighbouring
/// order statistics; 0 when empty. Sorts `v`.
pub fn quantile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, frac) = (rank.floor() as usize, rank.fract());
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] as f64 + frac * (v[hi] as f64 - v[lo] as f64)
}

/// The `q`-quantile of `v`, interpolated; 0 when empty.
pub fn quantile_f64(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let Some(&last) = s.last() else {
        return 0.0;
    };
    let rank = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, frac) = (rank.floor() as usize, rank.fract());
    s[lo] + frac * (s.get(lo + 1).copied().unwrap_or(last) - s[lo])
}

/// Peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run reports: operation counts and named metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds the operation counts of one checked phase.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The result line: one JSON object. A non-finite value cannot be
    /// written as JSON, so it is written as -1 and marks the run
    /// incorrect.
    pub fn to_json(&self) -> String {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut body = Vec::new();
        for (name, v, unit) in &self.metrics {
            let v = if v.is_finite() {
                *v
            } else {
                eprintln!("perfbench: metric {name} is not finite");
                correct = false;
                -1.0
            };
            body.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_quantiles_track_exact_ones() {
        let mut h = Hist::new();
        let vals: Vec<u64> = (0..RAW_MAX as u64 + 10_000)
            .map(|i| 100 + i * 37 % 100_000)
            .collect();
        for &v in &vals {
            h.record(v);
        }
        for q in [0.5, 0.99] {
            let want = quantile(&mut vals.clone(), q);
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
        let mut small = Hist::new();
        [10u64, 20, 30, 40].iter().for_each(|&v| small.record(v));
        assert_eq!(small.quantile(0.5), 25.0);
        assert_eq!(Hist::index(127), 127);
        for v in [128u64, 129, 1000, 123_456_789] {
            let (lo, hi) = Hist::bounds(Hist::index(v));
            assert!(lo <= v as f64 && (v as f64) < hi, "{v} in [{lo}, {hi})");
        }
    }
}
