//! Seeded input generation. Everything a workload feeds the library —
//! operand values, problem order, arrival times — comes from here and
//! depends only on the `--seed` argument.

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`tag`) under one run seed, so the
    /// streams for operands, order and arrivals stay independent.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// Fresh seed for a `Matrix::random` call.
    pub fn seed(&mut self) -> u64 {
        self.next_u64()
    }
}

/// Tags separating the generators of one run.
pub mod tag {
    pub const OPERANDS: u64 = 1;
    pub const ORDER: u64 = 2;
    pub const ARRIVALS: u64 = 3;
    pub const SAMPLES: u64 = 4;
}

/// An open-loop arrival schedule: Poisson arrivals at `rate` per second
/// for `dur_ns`, each picking one of `kinds` request kinds uniformly.
pub struct Schedule {
    /// Arrival offsets from the phase start, ns, non-decreasing.
    pub at_ns: Vec<u64>,
    /// Request kind of each arrival.
    pub kind: Vec<u8>,
}

impl Schedule {
    pub fn poisson(seed: u64, phase: u64, rate: f64, dur_ns: u64, kinds: usize) -> Self {
        let mut rng = Rng::new(seed, tag::ARRIVALS ^ (phase << 8));
        let gap = 1e9 / rate;
        let mut t = 0.0f64;
        let (mut at_ns, mut kind) = (Vec::new(), Vec::new());
        loop {
            // 1 - unit() lies in (0, 1], so the log is finite.
            t += -gap * (1.0 - rng.unit()).ln();
            if t >= dur_ns as f64 {
                break;
            }
            at_ns.push(t as u64);
            kind.push(rng.below(kinds) as u8);
        }
        Schedule { at_ns, kind }
    }

    /// The schedule as bytes (for the reproducibility test).
    #[cfg(test)]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (&t, &k) in self.at_ns.iter().zip(&self.kind) {
            out.extend_from_slice(&t.to_le_bytes());
            out.push(k);
        }
        out
    }
}

/// FNV-1a over bytes, for comparing generated inputs in tests.
#[cfg(test)]
pub struct Digest(u64);

#[cfg(test)]
impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x100_0000_01B3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{closed, serve};

    /// One seed yields byte-identical inputs and schedules; another seed
    /// yields different ones.
    #[test]
    fn same_seed_same_bytes() {
        let digests = |seed| {
            [
                closed::cp2k_input_digest(seed),
                closed::skinny_input_digest(seed),
                closed::vgg_input_digest(seed),
                serve::input_digest(seed),
            ]
        };
        let (a, b, c) = (digests(7), digests(7), digests(8));
        assert_eq!(a, b);
        for (x, y) in a.iter().zip(&c) {
            assert_ne!(x, y);
        }
        for seed in [0u64, 7] {
            let a = Schedule::poisson(seed, 1, 32_000.0, 50_000_000, 10);
            let b = Schedule::poisson(seed, 1, 32_000.0, 50_000_000, 10);
            assert_eq!(a.to_bytes(), b.to_bytes());
        }
        assert_ne!(
            Schedule::poisson(1, 1, 32_000.0, 50_000_000, 10).to_bytes(),
            Schedule::poisson(2, 1, 32_000.0, 50_000_000, 10).to_bytes()
        );
    }

    #[test]
    fn poisson_rate_is_close() {
        let s = Schedule::poisson(3, 0, 10_000.0, 1_000_000_000, 4);
        let n = s.at_ns.len() as f64;
        assert!((n - 10_000.0).abs() < 400.0, "{n} arrivals");
        assert!(s.at_ns.windows(2).all(|w| w[0] <= w[1]));
    }
}
