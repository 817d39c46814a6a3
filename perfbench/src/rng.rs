//! A small seeded generator, so every workload's inputs and arrival
//! schedule follow from `--seed` alone.

/// SplitMix64: tiny, fast, and good enough for traffic shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5a21_5eed_0bad_cafe)
    }

    /// An independent stream derived from this seed and a label.
    pub fn fork(seed: u64, label: u64) -> Rng {
        Rng::new(Rng::new(seed ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An exponential inter-arrival gap for a Poisson process of `rate`
    /// events per second, in seconds.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(9).next_u64()).collect();
        let mut r = Rng::new(9);
        assert_eq!(a[0], r.next_u64());
        assert_ne!(Rng::fork(9, 1).next_u64(), Rng::fork(9, 2).next_u64());
    }

    #[test]
    fn exponential_gaps_have_the_requested_mean() {
        let mut r = Rng::new(3);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exp_gap(100.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.01).abs() < 0.0005, "{mean}");
    }
}
