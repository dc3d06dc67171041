//! Seeded input generation. Every input and request stream the benchmark
//! builds comes from [`Rng`], so `--seed` alone fixes them.

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent `stream` of the run's `seed` (one
    /// stream per buffer, connection or call sequence, so changing how one
    /// of them is consumed never shifts another).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut mix = Rng(seed ^ 0x5851_F42D_4C95_7F2D);
        let base = mix.next_u64();
        Rng(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
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

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Log-uniform in `[lo, hi]`: every power of two in the range is
    /// equally likely, so small and large calls both appear.
    pub fn log_uniform(&mut self, lo: usize, hi: usize) -> usize {
        let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
        ((a + (b - a) * self.unit()).exp() as usize).clamp(lo, hi)
    }

    /// Uniform `i32` in `[-limit, limit]`.
    pub fn small_i32(&mut self, limit: i32) -> i32 {
        self.below(2 * limit as usize + 1) as i32 - limit
    }

    pub fn fill_i64(&mut self, buf: &mut [i64]) {
        for x in buf {
            *x = self.next_u64() as i64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_differs() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..64).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
    }

    #[test]
    fn log_uniform_stays_in_range_and_spans_it() {
        let mut rng = Rng::new(1, 0);
        let draws: Vec<usize> = (0..10_000).map(|_| rng.log_uniform(16, 4096)).collect();
        assert!(draws.iter().all(|&n| (16..=4096).contains(&n)));
        assert!(draws.iter().any(|&n| n < 32));
        assert!(draws.iter().any(|&n| n > 2048));
    }
}
