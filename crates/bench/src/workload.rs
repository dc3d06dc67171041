//! Deterministic workload generators for the benchmark harness.
//!
//! Prefix-sum performance is data independent ("the control flow and
//! memory-access patterns of prefix-sum computations are not data
//! dependent", Section 2.2), so the generators only need to be cheap,
//! deterministic, and representative. A splitmix-style generator provides
//! uniform words.

/// A tiny, fast, deterministic splitmix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// `n` uniform 32-bit integers (small magnitudes, so iterated sums stay
/// readable in failure output).
pub fn uniform_i32(n: usize, seed: u64) -> Vec<i32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (rng.next_u64() % 2001) as i32 - 1000)
        .collect()
}

/// `n` uniform 64-bit integers.
pub fn uniform_i64(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (rng.next_u64() % 2_000_001) as i64 - 1_000_000)
        .collect()
}

/// The problem sizes of Figures 3–16: powers of two from 2^10 to
/// 2^`max_pow2`, merged (sorted, deduplicated) with powers of ten from 10^3
/// up to the same bound.
pub fn paper_sizes(max_pow2: u32) -> Vec<u64> {
    let cap = 1u64 << max_pow2;
    let mut sizes: Vec<u64> = (10..=max_pow2).map(|p| 1u64 << p).collect();
    let mut ten = 1_000u64;
    while ten <= cap {
        sizes.push(ten);
        ten = ten.saturating_mul(10);
    }
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(uniform_i32(100, 42), uniform_i32(100, 42));
        assert_ne!(uniform_i32(100, 42), uniform_i32(100, 43));
        assert_eq!(uniform_i64(50, 7), uniform_i64(50, 7));
    }

    #[test]
    fn uniform_values_bounded() {
        assert!(uniform_i32(10_000, 1)
            .iter()
            .all(|v| (-1000..=1000).contains(v)));
    }

    #[test]
    fn paper_sizes_cover_both_grids() {
        let sizes = paper_sizes(30);
        assert!(sizes.contains(&1024));
        assert!(sizes.contains(&(1 << 30)));
        assert!(sizes.contains(&1_000));
        assert!(sizes.contains(&1_000_000_000));
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn paper_sizes_respect_cap() {
        let sizes = paper_sizes(20);
        assert_eq!(*sizes.last().unwrap(), 1 << 20);
        assert!(!sizes.contains(&10_000_000));
    }
}
