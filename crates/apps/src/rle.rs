//! Run-length encoding and decoding with scans.
//!
//! Encoding: run heads are positions whose value differs from the previous
//! one; an exclusive prefix sum of the head flags yields every run's output
//! slot (stream compaction, Section 3's list). Decoding: an exclusive
//! prefix sum of the run lengths yields every run's start offset, and an
//! inclusive *max* scan propagates run indices across the gaps — so both
//! directions are scan-shaped and parallelizable.

use sam_core::cpu::CpuScanner;
use sam_core::op::{Max, Sum};
use sam_core::ScanSpec;

/// One run: `len` repetitions of `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run<T> {
    /// The repeated value.
    pub value: T,
    /// Repetition count (at least 1).
    pub len: u64,
}

/// Run-length encodes `input` using scan-computed output slots.
pub fn encode<T: Copy + PartialEq>(input: &[T], scanner: &CpuScanner) -> Vec<Run<T>> {
    if input.is_empty() {
        return Vec::new();
    }
    // Head flags: first element, or different from the predecessor.
    let heads: Vec<i64> = input
        .iter()
        .enumerate()
        .map(|(i, v)| i64::from(i == 0 || input[i - 1] != *v))
        .collect();
    // Output slot per head = exclusive prefix sum of the flags.
    let slots = scanner.scan(&heads, &Sum, &ScanSpec::exclusive());
    let num_runs = (slots[input.len() - 1] + heads[input.len() - 1]) as usize;

    let mut runs: Vec<Run<T>> = vec![
        Run {
            value: input[0],
            len: 0,
        };
        num_runs
    ];
    // Scatter heads; run length = next head position - this one.
    for i in 0..input.len() {
        if heads[i] == 1 {
            runs[slots[i] as usize] = Run {
                value: input[i],
                len: 0, // filled below
            };
        }
    }
    // Head positions let lengths be computed without a serial walk.
    let mut head_pos = vec![0usize; num_runs];
    for i in 0..input.len() {
        if heads[i] == 1 {
            head_pos[slots[i] as usize] = i;
        }
    }
    for r in 0..num_runs {
        let end = if r + 1 < num_runs {
            head_pos[r + 1]
        } else {
            input.len()
        };
        runs[r].len = (end - head_pos[r]) as u64;
    }
    runs
}

/// Decodes runs back into the flat sequence using two scans: exclusive sum
/// of lengths (offsets) and an inclusive max scan to spread run indices.
///
/// # Panics
///
/// Panics if any run has length zero.
pub fn decode<T: Copy>(runs: &[Run<T>], scanner: &CpuScanner) -> Vec<T> {
    if runs.is_empty() {
        return Vec::new();
    }
    let lens: Vec<i64> = runs
        .iter()
        .map(|r| {
            assert!(r.len > 0, "runs must have positive length");
            r.len as i64
        })
        .collect();
    let offsets = scanner.scan(&lens, &Sum, &ScanSpec::exclusive());
    let total = (offsets[runs.len() - 1] + lens[runs.len() - 1]) as usize;

    // Scatter run index i to its start offset (elsewhere -1), then an
    // inclusive max scan fills every position with its run index.
    let mut markers = vec![-1i64; total];
    for (i, &off) in offsets.iter().enumerate() {
        markers[off as usize] = i as i64;
    }
    let run_ids = scanner.scan(&markers, &Max, &ScanSpec::inclusive());
    run_ids
        .into_iter()
        .map(|id| runs[id as usize].value)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scanner() -> CpuScanner {
        CpuScanner::new(4).with_chunk_elems(50)
    }

    #[test]
    fn encode_basic() {
        let runs = encode(b"aaabccddd", &scanner());
        assert_eq!(
            runs,
            vec![
                Run {
                    value: b'a',
                    len: 3
                },
                Run {
                    value: b'b',
                    len: 1
                },
                Run {
                    value: b'c',
                    len: 2
                },
                Run {
                    value: b'd',
                    len: 3
                },
            ]
        );
    }

    #[test]
    fn decode_basic() {
        let runs = [
            Run {
                value: 7i32,
                len: 2,
            },
            Run { value: -1, len: 3 },
            Run { value: 0, len: 1 },
        ];
        assert_eq!(decode(&runs, &scanner()), vec![7, 7, -1, -1, -1, 0]);
    }

    #[test]
    fn roundtrip_random_runs() {
        let mut state = 12345u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut input = Vec::new();
        for _ in 0..500 {
            let v = (rnd() % 5) as u8;
            let len = rnd() % 20 + 1;
            input.extend(std::iter::repeat_n(v, len as usize));
        }
        let runs = encode(&input, &scanner());
        assert_eq!(decode(&runs, &scanner()), input);
        // Runs are maximal: no two adjacent runs share a value.
        assert!(runs.windows(2).all(|w| w[0].value != w[1].value));
    }

    #[test]
    fn all_distinct_and_all_equal() {
        let distinct: Vec<u32> = (0..100).collect();
        let runs = encode(&distinct, &scanner());
        assert_eq!(runs.len(), 100);
        assert!(runs.iter().all(|r| r.len == 1));

        let equal = vec![9u8; 1000];
        let runs = encode(&equal, &scanner());
        assert_eq!(
            runs,
            vec![Run {
                value: 9,
                len: 1000
            }]
        );
        assert_eq!(decode(&runs, &scanner()), equal);
    }

    #[test]
    fn empty() {
        let runs = encode::<u8>(&[], &scanner());
        assert!(runs.is_empty());
        assert!(decode::<u8>(&[], &scanner()).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn zero_length_run_rejected() {
        decode(&[Run { value: 1u8, len: 0 }], &scanner());
    }
}
