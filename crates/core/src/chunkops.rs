//! Chunk-level building blocks shared by the simulated GPU kernel
//! ([`crate::kernel`]) and the real-thread CPU engine ([`crate::cpu`]).
//!
//! A *chunk* is the contiguous span of elements one persistent block
//! processes per round. Tuple-based scans partition elements into `s`
//! residue classes ("lanes") by **global** index modulo `s`; because chunk
//! boundaries are generally not multiples of `s`, every operation here takes
//! the chunk's global base offset and derives lane membership from it
//! (Section 2.3: "the i-th thread in a block does not necessarily process a
//! value that belongs to the same location within a tuple ...").

use crate::chunk_kernel::ChunkKernel;

/// Computes the in-place strided inclusive scan of `chunk` (stride `s`) and
/// returns the per-lane totals: `totals[l]` is the combination, in order, of
/// every chunk element whose global index is congruent to `l` (mod `s`).
/// Lanes with no element in the chunk receive the identity.
///
/// Within a chunk, elements of the same lane are exactly `s` apart, so the
/// local scan is `chunk[j] = op(chunk[j - s], chunk[j])` regardless of the
/// base offset; only the *labeling* of the totals depends on `base`.
///
/// Dispatches through [`ChunkKernel`]; engines that need the
/// allocation-free or fused forms call the trait methods directly.
///
/// # Panics
///
/// Panics if `s` is zero.
pub fn local_scan_with_totals<T: Copy>(
    chunk: &mut [T],
    base: usize,
    s: usize,
    op: &impl ChunkKernel<T>,
) -> Vec<T> {
    assert!(s > 0, "stride must be positive");
    let mut totals = vec![op.identity(); s];
    op.scan_chunk_in_place(chunk, base, s, &mut totals);
    totals
}

/// Derives the exclusive outputs of a chunk from its *pre-carry* inclusive
/// scan and the carries: position `j` receives the combination of all
/// earlier same-lane elements, globally.
///
/// `scanned` is the chunk after [`local_scan_with_totals`] but *before*
/// [`ChunkKernel::apply_carry`]; `carry[l]` is the combination of all
/// elements of lane `l` that precede this chunk (the identity for the
/// first chunk). Allocates the output;
/// [`ChunkKernel::exclusive_rewrite`] is the in-place form.
pub fn exclusive_outputs<T: Copy>(
    scanned: &[T],
    base: usize,
    carry: &[T],
    op: &impl ChunkKernel<T>,
) -> Vec<T> {
    let mut out = scanned.to_vec();
    op.exclusive_rewrite(&mut out, base, carry);
    out
}

/// Splits `n` elements into chunks of `chunk_elems`, returning the number of
/// chunks (the last one may be short).
pub fn num_chunks(n: usize, chunk_elems: usize) -> usize {
    assert!(chunk_elems > 0, "chunk size must be positive");
    n.div_ceil(chunk_elems)
}

/// The elements `[start, end)` of chunk `c`.
pub fn chunk_range(c: usize, chunk_elems: usize, n: usize) -> std::ops::Range<usize> {
    let start = c * chunk_elems;
    start..((c + 1) * chunk_elems).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScanSpec;
    use crate::op::{ScanOp, Sum};
    use crate::serial;

    #[test]
    fn local_scan_stride1_totals() {
        let mut chunk = [1i32, 2, 3, 4];
        let totals = local_scan_with_totals(&mut chunk, 0, 1, &Sum);
        assert_eq!(chunk, [1, 3, 6, 10]);
        assert_eq!(totals, vec![10]);
    }

    #[test]
    fn local_scan_stride2_with_offset_base() {
        // Chunk starting at global index 3 with stride 2: local j=0 is lane 1.
        let mut chunk = [10i32, 20, 30, 40, 50];
        let totals = local_scan_with_totals(&mut chunk, 3, 2, &Sum);
        assert_eq!(chunk, [10, 20, 40, 60, 90]);
        // lane (3+3)%2=0 total = chunk[3]=60; lane (3+4)%2=1 total = 90.
        assert_eq!(totals, vec![60, 90]);
    }

    #[test]
    fn short_chunk_missing_lanes_get_identity() {
        let mut chunk = [5i32, 6];
        let totals = local_scan_with_totals(&mut chunk, 0, 4, &Sum);
        assert_eq!(chunk, [5, 6]);
        assert_eq!(totals, vec![5, 6, 0, 0]);
    }

    #[test]
    fn apply_carry_respects_lanes() {
        let mut chunk = [1i32, 2, 3, 4];
        Sum.apply_carry(&mut chunk, 1, &[100, 200]);
        // base 1: lanes are 1,0,1,0.
        assert_eq!(chunk, [201, 102, 203, 104]);
    }

    #[test]
    fn exclusive_outputs_match_serial_oracle() {
        let input: Vec<i64> = (0..23).map(|i| (i * 7 % 11) - 5).collect();
        let s = 3;
        let chunk_elems = 8;
        let op = Sum;
        let spec = ScanSpec::exclusive().with_tuple(s).unwrap();
        let expect = serial::scan(&input, &op, &spec);

        let mut out = vec![0i64; input.len()];
        let mut carry = vec![0i64; s];
        for c in 0..num_chunks(input.len(), chunk_elems) {
            let range = chunk_range(c, chunk_elems, input.len());
            let base = range.start;
            let mut chunk = input[range.clone()].to_vec();
            let totals = local_scan_with_totals(&mut chunk, base, s, &op);
            let exc = exclusive_outputs(&chunk, base, &carry, &op);
            out[range].copy_from_slice(&exc);
            for l in 0..s {
                carry[l] = op.combine(carry[l], totals[l]);
            }
        }
        assert_eq!(out, expect);
    }

    #[test]
    fn chunked_inclusive_matches_oracle_for_awkward_sizes() {
        for (n, s, chunk_elems) in [(17usize, 3usize, 5usize), (64, 4, 16), (10, 7, 3), (1, 2, 4)] {
            let input: Vec<i32> = (0..n as i32).map(|i| i * i - 3 * i).collect();
            let op = Sum;
            let spec = ScanSpec::inclusive().with_tuple(s).unwrap();
            let expect = serial::scan(&input, &op, &spec);

            let mut out = vec![0i32; n];
            let mut carry = vec![0i32; s];
            for c in 0..num_chunks(n, chunk_elems) {
                let range = chunk_range(c, chunk_elems, n);
                let base = range.start;
                let mut chunk = input[range.clone()].to_vec();
                let totals = local_scan_with_totals(&mut chunk, base, s, &op);
                op.apply_carry(&mut chunk, base, &carry);
                out[range].copy_from_slice(&chunk);
                for l in 0..s {
                    carry[l] = op.combine(carry[l], totals[l]);
                }
            }
            assert_eq!(out, expect, "n={n} s={s} chunk={chunk_elems}");
        }
    }

    #[test]
    fn chunk_geometry() {
        assert_eq!(num_chunks(10, 4), 3);
        assert_eq!(num_chunks(8, 4), 2);
        assert_eq!(chunk_range(2, 4, 10), 8..10);
        assert_eq!(chunk_range(0, 4, 10), 0..4);
    }
}
