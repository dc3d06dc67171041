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
//!
//! These are the chunk-level loops of the iterated protocol, the one every
//! operator without the cascade runs (see [`crate::chunk_kernel`]): a local
//! scan with per-lane totals, a carry apply, and an exclusive rewrite. They
//! are plain functions over [`ScanOp`], each writing into caller-owned
//! buffers. The SAM engines' cascade path never calls them; the simulated
//! baselines of `sam-baselines` call them for every operator.

use crate::op::ScanOp;
use crate::serial;

/// Local strided inclusive scan of one chunk, in place, publishing the
/// per-lane totals into `totals`: `totals[l]` is the combination, in
/// order, of every chunk element whose global index is congruent to `l`
/// (mod `s`). Lanes with no element in the chunk receive the identity.
///
/// Within a chunk, elements of the same lane are exactly `s` apart, so the
/// local scan is `chunk[j] = op(chunk[j - s], chunk[j])` regardless of the
/// base offset; only the *labeling* of the totals depends on `base`, the
/// chunk's global start offset.
///
/// # Panics
///
/// Panics if `s` is zero or `totals.len() != s`.
pub fn scan_chunk<T: Copy>(
    chunk: &mut [T],
    base: usize,
    s: usize,
    totals: &mut [T],
    op: &impl ScanOp<T>,
) {
    assert!(s > 0, "stride must be positive");
    assert_eq!(totals.len(), s, "one total per lane");
    serial::inclusive_strided_in_place(chunk, op, s);
    collect_totals(op, chunk, base, s, totals);
}

/// [`scan_chunk`] reading the raw chunk from `src` and writing the scanned
/// chunk to `chunk` — the multi-threaded engine's first round (no staging
/// copy).
///
/// # Panics
///
/// Panics if `s` is zero, the slices differ in length, or
/// `totals.len() != s`.
pub fn scan_chunk_from<T: Copy>(
    src: &[T],
    chunk: &mut [T],
    base: usize,
    s: usize,
    totals: &mut [T],
    op: &impl ScanOp<T>,
) {
    assert_eq!(totals.len(), s, "one total per lane");
    serial::inclusive_strided_from(src, chunk, op, s);
    collect_totals(op, chunk, base, s, totals);
}

/// Publishes per-lane totals from a scanned chunk: the last element of each
/// lane within the chunk, identity for absent lanes.
fn collect_totals<T: Copy>(
    op: &impl ScanOp<T>,
    chunk: &[T],
    base: usize,
    s: usize,
    totals: &mut [T],
) {
    for t in totals.iter_mut() {
        *t = op.identity();
    }
    let n = chunk.len();
    for j in n.saturating_sub(s)..n {
        totals[(base + j) % s] = chunk[j];
    }
}

/// Combines the accumulated per-lane carries into a scanned chunk:
/// `chunk[j] = op(carry[(base + j) % s], chunk[j])`, with `s` the length
/// of `carry` and a rotating lane index instead of a per-element division.
///
/// # Panics
///
/// Panics if `carry` is empty.
pub fn apply_carry<T: Copy>(chunk: &mut [T], base: usize, carry: &[T], op: &impl ScanOp<T>) {
    let s = carry.len();
    assert!(s > 0, "carry must have one entry per lane");
    if s == 1 {
        let c = carry[0];
        for v in chunk.iter_mut() {
            *v = op.combine(c, *v);
        }
        return;
    }
    let mut lane = base % s;
    for v in chunk.iter_mut() {
        *v = op.combine(carry[lane], *v);
        lane += 1;
        if lane == s {
            lane = 0;
        }
    }
}

/// Rewrites a *pre-carry* inclusively-scanned chunk (after [`scan_chunk`]
/// or [`scan_chunk_from`], before [`apply_carry`]) into its exclusive
/// outputs, in place: position `j` receives `op(carry[lane(j)],
/// scanned[j - s])`, or the lane's carry alone for the chunk's first `s`
/// positions. `carry[l]` is the combination of every lane-`l` element
/// before this chunk (the identity for the first chunk).
///
/// Walks backwards so no staging buffer is needed.
///
/// # Panics
///
/// Panics if `carry` is empty.
pub fn exclusive_rewrite<T: Copy>(chunk: &mut [T], base: usize, carry: &[T], op: &impl ScanOp<T>) {
    let s = carry.len();
    assert!(s > 0, "carry must have one entry per lane");
    let n = chunk.len();
    if n == 0 {
        return;
    }
    // Rotating lane index, walking down from position n - 1.
    let mut lane = (base + n - 1) % s;
    for j in (s..n).rev() {
        chunk[j] = op.combine(carry[lane], chunk[j - s]);
        lane = if lane == 0 { s - 1 } else { lane - 1 };
    }
    for j in (0..s.min(n)).rev() {
        chunk[j] = carry[lane];
        lane = if lane == 0 { s - 1 } else { lane - 1 };
    }
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
    use crate::op::Sum;

    #[test]
    fn local_scan_stride1_totals() {
        let mut chunk = [1i32, 2, 3, 4];
        let mut totals = [0i32];
        scan_chunk(&mut chunk, 0, 1, &mut totals, &Sum);
        assert_eq!(chunk, [1, 3, 6, 10]);
        assert_eq!(totals, [10]);
    }

    #[test]
    fn local_scan_stride2_with_offset_base() {
        // Chunk starting at global index 3 with stride 2: local j=0 is lane 1.
        let mut chunk = [10i32, 20, 30, 40, 50];
        let mut totals = [0i32; 2];
        scan_chunk(&mut chunk, 3, 2, &mut totals, &Sum);
        assert_eq!(chunk, [10, 20, 40, 60, 90]);
        // lane (3+3)%2=0 total = chunk[3]=60; lane (3+4)%2=1 total = 90.
        assert_eq!(totals, [60, 90]);
    }

    #[test]
    fn short_chunk_missing_lanes_get_identity() {
        let mut chunk = [5i32, 6];
        let mut totals = [-1i32; 4];
        scan_chunk(&mut chunk, 0, 4, &mut totals, &Sum);
        assert_eq!(chunk, [5, 6]);
        assert_eq!(totals, [5, 6, 0, 0]);
    }

    #[test]
    fn apply_carry_respects_lanes() {
        let mut chunk = [1i32, 2, 3, 4];
        apply_carry(&mut chunk, 1, &[100, 200], &Sum);
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
        let mut totals = vec![0i64; s];
        for c in 0..num_chunks(input.len(), chunk_elems) {
            let range = chunk_range(c, chunk_elems, input.len());
            let base = range.start;
            let chunk = &mut out[range.clone()];
            scan_chunk_from(&input[range], chunk, base, s, &mut totals, &op);
            exclusive_rewrite(chunk, base, &carry, &op);
            for l in 0..s {
                carry[l] = op.combine(carry[l], totals[l]);
            }
        }
        assert_eq!(out, expect);
    }

    #[test]
    fn chunked_inclusive_matches_oracle_for_awkward_sizes() {
        for (n, s, chunk_elems) in [
            (17usize, 3usize, 5usize),
            (64, 4, 16),
            (10, 7, 3),
            (1, 2, 4),
        ] {
            let input: Vec<i32> = (0..n as i32).map(|i| i * i - 3 * i).collect();
            let op = Sum;
            let spec = ScanSpec::inclusive().with_tuple(s).unwrap();
            let expect = serial::scan(&input, &op, &spec);

            let mut out = input.clone();
            let mut carry = vec![0i32; s];
            let mut totals = vec![0i32; s];
            for c in 0..num_chunks(n, chunk_elems) {
                let range = chunk_range(c, chunk_elems, n);
                let base = range.start;
                let chunk = &mut out[range];
                scan_chunk(chunk, base, s, &mut totals, &op);
                apply_carry(chunk, base, &carry, &op);
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
