//! Scan-based sorting: the `split` primitive and radix sort.
//!
//! Radix sort is the first application on Blelloch's list (Section 3) and
//! the reason exclusive prefix sums appear in virtually every GPU sorting
//! library. Two variants are provided:
//!
//! * [`split_sort`] — the textbook formulation: one *split* per key bit,
//!   where a split partitions by a flag vector using two exclusive prefix
//!   sums over all `n` elements. Maximal scan content, `w` passes of
//!   `O(n)` scans for `w`-bit keys.
//! * [`radix_sort`] — the practical byte-wise LSD counting sort whose
//!   per-pass digit offsets are an exclusive prefix sum of the histogram.
//!
//! Both are stable and both accept any key type implementing [`RadixKey`]
//! (unsigned/signed integers and floats via the usual order-preserving bit
//! transforms).

use sam_core::cpu::CpuScanner;
use sam_core::op::Sum;
use sam_core::plan::{PlanHint, ScanPlan, ScanSession};
use sam_core::Engine;
use sam_core::ScanElement;
use sam_core::ScanSpec;

/// Keys sortable by their bits: the transform must be monotone — comparing
/// transformed bits as unsigned integers must order keys correctly.
pub trait RadixKey: Copy {
    /// Number of significant bits in the transformed key.
    const BITS: u32;
    /// Order-preserving mapping into unsigned bits.
    fn to_radix_bits(self) -> u64;
}

impl RadixKey for u32 {
    const BITS: u32 = 32;
    fn to_radix_bits(self) -> u64 {
        u64::from(self)
    }
}

impl RadixKey for u64 {
    const BITS: u32 = 64;
    fn to_radix_bits(self) -> u64 {
        self
    }
}

impl RadixKey for i32 {
    const BITS: u32 = 32;
    fn to_radix_bits(self) -> u64 {
        // Flip the sign bit: negative values sort below positive ones.
        u64::from((self as u32) ^ 0x8000_0000)
    }
}

impl RadixKey for i64 {
    const BITS: u32 = 64;
    fn to_radix_bits(self) -> u64 {
        (self as u64) ^ (1 << 63)
    }
}

impl RadixKey for f32 {
    const BITS: u32 = 32;
    fn to_radix_bits(self) -> u64 {
        // IEEE trick: flip all bits of negatives, the sign bit of
        // non-negatives; total order matches numeric order (NaNs sort high).
        let b = self.to_bits();
        let mask = if b >> 31 == 1 {
            0xffff_ffff
        } else {
            0x8000_0000
        };
        u64::from(b ^ mask)
    }
}

impl RadixKey for f64 {
    const BITS: u32 = 64;
    fn to_radix_bits(self) -> u64 {
        let b = self.to_bits();
        let mask = if b >> 63 == 1 { u64::MAX } else { 1 << 63 };
        b ^ mask
    }
}

/// Stable partition by one bit using two exclusive prefix sums — the
/// `split` primitive. Elements whose `bit` is 0 keep their order at the
/// front; 1-bits follow, also in order. Returns the rearranged values.
///
/// This is the scan pattern verbatim: `zero_pos = exclusive_sum(!flags)`,
/// `one_pos = zeros_total + exclusive_sum(flags)`.
pub fn split<T: Copy>(values: &[T], flags: &[bool], scanner: &CpuScanner) -> Vec<T> {
    assert_eq!(values.len(), flags.len(), "one flag per value");
    let zeros: Vec<i64> = flags.iter().map(|&f| i64::from(!f)).collect();
    let zero_pos = scanner.scan(&zeros, &Sum, &ScanSpec::exclusive());
    let ones: Vec<i64> = flags.iter().map(|&f| i64::from(f)).collect();
    let one_pos = scanner.scan(&ones, &Sum, &ScanSpec::exclusive());
    scatter_split(values, flags, &zero_pos, &one_pos, &zeros)
}

/// [`split`] over a plan-once [`ScanSession`] (exclusive order-1 tuple-1
/// `i64` sums): callers running many splits — [`split_sort`] runs two per
/// key bit — plan the engine once and reuse its resources every pass.
pub fn split_with<T: Copy>(
    values: &[T],
    flags: &[bool],
    session: &ScanSession<i64, Sum>,
) -> Vec<T> {
    assert_eq!(values.len(), flags.len(), "one flag per value");
    let zeros: Vec<i64> = flags.iter().map(|&f| i64::from(!f)).collect();
    let zero_pos = session.scan(&zeros);
    let ones: Vec<i64> = flags.iter().map(|&f| i64::from(f)).collect();
    let one_pos = session.scan(&ones);
    scatter_split(values, flags, &zero_pos, &one_pos, &zeros)
}

/// The scatter half of the split primitive.
fn scatter_split<T: Copy>(
    values: &[T],
    flags: &[bool],
    zero_pos: &[i64],
    one_pos: &[i64],
    zeros: &[i64],
) -> Vec<T> {
    let total_zeros = match (zero_pos.last(), zeros.last()) {
        (Some(&p), Some(&z)) => p + z,
        _ => 0,
    };
    let mut out = values.to_vec();
    for (i, &v) in values.iter().enumerate() {
        let dst = if flags[i] {
            (total_zeros + one_pos[i]) as usize
        } else {
            zero_pos[i] as usize
        };
        out[dst] = v;
    }
    out
}

/// Sorts by repeatedly splitting on each key bit, least significant first.
/// `w` split passes (each two scans over `n` elements) for `w`-bit keys —
/// the classic scan-based radix sort. The scan engine is planned once and
/// its resources reused across all `2w` scans ([`split_with`]).
pub fn split_sort<T: RadixKey>(values: &mut Vec<T>) {
    let plan = ScanPlan::new(
        ScanSpec::exclusive(),
        Engine::auto(),
        PlanHint::expected_len(values.len()),
    );
    let session = plan.session::<i64, _>(Sum);
    let significant = values
        .iter()
        .map(|v| 64 - v.to_radix_bits().leading_zeros())
        .max()
        .unwrap_or(0);
    for bit in 0..significant.min(T::BITS) {
        let flags: Vec<bool> = values
            .iter()
            .map(|v| v.to_radix_bits() >> bit & 1 == 1)
            .collect();
        *values = split_with(values, &flags, &session);
    }
}

/// Byte-wise LSD radix sort; per pass, the destination offsets are the
/// exclusive prefix sum of the 256-bin digit histogram.
pub fn radix_sort<T: RadixKey>(values: &mut Vec<T>) {
    radix_sort_by_key(values, |v| *v);
}

/// Sorts `values` by a [`RadixKey`] extracted from each element. Stable.
///
/// The per-pass digit counts (and hence the offset scan) use the narrowest
/// integer width whose range covers `n` — `u16` up to 65 535 elements,
/// then `u32` — so the 256-bin exclusive sum runs on the packed SWAR /
/// SIMD kernels instead of always widening to 64 bits.
pub fn radix_sort_by_key<T: Copy, K: RadixKey>(values: &mut Vec<T>, key: impl Fn(&T) -> K) {
    let n = values.len();
    if n <= u16::MAX as usize {
        radix_passes::<T, K, u16>(values, &key);
    } else if n <= u32::MAX as usize {
        radix_passes::<T, K, u32>(values, &key);
    } else {
        radix_passes::<T, K, i64>(values, &key);
    }
}

/// A digit-count element: a [`ScanElement`] whose value is re-extractable
/// as a scatter index. Every count, offset and cursor in a pass is at most
/// `n`, so the caller guarantees the width fits.
trait CountElem: ScanElement {
    /// The count's value as a `usize` index.
    fn to_index(self) -> usize;
}

impl CountElem for u16 {
    fn to_index(self) -> usize {
        usize::from(self)
    }
}

impl CountElem for u32 {
    fn to_index(self) -> usize {
        self as usize
    }
}

impl CountElem for i64 {
    fn to_index(self) -> usize {
        self as usize
    }
}

/// The LSD counting-sort passes of [`radix_sort_by_key`], with digit
/// counts held in `C`.
fn radix_passes<T: Copy, K: RadixKey, C: CountElem>(values: &mut Vec<T>, key: &impl Fn(&T) -> K) {
    let n = values.len();
    if n <= 1 {
        return;
    }
    let passes = K::BITS.div_ceil(8);
    let mut src = std::mem::take(values);
    let mut dst = src.clone();
    for pass in 0..passes {
        let shift = pass * 8;
        // Histogram.
        let mut counts = [C::ZERO; 256];
        for v in &src {
            let d = (key(v).to_radix_bits() >> shift & 0xff) as usize;
            counts[d] = counts[d].add(C::ONE);
        }
        // Offsets: exclusive prefix sum of the histogram.
        let offsets = sam_core::serial::scan(&counts, &Sum, &ScanSpec::exclusive());
        let mut cursors = offsets;
        // Stable scatter.
        for v in &src {
            let d = (key(v).to_radix_bits() >> shift & 0xff) as usize;
            dst[cursors[d].to_index()] = *v;
            cursors[d] = cursors[d].add(C::ONE);
        }
        std::mem::swap(&mut src, &mut dst);
    }
    *values = src;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: u64) -> Vec<u32> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 32) as u32
            })
            .collect()
    }

    #[test]
    fn split_is_a_stable_partition() {
        let values = [10, 21, 32, 43, 54, 65];
        let flags = [false, true, false, true, false, true];
        let scanner = CpuScanner::new(2).with_chunk_elems(2);
        let out = split(&values, &flags, &scanner);
        assert_eq!(out, vec![10, 32, 54, 21, 43, 65]);
    }

    #[test]
    fn split_with_session_matches_split() {
        let values = [10, 21, 32, 43, 54, 65];
        let flags = [false, true, false, true, false, true];
        let plan = ScanPlan::new(
            ScanSpec::exclusive(),
            Engine::Cpu(CpuScanner::new(2).with_chunk_elems(2)),
            PlanHint::default(),
        );
        let session = plan.session::<i64, _>(Sum);
        assert_eq!(
            split_with(&values, &flags, &session),
            vec![10, 32, 54, 21, 43, 65]
        );
    }

    #[test]
    fn split_sort_sorts_u32() {
        let mut v = pseudo(5000, 3);
        let mut expect = v.clone();
        expect.sort_unstable();
        split_sort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn radix_sort_sorts_u32_and_u64() {
        let mut v = pseudo(50_000, 7);
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v);
        assert_eq!(v, expect);

        let mut v64: Vec<u64> = pseudo(20_000, 9)
            .iter()
            .map(|&a| u64::from(a) << 32 | 0xdead)
            .collect();
        let mut expect64 = v64.clone();
        expect64.sort_unstable();
        radix_sort(&mut v64);
        assert_eq!(v64, expect64);
    }

    #[test]
    fn radix_sort_signed_and_float() {
        let mut vi: Vec<i32> = pseudo(10_000, 11).iter().map(|&a| a as i32).collect();
        let mut expect = vi.clone();
        expect.sort_unstable();
        radix_sort(&mut vi);
        assert_eq!(vi, expect);

        let mut vf: Vec<f64> = pseudo(10_000, 13)
            .iter()
            .map(|&a| (a as f64 - 2e9) / 1e3)
            .collect();
        let mut expectf = vf.clone();
        expectf.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        radix_sort(&mut vf);
        assert_eq!(vf, expectf);
    }

    #[test]
    fn radix_sort_by_key_is_stable() {
        // Sort pairs by the small key; equal keys must keep insertion order.
        let pairs: Vec<(u32, usize)> = pseudo(2000, 17)
            .iter()
            .enumerate()
            .map(|(i, &v)| (v % 8, i))
            .collect();
        let mut sorted = pairs.clone();
        radix_sort_by_key(&mut sorted, |&(k, _)| k);
        let mut expect = pairs;
        expect.sort_by_key(|&(k, _)| k); // std stable sort
        assert_eq!(sorted, expect);
    }

    #[test]
    fn empty_and_singleton() {
        let mut v: Vec<u32> = vec![];
        radix_sort(&mut v);
        split_sort(&mut v);
        assert!(v.is_empty());
        let mut v = vec![42u32];
        radix_sort(&mut v);
        assert_eq!(v, vec![42]);
    }
}
