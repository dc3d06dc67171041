//! The benchmark's own references: plain element-at-a-time loops, written
//! from the definitions and sharing no code with `sam_core`, so a bug in
//! the program cannot also hide in its checker.

/// Wrapping two's-complement arithmetic of the element types in use.
pub trait Wrap: Copy + PartialEq + std::fmt::Debug {
    const ZERO: Self;
    fn wadd(self, other: Self) -> Self;
    fn wmul(self, other: Self) -> Self;
}

impl Wrap for i64 {
    const ZERO: i64 = 0;
    fn wadd(self, other: i64) -> i64 {
        self.wrapping_add(other)
    }
    fn wmul(self, other: i64) -> i64 {
        self.wrapping_mul(other)
    }
}

impl Wrap for i32 {
    const ZERO: i32 = 0;
    fn wadd(self, other: i32) -> i32 {
        self.wrapping_add(other)
    }
    fn wmul(self, other: i32) -> i32 {
        self.wrapping_mul(other)
    }
}

/// A streaming reference scan: outputs one element per input element and
/// keeps its state across calls, so a stream fed in frames is checked
/// against the same reference as a one-shot scan.
#[derive(Debug, Clone)]
pub enum Reference<T> {
    /// Sum of order `q` over tuples of `s`: lane `i % s` runs its own scan,
    /// iterated `q` times; the exclusive form makes only the last
    /// iteration exclusive.
    Sum {
        q: usize,
        s: usize,
        exclusive: bool,
        acc: Vec<T>,
        pos: usize,
    },
    /// `x_i = b_i + sum_j c_j * x_(i-1-j)`, tuple 1; the exclusive form
    /// emits the prediction `x_i - b_i`.
    LinRec {
        coeffs: Vec<T>,
        exclusive: bool,
        /// The last outputs, most recent first.
        hist: Vec<T>,
    },
}

impl<T: Wrap> Reference<T> {
    pub fn sum(q: usize, s: usize, exclusive: bool) -> Reference<T> {
        Reference::Sum {
            q,
            s,
            exclusive,
            acc: vec![T::ZERO; q * s],
            pos: 0,
        }
    }

    pub fn linrec(coeffs: &[T], exclusive: bool) -> Reference<T> {
        Reference::LinRec {
            coeffs: coeffs.to_vec(),
            exclusive,
            hist: vec![T::ZERO; coeffs.len()],
        }
    }

    pub fn next(&mut self, x: T) -> T {
        match self {
            Reference::Sum {
                q,
                s,
                exclusive,
                acc,
                pos,
            } => {
                let lane = *pos % *s;
                *pos += 1;
                let inclusive_orders = if *exclusive { *q - 1 } else { *q };
                let mut v = x;
                for order in 0..inclusive_orders {
                    let a = &mut acc[order * *s + lane];
                    *a = a.wadd(v);
                    v = *a;
                }
                if *exclusive {
                    let a = &mut acc[(*q - 1) * *s + lane];
                    let before = *a;
                    *a = a.wadd(v);
                    before
                } else {
                    v
                }
            }
            Reference::LinRec {
                coeffs,
                exclusive,
                hist,
            } => {
                let pred = coeffs
                    .iter()
                    .zip(hist.iter())
                    .fold(T::ZERO, |p, (&c, &h)| p.wadd(c.wmul(h)));
                let out = x.wadd(pred);
                hist.rotate_right(1);
                hist[0] = out;
                if *exclusive {
                    pred
                } else {
                    out
                }
            }
        }
    }

    /// Feeds `input` and counts the positions where `got` differs.
    pub fn mismatches(&mut self, input: &[T], got: &[T]) -> usize {
        if input.len() != got.len() {
            return input.len().max(got.len());
        }
        input
            .iter()
            .zip(got)
            .filter(|&(&x, &g)| self.next(x) != g)
            .count()
    }
}

/// Segmented sum: the running sum restarts at every head and at index 0;
/// the exclusive form emits 0 at a head and the previous inclusive value
/// elsewhere.
pub fn segmented_sum(values: &[i32], heads: &[bool], exclusive: bool) -> Vec<i32> {
    let mut acc = 0i32;
    values
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let head = i == 0 || heads.get(i).copied().unwrap_or(false);
            let before = if head { 0 } else { acc };
            acc = before.wrapping_add(x);
            if exclusive {
                before
            } else {
                acc
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::workload::{Shape, REC_TAGS, SUM_TAGS};
    use sam_core::op::{LinRec, Sum};
    use sam_core::{serial, ScanKind, ScanSpec};

    fn input(seed: u64, n: usize) -> Vec<i64> {
        let mut rng = Rng::new(seed, 0);
        let mut v = vec![0i64; n];
        rng.fill_i64(&mut v);
        v
    }

    #[test]
    fn sum_references_match_serial_scan_for_every_workload_spec() {
        for (k, tag) in SUM_TAGS.iter().enumerate() {
            let data = input(k as u64, 1000 + k);
            let expect = serial::scan(&data, &Sum, &tag.spec());
            let mut reference = tag.reference();
            assert_eq!(reference.mismatches(&data, &expect), 0, "{}", tag.name);
        }
    }

    #[test]
    fn linrec_references_match_serial_scan_both_kinds() {
        for (k, tag) in REC_TAGS.iter().enumerate() {
            let Shape::Rec(coeffs) = tag.shape else {
                unreachable!("recurrence tags carry coefficients")
            };
            let op = LinRec::new(coeffs.to_vec()).expect("i64 is an exact ring");
            let data = input(100 + k as u64, 777);
            for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
                let spec = tag.spec().with_kind(kind);
                let expect = serial::scan(&data, &op, &spec);
                let mut reference = Reference::linrec(coeffs, kind == ScanKind::Exclusive);
                assert_eq!(
                    reference.mismatches(&data, &expect),
                    0,
                    "{} {kind:?}",
                    tag.name
                );
            }
        }
    }

    #[test]
    fn i32_references_match_serial_scan() {
        let mut rng = Rng::new(3, 0);
        let data: Vec<i32> = (0..500).map(|_| rng.next_u64() as i32).collect();
        for coeffs in [&[2][..], &[2, -1], &[1, 1]] {
            let op = LinRec::new(coeffs.to_vec()).expect("i32 is an exact ring");
            let spec = ScanSpec::inclusive()
                .with_order(coeffs.len() as u32)
                .expect("order");
            let expect = serial::scan(&data, &op, &spec);
            assert_eq!(
                Reference::linrec(coeffs, false).mismatches(&data, &expect),
                0
            );
        }
        let expect = serial::scan(&data, &Sum, &ScanSpec::inclusive());
        assert_eq!(
            Reference::<i32>::sum(1, 1, false).mismatches(&data, &expect),
            0
        );
    }

    #[test]
    fn streaming_reference_continues_across_frames() {
        let data = input(9, 300);
        let tag = SUM_TAGS
            .iter()
            .find(|t| t.name == "o2t2")
            .expect("o2t2 tag");
        let expect = serial::scan(&data, &Sum, &tag.spec());
        let mut reference = tag.reference();
        let (a, b) = data.split_at(123);
        assert_eq!(reference.mismatches(a, &expect[..123]), 0);
        assert_eq!(reference.mismatches(b, &expect[123..]), 0);
    }

    #[test]
    fn segmented_reference_matches_sam_core() {
        let values = [1, 2, 3, 4, 5, 6];
        let heads = [false, false, true, false, true, false];
        for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
            let expect = sam_core::segmented::scan_serial(&values, &heads, &Sum, kind);
            assert_eq!(
                segmented_sum(&values, &heads, kind == ScanKind::Exclusive),
                expect
            );
        }
        assert_eq!(segmented_sum(&[5, 5], &[], true), vec![0, 5]);
    }
}
