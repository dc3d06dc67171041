//! The single-pass higher-order carry algebra (Section 2.4 generalized).
//!
//! An order-`q` scan of one lane is computed by a *cascade* of `q` running
//! accumulators: per element `x`,
//!
//! ```text
//! a_1 += x;  a_2 += a_1;  ...;  a_q += a_{q-1};   output = a_q
//! ```
//!
//! After sweeping a prefix of the lane, `a_i` equals the order-`i` inclusive
//! total of that prefix — so one sweep simultaneously yields the output
//! *and* all `q` per-order local sums that the multi-pass protocol published
//! one order at a time.
//!
//! The cross-chunk composition rule comes from linearity: appending `D`
//! *zero* elements to a prefix advances the state vector by a
//! lower-triangular Toeplitz matrix of binomial coefficients,
//!
//! ```text
//! a'_i = sum_{i' <= i} C(D + (i - i') - 1, i - i') * a_{i'}
//! ```
//!
//! (`C(D - 1, 0) = 1` on the diagonal; see DESIGN.md §"Single-pass
//! higher-order carry algebra" for the derivation). A chunk's seed state is
//! therefore one weighted combination of its predecessors' published state
//! vectors — a *single* carry round instead of `q` — where the weight of a
//! predecessor at lane-distance `D` is the vector
//! `w_d(D) = C(D + d - 1, d)`, `d = 0..q-1`.
//!
//! The sum cascade is one *instance* of a more general picture: any
//! fixed-coefficient linear recurrence `x_i = b_i + sum_j a_j * x_{i-j}`
//! is linear in its seed, so the end state of a chunk is
//! `T_local + A^L * seed` for the `k x k` companion matrix `A` — and the
//! whole-chunk carry transfer is again a matrix semigroup, just a dense
//! one instead of the unitriangular Toeplitz family. [`CarrySemigroup`]
//! captures both: the binomial Toeplitz weights the paper's higher-order
//! sums need, and companion-matrix powers for recurrence operators
//! ([`crate::op::LinRec`]). [`CarryPlan`] dispatches between them, so the
//! engines' publish/gather protocol is written once against the plan and
//! never against a particular algebra.
//!
//! Everything here is exact arithmetic in `Z/2^64` (and, truncated, in any
//! narrower two's-complement ring): binomial coefficients are computed
//! modulo `2^64` by splitting numerator and denominator into powers of two
//! and odd parts, inverting the odd denominator with a Newton iteration.
//! That exactness is why the fast path is gated on
//! [`ScanElement::EXACT_RING`](crate::element::ScanElement::EXACT_RING):
//! wrapping integer sums form the ring the algebra needs, floats do not.

use crate::chunk_kernel::ChunkKernel;

/// Ceiling on the per-lane state depth, mirrored from
/// [`crate::config::ScanSpec::MAX_ORDER`] so the dense companion advance
/// can use a stack scratch buffer.
const MAX_Q: usize = crate::config::ScanSpec::MAX_ORDER as usize;

/// Multiplicative inverse of an odd `a` modulo `2^64`.
///
/// Newton iteration `x <- x * (2 - a * x)` doubles the number of correct
/// low-order bits per step; starting from `x = a` (correct modulo 8, since
/// `a * a ≡ 1 (mod 8)` for odd `a`), five steps reach 128 > 64 bits.
fn inv_odd_mod_2_64(a: u64) -> u64 {
    debug_assert!(a & 1 == 1, "only odd residues are invertible mod 2^64");
    let mut x = a;
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    x
}

/// The binomial coefficient `C(m, d)` reduced modulo `2^64`.
///
/// `m` may be astronomically large (it is a lane-element distance), so the
/// product formula `C(m, d) = prod_{t=1..d} (m - d + t) / t` is evaluated
/// with the powers of two of numerator and denominator tracked separately:
/// the odd parts multiply (and invert) exactly in `Z/2^64`, and the net
/// power of two — always non-negative, since the binomial is an integer —
/// shifts the result (to zero, if it reaches 64).
pub fn binomial_mod_2_64(m: u128, d: u32) -> u64 {
    if m < u128::from(d) {
        return 0;
    }
    let mut twos: i64 = 0;
    let mut num_odd: u64 = 1;
    let mut den_odd: u64 = 1;
    for t in 1..=u128::from(d) {
        let f = m - u128::from(d) + t;
        let v = f.trailing_zeros();
        twos += i64::from(v);
        // Truncating the odd part to 64 bits preserves it modulo 2^64 and
        // keeps it odd.
        num_odd = num_odd.wrapping_mul((f >> v) as u64);
        let v = t.trailing_zeros();
        twos -= i64::from(v);
        den_odd = den_odd.wrapping_mul((t >> v) as u64);
    }
    debug_assert!(twos >= 0, "binomial coefficients are integers");
    if twos >= 64 {
        return 0;
    }
    num_odd.wrapping_mul(inv_odd_mod_2_64(den_odd)) << twos
}

/// The weight vector of the state-advance matrix for lane-distance `dist`:
/// `w[d] = C(dist + d - 1, d)` for `d = 0..q`, modulo `2^64`.
///
/// `w[0] = 1` always (the matrix is unitriangular); `dist = 0` yields the
/// identity (`w[d] = C(d - 1, d) = 0` for `d > 0`).
pub fn advance_weights(dist: u64, q: usize) -> Vec<u64> {
    (0..q).map(|d| advance_weight(dist, d)).collect()
}

/// Entry `d` of [`advance_weights`]`(dist, _)`.
fn advance_weight(dist: u64, d: usize) -> u64 {
    if d == 0 {
        1 // C(m, 0) = 1, covering dist = 0 without underflow.
    } else {
        binomial_mod_2_64(u128::from(dist) + d as u128 - 1, d as u32)
    }
}

/// [`advance_weights`]`(dist, w.len())` as element values, written into
/// `w` — the allocation-free form for callers that advance by one
/// distance only (the lane segments of a chunk sweep).
pub(crate) fn advance_weights_into<T: Copy, Op: ChunkKernel<T>>(op: &Op, dist: u64, w: &mut [T]) {
    for (d, slot) in w.iter_mut().enumerate() {
        *slot = op.carry_weight(advance_weight(dist, d));
    }
}

/// `state <- M(w) * state` for the unitriangular Toeplitz matrix with
/// weights `w` (`w[0] = 1`), per lane of the `q x s` `state`.
///
/// Rows run top-coefficient-down so the update is in place: row `i` reads
/// only rows `i' <= i`, and the unit diagonal leaves the just-written rows
/// out of later reads.
pub(crate) fn toeplitz_advance<T: Copy, Op: ChunkKernel<T>>(
    op: &Op,
    w: &[T],
    state: &mut [T],
    s: usize,
) {
    for i in (0..state.len() / s).rev() {
        for l in 0..s {
            let mut acc = state[i * s + l]; // w[0] = 1
            for i2 in 0..i {
                acc = op.combine(acc, op.weight_apply(state[i2 * s + l], w[i - i2]));
            }
            state[i * s + l] = acc;
        }
    }
}

/// The family of whole-chunk carry-transfer matrices an operator's state
/// composes under — one semigroup (`M_a ∘ M_b = M_{a+b}`) per operator
/// family, materialized at the chunk distances a plan needs.
///
/// Both variants represent the same contract: `M_j` maps a state vector
/// across `j` full chunks of identity input, so a chunk seeds itself from
/// predecessors with `state = M_{k-1}·end + Σ_p M_{c-1-p}·T_p` no matter
/// which algebra is underneath. The variants differ only in matrix
/// *shape*, which the advance/fold loops exploit:
///
/// * [`CarrySemigroup::BinomialToeplitz`] — the higher-order sum algebra:
///   unitriangular lower-Toeplitz matrices, stored as one weight vector
///   per distance (`w[d] = C(jL + d - 1, d)`, `w[0] = 1`). In-place
///   matvec, no scratch.
/// * [`CarrySemigroup::Companion`] — fixed-coefficient linear recurrences
///   ([`ChunkKernel::recurrence_coeffs`]): dense powers `A^{jL}` of the
///   `k x k` companion matrix, stored row-major. The order-1 case is the
///   `2x2` upper-triangular affine form `[[a^L, t], [0, 1]]` collapsed to
///   its scalar part (the affine translation column is exactly the
///   published local total `T_p`, which the protocol already transports).
pub enum CarrySemigroup<T> {
    /// Unitriangular Toeplitz weights for higher-order sums:
    /// `weights[j][d]` is the row-offset-`d` weight of the distance-`j·L`
    /// matrix, as an element value.
    BinomialToeplitz {
        /// One weight vector per chunk distance `j = 0..max_steps`.
        weights: Vec<Vec<T>>,
    },
    /// Dense companion-matrix powers for order-`k` linear recurrences:
    /// `mats[j]` is `A^{j·L}`, row-major `q x q`.
    Companion {
        /// One matrix per chunk distance `j = 0..max_steps`.
        mats: Vec<Vec<T>>,
    },
}

impl<T: Copy> CarrySemigroup<T> {
    /// Builds the binomial Toeplitz family for order `q` at distances
    /// `j * lane_elems`, `j = 0..max_steps`.
    fn binomial<Op: ChunkKernel<T>>(op: &Op, q: usize, lane_elems: u64, max_steps: usize) -> Self {
        let weights = (0..max_steps)
            .map(|j| {
                advance_weights(lane_elems * j as u64, q)
                    .into_iter()
                    .map(|w| op.carry_weight(w))
                    .collect()
            })
            .collect();
        CarrySemigroup::BinomialToeplitz { weights }
    }

    /// Builds the companion-power family for recurrence coefficients
    /// `coeffs` (`x_i = b_i + Σ_j coeffs[j] * x_{i-1-j}`) at distances
    /// `j * lane_elems`: `A^{lane_elems}` by binary exponentiation, then
    /// one further product per distance.
    fn companion<Op: ChunkKernel<T>>(
        op: &Op,
        coeffs: &[T],
        lane_elems: u64,
        max_steps: usize,
    ) -> Self {
        let q = coeffs.len();
        let zero = op.identity();
        let one = op.carry_weight(1);
        let mut companion = vec![zero; q * q];
        companion[..q].copy_from_slice(coeffs);
        for i in 1..q {
            companion[i * q + (i - 1)] = one;
        }
        // step = A^lane_elems by square-and-multiply over the element ring.
        let mut step = mat_identity(q, zero, one);
        let mut base = companion;
        let mut e = lane_elems;
        while e > 0 {
            if e & 1 == 1 {
                step = mat_mul(op, q, &step, &base);
            }
            e >>= 1;
            if e > 0 {
                base = mat_mul(op, q, &base, &base);
            }
        }
        let mut mats = Vec::with_capacity(max_steps);
        mats.push(mat_identity(q, zero, one));
        for j in 1..max_steps {
            let next = mat_mul(op, q, &mats[j - 1], &step);
            mats.push(next);
        }
        CarrySemigroup::Companion { mats }
    }
}

/// The `q x q` identity matrix, row-major.
fn mat_identity<T: Copy>(q: usize, zero: T, one: T) -> Vec<T> {
    let mut m = vec![zero; q * q];
    for i in 0..q {
        m[i * q + i] = one;
    }
    m
}

/// Row-major `q x q` matrix product over the operator's element ring
/// (`combine` as addition, `weight_apply` as multiplication — exact for
/// every wrapping-integer operator the cascade gate admits).
fn mat_mul<T: Copy, Op: ChunkKernel<T>>(op: &Op, q: usize, a: &[T], b: &[T]) -> Vec<T> {
    let mut out = vec![op.identity(); q * q];
    for i in 0..q {
        for k in 0..q {
            let v = a[i * q + k];
            for j in 0..q {
                out[i * q + j] = op.combine(out[i * q + j], op.weight_apply(b[k * q + j], v));
            }
        }
    }
    out
}

/// FNV-1a fingerprint of a recurrence's coefficient vector (length, then
/// each coefficient's bit pattern). Tags [`crate::plan::CarryState`]
/// checkpoints so a checkpoint taken under one recurrence can never be
/// resumed — or misinterpreted — under another operator.
pub fn recurrence_fingerprint<T: gpu_sim::Pod64>(coeffs: &[T]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(coeffs.len() as u64);
    for &c in coeffs {
        mix(c.to_bits());
    }
    h
}

/// Precomputed carry transfers for the single-pass protocols: the advance
/// matrices for lane-distances `j * lane_elems`, `j = 0..max_steps`, in
/// whichever [`CarrySemigroup`] the operator's algebra lives.
///
/// `lane_elems` is the per-lane element count of one full chunk
/// (`chunk_elems / s`, requiring `chunk_elems % s == 0` so every
/// chunk-to-chunk distance is a uniform multiple). A worker at chunk `c`
/// seeds its state as
///
/// ```text
/// state = M_{k-1} * end_state(c - k)            // own previous chunk
///       + sum_{p = c-k+1}^{c-1} M_{c-1-p} * T_p // published local sums
/// ```
///
/// so exactly the matrices `M_0..M_{k-1}` are needed (`M_0` = identity).
/// The engines never see which semigroup is inside: the same
/// publish-totals / advance / fold call sequence is correct for both,
/// because both algebras are linear in the seed state.
pub struct CarryPlan<T> {
    q: usize,
    semigroup: CarrySemigroup<T>,
}

impl<T: Copy> CarryPlan<T> {
    /// Builds the plan for order `q`, per-chunk lane length `lane_elems`,
    /// and `max_steps` distinct chunk distances (the worker/block count).
    /// Operators exposing [`ChunkKernel::recurrence_coeffs`] get the
    /// companion semigroup; everything else gets the binomial Toeplitz
    /// weights of the higher-order sum algebra.
    ///
    /// # Panics
    ///
    /// Panics if the operator does not support the cascade algebra, or if
    /// a recurrence operator's coefficient count disagrees with `q`.
    pub fn new<Op: ChunkKernel<T>>(op: &Op, q: usize, lane_elems: u64, max_steps: usize) -> Self {
        assert!(
            op.supports_cascade(),
            "carry plans require a cascade-capable operator"
        );
        let semigroup = match op.recurrence_coeffs() {
            None => CarrySemigroup::binomial(op, q, lane_elems, max_steps),
            Some(coeffs) => {
                assert_eq!(
                    coeffs.len(),
                    q,
                    "recurrence order (coeffs.len()) must equal the spec order"
                );
                CarrySemigroup::companion(op, coeffs, lane_elems, max_steps)
            }
        };
        CarryPlan { q, semigroup }
    }

    /// The semigroup this plan's transfers live in.
    pub fn semigroup(&self) -> &CarrySemigroup<T> {
        &self.semigroup
    }

    /// Advances `state` (layout `q x s`, `state[i * s + lane]`) in place by
    /// `steps` full chunks of identity input: `state <- M_steps * state`,
    /// per lane.
    ///
    /// The Toeplitz arm runs in place, rows top-coefficient-down; the dense
    /// companion arm snapshots the lane into a stack scratch (`q <= MAX_Q`)
    /// instead.
    pub fn advance<Op: ChunkKernel<T>>(&self, op: &Op, steps: usize, state: &mut [T], s: usize) {
        if steps == 0 {
            return;
        }
        match &self.semigroup {
            CarrySemigroup::BinomialToeplitz { weights } => {
                toeplitz_advance(op, &weights[steps], state, s)
            }
            CarrySemigroup::Companion { mats } => {
                let m = &mats[steps];
                let q = self.q;
                // q <= MAX_Q by spec validation; state is non-empty for
                // every valid spec, so state[0] is a safe fill value.
                let mut lane = [state[0]; MAX_Q];
                for l in 0..s {
                    for (i, slot) in lane[..q].iter_mut().enumerate() {
                        *slot = state[i * s + l];
                    }
                    for i in 0..q {
                        let mut acc = op.identity();
                        for (j, &v) in lane[..q].iter().enumerate() {
                            acc = op.combine(acc, op.weight_apply(v, m[i * q + j]));
                        }
                        state[i * s + l] = acc;
                    }
                }
            }
        }
    }

    /// Folds a predecessor's published state vector `totals` at chunk
    /// distance `steps` into `state`: `state += M_steps * totals`, per lane.
    pub fn fold<Op: ChunkKernel<T>>(
        &self,
        op: &Op,
        steps: usize,
        totals: &[T],
        state: &mut [T],
        s: usize,
    ) {
        match &self.semigroup {
            CarrySemigroup::BinomialToeplitz { weights } => {
                let w = &weights[steps];
                for i in 0..self.q {
                    for l in 0..s {
                        let mut acc = state[i * s + l];
                        for i2 in 0..=i {
                            acc = op.combine(acc, op.weight_apply(totals[i2 * s + l], w[i - i2]));
                        }
                        state[i * s + l] = acc;
                    }
                }
            }
            CarrySemigroup::Companion { mats } => {
                let m = &mats[steps];
                let q = self.q;
                for i in 0..q {
                    for l in 0..s {
                        let mut acc = state[i * s + l];
                        for j in 0..q {
                            acc = op.combine(acc, op.weight_apply(totals[j * s + l], m[i * q + j]));
                        }
                        state[i * s + l] = acc;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Sum;

    /// Exact small binomials against a Pascal's-triangle oracle.
    #[test]
    fn small_binomials_match_pascal() {
        let mut row = vec![1u128];
        for m in 0..40u32 {
            for (d, &v) in row.iter().enumerate() {
                assert_eq!(
                    binomial_mod_2_64(u128::from(m), d as u32),
                    (v % (1u128 << 64)) as u64,
                    "C({m}, {d})"
                );
            }
            let mut next = vec![1u128];
            for w in row.windows(2) {
                next.push(w[0] + w[1]);
            }
            next.push(1);
            row = next;
        }
    }

    #[test]
    fn out_of_range_binomials_are_zero() {
        assert_eq!(binomial_mod_2_64(3, 5), 0);
        assert_eq!(binomial_mod_2_64(0, 1), 0);
        assert_eq!(binomial_mod_2_64(0, 0), 1);
    }

    /// `C(2^68, 2)` = 2^67 * (2^68 - 1): 67 net twos < 64? No — 67 >= 64,
    /// so the reduction is zero. `C(2^6, 2)` = 32 * 63 = 2016 stays exact.
    #[test]
    fn large_arguments_reduce_mod_2_64() {
        assert_eq!(binomial_mod_2_64(1u128 << 68, 2), 0);
        assert_eq!(binomial_mod_2_64(64, 2), 2016);
        // C(2^64 + 2, 2) = (2^64 + 2)(2^64 + 1)/2 = (2^63 + 1)(2^64 + 1)
        //               ≡ (2^63 + 1) * 1 ≡ 2^63 + 1 (mod 2^64).
        assert_eq!(binomial_mod_2_64((1u128 << 64) + 2, 2), (1u64 << 63) + 1);
    }

    #[test]
    fn odd_inverse_is_exact() {
        for a in [1u64, 3, 5, 0xdead_beef_dead_beef, u64::MAX] {
            assert_eq!(a.wrapping_mul(inv_odd_mod_2_64(a)), 1, "a = {a}");
        }
    }

    /// The defining property of the advance weights: appending `dist` zeros
    /// to a lane and re-scanning equals multiplying the state vector by the
    /// weight matrix.
    #[test]
    fn advance_weights_match_zero_padded_rescan() {
        for q in [1usize, 2, 3, 5, 8] {
            for dist in [0usize, 1, 2, 7, 100] {
                let input: Vec<u64> = (0..13).map(|i| (i * i * 977 + 3) as u64).collect();
                // State after a prefix = last element of each order's
                // iterated scan of that prefix.
                let mut padded = input.clone();
                padded.resize(input.len() + dist, 0);
                let state_of = |data: &[u64]| -> Vec<u64> {
                    let mut cur = data.to_vec();
                    (0..q)
                        .map(|_| {
                            crate::serial::inclusive_strided_in_place(&mut cur, &Sum, 1);
                            *cur.last().unwrap()
                        })
                        .collect()
                };
                let base_state = state_of(&input);
                let padded_state = state_of(&padded);
                let w = advance_weights(dist as u64, q);
                assert_eq!(w[0], 1);
                for i in 0..q {
                    let mut acc = 0u64;
                    for i2 in 0..=i {
                        acc = acc.wrapping_add(base_state[i2].wrapping_mul(w[i - i2]));
                    }
                    assert_eq!(acc, padded_state[i], "q={q} dist={dist} row={i}");
                }
            }
        }
    }

    /// Advance matrices form a semigroup: M_a then M_b equals M_{a+b}.
    #[test]
    fn advance_is_a_semigroup() {
        let op = Sum;
        let q = 5;
        let plan = CarryPlan::<u64>::new(&op, q, 3, 8); // distances 0,3,6,...,21
        let mk = || -> Vec<u64> { (0..q as u64).map(|i| i * 71 + 1).collect() };
        let mut ab = mk();
        plan.advance(&op, 2, &mut ab, 1); // +6
        plan.advance(&op, 3, &mut ab, 1); // +9
        let mut once = mk();
        plan.advance(&op, 5, &mut once, 1); // +15
        assert_eq!(ab, once);
        // Distance 0 is the identity.
        let mut id = mk();
        plan.advance(&op, 0, &mut id, 1);
        assert_eq!(id, mk());
    }

    /// `fold` is `state + M * totals`, checked against an explicit
    /// advance-then-add on a zero state.
    #[test]
    fn fold_matches_advance_of_totals() {
        let op = Sum;
        let q = 4;
        let s = 3;
        let plan = CarryPlan::<u32>::new(&op, q, 5, 4);
        let totals: Vec<u32> = (0..(q * s) as u32).map(|i| i * 37 + 11).collect();
        let base: Vec<u32> = (0..(q * s) as u32).map(|i| i * 5 + 1).collect();

        let mut folded = base.clone();
        plan.fold(&op, 2, &totals, &mut folded, s);

        let mut advanced = totals.clone();
        plan.advance(&op, 2, &mut advanced, s);
        let expect: Vec<u32> = base
            .iter()
            .zip(&advanced)
            .map(|(&b, &a)| b.wrapping_add(a))
            .collect();
        assert_eq!(folded, expect);
    }

    /// Serial oracle for the recurrence state: runs
    /// `x_i = b_i + Σ_j coeffs[j] * x_{i-1-j}` over `input` from a zero
    /// seed and returns the last `k` outputs, most recent first.
    fn rec_end_state(input: &[u64], coeffs: &[u64]) -> Vec<u64> {
        let k = coeffs.len();
        let mut st = vec![0u64; k];
        for &b in input {
            let mut x = b;
            for (j, &a) in coeffs.iter().enumerate() {
                x = x.wrapping_add(st[j].wrapping_mul(a));
            }
            for j in (1..k).rev() {
                st[j] = st[j - 1];
            }
            st[0] = x;
        }
        st
    }

    /// The defining property of the companion powers: appending
    /// `steps * lane_elems` zero inputs to a recurrence and re-running it
    /// equals one `advance` of the end state.
    #[test]
    fn companion_advance_matches_zero_padded_rerun() {
        use crate::op::LinRec;
        for coeffs in [vec![3u64], vec![1, 1], vec![5, 0, 2], vec![2, 7, 1, 9, 4]] {
            let k = coeffs.len();
            let op = LinRec::new(coeffs.clone()).unwrap();
            let lane_elems = 7u64;
            let plan = CarryPlan::<u64>::new(&op, k, lane_elems, 5);
            let input: Vec<u64> = (0..13).map(|i| (i * i * 977 + 3) as u64).collect();
            for steps in 0..5usize {
                let mut padded = input.clone();
                padded.resize(input.len() + steps * lane_elems as usize, 0);
                let mut state = rec_end_state(&input, &coeffs);
                plan.advance(&op, steps, &mut state, 1);
                assert_eq!(
                    state,
                    rec_end_state(&padded, &coeffs),
                    "k={k} steps={steps}"
                );
            }
        }
    }

    /// Companion advance matrices form a semigroup: `M_a` then `M_b`
    /// equals `M_{a+b}`, and distance 0 is the identity.
    #[test]
    fn companion_advance_is_a_semigroup() {
        use crate::op::LinRec;
        let op = LinRec::new(vec![2u64, 3, 1]).unwrap();
        let plan = CarryPlan::<u64>::new(&op, 3, 4, 8);
        let mk = || -> Vec<u64> { (0..3u64).map(|i| i * 71 + 1).collect() };
        let mut ab = mk();
        plan.advance(&op, 2, &mut ab, 1);
        plan.advance(&op, 3, &mut ab, 1);
        let mut once = mk();
        plan.advance(&op, 5, &mut once, 1);
        assert_eq!(ab, once);
        let mut id = mk();
        plan.advance(&op, 0, &mut id, 1);
        assert_eq!(id, mk());
    }

    /// `fold` under the companion semigroup is `state + M * totals`,
    /// checked per lane against advance-then-add, like the Toeplitz case.
    #[test]
    fn companion_fold_matches_advance_of_totals() {
        use crate::op::LinRec;
        let op = LinRec::new(vec![3u32, 1]).unwrap();
        let q = 2;
        let s = 3;
        let plan = CarryPlan::<u32>::new(&op, q, 5, 4);
        let totals: Vec<u32> = (0..(q * s) as u32).map(|i| i * 37 + 11).collect();
        let base: Vec<u32> = (0..(q * s) as u32).map(|i| i * 5 + 1).collect();

        let mut folded = base.clone();
        plan.fold(&op, 2, &totals, &mut folded, s);

        let mut advanced = totals.clone();
        plan.advance(&op, 2, &mut advanced, s);
        let expect: Vec<u32> = base
            .iter()
            .zip(&advanced)
            .map(|(&b, &a)| b.wrapping_add(a))
            .collect();
        assert_eq!(folded, expect);
    }

    /// The order-1 companion power is the scalar `a^L` — the `2x2`
    /// upper-triangular affine semigroup with its translation column
    /// factored out (DESIGN.md §15).
    #[test]
    fn first_order_companion_is_scalar_power() {
        use crate::op::LinRec;
        let a = 3u64;
        let lane_elems = 10u64;
        let op = LinRec::new(vec![a]).unwrap();
        let plan = CarryPlan::<u64>::new(&op, 1, lane_elems, 3);
        let mut state = vec![7u64];
        plan.advance(&op, 2, &mut state, 1);
        assert_eq!(state[0], 7u64.wrapping_mul(a.wrapping_pow(20)));
    }

    #[test]
    fn fingerprint_distinguishes_coefficient_vectors() {
        let a = recurrence_fingerprint(&[3u64]);
        let b = recurrence_fingerprint(&[3u64, 0]);
        let c = recurrence_fingerprint(&[4u64]);
        assert_ne!(a, b, "length is part of the fingerprint");
        assert_ne!(a, c, "values are part of the fingerprint");
        assert_eq!(
            a,
            recurrence_fingerprint(&[3i64]),
            "bit patterns, not types"
        );
    }
}
