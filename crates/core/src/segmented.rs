//! Segmented scans.
//!
//! A segmented scan restarts at every segment head: given values and a
//! head-flag vector, position `i` receives the combination of the values
//! from its segment's head up to `i`. Segmented scans power the
//! irregular-parallelism applications of Section 3 (Sengupta et al.'s
//! quicksort and sparse matrix work) and compose with the machinery of
//! this crate through the classic operator transformation: pairs
//! `(flag, value)` under
//!
//! ```text
//! (f1, v1) ⊕ (f2, v2) = (f1 | f2, if f2 { v2 } else { v1 ⊕ v2 })
//! ```
//!
//! form an associative operation, so *any* unsegmented scan engine runs a
//! segmented scan. For 32-bit-or-smaller element types the pair packs into
//! one 64-bit word ([`Packed32`]), which lets the multi-threaded
//! [`crate::cpu::CpuScanner`] and the simulated-GPU kernel run segmented
//! scans unchanged — the same packing trick GPU libraries use.

use crate::config::ScanKind;
use crate::element::ScanElement;
use crate::op::ScanOp;
use gpu_sim::Pod64;
use std::marker::PhantomData;

/// Element types that fit in 32 bits, so a `(flag, value)` pair fits in a
/// 64-bit word.
pub trait Element32: ScanElement {
    /// The value's 32-bit pattern.
    fn to_bits32(self) -> u32;
    /// Recovers a value from [`Element32::to_bits32`].
    fn from_bits32(bits: u32) -> Self;
}

macro_rules! impl_element32 {
    ($($t:ty),*) => {$(
        impl Element32 for $t {
            #[inline]
            fn to_bits32(self) -> u32 {
                self as u32
            }
            #[inline]
            fn from_bits32(bits: u32) -> Self {
                bits as $t
            }
        }
    )*};
}
impl_element32!(i8, i16, i32, u8, u16, u32);

impl Element32 for f32 {
    #[inline]
    fn to_bits32(self) -> u32 {
        self.to_bits()
    }
    #[inline]
    fn from_bits32(bits: u32) -> Self {
        f32::from_bits(bits)
    }
}

/// A `(head flag, value)` pair packed into 64 bits: flag in bit 32, value
/// in the low word.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packed32<T> {
    bits: u64,
    _ty: PhantomData<T>,
}

const FLAG_BIT: u64 = 1 << 32;

impl<T: Element32> Packed32<T> {
    /// Packs a flagged value.
    pub fn new(flag: bool, value: T) -> Self {
        Packed32 {
            bits: u64::from(value.to_bits32()) | if flag { FLAG_BIT } else { 0 },
            _ty: PhantomData,
        }
    }

    /// The head flag.
    pub fn flag(&self) -> bool {
        self.bits & FLAG_BIT != 0
    }

    /// The value.
    pub fn value(&self) -> T {
        T::from_bits32(self.bits as u32)
    }
}

impl<T: Element32> Pod64 for Packed32<T> {
    fn to_bits(self) -> u64 {
        self.bits
    }
    fn from_bits(bits: u64) -> Self {
        Packed32 {
            bits,
            _ty: PhantomData,
        }
    }
}

/// The segmented-scan operator transformation over packed pairs.
///
/// Wraps any associative `Op` on `T`; the wrapped operation is associative
/// on pairs, which is what makes segmented scans expressible as ordinary
/// scans (Blelloch).
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentedOp<Op> {
    op: Op,
}

impl<Op> SegmentedOp<Op> {
    /// Wraps `op`.
    pub fn new(op: Op) -> Self {
        SegmentedOp { op }
    }
}

impl<T, Op> ScanOp<Packed32<T>> for SegmentedOp<Op>
where
    T: Element32,
    Op: ScanOp<T>,
{
    fn identity(&self) -> Packed32<T> {
        Packed32::new(false, self.op.identity())
    }

    fn combine(&self, a: Packed32<T>, b: Packed32<T>) -> Packed32<T> {
        if b.flag() {
            b
        } else {
            Packed32::new(a.flag(), self.op.combine(a.value(), b.value()))
        }
    }
}

/// Serial segmented scan for any element type (the oracle).
///
/// # Panics
///
/// Panics if `values` and `heads` differ in length.
pub fn scan_serial<T: Copy>(
    values: &[T],
    heads: &[bool],
    op: &impl ScanOp<T>,
    kind: ScanKind,
) -> Vec<T> {
    assert_eq!(values.len(), heads.len(), "one head flag per value");
    let mut out = Vec::with_capacity(values.len());
    let mut acc = op.identity();
    for (i, (&v, &h)) in values.iter().zip(heads).enumerate() {
        if h || i == 0 {
            acc = op.identity();
        }
        match kind {
            ScanKind::Inclusive => {
                acc = op.combine(acc, v);
                out.push(acc);
            }
            ScanKind::Exclusive => {
                out.push(acc);
                acc = op.combine(acc, v);
            }
        }
    }
    out
}

/// Parallel segmented scan for 32-bit element types, running on the
/// multi-threaded SAM engine via the pair transformation.
///
/// # Panics
///
/// Panics if `values` and `heads` differ in length.
///
/// # Examples
///
/// ```
/// use sam_core::segmented::scan_parallel;
/// use sam_core::cpu::CpuScanner;
/// use sam_core::op::Sum;
/// use sam_core::ScanKind;
///
/// let values = [1i32, 2, 3, 4, 5];
/// let heads = [false, false, true, false, false];
/// let out = scan_parallel(&values, &heads, &Sum, ScanKind::Inclusive,
///                         &CpuScanner::new(2).with_chunk_elems(2));
/// assert_eq!(out, vec![1, 3, 3, 7, 12]); // restarts at index 2
/// ```
pub fn scan_parallel<T, Op>(
    values: &[T],
    heads: &[bool],
    op: &Op,
    kind: ScanKind,
    scanner: &crate::cpu::CpuScanner,
) -> Vec<T>
where
    T: Element32,
    Op: ScanOp<T>,
{
    assert_eq!(values.len(), heads.len(), "one head flag per value");
    let packed: Vec<Packed32<T>> = values
        .iter()
        .zip(heads)
        .map(|(&v, &h)| Packed32::new(h, v))
        .collect();
    let seg_op = SegmentedOp::new(crate::op::FnOp::new(op.identity(), |a, b| op.combine(a, b)));
    let inclusive = scanner.scan(&packed, &seg_op, &crate::ScanSpec::inclusive());
    match kind {
        ScanKind::Inclusive => inclusive.iter().map(Packed32::value).collect(),
        ScanKind::Exclusive => {
            // exclusive[i] = identity at heads (and index 0), else
            // inclusive[i-1] — i-1 is in the same segment by construction.
            (0..values.len())
                .map(|i| {
                    if i == 0 || heads[i] {
                        op.identity()
                    } else {
                        inclusive[i - 1].value()
                    }
                })
                .collect()
        }
    }
}

/// Streaming segmented scan: packs one batch of `(head, value)` pairs,
/// feeds it through a [`crate::plan::ScanSession`] over the pair
/// transformation, and unpacks the inclusive outputs. Batching is
/// invisible: feeding any partition of a sequence equals
/// [`scan_serial`] over the whole sequence, and segments may span batch
/// boundaries — the session's carry state holds the open segment's
/// running pair.
///
/// The session must execute an *inclusive order-1 tuple-1* plan (the pair
/// transformation composes with neither higher orders nor lanes).
///
/// # Panics
///
/// Panics if `values` and `heads` differ in length, or if the session's
/// spec is not inclusive order-1 tuple-1.
///
/// # Examples
///
/// ```
/// use sam_core::plan::{PlanHint, ScanPlan};
/// use sam_core::segmented::{feed_segmented, SegmentedOp};
/// use sam_core::op::Sum;
/// use sam_core::{Engine, ScanSpec};
///
/// let plan = ScanPlan::new(ScanSpec::inclusive(), Engine::Serial, PlanHint::default());
/// let mut session = plan.session(SegmentedOp::new(Sum));
/// let a = feed_segmented(&mut session, &[1i32, 2], &[false, false]);
/// let b = feed_segmented(&mut session, &[3, 4], &[false, true]); // segment continues, then restarts
/// assert_eq!((a, b), (vec![1, 3], vec![6, 4]));
/// ```
pub fn feed_segmented<T, SegOp>(
    session: &mut crate::plan::ScanSession<Packed32<T>, SegOp>,
    values: &[T],
    heads: &[bool],
) -> Vec<T>
where
    T: Element32,
    SegOp: crate::chunk_kernel::ChunkKernel<Packed32<T>>,
{
    let mut scratch = Vec::new();
    let mut out = Vec::with_capacity(values.len());
    match try_feed_segmented_into(session, values, heads, &mut scratch, &mut out) {
        Ok(()) => out,
        Err(SegmentedError::LengthMismatch { .. }) => panic!("one head flag per value"),
        Err(SegmentedError::UnsupportedSpec(_)) => {
            panic!("segmented streaming requires an inclusive order-1 tuple-1 session")
        }
    }
}

/// A segmented-feed request that cannot be executed. Returned by
/// [`try_feed_segmented_into`] so a front-end serving many tenants can
/// reject one malformed request without aborting a shared worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentedError {
    /// `values` and `heads` differ in length — segmented scans need one
    /// head flag per value.
    LengthMismatch {
        /// Length of the `values` slice.
        values: usize,
        /// Length of the `heads` slice.
        heads: usize,
    },
    /// The session's spec cannot carry the pair transformation: segmented
    /// streaming requires an inclusive order-1 tuple-1 session.
    UnsupportedSpec(crate::ScanSpec),
}

impl core::fmt::Display for SegmentedError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SegmentedError::LengthMismatch { values, heads } => write!(
                f,
                "one head flag per value required: {values} values, {heads} heads"
            ),
            SegmentedError::UnsupportedSpec(spec) => write!(
                f,
                "segmented streaming requires an inclusive order-1 tuple-1 session, \
                 got {spec:?}"
            ),
        }
    }
}

impl std::error::Error for SegmentedError {}

/// Fallible, allocation-recycling [`feed_segmented`]: validates the
/// request, packs `(head, value)` pairs into `scratch`, feeds them
/// through the session, and appends the unpacked inclusive outputs to
/// `out` — exactly `values.len()` of them.
///
/// Both buffers are cleared and reused, never shrunk, so a long-lived
/// caller (a batching service executor, say) reaches a steady state with
/// zero allocations per request. On `Err` the session is untouched: no
/// elements were fed, and both buffers are left cleared, so one bad
/// request cannot corrupt the carry state shared with later ones.
///
/// # Errors
///
/// [`SegmentedError::LengthMismatch`] when `values` and `heads` differ in
/// length; [`SegmentedError::UnsupportedSpec`] when the session's spec is
/// not inclusive order-1 tuple-1.
///
/// # Examples
///
/// ```
/// use sam_core::plan::{PlanHint, ScanPlan};
/// use sam_core::segmented::{try_feed_segmented_into, SegmentedOp};
/// use sam_core::op::Sum;
/// use sam_core::{Engine, ScanSpec};
///
/// let plan = ScanPlan::new(ScanSpec::inclusive(), Engine::Serial, PlanHint::default());
/// let mut session = plan.session(SegmentedOp::new(Sum));
/// let (mut scratch, mut out) = (Vec::new(), Vec::new());
/// try_feed_segmented_into(&mut session, &[1i32, 2, 3], &[false, false, true], &mut scratch, &mut out)
///     .unwrap();
/// assert_eq!(out, vec![1, 3, 3]);
/// // Malformed input is an error, not a panic — and the session is untouched.
/// let err = try_feed_segmented_into(&mut session, &[1i32], &[], &mut scratch, &mut out);
/// assert!(err.is_err());
/// ```
pub fn try_feed_segmented_into<T, SegOp>(
    session: &mut crate::plan::ScanSession<Packed32<T>, SegOp>,
    values: &[T],
    heads: &[bool],
    scratch: &mut Vec<Packed32<T>>,
    out: &mut Vec<T>,
) -> Result<(), SegmentedError>
where
    T: Element32,
    SegOp: crate::chunk_kernel::ChunkKernel<Packed32<T>>,
{
    scratch.clear();
    out.clear();
    if values.len() != heads.len() {
        return Err(SegmentedError::LengthMismatch {
            values: values.len(),
            heads: heads.len(),
        });
    }
    let spec = *session.spec();
    if !(spec.is_first_order() && spec.tuple() == 1 && spec.kind() == ScanKind::Inclusive) {
        return Err(SegmentedError::UnsupportedSpec(spec));
    }
    scratch.extend(values.iter().zip(heads).map(|(&v, &h)| Packed32::new(h, v)));
    out.extend(session.feed(scratch).iter().map(Packed32::value));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuScanner;
    use crate::op::{Max, Sum};
    use crate::plan::{PlanHint, ScanPlan};
    use crate::Engine;

    fn heads_every(n: usize, period: usize) -> Vec<bool> {
        (0..n).map(|i| i % period == 0).collect()
    }

    #[test]
    fn serial_inclusive_restarts_at_heads() {
        let values = [1i32, 1, 1, 1, 1, 1];
        let heads = [false, false, true, false, true, false];
        let out = scan_serial(&values, &heads, &Sum, ScanKind::Inclusive);
        assert_eq!(out, vec![1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn serial_exclusive_restarts_at_heads() {
        let values = [5i32, 6, 7, 8];
        let heads = [false, false, true, false];
        let out = scan_serial(&values, &heads, &Sum, ScanKind::Exclusive);
        assert_eq!(out, vec![0, 5, 0, 7]);
    }

    #[test]
    fn packed_roundtrip() {
        let p = Packed32::new(true, -7i32);
        assert!(p.flag());
        assert_eq!(p.value(), -7);
        let q = Packed32::<i32>::from_bits(p.to_bits());
        assert_eq!(q, p);
        let f = Packed32::new(false, 1.5f32);
        assert!(!f.flag());
        assert_eq!(f.value(), 1.5);
    }

    #[test]
    fn segmented_op_is_associative_on_samples() {
        let op = SegmentedOp::new(Sum);
        let samples = [
            Packed32::new(false, 3i32),
            Packed32::new(true, -2),
            Packed32::new(false, 10),
            Packed32::new(true, 0),
        ];
        for &a in &samples {
            for &b in &samples {
                for &c in &samples {
                    let left = op.combine(op.combine(a, b), c);
                    let right = op.combine(a, op.combine(b, c));
                    assert_eq!(left, right, "a={a:?} b={b:?} c={c:?}");
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial_across_geometries() {
        let n = 10_000;
        let values: Vec<i32> = (0..n as i32).map(|i| i % 19 - 9).collect();
        let heads = heads_every(n, 37);
        for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
            let expect = scan_serial(&values, &heads, &Sum, kind);
            for (workers, chunk) in [(2usize, 100usize), (4, 333), (8, 1024)] {
                let scanner = CpuScanner::new(workers).with_chunk_elems(chunk);
                let got = scan_parallel(&values, &heads, &Sum, kind, &scanner);
                assert_eq!(got, expect, "kind={kind:?} workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn segments_longer_than_chunks_cross_worker_boundaries() {
        let n = 5000;
        let values: Vec<u32> = (0..n as u32).collect();
        // One giant segment: equals the unsegmented scan.
        let mut heads = vec![false; n];
        heads[0] = true;
        let scanner = CpuScanner::new(4).with_chunk_elems(64);
        let got = scan_parallel(&values, &heads, &Sum, ScanKind::Inclusive, &scanner);
        assert_eq!(got, crate::serial::prefix_sum(&values));
    }

    #[test]
    fn every_element_its_own_segment_is_identity_map() {
        let values: Vec<i32> = (0..100).map(|i| 3 * i - 50).collect();
        let heads = vec![true; 100];
        let scanner = CpuScanner::new(3).with_chunk_elems(7);
        let got = scan_parallel(&values, &heads, &Sum, ScanKind::Inclusive, &scanner);
        assert_eq!(got, values);
    }

    #[test]
    fn max_segmented_scan() {
        let values = [3i32, 9, 1, 7, 2, 8];
        let heads = [false, false, false, true, false, false];
        let out = scan_serial(&values, &heads, &Max, ScanKind::Inclusive);
        assert_eq!(out, vec![3, 9, 9, 7, 7, 8]);
        let scanner = CpuScanner::new(2).with_chunk_elems(2);
        assert_eq!(
            scan_parallel(&values, &heads, &Max, ScanKind::Inclusive, &scanner),
            out
        );
    }

    #[test]
    fn streaming_segmented_matches_serial_across_batches_and_engines() {
        let n = 4_000;
        let values: Vec<i32> = (0..n as i32).map(|i| i % 23 - 11).collect();
        let heads = heads_every(n, 41);
        let expect = scan_serial(&values, &heads, &Sum, ScanKind::Inclusive);
        for engine in [
            Engine::Serial,
            Engine::Cpu(CpuScanner::new(3).with_chunk_elems(128)),
        ] {
            let plan = ScanPlan::new(crate::ScanSpec::inclusive(), engine, PlanHint::default());
            let mut session = plan.session(SegmentedOp::new(Sum));
            let mut got = Vec::new();
            let mut i = 0;
            // Irregular batch sizes, so segments straddle batch boundaries.
            for batch in [7usize, 613, 1, 999, 2380] {
                let end = (i + batch).min(n);
                got.extend(feed_segmented(
                    &mut session,
                    &values[i..end],
                    &heads[i..end],
                ));
                i = end;
            }
            assert_eq!(i, n);
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn streaming_tolerates_empty_batches_and_unit_segments() {
        // Empty feed() batches interleave freely with real ones, and
        // all-heads input (every segment of length 1) streams through the
        // carry protocol as an identity map.
        let values: Vec<i32> = (0..200).map(|i| 5 * i - 300).collect();
        let heads = [true; 200];
        for engine in [
            Engine::Serial,
            Engine::Cpu(CpuScanner::new(2).with_chunk_elems(16)),
        ] {
            let plan = ScanPlan::new(crate::ScanSpec::inclusive(), engine, PlanHint::default());
            let mut session = plan.session(SegmentedOp::new(Sum));
            let mut got = Vec::new();
            got.extend(feed_segmented(&mut session, &[], &[]));
            for chunk in values.chunks(33).zip(heads.chunks(33)) {
                got.extend(feed_segmented(&mut session, chunk.0, chunk.1));
                got.extend(feed_segmented::<i32, _>(&mut session, &[], &[]));
            }
            assert_eq!(got, values, "all-heads streaming is the identity map");
        }
    }

    #[test]
    fn segment_boundaries_exactly_on_batch_boundaries() {
        // Every batch starts with a head: the carry entering each feed()
        // call is immediately discarded by the flag, which is exactly the
        // path that breaks if the session forgets to consult the flag
        // before folding its carry in.
        let period = 50;
        let n = 20 * period;
        let values: Vec<i32> = (0..n as i32).map(|i| i % 17 - 8).collect();
        let heads = heads_every(n, period);
        let expect = scan_serial(&values, &heads, &Sum, ScanKind::Inclusive);
        for engine in [
            Engine::Serial,
            Engine::Cpu(CpuScanner::new(4).with_chunk_elems(32)),
        ] {
            let plan = ScanPlan::new(crate::ScanSpec::inclusive(), engine, PlanHint::default());
            let mut session = plan.session(SegmentedOp::new(Sum));
            let mut got = Vec::new();
            for start in (0..n).step_by(period) {
                let end = start + period;
                got.extend(feed_segmented(
                    &mut session,
                    &values[start..end],
                    &heads[start..end],
                ));
            }
            assert_eq!(
                got, expect,
                "head-aligned batches must not absorb stale carry"
            );
        }
    }

    #[test]
    fn streaming_segmented_survives_hostile_scheduling() {
        use gpu_sim::sched::{SchedPolicy, Scheduler};
        use std::sync::Arc;

        let n = 3_000;
        let values: Vec<i32> = (0..n as i32).map(|i| i % 29 - 14).collect();
        let heads = heads_every(n, 53);
        let expect = scan_serial(&values, &heads, &Sum, ScanKind::Inclusive);
        for seed in [3u64, 17, 90] {
            let scanner = CpuScanner::new(3)
                .with_chunk_elems(64)
                .with_scheduler(Arc::new(Scheduler::new(SchedPolicy::hostile(seed))));
            // One-shot path.
            let got = scan_parallel(&values, &heads, &Sum, ScanKind::Inclusive, &scanner);
            assert_eq!(got, expect, "one-shot under hostile seed {seed}");
            // Streaming path: same scanner inside a session, ragged batches.
            let plan = ScanPlan::new(
                crate::ScanSpec::inclusive(),
                Engine::Cpu(scanner),
                PlanHint::default(),
            );
            let mut session = plan.session(SegmentedOp::new(Sum));
            let mut got = Vec::new();
            let mut i = 0;
            for batch in [129usize, 1, 770, 64, 2036] {
                let end = (i + batch).min(n);
                got.extend(feed_segmented(
                    &mut session,
                    &values[i..end],
                    &heads[i..end],
                ));
                i = end;
            }
            assert_eq!(i, n);
            assert_eq!(got, expect, "streaming under hostile seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "inclusive order-1 tuple-1")]
    fn streaming_segmented_rejects_higher_order_sessions() {
        let spec = crate::ScanSpec::inclusive().with_order(2).unwrap();
        let plan = ScanPlan::new(spec, Engine::Serial, PlanHint::default());
        let mut session = plan.session(SegmentedOp::new(Sum));
        feed_segmented(&mut session, &[1i32], &[true]);
    }

    #[test]
    fn empty_input() {
        let scanner = CpuScanner::new(2);
        let got: Vec<i32> = scan_parallel(&[], &[], &Sum, ScanKind::Inclusive, &scanner);
        assert!(got.is_empty());
    }

    #[test]
    #[should_panic(expected = "one head flag per value")]
    fn mismatched_lengths_panic() {
        scan_serial(&[1i32, 2], &[true], &Sum, ScanKind::Inclusive);
    }

    #[test]
    fn try_feed_reports_errors_instead_of_panicking() {
        let plan = ScanPlan::new(
            crate::ScanSpec::inclusive(),
            Engine::Serial,
            PlanHint::default(),
        );
        let mut session = plan.session(SegmentedOp::new(Sum));
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        assert_eq!(
            try_feed_segmented_into(&mut session, &[1i32, 2], &[true], &mut scratch, &mut out),
            Err(SegmentedError::LengthMismatch {
                values: 2,
                heads: 1
            })
        );

        let spec = crate::ScanSpec::inclusive().with_order(2).unwrap();
        let plan = ScanPlan::new(spec, Engine::Serial, PlanHint::default());
        let mut session = plan.session(SegmentedOp::new(Sum));
        assert_eq!(
            try_feed_segmented_into(&mut session, &[1i32], &[true], &mut scratch, &mut out),
            Err(SegmentedError::UnsupportedSpec(spec))
        );
    }

    #[test]
    fn try_feed_error_leaves_session_state_untouched() {
        let plan = ScanPlan::new(
            crate::ScanSpec::inclusive(),
            Engine::Serial,
            PlanHint::default(),
        );
        let mut session = plan.session(SegmentedOp::new(Sum));
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        try_feed_segmented_into(
            &mut session,
            &[10i32, 20],
            &[true, false],
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(out, vec![10, 30]);
        // A rejected request feeds nothing: the open segment's carry
        // still applies to the next well-formed batch.
        let err = try_feed_segmented_into(&mut session, &[99i32], &[], &mut scratch, &mut out);
        assert!(err.is_err());
        assert!(out.is_empty(), "failed request leaves no partial output");
        try_feed_segmented_into(&mut session, &[5i32], &[false], &mut scratch, &mut out).unwrap();
        assert_eq!(out, vec![35], "carry unaffected by the rejected request");
    }

    #[test]
    fn try_feed_reuses_buffers_and_matches_feed_segmented() {
        let n = 2_000;
        let values: Vec<i32> = (0..n as i32).map(|i| i % 13 - 6).collect();
        let heads = heads_every(n, 29);
        let expect = scan_serial(&values, &heads, &Sum, ScanKind::Inclusive);
        let engine = Engine::Cpu(CpuScanner::new(3).with_chunk_elems(64));
        let plan = ScanPlan::new(crate::ScanSpec::inclusive(), engine, PlanHint::default());
        let mut session = plan.session(SegmentedOp::new(Sum));
        let batch = 250;
        let (mut scratch, mut out) = (Vec::with_capacity(batch), Vec::with_capacity(batch));
        let (scap, ocap) = (scratch.capacity(), out.capacity());
        let mut got = Vec::new();
        for start in (0..n).step_by(batch) {
            let end = (start + batch).min(n);
            try_feed_segmented_into(
                &mut session,
                &values[start..end],
                &heads[start..end],
                &mut scratch,
                &mut out,
            )
            .unwrap();
            got.extend_from_slice(&out);
        }
        assert_eq!(got, expect);
        // Pre-sized buffers are recycled, never regrown: the steady state
        // allocates nothing per request.
        assert_eq!(scratch.capacity(), scap);
        assert_eq!(out.capacity(), ocap);
    }
}
