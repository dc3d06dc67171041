//! Explicit SIMD and SWAR kernels behind the [`Sum`] and [`LinRec`]
//! chunk-kernel dispatch.
//!
//! [`crate::chunk_kernel`]'s scalar fast paths (the blocked Hillis–Steele
//! stride-1 kernel and the vertical lane-parallel tuple kernels) are
//! written to auto-vectorize, but the paper's bandwidth-roof claim should
//! not depend on the optimizer's mood. This module provides hand-written
//! `std::arch` kernels for the wrapping-integer `Sum` cases (and the
//! recurrence lane segments), selected by
//! the process-wide [`Isa`] resolved in [`crate::isa`]:
//!
//! | lanes | `Isa::Swar` | `Isa::Neon` | `Isa::Avx2` | `Isa::Avx512` |
//! |---|---|---|---|---|
//! | 1–2 byte elements, stride 1 | packed `u64` word | packed `u64` word | packed `u64` word | packed `u64` word |
//! | 4/8 byte elements, stride 1 | — | 128-bit in-register scan | 256-bit in-register scan | 512-bit in-register scan |
//! | 8 byte elements, `Sum` stride 1–8, order 2–8, chunk sweep pairs | — | — | 4 lane segments, 4×4 tiles | 8 lane segments, 8×8 tiles |
//! | 8 byte elements, `LinRec` stride 1, order 1–8, chunk sweep pairs | — | — | 2–3 groups of 4 lane segments, emulated 64-bit multiply | 1–4 groups of 8 lane segments, `vpmullq` |
//! | tuple rows of 8–64 bytes, a multiple of 8 | `u64` words in registers | `u64` words in registers | `u64` words in registers | `u64` words in registers |
//! | other tuple rows ≥ 16 bytes | 8-byte word strips | 16-byte strips | 32-byte strips | 64-byte strips |
//! | other tuple rows of 8–15 bytes | 8-byte word strips | 8-byte word strips | 8-byte word strips | 8-byte word strips |
//!
//! # The SWAR word format
//!
//! The narrow element types pack 8 (`u8`/`i8`) or 4 (`u16`/`i16`) lanes
//! into one little-endian `u64`, SingeliSort-style. A plain 64-bit add
//! would carry across lane boundaries, so lanes are added with the
//! *carry-suppressed* form
//!
//! ```text
//! add(a, b) = ((a & !H) + (b & !H)) ^ ((a ^ b) & H)
//! ```
//!
//! where `H` has only each lane's top bit set: the masked add computes
//! every lane's low bits (carries stop at the cleared top bit) and the
//! xor reconstitutes the top bit without a carry-out — exactly per-lane
//! wrapping addition. The in-word inclusive scan is then the shifted-add
//! ladder `x += x << 8w; x += x << 16w; …` (whole-lane shifts inject
//! zero lanes), and the carry of a finished word broadcasts to all lanes
//! of the next via `(x >> top) * 0x0101…01`.
//!
//! # The vertical tuple layout
//!
//! For tuple-size `s`, a span is a sequence of `s`-element *rows* and the
//! strided scan is an element-wise running sum of rows (Zhang, Wang &
//! Ross: `s` independent lanes live in `s` adjacent SIMD lanes, no
//! shuffles). Rows of at most 64 bytes (a multiple of 8) keep the running
//! row in registers, and an order-`q` cascade over them runs as `q`
//! chained order-1 sweeps over one fixed block of rows at a time. Wider
//! rows keep `q` state rows in memory and advance each with the same
//! element-wise row add, in vector-width strips with a scalar per-row
//! tail, so any `s` works; sub-vector rows (8–15 bytes) use one SWAR word
//! per strip instead.
//!
//! # Lane segments
//!
//! The stride-1 kernels above scan inside each vector, which pays off at
//! order 1 only: an order-`q` cascade would need the ladder `q` times. For
//! orders 2–8 of 8-byte integers, [`segment_lanes`] names a second layout
//! (the vertical, partitioned layout of Zhang, Wang & Ross): a span is
//! split into one segment per lane, `lanes x lanes` tiles are loaded
//! and transposed in registers so that each vector holds one position of
//! every segment, and one vertical add per level advances all segments
//! at once. At tuple size `s` a segment is a whole number of `lanes x s`
//! positions, so transposed vector `p` of a run of `s` tiles holds tuple
//! lane `p % s` of every segment; the `q x s` state vectors are stepped
//! over `s` tiles at a time, written out so that every lane index is a
//! constant. The totals sweep leaves each segment's zero-seeded end state;
//! the output sweep takes a seed per segment, transposes its outputs back
//! and writes full vectors (streaming, when the scan streams and the
//! destination is aligned to the vector width). The kernel is written once
//! over the lane width and the tuple size;
//! [`crate::chunk_kernel::SegmentHandoff`] describes how the carry algebra
//! joins the segments.
//!
//! A linear recurrence splits the same way ([`recurrence_segment_lanes`]):
//! each segment carries its window of the last `q` outputs, one step costs
//! a vector multiply and a vector add per coefficient, and `G` groups of
//! segments advance interleaved so that the multiplies' latencies overlap.
//! The companion-matrix power over one segment joins them.
//!
//! # One direction per sweep
//!
//! Every output sweep reads `src` and writes a separate `dst`
//! ([`stride1_from`], [`vertical_from`]); [`vertical_totals`] writes
//! nothing. Each output position is stored once and no input is
//! overwritten, which is what lets the stride-1 and small-row store
//! paths switch to non-temporal stores past [`nt_store_min_bytes`].
//!
//! # Determinism contract
//!
//! Every kernel is bit-identical to the scalar loop it replaces. All are
//! gated on [`ScanElement::IS_WRAPPING_INT`]: two's-complement wrapping
//! addition is exactly associative and sign-agnostic, which is what makes
//! both the reassociation and the signed/unsigned kernel sharing exact.
//! The same holds for the low 64 bits of a product, so the recurrence
//! segments' multiplies (`vpmullq`, or its AVX2 emulation) are exact too.
//! Floats and custom element types never enter (they keep the serial
//! association of [`crate::chunk_kernel`]).
//!
//! # Forced-path testing
//!
//! Every public function takes its [`Isa`] explicitly, so equivalence
//! tests can pin each family without touching the process-global
//! resolution ([`crate::isa::resolved`]) that the chunk kernels use. A
//! function returns `None`/`false` when the requested family has no
//! kernel for the shape (the caller keeps its scalar fallback):
//! [`Isa::Scalar`] always declines, [`Isa::Swar`] covers the 1–2-byte
//! stride-1 kernels and word-sized tuple rows, and the vector families
//! cover everything with rows of at least 8 bytes.
//!
//! [`Sum`]: crate::op::Sum
//! [`LinRec`]: crate::op::LinRec

use crate::element::ScanElement;
use crate::isa::Isa;

/// Scan output size in bytes at or above which the stride-1 and small-row
/// vertical kernels switch to non-temporal (cache-bypassing) stores on
/// x86-64.
///
/// A cacheable store to a line not in cache first *reads* the line
/// (write-allocate), so a streaming scan moves 3 bytes per output byte.
/// Streaming stores skip the ownership read. Below this threshold the
/// output may be consumed from cache by the caller, which non-temporal
/// stores would evict; 8 MiB sits safely past the private L2 of every
/// deployment target.
///
/// The CPU engine compares the whole scan's output once and its chunk
/// sweeps follow that decision (see [`streams`]).
///
/// Defined on every target (only the x86-64 store paths consult it, but
/// `cfg!`-guarded expressions still name it on other architectures).
///
/// This constant is the *default* only: the store paths consult
/// [`nt_store_min_bytes`], which an adaptive plan may retune at runtime
/// ([`crate::adapt`]). Retuning never changes results — it only moves the
/// point where stores switch from cacheable to streaming.
pub(crate) const NT_STORE_MIN_BYTES: usize = 8 << 20;

std::thread_local! {
    /// Per-thread scoped override; 0 means "no override, use
    /// [`NT_STORE_MIN_BYTES`]". Set only through [`nt_store_override`],
    /// which restores the previous value on drop — plans install it on the
    /// dispatching thread for the duration of a scan, so two concurrent
    /// plans with conflicting tuned thresholds each see their own value.
    static NT_STORE_TL: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };

    /// The streaming decision of the scan whose chunk sweeps this thread
    /// runs; `None` outside such a scan. Set only through
    /// [`scan_streams`].
    static SCAN_STREAMS: std::cell::Cell<Option<bool>> = const { std::cell::Cell::new(None) };
}

/// The scan output size in bytes at or above which stride-1/vertical
/// kernels use non-temporal stores, as seen by the *current thread*: an
/// active scoped override ([`nt_store_override`]), else the 8 MiB
/// default.
pub fn nt_store_min_bytes() -> usize {
    match NT_STORE_TL.with(std::cell::Cell::get) {
        0 => NT_STORE_MIN_BYTES,
        v => v,
    }
}

/// Installs a scoped, thread-local NT-store threshold override, returning
/// a guard that restores the previous state on drop. `usize::MAX`
/// effectively disables streaming stores. `0` means "no override" (the
/// guard is a no-op that leaves the thread on the 8 MiB default), so
/// callers can thread an optional per-plan value unconditionally.
///
/// Overrides nest: the guard restores whatever was active when it was
/// created. They are per-thread; an engine running workers reads the
/// threshold on the dispatching thread and hands its workers the
/// resulting per-scan decision instead (the [`crate::cpu`] engine does).
#[must_use = "the override lasts only while the guard is alive"]
pub fn nt_store_override(bytes: usize) -> NtStoreOverride {
    let prev = NT_STORE_TL.with(|tl| {
        let prev = tl.get();
        if bytes != 0 {
            tl.set(bytes);
        }
        prev
    });
    NtStoreOverride {
        prev,
        active: bytes != 0,
    }
}

/// Whether an out-of-place sweep writing `span_bytes` of output uses
/// non-temporal stores: the decision of the enclosing scan when the
/// engine made one ([`scan_streams`]), else whether the span itself
/// reaches [`nt_store_min_bytes`] — the rule for direct kernel calls and
/// for the serial engine, whose span is the whole scan.
pub(crate) fn streams(span_bytes: usize) -> bool {
    SCAN_STREAMS
        .with(std::cell::Cell::get)
        .unwrap_or_else(|| span_bytes >= nt_store_min_bytes())
}

/// Makes [`streams`] answer `stream` on the current thread until the
/// guard drops. A multi-worker engine decides once per scan, from the
/// scan's output size, and installs the decision on every worker, so
/// chunk sweeps stream exactly when the whole scan would.
#[must_use = "the decision lasts only while the guard is alive"]
pub(crate) fn scan_streams(stream: bool) -> ScanStreams {
    ScanStreams(SCAN_STREAMS.with(|tl| tl.replace(Some(stream))))
}

/// Guard of [`scan_streams`]; restores the previous decision on drop.
pub(crate) struct ScanStreams(Option<bool>);

impl Drop for ScanStreams {
    fn drop(&mut self) {
        SCAN_STREAMS.with(|tl| tl.set(self.0));
    }
}

/// Guard of a scoped [`nt_store_override`]; restores the previous
/// thread-local threshold when dropped.
#[derive(Debug)]
pub struct NtStoreOverride {
    prev: usize,
    active: bool,
}

impl Drop for NtStoreOverride {
    fn drop(&mut self) {
        if self.active {
            let prev = self.prev;
            NT_STORE_TL.with(|tl| tl.set(prev));
        }
    }
}

// --- Public dispatch ------------------------------------------------------

/// Stride-1 inclusive sum of `src` into `dst` seeded by `carry`
/// (`dst[j] = carry + src[0] + … + src[j]`, wrapping), on the kernel
/// family `isa`. Returns the final running total, or `None` when `isa`
/// has no kernel for this element type or the running CPU cannot execute
/// it (use the scalar path).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn stride1_from<T: ScanElement>(isa: Isa, src: &[T], dst: &mut [T], carry: T) -> Option<T> {
    assert_eq!(src.len(), dst.len(), "stride-1 kernel buffers must match");
    // `is_available` also guards soundness: the vector arms below jump into
    // `#[target_feature]` kernels, so an ISA the CPU cannot execute must
    // decline here rather than fault (callers may pass any `Isa`).
    if !T::IS_WRAPPING_INT || isa == Isa::Scalar || !isa.is_available() {
        return None;
    }
    let n = src.len();
    let (src, dst) = (src.as_ptr(), dst.as_mut_ptr());
    // SAFETY: both slices hold `n` elements and, as a shared and a unique
    // borrow, do not overlap (the streaming arms need that); every arm
    // runs only on an ISA the check above found available.
    unsafe {
        match std::mem::size_of::<T>() {
            1 | 2 if cfg!(target_endian = "little") => {
                let w = std::mem::size_of::<T>();
                let c0 = lane_bits_of(carry);
                let c = if w == 1 {
                    swar_scan::<1>(src.cast(), dst.cast(), n, c0)
                } else {
                    swar_scan::<2>(src.cast(), dst.cast(), n, c0)
                };
                Some(lane_of_bits(c))
            }
            #[cfg(target_arch = "x86_64")]
            4 if matches!(isa, Isa::Avx2 | Isa::Avx512) => {
                let nt = streams(n * 4);
                let c0 = lane_bits_of(carry) as u32;
                let c = match (isa, nt) {
                    (Isa::Avx2, false) => x86::scan_w4_avx2::<false>(src.cast(), dst.cast(), n, c0),
                    (Isa::Avx2, true) => x86::scan_w4_avx2::<true>(src.cast(), dst.cast(), n, c0),
                    (_, false) => x86::scan_w4_avx512::<false>(src.cast(), dst.cast(), n, c0),
                    (_, true) => x86::scan_w4_avx512::<true>(src.cast(), dst.cast(), n, c0),
                };
                Some(lane_of_bits(u64::from(c)))
            }
            #[cfg(target_arch = "x86_64")]
            8 if matches!(isa, Isa::Avx2 | Isa::Avx512) => {
                let nt = streams(n * 8);
                let c0 = lane_bits_of(carry);
                let c = match (isa, nt) {
                    (Isa::Avx2, false) => x86::scan_w8_avx2::<false>(src.cast(), dst.cast(), n, c0),
                    (Isa::Avx2, true) => x86::scan_w8_avx2::<true>(src.cast(), dst.cast(), n, c0),
                    (_, false) => x86::scan_w8_avx512::<false>(src.cast(), dst.cast(), n, c0),
                    (_, true) => x86::scan_w8_avx512::<true>(src.cast(), dst.cast(), n, c0),
                };
                Some(lane_of_bits(c))
            }
            #[cfg(target_arch = "aarch64")]
            4 if isa == Isa::Neon => {
                let c0 = lane_bits_of(carry) as u32;
                let c = arm::scan_w4_neon(src.cast(), dst.cast(), n, c0);
                Some(lane_of_bits(u64::from(c)))
            }
            #[cfg(target_arch = "aarch64")]
            8 if isa == Isa::Neon => {
                let c0 = lane_bits_of(carry);
                let c = arm::scan_w8_neon(src.cast(), dst.cast(), n, c0);
                Some(lane_of_bits(c))
            }
            _ => None,
        }
    }
}

/// Vertical (tuple-row) order-`q` cascade of `src` into `dst`, seeded by
/// and updating the `q x s` row-major `state` — the SIMD form of
/// [`crate::chunk_kernel`]'s vertical kernels, valid for spans whose
/// global base offset is a multiple of `s`. Returns `false` when `isa`
/// has no kernel for this shape or is unavailable on the running CPU
/// (use the scalar path).
///
/// # Panics
///
/// Panics if the slices differ in length, `s` is zero, or `state.len()`
/// is not a positive multiple of `s`.
pub fn vertical_from<T: ScanElement>(
    isa: Isa,
    src: &[T],
    dst: &mut [T],
    s: usize,
    state: &mut [T],
    exclusive: bool,
) -> bool {
    assert_eq!(src.len(), dst.len(), "vertical kernel buffers must match");
    check_vertical(s, state.len());
    let (rows, q) = (src.len() / s, state.len() / s);
    let op = VertOp::From {
        src: src.as_ptr().cast(),
        dst: dst.as_mut_ptr().cast(),
        exclusive,
    };
    if !vert_dispatch::<T>(isa, op, rows, s, state.as_mut_ptr().cast(), q) {
        return false;
    }
    let done = rows * s;
    for (l, (&x, d)) in src[done..].iter().zip(&mut dst[done..]).enumerate() {
        *d = tail_lane(state, s, l, x, exclusive);
    }
    true
}

/// Totals-only form of [`vertical_from`]: advances `state` over `src`
/// without writing outputs (the single-pass publish sweep). Returns
/// `false` when `isa` has no kernel for this shape or is unavailable on
/// the running CPU.
///
/// # Panics
///
/// Panics if `s` is zero or `state.len()` is not a positive multiple of
/// `s`.
pub fn vertical_totals<T: ScanElement>(isa: Isa, src: &[T], s: usize, state: &mut [T]) -> bool {
    check_vertical(s, state.len());
    let (rows, q) = (src.len() / s, state.len() / s);
    let op = VertOp::Totals {
        src: src.as_ptr().cast(),
    };
    if !vert_dispatch::<T>(isa, op, rows, s, state.as_mut_ptr().cast(), q) {
        return false;
    }
    let done = rows * s;
    for (l, &x) in src[done..].iter().enumerate() {
        tail_lane(state, s, l, x, false);
    }
    true
}

/// Lane count of `isa`'s segmented sum sweeps (stride 1 and tuple sizes
/// up to 8) for `T`, or `None` when the family has none (or the running
/// CPU cannot execute it): 8 under AVX-512 and 4 under AVX2, for 8-byte
/// wrapping integers only.
///
/// These sweeps split a span into one segment per lane and advance every
/// segment's order-`q` state at once: `lanes x lanes` tiles are loaded,
/// transposed in registers so that each vector holds one position (one
/// tuple lane) of every segment, and advanced with vertical adds.
/// [`crate::chunk_kernel::SegmentHandoff`] describes how the chunk
/// kernels join the segments.
pub fn segment_lanes<T: ScanElement>(isa: Isa) -> Option<usize> {
    if !T::IS_WRAPPING_INT || std::mem::size_of::<T>() != 8 || !isa.is_available() {
        return None;
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => Some(8),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => Some(4),
        _ => None,
    }
}

/// Checks the shape of an order-`Q` segmented sweep at tuple size `S` in
/// `G` groups of `lanes` lanes (`None`: the family has no such kernels):
/// `src` is `G x lanes` segments of `seg` elements, `seg` a multiple of
/// `lanes x S`, and `state` a `Q x S x (G x lanes)` matrix with `Q` and
/// `S` in 1..=8. Returns `lanes`.
fn check_segments<const Q: usize, const G: usize, const S: usize>(
    lanes: Option<usize>,
    src_len: usize,
    seg: usize,
    state_len: usize,
) -> usize {
    let lanes = lanes.expect("the family has segment kernels for this type");
    let segments = G * lanes;
    assert!(
        seg.is_multiple_of(lanes * S) && src_len == segments * seg,
        "segments must be whole tiles ({src_len} elements in {segments} segments of {seg})"
    );
    assert!(
        (1..=8).contains(&Q) && (1..=8).contains(&S) && state_len == Q * S * segments,
        "segment state must be {Q} x {S} x {segments} with {Q} and {S} in 1..=8 ({state_len})"
    );
    lanes
}

/// Zero-seeded order-`Q` end states of the `lanes` consecutive segments
/// of `seg` elements that make up `src`, at tuple size `S`, written
/// level-major into `ends` (`ends[(i * S + l) * lanes + j]` is segment
/// `j`'s order-`(i+1)` total of tuple lane `l`). Each segment starts at
/// tuple lane 0.
///
/// # Panics
///
/// Panics unless [`segment_lanes`]`(isa)` is `Some(lanes)`, `src` is
/// `lanes` segments of `seg` elements with `seg` a multiple of `lanes x
/// S`, and `ends` holds `Q x S x lanes` words with `Q` and `S` in 1..=8.
pub(crate) fn segment_totals<T: ScanElement, const Q: usize, const S: usize>(
    isa: Isa,
    src: &[T],
    seg: usize,
    ends: &mut [T],
) {
    check_segments::<Q, 1, S>(segment_lanes::<T>(isa), src.len(), seg, ends.len());
    let (src, ends) = (src.as_ptr().cast::<u64>(), ends.as_mut_ptr().cast::<u64>());
    // SAFETY: the shapes were checked above and the family is available
    // (`segment_lanes`).
    #[cfg(target_arch = "x86_64")]
    unsafe {
        match isa {
            Isa::Avx512 => x86::segment_totals_avx512::<Q, S>(src, seg, ends),
            _ => x86::segment_totals_avx2::<Q, S>(src, seg, ends),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("no segment kernels on this target ({src:?}, {ends:?})");
}

/// Order-`Q` outputs at tuple size `S` of the `lanes` segments of `seg`
/// elements that make up `src`, written to `dst`. `state` (`Q x S x
/// lanes`, level-major as in [`segment_totals`]) holds each segment's
/// seed and receives its end state. With `stream`, and a `dst` aligned to
/// the vector width, full vectors go out as non-temporal stores.
///
/// # Panics
///
/// As [`segment_totals`], and if the slices differ in length.
pub(crate) fn segment_from<T: ScanElement, const Q: usize, const S: usize>(
    isa: Isa,
    src: &[T],
    dst: &mut [T],
    seg: usize,
    state: &mut [T],
    exclusive: bool,
    stream: bool,
) {
    assert_eq!(src.len(), dst.len(), "segment kernel buffers must match");
    let lanes = check_segments::<Q, 1, S>(segment_lanes::<T>(isa), src.len(), seg, state.len());
    let nt = stream && (dst.as_ptr() as usize).is_multiple_of(lanes * 8);
    let src = src.as_ptr().cast::<u64>();
    let (dst, state) = (
        dst.as_mut_ptr().cast::<u64>(),
        state.as_mut_ptr().cast::<u64>(),
    );
    // SAFETY: as in `segment_totals`; `dst` holds as many elements as
    // `src` and, with `nt`, is aligned to the vector width.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use x86::{segment_from_avx2 as avx2, segment_from_avx512 as avx512};
        match (isa, exclusive, nt) {
            (Isa::Avx512, false, false) => avx512::<Q, S, false, false>(src, dst, seg, state),
            (Isa::Avx512, false, true) => avx512::<Q, S, false, true>(src, dst, seg, state),
            (Isa::Avx512, true, false) => avx512::<Q, S, true, false>(src, dst, seg, state),
            (Isa::Avx512, true, true) => avx512::<Q, S, true, true>(src, dst, seg, state),
            (_, false, false) => avx2::<Q, S, false, false>(src, dst, seg, state),
            (_, false, true) => avx2::<Q, S, false, true>(src, dst, seg, state),
            (_, true, false) => avx2::<Q, S, true, false>(src, dst, seg, state),
            (_, true, true) => avx2::<Q, S, true, true>(src, dst, seg, state),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!(
        "no segment kernels on this target ({src:?}, {dst:?}, {state:?}, {exclusive}, {nt})"
    );
}

/// Lane count of `isa`'s segmented stride-1 recurrence sweeps for `T`, or
/// `None` when the family has none (or the running CPU cannot execute
/// it): 8 under AVX-512 with its 64-bit multiply (`avx512dq`) and 4 under
/// AVX2, which forms the low 64 bits of a product from three 32-bit
/// multiplies; 8-byte wrapping integers only.
///
/// These are the segments of [`segment_lanes`] for a linear recurrence:
/// each step of every segment's window costs one vector multiply and one
/// vector add per coefficient, and `G` groups of `lanes` segments advance
/// interleaved so that their multiply latencies overlap.
pub fn recurrence_segment_lanes<T: ScanElement>(isa: Isa) -> Option<usize> {
    if !T::IS_WRAPPING_INT || std::mem::size_of::<T>() != 8 || !isa.is_available() {
        return None;
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if std::arch::is_x86_feature_detected!("avx512dq") => Some(8),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => Some(4),
        _ => None,
    }
}

/// Zero-seeded end windows of the `G x lanes` consecutive segments of
/// `seg` elements that make up `src`, under the recurrence with
/// coefficients `coeffs`, written level-major into `ends`
/// (`ends[i * segments + j]` is `x_{end-1-i}` of segment `j`).
///
/// # Panics
///
/// Panics unless [`recurrence_segment_lanes`]`(isa)` is `Some(lanes)`,
/// `src` is `G x lanes` segments of `seg` elements with `seg` a multiple
/// of `lanes`, and `ends` holds `Q x G x lanes` words.
pub(crate) fn recurrence_segment_totals<T: ScanElement, const Q: usize, const G: usize>(
    isa: Isa,
    coeffs: &[T; Q],
    src: &[T],
    seg: usize,
    ends: &mut [T],
) {
    let lanes = recurrence_segment_lanes::<T>(isa);
    check_segments::<Q, G, 1>(lanes, src.len(), seg, ends.len());
    let c = coeffs.map(lane_bits_of);
    let (src, ends) = (src.as_ptr().cast::<u64>(), ends.as_mut_ptr().cast::<u64>());
    // SAFETY: the shapes were checked above and the family is available
    // (`recurrence_segment_lanes`).
    #[cfg(target_arch = "x86_64")]
    unsafe {
        match isa {
            Isa::Avx512 => x86::rec_totals_avx512::<Q, G>(&c, src, seg, ends),
            _ => x86::rec_totals_avx2::<Q, G>(&c, src, seg, ends),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("no recurrence segments on this target ({c:?}, {src:?}, {ends:?})");
}

/// Recurrence outputs of the `G x lanes` segments of `seg` elements that
/// make up `src`, written to `dst`. `state` (`Q x G x lanes`,
/// level-major) holds each segment's seed window and receives its end
/// window. With `stream`, and a `dst` aligned to the vector width, full
/// vectors go out as non-temporal stores.
///
/// # Panics
///
/// As [`recurrence_segment_totals`], and if the slices differ in length.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recurrence_segment_from<T: ScanElement, const Q: usize, const G: usize>(
    isa: Isa,
    coeffs: &[T; Q],
    src: &[T],
    dst: &mut [T],
    seg: usize,
    state: &mut [T],
    exclusive: bool,
    stream: bool,
) {
    assert_eq!(src.len(), dst.len(), "segment kernel buffers must match");
    let lanes = recurrence_segment_lanes::<T>(isa);
    let lanes = check_segments::<Q, G, 1>(lanes, src.len(), seg, state.len());
    let nt = stream && (dst.as_ptr() as usize).is_multiple_of(lanes * 8);
    let c = coeffs.map(lane_bits_of);
    let src = src.as_ptr().cast::<u64>();
    let (dst, state) = (
        dst.as_mut_ptr().cast::<u64>(),
        state.as_mut_ptr().cast::<u64>(),
    );
    // SAFETY: as in `recurrence_segment_totals`; `dst` holds as many
    // elements as `src` and, with `nt`, is aligned to the vector width.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use x86::{rec_from_avx2 as avx2, rec_from_avx512 as avx512};
        match (isa, exclusive, nt) {
            (Isa::Avx512, false, false) => avx512::<Q, G, false, false>(&c, src, dst, seg, state),
            (Isa::Avx512, false, true) => avx512::<Q, G, false, true>(&c, src, dst, seg, state),
            (Isa::Avx512, true, false) => avx512::<Q, G, true, false>(&c, src, dst, seg, state),
            (Isa::Avx512, true, true) => avx512::<Q, G, true, true>(&c, src, dst, seg, state),
            (_, false, false) => avx2::<Q, G, false, false>(&c, src, dst, seg, state),
            (_, false, true) => avx2::<Q, G, false, true>(&c, src, dst, seg, state),
            (_, true, false) => avx2::<Q, G, true, false>(&c, src, dst, seg, state),
            (_, true, true) => avx2::<Q, G, true, true>(&c, src, dst, seg, state),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!(
        "no recurrence segments on this target ({c:?}, {src:?}, {dst:?}, {state:?}, {exclusive}, {nt})"
    );
}

fn check_vertical(s: usize, state_len: usize) {
    assert!(s > 0, "stride must be positive");
    assert!(
        state_len > 0 && state_len.is_multiple_of(s),
        "vertical state must be a positive q x s matrix ({state_len} % {s})"
    );
}

/// One lane of the partial final row every vertical wrapper finishes with
/// (lane `l` is the position's offset into the row, still base-aligned):
/// advances lane `l` of the `q x s` row-major `state` by `x` and returns
/// the lane's output — the top row before the update when `exclusive`,
/// after it otherwise.
fn tail_lane<T: ScanElement>(state: &mut [T], s: usize, l: usize, x: T, exclusive: bool) -> T {
    let top = state.len() - s;
    let out_prev = state[top + l];
    state[l] = state[l].add(x);
    for i in (s..state.len()).step_by(s) {
        state[i + l] = state[i + l].add(state[i - s + l]);
    }
    if exclusive {
        out_prev
    } else {
        state[top + l]
    }
}

/// Which vertical sweep to run (full rows only; tails stay in the safe
/// wrappers).
#[derive(Clone, Copy)]
enum VertOp {
    From {
        src: *const u8,
        dst: *mut u8,
        exclusive: bool,
    },
    Totals {
        src: *const u8,
    },
}

/// Routes a vertical sweep to the widest family kernel `isa` admits for
/// rows of `s * size_of::<T>()` bytes. Rows of 8–15 bytes use the SWAR
/// word family under every non-scalar ISA; smaller rows decline.
fn vert_dispatch<T: ScanElement>(
    isa: Isa,
    op: VertOp,
    rows: usize,
    s: usize,
    state: *mut u8,
    q: usize,
) -> bool {
    // As in `stride1_ptr`, `is_available` keeps unavailable vector families
    // from reaching their `#[target_feature]` kernels.
    if !T::IS_WRAPPING_INT || isa == Isa::Scalar || !isa.is_available() {
        return false;
    }
    let b = s * std::mem::size_of::<T>();
    if b < 8 {
        return false;
    }
    // Small rows: the running row fits in registers, turning the
    // row-to-row dependency into a 1-cycle add chain (the strip kernels
    // below chain through memory, which is store-to-load latency bound
    // when a row is only a few elements).
    if b <= SMALL_ROW_MAX_BYTES && b.is_multiple_of(8) {
        return small_dispatch(std::mem::size_of::<T>(), op, rows, b, state, q);
    }
    macro_rules! go {
        ($runner:ident) => {
            match std::mem::size_of::<T>() {
                1 => unsafe { $runner::<1>(op, rows, b, state, q) },
                2 => unsafe { $runner::<2>(op, rows, b, state, q) },
                4 => unsafe { $runner::<4>(op, rows, b, state, q) },
                8 => unsafe { $runner::<8>(op, rows, b, state, q) },
                _ => return false,
            }
        };
    }
    match isa {
        Isa::Scalar => return false,
        _ if b < 16 => go!(run_vert_swar),
        Isa::Swar => go!(run_vert_swar),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => go!(run_vert_avx2),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => go!(run_vert_avx512),
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => go!(run_vert_neon),
        // A vector family this target cannot even compile kernels for
        // (e.g. NEON on x86): decline, callers keep the scalar path.
        #[allow(unreachable_patterns)]
        _ => return false,
    }
    true
}

// --- Scalar lane helpers ---------------------------------------------------

/// The wrapping-int element's bits as a `u64` lane value (low
/// `size_of::<T>()` bytes).
fn lane_bits_of<T: ScanElement>(v: T) -> u64 {
    // SAFETY: gated on `T::IS_WRAPPING_INT`, so T is one of the primitive
    // integer types of the matched width.
    unsafe {
        match std::mem::size_of::<T>() {
            1 => u64::from(std::mem::transmute_copy::<T, u8>(&v)),
            2 => u64::from(std::mem::transmute_copy::<T, u16>(&v)),
            4 => u64::from(std::mem::transmute_copy::<T, u32>(&v)),
            8 => std::mem::transmute_copy::<T, u64>(&v),
            w => unreachable!("unsupported lane width {w}"),
        }
    }
}

/// Inverse of [`lane_bits_of`].
fn lane_of_bits<T: ScanElement>(bits: u64) -> T {
    // SAFETY: as in `lane_bits_of`.
    unsafe {
        match std::mem::size_of::<T>() {
            1 => std::mem::transmute_copy::<u8, T>(&(bits as u8)),
            2 => std::mem::transmute_copy::<u16, T>(&(bits as u16)),
            4 => std::mem::transmute_copy::<u32, T>(&(bits as u32)),
            8 => std::mem::transmute_copy::<u64, T>(&bits),
            w => unreachable!("unsupported lane width {w}"),
        }
    }
}

/// Loads one width-`W` lane from a byte pointer (native byte order).
#[inline(always)]
unsafe fn lane_load<const W: usize>(p: *const u8) -> u64 {
    match W {
        1 => u64::from(*p),
        2 => u64::from(p.cast::<u16>().read_unaligned()),
        4 => u64::from(p.cast::<u32>().read_unaligned()),
        8 => p.cast::<u64>().read_unaligned(),
        _ => unreachable!(),
    }
}

/// Stores one width-`W` lane to a byte pointer (native byte order).
#[inline(always)]
unsafe fn lane_store<const W: usize>(p: *mut u8, v: u64) {
    match W {
        1 => *p = v as u8,
        2 => p.cast::<u16>().write_unaligned(v as u16),
        4 => p.cast::<u32>().write_unaligned(v as u32),
        8 => p.cast::<u64>().write_unaligned(v),
        _ => unreachable!(),
    }
}

/// Width-`W` wrapping lane addition on `u64`-held lane values.
#[inline(always)]
fn lane_add<const W: usize>(a: u64, b: u64) -> u64 {
    match W {
        1 => u64::from((a as u8).wrapping_add(b as u8)),
        2 => u64::from((a as u16).wrapping_add(b as u16)),
        4 => u64::from((a as u32).wrapping_add(b as u32)),
        8 => a.wrapping_add(b),
        _ => unreachable!(),
    }
}

// --- SWAR packed-word kernels ----------------------------------------------

/// Per-lane top-bit mask for width-`W` lanes packed in a `u64`.
#[inline(always)]
const fn swar_high_mask<const W: usize>() -> u64 {
    match W {
        1 => 0x8080_8080_8080_8080,
        2 => 0x8000_8000_8000_8000,
        4 => 0x8000_0000_8000_0000,
        _ => 0, // W == 8: unused, plain wrapping add
    }
}

/// Per-lane wrapping add of two packed words (the carry-suppressed form;
/// see the module docs for why carries cannot cross lanes).
#[inline(always)]
fn swar_word_add<const W: usize>(a: u64, b: u64) -> u64 {
    if W == 8 {
        return a.wrapping_add(b);
    }
    let h = swar_high_mask::<W>();
    ((a & !h).wrapping_add(b & !h)) ^ ((a ^ b) & h)
}

/// Stride-1 inclusive scan of `n` width-`W` lanes (`W` = 1 or 2) with the
/// packed-word ladder; little-endian only (lane order == byte order).
/// `carry0` is the seed lane value; returns the final running total.
///
/// # Safety
///
/// `src`/`dst` valid for `n * W` bytes; equal or non-overlapping.
unsafe fn swar_scan<const W: usize>(src: *const u8, dst: *mut u8, n: usize, carry0: u64) -> u64 {
    debug_assert!(W == 1 || W == 2);
    let lanes = 8 / W;
    let bcast: u64 = if W == 1 {
        0x0101_0101_0101_0101
    } else {
        0x0001_0001_0001_0001
    };
    let top_shift = (64 - 8 * W) as u32;
    let mut cb = carry0.wrapping_mul(bcast);
    let words = n / lanes;
    for w in 0..words {
        let x = src.add(w * 8).cast::<u64>().read_unaligned();
        let mut p = swar_word_add::<W>(x, x << (8 * W));
        p = swar_word_add::<W>(p, p << (16 * W));
        if W == 1 {
            p = swar_word_add::<W>(p, p << 32);
        }
        p = swar_word_add::<W>(p, cb);
        dst.add(w * 8).cast::<u64>().write_unaligned(p);
        cb = (p >> top_shift).wrapping_mul(bcast);
    }
    let mut c = cb >> top_shift; // any lane; all equal
    for j in words * lanes..n {
        c = lane_add::<W>(c, lane_load::<W>(src.add(j * W)));
        lane_store::<W>(dst.add(j * W), c);
    }
    c
}

// --- Register-resident small-row vertical sweeps ----------------------------

/// Largest row (bytes) the register-resident sweep covers: 8 `u64` lane
/// words. Past this, a row has enough elements that the strip kernels'
/// store-to-load row chain is amortized.
const SMALL_ROW_MAX_BYTES: usize = 64;

/// `u64` words in the fixed block an order-`q > 1` small-row sweep scans
/// level by level (4 KiB: L1-resident, and on the stack).
const SMALL_BLOCK_WORDS: usize = 512;

/// One lane-word store of the small-row sweep. With `NT` (x86-64 only,
/// dispatcher-gated) it is a `movnti` streaming store — the destination
/// must then be 8-byte aligned, and the dispatcher ends the sweep with an
/// `sfence`.
#[inline(always)]
unsafe fn small_store<const NT: bool>(p: *mut u8, v: u64) {
    #[cfg(target_arch = "x86_64")]
    if NT {
        std::arch::x86_64::_mm_stream_si64(p.cast::<i64>(), v as i64);
        return;
    }
    p.cast::<u64>().write_unaligned(v);
}

/// Order-1 vertical sweep with the running row held in `WORDS` `u64` lane
/// words (per-lane adds via [`swar_word_add`], which is a plain add for
/// `W == 8`). `src` may equal `dst` (each word is loaded before its
/// position is stored): above order 1 the dispatcher re-scans its stack
/// block into itself.
///
/// # Safety
///
/// `src`/`dst` valid for `rows * WORDS * 8` bytes and equal or
/// non-overlapping; `state` valid for `WORDS * 8` bytes, overlapping
/// neither. With `NT`, `dst` must be 8-byte aligned and distinct from
/// `src` (the dispatcher only sets it for the sweep into the destination
/// past the non-temporal threshold, where eliding the destination's
/// read-for-ownership pays like it does on the stride-1 kernels).
unsafe fn small_from<const W: usize, const WORDS: usize, const NT: bool>(
    src: *const u8,
    dst: *mut u8,
    rows: usize,
    state: *mut u8,
    exclusive: bool,
) {
    let b = WORDS * 8;
    let mut acc = [0u64; WORDS];
    for (k, a) in acc.iter_mut().enumerate() {
        *a = state.add(k * 8).cast::<u64>().read_unaligned();
    }
    for r in 0..rows {
        let srow = src.add(r * b);
        let drow = dst.add(r * b);
        #[cfg(target_arch = "x86_64")]
        if NT {
            // Streaming stores starve the hardware prefetcher's load
            // stream here exactly as they do on the stride-1 kernels.
            x86::prefetch_src(srow);
        }
        for (k, a) in acc.iter_mut().enumerate() {
            let x = srow.add(k * 8).cast::<u64>().read_unaligned();
            if exclusive {
                small_store::<NT>(drow.add(k * 8), *a);
                *a = swar_word_add::<W>(*a, x);
            } else {
                *a = swar_word_add::<W>(*a, x);
                small_store::<NT>(drow.add(k * 8), *a);
            }
        }
    }
    for (k, a) in acc.iter().enumerate() {
        state.add(k * 8).cast::<u64>().write_unaligned(*a);
    }
}

/// Totals-only form of [`small_from`].
///
/// # Safety
///
/// As [`small_from`], without a destination.
unsafe fn small_totals<const W: usize, const WORDS: usize>(
    src: *const u8,
    rows: usize,
    state: *mut u8,
) {
    let b = WORDS * 8;
    let mut acc = [0u64; WORDS];
    for (k, a) in acc.iter_mut().enumerate() {
        *a = state.add(k * 8).cast::<u64>().read_unaligned();
    }
    for r in 0..rows {
        for (k, a) in acc.iter_mut().enumerate() {
            let x = src.add(r * b + k * 8).cast::<u64>().read_unaligned();
            *a = swar_word_add::<W>(*a, x);
        }
    }
    for (k, a) in acc.iter().enumerate() {
        state.add(k * 8).cast::<u64>().write_unaligned(*a);
    }
}

/// Routes a small-row sweep to the `(W, WORDS)` monomorphization (const
/// word count keeps the accumulators in registers). `false` if the shape
/// has no such kernel.
///
/// Order `q` runs as `q` chained order-1 sweeps: level `i` of the cascade
/// is the inclusive order-1 scan of level `i - 1` seeded with state row
/// `i`, and the exclusive output is the exclusive order-1 scan of level
/// `q - 2` seeded with the top row. Above order 1 the rows go through one
/// fixed block at a time: level 0 reads the source into the block, levels
/// `1..q - 1` re-scan the block in place, and the last level writes the
/// destination (or, for totals, only advances the top row), so the
/// destination is written exactly once.
fn small_dispatch(
    width: usize,
    op: VertOp,
    rows: usize,
    b: usize,
    state: *mut u8,
    q: usize,
) -> bool {
    /// # Safety
    ///
    /// The buffers `op` names are valid for `rows` rows of `WORDS * 8`
    /// bytes (equal or non-overlapping) and `state` for `q` such rows,
    /// overlapping none of them.
    #[inline(always)]
    unsafe fn run<const W: usize, const WORDS: usize>(
        op: VertOp,
        rows: usize,
        state: *mut u8,
        q: usize,
    ) {
        let b = WORDS * 8;
        let top = state.add((q - 1) * b);
        // `movnti` needs an 8-aligned destination and there is no
        // row-granular way to align first (rows advance in `b`-byte
        // strides), so unaligned destinations keep cacheable stores.
        let nt = match op {
            VertOp::From { dst, .. } => {
                cfg!(target_arch = "x86_64")
                    && streams(rows * b)
                    && (dst as usize).is_multiple_of(8)
            }
            _ => false,
        };
        let mut block = std::mem::MaybeUninit::<[u64; SMALL_BLOCK_WORDS]>::uninit();
        let per = if q == 1 {
            rows
        } else {
            SMALL_BLOCK_WORDS / WORDS
        };
        let (VertOp::From { src, .. } | VertOp::Totals { src }) = op;
        let buf = block.as_mut_ptr().cast::<u8>();
        let mut r = 0;
        while r < rows {
            let n = per.min(rows - r);
            let mut level = src.add(r * b);
            for i in 0..q - 1 {
                small_from::<W, WORDS, false>(level, buf, n, state.add(i * b), false);
                level = buf;
            }
            match op {
                VertOp::From { dst, exclusive, .. } if nt => {
                    small_from::<W, WORDS, true>(level, dst.add(r * b), n, top, exclusive)
                }
                VertOp::From { dst, exclusive, .. } => {
                    small_from::<W, WORDS, false>(level, dst.add(r * b), n, top, exclusive)
                }
                VertOp::Totals { .. } => small_totals::<W, WORDS>(level, n, top),
            }
            r += n;
        }
        #[cfg(target_arch = "x86_64")]
        if nt {
            std::arch::x86_64::_mm_sfence();
        }
    }
    macro_rules! by_words {
        ($W:expr) => {
            // SAFETY: caller (the safe vertical wrappers) validated the
            // buffer shapes; `b / 8` words of 8 bytes cover each row.
            match b / 8 {
                1 => unsafe { run::<$W, 1>(op, rows, state, q) },
                2 => unsafe { run::<$W, 2>(op, rows, state, q) },
                3 => unsafe { run::<$W, 3>(op, rows, state, q) },
                4 => unsafe { run::<$W, 4>(op, rows, state, q) },
                5 => unsafe { run::<$W, 5>(op, rows, state, q) },
                6 => unsafe { run::<$W, 6>(op, rows, state, q) },
                7 => unsafe { run::<$W, 7>(op, rows, state, q) },
                8 => unsafe { run::<$W, 8>(op, rows, state, q) },
                _ => return false,
            }
        };
    }
    match width {
        1 => by_words!(1),
        2 => by_words!(2),
        4 => by_words!(4),
        8 => by_words!(8),
        _ => return false,
    }
    true
}

// --- Row primitives and the vertical sweeps --------------------------------

/// Element-wise row operations a vector family provides; every method is
/// `#[inline(always)]` so the `#[target_feature]` entry wrappers compile
/// them with the family's features enabled.
trait RowOps {
    /// `dst[l] = a[l] + b[l]` for `bytes / W` width-`W` lanes. `dst` may
    /// alias `a` or `b` (each strip is fully loaded before it is stored).
    ///
    /// # Safety
    ///
    /// Pointers valid for `bytes` bytes; the family's ISA available.
    unsafe fn add2<const W: usize>(dst: *mut u8, a: *const u8, b: *const u8, bytes: usize);
}

/// Scalar remainder shared by every family's strip loops.
#[inline(always)]
unsafe fn scalar_add2<const W: usize>(
    dst: *mut u8,
    a: *const u8,
    b: *const u8,
    mut off: usize,
    bytes: usize,
) {
    while off < bytes {
        let v = lane_add::<W>(lane_load::<W>(a.add(off)), lane_load::<W>(b.add(off)));
        lane_store::<W>(dst.add(off), v);
        off += W;
    }
}

/// The SWAR row family: 8-byte packed-word strips. Works on every target
/// and serves sub-vector rows (8–15 bytes) under the vector ISAs too.
struct SwarRows;

impl RowOps for SwarRows {
    #[inline(always)]
    unsafe fn add2<const W: usize>(dst: *mut u8, a: *const u8, b: *const u8, bytes: usize) {
        let mut off = 0;
        while off + 8 <= bytes {
            let va = a.add(off).cast::<u64>().read_unaligned();
            let vb = b.add(off).cast::<u64>().read_unaligned();
            dst.add(off)
                .cast::<u64>()
                .write_unaligned(swar_word_add::<W>(va, vb));
            off += 8;
        }
        scalar_add2::<W>(dst, a, b, off, bytes);
    }
}

/// Full-row vertical cascade, reading `src` and writing `dst`
/// (the tail rows stay in the safe wrappers).
///
/// Order-1 sweeps use the output itself as the running row (each row is
/// the previous output row plus the matching input row — the same left
/// association, one load and one store per element); higher orders walk
/// the `q` state rows per input row.
#[inline(always)]
unsafe fn vertical_from_rows<F: RowOps, const W: usize>(
    src: *const u8,
    dst: *mut u8,
    rows: usize,
    b: usize,
    state: *mut u8,
    q: usize,
    exclusive: bool,
) {
    let top = state.add((q - 1) * b);
    if q == 1 {
        if rows == 0 {
            return;
        }
        if exclusive {
            std::ptr::copy_nonoverlapping(state.cast_const(), dst, b);
            for r in 1..rows {
                F::add2::<W>(
                    dst.add(r * b),
                    dst.add((r - 1) * b),
                    src.add((r - 1) * b),
                    b,
                );
            }
            F::add2::<W>(state, dst.add((rows - 1) * b), src.add((rows - 1) * b), b);
        } else {
            F::add2::<W>(dst, state.cast_const(), src, b);
            for r in 1..rows {
                F::add2::<W>(dst.add(r * b), dst.add((r - 1) * b), src.add(r * b), b);
            }
            std::ptr::copy_nonoverlapping(dst.add((rows - 1) * b).cast_const(), state, b);
        }
        return;
    }
    for r in 0..rows {
        let srow = src.add(r * b);
        let drow = dst.add(r * b);
        if exclusive {
            std::ptr::copy_nonoverlapping(top.cast_const(), drow, b);
        }
        F::add2::<W>(state, state.cast_const(), srow, b);
        for i in 1..q {
            F::add2::<W>(
                state.add(i * b),
                state.add(i * b).cast_const(),
                state.add((i - 1) * b).cast_const(),
                b,
            );
        }
        if !exclusive {
            std::ptr::copy_nonoverlapping(top.cast_const(), drow, b);
        }
    }
}

/// Totals-only form of [`vertical_from_rows`].
#[inline(always)]
unsafe fn vertical_totals_rows<F: RowOps, const W: usize>(
    src: *const u8,
    rows: usize,
    b: usize,
    state: *mut u8,
    q: usize,
) {
    for r in 0..rows {
        F::add2::<W>(state, state.cast_const(), src.add(r * b), b);
        for i in 1..q {
            F::add2::<W>(
                state.add(i * b),
                state.add(i * b).cast_const(),
                state.add((i - 1) * b).cast_const(),
                b,
            );
        }
    }
}

/// Generates the per-family vertical runner: one `#[target_feature]` (or
/// plain, for SWAR/NEON baselines) entry per sweep kind, monomorphized
/// over the lane width.
macro_rules! vertical_runner {
    ($(#[$attr:meta])* $name:ident, $fam:ty) => {
        $(#[$attr])*
        unsafe fn $name<const W: usize>(op: VertOp, rows: usize, b: usize, state: *mut u8, q: usize) {
            match op {
                VertOp::From { src, dst, exclusive } => {
                    vertical_from_rows::<$fam, W>(src, dst, rows, b, state, q, exclusive)
                }
                VertOp::Totals { src } => vertical_totals_rows::<$fam, W>(src, rows, b, state, q),
            }
        }
    };
}

vertical_runner!(run_vert_swar, SwarRows);
#[cfg(target_arch = "x86_64")]
vertical_runner!(
    #[target_feature(enable = "avx2")]
    run_vert_avx2,
    x86::Avx2Rows
);
#[cfg(target_arch = "x86_64")]
vertical_runner!(
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    run_vert_avx512,
    x86::Avx512Rows
);
#[cfg(target_arch = "aarch64")]
vertical_runner!(run_vert_neon, arm::NeonRows);

// --- x86-64: AVX2 / AVX-512 kernels ----------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{lane_add, lane_load, lane_store, scalar_add2, RowOps};
    use std::arch::x86_64::*;

    /// How far ahead of the current read position the streaming kernels
    /// prefetch, in bytes. On the non-temporal path the hardware
    /// prefetchers track the load stream poorly (the interleaved streaming
    /// stores occupy the same fill buffers), and an explicit deep prefetch
    /// recovers copy-level bandwidth; measured best around two pages on
    /// the deployment hosts.
    const PREFETCH_AHEAD_BYTES: usize = 8192;

    /// Prefetches the cache line `PREFETCH_AHEAD_BYTES` past `p` (never
    /// faults, so running past the buffer end is fine).
    #[inline(always)]
    pub(super) unsafe fn prefetch_src(p: *const u8) {
        _mm_prefetch::<_MM_HINT_T0>(p.add(PREFETCH_AHEAD_BYTES).cast());
    }

    /// Width-dispatched 256-bit lane add (the match folds per
    /// monomorphization).
    #[inline(always)]
    unsafe fn add256<const W: usize>(a: __m256i, b: __m256i) -> __m256i {
        match W {
            1 => _mm256_add_epi8(a, b),
            2 => _mm256_add_epi16(a, b),
            4 => _mm256_add_epi32(a, b),
            8 => _mm256_add_epi64(a, b),
            _ => unreachable!(),
        }
    }

    /// Width-dispatched 128-bit lane add.
    #[inline(always)]
    unsafe fn add128<const W: usize>(a: __m128i, b: __m128i) -> __m128i {
        match W {
            1 => _mm_add_epi8(a, b),
            2 => _mm_add_epi16(a, b),
            4 => _mm_add_epi32(a, b),
            8 => _mm_add_epi64(a, b),
            _ => unreachable!(),
        }
    }

    /// Width-dispatched 512-bit lane add (`epi8`/`epi16` need `avx512bw`,
    /// which the `Avx512` gate guarantees).
    #[inline(always)]
    unsafe fn add512<const W: usize>(a: __m512i, b: __m512i) -> __m512i {
        match W {
            1 => _mm512_add_epi8(a, b),
            2 => _mm512_add_epi16(a, b),
            4 => _mm512_add_epi32(a, b),
            8 => _mm512_add_epi64(a, b),
            _ => unreachable!(),
        }
    }

    /// AVX2 row family: 32-byte strips, then one 16-byte strip, then
    /// scalar lanes.
    pub(super) struct Avx2Rows;

    impl RowOps for Avx2Rows {
        #[inline(always)]
        unsafe fn add2<const W: usize>(dst: *mut u8, a: *const u8, b: *const u8, bytes: usize) {
            let mut off = 0;
            while off + 32 <= bytes {
                let va = _mm256_loadu_si256(a.add(off).cast());
                let vb = _mm256_loadu_si256(b.add(off).cast());
                _mm256_storeu_si256(dst.add(off).cast(), add256::<W>(va, vb));
                off += 32;
            }
            if off + 16 <= bytes {
                let va = _mm_loadu_si128(a.add(off).cast());
                let vb = _mm_loadu_si128(b.add(off).cast());
                _mm_storeu_si128(dst.add(off).cast(), add128::<W>(va, vb));
                off += 16;
            }
            scalar_add2::<W>(dst, a, b, off, bytes);
        }
    }

    /// AVX-512 row family: 64-byte strips, then the AVX2 remainder.
    pub(super) struct Avx512Rows;

    impl RowOps for Avx512Rows {
        #[inline(always)]
        unsafe fn add2<const W: usize>(dst: *mut u8, a: *const u8, b: *const u8, bytes: usize) {
            let mut off = 0;
            while off + 64 <= bytes {
                let va = _mm512_loadu_si512(a.add(off).cast());
                let vb = _mm512_loadu_si512(b.add(off).cast());
                _mm512_storeu_si512(dst.add(off).cast(), add512::<W>(va, vb));
                off += 64;
            }
            Avx2Rows::add2::<W>(dst.add(off), a.add(off), b.add(off), bytes - off);
        }
    }

    /// AVX2 stride-1 scan of `n` `u32` lanes: per 8-lane block, the
    /// Hillis–Steele shifted-add ladder in registers (in-128 shifts, one
    /// cross-lane fixup), then the broadcast running carry.
    ///
    /// # Safety
    ///
    /// `src`/`dst` valid for `n` lanes, equal or non-overlapping; AVX2
    /// available. `NT` requires `src != dst`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_w4_avx2<const NT: bool>(
        src: *const u32,
        dst: *mut u32,
        n: usize,
        carry: u32,
    ) -> u32 {
        let mut i = 0usize;
        let mut c = carry;
        if NT {
            // Scalar prologue until the destination is 32-byte aligned so
            // every streamed store hits a whole aligned vector.
            while i < n && !(dst.add(i) as usize).is_multiple_of(32) {
                c = c.wrapping_add(*src.add(i));
                *dst.add(i) = c;
                i += 1;
            }
        }
        let zero = _mm256_setzero_si256();
        let idx_last = _mm256_set1_epi32(7);
        let mut cv = _mm256_set1_epi32(c as i32);
        while i + 8 <= n {
            if NT {
                prefetch_src(src.add(i).cast());
            }
            let mut x = _mm256_loadu_si256(src.add(i).cast());
            x = _mm256_add_epi32(x, _mm256_slli_si256::<4>(x));
            x = _mm256_add_epi32(x, _mm256_slli_si256::<8>(x));
            // Cross-lane fixup: broadcast the low half's total (element 3)
            // into every high-half lane, zero into the low half.
            let t = _mm256_shuffle_epi32::<0xFF>(x);
            let t = _mm256_permute2x128_si256::<0x08>(t, zero);
            x = _mm256_add_epi32(x, t);
            x = _mm256_add_epi32(x, cv);
            if NT {
                _mm256_stream_si256(dst.add(i).cast(), x);
            } else {
                _mm256_storeu_si256(dst.add(i).cast(), x);
            }
            cv = _mm256_permutevar8x32_epi32(x, idx_last);
            i += 8;
        }
        if NT {
            // Non-temporal stores are weakly ordered: fence so the CPU
            // engine's subsequent ready-flag release publishes them.
            _mm_sfence();
        }
        c = _mm256_extract_epi32::<0>(cv) as u32;
        while i < n {
            c = c.wrapping_add(*src.add(i));
            *dst.add(i) = c;
            i += 1;
        }
        c
    }

    /// AVX2 stride-1 scan of `n` `u64` lanes (4-lane blocks).
    ///
    /// # Safety
    ///
    /// As [`scan_w4_avx2`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_w8_avx2<const NT: bool>(
        src: *const u64,
        dst: *mut u64,
        n: usize,
        carry: u64,
    ) -> u64 {
        let mut i = 0usize;
        let mut c = carry;
        if NT {
            while i < n && !(dst.add(i) as usize).is_multiple_of(32) {
                c = c.wrapping_add(*src.add(i));
                *dst.add(i) = c;
                i += 1;
            }
        }
        let zero = _mm256_setzero_si256();
        let mut cv = _mm256_set1_epi64x(c as i64);
        while i + 4 <= n {
            if NT {
                prefetch_src(src.add(i).cast());
            }
            let mut x = _mm256_loadu_si256(src.add(i).cast());
            x = _mm256_add_epi64(x, _mm256_slli_si256::<8>(x));
            // Cross-lane fixup: [0, 0, x1, x1] (x1 = low half's total).
            let t = _mm256_permute4x64_epi64::<0x50>(x);
            let t = _mm256_blend_epi32::<0x0F>(t, zero);
            x = _mm256_add_epi64(x, t);
            x = _mm256_add_epi64(x, cv);
            if NT {
                _mm256_stream_si256(dst.add(i).cast(), x);
            } else {
                _mm256_storeu_si256(dst.add(i).cast(), x);
            }
            cv = _mm256_permute4x64_epi64::<0xFF>(x);
            i += 4;
        }
        if NT {
            _mm_sfence();
        }
        c = _mm256_extract_epi64::<0>(cv) as u64;
        while i < n {
            c = c.wrapping_add(*src.add(i));
            *dst.add(i) = c;
            i += 1;
        }
        c
    }

    /// AVX-512 stride-1 scan of `n` `u32` lanes: the shifted-add ladder
    /// over 16 lanes via `valignd` against zero.
    ///
    /// # Safety
    ///
    /// As [`scan_w4_avx2`], requiring AVX-512F.
    #[target_feature(enable = "avx512f,avx2")]
    pub(super) unsafe fn scan_w4_avx512<const NT: bool>(
        src: *const u32,
        dst: *mut u32,
        n: usize,
        carry: u32,
    ) -> u32 {
        let mut i = 0usize;
        let mut c = carry;
        if NT {
            while i < n && !(dst.add(i) as usize).is_multiple_of(64) {
                c = c.wrapping_add(*src.add(i));
                *dst.add(i) = c;
                i += 1;
            }
        }
        let zero = _mm512_setzero_si512();
        let idx_last = _mm512_set1_epi32(15);
        let mut cv = _mm512_set1_epi32(c as i32);
        while i + 16 <= n {
            if NT {
                prefetch_src(src.add(i).cast());
            }
            let mut x = _mm512_loadu_si512(src.add(i).cast());
            x = _mm512_add_epi32(x, _mm512_alignr_epi32::<15>(x, zero));
            x = _mm512_add_epi32(x, _mm512_alignr_epi32::<14>(x, zero));
            x = _mm512_add_epi32(x, _mm512_alignr_epi32::<12>(x, zero));
            x = _mm512_add_epi32(x, _mm512_alignr_epi32::<8>(x, zero));
            x = _mm512_add_epi32(x, cv);
            if NT {
                _mm512_stream_si512(dst.add(i).cast(), x);
            } else {
                _mm512_storeu_si512(dst.add(i).cast(), x);
            }
            cv = _mm512_permutexvar_epi32(idx_last, x);
            i += 16;
        }
        if NT {
            _mm_sfence();
        }
        c = _mm512_cvtsi512_si32(cv) as u32;
        while i < n {
            c = c.wrapping_add(*src.add(i));
            *dst.add(i) = c;
            i += 1;
        }
        c
    }

    /// AVX-512 stride-1 scan of `n` `u64` lanes (8-lane blocks via
    /// `valignq`).
    ///
    /// # Safety
    ///
    /// As [`scan_w4_avx512`].
    #[target_feature(enable = "avx512f,avx2")]
    pub(super) unsafe fn scan_w8_avx512<const NT: bool>(
        src: *const u64,
        dst: *mut u64,
        n: usize,
        carry: u64,
    ) -> u64 {
        let mut i = 0usize;
        let mut c = carry;
        if NT {
            while i < n && !(dst.add(i) as usize).is_multiple_of(64) {
                c = c.wrapping_add(*src.add(i));
                *dst.add(i) = c;
                i += 1;
            }
        }
        let zero = _mm512_setzero_si512();
        let idx_last = _mm512_set1_epi64(7);
        let mut cv = _mm512_set1_epi64(c as i64);
        while i + 8 <= n {
            if NT {
                prefetch_src(src.add(i).cast());
            }
            let mut x = _mm512_loadu_si512(src.add(i).cast());
            x = _mm512_add_epi64(x, _mm512_alignr_epi64::<7>(x, zero));
            x = _mm512_add_epi64(x, _mm512_alignr_epi64::<6>(x, zero));
            x = _mm512_add_epi64(x, _mm512_alignr_epi64::<4>(x, zero));
            x = _mm512_add_epi64(x, cv);
            if NT {
                _mm512_stream_si512(dst.add(i).cast(), x);
            } else {
                _mm512_storeu_si512(dst.add(i).cast(), x);
            }
            cv = _mm512_permutexvar_epi64(idx_last, x);
            i += 8;
        }
        if NT {
            _mm_sfence();
        }
        c = _mm256_extract_epi64::<0>(_mm512_castsi512_si256(cv)) as u64;
        while i < n {
            c = c.wrapping_add(*src.add(i));
            *dst.add(i) = c;
            i += 1;
        }
        c
    }

    /// Vector operations of the segmented sweeps, `L` 8-byte lanes per
    /// vector. Every method is `#[inline(always)]`, so the
    /// `#[target_feature]` entries compile them with their family's
    /// features.
    trait SegLanes<const L: usize> {
        type V: Copy;
        unsafe fn zero() -> Self::V;
        /// Loads `L` words from `p` (any alignment).
        unsafe fn load(p: *const u64) -> Self::V;
        /// Stores `L` words to `p` (any alignment).
        unsafe fn store(p: *mut u64, v: Self::V);
        /// Non-temporal store of `L` words to `p`, aligned to `8 * L`.
        unsafe fn stream(p: *mut u64, v: Self::V);
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
        /// Transposes an `L x L` tile: word `i` of row `j` becomes word
        /// `j` of row `i`.
        unsafe fn transpose(rows: [Self::V; L]) -> [Self::V; L];
    }

    /// Eight `u64` lanes in a 512-bit vector.
    struct Avx512Seg;

    impl SegLanes<8> for Avx512Seg {
        type V = __m512i;
        #[inline(always)]
        unsafe fn zero() -> __m512i {
            _mm512_setzero_si512()
        }
        #[inline(always)]
        unsafe fn load(p: *const u64) -> __m512i {
            _mm512_loadu_si512(p.cast())
        }
        #[inline(always)]
        unsafe fn store(p: *mut u64, v: __m512i) {
            _mm512_storeu_si512(p.cast(), v)
        }
        #[inline(always)]
        unsafe fn stream(p: *mut u64, v: __m512i) {
            _mm512_stream_si512(p.cast(), v)
        }
        #[inline(always)]
        unsafe fn add(a: __m512i, b: __m512i) -> __m512i {
            _mm512_add_epi64(a, b)
        }
        /// Three shuffle stages: pairs of rows interleave words, then
        /// pairs of those 128-bit blocks, then 256-bit halves.
        #[inline(always)]
        unsafe fn transpose(r: [__m512i; 8]) -> [__m512i; 8] {
            let t: [__m512i; 8] = [
                _mm512_unpacklo_epi64(r[0], r[1]),
                _mm512_unpackhi_epi64(r[0], r[1]),
                _mm512_unpacklo_epi64(r[2], r[3]),
                _mm512_unpackhi_epi64(r[2], r[3]),
                _mm512_unpacklo_epi64(r[4], r[5]),
                _mm512_unpackhi_epi64(r[4], r[5]),
                _mm512_unpacklo_epi64(r[6], r[7]),
                _mm512_unpackhi_epi64(r[6], r[7]),
            ];
            let lo = _mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0);
            let hi = _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2);
            let u: [__m512i; 8] = [
                _mm512_permutex2var_epi64(t[0], lo, t[2]),
                _mm512_permutex2var_epi64(t[1], lo, t[3]),
                _mm512_permutex2var_epi64(t[0], hi, t[2]),
                _mm512_permutex2var_epi64(t[1], hi, t[3]),
                _mm512_permutex2var_epi64(t[4], lo, t[6]),
                _mm512_permutex2var_epi64(t[5], lo, t[7]),
                _mm512_permutex2var_epi64(t[4], hi, t[6]),
                _mm512_permutex2var_epi64(t[5], hi, t[7]),
            ];
            [
                _mm512_shuffle_i64x2::<0x44>(u[0], u[4]),
                _mm512_shuffle_i64x2::<0x44>(u[1], u[5]),
                _mm512_shuffle_i64x2::<0x44>(u[2], u[6]),
                _mm512_shuffle_i64x2::<0x44>(u[3], u[7]),
                _mm512_shuffle_i64x2::<0xEE>(u[0], u[4]),
                _mm512_shuffle_i64x2::<0xEE>(u[1], u[5]),
                _mm512_shuffle_i64x2::<0xEE>(u[2], u[6]),
                _mm512_shuffle_i64x2::<0xEE>(u[3], u[7]),
            ]
        }
    }

    /// Four `u64` lanes in a 256-bit vector.
    struct Avx2Seg;

    impl SegLanes<4> for Avx2Seg {
        type V = __m256i;
        #[inline(always)]
        unsafe fn zero() -> __m256i {
            _mm256_setzero_si256()
        }
        #[inline(always)]
        unsafe fn load(p: *const u64) -> __m256i {
            _mm256_loadu_si256(p.cast())
        }
        #[inline(always)]
        unsafe fn store(p: *mut u64, v: __m256i) {
            _mm256_storeu_si256(p.cast(), v)
        }
        #[inline(always)]
        unsafe fn stream(p: *mut u64, v: __m256i) {
            _mm256_stream_si256(p.cast(), v)
        }
        #[inline(always)]
        unsafe fn add(a: __m256i, b: __m256i) -> __m256i {
            _mm256_add_epi64(a, b)
        }
        /// Pairs of rows interleave words, then 128-bit halves swap.
        #[inline(always)]
        unsafe fn transpose(r: [__m256i; 4]) -> [__m256i; 4] {
            let t0 = _mm256_unpacklo_epi64(r[0], r[1]);
            let t1 = _mm256_unpackhi_epi64(r[0], r[1]);
            let t2 = _mm256_unpacklo_epi64(r[2], r[3]);
            let t3 = _mm256_unpackhi_epi64(r[2], r[3]);
            [
                _mm256_permute2x128_si256::<0x20>(t0, t2),
                _mm256_permute2x128_si256::<0x20>(t1, t3),
                _mm256_permute2x128_si256::<0x31>(t0, t2),
                _mm256_permute2x128_si256::<0x31>(t1, t3),
            ]
        }
    }

    /// The recurrence segments' lane operations beyond [`SegLanes`]: a
    /// broadcast, a subtract and the low 64 bits of a product.
    trait RecLanes<const L: usize>: SegLanes<L> {
        unsafe fn splat(v: u64) -> Self::V;
        unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    }

    impl RecLanes<8> for Avx512Seg {
        #[inline(always)]
        unsafe fn splat(v: u64) -> __m512i {
            _mm512_set1_epi64(v as i64)
        }
        #[inline(always)]
        unsafe fn sub(a: __m512i, b: __m512i) -> __m512i {
            _mm512_sub_epi64(a, b)
        }
        /// `vpmullq` (`avx512dq`).
        #[inline(always)]
        unsafe fn mul(a: __m512i, b: __m512i) -> __m512i {
            _mm512_mullo_epi64(a, b)
        }
    }

    impl RecLanes<4> for Avx2Seg {
        #[inline(always)]
        unsafe fn splat(v: u64) -> __m256i {
            _mm256_set1_epi64x(v as i64)
        }
        #[inline(always)]
        unsafe fn sub(a: __m256i, b: __m256i) -> __m256i {
            _mm256_sub_epi64(a, b)
        }
        /// AVX2 has no 64-bit `mullo`: `lo(a) * lo(b) + ((hi(a) * lo(b) +
        /// lo(a) * hi(b)) << 32)`, three `vpmuludq`.
        #[inline(always)]
        unsafe fn mul(a: __m256i, b: __m256i) -> __m256i {
            let lo = _mm256_mul_epu32(a, b);
            let t1 = _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), b);
            let t2 = _mm256_mul_epu32(a, _mm256_srli_epi64::<32>(b));
            _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(_mm256_add_epi64(t1, t2)))
        }
    }

    /// What a segmented sweep does per input vector: advance one group's
    /// order-`Q` state (one vector per level, one lane per segment) by
    /// `x`, and return the output vector.
    trait SegStep<F: SegLanes<L>, const L: usize, const Q: usize> {
        unsafe fn step(&self, st: &mut [F::V; Q], x: F::V) -> F::V;
    }

    /// The order-`Q` sum cascade: `x` enters level 0 and each level adds
    /// the one below. The output is the top level before (`EXCLUSIVE`) or
    /// after the update.
    struct SumStep<const EXCLUSIVE: bool>;

    impl<F: SegLanes<L>, const L: usize, const Q: usize, const EXCLUSIVE: bool> SegStep<F, L, Q>
        for SumStep<EXCLUSIVE>
    {
        #[inline(always)]
        unsafe fn step(&self, st: &mut [F::V; Q], x: F::V) -> F::V {
            let prev = st[Q - 1];
            st[0] = F::add(st[0], x);
            for k in 1..Q {
                st[k] = F::add(st[k], st[k - 1]);
            }
            if EXCLUSIVE {
                prev
            } else {
                st[Q - 1]
            }
        }
    }

    /// The order-`Q` recurrence with these coefficient vectors: `y = x +
    /// c_0 * w_0 + ... + c_{Q-1} * w_{Q-1}`, then `y` enters the window
    /// `w` (row 0 most recent). The newest tap is added last, so the
    /// chain from one output to the next is one multiply and one add. The
    /// output is `y`, or `y - x` when `EXCLUSIVE`.
    struct RecStep<V, const Q: usize, const EXCLUSIVE: bool>([V; Q]);

    impl<F: RecLanes<L>, const L: usize, const Q: usize, const EXCLUSIVE: bool> SegStep<F, L, Q>
        for RecStep<F::V, Q, EXCLUSIVE>
    {
        #[inline(always)]
        unsafe fn step(&self, w: &mut [F::V; Q], x: F::V) -> F::V {
            let c = &self.0;
            let mut y = x;
            for j in (0..Q).rev() {
                y = F::add(y, F::mul(c[j], w[j]));
            }
            for j in (1..Q).rev() {
                w[j] = w[j - 1];
            }
            w[0] = y;
            if EXCLUSIVE {
                F::sub(y, x)
            } else {
                y
            }
        }
    }

    impl<V: Copy, const Q: usize, const EXCLUSIVE: bool> RecStep<V, Q, EXCLUSIVE> {
        /// The step for `coeffs`, broadcast into `F`'s vectors.
        #[inline(always)]
        unsafe fn new<F: RecLanes<L, V = V>, const L: usize>(coeffs: &[u64; Q]) -> Self {
            RecStep(coeffs.map(|v| F::splat(v)))
        }
    }

    /// Loads tile `t` (positions `t..t + L` of every segment) and
    /// transposes it.
    #[inline(always)]
    unsafe fn segment_load<F: SegLanes<L>, const L: usize>(
        src: *const u64,
        seg: usize,
        t: usize,
    ) -> [F::V; L] {
        let mut rows = [F::zero(); L];
        for (j, row) in rows.iter_mut().enumerate() {
            *row = F::load(src.add(j * seg + t));
        }
        F::transpose(rows)
    }

    /// Advances the states `w` of `G` groups of `L` segments over tile
    /// `t + k * L`, the `k`-th of the `S` tiles from position `t` (a
    /// multiple of `L * S`), with `step`, one transposed input vector
    /// (position `p` of the group's segments, counted from `t`) at a time.
    /// Position `p` belongs to tuple lane `p % S`, whose state is `w[g][p
    /// % S]`. The groups' steps interleave, so that their dependency
    /// chains overlap. With `EMIT` the outputs go to `dst` through the
    /// inverse transpose.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn segment_tile<
        F: SegLanes<L>,
        const L: usize,
        const Q: usize,
        const G: usize,
        const S: usize,
        const EMIT: bool,
        const NT: bool,
    >(
        step: &impl SegStep<F, L, Q>,
        w: &mut [[[F::V; Q]; S]; G],
        src: *const u64,
        dst: *mut u64,
        seg: usize,
        t: usize,
        k: usize,
    ) {
        let mut cols = [[F::zero(); L]; G];
        for (g, col) in cols.iter_mut().enumerate() {
            *col = segment_load::<F, L>(src.add(g * L * seg), seg, t + k * L);
        }
        for i in 0..L {
            let p = k * L + i;
            for (col, st) in cols.iter_mut().zip(w.iter_mut()) {
                col[i] = step.step(&mut st[p % S], col[i]);
            }
        }
        if EMIT {
            for (g, col) in cols.into_iter().enumerate() {
                for (j, row) in F::transpose(col).into_iter().enumerate() {
                    let p = dst.add((g * L + j) * seg + t + k * L);
                    if NT {
                        F::stream(p, row);
                    } else {
                        F::store(p, row);
                    }
                }
            }
        }
    }

    /// [`segment_tile`] over the `S` tiles from position `t`, the calls
    /// written out so that every tuple lane index is a constant and the
    /// `Q x S` states stay in registers.
    #[inline(always)]
    unsafe fn segment_tiles<
        F: SegLanes<L>,
        const L: usize,
        const Q: usize,
        const G: usize,
        const S: usize,
        const EMIT: bool,
        const NT: bool,
    >(
        step: &impl SegStep<F, L, Q>,
        w: &mut [[[F::V; Q]; S]; G],
        src: *const u64,
        dst: *mut u64,
        seg: usize,
        t: usize,
    ) {
        macro_rules! tiles {
            ($($k:literal)*) => {{
                $(segment_tile::<F, L, Q, G, S, EMIT, NT>(step, w, src, dst, seg, t, $k);)*
            }};
        }
        match S {
            1 => tiles!(0),
            2 => tiles!(0 1),
            3 => tiles!(0 1 2),
            4 => tiles!(0 1 2 3),
            5 => tiles!(0 1 2 3 4),
            6 => tiles!(0 1 2 3 4 5),
            7 => tiles!(0 1 2 3 4 5 6),
            _ => tiles!(0 1 2 3 4 5 6 7),
        }
    }

    /// Word offset in a level-major `Q x S x G x L` state of group `g`'s
    /// order-`(k+1)` vector for tuple lane `l`.
    #[inline(always)]
    fn state_at<const L: usize, const G: usize, const S: usize>(
        k: usize,
        l: usize,
        g: usize,
    ) -> usize {
        ((k * S + l) * G + g) * L
    }

    /// The segmented totals sweep, written once over the lane width, the
    /// tuple size and the step: the zero-seeded end states of `G x L`
    /// segments of `seg` words at `src`, level-major into `ends`.
    #[inline(always)]
    unsafe fn segment_totals_body<
        F: SegLanes<L>,
        const L: usize,
        const Q: usize,
        const G: usize,
        const S: usize,
    >(
        step: impl SegStep<F, L, Q>,
        src: *const u64,
        seg: usize,
        ends: *mut u64,
    ) {
        let mut w = [[[F::zero(); Q]; S]; G];
        let dst = std::ptr::null_mut();
        for t in (0..seg).step_by(L * S) {
            segment_tiles::<F, L, Q, G, S, false, false>(&step, &mut w, src, dst, seg, t);
        }
        for (g, lanes) in w.iter().enumerate() {
            for (l, st) in lanes.iter().enumerate() {
                for (k, &v) in st.iter().enumerate() {
                    F::store(ends.add(state_at::<L, G, S>(k, l, g)), v);
                }
            }
        }
    }

    /// The segmented output sweep, written once over the lane width, the
    /// tuple size and the step: seeds from `state` (level-major `Q x S x G
    /// x L`), outputs to `dst` through the inverse transpose, end states
    /// back to `state`.
    #[inline(always)]
    unsafe fn segment_from_body<
        F: SegLanes<L>,
        const L: usize,
        const Q: usize,
        const G: usize,
        const S: usize,
        const NT: bool,
    >(
        step: impl SegStep<F, L, Q>,
        src: *const u64,
        dst: *mut u64,
        seg: usize,
        state: *mut u64,
    ) {
        let mut w = [[[F::zero(); Q]; S]; G];
        for (g, lanes) in w.iter_mut().enumerate() {
            for (l, st) in lanes.iter_mut().enumerate() {
                for (k, v) in st.iter_mut().enumerate() {
                    *v = F::load(state.add(state_at::<L, G, S>(k, l, g)));
                }
            }
        }
        for t in (0..seg).step_by(L * S) {
            segment_tiles::<F, L, Q, G, S, true, NT>(&step, &mut w, src, dst, seg, t);
        }
        if NT {
            _mm_sfence();
        }
        for (g, lanes) in w.iter().enumerate() {
            for (l, st) in lanes.iter().enumerate() {
                for (k, &v) in st.iter().enumerate() {
                    F::store(state.add(state_at::<L, G, S>(k, l, g)), v);
                }
            }
        }
    }

    /// AVX-512 entry of [`segment_totals_body`] for the sum cascade at
    /// tuple size `S`.
    ///
    /// # Safety
    ///
    /// `src` valid for `8 * seg` words, `ends` for `8 * Q * S`; AVX-512F
    /// available.
    #[target_feature(enable = "avx512f,avx2")]
    pub(super) unsafe fn segment_totals_avx512<const Q: usize, const S: usize>(
        src: *const u64,
        seg: usize,
        ends: *mut u64,
    ) {
        segment_totals_body::<Avx512Seg, 8, Q, 1, S>(SumStep::<false>, src, seg, ends)
    }

    /// AVX2 entry of [`segment_totals_body`] for the sum cascade at tuple
    /// size `S`.
    ///
    /// # Safety
    ///
    /// `src` valid for `4 * seg` words, `ends` for `4 * Q * S`; AVX2
    /// available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn segment_totals_avx2<const Q: usize, const S: usize>(
        src: *const u64,
        seg: usize,
        ends: *mut u64,
    ) {
        segment_totals_body::<Avx2Seg, 4, Q, 1, S>(SumStep::<false>, src, seg, ends)
    }

    /// AVX-512 entry of [`segment_from_body`] for the sum cascade at tuple
    /// size `S`.
    ///
    /// # Safety
    ///
    /// `src` and `dst` valid for `8 * seg` words and non-overlapping,
    /// `state` for `8 * Q * S`; with `NT`, `dst` 64-byte aligned; AVX-512F
    /// available.
    #[target_feature(enable = "avx512f,avx2")]
    pub(super) unsafe fn segment_from_avx512<
        const Q: usize,
        const S: usize,
        const EXCLUSIVE: bool,
        const NT: bool,
    >(
        src: *const u64,
        dst: *mut u64,
        seg: usize,
        state: *mut u64,
    ) {
        segment_from_body::<Avx512Seg, 8, Q, 1, S, NT>(SumStep::<EXCLUSIVE>, src, dst, seg, state)
    }

    /// AVX2 entry of [`segment_from_body`] for the sum cascade at tuple
    /// size `S`.
    ///
    /// # Safety
    ///
    /// As [`segment_from_avx512`] with 4 lanes, 32-byte alignment and
    /// AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn segment_from_avx2<
        const Q: usize,
        const S: usize,
        const EXCLUSIVE: bool,
        const NT: bool,
    >(
        src: *const u64,
        dst: *mut u64,
        seg: usize,
        state: *mut u64,
    ) {
        segment_from_body::<Avx2Seg, 4, Q, 1, S, NT>(SumStep::<EXCLUSIVE>, src, dst, seg, state)
    }

    /// AVX-512 entry of [`segment_totals_body`] for the recurrence with
    /// coefficients `coeffs`, in `G` groups.
    ///
    /// # Safety
    ///
    /// `src` valid for `8 * G * seg` words, `ends` for `8 * G * Q`;
    /// AVX-512F and AVX-512DQ available.
    #[target_feature(enable = "avx512f,avx512dq,avx2")]
    pub(super) unsafe fn rec_totals_avx512<const Q: usize, const G: usize>(
        coeffs: &[u64; Q],
        src: *const u64,
        seg: usize,
        ends: *mut u64,
    ) {
        let step = RecStep::<_, Q, false>::new::<Avx512Seg, 8>(coeffs);
        segment_totals_body::<Avx512Seg, 8, Q, G, 1>(step, src, seg, ends)
    }

    /// AVX-512 entry of [`segment_from_body`] for the recurrence with
    /// coefficients `coeffs`, in `G` groups.
    ///
    /// # Safety
    ///
    /// `src` and `dst` valid for `8 * G * seg` words and non-overlapping,
    /// `state` for `8 * G * Q`; with `NT`, `dst` 64-byte aligned; AVX-512F
    /// and AVX-512DQ available.
    #[target_feature(enable = "avx512f,avx512dq,avx2")]
    pub(super) unsafe fn rec_from_avx512<
        const Q: usize,
        const G: usize,
        const EXCLUSIVE: bool,
        const NT: bool,
    >(
        coeffs: &[u64; Q],
        src: *const u64,
        dst: *mut u64,
        seg: usize,
        state: *mut u64,
    ) {
        let step = RecStep::<_, Q, EXCLUSIVE>::new::<Avx512Seg, 8>(coeffs);
        segment_from_body::<Avx512Seg, 8, Q, G, 1, NT>(step, src, dst, seg, state)
    }

    /// AVX2 entry of [`segment_totals_body`] for the recurrence.
    ///
    /// # Safety
    ///
    /// `src` valid for `4 * G * seg` words, `ends` for `4 * G * Q`; AVX2
    /// available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rec_totals_avx2<const Q: usize, const G: usize>(
        coeffs: &[u64; Q],
        src: *const u64,
        seg: usize,
        ends: *mut u64,
    ) {
        let step = RecStep::<_, Q, false>::new::<Avx2Seg, 4>(coeffs);
        segment_totals_body::<Avx2Seg, 4, Q, G, 1>(step, src, seg, ends)
    }

    /// AVX2 entry of [`segment_from_body`] for the recurrence.
    ///
    /// # Safety
    ///
    /// As [`rec_from_avx512`] with 4 lanes, 32-byte alignment and AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rec_from_avx2<
        const Q: usize,
        const G: usize,
        const EXCLUSIVE: bool,
        const NT: bool,
    >(
        coeffs: &[u64; Q],
        src: *const u64,
        dst: *mut u64,
        seg: usize,
        state: *mut u64,
    ) {
        let step = RecStep::<_, Q, EXCLUSIVE>::new::<Avx2Seg, 4>(coeffs);
        segment_from_body::<Avx2Seg, 4, Q, G, 1, NT>(step, src, dst, seg, state)
    }

    // Keep the scalar-lane helpers referenced so per-width dead-code
    // elimination never warns on narrow monomorphizations.
    const _: unsafe fn(*const u8) -> u64 = lane_load::<1>;
    const _: unsafe fn(*mut u8, u64) = lane_store::<1>;
    const _: fn(u64, u64) -> u64 = lane_add::<1>;
}

// --- AArch64: NEON kernels --------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::{scalar_add2, RowOps};
    use std::arch::aarch64::*;

    /// Width-dispatched 128-bit lane add on byte-typed vectors.
    #[inline(always)]
    unsafe fn addq<const W: usize>(a: uint8x16_t, b: uint8x16_t) -> uint8x16_t {
        match W {
            1 => vaddq_u8(a, b),
            2 => vreinterpretq_u8_u16(vaddq_u16(vreinterpretq_u16_u8(a), vreinterpretq_u16_u8(b))),
            4 => vreinterpretq_u8_u32(vaddq_u32(vreinterpretq_u32_u8(a), vreinterpretq_u32_u8(b))),
            8 => vreinterpretq_u8_u64(vaddq_u64(vreinterpretq_u64_u8(a), vreinterpretq_u64_u8(b))),
            _ => unreachable!(),
        }
    }

    /// NEON row family: 16-byte strips, then scalar lanes.
    pub(super) struct NeonRows;

    impl RowOps for NeonRows {
        #[inline(always)]
        unsafe fn add2<const W: usize>(dst: *mut u8, a: *const u8, b: *const u8, bytes: usize) {
            let mut off = 0;
            while off + 16 <= bytes {
                let va = vld1q_u8(a.add(off));
                let vb = vld1q_u8(b.add(off));
                vst1q_u8(dst.add(off), addq::<W>(va, vb));
                off += 16;
            }
            scalar_add2::<W>(dst, a, b, off, bytes);
        }
    }

    /// NEON stride-1 scan of `n` `u32` lanes: 4-lane blocks via the
    /// `vext`-against-zero shifted-add ladder.
    ///
    /// # Safety
    ///
    /// `src`/`dst` valid for `n` lanes, equal or non-overlapping.
    pub(super) unsafe fn scan_w4_neon(src: *const u32, dst: *mut u32, n: usize, carry: u32) -> u32 {
        let zero = vdupq_n_u32(0);
        let mut cv = vdupq_n_u32(carry);
        let mut i = 0usize;
        while i + 4 <= n {
            let mut x = vld1q_u32(src.add(i));
            x = vaddq_u32(x, vextq_u32::<3>(zero, x));
            x = vaddq_u32(x, vextq_u32::<2>(zero, x));
            x = vaddq_u32(x, cv);
            vst1q_u32(dst.add(i), x);
            cv = vdupq_laneq_u32::<3>(x);
            i += 4;
        }
        let mut c = vgetq_lane_u32::<0>(cv);
        while i < n {
            c = c.wrapping_add(*src.add(i));
            *dst.add(i) = c;
            i += 1;
        }
        c
    }

    /// NEON stride-1 scan of `n` `u64` lanes (2-lane blocks).
    ///
    /// # Safety
    ///
    /// As [`scan_w4_neon`].
    pub(super) unsafe fn scan_w8_neon(src: *const u64, dst: *mut u64, n: usize, carry: u64) -> u64 {
        let zero = vdupq_n_u64(0);
        let mut cv = vdupq_n_u64(carry);
        let mut i = 0usize;
        while i + 2 <= n {
            let mut x = vld1q_u64(src.add(i));
            x = vaddq_u64(x, vextq_u64::<1>(zero, x));
            x = vaddq_u64(x, cv);
            vst1q_u64(dst.add(i), x);
            cv = vdupq_laneq_u64::<1>(x);
            i += 2;
        }
        let mut c = vgetq_lane_u64::<0>(cv);
        while i < n {
            c = c.wrapping_add(*src.add(i));
            *dst.add(i) = c;
            i += 1;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa;

    fn bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 33) as u8
            })
            .collect()
    }

    /// Every target has at least one vector family its CPU cannot execute
    /// (NEON on x86-64, AVX on aarch64); passing one through the public
    /// dispatch must decline — not reach a `#[target_feature]` kernel.
    #[test]
    fn unavailable_isa_declines_instead_of_dispatching() {
        for isa in Isa::ALL.into_iter().filter(|i| !i.is_available()) {
            let src = vec![1i64; 100];
            let mut dst = vec![0i64; 100];
            assert_eq!(stride1_from(isa, &src, &mut dst, 0), None, "{isa}");
            let mut state = vec![0i64; 4];
            assert!(
                !vertical_from(isa, &src, &mut dst, 4, &mut state, false),
                "{isa}"
            );
            assert!(!vertical_totals(isa, &src, 4, &mut state), "{isa}");
        }
    }

    #[test]
    fn swar_word_add_is_per_lane_wrapping() {
        // Exhaustive-ish: boundary values in every lane position.
        let vals: [u8; 5] = [0, 1, 0x7f, 0x80, 0xff];
        for &a in &vals {
            for &b in &vals {
                for lane in 0..8 {
                    let wa =
                        (a as u64) << (8 * lane) | 0x2323_2323_2323_2323 & !(0xffu64 << (8 * lane));
                    let wb =
                        (b as u64) << (8 * lane) | 0x4545_4545_4545_4545 & !(0xffu64 << (8 * lane));
                    let got = swar_word_add::<1>(wa, wb);
                    let lane_got = (got >> (8 * lane)) as u8;
                    assert_eq!(lane_got, a.wrapping_add(b), "a={a:#x} b={b:#x} lane={lane}");
                    // Unrelated lanes untouched by carries.
                    for other in (0..8).filter(|&o| o != lane) {
                        let g = (got >> (8 * other)) as u8;
                        assert_eq!(
                            g,
                            0x23u8.wrapping_add(0x45),
                            "carry leaked into lane {other}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn swar_scan_matches_scalar_u8_u16() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 100, 1000] {
            let data = bytes(n, n as u64 + 5);
            let mut dst = vec![0u8; n];
            let carry = 7u64;
            let got = unsafe { swar_scan::<1>(data.as_ptr(), dst.as_mut_ptr(), n, carry) };
            let mut c = 7u8;
            let expect: Vec<u8> = data
                .iter()
                .map(|&v| {
                    c = c.wrapping_add(v);
                    c
                })
                .collect();
            assert_eq!(dst, expect, "u8 n={n}");
            assert_eq!(got as u8, c, "u8 carry n={n}");
        }
        for n in [0usize, 1, 3, 4, 5, 8, 9, 500] {
            let raw = bytes(n * 2, 99);
            let data: Vec<u16> = raw
                .chunks(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect();
            let mut dst = vec![0u16; n];
            let got =
                unsafe { swar_scan::<2>(data.as_ptr().cast(), dst.as_mut_ptr().cast(), n, 0x1234) };
            let mut c = 0x1234u16;
            let expect: Vec<u16> = data
                .iter()
                .map(|&v| {
                    c = c.wrapping_add(v);
                    c
                })
                .collect();
            assert_eq!(dst, expect, "u16 n={n}");
            assert_eq!(got as u16, c, "u16 carry n={n}");
        }
    }

    #[test]
    fn scalar_isa_always_declines() {
        let src = [1i64, 2, 3];
        let mut dst = [0i64; 3];
        assert_eq!(stride1_from(Isa::Scalar, &src, &mut dst, 0), None);
        let mut state = [0i64; 2];
        assert!(!vertical_from(
            Isa::Scalar,
            &src[..2],
            &mut dst[..2],
            2,
            &mut state,
            false
        ));
        assert!(!vertical_totals(Isa::Scalar, &src[..2], 2, &mut state));
    }

    #[test]
    fn floats_never_enter_simd() {
        let src = [1.0f64, 2.0];
        let mut dst = [0.0f64; 2];
        for i in isa::available() {
            assert_eq!(stride1_from(i, &src, &mut dst, 0.0), None);
        }
    }

    #[test]
    fn resolved_stride1_matches_reference_widths() {
        // The host's own resolved ISA (whatever it is) must be exact.
        let best = isa::detect();
        for n in [0usize, 1, 5, 31, 32, 33, 1000] {
            let raw = bytes(n * 8, 3 * n as u64 + 1);
            let data: Vec<u64> = raw
                .chunks(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            let mut dst = vec![0u64; n];
            if let Some(got) = stride1_from(best, &data, &mut dst, 11u64) {
                let mut c = 11u64;
                let expect: Vec<u64> = data
                    .iter()
                    .map(|&v| {
                        c = c.wrapping_add(v);
                        c
                    })
                    .collect();
                assert_eq!(dst, expect, "w8 n={n} isa={best}");
                assert_eq!(got, c);
            }
        }
    }
}
