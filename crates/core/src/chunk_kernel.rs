//! Chunk-kernel specialization layer.
//!
//! Every engine in this workspace — the serial oracle, the multi-threaded
//! CPU engine and the simulated GPU kernel — scans a chunk in one of two
//! ways. Operators with the single-pass cascade (wrapping-integer [`Sum`],
//! [`LinRec`]) run an order-`q` scan as one cascade sweep seeded by the
//! carry algebra of [`crate::carry`]; every other operator runs `q` passes
//! of a strided scan, each followed by a carry. Only the cascade is
//! operator-specific, so [`ChunkKernel`] holds only it and its
//! carry-weight hooks. The iterated loops are plain functions over
//! [`ScanOp`], written once: whole-span in [`crate::serial`], per chunk in
//! [`crate::chunkops`].
//!
//! One rule, [`ChunkKernel::supports_cascade`], picks the kernel family on
//! every engine and at every order: an operator that supports the cascade
//! runs it for order 1 too, and the iterated loops serve only the
//! operators that do not. [`Sum`]'s order-1 stride-1 cascade takes the
//! explicit SIMD/SWAR kernels of [`crate::simd`], falling back to an
//! unrolled in-register scan (a blocked Hillis–Steele over `BLOCK = 16`
//! lanes with per-block carry fixup) that LLVM auto-vectorizes for the
//! integer element types.
//!
//! # One sweep per shape
//!
//! A cascade sweep varies only in where its results go: to a separate
//! output buffer, or nowhere when only the end state is published. Each
//! sweep is therefore written once, generic over a private `Sink`
//! (`Dst` / `Discard`), and monomorphization gives each its own loop. A
//! sink also routes the sweep to the matching explicit kernel in
//! [`crate::simd`] (`stride1_from`, `vertical_from` / `vertical_totals`).
//! No cascade sweep writes the buffer it reads: every engine scans a
//! source into a destination, reading each chunk once and writing it
//! once.
//!
//! # Dispatch table
//!
//! | operator | element | stride, order | kernel |
//! |---|---|---|---|
//! | `Sum` | exact rings | 1, order 1 | explicit SIMD/SWAR kernel, else blocked multi-accumulator; exclusive as the inclusive kernel shifted by one; register loop for totals |
//! | `Sum` | 8-byte wrapping ints | 1..=8, order 2..=8 | **lane segments**: totals sweep always, output sweep given a [`SegmentHandoff`] of its span at its stride — one segment per AVX-512 / AVX2 lane, each transposed vector one tuple lane of every segment, joined by the carry algebra at segment distance; head, tail and short spans on the row kernels below |
//! | `Sum` | exact rings | 1, order 2..=8 | const-generic register cascade (every other case: serial engine, plan feed, gpu-sim, single-chunk scans) |
//! | `Sum` | exact rings | s > 1 | **vertical lane-parallel**: `s` accumulators advance together in row form, no per-element lane rotation, after the rotating-lane loop up to the first tuple-lane-0 position |
//! | `Sum` | exact rings | other (order > 8 at stride 1) | rotating-lane cascade |
//! | `LinRec` | 8-byte wrapping ints | 1, order 1..=8 | **lane segments**: totals sweep always, output sweep given a [`SegmentHandoff`] its recurrence made of its span — `G` interleaved groups of AVX-512 / AVX2 lanes, joined by companion-matrix powers; head, tail and short spans on the register window |
//! | `LinRec` | exact rings | 1, order ≤ 8 | register-resident window (every other case: serial engine, plan feed, gpu-sim, single-chunk scans) |
//! | `LinRec` | exact rings | s > 1 or order > 8 | rotating-lane window |
//! | any other (incl. float `Sum`) | any | any | iterated loops of [`crate::serial`] / [`crate::chunkops`], `q` passes |
//!
//! The `cascade_*` methods are the **single-pass order-`q`** kernels (a
//! length-`q` state vector per lane, advanced once per element — see
//! [`crate::carry`]), gated on [`ChunkKernel::supports_cascade`]
//! (wrapping-integer sums and recurrences).
//!
//! Non-temporal stores live only in the explicit kernels of
//! [`crate::simd`]; every loop in this file uses ordinary stores.
//!
//! # Determinism contract
//!
//! Every kernel is **bitwise identical** to the reference loops it
//! replaces, for every element type. Reassociating fast paths are gated on
//! [`crate::element::ScanElement::EXACT_ASSOC`],
//! so floating-point scans keep the exact left-to-right association of the
//! serial oracle — the deterministic-float property of Section 3.1 is
//! preserved per engine, not just per run.

use crate::element::{IntElement, ScanElement};
use crate::isa::Isa;
use crate::op::{And, FnOp, LinRec, Max, Min, Or, Prod, ScanOp, Sum, Xor};
use crate::segmented::{Element32, Packed32, SegmentedOp};

/// Number of elements the unrolled in-register kernel processes per block.
const BLOCK: usize = 16;

/// The operator-specific half of a chunk scan: the single-pass cascade
/// sweeps and the carry-weight hooks they need.
///
/// Every method has a default, so an operator without the cascade needs
/// only an empty impl; its scans run the iterated loops of
/// [`crate::serial`] and [`crate::chunkops`]. See the module docs for the
/// dispatch table and the determinism contract.
///
/// Lane membership of position `j` (global index `base + j`) is
/// `(base + j) % s`; implementations maintain it with a rotating index.
pub trait ChunkKernel<T: Copy>: ScanOp<T> {
    /// Whether this operator supports the order-`q` *cascade* kernels and
    /// the binomial carry algebra of [`crate::carry`].
    ///
    /// Requires the operator to be an exactly-associative, commutative
    /// monoid whose `w`-fold self-combination is expressible as a
    /// multiplication by a materialized weight ([`ChunkKernel::carry_weight`]
    /// / [`ChunkKernel::weight_apply`]) — in practice, wrapping-integer
    /// addition. Engines must check this before calling any `cascade_*`
    /// method with a non-trivial seed; generic operators keep the
    /// multi-pass path.
    fn supports_cascade(&self) -> bool {
        false
    }

    /// Materializes a `u64` carry weight (a binomial coefficient mod
    /// `2^64`) as an element value, truncating to the element width.
    ///
    /// Only meaningful when [`ChunkKernel::supports_cascade`] is true.
    fn carry_weight(&self, _w: u64) -> T {
        unimplemented!("carry weights require a cascade-capable operator")
    }

    /// The `w`-fold self-combination of `v`, where `w` came from
    /// [`ChunkKernel::carry_weight`]: for wrapping-integer sums, `v * w`.
    fn weight_apply(&self, _v: T, _w: T) -> T {
        unimplemented!("carry weights require a cascade-capable operator")
    }

    /// For linear-recurrence operators ([`LinRec`]), the fixed coefficient
    /// vector `[a_1, ..., a_k]` of `x_i = b_i + a_1 x_{i-1} + ... +
    /// a_k x_{i-k}`; `None` for every combine-style operator.
    ///
    /// This is the dispatch hook [`crate::carry::CarryPlan`] and the plan
    /// layer use to select the companion-matrix carry semigroup instead of
    /// the binomial Toeplitz one, and to pin recurrence specs onto the
    /// cascade kernel path (an iterated multi-pass scan has no meaning for
    /// a recurrence). When `Some`, the coefficient count must equal the
    /// spec order `q`, and the `cascade_*` methods reinterpret `state` as
    /// the last `q` outputs per lane (row 0 most recent) rather than the
    /// per-order running sums.
    fn recurrence_coeffs(&self) -> Option<&[T]> {
        None
    }

    /// Order-`q` strided cascade of `src` into `dst` in **one sweep**,
    /// seeded by and updating `state`.
    ///
    /// `state` has layout `q x s` (`state[i * s + lane]`, `q` inferred as
    /// `state.len() / s`): entry `(i, l)` is the order-`(i+1)` inclusive
    /// total of every lane-`l` element before this span. Per element the
    /// cascade advances its lane's column (`a_1 += x; a_2 += a_1; ...`) and
    /// emits `a_q` — or, for `exclusive`, the pre-update `a_q`, which is the
    /// order-`q` total of the lane's *earlier* elements. A zero-seeded
    /// (all-identity) cascade over the whole input therefore equals the
    /// iterated `q`-pass scan, and the final `state` holds the per-order,
    /// per-lane local sums the single-pass protocol publishes.
    ///
    /// `handoff` is what [`ChunkKernel::cascade_totals`] left for this
    /// same span, if anything: an operator with a lane-segmented sweep
    /// ([`SegmentHandoff`]) takes it only when the hand-off describes
    /// `src`, and otherwise runs its one-sweep kernel. Every other
    /// operator ignores it.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero, the slices differ in length, or `state.len()`
    /// is not a positive multiple of `s`.
    // The hand-off is the sweep's eighth argument: it rides on the
    // existing method rather than a new one, so every engine keeps one
    // call per sweep.
    #[allow(clippy::too_many_arguments)]
    fn cascade_scan_from(
        &self,
        src: &[T],
        dst: &mut [T],
        base: usize,
        s: usize,
        state: &mut [T],
        exclusive: bool,
        _handoff: Option<&SegmentHandoff<T>>,
    ) {
        check_fused(src.len(), dst.len(), s);
        check_cascade_state(state.len(), s);
        cascade_generic(self, &mut Dst { src, dst }, base, s, state, exclusive);
    }

    /// Totals-only cascade: advances `state` over `src` without writing any
    /// outputs — the single-pass protocol's first sweep, which publishes all
    /// `q x s` local sums from one read of the chunk.
    ///
    /// When given a `handoff`, the sweep first clears it and then leaves in
    /// it whatever the output sweep of the same span can reuse (see
    /// [`SegmentHandoff`]); pass the same hand-off to that sweep.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero or `state.len()` is not a positive multiple of
    /// `s`.
    fn cascade_totals(
        &self,
        src: &[T],
        base: usize,
        s: usize,
        state: &mut [T],
        handoff: Option<&mut SegmentHandoff<T>>,
    ) {
        if let Some(h) = handoff {
            h.clear();
        }
        assert!(s > 0, "stride must be positive");
        check_cascade_state(state.len(), s);
        cascade_generic(self, &mut Discard(src), base, s, state, false);
    }
}

/// What the totals sweep of a span leaves for the output sweep of the same
/// span: the end states of the span's lane segments (DESIGN §8.6).
///
/// For wrapping 8-byte `Sum` at tuple sizes 1–8 and orders 2–8, the
/// totals sweep splits its span into `L` segments, one per SIMD lane (`L`
/// = 8 under AVX-512, 4 under AVX2), advances all of them at once from
/// zero states, and folds their `q x s x L` end states into the span's
/// total with the carry algebra of [`crate::carry`]. [`LinRec`] at stride
/// 1 and orders 1–8 does the same in `G` groups of `L` segments, folding
/// the end windows with the companion-matrix power over one segment
/// length. A hand-off keeps those end states (and, for a recurrence, the
/// power). The output sweep of the same span then seeds every segment
/// from the span's seed and the end states before it, and runs the same
/// vertical pass writing outputs. Given no hand-off, or one that describes
/// a different span (another address, length, order, stride or tuple
/// phase) or was made by another operator (`Sum`, or a recurrence with
/// other coefficients), the output sweep runs the row kernel instead, so
/// a stale hand-off costs speed, never exactness.
///
/// A hand-off names its span by address and length, so the caller must
/// not change the span's contents between the two sweeps. Engines keep one
/// per worker: its buffers are allocated on first use and reused for every
/// chunk after that.
#[derive(Debug)]
pub struct SegmentHandoff<T> {
    /// Segment end states, level-major: `ends[(i * s + l) * segments +
    /// j]` is segment `j`'s order-`(i+1)` total of its `l`-th tuple lane,
    /// counted from the segment's first element (`Sum`), or window row `i`
    /// (`LinRec`, `s = 1`), from a zero state.
    ends: Vec<T>,
    /// The span `ends` belongs to; `None` when the hand-off is empty.
    span: Option<SegmentSpan>,
    /// The recurrence `power` was made for: its coefficients, and the
    /// segment length `m` of `power = A^m` (0 when there is none).
    coeffs: Vec<T>,
    power_seg: usize,
    /// `A^m`, row-major `q x q`, for the companion matrix `A` of `coeffs`.
    power: Vec<T>,
}

impl<T> Default for SegmentHandoff<T> {
    /// An empty hand-off; its buffers are allocated on first use.
    fn default() -> Self {
        SegmentHandoff {
            ends: Vec::new(),
            span: None,
            coeffs: Vec::new(),
            power_seg: 0,
            power: Vec::new(),
        }
    }
}

impl<T: Copy> SegmentHandoff<T> {
    /// Whether this hand-off holds segment end states for `src`: the last
    /// totals sweep it was passed to ran over `src` and split it into lane
    /// segments.
    pub fn describes(&self, src: &[T]) -> bool {
        self.span.is_some_and(|span| span.is_over(src))
    }

    /// Empties the hand-off, keeping its buffers.
    fn clear(&mut self) {
        self.span = None;
    }

    /// Stores the end states `ends` of `span`'s segments.
    fn record(&mut self, span: SegmentSpan, ends: &[T]) {
        self.ends.clear();
        self.ends.extend_from_slice(ends);
        self.span = Some(span);
    }
}

impl<T: ScanElement> SegmentHandoff<T> {
    /// The companion power of `c` over `seg` elements, computed unless the
    /// hand-off already holds it.
    fn power_for<const Q: usize>(&mut self, c: &[T; Q], seg: usize) -> &[T] {
        if self.power_seg != seg || self.coeffs != c {
            self.power.clear();
            self.power.extend(companion_pow(c, seg).iter().flatten());
            self.coeffs.clear();
            self.coeffs.extend_from_slice(c);
            self.power_seg = seg;
        }
        &self.power
    }
}

/// Shared argument validation for the `*_from` kernels and loops.
pub(crate) fn check_fused(src_len: usize, dst_len: usize, s: usize) {
    assert!(s > 0, "stride must be positive");
    assert_eq!(
        src_len, dst_len,
        "fused kernel buffers must match in length"
    );
}

/// Validates a cascade state buffer: a positive multiple of `s`.
fn check_cascade_state(state_len: usize, s: usize) {
    assert!(
        state_len > 0 && state_len.is_multiple_of(s),
        "cascade state must be a positive q x s matrix ({state_len} % {s})"
    );
}

/// Where a sweep reads its input and puts its outputs. Each sweep is
/// written once over this trait; monomorphization gives every sink its own
/// loop.
trait Sink<T: Copy> {
    /// Number of positions.
    fn len(&self) -> usize;
    /// Input at position `i`.
    fn input(&self, i: usize) -> T;
    /// Stores the output for position `i`.
    fn emit(&mut self, i: usize, v: T);

    /// Whether the sweep stores its outputs (`false` for the totals sweep).
    const EMITS: bool = true;

    /// The sink over this one's positions `range`, renumbered from 0.
    type Part<'b>: Sink<T>
    where
        Self: 'b;
    fn part(&mut self, range: std::ops::Range<usize>) -> Self::Part<'_>;

    /// Runs `isa`'s explicit stride-1 inclusive sum kernel over this sink
    /// from `seed` and returns the running total; `None` when it declines
    /// (or the sink has none).
    fn sum_stride1_simd(&mut self, _isa: Isa, _seed: T) -> Option<T>
    where
        T: ScanElement,
    {
        None
    }

    /// Stores `seed` as output 0 and returns the sink that reads inputs
    /// `..n - 1` into outputs `1..`: the exclusive order-1 sweep as an
    /// inclusive one shifted by one position. `None` for an empty span
    /// and for the totals sink.
    fn shift_by_one(&mut self, _seed: T) -> Option<Dst<'_, T>> {
        None
    }

    /// Runs `isa`'s explicit vertical sum cascade over this sink (see
    /// [`crate::simd::vertical_from`]); `false` when it declines.
    fn sum_vertical_simd(&mut self, isa: Isa, s: usize, state: &mut [T], exclusive: bool) -> bool
    where
        T: ScanElement;
}

/// Reads `src`, writes the matching position of `dst`.
struct Dst<'a, T> {
    src: &'a [T],
    dst: &'a mut [T],
}

/// Reads `src` and drops every output (the totals sweep).
struct Discard<'a, T>(&'a [T]);

impl<T: Copy> Sink<T> for Dst<'_, T> {
    type Part<'b>
        = Dst<'b, T>
    where
        Self: 'b;
    fn part(&mut self, range: std::ops::Range<usize>) -> Dst<'_, T> {
        Dst {
            src: &self.src[range.clone()],
            dst: &mut self.dst[range],
        }
    }
    /// Callers check that the buffers match; the `min` lets the compiler
    /// see that every position below it is in bounds of both, even where
    /// the sweep is not inlined into that check.
    #[inline(always)]
    fn len(&self) -> usize {
        self.src.len().min(self.dst.len())
    }
    #[inline(always)]
    fn input(&self, i: usize) -> T {
        self.src[i]
    }
    #[inline(always)]
    fn emit(&mut self, i: usize, v: T) {
        self.dst[i] = v;
    }
    fn sum_stride1_simd(&mut self, isa: Isa, seed: T) -> Option<T>
    where
        T: ScanElement,
    {
        crate::simd::stride1_from(isa, self.src, self.dst, seed)
    }
    fn shift_by_one(&mut self, seed: T) -> Option<Dst<'_, T>> {
        let (first, rest) = self.dst.split_first_mut()?;
        *first = seed;
        Some(Dst {
            src: &self.src[..rest.len()],
            dst: rest,
        })
    }
    fn sum_vertical_simd(&mut self, isa: Isa, s: usize, state: &mut [T], exclusive: bool) -> bool
    where
        T: ScanElement,
    {
        crate::simd::vertical_from(isa, self.src, self.dst, s, state, exclusive)
    }
}

impl<T: Copy> Sink<T> for Discard<'_, T> {
    const EMITS: bool = false;
    type Part<'b>
        = Discard<'b, T>
    where
        Self: 'b;
    fn part(&mut self, range: std::ops::Range<usize>) -> Discard<'_, T> {
        Discard(&self.0[range])
    }
    #[inline(always)]
    fn len(&self) -> usize {
        self.0.len()
    }
    #[inline(always)]
    fn input(&self, i: usize) -> T {
        self.0[i]
    }
    #[inline(always)]
    fn emit(&mut self, _i: usize, _v: T) {}
    fn sum_vertical_simd(&mut self, isa: Isa, s: usize, state: &mut [T], _exclusive: bool) -> bool
    where
        T: ScanElement,
    {
        crate::simd::vertical_totals(isa, self.0, s, state)
    }
}

/// Generic rotating-lane cascade over `io`.
///
/// Association per lane column is `a_i = op(a_i, a_{i-1})` — accumulated
/// prefix first, exactly the association of the iterated in-place passes it
/// replaces. Correct for any associative operator; bit-exactness of the
/// zero seed additionally needs a true identity (the
/// [`ChunkKernel::supports_cascade`] gate).
fn cascade_generic<T: Copy, Op: ScanOp<T> + ?Sized, S: Sink<T>>(
    op: &Op,
    io: &mut S,
    base: usize,
    s: usize,
    state: &mut [T],
    exclusive: bool,
) {
    let q = state.len() / s;
    let mut lane = base % s;
    for j in 0..io.len() {
        let x = io.input(j);
        let prev_top = state[(q - 1) * s + lane];
        state[lane] = op.combine(state[lane], x);
        for i in 1..q {
            state[i * s + lane] = op.combine(state[i * s + lane], state[(i - 1) * s + lane]);
        }
        io.emit(
            j,
            if exclusive {
                prev_top
            } else {
                state[(q - 1) * s + lane]
            },
        );
        lane += 1;
        if lane == s {
            lane = 0;
        }
    }
}

// --- Sum: unrolled multi-accumulator stride-1 kernels ----------------------

/// Scans one `BLOCK`-element block with Hillis–Steele steps 1, 2, 4, 8
/// (double-buffered between two register arrays so every step is a
/// shift-free vector add). No carry applied.
#[inline]
fn scan_block<T: ScanElement>(sb: &[T]) -> [T; BLOCK] {
    let mut a = [T::ZERO; BLOCK];
    a.copy_from_slice(sb);
    let mut b = [T::ZERO; BLOCK];
    // Hillis–Steele: after the step of width d, a[i] holds the sum of
    // the trailing window of length min(i + 1, 2d).
    b[..1].copy_from_slice(&a[..1]);
    for i in 1..BLOCK {
        b[i] = a[i - 1].add(a[i]);
    }
    a[..2].copy_from_slice(&b[..2]);
    for i in 2..BLOCK {
        a[i] = b[i - 2].add(b[i]);
    }
    b[..4].copy_from_slice(&a[..4]);
    for i in 4..BLOCK {
        b[i] = a[i - 4].add(a[i]);
    }
    a[..8].copy_from_slice(&b[..8]);
    for i in 8..BLOCK {
        a[i] = b[i - 8].add(b[i]);
    }
    a
}

/// Stride-1 inclusive sum over `io` from `carry`; returns the running
/// total.
///
/// Takes the resolved ISA's explicit kernel (bit-identical; it decides
/// non-temporal stores itself) and otherwise a blocked Hillis–Steele over
/// `BLOCK` register accumulators: each block is scanned in registers
/// ([`scan_block`]), then offset by the running carry. Exact for the
/// exactly associative element types [`sum_cascade`] admits.
#[inline]
fn sum_stride1<T: ScanElement, S: Sink<T>>(io: &mut S, mut carry: T) -> T {
    if let Some(total) = io.sum_stride1_simd(crate::isa::resolved(), carry) {
        return total;
    }
    let n = io.len();
    let mut off = 0;
    while off + BLOCK <= n {
        let block: [T; BLOCK] = std::array::from_fn(|k| io.input(off + k));
        let a = scan_block(&block);
        // Carry fixup: one broadcast add per block.
        for (k, &v) in a.iter().enumerate() {
            io.emit(off + k, carry.add(v));
        }
        carry = carry.add(a[BLOCK - 1]);
        off += BLOCK;
    }
    // Sequential tail (< BLOCK elements).
    for j in off..n {
        carry = carry.add(io.input(j));
        io.emit(j, carry);
    }
    carry
}

// --- Sum: cascade and lane-parallel (vertical) tuple kernels ---------------

/// Stride-1 order-`Q` cascade with the state held in `Q` registers: per
/// element, `Q` dependent adds — but the chains of *successive elements*
/// overlap (level `i` of element `j + 1` only needs level `i` of element
/// `j`), so an out-of-order core sustains ~1 element per `Q`/issue-width
/// cycles rather than the naive `Q`-cycle latency chain.
#[inline]
fn sum_cascade1<T: ScanElement, S: Sink<T>, const Q: usize, const EXCLUSIVE: bool>(
    io: &mut S,
    state: &mut [T],
) {
    let mut a = [T::ZERO; Q];
    a.copy_from_slice(state);
    for j in 0..io.len() {
        let out = a[Q - 1];
        a[0] = a[0].add(io.input(j));
        for i in 1..Q {
            a[i] = a[i].add(a[i - 1]);
        }
        io.emit(j, if EXCLUSIVE { out } else { a[Q - 1] });
    }
    state.copy_from_slice(&a);
}

/// Vertical stride-`s` cascade: all `s` lanes advance together, one state
/// *row* per cascade level, so every inner loop is a contiguous
/// element-wise add over `s`-element rows — no per-element lane rotation,
/// and LLVM vectorizes each row operation (the SIMD mapping of Zhang,
/// Wang & Ross for strided scans, composed with the order-`q` state).
///
/// Requires `base % s == 0` so position `j` of the span is lane `j % s`.
/// The tail (`len % s` elements) is a final partial row.
fn sum_cascade_vertical<T: ScanElement, S: Sink<T>>(
    io: &mut S,
    s: usize,
    state: &mut [T],
    exclusive: bool,
) {
    if io.sum_vertical_simd(crate::isa::resolved(), s, state, exclusive) {
        return;
    }
    let n = io.len();
    let q = state.len() / s;
    let top = (q - 1) * s;
    let mut off = 0;
    while off < n {
        let w = s.min(n - off);
        for l in 0..w {
            let x = io.input(off + l);
            if exclusive {
                io.emit(off + l, state[top + l]);
            }
            state[l] = state[l].add(x);
        }
        for i in 1..q {
            let (prev, cur) = state.split_at_mut(i * s);
            let prev = &prev[(i - 1) * s..];
            for l in 0..w {
                cur[l] = cur[l].add(prev[l]);
            }
        }
        if !exclusive {
            for l in 0..w {
                io.emit(off + l, state[top + l]);
            }
        }
        off += w;
    }
}

/// Register cascade of order `Q`, monomorphized on `exclusive`.
fn sum_register<T: ScanElement, S: Sink<T>, const Q: usize>(
    io: &mut S,
    state: &mut [T],
    exclusive: bool,
) {
    if exclusive {
        sum_cascade1::<T, S, Q, true>(io, state)
    } else {
        sum_cascade1::<T, S, Q, false>(io, state)
    }
}

/// Order-1 stride-1 sum sweep, seeded by and updating `state[0]`.
///
/// An inclusive sweep that stores its outputs takes [`sum_stride1`]; the
/// exclusive sweep into a separate buffer is that scan shifted by one
/// position (`dst[0] = seed`, then `src[..n - 1]` into `dst[1..]`). The
/// totals sweep keeps the register loop.
fn sum_order1<T: ScanElement, S: Sink<T>>(io: &mut S, state: &mut [T], exclusive: bool) {
    let seed = state[0];
    if S::EMITS && !exclusive {
        state[0] = sum_stride1(io, seed);
        return;
    }
    if let Some(last) = io.len().checked_sub(1).map(|j| io.input(j)) {
        if let Some(mut rest) = io.shift_by_one(seed) {
            state[0] = sum_stride1(&mut rest, seed).add(last);
            return;
        }
    }
    sum_register::<T, S, 1>(io, state, exclusive);
}

/// Sum cascade sweep: the order-1 kernels above and the register kernel
/// up to order 8 for stride 1, the vertical row form for strides above 1
/// (after the rotating-lane loop up to the first tuple-lane-0 position),
/// the rotating-lane loop otherwise (and for every non-exactly-associative
/// element type).
fn sum_cascade<T: ScanElement, S: Sink<T>>(
    io: &mut S,
    base: usize,
    s: usize,
    state: &mut [T],
    exclusive: bool,
) {
    if !T::EXACT_ASSOC {
        return cascade_generic(&Sum, io, base, s, state, exclusive);
    }
    match (s, state.len()) {
        (1, 1) => sum_order1(io, state, exclusive),
        (1, 2) => sum_register::<T, S, 2>(io, state, exclusive),
        (1, 3) => sum_register::<T, S, 3>(io, state, exclusive),
        (1, 4) => sum_register::<T, S, 4>(io, state, exclusive),
        (1, 5) => sum_register::<T, S, 5>(io, state, exclusive),
        (1, 6) => sum_register::<T, S, 6>(io, state, exclusive),
        (1, 7) => sum_register::<T, S, 7>(io, state, exclusive),
        (1, 8) => sum_register::<T, S, 8>(io, state, exclusive),
        _ if s > 1 => {
            let (n, skip) = (io.len(), (s - base % s) % s);
            let skip = skip.min(n);
            cascade_generic(&Sum, &mut io.part(0..skip), base, s, state, exclusive);
            sum_cascade_vertical(&mut io.part(skip..n), s, state, exclusive)
        }
        _ => cascade_generic(&Sum, io, base, s, state, exclusive),
    }
}

// --- Sum: lane segments for orders 2..=8 -----------------------------------
//
// The chunk is the paper's decoupled carry applied once more, inside one
// chunk: `L` segments advance together in the `L` lanes of a vector
// (`simd::segment_totals` / `simd::segment_from`), and the carry algebra
// joins them. Segment `j`'s zero-seeded end state `e_j` and the Toeplitz
// advance `M` over one segment length give every segment's seed,
// `seed_{j+1} = M * seed_j + e_j`, and the span's end state is the same
// recurrence one step further. At tuple size `s` every segment is a whole
// number of `L x s` positions, so all segments start at the same tuple
// lane and each transposed vector holds one tuple lane of every segment;
// `M` is the stride-`s` advance over the `seg / s` elements of each lane.

/// Shortest span the segmented `Sum` sweeps of [`SegmentHandoff`] split
/// into lane segments; shorter spans run the row kernels. The fold costs
/// about `L * s * q^2 / 2` multiply-adds plus `q` binomials, which a span
/// this long amortizes. At tuple size `s` a span also needs a whole
/// `L x L x s` block past its head.
pub const SEGMENT_MIN_ELEMS: usize = 256;

/// Largest `q x s x L` segment state: order 8 at tuple size 8 in 8 lanes.
const SEGMENT_MAX_WORDS: usize = 512;

/// The operator a span's segments were made under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SegmentOp {
    Sum,
    /// A recurrence; its coefficients are the hand-off's `coeffs`.
    LinRec,
}

/// Where a span's lane segments lie. `head` elements run on the row
/// kernel first, up to the source's first vector boundary; then come
/// `groups x lanes` segments of `seg` elements each (a multiple of `lanes
/// x s`, so every segment is whole `lanes x lanes` tiles and starts at the
/// same tuple lane, `lane0`); the remaining tail runs on the row kernel
/// last.
#[derive(Clone, Copy, Debug)]
struct SegmentSpan {
    /// The source span's address and length: its identity.
    src: usize,
    len: usize,
    /// The operator, cascade order, tuple size, lane count and lane groups
    /// the segments were made for.
    op: SegmentOp,
    q: usize,
    s: usize,
    lanes: usize,
    groups: usize,
    /// Elements before the first segment, and each segment's length.
    head: usize,
    seg: usize,
    /// The tuple lane of every segment's first element.
    lane0: usize,
}

impl SegmentSpan {
    /// The segment layout of `src`, whose first element has global index
    /// `base`, for an order-`q` sweep of `op` at tuple size `s` in
    /// `groups` groups of `lanes` lanes; `None` for spans shorter than
    /// `min` or without a whole tile per segment.
    #[allow(clippy::too_many_arguments)]
    fn of<T>(
        src: &[T],
        base: usize,
        s: usize,
        min: usize,
        op: SegmentOp,
        q: usize,
        lanes: usize,
        groups: usize,
    ) -> Option<Self> {
        let (n, size) = (src.len(), std::mem::size_of::<T>());
        if n < min {
            return None;
        }
        let line = lanes * size;
        let addr = src.as_ptr() as usize;
        let head = ((line - addr % line) % line / size).min(n);
        let seg = (n - head) / (groups * lanes * lanes * s) * lanes * s;
        (seg > 0).then_some(SegmentSpan {
            src: addr,
            len: n,
            op,
            q,
            s,
            lanes,
            groups,
            head,
            seg,
            lane0: (base + head) % s,
        })
    }

    /// Whether this layout was made for `src`.
    fn is_over<T>(&self, src: &[T]) -> bool {
        self.src == src.as_ptr() as usize && self.len == src.len()
    }

    /// The number of segments.
    fn segments(&self) -> usize {
        self.groups * self.lanes
    }

    /// The positions the lane segments cover.
    fn body(&self) -> std::ops::Range<usize> {
        self.head..self.head + self.segments() * self.seg
    }

    /// Moves each level of the `q x s` `state` between tuple lanes and
    /// segment lanes: with `into`, entry `(i, k)` becomes that of tuple
    /// lane `(lane0 + k) % s`, the lane of position `k` of every segment,
    /// which is where the segment kernels keep it; without, back.
    fn relabel<T>(&self, state: &mut [T], into: bool) {
        for level in state.chunks_exact_mut(self.s) {
            if into {
                level.rotate_left(self.lane0);
            } else {
                level.rotate_right(self.lane0);
            }
        }
    }
}

/// Advances `state` across the segments of `span` in order, `state = M
/// * state + e_j`, where `e_j` is column `j` of the level-major `ends`
/// and `advance` applies `M`, the carry over one segment of zero input:
/// the Toeplitz advance for `Sum` ([`sum_advance`]), the companion power
/// for `LinRec` ([`linrec_advance`]). With `seeds`, column `j` of it
/// receives the state entering segment `j`.
fn fold_segments<T: ScanElement>(
    span: &SegmentSpan,
    ends: &[T],
    state: &mut [T],
    mut seeds: Option<&mut [T]>,
    advance: impl Fn(&mut [T]),
) {
    let segments = span.segments();
    for j in 0..segments {
        if let Some(seeds) = seeds.as_deref_mut() {
            for (i, &v) in state.iter().enumerate() {
                seeds[i * segments + j] = v;
            }
        }
        advance(state);
        for (i, v) in state.iter_mut().enumerate() {
            *v = v.add(ends[i * segments + j]);
        }
    }
}

/// The Toeplitz advance of an order-`Q` `Sum` state over one segment of
/// `span`: `seg / s` elements of each of its `s` tuple lanes.
fn sum_advance<T: ScanElement, const Q: usize>(span: &SegmentSpan) -> impl Fn(&mut [T]) {
    let mut w = [T::ZERO; Q];
    crate::carry::advance_weights_into(&Sum, (span.seg / span.s) as u64, &mut w);
    let s = span.s;
    move |state| crate::carry::toeplitz_advance(&Sum, &w, state, s)
}

/// Segmented totals sweep of order `Q` at tuple size `S`: the head on the
/// row kernel, the segments on `isa`'s kernel folded into `state`, the
/// tail on the row kernel. Records the segment end states in `handoff`.
fn segmented_totals_q<T: ScanElement, const Q: usize, const S: usize>(
    (isa, span, base): (Isa, SegmentSpan, usize),
    src: &[T],
    state: &mut [T],
    handoff: Option<&mut SegmentHandoff<T>>,
) {
    let (n, body, mut io) = (src.len(), span.body(), Discard(src));
    sum_cascade(&mut io.part(0..body.start), base, S, state, false);
    let mut ends = [T::ZERO; SEGMENT_MAX_WORDS];
    let ends = &mut ends[..Q * S * span.lanes];
    crate::simd::segment_totals::<T, Q, S>(isa, &src[body.clone()], span.seg, ends);
    span.relabel(state, true);
    fold_segments(&span, ends, state, None, sum_advance::<T, Q>(&span));
    span.relabel(state, false);
    sum_cascade(&mut io.part(body.end..n), base + body.end, S, state, false);
    if let Some(h) = handoff {
        h.record(span, ends);
    }
}

/// Segmented output sweep of order `Q` at tuple size `S` over the span
/// `ends` belongs to: every segment seeded from `state` and the end
/// states before it, the head and tail on the row kernel.
fn segmented_from_q<T: ScanElement, const Q: usize, const S: usize>(
    (isa, span, base): (Isa, SegmentSpan, usize),
    io: &mut Dst<'_, T>,
    state: &mut [T],
    exclusive: bool,
    ends: &[T],
) {
    let (n, body) = (io.len(), span.body());
    let stream = crate::simd::streams(std::mem::size_of_val(io.dst));
    sum_cascade(&mut io.part(0..body.start), base, S, state, exclusive);
    let mut seeds = [T::ZERO; SEGMENT_MAX_WORDS];
    let seeds = &mut seeds[..Q * S * span.lanes];
    span.relabel(state, true);
    fold_segments(&span, ends, state, Some(seeds), sum_advance::<T, Q>(&span));
    span.relabel(state, false);
    let mid = io.part(body.clone());
    crate::simd::segment_from::<T, Q, S>(isa, mid.src, mid.dst, span.seg, seeds, exclusive, stream);
    let tail = body.end..n;
    sum_cascade(&mut io.part(tail), base + body.end, S, state, exclusive);
}

/// Runs `$run::<T, Q, S>($args)` for the order `$q` and tuple size `$s`
/// when that shape has `Sum` lane segments, and gives `false` for any
/// other shape: the shape table of the segmented `Sum` sweeps. It holds
/// orders 2..=8 at tuple sizes 1..=8 on both families. Each tuple shape
/// was probed against the small-row vertical kernel it replaces (one
/// thread, i64, 32 Ki-element chunks in L2, totals then output sweep, on
/// a 2-vCPU AVX-512 x86-64 host), and every one of them won under both
/// AVX-512 and AVX2 (DESIGN §8.6). Order 1 stays on the small-row kernel,
/// which already runs at copy speed.
macro_rules! sum_by_shape {
    ($q:expr, $s:expr, $run:ident $args:tt) => {
        match $q {
            2 => sum_by_shape!(@tuple 2, $s, $run $args),
            3 => sum_by_shape!(@tuple 3, $s, $run $args),
            4 => sum_by_shape!(@tuple 4, $s, $run $args),
            5 => sum_by_shape!(@tuple 5, $s, $run $args),
            6 => sum_by_shape!(@tuple 6, $s, $run $args),
            7 => sum_by_shape!(@tuple 7, $s, $run $args),
            8 => sum_by_shape!(@tuple 8, $s, $run $args),
            _ => false,
        }
    };
    (@tuple $q:literal, $s:expr, $run:ident ($($arg:expr),*)) => {
        match $s {
            1 => $run::<T, $q, 1>($($arg),*),
            2 => $run::<T, $q, 2>($($arg),*),
            3 => $run::<T, $q, 3>($($arg),*),
            4 => $run::<T, $q, 4>($($arg),*),
            5 => $run::<T, $q, 5>($($arg),*),
            6 => $run::<T, $q, 6>($($arg),*),
            7 => $run::<T, $q, 7>($($arg),*),
            8 => $run::<T, $q, 8>($($arg),*),
            _ => false,
        }
    };
}

/// The segmented totals sweep of `Sum` over `src` (global index `base`,
/// tuple size `s`) on `isa`, seeded by and advancing `state`; `false`
/// (nothing done) when `isa` has no segment kernel for `T` at this order
/// and tuple size, or the span is too short.
fn segmented_totals<T: ScanElement>(
    isa: Isa,
    src: &[T],
    base: usize,
    s: usize,
    state: &mut [T],
    handoff: Option<&mut SegmentHandoff<T>>,
) -> bool {
    fn run<T: ScanElement, const Q: usize, const S: usize>(
        (isa, lanes, base): (Isa, usize, usize),
        src: &[T],
        state: &mut [T],
        handoff: Option<&mut SegmentHandoff<T>>,
    ) -> bool {
        let min = SEGMENT_MIN_ELEMS;
        let Some(span) = SegmentSpan::of(src, base, S, min, SegmentOp::Sum, Q, lanes, 1) else {
            return false;
        };
        segmented_totals_q::<T, Q, S>((isa, span, base), src, state, handoff);
        true
    }
    let Some(lanes) = crate::simd::segment_lanes::<T>(isa) else {
        return false;
    };
    let args = (isa, lanes, base);
    sum_by_shape!(state.len() / s, s, run(args, src, state, handoff))
}

/// The segmented output sweep of `Sum` from `src` into `dst` on `isa`;
/// `false` (nothing done) unless `handoff` was made by `Sum` over `src`
/// at this global index, order and tuple size, and in `isa`'s lane count.
fn segmented_from<T: ScanElement>(
    isa: Isa,
    io: &mut Dst<'_, T>,
    base: usize,
    s: usize,
    state: &mut [T],
    exclusive: bool,
    handoff: &SegmentHandoff<T>,
) -> bool {
    fn run<T: ScanElement, const Q: usize, const S: usize>(
        (isa, span, base, exclusive): (Isa, SegmentSpan, usize, bool),
        io: &mut Dst<'_, T>,
        state: &mut [T],
        ends: &[T],
    ) -> bool {
        segmented_from_q::<T, Q, S>((isa, span, base), io, state, exclusive, ends);
        true
    }
    let q = state.len() / s;
    let Some(span) = handoff.span.filter(|span| {
        span.op == SegmentOp::Sum
            && span.is_over(io.src)
            && (span.q, span.s, span.lane0) == (q, s, (base + span.head) % s)
            && Some(span.lanes) == crate::simd::segment_lanes::<T>(isa)
    }) else {
        return false;
    };
    let args = (isa, span, base, exclusive);
    sum_by_shape!(q, s, run(args, io, state, &handoff.ends))
}

impl<T: ScanElement> ChunkKernel<T> for Sum {
    fn supports_cascade(&self) -> bool {
        T::EXACT_RING
    }

    fn carry_weight(&self, w: u64) -> T {
        T::from_u64_wrapping(w)
    }

    fn weight_apply(&self, v: T, w: T) -> T {
        v.mul(w)
    }

    fn cascade_scan_from(
        &self,
        src: &[T],
        dst: &mut [T],
        base: usize,
        s: usize,
        state: &mut [T],
        exclusive: bool,
        handoff: Option<&SegmentHandoff<T>>,
    ) {
        check_fused(src.len(), dst.len(), s);
        check_cascade_state(state.len(), s);
        let mut io = Dst { src, dst };
        if let Some(h) = handoff {
            let isa = crate::isa::resolved();
            if segmented_from(isa, &mut io, base, s, state, exclusive, h) {
                return;
            }
        }
        sum_cascade(&mut io, base, s, state, exclusive);
    }

    fn cascade_totals(
        &self,
        src: &[T],
        base: usize,
        s: usize,
        state: &mut [T],
        mut handoff: Option<&mut SegmentHandoff<T>>,
    ) {
        if let Some(h) = handoff.as_deref_mut() {
            h.clear();
        }
        assert!(s > 0, "stride must be positive");
        check_cascade_state(state.len(), s);
        if segmented_totals(crate::isa::resolved(), src, base, s, state, handoff) {
            return;
        }
        sum_cascade(&mut Discard(src), base, s, state, false);
    }
}

// --- LinRec: fixed-coefficient linear-recurrence sweeps --------------------
//
// `state` holds the last `q` outputs per lane, most recent in row 0
// (`state[j * s + lane] = x_{i-1-j}`). Per element the predecessor
// contribution `pred = sum_j a_j * x_{i-1-j}` is formed, the new output
// `y = x + pred` shifts the lane's window down one row, and the emitted
// value is `y` (inclusive) or `pred` (exclusive) — the recurrence analogue
// of the sum cascade's pre-update top row, which reduces to the exclusive
// prefix sum for `coeffs == [1]`.
//
// Dispatch: for 8-byte integers at stride 1 and order `Q <= 8`, where the
// kernel family has recurrence segments (`simd::recurrence_segment_lanes`:
// AVX-512, AVX2), the totals sweep always splits a span of at least
// `RECURRENCE_SEGMENT_MIN_ELEMS` into `G x L` lane segments, and the output
// sweep does so when handed a `SegmentHandoff` its own recurrence made over
// the same span. This is the paper's decoupled carry inside one chunk:
// segment `j`'s zero-seeded end window `e_j` and the companion power `A^m`
// over one segment length give every segment's seed, `w_{j+1} = A^m w_j +
// e_j`. Every other stride-1 sweep of order `Q <= 8` (no hand-off: the
// serial engine, plan feed, gpu-sim, single-chunk scans; other element
// types; short spans; heads and tails) runs the register-resident loop
// (const-generic window, one multiply and one add on the loop-carried
// chain). Every other shape keeps the rotating-lane loop. Construction of
// [`LinRec`] is gated on `T::EXACT_RING`, so the reassociations below are
// bit-exact.

/// One recurrence chain held in registers: the window (row 0 most recent)
/// and `pre`, the next input plus the older taps `c[j] * x_{i-1-j}` for
/// `j >= 1`, formed one step ahead.
///
/// Carrying `pre` across the iteration keeps the loop-carried chain from
/// one output to the next at one multiply and one add (`y = pre + c[0] *
/// x_{i-1}`); every other tap is summed off that chain, and the compiler
/// cannot reassociate the newest tap into the middle of the sum.
struct Chain<T, const Q: usize> {
    win: [T; Q],
    pre: T,
}

impl<T: ScanElement, const Q: usize> Chain<T, Q> {
    /// A chain at window `win` whose next input is `x`.
    #[inline(always)]
    fn new(c: &[T; Q], win: [T; Q], x: T) -> Self {
        let mut pre = x;
        for j in (1..Q).rev() {
            pre = pre.add(c[j].mul(win[j]));
        }
        Chain { win, pre }
    }

    /// Emits the output for the pending input and takes `next` as the
    /// following one (any value after the last input).
    #[inline(always)]
    fn advance(&mut self, c: &[T; Q], next: T) -> T {
        let w = self.win;
        let y = self.pre.add(c[0].mul(w[0]));
        let mut pre = next;
        for j in (1..Q).rev() {
            pre = pre.add(c[j].mul(w[j - 1]));
        }
        self.win = std::array::from_fn(|j| if j == 0 { y } else { w[j - 1] });
        self.pre = pre;
        y
    }
}

/// Register-resident stride-1 sweep of order `Q` over `io`, seeded by and
/// updating `w`. The exclusive output `pred` is `y - x`, exact in the ring.
#[inline(always)]
fn linrec_register<T: ScanElement, S: Sink<T>, const Q: usize, const EXCLUSIVE: bool>(
    c: &[T; Q],
    io: &mut S,
    w: &mut [T; Q],
) {
    let n = io.len();
    if n == 0 {
        return;
    }
    let mut x = io.input(0);
    let mut chain = Chain::new(c, *w, x);
    let emit = |io: &mut S, i: usize, y: T, x: T| {
        io.emit(i, if EXCLUSIVE { y.sub(x) } else { y });
    };
    for i in 1..n {
        let next = io.input(i);
        let y = chain.advance(c, next);
        emit(io, i - 1, y, x);
        x = next;
    }
    let y = chain.advance(c, T::ZERO);
    emit(io, n - 1, y, x);
    *w = chain.win;
}

/// `p * q` over `T`'s wrapping ring.
fn mat_mul<T: ScanElement, const Q: usize>(p: &[[T; Q]; Q], q: &[[T; Q]; Q]) -> [[T; Q]; Q] {
    let mut r = [[T::ZERO; Q]; Q];
    for (ri, pi) in r.iter_mut().zip(p) {
        for (&pik, qk) in pi.iter().zip(q) {
            for (rij, &qkj) in ri.iter_mut().zip(qk) {
                *rij = rij.add(pik.mul(qkj));
            }
        }
    }
    r
}

/// The companion matrix of `c`, which maps a window to its successor
/// under zero input: row 0 is `c`, row `i >= 1` shifts entry `i - 1` down.
fn companion<T: ScanElement, const Q: usize>(c: &[T; Q]) -> [[T; Q]; Q] {
    let mut a = [[T::ZERO; Q]; Q];
    a[0] = *c;
    for i in 1..Q {
        a[i][i - 1] = T::from_i64(1);
    }
    a
}

/// `m`-th power (`m >= 1`) of [`companion`]`(c)`, by square-and-multiply
/// on stack arrays.
fn companion_pow<T: ScanElement, const Q: usize>(c: &[T; Q], m: usize) -> [[T; Q]; Q] {
    let a = companion(c);
    let mut r = a;
    for bit in (0..m.ilog2()).rev() {
        r = mat_mul(&r, &r);
        if (m >> bit) & 1 == 1 {
            r = mat_mul(&r, &a);
        }
    }
    r
}

/// Shortest span the segmented `LinRec` sweeps of [`SegmentHandoff`]
/// split into lane segments; shorter spans run the one-lane register
/// loop. A span this long holds a whole tile for each of up to 32
/// segments past any head, and amortizes the companion power (`log2 m`
/// squarings of a `q x q` matrix) and the fold (`q^2` multiply-adds per
/// segment).
pub const RECURRENCE_SEGMENT_MIN_ELEMS: usize = 512;

/// Largest `q x segments` recurrence segment state: order 7 in two
/// groups of 8 lanes.
const RECURRENCE_SEGMENT_MAX_WORDS: usize = 112;

/// The advance of an order-`Q` window over one segment: `w = power * w`,
/// with `power` the row-major companion power over the segment length.
fn linrec_advance<T: ScanElement, const Q: usize>(power: &[T]) -> impl Fn(&mut [T]) + '_ {
    move |w| {
        let prev: [T; Q] = (*w).try_into().expect("the window holds Q values");
        for (v, row) in w.iter_mut().zip(power.chunks_exact(Q)) {
            *v = row
                .iter()
                .zip(&prev)
                .fold(T::ZERO, |acc, (&a, &x)| acc.add(a.mul(x)));
        }
    }
}

/// Segmented `LinRec` totals sweep of order `Q` in `G` groups of `lanes`
/// lanes on `isa`, seeded by and advancing `w`: the head on the register
/// loop, the segments on `isa`'s kernel folded into `w`, the tail on the
/// register loop. Records the end windows and the companion power in
/// `handoff`, reusing the power it already holds for these coefficients
/// and segment length. `false` (nothing done) when the span is too short.
fn linrec_segmented_totals_q<T: ScanElement, const Q: usize, const G: usize>(
    isa: Isa,
    lanes: usize,
    c: &[T; Q],
    src: &[T],
    w: &mut [T; Q],
    handoff: Option<&mut SegmentHandoff<T>>,
) -> bool {
    let min = RECURRENCE_SEGMENT_MIN_ELEMS;
    let Some(span) = SegmentSpan::of(src, 0, 1, min, SegmentOp::LinRec, Q, lanes, G) else {
        return false;
    };
    let body = span.body();
    linrec_register::<T, _, Q, false>(c, &mut Discard(&src[..body.start]), w);
    let mut ends = [T::ZERO; RECURRENCE_SEGMENT_MAX_WORDS];
    let ends = &mut ends[..Q * span.segments()];
    crate::simd::recurrence_segment_totals::<T, Q, G>(isa, c, &src[body.clone()], span.seg, ends);
    let a_m;
    let power = match handoff {
        Some(h) => {
            h.record(span, ends);
            h.power_for(c, span.seg)
        }
        None => {
            a_m = companion_pow(c, span.seg);
            a_m.as_flattened()
        }
    };
    fold_segments(&span, ends, w, None, linrec_advance::<T, Q>(power));
    linrec_register::<T, _, Q, false>(c, &mut Discard(&src[body.end..]), w);
    true
}

/// Segmented `LinRec` output sweep of order `Q` in `G` groups of `lanes`
/// lanes on `isa` over `io`: every segment seeded from `w` and the end
/// windows before it, the head and tail on the register loop. `false`
/// (nothing done) unless `handoff` was made by this recurrence over the
/// same source at this order, in `lanes` lanes and `G` groups.
fn linrec_segmented_from_q<
    T: ScanElement,
    const Q: usize,
    const G: usize,
    const EXCLUSIVE: bool,
>(
    isa: Isa,
    lanes: usize,
    c: &[T; Q],
    io: Dst<'_, T>,
    w: &mut [T; Q],
    handoff: &SegmentHandoff<T>,
) -> bool {
    let Dst { src, dst } = io;
    let Some(span) = handoff.span.filter(|span| {
        span.op == SegmentOp::LinRec
            && span.is_over(src)
            && (span.q, span.s, span.lanes, span.groups) == (Q, 1, lanes, G)
            && handoff.power_seg == span.seg
            && handoff.coeffs == c
    }) else {
        return false;
    };
    let body = span.body();
    let stream = crate::simd::streams(std::mem::size_of_val(dst));
    let (head_src, head_dst) = (&src[..body.start], &mut dst[..body.start]);
    linrec_register::<T, _, Q, EXCLUSIVE>(
        c,
        &mut Dst {
            src: head_src,
            dst: head_dst,
        },
        w,
    );
    let mut seeds = [T::ZERO; RECURRENCE_SEGMENT_MAX_WORDS];
    let seeds = &mut seeds[..Q * span.segments()];
    let advance = linrec_advance::<T, Q>(&handoff.power);
    fold_segments(&span, &handoff.ends, w, Some(seeds), advance);
    let (mid_src, mid_dst) = (&src[body.clone()], &mut dst[body.clone()]);
    crate::simd::recurrence_segment_from::<T, Q, G>(
        isa, c, mid_src, mid_dst, span.seg, seeds, EXCLUSIVE, stream,
    );
    let (tail_src, tail_dst) = (&src[body.end..], &mut dst[body.end..]);
    linrec_register::<T, _, Q, EXCLUSIVE>(
        c,
        &mut Dst {
            src: tail_src,
            dst: tail_dst,
        },
        w,
    );
    true
}

/// Rotating-lane sweep for every shape without a register kernel (`s > 1`
/// or order above 8). Tuple lanes already interleave independent chains
/// here.
fn linrec_strided<T: ScanElement, S: Sink<T>>(
    coeffs: &[T],
    io: &mut S,
    base: usize,
    s: usize,
    state: &mut [T],
    exclusive: bool,
) {
    let q = coeffs.len();
    let mut lane = base % s;
    for i in 0..io.len() {
        let mut pred = T::ZERO;
        for (j, &c) in coeffs.iter().enumerate() {
            pred = pred.add(state[j * s + lane].mul(c));
        }
        let y = io.input(i).add(pred);
        for j in (1..q).rev() {
            state[j * s + lane] = state[(j - 1) * s + lane];
        }
        state[lane] = y;
        io.emit(i, if exclusive { pred } else { y });
        lane += 1;
        if lane == s {
            lane = 0;
        }
    }
}

/// Runs `f` with the coefficients and stride-1 window as `Q`-arrays, the
/// window copied back afterwards. `state.len()` must equal `coeffs.len()`.
#[inline(always)]
fn with_window<T: ScanElement, const Q: usize, R>(
    coeffs: &[T],
    state: &mut [T],
    f: impl FnOnce(&[T; Q], &mut [T; Q]) -> R,
) -> R {
    let c: &[T; Q] = coeffs.try_into().expect("order matches the const window");
    let w: &mut [T; Q] = state.try_into().expect("order matches the const window");
    f(c, w)
}

/// Output sweep: the register sweep for stride 1 and order <= 8, the
/// rotating-lane loop otherwise.
fn linrec_sweep<T: ScanElement, S: Sink<T>>(
    coeffs: &[T],
    io: &mut S,
    base: usize,
    s: usize,
    state: &mut [T],
    exclusive: bool,
) {
    fn run<T: ScanElement, S: Sink<T>, const Q: usize>(
        coeffs: &[T],
        io: &mut S,
        state: &mut [T],
        exclusive: bool,
    ) {
        with_window::<T, Q, _>(coeffs, state, |c, w| {
            if exclusive {
                linrec_register::<T, S, Q, true>(c, io, w)
            } else {
                linrec_register::<T, S, Q, false>(c, io, w)
            }
        });
    }
    match (s, coeffs.len()) {
        (1, 1) => run::<T, S, 1>(coeffs, io, state, exclusive),
        (1, 2) => run::<T, S, 2>(coeffs, io, state, exclusive),
        (1, 3) => run::<T, S, 3>(coeffs, io, state, exclusive),
        (1, 4) => run::<T, S, 4>(coeffs, io, state, exclusive),
        (1, 5) => run::<T, S, 5>(coeffs, io, state, exclusive),
        (1, 6) => run::<T, S, 6>(coeffs, io, state, exclusive),
        (1, 7) => run::<T, S, 7>(coeffs, io, state, exclusive),
        (1, 8) => run::<T, S, 8>(coeffs, io, state, exclusive),
        _ => linrec_strided(coeffs, io, base, s, state, exclusive),
    }
}

/// Runs `$run::<T, Q, G>($args)` for the order `$q` in 1..=8 in a family
/// of `$lanes` lanes, and gives `false` for any other shape: the group
/// table of the segmented `LinRec` sweeps. `G` is the number of
/// interleaved groups of lane segments. One group's step is bound by the
/// latency of a 64-bit multiply and an add; more groups overlap those
/// chains while the multiplies (`q x G` per step) still issue in time and
/// the groups' tiles still fit in registers (32 under AVX-512, 16 under
/// AVX2, whose multiply is emulated). Measured with i64 on a 2-vCPU
/// AVX-512 x86-64 host, one thread, 32 Ki-element chunks in L2, `G` from
/// 1 to 4 at every order (DESIGN §8.6).
macro_rules! linrec_by_order {
    ($lanes:expr, $q:expr, $run:ident($($arg:expr),*)) => {
        match ($lanes, $q) {
            (8, 1) => $run::<T, 1, 4>($($arg),*),
            (8, 2) => $run::<T, 2, 4>($($arg),*),
            (8, 3) => $run::<T, 3, 4>($($arg),*),
            (8, 4) => $run::<T, 4, 2>($($arg),*),
            (8, 5) => $run::<T, 5, 2>($($arg),*),
            (8, 6) => $run::<T, 6, 2>($($arg),*),
            (8, 7) => $run::<T, 7, 2>($($arg),*),
            (8, 8) => $run::<T, 8, 1>($($arg),*),
            (4, 1) => $run::<T, 1, 3>($($arg),*),
            (4, 2) => $run::<T, 2, 3>($($arg),*),
            (4, 3) => $run::<T, 3, 2>($($arg),*),
            (4, 4) => $run::<T, 4, 2>($($arg),*),
            (4, 5) => $run::<T, 5, 2>($($arg),*),
            (4, 6) => $run::<T, 6, 2>($($arg),*),
            (4, 7) => $run::<T, 7, 2>($($arg),*),
            (4, 8) => $run::<T, 8, 2>($($arg),*),
            _ => false,
        }
    };
}

/// The segmented totals sweep of `LinRec` over `src` on `isa` (stride 1),
/// seeded by and advancing `state`; `false` (nothing done) when `isa` has
/// no recurrence segments for `T`, the order is above 8, or the span is
/// too short.
fn linrec_segmented_totals<T: ScanElement>(
    isa: Isa,
    coeffs: &[T],
    src: &[T],
    state: &mut [T],
    handoff: Option<&mut SegmentHandoff<T>>,
) -> bool {
    fn run<T: ScanElement, const Q: usize, const G: usize>(
        isa: Isa,
        lanes: usize,
        coeffs: &[T],
        src: &[T],
        state: &mut [T],
        handoff: Option<&mut SegmentHandoff<T>>,
    ) -> bool {
        with_window::<T, Q, _>(coeffs, state, |c, w| {
            linrec_segmented_totals_q::<T, Q, G>(isa, lanes, c, src, w, handoff)
        })
    }
    let Some(lanes) = crate::simd::recurrence_segment_lanes::<T>(isa) else {
        return false;
    };
    linrec_by_order!(
        lanes,
        coeffs.len(),
        run(isa, lanes, coeffs, src, state, handoff)
    )
}

/// The segmented output sweep of `LinRec` from `src` into `dst` on `isa`
/// (stride 1); `false` (nothing done) unless `handoff` was made by this
/// recurrence over `src`.
fn linrec_segmented_from<T: ScanElement>(
    isa: Isa,
    coeffs: &[T],
    src: &[T],
    dst: &mut [T],
    state: &mut [T],
    exclusive: bool,
    handoff: &SegmentHandoff<T>,
) -> bool {
    fn run<T: ScanElement, const Q: usize, const G: usize>(
        (isa, lanes, exclusive): (Isa, usize, bool),
        coeffs: &[T],
        src: &[T],
        dst: &mut [T],
        state: &mut [T],
        handoff: &SegmentHandoff<T>,
    ) -> bool {
        with_window::<T, Q, _>(coeffs, state, |c, w| {
            let (io, h) = (Dst { src, dst }, handoff);
            if exclusive {
                linrec_segmented_from_q::<T, Q, G, true>(isa, lanes, c, io, w, h)
            } else {
                linrec_segmented_from_q::<T, Q, G, false>(isa, lanes, c, io, w, h)
            }
        })
    }
    let Some(lanes) = crate::simd::recurrence_segment_lanes::<T>(isa) else {
        return false;
    };
    let args = (isa, lanes, exclusive);
    linrec_by_order!(
        lanes,
        coeffs.len(),
        run(args, coeffs, src, dst, state, handoff)
    )
}

/// Validates a recurrence state buffer against the coefficient order: the
/// `q x s` window must hold exactly one row per coefficient.
fn check_recurrence_state(state_len: usize, s: usize, order: usize) {
    check_cascade_state(state_len, s);
    assert_eq!(
        state_len / s,
        order,
        "recurrence state must hold exactly `order` rows per lane"
    );
}

impl<T: ScanElement> ChunkKernel<T> for LinRec<T> {
    fn supports_cascade(&self) -> bool {
        // Construction is gated on `T::EXACT_RING`, so every live value
        // supports the companion-matrix carry algebra.
        true
    }

    fn carry_weight(&self, w: u64) -> T {
        T::from_u64_wrapping(w)
    }

    fn weight_apply(&self, v: T, w: T) -> T {
        v.mul(w)
    }

    fn recurrence_coeffs(&self) -> Option<&[T]> {
        Some(self.coeffs())
    }

    fn cascade_scan_from(
        &self,
        src: &[T],
        dst: &mut [T],
        base: usize,
        s: usize,
        state: &mut [T],
        exclusive: bool,
        handoff: Option<&SegmentHandoff<T>>,
    ) {
        check_fused(src.len(), dst.len(), s);
        check_recurrence_state(state.len(), s, self.coeffs().len());
        if let Some(h) = handoff.filter(|_| s == 1) {
            let isa = crate::isa::resolved();
            if linrec_segmented_from(isa, self.coeffs(), src, dst, state, exclusive, h) {
                return;
            }
        }
        linrec_sweep(
            self.coeffs(),
            &mut Dst { src, dst },
            base,
            s,
            state,
            exclusive,
        );
    }

    fn cascade_totals(
        &self,
        src: &[T],
        base: usize,
        s: usize,
        state: &mut [T],
        mut handoff: Option<&mut SegmentHandoff<T>>,
    ) {
        if let Some(h) = handoff.as_deref_mut() {
            h.clear();
        }
        assert!(s > 0, "stride must be positive");
        check_recurrence_state(state.len(), s, self.coeffs().len());
        let isa = crate::isa::resolved();
        if s == 1 && linrec_segmented_totals(isa, self.coeffs(), src, state, handoff) {
            return;
        }
        linrec_sweep(self.coeffs(), &mut Discard(src), base, s, state, false);
    }
}

// --- Remaining standard operators: no cascade, iterated loops --------------

impl<T: ScanElement> ChunkKernel<T> for Prod {}
impl<T: ScanElement> ChunkKernel<T> for Max {}
impl<T: ScanElement> ChunkKernel<T> for Min {}
impl<T: IntElement> ChunkKernel<T> for Xor {}
impl<T: IntElement> ChunkKernel<T> for And {}
impl<T: IntElement> ChunkKernel<T> for Or {}

impl<T, F> ChunkKernel<T> for FnOp<T, F>
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Send + Sync,
{
}

impl<T, Op> ChunkKernel<Packed32<T>> for SegmentedOp<Op>
where
    T: Element32,
    Op: ScanOp<T>,
{
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScanSpec;
    use crate::{chunkops, serial};

    fn pseudo_random(n: usize, seed: u64) -> Vec<i64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as i64) - (1 << 30)
            })
            .collect()
    }

    /// Reference loops the kernels must match bit-for-bit.
    fn reference_inclusive<T: Copy>(op: &impl ScanOp<T>, data: &mut [T], s: usize) {
        for j in s..data.len() {
            data[j] = op.combine(data[j - s], data[j]);
        }
    }

    /// Runs the one-row (order-1) `Sum` cascade of `input`, inclusive and
    /// exclusive, through both sinks (`from`, totals), from a
    /// zero and from a non-zero seed. The oracle is the zero-seed
    /// reference loop plus the seed's lane entry at every output; the end
    /// state is the seed plus each lane's total.
    fn check_order1<T: ScanElement + std::fmt::Debug + PartialEq>(
        input: &[T],
        s: usize,
        tag: &str,
    ) {
        let nonzero = (0..s).map(|l| T::from_i64(1000 * l as i64 - 77)).collect();
        for seed in [vec![T::ZERO; s], nonzero] {
            let mut end = seed.clone();
            for (j, &x) in input.iter().enumerate() {
                end[j % s] = end[j % s].add(x);
            }
            for exclusive in [false, true] {
                let tag = format!("{tag} s={s} exclusive={exclusive} seed={seed:?}");
                let mut want = input.to_vec();
                if exclusive {
                    serial::exclusive_strided_in_place(&mut want, &Sum, s);
                } else {
                    reference_inclusive(&Sum, &mut want, s);
                }
                for (j, v) in want.iter_mut().enumerate() {
                    *v = seed[j % s].add(*v);
                }

                let mut dst = vec![T::ZERO; input.len()];
                let mut state = seed.clone();
                Sum.cascade_scan_from(input, &mut dst, 0, s, &mut state, exclusive, None);
                assert_eq!((dst, &state), (want, &end), "from {tag}");
            }
            let mut state = seed.clone();
            Sum.cascade_totals(input, 0, s, &mut state, None);
            assert_eq!(state, end, "totals {tag} seed={seed:?}");
        }
    }

    #[test]
    fn fused_inclusive_matches_reference_all_strides() {
        for n in [0usize, 1, 2, 15, 16, 17, 64, 1000, 1023] {
            for s in [1usize, 2, 3, 7, 16, 40] {
                check_order1(
                    &pseudo_random(n, 7 + n as u64 + s as u64),
                    s,
                    &format!("n={n}"),
                );
            }
        }
    }

    #[test]
    fn fused_exclusive_matches_serial_oracle() {
        for n in [0usize, 1, 5, 16, 33, 1000] {
            for s in [1usize, 3, 8] {
                check_order1(
                    &pseudo_random(n, 11 + n as u64 * 3 + s as u64),
                    s,
                    &format!("n={n}"),
                );
            }
        }
    }

    #[test]
    fn float_kernels_bitwise_match_sequential_association() {
        // Sums of many different magnitudes: any reassociation would change
        // low-order bits somewhere in 10k elements.
        let input: Vec<f64> = pseudo_random(10_000, 99)
            .iter()
            .map(|&v| v as f64 * 1.1e-7)
            .collect();
        let mut expect = input.clone();
        reference_inclusive(&Sum, &mut expect, 1);
        let mut dst = vec![0.0f64; input.len()];
        serial::inclusive_strided_from(&input, &mut dst, &Sum, 1);
        let expect_bits: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
        let got_bits: Vec<u64> = dst.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_bits, expect_bits);
    }

    #[test]
    fn blocked_sum_matches_for_all_int_widths() {
        macro_rules! check_width {
            ($($t:ty),*) => {$(
                let input: Vec<$t> = pseudo_random(555, 5).iter().map(|&v| v as $t).collect();
                check_order1(&input, 1, stringify!($t));
            )*};
        }
        check_width!(i32, i64, u32, u64, u8, i16);
    }

    #[test]
    fn chunk_scan_with_totals_matches_chunkops() {
        for (n, s, base) in [(100usize, 3usize, 7usize), (40, 1, 0), (5, 8, 2), (0, 2, 9)] {
            let input = pseudo_random(n, 3 * n as u64 + s as u64 + base as u64);
            let mut expect_chunk = input.clone();
            let mut expect_totals = vec![0i64; s];
            chunkops::scan_chunk(&mut expect_chunk, base, s, &mut expect_totals, &Sum);
            let mut reference = input.clone();
            reference_inclusive(&Sum, &mut reference, s);
            assert_eq!(expect_chunk, reference, "n={n} s={s} base={base}");

            let mut fused = vec![0i64; n];
            let mut totals = vec![0i64; s];
            chunkops::scan_chunk_from(&input, &mut fused, base, s, &mut totals, &Sum);
            assert_eq!(fused, expect_chunk, "n={n} s={s} base={base}");
            assert_eq!(totals, expect_totals, "n={n} s={s} base={base}");
        }
    }

    #[test]
    fn rotating_apply_carry_matches_modulo_reference() {
        for (n, s, base) in [(50usize, 3usize, 4usize), (33, 1, 0), (10, 7, 13)] {
            let input = pseudo_random(n, n as u64 + 17 * s as u64);
            let carry: Vec<i64> = (0..s as i64).map(|l| 1000 * (l + 1)).collect();
            let mut expect = input.clone();
            for (j, v) in expect.iter_mut().enumerate() {
                *v = carry[(base + j) % s].wrapping_add(*v);
            }
            let mut got = input.clone();
            chunkops::apply_carry(&mut got, base, &carry, &Sum);
            assert_eq!(got, expect, "n={n} s={s} base={base}");
        }
    }

    #[test]
    fn exclusive_rewrite_matches_exclusive_outputs() {
        for (n, s, base) in [(23usize, 3usize, 5usize), (8, 1, 0), (4, 8, 3), (0, 2, 0)] {
            let input = pseudo_random(n, 7 * n as u64 + s as u64);
            let mut scanned = input.clone();
            reference_inclusive(&Sum, &mut scanned, s);
            let carry: Vec<i64> = (0..s as i64).map(|l| 31 * (l + 2)).collect();
            let expect: Vec<i64> = (0..n)
                .map(|j| {
                    let c = carry[(base + j) % s];
                    if j < s {
                        c
                    } else {
                        c.wrapping_add(scanned[j - s])
                    }
                })
                .collect();
            let mut got = scanned.clone();
            chunkops::exclusive_rewrite(&mut got, base, &carry, &Sum);
            assert_eq!(got, expect, "n={n} s={s} base={base}");
        }
    }

    #[test]
    fn non_commutative_operator_runs_iterated_loops() {
        // Affine-map composition (a, b) ∘ (c, d) = (a·c, b·c + d) packed in
        // u64 halves: associative, not commutative.
        let compose = FnOp::new(pack(1, 0), |x: u64, y: u64| {
            let (a1, b1) = unpack(x);
            let (a2, b2) = unpack(y);
            pack(a1.wrapping_mul(a2), b1.wrapping_mul(a2).wrapping_add(b2))
        });
        let input: Vec<u64> = (0..300u32)
            .map(|i| pack(i % 5 + 1, i.wrapping_mul(2654435761)))
            .collect();
        for s in [1usize, 3] {
            let mut expect = input.clone();
            reference_inclusive(&compose, &mut expect, s);
            let spec = ScanSpec::inclusive().with_tuple(s).unwrap();
            assert_eq!(serial::scan(&input, &compose, &spec), expect, "s={s}");
            let mut dst = vec![0u64; input.len()];
            serial::inclusive_strided_from(&input, &mut dst, &compose, s);
            assert_eq!(dst, expect, "s={s}");
        }
    }

    fn pack(a: u32, b: u32) -> u64 {
        (u64::from(a) << 32) | u64::from(b)
    }
    fn unpack(x: u64) -> (u32, u32) {
        ((x >> 32) as u32, x as u32)
    }

    /// Inputs past [`crate::simd::nt_store_min_bytes`] take the explicit
    /// kernels' non-temporal store path where the ISA has one; the
    /// exclusive form scans into `dst[1..]`, whose start is not 16-byte
    /// aligned.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn nt_store_path_matches_cached_for_large_inputs() {
        let n = crate::simd::nt_store_min_bytes() / std::mem::size_of::<i64>() + 37;
        check_order1(&pseudo_random(n, 21), 1, "large");
    }

    /// Iterated q-pass oracle for the cascade kernels (the spec they must
    /// match bit-for-bit).
    fn iterated_oracle<T: ScanElement>(input: &[T], q: usize, s: usize, exclusive: bool) -> Vec<T> {
        let mut data = input.to_vec();
        for iter in 0..q {
            if iter + 1 == q && exclusive {
                serial::exclusive_strided_in_place(&mut data, &Sum, s);
            } else {
                serial::inclusive_strided_in_place(&mut data, &Sum, s);
            }
        }
        data
    }

    #[test]
    fn cascade_matches_iterated_oracle() {
        for n in [0usize, 1, 7, 16, 100, 1000] {
            for q in [1usize, 2, 3, 5, 8, 11] {
                for s in [1usize, 2, 5, 8] {
                    for exclusive in [false, true] {
                        let input = pseudo_random(n, (n + 31 * q + s) as u64);
                        let expect = iterated_oracle(&input, q, s, exclusive);

                        let mut dst = vec![0i64; n];
                        let mut state = vec![0i64; q * s];
                        Sum.cascade_scan_from(&input, &mut dst, 0, s, &mut state, exclusive, None);
                        assert_eq!(dst, expect, "from n={n} q={q} s={s} exc={exclusive}");

                        // Totals-only sweep advances state identically.
                        let mut state3 = vec![0i64; q * s];
                        Sum.cascade_totals(&input, 0, s, &mut state3, None);
                        assert_eq!(state3, state, "totals n={n} q={q} s={s}");
                    }
                }
            }
        }
    }

    /// The end state after an inclusive cascade is the per-order, per-lane
    /// inclusive totals — the values the single-pass protocol publishes.
    #[test]
    fn cascade_state_is_per_order_totals() {
        let input = pseudo_random(97, 5);
        let (q, s) = (4usize, 3usize);
        let mut state = vec![0i64; q * s];
        Sum.cascade_totals(&input, 0, s, &mut state, None);
        let mut data = input.clone();
        for i in 0..q {
            serial::inclusive_strided_in_place(&mut data, &Sum, s);
            // Order-(i+1) total of lane l = last element of lane l.
            for l in 0..s {
                let last = (0..data.len()).rev().find(|j| j % s == l).unwrap();
                assert_eq!(state[i * s + l], data[last], "order {i} lane {l}");
            }
        }
    }

    /// Per-lane cascade loop from `seed` over `input`, whose first element
    /// has global index `base`: the oracle for resumed sweeps. Returns the
    /// outputs and the end state.
    fn seeded_cascade_oracle<T: ScanElement>(
        input: &[T],
        base: usize,
        s: usize,
        seed: &[T],
        exclusive: bool,
    ) -> (Vec<T>, Vec<T>) {
        let q = seed.len() / s;
        let mut state = seed.to_vec();
        let out = input
            .iter()
            .enumerate()
            .map(|(j, &x)| {
                let l = (base + j) % s;
                let prev_top = state[(q - 1) * s + l];
                let mut acc = x;
                for i in 0..q {
                    acc = state[i * s + l].add(acc);
                    state[i * s + l] = acc;
                }
                if exclusive {
                    prev_top
                } else {
                    acc
                }
            })
            .collect();
        (out, state)
    }

    /// Splitting a cascade at any point and resuming with the carried state
    /// gives the same outputs and end state through both sinks (`from`,
    /// totals), from a zero and a non-zero seed — chunk-boundary
    /// correctness for the single-pass engines, including unaligned
    /// (rotating-lane) resumes and order 9 (past the register kernels).
    fn check_cascade_resumes<T: ScanElement + std::fmt::Debug + PartialEq>() {
        let n = 231;
        let input: Vec<T> = pseudo_random(n, 77).into_iter().map(T::from_i64).collect();
        for q in [1usize, 2, 5, 8, 9] {
            for s in [1usize, 3, 4] {
                let random: Vec<T> = pseudo_random(q * s, (q + s) as u64)
                    .into_iter()
                    .map(T::from_i64)
                    .collect();
                for seed in [vec![T::ZERO; q * s], random] {
                    let zero_seed = seed.iter().all(|&v| v == T::ZERO);
                    for split in [1usize, 8, 100, 230] {
                        let tag = format!("q={q} s={s} split={split} zero_seed={zero_seed}");
                        let (lo, hi) = input.split_at(split);
                        let mut totals = seed.clone();
                        Sum.cascade_totals(lo, 0, s, &mut totals, None);
                        Sum.cascade_totals(hi, split, s, &mut totals, None);
                        for exclusive in [false, true] {
                            let (expect, end) =
                                seeded_cascade_oracle(&input, 0, s, &seed, exclusive);
                            if zero_seed {
                                assert_eq!(
                                    expect,
                                    iterated_oracle(&input, q, s, exclusive),
                                    "{tag}"
                                );
                            }

                            let mut dst = vec![T::ZERO; n];
                            let mut state = seed.clone();
                            let (dlo, dhi) = dst.split_at_mut(split);
                            Sum.cascade_scan_from(lo, dlo, 0, s, &mut state, exclusive, None);
                            Sum.cascade_scan_from(hi, dhi, split, s, &mut state, exclusive, None);
                            assert_eq!(dst, expect, "from {tag} exc={exclusive}");
                            assert_eq!(state, end, "from state {tag} exc={exclusive}");
                            assert_eq!(totals, end, "totals {tag}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cascade_state_resumes_across_splits() {
        check_cascade_resumes::<i64>();
    }

    /// Negative inputs become values near 2^32, so nearly every cascade
    /// level wraps.
    #[test]
    fn cascade_state_resumes_across_splits_wrapping_u32() {
        check_cascade_resumes::<u32>();
    }

    /// Lengths for the segmented sweeps: every length to 300 (across
    /// [`SEGMENT_MIN_ELEMS`] and the shortest segments), both sides of
    /// each of the first 20 multiples of a 64-element tile group, and,
    /// with `chunk`, both sides of the CPU engine's 32 Ki-element chunk.
    fn segment_lengths(chunk: bool) -> impl Iterator<Item = usize> {
        let chunks = [(1 << 15) - 1, (1 << 15) + 1];
        (0..=300)
            .chain((1..=20).flat_map(|k| [64 * k - 1, 64 * k + 1]))
            .chain(chunks.into_iter().filter(move |_| chunk))
    }

    /// The segmented totals and output sweeps on `isa` against the
    /// per-lane oracle, bit for bit: orders 2–8 at tuple size `s` over
    /// [`segment_lengths`]`(chunk)`,
    /// inclusive and exclusive, zero and non-zero seeds, streaming forced
    /// on and off. Sources start `n % 8` elements into their buffer, so
    /// heads of every length occur, and at global index `3 * n`, so
    /// segments start at every tuple lane (for even `s`, also where the
    /// vector boundary and tuple lane 0 never meet). Destinations are
    /// aligned like their sources within a 64-byte line (where stores can
    /// stream) or one element off (where they must not). A span takes the
    /// segments when it is at least [`SEGMENT_MIN_ELEMS`] long and holds a
    /// whole `lanes x lanes x s` block past its head; a family without
    /// segment kernels must decline and leave the hand-off empty.
    fn check_segmented<T: ScanElement + std::fmt::Debug + PartialEq>(
        isa: Isa,
        s: usize,
        chunk: bool,
    ) {
        let lanes = crate::simd::segment_lanes::<T>(isa);
        for q in 2..=8usize {
            let random: Vec<T> = pseudo_random(q * s, 90 + (q * s) as u64)
                .into_iter()
                .map(T::from_i64)
                .collect();
            for n in segment_lengths(chunk) {
                let input: Vec<T> = pseudo_random(n + 8, (n * 13 + q + s) as u64)
                    .into_iter()
                    .map(T::from_i64)
                    .collect();
                let (src, base) = (&input[n % 8..][..n], 3 * n);
                let expect_took = lanes.is_some_and(|l| {
                    let head = src.as_ptr().align_offset(8 * l).min(n);
                    n >= SEGMENT_MIN_ELEMS && n - head >= l * l * s
                });
                for seed in [vec![T::ZERO; q * s], random.clone()] {
                    let tag = format!("{isa} q={q} s={s} n={n} seed={seed:?}");
                    let mut totals = seed.clone();
                    let mut handoff = SegmentHandoff::default();
                    let h = Some(&mut handoff);
                    let took = segmented_totals(isa, src, base, s, &mut totals, h);
                    assert_eq!(took, expect_took, "{tag}");
                    assert_eq!(handoff.describes(src), took, "{tag}");
                    for exclusive in [false, true] {
                        let (want, end) = seeded_cascade_oracle(src, base, s, &seed, exclusive);
                        if took {
                            assert_eq!(totals, end, "totals {tag}");
                        }
                        for (nt, skew) in [(1, 0), (1, 1), (usize::MAX, 0)] {
                            let _nt = crate::simd::nt_store_override(nt);
                            let mut out = vec![T::ZERO; n + 9];
                            let gap =
                                (src.as_ptr() as usize).wrapping_sub(out.as_ptr() as usize) % 64;
                            let dst = &mut out[gap / 8 + skew..][..n];
                            let mut state = seed.clone();
                            let mut io = Dst { src, dst };
                            let h = &handoff;
                            let ran =
                                segmented_from(isa, &mut io, base, s, &mut state, exclusive, h);
                            assert_eq!(ran, took, "{tag}");
                            if ran {
                                assert_eq!(
                                    io.dst,
                                    &want[..],
                                    "from {tag} exc={exclusive} nt={nt} skew={skew}"
                                );
                                assert_eq!(
                                    state, end,
                                    "from state {tag} exc={exclusive} nt={nt} skew={skew}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn segmented_sweeps_match_oracle_on_every_family() {
        for isa in crate::isa::available() {
            check_segmented::<i64>(isa, 1, true);
            check_segmented::<u64>(isa, 1, true);
        }
    }

    /// [`check_segmented`] at every tuple size of the shape table, 2 to
    /// 8. The 32 Ki-element chunk lengths and `u64` (whose kernels are
    /// `i64`'s) run at the bench's tuple sizes, 2 and 5, to bound the
    /// debug run.
    #[test]
    fn tuple_segmented_sweeps_match_oracle_on_every_family() {
        for isa in crate::isa::available() {
            for s in 2..=8 {
                let bench = s == 2 || s == 5;
                check_segmented::<i64>(isa, s, bench);
                if bench {
                    check_segmented::<u64>(isa, s, true);
                }
            }
        }
    }

    /// The output sweep takes the segments only from a hand-off of its own
    /// span: given none, one for another span (shifted by an element, or
    /// one element shorter), or one made at another order, it runs the
    /// register loop and is still exact.
    #[test]
    fn output_sweep_without_a_matching_handoff_is_exact() {
        let n = 4096 + 37;
        let input = pseudo_random(n + 1, 71);
        let seed: Vec<i64> = vec![5, -7, 11];
        for exclusive in [false, true] {
            let src = &input[1..];
            let (want, end) = seeded_cascade_oracle(src, 0, 1, &seed, exclusive);
            let mut other = SegmentHandoff::default();
            let mut order2 = SegmentHandoff::default();
            let mut shorter = SegmentHandoff::default();
            Sum.cascade_totals(&input[..n], 0, 1, &mut [0i64; 3], Some(&mut other));
            Sum.cascade_totals(src, 0, 1, &mut [0i64; 2], Some(&mut order2));
            Sum.cascade_totals(&src[..n - 1], 0, 1, &mut [0i64; 3], Some(&mut shorter));
            for handoff in [None, Some(&other), Some(&order2), Some(&shorter)] {
                let mut dst = vec![0i64; n];
                let mut state = seed.clone();
                Sum.cascade_scan_from(src, &mut dst, 0, 1, &mut state, exclusive, handoff);
                assert_eq!(
                    (&dst, &state),
                    (&want, &end),
                    "exc={exclusive} handoff={handoff:?}"
                );
            }
        }
    }

    /// Vertical lane-parallel kernels and the cascade agree with the oracle
    /// for narrow widths where wrapping is constant.
    #[test]
    fn cascade_wraps_exactly_for_narrow_widths() {
        let input: Vec<u8> = (0..400u32).map(|i| (i * 97 + 13) as u8).collect();
        for q in [2usize, 8] {
            let mut expect = input.clone();
            for _ in 0..q {
                serial::inclusive_strided_in_place(&mut expect, &Sum, 1);
            }
            let mut dst = vec![0u8; input.len()];
            let mut state = vec![0u8; q];
            Sum.cascade_scan_from(&input, &mut dst, 0, 1, &mut state, false, None);
            assert_eq!(dst, expect, "q={q}");
        }
    }

    #[test]
    fn lane_parallel_strided_kernels_match_reference() {
        for n in [0usize, 1, 5, 63, 64, 65, 1000] {
            for s in [2usize, 3, 8, 40, 64] {
                check_order1(&pseudo_random(n, (3 * n + s) as u64), s, &format!("n={n}"));
            }
        }
    }

    /// Plain per-lane recurrence loop: the oracle for the `LinRec` sweeps.
    fn recurrence_oracle<T: ScanElement>(
        coeffs: &[T],
        input: &[T],
        s: usize,
        seed: &[T],
        exclusive: bool,
    ) -> (Vec<T>, Vec<T>) {
        let q = coeffs.len();
        let mut wins: Vec<Vec<T>> = (0..s)
            .map(|l| (0..q).map(|j| seed[j * s + l]).collect())
            .collect();
        let out = input
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let win = &mut wins[i % s];
                let pred = coeffs
                    .iter()
                    .zip(win.iter())
                    .fold(T::ZERO, |a, (&c, &w)| a.add(c.mul(w)));
                let y = x.add(pred);
                win.rotate_right(1);
                win[0] = y;
                if exclusive {
                    pred
                } else {
                    y
                }
            })
            .collect();
        let end = (0..q * s).map(|k| wins[k % s][k / s]).collect();
        (out, end)
    }

    /// Every `LinRec` sweep shape against the oracle, from a non-zero seed:
    /// orders 1..=9 (9 is past the register kernels), strides 1 and 3,
    /// lengths on both sides of the shortest span the totals sweep splits
    /// into lane segments and of a few multiples of it, and lengths that
    /// no small count divides. The totals sweep must end in the output
    /// sweep's state, for both kinds.
    fn check_recurrence_sweeps<T: ScanElement + std::fmt::Debug + PartialEq>(
        coeff_of: impl Fn(u64) -> T,
    ) {
        let min = RECURRENCE_SEGMENT_MIN_ELEMS;
        let mut lens = vec![0usize, 1, 2, 7, min - 1, min, 9 * min + 5];
        for k in 2..=4 {
            lens.extend([k * min - 1, k * min, k * min + 1, k * min + k - 1]);
        }
        for q in 1..=9usize {
            let coeffs: Vec<T> = pseudo_random(q, 40 + q as u64)
                .into_iter()
                .map(|v| coeff_of(v as u64))
                .collect();
            let op = LinRec::new(coeffs.clone()).expect("exact ring");
            for s in [1usize, 3] {
                for &n in &lens {
                    let input: Vec<T> = pseudo_random(n, (n * 7 + q) as u64)
                        .into_iter()
                        .map(|v| T::from_i64(v))
                        .collect();
                    let seed: Vec<T> = pseudo_random(q * s, (q + s) as u64)
                        .into_iter()
                        .map(|v| T::from_i64(v))
                        .collect();
                    let tag = format!("q={q} s={s} n={n}");

                    let mut totals = seed.clone();
                    op.cascade_totals(&input, 0, s, &mut totals, None);
                    for exclusive in [false, true] {
                        let (expect, end) = recurrence_oracle(&coeffs, &input, s, &seed, exclusive);
                        let mut dst = vec![T::ZERO; n];
                        let mut state = seed.clone();
                        op.cascade_scan_from(&input, &mut dst, 0, s, &mut state, exclusive, None);
                        assert_eq!(dst, expect, "from {tag} exc={exclusive}");
                        assert_eq!(state, end, "from state {tag} exc={exclusive}");
                        assert_eq!(totals, end, "totals {tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn recurrence_sweeps_match_oracle_i64() {
        check_recurrence_sweeps::<i64>(|v| (v % 7) as i64 - 3);
    }

    /// Wide coefficients make nearly every product wrap.
    #[test]
    fn recurrence_sweeps_match_oracle_wrapping_u32() {
        check_recurrence_sweeps::<u32>(|v| (v as u32).wrapping_mul(0x9e37_79b9) | 1);
    }

    /// The bench's order-8 recurrence (`bulk_linrec` rec8).
    const TAPS8: [i64; 8] = [3, -1, 2, 0, 1, -2, 1, 1];

    /// The segmented `LinRec` sweeps on `isa` against the per-lane oracle,
    /// bit for bit: every order 1–8 with wide random coefficients, and
    /// [`TAPS8`]; inclusive and exclusive, zero and non-zero seeds,
    /// streaming forced on and off. Sources start `n % 8` elements into
    /// their buffer, so heads of every length occur; destinations are
    /// aligned like their sources within a 64-byte line or one element
    /// off. A family without recurrence segments must decline and leave
    /// the hand-off empty.
    fn check_linrec_segmented<T: ScanElement + std::fmt::Debug + PartialEq>(isa: Isa) {
        let segmented = crate::simd::recurrence_segment_lanes::<T>(isa).is_some();
        let coeff_sets = (1..=8u64)
            .map(|q| pseudo_random(q as usize, 500 + q))
            .chain([TAPS8.to_vec()]);
        for coeffs in coeff_sets {
            let coeffs: Vec<T> = coeffs.into_iter().map(T::from_i64).collect();
            let q = coeffs.len();
            let op = LinRec::new(coeffs.clone()).expect("exact ring");
            let random: Vec<T> = pseudo_random(q, 90 + q as u64)
                .into_iter()
                .map(T::from_i64)
                .collect();
            for n in segment_lengths(true) {
                let input: Vec<T> = pseudo_random(n + 8, (n * 13 + q) as u64)
                    .into_iter()
                    .map(T::from_i64)
                    .collect();
                let src = &input[n % 8..][..n];
                for seed in [vec![T::ZERO; q], random.clone()] {
                    let tag = format!("{isa} coeffs={coeffs:?} n={n} seed={seed:?}");
                    let mut totals = seed.clone();
                    let mut handoff = SegmentHandoff::default();
                    let took =
                        linrec_segmented_totals(isa, &coeffs, src, &mut totals, Some(&mut handoff));
                    let expect_took = segmented && n >= RECURRENCE_SEGMENT_MIN_ELEMS;
                    assert_eq!(took, expect_took, "{tag}");
                    assert_eq!(handoff.describes(src), took, "{tag}");
                    if !took {
                        continue;
                    }
                    for exclusive in [false, true] {
                        let (want, end) = recurrence_oracle(&coeffs, src, 1, &seed, exclusive);
                        assert_eq!(totals, end, "totals {tag}");
                        for (nt, skew) in [(1, 0), (1, 1), (usize::MAX, 0)] {
                            let _nt = crate::simd::nt_store_override(nt);
                            let mut out = vec![T::ZERO; n + 9];
                            let gap =
                                (src.as_ptr() as usize).wrapping_sub(out.as_ptr() as usize) % 64;
                            let dst = &mut out[gap / 8 + skew..][..n];
                            let mut state = seed.clone();
                            let ran = linrec_segmented_from(
                                isa,
                                op.coeffs(),
                                src,
                                dst,
                                &mut state,
                                exclusive,
                                &handoff,
                            );
                            let tag = format!("{tag} exc={exclusive} nt={nt} skew={skew}");
                            assert!(ran, "{tag}");
                            assert_eq!(dst, &want[..], "from {tag}");
                            assert_eq!(state, end, "from state {tag}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn linrec_segmented_sweeps_match_oracle_on_every_family() {
        for isa in crate::isa::available() {
            check_linrec_segmented::<i64>(isa);
            check_linrec_segmented::<u64>(isa);
        }
    }

    /// A `LinRec` output sweep takes the segments only from a hand-off its
    /// own recurrence made over its span: given one made by `Sum`, or by a
    /// recurrence with other coefficients of the same order, over the
    /// same span, it runs the register loop and is still exact. So does
    /// `Sum` given a recurrence's hand-off, and a `Sum` sweep given one
    /// `Sum` made of the same span and order at another stride, or at the
    /// same stride from another tuple lane (global index 1 instead of 0).
    #[test]
    fn output_sweeps_refuse_a_foreign_operators_handoff() {
        let n = 4096 + 37;
        let input = pseudo_random(n, 73);
        let op = LinRec::new(vec![2i64, -1]).unwrap();
        let other = LinRec::new(vec![2i64, 1]).unwrap();
        let mut by_sum = SegmentHandoff::default();
        let mut by_other = SegmentHandoff::default();
        let mut by_op = SegmentHandoff::default();
        Sum.cascade_totals(&input, 0, 1, &mut [0i64; 2], Some(&mut by_sum));
        other.cascade_totals(&input, 0, 1, &mut [0i64; 2], Some(&mut by_other));
        op.cascade_totals(&input, 0, 1, &mut [0i64; 2], Some(&mut by_op));
        let seed = vec![5i64, -7];
        for exclusive in [false, true] {
            let (want, end) = recurrence_oracle(op.coeffs(), &input, 1, &seed, exclusive);
            for handoff in [Some(&by_sum), Some(&by_other), None] {
                let mut dst = vec![0i64; n];
                let mut state = seed.clone();
                op.cascade_scan_from(&input, &mut dst, 0, 1, &mut state, exclusive, handoff);
                assert_eq!((&dst, &state), (&want, &end), "exc={exclusive} {handoff:?}");
            }
            let (want, end) = seeded_cascade_oracle(&input, 0, 1, &seed, exclusive);
            let mut dst = vec![0i64; n];
            let mut state = seed.clone();
            Sum.cascade_scan_from(&input, &mut dst, 0, 1, &mut state, exclusive, Some(&by_op));
            assert_eq!((&dst, &state), (&want, &end), "Sum exc={exclusive}");
        }
        let mut by_pairs = SegmentHandoff::default();
        let mut by_odd_pairs = SegmentHandoff::default();
        Sum.cascade_totals(&input, 0, 2, &mut [0i64; 4], Some(&mut by_pairs));
        Sum.cascade_totals(&input, 1, 2, &mut [0i64; 4], Some(&mut by_odd_pairs));
        let seed2 = vec![5i64, -7, 11, 3];
        for exclusive in [false, true] {
            let (want, end) = seeded_cascade_oracle(&input, 0, 1, &seed, exclusive);
            let mut dst = vec![0i64; n];
            let mut state = seed.clone();
            Sum.cascade_scan_from(
                &input,
                &mut dst,
                0,
                1,
                &mut state,
                exclusive,
                Some(&by_pairs),
            );
            assert_eq!((&dst, &state), (&want, &end), "s=1 exc={exclusive}");
            let (want, end) = seeded_cascade_oracle(&input, 0, 2, &seed2, exclusive);
            for handoff in [&by_sum, &by_odd_pairs, &by_pairs] {
                let mut dst = vec![0i64; n];
                let mut state = seed2.clone();
                Sum.cascade_scan_from(&input, &mut dst, 0, 2, &mut state, exclusive, Some(handoff));
                assert_eq!(
                    (&dst, &state),
                    (&want, &end),
                    "s=2 exc={exclusive} {handoff:?}"
                );
            }
        }
    }

    /// The companion power against repeated single steps, for powers with
    /// every bit pattern up to 2^10 (the square-and-multiply ladder).
    #[test]
    fn recurrence_companion_power_matches_repeated_steps() {
        let c = [3i64, -1, 2, 0, 1];
        let step = companion(&c);
        assert_eq!(step[0], c);
        assert_eq!(step[3], [0, 0, 1, 0, 0]);
        let mut expect = step;
        for m in 1..=1024 {
            assert_eq!(companion_pow(&c, m), expect, "m={m}");
            expect = mat_mul(&expect, &step);
        }
    }

    #[test]
    #[should_panic(expected = "cascade state")]
    fn cascade_state_shape_is_checked() {
        let mut dst = vec![0i64; 4];
        let mut state = vec![0i64; 5]; // not a multiple of s = 2
        Sum.cascade_scan_from(&[1i64, 2, 3, 4], &mut dst, 0, 2, &mut state, false, None);
    }

    #[test]
    #[should_panic(expected = "buffers must match")]
    fn fused_length_mismatch_panics() {
        let mut dst = vec![0i64; 3];
        serial::inclusive_strided_from(&[1i64, 2], &mut dst, &Sum, 1);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let mut dst = vec![0i64; 2];
        serial::inclusive_strided_from(&[1i64, 2], &mut dst, &Sum, 0);
    }
}
