//! Forced-path ISA dispatch matrix: every explicit SIMD/SWAR kernel
//! family this host can execute must agree exactly with a scalar oracle,
//! across element widths, tuple strides, orders, and adversarial lengths
//! (empty, single, lane-count ± 1, unaligned offsets, chunk-boundary
//! tails) — so a masked-tail bug in a vector kernel cannot land silently.
//!
//! The suite drives `sam_core::simd` through its explicit-ISA entry
//! points rather than `SAM_FORCE_KERNEL` (the process-wide override is
//! resolved once and cached, so one test process can only observe one
//! forced family; CI additionally runs the whole workspace under
//! `SAM_FORCE_KERNEL=scalar`). It also pins the *support contract*: which
//! (family, width, shape) pairs must take the SIMD path at all, so a
//! dispatch regression that silently falls back to scalar fails loudly
//! here instead of showing up as a benchmark cliff.
//!
//! Environment discipline: `cargo test` runs tests concurrently in one
//! process, so any test that *mutates* a `SAM_*` environment knob
//! (`SAM_FORCE_KERNEL`, `SAM_TUNING_DIR`, ...) must hold the process-wide
//! guard in [`sam_core::envlock`] for the mutation's whole scope — see
//! `tests/adaptive_plans.rs` for the pattern. This suite only ever
//! *reads* the resolved family, which is cached process-wide at first
//! use, so it needs no lock.

use gpu_sim::Pod64;
use sam_core::chunk_kernel::{RECURRENCE_SEGMENT_MIN_ELEMS, SEGMENT_MIN_ELEMS};
use sam_core::cpu::CpuScanner;
use sam_core::isa::{self, Isa};
use sam_core::op::{LinRec, Sum};
use sam_core::plan::{PlanHint, ScanPlan};
use sam_core::simd;
use sam_core::Engine;
use sam_core::{serial, ChunkKernel, ScanElement, ScanKind, ScanSpec, SegmentHandoff};

/// Lengths chosen to straddle every kernel's internal boundaries: SWAR
/// words (8/16 lanes), AVX2 vectors (4/8/16/32 lanes), AVX-512 vectors
/// (8/16/32/64 lanes), their prologue/tail combinations, and plain odd
/// sizes.
const LENGTHS: [usize; 22] = [
    0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 255, 1000, 1023,
];

fn pattern<T: ScanElement>(n: usize, seed: u64) -> Vec<T> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            T::from_i64((state >> 17) as i64)
        })
        .collect()
}

// --- Scalar oracles --------------------------------------------------------

/// Stride-1 inclusive running sum seeded with `carry`; returns the final
/// running total (the kernels' carry-out).
fn stride1_oracle<T: ScanElement>(src: &[T], carry: T) -> (Vec<T>, T) {
    let mut running = carry;
    let out = src
        .iter()
        .map(|&x| {
            running = running.add(x);
            running
        })
        .collect();
    (out, running)
}

/// Vertical order-`q` tuple-`s` cascade: per lane `l = j % s`, element `j`
/// feeds row 0 of the `q x s` state and cascades upward; the output is the
/// top row (previous value for exclusive scans). Mirrors the definition in
/// `sam_core::chunk_kernel`'s scalar vertical kernels.
fn vertical_oracle<T: ScanElement>(
    src: &[T],
    s: usize,
    state: &mut [T],
    exclusive: bool,
) -> Vec<T> {
    let q = state.len() / s;
    let top = (q - 1) * s;
    src.iter()
        .enumerate()
        .map(|(j, &x)| {
            let l = j % s;
            let prev = state[top + l];
            state[l] = state[l].add(x);
            for i in 1..q {
                state[i * s + l] = state[i * s + l].add(state[(i - 1) * s + l]);
            }
            if exclusive {
                prev
            } else {
                state[top + l]
            }
        })
        .collect()
}

/// `n` elements of `buf` that start `skew` elements past the position
/// sharing `like`'s offset within a 64-byte line; `buf` needs
/// `n + skew + 64 / size_of::<T>()` elements. With `skew == 0` the slice is
/// aligned like `like`, which is what lets a sweep from `like` into it use
/// whole-line streaming stores.
fn aligned_like<'a, T>(buf: &'a mut [T], like: &[T], n: usize, skew: usize) -> &'a mut [T] {
    let gap = (like.as_ptr() as usize).wrapping_sub(buf.as_ptr() as usize) % 64;
    let start = gap / std::mem::size_of::<T>() + skew;
    &mut buf[start..start + n]
}

fn seeded_state<T: ScanElement>(q: usize, s: usize) -> Vec<T> {
    (0..q * s).map(|i| T::from_i64(3 * i as i64 + 7)).collect()
}

// --- Support contract ------------------------------------------------------

/// Whether `isa` must provide a stride-1 kernel for elements of `width`
/// bytes. This is the dispatch table in `sam_core::simd::stride1_from`,
/// restated independently so the two cannot drift without a test failure.
fn expect_stride1(isa: Isa, width: usize) -> bool {
    if isa == Isa::Scalar {
        return false;
    }
    match width {
        // Packed SWAR words are little-endian by construction.
        1 | 2 => cfg!(target_endian = "little"),
        4 | 8 if cfg!(target_arch = "x86_64") => matches!(isa, Isa::Avx2 | Isa::Avx512),
        4 | 8 if cfg!(target_arch = "aarch64") => isa == Isa::Neon,
        _ => false,
    }
}

/// Whether `isa` must provide a vertical kernel for row width `b = s * W`
/// bytes: any non-scalar family once a row spans at least one SWAR word.
fn expect_vertical(isa: Isa, row_bytes: usize) -> bool {
    isa != Isa::Scalar && row_bytes >= 8
}

#[test]
fn stride1_support_contract() {
    for isa in isa::available() {
        for (width, taken) in [
            (
                1,
                simd::stride1_from(isa, &[1u8; 40], &mut [0u8; 40], 0).is_some(),
            ),
            (
                2,
                simd::stride1_from(isa, &[1u16; 40], &mut [0u16; 40], 0).is_some(),
            ),
            (
                4,
                simd::stride1_from(isa, &[1i32; 40], &mut [0i32; 40], 0).is_some(),
            ),
            (
                8,
                simd::stride1_from(isa, &[1i64; 40], &mut [0i64; 40], 0).is_some(),
            ),
        ] {
            assert_eq!(
                taken,
                expect_stride1(isa, width),
                "{isa} width-{width} stride-1 support drifted from the contract"
            );
        }
    }
}

#[test]
fn vertical_support_contract() {
    for isa in isa::available() {
        // (s, W) pairs spanning both sides of the b >= 8 threshold.
        for (s, b, taken) in [
            (2usize, 2, {
                let mut st = seeded_state::<u8>(1, 2);
                simd::vertical_totals(isa, &[1u8; 32], 2, &mut st)
            }),
            (5, 5, {
                let mut st = seeded_state::<u8>(2, 5);
                simd::vertical_totals(isa, &[1u8; 35], 5, &mut st)
            }),
            (8, 8, {
                let mut st = seeded_state::<u8>(1, 8);
                simd::vertical_totals(isa, &[1u8; 32], 8, &mut st)
            }),
            (2, 8, {
                let mut st = seeded_state::<i32>(2, 2);
                simd::vertical_totals(isa, &[1i32; 32], 2, &mut st)
            }),
            (5, 40, {
                let mut st = seeded_state::<i64>(8, 5);
                simd::vertical_totals(isa, &[1i64; 35], 5, &mut st)
            }),
        ] {
            assert_eq!(
                taken,
                expect_vertical(isa, b),
                "{isa} s={s} b={b} vertical support drifted from the contract"
            );
        }
    }
}

#[test]
fn scalar_family_always_declines() {
    assert!(simd::stride1_from(Isa::Scalar, &[1i64; 8], &mut [0i64; 8], 0).is_none());
    let mut state = seeded_state::<i64>(2, 8);
    assert!(!simd::vertical_from(
        Isa::Scalar,
        &[1i64; 32],
        &mut [0i64; 32],
        8,
        &mut state,
        false
    ));
    assert!(!simd::vertical_totals(
        Isa::Scalar,
        &[1i64; 32],
        8,
        &mut state
    ));
}

// --- Stride-1 equivalence matrix -------------------------------------------

/// Runs every available family over every adversarial length at aligned
/// and offset-by-one-element positions, from a zero and from a non-zero
/// seed, comparing outputs and carry-out against the oracle. The offset
/// run shifts both slices off the vector kernels' natural alignment,
/// exercising the dst-aligning prologues.
fn stride1_matrix<T: ScanElement>(seed: u64) {
    let carry = T::from_i64(0x55);
    for isa in isa::available() {
        if !expect_stride1(isa, std::mem::size_of::<T>()) {
            continue;
        }
        for &n in &LENGTHS {
            for offset in [0usize, 1] {
                let backing = pattern::<T>(n + offset, seed);
                let src = &backing[offset..];
                for c0 in [T::ZERO, carry] {
                    let (want, want_carry) = stride1_oracle(src, c0);
                    let mut dst = vec![T::ZERO; n + offset];
                    let got_carry = simd::stride1_from(isa, src, &mut dst[offset..], c0)
                        .expect("support contract says this path is taken");
                    let ctx = format!("{isa} n={n} off={offset} carry={c0:?}");
                    assert_eq!(dst[offset..], want[..], "{ctx} stride-1 output");
                    assert_eq!(got_carry, want_carry, "{ctx} carry-out");
                }
            }
        }
    }
}

#[test]
fn stride1_matches_oracle_u8() {
    stride1_matrix::<u8>(0x1111);
}

#[test]
fn stride1_matches_oracle_u16() {
    stride1_matrix::<u16>(0x2222);
}

#[test]
fn stride1_matches_oracle_i32() {
    stride1_matrix::<i32>(0x3333);
}

#[test]
fn stride1_matches_oracle_i64() {
    stride1_matrix::<i64>(0x4444);
}

#[test]
fn stride1_matches_oracle_u32_u64() {
    stride1_matrix::<u32>(0x5555);
    stride1_matrix::<u64>(0x6666);
}

// --- Vertical equivalence matrix -------------------------------------------

/// Bytes of the block the register-resident small-row sweeps (rows of at
/// most 64 bytes) scan orders above 1 through, one level at a time.
const SMALL_BLOCK_BYTES: usize = 4096;

/// Both vertical sweeps (from, totals) for one element
/// type over orders × strides × tail shapes × both scan kinds, with a
/// nonzero seeded state so carried-in history is part of every check.
fn vertical_matrix<T: ScanElement>(seed: u64) {
    for isa in isa::available() {
        for q in [1usize, 2, 5, 8] {
            for s in [1usize, 2, 3, 5, 7, 8] {
                let row_bytes = s * std::mem::size_of::<T>();
                if !expect_vertical(isa, row_bytes) {
                    continue;
                }
                // Full rows plus every tail shape: none, one element, one
                // short of a row.
                let mut lens: Vec<usize> = [0, 1, s - 1].iter().map(|tail| 6 * s + tail).collect();
                if q > 1 {
                    // One row below, at and above one and two blocks, so
                    // the state crosses a block seam mid-span.
                    let block_rows = (SMALL_BLOCK_BYTES / row_bytes).max(1);
                    for rows in [block_rows, 2 * block_rows] {
                        lens.extend([rows - 1, rows, rows + 1].map(|r| r * s));
                    }
                }
                for n in lens {
                    for exclusive in [false, true] {
                        let src = pattern::<T>(n, seed ^ (n as u64) << 8 ^ q as u64);

                        let mut oracle_state = seeded_state::<T>(q, s);
                        let want = vertical_oracle(&src, s, &mut oracle_state, exclusive);

                        let mut state = seeded_state::<T>(q, s);
                        let mut dst = vec![T::ZERO; n];
                        assert!(
                            simd::vertical_from(isa, &src, &mut dst, s, &mut state, exclusive),
                            "support contract says {isa} q={q} s={s} is taken"
                        );
                        let ctx = format!("{isa} q={q} s={s} n={n} excl={exclusive}");
                        assert_eq!(dst, want, "{ctx} vertical_from output");
                        assert_eq!(state, oracle_state, "{ctx} vertical_from state");

                        let mut state2 = seeded_state::<T>(q, s);
                        assert!(simd::vertical_totals(isa, &src, s, &mut state2));
                        assert_eq!(state2, oracle_state, "{ctx} vertical_totals state");
                    }
                }
            }
        }
    }
}

#[test]
fn vertical_matches_oracle_u8() {
    vertical_matrix::<u8>(0xaaaa);
}

#[test]
fn vertical_matches_oracle_u16() {
    vertical_matrix::<u16>(0xbbbb);
}

#[test]
fn vertical_matches_oracle_i32() {
    vertical_matrix::<i32>(0xcccc);
}

#[test]
fn vertical_matches_oracle_i64() {
    vertical_matrix::<i64>(0xdddd);
}

/// Crossing the non-temporal store threshold (8 MiB of output) switches
/// the x86 stride-1 and small-row vertical kernels to streaming stores
/// with software prefetch; nothing below the threshold exercises that
/// code, so cover it explicitly at `8 MiB + tail`.
#[test]
fn nt_threshold_matches_oracle() {
    let n = (1 << 20) + 7; // i64: just past NT_STORE_MIN_BYTES, odd tail
    let carry = 11i64;
    let src = pattern::<i64>(n, 0x6001);
    for isa in isa::available() {
        if expect_stride1(isa, 8) {
            let (want, want_carry) = stride1_oracle(&src, carry);
            let mut dst = vec![0i64; n];
            let got = simd::stride1_from(isa, &src, &mut dst, carry).unwrap();
            assert_eq!(dst, want, "{isa} stride-1 above the NT threshold");
            assert_eq!(got, want_carry, "{isa} stride-1 NT carry-out");
        }
        if isa == Isa::Scalar {
            continue;
        }
        // Tuple-2 orders 1 and 2: the register-resident small-row path,
        // which streams its stores above the threshold when dst is
        // 8-aligned.
        for q in [1, 2] {
            let mut oracle_state = seeded_state::<i64>(q, 2);
            let want = vertical_oracle(&src, 2, &mut oracle_state, false);
            let mut state = seeded_state::<i64>(q, 2);
            let mut dst = vec![0i64; n];
            assert!(simd::vertical_from(
                isa, &src, &mut dst, 2, &mut state, false
            ));
            assert_eq!(
                dst, want,
                "{isa} q={q} small-row vertical above the NT threshold"
            );
            assert_eq!(state, oracle_state, "{isa} q={q} small-row NT state");
        }
        // A 4-byte-aligned-only destination must decline streaming stores
        // and still be correct: offset an i32 buffer by one element.
        let src32 = pattern::<i32>(n + 1, 0x6002);
        let mut oracle_state = seeded_state::<i32>(1, 2);
        let want = vertical_oracle(&src32[1..], 2, &mut oracle_state, true);
        let mut state = seeded_state::<i32>(1, 2);
        let mut dst = vec![0i32; n + 1];
        assert!(simd::vertical_from(
            isa,
            &src32[1..],
            &mut dst[1..],
            2,
            &mut state,
            true
        ));
        assert_eq!(dst[1..], want[..], "{isa} unaligned small-row NT decline");
        assert_eq!(state, oracle_state, "{isa} unaligned small-row state");
    }
}

/// The CPU engine past the threshold. Under a scoped 1 MiB threshold the
/// scan's output (about 3 MiB of i64, 1.5 MiB of i32) crosses it while
/// each default 32 Ki-element chunk stays below it, so every chunk sweep
/// with a streaming path takes it: the stride-1 kernels at order 1, tuple
/// 1, the lane-segmented sweeps at orders 2 and 8, tuple 1, and the
/// small-row vertical kernel at tuples 2 and 5. One output starts one
/// element into its buffer: 8-aligned but not line-aligned for i64 (the
/// stride-1 kernels' aligning prologue; the segmented sweeps decline to
/// stream into a destination aligned unlike its source), only 4-aligned
/// for i32 (the small-row kernel's decline path). The other is aligned
/// like the input, so the segmented sweeps stream. The serial oracle runs
/// before the threshold is installed, so it stays on cacheable stores.
#[test]
fn cpu_engine_streams_past_the_scan_threshold() {
    fn check<T, Op>(input: &[T], op: &Op, spec: &ScanSpec, tag: &str)
    where
        T: ScanElement + Pod64 + std::fmt::Debug + PartialEq,
        Op: ChunkKernel<T>,
    {
        let want = serial::scan(input, op, spec);
        let _nt = simd::nt_store_override(1 << 20);
        let mut out = vec![T::ZERO; input.len() + 1];
        CpuScanner::new(2).scan_into(input, &mut out[1..], op, spec);
        assert!(out[1..] == want[..], "{tag} {spec:?}");
        let mut buf = vec![T::ZERO; input.len() + 64];
        let out = aligned_like(&mut buf, input, input.len(), 0);
        CpuScanner::new(2).scan_into(input, out, op, spec);
        assert!(out[..] == want[..], "{tag} {spec:?} aligned like the input");
    }
    let n = 3 * (1 << 17) + 37;
    let (src64, src32) = (pattern::<i64>(n, 0x6003), pattern::<i32>(n, 0x6004));
    // The bulk_sum corners: (order, tuple, exclusive).
    for (q, s, exclusive) in [
        (1, 1, false),
        (1, 1, true),
        (2, 1, false),
        (8, 1, false),
        (1, 2, false),
        (2, 2, false),
        (5, 5, false),
    ] {
        let kind = if exclusive {
            ScanSpec::exclusive()
        } else {
            ScanSpec::inclusive()
        };
        let spec = kind.with_order(q).unwrap().with_tuple(s).unwrap();
        check(&src64, &Sum, &spec, "i64");
        check(&src32, &Sum, &spec, "i32");
    }
    let spec = ScanSpec::inclusive();
    check(
        &src64,
        &LinRec::first_order(3i64).unwrap(),
        &spec,
        "i64 rec1",
    );
    check(
        &src32,
        &LinRec::first_order(3i32).unwrap(),
        &spec,
        "i32 rec1",
    );
}

// --- Lane-segmented sweeps --------------------------------------------------

/// Whether `isa` must provide segmented stride-1 sum sweeps for elements
/// of `width` bytes, and in how many lanes: the table of
/// `sam_core::simd::segment_lanes`, restated.
fn expect_segment_lanes(isa: Isa, width: usize) -> Option<usize> {
    match (isa, width) {
        (Isa::Avx512, 8) if cfg!(target_arch = "x86_64") => Some(8),
        (Isa::Avx2, 8) if cfg!(target_arch = "x86_64") => Some(4),
        _ => None,
    }
}

#[test]
fn segment_support_contract() {
    for isa in isa::available() {
        assert_eq!(
            simd::segment_lanes::<i64>(isa),
            expect_segment_lanes(isa, 8),
            "{isa} i64"
        );
        assert_eq!(
            simd::segment_lanes::<u64>(isa),
            expect_segment_lanes(isa, 8),
            "{isa} u64"
        );
        assert_eq!(simd::segment_lanes::<i32>(isa), None, "{isa} i32");
        assert_eq!(simd::segment_lanes::<f64>(isa), None, "{isa} f64");
        // Recurrence segments need a 64-bit multiply: `vpmullq` under
        // AVX-512, an emulated one under AVX2; the same lane counts.
        assert_eq!(
            simd::recurrence_segment_lanes::<i64>(isa),
            expect_segment_lanes(isa, 8),
            "{isa} i64 recurrence"
        );
        assert_eq!(
            simd::recurrence_segment_lanes::<u64>(isa),
            expect_segment_lanes(isa, 8),
            "{isa} u64 recurrence"
        );
        assert_eq!(
            simd::recurrence_segment_lanes::<i32>(isa),
            None,
            "{isa} i32 recurrence"
        );
    }
}

/// Set in the child processes that
/// [`segmented_sweeps_match_serial_under_each_forced_family`] starts.
const FORCED_CHILD_ENV: &str = "SAM_ISA_DISPATCH_FORCED_CHILD";

/// Elements before the span whose end state seeds the non-zero-seed case;
/// fewer than [`SEGMENT_MIN_ELEMS`], so the register loop computes it.
const SEED_PREFIX: usize = 37;

/// The CPU engine's two sweeps per chunk, through the public trait: a
/// totals sweep that fills a hand-off, then an output sweep given it,
/// against `serial::scan` bit for bit (`EXACT_RING` types). Orders 2–8 at
/// tuple size `s` over `lengths`, inclusive and exclusive, from a zero
/// seed at global index 0 and from the end state of a prefix at global
/// index [`SEED_PREFIX`] (so that tuple segments also start off tuple
/// lane 0), with streaming stores forced on and off, into a destination
/// aligned like the source (where stores can stream) and one element off
/// it (where they must not). Each output sweep's end state must equal the
/// totals sweep's and the row kernel's (an output sweep given no
/// hand-off). A span takes the segments when it is at least
/// [`SEGMENT_MIN_ELEMS`] long and holds a whole `lanes x lanes x s` block
/// past the source's first vector boundary.
fn segmented_grid<T: ScanElement + std::fmt::Debug + PartialEq>(
    seed: u64,
    s: usize,
    lengths: impl Iterator<Item = usize>,
) {
    assert!(T::EXACT_RING);
    let lanes = simd::segment_lanes::<T>(isa::resolved());
    for n in lengths {
        let full = pattern::<T>(SEED_PREFIX + n, seed ^ n as u64);
        let src = &full[SEED_PREFIX..];
        let segmented = lanes.is_some_and(|l| {
            let head = src.as_ptr().align_offset(8 * l).min(n);
            n >= SEGMENT_MIN_ELEMS && n - head >= l * l * s
        });
        for q in 2..=8u32 {
            let qs = q as usize * s;
            for prefix in [0, SEED_PREFIX] {
                let tag = format!("{} q={q} s={s} n={n} prefix={prefix}", isa::resolved());
                let mut start = vec![T::ZERO; qs];
                let head = &full[SEED_PREFIX - prefix..SEED_PREFIX];
                Sum.cascade_totals(head, 0, s, &mut start, None);
                let mut totals = start.clone();
                let mut handoff = SegmentHandoff::default();
                Sum.cascade_totals(src, prefix, s, &mut totals, Some(&mut handoff));
                assert_eq!(handoff.describes(src), segmented, "{tag}");
                for kind in [ScanSpec::inclusive(), ScanSpec::exclusive()] {
                    let spec = kind.with_order(q).unwrap().with_tuple(s).unwrap();
                    let exclusive = spec.kind() == ScanKind::Exclusive;
                    let want = &serial::scan(&full[SEED_PREFIX - prefix..], &Sum, &spec)[prefix..];
                    let mut plain = vec![T::ZERO; n];
                    let mut end = start.clone();
                    Sum.cascade_scan_from(src, &mut plain, prefix, s, &mut end, exclusive, None);
                    assert_eq!(plain, want, "row kernel {tag} {spec:?}");
                    assert_eq!(totals, end, "totals {tag}");
                    for (nt, skew) in [(1, 0), (1, 1), (usize::MAX, 0)] {
                        let _nt = simd::nt_store_override(nt);
                        let mut buf = vec![T::ZERO; n + 9];
                        let dst = aligned_like(&mut buf, src, n, skew);
                        let mut state = start.clone();
                        let h = Some(&handoff);
                        Sum.cascade_scan_from(src, dst, prefix, s, &mut state, exclusive, h);
                        assert_eq!(dst, want, "{tag} {spec:?} nt={nt} skew={skew}");
                        assert_eq!(state, end, "end state {tag} {spec:?} nt={nt} skew={skew}");
                    }
                }
            }
        }
    }
}

/// [`segmented_grid`] at stride 1: every length to 300, both sides of the
/// first eight 64-element tile groups and of the 32 Ki-element chunk.
fn stride1_segmented_grid<T: ScanElement + std::fmt::Debug + PartialEq>(seed: u64) {
    let lengths = (0..=300usize)
        .chain((1..=8).flat_map(|k| [64 * k - 1, 64 * k + 1]))
        .chain([(1 << 15) - 1, (1 << 15) + 1]);
    segmented_grid::<T>(seed, 1, lengths);
}

/// [`segmented_grid`] at every tuple size 2–8 of the shape table, for
/// `i64` (`u64` runs the same kernels): a few short lengths, 300, and both
/// sides of the tile-group multiples around the shortest segmented spans
/// (`8 x 8 x s` elements under AVX-512). The unit tests of `chunk_kernel`
/// run every length to 300 and the 32 Ki-element chunks on every family.
fn tuple_segmented_grid(seed: u64) {
    for s in 2..=8 {
        let lengths = (0..=3usize).chain([300]).chain(
            [4, 5, 8, 9]
                .into_iter()
                .flat_map(|k| [64 * k - 1, 64 * k + 1]),
        );
        segmented_grid::<i64>(seed ^ ((s as u64) << 12), s, lengths);
    }
}

/// The bench's order-8 recurrence (`bulk_linrec` rec8).
const TAPS8: [i64; 8] = [3, -1, 2, 0, 1, -2, 1, 1];

/// [`segmented_grid`] for `LinRec`: orders 1–8 with wide pseudo-random
/// coefficients, and [`TAPS8`]. Recurrence spans split only from
/// [`RECURRENCE_SEGMENT_MIN_ELEMS`], so the lengths are a few short ones
/// and both sides of that threshold and of the 64-element tile groups up
/// to 20 (the unit tests of `chunk_kernel` run the full grid, 32
/// Ki-element chunks included, on every family).
fn linrec_segmented_grid<T: ScanElement + std::fmt::Debug + PartialEq>(seed: u64) {
    assert!(T::EXACT_RING);
    let segmented = simd::recurrence_segment_lanes::<T>(isa::resolved()).is_some();
    let lengths = (0..=4usize)
        .chain([300])
        .chain((8..=20).flat_map(|k| [64 * k - 1, 64 * k + 1]));
    let coeff_sets: Vec<Vec<T>> = (1..=8)
        .map(|q| pattern::<T>(q, seed ^ (q as u64) << 8))
        .chain([TAPS8.iter().map(|&c| T::from_i64(c)).collect()])
        .collect();
    for n in lengths {
        let full = pattern::<T>(SEED_PREFIX + n, seed ^ n as u64);
        let src = &full[SEED_PREFIX..];
        for coeffs in &coeff_sets {
            let op = LinRec::new(coeffs.clone()).expect("exact ring");
            let q = coeffs.len();
            for prefix in [0, SEED_PREFIX] {
                let tag = format!(
                    "{} coeffs={coeffs:?} n={n} prefix={prefix}",
                    isa::resolved()
                );
                let mut start = vec![T::ZERO; q];
                op.cascade_totals(
                    &full[SEED_PREFIX - prefix..SEED_PREFIX],
                    0,
                    1,
                    &mut start,
                    None,
                );
                let mut totals = start.clone();
                let mut handoff = SegmentHandoff::default();
                op.cascade_totals(src, 0, 1, &mut totals, Some(&mut handoff));
                assert_eq!(
                    handoff.describes(src),
                    segmented && n >= RECURRENCE_SEGMENT_MIN_ELEMS,
                    "{tag}"
                );
                for kind in [ScanSpec::inclusive(), ScanSpec::exclusive()] {
                    let spec = kind.with_order(q as u32).unwrap();
                    let exclusive = spec.kind() == ScanKind::Exclusive;
                    let want = &serial::scan(&full[SEED_PREFIX - prefix..], &op, &spec)[prefix..];
                    let mut plain = vec![T::ZERO; n];
                    let mut end = start.clone();
                    op.cascade_scan_from(src, &mut plain, 0, 1, &mut end, exclusive, None);
                    assert_eq!(plain, want, "register loop {tag} {spec:?}");
                    assert_eq!(totals, end, "totals {tag}");
                    for (nt, skew) in [(1, 0), (1, 1), (usize::MAX, 0)] {
                        let _nt = simd::nt_store_override(nt);
                        let mut buf = vec![T::ZERO; n + 9];
                        let dst = aligned_like(&mut buf, src, n, skew);
                        let mut state = start.clone();
                        op.cascade_scan_from(src, dst, 0, 1, &mut state, exclusive, Some(&handoff));
                        assert_eq!(dst, want, "{tag} {spec:?} nt={nt} skew={skew}");
                        assert_eq!(state, end, "end state {tag} {spec:?} nt={nt} skew={skew}");
                    }
                }
            }
        }
    }
}

/// The segmented grids (stride 1 and tuples of [`segmented_grid`], and
/// [`linrec_segmented_grid`]) under every kernel family this host can
/// execute, each in a child process of this binary with `SAM_FORCE_KERNEL` set to
/// it: the family is resolved once per process, and the trait's sweeps
/// take the resolved one.
#[test]
fn segmented_sweeps_match_serial_under_each_forced_family() {
    let name = "segmented_sweeps_match_serial_under_each_forced_family";
    if std::env::var_os(FORCED_CHILD_ENV).is_some() {
        stride1_segmented_grid::<i64>(0x7101);
        stride1_segmented_grid::<u64>(0x7102);
        tuple_segmented_grid(0x7105);
        linrec_segmented_grid::<i64>(0x7103);
        linrec_segmented_grid::<u64>(0x7104);
        return;
    }
    for family in isa::available() {
        let exe = std::env::current_exe().expect("path of the test binary");
        let out = std::process::Command::new(exe)
            .args([name, "--exact", "--test-threads=1"])
            .env(FORCED_CHILD_ENV, "1")
            .env("SAM_FORCE_KERNEL", family.name())
            .output()
            .expect("start the forced-family run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("test result: ok. 1 passed"),
            "run under SAM_FORCE_KERNEL={family} failed ({}):\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

// --- Engine-level equivalence ----------------------------------------------

/// Whole-engine scans on narrow integer types under whatever family the
/// process resolved (CI runs this same test with `SAM_FORCE_KERNEL=scalar`
/// and with AVX2 enabled at compile time): serial and chunked-CPU engines
/// must agree with a from-definition reference on every spec.
fn engine_grid<T: ScanElement>(seed: u64) {
    let cpu = CpuScanner::new(3).with_chunk_elems(64);
    for n in [0usize, 1, 63, 64, 65, 1000] {
        let input = pattern::<T>(n, seed);
        for order in [1u32, 2, 5] {
            for tuple in [1usize, 2, 5, 8] {
                for spec in [ScanSpec::inclusive(), ScanSpec::exclusive()] {
                    let spec = spec
                        .with_order(order)
                        .expect("valid order")
                        .with_tuple(tuple)
                        .expect("valid tuple");
                    let want = serial::scan(&input, &Sum, &spec);
                    // serial::scan is itself routed through the dispatch
                    // under test, so anchor it to the oracle first.
                    let mut state = vec![T::ZERO; order as usize * tuple];
                    let oracle = vertical_oracle(
                        &input,
                        tuple,
                        &mut state,
                        spec.kind() == sam_core::ScanKind::Exclusive,
                    );
                    assert_eq!(want, oracle, "serial vs oracle q={order} s={tuple} n={n}");
                    let got = cpu.scan(&input, &Sum, &spec);
                    assert_eq!(want, got, "cpu vs serial q={order} s={tuple} n={n}");
                }
            }
        }
    }
}

#[test]
fn engines_agree_on_narrow_types() {
    engine_grid::<u8>(0x7001);
    engine_grid::<u16>(0x7002);
    engine_grid::<i32>(0x7003);
}

#[test]
fn engines_agree_on_wide_types() {
    engine_grid::<i64>(0x7004);
    engine_grid::<u64>(0x7005);
}

// --- Observability ---------------------------------------------------------

#[test]
fn plan_and_report_record_resolved_family() {
    let resolved = isa::resolved();
    assert!(
        resolved.is_available(),
        "resolved family must be executable"
    );
    let plan = ScanPlan::new(
        ScanSpec::inclusive(),
        Engine::Cpu(CpuScanner::new(2)),
        PlanHint::expected_len(256).with_trace(),
    );
    assert_eq!(
        plan.isa(),
        resolved,
        "plan snapshots the process-wide family"
    );
    let session = plan.session::<i64, _>(Sum);
    let input = pattern::<i64>(256, 0x8001);
    let mut out = vec![0i64; 256];
    session.scan_into(&input, &mut out);
    let report = session
        .last_report()
        .expect("traced plan produces a report");
    assert_eq!(
        report.isa,
        resolved.name(),
        "report carries the family name"
    );
    assert!(
        report.summary().contains(resolved.name()),
        "summary names the kernel family: {}",
        report.summary()
    );
}

#[test]
fn family_names_round_trip() {
    for isa in Isa::ALL {
        assert_eq!(
            Isa::from_name(isa.name()),
            Some(isa),
            "{isa} name round-trip"
        );
    }
    assert_eq!(Isa::from_name("sse9"), None);
    // The detection floor: SWAR needs no CPU features, so it is always
    // available and `available()` always contains Scalar and Swar.
    let avail = isa::available();
    assert!(avail.contains(&Isa::Scalar) && avail.contains(&Isa::Swar));
    assert!(avail.contains(&isa::detect()));
}

// --- Narrow-count app paths ------------------------------------------------

/// `radix_sort` above 65 536 elements switches from u16 to u32 counting
/// scans; cross the boundary and verify against a comparison sort.
#[test]
fn radix_sort_crosses_count_width_boundary() {
    let mut keys: Vec<u32> = pattern::<i64>(70_000, 0x9001)
        .into_iter()
        .map(|v| v as u32)
        .collect();
    let mut want = keys.clone();
    want.sort_unstable();
    sam_apps::sort::radix_sort(&mut keys);
    assert_eq!(keys, want);
}
