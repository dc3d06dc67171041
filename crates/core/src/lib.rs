//! # sam-core — higher-order and tuple-based massively-parallel prefix sums
//!
//! Reproduction of the SAM algorithm from *Higher-Order and Tuple-Based
//! Massively-Parallel Prefix Sums* (Maleki, Yang, Burtscher — PLDI 2016).
//!
//! A prefix sum replaces every element of a sequence with the combination of
//! all elements up to it. This crate implements the paper's two orthogonal
//! generalizations — **higher-order** scans (iterated `q` times, inverting
//! order-`q` delta encoding) and **tuple-based** scans (`s` interleaved
//! independent scans) — in three engines sharing one specification type
//! ([`ScanSpec`]) and one operator abstraction ([`op::ScanOp`]):
//!
//! * [`serial`] — reference implementations (the correctness oracle);
//! * [`cpu`] — a real multi-threaded SAM: the calling thread plus
//!   persistent workers parked in one process-wide pool, which also owns
//!   the carry arena (one published-sum slot and ready counter per
//!   chunk), and the paper's carry protocol on host threads;
//! * [`kernel`] — the unified SAM kernel on the [`gpu_sim`] substrate, used
//!   by the paper-figure reproduction harness.
//!
//! ## Quickstart
//!
//! ```
//! use sam_core::{ScanSpec, op::Sum};
//!
//! // Delta-decode the paper's running example: a prefix sum.
//! let diffs = [1i32, 1, 1, 1, 1, -3, 2, 2, 2, 2];
//! let values = sam_core::scan(&diffs, &Sum, &ScanSpec::inclusive());
//! assert_eq!(values, vec![1, 2, 3, 4, 5, 2, 4, 6, 8, 10]);
//!
//! // A second-order, two-tuple exclusive scan — same entry point.
//! let spec = ScanSpec::exclusive().with_order(2).unwrap().with_tuple(2).unwrap();
//! let out = sam_core::scan(&diffs, &Sum, &spec);
//! assert_eq!(out.len(), diffs.len());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapt;
pub mod autotune;
pub mod block_scan;
pub mod carry;
pub mod chunk_kernel;
pub mod chunkops;
pub mod config;
pub mod cpu;
pub mod element;
pub mod envlock;
pub mod isa;
pub mod kernel;
pub mod obs;
pub mod op;
pub mod plan;
pub mod segmented;
pub mod serial;
pub mod simd;
pub mod validate;

pub use adapt::{Cost, DriverPhase, Geometry, TuningStore};
pub use carry::CarrySemigroup;
pub use chunk_kernel::{ChunkKernel, SegmentHandoff};
pub use config::{ScanKind, ScanSpec, SpecError};
pub use element::{IntElement, ScanElement};
pub use isa::Isa;
pub use kernel::{AuxMode, CarryPropagation, SamParams, SamRunInfo};
pub use obs::{Phase, ScanReport, Span, TraceSink, WaitHistogram};
pub use op::{LinRec, LinRecError, ScanOp};
pub use plan::{CarryState, CarryStateError, Engine, PlanHint, ScanPlan, ScanSession};

/// Scans `input` according to `spec` on a [`cpu::CpuScanner::default`]:
/// an input of at most one chunk is scanned serially on the calling
/// thread, a longer one in parallel on the process-wide worker pool.
///
/// This is the convenience entry point. Use [`ScanPlan`] / [`ScanSession`]
/// (or [`cpu::CpuScanner`] directly) to control worker count and chunking,
/// stream inputs in batches, or run on the simulated GPU.
pub fn scan<T, Op>(input: &[T], op: &Op, spec: &ScanSpec) -> Vec<T>
where
    T: ScanElement,
    Op: chunk_kernel::ChunkKernel<T>,
{
    cpu::CpuScanner::default().scan(input, op, spec)
}

/// Conventional inclusive prefix sum of `input` (order 1, tuple 1).
///
/// # Examples
///
/// ```
/// assert_eq!(sam_core::prefix_sum(&[1u32, 2, 3]), vec![1, 3, 6]);
/// ```
pub fn prefix_sum<T: ScanElement>(input: &[T]) -> Vec<T> {
    scan(input, &op::Sum, &ScanSpec::inclusive())
}
