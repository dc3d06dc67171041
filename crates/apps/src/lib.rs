//! # sam-apps — classic scan applications on SAM prefix sums
//!
//! Section 3 of the paper recalls why prefix sums matter: Blelloch showed
//! that a long list of seemingly-serial computations — sorting, lexical
//! analysis, stream compaction, polynomial evaluation — reduce to scans.
//! This crate implements a representative set on top of [`sam_core`]'s
//! engines, both as living documentation and as realistic integration
//! workloads for the scan library:
//!
//! * [`sort`] — the `split` primitive, bit-wise split sort, and byte-wise
//!   LSD radix sort (integers and floats, stable, by-key);
//! * [`lexer`] — parallel DFA lexing via transition-composition scans
//!   (Ladner–Fischer), with a packed-function representation that runs on
//!   the multi-threaded scan engine unchanged;
//! * [`polynomial`] — evaluation through exclusive prefix products;
//! * [`rle`] — run-length encoding/decoding through compaction and
//!   max-scan propagation;
//! * [`spmv`] — CSR sparse matrix–vector products through one segmented
//!   sum (load-balance oblivious);
//! * [`histogram`](mod@histogram) — atomic-free histograms through sort + boundary scans;
//! * [`sat`] — summed-area tables, whose column pass is literally a
//!   tuple-based scan with tuple size = image width;
//! * [`line_of_sight`] — terrain visibility via one max-scan;
//! * [`quicksort`] — Blelloch's flattened quicksort: every partition of
//!   the recursion tree split simultaneously by segmented scans;
//! * [`ema`] — EMA/IIR telemetry filtering and rolling hashes as
//!   linear-recurrence scans ([`sam_core::op::LinRec`]);
//! * [`ledger`] — compound-interest ledger rollups, one account per tuple
//!   lane, on the same recurrence operator.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ema;
pub mod histogram;
pub mod ledger;
pub mod lexer;
pub mod line_of_sight;
pub mod polynomial;
pub mod quicksort;
pub mod rle;
pub mod sat;
pub mod sort;
pub mod spmv;
pub mod string_compare;

pub use ema::{ema_fixed_point, iir_filter, leaky_accumulate, rolling_hash};
pub use histogram::histogram;
pub use ledger::{opening_balances, roll_forward, roll_forward_accounts};
pub use lexer::{tokenize, Dfa, Token, TokenKind};
pub use quicksort::quicksort_scan;
pub use rle::Run;
pub use sat::Sat;
pub use sort::{radix_sort, radix_sort_by_key, split, split_sort, RadixKey};
pub use spmv::CsrMatrix;
