//! Simulated global (main) memory.
//!
//! Two buffer kinds are provided:
//!
//! * [`GlobalBuffer<T>`] — bulk element storage. Accesses go through
//!   instrumented warp- or block-level operations that count 128-byte-segment
//!   memory transactions exactly the way CUDA hardware coalesces them:
//!   the words simultaneously touched by a warp are grouped by aligned
//!   128-byte segment and each distinct segment costs one transaction.
//! * [`AtomicWordBuffer`] — word-granularity storage with acquire/release
//!   semantics, used for the auxiliary local-sum and ready-flag arrays that
//!   persistent thread blocks communicate through. Values are stored as `u64`
//!   bit patterns (every element type in this workspace fits; see
//!   [`Pod64`]), which keeps cross-thread publication sound without locks.
//!
//! Element buffers are intentionally *not* synchronized: like real global
//! memory, racy access is a kernel bug. Kernels in this workspace partition
//! element ranges between blocks, and the integration tests validate every
//! kernel against a serial oracle.

use crate::device::SEGMENT_BYTES;
use crate::metrics::{AccessClass, Metrics};
use crate::sched::{self, HookPoint};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Marker for types that may live in simulated device memory.
pub trait DeviceCopy: Copy + Send + Sync + 'static {}
impl<T: Copy + Send + Sync + 'static> DeviceCopy for T {}

/// Types representable as a `u64` bit pattern, so they can be published
/// through [`AtomicWordBuffer`] slots.
///
/// The conversion must be lossless: `from_bits(to_bits(x)) == x`.
pub trait Pod64: DeviceCopy {
    /// Converts the value to its `u64` bit pattern.
    fn to_bits(self) -> u64;
    /// Recovers a value from the bit pattern produced by [`Pod64::to_bits`].
    fn from_bits(bits: u64) -> Self;
}

macro_rules! impl_pod64_int {
    ($($t:ty),*) => {$(
        impl Pod64 for $t {
            #[inline]
            fn to_bits(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_bits(bits: u64) -> Self {
                bits as $t
            }
        }
    )*};
}
impl_pod64_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Pod64 for f32 {
    #[inline]
    fn to_bits(self) -> u64 {
        u64::from(self.to_bits())
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

impl Pod64 for f64 {
    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

/// Counts the distinct aligned 128-byte segments touched when a warp
/// simultaneously accesses the given element indices (each element being
/// `elem_bytes` wide). This is exactly the number of memory transactions the
/// hardware issues for the warp access.
///
/// Indices must be sorted or nearly sorted for the count to be exact with a
/// single pass; the kernels in this workspace access monotone index sets.
/// For safety against unsorted inputs a small dedup over segment ids is used.
pub fn segments_touched(indices: &[usize], elem_bytes: usize) -> u64 {
    debug_assert!(elem_bytes > 0 && elem_bytes <= SEGMENT_BYTES);
    let per_segment = SEGMENT_BYTES / elem_bytes;
    let mut count = 0u64;
    let mut last = usize::MAX;
    for &i in indices {
        let seg = i / per_segment;
        if seg != last {
            // Strided and AoS patterns revisit segments non-adjacently;
            // scan backwards over a small window to avoid double counting.
            count += 1;
            last = seg;
        }
    }
    count
}

/// Number of transactions needed for a fully coalesced access to
/// `words` contiguous elements of `elem_bytes` each.
pub fn contiguous_transactions(words: usize, elem_bytes: usize) -> u64 {
    if words == 0 {
        return 0;
    }
    let per_segment = SEGMENT_BYTES / elem_bytes;
    (words as u64).div_ceil(per_segment as u64)
}

/// Bulk element storage in simulated global memory.
///
/// Distinct blocks may access *disjoint* regions concurrently; the structure
/// is `Sync` under that discipline, mirroring real global memory.
///
/// # Examples
///
/// ```
/// use gpu_sim::{GlobalBuffer, Metrics, AccessClass};
///
/// let metrics = Metrics::new();
/// let buf = GlobalBuffer::from_vec((0..256i32).collect());
/// let mut out = vec![0i32; 32];
/// buf.load_block(&metrics, 0, &mut out, AccessClass::Element);
/// assert_eq!(out[31], 31);
/// // 32 contiguous i32 = 128 bytes = exactly one transaction.
/// assert_eq!(metrics.snapshot().elem_read_transactions, 1);
/// ```
pub struct GlobalBuffer<T> {
    data: Box<[UnsafeCell<T>]>,
}

// SAFETY: access discipline is the kernel author's responsibility, exactly
// as on real hardware. All kernels in this workspace write disjoint regions
// per block or synchronize through `AtomicWordBuffer` flags.
unsafe impl<T: DeviceCopy> Sync for GlobalBuffer<T> {}
unsafe impl<T: DeviceCopy> Send for GlobalBuffer<T> {}

impl<T: DeviceCopy + std::fmt::Debug> std::fmt::Debug for GlobalBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GlobalBuffer(len={})", self.data.len())
    }
}

impl<T: DeviceCopy> GlobalBuffer<T> {
    /// Allocates a buffer containing the elements of `v`.
    pub fn from_vec(v: Vec<T>) -> Self {
        GlobalBuffer {
            data: v.into_iter().map(UnsafeCell::new).collect(),
        }
    }

    /// Allocates a buffer of `len` copies of `fill`.
    pub fn filled(len: usize, fill: T) -> Self {
        GlobalBuffer {
            data: (0..len).map(|_| UnsafeCell::new(fill)).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copies the whole buffer back to the host. Not instrumented.
    pub fn to_vec(&self) -> Vec<T> {
        // SAFETY: called after kernels complete (launches join all blocks).
        (0..self.len())
            .map(|i| unsafe { *self.data[i].get() })
            .collect()
    }

    /// Uninstrumented single-element read (host-side or debugging use).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn get(&self, idx: usize) -> T {
        // SAFETY: no concurrent writer to this slot per the access discipline.
        unsafe { *self.data[idx].get() }
    }

    /// Uninstrumented single-element write (host-side or debugging use).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn set(&self, idx: usize, value: T) {
        // SAFETY: no concurrent reader/writer of this slot per discipline.
        unsafe { *self.data[idx].get() = value }
    }

    /// Fully coalesced block-level load of `out.len()` contiguous elements
    /// starting at `offset`, counting the minimal number of transactions.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn load_block(&self, m: &Metrics, offset: usize, out: &mut [T], class: AccessClass) {
        assert!(
            offset + out.len() <= self.len(),
            "load_block out of bounds: {}+{} > {}",
            offset,
            out.len(),
            self.len()
        );
        for (j, slot) in out.iter_mut().enumerate() {
            // SAFETY: disjoint-region discipline.
            *slot = unsafe { *self.data[offset + j].get() };
        }
        m.add_read(
            class,
            contiguous_transactions(out.len(), std::mem::size_of::<T>()),
            out.len() as u64,
        );
    }

    /// Fully coalesced block-level store of `vals` contiguous elements
    /// starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn store_block(&self, m: &Metrics, offset: usize, vals: &[T], class: AccessClass) {
        assert!(
            offset + vals.len() <= self.len(),
            "store_block out of bounds: {}+{} > {}",
            offset,
            vals.len(),
            self.len()
        );
        for (j, &v) in vals.iter().enumerate() {
            // SAFETY: disjoint-region discipline.
            unsafe { *self.data[offset + j].get() = v }
        }
        m.add_write(
            class,
            contiguous_transactions(vals.len(), std::mem::size_of::<T>()),
            vals.len() as u64,
        );
    }

    /// Warp-level gather: each lane `l` loads element `indices[l]`.
    /// Transactions are counted by the distinct 128-byte segments touched,
    /// reproducing hardware coalescing (contiguous lanes cost 1 transaction,
    /// stride-`s` lanes cost up to `min(s, warp_width)` transactions).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or the lane count exceeds
    /// `out.len()`.
    pub fn warp_gather(&self, m: &Metrics, indices: &[usize], out: &mut [T], class: AccessClass) {
        assert!(indices.len() <= out.len());
        for (l, &i) in indices.iter().enumerate() {
            // SAFETY: disjoint-region discipline.
            out[l] = unsafe { *self.data[i].get() };
        }
        m.add_read(
            class,
            segments_touched(indices, std::mem::size_of::<T>()),
            indices.len() as u64,
        );
    }

    /// Warp-level scatter: lane `l` stores `vals[l]` to `indices[l]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or lengths differ.
    pub fn warp_scatter(&self, m: &Metrics, indices: &[usize], vals: &[T], class: AccessClass) {
        assert_eq!(indices.len(), vals.len());
        for (l, &i) in indices.iter().enumerate() {
            // SAFETY: disjoint-region discipline.
            unsafe { *self.data[i].get() = vals[l] }
        }
        m.add_write(
            class,
            segments_touched(indices, std::mem::size_of::<T>()),
            indices.len() as u64,
        );
    }
}

impl<T: DeviceCopy + Default> GlobalBuffer<T> {
    /// Allocates a zero-initialized (default-initialized) buffer.
    pub fn zeroed(len: usize) -> Self {
        Self::filled(len, T::default())
    }
}

impl<T: DeviceCopy> FromIterator<T> for GlobalBuffer<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

/// Word-granularity device memory with acquire/release semantics.
///
/// Used for ready flags (counts) and for local-sum slots (element values
/// stored as `u64` bit patterns through [`Pod64`]). Every operation counts
/// one auxiliary transaction except [`AtomicWordBuffer::poll`] misses, which
/// count flag polls.
pub struct AtomicWordBuffer {
    words: Box<[AtomicU64]>,
}

impl std::fmt::Debug for AtomicWordBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AtomicWordBuffer(len={})", self.words.len())
    }
}

impl AtomicWordBuffer {
    /// Allocates `len` zeroed words.
    pub fn zeroed(len: usize) -> Self {
        AtomicWordBuffer {
            words: (0..len).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Release-stores a value (counted as one aux write transaction).
    ///
    /// A scheduler hook point and cancellation point inside persistent
    /// launches ([`crate::sched::with_hook`]).
    pub fn store<T: Pod64>(&self, m: &Metrics, idx: usize, value: T) {
        sched::with_hook(HookPoint::FlagStore { idx }, || {
            self.words[idx].store(value.to_bits(), Ordering::Release);
        });
        m.add_write(AccessClass::Aux, 1, 1);
    }

    /// Acquire-loads a value (counted as one aux read transaction).
    ///
    /// A scheduler hook point and cancellation point inside persistent
    /// launches ([`crate::sched::with_hook`]).
    pub fn load<T: Pod64>(&self, m: &Metrics, idx: usize) -> T {
        let bits = sched::with_hook(HookPoint::FlagLoad { idx }, || {
            self.words[idx].load(Ordering::Acquire)
        });
        m.add_read(AccessClass::Aux, 1, 1);
        T::from_bits(bits)
    }

    /// Uninstrumented host-side read.
    pub fn peek<T: Pod64>(&self, idx: usize) -> T {
        T::from_bits(self.words[idx].load(Ordering::Acquire))
    }

    /// Uninstrumented host-side write.
    pub fn poke<T: Pod64>(&self, idx: usize, value: T) {
        self.words[idx].store(value.to_bits(), Ordering::Release);
    }

    /// Spins (yielding the OS thread) until `pred(word)` holds, then returns
    /// the first satisfying value. Each unsuccessful probe is counted as a
    /// flag poll; the final successful probe counts as one aux read.
    ///
    /// Mirrors SAM's polling of not-yet-ready flags: only non-ready flags
    /// are re-polled.
    ///
    /// Every probe is a scheduler hook point and a cancellation point: if
    /// a sibling block panics (raising the launch's cancellation flag),
    /// the next probe unwinds with [`crate::sched::Cancelled`] instead of
    /// spinning forever on a flag that will never be published.
    pub fn poll(&self, m: &Metrics, idx: usize, mut pred: impl FnMut(u64) -> bool) -> u64 {
        loop {
            let v = sched::with_hook(HookPoint::FlagLoad { idx }, || {
                self.words[idx].load(Ordering::Acquire)
            });
            if pred(v) {
                m.add_read(AccessClass::Aux, 1, 1);
                return v;
            }
            m.add_poll();
            std::thread::yield_now();
        }
    }

    /// Waits until every word in `range` satisfies `pred`, sweeping the
    /// whole range with coalesced reads, re-polling only non-ready words —
    /// SAM's flag-waiting pattern ("polling of multiple non-ready flags
    /// happens in parallel and using coalesced accesses", Section 2.2).
    ///
    /// The first sweep costs the coalesced transaction count of the range;
    /// every word still unsatisfied after a sweep counts as a poll, and
    /// re-poll sweeps are *not* charged as transactions — their count is a
    /// scheduling artifact (how long a producer happens to lag), which the
    /// performance model treats as hideable latency rather than traffic.
    /// Returns the satisfying values.
    ///
    /// Like [`AtomicWordBuffer::poll`], every per-word probe is a
    /// scheduler hook point and a cancellation point, so a panicked
    /// sibling block cannot strand a sweeping waiter.
    pub fn poll_many(
        &self,
        m: &Metrics,
        range: std::ops::Range<usize>,
        mut pred: impl FnMut(usize, u64) -> bool,
    ) -> Vec<u64> {
        let len = range.len();
        let mut vals = vec![0u64; len];
        let mut ready = vec![false; len];
        let mut remaining = len;
        m.add_read(AccessClass::Aux, contiguous_transactions(len, 8), 0);
        loop {
            for (off, idx) in range.clone().enumerate() {
                if !ready[off] {
                    let v = sched::with_hook(HookPoint::FlagLoad { idx }, || {
                        self.words[idx].load(Ordering::Acquire)
                    });
                    if pred(idx, v) {
                        vals[off] = v;
                        ready[off] = true;
                        remaining -= 1;
                    } else {
                        m.add_poll();
                    }
                }
            }
            if remaining == 0 {
                return vals;
            }
            std::thread::yield_now();
        }
    }

    /// Coalesced release-store of several contiguous words at once (e.g.
    /// the `q x s` local sums a single-pass chunk publishes in one round).
    /// Counted as the number of 128-byte segments the word range spans —
    /// up to 16 words cost the same one transaction a single
    /// [`AtomicWordBuffer::store`] does.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn store_many<T: Pod64>(&self, m: &Metrics, start: usize, vals: &[T]) {
        // One hook for the whole coalesced publish: it is one protocol
        // operation (and one transaction group) from the scheduler's view.
        sched::with_hook(HookPoint::FlagStore { idx: start }, || {
            for (j, &v) in vals.iter().enumerate() {
                self.words[start + j].store(v.to_bits(), Ordering::Release);
            }
        });
        m.add_write(
            AccessClass::Aux,
            contiguous_transactions(vals.len(), 8),
            vals.len() as u64,
        );
    }

    /// Coalesced read of several words at once (e.g. the up-to-`k-1` local
    /// sums read in parallel by SAM). Counted as the number of 128-byte
    /// segments the word range spans.
    pub fn load_many<T: Pod64>(&self, m: &Metrics, range: std::ops::Range<usize>) -> Vec<T> {
        let mut out = vec![T::from_bits(0); range.len()];
        self.load_many_into(m, range.start, &mut out);
        out
    }

    /// [`AtomicWordBuffer::load_many`] of the `out.len()` words from
    /// `start` into `out`, with the same hook and the same charge: the
    /// allocation-free form for callers that reuse a buffer.
    pub fn load_many_into<T: Pod64>(&self, m: &Metrics, start: usize, out: &mut [T]) {
        let words = &self.words[start..start + out.len()];
        sched::with_hook(HookPoint::FlagLoad { idx: start }, || {
            for (slot, word) in out.iter_mut().zip(words) {
                *slot = T::from_bits(word.load(Ordering::Acquire));
            }
        });
        m.add_read(
            AccessClass::Aux,
            contiguous_transactions(out.len(), 8),
            out.len() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pod64_roundtrip() {
        assert_eq!(i32::from_bits((-5i32).to_bits()), -5);
        assert_eq!(i64::from_bits((-5i64).to_bits()), -5);
        assert_eq!(u32::from_bits(7u32.to_bits()), 7);
        assert_eq!(f32::from_bits((3.25f32).to_bits()), 3.25);
        assert_eq!(f64::from_bits((-0.5f64).to_bits()), -0.5);
        assert!(<f64 as Pod64>::from_bits((f64::NAN).to_bits()).is_nan());
    }

    #[test]
    fn contiguous_transaction_counts() {
        // 32 x 4B = 128B = 1 transaction; 33 words = 2.
        assert_eq!(contiguous_transactions(32, 4), 1);
        assert_eq!(contiguous_transactions(33, 4), 2);
        // 16 x 8B = 128B = 1 transaction.
        assert_eq!(contiguous_transactions(16, 8), 1);
        assert_eq!(contiguous_transactions(0, 4), 0);
        assert_eq!(contiguous_transactions(1, 4), 1);
    }

    #[test]
    fn coalesced_warp_access_is_one_transaction() {
        let idxs: Vec<usize> = (0..32).collect();
        assert_eq!(segments_touched(&idxs, 4), 1);
        let idxs64: Vec<usize> = (0..16).collect();
        assert_eq!(segments_touched(&idxs64, 8), 1);
    }

    #[test]
    fn strided_warp_access_costs_stride_transactions() {
        // Stride-4 access of 32 x 4B words touches 4 segments
        // (words 0..128 span 512 bytes = 4 segments).
        let idxs: Vec<usize> = (0..32).map(|i| i * 4).collect();
        assert_eq!(segments_touched(&idxs, 4), 4);
        // Stride-32: every lane its own segment.
        let idxs: Vec<usize> = (0..32).map(|i| i * 32).collect();
        assert_eq!(segments_touched(&idxs, 4), 32);
    }

    #[test]
    fn buffer_roundtrip_and_instrumentation() {
        let m = Metrics::new();
        let buf = GlobalBuffer::from_vec((0..64i64).collect());
        let mut chunk = vec![0i64; 16];
        buf.load_block(&m, 16, &mut chunk, AccessClass::Element);
        assert_eq!(chunk, (16..32).collect::<Vec<i64>>());
        // 16 x 8B = 128 bytes = 1 transaction.
        assert_eq!(m.snapshot().elem_read_transactions, 1);

        let vals: Vec<i64> = (0..16).map(|x| x * 10).collect();
        buf.store_block(&m, 0, &vals, AccessClass::Element);
        assert_eq!(buf.get(3), 30);
        assert_eq!(m.snapshot().elem_write_transactions, 1);
        assert_eq!(m.snapshot().elem_words(), 32);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let m = Metrics::new();
        let buf = GlobalBuffer::from_vec(vec![0i32; 128]);
        let idxs: Vec<usize> = (0..32).map(|i| i * 2).collect(); // stride 2
        let vals: Vec<i32> = (0..32).collect();
        buf.warp_scatter(&m, &idxs, &vals, AccessClass::Element);
        let mut out = vec![0i32; 32];
        buf.warp_gather(&m, &idxs, &mut out, AccessClass::Element);
        assert_eq!(out, vals);
        let s = m.snapshot();
        // Stride-2 over 32 x 4B words spans 256 bytes = 2 segments each way.
        assert_eq!(s.elem_read_transactions, 2);
        assert_eq!(s.elem_write_transactions, 2);
    }

    #[test]
    fn atomic_buffer_store_load() {
        let m = Metrics::new();
        let aux = AtomicWordBuffer::zeroed(8);
        aux.store(&m, 3, -42i64);
        assert_eq!(aux.load::<i64>(&m, 3), -42);
        assert_eq!(aux.peek::<i64>(3), -42);
        let s = m.snapshot();
        assert_eq!(s.aux_write_transactions, 1);
        assert_eq!(s.aux_read_transactions, 1);
    }

    #[test]
    fn poll_counts_misses() {
        let m = Metrics::new();
        let aux = AtomicWordBuffer::zeroed(1);
        aux.poke(0, 5u64);
        let v = aux.poll(&m, 0, |w| w >= 5);
        assert_eq!(v, 5);
        assert_eq!(m.snapshot().flag_polls, 0);
        assert_eq!(m.snapshot().aux_read_transactions, 1);
    }

    #[test]
    fn poll_across_threads() {
        let m = Metrics::new();
        let aux = AtomicWordBuffer::zeroed(1);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                aux.poke(0, 1u64);
            });
            let v = aux.poll(&m, 0, |w| w >= 1);
            assert_eq!(v, 1);
        });
    }

    #[test]
    fn load_many_counts_segments() {
        let m = Metrics::new();
        let aux = AtomicWordBuffer::zeroed(64);
        for i in 0..64 {
            aux.poke(i, i as u64);
        }
        let vals: Vec<u64> = aux.load_many(&m, 0..47);
        assert_eq!(vals.len(), 47);
        assert_eq!(vals[46], 46);
        // 47 x 8B words span 376 bytes -> 3 segments.
        assert_eq!(m.snapshot().aux_read_transactions, 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn load_block_bounds_checked() {
        let m = Metrics::new();
        let buf = GlobalBuffer::from_vec(vec![1i32; 8]);
        let mut out = vec![0i32; 16];
        buf.load_block(&m, 0, &mut out, AccessClass::Element);
    }
}
