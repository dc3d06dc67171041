//! StreamScan-style auto-tuner.
//!
//! Section 3.1: "SAM adopts ... the auto-tuner, which runs when SAM is
//! installed and determines the optimal number of input elements to
//! allocate to each thread for different ranges of problem sizes."
//!
//! The tuner searches candidate `items_per_thread` values for each problem
//! size decade, scoring each candidate with the analytic performance model
//! on a synthetic run profile. The trade-off it navigates:
//!
//! * more items per thread → larger chunks → fewer carries to communicate
//!   (the `c = k·n/e` term of Section 2.5) and better barrier amortization;
//! * too many items per thread → register spills past the device's
//!   per-thread budget, and fewer chunks than persistent blocks on small
//!   inputs (idle hardware).

use gpu_sim::{AlgoTuning, CarryScheme, DeviceSpec, MetricsSnapshot, PerfModel, RunProfile};

/// A tuned `items_per_thread` table for one device and element width.
///
/// # Examples
///
/// ```
/// use sam_core::autotune::TuningTable;
/// use gpu_sim::DeviceSpec;
///
/// let table = TuningTable::tune(&DeviceSpec::titan_x(), 4);
/// // Large inputs get more items per thread than tiny ones.
/// assert!(table.items_per_thread(1 << 28) >= table.items_per_thread(1 << 12));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuningTable {
    /// `(upper_n, items_per_thread)` entries, ascending by `upper_n`.
    entries: Vec<(u64, usize)>,
    fallback: usize,
}

/// Candidate items-per-thread values the tuner considers. Shared with the
/// online driver ([`crate::adapt`]), whose chunk-size grid is derived from
/// these shapes so the install-time and run-time tuners explore the same
/// family of geometries.
pub(crate) const CANDIDATES: [usize; 8] = [1, 2, 4, 6, 8, 12, 16, 24];

/// Problem-size decade boundaries the tuner optimizes separately.
const SIZE_CLASSES: [u64; 11] = [
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30,
    u64::MAX,
];

impl TuningTable {
    /// Runs the auto-tuner for `device` and elements of `elem_bytes`.
    pub fn tune(device: &DeviceSpec, elem_bytes: u64) -> Self {
        let model = PerfModel::new(device.clone());
        let mut entries = Vec::with_capacity(SIZE_CLASSES.len());
        for &upper in &SIZE_CLASSES {
            // Score candidates at the geometric middle of the class.
            let probe = if upper == u64::MAX {
                1 << 30
            } else {
                (upper / 2).max(1024)
            };
            let best = CANDIDATES
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let ta = predicted_seconds(&model, device, probe, elem_bytes, a);
                    let tb = predicted_seconds(&model, device, probe, elem_bytes, b);
                    ta.partial_cmp(&tb).expect("model times are finite")
                })
                .expect("candidate list is non-empty");
            entries.push((upper, best));
        }
        let fallback = entries.last().map_or(16, |&(_, ipt)| ipt);
        TuningTable { entries, fallback }
    }

    /// The tuned `items_per_thread` for a problem of `n` elements.
    pub fn items_per_thread(&self, n: u64) -> usize {
        self.entries
            .iter()
            .find(|&&(upper, _)| n <= upper)
            .map_or(self.fallback, |&(_, ipt)| ipt)
    }

    /// The tuned kernel parameters for a problem of `n` elements.
    pub fn params(&self, n: u64) -> crate::kernel::SamParams {
        crate::kernel::SamParams {
            items_per_thread: self.items_per_thread(n),
            ..crate::kernel::SamParams::default()
        }
    }
}

/// Predicts SAM's kernel time for a synthetic profile with the given
/// geometry — the same closed-form counts the real kernel produces, so the
/// tuner does not need to execute anything.
fn predicted_seconds(
    model: &PerfModel,
    device: &DeviceSpec,
    n: u64,
    elem_bytes: u64,
    items_per_thread: usize,
) -> f64 {
    let threads = device.threads_per_block as u64;
    let chunk = threads * items_per_thread as u64;
    let chunks = n.div_ceil(chunk);
    let k = u64::from(device.persistent_blocks()).min(chunks);
    let per_seg = 128 / elem_bytes;

    let mut m = MetricsSnapshot {
        kernel_launches: 1,
        elem_read_words: n,
        elem_write_words: n,
        elem_read_transactions: n.div_ceil(per_seg),
        elem_write_transactions: n.div_ceil(per_seg),
        // Per chunk: publish 1 sum + 1 flag, read k-1 sums + k-1 flags.
        aux_write_transactions: 2 * chunks,
        aux_read_transactions: chunks * 2 * (k.saturating_sub(1)).div_ceil(16).max(1),
        // Local scan + carry application + carry fold.
        compute_ops: 3 * n + chunks * (k + threads * 5 / 2 + 80),
        shuffles: chunks * (5 * threads + 160),
        shared_accesses: chunks * threads,
        barriers: chunks * 2,
        ..MetricsSnapshot::default()
    };

    // Register pressure: spills once items exceed the element registers.
    let budget = device.element_registers() as usize;
    if items_per_thread > budget {
        m.spill_transactions = 2 * n * (items_per_thread - budget) as u64 / items_per_thread as u64;
    }

    // Under-occupancy on small inputs: fewer chunks than blocks leaves SMs
    // idle; fold into a bandwidth-efficiency derating via the tuning.
    let occupancy = (chunks as f64 / f64::from(device.persistent_blocks())).min(1.0);
    let tuning = AlgoTuning {
        mem_efficiency: 0.786 * occupancy.max(0.05),
        ..AlgoTuning::default()
    };

    let profile = RunProfile {
        algorithm: "sam-autotune".into(),
        n,
        elem_bytes,
        metrics: m,
        carry: CarryScheme::SamDecoupled {
            k: k as u32,
            chunks,
            orders: 1,
        },
        tuning,
    };
    model.estimate(&profile).seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_monotonic_enough() {
        let table = TuningTable::tune(&DeviceSpec::titan_x(), 4);
        let small = table.items_per_thread(1 << 12);
        let large = table.items_per_thread(1 << 28);
        assert!(small <= large, "small={small} large={large}");
        assert!(large >= 8, "large inputs should use many items per thread");
    }

    #[test]
    fn spills_cap_items_per_thread() {
        let table = TuningTable::tune(&DeviceSpec::c1060(), 8);
        // C1060 has only 16 registers per thread; the tuner must not pick
        // candidates far past the element-register budget.
        let ipt = table.items_per_thread(1 << 28);
        assert!(
            ipt <= DeviceSpec::c1060().element_registers() as usize * 2,
            "ipt={ipt}"
        );
    }

    #[test]
    fn lookup_covers_all_sizes() {
        let table = TuningTable::tune(&DeviceSpec::k40(), 4);
        for n in [1u64, 1 << 10, 1 << 20, 1 << 30, 1 << 33] {
            assert!(table.items_per_thread(n) >= 1);
        }
    }

    #[test]
    fn params_pass_through() {
        let table = TuningTable::tune(&DeviceSpec::k40(), 4);
        let p = table.params(1 << 20);
        assert_eq!(p.items_per_thread, table.items_per_thread(1 << 20));
    }

    #[test]
    fn tables_differ_across_devices() {
        // Not a strict requirement, but the C1060 (16 registers) and the
        // Titan X (32) should not tune identically at the high end.
        let old = TuningTable::tune(&DeviceSpec::c1060(), 4);
        let new = TuningTable::tune(&DeviceSpec::titan_x(), 4);
        assert!(old.items_per_thread(1 << 30) <= new.items_per_thread(1 << 30));
    }
}
