//! Analytic performance model.
//!
//! The simulator's functional execution produces exact event counts
//! ([`MetricsSnapshot`]): memory transactions, launches, fences, operator
//! applications. This module converts those counts into estimated kernel
//! time on a [`DeviceSpec`], reproducing the *shape* of the paper's
//! throughput figures (who wins, by what factor, where crossovers fall)
//! without claiming cycle accuracy.
//!
//! The model is a roofline with partial memory/compute overlap plus
//! explicit terms for the effects the paper analyses:
//!
//! ```text
//! time = launches * launch_overhead                      (grid launches)
//!      + fill                                            (carry-pipeline fill)
//!      + (mem_time^p + compute_time^p)^(1/p)             (partial overlap)
//!      + serial_path_excess                              (chained carries only)
//!
//! mem_time     = dram_bytes / (peak_bw * mem_efficiency) * (1 + n_half / n)
//! compute_time = weighted_ops / (PEs * core_clock * ipc)
//! ```
//!
//! * `dram_bytes` counts 128-byte element transactions at full cost, and
//!   auxiliary/spill transactions at 32-byte sector cost discounted by the
//!   modeled L2 hit rate — SAM's O(1) circular buffers stay L2-resident
//!   (Section 5.1), linear auxiliary arrays do not.
//! * the `(1 + n_half/n)` factor is the occupancy ramp: below tens of
//!   thousands of elements the GPU cannot even assign one element per
//!   thread context and throughput grows linearly with n (Section 5.1).
//! * `fill` models the latency until the carry pipeline produces its first
//!   results; the chained scheme additionally serializes chunk completion
//!   (its read-modify-write dependence chain), giving the
//!   `serial_path_excess` term (Section 5.4).
//!
//! Per-algorithm calibration constants live in [`AlgoTuning`]; the
//! calibration procedure and the resulting constants are documented in the
//! workspace-level `EXPERIMENTS.md`.

use crate::device::DeviceSpec;
use crate::metrics::MetricsSnapshot;

/// How a single-pass kernel propagates carries between dependent blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CarryScheme {
    /// No inter-block carries (memcpy, multi-kernel phases).
    None,
    /// SAM's write-followed-by-independent-reads scheme: each of the
    /// `chunks` chunks reads up to `k - 1` local sums; higher orders deepen
    /// the pipeline by `orders` rounds.
    SamDecoupled {
        /// Number of persistent blocks (`k = m * b`).
        k: u32,
        /// Total chunks processed.
        chunks: u64,
        /// Higher-order iteration count (1 = conventional).
        orders: u32,
    },
    /// The ablation scheme of Section 5.4: each block writes the *total*
    /// carry and the next block read-modify-writes it, serializing all
    /// chunk completions.
    Chained {
        /// Number of persistent blocks.
        k: u32,
        /// Total chunks processed — the length of the serial dependence
        /// chain.
        chunks: u64,
    },
    /// CUB's decoupled look-back with opportunistic short-circuit.
    Lookback {
        /// Number of persistent blocks.
        k: u32,
        /// Total chunks processed.
        chunks: u64,
    },
}

/// Per-algorithm, per-device calibration constants.
///
/// Counts are measured; these constants translate counts into time. They
/// encode what the paper attributes to implementation maturity rather than
/// algorithm structure — e.g. CUB's PTX assembly and per-architecture kernel
/// specializations give it a higher sustained memory efficiency on Kepler
/// than SAM's fixed, portable kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoTuning {
    /// Fraction of theoretical peak DRAM bandwidth sustained at saturation.
    pub mem_efficiency: f64,
    /// Elements at which the occupancy ramp reaches half of saturation.
    pub ramp_n_half: f64,
    /// Host-side cost of one grid launch, in microseconds.
    pub launch_overhead_us: f64,
    /// Fixed pipeline-fill overhead per pass, in microseconds, *excluding*
    /// the carry-scheme fill computed from [`CarryScheme`].
    pub pass_overhead_us: f64,
    /// Effective scalar instructions per clock per processing element.
    pub ipc: f64,
    /// Latency of one carry hop (publish -> visible to consumer) in
    /// microseconds. Used for fill (all schemes) and the serial chain
    /// (chained scheme).
    pub carry_hop_us: f64,
    /// L2 hit rate for auxiliary-array traffic (SAM's circular buffers stay
    /// resident; linear arrays mostly miss).
    pub aux_l2_hit: f64,
    /// Overlap exponent `p` of the roofline combination (higher = closer to
    /// perfect overlap of memory and compute).
    pub overlap_p: f64,
    /// Fraction of *excess* transaction bytes (beyond the element words
    /// actually needed) that reaches DRAM. Uncoalesced access patterns such
    /// as CUB's tuple-typed array-of-structures loads issue many more
    /// transactions than the data requires; caches absorb most of the
    /// overfetch because neighbouring accesses of the same warp reuse the
    /// fetched segments, but the issue/refetch overhead is not free.
    pub uncoalesced_absorb: f64,
}

impl Default for AlgoTuning {
    /// A reasonable generic tuning: 75 % of peak bandwidth, 5 µs launches,
    /// moderate overlap.
    fn default() -> Self {
        AlgoTuning {
            mem_efficiency: 0.75,
            ramp_n_half: 1.5e6,
            launch_overhead_us: 5.0,
            pass_overhead_us: 2.0,
            ipc: 0.22,
            carry_hop_us: 0.8,
            aux_l2_hit: 0.5,
            overlap_p: 2.5,
            uncoalesced_absorb: 0.12,
        }
    }
}

/// Input to a performance estimate: the problem, the measured (or
/// extrapolated) counts, and the carry scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct RunProfile {
    /// Human-readable algorithm name (reported in harness output).
    pub algorithm: String,
    /// Number of elements processed.
    pub n: u64,
    /// Bytes per element (4 for i32, 8 for i64).
    pub elem_bytes: u64,
    /// Measured or extrapolated event counts.
    pub metrics: MetricsSnapshot,
    /// Carry-propagation scheme of the kernel.
    pub carry: CarryScheme,
    /// Calibration constants for this algorithm on this device.
    pub tuning: AlgoTuning,
}

/// Which resource bounds the estimated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// DRAM bandwidth bound.
    Memory,
    /// Scalar computation bound.
    Compute,
    /// Fixed overheads (launch + fill) bound — the small-input regime.
    Overhead,
    /// Serial carry chain bound (chained scheme on large inputs).
    SerialChain,
}

/// Result of a performance estimate, with its additive breakdown in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfEstimate {
    /// Total estimated kernel time in seconds.
    pub seconds: f64,
    /// Elements per second.
    pub throughput: f64,
    /// DRAM streaming time (after L2 discounts and occupancy ramp).
    pub mem_seconds: f64,
    /// Scalar computation time.
    pub compute_seconds: f64,
    /// Grid-launch overhead.
    pub launch_seconds: f64,
    /// Carry-pipeline fill latency.
    pub fill_seconds: f64,
    /// Excess of the serial chain over the streaming time (chained only).
    pub serial_excess_seconds: f64,
    /// Dominant resource.
    pub bound: Bound,
}

/// The analytic model for one device.
///
/// # Examples
///
/// ```
/// use gpu_sim::{DeviceSpec, PerfModel, RunProfile, CarryScheme, AlgoTuning, MetricsSnapshot};
///
/// let model = PerfModel::new(DeviceSpec::titan_x());
/// let n = 1u64 << 27;
/// // A communication-optimal scan: n coalesced reads + n writes of i32.
/// let mut metrics = MetricsSnapshot::default();
/// metrics.elem_read_transactions = n * 4 / 128;
/// metrics.elem_write_transactions = n * 4 / 128;
/// metrics.elem_read_words = n;
/// metrics.elem_write_words = n;
/// metrics.kernel_launches = 1;
/// let profile = RunProfile {
///     algorithm: "sam".into(),
///     n,
///     elem_bytes: 4,
///     metrics,
///     carry: CarryScheme::SamDecoupled { k: 48, chunks: n / 16384, orders: 1 },
///     tuning: AlgoTuning { mem_efficiency: 0.786, ..AlgoTuning::default() },
/// };
/// let est = model.estimate(&profile);
/// // ~33 billion items/s: the paper's measured Titan X plateau.
/// assert!(est.throughput > 30e9 && est.throughput < 36e9);
/// ```
#[derive(Debug, Clone)]
pub struct PerfModel {
    spec: DeviceSpec,
}

/// Bytes moved per auxiliary or spill transaction (one 32-byte sector).
const SECTOR_BYTES: f64 = 32.0;

/// Relative instruction weights folded into the compute term.
const SHUFFLE_WEIGHT: f64 = 0.5;
const SHARED_WEIGHT: f64 = 0.25;
const BARRIER_WEIGHT: f64 = 16.0;

impl PerfModel {
    /// Creates a model for the given device.
    pub fn new(spec: DeviceSpec) -> Self {
        PerfModel { spec }
    }

    /// The device this model targets.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Estimates kernel time and throughput for a run profile.
    ///
    /// # Panics
    ///
    /// Panics if `profile.n` is zero.
    pub fn estimate(&self, profile: &RunProfile) -> PerfEstimate {
        assert!(profile.n > 0, "cannot estimate an empty run");
        let t = &profile.tuning;
        let m = &profile.metrics;

        // --- DRAM traffic ---------------------------------------------------
        // Needed bytes are the element words themselves; transaction bytes
        // beyond that are cache-absorbed overfetch, charged at the
        // calibrated absorption fraction.
        let needed = (m.elem_words() * profile.elem_bytes) as f64;
        let issued = m.elem_transactions() as f64 * 128.0;
        let elem_bytes = needed + (issued - needed).max(0.0) * t.uncoalesced_absorb;
        let aux_bytes = m.aux_transactions() as f64 * SECTOR_BYTES * (1.0 - t.aux_l2_hit);
        let spill_bytes = m.spill_transactions as f64 * SECTOR_BYTES * 0.5;
        let dram_bytes = elem_bytes + aux_bytes + spill_bytes;
        let bw = self.spec.peak_bandwidth_gbs * 1e9 * t.mem_efficiency;
        let ramp = 1.0 + t.ramp_n_half / profile.n as f64;
        let mem_seconds = dram_bytes / bw * ramp;

        // --- Computation ----------------------------------------------------
        let ops = m.compute_ops as f64
            + m.shuffles as f64 * SHUFFLE_WEIGHT
            + m.shared_accesses as f64 * SHARED_WEIGHT
            + m.barriers as f64 * BARRIER_WEIGHT;
        let compute_rate =
            self.spec.processing_elements as f64 * self.spec.core_clock_mhz * 1e6 * t.ipc;
        // Wide arithmetic is emulated on 32-bit ALUs: a 64-bit operation
        // costs ~2.4 32-bit instruction slots (add-with-carry pairs plus
        // extra register pressure). This is why the paper's 64-bit speedup
        // ratios track the 32-bit ones instead of collapsing to the pure
        // bandwidth ratio.
        let width_scale = (profile.elem_bytes as f64 / 4.0).powf(1.25);
        let compute_seconds = ops * width_scale / compute_rate;

        // --- Fixed overheads -------------------------------------------------
        let launch_seconds = m.kernel_launches as f64 * t.launch_overhead_us * 1e-6
            + m.kernel_launches as f64 * t.pass_overhead_us * 1e-6;
        let hop = t.carry_hop_us * 1e-6;
        let (fill_seconds, serial_path) = match profile.carry {
            CarryScheme::None => (0.0, 0.0),
            CarryScheme::SamDecoupled { k, orders, .. } => {
                // The pipeline is full once the first k chunks (per order
                // round) have published their sums.
                ((k as f64 + orders as f64 - 1.0) * hop, 0.0)
            }
            CarryScheme::Chained { k, chunks } => {
                // Every chunk completion serializes behind its predecessor.
                (k as f64 * hop, chunks as f64 * hop)
            }
            CarryScheme::Lookback { .. } => {
                // Short-circuiting keeps the fill shallow regardless of k.
                (4.0 * hop, 0.0)
            }
        };

        // --- Combine ---------------------------------------------------------
        let p = t.overlap_p;
        let overlapped = (mem_seconds.powf(p) + compute_seconds.powf(p)).powf(1.0 / p);
        let streaming = overlapped.max(serial_path);
        let serial_excess_seconds = (serial_path - overlapped).max(0.0);
        let seconds = launch_seconds + fill_seconds + streaming;

        // For classification, the occupancy-ramp excess over saturated
        // streaming counts as overhead (the small-input regime), not as
        // bandwidth exhaustion.
        let mem_saturated = mem_seconds / ramp;
        let ramp_excess = mem_seconds - mem_saturated;
        let overhead = launch_seconds + fill_seconds + ramp_excess;
        let bound = if serial_excess_seconds > 0.0 {
            Bound::SerialChain
        } else if overhead > mem_saturated.max(compute_seconds) {
            Bound::Overhead
        } else if mem_seconds >= compute_seconds {
            Bound::Memory
        } else {
            Bound::Compute
        };

        PerfEstimate {
            seconds,
            throughput: profile.n as f64 / seconds,
            mem_seconds,
            compute_seconds,
            launch_seconds,
            fill_seconds,
            serial_excess_seconds,
            bound,
        }
    }
}

/// Energy estimate for a run (the paper's future-work item: "measure the
/// energy consumption to determine whether the improved performance also
/// results in improved energy efficiency").
///
/// A standard three-component GPU energy model: constant board power over
/// the kernel's runtime, plus per-byte DRAM energy, plus per-operation
/// core energy. Communication-optimal algorithms win twice — less DRAM
/// energy *and* less static energy (shorter runtime).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyEstimate {
    /// Total energy in joules.
    pub joules: f64,
    /// Static/leakage component (board power × time).
    pub static_joules: f64,
    /// DRAM access component.
    pub dram_joules: f64,
    /// Core computation component.
    pub compute_joules: f64,
    /// Nanojoules per element — the figure-of-merit for efficiency.
    pub nj_per_item: f64,
}

/// DRAM access energy per byte (GDDR5-class, ~15 pJ/bit incl. I/O).
const DRAM_PJ_PER_BYTE: f64 = 120.0;
/// Core energy per weighted scalar operation.
const CORE_PJ_PER_OP: f64 = 25.0;
/// Fraction of TDP drawn regardless of activity while the kernel runs.
const STATIC_POWER_FRACTION: f64 = 0.45;

impl PerfModel {
    /// Estimates the energy of a run whose time was already estimated.
    pub fn estimate_energy(&self, profile: &RunProfile, perf: &PerfEstimate) -> EnergyEstimate {
        let m = &profile.metrics;
        let static_joules = self.spec.tdp_watts * STATIC_POWER_FRACTION * perf.seconds;
        let bytes =
            (m.elem_transactions() + m.aux_transactions() + m.spill_transactions) as f64 * 32.0; // sector-level DRAM/L2 traffic
        let dram_joules = bytes * DRAM_PJ_PER_BYTE * 1e-12;
        let ops = m.compute_ops as f64 + m.shuffles as f64 + m.shared_accesses as f64;
        let compute_joules = ops * CORE_PJ_PER_OP * 1e-12;
        let joules = static_joules + dram_joules + compute_joules;
        EnergyEstimate {
            joules,
            static_joules,
            dram_joules,
            compute_joules,
            nj_per_item: joules / profile.n as f64 * 1e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the metrics of an ideal `passes`-pass algorithm moving
    /// `words_factor * n` words of `elem_bytes` coalesced.
    fn ideal_metrics(n: u64, elem_bytes: u64, words_factor: u64, launches: u64) -> MetricsSnapshot {
        let words = n * words_factor;
        let per_seg = 128 / elem_bytes;
        MetricsSnapshot {
            kernel_launches: launches,
            elem_read_transactions: words / 2 / per_seg,
            elem_write_transactions: words / 2 / per_seg,
            elem_read_words: words / 2,
            elem_write_words: words / 2,
            compute_ops: n * 8,
            ..Default::default()
        }
    }

    fn profile(n: u64, factor: u64, launches: u64, carry: CarryScheme) -> RunProfile {
        RunProfile {
            algorithm: "test".into(),
            n,
            elem_bytes: 4,
            metrics: ideal_metrics(n, 4, factor, launches),
            carry,
            tuning: AlgoTuning::default(),
        }
    }

    #[test]
    fn four_n_traffic_halves_large_input_throughput() {
        let model = PerfModel::new(DeviceSpec::titan_x());
        let n = 1u64 << 28;
        let two = model.estimate(&profile(n, 2, 1, CarryScheme::None));
        let four = model.estimate(&profile(n, 4, 3, CarryScheme::None));
        let ratio = two.throughput / four.throughput;
        assert!(
            (1.8..2.2).contains(&ratio),
            "2n vs 4n should be ~2x at saturation, got {ratio:.2}"
        );
    }

    #[test]
    fn small_inputs_are_overhead_bound() {
        let model = PerfModel::new(DeviceSpec::titan_x());
        let est = model.estimate(&profile(1 << 10, 2, 1, CarryScheme::None));
        assert_eq!(est.bound, Bound::Overhead);
        // Throughput grows roughly linearly with n in this regime.
        let est4k = model.estimate(&profile(1 << 12, 2, 1, CarryScheme::None));
        assert!(est4k.throughput > 2.5 * est.throughput);
    }

    #[test]
    fn large_inputs_are_memory_bound() {
        let model = PerfModel::new(DeviceSpec::titan_x());
        let est = model.estimate(&profile(1 << 28, 2, 1, CarryScheme::None));
        assert_eq!(est.bound, Bound::Memory);
    }

    #[test]
    fn titan_x_memcpy_roof_is_about_33_giga_items() {
        let model = PerfModel::new(DeviceSpec::titan_x());
        let n = 1u64 << 30;
        let mut p = profile(n, 2, 1, CarryScheme::None);
        p.tuning.mem_efficiency = 0.786;
        p.metrics.compute_ops = 0;
        let est = model.estimate(&p);
        assert!(
            est.throughput > 31e9 && est.throughput < 35e9,
            "expected ~33 G items/s, got {:.1e}",
            est.throughput
        );
    }

    #[test]
    fn chained_scheme_serializes_large_inputs() {
        let model = PerfModel::new(DeviceSpec::titan_x());
        let n = 1u64 << 28;
        let chunks = n / 16384;
        let sam = model.estimate(&profile(
            n,
            2,
            1,
            CarryScheme::SamDecoupled {
                k: 48,
                chunks,
                orders: 1,
            },
        ));
        let chained = model.estimate(&profile(n, 2, 1, CarryScheme::Chained { k: 48, chunks }));
        assert!(chained.seconds > sam.seconds);
        assert_eq!(chained.bound, Bound::SerialChain);
        let slowdown = chained.seconds / sam.seconds;
        assert!(
            (1.2..2.2).contains(&slowdown),
            "chained slowdown should be moderate, got {slowdown:.2}"
        );
    }

    #[test]
    fn lookback_fill_is_shallower_than_sam_fill() {
        let model = PerfModel::new(DeviceSpec::titan_x());
        let n = 1u64 << 14;
        let sam = model.estimate(&profile(
            n,
            2,
            1,
            CarryScheme::SamDecoupled {
                k: 48,
                chunks: 4,
                orders: 1,
            },
        ));
        let cub = model.estimate(&profile(
            n,
            2,
            1,
            CarryScheme::Lookback { k: 48, chunks: 4 },
        ));
        assert!(cub.fill_seconds < sam.fill_seconds);
        assert!(cub.seconds < sam.seconds);
    }

    #[test]
    fn higher_order_compute_shifts_bound() {
        let model = PerfModel::new(DeviceSpec::titan_x());
        let n = 1u64 << 26;
        let mut p = profile(
            n,
            2,
            1,
            CarryScheme::SamDecoupled {
                k: 48,
                chunks: n / 16384,
                orders: 8,
            },
        );
        // Eight iterations of compute, one round of memory.
        p.metrics.compute_ops = n * 8 * 8;
        let est = model.estimate(&p);
        assert_eq!(est.bound, Bound::Compute);
        let order1 = model.estimate(&profile(
            n,
            2,
            1,
            CarryScheme::SamDecoupled {
                k: 48,
                chunks: n / 16384,
                orders: 1,
            },
        ));
        assert!(est.seconds > order1.seconds);
        // But far less than 8x slower: memory was touched only once.
        assert!(est.seconds < 6.0 * order1.seconds);
    }

    #[test]
    fn aux_l2_residency_discounts_traffic() {
        let model = PerfModel::new(DeviceSpec::titan_x());
        let n = 1u64 << 26;
        let mut resident = profile(n, 2, 1, CarryScheme::None);
        resident.metrics.aux_read_transactions = n / 64;
        resident.tuning.aux_l2_hit = 0.95;
        let mut missing = resident.clone();
        missing.tuning.aux_l2_hit = 0.3;
        let r = model.estimate(&resident);
        let miss = model.estimate(&missing);
        assert!(miss.mem_seconds > r.mem_seconds);
    }

    #[test]
    fn throughput_is_n_over_seconds() {
        let model = PerfModel::new(DeviceSpec::k40());
        let p = profile(1 << 20, 2, 1, CarryScheme::None);
        let est = model.estimate(&p);
        let expect = (1u64 << 20) as f64 / est.seconds;
        assert!((est.throughput - expect).abs() < 1e-6 * expect);
    }

    #[test]
    #[should_panic(expected = "empty run")]
    fn zero_n_panics() {
        let model = PerfModel::new(DeviceSpec::k40());
        let mut p = profile(1, 2, 1, CarryScheme::None);
        p.n = 0;
        model.estimate(&p);
    }
}

serde::impl_serialize_unit_enum!(Bound {
    Memory,
    Compute,
    Overhead,
    SerialChain
});
serde::impl_serialize_struct!(AlgoTuning {
    mem_efficiency,
    ramp_n_half,
    launch_overhead_us,
    pass_overhead_us,
    ipc,
    carry_hop_us,
    aux_l2_hit,
    overlap_p,
    uncoalesced_absorb,
});
serde::impl_serialize_struct!(RunProfile {
    algorithm,
    n,
    elem_bytes,
    metrics,
    carry,
    tuning,
});
serde::impl_serialize_struct!(PerfEstimate {
    seconds,
    throughput,
    mem_seconds,
    compute_seconds,
    launch_seconds,
    fill_seconds,
    serial_excess_seconds,
    bound,
});
serde::impl_serialize_struct!(EnergyEstimate {
    joules,
    static_joules,
    dram_joules,
    compute_joules,
    nj_per_item,
});

impl serde::Serialize for CarryScheme {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStructVariant;
        match self {
            CarryScheme::None => serializer.serialize_unit_variant("CarryScheme", 0, "None"),
            CarryScheme::SamDecoupled { k, chunks, orders } => {
                let mut sv =
                    serializer.serialize_struct_variant("CarryScheme", 1, "SamDecoupled", 3)?;
                sv.serialize_field("k", k)?;
                sv.serialize_field("chunks", chunks)?;
                sv.serialize_field("orders", orders)?;
                sv.end()
            }
            CarryScheme::Chained { k, chunks } => {
                let mut sv = serializer.serialize_struct_variant("CarryScheme", 2, "Chained", 2)?;
                sv.serialize_field("k", k)?;
                sv.serialize_field("chunks", chunks)?;
                sv.end()
            }
            CarryScheme::Lookback { k, chunks } => {
                let mut sv =
                    serializer.serialize_struct_variant("CarryScheme", 3, "Lookback", 2)?;
                sv.serialize_field("k", k)?;
                sv.serialize_field("chunks", chunks)?;
                sv.end()
            }
        }
    }
}
