//! Measurement harness: functional execution + count extrapolation +
//! performance-model evaluation.
//!
//! For every `(algorithm, device, width, order, tuple, n)` point the
//! harness either *functionally executes* the kernel on the simulated GPU
//! (counting every transaction, launch, fence and operation exactly) or —
//! for sizes past [`Harness::functional_cap`] — extrapolates the counts
//! linearly from the two largest measured probes. Every counter of every
//! algorithm here is exactly affine in `n` at fixed geometry (validated by
//! the `count_linearity` integration test), so the extrapolation is not a
//! model but bookkeeping; only the count→time conversion
//! ([`gpu_sim::PerfModel`]) is a model.
//!
//! Functional runs double as end-to-end correctness checks: for sizes up to
//! the verification threshold, the kernel output is compared against the
//! serial oracle.

use crate::tunings::{tuning_for, Algo};
use crate::workload;
use gpu_sim::perf::EnergyEstimate;
use gpu_sim::{CarryScheme, DeviceSpec, Gpu, MetricsSnapshot, PerfEstimate, PerfModel, RunProfile};
use sam_baselines::{iterate_scan, memcpy_roof, HierarchicalScan, LookbackScan};
use sam_core::autotune::TuningTable;
use sam_core::element::ScanElement;
use sam_core::kernel::{scan_on_gpu, CarryPropagation, SamParams};
use sam_core::op::Sum;
use sam_core::{ScanKind, ScanSpec};

/// Element width of a measurement (the paper evaluates both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemWidth {
    /// 32-bit integers.
    I32,
    /// 64-bit integers.
    I64,
}

impl ElemWidth {
    /// Bytes per element.
    pub fn bytes(&self) -> u64 {
        match self {
            ElemWidth::I32 => 4,
            ElemWidth::I64 => 8,
        }
    }

    /// Display suffix ("32-bit" / "64-bit").
    pub fn label(&self) -> &'static str {
        match self {
            ElemWidth::I32 => "32-bit",
            ElemWidth::I64 => "64-bit",
        }
    }
}

/// One measured or extrapolated configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Target device.
    pub device: DeviceSpec,
    /// Algorithm under test.
    pub algo: Algo,
    /// Element width.
    pub width: ElemWidth,
    /// Scan order (`>= 1`).
    pub order: u32,
    /// Tuple size (`>= 1`).
    pub tuple: usize,
}

impl Config {
    /// Series label, e.g. `"SAM-8"` for order/tuple variants and
    /// `"SAM-o2t2"` for combined higher-order tuple scans.
    pub fn label(&self) -> String {
        if self.order > 1 && self.tuple > 1 {
            format!("{}-o{}t{}", self.algo.name(), self.order, self.tuple)
        } else if self.order > 1 {
            format!("{}-{}", self.algo.name(), self.order)
        } else if self.tuple > 1 {
            format!("{}-{}", self.algo.name(), self.tuple)
        } else {
            self.algo.name().to_string()
        }
    }
}

/// Throughput at one problem size.
#[derive(Debug, Clone, Copy)]
pub struct SeriesPoint {
    /// Problem size in words.
    pub n: u64,
    /// Words per second.
    pub throughput: f64,
    /// Whether the counts were functionally measured (vs extrapolated).
    pub measured: bool,
    /// Full model breakdown.
    pub estimate: PerfEstimate,
    /// Energy estimate (the paper's future-work extension).
    pub energy: EnergyEstimate,
}

/// A labelled throughput series (one figure line).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Points, ascending in `n`. Sizes an algorithm refuses (e.g. CUDPP
    /// above 2^25) are absent.
    pub points: Vec<SeriesPoint>,
}

/// The measurement harness.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Largest size functionally executed; larger sizes extrapolate.
    pub functional_cap: u64,
    /// Sizes up to this are verified against the serial oracle.
    pub verify_cap: u64,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            functional_cap: 1 << 20,
            verify_cap: 1 << 16,
        }
    }
}

/// Raw outcome of one functional run.
#[derive(Debug, Clone)]
struct Measurement {
    metrics: MetricsSnapshot,
    carry: CarryScheme,
}

impl Harness {
    /// Produces the throughput series for `cfg` at the given sizes.
    ///
    /// # Panics
    ///
    /// Panics if a verified run disagrees with the serial oracle — the
    /// harness refuses to report numbers for an incorrect kernel.
    pub fn series(&self, cfg: &Config, sizes: &[u64]) -> Series {
        let mut points = Vec::with_capacity(sizes.len());
        // One simulated device per series: constructing a Gpu per
        // measurement threw away its buffers and metrics plumbing for every
        // point. Per-measurement isolation comes from draining the counters
        // (`take_metrics`) around each functional run instead.
        let gpu = Gpu::new(cfg.device.clone());
        // SAM's chunk geometry (items per thread) is auto-tuned per problem
        // size; extrapolation probes must run with the *target* size's
        // geometry or the per-chunk overheads would be mis-scaled. Probes
        // are cached per geometry.
        let table = match cfg.algo {
            Algo::Sam | Algo::SamChained => Some(TuningTable::tune(&cfg.device, cfg.width.bytes())),
            _ => None,
        };
        let ipt_for = |n: u64| table.as_ref().map(|t| t.items_per_thread(n));
        // SAM's carry counts per chunk depend on how many of the k
        // persistent blocks are busy; probes below ~3k chunks would be
        // outside the steady-state regime and mis-scale the slope, so the
        // probe floor may exceed the functional cap (slightly larger runs,
        // still exact counting).
        let steady_floor = |ipt: Option<usize>| -> u64 {
            ipt.map_or(0, |i| {
                let chunk = cfg.device.threads_per_block as u64 * i as u64;
                (3 * u64::from(cfg.device.persistent_blocks()) + 2) * chunk
            })
        };
        let mut probes: std::collections::HashMap<Option<usize>, [(u64, Measurement); 2]> =
            std::collections::HashMap::new();
        for &n in sizes {
            let ipt = ipt_for(n);
            let p2 = self.functional_cap.max(steady_floor(ipt));
            let point = if n <= p2 {
                self.measure(cfg, &gpu, n, ipt).map(|m| (m, true))
            } else {
                let [lo, hi] = probes.entry(ipt).or_insert_with(|| {
                    // One full round of chunks between the probes keeps both
                    // in the same geometry with a clean per-element slope.
                    let delta = match ipt {
                        Some(i) => {
                            u64::from(cfg.device.persistent_blocks())
                                * cfg.device.threads_per_block as u64
                                * i as u64
                        }
                        None => p2 / 2,
                    };
                    let p1 = p2 - delta;
                    [
                        (
                            p1,
                            self.measure(cfg, &gpu, p1, ipt)
                                .expect("probe sizes are supported"),
                        ),
                        (
                            p2,
                            self.measure(cfg, &gpu, p2, ipt)
                                .expect("probe sizes are supported"),
                        ),
                    ]
                });
                if supports(cfg, n) {
                    Some((extrapolate(lo, hi, n), false))
                } else {
                    None
                }
            };
            if let Some((m, measured)) = point {
                let tuning = tuning_for(cfg.algo, &cfg.device, cfg.width.bytes(), cfg.tuple);
                let profile = RunProfile {
                    algorithm: cfg.label(),
                    n,
                    elem_bytes: cfg.width.bytes(),
                    metrics: m.metrics,
                    carry: m.carry,
                    tuning,
                };
                let model = PerfModel::new(cfg.device.clone());
                let estimate = model.estimate(&profile);
                let energy = model.estimate_energy(&profile, &estimate);
                points.push(SeriesPoint {
                    n,
                    throughput: estimate.throughput,
                    measured,
                    estimate,
                    energy,
                });
            }
        }
        Series {
            label: cfg.label(),
            points,
        }
    }

    /// Functionally executes `cfg` at size `n` (with SAM chunk geometry
    /// `ipt`, when given), returning the counts, or `None` if the algorithm
    /// refuses the size.
    fn measure(&self, cfg: &Config, gpu: &Gpu, n: u64, ipt: Option<usize>) -> Option<Measurement> {
        match cfg.width {
            ElemWidth::I32 => {
                let input = workload::uniform_i32(trimmed(cfg, n), 0x5eed + n);
                self.measure_typed(cfg, gpu, &input, ipt)
            }
            ElemWidth::I64 => {
                let input = workload::uniform_i64(trimmed(cfg, n), 0x5eed + n);
                self.measure_typed(cfg, gpu, &input, ipt)
            }
        }
    }

    fn measure_typed<T: ScanElement>(
        &self,
        cfg: &Config,
        gpu: &Gpu,
        input: &[T],
        ipt: Option<usize>,
    ) -> Option<Measurement> {
        // Drain any counts left by a previous measurement on the shared
        // device, so this run's snapshot is exactly this run's counts.
        let _ = gpu.take_metrics();
        let n = input.len();
        let spec = ScanSpec::inclusive()
            .with_order(cfg.order)
            .expect("config order is valid")
            .with_tuple(cfg.tuple)
            .expect("config tuple is valid");

        let output: Option<Vec<T>>;
        let carry: CarryScheme;
        match cfg.algo {
            Algo::Sam | Algo::SamChained => {
                let items_per_thread = ipt.unwrap_or_else(|| {
                    TuningTable::tune(&cfg.device, cfg.width.bytes()).items_per_thread(n as u64)
                });
                let params = SamParams {
                    items_per_thread,
                    carry: if cfg.algo == Algo::SamChained {
                        CarryPropagation::Chained
                    } else {
                        CarryPropagation::Decoupled
                    },
                    // The figures reproduce the *published* SAM, whose
                    // auxiliary traffic and pipeline depth scale with the
                    // order; the single-pass cascade would beat the paper's
                    // own reported speedups at orders 5 and 8.
                    iterated_orders: true,
                    ..SamParams::default()
                };
                let (out, info) = scan_on_gpu(gpu, input, &Sum, &spec, &params);
                carry = info.carry_scheme();
                output = Some(out);
            }
            Algo::Cub => {
                let scanner = LookbackScan::default();
                let threads = cfg.device.threads_per_block as usize;
                let chunk_words = threads * scanner.items_per_thread * cfg.tuple;
                let chunks = n.div_ceil(chunk_words.max(1)) as u64;
                carry = CarryScheme::Lookback {
                    k: cfg.device.persistent_blocks(),
                    chunks,
                };
                let out = iterate_scan(input, cfg.order, |data| {
                    if cfg.tuple > 1 {
                        scanner.scan_tuples(gpu, data, &Sum, ScanKind::Inclusive, cfg.tuple)
                    } else {
                        scanner.scan(gpu, data, &Sum, &ScanSpec::inclusive())
                    }
                });
                output = Some(out);
            }
            Algo::Thrust | Algo::Cudpp | Algo::Mgpu => {
                assert_eq!(cfg.tuple, 1, "hierarchical baselines are tuple-1");
                let scanner = match cfg.algo {
                    Algo::Thrust => HierarchicalScan::thrust(),
                    Algo::Cudpp => HierarchicalScan::cudpp(),
                    _ => HierarchicalScan::mgpu(),
                };
                carry = CarryScheme::None;
                let mut refused = false;
                let out = iterate_scan(input, cfg.order, |data| {
                    match scanner.scan(gpu, data, &Sum, &ScanSpec::inclusive()) {
                        Some(v) => v,
                        None => {
                            refused = true;
                            Vec::new()
                        }
                    }
                });
                if refused {
                    return None;
                }
                output = Some(out);
            }
            Algo::Memcpy => {
                carry = CarryScheme::None;
                output = Some(memcpy_roof(gpu, input));
            }
        }

        if (n as u64) <= self.verify_cap && cfg.algo != Algo::Memcpy {
            let expect = sam_core::serial::scan(input, &Sum, &spec);
            assert_eq!(
                output.as_ref().expect("scan produced output"),
                &expect,
                "{} produced wrong results at n={n}",
                cfg.label()
            );
        }

        Some(Measurement {
            metrics: gpu.take_metrics(),
            carry,
        })
    }
}

/// CUB's tuple-typed scans need whole tuples; the paper trims such inputs
/// ("some of the inputs are actually a few elements shorter than
/// indicated", Section 5.3).
fn trimmed(cfg: &Config, n: u64) -> usize {
    let n = n as usize;
    if cfg.tuple > 1 {
        n - n % cfg.tuple
    } else {
        n
    }
}

/// Whether `cfg` supports extrapolated size `n` (library refusals that the
/// probe runs cannot discover).
fn supports(cfg: &Config, n: u64) -> bool {
    match cfg.algo {
        Algo::Cudpp => n <= (1 << 25),
        _ => true,
    }
}

/// Linear per-counter extrapolation from two measured probes, with the
/// carry geometry rescaled analytically.
fn extrapolate(lo: &(u64, Measurement), hi: &(u64, Measurement), n: u64) -> Measurement {
    let (n1, m1) = lo;
    let (n2, m2) = hi;
    debug_assert!(n1 < n2 && n > *n2);
    let scale = |c1: u64, c2: u64| -> u64 {
        let slope = (c2 as f64 - c1 as f64) / (*n2 as f64 - *n1 as f64);
        let v = c2 as f64 + slope * (n as f64 - *n2 as f64);
        v.max(0.0).round() as u64
    };
    let a = &m1.metrics;
    let b = &m2.metrics;
    let metrics = MetricsSnapshot {
        kernel_launches: b
            .kernel_launches
            .max(scale(a.kernel_launches, b.kernel_launches)),
        elem_read_transactions: scale(a.elem_read_transactions, b.elem_read_transactions),
        elem_write_transactions: scale(a.elem_write_transactions, b.elem_write_transactions),
        elem_read_words: scale(a.elem_read_words, b.elem_read_words),
        elem_write_words: scale(a.elem_write_words, b.elem_write_words),
        aux_read_transactions: scale(a.aux_read_transactions, b.aux_read_transactions),
        aux_write_transactions: scale(a.aux_write_transactions, b.aux_write_transactions),
        spill_transactions: scale(a.spill_transactions, b.spill_transactions),
        flag_polls: 0, // scheduling noise; never used by the model
        fences: scale(a.fences, b.fences),
        barriers: scale(a.barriers, b.barriers),
        shuffles: scale(a.shuffles, b.shuffles),
        compute_ops: scale(a.compute_ops, b.compute_ops),
        shared_accesses: scale(a.shared_accesses, b.shared_accesses),
    };
    let scale_chunks = |chunks2: u64| -> u64 {
        // Chunk size is constant across the probe and target (geometry is
        // fixed per config), so chunks scale with n.
        (chunks2 as f64 * n as f64 / *n2 as f64).round() as u64
    };
    let carry = match m2.carry {
        CarryScheme::None => CarryScheme::None,
        CarryScheme::SamDecoupled { k, chunks, orders } => CarryScheme::SamDecoupled {
            k,
            chunks: scale_chunks(chunks),
            orders,
        },
        CarryScheme::Chained { k, chunks } => CarryScheme::Chained {
            k,
            chunks: scale_chunks(chunks),
        },
        CarryScheme::Lookback { k, chunks } => CarryScheme::Lookback {
            k,
            chunks: scale_chunks(chunks),
        },
    };
    Measurement { metrics, carry }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness() -> Harness {
        Harness {
            functional_cap: 1 << 16,
            verify_cap: 1 << 14,
        }
    }

    fn titan(algo: Algo) -> Config {
        Config {
            device: DeviceSpec::titan_x(),
            algo,
            width: ElemWidth::I32,
            order: 1,
            tuple: 1,
        }
    }

    #[test]
    fn sam_series_is_monotone_through_the_ramp() {
        let h = harness();
        let sizes = [1 << 12, 1 << 14, 1 << 16, 1 << 20, 1 << 24];
        let s = h.series(&titan(Algo::Sam), &sizes);
        assert_eq!(s.points.len(), sizes.len());
        for w in s.points.windows(2) {
            assert!(
                w[1].throughput > w[0].throughput * 0.95,
                "throughput should rise: {:?}",
                s.points.iter().map(|p| p.throughput).collect::<Vec<_>>()
            );
        }
        assert!(s.points[0].measured);
        assert!(!s.points.last().unwrap().measured);
    }

    #[test]
    fn cudpp_refuses_huge_sizes() {
        let h = harness();
        let sizes = [1 << 14, 1 << 26];
        let s = h.series(&titan(Algo::Cudpp), &sizes);
        assert_eq!(s.points.len(), 1, "2^26 must be absent");
        assert_eq!(s.points[0].n, 1 << 14);
    }

    #[test]
    fn extrapolated_counts_match_a_direct_measurement() {
        // Measure 2^18 directly, then extrapolate it from 2^15/2^16 probes:
        // the element counters must agree exactly, aux within rounding.
        let cfg = titan(Algo::Sam);
        let h_direct = Harness {
            functional_cap: 1 << 18,
            verify_cap: 0,
        };
        let h_extra = Harness {
            functional_cap: 1 << 16,
            verify_cap: 0,
        };
        let n = 1u64 << 18;
        let direct = h_direct.series(&cfg, &[n]).points[0].estimate;
        let extra = h_extra.series(&cfg, &[n]).points[0].estimate;
        let rel = (direct.seconds - extra.seconds).abs() / direct.seconds;
        assert!(
            rel < 0.02,
            "direct {} vs extrapolated {}",
            direct.seconds,
            extra.seconds
        );
    }

    #[test]
    fn labels_include_order_and_tuple() {
        let mut cfg = titan(Algo::Sam);
        assert_eq!(cfg.label(), "SAM");
        cfg.order = 8;
        assert_eq!(cfg.label(), "SAM-8");
        cfg.order = 1;
        cfg.tuple = 5;
        assert_eq!(cfg.label(), "SAM-5");
    }

    #[test]
    fn tuple_inputs_are_trimmed() {
        let mut cfg = titan(Algo::Cub);
        cfg.tuple = 3;
        assert_eq!(trimmed(&cfg, 1000), 999);
        cfg.tuple = 1;
        assert_eq!(trimmed(&cfg, 1000), 1000);
    }

    /// The harness verifies kernels against the oracle as a side effect;
    /// this test makes sure every algorithm actually goes through that
    /// path without panicking.
    #[test]
    fn all_algorithms_verify_at_small_sizes() {
        let h = Harness {
            functional_cap: 1 << 14,
            verify_cap: 1 << 14,
        };
        for algo in [
            Algo::Sam,
            Algo::SamChained,
            Algo::Cub,
            Algo::Thrust,
            Algo::Cudpp,
            Algo::Mgpu,
            Algo::Memcpy,
        ] {
            let s = h.series(&titan(algo), &[1 << 13]);
            assert_eq!(s.points.len(), 1, "{algo:?}");
        }
    }
}
