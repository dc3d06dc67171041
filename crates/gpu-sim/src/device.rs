//! GPU device descriptions.
//!
//! A [`DeviceSpec`] captures the hardware parameters the paper's evaluation
//! depends on: the number of streaming multiprocessors (`m`), the minimum
//! number of resident thread blocks per SM needed to fully occupy the GPU
//! (`b`), the number of threads per block the scan kernels use (`t`), the
//! number of registers available to each thread (`r`), clock rates, cache
//! sizes, and the theoretical peak main-memory bandwidth.
//!
//! The four presets ([`DeviceSpec::c1060`], [`DeviceSpec::m2090`],
//! [`DeviceSpec::k40`], [`DeviceSpec::titan_x`]) reproduce Table 1 of the
//! paper, and the two evaluation devices (K40, Titan X) additionally carry
//! the parameters quoted in Section 4 (Experimental Methodology).

/// NVIDIA GPU architecture generations covered by Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Generation {
    /// Tesla (compute capability 1.x), e.g. the C1060.
    Tesla,
    /// Fermi (compute capability 2.x), e.g. the M2090.
    Fermi,
    /// Kepler (compute capability 3.x), e.g. the K40.
    Kepler,
    /// Maxwell (compute capability 5.x), e.g. the GTX Titan X.
    Maxwell,
}

impl std::fmt::Display for Generation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Generation::Tesla => "Tesla",
            Generation::Fermi => "Fermi",
            Generation::Kepler => "Kepler",
            Generation::Maxwell => "Maxwell",
        };
        f.write_str(s)
    }
}

/// Hardware description of a simulated GPU.
///
/// All scan kernels in this workspace are launched against a `DeviceSpec`;
/// the spec fixes the amount of hardware parallelism (and therefore the
/// number of persistent thread blocks `k = m * b`), the warp width, and the
/// parameters of the analytic performance model.
///
/// # Examples
///
/// ```
/// use gpu_sim::DeviceSpec;
///
/// let titan = DeviceSpec::titan_x();
/// assert_eq!(titan.persistent_blocks(), 48);
/// // Table 1 reports af * 1000 = 1.46 for the Titan X.
/// assert!((titan.architectural_factor() * 1000.0 - 1.46).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"GeForce GTX Titan X"`.
    pub name: &'static str,
    /// Architecture generation.
    pub generation: Generation,
    /// Number of streaming multiprocessors (`m` in the paper).
    pub sms: u32,
    /// Minimum number of thread blocks per SM for full occupancy (`b`).
    pub min_blocks_per_sm: u32,
    /// Threads per thread block used by the scan kernels (`t`).
    pub threads_per_block: u32,
    /// Registers available per thread (`r`). Fractional on the M2090
    /// (21.3 = 32768 registers / (2 * 768) threads).
    pub registers_per_thread: f64,
    /// Total number of scalar processing elements (CUDA cores).
    pub processing_elements: u32,
    /// Maximum number of thread contexts resident on the whole GPU.
    pub max_resident_threads: u32,
    /// Core (processing element) clock in MHz.
    pub core_clock_mhz: f64,
    /// Effective memory clock in MHz (as quoted by the paper).
    pub mem_clock_mhz: f64,
    /// Theoretical peak main-memory bandwidth in GB/s.
    pub peak_bandwidth_gbs: f64,
    /// Shared L2 cache capacity in bytes.
    pub l2_bytes: u64,
    /// Global memory capacity in bytes.
    pub global_mem_bytes: u64,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm_bytes: u32,
    /// Width of a warp in threads. 32 on every CUDA GPU to date.
    pub warp_width: u32,
    /// Board power limit (TDP) in watts, for the energy model.
    pub tdp_watts: f64,
}

/// Number of threads per warp on all CUDA-capable GPUs.
pub const WARP_WIDTH: usize = 32;

/// Size of a coalescable main-memory segment in bytes.
///
/// If all threads of a warp simultaneously access words inside the same
/// aligned 128-byte segment, the hardware merges the accesses into a single
/// memory transaction.
pub const SEGMENT_BYTES: usize = 128;

impl DeviceSpec {
    /// Tesla-generation C1060 (Table 1, first row).
    pub fn c1060() -> Self {
        DeviceSpec {
            name: "Tesla C1060",
            generation: Generation::Tesla,
            sms: 30,
            min_blocks_per_sm: 2,
            threads_per_block: 512,
            registers_per_thread: 16.0,
            processing_elements: 240,
            max_resident_threads: 30 * 1024,
            core_clock_mhz: 602.0,
            mem_clock_mhz: 800.0,
            peak_bandwidth_gbs: 102.0,
            l2_bytes: 0, // Tesla generation had no unified L2
            global_mem_bytes: 4 << 30,
            shared_mem_per_sm_bytes: 16 << 10,
            warp_width: WARP_WIDTH as u32,
            tdp_watts: 187.8,
        }
    }

    /// Fermi-generation M2090 (Table 1, second row).
    pub fn m2090() -> Self {
        DeviceSpec {
            name: "Tesla M2090",
            generation: Generation::Fermi,
            sms: 16,
            min_blocks_per_sm: 2,
            threads_per_block: 768,
            // 32768 registers per SM / (2 blocks * 768 threads) = 21.33
            registers_per_thread: 32768.0 / (2.0 * 768.0),
            processing_elements: 512,
            max_resident_threads: 16 * 1536,
            core_clock_mhz: 1300.0,
            mem_clock_mhz: 1850.0,
            peak_bandwidth_gbs: 177.6,
            l2_bytes: 768 << 10,
            global_mem_bytes: 6 << 30,
            shared_mem_per_sm_bytes: 48 << 10,
            warp_width: WARP_WIDTH as u32,
            tdp_watts: 225.0,
        }
    }

    /// Kepler-generation Tesla K40c (Table 1, third row; Section 4).
    pub fn k40() -> Self {
        DeviceSpec {
            name: "Tesla K40c",
            generation: Generation::Kepler,
            sms: 15,
            min_blocks_per_sm: 2,
            threads_per_block: 1024,
            registers_per_thread: 32.0,
            processing_elements: 2880,
            max_resident_threads: 30720,
            core_clock_mhz: 745.0,
            mem_clock_mhz: 3000.0,
            peak_bandwidth_gbs: 288.0,
            l2_bytes: 1536 << 10,
            global_mem_bytes: 12 << 30,
            shared_mem_per_sm_bytes: 48 << 10,
            warp_width: WARP_WIDTH as u32,
            tdp_watts: 235.0,
        }
    }

    /// Maxwell-generation GeForce GTX Titan X (Table 1, fourth row; Section 4).
    pub fn titan_x() -> Self {
        DeviceSpec {
            name: "GeForce GTX Titan X",
            generation: Generation::Maxwell,
            sms: 24,
            min_blocks_per_sm: 2,
            threads_per_block: 1024,
            registers_per_thread: 32.0,
            processing_elements: 3072,
            max_resident_threads: 49152,
            core_clock_mhz: 1100.0,
            mem_clock_mhz: 3500.0,
            peak_bandwidth_gbs: 336.0,
            l2_bytes: 2 << 20,
            global_mem_bytes: 12 << 30,
            shared_mem_per_sm_bytes: 96 << 10,
            warp_width: WARP_WIDTH as u32,
            tdp_watts: 250.0,
        }
    }

    /// All four Table 1 presets, oldest generation first.
    pub fn table1() -> Vec<DeviceSpec> {
        vec![Self::c1060(), Self::m2090(), Self::k40(), Self::titan_x()]
    }

    /// Number of persistent thread blocks `k = m * b` that SAM launches:
    /// exactly as many blocks as can be simultaneously resident.
    ///
    /// The paper reports `k = 30` for the K40 and `k = 48` for the Titan X.
    pub fn persistent_blocks(&self) -> u32 {
        self.sms * self.min_blocks_per_sm
    }

    /// The architectural factor `af = m * b / (t * r)` from Section 2.5:
    /// the average amount of carry-propagation work per input element.
    pub fn architectural_factor(&self) -> f64 {
        f64::from(self.sms) * f64::from(self.min_blocks_per_sm)
            / (f64::from(self.threads_per_block) * self.registers_per_thread)
    }

    /// Number of warps in one thread block.
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block / self.warp_width
    }

    /// Ratio of memory clock to core clock.
    ///
    /// Section 5.1 uses this ratio to explain why trading extra computation
    /// for reduced memory latency pays off more on the Titan X (ratio 3.2)
    /// than on the K40 (ratio 4.0).
    pub fn mem_to_core_clock_ratio(&self) -> f64 {
        self.mem_clock_mhz / self.core_clock_mhz
    }

    /// Number of registers per thread left for holding input elements after
    /// subtracting the registers the scan computation itself needs.
    ///
    /// The paper's `e = t * O(r)` term: some registers are needed for
    /// address arithmetic and loop bookkeeping and cannot hold elements.
    pub fn element_registers(&self) -> u32 {
        let overhead = 12.0;
        (self.registers_per_thread - overhead).max(1.0) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 of the paper: `af * 1000` per device.
    #[test]
    fn table1_architectural_factors() {
        let expect = [
            ("Tesla C1060", 7.32),
            ("Tesla M2090", 1.96),
            ("Tesla K40c", 0.92),
            ("GeForce GTX Titan X", 1.46),
        ];
        for (spec, (name, af_k)) in DeviceSpec::table1().iter().zip(expect) {
            assert_eq!(spec.name, name);
            let got = spec.architectural_factor() * 1000.0;
            assert!(
                (got - af_k).abs() < 0.01,
                "{name}: af*1000 = {got:.3}, paper says {af_k}"
            );
        }
    }

    #[test]
    fn table1_raw_parameters() {
        let k40 = DeviceSpec::k40();
        assert_eq!(k40.sms, 15);
        assert_eq!(k40.min_blocks_per_sm, 2);
        assert_eq!(k40.threads_per_block, 1024);
        assert_eq!(k40.registers_per_thread, 32.0);
        let titan = DeviceSpec::titan_x();
        assert_eq!(titan.sms, 24);
        assert_eq!(titan.processing_elements, 3072);
        assert_eq!(titan.max_resident_threads, 49152);
    }

    #[test]
    fn persistent_block_counts_match_paper() {
        // Section 2.2: "k is a small constant, 30 and 48 on our GPUs".
        assert_eq!(DeviceSpec::k40().persistent_blocks(), 30);
        assert_eq!(DeviceSpec::titan_x().persistent_blocks(), 48);
    }

    #[test]
    fn clock_ratios_match_section_5_1() {
        // "the K40's memory is clocked 4.0 times faster than its processing
        //  elements but the Titan X's memory is only clocked 3.2 times faster"
        assert!((DeviceSpec::k40().mem_to_core_clock_ratio() - 4.0).abs() < 0.05);
        assert!((DeviceSpec::titan_x().mem_to_core_clock_ratio() - 3.2).abs() < 0.05);
    }

    #[test]
    fn warp_geometry() {
        for spec in DeviceSpec::table1() {
            assert_eq!(spec.warp_width, 32);
            assert_eq!(spec.warps_per_block() * 32, spec.threads_per_block);
        }
    }

    #[test]
    fn generation_display() {
        assert_eq!(Generation::Maxwell.to_string(), "Maxwell");
        assert_eq!(Generation::Tesla.to_string(), "Tesla");
    }

    #[test]
    fn element_registers_positive_everywhere() {
        for spec in DeviceSpec::table1() {
            assert!(spec.element_registers() >= 1);
            assert!((spec.element_registers() as f64) < spec.registers_per_thread);
        }
    }
}

serde::impl_serialize_unit_enum!(Generation {
    Tesla,
    Fermi,
    Kepler,
    Maxwell
});
serde::impl_serialize_struct!(DeviceSpec {
    name,
    generation,
    sms,
    min_blocks_per_sm,
    threads_per_block,
    registers_per_thread,
    processing_elements,
    max_resident_threads,
    core_clock_mhz,
    mem_clock_mhz,
    peak_bandwidth_gbs,
    l2_bytes,
    global_mem_bytes,
    shared_mem_per_sm_bytes,
    warp_width,
    tdp_watts,
});
