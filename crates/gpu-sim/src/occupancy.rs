//! Occupancy calculation.
//!
//! A kernel's resource appetite — registers per thread, shared memory per
//! block, threads per block — bounds how many blocks can be simultaneously
//! resident on one SM. SAM launches exactly as many blocks as fit
//! (Section 2's persistent-thread model, `k = m · b`), so occupancy is what
//! connects Table 1's `b` and `r` columns to the launch geometry, and the
//! auto-tuner's register-pressure reasoning to real limits.

use crate::device::DeviceSpec;

/// Resource usage of one kernel launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelResources {
    /// Registers each thread uses.
    pub registers_per_thread: u32,
    /// Shared memory per block, in bytes.
    pub shared_bytes_per_block: u32,
    /// Threads per block.
    pub threads_per_block: u32,
}

/// What stops more blocks from becoming resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limiter {
    /// Register file exhausted.
    Registers,
    /// Shared memory exhausted.
    SharedMemory,
    /// Thread contexts exhausted.
    ThreadSlots,
    /// Hardware block contexts exhausted.
    BlockSlots,
}

/// Result of an occupancy calculation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Blocks resident per SM.
    pub blocks_per_sm: u32,
    /// Threads resident per SM.
    pub resident_threads_per_sm: u32,
    /// Fraction of the SM's thread contexts in use (0..=1).
    pub fraction: f64,
    /// The binding resource.
    pub limiter: Limiter,
}

/// Hardware block contexts per SM (16 on Kepler/Maxwell; modeled as a
/// constant across the presets).
const MAX_BLOCKS_PER_SM: u32 = 16;

impl DeviceSpec {
    /// Register-file capacity per SM, reconstructed from Table 1's
    /// invariant: the file holds exactly `b` full blocks at `r` registers
    /// per thread.
    pub fn registers_per_sm(&self) -> u32 {
        (self.registers_per_thread
            * f64::from(self.min_blocks_per_sm)
            * f64::from(self.threads_per_block)) as u32
    }

    /// Thread contexts per SM.
    pub fn thread_slots_per_sm(&self) -> u32 {
        self.max_resident_threads / self.sms
    }

    /// Computes the occupancy of a launch configuration on this device.
    ///
    /// # Panics
    ///
    /// Panics if `res.threads_per_block` is zero or exceeds the device
    /// limit.
    pub fn occupancy(&self, res: &KernelResources) -> Occupancy {
        assert!(
            res.threads_per_block > 0,
            "threads_per_block must be positive"
        );
        assert!(
            res.threads_per_block <= self.threads_per_block,
            "threads_per_block {} exceeds device limit {}",
            res.threads_per_block,
            self.threads_per_block
        );
        let candidates = [
            (
                Limiter::Registers,
                if res.registers_per_thread == 0 {
                    u32::MAX
                } else {
                    self.registers_per_sm() / (res.registers_per_thread * res.threads_per_block)
                },
            ),
            (
                Limiter::SharedMemory,
                self.shared_mem_per_sm_bytes
                    .checked_div(res.shared_bytes_per_block)
                    .unwrap_or(u32::MAX),
            ),
            (
                Limiter::ThreadSlots,
                self.thread_slots_per_sm() / res.threads_per_block,
            ),
            (Limiter::BlockSlots, MAX_BLOCKS_PER_SM),
        ];
        let &(limiter, blocks_per_sm) = candidates
            .iter()
            .min_by_key(|&&(_, b)| b)
            .expect("candidate list is non-empty");
        let resident = blocks_per_sm * res.threads_per_block;
        Occupancy {
            blocks_per_sm,
            resident_threads_per_sm: resident,
            fraction: f64::from(resident) / f64::from(self.thread_slots_per_sm()),
            limiter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SAM's own configuration reaches exactly Table 1's `b` blocks per SM.
    #[test]
    fn sam_configuration_matches_table1_b() {
        for spec in DeviceSpec::table1() {
            let res = KernelResources {
                registers_per_thread: spec.registers_per_thread as u32,
                shared_bytes_per_block: spec.shared_mem_per_sm_bytes / spec.min_blocks_per_sm,
                threads_per_block: spec.threads_per_block,
            };
            let occ = spec.occupancy(&res);
            assert_eq!(occ.blocks_per_sm, spec.min_blocks_per_sm, "{}", spec.name);
            assert!((occ.fraction - 1.0).abs() < 1e-9, "{}", spec.name);
        }
    }

    #[test]
    fn register_pressure_halves_occupancy() {
        let titan = DeviceSpec::titan_x();
        let res = KernelResources {
            registers_per_thread: 64, // double the budget
            shared_bytes_per_block: 0,
            threads_per_block: 1024,
        };
        let occ = titan.occupancy(&res);
        assert_eq!(occ.blocks_per_sm, 1);
        assert_eq!(occ.limiter, Limiter::Registers);
        assert!((occ.fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn shared_memory_can_be_the_limiter() {
        let k40 = DeviceSpec::k40();
        let res = KernelResources {
            registers_per_thread: 8,
            shared_bytes_per_block: 40 << 10, // 40 KB of 48 KB
            threads_per_block: 256,
        };
        let occ = k40.occupancy(&res);
        assert_eq!(occ.blocks_per_sm, 1);
        assert_eq!(occ.limiter, Limiter::SharedMemory);
    }

    #[test]
    fn small_blocks_hit_the_block_slot_limit() {
        let titan = DeviceSpec::titan_x();
        let res = KernelResources {
            registers_per_thread: 4,
            shared_bytes_per_block: 0,
            threads_per_block: 32,
        };
        let occ = titan.occupancy(&res);
        assert_eq!(occ.limiter, Limiter::BlockSlots);
        assert_eq!(occ.blocks_per_sm, 16);
        // 16 * 32 = 512 threads of 2048 slots.
        assert!(occ.fraction < 0.3);
    }

    #[test]
    #[should_panic(expected = "exceeds device limit")]
    fn oversized_block_rejected() {
        DeviceSpec::c1060().occupancy(&KernelResources {
            registers_per_thread: 4,
            shared_bytes_per_block: 0,
            threads_per_block: 1024,
        });
    }
}

serde::impl_serialize_unit_enum!(Limiter {
    Registers,
    SharedMemory,
    ThreadSlots,
    BlockSlots
});
serde::impl_serialize_struct!(KernelResources {
    registers_per_thread,
    shared_bytes_per_block,
    threads_per_block,
});
serde::impl_serialize_struct!(Occupancy {
    blocks_per_sm,
    resident_threads_per_sm,
    fraction,
    limiter,
});
