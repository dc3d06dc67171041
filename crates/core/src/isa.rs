//! Runtime ISA selection for the explicit SIMD chunk kernels.
//!
//! The paper's thesis is that a prefix sum should run at the memory
//! bandwidth roof; getting there on a concrete host means committing to a
//! concrete vector instruction set instead of hoping the optimizer
//! auto-vectorizes the scalar kernels. This module names the kernel
//! families [`crate::simd`] implements ([`Isa`]), detects the best one the
//! running CPU supports exactly once per process ([`resolved`], cached in a
//! `OnceLock`), and lets tests and benchmarks pin the choice with the
//! `SAM_FORCE_KERNEL` environment variable.
//!
//! The resolved ISA is observable: [`crate::plan::ScanPlan::isa`] records
//! it per plan and every traced [`crate::obs::ScanReport`] echoes it, so a
//! benchmark row can state which kernel family actually executed.
//!
//! # Forcing a kernel family
//!
//! ```text
//! SAM_FORCE_KERNEL=scalar|swar|avx2|avx512|neon
//! ```
//!
//! The override is read once, at the first kernel dispatch (or the first
//! [`resolved`] call). Forcing an ISA the host cannot execute panics with a
//! diagnostic rather than faulting inside a kernel; [`Isa::Scalar`] and
//! [`Isa::Swar`] are always available. Unit tests that need a specific
//! path without touching process-global state use the explicit-ISA entry
//! points in [`crate::simd`] instead.

use std::sync::OnceLock;

/// A kernel family the `Sum` chunk kernels can dispatch to.
///
/// Ordered from least to most capable; [`detect`] picks the last available
/// variant. The narrow element types (`u8`/`i8`/`u16`/`i16`) always use the
/// SWAR packed-word kernels under any non-[`Isa::Scalar`] family — a 64-bit
/// general-purpose register already holds 8 or 4 of their lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// Portable scalar kernels only (the blocked Hillis–Steele fallback).
    Scalar,
    /// SWAR packed-word kernels: 8 `u8` or 4 `u16` lanes scanned inside one
    /// `u64` with carry-suppressed adds. Available on every target.
    Swar,
    /// AArch64 NEON: 128-bit vectors (baseline on every AArch64 target).
    Neon,
    /// x86-64 AVX2: 256-bit vectors.
    Avx2,
    /// x86-64 AVX-512 (requires `avx512f` and `avx512bw`): 512-bit vectors.
    Avx512,
}

impl Isa {
    /// Every kernel family, in capability order.
    pub const ALL: [Isa; 5] = [Isa::Scalar, Isa::Swar, Isa::Neon, Isa::Avx2, Isa::Avx512];

    /// The family's lowercase name (the `SAM_FORCE_KERNEL` spelling and the
    /// string recorded in benchmark JSON and [`crate::obs::ScanReport`]).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Swar => "swar",
            Isa::Neon => "neon",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Parses a [`Isa::name`] spelling (case-insensitive).
    pub fn from_name(name: &str) -> Option<Isa> {
        Isa::ALL
            .into_iter()
            .find(|isa| isa.name().eq_ignore_ascii_case(name.trim()))
    }

    /// Whether the running CPU can execute this family's kernels.
    ///
    /// [`Isa::Scalar`] and [`Isa::Swar`] are always available; the vector
    /// families require both the right target architecture and (on x86-64)
    /// a positive runtime feature probe.
    pub fn is_available(self) -> bool {
        match self {
            Isa::Scalar | Isa::Swar => true,
            Isa::Neon => cfg!(target_arch = "aarch64"),
            Isa::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Isa::Avx512 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx512bw")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Probes the CPU and returns the most capable available [`Isa`],
/// ignoring any `SAM_FORCE_KERNEL` override. Never below [`Isa::Swar`]:
/// the packed-word kernels run on every target.
pub fn detect() -> Isa {
    Isa::ALL
        .into_iter()
        .rev()
        .find(|isa| isa.is_available())
        .unwrap_or(Isa::Swar)
}

/// Every family the running CPU can execute, in capability order — the
/// iteration domain of the forced-path equivalence tests.
pub fn available() -> Vec<Isa> {
    Isa::ALL
        .into_iter()
        .filter(|isa| isa.is_available())
        .collect()
}

/// The process-wide resolved kernel family: `SAM_FORCE_KERNEL` if set,
/// otherwise [`detect`]. Computed once and cached; every `Sum` chunk
/// kernel dispatch and every [`crate::plan::ScanPlan`] consults this.
///
/// # Panics
///
/// Panics (once, at first resolution) if `SAM_FORCE_KERNEL` names an
/// unknown family or one the host cannot execute.
pub fn resolved() -> Isa {
    static RESOLVED: OnceLock<Isa> = OnceLock::new();
    *RESOLVED.get_or_init(|| match std::env::var("SAM_FORCE_KERNEL") {
        Err(_) => detect(),
        Ok(raw) => {
            let isa = Isa::from_name(&raw).unwrap_or_else(|| {
                panic!(
                    "SAM_FORCE_KERNEL={raw:?} is not a kernel family \
                     (expected one of scalar, swar, neon, avx2, avx512)"
                )
            });
            assert!(
                isa.is_available(),
                "SAM_FORCE_KERNEL={} forced, but this CPU cannot execute it \
                 (available: {})",
                isa.name(),
                available()
                    .iter()
                    .map(|i| i.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            isa
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for isa in Isa::ALL {
            assert_eq!(Isa::from_name(isa.name()), Some(isa));
            assert_eq!(Isa::from_name(&isa.name().to_uppercase()), Some(isa));
            assert_eq!(format!("{isa}"), isa.name());
        }
        assert_eq!(Isa::from_name(" avx2 "), Some(Isa::Avx2));
        assert_eq!(Isa::from_name("sse9"), None);
    }

    #[test]
    fn scalar_and_swar_are_always_available() {
        assert!(Isa::Scalar.is_available());
        assert!(Isa::Swar.is_available());
        let avail = available();
        assert!(avail.contains(&Isa::Scalar) && avail.contains(&Isa::Swar));
        // detect() never falls below SWAR and always picks something the
        // host can run.
        assert!(detect() >= Isa::Swar);
        assert!(detect().is_available());
        assert!(avail.contains(&detect()));
    }

    #[test]
    fn resolved_is_available_and_stable() {
        let first = resolved();
        assert!(first.is_available());
        assert_eq!(resolved(), first, "OnceLock caches the resolution");
    }
}
