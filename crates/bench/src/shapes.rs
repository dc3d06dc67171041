//! Shape verification: the paper's headline claims, checked one by one.
//!
//! Each [`ShapeCheck`] pairs a sentence from Section 5 of the paper with
//! the reproduced quantity and an acceptance band. The
//! `verify_shapes` binary prints the report; CI asserts the same claims
//! through `tests/figure_headlines.rs`.

use crate::harness::{Config, ElemWidth, Harness};
use crate::tunings::Algo;
use gpu_sim::DeviceSpec;

/// One verified claim.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// Short identifier (`fig3/sam-memcpy`, ...).
    pub id: &'static str,
    /// The paper's claim, paraphrased.
    pub paper: &'static str,
    /// The reproduced quantity (a ratio or throughput).
    pub ours: f64,
    /// Acceptance band (inclusive).
    pub band: (f64, f64),
}

impl ShapeCheck {
    /// Whether the reproduced value falls inside the band.
    pub fn pass(&self) -> bool {
        self.ours >= self.band.0 && self.ours <= self.band.1
    }
}

fn throughput(
    h: &Harness,
    algo: Algo,
    device: DeviceSpec,
    order: u32,
    tuple: usize,
    n: u64,
) -> f64 {
    let cfg = Config {
        device,
        algo,
        width: ElemWidth::I32,
        order,
        tuple,
    };
    h.series(&cfg, &[n]).points[0].throughput
}

/// Runs every headline check. Expensive (many functional probes); a
/// `functional_cap` of 2^16 is plenty.
pub fn verify_all(h: &Harness) -> Vec<ShapeCheck> {
    let titan = DeviceSpec::titan_x;
    let k40 = DeviceSpec::k40;
    let big = 1u64 << 28;
    let mut checks = Vec::new();

    let sam_big = throughput(h, Algo::Sam, titan(), 1, 1, big);
    let roof = throughput(h, Algo::Memcpy, titan(), 1, 1, big);
    checks.push(ShapeCheck {
        id: "fig3/sam-vs-memcpy",
        paper: "SAM reaches memory-copy speed on the Titan X (ratio vs cudaMemcpy)",
        ours: sam_big / roof,
        band: (0.93, 1.001),
    });
    checks.push(ShapeCheck {
        id: "fig3/sam-plateau",
        paper: "~33 billion 32-bit items/s at the plateau (G items/s)",
        ours: sam_big / 1e9,
        band: (29.0, 35.0),
    });
    checks.push(ShapeCheck {
        id: "fig3/sam-vs-thrust",
        paper: "about twice the throughput of Thrust above 2^22",
        ours: sam_big / throughput(h, Algo::Thrust, titan(), 1, 1, big),
        band: (1.7, 2.7),
    });
    checks.push(ShapeCheck {
        id: "fig5/cub-vs-sam-k40",
        paper: "CUB exceeds SAM by about 50% on the K40 (large inputs)",
        ours: throughput(h, Algo::Cub, k40(), 1, 1, big)
            / throughput(h, Algo::Sam, k40(), 1, 1, big),
        band: (1.25, 1.75),
    });
    for (id, q, band) in [
        ("fig7/order2", 2u32, (1.2, 1.9)),
        ("fig7/order5", 5, (1.4, 2.1)),
        ("fig7/order8", 8, (1.5, 2.4)),
    ] {
        checks.push(ShapeCheck {
            id,
            paper: "SAM over CUB grows with the order (52%/78%/87% at 2^27)",
            ours: throughput(h, Algo::Sam, titan(), q, 1, 1 << 27)
                / throughput(h, Algo::Cub, titan(), q, 1, 1 << 27),
            band,
        });
    }
    checks.push(ShapeCheck {
        id: "fig9/order8-tie",
        paper: "on the K40, SAM ties CUB at order eight",
        ours: throughput(h, Algo::Sam, k40(), 8, 1, 1 << 26)
            / throughput(h, Algo::Cub, k40(), 8, 1, 1 << 26),
        band: (0.9, 1.25),
    });
    for (id, s, band) in [
        ("fig11/tuple2", 2usize, (0.6, 1.0)),
        ("fig11/tuple5", 5, (1.0, 1.45)),
        ("fig11/tuple8", 8, (1.1, 1.7)),
    ] {
        checks.push(ShapeCheck {
            id,
            paper: "tuple crossover near five words (−17%/+20%/+34% at s=2/5/8)",
            ours: throughput(h, Algo::Sam, titan(), 1, s, 1 << 27)
                / throughput(h, Algo::Cub, titan(), 1, s, 1 << 27),
            band,
        });
    }
    checks.push(ShapeCheck {
        id: "fig15/chained-titan",
        paper: "decoupled carries up to 64% faster than chained (Titan X)",
        ours: sam_big / throughput(h, Algo::SamChained, titan(), 1, 1, big),
        band: (1.35, 1.95),
    });
    checks.push(ShapeCheck {
        id: "fig16/chained-k40",
        paper: "up to 39% faster (K40)",
        ours: throughput(h, Algo::Sam, k40(), 1, 1, big)
            / throughput(h, Algo::SamChained, k40(), 1, 1, big),
        band: (1.15, 1.65),
    });
    checks
}

/// Renders the report.
pub fn render(checks: &[ShapeCheck]) -> String {
    let mut out = String::from("Shape verification against the paper's Section 5 claims\n\n");
    let mut pass = 0;
    for c in checks {
        let status = if c.pass() { "PASS" } else { "FAIL" };
        if c.pass() {
            pass += 1;
        }
        out.push_str(&format!(
            "[{status}] {:<22} {:>7.3}  (band {:.2}..{:.2})\n       {}\n",
            c.id, c.ours, c.band.0, c.band.1, c.paper
        ));
    }
    out.push_str(&format!("\n{pass}/{} checks passed\n", checks.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_are_sane() {
        // Construct-only test: bands must be non-empty intervals.
        let c = ShapeCheck {
            id: "x",
            paper: "y",
            ours: 1.0,
            band: (0.9, 1.1),
        };
        assert!(c.pass());
        let c2 = ShapeCheck { ours: 2.0, ..c };
        assert!(!c2.pass());
    }

    /// Full verification (also covered by the workspace integration tests,
    /// but this keeps the report binary honest).
    #[test]
    fn all_shapes_pass() {
        let h = Harness {
            functional_cap: 1 << 15,
            verify_cap: 1 << 12,
        };
        let checks = verify_all(&h);
        let failures: Vec<&ShapeCheck> = checks.iter().filter(|c| !c.pass()).collect();
        assert!(failures.is_empty(), "failed checks: {failures:#?}");
    }
}
