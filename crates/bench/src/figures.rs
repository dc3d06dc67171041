//! Figure and table definitions: one entry per evaluation artifact of the
//! paper, mapping it to the configurations that regenerate it.

use crate::harness::{Config, ElemWidth, Harness, Series};
use crate::tunings::Algo;
use crate::workload::paper_sizes;
use gpu_sim::DeviceSpec;

/// A paper figure: device, element width, and the series it plots.
#[derive(Debug, Clone)]
pub struct FigureDef {
    /// Figure number in the paper (3–16).
    pub id: u8,
    /// Caption, matching the paper.
    pub title: String,
    /// The device the figure was measured on.
    pub device: DeviceSpec,
    /// Element width.
    pub width: ElemWidth,
    /// `(algorithm, order, tuple)` per series, in legend order.
    pub lineup: Vec<(Algo, u32, usize)>,
    /// Largest power-of-two size (30 for 32-bit, 29 for 64-bit: no tested
    /// code supports inputs above 4 GB, Section 5.1).
    pub max_pow2: u32,
}

/// Returns the definition of figure `id`.
///
/// # Panics
///
/// Panics if `id` is not in `3..=16`.
pub fn figure(id: u8) -> FigureDef {
    let conventional: Vec<(Algo, u32, usize)> = Algo::conventional_lineup()
        .iter()
        .map(|&a| (a, 1, 1))
        .collect();
    let orders = |qs: [u32; 3]| -> Vec<(Algo, u32, usize)> {
        qs.iter()
            .flat_map(|&q| [(Algo::Sam, q, 1), (Algo::Cub, q, 1)])
            .collect()
    };
    let tuples = |ss: [usize; 3]| -> Vec<(Algo, u32, usize)> {
        ss.iter()
            .flat_map(|&s| [(Algo::Sam, 1, s), (Algo::Cub, 1, s)])
            .collect()
    };
    let carries = vec![(Algo::Sam, 1, 1), (Algo::SamChained, 1, 1)];

    let (device, width, lineup, what) = match id {
        3 => (
            DeviceSpec::titan_x(),
            ElemWidth::I32,
            conventional,
            "Prefix-sum throughput",
        ),
        4 => (
            DeviceSpec::titan_x(),
            ElemWidth::I64,
            conventional,
            "Prefix-sum throughput",
        ),
        5 => (
            DeviceSpec::k40(),
            ElemWidth::I32,
            conventional,
            "Prefix-sum throughput",
        ),
        6 => (
            DeviceSpec::k40(),
            ElemWidth::I64,
            conventional,
            "Prefix-sum throughput",
        ),
        7 => (
            DeviceSpec::titan_x(),
            ElemWidth::I32,
            orders([2, 5, 8]),
            "Higher-order prefix-sum throughput",
        ),
        8 => (
            DeviceSpec::titan_x(),
            ElemWidth::I64,
            orders([2, 5, 8]),
            "Higher-order prefix-sum throughput",
        ),
        9 => (
            DeviceSpec::k40(),
            ElemWidth::I32,
            orders([2, 5, 8]),
            "Higher-order prefix-sum throughput",
        ),
        10 => (
            DeviceSpec::k40(),
            ElemWidth::I64,
            orders([2, 5, 8]),
            "Higher-order prefix-sum throughput",
        ),
        11 => (
            DeviceSpec::titan_x(),
            ElemWidth::I32,
            tuples([2, 5, 8]),
            "Tuple-based prefix-sum throughput",
        ),
        12 => (
            DeviceSpec::titan_x(),
            ElemWidth::I64,
            tuples([2, 5, 8]),
            "Tuple-based prefix-sum throughput",
        ),
        13 => (
            DeviceSpec::k40(),
            ElemWidth::I32,
            tuples([2, 5, 8]),
            "Tuple-based prefix-sum throughput",
        ),
        14 => (
            DeviceSpec::k40(),
            ElemWidth::I64,
            tuples([2, 5, 8]),
            "Tuple-based prefix-sum throughput",
        ),
        15 => (
            DeviceSpec::titan_x(),
            ElemWidth::I32,
            carries,
            "Prefix-sum throughput for two carry-propagation schemes",
        ),
        16 => (
            DeviceSpec::k40(),
            ElemWidth::I32,
            carries,
            "Prefix-sum throughput for two carry-propagation schemes",
        ),
        // --- Extensions beyond the paper (its Section 6 future work) ----
        // E17: the combined higher-order tuple-based case.
        17 => (
            DeviceSpec::titan_x(),
            ElemWidth::I32,
            [(2u32, 2usize), (5, 5), (8, 8)]
                .iter()
                .flat_map(|&(q, s)| [(Algo::Sam, q, s), (Algo::Cub, q, s)])
                .collect(),
            "[extension] Combined higher-order tuple-based prefix-sum throughput",
        ),
        // E18: energy efficiency of the conventional lineup.
        18 => (
            DeviceSpec::titan_x(),
            ElemWidth::I32,
            conventional.clone(),
            "[extension] Prefix-sum energy (nJ/item)",
        ),
        other => panic!("no figure {other}; the paper has figures 3-16 (17-18 are extensions)"),
    };
    let max_pow2 = match width {
        ElemWidth::I32 => 30,
        ElemWidth::I64 => 29,
    };
    let title = format!(
        "Figure {id}. {what} of {} integers for different problem sizes on the {}",
        width.label(),
        device.name
    );
    FigureDef {
        id,
        title,
        device,
        width,
        lineup,
        max_pow2,
    }
}

/// All figure ids in the paper's evaluation.
pub fn all_figure_ids() -> std::ops::RangeInclusive<u8> {
    3..=16
}

/// Extension figures beyond the paper (Section 6 future work): 17 is the
/// combined higher-order tuple-based case, 18 the energy comparison.
pub fn extension_figure_ids() -> std::ops::RangeInclusive<u8> {
    17..=18
}

impl FigureDef {
    /// The problem sizes this figure sweeps.
    pub fn sizes(&self) -> Vec<u64> {
        paper_sizes(self.max_pow2)
    }

    /// Runs the harness for every series of the figure.
    pub fn run(&self, harness: &Harness) -> Vec<Series> {
        let sizes = self.sizes();
        self.lineup
            .iter()
            .map(|&(algo, order, tuple)| {
                let cfg = Config {
                    device: self.device.clone(),
                    algo,
                    width: self.width,
                    order,
                    tuple,
                };
                harness.series(&cfg, &sizes)
            })
            .collect()
    }

    /// Renders series as an aligned text table (sizes × series, throughput
    /// in billions of words per second — the paper's y-axis).
    pub fn render(&self, series: &[Series]) -> String {
        let sizes = self.sizes();
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        out.push_str(&format!("{:>14}", "n"));
        for s in series {
            out.push_str(&format!("{:>12}", s.label));
        }
        out.push('\n');
        let energy = self.id == 18;
        for &n in &sizes {
            out.push_str(&format!("{n:>14}"));
            for s in series {
                match s.points.iter().find(|p| p.n == n) {
                    Some(p) if energy => out.push_str(&format!("{:>12.4}", p.energy.nj_per_item)),
                    Some(p) => out.push_str(&format!("{:>12.3}", p.throughput / 1e9)),
                    None => out.push_str(&format!("{:>12}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders series as CSV
    /// (`n,label,throughput_items_per_s,nj_per_item,measured`).
    pub fn to_csv(&self, series: &[Series]) -> String {
        let mut out = String::from("figure,n,series,throughput_items_per_s,nj_per_item,measured\n");
        for s in series {
            for p in &s.points {
                out.push_str(&format!(
                    "{},{},{},{:.6e},{:.4},{}\n",
                    self.id, p.n, s.label, p.throughput, p.energy.nj_per_item, p.measured
                ));
            }
        }
        out
    }
}

/// Renders Table 1 (hardware parameters and architectural factors).
pub fn render_table1() -> String {
    let mut out = String::from(
        "Table 1. Hardware parameters of the best-performing single-chip\n\
         NVIDIA GPUs from different generations\n\n",
    );
    out.push_str(&format!(
        "{:<22}{:<10}{:>4}{:>4}{:>6}{:>7}{:>11}\n",
        "GPU", "generation", "m", "b", "t", "r", "af * 1000"
    ));
    for spec in DeviceSpec::table1() {
        out.push_str(&format!(
            "{:<22}{:<10}{:>4}{:>4}{:>6}{:>7.1}{:>11.2}\n",
            spec.name,
            spec.generation.to_string(),
            spec.sms,
            spec.min_blocks_per_sm,
            spec.threads_per_block,
            spec.registers_per_thread,
            spec.architectural_factor() * 1000.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_is_defined() {
        for id in all_figure_ids() {
            let f = figure(id);
            assert_eq!(f.id, id);
            assert!(!f.lineup.is_empty());
            assert!(f.title.contains(&format!("Figure {id}")));
        }
    }

    #[test]
    fn figure_3_matches_paper_setup() {
        let f = figure(3);
        assert_eq!(f.device.name, "GeForce GTX Titan X");
        assert_eq!(f.width, ElemWidth::I32);
        assert_eq!(f.max_pow2, 30);
        assert_eq!(f.lineup.len(), 5);
        assert!(f.sizes().contains(&(1 << 30)));
        assert!(f.sizes().contains(&1_000_000_000));
    }

    #[test]
    fn sixty_four_bit_figures_cap_at_2_pow_29() {
        for id in [4, 6, 8, 10, 12, 14] {
            assert_eq!(figure(id).max_pow2, 29, "figure {id}");
        }
    }

    #[test]
    fn order_figures_pair_sam_and_cub() {
        let f = figure(7);
        assert_eq!(f.lineup.len(), 6);
        assert!(f.lineup.contains(&(Algo::Sam, 8, 1)));
        assert!(f.lineup.contains(&(Algo::Cub, 2, 1)));
    }

    #[test]
    fn carry_figures_compare_schemes() {
        let f = figure(16);
        assert_eq!(f.lineup, vec![(Algo::Sam, 1, 1), (Algo::SamChained, 1, 1)]);
        assert_eq!(f.device.name, "Tesla K40c");
    }

    #[test]
    #[should_panic(expected = "no figure")]
    fn unknown_figure_panics() {
        figure(2);
    }

    #[test]
    fn table1_renders_paper_values() {
        let t = render_table1();
        assert!(t.contains("7.32"));
        assert!(t.contains("0.92"));
        assert!(t.contains("1.46"));
        assert!(t.contains("GeForce GTX Titan X"));
    }

    #[test]
    fn render_produces_a_row_per_size() {
        let f = figure(15);
        let h = Harness {
            functional_cap: 1 << 12,
            verify_cap: 1 << 12,
        };
        // Tiny cap keeps this test fast; everything above is extrapolated.
        let series = f.run(&h);
        let text = f.render(&series);
        assert!(text.contains("SAM"));
        assert!(text.contains("Chained"));
        assert_eq!(text.lines().count(), 2 + f.sizes().len());
        let csv = f.to_csv(&series);
        assert!(csv.lines().count() > f.sizes().len());
    }
}
