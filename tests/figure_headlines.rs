//! The headline claims of the paper's evaluation (Section 5), asserted
//! against the reproduction harness. These are the shape targets listed in
//! `EXPERIMENTS.md`; if a refactor or recalibration breaks one of them,
//! this suite fails rather than silently producing a different paper.

use gpu_sim::DeviceSpec;
use sam_bench::{Algo, Config, ElemWidth, Harness};

fn harness() -> Harness {
    Harness {
        functional_cap: 1 << 16,
        verify_cap: 1 << 13,
    }
}

fn throughput(algo: Algo, device: DeviceSpec, order: u32, tuple: usize, n: u64) -> f64 {
    let cfg = Config {
        device,
        algo,
        width: ElemWidth::I32,
        order,
        tuple,
    };
    let series = harness().series(&cfg, &[n]);
    series.points[0].throughput
}

const BIG: u64 = 1 << 28;

/// "SAM reaches memory-copy speeds for large input sizes, which cannot be
/// surpassed" (Titan X).
#[test]
fn titan_x_sam_matches_memcpy() {
    let titan = DeviceSpec::titan_x;
    let sam = throughput(Algo::Sam, titan(), 1, 1, BIG);
    let roof = throughput(Algo::Memcpy, titan(), 1, 1, BIG);
    assert!(
        sam <= roof * 1.001,
        "nothing beats memcpy: {sam:.3e} vs {roof:.3e}"
    );
    assert!(
        sam > roof * 0.93,
        "SAM must track the roof: {sam:.3e} vs {roof:.3e}"
    );
    // ~33 billion 32-bit items per second (Section 5.1).
    assert!((29e9..35e9).contains(&sam), "plateau {sam:.3e}");
}

/// "For problem sizes above about 2^22, they provide about twice the
/// throughput of Thrust and CUDPP."
#[test]
fn titan_x_sam_doubles_thrust() {
    let titan = DeviceSpec::titan_x;
    let sam = throughput(Algo::Sam, titan(), 1, 1, BIG);
    let thrust = throughput(Algo::Thrust, titan(), 1, 1, BIG);
    let ratio = sam / thrust;
    assert!((1.7..2.7).contains(&ratio), "SAM/Thrust = {ratio:.2}");
}

/// CUB wins small-to-medium sizes on the Titan X; SAM catches up at the top.
#[test]
fn titan_x_cub_leads_midrange_only() {
    let titan = DeviceSpec::titan_x;
    let mid = 1u64 << 22;
    assert!(
        throughput(Algo::Cub, titan(), 1, 1, mid) > throughput(Algo::Sam, titan(), 1, 1, mid),
        "CUB leads at 2^22"
    );
    let sam_big = throughput(Algo::Sam, titan(), 1, 1, 1 << 30);
    let cub_big = throughput(Algo::Cub, titan(), 1, 1, 1 << 30);
    assert!(sam_big > cub_big * 0.98, "SAM ties or beats CUB at 2^30");
}

/// "On the older K40 ... CUB yields the best performance" — by ~50 % on
/// large order-1 inputs (Section 5.1).
#[test]
fn k40_cub_beats_sam_at_order_1() {
    let k40 = DeviceSpec::k40;
    let sam = throughput(Algo::Sam, k40(), 1, 1, BIG);
    let cub = throughput(Algo::Cub, k40(), 1, 1, BIG);
    let ratio = cub / sam;
    assert!((1.25..1.75).contains(&ratio), "CUB/SAM on K40 = {ratio:.2}");
}

/// Figure 7: SAM's higher-order advantage grows with the order on the
/// Titan X ("52% on order two, 78% on order five, 87% on order eight").
#[test]
fn titan_x_higher_order_advantage_grows() {
    let titan = DeviceSpec::titan_x;
    let n = 1u64 << 27;
    let ratio =
        |q: u32| throughput(Algo::Sam, titan(), q, 1, n) / throughput(Algo::Cub, titan(), q, 1, n);
    let r2 = ratio(2);
    let r5 = ratio(5);
    let r8 = ratio(8);
    assert!(r2 > 1.2, "order 2: SAM/CUB = {r2:.2}");
    assert!(r5 > r2 * 0.98, "order 5 ({r5:.2}) >= order 2 ({r2:.2})");
    assert!(r8 > 1.5 && r8 < 2.4, "order 8: SAM/CUB = {r8:.2}");
}

/// "On some small input sizes with order eight, SAM is almost three times
/// faster than CUB."
#[test]
fn titan_x_order8_peak_factor() {
    let titan = DeviceSpec::titan_x;
    let best = [1u64 << 20, 1 << 22, 1 << 24, 1 << 27]
        .iter()
        .map(|&n| throughput(Algo::Sam, titan(), 8, 1, n) / throughput(Algo::Cub, titan(), 8, 1, n))
        .fold(0.0f64, f64::max);
    assert!((1.8..3.2).contains(&best), "peak order-8 factor {best:.2}");
}

/// Figure 9: on the K40, CUB clearly wins order 2 but SAM ties by order 8.
#[test]
fn k40_order_crossover_near_eight() {
    let k40 = DeviceSpec::k40;
    let n = 1u64 << 26;
    let r2 = throughput(Algo::Sam, k40(), 2, 1, n) / throughput(Algo::Cub, k40(), 2, 1, n);
    let r8 = throughput(Algo::Sam, k40(), 8, 1, n) / throughput(Algo::Cub, k40(), 8, 1, n);
    assert!(r2 < 0.95, "CUB clearly ahead at order 2: {r2:.2}");
    assert!(
        (0.9..1.25).contains(&r8),
        "tied-or-better at order 8: {r8:.2}"
    );
}

/// Figure 11: crossover around five words per tuple on the Titan X
/// ("17% slower ... on two-tuples but 20% faster on five-tuples and 34%
/// faster on eight-tuples").
#[test]
fn titan_x_tuple_crossover_near_five() {
    let titan = DeviceSpec::titan_x;
    let n = 1u64 << 27;
    let ratio = |s: usize| {
        throughput(Algo::Sam, titan(), 1, s, n) / throughput(Algo::Cub, titan(), 1, s, n)
    };
    let r2 = ratio(2);
    let r5 = ratio(5);
    let r8 = ratio(8);
    assert!(r2 < 1.0, "CUB ahead on 2-tuples: {r2:.2}");
    assert!(r5 > 1.0, "SAM ahead on 5-tuples: {r5:.2}");
    assert!(
        r8 > r5,
        "advantage grows with tuple size: {r5:.2} -> {r8:.2}"
    );
    assert!(r8 < 2.6, "but stays bounded: {r8:.2}");
}

/// Figures 15/16: the decoupled scheme beats the chained scheme by ~64 %
/// on the Titan X and ~39 % on the K40 for large inputs.
#[test]
fn carry_scheme_ablation() {
    let titan_ratio = throughput(Algo::Sam, DeviceSpec::titan_x(), 1, 1, BIG)
        / throughput(Algo::SamChained, DeviceSpec::titan_x(), 1, 1, BIG);
    assert!(
        (1.35..1.95).contains(&titan_ratio),
        "Titan X ratio {titan_ratio:.2}"
    );
    let k40_ratio = throughput(Algo::Sam, DeviceSpec::k40(), 1, 1, BIG)
        / throughput(Algo::SamChained, DeviceSpec::k40(), 1, 1, BIG);
    assert!(
        (1.15..1.65).contains(&k40_ratio),
        "K40 ratio {k40_ratio:.2}"
    );
    assert!(
        titan_ratio > k40_ratio,
        "the trade-off helps more on the Titan X"
    );
}

/// 64-bit throughputs are about half the 32-bit ones (Figures 4/6).
#[test]
fn sixty_four_bit_halves_throughput() {
    let cfg32 = Config {
        device: DeviceSpec::titan_x(),
        algo: Algo::Sam,
        width: ElemWidth::I32,
        order: 1,
        tuple: 1,
    };
    let cfg64 = Config {
        width: ElemWidth::I64,
        ..cfg32.clone()
    };
    let h = harness();
    let t32 = h.series(&cfg32, &[BIG]).points[0].throughput;
    let t64 = h.series(&cfg64, &[BIG]).points[0].throughput;
    let ratio = t32 / t64;
    assert!((1.8..2.2).contains(&ratio), "32/64-bit ratio {ratio:.2}");
}
