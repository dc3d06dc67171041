//! Every worked numeric example in the paper text, verified end-to-end.

use sam_core::op::Sum;
use sam_core::{serial, ScanSpec};
use sam_delta::encode::{encode_direct, encode_iterated};

const INPUT: [i32; 10] = [1, 2, 3, 4, 5, 2, 4, 6, 8, 10];
const DIFFS: [i32; 10] = [1, 1, 1, 1, 1, -3, 2, 2, 2, 2];
const DIFF2: [i32; 10] = [1, 0, 0, 0, 0, -4, 5, 0, 0, 0];

/// Section 1: "input values / differences / prefix sum".
#[test]
fn section1_delta_example() {
    let spec = ScanSpec::inclusive();
    assert_eq!(encode_iterated(&INPUT, &spec), DIFFS);
    assert_eq!(serial::scan(&DIFFS, &Sum, &spec), INPUT);
}

/// Section 2.4: "2nd-order diff" computed directly
/// (`out_k = in_k - 2 in_{k-1} + in_{k-2}`).
#[test]
fn section24_direct_second_order_difference() {
    let spec = ScanSpec::inclusive().with_order(2).expect("valid order");
    assert_eq!(encode_direct(&INPUT, &spec), DIFF2);
}

/// Section 2.4: "diff of diffs" equals the direct second-order sequence.
#[test]
fn section24_iterated_equals_direct() {
    let spec = ScanSpec::inclusive().with_order(2).expect("valid order");
    assert_eq!(encode_iterated(&INPUT, &spec), DIFF2);
}

/// Section 2.4: "iteratively computing q prefix sums will decode a
/// qth-order difference sequence".
#[test]
fn section24_two_prefix_sums_decode_order2() {
    let once = serial::scan(&DIFF2, &Sum, &ScanSpec::inclusive());
    let twice = serial::scan(&once, &Sum, &ScanSpec::inclusive());
    assert_eq!(twice, INPUT);
    // And the native order-2 scan does it in one call.
    let spec = ScanSpec::inclusive().with_order(2).expect("valid order");
    assert_eq!(serial::scan(&DIFF2, &Sum, &spec), INPUT);
}

/// Section 2.3: the x/y tuple sequence — tuple-based differencing
/// "subtract[s] x_{k-1} from x_k and y_{k-1} from y_k, avoiding the mixing
/// of x and y values", and the tuple scan inverts it.
#[test]
fn section23_tuple_reordering_equivalence() {
    let xs = [3i32, 5, 9, 10];
    let ys = [100i32, 90, 95, 70];
    let interleaved: Vec<i32> = xs.iter().zip(&ys).flat_map(|(&x, &y)| [x, y]).collect();

    // The reorder / scan / reorder-back method of Section 2.3 ...
    let sx = serial::scan(&xs, &Sum, &ScanSpec::inclusive());
    let sy = serial::scan(&ys, &Sum, &ScanSpec::inclusive());
    let reordered: Vec<i32> = sx.iter().zip(&sy).flat_map(|(&x, &y)| [x, y]).collect();

    // ... equals the direct strided tuple scan.
    let spec = ScanSpec::inclusive().with_tuple(2).expect("valid tuple");
    assert_eq!(serial::scan(&interleaved, &Sum, &spec), reordered);
}

/// Section 2.5's carry count: `c = k * n / e` — the kernel's reported
/// geometry matches the formula.
#[test]
fn section25_carry_count_formula() {
    use gpu_sim::{DeviceSpec, Gpu};
    use sam_core::kernel::{scan_on_gpu, SamParams};

    let gpu = Gpu::new(DeviceSpec::k40());
    let n = 1 << 18;
    let input = vec![1i32; n];
    let params = SamParams {
        items_per_thread: 4,
        ..SamParams::default()
    };
    let (_, info) = scan_on_gpu(&gpu, &input, &Sum, &ScanSpec::inclusive(), &params);
    let e = info.chunk_elems as u64; // elements per chunk
    let k = u64::from(info.k);
    assert_eq!(e, 1024 * 4);
    assert_eq!(k, 30); // k = m * b = 15 * 2 on the K40
                       // total carries = k per chunk, chunks = n / e
    let carries = k * (n as u64) / e;
    assert_eq!(info.chunks * k, carries);
}
