//! Observes the carry pipeline of Figure 2 through the execution trace:
//! blocks publish local sums *before* gathering predecessors, carries
//! become ready only after every predecessor published, and the per-chunk
//! event structure matches the protocol.

use gpu_sim::{DeviceSpec, EventKind, Gpu};
use sam_core::kernel::{scan_on_gpu, SamParams};
use sam_core::op::Sum;
use sam_core::ScanSpec;

fn traced_run_with(order: u32, iterated_orders: bool) -> (Vec<gpu_sim::Event>, u64) {
    let gpu = Gpu::with_trace(DeviceSpec::k40());
    let n = 100_000;
    let input: Vec<i32> = (0..n).map(|i| i % 9 - 4).collect();
    let spec = ScanSpec::inclusive()
        .with_order(order)
        .expect("valid order");
    let (out, info) = scan_on_gpu(
        &gpu,
        &input,
        &Sum,
        &spec,
        &SamParams {
            items_per_thread: 1,
            iterated_orders,
            ..SamParams::default()
        },
    );
    assert_eq!(out, sam_core::serial::scan(&input, &Sum, &spec));
    let log = gpu.trace().expect("tracing enabled");
    (log.events(), info.chunks)
}

fn traced_run(order: u32) -> (Vec<gpu_sim::Event>, u64) {
    traced_run_with(order, false)
}

/// Sequence number of the first event matching the query, indexed
///`(chunk, kind)`.
fn seq_of(events: &[gpu_sim::Event], chunk: u64, kind: EventKind) -> u64 {
    events
        .iter()
        .find(|e| e.chunk == chunk && e.kind == kind)
        .unwrap_or_else(|| panic!("missing event {kind:?} for chunk {chunk}"))
        .seq
}

#[test]
fn event_structure_is_complete() {
    let (events, chunks) = traced_run(1);
    for c in 0..chunks {
        seq_of(&events, c, EventKind::ChunkStart);
        seq_of(&events, c, EventKind::SumPublished { iter: 0 });
        seq_of(&events, c, EventKind::CarryReady { iter: 0 });
        seq_of(&events, c, EventKind::ChunkDone);
    }
    // Exactly four events per chunk at order 1.
    assert_eq!(events.len() as u64, 4 * chunks);
}

/// The write-followed-by-independent-reads pattern: each chunk publishes
/// its local sum before its own carry is complete (that is what decouples
/// the blocks).
#[test]
fn publish_precedes_carry_within_each_chunk() {
    let (events, chunks) = traced_run(1);
    for c in 0..chunks {
        let publish = seq_of(&events, c, EventKind::SumPublished { iter: 0 });
        let carry = seq_of(&events, c, EventKind::CarryReady { iter: 0 });
        assert!(publish < carry, "chunk {c}");
    }
}

/// Causality of Figure 2: a chunk's carry needs every predecessor in its
/// window to have published first.
#[test]
fn carry_waits_for_all_window_predecessors() {
    let (events, chunks) = traced_run(1);
    let k = u64::from(DeviceSpec::k40().persistent_blocks());
    for c in 1..chunks {
        let carry = seq_of(&events, c, EventKind::CarryReady { iter: 0 });
        let first = c.saturating_sub(k - 1);
        for j in first..c {
            let publish = seq_of(&events, j, EventKind::SumPublished { iter: 0 });
            assert!(
                publish < carry,
                "chunk {c} carry (seq {carry}) before chunk {j} publish (seq {publish})"
            );
        }
    }
}

/// Higher orders deepen the pipeline: iteration i+1's publish requires
/// iteration i's carry, and iteration i's carry requires the predecessors'
/// iteration-i publishes.
#[test]
fn higher_order_iterations_are_causally_chained() {
    let q = 3;
    // Pin the paper's per-order carry rounds; the single-pass cascade
    // (the default for integer sums) has no per-iteration events to chain.
    let (events, chunks) = traced_run_with(q, true);
    assert_eq!(events.len() as u64, (2 + 2 * u64::from(q)) * chunks);
    for c in 0..chunks {
        for iter in 0..q {
            let publish = seq_of(&events, c, EventKind::SumPublished { iter });
            let carry = seq_of(&events, c, EventKind::CarryReady { iter });
            assert!(publish < carry, "chunk {c} iter {iter}");
            if iter > 0 {
                let prev_carry = seq_of(&events, c, EventKind::CarryReady { iter: iter - 1 });
                assert!(
                    prev_carry < publish,
                    "chunk {c}: iter {iter} published before iter {} carry",
                    iter - 1
                );
            }
        }
        if c > 0 {
            // Last iteration's carry still needs the immediate
            // predecessor's last-iteration publish.
            let carry = seq_of(&events, c, EventKind::CarryReady { iter: q - 1 });
            let pred = seq_of(&events, c - 1, EventKind::SumPublished { iter: q - 1 });
            assert!(pred < carry, "chunk {c}");
        }
    }
}

/// The single-pass cascade collapses the higher-order pipeline to the
/// order-1 event structure: one publish and one carry round per chunk
/// regardless of the order, with the same publish-before-carry decoupling.
#[test]
fn single_pass_higher_order_has_one_round_per_chunk() {
    let q = 5;
    let (events, chunks) = traced_run(q);
    // Exactly four events per chunk, as at order 1.
    assert_eq!(events.len() as u64, 4 * chunks);
    for c in 0..chunks {
        let publish = seq_of(&events, c, EventKind::SumPublished { iter: 0 });
        let carry = seq_of(&events, c, EventKind::CarryReady { iter: 0 });
        assert!(publish < carry, "chunk {c}");
    }
}

/// Round-robin ownership: chunk c is processed by block c mod k.
#[test]
fn chunks_are_owned_round_robin() {
    let (events, chunks) = traced_run(1);
    let k = DeviceSpec::k40().persistent_blocks() as usize;
    for c in 0..chunks {
        let e = events
            .iter()
            .find(|e| e.chunk == c && e.kind == EventKind::ChunkStart)
            .expect("chunk started");
        assert_eq!(e.block, (c as usize) % k, "chunk {c}");
    }
}

/// Untraced runs stay untraced (the emission sites are no-ops).
#[test]
fn tracing_is_opt_in() {
    let gpu = Gpu::new(DeviceSpec::k40());
    let input = vec![1i32; 10_000];
    scan_on_gpu(
        &gpu,
        &input,
        &Sum,
        &ScanSpec::inclusive(),
        &SamParams::default(),
    );
    assert!(gpu.trace().is_none());
}
