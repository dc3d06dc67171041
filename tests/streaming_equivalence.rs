//! Streaming-session equivalence: feeding a stream through
//! [`ScanSession::feed`] in batches of any size is bit-identical to the
//! one-shot scan of the concatenated input on the same plan — across
//! engines, orders, tuple sizes and scan kinds, including f64 (where
//! "equal" genuinely means bit-equal under the engine's deterministic
//! association, not approximately). Checkpoints ([`CarryState`]) survive a
//! byte round-trip into a fresh session, and on the simulated GPU the
//! streaming path keeps the one-read/one-write element traffic of the
//! one-shot kernel.

use gpu_sim::DeviceSpec;
use proptest::prelude::*;
use sam_core::cpu::CpuScanner;
use sam_core::kernel::SamParams;
use sam_core::op::{LinRec, Max, Sum};
use sam_core::plan::{CarryState, PlanHint, ScanPlan, ScanSession};
use sam_core::Engine;
use sam_core::{ScanKind, ScanSpec};

/// The engine grid, indexed so the vendored proptest (same-typed
/// `prop_oneof!` arms only) can pick one: serial, single-worker CPU
/// (continuous fold), multi-worker CPU with a deliberately small chunk
/// (chunked fold with many boundaries), the default engine
/// ([`Engine::auto`]: one worker per hardware thread, default chunk size),
/// and the instrumented simulated device.
fn engine(index: usize, workers: usize, chunk: usize) -> Engine {
    match index {
        0 => Engine::Serial,
        1 => Engine::Cpu(CpuScanner::new(1)),
        2 => Engine::Cpu(CpuScanner::new(workers).with_chunk_elems(chunk)),
        3 => Engine::auto(),
        _ => Engine::Simulated {
            device: DeviceSpec::k40(),
            params: SamParams {
                items_per_thread: 2,
                ..SamParams::default()
            },
        },
    }
}

fn order_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(1u32), Just(2), Just(5), Just(8)]
}

/// Deterministic small coefficient vector for a given recurrence order —
/// one signed byte of the seed per tap, so zeros, negatives, and repeated
/// values all occur (the vendored proptest has no `prop_flat_map`, so the
/// length-dependent vector is derived rather than generated).
fn coeffs_from_seed(order: u32, seed: u64) -> Vec<i64> {
    (0..order as u64)
        .map(|j| i64::from((seed >> ((j % 8) * 8)) as i8 % 4))
        .collect()
}

fn tuple_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(5), Just(8)]
}

/// Feeds `input` through `session` cut into the batch lengths `cuts`
/// (cycling; the final batch takes the remainder) and returns the
/// concatenated outputs.
fn feed_in_batches<T, Op>(session: &mut ScanSession<T, Op>, input: &[T], cuts: &[usize]) -> Vec<T>
where
    T: gpu_sim::Pod64,
    Op: sam_core::chunk_kernel::ChunkKernel<T>,
{
    let mut streamed = Vec::with_capacity(input.len());
    let mut rest = input;
    let mut i = 0;
    while !rest.is_empty() {
        let take = cuts
            .get(i % cuts.len().max(1))
            .copied()
            .unwrap_or(rest.len());
        let take = take.clamp(1, rest.len());
        streamed.extend_from_slice(session.feed(&rest[..take]));
        rest = &rest[take..];
        i += 1;
    }
    streamed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: any partition of the input into batches,
    /// any engine, orders/tuples {1,2,5,8}, both kinds — `feed` equals
    /// the one-shot scan exactly (i64 sums are exact everywhere).
    #[test]
    fn feed_over_any_partition_matches_one_shot(
        input in prop::collection::vec(any::<i64>(), 0..1500),
        cuts in prop::collection::vec(1usize..97, 1..10),
        order in order_strategy(),
        tuple in tuple_strategy(),
        exclusive in any::<bool>(),
        engine_idx in 0usize..5,
        workers in 2usize..5,
        chunk in 16usize..200,
    ) {
        let kind = if exclusive { ScanKind::Exclusive } else { ScanKind::Inclusive };
        let spec = ScanSpec::new(kind, order, tuple).expect("valid spec");
        let plan = ScanPlan::new(
            spec,
            engine(engine_idx, workers, chunk),
            PlanHint::expected_len(input.len()),
        );
        let one_shot = plan.scan(&input, &Sum);
        let mut session = plan.session::<i64, _>(Sum);
        let streamed = feed_in_batches(&mut session, &input, &cuts);
        prop_assert_eq!(streamed, one_shot);
    }

    /// Recurrence operators stream exactly like sums: any partition of the
    /// input through `feed`, on any engine, equals the one-shot scan of
    /// the concatenation — the order-k output window crosses every batch
    /// boundary through the same carry state the one-shot kernel uses
    /// between chunks, so this holds by construction, and wrapping i64
    /// keeps it exact for arbitrary inputs.
    #[test]
    fn recurrence_feed_over_any_partition_matches_one_shot(
        input in prop::collection::vec(any::<i64>(), 0..1200),
        cuts in prop::collection::vec(1usize..97, 1..10),
        order in order_strategy(),
        tuple in tuple_strategy(),
        exclusive in any::<bool>(),
        coeff_seed in any::<u64>(),
        engine_idx in 0usize..5,
        chunk in 16usize..200,
    ) {
        let kind = if exclusive { ScanKind::Exclusive } else { ScanKind::Inclusive };
        let spec = ScanSpec::new(kind, order, tuple).expect("valid spec");
        let op = LinRec::new(coeffs_from_seed(order, coeff_seed)).expect("exact ring");
        // The 8-strategy macro limit is spent; derive the worker count.
        let workers = 2 + chunk % 3;
        let plan = ScanPlan::new(
            spec,
            engine(engine_idx, workers, chunk),
            PlanHint::expected_len(input.len()),
        );
        let one_shot = plan.scan(&input, &op);
        let mut session = plan.session::<i64, _>(op.clone());
        let streamed = feed_in_batches(&mut session, &input, &cuts);
        prop_assert_eq!(streamed, one_shot);
    }

    /// Recurrence checkpoints round-trip through bytes into a fresh
    /// session at an arbitrary split, on every engine — the v2 frame
    /// carries the operator family and coefficient fingerprint, and a
    /// matching session accepts it and reproduces the one-shot tail.
    #[test]
    fn recurrence_checkpoint_roundtrips_through_bytes(
        input in prop::collection::vec(any::<i64>(), 1..1000),
        split_seed in 0usize..4096,
        order in order_strategy(),
        tuple in tuple_strategy(),
        exclusive in any::<bool>(),
        coeff_seed in any::<u64>(),
        engine_idx in 0usize..5,
        chunk in 16usize..200,
    ) {
        let kind = if exclusive { ScanKind::Exclusive } else { ScanKind::Inclusive };
        let spec = ScanSpec::new(kind, order, tuple).expect("valid spec");
        let op = LinRec::new(coeffs_from_seed(order, coeff_seed)).expect("exact ring");
        let workers = 2 + chunk % 3;
        let plan = ScanPlan::new(
            spec,
            engine(engine_idx, workers, chunk),
            PlanHint::expected_len(input.len()),
        );
        let one_shot = plan.scan(&input, &op);
        let split = split_seed % (input.len() + 1);

        let mut head_session = plan.session::<i64, _>(op.clone());
        let mut streamed = head_session.feed(&input[..split]).to_vec();
        let checkpoint = head_session.carry_state();
        drop(head_session);

        let restored = CarryState::from_bytes(&checkpoint.to_bytes()).expect("well-formed bytes");
        prop_assert_eq!(&restored, &checkpoint);
        let mut tail_session = plan.session::<i64, _>(op);
        tail_session.resume(&restored).expect("matching spec and operator");
        prop_assert_eq!(tail_session.elements_seen(), split as u64);
        streamed.extend_from_slice(tail_session.feed(&input[split..]));
        prop_assert_eq!(streamed, one_shot);
    }

    /// Cross-family confusion is an error, never a misinterpretation: a
    /// sum checkpoint decodes fine but cannot resume a recurrence session,
    /// a recurrence checkpoint cannot resume a sum session, and a
    /// recurrence checkpoint from *different coefficients* is rejected by
    /// the fingerprint even though family, spec, and state length all
    /// match — the state words would be silently reinterpreted otherwise.
    #[test]
    fn cross_family_checkpoints_never_resume(
        input in prop::collection::vec(any::<i64>(), 1..600),
        order in order_strategy(),
        tuple in tuple_strategy(),
        coeff_seed in any::<u64>(),
    ) {
        let spec = ScanSpec::new(ScanKind::Inclusive, order, tuple).expect("valid spec");
        let plan = ScanPlan::new(spec, Engine::Serial, PlanHint::default());
        let coeffs = coeffs_from_seed(order, coeff_seed);
        let op = LinRec::new(coeffs.clone()).expect("exact ring");

        let mut sum_session = plan.session::<i64, _>(Sum);
        sum_session.feed(&input);
        let sum_state = CarryState::from_bytes(&sum_session.carry_state().to_bytes())
            .expect("well-formed sum frame");

        let mut rec_session = plan.session::<i64, _>(op.clone());
        rec_session.feed(&input);
        let rec_state = CarryState::from_bytes(&rec_session.carry_state().to_bytes())
            .expect("well-formed recurrence frame");

        let mut fresh_rec = plan.session::<i64, _>(op);
        prop_assert!(fresh_rec.resume(&sum_state).is_err(), "sum bytes into recurrence session");
        let mut fresh_sum = plan.session::<i64, _>(Sum);
        prop_assert!(fresh_sum.resume(&rec_state).is_err(), "recurrence bytes into sum session");

        let mut other_coeffs = coeffs;
        other_coeffs[0] = other_coeffs[0].wrapping_add(1);
        let other = LinRec::new(other_coeffs).expect("exact ring");
        let mut fresh_other = plan.session::<i64, _>(other);
        prop_assert!(
            fresh_other.resume(&rec_state).is_err(),
            "different coefficients must fail the fingerprint"
        );
    }

    /// f64 sums are pseudo-associative, so this is the determinism claim
    /// of Section 3.1: the session replays the CPU engine's association
    /// exactly, and the comparison is on raw bits.
    #[test]
    fn f64_feed_is_bit_exact_on_the_cpu_engine(
        raw in prop::collection::vec(any::<i32>(), 0..1200),
        cuts in prop::collection::vec(1usize..80, 1..10),
        order in order_strategy(),
        tuple in tuple_strategy(),
        exclusive in any::<bool>(),
        workers in 1usize..5,
        chunk in 8usize..300,
    ) {
        // Finite dynamic range, no -0.0 (the documented chunked-engine
        // caveat about the sign of zero, which the engines share).
        let input: Vec<f64> = raw.iter().map(|&v| f64::from(v) * 0.125 + 0.1).collect();
        let kind = if exclusive { ScanKind::Exclusive } else { ScanKind::Inclusive };
        let spec = ScanSpec::new(kind, order, tuple).expect("valid spec");
        let plan = ScanPlan::new(
            spec,
            Engine::Cpu(CpuScanner::new(workers).with_chunk_elems(chunk)),
            PlanHint::expected_len(input.len()),
        );
        let one_shot = plan.scan(&input, &Sum);
        let mut session = plan.session::<f64, _>(Sum);
        let streamed = feed_in_batches(&mut session, &input, &cuts);
        let got: Vec<u64> = streamed.iter().map(|v| v.to_bits()).collect();
        let expect: Vec<u64> = one_shot.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, expect);
    }

    /// Checkpoint/resume at an arbitrary split: serialize the carry state
    /// to bytes, rebuild it, resume a *fresh* session from it, and the
    /// tail output still matches the one-shot scan.
    #[test]
    fn checkpoint_roundtrips_through_bytes_into_a_fresh_session(
        input in prop::collection::vec(any::<i64>(), 1..1200),
        split_seed in 0usize..4096,
        order in order_strategy(),
        tuple in tuple_strategy(),
        exclusive in any::<bool>(),
        engine_idx in 0usize..5,
        workers in 2usize..5,
        chunk in 16usize..200,
    ) {
        let kind = if exclusive { ScanKind::Exclusive } else { ScanKind::Inclusive };
        let spec = ScanSpec::new(kind, order, tuple).expect("valid spec");
        let plan = ScanPlan::new(
            spec,
            engine(engine_idx, workers, chunk),
            PlanHint::expected_len(input.len()),
        );
        let one_shot = plan.scan(&input, &Sum);
        let split = split_seed % (input.len() + 1);

        let mut head_session = plan.session::<i64, _>(Sum);
        let mut streamed = head_session.feed(&input[..split]).to_vec();
        let checkpoint = head_session.carry_state();
        drop(head_session);

        let restored = CarryState::from_bytes(&checkpoint.to_bytes()).expect("well-formed bytes");
        prop_assert_eq!(&restored, &checkpoint);
        let mut tail_session = plan.session::<i64, _>(Sum);
        tail_session.resume(&restored).expect("matching spec");
        prop_assert_eq!(tail_session.elements_seen(), split as u64);
        streamed.extend_from_slice(tail_session.feed(&input[split..]));
        prop_assert_eq!(streamed, one_shot);
    }

    /// Every strict prefix of a valid checkpoint encoding decodes to an
    /// error — never a panic, never a silently shorter state. This is the
    /// truncated-wire case a service hits when a client connection dies
    /// mid-upload of a resume frame.
    #[test]
    fn truncated_checkpoint_bytes_decode_to_errors(
        input in prop::collection::vec(any::<i64>(), 1..500),
        order in order_strategy(),
        tuple in tuple_strategy(),
        exclusive in any::<bool>(),
        cut_seed in any::<u64>(),
    ) {
        let kind = if exclusive { ScanKind::Exclusive } else { ScanKind::Inclusive };
        let spec = ScanSpec::new(kind, order, tuple).expect("valid spec");
        let plan = ScanPlan::new(spec, Engine::Serial, PlanHint::default());
        let mut session = plan.session::<i64, _>(Sum);
        session.feed(&input);
        let bytes = session.carry_state().to_bytes();
        // The whole frame round-trips; every strict prefix is rejected.
        prop_assert!(CarryState::from_bytes(&bytes).is_ok());
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(
            CarryState::from_bytes(&bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes must not decode",
            bytes.len()
        );
    }

    /// Arbitrary byte corruption of a checkpoint never panics the decoder,
    /// and anything it *does* accept re-encodes canonically (so a decoded
    /// frame is always a frame some session could have written).
    #[test]
    fn corrupt_checkpoint_bytes_never_panic_the_decoder(
        input in prop::collection::vec(any::<i64>(), 1..500),
        order in order_strategy(),
        tuple in tuple_strategy(),
        flips in prop::collection::vec((any::<u16>(), any::<u8>()), 1..8),
        chop in any::<u16>(),
    ) {
        let spec = ScanSpec::new(ScanKind::Inclusive, order, tuple).expect("valid spec");
        let plan = ScanPlan::new(spec, Engine::Serial, PlanHint::default());
        let mut session = plan.session::<i64, _>(Sum);
        session.feed(&input);
        let mut bytes = session.carry_state().to_bytes();
        for &(pos, val) in &flips {
            let i = pos as usize % bytes.len();
            bytes[i] = val;
        }
        bytes.truncate(bytes.len() - (chop as usize % bytes.len()));
        if let Ok(decoded) = CarryState::from_bytes(&bytes) {
            prop_assert_eq!(decoded.to_bytes(), bytes, "accepted frames are canonical");
        }
    }

    /// Unstructured fuzz: random byte soup through the decoder — the
    /// hostile-client case. Must return, not panic.
    #[test]
    fn random_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let _ = CarryState::from_bytes(&bytes);
        // Stack a plausible magic on the front so the fuzz regularly gets
        // past the magic check into the field parsers.
        let mut framed = b"SAMC".to_vec();
        framed.extend_from_slice(&bytes);
        let _ = CarryState::from_bytes(&framed);
    }
}

/// A non-cascade operator (`Max` has no exact carry weights) exercises the
/// continuous and chunked fold replicas rather than the cascade state.
#[test]
fn max_streams_match_one_shot_on_every_engine() {
    let input: Vec<i64> = (0..4096)
        .map(|i| {
            let x = (i as i64).wrapping_mul(0x9e37_79b9_7f4a_7c15u64 as i64);
            x >> 17
        })
        .collect();
    let engines = [
        Engine::Serial,
        Engine::Cpu(CpuScanner::new(1)),
        Engine::Cpu(CpuScanner::new(3).with_chunk_elems(100)),
        Engine::Simulated {
            device: DeviceSpec::k40(),
            params: SamParams::default(),
        },
    ];
    for kind in [ScanKind::Inclusive, ScanKind::Exclusive] {
        let spec = ScanSpec::new(kind, 2, 3).expect("valid spec");
        for engine in &engines {
            let plan = ScanPlan::new(spec, engine.clone(), PlanHint::expected_len(input.len()));
            let one_shot = plan.scan(&input, &Max);
            let mut session = plan.session::<i64, _>(Max);
            let mut streamed = Vec::new();
            for batch in input.chunks(173) {
                streamed.extend_from_slice(session.feed(batch));
            }
            assert_eq!(streamed, one_shot, "kind={kind:?}");
        }
    }
}

/// Acceptance check on the instrumented device: the streaming path
/// models the same global element traffic as the one-shot kernel — every
/// element read once and written once, nothing proportional to the batch
/// count.
#[test]
fn session_feed_keeps_one_read_one_write_element_traffic() {
    let n = 24_000usize;
    let input: Vec<i64> = (0..n as i64).map(|i| i % 23 - 11).collect();
    let spec = ScanSpec::inclusive().with_order(2).expect("valid order");
    let plan = ScanPlan::new(
        spec,
        Engine::Simulated {
            device: DeviceSpec::k40(),
            params: SamParams::default(),
        },
        PlanHint::expected_len(n),
    );
    let gpu = plan.gpu().expect("simulated plan owns a device");

    let mut out = vec![0i64; n];
    plan.scan_into(&input, &mut out, &Sum);
    let one_shot = gpu.take_metrics();

    let mut session = plan.session::<i64, _>(Sum);
    let mut streamed = Vec::with_capacity(n);
    for batch in input.chunks(1009) {
        streamed.extend_from_slice(session.feed(batch));
    }
    let feed = gpu.take_metrics();

    assert_eq!(streamed, out, "stream output equals the one-shot kernel");
    assert_eq!(
        one_shot.elem_read_words, n as u64,
        "one-shot reads each element once"
    );
    assert_eq!(
        one_shot.elem_write_words, n as u64,
        "one-shot writes each element once"
    );
    assert_eq!(
        feed.elem_read_words, n as u64,
        "feed reads each element once"
    );
    assert_eq!(
        feed.elem_write_words, n as u64,
        "feed writes each element once"
    );
}
