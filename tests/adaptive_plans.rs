//! Adaptive-plan invariants: online tuning never changes results, the
//! driver converges, and learned tunings persist across plan (and
//! process) lifetimes.
//!
//! The load-bearing property is **bit-identity**: a `PlanHint::adaptive()`
//! plan must produce exactly the bytes of a default plan on every engine,
//! at every point of the search — warmup probes, hill-climb mutations,
//! and the converged steady state alike. The proptest below drives
//! hundreds of episodes through adaptive plans across the engine grid
//! (orders x tuples, wrapping-integer and f64 sums, inclusive/exclusive)
//! and compares every single output against the frozen plan.
//!
//! Tests that set `SAM_TUNING_DIR` hold the [`sam_core::envlock`] guard
//! (the environment is process-global and `cargo test` is concurrent);
//! the store-free tests construct `TuningStore` instances directly and
//! need no lock.

use proptest::prelude::*;
use sam_core::adapt::{DriverPhase, TuningStore};
use sam_core::cpu::CpuScanner;
use sam_core::envlock::EnvGuard;
use sam_core::op::Sum;
use sam_core::plan::{PlanHint, ScanPlan};
use sam_core::Engine;
use sam_core::{ScanKind, ScanSpec};

fn pattern_i64(n: usize, seed: u64) -> Vec<i64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 17) as i64
        })
        .collect()
}

fn engines() -> Vec<Engine> {
    vec![
        Engine::Serial,
        Engine::cpu(1),
        Engine::cpu(3),
        Engine::auto(),
    ]
}

/// A unique per-test scratch directory under the target tmpdir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sam-adaptive-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every episode of an adaptive plan — across the whole search
    /// trajectory — is bit-identical to the default plan, for exact
    /// (wrapping i64) sums on every engine and spec shape.
    #[test]
    fn adaptive_is_bit_identical_to_default_i64(
        seed in any::<u64>(),
        order in prop_oneof![Just(1u32), Just(2), Just(5), Just(8)],
        tuple in prop_oneof![Just(1usize), Just(2), Just(5), Just(8)],
        exclusive in any::<bool>(),
        n in prop_oneof![Just(5usize), Just(1000), Just(5000), Just(20_000)],
    ) {
        let kind = if exclusive { ScanKind::Exclusive } else { ScanKind::Inclusive };
        let spec = ScanSpec::new(kind, order, tuple).expect("valid spec");
        let input = pattern_i64(n, seed);
        for engine in engines() {
            let frozen = ScanPlan::new(spec, engine.clone(), PlanHint::default());
            let adaptive = ScanPlan::new(spec, engine, PlanHint::adaptive());
            prop_assert!(adaptive.is_adaptive());
            let expected = frozen.scan(&input, &Sum);
            // Many episodes: walk the search through warmup probes and
            // climb mutations; every single one must match exactly.
            for episode in 0..12 {
                let got = adaptive.scan(&input, &Sum);
                prop_assert_eq!(&got, &expected, "episode {}", episode);
            }
        }
    }

    /// Floating-point sums have observable association, so adaptive plans
    /// must run them at the frozen geometry: outputs are bit-identical
    /// and the driver never records an episode for them.
    #[test]
    fn adaptive_f64_runs_frozen_and_unobserved(
        order in 1u32..=3,
        tuple in prop_oneof![Just(1usize), Just(2), Just(5), Just(8)],
        n in prop_oneof![Just(100usize), Just(5000), Just(20_000)],
    ) {
        let spec = ScanSpec::inclusive()
            .with_order(order)
            .unwrap()
            .with_tuple(tuple)
            .unwrap();
        let input: Vec<f64> = (0..n).map(|i| (i as f64).mul_add(0.125, -3.0)).collect();
        for engine in engines() {
            let frozen = ScanPlan::new(spec, engine.clone(), PlanHint::default());
            let adaptive = ScanPlan::new(spec, engine, PlanHint::adaptive());
            let expected = frozen.scan(&input, &Sum);
            for _ in 0..4 {
                let got = adaptive.scan(&input, &Sum);
                // Bit-level comparison: f64 equality would hide -0.0/NaN.
                let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                let expected_bits: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&got_bits, &expected_bits);
            }
            let snap = adaptive.adaptive_snapshot().expect("adaptive plan");
            prop_assert_eq!(snap.episodes, 0, "f64 episodes must not feed the driver");
        }
    }
}

/// Driving enough comparable episodes through an adaptive plan on
/// `engine` converges the driver, and every episode, the converged
/// geometry included, matches the frozen plan. No store is configured,
/// so a persisted optimum cannot seed the plan past the search.
fn assert_adaptive_converges(engine: Engine) {
    let _guard = EnvGuard::unset(TuningStore::ENV_DIR);
    let spec = ScanSpec::inclusive().with_order(2).unwrap();
    let frozen = ScanPlan::new(spec, engine.clone(), PlanHint::default());
    let adaptive = ScanPlan::new(spec, engine, PlanHint::adaptive());
    let input = pattern_i64(64 * 1024, 7);
    let expected = frozen.scan(&input, &Sum);
    let mut converged_at = None;
    for episode in 0..3000 {
        assert_eq!(adaptive.scan(&input, &Sum), expected, "episode {episode}");
        let snap = adaptive.adaptive_snapshot().unwrap();
        if snap.phase == DriverPhase::Steady {
            converged_at = Some(episode);
            break;
        }
    }
    let converged_at = converged_at.expect("driver converges within budget");
    let snap = adaptive.adaptive_snapshot().unwrap();
    assert_eq!(snap.phase, DriverPhase::Steady);
    assert!(!snap.seeded, "fresh plan was not seeded");
    assert!(snap.episodes as usize <= converged_at + 1);
    // The steady state keeps scanning correctly at the incumbent. From the
    // eighth steady episode on, the drift detector re-opens the search if
    // wall-clock noise has halved the measured throughput
    // (`adapt::tests::drift_reopens_the_search`), so only the first seven
    // are fixed by the driver alone.
    for _ in 0..7 {
        assert_eq!(adaptive.scan(&input, &Sum), expected);
        let now = adaptive.adaptive_snapshot().unwrap();
        assert_eq!(now.phase, DriverPhase::Steady);
        assert_eq!(now.best, snap.best);
        assert_eq!(now.geometry, snap.best);
    }
}

#[test]
fn adaptive_plan_converges_under_repetition() {
    assert_adaptive_converges(Engine::cpu(2));
}

/// A deliberately mis-tuned start (oversubscribed workers, tiny chunks)
/// stays bit-identical to its frozen plan and still reaches steady state.
#[test]
fn mistuned_start_stays_exact_and_reaches_steady() {
    let workers = 4 * CpuScanner::default().workers();
    assert_adaptive_converges(Engine::Cpu(CpuScanner::new(workers).with_chunk_elems(4096)));
}

/// Scans below the episode floor run the probe geometry but are never
/// scored (their throughput measures overhead, not geometry).
#[test]
fn tiny_scans_do_not_feed_the_driver() {
    let spec = ScanSpec::inclusive();
    let adaptive = ScanPlan::new(spec, Engine::cpu(2), PlanHint::adaptive());
    let input = pattern_i64(100, 3);
    for _ in 0..50 {
        adaptive.scan(&input, &Sum);
    }
    assert_eq!(adaptive.adaptive_snapshot().unwrap().episodes, 0);
}

/// A converged tuning persists through the store and seeds the next
/// plan: the second "process start" begins converged at the stored
/// geometry instead of re-exploring.
#[test]
fn converged_tuning_persists_and_seeds_the_next_plan() {
    let dir = scratch_dir("persist");
    let _guard = EnvGuard::set(TuningStore::ENV_DIR, &dir);
    let spec = ScanSpec::inclusive().with_order(3).unwrap();
    let input = pattern_i64(64 * 1024, 11);

    // First lifetime: converge and (implicitly, on the convergence
    // transition) persist.
    let first = ScanPlan::new(spec, Engine::cpu(2), PlanHint::adaptive());
    assert!(
        !first.adaptive_snapshot().unwrap().seeded,
        "no tuning on disk yet"
    );
    for _ in 0..3000 {
        first.scan(&input, &Sum);
        if first.adaptive_snapshot().unwrap().phase == DriverPhase::Steady {
            break;
        }
    }
    let converged = first.adaptive_snapshot().unwrap();
    assert_eq!(converged.phase, DriverPhase::Steady, "must converge");
    let store = TuningStore::from_env().expect("env points at the store");
    let key = sam_core::adapt::tuning_key(&spec);
    let stored = store.load(&key).expect("convergence persisted the tuning");
    assert_eq!(stored.geometry, converged.best);

    // Second lifetime: starts converged at the stored geometry.
    let second = ScanPlan::new(spec, Engine::cpu(2), PlanHint::adaptive());
    let snap = second.adaptive_snapshot().unwrap();
    assert!(snap.seeded, "second start must load the stored tuning");
    assert_eq!(snap.phase, DriverPhase::Steady);
    assert_eq!(snap.geometry, converged.best);
    // And still scans correctly.
    let frozen = ScanPlan::new(spec, Engine::cpu(2), PlanHint::default());
    assert_eq!(second.scan(&input, &Sum), frozen.scan(&input, &Sum));

    drop(_guard);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt store entry reads as absent: the plan starts a fresh warmup
/// instead of failing or loading garbage.
#[test]
fn corrupt_store_entry_is_ignored_by_plan_construction() {
    let dir = scratch_dir("corrupt");
    let _guard = EnvGuard::set(TuningStore::ENV_DIR, &dir);
    let spec = ScanSpec::inclusive().with_order(4).unwrap();
    let store = TuningStore::from_env().expect("env points at the store");
    let key = sam_core::adapt::tuning_key(&spec);
    std::fs::create_dir_all(store.dir()).unwrap();
    std::fs::write(store.path_for(&key), b"version = 1\nworkers = banana\n").unwrap();

    let plan = ScanPlan::new(spec, Engine::cpu(2), PlanHint::adaptive());
    let snap = plan.adaptive_snapshot().unwrap();
    assert!(!snap.seeded, "corrupt tuning must read as absent");
    // The plan still scans correctly from the fresh warmup.
    let input = pattern_i64(10_000, 5);
    let frozen = ScanPlan::new(spec, Engine::cpu(2), PlanHint::default());
    assert_eq!(plan.scan(&input, &Sum), frozen.scan(&input, &Sum));

    drop(_guard);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without `SAM_TUNING_DIR`, adaptive plans tune in-process only: nothing
/// is written anywhere, and construction does not read a store.
#[test]
fn no_store_configured_means_no_persistence() {
    let _guard = EnvGuard::unset(TuningStore::ENV_DIR);
    assert!(TuningStore::from_env().is_none());
    let plan = ScanPlan::new(ScanSpec::inclusive(), Engine::cpu(2), PlanHint::adaptive());
    assert!(!plan.adaptive_snapshot().unwrap().seeded);
}

/// Sessions on an adaptive plan share the plan's driver and stay
/// bit-identical to sessions on a frozen plan, one-shot and streaming.
#[test]
fn adaptive_sessions_match_frozen_sessions() {
    let spec = ScanSpec::inclusive()
        .with_order(2)
        .unwrap()
        .with_tuple(3)
        .unwrap();
    let frozen = ScanPlan::new(spec, Engine::cpu(2), PlanHint::default());
    let adaptive = ScanPlan::new(spec, Engine::cpu(2), PlanHint::adaptive());
    let input = pattern_i64(30_000, 17);

    let f_session = frozen.session::<i64, _>(Sum);
    let a_session = adaptive.session::<i64, _>(Sum);
    assert_eq!(a_session.scan(&input), f_session.scan(&input));

    // Streaming: batch partition equals the one-shot scan on both plans.
    let mut f_stream = frozen.session::<i64, _>(Sum);
    let mut a_stream = adaptive.session::<i64, _>(Sum);
    let expected = f_session.scan(&input);
    let mut got = Vec::new();
    for batch in input.chunks(7001) {
        got.extend_from_slice(a_stream.feed(batch));
    }
    assert_eq!(got, expected);
    let mut got_frozen = Vec::new();
    for batch in input.chunks(7001) {
        got_frozen.extend_from_slice(f_stream.feed(batch));
    }
    assert_eq!(got_frozen, expected);
}

/// Traced adaptive plans produce reports and feed the driver the traced
/// cost signal (carry-wait tie-breaker included) without double-counting
/// episodes.
#[test]
fn traced_adaptive_episodes_are_observed_once() {
    let spec = ScanSpec::inclusive().with_order(2).unwrap();
    let plan = ScanPlan::new(spec, Engine::cpu(2), PlanHint::adaptive().with_trace());
    let input = pattern_i64(20_000, 23);
    let frozen = ScanPlan::new(spec, Engine::cpu(2), PlanHint::default());
    let expected = frozen.scan(&input, &Sum);
    for episode in 1..=5u64 {
        assert_eq!(plan.scan(&input, &Sum), expected);
        let report = plan.last_report().expect("traced plan reports");
        assert_eq!(report.n, input.len());
        assert_eq!(
            plan.adaptive_snapshot().unwrap().episodes,
            episode,
            "exactly one episode per scan"
        );
    }
}

/// Two concurrent adaptive plans whose persisted tunings converged on
/// *conflicting* NT-store thresholds are both honored: each dispatch sees
/// its own per-plan threshold (scoped override), and the threshold the
/// calling thread sees afterwards is unchanged. An adaptive dispatch that
/// wrote its threshold into one process-wide global would let the last
/// plan to start silently retune every other plan in the process; this
/// test fails on such code.
#[test]
fn conflicting_per_plan_nt_thresholds_are_both_honored() {
    use sam_core::adapt::{tuning_key, Geometry, StoredTuning};

    let dir = scratch_dir("nt-conflict");
    let _guard = EnvGuard::set(TuningStore::ENV_DIR, &dir);
    let store = TuningStore::from_env().expect("env points at the store");

    // Seed two specs at Steady with opposite NT optima: one forces
    // streaming stores everywhere, the other disables them entirely. The
    // stored score (one element per second) is one every build sustains,
    // so the drift detector never re-opens the search mid-race and both
    // plans stay at Steady on their seeded geometry.
    let spec_lo = ScanSpec::inclusive();
    let spec_hi = ScanSpec::inclusive().with_order(2).unwrap();
    let seed = |spec: &ScanSpec, nt_min_bytes: usize| {
        let geometry = Geometry {
            nt_min_bytes,
            ..Geometry::frozen(2, 32 * 1024)
        };
        store
            .save(
                &tuning_key(spec),
                &StoredTuning {
                    geometry,
                    score: 1.0,
                    episodes: 64,
                },
            )
            .expect("seed tuning");
    };
    let (nt_lo, nt_hi) = (1usize << 20, usize::MAX);
    seed(&spec_lo, nt_lo);
    seed(&spec_hi, nt_hi);

    let plan_lo = ScanPlan::new(spec_lo, Engine::cpu(2), PlanHint::adaptive());
    let plan_hi = ScanPlan::new(spec_hi, Engine::cpu(2), PlanHint::adaptive());
    for (plan, nt) in [(&plan_lo, nt_lo), (&plan_hi, nt_hi)] {
        let snap = plan.adaptive_snapshot().unwrap();
        assert!(snap.seeded, "plans start from the stored tunings");
        assert_eq!(
            snap.geometry.nt_min_bytes, nt,
            "each plan keeps its own optimum"
        );
    }

    let input = pattern_i64(64 * 1024, 41);
    let expected_lo =
        ScanPlan::new(spec_lo, Engine::cpu(2), PlanHint::default()).scan(&input, &Sum);
    let expected_hi =
        ScanPlan::new(spec_hi, Engine::cpu(2), PlanHint::default()).scan(&input, &Sum);

    // Interleave the two plans from concurrent threads; both must stay
    // bit-identical, and neither may leak its threshold to this thread.
    let default_nt = sam_core::simd::nt_store_min_bytes();
    std::thread::scope(|scope| {
        let lo = scope.spawn(|| {
            for _ in 0..16 {
                assert_eq!(plan_lo.scan(&input, &Sum), expected_lo);
            }
        });
        let hi = scope.spawn(|| {
            for _ in 0..16 {
                assert_eq!(plan_hi.scan(&input, &Sum), expected_hi);
            }
        });
        lo.join().unwrap();
        hi.join().unwrap();
    });
    assert_eq!(
        sam_core::simd::nt_store_min_bytes(),
        default_nt,
        "adaptive dispatch must not clobber the process-global NT default"
    );
    // After racing, each plan still holds (and will dispatch with) its
    // own converged threshold.
    for (plan, nt) in [(&plan_lo, nt_lo), (&plan_hi, nt_hi)] {
        let snap = plan.adaptive_snapshot().unwrap();
        assert_eq!(snap.phase, sam_core::DriverPhase::Steady);
        assert_eq!(snap.geometry.nt_min_bytes, nt);
        assert_eq!(snap.best.nt_min_bytes, nt);
    }

    drop(_guard);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The scoped NT override itself: per-thread, nesting restores, and the
/// `0` guard is a no-op that keeps the thread on the default.
#[test]
fn nt_store_override_is_scoped_and_nested() {
    use sam_core::simd::{nt_store_min_bytes, nt_store_override};

    let base = nt_store_min_bytes();
    {
        let _a = nt_store_override(123);
        assert_eq!(nt_store_min_bytes(), 123);
        {
            let _b = nt_store_override(456);
            assert_eq!(nt_store_min_bytes(), 456);
            let _noop = nt_store_override(0);
            assert_eq!(nt_store_min_bytes(), 456, "0 means no override");
        }
        assert_eq!(nt_store_min_bytes(), 123, "inner guard restores");
        // Other threads are unaffected by this thread's override.
        std::thread::scope(|scope| {
            scope
                .spawn(|| assert_eq!(nt_store_min_bytes(), base))
                .join()
                .unwrap();
        });
    }
    assert_eq!(nt_store_min_bytes(), base, "outer guard restores");
}
