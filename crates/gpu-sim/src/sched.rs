//! Deterministic schedule exploration and fault injection for the
//! persistent-block carry protocol.
//!
//! The simulator runs every persistent block on a real OS thread, so the
//! local-sum/ready-flag publication protocol (write followed by independent
//! reads, Section 2.2 of the paper) is exercised with real concurrency —
//! but only under the host scheduler's *natural* interleaving, which is
//! nearly in-order and never visits the protocol's hard cases: a stalled
//! predecessor, blocks starting in reverse order, ring-slot reuse racing a
//! late reader, or a block dying mid-wait. Single-pass chained scans are
//! exactly the protocol family where such schedule-dependent livelock and
//! ordering hazards hide (LightScan, CUB's decoupled look-back), so this
//! module makes hostile schedules *first-class and reproducible*:
//!
//! * **Hook points.** Every [`crate::AtomicWordBuffer`] flag/sum load and
//!   store, every block start, and explicit kernel [`checkpoint`]s pass
//!   through a per-thread hook. With no [`Scheduler`] installed the hook
//!   is a thread-local lookup and a cancellation check; with one installed
//!   it becomes an injection, recording, and replay point.
//! * **Fault injection.** A seeded [`SchedPolicy`] perturbs the schedule
//!   deterministically-per-seed: per-block start delays (including strict
//!   reverse start order), probabilistic yield bursts and microsleeps at
//!   every hook, and a designated "stalled predecessor" block that sleeps
//!   on a fixed cadence.
//! * **Recording.** With [`SchedPolicy::record`] set, hooked operations
//!   are serialized through the recording lock, so the captured event list
//!   is a true linearization of the protocol operations (an observer
//!   effect that is the point: the log *is* the schedule).
//! * **Replay.** [`Scheduler::replay`] re-runs a recorded schedule by
//!   gating each hooked operation until it is that operation's turn in the
//!   recorded total order — a failing seed becomes a deterministic,
//!   minimizable repro.
//! * **Cooperative cancellation.** Each launch threads a shared
//!   cancellation flag through the hook context. A worker that panics
//!   raises the flag from its [`BlockGuard`]; every subsequent hooked
//!   operation in sibling workers unwinds with the [`Cancelled`] sentinel
//!   instead of spinning forever on a flag that will never be published.
//!   [`join_workers`] then propagates the *real* panic payload in
//!   preference to the cooperative unwinds.
//!
//! Both engines use this module: the simulated-GPU kernel through
//! [`crate::Gpu::with_scheduler`] (all `AtomicWordBuffer` traffic is
//! hooked), and the multicore CPU engine through its own scanner builder,
//! which wraps its ready-counter publishes and wait-loop probes in
//! [`with_hook`].

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Panic payload used for cooperative cancellation unwinding.
///
/// When a launch's cancellation flag is raised (a sibling worker panicked,
/// see [`BlockGuard`]), every subsequent hooked operation unwinds with this
/// sentinel so pollers cannot be stranded waiting on flags that will never
/// be published. [`join_workers`] recognises the sentinel and propagates a
/// real panic payload in preference to it.
#[derive(Debug)]
pub struct Cancelled;

/// Identifies where a hook fired within the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HookPoint {
    /// A block (or CPU worker) began executing, after any injected start
    /// delay.
    BlockStart,
    /// An acquire-load of an auxiliary word (ready flag, local sum, or
    /// completion watermark), including every unsuccessful poll probe.
    FlagLoad {
        /// Word index (for multi-word reads, the first index).
        idx: usize,
    },
    /// A release-store of an auxiliary word (for multi-word publishes, the
    /// first index).
    FlagStore {
        /// Word index.
        idx: usize,
    },
    /// An explicit kernel checkpoint (e.g. the start of a chunk), giving
    /// the scheduler a preemption point between protocol operations.
    Checkpoint {
        /// Kernel-chosen identifier (the chunk index in the SAM kernels).
        id: u64,
    },
}

/// One recorded hooked operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEvent {
    /// Position in the recorded total order (equals the event's index).
    pub seq: u64,
    /// Block (worker) that executed the operation.
    pub block: usize,
    /// Position in that block's program order of hooked operations.
    pub block_seq: u64,
    /// What the operation was.
    pub point: HookPoint,
}

/// A captured schedule: the linearized hooked operations of one launch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recording {
    /// Events in linearization order (`events[i].seq == i`).
    pub events: Vec<SchedEvent>,
    /// Operations executed after the recording reached
    /// [`SchedPolicy::max_recorded`] and was truncated. A replay of a
    /// truncated recording gates only the recorded prefix.
    pub dropped: u64,
}

impl Recording {
    /// Renders the schedule as one line per event
    /// (`seq block/block_seq point`), for debugging and repro reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "{:>6}  b{:<3} #{:<5} {:?}\n",
                e.seq, e.block, e.block_seq, e.point
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "  ... {} operations beyond the recording cap\n",
                self.dropped
            ));
        }
        out
    }
}

/// Seeded schedule-perturbation policy.
///
/// All knobs are integers so a policy is `Eq`/`Hash` and a `(seed, policy)`
/// pair fully determines the injected perturbation. The default policy
/// injects nothing (hooks pass through).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SchedPolicy {
    /// Seed for every pseudo-random decision.
    pub seed: u64,
    /// Maximum random per-block start delay in microseconds (0 = none).
    pub start_delay_us: u64,
    /// Start blocks in strictly reverse index order: block `k-1` first,
    /// block 0 last (the carry chain's head arrives after every consumer).
    pub reverse_start: bool,
    /// Gap between consecutive reverse-ordered starts, in microseconds.
    pub reverse_step_us: u64,
    /// Block to stall on a fixed cadence (the "stalled predecessor").
    pub stall_block: Option<usize>,
    /// The stalled block sleeps every `stall_every` hooked operations.
    pub stall_every: u64,
    /// Stall sleep length in microseconds.
    pub stall_us: u64,
    /// Per-million probability of a yield burst at each hooked operation.
    pub yield_ppm: u32,
    /// Maximum yields per injected burst.
    pub max_yield_burst: u32,
    /// Per-million probability of a microsleep at each hooked operation.
    pub sleep_ppm: u32,
    /// Maximum injected sleep in microseconds.
    pub max_sleep_us: u64,
    /// Record the linearized schedule (serializes hooked operations
    /// through the recording lock; see the module docs).
    pub record: bool,
    /// Recording cap; operations beyond it are counted as dropped.
    pub max_recorded: usize,
}

impl Default for SchedPolicy {
    fn default() -> Self {
        SchedPolicy {
            seed: 0,
            start_delay_us: 0,
            reverse_start: false,
            reverse_step_us: 2_000,
            stall_block: None,
            stall_every: 64,
            stall_us: 0,
            yield_ppm: 0,
            max_yield_burst: 8,
            sleep_ppm: 0,
            max_sleep_us: 200,
            record: false,
            max_recorded: 1 << 20,
        }
    }
}

impl SchedPolicy {
    /// Pure pass-through policy (no injection, no recording).
    pub fn passive() -> Self {
        Self::default()
    }

    /// Seeded random jitter: start delays, frequent yield bursts, and
    /// occasional microsleeps at every hook.
    pub fn jitter(seed: u64) -> Self {
        SchedPolicy {
            seed,
            start_delay_us: 500,
            yield_ppm: 250_000,
            sleep_ppm: 20_000,
            ..Self::default()
        }
    }

    /// Blocks start in strictly reverse index order (plus mild jitter):
    /// every consumer is already waiting when its predecessors begin.
    pub fn reverse_start(seed: u64) -> Self {
        SchedPolicy {
            seed,
            reverse_start: true,
            yield_ppm: 100_000,
            ..Self::default()
        }
    }

    /// One block (the whole grid's predecessor) runs far slower than its
    /// consumers: it sleeps every [`SchedPolicy::stall_every`] hooks.
    pub fn stalled_predecessor(seed: u64, block: usize) -> Self {
        SchedPolicy {
            seed,
            stall_block: Some(block),
            stall_us: 500,
            yield_ppm: 100_000,
            ..Self::default()
        }
    }

    /// Everything at once: reverse start order, stalled block 0, yield
    /// bursts and microsleeps — the preset the stress harness sweeps.
    pub fn hostile(seed: u64) -> Self {
        SchedPolicy {
            seed,
            reverse_start: true,
            stall_block: Some(0),
            stall_us: 300,
            start_delay_us: 200,
            yield_ppm: 250_000,
            sleep_ppm: 20_000,
            ..Self::default()
        }
    }

    /// Returns the policy with recording enabled.
    pub fn with_record(mut self) -> Self {
        self.record = true;
        self
    }

    /// Returns the policy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The deterministic start delay this policy assigns to `block` of a
    /// `grid_blocks`-block launch.
    pub fn start_delay(&self, block: usize, grid_blocks: usize) -> Duration {
        let mut us = 0u64;
        if self.reverse_start {
            us += grid_blocks.saturating_sub(1 + block) as u64 * self.reverse_step_us;
        }
        if self.start_delay_us > 0 {
            let r = splitmix64(self.seed ^ (block as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
            us += r % (self.start_delay_us + 1);
        }
        Duration::from_micros(us)
    }
}

/// How long a replay waits for an out-of-turn operation before declaring
/// the replayed program divergent from the recording.
const REPLAY_STALL_LIMIT: Duration = Duration::from_secs(10);

/// Replay gate: the recorded total order plus a cursor over it.
struct Replay {
    /// `(block, block_seq) -> position` in the recorded order.
    order: HashMap<(usize, u64), usize>,
    cursor: Mutex<usize>,
    turn: Condvar,
}

impl Replay {
    /// Blocks until the cursor reaches `pos` (this operation's turn).
    fn wait_turn(&self, pos: usize, cancel: &AtomicBool) {
        let mut cur = self.cursor.lock().expect("replay cursor");
        let mut waited = Duration::ZERO;
        while *cur != pos {
            if cancel.load(Ordering::Relaxed) {
                drop(cur);
                std::panic::panic_any(Cancelled);
            }
            let tick = Duration::from_millis(50);
            let (next, timeout) = self.turn.wait_timeout(cur, tick).expect("replay cursor");
            cur = next;
            if timeout.timed_out() {
                waited += tick;
                assert!(
                    waited < REPLAY_STALL_LIMIT,
                    "schedule replay stalled: turn {pos} never became current \
                     (the replayed program diverged from the recording)"
                );
            }
        }
    }

    /// Releases the turn taken via [`Replay::wait_turn`].
    fn advance(&self) {
        let mut cur = self.cursor.lock().expect("replay cursor");
        *cur += 1;
        drop(cur);
        self.turn.notify_all();
    }
}

/// A schedule-exploration scheduler: inject, record, or replay.
///
/// Install one on a simulated GPU with [`crate::Gpu::with_scheduler`] (or
/// on the CPU scanner through its builder). One `Scheduler` describes one
/// launch's schedule; reuse across launches appends to the same recording.
///
/// # Examples
///
/// Record a hostile schedule and replay it:
///
/// ```
/// use gpu_sim::sched::{SchedPolicy, Scheduler, HookPoint, with_hook, enter_block};
/// use std::sync::Arc;
/// use std::sync::atomic::AtomicBool;
///
/// let run = |sched: Arc<Scheduler>| {
///     std::thread::scope(|s| {
///         for b in 0..2 {
///             let sched = Arc::clone(&sched);
///             s.spawn(move || {
///                 let cancel = Arc::new(AtomicBool::new(false));
///                 let _g = enter_block(b, 2, Some(sched), cancel);
///                 for i in 0..3 {
///                     with_hook(HookPoint::Checkpoint { id: i }, || ());
///                 }
///             });
///         }
///     });
/// };
///
/// let rec = Arc::new(Scheduler::new(SchedPolicy::jitter(7).with_record()));
/// run(Arc::clone(&rec));
/// let schedule = rec.recording();
/// assert_eq!(schedule.events.len(), 8); // 2 starts + 6 checkpoints
///
/// let rep = Arc::new(Scheduler::replay(&schedule));
/// run(Arc::clone(&rep));
/// assert_eq!(rep.recording().events, schedule.events);
/// ```
pub struct Scheduler {
    policy: SchedPolicy,
    recording: Mutex<Recording>,
    replay: Option<Replay>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("policy", &self.policy)
            .field("replay", &self.replay.is_some())
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Creates a scheduler that injects (and optionally records) according
    /// to `policy`.
    pub fn new(policy: SchedPolicy) -> Self {
        Scheduler {
            policy,
            recording: Mutex::new(Recording::default()),
            replay: None,
        }
    }

    /// Creates a scheduler that replays `recording`: each recorded
    /// operation is gated until it is that operation's turn in the
    /// recorded total order. Operations beyond the recording run
    /// ungated. The replay records what it observes, so a faithful replay
    /// satisfies `replayer.recording().events == recording.events`.
    pub fn replay(recording: &Recording) -> Self {
        let order = recording
            .events
            .iter()
            .enumerate()
            .map(|(pos, e)| ((e.block, e.block_seq), pos))
            .collect();
        Scheduler {
            policy: SchedPolicy {
                record: true,
                ..SchedPolicy::default()
            },
            recording: Mutex::new(Recording::default()),
            replay: Some(Replay {
                order,
                cursor: Mutex::new(0),
                turn: Condvar::new(),
            }),
        }
    }

    /// The scheduler's policy.
    pub fn policy(&self) -> &SchedPolicy {
        &self.policy
    }

    /// Whether this scheduler replays a recorded schedule.
    pub fn is_replay(&self) -> bool {
        self.replay.is_some()
    }

    /// Snapshot of the recording so far.
    pub fn recording(&self) -> Recording {
        self.recording
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Clears the recording (for reusing one scheduler across launches).
    pub fn clear_recording(&self) {
        let mut rec = self.recording.lock().unwrap_or_else(|p| p.into_inner());
        rec.events.clear();
        rec.dropped = 0;
    }

    fn push_event(rec: &mut Recording, max: usize, block: usize, block_seq: u64, point: HookPoint) {
        if rec.events.len() < max {
            let seq = rec.events.len() as u64;
            rec.events.push(SchedEvent {
                seq,
                block,
                block_seq,
                point,
            });
        } else {
            rec.dropped += 1;
        }
    }

    /// Runs one hooked operation: replay-gate or inject, then record.
    fn run_hook<R>(
        &self,
        block: usize,
        block_seq: u64,
        rand: u64,
        point: HookPoint,
        cancel: &AtomicBool,
        op: impl FnOnce() -> R,
    ) -> R {
        if let Some(replay) = &self.replay {
            return if let Some(&pos) = replay.order.get(&(block, block_seq)) {
                replay.wait_turn(pos, cancel);
                {
                    let mut rec = self.recording.lock().unwrap_or_else(|p| p.into_inner());
                    Self::push_event(&mut rec, self.policy.max_recorded, block, block_seq, point);
                }
                let out = op();
                replay.advance();
                out
            } else {
                // Beyond the recorded prefix: run ungated (and unrecorded,
                // so the replay recording stays comparable to the source).
                let mut rec = self.recording.lock().unwrap_or_else(|p| p.into_inner());
                rec.dropped += 1;
                drop(rec);
                op()
            };
        }

        self.inject(block, block_seq, rand);
        if self.policy.record {
            // Run the operation while holding the recording lock so the
            // event list is a true linearization of the hooked operations.
            let mut rec = self.recording.lock().unwrap_or_else(|p| p.into_inner());
            Self::push_event(&mut rec, self.policy.max_recorded, block, block_seq, point);
            op()
        } else {
            op()
        }
    }

    /// Applies the policy's perturbation for one hooked operation.
    fn inject(&self, block: usize, block_seq: u64, rand: u64) {
        let p = &self.policy;
        if p.stall_block == Some(block)
            && p.stall_us > 0
            && block_seq.is_multiple_of(p.stall_every.max(1))
        {
            std::thread::sleep(Duration::from_micros(p.stall_us));
        }
        if p.yield_ppm > 0 && rand % 1_000_000 < u64::from(p.yield_ppm) {
            let burst = 1 + (rand >> 32) % u64::from(p.max_yield_burst.max(1));
            for _ in 0..burst {
                std::thread::yield_now();
            }
        }
        if p.sleep_ppm > 0 && (rand >> 16) % 1_000_000 < u64::from(p.sleep_ppm) {
            let us = (rand >> 48) % p.max_sleep_us.max(1) + 1;
            std::thread::sleep(Duration::from_micros(us));
        }
    }
}

/// Per-thread hook context: which block this thread is, its hooked-op
/// program counter, its PRNG, the installed scheduler, and the launch's
/// cancellation flag.
struct BlockState {
    block: usize,
    local_seq: u64,
    rng: u64,
    sched: Option<Arc<Scheduler>>,
    cancel: Arc<AtomicBool>,
}

thread_local! {
    static CURRENT: RefCell<Option<BlockState>> = const { RefCell::new(None) };
}

/// Restores the previous hook context on drop and raises the launch's
/// cancellation flag if the thread is panicking (so sibling workers stuck
/// in flag waits unwind with [`Cancelled`] instead of spinning forever).
pub struct BlockGuard {
    prev: Option<BlockState>,
    cancel: Arc<AtomicBool>,
}

impl std::fmt::Debug for BlockGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockGuard").finish_non_exhaustive()
    }
}

impl Drop for BlockGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.cancel.store(true, Ordering::SeqCst);
        }
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Enters a block (worker) hook context on the current thread.
///
/// Installs the thread-local context every hooked operation consults,
/// applies the policy's start delay (outside replay), and fires the
/// [`HookPoint::BlockStart`] hook. The returned guard restores the
/// previous context on drop and raises `cancel` if the thread panics.
///
/// Both launch layers call this for every worker: the simulated GPU from
/// [`crate::Gpu::launch_persistent_with`], the CPU engine from the body
/// every worker of a scan runs. `sched` may be `None`, in which case the
/// context only provides cancellation checking.
pub fn enter_block(
    block: usize,
    grid_blocks: usize,
    sched: Option<Arc<Scheduler>>,
    cancel: Arc<AtomicBool>,
) -> BlockGuard {
    let seed = sched.as_ref().map_or(0, |s| s.policy.seed);
    let state = BlockState {
        block,
        local_seq: 0,
        rng: splitmix64(seed ^ (block as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bf0_3635),
        sched: sched.clone(),
        cancel: Arc::clone(&cancel),
    };
    let prev = CURRENT.with(|c| c.borrow_mut().replace(state));
    let guard = BlockGuard { prev, cancel };
    if let Some(s) = &sched {
        if !s.is_replay() {
            let delay = s.policy.start_delay(block, grid_blocks);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
    }
    with_hook(HookPoint::BlockStart, || ());
    guard
}

/// Runs `op` through the current thread's hook context.
///
/// Outside any block context this is a pass-through. Inside one it is a
/// **cancellation point** (unwinds with [`Cancelled`] if the launch's flag
/// is raised) and, when a [`Scheduler`] is installed, an injection /
/// recording / replay-gating point. The protocol layers wrap each
/// auxiliary-word access so the access itself happens at its scheduled
/// turn.
pub fn with_hook<R>(point: HookPoint, op: impl FnOnce() -> R) -> R {
    let ctx = CURRENT.with(|c| {
        let mut slot = c.borrow_mut();
        slot.as_mut().map(|s| {
            let block_seq = s.local_seq;
            s.local_seq += 1;
            s.rng = xorshift64(s.rng);
            (
                s.block,
                block_seq,
                s.rng,
                s.sched.clone(),
                Arc::clone(&s.cancel),
            )
        })
    });
    let Some((block, block_seq, rand, sched, cancel)) = ctx else {
        return op();
    };
    if cancel.load(Ordering::Relaxed) {
        std::panic::panic_any(Cancelled);
    }
    match sched {
        Some(s) => s.run_hook(block, block_seq, rand, point, &cancel, op),
        None => op(),
    }
}

/// Fires a bare [`HookPoint::Checkpoint`] hook: a preemption, recording,
/// and cancellation point kernels place between protocol operations (the
/// SAM kernels emit one per chunk).
pub fn checkpoint(id: u64) {
    with_hook(HookPoint::Checkpoint { id }, || ());
}

/// True when the current thread runs inside a block context whose launch
/// has been cancelled.
pub fn cancellation_requested() -> bool {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .is_some_and(|s| s.cancel.load(Ordering::Relaxed))
    })
}

/// Joins worker handles, collecting panic payloads, and returns the one to
/// propagate: a real panic is preferred over the cooperative [`Cancelled`]
/// unwinds it triggered in sibling workers.
pub fn join_workers<'scope>(
    handles: impl IntoIterator<Item = std::thread::ScopedJoinHandle<'scope, ()>>,
) -> Option<Box<dyn Any + Send + 'static>> {
    originating_panic(handles.into_iter().filter_map(|h| h.join().err()))
}

/// The panic payload to propagate out of one launch's worker payloads: the
/// first real panic, else the first cooperative [`Cancelled`] unwind.
/// [`join_workers`] applies it to joined threads; the CPU engine, whose
/// workers are not all joinable threads, applies it to caught payloads.
pub fn originating_panic(
    payloads: impl IntoIterator<Item = Box<dyn Any + Send + 'static>>,
) -> Option<Box<dyn Any + Send + 'static>> {
    // Drains every payload: `join_workers` relies on it to join them all.
    let (mut real, mut cancelled) = (None, None);
    for payload in payloads {
        if payload.is::<Cancelled>() {
            cancelled.get_or_insert(payload);
        } else {
            real.get_or_insert(payload);
        }
    }
    real.or(cancelled)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn xorshift64(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if x == 0 {
        0x9e37_79b9_7f4a_7c15
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_delays_are_deterministic_per_seed() {
        let p = SchedPolicy::jitter(1234);
        for b in 0..8 {
            assert_eq!(p.start_delay(b, 8), p.start_delay(b, 8));
        }
        let q = SchedPolicy::jitter(1235);
        let differs = (0..8).any(|b| p.start_delay(b, 8) != q.start_delay(b, 8));
        assert!(differs, "different seeds should perturb differently");
    }

    #[test]
    fn reverse_start_orders_delays_descending_in_block() {
        let p = SchedPolicy::reverse_start(0);
        let d: Vec<Duration> = (0..4).map(|b| p.start_delay(b, 4)).collect();
        assert!(d[0] > d[1] && d[1] > d[2] && d[2] > d[3]);
        assert_eq!(d[3], Duration::ZERO);
    }

    #[test]
    fn hooks_pass_through_without_context() {
        assert_eq!(with_hook(HookPoint::Checkpoint { id: 0 }, || 41 + 1), 42);
        assert!(!cancellation_requested());
    }

    #[test]
    fn cancellation_point_unwinds_with_sentinel() {
        let cancel = Arc::new(AtomicBool::new(false));
        let _g = enter_block(0, 1, None, Arc::clone(&cancel));
        assert!(!cancellation_requested());
        cancel.store(true, Ordering::SeqCst);
        assert!(cancellation_requested());
        let err = std::panic::catch_unwind(|| with_hook(HookPoint::Checkpoint { id: 1 }, || ()))
            .expect_err("hook must unwind once cancelled");
        assert!(err.is::<Cancelled>());
        // The guard raises the (already-set) flag on this panicking path
        // only when the *thread* is panicking; here we caught it, so drop
        // order is exercised without side effects.
    }

    #[test]
    fn recording_captures_a_linearization() {
        let sched = Arc::new(Scheduler::new(SchedPolicy::jitter(9).with_record()));
        std::thread::scope(|s| {
            for b in 0..3 {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let cancel = Arc::new(AtomicBool::new(false));
                    let _g = enter_block(b, 3, Some(sched), cancel);
                    for i in 0..10 {
                        with_hook(HookPoint::Checkpoint { id: i }, || ());
                    }
                });
            }
        });
        let rec = sched.recording();
        assert_eq!(rec.events.len(), 3 * 11); // BlockStart + 10 checkpoints each
        assert_eq!(rec.dropped, 0);
        // seq is the index; per-block block_seq is strictly increasing.
        for (i, e) in rec.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        for b in 0..3 {
            let seqs: Vec<u64> = rec
                .events
                .iter()
                .filter(|e| e.block == b)
                .map(|e| e.block_seq)
                .collect();
            assert_eq!(seqs, (0..11).collect::<Vec<u64>>());
        }
        assert!(rec.render().contains("BlockStart"));
    }

    #[test]
    fn replay_reproduces_the_recorded_interleaving() {
        let run = |sched: Arc<Scheduler>| {
            std::thread::scope(|s| {
                for b in 0..4 {
                    let sched = Arc::clone(&sched);
                    s.spawn(move || {
                        let cancel = Arc::new(AtomicBool::new(false));
                        let _g = enter_block(b, 4, Some(sched), cancel);
                        for i in 0..25 {
                            with_hook(HookPoint::Checkpoint { id: i }, || ());
                        }
                    });
                }
            });
        };
        let rec_sched = Arc::new(Scheduler::new(SchedPolicy::jitter(77).with_record()));
        run(Arc::clone(&rec_sched));
        let rec = rec_sched.recording();
        assert_eq!(rec.dropped, 0);

        for _ in 0..2 {
            let rep = Arc::new(Scheduler::replay(&rec));
            run(Arc::clone(&rep));
            assert_eq!(rep.recording().events, rec.events, "replay must be exact");
        }
    }

    #[test]
    fn join_workers_prefers_real_payload_over_cancelled() {
        let payload = std::thread::scope(|s| {
            let mut handles = Vec::new();
            handles.push(s.spawn(|| std::panic::panic_any(Cancelled)));
            handles.push(s.spawn(|| panic!("the real failure")));
            handles.push(s.spawn(|| ()));
            join_workers(handles)
        });
        let payload = payload.expect("panics must surface");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "the real failure");
    }

    #[test]
    fn stalled_block_injection_still_terminates() {
        let sched = Arc::new(Scheduler::new(SchedPolicy::stalled_predecessor(3, 0)));
        std::thread::scope(|s| {
            for b in 0..2 {
                let sched = Arc::clone(&sched);
                s.spawn(move || {
                    let cancel = Arc::new(AtomicBool::new(false));
                    let _g = enter_block(b, 2, Some(sched), cancel);
                    for i in 0..5 {
                        checkpoint(i);
                    }
                });
            }
        });
    }
}
