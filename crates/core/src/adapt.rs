//! Online feedback-directed autotuning: adaptive plan geometry.
//!
//! The paper's StreamScan-style auto-tuner ([`crate::autotune`]) picks
//! `items_per_thread` once, at install time, from an analytic model; this
//! crate's CPU equivalents (the NT-store threshold in [`crate::simd`],
//! the chunk geometry frozen into [`crate::cpu::CpuScanner::default`])
//! were likewise calibrated once against one bench host. This module
//! closes the loop at *run* time: adaptive plans
//! ([`crate::plan::PlanHint::adaptive`]) measure every scan they execute
//! and re-tune their geometry from the observations.
//!
//! Three pieces:
//!
//! * [`Geometry`] / [`Cost`] — the knob vector a plan resolves per scan
//!   (worker count, chunk size, NT-store threshold) and the scalar signal
//!   that scores it (elements/second, with the carry-wait fraction from
//!   traced [`ScanReport`]s as a tie-breaker).
//! * [`Driver`] — the online search: a **successive-halving warmup** over
//!   a candidate grid derived from the same shapes the install-time tuner
//!   searches ([`crate::autotune`]'s candidate list), then a **hill-climb**
//!   over single-knob mutations with hysteresis (an exploration step must
//!   beat the incumbent by a margin to be adopted), and finally a
//!   **steady** phase that stops paying exploration cost entirely — with
//!   EWMA drift detection to re-open the search if the host's behaviour
//!   shifts under the converged plan. Every [`Driver::observe`] call after
//!   construction is allocation-free: the steady-state feedback path costs
//!   two clock reads and a few arithmetic operations.
//! * [`TuningStore`] — persistence: learned geometries are written under a
//!   configurable directory, keyed by `(spec fingerprint, host
//!   fingerprint)`, and re-loaded by plan construction so the second
//!   process start begins at the learned optimum instead of re-exploring.
//!
//! # Adaptation never changes results
//!
//! Every geometry the driver explores is **bit-identical** to the default
//! plan: the NT-store threshold only selects between two identical store
//! strategies, and chunk/worker changes are only explored for operators
//! with exactly associative algebra
//! ([`crate::chunk_kernel::ChunkKernel::supports_cascade`] — wrapping
//! integer sums). Operators where the chunk decomposition is observable
//! (floating-point sums, `Max`, ...) run the frozen default geometry and
//! never feed the driver, so `PlanHint::adaptive()` is safe to enable
//! unconditionally.
//!
//! [`ScanReport`]: crate::obs::ScanReport

use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

use crate::config::ScanSpec;
use crate::obs::ScanReport;

/// Relative weight of the carry-wait fraction in [`Cost::score`]: two
/// geometries within a few percent of each other's throughput are ranked
/// by how little time they waste blocked on predecessors.
const CARRY_WAIT_WEIGHT: f64 = 0.05;

/// EWMA smoothing factor for the steady-phase drift detector.
const EWMA_ALPHA: f64 = 0.2;

/// Minimum steady episodes before the drift detector may re-open the
/// search (lets the EWMA fill before it is trusted).
const DRIFT_MIN_EPISODES: u32 = 8;

/// NT-store threshold choices the driver cycles through: engage streaming
/// stores once a scan output size reaches 1 MiB, the frozen 8 MiB
/// default, or never. All three are bit-identical; only the cache
/// behaviour differs.
const NT_CHOICES: [usize; 3] = [1 << 20, crate::simd::NT_STORE_MIN_BYTES, usize::MAX];

/// Bounds for the chunk-size knob (elements).
const CHUNK_MIN: usize = 1 << 10;
/// Upper bound for the chunk-size knob (elements).
const CHUNK_MAX: usize = 1 << 22;

// --- Geometry -------------------------------------------------------------

/// One point in the tuning space: the per-scan decisions an adaptive plan
/// re-resolves from feedback instead of freezing at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Worker threads for the parallel engine (clamped to the engine's
    /// configured pool size).
    pub workers: usize,
    /// Chunk size in elements. A scan that fits in one chunk runs
    /// serially on the calling thread, so this knob is also the
    /// serial/parallel crossover.
    pub chunk_elems: usize,
    /// NT-store threshold in bytes of scan output size
    /// ([`crate::simd::nt_store_min_bytes`]); `usize::MAX` disables
    /// streaming stores.
    pub nt_min_bytes: usize,
}

impl Geometry {
    /// The frozen-constant geometry — the exact defaults a non-adaptive
    /// plan runs with. This is the *single source of truth* for initial
    /// geometry: the frozen constants (the 8 MiB NT threshold, the
    /// engine's worker count and chunk size) reach adaptive plans only
    /// through here, and it is always in the warmup candidate
    /// set, so a converged adaptive plan can never be slower than the
    /// frozen baseline by more than measurement noise.
    pub fn frozen(workers: usize, chunk_elems: usize) -> Geometry {
        Geometry {
            workers,
            chunk_elems,
            nt_min_bytes: crate::simd::NT_STORE_MIN_BYTES,
        }
    }

    /// Clamps every knob into its legal range (used after mutation and
    /// when loading possibly-stale stored tunings).
    fn clamped(mut self, workers_max: usize) -> Geometry {
        self.workers = self.workers.clamp(1, workers_max.max(1));
        self.chunk_elems = self.chunk_elems.clamp(CHUNK_MIN, CHUNK_MAX);
        if self.nt_min_bytes == 0 {
            self.nt_min_bytes = crate::simd::NT_STORE_MIN_BYTES;
        }
        self
    }
}

// --- Cost -----------------------------------------------------------------

/// The scalar feedback signal for one episode (one scan) under one
/// [`Geometry`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Observed throughput, elements per second.
    pub elems_per_sec: f64,
    /// Fraction of span time spent in carry-wait (0 when untraced).
    pub carry_wait_frac: f64,
}

impl Cost {
    /// Cost from a raw wall-time measurement — the untraced steady path:
    /// two `Instant` reads around the scan, no allocation.
    pub fn from_wall(n: usize, nanos: u64) -> Cost {
        if nanos == 0 {
            return Cost::default();
        }
        Cost {
            elems_per_sec: n as f64 / (nanos as f64 / 1e9),
            carry_wait_frac: 0.0,
        }
    }

    /// Cost from a traced [`ScanReport`], folding in the carry-wait
    /// fraction as the tie-breaker signal.
    pub fn from_report(report: &ScanReport) -> Cost {
        Cost {
            elems_per_sec: report.elems_per_sec(),
            carry_wait_frac: report.carry_wait_fraction(),
        }
    }

    /// The scalar the driver maximizes: throughput, discounted by up to
    /// `CARRY_WAIT_WEIGHT` (5%) for time wasted blocked on predecessors.
    pub fn score(&self) -> f64 {
        self.elems_per_sec * (1.0 - CARRY_WAIT_WEIGHT * self.carry_wait_frac.clamp(0.0, 1.0))
    }
}

// --- Driver ---------------------------------------------------------------

/// Tunable policy of the online search.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Episodes each surviving candidate receives per successive-halving
    /// rung, and each hill-climb probe receives before judgment.
    pub episodes_per_candidate: u32,
    /// Relative improvement a probe must show over the incumbent to be
    /// adopted (hysteresis: prevents oscillating between geometries whose
    /// difference is measurement noise).
    pub hysteresis: f64,
    /// Consecutive full mutation cycles without an adopted improvement
    /// before the driver declares convergence and stops exploring.
    pub cycles_to_converge: u32,
    /// Fractional EWMA throughput drop below the converged score that
    /// re-opens the search (host behaviour drifted under the plan).
    pub drift_tolerance: f64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            episodes_per_candidate: 2,
            hysteresis: 0.05,
            cycles_to_converge: 2,
            drift_tolerance: 0.5,
        }
    }
}

/// Scans shorter than this do not feed the driver: their per-element
/// throughput is dominated by fixed overhead and says nothing about the
/// geometry, so observing them would pollute the cost signal. The probe
/// geometry still executes (it is bit-identical regardless), the episode
/// just is not scored.
pub const ADAPT_MIN_ELEMS: usize = 4096;

/// A point-in-time view of an adaptive plan's driver, for introspection
/// and bench reporting ([`crate::plan::ScanPlan::adaptive_snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSnapshot {
    /// The geometry the next scan will execute with (the current probe).
    pub geometry: Geometry,
    /// The incumbent (best known) geometry.
    pub best: Geometry,
    /// The incumbent's score (elements/second, wait-discounted).
    pub best_score: f64,
    /// The search phase.
    pub phase: DriverPhase,
    /// True when the driver was seeded from a persisted tuning.
    pub seeded: bool,
    /// Episodes observed so far.
    pub episodes: u64,
}

/// Which phase of the search the driver is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverPhase {
    /// Successive halving over the warmup candidate grid.
    Warmup,
    /// Hill-climbing single-knob mutations around the incumbent.
    Climb,
    /// Converged: every episode runs the incumbent; only the EWMA drift
    /// detector is live.
    Steady,
}

/// Single-knob mutations the hill-climb cycles through, in order.
const MUTATIONS: usize = 5;

/// The online search driver: warmup (successive halving) → climb
/// (hysteretic hill-climb) → steady (no exploration), with drift-triggered
/// re-entry into climb.
///
/// Protocol: call [`Driver::geometry`] to get the geometry for the next
/// scan, run the scan with it, then feed the measured [`Cost`] back with
/// [`Driver::observe`]. All state is pre-allocated at construction;
/// `observe` never allocates.
#[derive(Debug)]
pub struct Driver {
    cfg: DriverConfig,
    workers_max: usize,
    frozen: Geometry,
    /// Warmup candidate grid (fixed at construction).
    candidates: Vec<Geometry>,
    /// Best observed score per candidate this rung.
    scores: Vec<f64>,
    /// Episodes run for the current candidate this rung.
    trials: u32,
    /// Survivor mask for successive halving.
    alive: Vec<bool>,
    /// Index of the candidate (warmup) currently being measured.
    cursor: usize,
    phase: DriverPhase,
    /// Incumbent geometry and its score.
    best: Geometry,
    best_score: f64,
    /// The geometry the next episode should run with.
    current: Geometry,
    /// Hill-climb: which mutation of `best` is being probed.
    probe_idx: usize,
    /// Best score observed for the current probe.
    probe_score: f64,
    /// Episodes run for the current probe.
    probe_trials: u32,
    /// Whether the current mutation cycle adopted an improvement.
    improved_this_cycle: bool,
    /// Consecutive cycles without improvement.
    stale_cycles: u32,
    /// Steady-phase EWMA of observed scores.
    ewma: f64,
    steady_episodes: u32,
    /// Total episodes observed over the driver's lifetime.
    episodes: u64,
    /// True when this driver was seeded from a [`TuningStore`] entry.
    seeded: bool,
}

impl Driver {
    /// A fresh (unseeded) driver: starts in warmup over a candidate grid
    /// around the frozen geometry.
    ///
    /// `workers_max` bounds the worker knob (the engine's configured pool
    /// size); `frozen` is the default geometry (always a candidate).
    pub fn new(cfg: DriverConfig, frozen: Geometry, workers_max: usize) -> Driver {
        let frozen = frozen.clamped(workers_max);
        let mut candidates = Vec::with_capacity(crate::autotune::CANDIDATES.len() + 6);
        candidates.push(frozen);
        // Chunk grid derived from the install-time tuner's
        // items-per-thread shapes: candidate chunk = shape * 4096 elements
        // (the shapes span 4 Ki – 96 Ki, bracketing the 32 Ki default).
        for ipt in crate::autotune::CANDIDATES {
            let g = Geometry {
                chunk_elems: (ipt * 4096).clamp(CHUNK_MIN, CHUNK_MAX),
                ..frozen
            };
            if !candidates.contains(&g) {
                candidates.push(g);
            }
        }
        // NT-threshold variants of the default shape: on a single-core
        // host this is the knob that still bites (the worker and chunk
        // knobs degenerate once k == 1).
        for nt in NT_CHOICES {
            let g = Geometry {
                nt_min_bytes: nt,
                ..frozen
            };
            if !candidates.contains(&g) {
                candidates.push(g);
            }
        }
        // Worker variants (dedup collapses these on a 1-core host).
        for w in [1, workers_max.div_ceil(2), workers_max] {
            let g = Geometry {
                workers: w.max(1),
                ..frozen
            };
            if !candidates.contains(&g) {
                candidates.push(g);
            }
        }
        let n = candidates.len();
        Driver {
            cfg,
            workers_max,
            frozen,
            current: candidates[0],
            best: frozen,
            best_score: 0.0,
            candidates,
            scores: vec![0.0; n],
            trials: 0,
            alive: vec![true; n],
            cursor: 0,
            phase: DriverPhase::Warmup,
            probe_idx: 0,
            probe_score: 0.0,
            probe_trials: 0,
            improved_this_cycle: false,
            stale_cycles: 0,
            ewma: 0.0,
            steady_episodes: 0,
            episodes: 0,
            seeded: false,
        }
    }

    /// A driver seeded from a persisted tuning: starts **converged** at
    /// the stored geometry (no warmup, no exploration cost), relying on
    /// the drift detector to re-open the search if the stored optimum no
    /// longer holds on this host.
    pub fn seeded(
        cfg: DriverConfig,
        frozen: Geometry,
        workers_max: usize,
        stored: &StoredTuning,
    ) -> Driver {
        let mut d = Driver::new(cfg, frozen, workers_max);
        d.best = stored.geometry.clamped(workers_max);
        d.best_score = stored.score.max(0.0);
        d.current = d.best;
        d.phase = DriverPhase::Steady;
        d.seeded = true;
        d
    }

    /// The geometry the next episode should execute with. Never allocates.
    pub fn geometry(&self) -> Geometry {
        self.current
    }

    /// The incumbent (best known) geometry.
    pub fn best(&self) -> Geometry {
        self.best
    }

    /// The frozen-default geometry this driver was constructed around
    /// (the baseline every candidate competes against).
    pub fn frozen(&self) -> Geometry {
        self.frozen
    }

    /// The incumbent's score (elements/second, wait-discounted).
    pub fn best_score(&self) -> f64 {
        self.best_score
    }

    /// The current search phase.
    pub fn phase(&self) -> DriverPhase {
        self.phase
    }

    /// True once the driver has stopped exploring ([`DriverPhase::Steady`]).
    pub fn converged(&self) -> bool {
        self.phase == DriverPhase::Steady
    }

    /// True when this driver was seeded from a persisted tuning.
    pub fn is_seeded(&self) -> bool {
        self.seeded
    }

    /// Total episodes observed.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// A point-in-time view of the search state.
    pub fn snapshot(&self) -> AdaptiveSnapshot {
        AdaptiveSnapshot {
            geometry: self.current,
            best: self.best,
            best_score: self.best_score,
            phase: self.phase,
            seeded: self.seeded,
            episodes: self.episodes,
        }
    }

    /// Feeds back the measured cost of one episode run with
    /// [`Driver::geometry`], advancing the search. Never allocates: every
    /// container was sized at construction and mutations are computed
    /// arithmetically.
    pub fn observe(&mut self, cost: Cost) {
        self.episodes += 1;
        let score = cost.score();
        match self.phase {
            DriverPhase::Warmup => self.observe_warmup(score),
            DriverPhase::Climb => self.observe_climb(score),
            DriverPhase::Steady => self.observe_steady(score),
        }
    }

    /// Warmup: best-of-`episodes_per_candidate` scoring per candidate,
    /// round-robin over survivors; when the rung completes, the bottom
    /// half is dropped; one survivor left → enter climb.
    fn observe_warmup(&mut self, score: f64) {
        self.scores[self.cursor] = self.scores[self.cursor].max(score);
        self.trials += 1;
        if self.trials < self.cfg.episodes_per_candidate {
            return;
        }
        self.trials = 0;
        // Advance to the next surviving candidate; wrapping to the start
        // ends the rung.
        let next = (self.cursor + 1..self.candidates.len()).find(|&i| self.alive[i]);
        match next {
            Some(i) => {
                self.cursor = i;
                self.current = self.candidates[i];
            }
            None => self.finish_rung(),
        }
    }

    /// Ends a successive-halving rung: drops the bottom half of the
    /// survivors (keeping at least one) and either starts the next rung or
    /// promotes the sole survivor to incumbent and enters climb.
    fn finish_rung(&mut self) {
        let mut survivors = 0usize;
        for &a in &self.alive {
            survivors += a as usize;
        }
        let keep = survivors.div_ceil(2);
        // Drop survivors until only `keep` remain, evicting the current
        // minimum each time — O(n^2) worst case over a ~20-entry grid,
        // allocation-free.
        while survivors > keep {
            let mut min_i = usize::MAX;
            let mut min_s = f64::INFINITY;
            for i in 0..self.candidates.len() {
                if self.alive[i] && self.scores[i] < min_s {
                    min_s = self.scores[i];
                    min_i = i;
                }
            }
            self.alive[min_i] = false;
            survivors -= 1;
        }
        if survivors <= 1 {
            let winner = (0..self.candidates.len())
                .find(|&i| self.alive[i])
                .unwrap_or(0);
            self.best = self.candidates[winner];
            self.best_score = self.scores[winner];
            self.enter_climb();
            return;
        }
        // Next rung: reset per-rung bests so later rungs re-measure, and
        // resume from the first survivor (more than one is alive here, so
        // the fallback never fires).
        for i in 0..self.candidates.len() {
            if self.alive[i] {
                self.scores[i] = 0.0;
            }
        }
        let first = (0..self.candidates.len())
            .find(|&i| self.alive[i])
            .unwrap_or(0);
        self.cursor = first;
        self.current = self.candidates[first];
    }

    /// Opens the hill-climb phase probing mutations of the incumbent.
    fn enter_climb(&mut self) {
        self.phase = DriverPhase::Climb;
        self.probe_idx = 0;
        self.probe_score = 0.0;
        self.probe_trials = 0;
        self.improved_this_cycle = false;
        self.stale_cycles = 0;
        self.current = self.mutated(0);
    }

    /// The `idx`-th single-knob mutation of the incumbent, clamped legal.
    fn mutated(&self, idx: usize) -> Geometry {
        let mut g = self.best;
        match idx {
            0 => g.chunk_elems = (g.chunk_elems << 1).min(CHUNK_MAX),
            1 => g.chunk_elems = (g.chunk_elems >> 1).max(CHUNK_MIN),
            2 => g.workers = (g.workers + 1).min(self.workers_max),
            3 => g.workers = g.workers.saturating_sub(1).max(1),
            _ => {
                // Cycle to the next NT choice (nearest-above, wrapping).
                let cur = g.nt_min_bytes;
                let next = NT_CHOICES
                    .iter()
                    .copied()
                    .find(|&c| c > cur)
                    .unwrap_or(NT_CHOICES[0]);
                g.nt_min_bytes = next;
            }
        }
        g.clamped(self.workers_max)
    }

    /// Climb: each mutation is probed `episodes_per_candidate` times
    /// (best-of); an improvement beyond the hysteresis margin is adopted
    /// immediately (restarting the cycle around the new incumbent); a full
    /// cycle of rejected probes counts toward convergence.
    fn observe_climb(&mut self, score: f64) {
        self.probe_score = self.probe_score.max(score);
        self.probe_trials += 1;
        // The incumbent's score keeps refreshing too: a probe identical to
        // the incumbent (a no-op mutation at a knob bound) measures it.
        if self.current == self.best {
            self.best_score = self.best_score.max(score);
        }
        if self.probe_trials < self.cfg.episodes_per_candidate {
            return;
        }
        if self.probe_score > self.best_score * (1.0 + self.cfg.hysteresis) {
            self.best = self.current;
            self.best_score = self.probe_score;
            self.improved_this_cycle = true;
        }
        self.probe_idx += 1;
        if self.probe_idx >= MUTATIONS {
            if self.improved_this_cycle {
                self.stale_cycles = 0;
            } else {
                self.stale_cycles += 1;
            }
            if self.stale_cycles >= self.cfg.cycles_to_converge {
                self.enter_steady();
                return;
            }
            self.probe_idx = 0;
            self.improved_this_cycle = false;
        }
        self.probe_score = 0.0;
        self.probe_trials = 0;
        self.current = self.mutated(self.probe_idx);
    }

    /// Enters the steady (converged) phase: no more exploration.
    fn enter_steady(&mut self) {
        self.phase = DriverPhase::Steady;
        self.current = self.best;
        self.ewma = 0.0;
        self.steady_episodes = 0;
    }

    /// Steady: track the EWMA of observed scores; a sustained drop below
    /// `best_score * (1 - drift_tolerance)` means the host's behaviour
    /// drifted under the converged plan — re-open the climb.
    fn observe_steady(&mut self, score: f64) {
        self.ewma = if self.steady_episodes == 0 {
            score
        } else {
            EWMA_ALPHA * score + (1.0 - EWMA_ALPHA) * self.ewma
        };
        self.steady_episodes = self.steady_episodes.saturating_add(1);
        if self.steady_episodes >= DRIFT_MIN_EPISODES
            && self.best_score > 0.0
            && self.ewma < self.best_score * (1.0 - self.cfg.drift_tolerance)
        {
            // The stored expectation no longer holds; re-anchor on current
            // reality and explore again.
            self.best_score = self.ewma;
            self.enter_climb();
        }
    }
}

// --- Host fingerprint -----------------------------------------------------

/// Cache-line size assumed in the host fingerprint. Every supported
/// target (x86-64, aarch64 with 64-byte lines) matches; hosts that differ
/// simply hash to a different key and re-tune.
const CACHE_LINE_BYTES: usize = 64;

/// A stable fingerprint of the executing host: resolved kernel family,
/// core count, cache-line size — the machine-identity half of the
/// [`TuningStore`] key. Example: `"avx512-c64-l64"`.
pub fn host_fingerprint() -> String {
    format!(
        "{}-c{}-l{}",
        crate::isa::resolved().name(),
        crate::cpu::host_threads(),
        CACHE_LINE_BYTES
    )
}

/// The full store key for a spec on this host:
/// `"<spec fingerprint>@<host fingerprint>"`, e.g. `"q8s1@avx512-c64-l64"`.
pub fn tuning_key(spec: &ScanSpec) -> String {
    format!("{}@{}", spec.fingerprint(), host_fingerprint())
}

// --- TuningStore ----------------------------------------------------------

/// Version of the on-disk tuning format.
const STORE_VERSION: u32 = 1;

/// A learned tuning as persisted by the [`TuningStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredTuning {
    /// The converged geometry.
    pub geometry: Geometry,
    /// The score ([`Cost::score`]) observed at convergence.
    pub score: f64,
    /// Driver episodes behind the tuning (a confidence proxy).
    pub episodes: u64,
}

/// Durable storage for learned tunings: one small TOML file per
/// `(spec, host)` key under a configurable directory.
///
/// The store is deliberately forgiving: a missing directory, an
/// unreadable file, an unknown format version, or a corrupt entry all
/// read as "no tuning" (the plan falls back to a fresh warmup) — a stale
/// or damaged cache must never break a scan. Writes go through a
/// temporary file and an atomic rename, so concurrent processes converge
/// on one winner instead of interleaving.
///
/// # File format (version 1)
///
/// ```toml
/// version = 1
/// workers = 8
/// chunk_elems = 32768
/// nt_min_bytes = 8388608
/// score = 937000000.0
/// episodes = 120
/// ```
#[derive(Debug, Clone)]
pub struct TuningStore {
    dir: PathBuf,
}

impl TuningStore {
    /// The environment variable naming the tuning directory. Tests that
    /// set it must hold the [`crate::envlock`] guard.
    pub const ENV_DIR: &'static str = "SAM_TUNING_DIR";

    /// A store rooted at `dir` (created on first save, not here).
    pub fn new(dir: impl Into<PathBuf>) -> TuningStore {
        TuningStore { dir: dir.into() }
    }

    /// The store named by `SAM_TUNING_DIR`, or `None` when the variable is
    /// unset or empty (adaptive plans then tune in-process only, without
    /// persistence). Read per call — not cached — so tests can re-point it
    /// under the env lock.
    pub fn from_env() -> Option<TuningStore> {
        match std::env::var(Self::ENV_DIR) {
            Ok(dir) if !dir.is_empty() => Some(TuningStore::new(dir)),
            _ => None,
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path backing `key`.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.v{STORE_VERSION}.toml"))
    }

    /// Loads the tuning for `key`, or `None` if absent, unreadable, or
    /// corrupt (corrupt entries are treated as absent, never an error).
    pub fn load(&self, key: &str) -> Option<StoredTuning> {
        let mut text = String::new();
        std::fs::File::open(self.path_for(key))
            .ok()?
            .read_to_string(&mut text)
            .ok()?;
        parse_tuning(&text)
    }

    /// Persists `tuning` under `key` (temp file + atomic rename; creates
    /// the directory if needed).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; callers on the adaptive path log-and-ignore
    /// them (persistence is best-effort).
    pub fn save(&self, key: &str, tuning: &StoredTuning) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(key);
        let tmp = self.dir.join(format!(".{key}.v{STORE_VERSION}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(format_tuning(tuning).as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)
    }
}

/// Serializes a [`StoredTuning`] in the version-1 format.
fn format_tuning(t: &StoredTuning) -> String {
    let g = &t.geometry;
    format!(
        "version = {STORE_VERSION}\n\
         workers = {}\n\
         chunk_elems = {}\n\
         nt_min_bytes = {}\n\
         score = {}\n\
         episodes = {}\n",
        g.workers, g.chunk_elems, g.nt_min_bytes, t.score, t.episodes,
    )
}

/// Parses the version-1 tuning format; `None` on any malformation.
fn parse_tuning(text: &str) -> Option<StoredTuning> {
    let mut version = None;
    let mut workers = None;
    let mut chunk_elems = None;
    let mut nt_min_bytes = None;
    let mut score = None;
    let mut episodes = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.split_once('=')?;
        let (key, value) = (key.trim(), value.trim());
        match key {
            "version" => version = Some(value.parse::<u32>().ok()?),
            "workers" => workers = Some(value.parse::<usize>().ok()?),
            "chunk_elems" => chunk_elems = Some(value.parse::<usize>().ok()?),
            "nt_min_bytes" => nt_min_bytes = Some(value.parse::<usize>().ok()?),
            "score" => score = Some(value.parse::<f64>().ok()?),
            "episodes" => episodes = Some(value.parse::<u64>().ok()?),
            // Unknown keys are tolerated for forward compatibility, and so
            // are the retired `path` and `threshold` keys older stores
            // still carry.
            _ => {}
        }
    }
    if version? != STORE_VERSION {
        return None;
    }
    let workers = workers?;
    let chunk_elems = chunk_elems?;
    if workers == 0 || chunk_elems == 0 {
        return None;
    }
    let score = score?;
    if !score.is_finite() || score < 0.0 {
        return None;
    }
    Some(StoredTuning {
        geometry: Geometry {
            workers,
            chunk_elems,
            nt_min_bytes: nt_min_bytes?,
        },
        score,
        episodes: episodes?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frozen() -> Geometry {
        Geometry {
            workers: 4,
            chunk_elems: 32 * 1024,
            nt_min_bytes: 8 << 20,
        }
    }

    /// A synthetic cost surface with a known optimum: throughput peaks at
    /// chunk 8 Ki, NT off, and falls away smoothly.
    fn surface(g: &Geometry) -> Cost {
        let chunk_penalty = ((g.chunk_elems as f64).log2() - 13.0).abs();
        let nt_bonus = if g.nt_min_bytes == usize::MAX {
            1.1
        } else {
            1.0
        };
        let worker_bonus = g.workers as f64 / (1.0 + 0.1 * (g.workers as f64 - 3.0).abs());
        Cost {
            elems_per_sec: 1e9 * nt_bonus * worker_bonus / (1.0 + 0.25 * chunk_penalty),
            carry_wait_frac: 0.0,
        }
    }

    #[test]
    fn driver_reaches_known_optimum_within_budget() {
        let mut d = Driver::new(DriverConfig::default(), frozen(), 4);
        for _ in 0..2000 {
            if d.converged() {
                break;
            }
            let cost = surface(&d.geometry());
            d.observe(cost);
        }
        assert!(d.converged(), "driver must converge within budget");
        let best = d.best();
        assert_eq!(best.nt_min_bytes, usize::MAX, "NT knob found: {best:?}");
        // The chunk optimum (8 Ki) must be found exactly: it is in the
        // warmup grid and the surface is unimodal in log2(chunk).
        assert_eq!(best.chunk_elems, 8 * 1024, "chunk knob found: {best:?}");
        // Converged score at least matches the frozen geometry's.
        assert!(d.best_score() >= surface(&frozen()).score());
    }

    #[test]
    fn converged_driver_stops_exploring() {
        let mut d = Driver::new(DriverConfig::default(), frozen(), 4);
        for _ in 0..2000 {
            if d.converged() {
                break;
            }
            let cost = surface(&d.geometry());
            d.observe(cost);
        }
        assert!(d.converged());
        let settled = d.best();
        for _ in 0..100 {
            assert_eq!(d.geometry(), settled, "steady phase explores nothing");
            let cost = surface(&d.geometry());
            d.observe(cost);
        }
        assert!(d.converged());
    }

    #[test]
    fn hysteresis_rejects_noise_improvements() {
        let mut d = Driver::new(DriverConfig::default(), frozen(), 4);
        // Flat surface with a +2% "improvement" on a geometry only the
        // hill-climb can reach (warmup tries 1, 2 and 4 workers, never 3):
        // below the 5% hysteresis margin, it must never be adopted.
        let mut probed = false;
        for _ in 0..2000 {
            if d.converged() {
                break;
            }
            let g = d.geometry();
            probed |= g.workers == 3;
            let eps = if g.workers == 3 { 1.02 } else { 1.0 };
            d.observe(Cost {
                elems_per_sec: 1e9 * eps,
                carry_wait_frac: 0.0,
            });
        }
        assert!(d.converged());
        assert!(probed, "the climb must probe the noisy geometry");
        assert_ne!(
            d.best().workers,
            3,
            "sub-hysteresis improvements must not be adopted"
        );
    }

    #[test]
    fn drift_reopens_the_search() {
        let mut d = Driver::new(DriverConfig::default(), frozen(), 4);
        for _ in 0..2000 {
            if d.converged() {
                break;
            }
            let cost = surface(&d.geometry());
            d.observe(cost);
        }
        assert!(d.converged());
        // Throughput collapses to 10% of the converged score: after the
        // EWMA fills, the driver must re-enter climb.
        let collapsed = Cost {
            elems_per_sec: d.best_score() * 0.1,
            carry_wait_frac: 0.0,
        };
        for _ in 0..100 {
            d.observe(collapsed);
            if !d.converged() {
                break;
            }
        }
        assert!(!d.converged(), "drift detector must re-open the search");
    }

    #[test]
    fn seeded_driver_starts_converged_at_the_stored_geometry() {
        let stored = StoredTuning {
            geometry: Geometry {
                chunk_elems: 8 * 1024,
                ..frozen()
            },
            score: 1e9,
            episodes: 50,
        };
        let d = Driver::seeded(DriverConfig::default(), frozen(), 4, &stored);
        assert!(d.converged());
        assert!(d.is_seeded());
        assert_eq!(d.geometry(), stored.geometry);
        assert_eq!(d.episodes(), 0);
    }

    #[test]
    fn seeded_driver_clamps_stale_stored_geometry() {
        // A tuning stored on a 64-core host loaded on a 4-core one.
        let stored = StoredTuning {
            geometry: Geometry {
                workers: 64,
                ..frozen()
            },
            score: 1e9,
            episodes: 10,
        };
        let d = Driver::seeded(DriverConfig::default(), frozen(), 4, &stored);
        assert_eq!(d.geometry().workers, 4);
    }

    #[test]
    fn warmup_candidates_include_frozen_default() {
        let d = Driver::new(DriverConfig::default(), frozen(), 4);
        assert!(d.candidates.contains(&frozen()));
        assert!(d.candidates.len() >= 8, "grid: {:?}", d.candidates.len());
        // All candidates legal.
        for c in &d.candidates {
            assert!(c.workers >= 1 && c.workers <= 4);
            assert!(c.chunk_elems >= CHUNK_MIN && c.chunk_elems <= CHUNK_MAX);
        }
    }

    #[test]
    fn store_roundtrips() {
        let dir = std::env::temp_dir().join(format!(
            "sam-tuning-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TuningStore::new(&dir);
        let key = "q2s3@avx512-c4-l64";
        assert_eq!(store.load(key), None, "missing file reads as absent");
        let tuning = StoredTuning {
            geometry: Geometry {
                workers: 3,
                chunk_elems: 8192,
                nt_min_bytes: usize::MAX,
            },
            score: 1.25e9,
            episodes: 77,
        };
        store.save(key, &tuning).unwrap();
        assert_eq!(store.load(key), Some(tuning));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_store_entries_read_as_absent() {
        assert_eq!(parse_tuning(""), None);
        assert_eq!(parse_tuning("garbage"), None);
        assert_eq!(parse_tuning("version = 99\nworkers = 1"), None);
        let good = format_tuning(&StoredTuning {
            geometry: frozen(),
            score: 1e9,
            episodes: 5,
        });
        assert!(parse_tuning(&good).is_some());
        // Each single-field corruption reads as absent.
        assert_eq!(
            parse_tuning(&good.replace("workers = 4", "workers = zero")),
            None
        );
        assert_eq!(
            parse_tuning(&good.replace("workers = 4", "workers = 0")),
            None
        );
        assert_eq!(
            parse_tuning(&good.replace("score = 1000000000", "score = NaN")),
            None
        );
        let truncated = &good[..good.len() / 2];
        assert_eq!(parse_tuning(truncated), None);
        // Unknown keys are forward-compatible, not corruption.
        let extended = format!("{good}future_knob = 12\n");
        assert!(parse_tuning(&extended).is_some());
    }

    #[test]
    fn stores_with_the_retired_path_key_still_load() {
        // A version-1 store written while geometries still carried a
        // cascade-vs-iterated kernel path and a serial/parallel crossover:
        // the `path` and `threshold` lines are ignored and every other
        // knob loads as written.
        let legacy = "version = 1\n\
                      workers = 3\n\
                      chunk_elems = 8192\n\
                      path = \"iterated\"\n\
                      threshold = 4096\n\
                      nt_min_bytes = 18446744073709551615\n\
                      score = 1250000000\n\
                      episodes = 77\n";
        let want = StoredTuning {
            geometry: Geometry {
                workers: 3,
                chunk_elems: 8192,
                nt_min_bytes: usize::MAX,
            },
            score: 1.25e9,
            episodes: 77,
        };
        assert_eq!(parse_tuning(legacy), Some(want));
        assert_eq!(
            parse_tuning(&legacy.replace("iterated", "cascade")),
            Some(want)
        );
    }

    #[test]
    fn fingerprints_are_stable_and_composed() {
        let host = host_fingerprint();
        assert_eq!(host, host_fingerprint());
        assert!(host.contains("-c") && host.ends_with("-l64"), "{host}");
        let spec = ScanSpec::inclusive().with_order(8).unwrap();
        let key = tuning_key(&spec);
        assert!(key.starts_with("q8s1@"), "{key}");
        assert!(key.ends_with(&host), "{key}");
    }

    #[test]
    fn cost_score_discounts_carry_wait() {
        let fast = Cost {
            elems_per_sec: 1e9,
            carry_wait_frac: 0.0,
        };
        let waiting = Cost {
            elems_per_sec: 1e9,
            carry_wait_frac: 1.0,
        };
        assert!(fast.score() > waiting.score());
        assert_eq!(Cost::from_wall(1000, 0).score(), 0.0);
        let c = Cost::from_wall(1_000_000, 1_000_000_000);
        assert!((c.elems_per_sec - 1e6).abs() < 1.0);
    }
}
