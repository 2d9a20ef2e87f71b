//! The fault-campaign engine: one chunked Monte-Carlo loop with two
//! public projections.
//!
//! Every campaign profiles the workload once under its protection
//! engine (the **golden run**, which also reservoir-samples issue
//! events), then draws one fault per trial from chunk `c`'s private
//! `StdRng::seed_from_u64(seed ^ c)` and folds the chunks in index
//! order. Each chunk first decides detection for all of its trials in
//! one **detection run**: a clean datapath, with the protection engine
//! judging every comparison against each drawn fault's
//! [`FaultOracle`] ([`CompoundFault`]; [`Judges`]). An oracle changes
//! verdicts and never the schedule, so this run is the golden run
//! again and each judge sees what a run carrying only its fault would;
//! this is where checker-internal faults act. What follows is the
//! projection:
//!
//! * [`resilient_campaign`] — classified into the masked / detected /
//!   SDC / hang taxonomy ([`TrialOutcome`]). A detected trial is
//!   `Detected` outright; every other trial adds an **architectural
//!   run** — the same datapath fault attached to the simulator itself
//!   ([`warped_sim::LaneFault`]), corrupting real values; its final
//!   output is compared against golden. The DMR engine rides along so
//!   its issue schedule matches the profile (DMR stalls shift cycles; a
//!   transient sampled at cycle *c* must strike cycle *c*).
//! * [`detection_campaign`] — **the detection run alone**, under
//!   Warped-DMR or the DMTR baseline ([`Protection`]): one simulation
//!   per chunk. It answers *did the comparator fire?*, which is what
//!   validates Fig. 9a's coverage and the §3.2 lane-shuffling claim;
//!   undetected trials stay unclassified.
//!
//! Both projections share the machinery that keeps long campaigns
//! alive:
//!
//! * **Panic isolation** — each trial chunk runs under
//!   [`warped_runner::Runner::map_retry`]: a panicking chunk is caught,
//!   retried with capped backoff, and — if it keeps failing — *skipped*,
//!   degrading the campaign to a partial result with honestly widened
//!   confidence intervals instead of losing everything.
//! * **Watchdogs** — architectural runs execute under a cycle budget
//!   (default: 8× the golden run plus slack) and an optional wall-clock
//!   budget, so a fault that wedges the simulated machine classifies as
//!   [`TrialOutcome::Hang`] instead of wedging the campaign.
//! * **Crash-safe checkpointing** — with a [`Journal`] attached, every
//!   finished chunk is durably recorded; resuming replays finished
//!   chunks from disk and produces **bit-identical** results to an
//!   uninterrupted campaign, at any worker count.

use crate::campaign::{CampaignResult, Protection, DEFAULT_CHUNK_TRIALS, DEFAULT_SAMPLER_CAPACITY};
use crate::injector::{random_bit, ExecutionSampler, SampledIssue};
use crate::journal::{ChunkCounts, ChunkRecord, Journal, JournalError, JournalHeader};
use crate::model::{CheckerFault, CompoundFault, FaultModel};
use crate::outcome::TrialOutcome;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use warped_baselines::Dmtr;
use warped_core::mapping::physical_lane;
use warped_core::{DmrConfig, FaultOracle, Judges, LaneSite, WarpedDmr};
use warped_kernels::{ProgramRun, Workload};
use warped_runner::{Attempted, RetryPolicy, Runner};
use warped_sim::{GpuConfig, IssueObserver, LaneFault, SimError, WARP_SIZE};
use warped_trace::{TraceEvent, TraceHandle};

/// Which hardware site a campaign injects into. The first two target
/// the datapath (execution units); the rest target the detection
/// hardware itself — each paired with a datapath transient on the same
/// SM, measuring how much coverage survives a broken checker (the
/// paper's §3.2 "who checks the checker" question).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSiteClass {
    /// Single-event transient on an execution-unit output bit.
    LaneTransient,
    /// Permanent stuck-at defect on an execution-unit output bit.
    LaneStuckAt,
    /// Comparator verdict stuck at "equal" + a lane transient: the
    /// fail-silent checker case.
    ComparatorVerdict,
    /// RFU operand-mux select broken in the struck cluster + a lane
    /// transient: a fail-loud checker.
    RfuMuxSelect,
    /// ReplayQ entry active-mask bit dead for the struck lane + a lane
    /// transient: inter-warp verification silently skips the lane.
    ReplayqMeta,
    /// Weak cell in the unverified-result RF slot + a lane transient:
    /// stored originals read back corrupted.
    RfSlot,
}

impl FaultSiteClass {
    /// All classes, in declaration order.
    pub const ALL: [FaultSiteClass; 6] = [
        FaultSiteClass::LaneTransient,
        FaultSiteClass::LaneStuckAt,
        FaultSiteClass::ComparatorVerdict,
        FaultSiteClass::RfuMuxSelect,
        FaultSiteClass::ReplayqMeta,
        FaultSiteClass::RfSlot,
    ];

    /// Wire name (CLI `--site`, journal header, trace events).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSiteClass::LaneTransient => "lane_transient",
            FaultSiteClass::LaneStuckAt => "lane_stuck",
            FaultSiteClass::ComparatorVerdict => "comparator",
            FaultSiteClass::RfuMuxSelect => "rfu_mux",
            FaultSiteClass::ReplayqMeta => "replayq_meta",
            FaultSiteClass::RfSlot => "rf_slot",
        }
    }

    /// Parse a wire name back.
    pub fn from_wire(s: &str) -> Option<FaultSiteClass> {
        FaultSiteClass::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// Whether this class injects into the checker hardware (and pairs
    /// the checker fault with a same-SM datapath transient).
    pub fn is_checker_site(self) -> bool {
        !matches!(
            self,
            FaultSiteClass::LaneTransient | FaultSiteClass::LaneStuckAt
        )
    }
}

impl std::fmt::Display for FaultSiteClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Test hook: force chunk `chunk` to panic on its first `attempts`
/// attempts, exercising the retry/degradation machinery on demand.
/// The panic is raised *before* any simulation runs, so a chunk that
/// eventually succeeds produces exactly the counts it would have
/// produced without the forced panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForcedPanic {
    /// The chunk to poison.
    pub chunk: u32,
    /// How many leading attempts panic. With `attempts` ≤ the retry
    /// budget the chunk recovers; above it, the chunk is skipped.
    pub attempts: u32,
}

/// Tuning knobs of a resilient campaign.
#[derive(Clone)]
pub struct ResilientOptions {
    /// Reservoir capacity of the profiling sampler.
    pub sampler_capacity: usize,
    /// Trials per chunk (part of the seeding contract: chunk `c` seeds
    /// `seed ^ c`, so this changes which faults a seed draws).
    pub chunk_trials: u32,
    /// Worker threads. Never affects results.
    pub threads: usize,
    /// Retry budget and backoff for panicking chunks.
    pub retry: RetryPolicy,
    /// Cycle budget per architectural run; `0` = auto (8× the golden
    /// run's total cycles, plus 10 000 slack). Unused by
    /// [`detection_campaign`], whose runs cannot hang.
    pub cycle_budget: u64,
    /// Wall-clock budget per architectural run in milliseconds; `0`
    /// disables it. See `GpuConfig::wall_budget_ms` for the
    /// determinism caveat (the *hang cycle* becomes timing-dependent;
    /// the hang classification itself remains correct).
    pub wall_budget_ms: u64,
    /// Journal path for crash-safe checkpointing (`--checkpoint`).
    pub checkpoint: Option<PathBuf>,
    /// Replay finished chunks from the journal instead of truncating
    /// it (`--resume`).
    pub resume: bool,
    /// Test hook: poison one chunk's leading attempts.
    pub forced_panic: Option<ForcedPanic>,
    /// Trace handle for `FaultInjected` / `TrialOutcome` events.
    pub trace: TraceHandle,
}

impl Default for ResilientOptions {
    fn default() -> Self {
        ResilientOptions {
            sampler_capacity: DEFAULT_SAMPLER_CAPACITY,
            chunk_trials: DEFAULT_CHUNK_TRIALS,
            threads: warped_runner::default_threads(),
            retry: RetryPolicy::default(),
            cycle_budget: 0,
            wall_budget_ms: 0,
            checkpoint: None,
            resume: false,
            forced_panic: None,
            trace: TraceHandle::disabled(),
        }
    }
}

impl std::fmt::Debug for ResilientOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientOptions")
            .field("sampler_capacity", &self.sampler_capacity)
            .field("chunk_trials", &self.chunk_trials)
            .field("threads", &self.threads)
            .field("retry", &self.retry)
            .field("cycle_budget", &self.cycle_budget)
            .field("wall_budget_ms", &self.wall_budget_ms)
            .field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume)
            .field("forced_panic", &self.forced_panic)
            .field("trace", &self.trace.enabled())
            .finish()
    }
}

impl ResilientOptions {
    /// A copy with the given worker count (zero clamps to one).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Why a campaign could not produce a result at all (partial results
/// from skipped chunks are *not* errors of the campaign itself — they
/// surface as `skipped > 0` in the report, and
/// [`ResilientReport::complete`] turns them into
/// [`CampaignError::Incomplete`] for callers that need every trial).
#[derive(Debug)]
pub enum CampaignError {
    /// The golden/profiling run failed — nothing can be classified
    /// against a broken baseline.
    Golden(SimError),
    /// The checkpoint journal could not be created, read, or appended.
    Journal(JournalError),
    /// A checker-site class was asked of DMTR, which has no RFU,
    /// ReplayQ or unverified-result slot to break.
    NoCheckerUnderDmtr(FaultSiteClass),
    /// Chunks were skipped after exhausting their retry budget.
    Incomplete {
        /// Benchmark name.
        bench: String,
        /// The injected fault-site class.
        class: FaultSiteClass,
        /// The skipped chunk indices.
        failed_chunks: Vec<u32>,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Golden(e) => write!(f, "golden run failed: {e}"),
            CampaignError::Journal(e) => write!(f, "checkpoint journal: {e}"),
            CampaignError::NoCheckerUnderDmtr(class) => write!(
                f,
                "fault site {class} is Warped-DMR checker hardware, which DMTR does not have"
            ),
            CampaignError::Incomplete {
                bench,
                class,
                failed_chunks,
            } => write!(
                f,
                "{bench} {class}: chunk(s) {failed_chunks:?} skipped after exhausting retries"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

/// The result of a resilient campaign: taxonomy counts plus the
/// orchestration facts needed to judge (and reproduce) the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientReport {
    /// Benchmark name (paper spelling).
    pub bench: String,
    /// The injected fault-site class.
    pub class: FaultSiteClass,
    /// Campaign seed.
    pub seed: u64,
    /// Trials per chunk.
    pub chunk_trials: u32,
    /// Total chunks the campaign planned.
    pub chunks: u32,
    /// Classified trial counts (with `planned`/`skipped` filled in).
    pub result: CampaignResult,
    /// Indices of chunks skipped after exhausting their retry budget.
    pub failed_chunks: Vec<u32>,
    /// Extra attempts spent on panicking chunks this run. Not part of
    /// [`ResilientReport::to_json`]: it depends on where a previous run
    /// was interrupted, and the JSON must be bit-identical between an
    /// uninterrupted campaign and a resumed one.
    pub retries_used: u32,
    /// Chunks replayed from the journal this run (not in the JSON,
    /// same reason).
    pub resumed_chunks: u32,
}

impl ResilientReport {
    /// This report if every planned trial completed, otherwise
    /// [`CampaignError::Incomplete`] naming the skipped chunks.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Incomplete`] when `failed_chunks` is non-empty.
    pub fn complete(self) -> Result<Self, CampaignError> {
        if self.failed_chunks.is_empty() {
            Ok(self)
        } else {
            Err(CampaignError::Incomplete {
                bench: self.bench,
                class: self.class,
                failed_chunks: self.failed_chunks,
            })
        }
    }

    /// Canonical JSON rendering. Deterministic: depends only on the
    /// campaign definition (bench, class, geometry, seed) and the
    /// classified counts — never on thread count, scheduling, or how
    /// many interruptions/resumes it took to finish.
    pub fn to_json(&self) -> String {
        let r = &self.result;
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "{{\"bench\":\"{}\",\"class\":\"{}\",\"seed\":{},\"chunk_trials\":{},\"chunks\":{},\
             \"planned\":{},\"completed\":{},\"skipped\":{}",
            self.bench,
            self.class.as_str(),
            self.seed,
            self.chunk_trials,
            self.chunks,
            r.planned,
            r.trials,
            r.skipped,
        ));
        for class in TrialOutcome::ALL {
            let (lo, hi) = r.interval_pct(class);
            s.push_str(&format!(
                ",\"{}\":{{\"count\":{},\"pct\":{:.4},\"ci_lo_pct\":{:.4},\"ci_hi_pct\":{:.4}}}",
                class.as_str(),
                r.count(class),
                r.rate_pct(class),
                lo,
                hi,
            ));
        }
        s.push_str(",\"failed_chunks\":[");
        for (i, c) in self.failed_chunks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&c.to_string());
        }
        s.push_str("]}");
        s
    }
}

/// One drawn trial: the engine-level oracle, the sim-level datapath
/// fault, and the metadata the trace events report.
#[derive(Debug, Clone, Copy)]
struct DrawnFault {
    /// What the DMR engine models (datapath + checker halves).
    detect: CompoundFault,
    /// What the simulator's datapath actually suffers.
    arch: FaultModel,
    /// Afflicted SM.
    sm: usize,
    /// Physical lane of the datapath fault (`u32::MAX` in events for
    /// checker classes, where the checker is the site of interest).
    physical: usize,
    /// Strike cycle (0 for permanent faults).
    strike: u64,
}

/// Draw one fault. The draw order — sample, thread, bit, then
/// class-specific extras — is part of the seeding contract the
/// determinism tests pin down.
fn draw_fault(
    class: FaultSiteClass,
    samples: &[SampledIssue],
    dmr: &DmrConfig,
    protection: Protection,
    rng: &mut StdRng,
) -> DrawnFault {
    let ev = samples[rng.random_range(0..samples.len())];
    let thread = ev.random_active_thread(rng);
    let bit = random_bit(rng);
    // DMTR has no thread→core mapping: a thread runs on its own lane.
    let physical = match protection {
        Protection::WarpedDmr => physical_lane(dmr.mapping, thread, WARP_SIZE, dmr.cluster_size),
        Protection::Dmtr => thread,
    };
    // The engine models the original execution on the mapped physical
    // lane; the simulator computes thread results by logical index.
    let detect_site = LaneSite {
        sm: ev.sm,
        lane: physical,
    };
    let arch_site = LaneSite {
        sm: ev.sm,
        lane: thread,
    };
    let transient = |site| FaultModel::TransientFlip {
        site,
        cycle: ev.cycle,
        bit,
    };
    let (detect, arch, strike) = match class {
        FaultSiteClass::LaneTransient => (
            CompoundFault::lane_only(transient(detect_site)),
            transient(arch_site),
            ev.cycle,
        ),
        FaultSiteClass::LaneStuckAt => {
            let value = rng.random_bool(0.5);
            (
                CompoundFault::lane_only(FaultModel::StuckAt {
                    site: detect_site,
                    bit,
                    value,
                }),
                FaultModel::StuckAt {
                    site: arch_site,
                    bit,
                    value,
                },
                0,
            )
        }
        FaultSiteClass::ComparatorVerdict => (
            CompoundFault::with_checker(
                transient(detect_site),
                CheckerFault::ComparatorStuckPass { sm: ev.sm },
            ),
            transient(arch_site),
            ev.cycle,
        ),
        FaultSiteClass::RfuMuxSelect => (
            CompoundFault::with_checker(
                transient(detect_site),
                CheckerFault::RfuMuxSelect {
                    sm: ev.sm,
                    cluster: physical / dmr.cluster_size.max(1),
                    cluster_size: dmr.cluster_size.max(1),
                },
            ),
            transient(arch_site),
            ev.cycle,
        ),
        FaultSiteClass::ReplayqMeta => (
            CompoundFault::with_checker(
                transient(detect_site),
                CheckerFault::ReplayqMaskDrop {
                    sm: ev.sm,
                    bit: thread as u8,
                },
            ),
            transient(arch_site),
            ev.cycle,
        ),
        FaultSiteClass::RfSlot => {
            let stored_bit = random_bit(rng);
            (
                CompoundFault::with_checker(
                    transient(detect_site),
                    CheckerFault::StoredResultFlip {
                        sm: ev.sm,
                        bit: stored_bit,
                    },
                ),
                transient(arch_site),
                ev.cycle,
            )
        }
    };
    DrawnFault {
        detect,
        arch,
        sm: ev.sm,
        physical,
        strike,
    }
}

/// The sim-level datapath fault of one trial: [`FaultModel::transform`]
/// applied at every unit-output point, with the site's lane read as the
/// *logical* lane index the simulator computes with.
#[derive(Debug, Clone, Copy)]
struct ArchFault(FaultModel);

impl LaneFault for ArchFault {
    fn corrupt(&self, sm: usize, lane: usize, cycle: u64, value: u32) -> u32 {
        self.0.transform(LaneSite { sm, lane }, cycle, value)
    }
}

/// What each trial of the shared campaign loop simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Projection {
    /// Detection run plus architectural run, classified against golden
    /// ([`resilient_campaign`]).
    Taxonomy,
    /// Detection run only, under the given engine
    /// ([`detection_campaign`]).
    Detection(Protection),
}

impl Projection {
    fn protection(self) -> Protection {
        match self {
            Projection::Taxonomy => Protection::WarpedDmr,
            Projection::Detection(p) => p,
        }
    }

    /// The class name a checkpoint journal pins: taxonomy journals keep
    /// the bare wire name, detection journals are marked so neither
    /// projection can resume the other's counts.
    fn journal_class(self, class: FaultSiteClass) -> String {
        match self {
            Projection::Taxonomy => class.as_str().to_string(),
            Projection::Detection(Protection::WarpedDmr) => format!("{class}+detect"),
            Projection::Detection(Protection::Dmtr) => format!("{class}+dmtr_detect"),
        }
    }
}

/// Profile the workload under the protection engine (for
/// schedule-aligned sample cycles) and capture the golden architectural
/// output.
fn golden_profile(
    workload: &Workload,
    gpu: &GpuConfig,
    dmr: &DmrConfig,
    protection: Protection,
    seed: u64,
    capacity: usize,
) -> Result<(ProgramRun, ExecutionSampler), SimError> {
    let mut sampler = ExecutionSampler::new(capacity, seed);
    let mut engine: Box<dyn IssueObserver> = match protection {
        Protection::WarpedDmr => Box::new(WarpedDmr::new(dmr.clone(), gpu)),
        Protection::Dmtr => Box::new(Dmtr::new()),
    };
    let mut multi = warped_sim::MultiObserver::new();
    multi.push(engine.as_mut()).push(&mut sampler);
    let run = workload.run_with(gpu, &mut multi)?;
    Ok((run, sampler))
}

/// The detection run of one chunk: the workload once, fault-free, with
/// every drawn fault's oracle judged side by side. Whether each trial's
/// comparator fired, in draw order.
///
/// An oracle changes verdicts and never the schedule, so this run is
/// the golden profile run again, and each judge sees exactly the
/// comparisons a run carrying only its oracle would.
fn detection_run(
    workload: &Workload,
    gpu: &GpuConfig,
    dmr: &DmrConfig,
    protection: Protection,
    faults: &[DrawnFault],
) -> Result<Vec<bool>, SimError> {
    let judges = Judges::first_only(
        faults
            .iter()
            .map(|f| Box::new(f.detect) as Box<dyn FaultOracle>),
    );
    Ok(match protection {
        Protection::WarpedDmr => {
            let mut engine = WarpedDmr::with_judges(dmr.clone(), gpu, judges);
            workload.run_with(gpu, &mut engine)?;
            engine.judges().fired()
        }
        Protection::Dmtr => {
            let mut engine = Dmtr::with_judges(judges);
            workload.run_with(gpu, &mut engine)?;
            engine.judges().fired()
        }
    })
}

/// Classify one trial of `projection` whose detection verdict is
/// `detected`; `None` is an undetected trial of a detection campaign,
/// which no run classifies further.
///
/// Detection wins: a trial where the checker fired is `Detected` even
/// if the corrupted run would have hung or produced wrong output — a
/// real deployment triggers recovery at the detection point — so only
/// an undetected taxonomy trial runs its architectural simulation.
fn run_trial(
    workload: &Workload,
    budgeted_gpu: &GpuConfig,
    dmr: &DmrConfig,
    projection: Projection,
    fault: &DrawnFault,
    detected: bool,
    golden: &ProgramRun,
) -> Option<TrialOutcome> {
    if detected {
        return Some(TrialOutcome::Detected);
    }
    if let Projection::Detection(_) = projection {
        return None;
    }

    // Architectural run: real corruption, budgets armed. The DMR engine
    // rides along (without an oracle) purely so the issue schedule
    // matches the profile run's cycle numbering.
    let mut observer = WarpedDmr::new(dmr.clone(), budgeted_gpu);
    let arch = workload.run_faulted(budgeted_gpu, &mut observer, Arc::new(ArchFault(fault.arch)));
    Some(match arch {
        Err(SimError::Hang { .. }) => TrialOutcome::Hang,
        // Any other trap (deadlock, bad access from a corrupted
        // address…) is an observable failure: a detected,
        // unrecoverable error rather than silent corruption.
        Err(_) => TrialOutcome::Detected,
        Ok(run) if run.output != golden.output => TrialOutcome::Sdc,
        Ok(_) => TrialOutcome::Masked,
    })
}

/// Run a resilient campaign: `trials` classified injections of `class`
/// into `workload` protected by Warped-DMR under `dmr`: one detection
/// simulation per chunk, plus one architectural simulation per trial
/// the checker did not catch (see the [module docs](self)).
///
/// Chunk `c` draws its trials from `StdRng::seed_from_u64(seed ^ c)`
/// and results are folded in chunk order, so the outcome is
/// bit-identical at any `opts.threads` — and, via the checkpoint
/// journal, across any interrupt/resume pattern.
///
/// # Errors
///
/// [`CampaignError::Golden`] if the fault-free profiling run fails and
/// [`CampaignError::Journal`] on checkpoint I/O or identity errors.
/// Chunks that exhaust their retry budget are *not* errors: they
/// surface as `skipped` trials and widened intervals in the report.
///
/// # Panics
///
/// Never panics itself; panics *inside* trial chunks (including the
/// [`ForcedPanic`] test hook) are caught and converted to retries.
pub fn resilient_campaign(
    workload: &Workload,
    gpu: &GpuConfig,
    dmr: &DmrConfig,
    class: FaultSiteClass,
    trials: u32,
    seed: u64,
    opts: &ResilientOptions,
) -> Result<ResilientReport, CampaignError> {
    run_campaign(
        workload,
        gpu,
        dmr,
        Projection::Taxonomy,
        class,
        trials,
        seed,
        opts,
    )
}

/// Run a detection-only campaign: `trials` injections of `class` into
/// `workload` under `protection`, one simulation per chunk of trials,
/// counting the trials whose comparator fired (`result.detected`; the
/// undetected rest stay unclassified, so `masked`, `sdc` and `hangs`
/// read zero).
///
/// Under [`Protection::Dmtr`] the profile runs under DMTR and a fault
/// strikes the lane of its own thread (DMTR has no thread→core
/// mapping). Seeding, draws, retries and checkpointing are those of
/// [`resilient_campaign`]; the cycle and wall budgets are unused.
///
/// # Errors
///
/// [`CampaignError::NoCheckerUnderDmtr`] for a checker-site class under
/// DMTR, otherwise as [`resilient_campaign`].
#[allow(clippy::too_many_arguments)]
pub fn detection_campaign(
    workload: &Workload,
    gpu: &GpuConfig,
    dmr: &DmrConfig,
    protection: Protection,
    class: FaultSiteClass,
    trials: u32,
    seed: u64,
    opts: &ResilientOptions,
) -> Result<ResilientReport, CampaignError> {
    if protection == Protection::Dmtr && class.is_checker_site() {
        return Err(CampaignError::NoCheckerUnderDmtr(class));
    }
    run_campaign(
        workload,
        gpu,
        dmr,
        Projection::Detection(protection),
        class,
        trials,
        seed,
        opts,
    )
}

/// The one campaign loop behind both projections: golden profile,
/// `seed ^ c` chunk seeding, draws, one detection run per chunk,
/// retries, journal and fold.
#[allow(clippy::too_many_arguments)]
fn run_campaign(
    workload: &Workload,
    gpu: &GpuConfig,
    dmr: &DmrConfig,
    projection: Projection,
    class: FaultSiteClass,
    trials: u32,
    seed: u64,
    opts: &ResilientOptions,
) -> Result<ResilientReport, CampaignError> {
    let protection = projection.protection();
    let chunk = opts.chunk_trials.max(1);
    let (golden, sampler) = golden_profile(
        workload,
        gpu,
        dmr,
        protection,
        seed,
        opts.sampler_capacity.max(1),
    )
    .map_err(CampaignError::Golden)?;
    let samples = sampler.samples();
    let chunks = if samples.is_empty() {
        0
    } else {
        trials.div_ceil(chunk)
    };
    let report = |result, failed_chunks, retries_used, resumed_chunks| ResilientReport {
        bench: workload.name().to_string(),
        class,
        seed,
        chunk_trials: chunk,
        chunks,
        result,
        failed_chunks,
        retries_used,
        resumed_chunks,
    };
    if chunks == 0 {
        let result = CampaignResult {
            planned: trials,
            ..Default::default()
        };
        return Ok(report(result, Vec::new(), 0, 0));
    }

    let header = JournalHeader {
        bench: workload.name().to_string(),
        class: projection.journal_class(class),
        trials,
        chunk_trials: chunk,
        seed,
        sampler: opts.sampler_capacity as u64,
    };
    let (journal, done) = match &opts.checkpoint {
        Some(path) if opts.resume => {
            let (j, done) = Journal::resume(path, &header)?;
            (Some(j), done)
        }
        Some(path) => (Some(Journal::create(path, &header)?), BTreeMap::new()),
        None => (None, BTreeMap::new()),
    };

    let budget = if opts.cycle_budget != 0 {
        opts.cycle_budget
    } else {
        golden.stats.cycles.saturating_mul(8).saturating_add(10_000)
    };
    let budgeted_gpu = gpu
        .clone()
        .with_cycle_budget(budget)
        .with_wall_budget_ms(opts.wall_budget_ms);

    let journal = journal.map(Mutex::new);
    let cached = &done;
    let attempted = Runner::new(opts.threads).map_retry(
        0..chunks,
        opts.retry,
        |c, attempt| -> (ChunkCounts, bool) {
            if let Some(ChunkRecord::Done { counts, .. }) = cached.get(&c) {
                return (*counts, true);
            }
            if let Some(fp) = opts.forced_panic {
                if fp.chunk == c && attempt < fp.attempts {
                    panic!("forced campaign panic: chunk {c}, attempt {attempt}");
                }
            }
            // Re-seeded identically on every attempt, so a chunk that
            // panicked and recovered draws exactly the same faults. The
            // draws are the rng's only consumer, so drawing the whole
            // chunk up front draws what drawing trial by trial would.
            let mut rng = StdRng::seed_from_u64(seed ^ u64::from(c));
            let lo = c * chunk;
            let faults: Vec<DrawnFault> = (0..chunk.min(trials - lo))
                .map(|_| draw_fault(class, samples, dmr, protection, &mut rng))
                .collect();
            // The run is the golden run again, so a SimError here is a
            // genuine bug: it panics into the chunk's retry.
            let detected = detection_run(workload, gpu, dmr, protection, &faults)
                .unwrap_or_else(|e| panic!("chunk {c} detection run failed: {e}"));
            let mut counts = ChunkCounts::default();
            for (trial, (fault, detected)) in (lo..).zip(faults.iter().zip(detected)) {
                opts.trace.emit(|| TraceEvent::FaultInjected {
                    sm: fault.sm as u32,
                    trial,
                    kind: class.as_str().to_string(),
                    lane: if class.is_checker_site() {
                        u32::MAX
                    } else {
                        fault.physical as u32
                    },
                    cycle: fault.strike,
                });
                let outcome = run_trial(
                    workload,
                    &budgeted_gpu,
                    dmr,
                    projection,
                    fault,
                    detected,
                    &golden,
                );
                opts.trace.emit(|| TraceEvent::TrialOutcome {
                    trial,
                    outcome: outcome
                        .map_or("undetected", TrialOutcome::as_str)
                        .to_string(),
                });
                if let Some(outcome) = outcome {
                    counts.record(outcome);
                }
            }
            if let Some(j) = &journal {
                j.lock()
                    .expect("journal mutex poisoned")
                    .append(&ChunkRecord::Done {
                        index: c,
                        attempts: attempt + 1,
                        counts,
                    })
                    .unwrap_or_else(|e| panic!("checkpoint append failed: {e}"));
            }
            (counts, false)
        },
    );

    let mut journal = journal.map(|m| m.into_inner().expect("journal mutex poisoned"));
    let mut total = ChunkCounts::default();
    let mut failed_chunks = Vec::new();
    let mut retries_used = 0;
    let mut resumed_chunks = 0;
    let mut skipped = 0;
    for (i, a) in attempted.into_iter().enumerate() {
        let c = i as u32;
        match a {
            Attempted::Done {
                value: (counts, from_cache),
                attempts,
            } => {
                retries_used += attempts - 1;
                if from_cache {
                    resumed_chunks += 1;
                }
                total.absorb(&counts);
            }
            Attempted::Failed { attempts, .. } => {
                retries_used += attempts - 1;
                failed_chunks.push(c);
                skipped += chunk.min(trials - c * chunk);
                if let Some(j) = &mut journal {
                    j.append(&ChunkRecord::Failed { index: c, attempts })?;
                }
            }
        }
    }

    // Every chunk that was not skipped completed all of its trials,
    // classified or (in a detection campaign) not.
    let result = CampaignResult {
        trials: trials - skipped,
        detected: total.detected,
        masked: total.masked,
        sdc: total.sdc,
        hangs: total.hang,
        planned: trials,
        skipped,
    };
    Ok(report(result, failed_chunks, retries_used, resumed_chunks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_core::{DetectedError, ErrorLog};
    use warped_kernels::{Benchmark, WorkloadSize};

    fn tiny_opts() -> ResilientOptions {
        ResilientOptions {
            sampler_capacity: 256,
            chunk_trials: 2,
            threads: 2,
            retry: RetryPolicy {
                retries: 2,
                backoff_ms: 0,
                backoff_cap_ms: 0,
            },
            ..Default::default()
        }
    }

    /// The first detection of every judge of one batched run, in order.
    fn batched_first_detections(
        w: &Workload,
        gpu: &GpuConfig,
        dmr: &DmrConfig,
        protection: Protection,
        faults: &[DrawnFault],
    ) -> Vec<Option<DetectedError>> {
        let judges = Judges::first_only(
            faults
                .iter()
                .map(|f| Box::new(f.detect) as Box<dyn FaultOracle>),
        );
        let firsts = |judges: &Judges| -> Vec<Option<DetectedError>> {
            judges
                .iter()
                .map(|j| j.log().events().first().copied())
                .collect()
        };
        match protection {
            Protection::WarpedDmr => {
                let mut engine = WarpedDmr::with_judges(dmr.clone(), gpu, judges);
                w.run_with(gpu, &mut engine).unwrap();
                firsts(engine.judges())
            }
            Protection::Dmtr => {
                let mut engine = Dmtr::with_judges(judges);
                w.run_with(gpu, &mut engine).unwrap();
                firsts(engine.judges())
            }
        }
    }

    /// The full detection log of a run carrying only `fault`.
    fn single_oracle_log(
        w: &Workload,
        gpu: &GpuConfig,
        dmr: &DmrConfig,
        protection: Protection,
        fault: CompoundFault,
    ) -> ErrorLog {
        match protection {
            Protection::WarpedDmr => {
                let mut engine = WarpedDmr::with_oracle(dmr.clone(), gpu, Box::new(fault));
                w.run_with(gpu, &mut engine).unwrap();
                engine.errors().clone()
            }
            Protection::Dmtr => {
                let mut engine = Dmtr::with_oracle(Box::new(fault));
                w.run_with(gpu, &mut engine).unwrap();
                engine.errors().clone()
            }
        }
    }

    #[test]
    fn batched_detection_equals_per_trial_single_oracle_runs() {
        let gpu = GpuConfig::small();
        let dmr = DmrConfig::default();
        // The campaign benchmarks (`faults_exp::CAMPAIGN_BENCHMARKS`).
        for bench in [Benchmark::Bfs, Benchmark::MatrixMul, Benchmark::Scan] {
            let w = bench.build(WorkloadSize::Tiny).unwrap();
            for protection in [Protection::WarpedDmr, Protection::Dmtr] {
                let (_, sampler) = golden_profile(&w, &gpu, &dmr, protection, 3, 256).unwrap();
                for class in FaultSiteClass::ALL {
                    if protection == Protection::Dmtr && class.is_checker_site() {
                        continue;
                    }
                    let mut rng = StdRng::seed_from_u64(0xd1ff ^ bench as u64);
                    let faults: Vec<DrawnFault> = (0..DEFAULT_CHUNK_TRIALS)
                        .map(|_| draw_fault(class, sampler.samples(), &dmr, protection, &mut rng))
                        .collect();
                    let fired = detection_run(&w, &gpu, &dmr, protection, &faults).unwrap();
                    let firsts = batched_first_detections(&w, &gpu, &dmr, protection, &faults);
                    for (i, fault) in faults.iter().enumerate() {
                        let log = single_oracle_log(&w, &gpu, &dmr, protection, fault.detect);
                        let what = format!("{bench} {protection:?} {class} trial {i}");
                        assert_eq!(fired[i], log.any(), "{what}: verdict");
                        assert_eq!(firsts[i], log.events().first().copied(), "{what}: first");
                    }
                }
            }
        }
    }

    #[test]
    fn fully_covered_workload_detects_every_lane_transient() {
        let gpu = GpuConfig::small();
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        let r = resilient_campaign(
            &w,
            &gpu,
            &DmrConfig::default(),
            FaultSiteClass::LaneTransient,
            6,
            11,
            &tiny_opts(),
        )
        .unwrap();
        assert_eq!(r.result.trials, 6);
        assert_eq!(r.result.planned, 6);
        assert_eq!(r.result.detected, 6, "MatrixMul is 100% inter-covered");
        assert_eq!(r.result.skipped, 0);
        assert!(r.failed_chunks.is_empty());
        let (lo, hi) = r.result.interval_pct(TrialOutcome::Detected);
        assert!(lo > 50.0 && hi == 100.0);
    }

    #[test]
    fn dead_comparator_turns_detections_into_sdc() {
        let gpu = GpuConfig::small();
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        let dmr = DmrConfig::default();
        let opts = tiny_opts();
        let healthy =
            resilient_campaign(&w, &gpu, &dmr, FaultSiteClass::LaneTransient, 6, 7, &opts).unwrap();
        let broken = resilient_campaign(
            &w,
            &gpu,
            &dmr,
            FaultSiteClass::ComparatorVerdict,
            6,
            7,
            &opts,
        )
        .unwrap();
        assert_eq!(healthy.result.detected, 6);
        // With the comparator dead, the only detections left are
        // machine traps (corrupted addresses etc.) — comparator-driven
        // coverage is gone and silent corruption appears.
        assert!(
            broken.result.detected < healthy.result.detected,
            "a dead comparator must lose comparator-driven detections: {:?}",
            broken.result
        );
        assert!(
            broken.result.sdc > 0,
            "swallowed detections surface as silent corruption: {:?}",
            broken.result
        );
        assert_eq!(
            broken.result.detected + broken.result.sdc + broken.result.masked + broken.result.hangs,
            6,
            "every trial still classifies"
        );
    }

    #[test]
    fn tiny_cycle_budget_classifies_undetected_trials_as_hang() {
        let gpu = GpuConfig::small();
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        // A 1-cycle budget makes every architectural run "hang", and a
        // dead comparator guarantees detection never preempts it.
        let opts = ResilientOptions {
            cycle_budget: 1,
            ..tiny_opts()
        };
        let r = resilient_campaign(
            &w,
            &gpu,
            &DmrConfig::default(),
            FaultSiteClass::ComparatorVerdict,
            4,
            3,
            &opts,
        )
        .unwrap();
        assert_eq!(r.result.hangs, 4, "{:?}", r.result);
    }

    #[test]
    fn forced_panic_within_budget_is_transparent() {
        let gpu = GpuConfig::small();
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let base = resilient_campaign(
            &w,
            &gpu,
            &DmrConfig::default(),
            FaultSiteClass::LaneTransient,
            8,
            5,
            &tiny_opts(),
        )
        .unwrap();
        let hurt_opts = ResilientOptions {
            forced_panic: Some(ForcedPanic {
                chunk: 1,
                attempts: 2,
            }),
            ..tiny_opts()
        };
        let hurt = resilient_campaign(
            &w,
            &gpu,
            &DmrConfig::default(),
            FaultSiteClass::LaneTransient,
            8,
            5,
            &hurt_opts,
        )
        .unwrap();
        assert_eq!(hurt.result, base.result, "retries must not change results");
        assert_eq!(hurt.to_json(), base.to_json());
        assert_eq!(hurt.retries_used, 2);
        assert_eq!(base.retries_used, 0);
    }

    #[test]
    fn exhausted_retries_degrade_to_a_partial_result() {
        let gpu = GpuConfig::small();
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let opts = ResilientOptions {
            forced_panic: Some(ForcedPanic {
                chunk: 0,
                attempts: 100,
            }),
            ..tiny_opts()
        };
        let r = resilient_campaign(
            &w,
            &gpu,
            &DmrConfig::default(),
            FaultSiteClass::LaneTransient,
            8,
            5,
            &opts,
        )
        .unwrap();
        assert_eq!(r.failed_chunks, vec![0]);
        assert_eq!(r.result.skipped, 2);
        assert_eq!(r.result.trials, 6);
        assert_eq!(r.result.planned, 8);
        // The degraded interval must be wider than the clean one.
        let clean = resilient_campaign(
            &w,
            &gpu,
            &DmrConfig::default(),
            FaultSiteClass::LaneTransient,
            8,
            5,
            &tiny_opts(),
        )
        .unwrap();
        let (dlo, dhi) = r.result.interval_pct(TrialOutcome::Detected);
        let (clo, chi) = clean.result.interval_pct(TrialOutcome::Detected);
        assert!(
            dhi - dlo > chi - clo,
            "skipping must widen: [{dlo:.1},{dhi:.1}] vs [{clo:.1},{chi:.1}]"
        );
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let gpu = GpuConfig::small();
        let w = Benchmark::Fft.build(WorkloadSize::Tiny).unwrap();
        let mut reports = Vec::new();
        for threads in [1, 2, 4] {
            let opts = tiny_opts().with_threads(threads);
            reports.push(
                resilient_campaign(
                    &w,
                    &gpu,
                    &DmrConfig::default(),
                    FaultSiteClass::LaneTransient,
                    10,
                    42,
                    &opts,
                )
                .unwrap()
                .to_json(),
            );
        }
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[1], reports[2]);
    }

    #[test]
    fn trace_events_cover_every_trial() {
        let gpu = GpuConfig::small();
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let (store, handle) = TraceHandle::shared(warped_trace::CollectSink::new());
        let opts = ResilientOptions {
            trace: handle,
            threads: 1,
            ..tiny_opts()
        };
        let r = resilient_campaign(
            &w,
            &gpu,
            &DmrConfig::default(),
            FaultSiteClass::RfSlot,
            4,
            9,
            &opts,
        )
        .unwrap();
        assert_eq!(r.result.trials, 4);
        let events = store.lock().unwrap().events().to_vec();
        let faults: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::FaultInjected { .. }))
            .collect();
        let outcomes: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TrialOutcome { trial, outcome } => Some((*trial, outcome.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(faults.len(), 4);
        assert_eq!(outcomes.len(), 4);
        for f in &faults {
            if let TraceEvent::FaultInjected { kind, lane, .. } = f {
                assert_eq!(kind, "rf_slot");
                assert_eq!(*lane, u32::MAX, "checker sites have no lane");
            }
        }
        for o in TrialOutcome::ALL {
            let n = outcomes.iter().filter(|(_, s)| s == o.as_str()).count() as u32;
            assert_eq!(n, r.result.count(o), "trace tally matches report for {o}");
        }
    }

    #[test]
    fn wire_names_roundtrip() {
        for c in FaultSiteClass::ALL {
            assert_eq!(FaultSiteClass::from_wire(c.as_str()), Some(c));
            assert_eq!(format!("{c}"), c.as_str());
        }
        assert_eq!(FaultSiteClass::from_wire("cosmic_ray"), None);
        assert!(FaultSiteClass::ComparatorVerdict.is_checker_site());
        assert!(!FaultSiteClass::LaneTransient.is_checker_site());
    }

    #[test]
    fn zero_trials_is_an_empty_report() {
        let gpu = GpuConfig::small();
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let r = resilient_campaign(
            &w,
            &gpu,
            &DmrConfig::default(),
            FaultSiteClass::LaneTransient,
            0,
            1,
            &tiny_opts(),
        )
        .unwrap();
        assert_eq!(r.result.trials, 0);
        assert_eq!(r.chunks, 0);
    }

    fn detect(
        w: &Workload,
        dmr: &DmrConfig,
        protection: Protection,
        class: FaultSiteClass,
        trials: u32,
        seed: u64,
        opts: &ResilientOptions,
    ) -> ResilientReport {
        let gpu = GpuConfig::small();
        detection_campaign(w, &gpu, dmr, protection, class, trials, seed, opts).unwrap()
    }

    #[test]
    fn transients_on_fully_covered_workload_are_all_detected() {
        // MatrixMul is 100% covered by inter-warp DMR: every injected
        // transient must be caught.
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        let r = detect(
            &w,
            &DmrConfig::default(),
            Protection::WarpedDmr,
            FaultSiteClass::LaneTransient,
            6,
            11,
            &ResilientOptions::default(),
        )
        .result;
        assert_eq!(r.trials, 6);
        assert_eq!(
            r.detection_rate_pct(),
            100.0,
            "detected {}/{}",
            r.detected,
            r.trials
        );
    }

    #[test]
    fn stuck_at_hidden_by_dmtr_but_caught_by_warped_dmr() {
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        let dmr = DmrConfig::default();
        let opts = ResilientOptions::default();
        let stuck = FaultSiteClass::LaneStuckAt;
        let warped = detect(&w, &dmr, Protection::WarpedDmr, stuck, 4, 3, &opts).result;
        assert_eq!(
            warped.detection_rate_pct(),
            100.0,
            "lane shuffling must expose stuck-at faults ({}/{})",
            warped.detected,
            warped.trials
        );
        let dmtr = detect(&w, &dmr, Protection::Dmtr, stuck, 4, 3, &opts).result;
        assert_eq!(
            dmtr.detected, 0,
            "core affinity hides permanent faults on full warps"
        );
        assert_eq!(dmtr.trials, 4);
    }

    #[test]
    fn detection_rate_tracks_coverage_on_partially_covered_workload() {
        // CUFFT never fills its warps (blockDim 24), so only intra-warp
        // DMR applies. Cross mapping covers one of every three active
        // lanes of the 24-wide masks: detection must be partial.
        let w = Benchmark::Fft.build(WorkloadSize::Tiny).unwrap();
        let opts = ResilientOptions::default();
        let transient = FaultSiteClass::LaneTransient;
        let cfg = DmrConfig::default();
        let r = detect(&w, &cfg, Protection::WarpedDmr, transient, 12, 1234, &opts).result;
        assert!(r.detected > 0, "some transients detected");
        assert!(
            r.detected < r.trials,
            "partially covered FFT cannot catch everything ({}/{})",
            r.detected,
            r.trials
        );

        // And in-order mapping on contiguous masks catches ~nothing --
        // the motivation for the paper's cross mapping.
        let in_order = DmrConfig::baseline_in_order();
        let r2 = detect(
            &w,
            &in_order,
            Protection::WarpedDmr,
            transient,
            12,
            1234,
            &opts,
        )
        .result;
        assert!(
            r2.detected <= r.detected,
            "in-order {} should not beat cross {}",
            r2.detected,
            r.detected
        );
    }

    #[test]
    fn detection_campaign_skips_a_chunk_beyond_its_retry_budget() {
        let gpu = GpuConfig::small();
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let dmr = DmrConfig::default();
        let opts = ResilientOptions {
            forced_panic: Some(ForcedPanic {
                chunk: 1,
                attempts: 100,
            }),
            ..tiny_opts()
        };
        let class = FaultSiteClass::LaneTransient;
        let detection = detect(&w, &dmr, Protection::WarpedDmr, class, 8, 5, &opts);
        let taxonomy = resilient_campaign(&w, &gpu, &dmr, class, 8, 5, &opts).unwrap();
        for r in [&detection, &taxonomy] {
            assert_eq!(r.failed_chunks, vec![1]);
            assert_eq!(r.result.skipped, 2);
            assert_eq!(r.result.trials, 6);
            assert_eq!(r.result.planned, 8);
        }
        match detection.complete() {
            Err(CampaignError::Incomplete { failed_chunks, .. }) => {
                assert_eq!(failed_chunks, vec![1]);
            }
            other => panic!("a skipped chunk must make the report incomplete: {other:?}"),
        }
        assert!(
            detect(&w, &dmr, Protection::WarpedDmr, class, 8, 5, &tiny_opts())
                .complete()
                .is_ok()
        );
    }

    #[test]
    fn checker_sites_under_dmtr_are_a_typed_error() {
        let gpu = GpuConfig::small();
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        for class in FaultSiteClass::ALL {
            let r = detection_campaign(
                &w,
                &gpu,
                &DmrConfig::default(),
                Protection::Dmtr,
                class,
                2,
                1,
                &tiny_opts(),
            );
            match r {
                Err(CampaignError::NoCheckerUnderDmtr(c)) => {
                    assert!(class.is_checker_site());
                    assert_eq!(c, class);
                }
                Ok(_) => assert!(!class.is_checker_site(), "{class} must be refused"),
                Err(e) => panic!("{class}: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn projections_never_resume_each_others_journals() {
        let gpu = GpuConfig::small();
        let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
        let dmr = DmrConfig::default();
        let path = std::env::temp_dir().join(format!(
            "warped-projection-journal-{}.jsonl",
            std::process::id()
        ));
        let class = FaultSiteClass::LaneTransient;
        let write = ResilientOptions {
            checkpoint: Some(path.clone()),
            ..tiny_opts()
        };
        detect(&w, &dmr, Protection::WarpedDmr, class, 4, 2, &write);
        let resume = ResilientOptions {
            resume: true,
            ..write
        };
        let crossed = resilient_campaign(&w, &gpu, &dmr, class, 4, 2, &resume);
        assert!(
            matches!(crossed, Err(CampaignError::Journal(_))),
            "a taxonomy campaign must refuse a detection journal: {crossed:?}"
        );
        let again = detect(&w, &dmr, Protection::WarpedDmr, class, 4, 2, &resume);
        assert_eq!(again.resumed_chunks, 2);
        let _ = std::fs::remove_file(&path);
    }
}
