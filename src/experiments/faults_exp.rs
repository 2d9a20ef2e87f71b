//! Fault-injection validation: measured detection rates vs. the analytic
//! coverage of Fig. 9a, plus the §3.2 lane-shuffling demonstration.

use crate::experiments::{ExperimentConfig, ExperimentError};
use warped_core::{DmrConfig, WarpedDmr};
use warped_faults::{
    detection_campaign, resilient_campaign, FaultSiteClass, Protection, ResilientOptions,
    ResilientReport, TrialOutcome,
};
use warped_kernels::{Benchmark, Workload, WorkloadSize};
use warped_stats::Table;

/// One benchmark's row of the fault-validation experiment.
#[derive(Debug, Clone, Copy)]
pub struct FaultRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Analytic coverage (Fig. 9a metric) at this size.
    pub analytic_coverage_pct: f64,
    /// Measured transient detection rate under Warped-DMR.
    pub transient_detection_pct: f64,
    /// Measured stuck-at detection rate under Warped-DMR (shuffled).
    pub stuck_detection_pct: f64,
    /// Measured stuck-at detection rate under DMTR (core affinity).
    pub dmtr_stuck_detection_pct: f64,
}

/// Benchmarks exercised by the campaign (one intra-heavy, one
/// inter-heavy, one mixed — a full sweep would re-simulate hundreds of
/// runs).
pub const CAMPAIGN_BENCHMARKS: [Benchmark; 3] =
    [Benchmark::Bfs, Benchmark::MatrixMul, Benchmark::Scan];

/// Detected percentage of one detection-only campaign over all
/// `trials`. The campaign parallelizes its trial chunks internally, so
/// callers keep their benchmark loops serial (no nested
/// oversubscription).
///
/// # Errors
///
/// Propagates [`warped_faults::CampaignError`], including
/// `Incomplete` when a chunk was skipped: a rate over fewer trials
/// than asked for is never reported.
pub(crate) fn detection_pct(
    cfg: &ExperimentConfig,
    w: &Workload,
    dmr: &DmrConfig,
    protection: Protection,
    class: FaultSiteClass,
    trials: u32,
    seed: u64,
) -> Result<f64, ExperimentError> {
    let opts = ResilientOptions::default().with_threads(cfg.threads);
    let report = detection_campaign(w, &cfg.gpu, dmr, protection, class, trials, seed, &opts)?;
    Ok(report.complete()?.result.detection_rate_pct())
}

/// Run the campaigns. Injection always runs at `Tiny` size (each chunk
/// of trials is one full simulation); `trials` faults of each kind per
/// benchmark.
///
/// # Errors
///
/// Propagates workload, simulator and campaign errors; a campaign that
/// skipped a chunk is an error.
pub fn run(
    cfg: &ExperimentConfig,
    trials: u32,
    seed: u64,
) -> Result<(Vec<FaultRow>, Table), ExperimentError> {
    let dmr = DmrConfig::default();
    let mut rows = Vec::new();
    for bench in CAMPAIGN_BENCHMARKS {
        let w = bench.build(WorkloadSize::Tiny)?;
        let mut engine = WarpedDmr::new(dmr.clone(), &cfg.gpu);
        let run = w.run_with(&cfg.gpu, &mut engine)?;
        w.check(&run)?;
        let analytic = engine.report().coverage_pct();
        let pct = |protection, class| detection_pct(cfg, &w, &dmr, protection, class, trials, seed);
        rows.push(FaultRow {
            benchmark: bench,
            analytic_coverage_pct: analytic,
            transient_detection_pct: pct(Protection::WarpedDmr, FaultSiteClass::LaneTransient)?,
            stuck_detection_pct: pct(Protection::WarpedDmr, FaultSiteClass::LaneStuckAt)?,
            dmtr_stuck_detection_pct: pct(Protection::Dmtr, FaultSiteClass::LaneStuckAt)?,
        });
    }
    let mut table = Table::new(vec![
        "benchmark",
        "analytic coverage (%)",
        "transient detected (%)",
        "stuck-at detected (%)",
        "DMTR stuck-at detected (%)",
    ]);
    for r in &rows {
        table.row(vec![
            r.benchmark.name().to_string(),
            format!("{:.2}", r.analytic_coverage_pct),
            format!("{:.1}", r.transient_detection_pct),
            format!("{:.1}", r.stuck_detection_pct),
            format!("{:.1}", r.dmtr_stuck_detection_pct),
        ]);
    }
    Ok((rows, table))
}

/// One resilient campaign: `trials` faults of the given site class on
/// one benchmark, classified against a golden run into the full
/// masked / detected / SDC / hang taxonomy. Injection runs at `Tiny`
/// size, like [`run`] (one full simulation per chunk of trials, plus
/// one per trial the checker did not catch).
///
/// # Errors
///
/// Propagates workload errors and [`warped_faults::CampaignError`]
/// (broken golden run, unusable checkpoint journal). Chunks that
/// exhaust their retry budget are *not* errors — they surface as
/// `skipped` trials and widened intervals in the report.
pub fn resilient(
    cfg: &ExperimentConfig,
    bench: Benchmark,
    class: FaultSiteClass,
    trials: u32,
    seed: u64,
    opts: &ResilientOptions,
) -> Result<ResilientReport, ExperimentError> {
    let w = bench.build(WorkloadSize::Tiny)?;
    let dmr = DmrConfig::default();
    Ok(resilient_campaign(
        &w, &cfg.gpu, &dmr, class, trials, seed, opts,
    )?)
}

/// Render resilient-campaign reports as one table row per campaign,
/// with a 95% Wilson interval on every class rate (widened by skipped
/// trials when a chunk was dropped after exhausting its retries).
pub fn taxonomy_table(reports: &[ResilientReport]) -> Table {
    let mut table = Table::new(vec![
        "benchmark",
        "fault site",
        "trials",
        "skipped",
        "masked (%)",
        "detected (%)",
        "SDC (%)",
        "hang (%)",
    ]);
    for r in reports {
        let cell = |class: TrialOutcome| {
            let (lo, hi) = r.result.interval_pct(class);
            format!("{:.1} [{lo:.1}, {hi:.1}]", r.result.rate_pct(class))
        };
        table.row(vec![
            r.bench.clone(),
            r.class.to_string(),
            r.result.trials.to_string(),
            r.result.skipped.to_string(),
            cell(TrialOutcome::Masked),
            cell(TrialOutcome::Detected),
            cell(TrialOutcome::Sdc),
            cell(TrialOutcome::Hang),
        ]);
    }
    table
}
