//! Literal masked / detected / SDC / hang counts of the resilient fault
//! campaigns at Tiny scale on `GpuConfig::small()`, for every fault-site
//! class on every campaign benchmark, plus the detection-only counts of
//! the four checker-site classes.
//!
//! The counts depend on the profiling run, the `seed ^ chunk` seeding,
//! the draw order, the detection oracle and the architectural run, so a
//! change to the campaign engine that is not output-preserving moves at
//! least one of them.

use warped::dmr::DmrConfig;
use warped::experiments::faults_exp::CAMPAIGN_BENCHMARKS;
use warped::faults::{
    detection_campaign, resilient_campaign, FaultSiteClass, Protection, ResilientOptions,
    TrialOutcome,
};
use warped::kernels::{Benchmark, WorkloadSize};
use warped::sim::GpuConfig;

const TRIALS: u32 = 16;
const SEED: u64 = 0x7a0;

/// (masked, detected, sdc, hang) of one resilient campaign.
fn taxonomy(bench: Benchmark, class: FaultSiteClass) -> [u32; 4] {
    let w = bench.build(WorkloadSize::Tiny).unwrap();
    let r = resilient_campaign(
        &w,
        &GpuConfig::small(),
        &DmrConfig::default(),
        class,
        TRIALS,
        SEED,
        &ResilientOptions::default(),
    )
    .unwrap()
    .result;
    assert_eq!(r.trials, TRIALS, "{bench} {class}: every trial completes");
    TrialOutcome::ALL.map(|o| r.count(o))
}

fn detected(bench: Benchmark, class: FaultSiteClass) -> u32 {
    let w = bench.build(WorkloadSize::Tiny).unwrap();
    let r = detection_campaign(
        &w,
        &GpuConfig::small(),
        &DmrConfig::default(),
        Protection::WarpedDmr,
        class,
        TRIALS,
        SEED,
        &ResilientOptions::default(),
    )
    .unwrap()
    .result;
    assert_eq!(r.trials, TRIALS, "{bench} {class}: every trial completes");
    r.detected
}

#[test]
fn outcome_order_is_masked_detected_sdc_hang() {
    assert_eq!(
        TrialOutcome::ALL,
        [
            TrialOutcome::Masked,
            TrialOutcome::Detected,
            TrialOutcome::Sdc,
            TrialOutcome::Hang
        ]
    );
}

#[test]
fn resilient_taxonomy_counts_are_pinned() {
    // Rows follow `FaultSiteClass::ALL`; columns are (masked, detected,
    // sdc, hang).
    let expected = [
        // BFS
        [
            [0, 16, 0, 0],
            [6, 10, 0, 0],
            [10, 2, 4, 0],
            [0, 16, 0, 0],
            [1, 15, 0, 0],
            [0, 16, 0, 0],
        ],
        // MatrixMul
        [
            [0, 16, 0, 0],
            [0, 16, 0, 0],
            [1, 4, 11, 0],
            [0, 16, 0, 0],
            [1, 8, 7, 0],
            [0, 16, 0, 0],
        ],
        // SCAN
        [
            [0, 16, 0, 0],
            [5, 11, 0, 0],
            [4, 8, 4, 0],
            [0, 16, 0, 0],
            [3, 13, 0, 0],
            [0, 16, 0, 0],
        ],
    ];
    for (bench, want) in CAMPAIGN_BENCHMARKS.into_iter().zip(expected) {
        for (class, want) in FaultSiteClass::ALL.into_iter().zip(want) {
            assert_eq!(taxonomy(bench, class), want, "{bench} {class}");
        }
    }
}

#[test]
fn checker_site_detection_counts_are_pinned() {
    // Columns follow the checker-site classes of `FaultSiteClass::ALL`.
    // A dead comparator swallows every mismatch; a broken mux or a weak
    // RF-slot cell fires on every trial; a dropped mask bit hides only
    // the inter-warp copies of its lane.
    let expected = [[0, 16, 15, 16], [0, 16, 8, 16], [0, 16, 12, 16]];
    for (bench, want) in CAMPAIGN_BENCHMARKS.into_iter().zip(expected) {
        let got: Vec<u32> = FaultSiteClass::ALL
            .into_iter()
            .filter(|c| c.is_checker_site())
            .map(|c| detected(bench, c))
            .collect();
        assert_eq!(got, want, "{bench}");
    }
}
