//! End-to-end fault injection: the detection claims of the paper hold on
//! whole benchmark runs.

use warped::dmr::{DmrConfig, FaultOracle, LaneSite, WarpedDmr};
use warped::faults::{
    detection_campaign, CampaignResult, FaultModel, FaultSiteClass, Protection, ResilientOptions,
};
use warped::kernels::{Benchmark, Workload, WorkloadSize};
use warped::sim::GpuConfig;

fn gpu() -> GpuConfig {
    GpuConfig::small()
}

/// A Warped-DMR detection campaign with default options.
fn detect(
    w: &Workload,
    dmr: &DmrConfig,
    class: FaultSiteClass,
    trials: u32,
    seed: u64,
) -> CampaignResult {
    let opts = ResilientOptions::default();
    let r = detection_campaign(
        w,
        &gpu(),
        dmr,
        Protection::WarpedDmr,
        class,
        trials,
        seed,
        &opts,
    );
    r.unwrap().result
}

#[test]
fn transient_detection_tracks_analytic_coverage() {
    // Fully covered workload: 100% detection.
    let w = Benchmark::Sha.build(WorkloadSize::Tiny).unwrap();
    let r = detect(
        &w,
        &DmrConfig::default(),
        FaultSiteClass::LaneTransient,
        5,
        42,
    );
    assert_eq!(r.detected, r.trials, "SHA is 100% covered");
}

#[test]
fn uncovered_executions_produce_silent_corruptions() {
    // With intra-warp DMR disabled, BFS (almost all partial warps) leaks
    // most transients.
    let cfg = DmrConfig {
        enable_intra: false,
        ..DmrConfig::default()
    };
    let w = Benchmark::Bfs.build(WorkloadSize::Tiny).unwrap();
    let r = detect(&w, &cfg, FaultSiteClass::LaneTransient, 8, 7);
    assert!(
        r.detected < r.trials,
        "disabling intra-warp DMR must lose coverage ({}/{})",
        r.detected,
        r.trials
    );
}

#[test]
fn lane_shuffling_is_what_exposes_permanent_faults() {
    let w = Benchmark::Libor.build(WorkloadSize::Tiny).unwrap();
    let with_shuffle = DmrConfig::default();
    let r1 = detect(&w, &with_shuffle, FaultSiteClass::LaneStuckAt, 4, 9);
    assert_eq!(r1.detected, r1.trials, "shuffled copies see the stuck lane");

    let no_shuffle = DmrConfig {
        lane_shuffle: false,
        ..DmrConfig::default()
    };
    let r2 = detect(&w, &no_shuffle, FaultSiteClass::LaneStuckAt, 4, 9);
    assert_eq!(
        r2.detected, 0,
        "without shuffling, full-warp copies rerun on the faulty lane"
    );
}

#[test]
fn multi_bit_and_repeated_faults_still_detected() {
    // Two independent engines with different stuck bits both fire.
    for bit in [0u8, 15, 31] {
        let fault = FaultModel::StuckAt {
            site: LaneSite { sm: 0, lane: 6 },
            bit,
            value: true,
        };
        let w = Benchmark::MatrixMul.build(WorkloadSize::Tiny).unwrap();
        let mut engine = WarpedDmr::with_oracle(DmrConfig::default(), &gpu(), Box::new(fault));
        w.run_with(&gpu(), &mut engine).unwrap();
        assert!(
            engine.errors().any(),
            "stuck bit {bit} must be detected somewhere in the run"
        );
        // Errors carry plausible sites.
        for e in engine.errors().events().iter().take(16) {
            assert!(e.original_lane < 32);
            assert!(e.verifier_lane < 32);
            assert_ne!(e.original_lane, e.verifier_lane);
        }
    }
}

#[test]
fn detection_reports_identify_the_faulty_lane() {
    struct Stuck;
    impl FaultOracle for Stuck {
        fn transform(&self, site: LaneSite, _c: u64, v: u32) -> u32 {
            if site.lane == 9 {
                v ^ 0xf0
            } else {
                v
            }
        }
    }
    let w = Benchmark::Sha.build(WorkloadSize::Tiny).unwrap();
    let mut engine = WarpedDmr::with_oracle(DmrConfig::default(), &gpu(), Box::new(Stuck));
    w.run_with(&gpu(), &mut engine).unwrap();
    assert!(engine.errors().any());
    // Every event involves the faulty lane on one side — the per-SP
    // isolation granularity the paper argues for in §3.4.
    for e in engine.errors().events() {
        assert!(
            e.original_lane == 9 || e.verifier_lane == 9,
            "event blames lanes {} -> {}",
            e.original_lane,
            e.verifier_lane
        );
    }
}
