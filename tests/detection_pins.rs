//! Literal detection counts of the detection-only fault campaigns at
//! Tiny scale on `GpuConfig::small()`.
//!
//! The counts depend on the profiling run, the `seed ^ chunk` seeding,
//! the draw order (sample, thread, bit, then the stuck value) and the
//! detection oracle, so any change to the campaign engine that is not
//! output-preserving moves at least one of them.

use warped::dmr::DmrConfig;
use warped::experiments::faults_exp::CAMPAIGN_BENCHMARKS;
use warped::faults::{detection_campaign, FaultSiteClass, Protection, ResilientOptions};
use warped::kernels::{Benchmark, WorkloadSize};
use warped::sim::GpuConfig;

const TRIALS: u32 = 16;
const TRANSIENT: FaultSiteClass = FaultSiteClass::LaneTransient;
const STUCK: FaultSiteClass = FaultSiteClass::LaneStuckAt;

fn detected(
    bench: Benchmark,
    dmr: &DmrConfig,
    protection: Protection,
    class: FaultSiteClass,
    seed: u64,
) -> u32 {
    let gpu = GpuConfig::small();
    let w = bench.build(WorkloadSize::Tiny).unwrap();
    let opts = ResilientOptions::default();
    let r = detection_campaign(&w, &gpu, dmr, protection, class, TRIALS, seed, &opts)
        .unwrap()
        .result;
    assert_eq!(r.trials, TRIALS, "{bench}: every trial completes");
    r.detected
}

#[test]
fn campaign_benchmark_detection_counts_are_pinned() {
    // (transient, stuck-at, DMTR stuck-at) at the `warped faults` seed.
    let expected = [(16, 9, 0), (16, 16, 0), (16, 11, 0)];
    let dmr = DmrConfig::default();
    for (bench, want) in CAMPAIGN_BENCHMARKS.into_iter().zip(expected) {
        let got = (
            detected(bench, &dmr, Protection::WarpedDmr, TRANSIENT, 0xf417),
            detected(bench, &dmr, Protection::WarpedDmr, STUCK, 0xf417),
            detected(bench, &dmr, Protection::Dmtr, STUCK, 0xf417),
        );
        assert_eq!(got, want, "{bench}");
    }
}

#[test]
fn shuffling_ablation_counts_are_pinned() {
    // (stuck-at shuffled, stuck-at without shuffling) at the ablation seed.
    let off = DmrConfig {
        lane_shuffle: false,
        ..DmrConfig::default()
    };
    for bench in [Benchmark::MatrixMul, Benchmark::Sha, Benchmark::Libor] {
        let got = (
            detected(
                bench,
                &DmrConfig::default(),
                Protection::WarpedDmr,
                STUCK,
                0xab1a,
            ),
            detected(bench, &off, Protection::WarpedDmr, STUCK, 0xab1a),
        );
        assert_eq!(got, (TRIALS, 0), "{bench}");
    }
}

#[test]
fn partially_covered_detection_counts_are_pinned() {
    // CUFFT fills 24 of 32 lanes: only intra-warp DMR applies, so the
    // mapping decides how many transients are caught.
    let cases = [
        (DmrConfig::default(), (10, 16, 0)),
        (DmrConfig::baseline_in_order(), (0, 0, 0)),
    ];
    for (dmr, want) in cases {
        let got = (
            detected(Benchmark::Fft, &dmr, Protection::WarpedDmr, TRANSIENT, 1234),
            detected(Benchmark::Fft, &dmr, Protection::WarpedDmr, STUCK, 1234),
            detected(Benchmark::Fft, &dmr, Protection::Dmtr, STUCK, 1234),
        );
        assert_eq!(got, want, "{:?}", dmr.mapping);
    }
    let no_intra = DmrConfig {
        enable_intra: false,
        ..DmrConfig::default()
    };
    assert_eq!(
        detected(
            Benchmark::Bfs,
            &no_intra,
            Protection::WarpedDmr,
            TRANSIENT,
            7
        ),
        5
    );
}
