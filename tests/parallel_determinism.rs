//! The parallel experiment engine's contract: the worker count changes
//! wall-clock time, never results. A figure harness and a fault campaign
//! must produce byte-identical output on one worker and on four.

use warped::dmr::DmrConfig;
use warped::experiments::{fig1, fig9a, ExperimentConfig};
use warped::faults::{detection_campaign, FaultSiteClass, Protection, ResilientOptions};
use warped::kernels::{Benchmark, WorkloadSize};
use warped::sim::GpuConfig;
use warped::trace::{CollectSink, TraceEvent, TraceHandle};

fn at_threads(threads: usize) -> ExperimentConfig {
    ExperimentConfig::test_tiny().with_threads(threads)
}

#[test]
fn figure_harness_is_thread_count_invariant() {
    let (_, serial) = fig1::run(&at_threads(1)).unwrap();
    let (_, parallel) = fig1::run(&at_threads(4)).unwrap();
    assert_eq!(
        serial.to_csv(),
        parallel.to_csv(),
        "fig1 table must be byte-identical at --threads 1 vs 4"
    );
}

#[test]
fn cell_fanout_harness_is_thread_count_invariant() {
    // fig9a splits each benchmark into three config cells — the regroup
    // step must reassemble rows identically at any worker count.
    let (_, serial) = fig9a::run(&at_threads(1)).unwrap();
    let (_, parallel) = fig9a::run(&at_threads(3)).unwrap();
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn fault_campaign_is_thread_count_invariant() {
    let gpu = GpuConfig::small();
    let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
    let dmr = DmrConfig::default();
    // 20 trials at chunk size 8 -> chunks of 8/8/4: exercises the
    // partial tail chunk as well.
    let run = |threads: usize| {
        let opts = ResilientOptions::default().with_threads(threads);
        let class = FaultSiteClass::LaneTransient;
        detection_campaign(&w, &gpu, &dmr, Protection::WarpedDmr, class, 20, 99, &opts).unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial, parallel, "campaign result depends on thread count");
    assert_eq!(serial.result.trials, 20);
}

#[test]
fn campaign_chunk_size_is_the_seeding_contract() {
    // Changing the worker count never changes the draws; changing the
    // chunk size does (documented on ResilientOptions::chunk_trials).
    // Guard both, the former with an odd chunk size.
    let gpu = GpuConfig::small();
    let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
    let dmr = DmrConfig::default();
    let draws = |chunk_trials: u32, threads: usize| {
        let (store, trace) = TraceHandle::shared(CollectSink::new());
        let opts = ResilientOptions {
            chunk_trials,
            trace,
            ..ResilientOptions::default()
        }
        .with_threads(threads);
        let class = FaultSiteClass::LaneTransient;
        let report =
            detection_campaign(&w, &gpu, &dmr, Protection::WarpedDmr, class, 10, 7, &opts).unwrap();
        // Chunks emit concurrently: order the drawn faults by trial.
        let mut faults: Vec<(u32, TraceEvent)> = store
            .lock()
            .unwrap()
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::FaultInjected { trial, .. } => Some((*trial, e.clone())),
                _ => None,
            })
            .collect();
        faults.sort_by_key(|(trial, _)| *trial);
        assert_eq!(faults.len(), 10);
        (report.result, faults)
    };
    assert_eq!(draws(3, 1), draws(3, 2));
    assert_ne!(
        draws(3, 1).1,
        draws(8, 1).1,
        "the chunk size reseeds which faults are drawn"
    );
}
