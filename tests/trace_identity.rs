//! Trace-stream identity: the full JSONL event stream of fixed runs
//! hashes (FNV-1a, 64-bit) to recorded values.
//!
//! The stream holds every issue, idle slot, stall, verify and SM
//! completion with its cycle, so any change to the simulator's issue
//! order, timing or idle accounting, or to the checker's behaviour,
//! changes the hash. The runs cover an idle-heavy benchmark (BFS) and an
//! issue-dense one (RadixSort) under Warped-DMR with both scheduler
//! policies, plus bare dual-issue runs.
//!
//! Single-oracle runs (`WarpedDmr::with_oracle`, `Dmtr::with_oracle`)
//! also pin their detection logs: `errors()` total and a hash of its
//! stored events, `DmrReport::errors_detected`, and the traced stream
//! including its `Error` events.

use warped::baselines::Dmtr;
use warped::dmr::{DmrConfig, ErrorLog, LaneSite, WarpedDmr};
use warped::faults::{CheckerFault, CompoundFault, FaultModel};
use warped::kernels::{Benchmark, WorkloadSize};
use warped::sim::{GpuConfig, NullObserver, SchedulerPolicy};
use warped::trace::{jsonl, TraceEvent, TraceHandle, TraceSink};

/// Folds every JSONL line (with its newline) into one FNV-1a hash.
struct FnvSink {
    hash: u64,
    events: u64,
}

impl Default for FnvSink {
    fn default() -> Self {
        FnvSink {
            hash: 0xcbf2_9ce4_8422_2325,
            events: 0,
        }
    }
}

impl TraceSink for FnvSink {
    fn event(&mut self, ev: &TraceEvent) {
        for byte in jsonl::to_line(ev).bytes().chain(std::iter::once(b'\n')) {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
        self.events += 1;
    }
}

/// `(events, hash)` of one traced Tiny run on `gpu`, protected by a
/// default Warped-DMR engine or bare.
fn stream_hash(bench: Benchmark, gpu: &GpuConfig, protected: bool) -> (u64, u64) {
    let w = bench.build(WorkloadSize::Tiny).unwrap();
    let (sink, handle) = TraceHandle::shared(FnvSink::default());
    let run = if protected {
        let mut engine = WarpedDmr::new(DmrConfig::default(), gpu);
        engine.set_trace(handle.clone());
        w.run_traced(gpu, &mut engine, handle.clone())
    } else {
        w.run_traced(gpu, &mut NullObserver, handle.clone())
    }
    .unwrap();
    w.check(&run).unwrap();
    handle.flush();
    let s = sink.lock().unwrap();
    (s.events, s.hash)
}

#[test]
fn traced_streams_match_recorded_hashes() {
    let gto = GpuConfig::small();
    let lrr = GpuConfig::small().with_scheduler(SchedulerPolicy::LooseRoundRobin);
    let dual = GpuConfig::small().with_dual_issue();
    let cases: [(Benchmark, &GpuConfig, bool, (u64, u64)); 6] = [
        (Benchmark::Bfs, &gto, true, (45654, 0x7dc436b470c8ad84)),
        (Benchmark::Bfs, &lrr, true, (45992, 0xe86b102efa1659fc)),
        (
            Benchmark::RadixSort,
            &gto,
            true,
            (14456, 0xae2b5c877c713107),
        ),
        (
            Benchmark::RadixSort,
            &lrr,
            true,
            (15181, 0xb4db7da1e5a98c89),
        ),
        (Benchmark::Bfs, &dual, false, (42636, 0xc273f88343ba8bd2)),
        (
            Benchmark::RadixSort,
            &dual,
            false,
            (11356, 0xcdcc3a4ffa40fbf3),
        ),
    ];
    let got: Vec<(u64, u64)> = cases
        .iter()
        .map(|&(bench, gpu, protected, _)| stream_hash(bench, gpu, protected))
        .collect();
    let want: Vec<(u64, u64)> = cases.iter().map(|c| c.3).collect();
    assert_eq!(got, want);
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// `(total, hash of the stored events)` of one detection log.
fn log_hash(log: &ErrorLog) -> (u64, u64) {
    let hash = log.events().iter().fold(0xcbf2_9ce4_8422_2325, |h, e| {
        fnv(h, format!("{e:?}\n").as_bytes())
    });
    (log.total(), hash)
}

/// A single-oracle Warped-DMR run of `bench` at Tiny on
/// `GpuConfig::small()`, traced: `(errors() total, errors() hash,
/// errors_detected, stream events, stream hash)`.
fn single_oracle(bench: Benchmark, oracle: CompoundFault) -> (u64, u64, u64, u64, u64) {
    let gpu = GpuConfig::small();
    let w = bench.build(WorkloadSize::Tiny).unwrap();
    let (sink, handle) = TraceHandle::shared(FnvSink::default());
    let mut engine = WarpedDmr::with_oracle(DmrConfig::default(), &gpu, Box::new(oracle));
    engine.set_trace(handle.clone());
    let run = w.run_traced(&gpu, &mut engine, handle.clone()).unwrap();
    w.check(&run).unwrap();
    handle.flush();
    let (total, hash) = log_hash(engine.errors());
    let s = sink.lock().unwrap();
    (
        total,
        hash,
        engine.report().errors_detected,
        s.events,
        s.hash,
    )
}

#[test]
fn single_oracle_detections_match_recorded_hashes() {
    let site = |sm, lane| LaneSite { sm, lane };
    let stuck = |sm, lane| FaultModel::StuckAt {
        site: site(sm, lane),
        bit: 8,
        value: true,
    };
    let flip = |sm, lane, cycle| FaultModel::TransientFlip {
        site: site(sm, lane),
        cycle,
        bit: 3,
    };
    let cases = [
        // Inter-warp path only.
        (Benchmark::MatrixMul, CompoundFault::lane_only(stuck(0, 13))),
        // Intra- and inter-warp paths.
        (Benchmark::Bfs, CompoundFault::lane_only(stuck(0, 5))),
        (Benchmark::Bfs, CompoundFault::lane_only(flip(0, 5, 873))),
        // Checker-internal sites.
        (
            Benchmark::Bfs,
            CompoundFault::with_checker(
                flip(0, 5, 873),
                CheckerFault::RfuMuxSelect {
                    sm: 0,
                    cluster: 2,
                    cluster_size: 4,
                },
            ),
        ),
        // Past the 4096-event window.
        (
            Benchmark::Scan,
            CompoundFault::with_checker(
                stuck(1, 9),
                CheckerFault::StoredResultFlip { sm: 1, bit: 3 },
            ),
        ),
        (
            Benchmark::Scan,
            CompoundFault::with_checker(
                stuck(1, 9),
                CheckerFault::ReplayqMaskDrop { sm: 1, bit: 9 },
            ),
        ),
        (
            Benchmark::Scan,
            CompoundFault::with_checker(stuck(1, 9), CheckerFault::ComparatorStuckPass { sm: 1 }),
        ),
    ];
    let got: Vec<_> = cases
        .iter()
        .map(|&(bench, oracle)| single_oracle(bench, oracle))
        .collect();
    let want = vec![
        (
            2616,
            0x4194_111f_5038_9f30,
            2616,
            16369,
            0x28fd_3a1e_6331_cd46,
        ),
        (
            671,
            0xa0b4_b9b3_6e3c_3200,
            671,
            46325,
            0xd52f_6045_4457_4b97,
        ),
        (6, 0x489c_2973_a6c8_6c47, 6, 45660, 0x5014_3532_5707_593c),
        (
            1099,
            0x9400_5d64_ff2d_5f28,
            1099,
            46753,
            0x39a3_c5aa_ebe4_111f,
        ),
        (
            6062,
            0xec62_b4f5_91e0_c8d8,
            6062,
            10909,
            0x0d73_d9da_bb5e_0a1b,
        ),
        (432, 0x390b_32b9_1b32_cdac, 432, 5279, 0xbfea_fea4_7ef5_976b),
        (0, 0xcbf2_9ce4_8422_2325, 0, 4847, 0x3c8e_2874_4d1f_22ee),
    ];
    assert_eq!(got, want);
}

#[test]
fn single_oracle_dmtr_detections_match_recorded_hashes() {
    let gpu = GpuConfig::small();
    let w = Benchmark::Scan.build(WorkloadSize::Tiny).unwrap();
    let got: Vec<(u64, u64)> = [100, 250, 400]
        .into_iter()
        .map(|cycle| {
            let oracle = FaultModel::TransientFlip {
                site: LaneSite { sm: 0, lane: 1 },
                cycle,
                bit: 0,
            };
            let mut engine = Dmtr::with_oracle(Box::new(oracle));
            w.run_with(&gpu, &mut engine).unwrap();
            log_hash(engine.errors())
        })
        .collect();
    let want = vec![
        (0, 0xcbf2_9ce4_8422_2325),
        (1, 0x010d_6b66_ac5b_fc57),
        (0, 0xcbf2_9ce4_8422_2325),
    ];
    assert_eq!(got, want);
}
