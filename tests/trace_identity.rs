//! Trace-stream identity: the full JSONL event stream of fixed runs
//! hashes (FNV-1a, 64-bit) to recorded values.
//!
//! The stream holds every issue, idle slot, stall, verify and SM
//! completion with its cycle, so any change to the simulator's issue
//! order, timing or idle accounting, or to the checker's behaviour,
//! changes the hash. The runs cover an idle-heavy benchmark (BFS) and an
//! issue-dense one (RadixSort) under Warped-DMR with both scheduler
//! policies, plus bare dual-issue runs.

use warped::dmr::{DmrConfig, WarpedDmr};
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
