//! Paths the benchmark suite never takes, pinned to exact values.
//!
//! The suite kernels are validated, well-formed and fault-free, so they
//! never run off the end of a kernel, never miss a parameter, never trip
//! the watchdog or the cycle budget, and never corrupt a lane. These tests
//! drive each of those paths with a small kernel and pin the exact error,
//! cycle or call count, so a rewrite of the issue loop that changes any of
//! them fails here rather than in a campaign.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use warped_isa::{
    AluBinOp, AluUnOp, CmpOp, CmpType, Instruction, Kernel, KernelBuilder, Operand, Reg, SpecialReg,
};
use warped_sim::{
    Gpu, GpuConfig, IssueInfo, IssueObserver, LaneFault, LaunchConfig, NullObserver, SimError,
};
use warped_trace::{CollectSink, TraceEvent, TraceHandle};

/// A divergent, barriered, multi-block kernel touching every unit:
/// per-lane loads, a data-dependent branch with an SFU op on one side,
/// a barrier, shared and global stores.
fn mixed_kernel() -> Kernel {
    let mut b = KernelBuilder::new("mixed");
    let sh = b.alloc_shared(64);
    let [tid, lane, p, v, f, addr, sa] = b.regs();
    b.mov(tid, SpecialReg::GlobalTid);
    b.mov(lane, SpecialReg::LaneId);
    b.iadd(addr, b.param(0), tid);
    b.ld_global(v, addr, 0);
    b.setp(CmpOp::Lt, CmpType::U32, p, lane, 12u32);
    b.if_then_else(
        p,
        |b| b.imad(v, v, 3u32, lane),
        |b| {
            b.cvt_u2f(f, v);
            b.sqrt(f, f);
            b.cvt_f2u(v, f);
        },
    );
    b.mov(sa, SpecialReg::FlatTid);
    b.iadd(sa, sa, sh as i32 as u32);
    b.st_shared(sa, 0, v);
    b.bar();
    b.ld_shared(v, sa, 0);
    b.iadd(v, v, SpecialReg::CtaIdX);
    b.st_global(addr, 0, v);
    b.build().unwrap()
}

/// Run [`mixed_kernel`] over 3 blocks of 48 threads (a partial warp per
/// block) on the small chip.
fn run_mixed(
    gpu: &mut Gpu,
    observer: &mut dyn IssueObserver,
) -> Result<warped_sim::RunStats, SimError> {
    let n = 3 * 48;
    let buf = gpu.alloc_words(n);
    let input: Vec<u32> = (0..n as u32).map(|i| i * 7 + 1).collect();
    gpu.write_words(buf, &input);
    gpu.launch(
        &mixed_kernel(),
        &LaunchConfig::linear(3, 48).with_params(vec![buf]),
        observer,
    )
}

#[test]
fn kernel_that_falls_off_its_end_is_pc_out_of_range() {
    // Raw code without a trailing `exit`: validation accepts it (all
    // targets are in range), and the warp walks to pc 2.
    let code = vec![
        Instruction::Un {
            op: AluUnOp::Mov,
            dst: Reg(0),
            a: Operand::Imm(1),
        },
        Instruction::Bin {
            op: AluBinOp::IAdd,
            dst: Reg(1),
            a: Operand::Reg(Reg(0)),
            b: Operand::Imm(2),
        },
    ];
    let kernel = Kernel::new("runaway", code, 2, 0).unwrap();
    let mut gpu = Gpu::new(GpuConfig::small());
    let err = gpu
        .launch(&kernel, &LaunchConfig::linear(2, 64), &mut NullObserver)
        .unwrap_err();
    assert_eq!(err, SimError::PcOutOfRange { pc: 2 });
}

#[test]
fn missing_second_operand_param_is_reported() {
    let mut b = KernelBuilder::new("k");
    let r = b.reg();
    b.iadd(r, b.param(0), b.param(2));
    let kernel = b.build().unwrap();
    let mut gpu = Gpu::new(GpuConfig::small());
    let launch = LaunchConfig::linear(1, 32).with_params(vec![5]);
    let err = gpu.launch(&kernel, &launch, &mut NullObserver).unwrap_err();
    assert_eq!(err, SimError::MissingParam { index: 2 });

    // Both operands missing: the first in operand order is reported.
    let mut b = KernelBuilder::new("k2");
    let r = b.reg();
    b.iadd(r, b.param(3), b.param(1));
    let kernel = b.build().unwrap();
    let err = gpu.launch(&kernel, &launch, &mut NullObserver).unwrap_err();
    assert_eq!(err, SimError::MissingParam { index: 3 });
}

#[test]
fn barrier_then_stalled_wait_trips_the_watchdog_at_an_exact_cycle() {
    // Two warps meet at a barrier, then wait on an SFU result whose
    // latency exceeds the watchdog: every cycle after the barrier is idle
    // until the watchdog fires.
    let mut b = KernelBuilder::new("wait");
    let [x, y] = b.regs();
    b.mov(x, SpecialReg::FlatTid);
    b.sqrt(y, x);
    b.bar();
    b.iadd(x, y, 1u32);
    let kernel = b.build().unwrap();
    let config = GpuConfig {
        sfu_latency: 50_000,
        ..GpuConfig::small()
    };
    let mut gpu = Gpu::new(config);
    let err = gpu
        .launch(&kernel, &LaunchConfig::linear(1, 64), &mut NullObserver)
        .unwrap_err();
    assert_eq!(err, SimError::Deadlock { cycle: 10_212 });
}

#[test]
fn cycle_budget_trips_at_an_exact_cycle() {
    let mut gpu = Gpu::new(GpuConfig::small().with_cycle_budget(57));
    let err = run_mixed(&mut gpu, &mut NullObserver).unwrap_err();
    assert_eq!(err, SimError::Hang { cycle: 57 });
}

/// Counts every value the datapath hands to the fault hook, and flips
/// bit 0 of lane 5's values from cycle 30 on.
#[derive(Default)]
struct CountingFault {
    calls: AtomicU64,
    lane_sum: AtomicU64,
}

impl LaneFault for CountingFault {
    fn corrupt(&self, _sm: usize, lane: usize, cycle: u64, value: u32) -> u32 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.lane_sum.fetch_add(lane as u64, Ordering::Relaxed);
        if lane == 5 && cycle >= 30 {
            value ^ 1
        } else {
            value
        }
    }
}

#[test]
fn lane_fault_sees_every_produced_value_once() {
    let fault = Arc::new(CountingFault::default());
    let mut gpu = Gpu::new(GpuConfig::small());
    gpu.set_fault(fault.clone());
    let stats = run_mixed(&mut gpu, &mut NullObserver).unwrap();
    let out = gpu.read_words(0, 3 * 48);
    let checksum = out
        .iter()
        .fold(0u64, |h, &w| h.wrapping_mul(31).wrapping_add(w as u64));
    assert_eq!(
        (
            fault.calls.load(Ordering::Relaxed),
            fault.lane_sum.load(Ordering::Relaxed),
            stats.cycles,
            checksum,
        ),
        (2018, 26_938, 321, 17_432_139_444_269_616_220)
    );
}

/// Checks that every issue reports zero for its inactive lanes, and
/// counts idle callbacks.
#[derive(Default)]
struct ResultsProbe {
    issues: u64,
    partial_issues: u64,
    idles: u64,
}

impl IssueObserver for ResultsProbe {
    fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
        self.issues += 1;
        if info.active_mask != u32::MAX {
            self.partial_issues += 1;
        }
        for (lane, &r) in info.results.iter().enumerate() {
            if info.active_mask & (1 << lane) == 0 {
                assert_eq!(r, 0, "inactive lane {lane} of {:?}", info.instr);
            }
        }
        0
    }

    fn on_idle(&mut self, _sm_id: usize, _cycle: u64) {
        self.idles += 1;
    }
}

#[test]
fn inactive_lanes_of_issue_results_read_zero() {
    let mut probe = ResultsProbe::default();
    let mut gpu = Gpu::new(GpuConfig::small());
    let stats = run_mixed(&mut gpu, &mut probe).unwrap();
    assert_eq!(probe.issues, stats.warp_instructions);
    assert!(probe.partial_issues > 0, "the kernel must diverge");
}

#[test]
fn idle_callbacks_idle_cycles_and_idle_events_agree() {
    for (config, expected) in [
        (GpuConfig::small(), (521, 321)),
        (GpuConfig::small().with_dual_issue(), (542, 315)),
    ] {
        let (sink, trace) = TraceHandle::shared(CollectSink::new());
        let mut probe = ResultsProbe::default();
        let mut gpu = Gpu::new(config);
        gpu.set_trace(trace);
        let stats = run_mixed(&mut gpu, &mut probe).unwrap();
        let events = sink.lock().unwrap().take();
        let idle_events = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Idle { .. }))
            .count() as u64;
        assert_eq!(probe.idles, stats.idle_cycles);
        assert_eq!(idle_events, stats.idle_cycles);
        assert_eq!((stats.idle_cycles, stats.cycles), expected);
    }
}
