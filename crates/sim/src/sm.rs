//! The streaming multiprocessor: issue loop, functional execution, and
//! timing.
//!
//! One SM issues at most one warp-instruction per cycle, selected by a
//! loose round-robin scheduler over resident warps whose scoreboard allows
//! issue. Execution units are super-pipelined: issue to the same unit on
//! back-to-back cycles is legal; dependent instructions wait on the
//! scoreboard (RF latency + unit latency).
//!
//! The SM caches, per warp slot, the first cycle at which the slot's top
//! instruction clears the scoreboard (`ready`). That cycle moves only when
//! the slot's warp issues, when a warp is assigned to the slot, or when
//! the warp leaves a barrier, so the scheduler filters slots on one
//! comparison and runs the other issue checks on candidates only, and a
//! cycle before the earliest ready slot is idle without a scan.

use crate::config::{GpuConfig, SchedulerPolicy, WARP_SIZE};
use crate::fault::LaneFault;
use crate::functional::{
    bin_lanes, cmp_lanes, ffma_lanes, imad_lanes, sel_lanes, sfu_lanes, un_lanes, Lanes,
};
use crate::launch::{LaunchConfig, RunStats, SimError};
use crate::memory::{GlobalMemory, SharedMemory};
use crate::observer::{IssueInfo, IssueObserver};
use crate::warp::Warp;
use std::sync::Arc;
use warped_isa::{Instruction, Kernel, Operand, Pc, Reg, Space, SpecialReg, UnitType};
use warped_trace::{TraceEvent, TraceHandle};

/// A block resident on an SM.
#[derive(Debug)]
pub struct BlockState {
    /// Global block index across the grid (row-major).
    pub global_index: u64,
    /// Block coordinates within the grid.
    pub cta: (u32, u32),
    /// The block's shared memory.
    pub shared: SharedMemory,
    /// Warps of this block that have not finished.
    pub live_warps: usize,
    /// Warp-slot indices occupied by this block.
    pub warp_slots: Vec<usize>,
}

/// One streaming multiprocessor.
pub struct Sm {
    /// SM index on the chip.
    pub id: usize,
    config: GpuConfig,
    warp_slots: Vec<Option<Warp>>,
    block_slots: Vec<Option<BlockState>>,
    /// Per warp slot: the first cycle its top instruction clears the
    /// scoreboard. `u64::MAX` for an empty slot or a warp parked at a
    /// barrier; `0` for a top PC past the kernel's end, so the scan
    /// reaches it and raises [`SimError::PcOutOfRange`].
    ready: Vec<u64>,
    /// A lower bound on the minimum of `ready`: exact after a scan that
    /// found nothing to issue, lowered whenever a slot becomes ready
    /// earlier (assignment, barrier release), and at most the issue cycle
    /// after an issue, so the next step scans again.
    next_ready: u64,
    resident_blocks: usize,
    free_warp_slots: usize,
    /// A `bar` issued or a warp finished since the last barrier release.
    barrier_check: bool,
    rr_next: usize,
    stall_cycles_left: u64,
    trace: TraceHandle,
    fault: Option<Arc<dyn LaneFault>>,
    /// Statistics accumulated so far. The chip fills in `cycles` and
    /// `sm_cycles`; an SM leaves them empty.
    pub stats: RunStats,
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.id)
            .field("fault", &self.fault.is_some())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Outcome of one SM cycle, for the GPU's progress watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A warp-instruction issued.
    Issued,
    /// The pipeline is frozen by an observer-charged stall.
    Stalled,
    /// Nothing could issue (scoreboard/barrier/latency).
    Idle,
}

/// What an issued instruction does with its per-lane `results`.
enum Consume {
    /// Write back to `dst` after an EXE latency of `exe` cycles.
    Write(Reg, u64),
    /// Load from the addresses into `dst`.
    Load(Space, Reg),
    /// Store `values` to the addresses.
    Store(Space, Lanes),
    /// Branch on the per-lane decisions.
    Branch(Pc, Pc),
    /// Nothing (`jump`, `bar`, `exit`).
    Nothing,
}

impl Sm {
    /// Create an empty SM.
    pub fn new(id: usize, config: GpuConfig) -> Self {
        let warps = config.max_warps_per_sm;
        let blocks = config.max_blocks_per_sm;
        Sm {
            id,
            config,
            warp_slots: (0..warps).map(|_| None).collect(),
            block_slots: (0..blocks).map(|_| None).collect(),
            ready: vec![u64::MAX; warps],
            next_ready: u64::MAX,
            resident_blocks: 0,
            free_warp_slots: warps,
            barrier_check: false,
            rr_next: 0,
            stall_cycles_left: 0,
            trace: TraceHandle::disabled(),
            fault: None,
            stats: RunStats::default(),
        }
    }

    /// Route this SM's cycle-level events to `trace`.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Corrupt this SM's datapath with `fault` (fault-injection campaigns).
    pub fn set_fault(&mut self, fault: Arc<dyn LaneFault>) {
        self.fault = Some(fault);
    }

    /// Whether any block is resident.
    pub fn has_work(&self) -> bool {
        self.resident_blocks > 0
    }

    /// Whether a block needing `warps` warp slots can be accepted now.
    pub fn can_accept(&self, warps: usize) -> bool {
        self.resident_blocks < self.block_slots.len() && self.free_warp_slots >= warps
    }

    /// Make a block resident.
    ///
    /// # Panics
    ///
    /// Panics if [`Sm::can_accept`] would return false (the GPU checks
    /// first).
    pub fn assign_block(
        &mut self,
        global_index: u64,
        cta: (u32, u32),
        kernel: &Kernel,
        launch: &LaunchConfig,
    ) {
        let wpb = launch.warps_per_block();
        let threads = launch.threads_per_block() as u32;
        let bslot = self
            .block_slots
            .iter()
            .position(Option::is_none)
            .expect("no free block slot");
        let free: Vec<usize> = self
            .warp_slots
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.is_none().then_some(i))
            .take(wpb)
            .collect();
        assert_eq!(free.len(), wpb, "not enough free warp slots");
        for (w, &slot) in free.iter().enumerate() {
            let uid = global_index * wpb as u64 + w as u64;
            self.warp_slots[slot] = Some(Warp::new(uid, bslot, w, threads, kernel.num_regs()));
            self.refresh_ready(slot, kernel);
            self.next_ready = self.next_ready.min(self.ready[slot]);
        }
        self.block_slots[bslot] = Some(BlockState {
            global_index,
            cta,
            shared: SharedMemory::new(kernel.shared_words()),
            live_warps: wpb,
            warp_slots: free,
        });
        self.resident_blocks += 1;
        self.free_warp_slots -= wpb;
    }

    /// Advance one cycle: release barriers, then try to issue one
    /// warp-instruction.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution errors (out-of-bounds memory,
    /// missing parameters).
    pub fn step(
        &mut self,
        cycle: u64,
        kernel: &Kernel,
        launch: &LaunchConfig,
        global: &mut GlobalMemory,
        observer: &mut dyn IssueObserver,
    ) -> Result<StepOutcome, SimError> {
        if self.stall_cycles_left > 0 {
            self.stall_cycles_left -= 1;
            self.stats.stall_cycles += 1;
            return Ok(StepOutcome::Stalled);
        }
        if self.barrier_check {
            self.release_barriers(kernel);
        }

        if cycle >= self.next_ready {
            // Fermi dual scheduling (paper §2.2): two issues per cycle from
            // distinct warps; each scheduler owns its own SPs but the LD/ST
            // units and SFUs are shared, so two LD/ST (or two SFU)
            // instructions can never co-issue.
            let width = if self.config.dual_issue { 2 } else { 1 };
            let mut issued = 0usize;
            let mut first_pick: Option<(usize, UnitType)> = None;
            let mut total_stalls = 0u64;
            while issued < width {
                let Some((idx, pc, mask, instr)) = self.pick(cycle, kernel, first_pick)? else {
                    break;
                };
                if issued == 0 {
                    self.rr_next = match self.config.scheduler {
                        // GTO-style: keep issuing from the same warp until it
                        // cannot issue. Matches real warp schedulers and
                        // interleaves unit types at the SM level.
                        SchedulerPolicy::GreedyThenOldest => idx,
                        // Fair rotation: all warps march in near lock step.
                        SchedulerPolicy::LooseRoundRobin => (idx + 1) % self.ready.len(),
                    };
                    first_pick = Some((idx, instr.unit()));
                }
                total_stalls +=
                    self.issue(idx, mask, &instr, pc, cycle, launch, global, observer)?;
                self.refresh_ready(idx, kernel);
                issued += 1;
            }
            if issued > 0 {
                if issued == 2 {
                    self.stats.dual_issues += 1;
                }
                self.stall_cycles_left = total_stalls;
                return Ok(StepOutcome::Issued);
            }
            // Nothing was ready: no slot moves again until one issues, so
            // the SM idles without a scan until the earliest ready cycle.
            self.next_ready = self.ready.iter().copied().min().unwrap_or(u64::MAX);
        }
        self.trace.emit(|| TraceEvent::Idle {
            sm: self.id as u32,
            cycle,
        });
        observer.on_idle(self.id, cycle);
        self.stats.idle_cycles += 1;
        Ok(StepOutcome::Idle)
    }

    /// The next warp to issue at `cycle`, in rotation order from
    /// `rr_next`. Only slots whose cached ready cycle has passed are
    /// candidates; each candidate still gets the fetch (which raises
    /// `PcOutOfRange`) and the shared-unit hazard check against the first
    /// pick of a dual issue. The cache is exact, so the scoreboard check
    /// is a debug assertion.
    fn pick(
        &mut self,
        cycle: u64,
        kernel: &Kernel,
        first_pick: Option<(usize, UnitType)>,
    ) -> Result<Option<(usize, Pc, u32, Instruction)>, SimError> {
        let n = self.ready.len();
        for idx in (self.rr_next..n).chain(0..self.rr_next) {
            if self.ready[idx] > cycle || first_pick.is_some_and(|(f, _)| f == idx) {
                continue;
            }
            // Empty slots and parked warps read `u64::MAX`.
            let warp = self.warp_slots[idx]
                .as_mut()
                .expect("a ready slot holds a warp");
            debug_assert!(!warp.at_barrier, "a parked warp is never ready");
            let (pc, mask) = warp.stack.top().expect("a resident warp has live threads");
            let Some(instr) = kernel.fetch(pc) else {
                return Err(SimError::PcOutOfRange { pc: pc.0 });
            };
            // Shared-unit structural hazard for the second issue.
            if let Some((_, first_unit)) = first_pick {
                let unit = instr.unit();
                if unit != UnitType::Sp && unit == first_unit {
                    continue;
                }
            }
            debug_assert!(warp.ready_cycle(instr) <= cycle, "stale ready cycle");
            return Ok(Some((idx, pc, mask, *instr)));
        }
        Ok(None)
    }

    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        widx: usize,
        mask: u32,
        instr: &Instruction,
        pc: Pc,
        cycle: u64,
        launch: &LaunchConfig,
        global: &mut GlobalMemory,
        observer: &mut dyn IssueObserver,
    ) -> Result<u64, SimError> {
        let Sm {
            id,
            config,
            warp_slots,
            block_slots,
            resident_blocks,
            free_warp_slots,
            barrier_check,
            trace,
            fault,
            stats,
            ..
        } = self;
        let warp = warp_slots[widx].as_mut().expect("issuing empty slot");
        let bslot = warp.block_slot;
        let block = block_slots[bslot].as_mut().expect("warp's block missing");

        let mut raw_dists = [None; 4];
        let mut reg_srcs = 0u64;
        for (k, src) in instr.src_regs().iter().enumerate() {
            if let Some(r) = src {
                raw_dists[k] = warp.raw_distance(*r, cycle);
                reg_srcs += 1;
            }
        }

        // Produce: every value-producing instruction fills `results` for
        // all 32 lanes from operands resolved once — the ALU/SFU output,
        // the branch decision, or the LD/ST word address (the part of a
        // memory access that DMR verifies).
        let mut results: Lanes = [0; WARP_SIZE];
        let mut has_result = true;
        let consume = match *instr {
            Instruction::Bin { op, dst, a, b } => {
                let a = resolve(a, warp, block, launch)?;
                results = bin_lanes(op, &a, &resolve(b, warp, block, launch)?);
                Consume::Write(dst, config.sp_latency)
            }
            Instruction::Un { op, dst, a } => {
                results = un_lanes(op, &resolve(a, warp, block, launch)?);
                Consume::Write(dst, config.sp_latency)
            }
            Instruction::IMad { dst, a, b, c } => {
                let [a, b, c] = resolve3([a, b, c], warp, block, launch)?;
                results = imad_lanes(&a, &b, &c);
                Consume::Write(dst, config.sp_latency)
            }
            Instruction::FFma { dst, a, b, c } => {
                let [a, b, c] = resolve3([a, b, c], warp, block, launch)?;
                results = ffma_lanes(&a, &b, &c);
                Consume::Write(dst, config.sp_latency)
            }
            Instruction::Setp { cmp, ty, dst, a, b } => {
                let a = resolve(a, warp, block, launch)?;
                results = cmp_lanes(cmp, ty, &a, &resolve(b, warp, block, launch)?);
                Consume::Write(dst, config.sp_latency)
            }
            Instruction::Sel {
                dst,
                cond,
                if_true,
                if_false,
            } => {
                let [c, t, f] = resolve3([cond, if_true, if_false], warp, block, launch)?;
                results = sel_lanes(&c, &t, &f);
                Consume::Write(dst, config.sp_latency)
            }
            Instruction::Sfu { op, dst, a } => {
                results = sfu_lanes(op, &resolve(a, warp, block, launch)?);
                Consume::Write(dst, config.sfu_latency)
            }
            Instruction::Ld {
                space,
                dst,
                addr,
                offset,
            } => {
                results = offset_lanes(&resolve(addr, warp, block, launch)?, offset);
                Consume::Load(space, dst)
            }
            Instruction::St {
                space,
                addr,
                offset,
                src,
            } => {
                results = offset_lanes(&resolve(addr, warp, block, launch)?, offset);
                Consume::Store(space, resolve(src, warp, block, launch)?)
            }
            Instruction::Branch {
                pred,
                negate,
                target,
                reconv,
            } => {
                for (r, &p) in results.iter_mut().zip(warp.reg_lanes(pred)) {
                    *r = u32::from((p != 0) ^ negate);
                }
                Consume::Branch(target, reconv)
            }
            Instruction::Jump { target } => {
                warp.stack.jump(target);
                has_result = false;
                Consume::Nothing
            }
            Instruction::Bar => {
                warp.stack.advance();
                warp.at_barrier = true;
                *barrier_check = true;
                has_result = false;
                Consume::Nothing
            }
            Instruction::Exit => {
                warp.stack.exit(mask);
                has_result = false;
                Consume::Nothing
            }
        };

        if has_result {
            // Datapath corruption hook (fault campaigns): transforms every
            // value a unit produces before it is consumed, in lane order.
            if let Some(f) = fault.as_deref() {
                for lane in active_lanes(mask) {
                    results[lane] = f.corrupt(*id, lane, cycle, results[lane]);
                }
            }
            // Inactive lanes read 0 (the `IssueInfo::results` contract).
            for (lane, r) in results.iter_mut().enumerate() {
                *r &= ((mask >> lane) & 1).wrapping_neg();
            }
        }

        // Consume: write back, access memory, or steer the warp.
        match consume {
            Consume::Write(dst, exe) => {
                warp.write_masked(dst, mask, &results);
                warp.note_write(dst, cycle, cycle + config.writeback_latency(exe));
                warp.stack.advance();
            }
            Consume::Load(space, dst) => {
                let mut loaded: Lanes = [0; WARP_SIZE];
                for lane in active_lanes(mask) {
                    loaded[lane] = match space {
                        Space::Global => global.read(results[lane])?,
                        Space::Shared => block.shared.read(results[lane])?,
                    };
                }
                warp.write_masked(dst, mask, &loaded);
                let exe = match space {
                    Space::Global => config.global_latency,
                    Space::Shared => config.shared_latency,
                };
                warp.note_write(dst, cycle, cycle + config.writeback_latency(exe));
                warp.stack.advance();
            }
            Consume::Store(space, values) => {
                for lane in active_lanes(mask) {
                    match space {
                        Space::Global => global.write(results[lane], values[lane])?,
                        Space::Shared => block.shared.write(results[lane], values[lane])?,
                    }
                }
                warp.stack.advance();
            }
            Consume::Branch(target, reconv) => {
                let mut taken = 0u32;
                for (lane, r) in results.iter_mut().enumerate() {
                    // A corrupted decision counts as taken when non-zero.
                    *r = u32::from(*r != 0);
                    taken |= *r << lane;
                }
                warp.stack.branch(taken, target, reconv);
            }
            Consume::Nothing => {}
        }

        let unit = instr.unit();
        let active = mask.count_ones() as u64;
        stats.warp_instructions += 1;
        stats.thread_instructions += active;
        stats.unit_instructions[unit.index()] += 1;
        stats.unit_thread_instructions[unit.index()] += active;
        stats.reg_reads += reg_srcs * active;
        if instr.dst().is_some() {
            stats.reg_writes += active;
        }

        let info = IssueInfo {
            cycle,
            sm_id: *id,
            warp_slot: widx,
            warp_uid: warp.uid,
            block: block.global_index,
            pc,
            instr,
            unit,
            active_mask: mask,
            results: &results,
            has_result,
            raw_dists,
        };
        // Emitted before the observers run so the checker events of this
        // issue slot follow their Issue in the stream.
        trace.emit(|| TraceEvent::Issue {
            sm: *id as u32,
            cycle,
            warp: info.warp_uid,
            pc: pc.0,
            unit,
            active: mask.count_ones(),
            full: mask == u32::MAX,
            has_result,
            dst: instr.dst(),
            srcs: instr.src_regs(),
        });
        let stalls = observer.on_issue(&info);

        if warp.is_done() {
            block.live_warps -= 1;
            if block.live_warps == 0 {
                block_slots[bslot] = None;
                *resident_blocks -= 1;
                stats.blocks += 1;
            }
            warp_slots[widx] = None;
            *free_warp_slots += 1;
            // Block-mates parked at a barrier may now be the only live
            // warps left.
            *barrier_check = true;
        }
        Ok(stalls)
    }

    /// Recompute the cached ready cycle of warp slot `idx`.
    fn refresh_ready(&mut self, idx: usize, kernel: &Kernel) {
        self.ready[idx] = ready_cycle_of(&mut self.warp_slots[idx], kernel);
    }

    // Runs at the first non-stalled step after a `bar` issued or a warp
    // finished: only those events can complete a barrier. One pass counts
    // live vs waiting warps, one pass clears the flags.
    fn release_barriers(&mut self, kernel: &Kernel) {
        self.barrier_check = false;
        let Sm {
            block_slots,
            warp_slots,
            ready,
            next_ready,
            ..
        } = self;
        for block in block_slots.iter().flatten() {
            let mut live = 0usize;
            let mut waiting = 0usize;
            for &s in &block.warp_slots {
                if let Some(w) = &warp_slots[s] {
                    live += 1;
                    if w.at_barrier {
                        waiting += 1;
                    }
                }
            }
            if live == 0 || waiting < live {
                continue;
            }
            for &s in &block.warp_slots {
                if let Some(w) = warp_slots[s].as_mut() {
                    w.at_barrier = false;
                }
                ready[s] = ready_cycle_of(&mut warp_slots[s], kernel);
                *next_ready = (*next_ready).min(ready[s]);
            }
        }
    }
}

/// The cached ready cycle of a warp slot: when its top instruction clears
/// the scoreboard, `u64::MAX` for an empty slot or a parked warp, `0` for
/// a top PC past the kernel's end.
fn ready_cycle_of(slot: &mut Option<Warp>, kernel: &Kernel) -> u64 {
    match slot {
        Some(w) if !w.at_barrier => match w.stack.top() {
            Some((pc, _)) => kernel.fetch(pc).map_or(0, |i| w.ready_cycle(i)),
            None => u64::MAX,
        },
        _ => u64::MAX,
    }
}

/// The set lane indices of a mask, ascending.
fn active_lanes(mask: u32) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            lane
        })
    })
}

/// `base + offset` (wrapping) on every lane.
fn offset_lanes(base: &Lanes, offset: i32) -> Lanes {
    let mut out = *base;
    for a in &mut out {
        *a = a.wrapping_add(offset as u32);
    }
    out
}

/// Resolve one operand for all 32 lanes: a register's lane row, a
/// broadcast immediate or parameter, or a special register per lane.
fn resolve(
    op: Operand,
    warp: &Warp,
    block: &BlockState,
    launch: &LaunchConfig,
) -> Result<Lanes, SimError> {
    Ok(match op {
        Operand::Reg(r) => *warp.reg_lanes(r),
        Operand::Imm(v) => [v; WARP_SIZE],
        Operand::Param(i) => {
            [launch
                .params
                .get(i as usize)
                .copied()
                .ok_or(SimError::MissingParam { index: i })?; WARP_SIZE]
        }
        Operand::Special(s) => {
            std::array::from_fn(|lane| special_value(s, warp, block, launch, lane))
        }
    })
}

/// Resolve three operands in operand order (the first missing parameter
/// is the error).
fn resolve3(
    ops: [Operand; 3],
    warp: &Warp,
    block: &BlockState,
    launch: &LaunchConfig,
) -> Result<[Lanes; 3], SimError> {
    Ok([
        resolve(ops[0], warp, block, launch)?,
        resolve(ops[1], warp, block, launch)?,
        resolve(ops[2], warp, block, launch)?,
    ])
}

fn special_value(
    s: SpecialReg,
    warp: &Warp,
    block: &BlockState,
    launch: &LaunchConfig,
    lane: usize,
) -> u32 {
    let lin = warp.lane_base_tid + lane as u32;
    let bx = launch.block.0.max(1);
    match s {
        SpecialReg::TidX => lin % bx,
        SpecialReg::TidY => lin / bx,
        SpecialReg::NTidX => launch.block.0,
        SpecialReg::NTidY => launch.block.1,
        SpecialReg::CtaIdX => block.cta.0,
        SpecialReg::CtaIdY => block.cta.1,
        SpecialReg::NCtaIdX => launch.grid.0,
        SpecialReg::NCtaIdY => launch.grid.1,
        SpecialReg::LaneId => lane as u32,
        SpecialReg::WarpId => warp.warp_in_block as u32,
        SpecialReg::FlatTid => lin,
        SpecialReg::GlobalTid => {
            (block.global_index as u32) * launch.threads_per_block() as u32 + lin
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use warped_isa::KernelBuilder;

    fn small_sm() -> Sm {
        Sm::new(0, GpuConfig::small())
    }

    #[test]
    fn fresh_sm_has_no_work() {
        let sm = small_sm();
        assert!(!sm.has_work());
        assert!(sm.can_accept(4));
    }

    #[test]
    fn assign_block_occupies_slots() {
        let mut sm = small_sm();
        let mut b = KernelBuilder::new("k");
        let r = b.reg();
        b.mov(r, 1u32);
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::linear(1, 64);
        sm.assign_block(0, (0, 0), &kernel, &launch);
        assert!(sm.has_work());
        // 2 warps taken of 32; can still accept a large block.
        assert!(sm.can_accept(30));
        assert!(!sm.can_accept(31));
    }

    #[test]
    fn single_warp_kernel_runs_to_completion() {
        let mut sm = small_sm();
        let mut b = KernelBuilder::new("k");
        let [tid, v] = b.regs();
        b.mov(tid, warped_isa::SpecialReg::FlatTid);
        b.iadd(v, tid, 10u32);
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::linear(1, 32);
        sm.assign_block(0, (0, 0), &kernel, &launch);
        let mut global = GlobalMemory::new(16);
        let mut cycle = 0;
        while sm.has_work() {
            sm.step(cycle, &kernel, &launch, &mut global, &mut NullObserver)
                .unwrap();
            cycle += 1;
            assert!(cycle < 1000, "kernel did not finish");
        }
        assert_eq!(sm.stats.warp_instructions, 3); // mov, iadd, exit
        assert_eq!(sm.stats.blocks, 1);
    }

    #[test]
    fn dependent_instructions_respect_raw_latency() {
        let mut sm = small_sm();
        let mut b = KernelBuilder::new("k");
        let [a, c] = b.regs();
        b.mov(a, 1u32);
        b.iadd(c, a, a); // depends on mov
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::linear(1, 32);
        sm.assign_block(0, (0, 0), &kernel, &launch);
        let mut global = GlobalMemory::new(16);

        struct IssueCycles(Vec<u64>);
        impl IssueObserver for IssueCycles {
            fn on_issue(&mut self, info: &IssueInfo<'_>) -> u64 {
                self.0.push(info.cycle);
                0
            }
        }
        let mut obs = IssueCycles(Vec::new());
        let mut cycle = 0;
        while sm.has_work() {
            sm.step(cycle, &kernel, &launch, &mut global, &mut obs)
                .unwrap();
            cycle += 1;
            assert!(cycle < 1000);
        }
        // mov at 0; iadd must wait rf(3) + sp(5) = 8 cycles.
        assert_eq!(obs.0[0], 0);
        assert_eq!(obs.0[1], 8);
    }

    #[test]
    fn stores_reach_global_memory() {
        let mut sm = small_sm();
        let mut b = KernelBuilder::new("k");
        let [tid, addr] = b.regs();
        b.mov(tid, warped_isa::SpecialReg::FlatTid);
        let out = b.param(0);
        b.iadd(addr, out, tid);
        b.st_global(addr, 0, tid);
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::linear(1, 32).with_params(vec![4]);
        sm.assign_block(0, (0, 0), &kernel, &launch);
        let mut global = GlobalMemory::new(64);
        let mut cycle = 0;
        while sm.has_work() {
            sm.step(cycle, &kernel, &launch, &mut global, &mut NullObserver)
                .unwrap();
            cycle += 1;
            assert!(cycle < 1000);
        }
        assert_eq!(global.read(4).unwrap(), 0);
        assert_eq!(global.read(4 + 31).unwrap(), 31);
    }

    #[test]
    fn missing_param_is_reported() {
        let mut sm = small_sm();
        let mut b = KernelBuilder::new("k");
        let r = b.reg();
        let p = b.param(3);
        b.mov(r, p);
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::linear(1, 32);
        sm.assign_block(0, (0, 0), &kernel, &launch);
        let mut global = GlobalMemory::new(16);
        let err = sm
            .step(0, &kernel, &launch, &mut global, &mut NullObserver)
            .unwrap_err();
        assert_eq!(err, SimError::MissingParam { index: 3 });
    }

    #[test]
    fn barrier_releases_when_all_warps_arrive() {
        let mut sm = small_sm();
        let mut b = KernelBuilder::new("k");
        let r = b.reg();
        b.mov(r, 1u32);
        b.bar();
        b.iadd(r, r, 1u32);
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::linear(1, 64); // 2 warps
        sm.assign_block(0, (0, 0), &kernel, &launch);
        let mut global = GlobalMemory::new(16);
        let mut cycle = 0;
        while sm.has_work() {
            sm.step(cycle, &kernel, &launch, &mut global, &mut NullObserver)
                .unwrap();
            cycle += 1;
            assert!(cycle < 10_000, "barrier deadlocked");
        }
        // 2 warps × 4 instructions (mov, bar, iadd, exit).
        assert_eq!(sm.stats.warp_instructions, 8);
    }

    #[test]
    fn divergent_branch_executes_both_sides() {
        let mut sm = small_sm();
        let mut b = KernelBuilder::new("k");
        let [lane, p, v, addr] = b.regs();
        b.mov(lane, warped_isa::SpecialReg::LaneId);
        b.setp(
            warped_isa::CmpOp::Lt,
            warped_isa::CmpType::U32,
            p,
            lane,
            16u32,
        );
        b.if_then_else(p, |b| b.mov(v, 111u32), |b| b.mov(v, 222u32));
        let out = b.param(0);
        b.iadd(addr, out, lane);
        b.st_global(addr, 0, v);
        let kernel = b.build().unwrap();
        let launch = LaunchConfig::linear(1, 32).with_params(vec![0]);
        sm.assign_block(0, (0, 0), &kernel, &launch);
        let mut global = GlobalMemory::new(64);
        let mut cycle = 0;
        while sm.has_work() {
            sm.step(cycle, &kernel, &launch, &mut global, &mut NullObserver)
                .unwrap();
            cycle += 1;
            assert!(cycle < 10_000);
        }
        for lane in 0..32u32 {
            let expect = if lane < 16 { 111 } else { 222 };
            assert_eq!(global.read(lane).unwrap(), expect, "lane {lane}");
        }
    }
}
