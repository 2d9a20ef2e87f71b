//! Warp context: registers, scoreboard, and divergence state.

use crate::config::WARP_SIZE;
use crate::functional::Lanes;
use crate::simt_stack::SimtStack;
use warped_isa::{Instruction, Reg};

/// The populated-lane mask for a warp whose lanes cover linear thread ids
/// `base..base + WARP_SIZE` in a block of `threads_in_block` threads.
pub fn populated_mask(base: u32, threads_in_block: u32) -> u32 {
    let mut mask = 0u32;
    for lane in 0..WARP_SIZE as u32 {
        if base + lane < threads_in_block {
            mask |= 1 << lane;
        }
    }
    mask
}

/// One resident warp of 32 threads.
#[derive(Debug, Clone)]
pub struct Warp {
    /// Globally unique warp id (stable across the launch).
    pub uid: u64,
    /// Resident-block slot this warp belongs to.
    pub block_slot: usize,
    /// Warp index within its block.
    pub warp_in_block: usize,
    /// Linear thread id of lane 0 within the block.
    pub lane_base_tid: u32,
    /// Divergence state.
    pub stack: SimtStack,
    /// Whether the warp is parked at a `bar.sync`.
    pub at_barrier: bool,
    /// Register rows, one [`Lanes`] per register (flat, so a fresh frame
    /// comes from a zeroed allocation).
    regs: Vec<u32>,
    scoreboard: Vec<LastWrite>,
}

/// The last write of one register: when it completes writeback and when
/// it issued (`u64::MAX` if never written). Kept side by side so a
/// register's scoreboard state is one cache access.
#[derive(Debug, Clone, Copy)]
struct LastWrite {
    ready: u64,
    issued: u64,
}

impl Warp {
    /// Create a warp whose lanes cover linear tids
    /// `lane_base_tid..lane_base_tid + 32` of a block with
    /// `threads_in_block` threads, with a zeroed register frame of
    /// `num_regs` registers per lane.
    pub fn new(
        uid: u64,
        block_slot: usize,
        warp_in_block: usize,
        threads_in_block: u32,
        num_regs: u16,
    ) -> Self {
        let lane_base_tid = (warp_in_block * WARP_SIZE) as u32;
        let mask = populated_mask(lane_base_tid, threads_in_block);
        let n = num_regs as usize;
        Warp {
            uid,
            block_slot,
            warp_in_block,
            lane_base_tid,
            stack: SimtStack::new(mask),
            at_barrier: false,
            regs: vec![0; n * WARP_SIZE],
            scoreboard: vec![
                LastWrite {
                    ready: 0,
                    issued: u64::MAX,
                };
                n
            ],
        }
    }

    /// Register `reg` of every lane.
    #[inline]
    pub fn reg_lanes(&self, reg: Reg) -> &Lanes {
        let base = reg.index() * WARP_SIZE;
        self.regs[base..base + WARP_SIZE]
            .try_into()
            .expect("a register row is one warp wide")
    }

    /// Write `values` into register `reg` of the lanes set in `mask`;
    /// the other lanes keep their contents.
    #[inline]
    pub fn write_masked(&mut self, reg: Reg, mask: u32, values: &Lanes) {
        let base = reg.index() * WARP_SIZE;
        let row = &mut self.regs[base..base + WARP_SIZE];
        if mask == u32::MAX {
            // A plain store: no need to wait for the old row.
            row.copy_from_slice(values);
            return;
        }
        for (lane, (d, &v)) in row.iter_mut().zip(values).enumerate() {
            // All ones for an inactive lane, zero for an active one.
            let keep = ((mask >> lane) & 1).wrapping_sub(1);
            *d = (*d & keep) | (v & !keep);
        }
    }

    /// The first cycle at which `instr` clears the scoreboard: every
    /// source register and the destination (WAW) have completed
    /// writeback. The value moves only when this warp issues.
    pub fn ready_cycle(&self, instr: &Instruction) -> u64 {
        let waw = instr.dst().map_or(0, |d| self.scoreboard[d.index()].ready);
        instr
            .src_regs()
            .into_iter()
            .flatten()
            .fold(waw, |c, r| c.max(self.scoreboard[r.index()].ready))
    }

    /// Record a write issued at `issue_cycle` completing at `ready_cycle`.
    pub fn note_write(&mut self, reg: Reg, issue_cycle: u64, ready_cycle: u64) {
        self.scoreboard[reg.index()] = LastWrite {
            ready: ready_cycle,
            issued: issue_cycle,
        };
    }

    /// Issue-to-issue RAW distance for reading `reg` at `cycle`
    /// (`None` if the register was never written).
    pub fn raw_distance(&self, reg: Reg, cycle: u64) -> Option<u64> {
        let w = self.scoreboard[reg.index()].issued;
        (w != u64::MAX).then(|| cycle.saturating_sub(w))
    }

    /// Whether all threads have exited.
    pub fn is_done(&self) -> bool {
        self.stack.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_isa::{AluBinOp, Operand};

    fn add(dst: u16, a: u16, b: u16) -> Instruction {
        Instruction::Bin {
            op: AluBinOp::IAdd,
            dst: Reg(dst),
            a: Operand::Reg(Reg(a)),
            b: Operand::Reg(Reg(b)),
        }
    }

    #[test]
    fn populated_mask_shapes() {
        assert_eq!(populated_mask(0, 32), u32::MAX);
        assert_eq!(populated_mask(0, 8), 0xff);
        assert_eq!(populated_mask(32, 40), 0xff);
        assert_eq!(populated_mask(32, 32), 0);
        assert_eq!(populated_mask(0, 64), u32::MAX);
    }

    #[test]
    fn masked_write_keeps_inactive_lanes() {
        let mut w = Warp::new(0, 0, 0, 32, 4);
        let ones: Lanes = [1; WARP_SIZE];
        w.write_masked(Reg(1), u32::MAX, &ones);
        let values: Lanes = std::array::from_fn(|l| 100 + l as u32);
        w.write_masked(Reg(1), 0b0110, &values);
        assert_eq!(&w.reg_lanes(Reg(1))[..4], &[1, 101, 102, 1]);
        assert_eq!(w.reg_lanes(Reg(1))[31], 1);
        assert_eq!(w.reg_lanes(Reg(2)), &[0; WARP_SIZE], "other rows untouched");
    }

    #[test]
    fn ready_cycle_waits_for_raw_and_waw() {
        let mut w = Warp::new(0, 0, 0, 32, 4);
        let instr = add(0, 1, 2);
        assert_eq!(w.ready_cycle(&instr), 0);
        // A pending write to a source delays issue (RAW).
        w.note_write(Reg(1), 0, 8);
        assert_eq!(w.ready_cycle(&instr), 8);
        // A pending write to the destination delays issue (WAW).
        w.note_write(Reg(0), 9, 17);
        assert_eq!(w.ready_cycle(&instr), 17);
        // Registers the instruction does not name do not matter.
        w.note_write(Reg(3), 10, 40);
        assert_eq!(w.ready_cycle(&instr), 17);
    }

    #[test]
    fn raw_distance_tracks_last_writer() {
        let mut w = Warp::new(0, 0, 0, 32, 4);
        assert_eq!(w.raw_distance(Reg(1), 100), None);
        w.note_write(Reg(1), 10, 18);
        assert_eq!(w.raw_distance(Reg(1), 25), Some(15));
    }

    #[test]
    fn second_warp_of_block_covers_upper_tids() {
        let mut w = Warp::new(1, 0, 1, 48, 2);
        assert_eq!(w.lane_base_tid, 32);
        // 48-thread block: second warp has 16 populated lanes.
        let (_, mask) = w.stack.top().unwrap();
        assert_eq!(mask, 0xffff);
    }
}
