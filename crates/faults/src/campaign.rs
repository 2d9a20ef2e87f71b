//! Campaign vocabulary shared by both projections of the campaign
//! engine in [`crate::resilient`]: the protection scheme under test,
//! the outcome counts, and the default Monte-Carlo geometry.

/// Default reservoir capacity of the profiling sampler: enough sites
/// for statistically tight campaigns on every suite benchmark while
/// keeping the profiling pass cheap.
pub const DEFAULT_SAMPLER_CAPACITY: usize = 4096;

/// Default trials per RNG chunk. Small enough that modest campaigns
/// still spread across workers, large enough that per-chunk seeding
/// stays a rounding error of total cost.
pub const DEFAULT_CHUNK_TRIALS: u32 = 8;

/// Which engine protects the runs of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// Warped-DMR with the given behaviour baked into its `DmrConfig`.
    WarpedDmr,
    /// The DMTR baseline (core affinity — same-lane verification).
    Dmtr,
}

/// Outcome counts of a campaign.
///
/// [`resilient_campaign`](crate::resilient_campaign) classifies every
/// completed trial into the masked/detected/SDC/hang taxonomy;
/// [`detection_campaign`](crate::detection_campaign) fills in `detected`
/// only, leaving its undetected trials unclassified. Both record the
/// planned-vs-completed gap when chunks were skipped after exhausting
/// their retry budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignResult {
    /// Faults injected (trials that actually completed).
    pub trials: u32,
    /// Trials the comparator caught (or that trapped: DUE).
    pub detected: u32,
    /// Trials whose output was bit-identical to golden.
    pub masked: u32,
    /// Silent data corruptions (clean completion, wrong output).
    pub sdc: u32,
    /// Trials that exceeded their cycle/wall budget undetected.
    pub hangs: u32,
    /// Trials the campaign planned (`trials + skipped`).
    pub planned: u32,
    /// Trials lost to chunks that exhausted their retry budget.
    pub skipped: u32,
}

impl CampaignResult {
    /// Detected fraction in percent (of completed trials).
    pub fn detection_rate_pct(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            100.0 * self.detected as f64 / self.trials as f64
        }
    }

    /// Completed-trial count for one outcome class.
    pub fn count(&self, class: crate::outcome::TrialOutcome) -> u32 {
        use crate::outcome::TrialOutcome;
        match class {
            TrialOutcome::Masked => self.masked,
            TrialOutcome::Detected => self.detected,
            TrialOutcome::Sdc => self.sdc,
            TrialOutcome::Hang => self.hangs,
        }
    }

    /// Observed rate of one class, in percent of the planned trials.
    pub fn rate_pct(&self, class: crate::outcome::TrialOutcome) -> f64 {
        let n = self.planned;
        if n == 0 {
            0.0
        } else {
            100.0 * f64::from(self.count(class)) / f64::from(n)
        }
    }

    /// 95% Wilson interval for one class's rate, in percent.
    ///
    /// Skipped trials widen the interval pessimistically: each one
    /// *might* have landed in this class, so the lower bound assumes
    /// none did and the upper bound assumes all did. With nothing
    /// skipped this is the plain Wilson interval.
    pub fn interval_pct(&self, class: crate::outcome::TrialOutcome) -> (f64, f64) {
        let n = self.planned;
        let c = self.count(class);
        let (lo, _) = crate::outcome::wilson_interval(c, n);
        let (_, hi) = crate::outcome::wilson_interval(c.saturating_add(self.skipped).min(n), n);
        (100.0 * lo, 100.0 * hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_campaign_is_zero() {
        assert_eq!(CampaignResult::default().detection_rate_pct(), 0.0);
    }
}
