//! Result comparison and the fault-injection interface.
//!
//! In hardware, Warped-DMR's 128-bit comparator sits after writeback and
//! raises an error to the scheduler when the original and redundant
//! results differ (paper Fig. 6; synthesized at 622 µm², 0.068 ns). In
//! simulation the redundant execution would trivially equal the original,
//! so fault campaigns supply a [`FaultOracle`]: a model of how a given
//! physical lane corrupts values at a given cycle. The comparator then
//! sees exactly what hardware would see.

/// A physical execution-unit site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneSite {
    /// SM index on the chip.
    pub sm: usize,
    /// Physical SIMT lane within the SM.
    pub lane: usize,
}

/// A model of faulty execution hardware. `transform` returns the value a
/// computation producing `value` would actually yield on `site` at
/// `cycle` (identity for healthy lanes).
///
/// The remaining methods model faults in the *checker itself* — the
/// comparator, the RFU forwarding muxes, and the ReplayQ storage the
/// paper's §3.2 argument assumes fault-free. They default to healthy
/// behavior so lane-only oracles need not implement them.
pub trait FaultOracle {
    /// Corrupt (or pass through) `value` computed on `site` at `cycle`.
    fn transform(&self, site: LaneSite, cycle: u64, value: u32) -> u32;

    /// Filter the comparator's raw mismatch verdict on `sm` at `cycle`.
    /// A faulty comparator can swallow a real mismatch (stuck-at-"match")
    /// — the canonical "who checks the checker" failure.
    fn verdict(&self, _sm: usize, _cycle: u64, mismatch: bool) -> bool {
        mismatch
    }

    /// Corrupt a result word read back from checker storage (the ReplayQ
    /// entry or the unverified RF slot) on `sm` at `cycle`. Only the
    /// inter-warp path buffers results, so only it consults this.
    fn stored_value(&self, _sm: usize, _cycle: u64, value: u32) -> u32 {
        value
    }

    /// Whether the RFU's mux select lines misroute the operand forwarded
    /// to `verifier` on `sm`, making the intra-warp copy compute on the
    /// wrong input (manifests as a spurious mismatch).
    fn mux_misroute(&self, _sm: usize, _verifier: usize) -> bool {
        false
    }

    /// Corrupt the active-mask metadata of a buffered ReplayQ entry on
    /// `sm`. Dropped bits silently skip the corresponding lane's
    /// verification (a coverage hole, not an error signal).
    fn entry_mask(&self, _sm: usize, mask: u32) -> u32 {
        mask
    }

    /// Whether any hook can differ from healthy behaviour on `sm`. An
    /// engine skips every comparison on an SM its oracle does not touch,
    /// so this may return `false` only when all five hooks are the
    /// identity there. The default, `true`, is always safe.
    fn touches(&self, _sm: usize) -> bool {
        true
    }
}

/// The always-healthy oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealthyOracle;

impl FaultOracle for HealthyOracle {
    fn transform(&self, _site: LaneSite, _cycle: u64, value: u32) -> u32 {
        value
    }
}

/// One detected mismatch between original and redundant execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectedError {
    /// SM where the comparator fired.
    pub sm: usize,
    /// Cycle of the verification (when the error became known).
    pub cycle: u64,
    /// Warp whose instruction mismatched.
    pub warp_uid: u64,
    /// Lane that executed the original computation.
    pub original_lane: usize,
    /// Lane that executed the redundant copy.
    pub verifier_lane: usize,
}

/// Bounded log of detected errors (the scheduler would be interrupted on
/// the first one; we keep a window of up to 4096 events for analysis).
#[derive(Debug, Clone, Default)]
pub struct ErrorLog {
    events: Vec<DetectedError>,
    total: u64,
}

/// The log of an engine that judges no oracle.
static NO_ERRORS: ErrorLog = ErrorLog {
    events: Vec::new(),
    total: 0,
};

impl ErrorLog {
    const CAP: usize = 4096;

    /// Record a detection.
    pub fn record(&mut self, e: DetectedError) {
        self.total += 1;
        if self.events.len() < Self::CAP {
            self.events.push(e);
        }
    }

    /// Total detections (may exceed the stored window).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Stored events (the first 4096 at most; see [`ErrorLog::total`]).
    pub fn events(&self) -> &[DetectedError] {
        &self.events
    }

    /// Whether anything was detected.
    pub fn any(&self) -> bool {
        self.total > 0
    }
}

/// Which DMR datapath a comparison travels through — determines which
/// checker-internal fault sites apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareStage {
    /// Intra-warp: the original result is forwarded through the RFU muxes
    /// in the same cycle; nothing is buffered.
    Intra,
    /// Inter-warp: the original result was buffered in the ReplayQ / RF
    /// slot until the Replay Checker found a verification slot.
    Inter,
    /// A baseline scheme (DMTR) verifying on the original core:
    /// it has none of Warped-DMR's forwarding or buffering hardware, and
    /// its comparator is trusted, so only the datapath half applies.
    Baseline,
}

/// Compare an original and a redundant execution of the same computation
/// under `oracle`, recording a [`DetectedError`] on mismatch, with the
/// checker-internal fault sites of `stage` applied: stored-copy
/// corruption (inter only), RFU mux misroutes (intra only), and the
/// comparator-verdict filter (intra and inter; a baseline's comparator
/// is trusted).
///
/// `value` is the fault-free result; the original ran on
/// `original` at `orig_cycle`, the copy on `verifier` at `verify_cycle`.
#[allow(clippy::too_many_arguments)]
pub fn compare_staged(
    oracle: &dyn FaultOracle,
    log: &mut ErrorLog,
    stage: CompareStage,
    sm: usize,
    warp_uid: u64,
    value: u32,
    original: usize,
    orig_cycle: u64,
    verifier: usize,
    verify_cycle: u64,
) -> bool {
    let mut o = oracle.transform(LaneSite { sm, lane: original }, orig_cycle, value);
    if stage == CompareStage::Inter {
        o = oracle.stored_value(sm, orig_cycle, o);
    }
    let v = oracle.transform(LaneSite { sm, lane: verifier }, verify_cycle, value);
    let misroute = stage == CompareStage::Intra && oracle.mux_misroute(sm, verifier);
    let mismatch = o != v || misroute;
    let fired = match stage {
        CompareStage::Baseline => mismatch,
        CompareStage::Intra | CompareStage::Inter => oracle.verdict(sm, verify_cycle, mismatch),
    };
    if fired {
        log.record(DetectedError {
            sm,
            cycle: verify_cycle,
            warp_uid,
            original_lane: original,
            verifier_lane: verifier,
        });
        true
    } else {
        false
    }
}

/// One fault oracle and the log of the detections it causes.
pub struct Judge {
    oracle: Box<dyn FaultOracle>,
    log: ErrorLog,
    /// Keep only the first detection and see no further comparison once
    /// it is recorded (a campaign trial asks only *whether* the
    /// comparator fired); otherwise keep the bounded [`ErrorLog`] window
    /// that [`diagnose`](crate::diagnose) and the trace need.
    first_only: bool,
}

impl std::fmt::Debug for Judge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Judge")
            .field("first_only", &self.first_only)
            .field("detections", &self.log.total())
            .finish_non_exhaustive()
    }
}

impl Judge {
    /// The oracle this judge compares through.
    pub(crate) fn oracle(&self) -> &dyn FaultOracle {
        &*self.oracle
    }

    /// The detections recorded so far.
    pub fn log(&self) -> &ErrorLog {
        &self.log
    }

    /// Whether this judge needs no further comparison: it keeps only its
    /// first detection and has recorded it.
    pub fn settled(&self) -> bool {
        self.first_only && self.log.any()
    }

    /// [`compare_staged`] through this judge's oracle into its log.
    #[allow(clippy::too_many_arguments)]
    pub fn compare(
        &mut self,
        stage: CompareStage,
        sm: usize,
        warp_uid: u64,
        value: u32,
        original: usize,
        orig_cycle: u64,
        verifier: usize,
        verify_cycle: u64,
    ) -> bool {
        compare_staged(
            &*self.oracle,
            &mut self.log,
            stage,
            sm,
            warp_uid,
            value,
            original,
            orig_cycle,
            verifier,
            verify_cycle,
        )
    }
}

/// The ordered set of [`Judge`]s a protection engine compares through.
///
/// Every redundant execution is judged once per judge, as if each oracle
/// were the only one: an oracle changes verdicts, never the schedule, so
/// one fault-free simulation judges any number of faults. Empty for a
/// plain coverage run, one judge keeping every detection for a
/// single-oracle run, and one first-detection judge per trial for a
/// campaign chunk.
#[derive(Debug, Default)]
pub struct Judges(Vec<Judge>);

impl Judges {
    /// One judge keeping every detection.
    pub fn one(oracle: Box<dyn FaultOracle>) -> Self {
        Judges(vec![Judge {
            oracle,
            log: ErrorLog::default(),
            first_only: false,
        }])
    }

    /// One judge per oracle, each keeping only its first detection.
    pub fn first_only(oracles: impl IntoIterator<Item = Box<dyn FaultOracle>>) -> Self {
        Judges(
            oracles
                .into_iter()
                .map(|oracle| Judge {
                    oracle,
                    log: ErrorLog::default(),
                    first_only: true,
                })
                .collect(),
        )
    }

    /// The judges, in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Judge> {
        self.0.iter()
    }

    /// The judges that still compare on `sm`: not settled, and with an
    /// oracle that [touches](FaultOracle::touches) `sm`.
    pub fn live_on(&mut self, sm: usize) -> impl Iterator<Item = &mut Judge> {
        self.0
            .iter_mut()
            .filter(move |j| !j.settled() && j.oracle.touches(sm))
    }

    /// Whether each judge has fired, in order.
    pub fn fired(&self) -> Vec<bool> {
        self.0.iter().map(|j| j.log.any()).collect()
    }

    /// Detections over all judges.
    pub fn total(&self) -> u64 {
        self.0.iter().map(|j| j.log.total()).sum()
    }

    /// The first judge's log (empty without judges): the detection log
    /// of a single-oracle run.
    pub fn first_log(&self) -> &ErrorLog {
        self.0.first().map_or(&NO_ERRORS, Judge::log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lane 3 of SM 0 is stuck: output bit 0 forced to 1.
    struct StuckLane3;
    impl FaultOracle for StuckLane3 {
        fn transform(&self, site: LaneSite, _cycle: u64, value: u32) -> u32 {
            if site.sm == 0 && site.lane == 3 {
                value | 1
            } else {
                value
            }
        }
    }

    #[test]
    fn healthy_oracle_never_mismatches() {
        let mut log = ErrorLog::default();
        let hit = compare_staged(
            &HealthyOracle,
            &mut log,
            CompareStage::Baseline,
            0,
            7,
            42,
            3,
            10,
            0,
            15,
        );
        assert!(!hit);
        assert!(!log.any());
    }

    #[test]
    fn stuck_lane_detected_when_verified_elsewhere() {
        let mut log = ErrorLog::default();
        // Original on faulty lane 3, copy on healthy lane 0: mismatch.
        let hit = compare_staged(
            &StuckLane3,
            &mut log,
            CompareStage::Baseline,
            0,
            7,
            42,
            3,
            10,
            0,
            15,
        );
        assert!(hit);
        assert_eq!(log.total(), 1);
        assert_eq!(log.events()[0].original_lane, 3);
    }

    #[test]
    fn stuck_lane_hidden_when_verified_on_itself() {
        // The paper's hidden-error scenario: same faulty core runs both.
        let mut log = ErrorLog::default();
        let hit = compare_staged(
            &StuckLane3,
            &mut log,
            CompareStage::Baseline,
            0,
            7,
            42,
            3,
            10,
            3,
            15,
        );
        assert!(!hit, "same-core verification must hide the stuck-at fault");
    }

    #[test]
    fn stuck_bit_already_set_is_benign() {
        // Value 43 already has bit 0 set; the stuck-at-1 changes nothing.
        let mut log = ErrorLog::default();
        let hit = compare_staged(
            &StuckLane3,
            &mut log,
            CompareStage::Baseline,
            0,
            7,
            43,
            3,
            10,
            0,
            15,
        );
        assert!(!hit);
    }

    /// A comparator on SM 0 that is stuck reporting "match".
    struct MuteComparator;
    impl FaultOracle for MuteComparator {
        fn transform(&self, site: LaneSite, _cycle: u64, value: u32) -> u32 {
            if site.sm == 0 && site.lane == 3 {
                value | 1
            } else {
                value
            }
        }
        fn verdict(&self, sm: usize, _cycle: u64, mismatch: bool) -> bool {
            mismatch && sm != 0
        }
    }

    #[test]
    fn staged_compare_matches_baseline_compare_for_lane_oracles() {
        for stage in [CompareStage::Intra, CompareStage::Inter] {
            let mut a = ErrorLog::default();
            let mut b = ErrorLog::default();
            let baseline = compare_staged(
                &StuckLane3,
                &mut a,
                CompareStage::Baseline,
                0,
                7,
                42,
                3,
                10,
                0,
                15,
            );
            let staged = compare_staged(&StuckLane3, &mut b, stage, 0, 7, 42, 3, 10, 0, 15);
            assert_eq!(baseline, staged);
            assert_eq!(a.total(), b.total());
        }
    }

    #[test]
    fn mute_comparator_swallows_a_real_mismatch() {
        let mut log = ErrorLog::default();
        let hit = compare_staged(
            &MuteComparator,
            &mut log,
            CompareStage::Inter,
            0,
            7,
            42,
            3,
            10,
            0,
            15,
        );
        assert!(!hit, "stuck-at-match comparator must hide the lane fault");
        assert!(!log.any());
    }

    #[test]
    fn stored_copy_corruption_fires_only_on_the_inter_path() {
        struct RottenStore;
        impl FaultOracle for RottenStore {
            fn transform(&self, _s: LaneSite, _c: u64, value: u32) -> u32 {
                value
            }
            fn stored_value(&self, _sm: usize, _c: u64, value: u32) -> u32 {
                value ^ 4
            }
        }
        let mut log = ErrorLog::default();
        assert!(compare_staged(
            &RottenStore,
            &mut log,
            CompareStage::Inter,
            0,
            7,
            42,
            3,
            10,
            0,
            15,
        ));
        assert!(!compare_staged(
            &RottenStore,
            &mut log,
            CompareStage::Intra,
            0,
            7,
            42,
            3,
            10,
            0,
            15,
        ));
    }

    #[test]
    fn mux_misroute_fires_only_on_the_intra_path() {
        struct BadMux;
        impl FaultOracle for BadMux {
            fn transform(&self, _s: LaneSite, _c: u64, value: u32) -> u32 {
                value
            }
            fn mux_misroute(&self, _sm: usize, verifier: usize) -> bool {
                verifier == 0
            }
        }
        let mut log = ErrorLog::default();
        assert!(compare_staged(
            &BadMux,
            &mut log,
            CompareStage::Intra,
            0,
            7,
            42,
            3,
            10,
            0,
            15,
        ));
        assert!(!compare_staged(
            &BadMux,
            &mut log,
            CompareStage::Inter,
            0,
            7,
            42,
            3,
            10,
            0,
            15,
        ));
    }

    #[test]
    fn default_checker_methods_are_healthy() {
        assert!(HealthyOracle.verdict(0, 1, true));
        assert!(!HealthyOracle.verdict(0, 1, false));
        assert_eq!(HealthyOracle.stored_value(0, 1, 9), 9);
        assert!(!HealthyOracle.mux_misroute(0, 5));
        assert_eq!(HealthyOracle.entry_mask(0, 0xF0), 0xF0);
    }

    #[test]
    fn first_only_judges_settle_and_skip_untouched_sms() {
        struct OnlySm0(StuckLane3);
        impl FaultOracle for OnlySm0 {
            fn transform(&self, site: LaneSite, cycle: u64, value: u32) -> u32 {
                self.0.transform(site, cycle, value)
            }
            fn touches(&self, sm: usize) -> bool {
                sm == 0
            }
        }
        let mut judges = Judges::first_only([
            Box::new(OnlySm0(StuckLane3)) as Box<dyn FaultOracle>,
            Box::new(HealthyOracle),
        ]);
        assert_eq!(judges.live_on(1).count(), 1, "SM 1 is untouched");
        for _ in 0..3 {
            for judge in judges.live_on(0) {
                judge.compare(CompareStage::Inter, 0, 7, 42, 3, 10, 0, 15);
            }
        }
        assert_eq!(judges.fired(), vec![true, false]);
        assert_eq!(judges.total(), 1, "a settled judge compares no more");
        assert_eq!(judges.live_on(0).count(), 1);

        let mut one = Judges::one(Box::new(StuckLane3));
        for _ in 0..3 {
            for judge in one.live_on(0) {
                judge.compare(CompareStage::Inter, 0, 7, 42, 3, 10, 0, 15);
            }
        }
        assert_eq!(
            one.first_log().total(),
            3,
            "a full judge keeps every detection"
        );
        assert!(!Judges::default().first_log().any());
    }

    #[test]
    fn log_caps_but_counts() {
        let mut log = ErrorLog::default();
        for i in 0..5000u64 {
            log.record(DetectedError {
                sm: 0,
                cycle: i,
                warp_uid: 0,
                original_lane: 0,
                verifier_lane: 1,
            });
        }
        assert_eq!(log.total(), 5000);
        assert_eq!(log.events().len(), 4096);
    }
}
