//! Property: wherever a fault model's `touches(sm)` is false, all five
//! `FaultOracle` hooks are the identity on `sm`.
//!
//! The Warped-DMR and DMTR engines skip every comparison on an SM their
//! oracle does not touch, so a `touches` that answers `false` too eagerly
//! would silently drop detections.

use proptest::prelude::*;
use warped_core::{FaultOracle, LaneSite};
use warped_faults::{CheckerFault, CompoundFault, FaultModel};

const SMS: usize = 4;

fn lane_fault() -> impl Strategy<Value = FaultModel> {
    (0..SMS, 0usize..32, (0u64..64, 0u8..32), any::<bool>()).prop_map(
        |(sm, lane, (cycle, bit), stuck)| {
            let site = LaneSite { sm, lane };
            if stuck {
                FaultModel::StuckAt {
                    site,
                    bit,
                    value: cycle % 2 == 1,
                }
            } else {
                FaultModel::TransientFlip { site, cycle, bit }
            }
        },
    )
}

fn checker_fault() -> impl Strategy<Value = CheckerFault> {
    (0..SMS, 0u8..4, 0usize..8, 0u8..32).prop_map(|(sm, kind, cluster, bit)| match kind {
        0 => CheckerFault::ComparatorStuckPass { sm },
        1 => CheckerFault::RfuMuxSelect {
            sm,
            cluster,
            cluster_size: 4,
        },
        2 => CheckerFault::ReplayqMaskDrop { sm, bit },
        _ => CheckerFault::StoredResultFlip { sm, bit },
    })
}

/// Either half present or absent (a default `CompoundFault` is healthy).
fn compound_fault() -> impl Strategy<Value = CompoundFault> {
    (lane_fault(), checker_fault(), 0u8..4).prop_map(|(lane, checker, halves)| CompoundFault {
        lane: (halves & 1 != 0).then_some(lane),
        checker: (halves & 2 != 0).then_some(checker),
    })
}

/// One call of every hook on `sm`: (lane, verifier, cycle, value, mask,
/// raw mismatch).
type Probe = (usize, (usize, usize), (u64, u32, u32), bool);

fn probe() -> impl Strategy<Value = Probe> {
    (
        0..SMS,
        (0usize..32, 0usize..32),
        (0u64..64, any::<u32>(), any::<u32>()),
        any::<bool>(),
    )
}

fn assert_identity_unless_touched(oracle: &dyn FaultOracle, probe: Probe) {
    let (sm, (lane, verifier), (cycle, value, mask), mismatch) = probe;
    if oracle.touches(sm) {
        return;
    }
    assert_eq!(oracle.transform(LaneSite { sm, lane }, cycle, value), value);
    assert_eq!(oracle.verdict(sm, cycle, mismatch), mismatch);
    assert_eq!(oracle.stored_value(sm, cycle, value), value);
    assert!(!oracle.mux_misroute(sm, verifier));
    assert_eq!(oracle.entry_mask(sm, mask), mask);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn untouched_sms_see_identity_hooks(fault in compound_fault(), p in probe()) {
        assert_identity_unless_touched(&fault, p);
        if let Some(lane) = fault.lane {
            assert_identity_unless_touched(&lane, p);
        }
        if let Some(checker) = fault.checker {
            assert_identity_unless_touched(&checker, p);
        }
    }

    #[test]
    fn a_fault_touches_its_own_sm(fault in compound_fault()) {
        let sms = fault.lane.map(|f| f.site().sm).into_iter()
            .chain(fault.checker.map(|c| c.sm()));
        for sm in sms {
            prop_assert!(fault.touches(sm), "{fault:?} must touch SM {sm}");
        }
    }
}

#[test]
fn a_healthy_compound_touches_nothing() {
    let healthy = CompoundFault::default();
    assert!((0..SMS).all(|sm| !healthy.touches(sm)));
}
