//! Property: every lane-vector evaluator equals its scalar `eval_*`
//! helper on every lane, bit for bit.
//!
//! The SM executes whole warps through the `*_lanes` evaluators while the
//! scalar helpers stay the one definition of each opcode's semantics, so
//! the two must never disagree. Lane values mix uniform random words with
//! the edge cases the ops treat specially: NaNs, infinities, signed
//! zeros, zero divisors, and shift amounts of 32 and more.

use proptest::prelude::*;
use warped_isa::{AluBinOp, AluUnOp, CmpOp, CmpType, SfuOp};
use warped_sim::functional::{
    bin_lanes, cmp_lanes, eval_bin, eval_cmp, eval_ffma, eval_imad, eval_sel, eval_sfu, eval_un,
    ffma_lanes, imad_lanes, sel_lanes, sfu_lanes, un_lanes, Lanes,
};
use warped_sim::WARP_SIZE;

const BIN_OPS: [AluBinOp; 21] = [
    AluBinOp::IAdd,
    AluBinOp::ISub,
    AluBinOp::IMul,
    AluBinOp::IMulHi,
    AluBinOp::IMin,
    AluBinOp::IMax,
    AluBinOp::UMin,
    AluBinOp::UMax,
    AluBinOp::And,
    AluBinOp::Or,
    AluBinOp::Xor,
    AluBinOp::Shl,
    AluBinOp::Shr,
    AluBinOp::Sra,
    AluBinOp::URem,
    AluBinOp::UDiv,
    AluBinOp::FAdd,
    AluBinOp::FSub,
    AluBinOp::FMul,
    AluBinOp::FMin,
    AluBinOp::FMax,
];

const UN_OPS: [AluUnOp; 11] = [
    AluUnOp::Mov,
    AluUnOp::Not,
    AluUnOp::INeg,
    AluUnOp::FNeg,
    AluUnOp::FAbs,
    AluUnOp::CvtI2F,
    AluUnOp::CvtU2F,
    AluUnOp::CvtF2I,
    AluUnOp::CvtF2U,
    AluUnOp::Clz,
    AluUnOp::Popc,
];

const SFU_OPS: [SfuOp; 7] = [
    SfuOp::Sin,
    SfuOp::Cos,
    SfuOp::Sqrt,
    SfuOp::Rsqrt,
    SfuOp::Rcp,
    SfuOp::Ex2,
    SfuOp::Lg2,
];

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

const CMP_TYPES: [CmpType; 3] = [CmpType::I32, CmpType::U32, CmpType::F32];

/// One lane's value: mostly random words, often an edge case.
fn lane_value() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        any::<u32>(),
        Just(0u32),
        Just(1u32),
        Just(u32::MAX),
        Just(0x8000_0000u32),
        32u32..70,
        Just(f32::NAN.to_bits()),
        Just((-f32::NAN).to_bits()),
        Just(f32::INFINITY.to_bits()),
        Just(f32::NEG_INFINITY.to_bits()),
        Just((-0.0f32).to_bits()),
        (-1000i32..1000).prop_map(|v| (v as f32 * 0.37).to_bits()),
    ]
}

fn lanes() -> impl Strategy<Value = Lanes> {
    prop::collection::vec(lane_value(), WARP_SIZE..WARP_SIZE + 1)
        .prop_map(|v| v.try_into().expect("exactly one warp of lanes"))
}

/// `f` applied lane by lane: the scalar reference.
fn per_lane(f: impl Fn(usize) -> u32) -> Lanes {
    std::array::from_fn(f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lane_evaluators_match_scalar_semantics(a in lanes(), b in lanes(), c in lanes()) {
        for op in BIN_OPS {
            prop_assert_eq!(
                bin_lanes(op, &a, &b),
                per_lane(|l| eval_bin(op, a[l], b[l])),
                "{:?}", op
            );
        }
        for op in UN_OPS {
            prop_assert_eq!(un_lanes(op, &a), per_lane(|l| eval_un(op, a[l])), "{:?}", op);
        }
        for op in SFU_OPS {
            prop_assert_eq!(sfu_lanes(op, &a), per_lane(|l| eval_sfu(op, a[l])), "{:?}", op);
        }
        for ty in CMP_TYPES {
            for cmp in CMP_OPS {
                prop_assert_eq!(
                    cmp_lanes(cmp, ty, &a, &b),
                    per_lane(|l| eval_cmp(cmp, ty, a[l], b[l])),
                    "{:?} {:?}", cmp, ty
                );
            }
        }
        prop_assert_eq!(imad_lanes(&a, &b, &c), per_lane(|l| eval_imad(a[l], b[l], c[l])));
        prop_assert_eq!(ffma_lanes(&a, &b, &c), per_lane(|l| eval_ffma(a[l], b[l], c[l])));
        prop_assert_eq!(sel_lanes(&a, &b, &c), per_lane(|l| eval_sel(a[l], b[l], c[l])));
    }
}
