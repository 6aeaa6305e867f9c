//! Property-based tests of the sub-word semantics and the emulator —
//! the ground truth every kernel correctness test rests on.  The
//! op-by-op comparison of every sub-word kernel against the reference
//! interpreter's per-lane oracle lives in `simdsim-conform`'s
//! `tests/prop.rs`.

use proptest::prelude::*;
use simdsim_asm::Asm;
use simdsim_emu::subword::{apply_shift, apply_vop, get_lane_i, get_lane_u, sad, set_lane, splat};
use simdsim_emu::{Machine, NullSink};
use simdsim_isa::{AluOp, Esz, Ext, VOp, VShiftOp};

fn esz_strategy() -> impl Strategy<Value = Esz> {
    prop_oneof![Just(Esz::B), Just(Esz::H), Just(Esz::W)]
}

proptest! {
    #[test]
    fn lane_set_get_roundtrip(word in any::<u128>(), esz in esz_strategy(), lane in 0usize..4, val in any::<u64>()) {
        let lanes = esz.lanes(128);
        let lane = lane % lanes;
        let w = set_lane(word, esz, lane, val);
        let mask = u64::MAX >> (64 - esz.bits());
        prop_assert_eq!(get_lane_u(w, esz, lane), val & mask);
        // Other lanes untouched.
        for l in 0..lanes.min(8) {
            if l != lane {
                prop_assert_eq!(get_lane_u(w, esz, l), get_lane_u(word, esz, l));
            }
        }
    }

    #[test]
    fn signed_unsigned_lane_agree(word in any::<u128>(), esz in esz_strategy(), lane in 0usize..8) {
        let lanes = esz.lanes(128);
        let lane = lane % lanes;
        let u = get_lane_u(word, esz, lane);
        let i = get_lane_i(word, esz, lane);
        let mask = u64::MAX >> (64 - esz.bits());
        prop_assert_eq!((i as u64) & mask, u);
    }

    #[test]
    fn add_sub_inverse(a in any::<u128>(), b in any::<u128>(), esz in esz_strategy()) {
        for width in [8usize, 16] {
            let s = apply_vop(VOp::Add(esz), a, b, width);
            let back = apply_vop(VOp::Sub(esz), s, b, width);
            let mask = if width == 16 { u128::MAX } else { (1u128 << 64) - 1 };
            prop_assert_eq!(back, a & mask);
        }
    }

    #[test]
    fn saturating_add_bounds(a in any::<u128>(), b in any::<u128>(), esz in esz_strategy()) {
        let r = apply_vop(VOp::AddS(esz), a, b, 16);
        for l in 0..esz.lanes(128) {
            let x = get_lane_i(a, esz, l);
            let y = get_lane_i(b, esz, l);
            let got = get_lane_i(r, esz, l);
            let exact = x + y;
            let (lo, hi) = match esz {
                Esz::B => (i64::from(i8::MIN), i64::from(i8::MAX)),
                Esz::H => (i64::from(i16::MIN), i64::from(i16::MAX)),
                _ => (i64::from(i32::MIN), i64::from(i32::MAX)),
            };
            prop_assert_eq!(got, exact.clamp(lo, hi));
        }
    }

    #[test]
    fn sad_properties(a in any::<u128>(), b in any::<u128>()) {
        // Symmetric, zero on identical inputs, bounded by 8*255 per group.
        prop_assert_eq!(sad(a, b, 16), sad(b, a, 16));
        prop_assert_eq!(sad(a, a, 16), 0);
        let r = sad(a, b, 16);
        prop_assert!((r as u64) <= 8 * 255);
        prop_assert!(((r >> 64) as u64) <= 8 * 255);
    }

    #[test]
    fn unpack_lo_hi_partition(a in any::<u128>(), b in any::<u128>(), esz in esz_strategy()) {
        // UnpackLo/Hi together contain every element of a and b exactly once.
        let lo = apply_vop(VOp::UnpackLo(esz), a, b, 16);
        let hi = apply_vop(VOp::UnpackHi(esz), a, b, 16);
        let n = esz.lanes(128);
        let mut seen_a = Vec::new();
        let mut seen_b = Vec::new();
        for l in 0..n / 2 {
            seen_a.push(get_lane_u(lo, esz, 2 * l));
            seen_b.push(get_lane_u(lo, esz, 2 * l + 1));
        }
        for l in 0..n / 2 {
            seen_a.push(get_lane_u(hi, esz, 2 * l));
            seen_b.push(get_lane_u(hi, esz, 2 * l + 1));
        }
        let want_a: Vec<u64> = (0..n).map(|l| get_lane_u(a, esz, l)).collect();
        let want_b: Vec<u64> = (0..n).map(|l| get_lane_u(b, esz, l)).collect();
        prop_assert_eq!(seen_a, want_a);
        prop_assert_eq!(seen_b, want_b);
    }

    #[test]
    fn shifts_match_scalar_model(a in any::<u128>(), amt in 0u8..20, esz in esz_strategy()) {
        let r = apply_shift(VShiftOp::Sra(esz), a, amt, 16);
        for l in 0..esz.lanes(128) {
            let x = get_lane_i(a, esz, l);
            let sh = u32::from(amt).min(esz.bits() as u32 - 1);
            let want = (x >> sh) as u64 & (u64::MAX >> (64 - esz.bits()));
            prop_assert_eq!(get_lane_u(r, esz, l), want);
        }
    }

    #[test]
    fn splat_fills_every_lane(v in any::<u64>(), esz in esz_strategy()) {
        let w = splat(v, esz, 16);
        let mask = u64::MAX >> (64 - esz.bits());
        for l in 0..esz.lanes(128) {
            prop_assert_eq!(get_lane_u(w, esz, l), v & mask);
        }
    }

    #[test]
    fn alu_programs_match_rust_semantics(
        ops in prop::collection::vec((0usize..10, any::<i32>()), 1..40),
        x0 in any::<i32>(),
    ) {
        // Build a straight-line ALU program and mirror it in Rust.
        let mut a = Asm::new();
        let r = a.arg(0);
        let mut model = i64::from(x0);
        for (op, imm) in &ops {
            let imm = *imm;
            match op {
                0 => { a.addi(r, r, imm); model = model.wrapping_add(i64::from(imm)); }
                1 => { a.subi(r, r, imm); model = model.wrapping_sub(i64::from(imm)); }
                2 => { a.muli(r, r, imm); model = model.wrapping_mul(i64::from(imm)); }
                3 => { a.and(r, r, imm); model &= i64::from(imm); }
                4 => { a.or(r, r, imm); model |= i64::from(imm); }
                5 => { a.xor(r, r, imm); model ^= i64::from(imm); }
                6 => { a.slli(r, r, imm.rem_euclid(63)); model = ((model as u64) << (imm.rem_euclid(63) as u64)) as i64; }
                7 => { a.srli(r, r, imm.rem_euclid(63)); model = ((model as u64) >> (imm.rem_euclid(63) as u64)) as i64; }
                8 => { a.srai(r, r, imm.rem_euclid(63)); model >>= imm.rem_euclid(63) as u64; }
                _ => {
                    a.alu(AluOp::Div, r, r, imm);
                    model = if i64::from(imm) == 0 { 0 } else { model.wrapping_div(i64::from(imm)) };
                }
            }
        }
        a.halt();
        let prog = a.finish();
        let mut m = Machine::new(Ext::Mmx64, 64);
        m.set_ireg(0, i64::from(x0));
        m.run(&prog, &mut NullSink, 10_000).unwrap();
        prop_assert_eq!(m.ireg(0), model);
    }
}
