//! Property-based tests of the sub-word semantics and the emulator —
//! the ground truth every kernel correctness test rests on.

use proptest::prelude::*;
use simdsim_asm::Asm;
use simdsim_emu::subword::{
    acc_pack, accumulate, apply_shift, apply_vop, get_lane_i, get_lane_u, madd, pack, sad,
    scalar_ref, set_lane, splat, transpose, unpack,
};
use simdsim_emu::{Machine, NullSink};
use simdsim_isa::{AccOp, AluOp, Esz, Ext, Sat, VOp, VShiftOp};

const ALL_ESZ: [Esz; 4] = [Esz::B, Esz::H, Esz::W, Esz::D];

fn esz_strategy() -> impl Strategy<Value = Esz> {
    prop_oneof![Just(Esz::B), Just(Esz::H), Just(Esz::W)]
}

/// Every [`VOp`] that is total for `esz` in the scalar ground-truth model.
/// 64-bit saturating / averaging / high-multiply lanes route their exact
/// math through `i64` intermediates and are undefined on overflow (they
/// never appear in generated code), so they are excluded for `Esz::D`.
fn vops_for(esz: Esz) -> Vec<VOp> {
    let mut ops = vec![
        VOp::Add(esz),
        VOp::Sub(esz),
        VOp::Mullo(esz),
        VOp::MinS(esz),
        VOp::MinU(esz),
        VOp::MaxS(esz),
        VOp::MaxU(esz),
        VOp::CmpEq(esz),
        VOp::CmpGt(esz),
        VOp::And,
        VOp::Or,
        VOp::Xor,
        VOp::AndNot,
        VOp::Madd,
        VOp::Sad,
        VOp::UnpackLo(esz),
        VOp::UnpackHi(esz),
    ];
    if esz != Esz::D {
        ops.extend([
            VOp::AddS(esz),
            VOp::AddU(esz),
            VOp::SubS(esz),
            VOp::SubU(esz),
            VOp::Mulhi(esz),
            VOp::Avg(esz),
        ]);
    }
    if esz != Esz::B {
        ops.extend([VOp::PackS(esz), VOp::PackU(esz)]);
    }
    ops
}

/// Scales every lane of `w` down to about twice the range of the
/// half-size element, so narrowing ops see in-range and saturating lanes
/// alike (uniform words almost always saturate).
fn near_half_range(w: u128, esz: Esz) -> u128 {
    (0..esz.lanes(128)).fold(0, |out, l| {
        set_lane(
            out,
            esz,
            l,
            (get_lane_i(w, esz, l) >> (esz.bits() / 2 - 1)) as u64,
        )
    })
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
    fn vops_match_scalar_reference(a in any::<u128>(), b in any::<u128>()) {
        // The SWAR fast paths must be bit-identical to the per-lane
        // reference for every element size, opcode and register width.
        for esz in [Esz::B, Esz::H, Esz::W, Esz::D] {
            for op in vops_for(esz) {
                for width in [8usize, 16] {
                    prop_assert_eq!(
                        apply_vop(op, a, b, width),
                        scalar_ref::apply_vop(op, a, b, width),
                        "op {:?} width {}",
                        op,
                        width
                    );
                }
            }
        }
    }

    #[test]
    fn shifts_match_scalar_reference(a in any::<u128>(), amt in any::<u8>()) {
        for esz in [Esz::B, Esz::H, Esz::W, Esz::D] {
            for op in [VShiftOp::Sll(esz), VShiftOp::Srl(esz), VShiftOp::Sra(esz)] {
                for width in [8usize, 16] {
                    // Full-range amounts plus the in-range remainder, so the
                    // saturating >= bits behaviour and every lane-internal
                    // amount both get exercised.
                    for a_eff in [amt, amt % (esz.bits() as u8)] {
                        prop_assert_eq!(
                            apply_shift(op, a, a_eff, width),
                            scalar_ref::apply_shift(op, a, a_eff, width),
                            "op {:?} amt {} width {}",
                            op,
                            a_eff,
                            width
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn splat_matches_scalar_reference(v in any::<u64>()) {
        for esz in [Esz::B, Esz::H, Esz::W, Esz::D] {
            for width in [8usize, 16] {
                prop_assert_eq!(
                    splat(v, esz, width),
                    scalar_ref::splat(v, esz, width),
                    "esz {:?} width {}",
                    esz,
                    width
                );
            }
        }
    }

    #[test]
    fn sad_matches_scalar_reference(a in any::<u128>(), b in any::<u128>()) {
        for width in [8usize, 16] {
            prop_assert_eq!(sad(a, b, width), scalar_ref::sad(a, b, width));
        }
    }

    #[test]
    fn madd_and_unpack_match_scalar_reference(a in any::<u128>(), b in any::<u128>()) {
        for width in [8usize, 16] {
            prop_assert_eq!(madd(a, b, width), scalar_ref::madd(a, b, width), "width {}", width);
            for esz in ALL_ESZ {
                for hi in [false, true] {
                    prop_assert_eq!(
                        unpack(a, b, esz, width, hi),
                        scalar_ref::unpack(a, b, esz, width, hi),
                        "esz {:?} width {} hi {}",
                        esz,
                        width,
                        hi
                    );
                }
            }
        }
    }

    #[test]
    fn pack_matches_scalar_reference(a in any::<u128>(), b in any::<u128>()) {
        for esz in [Esz::H, Esz::W, Esz::D] {
            let (na, nb) = (near_half_range(a, esz), near_half_range(b, esz));
            for (x, y) in [(a, b), (na, nb), (na, b)] {
                for width in [8usize, 16] {
                    for unsigned in [false, true] {
                        prop_assert_eq!(
                            pack(x, y, esz, width, unsigned),
                            scalar_ref::pack(x, y, esz, width, unsigned),
                            "esz {:?} width {} unsigned {}",
                            esz,
                            width,
                            unsigned
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn accumulators_match_scalar_reference(
        a in any::<u128>(),
        b in any::<u128>(),
        init in prop::collection::vec(any::<i32>(), 8),
    ) {
        let init: [i64; 8] = std::array::from_fn(|l| i64::from(init[l]));
        for op in [AccOp::Sad, AccOp::Ssd, AccOp::Mac, AccOp::AddH] {
            for width in [8usize, 16] {
                let (mut fast, mut slow) = (init, init);
                // Several rows into one accumulator, as `MAcc` does.
                for (x, y) in [(a, b), (b, a), (a ^ b, a)] {
                    accumulate(op, &mut fast, x, y, width);
                    scalar_ref::accumulate(op, &mut slow, x, y, width);
                }
                prop_assert_eq!(fast, slow, "op {:?} width {}", op, width);
            }
        }
    }

    #[test]
    fn acc_pack_matches_scalar_reference(
        lanes in prop::collection::vec(any::<i64>(), 8),
        shift in 0u8..40,
    ) {
        let raw: [i64; 8] = std::array::from_fn(|l| lanes[l]);
        for esz in ALL_ESZ {
            // Raw lanes almost always saturate; scaled ones straddle the
            // element range.
            let scaled = raw.map(|x| x >> (63 - esz.bits().min(63)));
            for acc in [raw, scaled] {
                for sat in [Sat::Wrap, Sat::Signed, Sat::Unsigned] {
                    for width in [8usize, 16] {
                        prop_assert_eq!(
                            acc_pack(&acc, esz, sat, shift, width),
                            scalar_ref::acc_pack(&acc, esz, sat, shift, width),
                            "esz {:?} sat {:?} shift {} width {}",
                            esz,
                            sat,
                            shift,
                            width
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_matches_scalar_reference(rows in prop::collection::vec(any::<u128>(), 16)) {
        for esz in ALL_ESZ {
            for width in [8usize, 16] {
                let n = width / esz.bytes();
                prop_assert_eq!(
                    transpose(&rows[..n], esz),
                    scalar_ref::transpose(&rows[..n], esz),
                    "esz {:?} width {}",
                    esz,
                    width
                );
            }
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
