//! The emulator's sub-word kernels against the reference interpreter's
//! per-lane oracle.
//!
//! `simdsim_emu::subword` computes every SIMD op with SWAR bit tricks or
//! lane arrays; [`simdsim_conform::refint`] defines the same ops lane by
//! lane, and is what `RefMachine` itself executes.  These tests drive
//! every public kernel against its oracle across every `Esz` x op x
//! width combination, so a disagreement surfaces per op instead of only
//! through whole programs in the corpus and the fuzzer.

use proptest::prelude::*;
use simdsim_conform::refint;
use simdsim_emu::subword::{
    acc_pack, accumulate, apply_shift, apply_vop, get_lane_i, madd, pack, sad, set_lane, splat,
    transpose, unpack,
};
use simdsim_isa::{AccOp, Esz, Sat, VOp, VShiftOp};

const ALL_ESZ: [Esz; 4] = [Esz::B, Esz::H, Esz::W, Esz::D];

/// Every [`VOp`] on which the emulator and the oracle share a definition
/// for `esz`.  The emulator routes 64-bit saturating / averaging /
/// high-multiply lanes through `i64` intermediates that are undefined on
/// overflow, while the oracle computes them exactly in `i128` (a documented
/// non-goal of `refint`; such lanes never appear in generated code), so
/// they are excluded for `Esz::D`.
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

/// The [`VOp`] behind `subword::unpack(.., hi)`.
fn unpack_op(esz: Esz, hi: bool) -> VOp {
    if hi {
        VOp::UnpackHi(esz)
    } else {
        VOp::UnpackLo(esz)
    }
}

/// The [`VOp`] behind `subword::pack(.., unsigned)`.
fn pack_op(esz: Esz, unsigned: bool) -> VOp {
    if unsigned {
        VOp::PackU(esz)
    } else {
        VOp::PackS(esz)
    }
}

proptest! {
    #[test]
    fn vops_match_scalar_reference(a in any::<u128>(), b in any::<u128>()) {
        // The SWAR and lane-array fast paths must be bit-identical to the
        // per-lane oracle for every element size, opcode and register width.
        for esz in [Esz::B, Esz::H, Esz::W, Esz::D] {
            for op in vops_for(esz) {
                for width in [8usize, 16] {
                    prop_assert_eq!(
                        apply_vop(op, a, b, width),
                        refint::vop(op, a, b, width),
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
                            refint::vshift(op, a, a_eff, width),
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
                    refint::splat(v, esz, width),
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
            prop_assert_eq!(sad(a, b, width), refint::vop(VOp::Sad, a, b, width));
        }
    }

    #[test]
    fn madd_and_unpack_match_scalar_reference(a in any::<u128>(), b in any::<u128>()) {
        for width in [8usize, 16] {
            prop_assert_eq!(madd(a, b, width), refint::vop(VOp::Madd, a, b, width), "width {}", width);
            for esz in ALL_ESZ {
                for hi in [false, true] {
                    prop_assert_eq!(
                        unpack(a, b, esz, width, hi),
                        refint::vop(unpack_op(esz, hi), a, b, width),
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
                            refint::vop(pack_op(esz, unsigned), x, y, width),
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
                    refint::accumulate(op, &mut slow, x, y, width);
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
                            refint::acc_pack(&acc, esz, sat, shift, width),
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
                    refint::transpose(&rows, esz, width),
                    "esz {:?} width {}",
                    esz,
                    width
                );
            }
        }
    }
}

// Deterministic spot checks on fixed boundary operands; the randomised
// sweeps are above.

#[test]
fn swar_matches_scalar_spot_checks() {
    let a: u128 = 0x8000_7fff_0001_fffe_80ff_0100_7f80_01ff;
    let b: u128 = 0x7fff_8001_ffff_0002_01ff_80fe_ff00_8080;
    for e in [Esz::B, Esz::H, Esz::W] {
        for op in [
            VOp::Add(e),
            VOp::Sub(e),
            VOp::AddS(e),
            VOp::SubS(e),
            VOp::AddU(e),
            VOp::SubU(e),
            VOp::Avg(e),
            VOp::MinS(e),
            VOp::MaxS(e),
            VOp::MinU(e),
            VOp::MaxU(e),
            VOp::CmpEq(e),
            VOp::CmpGt(e),
        ] {
            for width in [8usize, 16] {
                assert_eq!(
                    apply_vop(op, a, b, width),
                    refint::vop(op, a, b, width),
                    "{op:?} width {width}"
                );
            }
        }
    }
    assert_eq!(sad(a, b, 16), refint::vop(VOp::Sad, a, b, 16));
    assert_eq!(sad(a, b, 8), refint::vop(VOp::Sad, a, b, 8));
}

#[test]
fn lane_array_ops_match_scalar_spot_checks() {
    // Boundary lanes (0x7f.., 0x80.., all-ones, ±1) in every size.
    let a: u128 = 0x8000_7fff_0001_fffe_80ff_0100_7f80_01ff;
    let b: u128 = 0x7fff_8001_ffff_0002_01ff_80fe_ff00_8080;
    for width in [8usize, 16] {
        for e in [Esz::B, Esz::H, Esz::W, Esz::D] {
            let mut ops = vec![VOp::Mullo(e), VOp::UnpackLo(e), VOp::UnpackHi(e)];
            if e != Esz::D {
                ops.push(VOp::Mulhi(e));
            }
            if e != Esz::B {
                ops.extend([VOp::PackS(e), VOp::PackU(e)]);
            }
            for op in ops {
                assert_eq!(
                    apply_vop(op, a, b, width),
                    refint::vop(op, a, b, width),
                    "{op:?} width {width}"
                );
            }
            let rows = [a, b, a ^ b, !a, b.rotate_left(8), a.rotate_right(16), 0, !0];
            let m = &rows[..(width / e.bytes()).min(rows.len())];
            if m.len() == width / e.bytes() {
                assert_eq!(transpose(m, e), refint::transpose(m, e, width), "{e:?}");
            }
            let acc = [i64::MIN, -129, -1, 0, 1, 255, 0x8000, i64::MAX];
            for sat in [Sat::Wrap, Sat::Signed, Sat::Unsigned] {
                assert_eq!(
                    acc_pack(&acc, e, sat, 1, width),
                    refint::acc_pack(&acc, e, sat, 1, width),
                    "{e:?} {sat:?} width {width}"
                );
            }
        }
        assert_eq!(madd(a, b, width), refint::vop(VOp::Madd, a, b, width));
        // (-2^15)² + (-2^15)² = 2^31 wraps to i32::MIN.
        let min = splat(0x8000, Esz::H, width);
        assert_eq!(madd(min, min, width), splat(0x8000_0000, Esz::W, width));
        for op in [AccOp::Sad, AccOp::Ssd, AccOp::Mac, AccOp::AddH] {
            let (mut fast, mut slow) = ([7i64; 8], [7i64; 8]);
            accumulate(op, &mut fast, a, b, width);
            refint::accumulate(op, &mut slow, a, b, width);
            assert_eq!(fast, slow, "{op:?} width {width}");
        }
    }
}

#[test]
fn swar_shift_matches_scalar_all_amounts() {
    let a: u128 = 0x8000_7fff_0001_fffe_80ff_0100_7f80_01ff;
    for e in [Esz::B, Esz::H, Esz::W, Esz::D] {
        for amt in 0..=(e.bits() as u8 + 2) {
            for op in [VShiftOp::Sll(e), VShiftOp::Srl(e), VShiftOp::Sra(e)] {
                for width in [8usize, 16] {
                    assert_eq!(
                        apply_shift(op, a, amt, width),
                        refint::vshift(op, a, amt, width),
                        "{op:?} amt {amt} width {width}"
                    );
                }
            }
        }
    }
}
