//! The 8×8 forward and inverse DCT kernels (`fdct`, `idct`).
//!
//! Both transforms are defined as exact fixed-point matrix products so
//! that every ISA variant computes bit-identical results:
//!
//! ```text
//! pass(M)   = sat16((COEF · M + 1024) >> 11)        (COEF scaled by 2048)
//! fdct(X)   = pass( transpose( pass( transpose(X) ) ) )   with COEF = C
//! idct(Y)   = same with COEF = Cᵀ
//! ```
//!
//! The variant implementations reproduce the costs the paper discusses:
//!
//! * **scalar** — 1024 multiply-accumulates with per-element loads;
//! * **MMX64** — in-register 4×4-block transposes through scratch memory
//!   (too few registers to hold the block, the pass results spill);
//! * **MMX128** — full in-register transpose via `unpack` networks,
//!   32-bit precision recovered with `mullo`/`mulhi` pairs;
//! * **VMMX** — the whole block lives in matrix registers, the eight
//!   coefficient-column matrices stay resident across blocks
//!   ("matrix registers used as a cache"), and products accumulate with
//!   full-vector-length operations.

use crate::{BuiltKernel, Kernel, KernelSpec, Variant};
use simdsim_asm::Asm;
use simdsim_emu::{Layout, Machine};
use simdsim_isa::{Esz, IReg, MOperand, MReg, VLoc, VOp, VReg, VShiftOp};

/// Fixed-point scale of the coefficient matrices (`2^11`).
pub const COEF_SHIFT: u32 = 11;
const ROUND: i32 = 1 << (COEF_SHIFT - 1);

/// The forward-DCT coefficient matrix `C` (row-major, scaled by 2048):
/// `C[k][j] = round(2048 · s_k · cos((2j+1)kπ/16))` with
/// `s_0 = √(1/8)`, `s_k = 1/2`.
#[must_use]
pub fn fdct_matrix() -> [i16; 64] {
    let mut c = [0i16; 64];
    for k in 0..8 {
        let sk = if k == 0 { (1.0f64 / 8.0).sqrt() } else { 0.5 };
        for j in 0..8 {
            let v = 2048.0
                * sk
                * ((2.0 * j as f64 + 1.0) * k as f64 * std::f64::consts::PI / 16.0).cos();
            c[k * 8 + j] = v.round() as i16;
        }
    }
    c
}

/// The inverse-DCT coefficient matrix `Cᵀ`.
#[must_use]
pub fn idct_matrix() -> [i16; 64] {
    let c = fdct_matrix();
    let mut d = [0i16; 64];
    for k in 0..8 {
        for j in 0..8 {
            d[k * 8 + j] = c[j * 8 + k];
        }
    }
    d
}

/// Transposes a row-major 8×8 `i16` matrix.
#[must_use]
pub fn transpose64(m: &[i16]) -> [i16; 64] {
    let mut out = [0i16; 64];
    for r in 0..8 {
        for c in 0..8 {
            out[r * 8 + c] = m[c * 8 + r];
        }
    }
    out
}

/// Golden single pass: `out[k][c] = sat16((Σ_j coef[k][j]·inp[j][c] + 1024) >> 11)`.
#[must_use]
pub fn golden_pass(inp: &[i16], coef: &[i16]) -> [i16; 64] {
    let mut out = [0i16; 64];
    for k in 0..8 {
        for c in 0..8 {
            let mut s: i32 = ROUND;
            for j in 0..8 {
                s = s.wrapping_add(i32::from(coef[k * 8 + j]) * i32::from(inp[j * 8 + c]));
            }
            out[k * 8 + c] =
                (s >> COEF_SHIFT).clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16;
        }
    }
    out
}

/// Golden 2-D transform (both DCT directions, depending on `coef`).
#[must_use]
pub fn golden_transform(x: &[i16], coef: &[i16]) -> [i16; 64] {
    let t1 = golden_pass(&transpose64(x), coef);
    golden_pass(&transpose64(&t1), coef)
}

/// Builds the coefficient-column table for the matrix variants: for each
/// source row `j`, an 8-row block whose row `k` is the 16-bit splat of
/// `coef[k][j]`, `width` bytes per row.
#[must_use]
pub fn dct_coltab(coef: &[i16], width: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * 8 * width);
    for j in 0..8 {
        for k in 0..8 {
            let v = coef[k * 8 + j];
            for _ in 0..width / 2 {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    out
}

/// Argument registers of one 8×8 transform invocation.
#[derive(Debug, Clone, Copy)]
pub struct DctArgs {
    /// Input block pointer (row-major, 8 rows × 16 bytes).
    pub inp: IReg,
    /// Output block pointer.
    pub outp: IReg,
    /// Scratch area (at least 384 bytes; scalar and MMX64 variants spill).
    pub scratch: IReg,
    /// Coefficient-column table (matrix variants; see [`dct_coltab`]).
    pub coltab: IReg,
}

/// Emits one 8×8 transform in the requested variant.
///
/// `coef` selects the direction ([`fdct_matrix`] or [`idct_matrix`]); the
/// matrix variants expect the same matrix's [`dct_coltab`] in memory.
pub fn emit_dct(a: &mut Asm, v: Variant, coef: &[i16; 64], args: &DctArgs) {
    match v {
        Variant::Scalar => emit_scalar(a, coef, args),
        Variant::Mmx64 => a.vector_region(|a| emit_mmx64(a, coef, args)),
        Variant::Mmx128 => a.vector_region(|a| emit_mmx128(a, coef, args)),
        Variant::Vmmx64 => a.vector_region(|a| emit_vmmx64_body(a, args)),
        Variant::Vmmx128 => a.vector_region(|a| {
            // Without a caller-hoisted coefficient load the columns are
            // (re)loaded here; block loops should hoist via
            // `emit_vmmx128_coltab_load` instead.
            let cols = emit_vmmx128_coltab_load(a, args.coltab);
            emit_vmmx128_body(a, &cols, args);
            for m in cols {
                a.release_mreg(m);
            }
        }),
    }
}

/// Emits the hoisted per-kernel setup of the matrix variants: loads the
/// coefficient-column matrices into registers `m8..m15` (VMMX128) or
/// nothing (VMMX64 streams them from the table).  Returns the registers.
pub fn emit_vmmx128_coltab_load(a: &mut Asm, coltab: IReg) -> Vec<MReg> {
    let cols: Vec<MReg> = (0..8).map(|_| a.mreg()).collect();
    a.setvl(8);
    let p = a.ireg();
    a.mv(p, coltab);
    for (j, m) in cols.iter().enumerate() {
        a.mload(*m, p, 16, 16);
        if j != 7 {
            a.addi(p, p, 128);
        }
    }
    a.release_ireg(p);
    cols
}

// ----------------------------------------------------------------------
// Scalar
// ----------------------------------------------------------------------

fn emit_scalar(a: &mut Asm, coef: &[i16; 64], args: &DctArgs) {
    // pass1: scratch[k][c] = Σ_j coef[k][j] · inp[c][j]  (reads inp transposed)
    // pass2: outp[k][c]    = Σ_j coef[k][j] · scratch[c][j]
    for pass in 0..2 {
        let (src, dst) = if pass == 0 {
            (args.inp, args.scratch)
        } else {
            (args.scratch, args.outp)
        };
        for k in 0..8usize {
            let (c, s, t, rowp, dstp) = (a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg());
            a.addi(dstp, dst, (k * 16) as i32);
            a.li(c, 0);
            a.mv(rowp, src);
            a.for_loop(c, 8, |a| {
                a.li(s, ROUND as i64);
                for j in 0..8usize {
                    let cf = i64::from(coef[k * 8 + j]);
                    if cf != 0 {
                        a.lh(t, rowp, (j * 2) as i32);
                        a.muli(t, t, cf as i32);
                        a.add(s, s, t);
                    }
                }
                a.srai(s, s, COEF_SHIFT as i32);
                a.if_(simdsim_isa::Cond::Gt, s, 32767, |a| a.li(s, 32767));
                a.if_(simdsim_isa::Cond::Lt, s, -32768, |a| a.li(s, -32768));
                a.sh(s, dstp, 0);
                a.addi(dstp, dstp, 2);
                a.addi(rowp, rowp, 16);
            });
            for r in [c, s, t, rowp, dstp] {
                a.release_ireg(r);
            }
        }
    }
}

// ----------------------------------------------------------------------
// MMX common pieces
// ----------------------------------------------------------------------

/// 4×4 16-bit in-register transpose (two unpack stages) for 64-bit words.
fn transpose4x4_mmx64(a: &mut Asm, src: [VReg; 4], dst: [VReg; 4], t: [VReg; 2]) {
    // stage 1: interleave 16-bit
    a.simd(VOp::UnpackLo(Esz::H), t[0], src[0], src[1]);
    a.simd(VOp::UnpackHi(Esz::H), t[1], src[0], src[1]);
    a.simd(VOp::UnpackLo(Esz::H), dst[2], src[2], src[3]);
    a.simd(VOp::UnpackHi(Esz::H), dst[3], src[2], src[3]);
    // stage 2: interleave 32-bit
    a.simd(VOp::UnpackLo(Esz::W), dst[0], t[0], dst[2]);
    a.simd(VOp::UnpackHi(Esz::W), dst[1], t[0], dst[2]);
    a.simd(VOp::UnpackLo(Esz::W), dst[2], t[1], dst[3]);
    a.simd(VOp::UnpackHi(Esz::W), dst[3], t[1], dst[3]);
}

/// Multiply 16-bit lanes of `src` by splat register `cf`, widening to
/// 32-bit with the `pmullw`/`pmulhw` + `punpck` idiom, and add into
/// `acc_lo`/`acc_hi`.
#[allow(clippy::too_many_arguments)] // emitter helper: the args are the register operands
fn mac32_seq(
    a: &mut Asm,
    acc_lo: VReg,
    acc_hi: VReg,
    src: VReg,
    cf: VReg,
    lo: VReg,
    hi: VReg,
    prod: VReg,
) {
    a.simd(VOp::Mullo(Esz::H), lo, src, cf);
    a.simd(VOp::Mulhi(Esz::H), hi, src, cf);
    a.simd(VOp::UnpackLo(Esz::H), prod, lo, hi);
    a.simd(VOp::Add(Esz::W), acc_lo, acc_lo, prod);
    a.simd(VOp::UnpackHi(Esz::H), prod, lo, hi);
    a.simd(VOp::Add(Esz::W), acc_hi, acc_hi, prod);
}

/// MMX64 transpose of an 8×8 `i16` matrix, through memory: four 4×4
/// register-resident sub-transposes.  Manages its own registers.
fn mmx64_transpose_to(a: &mut Asm, src: IReg, dst: IReg) {
    let rows: [VReg; 4] = [a.vreg(), a.vreg(), a.vreg(), a.vreg()];
    let outr: [VReg; 4] = [a.vreg(), a.vreg(), a.vreg(), a.vreg()];
    let tt: [VReg; 2] = [a.vreg(), a.vreg()];
    for br in 0..2 {
        for bc in 0..2 {
            for (i, row) in rows.iter().enumerate() {
                a.vload(*row, src, ((br * 4 + i) * 16 + bc * 8) as i32, 8);
            }
            transpose4x4_mmx64(a, rows, outr, tt);
            for (i, out) in outr.iter().enumerate() {
                a.vstore(*out, dst, ((bc * 4 + i) * 16 + br * 8) as i32, 8);
            }
        }
    }
    for vr in rows.into_iter().chain(outr).chain(tt) {
        a.release_vreg(vr);
    }
}

/// MMX64 pass: `dst[k][·] = sat16((Σ_j coef[k][j]·src[j][·] + R) >> 11)`.
/// Keeps the 16 half-rows of the source resident; results spill to `dst`
/// (the 64-bit file is too small to hold input and output).
fn mmx64_pass(a: &mut Asm, coef: &[i16; 64], src: IReg, dst: IReg) {
    let xt: Vec<VReg> = (0..16).map(|_| a.vreg()).collect();
    for j in 0..8 {
        a.vload(xt[2 * j], src, (j * 16) as i32, 8);
        a.vload(xt[2 * j + 1], src, (j * 16 + 8) as i32, 8);
    }
    let round = a.vreg();
    let t = a.ireg();
    a.li(t, i64::from(ROUND));
    a.vsplat(round, t, Esz::W);
    let accs: Vec<VReg> = (0..4).map(|_| a.vreg()).collect();
    let (lo, hi, prod, cf) = (a.vreg(), a.vreg(), a.vreg(), a.vreg());
    for k in 0..8usize {
        for acc in &accs {
            a.vmov(*acc, round);
        }
        for j in 0..8usize {
            let c = coef[k * 8 + j];
            if c == 0 {
                continue;
            }
            a.li(t, i64::from(c));
            a.vsplat(cf, t, Esz::H);
            mac32_seq(a, accs[0], accs[1], xt[2 * j], cf, lo, hi, prod);
            mac32_seq(a, accs[2], accs[3], xt[2 * j + 1], cf, lo, hi, prod);
        }
        for acc in &accs {
            a.vshift(VShiftOp::Sra(Esz::W), *acc, *acc, COEF_SHIFT as u8);
        }
        a.simd(VOp::PackS(Esz::W), lo, accs[0], accs[1]);
        a.simd(VOp::PackS(Esz::W), hi, accs[2], accs[3]);
        a.vstore(lo, dst, (k * 16) as i32, 8);
        a.vstore(hi, dst, (k * 16 + 8) as i32, 8);
    }
    a.release_ireg(t);
    for vr in xt.into_iter().chain(accs).chain([lo, hi, prod, cf, round]) {
        a.release_vreg(vr);
    }
}

fn emit_mmx64(a: &mut Asm, coef: &[i16; 64], args: &DctArgs) {
    // scratch layout: [0..128) = transposed matrix, [128..256) = pass-1 out.
    let (s0, s1) = (a.ireg(), a.ireg());
    a.mv(s0, args.scratch);
    a.addi(s1, args.scratch, 128);
    mmx64_transpose_to(a, args.inp, s0);
    mmx64_pass(a, coef, s0, s1);
    mmx64_transpose_to(a, s1, s0);
    mmx64_pass(a, coef, s0, args.outp);
    a.release_ireg(s0);
    a.release_ireg(s1);
}

fn emit_mmx128(a: &mut Asm, coef: &[i16; 64], args: &DctArgs) {
    // Whole block fits in registers: 8 row regs + 8 result regs.
    let x: Vec<VReg> = (0..8).map(|_| a.vreg()).collect();
    let y: Vec<VReg> = (0..8).map(|_| a.vreg()).collect();
    let (acc_lo, acc_hi, lo, hi, prod, cf, round) = (
        a.vreg(),
        a.vreg(),
        a.vreg(),
        a.vreg(),
        a.vreg(),
        a.vreg(),
        a.vreg(),
    );
    let t = a.ireg();
    a.li(t, i64::from(ROUND));
    a.vsplat(round, t, Esz::W);

    for (i, xr) in x.iter().enumerate() {
        a.vload(*xr, args.inp, (i * 16) as i32, 16);
    }

    // In-register 8×8 16-bit transpose: the classic three-stage punpck
    // network (16-bit, 32-bit, then 64-bit interleaves).  The transposed
    // rows end up in `dst`; `src` is clobbered.
    let transpose8 = |a: &mut Asm, src: &[VReg], dst: &[VReg], s2: &[VReg; 2]| {
        let (t0, t1) = (s2[0], s2[1]);
        // Stage 1 (16-bit): dst[i] = interleave of row pairs.
        for i in 0..4 {
            a.simd(
                VOp::UnpackLo(Esz::H),
                dst[2 * i],
                src[2 * i],
                src[2 * i + 1],
            );
            a.simd(
                VOp::UnpackHi(Esz::H),
                dst[2 * i + 1],
                src[2 * i],
                src[2 * i + 1],
            );
        }
        // Stage 2 (32-bit).
        for (ai, bi) in [(0usize, 2usize), (1, 3), (4, 6), (5, 7)] {
            a.simd(VOp::UnpackLo(Esz::W), t0, dst[ai], dst[bi]);
            a.simd(VOp::UnpackHi(Esz::W), t1, dst[ai], dst[bi]);
            a.vmov(dst[ai], t0);
            a.vmov(dst[bi], t1);
        }
        // Stage 3 (64-bit): result rows 0..8 = lo/hi of (0,4),(1,5),(2,6),(3,7)
        // after the stage-2 shuffle the operand order is (0,4),(2,6),(1,5),(3,7).
        let pairs = [(0usize, 4usize), (2, 6), (1, 5), (3, 7)];
        // Compute into t0/t1 then place via moves; row destinations:
        // pair p yields transposed rows 2p and 2p+1... but placing them
        // back into dst would clobber later operands, so stash in src regs
        // (their values are dead after stage 1).
        for (p, (ai, bi)) in pairs.iter().enumerate() {
            a.simd(VOp::UnpackLo(Esz::D), src[2 * p], dst[*ai], dst[*bi]);
            a.simd(VOp::UnpackHi(Esz::D), src[2 * p + 1], dst[*ai], dst[*bi]);
        }
        // Transposed matrix now lives in `src` in row order? Verify below
        // in tests; copy back to dst in order.
        for i in 0..8 {
            a.vmov(dst[i], src[i]);
        }
    };

    let scratch2: [VReg; 2] = [lo, hi];
    transpose8(a, &x, &y, &scratch2);
    // y = Xᵀ. Pass 1: results into x regs.
    let pass = |a: &mut Asm, coef: &[i16; 64], src: &[VReg], dst: &[VReg]| {
        for k in 0..8usize {
            a.vmov(acc_lo, round);
            a.vmov(acc_hi, round);
            for j in 0..8usize {
                let c = coef[k * 8 + j];
                if c == 0 {
                    continue;
                }
                a.li(t, i64::from(c));
                a.vsplat(cf, t, Esz::H);
                mac32_seq(a, acc_lo, acc_hi, src[j], cf, lo, hi, prod);
            }
            a.vshift(VShiftOp::Sra(Esz::W), acc_lo, acc_lo, COEF_SHIFT as u8);
            a.vshift(VShiftOp::Sra(Esz::W), acc_hi, acc_hi, COEF_SHIFT as u8);
            a.simd(VOp::PackS(Esz::W), dst[k], acc_lo, acc_hi);
        }
    };
    pass(a, coef, &y, &x);
    transpose8(a, &x, &y, &scratch2);
    pass(a, coef, &y, &x);
    for (i, xr) in x.iter().enumerate() {
        a.vstore(*xr, args.outp, (i * 16) as i32, 16);
    }
    a.release_ireg(t);
    for vr in x
        .into_iter()
        .chain(y)
        .chain([acc_lo, acc_hi, lo, hi, prod, cf, round])
    {
        a.release_vreg(vr);
    }
}

// ----------------------------------------------------------------------
// VMMX
// ----------------------------------------------------------------------

/// Emits the VMMX128 transform body given resident coefficient matrices.
pub fn emit_vmmx128_body(a: &mut Asm, cols: &[MReg], args: &DctArgs) {
    let (x, y) = (a.mreg(), a.mreg());
    let (t32a, t32b, plo, phi, tmp) = (a.mreg(), a.mreg(), a.mreg(), a.mreg(), a.mreg());
    let r = a.ireg();
    a.setvl(8);
    a.mload(x, args.inp, 16, 16);
    a.mtrans(x, x, Esz::H);
    let pass = |a: &mut Asm, src: MReg, dst: MReg, r: IReg| {
        a.li(r, i64::from(ROUND));
        a.msplat(t32a, r, Esz::W);
        a.msplat(t32b, r, Esz::W);
        for (j, col) in cols.iter().enumerate() {
            a.mop(
                VOp::Mullo(Esz::H),
                plo,
                *col,
                MOperand::RowBcast(src, j as u8),
            );
            a.mop(
                VOp::Mulhi(Esz::H),
                phi,
                *col,
                MOperand::RowBcast(src, j as u8),
            );
            a.mop(VOp::UnpackLo(Esz::H), tmp, plo, MOperand::M(phi));
            a.mop(VOp::Add(Esz::W), t32a, t32a, MOperand::M(tmp));
            a.mop(VOp::UnpackHi(Esz::H), tmp, plo, MOperand::M(phi));
            a.mop(VOp::Add(Esz::W), t32b, t32b, MOperand::M(tmp));
        }
        a.mshift(VShiftOp::Sra(Esz::W), t32a, t32a, COEF_SHIFT as u8);
        a.mshift(VShiftOp::Sra(Esz::W), t32b, t32b, COEF_SHIFT as u8);
        a.mop(VOp::PackS(Esz::W), dst, t32a, t32b);
    };
    pass(a, x, y, r);
    a.mtrans(y, y, Esz::H);
    pass(a, y, x, r);
    a.mstore(x, args.outp, 16, 16);
    a.release_ireg(r);
    for m in [x, y, t32a, t32b, plo, phi, tmp] {
        a.release_mreg(m);
    }
}

/// Emits the VMMX64 transform body (streams coefficient columns from the
/// table — the 64-bit matrix file cannot keep them resident).
pub fn emit_vmmx64_body(a: &mut Asm, args: &DctArgs) {
    let (x0, x1, y0, y1) = (a.mreg(), a.mreg(), a.mreg(), a.mreg());
    let (col, plo, phi, t32a, t32b, tmp, ta) = (
        a.mreg(),
        a.mreg(),
        a.mreg(),
        a.mreg(),
        a.mreg(),
        a.mreg(),
        a.mreg(),
    );
    let (r, cp) = (a.ireg(), a.ireg());
    a.setvl(8);
    // Load the block as two column halves (8 rows × 8 bytes each).
    a.mload(x0, args.inp, 16, 8);
    a.addi(r, args.inp, 8);
    a.mload(x1, r, 16, 8);

    // 8×8 transpose via four VL=4 4×4 sub-transposes with row moves.
    let transpose_pair = |a: &mut Asm, x0: MReg, x1: MReg, y0: MReg, y1: MReg, ta: MReg| {
        a.setvl(4);
        // block A = x0 rows 0-3 → y0 rows 0-3
        a.mtrans(y0, x0, Esz::H);
        // block B = x1 rows 0-3 → y0 rows 4-7
        a.mtrans(ta, x1, Esz::H);
        for i in 0..4u8 {
            a.vmov(VLoc::Row(y0, 4 + i), VLoc::Row(ta, i));
        }
        // block C = x0 rows 4-7 → y1 rows 0-3
        for i in 0..4u8 {
            a.vmov(VLoc::Row(ta, i), VLoc::Row(x0, 4 + i));
        }
        a.mtrans(y1, ta, Esz::H);
        // block D = x1 rows 4-7 → y1 rows 4-7
        for i in 0..4u8 {
            a.vmov(VLoc::Row(ta, i), VLoc::Row(x1, 4 + i));
        }
        a.mtrans(ta, ta, Esz::H);
        for i in 0..4u8 {
            a.vmov(VLoc::Row(y1, 4 + i), VLoc::Row(ta, i));
        }
        a.setvl(8);
    };

    transpose_pair(a, x0, x1, y0, y1, ta);
    // Pass over each column half; coefficient columns streamed per j.
    let pass_half =
        |a: &mut Asm, src_lo: MReg, src_hi: MReg, half: usize, dst: MReg, r: IReg, cp: IReg| {
            // The broadcast operand must cover this half's 4 columns: row j of
            // the transposed matrix has columns 0-3 in src_lo and 4-7 in src_hi.
            a.li(r, i64::from(ROUND));
            a.msplat(t32a, r, Esz::W);
            a.msplat(t32b, r, Esz::W);
            a.mv(cp, args.coltab);
            for j in 0..8u8 {
                // row j of the full transposed matrix: columns 0-3 in src_lo
                // row j, columns 4-7 in src_hi row j. This half's operand:
                let bsrc = if half == 0 { src_lo } else { src_hi };
                a.mload(col, cp, 8, 8);
                a.mop(VOp::Mullo(Esz::H), plo, col, MOperand::RowBcast(bsrc, j));
                a.mop(VOp::Mulhi(Esz::H), phi, col, MOperand::RowBcast(bsrc, j));
                a.mop(VOp::UnpackLo(Esz::H), tmp, plo, MOperand::M(phi));
                a.mop(VOp::Add(Esz::W), t32a, t32a, MOperand::M(tmp));
                a.mop(VOp::UnpackHi(Esz::H), tmp, plo, MOperand::M(phi));
                a.mop(VOp::Add(Esz::W), t32b, t32b, MOperand::M(tmp));
                a.addi(cp, cp, 64);
            }
            a.mshift(VShiftOp::Sra(Esz::W), t32a, t32a, COEF_SHIFT as u8);
            a.mshift(VShiftOp::Sra(Esz::W), t32b, t32b, COEF_SHIFT as u8);
            a.mop(VOp::PackS(Esz::W), dst, t32a, t32b);
        };
    // pass 1: input = (y0, y1) = Xᵀ halves; result halves into x0, x1.
    pass_half(a, y0, y1, 0, x0, r, cp);
    pass_half(a, y0, y1, 1, x1, r, cp);
    transpose_pair(a, x0, x1, y0, y1, ta);
    pass_half(a, y0, y1, 0, x0, r, cp);
    pass_half(a, y0, y1, 1, x1, r, cp);
    a.mstore(x0, args.outp, 16, 8);
    a.addi(r, args.outp, 8);
    a.mstore(x1, r, 16, 8);
    a.release_ireg(r);
    a.release_ireg(cp);
    for m in [x0, x1, y0, y1, col, plo, phi, t32a, t32b, tmp, ta] {
        a.release_mreg(m);
    }
}

// ----------------------------------------------------------------------
// Standalone kernels
// ----------------------------------------------------------------------

const NBLOCKS: usize = 48;

fn dct_workload(v: Variant, forward: bool) -> BuiltKernel {
    let coef = if forward {
        fdct_matrix()
    } else {
        idct_matrix()
    };
    let mut rng = crate::data::Rng64::new(if forward { 101 } else { 103 });
    let lo = if forward { -256 } else { -900 };
    let hi = if forward { 255 } else { 900 };
    let input: Vec<i16> = rng.i16s_in(NBLOCKS * 64, lo, hi);

    let mut asm = Asm::new();
    let (inp, outp, scratch, coltab, nblk) =
        (asm.arg(0), asm.arg(1), asm.arg(2), asm.arg(3), asm.arg(4));
    let args = DctArgs {
        inp,
        outp,
        scratch,
        coltab,
    };
    let i = asm.ireg();
    // Hoisted coefficient residency for VMMX128.
    let cols = if v == Variant::Vmmx128 {
        Some(asm.vector_region(|a| emit_vmmx128_coltab_load(a, coltab)))
    } else {
        None
    };
    asm.li(i, 0);
    asm.for_loop(i, nblk, |a| {
        match v {
            Variant::Vmmx128 => {
                a.vector_region(|a| emit_vmmx128_body(a, cols.as_ref().unwrap(), &args));
            }
            Variant::Vmmx64 => a.vector_region(|a| emit_vmmx64_body(a, &args)),
            _ => emit_dct(a, v, &coef, &args),
        }
        a.addi(inp, inp, 128);
        a.addi(outp, outp, 128);
    });
    asm.halt();
    let program = asm.finish();

    let table = dct_coltab(&coef, v.width());
    let mut layout = Layout::new();
    let in_addr = layout.alloc_array((NBLOCKS * 128) as u64, 2);
    let out_addr = layout.alloc_array((NBLOCKS * 128) as u64, 2);
    let scratch_addr = layout.alloc(512, 16);
    let tab_addr = layout.alloc_array(table.len() as u64, 1);

    let mut machine = layout.machine(v.machine_ext());
    machine.write_i16s(in_addr, &input).unwrap();
    machine.write_bytes(tab_addr, &table).unwrap();
    machine.set_ireg(0, in_addr as i64);
    machine.set_ireg(1, out_addr as i64);
    machine.set_ireg(2, scratch_addr as i64);
    machine.set_ireg(3, tab_addr as i64);
    machine.set_ireg(4, NBLOCKS as i64);

    let mut expected = vec![0i16; NBLOCKS * 64];
    for b in 0..NBLOCKS {
        let out = golden_transform(&input[b * 64..b * 64 + 64], &coef);
        expected[b * 64..b * 64 + 64].copy_from_slice(&out);
    }

    BuiltKernel::new(program, &layout, machine, move |m: &Machine| {
        let got = m
            .read_i16s(out_addr, NBLOCKS * 64)
            .map_err(|e| e.to_string())?;
        if let Some(i) = got.iter().zip(&expected).position(|(a, b)| a != b) {
            return Err(format!(
                "dct mismatch block {} elem {}: got {} want {}",
                i / 64,
                i % 64,
                got[i],
                expected[i]
            ));
        }
        Ok(())
    })
}

/// The `fdct` kernel: 8×8 forward DCT.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fdct;

impl Kernel for Fdct {
    fn spec(&self) -> KernelSpec {
        KernelSpec {
            name: "fdct",
            app: "jpegenc",
            description: "Forward Discrete Cosine Transform",
            data_size: "8x8 16-bit",
        }
    }

    fn build(&self, v: Variant) -> BuiltKernel {
        dct_workload(v, true)
    }
}

/// The `idct` kernel: 8×8 inverse DCT.
#[derive(Debug, Clone, Copy, Default)]
pub struct Idct;

impl Kernel for Idct {
    fn spec(&self) -> KernelSpec {
        KernelSpec {
            name: "idct",
            app: "mpeg2dec",
            description: "Inverse Discrete Cosine Transform",
            data_size: "8x8 16-bit",
        }
    }

    fn build(&self, v: Variant) -> BuiltKernel {
        dct_workload(v, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coefficient_matrices_are_transposes() {
        let c = fdct_matrix();
        let d = idct_matrix();
        for k in 0..8 {
            for j in 0..8 {
                assert_eq!(c[k * 8 + j], d[j * 8 + k]);
            }
        }
        // DC row of C is flat.
        assert!(c[0..8].iter().all(|v| *v == c[0]));
    }

    #[test]
    fn golden_roundtrip_recovers_input() {
        let mut rng = crate::data::Rng64::new(9);
        let x: Vec<i16> = rng.i16s_in(64, -200, 200);
        let y = golden_transform(&x, &fdct_matrix());
        let x2 = golden_transform(&y, &idct_matrix());
        for (a, b) in x.iter().zip(x2.iter()) {
            assert!((i32::from(*a) - i32::from(*b)).abs() <= 2, "{a} vs {b}");
        }
    }

    #[test]
    fn golden_dc_only() {
        // A constant block transforms to energy in the DC coefficient only.
        let x = [100i16; 64];
        let y = golden_transform(&x, &fdct_matrix());
        assert!(y[0] > 700, "DC = {}", y[0]);
        for v in &y[1..] {
            assert!(v.abs() <= 1, "AC leak {v}");
        }
    }

    #[test]
    fn all_variants_match_golden_fdct() {
        for v in Variant::ALL {
            Fdct.build(v)
                .run_checked()
                .unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn all_variants_match_golden_idct() {
        for v in Variant::ALL {
            Idct.build(v)
                .run_checked()
                .unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }
}
