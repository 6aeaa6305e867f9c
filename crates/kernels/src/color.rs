//! Colour-space conversion kernels: `rgb` (RGB → YCC, jpegenc) and
//! `ycc` (YCC → RGB, jpegdec).
//!
//! The transforms are fixed-point with coefficients chosen so every
//! intermediate fits 16-bit lanes (documented in DESIGN.md); golden and
//! SIMD variants implement bit-identical arithmetic.
//!
//! Forward (planar `u8` in/out, per pixel):
//! ```text
//! Y  = (77·R + 150·G + 29·B) >> 8
//! Cb = (32768 + 128·B − 43·R − 85·G) >> 8      (bias keeps it unsigned)
//! Cr = (32768 + 128·R − 107·G − 21·B) >> 8
//! ```
//! Inverse (signed 16-bit lanes, clamped to `u8`):
//! ```text
//! R = clamp(Y + (180·(Cr−128)) >> 7)
//! G = clamp(Y − (44·(Cb−128) + 91·(Cr−128)) >> 7)
//! B = clamp(Y + (227·(Cb−128)) >> 7)
//! ```

use crate::{BuiltKernel, Kernel, KernelSpec, Variant};
use simdsim_asm::Asm;
use simdsim_emu::{Layout, Machine};
use simdsim_isa::{Esz, IReg, MOperand, MReg, VOp, VReg, VShiftOp};

/// One output channel of the colour-conversion inner loop: three
/// (coefficient, source-plane pair) terms, the destination pointer index,
/// and whether the channel carries the +32768 bias.
type ChannelTerms<C> = ([(C, usize); 3], usize, bool);

// ======================================================================
// Golden references
// ======================================================================

/// Golden forward conversion of one pixel.
#[must_use]
pub fn golden_rgb_px(r: u8, g: u8, b: u8) -> (u8, u8, u8) {
    let (r, g, b) = (u32::from(r), u32::from(g), u32::from(b));
    let y = (77 * r + 150 * g + 29 * b) >> 8;
    let cb = (32768 + 128 * b - 43 * r - 85 * g) >> 8;
    let cr = (32768 + 128 * r - 107 * g - 21 * b) >> 8;
    (y as u8, cb as u8, cr as u8)
}

/// Golden inverse conversion of one pixel (16-bit arithmetic, clamped).
#[must_use]
pub fn golden_ycc_px(y: u8, cb: u8, cr: u8) -> (u8, u8, u8) {
    let yv = i32::from(y);
    let cbv = i32::from(cb) - 128;
    let crv = i32::from(cr) - 128;
    let r = yv + (((180 * crv) as i16) >> 7) as i32;
    let g = yv - (((44 * cbv + 91 * crv) as i16) >> 7) as i32;
    let b = yv + (((227 * cbv) as i16) >> 7) as i32;
    (
        r.clamp(0, 255) as u8,
        g.clamp(0, 255) as u8,
        b.clamp(0, 255) as u8,
    )
}

// ======================================================================
// Coefficient-row tables for the matrix variants
// ======================================================================

/// Row indices in the RGB→YCC coefficient matrix register.
mod rgbc {
    pub const C77: u8 = 0;
    pub const C150: u8 = 1;
    pub const C29: u8 = 2;
    pub const C43: u8 = 3;
    pub const C85: u8 = 4;
    pub const C128: u8 = 5;
    pub const C21: u8 = 6;
    pub const C107: u8 = 7;
    pub const BIAS: u8 = 8;
    pub const ZERO: u8 = 9;
    pub const VALUES: [u16; 10] = [77, 150, 29, 43, 85, 128, 21, 107, 32768, 0];
}

/// Row indices in the YCC→RGB coefficient matrix register.
mod yccc {
    pub const C180: u8 = 0;
    pub const C44: u8 = 1;
    pub const C91: u8 = 2;
    pub const C227: u8 = 3;
    pub const C128: u8 = 4;
    pub const ZERO: u8 = 5;
    pub const VALUES: [u16; 6] = [180, 44, 91, 227, 128, 0];
}

/// The RGB→YCC coefficient table for the matrix variants.
#[must_use]
pub fn rgb_coltab(width: usize) -> Vec<u8> {
    splat_rows(&rgbc::VALUES, width)
}

/// The YCC→RGB coefficient table for the matrix variants.
#[must_use]
pub fn ycc_coltab(width: usize) -> Vec<u8> {
    splat_rows(&yccc::VALUES, width)
}

/// Builds the in-memory coefficient table: one `width`-byte row per value,
/// each row the 16-bit splat of the value.
#[must_use]
pub fn splat_rows(values: &[u16], width: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * width);
    for v in values {
        for _ in 0..width / 2 {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

// ======================================================================
// Emitters
// ======================================================================

/// Argument registers of the colour-conversion kernels: three source
/// planes, three destination planes, pixel count, and (matrix variants
/// only) the coefficient-table pointer.
#[derive(Debug, Clone, Copy)]
pub struct ColorArgs {
    /// Source planes (R,G,B for `rgb`; Y,Cb,Cr for `ycc`).
    pub src: [IReg; 3],
    /// Destination planes.
    pub dst: [IReg; 3],
    /// Number of pixels (must be a multiple of 256).
    pub npx: IReg,
    /// Coefficient table base (matrix variants).
    pub coltab: IReg,
}

/// Emits the full `rgb` kernel (loop included) in the requested variant.
pub fn emit_rgb(a: &mut Asm, v: Variant, args: &ColorArgs) {
    match v {
        Variant::Scalar => emit_rgb_scalar(a, args),
        Variant::Mmx64 | Variant::Mmx128 => {
            a.vector_region(|a| emit_rgb_mmx(a, v.width(), args));
        }
        Variant::Vmmx64 | Variant::Vmmx128 => {
            a.vector_region(|a| emit_rgb_vmmx(a, v.width(), args));
        }
    }
}

/// Emits the full `ycc` kernel (loop included) in the requested variant.
pub fn emit_ycc(a: &mut Asm, v: Variant, args: &ColorArgs) {
    match v {
        Variant::Scalar => emit_ycc_scalar(a, args),
        Variant::Mmx64 | Variant::Mmx128 => {
            a.vector_region(|a| emit_ycc_mmx(a, v.width(), args));
        }
        Variant::Vmmx64 | Variant::Vmmx128 => {
            a.vector_region(|a| emit_ycc_vmmx(a, v.width(), args));
        }
    }
}

fn emit_rgb_scalar(a: &mut Asm, args: &ColorArgs) {
    let ptrs: Vec<IReg> = (0..6).map(|_| a.ireg()).collect();
    for (p, src) in ptrs.iter().zip(args.src.iter().chain(args.dst.iter())) {
        a.mv(*p, *src);
    }
    let (r, g, b, t, u, i) = (a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg());
    a.li(i, 0);
    a.for_loop(i, args.npx, |a| {
        a.lbu(r, ptrs[0], 0);
        a.lbu(g, ptrs[1], 0);
        a.lbu(b, ptrs[2], 0);
        // Y
        a.muli(t, r, 77);
        a.muli(u, g, 150);
        a.add(t, t, u);
        a.muli(u, b, 29);
        a.add(t, t, u);
        a.srli(t, t, 8);
        a.sb(t, ptrs[3], 0);
        // Cb
        a.muli(t, b, 128);
        a.addi(t, t, 32768);
        a.muli(u, r, 43);
        a.sub(t, t, u);
        a.muli(u, g, 85);
        a.sub(t, t, u);
        a.srli(t, t, 8);
        a.sb(t, ptrs[4], 0);
        // Cr
        a.muli(t, r, 128);
        a.addi(t, t, 32768);
        a.muli(u, g, 107);
        a.sub(t, t, u);
        a.muli(u, b, 21);
        a.sub(t, t, u);
        a.srli(t, t, 8);
        a.sb(t, ptrs[5], 0);
        for p in &ptrs {
            a.addi(*p, *p, 1);
        }
    });
    for reg in ptrs.into_iter().chain([r, g, b, t, u, i]) {
        a.release_ireg(reg);
    }
}

/// Splats a 16-bit constant into a fresh SIMD register (li + vsplat).
pub fn splat_const(a: &mut Asm, value: i64) -> VReg {
    let t = a.ireg();
    let v = a.vreg();
    a.li(t, value);
    a.vsplat(v, t, Esz::H);
    a.release_ireg(t);
    v
}

fn emit_rgb_mmx(a: &mut Asm, width: usize, args: &ColorArgs) {
    let ptrs: Vec<IReg> = (0..6).map(|_| a.ireg()).collect();
    for (p, src) in ptrs.iter().zip(args.src.iter().chain(args.dst.iter())) {
        a.mv(*p, *src);
    }
    let consts: Vec<VReg> = [77i64, 150, 29, 43, 85, 128, 21, 107, 0x8000, 0]
        .iter()
        .map(|c| splat_const(a, *c))
        .collect();
    let (c77, c150, c29, c43, c85, c128, c21, c107, bias, zero) = (
        consts[0], consts[1], consts[2], consts[3], consts[4], consts[5], consts[6], consts[7],
        consts[8], consts[9],
    );
    let raw: Vec<VReg> = (0..3).map(|_| a.vreg()).collect();
    let planes16: Vec<VReg> = (0..6).map(|_| a.vreg()).collect(); // lo/hi per plane
    let (acc, t, outv) = (a.vreg(), a.vreg(), a.vreg());
    let outs: Vec<VReg> = (0..2).map(|_| a.vreg()).collect();
    let i = a.ireg();
    a.li(i, 0);
    let w = width as u8;
    a.for_loop_step(i, args.npx, width as i32, |a| {
        for p in 0..3 {
            a.vload(raw[p], ptrs[p], 0, w);
            a.simd(VOp::UnpackLo(Esz::B), planes16[2 * p], raw[p], zero);
            a.simd(VOp::UnpackHi(Esz::B), planes16[2 * p + 1], raw[p], zero);
        }
        // (coefficient, source-plane pair index) terms per output channel.
        let channels: [ChannelTerms<VReg>; 3] = [
            ([(c77, 0), (c150, 2), (c29, 4)], 3, false),
            ([(c128, 4), (c43, 0), (c85, 2)], 4, true),
            ([(c128, 0), (c107, 2), (c21, 4)], 5, true),
        ];
        for (terms, dst_idx, biased) in channels {
            for half in 0..2 {
                let out_half = outs[half];
                let (coef0, plane0) = terms[0];
                a.simd(VOp::Mullo(Esz::H), acc, planes16[plane0 + half], coef0);
                if biased {
                    a.simd(VOp::Add(Esz::H), acc, acc, bias);
                }
                for (coef, plane) in terms.iter().skip(1) {
                    a.simd(VOp::Mullo(Esz::H), t, planes16[plane + half], *coef);
                    if biased {
                        a.simd(VOp::Sub(Esz::H), acc, acc, t);
                    } else {
                        a.simd(VOp::Add(Esz::H), acc, acc, t);
                    }
                }
                a.vshift(VShiftOp::Srl(Esz::H), out_half, acc, 8);
            }
            a.simd(VOp::PackU(Esz::H), outv, outs[0], outs[1]);
            a.vstore(outv, ptrs[dst_idx], 0, w);
        }
        for p in &ptrs {
            a.addi(*p, *p, width as i32);
        }
    });
    a.release_ireg(i);
    for p in ptrs {
        a.release_ireg(p);
    }
    for vr in consts
        .into_iter()
        .chain(raw)
        .chain(planes16)
        .chain([acc, t, outv])
        .chain(outs)
    {
        a.release_vreg(vr);
    }
}

fn emit_rgb_vmmx(a: &mut Asm, width: usize, args: &ColorArgs) {
    use rgbc::*;
    let ptrs: Vec<IReg> = (0..6).map(|_| a.ireg()).collect();
    for (p, src) in ptrs.iter().zip(args.src.iter().chain(args.dst.iter())) {
        a.mv(*p, *src);
    }
    let coef = a.mreg();
    let raw: Vec<MReg> = (0..3).map(|_| a.mreg()).collect();
    let planes16: Vec<MReg> = (0..6).map(|_| a.mreg()).collect();
    let (acc, t, outm) = (a.mreg(), a.mreg(), a.mreg());
    let outs: Vec<MReg> = (0..2).map(|_| a.mreg()).collect();
    let i = a.ireg();
    let tile = 16 * width; // pixels per tile: 16 rows × width bytes
    a.setvl(16);
    // Coefficient rows stay resident across the whole kernel.
    a.mload(coef, args.coltab, width as i32, width as u8);
    a.li(i, 0);
    let w = width as u8;
    a.for_loop_step(i, args.npx, tile as i32, |a| {
        for p in 0..3 {
            a.mload(raw[p], ptrs[p], width as i32, w);
            a.mop(
                VOp::UnpackLo(Esz::B),
                planes16[2 * p],
                raw[p],
                MOperand::RowBcast(coef, ZERO),
            );
            a.mop(
                VOp::UnpackHi(Esz::B),
                planes16[2 * p + 1],
                raw[p],
                MOperand::RowBcast(coef, ZERO),
            );
        }
        let channels: [ChannelTerms<u8>; 3] = [
            ([(C77, 0), (C150, 2), (C29, 4)], 3, false),
            ([(C128, 4), (C43, 0), (C85, 2)], 4, true),
            ([(C128, 0), (C107, 2), (C21, 4)], 5, true),
        ];
        for (terms, dst_idx, biased) in channels {
            for half in 0..2 {
                let (coef0, plane0) = terms[0];
                let src0 = planes16[plane0 + half];
                a.mop(
                    VOp::Mullo(Esz::H),
                    acc,
                    src0,
                    MOperand::RowBcast(coef, coef0),
                );
                if biased {
                    a.mop(VOp::Add(Esz::H), acc, acc, MOperand::RowBcast(coef, BIAS));
                }
                for (coef_row, plane) in terms.iter().skip(1) {
                    let src = planes16[plane + half];
                    a.mop(
                        VOp::Mullo(Esz::H),
                        t,
                        src,
                        MOperand::RowBcast(coef, *coef_row),
                    );
                    if biased {
                        a.mop(VOp::Sub(Esz::H), acc, acc, MOperand::M(t));
                    } else {
                        a.mop(VOp::Add(Esz::H), acc, acc, MOperand::M(t));
                    }
                }
                a.mshift(VShiftOp::Srl(Esz::H), outs[half], acc, 8);
            }
            a.mop(VOp::PackU(Esz::H), outm, outs[0], outs[1]);
            a.mstore(outm, ptrs[dst_idx], width as i32, w);
        }
        for p in &ptrs {
            a.addi(*p, *p, tile as i32);
        }
    });
    a.release_ireg(i);
    for p in ptrs {
        a.release_ireg(p);
    }
    for m in [coef]
        .into_iter()
        .chain(raw)
        .chain(planes16)
        .chain([acc, t, outm])
        .chain(outs)
    {
        a.release_mreg(m);
    }
}

fn emit_ycc_scalar(a: &mut Asm, args: &ColorArgs) {
    let ptrs: Vec<IReg> = (0..6).map(|_| a.ireg()).collect();
    for (p, src) in ptrs.iter().zip(args.src.iter().chain(args.dst.iter())) {
        a.mv(*p, *src);
    }
    let (y, cb, cr, t, u, i) = (a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg());
    let clamp_store = |a: &mut Asm, val: IReg, ptr: IReg| {
        a.if_(simdsim_isa::Cond::Lt, val, 0, |a| a.li(val, 0));
        a.if_(simdsim_isa::Cond::Gt, val, 255, |a| a.li(val, 255));
        a.sb(val, ptr, 0);
    };
    a.li(i, 0);
    a.for_loop(i, args.npx, |a| {
        a.lbu(y, ptrs[0], 0);
        a.lbu(cb, ptrs[1], 0);
        a.lbu(cr, ptrs[2], 0);
        a.subi(cb, cb, 128);
        a.subi(cr, cr, 128);
        // R = y + (180*cr)>>7
        a.muli(t, cr, 180);
        a.srai(t, t, 7);
        a.add(t, t, y);
        clamp_store(a, t, ptrs[3]);
        // G = y - (44*cb + 91*cr)>>7
        a.muli(t, cb, 44);
        a.muli(u, cr, 91);
        a.add(t, t, u);
        a.srai(t, t, 7);
        a.sub(t, y, t);
        clamp_store(a, t, ptrs[4]);
        // B = y + (227*cb)>>7
        a.muli(t, cb, 227);
        a.srai(t, t, 7);
        a.add(t, t, y);
        clamp_store(a, t, ptrs[5]);
        for p in &ptrs {
            a.addi(*p, *p, 1);
        }
    });
    for reg in ptrs.into_iter().chain([y, cb, cr, t, u, i]) {
        a.release_ireg(reg);
    }
}

fn emit_ycc_mmx(a: &mut Asm, width: usize, args: &ColorArgs) {
    let ptrs: Vec<IReg> = (0..6).map(|_| a.ireg()).collect();
    for (p, src) in ptrs.iter().zip(args.src.iter().chain(args.dst.iter())) {
        a.mv(*p, *src);
    }
    let consts: Vec<VReg> = [180i64, 44, 91, 227, 128, 0]
        .iter()
        .map(|c| splat_const(a, *c))
        .collect();
    let (c180, c44, c91, c227, c128, zero) = (
        consts[0], consts[1], consts[2], consts[3], consts[4], consts[5],
    );
    let raw: Vec<VReg> = (0..3).map(|_| a.vreg()).collect();
    let planes16: Vec<VReg> = (0..6).map(|_| a.vreg()).collect();
    let (acc, t, outv) = (a.vreg(), a.vreg(), a.vreg());
    let outs: Vec<VReg> = (0..2).map(|_| a.vreg()).collect();
    let i = a.ireg();
    a.li(i, 0);
    let w = width as u8;
    a.for_loop_step(i, args.npx, width as i32, |a| {
        for p in 0..3 {
            a.vload(raw[p], ptrs[p], 0, w);
            a.simd(VOp::UnpackLo(Esz::B), planes16[2 * p], raw[p], zero);
            a.simd(VOp::UnpackHi(Esz::B), planes16[2 * p + 1], raw[p], zero);
        }
        // Centre the chroma planes.
        for p in 1..3 {
            for half in 0..2 {
                let reg = planes16[2 * p + half];
                a.simd(VOp::Sub(Esz::H), reg, reg, c128);
            }
        }
        for half in 0..2 {
            let (yv, crv) = (planes16[half], planes16[4 + half]);
            // R
            a.simd(VOp::Mullo(Esz::H), acc, crv, c180);
            a.vshift(VShiftOp::Sra(Esz::H), acc, acc, 7);
            a.simd(VOp::Add(Esz::H), outs[half], yv, acc);
            if half == 1 {
                a.simd(VOp::PackU(Esz::H), outv, outs[0], outs[1]);
                a.vstore(outv, ptrs[3], 0, w);
            }
        }
        for half in 0..2 {
            let (yv, cbv, crv) = (planes16[half], planes16[2 + half], planes16[4 + half]);
            // G
            a.simd(VOp::Mullo(Esz::H), acc, cbv, c44);
            a.simd(VOp::Mullo(Esz::H), t, crv, c91);
            a.simd(VOp::Add(Esz::H), acc, acc, t);
            a.vshift(VShiftOp::Sra(Esz::H), acc, acc, 7);
            a.simd(VOp::Sub(Esz::H), outs[half], yv, acc);
            if half == 1 {
                a.simd(VOp::PackU(Esz::H), outv, outs[0], outs[1]);
                a.vstore(outv, ptrs[4], 0, w);
            }
        }
        for half in 0..2 {
            let (yv, cbv) = (planes16[half], planes16[2 + half]);
            // B
            a.simd(VOp::Mullo(Esz::H), acc, cbv, c227);
            a.vshift(VShiftOp::Sra(Esz::H), acc, acc, 7);
            a.simd(VOp::Add(Esz::H), outs[half], yv, acc);
            if half == 1 {
                a.simd(VOp::PackU(Esz::H), outv, outs[0], outs[1]);
                a.vstore(outv, ptrs[5], 0, w);
            }
        }
        for p in &ptrs {
            a.addi(*p, *p, width as i32);
        }
    });
    a.release_ireg(i);
    for p in ptrs {
        a.release_ireg(p);
    }
    for vr in consts
        .into_iter()
        .chain(raw)
        .chain(planes16)
        .chain([acc, t, outv])
        .chain(outs)
    {
        a.release_vreg(vr);
    }
}

fn emit_ycc_vmmx(a: &mut Asm, width: usize, args: &ColorArgs) {
    use yccc::*;
    let ptrs: Vec<IReg> = (0..6).map(|_| a.ireg()).collect();
    for (p, src) in ptrs.iter().zip(args.src.iter().chain(args.dst.iter())) {
        a.mv(*p, *src);
    }
    let coef = a.mreg();
    let raw: Vec<MReg> = (0..3).map(|_| a.mreg()).collect();
    let planes16: Vec<MReg> = (0..6).map(|_| a.mreg()).collect();
    let (acc, t) = (a.mreg(), a.mreg());
    let outs: Vec<MReg> = (0..2).map(|_| a.mreg()).collect();
    let i = a.ireg();
    let tile = 16 * width;
    a.setvl(16);
    a.mload(coef, args.coltab, width as i32, width as u8);
    a.li(i, 0);
    let w = width as u8;
    a.for_loop_step(i, args.npx, tile as i32, |a| {
        for p in 0..3 {
            a.mload(raw[p], ptrs[p], width as i32, w);
            a.mop(
                VOp::UnpackLo(Esz::B),
                planes16[2 * p],
                raw[p],
                MOperand::RowBcast(coef, ZERO),
            );
            a.mop(
                VOp::UnpackHi(Esz::B),
                planes16[2 * p + 1],
                raw[p],
                MOperand::RowBcast(coef, ZERO),
            );
        }
        for p in 1..3 {
            for half in 0..2 {
                let reg = planes16[2 * p + half];
                a.mop(VOp::Sub(Esz::H), reg, reg, MOperand::RowBcast(coef, C128));
            }
        }
        // Per channel: (terms, subtract?, dst plane)
        for (channel, dst_idx) in [(0usize, 3usize), (1, 4), (2, 5)] {
            for half in 0..2 {
                let (yv, cbv, crv) = (planes16[half], planes16[2 + half], planes16[4 + half]);
                match channel {
                    0 => {
                        a.mop(VOp::Mullo(Esz::H), acc, crv, MOperand::RowBcast(coef, C180));
                        a.mshift(VShiftOp::Sra(Esz::H), acc, acc, 7);
                        a.mop(VOp::Add(Esz::H), outs[half], yv, MOperand::M(acc));
                    }
                    1 => {
                        a.mop(VOp::Mullo(Esz::H), acc, cbv, MOperand::RowBcast(coef, C44));
                        a.mop(VOp::Mullo(Esz::H), t, crv, MOperand::RowBcast(coef, C91));
                        a.mop(VOp::Add(Esz::H), acc, acc, MOperand::M(t));
                        a.mshift(VShiftOp::Sra(Esz::H), acc, acc, 7);
                        a.mop(VOp::Sub(Esz::H), outs[half], yv, MOperand::M(acc));
                    }
                    _ => {
                        a.mop(VOp::Mullo(Esz::H), acc, cbv, MOperand::RowBcast(coef, C227));
                        a.mshift(VShiftOp::Sra(Esz::H), acc, acc, 7);
                        a.mop(VOp::Add(Esz::H), outs[half], yv, MOperand::M(acc));
                    }
                }
            }
            a.mop(VOp::PackU(Esz::H), acc, outs[0], outs[1]);
            a.mstore(acc, ptrs[dst_idx], width as i32, w);
        }
        for p in &ptrs {
            a.addi(*p, *p, tile as i32);
        }
    });
    a.release_ireg(i);
    for p in ptrs {
        a.release_ireg(p);
    }
    for m in [coef]
        .into_iter()
        .chain(raw)
        .chain(planes16)
        .chain([acc, t])
        .chain(outs)
    {
        a.release_mreg(m);
    }
}

// ======================================================================
// Standalone workloads
// ======================================================================

const NPX: usize = 64 * 64;

fn color_workload(v: Variant, forward: bool) -> BuiltKernel {
    let mut rng = crate::data::Rng64::new(if forward { 71 } else { 73 });
    let srcs: [Vec<u8>; 3] = [rng.bytes(NPX), rng.bytes(NPX), rng.bytes(NPX)];

    let mut asm = Asm::new();
    let args = ColorArgs {
        src: [asm.arg(0), asm.arg(1), asm.arg(2)],
        dst: [asm.arg(3), asm.arg(4), asm.arg(5)],
        npx: asm.arg(6),
        coltab: asm.arg(7),
    };
    if forward {
        emit_rgb(&mut asm, v, &args);
    } else {
        emit_ycc(&mut asm, v, &args);
    }
    asm.halt();
    let program = asm.finish();

    let mut layout = Layout::new();
    let src_addrs: Vec<u64> = (0..3).map(|_| layout.alloc_array(NPX as u64, 1)).collect();
    let dst_addrs: Vec<u64> = (0..3).map(|_| layout.alloc_array(NPX as u64, 1)).collect();
    let mut table = if forward {
        rgb_coltab(v.width())
    } else {
        ycc_coltab(v.width())
    };
    // The matrix variants load the table as 16 rows (VL = 16) and use only
    // the first few; zero-pad it so that load stays inside the layout.
    table.resize(16 * v.width(), 0);
    let tab_addr = layout.alloc_array(table.len() as u64, 1);

    let mut machine = layout.machine(v.machine_ext());
    for (addr, data) in src_addrs.iter().zip(srcs.iter()) {
        machine.write_bytes(*addr, data).unwrap();
    }
    machine.write_bytes(tab_addr, &table).unwrap();
    for (k, addr) in src_addrs.iter().enumerate() {
        machine.set_ireg(k, *addr as i64);
    }
    for (k, addr) in dst_addrs.iter().enumerate() {
        machine.set_ireg(3 + k, *addr as i64);
    }
    machine.set_ireg(6, NPX as i64);
    machine.set_ireg(7, tab_addr as i64);

    let mut expected: [Vec<u8>; 3] = [vec![0; NPX], vec![0; NPX], vec![0; NPX]];
    for px in 0..NPX {
        let (o0, o1, o2) = if forward {
            golden_rgb_px(srcs[0][px], srcs[1][px], srcs[2][px])
        } else {
            golden_ycc_px(srcs[0][px], srcs[1][px], srcs[2][px])
        };
        expected[0][px] = o0;
        expected[1][px] = o1;
        expected[2][px] = o2;
    }

    BuiltKernel::new(program, &layout, machine, move |m: &Machine| {
        for (plane, (addr, exp)) in dst_addrs.iter().zip(expected.iter()).enumerate() {
            let got = m.read_bytes(*addr, NPX).map_err(|e| e.to_string())?;
            if let Some(px) = got.iter().zip(exp.iter()).position(|(a, b)| a != b) {
                return Err(format!(
                    "colour mismatch plane {plane} pixel {px}: got {} want {}",
                    got[px], exp[px]
                ));
            }
        }
        Ok(())
    })
}

/// The `rgb` kernel: RGB → YCC colour conversion.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rgb;

impl Kernel for Rgb {
    fn spec(&self) -> KernelSpec {
        KernelSpec {
            name: "rgb",
            app: "jpegenc",
            description: "RGB to YCC color conversion",
            data_size: "RGB triads",
        }
    }

    fn build(&self, v: Variant) -> BuiltKernel {
        color_workload(v, true)
    }
}

/// The `ycc` kernel: YCC → RGB colour conversion.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ycc;

impl Kernel for Ycc {
    fn spec(&self) -> KernelSpec {
        KernelSpec {
            name: "ycc",
            app: "jpegdec",
            description: "YCC to RGB color conversion",
            data_size: "(Y,Cb,Cr) x Image width 8-bit",
        }
    }

    fn build(&self, v: Variant) -> BuiltKernel {
        color_workload(v, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_roundtrip_is_close() {
        // Forward then inverse should land near the original colour.
        for (r, g, b) in [
            (10u8, 200u8, 30u8),
            (255, 255, 255),
            (0, 0, 0),
            (128, 64, 200),
        ] {
            let (y, cb, cr) = golden_rgb_px(r, g, b);
            let (r2, g2, b2) = golden_ycc_px(y, cb, cr);
            assert!(r.abs_diff(r2) < 12, "{r} vs {r2}");
            assert!(g.abs_diff(g2) < 12, "{g} vs {g2}");
            assert!(b.abs_diff(b2) < 12, "{b} vs {b2}");
        }
    }

    #[test]
    fn all_variants_match_golden_rgb() {
        for v in Variant::ALL {
            Rgb.build(v)
                .run_checked()
                .unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn all_variants_match_golden_ycc() {
        for v in Variant::ALL {
            Ycc.build(v)
                .run_checked()
                .unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn vmmx_reduces_instruction_count() {
        let mmx = Rgb.build(Variant::Mmx64).run_checked().unwrap();
        let vmmx = Rgb.build(Variant::Vmmx128).run_checked().unwrap();
        assert!(vmmx.dyn_instrs * 4 < mmx.dyn_instrs);
    }
}
