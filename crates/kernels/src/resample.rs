//! The `h2v2` kernel: 2×2 triangle-filter image up-sampling (jpegdec).
//!
//! Semantics (jpeglib "fancy upsampling" flavour): every input pixel
//! produces a 2×2 output quad, each output weighting the nearest input
//! 9/16, the horizontal and vertical neighbours 3/16 each and the diagonal
//! 1/16:
//!
//! ```text
//! out[2y+dy][2x+dx] = (9·in[y][x] + 3·in[y][x+ox] + 3·in[y+oy][x]
//!                      + in[y+oy][x+ox] + 8) >> 4,   ox = 2dx−1, oy = 2dy−1
//! ```
//!
//! The input buffer is edge-padded by one pixel on every side so no
//! variant needs boundary conditionals; the vectorised variants stream
//! along image rows (the "vector stride of one, maximum VL" case the
//! paper highlights for this kernel).

use crate::{BuiltKernel, Kernel, KernelSpec, Variant};
use simdsim_asm::Asm;
use simdsim_emu::{Layout, Machine};
use simdsim_isa::{Esz, IReg, MOperand, VOp, VShiftOp};

/// Input width of the standalone workload (pixels).
pub const W_IN: usize = 256;
/// Input height of the standalone workload (pixels).
pub const H_IN: usize = 16;

/// Golden reference: up-samples a padded `w×h` plane.
///
/// `input` has stride `w + 2` and `h + 2` rows (1-pixel replicated
/// border); `out` has stride `2w` and `2h` rows.
pub fn golden_h2v2(input: &[u8], w: usize, h: usize, out: &mut [u8]) {
    let stride = w + 2;
    let at =
        |x: i64, y: i64| -> i32 { i32::from(input[((y + 1) * stride as i64 + x + 1) as usize]) };
    for y in 0..h as i64 {
        for x in 0..w as i64 {
            for dy in 0..2i64 {
                for dx in 0..2i64 {
                    let ox = 2 * dx - 1;
                    let oy = 2 * dy - 1;
                    let v = (9 * at(x, y)
                        + 3 * at(x + ox, y)
                        + 3 * at(x, y + oy)
                        + at(x + ox, y + oy)
                        + 8)
                        >> 4;
                    out[((2 * y + dy) * 2 * w as i64 + 2 * x + dx) as usize] = v as u8;
                }
            }
        }
    }
}

/// Pads a `w×h` plane with a replicated 1-pixel border (stride `w+2`).
#[must_use]
pub fn pad_plane(plane: &[u8], w: usize, h: usize) -> Vec<u8> {
    let stride = w + 2;
    let mut out = vec![0u8; stride * (h + 2)];
    for y in 0..h + 2 {
        let sy = y.clamp(1, h) - 1;
        for x in 0..w + 2 {
            let sx = x.clamp(1, w) - 1;
            out[y * stride + x] = plane[sy * w + sx];
        }
    }
    out
}

/// Argument registers of the `h2v2` kernel.
#[derive(Debug, Clone, Copy)]
pub struct H2v2Args {
    /// Padded input base (points at the padded buffer origin).
    pub input: IReg,
    /// Output base.
    pub out: IReg,
    /// Input width in pixels (stride is `w+2`).
    pub w: IReg,
    /// Input height in pixels.
    pub h: IReg,
    /// Coefficient table base (matrix variants; 16 splat rows).
    pub coltab: IReg,
}

/// Coefficient-table row indices for the matrix variants.
mod h2c {
    pub const C9: u8 = 0;
    pub const C3: u8 = 1;
    pub const C8: u8 = 2;
    pub const ZERO: u8 = 3;
    /// 16 rows so the table can be loaded with VL = 16.
    pub const VALUES: [u16; 16] = [9, 3, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
}

/// Builds the coefficient table for the matrix variants of `h2v2`.
#[must_use]
pub fn h2v2_coltab(width: usize) -> Vec<u8> {
    crate::color::splat_rows(&h2c::VALUES, width)
}

/// Emits the full `h2v2` kernel in the requested variant.
pub fn emit_h2v2(a: &mut Asm, v: Variant, args: &H2v2Args) {
    match v {
        Variant::Scalar => emit_scalar(a, args),
        Variant::Mmx64 | Variant::Mmx128 => a.vector_region(|a| emit_mmx(a, v.width(), args)),
        Variant::Vmmx64 | Variant::Vmmx128 => a.vector_region(|a| emit_vmmx(a, v.width(), args)),
    }
}

fn emit_scalar(a: &mut Asm, args: &H2v2Args) {
    let stride = a.ireg();
    let wout = a.ireg();
    let (row_in, row_out, x, y) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
    let (pin, pup, pdn, pout) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
    let (cur, t, u, s) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
    a.addi(stride, args.w, 2);
    a.slli(wout, args.w, 1);
    // row_in points at pixel (0, y) of the padded buffer.
    a.add(row_in, args.input, stride);
    a.addi(row_in, row_in, 1);
    a.mv(row_out, args.out);
    a.li(y, 0);
    a.for_loop(y, args.h, |a| {
        a.li(x, 0);
        a.for_loop(x, args.w, |a| {
            a.add(pin, row_in, x);
            a.sub(pup, pin, stride);
            a.add(pdn, pin, stride);
            a.lbu(cur, pin, 0);
            a.muli(cur, cur, 9);
            for dy in 0..2 {
                let pv = if dy == 0 { pup } else { pdn };
                for dx in 0..2 {
                    let ox = 2 * dx - 1;
                    a.lbu(t, pin, ox);
                    a.muli(t, t, 3);
                    a.add(t, t, cur);
                    a.lbu(u, pv, 0);
                    a.muli(u, u, 3);
                    a.add(t, t, u);
                    a.lbu(u, pv, ox);
                    a.add(t, t, u);
                    a.addi(t, t, 8);
                    a.srli(t, t, 4);
                    // out[(2y+dy)*wout + 2x+dx]
                    a.slli(s, x, 1);
                    a.add(s, s, row_out);
                    if dy == 1 {
                        a.add(s, s, wout);
                    }
                    a.sb(t, s, dx);
                }
            }
        });
        a.add(row_in, row_in, stride);
        a.slli(t, wout, 1);
        a.add(row_out, row_out, t);
    });
    for r in [
        stride, wout, row_in, row_out, x, y, pin, pup, pdn, pout, cur, t, u, s,
    ] {
        a.release_ireg(r);
    }
}

fn emit_mmx(a: &mut Asm, width: usize, args: &H2v2Args) {
    let w8 = width as u8;
    let stride = a.ireg();
    let wout = a.ireg();
    let (row_in, row_out, x, y) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
    let (pin, pup, pdn, pout, t) = (a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg());
    // Constants.
    let c9 = crate::color::splat_const(a, 9);
    let c3 = crate::color::splat_const(a, 3);
    let c8 = crate::color::splat_const(a, 8);
    let zero = crate::color::splat_const(a, 0);
    // Working registers (the 8×8-pixel working set fills most of the
    // 32-register SIMD file — exactly the pressure the paper describes).
    let raw: Vec<_> = (0..6).map(|_| a.vreg()).collect(); // a, am, ap + b, bm, bp (per dy)
    let a16: Vec<_> = (0..6).map(|_| a.vreg()).collect(); // a, am, ap × lo/hi
    let b16: Vec<_> = (0..6).map(|_| a.vreg()).collect(); // b, bm, bp × lo/hi (per dy)
    let nine: Vec<_> = (0..2).map(|_| a.vreg()).collect();
    let (acc, tmp) = (a.vreg(), a.vreg());
    let res: Vec<_> = (0..4).map(|_| a.vreg()).collect(); // dx × half
    a.addi(stride, args.w, 2);
    a.slli(wout, args.w, 1);
    a.add(row_in, args.input, stride);
    a.addi(row_in, row_in, 1);
    a.mv(row_out, args.out);
    a.li(y, 0);
    a.for_loop(y, args.h, |a| {
        a.li(x, 0);
        a.for_loop_step(x, args.w, width as i32, |a| {
            a.add(pin, row_in, x);
            a.sub(pup, pin, stride);
            a.add(pdn, pin, stride);
            for (k, (base, off)) in [(pin, 0i32), (pin, -1), (pin, 1)].iter().enumerate() {
                a.vload(raw[k], *base, *off, w8);
            }
            for k in 0..3 {
                a.simd(VOp::UnpackLo(Esz::B), a16[2 * k], raw[k], zero);
                a.simd(VOp::UnpackHi(Esz::B), a16[2 * k + 1], raw[k], zero);
            }
            for half in 0..2 {
                a.simd(VOp::Mullo(Esz::H), nine[half], a16[half], c9);
            }
            for dy in 0..2usize {
                let pv = if dy == 0 { pup } else { pdn };
                for (k, off) in [0i32, -1, 1].iter().enumerate() {
                    a.vload(raw[3 + k], pv, *off, w8);
                }
                for k in 0..3 {
                    let src = raw[3 + k];
                    a.simd(VOp::UnpackLo(Esz::B), b16[2 * k], src, zero);
                    a.simd(VOp::UnpackHi(Esz::B), b16[2 * k + 1], src, zero);
                }
                for half in 0..2 {
                    // 3·b is shared between dx=0 and dx=1.
                    a.simd(VOp::Mullo(Esz::H), tmp, b16[half], c3);
                    for dx in 0..2usize {
                        let hsel = 2 + 2 * (dx == 1) as usize; // am or ap family
                        a.simd(VOp::Mullo(Esz::H), acc, a16[hsel + half], c3);
                        a.simd(VOp::Add(Esz::H), acc, acc, nine[half]);
                        a.simd(VOp::Add(Esz::H), acc, acc, tmp);
                        let bsel = 2 + 2 * (dx == 1) as usize;
                        a.simd(VOp::Add(Esz::H), acc, acc, b16[bsel + half]);
                        a.simd(VOp::Add(Esz::H), acc, acc, c8);
                        a.vshift(VShiftOp::Srl(Esz::H), res[2 * dx + half], acc, 4);
                    }
                }
                // Pack in place, then interleave dx=0 / dx=1 bytes.
                a.simd(VOp::PackU(Esz::H), res[0], res[0], res[1]);
                a.simd(VOp::PackU(Esz::H), res[2], res[2], res[3]);
                a.simd(VOp::UnpackLo(Esz::B), acc, res[0], res[2]);
                a.simd(VOp::UnpackHi(Esz::B), tmp, res[0], res[2]);
                // pout = row_out + dy*wout + 2x
                a.slli(t, x, 1);
                a.add(pout, row_out, t);
                if dy == 1 {
                    a.add(pout, pout, wout);
                }
                a.vstore(acc, pout, 0, w8);
                a.vstore(tmp, pout, width as i32, w8);
            }
        });
        a.add(row_in, row_in, stride);
        a.slli(t, wout, 1);
        a.add(row_out, row_out, t);
    });
    for r in [stride, wout, row_in, row_out, x, y, pin, pup, pdn, pout, t] {
        a.release_ireg(r);
    }
    for vr in [c9, c3, c8, zero, acc, tmp]
        .into_iter()
        .chain(raw)
        .chain(a16)
        .chain(b16)
        .chain(nine)
        .chain(res)
    {
        a.release_vreg(vr);
    }
}

fn emit_vmmx(a: &mut Asm, width: usize, args: &H2v2Args) {
    use h2c::*;
    // 2-D tiles: VL = 16 *image rows* × `width` columns per matrix load
    // (strided by the padded image stride), so narrow planes — e.g. the
    // 32-pixel chroma planes of jpegdec — vectorise at full VL too.
    // Requires the input height to be a multiple of 16.
    let w8 = width as u8;
    let stride = a.ireg();
    let wout = a.ireg();
    let (row_in, row_out, x, y) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
    let (pin, pup, pdn, pout, t, two_wout) =
        (a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg());
    let coef = a.mreg();
    let raw: Vec<_> = (0..3).map(|_| a.mreg()).collect(); // a, am, ap
    let braw: Vec<_> = (0..3).map(|_| a.mreg()).collect(); // b, bm, bp (per dy)
    let (nine_lo, nine_hi, acc, tmp, p0, p1, pk0, pk1) = (
        a.mreg(),
        a.mreg(),
        a.mreg(),
        a.mreg(),
        a.mreg(),
        a.mreg(),
        a.mreg(),
        a.mreg(),
    );
    a.setvl(16);
    a.mload(coef, args.coltab, width as i32, w8);
    a.addi(stride, args.w, 2);
    a.slli(wout, args.w, 1);
    a.slli(two_wout, args.w, 2); // 2·wout
    a.add(row_in, args.input, stride);
    a.addi(row_in, row_in, 1);
    a.mv(row_out, args.out);
    a.li(y, 0);
    a.for_loop_step(y, args.h, 16, |a| {
        a.li(x, 0);
        a.for_loop_step(x, args.w, width as i32, |a| {
            a.add(pin, row_in, x);
            a.sub(pup, pin, stride);
            a.add(pdn, pin, stride);
            // Strided 2-D tile loads: 16 image rows per matrix register.
            a.mload(raw[0], pin, stride, w8);
            let pm = a.ireg();
            a.subi(pm, pin, 1);
            a.mload(raw[1], pm, stride, w8);
            a.addi(pm, pin, 1);
            a.mload(raw[2], pm, stride, w8);
            a.release_ireg(pm);
            a.mop(
                VOp::UnpackLo(Esz::B),
                tmp,
                raw[0],
                MOperand::RowBcast(coef, ZERO),
            );
            a.mop(
                VOp::Mullo(Esz::H),
                nine_lo,
                tmp,
                MOperand::RowBcast(coef, C9),
            );
            a.mop(
                VOp::UnpackHi(Esz::B),
                tmp,
                raw[0],
                MOperand::RowBcast(coef, ZERO),
            );
            a.mop(
                VOp::Mullo(Esz::H),
                nine_hi,
                tmp,
                MOperand::RowBcast(coef, C9),
            );
            for dy in 0..2usize {
                let pv = if dy == 0 { pup } else { pdn };
                a.mload(braw[0], pv, stride, w8);
                let pm = a.ireg();
                a.subi(pm, pv, 1);
                a.mload(braw[1], pm, stride, w8);
                a.addi(pm, pv, 1);
                a.mload(braw[2], pm, stride, w8);
                a.release_ireg(pm);
                for dx in 0..2usize {
                    let hraw = raw[1 + dx]; // am or ap
                    let braw_d = braw[1 + dx]; // bm or bp
                    for half in 0..2usize {
                        let nine_h = if half == 0 { nine_lo } else { nine_hi };
                        let unpack = if half == 0 {
                            VOp::UnpackLo(Esz::B)
                        } else {
                            VOp::UnpackHi(Esz::B)
                        };
                        // 3 · horizontal neighbour + 9 · centre
                        a.mop(unpack, tmp, hraw, MOperand::RowBcast(coef, ZERO));
                        a.mop(VOp::Mullo(Esz::H), acc, tmp, MOperand::RowBcast(coef, C3));
                        a.mop(VOp::Add(Esz::H), acc, acc, MOperand::M(nine_h));
                        // 3 · vertical neighbour
                        a.mop(unpack, tmp, braw[0], MOperand::RowBcast(coef, ZERO));
                        a.mop(VOp::Mullo(Esz::H), tmp, tmp, MOperand::RowBcast(coef, C3));
                        a.mop(VOp::Add(Esz::H), acc, acc, MOperand::M(tmp));
                        // + diagonal + rounding
                        a.mop(unpack, tmp, braw_d, MOperand::RowBcast(coef, ZERO));
                        a.mop(VOp::Add(Esz::H), acc, acc, MOperand::M(tmp));
                        a.mop(VOp::Add(Esz::H), acc, acc, MOperand::RowBcast(coef, C8));
                        a.mshift(
                            VShiftOp::Srl(Esz::H),
                            if half == 0 { p0 } else { p1 },
                            acc,
                            4,
                        );
                    }
                    let dst = if dx == 0 { pk0 } else { pk1 };
                    a.mop(VOp::PackU(Esz::H), dst, p0, p1);
                }
                // Interleave dx=0 and dx=1 bytes.
                a.mop(VOp::UnpackLo(Esz::B), p0, pk0, MOperand::M(pk1));
                a.mop(VOp::UnpackHi(Esz::B), p1, pk0, MOperand::M(pk1));
                // Store: chunk r goes to out + 2·r·width (stride 2·width).
                a.slli(t, x, 1);
                a.add(pout, row_out, t);
                if dy == 1 {
                    a.add(pout, pout, wout);
                }
                // Tile row r lands on output row 2·(y0+r)+dy: stride 2·wout.
                a.mstore(p0, pout, two_wout, w8);
                a.addi(pout, pout, width as i32);
                a.mstore(p1, pout, two_wout, w8);
            }
        });
        // Advance one 16-row tile: 16 input rows, 32 output rows.
        a.slli(t, stride, 4);
        a.add(row_in, row_in, t);
        a.slli(t, wout, 5);
        a.add(row_out, row_out, t);
    });
    for r in [
        stride, wout, row_in, row_out, x, y, pin, pup, pdn, pout, t, two_wout,
    ] {
        a.release_ireg(r);
    }
    for m in [coef, nine_lo, nine_hi, acc, tmp, p0, p1, pk0, pk1]
        .into_iter()
        .chain(raw)
        .chain(braw)
    {
        a.release_mreg(m);
    }
}

/// The `h2v2` kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct H2v2;

impl Kernel for H2v2 {
    fn spec(&self) -> KernelSpec {
        KernelSpec {
            name: "h2v2",
            app: "jpegdec",
            description: "Image up-sampling",
            data_size: "Image width",
        }
    }

    fn build(&self, v: Variant) -> BuiltKernel {
        let plane = crate::data::smooth_plane(W_IN, H_IN, 91);
        let padded = pad_plane(&plane, W_IN, H_IN);

        let mut asm = Asm::new();
        let args = H2v2Args {
            input: asm.arg(0),
            out: asm.arg(1),
            w: asm.arg(2),
            h: asm.arg(3),
            coltab: asm.arg(4),
        };
        emit_h2v2(&mut asm, v, &args);
        asm.halt();
        let program = asm.finish();

        let table = h2v2_coltab(v.width());
        let mut layout = Layout::new();
        let in_addr = layout.alloc_array(padded.len() as u64, 1);
        let out_addr = layout.alloc_array((4 * W_IN * H_IN) as u64, 1);
        let tab_addr = layout.alloc_array(table.len() as u64, 1);

        let mut machine = layout.machine(v.machine_ext());
        machine.write_bytes(in_addr, &padded).unwrap();
        machine.write_bytes(tab_addr, &table).unwrap();
        machine.set_ireg(0, in_addr as i64);
        machine.set_ireg(1, out_addr as i64);
        machine.set_ireg(2, W_IN as i64);
        machine.set_ireg(3, H_IN as i64);
        machine.set_ireg(4, tab_addr as i64);

        let mut expected = vec![0u8; 4 * W_IN * H_IN];
        golden_h2v2(&padded, W_IN, H_IN, &mut expected);

        BuiltKernel::new(program, &layout, machine, move |m: &Machine| {
            let got = m
                .read_bytes(out_addr, expected.len())
                .map_err(|e| e.to_string())?;
            if let Some(i) = got.iter().zip(&expected).position(|(a, b)| a != b) {
                return Err(format!(
                    "h2v2 mismatch at byte {i} (px ({},{})): got {} want {}",
                    i % (2 * W_IN),
                    i / (2 * W_IN),
                    got[i],
                    expected[i]
                ));
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_constant_plane_stays_constant() {
        let plane = vec![100u8; 16 * 4];
        let padded = pad_plane(&plane, 16, 4);
        let mut out = vec![0u8; 4 * 16 * 4];
        golden_h2v2(&padded, 16, 4, &mut out);
        assert!(out.iter().all(|p| *p == 100));
    }

    #[test]
    fn pad_plane_replicates_edges() {
        let plane: Vec<u8> = (0..12).collect(); // 4x3
        let p = pad_plane(&plane, 4, 3);
        assert_eq!(p[0], plane[0]); // corner
        assert_eq!(p[6 + 1], plane[0]); // row 1, col 1: first interior texel
        assert_eq!(p[6 * 4 + 5], plane[11]); // bottom-right
    }

    #[test]
    fn all_variants_match_golden_h2v2() {
        for v in Variant::ALL {
            H2v2.build(v)
                .run_checked()
                .unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }
}
