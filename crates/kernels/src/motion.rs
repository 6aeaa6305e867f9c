//! Motion-estimation and block-reconstruction kernels of the MPEG-2 codec:
//! `motion1` (SAD), `motion2` (SSD), `comp` (motion compensation) and
//! `addblock` (saturating block addition).
//!
//! The five variants of `motion1` follow the paper's Figure 3 line by line:
//! the scalar version keeps both loops, the MMX versions eliminate the
//! inner loop (processing one or two rows per iteration), and the VMMX
//! versions eliminate *both* loops with strided matrix loads and packed
//! accumulators.

use crate::{BuiltKernel, Kernel, KernelSpec, Variant};
use simdsim_asm::Asm;
use simdsim_emu::{Layout, Machine};
use simdsim_isa::{AccOp, Cond, Esz, IReg, VOp};

// ======================================================================
// Golden references
// ======================================================================

/// Golden SAD of a `16 × h` block (`dist1` of the MPEG-2 encoder).
#[must_use]
pub fn golden_sad(cur: &[u8], refp: &[u8], stride: usize, h: usize) -> i64 {
    let mut s = 0i64;
    for j in 0..h {
        for i in 0..16 {
            s += i64::from(cur[j * stride + i].abs_diff(refp[j * stride + i]));
        }
    }
    s
}

/// Golden SSD of a `16 × h` block (`dist2` of the MPEG-2 encoder).
#[must_use]
pub fn golden_ssd(cur: &[u8], refp: &[u8], stride: usize, h: usize) -> i64 {
    let mut s = 0i64;
    for j in 0..h {
        for i in 0..16 {
            let d = i64::from(cur[j * stride + i]) - i64::from(refp[j * stride + i]);
            s += d * d;
        }
    }
    s
}

/// Golden motion compensation: `dst = (a + b + 1) >> 1` over an `8 × h`
/// block.
pub fn golden_comp(a: &[u8], b: &[u8], dst: &mut [u8], stride: usize, h: usize) {
    for j in 0..h {
        for i in 0..8 {
            let s = u16::from(a[j * stride + i]) + u16::from(b[j * stride + i]) + 1;
            dst[j * stride + i] = (s >> 1) as u8;
        }
    }
}

/// Golden `addblock`: `dst = clamp(dst + blk, 0, 255)` over an 8×8 block;
/// `blk` is a contiguous row-major 8×8 `i16` array.
pub fn golden_addblock(dst: &mut [u8], stride: usize, blk: &[i16]) {
    for j in 0..8 {
        for i in 0..8 {
            let v = i32::from(dst[j * stride + i]) + i32::from(blk[j * 8 + i]);
            dst[j * stride + i] = v.clamp(0, 255) as u8;
        }
    }
}

// ======================================================================
// Emitters
// ======================================================================

/// Argument registers of the SAD/SSD body: block pointers, row stride,
/// block height and the scalar result destination.
#[derive(Debug, Clone, Copy)]
pub struct SadArgs {
    /// Current-block pointer (not clobbered).
    pub p1: IReg,
    /// Reference-block pointer (not clobbered).
    pub p2: IReg,
    /// Row stride in bytes.
    pub lx: IReg,
    /// Block height (rows).
    pub h: IReg,
    /// Result register.
    pub out: IReg,
}

/// Emits the `motion1` (SAD) body in the requested variant.
pub fn emit_motion1(a: &mut Asm, v: Variant, args: &SadArgs) {
    emit_distance(a, v, args, false);
}

/// Emits the `motion2` (SSD) body in the requested variant.
pub fn emit_motion2(a: &mut Asm, v: Variant, args: &SadArgs) {
    emit_distance(a, v, args, true);
}

fn emit_distance(a: &mut Asm, v: Variant, args: &SadArgs, squared: bool) {
    match v {
        Variant::Scalar => emit_distance_scalar(a, args, squared),
        Variant::Mmx64 | Variant::Mmx128 => {
            a.vector_region(|a| emit_distance_mmx(a, v.width(), args, squared));
        }
        Variant::Vmmx64 | Variant::Vmmx128 => {
            a.vector_region(|a| emit_distance_vmmx(a, v.width(), args, squared));
        }
    }
}

fn emit_distance_scalar(a: &mut Asm, args: &SadArgs, squared: bool) {
    let (p1, p2) = (a.ireg(), a.ireg());
    let (x, y, vv, i, j) = (a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg());
    a.mv(p1, args.p1);
    a.mv(p2, args.p2);
    a.li(args.out, 0);
    a.li(j, 0);
    a.for_loop(j, args.h, |a| {
        a.li(i, 0);
        a.for_loop(i, 16, |a| {
            a.add(x, p1, i);
            a.lbu(x, x, 0);
            a.add(y, p2, i);
            a.lbu(y, y, 0);
            a.sub(vv, x, y);
            if squared {
                a.mul(vv, vv, vv);
            } else {
                // if (v < 0) v = -v;
                a.if_(Cond::Lt, vv, 0, |a| {
                    a.li(x, 0);
                    a.sub(vv, x, vv);
                });
            }
            a.add(args.out, args.out, vv);
        });
        a.add(p1, p1, args.lx);
        a.add(p2, p2, args.lx);
    });
    for r in [p1, p2, x, y, vv, i, j] {
        a.release_ireg(r);
    }
}

fn emit_distance_mmx(a: &mut Asm, width: usize, args: &SadArgs, squared: bool) {
    let (p1, p2, j, t) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
    a.mv(p1, args.p1);
    a.mv(p2, args.p2);
    let acc1 = a.vreg();
    let acc2 = a.vreg();
    let zero = a.vreg();
    let (v1, v2, v3, v4) = (a.vreg(), a.vreg(), a.vreg(), a.vreg());
    a.li(t, 0);
    a.vsplat(zero, t, Esz::B);
    a.vmov(acc1, zero);
    a.vmov(acc2, zero);
    a.li(j, 0);
    let halves = 16 / width; // 2 for 64-bit registers, 1 for 128-bit
    a.for_loop(j, args.h, |a| {
        for half in 0..halves {
            let off = (half * width) as i32;
            a.vload(v1, p1, off, width as u8);
            a.vload(v2, p2, off, width as u8);
            if squared {
                // abs-difference bytes, widen, square via pmaddwd
                a.simd(VOp::SubU(Esz::B), v3, v1, v2);
                a.simd(VOp::SubU(Esz::B), v4, v2, v1);
                a.simd(VOp::Or, v3, v3, v4);
                a.simd(VOp::UnpackLo(Esz::B), v1, v3, zero);
                a.simd(VOp::UnpackHi(Esz::B), v2, v3, zero);
                a.simd(VOp::Madd, v1, v1, v1);
                a.simd(VOp::Madd, v2, v2, v2);
                a.simd(VOp::Add(Esz::W), acc1, acc1, v1);
                a.simd(VOp::Add(Esz::W), acc2, acc2, v2);
            } else {
                a.simd(VOp::Sad, v1, v1, v2);
                let acc = if half == 0 { acc1 } else { acc2 };
                a.simd(VOp::Add(Esz::W), acc, acc, v1);
            }
        }
        a.add(p1, p1, args.lx);
        a.add(p2, p2, args.lx);
    });
    // Horizontal reduction to a scalar.
    let lanes_w = width / 4;
    let s = a.ireg();
    a.li(args.out, 0);
    if squared {
        for acc in [acc1, acc2] {
            for l in 0..lanes_w {
                a.movsv(s, acc, l as u8, Esz::W, false);
                a.add(args.out, args.out, s);
            }
        }
    } else {
        // SAD sums live in lane 0 of each 64-bit group.
        for acc in [acc1, acc2] {
            for g in 0..width / 8 {
                a.movsv(s, acc, (2 * g) as u8, Esz::W, false);
                a.add(args.out, args.out, s);
            }
            if width == 16 {
                break; // 128-bit code uses a single accumulator
            }
        }
    }
    a.release_ireg(s);
    for r in [p1, p2, j, t] {
        a.release_ireg(r);
    }
    for vr in [acc1, acc2, zero, v1, v2, v3, v4] {
        a.release_vreg(vr);
    }
}

fn emit_distance_vmmx(a: &mut Asm, width: usize, args: &SadArgs, squared: bool) {
    let op = if squared { AccOp::Ssd } else { AccOp::Sad };
    a.setvl(args.h);
    if width == 16 {
        // Fig. 3(e): the whole 16-wide block fits one matrix register pair.
        let (m1, m2) = (a.mreg(), a.mreg());
        let acc = a.areg();
        a.accclear(acc);
        a.mload(m1, args.p1, args.lx, 16);
        a.mload(m2, args.p2, args.lx, 16);
        a.macc(op, acc, m1, m2);
        a.accsum(args.out, acc);
        a.release_mreg(m1);
        a.release_mreg(m2);
        a.release_areg(acc);
    } else {
        // Fig. 3(c): two 8-byte column halves, two accumulators.
        let (m1, m2, m3, m4) = (a.mreg(), a.mreg(), a.mreg(), a.mreg());
        let (acc1, acc2) = (a.areg(), a.areg());
        let (tp1, tp2, r) = (a.ireg(), a.ireg(), a.ireg());
        a.accclear(acc1);
        a.accclear(acc2);
        a.mload(m1, args.p1, args.lx, 8);
        a.mload(m2, args.p2, args.lx, 8);
        a.macc(op, acc1, m1, m2);
        a.addi(tp1, args.p1, 8);
        a.addi(tp2, args.p2, 8);
        a.mload(m3, tp1, args.lx, 8);
        a.mload(m4, tp2, args.lx, 8);
        a.macc(op, acc2, m3, m4);
        a.accsum(args.out, acc1);
        a.accsum(r, acc2);
        a.add(args.out, args.out, r);
        for m in [m1, m2, m3, m4] {
            a.release_mreg(m);
        }
        a.release_areg(acc1);
        a.release_areg(acc2);
        for t in [tp1, tp2, r] {
            a.release_ireg(t);
        }
    }
}

/// Argument registers of the `comp` (motion compensation) body.
#[derive(Debug, Clone, Copy)]
pub struct CompArgs {
    /// First source pointer.
    pub src1: IReg,
    /// Second source pointer.
    pub src2: IReg,
    /// Destination pointer.
    pub dst: IReg,
    /// Row stride in bytes.
    pub lx: IReg,
    /// Block height.
    pub h: IReg,
}

/// Emits the `comp` body: `dst = avg(src1, src2)` over an 8-wide block.
pub fn emit_comp(a: &mut Asm, v: Variant, args: &CompArgs) {
    match v {
        Variant::Scalar => {
            let (pa, pb, pd) = (a.ireg(), a.ireg(), a.ireg());
            let (x, y, i, j) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
            a.mv(pa, args.src1);
            a.mv(pb, args.src2);
            a.mv(pd, args.dst);
            a.li(j, 0);
            a.for_loop(j, args.h, |a| {
                a.li(i, 0);
                a.for_loop(i, 8, |a| {
                    a.add(x, pa, i);
                    a.lbu(x, x, 0);
                    a.add(y, pb, i);
                    a.lbu(y, y, 0);
                    a.add(x, x, y);
                    a.addi(x, x, 1);
                    a.srli(x, x, 1);
                    a.add(y, pd, i);
                    a.sb(x, y, 0);
                });
                a.add(pa, pa, args.lx);
                a.add(pb, pb, args.lx);
                a.add(pd, pd, args.lx);
            });
            for r in [pa, pb, pd, x, y, i, j] {
                a.release_ireg(r);
            }
        }
        Variant::Mmx64 | Variant::Mmx128 => a.vector_region(|a| {
            // The block is only 8 bytes wide: 128-bit registers bring no
            // benefit (partial loads), exactly as the paper observes.
            let (pa, pb, pd, j) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
            let (v1, v2) = (a.vreg(), a.vreg());
            a.mv(pa, args.src1);
            a.mv(pb, args.src2);
            a.mv(pd, args.dst);
            a.li(j, 0);
            a.for_loop(j, args.h, |a| {
                a.vload(v1, pa, 0, 8);
                a.vload(v2, pb, 0, 8);
                a.simd(VOp::Avg(Esz::B), v1, v1, v2);
                a.vstore(v1, pd, 0, 8);
                a.add(pa, pa, args.lx);
                a.add(pb, pb, args.lx);
                a.add(pd, pd, args.lx);
            });
            for r in [pa, pb, pd, j] {
                a.release_ireg(r);
            }
            a.release_vreg(v1);
            a.release_vreg(v2);
        }),
        Variant::Vmmx64 | Variant::Vmmx128 => a.vector_region(|a| {
            let (m1, m2) = (a.mreg(), a.mreg());
            a.setvl(args.h);
            a.mload(m1, args.src1, args.lx, 8);
            a.mload(m2, args.src2, args.lx, 8);
            a.mop(VOp::Avg(Esz::B), m1, m1, m2);
            a.mstore(m1, args.dst, args.lx, 8);
            a.release_mreg(m1);
            a.release_mreg(m2);
        }),
    }
}

/// Argument registers of the `addblock` body.
#[derive(Debug, Clone, Copy)]
pub struct AddBlockArgs {
    /// Destination picture pointer (8×8 block top-left).
    pub dst: IReg,
    /// Row stride of the picture in bytes.
    pub lx: IReg,
    /// Pointer to the contiguous 8×8 `i16` residual block.
    pub blk: IReg,
}

/// Emits the `addblock` body: `dst = clamp(dst + blk)` over an 8×8 block.
pub fn emit_addblock(a: &mut Asm, v: Variant, args: &AddBlockArgs) {
    match v {
        Variant::Scalar => {
            let (pd, pb) = (a.ireg(), a.ireg());
            let (x, y, i, j) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
            a.mv(pd, args.dst);
            a.mv(pb, args.blk);
            a.li(j, 0);
            a.for_loop(j, 8, |a| {
                a.li(i, 0);
                a.for_loop(i, 8, |a| {
                    a.add(x, pd, i);
                    a.lbu(x, x, 0);
                    a.slli(y, i, 1);
                    a.add(y, pb, y);
                    a.lh(y, y, 0);
                    a.add(x, x, y);
                    a.if_(Cond::Lt, x, 0, |a| a.li(x, 0));
                    a.if_(Cond::Gt, x, 255, |a| a.li(x, 255));
                    a.add(y, pd, i);
                    a.sb(x, y, 0);
                });
                a.add(pd, pd, args.lx);
                a.addi(pb, pb, 16);
            });
            for r in [pd, pb, x, y, i, j] {
                a.release_ireg(r);
            }
        }
        Variant::Mmx64 | Variant::Mmx128 => a.vector_region(|a| {
            let (pd, pb, j, t) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
            let zero = a.vreg();
            let (d, lo, hi) = (a.vreg(), a.vreg(), a.vreg());
            a.mv(pd, args.dst);
            a.mv(pb, args.blk);
            a.li(t, 0);
            a.vsplat(zero, t, Esz::B);
            a.li(j, 0);
            if v.width() == 8 {
                a.for_loop(j, 8, |a| {
                    a.vload(d, pd, 0, 8);
                    a.simd(VOp::UnpackLo(Esz::B), lo, d, zero);
                    a.simd(VOp::UnpackHi(Esz::B), hi, d, zero);
                    a.vload(d, pb, 0, 8);
                    a.simd(VOp::AddS(Esz::H), lo, lo, d);
                    a.vload(d, pb, 8, 8);
                    a.simd(VOp::AddS(Esz::H), hi, hi, d);
                    a.simd(VOp::PackU(Esz::H), lo, lo, hi);
                    a.vstore(lo, pd, 0, 8);
                    a.add(pd, pd, args.lx);
                    a.addi(pb, pb, 16);
                });
            } else {
                a.for_loop(j, 8, |a| {
                    a.vload(d, pd, 0, 8);
                    a.simd(VOp::UnpackLo(Esz::B), lo, d, zero);
                    a.vload(d, pb, 0, 16);
                    a.simd(VOp::AddS(Esz::H), lo, lo, d);
                    a.simd(VOp::PackU(Esz::H), lo, lo, zero);
                    a.vstore(lo, pd, 0, 8);
                    a.add(pd, pd, args.lx);
                    a.addi(pb, pb, 16);
                });
            }
            for r in [pd, pb, j, t] {
                a.release_ireg(r);
            }
            for vr in [zero, d, lo, hi] {
                a.release_vreg(vr);
            }
        }),
        Variant::Vmmx64 | Variant::Vmmx128 => a.vector_region(|a| {
            let t = a.ireg();
            let zero = a.mreg();
            let (d, lo, hi, b0, b1) = (a.mreg(), a.mreg(), a.mreg(), a.mreg(), a.mreg());
            a.setvl(8);
            a.li(t, 0);
            a.msplat(zero, t, Esz::B);
            a.mload(d, args.dst, args.lx, 8);
            a.mop(VOp::UnpackLo(Esz::B), lo, d, zero);
            if v.width() == 8 {
                let tp = a.ireg();
                a.mop(VOp::UnpackHi(Esz::B), hi, d, zero);
                a.mload(b0, args.blk, 16, 8);
                a.addi(tp, args.blk, 8);
                a.mload(b1, tp, 16, 8);
                a.mop(VOp::AddS(Esz::H), lo, lo, b0);
                a.mop(VOp::AddS(Esz::H), hi, hi, b1);
                a.mop(VOp::PackU(Esz::H), lo, lo, hi);
                a.release_ireg(tp);
            } else {
                a.mload(b0, args.blk, 16, 16);
                a.mop(VOp::AddS(Esz::H), lo, lo, b0);
                a.mop(VOp::PackU(Esz::H), lo, lo, zero);
            }
            a.mstore(lo, args.dst, args.lx, 8);
            a.release_ireg(t);
            for m in [zero, d, lo, hi, b0, b1] {
                a.release_mreg(m);
            }
        }),
    }
}

// ======================================================================
// Standalone kernel workloads
// ======================================================================

const STRIDE: usize = 800; // the comp stride the paper quotes
const NPOS: usize = 48;

fn block_workload(v: Variant, squared: bool) -> BuiltKernel {
    let h = 16usize;
    let cur = crate::data::smooth_plane(STRIDE, h, 11);
    let refp = crate::data::smooth_plane(STRIDE, h, 23);

    let mut asm = Asm::new();
    let (p1, p2, lxr, hr, outp, npos) = (
        asm.arg(0),
        asm.arg(1),
        asm.arg(2),
        asm.arg(3),
        asm.arg(4),
        asm.arg(5),
    );
    let s = asm.ireg();
    let i = asm.ireg();
    let sargs = SadArgs {
        p1,
        p2,
        lx: lxr,
        h: hr,
        out: s,
    };
    asm.li(i, 0);
    asm.for_loop(i, npos, |a| {
        if squared {
            emit_motion2(a, v, &sargs);
        } else {
            emit_motion1(a, v, &sargs);
        }
        a.sw(s, outp, 0);
        a.addi(outp, outp, 4);
        a.addi(p1, p1, 16);
        a.addi(p2, p2, 16);
    });
    asm.halt();
    let program = asm.finish();

    let mut layout = Layout::new();
    let cur_addr = layout.alloc_array(cur.len() as u64, 1);
    let ref_addr = layout.alloc_array(refp.len() as u64, 1);
    let out_addr = layout.alloc_array(NPOS as u64, 4);

    let mut machine = layout.machine(v.machine_ext());
    machine.write_bytes(cur_addr, &cur).unwrap();
    machine.write_bytes(ref_addr, &refp).unwrap();
    machine.set_ireg(0, cur_addr as i64);
    machine.set_ireg(1, ref_addr as i64);
    machine.set_ireg(2, STRIDE as i64);
    machine.set_ireg(3, h as i64);
    machine.set_ireg(4, out_addr as i64);
    machine.set_ireg(5, NPOS as i64);

    let expected: Vec<i32> = (0..NPOS)
        .map(|p| {
            let f = if squared { golden_ssd } else { golden_sad };
            f(&cur[p * 16..], &refp[p * 16..], STRIDE, h) as i32
        })
        .collect();

    BuiltKernel::new(program, &layout, machine, move |m: &Machine| {
        let got = m.read_i32s(out_addr, NPOS).map_err(|e| e.to_string())?;
        if got == expected {
            Ok(())
        } else {
            Err(format!("SAD/SSD mismatch: got {got:?}, want {expected:?}"))
        }
    })
}

/// The `motion1` kernel: 16×16 sum of absolute differences.
#[derive(Debug, Clone, Copy, Default)]
pub struct Motion1;

impl Kernel for Motion1 {
    fn spec(&self) -> KernelSpec {
        KernelSpec {
            name: "motion1",
            app: "mpeg2enc",
            description: "Sum of Absolute Differences",
            data_size: "16x16 8-bit",
        }
    }

    fn build(&self, variant: Variant) -> BuiltKernel {
        block_workload(variant, false)
    }
}

/// The `motion2` kernel: 16×16 sum of squared differences.
#[derive(Debug, Clone, Copy, Default)]
pub struct Motion2;

impl Kernel for Motion2 {
    fn spec(&self) -> KernelSpec {
        KernelSpec {
            name: "motion2",
            app: "mpeg2enc",
            description: "Sum of Quadratic Differences",
            data_size: "16x16 8-bit",
        }
    }

    fn build(&self, variant: Variant) -> BuiltKernel {
        block_workload(variant, true)
    }
}

/// The `comp` kernel: 8×4 motion-compensation average.
#[derive(Debug, Clone, Copy, Default)]
pub struct Comp;

impl Kernel for Comp {
    fn spec(&self) -> KernelSpec {
        KernelSpec {
            name: "comp",
            app: "mpeg2dec",
            description: "Motion compensation",
            data_size: "8x4 8-bit",
        }
    }

    fn build(&self, v: Variant) -> BuiltKernel {
        let h = 4usize;
        let npos = 96usize;
        let a_plane = crate::data::smooth_plane(STRIDE, h, 31);
        let b_plane = crate::data::smooth_plane(STRIDE, h, 41);

        let mut asm = Asm::new();
        let (s1, s2, dst, lxr, hr, nposr) = (
            asm.arg(0),
            asm.arg(1),
            asm.arg(2),
            asm.arg(3),
            asm.arg(4),
            asm.arg(5),
        );
        let i = asm.ireg();
        let cargs = CompArgs {
            src1: s1,
            src2: s2,
            dst,
            lx: lxr,
            h: hr,
        };
        asm.li(i, 0);
        asm.for_loop(i, nposr, |a| {
            emit_comp(a, v, &cargs);
            a.addi(s1, s1, 8);
            a.addi(s2, s2, 8);
            a.addi(dst, dst, 8);
        });
        asm.halt();
        let program = asm.finish();

        let mut layout = Layout::new();
        let a_addr = layout.alloc_array(a_plane.len() as u64, 1);
        let b_addr = layout.alloc_array(b_plane.len() as u64, 1);
        let d_addr = layout.alloc_array((STRIDE * h) as u64, 1);

        let mut machine = layout.machine(v.machine_ext());
        machine.write_bytes(a_addr, &a_plane).unwrap();
        machine.write_bytes(b_addr, &b_plane).unwrap();
        machine.set_ireg(0, a_addr as i64);
        machine.set_ireg(1, b_addr as i64);
        machine.set_ireg(2, d_addr as i64);
        machine.set_ireg(3, STRIDE as i64);
        machine.set_ireg(4, h as i64);
        machine.set_ireg(5, npos as i64);

        let mut expected = vec![0u8; STRIDE * h];
        for p in 0..npos {
            let mut block = vec![0u8; STRIDE * h];
            golden_comp(&a_plane[p * 8..], &b_plane[p * 8..], &mut block, STRIDE, h);
            for j in 0..h {
                for i2 in 0..8 {
                    expected[j * STRIDE + p * 8 + i2] = block[j * STRIDE + i2];
                }
            }
        }

        BuiltKernel::new(program, &layout, machine, move |m: &Machine| {
            let got = m
                .read_bytes(d_addr, STRIDE * h)
                .map_err(|e| e.to_string())?;
            // Only block columns are written; compare those.
            for p in 0..npos {
                for j in 0..h {
                    for i2 in 0..8 {
                        let idx = j * STRIDE + p * 8 + i2;
                        if got[idx] != expected[idx] {
                            return Err(format!(
                                "comp mismatch at block {p} ({j},{i2}): got {} want {}",
                                got[idx], expected[idx]
                            ));
                        }
                    }
                }
            }
            Ok(())
        })
    }
}

/// The `addblock` kernel: saturating 8×8 block addition.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddBlock;

impl Kernel for AddBlock {
    fn spec(&self) -> KernelSpec {
        KernelSpec {
            name: "addblock",
            app: "mpeg2dec",
            description: "Picture decoding (block addition)",
            data_size: "8x8 8-bit",
        }
    }

    fn build(&self, v: Variant) -> BuiltKernel {
        let npos = 96usize;
        let plane = crate::data::smooth_plane(STRIDE, 8, 51);
        let mut rng = crate::data::Rng64::new(61);
        let blocks: Vec<i16> = rng.i16s_in(npos * 64, -160, 160);

        let mut asm = Asm::new();
        let (dst, lxr, blk, nposr) = (asm.arg(0), asm.arg(1), asm.arg(2), asm.arg(3));
        let i = asm.ireg();
        let bargs = AddBlockArgs { dst, lx: lxr, blk };
        asm.li(i, 0);
        asm.for_loop(i, nposr, |a| {
            emit_addblock(a, v, &bargs);
            a.addi(dst, dst, 8);
            a.addi(blk, blk, 128);
        });
        asm.halt();
        let program = asm.finish();

        let mut layout = Layout::new();
        let d_addr = layout.alloc_array((STRIDE * 8) as u64, 1);
        let b_addr = layout.alloc_array((npos * 64) as u64, 2);

        let mut machine = layout.machine(v.machine_ext());
        machine.write_bytes(d_addr, &plane).unwrap();
        machine.write_i16s(b_addr, &blocks).unwrap();
        machine.set_ireg(0, d_addr as i64);
        machine.set_ireg(1, STRIDE as i64);
        machine.set_ireg(2, b_addr as i64);
        machine.set_ireg(3, npos as i64);

        let mut expected = plane.clone();
        for p in 0..npos {
            let mut window = vec![0u8; 8 * 8];
            for j in 0..8 {
                for i2 in 0..8 {
                    window[j * 8 + i2] = expected[j * STRIDE + p * 8 + i2];
                }
            }
            // apply golden on a compact copy with stride 8
            let mut compact = window.clone();
            golden_addblock(&mut compact, 8, &blocks[p * 64..p * 64 + 64]);
            for j in 0..8 {
                for i2 in 0..8 {
                    expected[j * STRIDE + p * 8 + i2] = compact[j * 8 + i2];
                }
            }
        }

        BuiltKernel::new(program, &layout, machine, move |m: &Machine| {
            let got = m
                .read_bytes(d_addr, STRIDE * 8)
                .map_err(|e| e.to_string())?;
            if got == &expected[..] {
                Ok(())
            } else {
                let idx = got
                    .iter()
                    .zip(expected.iter())
                    .position(|(a, b)| a != b)
                    .unwrap();
                Err(format!(
                    "addblock mismatch at byte {idx}: got {} want {}",
                    got[idx], expected[idx]
                ))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_sad_zero_for_identical() {
        let img = crate::data::smooth_plane(64, 16, 1);
        assert_eq!(golden_sad(&img, &img, 64, 16), 0);
        assert!(golden_sad(&img, &img[1..], 64, 16) > 0);
    }

    #[test]
    fn golden_ssd_is_square_of_diffs() {
        let a = [10u8; 64 * 16];
        let mut b = [10u8; 64 * 16];
        b[0] = 13; // d = 3 → 9
        assert_eq!(golden_ssd(&a, &b, 64, 16), 9);
    }

    #[test]
    fn all_variants_match_golden_motion1() {
        for v in Variant::ALL {
            let built = Motion1.build(v);
            built.run_checked().unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn all_variants_match_golden_motion2() {
        for v in Variant::ALL {
            let built = Motion2.build(v);
            built.run_checked().unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn all_variants_match_golden_comp() {
        for v in Variant::ALL {
            let built = Comp.build(v);
            built.run_checked().unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn all_variants_match_golden_addblock() {
        for v in Variant::ALL {
            let built = AddBlock.build(v);
            built.run_checked().unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn vmmx_executes_far_fewer_instructions() {
        let scalar = Motion1.build(Variant::Scalar).run_checked().unwrap();
        let mmx64 = Motion1.build(Variant::Mmx64).run_checked().unwrap();
        let vmmx128 = Motion1.build(Variant::Vmmx128).run_checked().unwrap();
        assert!(mmx64.dyn_instrs < scalar.dyn_instrs / 5);
        assert!(vmmx128.dyn_instrs < mmx64.dyn_instrs / 5);
    }
}
