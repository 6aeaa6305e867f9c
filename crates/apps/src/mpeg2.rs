//! The MPEG-2-style video encoder (`mpeg2enc`) and decoder (`mpeg2dec`).
//!
//! A two-frame GOP (one intra frame, one predicted frame) over a 64×48
//! luma plane with 32×24 chroma:
//!
//! * **encoder** — full-search ±2-pel motion estimation over the
//!   reconstructed reference [vector `motion1`], SQD quality metric
//!   [vector `motion2`], residual transform coding [vector `fdct`], a
//!   closed reconstruction loop [vector `idct`, `addblock`, `comp`], and
//!   scalar mode decision / quantization / entropy coding;
//! * **decoder** — parsing and dequantization [scalar], inverse DCT
//!   [vector `idct`], motion-compensated prediction (averaging mode uses
//!   [vector `comp`]), residual addition [vector `addblock`].
//!
//! The decoder's output planes are bit-identical to the encoder's
//! reconstruction — the usual closed-loop codec invariant, checked
//! against the golden Rust implementation.

use crate::bitio::{
    emit_br_init, emit_bw_flush, emit_bw_init, emit_vlc_decode, emit_vlc_encode, golden_vlc_encode,
    BitWriter, BrRegs, BwRegs,
};
use crate::common::{
    emit_dequant_descan, emit_extract_block, emit_insert_block, emit_load_param, emit_quant_scan,
    golden_dequant_descan, golden_extract_block, golden_insert_block, golden_quant_scan, qsteps,
    ZIGZAG,
};
use crate::{App, AppSpec};
use simdsim_asm::Asm;
use simdsim_emu::{Layout, Machine};
use simdsim_isa::{Cond, IReg};
use simdsim_kernels::dct::{dct_coltab, fdct_matrix, golden_transform, idct_matrix, DctArgs};
use simdsim_kernels::motion::{
    emit_comp, emit_motion1, emit_motion2, golden_addblock, golden_comp, golden_sad, golden_ssd,
    CompArgs, SadArgs,
};
use simdsim_kernels::{BuiltKernel, Variant};

/// Luma width.
pub const W: usize = 96;
/// Luma height.
pub const H: usize = 64;
const WC: usize = W / 2;
const HC: usize = H / 2;
/// Motion search range (± pels).
pub const RANGE: i32 = 2;

mod slot {
    pub const CUR0: usize = 0;
    pub const CUR1: usize = 1;
    pub const RECON0: usize = 2;
    pub const RECON1: usize = 3;
    pub const CB0: usize = 4;
    pub const CR0: usize = 5;
    pub const CB1: usize = 6;
    pub const CR1: usize = 7;
    pub const RCB0: usize = 8;
    pub const RCR0: usize = 9;
    pub const RCB1: usize = 10;
    pub const RCR1: usize = 11;
    pub const BLOCK: usize = 12;
    pub const COEF: usize = 13;
    pub const QSCAN: usize = 14;
    pub const QSTEP: usize = 15;
    pub const ZIGZAG: usize = 16;
    pub const SCRATCH: usize = 17;
    pub const FDCT_COLTAB: usize = 18;
    pub const IDCT_COLTAB: usize = 19;
    pub const STREAM: usize = 20;
    pub const LEN_CELL: usize = 21;
    pub const COUNT: usize = 22;
}

struct Buffers {
    layout: Layout,
    machine: Machine,
    slots: [u64; slot::COUNT],
}

fn make_buffers(v: Variant) -> Buffers {
    let mut layout = Layout::new();
    let mut slots = [0u64; slot::COUNT];
    for (i, bytes) in [
        (slot::CUR0, W * H),
        (slot::CUR1, W * H),
        (slot::RECON0, W * H),
        (slot::RECON1, W * H),
        (slot::CB0, WC * HC),
        (slot::CR0, WC * HC),
        (slot::CB1, WC * HC),
        (slot::CR1, WC * HC),
        (slot::RCB0, WC * HC),
        (slot::RCR0, WC * HC),
        (slot::RCB1, WC * HC),
        (slot::RCR1, WC * HC),
        (slot::BLOCK, 128),
        (slot::COEF, 128),
        (slot::QSCAN, 128),
        (slot::QSTEP, 128),
        (slot::ZIGZAG, 64),
        (slot::SCRATCH, 512),
        (slot::FDCT_COLTAB, 1024),
        (slot::IDCT_COLTAB, 1024),
        (slot::STREAM, 1 << 16),
        (slot::LEN_CELL, 8),
    ] {
        slots[i] = layout.alloc_array(bytes as u64, 8);
    }
    let params_addr = layout.alloc_array((slot::COUNT * 8) as u64, 8);
    let mut machine = layout.machine(v.machine_ext());
    for (i, addr) in slots.iter().enumerate() {
        machine
            .write_bytes(params_addr + (8 * i) as u64, &(*addr as i64).to_le_bytes())
            .unwrap();
    }
    machine.write_i16s(slots[slot::QSTEP], &qsteps(10)).unwrap();
    machine.write_bytes(slots[slot::ZIGZAG], &ZIGZAG).unwrap();
    machine
        .write_bytes(
            slots[slot::FDCT_COLTAB],
            &dct_coltab(&fdct_matrix(), v.width()),
        )
        .unwrap();
    machine
        .write_bytes(
            slots[slot::IDCT_COLTAB],
            &dct_coltab(&idct_matrix(), v.width()),
        )
        .unwrap();
    machine.set_ireg(0, params_addr as i64);
    Buffers {
        layout,
        machine,
        slots,
    }
}

/// Synthetic two-frame sequence: frame 1 is frame 0 shifted by (2,1) with
/// a little noise, so motion search has real work to do.
fn test_sequence() -> (Vec<u8>, Vec<u8>, [Vec<u8>; 4]) {
    let f0 = simdsim_kernels::data::smooth_plane(W, H, 301);
    let mut rng = simdsim_kernels::data::Rng64::new(303);
    let mut f1 = vec![0u8; W * H];
    for y in 0..H {
        for x in 0..W {
            let sx = x.saturating_sub(2).min(W - 1);
            let sy = y.saturating_sub(1).min(H - 1);
            let noise = (rng.next_u64() % 7) as i32 - 3;
            f1[y * W + x] = (i32::from(f0[sy * W + sx]) + noise).clamp(0, 255) as u8;
        }
    }
    let chroma = [
        simdsim_kernels::data::smooth_plane(WC, HC, 305),
        simdsim_kernels::data::smooth_plane(WC, HC, 307),
        simdsim_kernels::data::smooth_plane(WC, HC, 309),
        simdsim_kernels::data::smooth_plane(WC, HC, 311),
    ];
    (f0, f1, chroma)
}

// ======================================================================
// Golden encoder (defines the bitstream and the reconstruction)
// ======================================================================

/// Golden encoder output: bitstream plus all reconstructed planes (which
/// the decoder must reproduce exactly).
#[derive(Debug, Clone)]
pub struct GoldenVideo {
    /// The encoded stream.
    pub stream: Vec<u8>,
    /// Reconstructed intra luma frame.
    pub recon0: Vec<u8>,
    /// Reconstructed predicted luma frame.
    pub recon1: Vec<u8>,
    /// Reconstructed chroma planes (cb0, cr0, cb1, cr1).
    pub chroma: [Vec<u8>; 4],
}

fn golden_intra_plane(
    plane: &[u8],
    w: usize,
    h: usize,
    qstep: &[i16; 64],
    fm: &[i16; 64],
    im: &[i16; 64],
    bw: &mut BitWriter,
) -> Vec<u8> {
    let mut recon = vec![0u8; w * h];
    let mut prev_dc = 0i16;
    for by in 0..h / 8 {
        for bx in 0..w / 8 {
            let block = golden_extract_block(plane, w, bx, by);
            let coef = golden_transform(&block, fm);
            let q = golden_quant_scan(&coef, qstep);
            prev_dc = golden_vlc_encode(&q, prev_dc, bw);
            let deq = golden_dequant_descan(&q, qstep);
            let rec = golden_transform(&deq, im);
            golden_insert_block(&mut recon, w, bx, by, &rec);
        }
    }
    recon
}

/// Runs the golden encoder on the test sequence.
#[must_use]
pub fn golden_mpeg2enc() -> GoldenVideo {
    let (f0, f1, chroma_src) = test_sequence();
    let qstep = qsteps(10);
    let fm = fdct_matrix();
    let im = idct_matrix();
    let mut bw = BitWriter::new();

    // Intra luma frame + its chroma.
    let recon0 = golden_intra_plane(&f0, W, H, &qstep, &fm, &im, &mut bw);
    let rcb0 = golden_intra_plane(&chroma_src[0], WC, HC, &qstep, &fm, &im, &mut bw);
    let rcr0 = golden_intra_plane(&chroma_src[1], WC, HC, &qstep, &fm, &im, &mut bw);

    // Predicted luma frame.
    let mut recon1 = vec![0u8; W * H];
    let mut prev_dc = 0i16;
    for mby in 0..H / 16 {
        for mbx in 0..W / 16 {
            let (px, py) = (mbx * 16, mby * 16);
            // Full search, row-major over (dy, dx), strict improvement.
            let mut best = (px, py);
            let mut best_sad = i64::MAX;
            for dy in -RANGE..=RANGE {
                for dx in -RANGE..=RANGE {
                    let cx = (px as i32 + dx).clamp(0, (W - 16) as i32) as usize;
                    let cy = (py as i32 + dy).clamp(0, (H - 16) as i32) as usize;
                    let sad = golden_sad(&f1[py * W + px..], &recon0[cy * W + cx..], W, 16);
                    if sad < best_sad {
                        best_sad = sad;
                        best = (cx, cy);
                    }
                }
            }
            let (cx, cy) = best;
            let sqd = golden_ssd(&f1[py * W + px..], &recon0[cy * W + cx..], W, 16);
            let mode = u8::from((cx + cy) % 2 == 1 && cx + 17 <= W);
            bw.put(u64::from(mode), 2);
            bw.put(cx as u64, 8);
            bw.put(cy as u64, 8);
            bw.put((sqd >> 8) as u64 & 0xff, 8);
            // Prediction into recon1.
            if mode == 1 {
                for xh in [0usize, 8] {
                    let mut tmp = vec![0u8; W * 16];
                    golden_comp(
                        &recon0[cy * W + cx + xh..],
                        &recon0[cy * W + cx + xh + 1..],
                        &mut tmp,
                        W,
                        16,
                    );
                    for r in 0..16 {
                        for c in 0..8 {
                            recon1[(py + r) * W + px + xh + c] = tmp[r * W + c];
                        }
                    }
                }
            } else {
                for r in 0..16 {
                    for c in 0..16 {
                        recon1[(py + r) * W + px + c] = recon0[(cy + r) * W + cx + c];
                    }
                }
            }
            // Residual sub-blocks.
            for r2 in 0..2 {
                for c2 in 0..2 {
                    let (sx, sy) = (px + 8 * c2, py + 8 * r2);
                    let mut res = [0i16; 64];
                    for r in 0..8 {
                        for c in 0..8 {
                            res[r * 8 + c] = i16::from(f1[(sy + r) * W + sx + c])
                                - i16::from(recon1[(sy + r) * W + sx + c]);
                        }
                    }
                    let coef = golden_transform(&res, &fm);
                    let q = golden_quant_scan(&coef, &qstep);
                    prev_dc = golden_vlc_encode(&q, prev_dc, &mut bw);
                    let deq = golden_dequant_descan(&q, &qstep);
                    let rec = golden_transform(&deq, &im);
                    // addblock over a strided window
                    let mut window = [0u8; 64];
                    for r in 0..8 {
                        for c in 0..8 {
                            window[r * 8 + c] = recon1[(sy + r) * W + sx + c];
                        }
                    }
                    golden_addblock(&mut window, 8, &rec);
                    for r in 0..8 {
                        for c in 0..8 {
                            recon1[(sy + r) * W + sx + c] = window[r * 8 + c];
                        }
                    }
                }
            }
        }
    }
    // Second frame's chroma, intra-coded.
    let rcb1 = golden_intra_plane(&chroma_src[2], WC, HC, &qstep, &fm, &im, &mut bw);
    let rcr1 = golden_intra_plane(&chroma_src[3], WC, HC, &qstep, &fm, &im, &mut bw);
    bw.flush();

    GoldenVideo {
        stream: bw.bytes,
        recon0,
        recon1,
        chroma: [rcb0, rcr0, rcb1, rcr1],
    }
}

// ======================================================================
// Emitter helpers
// ======================================================================

/// `block[i16] = cur[...] − pred[...]` over an 8×8 block.
fn emit_extract_diff(a: &mut Asm, curp: IReg, predp: IReg, stride: IReg, blockp: IReg) {
    let (cp, pp, bp, t, u, r) = (a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg());
    a.mv(cp, curp);
    a.mv(pp, predp);
    a.mv(bp, blockp);
    a.li(r, 0);
    a.for_loop(r, 8, |a| {
        for c in 0..8 {
            a.lbu(t, cp, c);
            a.lbu(u, pp, c);
            a.sub(t, t, u);
            a.sh(t, bp, 2 * c);
        }
        a.add(cp, cp, stride);
        a.add(pp, pp, stride);
        a.addi(bp, bp, 16);
    });
    for reg in [cp, pp, bp, t, u, r] {
        a.release_ireg(reg);
    }
}

/// 16×16 byte-block copy using 64-bit scalar loads/stores.
fn emit_copy_block16(a: &mut Asm, srcp: IReg, dstp: IReg, stride: IReg) {
    let (sp, dp, t, r) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
    a.mv(sp, srcp);
    a.mv(dp, dstp);
    a.li(r, 0);
    a.for_loop(r, 16, |a| {
        a.ld(t, sp, 0);
        a.sd(t, dp, 0);
        a.ld(t, sp, 8);
        a.sd(t, dp, 8);
        a.add(sp, sp, stride);
        a.add(dp, dp, stride);
    });
    for reg in [sp, dp, t, r] {
        a.release_ireg(reg);
    }
}

/// Loads a parameter slot into a fresh scratch register.
fn p_reg(a: &mut Asm, params: IReg, slot_idx: usize) -> IReg {
    let r = a.ireg();
    emit_load_param(a, params, slot_idx, r);
    r
}

/// Runs a DCT between the BLOCK and COEF scratch buffers, loading the
/// pointers ad hoc (register pressure in the MB loops is high, exactly as
/// the paper notes for register-starved SIMD code).
fn dct_step(a: &mut Asm, v: Variant, params: IReg, coef_mat: &[i16; 64], inverse: bool) {
    let (inp_slot, out_slot, tab_slot) = if inverse {
        (slot::COEF, slot::BLOCK, slot::IDCT_COLTAB)
    } else {
        (slot::BLOCK, slot::COEF, slot::FDCT_COLTAB)
    };
    let inp = p_reg(a, params, inp_slot);
    let outp = p_reg(a, params, out_slot);
    let scratch = p_reg(a, params, slot::SCRATCH);
    let coltab = p_reg(a, params, tab_slot);
    let args = DctArgs {
        inp,
        outp,
        scratch,
        coltab,
    };
    simdsim_kernels::dct::emit_dct(a, v, coef_mat, &args);
    for r in [inp, outp, scratch, coltab] {
        a.release_ireg(r);
    }
}

/// Quantizes COEF into QSCAN (ad-hoc pointer loads).
fn quant_step(a: &mut Asm, params: IReg) {
    let coefp = p_reg(a, params, slot::COEF);
    let qstepp = p_reg(a, params, slot::QSTEP);
    let zigzagp = p_reg(a, params, slot::ZIGZAG);
    let qscanp = p_reg(a, params, slot::QSCAN);
    emit_quant_scan(a, coefp, qstepp, zigzagp, qscanp);
    for r in [coefp, qstepp, zigzagp, qscanp] {
        a.release_ireg(r);
    }
}

/// Dequantizes QSCAN back into COEF.
fn dequant_step(a: &mut Asm, params: IReg) {
    let coefp = p_reg(a, params, slot::COEF);
    let qstepp = p_reg(a, params, slot::QSTEP);
    let zigzagp = p_reg(a, params, slot::ZIGZAG);
    let qscanp = p_reg(a, params, slot::QSCAN);
    emit_dequant_descan(a, qscanp, qstepp, zigzagp, coefp);
    for r in [coefp, qstepp, zigzagp, qscanp] {
        a.release_ireg(r);
    }
}

/// VLC-encodes QSCAN into the bit stream.
fn vlc_encode_step(a: &mut Asm, params: IReg, bw: &BwRegs, prev_dc: IReg) {
    let qscanp = p_reg(a, params, slot::QSCAN);
    emit_vlc_encode(a, qscanp, bw, prev_dc);
    a.release_ireg(qscanp);
}

/// VLC-decodes one block from the bit stream into QSCAN.
fn vlc_decode_step(a: &mut Asm, params: IReg, br: &BrRegs, prev_dc: IReg) {
    let qscanp = p_reg(a, params, slot::QSCAN);
    emit_vlc_decode(a, br, qscanp, prev_dc);
    a.release_ireg(qscanp);
}

/// Emits an intra-coded plane (encode + reconstruction), mirroring
/// [`golden_intra_plane`].
#[allow(clippy::too_many_arguments)]
fn emit_intra_plane(
    a: &mut Asm,
    v: Variant,
    params: IReg,
    plane_slot: usize,
    recon_slot: usize,
    w: usize,
    h: usize,
    fm: &[i16; 64],
    im: &[i16; 64],
    bw: &BwRegs,
) {
    let (planep, reconp, stride, prev_dc, ptr, by, bx, t) = (
        a.ireg(),
        a.ireg(),
        a.ireg(),
        a.ireg(),
        a.ireg(),
        a.ireg(),
        a.ireg(),
        a.ireg(),
    );
    emit_load_param(a, params, plane_slot, planep);
    emit_load_param(a, params, recon_slot, reconp);
    a.li(stride, w as i64);
    a.li(prev_dc, 0);
    a.li(by, 0);
    a.for_loop(by, (h / 8) as i32, |a| {
        a.li(bx, 0);
        a.for_loop(bx, (w / 8) as i32, |a| {
            a.muli(t, by, (8 * w) as i32);
            a.add(ptr, planep, t);
            a.slli(t, bx, 3);
            a.add(ptr, ptr, t);
            {
                let blockp = p_reg(a, params, slot::BLOCK);
                emit_extract_block(a, ptr, stride, blockp);
                a.release_ireg(blockp);
            }
            dct_step(a, v, params, fm, false);
            quant_step(a, params);
            vlc_encode_step(a, params, bw, prev_dc);
            // Reconstruction.
            dequant_step(a, params);
            dct_step(a, v, params, im, true);
            a.muli(t, by, (8 * w) as i32);
            a.add(ptr, reconp, t);
            a.slli(t, bx, 3);
            a.add(ptr, ptr, t);
            {
                let blockp = p_reg(a, params, slot::BLOCK);
                emit_insert_block(a, ptr, stride, blockp);
                a.release_ireg(blockp);
            }
        });
    });
    for reg in [planep, reconp, stride, prev_dc, ptr, by, bx, t] {
        a.release_ireg(reg);
    }
}

/// Decodes an intra-coded plane, mirroring the reconstruction half of
/// [`golden_intra_plane`].
#[allow(clippy::too_many_arguments)]
fn emit_intra_decode_plane(
    a: &mut Asm,
    v: Variant,
    params: IReg,
    recon_slot: usize,
    w: usize,
    h: usize,
    im: &[i16; 64],
    br: &BrRegs,
) {
    let (reconp, stride, prev_dc, ptr, by, bx, t) = (
        a.ireg(),
        a.ireg(),
        a.ireg(),
        a.ireg(),
        a.ireg(),
        a.ireg(),
        a.ireg(),
    );
    emit_load_param(a, params, recon_slot, reconp);
    a.li(stride, w as i64);
    a.li(prev_dc, 0);
    a.li(by, 0);
    a.for_loop(by, (h / 8) as i32, |a| {
        a.li(bx, 0);
        a.for_loop(bx, (w / 8) as i32, |a| {
            vlc_decode_step(a, params, br, prev_dc);
            dequant_step(a, params);
            dct_step(a, v, params, im, true);
            a.muli(t, by, (8 * w) as i32);
            a.add(ptr, reconp, t);
            a.slli(t, bx, 3);
            a.add(ptr, ptr, t);
            {
                let blockp = p_reg(a, params, slot::BLOCK);
                emit_insert_block(a, ptr, stride, blockp);
                a.release_ireg(blockp);
            }
        });
    });
    for reg in [reconp, stride, prev_dc, ptr, by, bx, t] {
        a.release_ireg(reg);
    }
}

/// Emits the motion-compensated prediction of one macroblock into
/// `dstp` (stride `stride`): the `comp` averaging kernel in mode 1, a
/// plain 16×16 copy otherwise.  `cx`/`cy` are the absolute reference
/// coordinates.
#[allow(clippy::too_many_arguments)] // emitter helper: the args are the register operands
fn emit_prediction(
    a: &mut Asm,
    v: Variant,
    recon0: IReg,
    dstp: IReg,
    stride: IReg,
    mode: IReg,
    cx: IReg,
    cy: IReg,
) {
    a.if_else(
        Cond::Eq,
        mode,
        1,
        |a| {
            for xh in [0i32, 8] {
                let (s1, s2, dp, h16) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
                a.muli(s1, cy, W as i32);
                a.add(s1, s1, cx);
                a.add(s1, recon0, s1);
                a.addi(s1, s1, xh);
                a.addi(s2, s1, 1);
                a.addi(dp, dstp, xh);
                a.li(h16, 16);
                let cargs = CompArgs {
                    src1: s1,
                    src2: s2,
                    dst: dp,
                    lx: stride,
                    h: h16,
                };
                emit_comp(a, v, &cargs);
                for r in [s1, s2, dp, h16] {
                    a.release_ireg(r);
                }
            }
        },
        |a| {
            let s1 = a.ireg();
            a.muli(s1, cy, W as i32);
            a.add(s1, s1, cx);
            a.add(s1, recon0, s1);
            emit_copy_block16(a, s1, dstp, stride);
            a.release_ireg(s1);
        },
    );
}

// ======================================================================
// The applications
// ======================================================================

/// The MPEG-2-style encoder application.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mpeg2Enc;

impl App for Mpeg2Enc {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "mpeg2enc",
            description: "MPEG2 video encoder",
        }
    }

    #[allow(clippy::too_many_lines)]
    fn build(&self, v: Variant) -> BuiltKernel {
        let (f0, f1, chroma) = test_sequence();
        let golden = golden_mpeg2enc();
        let fm = fdct_matrix();
        let im = idct_matrix();

        let mut bufs = make_buffers(v);
        bufs.machine
            .write_bytes(bufs.slots[slot::CUR0], &f0)
            .unwrap();
        bufs.machine
            .write_bytes(bufs.slots[slot::CUR1], &f1)
            .unwrap();
        for (i, s) in [slot::CB0, slot::CR0, slot::CB1, slot::CR1]
            .iter()
            .enumerate()
        {
            bufs.machine
                .write_bytes(bufs.slots[*s], &chroma[i])
                .unwrap();
        }

        let mut a = Asm::new();
        let params = a.arg(0);
        let outp = a.arg(1);
        emit_load_param(&mut a, params, slot::STREAM, outp);
        let bw = BwRegs {
            acc: a.arg(2),
            nbits: a.arg(3),
            outp,
        };
        emit_bw_init(&mut a, &bw);

        // Intra frame + its chroma.
        emit_intra_plane(
            &mut a,
            v,
            params,
            slot::CUR0,
            slot::RECON0,
            W,
            H,
            &fm,
            &im,
            &bw,
        );
        emit_intra_plane(
            &mut a,
            v,
            params,
            slot::CB0,
            slot::RCB0,
            WC,
            HC,
            &fm,
            &im,
            &bw,
        );
        emit_intra_plane(
            &mut a,
            v,
            params,
            slot::CR0,
            slot::RCR0,
            WC,
            HC,
            &fm,
            &im,
            &bw,
        );

        // Predicted frame, pass A: motion estimation. Best vectors and the
        // SQD metric land in a small MV table in the scratch area.
        {
            let (cur1, recon0, stride, mvp) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
            emit_load_param(&mut a, params, slot::CUR1, cur1);
            emit_load_param(&mut a, params, slot::RECON0, recon0);
            emit_load_param(&mut a, params, slot::SCRATCH, mvp);
            a.addi(mvp, mvp, 256);
            a.li(stride, W as i64);
            let (mby, mbx, bestx, besty, best_sad) =
                (a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg());
            let (cx, cy, t, u, p1, p2, sad) = (
                a.ireg(),
                a.ireg(),
                a.ireg(),
                a.ireg(),
                a.ireg(),
                a.ireg(),
                a.ireg(),
            );
            a.li(mby, 0);
            a.for_loop(mby, (H / 16) as i32, |a| {
                a.li(mbx, 0);
                a.for_loop(mbx, (W / 16) as i32, |a| {
                    a.li(best_sad, i64::MAX);
                    for dy in -RANGE..=RANGE {
                        for dx in -RANGE..=RANGE {
                            // cx = clamp(16*mbx+dx, 0, W-16); cy likewise.
                            a.slli(cx, mbx, 4);
                            a.addi(cx, cx, dx);
                            a.if_(Cond::Lt, cx, 0, |a| a.li(cx, 0));
                            a.if_(Cond::Gt, cx, (W - 16) as i32, |a| a.li(cx, (W - 16) as i64));
                            a.slli(cy, mby, 4);
                            a.addi(cy, cy, dy);
                            a.if_(Cond::Lt, cy, 0, |a| a.li(cy, 0));
                            a.if_(Cond::Gt, cy, (H - 16) as i32, |a| a.li(cy, (H - 16) as i64));
                            a.slli(t, mby, 4);
                            a.muli(t, t, W as i32);
                            a.add(p1, cur1, t);
                            a.slli(t, mbx, 4);
                            a.add(p1, p1, t);
                            a.muli(t, cy, W as i32);
                            a.add(p2, recon0, t);
                            a.add(p2, p2, cx);
                            a.li(u, 16);
                            let sargs = SadArgs {
                                p1,
                                p2,
                                lx: stride,
                                h: u,
                                out: sad,
                            };
                            emit_motion1(a, v, &sargs);
                            a.if_(Cond::Lt, sad, best_sad, |a| {
                                a.mv(best_sad, sad);
                                a.mv(bestx, cx);
                                a.mv(besty, cy);
                            });
                        }
                    }
                    // Quality metric at the chosen vector.
                    a.slli(t, mby, 4);
                    a.muli(t, t, W as i32);
                    a.add(p1, cur1, t);
                    a.slli(t, mbx, 4);
                    a.add(p1, p1, t);
                    a.muli(t, besty, W as i32);
                    a.add(p2, recon0, t);
                    a.add(p2, p2, bestx);
                    a.li(u, 16);
                    let sargs = SadArgs {
                        p1,
                        p2,
                        lx: stride,
                        h: u,
                        out: sad,
                    };
                    emit_motion2(a, v, &sargs);
                    // mode = (bestx+besty) odd && bestx+17 <= W
                    a.add(t, bestx, besty);
                    a.and(t, t, 1);
                    a.if_(Cond::Gt, bestx, (W - 17) as i32, |a| a.li(t, 0));
                    // MV table entry: mode, cx, cy, sqd>>8.
                    a.sb(t, mvp, 0);
                    a.sb(bestx, mvp, 1);
                    a.sb(besty, mvp, 2);
                    a.srli(u, sad, 8);
                    a.sb(u, mvp, 3);
                    a.addi(mvp, mvp, 4);
                });
            });
            for reg in [
                cur1, recon0, stride, mvp, mby, mbx, bestx, besty, best_sad, cx, cy, t, u, p1, p2,
                sad,
            ] {
                a.release_ireg(reg);
            }
        }

        // Pass B: prediction, residual coding and reconstruction.
        {
            let (recon0, recon1, stride, mvp, mb, prev_dc) =
                (a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg());
            let (t, p1, p2) = (a.ireg(), a.ireg(), a.ireg());
            emit_load_param(&mut a, params, slot::RECON0, recon0);
            emit_load_param(&mut a, params, slot::RECON1, recon1);
            emit_load_param(&mut a, params, slot::SCRATCH, mvp);
            a.addi(mvp, mvp, 256);
            a.li(stride, W as i64);
            a.li(prev_dc, 0);
            a.li(mb, 0);
            a.for_loop(mb, ((W / 16) * (H / 16)) as i32, |a| {
                // Header: MV entry into the bit stream, prediction.
                {
                    let (mode, cx, cy) = (a.ireg(), a.ireg(), a.ireg());
                    a.lbu(mode, mvp, 0);
                    a.lbu(cx, mvp, 1);
                    a.lbu(cy, mvp, 2);
                    a.lbu(t, mvp, 3);
                    crate::bitio::emit_putbits_const(a, &bw, mode, 2);
                    crate::bitio::emit_putbits_const(a, &bw, cx, 8);
                    crate::bitio::emit_putbits_const(a, &bw, cy, 8);
                    crate::bitio::emit_putbits_const(a, &bw, t, 8);
                    a.addi(mvp, mvp, 4);
                    // p1 = recon1 + MB offset (dst), derived from mb.
                    let mbw = (W / 16) as i32;
                    a.alu(simdsim_isa::AluOp::Div, t, mb, mbw);
                    a.muli(t, t, 16 * W as i32);
                    a.add(p1, recon1, t);
                    a.alu(simdsim_isa::AluOp::Rem, t, mb, mbw);
                    a.slli(t, t, 4);
                    a.add(p1, p1, t);
                    emit_prediction(a, v, recon0, p1, stride, mode, cx, cy);
                    a.release_ireg(mode);
                    a.release_ireg(cx);
                    a.release_ireg(cy);
                }
                // Residual sub-blocks.
                for r2 in 0..2i32 {
                    for c2 in 0..2i32 {
                        let off = r2 * 8 * W as i32 + c2 * 8;
                        a.addi(p2, p1, off); // pred/recon position
                                             // current position = cur1 + same offset as p1/p2
                        let cur1 = p_reg(a, params, slot::CUR1);
                        let recon1b = p_reg(a, params, slot::RECON1);
                        a.sub(t, p2, recon1b);
                        a.add(t, t, cur1);
                        a.release_ireg(cur1);
                        a.release_ireg(recon1b);
                        {
                            let blockp = p_reg(a, params, slot::BLOCK);
                            emit_extract_diff(a, t, p2, stride, blockp);
                            a.release_ireg(blockp);
                        }
                        dct_step(a, v, params, &fm, false);
                        quant_step(a, params);
                        vlc_encode_step(a, params, &bw, prev_dc);
                        dequant_step(a, params);
                        dct_step(a, v, params, &im, true);
                        {
                            let blockp = p_reg(a, params, slot::BLOCK);
                            let bargs = simdsim_kernels::motion::AddBlockArgs {
                                dst: p2,
                                lx: stride,
                                blk: blockp,
                            };
                            simdsim_kernels::motion::emit_addblock(a, v, &bargs);
                            a.release_ireg(blockp);
                        }
                    }
                }
            });
            for reg in [recon0, recon1, stride, mvp, mb, prev_dc, t, p1, p2] {
                a.release_ireg(reg);
            }
        }

        // Second frame's chroma.
        emit_intra_plane(
            &mut a,
            v,
            params,
            slot::CB1,
            slot::RCB1,
            WC,
            HC,
            &fm,
            &im,
            &bw,
        );
        emit_intra_plane(
            &mut a,
            v,
            params,
            slot::CR1,
            slot::RCR1,
            WC,
            HC,
            &fm,
            &im,
            &bw,
        );

        // Flush and store stream length.
        emit_bw_flush(&mut a, &bw);
        {
            let (t, cell) = (a.ireg(), a.ireg());
            emit_load_param(&mut a, params, slot::STREAM, t);
            a.sub(t, outp, t);
            emit_load_param(&mut a, params, slot::LEN_CELL, cell);
            a.sd(t, cell, 0);
            a.release_ireg(t);
            a.release_ireg(cell);
        }
        a.halt();
        let program = a.finish();

        let stream_addr = bufs.slots[slot::STREAM];
        let len_addr = bufs.slots[slot::LEN_CELL];
        let recon_addrs = [
            (bufs.slots[slot::RECON1], golden.recon1.clone(), "recon1"),
            (bufs.slots[slot::RECON0], golden.recon0.clone(), "recon0"),
        ];
        let stream_golden = golden.stream.clone();
        BuiltKernel::new(program, &bufs.layout, bufs.machine, move |m: &Machine| {
            let len = u64::from_le_bytes(
                m.read_bytes(len_addr, 8)
                    .map_err(|e| e.to_string())?
                    .try_into()
                    .unwrap(),
            ) as usize;
            if len != stream_golden.len() {
                return Err(format!(
                    "mpeg2enc stream length {len} != golden {}",
                    stream_golden.len()
                ));
            }
            let got = m.read_bytes(stream_addr, len).map_err(|e| e.to_string())?;
            if let Some(i) = got.iter().zip(&stream_golden).position(|(a, b)| a != b) {
                return Err(format!(
                    "mpeg2enc stream mismatch at byte {i}: got {} want {}",
                    got[i], stream_golden[i]
                ));
            }
            for (addr, exp, name) in &recon_addrs {
                let got = m.read_bytes(*addr, exp.len()).map_err(|e| e.to_string())?;
                if let Some(i) = got.iter().zip(exp.iter()).position(|(a, b)| a != b) {
                    return Err(format!("mpeg2enc {name} mismatch at {i}"));
                }
            }
            Ok(())
        })
    }
}

/// The MPEG-2-style decoder application.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mpeg2Dec;

impl App for Mpeg2Dec {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "mpeg2dec",
            description: "MPEG2 video decoder",
        }
    }

    #[allow(clippy::too_many_lines)]
    fn build(&self, v: Variant) -> BuiltKernel {
        let golden = golden_mpeg2enc();
        let im = idct_matrix();

        let mut bufs = make_buffers(v);
        bufs.machine
            .write_bytes(bufs.slots[slot::STREAM], &golden.stream)
            .unwrap();

        let mut a = Asm::new();
        let params = a.arg(0);
        let inp = a.arg(1);
        emit_load_param(&mut a, params, slot::STREAM, inp);
        let br = BrRegs {
            acc: a.arg(2),
            nbits: a.arg(3),
            inp,
        };
        emit_br_init(&mut a, &br);

        // Intra frame + chroma.
        emit_intra_decode_plane(&mut a, v, params, slot::RECON0, W, H, &im, &br);
        emit_intra_decode_plane(&mut a, v, params, slot::RCB0, WC, HC, &im, &br);
        emit_intra_decode_plane(&mut a, v, params, slot::RCR0, WC, HC, &im, &br);

        // Predicted frame.
        {
            let (recon0, recon1, stride, mb, prev_dc) =
                (a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg());
            let (t, p1, p2) = (a.ireg(), a.ireg(), a.ireg());
            emit_load_param(&mut a, params, slot::RECON0, recon0);
            emit_load_param(&mut a, params, slot::RECON1, recon1);
            a.li(stride, W as i64);
            a.li(prev_dc, 0);
            a.li(mb, 0);
            a.for_loop(mb, ((W / 16) * (H / 16)) as i32, |a| {
                // Parse MB header, predict.
                {
                    let (mode, cx, cy) = (a.ireg(), a.ireg(), a.ireg());
                    crate::bitio::emit_getbits_const(a, &br, mode, 2);
                    crate::bitio::emit_getbits_const(a, &br, cx, 8);
                    crate::bitio::emit_getbits_const(a, &br, cy, 8);
                    crate::bitio::emit_getbits_const(a, &br, t, 8); // quality byte
                    let mbw = (W / 16) as i32;
                    a.alu(simdsim_isa::AluOp::Div, t, mb, mbw);
                    a.muli(t, t, 16 * W as i32);
                    a.add(p1, recon1, t);
                    a.alu(simdsim_isa::AluOp::Rem, t, mb, mbw);
                    a.slli(t, t, 4);
                    a.add(p1, p1, t);
                    emit_prediction(a, v, recon0, p1, stride, mode, cx, cy);
                    a.release_ireg(mode);
                    a.release_ireg(cx);
                    a.release_ireg(cy);
                }
                // Residuals.
                for r2 in 0..2i32 {
                    for c2 in 0..2i32 {
                        let off = r2 * 8 * W as i32 + c2 * 8;
                        a.addi(p2, p1, off);
                        vlc_decode_step(a, params, &br, prev_dc);
                        dequant_step(a, params);
                        dct_step(a, v, params, &im, true);
                        {
                            let blockp = p_reg(a, params, slot::BLOCK);
                            let bargs = simdsim_kernels::motion::AddBlockArgs {
                                dst: p2,
                                lx: stride,
                                blk: blockp,
                            };
                            simdsim_kernels::motion::emit_addblock(a, v, &bargs);
                            a.release_ireg(blockp);
                        }
                    }
                }
            });
            for reg in [recon0, recon1, stride, mb, prev_dc, t, p1, p2] {
                a.release_ireg(reg);
            }
        }

        // Second frame's chroma.
        emit_intra_decode_plane(&mut a, v, params, slot::RCB1, WC, HC, &im, &br);
        emit_intra_decode_plane(&mut a, v, params, slot::RCR1, WC, HC, &im, &br);
        a.halt();
        let program = a.finish();

        let checks = [
            (bufs.slots[slot::RECON0], golden.recon0.clone(), "recon0"),
            (bufs.slots[slot::RECON1], golden.recon1.clone(), "recon1"),
            (bufs.slots[slot::RCB0], golden.chroma[0].clone(), "cb0"),
            (bufs.slots[slot::RCR0], golden.chroma[1].clone(), "cr0"),
            (bufs.slots[slot::RCB1], golden.chroma[2].clone(), "cb1"),
            (bufs.slots[slot::RCR1], golden.chroma[3].clone(), "cr1"),
        ];
        BuiltKernel::new(program, &bufs.layout, bufs.machine, move |m: &Machine| {
            for (addr, exp, name) in &checks {
                let got = m.read_bytes(*addr, exp.len()).map_err(|e| e.to_string())?;
                if let Some(i) = got.iter().zip(exp.iter()).position(|(a, b)| a != b) {
                    return Err(format!(
                        "mpeg2dec {name} mismatch at {i}: got {} want {}",
                        got[i], exp[i]
                    ));
                }
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_stream_structure() {
        let g = golden_mpeg2enc();
        assert!(g.stream.len() > 1000);
        assert_eq!(g.recon0.len(), W * H);
        assert_eq!(g.recon1.len(), W * H);
        // Reconstruction should be close to the source frames (lossy).
        let (f0, f1, _) = test_sequence();
        let mae = |a: &[u8], b: &[u8]| {
            a.iter()
                .zip(b)
                .map(|(x, y)| u64::from(x.abs_diff(*y)))
                .sum::<u64>()
                / a.len() as u64
        };
        assert!(
            mae(&f0, &g.recon0) < 14,
            "I-frame error {}",
            mae(&f0, &g.recon0)
        );
        assert!(
            mae(&f1, &g.recon1) < 14,
            "P-frame error {}",
            mae(&f1, &g.recon1)
        );
    }

    #[test]
    fn mpeg2enc_all_variants_match_golden() {
        for v in Variant::ALL {
            Mpeg2Enc
                .build(v)
                .run_checked()
                .unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn mpeg2dec_all_variants_match_golden() {
        for v in Variant::ALL {
            Mpeg2Dec
                .build(v)
                .run_checked()
                .unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }
}
