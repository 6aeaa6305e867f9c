//! The JPEG-style still-image encoder (`jpegenc`) and decoder
//! (`jpegdec`).
//!
//! Pipeline (encoder): RGB→YCC colour conversion [vector `rgb`], 2×2
//! chroma subsampling [scalar], then per 8×8 block: level-shifted
//! extraction [scalar], forward DCT [vector `fdct`], quantization +
//! zigzag + RLE/DC-prediction entropy coding [scalar].
//!
//! Pipeline (decoder): entropy decoding + dequantization [scalar],
//! inverse DCT [vector `idct`], block insertion [scalar], chroma border
//! padding [scalar], 2× up-sampling [vector `h2v2`], YCC→RGB [vector
//! `ycc`].

use crate::bitio::{
    emit_br_init, emit_bw_flush, emit_bw_init, emit_vlc_decode, emit_vlc_encode, golden_vlc_decode,
    golden_vlc_encode, BitReader, BitWriter, BrRegs, BwRegs,
};
use crate::common::{
    emit_dequant_descan, emit_extract_block, emit_insert_block, emit_load_param, emit_quant_scan,
    golden_dequant_descan, golden_extract_block, golden_insert_block, golden_quant_scan,
    golden_subsample, qsteps, ZIGZAG,
};
use crate::{App, AppSpec};
use simdsim_asm::Asm;
use simdsim_emu::{Layout, Machine};
use simdsim_isa::{Cond, IReg, MReg};
use simdsim_kernels::color::{emit_rgb, emit_ycc, golden_rgb_px, golden_ycc_px, ColorArgs};
use simdsim_kernels::dct::{
    dct_coltab, emit_dct, emit_vmmx128_body, emit_vmmx128_coltab_load, emit_vmmx64_body,
    fdct_matrix, golden_transform, idct_matrix, DctArgs,
};
use simdsim_kernels::resample::{emit_h2v2, golden_h2v2, h2v2_coltab, pad_plane, H2v2Args};
use simdsim_kernels::{BuiltKernel, Variant};

/// Image width (pixels).
pub const W: usize = 128;
/// Image height (pixels).
pub const H: usize = 128;
const WC: usize = W / 2;
const HC: usize = H / 2;

/// Emits one 8×8 DCT in the right variant, reusing hoisted coefficient
/// matrices on VMMX128.
pub(crate) fn emit_dct_variant(
    a: &mut Asm,
    v: Variant,
    coef: &[i16; 64],
    args: &DctArgs,
    cols: Option<&Vec<MReg>>,
) {
    match v {
        Variant::Vmmx128 => {
            let cols = cols.expect("hoisted coefficient matrices");
            a.vector_region(|a| emit_vmmx128_body(a, cols, args));
        }
        Variant::Vmmx64 => a.vector_region(|a| emit_vmmx64_body(a, args)),
        _ => emit_dct(a, v, coef, args),
    }
}

/// Emits the 2×2-average subsampling loop (`w`,`h`: source dims).
fn emit_subsample(a: &mut Asm, srcp: IReg, dstp: IReg, w: usize, h: usize) {
    let (sp, dp, x, y, t, u) = (a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg());
    a.mv(sp, srcp);
    a.mv(dp, dstp);
    a.li(y, 0);
    a.for_loop(y, (h / 2) as i32, |a| {
        a.li(x, 0);
        a.for_loop(x, (w / 2) as i32, |a| {
            a.slli(t, x, 1);
            a.add(t, sp, t);
            a.lbu(u, t, 0);
            let s = a.ireg();
            a.lbu(s, t, 1);
            a.add(u, u, s);
            a.lbu(s, t, w as i32);
            a.add(u, u, s);
            a.lbu(s, t, w as i32 + 1);
            a.add(u, u, s);
            a.addi(u, u, 2);
            a.srli(u, u, 2);
            a.add(t, dp, x);
            a.sb(u, t, 0);
            a.release_ireg(s);
        });
        a.addi(sp, sp, 2 * w as i32);
        a.addi(dp, dp, (w / 2) as i32);
    });
    for r in [sp, dp, x, y, t, u] {
        a.release_ireg(r);
    }
}

/// Emits the edge-replication padding loop (source `w×h` → padded
/// `(w+2)×(h+2)`, matching [`pad_plane`]).
fn emit_pad(a: &mut Asm, srcp: IReg, dstp: IReg, w: usize, h: usize) {
    let (x, y, sx, sy, t, u) = (a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg());
    a.li(y, 0);
    a.for_loop(y, (h + 2) as i32, |a| {
        // sy = clamp(y, 1, h) - 1
        a.mv(sy, y);
        a.if_(Cond::Lt, sy, 1, |a| a.li(sy, 1));
        a.if_(Cond::Gt, sy, h as i32, |a| a.li(sy, h as i64));
        a.subi(sy, sy, 1);
        a.li(x, 0);
        a.for_loop(x, (w + 2) as i32, |a| {
            a.mv(sx, x);
            a.if_(Cond::Lt, sx, 1, |a| a.li(sx, 1));
            a.if_(Cond::Gt, sx, w as i32, |a| a.li(sx, w as i64));
            a.subi(sx, sx, 1);
            a.muli(t, sy, w as i32);
            a.add(t, t, sx);
            a.add(t, srcp, t);
            a.lbu(u, t, 0);
            a.muli(t, y, (w + 2) as i32);
            a.add(t, t, x);
            a.add(t, dstp, t);
            a.sb(u, t, 0);
        });
    });
    for r in [x, y, sx, sy, t, u] {
        a.release_ireg(r);
    }
}

/// Parameter-block slot indices shared by encoder and decoder.
mod slot {
    pub const R: usize = 0;
    pub const G: usize = 1;
    pub const B: usize = 2;
    pub const Y: usize = 3;
    pub const CB: usize = 4;
    pub const CR: usize = 5;
    pub const CBS: usize = 6;
    pub const CRS: usize = 7;
    pub const BLOCK: usize = 8;
    pub const COEF: usize = 9;
    pub const QSCAN: usize = 10;
    pub const QSTEP_L: usize = 11;
    pub const QSTEP_C: usize = 12;
    pub const ZIGZAG: usize = 13;
    pub const SCRATCH: usize = 14;
    pub const DCT_COLTAB: usize = 15;
    pub const COLOR_COLTAB: usize = 16;
    pub const STREAM: usize = 17;
    pub const LEN_CELL: usize = 18;
    pub const CBS_PAD: usize = 19;
    pub const CRS_PAD: usize = 20;
    pub const H2V2_COLTAB: usize = 21;
    pub const COUNT: usize = 22;
}

struct JpegBuffers {
    layout: Layout,
    machine: Machine,
    params_addr: u64,
    slots: [u64; slot::COUNT],
}

/// Allocates and fills the memory image common to encoder and decoder.
fn make_buffers(v: Variant, forward_dct: bool) -> JpegBuffers {
    let mut layout = Layout::new();
    let mut slots = [0u64; slot::COUNT];
    for (i, bytes) in [
        (slot::R, W * H),
        (slot::G, W * H),
        (slot::B, W * H),
        (slot::Y, W * H),
        (slot::CB, W * H),
        (slot::CR, W * H),
        (slot::CBS, WC * HC),
        (slot::CRS, WC * HC),
        (slot::BLOCK, 128),
        (slot::COEF, 128),
        (slot::QSCAN, 128),
        (slot::QSTEP_L, 128),
        (slot::QSTEP_C, 128),
        (slot::ZIGZAG, 64),
        (slot::SCRATCH, 512),
        (slot::DCT_COLTAB, 8 * 8 * 16),
        (slot::COLOR_COLTAB, 16 * 16),
        (slot::STREAM, 1 << 16),
        (slot::LEN_CELL, 8),
        (slot::CBS_PAD, (WC + 2) * (HC + 2)),
        (slot::CRS_PAD, (WC + 2) * (HC + 2)),
        (slot::H2V2_COLTAB, 16 * 16),
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
    machine
        .write_i16s(slots[slot::QSTEP_L], &qsteps(8))
        .unwrap();
    machine
        .write_i16s(slots[slot::QSTEP_C], &qsteps(12))
        .unwrap();
    machine.write_bytes(slots[slot::ZIGZAG], &ZIGZAG).unwrap();
    let dct_coef = if forward_dct {
        fdct_matrix()
    } else {
        idct_matrix()
    };
    machine
        .write_bytes(slots[slot::DCT_COLTAB], &dct_coltab(&dct_coef, v.width()))
        .unwrap();
    machine
        .write_bytes(slots[slot::H2V2_COLTAB], &h2v2_coltab(v.width()))
        .unwrap();
    let color_tab = if forward_dct {
        simdsim_kernels::color::rgb_coltab(v.width())
    } else {
        simdsim_kernels::color::ycc_coltab(v.width())
    };
    machine
        .write_bytes(slots[slot::COLOR_COLTAB], &color_tab)
        .unwrap();
    machine.set_ireg(0, params_addr as i64);
    JpegBuffers {
        layout,
        machine,
        params_addr,
        slots,
    }
}

// ======================================================================
// Golden pipelines
// ======================================================================

/// Runs the full golden encoder; returns the bitstream.
#[must_use]
pub fn golden_jpegenc(r: &[u8], g: &[u8], b: &[u8]) -> Vec<u8> {
    let n = W * H;
    let (mut y, mut cb, mut cr) = (vec![0u8; n], vec![0u8; n], vec![0u8; n]);
    for i in 0..n {
        let (yy, cbb, crr) = golden_rgb_px(r[i], g[i], b[i]);
        y[i] = yy;
        cb[i] = cbb;
        cr[i] = crr;
    }
    let cbs = golden_subsample(&cb, W, H);
    let crs = golden_subsample(&cr, W, H);
    let (ql, qc) = (qsteps(8), qsteps(12));
    let fm = fdct_matrix();
    let mut bw = BitWriter::new();
    for (plane, w, h, qs) in [
        (&y[..], W, H, &ql),
        (&cbs[..], WC, HC, &qc),
        (&crs[..], WC, HC, &qc),
    ] {
        let mut prev_dc = 0i16;
        for by in 0..h / 8 {
            for bx in 0..w / 8 {
                let block = golden_extract_block(plane, w, bx, by);
                let coef = golden_transform(&block, &fm);
                let q = golden_quant_scan(&coef, qs);
                prev_dc = golden_vlc_encode(&q, prev_dc, &mut bw);
            }
        }
    }
    bw.flush();
    bw.bytes
}

/// Runs the full golden decoder; returns the RGB planes.
#[must_use]
pub fn golden_jpegdec(stream: &[u8]) -> [Vec<u8>; 3] {
    let (ql, qc) = (qsteps(8), qsteps(12));
    let im = idct_matrix();
    let mut br = BitReader::new(stream, 0);
    let mut planes: Vec<Vec<u8>> = Vec::new();
    for (w, h, qs) in [(W, H, &ql), (WC, HC, &qc), (WC, HC, &qc)] {
        let mut plane = vec![0u8; w * h];
        let mut prev_dc = 0i16;
        for by in 0..h / 8 {
            for bx in 0..w / 8 {
                let (q, dc) = golden_vlc_decode(&mut br, prev_dc);
                prev_dc = dc;
                let coef = golden_dequant_descan(&q, qs);
                let block = golden_transform(&coef, &im);
                golden_insert_block(&mut plane, w, bx, by, &block);
            }
        }
        planes.push(plane);
    }
    let y = planes.remove(0);
    let cbs = planes.remove(0);
    let crs = planes.remove(0);
    // Upsample chroma.
    let mut cb = vec![0u8; W * H];
    let mut cr = vec![0u8; W * H];
    golden_h2v2(&pad_plane(&cbs, WC, HC), WC, HC, &mut cb);
    golden_h2v2(&pad_plane(&crs, WC, HC), WC, HC, &mut cr);
    let n = W * H;
    let (mut r, mut g, mut b) = (vec![0u8; n], vec![0u8; n], vec![0u8; n]);
    for i in 0..n {
        let (rr, gg, bb) = golden_ycc_px(y[i], cb[i], cr[i]);
        r[i] = rr;
        g[i] = gg;
        b[i] = bb;
    }
    [r, g, b]
}

// ======================================================================
// The applications
// ======================================================================

/// Block-coding pointer registers shared by the encode/decode plane loops.
struct CodecRegs {
    block: IReg,
    coef: IReg,
    qscan: IReg,
    zigzag: IReg,
    scratch: IReg,
    coltab: IReg,
}

fn load_codec_regs(a: &mut Asm, params: IReg) -> CodecRegs {
    let regs = CodecRegs {
        block: a.ireg(),
        coef: a.ireg(),
        qscan: a.ireg(),
        zigzag: a.ireg(),
        scratch: a.ireg(),
        coltab: a.ireg(),
    };
    emit_load_param(a, params, slot::BLOCK, regs.block);
    emit_load_param(a, params, slot::COEF, regs.coef);
    emit_load_param(a, params, slot::QSCAN, regs.qscan);
    emit_load_param(a, params, slot::ZIGZAG, regs.zigzag);
    emit_load_param(a, params, slot::SCRATCH, regs.scratch);
    emit_load_param(a, params, slot::DCT_COLTAB, regs.coltab);
    regs
}

/// The JPEG encoder application.
#[derive(Debug, Clone, Copy, Default)]
pub struct JpegEnc;

impl App for JpegEnc {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "jpegenc",
            description: "JPEG still image encoder",
        }
    }

    fn build(&self, v: Variant) -> BuiltKernel {
        let rng_plane = |seed| simdsim_kernels::data::smooth_plane(W, H, seed);
        let (r, g, b) = (rng_plane(201), rng_plane(203), rng_plane(205));
        let mut bufs = make_buffers(v, true);
        bufs.machine.write_bytes(bufs.slots[slot::R], &r).unwrap();
        bufs.machine.write_bytes(bufs.slots[slot::G], &g).unwrap();
        bufs.machine.write_bytes(bufs.slots[slot::B], &b).unwrap();

        let golden_stream = golden_jpegenc(&r, &g, &b);
        let fm = fdct_matrix();

        let mut a = Asm::new();
        let params = a.arg(0);
        let outp = a.arg(1);
        emit_load_param(&mut a, params, slot::STREAM, outp);

        // Phase 1: colour conversion (vector kernel).
        {
            let cargs = ColorArgs {
                src: [a.arg(2), a.arg(3), a.arg(4)],
                dst: [a.arg(5), a.arg(6), a.arg(7)],
                npx: {
                    let n = a.ireg();
                    a.li(n, (W * H) as i64);
                    n
                },
                coltab: {
                    let c = a.ireg();
                    emit_load_param(&mut a, params, slot::COLOR_COLTAB, c);
                    c
                },
            };
            emit_load_param(&mut a, params, slot::R, cargs.src[0]);
            emit_load_param(&mut a, params, slot::G, cargs.src[1]);
            emit_load_param(&mut a, params, slot::B, cargs.src[2]);
            emit_load_param(&mut a, params, slot::Y, cargs.dst[0]);
            emit_load_param(&mut a, params, slot::CB, cargs.dst[1]);
            emit_load_param(&mut a, params, slot::CR, cargs.dst[2]);
            emit_rgb(&mut a, v, &cargs);
            a.release_ireg(cargs.npx);
            a.release_ireg(cargs.coltab);
        }

        // Phase 2: chroma subsampling (scalar).
        {
            let (sp, dp) = (a.ireg(), a.ireg());
            emit_load_param(&mut a, params, slot::CB, sp);
            emit_load_param(&mut a, params, slot::CBS, dp);
            emit_subsample(&mut a, sp, dp, W, H);
            emit_load_param(&mut a, params, slot::CR, sp);
            emit_load_param(&mut a, params, slot::CRS, dp);
            emit_subsample(&mut a, sp, dp, W, H);
            a.release_ireg(sp);
            a.release_ireg(dp);
        }

        // Phase 3: per-block transform coding.
        let regs = load_codec_regs(&mut a, params);
        let cols = if v == Variant::Vmmx128 {
            Some(a.vector_region(|a| emit_vmmx128_coltab_load(a, regs.coltab)))
        } else {
            None
        };
        // Free cold pointers; the block loop reloads them ad hoc (the
        // integer file is under real pressure here, like compiled code).
        for r in [regs.zigzag, regs.scratch, regs.coltab] {
            a.release_ireg(r);
        }
        let bw = BwRegs {
            acc: a.ireg(),
            nbits: a.ireg(),
            outp,
        };
        emit_bw_init(&mut a, &bw);
        for (plane_slot, w, h, q_slot) in [
            (slot::Y, W, H, slot::QSTEP_L),
            (slot::CBS, WC, HC, slot::QSTEP_C),
            (slot::CRS, WC, HC, slot::QSTEP_C),
        ] {
            let (planep, qstepp, stride, prev_dc, srcp, by, bx, t) = (
                a.ireg(),
                a.ireg(),
                a.ireg(),
                a.ireg(),
                a.ireg(),
                a.ireg(),
                a.ireg(),
                a.ireg(),
            );
            emit_load_param(&mut a, params, plane_slot, planep);
            emit_load_param(&mut a, params, q_slot, qstepp);
            a.li(stride, w as i64);
            a.li(prev_dc, 0);
            a.li(by, 0);
            a.for_loop(by, (h / 8) as i32, |a| {
                a.li(bx, 0);
                a.for_loop(bx, (w / 8) as i32, |a| {
                    a.muli(t, by, (8 * w) as i32);
                    a.add(srcp, planep, t);
                    a.slli(t, bx, 3);
                    a.add(srcp, srcp, t);
                    emit_extract_block(a, srcp, stride, regs.block);
                    {
                        let scratch = a.ireg();
                        let coltab = a.ireg();
                        emit_load_param(a, params, slot::SCRATCH, scratch);
                        emit_load_param(a, params, slot::DCT_COLTAB, coltab);
                        let dargs = DctArgs {
                            inp: regs.block,
                            outp: regs.coef,
                            scratch,
                            coltab,
                        };
                        emit_dct_variant(a, v, &fm, &dargs, cols.as_ref());
                        a.release_ireg(scratch);
                        a.release_ireg(coltab);
                    }
                    {
                        let zigzag = a.ireg();
                        emit_load_param(a, params, slot::ZIGZAG, zigzag);
                        emit_quant_scan(a, regs.coef, qstepp, zigzag, regs.qscan);
                        a.release_ireg(zigzag);
                    }
                    emit_vlc_encode(a, regs.qscan, &bw, prev_dc);
                });
            });
            for reg in [planep, qstepp, stride, prev_dc, srcp, by, bx, t] {
                a.release_ireg(reg);
            }
        }
        // Flush the bit stream and store its length.
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
        let _ = bufs.params_addr;
        BuiltKernel::new(program, &bufs.layout, bufs.machine, move |m: &Machine| {
            let len = u64::from_le_bytes(
                m.read_bytes(len_addr, 8)
                    .map_err(|e| e.to_string())?
                    .try_into()
                    .unwrap(),
            ) as usize;
            if len != golden_stream.len() {
                return Err(format!(
                    "jpegenc stream length {len} != golden {}",
                    golden_stream.len()
                ));
            }
            let got = m.read_bytes(stream_addr, len).map_err(|e| e.to_string())?;
            if let Some(i) = got.iter().zip(&golden_stream).position(|(a, b)| a != b) {
                return Err(format!(
                    "jpegenc stream mismatch at byte {i}: got {} want {}",
                    got[i], golden_stream[i]
                ));
            }
            Ok(())
        })
    }
}

/// The JPEG decoder application.
#[derive(Debug, Clone, Copy, Default)]
pub struct JpegDec;

impl App for JpegDec {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "jpegdec",
            description: "JPEG still image decoder",
        }
    }

    fn build(&self, v: Variant) -> BuiltKernel {
        // Input: the bitstream the encoder produces for the test image.
        let plane = |seed| simdsim_kernels::data::smooth_plane(W, H, seed);
        let (r, g, b) = (plane(201), plane(203), plane(205));
        let stream = golden_jpegenc(&r, &g, &b);
        let expected = golden_jpegdec(&stream);

        let mut bufs = make_buffers(v, false);
        bufs.machine
            .write_bytes(bufs.slots[slot::STREAM], &stream)
            .unwrap();

        let im = idct_matrix();
        let mut a = Asm::new();
        let params = a.arg(0);
        let inp = a.arg(1);
        emit_load_param(&mut a, params, slot::STREAM, inp);

        // Phase 1: entropy decode + dequant + IDCT + insert, per plane.
        let regs = load_codec_regs(&mut a, params);
        let cols = if v == Variant::Vmmx128 {
            Some(a.vector_region(|a| emit_vmmx128_coltab_load(a, regs.coltab)))
        } else {
            None
        };
        let br = BrRegs {
            acc: a.ireg(),
            nbits: a.ireg(),
            inp,
        };
        emit_br_init(&mut a, &br);
        for (plane_slot, w, h, q_slot) in [
            (slot::Y, W, H, slot::QSTEP_L),
            (slot::CBS, WC, HC, slot::QSTEP_C),
            (slot::CRS, WC, HC, slot::QSTEP_C),
        ] {
            let (planep, qstepp, stride, prev_dc, dstp, by, bx, t) = (
                a.ireg(),
                a.ireg(),
                a.ireg(),
                a.ireg(),
                a.ireg(),
                a.ireg(),
                a.ireg(),
                a.ireg(),
            );
            emit_load_param(&mut a, params, plane_slot, planep);
            emit_load_param(&mut a, params, q_slot, qstepp);
            a.li(stride, w as i64);
            a.li(prev_dc, 0);
            a.li(by, 0);
            a.for_loop(by, (h / 8) as i32, |a| {
                a.li(bx, 0);
                a.for_loop(bx, (w / 8) as i32, |a| {
                    emit_vlc_decode(a, &br, regs.qscan, prev_dc);
                    emit_dequant_descan(a, regs.qscan, qstepp, regs.zigzag, regs.coef);
                    let dargs = DctArgs {
                        inp: regs.coef,
                        outp: regs.block,
                        scratch: regs.scratch,
                        coltab: regs.coltab,
                    };
                    emit_dct_variant(a, v, &im, &dargs, cols.as_ref());
                    a.muli(t, by, (8 * w) as i32);
                    a.add(dstp, planep, t);
                    a.slli(t, bx, 3);
                    a.add(dstp, dstp, t);
                    emit_insert_block(a, dstp, stride, regs.block);
                });
            });
            for reg in [planep, qstepp, stride, prev_dc, dstp, by, bx, t] {
                a.release_ireg(reg);
            }
        }
        if let Some(cols) = &cols {
            for m in cols {
                a.release_mreg(*m);
            }
        }
        for r in [
            regs.block,
            regs.coef,
            regs.qscan,
            regs.zigzag,
            regs.scratch,
            regs.coltab,
            br.acc,
            br.nbits,
        ] {
            a.release_ireg(r);
        }

        // Phase 2: chroma padding (scalar) + upsampling (vector).
        for (src_slot, pad_slot, dst_slot) in [
            (slot::CBS, slot::CBS_PAD, slot::CB),
            (slot::CRS, slot::CRS_PAD, slot::CR),
        ] {
            let (sp, dp) = (a.ireg(), a.ireg());
            emit_load_param(&mut a, params, src_slot, sp);
            emit_load_param(&mut a, params, pad_slot, dp);
            emit_pad(&mut a, sp, dp, WC, HC);
            let hargs = H2v2Args {
                input: dp,
                out: sp, // reuse registers: sp now holds the output plane
                w: {
                    let w = a.ireg();
                    a.li(w, WC as i64);
                    w
                },
                h: {
                    let h = a.ireg();
                    a.li(h, HC as i64);
                    h
                },
                coltab: {
                    let c = a.ireg();
                    emit_load_param(&mut a, params, slot::H2V2_COLTAB, c);
                    c
                },
            };
            emit_load_param(&mut a, params, dst_slot, sp);
            emit_h2v2(&mut a, v, &hargs);
            a.release_ireg(hargs.w);
            a.release_ireg(hargs.h);
            a.release_ireg(hargs.coltab);
            a.release_ireg(sp);
            a.release_ireg(dp);
        }

        // Phase 3: colour conversion (vector).
        {
            let cargs = ColorArgs {
                src: [a.arg(2), a.arg(3), a.arg(4)],
                dst: [a.arg(5), a.arg(6), a.arg(7)],
                npx: {
                    let n = a.ireg();
                    a.li(n, (W * H) as i64);
                    n
                },
                coltab: {
                    let c = a.ireg();
                    emit_load_param(&mut a, params, slot::COLOR_COLTAB, c);
                    c
                },
            };
            emit_load_param(&mut a, params, slot::Y, cargs.src[0]);
            emit_load_param(&mut a, params, slot::CB, cargs.src[1]);
            emit_load_param(&mut a, params, slot::CR, cargs.src[2]);
            emit_load_param(&mut a, params, slot::R, cargs.dst[0]);
            emit_load_param(&mut a, params, slot::G, cargs.dst[1]);
            emit_load_param(&mut a, params, slot::B, cargs.dst[2]);
            emit_ycc(&mut a, v, &cargs);
            a.release_ireg(cargs.npx);
            a.release_ireg(cargs.coltab);
        }
        a.halt();
        let program = a.finish();

        let out_slots = [
            bufs.slots[slot::R],
            bufs.slots[slot::G],
            bufs.slots[slot::B],
        ];
        BuiltKernel::new(program, &bufs.layout, bufs.machine, move |m: &Machine| {
            for (p, (addr, exp)) in out_slots.iter().zip(expected.iter()).enumerate() {
                let got = m.read_bytes(*addr, W * H).map_err(|e| e.to_string())?;
                if let Some(i) = got.iter().zip(exp.iter()).position(|(a, b)| a != b) {
                    return Err(format!(
                        "jpegdec plane {p} mismatch at px {i}: got {} want {}",
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
    fn golden_enc_dec_roundtrip_is_plausible() {
        let p = |seed| simdsim_kernels::data::smooth_plane(W, H, seed);
        let (r, g, b) = (p(1), p(2), p(3));
        let stream = golden_jpegenc(&r, &g, &b);
        assert!(stream.len() > 500, "stream too small: {}", stream.len());
        assert!(stream.len() < W * H * 3, "no compression");
        let [r2, g2, b2] = golden_jpegdec(&stream);
        // Lossy but recognisable: mean abs error below ~12.
        let mae = |a: &[u8], b: &[u8]| {
            a.iter()
                .zip(b)
                .map(|(x, y)| u64::from(x.abs_diff(*y)))
                .sum::<u64>()
                / a.len() as u64
        };
        assert!(mae(&r, &r2) < 12, "R error {}", mae(&r, &r2));
        assert!(mae(&g, &g2) < 12);
        assert!(mae(&b, &b2) < 12);
    }

    #[test]
    fn jpegenc_all_variants_match_golden() {
        for v in Variant::ALL {
            JpegEnc
                .build(v)
                .run_checked()
                .unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn jpegdec_all_variants_match_golden() {
        for v in Variant::ALL {
            JpegDec
                .build(v)
                .run_checked()
                .unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn vector_share_shrinks_with_better_extension() {
        let s64 = JpegDec.build(Variant::Mmx64).run_checked().unwrap();
        let s128 = JpegDec.build(Variant::Vmmx128).run_checked().unwrap();
        let frac = |s: &simdsim_emu::RunStats| s.vector_region_instrs as f64 / s.dyn_instrs as f64;
        assert!(
            frac(&s128) < frac(&s64),
            "{} vs {}",
            frac(&s128),
            frac(&s64)
        );
    }
}
