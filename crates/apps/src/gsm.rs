//! The GSM-06.10-style speech encoder (`gsmenc`) and decoder (`gsmdec`).
//!
//! Frames of 160 16-bit samples, four 40-sample sub-frames each:
//!
//! * **encoder** — preemphasis, autocorrelation + short-term ("LPC")
//!   analysis and residual filtering [all scalar], then per sub-frame the
//!   long-term-predictor lag search [vector `ltppar`], gain computation,
//!   and RPE residual quantization \[scalar\];
//! * **decoder** — RPE reconstruction \[scalar\], long-term filtering
//!   [vector `ltpfilt`], short-term synthesis and deemphasis \[scalar\].
//!
//! As in the paper, less than ~10% of these applications vectorises, so
//! SIMD scaling barely moves them (Figure 5's gsm panels).

use crate::common::emit_load_param;
use crate::{App, AppSpec};
use simdsim_asm::Asm;
use simdsim_emu::{Layout, Machine};
use simdsim_isa::{Cond, IReg};
use simdsim_kernels::gsm::{
    emit_ltpfilt, emit_ltppar, golden_ltppar, LtpFiltArgs, LtpParArgs, LAG_MAX, SUBFRAME,
};
use simdsim_kernels::{BuiltKernel, Variant};

/// Samples per frame.
pub const FRAME: usize = 160;
/// Frames in the workload.
pub const NFRAMES: usize = 6;
/// Preemphasis coefficient (Q15).
pub const PREEMPH: i64 = 28180;
/// Number of short-term predictor taps (GSM 06.10 uses 8 reflection
/// coefficients).
pub const TAPS: usize = 8;
/// RPE weighting-filter taps (Q13, centre tap 8192).
pub const WEIGHT: [i64; 5] = [2054, 5741, 8192, 5741, 2054];

fn sat16(v: i64) -> i16 {
    v.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16
}

/// Synthetic speech-like input: a few sliding sines plus noise.
#[must_use]
pub fn test_signal() -> Vec<i16> {
    let mut rng = simdsim_kernels::data::Rng64::new(401);
    (0..NFRAMES * FRAME)
        .map(|k| {
            let t = k as f64;
            let v = 6000.0 * (t * 0.081).sin()
                + 2500.0 * (t * 0.023).sin()
                + 1200.0 * (t * 0.307).cos();
            let noise = (rng.next_u64() % 401) as f64 - 200.0;
            (v + noise) as i16
        })
        .collect()
}

// ======================================================================
// Golden encoder / decoder
// ======================================================================

/// Golden encoder output.
#[derive(Debug, Clone)]
pub struct GoldenGsm {
    /// Encoded parameter stream.
    pub stream: Vec<u8>,
    /// Decoded samples (what `gsmdec` must produce).
    pub decoded: Vec<i16>,
}

/// Runs the golden encoder over [`test_signal`].
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn golden_gsmenc() -> GoldenGsm {
    let x = test_signal();
    let mut stream = Vec::new();
    // History of scaled residuals with a 120-zero prefix.
    let mut ds_buf = vec![0i16; LAG_MAX + NFRAMES * FRAME];

    for f in 0..NFRAMES {
        let xf = &x[f * FRAME..(f + 1) * FRAME];
        // 1. preemphasis
        let mut s = [0i16; FRAME];
        let mut prev = 0i64;
        for k in 0..FRAME {
            let t = (PREEMPH * prev) >> 15;
            s[k] = sat16(i64::from(xf[k]) - t);
            prev = i64::from(xf[k]);
        }
        // 2. autocorrelation (TAPS+1 lags)
        let mut ac = [0i64; TAPS + 1];
        for (j, slot) in ac.iter_mut().enumerate() {
            for k in j..FRAME {
                *slot += i64::from(s[k]) * i64::from(s[k - j]);
            }
        }
        // 3. short-term coefficients
        let mut arq = [0i64; TAPS + 1];
        for j in 1..=TAPS {
            let a = ((ac[j] << 10) / (ac[0] + 1)).clamp(-800, 800);
            let lar_q = a >> 4;
            stream.push(lar_q as u8);
            arq[j] = lar_q << 4;
        }
        // 4. short-term residual
        let mut d = [0i16; FRAME];
        for k in 0..FRAME {
            let mut pred = 0i64;
            for j in 1..=TAPS {
                if k >= j {
                    pred += arq[j] * i64::from(s[k - j]);
                }
            }
            d[k] = sat16(i64::from(s[k]) - (pred >> 10));
        }
        // 5. sub-frames
        for n in 0..4 {
            let pos = LAG_MAX + f * FRAME + n * SUBFRAME;
            for k in 0..SUBFRAME {
                ds_buf[pos + k] = d[n * SUBFRAME + k] >> 3;
            }
            let (lag, lmax) = golden_ltppar(&ds_buf[pos..], &ds_buf[pos - LAG_MAX..]);
            let mut energy = 0i64;
            for k in 0..SUBFRAME {
                let h = i64::from(ds_buf[pos + k - lag as usize]);
                energy += h * h;
            }
            let gain = ((lmax << 14) / (energy + 1)).clamp(0, 26000);
            stream.push(lag as u8);
            stream.extend_from_slice(&(gain as i16).to_le_bytes());
            // Full LTP residual.
            let mut e = [0i16; SUBFRAME];
            for k in 0..SUBFRAME {
                let h = i64::from(ds_buf[pos + k - lag as usize]);
                e[k] = sat16(i64::from(ds_buf[pos + k]) - ((gain * h) >> 16));
            }
            // RPE weighting filter (Q13, 5 taps, zero boundary).
            let mut xw = [0i16; SUBFRAME];
            for (k, xwk) in xw.iter_mut().enumerate() {
                let mut acc = 0i64;
                for (i, w) in WEIGHT.iter().enumerate() {
                    let idx = k as i64 + i as i64 - 2;
                    if (0..SUBFRAME as i64).contains(&idx) {
                        acc += w * i64::from(e[idx as usize]);
                    }
                }
                *xwk = sat16(acc >> 13);
            }
            // Grid selection: the 3-decimated grid with most energy.
            let mut grid = 0usize;
            let mut best_e = -1i64;
            for g in 0..3 {
                let mut eg = 0i64;
                for k in 0..13 {
                    let v = i64::from(xw[g + 3 * k]);
                    eg += v * v;
                }
                if eg > best_e {
                    best_e = eg;
                    grid = g;
                }
            }
            stream.push(grid as u8);
            // APCM: block-adaptive quantization to 13 small samples.
            let mut xmax = 0i64;
            for k in 0..13 {
                xmax = xmax.max(i64::from(xw[grid + 3 * k]).abs());
            }
            let xmax_q = (xmax >> 6).clamp(0, 255);
            stream.push(xmax_q as u8);
            let xm = xmax_q << 6;
            for k in 0..13 {
                let q = ((i64::from(xw[grid + 3 * k]) * 8) / (xm + 64)).clamp(-7, 7);
                stream.push(q as u8);
            }
        }
    }
    let decoded = golden_gsmdec(&stream);
    GoldenGsm { stream, decoded }
}

/// Runs the golden decoder over a parameter stream.
#[must_use]
pub fn golden_gsmdec(stream: &[u8]) -> Vec<i16> {
    let mut pos = 0usize;
    let mut out = vec![0i16; NFRAMES * FRAME];
    let mut dp_buf = vec![0i16; LAG_MAX + NFRAMES * FRAME];
    for f in 0..NFRAMES {
        let mut arq = [0i64; TAPS + 1];
        for slot in arq.iter_mut().skip(1) {
            let lar = stream[pos] as i8;
            pos += 1;
            *slot = i64::from(lar) << 4;
        }
        let mut dprime = [0i16; FRAME];
        for n in 0..4 {
            let lag = stream[pos] as usize;
            pos += 1;
            let gain = i16::from_le_bytes([stream[pos], stream[pos + 1]]);
            pos += 2;
            let grid = stream[pos] as usize;
            pos += 1;
            let xm = i64::from(stream[pos]) << 6;
            pos += 1;
            // APCM + RPE reconstruction.
            let mut e = [0i16; SUBFRAME];
            for k in 0..13 {
                let q = stream[pos] as i8;
                pos += 1;
                e[grid + 3 * k] = sat16((i64::from(q) * (xm + 64)) / 8);
            }
            // Long-term filter (the ltpfilt kernel semantics).
            let p = LAG_MAX + f * FRAME + n * SUBFRAME;
            for k in 0..SUBFRAME {
                let h = i32::from(dp_buf[p + k - lag]);
                let contrib = (i32::from(gain) * h) >> 16;
                let v = i32::from(e[k]) + contrib;
                dp_buf[p + k] = v.clamp(-32768, 32767) as i16;
            }
            for k in 0..SUBFRAME {
                dprime[n * SUBFRAME + k] = dp_buf[p + k];
            }
        }
        // Short-term synthesis + deemphasis.
        let mut sprime = [0i16; FRAME];
        for k in 0..FRAME {
            let mut pred = 0i64;
            for j in 1..=TAPS {
                if k >= j {
                    pred += arq[j] * i64::from(sprime[k - j]);
                }
            }
            sprime[k] = sat16((i64::from(dprime[k]) << 3) + (pred >> 10));
        }
        let mut prev = 0i64;
        for k in 0..FRAME {
            let v = sat16(i64::from(sprime[k]) + ((PREEMPH * prev) >> 15));
            out[f * FRAME + k] = v;
            prev = i64::from(v);
        }
    }
    out
}

// ======================================================================
// Shared emit helpers
// ======================================================================

/// Clamps `r` into `[-32768, 32767]`.
fn emit_sat16(a: &mut Asm, r: IReg) {
    a.if_(Cond::Gt, r, 32767, |a| a.li(r, 32767));
    a.if_(Cond::Lt, r, -32768, |a| a.li(r, -32768));
}

mod slot {
    pub const SIGNAL: usize = 0;
    pub const STREAM: usize = 1;
    pub const DS_BUF: usize = 2;
    pub const S_BUF: usize = 3;
    pub const D_BUF: usize = 4;
    pub const ARQ: usize = 5;
    pub const LEN_CELL: usize = 6;
    pub const OUT: usize = 7;
    pub const E_BUF: usize = 8;
    pub const XW_BUF: usize = 9;
    pub const COUNT: usize = 10;
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
        (slot::SIGNAL, 2 * NFRAMES * FRAME),
        (slot::STREAM, 1 << 14),
        (slot::DS_BUF, 2 * (LAG_MAX + NFRAMES * FRAME)),
        (slot::S_BUF, 2 * FRAME),
        (slot::D_BUF, 2 * FRAME),
        (slot::ARQ, 8 * (TAPS + 1)),
        (slot::LEN_CELL, 8),
        (slot::OUT, 2 * NFRAMES * FRAME),
        (slot::E_BUF, 2 * SUBFRAME),
        (slot::XW_BUF, 2 * SUBFRAME),
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
    machine.set_ireg(0, params_addr as i64);
    Buffers {
        layout,
        machine,
        slots,
    }
}

// ======================================================================
// The applications
// ======================================================================

/// The GSM speech encoder application.
#[derive(Debug, Clone, Copy, Default)]
pub struct GsmEnc;

impl App for GsmEnc {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "gsmenc",
            description: "GSM 06.10 speech encoder",
        }
    }

    #[allow(clippy::too_many_lines)]
    fn build(&self, v: Variant) -> BuiltKernel {
        let signal = test_signal();
        let golden = golden_gsmenc();
        let mut bufs = make_buffers(v);
        bufs.machine
            .write_i16s(bufs.slots[slot::SIGNAL], &signal)
            .unwrap();

        let mut a = Asm::new();
        let params = a.arg(0);
        let outp = a.arg(1);
        let frame = a.arg(2);
        let xf = a.arg(3); // current frame input pointer
        let ds_pos = a.arg(4); // current sub-frame position in ds_buf (byte pointer)
        emit_load_param(&mut a, params, slot::STREAM, outp);
        emit_load_param(&mut a, params, slot::SIGNAL, xf);
        {
            let t = a.ireg();
            emit_load_param(&mut a, params, slot::DS_BUF, t);
            a.addi(ds_pos, t, 2 * LAG_MAX as i32);
            a.release_ireg(t);
        }
        let (sbuf, dbuf, arqp) = (a.ireg(), a.ireg(), a.ireg());
        emit_load_param(&mut a, params, slot::S_BUF, sbuf);
        emit_load_param(&mut a, params, slot::D_BUF, dbuf);
        emit_load_param(&mut a, params, slot::ARQ, arqp);

        a.li(frame, 0);
        a.for_loop(frame, NFRAMES as i32, |a| {
            // --- 1. preemphasis ---
            let (k, prev, t, u) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
            a.li(prev, 0);
            a.li(k, 0);
            a.for_loop(k, FRAME as i32, |a| {
                a.muli(t, prev, PREEMPH as i32);
                a.srai(t, t, 15);
                a.slli(u, k, 1);
                a.add(u, xf, u);
                a.lh(prev, u, 0);
                a.sub(t, prev, t);
                emit_sat16(a, t);
                a.slli(u, k, 1);
                a.add(u, sbuf, u);
                a.sh(t, u, 0);
                // prev already holds x[k]
            });
            // --- 2. autocorrelation ---
            // ac[j] kept in registers.
            let acs: Vec<IReg> = (0..=TAPS).map(|_| a.ireg()).collect();
            for (j, acj) in acs.iter().enumerate() {
                a.li(*acj, 0);
                a.li(k, j as i64);
                a.for_loop(k, FRAME as i32, |a| {
                    a.slli(t, k, 1);
                    a.add(t, sbuf, t);
                    a.lh(u, t, 0);
                    a.lh(t, t, -(2 * j as i32));
                    a.mul(t, t, u);
                    a.add(*acj, *acj, t);
                });
            }
            // --- 3. coefficients: arq[j] = ((ac[j]<<10)/(ac[0]+1)).clamp(±800) >> 4 << 4
            let den = a.ireg();
            a.addi(den, acs[0], 1);
            for (j, &acj) in acs.iter().enumerate().skip(1) {
                a.slli(t, acj, 10);
                a.alu(simdsim_isa::AluOp::Div, t, t, den);
                a.if_(Cond::Gt, t, 800, |a| a.li(t, 800));
                a.if_(Cond::Lt, t, -800, |a| a.li(t, -800));
                a.srai(t, t, 4);
                a.sb(t, outp, 0);
                a.addi(outp, outp, 1);
                a.slli(t, t, 4);
                a.sd(t, arqp, (8 * j) as i32);
            }
            a.release_ireg(den);
            for acj in &acs {
                a.release_ireg(*acj);
            }
            // --- 4. short-term residual ---
            a.li(k, 0);
            a.for_loop(k, FRAME as i32, |a| {
                let pred = a.ireg();
                a.li(pred, 0);
                for j in 1..=TAPS {
                    a.if_(Cond::Ge, k, j as i32, |a| {
                        a.slli(t, k, 1);
                        a.add(t, sbuf, t);
                        a.lh(t, t, -(2 * j as i32));
                        a.ld(u, arqp, (8 * j) as i32);
                        a.mul(t, t, u);
                        a.add(pred, pred, t);
                    });
                }
                a.srai(pred, pred, 10);
                a.slli(t, k, 1);
                a.add(t, sbuf, t);
                a.lh(u, t, 0);
                a.sub(u, u, pred);
                emit_sat16(a, u);
                a.slli(t, k, 1);
                a.add(t, dbuf, t);
                a.sh(u, t, 0);
                a.release_ireg(pred);
            });
            // --- 5. sub-frames ---
            let sub = a.ireg();
            a.li(sub, 0);
            a.for_loop(sub, 4, |a| {
                // scale d into ds_buf at ds_pos
                let (dptr, lag, lmax) = (a.ireg(), a.ireg(), a.ireg());
                a.slli(t, sub, 1 + 5); // sub*64... careful: SUBFRAME*2 = 80 bytes
                let _ = t;
                a.muli(t, sub, (2 * SUBFRAME) as i32);
                a.add(dptr, dbuf, t);
                a.li(k, 0);
                a.for_loop(k, SUBFRAME as i32, |a| {
                    a.slli(t, k, 1);
                    a.add(t, dptr, t);
                    a.lh(u, t, 0);
                    a.srai(u, u, 3);
                    a.slli(t, k, 1);
                    a.add(t, ds_pos, t);
                    a.sh(u, t, 0);
                });
                // LTP lag search (vector kernel).
                let hist = a.ireg();
                a.subi(hist, ds_pos, 2 * LAG_MAX as i32);
                let pargs = LtpParArgs {
                    d: ds_pos,
                    hist,
                    out_lag: lag,
                    out_max: lmax,
                };
                emit_ltppar(a, v, &pargs);
                // gain = clamp((lmax << 14) / (energy+1), 0, 26000)
                let (energy, gain) = (a.ireg(), a.ireg());
                a.li(energy, 0);
                a.slli(t, lag, 1);
                a.sub(t, ds_pos, t); // &ds[pos - lag]
                a.li(k, 0);
                a.for_loop(k, SUBFRAME as i32, |a| {
                    a.slli(u, k, 1);
                    a.add(u, t, u);
                    a.lh(u, u, 0);
                    a.mul(u, u, u);
                    a.add(energy, energy, u);
                });
                a.slli(gain, lmax, 14);
                a.addi(energy, energy, 1);
                a.alu(simdsim_isa::AluOp::Div, gain, gain, energy);
                a.if_(Cond::Lt, gain, 0, |a| a.li(gain, 0));
                a.if_(Cond::Gt, gain, 26000, |a| a.li(gain, 26000));
                a.sb(lag, outp, 0);
                a.sh(gain, outp, 1);
                a.addi(outp, outp, 3);
                a.release_ireg(dptr);
                a.release_ireg(hist);
                a.release_ireg(lmax);
                // Full LTP residual into E_BUF.
                let (ebase, xwbase) = (a.ireg(), a.ireg());
                emit_load_param(a, params, slot::E_BUF, ebase);
                emit_load_param(a, params, slot::XW_BUF, xwbase);
                a.li(k, 0);
                a.for_loop(k, SUBFRAME as i32, |a| {
                    let h = a.ireg();
                    a.slli(t, k, 1);
                    a.add(h, ds_pos, t);
                    a.lh(u, h, 0);
                    a.slli(t, lag, 1);
                    a.sub(h, h, t);
                    a.lh(h, h, 0);
                    a.mul(h, h, gain);
                    a.srai(h, h, 16);
                    a.sub(u, u, h);
                    emit_sat16(a, u);
                    a.slli(t, k, 1);
                    a.add(h, ebase, t);
                    a.sh(u, h, 0);
                    a.release_ireg(h);
                });
                // RPE weighting filter (5 taps, Q13, zero boundary).
                a.li(k, 0);
                a.for_loop(k, SUBFRAME as i32, |a| {
                    let (acc, idx) = (a.ireg(), a.ireg());
                    a.li(acc, 0);
                    for (i, w) in WEIGHT.iter().enumerate() {
                        a.addi(idx, k, i as i32 - 2);
                        a.if_(Cond::Ge, idx, 0, |a| {
                            a.if_(Cond::Lt, idx, SUBFRAME as i32, |a| {
                                a.slli(t, idx, 1);
                                a.add(t, ebase, t);
                                a.lh(t, t, 0);
                                a.muli(t, t, *w as i32);
                                a.add(acc, acc, t);
                            });
                        });
                    }
                    a.srai(acc, acc, 13);
                    emit_sat16(a, acc);
                    a.slli(t, k, 1);
                    a.add(t, xwbase, t);
                    a.sh(acc, t, 0);
                    a.release_ireg(acc);
                    a.release_ireg(idx);
                });
                // Grid selection.
                let (grid, best_e) = (a.ireg(), a.ireg());
                a.li(grid, 0);
                a.li(best_e, -1);
                for g in 0..3i64 {
                    let eg = a.ireg();
                    a.li(eg, 0);
                    a.li(k, 0);
                    a.for_loop(k, 13, |a| {
                        a.muli(t, k, 6);
                        a.add(t, xwbase, t);
                        a.lh(t, t, 2 * g as i32);
                        a.mul(t, t, t);
                        a.add(eg, eg, t);
                    });
                    a.if_(Cond::Gt, eg, best_e, |a| {
                        a.mv(best_e, eg);
                        a.li(grid, g);
                    });
                    a.release_ireg(eg);
                }
                // APCM: xmax, quantize 13 samples.
                let (xmax, gbase) = (a.ireg(), a.ireg());
                a.slli(gbase, grid, 1);
                a.add(gbase, xwbase, gbase);
                a.li(xmax, 0);
                a.li(k, 0);
                a.for_loop(k, 13, |a| {
                    a.muli(t, k, 6);
                    a.add(t, gbase, t);
                    a.lh(u, t, 0);
                    a.if_(Cond::Lt, u, 0, |a| {
                        a.li(t, 0);
                        a.sub(u, t, u);
                    });
                    a.if_(Cond::Gt, u, xmax, |a| a.mv(xmax, u));
                });
                a.srai(xmax, xmax, 6);
                a.if_(Cond::Gt, xmax, 255, |a| a.li(xmax, 255));
                a.sb(grid, outp, 0);
                a.sb(xmax, outp, 1);
                a.addi(outp, outp, 2);
                // xm + 64 as the quantizer divisor.
                a.slli(xmax, xmax, 6);
                a.addi(xmax, xmax, 64);
                a.li(k, 0);
                a.for_loop(k, 13, |a| {
                    a.muli(t, k, 6);
                    a.add(t, gbase, t);
                    a.lh(u, t, 0);
                    a.slli(u, u, 3);
                    a.alu(simdsim_isa::AluOp::Div, u, u, xmax);
                    a.if_(Cond::Gt, u, 7, |a| a.li(u, 7));
                    a.if_(Cond::Lt, u, -7, |a| a.li(u, -7));
                    a.sb(u, outp, 0);
                    a.addi(outp, outp, 1);
                });
                a.addi(ds_pos, ds_pos, (2 * SUBFRAME) as i32);
                for r in [lag, energy, gain, ebase, xwbase, grid, best_e, xmax, gbase] {
                    a.release_ireg(r);
                }
            });
            a.release_ireg(sub);
            a.addi(xf, xf, (2 * FRAME) as i32);
            for r in [k, prev, t, u] {
                a.release_ireg(r);
            }
        });
        // stream length
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
        let golden_stream = golden.stream;
        BuiltKernel::new(program, &bufs.layout, bufs.machine, move |m: &Machine| {
            let len = u64::from_le_bytes(
                m.read_bytes(len_addr, 8)
                    .map_err(|e| e.to_string())?
                    .try_into()
                    .unwrap(),
            ) as usize;
            if len != golden_stream.len() {
                return Err(format!(
                    "gsmenc stream length {len} != golden {}",
                    golden_stream.len()
                ));
            }
            let got = m.read_bytes(stream_addr, len).map_err(|e| e.to_string())?;
            if let Some(i) = got.iter().zip(&golden_stream).position(|(a, b)| a != b) {
                return Err(format!(
                    "gsmenc stream mismatch at byte {i}: got {} want {}",
                    got[i], golden_stream[i]
                ));
            }
            Ok(())
        })
    }
}

/// The GSM speech decoder application.
#[derive(Debug, Clone, Copy, Default)]
pub struct GsmDec;

impl App for GsmDec {
    fn spec(&self) -> AppSpec {
        AppSpec {
            name: "gsmdec",
            description: "GSM 06.10 speech decoder",
        }
    }

    #[allow(clippy::too_many_lines)]
    fn build(&self, v: Variant) -> BuiltKernel {
        let golden = golden_gsmenc();
        let mut bufs = make_buffers(v);
        bufs.machine
            .write_bytes(bufs.slots[slot::STREAM], &golden.stream)
            .unwrap();

        let mut a = Asm::new();
        let params = a.arg(0);
        let inp = a.arg(1);
        let frame = a.arg(2);
        let dp_pos = a.arg(3); // current position in the d' history buffer
        let outs = a.arg(4); // output sample pointer
        emit_load_param(&mut a, params, slot::STREAM, inp);
        emit_load_param(&mut a, params, slot::OUT, outs);
        {
            let t = a.ireg();
            emit_load_param(&mut a, params, slot::DS_BUF, t);
            a.addi(dp_pos, t, 2 * LAG_MAX as i32);
            a.release_ireg(t);
        }
        let (sbuf, arqp, ebuf) = (a.ireg(), a.ireg(), a.ireg());
        emit_load_param(&mut a, params, slot::S_BUF, sbuf);
        emit_load_param(&mut a, params, slot::ARQ, arqp);
        emit_load_param(&mut a, params, slot::E_BUF, ebuf);

        a.li(frame, 0);
        a.for_loop(frame, NFRAMES as i32, |a| {
            let (k, t, u) = (a.ireg(), a.ireg(), a.ireg());
            // --- coefficients ---
            for j in 1..=TAPS {
                a.load(simdsim_isa::MemSz::B, true, t, inp, 0);
                a.addi(inp, inp, 1);
                a.slli(t, t, 4);
                a.sd(t, arqp, (8 * j) as i32);
            }
            // --- sub-frames: RPE + long-term filter ---
            let frame_dp = a.ireg();
            a.mv(frame_dp, dp_pos);
            let sub = a.ireg();
            a.li(sub, 0);
            a.for_loop(sub, 4, |a| {
                let (lag, gain, grid, xm) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
                a.lbu(lag, inp, 0);
                a.lh(gain, inp, 1);
                a.lbu(grid, inp, 3);
                a.lbu(xm, inp, 4);
                a.addi(inp, inp, 5);
                a.slli(xm, xm, 6);
                a.addi(xm, xm, 64);
                // e' buffer: zeros, then APCM-dequantized samples on the grid.
                a.li(k, 0);
                a.li(t, 0);
                a.for_loop(k, SUBFRAME as i32, |a| {
                    a.slli(u, k, 1);
                    a.add(u, ebuf, u);
                    a.sh(t, u, 0);
                });
                a.slli(grid, grid, 1);
                a.add(grid, ebuf, grid);
                a.li(k, 0);
                a.for_loop(k, 13, |a| {
                    a.load(simdsim_isa::MemSz::B, true, t, inp, 0);
                    a.addi(inp, inp, 1);
                    a.mul(t, t, xm);
                    a.alu(simdsim_isa::AluOp::Div, t, t, 8);
                    emit_sat16(a, t);
                    a.muli(u, k, 6);
                    a.add(u, grid, u);
                    a.sh(t, u, 0);
                });
                // Long-term filter (vector kernel): out = e' + (gain·hist)>>16.
                let h = a.ireg();
                a.slli(h, lag, 1);
                let hist = a.ireg();
                a.sub(hist, dp_pos, h);
                let fargs = LtpFiltArgs {
                    x: ebuf,
                    h: hist,
                    out: dp_pos,
                    gain,
                };
                emit_ltpfilt(a, v, &fargs, SUBFRAME);
                a.addi(dp_pos, dp_pos, (2 * SUBFRAME) as i32);
                for r in [lag, gain, grid, xm, h, hist] {
                    a.release_ireg(r);
                }
            });
            a.release_ireg(sub);
            // --- short-term synthesis (reads d' from the history buffer) ---
            a.li(k, 0);
            a.for_loop(k, FRAME as i32, |a| {
                let pred = a.ireg();
                a.li(pred, 0);
                for j in 1..=TAPS {
                    a.if_(Cond::Ge, k, j as i32, |a| {
                        a.slli(t, k, 1);
                        a.add(t, sbuf, t);
                        a.lh(t, t, -(2 * j as i32));
                        a.ld(u, arqp, (8 * j) as i32);
                        a.mul(t, t, u);
                        a.add(pred, pred, t);
                    });
                }
                a.srai(pred, pred, 10);
                a.slli(t, k, 1);
                a.add(u, frame_dp, t);
                a.lh(u, u, 0);
                a.slli(u, u, 3);
                a.add(u, u, pred);
                emit_sat16(a, u);
                a.add(t, sbuf, t);
                a.sh(u, t, 0);
                a.release_ireg(pred);
            });
            a.release_ireg(frame_dp);
            // --- deemphasis ---
            let prev = a.ireg();
            a.li(prev, 0);
            a.li(k, 0);
            a.for_loop(k, FRAME as i32, |a| {
                a.muli(t, prev, PREEMPH as i32);
                a.srai(t, t, 15);
                a.slli(u, k, 1);
                a.add(u, sbuf, u);
                a.lh(u, u, 0);
                a.add(t, t, u);
                emit_sat16(a, t);
                a.mv(prev, t);
                a.slli(u, k, 1);
                a.add(u, outs, u);
                a.sh(t, u, 0);
            });
            a.release_ireg(prev);
            a.addi(outs, outs, (2 * FRAME) as i32);
            for r in [k, t, u] {
                a.release_ireg(r);
            }
        });
        a.halt();
        let program = a.finish();

        let out_addr = bufs.slots[slot::OUT];
        let expected = golden.decoded;
        BuiltKernel::new(program, &bufs.layout, bufs.machine, move |m: &Machine| {
            let got = m
                .read_i16s(out_addr, expected.len())
                .map_err(|e| e.to_string())?;
            if let Some(i) = got.iter().zip(&expected).position(|(a, b)| a != b) {
                return Err(format!(
                    "gsmdec sample mismatch at {i}: got {} want {}",
                    got[i], expected[i]
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
    fn golden_gsm_pipeline_is_plausible() {
        let g = golden_gsmenc();
        assert_eq!(g.stream.len(), NFRAMES * (TAPS + 4 * (1 + 2 + 1 + 1 + 13)));
        assert_eq!(g.decoded.len(), NFRAMES * FRAME);
        // Decoded signal correlates with the input.
        let x = test_signal();
        let energy_in: i64 = x.iter().map(|v| i64::from(*v) * i64::from(*v)).sum();
        let energy_out: i64 = g
            .decoded
            .iter()
            .map(|v| i64::from(*v) * i64::from(*v))
            .sum();
        assert!(energy_out > energy_in / 64, "{energy_out} vs {energy_in}");
    }

    #[test]
    fn gsmenc_all_variants_match_golden() {
        for v in Variant::ALL {
            GsmEnc
                .build(v)
                .run_checked()
                .unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn gsmdec_all_variants_match_golden() {
        for v in Variant::ALL {
            GsmDec
                .build(v)
                .run_checked()
                .unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn gsm_vector_fraction_is_small() {
        // The paper: gsm apps vectorise <10%.
        let s = GsmEnc.build(Variant::Mmx64).run_checked().unwrap();
        let frac = s.vector_region_instrs as f64 / s.dyn_instrs as f64;
        assert!(frac < 0.40, "vector fraction {frac}");
    }
}
