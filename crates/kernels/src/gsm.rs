//! GSM 06.10 long-term-prediction kernels: `ltppar` (lag search by
//! cross-correlation, gsmenc) and `ltpfilt` (long-term filtering, gsmdec).
//!
//! These kernels work on short 16-bit sample segments (40 and 120
//! samples), which limits the parallelism that register scaling can
//! exploit — the paper uses them to show where VMMX128 stops paying off.

use crate::{BuiltKernel, Kernel, KernelSpec, Variant};
use simdsim_asm::Asm;
use simdsim_emu::{Layout, Machine};
use simdsim_isa::{AccOp, Cond, Esz, IReg, VOp};

/// Samples per LTP sub-frame.
pub const SUBFRAME: usize = 40;
/// Minimum searched lag.
pub const LAG_MIN: usize = 40;
/// Maximum searched lag.
pub const LAG_MAX: usize = 120;
/// Samples processed by one `ltpfilt` call.
pub const FILT_LEN: usize = 120;

// ======================================================================
// Golden references
// ======================================================================

/// Golden LTP parameter search: returns `(best_lag, max_correlation)`.
///
/// `d` holds the 40 current samples, `hist` the preceding
/// [`LAG_MAX`] reconstructed samples (`hist[LAG_MAX - 1]` is the most
/// recent, so `d[k - lag] == hist[LAG_MAX + k - lag]`).
#[must_use]
pub fn golden_ltppar(d: &[i16], hist: &[i16]) -> (i64, i64) {
    assert!(d.len() >= SUBFRAME && hist.len() >= LAG_MAX);
    let mut best = (LAG_MIN as i64, i64::MIN);
    for lag in LAG_MIN..=LAG_MAX {
        let mut s = 0i64;
        for k in 0..SUBFRAME {
            s += i64::from(d[k]) * i64::from(hist[LAG_MAX + k - lag]);
        }
        if s > best.1 {
            best = (lag as i64, s);
        }
    }
    best
}

/// Golden long-term filter: `out[k] = sat16(x[k] + ((gain * h[k]) >> 16))`
/// over `out.len()` samples.
pub fn golden_ltpfilt(x: &[i16], h: &[i16], gain: i16, out: &mut [i16]) {
    for k in 0..out.len() {
        let contrib = (i32::from(gain) * i32::from(h[k])) >> 16;
        let v = i32::from(x[k]) + contrib;
        out[k] = v.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16;
    }
}

// ======================================================================
// Emitters
// ======================================================================

/// Argument registers of the `ltppar` body.
#[derive(Debug, Clone, Copy)]
pub struct LtpParArgs {
    /// Pointer to the 40 current samples.
    pub d: IReg,
    /// Pointer to the 120-sample history (`hist[0]` is the oldest).
    pub hist: IReg,
    /// Receives the best lag.
    pub out_lag: IReg,
    /// Receives the maximum correlation.
    pub out_max: IReg,
}

/// Emits the `ltppar` body in the requested variant.
pub fn emit_ltppar(a: &mut Asm, v: Variant, args: &LtpParArgs) {
    match v {
        Variant::Scalar => emit_ltppar_scalar(a, args),
        Variant::Mmx64 | Variant::Mmx128 => {
            a.vector_region(|a| emit_ltppar_mmx(a, v.width(), args));
        }
        Variant::Vmmx64 | Variant::Vmmx128 => {
            a.vector_region(|a| emit_ltppar_vmmx(a, v.width(), args));
        }
    }
}

fn emit_ltppar_scalar(a: &mut Asm, args: &LtpParArgs) {
    let (lag, s, k, x, y, base) = (a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg());
    a.li(args.out_max, i64::MIN);
    a.li(args.out_lag, LAG_MIN as i64);
    a.li(lag, LAG_MIN as i64);
    a.for_loop(lag, (LAG_MAX + 1) as i64 as i32, |a| {
        // base = &hist[LAG_MAX - lag]
        a.li(base, 2 * LAG_MAX as i64);
        a.slli(x, lag, 1);
        a.sub(base, base, x);
        a.add(base, args.hist, base);
        a.li(s, 0);
        a.li(k, 0);
        a.for_loop(k, SUBFRAME as i32, |a| {
            a.slli(x, k, 1);
            a.add(y, args.d, x);
            a.lh(y, y, 0);
            a.add(x, base, x);
            a.lh(x, x, 0);
            a.mul(x, x, y);
            a.add(s, s, x);
        });
        a.if_(Cond::Gt, s, args.out_max, |a| {
            a.mv(args.out_max, s);
            a.mv(args.out_lag, lag);
        });
    });
    for r in [lag, s, k, x, y, base] {
        a.release_ireg(r);
    }
}

fn emit_ltppar_mmx(a: &mut Asm, width: usize, args: &LtpParArgs) {
    let (lag, s, x, base, t) = (a.ireg(), a.ireg(), a.ireg(), a.ireg(), a.ireg());
    let (acc, v1, v2, zero) = (a.vreg(), a.vreg(), a.vreg(), a.vreg());
    let chunk = width / 2; // i16 lanes per register
    let nchunks = SUBFRAME / chunk; // 10 for 64-bit, 5 for 128-bit
    a.li(args.out_max, i64::MIN);
    a.li(args.out_lag, LAG_MIN as i64);
    a.li(t, 0);
    a.vsplat(zero, t, Esz::B);
    a.li(lag, LAG_MIN as i64);
    a.for_loop(lag, (LAG_MAX + 1) as i32, |a| {
        a.li(base, 2 * LAG_MAX as i64);
        a.slli(x, lag, 1);
        a.sub(base, base, x);
        a.add(base, args.hist, base);
        a.vmov(acc, zero);
        for c in 0..nchunks {
            let off = (c * width) as i32;
            a.vload(v1, args.d, off, width as u8);
            a.vload(v2, base, off, width as u8);
            a.simd(VOp::Madd, v1, v1, v2);
            a.simd(VOp::Add(Esz::W), acc, acc, v1);
        }
        // Horizontal add of the 32-bit lanes.
        a.li(s, 0);
        for l in 0..width / 4 {
            a.movsv(x, acc, l as u8, Esz::W, true);
            a.add(s, s, x);
        }
        a.if_(Cond::Gt, s, args.out_max, |a| {
            a.mv(args.out_max, s);
            a.mv(args.out_lag, lag);
        });
    });
    for r in [lag, s, x, base, t] {
        a.release_ireg(r);
    }
    for vr in [acc, v1, v2, zero] {
        a.release_vreg(vr);
    }
}

fn emit_ltppar_vmmx(a: &mut Asm, width: usize, args: &LtpParArgs) {
    let (lag, s, x, base) = (a.ireg(), a.ireg(), a.ireg(), a.ireg());
    let (md, mh) = (a.mreg(), a.mreg());
    let acc = a.areg();
    let rows = (SUBFRAME * 2) / width; // 10 rows of 8 bytes, or 5 of 16
    a.li(args.out_max, i64::MIN);
    a.li(args.out_lag, LAG_MIN as i64);
    a.setvl(rows as i32);
    // The current segment stays resident in a matrix register for the
    // whole lag search.
    a.mload(md, args.d, width as i32, width as u8);
    a.li(lag, LAG_MIN as i64);
    a.for_loop(lag, (LAG_MAX + 1) as i32, |a| {
        a.li(base, 2 * LAG_MAX as i64);
        a.slli(x, lag, 1);
        a.sub(base, base, x);
        a.add(base, args.hist, base);
        a.accclear(acc);
        a.mload(mh, base, width as i32, width as u8);
        a.macc(AccOp::Mac, acc, md, mh);
        a.accsum(s, acc);
        a.if_(Cond::Gt, s, args.out_max, |a| {
            a.mv(args.out_max, s);
            a.mv(args.out_lag, lag);
        });
    });
    for r in [lag, s, x, base] {
        a.release_ireg(r);
    }
    a.release_mreg(md);
    a.release_mreg(mh);
    a.release_areg(acc);
}

/// Argument registers of the `ltpfilt` body.
#[derive(Debug, Clone, Copy)]
pub struct LtpFiltArgs {
    /// Excitation input pointer (120 `i16`).
    pub x: IReg,
    /// History input pointer (120 `i16`).
    pub h: IReg,
    /// Output pointer (120 `i16`).
    pub out: IReg,
    /// Filter gain (scalar register, Q16).
    pub gain: IReg,
}

/// Emits the `ltpfilt` body over `n` samples (40 for one sub-frame in
/// gsmdec, [`FILT_LEN`] in the standalone kernel).
///
/// `n` must satisfy `2·n % width == 0` and yield at most 16 rows per tile
/// for the matrix variants (40 and 120 both do).
pub fn emit_ltpfilt(a: &mut Asm, v: Variant, args: &LtpFiltArgs, n: usize) {
    match v {
        Variant::Scalar => {
            let (k, t, u) = (a.ireg(), a.ireg(), a.ireg());
            a.li(k, 0);
            a.for_loop(k, n as i32, |a| {
                a.slli(t, k, 1);
                a.add(u, args.h, t);
                a.lh(u, u, 0);
                a.mul(u, u, args.gain);
                a.srai(u, u, 16);
                a.add(t, args.x, t);
                a.lh(t, t, 0);
                a.add(u, u, t);
                a.if_(Cond::Gt, u, 32767, |a| a.li(u, 32767));
                a.if_(Cond::Lt, u, -32768, |a| a.li(u, -32768));
                a.slli(t, k, 1);
                a.add(t, args.out, t);
                a.sh(u, t, 0);
            });
            for r in [k, t, u] {
                a.release_ireg(r);
            }
        }
        Variant::Mmx64 | Variant::Mmx128 => a.vector_region(|a| {
            let width = v.width();
            let (g, v1, v2) = (a.vreg(), a.vreg(), a.vreg());
            a.vsplat(g, args.gain, Esz::H);
            let nchunks = (n * 2) / width;
            for c in 0..nchunks {
                let off = (c * width) as i32;
                a.vload(v1, args.h, off, width as u8);
                a.simd(VOp::Mulhi(Esz::H), v1, v1, g);
                a.vload(v2, args.x, off, width as u8);
                a.simd(VOp::AddS(Esz::H), v1, v1, v2);
                a.vstore(v1, args.out, off, width as u8);
            }
            for vr in [g, v1, v2] {
                a.release_vreg(vr);
            }
        }),
        Variant::Vmmx64 | Variant::Vmmx128 => a.vector_region(|a| {
            let width = v.width();
            let (mg, mh, mx) = (a.mreg(), a.mreg(), a.mreg());
            // Split the 2·n bytes into tiles of at most 16 rows.
            let total_rows = (n * 2) / width;
            let tiles = total_rows.div_ceil(16);
            let rows = total_rows / tiles;
            assert_eq!(rows * tiles, total_rows, "sample count must tile evenly");
            a.setvl(rows as i32);
            a.msplat(mg, args.gain, Esz::H);
            let (ph, px, po) = (a.ireg(), a.ireg(), a.ireg());
            a.mv(ph, args.h);
            a.mv(px, args.x);
            a.mv(po, args.out);
            for tile in 0..tiles {
                a.mload(mh, ph, width as i32, width as u8);
                a.mop(VOp::Mulhi(Esz::H), mh, mh, mg);
                a.mload(mx, px, width as i32, width as u8);
                a.mop(VOp::AddS(Esz::H), mh, mh, mx);
                a.mstore(mh, po, width as i32, width as u8);
                if tile + 1 < tiles {
                    let step = (rows * width) as i32;
                    a.addi(ph, ph, step);
                    a.addi(px, px, step);
                    a.addi(po, po, step);
                }
            }
            for r in [ph, px, po] {
                a.release_ireg(r);
            }
            for m in [mg, mh, mx] {
                a.release_mreg(m);
            }
        }),
    }
}

// ======================================================================
// Standalone workloads
// ======================================================================

/// Number of sub-frames in the standalone `ltppar` workload.
const NSEG: usize = 16;
/// Number of frames in the standalone `ltpfilt` workload.
const NFRAMES: usize = 32;

/// The `ltppar` kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct LtpPar;

impl Kernel for LtpPar {
    fn spec(&self) -> KernelSpec {
        KernelSpec {
            name: "ltppar",
            app: "gsmenc",
            description: "Parameter calculation for LTP filtering",
            data_size: "40 16-bit",
        }
    }

    fn build(&self, v: Variant) -> BuiltKernel {
        let mut rng = crate::data::Rng64::new(81);
        // One long signal; each segment's history is the preceding 120
        // samples, like the encoder's rolling reconstruction buffer.
        let signal = rng.i16s_in(LAG_MAX + NSEG * SUBFRAME, -4095, 4095);

        let mut asm = Asm::new();
        let (sig, outp, nseg) = (asm.arg(0), asm.arg(1), asm.arg(2));
        let (d, hist, lagr, maxr, seg) =
            (asm.ireg(), asm.ireg(), asm.ireg(), asm.ireg(), asm.ireg());
        let pargs = LtpParArgs {
            d,
            hist,
            out_lag: lagr,
            out_max: maxr,
        };
        asm.li(seg, 0);
        asm.addi(hist, sig, 0);
        asm.addi(d, sig, 2 * LAG_MAX as i32);
        asm.for_loop(seg, nseg, |a| {
            emit_ltppar(a, v, &pargs);
            a.sw(lagr, outp, 0);
            a.sw(maxr, outp, 4);
            a.addi(outp, outp, 8);
            a.addi(d, d, 2 * SUBFRAME as i32);
            a.addi(hist, hist, 2 * SUBFRAME as i32);
        });
        asm.halt();
        let program = asm.finish();

        let mut layout = Layout::new();
        let sig_addr = layout.alloc_array(signal.len() as u64, 2);
        let out_addr = layout.alloc_array((NSEG * 2) as u64, 4);

        let mut machine = layout.machine(v.machine_ext());
        machine.write_i16s(sig_addr, &signal).unwrap();
        machine.set_ireg(0, sig_addr as i64);
        machine.set_ireg(1, out_addr as i64);
        machine.set_ireg(2, NSEG as i64);

        let expected: Vec<i32> = (0..NSEG)
            .flat_map(|s| {
                let d = &signal[LAG_MAX + s * SUBFRAME..];
                let hist = &signal[s * SUBFRAME..];
                let (lag, max) = golden_ltppar(d, hist);
                [lag as i32, max as i32]
            })
            .collect();

        BuiltKernel::new(program, &layout, machine, move |m: &Machine| {
            let got = m.read_i32s(out_addr, NSEG * 2).map_err(|e| e.to_string())?;
            if got == expected {
                Ok(())
            } else {
                Err(format!("ltppar mismatch: got {got:?} want {expected:?}"))
            }
        })
    }
}

/// The `ltpfilt` kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct LtpFilt;

impl Kernel for LtpFilt {
    fn spec(&self) -> KernelSpec {
        KernelSpec {
            name: "ltpfilt",
            app: "gsmdec",
            description: "Long term parameter filtering",
            data_size: "120 16-bit",
        }
    }

    fn build(&self, v: Variant) -> BuiltKernel {
        let mut rng = crate::data::Rng64::new(83);
        let x = rng.i16s_in(NFRAMES * FILT_LEN, -20000, 20000);
        let h = rng.i16s_in(NFRAMES * FILT_LEN, -20000, 20000);
        let gains: Vec<i16> = (0..NFRAMES).map(|_| rng.i16_in(0, 28000)).collect();

        let mut asm = Asm::new();
        let (xp, hp, op, gp, nfr) = (asm.arg(0), asm.arg(1), asm.arg(2), asm.arg(3), asm.arg(4));
        let (gain, f) = (asm.ireg(), asm.ireg());
        let fargs = LtpFiltArgs {
            x: xp,
            h: hp,
            out: op,
            gain,
        };
        asm.li(f, 0);
        asm.for_loop(f, nfr, |a| {
            a.lh(gain, gp, 0);
            emit_ltpfilt(a, v, &fargs, FILT_LEN);
            a.addi(gp, gp, 2);
            a.addi(xp, xp, 2 * FILT_LEN as i32);
            a.addi(hp, hp, 2 * FILT_LEN as i32);
            a.addi(op, op, 2 * FILT_LEN as i32);
        });
        asm.halt();
        let program = asm.finish();

        let mut layout = Layout::new();
        let x_addr = layout.alloc_array(x.len() as u64, 2);
        let h_addr = layout.alloc_array(h.len() as u64, 2);
        let o_addr = layout.alloc_array(x.len() as u64, 2);
        let g_addr = layout.alloc_array(NFRAMES as u64, 2);

        let mut machine = layout.machine(v.machine_ext());
        machine.write_i16s(x_addr, &x).unwrap();
        machine.write_i16s(h_addr, &h).unwrap();
        machine.write_i16s(g_addr, &gains).unwrap();
        machine.set_ireg(0, x_addr as i64);
        machine.set_ireg(1, h_addr as i64);
        machine.set_ireg(2, o_addr as i64);
        machine.set_ireg(3, g_addr as i64);
        machine.set_ireg(4, NFRAMES as i64);

        let mut expected = vec![0i16; x.len()];
        for (f, &gain) in gains.iter().enumerate().take(NFRAMES) {
            let lo = f * FILT_LEN;
            let mut out = vec![0i16; FILT_LEN];
            golden_ltpfilt(&x[lo..], &h[lo..], gain, &mut out);
            expected[lo..lo + FILT_LEN].copy_from_slice(&out);
        }

        BuiltKernel::new(program, &layout, machine, move |m: &Machine| {
            let got = m
                .read_i16s(o_addr, expected.len())
                .map_err(|e| e.to_string())?;
            if got == expected {
                Ok(())
            } else {
                let k = got.iter().zip(&expected).position(|(a, b)| a != b).unwrap();
                Err(format!(
                    "ltpfilt mismatch at {k}: got {} want {}",
                    got[k], expected[k]
                ))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_ltppar_finds_planted_echo() {
        // Plant a strong echo at lag 57.
        let mut signal = vec![0i16; LAG_MAX + SUBFRAME];
        let mut rng = crate::data::Rng64::new(5);
        for s in signal.iter_mut() {
            *s = rng.i16_in(-500, 500);
        }
        for k in 0..SUBFRAME {
            let past = signal[LAG_MAX + k - 57];
            signal[LAG_MAX + k] = past.saturating_mul(2).clamp(-4000, 4000);
        }
        let (lag, _) = golden_ltppar(&signal[LAG_MAX..], &signal);
        assert_eq!(lag, 57);
    }

    #[test]
    fn golden_ltpfilt_zero_gain_is_identity() {
        let x: Vec<i16> = (0..FILT_LEN as i16).collect();
        let h = vec![1234i16; FILT_LEN];
        let mut out = vec![0i16; FILT_LEN];
        golden_ltpfilt(&x, &h, 0, &mut out);
        assert_eq!(out, x);
    }

    #[test]
    fn all_variants_match_golden_ltppar() {
        for v in Variant::ALL {
            LtpPar
                .build(v)
                .run_checked()
                .unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn all_variants_match_golden_ltpfilt() {
        for v in Variant::ALL {
            LtpFilt
                .build(v)
                .run_checked()
                .unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn vmmx_widths_perform_similarly() {
        // The paper: short segments limit VMMX128 over VMMX64.
        let a = LtpPar.build(Variant::Vmmx64).run_checked().unwrap();
        let b = LtpPar.build(Variant::Vmmx128).run_checked().unwrap();
        // Same instruction count shape: within 20%.
        let ratio = a.dyn_instrs as f64 / b.dyn_instrs as f64;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }
}
