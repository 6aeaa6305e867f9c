//! The reference interpreter: a deliberately simple, slow oracle.
//!
//! [`RefMachine`] re-implements the ISA's architectural semantics as a
//! straight-line `match` over [`Instr`] with per-lane scalar loops — no
//! predecode, no SWAR, and nothing shared with the production
//! emulator's `subword` kernels.  Where the emulator uses packed 128-bit
//! tricks, the oracle extracts each lane, computes in `i128` (so
//! saturating arithmetic is mathematically exact rather than depending
//! on intermediate 64-bit behaviour) and reassembles the word.  The
//! per-lane functions ([`vop`], [`vshift`], [`splat`], [`accumulate`],
//! [`transpose`], [`acc_pack`]) are public: they are also the oracle the
//! emulator's sub-word kernels are property-tested against
//! (`tests/prop.rs`) and benchmarked against.
//!
//! It produces the same observable artefacts as an emulator run driven
//! through an [`EffectsRecorder`](crate::EffectsRecorder): one
//! [`Effect`] per committed instruction, byte-identical [`EmuError`]
//! values on faults, and the same dynamic-count statistics the timing
//! model consumes.  The differential tester asserts all of these match
//! between the reference and the emulator.
//!
//! Deliberate non-goals: the oracle defines mathematically-exact
//! semantics for saturating arithmetic on 64-bit lanes and for
//! `Mulhi(Esz::D)`, where the production emulator's 64-bit intermediate
//! arithmetic can overflow (a debug-build panic).  The corpus and the
//! fuzzer stay inside the domain where both definitions agree
//! (saturating/averaging/high-multiply ops on byte/half/word lanes).

use crate::effects::{Effect, RegVal};
use simdsim_emu::{EmuError, Machine, MemAccess};
use simdsim_isa::{
    AccOp, AluOp, ClassCounts, Esz, Ext, Instr, MOperand, Operand2, Program, RegId, Region, Sat,
    VLoc, VOp, VShiftOp, MAX_VL, NUM_AREGS, NUM_FREGS, NUM_IREGS, NUM_MREGS, NUM_VREGS,
};

/// Everything one reference run produces.
///
/// `error` is carried alongside the committed prefix (rather than as a
/// `Result`) because a faulting run still has an effects stream — the
/// differential tester compares streams, errors and final state even
/// when a program traps.
#[derive(Debug, Clone, Default)]
pub struct RefRun {
    /// One effect per committed instruction, in commit order.
    pub effects: Vec<Effect>,
    /// Committed dynamic instructions.
    pub dyn_instrs: u64,
    /// Dynamic counts per Figure-7 class.
    pub counts: ClassCounts,
    /// Committed instructions tagged [`Region::Scalar`].
    pub scalar_region_instrs: u64,
    /// Committed instructions tagged [`Region::Vector`].
    pub vector_region_instrs: u64,
    /// Sub-word element operations (the emulator's DLP measure).
    pub element_ops: u64,
    /// The fault that stopped the run, if any.
    pub error: Option<EmuError>,
}

/// The oracle's architectural state: registers, accumulators and a flat
/// little-endian memory image, mirroring [`Machine`]'s state exactly.
#[derive(Debug, Clone)]
pub struct RefMachine {
    ext: Ext,
    iregs: [i64; NUM_IREGS],
    fregs: [f64; NUM_FREGS],
    vregs: [u128; NUM_VREGS],
    mregs: [[u128; MAX_VL]; NUM_MREGS],
    accs: [[i64; 8]; NUM_AREGS],
    vl: usize,
    mem: Vec<u8>,
}

impl RefMachine {
    /// Creates an oracle for extension `ext` with `mem_size` bytes of
    /// zeroed memory (same initial state as [`Machine::new`]).
    #[must_use]
    pub fn new(ext: Ext, mem_size: usize) -> Self {
        Self {
            ext,
            iregs: [0; NUM_IREGS],
            fregs: [0.0; NUM_FREGS],
            vregs: [0; NUM_VREGS],
            mregs: [[0; MAX_VL]; NUM_MREGS],
            accs: [[0; 8]; NUM_AREGS],
            vl: MAX_VL,
            mem: vec![0; mem_size],
        }
    }

    /// Clones the full architectural state of an emulator instance, so
    /// the oracle can replay a run from the same starting point (e.g. a
    /// built kernel's pre-initialised machine).
    #[must_use]
    pub fn from_machine(m: &Machine) -> Self {
        let mut s = Self::new(m.ext(), m.mem_size());
        for (i, r) in s.iregs.iter_mut().enumerate() {
            *r = m.ireg(i);
        }
        for (i, r) in s.fregs.iter_mut().enumerate() {
            *r = m.freg(i);
        }
        for (i, r) in s.vregs.iter_mut().enumerate() {
            *r = m.vreg(i);
        }
        for (i, rows) in s.mregs.iter_mut().enumerate() {
            for (r, row) in rows.iter_mut().enumerate() {
                *row = m.mrow(i, r);
            }
        }
        for (i, a) in s.accs.iter_mut().enumerate() {
            *a = m.acc(i);
        }
        s.vl = m.vl();
        s.mem
            .copy_from_slice(m.read_bytes(0, m.mem_size()).expect("full image"));
        s
    }

    /// The modelled extension.
    #[must_use]
    pub fn ext(&self) -> Ext {
        self.ext
    }

    /// SIMD register width in bytes (8 or 16).
    #[must_use]
    pub fn width(&self) -> usize {
        self.ext.width_bytes()
    }

    /// Current vector length.
    #[must_use]
    pub fn vl(&self) -> usize {
        self.vl
    }

    /// Memory image size in bytes.
    #[must_use]
    pub fn mem_size(&self) -> usize {
        self.mem.len()
    }

    /// Integer register `i`.
    #[must_use]
    pub fn ireg(&self, i: usize) -> i64 {
        self.iregs[i]
    }

    /// Floating-point register `i`.
    #[must_use]
    pub fn freg(&self, i: usize) -> f64 {
        self.fregs[i]
    }

    /// SIMD register `i`.
    #[must_use]
    pub fn vreg(&self, i: usize) -> u128 {
        self.vregs[i]
    }

    /// Row `row` of matrix register `m`.
    #[must_use]
    pub fn mrow(&self, m: usize, row: usize) -> u128 {
        self.mregs[m][row]
    }

    /// All lanes of accumulator `i`.
    #[must_use]
    pub fn acc(&self, i: usize) -> [i64; 8] {
        self.accs[i]
    }

    /// Reads `len` bytes at `addr` (setup/inspection helper; panics on
    /// out-of-bounds, which is a harness bug rather than a program fault).
    #[must_use]
    pub fn read_bytes(&self, addr: u64, len: usize) -> &[u8] {
        &self.mem[addr as usize..addr as usize + len]
    }

    /// Writes `data` at `addr` (setup helper; panics on out-of-bounds).
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        self.mem[addr as usize..addr as usize + data.len()].copy_from_slice(data);
    }

    /// Sets integer register `i` (setup helper).
    pub fn set_ireg(&mut self, i: usize, v: i64) {
        self.iregs[i] = v;
    }

    /// Sets floating-point register `i` (setup helper).
    pub fn set_freg(&mut self, i: usize, v: f64) {
        self.fregs[i] = v;
    }

    /// Runs `prog` from instruction 0 until `Halt`, falling off the end,
    /// a fault, or the `max_instrs` commit limit — mirroring
    /// [`Machine::run`]'s stop conditions and error values exactly.
    pub fn run(&mut self, prog: &Program, max_instrs: u64) -> RefRun {
        let mut out = RefRun::default();
        if let Err(e) = prog.validate(self.ext.is_matrix()) {
            out.error = Some(EmuError::Validation(e));
            return out;
        }
        let code = prog.code();
        let regions = prog.regions();
        let mut pc: u32 = 0;
        while (pc as usize) < code.len() {
            if out.dyn_instrs >= max_instrs {
                out.error = Some(EmuError::InstrLimit { limit: max_instrs });
                return out;
            }
            let instr = code[pc as usize];
            let mut taken: Option<u32> = None;
            let mut mem: Option<MemAccess> = None;
            let mut halted = false;
            if let Err(e) = self.step(
                instr,
                pc,
                &mut taken,
                &mut mem,
                &mut halted,
                &mut out.element_ops,
            ) {
                out.error = Some(e);
                return out;
            }
            out.effects.push(Effect {
                pc,
                taken,
                vl: if instr.is_full_vl() { self.vl as u8 } else { 1 },
                mem,
                write: self.sample_write(&instr),
            });
            out.dyn_instrs += 1;
            out.counts.add(instr.class(), 1);
            match regions[pc as usize] {
                Region::Scalar => out.scalar_region_instrs += 1,
                Region::Vector => out.vector_region_instrs += 1,
            }
            if halted {
                break;
            }
            pc = taken.unwrap_or(pc + 1);
        }
        out
    }

    /// Samples the register `instr` defines from post-instruction state
    /// (the oracle-side counterpart of [`crate::sample_write`]).
    fn sample_write(&self, instr: &Instr) -> Option<(RegId, RegVal)> {
        let du = instr.def_use();
        let reg = *du.defs().first()?;
        let val = match reg {
            RegId::I(i) => RegVal::I(self.iregs[i as usize]),
            RegId::F(i) => RegVal::F(self.fregs[i as usize].to_bits()),
            RegId::V(i) => RegVal::V(self.vregs[i as usize]),
            RegId::M(i) => RegVal::M(self.mregs[i as usize]),
            RegId::A(i) => RegVal::A(self.accs[i as usize]),
            RegId::Vl => RegVal::Vl(self.vl as u8),
        };
        Some((reg, val))
    }

    // ------------------------------------------------------------------
    // Memory (little-endian, bounds-checked)
    // ------------------------------------------------------------------

    fn check(&self, addr: u64, len: usize, pc: u32) -> Result<usize, EmuError> {
        addr.checked_add(len as u64)
            .filter(|e| *e <= self.mem.len() as u64)
            .map(|_| addr as usize)
            .ok_or(EmuError::OutOfBounds {
                addr,
                size: len as u64,
                pc,
            })
    }

    fn load_uint(&self, addr: u64, len: usize, pc: u32) -> Result<u64, EmuError> {
        let base = self.check(addr, len, pc)?;
        let mut v = 0u64;
        for i in 0..len {
            v |= u64::from(self.mem[base + i]) << (8 * i);
        }
        Ok(v)
    }

    fn store_uint(&mut self, addr: u64, len: usize, v: u64, pc: u32) -> Result<(), EmuError> {
        let base = self.check(addr, len, pc)?;
        for i in 0..len {
            self.mem[base + i] = (v >> (8 * i)) as u8;
        }
        Ok(())
    }

    fn load_word(&self, addr: u64, len: usize, pc: u32) -> Result<u128, EmuError> {
        let base = self.check(addr, len, pc)?;
        let mut v = 0u128;
        for i in 0..len {
            v |= u128::from(self.mem[base + i]) << (8 * i);
        }
        Ok(v)
    }

    fn store_word(&mut self, addr: u64, len: usize, v: u128, pc: u32) -> Result<(), EmuError> {
        let base = self.check(addr, len, pc)?;
        for i in 0..len {
            self.mem[base + i] = (v >> (8 * i)) as u8;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Operand helpers
    // ------------------------------------------------------------------

    fn op2(&self, b: Operand2) -> i64 {
        match b {
            Operand2::Reg(r) => self.iregs[r.index()],
            Operand2::Imm(i) => i64::from(i),
        }
    }

    fn read_vloc(&self, l: VLoc) -> u128 {
        match l {
            VLoc::V(v) => self.vregs[v.index()],
            VLoc::Row(m, r) => self.mregs[m.index()][r as usize],
        }
    }

    fn write_vloc(&mut self, l: VLoc, v: u128) {
        let masked = v & word_mask(self.width());
        match l {
            VLoc::V(reg) => self.vregs[reg.index()] = masked,
            VLoc::Row(m, r) => self.mregs[m.index()][r as usize] = masked,
        }
    }

    fn lanes(&self, e: Esz) -> usize {
        e.lanes(self.width() * 8)
    }

    /// Elements a vector-arithmetic instruction processes on one word,
    /// mirroring the emulator's `element_ops` accounting.
    fn simd_elems(&self, op: VOp) -> u64 {
        let width = self.width();
        match op {
            VOp::Add(e)
            | VOp::AddS(e)
            | VOp::AddU(e)
            | VOp::Sub(e)
            | VOp::SubS(e)
            | VOp::SubU(e)
            | VOp::Mullo(e)
            | VOp::Mulhi(e)
            | VOp::Avg(e)
            | VOp::MinS(e)
            | VOp::MinU(e)
            | VOp::MaxS(e)
            | VOp::MaxU(e)
            | VOp::CmpEq(e)
            | VOp::CmpGt(e)
            | VOp::PackS(e)
            | VOp::PackU(e)
            | VOp::UnpackLo(e)
            | VOp::UnpackHi(e) => self.lanes(e) as u64,
            VOp::Madd | VOp::Sad => width as u64,
            VOp::And | VOp::Or | VOp::Xor | VOp::AndNot => (width / 8) as u64,
        }
    }

    // ------------------------------------------------------------------
    // One instruction
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn step(
        &mut self,
        instr: Instr,
        pc: u32,
        taken: &mut Option<u32>,
        mem: &mut Option<MemAccess>,
        halted: &mut bool,
        element_ops: &mut u64,
    ) -> Result<(), EmuError> {
        let width = self.width();
        match instr {
            Instr::IntOp { op, rd, ra, b } => {
                let a = self.iregs[ra.index()];
                let bv = self.op2(b);
                self.iregs[rd.index()] = match op {
                    AluOp::Add => a.wrapping_add(bv),
                    AluOp::Sub => a.wrapping_sub(bv),
                    AluOp::Mul => a.wrapping_mul(bv),
                    AluOp::Div => {
                        if bv == 0 {
                            0
                        } else {
                            a.wrapping_div(bv)
                        }
                    }
                    AluOp::Rem => {
                        if bv == 0 {
                            a
                        } else {
                            a.wrapping_rem(bv)
                        }
                    }
                    AluOp::And => a & bv,
                    AluOp::Or => a | bv,
                    AluOp::Xor => a ^ bv,
                    AluOp::Sll => ((a as u64) << (bv as u64 & 63)) as i64,
                    AluOp::Srl => ((a as u64) >> (bv as u64 & 63)) as i64,
                    AluOp::Sra => a >> (bv as u64 & 63),
                    AluOp::Slt => i64::from(a < bv),
                    AluOp::Sltu => i64::from((a as u64) < (bv as u64)),
                    AluOp::Seq => i64::from(a == bv),
                };
            }
            Instr::Li { rd, imm } => self.iregs[rd.index()] = imm,
            Instr::Load {
                sz,
                sext,
                rd,
                base,
                off,
            } => {
                let addr = self.iregs[base.index()].wrapping_add(i64::from(off)) as u64;
                let raw = self.load_uint(addr, sz.bytes(), pc)?;
                self.iregs[rd.index()] = if sext {
                    let b = sz.bytes() * 8;
                    if b == 64 {
                        raw as i64
                    } else {
                        ((raw << (64 - b)) as i64) >> (64 - b)
                    }
                } else {
                    raw as i64
                };
                *mem = Some(MemAccess {
                    addr,
                    row_bytes: sz.bytes() as u16,
                    rows: 1,
                    stride: 0,
                    store: false,
                    vector_path: false,
                });
            }
            Instr::Store { sz, rs, base, off } => {
                let addr = self.iregs[base.index()].wrapping_add(i64::from(off)) as u64;
                self.store_uint(addr, sz.bytes(), self.iregs[rs.index()] as u64, pc)?;
                *mem = Some(MemAccess {
                    addr,
                    row_bytes: sz.bytes() as u16,
                    rows: 1,
                    stride: 0,
                    store: true,
                    vector_path: false,
                });
            }
            Instr::Branch {
                cond,
                ra,
                b,
                target,
            } => {
                if cond.eval(self.iregs[ra.index()], self.op2(b)) {
                    *taken = Some(target);
                }
            }
            Instr::Jump { target } => *taken = Some(target),
            Instr::Halt => *halted = true,
            Instr::Nop => {}
            Instr::FpOp { op, fd, fa, fb } => {
                use simdsim_isa::FOp;
                let a = self.fregs[fa.index()];
                let b = self.fregs[fb.index()];
                self.fregs[fd.index()] = match op {
                    FOp::Add => a + b,
                    FOp::Sub => a - b,
                    FOp::Mul => a * b,
                    FOp::Div => a / b,
                };
            }
            Instr::FpLoad { fd, base, off } => {
                let addr = self.iregs[base.index()].wrapping_add(i64::from(off)) as u64;
                let raw = self.load_uint(addr, 8, pc)?;
                self.fregs[fd.index()] = f64::from_bits(raw);
                *mem = Some(MemAccess {
                    addr,
                    row_bytes: 8,
                    rows: 1,
                    stride: 0,
                    store: false,
                    vector_path: false,
                });
            }
            Instr::FpStore { fs, base, off } => {
                let addr = self.iregs[base.index()].wrapping_add(i64::from(off)) as u64;
                self.store_uint(addr, 8, self.fregs[fs.index()].to_bits(), pc)?;
                *mem = Some(MemAccess {
                    addr,
                    row_bytes: 8,
                    rows: 1,
                    stride: 0,
                    store: true,
                    vector_path: false,
                });
            }
            Instr::CvtIF { fd, ra } => self.fregs[fd.index()] = self.iregs[ra.index()] as f64,
            Instr::CvtFI { rd, fa } => self.iregs[rd.index()] = self.fregs[fa.index()] as i64,
            Instr::Simd { op, dst, a, b } => {
                let r = vop(op, self.read_vloc(a), self.read_vloc(b), width);
                self.write_vloc(dst, r);
                *element_ops += self.simd_elems(op);
            }
            Instr::SimdShift {
                op,
                dst,
                src,
                amount,
            } => {
                let r = vshift(op, self.read_vloc(src), amount, width);
                self.write_vloc(dst, r);
                let e = match op {
                    VShiftOp::Sll(e) | VShiftOp::Srl(e) | VShiftOp::Sra(e) => e,
                };
                *element_ops += self.lanes(e) as u64;
            }
            Instr::VMov { dst, src } => {
                let v = self.read_vloc(src);
                self.write_vloc(dst, v);
            }
            Instr::VSplat { dst, src, esz } => {
                let v = splat(self.iregs[src.index()] as u64, esz, width);
                self.write_vloc(dst, v);
            }
            Instr::MovSV {
                rd,
                src,
                lane,
                esz,
                sext,
            } => {
                if lane as usize >= self.lanes(esz) {
                    return Err(EmuError::InvalidInstr {
                        pc,
                        reason: format!("lane {lane} out of range for {esz:?}"),
                    });
                }
                let w = self.read_vloc(src);
                self.iregs[rd.index()] = if sext {
                    lane_i(w, esz, lane as usize)
                } else {
                    lane_u(w, esz, lane as usize) as i64
                };
            }
            Instr::MovVS {
                dst,
                src,
                lane,
                esz,
            } => {
                if lane as usize >= self.lanes(esz) {
                    return Err(EmuError::InvalidInstr {
                        pc,
                        reason: format!("lane {lane} out of range for {esz:?}"),
                    });
                }
                let w = put_lane(
                    self.read_vloc(dst),
                    esz,
                    lane as usize,
                    self.iregs[src.index()] as u64,
                );
                self.write_vloc(dst, w);
            }
            Instr::VLoad {
                dst,
                base,
                off,
                bytes,
            } => {
                if bytes as usize > width || bytes == 0 {
                    return Err(EmuError::InvalidInstr {
                        pc,
                        reason: format!("vload of {bytes} bytes on {width}-byte machine"),
                    });
                }
                let addr = self.iregs[base.index()].wrapping_add(i64::from(off)) as u64;
                let v = self.load_word(addr, bytes as usize, pc)?;
                self.write_vloc(dst, v);
                *mem = Some(MemAccess {
                    addr,
                    row_bytes: u16::from(bytes),
                    rows: 1,
                    stride: 0,
                    store: false,
                    vector_path: matches!(dst, VLoc::Row(..)),
                });
            }
            Instr::VStore {
                src,
                base,
                off,
                bytes,
            } => {
                if bytes as usize > width || bytes == 0 {
                    return Err(EmuError::InvalidInstr {
                        pc,
                        reason: format!("vstore of {bytes} bytes on {width}-byte machine"),
                    });
                }
                let addr = self.iregs[base.index()].wrapping_add(i64::from(off)) as u64;
                self.store_word(addr, bytes as usize, self.read_vloc(src), pc)?;
                *mem = Some(MemAccess {
                    addr,
                    row_bytes: u16::from(bytes),
                    rows: 1,
                    stride: 0,
                    store: true,
                    vector_path: matches!(src, VLoc::Row(..)),
                });
            }
            Instr::SetVl { src } => {
                let v = self.op2(src);
                if v <= 0 {
                    return Err(EmuError::InvalidInstr {
                        pc,
                        reason: format!("setvl with non-positive length {v}"),
                    });
                }
                self.vl = (v as usize).min(MAX_VL);
            }
            Instr::MLoad {
                dst,
                base,
                stride,
                row_bytes,
            } => {
                if row_bytes as usize > width || row_bytes == 0 {
                    return Err(EmuError::InvalidInstr {
                        pc,
                        reason: format!("mload of {row_bytes} bytes/row on {width}-byte machine"),
                    });
                }
                let base_addr = self.iregs[base.index()] as u64;
                let stride_v = self.op2(stride);
                for r in 0..self.vl {
                    let addr =
                        (base_addr as i64).wrapping_add(stride_v.wrapping_mul(r as i64)) as u64;
                    // Partial rows persist on a fault, as in the emulator.
                    self.mregs[dst.index()][r] = self.load_word(addr, row_bytes as usize, pc)?;
                }
                *mem = Some(MemAccess {
                    addr: base_addr,
                    row_bytes: u16::from(row_bytes),
                    rows: self.vl as u16,
                    stride: stride_v,
                    store: false,
                    vector_path: true,
                });
            }
            Instr::MStore {
                src,
                base,
                stride,
                row_bytes,
            } => {
                if row_bytes as usize > width || row_bytes == 0 {
                    return Err(EmuError::InvalidInstr {
                        pc,
                        reason: format!("mstore of {row_bytes} bytes/row on {width}-byte machine"),
                    });
                }
                let base_addr = self.iregs[base.index()] as u64;
                let stride_v = self.op2(stride);
                for r in 0..self.vl {
                    let addr =
                        (base_addr as i64).wrapping_add(stride_v.wrapping_mul(r as i64)) as u64;
                    self.store_word(addr, row_bytes as usize, self.mregs[src.index()][r], pc)?;
                }
                *mem = Some(MemAccess {
                    addr: base_addr,
                    row_bytes: u16::from(row_bytes),
                    rows: self.vl as u16,
                    stride: stride_v,
                    store: true,
                    vector_path: true,
                });
            }
            Instr::MOp { op, dst, a, b } => {
                // Row-sequential so destination aliasing matches the
                // emulator (dst == a or dst == b(RowBcast) is defined).
                for r in 0..self.vl {
                    let av = self.mregs[a.index()][r];
                    let bv = match b {
                        MOperand::M(m) => self.mregs[m.index()][r],
                        MOperand::RowBcast(m, row) => self.mregs[m.index()][row as usize],
                    };
                    self.mregs[dst.index()][r] = vop(op, av, bv, width);
                }
                *element_ops += self.simd_elems(op) * self.vl as u64;
            }
            Instr::MShift {
                op,
                dst,
                src,
                amount,
            } => {
                for r in 0..self.vl {
                    self.mregs[dst.index()][r] =
                        vshift(op, self.mregs[src.index()][r], amount, width);
                }
                let e = match op {
                    VShiftOp::Sll(e) | VShiftOp::Srl(e) | VShiftOp::Sra(e) => e,
                };
                *element_ops += (self.lanes(e) * self.vl) as u64;
            }
            Instr::MSplat { dst, src, esz } => {
                let v = splat(self.iregs[src.index()] as u64, esz, width);
                for r in 0..self.vl {
                    self.mregs[dst.index()][r] = v;
                }
            }
            Instr::MMov { dst, src } => {
                for r in 0..self.vl {
                    self.mregs[dst.index()][r] = self.mregs[src.index()][r];
                }
            }
            Instr::MTranspose { dst, src, esz } => {
                let n = width / esz.bytes();
                if self.vl != n {
                    return Err(EmuError::InvalidInstr {
                        pc,
                        reason: format!(
                            "transpose requires square matrix: vl={} but {n} columns",
                            self.vl
                        ),
                    });
                }
                let rows = transpose(&self.mregs[src.index()], esz, width);
                self.mregs[dst.index()][..n].copy_from_slice(&rows[..n]);
                *element_ops += (n * n) as u64;
            }
            Instr::MAcc { op, acc, a, b } => {
                for r in 0..self.vl {
                    let av = self.mregs[a.index()][r];
                    let bv = self.mregs[b.index()][r];
                    accumulate(op, &mut self.accs[acc.index()], av, bv, width);
                }
                *element_ops += (width * self.vl) as u64;
            }
            Instr::VAcc { op, acc, a, b } => {
                let av = self.read_vloc(a);
                let bv = self.read_vloc(b);
                accumulate(op, &mut self.accs[acc.index()], av, bv, width);
                *element_ops += width as u64;
            }
            Instr::AccSum { rd, acc } => {
                let mut s = 0i64;
                for l in 0..width / 2 {
                    s = s.wrapping_add(self.accs[acc.index()][l]);
                }
                self.iregs[rd.index()] = s;
            }
            Instr::AccClear { acc } => self.accs[acc.index()] = [0; 8],
            Instr::AccPack {
                dst,
                acc,
                esz,
                sat,
                shift,
            } => {
                let out = acc_pack(&self.accs[acc.index()], esz, sat, shift, width);
                self.write_vloc(dst, out);
            }
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Per-lane sub-word oracles (independent of `simdsim_emu::subword`)
//
// `RefMachine::step` calls these for every SIMD and matrix instruction, and
// `tests/prop.rs` checks the emulator's SWAR and lane-array kernels
// against them op by op, so the architecture has one per-lane definition.
// Each takes the register width in bytes (8 or 16); only the low `width`
// bytes of a word take part.
// ----------------------------------------------------------------------

/// The low `width` bytes of a word.
fn word_mask(width: usize) -> u128 {
    if width == 16 {
        u128::MAX
    } else {
        (1u128 << (width * 8)) - 1
    }
}

/// Applies a binary [`VOp`] lane by lane to two `width`-byte words.
///
/// # Panics
///
/// Panics on `pack` with byte source elements (not representable).
#[must_use]
pub fn vop(op: VOp, a: u128, b: u128, width: usize) -> u128 {
    let r = match op {
        VOp::Add(e) => map2_u(a, b, e, width, |x, y| (x + y) as u64),
        VOp::AddS(e) => map2_i(a, b, e, width, |x, y| sat_s(x + y, e)),
        VOp::AddU(e) => map2_u(a, b, e, width, |x, y| sat_u(x + y, e)),
        VOp::Sub(e) => map2_u(a, b, e, width, |x, y| (x - y) as u64),
        VOp::SubS(e) => map2_i(a, b, e, width, |x, y| sat_s(x - y, e)),
        VOp::SubU(e) => map2_u(a, b, e, width, |x, y| sat_u(x - y, e)),
        VOp::Mullo(e) => map2_i(a, b, e, width, |x, y| (x * y) as u64),
        VOp::Mulhi(e) => map2_i(a, b, e, width, |x, y| ((x * y) >> e.bits()) as u64),
        VOp::Madd => madd(a, b, width),
        VOp::Sad => sad(a, b, width),
        VOp::Avg(e) => map2_u(a, b, e, width, |x, y| ((x + y + 1) >> 1) as u64),
        VOp::MinS(e) => map2_i(a, b, e, width, |x, y| x.min(y) as u64),
        VOp::MinU(e) => map2_u(a, b, e, width, |x, y| x.min(y) as u64),
        VOp::MaxS(e) => map2_i(a, b, e, width, |x, y| x.max(y) as u64),
        VOp::MaxU(e) => map2_u(a, b, e, width, |x, y| x.max(y) as u64),
        VOp::CmpEq(e) => map2_u(a, b, e, width, |x, y| if x == y { u64::MAX } else { 0 }),
        VOp::CmpGt(e) => map2_i(a, b, e, width, |x, y| if x > y { u64::MAX } else { 0 }),
        VOp::And => a & b,
        VOp::Or => a | b,
        VOp::Xor => a ^ b,
        VOp::AndNot => a & !b,
        VOp::PackS(e) => pack(a, b, e, width, false),
        VOp::PackU(e) => pack(a, b, e, width, true),
        VOp::UnpackLo(e) => unpack(a, b, e, width, false),
        VOp::UnpackHi(e) => unpack(a, b, e, width, true),
    };
    r & word_mask(width)
}

/// Maps `f` over the `e`-sized lane pairs of `a` and `b`, each lane
/// zero-extended (`map2_u`) or sign-extended (`map2_i`) to `i128`, so the
/// arithmetic is exact; the result is truncated to the lane.
fn map2_u(a: u128, b: u128, e: Esz, width: usize, f: impl Fn(i128, i128) -> u64) -> u128 {
    let mut out = 0u128;
    for l in 0..e.lanes(width * 8) {
        let (x, y) = (i128::from(lane_u(a, e, l)), i128::from(lane_u(b, e, l)));
        out = put_lane(out, e, l, f(x, y));
    }
    out
}

fn map2_i(a: u128, b: u128, e: Esz, width: usize, f: impl Fn(i128, i128) -> u64) -> u128 {
    let mut out = 0u128;
    for l in 0..e.lanes(width * 8) {
        let (x, y) = (i128::from(lane_i(a, e, l)), i128::from(lane_i(b, e, l)));
        out = put_lane(out, e, l, f(x, y));
    }
    out
}

/// `pmaddwd`: adjacent signed-16 products summed into 32-bit lanes.
fn madd(a: u128, b: u128, width: usize) -> u128 {
    let mut out = 0u128;
    for l in 0..width / 4 {
        let p0 = lane_i(a, Esz::H, 2 * l) * lane_i(b, Esz::H, 2 * l);
        let p1 = lane_i(a, Esz::H, 2 * l + 1) * lane_i(b, Esz::H, 2 * l + 1);
        // Products fit in i32, so wrapping i32 addition equals the
        // truncated true sum.
        let s = (p0 + p1) as i32;
        out = put_lane(out, Esz::W, l, u64::from(s as u32));
    }
    out
}

/// `psadbw`: one 64-bit sum of byte absolute differences per 8-byte group.
fn sad(a: u128, b: u128, width: usize) -> u128 {
    let mut out = 0u128;
    for g in 0..width / 8 {
        let mut sum = 0u64;
        for j in 0..8 {
            let x = lane_u(a, Esz::B, g * 8 + j);
            let y = lane_u(b, Esz::B, g * 8 + j);
            sum += x.abs_diff(y);
        }
        out |= u128::from(sum) << (g * 64);
    }
    out
}

/// Pack both sources' `e`-sized elements into half-size elements
/// with saturation: low lanes from `a`, high lanes from `b`.
fn pack(a: u128, b: u128, e: Esz, width: usize, unsigned: bool) -> u128 {
    let dst = match e {
        Esz::B => panic!("cannot pack byte elements"),
        Esz::H => Esz::B,
        Esz::W => Esz::H,
        Esz::D => Esz::W,
    };
    let n = e.lanes(width * 8);
    let sat = |v: i64| -> u64 {
        if unsigned {
            sat_u(i128::from(v), dst)
        } else {
            sat_s(i128::from(v), dst)
        }
    };
    let mut out = 0u128;
    for l in 0..n {
        out = put_lane(out, dst, l, sat(lane_i(a, e, l)));
        out = put_lane(out, dst, n + l, sat(lane_i(b, e, l)));
    }
    out
}

/// Interleave the low (or high) halves of `a` and `b`.
fn unpack(a: u128, b: u128, e: Esz, width: usize, hi: bool) -> u128 {
    let half = e.lanes(width * 8) / 2;
    let base = if hi { half } else { 0 };
    let mut out = 0u128;
    for l in 0..half {
        out = put_lane(out, e, 2 * l, lane_u(a, e, base + l));
        out = put_lane(out, e, 2 * l + 1, lane_u(b, e, base + l));
    }
    out
}

/// Applies an element-wise shift-by-immediate to a `width`-byte word.
/// Amounts at or past the lane width clear the lane (logical shifts) or
/// fill it with its sign (arithmetic shift).
#[must_use]
pub fn vshift(op: VShiftOp, a: u128, amount: u8, width: usize) -> u128 {
    let (e, kind) = match op {
        VShiftOp::Sll(e) => (e, 0u8),
        VShiftOp::Srl(e) => (e, 1),
        VShiftOp::Sra(e) => (e, 2),
    };
    let bits = e.bits() as u32;
    let amt = u32::from(amount).min(bits);
    let lane_mask = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let mut out = 0u128;
    for l in 0..e.lanes(width * 8) {
        let v = lane_u(a, e, l);
        let r = match kind {
            0 => {
                if amt >= bits {
                    0
                } else {
                    (v << amt) & lane_mask
                }
            }
            1 => {
                if amt >= bits {
                    0
                } else {
                    v >> amt
                }
            }
            _ => {
                let sh = amt.min(bits - 1);
                ((lane_i(a, e, l) >> sh) as u64) & lane_mask
            }
        };
        out = put_lane(out, e, l, r);
    }
    out & word_mask(width)
}

/// Broadcasts the low `e` bits of `v` to every lane of a `width`-byte word.
#[must_use]
pub fn splat(v: u64, e: Esz, width: usize) -> u128 {
    let mut out = 0u128;
    for l in 0..e.lanes(width * 8) {
        out = put_lane(out, e, l, v);
    }
    out
}

/// Adds one register pair into accumulator `acc` (`MAcc` per row,
/// `VAcc`): byte ops fold byte `j` into lane `j / 2`, halfword ops map
/// lane to lane.  Only the `width / 2` live lanes change; sums wrap.
pub fn accumulate(op: AccOp, acc: &mut [i64; 8], a: u128, b: u128, width: usize) {
    match op {
        AccOp::Sad => {
            for j in 0..width {
                let x = lane_u(a, Esz::B, j) as i64;
                let y = lane_u(b, Esz::B, j) as i64;
                acc[j / 2] = acc[j / 2].wrapping_add((x - y).abs());
            }
        }
        AccOp::Ssd => {
            for j in 0..width {
                let x = lane_u(a, Esz::B, j) as i64;
                let y = lane_u(b, Esz::B, j) as i64;
                acc[j / 2] = acc[j / 2].wrapping_add((x - y).wrapping_mul(x - y));
            }
        }
        AccOp::Mac => {
            for (j, s) in acc.iter_mut().enumerate().take(width / 2) {
                let p = lane_i(a, Esz::H, j).wrapping_mul(lane_i(b, Esz::H, j));
                *s = s.wrapping_add(p);
            }
        }
        AccOp::AddH => {
            for (j, s) in acc.iter_mut().enumerate().take(width / 2) {
                *s = s.wrapping_add(lane_i(a, Esz::H, j));
            }
        }
    }
}

/// Transposes the square `n × n` matrix of `esz` elements held in
/// `src[..n]`, where `n = width / esz.bytes()` (`MTranspose`).  Returns
/// the `n` transposed rows, zero beyond.
#[must_use]
pub fn transpose(src: &[u128], esz: Esz, width: usize) -> [u128; MAX_VL] {
    let n = width / esz.bytes();
    let mut rows = [0u128; MAX_VL];
    for (r, out_row) in rows.iter_mut().enumerate().take(n) {
        for (c, &col) in src[..n].iter().enumerate() {
            *out_row = put_lane(*out_row, esz, c, lane_u(col, esz, r));
        }
    }
    rows
}

/// Packs accumulator `acc` into a `width`-byte word (`AccPack`): each of
/// the first `min(width / 2, lanes of esz)` lanes is shifted right by
/// `shift` and narrowed to `esz` per `sat`; the rest of the word is zero.
#[must_use]
pub fn acc_pack(acc: &[i64; 8], esz: Esz, sat: Sat, shift: u8, width: usize) -> u128 {
    let lanes = (width / 2).min(esz.lanes(width * 8));
    let mut out = 0u128;
    for (l, &a) in acc.iter().enumerate().take(lanes) {
        let v = a >> u32::from(shift).min(63);
        let packed = match sat {
            Sat::Wrap => (v as u64) & (u64::MAX >> (64 - esz.bits())),
            Sat::Signed => sat_s(i128::from(v), esz),
            Sat::Unsigned => sat_u(i128::from(v), esz),
        };
        out = put_lane(out, esz, l, packed);
    }
    out
}

// ----------------------------------------------------------------------
// Lane access and saturation
// ----------------------------------------------------------------------

fn lane_u(word: u128, e: Esz, l: usize) -> u64 {
    let b = e.bits();
    ((word >> (l * b)) & ((1u128 << b) - 1)) as u64
}

fn lane_i(word: u128, e: Esz, l: usize) -> i64 {
    let b = e.bits();
    let v = lane_u(word, e, l);
    if b == 64 {
        v as i64
    } else {
        ((v << (64 - b)) as i64) >> (64 - b)
    }
}

fn put_lane(word: u128, e: Esz, l: usize, v: u64) -> u128 {
    let b = e.bits();
    let mask = if b == 64 {
        u128::from(u64::MAX)
    } else {
        (1u128 << b) - 1
    };
    let cleared = word & !(mask << (l * b));
    cleared | ((u128::from(v) & mask) << (l * b))
}

/// Signed saturation of a mathematically-exact value to `e` bits.
fn sat_s(v: i128, e: Esz) -> u64 {
    let b = e.bits();
    let hi = (1i128 << (b - 1)) - 1;
    let lo = -(1i128 << (b - 1));
    let c = v.clamp(lo, hi) as i64 as u64;
    if b == 64 {
        c
    } else {
        c & ((1u64 << b) - 1)
    }
}

/// Unsigned saturation; 64-bit lanes clip at `i64::MAX` to match the
/// emulator's accumulator-oriented model.
fn sat_u(v: i128, e: Esz) -> u64 {
    let hi = match e {
        Esz::B => i128::from(u8::MAX),
        Esz::H => i128::from(u16::MAX),
        Esz::W => i128::from(u32::MAX),
        Esz::D => i128::from(i64::MAX),
    };
    v.clamp(0, hi) as u64
}
