//! The architectural machine state and instruction semantics.

use crate::subword;
use crate::trace::{DynInstr, MemAccess, TraceSink};
use crate::EmuError;
use simdsim_isa::{
    AluOp, ClassCounts, Decoded, DecodedInstr, Ext, FOp, Instr, MOperand, MemSz, Operand2, Program,
    Region, VLoc, MAX_VL,
};

/// Architectural statistics of one emulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total dynamic instructions committed.
    pub dyn_instrs: u64,
    /// Dynamic instruction counts per Figure-7 class.
    pub counts: ClassCounts,
    /// Dynamic instructions tagged [`Region::Scalar`].
    pub scalar_region_instrs: u64,
    /// Dynamic instructions tagged [`Region::Vector`].
    pub vector_region_instrs: u64,
    /// Total sub-word element operations performed by vector-arithmetic
    /// instructions (a measure of exploited DLP).
    pub element_ops: u64,
}

/// Per-committed-instruction observer for conformance checking.
///
/// A [`TraceSink`] sees only the dynamic record of each instruction.  An
/// observer is called just before the sink, with the machine itself,
/// while it still holds the state that instruction produced.  The
/// differential tester (`simdsim-conform`) samples the registers an
/// instruction defines here and compares them against the reference
/// interpreter's effects trace.
///
/// The default entry points use [`NoObserver`], which monomorphizes the
/// hot loop back to the unobserved code, so timing-model callers pay
/// nothing for this seam.
pub trait StepObserver {
    /// Called after `di` committed; `m` holds post-instruction state.
    fn step(&mut self, m: &Machine, di: &DynInstr);
}

/// The no-op observer used by [`Machine::run`] / [`Machine::run_decoded`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl StepObserver for NoObserver {
    #[inline(always)]
    fn step(&mut self, _m: &Machine, _di: &DynInstr) {}
}

/// A functional emulator instance: registers, accumulators and a flat
/// little-endian memory image.
///
/// # Example
///
/// ```
/// use simdsim_emu::Machine;
/// use simdsim_isa::Ext;
///
/// let mut m = Machine::new(Ext::Vmmx128, 4096);
/// m.write_bytes(0, &[1, 2, 3, 4]).unwrap();
/// assert_eq!(m.read_bytes(0, 4).unwrap(), &[1, 2, 3, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    ext: Ext,
    /// `ext.width_bytes()`, cached: every vector op reads it.
    width: usize,
    iregs: [i64; simdsim_isa::NUM_IREGS],
    fregs: [f64; simdsim_isa::NUM_FREGS],
    vregs: [u128; simdsim_isa::NUM_VREGS],
    mregs: [[u128; MAX_VL]; simdsim_isa::NUM_MREGS],
    accs: [[i64; 8]; simdsim_isa::NUM_AREGS],
    vl: usize,
    mem: Vec<u8>,
}

impl Machine {
    /// Creates a machine for extension `ext` with `mem_size` bytes of
    /// zeroed memory.
    #[must_use]
    pub fn new(ext: Ext, mem_size: usize) -> Self {
        Self {
            ext,
            width: ext.width_bytes(),
            iregs: [0; simdsim_isa::NUM_IREGS],
            fregs: [0.0; simdsim_isa::NUM_FREGS],
            vregs: [0; simdsim_isa::NUM_VREGS],
            mregs: [[0; MAX_VL]; simdsim_isa::NUM_MREGS],
            accs: [[0; 8]; simdsim_isa::NUM_AREGS],
            vl: MAX_VL,
            mem: vec![0; mem_size],
        }
    }

    /// The modelled extension.
    #[must_use]
    pub fn ext(&self) -> Ext {
        self.ext
    }

    /// Resets this machine to the architectural state of `src` without
    /// reallocating the memory image once its buffer has grown to fit
    /// `src`'s (images differ in size from workload to workload).  After
    /// the call the two machines are indistinguishable, so a worker can
    /// replay one pristine reference machine across many cells instead of
    /// cloning a machine per cell.
    pub fn reset_from(&mut self, src: &Machine) {
        self.reset_from_parts(src, &src.mem);
    }

    /// [`Machine::reset_from`] with the state split in two: the registers
    /// (extension, register files, accumulators, vector length) come from
    /// `regs`, whose own image is ignored, and the memory image is
    /// `image`.  This lets one copy of a memory image
    /// ([`Machine::image`]) restore every pristine machine that was
    /// built with identical bytes, and an empty `image` turns a copy of a
    /// machine into a register-only snapshot.
    pub fn reset_from_parts(&mut self, regs: &Machine, image: &[u8]) {
        self.ext = regs.ext;
        self.width = regs.width;
        self.iregs = regs.iregs;
        self.fregs = regs.fregs;
        self.vregs = regs.vregs;
        self.mregs = regs.mregs;
        self.accs = regs.accs;
        self.vl = regs.vl;
        if self.mem.len() == image.len() {
            self.mem.copy_from_slice(image);
        } else {
            self.mem.clear();
            self.mem.extend_from_slice(image);
        }
    }

    /// SIMD register width in bytes (8 or 16).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Current vector length.
    #[must_use]
    pub fn vl(&self) -> usize {
        self.vl
    }

    // ------------------------------------------------------------------
    // Register access (for argument passing and result inspection)
    // ------------------------------------------------------------------

    /// Reads integer register `i`.
    #[must_use]
    pub fn ireg(&self, i: usize) -> i64 {
        self.iregs[i]
    }
    /// Writes integer register `i`.
    pub fn set_ireg(&mut self, i: usize, v: i64) {
        self.iregs[i] = v;
    }
    /// Reads SIMD register `i`.
    #[must_use]
    pub fn vreg(&self, i: usize) -> u128 {
        self.vregs[i]
    }
    /// Reads row `row` of matrix register `m`.
    #[must_use]
    pub fn mrow(&self, m: usize, row: usize) -> u128 {
        self.mregs[m][row]
    }
    /// Reads floating-point register `i`.
    #[must_use]
    pub fn freg(&self, i: usize) -> f64 {
        self.fregs[i]
    }
    /// Writes floating-point register `i`.
    pub fn set_freg(&mut self, i: usize, v: f64) {
        self.fregs[i] = v;
    }
    /// Reads the lane array of accumulator `i`.
    #[must_use]
    pub fn acc(&self, i: usize) -> [i64; 8] {
        self.accs[i]
    }

    // ------------------------------------------------------------------
    // Memory access
    // ------------------------------------------------------------------

    /// Memory image size in bytes.
    #[must_use]
    pub fn mem_size(&self) -> usize {
        self.mem.len()
    }

    /// The whole memory image.
    #[must_use]
    pub fn image(&self) -> &[u8] {
        &self.mem
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// [`EmuError::OutOfBounds`] when the range exceeds the image.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<&[u8], EmuError> {
        let end = addr
            .checked_add(len as u64)
            .filter(|e| *e <= self.mem.len() as u64)
            .ok_or(EmuError::OutOfBounds {
                addr,
                size: len as u64,
                pc: u32::MAX,
            })?;
        Ok(&self.mem[addr as usize..end as usize])
    }

    /// Writes `data` at `addr`.
    ///
    /// # Errors
    ///
    /// [`EmuError::OutOfBounds`] when the range exceeds the image.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), EmuError> {
        let end = addr
            .checked_add(data.len() as u64)
            .filter(|e| *e <= self.mem.len() as u64)
            .ok_or(EmuError::OutOfBounds {
                addr,
                size: data.len() as u64,
                pc: u32::MAX,
            })?;
        self.mem[addr as usize..end as usize].copy_from_slice(data);
        Ok(())
    }

    /// Writes a slice of `i16` values (little-endian) at `addr`.
    ///
    /// # Errors
    ///
    /// [`EmuError::OutOfBounds`] when the range exceeds the image.
    pub fn write_i16s(&mut self, addr: u64, data: &[i16]) -> Result<(), EmuError> {
        for (k, v) in data.iter().enumerate() {
            self.write_bytes(addr + 2 * k as u64, &v.to_le_bytes())?;
        }
        Ok(())
    }

    /// Reads a slice of `i16` values at `addr`.
    ///
    /// # Errors
    ///
    /// [`EmuError::OutOfBounds`] when the range exceeds the image.
    pub fn read_i16s(&self, addr: u64, n: usize) -> Result<Vec<i16>, EmuError> {
        let b = self.read_bytes(addr, n * 2)?;
        Ok(b.chunks_exact(2)
            .map(|c| i16::from_le_bytes([c[0], c[1]]))
            .collect())
    }

    /// Writes a slice of `i32` values at `addr`.
    ///
    /// # Errors
    ///
    /// [`EmuError::OutOfBounds`] when the range exceeds the image.
    pub fn write_i32s(&mut self, addr: u64, data: &[i32]) -> Result<(), EmuError> {
        for (k, v) in data.iter().enumerate() {
            self.write_bytes(addr + 4 * k as u64, &v.to_le_bytes())?;
        }
        Ok(())
    }

    /// Reads a slice of `i32` values at `addr`.
    ///
    /// # Errors
    ///
    /// [`EmuError::OutOfBounds`] when the range exceeds the image.
    pub fn read_i32s(&self, addr: u64, n: usize) -> Result<Vec<i32>, EmuError> {
        let b = self.read_bytes(addr, n * 4)?;
        Ok(b.chunks_exact(4)
            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Loads the `len <= 8` bytes at `addr` as a zero-extended
    /// little-endian value, copied whole from the bounds-checked slice.
    fn load_uint(&self, addr: u64, len: usize, pc: u32) -> Result<u64, EmuError> {
        let b = self
            .read_bytes(addr, len)
            .map_err(|_| EmuError::OutOfBounds {
                addr,
                size: len as u64,
                pc,
            })?;
        let mut buf = [0u8; 8];
        buf[..len].copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    fn store_uint(&mut self, addr: u64, len: usize, v: u64, pc: u32) -> Result<(), EmuError> {
        let bytes = v.to_le_bytes();
        self.write_bytes(addr, &bytes[..len])
            .map_err(|_| EmuError::OutOfBounds {
                addr,
                size: len as u64,
                pc,
            })
    }

    /// [`Machine::load_uint`] for the `len <= 16` bytes of a SIMD row.
    fn load_word(&self, addr: u64, len: usize, pc: u32) -> Result<u128, EmuError> {
        let b = self
            .read_bytes(addr, len)
            .map_err(|_| EmuError::OutOfBounds {
                addr,
                size: len as u64,
                pc,
            })?;
        let mut buf = [0u8; 16];
        buf[..len].copy_from_slice(b);
        Ok(u128::from_le_bytes(buf))
    }

    fn store_word(&mut self, addr: u64, len: usize, v: u128, pc: u32) -> Result<(), EmuError> {
        let bytes = v.to_le_bytes();
        self.write_bytes(addr, &bytes[..len])
            .map_err(|_| EmuError::OutOfBounds {
                addr,
                size: len as u64,
                pc,
            })
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
        let mask: u128 = if self.width() == 16 {
            u128::MAX
        } else {
            (1u128 << 64) - 1
        };
        match l {
            VLoc::V(reg) => self.vregs[reg.index()] = v & mask,
            VLoc::Row(m, r) => self.mregs[m.index()][r as usize] = v & mask,
        }
    }

    fn acc_lanes(&self) -> usize {
        self.width() / 2
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Runs `prog` from instruction 0 until `Halt` (or falling off the end),
    /// streaming every committed instruction into `sink`.
    ///
    /// Predecodes the program first; callers that already hold a
    /// [`Decoded`] table (the timing model, repeated runs of one program)
    /// should call [`Machine::run_decoded`] directly.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError`] on validation failure, illegal instructions,
    /// out-of-bounds accesses, or when `max_instrs` is exceeded.
    pub fn run(
        &mut self,
        prog: &Program,
        sink: &mut impl TraceSink,
        max_instrs: u64,
    ) -> Result<RunStats, EmuError> {
        self.run_decoded(&prog.decode(), sink, max_instrs)
    }

    /// Runs a predecoded program from instruction 0 until `Halt` (or
    /// falling off the end), streaming every committed instruction into
    /// `sink` together with its predecoded metadata.
    ///
    /// This is the hot loop: one indexed fetch per dynamic instruction
    /// yields the instruction, its region tag and every static fact the
    /// sink needs, with no per-instruction allocation or recomputation.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError`] on validation failure, illegal instructions,
    /// out-of-bounds accesses, or when `max_instrs` is exceeded.
    pub fn run_decoded(
        &mut self,
        dec: &Decoded,
        sink: &mut impl TraceSink,
        max_instrs: u64,
    ) -> Result<RunStats, EmuError> {
        self.run_decoded_observed(dec, sink, max_instrs, &mut NoObserver)
    }

    /// [`Machine::run_decoded`] with a per-step [`StepObserver`] for
    /// conformance checking.  This is the one step loop: fetch the
    /// predecoded entry at `pc`, execute it, let the observer sample the
    /// post-instruction state, push the record to `sink` and account it.
    /// The trace streamed to `sink` is identical to the unobserved run.
    ///
    /// On an error the sink has already received every instruction that
    /// committed before it (exactly `max_instrs` of them for
    /// [`EmuError::InstrLimit`]); the statistics are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError`] on validation failure, illegal instructions,
    /// out-of-bounds accesses, or when `max_instrs` is exceeded.
    pub fn run_decoded_observed(
        &mut self,
        dec: &Decoded,
        sink: &mut impl TraceSink,
        max_instrs: u64,
        obs: &mut impl StepObserver,
    ) -> Result<RunStats, EmuError> {
        dec.validate(self.ext.is_matrix())
            .map_err(EmuError::Validation)?;
        let table = dec.instrs();
        let mut stats = RunStats::default();
        let mut pc: u32 = 0;
        while let Some(d) = table.get(pc as usize) {
            if stats.dyn_instrs >= max_instrs {
                return Err(EmuError::InstrLimit { limit: max_instrs });
            }
            let mut taken: Option<u32> = None;
            let mut mem: Option<MemAccess> = None;
            let mut halted = false;
            self.execute(d.instr, pc, &mut taken, &mut mem, &mut halted, &mut stats)?;
            let di = DynInstr {
                pc,
                instr: d.instr,
                region: d.region,
                taken,
                mem,
                vl: if d.is_full_vl { self.vl as u8 } else { 1 },
            };
            obs.step(self, &di);
            sink.push(&di, d);
            Self::account(&mut stats, d);
            if halted {
                break;
            }
            pc = taken.unwrap_or(pc + 1);
        }
        Ok(stats)
    }

    /// Counts one committed instruction into `stats`: the dynamic total,
    /// its Figure-7 class and its region.
    #[inline]
    fn account(stats: &mut RunStats, d: &DecodedInstr) {
        stats.dyn_instrs += 1;
        stats.counts.add(d.class, 1);
        match d.region {
            Region::Scalar => stats.scalar_region_instrs += 1,
            Region::Vector => stats.vector_region_instrs += 1,
        }
    }

    #[allow(clippy::too_many_lines)]
    fn execute(
        &mut self,
        instr: Instr,
        pc: u32,
        taken: &mut Option<u32>,
        mem: &mut Option<MemAccess>,
        halted: &mut bool,
        stats: &mut RunStats,
    ) -> Result<(), EmuError> {
        let width = self.width();
        match instr {
            Instr::IntOp { op, rd, ra, b } => {
                let a = self.iregs[ra.index()];
                let b = self.op2(b);
                let r = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Mul => a.wrapping_mul(b),
                    AluOp::Div => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                    AluOp::Rem => {
                        if b == 0 {
                            a
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                    AluOp::And => a & b,
                    AluOp::Or => a | b,
                    AluOp::Xor => a ^ b,
                    AluOp::Sll => ((a as u64) << (b as u64 & 63)) as i64,
                    AluOp::Srl => ((a as u64) >> (b as u64 & 63)) as i64,
                    AluOp::Sra => a >> (b as u64 & 63),
                    AluOp::Slt => i64::from(a < b),
                    AluOp::Sltu => i64::from((a as u64) < (b as u64)),
                    AluOp::Seq => i64::from(a == b),
                };
                self.iregs[rd.index()] = r;
            }
            Instr::Li { rd, imm } => self.iregs[rd.index()] = imm,
            Instr::Load {
                sz,
                sext,
                rd,
                base,
                off,
            } => {
                let addr = (self.iregs[base.index()].wrapping_add(i64::from(off))) as u64;
                let raw = self.load_uint(addr, sz.bytes(), pc)?;
                let v = if sext {
                    match sz {
                        MemSz::B => raw as u8 as i8 as i64,
                        MemSz::H => raw as u16 as i16 as i64,
                        MemSz::W => raw as u32 as i32 as i64,
                        MemSz::D => raw as i64,
                    }
                } else {
                    raw as i64
                };
                self.iregs[rd.index()] = v;
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
                let addr = (self.iregs[base.index()].wrapping_add(i64::from(off))) as u64;
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
                let a = self.iregs[ra.index()];
                let bv = self.op2(b);
                if cond.eval(a, bv) {
                    *taken = Some(target);
                }
            }
            Instr::Jump { target } => *taken = Some(target),
            Instr::Halt => *halted = true,
            Instr::Nop => {}
            Instr::FpOp { op, fd, fa, fb } => {
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
                let addr = (self.iregs[base.index()].wrapping_add(i64::from(off))) as u64;
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
                let addr = (self.iregs[base.index()].wrapping_add(i64::from(off))) as u64;
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

            // ----------------------------------------------------------
            // 1-word SIMD
            // ----------------------------------------------------------
            Instr::Simd { op, dst, a, b } => {
                let av = self.read_vloc(a);
                let bv = self.read_vloc(b);
                self.write_vloc(dst, subword::apply_vop(op, av, bv, width));
                stats.element_ops += self.simd_elems(op) as u64;
            }
            Instr::SimdShift {
                op,
                dst,
                src,
                amount,
            } => {
                let v = self.read_vloc(src);
                self.write_vloc(dst, subword::apply_shift(op, v, amount, width));
                let esz = match op {
                    simdsim_isa::VShiftOp::Sll(e)
                    | simdsim_isa::VShiftOp::Srl(e)
                    | simdsim_isa::VShiftOp::Sra(e) => e,
                };
                stats.element_ops += esz.lanes(width * 8) as u64;
            }
            Instr::VMov { dst, src } => {
                let v = self.read_vloc(src);
                self.write_vloc(dst, v);
            }
            Instr::VSplat { dst, src, esz } => {
                let v = subword::splat(self.iregs[src.index()] as u64, esz, width);
                self.write_vloc(dst, v);
            }
            Instr::MovSV {
                rd,
                src,
                lane,
                esz,
                sext,
            } => {
                let n = esz.lanes(width * 8);
                if lane as usize >= n {
                    return Err(EmuError::InvalidInstr {
                        pc,
                        reason: format!("lane {lane} out of range for {esz:?}"),
                    });
                }
                let v = self.read_vloc(src);
                self.iregs[rd.index()] = if sext {
                    subword::get_lane_i(v, esz, lane as usize)
                } else {
                    subword::get_lane_u(v, esz, lane as usize) as i64
                };
            }
            Instr::MovVS {
                dst,
                src,
                lane,
                esz,
            } => {
                let n = esz.lanes(width * 8);
                if lane as usize >= n {
                    return Err(EmuError::InvalidInstr {
                        pc,
                        reason: format!("lane {lane} out of range for {esz:?}"),
                    });
                }
                let old = self.read_vloc(dst);
                let v = subword::set_lane(old, esz, lane as usize, self.iregs[src.index()] as u64);
                self.write_vloc(dst, v);
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
                let addr = (self.iregs[base.index()].wrapping_add(i64::from(off))) as u64;
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
                let addr = (self.iregs[base.index()].wrapping_add(i64::from(off))) as u64;
                let v = self.read_vloc(src);
                self.store_word(addr, bytes as usize, v, pc)?;
                *mem = Some(MemAccess {
                    addr,
                    row_bytes: u16::from(bytes),
                    rows: 1,
                    stride: 0,
                    store: true,
                    vector_path: matches!(src, VLoc::Row(..)),
                });
            }

            // ----------------------------------------------------------
            // Matrix extension
            // ----------------------------------------------------------
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
                    let addr = (base_addr as i64).wrapping_add(stride_v * r as i64) as u64;
                    let v = self.load_word(addr, row_bytes as usize, pc)?;
                    self.mregs[dst.index()][r] = v;
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
                    let addr = (base_addr as i64).wrapping_add(stride_v * r as i64) as u64;
                    let v = self.mregs[src.index()][r];
                    self.store_word(addr, row_bytes as usize, v, pc)?;
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
                for r in 0..self.vl {
                    let av = self.mregs[a.index()][r];
                    let bv = match b {
                        MOperand::M(m) => self.mregs[m.index()][r],
                        MOperand::RowBcast(m, row) => self.mregs[m.index()][row as usize],
                    };
                    self.mregs[dst.index()][r] = subword::apply_vop(op, av, bv, width);
                }
                stats.element_ops += (self.simd_elems(op) * self.vl) as u64;
            }
            Instr::MShift {
                op,
                dst,
                src,
                amount,
            } => {
                for r in 0..self.vl {
                    let v = self.mregs[src.index()][r];
                    self.mregs[dst.index()][r] = subword::apply_shift(op, v, amount, width);
                }
                let esz = match op {
                    simdsim_isa::VShiftOp::Sll(e)
                    | simdsim_isa::VShiftOp::Srl(e)
                    | simdsim_isa::VShiftOp::Sra(e) => e,
                };
                stats.element_ops += (esz.lanes(width * 8) * self.vl) as u64;
            }
            Instr::MSplat { dst, src, esz } => {
                let v = subword::splat(self.iregs[src.index()] as u64, esz, width);
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
                let rows = subword::transpose(&self.mregs[src.index()][..n], esz);
                self.mregs[dst.index()][..n].copy_from_slice(&rows[..n]);
                stats.element_ops += (n * n) as u64;
            }
            Instr::MAcc { op, acc, a, b } => {
                let accs = &mut self.accs[acc.index()];
                for r in 0..self.vl {
                    let (av, bv) = (self.mregs[a.index()][r], self.mregs[b.index()][r]);
                    subword::accumulate(op, accs, av, bv, width);
                }
                stats.element_ops += (width * self.vl) as u64;
            }
            Instr::VAcc { op, acc, a, b } => {
                let av = self.read_vloc(a);
                let bv = self.read_vloc(b);
                subword::accumulate(op, &mut self.accs[acc.index()], av, bv, width);
                stats.element_ops += width as u64;
            }
            Instr::AccSum { rd, acc } => {
                let lanes = self.acc_lanes();
                let s: i64 = self.accs[acc.index()][..lanes]
                    .iter()
                    .fold(0i64, |x, y| x.wrapping_add(*y));
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
                let out = subword::acc_pack(&self.accs[acc.index()], esz, sat, shift, width);
                self.write_vloc(dst, out);
            }
        }
        Ok(())
    }

    fn simd_elems(&self, op: simdsim_isa::VOp) -> usize {
        use simdsim_isa::VOp;
        let width_bits = self.width() * 8;
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
            | VOp::UnpackHi(e) => e.lanes(width_bits),
            VOp::Madd | VOp::Sad => self.width(),
            VOp::And | VOp::Or | VOp::Xor | VOp::AndNot => self.width() / 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IMAGE: usize = 256;
    const PC: u32 = 77;

    /// Little-endian value of `len` bytes at `addr`, one byte at a time.
    fn ref_load(mem: &[u8], addr: usize, len: usize) -> u128 {
        (0..len).fold(0, |v, i| v | u128::from(mem[addr + i]) << (8 * i))
    }

    /// Writes the low `len` bytes of `v` at `addr`, one byte at a time.
    fn ref_store(mem: &mut [u8], addr: usize, len: usize, v: u128) {
        for i in 0..len {
            mem[addr + i] = (v >> (8 * i)) as u8;
        }
    }

    /// A machine whose image holds a seeded byte pattern, and a copy of it.
    fn patterned() -> (Machine, Vec<u8>) {
        let mut m = Machine::new(Ext::Vmmx128, IMAGE);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let image: Vec<u8> = (0..IMAGE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        m.write_bytes(0, &image).unwrap();
        (m, image)
    }

    fn out_of_bounds(addr: usize, len: usize) -> EmuError {
        EmuError::OutOfBounds {
            addr: addr as u64,
            size: len as u64,
            pc: PC,
        }
    }

    #[test]
    fn scalar_accesses_match_a_byte_by_byte_reference() {
        let (mut m, mut image) = patterned();
        for len in [1, 2, 4, 8] {
            for addr in 0..=IMAGE - len {
                let got = m.load_uint(addr as u64, len, PC).unwrap();
                assert_eq!(u128::from(got), ref_load(&image, addr, len), "{len}@{addr}");
                let v = got.rotate_left(29) ^ addr as u64;
                m.store_uint(addr as u64, len, v, PC).unwrap();
                ref_store(&mut image, addr, len, u128::from(v));
                assert_eq!(m.mem, image, "store {len}@{addr}");
            }
            let past = IMAGE - len + 1;
            assert_eq!(
                m.load_uint(past as u64, len, PC),
                Err(out_of_bounds(past, len))
            );
            assert_eq!(
                m.store_uint(past as u64, len, 0, PC),
                Err(out_of_bounds(past, len))
            );
            assert_eq!(m.mem, image, "a refused store writes nothing");
        }
    }

    #[test]
    fn vector_accesses_match_a_byte_by_byte_reference() {
        let (mut m, mut image) = patterned();
        for len in 1..=16 {
            for addr in 0..=IMAGE - len {
                let got = m.load_word(addr as u64, len, PC).unwrap();
                assert_eq!(got, ref_load(&image, addr, len), "{len}@{addr}");
                let v = got.rotate_left(61) ^ addr as u128;
                m.store_word(addr as u64, len, v, PC).unwrap();
                ref_store(&mut image, addr, len, v);
                assert_eq!(m.mem, image, "store {len}@{addr}");
            }
            let past = IMAGE - len + 1;
            assert_eq!(
                m.load_word(past as u64, len, PC),
                Err(out_of_bounds(past, len))
            );
            assert_eq!(
                m.store_word(past as u64, len, 0, PC),
                Err(out_of_bounds(past, len))
            );
            assert_eq!(m.mem, image, "a refused store writes nothing");
        }
    }

    #[test]
    fn reset_carries_the_simd_width() {
        let mut m = Machine::new(Ext::Mmx64, 64);
        assert_eq!(m.width(), 8);
        m.reset_from(&Machine::new(Ext::Vmmx128, 128));
        assert_eq!((m.ext(), m.width(), m.mem_size()), (Ext::Vmmx128, 16, 128));
    }

    #[test]
    fn a_split_snapshot_restores_registers_and_image() {
        let (mut built, image) = patterned();
        built.set_ireg(3, -7);
        built.set_freg(1, 2.5);
        assert_eq!(built.image(), image);
        let mut pristine = Machine::new(Ext::Mmx64, 16);
        pristine.reset_from_parts(&built, &[]);
        assert_eq!((pristine.ireg(3), pristine.mem_size()), (-7, 0));

        let mut m = Machine::new(Ext::Mmx64, 16);
        m.set_ireg(3, 99);
        m.reset_from_parts(&pristine, &image);
        assert_eq!((m.ireg(3), m.freg(1), m.ext()), (-7, 2.5, built.ext()));
        assert_eq!(m.mem, image);
        // A dirtied machine of the same image size is restored in full.
        m.store_uint(0, 8, u64::MAX, PC).unwrap();
        m.set_ireg(3, 1);
        m.reset_from_parts(&pristine, &image);
        assert_eq!((m.ireg(3), &m.mem), (-7, &image));
    }
}
