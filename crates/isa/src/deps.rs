//! Register def/use extraction, used by the out-of-order timing model for
//! dependency tracking and renaming.

use crate::{Instr, MOperand, Operand2, VLoc};
use serde::{Deserialize, Serialize};

/// An architectural register name, across all register files.
///
/// The vector-length register [`RegId::Vl`] is modelled as an ordinary
/// renamed register so that `setvl` serialises against in-flight matrix
/// operations exactly like a real implementation's VL checkpointing would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegId {
    /// Scalar integer register.
    I(u8),
    /// Scalar floating-point register.
    F(u8),
    /// 1-dimensional SIMD register.
    V(u8),
    /// Matrix register.
    M(u8),
    /// Packed accumulator.
    A(u8),
    /// The vector-length control register.
    Vl,
}

/// Rename-class index of the scalar integer physical file.
pub const RENAME_INT: usize = 0;
/// Rename-class index of the scalar floating-point physical file.
pub const RENAME_FP: usize = 1;
/// Rename-class index of the shared SIMD/matrix physical file.
pub const RENAME_SIMD: usize = 2;
/// Number of rename classes.
pub const NUM_RENAME_CLASSES: usize = 3;

impl RegId {
    /// `true` for registers renamed out of the SIMD/matrix physical file
    /// (the resource the paper's Table I sizes).
    #[must_use]
    pub const fn is_simd_file(self) -> bool {
        matches!(self, RegId::V(_) | RegId::M(_))
    }

    /// The physical register file this register is renamed out of
    /// ([`RENAME_INT`], [`RENAME_FP`] or [`RENAME_SIMD`]), or `None` for
    /// the small dedicated files (accumulators, VL) that never stall
    /// rename.
    #[must_use]
    pub const fn rename_class(self) -> Option<usize> {
        match self {
            RegId::I(_) => Some(RENAME_INT),
            RegId::F(_) => Some(RENAME_FP),
            RegId::V(_) | RegId::M(_) => Some(RENAME_SIMD),
            RegId::A(_) | RegId::Vl => None,
        }
    }
}

/// Base of the scalar integer file in the flat scoreboard index space.
const FLAT_I: u16 = 0;
/// Base of the scalar floating-point file.
const FLAT_F: u16 = FLAT_I + crate::NUM_IREGS as u16;
/// Base of the 1-D SIMD file.
const FLAT_V: u16 = FLAT_F + crate::NUM_FREGS as u16;
/// Base of the matrix file.
const FLAT_M: u16 = FLAT_V + crate::NUM_VREGS as u16;
/// Base of the packed-accumulator file.
const FLAT_A: u16 = FLAT_M + crate::NUM_MREGS as u16;
/// Flat index of the vector-length register.
const FLAT_VL: u16 = FLAT_A + crate::NUM_AREGS as u16;

/// Total number of flat scoreboard slots: every architectural register
/// across all files maps to a unique index in `0..NUM_FLAT_REGS` (see
/// [`RegId::flat`]), so the timing model can keep ready times in one flat
/// array instead of matching on [`RegId`] per access.
pub const NUM_FLAT_REGS: usize = FLAT_VL as usize + 1;

impl RegId {
    /// Dense index of this register in the flat scoreboard layout
    /// `[I | F | V | M | A | VL]`; always `< NUM_FLAT_REGS`.
    #[must_use]
    pub const fn flat(self) -> u16 {
        match self {
            RegId::I(n) => FLAT_I + n as u16,
            RegId::F(n) => FLAT_F + n as u16,
            RegId::V(n) => FLAT_V + n as u16,
            RegId::M(n) => FLAT_M + n as u16,
            RegId::A(n) => FLAT_A + n as u16,
            RegId::Vl => FLAT_VL,
        }
    }
}

/// Worst-case number of registers one instruction reads.  The widest
/// cases today use four (`mload` with a register stride: base, stride,
/// VL, read-modify-write destination; `mop`: two sources, VL, RMW
/// destination); one slot of headroom keeps a future operand from
/// silently overflowing into a panic.
pub const MAX_USES: usize = 5;

/// Worst-case number of registers one instruction writes (every
/// instruction in the ISA writes at most one).
pub const MAX_DEFS: usize = 1;

/// Def/use sets of one instruction, stored inline at the ISA's worst-case
/// capacity ([`MAX_USES`]/[`MAX_DEFS`]) so extraction never allocates —
/// this runs once per dynamic instruction on the timing model's commit
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefUse {
    uses: [RegId; MAX_USES],
    defs: [RegId; MAX_DEFS],
    n_uses: u8,
    n_defs: u8,
}

impl Default for DefUse {
    fn default() -> Self {
        Self {
            uses: [RegId::I(0); MAX_USES],
            defs: [RegId::I(0); MAX_DEFS],
            n_uses: 0,
            n_defs: 0,
        }
    }
}

impl DefUse {
    /// Registers read.
    #[inline]
    #[must_use]
    pub fn uses(&self) -> &[RegId] {
        &self.uses[..self.n_uses as usize]
    }

    /// Registers written.
    #[inline]
    #[must_use]
    pub fn defs(&self) -> &[RegId] {
        &self.defs[..self.n_defs as usize]
    }

    fn push_use(&mut self, r: RegId) {
        self.uses[self.n_uses as usize] = r;
        self.n_uses += 1;
    }

    fn push_def(&mut self, r: RegId) {
        self.defs[self.n_defs as usize] = r;
        self.n_defs += 1;
    }
}

fn vloc_reg(l: VLoc) -> RegId {
    match l {
        VLoc::V(v) => RegId::V(v.index() as u8),
        // A row is tracked at whole-matrix-register granularity; real MOM
        // implementations rename matrix registers as a unit too.
        VLoc::Row(m, _) => RegId::M(m.index() as u8),
    }
}

fn op2_use(b: Operand2, du: &mut DefUse) {
    if let Operand2::Reg(r) = b {
        du.push_use(RegId::I(r.index() as u8));
    }
}

impl Instr {
    /// Computes the registers this instruction reads and writes.
    ///
    /// Partial writes (element inserts, row writes, accumulator updates)
    /// are modelled as read-modify-write: the destination also appears in
    /// `uses`.
    #[must_use]
    pub fn def_use(&self) -> DefUse {
        let mut du = DefUse::default();
        match *self {
            Instr::IntOp { rd, ra, b, .. } => {
                du.push_use(RegId::I(ra.index() as u8));
                op2_use(b, &mut du);
                du.push_def(RegId::I(rd.index() as u8));
            }
            Instr::Li { rd, .. } => du.push_def(RegId::I(rd.index() as u8)),
            Instr::Load { rd, base, .. } => {
                du.push_use(RegId::I(base.index() as u8));
                du.push_def(RegId::I(rd.index() as u8));
            }
            Instr::Store { rs, base, .. } => {
                du.push_use(RegId::I(rs.index() as u8));
                du.push_use(RegId::I(base.index() as u8));
            }
            Instr::Branch { ra, b, .. } => {
                du.push_use(RegId::I(ra.index() as u8));
                op2_use(b, &mut du);
            }
            Instr::Jump { .. } | Instr::Halt | Instr::Nop => {}
            Instr::FpOp { fd, fa, fb, .. } => {
                du.push_use(RegId::F(fa.index() as u8));
                du.push_use(RegId::F(fb.index() as u8));
                du.push_def(RegId::F(fd.index() as u8));
            }
            Instr::FpLoad { fd, base, .. } => {
                du.push_use(RegId::I(base.index() as u8));
                du.push_def(RegId::F(fd.index() as u8));
            }
            Instr::FpStore { fs, base, .. } => {
                du.push_use(RegId::F(fs.index() as u8));
                du.push_use(RegId::I(base.index() as u8));
            }
            Instr::CvtIF { fd, ra } => {
                du.push_use(RegId::I(ra.index() as u8));
                du.push_def(RegId::F(fd.index() as u8));
            }
            Instr::CvtFI { rd, fa } => {
                du.push_use(RegId::F(fa.index() as u8));
                du.push_def(RegId::I(rd.index() as u8));
            }
            Instr::Simd { dst, a, b, .. } => {
                du.push_use(vloc_reg(a));
                du.push_use(vloc_reg(b));
                if matches!(dst, VLoc::Row(..)) {
                    du.push_use(vloc_reg(dst));
                }
                du.push_def(vloc_reg(dst));
            }
            Instr::SimdShift { dst, src, .. } => {
                du.push_use(vloc_reg(src));
                if matches!(dst, VLoc::Row(..)) {
                    du.push_use(vloc_reg(dst));
                }
                du.push_def(vloc_reg(dst));
            }
            Instr::VMov { dst, src } => {
                du.push_use(vloc_reg(src));
                if matches!(dst, VLoc::Row(..)) {
                    du.push_use(vloc_reg(dst));
                }
                du.push_def(vloc_reg(dst));
            }
            Instr::VSplat { dst, src, .. } => {
                du.push_use(RegId::I(src.index() as u8));
                if matches!(dst, VLoc::Row(..)) {
                    du.push_use(vloc_reg(dst));
                }
                du.push_def(vloc_reg(dst));
            }
            Instr::MovSV { rd, src, .. } => {
                du.push_use(vloc_reg(src));
                du.push_def(RegId::I(rd.index() as u8));
            }
            Instr::MovVS { dst, src, .. } => {
                du.push_use(RegId::I(src.index() as u8));
                du.push_use(vloc_reg(dst)); // lane insert preserves other lanes
                du.push_def(vloc_reg(dst));
            }
            Instr::VLoad { dst, base, .. } => {
                du.push_use(RegId::I(base.index() as u8));
                if matches!(dst, VLoc::Row(..)) {
                    du.push_use(vloc_reg(dst));
                }
                du.push_def(vloc_reg(dst));
            }
            Instr::VStore { src, base, .. } => {
                du.push_use(vloc_reg(src));
                du.push_use(RegId::I(base.index() as u8));
            }
            Instr::SetVl { src } => {
                op2_use(src, &mut du);
                du.push_def(RegId::Vl);
            }
            Instr::MLoad {
                dst, base, stride, ..
            } => {
                du.push_use(RegId::I(base.index() as u8));
                op2_use(stride, &mut du);
                du.push_use(RegId::Vl);
                du.push_use(RegId::M(dst.index() as u8)); // rows ≥ VL preserved
                du.push_def(RegId::M(dst.index() as u8));
            }
            Instr::MStore {
                src, base, stride, ..
            } => {
                du.push_use(RegId::M(src.index() as u8));
                du.push_use(RegId::I(base.index() as u8));
                op2_use(stride, &mut du);
                du.push_use(RegId::Vl);
            }
            Instr::MOp { dst, a, b, .. } => {
                du.push_use(RegId::M(a.index() as u8));
                match b {
                    MOperand::M(m) | MOperand::RowBcast(m, _) => {
                        du.push_use(RegId::M(m.index() as u8));
                    }
                }
                du.push_use(RegId::Vl);
                du.push_use(RegId::M(dst.index() as u8));
                du.push_def(RegId::M(dst.index() as u8));
            }
            Instr::MShift { dst, src, .. } => {
                du.push_use(RegId::M(src.index() as u8));
                du.push_use(RegId::Vl);
                du.push_use(RegId::M(dst.index() as u8));
                du.push_def(RegId::M(dst.index() as u8));
            }
            Instr::MSplat { dst, src, .. } => {
                du.push_use(RegId::I(src.index() as u8));
                du.push_use(RegId::Vl);
                du.push_use(RegId::M(dst.index() as u8));
                du.push_def(RegId::M(dst.index() as u8));
            }
            Instr::MMov { dst, src } => {
                du.push_use(RegId::M(src.index() as u8));
                du.push_use(RegId::Vl);
                du.push_use(RegId::M(dst.index() as u8));
                du.push_def(RegId::M(dst.index() as u8));
            }
            Instr::MTranspose { dst, src, .. } => {
                du.push_use(RegId::M(src.index() as u8));
                du.push_use(RegId::Vl);
                du.push_def(RegId::M(dst.index() as u8));
            }
            Instr::MAcc { acc, a, b, .. } => {
                du.push_use(RegId::M(a.index() as u8));
                du.push_use(RegId::M(b.index() as u8));
                du.push_use(RegId::Vl);
                du.push_use(RegId::A(acc.index() as u8));
                du.push_def(RegId::A(acc.index() as u8));
            }
            Instr::VAcc { acc, a, b, .. } => {
                du.push_use(vloc_reg(a));
                du.push_use(vloc_reg(b));
                du.push_use(RegId::A(acc.index() as u8));
                du.push_def(RegId::A(acc.index() as u8));
            }
            Instr::AccSum { rd, acc } => {
                du.push_use(RegId::A(acc.index() as u8));
                du.push_def(RegId::I(rd.index() as u8));
            }
            Instr::AccClear { acc } => du.push_def(RegId::A(acc.index() as u8)),
            Instr::AccPack { dst, acc, .. } => {
                du.push_use(RegId::A(acc.index() as u8));
                if matches!(dst, VLoc::Row(..)) {
                    du.push_use(vloc_reg(dst));
                }
                du.push_def(vloc_reg(dst));
            }
        }
        du
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, Esz, IReg, MReg, VOp, VReg};

    #[test]
    fn defuse_alu() {
        let i = Instr::IntOp {
            op: AluOp::Add,
            rd: IReg::new(1),
            ra: IReg::new(2),
            b: Operand2::Reg(IReg::new(3)),
        };
        let du = i.def_use();
        assert_eq!(du.defs(), [RegId::I(1)]);
        assert!(du.uses().contains(&RegId::I(2)) && du.uses().contains(&RegId::I(3)));
    }

    #[test]
    fn defuse_matrix_uses_vl() {
        let i = Instr::MOp {
            op: VOp::Add(Esz::H),
            dst: MReg::new(0),
            a: MReg::new(1),
            b: MOperand::M(MReg::new(2)),
        };
        let du = i.def_use();
        assert!(du.uses().contains(&RegId::Vl));
        assert!(du.uses().contains(&RegId::M(1)));
        assert!(du.uses().contains(&RegId::M(0)), "dst is RMW at VL<rows");
        assert_eq!(du.defs(), [RegId::M(0)]);
    }

    #[test]
    fn defuse_row_write_is_rmw() {
        let i = Instr::Simd {
            op: VOp::Add(Esz::H),
            dst: VLoc::Row(MReg::new(3), 1),
            a: VLoc::Row(MReg::new(3), 0),
            b: VLoc::V(VReg::new(2)),
        };
        let du = i.def_use();
        assert_eq!(du.defs(), [RegId::M(3)]);
        // dst row preserved lanes → matrix also read.
        assert!(du.uses().iter().filter(|r| **r == RegId::M(3)).count() >= 1);
        assert!(RegId::M(3).is_simd_file());
        assert!(!RegId::Vl.is_simd_file());
    }
}
