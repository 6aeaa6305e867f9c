//! Predecoded per-program instruction metadata.
//!
//! The emulate→time loop replays millions of dynamic instructions, and
//! every per-instruction fact that depends only on the *static* instruction
//! — def/use sets, Figure-7 class, functional-unit kind, full-VL flag,
//! rename class of the destination, static execution latencies — used to be
//! recomputed on every commit.  [`Decoded`] computes them once per program
//! so the hot loop does a single indexed fetch per dynamic instruction and
//! never allocates.
//!
//! The latency/occupancy fields encode the timing model's static execution
//! latencies (they are consumed by `simdsim-pipe`); keeping them next to
//! the other static facts is what lets the commit path avoid re-matching
//! on the instruction entirely.

use crate::{AluOp, Class, DefUse, FOp, FuKind, Instr, Program, Region, MAX_DEFS, MAX_USES};

/// Sentinel for "the destination is not renamed" in
/// [`DecodedInstr::def_rename`] (accumulators, VL, or no destination).
pub const RENAME_NONE: u8 = u8::MAX;

/// Everything the emulator and timing model need to know about one static
/// instruction, precomputed by [`Decoded::new`].
#[derive(Debug, Clone, Copy)]
pub struct DecodedInstr {
    /// The instruction itself.
    pub instr: Instr,
    /// Region tag (scalar application code vs vectorised kernel).
    pub region: Region,
    /// Registers read and written, at fixed capacity.
    pub du: DefUse,
    /// Figure-7 instruction category.
    pub class: Class,
    /// Functional-unit pool the instruction issues to.
    pub fu: FuKind,
    /// `true` for full-vector-length matrix operations whose occupancy
    /// scales with VL.
    pub is_full_vl: bool,
    /// Rename class of the destination register ([`RENAME_NONE`] when the
    /// instruction writes no renamed register).
    pub def_rename: u8,
    /// Static execution latency on the instruction's pipeline.  For
    /// [`FuKind::Simd`] this is the *base* latency; the VL-dependent
    /// occupancy is added by the timing model at run time.
    pub lat: u8,
    /// Static functional-unit occupancy (1 for pipelined operations;
    /// `lat` for unpipelined divides).  Unused for [`FuKind::Simd`],
    /// whose occupancy depends on the dynamic VL.
    pub occ: u8,
    /// Flat scoreboard indices of `du.uses()` (same order, same count).
    pub flat_uses: [u16; MAX_USES],
    /// Flat scoreboard indices of `du.defs()` (same order, same count).
    pub flat_defs: [u16; MAX_DEFS],
}

/// Static execution latency and occupancy of a scalar instruction, and
/// the base latency of a SIMD instruction (occupancy 1 placeholder).
fn static_timing(instr: &Instr) -> (u8, u8) {
    match instr.fu_kind() {
        FuKind::IntAlu => (1, 1),
        FuKind::IntMul => match instr {
            Instr::IntOp { op: AluOp::Mul, .. } => (6, 1),
            _ => (20, 20), // div/rem, unpipelined
        },
        FuKind::Fp => match instr {
            Instr::FpOp { op: FOp::Div, .. } => (16, 16),
            _ => (4, 1),
        },
        FuKind::Simd => {
            let base = match instr {
                Instr::Simd { op, .. } | Instr::MOp { op, .. } if op.is_multiply() => 3,
                Instr::Simd { .. } | Instr::MOp { .. } => 1,
                Instr::MAcc { .. } | Instr::VAcc { .. } => 3,
                Instr::AccSum { .. } => 4,
                Instr::MTranspose { .. } => 2,
                Instr::MovSV { .. } | Instr::MovVS { .. } | Instr::VSplat { .. } => 2,
                _ => 1,
            };
            (base, 1)
        }
        // Memory latency comes from the cache model; front-end-only
        // instructions never execute.
        FuKind::Mem | FuKind::VecMem | FuKind::None => (0, 1),
    }
}

impl DecodedInstr {
    /// Decodes one instruction (with its region tag).
    #[must_use]
    pub fn new(instr: Instr, region: Region) -> Self {
        let du = instr.def_use();
        let def_rename = du
            .defs()
            .first()
            .and_then(|d| d.rename_class())
            .map_or(RENAME_NONE, |c| c as u8);
        let (lat, occ) = static_timing(&instr);
        let mut flat_uses = [0u16; MAX_USES];
        for (slot, r) in flat_uses.iter_mut().zip(du.uses()) {
            *slot = r.flat();
        }
        let mut flat_defs = [0u16; MAX_DEFS];
        for (slot, r) in flat_defs.iter_mut().zip(du.defs()) {
            *slot = r.flat();
        }
        Self {
            instr,
            region,
            du,
            class: instr.class(),
            fu: instr.fu_kind(),
            is_full_vl: instr.is_full_vl(),
            def_rename,
            lat,
            occ,
            flat_uses,
            flat_defs,
        }
    }
}

/// The predecoded table of one [`Program`]: one [`DecodedInstr`] per
/// static instruction, same indexing as [`Program::code`].
#[derive(Debug, Clone)]
pub struct Decoded {
    instrs: Vec<DecodedInstr>,
}

impl Decoded {
    /// Predecodes every instruction of `prog`.
    #[must_use]
    pub fn new(prog: &Program) -> Self {
        let instrs = prog
            .code()
            .iter()
            .zip(prog.regions())
            .map(|(i, r)| DecodedInstr::new(*i, *r))
            .collect();
        Self { instrs }
    }

    /// The decoded instructions, indexed like [`Program::code`].
    #[must_use]
    pub fn instrs(&self) -> &[DecodedInstr] {
        &self.instrs
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` when the program contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Validates structural well-formedness exactly like
    /// [`Program::validate`] (both call the same shared per-instruction
    /// check): branch targets in range and, when `matrix_ext` is false,
    /// absence of matrix instructions.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self, matrix_ext: bool) -> Result<(), String> {
        for (idx, d) in self.instrs.iter().enumerate() {
            crate::program::validate_instr(idx, &d.instr, self.instrs.len(), matrix_ext)?;
        }
        Ok(())
    }
}

impl std::ops::Index<usize> for Decoded {
    type Output = DecodedInstr;
    fn index(&self, idx: usize) -> &DecodedInstr {
        &self.instrs[idx]
    }
}

impl Program {
    /// Builds the predecoded table for this program.
    #[must_use]
    pub fn decode(&self) -> Decoded {
        Decoded::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cond, Esz, IReg, MOperand, MReg, Operand2, RegId, VOp};

    #[test]
    fn decoded_matches_per_instr_queries() {
        let code = vec![
            Instr::Li {
                rd: IReg::new(1),
                imm: 7,
            },
            Instr::IntOp {
                op: AluOp::Div,
                rd: IReg::new(2),
                ra: IReg::new(1),
                b: Operand2::Imm(2),
            },
            Instr::MOp {
                op: VOp::Mullo(Esz::H),
                dst: MReg::new(0),
                a: MReg::new(1),
                b: MOperand::M(MReg::new(2)),
            },
            Instr::Halt,
        ];
        let prog = Program::new(code.clone(), vec![Region::Scalar; 4]);
        let dec = prog.decode();
        assert_eq!(dec.len(), 4);
        assert!(!dec.is_empty());
        for (d, i) in dec.instrs().iter().zip(&code) {
            assert_eq!(d.class, i.class());
            assert_eq!(d.fu, i.fu_kind());
            assert_eq!(d.is_full_vl, i.is_full_vl());
            assert_eq!(d.du, i.def_use());
        }
        // Static timing: ALU div is unpipelined 20/20; SIMD multiply has
        // base latency 3; destination rename classes follow the register
        // file.
        assert_eq!((dec[1].lat, dec[1].occ), (20, 20));
        assert_eq!(dec[2].lat, 3);
        assert_eq!(dec[0].def_rename, RegId::I(1).rename_class().unwrap() as u8);
        assert_eq!(dec[3].def_rename, RENAME_NONE);
    }

    #[test]
    fn flat_indices_mirror_def_use() {
        let i = Instr::MOp {
            op: VOp::Mullo(Esz::H),
            dst: MReg::new(0),
            a: MReg::new(1),
            b: MOperand::M(MReg::new(2)),
        };
        let d = DecodedInstr::new(i, Region::Vector);
        for (k, r) in d.du.uses().iter().enumerate() {
            assert_eq!(d.flat_uses[k], r.flat());
        }
        assert_eq!(d.flat_defs[0], d.du.defs()[0].flat());
    }

    #[test]
    fn decoded_validate_mirrors_program_validate() {
        let prog = Program::new(
            vec![
                Instr::Branch {
                    cond: Cond::Ne,
                    ra: IReg::new(1),
                    b: Operand2::Imm(0),
                    target: 9,
                },
                Instr::Halt,
            ],
            vec![Region::Scalar; 2],
        );
        let dec = prog.decode();
        assert_eq!(
            dec.validate(false),
            prog.validate(false),
            "branch range check must match"
        );

        let m = Program::new(
            vec![Instr::SetVl {
                src: Operand2::Imm(4),
            }],
            vec![Region::Vector],
        );
        let dec = m.decode();
        assert!(dec.validate(false).is_err());
        assert!(dec.validate(true).is_ok());
    }
}
