//! Instruction-set architecture definitions for the SIMD scalability study.
//!
//! This crate defines the register files, element types and the instruction
//! set used by every other crate in the workspace.  The ISA is a
//! register-level reconstruction of the machine modelled in
//! *"On the Scalability of 1- and 2-Dimensional SIMD Extensions for
//! Multimedia Applications"* (ISPASS 2005):
//!
//! * a 64-bit scalar RISC core (Alpha/MIPS-R10000 flavoured): integer ALU,
//!   branches, loads/stores and a small floating-point subset;
//! * a **1-dimensional SIMD extension** (`MMX64` / `MMX128`): 32 logical
//!   SIMD registers of 64 or 128 bits operated on by sub-word instructions
//!   ([`VOp`]);
//! * a **2-dimensional matrix extension** (`VMMX64` / `VMMX128`, the paper's
//!   MOM architecture): 16 matrix registers of up to 16 rows × 64/128 bits,
//!   strided vector loads/stores, row-addressable SIMD operations and
//!   packed accumulators ([`AccOp`]).
//!
//! The same sub-word operation vocabulary ([`VOp`]) is shared between the
//! 1D extension (operating on [`VLoc::V`] registers), the row-addressed form
//! of the matrix extension ([`VLoc::Row`]) and the full-vector-length matrix
//! form ([`Instr::MOp`]); this mirrors how MOM fuses a conventional vector
//! ISA with an MMX-like sub-word ISA.
//!
//! # Example
//!
//! Build (by hand — the `simdsim-asm` crate provides a structured builder)
//! a fragment that adds two packed 16-bit SIMD registers with saturation:
//!
//! ```
//! use simdsim_isa::{Instr, VOp, Esz, VLoc, VReg};
//!
//! let add = Instr::Simd {
//!     op: VOp::AddS(Esz::H),
//!     dst: VLoc::V(VReg::new(3)),
//!     a: VLoc::V(VReg::new(1)),
//!     b: VLoc::V(VReg::new(2)),
//! };
//! assert_eq!(add.class(), simdsim_isa::Class::VArith);
//! assert_eq!(format!("{add}"), "vadds.h v3, v1, v2");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod class;
mod deps;
mod display;
mod elem;
mod ext;
mod instr;
mod predecode;
mod program;
mod reg;

pub use class::{Class, FuKind};
pub use deps::{
    DefUse, RegId, MAX_DEFS, MAX_USES, NUM_FLAT_REGS, NUM_RENAME_CLASSES, RENAME_FP, RENAME_INT,
    RENAME_SIMD,
};
pub use elem::{Esz, MemSz};
pub use ext::Ext;
pub use instr::{AccOp, AluOp, Cond, FOp, Instr, MOperand, Operand2, Sat, VLoc, VOp, VShiftOp};
pub use predecode::{Decoded, DecodedInstr, RENAME_NONE};
pub use program::{ClassCounts, Program, Region};
pub use reg::{AReg, FReg, IReg, MReg, VReg};

/// ISA revision, part of `simdsim-sweep`'s content-addressed cache
/// key.  Bump whenever instruction semantics, encodings, class
/// assignments **or the predecoded static timing table**
/// (`predecode::static_timing` — the execution latencies the timing
/// model reads) change, so cached results from older builds are never
/// reused.
pub const REVISION: u32 = 1;

/// Maximum vector length (rows of a matrix register) supported by the
/// 2-dimensional extension.  The paper fixes this at sixteen and argues
/// that multimedia vector lengths do not warrant more.
pub const MAX_VL: usize = 16;

/// Number of logical 1-dimensional SIMD registers (MMX-like extensions).
pub const NUM_VREGS: usize = 32;

/// Number of logical matrix registers (MOM/VMMX extensions).
pub const NUM_MREGS: usize = 16;

/// Number of architectural packed accumulators.
pub const NUM_AREGS: usize = 4;

/// Number of scalar integer registers.
pub const NUM_IREGS: usize = 32;

/// Number of scalar floating-point registers.
pub const NUM_FREGS: usize = 32;
