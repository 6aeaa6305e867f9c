//! Differential fuzzer: random well-formed programs, reference vs emulator.
//!
//! Programs are generated through `simdsim_asm::Asm` from a seeded
//! [`splitmix64`] stream, so every case is reproducible from its seed
//! (printed on failure together with the listing).  The generator is
//! recipe-driven: it emits an initialisation prologue (immediates,
//! splats, memory seeding), then a body of random instructions drawn
//! from the classes legal for the chosen extension — optionally wrapped
//! in a bounded counted loop and sprinkled with forward skip branches,
//! so cases exercise taken and not-taken control flow, not just
//! straight-line code.
//!
//! The generator stays inside the domain where the production
//! emulator's semantics are well-defined in both build profiles:
//! saturating/average/high-multiply element ops only on byte/half/word
//! lanes, element values seeded from 16-bit immediates, bounded
//! accumulator traffic, and memory traffic confined to the 4 KiB image
//! (a small fraction of cases intentionally emits out-of-range lanes
//! and `setvl` from a possibly-negative register to check *error*
//! conformance).

use crate::asmtext::CorpusProgram;
use crate::corpus::{differential, MAX_INSTRS};
use simdsim_asm::Asm;
use simdsim_isa::{
    AReg, AccOp, AluOp, Cond, Esz, Ext, FReg, IReg, MOperand, MReg, MemSz, Program, Sat, VLoc, VOp,
    VReg, VShiftOp, MAX_VL,
};

/// Deterministic 64-bit PRNG (splitmix64), good enough for recipe choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Creates a stream from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `true` with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Uniform pick from a slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// Register pools the generator draws from.  Fixed numbering keeps the
/// generator simple and leaves `r15` free as the loop counter.
const IPOOL: [u8; 6] = [8, 9, 10, 11, 12, 13];
const BASE: u8 = 14;
const COUNTER: u8 = 15;
const VPOOL: [u8; 4] = [0, 1, 2, 3];
const MPOOL: [u8; 4] = [0, 1, 2, 3];
const FPOOL: [u8; 3] = [0, 1, 2];
/// Element sizes safe for saturating/average/high-multiply ops (64-bit
/// lanes hit intermediate-overflow territory the emulator leaves
/// undefined in debug builds).
const NARROW: [Esz; 3] = [Esz::B, Esz::H, Esz::W];
const ALL_ESZ: [Esz; 4] = [Esz::B, Esz::H, Esz::W, Esz::D];

fn ireg(r: &mut Rng) -> IReg {
    IReg::new(*r.pick(&IPOOL))
}

fn vreg(r: &mut Rng) -> VReg {
    VReg::new(*r.pick(&VPOOL))
}

fn mreg(r: &mut Rng) -> MReg {
    MReg::new(*r.pick(&MPOOL))
}

fn freg(r: &mut Rng) -> FReg {
    FReg::new(*r.pick(&FPOOL))
}

fn vloc(r: &mut Rng, matrix: bool) -> VLoc {
    if matrix && r.chance(1, 3) {
        VLoc::Row(mreg(r), r.below(MAX_VL as u64) as u8)
    } else {
        VLoc::V(vreg(r))
    }
}

fn vop(r: &mut Rng, width: usize) -> VOp {
    let narrow = *r.pick(&NARROW);
    let any = *r.pick(&ALL_ESZ);
    // Pack narrows H→B / W→H / D→W; byte sources are rejected by the
    // emulator, so draw from the wider three.
    let packable = *r.pick(&[Esz::H, Esz::W, Esz::D]);
    let unpackable = if width == 8 && r.chance(1, 8) {
        Esz::D // a single 64-bit lane: unpack degenerates, still defined
    } else {
        *r.pick(&NARROW)
    };
    match r.below(24) {
        0 => VOp::Add(any),
        1 => VOp::AddS(narrow),
        2 => VOp::AddU(narrow),
        3 => VOp::Sub(any),
        4 => VOp::SubS(narrow),
        5 => VOp::SubU(narrow),
        6 => VOp::Mullo(any),
        7 => VOp::Mulhi(narrow),
        8 => VOp::Madd,
        9 => VOp::Sad,
        10 => VOp::Avg(narrow),
        11 => VOp::MinS(any),
        12 => VOp::MinU(any),
        13 => VOp::MaxS(any),
        14 => VOp::MaxU(any),
        15 => VOp::CmpEq(any),
        16 => VOp::CmpGt(any),
        17 => VOp::And,
        18 => VOp::Or,
        19 => VOp::Xor,
        20 => VOp::AndNot,
        21 => VOp::PackS(packable),
        22 => VOp::PackU(packable),
        _ => {
            if r.chance(1, 2) {
                VOp::UnpackLo(unpackable)
            } else {
                VOp::UnpackHi(unpackable)
            }
        }
    }
}

fn vshift(r: &mut Rng) -> (VShiftOp, u8) {
    let e = *r.pick(&ALL_ESZ);
    let op = match r.below(3) {
        0 => VShiftOp::Sll(e),
        1 => VShiftOp::Srl(e),
        _ => VShiftOp::Sra(e),
    };
    // Amounts past the lane width are defined (clear / sign-fill); keep
    // them in the mix.
    (op, r.below(70) as u8)
}

fn accop(r: &mut Rng) -> AccOp {
    *r.pick(&[AccOp::Sad, AccOp::Mac, AccOp::AddH, AccOp::Ssd])
}

fn aluop(r: &mut Rng) -> AluOp {
    *r.pick(&[
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Seq,
    ])
}

fn cond(r: &mut Rng) -> Cond {
    *r.pick(&[
        Cond::Eq,
        Cond::Ne,
        Cond::Lt,
        Cond::Ge,
        Cond::Le,
        Cond::Gt,
        Cond::LtU,
        Cond::GeU,
    ])
}

/// Emits one random body instruction.
#[allow(clippy::too_many_lines)]
fn body_instr(a: &mut Asm, r: &mut Rng, ext: Ext) {
    let width = ext.width_bytes();
    let matrix = ext.is_matrix();
    let kinds = if matrix { 13 } else { 7 };
    match r.below(kinds) {
        // Scalar ALU.
        0 | 1 => {
            let op = aluop(r);
            if r.chance(1, 2) {
                let imm = (r.next_u64() as i32) % 4096;
                a.alu(op, ireg(r), ireg(r), imm);
            } else {
                a.alu(op, ireg(r), ireg(r), ireg(r));
            }
        }
        // Scalar memory (confined to the image through `BASE`) and the
        // small floating-point corner of the ISA.
        2 => match r.below(8) {
            0 => a.fop(
                *r.pick(&[
                    simdsim_isa::FOp::Add,
                    simdsim_isa::FOp::Sub,
                    simdsim_isa::FOp::Mul,
                    simdsim_isa::FOp::Div,
                ]),
                freg(r),
                freg(r),
                freg(r),
            ),
            1 => a.fld(freg(r), IReg::new(BASE), r.below(256) as i32),
            2 => a.fst(freg(r), IReg::new(BASE), r.below(256) as i32),
            3 => a.cvt_fi(ireg(r), freg(r)),
            _ => {
                let sz = *r.pick(&[MemSz::B, MemSz::H, MemSz::W, MemSz::D]);
                let off = r.below(256) as i32;
                if r.chance(1, 2) {
                    a.load(sz, r.chance(1, 2), ireg(r), IReg::new(BASE), off);
                } else {
                    a.store(sz, ireg(r), IReg::new(BASE), off);
                }
            }
        },
        // One-word SIMD arithmetic.
        3 | 4 => {
            let op = vop(r, width);
            a.simd(op, vloc(r, matrix), vloc(r, matrix), vloc(r, matrix));
        }
        // Shifts and lane moves.
        5 => match r.below(4) {
            0 => {
                let (op, amt) = vshift(r);
                a.vshift(op, vloc(r, matrix), vloc(r, matrix), amt);
            }
            1 => {
                let e = *r.pick(&ALL_ESZ);
                // ~1 in 16 draws an out-of-range lane on purpose: the
                // InvalidInstr fault must also conform.
                let lanes = e.lanes(width * 8) as u64;
                let bound = if r.chance(1, 16) { lanes + 2 } else { lanes };
                let lane = r.below(bound) as u8;
                a.movsv(ireg(r), vloc(r, matrix), lane, e, r.chance(1, 2));
            }
            2 => {
                let e = *r.pick(&ALL_ESZ);
                let lane = r.below(e.lanes(width * 8) as u64) as u8;
                a.movvs(vloc(r, matrix), ireg(r), lane, e);
            }
            _ => a.vmov(vloc(r, matrix), vloc(r, matrix)),
        },
        // SIMD memory and splats.
        6 => match r.below(3) {
            0 => {
                let bytes = 1 + r.below(width as u64) as u8;
                a.vload(vloc(r, matrix), IReg::new(BASE), r.below(256) as i32, bytes);
            }
            1 => {
                let bytes = 1 + r.below(width as u64) as u8;
                a.vstore(vloc(r, matrix), IReg::new(BASE), r.below(256) as i32, bytes);
            }
            _ => a.vsplat(vloc(r, matrix), ireg(r), *r.pick(&ALL_ESZ)),
        },
        // --- matrix-only kinds below ---
        7 => {
            // VL changes; mostly immediates, sometimes a register whose
            // value may be non-positive (error conformance).
            if r.chance(5, 6) {
                a.setvl(1 + r.below(MAX_VL as u64) as i32);
            } else {
                a.setvl(ireg(r));
            }
        }
        8 => {
            let row_bytes = 1 + r.below(width as u64) as u8;
            let stride = r.below(64) as i32;
            if r.chance(1, 2) {
                a.mload(mreg(r), IReg::new(BASE), stride, row_bytes);
            } else {
                a.mstore(mreg(r), IReg::new(BASE), stride, row_bytes);
            }
        }
        9 | 10 => {
            let op = vop(r, width);
            let b = if r.chance(1, 4) {
                MOperand::RowBcast(mreg(r), r.below(MAX_VL as u64) as u8)
            } else {
                MOperand::M(mreg(r))
            };
            a.mop(op, mreg(r), mreg(r), b);
        }
        11 => match r.below(3) {
            0 => {
                let (op, amt) = vshift(r);
                a.mshift(op, mreg(r), mreg(r), amt);
            }
            1 => a.msplat(mreg(r), ireg(r), *r.pick(&ALL_ESZ)),
            _ => a.mmov(mreg(r), mreg(r)),
        },
        _ => match r.below(5) {
            0 => a.macc(accop(r), AReg::new(r.below(2) as u8), mreg(r), mreg(r)),
            1 => a.vacc(
                accop(r),
                AReg::new(r.below(2) as u8),
                vloc(r, matrix),
                vloc(r, matrix),
            ),
            2 => a.accsum(ireg(r), AReg::new(r.below(2) as u8)),
            3 => a.accclear(AReg::new(r.below(2) as u8)),
            _ => {
                let sat = *r.pick(&[Sat::Wrap, Sat::Signed, Sat::Unsigned]);
                let e = *r.pick(&[Esz::H, Esz::W]);
                a.accpack(
                    vloc(r, matrix),
                    AReg::new(r.below(2) as u8),
                    e,
                    sat,
                    r.below(17) as u8,
                );
            }
        },
    }
}

/// Generates one random well-formed program for a random extension.
#[must_use]
pub fn random_program(seed: u64) -> (Ext, Program) {
    let mut r = Rng::new(seed);
    let ext = *r.pick(&Ext::ALL);
    let matrix = ext.is_matrix();
    let mut a = Asm::new();

    // Prologue: deterministic machine setup through the program itself,
    // so both engines start from the identical all-zero machine.
    a.li(IReg::new(BASE), 1024 + (r.below(256) * 8) as i64);
    for &i in &IPOOL {
        a.li(IReg::new(i), (r.next_u64() as i16) as i64);
    }
    for &v in &VPOOL {
        a.vsplat(VReg::new(v), IReg::new(*r.pick(&IPOOL)), *r.pick(&NARROW));
    }
    for k in 0..8 {
        a.store(MemSz::D, IReg::new(*r.pick(&IPOOL)), IReg::new(BASE), k * 8);
    }
    if matrix {
        a.setvl(1 + r.below(MAX_VL as u64) as i32);
        for &m in &MPOOL[..2] {
            a.mload(MReg::new(m), IReg::new(BASE), 8, ext.width_bytes() as u8);
        }
    }
    for &f in &FPOOL {
        a.cvt_if(FReg::new(f), IReg::new(*r.pick(&IPOOL)));
    }

    // Body: straight-line, or a bounded counted loop over the middle.
    let n_body = 8 + r.below(32);
    let loop_top = if r.chance(1, 2) {
        a.li(IReg::new(COUNTER), 2 + r.below(3) as i64);
        let top = a.label();
        a.bind(top);
        Some(top)
    } else {
        None
    };
    for _ in 0..n_body {
        if r.chance(1, 12) {
            // Forward skip branch: data-dependent control flow mid-body.
            let skip = a.label();
            a.branch(cond(&mut r), ireg(&mut r), 0, skip);
            body_instr(&mut a, &mut r, ext);
            a.bind(skip);
        } else {
            body_instr(&mut a, &mut r, ext);
        }
    }
    if let Some(top) = loop_top {
        a.alu(AluOp::Sub, IReg::new(COUNTER), IReg::new(COUNTER), 1);
        a.branch(Cond::Ne, IReg::new(COUNTER), 0, top);
    }
    a.halt();
    (ext, a.finish())
}

/// Outcome of one fuzz case.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// The case's seed (sufficient to reproduce it).
    pub seed: u64,
    /// Divergence report, `None` on pass.
    pub failure: Option<String>,
    /// Listing of the offending program (only on failure).
    pub listing: Option<String>,
}

/// Generates and differentially checks one case.
#[must_use]
pub fn fuzz_case(seed: u64) -> FuzzOutcome {
    let (ext, program) = random_program(seed);
    let cp = CorpusProgram {
        ext,
        mem_size: 4096,
        init_iregs: Vec::new(),
        init_fregs: Vec::new(),
        data: Vec::new(),
        program,
    };
    match differential(&cp, MAX_INSTRS) {
        Ok(_) => FuzzOutcome {
            seed,
            failure: None,
            listing: None,
        },
        Err(e) => FuzzOutcome {
            seed,
            failure: Some(format!("[{}] {e}", cp.ext.name())),
            listing: Some(cp.program.listing()),
        },
    }
}

/// Runs `cases` consecutive seeds starting at `start_seed`; returns the
/// pass count and every failing outcome.
#[must_use]
pub fn fuzz_many(start_seed: u64, cases: u64) -> (u64, Vec<FuzzOutcome>) {
    let mut passed = 0;
    let mut failures = Vec::new();
    for seed in start_seed..start_seed + cases {
        let o = fuzz_case(seed);
        if o.failure.is_none() {
            passed += 1;
        } else {
            failures.push(o);
        }
    }
    (passed, failures)
}
