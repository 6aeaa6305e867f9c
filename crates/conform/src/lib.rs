//! Conformance subsystem: reference oracle, differential corpus,
//! fuzzer and assembly linter.
//!
//! The production emulator is optimised — predecoded tables, SWAR and
//! lane-array sub-word kernels — which is exactly why it needs a
//! permanently-simple second opinion.  This crate provides:
//!
//! * [`RefMachine`] — a deliberately slow reference interpreter
//!   (straight-line `match`, per-lane loops, `i128` arithmetic) that
//!   defines the ISA's architectural semantics independently of the
//!   emulator's implementation tricks, and whose per-lane functions
//!   ([`refint::vop`], [`refint::vshift`], …) are the one oracle the
//!   emulator's sub-word kernels are property-tested against;
//! * an architectural-**effects** model ([`Effect`],
//!   [`EffectsRecorder`]) capturing what every committed instruction
//!   wrote, observed live via the emulator's `StepObserver` seam;
//! * the conformance **corpus** (`corpus/*.s`, parsed by
//!   [`CorpusProgram`]): small hand-written programs, one per
//!   instruction family, executed through the reference interpreter and
//!   the emulator with committed expected-state fixtures;
//! * a differential **fuzzer** ([`fuzz_case`]) generating random
//!   well-formed programs through `simdsim_asm::Asm`;
//! * a static **linter** ([`lint`]) over assembled programs.
//!
//! The `conform` binary exposes all of it on the command line
//! (`conform run | fuzz --cases N | lint`), and `just conform` runs the
//! same set CI's `conform-smoke` job enforces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asmtext;
pub mod corpus;
pub mod effects;
pub mod fuzz;
pub mod lint;
pub mod refint;
pub mod state;

pub use asmtext::{parse_instr, CorpusProgram};
pub use corpus::{differential, run_corpus, summarize, CaseResult};
pub use effects::{diff_effects, sample_write, Effect, EffectsRecorder, RegVal};
pub use fuzz::{fuzz_case, fuzz_many, random_program, FuzzOutcome, Rng};
pub use lint::{error_count, lint, Diag, Severity};
pub use refint::{RefMachine, RefRun};
pub use state::{fnv1a64, ArchState, StateEntry};
