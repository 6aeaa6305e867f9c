//! The paper's multimedia kernels (Table II), each in five variants:
//! plain scalar, MMX64, MMX128, VMMX64 and VMMX128.
//!
//! Every kernel module provides
//!
//! * a **golden** plain-Rust reference implementation,
//! * **emit** functions producing the kernel body in each ISA variant
//!   (reused by `simdsim-apps` inside full applications), and
//! * a [`Kernel`] implementation packaging a standalone workload:
//!   deterministic input data, the program, and a result checker.
//!
//! | kernel | application | description |
//! |---|---|---|
//! | `rgb`      | jpegenc  | RGB → YCC colour conversion |
//! | `fdct`     | jpegenc, mpeg2enc | 8×8 forward DCT |
//! | `h2v2`     | jpegdec  | 2×2 image up-sampling |
//! | `ycc`      | jpegdec  | YCC → RGB colour conversion |
//! | `motion1`  | mpeg2enc | 16×16 sum of absolute differences |
//! | `motion2`  | mpeg2enc | 16×16 sum of squared differences |
//! | `idct`     | mpeg2dec, jpegdec | 8×8 inverse DCT |
//! | `comp`     | mpeg2dec | motion compensation (8×4 average) |
//! | `addblock` | mpeg2dec | block addition with saturation |
//! | `ltppar`   | gsmenc   | long-term-predictor parameter search |
//! | `ltpfilt`  | gsmdec   | long-term filtering |
//!
//! # Example
//!
//! ```
//! use simdsim_kernels::{registry, Variant};
//!
//! for k in registry() {
//!     let built = k.build(Variant::Vmmx128);
//!     let stats = built.run_checked().expect("kernel result matches golden");
//!     assert!(stats.dyn_instrs > 0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod color;
pub mod data;
pub mod dct;
pub mod gsm;
pub mod motion;
pub mod resample;

use simdsim_emu::{EmuError, Layout, Machine, NullSink, RunStats, TraceSink};
use simdsim_isa::{Ext, Program};

/// Workload revision, part of `simdsim-sweep`'s content-addressed cache
/// key.  Bump whenever generated kernel code or input data changes in a
/// way that affects timing, so cached results from older builds are never
/// reused.
pub const REVISION: u32 = 1;

/// Which implementation variant of a kernel to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Plain scalar code (Fig. 3(a) style).
    Scalar,
    /// 1-dimensional SIMD, 64-bit registers.
    Mmx64,
    /// 1-dimensional SIMD, 128-bit registers.
    Mmx128,
    /// Matrix extension, 64-bit rows.
    Vmmx64,
    /// Matrix extension, 128-bit rows.
    Vmmx128,
}

impl Variant {
    /// All five variants.
    pub const ALL: [Variant; 5] = [
        Variant::Scalar,
        Variant::Mmx64,
        Variant::Mmx128,
        Variant::Vmmx64,
        Variant::Vmmx128,
    ];

    /// The machine extension this variant runs on (scalar code runs on the
    /// baseline MMX64 machine).
    #[must_use]
    pub const fn machine_ext(self) -> Ext {
        match self {
            Variant::Scalar | Variant::Mmx64 => Ext::Mmx64,
            Variant::Mmx128 => Ext::Mmx128,
            Variant::Vmmx64 => Ext::Vmmx64,
            Variant::Vmmx128 => Ext::Vmmx128,
        }
    }

    /// The variant exercising extension `ext`.
    #[must_use]
    pub const fn for_ext(ext: Ext) -> Variant {
        match ext {
            Ext::Mmx64 => Variant::Mmx64,
            Ext::Mmx128 => Variant::Mmx128,
            Ext::Vmmx64 => Variant::Vmmx64,
            Ext::Vmmx128 => Variant::Vmmx128,
        }
    }

    /// SIMD register width in bytes for this variant (8 for scalar — the
    /// width of the machine it runs on, unused by scalar code).
    #[must_use]
    pub const fn width(self) -> usize {
        self.machine_ext().width_bytes()
    }

    /// `true` for the two matrix variants.
    #[must_use]
    pub const fn is_matrix(self) -> bool {
        matches!(self, Variant::Vmmx64 | Variant::Vmmx128)
    }

    /// Lower-case display name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Variant::Scalar => "scalar",
            Variant::Mmx64 => "mmx64",
            Variant::Mmx128 => "mmx128",
            Variant::Vmmx64 => "vmmx64",
            Variant::Vmmx128 => "vmmx128",
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Static description of a kernel (the paper's Table II row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSpec {
    /// Kernel name (`motion1`, `idct`, ...).
    pub name: &'static str,
    /// Application the kernel comes from (`mpeg2enc`, ...).
    pub app: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Data-size column of Table II.
    pub data_size: &'static str,
}

/// Post-run validator comparing machine state against the golden output.
type Checker = Box<dyn Fn(&Machine) -> Result<(), String> + Send + Sync>;

/// A kernel workload ready to execute: program + pre-loaded machine +
/// golden-result checker.
pub struct BuiltKernel {
    /// The kernel program (standalone, ends in `halt`).
    pub program: Program,
    /// Machine with inputs written to memory and argument registers set.
    pub machine: Machine,
    /// Bytes of the image the workload's [`Layout`] reserved
    /// ([`Layout::used`]); the image is this rounded up to a
    /// [`Layout::PAGE`].
    pub layout_used: u64,
    checker: Checker,
}

impl std::fmt::Debug for BuiltKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltKernel")
            .field("static_instrs", &self.program.len())
            .finish_non_exhaustive()
    }
}

impl BuiltKernel {
    /// Packages a program, the layout of its image, the machine built
    /// from that layout ([`Layout::machine`]) and a checker.
    #[must_use]
    pub fn new(
        program: Program,
        layout: &Layout,
        machine: Machine,
        checker: impl Fn(&Machine) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        Self {
            program,
            machine,
            layout_used: layout.used(),
            checker: Box::new(checker),
        }
    }

    /// Default dynamic-instruction budget for kernel workloads.
    pub const INSTR_LIMIT: u64 = 200_000_000;

    /// Runs the kernel functionally and verifies the result against the
    /// golden reference.
    ///
    /// # Errors
    ///
    /// Returns a description of the emulation failure or result mismatch.
    pub fn run_checked(&self) -> Result<RunStats, String> {
        let mut m = self.machine.clone();
        let stats = m
            .run(&self.program, &mut NullSink, Self::INSTR_LIMIT)
            .map_err(|e: EmuError| e.to_string())?;
        (self.checker)(&m)?;
        Ok(stats)
    }

    /// Runs the kernel streaming the dynamic trace into `sink` (used by the
    /// timing model), then verifies the result.
    ///
    /// # Errors
    ///
    /// Returns a description of the emulation failure or result mismatch.
    pub fn run_traced(&self, sink: &mut impl TraceSink) -> Result<RunStats, String> {
        let mut m = self.machine.clone();
        let stats = m
            .run(&self.program, sink, Self::INSTR_LIMIT)
            .map_err(|e: EmuError| e.to_string())?;
        (self.checker)(&m)?;
        Ok(stats)
    }
}

/// A kernel of the benchmark suite.
pub trait Kernel: Send + Sync {
    /// The Table-II row for this kernel.
    fn spec(&self) -> KernelSpec;
    /// Builds the standalone workload for `variant`.
    fn build(&self, variant: Variant) -> BuiltKernel;
}

/// All kernels of the paper's Table II, in presentation order
/// (idct, motion1, motion2, comp, addblock, rgb, ycc, h2v2, ltppar, ltpfilt
/// — the order of Figure 4).
#[must_use]
pub fn registry() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(dct::Idct),
        Box::new(motion::Motion1),
        Box::new(motion::Motion2),
        Box::new(motion::Comp),
        Box::new(motion::AddBlock),
        Box::new(color::Rgb),
        Box::new(color::Ycc),
        Box::new(resample::H2v2),
        Box::new(gsm::LtpPar),
        Box::new(gsm::LtpFilt),
        Box::new(dct::Fdct),
    ]
}

/// Looks a kernel up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Box<dyn Kernel>> {
    registry().into_iter().find(|k| k.spec().name == name)
}
