//! The conformance corpus: run `.s` cases through the reference and the
//! emulator.
//!
//! Every `crates/conform/corpus/*.s` file is parsed by
//! [`CorpusProgram`], executed by
//!
//! 1. the [`RefMachine`](crate::RefMachine) reference interpreter, and
//! 2. the emulator's one step loop, `Machine::run_decoded_observed`,
//!
//! and the two runs must agree on the complete effects stream, the
//! final architectural state, the error (if any) and the dynamic-count
//! statistics the timing model consumes.  The reference run's final
//! state is additionally compared against the committed
//! `<case>.expect.json` fixture, so a semantic change to both engines
//! at once still trips conformance until the fixture is regenerated
//! (`CONFORM_REGEN=1`).

use crate::asmtext::CorpusProgram;
use crate::effects::{diff_effects, EffectsRecorder};
use crate::state::ArchState;
use simdsim_emu::NullSink;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Commit limit for corpus and fuzz programs — generous for hand-written
/// cases, small enough to catch accidental infinite loops quickly.
pub const MAX_INSTRS: u64 = 200_000;

/// Outcome of one corpus case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Case name (file stem).
    pub name: String,
    /// Failure report, `None` on pass.
    pub failure: Option<String>,
}

impl CaseResult {
    /// Whether the case passed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs one parsed program through the reference interpreter and the
/// emulator and checks they agree; returns the reference run's final
/// architectural state.
///
/// # Errors
///
/// Returns a divergence report naming the first differing artefact.
pub fn differential(cp: &CorpusProgram, max_instrs: u64) -> Result<ArchState, String> {
    let code = cp.program.code();

    let mut rm = cp.ref_machine();
    let ref_run = rm.run(&cp.program, max_instrs);
    let ref_state = ArchState::of_ref(&rm);

    let mut m = cp.machine();
    let mut rec = EffectsRecorder::default();
    let res = m.run_decoded_observed(&cp.program.decode(), &mut NullSink, max_instrs, &mut rec);
    let emu_state = ArchState::of_machine(&m);

    let emu_err = res.as_ref().err().cloned();
    if ref_run.error != emu_err {
        return Err(format!(
            "error divergence: reference={:?} emu={emu_err:?}",
            ref_run.error
        ));
    }
    if let Some(d) = diff_effects("reference", &ref_run.effects, "emu", &rec.effects, code) {
        return Err(d);
    }
    if let Some(d) = ref_state.diff("reference", &emu_state, "emu") {
        return Err(format!("final state divergence: {d}"));
    }
    if let Ok(stats) = res {
        let same = stats.dyn_instrs == ref_run.dyn_instrs
            && stats.counts == ref_run.counts
            && stats.scalar_region_instrs == ref_run.scalar_region_instrs
            && stats.vector_region_instrs == ref_run.vector_region_instrs
            && stats.element_ops == ref_run.element_ops;
        if !same {
            return Err(format!(
                "stats divergence: reference \
                 dyn={} counts={:?} sreg={} vreg={} elems={} / emu \
                 dyn={} counts={:?} sreg={} vreg={} elems={}",
                ref_run.dyn_instrs,
                ref_run.counts,
                ref_run.scalar_region_instrs,
                ref_run.vector_region_instrs,
                ref_run.element_ops,
                stats.dyn_instrs,
                stats.counts,
                stats.scalar_region_instrs,
                stats.vector_region_instrs,
                stats.element_ops,
            ));
        }
    }
    Ok(ref_state)
}

/// The committed corpus directory (`crates/conform/corpus`).
#[must_use]
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Runs one corpus file: reference-vs-emulator differential plus the
/// `.expect.json` fixture check.  With `regen`, rewrites the fixture
/// instead of comparing.
#[must_use]
pub fn run_case(path: &Path, regen: bool) -> CaseResult {
    let name = path.file_stem().map_or_else(
        || path.display().to_string(),
        |s| s.to_string_lossy().into_owned(),
    );
    let fail = |m: String| CaseResult {
        name: name.clone(),
        failure: Some(m),
    };

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(format!("unreadable: {e}")),
    };
    let cp = match CorpusProgram::parse(&text) {
        Ok(cp) => cp,
        Err(e) => return fail(format!("parse error: {e}")),
    };
    let state = match differential(&cp, MAX_INSTRS) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };

    let fixture = path.with_extension("expect.json");
    let rendered = serde_json::to_string_pretty(&state).expect("state serializes");
    if regen {
        if let Err(e) = std::fs::write(&fixture, rendered + "\n") {
            return fail(format!("cannot write fixture: {e}"));
        }
        return CaseResult {
            name,
            failure: None,
        };
    }
    let expect_text = match std::fs::read_to_string(&fixture) {
        Ok(t) => t,
        Err(_) => {
            return fail(format!(
                "missing fixture {} (run with CONFORM_REGEN=1 to create it)",
                fixture.display()
            ))
        }
    };
    let expected: ArchState = match serde_json::from_str(&expect_text) {
        Ok(s) => s,
        Err(e) => return fail(format!("bad fixture JSON: {e:?}")),
    };
    if let Some(d) = expected.diff("expected", &state, "actual") {
        return fail(format!("fixture mismatch: {d}"));
    }
    CaseResult {
        name,
        failure: None,
    }
}

/// Runs the whole corpus in deterministic (sorted) order.
///
/// Reads `CONFORM_REGEN=1` from the environment to rewrite fixtures.
#[must_use]
pub fn run_corpus(dir: &Path) -> Vec<CaseResult> {
    let regen = std::env::var("CONFORM_REGEN").is_ok_and(|v| v == "1");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "s"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files.iter().map(|p| run_case(p, regen)).collect()
}

/// Renders a one-line-per-failure summary plus the pass/fail counters
/// the CI smoke job greps for.
#[must_use]
pub fn summarize(results: &[CaseResult]) -> String {
    let mut out = String::new();
    for r in results {
        if let Some(f) = &r.failure {
            let _ = writeln!(out, "FAIL {}: {f}", r.name);
        }
    }
    let passed = results.iter().filter(|r| r.ok()).count();
    let _ = writeln!(
        out,
        "conform-corpus: {passed} passed, {} failed, {} total",
        results.len() - passed,
        results.len()
    );
    out
}
