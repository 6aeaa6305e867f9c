//! `conform` — conformance subsystem CLI.
//!
//! ```text
//! conform run  [--corpus DIR]          # corpus through reference and emulator
//! conform fuzz [--cases N] [--seed S]  # differential fuzzing
//! conform lint [NAME ...]              # lint built-in kernels/apps (all by default)
//! conform smoke [--cases N]            # run + fuzz + lint; prints the CI line
//! ```
//!
//! Exit status is non-zero on any corpus failure, fuzz divergence or
//! lint *error* (warnings never fail the build).

use simdsim_conform::{corpus, error_count, fuzz_many, lint, Severity};
use simdsim_isa::Ext;
use simdsim_kernels::Variant;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: conform run [--corpus DIR]\n       \
         conform fuzz [--cases N] [--seed S]\n       \
         conform lint [NAME ...]\n       \
         conform smoke [--cases N]"
    );
    ExitCode::from(2)
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Corpus pass/fail; prints per-failure detail and the counter line.
fn cmd_run(dir: &Path) -> (usize, usize) {
    let results = corpus::run_corpus(dir);
    print!("{}", corpus::summarize(&results));
    let passed = results.iter().filter(|r| r.ok()).count();
    (passed, results.len())
}

/// Fuzz pass/fail; prints seeds and listings for divergences.
fn cmd_fuzz(seed: u64, cases: u64) -> (u64, u64) {
    let (passed, failures) = fuzz_many(seed, cases);
    for f in &failures {
        println!(
            "FAIL seed {}: {}",
            f.seed,
            f.failure.as_deref().unwrap_or("")
        );
        if let Some(l) = &f.listing {
            println!("{l}");
        }
    }
    println!(
        "conform-fuzz: {passed} passed, {} failed, {cases} total (seed base {seed})",
        failures.len()
    );
    (passed, cases)
}

/// Lints every built-in kernel and application program across all
/// variants (or just the named ones); returns (errors, warnings).
fn cmd_lint(names: &[String]) -> (usize, usize) {
    let mut errors = 0;
    let mut warnings = 0;
    let mut targets: Vec<(String, Ext, simdsim_isa::Program)> = Vec::new();
    for k in simdsim_kernels::registry() {
        let name = k.spec().name;
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        for v in Variant::ALL {
            let built = k.build(v);
            targets.push((
                format!("kernel {name}/{}", v.name()),
                v.machine_ext(),
                built.program,
            ));
        }
    }
    for a in simdsim_apps::registry() {
        let name = a.spec().name;
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        for v in Variant::ALL {
            let built = a.build(v);
            targets.push((
                format!("app {name}/{}", v.name()),
                v.machine_ext(),
                built.program,
            ));
        }
    }
    for (label, ext, program) in &targets {
        let diags = lint(program, *ext);
        for d in &diags {
            if d.severity == Severity::Error {
                println!("{label}: {}", d.render(program.code()));
            }
        }
        errors += error_count(&diags);
        warnings += diags.len() - error_count(&diags);
    }
    println!(
        "conform-lint: {} programs, {errors} errors, {warnings} warnings",
        targets.len()
    );
    (errors, warnings)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "run" => {
            let dir = flag_value(rest, "--corpus").map_or_else(corpus::corpus_dir, PathBuf::from);
            let (passed, total) = cmd_run(&dir);
            if passed == total && total > 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "fuzz" => {
            let cases = flag_value(rest, "--cases")
                .and_then(|v| v.parse().ok())
                .unwrap_or(200);
            let seed = flag_value(rest, "--seed")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1);
            let (passed, total) = cmd_fuzz(seed, cases);
            if passed == total {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "lint" => {
            let (errors, _) = cmd_lint(rest);
            if errors == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "smoke" => {
            let cases = flag_value(rest, "--cases")
                .and_then(|v| v.parse().ok())
                .unwrap_or(200);
            let (cp, ct) = cmd_run(&corpus::corpus_dir());
            let (fp, ft) = cmd_fuzz(1, cases);
            let (errors, warnings) = cmd_lint(&[]);
            let ok = cp == ct && ct > 0 && fp == ft && errors == 0;
            println!(
                "conform-smoke: corpus {cp}/{ct} fuzz {fp}/{ft} lint {errors} errors \
                 {warnings} warnings => {}",
                if ok { "PASS" } else { "FAIL" }
            );
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
