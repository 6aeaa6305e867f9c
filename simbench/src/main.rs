//! `simbench` — the simdsim benchmark.
//!
//! ```console
//! $ cargo run --release --manifest-path simbench/Cargo.toml -- \
//!       --workload fig5_apps --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three workloads (see `README.md`): `fig5_apps` and `kernel_cells`
//! replay catalog scenarios through `sweep::run`; `service_mix` drives an
//! in-process `serve` and fleet worker over HTTP.  A run sets up several
//! times (reporting the median as `setup_s`), measures for `--seconds`,
//! puts its timed figures at nominal host speed (see `host`),
//! checks every output, writes its full record under `simbench/out/` and
//! prints one JSON line last: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.  Exit status 0 means every output
//! checked out; 1 means some did not; 2 means the run could not be made.

mod golden;
mod host;
mod layers;
mod mix;
mod replay;
mod report;
mod service;
mod stats;
mod trace;

use host::HostSpeed;
use report::{Metric, Provenance, Record, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Reference-loop runs just before and just after each set-up (see `host`).
const SETUP_HOST_CALLS: usize = 3;

const USAGE: &str = "\
usage: simbench --workload NAME --seed N --seconds S --trace 0|1

workloads: fig5_apps, kernel_cells, service_mix";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig5Apps,
    KernelCells,
    ServiceMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fig5_apps" => Some(Self::Fig5Apps),
            "kernel_cells" => Some(Self::KernelCells),
            "service_mix" => Some(Self::ServiceMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Fig5Apps => "fig5_apps",
            Self::KernelCells => "kernel_cells",
            Self::ServiceMix => "service_mix",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                let v: f64 = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(v > 0.0 && v.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(v);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got `{v}`")),
                });
            }
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checkout the benchmark was built in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args).unwrap_or_else(|e| {
        eprintln!("simbench: {e}");
        2
    });
    std::process::exit(code);
}

/// Set-up times as measured, and the host's slowdown around each.
struct SetupTimes {
    times: Vec<f64>,
    scales: Vec<f64>,
}

/// Sets up `SETUPS` times, keeping the last set-up and every duration.
/// The host's slowdown around each set-up is the mean of the reference
/// loop's spot scales just before and just after it: the host's slow
/// phases last seconds, so a set-up shares its neighbours' phase.
fn set_up<S>(
    host: &mut HostSpeed,
    mut make: impl FnMut(usize) -> Result<S, String>,
    mut discard: impl FnMut(S),
) -> Result<(S, SetupTimes), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut scales = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for attempt in 0..SETUPS {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let before = host.spot_scale(SETUP_HOST_CALLS);
        let start = Instant::now();
        kept = Some(make(attempt)?);
        times.push(start.elapsed().as_secs_f64());
        scales.push((before + host.spot_scale(SETUP_HOST_CALLS)) / 2.0);
    }
    let kept = kept.expect("at least one set-up");
    Ok((kept, SetupTimes { times, scales }))
}

fn run(args: &[String]) -> Result<i32, String> {
    let args = parse_args(args)?;
    let root = repo_root();
    let golden = root.join("tests").join("golden").join("pipestats.json");
    let work = root.join("simbench").join("out");
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let tracer = trace::Tracer::new(args.trace);

    // `peak_rss_mb` is the timed window's high-water mark: the repeated
    // set-ups are the benchmark's own, so their mark is recorded apart.
    let mut host = HostSpeed::default();
    let (mut outcome, setup_times, setup_rss, engine_threads, clients) = match args.workload {
        Workload::Fig5Apps | Workload::KernelCells => {
            let grid = if args.workload == Workload::Fig5Apps {
                replay::Grid::Apps
            } else {
                replay::Grid::Kernels
            };
            let (setup, times) = set_up(&mut host, |_| replay::setup(grid, &golden), drop)?;
            replay::warm_up(&setup)?;
            let setup_rss = report::restart_peak_rss();
            let out = replay::run_window(&setup, args.seconds, &tracer, &mut host);
            (out, times, setup_rss, replay::ENGINE_THREADS, 0)
        }
        Workload::ServiceMix => {
            let (setup, times) = set_up(
                &mut host,
                |attempt| service::setup(args.seed, &golden, &work, attempt),
                service::Setup::teardown,
            )?;
            let setup_rss = report::restart_peak_rss();
            let mut out = service::run_window(&setup, args.seconds, &tracer, &mut host);
            // The loop runs on this thread while the clients, server and
            // worker keep both cores busy, so its slower samples measure
            // that load too; its fast end measures the host.
            out.all_at_nominal(host.fast_scale());
            setup.teardown();
            (
                out,
                times,
                setup_rss,
                service::ENGINE_THREADS,
                service::clients(),
            )
        }
    };
    outcome.detail(
        "setup_peak_rss_mb",
        setup_rss.map_or(serde::Value::Null, serde::Value::Float),
    );

    let floats =
        |xs: &[f64]| serde::Value::Array(xs.iter().map(|&x| serde::Value::Float(x)).collect());
    let at_nominal: Vec<f64> = (setup_times.times.iter())
        .zip(&setup_times.scales)
        .map(|(t, scale)| host::at_nominal(*t, "s", *scale))
        .collect();
    outcome.metric("setup_s", stats::median(&at_nominal), "s", SETUPS);
    outcome.unscaled.push((
        "setup_s".to_owned(),
        serde::Value::Float(stats::median(&setup_times.times)),
    ));
    outcome.detail(
        "host",
        serde::Value::Object(vec![
            ("nominal_s".to_owned(), serde::Value::Float(host::NOMINAL_S)),
            ("setup_scales".to_owned(), floats(&setup_times.scales)),
            ("window".to_owned(), host.to_value()),
        ]),
    );
    let mut measured = outcome.metrics.clone();
    measured.push(Metric::new("peak_rss_mb", report::peak_rss_mb(), "MB", 1));
    let end_to_end = report::complete(&END_TO_END, &measured);
    let printed = if args.trace {
        let mut layers = outcome.layers.clone();
        if let Some(o) = outcome.trace_overhead {
            layers.push(Metric::new("trace.overhead", o, "ratio", 2));
        }
        report::complete(&PER_LAYER, &layers)
    } else {
        end_to_end.clone()
    };
    for m in &printed {
        if !m.value.is_finite() || (!args.trace && m.value <= 0.0) {
            outcome.fail(format!("metric {} measured {}", m.name, m.value));
        }
    }

    let provenance = Provenance::collect(&root, engine_threads, clients, args.seed);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = Record {
        workload: args.workload.name(),
        seconds: args.seconds,
        trace: args.trace,
        provenance: &provenance,
        outcome: &outcome,
        printed: &printed,
        end_to_end: &end_to_end,
        setup_runs: &setup_times.times,
    };
    let path = work.join(format!("{stem}.json"));
    std::fs::write(&path, record.to_json())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    if args.trace {
        let spans = tracer.spans();
        let path = work.join(format!("{stem}.spans.jsonl"));
        trace::write_jsonl(&path, &spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "{:<34} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, count, total, own) in trace::summarize(&spans) {
            println!(
                "{name:<34} {count:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    for f in &outcome.failures {
        eprintln!("simbench: FAILED {f}");
    }
    println!("record: {}", path.display());
    let correct = outcome.failed == 0;
    println!(
        "{}",
        report::result_line(correct, outcome.attempted.max(1), outcome.failed, &printed)
    );
    Ok(if correct { 0 } else { 1 })
}
