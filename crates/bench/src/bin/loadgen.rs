//! `loadgen` — hammer a running `simdsim-serve` daemon from N client
//! threads and report request-latency percentiles.
//!
//! ```console
//! $ loadgen --spawn                        # self-contained: in-process server
//! $ loadgen --addr 127.0.0.1:8844          # against an external daemon
//! $ loadgen --clients 64 --requests 4 --scenario fig4 --filter /idct/
//! $ loadgen --spawn --fleet 2              # shard cells across 2 fleet workers
//! ```
//!
//! Each client drives one [`SimdsimClient`] keep-alive connection —
//! exactly the typed wire path every other consumer uses — submitting its
//! sweeps and streaming each to completion through the `?since=` cursor.
//! The summary (submit latency = `POST /v1/sweeps` round trip, complete
//! latency = submit→terminal including queueing and simulation) is
//! printed and merged into `BENCH_simdsim.json` — under the `"loadgen"`
//! key normally, or `"loadgen_fleet"` when `--fleet N` shards cells over
//! in-process workers — where CI compares p99s against the committed
//! baseline, one gate per profile.

use serde::{Serialize, Value};
use simdsim_api::{JobState, SweepRequest};
use simdsim_client::{spawn_worker, SimdsimClient, WorkerConfig};
use simdsim_serve::{Server, ServerConfig};
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: loadgen [--spawn | --addr HOST:PORT] [OPTIONS]

Load-test a simdsim-serve daemon and report latency percentiles.

options:
  --spawn          start an in-process server on an ephemeral port
  --addr H:P       target an externally running daemon (default 127.0.0.1:8844)
  --clients N      concurrent client threads (default 64)
  --requests N     sweeps submitted per client (default 2)
  --scenario NAME  scenario to submit (default fig4)
  --filter SUB     cell-label filter sent with each sweep (default /idct/)
  --fleet N        spawn N in-process fleet workers; jobs shard across them
                   instead of the server's local pool (default 0: no fleet);
                   the summary then lands under the `loadgen_fleet` key
  --out PATH       artifact to merge the summary into (default BENCH_simdsim.json)
  --help           print this help";

/// Latency percentiles in milliseconds.
#[derive(Debug, Clone, Copy, Serialize)]
struct Percentiles {
    p50: f64,
    p90: f64,
    p99: f64,
    max: f64,
}

impl Percentiles {
    fn from_sorted(sorted_ms: &[f64]) -> Self {
        let at = |p: f64| {
            if sorted_ms.is_empty() {
                return 0.0;
            }
            let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
            sorted_ms[idx.min(sorted_ms.len() - 1)]
        };
        Self {
            p50: at(50.0),
            p90: at(90.0),
            p99: at(99.0),
            max: sorted_ms.last().copied().unwrap_or(0.0),
        }
    }
}

/// The `"loadgen"` section of `BENCH_simdsim.json`.
#[derive(Debug, Serialize)]
struct LoadgenSummary {
    scenario: String,
    filter: Option<String>,
    clients: usize,
    requests_per_client: usize,
    fleet_workers: usize,
    total_requests: usize,
    ok: usize,
    errors: usize,
    deduped: usize,
    wall_s: f64,
    sweeps_per_second: f64,
    submit_ms: Percentiles,
    complete_ms: Percentiles,
}

struct Cli {
    spawn: bool,
    addr: String,
    clients: usize,
    requests: usize,
    scenario: String,
    filter: Option<String>,
    fleet: usize,
    out: String,
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        spawn: false,
        addr: "127.0.0.1:8844".to_owned(),
        clients: 64,
        requests: 2,
        scenario: "fig4".to_owned(),
        filter: Some("/idct/".to_owned()),
        fleet: 0,
        out: "BENCH_simdsim.json".to_owned(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let num = |v: String, flag: &str| {
            v.parse::<usize>()
                .map_err(|_| format!("{flag} expects a number, got `{v}`"))
        };
        match a.as_str() {
            "--spawn" => cli.spawn = true,
            "--addr" => cli.addr = value("--addr")?,
            "--clients" => cli.clients = num(value("--clients")?, "--clients")?.max(1),
            "--requests" => cli.requests = num(value("--requests")?, "--requests")?.max(1),
            "--scenario" => cli.scenario = value("--scenario")?,
            "--filter" => cli.filter = Some(value("--filter")?),
            "--no-filter" => cli.filter = None,
            "--fleet" => cli.fleet = num(value("--fleet")?, "--fleet")?,
            "--out" => cli.out = value("--out")?,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            flag => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(Some(cli))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = main_impl(&args).map_or_else(
        |msg| {
            eprintln!("loadgen: {msg}");
            2
        },
        |()| 0,
    );
    std::process::exit(code);
}

/// One client's share of the run: `requests` submit→poll cycles on one
/// keep-alive typed client.  Returns (submit_ms, complete_ms, errors,
/// deduped).
fn run_client(
    addr: &str,
    request: &SweepRequest,
    requests: usize,
) -> (Vec<f64>, Vec<f64>, usize, usize) {
    let timeout = Duration::from_secs(300);
    let mut submits = Vec::with_capacity(requests);
    let mut completes = Vec::with_capacity(requests);
    let mut errors = 0usize;
    let mut deduped = 0usize;
    let Ok(mut client) = SimdsimClient::connect(addr, timeout) else {
        return (submits, completes, requests, 0);
    };
    for _ in 0..requests {
        let start = Instant::now();
        let sub = match client.submit(request) {
            Ok(sub) => sub,
            Err(_) => {
                errors += 1;
                continue;
            }
        };
        submits.push(start.elapsed().as_secs_f64() * 1.0e3);
        deduped += usize::from(sub.deduped);

        match client.wait_timeout(sub.id, Duration::from_millis(5), timeout) {
            Ok(status) if status.state == JobState::Done => {
                completes.push(start.elapsed().as_secs_f64() * 1.0e3);
            }
            _ => errors += 1,
        }
    }
    (submits, completes, errors, deduped)
}

fn main_impl(args: &[String]) -> Result<(), String> {
    let Some(cli) = parse_args(args)? else {
        return Ok(());
    };

    // --spawn runs a self-contained benchmark: in-process daemon on an
    // ephemeral port with the workspace-standard cache dir.
    let server = if cli.spawn {
        Some(
            Server::start(ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                cache_dir: Some(simdsim_bench::cache_dir()),
                ..ServerConfig::default()
            })
            .map_err(|e| format!("spawning in-process server: {e}"))?,
        )
    } else {
        None
    };
    let addr = server
        .as_ref()
        .map_or(cli.addr.clone(), |s| s.addr().to_string());

    // The fleet profile: join N in-process workers so every sweep shards
    // across the wire protocol instead of the server's local pool.
    let workers: Vec<_> = (0..cli.fleet)
        .map(|i| {
            spawn_worker(WorkerConfig {
                addr: addr.clone(),
                name: format!("loadgen-w{i}"),
                slots: 2,
                ..WorkerConfig::default()
            })
        })
        .collect();
    if !workers.is_empty() {
        let mut probe = SimdsimClient::connect(&addr, Duration::from_secs(60))
            .map_err(|e| format!("probing fleet at {addr}: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let fleet = probe
                .fleet_status()
                .map_err(|e| format!("fleet status: {e}"))?;
            if fleet.workers.iter().filter(|w| w.live).count() >= cli.fleet {
                break;
            }
            if Instant::now() >= deadline {
                return Err(format!("fleet never reached {} workers", cli.fleet));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    let mut request = SweepRequest::by_name(&cli.scenario);
    if let Some(f) = &cli.filter {
        request = request.filter(f.clone());
    }
    println!(
        "loadgen: {} clients x {} requests of `{}` against {addr}{}",
        cli.clients,
        cli.requests,
        cli.scenario,
        if cli.fleet > 0 {
            format!(" (fleet of {})", cli.fleet)
        } else {
            String::new()
        }
    );

    let start = Instant::now();
    let results: Vec<(Vec<f64>, Vec<f64>, usize, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cli.clients)
            .map(|_| {
                let addr = addr.clone();
                let request = request.clone();
                let requests = cli.requests;
                s.spawn(move || run_client(&addr, &request, requests))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut submit_ms: Vec<f64> = results.iter().flat_map(|(s, _, _, _)| s.clone()).collect();
    let mut complete_ms: Vec<f64> = results.iter().flat_map(|(_, c, _, _)| c.clone()).collect();
    let errors: usize = results.iter().map(|(_, _, e, _)| e).sum();
    let deduped: usize = results.iter().map(|(_, _, _, d)| d).sum();
    submit_ms.sort_by(f64::total_cmp);
    complete_ms.sort_by(f64::total_cmp);

    let total = cli.clients * cli.requests;
    let summary = LoadgenSummary {
        scenario: cli.scenario.clone(),
        filter: cli.filter.clone(),
        clients: cli.clients,
        requests_per_client: cli.requests,
        fleet_workers: cli.fleet,
        total_requests: total,
        ok: complete_ms.len(),
        errors,
        deduped,
        wall_s,
        sweeps_per_second: if wall_s > 0.0 {
            complete_ms.len() as f64 / wall_s
        } else {
            0.0
        },
        submit_ms: Percentiles::from_sorted(&submit_ms),
        complete_ms: Percentiles::from_sorted(&complete_ms),
    };

    println!(
        "{} ok / {} errors ({} deduped) in {:.2}s ({:.1} sweeps/s)",
        summary.ok, summary.errors, summary.deduped, summary.wall_s, summary.sweeps_per_second
    );
    println!(
        "submit   p50 {:.2}ms  p90 {:.2}ms  p99 {:.2}ms  max {:.2}ms",
        summary.submit_ms.p50, summary.submit_ms.p90, summary.submit_ms.p99, summary.submit_ms.max
    );
    println!(
        "complete p50 {:.2}ms  p90 {:.2}ms  p99 {:.2}ms  max {:.2}ms",
        summary.complete_ms.p50,
        summary.complete_ms.p90,
        summary.complete_ms.p99,
        summary.complete_ms.max
    );
    if let Some(server) = &server {
        print!(
            "{}",
            simdsim::report::render_server_stats(server.metrics(), &server.gauges())
        );
    }

    // The fleet profile measures a different path (lease/report over the
    // wire), so it keeps its own baseline section and its own CI gate.
    let section = if cli.fleet > 0 {
        "loadgen_fleet"
    } else {
        "loadgen"
    };
    merge_summary(&cli.out, section, &summary)?;
    println!("merged `{section}` summary into {}", cli.out);

    for (i, w) in workers.into_iter().enumerate() {
        let stats = w
            .stop()
            .map_err(|e| format!("fleet worker {i} failed: {e}"))?;
        println!(
            "fleet worker {i}: {} leases, {} simulated, {} cached",
            stats.leases, stats.simulated, stats.cached
        );
    }
    if let Some(server) = server {
        server.shutdown();
    }
    if summary.ok == 0 {
        return Err("no sweep completed".to_owned());
    }
    Ok(())
}

/// Upserts one loadgen section of the (possibly existing) artifact.
fn merge_summary(path: &str, section: &str, summary: &LoadgenSummary) -> Result<(), String> {
    let base = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| serde_json::from_str::<Value>(&t).ok());
    let mut pairs = match base {
        Some(Value::Object(pairs)) => pairs,
        _ => vec![(
            "bench".to_owned(),
            Value::Str("simdsim-throughput".to_owned()),
        )],
    };
    let entry = serde::Serialize::to_value(summary);
    match pairs.iter_mut().find(|(k, _)| k == section) {
        Some((_, v)) => *v = entry,
        None => pairs.push((section.to_owned(), entry)),
    }
    std::fs::write(
        path,
        serde_json::to_string_pretty(&Value::Object(pairs)).expect("artifact serializes"),
    )
    .map_err(|e| format!("writing {path}: {e}"))
}
