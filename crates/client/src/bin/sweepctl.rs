//! `sweepctl` — command-line client for the simdsim v1 sweep API.
//!
//! ```console
//! $ sweepctl health
//! $ sweepctl scenarios
//! $ sweepctl submit --scenario fig4 --filter /idct/
//! $ sweepctl submit --batch sweeps.json              # many sweeps, one request
//! $ sweepctl run --scenario fig4 --filter /idct/     # submit + stream + summary
//! $ sweepctl stream 3                                # follow an existing job
//! $ sweepctl status 3
//! $ sweepctl watch 3                                 # live progress until terminal
//! $ sweepctl top                                     # live fleet dashboard
//! $ sweepctl cancel 3
//! $ sweepctl list
//! $ sweepctl worker --name w1 --slots 2              # join the fleet
//! $ sweepctl fleet status                            # who's in the fleet
//! $ sweepctl store export > snap.json                # share the result store
//! $ sweepctl store import snap.json
//! $ sweepctl --json list                             # one JSON object per line
//! ```
//!
//! Exit codes: `0` success, `1` the job failed or was cancelled (for
//! `submit --batch`: any item rejected), `2` usage/transport/API errors.

use simdsim_api::{
    CellResult, FleetStatus, ProfileResponse, Scenario, StoreSnapshot, SweepRequest, SweepStatus,
};
use simdsim_client::{run_worker, ClientError, SimdsimClient, WorkerConfig};
use simdsim_obs::quantile_from_buckets;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

/// Prints a line to stdout, ignoring broken-pipe errors: `sweepctl ... |
/// grep -q` closes the pipe early, which must not be a panic.
fn say(line: std::fmt::Arguments) {
    use std::io::Write as _;
    let mut out = std::io::stdout();
    let _ = out.write_fmt(line);
    let _ = out.write_all(b"\n");
}

/// [`say`] for stderr (progress notes, summaries).
fn esay(line: std::fmt::Arguments) {
    use std::io::Write as _;
    let mut out = std::io::stderr();
    let _ = out.write_fmt(line);
    let _ = out.write_all(b"\n");
}

const USAGE: &str = "\
usage: sweepctl [--addr HOST:PORT] [--timeout SECS] [--json] COMMAND [ARGS]

Drive a simdsim-serve daemon through the typed v1 client.

commands:
  health                     liveness + API version + queue depth
  scenarios                  list catalog + user scenarios
  list                       list every job the server knows
  submit [SWEEP OPTIONS]     submit a sweep, print its id, return
  submit --batch PATH        submit a JSON array of sweeps in one request
  run    [SWEEP OPTIONS]     submit, stream cells as they resolve, summarise
  status ID                  one job's status document (JSON)
  profile ID                 the job's aggregated CPI stack as a table
  stream ID                  follow a job's per-cell stream to completion
  watch  ID                  poll a job's progress live until it finishes
  top                        live fleet dashboard (/metrics + /v1/workers)
  cancel ID                  cancel a queued/running job
  worker [WORKER OPTIONS]    join the daemon's fleet and simulate leased cells
  fleet status               list the fleet: workers, liveness, pending cells
  store export               print the server's result-store snapshot (JSON)
  store import PATH          import a snapshot file (`-` reads stdin)
sweep options:
  --scenario NAME            a catalog/user scenario by name
  --file PATH                an inline scenario from a JSON document
  --filter SUBSTRING         keep only cells whose label matches
worker options:
  --name NAME                worker name shown in fleet status (default: worker)
  --slots N                  concurrent simulation slots (default: all cores)
  --cache-dir DIR            local content-addressed store for leased cells
  --warm-start               seed --cache-dir from the server's snapshot
global options:
  --addr HOST:PORT           daemon address (default 127.0.0.1:8844)
  --timeout SECS             per-request socket timeout (default 300)
  --json                     machine output: one JSON object per line
  --help                     print this help";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match main_impl(&args) {
        Ok(code) => code,
        Err(msg) => {
            esay(format_args!("sweepctl: {msg}"));
            2
        }
    };
    std::process::exit(code);
}

struct Global {
    addr: String,
    timeout: Duration,
    json: bool,
}

/// Prints one DTO as a single JSON line (the `--json` output contract).
fn jline<T: serde::Serialize>(dto: &T) {
    say(format_args!(
        "{}",
        serde_json::to_string(dto).expect("DTO serializes")
    ));
}

fn main_impl(args: &[String]) -> Result<i32, String> {
    let mut global = Global {
        addr: "127.0.0.1:8844".to_owned(),
        timeout: Duration::from_secs(300),
        json: false,
    };
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--addr" => global.addr = value("--addr")?,
            "--timeout" => {
                let v = value("--timeout")?;
                let secs: u64 = v
                    .parse()
                    .map_err(|_| format!("--timeout expects seconds, got `{v}`"))?;
                global.timeout = Duration::from_secs(secs.max(1));
            }
            "--json" => global.json = true,
            "--help" | "-h" => {
                say(format_args!("{USAGE}"));
                return Ok(0);
            }
            _ => rest.push(a.clone()),
        }
    }
    let Some((command, cmd_args)) = rest.split_first() else {
        return Err(format!("a command is required\n{USAGE}"));
    };

    // The worker runs its own connection loop (registration, leases).
    if command == "worker" {
        return run_worker_command(&global, cmd_args);
    }

    let mut client = SimdsimClient::connect(&global.addr, global.timeout)
        .map_err(|e| format!("connecting to {}: {e}", global.addr))?;
    let fail = |e: ClientError| e.to_string();

    match command.as_str() {
        "health" => {
            let h = client.health().map_err(fail)?;
            if global.json {
                jline(&h);
            } else {
                say(format_args!(
                    "{} (api {}, queue depth {})",
                    h.status, h.version, h.queue_depth
                ));
            }
            Ok(0)
        }
        "scenarios" => {
            let list = client.scenarios().map_err(fail)?;
            for s in &list {
                if global.json {
                    jline(s);
                } else {
                    say(format_args!(
                        "{:<16} {:>4} cells  [{}]  {}",
                        s.name, s.cells, s.source, s.description
                    ));
                }
            }
            Ok(0)
        }
        "list" => {
            let list = client.list().map_err(fail)?;
            for j in &list.jobs {
                if global.json {
                    jline(j);
                } else {
                    say(format_args!(
                        "#{:<6} {:<10} {:>4}/{:<4} cells  {}{}",
                        j.id,
                        j.state,
                        j.progress.completed,
                        j.progress.total,
                        j.scenario,
                        j.filter
                            .as_deref()
                            .map(|f| format!("  filter={f}"))
                            .unwrap_or_default()
                    ));
                }
            }
            Ok(0)
        }
        "submit" if cmd_args.first().is_some_and(|a| a == "--batch") => {
            let [_, path] = cmd_args else {
                return Err("submit --batch expects exactly one PATH".to_owned());
            };
            let text = read_input(path)?;
            let sweeps: Vec<SweepRequest> = serde_json::from_str(&text)
                .map_err(|e| format!("parsing {path} as a JSON array of sweeps: {e}"))?;
            let batch = client.submit_batch(&sweeps).map_err(fail)?;
            let mut rejected = 0;
            for (i, item) in batch.items.iter().enumerate() {
                if global.json {
                    jline(item);
                    if item.error.is_some() {
                        rejected += 1;
                    }
                    continue;
                }
                match (&item.submit, &item.error) {
                    (Some(sub), _) => say(format_args!(
                        "[{i}] job {} {} ({}{})",
                        sub.id,
                        sub.url,
                        sub.state,
                        if sub.deduped { ", deduped" } else { "" }
                    )),
                    (None, Some(e)) => {
                        rejected += 1;
                        say(format_args!("[{i}] rejected: {e}"));
                    }
                    (None, None) => say(format_args!("[{i}] malformed batch item")),
                }
            }
            Ok(i32::from(rejected > 0))
        }
        "submit" => {
            let request = parse_sweep_request(cmd_args)?;
            let sub = client.submit(&request).map_err(fail)?;
            if global.json {
                jline(&sub);
            } else {
                say(format_args!(
                    "job {} {} ({}{}){}",
                    sub.id,
                    sub.url,
                    sub.state,
                    if sub.deduped { ", deduped" } else { "" },
                    trace_suffix(sub.trace.as_deref())
                ));
            }
            Ok(0)
        }
        "run" => {
            let request = parse_sweep_request(cmd_args)?;
            let sub = client.submit(&request).map_err(fail)?;
            if global.json {
                jline(&sub);
            } else {
                esay(format_args!(
                    "submitted job {}{}{}",
                    sub.id,
                    if sub.deduped {
                        " (deduped onto an identical in-flight job)"
                    } else {
                        ""
                    },
                    trace_suffix(sub.trace.as_deref())
                ));
            }
            let on_cell = cell_printer(global.json);
            let status = client.stream_cells(sub.id, on_cell).map_err(fail)?;
            Ok(summarise(&status, global.json))
        }
        "status" => {
            let id = parse_id(cmd_args)?;
            let status = client.status(id).map_err(fail)?;
            if global.json {
                jline(&status);
            } else {
                say(format_args!(
                    "{}",
                    serde_json::to_string_pretty(&status).expect("status serializes")
                ));
            }
            Ok(0)
        }
        "profile" => {
            let id = parse_id(cmd_args)?;
            let p = client.profile(id).map_err(fail)?;
            if global.json {
                jline(&p);
            } else {
                render_profile(&p);
            }
            Ok(0)
        }
        "stream" => {
            let id = parse_id(cmd_args)?;
            let on_cell = cell_printer(global.json);
            let status = client.stream_cells(id, on_cell).map_err(fail)?;
            Ok(summarise(&status, global.json))
        }
        "watch" => {
            let id = parse_id(cmd_args)?;
            watch_command(&mut client, id, global.json)
        }
        "top" => top_command(&mut client, &global),
        "cancel" => {
            let id = parse_id(cmd_args)?;
            let status = client.cancel(id).map_err(fail)?;
            if global.json {
                jline(&status);
            } else {
                say(format_args!("job {} is now {}", id, status.state));
            }
            Ok(0)
        }
        "fleet" => {
            if cmd_args != ["status".to_owned()] {
                return Err(format!("usage: sweepctl fleet status\n{USAGE}"));
            }
            let fleet = client.fleet_status().map_err(fail)?;
            if global.json {
                jline(&fleet);
                return Ok(0);
            }
            say(format_args!(
                "{} workers, {} pending cells",
                fleet.workers.len(),
                fleet.pending_cells
            ));
            for w in &fleet.workers {
                say(format_args!(
                    "#{:<4} {:<16} {:<5} slots {:>2}  leased {:>4}  completed {:>6}  seen {}ms ago",
                    w.id,
                    w.name,
                    if w.live { "live" } else { "dead" },
                    w.slots,
                    w.leased,
                    w.completed,
                    w.last_seen_ms
                ));
            }
            Ok(0)
        }
        "store" => match cmd_args {
            [sub] if sub == "export" => {
                let snapshot = client.store_export().map_err(fail)?;
                // The snapshot *is* the JSON artifact in either mode.
                jline(&snapshot);
                Ok(0)
            }
            [sub, path] if sub == "import" => {
                let text = read_input(path)?;
                let snapshot: StoreSnapshot = serde_json::from_str(&text)
                    .map_err(|e| format!("parsing {path} as a store snapshot: {e}"))?;
                let imported = client.store_import(&snapshot).map_err(fail)?;
                if global.json {
                    jline(&imported);
                } else {
                    say(format_args!(
                        "imported {} cells ({} skipped)",
                        imported.imported, imported.skipped
                    ));
                }
                Ok(0)
            }
            _ => Err(format!(
                "usage: sweepctl store export | store import PATH\n{USAGE}"
            )),
        },
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

/// `sweepctl worker ...` — joins the fleet and simulates until killed.
fn run_worker_command(global: &Global, args: &[String]) -> Result<i32, String> {
    let mut cfg = WorkerConfig {
        addr: global.addr.clone(),
        timeout: global.timeout,
        ..WorkerConfig::default()
    };
    let mut slots_set = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--name" => cfg.name = value("--name")?,
            "--slots" => {
                let v = value("--slots")?;
                cfg.slots = v
                    .parse()
                    .map_err(|_| format!("--slots expects a number, got `{v}`"))?;
                slots_set = true;
            }
            "--cache-dir" => cfg.cache_dir = Some(value("--cache-dir")?.into()),
            "--warm-start" => cfg.warm_start = true,
            flag => return Err(format!("unknown worker option `{flag}`")),
        }
    }
    if !slots_set {
        // One slot per core: a worker's slots are both its concurrency
        // and its cells-per-lease, so the machine's parallelism is the
        // right default for a box someone just typed `sweepctl worker` on.
        cfg.slots = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    }
    if cfg.warm_start && cfg.cache_dir.is_none() {
        return Err("--warm-start needs --cache-dir".to_owned());
    }
    esay(format_args!(
        "worker `{}` joining fleet at {} ({} slots)",
        cfg.name, cfg.addr, cfg.slots
    ));
    // The worker runs until the process is killed; lease expiry and
    // eviction on the coordinator clean up after any exit.
    let stop = AtomicBool::new(false);
    run_worker(&cfg, &stop).map_err(|e| e.to_string())?;
    Ok(0)
}

/// `sweepctl profile ID` — renders the job's aggregated CPI stack as a
/// table: the issue row first, then every stall row largest-first, each
/// with its share of the job's total commit slots.  The shares sum to
/// 100% by the model's accounting invariant
/// (`issue + Σ stalls == cycles × way`).
fn render_profile(p: &ProfileResponse) {
    say(format_args!(
        "job {} {} — {} cells profiled, {} without a stack",
        p.id, p.state, p.cells, p.missing
    ));
    let Some(prof) = &p.profile else {
        say(format_args!(
            "no profile yet (no profiled cell has resolved — job queued, \
             profiling off, or results cached by a pre-profiler build)"
        ));
        return;
    };
    let way = if prof.way == 0 {
        "mixed".to_owned()
    } else {
        prof.way.to_string()
    };
    say(format_args!(
        "cycles {}  commit slots {}  way {}  cpi {:.3}",
        prof.cycles, prof.slots, way, prof.cpi
    ));
    let pct = |slots: u64| 100.0 * slots as f64 / prof.slots.max(1) as f64;
    say(format_args!(
        "{:<16} {:<8} {:>14} {:>7}",
        "cause", "region", "slots", "share"
    ));
    say(format_args!(
        "{:<16} {:<8} {:>14} {:>6.1}%",
        "issue",
        "-",
        prof.issue,
        pct(prof.issue)
    ));
    for e in &prof.stalls {
        say(format_args!(
            "{:<16} {:<8} {:>14} {:>6.1}%",
            e.cause,
            e.region,
            e.slots,
            pct(e.slots)
        ));
    }
    let classes: Vec<String> = prof
        .classes
        .iter()
        .map(|c| format!("{} {}", c.class, c.slots))
        .collect();
    say(format_args!("retired by class: {}", classes.join("  ")));
}

/// The polling core shared by `watch` and `top`: runs `tick` every
/// `interval` until it asks to stop (`Ok(false)`) or fails.
fn poll_loop(
    interval: Duration,
    mut tick: impl FnMut() -> Result<bool, String>,
) -> Result<(), String> {
    loop {
        if !tick()? {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// The trailing `  trace=...` of a human submit line (empty when the
/// server predates trace ids).
fn trace_suffix(trace: Option<&str>) -> String {
    trace.map(|t| format!("  trace={t}")).unwrap_or_default()
}

/// `sweepctl watch ID` — polls the job's status until it reaches a
/// terminal state.  Human mode rewrites one progress line in place;
/// `--json` prints one status document per poll, the exact stream a
/// supervisor would tail.
fn watch_command(client: &mut SimdsimClient, id: u64, json: bool) -> Result<i32, String> {
    use std::io::Write as _;
    let mut last_state = simdsim_api::JobState::Queued;
    let mut failed_polls = 0u32;
    poll_loop(Duration::from_millis(500), || {
        let status = match client.status(id) {
            Ok(s) => {
                failed_polls = 0;
                s
            }
            // A definitive "no such job" can't heal; stop immediately.
            // Anything else (restarting server, transient 5xx) gets a few
            // retries before the watch gives up.
            Err(e) => {
                if e.api_error()
                    .is_some_and(|err| err.code == simdsim_api::ErrorCode::UnknownJob)
                {
                    return Err(e.to_string());
                }
                failed_polls += 1;
                if failed_polls >= 5 {
                    return Err(format!("{e} ({failed_polls} consecutive failed polls)"));
                }
                if !json {
                    let mut out = std::io::stdout();
                    let _ = write!(out, "\r\x1b[2Kjob {id} n/a        (poll failed, retrying)");
                    let _ = out.flush();
                }
                return Ok(true);
            }
        };
        last_state = status.state;
        if json {
            jline(&status);
        } else {
            let mut out = std::io::stdout();
            let _ = write!(
                out,
                "\r\x1b[2Kjob {} {:<10} {:>4}/{:<4} cells ({} cached)",
                status.id,
                status.state.to_string(),
                status.progress.completed,
                status.progress.total,
                status.progress.cached
            );
            let _ = out.flush();
        }
        Ok(!status.state.is_terminal())
    })?;
    if !json {
        say(format_args!(""));
    }
    Ok(i32::from(last_state != simdsim_api::JobState::Done))
}

/// One refresh of the `top` dashboard, scraped from `/metrics` and
/// `GET /v1/workers`.  Latency quantiles come from the Prometheus
/// histogram buckets, so they match what any other scraper would derive.
/// Every field is optional: a family missing from the scrape, or a
/// fleet listing the server does not serve, renders as `n/a` (and as
/// `null` under `--json`) instead of killing the poll loop.
#[derive(serde::Serialize)]
struct TopSnapshot {
    queue_depth: Option<u64>,
    pending_cells: Option<u64>,
    workers_live: Option<u64>,
    workers_total: Option<u64>,
    simulated_mips: Option<f64>,
    http_requests: Option<u64>,
    http_p50_ms: Option<f64>,
    http_p99_ms: Option<f64>,
    reports: Option<u64>,
    report_p50_ms: Option<f64>,
    report_p99_ms: Option<f64>,
}

impl TopSnapshot {
    fn from_scrape(metrics: &str, fleet: Option<&FleetStatus>) -> Self {
        let http = histogram_quantiles(metrics, "simdsim_http_request_duration_ms");
        let report = histogram_quantiles(metrics, "simdsim_fleet_report_latency_ms");
        TopSnapshot {
            queue_depth: parse_gauge(metrics, "simdsim_queue_depth").map(|v| v as u64),
            pending_cells: fleet.map(|f| f.pending_cells),
            workers_live: fleet.map(|f| f.workers.iter().filter(|w| w.live).count() as u64),
            workers_total: fleet.map(|f| f.workers.len() as u64),
            simulated_mips: parse_gauge(metrics, "simdsim_simulated_mips"),
            http_requests: http.map(|(n, _, _)| n),
            http_p50_ms: http.map(|(_, p50, _)| p50),
            http_p99_ms: http.map(|(_, _, p99)| p99),
            reports: report.map(|(n, _, _)| n),
            report_p50_ms: report.map(|(_, p50, _)| p50),
            report_p99_ms: report.map(|(_, _, p99)| p99),
        }
    }
}

/// `Some` rendered to `places` decimals, `None` as `n/a`.
fn or_na_f(v: Option<f64>, places: usize) -> String {
    v.map_or_else(|| "n/a".to_owned(), |x| format!("{x:.places$}"))
}

/// `Some` rendered with `Display`, `None` as `n/a`.
fn or_na<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "n/a".to_owned(), |x| x.to_string())
}

/// The first sample of an unlabelled gauge/counter family, `None` when
/// the family is absent from the scrape.
fn parse_gauge(metrics: &str, name: &str) -> Option<f64> {
    metrics.lines().find_map(|line| {
        line.strip_prefix(name)?
            .strip_prefix(' ')?
            .trim()
            .parse()
            .ok()
    })
}

/// Total count plus (p50, p99) of one Prometheus histogram family,
/// summing `_bucket` series across label sets (valid because every series
/// of a family shares the same `le` bounds).  `None` when the family is
/// absent from the scrape.
fn histogram_quantiles(metrics: &str, family: &str) -> Option<(u64, f64, f64)> {
    let prefix = format!("{family}_bucket{{");
    let mut finite: Vec<(f64, u64)> = Vec::new();
    let mut inf = 0u64;
    let mut seen = false;
    for line in metrics.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let Some((labels, value)) = rest.rsplit_once("} ") else {
            continue;
        };
        let Some(le) = labels
            .split("le=\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
        else {
            continue;
        };
        let Ok(count) = value.trim().parse::<u64>() else {
            continue;
        };
        seen = true;
        if le == "+Inf" {
            inf += count;
        } else if let Ok(bound) = le.parse::<f64>() {
            match finite.iter_mut().find(|(b, _)| *b == bound) {
                Some((_, c)) => *c += count,
                None => finite.push((bound, count)),
            }
        }
    }
    if !seen {
        return None;
    }
    finite.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite le bounds"));
    let bounds: Vec<f64> = finite.iter().map(|(b, _)| *b).collect();
    let mut cumulative: Vec<u64> = finite.iter().map(|(_, c)| *c).collect();
    cumulative.push(inf);
    let count = inf;
    Some((
        count,
        quantile_from_buckets(&bounds, &cumulative, 0.50),
        quantile_from_buckets(&bounds, &cumulative, 0.99),
    ))
}

/// `sweepctl top` — a live dashboard over `/metrics` and `/v1/workers`,
/// redrawn once a second until interrupted.  `--json` prints one
/// [`TopSnapshot`] per poll instead of drawing.
///
/// The dashboard degrades rather than dies: a server that answers the
/// fleet listing with an API error (say, a build without `/v1/workers`)
/// or serves `/metrics` without some family just shows `n/a` for those
/// values.  Only transport failures — the server actually going away —
/// end the poll loop.
fn top_command(client: &mut SimdsimClient, global: &Global) -> Result<i32, String> {
    poll_loop(Duration::from_millis(1000), || {
        let fleet = match client.fleet_status() {
            Ok(f) => Some(f),
            Err(e @ ClientError::Io(_)) => return Err(e.to_string()),
            Err(_) => None,
        };
        let resp = client
            .http()
            .get("/metrics")
            .map_err(|e| format!("scraping /metrics: {e}"))?;
        // A non-200 scrape is treated like an empty one: every
        // metrics-derived field goes n/a for this frame.
        let body = if resp.status == 200 {
            resp.body_str()
        } else {
            String::new()
        };
        let snap = TopSnapshot::from_scrape(&body, fleet.as_ref());
        if global.json {
            jline(&snap);
        } else {
            render_top(&snap, fleet.as_ref(), &global.addr);
        }
        Ok(true)
    })?;
    Ok(0)
}

/// Clears the terminal and draws one frame of the `top` dashboard.
fn render_top(snap: &TopSnapshot, fleet: Option<&FleetStatus>, addr: &str) {
    say(format_args!("\x1b[2J\x1b[Hsimdsim top — {addr}"));
    say(format_args!(
        "queue depth {:>6}    pending cells {:>6}    simulated {:>9} mips",
        or_na(snap.queue_depth),
        or_na(snap.pending_cells),
        or_na_f(snap.simulated_mips, 1)
    ));
    say(format_args!(
        "http   latency  p50 {:>8}ms  p99 {:>8}ms   over {} requests",
        or_na_f(snap.http_p50_ms, 2),
        or_na_f(snap.http_p99_ms, 2),
        or_na(snap.http_requests)
    ));
    say(format_args!(
        "report latency  p50 {:>8}ms  p99 {:>8}ms   over {} reports",
        or_na_f(snap.report_p50_ms, 2),
        or_na_f(snap.report_p99_ms, 2),
        or_na(snap.reports)
    ));
    say(format_args!(
        "fleet  {}/{} workers live",
        or_na(snap.workers_live),
        or_na(snap.workers_total)
    ));
    let Some(fleet) = fleet else {
        say(format_args!("  (worker listing unavailable)"));
        return;
    };
    for w in &fleet.workers {
        say(format_args!(
            "  #{:<4} {:<16} {:<5} slots {:>2}  leased {:>4}  completed {:>6}  seen {}ms ago",
            w.id,
            w.name,
            if w.live { "live" } else { "dead" },
            w.slots,
            w.leased,
            w.completed,
            w.last_seen_ms
        ));
    }
}

/// Reads a file argument, with `-` meaning stdin.
fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        use std::io::Read as _;
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(text)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn parse_id(args: &[String]) -> Result<u64, String> {
    match args {
        [id] => id
            .parse()
            .map_err(|_| format!("job id must be an integer, got `{id}`")),
        _ => Err("expected exactly one job id".to_owned()),
    }
}

fn parse_sweep_request(args: &[String]) -> Result<SweepRequest, String> {
    let mut request = SweepRequest::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--scenario" => request.scenario = Some(value("--scenario")?),
            "--filter" => request.filter = Some(value("--filter")?),
            "--file" => {
                let path = value("--file")?;
                let text =
                    std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
                let scenario: Scenario =
                    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
                request.inline = Some(scenario);
            }
            flag => return Err(format!("unknown sweep option `{flag}`")),
        }
    }
    request.validate()?;
    Ok(request)
}

/// The per-cell printer for `run`/`stream`: JSON lines or the human table.
fn cell_printer(json: bool) -> fn(&CellResult) {
    if json {
        |cell| jline(cell)
    } else {
        print_cell
    }
}

fn print_cell(cell: &CellResult) {
    match (&cell.error, cell.mips) {
        (Some(e), _) => say(format_args!("{:<48} ERROR {e}", cell.label)),
        (None, Some(mips)) => {
            let stats = cell.stats.as_ref().expect("successful cell has stats");
            say(format_args!(
                "{:<48} {:>12} cycles  ipc {:>5.2}  {:>7.1} mips",
                cell.label, stats.cycles, stats.ipc, mips
            ));
        }
        (None, None) => {
            let stats = cell.stats.as_ref().expect("successful cell has stats");
            say(format_args!(
                "{:<48} {:>12} cycles  ipc {:>5.2}   cached",
                cell.label, stats.cycles, stats.ipc
            ));
        }
    }
}

fn summarise(status: &SweepStatus, json: bool) -> i32 {
    if json {
        jline(status);
        return i32::from(status.state != simdsim_api::JobState::Done);
    }
    match &status.result {
        Some(result) => {
            esay(format_args!(
                "job {}: {} — {} cells ({} cached, {} simulated, {} failed), {:.1}ms simulated",
                status.id,
                status.state,
                result.cells.len(),
                result.cached,
                result.executed,
                result.failed,
                result.simulated_wall_ms,
            ));
        }
        None => esay(format_args!("job {}: {}", status.id, status.state)),
    }
    i32::from(status.state != simdsim_api::JobState::Done)
}
