//! The `service_mix` workload: an in-process `serve` on a fresh result
//! store, one in-process fleet worker with one slot, and closed-loop
//! clients submitting a seeded request sequence over the public `/v1`
//! routes, each waiting for its sweep like `sweepctl run` does.
//!
//! A request is `POST /v1/sweeps`, then `GET /v1/sweeps/{id}/cells?since=`
//! until the stream is done, then `GET /v1/sweeps/{id}` for the final
//! result; its latency runs from the submit to that final answer.  Every
//! resubmission must return the statistics of the first response for the
//! same request, and a cell whose override leaves the paper's 2-way
//! machine unchanged must equal the golden fixture.
//!
//! A traced run traces the requests started in every other half-second:
//! spans around their calls, all tagged with the trace id the service
//! echoes, plus a `GET /v1/debug/events?trace=` after each completes for
//! its queueing time.

use crate::golden::Golden;
use crate::host::HostSpeed;
use crate::layers::{self, CellProbe};
use crate::mix::{self, Sequence};
use crate::report::Outcome;
use crate::stats::{mean, median, tail};
use crate::trace::Tracer;
use serde::Value;
use simdsim_api::{CellPhases, CellStats, JobState, SweepRequest};
use simdsim_client::{spawn_worker, SimdsimClient, WorkerConfig, WorkerHandle};
use simdsim_obs::TraceId;
use simdsim_pipe::PipeConfig;
use simdsim_serve::{Server, ServerConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Engine worker threads inside each server-side job.
pub const ENGINE_THREADS: usize = 1;

/// Requests generated per run: far more than any run consumes.
const SEQUENCE_LEN: usize = 20_000;

/// Socket timeout of every client call; above the 2 s cursor long-poll.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// Cursor long-poll hold asked of `GET .../cells`.
const POLL_WAIT: Duration = Duration::from_secs(2);

/// A traced run traces the requests started in every other slice of
/// this many seconds, so traced and untraced requests meet the same load.
const TRACE_SLICE: f64 = 0.5;

/// How often the reference loop runs during the window (see `host`).
const HOST_PERIOD: Duration = Duration::from_millis(250);

/// Closed-loop clients: two, or fewer on a host with fewer cores.
pub fn clients() -> usize {
    crate::nproc().min(2)
}

/// A booted service with its worker, the generated sequence and the
/// fixture.
pub struct Setup {
    server: Server,
    worker: WorkerHandle,
    addr: String,
    store: PathBuf,
    seq: Sequence,
    golden: Golden,
}

/// Loads the fixture, generates the sequence, boots the server on a fresh
/// store under `work`, registers the worker and waits until it is live,
/// then runs a warm-up sweep from outside the generated space.
pub fn setup(seed: u64, golden_path: &Path, work: &Path, attempt: usize) -> Result<Setup, String> {
    let golden = Golden::load(golden_path)?;
    let seq = mix::generate(seed, SEQUENCE_LEN);
    let store = work.join(format!("store-{}-{attempt}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        engine_jobs: Some(ENGINE_THREADS),
        cache_dir: Some(store.clone()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("starting the server: {e}"))?;
    let addr = server.addr().to_string();
    let worker = spawn_worker(WorkerConfig {
        addr: addr.clone(),
        name: "simbench-worker".to_owned(),
        slots: 1,
        ..WorkerConfig::default()
    });
    let setup = Setup {
        server,
        worker,
        addr,
        store,
        seq,
        golden,
    };
    match setup.warm_up() {
        Ok(()) => Ok(setup),
        Err(e) => {
            setup.teardown();
            Err(e)
        }
    }
}

impl Setup {
    fn warm_up(&self) -> Result<(), String> {
        let mut client = SimdsimClient::connect(&self.addr, CLIENT_TIMEOUT)
            .map_err(|e| format!("connecting to the server: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let fleet = client
                .fleet_status()
                .map_err(|e| format!("fleet status: {e}"))?;
            if fleet.workers.iter().any(|w| w.live) {
                break;
            }
            if Instant::now() >= deadline {
                return Err("the fleet worker never registered".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // The Fig. 4 kernels on 2-way VMMX128 without overrides: outside
        // the generated space, and each cell has a golden counterpart.
        let sub = client
            .submit(&SweepRequest::by_name("fig4").filter("/vmmx128/"))
            .map_err(|e| format!("warm-up submit: {e}"))?;
        let status = client
            .wait_timeout(sub.id, Duration::from_millis(1), CLIENT_TIMEOUT)
            .map_err(|e| format!("warm-up wait: {e}"))?;
        let cells = status.result.map(|r| r.cells).unwrap_or_default();
        if cells.is_empty() {
            return Err("the warm-up sweep returned no cells".to_owned());
        }
        for cell in cells {
            let ok = cell
                .stats
                .is_some_and(|s| self.golden.matches(&cell.label, &s) == Some(true));
            if !ok {
                return Err(format!(
                    "warm-up cell {} failed its golden check",
                    cell.label
                ));
            }
        }
        Ok(())
    }

    /// Stops the worker and the server and removes the store.
    pub fn teardown(self) {
        if let Err(e) = self.worker.stop() {
            eprintln!("simbench: fleet worker stopped with an error: {e}");
        }
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// One completed (or failed) request.
#[derive(Debug, Clone, Default)]
struct Sample {
    index: usize,
    ok: bool,
    traced: bool,
    latency_ms: f64,
    submit_ms: f64,
    poll_ms: Vec<f64>,
    queue_ms: Option<f64>,
    deduped: bool,
    cached: bool,
    instrs: u64,
    cycles: u64,
    phases: CellPhases,
}

/// The fleet counters read from `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
struct FleetScrape {
    report_sum_ms: f64,
    report_count: f64,
    requeued: f64,
}

fn scrape(client: &mut SimdsimClient) -> Result<FleetScrape, String> {
    let resp = client
        .http()
        .get("/metrics")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    let text = resp.body_str();
    let value = |prefix: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(prefix))
            .and_then(|l| l[prefix.len()..].trim().parse().ok())
            .unwrap_or(0.0)
    };
    Ok(FleetScrape {
        report_sum_ms: value("simdsim_fleet_report_latency_ms_sum "),
        report_count: value("simdsim_fleet_report_latency_ms_count "),
        requeued: value("simdsim_fleet_cells_total{event=\"requeued\"} "),
    })
}

/// The paper's 2-way configuration this request leaves unchanged, if any:
/// then its cell must equal the golden fig4 cell.
fn golden_label(req: &mix::MixRequest) -> Option<String> {
    let cell = req.scenario().expand().into_iter().next()?;
    let cfg = cell.config().ok()?;
    (req.way == 2 && cfg == PipeConfig::paper(2, req.ext))
        .then(|| format!("fig4/{}/{}/2way", req.kernel, req.ext))
}

/// Shared state of the closed-loop clients.
struct Window<'a> {
    setup: &'a Setup,
    tracer: &'a Tracer,
    untraced: Tracer,
    next: AtomicUsize,
    start: Instant,
    seconds: f64,
    firsts: Mutex<HashMap<String, CellStats>>,
    samples: Mutex<Vec<Sample>>,
    failures: Mutex<Vec<String>>,
}

impl Window<'_> {
    fn fail(&self, msg: String) {
        self.failures.lock().expect("failure list lock").push(msg);
    }

    /// One client's closed loop until the window closes.
    fn client(&self) {
        let mut client = match SimdsimClient::connect(&self.setup.addr, CLIENT_TIMEOUT) {
            Ok(c) => c,
            Err(e) => return self.fail(format!("client connect: {e}")),
        };
        while self.start.elapsed().as_secs_f64() < self.seconds {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(req) = self.setup.seq.requests.get(index) else {
                return self.fail("the generated sequence ran out".to_owned());
            };
            let slice = (self.start.elapsed().as_secs_f64() / TRACE_SLICE) as u64;
            let traced = self.tracer.on() && slice % 2 == 1;
            match self.request(&mut client, index, req, traced) {
                Ok(s) => self.samples.lock().expect("sample list lock").push(s),
                Err(e) => {
                    self.fail(format!("request {index} ({}): {e}", req.label()));
                    self.samples.lock().expect("sample list lock").push(Sample {
                        index,
                        ..Sample::default()
                    });
                }
            }
        }
    }

    fn request(
        &self,
        client: &mut SimdsimClient,
        index: usize,
        req: &mix::MixRequest,
        traced: bool,
    ) -> Result<Sample, String> {
        let t = if traced { self.tracer } else { &self.untraced };
        let label = req.label();
        let body = SweepRequest::inline(req.scenario());
        let trace_id = TraceId::generate().to_hex();
        let start = Instant::now();
        let root = t.open("request", &trace_id, None);
        let (sub, submit) = t.time("serve.submit", &trace_id, root.index(), || {
            client.submit_traced(&body, &trace_id)
        });
        let sub = sub.map_err(|e| format!("submit: {e}"))?;
        // Spans of one request carry the trace id the service runs it
        // under, which is the original job's for a coalesced submission.
        let trace_id = sub.trace.clone().unwrap_or(trace_id);
        t.retag(root, &trace_id);
        let mut poll_ms = Vec::new();
        let mut since = 0;
        loop {
            let (page, d) = t.time("serve.poll", &trace_id, root.index(), || {
                client.cells(sub.id, since, POLL_WAIT)
            });
            let page = page.map_err(|e| format!("cells: {e}"))?;
            poll_ms.push(d.as_secs_f64() * 1e3);
            since = page.next;
            if page.done {
                break;
            }
        }
        let (status, _) = t.time("serve.status", &trace_id, root.index(), || {
            client.status(sub.id)
        });
        let status = status.map_err(|e| format!("status: {e}"))?;
        let latency = start.elapsed();
        t.close(root);

        if status.state != JobState::Done {
            return Err(format!("job ended {:?}", status.state));
        }
        let cell = status
            .result
            .and_then(|r| r.cells.into_iter().next())
            .ok_or("the job returned no cell")?;
        let stats = cell
            .stats
            .ok_or_else(|| format!("the cell failed: {}", cell.error.unwrap_or_default()))?;
        let first = self
            .firsts
            .lock()
            .expect("first-response lock")
            .entry(label.clone())
            .or_insert_with(|| stats.clone())
            .clone();
        if first != stats {
            return Err("a resubmission returned different statistics".to_owned());
        }
        if let Some(g) = golden_label(req) {
            if self.setup.golden.matches(&g, &stats) != Some(true) {
                return Err(format!("statistics differ from the golden cell {g}"));
            }
        }
        let queue_ms = if traced && !sub.deduped {
            queue_time(client, &trace_id, sub.id)?
        } else {
            None
        };
        Ok(Sample {
            index,
            ok: true,
            traced,
            latency_ms: latency.as_secs_f64() * 1e3,
            submit_ms: submit.as_secs_f64() * 1e3,
            poll_ms,
            queue_ms,
            deduped: sub.deduped,
            cached: cell.cached,
            instrs: stats.instrs,
            cycles: stats.cycles,
            phases: cell.phases.unwrap_or_default(),
        })
    }
}

/// `job.submit` → `job.start` of job `id` from the flight recorder.
fn queue_time(client: &mut SimdsimClient, trace: &str, id: u64) -> Result<Option<f64>, String> {
    let events = client
        .debug_events(Some(trace), Some(id), None, Some("job."))
        .map_err(|e| format!("debug events: {e}"))?;
    let at = |kind: &str| {
        events
            .events
            .iter()
            .find(|e| e.kind == kind)
            .map(|e| e.ts_ms as f64)
    };
    Ok(match (at("job.submit"), at("job.start")) {
        (Some(s), Some(b)) => Some(b - s),
        _ => None,
    })
}

/// Runs the timed window, then (traced) probes the cells it simulated.
pub fn run_window(setup: &Setup, seconds: f64, tracer: &Tracer, host: &mut HostSpeed) -> Outcome {
    let mut out = Outcome::default();
    let mut admin = match SimdsimClient::connect(&setup.addr, CLIENT_TIMEOUT) {
        Ok(c) => c,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("connecting to the server: {e}"));
            return out;
        }
    };
    let before = scrape(&mut admin);
    let w = Window {
        setup,
        tracer,
        untraced: Tracer::new(false),
        next: AtomicUsize::new(0),
        start: Instant::now(),
        seconds,
        firsts: Mutex::new(HashMap::new()),
        samples: Mutex::new(Vec::new()),
        failures: Mutex::new(Vec::new()),
    };
    std::thread::scope(|s| {
        for _ in 0..clients() {
            s.spawn(|| w.client());
        }
        while w.start.elapsed().as_secs_f64() < seconds {
            std::thread::sleep(HOST_PERIOD);
            host.sample(1);
        }
    });
    let wall = w.start.elapsed().as_secs_f64();
    let after = scrape(&mut admin);
    let mut samples = w.samples.into_inner().expect("sample list lock");
    samples.sort_by_key(|s| s.index);
    out.attempted = samples.len() as u64;
    for f in w.failures.into_inner().expect("failure list lock") {
        out.fail(f);
    }

    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let fresh: Vec<&&Sample> = ok.iter().filter(|s| !s.cached && !s.deduped).collect();
    // The worker's simulation rate: what its simulate phases committed
    // per second they took.
    let simulate_s: f64 = fresh.iter().map(|s| s.phases.simulate_ms / 1e3).sum();
    let instrs: u64 = fresh.iter().map(|s| s.instrs).sum();
    let cycles: u64 = fresh.iter().map(|s| s.cycles).sum();
    // Novel requests and repeats apart: a repeat is a store hit an order
    // of magnitude faster than a novel cell, so a percentile over both
    // would measure the balance of the mix rather than either path.
    let latency = |novel: bool| -> Vec<f64> {
        ok.iter()
            .filter(|s| setup.seq.novel[s.index] == novel)
            .map(|s| s.latency_ms)
            .collect()
    };
    let (writes, reads) = (latency(true), latency(false));
    out.metric(
        "sim_mips",
        instrs as f64 / simulate_s / 1e6,
        "Minstr/s",
        fresh.len(),
    );
    out.metric(
        "sim_mcycles_per_s",
        cycles as f64 / simulate_s / 1e6,
        "Mcycle/s",
        fresh.len(),
    );
    out.metric("sweeps_per_s", ok.len() as f64 / wall, "1/s", ok.len());
    out.metric("complete_p50_ms", median(&writes), "ms", writes.len());
    out.tail_metric("complete_p99_ms", tail(&writes, 99.0), "ms");

    let novel = samples.iter().filter(|s| setup.seq.novel[s.index]).count();
    let share = |n: usize| n as f64 / samples.len().max(1) as f64;
    let deduped = ok.iter().filter(|s| s.deduped).count();
    let cached = ok.iter().filter(|s| s.cached).count();
    out.detail(
        "mix",
        Value::Object(vec![
            ("clients".to_owned(), Value::UInt(clients() as u64)),
            ("loop".to_owned(), Value::Str("closed".to_owned())),
            ("requests".to_owned(), Value::UInt(samples.len() as u64)),
            ("novel".to_owned(), Value::UInt(novel as u64)),
            (
                "repeats".to_owned(),
                Value::UInt((samples.len() - novel) as u64),
            ),
            ("novel_share".to_owned(), Value::Float(share(novel))),
            ("simulated".to_owned(), Value::UInt(fresh.len() as u64)),
            ("store_hits".to_owned(), Value::UInt(cached as u64)),
            ("coalesced".to_owned(), Value::UInt(deduped as u64)),
            ("wall_s".to_owned(), Value::Float(wall)),
        ]),
    );

    let class = |xs: &[f64]| {
        let t = tail(xs, 99.0);
        Value::Object(vec![
            ("samples".to_owned(), Value::UInt(xs.len() as u64)),
            ("p50_ms".to_owned(), Value::Float(median(xs))),
            ("tail_ms".to_owned(), Value::Float(t.value)),
            ("tail_percentile".to_owned(), Value::Float(t.percentile)),
        ])
    };
    out.detail("latency_novel", class(&writes));
    out.detail("latency_repeat", class(&reads));

    if tracer.on() {
        let traced: Vec<&&Sample> = ok.iter().filter(|s| s.traced).collect();
        let novel_latency = |traced: bool| -> Vec<f64> {
            ok.iter()
                .filter(|s| s.traced == traced && setup.seq.novel[s.index])
                .map(|s| s.latency_ms)
                .collect()
        };
        out.trace_overhead =
            Some(median(&novel_latency(true)) / median(&novel_latency(false)) - 1.0);
        let submit: Vec<f64> = traced.iter().map(|s| s.submit_ms).collect();
        let poll: Vec<f64> = traced
            .iter()
            .flat_map(|s| s.poll_ms.iter().copied())
            .collect();
        let queue: Vec<f64> = traced.iter().filter_map(|s| s.queue_ms).collect();
        let probe: Vec<f64> = ok.iter().map(|s| s.phases.probe_ms).collect();
        let store: Vec<f64> = fresh.iter().map(|s| s.phases.store_ms).collect();
        let simulate: Vec<f64> = fresh.iter().map(|s| s.phases.simulate_ms).collect();
        out.layer("serve.submit_p50_ms", median(&submit), "ms", submit.len());
        out.layer_tail("serve.submit_p99_ms", tail(&submit, 99.0), "ms");
        out.layer("serve.queue_ms", mean(&queue), "ms", queue.len());
        out.layer("serve.poll_ms", median(&poll), "ms", poll.len());
        out.layer(
            "serve.coalesced_ratio",
            share(deduped),
            "ratio",
            samples.len(),
        );
        out.layer("sweep.probe_ms", median(&probe), "ms", probe.len());
        out.layer("sweep.store_ms", median(&store), "ms", store.len());
        out.layer("sweep.hit_ratio", share(cached), "ratio", samples.len());
        out.layer(
            "client.worker_simulate_ms",
            median(&simulate),
            "ms",
            simulate.len(),
        );
        out.layer("mix.novel_share", share(novel), "ratio", samples.len());
        match (before, after) {
            (Ok(b), Ok(a)) => {
                let n = a.report_count - b.report_count;
                let mean_ms = if n > 0.0 {
                    (a.report_sum_ms - b.report_sum_ms) / n
                } else {
                    0.0
                };
                out.layer("fleet.report_ms", mean_ms, "ms", n as usize);
                out.layer("fleet.requeued", a.requeued - b.requeued, "count", 1);
            }
            (Err(e), _) | (_, Err(e)) => out.fail(e),
        }
        let probes = probe_fresh(setup, &samples, tracer, &mut out, seconds / 2.0);
        out.probe_passes = 1;
        out.layers.extend(crate::replay::layer_metrics(&probes, 1));
    }
    out
}

/// Probes the distinct cells the window simulated, in sequence order,
/// until `budget` seconds are spent (at least one).
fn probe_fresh(
    setup: &Setup,
    samples: &[Sample],
    tracer: &Tracer,
    out: &mut Outcome,
    budget: f64,
) -> Vec<CellProbe> {
    let mut scratch = layers::Scratch::default();
    let mut probes = Vec::new();
    let start = Instant::now();
    let mut seen = std::collections::HashSet::new();
    for s in samples.iter().filter(|s| s.ok && !s.cached && !s.deduped) {
        if !probes.is_empty() && start.elapsed().as_secs_f64() >= budget {
            break;
        }
        let req = &setup.seq.requests[s.index];
        if !seen.insert(req.label()) {
            continue;
        }
        let cell = req.scenario().expand().remove(0);
        out.attempted += 1;
        match layers::probe(&cell, tracer, &setup.golden, &mut scratch) {
            Ok(p) => probes.push(p),
            Err(e) => out.fail(e),
        }
    }
    probes
}
