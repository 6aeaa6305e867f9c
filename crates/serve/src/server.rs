//! The daemon: a `std::net` accept loop, a per-connection keep-alive
//! request loop, and the versioned endpoint router.
//!
//! The public contract is the `/v1` surface defined by `simdsim-api`:
//!
//! | endpoint | method | answer |
//! |---|---|---|
//! | `/v1/healthz` | GET | [`Health`]: liveness + API version + queue depth |
//! | `/v1/scenarios` | GET | `Vec<`[`ScenarioInfo`]`>`: catalog + user scenarios |
//! | `/v1/sweeps` | GET | [`JobList`]: every known job, newest first |
//! | `/v1/sweeps` | POST | submit a [`SweepRequest`] → `202` [`SubmitResponse`] |
//! | `/v1/sweeps/{id}` | GET | [`SweepStatus`]: state/progress/result |
//! | `/v1/sweeps/{id}/cells?since=N` | GET | [`CellsPage`]: long-poll cell stream |
//! | `/v1/sweeps/{id}/profile` | GET | [`ProfileResponse`]: aggregated CPI stack |
//! | `/v1/sweeps/{id}` | DELETE | cancel → [`SweepStatus`] (or 404/409 [`ApiError`]) |
//! | `/v1/sweeps:batch` | POST | submit many → [`BatchSubmitResponse`], typed partial failure |
//! | `/v1/workers/register` | POST | join the fleet → [`simdsim_api::RegisterResponse`] |
//! | `/v1/workers/{id}/heartbeat` | POST | liveness → [`simdsim_api::HeartbeatResponse`] |
//! | `/v1/workers/{id}/lease` | POST | [`LeaseRequest`] → [`simdsim_api::LeaseResponse`] (long-poll) |
//! | `/v1/workers/{id}/report` | POST | [`ReportRequest`] → [`simdsim_api::ReportResponse`] |
//! | `/v1/workers` | GET | [`simdsim_api::FleetStatus`]: fleet listing + queue depth |
//! | `/v1/store/snapshot` | GET | [`StoreSnapshot`]: the shared result cache |
//! | `/v1/store/snapshot` | PUT | import a snapshot → [`SnapshotImported`] |
//! | `/v1/debug/events` | GET | [`DebugEvents`]: the flight recorder, filterable |
//! | `/metrics` | GET | Prometheus text format (unversioned by convention) |
//!
//! Every pre-v1 unversioned route (`/healthz`, `/scenarios`, `/sweeps`,
//! `/sweeps/{id}`, ...) remains as a **deprecated alias** onto the same
//! handler — same handler, same bytes, plus `Deprecation`/`Sunset`
//! response headers announcing the removal date — so existing curl
//! scripts keep working while new consumers speak `/v1`.

use crate::exec::{spawn_workers, ExecContext};
use crate::fleet::{Fleet, FleetConfig};
use crate::http::{parse_request, write_response, Request, Response};
use crate::jobs::{CancelOutcome, JobQueue, RetentionPolicy};
use crate::metrics::{endpoint_index, Gauges, Metrics};
use simdsim_api::{
    ApiError, BatchSubmitItem, BatchSubmitRequest, BatchSubmitResponse, CellsPage, CpiProfile,
    DebugEvents, ErrorCode, Health, JobList, LeaseRequest, ProfileResponse, RegisterRequest,
    ReportRequest, ScenarioInfo, SnapshotImported, StoreSnapshot, StoreSnapshotEntry,
    SubmitResponse, SweepRequest,
};
use simdsim_obs::{Event, EventFilter, FlightRecorder, TraceId, TRACE_HEADER};
use simdsim_sweep::{EngineOptions, ResultStore, Scenario, StoredCell, CACHE_SCHEMA_VERSION};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default long-poll hold of `GET /v1/sweeps/{id}/cells` when the cursor
/// is at the stream's end and the job is still running.
const DEFAULT_CELLS_WAIT: Duration = Duration::from_millis(2000);

/// Upper bound on the client-requested `wait_ms` long-poll hold; kept
/// well under the connection read timeout so a polling client never
/// mistakes a held request for a dead server.
const MAX_CELLS_WAIT: Duration = Duration::from_millis(20_000);

/// The `Sunset` date advertised on deprecated unversioned aliases (see
/// the README's deprecation timeline).
const LEGACY_SUNSET: &str = "Fri, 01 Jan 2027 00:00:00 GMT";

/// Events answered by `GET /v1/debug/events` when the client sends no
/// `limit` — newest kept, so a default query is always bounded.
const DEFAULT_DEBUG_LIMIT: usize = 512;

/// How the daemon is wired; every knob has a serving-appropriate default.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Bounded job-queue capacity; a full queue answers `503`.
    pub queue_capacity: usize,
    /// Concurrent sweep jobs (worker threads draining the queue).
    pub job_workers: usize,
    /// Worker-pool size inside each job's engine run (`None` = available
    /// parallelism).
    pub engine_jobs: Option<usize>,
    /// Content-addressed result store shared by all jobs (`None` disables
    /// caching — every submission re-simulates).
    pub cache_dir: Option<PathBuf>,
    /// User scenarios served next to the built-in catalog.
    pub extra_scenarios: Vec<Scenario>,
    /// Maximum concurrent HTTP connections; excess connections are
    /// answered `503` and closed.
    pub max_connections: usize,
    /// Per-connection socket read timeout (bounds idle keep-alive
    /// connections).
    pub read_timeout: Duration,
    /// Maximum retained finished jobs; the oldest are evicted first.
    pub job_retention: usize,
    /// Optional age limit on retained finished jobs.
    pub job_ttl: Option<Duration>,
    /// The worker fleet's timing contract (heartbeat cadence, lease TTL).
    pub fleet: FleetConfig,
    /// Flight-recorder ring capacity: how many recent structured events
    /// `GET /v1/debug/events` can look back over (overflow drops oldest).
    pub flight_recorder: usize,
    /// Emit one structured JSON access-log line per request on stdout.
    pub log_json: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8844".to_owned(),
            queue_capacity: 256,
            job_workers: 2,
            engine_jobs: None,
            cache_dir: Some(PathBuf::from("target/simdsim-cache")),
            extra_scenarios: Vec::new(),
            max_connections: 128,
            read_timeout: Duration::from_secs(30),
            job_retention: 4096,
            job_ttl: None,
            fleet: FleetConfig::default(),
            flight_recorder: 4096,
            log_json: false,
        }
    }
}

/// Everything the router needs, shared across connection threads.
struct Shared {
    queue: Arc<JobQueue>,
    metrics: Arc<Metrics>,
    scenarios: Vec<(Scenario, &'static str)>,
    fleet: Arc<Fleet>,
    /// The content-addressed store, doubling as the fleet's shared cache
    /// tier (`None` with caching disabled).
    store: Option<ResultStore>,
    /// The flight recorder behind `GET /v1/debug/events`.
    recorder: Arc<FlightRecorder>,
    /// Whether to print a JSON access-log line per request.
    log_json: bool,
}

impl Shared {
    /// Samples the values the counter block cannot hold.
    fn gauges(&self) -> Gauges {
        Gauges {
            queue_depth: self.queue.depth() as u64,
            fleet_workers_live: self.fleet.live_workers() as u64,
            fleet_pending_cells: self.fleet.pending_cells(),
            flight_recorder_dropped: self.recorder.dropped(),
        }
    }
}

/// A running daemon; dropping it does **not** stop the threads — call
/// [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    worker_threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr`, spawns the accept loop and the job workers, and
    /// returns the handle.
    ///
    /// # Errors
    ///
    /// Returns the bind error (e.g. address in use).
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let mut scenarios: Vec<(Scenario, &'static str)> = simdsim_sweep::catalog::all()
            .into_iter()
            .map(|s| (s, "catalog"))
            .collect();
        scenarios.extend(cfg.extra_scenarios.iter().cloned().map(|s| (s, "user")));

        let queue = Arc::new(JobQueue::with_retention(
            cfg.queue_capacity,
            RetentionPolicy {
                max_finished: cfg.job_retention,
                ttl: cfg.job_ttl,
            },
        ));
        let metrics = Arc::new(Metrics::default());
        let recorder = Arc::new(FlightRecorder::new(cfg.flight_recorder));
        let fleet = Arc::new(Fleet::new(
            cfg.fleet,
            Arc::clone(&metrics),
            Arc::clone(&recorder),
        ));
        let shared = Arc::new(Shared {
            queue: Arc::clone(&queue),
            metrics: Arc::clone(&metrics),
            scenarios,
            fleet: Arc::clone(&fleet),
            store: cfg.cache_dir.clone().map(ResultStore::new),
            recorder: Arc::clone(&recorder),
            log_json: cfg.log_json,
        });

        let mut opts = EngineOptions::default();
        if let Some(jobs) = cfg.engine_jobs {
            opts = opts.jobs(jobs);
        }
        if let Some(dir) = &cfg.cache_dir {
            opts = opts.cache(dir.clone());
        }
        let ctx = ExecContext {
            opts,
            metrics: Arc::clone(&metrics),
            fleet,
            recorder: Arc::clone(&recorder),
        };
        let worker_threads = spawn_workers(cfg.job_workers, &queue, &ctx);

        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let max_conns = cfg.max_connections.max(1);
            let read_timeout = cfg.read_timeout;
            std::thread::Builder::new()
                .name("http-accept".to_owned())
                .spawn(move || {
                    let active = Arc::new(AtomicUsize::new(0));
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        let _ = stream.set_read_timeout(Some(read_timeout));
                        // Responses are small; disable Nagle so polls
                        // don't pay delayed-ACK round trips.
                        let _ = stream.set_nodelay(true);
                        if active.load(Ordering::Acquire) >= max_conns {
                            let mut s = stream;
                            let _ = write_response(
                                &mut s,
                                &Response::error(503, "connection limit reached"),
                                false,
                            );
                            continue;
                        }
                        active.fetch_add(1, Ordering::AcqRel);
                        let shared = Arc::clone(&shared);
                        let active2 = Arc::clone(&active);
                        let spawned = std::thread::Builder::new()
                            .name("http-conn".to_owned())
                            .spawn(move || {
                                handle_connection(stream, &shared);
                                active2.fetch_sub(1, Ordering::AcqRel);
                            });
                        if spawned.is_err() {
                            // Thread exhaustion: give the slot back, or
                            // the counter would creep toward max_conns
                            // and lock every future connection out.
                            active.fetch_sub(1, Ordering::AcqRel);
                        }
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(Server {
            addr,
            shared,
            stop,
            accept_thread: Some(accept_thread),
            worker_threads,
        })
    }

    /// The bound socket address (resolves port 0 to the real port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live service counters (what `/metrics` renders), for
    /// in-process embedders like the `loadgen` harness.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The gauges `/metrics` samples next to the counters, read now.
    #[must_use]
    pub fn gauges(&self) -> Gauges {
        self.shared.gauges()
    }

    /// Stops accepting connections, drains no further jobs, and joins the
    /// accept and worker threads.  In-flight connections finish their
    /// current request and then close (bounded by the read timeout).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.shared.queue.shut_down();
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Serves one connection's keep-alive request loop.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = write_half;
    loop {
        match parse_request(&mut reader) {
            Ok(None) => break, // clean close between requests
            Ok(Some(req)) => {
                let started = Instant::now();
                let resp = route(&req, shared);
                observe_request(&req, resp.status, started.elapsed(), shared);
                if resp.status >= 400 {
                    shared
                        .metrics
                        .requests_errors
                        .fetch_add(1, Ordering::Relaxed);
                }
                let keep = req.keep_alive;
                if write_response(&mut writer, &resp, keep).is_err() || !keep {
                    break;
                }
            }
            Err(e) => {
                // Socket-level failures (idle keep-alive hitting the read
                // timeout, peer resets) are connection events, not request
                // errors — only protocol violations get counted and
                // answered.
                let status = e.status();
                if status != 0 {
                    shared
                        .metrics
                        .requests_errors
                        .fetch_add(1, Ordering::Relaxed);
                    let _ =
                        write_response(&mut writer, &Response::error(status, e.message()), false);
                }
                break;
            }
        }
    }
}

/// The request's `X-Simdsim-Trace-Id` header, normalised to the canonical
/// 32-hex-char form; malformed values are treated as absent.
fn request_trace(req: &Request) -> Option<String> {
    req.header(&TRACE_HEADER.to_ascii_lowercase())
        .and_then(TraceId::parse)
        .map(|t| t.to_hex())
}

/// Feeds one answered request into the observability layer: the
/// per-endpoint latency histogram always, a JSONL access-log line on
/// stdout under `--log-json`, and — for mutating methods only, so polls
/// cannot flood the ring — an `http.request` span in the flight recorder.
fn observe_request(req: &Request, status: u16, elapsed: Duration, shared: &Shared) {
    let ms = elapsed.as_secs_f64() * 1e3;
    shared
        .metrics
        .observe_http(endpoint_index(&req.method, &req.path), ms);
    let span = || {
        Event::new("http.request")
            .with_trace(request_trace(req))
            .with_dur_ms(ms)
            .with_detail(format!("{} {} -> {}", req.method, req.path, status))
    };
    if shared.log_json {
        let mut line = span();
        line.ts_ms = simdsim_obs::now_ms();
        println!(
            "{}",
            serde_json::to_string(&line).expect("events serialize")
        );
    }
    if matches!(req.method.as_str(), "POST" | "PUT" | "DELETE") {
        shared.recorder.record(span());
    }
}

/// Serializes a DTO into a JSON response.
fn json_dto<T: serde::Serialize>(status: u16, dto: &T) -> Response {
    Response::json(status, serde_json::to_string(dto).expect("DTO serializes"))
}

fn route(req: &Request, shared: &Shared) -> Response {
    let resp = route_inner(req, shared);
    // The versioned prefix is the contract; bare paths are deprecated
    // aliases that answer identically but announce their removal date
    // (`/metrics` is unversioned by Prometheus convention and exempt).
    if req.path.starts_with("/v1") || req.path == "/metrics" {
        resp
    } else {
        resp.with_header("Deprecation", "true")
            .with_header("Sunset", LEGACY_SUNSET)
    }
}

fn route_inner(req: &Request, shared: &Shared) -> Response {
    let path = req.path.strip_prefix("/v1").unwrap_or(&req.path);
    let path = if path.is_empty() { "/" } else { path };

    match (req.method.as_str(), path) {
        ("GET", "/healthz") => json_dto(200, &Health::ok(shared.queue.depth() as u64)),
        ("GET", "/scenarios") => {
            let list: Vec<ScenarioInfo> = shared
                .scenarios
                .iter()
                .map(|(s, source)| ScenarioInfo {
                    name: s.name.clone(),
                    description: s.description.clone(),
                    cells: s.expand().len() as u64,
                    source: (*source).to_owned(),
                })
                .collect();
            json_dto(200, &list)
        }
        ("GET", "/sweeps") => {
            let jobs = shared
                .queue
                .list()
                .into_iter()
                .map(|(id, job, id_cancelled)| {
                    let mut row = job.summary(id);
                    if id_cancelled {
                        row.state = simdsim_api::JobState::Cancelled;
                    }
                    row
                })
                .collect();
            json_dto(200, &JobList { jobs })
        }
        ("POST", "/sweeps") => submit_sweep(req, shared),
        ("POST", "/sweeps:batch") => submit_batch(req, shared),
        ("GET", p) if p.starts_with("/sweeps/") => sweep_get(p, req, shared),
        ("DELETE", p) if p.starts_with("/sweeps/") => cancel_sweep(&p["/sweeps/".len()..], shared),
        ("POST", "/workers/register") => match body_json::<RegisterRequest>(req) {
            Ok(r) => json_dto(200, &shared.fleet.register(&r)),
            Err(e) => Response::api_error(&e),
        },
        ("GET", "/workers") => json_dto(200, &shared.fleet.status()),
        ("POST", p) if p.starts_with("/workers/") => {
            worker_post(&p["/workers/".len()..], req, shared)
        }
        ("GET", "/store/snapshot") => store_export(shared),
        ("PUT", "/store/snapshot") => store_import(req, shared),
        ("GET", "/debug/events") => debug_events(req, shared),
        ("GET", "/metrics") => Response::text(200, shared.metrics.render(shared.gauges())),
        ("GET" | "POST" | "DELETE", _) => Response::api_error(&ApiError::new(
            ErrorCode::NotFound,
            format!("no route for {}", req.path),
        )),
        _ => Response::api_error(&ApiError::new(
            ErrorCode::MethodNotAllowed,
            format!("method {} not allowed", req.method),
        )),
    }
}

/// Which view of a job a `GET /sweeps/{id}[/...]` request asked for.
enum SweepView {
    Status,
    Cells,
    Profile,
}

/// Routes `GET /sweeps/{id}`, `GET /sweeps/{id}/cells` and
/// `GET /sweeps/{id}/profile`.
fn sweep_get(path: &str, req: &Request, shared: &Shared) -> Response {
    let rest = &path["/sweeps/".len()..];
    let (id_text, view) = if let Some(id_text) = rest.strip_suffix("/cells") {
        (id_text, SweepView::Cells)
    } else if let Some(id_text) = rest.strip_suffix("/profile") {
        (id_text, SweepView::Profile)
    } else {
        (rest, SweepView::Status)
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::api_error(&ApiError::new(
            ErrorCode::BadRequest,
            format!("job id must be an integer, got `{id_text}`"),
        ));
    };
    let Some((job, id_cancelled)) = shared.queue.lookup(id) else {
        return Response::api_error(&ApiError::new(
            ErrorCode::UnknownJob,
            format!("no job {id}"),
        ));
    };
    match view {
        SweepView::Status => {
            return json_dto(
                200,
                &shared.queue.status_for(id).expect("job just looked up"),
            );
        }
        SweepView::Profile => {
            let (stack, cells, missing) = job.profile_aggregate();
            let state = if id_cancelled {
                simdsim_api::JobState::Cancelled
            } else {
                job.state()
            };
            return json_dto(
                200,
                &ProfileResponse {
                    id,
                    state,
                    cells,
                    missing,
                    profile: stack.as_ref().map(CpiProfile::from_stack),
                },
            );
        }
        SweepView::Cells => {}
    }

    let since = match req.query_param("since").map(str::parse::<u64>) {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            return Response::api_error(&ApiError::new(
                ErrorCode::BadRequest,
                "`since` must be a non-negative integer",
            ))
        }
    };
    let wait = match req.query_param("wait_ms").map(str::parse::<u64>) {
        None => DEFAULT_CELLS_WAIT,
        Some(Ok(ms)) => Duration::from_millis(ms).min(MAX_CELLS_WAIT),
        Some(Err(_)) => {
            return Response::api_error(&ApiError::new(
                ErrorCode::BadRequest,
                "`wait_ms` must be a non-negative integer",
            ))
        }
    };
    if id_cancelled {
        // A detached submission's stream is over, whatever the shared run
        // is still doing for the ids that did not cancel.
        let page = CellsPage {
            id,
            state: simdsim_api::JobState::Cancelled,
            since,
            next: since,
            total: 0,
            done: true,
            cells: Vec::new(),
        };
        return json_dto(200, &page);
    }
    let page: CellsPage = job.cells_page(id, since, wait);
    json_dto(200, &page)
}

/// Routes `GET /debug/events`: snapshots the flight recorder, filtered by
/// the `trace` / `job` / `worker` / `kind` / `limit` query parameters.
fn debug_events(req: &Request, shared: &Shared) -> Response {
    let mut filter = EventFilter {
        trace: req.query_param("trace").map(str::to_owned),
        kind_prefix: req.query_param("kind").map(str::to_owned),
        limit: DEFAULT_DEBUG_LIMIT,
        ..EventFilter::default()
    };
    for (name, slot) in [("job", &mut filter.job), ("worker", &mut filter.worker)] {
        match req.query_param(name).map(str::parse::<u64>) {
            None => {}
            Some(Ok(id)) => *slot = Some(id),
            Some(Err(_)) => {
                return Response::api_error(&ApiError::new(
                    ErrorCode::BadRequest,
                    format!("`{name}` must be a non-negative integer"),
                ))
            }
        }
    }
    match req.query_param("limit").map(str::parse::<usize>) {
        None => {}
        Some(Ok(n)) => filter.limit = n,
        Some(Err(_)) => {
            return Response::api_error(&ApiError::new(
                ErrorCode::BadRequest,
                "`limit` must be a non-negative integer",
            ))
        }
    }
    let (events, dropped) = shared.recorder.snapshot(&filter);
    json_dto(200, &DebugEvents { events, dropped })
}

/// Routes `DELETE /sweeps/{id}`.
fn cancel_sweep(id_text: &str, shared: &Shared) -> Response {
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::api_error(&ApiError::new(
            ErrorCode::BadRequest,
            format!("job id must be an integer, got `{id_text}`"),
        ));
    };
    match shared.queue.cancel(id) {
        None => Response::api_error(&ApiError::new(
            ErrorCode::UnknownJob,
            format!("no job {id}"),
        )),
        Some((_, CancelOutcome::Cancelled)) => {
            shared
                .metrics
                .jobs_cancelled
                .fetch_add(1, Ordering::Relaxed);
            json_dto(
                200,
                &shared.queue.status_for(id).expect("job just cancelled"),
            )
        }
        // The worker observes the flag and finishes the transition; 202
        // tells the client the cancellation is underway, not done.
        Some((job, CancelOutcome::Cancelling)) => json_dto(202, &job.status(id)),
        Some((_, CancelOutcome::AlreadyFinished(state))) => Response::api_error(&ApiError::new(
            ErrorCode::Conflict,
            format!("job {id} already {state}"),
        )),
    }
}

/// Parses a JSON request body into a DTO, mapping every failure mode onto
/// a `bad_request` [`ApiError`].
fn body_json<T: serde::Deserialize>(req: &Request) -> Result<T, ApiError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::new(ErrorCode::BadRequest, "body is not UTF-8"))?;
    simdsim_api::parse_json(text)
        .map_err(|e| ApiError::new(ErrorCode::BadRequest, format!("invalid request body: {e}")))
}

/// Parses a `POST /sweeps` body and queues the job.
fn submit_sweep(req: &Request, shared: &Shared) -> Response {
    let request: SweepRequest = match body_json(req) {
        Ok(r) => r,
        Err(e) => return Response::api_error(&e),
    };
    match submit_one(request, shared, request_trace(req)) {
        Ok(sub) => json_dto(202, &sub),
        Err(e) => Response::api_error(&e),
    }
}

/// Routes `POST /sweeps:batch`: every item is submitted independently, and
/// failures are typed per item rather than failing the whole batch.
fn submit_batch(req: &Request, shared: &Shared) -> Response {
    let request: BatchSubmitRequest = match body_json(req) {
        Ok(r) => r,
        Err(e) => return Response::api_error(&e),
    };
    if request.sweeps.is_empty() {
        return Response::api_error(&ApiError::new(
            ErrorCode::BadRequest,
            "batch must contain at least one sweep",
        ));
    }
    // One client action, one trace: every sweep in the batch shares the
    // caller's trace id (each gets its own when the header is absent).
    let trace = request_trace(req);
    let items: Vec<BatchSubmitItem> = request
        .sweeps
        .into_iter()
        .map(|sweep| match submit_one(sweep, shared, trace.clone()) {
            Ok(sub) => BatchSubmitItem {
                submit: Some(sub),
                error: None,
            },
            Err(e) => BatchSubmitItem {
                submit: None,
                error: Some(e),
            },
        })
        .collect();
    json_dto(200, &BatchSubmitResponse { items })
}

/// Validates one sweep request and queues it, for both the single and the
/// batch submit route.  `trace` is the caller-supplied trace id; a fresh
/// one is generated when absent, so every job is traceable.
fn submit_one(
    request: SweepRequest,
    shared: &Shared,
    trace: Option<String>,
) -> Result<SubmitResponse, ApiError> {
    request
        .validate()
        .map_err(|e| ApiError::new(ErrorCode::BadRequest, e))?;
    let scenario = match (&request.scenario, request.inline) {
        (Some(name), None) => match shared.scenarios.iter().find(|(s, _)| &s.name == name) {
            Some((s, _)) => s.clone(),
            None => {
                return Err(ApiError::new(
                    ErrorCode::UnknownScenario,
                    format!("unknown scenario `{name}` (see GET /v1/scenarios)"),
                ))
            }
        },
        (None, Some(doc)) => doc,
        // validate() established exactly-one-of.
        _ => unreachable!("validated request has exactly one source"),
    };
    // Resolve every configuration up front: an override the model cannot
    // run is the caller's error, answered before anything is queued.
    scenario
        .configs()
        .map_err(|e| ApiError::new(ErrorCode::BadRequest, format!("invalid scenario: {e}")))?;

    let scenario_name = scenario.name.clone();
    let trace = trace.unwrap_or_else(|| TraceId::generate().to_hex());
    match shared.queue.submit(scenario, request.filter, Some(trace)) {
        Ok(sub) => {
            shared
                .metrics
                .jobs_submitted
                .fetch_add(1, Ordering::Relaxed);
            if sub.deduped {
                shared
                    .metrics
                    .jobs_coalesced
                    .fetch_add(1, Ordering::Relaxed);
            }
            // Coalesced submissions observe the surviving job's trace, so
            // the response's trace id always matches the job's events.
            let trace = sub.job.trace.clone();
            shared.recorder.record(
                Event::new("job.submit")
                    .with_trace(trace.clone())
                    .with_job(sub.id)
                    .with_detail(if sub.deduped {
                        format!("{scenario_name} (coalesced)")
                    } else {
                        scenario_name
                    }),
            );
            Ok(SubmitResponse {
                id: sub.id,
                url: format!("/v1/sweeps/{}", sub.id),
                state: sub.job.state(),
                deduped: sub.deduped,
                trace,
            })
        }
        Err(full) => {
            shared.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            Err(ApiError::new(ErrorCode::QueueFull, full.to_string()))
        }
    }
}

/// Routes `POST /workers/{id}/heartbeat|lease|report`.
fn worker_post(rest: &str, req: &Request, shared: &Shared) -> Response {
    let Some((id_text, verb)) = rest.split_once('/') else {
        return Response::api_error(&ApiError::new(
            ErrorCode::NotFound,
            format!("no route for {}", req.path),
        ));
    };
    let Ok(worker) = id_text.parse::<u64>() else {
        return Response::api_error(&ApiError::new(
            ErrorCode::BadRequest,
            format!("worker id must be an integer, got `{id_text}`"),
        ));
    };
    match verb {
        "heartbeat" => fleet_reply(shared.fleet.heartbeat(worker)),
        "lease" => {
            // An empty body is a plain "give me work" with the defaults.
            let request: LeaseRequest = if req.body.is_empty() {
                LeaseRequest::default()
            } else {
                match body_json(req) {
                    Ok(r) => r,
                    Err(e) => return Response::api_error(&e),
                }
            };
            fleet_reply(shared.fleet.lease(worker, &request))
        }
        "report" => match body_json::<ReportRequest>(req) {
            Ok(r) => fleet_reply(shared.fleet.report(worker, &r)),
            Err(e) => Response::api_error(&e),
        },
        _ => Response::api_error(&ApiError::new(
            ErrorCode::NotFound,
            format!("no route for {}", req.path),
        )),
    }
}

/// Serializes a fleet call's outcome: the DTO on success, the typed error
/// (e.g. `unknown_worker` after an eviction) otherwise.
fn fleet_reply<T: serde::Serialize>(outcome: Result<T, ApiError>) -> Response {
    match outcome {
        Ok(dto) => json_dto(200, &dto),
        Err(e) => Response::api_error(&e),
    }
}

/// Routes `GET /store/snapshot`: exports the content-addressed store.  A
/// cache-less server answers with an empty snapshot rather than an error so
/// `sweepctl store export` composes with any deployment.
fn store_export(shared: &Shared) -> Response {
    let entries: Vec<StoreSnapshotEntry> = shared
        .store
        .as_ref()
        .map(ResultStore::export)
        .unwrap_or_default()
        .into_iter()
        .map(|(key, cell)| StoreSnapshotEntry {
            key: key.to_string(),
            label: cell.label,
            stats: cell.stats,
        })
        .collect();
    json_dto(
        200,
        &StoreSnapshot {
            schema: CACHE_SCHEMA_VERSION,
            entries,
        },
    )
}

/// Routes `PUT /store/snapshot`: imports entries into the store, skipping
/// keys already present.
fn store_import(req: &Request, shared: &Shared) -> Response {
    let Some(store) = &shared.store else {
        return Response::api_error(&ApiError::new(
            ErrorCode::NotImplemented,
            "this server runs without a result store (started with --no-cache)",
        ));
    };
    let snapshot: StoreSnapshot = match body_json(req) {
        Ok(s) => s,
        Err(e) => return Response::api_error(&e),
    };
    if snapshot.schema != CACHE_SCHEMA_VERSION {
        return Response::api_error(&ApiError::new(
            ErrorCode::BadRequest,
            format!(
                "snapshot schema {} does not match this server's schema {}",
                snapshot.schema, CACHE_SCHEMA_VERSION
            ),
        ));
    }
    let (imported, skipped) = store.import(snapshot.entries.iter().map(|e| {
        (
            e.key.as_str(),
            StoredCell {
                label: e.label.clone(),
                stats: e.stats.clone(),
            },
        )
    }));
    json_dto(
        200,
        &SnapshotImported {
            imported: imported as u64,
            skipped: skipped as u64,
        },
    )
}
