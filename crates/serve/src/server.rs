//! The serving front end: a blocking `TcpListener` accept loop, one
//! handler thread per connection, and JSON route handlers over the shared
//! server state. A forecast runs on the handler that parsed it, on an
//! executor borrowed from the active model's pool
//! ([`LoadedModel::forecast`]).
//!
//! Hot-swap: `/admin/activate` fully loads and validates the requested
//! registry version *before* swapping the shared `Arc<LoadedModel>`. A
//! load failure leaves the old version untouched and serving. Each
//! forecast holds one `Arc` for the whole request — validation, replay and
//! the version tag all come from that one model — so no response can mix
//! versions.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use timekd_obs::json::Json;
use timekd_obs::{
    now_ns, Histogram, SERVE_ADMIN_LATENCY, SERVE_ERRORS, SERVE_FORECAST_LATENCY,
    SERVE_METRICS_LATENCY, SERVE_OBSERVE_LATENCY, SERVE_REQUESTS, SERVE_SWAPS, SERVE_SWAP_REJECTS,
};

use crate::http::{read_request, write_response, ReadOutcome, Request};
use crate::registry::{self, LoadedModel, RegistryError};
use crate::tenants::TenantCache;

/// Schema identifier of the `/metrics` JSON document.
pub const METRICS_SCHEMA: &str = "timekd-serve-metrics/v1";

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Registry root directory holding `v<N>/` version dirs.
    pub registry_root: PathBuf,
    /// Largest accepted request body in bytes.
    pub max_body_bytes: usize,
    /// Handler read-timeout (shutdown poll granularity) in milliseconds.
    pub read_timeout_ms: u64,
    /// Maximum concurrent connection-handler threads; connections past
    /// the cap are answered 503 and closed instead of spawning a thread.
    pub max_connections: usize,
    /// Enable the global observability gate at startup so `/metrics` and
    /// the latency histograms record.
    pub enable_obs: bool,
}

impl ServeConfig {
    /// Defaults: ephemeral loopback port, 1 MiB body cap,
    /// 25 ms shutdown poll, 256 concurrent connections, observability on.
    pub fn new(registry_root: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            registry_root: registry_root.into(),
            max_body_bytes: 1 << 20,
            read_timeout_ms: 25,
            max_connections: 256,
            enable_obs: true,
        }
    }
}

/// Startup failures.
#[derive(Debug)]
pub enum ServeError {
    /// The registry root holds no loadable version.
    EmptyRegistry(PathBuf),
    /// The boot version failed to load.
    Registry(RegistryError),
    /// Socket setup failed.
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::EmptyRegistry(root) => {
                write!(f, "registry {} has no versions", root.display())
            }
            ServeError::Registry(e) => write!(f, "boot model failed to load: {e}"),
            ServeError::Io(msg) => write!(f, "socket error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// State shared between the accept loop and the handler threads.
#[derive(Debug)]
struct Shared {
    registry_root: PathBuf,
    max_body_bytes: usize,
    read_timeout_ms: u64,
    max_connections: usize,
    tenants: TenantCache,
    shutdown: AtomicBool,
    current: Mutex<Arc<LoadedModel>>,
}

impl Shared {
    /// The currently active model (cheap `Arc` clone).
    fn current(&self) -> Arc<LoadedModel> {
        self.current
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    fn activate(&self, model: LoadedModel) {
        *self.current.lock().unwrap_or_else(|p| p.into_inner()) = Arc::new(model);
    }
}

/// A running forecast server. Dropping without [`Server::shutdown`] leaves
/// the worker threads running until process exit.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    dispatch: Option<JoinHandle<()>>,
}

impl Server {
    /// Boots the latest registry version and starts serving.
    pub fn start(cfg: ServeConfig) -> Result<Server, ServeError> {
        if cfg.enable_obs {
            timekd_obs::set_enabled(true);
        }
        let version = registry::latest_version(&cfg.registry_root)
            .ok_or_else(|| ServeError::EmptyRegistry(cfg.registry_root.clone()))?;
        let model = registry::load(&cfg.registry_root, version).map_err(ServeError::Registry)?;
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| ServeError::Io(format!("bind: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("local_addr: {e}")))?;

        let shared = Arc::new(Shared {
            registry_root: cfg.registry_root,
            max_body_bytes: cfg.max_body_bytes,
            read_timeout_ms: cfg.read_timeout_ms.max(1),
            max_connections: cfg.max_connections.max(1),
            tenants: TenantCache::new(),
            shutdown: AtomicBool::new(false),
            current: Mutex::new(Arc::new(model)),
        });

        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();

        let accept_shared = shared.clone();
        let accept = thread::spawn(move || {
            accept_serve_loop(&listener, &conn_tx, &accept_shared.shutdown);
        });

        let dispatch_shared = shared.clone();
        let dispatch = thread::spawn(move || {
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            for mut stream in conn_rx {
                handlers.retain(|h| !h.is_finished());
                if handlers.len() >= dispatch_shared.max_connections {
                    // Shed load instead of spawning unboundedly: answer 503
                    // and close so the client can back off and retry.
                    SERVE_ERRORS.add(1);
                    let _ = write_response(
                        &mut stream,
                        503,
                        &err_body("server at connection capacity").render(),
                        false,
                    );
                    continue;
                }
                let shared = dispatch_shared.clone();
                handlers.push(thread::spawn(move || handle_connection(stream, &shared)));
            }
            // Accept loop ended: join the remaining handlers.
            for h in handlers {
                let _ = h.join();
            }
        });

        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            dispatch: Some(dispatch),
        })
    }

    /// The bound socket address (resolved port when binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently active model version.
    pub fn active_version(&self) -> u64 {
        self.shared.current().version()
    }

    /// Stops accepting, drains in-flight connections and joins every
    /// worker thread.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatch.take() {
            let _ = h.join();
        }
    }
}

/// The accept hot loop: takes connections off the listener and hands them
/// to the dispatcher until shutdown. Subject to the `*-in-serve-loop`
/// lints: no allocation, no unwrap, no stdout.
fn accept_serve_loop(
    listener: &TcpListener,
    conns: &mpsc::Sender<TcpStream>,
    shutdown: &AtomicBool,
) {
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if conns.send(stream).is_err() {
                    return;
                }
            }
            Err(_) => {
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
                // Persistent accept errors (e.g. EMFILE under fd
                // exhaustion) must not busy-spin the accept thread.
                thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn latency_histogram(path: &str) -> Option<&'static Histogram> {
    match path {
        "/forecast" => Some(&SERVE_FORECAST_LATENCY),
        "/observe" => Some(&SERVE_OBSERVE_LATENCY),
        "/admin/activate" => Some(&SERVE_ADMIN_LATENCY),
        "/metrics" | "/healthz" => Some(&SERVE_METRICS_LATENCY),
        _ => None,
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(shared.read_timeout_ms)));
    let _ = stream.set_nodelay(true);
    loop {
        match read_request(&mut stream, shared.max_body_bytes) {
            ReadOutcome::Idle => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
            }
            ReadOutcome::Closed => return,
            ReadOutcome::Malformed(msg) => {
                SERVE_REQUESTS.add(1);
                SERVE_ERRORS.add(1);
                let _ = write_response(&mut stream, 400, &err_body(msg).render(), false);
                return;
            }
            ReadOutcome::TooLarge {
                declared,
                drained,
                keep_alive,
            } => {
                SERVE_REQUESTS.add(1);
                SERVE_ERRORS.add(1);
                let keep = drained && keep_alive;
                let msg = format!(
                    "body of {declared} bytes exceeds the {} byte limit",
                    shared.max_body_bytes
                );
                let _ = write_response(&mut stream, 413, &err_body(msg).render(), keep);
                if !keep {
                    return;
                }
            }
            ReadOutcome::Request(req) => {
                SERVE_REQUESTS.add(1);
                let started = now_ns();
                let (status, body) = route(shared, &req);
                if status >= 400 {
                    SERVE_ERRORS.add(1);
                }
                if let Some(hist) = latency_histogram(&req.path) {
                    hist.record(now_ns().saturating_sub(started).max(1));
                }
                let keep = req.keep_alive && !shared.shutdown.load(Ordering::Relaxed);
                if write_response(&mut stream, status, &body.render(), keep).is_err() || !keep {
                    return;
                }
            }
        }
    }
}

fn err_body(msg: impl Into<String>) -> Json {
    Json::obj(vec![("error", Json::Str(msg.into()))])
}

fn parse_json(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    Json::parse(text).map_err(|e| format!("invalid JSON body: {e}"))
}

fn route(shared: &Shared, req: &Request) -> (u16, Json) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/forecast") => forecast(shared, &req.body),
        ("POST", "/observe") => observe(shared, &req.body),
        ("POST", "/admin/activate") => activate(shared, &req.body),
        ("GET", "/metrics") => metrics(shared),
        ("GET", "/healthz") => healthz(shared),
        (_, "/forecast" | "/observe" | "/admin/activate" | "/metrics" | "/healthz") => (
            405,
            err_body(format!(
                "method {} not allowed for {}",
                req.method, req.path
            )),
        ),
        _ => (404, err_body(format!("no route for {}", req.path))),
    }
}

fn flatten_window(rows: &[Json], input_len: usize, num_vars: usize) -> Result<Vec<f32>, String> {
    if rows.len() != input_len {
        return Err(format!(
            "`x` has {} rows, model expects {input_len}",
            rows.len()
        ));
    }
    let mut out = Vec::with_capacity(input_len * num_vars);
    for (i, row) in rows.iter().enumerate() {
        let cells = row
            .as_arr()
            .ok_or_else(|| format!("`x[{i}]` is not an array"))?;
        if cells.len() != num_vars {
            return Err(format!(
                "`x[{i}]` has {} values, model expects {num_vars}",
                cells.len()
            ));
        }
        for (j, cell) in cells.iter().enumerate() {
            match cell.as_num() {
                Some(v) if v.is_finite() => out.push(v as f32),
                _ => return Err(format!("`x[{i}][{j}]` is not a finite number")),
            }
        }
    }
    Ok(out)
}

fn forecast(shared: &Shared, body: &[u8]) -> (u16, Json) {
    let doc = match parse_json(body) {
        Ok(d) => d,
        Err(e) => return (400, err_body(e)),
    };
    let model = shared.current();
    let manifest = model.manifest();
    let input = if let Some(rows) = doc.get("x").and_then(Json::as_arr) {
        match flatten_window(rows, manifest.input_len, manifest.num_vars) {
            Ok(v) => v,
            Err(e) => return (400, err_body(e)),
        }
    } else if let Some(tenant) = doc.get("tenant").and_then(Json::as_str) {
        match shared
            .tenants
            .window(tenant, manifest.input_len, manifest.num_vars)
        {
            Ok(v) => v,
            Err(e) => return (409, err_body(e)),
        }
    } else {
        return (
            400,
            err_body("body must carry `x` (window rows) or `tenant`"),
        );
    };

    let values = match model.forecast(&input) {
        Ok(v) => v,
        Err(e) => return (500, err_body(e)),
    };
    if values.iter().any(|v| !v.is_finite()) {
        return (
            500,
            err_body(format!(
                "model v{} produced non-finite forecast values",
                model.version()
            )),
        );
    }
    let rows: Vec<Json> = values
        .chunks(manifest.num_vars.max(1))
        .map(|row| Json::Arr(row.iter().map(|&v| Json::num(v as f64)).collect()))
        .collect();
    (
        200,
        Json::obj(vec![
            ("version", Json::num(model.version() as f64)),
            ("horizon", Json::num(manifest.horizon as f64)),
            ("num_vars", Json::num(manifest.num_vars as f64)),
            ("forecast", Json::Arr(rows)),
        ]),
    )
}

/// Parses an `/observe` row block: at least one row, every row the same
/// non-zero width, every cell a finite number.
fn parse_rows(rows: &[Json]) -> Result<Vec<Vec<f32>>, String> {
    if rows.is_empty() {
        return Err("`rows` must hold at least one row".to_string());
    }
    let mut out = Vec::with_capacity(rows.len());
    let mut width = 0;
    for (i, row) in rows.iter().enumerate() {
        let cells = row
            .as_arr()
            .ok_or_else(|| format!("`rows[{i}]` is not an array"))?;
        if i == 0 {
            width = cells.len();
            if width == 0 {
                return Err("`rows[0]` is empty".to_string());
            }
        } else if cells.len() != width {
            return Err(format!(
                "`rows[{i}]` has {} values, `rows[0]` has {width}",
                cells.len()
            ));
        }
        let mut parsed = Vec::with_capacity(cells.len());
        for (j, cell) in cells.iter().enumerate() {
            match cell.as_num() {
                Some(v) if v.is_finite() => parsed.push(v as f32),
                _ => return Err(format!("`rows[{i}][{j}]` is not a finite number")),
            }
        }
        out.push(parsed);
    }
    Ok(out)
}

fn observe(shared: &Shared, body: &[u8]) -> (u16, Json) {
    let doc = match parse_json(body) {
        Ok(d) => d,
        Err(e) => return (400, err_body(e)),
    };
    let Some(tenant) = doc.get("tenant").and_then(Json::as_str) else {
        return (400, err_body("`tenant` must be a string"));
    };
    let Some(raw_rows) = doc.get("rows").and_then(Json::as_arr) else {
        return (400, err_body("`rows` must be an array of rows"));
    };
    let rows = match parse_rows(raw_rows) {
        Ok(r) => r,
        Err(e) => return (400, err_body(e)),
    };
    let total = shared.tenants.observe(tenant, &rows);
    (
        200,
        Json::obj(vec![
            ("tenant", Json::str(tenant)),
            ("rows", Json::num(total as f64)),
        ]),
    )
}

fn activate(shared: &Shared, body: &[u8]) -> (u16, Json) {
    let doc = match parse_json(body) {
        Ok(d) => d,
        Err(e) => return (400, err_body(e)),
    };
    let version = match doc.get("version").and_then(Json::as_num) {
        Some(v) if v.is_finite() && v >= 0.0 && v.fract() == 0.0 => v as u64,
        _ => return (400, err_body("`version` must be a non-negative integer")),
    };
    match registry::load(&shared.registry_root, version) {
        Ok(model) => {
            shared.activate(model);
            SERVE_SWAPS.add(1);
            (
                200,
                Json::obj(vec![
                    ("version", Json::num(version as f64)),
                    ("active", Json::Bool(true)),
                ]),
            )
        }
        Err(e) => {
            SERVE_SWAP_REJECTS.add(1);
            (
                422,
                Json::obj(vec![
                    ("error", Json::str(e.to_string())),
                    ("kept_version", Json::num(shared.current().version() as f64)),
                ]),
            )
        }
    }
}

fn metrics(shared: &Shared) -> (u16, Json) {
    let snap = timekd_obs::snapshot();
    let counters = Json::obj(
        snap.counters
            .iter()
            .map(|c| (c.name.as_str(), Json::num(c.value as f64)))
            .collect(),
    );
    let histograms = Json::Arr(
        snap.histograms
            .iter()
            .map(|h| {
                Json::obj(vec![
                    ("name", Json::str(h.name.as_str())),
                    ("count", Json::num(h.count() as f64)),
                    ("mean", Json::num(h.mean())),
                    ("p50", Json::num(h.quantile(0.5))),
                    ("p95", Json::num(h.quantile(0.95))),
                    ("p99", Json::num(h.quantile(0.99))),
                ])
            })
            .collect(),
    );
    (
        200,
        Json::obj(vec![
            ("schema", Json::str(METRICS_SCHEMA)),
            ("version", Json::num(shared.current().version() as f64)),
            ("counters", counters),
            ("histograms", histograms),
        ]),
    )
}

fn healthz(shared: &Shared) -> (u16, Json) {
    (
        200,
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("version", Json::num(shared.current().version() as f64)),
        ]),
    )
}
