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
//! versions. Activations run one at a time in request order, so the active
//! version is the one the last activation request named.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use timekd_obs::json::{self, Body, Json, RowFault, RowWidth};
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
    activations: ActivationQueue,
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

/// Runs `/admin/activate` calls one at a time, in the order their requests
/// took a ticket. The active version therefore follows request order: an
/// earlier activation whose load is slower cannot swap in after a later
/// one. At most one candidate version is loaded at a time.
#[derive(Debug, Default)]
struct ActivationQueue {
    next_ticket: AtomicU64,
    /// The ticket whose activation may run now.
    turn: Mutex<u64>,
    turn_changed: Condvar,
}

impl ActivationQueue {
    /// Takes the next place in the queue.
    fn ticket(&self) -> u64 {
        self.next_ticket.fetch_add(1, Ordering::Relaxed)
    }

    /// Waits for `ticket`'s turn, runs `activate`, then passes the turn on
    /// (also if `activate` panics, so one failed call cannot stall the
    /// queue).
    fn run<R>(&self, ticket: u64, activate: impl FnOnce() -> R) -> R {
        let mut turn = self.turn.lock().unwrap_or_else(|p| p.into_inner());
        while *turn != ticket {
            turn = self
                .turn_changed
                .wait(turn)
                .unwrap_or_else(|p| p.into_inner());
        }
        drop(turn);

        struct PassTurn<'a>(&'a ActivationQueue);
        impl Drop for PassTurn<'_> {
            fn drop(&mut self) {
                *self.0.turn.lock().unwrap_or_else(|p| p.into_inner()) += 1;
                self.0.turn_changed.notify_all();
            }
        }
        let _pass = PassTurn(self);
        activate()
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
            activations: ActivationQueue::default(),
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

/// Where a `/forecast` takes its window from.
#[derive(Debug)]
enum ForecastInput {
    /// An explicit `x` window, flattened row-major.
    Window(Vec<f32>),
    /// A tenant whose cached rows form the window.
    Tenant(String),
}

/// The typed read shared by `/forecast` and `/observe`: a non-UTF-8 body
/// is refused first, then [`json::decode_body`] reads the `rows_key`
/// matrix and the `str_key` string with [`Json::parse`]'s syntax errors.
fn decode(body: &[u8], rows_key: &str, width: RowWidth, str_key: &str) -> Result<Body, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    json::decode_body(text, rows_key, width, str_key).map_err(|e| format!("invalid JSON body: {e}"))
}

/// Reads a `/forecast` body. An `x` array must be an `input_len` x
/// `num_vars` window whose every cell is a number finite as an f32;
/// without one, a `tenant` string names the cached window. Errors are
/// 400 texts.
fn decode_forecast(
    body: &[u8],
    input_len: usize,
    num_vars: usize,
) -> Result<ForecastInput, String> {
    let body = decode(body, "x", RowWidth::Fixed(num_vars), "tenant")?;
    let Some(x) = body.rows else {
        return body
            .text
            .map(ForecastInput::Tenant)
            .ok_or_else(|| "body must carry `x` (window rows) or `tenant`".to_string());
    };
    if x.rows != input_len {
        return Err(format!(
            "`x` has {} rows, model expects {input_len}",
            x.rows
        ));
    }
    match x.fault {
        None => Ok(ForecastInput::Window(x.values)),
        Some(RowFault::NotArray { row }) => Err(format!("`x[{row}]` is not an array")),
        Some(RowFault::Width { row, len }) => Err(format!(
            "`x[{row}]` has {len} values, model expects {num_vars}"
        )),
        Some(RowFault::Cell { row, col }) => {
            Err(format!("`x[{row}][{col}]` is not a finite number"))
        }
    }
}

fn forecast(shared: &Shared, body: &[u8]) -> (u16, Json) {
    let model = shared.current();
    let manifest = model.manifest();
    let input = match decode_forecast(body, manifest.input_len, manifest.num_vars) {
        Ok(ForecastInput::Window(x)) => x,
        Ok(ForecastInput::Tenant(tenant)) => {
            match shared
                .tenants
                .window(&tenant, manifest.input_len, manifest.num_vars)
            {
                Ok(v) => v,
                Err(e) => return (409, err_body(e)),
            }
        }
        Err(e) => return (400, err_body(e)),
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

/// A checked `/observe` row block: the tenant and its rows, row-major.
#[derive(Debug)]
struct ObservedRows {
    tenant: String,
    values: Vec<f32>,
    width: NonZeroUsize,
}

/// Reads an `/observe` body: a `tenant` string and a `rows` block of at
/// least one row, every row the same non-zero width, every cell a number
/// finite as an f32. Errors are 400 texts.
fn decode_observe(body: &[u8]) -> Result<ObservedRows, String> {
    let body = decode(body, "rows", RowWidth::FirstRow, "tenant")?;
    let Some(tenant) = body.text else {
        return Err("`tenant` must be a string".to_string());
    };
    let Some(rows) = body.rows else {
        return Err("`rows` must be an array of rows".to_string());
    };
    if rows.rows == 0 {
        return Err("`rows` must hold at least one row".to_string());
    }
    match rows.fault {
        Some(RowFault::NotArray { row }) => Err(format!("`rows[{row}]` is not an array")),
        Some(RowFault::Width { row, len }) if row > 0 => Err(format!(
            "`rows[{row}]` has {len} values, `rows[0]` has {}",
            rows.width
        )),
        Some(RowFault::Cell { row, col }) => {
            Err(format!("`rows[{row}][{col}]` is not a finite number"))
        }
        // Under `FirstRow` only an empty row 0 is a width fault at row 0.
        Some(RowFault::Width { .. }) | None => NonZeroUsize::new(rows.width)
            .map(|width| ObservedRows {
                tenant,
                values: rows.values,
                width,
            })
            .ok_or_else(|| "`rows[0]` is empty".to_string()),
    }
}

fn observe(shared: &Shared, body: &[u8]) -> (u16, Json) {
    let rows = match decode_observe(body) {
        Ok(r) => r,
        Err(e) => return (400, err_body(e)),
    };
    let total = shared
        .tenants
        .observe_rows(&rows.tenant, &rows.values, rows.width);
    (
        200,
        Json::obj(vec![
            ("tenant", Json::Str(rows.tenant)),
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
    let ticket = shared.activations.ticket();
    let loaded: Result<(), RegistryError> = shared.activations.run(ticket, || {
        let model = registry::load(&shared.registry_root, version)?;
        shared.activate(model);
        Ok(())
    });
    match loaded {
        Ok(()) => {
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

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_obs::json::fuzz::Rng;

    // The tree path the handlers took before the typed decode —
    // `Json::parse`, then a walk over the parsed rows — kept as the
    // reference the typed decode must reproduce.

    fn flatten_window(
        rows: &[Json],
        input_len: usize,
        num_vars: usize,
    ) -> Result<Vec<f32>, String> {
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
                    Some(v) if (v as f32).is_finite() => out.push(v as f32),
                    _ => return Err(format!("`x[{i}][{j}]` is not a finite number")),
                }
            }
        }
        Ok(out)
    }

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
                    Some(v) if (v as f32).is_finite() => parsed.push(v as f32),
                    _ => return Err(format!("`rows[{i}][{j}]` is not a finite number")),
                }
            }
            out.push(parsed);
        }
        Ok(out)
    }

    /// `/forecast` through the tree: the window's bits, or the tenant.
    fn tree_forecast(
        body: &[u8],
        input_len: usize,
        num_vars: usize,
    ) -> Result<Result<Vec<u32>, String>, String> {
        let doc = parse_json(body)?;
        if let Some(rows) = doc.get("x").and_then(Json::as_arr) {
            let x = flatten_window(rows, input_len, num_vars)?;
            Ok(Ok(x.iter().map(|v| v.to_bits()).collect()))
        } else if let Some(tenant) = doc.get("tenant").and_then(Json::as_str) {
            Ok(Err(tenant.to_string()))
        } else {
            Err("body must carry `x` (window rows) or `tenant`".to_string())
        }
    }

    /// `/observe` through the tree: the tenant and its rows' bits.
    fn tree_observe(body: &[u8]) -> Result<(String, Vec<Vec<u32>>), String> {
        let doc = parse_json(body)?;
        let Some(tenant) = doc.get("tenant").and_then(Json::as_str) else {
            return Err("`tenant` must be a string".to_string());
        };
        let Some(raw_rows) = doc.get("rows").and_then(Json::as_arr) else {
            return Err("`rows` must be an array of rows".to_string());
        };
        let rows = parse_rows(raw_rows)?;
        let bits = rows
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect();
        Ok((tenant.to_string(), bits))
    }

    const INPUT_LEN: usize = 4;
    const NUM_VARS: usize = 3;

    /// One cell: mostly numbers in the forms clients send, sometimes a
    /// value that overflows f32 or is not a number.
    fn cell(rng: &mut Rng) -> String {
        match rng.below(16) {
            0 => ["1e39", "-3.5e38", "\"oops\"", "null", "[1]", "true"][rng.below(6) as usize]
                .to_string(),
            1 => format!("{:e}", f32::from_bits(rng.next_u64() as u32 & 0x7f7f_ffff)),
            2 => ["-0", "0", "-0.0", "3.4028235e38", "1e-50"][rng.below(5) as usize].to_string(),
            3..=9 => f32::from_bits(rng.next_u64() as u32 & 0xbf7f_ffff).to_string(),
            _ => format!("{}", (rng.below(2_000_001) as f64 - 1e6) / 1e3),
        }
    }

    /// A matrix of about `rows` x `width` cells, sometimes one row short
    /// or long, a row of another width, or a row that is not an array.
    fn matrix(rng: &mut Rng, rows: usize, width: usize) -> String {
        let rows = match rng.below(12) {
            0 => rows + 1,
            1 => rows.saturating_sub(1 + rng.below(rows as u64 + 1) as usize),
            _ => rows,
        };
        let text: Vec<String> = (0..rows)
            .map(|_| match rng.below(40) {
                0 => "\"row\"".to_string(),
                n => {
                    let w = match n {
                        1 => width + 1,
                        2 => width.saturating_sub(1),
                        _ => width,
                    };
                    let cells: Vec<String> = (0..w).map(|_| cell(rng)).collect();
                    format!("[{}]", cells.join(", "))
                }
            })
            .collect();
        format!("[{}]", text.join(",\n "))
    }

    /// A `/forecast` window body, a tenant body or an `/observe` body,
    /// its members in random order, with the odd duplicate or extra key.
    fn body(rng: &mut Rng) -> String {
        let tenant = || "\"acme-\\u00e9\"".to_string();
        let mut members: Vec<(&str, String)> = match rng.below(3) {
            0 => vec![("x", matrix(rng, INPUT_LEN, NUM_VARS))],
            1 => vec![("tenant", tenant())],
            _ => {
                let (rows, width) = (1 + rng.below(5) as usize, 1 + rng.below(4) as usize);
                vec![("tenant", tenant()), ("rows", matrix(rng, rows, width))]
            }
        };
        for _ in 0..rng.below(3) {
            let extra = match rng.below(6) {
                0 => ("x", "7".to_string()),
                1 => ("x", matrix(rng, INPUT_LEN, NUM_VARS)),
                2 => ("tenant", "[\"a\"]".to_string()),
                3 => ("rows", "{}".to_string()),
                4 => ("tenant", "\"other\"".to_string()),
                _ => ("pad", "{\"x\": [[1]], \"k\": [null]}".to_string()),
            };
            let at = rng.below(members.len() as u64 + 1) as usize;
            members.insert(at, extra);
        }
        let members: Vec<String> = members
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", members.join(", "))
    }

    /// Both routes' typed decode against the tree path: same error text
    /// (and so the same 400), same tenant and bitwise the same values.
    /// Returns whether the body held a window and whether it was a valid
    /// `/observe` body.
    fn assert_decodes_like_the_tree(body: &[u8]) -> (bool, bool) {
        let what = String::from_utf8_lossy(body);
        let typed = decode_forecast(body, INPUT_LEN, NUM_VARS).map(|input| match input {
            ForecastInput::Window(x) => Ok(x.iter().map(|v| v.to_bits()).collect()),
            ForecastInput::Tenant(t) => Err(t),
        });
        let window = matches!(typed, Ok(Ok(_)));
        assert_eq!(
            typed,
            tree_forecast(body, INPUT_LEN, NUM_VARS),
            "/forecast {what}"
        );
        let typed = decode_observe(body).map(|rows| {
            let bits: Vec<u32> = rows.values.iter().map(|v| v.to_bits()).collect();
            let rows_bits = bits.chunks(rows.width.get()).map(<[u32]>::to_vec);
            (rows.tenant, rows_bits.collect::<Vec<_>>())
        });
        let observe_ok = typed.is_ok();
        assert_eq!(typed, tree_observe(body), "/observe {what}");
        (window, observe_ok)
    }

    #[test]
    fn typed_decode_matches_the_tree_reference() {
        let mut rng = Rng(0xdec0_de24);
        let (mut windows, mut observes) = (0, 0);
        for case in 0..20_000 {
            let text = body(&mut rng);
            let text = if case % 2 == 0 {
                rng.mutate(&text)
            } else {
                text
            };
            let (window, observe) = assert_decodes_like_the_tree(text.as_bytes());
            windows += usize::from(window);
            observes += usize::from(observe);
        }
        assert!(
            windows > 1_000 && observes > 1_000,
            "windows {windows}, observe blocks {observes}"
        );

        // Hand-picked bodies; `W` stands for a well-formed window.
        let window = "[[1, 2, 3], [4, 5, 6], [7, 8, 9], [0.5, -0.25, 1e3]]";
        let bodies = [
            // Duplicate keys: the first occurrence wins.
            r#"{"x": W, "x": 5}"#,
            r#"{"x": 5, "x": W, "tenant": "t"}"#,
            r#"{"tenant": 1, "tenant": "t", "rows": [[1]]}"#,
            r#"{"rows": [[1]], "rows": [], "tenant": "t", "tenant": "u"}"#,
            // A non-array `x` falls through to `tenant`.
            r#"{"x": {"rows": [[1]]}, "tenant": "t"}"#,
            r#"{"x": "[[1]]"}"#,
            // Trailing data, and shape faults before a syntax error.
            r#"{"x": W} x"#,
            r#"{"x": [[1, 2]], "tenant": "t", "rows": [[1e39]]} ]"#,
            r#"{"x": [[1e39, 1, 2], [1, 2]], "tenant": "t", "rows": [[1], [2, 3]]"#,
            r#"{"x": [1, [1, 2, 3, 4]], "rows": [[1, 2], ["a", 2], [1]], "tenant": "t"}"#,
            r#"[{"x": W, "tenant": "t"}]"#,
            "",
        ]
        .map(|b| b.replace('W', window).into_bytes());
        // Non-UTF-8 bytes, inside a string and after the document.
        let bodies = bodies.iter().map(Vec::as_slice).chain([
            &b"{\"tenant\": \"\xff\", \"rows\": [[1]]}"[..],
            &b"{\"tenant\": \"t\", \"rows\": [[1]]}\xc3"[..],
        ]);
        for body in bodies {
            assert_decodes_like_the_tree(body);
        }
    }

    #[test]
    fn earlier_slower_activation_cannot_overwrite_a_later_one() {
        // Two activation requests arrive in order (tickets 0 then 1). The
        // later one's load is quick, the earlier one's finishes last: the
        // later activation must still be the one left active.
        let queue = Arc::new(ActivationQueue::default());
        let active = Arc::new(Mutex::new(Vec::<u64>::new()));
        let (earlier, later) = (queue.ticket(), queue.ticket());
        let later_done = {
            let (queue, active) = (queue.clone(), active.clone());
            thread::spawn(move || queue.run(later, || active.lock().unwrap().push(2)))
        };
        // Give the later call every chance to jump the queue.
        thread::sleep(Duration::from_millis(20));
        assert!(active.lock().unwrap().is_empty(), "later ran first");
        queue.run(earlier, || active.lock().unwrap().push(1));
        later_done.join().unwrap();
        assert_eq!(*active.lock().unwrap(), vec![1, 2]);
    }

    #[test]
    fn a_panicking_activation_passes_its_turn_on() {
        let queue = ActivationQueue::default();
        let (first, second) = (queue.ticket(), queue.ticket());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            queue.run(first, || panic!())
        }));
        assert!(panicked.is_err());
        assert_eq!(queue.run(second, || 7), 7);
    }
}
