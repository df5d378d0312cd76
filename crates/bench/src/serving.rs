//! The `serve_load` harness: boots a real [`timekd_serve::Server`] on an
//! ephemeral port, publishes a seeded student into a throwaway registry,
//! drives it with `K` closed-loop client threads over raw `TcpStream`s,
//! and reports throughput, tail latency and micro-batch occupancy as the
//! `serving` section of the `timekd-kernel-bench/v8` schema.
//!
//! The latency quantiles are *not* measured client-side: the harness
//! fetches `GET /metrics` over HTTP and reads the server's own
//! `timekd-obs` histograms, so the numbers in `BENCH_*.json` are sourced
//! from exactly the counters a production scrape would see.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use timekd::{Student, TimeKdConfig};
use timekd_serve::{publish, ServeConfig, Server};
use timekd_tensor::{seeded_rng, Precision};

use crate::json::Json;

/// Load-harness geometry: larger than the unit tests, still QUICK-friendly.
const INPUT_LEN: usize = 32;
const HORIZON: usize = 8;
const NUM_VARS: usize = 7;

/// Every Nth request per client is a `/healthz` probe instead of a
/// forecast, so the mix exercises more than one endpoint.
const HEALTH_EVERY: usize = 16;

/// Parameters of one serve-load run.
#[derive(Debug, Clone)]
pub struct ServeLoadSpec {
    /// Closed-loop client threads.
    pub clients: usize,
    /// Requests each client issues back-to-back.
    pub requests_per_client: usize,
    /// Server-side micro-batch width.
    pub micro_batch: usize,
    /// Seed for the published student and every client's window.
    pub seed: u64,
}

impl ServeLoadSpec {
    /// Smoke-sized run for CI (`QUICK=1`).
    pub fn quick() -> ServeLoadSpec {
        ServeLoadSpec {
            clients: 4,
            requests_per_client: 25,
            micro_batch: 4,
            seed: 2025,
        }
    }

    /// Full-sized run.
    pub fn full() -> ServeLoadSpec {
        ServeLoadSpec {
            clients: 8,
            requests_per_client: 200,
            micro_batch: 8,
            seed: 2025,
        }
    }
}

fn harness_config() -> TimeKdConfig {
    TimeKdConfig {
        dim: 32,
        num_layers: 1,
        num_heads: 4,
        ffn_hidden: 64,
        ..TimeKdConfig::default()
    }
}

fn temp_registry() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "timekd-serve-load-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create load-harness registry");
    dir
}

fn window_body(seed: u64) -> String {
    let mut rng = seeded_rng(seed);
    let rows: Vec<Json> = (0..INPUT_LEN)
        .map(|_| {
            Json::Arr(
                (0..NUM_VARS)
                    .map(|_| Json::num(rng.gen_range(-1.0f32..1.0) as f64))
                    .collect(),
            )
        })
        .collect();
    Json::obj(vec![("x", Json::Arr(rows))]).render()
}

/// Minimal blocking HTTP/1.1 exchange on a persistent connection.
fn exchange(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> (u16, String) {
    // One write per request: splitting head and body into separate
    // segments trips Nagle + delayed-ACK on loopback and serializes the
    // whole closed loop at ~40 ms per request.
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    stream.flush().expect("flush");

    let mut raw = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(0) => panic!("server closed mid-response"),
            Ok(_) => raw.push(byte[0]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("response head read error: {e}"),
        }
    }
    let head = String::from_utf8(raw).expect("utf8 response head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        match stream.read(&mut body[filled..]) {
            Ok(0) => panic!("server closed mid-body"),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("response body read error: {e}"),
        }
    }
    (status, String::from_utf8(body).expect("utf8 response body"))
}

fn client_loop(addr: SocketAddr, requests: usize, body: &str) -> (usize, usize) {
    let mut stream = TcpStream::connect(addr).expect("client connect");
    let mut forecasts = 0usize;
    let mut errors = 0usize;
    for i in 0..requests {
        let (status, _) = if i % HEALTH_EVERY == HEALTH_EVERY - 1 {
            exchange(&mut stream, "GET", "/healthz", "")
        } else {
            forecasts += 1;
            exchange(&mut stream, "POST", "/forecast", body)
        };
        if status != 200 {
            errors += 1;
        }
    }
    (forecasts, errors)
}

fn metrics_num(doc: &Json, group: &str, name: &str) -> f64 {
    doc.get(group)
        .and_then(|g| g.get(name))
        .and_then(Json::as_num)
        .unwrap_or(f64::NAN)
}

fn histogram_quantile(doc: &Json, name: &str, key: &str) -> f64 {
    doc.get("histograms")
        .and_then(Json::as_arr)
        .and_then(|hists| {
            hists
                .iter()
                .find(|h| h.get("name").and_then(Json::as_str) == Some(name))
        })
        .and_then(|h| h.get(key))
        .and_then(Json::as_num)
        .unwrap_or(f64::NAN)
}

/// Runs the closed-loop load harness and returns the `serving` section of
/// the kernel-bench schema (all thirteen numeric fields).
pub fn run_serve_load(spec: &ServeLoadSpec) -> Json {
    let root = temp_registry();
    let config = harness_config();
    let mut rng = seeded_rng(spec.seed);
    let student = Student::new(&config, INPUT_LEN, HORIZON, NUM_VARS, &mut rng);
    publish(&root, 1, &student, &config, Precision::F32).expect("publish load-harness model");

    timekd_obs::reset();
    let mut cfg = ServeConfig::new(&root);
    cfg.micro_batch = spec.micro_batch;
    let server = Server::start(cfg).expect("start load-harness server");
    let addr = server.addr();

    let started = Instant::now();
    let workers: Vec<_> = (0..spec.clients)
        .map(|c| {
            let requests = spec.requests_per_client;
            let body = window_body(spec.seed ^ (c as u64 + 1));
            std::thread::spawn(move || client_loop(addr, requests, &body))
        })
        .collect();
    let mut forecast_requests = 0usize;
    let mut errors = 0usize;
    for w in workers {
        let (f, e) = w.join().expect("client thread");
        forecast_requests += f;
        errors += e;
    }
    let duration_ms = started.elapsed().as_secs_f64() * 1e3;

    // Tail latency and batch shape come from the server's own /metrics —
    // the same counters and histograms a production scrape reads.
    let (status, metrics_body) = {
        let mut stream = TcpStream::connect(addr).expect("metrics connect");
        exchange(&mut stream, "GET", "/metrics", "")
    };
    assert_eq!(status, 200, "metrics fetch failed: {metrics_body}");
    let metrics = Json::parse(&metrics_body).expect("metrics JSON");
    let batches = metrics_num(&metrics, "counters", "serve.batches");
    let batched = metrics_num(&metrics, "counters", "serve.batched_requests");
    let mean_occupancy = if batches > 0.0 {
        batched / batches
    } else {
        0.0
    };
    let p50_ms = histogram_quantile(&metrics, "serve.forecast.latency_ns", "p50") / 1e6;
    let p95_ms = histogram_quantile(&metrics, "serve.forecast.latency_ns", "p95") / 1e6;
    let p99_ms = histogram_quantile(&metrics, "serve.forecast.latency_ns", "p99") / 1e6;

    server.shutdown();
    timekd_obs::set_enabled(false);
    let _ = std::fs::remove_dir_all(&root);

    let requests_total = spec.clients * spec.requests_per_client;
    let throughput_rps = requests_total as f64 / (duration_ms / 1e3).max(1e-9);
    Json::obj(vec![
        ("clients", Json::num(spec.clients as f64)),
        (
            "requests_per_client",
            Json::num(spec.requests_per_client as f64),
        ),
        ("requests_total", Json::num(requests_total as f64)),
        ("forecast_requests", Json::num(forecast_requests as f64)),
        ("errors", Json::num(errors as f64)),
        ("duration_ms", Json::num(duration_ms)),
        ("throughput_rps", Json::num(throughput_rps)),
        ("latency_p50_ms", Json::num(p50_ms)),
        ("latency_p95_ms", Json::num(p95_ms)),
        ("latency_p99_ms", Json::num(p99_ms)),
        ("micro_batch", Json::num(spec.micro_batch as f64)),
        ("batches", Json::num(batches)),
        ("mean_batch_occupancy", Json::num(mean_occupancy)),
    ])
}
