//! Shared helpers for the serving integration tests: a tiny student
//! geometry, registry scaffolding in a per-test temp dir, and a raw
//! `TcpStream` HTTP/1.1 client (the tests deliberately do not reuse the
//! server's own framing code to talk to it).
//!
//! Each integration-test binary compiles this module separately and uses
//! a different subset of it.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use timekd::{Student, TimeKdConfig};
use timekd_obs::json::Json;
use timekd_serve::registry;
use timekd_tensor::{seeded_rng, Precision};

/// Tiny but non-trivial serving geometry.
pub const INPUT_LEN: usize = 8;
pub const HORIZON: usize = 4;
pub const NUM_VARS: usize = 3;

/// The serving tests start real servers and assert on the global
/// observability counters, so they must not interleave.
pub fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

pub fn tiny_config() -> TimeKdConfig {
    TimeKdConfig {
        dim: 16,
        num_layers: 1,
        num_heads: 2,
        ffn_hidden: 32,
        ..TimeKdConfig::default()
    }
}

pub fn tiny_student(seed: u64) -> Student {
    let config = tiny_config();
    let mut rng = seeded_rng(seed);
    Student::new(&config, INPUT_LEN, HORIZON, NUM_VARS, &mut rng)
}

/// A fresh registry root under the system temp dir, unique per call.
pub fn temp_registry(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "timekd-serve-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp registry");
    dir
}

/// Publishes `seed`'s student as `v<version>` and returns the student.
pub fn publish_version(root: &Path, version: u64, seed: u64) -> Student {
    let student = tiny_student(seed);
    registry::publish(root, version, &student, &tiny_config(), Precision::F32).expect("publish");
    student
}

/// A deterministic `[INPUT_LEN][NUM_VARS]` observation window.
pub fn demo_window(seed: u64) -> Vec<Vec<f32>> {
    let mut rng = seeded_rng(seed ^ 0x5eed);
    (0..INPUT_LEN)
        .map(|_| (0..NUM_VARS).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

/// Renders rows as a JSON array-of-arrays using the same number formatter
/// the server uses, so f32 values survive the trip bit-exactly.
pub fn rows_json(rows: &[Vec<f32>]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|row| Json::Arr(row.iter().map(|&v| Json::num(v as f64)).collect()))
            .collect(),
    )
}

/// One parsed HTTP response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

impl Response {
    pub fn json(&self) -> Json {
        Json::parse(&self.body).unwrap_or_else(|e| panic!("bad response JSON ({e}): {}", self.body))
    }
}

/// Sends one request on an existing connection and reads the response.
pub fn request_on(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> Response {
    // Single write: separate head/body segments would hit Nagle +
    // delayed-ACK stalls on loopback.
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    stream.flush().expect("flush");
    read_response(stream)
}

/// Opens a fresh connection for a single request.
pub fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    request_on(&mut stream, method, path, body)
}

fn read_response(stream: &mut TcpStream) -> Response {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(0) => panic!("connection closed inside response head"),
            Ok(_) => head.push(byte[0]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
            Err(e) => panic!("read error in response head: {e}"),
        }
        assert!(head.len() < 64 * 1024, "response head too large");
    }
    let head = String::from_utf8(head).expect("utf8 head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line `{status_line}`"));
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content-length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        match stream.read(&mut body[filled..]) {
            Ok(0) => panic!("connection closed inside response body"),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
            Err(e) => panic!("read error in response body: {e}"),
        }
    }
    Response {
        status,
        body: String::from_utf8(body).expect("utf8 body"),
    }
}

/// Extracts the `forecast` field of a 200 response as flattened f32 bits.
pub fn forecast_bits(doc: &Json) -> Vec<u32> {
    let rows = doc
        .get("forecast")
        .and_then(Json::as_arr)
        .expect("forecast rows");
    rows.iter()
        .flat_map(|row| row.as_arr().expect("forecast row").iter())
        .map(|cell| (cell.as_num().expect("forecast cell") as f32).to_bits())
        .collect()
}

/// Flattened f32 bits of a tensor's data.
pub fn tensor_bits(t: &timekd_tensor::Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}
