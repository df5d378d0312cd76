//! `serve_window` and `serve_tenant`: the forecast server in-process on
//! loopback, driven by the single-threaded open-loop generator.
//!
//! The server boots from a scratch registry holding one published F32
//! student at ETTh1 geometry (96 x 7 -> 24 x 7, default config). The
//! generator uses one connection per core (`available_parallelism`).
//!
//! * `serve_window` sends `/forecast` requests with explicit 96 x 7
//!   windows cut from seeded synthetic ETTh1: the stateless read path.
//! * `serve_tenant` pre-fills a seeded population of tenants through
//!   `/observe`, then streams short `/observe` row blocks interleaved with
//!   tenant-keyed `/forecast` (3 observes to 1 forecast): the write path.
//!
//! Each run boots the server several times (set-up), runs the open loop at
//! a fixed nominal rate (latency), then repeats fixed closed-loop bursts
//! (capacity). A seeded sample of replies is checked bitwise against
//! `PlannedStudent::predict` on the same window.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use timekd::{PlannedStudent, Student, TimeKdConfig};
use timekd_data::{DatasetKind, Split, SplitDataset};
use timekd_obs::json::Json;
use timekd_serve::http::{read_request, ReadOutcome};
use timekd_serve::{load, publish, ServeConfig, Server, TenantCache};
use timekd_tensor::{seeded_rng, Precision, Tensor};

use crate::loadgen::{judge, parse_reply, Conns, Outcome, Pace, Req};
use crate::metrics::{attribution, Report};
use crate::stats::{median, per_call_us, percentile, secs, Segmented, Summary};
use crate::{Args, Scratch};

const INPUT_LEN: usize = 96;
const HORIZON: usize = 24;
const NUM_VARS: usize = 7;
/// Server boots per run; `setup_s` is their median.
const BOOTS: usize = 15;
/// Open-loop rates at which latency is measured, well below capacity
/// (`serve_window` meets its p99 limit up to about 2,000 req/s on a 2-core
/// host). The tenant mix runs faster so that its forecasts, a quarter of
/// the requests, fill a segment in about as long.
const WINDOW_RPS: f64 = 1000.0;
const TENANT_RPS: f64 = 2000.0;
/// Latency samples per segment (p99 with ten beyond), and the fewest
/// segments (and bursts) a run measures.
const SEGMENT: usize = 1000;
const MIN_SEGMENTS: usize = 3;
/// Requests in one capacity burst (about half a second of work each: tenant
/// requests are small), and requests in flight per connection.
const WINDOW_BURST: usize = 2000;
const TENANT_BURST: usize = 8000;
const BURST_DEPTH: usize = 8;
/// Replies checked per segment (a seeded sample).
const CHECKS: usize = 8;
/// A generator whose median lateness exceeds this fell behind its schedule
/// (a short preemption of the generator delays a few requests; falling
/// behind delays most of them).
const LAG_LIMIT_MS: f64 = 1.0;
/// A ladder rung whose generator p99 lateness exceeds this is not met.
const RUNG_LAG_LIMIT_MS: f64 = 2.0;
/// The rate ladder of `serve.max_rps_under_slo` and its p99 limit.
const LADDER_RPS: [f64; 9] = [
    500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 4000.0, 5000.0, 6000.0,
];
const SLO_P99_MS: f64 = 5.0;
/// Windows rendered into the request pool of `serve_window`.
const POOL: usize = 512;
/// Tenant population of `serve_tenant`, and one forecast per this many requests.
const TENANTS: usize = 10_000;
const FORECAST_EVERY: usize = 4;
/// No reply for this long ends a drive; unanswered requests fail.
const DRAIN: Duration = Duration::from_secs(3);

fn student() -> (Student, TimeKdConfig) {
    let config = TimeKdConfig::default();
    let student = Student::new(
        &config,
        INPUT_LEN,
        HORIZON,
        NUM_VARS,
        &mut seeded_rng(config.seed),
    );
    (student, config)
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One blocking `GET` on a fresh connection.
fn get(addr: SocketAddr, path: &str) -> Option<(u16, Vec<u8>)> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .ok()?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).ok()?;
    let (status, head, len) = parse_reply(&buf)?;
    Some((status, buf[head..head + len].to_vec()))
}

/// A running server and its registry.
struct Booted {
    server: Server,
    student: Student,
    config: TimeKdConfig,
    _registry: Scratch,
}

/// Boots from scratch: build the student, publish it, start the server and
/// wait for the first 200 from `/healthz`. Returns the boot's CPU time
/// (steal-free, like the bursts).
fn boot(tag: &str) -> (Booted, f64) {
    let cpu = crate::sys::cpu_s();
    let (student, config) = student();
    let registry = Scratch::new(tag);
    publish(&registry.0, 1, &student, &config, Precision::F32).expect("publish the student");
    let server = Server::start(ServeConfig {
        enable_obs: false,
        ..ServeConfig::new(&registry.0)
    })
    .expect("server starts");
    let deadline = Instant::now() + Duration::from_secs(10);
    while get(server.addr(), "/healthz").map(|r| r.0) != Some(200) {
        assert!(Instant::now() < deadline, "server never became healthy");
        std::thread::sleep(Duration::from_micros(200));
    }
    let boot_s = crate::sys::cpu_s() - cpu;
    (
        Booted {
            server,
            student,
            config,
            _registry: registry,
        },
        boot_s,
    )
}

/// Boots [`BOOTS`] times, keeping the last server; returns it and the
/// median boot time.
fn boots(report: &mut Report) -> (Booted, f64) {
    let mut times = Vec::with_capacity(BOOTS);
    let mut last = None;
    for i in 0..BOOTS {
        if let Some(b) = last.take() {
            let b: Booted = b;
            b.server.shutdown();
        }
        let (b, t) = boot(&format!("registry{i}"));
        times.push(t);
        last = Some(b);
    }
    report.ops(BOOTS, 0);
    report.note(format!(
        "boot CPU times (start to first /healthz 200) {:?} ms",
        times
            .iter()
            .map(|t| (t * 1e5).round() / 100.0)
            .collect::<Vec<_>>()
    ));
    (last.expect("at least one boot"), median(&times))
}

/// Deterministic 64-bit mixing (SplitMix64 finaliser).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded sample of `CHECKS` request indices out of `n`.
fn sample(seed: u64, n: usize) -> Vec<bool> {
    let mut keep = vec![false; n];
    for k in 0..CHECKS.min(n) {
        keep[(mix(seed ^ mix(k as u64)) % n as u64) as usize] = true;
    }
    keep
}

/// Renders a value as the server will read it, returning the text and the
/// exact `f32` the server decodes from it (JSON number -> f64 -> f32).
fn number(v: f32, out: &mut String) -> f32 {
    let text = format!("{v}");
    out.push_str(&text);
    text.parse::<f64>().expect("rendered number parses") as f32
}

/// Checks one `/forecast` reply bitwise against the planned student on the
/// window the server saw.
fn check_forecast(report: &mut Report, planned: &mut PlannedStudent, body: &[u8], window: &[f32]) {
    let expect = planned
        .predict(&Tensor::from_vec(window.to_vec(), [INPUT_LEN, NUM_VARS]))
        .to_vec();
    let got: Option<Vec<f32>> = std::str::from_utf8(body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
        .and_then(|doc| {
            let rows = doc.get("forecast")?.as_arr()?;
            let mut v = Vec::with_capacity(HORIZON * NUM_VARS);
            for row in rows {
                for cell in row.as_arr()? {
                    v.push(cell.as_num()? as f32);
                }
            }
            Some(v)
        });
    let ok = got.as_ref().is_some_and(|g| {
        g.len() == expect.len()
            && g.iter()
                .zip(&expect)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    });
    report.check(
        "served forecast is bitwise equal to PlannedStudent::predict on the same window",
        ok,
    );
}

/// Latency samples of one nominal segment, in request order.
#[derive(Default)]
struct Seg {
    forecast: Vec<f64>,
    observe: Vec<f64>,
    lag: Vec<f64>,
}

/// What an interleaved measurement found.
struct Measured {
    forecast: Segmented,
    observe: Option<Segmented>,
    work_s: f64,
    lag_p99_ms: f64,
}

fn segmented(report: &mut Report, what: &str, lat: &[f64]) -> Option<Segmented> {
    if lat.is_empty() {
        return None;
    }
    report.note(format!(
        "{what} latency from due time: {}",
        Summary::of(lat).describe("ms")
    ));
    let seg = Segmented::of(lat, SEGMENT);
    match &seg {
        Some(s) => report.note(format!("{what} latency segments: {}", s.describe())),
        None => report.check(format!("{what}: at least {SEGMENT} latency samples"), false),
    }
    seg
}

/// Alternates open-loop segments at the nominal rate with closed-loop
/// bursts until `budget_s` has passed (at least [`MIN_SEGMENTS`] of each),
/// so every metric samples the whole run rather than one stretch of it. A
/// `burst` returning `None` runs segments only. A generator that fell
/// behind its schedule fails the run's validity check.
fn measure(
    report: &mut Report,
    conns: &mut Conns,
    budget_s: f64,
    mut segment: impl FnMut(&mut Conns, &mut Report, u64) -> Seg,
    mut burst: impl FnMut(&mut Conns, &mut Report, u64) -> Option<f64>,
) -> Measured {
    let start = Instant::now();
    let mut all = Seg::default();
    let mut works = Vec::new();
    let mut k = 0u64;
    while k < MIN_SEGMENTS as u64 || secs(start) < budget_s {
        let s = segment(conns, report, k);
        all.forecast.extend(s.forecast);
        all.observe.extend(s.observe);
        all.lag.extend(s.lag);
        works.extend(burst(conns, report, k));
        k += 1;
    }
    let mut lag = all.lag;
    lag.sort_by(f64::total_cmp);
    let (p50, p99, max) = (
        percentile(&lag, 0.5),
        percentile(&lag, 0.99),
        lag[lag.len() - 1],
    );
    report.note(format!(
        "{k} segments: generator lateness p50 {p50:.4} ms, p99 {p99:.4} ms, max {max:.3} ms"
    ));
    report.check(
        format!(
            "generator median lateness {p50:.3} ms within {LAG_LIMIT_MS} ms (kept its schedule)"
        ),
        p50 <= LAG_LIMIT_MS,
    );
    let forecast = segmented(report, "forecast", &all.forecast).unwrap_or(Segmented {
        segments: Vec::new(),
        p50: f64::NAN,
        p90: f64::NAN,
        p99: f64::NAN,
    });
    let observe = segmented(report, "observe", &all.observe);
    if !works.is_empty() {
        report.note(format!(
            "bursts, depth {BURST_DEPTH} per connection: {:?} s",
            works
                .iter()
                .map(|t| (t * 1e4).round() / 1e4)
                .collect::<Vec<_>>()
        ));
    }
    Measured {
        forecast,
        observe,
        // Bursts are placement-sensitive in both directions (a lucky
        // spread of threads over the cores runs a burst 30% faster), so
        // their median, not their lower quartile.
        work_s: if works.is_empty() {
            f64::NAN
        } else {
            median(&works)
        },
        lag_p99_ms: p99,
    }
}

/// One closed-loop burst over `reqs`; the CPU seconds the process (server
/// and generator) spent on it. CPU time rather than wall time: a saturated
/// burst's cost does not grow while the hypervisor steals the CPU.
fn burst(report: &mut Report, conns: &mut Conns, reqs: &[Req<'_>]) -> f64 {
    let cpu = crate::sys::cpu_s();
    let out = conns.drive(reqs, Pace::Burst(BURST_DEPTH), DRAIN, |_| false);
    report.ops(out.records.len(), out.failed());
    crate::sys::cpu_s() - cpu
}

fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

// ---------------------------------------------------------------------------
// serve_window
// ---------------------------------------------------------------------------

/// The request pool: `POOL` seeded ETTh1 windows as request bytes plus the
/// exact values the server decodes.
fn window_pool(seed: u64) -> (Vec<Vec<u8>>, Vec<Vec<f32>>) {
    let ds = SplitDataset::new(DatasetKind::EttH1, 2400, seed, INPUT_LEN, HORIZON);
    let windows = ds.windows(Split::Train, 1);
    let mut bytes = Vec::with_capacity(POOL);
    let mut values = Vec::with_capacity(POOL);
    for k in 0..POOL {
        let w = &windows[(mix(seed ^ k as u64) % windows.len() as u64) as usize];
        let x = w.x.to_vec();
        let mut body = String::from("{\"x\":[");
        let mut decoded = Vec::with_capacity(x.len());
        for (r, row) in x.chunks(NUM_VARS).enumerate() {
            body.push_str(if r == 0 { "[" } else { ",[" });
            for (c, &v) in row.iter().enumerate() {
                if c > 0 {
                    body.push(',');
                }
                decoded.push(number(v, &mut body));
            }
            body.push(']');
        }
        body.push_str("]}");
        bytes.push(post("/forecast", &body));
        values.push(decoded);
    }
    (bytes, values)
}

/// Runs `serve_window`.
pub fn run_window(args: &Args) -> Report {
    let mut report = Report::default();
    let (booted, setup_s) = boots(&mut report);
    let addr = booted.server.addr();
    let (pool_bytes, pool_values) = window_pool(args.seed);
    let nconns = connections();
    let mut conns = Conns::connect(addr, nconns).expect("connect to the server");
    let mut planned = PlannedStudent::new(&booted.student, &booted.config).expect("forecast plan");
    report.note(format!(
        "serve_window: {nconns} connections, segments of {SEGMENT} requests at {WINDOW_RPS} req/s open loop, pool of {POOL} windows ({} bytes each)",
        pool_bytes[0].len()
    ));

    let mut segment = |conns: &mut Conns, report: &mut Report, k: u64| {
        let salt = mix(args.seed ^ mix(k));
        let pick: Vec<usize> = (0..SEGMENT)
            .map(|i| (mix(salt ^ i as u64) % POOL as u64) as usize)
            .collect();
        let reqs: Vec<Req> = pick
            .iter()
            .enumerate()
            .map(|(i, &p)| Req {
                bytes: &pool_bytes[p],
                conn: i % nconns,
            })
            .collect();
        let keep = sample(salt, SEGMENT);
        let out = conns.drive(&reqs, Pace::Rate(WINDOW_RPS), DRAIN, |i| keep[i]);
        report.ops(out.records.len(), out.failed());
        for (i, body) in &out.bodies {
            check_forecast(report, &mut planned, body, &pool_values[pick[*i]]);
        }
        Seg {
            forecast: out.latencies_ms(|_| true),
            observe: Vec::new(),
            lag: out.lag_ms(),
        }
    };
    let capacity = |conns: &mut Conns, report: &mut Report, k: u64| {
        let reqs: Vec<Req> = (0..WINDOW_BURST)
            .map(|i| Req {
                bytes: &pool_bytes[(i + 97 * k as usize) % POOL],
                conn: i % nconns,
            })
            .collect();
        Some(burst(report, conns, &reqs))
    };

    if !args.trace {
        let m = measure(
            &mut report,
            &mut conns,
            args.seconds,
            &mut segment,
            capacity,
        );
        report.set("setup_s", setup_s);
        report.set("work_s", m.work_s);
        report.set("peak_rss_mb", crate::sys::peak_rss_mb());
        drop(conns);
        booted.server.shutdown();
        return report;
    }

    // Traced run: an untraced baseline, the rate ladder, then traced
    // segments (no bursts, so the server's histograms hold exactly the
    // nominal-rate requests).
    let base = measure(
        &mut report,
        &mut conns,
        args.seconds / 2.0,
        &mut segment,
        capacity,
    );
    report.set("loadgen.lag_p99_ms", base.lag_p99_ms);
    report.set("forecast.p50_ms", base.forecast.p50);
    report.set("forecast.p90_ms", base.forecast.p90);
    report.set("forecast.p99_ms", base.forecast.p99);
    let mut max_rps = 0.0;
    for (k, &rate) in LADDER_RPS.iter().enumerate() {
        let n = (rate as usize).max(SEGMENT);
        let reqs: Vec<Req> = (0..n)
            .map(|i| Req {
                bytes: &pool_bytes[(i * 31 + k) % POOL],
                conn: i % nconns,
            })
            .collect();
        let out = conns.drive(&reqs, Pace::Rate(rate), DRAIN, |_| false);
        report.ops(out.records.len(), out.failed());
        let rung = judge(rate, &out, SLO_P99_MS, RUNG_LAG_LIMIT_MS);
        report.note(format!(
            "ladder rung {} req/s: sent {}, failed {}, p99 {:?} ms, backlog {}, generator lag p99 {:.3} ms -> {}",
            rung.rate,
            rung.sent,
            rung.failed,
            rung.p99_ms.map(|p| (p * 1e3).round() / 1e3),
            rung.backlog,
            rung.lag_p99_ms,
            if rung.pass { "meets" } else { "misses" }
        ));
        if !rung.pass {
            break;
        }
        max_rps = rate;
    }
    report.note(format!(
        "max_rps_under_slo {max_rps} (ladder {LADDER_RPS:?} req/s, p99 limit {SLO_P99_MS} ms, no growing backlog)"
    ));
    report.set("serve.max_rps_under_slo", max_rps);

    timekd_obs::reset();
    timekd_obs::set_enabled(true);
    let traced = measure(
        &mut report,
        &mut conns,
        0.0,
        |c: &mut Conns, r: &mut Report, k| segment(c, r, k + 1000),
        |_: &mut Conns, _: &mut Report, _| None,
    );
    let scrape = get(addr, "/metrics");
    timekd_obs::set_enabled(false);
    let server = scraped(&mut report, scrape);
    let route = server.hist_ms("serve.forecast.latency_ns");
    report.set("serve.route_p50_ms", route.0);
    report.set("serve.route_p99_ms", route.1);
    let traced_p50 = traced.forecast.p50;
    let outside = traced_p50 - route.0;
    report.set("serve.outside_route_p50_ms", outside);
    server.batching(&mut report);
    let overhead = traced_p50 / base.forecast.p50 - 1.0;
    report.set("obs.trace_overhead_frac", overhead);

    // Probes.
    let probes = probe_common(&mut report, &booted, &pool_values, &pool_bytes);
    let parse_us = per_call_us(&pool_bytes, |b| {
        let text = std::str::from_utf8(body_of(b)).expect("utf8 body");
        std::hint::black_box(Json::parse(text).expect("body parses"));
    });
    report.set("serve.json_parse_us", parse_us);
    let reply = forecast_reply(&planned_values(&mut planned, &pool_values[0]));
    let render_us = per_call_us(&[(); 200], |_| {
        std::hint::black_box(reply.render());
    });
    report.set("serve.json_render_us", render_us);

    let per_request_ms = (parse_us + probes.plan_us + render_us + probes.http_us) / 1e3;
    let lines = [
        attribution(
            "setup_s",
            setup_s,
            &[
                ("serve.registry_load_ms", probes.load_ms / 1e3),
                ("serve.bind_us", probes.bind_us / 1e6),
            ],
            "s",
        ),
        attribution(
            "work_s (one burst)",
            base.work_s,
            &[(
                "requests x (json_parse + plan_run + json_render + http_read), run serially",
                WINDOW_BURST as f64 * per_request_ms / 1e3,
            )],
            "s",
        ),
        attribution(
            "forecast p50 (traced)",
            traced_p50,
            &[
                ("serve.json_parse_us", parse_us / 1e3),
                ("tensor.plan_run_us", probes.plan_us / 1e3),
                ("serve.json_render_us", render_us / 1e3),
                ("serve.http_read_us", probes.http_us / 1e3),
            ],
            "ms",
        ),
        attribution(
            "forecast p50 (traced)",
            traced_p50,
            &[
                ("serve.route_p50_ms", route.0),
                ("serve.outside_route_p50_ms", outside),
            ],
            "ms",
        ),
        attribution(
            "serve.route_p50_ms",
            route.0,
            &[
                ("serve.json_parse_us", parse_us / 1e3),
                ("tensor.plan_run_us", probes.plan_us / 1e3),
                ("serve.json_render_us", render_us / 1e3),
            ],
            "ms",
        ),
    ];
    finish_attribution(&mut report, &lines, overhead);
    drop(conns);
    booted.server.shutdown();
    report
}

/// Notes the attribution lines and records the remainders of `setup_s`,
/// `work_s` and the forecast p50 (the first three lines, in that order).
fn finish_attribution(report: &mut Report, lines: &[(String, f64)], overhead: f64) {
    for (line, _) in lines {
        report.note(line.clone());
    }
    report.note(format!(
        "tracing overhead on forecast p50: {:+.2}%",
        overhead * 100.0
    ));
    report.set("attrib.setup_rem_frac", lines[0].1);
    report.set("attrib.work_rem_frac", lines[1].1);
    report.set("attrib.forecast_p50_rem_frac", lines[2].1);
}

/// Parses a `/metrics` scrape, failing a check when it is missing.
fn scraped(report: &mut Report, scrape: Option<(u16, Vec<u8>)>) -> ServerMetrics {
    let server = ServerMetrics::parse(scrape.as_ref().map(|r| r.1.as_slice()));
    report.check(
        "GET /metrics answered with a parsable document",
        server.is_some(),
    );
    server.unwrap_or_default()
}

fn planned_values(planned: &mut PlannedStudent, window: &[f32]) -> Vec<f32> {
    planned
        .predict(&Tensor::from_vec(window.to_vec(), [INPUT_LEN, NUM_VARS]))
        .to_vec()
}

/// The `/forecast` reply document, built as the server builds it.
fn forecast_reply(values: &[f32]) -> Json {
    let rows = values
        .chunks(NUM_VARS)
        .map(|row| Json::Arr(row.iter().map(|&v| Json::num(v as f64)).collect()))
        .collect();
    Json::obj(vec![
        ("version", Json::num(1.0)),
        ("horizon", Json::num(HORIZON as f64)),
        ("num_vars", Json::num(NUM_VARS as f64)),
        ("forecast", Json::Arr(rows)),
    ])
}

fn body_of(request: &[u8]) -> &[u8] {
    let head = request
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("request head")
        + 4;
    &request[head..]
}

/// Probe results shared by both serving workloads.
struct Common {
    load_ms: f64,
    bind_us: f64,
    plan_us: f64,
    http_us: f64,
}

/// Registry load, executor bind, plan replay and HTTP framing probes.
/// `requests` are the exact bytes the workload sends.
fn probe_common(
    report: &mut Report,
    booted: &Booted,
    windows: &[Vec<f32>],
    requests: &[Vec<u8>],
) -> Common {
    let registry = Scratch::new("probe-registry");
    publish(
        &registry.0,
        1,
        &booted.student,
        &booted.config,
        Precision::F32,
    )
    .expect("publish");
    let loads: Vec<()> = vec![(); 5];
    let load_ms = per_call_us(&loads, |_| {
        std::hint::black_box(load(&registry.0, 1).expect("registry loads"));
    }) / 1e3;
    let model = load(&registry.0, 1).expect("registry loads");
    let binds: Vec<()> = vec![(); 20];
    let bind_us = per_call_us(&binds, |_| {
        std::hint::black_box(model.make_executor().expect("executor binds"));
    });
    let mut exec = model.make_executor().expect("executor binds");
    let mut out = vec![0.0f32; model.output_values()];
    let plan_us = per_call_us(windows, |w| exec.run(w, &mut out));
    let mut planned = PlannedStudent::new(&booted.student, &booted.config).expect("forecast plan");
    let tensors: Vec<Tensor> = windows
        .iter()
        .map(|w| Tensor::from_vec(w.clone(), [INPUT_LEN, NUM_VARS]))
        .collect();
    let planned_us = per_call_us(&tensors, |x| planned.predict_into(x, &mut out));
    report.set("core.planned_predict_us", planned_us);
    let cfg = &booted.config;
    report.set(
        "tensor.fused_attention_enc_us",
        crate::train::fused_attention_us(cfg.num_heads, NUM_VARS, cfg.dim / cfg.num_heads, false),
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener");
    let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (mut server_side, _) = listener.accept().expect("accept");
    let mut framed = true;
    let http_us = per_call_us(&requests[..requests.len().min(256)], |bytes| {
        client.write_all(bytes).expect("write a request");
        match read_request(&mut server_side, 1 << 20) {
            ReadOutcome::Request(_) => {}
            _ => framed = false,
        }
    });
    report.check("http::read_request frames every workload request", framed);
    report.set("serve.registry_load_ms", load_ms);
    report.set("serve.bind_us", bind_us);
    report.set("tensor.plan_run_us", plan_us);
    report.set("serve.http_read_us", http_us);
    Common {
        load_ms,
        bind_us,
        plan_us,
        http_us,
    }
}

/// The numbers read back from `GET /metrics`.
#[derive(Debug, Default)]
struct ServerMetrics {
    counters: HashMap<String, f64>,
    hists: HashMap<String, (f64, f64)>,
}

impl ServerMetrics {
    fn parse(body: Option<&[u8]>) -> Option<ServerMetrics> {
        let doc = Json::parse(std::str::from_utf8(body?).ok()?).ok()?;
        let mut m = ServerMetrics::default();
        if let Some(Json::Obj(pairs)) = doc.get("counters") {
            for (k, v) in pairs {
                m.counters.insert(k.clone(), v.as_num()?);
            }
        }
        for h in doc.get("histograms")?.as_arr()? {
            let name = h.get("name")?.as_str()?.to_string();
            m.hists
                .insert(name, (h.get("p50")?.as_num()?, h.get("p99")?.as_num()?));
        }
        Some(m)
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Records the batcher's round count and mean occupancy.
    fn batching(&self, report: &mut Report) {
        let batches = self.counter("serve.batches");
        report.set("serve.batches", batches);
        report.set(
            "serve.batch_occupancy",
            self.counter("serve.batched_requests") / batches.max(1.0),
        );
    }

    /// `(p50, p99)` of a nanosecond histogram, in ms.
    fn hist_ms(&self, name: &str) -> (f64, f64) {
        self.hists
            .get(name)
            .map_or((0.0, 0.0), |&(p50, p99)| (p50 / 1e6, p99 / 1e6))
    }
}

// ---------------------------------------------------------------------------
// serve_tenant
// ---------------------------------------------------------------------------

/// The seeded tenant population and the rows each tenant has been sent.
struct Tenants {
    seed: u64,
    ids: Vec<String>,
    rows: Vec<usize>,
}

impl Tenants {
    fn new(seed: u64) -> Tenants {
        let mut seen = std::collections::HashSet::new();
        let mut ids = Vec::with_capacity(TENANTS);
        let mut k = 0u64;
        while ids.len() < TENANTS {
            let id = format!("tenant-{:012x}", mix(seed ^ mix(k)) >> 16);
            k += 1;
            if seen.insert(id.clone()) {
                ids.push(id);
            }
        }
        Tenants {
            seed,
            ids,
            rows: vec![0; TENANTS],
        }
    }

    /// Value `v` of row `r` of tenant `t`, rendered into `out`; returns the
    /// `f32` the server decodes.
    fn cell(&self, t: usize, r: usize, v: usize, out: &mut String) -> f32 {
        let h = mix(mix(mix(self.seed) ^ t as u64) ^ (r * NUM_VARS + v) as u64);
        let x = (h >> 40) as f32 / (1u64 << 24) as f32 * 6.0 - 3.0;
        let text = format!("{x:.3}");
        out.push_str(&text);
        text.parse::<f64>().expect("rendered number parses") as f32
    }

    /// An `/observe` request appending `k` new rows for tenant `t`.
    fn observe(&mut self, t: usize, k: usize) -> Vec<u8> {
        let mut body = format!("{{\"tenant\":\"{}\",\"rows\":[", self.ids[t]);
        for r in self.rows[t]..self.rows[t] + k {
            body.push_str(if r == self.rows[t] { "[" } else { ",[" });
            for v in 0..NUM_VARS {
                if v > 0 {
                    body.push(',');
                }
                self.cell(t, r, v, &mut body);
            }
            body.push(']');
        }
        body.push_str("]}");
        self.rows[t] += k;
        post("/observe", &body)
    }

    /// A tenant-keyed `/forecast` request.
    fn forecast(&self, t: usize) -> Vec<u8> {
        post("/forecast", &format!("{{\"tenant\":\"{}\"}}", self.ids[t]))
    }

    /// The window the server splices for tenant `t` now: its last
    /// `INPUT_LEN` rows.
    fn window(&self, t: usize) -> Vec<f32> {
        let mut scratch = String::new();
        let end = self.rows[t];
        (end - INPUT_LEN..end)
            .flat_map(|r| (0..NUM_VARS).map(move |v| (r, v)))
            .map(|(r, v)| {
                scratch.clear();
                self.cell(t, r, v, &mut scratch)
            })
            .collect()
    }
}

/// One request of the tenant mix.
enum Kind {
    Observe { rows_after: usize },
    Forecast { window: Option<Vec<f32>> },
}

/// `n` requests of the 3:1 mix; sampled forecasts record their window.
fn tenant_mix(
    tenants: &mut Tenants,
    n: usize,
    salt: u64,
    nconns: usize,
    keep: &[bool],
) -> (Vec<Vec<u8>>, Vec<usize>, Vec<Kind>) {
    let mut bytes = Vec::with_capacity(n);
    let mut conns = Vec::with_capacity(n);
    let mut kinds = Vec::with_capacity(n);
    for i in 0..n {
        let h = mix(tenants.seed ^ salt ^ mix(i as u64));
        let t = (h % TENANTS as u64) as usize;
        // A tenant always uses the same connection, so its observes and
        // forecasts reach the server in schedule order.
        conns.push(t % nconns);
        if i % FORECAST_EVERY == FORECAST_EVERY - 1 {
            bytes.push(tenants.forecast(t));
            kinds.push(Kind::Forecast {
                window: keep
                    .get(i)
                    .copied()
                    .unwrap_or(false)
                    .then(|| tenants.window(t)),
            });
        } else {
            let k = 1 + (h >> 32) as usize % 4;
            bytes.push(tenants.observe(t, k));
            kinds.push(Kind::Observe {
                rows_after: tenants.rows[t],
            });
        }
    }
    (bytes, conns, kinds)
}

/// Checks the kept replies of a mix drive: forecasts bitwise, observes by
/// the row count the server reports.
fn check_mix(report: &mut Report, planned: &mut PlannedStudent, out: &Outcome, kinds: &[Kind]) {
    for (i, body) in &out.bodies {
        match &kinds[*i] {
            Kind::Forecast { window: Some(w) } => check_forecast(report, planned, body, w),
            Kind::Forecast { window: None } => {}
            Kind::Observe { rows_after } => {
                let rows = std::str::from_utf8(body)
                    .ok()
                    .and_then(|t| Json::parse(t).ok())
                    .and_then(|d| d.get("rows").and_then(Json::as_num));
                report.check(
                    format!("observe reply reports {rows:?} rows, expected {rows_after}"),
                    rows == Some((*rows_after).min(1024) as f64),
                );
            }
        }
    }
}

/// Runs `serve_tenant`.
pub fn run_tenant(args: &Args) -> Report {
    let mut report = Report::default();
    let (booted, setup_s) = boots(&mut report);
    let addr = booted.server.addr();
    let nconns = connections();
    let mut conns = Conns::connect(addr, nconns).expect("connect to the server");
    let mut planned = PlannedStudent::new(&booted.student, &booted.config).expect("forecast plan");
    let tenants = RefCell::new(Tenants::new(args.seed));

    // Pre-fill every tenant to INPUT_LEN rows, in chunks to bound the
    // generator's own memory; the RSS growth is the server's tenant state.
    let rss_before = crate::sys::rss_kb();
    for chunk in (0..TENANTS).collect::<Vec<_>>().chunks(500) {
        let bytes: Vec<Vec<u8>> = chunk
            .iter()
            .map(|&t| tenants.borrow_mut().observe(t, INPUT_LEN))
            .collect();
        let reqs: Vec<Req> = chunk
            .iter()
            .zip(&bytes)
            .map(|(&t, b)| Req {
                bytes: b,
                conn: t % nconns,
            })
            .collect();
        burst(&mut report, &mut conns, &reqs);
    }
    let rss_per_tenant_kb = (crate::sys::rss_kb() - rss_before) / TENANTS as f64;
    report.note(format!(
        "serve_tenant: {nconns} connections, {TENANTS} tenants pre-filled to {INPUT_LEN} rows (+{rss_per_tenant_kb:.2} KiB RSS each), segments of {} requests at {TENANT_RPS} req/s, 1 forecast per {FORECAST_EVERY} requests",
        SEGMENT * FORECAST_EVERY
    ));

    let mut segment = |conns: &mut Conns, report: &mut Report, k: u64| {
        let n = SEGMENT * FORECAST_EVERY;
        let salt = mix(args.seed ^ mix(k));
        let keep = sample(salt, n);
        let (bytes, conn, kinds) = tenant_mix(&mut tenants.borrow_mut(), n, salt, nconns, &keep);
        let reqs: Vec<Req> = bytes
            .iter()
            .zip(&conn)
            .map(|(b, &c)| Req { bytes: b, conn: c })
            .collect();
        let out = conns.drive(&reqs, Pace::Rate(TENANT_RPS), DRAIN, |i| keep[i]);
        report.ops(out.records.len(), out.failed());
        check_mix(report, &mut planned, &out, &kinds);
        let is_forecast = |i: usize| matches!(kinds[i], Kind::Forecast { .. });
        Seg {
            forecast: out.latencies_ms(is_forecast),
            observe: out.latencies_ms(|i| !is_forecast(i)),
            lag: out.lag_ms(),
        }
    };
    let capacity = |conns: &mut Conns, report: &mut Report, k: u64| {
        let salt = mix(args.seed ^ mix(k) ^ 0xb0b5);
        let (bytes, conn, _) =
            tenant_mix(&mut tenants.borrow_mut(), TENANT_BURST, salt, nconns, &[]);
        let reqs: Vec<Req> = bytes
            .iter()
            .zip(&conn)
            .map(|(b, &c)| Req { bytes: b, conn: c })
            .collect();
        Some(burst(report, conns, &reqs))
    };

    if !args.trace {
        let m = measure(
            &mut report,
            &mut conns,
            args.seconds,
            &mut segment,
            capacity,
        );
        report.set("setup_s", setup_s);
        report.set("work_s", m.work_s);
        report.set("peak_rss_mb", crate::sys::peak_rss_mb());
        drop(conns);
        booted.server.shutdown();
        return report;
    }

    report.set("serve.rss_per_tenant_kb", rss_per_tenant_kb);
    let base = measure(
        &mut report,
        &mut conns,
        args.seconds / 2.0,
        &mut segment,
        capacity,
    );
    report.set("loadgen.lag_p99_ms", base.lag_p99_ms);
    report.set("forecast.p50_ms", base.forecast.p50);
    report.set("forecast.p90_ms", base.forecast.p90);
    report.set("forecast.p99_ms", base.forecast.p99);
    let base_observe = base.observe.as_ref();
    report.set(
        "serve.observe_p50_ms",
        base_observe.map_or(f64::NAN, |o| o.p50),
    );
    report.set(
        "serve.observe_p99_ms",
        base_observe.map_or(f64::NAN, |o| o.p99),
    );

    timekd_obs::reset();
    timekd_obs::set_enabled(true);
    let traced = measure(
        &mut report,
        &mut conns,
        0.0,
        |c: &mut Conns, r: &mut Report, k| segment(c, r, k + 1000),
        |_: &mut Conns, _: &mut Report, _| None,
    );
    let scrape = get(addr, "/metrics");
    timekd_obs::set_enabled(false);
    let server = scraped(&mut report, scrape);
    let route = server.hist_ms("serve.forecast.latency_ns");
    let observe_route = server.hist_ms("serve.observe.latency_ns");
    report.set("serve.route_p50_ms", route.0);
    report.set("serve.route_p99_ms", route.1);
    report.set("serve.observe_route_p50_ms", observe_route.0);
    let traced_p50 = traced.forecast.p50;
    let traced_observe_p50 = traced.observe.as_ref().map_or(f64::NAN, |o| o.p50);
    let outside = traced_p50 - route.0;
    report.set("serve.outside_route_p50_ms", outside);
    server.batching(&mut report);
    let overhead = traced_p50 / base.forecast.p50 - 1.0;
    report.set("obs.trace_overhead_frac", overhead);

    // Probes on the workload's own request shapes.
    let mut probe_tenants = Tenants::new(args.seed);
    let observe_bytes: Vec<Vec<u8>> = (0..256)
        .map(|t| probe_tenants.observe(t, 1 + t % 4))
        .collect();
    let windows: Vec<Vec<f32>> = (0..64)
        .map(|t| {
            probe_tenants.observe(t, INPUT_LEN);
            probe_tenants.window(t)
        })
        .collect();
    let probes = probe_common(&mut report, &booted, &windows, &observe_bytes);
    let parse_us = per_call_us(&observe_bytes, |b| {
        let text = std::str::from_utf8(body_of(b)).expect("utf8 body");
        std::hint::black_box(Json::parse(text).expect("body parses"));
    });
    report.set("serve.json_parse_us", parse_us);
    let ids = &tenants.borrow().ids;
    let reply = Json::obj(vec![
        ("tenant", Json::str(ids[0].as_str())),
        ("rows", Json::num(97.0)),
    ]);
    let render_us = per_call_us(&[(); 200], |_| {
        std::hint::black_box(reply.render());
    });
    report.set("serve.json_render_us", render_us);

    // TenantCache at the workload's population.
    let cache = TenantCache::new();
    let rows: Vec<Vec<f32>> = vec![vec![0.5; NUM_VARS]; INPUT_LEN];
    for id in ids {
        cache.observe(id, &rows);
    }
    let picks: Vec<usize> = (0..2000)
        .map(|i| (mix(args.seed ^ i) % TENANTS as u64) as usize)
        .collect();
    let block: Vec<Vec<f32>> = vec![vec![0.25; NUM_VARS]; 2];
    let observe_us = per_call_us(&picks, |&t| {
        std::hint::black_box(cache.observe(&ids[t], &block));
    });
    let window_us = per_call_us(&picks, |&t| {
        std::hint::black_box(cache.window(&ids[t], INPUT_LEN, NUM_VARS).expect("window"));
    });
    drop(cache);
    report.set("serve.tenants_observe_us", observe_us);
    report.set("serve.tenants_window_us", window_us);

    let observe_ms = (parse_us + observe_us + render_us + probes.http_us) / 1e3;
    let forecast_ms = (window_us + probes.plan_us) / 1e3;
    let per_request_ms =
        ((FORECAST_EVERY - 1) as f64 * observe_ms + forecast_ms) / FORECAST_EVERY as f64;
    let lines = [
        attribution(
            "setup_s",
            setup_s,
            &[
                ("serve.registry_load_ms", probes.load_ms / 1e3),
                ("serve.bind_us", probes.bind_us / 1e6),
            ],
            "s",
        ),
        attribution(
            "work_s (one burst)",
            base.work_s,
            &[(
                "requests x mean per-request layer time of the mix, run serially",
                TENANT_BURST as f64 * per_request_ms / 1e3,
            )],
            "s",
        ),
        attribution(
            "forecast p50 (traced)",
            traced_p50,
            &[
                ("serve.tenants_window_us", window_us / 1e3),
                ("tensor.plan_run_us", probes.plan_us / 1e3),
            ],
            "ms",
        ),
        attribution(
            "forecast p50 (traced)",
            traced_p50,
            &[
                ("serve.route_p50_ms", route.0),
                ("serve.outside_route_p50_ms", outside),
            ],
            "ms",
        ),
        attribution(
            "observe p50 (traced)",
            traced_observe_p50,
            &[
                ("serve.json_parse_us", parse_us / 1e3),
                ("serve.tenants_observe_us", observe_us / 1e3),
                ("serve.json_render_us", render_us / 1e3),
                ("serve.http_read_us", probes.http_us / 1e3),
            ],
            "ms",
        ),
        attribution(
            "observe p50 (traced)",
            traced_observe_p50,
            &[
                ("serve.observe_route_p50_ms", observe_route.0),
                ("outside the route", traced_observe_p50 - observe_route.0),
            ],
            "ms",
        ),
    ];
    finish_attribution(&mut report, &lines, overhead);
    drop(conns);
    booted.server.shutdown();
    report
}
