//! Disabled-path overhead guard for the serving histograms, mirroring the
//! top-level `tests/obs_overhead.rs` pattern: rather than diffing two
//! noisy end-to-end timings (flaky under CI jitter), measure the
//! *per-event* cost of a disabled `Histogram::record` over millions of
//! calls, multiply by the hook events one served request fires, and
//! require that derived total to stay under 1% of a measured synthetic
//! request workload. The margin in practice is orders of magnitude, so
//! the test is non-flaky by construction.
//!
//! This file is its own test binary (own process) because the obs gate
//! and histogram banks are process-global.

use std::hint::black_box;
use std::time::Instant;

use timekd_obs::{SERVE_FORECAST_LATENCY, SERVE_OBSERVE_LATENCY};

/// Hook events one `/forecast` request fires at most: the request
/// counter, the error counter (failed requests only) and the endpoint
/// latency histogram.
const EVENTS_PER_REQUEST: f64 = 3.0;

#[test]
fn disabled_histograms_cost_under_one_percent_of_a_request() {
    timekd_obs::set_enabled(false);
    timekd_obs::reset();

    const PROBES: u64 = 4_000_000;
    let t0 = Instant::now();
    for i in 0..PROBES {
        SERVE_FORECAST_LATENCY.record(black_box(i));
        SERVE_OBSERVE_LATENCY.record(black_box(i));
    }
    let per_event_ns = t0.elapsed().as_nanos() as f64 / (PROBES * 2) as f64;
    assert_eq!(
        SERVE_FORECAST_LATENCY.snapshot().count(),
        0,
        "disabled record must not touch the buckets"
    );

    // A stand-in for the per-request planned forward pass: ~200k fused
    // multiply-adds, far below what even the smallest registry model runs.
    let t1 = Instant::now();
    let mut acc = 0.0f32;
    for i in 0..200_000u32 {
        acc = black_box(acc).mul_add(1.000_001, (i & 0xff) as f32 * 1e-6);
    }
    black_box(acc);
    let request_ns = t1.elapsed().as_nanos() as f64;

    let disabled_cost_ns = per_event_ns * EVENTS_PER_REQUEST;
    let ratio = disabled_cost_ns / request_ns;
    assert!(
        ratio < 0.01,
        "disabled histogram hooks cost {disabled_cost_ns:.1}ns per request \
         ({per_event_ns:.2}ns/event) = {:.4}% of a {:.0}us synthetic forward — over the 1% budget",
        ratio * 100.0,
        request_ns / 1e3
    );
}
