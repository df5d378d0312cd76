//! Standalone serve-load runner.
//!
//! ```text
//! QUICK=1 cargo run -p timekd-bench --release --bin serve_load
//! ```
//!
//! Boots a real `timekd-serve` server on an ephemeral loopback port,
//! publishes a seeded student into a throwaway registry, drives it with
//! closed-loop client threads, and prints the `serving` section of the
//! `timekd-kernel-bench/v8` schema (the kernels runner embeds the same
//! section into `BENCH_*.json`). Exits non-zero if any request errored.

use timekd_bench::{run_serve_load, Json, Profile, ServeLoadSpec};

fn main() {
    let quick = Profile::from_env().quick;
    let spec = if quick {
        ServeLoadSpec::quick()
    } else {
        ServeLoadSpec::full()
    };
    println!(
        "serve_load: {} profile, {} clients x {} requests, micro_batch {}",
        if quick { "QUICK" } else { "full" },
        spec.clients,
        spec.requests_per_client,
        spec.micro_batch
    );
    let section = run_serve_load(&spec);
    let num = |key: &str| section.get(key).and_then(Json::as_num).unwrap_or(f64::NAN);
    println!(
        "  {:.0} requests in {:.1} ms -> {:.0} req/s; latency p50 {:.3} ms p95 {:.3} ms p99 {:.3} ms; occupancy {:.2}/{:.0}",
        num("requests_total"),
        num("duration_ms"),
        num("throughput_rps"),
        num("latency_p50_ms"),
        num("latency_p95_ms"),
        num("latency_p99_ms"),
        num("mean_batch_occupancy"),
        num("micro_batch"),
    );
    println!("{}", section.render());
    if num("errors") > 0.0 {
        eprintln!("serve_load: {} request(s) errored", num("errors"));
        std::process::exit(1);
    }
}
