//! TimeKD benchmark: one command per workload, run from the repository root.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
//!     --workload <train_etth1|serve_window|serve_tenant> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is the result object; earlier lines starting
//! with `#` hold the host fingerprint, the raw detail behind each metric,
//! and, for traced runs, the attribution report. See README.md.

mod loadgen;
mod metrics;
mod serve;
mod stats;
mod sys;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{compact, END_TO_END, PER_LAYER};
use timekd_obs::json::Json;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["train_etth1", "serve_window", "serve_tenant"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed {v}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// A scratch directory under `.bench_tmp/` in the working directory,
/// unique to this process; removed by [`Scratch`]'s drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// Creates `.bench_tmp/<pid>-<tag>`.
    pub fn new(tag: &str) -> Scratch {
        let dir = PathBuf::from(".bench_tmp").join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once no other run is using it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// FNV-1a over every source and build file that decides the program's
/// behaviour, so results from checkouts without git history still name the
/// exact code they measured.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "benchmark/src", "src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    for f in [
        "Cargo.toml",
        "Cargo.lock",
        ".cargo/config.toml",
        "benchmark/Cargo.toml",
    ] {
        files.push(PathBuf::from(f));
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        if let Ok(b) = std::fs::read(f) {
            bytes.extend_from_slice(f.to_string_lossy().as_bytes());
            bytes.extend_from_slice(&b);
        }
    }
    format!("{:016x}", timekd_serve::fnv1a(&bytes))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host and build fingerprint: numbers from different hosts or builds are
/// not comparable (`target-cpu=native` changes both speed and bits).
fn fingerprint(args: &Args) -> Json {
    let git = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
    } else {
        "none (not a git checkout)".into()
    };
    let available = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj(vec![
        ("workload", Json::str(args.workload.as_str())),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        (
            "nproc",
            Json::str(command_line("nproc", &[]).unwrap_or_else(|| "unknown".into())),
        ),
        ("available_parallelism", Json::num(available as f64)),
        (
            "TIMEKD_THREADS",
            Json::str(std::env::var("TIMEKD_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        (
            "pool_threads",
            Json::num(timekd_tensor::parallel::configured_threads() as f64),
        ),
        ("target_arch", Json::str(std::env::consts::ARCH)),
        ("fma", Json::Bool(cfg!(target_feature = "fma"))),
        ("avx2", Json::Bool(cfg!(target_feature = "avx2"))),
        ("avx512f", Json::Bool(cfg!(target_feature = "avx512f"))),
        ("git_commit", Json::str(git)),
        ("source_fnv1a", Json::str(source_digest())),
    ])
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("timekd-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Recording stays off unless a phase turns it on, whatever the
    // environment says; traced phases switch it explicitly.
    timekd_obs::set_enabled(false);
    println!("# fingerprint {}", compact(&fingerprint(&args)));
    let ticks = sys::cpu_ticks();
    let mut report = match args.workload.as_str() {
        "train_etth1" => train::run(&args),
        "serve_window" => serve::run_window(&args),
        _ => serve::run_tenant(&args),
    };
    if let (Some((all0, steal0)), Some((all1, steal1))) = (ticks, sys::cpu_ticks()) {
        report.note(format!(
            "host steal during the run: {:.2}% of CPU time ({:.1} s wall)",
            (steal1 - steal0) as f64 * 100.0 / (all1 - all0).max(1) as f64,
            started.elapsed().as_secs_f64()
        ));
    }
    report.print(if args.trace { PER_LAYER } else { END_TO_END });
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve_window --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(a.workload, "serve_window");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload train_etth1").is_err());
        assert!(args("--workload train_etth1 --seed 1 --trace 2").is_err());
        assert!(args("--workload train_etth1 --seed 1 --seconds -1").is_err());
        assert!(args("--workload train_etth1 --seed").is_err());
    }
}
