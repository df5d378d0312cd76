//! `timekd-serve` — launch the forecast-serving layer against an on-disk
//! model registry.
//!
//! ```bash
//! timekd-serve --registry ./registry                  # serve the latest version
//! timekd-serve --registry ./registry --addr 0.0.0.0:7878 --max-connections 64
//! timekd-serve --registry ./registry --bootstrap      # publish a demo v1 first
//! ```
//!
//! The registry is a plain directory of `v<N>/` version dirs (manifest +
//! param blobs, see `timekd_serve::registry`). On start the server loads
//! the highest version; `POST /admin/activate {"version": N}` hot-swaps
//! at runtime. `--bootstrap` publishes a small seeded F32 student as the
//! next version before serving — handy for demos and smoke tests against
//! an empty registry.

use std::process::ExitCode;

use timekd::{Student, TimeKdConfig};
use timekd_serve::{latest_version, publish, ServeConfig, Server};
use timekd_tensor::{seeded_rng, Precision};

/// Demo-student geometry used by `--bootstrap`.
const BOOT_INPUT_LEN: usize = 32;
const BOOT_HORIZON: usize = 8;
const BOOT_NUM_VARS: usize = 7;

struct Args {
    registry: String,
    addr: String,
    max_connections: usize,
    bootstrap: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        registry: String::new(),
        addr: "127.0.0.1:7878".to_string(),
        max_connections: 256,
        bootstrap: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--registry" => {
                args.registry = it.next().ok_or("--registry needs a directory")?.clone();
            }
            "--addr" => {
                args.addr = it.next().ok_or("--addr needs host:port")?.clone();
            }
            "--max-connections" => {
                let v = it.next().ok_or("--max-connections needs a count")?;
                args.max_connections = v
                    .parse()
                    .map_err(|_| format!("bad --max-connections `{v}`"))?;
            }
            "--bootstrap" => args.bootstrap = true,
            "--help" | "help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if args.registry.is_empty() {
        return Err(format!("--registry is required\n{USAGE}"));
    }
    if args.max_connections == 0 {
        return Err("--max-connections must be at least 1".to_string());
    }
    Ok(args)
}

const USAGE: &str = "usage: timekd-serve --registry <dir> \
[--addr host:port] [--max-connections N] [--bootstrap]";

/// Publishes a seeded demo student as the registry's next version.
fn bootstrap_demo(registry: &str) -> Result<u64, String> {
    let config = TimeKdConfig::default();
    let mut rng = seeded_rng(config.seed);
    let student = Student::new(
        &config,
        BOOT_INPUT_LEN,
        BOOT_HORIZON,
        BOOT_NUM_VARS,
        &mut rng,
    );
    std::fs::create_dir_all(registry).map_err(|e| format!("create {registry}: {e}"))?;
    let version = latest_version(registry.as_ref())
        .map(|v| v + 1)
        .unwrap_or(1);
    publish(
        registry.as_ref(),
        version,
        &student,
        &config,
        Precision::F32,
    )
    .map_err(|e| format!("bootstrap publish failed: {e}"))?;
    Ok(version)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    if args.bootstrap {
        match bootstrap_demo(&args.registry) {
            Ok(version) => println!(
                "bootstrapped demo student as {}/v{version} \
                 ({BOOT_INPUT_LEN}x{BOOT_NUM_VARS} -> {BOOT_HORIZON}x{BOOT_NUM_VARS}, f32)",
                args.registry
            ),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut cfg = ServeConfig::new(&args.registry);
    cfg.addr = args.addr;
    cfg.max_connections = args.max_connections;
    let server = match Server::start(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("timekd-serve: {e}");
            if !args.bootstrap {
                eprintln!("hint: --bootstrap publishes a demo student into an empty registry");
            }
            return ExitCode::FAILURE;
        }
    };
    println!(
        "timekd-serve: listening on http://{} (registry {}, v{} active)",
        server.addr(),
        args.registry,
        server.active_version()
    );
    println!(
        "endpoints: POST /forecast, POST /observe, POST /admin/activate, GET /metrics, GET /healthz"
    );
    // Serve until killed; the accept, dispatch and handler threads do the work.
    loop {
        std::thread::park();
    }
}
