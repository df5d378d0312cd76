//! Runs the benchmark binary the way it is driven and checks its result
//! line: one JSON object, the same metric names for different seeds, and
//! exactly the end-to-end metrics `BENCHMARK.json` declares.

use std::path::Path;
use std::process::Command;

use timekd_obs::json::Json;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
}

/// Runs one short untraced `serve_window` run and returns its result line.
fn result(seed: u64) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_timekd-benchmark"))
        .args(["--workload", "serve_window", "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "0"])
        .current_dir(repo_root())
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(out.status.success(), "benchmark failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is JSON")
}

fn metric_names(doc: &Json) -> Vec<String> {
    match doc.get("metrics") {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("`metrics` is not an object: {other:?}"),
    }
}

#[test]
fn two_seeds_print_the_same_metric_names() {
    let a = result(1);
    let b = result(2);
    for doc in [&a, &b] {
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("failed").and_then(Json::as_num), Some(0.0));
        assert!(doc.get("attempted").and_then(Json::as_num) >= Some(1.0));
        if let Some(Json::Obj(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                let v = m
                    .get("value")
                    .and_then(Json::as_num)
                    .expect("numeric value");
                assert!(v > 0.0, "{name} must never read 0, got {v}");
                assert!(m.get("unit").and_then(Json::as_str).is_some());
            }
        }
    }
    assert_eq!(metric_names(&a), metric_names(&b));

    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = Json::parse(&spec).expect("BENCHMARK.json parses");
    let declared: Vec<String> = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(metric_names(&a), declared);
}
