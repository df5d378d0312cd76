//! The benchmark's metric tables (mirrored by `BENCHMARK.json`) and the
//! report every run prints.
//!
//! Every workload prints every metric of its mode, because the result line
//! carries one fixed metric set. End-to-end metrics are named by the role
//! they play, and each workload fills each role (see README.md). Per-layer
//! metrics of a layer a workload never calls read 0: the layer did no work.

use timekd_obs::json::Json;

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"` (read by the `BENCHMARK.json` check).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen (read by the `BENCHMARK.json` check).
    #[cfg_attr(not(test), allow(dead_code))]
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.1),
    e2e("work_s", "s", 0.25),
];

/// Per-layer metrics, printed by traced runs.
pub const PER_LAYER: &[Def] = &[
    // End-to-end detail, from the traced run's untraced pass: forecast
    // latency (too sensitive to the shared host to guard) and the
    // workload-specific figures.
    layer("forecast.p50_ms", "ms", "lower"),
    layer("forecast.p90_ms", "ms", "lower"),
    layer("forecast.p99_ms", "ms", "lower"),
    layer("core.teacher_warmup_s", "s", "lower"),
    layer("core.student_epoch_ms", "ms", "lower"),
    layer("core.eval_ms", "ms", "lower"),
    layer("core.test_mse", "mse", "lower"),
    layer("serve.observe_p50_ms", "ms", "lower"),
    layer("serve.observe_p99_ms", "ms", "lower"),
    layer("serve.max_rps_under_slo", "1/s", "higher"),
    // data
    layer("data.prompts_us", "us", "lower"),
    // lm
    layer("lm.pretrain_s", "s", "lower"),
    layer("lm.embed_miss_us", "us", "lower"),
    layer("lm.embed_hit_us", "us", "lower"),
    layer("lm.cache_misses", "count", "lower"),
    layer("lm.cache_hit_ratio", "ratio", "higher"),
    layer("lm.forward_ms", "ms", "lower"),
    // core
    layer("core.teacher_epoch_warm_ms", "ms", "lower"),
    layer("core.teacher_forward_us", "us", "lower"),
    layer("core.planned_predict_us", "us", "lower"),
    // nn
    layer("nn.student_predict_us", "us", "lower"),
    // tensor
    layer("tensor.batch_train_ms", "ms", "lower"),
    layer("tensor.fused_attention_clm_us", "us", "lower"),
    layer("tensor.fused_attention_enc_us", "us", "lower"),
    layer("tensor.plan_run_us", "us", "lower"),
    // serve
    layer("serve.registry_load_ms", "ms", "lower"),
    layer("serve.bind_us", "us", "lower"),
    layer("serve.http_read_us", "us", "lower"),
    layer("serve.json_parse_us", "us", "lower"),
    layer("serve.json_render_us", "us", "lower"),
    layer("serve.route_p50_ms", "ms", "lower"),
    layer("serve.route_p99_ms", "ms", "lower"),
    layer("serve.observe_route_p50_ms", "ms", "lower"),
    layer("serve.outside_route_p50_ms", "ms", "lower"),
    layer("serve.batch_occupancy", "ratio", "higher"),
    layer("serve.batches", "count", "lower"),
    layer("serve.tenants_observe_us", "us", "lower"),
    layer("serve.tenants_window_us", "us", "lower"),
    layer("serve.rss_per_tenant_kb", "KiB", "lower"),
    // the benchmark's own generator and the tracing layer
    layer("loadgen.lag_p99_ms", "ms", "lower"),
    layer("obs.trace_overhead_frac", "ratio", "lower"),
    // attribution: share of an end-to-end metric the layer numbers leave unexplained
    layer("attrib.setup_rem_frac", "ratio", "lower"),
    layer("attrib.work_rem_frac", "ratio", "lower"),
    layer("attrib.forecast_p50_rem_frac", "ratio", "lower"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
    /// Operations attempted (timed operations plus output checks).
    pub attempted: u64,
    /// Operations that failed, failed checks included.
    pub failed: u64,
    lines: Vec<String>,
}

impl Report {
    /// Records metric `name` (must be in the table of the run's mode). A
    /// value that is not finite is a failed measurement and fails the run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.check(
            format!("`{name}` measured a finite value, got {value}"),
            value.is_finite(),
        );
        self.values.retain(|(n, _)| *n != name);
        self.values
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    /// Records the outcome of one output check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(format!("CHECK FAILED: {}", what.into()));
        }
    }

    /// Counts `n` timed operations of which `failed` failed.
    pub fn ops(&mut self, n: usize, failed: usize) {
        self.attempted += n as u64;
        self.failed += failed as u64;
    }

    /// A human-readable line printed before the result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Whether every operation and check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Prints the notes and then, as the last line of stdout, the result
    /// object holding exactly the metrics of `table` (unset ones read 0).
    pub fn print(&self, table: &[Def]) {
        for line in &self.lines {
            println!("# {line}");
        }
        for (name, _) in &self.values {
            assert!(
                table.iter().any(|d| d.name == *name),
                "metric `{name}` is not in this mode's table"
            );
        }
        let metrics = table
            .iter()
            .map(|d| {
                let v = self
                    .values
                    .iter()
                    .find(|(n, _)| *n == d.name)
                    .map_or(0.0, |(_, v)| *v);
                (
                    d.name,
                    Json::obj(vec![("value", Json::num(v)), ("unit", Json::str(d.unit))]),
                )
            })
            .collect();
        let result = Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ]);
        println!("{}", compact(&result));
    }
}

/// One attribution line and the unexplained share of `total`.
pub fn attribution(metric: &str, total: f64, parts: &[(&str, f64)], unit: &str) -> (String, f64) {
    let explained: f64 = parts.iter().map(|p| p.1).sum();
    let rem = total - explained;
    let frac = rem / total;
    let terms: Vec<String> = parts
        .iter()
        .map(|(n, v)| format!("{v:.4} {unit} [{n}]"))
        .collect();
    (
        format!(
            "attribution: {metric} = {total:.4} {unit} ~ {} + remainder {rem:.4} {unit} ({:.1}%)",
            terms.join(" + "),
            frac * 100.0
        ),
        frac,
    )
}

/// One-line JSON rendering.
pub fn compact(j: &Json) -> String {
    match j {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(_) => j.render().trim().to_string(),
        Json::Str(_) => j.render().trim().to_string(),
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(compact).collect::<Vec<_>>().join(",")
        ),
        Json::Obj(pairs) => format!(
            "{{{}}}",
            pairs
                .iter()
                .map(|(k, v)| format!("{}:{}", compact(&Json::str(k.as_str())), compact(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check_table(doc: &Json, key: &str, table: &[Def]) {
        let rows = doc.get(key).and_then(Json::as_arr).expect(key);
        assert_eq!(rows.len(), table.len(), "{key}: metric count");
        for (row, def) in rows.iter().zip(table) {
            assert_eq!(row.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(row.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(row.get("better").and_then(Json::as_str), Some(def.better));
            assert_eq!(
                row.get("bound").and_then(Json::as_num),
                def.bound,
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = benchmark_json();
        check_table(&doc, "end_to_end", END_TO_END);
        check_table(&doc, "per_layer", PER_LAYER);
        let names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names must be unique");
    }

    #[test]
    fn compact_rendering_is_one_line() {
        let j = Json::obj(vec![
            ("a", Json::num(1.5)),
            ("b", Json::Arr(vec![Json::Bool(true), Json::str("x\"y")])),
        ]);
        assert_eq!(compact(&j), r#"{"a":1.5,"b":[true,"x\"y"]}"#);
    }
}
