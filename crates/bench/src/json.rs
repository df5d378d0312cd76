//! The `BENCH_*.json` schema validator. The JSON value type and parser
//! themselves live in `timekd_obs::json` (shared with the trace reports
//! and the serving layer's `/metrics` endpoint); this module re-exports
//! [`Json`] so existing `timekd_bench::json::Json` users keep working and
//! adds the kernel-bench schema check used by `--validate` and
//! `scripts/bench.sh`.

pub use timekd_obs::json::Json;

/// Checks a parsed document against the `timekd-kernel-bench/v8` schema
/// emitted by `cargo run -p timekd-bench --bin kernels`. Returns every
/// problem found (not just the first) so a broken baseline is diagnosable
/// in one pass.
pub fn validate_kernel_bench(doc: &Json) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let mut need_num = |path: &str| match doc.get_path(path).map(Json::as_num) {
        Some(Some(v)) if v.is_finite() => {}
        Some(_) => problems.push(format!("`{path}` is not a finite number")),
        None => problems.push(format!("missing key `{path}`")),
    };
    need_num("created_unix_s");
    need_num("threads.configured");
    need_num("threads.available");

    // v3: the planned-vs-dynamic student predict section. A missing
    // section reports one `missing key` problem per expected field.
    for key in [
        "input_len",
        "horizon",
        "num_vars",
        "windows",
        "iters",
        "predict_dynamic_ms",
        "predict_planned_ms",
        "speedup_planned_predict",
        "epoch_dynamic_ms",
        "epoch_planned_ms",
        "speedup_planned_epoch",
        "plan_steps",
        "plan_arena_f32",
    ] {
        need_num(&format!("planned_student.{key}"));
    }

    // v4: the planned-vs-dynamic student *training* section (full step:
    // forward + reverse schedule + fused optimizer update). A missing
    // section reports one `missing key` problem per expected field.
    for key in [
        "input_len",
        "horizon",
        "num_vars",
        "windows",
        "iters",
        "train_step_dynamic_ms",
        "train_step_planned_ms",
        "speedup_planned_train_step",
        "train_epoch_dynamic_ms",
        "train_epoch_planned_ms",
        "speedup_planned_train_epoch",
        "bwd_steps",
        "update_steps",
    ] {
        need_num(&format!("planned_training.{key}"));
    }

    // v5: the quantized-vs-f32 compiled-student section (int8 weight
    // storage, `qmm` kernels, accuracy gate). A missing section reports
    // one `missing key` problem per expected field.
    for key in [
        "input_len",
        "horizon",
        "num_vars",
        "windows",
        "iters",
        "mse_delta",
        "mse_delta_bound",
        "predict_f32_ms",
        "predict_int8_ms",
        "speedup_int8_vs_f32",
        "param_bytes_f32",
        "param_bytes_int8",
        "param_compression",
    ] {
        need_num(&format!("quantized_student.{key}"));
    }

    // v7: the serving section — closed-loop load over the HTTP forecast
    // endpoint with micro-batched planned inference. A missing section
    // reports one `missing key` problem per expected field; the latency
    // quantiles come from the same `timekd-obs` histograms `/metrics`
    // renders.
    for key in [
        "clients",
        "requests_per_client",
        "requests_total",
        "forecast_requests",
        "errors",
        "duration_ms",
        "throughput_rps",
        "latency_p50_ms",
        "latency_p95_ms",
        "latency_p99_ms",
        "micro_batch",
        "batches",
        "mean_batch_occupancy",
    ] {
        need_num(&format!("serving.{key}"));
    }

    // v6: the batched-training section — one row per micro-batch size
    // comparing the per-window planned epoch against the data-parallel
    // batched replay with pinned window-order gradient reduction.
    match doc.get("batched_training").map(Json::as_arr) {
        Some(Some(rows)) if !rows.is_empty() => {
            for (i, row) in rows.iter().enumerate() {
                if row.get("name").and_then(Json::as_str).is_none() {
                    problems.push(format!(
                        "`batched_training[{i}].name` missing or not a string"
                    ));
                }
                for key in [
                    "micro_batch",
                    "input_len",
                    "horizon",
                    "num_vars",
                    "windows",
                    "iters",
                    "epoch_per_window_ms",
                    "epoch_batched_ms",
                    "speedup_batched",
                    "reduce_steps",
                    "update_steps",
                ] {
                    match row.get(key).map(Json::as_num) {
                        Some(Some(v)) if v.is_finite() => {}
                        _ => problems.push(format!(
                            "`batched_training[{i}].{key}` missing or not finite"
                        )),
                    }
                }
            }
        }
        Some(Some(_)) => problems.push("`batched_training` must be a non-empty array".to_string()),
        _ => problems.push("missing key `batched_training`".to_string()),
    }

    match doc.get("schema").map(Json::as_str) {
        Some(Some("timekd-kernel-bench/v8")) => {}
        Some(other) => problems.push(format!(
            "`schema` must be \"timekd-kernel-bench/v8\", got {other:?}"
        )),
        None => problems.push("missing key `schema`".to_string()),
    }

    // v5: free-form provenance notes (e.g. the partition-granularity
    // regression fix) — a non-empty array of strings.
    match doc.get("notes").map(Json::as_arr) {
        Some(Some(items)) if !items.is_empty() => {
            for (i, item) in items.iter().enumerate() {
                if item.as_str().is_none() {
                    problems.push(format!("`notes[{i}]` must be a string"));
                }
            }
        }
        Some(Some(_)) => problems.push("`notes` must be a non-empty array".to_string()),
        _ => problems.push("missing key `notes`".to_string()),
    }
    if !matches!(doc.get("quick"), Some(Json::Bool(_))) {
        problems.push("`quick` must be a boolean".to_string());
    }

    match doc.get("kernels").map(Json::as_arr) {
        Some(Some(rows)) if !rows.is_empty() => {
            for (i, row) in rows.iter().enumerate() {
                if row.get("name").and_then(Json::as_str).is_none() {
                    problems.push(format!("`kernels[{i}].name` missing or not a string"));
                }
                for key in [
                    "m",
                    "k",
                    "n",
                    "batch",
                    "iters",
                    "serial_ms",
                    "parallel_ms",
                    "speedup_parallel",
                    "gflops_serial",
                    "gflops_parallel",
                    "naive_ms",
                    "speedup_blocked_vs_naive",
                    "grad_serial_ms",
                    "grad_parallel_ms",
                    "speedup_grad_parallel",
                ] {
                    match row.get(key).map(Json::as_num) {
                        Some(Some(v)) if v.is_finite() => {}
                        _ => problems.push(format!("`kernels[{i}].{key}` missing or not finite")),
                    }
                }
            }
        }
        Some(Some(_)) => problems.push("`kernels` must be a non-empty array".to_string()),
        _ => problems.push("missing key `kernels`".to_string()),
    }

    // v2: fused-vs-composed attention timings.
    match doc.get("attention").map(Json::as_arr) {
        Some(Some(rows)) if !rows.is_empty() => {
            for (i, row) in rows.iter().enumerate() {
                if row.get("name").and_then(Json::as_str).is_none() {
                    problems.push(format!("`attention[{i}].name` missing or not a string"));
                }
                if !matches!(row.get("causal"), Some(Json::Bool(_))) {
                    problems.push(format!("`attention[{i}].causal` must be a boolean"));
                }
                for key in [
                    "heads",
                    "tq",
                    "tk",
                    "dh",
                    "iters",
                    "fused_ms",
                    "composed_ms",
                    "speedup_fused",
                    "fused_train_ms",
                    "composed_train_ms",
                    "speedup_fused_train",
                ] {
                    match row.get(key).map(Json::as_num) {
                        Some(Some(v)) if v.is_finite() => {}
                        _ => problems.push(format!("`attention[{i}].{key}` missing or not finite")),
                    }
                }
            }
        }
        Some(Some(_)) => problems.push("`attention` must be a non-empty array".to_string()),
        _ => problems.push("missing key `attention`".to_string()),
    }

    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_valid_doc() -> Json {
        let kernel_keys = [
            "m",
            "k",
            "n",
            "batch",
            "iters",
            "serial_ms",
            "parallel_ms",
            "speedup_parallel",
            "gflops_serial",
            "gflops_parallel",
            "naive_ms",
            "speedup_blocked_vs_naive",
            "grad_serial_ms",
            "grad_parallel_ms",
            "speedup_grad_parallel",
        ];
        let mut row = vec![("name", Json::str("mm_64"))];
        row.extend(kernel_keys.iter().map(|k| (*k, Json::num(1.0))));
        let attn_keys = [
            "heads",
            "tq",
            "tk",
            "dh",
            "iters",
            "fused_ms",
            "composed_ms",
            "speedup_fused",
            "fused_train_ms",
            "composed_train_ms",
            "speedup_fused_train",
        ];
        let mut attn_row = vec![
            ("name", Json::str("attn_lm_base")),
            ("causal", Json::Bool(true)),
        ];
        attn_row.extend(attn_keys.iter().map(|k| (*k, Json::num(1.0))));
        let planned_keys = [
            "input_len",
            "horizon",
            "num_vars",
            "windows",
            "iters",
            "predict_dynamic_ms",
            "predict_planned_ms",
            "speedup_planned_predict",
            "epoch_dynamic_ms",
            "epoch_planned_ms",
            "speedup_planned_epoch",
            "plan_steps",
            "plan_arena_f32",
        ];
        let planned_row: Vec<(&str, Json)> =
            planned_keys.iter().map(|k| (*k, Json::num(1.0))).collect();
        let training_keys = [
            "input_len",
            "horizon",
            "num_vars",
            "windows",
            "iters",
            "train_step_dynamic_ms",
            "train_step_planned_ms",
            "speedup_planned_train_step",
            "train_epoch_dynamic_ms",
            "train_epoch_planned_ms",
            "speedup_planned_train_epoch",
            "bwd_steps",
            "update_steps",
        ];
        let training_row: Vec<(&str, Json)> =
            training_keys.iter().map(|k| (*k, Json::num(1.0))).collect();
        let quant_keys = [
            "input_len",
            "horizon",
            "num_vars",
            "windows",
            "iters",
            "mse_delta",
            "mse_delta_bound",
            "predict_f32_ms",
            "predict_int8_ms",
            "speedup_int8_vs_f32",
            "param_bytes_f32",
            "param_bytes_int8",
            "param_compression",
        ];
        let quant_row: Vec<(&str, Json)> =
            quant_keys.iter().map(|k| (*k, Json::num(1.0))).collect();
        let batched_keys = [
            "micro_batch",
            "input_len",
            "horizon",
            "num_vars",
            "windows",
            "iters",
            "epoch_per_window_ms",
            "epoch_batched_ms",
            "speedup_batched",
            "reduce_steps",
            "update_steps",
        ];
        let mut batched_row = vec![("name", Json::str("batched_b4"))];
        batched_row.extend(batched_keys.iter().map(|k| (*k, Json::num(1.0))));
        let serving_keys = [
            "clients",
            "requests_per_client",
            "requests_total",
            "forecast_requests",
            "errors",
            "duration_ms",
            "throughput_rps",
            "latency_p50_ms",
            "latency_p95_ms",
            "latency_p99_ms",
            "micro_batch",
            "batches",
            "mean_batch_occupancy",
        ];
        let serving_row: Vec<(&str, Json)> =
            serving_keys.iter().map(|k| (*k, Json::num(1.0))).collect();
        Json::obj(vec![
            ("schema", Json::str("timekd-kernel-bench/v8")),
            (
                "notes",
                Json::Arr(vec![Json::str("partition-granularity fix")]),
            ),
            ("created_unix_s", Json::num(1_722_000_000.0)),
            ("quick", Json::Bool(true)),
            (
                "threads",
                Json::obj(vec![
                    ("configured", Json::num(4.0)),
                    ("available", Json::num(8.0)),
                ]),
            ),
            ("kernels", Json::Arr(vec![Json::obj(row)])),
            ("attention", Json::Arr(vec![Json::obj(attn_row)])),
            ("planned_student", Json::obj(planned_row)),
            ("planned_training", Json::obj(training_row)),
            ("quantized_student", Json::obj(quant_row)),
            ("batched_training", Json::Arr(vec![Json::obj(batched_row)])),
            ("serving", Json::obj(serving_row)),
        ])
    }

    #[test]
    fn validator_accepts_complete_doc() {
        assert_eq!(validate_kernel_bench(&minimal_valid_doc()), Ok(()));
    }

    #[test]
    fn validator_reports_every_problem() {
        let mut doc = minimal_valid_doc();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "schema" && k != "threads" && k != "quick");
            pairs.push(("quick".to_string(), Json::str("yes")));
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert!(
            problems.iter().any(|p| p.contains("`schema`")),
            "{problems:?}"
        );
        assert!(problems.iter().any(|p| p.contains("quick")), "{problems:?}");
        assert!(
            problems.iter().any(|p| p.contains("threads.configured")),
            "{problems:?}"
        );
    }

    #[test]
    fn validator_rejects_missing_schema_field_alone() {
        // A report that is complete except for `schema` must fail with
        // exactly that diagnostic — the schema key is load-bearing for
        // forward compatibility and must never be optional.
        let mut doc = minimal_valid_doc();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "schema");
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems, vec!["missing key `schema`".to_string()]);
    }

    #[test]
    fn validator_rejects_incomplete_kernel_row() {
        let mut doc = minimal_valid_doc();
        if let Some(Json::Arr(rows)) = match &mut doc {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == "kernels")
                .map(|(_, v)| v),
            _ => None,
        } {
            if let Json::Obj(row) = &mut rows[0] {
                row.retain(|(k, _)| k != "speedup_parallel");
            }
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("kernels[0].speedup_parallel"));
    }

    #[test]
    fn validator_rejects_incomplete_attention_row() {
        let mut doc = minimal_valid_doc();
        if let Some(Json::Arr(rows)) = match &mut doc {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == "attention")
                .map(|(_, v)| v),
            _ => None,
        } {
            if let Json::Obj(row) = &mut rows[0] {
                row.retain(|(k, _)| k != "speedup_fused" && k != "causal");
            }
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("attention[0].causal")));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("attention[0].speedup_fused")),
            "{problems:?}"
        );
    }

    #[test]
    fn validator_requires_planned_student_section() {
        // v3 gate: a v2-shaped doc (no planned_student) must fail with one
        // missing-key diagnostic per expected planned field.
        let mut doc = minimal_valid_doc();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "planned_student");
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert!(
            problems
                .iter()
                .any(|p| p.contains("planned_student.speedup_planned_epoch")),
            "{problems:?}"
        );
    }

    #[test]
    fn validator_rejects_non_finite_planned_field() {
        let mut doc = minimal_valid_doc();
        if let Some(Json::Obj(row)) = match &mut doc {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == "planned_student")
                .map(|(_, v)| v),
            _ => None,
        } {
            if let Some((_, v)) = row.iter_mut().find(|(k, _)| k == "predict_planned_ms") {
                *v = Json::str("fast");
            }
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("planned_student.predict_planned_ms"));
    }

    #[test]
    fn validator_requires_planned_training_section() {
        // v4 gate: a v3-shaped doc (no planned_training) must fail with
        // one missing-key diagnostic per expected training field.
        let mut doc = minimal_valid_doc();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "planned_training");
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems.len(), 13, "{problems:?}");
        assert!(
            problems
                .iter()
                .any(|p| p.contains("planned_training.speedup_planned_train_epoch")),
            "{problems:?}"
        );
        assert!(
            problems
                .iter()
                .any(|p| p.contains("planned_training.bwd_steps")),
            "{problems:?}"
        );
    }

    #[test]
    fn validator_rejects_non_finite_training_field() {
        let mut doc = minimal_valid_doc();
        if let Some(Json::Obj(row)) = match &mut doc {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == "planned_training")
                .map(|(_, v)| v),
            _ => None,
        } {
            if let Some((_, v)) = row.iter_mut().find(|(k, _)| k == "train_step_planned_ms") {
                *v = Json::str("fast");
            }
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("planned_training.train_step_planned_ms"));
    }

    #[test]
    fn validator_rejects_stale_schema_strings() {
        // The schema bump is load-bearing: an old v3..v7 baseline must be
        // rejected by name even if it were otherwise field-complete.
        for stale in [
            "timekd-kernel-bench/v3",
            "timekd-kernel-bench/v4",
            "timekd-kernel-bench/v5",
            "timekd-kernel-bench/v6",
            "timekd-kernel-bench/v7",
        ] {
            let mut doc = minimal_valid_doc();
            if let Json::Obj(pairs) = &mut doc {
                if let Some((_, v)) = pairs.iter_mut().find(|(k, _)| k == "schema") {
                    *v = Json::str(stale);
                }
            }
            let problems = validate_kernel_bench(&doc).expect_err("must fail");
            assert_eq!(problems.len(), 1, "{stale}: {problems:?}");
            assert!(problems[0].contains("timekd-kernel-bench/v8"), "{stale}");
        }
    }

    #[test]
    fn validator_requires_batched_training_section() {
        // v6 gate: a v5-shaped doc (no batched_training) must fail with a
        // missing-section diagnostic.
        let mut doc = minimal_valid_doc();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "batched_training");
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(
            problems,
            vec!["missing key `batched_training`".to_string()],
            "{problems:?}"
        );

        // An empty array is just as stale as a missing one.
        let mut doc = minimal_valid_doc();
        if let Json::Obj(pairs) = &mut doc {
            if let Some((_, v)) = pairs.iter_mut().find(|(k, _)| k == "batched_training") {
                *v = Json::Arr(vec![]);
            }
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(
            problems,
            vec!["`batched_training` must be a non-empty array".to_string()]
        );
    }

    #[test]
    fn validator_rejects_non_finite_batched_field() {
        let mut doc = minimal_valid_doc();
        if let Some(Json::Arr(rows)) = match &mut doc {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == "batched_training")
                .map(|(_, v)| v),
            _ => None,
        } {
            if let Json::Obj(row) = &mut rows[0] {
                if let Some((_, v)) = row.iter_mut().find(|(k, _)| k == "speedup_batched") {
                    *v = Json::str("fast");
                }
            }
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("batched_training[0].speedup_batched"));
    }

    #[test]
    fn validator_requires_quantized_student_section() {
        // v5 gate: a v4-shaped doc (no quantized_student) must fail with
        // one missing-key diagnostic per expected quantized field.
        let mut doc = minimal_valid_doc();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "quantized_student");
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems.len(), 13, "{problems:?}");
        assert!(
            problems
                .iter()
                .any(|p| p.contains("quantized_student.mse_delta")),
            "{problems:?}"
        );
        assert!(
            problems
                .iter()
                .any(|p| p.contains("quantized_student.param_bytes_int8")),
            "{problems:?}"
        );
    }

    #[test]
    fn validator_requires_serving_section() {
        // v7 gate: a v6-shaped doc (no serving section) must fail with one
        // missing-key diagnostic per expected serving field.
        let mut doc = minimal_valid_doc();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "serving");
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems.len(), 13, "{problems:?}");
        assert!(
            problems
                .iter()
                .any(|p| p.contains("serving.latency_p99_ms")),
            "{problems:?}"
        );
        assert!(
            problems
                .iter()
                .any(|p| p.contains("serving.mean_batch_occupancy")),
            "{problems:?}"
        );
    }

    #[test]
    fn validator_rejects_non_finite_serving_field() {
        let mut doc = minimal_valid_doc();
        if let Some(Json::Obj(row)) = match &mut doc {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == "serving")
                .map(|(_, v)| v),
            _ => None,
        } {
            if let Some((_, v)) = row.iter_mut().find(|(k, _)| k == "throughput_rps") {
                *v = Json::str("fast");
            }
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("serving.throughput_rps"));
    }

    #[test]
    fn validator_requires_non_empty_string_notes() {
        let mut doc = minimal_valid_doc();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "notes");
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems, vec!["missing key `notes`".to_string()]);

        let mut doc = minimal_valid_doc();
        if let Json::Obj(pairs) = &mut doc {
            if let Some((_, v)) = pairs.iter_mut().find(|(k, _)| k == "notes") {
                *v = Json::Arr(vec![Json::num(7.0)]);
            }
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems, vec!["`notes[0]` must be a string".to_string()]);
    }

    #[test]
    fn validator_requires_attention_section() {
        let mut doc = minimal_valid_doc();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "attention");
        }
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert!(
            problems.iter().any(|p| p.contains("`attention`")),
            "{problems:?}"
        );
    }
}
