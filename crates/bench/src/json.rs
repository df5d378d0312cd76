//! The `BENCH_*.json` schema validator. The JSON value type and parser
//! themselves live in `timekd_obs::json` (shared with the trace reports
//! and the serving layer's `/metrics` endpoint); this module re-exports
//! [`Json`] so existing `timekd_bench::json::Json` users keep working and
//! adds the kernel-bench schema check used by `--validate` and
//! `scripts/bench.sh`.

pub use timekd_obs::json::Json;

/// Schema identifier the kernels bin writes and the validator requires.
pub const KERNEL_BENCH_SCHEMA: &str = "timekd-kernel-bench/v9";

/// The fields one section of the document must carry.
#[derive(Debug)]
enum Section {
    /// One object of finite numbers.
    Object(&'static [&'static str]),
    /// A non-empty array of rows, each with these finite numbers, strings
    /// and booleans.
    Rows {
        nums: &'static [&'static str],
        strings: &'static [&'static str],
        bools: &'static [&'static str],
    },
}

/// Every section of `timekd-kernel-bench/v9` besides the top-level
/// `schema`, `notes`, `created_unix_s` and `quick` fields.
const SECTIONS: &[(&str, Section)] = &[
    ("threads", Section::Object(&["configured", "available"])),
    // v3: planned-vs-dynamic student predict.
    (
        "planned_student",
        Section::Object(&[
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
        ]),
    ),
    // v4: planned-vs-dynamic student training (full step: forward +
    // reverse schedule + fused optimizer update).
    (
        "planned_training",
        Section::Object(&[
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
        ]),
    ),
    // v5: quantized-vs-f32 compiled student (int8 weight storage, `qmm`
    // kernels, accuracy gate).
    (
        "quantized_student",
        Section::Object(&[
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
        ]),
    ),
    (
        "kernels",
        Section::Rows {
            nums: &[
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
            ],
            strings: &["name"],
            bools: &[],
        },
    ),
    // v2: fused-vs-composed attention.
    (
        "attention",
        Section::Rows {
            nums: &[
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
            ],
            strings: &["name"],
            bools: &["causal"],
        },
    ),
    // v6: one row per micro-batch size comparing the per-window planned
    // epoch against the data-parallel batched replay.
    (
        "batched_training",
        Section::Rows {
            nums: &[
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
            ],
            strings: &["name"],
            bools: &[],
        },
    ),
];

fn need_num(doc: &Json, path: &str, problems: &mut Vec<String>) {
    match doc.get_path(path).map(Json::as_num) {
        Some(Some(v)) if v.is_finite() => {}
        Some(_) => problems.push(format!("`{path}` is not a finite number")),
        None => problems.push(format!("missing key `{path}`")),
    }
}

/// Checks a parsed document against the [`KERNEL_BENCH_SCHEMA`] schema
/// emitted by `cargo run -p timekd-bench --bin kernels`. Returns every
/// problem found (not just the first) so a broken baseline is diagnosable
/// in one pass; a missing object section reports one `missing key`
/// problem per expected field.
pub fn validate_kernel_bench(doc: &Json) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    need_num(doc, "created_unix_s", &mut problems);
    for (name, section) in SECTIONS {
        match section {
            Section::Object(keys) => {
                for key in *keys {
                    need_num(doc, &format!("{name}.{key}"), &mut problems);
                }
            }
            Section::Rows {
                nums,
                strings,
                bools,
            } => match doc.get(name).map(Json::as_arr) {
                Some(Some(rows)) if !rows.is_empty() => {
                    for (i, row) in rows.iter().enumerate() {
                        for key in *strings {
                            if row.get(key).and_then(Json::as_str).is_none() {
                                problems
                                    .push(format!("`{name}[{i}].{key}` missing or not a string"));
                            }
                        }
                        for key in *bools {
                            if !matches!(row.get(key), Some(Json::Bool(_))) {
                                problems.push(format!("`{name}[{i}].{key}` must be a boolean"));
                            }
                        }
                        for key in *nums {
                            match row.get(key).map(Json::as_num) {
                                Some(Some(v)) if v.is_finite() => {}
                                _ => problems
                                    .push(format!("`{name}[{i}].{key}` missing or not finite")),
                            }
                        }
                    }
                }
                Some(Some(_)) => problems.push(format!("`{name}` must be a non-empty array")),
                _ => problems.push(format!("missing key `{name}`")),
            },
        }
    }

    match doc.get("schema").map(Json::as_str) {
        Some(Some(KERNEL_BENCH_SCHEMA)) => {}
        Some(other) => problems.push(format!(
            "`schema` must be {KERNEL_BENCH_SCHEMA:?}, got {other:?}"
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

    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document carrying every field of [`SECTIONS`] (one row per row
    /// section) plus the top-level fields.
    fn minimal_valid_doc() -> Json {
        let mut pairs = vec![
            ("schema", Json::str(KERNEL_BENCH_SCHEMA)),
            (
                "notes",
                Json::Arr(vec![Json::str("partition-granularity fix")]),
            ),
            ("created_unix_s", Json::num(1_722_000_000.0)),
            ("quick", Json::Bool(true)),
        ];
        for (name, section) in SECTIONS {
            let nums = |keys: &[&'static str]| -> Vec<(&'static str, Json)> {
                keys.iter().map(|k| (*k, Json::num(1.0))).collect()
            };
            pairs.push(match section {
                Section::Object(keys) => (*name, Json::obj(nums(keys))),
                Section::Rows {
                    nums: keys,
                    strings,
                    bools,
                } => {
                    let mut row = nums(keys);
                    row.extend(strings.iter().map(|k| (*k, Json::str(*name))));
                    row.extend(bools.iter().map(|k| (*k, Json::Bool(true))));
                    (*name, Json::Arr(vec![Json::obj(row)]))
                }
            });
        }
        Json::obj(pairs)
    }

    /// The top-level value under `name`.
    fn section_mut<'a>(doc: &'a mut Json, name: &str) -> &'a mut Json {
        match doc {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no section {name}")),
            _ => panic!("document is not an object"),
        }
    }

    /// The fields of object section `name`, or of its first row.
    fn fields_mut<'a>(doc: &'a mut Json, name: &str) -> &'a mut Vec<(String, Json)> {
        match section_mut(doc, name) {
            Json::Obj(fields) => fields,
            Json::Arr(rows) => match &mut rows[0] {
                Json::Obj(fields) => fields,
                _ => panic!("{name}[0] is not an object"),
            },
            _ => panic!("{name} is neither an object nor rows"),
        }
    }

    fn set_field(doc: &mut Json, section: &str, key: &str, value: Json) {
        let fields = fields_mut(doc, section);
        let (_, v) = fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no field {section}.{key}"));
        *v = value;
    }

    fn remove_top(doc: &mut Json, keys: &[&str]) {
        if let Json::Obj(pairs) = doc {
            pairs.retain(|(k, _)| !keys.contains(&k.as_str()));
        }
    }

    #[test]
    fn validator_accepts_complete_doc() {
        assert_eq!(validate_kernel_bench(&minimal_valid_doc()), Ok(()));
    }

    #[test]
    fn validator_reports_every_problem() {
        let mut doc = minimal_valid_doc();
        remove_top(&mut doc, &["schema", "threads", "quick"]);
        if let Json::Obj(pairs) = &mut doc {
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
        remove_top(&mut doc, &["schema"]);
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems, vec!["missing key `schema`".to_string()]);
    }

    #[test]
    fn validator_rejects_incomplete_kernel_row() {
        let mut doc = minimal_valid_doc();
        fields_mut(&mut doc, "kernels").retain(|(k, _)| k != "speedup_parallel");
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("kernels[0].speedup_parallel"));
    }

    #[test]
    fn validator_rejects_incomplete_attention_row() {
        let mut doc = minimal_valid_doc();
        fields_mut(&mut doc, "attention").retain(|(k, _)| k != "speedup_fused" && k != "causal");
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
        remove_top(&mut doc, &["planned_student"]);
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
        set_field(
            &mut doc,
            "planned_student",
            "predict_planned_ms",
            Json::str("fast"),
        );
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("planned_student.predict_planned_ms"));
    }

    #[test]
    fn validator_requires_planned_training_section() {
        // v4 gate: a v3-shaped doc (no planned_training) must fail with
        // one missing-key diagnostic per expected training field.
        let mut doc = minimal_valid_doc();
        remove_top(&mut doc, &["planned_training"]);
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
        set_field(
            &mut doc,
            "planned_training",
            "train_step_planned_ms",
            Json::str("fast"),
        );
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("planned_training.train_step_planned_ms"));
    }

    #[test]
    fn validator_rejects_stale_schema_strings() {
        // The schema bump is load-bearing: an old v3..v8 baseline must be
        // rejected by name even if it were otherwise field-complete.
        for stale in [
            "timekd-kernel-bench/v3",
            "timekd-kernel-bench/v4",
            "timekd-kernel-bench/v5",
            "timekd-kernel-bench/v6",
            "timekd-kernel-bench/v7",
            "timekd-kernel-bench/v8",
        ] {
            let mut doc = minimal_valid_doc();
            *section_mut(&mut doc, "schema") = Json::str(stale);
            let problems = validate_kernel_bench(&doc).expect_err("must fail");
            assert_eq!(problems.len(), 1, "{stale}: {problems:?}");
            assert!(problems[0].contains("timekd-kernel-bench/v9"), "{stale}");
        }
    }

    #[test]
    fn validator_requires_batched_training_section() {
        // v6 gate: a v5-shaped doc (no batched_training) must fail with a
        // missing-section diagnostic.
        let mut doc = minimal_valid_doc();
        remove_top(&mut doc, &["batched_training"]);
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(
            problems,
            vec!["missing key `batched_training`".to_string()],
            "{problems:?}"
        );

        // An empty array is just as stale as a missing one.
        let mut doc = minimal_valid_doc();
        *section_mut(&mut doc, "batched_training") = Json::Arr(vec![]);
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(
            problems,
            vec!["`batched_training` must be a non-empty array".to_string()]
        );
    }

    #[test]
    fn validator_rejects_non_finite_batched_field() {
        let mut doc = minimal_valid_doc();
        set_field(
            &mut doc,
            "batched_training",
            "speedup_batched",
            Json::str("fast"),
        );
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("batched_training[0].speedup_batched"));
    }

    #[test]
    fn validator_requires_quantized_student_section() {
        // v5 gate: a v4-shaped doc (no quantized_student) must fail with
        // one missing-key diagnostic per expected quantized field.
        let mut doc = minimal_valid_doc();
        remove_top(&mut doc, &["quantized_student"]);
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
    fn validator_requires_non_empty_string_notes() {
        let mut doc = minimal_valid_doc();
        remove_top(&mut doc, &["notes"]);
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems, vec!["missing key `notes`".to_string()]);

        let mut doc = minimal_valid_doc();
        *section_mut(&mut doc, "notes") = Json::Arr(vec![Json::num(7.0)]);
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert_eq!(problems, vec!["`notes[0]` must be a string".to_string()]);
    }

    #[test]
    fn validator_requires_attention_section() {
        let mut doc = minimal_valid_doc();
        remove_top(&mut doc, &["attention"]);
        let problems = validate_kernel_bench(&doc).expect_err("must fail");
        assert!(
            problems.iter().any(|p| p.contains("`attention`")),
            "{problems:?}"
        );
    }
}
