//! Trace/metrics reports: `timekd-obs` snapshots rendered as
//! schema-validated JSON (`timekd-trace/v2`) through `timekd_obs::json`.
//!
//! Two validators are exported:
//! - [`validate_trace_report`] checks the *shape* of a document (every key
//!   present and well-typed, spans recursively well-formed);
//! - [`validate_trace_coverage`] checks the *content* of a training-run
//!   trace: the span tree must cover the whole TimeKD pipeline (teacher,
//!   SCA, student, both PKD losses, backward, optimizer) and the counter
//!   section must show LM-cache activity. This is what the e2e
//!   acceptance gate runs against `examples/quickstart.rs` output.

use timekd_obs::json::Json;
use timekd_obs::{Snapshot, SpanNode};

/// Schema identifier emitted and required by the validators.
pub const TRACE_SCHEMA: &str = "timekd-trace/v2";

fn span_to_json(node: &SpanNode) -> Json {
    Json::obj(vec![
        ("name", Json::str(node.name.clone())),
        ("count", Json::num(node.count as f64)),
        ("total_ms", Json::num(node.total_ns as f64 / 1e6)),
        (
            "children",
            Json::Arr(node.children.iter().map(span_to_json).collect()),
        ),
    ])
}

/// Renders an observability [`Snapshot`] as a `timekd-trace/v2` document.
///
/// `label` names the run (e.g. `"quickstart"`); the caller supplies
/// `created_unix_s` so report creation stays clock-free and deterministic
/// under test.
pub fn trace_report(snapshot: &Snapshot, label: &str, created_unix_s: u64) -> Json {
    Json::obj(vec![
        ("schema", Json::str(TRACE_SCHEMA)),
        ("label", Json::str(label)),
        ("created_unix_s", Json::num(created_unix_s as f64)),
        (
            "spans",
            Json::Arr(snapshot.spans.iter().map(span_to_json).collect()),
        ),
        (
            "ops",
            Json::Arr(
                snapshot
                    .ops
                    .iter()
                    .map(|o| {
                        Json::obj(vec![
                            ("name", Json::str(o.name.clone())),
                            ("count", Json::num(o.count as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "counters",
            Json::Obj(
                snapshot
                    .counters
                    .iter()
                    .map(|c| (c.name.clone(), Json::num(c.value as f64)))
                    .collect(),
            ),
        ),
    ])
}

fn check_span(span: &Json, path: &str, problems: &mut Vec<String>) {
    if span.get("name").and_then(Json::as_str).is_none() {
        problems.push(format!("`{path}.name` missing or not a string"));
    }
    for key in ["count", "total_ms"] {
        match span.get(key).map(Json::as_num) {
            Some(Some(v)) if v.is_finite() && v >= 0.0 => {}
            _ => problems.push(format!(
                "`{path}.{key}` missing or not a finite number >= 0"
            )),
        }
    }
    match span.get("children").map(Json::as_arr) {
        Some(Some(children)) => {
            for (i, c) in children.iter().enumerate() {
                check_span(c, &format!("{path}.children[{i}]"), problems);
            }
        }
        _ => problems.push(format!("`{path}.children` missing or not an array")),
    }
}

/// Names of the global counters every trace report must carry (the
/// registry in `timekd-obs`).
pub const REQUIRED_COUNTERS: [&str; 2] = ["lm_cache.hits", "lm_cache.misses"];

/// Checks a parsed document against the `timekd-trace/v2` schema shape.
/// Returns every problem found, not just the first.
pub fn validate_trace_report(doc: &Json) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    match doc.get("schema").map(Json::as_str) {
        Some(Some(TRACE_SCHEMA)) => {}
        Some(other) => problems.push(format!(
            "`schema` must be \"{TRACE_SCHEMA}\", got {other:?}"
        )),
        None => problems.push("missing key `schema`".to_string()),
    }
    if doc.get("label").and_then(Json::as_str).is_none() {
        problems.push("`label` missing or not a string".to_string());
    }
    match doc.get("created_unix_s").map(Json::as_num) {
        Some(Some(v)) if v.is_finite() => {}
        _ => problems.push("`created_unix_s` missing or not finite".to_string()),
    }
    match doc.get("spans").map(Json::as_arr) {
        Some(Some(spans)) => {
            for (i, s) in spans.iter().enumerate() {
                check_span(s, &format!("spans[{i}]"), &mut problems);
            }
        }
        _ => problems.push("missing key `spans` (array)".to_string()),
    }
    match doc.get("ops").map(Json::as_arr) {
        Some(Some(rows)) => {
            for (i, row) in rows.iter().enumerate() {
                if row.get("name").and_then(Json::as_str).is_none() {
                    problems.push(format!("`ops[{i}].name` missing or not a string"));
                }
                match row.get("count").map(Json::as_num) {
                    Some(Some(v)) if v.is_finite() && v >= 0.0 => {}
                    _ => problems.push(format!("`ops[{i}].count` missing or not finite")),
                }
            }
        }
        _ => problems.push("missing key `ops` (array)".to_string()),
    }
    match doc.get("counters") {
        Some(Json::Obj(_)) => {
            for name in REQUIRED_COUNTERS {
                match doc
                    .get("counters")
                    .and_then(|c| c.get(name))
                    .map(Json::as_num)
                {
                    Some(Some(v)) if v.is_finite() && v >= 0.0 => {}
                    _ => problems.push(format!("`counters.{name}` missing or not finite")),
                }
            }
        }
        _ => problems.push("missing key `counters` (object)".to_string()),
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// Span names a full teacher+student training trace must contain somewhere
/// in its tree for the pipeline to count as covered, from CLM pretraining
/// (`lm.pretrain`) on. Both training epochs run through compiled plans, so
/// the student's distillation terms surface as the privileged-target
/// staging span (`pkd.stage`) and the batch replay span
/// (`plan.student_batch`), and the teacher's warm-up steps as
/// `plan.teacher_step`, rather than as dynamic backward and optimizer
/// spans. The teacher forward (`teacher.forward`, `teacher.sca`) still
/// runs once per window to give the student its targets.
pub const REQUIRED_PIPELINE_SPANS: [&str; 11] = [
    "lm.pretrain",
    "epoch.teacher",
    "epoch.student",
    "teacher.forward",
    "teacher.sca",
    "student.forward",
    "student.predict",
    "pkd.stage",
    "plan.student_batch",
    "lm.embed",
    "plan.teacher_step",
];

fn span_name_present(spans: &[Json], name: &str) -> bool {
    spans.iter().any(|s| {
        s.get("name").and_then(Json::as_str) == Some(name)
            || s.get("children")
                .and_then(Json::as_arr)
                .is_some_and(|c| span_name_present(c, name))
    })
}

/// Checks that a shape-valid trace of a training run + predict covers the
/// whole TimeKD pipeline: every required span present and the LM cache
/// exercised. Run [`validate_trace_report`] first.
pub fn validate_trace_coverage(doc: &Json) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let spans = doc.get("spans").and_then(Json::as_arr).unwrap_or(&[]);
    for name in REQUIRED_PIPELINE_SPANS {
        if !span_name_present(spans, name) {
            problems.push(format!("span `{name}` missing from trace"));
        }
    }
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_num)
            .unwrap_or(0.0)
    };
    if counter("lm_cache.hits") + counter("lm_cache.misses") == 0.0 {
        problems.push("LM cache never exercised (hits + misses == 0)".to_string());
    }
    if doc
        .get("ops")
        .and_then(Json::as_arr)
        .is_none_or(<[Json]>::is_empty)
    {
        problems.push("no tensor ops dispatched".to_string());
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
    use std::sync::Mutex;

    /// The obs gate and counters are process-global; serialize tests that
    /// record so they cannot observe each other's activity.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn recorded_snapshot() -> Snapshot {
        timekd_obs::set_enabled(true);
        timekd_obs::reset();
        {
            let _e = timekd_obs::span("epoch.teacher");
            let _t = timekd_obs::span("teacher.forward");
            timekd_obs::count_op("matmul");
        }
        timekd_obs::LM_CACHE_MISSES.add(1);
        let snap = timekd_obs::snapshot();
        timekd_obs::set_enabled(false);
        timekd_obs::reset();
        snap
    }

    #[test]
    fn report_from_snapshot_passes_shape_validation() {
        let _g = locked();
        let snap = recorded_snapshot();
        let doc = trace_report(&snap, "unit", 1_722_000_000);
        assert_eq!(validate_trace_report(&doc), Ok(()));
        // Round-trips through the emitter + parser unchanged.
        let parsed = Json::parse(&doc.render()).expect("parse");
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed.get_path("schema").and_then(Json::as_str),
            Some(TRACE_SCHEMA)
        );
        assert!(span_name_present(
            parsed.get("spans").and_then(Json::as_arr).unwrap(),
            "teacher.forward"
        ));
    }

    #[test]
    fn validator_rejects_missing_schema_field() {
        let _g = locked();
        let snap = recorded_snapshot();
        let mut doc = trace_report(&snap, "unit", 1_722_000_000);
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "schema");
        }
        let problems = validate_trace_report(&doc).expect_err("must fail");
        assert!(
            problems.iter().any(|p| p.contains("missing key `schema`")),
            "{problems:?}"
        );
    }

    #[test]
    fn validator_rejects_wrong_schema_and_bad_span() {
        let doc = Json::obj(vec![
            ("schema", Json::str("timekd-trace/v0")),
            ("label", Json::str("x")),
            ("created_unix_s", Json::num(1.0)),
            (
                "spans",
                Json::Arr(vec![Json::obj(vec![("name", Json::str("a"))])]),
            ),
            ("ops", Json::Arr(vec![])),
            ("counters", Json::obj(vec![])),
        ]);
        let problems = validate_trace_report(&doc).expect_err("must fail");
        assert!(problems.iter().any(|p| p.contains("`schema` must be")));
        assert!(problems.iter().any(|p| p.contains("spans[0].count")));
        assert!(problems.iter().any(|p| p.contains("spans[0].children")));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("counters.lm_cache.hits")),
            "{problems:?}"
        );
    }

    #[test]
    fn coverage_flags_missing_pipeline_spans() {
        let _g = locked();
        let snap = recorded_snapshot();
        let doc = trace_report(&snap, "unit", 1_722_000_000);
        // Shape is fine but the pipeline is not covered: only two spans
        // were recorded.
        let problems = validate_trace_coverage(&doc).expect_err("must fail");
        assert!(problems.iter().any(|p| p.contains("`epoch.student`")));
        assert!(problems.iter().any(|p| p.contains("`lm.pretrain`")));
        // The spans that *were* recorded are not flagged.
        assert!(!problems.iter().any(|p| p.contains("`teacher.forward`")));
    }

    #[test]
    fn coverage_accepts_full_pipeline() {
        let _g = locked();
        timekd_obs::set_enabled(true);
        timekd_obs::reset();
        {
            let _p = timekd_obs::span("lm.pretrain");
            let _b = timekd_obs::span("tensor.backward");
        }
        {
            let _e = timekd_obs::span("epoch.teacher");
            {
                let _t = timekd_obs::span("teacher.forward");
                let _c = timekd_obs::span("teacher.sca");
            }
            let _b = timekd_obs::span("plan.teacher_step");
        }
        {
            let _e = timekd_obs::span("epoch.student");
            let _s = timekd_obs::span("student.forward");
        }
        for name in [
            "student.predict",
            "pkd.stage",
            "plan.student_batch",
            "lm.embed",
        ] {
            // Flat spans are fine: coverage only requires presence.
            let guard = match name {
                "student.predict" => timekd_obs::span("student.predict"),
                "pkd.stage" => timekd_obs::span("pkd.stage"),
                "plan.student_batch" => timekd_obs::span("plan.student_batch"),
                _ => timekd_obs::span("lm.embed"),
            };
            drop(guard);
        }
        timekd_obs::count_op("matmul");
        timekd_obs::LM_CACHE_MISSES.add(2);
        let snap = timekd_obs::snapshot();
        timekd_obs::set_enabled(false);
        timekd_obs::reset();
        let doc = trace_report(&snap, "unit", 1_722_000_000);
        assert_eq!(validate_trace_report(&doc), Ok(()));
        assert_eq!(validate_trace_coverage(&doc), Ok(()));
    }
}
