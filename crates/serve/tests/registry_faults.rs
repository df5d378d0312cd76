//! Fault injection against the on-disk registry: every corruption mode
//! must surface as a precise typed error at load time — and a rejected
//! hot-swap must leave the previously active version serving untouched.

mod common;

use std::fs;
use std::path::Path;

use common::*;
use timekd::PlannedStudent;
use timekd_obs::json::Json;
use timekd_serve::{fnv1a, load, registry::RegistryError, ServeConfig, Server};

fn manifest_path(root: &Path, version: u64) -> std::path::PathBuf {
    root.join(format!("v{version}")).join("manifest.json")
}

fn params_path(root: &Path, version: u64) -> std::path::PathBuf {
    root.join(format!("v{version}")).join("params.bin")
}

#[test]
fn missing_version_is_reported_as_such() {
    let root = temp_registry("faults-missing");
    publish_version(&root, 1, 50);
    match load(&root, 7) {
        Err(RegistryError::MissingVersion(7)) => {}
        other => panic!("expected MissingVersion(7), got {other:?}"),
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn corrupt_manifest_json_fails_the_parse_stage() {
    let root = temp_registry("faults-manifest");
    publish_version(&root, 1, 51);
    fs::write(manifest_path(&root, 1), "{not json at all").expect("corrupt");
    match load(&root, 1) {
        Err(RegistryError::Manifest(msg)) => {
            assert!(msg.contains("manifest.json"), "{msg}")
        }
        other => panic!("expected Manifest error, got {other:?}"),
    }

    // Valid JSON, stale schema: still a manifest-stage error naming the field.
    fs::write(
        manifest_path(&root, 1),
        r#"{"schema": "timekd-registry/v0"}"#,
    )
    .expect("stale schema");
    match load(&root, 1) {
        Err(RegistryError::Manifest(msg)) => assert!(msg.contains("schema"), "{msg}"),
        other => panic!("expected Manifest error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn flipped_blob_byte_fails_the_checksum_stage() {
    let root = temp_registry("faults-checksum");
    publish_version(&root, 1, 52);
    let mut blob = fs::read(params_path(&root, 1)).expect("read blob");
    let mid = blob.len() / 2;
    blob[mid] ^= 0x40;
    fs::write(params_path(&root, 1), &blob).expect("write corrupted blob");
    match load(&root, 1) {
        Err(RegistryError::Checksum { expected, actual }) => {
            assert_ne!(expected, actual);
            assert_eq!(actual, format!("{:016x}", fnv1a(&blob)));
        }
        other => panic!("expected Checksum error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn truncated_blob_fails_the_decode_stage_with_the_param_label() {
    let root = temp_registry("faults-truncated");
    publish_version(&root, 1, 53);
    let blob = fs::read(params_path(&root, 1)).expect("read blob");
    let truncated = &blob[..blob.len() - blob.len() / 3];
    fs::write(params_path(&root, 1), truncated).expect("truncate blob");
    // Patch the checksum so the fault is caught by the *decoder*, proving
    // the stages are ordered and independently precise.
    let text = fs::read_to_string(manifest_path(&root, 1)).expect("read manifest");
    let mut doc = Json::parse(&text).expect("parse manifest");
    if let Json::Obj(pairs) = &mut doc {
        for (k, v) in pairs.iter_mut() {
            if k == "params_checksum" {
                *v = Json::str(format!("{:016x}", fnv1a(truncated)));
            }
        }
    }
    fs::write(manifest_path(&root, 1), doc.render()).expect("patch checksum");
    match load(&root, 1) {
        Err(RegistryError::Param { label, reason }) => {
            assert!(!label.is_empty());
            assert!(
                reason.contains("truncated") || reason.contains("magic"),
                "{reason}"
            );
        }
        other => panic!("expected Param error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn manifest_geometry_drift_fails_the_plan_crosscheck_stage() {
    let root = temp_registry("faults-shape");
    publish_version(&root, 1, 54);
    // Widen model.dim 16 -> 24: the blobs still decode against the
    // manifest's own param dims, but the re-traced plan now expects
    // different parameter shapes.
    let text = fs::read_to_string(manifest_path(&root, 1)).expect("read manifest");
    let mut doc = Json::parse(&text).expect("parse manifest");
    if let Some(Json::Obj(model)) = match &mut doc {
        Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == "model").map(|(_, v)| v),
        _ => None,
    } {
        for (k, v) in model.iter_mut() {
            if k == "dim" {
                *v = Json::num(24.0);
            }
        }
    } else {
        panic!("manifest has no model object");
    }
    fs::write(manifest_path(&root, 1), doc.render()).expect("patch dim");
    match load(&root, 1) {
        Err(RegistryError::ShapeMismatch {
            label,
            expected,
            found,
        }) => {
            assert!(!label.is_empty());
            assert_ne!(expected, found, "{label}");
        }
        other => panic!("expected ShapeMismatch error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn rejected_hot_swap_keeps_the_old_version_serving() {
    let _serial = common::serial();
    timekd_obs::reset();
    let root = temp_registry("faults-swap");
    let student = publish_version(&root, 1, 55);
    let server = Server::start(ServeConfig::new(&root)).expect("start");
    let addr = server.addr();

    let mut planned = PlannedStudent::new(&student, &tiny_config()).expect("planned");
    let window = demo_window(33);
    let flat: Vec<f32> = window.iter().flatten().copied().collect();
    let reference = tensor_bits(&planned.predict(&timekd_tensor::Tensor::from_vec(
        flat,
        [INPUT_LEN, NUM_VARS],
    )));
    let body = Json::obj(vec![("x", rows_json(&window))]).render();

    // Publish a v2 whose blob is then corrupted on disk.
    publish_version(&root, 2, 56);
    let mut blob = fs::read(params_path(&root, 2)).expect("read blob");
    blob[0] ^= 0xff;
    fs::write(params_path(&root, 2), &blob).expect("corrupt v2");

    // Activation must be rejected with the registry diagnostic...
    let resp = request(addr, "POST", "/admin/activate", r#"{"version": 2}"#);
    assert_eq!(resp.status, 422, "{}", resp.body);
    let doc = resp.json();
    assert!(
        doc.get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("checksum")),
        "{}",
        resp.body
    );
    assert_eq!(doc.get("kept_version").and_then(Json::as_num), Some(1.0));

    // ...so must a v3 whose manifest asks for a precision other than f32
    // (every version is served by the f32 plan)...
    publish_version(&root, 3, 57);
    let text = fs::read_to_string(manifest_path(&root, 3)).expect("read manifest");
    let mut manifest = Json::parse(&text).expect("parse manifest");
    if let Json::Obj(pairs) = &mut manifest {
        for (k, v) in pairs.iter_mut() {
            if k == "precision" {
                *v = Json::str("int8");
            }
        }
    }
    fs::write(manifest_path(&root, 3), manifest.render()).expect("patch precision");
    let resp = request(addr, "POST", "/admin/activate", r#"{"version": 3}"#);
    assert_eq!(resp.status, 422, "{}", resp.body);
    let doc = resp.json();
    assert!(
        doc.get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("int8")),
        "{}",
        resp.body
    );
    assert_eq!(doc.get("kept_version").and_then(Json::as_num), Some(1.0));

    // ...activating a version that does not exist is also a clean 422...
    let resp = request(addr, "POST", "/admin/activate", r#"{"version": 9}"#);
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(resp.body.contains("no version"), "{}", resp.body);

    // ...and v1 keeps serving bit-identical forecasts afterwards.
    let resp = request(addr, "POST", "/forecast", &body);
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = resp.json();
    assert_eq!(doc.get("version").and_then(Json::as_num), Some(1.0));
    assert_eq!(forecast_bits(&doc), reference);

    // The rejects are visible on /metrics.
    let resp = request(addr, "GET", "/metrics", "");
    let doc = resp.json();
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("serve.swap_rejects"))
            .and_then(Json::as_num),
        Some(3.0),
        "{}",
        resp.body
    );
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("serve.swaps"))
            .and_then(Json::as_num),
        Some(0.0)
    );

    server.shutdown();
    let _ = fs::remove_dir_all(&root);
}
