//! Versioned on-disk model registry for frozen student plans.
//!
//! Layout: `<root>/v<N>/` holds a `manifest.json` (schema
//! `timekd-registry/v1`: model/geometry hyperparameters, the precision
//! (always `"f32"`), the ordered parameter table, and an FNV-1a checksum
//! of the blob file) plus `params.bin` (the parameters as concatenated
//! `TKT1` tensor blobs in manifest order). Publishing snapshots a live
//! [`Student`] under the labels of its naming walk; loading fetches the
//! forecast [`Plan`] for the manifest's geometry from the plan cache
//! (recording and compiling it on a miss), and cross-checks every blob
//! label and shape against the plan's parameters — so a corrupt manifest,
//! a truncated blob, a checksum mismatch, or a shape drift is a precise
//! [`RegistryError`] at load time, never a panic at serve time.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard};

use timekd::{bind_student_params, student_forecast_plan, Student, TimeKdConfig};
use timekd_obs::json::Json;
use timekd_tensor::bytes::Bytes;
use timekd_tensor::io::{decode_tensor, encode_tensor};
use timekd_tensor::{Plan, PlanExecutor, Precision, Tensor, ValueSource};

/// Manifest schema identifier written to and required from every version.
pub const MANIFEST_SCHEMA: &str = "timekd-registry/v1";

/// Everything that can go wrong publishing to or loading from a registry.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// Filesystem error (path + OS message).
    Io(String),
    /// The requested version directory does not exist.
    MissingVersion(u64),
    /// `manifest.json` failed to parse or a field is missing/invalid.
    Manifest(String),
    /// `params.bin` does not hash to the manifest checksum.
    Checksum {
        /// Checksum recorded in the manifest (hex).
        expected: String,
        /// Checksum of the bytes on disk (hex).
        actual: String,
    },
    /// A parameter blob failed to decode (truncated / bad magic / bad shape).
    Param {
        /// Manifest label of the offending parameter.
        label: String,
        /// Decoder diagnostic.
        reason: String,
    },
    /// A loaded parameter's shape disagrees with the recompiled plan's.
    ShapeMismatch {
        /// Parameter label.
        label: String,
        /// Shape the plan expects.
        expected: Vec<usize>,
        /// Shape found in the manifest/blob.
        found: Vec<usize>,
    },
    /// Recording or compiling the plan from the manifest config failed.
    Plan(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(msg) => write!(f, "registry io error: {msg}"),
            RegistryError::MissingVersion(v) => write!(f, "registry has no version v{v}"),
            RegistryError::Manifest(msg) => write!(f, "bad manifest: {msg}"),
            RegistryError::Checksum { expected, actual } => {
                write!(
                    f,
                    "params.bin checksum mismatch: manifest {expected}, disk {actual}"
                )
            }
            RegistryError::Param { label, reason } => {
                write!(f, "bad param blob `{label}`: {reason}")
            }
            RegistryError::ShapeMismatch {
                label,
                expected,
                found,
            } => write!(
                f,
                "param `{label}` shape mismatch: plan wants {expected:?}, registry has {found:?}"
            ),
            RegistryError::Plan(msg) => write!(f, "plan compile failed: {msg}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// FNV-1a over a byte slice — the dependency-free integrity hash for
/// `params.bin` (catches bit corruption that length checks alone miss).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Parsed `manifest.json`: the architecture, geometry and ordered
/// parameter table of one registered version. Every version is served by
/// the f32 plan; the file still carries `"precision": "f32"`, and any
/// other precision is rejected at load.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Version number (matches the `v<N>` directory name).
    pub version: u64,
    /// Student embedding width.
    pub dim: usize,
    /// Encoder layer count.
    pub num_layers: usize,
    /// Attention head count.
    pub num_heads: usize,
    /// FFN hidden width.
    pub ffn_hidden: usize,
    /// History window length (model input rows).
    pub input_len: usize,
    /// Forecast horizon (output rows).
    pub horizon: usize,
    /// Channel count.
    pub num_vars: usize,
    /// `(label, dims)` per parameter, in blob order.
    pub params: Vec<(String, Vec<usize>)>,
    /// FNV-1a of `params.bin`, rendered as 16 hex digits.
    pub checksum: String,
}

impl Manifest {
    /// The [`TimeKdConfig`] this manifest pins. Only the student's
    /// architectural fields are persisted; everything else (training
    /// hyperparameters, ablations) is irrelevant to the frozen forecast
    /// graph and stays at its default.
    pub fn config(&self) -> TimeKdConfig {
        TimeKdConfig {
            dim: self.dim,
            num_layers: self.num_layers,
            num_heads: self.num_heads,
            ffn_hidden: self.ffn_hidden,
            ..TimeKdConfig::default()
        }
    }

    fn to_json(&self) -> Json {
        let params = self
            .params
            .iter()
            .map(|(label, dims)| {
                Json::obj(vec![
                    ("label", Json::str(label.as_str())),
                    (
                        "dims",
                        Json::Arr(dims.iter().map(|&d| Json::num(d as f64)).collect()),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str(MANIFEST_SCHEMA)),
            ("version", Json::num(self.version as f64)),
            ("precision", Json::str("f32")),
            (
                "model",
                Json::obj(vec![
                    ("dim", Json::num(self.dim as f64)),
                    ("num_layers", Json::num(self.num_layers as f64)),
                    ("num_heads", Json::num(self.num_heads as f64)),
                    ("ffn_hidden", Json::num(self.ffn_hidden as f64)),
                ]),
            ),
            (
                "geometry",
                Json::obj(vec![
                    ("input_len", Json::num(self.input_len as f64)),
                    ("horizon", Json::num(self.horizon as f64)),
                    ("num_vars", Json::num(self.num_vars as f64)),
                ]),
            ),
            ("params_checksum", Json::str(self.checksum.as_str())),
            ("params", Json::Arr(params)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Manifest, RegistryError> {
        let bad = |msg: String| RegistryError::Manifest(msg);
        match doc.get("schema").and_then(Json::as_str) {
            Some(MANIFEST_SCHEMA) => {}
            Some(other) => {
                return Err(bad(format!(
                    "schema must be {MANIFEST_SCHEMA:?}, got {other:?}"
                )))
            }
            None => return Err(bad("missing key `schema`".to_string())),
        }
        let need_usize = |path: &str| -> Result<usize, RegistryError> {
            match doc.get_path(path).and_then(Json::as_num) {
                Some(v) if v.is_finite() && v >= 0.0 && v.fract() == 0.0 => Ok(v as usize),
                Some(v) => Err(bad(format!(
                    "`{path}` must be a non-negative integer, got {v}"
                ))),
                None => Err(bad(format!("missing key `{path}`"))),
            }
        };
        // The student cannot be built with a zero width, depth, head
        // count, window or channel count, nor with heads that do not split
        // the width evenly.
        let need_positive = |path: &str| -> Result<usize, RegistryError> {
            match need_usize(path)? {
                0 => Err(bad(format!("`{path}` must be positive, got 0"))),
                n => Ok(n),
            }
        };
        let dim = need_positive("model.dim")?;
        let num_heads = need_positive("model.num_heads")?;
        if dim % num_heads != 0 {
            return Err(bad(format!(
                "`model.num_heads` ({num_heads}) must divide `model.dim` ({dim})"
            )));
        }
        match doc.get("precision").and_then(Json::as_str) {
            Some("f32") => {}
            Some(other) => return Err(bad(format!("precision must be \"f32\", got {other:?}"))),
            None => return Err(bad("missing key `precision`".to_string())),
        }
        let raw_params = match doc.get("params").and_then(Json::as_arr) {
            Some(rows) if !rows.is_empty() => rows,
            Some(_) => return Err(bad("`params` must be a non-empty array".to_string())),
            None => return Err(bad("missing key `params`".to_string())),
        };
        let mut params = Vec::with_capacity(raw_params.len());
        for (i, row) in raw_params.iter().enumerate() {
            let label = row
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| bad(format!("`params[{i}].label` missing or not a string")))?;
            let dims_arr = row
                .get("dims")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad(format!("`params[{i}].dims` missing or not an array")))?;
            let mut dims = Vec::with_capacity(dims_arr.len());
            for d in dims_arr {
                match d.as_num() {
                    Some(v) if v.is_finite() && v >= 1.0 && v.fract() == 0.0 => {
                        dims.push(v as usize)
                    }
                    _ => {
                        return Err(bad(format!(
                            "`params[{i}].dims` must hold positive integers"
                        )))
                    }
                }
            }
            params.push((label.to_string(), dims));
        }
        let checksum = doc
            .get("params_checksum")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing key `params_checksum`".to_string()))?
            .to_string();
        Ok(Manifest {
            version: need_usize("version")? as u64,
            dim,
            num_layers: need_positive("model.num_layers")?,
            num_heads,
            ffn_hidden: need_positive("model.ffn_hidden")?,
            input_len: need_positive("geometry.input_len")?,
            horizon: need_positive("geometry.horizon")?,
            num_vars: need_positive("geometry.num_vars")?,
            params,
            checksum,
        })
    }
}

/// A fully validated, servable model version: the manifest, the compiled
/// [`Plan`], the parameter values keyed by label, and the idle executors
/// that serve it. Requests replay on the connection handler that parsed
/// them: each one borrows an idle executor, and the pool grows lazily to
/// at most one executor per available core. A handler that finds none
/// idle at that cap waits for one, so many connections never mean many
/// arenas.
#[derive(Debug)]
pub struct LoadedModel {
    manifest: Manifest,
    plan: Plan,
    values: HashMap<String, (Vec<usize>, Vec<f32>)>,
    pool: Mutex<ExecutorPool>,
    returned: Condvar,
    max_executors: usize,
}

#[derive(Debug, Default)]
struct ExecutorPool {
    idle: Vec<PlanExecutor>,
    /// Executors bound so far, idle or lent out; never above the cap.
    bound: usize,
}

/// An executor lent to one request; dropping it returns it to the pool.
struct Lease<'a> {
    model: &'a LoadedModel,
    exec: Option<PlanExecutor>,
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if let Some(exec) = self.exec.take() {
            self.model.lock_pool().idle.push(exec);
            self.model.returned.notify_one();
        }
    }
}

/// The replay of one forecast: pure schedule replay into a preallocated
/// output. The `no-*-in-serve-loop` lints hold it to zero allocation, no
/// unwrap and no I/O, exactly like the plan executor it drives.
fn replay_serve_loop(exec: &mut PlanExecutor, input: &[f32], out: &mut [f32]) {
    exec.run(input, out);
}

impl LoadedModel {
    /// The manifest this model was loaded from.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Version number.
    pub fn version(&self) -> u64 {
        self.manifest.version
    }

    /// Expected flattened input length (`input_len * num_vars`).
    pub fn input_values(&self) -> usize {
        self.manifest.input_len * self.manifest.num_vars
    }

    /// Flattened output length (`horizon * num_vars`).
    pub fn output_values(&self) -> usize {
        self.manifest.horizon * self.manifest.num_vars
    }

    /// Binds a fresh executor over the loaded parameters.
    pub fn make_executor(&self) -> Result<PlanExecutor, RegistryError> {
        PlanExecutor::new(&self.plan, |label, dims| {
            self.values
                .get(label)
                .filter(|(d, _)| d == dims)
                .map(|(_, data)| data.clone())
        })
        .map_err(|e| RegistryError::Plan(format!("{e}")))
    }

    /// Forecasts one flattened `[input_len * num_vars]` window on the
    /// calling thread, returning `[horizon * num_vars]` values bitwise
    /// equal to a fresh executor's `run`.
    pub fn forecast(&self, input: &[f32]) -> Result<Vec<f32>, String> {
        if input.len() != self.input_values() {
            return Err(format!(
                "input has {} values, model v{} expects {}",
                input.len(),
                self.version(),
                self.input_values()
            ));
        }
        let mut lease = self.lease().map_err(|e| e.to_string())?;
        let mut out = vec![0.0f32; self.output_values()];
        if let Some(exec) = lease.exec.as_mut() {
            replay_serve_loop(exec, input, &mut out);
        }
        Ok(out)
    }

    fn lock_pool(&self) -> MutexGuard<'_, ExecutorPool> {
        self.pool.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Takes an idle executor, binds a new one below the cap, or waits
    /// for one to come back.
    fn lease(&self) -> Result<Lease<'_>, RegistryError> {
        let mut pool = self.lock_pool();
        let exec = loop {
            if let Some(exec) = pool.idle.pop() {
                break exec;
            }
            if pool.bound < self.max_executors {
                pool.bound += 1;
                drop(pool);
                break self.make_executor().inspect_err(|_| {
                    self.lock_pool().bound -= 1;
                    self.returned.notify_one();
                })?;
            }
            pool = self.returned.wait(pool).unwrap_or_else(|p| p.into_inner());
        };
        Ok(Lease {
            model: self,
            exec: Some(exec),
        })
    }
}

fn version_dir(root: &Path, version: u64) -> PathBuf {
    root.join(format!("v{version}"))
}

/// Registered versions under `root`, ascending. Non-`v<N>` entries are
/// ignored; a missing root directory is an empty registry.
pub fn list_versions(root: &Path) -> Vec<u64> {
    let mut out = Vec::new();
    if let Ok(entries) = fs::read_dir(root) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            if let Some(rest) = name.to_string_lossy().strip_prefix('v') {
                if let Ok(v) = rest.parse::<u64>() {
                    if entry.path().join("manifest.json").is_file() {
                        out.push(v);
                    }
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// Highest registered version, if any.
pub fn latest_version(root: &Path) -> Option<u64> {
    list_versions(root).pop()
}

/// Publishes `student` as `v<version>`: writes its parameters in naming-walk
/// order to `params.bin` (concatenated `TKT1` blobs) and then
/// `manifest.json` (last, so a crashed publish never leaves a listable
/// version). `_precision` has one value, [`Precision::F32`]; it stays in
/// the signature only for callers that still pass it.
pub fn publish(
    root: &Path,
    version: u64,
    student: &Student,
    config: &TimeKdConfig,
    _precision: Precision,
) -> Result<Manifest, RegistryError> {
    let params = bind_student_params(student);

    let mut blob: Vec<u8> = Vec::new();
    let mut table = Vec::with_capacity(params.len());
    for (label, real) in params {
        let mut enc = encode_tensor(&real);
        let mut tmp = vec![0u8; enc.remaining()];
        enc.copy_to_slice(&mut tmp);
        blob.extend_from_slice(&tmp);
        table.push((label, real.dims().to_vec()));
    }

    let manifest = Manifest {
        version,
        dim: config.dim,
        num_layers: config.num_layers,
        num_heads: config.num_heads,
        ffn_hidden: config.ffn_hidden,
        input_len: student.input_len(),
        horizon: student.horizon(),
        num_vars: student.num_vars(),
        params: table,
        checksum: format!("{:016x}", fnv1a(&blob)),
    };

    let dir = version_dir(root, version);
    let io = |e: std::io::Error, what: &str| RegistryError::Io(format!("{what}: {e}"));
    fs::create_dir_all(&dir).map_err(|e| io(e, "create version dir"))?;
    fs::write(dir.join("params.bin"), &blob).map_err(|e| io(e, "write params.bin"))?;
    fs::write(dir.join("manifest.json"), manifest.to_json().render())
        .map_err(|e| io(e, "write manifest.json"))?;
    Ok(manifest)
}

/// Loads and fully validates `v<version>` from `root`.
///
/// Validation order (each stage has its own error variant so fault
/// injection can assert precision): version dir exists → manifest parses
/// field-by-field → `params.bin` matches the manifest checksum → every
/// blob decodes with the manifest's label/shape → the forecast plan for
/// the manifest config comes from the plan cache (recorded and compiled on
/// a miss) → every plan parameter resolves
/// against the loaded values with matching shapes (probed by binding one
/// executor, which then seeds the pool as its first idle executor).
pub fn load(root: &Path, version: u64) -> Result<LoadedModel, RegistryError> {
    let dir = version_dir(root, version);
    if !dir.join("manifest.json").is_file() {
        return Err(RegistryError::MissingVersion(version));
    }
    let manifest_text = fs::read_to_string(dir.join("manifest.json"))
        .map_err(|e| RegistryError::Io(format!("read manifest.json: {e}")))?;
    let doc = Json::parse(&manifest_text)
        .map_err(|e| RegistryError::Manifest(format!("manifest.json: {e}")))?;
    let manifest = Manifest::from_json(&doc)?;

    let blob = fs::read(dir.join("params.bin"))
        .map_err(|e| RegistryError::Io(format!("read params.bin: {e}")))?;
    let actual = format!("{:016x}", fnv1a(&blob));
    if actual != manifest.checksum {
        return Err(RegistryError::Checksum {
            expected: manifest.checksum.clone(),
            actual,
        });
    }

    let mut buf = Bytes::from(blob);
    let mut values: HashMap<String, (Vec<usize>, Vec<f32>)> =
        HashMap::with_capacity(manifest.params.len());
    for (label, dims) in &manifest.params {
        let t: Tensor = decode_tensor(&mut buf).map_err(|e| RegistryError::Param {
            label: label.clone(),
            reason: e.to_string(),
        })?;
        if t.dims() != dims.as_slice() {
            return Err(RegistryError::Param {
                label: label.clone(),
                reason: format!("blob shape {:?} != manifest dims {dims:?}", t.dims()),
            });
        }
        values.insert(label.clone(), (dims.clone(), t.data().to_vec()));
    }
    if buf.remaining() > 0 {
        return Err(RegistryError::Param {
            label: "<trailing>".to_string(),
            reason: format!(
                "{} unexpected trailing bytes in params.bin",
                buf.remaining()
            ),
        });
    }

    let config = manifest.config();
    let plan = student_forecast_plan(
        &config,
        manifest.input_len,
        manifest.horizon,
        manifest.num_vars,
    )
    .map_err(|e| RegistryError::Plan(format!("{e}")))?;
    for v in plan
        .values()
        .iter()
        .filter(|v| v.source == ValueSource::Param)
    {
        match values.get(&v.label) {
            Some((dims, _)) if *dims == v.dims => {}
            Some((dims, _)) => {
                return Err(RegistryError::ShapeMismatch {
                    label: v.label.clone(),
                    expected: v.dims.clone(),
                    found: dims.clone(),
                });
            }
            None => {
                return Err(RegistryError::Manifest(format!(
                    "plan parameter `{}` missing from manifest",
                    v.label
                )));
            }
        }
    }

    let mut model = LoadedModel {
        manifest,
        plan,
        values,
        pool: Mutex::default(),
        returned: Condvar::new(),
        max_executors: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    // Probe-bind one executor so any residual resolver fault surfaces now;
    // it seeds the pool.
    let probe = model.make_executor()?;
    model.pool = Mutex::new(ExecutorPool {
        idle: vec![probe],
        bound: 1,
    });
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_tensor::seeded_rng;

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn pooled_forecasts_are_bitwise_fresh_and_bounded_under_contention() {
        let root =
            std::env::temp_dir().join(format!("timekd-registry-pool-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let config = TimeKdConfig {
            dim: 16,
            num_layers: 1,
            num_heads: 2,
            ffn_hidden: 32,
            ..TimeKdConfig::default()
        };
        let student = Student::new(&config, 8, 4, 3, &mut seeded_rng(61));
        publish(&root, 1, &student, &config, Precision::F32).expect("publish");
        let model = load(&root, 1).expect("load");
        let cap = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(model.max_executors, cap);

        // Four threads per core, each with its own window, so handlers
        // queue for executors and every executor serves several windows.
        let windows: Vec<Vec<f32>> = (0..4 * cap)
            .map(|t| {
                (0..model.input_values())
                    .map(|i| ((t * 31 + i * 7) % 17) as f32 * 0.25 - 2.0)
                    .collect()
            })
            .collect();
        let references: Vec<Vec<u32>> = windows
            .iter()
            .map(|w| {
                let mut out = vec![0.0f32; model.output_values()];
                model
                    .make_executor()
                    .expect("fresh executor")
                    .run(w, &mut out);
                bits(&out)
            })
            .collect();
        std::thread::scope(|scope| {
            for (window, reference) in windows.iter().zip(&references) {
                let model = &model;
                scope.spawn(move || {
                    for _ in 0..20 {
                        let out = model.forecast(window).expect("forecast");
                        assert_eq!(bits(&out), *reference);
                    }
                });
            }
        });

        let pool = model.lock_pool();
        assert!(
            pool.bound >= 1 && pool.bound <= cap,
            "{} bound, cap {cap}",
            pool.bound
        );
        assert_eq!(pool.idle.len(), pool.bound, "every lease came back");
        drop(pool);
        assert!(model.forecast(&[0.0]).is_err(), "wrong input length");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let m = Manifest {
            version: 3,
            dim: 16,
            num_layers: 2,
            num_heads: 2,
            ffn_hidden: 32,
            input_len: 24,
            horizon: 8,
            num_vars: 7,
            params: vec![
                ("student.revin.mu".to_string(), vec![7]),
                ("student.proj.w".to_string(), vec![16, 8]),
            ],
            checksum: "00000000deadbeef".to_string(),
        };
        // The file keeps naming the precision: `timekd-registry/v1`
        // readers require the key.
        let text = m.to_json().render();
        assert!(text.contains(r#""precision": "f32""#), "{text}");
        let doc = Json::parse(&text).expect("parse");
        assert_eq!(Manifest::from_json(&doc).expect("from_json"), m);
    }

    #[test]
    fn manifest_rejects_wrong_schema_and_bad_fields() {
        let base = Manifest {
            version: 1,
            dim: 16,
            num_layers: 2,
            num_heads: 2,
            ffn_hidden: 32,
            input_len: 24,
            horizon: 8,
            num_vars: 7,
            params: vec![("p".to_string(), vec![2, 2])],
            checksum: "0".repeat(16),
        };
        let mut doc = base.to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs[0].1 = Json::str("timekd-registry/v0");
        }
        let err = Manifest::from_json(&doc).expect_err("stale schema");
        assert!(
            matches!(err, RegistryError::Manifest(ref m) if m.contains("schema")),
            "{err}"
        );

        let mut doc = base.to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "geometry");
        }
        let err = Manifest::from_json(&doc).expect_err("missing geometry");
        assert!(
            matches!(err, RegistryError::Manifest(ref m) if m.contains("geometry.input_len")),
            "{err}"
        );

        let mut doc = base.to_json();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "precision" {
                    *v = Json::str("int8");
                }
            }
        }
        let err = Manifest::from_json(&doc).expect_err("int8 precision");
        assert!(
            matches!(err, RegistryError::Manifest(ref m) if m.contains("int8")),
            "{err}"
        );

        // Every field the student is built from must be positive, and the
        // head count must divide the width.
        type Zero = fn(&mut Manifest);
        let zeroed: [(&str, Zero); 7] = [
            ("model.dim", |m| m.dim = 0),
            ("model.num_layers", |m| m.num_layers = 0),
            ("model.num_heads", |m| m.num_heads = 0),
            ("model.ffn_hidden", |m| m.ffn_hidden = 0),
            ("geometry.input_len", |m| m.input_len = 0),
            ("geometry.horizon", |m| m.horizon = 0),
            ("geometry.num_vars", |m| m.num_vars = 0),
        ];
        for (field, zero) in zeroed {
            let mut manifest = base.clone();
            zero(&mut manifest);
            let err = Manifest::from_json(&manifest.to_json()).expect_err(field);
            assert!(
                matches!(err, RegistryError::Manifest(ref m) if m.contains(field)),
                "{field}: {err}"
            );
        }
        let uneven = Manifest {
            num_heads: 3,
            ..base.clone()
        };
        let err = Manifest::from_json(&uneven.to_json()).expect_err("3 heads over width 16");
        assert!(
            matches!(err, RegistryError::Manifest(ref m) if m.contains("must divide")),
            "{err}"
        );
    }
}
