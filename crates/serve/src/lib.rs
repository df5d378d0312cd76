//! Forecast-serving layer for the TimeKD reproduction.
//!
//! `timekd-serve` turns a frozen, plan-compiled student into a network
//! service with four moving parts, all dependency-free on top of
//! `std::net`:
//!
//! * **Registry** ([`registry`]) — versioned on-disk model store
//!   (`v<N>/manifest.json` + `params.bin`). Loading re-traces and
//!   recompiles the forecast plan from the manifest and cross-checks
//!   every parameter blob, so faults surface as typed
//!   [`RegistryError`]s at load time, never panics at serve time.
//! * **Planned forecasts** — `POST /forecast` replays the plan on the
//!   connection handler that parsed it, on an executor borrowed from the
//!   active model's pool (at most one per available core); each response
//!   is bitwise identical to a single-request `PlannedStudent` forecast.
//! * **Hot-swap** — `POST /admin/activate` loads and validates a version
//!   fully before atomically replacing the shared model `Arc`. Each
//!   request holds one model for its whole run; a rejected swap leaves
//!   the old version serving.
//! * **Tenant windows** ([`tenants`]) — `/observe` feeds per-tenant
//!   sliding histories that `/forecast {"tenant": ...}` reads back.
//!
//! `GET /metrics` renders the `timekd-obs` counters plus per-endpoint
//! log-bucket latency histograms as JSON — the same counters the
//! benchmark package reads back, so offline and online numbers are
//! sourced identically.

#![deny(
    unused_must_use,
    unused_imports,
    unused_variables,
    dead_code,
    unreachable_patterns,
    missing_debug_implementations
)]
#![warn(missing_docs)]

pub mod http;
pub mod registry;
mod server;
pub mod tenants;

pub use registry::{
    fnv1a, latest_version, list_versions, load, publish, LoadedModel, Manifest, RegistryError,
    MANIFEST_SCHEMA,
};
pub use server::{ServeConfig, ServeError, Server, METRICS_SCHEMA};
pub use tenants::TenantCache;
