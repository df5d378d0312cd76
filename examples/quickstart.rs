//! Quickstart: train TimeKD on a synthetic ETTh1-style dataset and
//! forecast.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Knobs (all environment variables):
//!
//! - `QUICK=1` — shrink the dataset and epoch count for a smoke run.
//! - `TIMEKD_TRACE=1` — record observability spans/counters and print a
//!   per-epoch summary table (counts are cumulative from model
//!   construction: LM pretraining and the teacher warmup only happen
//!   before or in epoch 1, and the final trace must cover them).
//! - `TIMEKD_TRACE_OUT=<path>` — with tracing on, also write the
//!   schema-validated `timekd-trace/v1` JSON report there.

use timekd::{Forecaster, TimeKd, TimeKdConfig};
use timekd_bench::{trace_report, validate_trace_coverage, validate_trace_report};
use timekd_data::{DatasetKind, Split, SplitDataset};

fn main() {
    let quick = std::env::var("QUICK").is_ok_and(|v| v != "0");

    // 1. Build a dataset: ETTh1-style electricity data with 96-step
    //    history, 24-step horizon, chronological 70/10/20 splits (QUICK
    //    shrinks everything to smoke-test scale).
    let (steps, vars, hist, horizon, epochs) = if quick {
        (700, 7, 48, 12, 2)
    } else {
        (1200, 42, 96, 24, 3)
    };
    let ds = SplitDataset::new(DatasetKind::EttH1, steps, vars, hist, horizon);
    println!(
        "dataset: {} ({} variables, {} train steps)",
        ds.kind().name(),
        ds.num_vars(),
        ds.split_len(Split::Train)
    );

    // 2. Build TimeKD. `TimeKd::new` pretrains a small calibrated language
    //    model on the prompt grammar, freezes it, and wires up the
    //    cross-modality teacher + student + privileged distillation.
    let mut config = TimeKdConfig::default();
    config.prompt.freq_minutes = ds.kind().freq_minutes();
    let mut model = TimeKd::new(config, ds.input_len(), ds.horizon(), ds.num_vars());
    println!("trainable parameters: {}", model.num_trainable_params());

    // The trace covers the whole run, LM pretraining (`lm.pretrain`)
    // included. `timekd_obs::enabled()` reads TIMEKD_TRACE on first call.
    let tracing = timekd_obs::enabled();

    // 3. Train jointly (teacher reconstruction + PKD + forecasting loss).
    let train = ds.windows(Split::Train, 8);
    let val = ds.windows(Split::Val, 4);
    for epoch in 1..=epochs {
        let stats = model.train_epoch_detailed(&train);
        let (val_mse, val_mae) = model.evaluate(&val);
        println!(
            "epoch {epoch}: loss {:.4} (recon {:.4}, cd {:.4}, fd {:.4}, fcst {:.4}) | val MSE {val_mse:.4} MAE {val_mae:.4}",
            stats.total, stats.reconstruction, stats.correlation, stats.feature, stats.forecast
        );
        if tracing {
            println!("--- trace summary after epoch {epoch} (cumulative) ---");
            println!("{}", timekd_obs::snapshot().render_table());
        }
    }

    // 4. Test-set evaluation — only the lightweight student runs here.
    let test = ds.windows(Split::Test, 4);
    let (mse, mae) = model.evaluate(&test);
    println!("test: MSE {mse:.4}  MAE {mae:.4}");

    // 5. Forecast one window.
    let w = &test[0];
    let forecast = model.predict(&w.x);
    println!(
        "first window: forecast[0] = {:?} vs truth[0] = {:?}",
        &forecast.to_vec()[..ds.num_vars()],
        &w.y.to_vec()[..ds.num_vars()]
    );

    // 6. With tracing on, emit and validate the JSON trace report.
    if tracing {
        if let Ok(out) = std::env::var("TIMEKD_TRACE_OUT") {
            let created = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            let report = trace_report(&timekd_obs::snapshot(), "quickstart", created);
            let mut problems = Vec::new();
            if let Err(ps) = validate_trace_report(&report) {
                problems.extend(ps);
            }
            if let Err(ps) = validate_trace_coverage(&report) {
                problems.extend(ps);
            }
            if !problems.is_empty() {
                for p in &problems {
                    eprintln!("trace validation: {p}");
                }
                std::process::exit(1);
            }
            std::fs::write(&out, report.render()).expect("write trace report");
            println!("trace report written to {out} (schema-valid, full pipeline coverage)");
        }
    }
}
