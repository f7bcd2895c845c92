//! Fig. 8 — Interference-model accuracy: actual vs estimated average query
//! runtime increment under concurrency.
//!
//! Protocol mirrors §8.4: train the interference model from concurrent
//! runners on odd thread counts in interpretive mode over one TPC-H size,
//! then test on even thread counts in compiled mode (8a) and on other
//! dataset sizes (8b).

use std::sync::Arc;
use std::time::Duration;

use mb2_core::runners::concurrent::{measure_isolated, run_concurrent_window, ConcurrentRunConfig};
use mb2_core::{BehaviorModels, WorkloadForecast};
use mb2_engine::exec::ExecutionMode;
use mb2_engine::{Database, Knob};
use mb2_workloads::tpch::Tpch;
use mb2_workloads::Workload;

use crate::experiments::common::tpch_templates;
use crate::pipeline::{build_interference_model, build_ou_models, PipelineConfig};
use crate::report::{fmt, Table};
use crate::Scale;

pub fn run(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str("# Fig. 8 — interference model accuracy (runtime increment)\n\n");

    let cfg = PipelineConfig::for_scale(scale);
    let built = build_ou_models(&cfg).expect("pipeline");

    // Training database and windows (interpretive mode, odd thread counts).
    let train_scale = scale.pick(0.05, 0.25);
    let tpch = Tpch::with_scale(train_scale);
    let db = Arc::new(Database::open());
    tpch.load(&db).expect("tpch");
    db.set_knob(Knob::ExecutionMode, ExecutionMode::Interpret)
        .unwrap();
    let templates = tpch_templates(&db, &tpch);
    let window = Duration::from_millis(scale.pick(400, 1200));
    let (interference, _, rows) = build_interference_model(
        &db,
        &templates,
        &built.models,
        &scale.pick(vec![1usize, 3, 5], vec![1, 3, 5, 7, 9, 13, 17]),
        window,
        11,
    )
    .expect("interference training");
    out.push_str(&format!(
        "interference model: {} training rows, chosen algorithm {}, \
         validation rel-err {:.3}\n\n",
        rows,
        interference.chosen.name(),
        interference.validation_error
    ));
    let behavior = BehaviorModels::new(built.models, Some(interference));

    // 8a: generalize to even thread counts, compiled mode.
    db.set_knob(Knob::ExecutionMode, ExecutionMode::Compiled)
        .unwrap();
    let mut table = Table::new(
        "Fig. 8a — avg query runtime increment vs concurrent threads (compiled mode; trained on odd threads, interpret mode)",
        &["threads", "actual", "estimated"],
    );
    for &threads in &scale.pick(vec![2usize, 4], vec![2, 4, 8, 16]) {
        let (actual, estimated) = increments(&db, &templates, &behavior, threads, window);
        table.row(&[threads.to_string(), fmt(actual), fmt(estimated)]);
    }
    out.push_str(&table.render());
    out.push('\n');

    // 8b: generalize to other dataset sizes at a fixed thread count.
    let mut table = Table::new(
        format!("Fig. 8b — increment across dataset sizes (trained at {train_scale}x)"),
        &["tpch scale", "actual", "estimated"],
    );
    for &ds in &scale.pick(vec![0.01, 0.1], vec![0.05, 1.0]) {
        let tpch2 = Tpch::with_scale(ds);
        let db2 = Arc::new(Database::open());
        tpch2.load(&db2).expect("tpch");
        let templates2 = tpch_templates(&db2, &tpch2);
        let (actual, estimated) = increments(&db2, &templates2, &behavior, 4, window);
        table.row(&[format!("{ds}x"), fmt(actual), fmt(estimated)]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nExpected shape (paper Fig. 8): estimated increments track actual \
         within ~20%, growing with thread count; small datasets are noisiest.\n",
    );
    out
}

/// Measure actual and predicted runtime increments for one configuration.
fn increments(
    db: &Arc<Database>,
    templates: &[mb2_core::QueryTemplate],
    behavior: &BehaviorModels,
    threads: usize,
    window: Duration,
) -> (f64, f64) {
    let isolated_actual = measure_isolated(db, templates, 3).expect("isolated");
    let outcome = run_concurrent_window(
        db,
        templates,
        &behavior.ou_models,
        &ConcurrentRunConfig {
            threads,
            duration: window,
            rate_per_thread: None,
            seed: 13,
        },
    )
    .expect("concurrent window");

    // Actual increment: weighted by completed executions.
    let mut actual_num = 0.0;
    let mut pred_num = 0.0;
    let mut weight = 0.0;
    // Forecast with the measured average arrival rates (the §8.4 input).
    let mut forecast = WorkloadForecast::new(templates.to_vec(), threads);
    let rates: Vec<f64> = outcome
        .per_template_count
        .iter()
        .map(|&c| c as f64 / window.as_secs_f64())
        .collect();
    forecast.push_interval(window.as_secs_f64(), rates);
    let prediction = behavior.predict_interval(&forecast, 0, &db.knobs(), None);

    for (i, t) in prediction.per_template.iter().enumerate() {
        let count = outcome.per_template_count[i] as f64;
        if count == 0.0 || isolated_actual[i] <= 0.0 || t.isolated_us <= 0.0 {
            continue;
        }
        let actual_inc = (outcome.per_template_actual_us[i] / isolated_actual[i] - 1.0).max(0.0);
        let pred_inc = (t.adjusted_us / t.isolated_us - 1.0).max(0.0);
        actual_num += actual_inc * count;
        pred_num += pred_inc * count;
        weight += count;
    }
    if weight == 0.0 {
        (0.0, 0.0)
    } else {
        (actual_num / weight, pred_num / weight)
    }
}
