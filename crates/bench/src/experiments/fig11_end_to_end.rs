//! Fig. 11 — End-to-end self-driving execution.
//!
//! Reproduces §8.7's scenario: a daily transactional/analytical cycle
//! (TPC-C ↔ TPC-H) where the DBMS (1) flips the execution-mode knob for
//! long-running TPC-H queries and (2) builds the CUSTOMER secondary index
//! (with 8 or 4 threads) before TPC-C returns — with MB2's models
//! predicting the runtime effect of every step ahead of time, plus the
//! CPU attribution that explains the decision (Fig. 11b).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mb2_core::planner::{Action, OraclePlanner};
use mb2_core::{BehaviorModels, QueryTemplate, WorkloadForecast};
use mb2_engine::exec::ExecutionMode;
use mb2_engine::sql::PlanNode;
use mb2_engine::{Database, Knob, KnobValue};
use mb2_workloads::tpcc::Tpcc;
use mb2_workloads::tpch::Tpch;
use mb2_workloads::Workload;

use crate::experiments::common::tpch_templates;
use crate::pipeline::{build_interference_model, build_ou_models, PipelineConfig};
use crate::report::{fmt, Table};
use crate::Scale;

pub fn run(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str("# Fig. 11 — end-to-end self-driving execution\n\n");

    // Models.
    let cfg = PipelineConfig::for_scale(scale);
    let built = build_ou_models(&cfg).expect("pipeline");

    // One database hosting both datasets (the paper alternates workloads).
    let tpcc = Tpcc {
        customers_per_district: scale.pick(300, 4000),
        customer_last_name_index: false,
        ..Tpcc::default()
    };
    let tpch = Tpch::with_scale(scale.pick(0.03, 0.15));
    let db = Arc::new(Database::open());
    tpcc.load(&db).expect("tpcc");
    tpch.load(&db).expect("tpch");

    let tpch_templates = tpch_templates(&db, &tpch);
    let (interference, _, _) = build_interference_model(
        &db,
        &tpch_templates,
        &built.models,
        &scale.pick(vec![2usize], vec![1, 3, 5]),
        Duration::from_millis(scale.pick(300, 800)),
        19,
    )
    .expect("interference");
    let behavior = BehaviorModels::new(built.models, Some(interference));

    // TPC-C query-level templates (payment/order-status style statements
    // that exercise the missing last-name index).
    let tpcc_sqls = [
        "SELECT c_id, c_balance FROM customer WHERE c_w_id = 0 AND c_d_id = 1 \
         AND c_last = 'BARBARBAR' ORDER BY c_first",
        "SELECT c_id, c_balance FROM customer WHERE c_w_id = 1 AND c_d_id = 4 \
         AND c_last = 'OUGHTBARPRI' ORDER BY c_first",
        "SELECT c_balance FROM customer WHERE c_w_id = 0 AND c_d_id = 2 AND c_id = 17",
        "SELECT ol_i_id, ol_quantity, ol_amount FROM order_line \
         WHERE ol_w_id = 0 AND ol_d_id = 1 AND ol_o_id = 5",
        "UPDATE customer SET c_balance = c_balance - 1.0 \
         WHERE c_w_id = 0 AND c_d_id = 3 AND c_id = 11",
    ];
    let make_tpcc_templates = |db: &Database| -> Vec<QueryTemplate> {
        tpcc_sqls
            .iter()
            .map(|sql| QueryTemplate {
                name: sql.split_whitespace().take(2).collect::<Vec<_>>().join(" "),
                sql: sql.to_string(),
                plan: db.prepare(sql).expect("tpcc template"),
            })
            .collect()
    };

    for build_threads in [8usize, 4] {
        out.push_str(&scenario(
            scale,
            &db,
            &tpcc,
            &behavior,
            &tpch_templates,
            &make_tpcc_templates,
            build_threads,
        ));
        out.push('\n');
        // Reset: drop the index so the second variant rebuilds it.
        let _ = db.execute(tpcc.drop_customer_index_sql());
    }
    out.push_str(
        "Expected shape (paper Fig. 11): the knob change cuts TPC-H runtime \
         (predicted before it happens); the index build inflates latency \
         while running — more with 8 threads, for less time — and TPC-C \
         returns substantially faster once the index exists, all anticipated \
         by the models.\n",
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn scenario(
    scale: Scale,
    db: &Arc<Database>,
    tpcc: &Tpcc,
    behavior: &BehaviorModels,
    tpch_templates: &[QueryTemplate],
    make_tpcc_templates: &dyn Fn(&Database) -> Vec<QueryTemplate>,
    build_threads: usize,
) -> String {
    let mut out = String::new();
    let phase = Duration::from_secs(scale.pick(2, 4));
    let workers = scale.pick(2usize, 4);
    let planner = OraclePlanner::new(db, behavior);

    let mut table = Table::new(
        format!("scenario with {build_threads} create-index threads"),
        &["phase", "actual avg (us)", "predicted avg (us)"],
    );

    // Phase 1: TPC-C, interpret mode, no secondary index.
    db.set_knob(Knob::ExecutionMode, ExecutionMode::Interpret)
        .unwrap();
    let tpcc_templates = make_tpcc_templates(db);
    let (actual, predicted) =
        drive_and_predict(db, behavior, &tpcc_templates, workers, phase, None);
    table.row(&[
        "tpcc (interpret, no index)".into(),
        fmt(actual),
        fmt(predicted),
    ]);

    // Phase 2: TPC-H, interpret mode.
    let (actual, predicted) = drive_and_predict(db, behavior, tpch_templates, workers, phase, None);
    table.row(&["tpch (interpret)".into(), fmt(actual), fmt(predicted)]);

    // Action 1: the planner evaluates flipping the execution mode.
    let mut forecast = WorkloadForecast::new(tpch_templates.to_vec(), workers);
    forecast.push_interval(phase.as_secs_f64(), vec![5.0; tpch_templates.len()]);
    let eval = planner
        .evaluate(
            &Action::SetKnob(
                Knob::ExecutionMode,
                KnobValue::Mode(ExecutionMode::Compiled),
            ),
            &forecast,
            0,
            &db.knobs(),
        )
        .expect("knob evaluation");
    let predicted_knob_gain = eval.predicted_gain();
    db.set_knob(Knob::ExecutionMode, ExecutionMode::Compiled)
        .unwrap();

    // Phase 3: TPC-H, compiled mode.
    let (actual_compiled, predicted) =
        drive_and_predict(db, behavior, tpch_templates, workers, phase, None);
    table.row(&[
        "tpch (compiled)".into(),
        fmt(actual_compiled),
        fmt(predicted),
    ]);

    // Action 2: build the index while TPC-H still runs; the "during" window
    // is measured for exactly the build duration.
    let index_sql = tpcc.customer_index_sql(build_threads);
    let index_plan = db.prepare(&index_sql).expect("index plan");
    let action_pred = behavior.predict_plan(&index_plan, &db.knobs());
    let (actual_during, predicted_during, predicted_build_adjusted, actual_build) =
        drive_during_build(
            db,
            behavior,
            tpch_templates,
            workers,
            &index_sql,
            &index_plan,
            build_threads,
        );
    table.row(&[
        "tpch (compiled, index building)".into(),
        fmt(actual_during),
        fmt(predicted_during),
    ]);

    // Phase 5: TPC-C returns, index present (replan the templates!).
    let tpcc_templates = make_tpcc_templates(db);
    let (actual, predicted) =
        drive_and_predict(db, behavior, &tpcc_templates, workers, phase, None);
    table.row(&["tpcc (indexed)".into(), fmt(actual), fmt(predicted)]);
    out.push_str(&table.render());

    let mut facts = Table::new("action predictions vs reality", &["quantity", "value"]);
    facts.row(&[
        "knob change predicted runtime reduction".into(),
        format!("{:.0}%", predicted_knob_gain * 100.0),
    ]);
    facts.row(&[
        "index build predicted elapsed (isolated)".into(),
        format!("{:.1} ms", action_pred.elapsed_us() / 1000.0),
    ]);
    facts.row(&[
        "index build predicted elapsed (with interference)".into(),
        format!("{:.1} ms", predicted_build_adjusted / 1000.0),
    ]);
    facts.row(&[
        "index build actual elapsed".into(),
        format!("{:.1} ms", actual_build.as_secs_f64() * 1000.0),
    ]);
    facts.row(&[
        "index build predicted CPU (Fig. 11b attribution)".into(),
        format!("{:.1} ms", action_pred.cpu_us() / 1000.0),
    ]);
    out.push('\n');
    out.push_str(&facts.render());
    out
}

/// Drive the workload while the index build runs, stopping when the build
/// completes; returns (actual avg latency, predicted avg latency, build
/// duration).
#[allow(clippy::too_many_arguments)]
fn drive_during_build(
    db: &Arc<Database>,
    behavior: &BehaviorModels,
    templates: &[QueryTemplate],
    workers: usize,
    index_sql: &str,
    index_plan: &PlanNode,
    build_threads: usize,
) -> (f64, f64, f64, Duration) {
    let total_us = AtomicU64::new(0);
    let counts: Vec<AtomicU64> = templates.iter().map(|_| AtomicU64::new(0)).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let window_started = Instant::now();
    let build_elapsed = std::thread::scope(|scope| {
        for w in 0..workers {
            let db = db.clone();
            let total_us = &total_us;
            let counts = &counts;
            let stop = stop.clone();
            scope.spawn(move || {
                let mut i = w;
                while !stop.load(Ordering::Relaxed) {
                    let ti = i % templates.len();
                    i += 1;
                    let t0 = Instant::now();
                    if db.execute_plan(&templates[ti].plan, None).is_ok() {
                        total_us
                            .fetch_add(t0.elapsed().as_nanos() as u64 / 1000, Ordering::Relaxed);
                        counts[ti].fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        let t0 = Instant::now();
        db.execute(index_sql).expect("index build");
        let elapsed = t0.elapsed();
        stop.store(true, Ordering::Release);
        elapsed
    });
    let window = window_started.elapsed();
    let count_total: u64 = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    let actual_avg = if count_total == 0 {
        0.0
    } else {
        total_us.load(Ordering::Relaxed) as f64 / count_total as f64
    };
    let mut forecast = WorkloadForecast::new(templates.to_vec(), workers);
    let rates: Vec<f64> = counts
        .iter()
        .map(|c| c.load(Ordering::Relaxed) as f64 / window.as_secs_f64().max(1e-6))
        .collect();
    forecast.push_interval(window.as_secs_f64().max(1e-6), rates);
    let action_fc = mb2_core::inference::ActionForecast {
        plan: index_plan.clone(),
        threads: build_threads,
    };
    let prediction = behavior.predict_interval(&forecast, 0, &db.knobs(), Some(&action_fc));
    let adjusted_action = prediction.action_us.map_or(0.0, |(_, adj)| adj);
    (
        actual_avg,
        prediction.avg_query_runtime_us(),
        adjusted_action,
        build_elapsed,
    )
}

/// Drive the templates concurrently for one phase, returning the actual
/// average per-query latency and the models' prediction for the same
/// interval (with the measured arrival rates as the "perfect forecast").
fn drive_and_predict(
    db: &Arc<Database>,
    behavior: &BehaviorModels,
    templates: &[QueryTemplate],
    workers: usize,
    duration: Duration,
    action: Option<(&PlanNode, usize)>,
) -> (f64, f64) {
    let total_us = AtomicU64::new(0);
    let counts: Vec<AtomicU64> = templates.iter().map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let db = db.clone();
            let total_us = &total_us;
            let counts = &counts;
            let stop = &stop;
            scope.spawn(move || {
                let mut i = w;
                while !stop.load(Ordering::Relaxed) {
                    let ti = i % templates.len();
                    i += 1;
                    let t0 = Instant::now();
                    if db.execute_plan(&templates[ti].plan, None).is_ok() {
                        total_us
                            .fetch_add(t0.elapsed().as_nanos() as u64 / 1000, Ordering::Relaxed);
                        counts[ti].fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Release);
    });
    let count_total: u64 = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    let actual_avg = if count_total == 0 {
        0.0
    } else {
        total_us.load(Ordering::Relaxed) as f64 / count_total as f64
    };

    let mut forecast = WorkloadForecast::new(templates.to_vec(), workers);
    let rates: Vec<f64> = counts
        .iter()
        .map(|c| c.load(Ordering::Relaxed) as f64 / duration.as_secs_f64())
        .collect();
    forecast.push_interval(duration.as_secs_f64(), rates);
    let action_fc = action.map(|(plan, threads)| mb2_core::inference::ActionForecast {
        plan: plan.clone(),
        threads,
    });
    let prediction = behavior.predict_interval(&forecast, 0, &db.knobs(), action_fc.as_ref());
    (actual_avg, prediction.avg_query_runtime_us())
}
