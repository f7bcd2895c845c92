//! The "oracle" self-driving planner (paper §8.7): it evaluates candidate
//! actions by comparing MB2's predictions of their cost (how long the
//! action takes), impact (how much it slows the workload while running),
//! and benefit (how much faster the workload becomes afterwards).
//!
//! Originally this ran only offline in the end-to-end experiments; since
//! the autopilot landed it is also the pricing engine of the *live*
//! control loop — `mb2-pilot` calls [`OraclePlanner::evaluate`] against
//! forecasts summarized from real traffic and applies the best
//! positive-gain action to the running engine. What-if planning uses
//! [`mb2_sql::PlannerOverrides`] (hypothetical/hidden indexes carried in
//! the planner, not the catalog), so evaluation never mutates shared
//! state and is safe under concurrent queries.

use std::time::Duration;

use mb2_common::{DbResult, OuKind};
use mb2_engine::{Database, Knob, KnobValue, Knobs, Pricing};
use mb2_sql::{HypotheticalIndex, PlanNode, PlannerOverrides};

use crate::forecast::WorkloadForecast;
use crate::inference::{ActionForecast, BehaviorModels, IntervalPrediction};

/// A candidate self-driving action.
///
/// Knob actions are priced honestly per the knob's [`Pricing`]: a
/// plan-shaped knob by re-predicting the forecast under the new knob
/// vector; a cadence knob by the change in its background OU's recurring
/// cost at the forecast's write volume, amortized per query. A knob whose
/// OU-model is untrained prices to zero gain.
#[derive(Debug, Clone)]
pub enum Action {
    /// Build an index with the given parallelism.
    BuildIndex {
        sql: String,
        table: String,
        index: String,
        columns: Vec<String>,
        threads: usize,
    },
    /// Drop an existing secondary index.
    DropIndex { table: String, index: String },
    /// Set a runtime knob (one row of the engine's [`Knob`] table).
    SetKnob(Knob, KnobValue),
}

impl Action {
    /// Stable short label for metrics and logs (`mb2_pilot_*` families
    /// use this as the `action` label value).
    pub fn label(&self) -> &'static str {
        match self {
            Action::BuildIndex { .. } => "build_index",
            Action::DropIndex { .. } => "drop_index",
            Action::SetKnob(knob, _) => knob.spec().label,
        }
    }

    /// Human-readable one-line description.
    pub fn describe(&self) -> String {
        match self {
            Action::BuildIndex { sql, .. } => sql.clone(),
            Action::DropIndex { table, index } => format!("DROP INDEX {index} ON {table}"),
            Action::SetKnob(knob, value) => format!("set {} to {value}", knob.spec().title),
        }
    }
}

/// Predicted consequences of an action (paper §2.1's four questions).
#[derive(Debug, Clone)]
pub struct ActionEvaluation {
    /// Average query runtime (µs) for the interval without the action.
    pub baseline_us: f64,
    /// Average query runtime while the action deploys (impact).
    pub during_us: f64,
    /// Average query runtime after the action is deployed (benefit).
    pub after_us: f64,
    /// How long the action itself takes (µs); 0 for knob flips.
    pub action_duration_us: f64,
    /// Predicted CPU time (µs) the action consumes.
    pub action_cpu_us: f64,
}

impl ActionEvaluation {
    /// Relative runtime reduction the action is predicted to deliver.
    pub fn predicted_gain(&self) -> f64 {
        if self.baseline_us <= 0.0 {
            return 0.0;
        }
        (self.baseline_us - self.after_us) / self.baseline_us
    }
}

/// Evaluates actions against forecasts with behavior models.
pub struct OraclePlanner<'a> {
    pub db: &'a Database,
    pub models: &'a BehaviorModels,
}

impl<'a> OraclePlanner<'a> {
    pub fn new(db: &'a Database, models: &'a BehaviorModels) -> OraclePlanner<'a> {
        OraclePlanner { db, models }
    }

    /// Evaluate an action against one forecast interval.
    pub fn evaluate(
        &self,
        action: &Action,
        forecast: &WorkloadForecast,
        interval: usize,
        knobs: &Knobs,
    ) -> DbResult<ActionEvaluation> {
        let baseline = self
            .models
            .predict_interval(forecast, interval, knobs, None);
        let baseline_us = baseline.avg_query_runtime_us();
        match action {
            Action::BuildIndex {
                sql,
                table,
                index,
                columns,
                threads,
            } => {
                // Cost + impact: predict the interval with the build running.
                let plan = self.db.prepare(sql)?;
                let action_fc = ActionForecast {
                    plan: plan.clone(),
                    threads: *threads,
                };
                let during =
                    self.models
                        .predict_interval(forecast, interval, knobs, Some(&action_fc));
                let (_, action_adjusted) = during.action_us.expect("action predicted");
                let action_pred = self.models.predict_plan(&plan, knobs);
                let action_cpu_us = action_pred.total_for(OuKind::IndexBuild).cpu_us();

                // Benefit: re-plan the forecast's queries against a
                // hypothetical index (a planner override — the catalog is
                // never touched, so live traffic cannot see it) and
                // predict the new plans.
                let entry = self.db.catalog().get(table)?;
                let schema = entry.table.schema();
                let positions: Vec<usize> = columns
                    .iter()
                    .map(|c| schema.index_of(c))
                    .collect::<DbResult<_>>()?;
                let overrides = PlannerOverrides {
                    hypothetical_indexes: vec![HypotheticalIndex {
                        table: table.clone(),
                        name: index.clone(),
                        columns: positions,
                    }],
                    hidden_indexes: Vec::new(),
                };
                let after_us = self.replan_and_predict(forecast, interval, knobs, &overrides)?;
                Ok(ActionEvaluation {
                    baseline_us,
                    during_us: during.avg_query_runtime_us(),
                    after_us,
                    action_duration_us: action_adjusted,
                    action_cpu_us,
                })
            }
            Action::DropIndex { index, .. } => {
                // Benefit/regression: re-plan with the index hidden. The
                // drop itself is metadata-only, so cost and impact are
                // negligible; the interesting output is `after_us` (how
                // much the workload *loses* without the index — ~zero
                // when no forecast plan uses it).
                let overrides = PlannerOverrides {
                    hypothetical_indexes: Vec::new(),
                    hidden_indexes: vec![index.clone()],
                };
                let after_us = self.replan_and_predict(forecast, interval, knobs, &overrides)?;
                Ok(ActionEvaluation {
                    baseline_us,
                    during_us: baseline_us,
                    after_us,
                    action_duration_us: 0.0,
                    action_cpu_us: 0.0,
                })
            }
            Action::SetKnob(knob, value) => {
                let new_knobs = knob.with(self.db, knobs, *value)?;
                let mut eval = self.knob_flip(&baseline, forecast, interval, &new_knobs);
                // A cadence is not a query-plan feature, so the honest
                // price is the change in recurring background work.
                if let (Pricing::Cadence(ou), KnobValue::Interval(new), KnobValue::Interval(old)) =
                    (knob.spec().pricing, *value, knob.read(self.db, knobs))
                {
                    let old_bg = self.background_cost_us(ou, forecast, interval, old, knobs);
                    let new_bg = self.background_cost_us(ou, forecast, interval, new, &new_knobs);
                    // Overhead the interval pays, amortized per query.
                    let total = forecast.intervals[interval].total_queries();
                    if total > 0.0 {
                        eval.after_us += (new_bg - old_bg) / total;
                    }
                }
                Ok(eval)
            }
        }
    }

    /// Forecast write volume for one interval, from the DML templates'
    /// cardinality estimates: `(rows written, WAL bytes)`.
    fn forecast_write_volume(&self, forecast: &WorkloadForecast, interval: usize) -> (f64, f64) {
        let iv = &forecast.intervals[interval];
        let mut rows = 0.0;
        let mut bytes = 0.0;
        for (i, t) in forecast.templates.iter().enumerate() {
            let count = iv.expected_count(i);
            let (r, width) = match &t.plan {
                PlanNode::Insert { est, .. } => (est.rows_in.max(1.0), est.width),
                PlanNode::Update { est, .. } | PlanNode::Delete { est, .. } => {
                    (est.rows_out.max(1.0), est.width)
                }
                _ => continue,
            };
            rows += r * count;
            bytes += r * width.max(8.0) * count;
        }
        (rows, bytes)
    }

    /// Recurring per-interval cost (µs) of the background thread whose
    /// passes `ou` models, run at `cadence`: `duration / cadence` passes,
    /// each priced by the OU-model on its share of the forecast write
    /// volume — WAL bytes for Log Flush, version churn for GC, cold
    /// inserted rows (sealable units) for Compaction. A zero GC or
    /// compaction cadence means the thread is not running (no cost); a
    /// zero WAL interval is a flusher that never waits.
    fn background_cost_us(
        &self,
        ou: OuKind,
        forecast: &WorkloadForecast,
        interval: usize,
        cadence: Duration,
        knobs: &Knobs,
    ) -> f64 {
        if cadence.is_zero() && ou != OuKind::LogFlush {
            return 0.0;
        }
        let (rows, bytes) = self.forecast_write_volume(forecast, interval);
        let iv = &forecast.intervals[interval];
        let interval_ms = (cadence.as_secs_f64() * 1000.0).max(0.001);
        let passes = ((iv.duration_s * 1000.0) / interval_ms).max(1.0);
        let per_pass_rows = rows / passes;
        let translator = &self.models.translator;
        let inst = match ou {
            OuKind::LogFlush => translator.log_flush_features(bytes / passes, knobs),
            OuKind::GarbageCollection => {
                translator.gc_features(per_pass_rows, rows.max(1.0), interval_ms, knobs)
            }
            OuKind::Compaction => translator.compaction_features(
                per_pass_rows,
                (per_pass_rows / mb2_engine::storage::SHARD_UNIT_SLOTS as f64)
                    .ceil()
                    .max(1.0),
                interval_ms,
                knobs,
            ),
            _ => return 0.0,
        };
        let per_pass = self
            .models
            .ou_models
            .predict(ou, &inst.features)
            .elapsed_us();
        passes * per_pass.max(0.0)
    }

    /// Price a pure knob flip: compare isolated per-query predictions
    /// under the old and new knob settings (interference noise would
    /// otherwise swamp a knob's often-modest effect). Knob flips deploy
    /// instantly, so cost and impact are zero.
    fn knob_flip(
        &self,
        baseline: &IntervalPrediction,
        forecast: &WorkloadForecast,
        interval: usize,
        new_knobs: &Knobs,
    ) -> ActionEvaluation {
        let after = self
            .models
            .predict_interval(forecast, interval, new_knobs, None);
        ActionEvaluation {
            baseline_us: baseline.avg_isolated_runtime_us(),
            during_us: baseline.avg_query_runtime_us(),
            after_us: after.avg_isolated_runtime_us(),
            action_duration_us: 0.0,
            action_cpu_us: 0.0,
        }
    }

    /// Re-plan every forecast template under the given what-if overrides
    /// and return the predicted average query runtime of the re-planned
    /// workload.
    fn replan_and_predict(
        &self,
        forecast: &WorkloadForecast,
        interval: usize,
        knobs: &Knobs,
        overrides: &PlannerOverrides,
    ) -> DbResult<f64> {
        let mut fc = forecast.clone();
        for t in fc.templates.iter_mut() {
            t.plan = self.db.prepare_with(&t.sql, overrides)?;
        }
        Ok(self
            .models
            .predict_interval(&fc, interval, knobs, None)
            .avg_query_runtime_us())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{OuSample, TrainingRepo};
    use crate::forecast::QueryTemplate;
    use crate::training::{train_all, TrainingConfig};
    use crate::translate::OuTranslator;
    use mb2_common::metrics::idx;
    use mb2_common::Metrics;
    use mb2_exec::ExecutionMode;
    use mb2_ml::Algorithm;

    /// Models where index scans are predicted much cheaper than sequential
    /// scans, so index actions show a benefit.
    fn cost_models(db: &Database) -> BehaviorModels {
        let mut repo = TrainingRepo::new();
        let translator = OuTranslator::default();
        // Synthesize per-OU linear costs with SeqScan 10× IdxScan.
        let plans = [
            db.prepare("SELECT * FROM big WHERE pk = 1").unwrap(),
            db.prepare("SELECT * FROM big WHERE grp = 1").unwrap(),
            db.prepare("CREATE INDEX hyp ON big (grp) WITH (THREADS = 4)")
                .unwrap(),
        ];
        for plan in &plans {
            for inst in translator.translate_plan(plan, &db.knobs()) {
                for k in 1..=15 {
                    let mut f = inst.features.clone();
                    f[0] = (k * 50) as f64;
                    // Synthetic costs matching each OU's real complexity
                    // (index builds sort, so O(n log n)).
                    let cost = match inst.ou {
                        OuKind::SeqScan => 10.0 * f[0],
                        OuKind::IdxScan => 1.0 * f[0],
                        OuKind::IndexBuild => 5.0 * f[0] * f[0].log2(),
                        _ => 2.0 * f[0],
                    };
                    let mut labels = Metrics::ZERO;
                    labels[idx::ELAPSED_US] = cost;
                    labels[idx::CPU_US] = cost;
                    repo.add(OuSample {
                        ou: inst.ou,
                        features: f,
                        labels,
                    });
                }
            }
        }
        let (set, _) = train_all(
            &repo,
            &TrainingConfig {
                candidates: vec![Algorithm::Linear],
                ..TrainingConfig::default()
            },
        )
        .unwrap();
        BehaviorModels::new(set, None)
    }

    fn setup() -> Database {
        let db = Database::open();
        db.execute("CREATE TABLE big (pk INT, grp INT, v FLOAT)")
            .unwrap();
        for chunk in (0..3000i64).collect::<Vec<_>>().chunks(500) {
            let vals: Vec<String> = chunk
                .iter()
                .map(|i| format!("({i}, {}, 0.5)", i % 100))
                .collect();
            db.execute(&format!("INSERT INTO big VALUES {}", vals.join(", ")))
                .unwrap();
        }
        db.execute("CREATE INDEX big_pk ON big (pk)").unwrap();
        db.execute("ANALYZE big").unwrap();
        db
    }

    #[test]
    fn index_action_shows_benefit_and_cost() {
        let db = setup();
        let models = cost_models(&db);
        let planner = OraclePlanner::new(&db, &models);
        let sql = "SELECT * FROM big WHERE grp = 7";
        let template = QueryTemplate {
            name: "grp_lookup".into(),
            sql: sql.into(),
            plan: db.prepare(sql).unwrap(),
        };
        let mut forecast = WorkloadForecast::new(vec![template], 2);
        forecast.push_interval(10.0, vec![20.0]);
        let action = Action::BuildIndex {
            sql: "CREATE INDEX big_grp ON big (grp) WITH (THREADS = 4)".into(),
            table: "big".into(),
            index: "big_grp".into(),
            columns: vec!["grp".into()],
            threads: 4,
        };
        let eval = planner
            .evaluate(&action, &forecast, 0, &db.knobs())
            .unwrap();
        assert!(eval.after_us < eval.baseline_us, "{eval:?}");
        assert!(eval.predicted_gain() > 0.5, "{eval:?}");
        assert!(eval.action_duration_us > 0.0);
        // The hypothetical index must be gone afterwards.
        assert!(db
            .catalog()
            .get("big")
            .unwrap()
            .index_named("big_grp")
            .is_none());
    }

    #[test]
    fn drop_unused_index_predicts_no_loss() {
        let db = setup();
        // Train before big_grp exists so `grp = 1` still plans as a
        // SeqScan and the SeqScan OU-model gets fitted — hiding big_pk
        // below must price the seq-scan fallback.
        let models = cost_models(&db);
        db.execute("CREATE INDEX big_grp ON big (grp)").unwrap();
        let planner = OraclePlanner::new(&db, &models);
        // Workload only touches pk, so hiding big_grp changes nothing…
        let sql = "SELECT * FROM big WHERE pk = 1";
        let template = QueryTemplate {
            name: "pk_lookup".into(),
            sql: sql.into(),
            plan: db.prepare(sql).unwrap(),
        };
        let mut forecast = WorkloadForecast::new(vec![template], 2);
        forecast.push_interval(10.0, vec![10.0]);
        let drop = Action::DropIndex {
            table: "big".into(),
            index: "big_grp".into(),
        };
        let eval = planner.evaluate(&drop, &forecast, 0, &db.knobs()).unwrap();
        assert!(
            (eval.after_us - eval.baseline_us).abs() / eval.baseline_us < 1e-9,
            "{eval:?}"
        );
        // …while hiding the pk index the workload depends on predicts a
        // clear regression.
        let drop_pk = Action::DropIndex {
            table: "big".into(),
            index: "big_pk".into(),
        };
        let eval = planner
            .evaluate(&drop_pk, &forecast, 0, &db.knobs())
            .unwrap();
        assert!(eval.after_us > eval.baseline_us * 2.0, "{eval:?}");
        // Evaluation never touched the catalog.
        assert!(db
            .catalog()
            .get("big")
            .unwrap()
            .index_named("big_grp")
            .is_some());
        assert!(db
            .catalog()
            .get("big")
            .unwrap()
            .index_named("big_pk")
            .is_some());
    }

    #[test]
    fn unmodeled_knobs_predict_zero_gain() {
        let db = setup();
        let models = cost_models(&db);
        let planner = OraclePlanner::new(&db, &models);
        let sql = "SELECT * FROM big WHERE grp = 7";
        let template = QueryTemplate {
            name: "q".into(),
            sql: sql.into(),
            plan: db.prepare(sql).unwrap(),
        };
        let mut forecast = WorkloadForecast::new(vec![template], 2);
        forecast.push_interval(10.0, vec![5.0]);
        // `cost_models` trains no Log Flush / GC / Compaction / Block Scan
        // models, and this read-only forecast carries no write volume, so
        // every one of these prices honestly to exactly zero gain.
        for action in [
            Action::SetKnob(Knob::BatchSize, KnobValue::Count(64)),
            Action::SetKnob(Knob::Parallelism, KnobValue::Count(8)),
            Action::SetKnob(
                Knob::WalFlushInterval,
                KnobValue::Interval(Duration::from_millis(1)),
            ),
            Action::SetKnob(
                Knob::GcInterval,
                KnobValue::Interval(Duration::from_millis(100)),
            ),
            Action::SetKnob(Knob::ColumnarEnabled, KnobValue::Flag(true)),
            Action::SetKnob(
                Knob::CompactionInterval,
                KnobValue::Interval(Duration::from_millis(100)),
            ),
        ] {
            let eval = planner
                .evaluate(&action, &forecast, 0, &db.knobs())
                .unwrap();
            assert_eq!(
                eval.predicted_gain(),
                0.0,
                "{} should price to zero without trained background models",
                action.label()
            );
            assert_eq!(eval.action_duration_us, 0.0);
        }
    }

    #[test]
    fn wal_cadence_prices_background_flush_cost() {
        let db = setup();
        // Train only the Log Flush OU: elapsed grows with flushed bytes.
        let mut repo = TrainingRepo::new();
        let translator = OuTranslator::default();
        let knobs = db.knobs();
        for k in 1..=15 {
            let bytes = (k * 1024) as f64;
            let inst = translator.log_flush_features(bytes, &knobs);
            let mut labels = Metrics::ZERO;
            labels[idx::ELAPSED_US] = 5.0 + 0.01 * bytes;
            labels[idx::CPU_US] = 5.0 + 0.01 * bytes;
            repo.add(OuSample {
                ou: OuKind::LogFlush,
                features: inst.features,
                labels,
            });
        }
        let (set, _) = train_all(
            &repo,
            &TrainingConfig {
                candidates: vec![Algorithm::Linear],
                ..TrainingConfig::default()
            },
        )
        .unwrap();
        let models = BehaviorModels::new(set, None);
        let planner = OraclePlanner::new(&db, &models);
        let write_sql = "INSERT INTO big VALUES (9001, 1, 0.5)";
        let templates = vec![QueryTemplate {
            name: "w".into(),
            sql: write_sql.into(),
            plan: db.prepare(write_sql).unwrap(),
        }];
        let mut forecast = WorkloadForecast::new(templates, 2);
        forecast.push_interval(10.0, vec![50.0]);
        // Flushing 10× more often pays more recurring background work;
        // 10× less often pays less. Both must move `after_us`.
        let fast = planner
            .evaluate(
                &Action::SetKnob(
                    Knob::WalFlushInterval,
                    KnobValue::Interval(knobs.wal_flush_interval / 10),
                ),
                &forecast,
                0,
                &knobs,
            )
            .unwrap();
        assert!(fast.after_us > fast.baseline_us, "{fast:?}");
        let slow = planner
            .evaluate(
                &Action::SetKnob(
                    Knob::WalFlushInterval,
                    KnobValue::Interval(knobs.wal_flush_interval * 10),
                ),
                &forecast,
                0,
                &knobs,
            )
            .unwrap();
        assert!(slow.after_us < slow.baseline_us, "{slow:?}");
    }

    #[test]
    fn action_labels_are_stable() {
        assert_eq!(
            Action::SetKnob(Knob::BatchSize, KnobValue::Count(1)).label(),
            "set_batch_size"
        );
        assert_eq!(
            Action::SetKnob(Knob::ColumnarEnabled, KnobValue::Flag(true)).label(),
            "set_columnar_enabled"
        );
        assert_eq!(
            Action::SetKnob(
                Knob::CompactionInterval,
                KnobValue::Interval(Duration::from_millis(1))
            )
            .label(),
            "set_compaction_interval"
        );
        assert_eq!(
            Action::DropIndex {
                table: "t".into(),
                index: "i".into()
            }
            .label(),
            "drop_index"
        );
        assert!(Action::DropIndex {
            table: "t".into(),
            index: "i".into()
        }
        .describe()
        .contains("DROP INDEX i ON t"));
        let ms = Duration::from_millis;
        for (knob, value, want) in [
            (
                Knob::ExecutionMode,
                KnobValue::Mode(ExecutionMode::Interpret),
                "set execution mode to Interpret",
            ),
            (
                Knob::BatchSize,
                KnobValue::Count(64),
                "set batch size to 64",
            ),
            (
                Knob::Parallelism,
                KnobValue::Count(4),
                "set parallelism to 4",
            ),
            (
                Knob::WalFlushInterval,
                KnobValue::Interval(ms(20)),
                "set WAL flush interval to 20ms",
            ),
            (
                Knob::GcInterval,
                KnobValue::Interval(ms(5)),
                "set GC interval to 5ms",
            ),
            (
                Knob::ColumnarEnabled,
                KnobValue::Flag(true),
                "set columnar scans to true",
            ),
            (
                Knob::CompactionInterval,
                KnobValue::Interval(ms(50)),
                "set compaction interval to 50ms",
            ),
        ] {
            assert_eq!(Action::SetKnob(knob, value).describe(), want);
        }
    }

    #[test]
    fn knob_action_evaluates_instantly() {
        let db = setup();
        let models = cost_models(&db);
        let planner = OraclePlanner::new(&db, &models);
        let sql = "SELECT * FROM big WHERE grp = 7";
        let template = QueryTemplate {
            name: "q".into(),
            sql: sql.into(),
            plan: db.prepare(sql).unwrap(),
        };
        let mut forecast = WorkloadForecast::new(vec![template], 2);
        forecast.push_interval(10.0, vec![5.0]);
        let eval = planner
            .evaluate(
                &Action::SetKnob(
                    Knob::ExecutionMode,
                    KnobValue::Mode(ExecutionMode::Interpret),
                ),
                &forecast,
                0,
                &db.knobs(),
            )
            .unwrap();
        assert_eq!(eval.action_duration_us, 0.0);
        assert!(eval.baseline_us > 0.0);
    }
}
