//! The control loop itself: forecast → candidates → pricing → apply →
//! verify/revert.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use mb2_common::DbResult;
use mb2_core::forecast::SlidingWindowForecaster;
use mb2_core::planner::{Action, ActionEvaluation, OraclePlanner};
use mb2_core::BehaviorModels;
use mb2_engine::obs::Histogram;
use mb2_engine::{BackgroundTask, Database, Knob, KnobValue, StatementTap};

use crate::candidates;
use crate::config::PilotConfig;
use crate::metrics::PilotMetrics;

/// `(sum_us, count)` of the four DML statement-latency histograms at one
/// instant; mean latency over a window is computed from two snapshots.
/// DDL is excluded on purpose — the pilot's own index builds must not
/// pollute the workload-latency signal it judges itself by.
#[derive(Debug, Clone, Copy, Default)]
struct StmtSnapshot {
    sum_us: u64,
    count: u64,
}

impl StmtSnapshot {
    /// Mean latency (µs) of the statements between `earlier` and `self`,
    /// or `None` when no statements ran in between.
    fn mean_since(&self, earlier: &StmtSnapshot) -> Option<f64> {
        let count = self.count.saturating_sub(earlier.count);
        if count == 0 {
            return None;
        }
        Some(self.sum_us.saturating_sub(earlier.sum_us) as f64 / count as f64)
    }
}

/// How to roll an applied action back.
#[derive(Debug, Clone)]
enum Undo {
    DropIndex {
        table: String,
        index: String,
    },
    CreateIndex {
        sql: String,
        table: String,
        index: String,
    },
    /// Restore a knob to its value before the apply.
    Knob(Knob, KnobValue),
}

/// An action deployed and awaiting its verify verdict.
#[derive(Debug, Clone)]
struct InFlight {
    description: String,
    undo: Undo,
    applied_at: Instant,
    /// Snapshot taken right after the apply; the verify window's observed
    /// mean is measured from here.
    snap_at_apply: StmtSnapshot,
    /// Observed mean latency over the window *before* the apply, if any
    /// traffic ran.
    observed_baseline_us: Option<f64>,
    evaluation: ActionEvaluation,
}

#[derive(Default)]
struct PilotState {
    inflight: Option<InFlight>,
    /// Snapshot taken at the end of the previous tick; the pre-apply
    /// baseline window is measured from here.
    last_snapshot: Option<StmtSnapshot>,
    cooldown_until: Option<Instant>,
    /// `index name → (table, CREATE INDEX sql)` for indexes the pilot
    /// built and still owns; drop candidates come only from this set and
    /// reverts of drops replay the recorded SQL.
    built_indexes: HashMap<String, (String, String)>,
    /// Most recent terminal outcomes, newest last (bounded).
    history: Vec<String>,
}

/// What one call to [`Pilot::run_once`] did — returned for tests and
/// surfaced through [`Pilot::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TickOutcome {
    /// Not enough observed traffic (or no templates) to forecast.
    NoForecast,
    /// An action is deployed but its verify window has not elapsed.
    Verifying,
    /// The verify window closed; `reverted` says whether the action was
    /// rolled back for regressing past the threshold.
    Verified { reverted: bool },
    /// Inside the post-action cooldown period.
    Cooldown,
    /// Candidates were priced but none cleared the minimum gain.
    NoViableAction,
    /// An action was applied; the value is its stable label.
    Applied(&'static str),
}

/// Point-in-time public view of the pilot, for operators (`SHOW PILOT`)
/// and tests.
#[derive(Debug, Clone)]
pub struct PilotStatus {
    /// `"idle"`, `"verifying"`, or `"cooldown"`.
    pub state: &'static str,
    pub ticks: u64,
    pub actions_considered: u64,
    pub actions_reverted: u64,
    /// Description of the action currently awaiting verification.
    pub inflight: Option<String>,
    /// Pilot-owned index names.
    pub built_indexes: Vec<String>,
    /// Recent terminal outcomes, newest last.
    pub history: Vec<String>,
}

impl PilotStatus {
    /// Hand-rolled JSON rendering (the workspace has no serde).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let inflight = match &self.inflight {
            Some(d) => format!("\"{}\"", esc(d)),
            None => "null".to_string(),
        };
        let built: Vec<String> = self
            .built_indexes
            .iter()
            .map(|n| format!("\"{}\"", esc(n)))
            .collect();
        let history: Vec<String> = self
            .history
            .iter()
            .map(|h| format!("\"{}\"", esc(h)))
            .collect();
        format!(
            "{{\"state\":\"{}\",\"ticks\":{},\"actions_considered\":{},\"actions_reverted\":{},\"inflight\":{},\"built_indexes\":[{}],\"history\":[{}]}}",
            self.state,
            self.ticks,
            self.actions_considered,
            self.actions_reverted,
            inflight,
            built.join(","),
            history.join(",")
        )
    }
}

/// The autopilot. Owns a background thread that runs the control loop at
/// [`PilotConfig::cadence`]; tests drive it deterministically through
/// [`Pilot::run_once`] without starting the thread.
pub struct Pilot {
    db: Arc<Database>,
    models: Arc<BehaviorModels>,
    config: PilotConfig,
    forecaster: Arc<SlidingWindowForecaster>,
    metrics: PilotMetrics,
    state: Mutex<PilotState>,
    latency_hists: Vec<Arc<Histogram>>,
    wakeup: Arc<(StdMutex<bool>, Condvar)>,
    thread: Mutex<Option<JoinHandle<()>>>,
    stopped: AtomicBool,
}

impl Pilot {
    /// Create a pilot bound to a database and a trained model set. The
    /// pilot is inert until [`start`](Pilot::start) (or, in tests,
    /// explicit [`run_once`](Pilot::run_once) calls after installing the
    /// tap yourself).
    pub fn new(db: Arc<Database>, models: Arc<BehaviorModels>, config: PilotConfig) -> Arc<Pilot> {
        let forecaster = Arc::new(SlidingWindowForecaster::new(
            config.forecast_window,
            config.forecast_buckets,
        ));
        let metrics = PilotMetrics::new(db.metrics().clone());
        let latency_hists = ["select", "insert", "update", "delete"]
            .iter()
            .map(|kind| {
                db.metrics().histogram_with(
                    "mb2_stmt_latency_us",
                    &[("kind", kind)],
                    "End-to-end statement latency in microseconds, by kind.",
                )
            })
            .collect();
        Arc::new(Pilot {
            db,
            models,
            config,
            forecaster,
            metrics,
            state: Mutex::new(PilotState::default()),
            latency_hists,
            wakeup: Arc::new((StdMutex::new(false), Condvar::new())),
            thread: Mutex::new(None),
            stopped: AtomicBool::new(false),
        })
    }

    /// The forecaster the pilot feeds from; install it as the engine's
    /// statement tap to route traffic into it ([`start`](Pilot::start)
    /// does this automatically).
    pub fn forecaster(&self) -> &Arc<SlidingWindowForecaster> {
        &self.forecaster
    }

    /// Pilot metric handles (also reachable via the registry).
    pub fn metrics(&self) -> &PilotMetrics {
        &self.metrics
    }

    /// Install the statement tap, register with the engine's shutdown
    /// sequence, and spawn the background control-loop thread.
    pub fn start(self: &Arc<Self>) {
        self.db
            .set_statement_tap(Some(self.forecaster.clone() as Arc<dyn StatementTap>));
        self.db
            .register_background_task(Arc::downgrade(self) as std::sync::Weak<dyn BackgroundTask>);
        let pilot = self.clone();
        let handle = std::thread::Builder::new()
            .name("mb2-pilot".into())
            .spawn(move || {
                let wakeup = pilot.wakeup.clone();
                loop {
                    let (lock, cvar) = &*wakeup;
                    let mut stop = lock.lock().unwrap_or_else(|e| e.into_inner());
                    let mut remaining = pilot.config.cadence;
                    while !*stop && remaining > Duration::ZERO {
                        let start = Instant::now();
                        let (guard, _timeout) = cvar
                            .wait_timeout(stop, remaining)
                            .unwrap_or_else(|e| e.into_inner());
                        stop = guard;
                        remaining = remaining.saturating_sub(start.elapsed());
                    }
                    if *stop {
                        return;
                    }
                    drop(stop);
                    pilot.run_once();
                }
            })
            .expect("spawn pilot thread");
        *self.thread.lock() = Some(handle);
    }

    /// Stop the loop, join the thread, and uninstall the statement tap.
    /// Idempotent; called automatically (via [`BackgroundTask::quiesce`])
    /// at the front of [`Database::shutdown`], while the exec pool, GC,
    /// and WAL are still alive — so a mid-flight tick finishes cleanly.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            let (lock, cvar) = &*self.wakeup;
            let mut stop = lock.lock().unwrap_or_else(|e| e.into_inner());
            *stop = true;
            cvar.notify_all();
        }
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
        self.db.set_statement_tap(None);
    }

    /// Current (sum, count) of the DML latency histograms.
    fn stmt_snapshot(&self) -> StmtSnapshot {
        let mut snap = StmtSnapshot::default();
        for h in &self.latency_hists {
            snap.sum_us += h.sum();
            snap.count += h.count();
        }
        snap
    }

    /// Run one control-loop tick. At most one state transition happens
    /// per tick (verify-then-plan takes two ticks), which keeps test
    /// stepping deterministic.
    pub fn run_once(&self) -> TickOutcome {
        self.metrics.ticks.inc();
        let mut state = self.state.lock();
        let now_snap = self.stmt_snapshot();

        // 1) An in-flight action is judged once its verify window closed.
        if let Some(inflight) = &state.inflight {
            if inflight.applied_at.elapsed() < self.config.verify_window {
                state.last_snapshot = Some(now_snap);
                return TickOutcome::Verifying;
            }
            let inflight = state.inflight.take().expect("checked above");
            let outcome = self.finish_verification(&mut state, inflight, now_snap);
            state.last_snapshot = Some(now_snap);
            state.cooldown_until = Some(Instant::now() + self.config.cooldown);
            self.metrics.inflight.set(0);
            return outcome;
        }

        // 2) Respect the cooldown after the previous action.
        if let Some(until) = state.cooldown_until {
            if Instant::now() < until {
                state.last_snapshot = Some(now_snap);
                return TickOutcome::Cooldown;
            }
            state.cooldown_until = None;
        }

        // 3) Plan: forecast, enumerate, price, maybe apply.
        let outcome = self.plan_and_apply(&mut state, now_snap);
        state.last_snapshot = Some(now_snap);
        outcome
    }

    fn plan_and_apply(&self, state: &mut PilotState, now_snap: StmtSnapshot) -> TickOutcome {
        if self.forecaster.arrivals_in_window() < self.config.min_arrivals {
            return TickOutcome::NoForecast;
        }
        let Some(forecast) = self
            .forecaster
            .snapshot(&self.db, self.config.forecast_threads)
        else {
            return TickOutcome::NoForecast;
        };
        let interval = forecast.intervals.len() - 1;

        let built: Vec<(String, String)> = state
            .built_indexes
            .iter()
            .map(|(index, (table, _))| (index.clone(), table.clone()))
            .collect();
        let mut actions = candidates::enumerate(&self.db, &forecast, &built, &self.config);
        if actions.is_empty() {
            return TickOutcome::NoViableAction;
        }
        // Deterministic seed-controlled tie-break: rotate the (already
        // deterministic) candidate order, then strict-greater selection
        // keeps the first of any equal-gain group.
        let rot = (self.config.seed as usize) % actions.len();
        actions.rotate_left(rot);

        let planner = OraclePlanner::new(&self.db, &self.models);
        let knobs = self.db.knobs();
        let mut best: Option<(Action, ActionEvaluation, f64)> = None;
        let mut best_drop: Option<(Action, ActionEvaluation, f64)> = None;
        for action in actions {
            let Ok(eval) = planner.evaluate(&action, &forecast, interval, &knobs) else {
                continue;
            };
            self.metrics.considered.inc();
            let gain = eval.predicted_gain();
            if let Action::DropIndex { .. } = &action {
                // Housekeeping rule: dropping a pilot-built index the
                // forecast no longer uses reclaims maintenance cost the
                // models do not price, so it needs only a *non-negative*
                // verdict ("predicted not to hurt"), not `min_gain`. It
                // still loses to any gainful action below.
                if gain > -self.config.min_gain
                    && best_drop
                        .as_ref()
                        .map(|(_, _, g)| gain > *g)
                        .unwrap_or(true)
                {
                    best_drop = Some((action, eval, gain));
                }
                continue;
            }
            if gain < self.config.min_gain {
                continue;
            }
            if best.as_ref().map(|(_, _, g)| gain > *g).unwrap_or(true) {
                best = Some((action, eval, gain));
            }
        }
        let Some((action, evaluation, gain)) = best.or(best_drop) else {
            return TickOutcome::NoViableAction;
        };

        // Observed baseline: traffic since the previous tick.
        let observed_baseline_us = state
            .last_snapshot
            .as_ref()
            .and_then(|prev| now_snap.mean_since(prev));

        let apply_started = Instant::now();
        let undo = match self.apply(state, &action) {
            Ok(undo) => undo,
            Err(err) => {
                state
                    .history
                    .push(format!("apply failed: {}: {err}", action.describe()));
                return TickOutcome::NoViableAction;
            }
        };
        let observed_duration_us = apply_started.elapsed().as_micros() as f64;

        let label = action.label();
        self.metrics.applied(label).inc();
        self.metrics.inflight.set(1);
        self.metrics
            .predicted_baseline_us
            .set(evaluation.baseline_us);
        self.metrics.predicted_after_us.set(evaluation.after_us);
        self.metrics.predicted_gain.set(gain);
        self.metrics
            .predicted_action_duration_us
            .set(evaluation.action_duration_us);
        self.metrics
            .observed_action_duration_us
            .set(observed_duration_us);
        if let Some(base) = observed_baseline_us {
            self.metrics.observed_baseline_us.set(base);
        }

        state.inflight = Some(InFlight {
            description: action.describe(),
            undo,
            applied_at: Instant::now(),
            // Post-apply snapshot: the verify window must not include
            // statements that ran while the action deployed.
            snap_at_apply: self.stmt_snapshot(),
            observed_baseline_us,
            evaluation,
        });
        TickOutcome::Applied(label)
    }

    /// Deploy an action to the live engine and return its undo.
    fn apply(&self, state: &mut PilotState, action: &Action) -> DbResult<Undo> {
        match action {
            Action::BuildIndex {
                sql, table, index, ..
            } => {
                self.db.execute(sql)?;
                state
                    .built_indexes
                    .insert(index.clone(), (table.clone(), sql.clone()));
                Ok(Undo::DropIndex {
                    table: table.clone(),
                    index: index.clone(),
                })
            }
            Action::DropIndex { table, index } => {
                let (_, create_sql) = state
                    .built_indexes
                    .get(index)
                    .cloned()
                    .unwrap_or_else(|| (table.clone(), String::new()));
                self.db.execute(&format!("DROP INDEX {index} ON {table}"))?;
                state.built_indexes.remove(index);
                Ok(Undo::CreateIndex {
                    sql: create_sql,
                    table: table.clone(),
                    index: index.clone(),
                })
            }
            Action::SetKnob(knob, value) => {
                let prev = self.db.knob(*knob);
                self.db.set_knob(*knob, *value)?;
                Ok(Undo::Knob(*knob, prev))
            }
        }
    }

    /// Judge an in-flight action against observed latency; revert when
    /// the regression exceeds the threshold.
    fn finish_verification(
        &self,
        state: &mut PilotState,
        inflight: InFlight,
        now_snap: StmtSnapshot,
    ) -> TickOutcome {
        let observed_after_us = now_snap.mean_since(&inflight.snap_at_apply);
        if let Some(after) = observed_after_us {
            self.metrics.observed_after_us.set(after);
        }
        let regression = match (inflight.observed_baseline_us, observed_after_us) {
            (Some(base), Some(after)) if base > 0.0 => {
                self.metrics.observed_gain.set((base - after) / base);
                after > base * (1.0 + self.config.revert_threshold)
            }
            // No traffic on one side of the apply: nothing to judge.
            _ => false,
        };
        if regression {
            if let Err(err) = self.revert(state, &inflight.undo) {
                state
                    .history
                    .push(format!("revert failed: {}: {err}", inflight.description));
            } else {
                self.metrics.reverted.inc();
                state
                    .history
                    .push(format!("reverted: {}", inflight.description));
            }
        } else {
            state.history.push(format!(
                "accepted: {} (predicted gain {:.3})",
                inflight.description,
                inflight.evaluation.predicted_gain()
            ));
        }
        if state.history.len() > 32 {
            let drop_n = state.history.len() - 32;
            state.history.drain(..drop_n);
        }
        TickOutcome::Verified {
            reverted: regression,
        }
    }

    fn revert(&self, state: &mut PilotState, undo: &Undo) -> DbResult<()> {
        match undo {
            Undo::DropIndex { table, index } => {
                self.db.execute(&format!("DROP INDEX {index} ON {table}"))?;
                state.built_indexes.remove(index);
            }
            Undo::CreateIndex { sql, table, index } => {
                if !sql.is_empty() {
                    self.db.execute(sql)?;
                    state
                        .built_indexes
                        .insert(index.clone(), (table.clone(), sql.clone()));
                }
            }
            Undo::Knob(knob, value) => self.db.set_knob(*knob, *value)?,
        }
        Ok(())
    }

    /// Point-in-time status for operators and tests.
    pub fn status(&self) -> PilotStatus {
        let state = self.state.lock();
        let phase = if state.inflight.is_some() {
            "verifying"
        } else if state
            .cooldown_until
            .map(|t| Instant::now() < t)
            .unwrap_or(false)
        {
            "cooldown"
        } else {
            "idle"
        };
        let mut built: Vec<String> = state.built_indexes.keys().cloned().collect();
        built.sort();
        PilotStatus {
            state: phase,
            ticks: self.metrics.ticks.get(),
            actions_considered: self.metrics.considered.get(),
            actions_reverted: self.metrics.reverted.get(),
            inflight: state.inflight.as_ref().map(|f| f.description.clone()),
            built_indexes: built,
            history: state.history.clone(),
        }
    }

    /// [`status`](Pilot::status) rendered as one JSON object.
    pub fn status_json(&self) -> String {
        self.status().to_json()
    }
}

impl BackgroundTask for Pilot {
    fn name(&self) -> &str {
        "mb2-pilot"
    }

    fn quiesce(&self) {
        self.shutdown();
    }
}

impl Drop for Pilot {
    fn drop(&mut self) {
        // The background thread holds an Arc<Pilot>, so by the time Drop
        // runs the thread is already gone; this only covers the
        // never-started case.
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb2_core::training::OuModelSet;
    use mb2_engine::{DatabaseConfig, Step};

    #[test]
    fn knob_undo_restores_every_steppable_knob() {
        // Start the GC and compactor threads so their cadences have steps.
        let db = Arc::new(
            Database::new(DatabaseConfig {
                gc_interval: Some(Duration::from_millis(40)),
                compaction_interval: Some(Duration::from_millis(40)),
                ..DatabaseConfig::default()
            })
            .unwrap(),
        );
        let models = Arc::new(BehaviorModels::new(OuModelSet::default(), None));
        let pilot = Pilot::new(db.clone(), models, PilotConfig::fast());
        let mut state = PilotState::default();
        for knob in Knob::ALL {
            if knob.spec().step == Step::Fixed {
                continue;
            }
            let steps = knob.steps(&db);
            assert!(!steps.is_empty(), "{knob:?} has no step to undo");
            for value in steps {
                let before = db.knob(knob);
                let snapshot = format!("{:?}", db.knobs());
                let undo = pilot
                    .apply(&mut state, &Action::SetKnob(knob, value))
                    .unwrap();
                assert_eq!(db.knob(knob), value, "{knob:?} applied");
                pilot.revert(&mut state, &undo).unwrap();
                assert_eq!(db.knob(knob), before, "{knob:?} -> {value} reverted");
                assert_eq!(format!("{:?}", db.knobs()), snapshot, "{knob:?}");
            }
        }
        db.shutdown();
    }
}
